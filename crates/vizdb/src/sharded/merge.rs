//! Merging per-shard outcomes into the answer the unsharded backend would
//! give: bins sum per cell, counts sum, points concatenate into the canonical
//! distributed order.

use std::collections::BTreeMap;

use crate::db::RunOutcome;
use crate::error::{Error, Result};
use crate::exec::QueryResult;
use crate::plan::PhysicalPlan;
use crate::query::{OutputKind, Query};
use crate::timing::WorkProfile;
use crate::types::GeoPoint;

/// Dense merge buffers are capped at this many grid cells; larger heatmaps
/// fall back to the sparse `BTreeMap` accumulator.
const DENSE_MERGE_MAX_CELLS: usize = 1 << 20;

/// The accumulator behind [`merge_outcomes`]'s bins path:
/// dense (one slot per grid cell, sized once from the grid dims) for ordinary
/// heatmaps, sparse for degenerate ones. Both emit only non-zero cells in
/// ascending bin order, so the merged pairs are byte-identical either way —
/// per-shard executors never produce zero-count bins.
enum BinAcc {
    Dense(Vec<u64>),
    Sparse(BTreeMap<u32, u64>),
}

impl BinAcc {
    fn for_output(output: &OutputKind) -> Self {
        match output {
            OutputKind::BinnedCounts { grid, .. } if grid.cell_count() <= DENSE_MERGE_MAX_CELLS => {
                BinAcc::Dense(vec![0; grid.cell_count()])
            }
            _ => BinAcc::Sparse(BTreeMap::new()),
        }
    }

    fn add(&mut self, bin: u32, c: u64) {
        match self {
            BinAcc::Dense(cells) => match cells.get_mut(bin as usize) {
                Some(slot) => *slot += c,
                // A bin outside the grid should be impossible; count it
                // somewhere rather than silently dropping or panicking.
                None => {
                    let mut sparse: BTreeMap<u32, u64> = cells
                        .iter()
                        .enumerate()
                        .filter(|(_, &v)| v > 0)
                        .fold(BTreeMap::new(), |mut m, (i, &v)| {
                            m.insert(i as u32, v);
                            m
                        });
                    *sparse.entry(bin).or_insert(0) += c;
                    *self = BinAcc::Sparse(sparse);
                }
            },
            BinAcc::Sparse(map) => *map.entry(bin).or_insert(0) += c,
        }
    }

    fn into_pairs(self) -> Vec<(u32, u64)> {
        match self {
            BinAcc::Dense(cells) => cells
                .into_iter()
                .enumerate()
                .filter(|&(_, c)| c > 0)
                .map(|(i, c)| (i as u32, c))
                .collect(),
            BinAcc::Sparse(map) => map.into_iter().collect(),
        }
    }
}

/// Sorts points into the canonical distributed order and applies the global
/// row cap. Every routing path of a partitioned table returns this order, so
/// narrow (single-shard) and wide (multi-shard) viewports are consistent.
pub(super) fn canonicalise_points(points: &mut Vec<(i64, GeoPoint)>, limit: Option<usize>) {
    points.sort_by(|a, b| {
        a.0.cmp(&b.0)
            .then(a.1.lon.total_cmp(&b.1.lon))
            .then(a.1.lat.total_cmp(&b.1.lat))
    });
    if let Some(limit) = limit {
        points.truncate(limit);
    }
}

/// Merges per-shard outcomes: results by aggregate type, execution time as
/// the slowest shard (they ran in parallel), work as the total. An explicit
/// `query.limit` was already applied per shard; re-applying it here makes
/// `Count` outputs exactly equal to the unsharded backend (`min(Σ, limit)`)
/// and bounds `Points` at the requested size. Merge buffers are pre-sized:
/// the bins accumulator once from the grid dims (see [`BinAcc`]), the
/// points vector from the summed per-shard lengths.
pub(super) fn merge_outcomes(query: &Query, outcomes: Vec<RunOutcome>) -> Result<RunOutcome> {
    let mut merged_time: f64 = 0.0;
    let mut merged_work = WorkProfile::default();
    let mut plan: Option<PhysicalPlan> = None;
    let mut bins = BinAcc::for_output(&query.output);
    let point_total: usize = outcomes
        .iter()
        .map(|o| match &o.result {
            QueryResult::Points(p) => p.len(),
            _ => 0,
        })
        .sum();
    let mut points: Vec<(i64, GeoPoint)> = Vec::with_capacity(point_total);
    let mut count: u64 = 0;
    for outcome in outcomes {
        merged_time = merged_time.max(outcome.time_ms);
        merged_work.add(&outcome.work);
        if plan.is_none() {
            plan = Some(outcome.plan);
        }
        match outcome.result {
            QueryResult::Bins(pairs) => {
                for (bin, c) in pairs {
                    bins.add(bin, c);
                }
            }
            QueryResult::Points(p) => points.extend(p),
            QueryResult::Count(c) => count += c,
        }
    }
    let result = match &query.output {
        OutputKind::BinnedCounts { .. } => QueryResult::Bins(bins.into_pairs()),
        OutputKind::Points { .. } => {
            canonicalise_points(&mut points, query.limit);
            QueryResult::Points(points)
        }
        OutputKind::Count => {
            if let Some(limit) = query.limit {
                count = count.min(limit as u64);
            }
            QueryResult::Count(count)
        }
    };
    Ok(RunOutcome {
        time_ms: merged_time,
        result,
        plan: plan.ok_or_else(|| Error::Internal("merged a query over zero shards".into()))?,
        work: merged_work,
    })
}
