//! Pricing plans without executing them.
//!
//! Every exact, join-free, uncapped plan of one query selects the same rows,
//! and every [`WorkProfile`] counter the pipeline charges for such a plan is a
//! function of how many rows survive each *subset* of the query's predicates:
//! an index scan reads as many entries as its predicate matches rows, the
//! candidates fetched from the heap are the rows matching all index
//! predicates, and residual predicate `j` is evaluated once per row that
//! survived the index predicates and residuals `0..j`. [`price_plans`]
//! therefore evaluates each predicate **once** over the table, chunk by chunk,
//! ANDs the per-predicate masks into the `2^k − 1` subset masks, popcounts them
//! into a cardinality table and reads every plan's counters off that table —
//! one pass for a whole hint lattice instead of one execution per plan.
//!
//! Only the masks matter, not how they are built, so each predicate's comes
//! from one of two sources:
//! - the **index scan** — the B+-tree's or R-tree's `range_scan_bitmap`, the
//!   scan an index plan's `source` phase runs — for an indexed range or
//!   rectangle. A wide one is read from the index's prefix checkpoints in a
//!   few word passes, a narrow one walks its few entries, so the mask costs
//!   little at any width;
//! - the **column kernel**, chunk by chunk, as the pipeline's sequential scan
//!   evaluates it, for keywords (whose kernel reads the posting list when the
//!   column has an inverted index) and unindexed columns.
//!
//! The pass costs what the sequential-scan plan's execution costs only when
//! keywords and unindexed predicates make up the query. Its output is pinned
//! against [`execute`](super::execute) field for field by
//! `tests/exec_equivalence.rs::priced_time_equals_executed_time`.
//!
//! The singleton entries of the table, `rows[1 << i]`, are each predicate's
//! own match count — the count an index (or, for the rest, the kernel) gives
//! the database's `true_selectivity` — so the pass returns them too
//! ([`Priced::matches`]) and the database caches them as selectivities: an
//! estimator that prices a query and then collects its selectivities counts
//! each predicate once, not twice
//! (`tests/exec_equivalence.rs::priced_lattices_cache_true_selectivities`).

use crate::bitmap::{set_span, SelectionBitmap, CHUNK_BITS, CHUNK_WORDS};
use crate::exec::compiled::{self, CompiledPredicate};
use crate::exec::executor::{bind, ExecTable, IndexProbe, MaskSource, Output};
use crate::index::intersect_skip_charge;
use crate::plan::PhysicalPlan;
use crate::query::Query;
use crate::timing::WorkProfile;
use crate::types::RecordId;

/// Most predicates [`price_plans`] prices in one pass: `2^4` subset masks of
/// 64 words stay in L1 next to the column stripes being scanned.
pub const MAX_PRICED_PREDICATES: usize = 4;

/// What one lattice pass learns about a query: each plan's work and each
/// predicate's own match count.
#[derive(Debug, Clone, PartialEq)]
pub struct Priced {
    /// The [`WorkProfile`] of each plan, in the order given.
    pub works: Vec<WorkProfile>,
    /// How many rows match each predicate alone, in the query's order: the
    /// count an index or kernel count of that predicate returns.
    pub matches: Vec<u64>,
}

/// The [`WorkProfile`] that `execute(query, plan, fact, None, None)` reports
/// for each of `plans`, computed in one shared pass over the table,
/// and the per-predicate match counts the pass popcounted on the way.
///
/// Returns `None` — the caller executes instead — for anything the pass does
/// not model or `execute` would not run: a join, an approximation rule, more
/// than [`MAX_PRICED_PREDICATES`] predicates, a query that fails the
/// executor's check (an invalid bin grid, a predicate or output column that
/// cannot be bound), a plan that names a predicate the query does not have,
/// leaves one unevaluated, or scans an index that does not exist. It never
/// raises an error itself.
pub fn price_plans(query: &Query, plans: &[PhysicalPlan], fact: &ExecTable<'_>) -> Option<Priced> {
    let k = query.predicate_count();
    if k > MAX_PRICED_PREDICATES || query.join.is_some() {
        return None;
    }
    let bound = bind(query, fact, None).ok()?;
    let n = fact.table.row_count();
    let mut masks = Vec::with_capacity(k);
    let mut indexed = Vec::with_capacity(k);
    for (pred, lowered) in query.predicates.iter().zip(bound.fact) {
        let probe = IndexProbe::find(pred, fact);
        indexed.push(probe.is_some());
        masks.push((lowered, MaskSource::new(probe).scan()));
    }
    let table = cardinalities(&masks, &bound.output, n as RecordId);
    let works = plans
        .iter()
        .map(|plan| table.price(plan, &indexed, &bound.output))
        .collect::<Option<_>>()?;
    let matches = (0..k).map(|i| table.rows[1 << i]).collect();
    Some(Priced { works, matches })
}

/// One predicate's mask as the pass reads it: lowered for the column kernel,
/// and its index source's scan when it has one ([`MaskSource::scan`]).
type PassMask<'a> = (CompiledPredicate<'a>, Option<SelectionBitmap>);

/// Writes chunk `chunk_id` of `mask`, over the chunk's rows `rows`, into
/// `words`: the index scan's words, or the kernel's fill.
fn fill(
    (pred, scan): &PassMask<'_>,
    chunk_id: usize,
    rows: &std::ops::Range<RecordId>,
    words: &mut [u64; CHUNK_WORDS],
    scratch: &mut Vec<RecordId>,
) {
    const EMPTY: [u64; CHUNK_WORDS] = [0; CHUNK_WORDS];
    match scan {
        Some(bits) => *words = *bits.chunk(chunk_id).unwrap_or(&EMPTY),
        None => {
            *words = EMPTY;
            pred.fill_words(rows.start, rows.end, words, scratch);
        }
    }
}

/// The cardinality table of one query: `rows[s]` is the number of rows matching
/// every predicate in subset `s` (bit `i` = predicate `i`; `rows[0]` is the
/// table's row count).
struct Cardinalities {
    rows: Vec<u64>,
    /// Non-empty grid cells of the rows matching every predicate (0 unless the
    /// output is binned).
    distinct_bins: u64,
}

/// The one pass: per chunk, one mask per predicate, the subset masks by AND
/// (each from the subset without its lowest predicate, already computed), a
/// popcount each. A binned output keeps the full conjunction's masks, in the
/// selection type the pipeline bins from.
fn cardinalities(sources: &[PassMask<'_>], output: &Output<'_>, n: RecordId) -> Cardinalities {
    let subsets = 1usize << sources.len();
    let mut rows = vec![0u64; subsets];
    let mut masks = vec![[0u64; CHUNK_WORDS]; subsets];
    let mut scratch: Vec<RecordId> = Vec::new();
    let mut selected = match output {
        Output::Bins { .. } => Some(SelectionBitmap::new(n as usize)),
        _ => None,
    };
    for chunk_id in 0..(n as usize).div_ceil(CHUNK_BITS) {
        let span = compiled::chunk_rows(chunk_id, &(0..n));
        masks[0] = [0u64; CHUNK_WORDS];
        set_span(&mut masks[0], 0, (span.end - span.start - 1) as usize);
        for (i, source) in sources.iter().enumerate() {
            fill(source, chunk_id, &span, &mut masks[1 << i], &mut scratch);
        }
        for s in 1..subsets {
            if s.is_power_of_two() {
                continue;
            }
            let (done, rest) = masks.split_at_mut(s);
            let (a, b) = (&done[s & (s - 1)], &done[s & s.wrapping_neg()]);
            for (dst, (x, y)) in rest[0].iter_mut().zip(a.iter().zip(b)) {
                *dst = x & y;
            }
        }
        for (count, mask) in rows.iter_mut().zip(&masks) {
            *count += compiled::popcount(mask);
        }
        if let Some(dst) = selected.as_mut().and_then(|bits| bits.chunk_mut(chunk_id)) {
            *dst = masks[subsets - 1];
        }
    }
    let distinct_bins = match (output, selected) {
        (Output::Bins(binner), Some(selected)) => {
            let selected_rows = rows[subsets - 1] as usize;
            binner.bin(selected.iter(), selected_rows).non_empty()
        }
        _ => 0,
    };
    Cardinalities {
        rows,
        distinct_bins,
    }
}

impl Cardinalities {
    /// One plan's counters, charged exactly as `source → qualify → sink` do.
    fn price(
        &self,
        plan: &PhysicalPlan,
        indexed: &[bool],
        output: &Output<'_>,
    ) -> Option<WorkProfile> {
        if plan.join.is_some() || plan.approx.is_some() {
            return None;
        }
        let k = indexed.len();
        let mut work = WorkProfile::default();
        // The predicates applied so far, as a subset.
        let mut applied = 0usize;
        let mut every_pred = 0..k;
        let mut filter_preds = plan.filter_preds.iter().copied();
        let residual: &mut dyn Iterator<Item = usize> = if plan.index_preds.is_empty() {
            work.seq_rows = self.rows[0];
            &mut every_pred
        } else {
            let mut lens = Vec::with_capacity(plan.index_preds.len());
            for &p in &plan.index_preds {
                if !*indexed.get(p)? {
                    return None;
                }
                let matches = self.rows[1 << p];
                work.index_probes += 1;
                work.index_entries += matches;
                lens.push(matches as usize);
                applied |= 1 << p;
            }
            work.intersect_entries = intersect_skip_charge(&lens);
            work.heap_fetches = self.rows[applied];
            &mut filter_preds
        };
        // Each residual predicate is evaluated once per row still selected.
        for p in residual {
            if p >= k {
                return None;
            }
            work.filter_evals += self.rows[applied];
            applied |= 1 << p;
        }
        if applied + 1 != self.rows.len() {
            return None;
        }
        let result_rows = self.rows[applied];
        match output {
            Output::Points { .. } => work.output_rows = result_rows,
            Output::Bins { .. } => {
                work.grouped_rows = result_rows;
                work.output_rows = self.distinct_bins;
            }
            Output::Count => work.output_rows = 1,
        }
        Some(work)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::index::{BPlusTree, InvertedIndex, RTree};
    use crate::query::Predicate;
    use crate::schema::{ColumnType, TableSchema};
    use crate::storage::{Table, TableBuilder};
    use crate::types::{GeoRect, NumRange, TimeRange};

    /// 9,001 rows (a partial last chunk, and enough for prefix checkpoints):
    /// timestamps `5 × row`, a float with duplicate keys and signed NaNs,
    /// points on a line with one NaN (row 7, which no rectangle holds), and
    /// a keyword on every third row.
    fn table() -> Table {
        let schema = TableSchema::new("t")
            .with_column("when", ColumnType::Timestamp)
            .with_column("score", ColumnType::Float)
            .with_column("loc", ColumnType::Geo)
            .with_column("tag", ColumnType::Text);
        let mut b = TableBuilder::new(schema);
        for i in 0..9001i64 {
            b.push_row(|row| {
                row.set_timestamp("when", 5 * i);
                let score = match i % 50 {
                    48 => f64::NAN,
                    49 => -f64::NAN,
                    _ => (i % 37) as f64,
                };
                row.set_float("score", score);
                let lon = if i == 7 { f64::NAN } else { i as f64 / 100.0 };
                row.set_geo("loc", lon, 1.0);
                row.set_text("tag", if i % 3 == 0 { &["hot"] } else { &["cold"] });
            });
        }
        b.build()
    }

    /// Each predicate takes the source its index calls for, and both sources
    /// yield the column kernel's mask in every chunk, whether the index scan
    /// reads its checkpoints (wide ranges) or walks (narrow ones).
    #[test]
    fn each_mask_source_yields_the_kernel_mask() {
        let t = table();
        let rids = || 0..t.row_count() as RecordId;
        let stamps = rids().map(|r| (t.timestamp(0, r).unwrap(), r)).collect();
        let scores = rids().map(|r| (BPlusTree::float_key(t.numeric(1, r).unwrap()), r));
        let btree = HashMap::from([
            (0, BPlusTree::build(stamps)),
            (1, BPlusTree::build(scores.collect())),
        ]);
        let points = rids().map(|r| (t.geo(2, r).unwrap(), r)).collect();
        let rtree = HashMap::from([(2, RTree::build(points))]);
        let docs: Vec<Vec<_>> = rids().map(|r| t.text(3, r).unwrap().to_vec()).collect();
        let inverted = HashMap::from([(3, InvertedIndex::build(&docs))]);
        let fact = ExecTable {
            table: &t,
            btree: &btree,
            rtree: &rtree,
            inverted: &inverted,
            cells: None,
        };
        let time = |start, end| Predicate::TimeRange {
            attr: 0,
            range: TimeRange { start, end },
        };
        let score = |lo, hi| Predicate::NumericRange {
            attr: 1,
            range: NumRange { lo, hi },
        };
        let rect = |lo: f64, hi: f64| Predicate::spatial_range(2, GeoRect::new(lo, 0.0, hi, 2.0));
        let cases = [
            // 101 rows: a leaf walk.
            (time(100, 600), "index"),
            (time(100, 9_000), "index"),
            (time(5_000, 27_500), "index"),
            (time(5, 44_000), "index"),
            (time(i64::MIN, 40_000), "index"),
            (time(500, i64::MAX), "index"),
            (time(i64::MIN, i64::MAX), "index"),
            (time(9_000, 100), "index"),
            (score(2.0, 5.0), "index"),
            (score(1.0, 36.0), "index"),
            (score(-0.0, f64::INFINITY), "index"),
            (score(f64::NAN, 5.0), "index"),
            // 101 points: a tree walk.
            (rect(0.0, 1.0), "index"),
            (rect(0.0, 10.0), "index"),
            // Every point but the NaN row 7.
            (rect(-1.0, 100.0), "index"),
            (rect(f64::NAN, 100.0), "index"),
            (Predicate::keyword(3, "hot"), "kernel"),
        ];
        let n = t.row_count();
        let mut scratch = Vec::new();
        for (pred, want) in &cases {
            let lowered = || compiled::lower_predicate(pred, &fact).unwrap();
            let source = MaskSource::new(IndexProbe::find(pred, &fact));
            let got = match source {
                MaskSource::Kernel => "kernel",
                MaskSource::Index(_) => "index",
            };
            assert_eq!(got, *want, "{pred:?}");
            let source = (lowered(), source.scan());
            let kernel = (lowered(), None);
            for chunk_id in 0..n.div_ceil(CHUNK_BITS) {
                let rows = compiled::chunk_rows(chunk_id, &(0..n as RecordId));
                let (mut a, mut b) = ([0u64; CHUNK_WORDS], [0u64; CHUNK_WORDS]);
                fill(&source, chunk_id, &rows, &mut a, &mut scratch);
                fill(&kernel, chunk_id, &rows, &mut b, &mut scratch);
                assert!(a == b, "{pred:?} chunk {chunk_id}");
            }
        }
    }
}
