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
//! one pass for a whole hint lattice instead of one execution per plan. A
//! keyword with an inverted index fills each chunk's mask from its posting
//! list, as the pipeline's sequential scan does.
//!
//! The pass costs about what executing the sequential-scan plan alone costs.
//! Its output is pinned against [`execute`](super::execute) field for field by
//! `tests/exec_equivalence.rs::priced_time_equals_executed_time`.

use crate::bitmap::{set_span, SelectionBitmap, CHUNK_BITS, CHUNK_WORDS};
use crate::exec::compiled::{self, CompiledPredicate};
use crate::exec::executor::{check_output, lower_output, ExecTable, Output};
use crate::index::intersect_skip_charge;
use crate::plan::PhysicalPlan;
use crate::query::Query;
use crate::timing::WorkProfile;
use crate::types::RecordId;

/// Most predicates [`price_plans`] prices in one pass: `2^4` subset masks of
/// 64 words stay in L1 next to the column stripes being scanned.
pub const MAX_PRICED_PREDICATES: usize = 4;

/// The [`WorkProfile`] that `execute(query, plan, fact, None, None, false, _)`
/// reports for each of `plans`, computed in one shared pass over the table.
///
/// Returns `None` — the caller executes instead — for anything the pass does
/// not model or `execute` would not run on the pipeline: a join, an
/// approximation rule, more than [`MAX_PRICED_PREDICATES`] predicates, an
/// invalid bin grid, a predicate or output column that cannot be lowered, a
/// plan that names a predicate the query does not have, leaves one
/// unevaluated, or scans an index that does not exist. It never raises an
/// error itself.
pub fn price_plans(
    query: &Query,
    plans: &[PhysicalPlan],
    fact: &ExecTable<'_>,
) -> Option<Vec<WorkProfile>> {
    let k = query.predicate_count();
    if k > MAX_PRICED_PREDICATES || query.join.is_some() || check_output(query).is_err() {
        return None;
    }
    let mut lowered = Vec::with_capacity(k);
    let mut indexed = Vec::with_capacity(k);
    for pred in &query.predicates {
        let pred_lowered = compiled::lower_predicate(pred, fact).ok()?;
        let attr = pred.attr();
        indexed.push(match &pred_lowered {
            CompiledPredicate::Keyword { .. } => fact.inverted.contains_key(&attr),
            CompiledPredicate::Spatial { .. } => fact.rtree.contains_key(&attr),
            _ => fact.btree.contains_key(&attr),
        });
        lowered.push(pred_lowered);
    }
    let output = lower_output(query, fact.table).ok()?;
    let table = cardinalities(&lowered, &output, fact.table.row_count() as RecordId);
    plans
        .iter()
        .map(|plan| table.price(plan, &indexed, &output))
        .collect()
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
fn cardinalities(
    preds: &[CompiledPredicate<'_>],
    output: &Output<'_>,
    n: RecordId,
) -> Cardinalities {
    let subsets = 1usize << preds.len();
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
        for (i, pred) in preds.iter().enumerate() {
            let words = &mut masks[1 << i];
            *words = [0u64; CHUNK_WORDS];
            pred.fill_words(span.start, span.end, words, &mut scratch);
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
        (Output::Bins { geo, grid }, Some(selected)) => {
            let selected_rows = rows[subsets - 1] as usize;
            compiled::bin_counts_iter(grid, geo, selected.iter(), selected_rows, false)
                .distinct_bins
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
