//! Morsel-driven parallel execution for the bitmap pipeline.
//!
//! Every entry point here takes `threads` and owns the sequential-vs-parallel
//! decision, so the executor never forks on it. At `threads <= 1` an entry
//! point calls the sequential kernel in [`super::compiled`] **once over the
//! whole input** — no morsels, no partials, no merge. Above that it splits the
//! record space into **chunk-aligned morsels** (ranges of the 4096-row chunks
//! of the query's one dense [`SelectionBitmap`]), hands them to
//! [`crate::sched`]'s claim-cursor worker crew, and merges each worker's
//! **private partial accumulators** — refined chunk words, dense bin-count
//! partials, per-morsel [`WorkProfile`] deltas — in deterministic morsel
//! order.
//!
//! ## Determinism contract
//!
//! Every observable of a parallel execution — the `QueryResult` bytes, the
//! `WorkProfile`, the simulated time derived from it, and the plan — is
//! byte-identical to the sequential kernels at *any* thread count. The
//! contract holds by construction, not by tolerance:
//!
//! * morsel boundaries coincide with the sequential pass's chunk (and
//!   [`BATCH_ROWS`] batch) boundaries, so per-chunk charges are unchanged;
//! * workers only share the claim cursor and the poison flag — every
//!   accumulator is private until the single-threaded merge;
//! * partials merge in morsel order (refined chunks are written back to
//!   their own chunk of the selection; `WorkProfile` counters are exact
//!   `u64` sums, so summation order cannot perturb them);
//! * row-capped paths run **speculatively**: each morsel evaluates rows as if
//!   it owned the whole cap, and the in-order merge cuts at the limit —
//!   taking whole morsels while they fit, and deterministically re-running
//!   the one crossing morsel with the exact remaining cap so the rows
//!   *charged* match the sequential stop point bit for bit;
//! * dense bin counts fold into per-worker partial vectors; `u64` addition is
//!   exact and commutative, so worker claim order cannot show through.
//!
//! This module holds no synchronisation of its own: the crew (claim cursor,
//! poison flag, in-order merge, earliest-panic re-raise) is [`crate::sched`]'s
//! [`run_morsels`] / [`run_morsels_fold`], model-checked there.
//!
//! [`SelectionBitmap`]: crate::bitmap::SelectionBitmap
//! [`BATCH_ROWS`]: super::compiled::BATCH_ROWS

use crate::bitmap::{SelectionBitmap, CHUNK_BITS, CHUNK_WORDS};
use crate::exec::compiled::{self, BinnedAccum, CompiledPredicate, BATCH_ROWS};
use crate::query::BinGrid;
use crate::sched::{run_morsels, run_morsels_fold};
use crate::timing::WorkProfile;
use crate::types::{GeoPoint, RecordId};

/// Rows per capped sequential-scan morsel: one bitmap chunk, the same split
/// as the uncapped scan's chunk morsels; one 4096-row unit is fine-grained
/// enough for the claim cursor to load-balance a 40k-row scan across eight
/// workers.
pub(crate) const MORSEL_ROWS: usize = CHUNK_BITS;

/// Chunks per bitmap morsel (refinement, range scan, binning, gather).
pub(crate) const MORSEL_CHUNKS: usize = 1;

/// Ids per slice/stream morsel — a multiple of [`BATCH_ROWS`] so morsel
/// boundaries coincide with the sequential pass's batch boundaries.
pub(crate) const MORSEL_IDS: usize = 4 * BATCH_ROWS;

/// Number of [`MORSEL_ROWS`]-aligned morsels covering `rows`.
fn range_morsel_count(rows: &std::ops::Range<RecordId>) -> usize {
    if rows.start >= rows.end {
        return 0;
    }
    let first = rows.start as usize / MORSEL_ROWS;
    let last = (rows.end as usize - 1) / MORSEL_ROWS;
    last - first + 1
}

/// The sub-range morsel `m` of `rows` covers (boundaries at absolute
/// [`MORSEL_ROWS`] multiples, so splits always land on chunk boundaries).
fn range_morsel(rows: &std::ops::Range<RecordId>, m: usize) -> std::ops::Range<RecordId> {
    let first = rows.start as usize / MORSEL_ROWS;
    let lo = ((first + m) * MORSEL_ROWS) as RecordId;
    let hi = ((first + m + 1) * MORSEL_ROWS) as RecordId;
    rows.start.max(lo)..rows.end.min(hi)
}

/// [`compiled::qualify_range_bitmap`] on `threads` workers: [`refine_chunks`]
/// over the result's chunks, each qualifying its share of `rows` by
/// [`compiled::qualify_range_chunk`].
pub(crate) fn qualify_range_bitmap(
    preds: &[CompiledPredicate<'_>],
    rows: std::ops::Range<RecordId>,
    threads: usize,
    work: &mut WorkProfile,
    per_batch_rows: impl Fn(&mut WorkProfile, u64) + Copy + Sync,
) -> SelectionBitmap {
    if threads <= 1 {
        return compiled::qualify_range_bitmap(preds, rows, work, per_batch_rows);
    }
    let mut out = SelectionBitmap::new(rows.end as usize);
    refine_chunks(&mut out, threads, work, |chunk_id, words, w| {
        let chunk_rows = compiled::chunk_rows(chunk_id, &rows);
        let mut scratch = Vec::new();
        compiled::qualify_range_chunk(preds, chunk_rows, words, &mut scratch, w, per_batch_rows);
    });
    out
}

/// [`compiled::qualify_bitmap`] on `threads` workers: [`refine_chunks`] over
/// the candidates' chunks by [`compiled::refine_chunk`].
pub(crate) fn qualify_bitmap(
    preds: &[CompiledPredicate<'_>],
    candidates: &mut SelectionBitmap,
    threads: usize,
    work: &mut WorkProfile,
    per_batch_rows: impl Fn(&mut WorkProfile, u64) + Copy + Sync,
) {
    if threads <= 1 {
        return compiled::qualify_bitmap(preds, candidates, work, per_batch_rows);
    }
    refine_chunks(candidates, threads, work, |chunk_id, words, w| {
        compiled::refine_chunk(preds, chunk_id, words, w, per_batch_rows);
    });
}

/// Runs `refine(chunk id, words, work)` over every chunk of `bits` on
/// `threads` workers. A morsel is [`MORSEL_CHUNKS`] consecutive chunks,
/// refined as private copies into a private `WorkProfile`; the refined chunks
/// are written back and the profiles summed in morsel order. Each chunk is
/// refined independently of the others, so the result is chunk for chunk
/// that of one sequential pass.
fn refine_chunks(
    bits: &mut SelectionBitmap,
    threads: usize,
    work: &mut WorkProfile,
    refine: impl Fn(usize, &mut [u64; CHUNK_WORDS], &mut WorkProfile) + Sync,
) {
    let chunks = bits.chunk_count();
    let shared = &*bits;
    let parts = run_morsels(chunks.div_ceil(MORSEL_CHUNKS), threads, |m| {
        let mut w = WorkProfile::default();
        let refined: Vec<[u64; CHUNK_WORDS]> = chunk_morsel(chunks, m)
            .filter_map(|chunk_id| {
                let mut words = *shared.chunk(chunk_id)?;
                refine(chunk_id, &mut words, &mut w);
                Some(words)
            })
            .collect();
        (refined, w)
    });
    let refined = parts.iter().flat_map(|(words, _)| words);
    for (dst, src) in bits.chunks_mut().zip(refined) {
        *dst = *src;
    }
    for (_, w) in &parts {
        work.add(w);
    }
}

/// The chunk indices morsel `m` covers.
fn chunk_morsel(chunks: usize, m: usize) -> std::ops::Range<usize> {
    let lo = m * MORSEL_CHUNKS;
    lo..chunks.min(lo + MORSEL_CHUNKS)
}

/// The sub-slice morsel `m` covers.
fn slice_morsel(rids: &[RecordId], m: usize) -> &[RecordId] {
    let lo = m * MORSEL_IDS;
    &rids[lo..rids.len().min(lo + MORSEL_IDS)]
}

/// [`compiled::qualify_slice`] on `threads` workers: morsels are
/// [`MORSEL_IDS`]-sized sub-slices, so each morsel's internal [`BATCH_ROWS`]
/// batches coincide with the sequential pass's batch boundaries.
pub(crate) fn qualify_slice(
    preds: &[CompiledPredicate<'_>],
    rids: &[RecordId],
    threads: usize,
    qualifying: &mut Vec<RecordId>,
    work: &mut WorkProfile,
    per_batch_rows: impl Fn(&mut WorkProfile, u64) + Copy + Sync,
) {
    if threads <= 1 {
        return compiled::qualify_slice(preds, rids, qualifying, work, per_batch_rows);
    }
    let parts = run_morsels(rids.len().div_ceil(MORSEL_IDS), threads, |m| {
        let mut w = WorkProfile::default();
        let mut ids = Vec::new();
        compiled::qualify_slice(
            preds,
            slice_morsel(rids, m),
            &mut ids,
            &mut w,
            per_batch_rows,
        );
        (ids, w)
    });
    for (ids, w) in parts {
        work.add(&w);
        qualifying.extend_from_slice(&ids);
    }
}

/// [`compiled::qualify_batches`] on `threads` workers. Materialising the
/// stream is uncharged, and slice morsels batch ids in the same
/// [`BATCH_ROWS`] groups as the stream entry point — identical charges by
/// construction.
pub(crate) fn qualify_stream(
    preds: &[CompiledPredicate<'_>],
    rids: impl Iterator<Item = RecordId>,
    threads: usize,
    qualifying: &mut Vec<RecordId>,
    work: &mut WorkProfile,
    per_batch_rows: impl Fn(&mut WorkProfile, u64) + Copy + Sync,
) {
    if threads <= 1 {
        return compiled::qualify_batches(preds, rids, qualifying, work, per_batch_rows);
    }
    let ids: Vec<RecordId> = rids.collect();
    qualify_slice(preds, &ids, threads, qualifying, work, per_batch_rows);
}

/// [`compiled::qualify_capped`] on `threads` workers, speculatively. Each
/// morsel runs the row-at-a-time capped loop as if it owned the whole cap; the
/// in-order merge then reproduces the sequential stop point exactly:
///
/// * a morsel that found fewer matches than remain under the cap evaluated
///   every one of its rows — exactly what the sequential pass would have done
///   — so its ids and its private `WorkProfile` delta are taken wholesale;
/// * the first morsel that covers the cut either stopped exactly at the cap
///   (when nothing was taken before it, its speculative run *is* the
///   sequential run) or is **re-run** against the true remaining cap, so the
///   rows charged past the final match are identical to the sequential scan;
/// * morsels past the cut are discarded — their speculative work touched only
///   private accumulators.
///
/// `whole` yields every candidate row in scan order and `rows_of(m)` morsel
/// `m`'s share of them; `row_charge` is the per-row-visited charge (`seq_rows`
/// or `heap_fetches`).
#[allow(clippy::too_many_arguments)]
fn qualify_capped<W, I, F>(
    preds: &[CompiledPredicate<'_>],
    whole: W,
    total: usize,
    rows_of: F,
    cap: usize,
    row_charge: impl Fn(&mut WorkProfile) + Copy + Sync,
    threads: usize,
    work: &mut WorkProfile,
    qualifying: &mut Vec<RecordId>,
) where
    W: Iterator<Item = RecordId>,
    I: Iterator<Item = RecordId>,
    F: Fn(usize) -> I + Sync,
{
    if threads <= 1 {
        return compiled::qualify_capped(preds, whole, cap, row_charge, work, qualifying);
    }
    let parts = run_morsels(total, threads, |m| {
        let mut w = WorkProfile::default();
        let mut ids = Vec::new();
        compiled::qualify_capped(preds, rows_of(m), cap, row_charge, &mut w, &mut ids);
        (ids, w)
    });
    let mut remaining = cap;
    for (m, (ids, w)) in parts.into_iter().enumerate() {
        if ids.len() < remaining {
            // Fewer matches than the remaining cap: the morsel evaluated all
            // its rows, exactly as the sequential pass would have.
            remaining -= ids.len();
            work.add(&w);
            qualifying.extend_from_slice(&ids);
        } else if remaining == cap {
            // The speculative run used this very cap and stopped at the
            // cap-th match — its charges are the sequential ones.
            work.add(&w);
            qualifying.extend_from_slice(&ids);
            return;
        } else {
            // The crossing morsel: it speculated past where the sequential
            // scan stops. Re-run it against the true remaining cap; the
            // morsel's rows and the predicate evaluations are deterministic,
            // so this replay is the sequential execution of the cut.
            return compiled::qualify_capped(
                preds,
                rows_of(m),
                remaining,
                row_charge,
                work,
                qualifying,
            );
        }
    }
}

/// [`qualify_capped`] over the rows of a contiguous range that pass `keep`
/// (the sample restriction), split at the same [`MORSEL_ROWS`]-aligned
/// boundaries as the uncapped range scan. Rows failing `keep` are skipped
/// uncharged.
#[allow(clippy::too_many_arguments)]
pub(crate) fn qualify_capped_range(
    preds: &[CompiledPredicate<'_>],
    rows: std::ops::Range<RecordId>,
    keep: impl Fn(&RecordId) -> bool + Copy + Sync,
    cap: usize,
    row_charge: impl Fn(&mut WorkProfile) + Copy + Sync,
    threads: usize,
    work: &mut WorkProfile,
    qualifying: &mut Vec<RecordId>,
) {
    qualify_capped(
        preds,
        rows.clone().filter(keep),
        range_morsel_count(&rows),
        |m| range_morsel(&rows, m).filter(keep),
        cap,
        row_charge,
        threads,
        work,
        qualifying,
    );
}

/// [`qualify_capped`] over a candidate bitmap (chunk-range morsels, so
/// rows enumerate ascending within and across morsels).
pub(crate) fn qualify_capped_bitmap(
    preds: &[CompiledPredicate<'_>],
    candidates: &SelectionBitmap,
    cap: usize,
    row_charge: impl Fn(&mut WorkProfile) + Copy + Sync,
    threads: usize,
    work: &mut WorkProfile,
    qualifying: &mut Vec<RecordId>,
) {
    let chunks = candidates.chunk_count();
    qualify_capped(
        preds,
        candidates.iter(),
        chunks.div_ceil(MORSEL_CHUNKS),
        |m| candidates.iter_chunks(chunk_morsel(chunks, m)),
        cap,
        row_charge,
        threads,
        work,
        qualifying,
    );
}

/// [`qualify_capped`] over an id slice ([`MORSEL_IDS`]-sized morsels; the
/// capped loop is row-at-a-time, so any split point preserves charges).
pub(crate) fn qualify_capped_slice(
    preds: &[CompiledPredicate<'_>],
    rids: &[RecordId],
    cap: usize,
    row_charge: impl Fn(&mut WorkProfile) + Copy + Sync,
    threads: usize,
    work: &mut WorkProfile,
    qualifying: &mut Vec<RecordId>,
) {
    qualify_capped(
        preds,
        rids.iter().copied(),
        rids.len().div_ceil(MORSEL_IDS),
        |m| slice_morsel(rids, m).iter().copied(),
        cap,
        row_charge,
        threads,
        work,
        qualifying,
    );
}

/// Dense binned-count accumulation over a qualified bitmap of `rows` ids on
/// `threads` workers: they fold chunk-range morsels into private per-cell `u64`
/// count vectors, which merge by exact elementwise addition — claim order
/// cannot show through. Grids failing the shared dense gate (and degenerate
/// runs) take the sequential [`compiled::bin_counts_iter`] path unchanged.
pub(crate) fn bin_counts(
    grid: &BinGrid,
    geo: &[GeoPoint],
    qualified: &SelectionBitmap,
    rows: usize,
    materialize: bool,
    threads: usize,
) -> BinnedAccum {
    let cells = grid.cell_count();
    let chunks = qualified.chunk_count();
    let total = chunks.div_ceil(MORSEL_CHUNKS);
    if threads <= 1 || total <= 1 || !compiled::dense_grid_gate(cells, rows) {
        // The sparse HashMap fallback has no cheap commutative merge; it (and
        // the trivially small runs) stay sequential.
        return compiled::bin_counts_iter(grid, geo, qualified.iter(), rows, materialize);
    }
    let partials = run_morsels_fold(
        total,
        threads,
        || vec![0u64; cells],
        |acc, m| {
            let rows = qualified.iter_chunks(chunk_morsel(chunks, m));
            compiled::dense_bin_into(grid, geo, rows, acc);
        },
    );
    let mut partials = partials.into_iter();
    let mut counts = match partials.next() {
        Some(c) => c,
        None => vec![0u64; cells],
    };
    for p in partials {
        for (c, v) in counts.iter_mut().zip(&p) {
            *c += *v;
        }
    }
    compiled::dense_accum_finish(&counts, materialize)
}

/// [`compiled::gather_points`] over a qualified bitmap of `rows` ids on
/// `threads` workers: they collect `(id, point)` pairs for chunk-range morsels
/// into private vectors, concatenated in morsel order.
pub(crate) fn gather_points(
    qualified: &SelectionBitmap,
    rows: usize,
    ids: Option<&[i64]>,
    geo: &[GeoPoint],
    threads: usize,
) -> Vec<(i64, GeoPoint)> {
    if threads <= 1 {
        return compiled::gather_points(qualified.iter(), rows, ids, geo);
    }
    let chunks = qualified.chunk_count();
    let parts = run_morsels(chunks.div_ceil(MORSEL_CHUNKS), threads, |m| {
        compiled::gather_points(qualified.iter_chunks(chunk_morsel(chunks, m)), 0, ids, geo)
    });
    let mut points = Vec::with_capacity(rows);
    for p in parts {
        points.extend_from_slice(&p);
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{drain_worker, MorselRun};

    #[test]
    fn run_morsels_returns_in_order_at_every_thread_count() {
        for threads in [1, 2, 4, 8] {
            let got = run_morsels(37, threads, |m| m * 3);
            let want: Vec<usize> = (0..37).map(|m| m * 3).collect();
            assert_eq!(got, want, "{threads} threads");
        }
        assert!(run_morsels(0, 4, |m| m).is_empty());
    }

    #[test]
    fn run_morsels_fold_accumulates_every_index_once() {
        for threads in [1, 2, 4, 8] {
            let accs = run_morsels_fold(100, threads, Vec::new, |acc: &mut Vec<usize>, m| {
                acc.push(m)
            });
            let mut all: Vec<usize> = accs.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..100).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn panicking_morsel_resumes_earliest_payload_after_join() {
        for threads in [1, 2, 4] {
            let caught = std::panic::catch_unwind(|| {
                run_morsels(16, threads, |m| {
                    if m >= 5 {
                        std::panic::panic_any(m);
                    }
                    m
                })
            });
            let payload = caught.expect_err("must panic");
            let &idx = payload.downcast_ref::<usize>().expect("usize payload");
            // Workers may claim later morsels concurrently, but the merge must
            // re-raise the earliest panicking index every time.
            assert_eq!(idx, 5, "{threads} threads");
        }
    }

    #[test]
    fn poisoned_run_stops_claims() {
        let run = MorselRun::new();
        assert_eq!(run.claim(10), Some(0));
        run.poison();
        assert!(run.is_poisoned());
        assert_eq!(run.claim(10), None);
    }

    #[test]
    fn drain_worker_records_claim_order_and_panic() {
        let run = MorselRun::new();
        let f = |m: usize| {
            if m == 2 {
                std::panic::panic_any("boom");
            }
            m * 10
        };
        let parts = drain_worker(&run, 5, &f);
        assert_eq!(parts.len(), 3); // 0, 1, then the panic at 2 stops the loop
        assert!(matches!(parts[0], (0, Ok(0))));
        assert!(matches!(parts[1], (1, Ok(10))));
        assert!(parts[2].1.is_err() && parts[2].0 == 2);
        assert!(run.is_poisoned());
        assert_eq!(run.claim(5), None);
    }
}
