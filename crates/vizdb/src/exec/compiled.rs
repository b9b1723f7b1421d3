//! Predicate lowering and the columnar kernels of the bitmap pipeline.
//!
//! The reference interpreter ([`crate::exec::reference`]) re-matches the
//! [`ColumnData`] variant, re-bounds-checks the column vector and dispatches
//! through a `Result` on *every row*. This module lowers each query's
//! predicates **once per execution** into typed [`CompiledPredicate`]s that bind
//! the concrete column slice and the pre-resolved keyword token up front, then
//! evaluates them over the 4096-row chunks of one dense [`SelectionBitmap`]
//! with 64-bit word kernels, in place (contiguous scans fill a chunk's words,
//! index candidates are refined where the scans left them). Predicate `k` only
//! sees the rows that survived predicates `0..k`, which is exactly the work
//! the short-circuiting interpreter performs, so `WorkProfile` counts (and
//! therefore simulated times) are identical by construction.
//!
//! A keyword over a column with an inverted index also binds its token's
//! posting list ([`lower_predicate`]), and the chunk kernels combine the
//! chunk's ids from the list's container into the chunk's words — one 64-word
//! AND or OR against a bitmap container — instead of probing one document
//! per row. `filter_evals` still charges every row the predicate is
//! evaluated over, so the work profile does not change.
//!
//! An index plan's residual range over a B+-tree column, or rectangle over
//! an R-tree column, can skip the per-candidate probe altogether:
//! [`qualify_bitmap`] ANDs the index's whole-table mask into the candidates,
//! read from its prefix checkpoints, whenever that costs less than probing
//! them — a word pass per checkpoint span plus the span's single-bit
//! fix-ups, counted exactly after the rank search, against one evaluation
//! per candidate — and charges the candidates' popcount exactly as the probe
//! would have been charged.
//!
//! Binned-count outputs additionally get **dense-grid binning**: when the grid
//! is small enough ([`DENSE_GRID_MAX_CELLS`]) counts accumulate into a
//! `Vec<u64>` indexed by bin id instead of a `HashMap`, producing the same
//! sorted `(bin, count)` pairs without hashing per qualifying row. Once the
//! table holds a cell column for the grid ([`crate::storage::CellColumn`],
//! built on the table's first binning), both accumulations read each row's
//! cell from it ([`Binner`]) instead of dividing its point into the grid.
//!
//! Lowering is fallible (a type-mismatched or out-of-range predicate cannot
//! bind its column), and it is the check every query passes before either
//! engine touches a row: the executor's `bind` lowers every predicate and
//! output column up front, so a malformed query is one typed error on every
//! plan, engine and table, empty or not, and the kernels past it cannot fail.
//!
//! [`ColumnData`]: crate::storage::ColumnData

use std::collections::HashMap;
use std::convert::Infallible;

use crate::bitmap::{set_span, SelectionBitmap, CHUNK_BITS, CHUNK_WORDS};
use crate::error::Result;
use crate::exec::executor::{ExecTable, MaskSource};
use crate::index::posting::{ChunkOp, PostingList};
use crate::query::{BinGrid, CellMap, Predicate};
use crate::storage::{CellColumn, CellColumnSlot, CellKey, ColumnData, Table, TextColumn};
use crate::timing::WorkProfile;
use crate::types::{GeoPoint, GeoRect, NumRange, RecordId, TimeRange, Timestamp, TokenId};

/// Largest grid (cells) binned into a dense `Vec<u64>`; larger grids fall back
/// to the `HashMap` path (a 2^20-cell grid is already a 1024×1024 heatmap —
/// far beyond any tile a frontend renders — while the dense vector stays 8 MiB).
pub const DENSE_GRID_MAX_CELLS: usize = 1 << 20;

/// One predicate lowered against one concrete table: the column slice is bound
/// and the keyword token resolved, so per-row evaluation is branch-light and
/// infallible.
#[derive(Clone, Copy)]
pub enum CompiledPredicate<'a> {
    /// Keyword containment over pre-tokenised documents. `token` is `None` when
    /// the keyword is not in the table dictionary (no row can match).
    Keyword {
        /// CSR-flattened sorted token lists.
        docs: &'a TextColumn,
        /// The token resolved once at compile time.
        token: Option<TokenId>,
        /// The token's posting list when the column has an inverted index
        /// (bound by [`lower_predicate`]): the chunk kernels then take a
        /// chunk's matches from it instead of probing documents.
        posting: Option<&'a PostingList>,
    },
    /// Time range over a timestamp column.
    Time {
        /// The bound column.
        col: &'a [Timestamp],
        /// Inclusive interval.
        range: TimeRange,
    },
    /// Numeric range over an integer column.
    NumericInt {
        /// The bound column.
        col: &'a [i64],
        /// Inclusive interval.
        range: NumRange,
    },
    /// Numeric range over a float column.
    NumericFloat {
        /// The bound column.
        col: &'a [f64],
        /// Inclusive interval.
        range: NumRange,
    },
    /// Numeric range over a timestamp column (the interpreter's generic numeric
    /// view accepts timestamps too).
    NumericTimestamp {
        /// The bound column.
        col: &'a [Timestamp],
        /// Inclusive interval.
        range: NumRange,
    },
    /// Spatial containment over a geo column.
    Spatial {
        /// The bound column.
        col: &'a [GeoPoint],
        /// Query rectangle.
        rect: GeoRect,
    },
}

impl CompiledPredicate<'_> {
    /// Evaluates the predicate for one row. Infallible: the column was bound and
    /// type-checked at compile time.
    ///
    /// `inline(always)`: this runs once per set bit inside
    /// [`CompiledPredicate::refine_words`]; left to the inliner's cost model it
    /// can end up an out-of-line call there, which costs the index-plan
    /// refinement kernels about a quarter of their speed.
    #[inline(always)]
    pub fn eval(&self, rid: RecordId) -> bool {
        let rid = rid as usize;
        match self {
            CompiledPredicate::Keyword { docs, token, .. } => match token {
                Some(t) => docs.doc_contains(rid, *t),
                None => false,
            },
            CompiledPredicate::Time { col, range } => range.contains(col[rid]),
            CompiledPredicate::NumericInt { col, range } => within(col[rid] as f64, *range),
            CompiledPredicate::NumericFloat { col, range } => within(col[rid], *range),
            CompiledPredicate::NumericTimestamp { col, range } => within(col[rid] as f64, *range),
            CompiledPredicate::Spatial { col, rect } => inside(col[rid], *rect),
        }
    }

    /// Counts the rows of `rows` the predicate matches — the kernel behind the
    /// selectivity probes (`count(*)` over a sample or a whole table).
    pub fn count(&self, rows: impl Iterator<Item = RecordId>) -> usize {
        rows.filter(|&rid| self.eval(rid)).count()
    }

    /// Evaluates the predicate over the contiguous row range `[start, end)`
    /// of one 4096-row chunk, setting the bit of each matching row in `words`
    /// (bit index = `rid - chunk_base`, where the chunk base is `start` rounded
    /// down to a [`CHUNK_BITS`] boundary). The range kernels go through the
    /// SIMD-explicit [`fill_range_kernel`] (4×u64 unrolled word packing) with
    /// branch-free row tests ([`time_window`], [`within`], [`inside`]); the
    /// keyword kernel ORs the chunk's ids in from its posting list when one
    /// is bound, and otherwise reuses the CSR stripe sweep via `scratch`,
    /// scattering the sparse matches four at a time.
    #[inline]
    pub(super) fn fill_words(
        &self,
        start: RecordId,
        end: RecordId,
        words: &mut [u64; CHUNK_WORDS],
        scratch: &mut Vec<RecordId>,
    ) {
        let base = start & !(CHUNK_BITS as RecordId - 1);
        match self {
            CompiledPredicate::Keyword {
                posting: Some(list),
                ..
            } => fill_from_posting(list, start, end, base, words),
            CompiledPredicate::Keyword { docs, token, .. } => {
                if let Some(t) = token {
                    scratch.clear();
                    docs.rows_containing(start as usize, end as usize, *t, scratch);
                    // The CSR sweep yields sparse ascending rows; scatter four
                    // per iteration so the offset arithmetic of later entries
                    // overlaps the read-modify-write of earlier ones.
                    let mut quads = scratch.chunks_exact(4);
                    for quad in &mut quads {
                        let o0 = (quad[0] - base) as usize;
                        let o1 = (quad[1] - base) as usize;
                        let o2 = (quad[2] - base) as usize;
                        let o3 = (quad[3] - base) as usize;
                        words[o0 >> 6] |= 1u64 << (o0 & 63);
                        words[o1 >> 6] |= 1u64 << (o1 & 63);
                        words[o2 >> 6] |= 1u64 << (o2 & 63);
                        words[o3 >> 6] |= 1u64 << (o3 & 63);
                    }
                    for &rid in quads.remainder() {
                        let off = (rid - base) as usize;
                        words[off >> 6] |= 1u64 << (off & 63);
                    }
                }
            }
            CompiledPredicate::Time { col, range } => {
                if let Some(test) = time_window(range) {
                    fill_range_kernel(col, start, end, base, words, test)
                }
            }
            CompiledPredicate::NumericInt { col, range } => {
                fill_range_kernel(col, start, end, base, words, |v| within(v as f64, *range))
            }
            CompiledPredicate::NumericFloat { col, range } => {
                fill_range_kernel(col, start, end, base, words, |v| within(v, *range))
            }
            CompiledPredicate::NumericTimestamp { col, range } => {
                fill_range_kernel(col, start, end, base, words, |v| within(v as f64, *range))
            }
            CompiledPredicate::Spatial { col, rect } => {
                fill_range_kernel(col, start, end, base, words, |p| inside(p, *rect))
            }
        }
    }

    /// Re-evaluates the predicate for every set bit of one chunk's `words`
    /// (rows `chunk_base + bit`), keeping the bits that pass: each word is
    /// replaced by a keep-mask its set bits' results are ORed into. The
    /// residual analogue of [`CompiledPredicate::filter`] for bitmap
    /// selections. A keyword with a bound posting list ANDs the chunk's ids
    /// into `words` instead.
    #[inline]
    fn refine_words(&self, chunk_base: RecordId, words: &mut [u64; CHUNK_WORDS]) {
        if let CompiledPredicate::Keyword {
            posting: Some(list),
            ..
        } = self
        {
            let chunk_id = chunk_base >> CHUNK_BITS.trailing_zeros();
            list.combine_chunk(chunk_id, ChunkOp::And, words);
            return;
        }
        for (wi, word) in words.iter_mut().enumerate() {
            let mut w = *word;
            let mut keep = 0u64;
            while w != 0 {
                let bit = w.trailing_zeros();
                let rid = chunk_base + ((wi as RecordId) << 6) + bit;
                keep |= u64::from(self.eval(rid)) << bit;
                w &= w - 1;
            }
            *word = keep;
        }
    }
}

/// [`TimeRange::contains`] as one unsigned compare, `v − start ≤ end − start`
/// in wrapping arithmetic: a `v` below `start` wraps past any width. `None`
/// for an inverted range (`start > end`, whose width would wrap too), which
/// matches no row, so the kernel sets no bits for it.
#[inline(always)]
fn time_window(range: &TimeRange) -> Option<impl Fn(Timestamp) -> bool + Copy> {
    let (start, width) = (range.start, range.end.wrapping_sub(range.start) as u64);
    (range.start <= range.end).then_some(move |v: Timestamp| v.wrapping_sub(start) as u64 <= width)
}

/// [`NumRange::contains`] without short-circuiting: both compares always run,
/// so a row loop carries no data-dependent branch. NaN fails both.
#[inline(always)]
fn within(v: f64, range: NumRange) -> bool {
    (v >= range.lo) & (v <= range.hi)
}

/// [`GeoRect::contains`] without short-circuiting (see [`within`]).
#[inline(always)]
fn inside(p: GeoPoint, rect: GeoRect) -> bool {
    (p.lon >= rect.min_lon)
        & (p.lon <= rect.max_lon)
        & (p.lat >= rect.min_lat)
        & (p.lat <= rect.max_lat)
}

/// SIMD-explicit range kernel for [`CompiledPredicate::fill_words`]: packs the
/// predicate results for rows `[start, end)` into `words` (bit index
/// `rid - base`), OR-ing over whatever is already set. The body packs four
/// 64-bit words (256 rows) per iteration into four independent accumulators —
/// each lane is a movemask-shaped reduction the vectoriser lowers to vector
/// compares plus bit packs, and keeping the lanes independent stops the word
/// stores from serialising them. An unaligned `start` and the short final word
/// go through per-bit ORs, so the bit pattern is identical to a scalar loop in
/// every case.
#[inline(always)]
fn fill_range_kernel<T: Copy>(
    col: &[T],
    start: RecordId,
    end: RecordId,
    base: RecordId,
    words: &mut [u64; CHUNK_WORDS],
    pred: impl Fn(T) -> bool + Copy,
) {
    let mut off = (start - base) as usize;
    let mut row = start as usize;
    let end = end as usize;
    // Head: finish the partially-covered leading word.
    while off & 63 != 0 && row < end {
        words[off >> 6] |= (pred(col[row]) as u64) << (off & 63);
        off += 1;
        row += 1;
    }
    // Body: four full words per iteration, four independent lanes.
    while row + 256 <= end {
        let w = off >> 6;
        let stripe = &col[row..row + 256];
        let (mut a0, mut a1, mut a2, mut a3) = (0u64, 0u64, 0u64, 0u64);
        for bit in 0..64 {
            a0 |= (pred(stripe[bit]) as u64) << bit;
            a1 |= (pred(stripe[64 + bit]) as u64) << bit;
            a2 |= (pred(stripe[128 + bit]) as u64) << bit;
            a3 |= (pred(stripe[192 + bit]) as u64) << bit;
        }
        words[w] |= a0;
        words[w + 1] |= a1;
        words[w + 2] |= a2;
        words[w + 3] |= a3;
        off += 256;
        row += 256;
    }
    // Remaining full words, one lane at a time.
    while row + 64 <= end {
        let stripe = &col[row..row + 64];
        let mut acc = 0u64;
        for (bit, v) in stripe.iter().enumerate() {
            acc |= (pred(*v) as u64) << bit;
        }
        words[off >> 6] |= acc;
        off += 64;
        row += 64;
    }
    // Tail: the final partial word.
    while row < end {
        words[off >> 6] |= (pred(col[row]) as u64) << (off & 63);
        off += 1;
        row += 1;
    }
}

/// The posting-list kernel of [`CompiledPredicate::fill_words`]: ORs the
/// list's ids in `[start, end)` (one chunk's rows, chunk base `base`) into
/// `words`. A range short of the whole chunk is clipped by ANDing the ids
/// into its span first.
fn fill_from_posting(
    list: &PostingList,
    start: RecordId,
    end: RecordId,
    base: RecordId,
    words: &mut [u64; CHUNK_WORDS],
) {
    let chunk_id = base >> CHUNK_BITS.trailing_zeros();
    if start == base && end - base == CHUNK_BITS as RecordId {
        list.combine_chunk(chunk_id, ChunkOp::Or, words);
    } else if start < end {
        let mut span = [0u64; CHUNK_WORDS];
        set_span(
            &mut span,
            (start - base) as usize,
            (end - 1 - base) as usize,
        );
        list.combine_chunk(chunk_id, ChunkOp::And, &mut span);
        for (w, s) in words.iter_mut().zip(&span) {
            *w |= s;
        }
    }
}

/// Lowers one predicate against `table`, binding the column slice and resolving
/// the keyword token. Fails exactly when the interpreter's per-row evaluation
/// would fail (wrong column type, out-of-range attribute). No posting list is
/// bound: the selectivity probes that call this count rows one at a time.
pub fn compile_predicate<'a>(pred: &Predicate, table: &'a Table) -> Result<CompiledPredicate<'a>> {
    Ok(match pred {
        Predicate::KeywordContains { attr, keyword } => CompiledPredicate::Keyword {
            docs: table.text_docs(*attr)?,
            token: table.dictionary().lookup(keyword),
            posting: None,
        },
        Predicate::TimeRange { attr, range } => CompiledPredicate::Time {
            col: table.timestamp_slice(*attr)?,
            range: *range,
        },
        // Mirror `Table::numeric`: Int, Float and Timestamp columns all support
        // the generic numeric view, and any other is its error.
        Predicate::NumericRange { attr, range } => match table.column(*attr)? {
            ColumnData::Int(col) => CompiledPredicate::NumericInt { col, range: *range },
            ColumnData::Timestamp(col) => {
                CompiledPredicate::NumericTimestamp { col, range: *range }
            }
            ColumnData::Float(col) => CompiledPredicate::NumericFloat { col, range: *range },
            other => return Err(table.type_err(*attr, "numeric", other)),
        },
        Predicate::SpatialRange { attr, rect } => CompiledPredicate::Spatial {
            col: table.geo_slice(*attr)?,
            rect: *rect,
        },
    })
}

/// [`compile_predicate`] for the chunk pipeline: a keyword over a column with
/// an inverted index also binds its token's posting list.
pub(super) fn lower_predicate<'a>(
    pred: &Predicate,
    fact: &ExecTable<'a>,
) -> Result<CompiledPredicate<'a>> {
    let mut lowered = compile_predicate(pred, fact.table)?;
    if let CompiledPredicate::Keyword {
        token: Some(token),
        posting,
        ..
    } = &mut lowered
    {
        *posting = fact
            .inverted
            .get(&pred.attr())
            .and_then(|index| index.posting(*token));
    }
    Ok(lowered)
}

/// Lowers every one of `preds` by [`lower_predicate`]. Returns `Err` when any
/// of them cannot bind its column.
pub(super) fn compile_predicates<'a>(
    preds: &[Predicate],
    table: &ExecTable<'a>,
) -> Result<Vec<CompiledPredicate<'a>>> {
    preds
        .iter()
        .map(|pred| lower_predicate(pred, table))
        .collect()
}

/// Evaluates the compiled conjunction for one row with short-circuiting,
/// counting each predicate evaluation exactly like the interpreter. Used on the
/// row-capped path, where batching would evaluate rows the interpreter never
/// reaches.
#[inline]
pub fn eval_row(preds: &[CompiledPredicate<'_>], rid: RecordId, work: &mut WorkProfile) -> bool {
    for pred in preds {
        work.filter_evals += 1;
        if !pred.eval(rid) {
            return false;
        }
    }
    true
}

/// Evaluates the compiled conjunction row-at-a-time over `rows`, stopping at
/// the `cap`-th match so rows past the cut stay untouched, exactly like the
/// interpreter. `row_charge` is the per-row-visited charge (`seq_rows` or
/// `heap_fetches`). A zero cap visits nothing.
pub(crate) fn qualify_capped(
    preds: &[CompiledPredicate<'_>],
    rows: impl Iterator<Item = RecordId>,
    cap: usize,
    row_charge: impl Fn(&mut WorkProfile),
    work: &mut WorkProfile,
    qualifying: &mut Vec<RecordId>,
) {
    let mut remaining = cap;
    if remaining == 0 {
        return;
    }
    for rid in rows {
        row_charge(work);
        if eval_row(preds, rid, work) {
            qualifying.push(rid);
            remaining -= 1;
            if remaining == 0 {
                return;
            }
        }
    }
}

#[inline]
pub(super) fn popcount(words: &[u64; CHUNK_WORDS]) -> u64 {
    words.iter().map(|w| w.count_ones() as u64).sum()
}

/// Chunk-qualifies the contiguous row range `rows` through the compiled
/// conjunction, returning the qualifying rows as a [`SelectionBitmap`] over
/// rows `0..rows.end`: [`qualify_range_chunk`] on each chunk's words in
/// place.
pub fn qualify_range_bitmap(
    preds: &[CompiledPredicate<'_>],
    rows: std::ops::Range<RecordId>,
    work: &mut WorkProfile,
    mut per_batch_rows: impl FnMut(&mut WorkProfile, u64),
) -> SelectionBitmap {
    let mut out = SelectionBitmap::new(rows.end as usize);
    let mut scratch: Vec<RecordId> = Vec::new();
    for (chunk_id, words) in out.chunks_mut().enumerate() {
        let rows = chunk_rows(chunk_id, &rows);
        qualify_range_chunk(preds, rows, words, &mut scratch, work, &mut per_batch_rows);
    }
    out
}

/// The rows of `rows` inside chunk `chunk_id` (empty when they miss it).
pub(crate) fn chunk_rows(
    chunk_id: usize,
    rows: &std::ops::Range<RecordId>,
) -> std::ops::Range<RecordId> {
    let base = (chunk_id * CHUNK_BITS) as RecordId;
    rows.start.max(base)..rows.end.min(base.saturating_add(CHUNK_BITS as RecordId))
}

/// Qualifies `rows`, a range inside one 4096-row chunk, into that chunk's
/// (all-zero) `words`. The first predicate fills the words with a branchless
/// columnar kernel ([`CompiledPredicate::fill_words`]); later predicates
/// re-evaluate only the set bits ([`CompiledPredicate::refine_words`]).
///
/// `filter_evals` accounting matches the short-circuiting interpreter
/// exactly: predicate `k` is charged once per row that survived predicates
/// `0..k` — a chunk's surviving-row count is one `popcount` away.
fn qualify_range_chunk(
    preds: &[CompiledPredicate<'_>],
    rows: std::ops::Range<RecordId>,
    words: &mut [u64; CHUNK_WORDS],
    scratch: &mut Vec<RecordId>,
    work: &mut WorkProfile,
    mut per_batch_rows: impl FnMut(&mut WorkProfile, u64),
) {
    let (start, end) = (rows.start, rows.end);
    if start >= end {
        return;
    }
    let base = start & !(CHUNK_BITS as RecordId - 1);
    per_batch_rows(work, (end - start) as u64);
    match preds.first() {
        Some(first) => {
            work.filter_evals += (end - start) as u64;
            first.fill_words(start, end, words, scratch);
        }
        None => set_span(words, (start - base) as usize, (end - 1 - base) as usize),
    }
    refine_survivors(preds.get(1..).unwrap_or(&[]), base, words, work);
}

/// What each way of applying an index residual to an index plan's
/// candidates costs, in one unit: an eighth of probing one candidate.
/// Measured in-process, one thread, on a 200k-row table as large as
/// `taxi_scan`'s (random timestamps and points, one row in seven a
/// candidate): a residual probe of one candidate ≈ 4–9 ns, one word of a
/// checkpoint word pass over the table ≈ 0.8–0.95 ns, one single-bit fix-up
/// (a rank's id read, its bit tested and flipped at a random place in the
/// candidates) ≈ 1.6–2.5 ns.
const PROBE_COST: usize = 8;
/// See [`PROBE_COST`].
const WORD_PASS_COST: usize = 1;
/// See [`PROBE_COST`].
const FIXUP_COST: usize = 3;

/// What ANDing an index residual's checkpoint mask into candidates over
/// `words` words costs: a word pass per span, and each single-bit fix-up.
fn mask_cost(spans: usize, fixups: usize, words: usize) -> usize {
    let passes = spans.saturating_mul(words).saturating_mul(WORD_PASS_COST);
    passes.saturating_add(fixups.saturating_mul(FIXUP_COST))
}

/// Refines an index-candidate [`SelectionBitmap`] in place through the
/// compiled residual conjunction, charging residual `k` once per candidate
/// that survived residuals `0..k`. `most` bounds the candidates from above;
/// `row_count` is the table's.
///
/// A residual is probed per candidate bit, or — when its `masks` entry is an
/// index whose scan reads prefix checkpoints — ANDed in as that whole-table
/// mask straight from the checkpoints (its [`Span`](crate::index::Span)s)
/// and charged the survivors' popcount, whichever costs less:
/// - probing costs one evaluation per survivor ([`PROBE_COST`]);
/// - the mask costs a word pass per span plus the spans' single-bit fix-ups,
///   exact once the `O(log m)` rank searches have found the spans
///   ([`mask_cost`]).
///
/// The rank searches themselves are skipped while the survivors (at first
/// `most`) cost less to probe than the mask is expected to: its word passes
/// plus `⌈m/32⌉` fix-ups per span, a bound at the average distance from its
/// nearest checkpoint. Residuals up to the first index residual worth a
/// search are probed chunk by chunk ([`refine_chunk`]), as they are fetched;
/// survivors only shrink, so a run of residuals not worth one is probed in
/// one more pass, and candidates cheap to probe from the start take the one
/// chunk pass alone, with no popcount or rank search added.
pub(super) fn qualify_bitmap(
    preds: &[CompiledPredicate<'_>],
    masks: &[MaskSource<'_>],
    candidates: &mut SelectionBitmap,
    (most, row_count): (usize, usize),
    work: &mut WorkProfile,
    mut per_batch_rows: impl FnMut(&mut WorkProfile, u64),
) {
    let table_words = row_count.div_ceil(64);
    // Whether residual `i`'s mask may cost less than probing `rows` rows.
    let worth_searching = |i: usize, rows: usize| match masks.get(i) {
        Some(MaskSource::Index(probe)) => probe.checkpointed().is_some_and(|(m, spans)| {
            let fixups = spans.saturating_mul(m.div_ceil(32));
            rows.saturating_mul(PROBE_COST) >= mask_cost(spans, fixups, table_words)
        }),
        _ => false,
    };
    let next_worth = |from: usize, rows: usize| {
        (from..preds.len())
            .find(|&i| worth_searching(i, rows))
            .unwrap_or(preds.len())
    };
    let mut next = next_worth(0, most);
    let head = preds.get(..next).unwrap_or(preds);
    let mut fetched = 0;
    for (chunk_id, words) in candidates.chunks_mut().enumerate() {
        fetched += refine_chunk(head, chunk_id, words, work, &mut per_batch_rows);
    }
    // With no residual probed yet, the fetched rows are the survivors.
    let mut counted = head.is_empty().then_some(fetched as usize);
    while next < preds.len() {
        let survivors = counted.take().unwrap_or_else(|| candidates.len());
        if survivors == 0 {
            return;
        }
        let spans = match masks.get(next) {
            Some(MaskSource::Index(probe)) if worth_searching(next, survivors) => {
                probe.checkpoint_spans()
            }
            _ => None,
        };
        let cheaper = spans.filter(|spans| {
            let fixups = spans.iter().map(|span| span.fixups()).sum();
            mask_cost(spans.len(), fixups, table_words) < survivors.saturating_mul(PROBE_COST)
        });
        if let Some(spans) = cheaper {
            spans.iter().for_each(|span| span.and_into(candidates));
            work.filter_evals += survivors as u64;
            next += 1;
            continue;
        }
        // Per bit: this residual and those after it not worth a search.
        let end = next_worth(next + 1, survivors);
        refine_bits(preds.get(next..end).unwrap_or_default(), candidates, work);
        next = end;
    }
}

/// Runs `preds` over the set bits of every chunk of `bits`
/// ([`refine_survivors`]).
fn refine_bits(
    preds: &[CompiledPredicate<'_>],
    bits: &mut SelectionBitmap,
    work: &mut WorkProfile,
) {
    for (chunk_id, words) in bits.chunks_mut().enumerate() {
        refine_survivors(preds, (chunk_id * CHUNK_BITS) as RecordId, words, work);
    }
}

/// Refines chunk `chunk_id`'s candidate `words` in place and returns how
/// many candidates it held. Every predicate (including the first) sees only
/// the already-selected rows, so each is charged the `popcount` of the
/// surviving words; an empty chunk charges nothing.
fn refine_chunk(
    preds: &[CompiledPredicate<'_>],
    chunk_id: usize,
    words: &mut [u64; CHUNK_WORDS],
    work: &mut WorkProfile,
    mut per_batch_rows: impl FnMut(&mut WorkProfile, u64),
) -> u64 {
    let n = popcount(words);
    if n == 0 {
        return 0;
    }
    per_batch_rows(work, n);
    refine_survivors(preds, (chunk_id * CHUNK_BITS) as RecordId, words, work);
    n
}

/// Runs `preds` over the set bits of one chunk's `words` (rows
/// `base + bit`), charging each predicate once per row still set and
/// stopping when none is.
fn refine_survivors(
    preds: &[CompiledPredicate<'_>],
    base: RecordId,
    words: &mut [u64; CHUNK_WORDS],
    work: &mut WorkProfile,
) {
    for pred in preds {
        let survivors = popcount(words);
        if survivors == 0 {
            break;
        }
        work.filter_evals += survivors;
        pred.refine_words(base, words);
    }
}

/// The per-cell counts of binned rows: what the sink reads sorted pairs from
/// and the lattice pricing pass reads only the non-empty count from, so that
/// pass never builds pairs it would discard.
pub(crate) enum CellCounts {
    /// One count per grid cell, by bin id (the dense accumulation).
    Dense(Vec<u64>),
    /// The non-empty cells' counts (the sparse accumulation).
    Sparse(HashMap<u32, u64>),
}

impl CellCounts {
    /// How many cells are non-empty: what the sink charges to `output_rows`.
    pub fn non_empty(&self) -> u64 {
        match self {
            CellCounts::Dense(counts) => counts.iter().filter(|&&c| c > 0).count() as u64,
            CellCounts::Sparse(bins) => bins.len() as u64,
        }
    }

    /// The non-empty cells' `(bin id, count)` pairs, sorted by bin id.
    pub fn into_pairs(self) -> Vec<(u32, u64)> {
        match self {
            CellCounts::Dense(counts) => counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(bin, &c)| (bin as u32, c))
                .collect(),
            CellCounts::Sparse(bins) => {
                let mut pairs: Vec<(u32, u64)> = bins.into_iter().collect();
                pairs.sort_unstable();
                pairs
            }
        }
    }
}

/// Where binning takes a row's cell from.
#[derive(Clone, Copy)]
pub(crate) enum RowCells<'a> {
    /// The row's point, through the grid's [`CellMap`]: two divisions.
    Points(&'a [GeoPoint]),
    /// The table's cell column for the grid ([`cell_column`]): one load.
    Column(&'a [u32]),
}

/// Every row's cell on `grid` (at most [`DENSE_GRID_MAX_CELLS`] cells): its
/// [`CellMap::slot`], or the grid's cell count when the row has no cell.
pub(crate) fn cell_column(grid: &BinGrid, geo: &[GeoPoint]) -> Vec<u32> {
    let map = CellMap::new(grid);
    let cellless = grid.cell_count() as u32;
    geo.iter()
        .map(|p| match map.slot(p.lon, p.lat) {
            (slot, 1) => slot as u32,
            _ => cellless,
        })
        .collect()
}

/// A binned output bound to its table: the point column, the grid and the
/// table's cell-column slot, when it has one and the grid may get a column
/// (one of at most [`DENSE_GRID_MAX_CELLS`] cells).
pub(crate) struct Binner<'a> {
    grid: &'a BinGrid,
    geo: &'a [GeoPoint],
    column: Option<(&'a CellColumnSlot, CellKey)>,
}

impl<'a> Binner<'a> {
    pub fn new(
        grid: &'a BinGrid,
        attr: usize,
        geo: &'a [GeoPoint],
        slot: Option<&'a CellColumnSlot>,
    ) -> Self {
        let column = slot
            .filter(|_| grid.cell_count() <= DENSE_GRID_MAX_CELLS)
            .map(|slot| (slot, CellKey::new(attr, grid)));
        Self { grid, geo, column }
    }

    /// Bins `qualifying` (`row_count` ascending ids) from the table's cell
    /// column when it holds this grid's, by arithmetic otherwise. The table's
    /// first binning builds the column for its grid and reads it.
    pub fn bin(&self, qualifying: impl Iterator<Item = RecordId>, row_count: usize) -> CellCounts {
        let points = RowCells::Points(self.geo);
        let Some((slot, key)) = self.column else {
            return bin_counts_iter(self.grid, points, qualifying, row_count);
        };
        let built = slot.read_or_build(
            || Ok::<_, Infallible>(CellColumn::new(key, cell_column(self.grid, self.geo))),
            |column| {
                let cells = column.cells_for(key).map_or(points, RowCells::Column);
                bin_counts_iter(self.grid, cells, qualifying, row_count)
            },
        );
        match built {
            Ok(binned) => binned,
            Err(never) => match never {},
        }
    }
}

/// Bins the qualifying rows: dense `Vec<u64>` accumulation when the grid is
/// bounded, `HashMap` otherwise. Both produce identical output (counts per
/// non-empty cell, sorted by bin id), and so do both cell sources.
///
/// The dense path zeroes and rescans `cells` slots, so it must also be cheap
/// *relative to the rows being binned*: frontend-sized grids (≤ 4096 cells)
/// always qualify, bigger ones only when the row count is at least a
/// comparable fraction of the grid — a hundred rows on a 2^20-cell grid would
/// otherwise pay an 8 MiB zero + sweep to save a hundred hash inserts.
/// `row_count` is the stream's length, which that choice needs up front.
pub(crate) fn bin_counts_iter(
    grid: &BinGrid,
    source: RowCells<'_>,
    qualifying: impl Iterator<Item = RecordId>,
    row_count: usize,
) -> CellCounts {
    let cells = grid.cell_count();
    let dense = cells > 0
        && cells <= DENSE_GRID_MAX_CELLS
        && (cells <= 4096 || cells <= row_count.saturating_mul(8));
    match (dense, source) {
        (false, RowCells::Points(geo)) => {
            sparse_bin_accum(grid, qualifying.map(|rid| geo[rid as usize]))
        }
        (false, RowCells::Column(column)) => {
            let bins = qualifying.map(|rid| column[rid as usize]);
            tally(bins.filter(|&cell| cell as usize != cells))
        }
        (true, RowCells::Points(geo)) => {
            // A row without a cell adds 0 to a clamped slot (`CellMap::slot`)
            // instead of branching.
            let map = CellMap::new(grid);
            let mut counts: Vec<u64> = vec![0; cells];
            for rid in qualifying {
                let p = geo[rid as usize];
                let (slot, weight) = map.slot(p.lon, p.lat);
                counts[slot] += weight;
            }
            CellCounts::Dense(counts)
        }
        (true, RowCells::Column(column)) => {
            // A row without a cell counts into the extra last slot, dropped
            // after.
            let mut counts: Vec<u64> = vec![0; cells + 1];
            for rid in qualifying {
                counts[column[rid as usize] as usize] += 1;
            }
            counts.truncate(cells);
            CellCounts::Dense(counts)
        }
    }
}

/// Sparse binning shared by the pipeline's large-grid path and the
/// interpreter: the single place the non-dense accumulation semantics live,
/// so the two cannot drift.
pub(crate) fn sparse_bin_accum(
    grid: &BinGrid,
    points: impl Iterator<Item = GeoPoint>,
) -> CellCounts {
    let cells = CellMap::new(grid);
    tally(points.filter_map(|p| cells.cell(p.lon, p.lat)))
}

/// Counts each of `ids` in a `HashMap`: the sparse accumulation of both cell
/// sources.
fn tally(ids: impl Iterator<Item = u32>) -> CellCounts {
    let mut bins: HashMap<u32, u64> = HashMap::new();
    for bin in ids {
        *bins.entry(bin).or_insert(0) += 1;
    }
    CellCounts::Sparse(bins)
}

/// Collects the `(id, point)` pairs of the qualifying rows over the bound id
/// and point columns.
pub(crate) fn gather_points(
    qualifying: impl Iterator<Item = RecordId>,
    row_count: usize,
    ids: &[i64],
    geo: &[GeoPoint],
) -> Vec<(i64, GeoPoint)> {
    let mut points = Vec::with_capacity(row_count);
    for rid in qualifying {
        points.push((ids[rid as usize], geo[rid as usize]));
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Predicate;
    use crate::schema::{ColumnType, TableSchema};
    use crate::storage::TableBuilder;

    /// Record ids per selection-vector batch of [`qualify_slice`].
    const BATCH_ROWS: usize = 1024;

    impl CompiledPredicate<'_> {
        /// Filters a selection vector in place, keeping the rows that satisfy
        /// the predicate.
        fn filter(&self, selection: &mut Vec<RecordId>) {
            match self {
                CompiledPredicate::Keyword { docs, token, .. } => match token {
                    Some(t) => selection.retain(|&rid| docs.doc_contains(rid as usize, *t)),
                    None => selection.clear(),
                },
                CompiledPredicate::Time { col, range } => {
                    selection.retain(|&rid| range.contains(col[rid as usize]))
                }
                CompiledPredicate::NumericInt { col, range } => {
                    selection.retain(|&rid| range.contains(col[rid as usize] as f64))
                }
                CompiledPredicate::NumericFloat { col, range } => {
                    selection.retain(|&rid| range.contains(col[rid as usize]))
                }
                CompiledPredicate::NumericTimestamp { col, range } => {
                    selection.retain(|&rid| range.contains(col[rid as usize] as f64))
                }
                CompiledPredicate::Spatial { col, rect } => {
                    selection.retain(|&rid| rect.contains(&col[rid as usize]))
                }
            }
        }
    }

    /// Runs the conjunction over one seeded selection-vector batch and appends
    /// the survivors: predicate `k` filters (and is charged for) only the rows
    /// that survived predicates `0..k`, matching the short-circuiting
    /// interpreter.
    fn finish_batch(
        preds: &[CompiledPredicate<'_>],
        selection: &mut Vec<RecordId>,
        qualifying: &mut Vec<RecordId>,
        work: &mut WorkProfile,
    ) {
        for pred in preds {
            if selection.is_empty() {
                break;
            }
            work.filter_evals += selection.len() as u64;
            pred.filter(selection);
        }
        qualifying.extend_from_slice(selection);
    }

    /// The id-vector reference the bitmap kernels are checked against:
    /// batch-qualifies an explicit record-id list through the compiled
    /// conjunction, [`BATCH_ROWS`] ids at a time.
    fn qualify_slice(
        preds: &[CompiledPredicate<'_>],
        rids: &[RecordId],
        qualifying: &mut Vec<RecordId>,
        work: &mut WorkProfile,
        mut per_batch_rows: impl FnMut(&mut WorkProfile, u64),
    ) {
        let mut selection: Vec<RecordId> = Vec::with_capacity(BATCH_ROWS);
        for chunk in rids.chunks(BATCH_ROWS) {
            per_batch_rows(work, chunk.len() as u64);
            selection.clear();
            selection.extend_from_slice(chunk);
            finish_batch(preds, &mut selection, qualifying, work);
        }
    }

    fn table() -> Table {
        let schema = TableSchema::new("t")
            .with_column("id", ColumnType::Int)
            .with_column("when", ColumnType::Timestamp)
            .with_column("loc", ColumnType::Geo)
            .with_column("text", ColumnType::Text)
            .with_column("score", ColumnType::Float);
        let mut b = TableBuilder::new(schema);
        for i in 0..100i64 {
            b.push_row(|row| {
                row.set_int("id", i);
                row.set_timestamp("when", i * 10);
                row.set_geo("loc", -120.0 + i as f64 * 0.1, 30.0 + (i % 10) as f64);
                row.set_text("text", if i % 3 == 0 { &["hot"] } else { &["cold"] });
                row.set_float("score", i as f64 / 2.0);
            });
        }
        b.build()
    }

    /// The index maps of an [`ExecTable`]: an inverted index over text column
    /// `text_col` when given, nothing else.
    struct Indexes {
        btree: HashMap<usize, crate::index::BPlusTree>,
        rtree: HashMap<usize, crate::index::RTree>,
        inverted: HashMap<usize, crate::index::InvertedIndex>,
    }

    impl Indexes {
        fn new(t: &Table, text_col: Option<usize>) -> Self {
            let mut inverted = HashMap::new();
            if let Some(col) = text_col {
                let docs = t.text_docs(col).unwrap().docs();
                inverted.insert(col, crate::index::InvertedIndex::from_docs(docs));
            }
            Self {
                btree: HashMap::new(),
                rtree: HashMap::new(),
                inverted,
            }
        }

        fn exec<'a>(&'a self, table: &'a Table) -> ExecTable<'a> {
            ExecTable {
                table,
                btree: &self.btree,
                rtree: &self.rtree,
                inverted: &self.inverted,
                cells: None,
            }
        }
    }

    #[test]
    fn compiled_predicates_match_interpreted_eval() {
        let t = table();
        let preds = [
            Predicate::keyword(3, "hot"),
            Predicate::time_range(1, 100, 500),
            Predicate::spatial_range(2, GeoRect::new(-119.0, 30.0, -115.0, 35.0)),
            Predicate::numeric_range(0, 10.0, 60.0),
            Predicate::numeric_range(4, 5.0, 20.0),
            Predicate::numeric_range(1, 100.0, 300.0),
        ];
        for pred in &preds {
            let compiled = compile_predicate(pred, &t).unwrap();
            for rid in 0..t.row_count() as RecordId {
                let expected = crate::exec::reference::eval_predicate(pred, &t, rid).unwrap();
                assert_eq!(compiled.eval(rid), expected, "{pred:?} row {rid}");
            }
        }
    }

    #[test]
    fn unknown_keyword_compiles_to_always_false() {
        let t = table();
        let compiled = compile_predicate(&Predicate::keyword(3, "missing"), &t).unwrap();
        assert!(!compiled.eval(0));
        let mut sel = vec![0, 1, 2];
        compiled.filter(&mut sel);
        assert!(sel.is_empty());
    }

    #[test]
    fn type_mismatch_fails_to_compile() {
        let t = table();
        assert!(compile_predicate(&Predicate::keyword(0, "hot"), &t).is_err());
        assert!(compile_predicate(&Predicate::time_range(2, 0, 1), &t).is_err());
        assert!(compile_predicate(&Predicate::numeric_range(3, 0.0, 1.0), &t).is_err());
        assert!(compile_predicate(
            &Predicate::spatial_range(0, GeoRect::new(0.0, 0.0, 1.0, 1.0)),
            &t
        )
        .is_err());
        assert!(compile_predicate(&Predicate::keyword(9, "hot"), &t).is_err());
    }

    #[test]
    fn batch_filter_evals_match_short_circuit_counts() {
        let t = table();
        // The keyword refines from its posting list on the bitmap path.
        let indexes = Indexes::new(&t, Some(3));
        let preds = compile_predicates(
            &[
                Predicate::time_range(1, 0, 490),
                Predicate::keyword(3, "hot"),
            ],
            &indexes.exec(&t),
        )
        .unwrap();
        assert!(matches!(
            preds[1],
            CompiledPredicate::Keyword {
                posting: Some(_),
                ..
            }
        ));
        let rows = t.row_count() as RecordId;
        let seq_row = |w: &mut WorkProfile| w.seq_rows += 1;
        let mut row_work = WorkProfile::default();
        let mut expected = Vec::new();
        qualify_capped(
            &preds,
            0..rows,
            usize::MAX,
            seq_row,
            &mut row_work,
            &mut expected,
        );
        // Predicate 0 passes rows 0..=49 (timestamps 0..=490), so predicate 1 is
        // charged exactly 50 evaluations on top of predicate 0's 100.
        assert_eq!(row_work.filter_evals, 150);
        assert_eq!(row_work.seq_rows, 100);

        // Every batch entry point agrees with the short-circuiting loop.
        let all_rids: Vec<RecordId> = (0..rows).collect();
        let seq = |w: &mut WorkProfile, n: u64| w.seq_rows += n;
        for entry in 0..2 {
            let mut work = WorkProfile::default();
            let mut qualifying = Vec::new();
            match entry {
                0 => qualifying = qualify_range_bitmap(&preds, 0..rows, &mut work, seq).to_vec(),
                _ => qualify_slice(&preds, &all_rids, &mut qualifying, &mut work, seq),
            }
            assert_eq!(qualifying, expected, "entry point {entry}");
            assert_eq!(work, row_work, "entry point {entry}");
        }

        // A cap stops at the cap-th match and charges only the rows visited;
        // a zero cap visits nothing.
        for (cap, visited) in [(0usize, 0u64), (1, 1), (3, 7)] {
            let mut work = WorkProfile::default();
            let mut qualifying = Vec::new();
            qualify_capped(&preds, 0..rows, cap, seq_row, &mut work, &mut qualifying);
            assert_eq!(qualifying, expected[..cap], "cap {cap}");
            assert_eq!(work.seq_rows, visited, "cap {cap}");
        }
    }

    #[test]
    fn bitmap_qualify_matches_idvec_qualify() {
        let t = table();
        let rows = t.row_count() as RecordId;
        let seq = |w: &mut WorkProfile, n: u64| w.seq_rows += n;
        // Without and with the keyword's posting list bound.
        for text_col in [None, Some(3)] {
            let indexes = Indexes::new(&t, text_col);
            let preds = compile_predicates(
                &[
                    Predicate::time_range(1, 0, 490),
                    Predicate::keyword(3, "hot"),
                    Predicate::numeric_range(4, 5.0, 20.0),
                ],
                &indexes.exec(&t),
            )
            .unwrap();

            // Candidate refinement: seed with every third row, run the
            // residual conjunction over the bitmap and over the id vector.
            let cands: Vec<RecordId> = (0..rows).step_by(3).collect();
            let mut refined = SelectionBitmap::from_sorted(&cands);
            let mut idvec_work = WorkProfile::default();
            let mut idvec = Vec::new();
            qualify_slice(&preds, &cands, &mut idvec, &mut idvec_work, seq);
            let mut bm_work = WorkProfile::default();
            qualify_bitmap(&preds, &[], &mut refined, (0, 0), &mut bm_work, seq);
            assert_eq!(refined.to_vec(), idvec, "{text_col:?}");
            assert_eq!(bm_work, idvec_work, "{text_col:?}");
        }

        // No predicates: the range bitmap is the identity selection.
        let empty: [CompiledPredicate<'_>; 0] = [];
        let mut w = WorkProfile::default();
        let all = qualify_range_bitmap(&empty, 5..rows, &mut w, seq);
        assert_eq!(all.to_vec(), (5..rows).collect::<Vec<_>>());
    }

    /// The 4×u64 kernel must be bit-for-bit the per-row evaluation across every
    /// alignment regime: unaligned head, 256-row unrolled body, single-word
    /// runs, partial tail — on a table big enough to exercise all of them, for
    /// every predicate shape (including the quad-scattered keyword kernel).
    #[test]
    fn fill_words_kernel_matches_per_row_eval() {
        let schema = TableSchema::new("big")
            .with_column("when", ColumnType::Timestamp)
            .with_column("loc", ColumnType::Geo)
            .with_column("text", ColumnType::Text)
            .with_column("score", ColumnType::Float)
            .with_column("id", ColumnType::Int);
        let mut b = TableBuilder::new(schema);
        let n = 5000i64;
        for i in 0..n {
            b.push_row(|row| {
                row.set_timestamp("when", (i * 7) % 9001);
                row.set_geo(
                    "loc",
                    -120.0 + (i % 613) as f64 * 0.1,
                    25.0 + (i % 23) as f64,
                );
                row.set_text("text", if i % 5 == 0 { &["hot"] } else { &["cold"] });
                row.set_float("score", (i % 97) as f64);
                row.set_int("id", i % 311);
            });
        }
        let t = b.build();
        let preds = [
            Predicate::time_range(0, 100, 6000),
            Predicate::spatial_range(1, GeoRect::new(-118.0, 27.0, -90.0, 40.0)),
            Predicate::keyword(2, "hot"),
            Predicate::numeric_range(3, 10.0, 60.0),
            Predicate::numeric_range(4, 5.0, 200.0),
        ];
        let rows = t.row_count() as RecordId;
        // The keyword also runs from its posting list, clipped to each range.
        let indexes = Indexes::new(&t, Some(2));
        let fact = indexes.exec(&t);
        // Odd start offsets force the unaligned-head path; ranges shorter than
        // a word force the tail-only path.
        for range in [0..rows, 7..rows, 300..301, 63..rows - 13, 4096..rows] {
            for pred in &preds {
                for compiled in [compile_predicate(pred, &t), lower_predicate(pred, &fact)] {
                    let single = [compiled.unwrap()];
                    let mut w = WorkProfile::default();
                    let got = qualify_range_bitmap(&single, range.clone(), &mut w, |_, _| {});
                    let expected: Vec<RecordId> =
                        range.clone().filter(|&rid| single[0].eval(rid)).collect();
                    assert_eq!(got.to_vec(), expected, "{pred:?} over {range:?}");
                }
            }
        }
    }

    /// Fills `pred` over `n` rows (one chunk) and returns the matching rows.
    fn filled(pred: &CompiledPredicate<'_>, n: usize) -> Vec<RecordId> {
        let mut out = SelectionBitmap::new(n);
        if let Some(words) = out.chunk_mut(0) {
            pred.fill_words(0, n as RecordId, words, &mut Vec::new());
        }
        out.to_vec()
    }

    /// Repeats `values` to 300 rows, so the unrolled body, the one-word loop
    /// and the tail of the fill kernel all see every value.
    fn column<T: Copy>(values: &[T]) -> Vec<T> {
        values.iter().copied().cycle().take(300).collect()
    }

    /// The time fill's one unsigned compare against `TimeRange::contains`:
    /// inverted ranges, the whole `i64` line, and values whose `v − start`
    /// wraps (far below `start`, or at the other end of the line).
    #[test]
    fn time_fill_matches_time_range_contains() {
        let col = column(&[
            i64::MIN,
            i64::MIN + 1,
            -5,
            -1,
            0,
            1,
            7,
            100,
            i64::MAX - 1,
            i64::MAX,
        ]);
        let ranges = [
            (0, 100),
            (1, 0),
            (100, -100),
            (i64::MAX, i64::MIN),
            (i64::MIN, i64::MAX),
            (i64::MIN, -1),
            (0, i64::MAX),
            (i64::MAX, i64::MAX),
            (i64::MIN, i64::MIN),
            (-1, 1),
            (7, 7),
        ];
        for (start, end) in ranges {
            let range = TimeRange { start, end };
            let pred = CompiledPredicate::Time { col: &col, range };
            let expected: Vec<RecordId> = (0..col.len() as RecordId)
                .filter(|&rid| range.contains(col[rid as usize]))
                .collect();
            assert_eq!(filled(&pred, col.len()), expected, "[{start}, {end}]");
        }
    }

    /// The numeric and spatial fills' non-short-circuit compares against
    /// `NumRange::contains` / `GeoRect::contains`, on NaN values and bounds
    /// and on `−0.0`.
    #[test]
    fn range_fills_match_contains_on_nan_and_negative_zero() {
        let nan = f64::NAN;
        let floats = column(&[nan, -nan, -0.0, 0.0, -1.0, 1.0, 2.5, f64::INFINITY]);
        let ints = column(&[i64::MIN, -1, 0, 1, 2, i64::MAX]);
        let bounds = [
            (0.0, 1.0),
            (-0.0, 0.0),
            (-0.0, -0.0),
            (-1.0, -0.0),
            (nan, 1.0),
            (0.0, nan),
            (f64::NEG_INFINITY, f64::INFINITY),
            (2.0, 1.0),
        ];
        for (lo, hi) in bounds {
            let range = NumRange { lo, hi };
            let on_floats: Vec<RecordId> = (0..300)
                .filter(|&rid| range.contains(floats[rid as usize]))
                .collect();
            let on_ints: Vec<RecordId> = (0..300)
                .filter(|&rid| range.contains(ints[rid as usize] as f64))
                .collect();
            for (pred, expected) in [
                (
                    CompiledPredicate::NumericFloat {
                        col: &floats,
                        range,
                    },
                    &on_floats,
                ),
                (
                    CompiledPredicate::NumericInt { col: &ints, range },
                    &on_ints,
                ),
                (
                    CompiledPredicate::NumericTimestamp { col: &ints, range },
                    &on_ints,
                ),
            ] {
                assert_eq!(&filled(&pred, 300), expected, "[{lo}, {hi}]");
            }
        }
        let coords = [nan, -0.0, 0.0, 1.0];
        let points: Vec<GeoPoint> = coords
            .iter()
            .flat_map(|&lon| coords.iter().map(move |&lat| GeoPoint::new(lon, lat)))
            .collect();
        let points = column(&points);
        let rects = [
            GeoRect::new(0.0, 0.0, 1.0, 1.0),
            GeoRect::new(-0.0, -0.0, -0.0, -0.0),
            GeoRect {
                min_lon: nan,
                min_lat: 0.0,
                max_lon: 1.0,
                max_lat: 1.0,
            },
            GeoRect {
                min_lon: 0.0,
                min_lat: 0.0,
                max_lon: 1.0,
                max_lat: nan,
            },
        ];
        for rect in rects {
            let pred = CompiledPredicate::Spatial { col: &points, rect };
            let expected: Vec<RecordId> = (0..300)
                .filter(|&rid| rect.contains(&points[rid as usize]))
                .collect();
            assert_eq!(filled(&pred, 300), expected, "{rect:?}");
        }
    }

    /// Dense (8×8) and sparse (100×100 cells for 100 rows) accumulation, from
    /// the points and from the cell column, all equal a hand-rolled `bin_of`
    /// pass, and each counts as many non-empty cells as it has pairs.
    #[test]
    fn dense_and_sparse_binning_agree() {
        let t = table();
        let geo = t.geo_slice(2).unwrap();
        let n = t.row_count();
        let rows = || 0..n as RecordId;
        let extent = GeoRect::new(-120.0, 30.0, -110.0, 40.0);
        for grid in [BinGrid::new(extent, 8, 8), BinGrid::new(extent, 100, 100)] {
            let mut bins: HashMap<u32, u64> = HashMap::new();
            for p in geo {
                if let Some(bin) = grid.bin_of(p.lon, p.lat) {
                    *bins.entry(bin).or_insert(0) += 1;
                }
            }
            let mut expected: Vec<(u32, u64)> = bins.into_iter().collect();
            expected.sort_unstable();
            assert!(!expected.is_empty());
            let column = cell_column(&grid, geo);
            for source in [RowCells::Points(geo), RowCells::Column(&column)] {
                let binned = bin_counts_iter(&grid, source, rows(), n);
                assert_eq!(binned.non_empty() as usize, expected.len());
                assert_eq!(binned.into_pairs(), expected, "{grid:?}");
            }
        }
    }
}
