//! The production executor: one bitmap pipeline.
//!
//! A plan runs through four plain phases:
//!
//! 1. **source** — the plan's index scans intersected into a candidate
//!    [`SelectionBitmap`], or every row for a sequential scan;
//! 2. **qualify** — the residual predicates, as word kernels over 4096-row
//!    chunks when uncapped and as a row-at-a-time loop that stops at the cap
//!    under a `LIMIT`. On an uncapped index plan, a residual range over a
//!    B+-tree column or rectangle over an R-tree column is instead ANDed in
//!    as its index's whole-table mask, read from the prefix checkpoints,
//!    whenever that costs less than probing the candidates: each residual's
//!    [`MaskSource`] is bound once, in [`lower`], and the charges stay those
//!    of probing every candidate;
//! 3. **join** — probe the dimension table per qualifying fact row;
//! 4. **sink** — shape `Points` / `BinnedCounts` / `Count` over bound columns.
//!
//! Before any phase runs, the query is checked against its tables ([`bind`]):
//! every fact-side and join-side predicate and every output column is lowered
//! to its column slice, so a malformed query — a mistyped or out-of-range
//! predicate, an output column of the wrong type — is one typed error on
//! every plan, on both engines and whatever the table holds, and the phases
//! past it evaluate infallible kernels. Every phase runs on the calling
//! thread: requests run side by side across the serving workers, never split
//! within one.
//!
//! The executor performs *real* work against the in-memory tables and indexes
//! and reports exact operation counts in a [`WorkProfile`]. The simulated
//! execution time is derived from those counts by
//! [`crate::timing::execution_time_ms`]; the materialised [`QueryResult`] is
//! what the visualization quality functions consume.

use std::collections::HashMap;

use crate::bitmap::SelectionBitmap;
use crate::error::{Error, Result};
use crate::exec::compiled::{self, Binner, CompiledPredicate};
use crate::exec::result::QueryResult;
use crate::hints::JoinMethod;
use crate::index::{
    index_answers, intersect_skip_charge, BPlusTree, InvertedIndex, RTree, ScanStats, Span,
};
use crate::plan::PhysicalPlan;
use crate::query::{JoinSpec, OutputKind, Predicate, Query};
use crate::schema::ColumnType;
use crate::storage::{CellColumnSlot, Table};
use crate::timing::WorkProfile;
use crate::types::{GeoPoint, GeoRect, NumRange, RecordId, TokenId};

/// Borrowed view over everything the executor needs for one table.
#[derive(Clone, Copy)]
pub struct ExecTable<'a> {
    /// The table data.
    pub table: &'a Table,
    /// B+-tree indexes keyed by column index (timestamps and numeric columns).
    pub btree: &'a HashMap<usize, BPlusTree>,
    /// R-tree indexes keyed by column index (geo columns).
    pub rtree: &'a HashMap<usize, RTree>,
    /// Inverted indexes keyed by column index (text columns).
    pub inverted: &'a HashMap<usize, InvertedIndex>,
    /// The table's cell-column slot, which heatmap binning fills on first
    /// use and reads from; `None` bins every grid by arithmetic.
    pub cells: Option<&'a CellColumnSlot>,
}

/// How many rows of `view` match `pred` — the count behind every selectivity
/// probe. The predicate is checked first, as every query is ([`bind`]), so a
/// mistyped one is an error on an empty table too; then an index that answers
/// it counts it from its own structure ([`IndexProbe::count`]), and the
/// compiled kernel counts any other over every row.
pub(crate) fn count_matching(pred: &Predicate, view: &ExecTable<'_>) -> Result<usize> {
    let lowered = compiled::compile_predicate(pred, view.table)?;
    Ok(match IndexProbe::find(pred, view) {
        Some(probe) => probe.count(),
        None => lowered.count(0..view.table.row_count() as RecordId),
    })
}

/// The outcome of executing a plan.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Materialised result.
    pub result: QueryResult,
    /// Exact operation counts performed.
    pub work: WorkProfile,
    /// Number of qualifying fact rows (before binning, after joins and limits).
    pub result_rows: usize,
}

/// Executes `plan` for `query` over `fact` (and `dim` for join queries).
///
/// `limit_rows` caps the number of qualifying rows processed (an explicit
/// `LIMIT` or the LIMIT approximation rule; `Some(0)` visits no row).
/// Results, [`WorkProfile`] and errors are byte-identical to the reference
/// interpreter.
pub fn execute(
    query: &Query,
    plan: &PhysicalPlan,
    fact: &ExecTable<'_>,
    dim: Option<&ExecTable<'_>>,
    limit_rows: Option<usize>,
) -> Result<ExecOutcome> {
    let bound = bind(query, fact, dim)?;
    let (preds, masks) = residuals(bound.fact, query, plan, fact)?;
    let mut work = WorkProfile::default();
    let rows = source(query, plan, fact, &mut work)?;
    let mut qualified = qualify(
        &preds,
        &masks,
        rows,
        plan.est_rows as usize,
        fact.table.row_count(),
        limit_rows,
        &mut work,
    );
    if let Some((method, spec, dim)) = join_inputs(query, plan, dim)? {
        let eval_right =
            |rid: RecordId, work: &mut WorkProfile| Ok(compiled::eval_row(&bound.dim, rid, work));
        qualified = Qualified::Ids(execute_join(
            method,
            spec,
            &qualified.into_ids(),
            fact,
            dim,
            eval_right,
            &mut work,
        )?);
    }
    let result_rows = qualified.len();
    let result = sink(&bound.output, &qualified, result_rows, &mut work);
    Ok(ExecOutcome {
        result,
        work,
        result_rows,
    })
}

/// A query checked against its tables: every predicate and output column
/// bound to its column slice.
pub(super) struct Bound<'a> {
    /// Every fact-side predicate, in the query's order.
    pub(super) fact: Vec<CompiledPredicate<'a>>,
    /// The join-side predicates (empty without a join).
    pub(super) dim: Vec<CompiledPredicate<'a>>,
    pub(super) output: Output<'a>,
}

/// The output shape with its columns bound.
pub(super) enum Output<'a> {
    Points { ids: &'a [i64], geo: &'a [GeoPoint] },
    Bins(Binner<'a>),
    Count,
}

/// Checks `query` against its tables before either engine touches a row, with
/// the pipeline's own lowering: a bin grid [`BinGrid::validate`] refuses, a
/// predicate on either side that cannot bind its column (mistyped, or past
/// the schema), a join key that is not an `Int` column, a join without its
/// dimension table and an output column of the wrong type are each an error
/// here. The check reads no row and no plan, so the error is the same on every
/// plan and engine and for every table — empty, capped at `LIMIT 0`, or with
/// no index candidates — and past it nothing can fail on a row.
///
/// [`BinGrid::validate`]: crate::query::BinGrid::validate
pub(super) fn bind<'a>(
    query: &'a Query,
    fact: &ExecTable<'a>,
    dim: Option<&ExecTable<'a>>,
) -> Result<Bound<'a>> {
    if let OutputKind::BinnedCounts { grid, .. } = &query.output {
        grid.validate()?;
    }
    let fact_preds = compiled::compile_predicates(&query.predicates, fact)?;
    let dim_preds = match &query.join {
        None => Vec::new(),
        Some(spec) => {
            let dim = dim.ok_or_else(|| Error::TableNotFound(spec.right_table.clone()))?;
            fact.table.int_slice(spec.left_attr)?;
            dim.table.int_slice(spec.right_attr)?;
            compiled::compile_predicates(&spec.right_predicates, dim)?
        }
    };
    Ok(Bound {
        fact: fact_preds,
        dim: dim_preds,
        output: lower_output(query, fact)?,
    })
}

/// The predicates the qualify phase evaluates, taken from the bound `fact`
/// predicates: every one on a sequential scan; on an index plan its
/// residuals, each with where its mask comes from ([`MaskSource`]).
fn residuals<'a>(
    fact_preds: Vec<CompiledPredicate<'a>>,
    query: &'a Query,
    plan: &PhysicalPlan,
    fact: &ExecTable<'a>,
) -> Result<(Vec<CompiledPredicate<'a>>, Vec<MaskSource<'a>>)> {
    if plan.index_preds.is_empty() {
        return Ok((fact_preds, Vec::new()));
    }
    let mut preds = Vec::with_capacity(plan.filter_preds.len());
    let mut masks = Vec::with_capacity(plan.filter_preds.len());
    for &i in &plan.filter_preds {
        let (Some(pred), Some(&lowered)) = (query.predicates.get(i), fact_preds.get(i)) else {
            return Err(Error::InvalidAttribute(i));
        };
        preds.push(lowered);
        masks.push(MaskSource::bind(pred, fact));
    }
    Ok((preds, masks))
}

/// Binds the output shape's columns (and a binned output to the table's
/// cell-column slot).
fn lower_output<'a>(query: &'a Query, fact: &ExecTable<'a>) -> Result<Output<'a>> {
    let table = fact.table;
    Ok(match &query.output {
        OutputKind::Points {
            id_attr,
            point_attr,
        } => Output::Points {
            ids: table.int_slice(*id_attr)?,
            geo: table.geo_slice(*point_attr)?,
        },
        OutputKind::BinnedCounts { point_attr, grid } => Output::Bins(Binner::new(
            grid,
            *point_attr,
            table.geo_slice(*point_attr)?,
            fact.cells,
        )),
        OutputKind::Count => Output::Count,
    })
}

/// Phase-1 output: where the qualify phase reads its rows from.
enum Source {
    /// The rows surviving the plan's index predicates; each one visited is a
    /// heap fetch. The count bounds them from above: the fewest matches of any
    /// one index scan.
    Index(SelectionBitmap, usize),
    /// No index predicates: a sequential scan over the table.
    Seq,
}

/// Phase 1: for an index plan, the candidate rows — every index predicate
/// scanned into a dense bitmap, the scans ANDed word by word into the first
/// (a dense AND costs the same in any order).
fn source<'a>(
    query: &'a Query,
    plan: &PhysicalPlan,
    fact: &ExecTable<'a>,
    work: &mut WorkProfile,
) -> Result<Source> {
    if plan.index_preds.is_empty() {
        return Ok(Source::Seq);
    }
    let scan = |probe: &IndexProbe<'a>| {
        let (bits, stats) = probe.bitmap();
        ((bits, stats.matches), stats)
    };
    let mut lists = scan_indexes(query, plan, fact, work, scan)?.into_iter();
    let (mut acc, mut most) = lists.next().unwrap_or_default();
    for (list, matches) in lists {
        acc.and_with(&list);
        most = most.min(matches);
    }
    Ok(Source::Index(acc, most))
}

/// Phase-2 output: the qualifying rows as a bitmap (uncapped chunk kernels) or
/// as ascending ids (capped loops, joins).
enum Qualified {
    Ids(Vec<RecordId>),
    Bitmap(SelectionBitmap),
}

impl Qualified {
    fn len(&self) -> usize {
        match self {
            Qualified::Ids(v) => v.len(),
            Qualified::Bitmap(b) => b.len(),
        }
    }

    fn into_ids(self) -> Vec<RecordId> {
        match self {
            Qualified::Ids(v) => v,
            Qualified::Bitmap(b) => b.to_vec(),
        }
    }
}

/// Phase 2: qualify rows through the lowered residual predicates. Uncapped,
/// every source row is visited, so whole chunks are charged and refined at
/// once — an index plan's candidates in place,
/// where a residual over a B+-tree or R-tree column may take its index's
/// mask (`masks`, see [`compiled::qualify_bitmap`]); capped, rows are visited
/// one at a time so rows past the cap stay untouched, exactly like the
/// interpreter. Id-vector outputs are pre-sized from the planner's
/// cardinality estimate `est_rows`.
fn qualify(
    preds: &[CompiledPredicate<'_>],
    masks: &[MaskSource<'_>],
    source: Source,
    est_rows: usize,
    row_count: usize,
    limit_rows: Option<usize>,
    work: &mut WorkProfile,
) -> Qualified {
    let rows = 0..row_count as RecordId;
    let reserve = est_rows
        .min(limit_rows.unwrap_or(usize::MAX))
        .min(row_count);
    let Some(cap) = limit_rows else {
        let heap = |w: &mut WorkProfile, rows: u64| w.heap_fetches += rows;
        let seq = |w: &mut WorkProfile, rows: u64| w.seq_rows += rows;
        return match source {
            Source::Index(mut cands, most) => {
                let rows = (most, row_count);
                compiled::qualify_bitmap(preds, masks, &mut cands, rows, work, heap);
                Qualified::Bitmap(cands)
            }
            Source::Seq => {
                Qualified::Bitmap(compiled::qualify_range_bitmap(preds, rows, work, seq))
            }
        };
    };
    let heap = |w: &mut WorkProfile| w.heap_fetches += 1;
    let seq = |w: &mut WorkProfile| w.seq_rows += 1;
    let mut ids = Vec::with_capacity(reserve);
    match &source {
        Source::Index(cands, _) => {
            compiled::qualify_capped(preds, cands.iter(), cap, heap, work, &mut ids)
        }
        Source::Seq => compiled::qualify_capped(preds, rows, cap, seq, work, &mut ids),
    }
    Qualified::Ids(ids)
}

/// Phase 4: shape the output over the bound columns. Both representations
/// enumerate ids ascending, so the output bytes cannot depend on which one the
/// qualify phase produced.
fn sink(
    output: &Output<'_>,
    qualified: &Qualified,
    result_rows: usize,
    work: &mut WorkProfile,
) -> QueryResult {
    match *output {
        Output::Points { ids, geo } => {
            work.output_rows += result_rows as u64;
            QueryResult::Points(match qualified {
                Qualified::Bitmap(b) => compiled::gather_points(b.iter(), result_rows, ids, geo),
                Qualified::Ids(v) => {
                    compiled::gather_points(v.iter().copied(), result_rows, ids, geo)
                }
            })
        }
        Output::Bins(ref binner) => {
            work.grouped_rows += result_rows as u64;
            let pairs = match qualified {
                Qualified::Bitmap(b) => binner.bin(b.iter(), result_rows),
                Qualified::Ids(v) => binner.bin(v.iter().copied(), result_rows),
            }
            .into_pairs();
            work.output_rows += pairs.len() as u64;
            QueryResult::Bins(pairs)
        }
        Output::Count => {
            work.output_rows += 1;
            QueryResult::Count(result_rows as u64)
        }
    }
}

/// The B+-tree key interval that selects exactly the rows a numeric range
/// matches on a column of type `column`. `build_index` keys a timestamp column
/// by the raw timestamp, so there the interval is the integers inside
/// `[lo, hi]`: `(lo.ceil(), hi.floor())`, saturating at the `i64` bounds
/// (exact for timestamps within ±2^53, where `t as f64` is exact). Every other
/// column is keyed by [`BPlusTree::float_key`]. A NaN bound matches no row, so
/// it gives an empty interval.
fn numeric_probe_keys(column: ColumnType, range: &NumRange) -> (i64, i64) {
    if range.lo.is_nan() || range.hi.is_nan() {
        (i64::MAX, i64::MIN)
    } else if column == ColumnType::Timestamp {
        // Float-to-int `as` saturates.
        (range.lo.ceil() as i64, range.hi.floor() as i64)
    } else {
        (
            BPlusTree::float_key(range.lo),
            BPlusTree::float_key(range.hi),
        )
    }
}

/// One index predicate resolved to the index that answers it and the probe
/// arguments: inverted index + token, B+-tree + key range, R-tree + rectangle
/// + the indexed point column (its slab scans read coordinates from it).
pub(crate) enum IndexProbe<'a> {
    /// `None` when the keyword is absent from the dictionary: no row matches
    /// and no posting list is read.
    Inverted(&'a InvertedIndex, Option<TokenId>),
    BTree(&'a BPlusTree, i64, i64),
    RTree(&'a RTree, &'a GeoRect, &'a [GeoPoint]),
}

impl<'a> IndexProbe<'a> {
    /// The probe answering `pred` on `fact`; [`Error::IndexMissing`] when its
    /// column has no index that answers it ([`index_answers`], the rule the
    /// planner applies too), so a mistyped predicate is never counted by an
    /// index keyed for another type.
    pub(crate) fn resolve(pred: &'a Predicate, fact: &ExecTable<'a>) -> Result<Self> {
        Self::find(pred, fact).ok_or_else(|| {
            let column = fact.table.schema().column_name(pred.attr());
            Error::IndexMissing {
                table: fact.table.name().to_string(),
                column: column.unwrap_or("<unknown>").to_string(),
            }
        })
    }

    /// [`IndexProbe::resolve`] without the error: `None` when no index
    /// answers `pred`.
    pub(crate) fn find(pred: &'a Predicate, fact: &ExecTable<'a>) -> Option<Self> {
        let attr = pred.attr();
        let column = fact.table.schema().column_type(attr).ok()?;
        if !index_answers(pred, column) {
            return None;
        }
        Some(match pred {
            Predicate::KeywordContains { keyword, .. } => IndexProbe::Inverted(
                fact.inverted.get(&attr)?,
                fact.table.dictionary().lookup(keyword),
            ),
            Predicate::TimeRange { range, .. } => {
                IndexProbe::BTree(fact.btree.get(&attr)?, range.start, range.end)
            }
            Predicate::NumericRange { range, .. } => {
                let (lo, hi) = numeric_probe_keys(column, range);
                IndexProbe::BTree(fact.btree.get(&attr)?, lo, hi)
            }
            Predicate::SpatialRange { rect, .. } => IndexProbe::RTree(
                fact.rtree.get(&attr)?,
                rect,
                fact.table.geo_slice(attr).ok()?,
            ),
        })
    }

    /// The matching record ids, ascending — the reference's projection.
    pub(super) fn ids(&self) -> (Vec<RecordId>, ScanStats) {
        match *self {
            IndexProbe::Inverted(index, Some(token)) => index.lookup(token),
            IndexProbe::Inverted(_, None) => Default::default(),
            IndexProbe::BTree(index, lo, hi) => index.range_scan(lo, hi),
            IndexProbe::RTree(index, rect, _) => index.range_scan(rect),
        }
    }

    /// How many rows match, from the index's counts alone: posting length,
    /// or an `O(log n)` descent of the B+-tree / R-tree.
    pub(crate) fn count(&self) -> usize {
        match *self {
            IndexProbe::Inverted(index, Some(token)) => index.count(token),
            IndexProbe::Inverted(_, None) => 0,
            IndexProbe::BTree(index, lo, hi) => index.range_count(lo, hi),
            IndexProbe::RTree(index, rect, _) => index.range_count(rect),
        }
    }

    /// The matching rows as a bitmap — the pipeline's projection, with the
    /// same [`ScanStats`] as [`IndexProbe::ids`]. A wide B+-tree range or
    /// R-tree rectangle is read from the index's prefix checkpoints.
    pub(super) fn bitmap(&self) -> (SelectionBitmap, ScanStats) {
        match *self {
            IndexProbe::Inverted(index, Some(token)) => index.lookup_bitmap(token),
            IndexProbe::Inverted(_, None) => Default::default(),
            IndexProbe::BTree(index, lo, hi) => index.range_scan_bitmap(lo, hi),
            IndexProbe::RTree(index, rect, points) => index.range_scan_bitmap(rect, points),
        }
    }

    /// The prefix-checkpoint spans [`IndexProbe::bitmap`] reads its rows
    /// from — a B+-tree range's one, or an R-tree rectangle's longitude and
    /// latitude slabs, to be ANDed — found by the `O(log m)` rank searches.
    /// `None` when that scan walks entries (or reads a posting list).
    pub(super) fn checkpoint_spans(&self) -> Option<Vec<Span<'a>>> {
        match *self {
            IndexProbe::Inverted(..) => None,
            IndexProbe::BTree(index, lo, hi) => index.checkpoint_span(lo, hi).map(|s| vec![s]),
            IndexProbe::RTree(index, rect, points) => index.slab_spans(rect, points).map(Vec::from),
        }
    }

    /// How many entries the index's prefix checkpoints are laid over, and
    /// how many spans [`IndexProbe::checkpoint_spans`] returns; `None` when
    /// the index keeps no checkpoints (or is a posting list).
    pub(super) fn checkpointed(&self) -> Option<(usize, usize)> {
        match *self {
            IndexProbe::Inverted(..) => None,
            IndexProbe::BTree(index, ..) => index.checkpointed_len().map(|m| (m, 1)),
            IndexProbe::RTree(index, ..) => index.checkpointed_len().map(|m| (m, 2)),
        }
    }
}

/// Where one predicate's whole-table mask comes from: the one answer both
/// the lattice pricing pass and the pipeline's index plans read.
pub(crate) enum MaskSource<'a> {
    /// The column kernel: keywords (whose kernels read the posting list when
    /// the column has an inverted index) and unindexed predicates.
    Kernel,
    /// A range over a B+-tree column or a rectangle over an R-tree column:
    /// the index's scan ([`IndexProbe::bitmap`]).
    Index(IndexProbe<'a>),
}

impl<'a> MaskSource<'a> {
    /// The source for a predicate `probe` answers (`None`: no index does).
    pub(crate) fn new(probe: Option<IndexProbe<'a>>) -> Self {
        match probe {
            None | Some(IndexProbe::Inverted(..)) => Self::Kernel,
            Some(probe) => Self::Index(probe),
        }
    }

    /// The predicate's whole-table mask from its index, `None` for the
    /// kernel: a wide range or rectangle read from the prefix checkpoints, a
    /// narrow one by walking its entries.
    pub(crate) fn scan(&self) -> Option<SelectionBitmap> {
        match self {
            Self::Kernel => None,
            Self::Index(probe) => Some(probe.bitmap().0),
        }
    }

    /// The source for `pred` on `fact`. A keyword always refines from its
    /// kernel, so it resolves no probe.
    fn bind(pred: &'a Predicate, fact: &ExecTable<'a>) -> Self {
        match pred {
            Predicate::KeywordContains { .. } => Self::Kernel,
            _ => Self::new(IndexProbe::find(pred, fact)),
        }
    }
}

/// Runs the plan's index scans through `project` and returns one match list
/// per index predicate. The single accounting site for index work: a probe per
/// predicate, an entry per match, and for multi-index plans the skip/gallop
/// intersection charge — the same formula ([`intersect_skip_charge`]) the
/// optimizer's `predict_work` uses, so charged intersection work always
/// matches predicted work.
pub(super) fn scan_indexes<'a, T>(
    query: &'a Query,
    plan: &PhysicalPlan,
    fact: &ExecTable<'a>,
    work: &mut WorkProfile,
    project: impl Fn(&IndexProbe<'a>) -> (T, ScanStats),
) -> Result<Vec<T>> {
    let mut lists = Vec::with_capacity(plan.index_preds.len());
    let mut lens = Vec::with_capacity(plan.index_preds.len());
    for &pred_idx in &plan.index_preds {
        let pred = query
            .predicates
            .get(pred_idx)
            .ok_or(Error::InvalidAttribute(pred_idx))?;
        work.index_probes += 1;
        let (list, stats) = project(&IndexProbe::resolve(pred, fact)?);
        work.index_entries += stats.matches as u64;
        lens.push(stats.matches);
        lists.push(list);
    }
    if lists.len() > 1 {
        work.intersect_entries += intersect_skip_charge(&lens);
    }
    Ok(lists)
}

/// The join a plan asks for, with its inputs checked: `None` for a plan
/// without a join, an error when the query carries no join spec or the
/// dimension table is not registered.
pub(super) fn join_inputs<'q, 't, 'a>(
    query: &'q Query,
    plan: &PhysicalPlan,
    dim: Option<&'t ExecTable<'a>>,
) -> Result<Option<(JoinMethod, &'q JoinSpec, &'t ExecTable<'a>)>> {
    let Some(join_plan) = &plan.join else {
        return Ok(None);
    };
    let spec = query
        .join
        .as_ref()
        .ok_or_else(|| Error::InvalidQuery("plan has a join but the query does not".into()))?;
    let dim = dim.ok_or_else(|| Error::TableNotFound(join_plan.right_table.clone()))?;
    Ok(Some((join_plan.method, spec, dim)))
}

/// Phase 3: joins the qualifying fact rows with the dimension table and returns
/// the fact rows whose dimension match passes the dimension predicates.
///
/// `eval_right` evaluates the dimension predicates for one dimension row,
/// charging one `filter_evals` per predicate evaluated: the pipeline passes the
/// lowered conjunction, the reference its interpreter loop (same charges, same
/// short-circuit order).
pub(super) fn execute_join(
    method: JoinMethod,
    spec: &JoinSpec,
    fact_rows: &[RecordId],
    fact: &ExecTable<'_>,
    dim: &ExecTable<'_>,
    eval_right: impl Fn(RecordId, &mut WorkProfile) -> Result<bool>,
    work: &mut WorkProfile,
) -> Result<Vec<RecordId>> {
    let dim_rows = dim.table.row_count();
    match method {
        JoinMethod::Hash => {
            // Build: hash every dimension row that passes the dimension predicates.
            work.hash_build_rows += dim_rows as u64;
            let mut hash: HashMap<i64, RecordId> = HashMap::with_capacity(dim_rows);
            for rid in 0..dim_rows as RecordId {
                if eval_right(rid, work)? {
                    hash.insert(dim.table.int(spec.right_attr, rid)?, rid);
                }
            }
            // Probe.
            let mut out = Vec::with_capacity(fact_rows.len());
            for &rid in fact_rows {
                work.hash_probe_rows += 1;
                let key = fact.table.int(spec.left_attr, rid)?;
                if hash.contains_key(&key) {
                    out.push(rid);
                }
            }
            Ok(out)
        }
        JoinMethod::NestLoop => {
            // Index nested loop: probe the dimension key index per fact row; fall back
            // to a lazily built lookup map when no index exists.
            let key_index = dim.btree.get(&spec.right_attr);
            let fallback: Option<HashMap<i64, RecordId>> = if key_index.is_none() {
                let mut m = HashMap::with_capacity(dim_rows);
                for rid in 0..dim_rows as RecordId {
                    m.insert(dim.table.int(spec.right_attr, rid)?, rid);
                }
                Some(m)
            } else {
                None
            };
            let mut out = Vec::with_capacity(fact_rows.len());
            for &rid in fact_rows {
                work.nl_probe_rows += 1;
                let key = fact.table.int(spec.left_attr, rid)?;
                let dim_rid = match (key_index, &fallback) {
                    (Some(index), _) => {
                        // `build_index` keys an `Int` column by `float_key`.
                        let key = BPlusTree::float_key(key as f64);
                        let (rids, _) = index.range_scan(key, key);
                        rids.first().copied()
                    }
                    (None, Some(map)) => map.get(&key).copied(),
                    (None, None) => None,
                };
                if let Some(drid) = dim_rid {
                    if eval_right(drid, work)? {
                        out.push(rid);
                    }
                }
            }
            Ok(out)
        }
        JoinMethod::Merge => {
            // Sort both sides on the join key, then merge.
            let left_n = fact_rows.len().max(2) as f64;
            let right_n = dim_rows.max(2) as f64;
            work.merge_weighted_rows +=
                (fact_rows.len() as f64 * left_n.log2() + dim_rows as f64 * right_n.log2()) as u64;

            let mut left: Vec<(i64, RecordId)> = fact_rows
                .iter()
                .map(|&rid| Ok((fact.table.int(spec.left_attr, rid)?, rid)))
                .collect::<Result<_>>()?;
            left.sort_unstable();
            let mut right: Vec<(i64, RecordId)> = (0..dim_rows as RecordId)
                .map(|rid| Ok((dim.table.int(spec.right_attr, rid)?, rid)))
                .collect::<Result<_>>()?;
            right.sort_unstable();

            let mut out = Vec::with_capacity(fact_rows.len());
            let (mut i, mut j) = (0usize, 0usize);
            while i < left.len() && j < right.len() {
                match left[i].0.cmp(&right[j].0) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        let drid = right[j].1;
                        if eval_right(drid, work)? {
                            out.push(left[i].1);
                        }
                        i += 1;
                    }
                }
            }
            out.sort_unstable();
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hints::HintSet;
    use crate::optimizer::{Planner, TableMeta};
    use crate::query::BinGrid;
    use crate::schema::{ColumnType, TableSchema};
    use crate::stats::TableStats;
    use crate::storage::TableBuilder;
    use crate::timing::CostParams;
    use crate::types::GeoRect;
    use std::collections::HashSet;

    struct Fixture {
        table: Table,
        btree: HashMap<usize, BPlusTree>,
        rtree: HashMap<usize, RTree>,
        inverted: HashMap<usize, InvertedIndex>,
    }

    impl Fixture {
        fn exec_table(&self) -> ExecTable<'_> {
            ExecTable {
                table: &self.table,
                btree: &self.btree,
                rtree: &self.rtree,
                inverted: &self.inverted,
                cells: None,
            }
        }
    }

    /// 1000 tweets: timestamps 0..1000, coordinates on a line, keyword "covid" on
    /// multiples of 4, user_id = rid % 50.
    fn tweets_fixture() -> Fixture {
        let schema = TableSchema::new("tweets")
            .with_column("id", ColumnType::Int)
            .with_column("created_at", ColumnType::Timestamp)
            .with_column("coordinates", ColumnType::Geo)
            .with_column("text", ColumnType::Text)
            .with_column("user_id", ColumnType::Int);
        let mut b = TableBuilder::new(schema);
        for i in 0..1000i64 {
            b.push_row(|row| {
                row.set_int("id", i);
                row.set_timestamp("created_at", i);
                row.set_geo("coordinates", -120.0 + (i as f64) * 0.01, 35.0);
                row.set_text(
                    "text",
                    if i % 4 == 0 {
                        &["covid", "news"]
                    } else {
                        &["news"]
                    },
                );
                row.set_int("user_id", i % 50);
            });
        }
        let table = b.build();
        let mut btree = HashMap::new();
        btree.insert(
            1,
            BPlusTree::build(
                (0..table.row_count() as RecordId)
                    .map(|rid| (table.timestamp(1, rid).unwrap(), rid))
                    .collect(),
            ),
        );
        let mut rtree = HashMap::new();
        rtree.insert(
            2,
            RTree::build(
                (0..table.row_count() as RecordId)
                    .map(|rid| (table.geo(2, rid).unwrap(), rid))
                    .collect(),
            ),
        );
        let mut inverted = HashMap::new();
        inverted.insert(
            3,
            InvertedIndex::build(
                &(0..table.row_count() as RecordId)
                    .map(|rid| table.text(3, rid).unwrap().to_vec())
                    .collect::<Vec<_>>(),
            ),
        );
        Fixture {
            table,
            btree,
            rtree,
            inverted,
        }
    }

    fn users_fixture() -> Fixture {
        let schema = TableSchema::new("users")
            .with_column("id", ColumnType::Int)
            .with_column("tweet_count", ColumnType::Int);
        let mut b = TableBuilder::new(schema);
        for i in 0..50i64 {
            b.push_row(|row| {
                row.set_int("id", i);
                row.set_int("tweet_count", i * 10);
            });
        }
        let table = b.build();
        // Keyed as `Database::build_index` keys an `Int` column.
        let mut btree = HashMap::new();
        btree.insert(
            0,
            BPlusTree::build(
                (0..table.row_count() as RecordId)
                    .map(|rid| (BPlusTree::float_key(table.int(0, rid).unwrap() as f64), rid))
                    .collect(),
            ),
        );
        Fixture {
            table,
            btree,
            rtree: HashMap::new(),
            inverted: HashMap::new(),
        }
    }

    fn base_query() -> Query {
        Query::select("tweets")
            .filter(Predicate::keyword(3, "covid"))
            .filter(Predicate::time_range(1, 100, 499))
            .filter(Predicate::spatial_range(
                2,
                GeoRect::new(-121.0, 30.0, -100.0, 40.0),
            ))
            .output(OutputKind::Points {
                id_attr: 0,
                point_attr: 2,
            })
    }

    fn plan_with(f: &Fixture, q: &Query, mask: u32) -> PhysicalPlan {
        let stats = TableStats::analyze(&f.table).unwrap();
        let indexed: HashSet<usize> = [1usize, 2, 3].into_iter().collect();
        let meta = TableMeta {
            stats: &stats,
            dictionary: f.table.dictionary(),
            schema: f.table.schema(),
            indexed_columns: &indexed,
            row_count: f.table.row_count(),
        };
        Planner::new(CostParams::default()).plan(q, &HintSet::with_mask(mask), None, &meta, None)
    }

    #[test]
    fn full_scan_and_index_plans_agree_on_results() {
        let f = tweets_fixture();
        let q = base_query();
        let exec_t = f.exec_table();
        let expected: usize = 100; // timestamps 100..=499 with i % 4 == 0
        for mask in 0..8u32 {
            let plan = plan_with(&f, &q, mask);
            let out = execute(&q, &plan, &exec_t, None, None).unwrap();
            assert_eq!(out.result_rows, expected, "mask {mask}");
            match out.result {
                QueryResult::Points(points) => assert_eq!(points.len(), expected),
                other => panic!("unexpected result {other:?}"),
            }
        }
    }

    #[test]
    fn work_profiles_differ_between_plans() {
        let f = tweets_fixture();
        let q = base_query();
        let exec_t = f.exec_table();
        let full = execute(&q, &plan_with(&f, &q, 0), &exec_t, None, None).unwrap();
        let idx = execute(&q, &plan_with(&f, &q, 0b010), &exec_t, None, None).unwrap();
        assert!(full.work.seq_rows == 1000);
        assert!(idx.work.seq_rows == 0);
        assert_eq!(idx.work.index_probes, 1);
        assert_eq!(idx.work.heap_fetches, 400); // timestamps 100..=499
    }

    #[test]
    fn engines_agree_on_multi_predicate_index_plan() {
        let mut db = crate::Database::new(crate::DbConfig::default());
        db.register_table(tweets_fixture().table).unwrap();
        for column in ["created_at", "coordinates", "text"] {
            db.build_index("tweets", column).unwrap();
        }
        let q = base_query();
        // Index the time and spatial predicates; keyword stays residual.
        let ro = crate::hints::RewriteOption::hinted(HintSet::with_mask(0b110));
        let outs = [db.run_reference(&q, &ro).unwrap(), db.run(&q, &ro).unwrap()];
        assert_eq!(
            outs[0].plan.index_preds.len(),
            2,
            "expected a multi-index plan"
        );
        assert_eq!(outs[1].result, outs[0].result);
        assert_eq!(outs[1].work, outs[0].work);
        // Time matches rows 100..=499 (400), spatial matches all 1000; their
        // intersection is heap-fetched, then the keyword residual is evaluated
        // once per fetched row — identical leaf/heap accounting on the oracle and
        // the pipeline.
        assert_eq!(outs[0].work.index_probes, 2);
        assert_eq!(outs[0].work.index_entries, 1400);
        assert_eq!(outs[0].work.heap_fetches, 400);
        assert_eq!(outs[0].work.filter_evals, 400);
        assert_eq!(outs[0].work.seq_rows, 0);
        // The charged intersection work is exactly the skip/gallop formula over
        // the scanned list lengths — the same number predict_work estimates.
        assert_eq!(
            outs[0].work.intersect_entries,
            intersect_skip_charge(&[400, 1000])
        );
    }

    #[test]
    fn binned_output_counts_points_per_bin() {
        let f = tweets_fixture();
        let q = Query::select("tweets")
            .filter(Predicate::time_range(1, 0, 999))
            .output(OutputKind::BinnedCounts {
                point_attr: 2,
                grid: BinGrid::new(GeoRect::new(-120.0, 34.0, -110.0, 36.0), 10, 1),
            });
        let plan = plan_with(&f, &q, 0b1);
        let out = execute(&q, &plan, &f.exec_table(), None, None).unwrap();
        match out.result {
            QueryResult::Bins(bins) => {
                let total: u64 = bins.iter().map(|(_, c)| c).sum();
                assert_eq!(total, 1000);
                assert!(bins.len() <= 10);
            }
            other => panic!("unexpected result {other:?}"),
        }
    }

    #[test]
    fn limit_caps_result_rows() {
        let f = tweets_fixture();
        let q = base_query();
        let plan = plan_with(&f, &q, 0b010);
        let out = execute(&q, &plan, &f.exec_table(), None, Some(10)).unwrap();
        assert_eq!(out.result_rows, 10);
    }

    #[test]
    fn join_methods_return_identical_results() {
        let tweets = tweets_fixture();
        let users = users_fixture();
        let q = base_query().join_with(crate::query::JoinSpec {
            right_table: "users".into(),
            left_attr: 4,
            right_attr: 0,
            right_predicates: vec![Predicate::numeric_range(1, 0.0, 200.0)],
        });
        let mut results = Vec::new();
        for method in JoinMethod::all() {
            let mut plan = plan_with(&tweets, &q, 0b010);
            plan.join = Some(crate::plan::JoinPlan {
                method,
                right_table: "users".into(),
                left_attr: 4,
                right_attr: 0,
            });
            let out = execute(
                &q,
                &plan,
                &tweets.exec_table(),
                Some(&users.exec_table()),
                None,
            )
            .unwrap();
            results.push(out.result_rows);
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
        assert!(results[0] > 0);
        // Dimension predicate keeps users with tweet_count <= 200, i.e. ids 0..=20.
        assert!(results[0] < 100);
    }

    #[test]
    fn join_without_dim_table_errors() {
        let tweets = tweets_fixture();
        let q = base_query().join_with(crate::query::JoinSpec {
            right_table: "users".into(),
            left_attr: 4,
            right_attr: 0,
            right_predicates: vec![],
        });
        let mut plan = plan_with(&tweets, &q, 0b010);
        plan.join = Some(crate::plan::JoinPlan {
            method: JoinMethod::Hash,
            right_table: "users".into(),
            left_attr: 4,
            right_attr: 0,
        });
        assert!(execute(&q, &plan, &tweets.exec_table(), None, None).is_err());
    }

    #[test]
    fn unknown_keyword_returns_empty() {
        let f = tweets_fixture();
        let q = Query::select("tweets")
            .filter(Predicate::keyword(3, "doesnotexist"))
            .output(OutputKind::Count);
        let plan = plan_with(&f, &q, 0b1);
        let out = execute(&q, &plan, &f.exec_table(), None, None).unwrap();
        assert_eq!(out.result_rows, 0);
    }
}
