//! The reference oracle: a row-at-a-time interpreter.
//!
//! This is the semantic definition of plan execution — one `Result`-dispatched
//! predicate evaluation per row, no bitmaps, no threads. It is reached one
//! way only: [`Database::run_reference`], which the equivalence suites
//! compare the production pipeline against. No production path runs it.
//!
//! It checks the query exactly as the pipeline does (the executor's `bind`,
//! before any row is read), so a malformed query is the same typed error on
//! both engines; the row loop's per-row accessors are never the first to
//! find it.
//!
//! [`Database::run_reference`]: crate::db::Database::run_reference

use crate::error::{Error, Result};
use crate::exec::compiled::sparse_bin_accum;
use crate::exec::executor::{
    bind, execute_join, join_inputs, scan_indexes, ExecOutcome, ExecTable, IndexProbe,
};
use crate::exec::result::QueryResult;
use crate::index::intersect_adaptive;
use crate::plan::PhysicalPlan;
use crate::query::{OutputKind, Predicate, Query};
use crate::storage::Table;
use crate::timing::WorkProfile;
use crate::types::{RecordId, TokenId};

/// Executes `plan` for `query` row at a time. Same contract as
/// [`crate::exec::execute`]: identical `QueryResult` bytes, `WorkProfile` and
/// errors, which the `exec_equivalence` property suite pins.
pub(crate) fn execute(
    query: &Query,
    plan: &PhysicalPlan,
    fact: &ExecTable<'_>,
    dim: Option<&ExecTable<'_>>,
    limit_rows: Option<usize>,
) -> Result<ExecOutcome> {
    bind(query, fact, dim)?;
    let mut work = WorkProfile::default();

    // Source: the rows to visit, the per-row charge and the predicates left to
    // evaluate on each.
    type Rows<'r> = Box<dyn Iterator<Item = RecordId> + 'r>;
    let row_count = fact.table.row_count() as RecordId;
    let all_preds: Vec<usize>;
    let (rows, row_charge, preds): (Rows<'_>, fn(&mut WorkProfile), &[usize]) =
        if plan.index_preds.is_empty() {
            all_preds = (0..query.predicate_count()).collect();
            (Box::new(0..row_count), |w| w.seq_rows += 1, &all_preds)
        } else {
            let lists = scan_indexes(query, plan, fact, &mut work, IndexProbe::ids)?;
            let rows = Box::new(intersect_adaptive(&lists).into_iter());
            (rows, |w| w.heap_fetches += 1, &plan.filter_preds)
        };

    // Qualify: evaluate the predicates row by row, stopping at the LIMIT cap so
    // rows past it stay untouched. `LIMIT 0` visits nothing.
    let cap = limit_rows.unwrap_or(usize::MAX);
    let reserve = (plan.est_rows as usize).min(cap).min(row_count as usize);
    let mut qualifying: Vec<RecordId> = Vec::with_capacity(reserve);
    if cap > 0 {
        let tokens = resolve_keyword_tokens(&query.predicates, fact.table);
        for rid in rows {
            row_charge(&mut work);
            if eval_preds(query, preds, &tokens, fact.table, rid, &mut work)? {
                qualifying.push(rid);
                if qualifying.len() >= cap {
                    break;
                }
            }
        }
    }

    // Join with the dimension table.
    if let Some((method, spec, dim)) = join_inputs(query, plan, dim)? {
        let tokens = resolve_keyword_tokens(&spec.right_predicates, dim.table);
        let eval_right = |rid: RecordId, work: &mut WorkProfile| -> Result<bool> {
            for (pred, &token) in spec.right_predicates.iter().zip(&tokens) {
                work.filter_evals += 1;
                if !eval_resolved(pred, token, dim.table, rid)? {
                    return Ok(false);
                }
            }
            Ok(true)
        };
        qualifying = execute_join(method, spec, &qualifying, fact, dim, eval_right, &mut work)?;
    }

    // Sink: shape the output through the per-row fallible accessors.
    let result_rows = qualifying.len();
    let result = match &query.output {
        OutputKind::Points {
            id_attr,
            point_attr,
        } => {
            work.output_rows += result_rows as u64;
            let mut points = Vec::with_capacity(result_rows);
            for &rid in &qualifying {
                let id = fact.table.int(*id_attr, rid)?;
                points.push((id, fact.table.geo(*point_attr, rid)?));
            }
            QueryResult::Points(points)
        }
        OutputKind::BinnedCounts { point_attr, grid } => {
            work.grouped_rows += result_rows as u64;
            let mut points = Vec::with_capacity(result_rows);
            for &rid in &qualifying {
                points.push(fact.table.geo(*point_attr, rid)?);
            }
            let pairs = sparse_bin_accum(grid, points.into_iter()).into_pairs();
            work.output_rows += pairs.len() as u64;
            QueryResult::Bins(pairs)
        }
        OutputKind::Count => {
            work.output_rows += 1;
            QueryResult::Count(result_rows as u64)
        }
    };

    Ok(ExecOutcome {
        result,
        work,
        result_rows,
    })
}

/// Resolves the dictionary token of every keyword predicate once per execution,
/// so the row loop never touches the dictionary. Entries for non-keyword
/// predicates are `None` and unused.
fn resolve_keyword_tokens(preds: &[Predicate], table: &Table) -> Vec<Option<TokenId>> {
    preds
        .iter()
        .map(|p| resolve_keyword_token(p, table))
        .collect()
}

/// The pre-resolved dictionary token of a keyword predicate (`None` for other
/// predicate kinds and for keywords absent from the dictionary).
fn resolve_keyword_token(pred: &Predicate, table: &Table) -> Option<TokenId> {
    match pred {
        Predicate::KeywordContains { keyword, .. } => table.dictionary().lookup(keyword),
        _ => None,
    }
}

/// Evaluates the predicates at `pred_indices` against row `rid`, counting every
/// evaluation performed (short-circuiting on the first failure). `tokens` holds
/// the per-predicate pre-resolved keyword tokens from [`resolve_keyword_tokens`].
fn eval_preds(
    query: &Query,
    pred_indices: &[usize],
    tokens: &[Option<TokenId>],
    table: &Table,
    rid: RecordId,
    work: &mut WorkProfile,
) -> Result<bool> {
    for &i in pred_indices {
        let pred = query.predicates.get(i).ok_or(Error::InvalidAttribute(i))?;
        work.filter_evals += 1;
        if !eval_resolved(pred, tokens.get(i).copied().flatten(), table, rid)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Evaluates one predicate against one row, with the keyword token already
/// resolved by the caller (hoisted out of the row loop).
///
/// `#[inline]` keeps it inside the oracle's row loop, as it was when that loop
/// lived in the executor; without it the interpreter runs a quarter slower,
/// and the reference suites that run it on every generated query and hint set
/// (`exec_equivalence`, `vizdb_consistency`) take longer in debug builds.
#[inline]
fn eval_resolved(
    pred: &Predicate,
    token: Option<TokenId>,
    table: &Table,
    rid: RecordId,
) -> Result<bool> {
    match pred {
        Predicate::KeywordContains { attr, .. } => match token {
            Some(token) => table.text_contains(*attr, rid, token),
            None => Ok(false),
        },
        Predicate::TimeRange { attr, range } => Ok(range.contains(table.timestamp(*attr, rid)?)),
        Predicate::NumericRange { attr, range } => Ok(range.contains(table.numeric(*attr, rid)?)),
        Predicate::SpatialRange { attr, rect } => Ok(rect.contains(&table.geo(*attr, rid)?)),
    }
}

/// Evaluates one predicate against one row, resolving the keyword token on the
/// spot. One-shot callers only — loops should hoist via [`resolve_keyword_token`].
#[cfg(test)]
pub(crate) fn eval_predicate(pred: &Predicate, table: &Table, rid: RecordId) -> Result<bool> {
    eval_resolved(pred, resolve_keyword_token(pred, table), table, rid)
}
