//! Per-query estimation context: which selectivities have already been collected,
//! and the catalog values the estimators have read for this query.

use std::cell::Cell;

use vizdb::error::Result;

/// Slots held inline: one per fact-table predicate a hint set can address
/// (`HintSet::index_mask` is a `u32`) plus the dimension-side slot. A slot past
/// them (the dimension slot of a query with more than 32 predicates) goes to a
/// spill list.
const INLINE_SLOTS: usize = 33;

/// Predicates per table whose fallback selectivity is memoized. A predicate past
/// them is read from the backend on every use.
const MEMO_PREDICATES: usize = 32;

/// Shared state across the QTE calls issued while planning one visualization query.
///
/// Slot `i` (for `i < n`, the number of fact-table predicates) holds the collected
/// selectivity of predicate `i`; slot `n` holds the combined selectivity of the join's
/// dimension-table predicates. Collecting a slot once makes later estimates that need
/// it free, which is exactly how the estimation costs of unexplored rewritten queries
/// shrink in the paper's running example (Fig. 7).
///
/// The context also memoizes what an estimator reads from the catalog for its one
/// query: each table's probe sample size, the engine's estimated selectivity of every
/// predicate not yet collected, and the fact and dimension row counts. Each is read
/// on first use (through `&self`, so [`QueryTimeEstimator::estimation_cost`] can
/// fill it) and kept until [`Self::reset`]; the memo never outlives the planning
/// episode that owns the context. A context therefore belongs to one query over one
/// backend, as the collected slots always did.
///
/// [`QueryTimeEstimator::estimation_cost`]: crate::QueryTimeEstimator::estimation_cost
#[derive(Debug, Clone)]
pub struct EstimationContext {
    /// Bit `i` set: inline slot `i` has been collected.
    collected: u64,
    selectivities: [f64; INLINE_SLOTS],
    spill: Vec<(usize, f64)>,
    catalog: CatalogMemo,
}

/// Catalog values read for the context's query, each on first use.
#[derive(Debug, Clone, Default)]
struct CatalogMemo {
    /// `(sample fraction %, rows)` of one fact-table / dimension-table probe.
    probe_rows: [Cell<Option<(u32, usize)>>; 2],
    /// Fact-table / dimension-table row counts.
    rows: [Cell<Option<usize>>; 2],
    /// The engine's estimated selectivity of each fact / dimension predicate.
    estimates: [[Cell<Option<f64>>; MEMO_PREDICATES]; 2],
}

/// Which side of a (possibly joined) query a catalog value describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    /// The query's own (fact) table.
    Fact,
    /// The joined dimension table.
    Dimension,
}

/// The value memoized in `cell`, or `read()`'s, kept when it succeeded.
fn read_once<T: Copy>(cell: &Cell<Option<T>>, read: impl FnOnce() -> Result<T>) -> Result<T> {
    if let Some(value) = cell.get() {
        return Ok(value);
    }
    let value = read()?;
    cell.set(Some(value));
    Ok(value)
}

impl Default for EstimationContext {
    fn default() -> Self {
        Self {
            collected: 0,
            selectivities: [0.0; INLINE_SLOTS],
            spill: Vec::new(),
            catalog: CatalogMemo::default(),
        }
    }
}

impl EstimationContext {
    /// Creates an empty context (no selectivity collected yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` when slot `slot` has been collected.
    pub fn is_collected(&self, slot: usize) -> bool {
        self.selectivity(slot).is_some()
    }

    /// The collected selectivity of `slot`, if any.
    pub fn selectivity(&self, slot: usize) -> Option<f64> {
        if slot < INLINE_SLOTS {
            return (self.collected & (1 << slot) != 0).then(|| self.selectivities[slot]);
        }
        self.spill.iter().find(|(s, _)| *s == slot).map(|&(_, v)| v)
    }

    /// Records a collected selectivity.
    pub fn record(&mut self, slot: usize, selectivity: f64) {
        let selectivity = selectivity.clamp(0.0, 1.0);
        if slot < INLINE_SLOTS {
            self.collected |= 1 << slot;
            self.selectivities[slot] = selectivity;
        } else if let Some(entry) = self.spill.iter_mut().find(|(s, _)| *s == slot) {
            entry.1 = selectivity;
        } else {
            self.spill.push((slot, selectivity));
        }
    }

    /// Number of collected slots.
    pub fn collected_count(&self) -> usize {
        self.collected.count_ones() as usize + self.spill.len()
    }

    /// Clears the context (used when planning a new query): the collected slots and
    /// every memoized catalog value.
    pub fn reset(&mut self) {
        self.collected = 0;
        self.spill.clear();
        self.catalog = CatalogMemo::default();
    }

    /// The rows one probe on `side`'s `fraction_pct`% sample scans, read by `read` on
    /// first use. The memo records the fraction it holds, so estimators probing
    /// different samples may share a context.
    pub(crate) fn probe_rows(
        &self,
        side: Side,
        fraction_pct: u32,
        read: impl FnOnce() -> usize,
    ) -> usize {
        let cell = &self.catalog.probe_rows[side as usize];
        match cell.get() {
            Some((pct, rows)) if pct == fraction_pct => rows,
            _ => {
                let rows = read();
                cell.set(Some((fraction_pct, rows)));
                rows
            }
        }
    }

    /// `side`'s table row count, read by `read` on first success.
    pub(crate) fn row_count(
        &self,
        side: Side,
        read: impl FnOnce() -> Result<usize>,
    ) -> Result<usize> {
        read_once(&self.catalog.rows[side as usize], read)
    }

    /// The engine's estimated selectivity of `side`'s predicate `i`, read by `read`
    /// on first success.
    pub(crate) fn estimated_selectivity(
        &self,
        side: Side,
        i: usize,
        read: impl FnOnce() -> Result<f64>,
    ) -> Result<f64> {
        match self.catalog.estimates[side as usize].get(i) {
            Some(cell) => read_once(cell, read),
            None => read(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vizdb::error::Error;

    #[test]
    fn record_and_query() {
        let mut ctx = EstimationContext::new();
        assert!(!ctx.is_collected(0));
        ctx.record(0, 0.25);
        assert!(ctx.is_collected(0));
        assert_eq!(ctx.selectivity(0), Some(0.25));
        assert_eq!(ctx.collected_count(), 1);
    }

    #[test]
    fn record_clamps_to_unit_interval() {
        let mut ctx = EstimationContext::new();
        ctx.record(1, 3.0);
        ctx.record(2, -0.5);
        assert_eq!(ctx.selectivity(1), Some(1.0));
        assert_eq!(ctx.selectivity(2), Some(0.0));
    }

    #[test]
    fn reset_clears_everything() {
        let mut ctx = EstimationContext::new();
        ctx.record(0, 0.1);
        ctx.record(5, 0.2);
        ctx.record(40, 0.3);
        assert_eq!(ctx.row_count(Side::Fact, || Ok(7)).unwrap(), 7);
        ctx.reset();
        assert_eq!(ctx.collected_count(), 0);
        assert!(!ctx.is_collected(5));
        assert!(!ctx.is_collected(40));
        assert_eq!(ctx.row_count(Side::Fact, || Ok(9)).unwrap(), 9);
    }

    #[test]
    fn overwriting_a_slot_keeps_latest() {
        let mut ctx = EstimationContext::new();
        ctx.record(0, 0.1);
        ctx.record(0, 0.4);
        assert_eq!(ctx.selectivity(0), Some(0.4));
        assert_eq!(ctx.collected_count(), 1);
    }

    /// Slots past the inline ones behave like any other slot.
    #[test]
    fn slots_past_the_inline_ones_are_kept() {
        let mut ctx = EstimationContext::new();
        ctx.record(INLINE_SLOTS - 1, 0.5);
        ctx.record(INLINE_SLOTS, 0.6);
        ctx.record(INLINE_SLOTS, 0.7);
        ctx.record(200, 0.8);
        assert_eq!(ctx.selectivity(INLINE_SLOTS - 1), Some(0.5));
        assert_eq!(ctx.selectivity(INLINE_SLOTS), Some(0.7));
        assert_eq!(ctx.selectivity(200), Some(0.8));
        assert!(!ctx.is_collected(201));
        assert_eq!(ctx.collected_count(), 3);
    }

    /// A memoized value is read once per side and predicate; a failed read is
    /// not kept, and predicates past the memo are read every time.
    #[test]
    fn catalog_values_are_read_once_and_errors_are_not_kept() {
        let ctx = EstimationContext::new();
        let reads = Cell::new(0);
        let read = |value: f64| {
            reads.set(reads.get() + 1);
            Ok(value)
        };
        for _ in 0..3 {
            assert_eq!(
                ctx.estimated_selectivity(Side::Fact, 2, || read(0.5))
                    .unwrap(),
                0.5
            );
            assert_eq!(
                ctx.estimated_selectivity(Side::Dimension, 2, || read(0.25))
                    .unwrap(),
                0.25
            );
            assert_eq!(ctx.probe_rows(Side::Fact, 1, || 40), 40);
        }
        assert_eq!(reads.get(), 2);
        assert_eq!(ctx.probe_rows(Side::Fact, 1, || 9), 40);
        assert_eq!(ctx.probe_rows(Side::Dimension, 1, || 0), 0);
        // Another sample fraction is read afresh.
        assert_eq!(ctx.probe_rows(Side::Fact, 20, || 800), 800);
        assert_eq!(ctx.probe_rows(Side::Fact, 20, || 9), 800);

        let failed = ctx.row_count(Side::Dimension, || Err(Error::TableNotFound("u".into())));
        assert!(failed.is_err());
        assert_eq!(ctx.row_count(Side::Dimension, || Ok(3)).unwrap(), 3);
        assert_eq!(ctx.row_count(Side::Dimension, || Ok(4)).unwrap(), 3);

        for _ in 0..2 {
            ctx.estimated_selectivity(Side::Fact, MEMO_PREDICATES, || read(0.1))
                .unwrap();
        }
        assert_eq!(reads.get(), 4);
    }
}
