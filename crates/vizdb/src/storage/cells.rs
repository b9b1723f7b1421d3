//! A table's cell column: every row's heatmap cell on one bin grid, stored.
//!
//! Binning a selection by arithmetic costs two divisions per row
//! (`CellMap::slot`). A table that keeps binning on one grid — a dashboard's
//! fixed heatmap, priced and then executed request after request — can pay
//! that once: a [`CellColumn`] holds one `u32` per row, the row's slot in the
//! grid's count vector or the grid's cell count when the row has no cell, and
//! binning becomes a gather and an increment per row.
//!
//! Each table keeps one column, in a [`CellColumnSlot`]: the first binning of
//! a grid with at most `DENSE_GRID_MAX_CELLS` cells builds it for that grid
//! (point column plus the grid's exact bits, a [`CellKey`]), concurrent first
//! binnings build it once ([`BuildOnce`]), and every later binning of the
//! same key reads it. Other grids keep binning by arithmetic. The database
//! empties the slot on every catalog change (`Database::invalidate`);
//! clearing its caches keeps it.

use crate::query::BinGrid;
use crate::sync::RwLock;

/// A value built on its first use and read in place by every later one — a
/// table's cell column. Concurrent first users build it once: each checks
/// under the read lock, and whoever then takes the write lock first builds
/// while the others wait, then read what it built. A failed build leaves the
/// slot empty for the next caller to retry.
pub struct BuildOnce<T> {
    slot: RwLock<Option<T>>,
}

impl<T> BuildOnce<T> {
    /// An empty slot.
    pub fn new() -> Self {
        Self {
            slot: RwLock::with_name(None, "storage.build_once"),
        }
    }

    /// Runs `read` on the value, building it with `build` first if nobody has.
    pub fn read_or_build<R, E>(
        &self,
        build: impl FnOnce() -> std::result::Result<T, E>,
        read: impl FnOnce(&T) -> R,
    ) -> std::result::Result<R, E> {
        if let Some(value) = self.slot.read().as_ref() {
            return Ok(read(value));
        }
        let mut slot = self.slot.write();
        let value = match slot.take() {
            Some(value) => value,
            None => build()?,
        };
        Ok(read(slot.insert(value)))
    }

    /// Runs `read` on the value if it has been built, on `None` otherwise.
    pub fn peek<R>(&self, read: impl FnOnce(Option<&T>) -> R) -> R {
        read(self.slot.read().as_ref())
    }
}

impl<T> Default for BuildOnce<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// A table's slot for its one cell column, built on first use.
pub type CellColumnSlot = BuildOnce<CellColumn>;

/// What a cell column is built for: a point column and a bin grid, compared
/// by the grid extent's exact bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CellKey {
    attr: usize,
    extent: [u64; 4],
    cols: u32,
    rows: u32,
}

impl CellKey {
    /// The key of binning column `attr` on `grid`.
    pub(crate) fn new(attr: usize, grid: &BinGrid) -> Self {
        let e = &grid.extent;
        Self {
            attr,
            extent: [e.min_lon, e.min_lat, e.max_lon, e.max_lat].map(f64::to_bits),
            cols: grid.cols,
            rows: grid.rows,
        }
    }
}

/// Every row's cell on the grid of one [`CellKey`] (see the module docs).
pub struct CellColumn {
    key: CellKey,
    cells: Vec<u32>,
}

impl CellColumn {
    pub(crate) fn new(key: CellKey, cells: Vec<u32>) -> Self {
        Self { key, cells }
    }

    /// The rows' cells, if the column was built for `key`.
    pub(crate) fn cells_for(&self, key: CellKey) -> Option<&[u32]> {
        (self.key == key).then_some(self.cells.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{Error, Result};
    use crate::types::GeoRect;

    #[test]
    fn build_once_builds_on_first_use_and_retries_failures() {
        let slot = BuildOnce::new();
        let failed: Result<u32> = slot.read_or_build(|| Err(Error::Internal("no".into())), |v| *v);
        assert!(failed.is_err());
        assert_eq!(slot.peek(|v| v.copied()), None);
        assert_eq!(slot.read_or_build(|| Ok::<_, Error>(7), |v| *v), Ok(7));
        assert_eq!(
            slot.read_or_build(|| Ok::<_, Error>(9), |v| *v),
            Ok(7),
            "built once"
        );
        assert_eq!(slot.peek(|v| v.copied()), Some(7));
    }

    #[test]
    fn keys_differ_by_column_and_by_extent_bits() {
        let grid = BinGrid::new(GeoRect::new(0.0, 0.0, 1.0, 1.0), 4, 4);
        let negative_zero = BinGrid::new(GeoRect::new(-0.0, 0.0, 1.0, 1.0), 4, 4);
        assert_eq!(CellKey::new(2, &grid), CellKey::new(2, &grid));
        assert_ne!(CellKey::new(2, &grid), CellKey::new(3, &grid));
        assert_ne!(CellKey::new(2, &grid), CellKey::new(2, &negative_zero));
        let column = CellColumn::new(CellKey::new(2, &grid), vec![1, 16]);
        assert_eq!(column.cells_for(CellKey::new(2, &grid)), Some(&[1, 16][..]));
        assert_eq!(column.cells_for(CellKey::new(3, &grid)), None);
    }
}
