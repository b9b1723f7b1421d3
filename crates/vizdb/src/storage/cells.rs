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
use crate::storage::BuildOnce;

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
    use crate::types::GeoRect;

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
