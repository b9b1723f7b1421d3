//! The query abstract syntax tree.
//!
//! A [`Query`] is the middleware-facing description of a visualization request: a base
//! table, a conjunction of filtering predicates (keyword / temporal / spatial /
//! numeric), an optional join with a dimension table, and an output shape (raw points
//! for scatterplots or binned counts for heatmaps / choropleth maps).

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};
use crate::types::{GeoRect, NumRange, TimeRange, Timestamp};

/// One conjunctive filtering condition over a single attribute of the base table.
///
/// `attr` is the column index in the table schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Predicate {
    /// `column contains "<keyword>"` over a text column. The keyword is stored as a
    /// plain string and resolved to a token id against the table dictionary when the
    /// query is planned.
    KeywordContains {
        /// Text column index.
        attr: usize,
        /// Search keyword (single token).
        keyword: String,
    },
    /// `column BETWEEN start AND end` over a timestamp column.
    TimeRange {
        /// Timestamp column index.
        attr: usize,
        /// Inclusive time interval.
        range: TimeRange,
    },
    /// `column IN <rect>` over a geo column.
    SpatialRange {
        /// Geo column index.
        attr: usize,
        /// Query rectangle.
        rect: GeoRect,
    },
    /// `column BETWEEN lo AND hi` over an int / float column.
    NumericRange {
        /// Numeric column index.
        attr: usize,
        /// Inclusive numeric interval.
        range: NumRange,
    },
}

impl Predicate {
    /// Convenience constructor for a keyword predicate.
    pub fn keyword(attr: usize, keyword: impl Into<String>) -> Self {
        Predicate::KeywordContains {
            attr,
            keyword: keyword.into(),
        }
    }

    /// Convenience constructor for a temporal range predicate.
    pub fn time_range(attr: usize, start: Timestamp, end: Timestamp) -> Self {
        Predicate::TimeRange {
            attr,
            range: TimeRange::new(start, end),
        }
    }

    /// Convenience constructor for a spatial range predicate.
    pub fn spatial_range(attr: usize, rect: GeoRect) -> Self {
        Predicate::SpatialRange { attr, rect }
    }

    /// Convenience constructor for a numeric range predicate.
    pub fn numeric_range(attr: usize, lo: f64, hi: f64) -> Self {
        Predicate::NumericRange {
            attr,
            range: NumRange::new(lo, hi),
        }
    }

    /// The attribute (column index) this predicate filters on.
    pub fn attr(&self) -> usize {
        match self {
            Predicate::KeywordContains { attr, .. }
            | Predicate::TimeRange { attr, .. }
            | Predicate::SpatialRange { attr, .. }
            | Predicate::NumericRange { attr, .. } => *attr,
        }
    }

    /// Short kind label used in plan explanations and feature vectors.
    pub fn kind(&self) -> &'static str {
        match self {
            Predicate::KeywordContains { .. } => "keyword",
            Predicate::TimeRange { .. } => "time",
            Predicate::SpatialRange { .. } => "spatial",
            Predicate::NumericRange { .. } => "numeric",
        }
    }
}

/// Grid specification for binned outputs (heatmaps / choropleth maps). Matches the
/// paper's `GROUP BY BIN_ID(Location)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BinGrid {
    /// Region covered by the grid.
    pub extent: GeoRect,
    /// Number of cells along the longitude axis.
    pub cols: u32,
    /// Number of cells along the latitude axis.
    pub rows: u32,
}

impl BinGrid {
    /// Creates a grid over `extent` with `cols x rows` cells.
    pub fn new(extent: GeoRect, cols: u32, rows: u32) -> Self {
        Self { extent, cols, rows }
    }

    /// Total number of cells.
    pub fn cell_count(&self) -> usize {
        (self.cols as usize) * (self.rows as usize)
    }

    /// Rejects a grid whose cells `u32` bin ids cannot number — one with no
    /// column or no row, or with more than 2^32 cells — and one whose extent
    /// has a NaN or infinite coordinate, or finite corners whose width or
    /// height overflows to infinity: no cell width can divide either.
    /// Executing a query checks its grid before touching any row.
    pub fn validate(&self) -> Result<()> {
        let cells = u64::from(self.cols) * u64::from(self.rows);
        if cells == 0 || cells > 1 << 32 {
            return Err(Error::InvalidQuery(format!(
                "a {} x {} bin grid has {cells} cells; bin ids number 1 to 2^32 cells",
                self.cols, self.rows
            )));
        }
        let e = &self.extent;
        if ![e.min_lon, e.min_lat, e.max_lon, e.max_lat]
            .into_iter()
            .all(f64::is_finite)
        {
            return Err(Error::InvalidQuery(format!(
                "bin grid extent {e:?} has a non-finite coordinate"
            )));
        }
        if !(e.width().is_finite() && e.height().is_finite()) {
            return Err(Error::InvalidQuery(format!(
                "bin grid extent {e:?} is wider or taller than an f64 can hold"
            )));
        }
        Ok(())
    }

    /// Bin id of a point, or `None` when the point falls outside the extent
    /// (or the grid fails [`BinGrid::validate`]). One [`CellMap::cell`] call.
    pub fn bin_of(&self, lon: f64, lat: f64) -> Option<u32> {
        CellMap::new(self).cell(lon, lat)
    }
}

/// A [`BinGrid`]'s point-to-cell arithmetic with everything that does not
/// depend on the point worked out once: the extent test's bounds, the
/// divisors `width.max(ε)` and `height.max(ε)`, the axis cell counts and the
/// last column and row the clamps cut to. [`BinGrid::bin_of`] is one
/// [`CellMap::cell`] call, and the binning kernels build one map outside their
/// row loops, so there is one definition of a point's cell.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CellMap {
    extent: GeoRect,
    width: f64,
    height: f64,
    cols: f64,
    rows: f64,
    stride: u32,
    last_col: u32,
    last_row: u32,
    /// An empty extent, or no column or no row: no point has a cell.
    cellless: bool,
}

impl CellMap {
    /// The map of `grid`'s cells.
    pub fn new(grid: &BinGrid) -> Self {
        let extent = grid.extent;
        Self {
            extent,
            width: extent.width().max(f64::EPSILON),
            height: extent.height().max(f64::EPSILON),
            cols: f64::from(grid.cols),
            rows: f64::from(grid.rows),
            stride: grid.cols,
            last_col: grid.cols.saturating_sub(1),
            last_row: grid.rows.saturating_sub(1),
            cellless: extent.is_empty() || grid.cols == 0 || grid.rows == 0,
        }
    }

    /// The point's clamped column and row, and whether it has a cell at all.
    /// The extent test ANDs its four compares without short-circuiting, so a
    /// row loop carries no data-dependent branch. It is written positively so
    /// a NaN coordinate, which passes no compare, lies outside.
    #[inline(always)]
    fn locate(&self, lon: f64, lat: f64) -> (u32, u32, bool) {
        let e = &self.extent;
        let inside =
            (lon >= e.min_lon) & (lon <= e.max_lon) & (lat >= e.min_lat) & (lat <= e.max_lat);
        let col = (((lon - e.min_lon) / self.width * self.cols) as u32).min(self.last_col);
        let row = (((lat - e.min_lat) / self.height * self.rows) as u32).min(self.last_row);
        (col, row, inside & !self.cellless)
    }

    /// Bin id of a point: `None` outside the extent, on a grid without cells,
    /// or when the id would pass `u32::MAX`.
    #[inline]
    pub fn cell(&self, lon: f64, lat: f64) -> Option<u32> {
        let (col, row, inside) = self.locate(lon, lat);
        if !inside {
            return None;
        }
        row.checked_mul(self.stride)?.checked_add(col)
    }

    /// [`CellMap::cell`] for dense accumulation: the point's slot in a
    /// per-cell vector and a weight of 1, or, for a point without a cell, a
    /// clamped slot and a weight of 0 — adding the weight replaces the branch.
    /// The slot is below the grid's cell count, and equals the bin id wherever
    /// that exists.
    #[inline(always)]
    pub fn slot(&self, lon: f64, lat: f64) -> (usize, u64) {
        let (col, row, inside) = self.locate(lon, lat);
        let slot = row as usize * self.stride as usize + col as usize;
        (slot, u64::from(inside))
    }
}

/// What the query returns to the frontend.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OutputKind {
    /// Raw `(id, point)` rows, e.g. for a scatterplot (`SELECT Id, Location ...`).
    Points {
        /// Id column index.
        id_attr: usize,
        /// Geo column index to plot.
        point_attr: usize,
    },
    /// Binned counts, e.g. for a heatmap
    /// (`SELECT BIN_ID, COUNT(*) ... GROUP BY BIN_ID(Location)`).
    BinnedCounts {
        /// Geo column index to bin.
        point_attr: usize,
        /// Binning grid.
        grid: BinGrid,
    },
    /// Only the number of matching rows (used for validation and COUNT(*) probes).
    Count,
}

/// An equi-join with a dimension table (e.g. `tweets.user_id = users.id`) plus
/// filtering predicates on the dimension table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JoinSpec {
    /// Dimension table name.
    pub right_table: String,
    /// Foreign-key column index in the base (left) table.
    pub left_attr: usize,
    /// Key column index in the dimension (right) table.
    pub right_attr: usize,
    /// Conjunctive predicates evaluated on the dimension table.
    pub right_predicates: Vec<Predicate>,
}

/// A complete visualization query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// Base (fact) table name.
    pub table: String,
    /// Conjunctive predicates over the base table.
    pub predicates: Vec<Predicate>,
    /// Optional join with a dimension table.
    pub join: Option<JoinSpec>,
    /// Output shape.
    pub output: OutputKind,
    /// Optional LIMIT on the number of produced rows (before binning).
    pub limit: Option<usize>,
}

impl Query {
    /// Starts a query on `table` that returns a bare count; use the builder methods to
    /// add predicates and set the output.
    pub fn select(table: impl Into<String>) -> Self {
        Self {
            table: table.into(),
            predicates: Vec::new(),
            join: None,
            output: OutputKind::Count,
            limit: None,
        }
    }

    /// Adds a predicate (builder style).
    pub fn filter(mut self, predicate: Predicate) -> Self {
        self.predicates.push(predicate);
        self
    }

    /// Sets the output shape (builder style).
    pub fn output(mut self, output: OutputKind) -> Self {
        self.output = output;
        self
    }

    /// Sets the join specification (builder style).
    pub fn join_with(mut self, join: JoinSpec) -> Self {
        self.join = Some(join);
        self
    }

    /// Sets a LIMIT (builder style).
    pub fn limit(mut self, limit: usize) -> Self {
        self.limit = Some(limit);
        self
    }

    /// Number of base-table predicates.
    pub fn predicate_count(&self) -> usize {
        self.predicates.len()
    }

    /// Returns `true` when the query joins two tables.
    pub fn is_join(&self) -> bool {
        self.join.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_predicates() {
        let q = Query::select("tweets")
            .filter(Predicate::keyword(3, "covid"))
            .filter(Predicate::time_range(1, 0, 86_400))
            .filter(Predicate::spatial_range(
                2,
                GeoRect::new(-124.4, 32.5, -114.1, 42.0),
            ));
        assert_eq!(q.predicate_count(), 3);
        assert!(!q.is_join());
        assert_eq!(q.predicates[0].kind(), "keyword");
        assert_eq!(q.predicates[1].attr(), 1);
    }

    #[test]
    fn join_builder() {
        let q = Query::select("tweets").join_with(JoinSpec {
            right_table: "users".into(),
            left_attr: 5,
            right_attr: 0,
            right_predicates: vec![Predicate::numeric_range(2, 100.0, 5000.0)],
        });
        assert!(q.is_join());
        assert_eq!(q.join.as_ref().unwrap().right_predicates.len(), 1);
    }

    #[test]
    fn bin_grid_assigns_cells() {
        let grid = BinGrid::new(GeoRect::new(0.0, 0.0, 10.0, 10.0), 10, 10);
        assert_eq!(grid.cell_count(), 100);
        assert_eq!(grid.bin_of(0.5, 0.5), Some(0));
        assert_eq!(grid.bin_of(9.99, 9.99), Some(99));
        assert_eq!(grid.bin_of(5.0, 0.0), Some(5));
        assert_eq!(grid.bin_of(20.0, 5.0), None);
    }

    #[test]
    fn degenerate_and_oversized_grids_are_rejected() {
        let extent = GeoRect::new(0.0, 0.0, 10.0, 10.0);
        for (cols, rows) in [(0, 8), (8, 0), (0, 0), (1 << 20, 1 << 13), (u32::MAX, 2)] {
            let grid = BinGrid::new(extent, cols, rows);
            assert!(matches!(grid.validate(), Err(Error::InvalidQuery(_))));
            // No cell to land in, or a last cell past `u32::MAX`.
            assert_eq!(grid.bin_of(10.0, 10.0), None);
        }
        for (cols, rows) in [(1, 1), (1 << 16, 1 << 16), (u32::MAX, 1)] {
            assert_eq!(BinGrid::new(extent, cols, rows).validate(), Ok(()));
        }
        let widest = BinGrid::new(extent, 1 << 16, 1 << 16);
        assert_eq!(widest.bin_of(10.0, 10.0), Some(u32::MAX));
    }

    /// `bin_of` would bin no row under a NaN extent coordinate and put every
    /// row into column 0 under an infinite one, so `validate` refuses both on
    /// every corner.
    #[test]
    fn non_finite_extents_are_rejected() {
        let finite = GeoRect::new(0.0, 0.0, 10.0, 10.0);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for corner in 0..4 {
                let mut extent = finite;
                let coord = match corner {
                    0 => &mut extent.min_lon,
                    1 => &mut extent.min_lat,
                    2 => &mut extent.max_lon,
                    _ => &mut extent.max_lat,
                };
                *coord = bad;
                let grid = BinGrid::new(extent, 8, 8);
                assert!(
                    matches!(grid.validate(), Err(Error::InvalidQuery(_))),
                    "{extent:?}"
                );
            }
        }
        assert_eq!(BinGrid::new(finite, 8, 8).validate(), Ok(()));
    }

    /// Finite corners whose difference overflows leave an infinite width (or
    /// height), and every finite point then divides to column (row) 0, so
    /// `validate` refuses those extents too.
    #[test]
    fn overflowing_extents_are_rejected() {
        let wide = BinGrid::new(GeoRect::new(-1.5e308, 0.0, 1.5e308, 10.0), 4, 1);
        let tall = BinGrid::new(GeoRect::new(0.0, -1.5e308, 10.0, 1.5e308), 1, 4);
        for grid in [wide, tall] {
            assert!(
                matches!(grid.validate(), Err(Error::InvalidQuery(_))),
                "{grid:?}"
            );
        }
        let widest = BinGrid::new(GeoRect::new(-8e307, -8e307, 8e307, 8e307), 4, 4);
        assert_eq!(widest.validate(), Ok(()));
    }

    /// The short-circuiting cell arithmetic [`CellMap`] replaced, kept as the
    /// oracle its branch-free form must equal. A NaN coordinate has no cell.
    fn reference_bin_of(grid: &BinGrid, lon: f64, lat: f64) -> Option<u32> {
        let e = &grid.extent;
        if e.is_empty() || lon.is_nan() || lat.is_nan() {
            return None;
        }
        if lon < e.min_lon || lon > e.max_lon || lat < e.min_lat || lat > e.max_lat {
            return None;
        }
        let fx = (lon - e.min_lon) / e.width().max(f64::EPSILON);
        let fy = (lat - e.min_lat) / e.height().max(f64::EPSILON);
        let col = ((fx * grid.cols as f64) as u32).min(grid.cols.checked_sub(1)?);
        let row = ((fy * grid.rows as f64) as u32).min(grid.rows.checked_sub(1)?);
        row.checked_mul(grid.cols)?.checked_add(col)
    }

    /// `bin_of`, `CellMap::cell` and the dense `CellMap::slot` agree with the
    /// reference on cell edges, the extent's max edge, points outside it, NaN
    /// and infinite coordinates, zero-width and zero-height extents, grids
    /// without cells and grids whose ids overflow `u32`.
    #[test]
    fn cell_map_matches_reference_bin_of() {
        let nan = f64::NAN;
        let extents = [
            GeoRect::new(0.0, 0.0, 10.0, 10.0),
            GeoRect::new(-3.0, 2.0, 7.0, 2.0),
            GeoRect::new(4.0, -1.0, 4.0, 9.0),
            GeoRect::new(5.0, 5.0, 5.0, 5.0),
            GeoRect::new(-0.0, -0.0, 0.0, 0.0),
            GeoRect::empty(),
        ];
        let coords = [
            nan,
            f64::NEG_INFINITY,
            -3.0,
            -1.0,
            -0.0,
            0.0,
            1e-300,
            2.0,
            2.5,
            4.0,
            5.0,
            7.0,
            7.5,
            9.0,
            10.0 - 1e-12,
            10.0,
            10.1,
            f64::INFINITY,
        ];
        let shapes = [(4, 4), (3, 7), (1, 1), (0, 4), (4, 0), (u32::MAX, 2)];
        for extent in extents {
            for (cols, rows) in shapes {
                let grid = BinGrid::new(extent, cols, rows);
                let map = CellMap::new(&grid);
                let cells = grid.cell_count();
                for &lon in &coords {
                    for &lat in &coords {
                        let want = reference_bin_of(&grid, lon, lat);
                        let at = format!("{grid:?} ({lon}, {lat})");
                        assert_eq!(grid.bin_of(lon, lat), want, "{at}");
                        assert_eq!(map.cell(lon, lat), want, "{at}");
                        if cells == 0 || cells > 1 << 20 {
                            continue;
                        }
                        let (slot, weight) = map.slot(lon, lat);
                        assert!(slot < cells, "{at}");
                        match want {
                            Some(bin) => assert_eq!((slot, weight), (bin as usize, 1), "{at}"),
                            None => assert_eq!(weight, 0, "{at}"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bin_grid_edges_clamp_to_last_cell() {
        let grid = BinGrid::new(GeoRect::new(0.0, 0.0, 10.0, 10.0), 4, 4);
        assert_eq!(grid.bin_of(10.0, 10.0), Some(15));
    }

    #[test]
    fn predicate_constructors_normalise_ranges() {
        let p = Predicate::numeric_range(0, 10.0, -5.0);
        match p {
            Predicate::NumericRange { range, .. } => {
                assert_eq!(range.lo, -5.0);
                assert_eq!(range.hi, 10.0);
            }
            _ => unreachable!(),
        }
        let t = Predicate::time_range(0, 100, 50);
        match t {
            Predicate::TimeRange { range, .. } => assert_eq!(range.start, 50),
            _ => unreachable!(),
        }
    }

    #[test]
    fn kinds_cover_all_variants() {
        let preds = [
            Predicate::keyword(0, "x"),
            Predicate::time_range(0, 0, 1),
            Predicate::spatial_range(0, GeoRect::new(0.0, 0.0, 1.0, 1.0)),
            Predicate::numeric_range(0, 0.0, 1.0),
        ];
        let kinds: Vec<_> = preds.iter().map(|p| p.kind()).collect();
        assert_eq!(kinds, vec!["keyword", "time", "spatial", "numeric"]);
    }
}
