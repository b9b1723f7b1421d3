//! 2-D tile partitioning: the grid, the space-filling curve, and the
//! balanced tile→shard assignment behind [`super::ShardedBackend`].
//!
//! A partitioned table is laid out over a `dim × dim` grid of equal-sized
//! lon×lat tiles spanning the table's geo extent (from its statistics — the
//! same statistics a coordinator node would have). Tiles are ordered along a
//! Z-order (Morton) curve and *contiguous curve runs* are assigned to shards by
//! greedy row-count balancing, so every shard holds a spatially coherent
//! region with about `rows / shards` rows even when the data is heavily
//! skewed. The layout is computed once, at registration, and never changes.
//!
//! Routing uses **both axes**: a query's longitude *and* latitude intervals
//! (spatial predicates on the partition column intersected with a heatmap's
//! grid extent) map to a tile rectangle, and the fan-out is the set of shards
//! owning at least one tile in it, so a latitude-only viewport prunes shards
//! too.

use crate::error::Result;
use crate::storage::Table;
use crate::types::{GeoRect, RecordId};

/// Tiles per axis of the default grid: 4,096 tiles resolve a metro-sized blob
/// into dozens of tiles over a continental extent.
pub(crate) const GRID_DIM: u32 = 64;

/// The query's spatial window on the partition column: the intersection of its
/// spatial-range predicates and (for heatmaps) the binning grid extent, per
/// axis. `(-inf, +inf)` per axis when unconstrained; `lo > hi` encodes an
/// empty (contradictory) window.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueryWindow {
    pub lon: (f64, f64),
    pub lat: (f64, f64),
}

impl QueryWindow {
    pub fn unconstrained() -> Self {
        Self {
            lon: (f64::NEG_INFINITY, f64::INFINITY),
            lat: (f64::NEG_INFINITY, f64::INFINITY),
        }
    }

    /// Narrows the window by `rect` (intersection per axis).
    pub fn narrow(&mut self, rect: &GeoRect) {
        self.lon.0 = self.lon.0.max(rect.min_lon);
        self.lon.1 = self.lon.1.min(rect.max_lon);
        self.lat.0 = self.lat.0.max(rect.min_lat);
        self.lat.1 = self.lat.1.min(rect.max_lat);
    }
}

/// The tile grid of one partitioned table: geo bounds split into
/// `dim_lon × dim_lat` equal-sized tiles.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TileGrid {
    /// The finite extent the tiles divide.
    pub bounds: GeoRect,
    /// The bounding box of every row, `±inf` coordinates included (they sit
    /// in the edge tiles): a window outside it holds no row.
    pub reach: GeoRect,
    pub dim_lon: u32,
    pub dim_lat: u32,
}

impl TileGrid {
    pub fn new(bounds: GeoRect, dim_lon: u32, dim_lat: u32) -> Self {
        Self {
            bounds,
            reach: bounds,
            dim_lon: dim_lon.max(1),
            dim_lat: dim_lat.max(1),
        }
    }

    pub fn tile_count(&self) -> usize {
        self.dim_lon as usize * self.dim_lat as usize
    }

    fn lon_width(&self) -> f64 {
        ((self.bounds.max_lon - self.bounds.min_lon) / self.dim_lon as f64).max(f64::EPSILON)
    }

    fn lat_height(&self) -> f64 {
        ((self.bounds.max_lat - self.bounds.min_lat) / self.dim_lat as f64).max(f64::EPSILON)
    }

    /// Index along one axis by equal-width binning, clamped into the grid.
    /// `±inf` saturate to the first/last cell, so unconstrained query windows
    /// cover the whole axis.
    fn axis_index(lo: f64, width: f64, dim: u32, v: f64) -> usize {
        let raw = ((v - lo) / width).floor() as i64;
        raw.clamp(0, dim as i64 - 1) as usize
    }

    /// The tile owning the point `(lon, lat)`.
    pub fn tile_of(&self, lon: f64, lat: f64) -> usize {
        let tx = Self::axis_index(self.bounds.min_lon, self.lon_width(), self.dim_lon, lon);
        let ty = Self::axis_index(self.bounds.min_lat, self.lat_height(), self.dim_lat, lat);
        ty * self.dim_lon as usize + tx
    }

    /// The inclusive tile rectangle `(tx0, tx1, ty0, ty1)` a query window
    /// overlaps, or `None` when the window is empty or entirely outside the
    /// rows' reach.
    pub fn tile_span(&self, w: &QueryWindow) -> Option<(usize, usize, usize, usize)> {
        if w.lon.0 > w.lon.1 || w.lat.0 > w.lat.1 {
            return None;
        }
        if w.lon.1 < self.reach.min_lon || w.lon.0 > self.reach.max_lon {
            return None;
        }
        if w.lat.1 < self.reach.min_lat || w.lat.0 > self.reach.max_lat {
            return None;
        }
        let lw = self.lon_width();
        let lh = self.lat_height();
        Some((
            Self::axis_index(self.bounds.min_lon, lw, self.dim_lon, w.lon.0),
            Self::axis_index(self.bounds.min_lon, lw, self.dim_lon, w.lon.1),
            Self::axis_index(self.bounds.min_lat, lh, self.dim_lat, w.lat.0),
            Self::axis_index(self.bounds.min_lat, lh, self.dim_lat, w.lat.1),
        ))
    }
}

/// Interleaves the low 16 bits of `v` with zeroes (Morton spread).
fn spread_bits(v: u32) -> u64 {
    let mut x = v as u64 & 0xFFFF;
    x = (x | (x << 8)) & 0x00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333;
    x = (x | (x << 1)) & 0x5555_5555;
    x
}

/// Z-order (Morton) code of tile `(tx, ty)`: bit-interleaved coordinates, so
/// consecutive codes are spatially adjacent at every power-of-two scale.
fn morton(tx: u32, ty: u32) -> u64 {
    spread_bits(tx) | (spread_bits(ty) << 1)
}

/// Tile ids in Z-order-curve order.
fn curve_order(dim_lon: u32, dim_lat: u32) -> Vec<usize> {
    let mut tiles: Vec<usize> = (0..dim_lon as usize * dim_lat as usize).collect();
    tiles.sort_by_key(|&t| {
        let tx = (t % dim_lon as usize) as u32;
        let ty = (t / dim_lon as usize) as u32;
        morton(tx, ty)
    });
    tiles
}

/// Walks the curve assigning contiguous runs to shards, cutting whenever the
/// cumulative row count passes the next `total·(s+1)/n` quota — greedy
/// row-count balancing with spatial locality from the curve.
fn assign_balanced(tile_rows: &[usize], curve: &[usize], shards: usize) -> Vec<usize> {
    let total: usize = tile_rows.iter().sum();
    let mut owner = vec![0usize; tile_rows.len()];
    let mut cum = 0usize;
    let mut shard = 0usize;
    for &tile in curve {
        owner[tile] = shard;
        cum += tile_rows[tile];
        // Integer-exact quota test: cum ≥ total·(shard+1)/shards.
        while shard + 1 < shards && cum * shards >= total * (shard + 1) && total > 0 {
            shard += 1;
        }
    }
    owner
}

/// How one logical table is laid out across the shards.
#[derive(Debug, Clone)]
pub(crate) struct TablePartition {
    /// Geo column the table is partitioned on; `None` for replicated tables.
    pub geo_attr: Option<usize>,
    /// The tile grid (meaningless for replicated tables).
    pub grid: TileGrid,
    /// Owning shard per tile; empty for replicated tables.
    pub owner: Vec<usize>,
    /// Rows per shard (for replicated tables: the single replica's count).
    pub shard_rows: Vec<usize>,
}

impl TablePartition {
    pub fn is_replicated(&self) -> bool {
        self.geo_attr.is_none()
    }

    /// A replicated layout: every shard holds the full table.
    pub fn replicated(rows: usize, shards: usize) -> Self {
        Self {
            geo_attr: None,
            grid: TileGrid::new(GeoRect::new(0.0, 0.0, 0.0, 0.0), 1, 1),
            owner: Vec::new(),
            shard_rows: vec![rows; shards],
        }
    }

    /// Partitions `table` on geo column `attr` over `shards` shards on a
    /// `grid_dim × grid_dim` grid spanning the finite `bounds`, returning the
    /// layout plus the per-shard row assignment (in storage order, ready for
    /// [`Table::subset`]).
    pub fn partitioned(
        table: &Table,
        attr: usize,
        bounds: GeoRect,
        shards: usize,
        grid_dim: u32,
    ) -> Result<(Self, Vec<Vec<RecordId>>)> {
        let bounds = if bounds.is_empty() {
            GeoRect::new(0.0, 0.0, 0.0, 0.0)
        } else {
            bounds
        };
        let mut grid = TileGrid::new(bounds, grid_dim, grid_dim);
        let mut tile_rows = vec![0usize; grid.tile_count()];
        let mut row_tile: Vec<u32> = Vec::with_capacity(table.row_count());
        for rid in 0..table.row_count() as RecordId {
            let p = table.geo(attr, rid)?;
            let tile = grid.tile_of(p.lon, p.lat);
            tile_rows[tile] += 1;
            row_tile.push(tile as u32);
            grid.reach.extend(&p);
        }
        let owner = assign_balanced(&tile_rows, &curve_order(grid.dim_lon, grid.dim_lat), shards);
        let mut assignment: Vec<Vec<RecordId>> = vec![Vec::new(); shards];
        for (rid, &tile) in row_tile.iter().enumerate() {
            assignment[owner[tile as usize]].push(rid as RecordId);
        }
        let part = Self {
            geo_attr: Some(attr),
            grid,
            owner,
            shard_rows: assignment.iter().map(Vec::len).collect(),
        };
        Ok((part, assignment))
    }

    /// The shards owning at least one tile the query window overlaps, in
    /// ascending order. Empty when the window misses the data entirely.
    pub fn overlapping_shards(&self, w: &QueryWindow, shards: usize) -> Vec<usize> {
        let Some((tx0, tx1, ty0, ty1)) = self.grid.tile_span(w) else {
            return Vec::new();
        };
        let mut hit = vec![false; shards];
        for ty in ty0..=ty1 {
            for tx in tx0..=tx1 {
                hit[self.owner[ty * self.grid.dim_lon as usize + tx]] = true;
            }
        }
        (0..shards).filter(|&s| hit[s]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morton_interleaves_bits() {
        assert_eq!(morton(0, 0), 0);
        assert_eq!(morton(1, 0), 1);
        assert_eq!(morton(0, 1), 2);
        assert_eq!(morton(1, 1), 3);
        assert_eq!(morton(2, 0), 4);
        assert_eq!(morton(0b1111, 0), 0b01010101);
        assert_eq!(morton(0, 0b1111), 0b10101010);
    }

    #[test]
    fn curve_order_visits_every_tile_once() {
        let order = curve_order(8, 8);
        let mut seen = [false; 64];
        for &t in &order {
            assert!(!seen[t], "tile {t} visited twice");
            seen[t] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn balanced_assignment_is_contiguous_on_the_curve_and_balanced() {
        // A heavily skewed row distribution: one hot corner.
        let dim = 8u32;
        let mut tile_rows = vec![1usize; 64];
        tile_rows[0] = 500;
        tile_rows[1] = 300;
        let curve = curve_order(dim, dim);
        let owner = assign_balanced(&tile_rows, &curve, 4);
        // Contiguity: along the curve, the owner is non-decreasing.
        let owners_on_curve: Vec<usize> = curve.iter().map(|&t| owner[t]).collect();
        assert!(owners_on_curve.windows(2).all(|w| w[0] <= w[1]));
        // Balance: no shard holds more than ~the hottest tile above its quota.
        let mut per_shard = [0usize; 4];
        for (t, &o) in owner.iter().enumerate() {
            per_shard[o] += tile_rows[t];
        }
        let total: usize = tile_rows.iter().sum();
        for (s, &rows) in per_shard.iter().enumerate() {
            assert!(
                rows <= total / 4 + 500,
                "shard {s} holds {rows} of {total} rows"
            );
        }
    }

    #[test]
    fn tile_span_clamps_and_rejects_disjoint_windows() {
        let grid = TileGrid::new(GeoRect::new(-120.0, 30.0, -80.0, 50.0), 4, 4);
        // Unconstrained window covers everything.
        assert_eq!(
            grid.tile_span(&QueryWindow::unconstrained()),
            Some((0, 3, 0, 3))
        );
        // A window at the exact max corner still hits the last tile.
        let mut w = QueryWindow::unconstrained();
        w.narrow(&GeoRect::new(-80.0, 50.0, -70.0, 60.0));
        assert_eq!(grid.tile_span(&w), Some((3, 3, 3, 3)));
        // Entirely outside.
        let mut w = QueryWindow::unconstrained();
        w.narrow(&GeoRect::new(-60.0, 30.0, -50.0, 40.0));
        assert_eq!(grid.tile_span(&w), None);
        // Contradictory (empty) windows.
        let mut w = QueryWindow::unconstrained();
        w.narrow(&GeoRect::new(-119.0, 31.0, -118.0, 32.0));
        w.narrow(&GeoRect::new(-90.0, 31.0, -89.0, 32.0));
        assert_eq!(grid.tile_span(&w), None);
    }

    #[test]
    fn rows_at_the_extent_edges_stay_in_the_grid() {
        let grid = TileGrid::new(GeoRect::new(-120.0, 30.0, -80.0, 50.0), 7, 3);
        assert_eq!(grid.tile_of(-120.0, 30.0), 0);
        let last = grid.tile_of(-80.0, 50.0);
        assert_eq!(last, grid.tile_count() - 1);
        // The tile a max-coordinate row lands in is the tile a window starting
        // there routes to (no ulp gap between assignment and routing).
        let mut w = QueryWindow::unconstrained();
        w.narrow(&GeoRect::new(-80.0, 50.0, -75.0, 55.0));
        let (tx0, tx1, ty0, ty1) = grid.tile_span(&w).unwrap();
        assert_eq!(
            (tx0, tx1, ty0, ty1),
            (
                grid.dim_lon as usize - 1,
                grid.dim_lon as usize - 1,
                grid.dim_lat as usize - 1,
                grid.dim_lat as usize - 1
            )
        );
    }
}
