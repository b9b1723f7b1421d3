//! An STR (Sort-Tile-Recursive) bulk-loaded R-tree over geographic points.
//!
//! The R-tree answers spatial range predicates (`Location in <rect>`) and supports an
//! exact `range_count` that prunes fully-contained subtrees using per-node counts, so
//! the oracle selectivity collector does not have to enumerate matches.
//!
//! A tree of at least 4,096 placed points also keeps their record ids in
//! longitude order and in latitude order, each with [`PrefixBitmaps`]. A
//! rectangle is the intersection of its longitude slab and its latitude slab,
//! so [`RTree::range_scan_bitmap`] binary-searches each slab's rank interval
//! (reading coordinates from the indexed column, not from key copies) and
//! ANDs the two checkpoint differences when both slabs hold at least
//! `⌈m/32⌉` points; otherwise it walks the tree.

use std::ops::Range;

use crate::bitmap::SelectionBitmap;
use crate::index::prefix::{PrefixBitmaps, Span};
use crate::index::{ScanStats, SecondaryIndex};
use crate::types::{GeoPoint, GeoRect, RecordId};

/// Maximum entries per node.
const NODE_CAPACITY: usize = 32;

#[derive(Debug, Clone)]
struct Node {
    mbr: GeoRect,
    /// Total number of points stored in this subtree.
    count: usize,
    kind: NodeKind,
}

#[derive(Debug, Clone)]
enum NodeKind {
    Leaf {
        points: Vec<GeoPoint>,
        rids: Vec<RecordId>,
    },
    Internal {
        children: Vec<Node>,
    },
}

/// The placed points' record ids sorted by one coordinate, with prefix
/// checkpoints over that order.
#[derive(Debug, Clone)]
struct Axis {
    ids: Vec<RecordId>,
    prefixes: PrefixBitmaps,
}

impl Axis {
    /// `None` for fewer ids than [`PrefixBitmaps`] keeps checkpoints for.
    fn build(ids: Vec<RecordId>, universe: usize) -> Option<Self> {
        let prefixes = PrefixBitmaps::build(ids.iter().copied(), universe)?;
        Some(Self { ids, prefixes })
    }

    /// The rank interval of the points whose `coord` lies in `[lo, hi]`,
    /// by binary search with IEEE `<` / `<=` over coordinates read from
    /// `points`: empty for a NaN or inverted bound pair, as
    /// [`GeoRect::contains`] holds no point then.
    fn slab(
        &self,
        points: &[GeoPoint],
        coord: fn(&GeoPoint) -> f64,
        lo: f64,
        hi: f64,
    ) -> Range<usize> {
        if lo.is_nan() || hi.is_nan() {
            return 0..0;
        }
        let key = |rid: &RecordId| points.get(*rid as usize).map_or(f64::NAN, coord);
        let from = self.ids.partition_point(|rid| key(rid) < lo);
        let to = self.ids.partition_point(|rid| key(rid) <= hi);
        from..to.max(from)
    }

    /// The span of the ranks `ranks` over the checkpoints.
    fn span(&self, ranks: Range<usize>) -> Span<'_> {
        self.prefixes.span(ranks, &self.ids)
    }
}

/// A static, bulk-loaded R-tree over `(point, record id)` pairs.
#[derive(Debug, Clone)]
pub struct RTree {
    root: Option<Node>,
    /// The placed points by longitude and by latitude (`None` under 4,096).
    axes: Option<[Axis; 2]>,
    len: usize,
}

impl RTree {
    /// Bulk-loads an R-tree with Sort-Tile-Recursive packing.
    ///
    /// A point with a NaN coordinate lies in no rectangle, and
    /// [`GeoRect::extend`] skips NaN, so a leaf holding one would get an MBR
    /// that leaves it out and every contained-node shortcut would hand out
    /// its id. Such points are left out of the tree and of both axes; `len`
    /// stays the entry count, so the scans' bitmaps still span every row.
    pub fn build(entries: Vec<(GeoPoint, RecordId)>) -> Self {
        let len = entries.len();
        let mut placed: Vec<_> = entries
            .into_iter()
            .filter(|(p, _)| !p.lon.is_nan() && !p.lat.is_nan())
            .collect();
        // STR's first pass, which is also the longitude axis's order.
        placed.sort_by(|a, b| {
            a.0.lon
                .partial_cmp(&b.0.lon)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let axes = Self::axes(&placed, len);
        Self {
            root: Self::pack_upwards(Self::pack_leaves(placed)),
            axes,
            len,
        }
    }

    /// The two axes over `by_lon`, the placed points in longitude order.
    fn axes(by_lon: &[(GeoPoint, RecordId)], universe: usize) -> Option<[Axis; 2]> {
        let lon = Axis::build(by_lon.iter().map(|e| e.1).collect(), universe)?;
        let mut by_lat: Vec<(f64, RecordId)> =
            by_lon.iter().map(|(p, rid)| (p.lat, *rid)).collect();
        by_lat.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let lat = Axis::build(by_lat.into_iter().map(|e| e.1).collect(), universe)?;
        Some([lon, lat])
    }

    /// STR over `entries` sorted by longitude: slice them into vertical
    /// strips, sort each strip by latitude, and cut into nodes of
    /// NODE_CAPACITY points.
    fn pack_leaves(mut entries: Vec<(GeoPoint, RecordId)>) -> Vec<Node> {
        let n = entries.len();
        let leaf_count = n.div_ceil(NODE_CAPACITY);
        let strip_count = (leaf_count as f64).sqrt().ceil() as usize;
        let per_strip = n.div_ceil(strip_count.max(1));

        let mut leaves = Vec::with_capacity(leaf_count);
        for strip in entries.chunks_mut(per_strip.max(1)) {
            strip.sort_by(|a, b| {
                a.0.lat
                    .partial_cmp(&b.0.lat)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            for chunk in strip.chunks(NODE_CAPACITY) {
                let mut mbr = GeoRect::empty();
                let mut points = Vec::with_capacity(chunk.len());
                let mut rids = Vec::with_capacity(chunk.len());
                for (p, rid) in chunk {
                    mbr.extend(p);
                    points.push(*p);
                    rids.push(*rid);
                }
                leaves.push(Node {
                    mbr,
                    count: chunk.len(),
                    kind: NodeKind::Leaf { points, rids },
                });
            }
        }
        leaves
    }

    /// Packs `level` upwards into one root (`None` for no leaves).
    fn pack_upwards(mut level: Vec<Node>) -> Option<Node> {
        while level.len() > 1 {
            // Sort nodes by MBR centre longitude before grouping (keeps siblings local).
            level.sort_by(|a, b| {
                let ca = (a.mbr.min_lon + a.mbr.max_lon) * 0.5;
                let cb = (b.mbr.min_lon + b.mbr.max_lon) * 0.5;
                ca.partial_cmp(&cb).unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut next = Vec::with_capacity(level.len().div_ceil(NODE_CAPACITY));
            let mut iter = level.into_iter().peekable();
            while iter.peek().is_some() {
                let children: Vec<Node> = iter.by_ref().take(NODE_CAPACITY).collect();
                let mut mbr = GeoRect::empty();
                let mut count = 0;
                for c in &children {
                    mbr = mbr.union(&c.mbr);
                    count += c.count;
                }
                next.push(Node {
                    mbr,
                    count,
                    kind: NodeKind::Internal { children },
                });
            }
            level = next;
        }
        level.pop()
    }

    /// Minimum bounding rectangle of all indexed points (empty rect when empty).
    pub fn bounds(&self) -> GeoRect {
        self.root
            .as_ref()
            .map(|r| r.mbr)
            .unwrap_or_else(GeoRect::empty)
    }

    /// Record ids of all points inside `rect`, sorted ascending, plus scan statistics.
    pub fn range_scan(&self, rect: &GeoRect) -> (Vec<RecordId>, ScanStats) {
        let mut out = Vec::new();
        if let Some(root) = &self.root {
            Self::scan_node(root, rect, &mut out);
        }
        out.sort_unstable();
        let matches = out.len();
        (out, ScanStats { matches })
    }

    fn scan_node(node: &Node, rect: &GeoRect, out: &mut Vec<RecordId>) {
        if !node.mbr.intersects(rect) {
            return;
        }
        match &node.kind {
            NodeKind::Leaf { points, rids } => {
                if rect.contains_rect(&node.mbr) {
                    out.extend_from_slice(rids);
                } else {
                    for (p, rid) in points.iter().zip(rids.iter()) {
                        if rect.contains(p) {
                            out.push(*rid);
                        }
                    }
                }
            }
            NodeKind::Internal { children } => {
                for child in children {
                    if rect.contains_rect(&child.mbr) {
                        Self::collect_all(child, out);
                    } else {
                        Self::scan_node(child, rect, out);
                    }
                }
            }
        }
    }

    /// [`RTree::range_scan`] emitting a [`SelectionBitmap`], with the same
    /// [`ScanStats`]. `points` is the indexed column, the point of record id
    /// `r` at `points[r]`. When both of the rectangle's slabs hold at least
    /// `⌈m/32⌉` points, the result is their checkpoint bitmaps ANDed;
    /// otherwise the tree walk sets bits as matches stream out in *space*
    /// order rather than sorting them into id order.
    pub fn range_scan_bitmap(
        &self,
        rect: &GeoRect,
        points: &[GeoPoint],
    ) -> (SelectionBitmap, ScanStats) {
        if let Some(bits) = self.slab_scan(rect, points) {
            let matches = bits.len();
            return (bits, ScanStats { matches });
        }
        // Record ids are row indices below the entry count, so the word array
        // is sized once up front — no growth during the traversal.
        let mut bits = SelectionBitmap::new(self.len);
        let mut matches = 0usize;
        if let Some(root) = &self.root {
            Self::scan_node_bitmap(root, rect, &mut bits, &mut matches);
        }
        (bits, ScanStats { matches })
    }

    /// The rectangle's longitude slab ANDed with its latitude slab, or
    /// `None` — the caller walks the tree — when [`RTree::slab_spans`] finds
    /// no pair of wide slabs.
    fn slab_scan(&self, rect: &GeoRect, points: &[GeoPoint]) -> Option<SelectionBitmap> {
        let [lon, lat] = self.slab_spans(rect, points)?;
        let mut bits = lon.bitmap();
        lat.and_into(&mut bits);
        Some(bits)
    }

    /// The checkpoint spans of the rectangle's longitude and latitude slabs
    /// — what [`RTree::range_scan_bitmap`] ANDs a wide rectangle from — or
    /// `None` when the tree keeps no axes, `points` does not span its rows,
    /// or either slab is narrower than `⌈m/32⌉` points. Four binary searches
    /// over the axes, each reading coordinates from `points`.
    pub(crate) fn slab_spans(&self, rect: &GeoRect, points: &[GeoPoint]) -> Option<[Span<'_>; 2]> {
        let [lon, lat] = self.axes.as_ref()?;
        if points.len() != self.len {
            return None;
        }
        let lons = lon.slab(points, |p| p.lon, rect.min_lon, rect.max_lon);
        let lats = lat.slab(points, |p| p.lat, rect.min_lat, rect.max_lat);
        if !(lon.prefixes.covers(&lons) && lat.prefixes.covers(&lats)) {
            return None;
        }
        Some([lon.span(lons), lat.span(lats)])
    }

    /// How many placed points each axis's prefix checkpoints are laid over,
    /// `None` when the tree keeps no axes.
    pub(crate) fn checkpointed_len(&self) -> Option<usize> {
        self.axes.as_ref().map(|[lon, _]| lon.prefixes.len())
    }

    fn scan_node_bitmap(
        node: &Node,
        rect: &GeoRect,
        bits: &mut SelectionBitmap,
        matches: &mut usize,
    ) {
        if !node.mbr.intersects(rect) {
            return;
        }
        match &node.kind {
            NodeKind::Leaf { points, rids } => {
                if rect.contains_rect(&node.mbr) {
                    for &rid in rids {
                        bits.insert(rid);
                    }
                    *matches += rids.len();
                } else {
                    for (p, rid) in points.iter().zip(rids.iter()) {
                        if rect.contains(p) {
                            bits.insert(*rid);
                            *matches += 1;
                        }
                    }
                }
            }
            NodeKind::Internal { children } => {
                for child in children {
                    if rect.contains_rect(&child.mbr) {
                        Self::collect_all_bitmap(child, bits, matches);
                    } else {
                        Self::scan_node_bitmap(child, rect, bits, matches);
                    }
                }
            }
        }
    }

    fn collect_all_bitmap(node: &Node, bits: &mut SelectionBitmap, matches: &mut usize) {
        match &node.kind {
            NodeKind::Leaf { rids, .. } => {
                for &rid in rids {
                    bits.insert(rid);
                }
                *matches += rids.len();
            }
            NodeKind::Internal { children } => {
                for child in children {
                    Self::collect_all_bitmap(child, bits, matches);
                }
            }
        }
    }

    fn collect_all(node: &Node, out: &mut Vec<RecordId>) {
        match &node.kind {
            NodeKind::Leaf { rids, .. } => out.extend_from_slice(rids),
            NodeKind::Internal { children } => {
                for child in children {
                    Self::collect_all(child, out);
                }
            }
        }
    }

    /// Exact number of indexed points inside `rect`, pruning contained / disjoint
    /// subtrees via node counts and MBRs.
    pub fn range_count(&self, rect: &GeoRect) -> usize {
        match &self.root {
            Some(root) => Self::count_node(root, rect),
            None => 0,
        }
    }

    fn count_node(node: &Node, rect: &GeoRect) -> usize {
        if !node.mbr.intersects(rect) {
            return 0;
        }
        if rect.contains_rect(&node.mbr) {
            return node.count;
        }
        match &node.kind {
            NodeKind::Leaf { points, .. } => points.iter().filter(|p| rect.contains(p)).count(),
            NodeKind::Internal { children } => {
                children.iter().map(|c| Self::count_node(c, rect)).sum()
            }
        }
    }
}

impl SecondaryIndex for RTree {
    fn len(&self) -> usize {
        self.len
    }

    fn memory_bytes(&self) -> usize {
        fn node_bytes(node: &Node) -> usize {
            let own = std::mem::size_of::<GeoRect>() + 8;
            own + match &node.kind {
                NodeKind::Leaf { points, rids } => points.len() * 16 + rids.len() * 4,
                NodeKind::Internal { children } => children.iter().map(node_bytes).sum(),
            }
        }
        let axis_bytes = |axis: &Axis| axis.ids.len() * 4 + axis.prefixes.memory_bytes();
        let axes_bytes = self.axes.iter().flatten().map(axis_bytes).sum::<usize>();
        self.root.as_ref().map(node_bytes).unwrap_or(0) + axes_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Points on an integer grid: `(i, j)` at record id `i * side + j`.
    fn grid(side: u32) -> Vec<GeoPoint> {
        (0..side)
            .flat_map(|i| (0..side).map(move |j| GeoPoint::new(i as f64, j as f64)))
            .collect()
    }

    /// The tree over `points`, point `r` at record id `r`.
    fn tree_of(points: &[GeoPoint]) -> RTree {
        RTree::build(points.iter().zip(0..).map(|(&p, rid)| (p, rid)).collect())
    }

    fn grid_tree(side: u32) -> RTree {
        tree_of(&grid(side))
    }

    #[test]
    fn empty_tree() {
        let t = RTree::build(vec![]);
        assert_eq!(t.len(), 0);
        assert_eq!(t.range_count(&GeoRect::new(-1.0, -1.0, 1.0, 1.0)), 0);
        assert!(t
            .range_scan(&GeoRect::new(-1.0, -1.0, 1.0, 1.0))
            .0
            .is_empty());
        assert!(t.bounds().is_empty());
    }

    #[test]
    fn full_coverage_returns_everything() {
        let t = grid_tree(20);
        let all = GeoRect::new(-1.0, -1.0, 25.0, 25.0);
        assert_eq!(t.range_count(&all), 400);
        let (rids, _) = t.range_scan(&all);
        assert_eq!(rids.len(), 400);
        assert!(rids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn partial_rect_counts_grid_cells() {
        let t = grid_tree(20);
        // Rectangle [3, 7] x [5, 9] covers 5 x 5 = 25 grid points.
        let rect = GeoRect::new(3.0, 5.0, 7.0, 9.0);
        assert_eq!(t.range_count(&rect), 25);
        assert_eq!(t.range_scan(&rect).0.len(), 25);
    }

    #[test]
    fn disjoint_rect_is_empty() {
        let t = grid_tree(10);
        let rect = GeoRect::new(100.0, 100.0, 110.0, 110.0);
        assert_eq!(t.range_count(&rect), 0);
    }

    #[test]
    fn bounds_cover_all_points() {
        let t = grid_tree(10);
        let b = t.bounds();
        assert_eq!(b.min_lon, 0.0);
        assert_eq!(b.max_lat, 9.0);
    }

    #[test]
    fn scan_and_count_agree_on_random_rects() {
        let t = grid_tree(30);
        for (a, b, c, d) in [
            (0.5, 0.5, 3.5, 3.5),
            (-2.0, 10.0, 12.0, 11.0),
            (29.0, 29.0, 29.0, 29.0),
            (5.0, 5.0, 25.0, 6.0),
        ] {
            let rect = GeoRect::new(a, b, c, d);
            assert_eq!(t.range_count(&rect), t.range_scan(&rect).0.len());
        }
    }

    #[test]
    fn duplicate_points_all_counted() {
        let entries: Vec<(GeoPoint, RecordId)> =
            (0..500).map(|i| (GeoPoint::new(1.0, 1.0), i)).collect();
        let t = RTree::build(entries);
        let rect = GeoRect::new(0.0, 0.0, 2.0, 2.0);
        assert_eq!(t.range_count(&rect), 500);
    }

    #[test]
    fn scan_stats_report_matches() {
        let t = grid_tree(40);
        let (_, stats) = t.range_scan(&GeoRect::new(0.0, 0.0, 5.0, 5.0));
        assert_eq!(stats.matches, 36);
    }

    /// Over 4,900 points, a rectangle with two wide slabs is read from the
    /// checkpoints and the rest walk the tree; both give the scan's ids.
    #[test]
    fn bitmap_scan_matches_vector_scan() {
        let points = grid(70);
        let t = tree_of(&points);
        for (a, b, c, d, slabs) in [
            (0.5, 0.5, 3.5, 3.5, true),
            (-2.0, -2.0, 40.0, 40.0, true),
            (100.0, 100.0, 110.0, 110.0, false),
            (5.0, 5.0, 25.0, 6.0, false),
        ] {
            let rect = GeoRect::new(a, b, c, d);
            assert_eq!(t.slab_scan(&rect, &points).is_some(), slabs);
            let (rids, stats) = t.range_scan(&rect);
            let (bm, bm_stats) = t.range_scan_bitmap(&rect, &points);
            assert_eq!(bm.to_vec(), rids);
            assert_eq!(bm_stats, stats);
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Coordinate draw `code`: NaN, `−0.0`, `+∞` or `−∞` for four
        /// residues of 101, else an integer from `levels` values centred on
        /// 0 — few levels put runs of duplicates across checkpoints, many
        /// make ranks exact.
        fn coord(code: u16, levels: u16) -> f64 {
            match code % 101 {
                0 => f64::NAN,
                1 => -0.0,
                2 => f64::INFINITY,
                3 => f64::NEG_INFINITY,
                _ => f64::from(code % levels) - f64::from(levels / 2),
            }
        }

        /// One rectangle bound: NaN, `−∞`, `+∞`, `−0.0`, or the coordinate at
        /// rank `j·step + delta` of `sorted` plus a nudge of `−¼, 0, ¼, ½`, so
        /// slab bounds fall on, just before and just after checkpoints.
        fn bound(sorted: &[f64], (sel, j, delta): (u8, usize, isize)) -> f64 {
            let step = sorted.len().div_ceil(16).max(1);
            let rank = (j * step).saturating_add_signed(delta);
            let at = sorted.get(rank.min(sorted.len().saturating_sub(1)));
            match sel % 8 {
                0 => f64::NAN,
                1 => f64::NEG_INFINITY,
                2 => f64::INFINITY,
                3 => -0.0,
                s => at.copied().unwrap_or(0.0) + (f64::from(s) - 5.0) * 0.25,
            }
        }

        fn bound_spec() -> impl Strategy<Value = (u8, usize, isize)> {
            (0u8..16, 0usize..17, -2isize..3)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Over 4,300–6,000 points (three or more checkpoints, never a
            /// multiple of 16) with NaN in one or both coordinates, `±0.0`,
            /// `±∞` and duplicates: the bitmap scan — slabs from the
            /// checkpoints when both are wide, the tree walk otherwise — holds
            /// exactly the tree walk's ids and `range_count` of them, for
            /// rectangles bounded at checkpoint ranks, and whole-table,
            /// inverted and NaN-bound ones.
            #[test]
            fn checkpoint_scans_match_the_tree_walk(
                codes in proptest::collection::vec((0u16..=u16::MAX, 0u16..=u16::MAX), 4300..6000),
                levels in 0usize..3,
                specs in proptest::collection::vec(
                    ((bound_spec(), bound_spec()), (bound_spec(), bound_spec())), 10..11),
            ) {
                let mut codes = codes;
                if codes.len() % 16 == 0 {
                    codes.pop();
                }
                let levels = [7u16, 40, 65_000][levels];
                let points: Vec<GeoPoint> = codes
                    .iter()
                    .map(|&(x, y)| GeoPoint::new(coord(x, levels), coord(y, levels)))
                    .collect();
                let tree = tree_of(&points);
                let placed = points.iter().filter(|p| !p.lon.is_nan() && !p.lat.is_nan());
                let sorted = |coord: fn(&GeoPoint) -> f64| {
                    let mut v: Vec<f64> = placed.clone().map(coord).collect();
                    v.sort_unstable_by(f64::total_cmp);
                    v
                };
                let (lons, lats) = (sorted(|p| p.lon), sorted(|p| p.lat));
                let whole = GeoRect::new(f64::NEG_INFINITY, f64::NEG_INFINITY, f64::INFINITY, f64::INFINITY);
                prop_assert!(tree.slab_scan(&whole, &points).is_some());
                let mut rects = vec![
                    whole,
                    GeoRect { min_lon: 5.0, min_lat: f64::NEG_INFINITY, max_lon: -5.0, max_lat: f64::INFINITY },
                    GeoRect { min_lon: f64::NAN, ..whole },
                    GeoRect { max_lat: f64::NAN, ..whole },
                ];
                for ((a, b), (c, d)) in specs {
                    // Built field by field, so the bounds may be inverted or NaN.
                    rects.push(GeoRect {
                        min_lon: bound(&lons, a),
                        max_lon: bound(&lons, b),
                        min_lat: bound(&lats, c),
                        max_lat: bound(&lats, d),
                    });
                }
                for rect in &rects {
                    let (ids, _) = tree.range_scan(rect);
                    let (bits, stats) = tree.range_scan_bitmap(rect, &points);
                    let expected: Vec<RecordId> = (0..)
                        .zip(&points)
                        .filter(|(_, p)| rect.contains(p))
                        .map(|(rid, _)| rid)
                        .collect();
                    prop_assert_eq!(&ids, &expected);
                    prop_assert_eq!(bits.to_vec(), ids);
                    prop_assert_eq!(bits.len(), tree.range_count(rect));
                    prop_assert_eq!(stats.matches, bits.len());
                }
            }

            #[test]
            fn bitmap_scan_equals_vector_scan(
                pts in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 0..300),
                qx in -60.0f64..60.0,
                qy in -60.0f64..60.0,
                w in 0.0f64..40.0,
                h in 0.0f64..40.0,
            ) {
                let points: Vec<GeoPoint> = pts.iter().map(|&(x, y)| GeoPoint::new(x, y)).collect();
                let tree = tree_of(&points);
                let rect = GeoRect::new(qx, qy, qx + w, qy + h);
                let (rids, stats) = tree.range_scan(&rect);
                let (bm, bm_stats) = tree.range_scan_bitmap(&rect, &points);
                prop_assert_eq!(bm.to_vec(), rids);
                prop_assert_eq!(bm_stats, stats);
            }

            #[test]
            fn count_matches_bruteforce(
                pts in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 0..300),
                qx in -60.0f64..60.0,
                qy in -60.0f64..60.0,
                w in 0.0f64..40.0,
                h in 0.0f64..40.0,
            ) {
                let entries: Vec<(GeoPoint, RecordId)> = pts
                    .iter()
                    .enumerate()
                    .map(|(i, &(x, y))| (GeoPoint::new(x, y), i as RecordId))
                    .collect();
                let tree = RTree::build(entries);
                let rect = GeoRect::new(qx, qy, qx + w, qy + h);
                let expected = pts
                    .iter()
                    .filter(|&&(x, y)| rect.contains(&GeoPoint::new(x, y)))
                    .count();
                prop_assert_eq!(tree.range_count(&rect), expected);
                prop_assert_eq!(tree.range_scan(&rect).0.len(), expected);
            }
        }
    }
}
