//! An STR (Sort-Tile-Recursive) bulk-loaded R-tree over geographic points.
//!
//! The R-tree answers spatial range predicates (`Location in <rect>`) and supports an
//! exact `range_count` that prunes fully-contained subtrees using per-node counts, so
//! the oracle selectivity collector does not have to enumerate matches.

use serde::{Deserialize, Serialize};

use crate::bitmap::SelectionBitmap;
use crate::index::{ScanStats, SecondaryIndex};
use crate::types::{GeoPoint, GeoRect, RecordId};

/// Maximum entries per node.
const NODE_CAPACITY: usize = 32;

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Node {
    mbr: GeoRect,
    /// Total number of points stored in this subtree.
    count: usize,
    kind: NodeKind,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum NodeKind {
    Leaf {
        points: Vec<GeoPoint>,
        rids: Vec<RecordId>,
    },
    Internal {
        children: Vec<Node>,
    },
}

/// A static, bulk-loaded R-tree over `(point, record id)` pairs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RTree {
    root: Option<Node>,
    /// Ids of the entries [`RTree::build`] left out of the tree for a NaN
    /// coordinate: in no rectangle, so in every complement.
    unplaced: Vec<RecordId>,
    len: usize,
}

impl RTree {
    /// Bulk-loads an R-tree with Sort-Tile-Recursive packing.
    ///
    /// A point with a NaN coordinate lies in no rectangle, and
    /// [`GeoRect::extend`] skips NaN, so a leaf holding one would get an MBR
    /// that leaves it out and every contained-node shortcut would hand out
    /// its id. Such points are left out of the tree and only their ids kept;
    /// `len` stays the entry count, so the scans' bitmaps still span every
    /// row.
    pub fn build(entries: Vec<(GeoPoint, RecordId)>) -> Self {
        let len = entries.len();
        let (placed, unplaced): (Vec<_>, Vec<_>) = entries
            .into_iter()
            .partition(|(p, _)| !p.lon.is_nan() && !p.lat.is_nan());
        Self {
            root: Self::pack_upwards(Self::pack_leaves(placed)),
            unplaced: unplaced.into_iter().map(|(_, rid)| rid).collect(),
            len,
        }
    }

    fn pack_leaves(mut entries: Vec<(GeoPoint, RecordId)>) -> Vec<Node> {
        // STR: sort by longitude, slice into vertical strips, sort each strip by
        // latitude, and cut into nodes of NODE_CAPACITY points.
        let n = entries.len();
        let leaf_count = n.div_ceil(NODE_CAPACITY);
        let strip_count = (leaf_count as f64).sqrt().ceil() as usize;
        let per_strip = n.div_ceil(strip_count.max(1));
        entries.sort_by(|a, b| {
            a.0.lon
                .partial_cmp(&b.0.lon)
                .unwrap_or(std::cmp::Ordering::Equal)
        });

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
        let mut stats = ScanStats::default();
        if let Some(root) = &self.root {
            Self::scan_node(root, rect, &mut out, &mut stats);
        }
        out.sort_unstable();
        stats.matches = out.len();
        (out, stats)
    }

    fn scan_node(node: &Node, rect: &GeoRect, out: &mut Vec<RecordId>, stats: &mut ScanStats) {
        if !node.mbr.intersects(rect) {
            return;
        }
        stats.nodes_visited += 1;
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
                        stats.nodes_visited += 1;
                        Self::collect_all(child, out);
                    } else {
                        Self::scan_node(child, rect, out, stats);
                    }
                }
            }
        }
    }

    /// [`RTree::range_scan`] emitting a [`SelectionBitmap`]: identical
    /// traversal and [`ScanStats`], but matches are set as bits as they stream
    /// out in *space* order instead of being collected and sorted into id
    /// order afterwards.
    pub fn range_scan_bitmap(&self, rect: &GeoRect) -> (SelectionBitmap, ScanStats) {
        let mut stats = ScanStats::default();
        // Record ids are row indices below the entry count, so the word array
        // is sized once up front — no growth during the traversal.
        let mut bits = SelectionBitmap::new(self.len);
        let mut matches = 0usize;
        if let Some(root) = &self.root {
            Self::scan_node_bitmap(root, rect, &mut bits, &mut matches, &mut stats);
        }
        stats.matches = matches;
        (bits, stats)
    }

    fn scan_node_bitmap(
        node: &Node,
        rect: &GeoRect,
        bits: &mut SelectionBitmap,
        matches: &mut usize,
        stats: &mut ScanStats,
    ) {
        if !node.mbr.intersects(rect) {
            return;
        }
        stats.nodes_visited += 1;
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
                        stats.nodes_visited += 1;
                        Self::collect_all_bitmap(child, bits, matches);
                    } else {
                        Self::scan_node_bitmap(child, rect, bits, matches, stats);
                    }
                }
            }
        }
    }

    /// The record ids of every entry *outside* `rect`, as a bitmap over
    /// `0..len`: exactly the rows [`RTree::range_scan_bitmap`] leaves out.
    /// Subtrees disjoint from `rect` are emitted whole, contained ones are
    /// skipped and boundary leaves test their points one by one; the entries
    /// [`RTree::build`] left out for a NaN coordinate lie in no rectangle and
    /// are always emitted. Cheaper than the scan when most points lie inside.
    pub(crate) fn complement_scan_bitmap(&self, rect: &GeoRect) -> SelectionBitmap {
        let mut bits = SelectionBitmap::new(self.len);
        for &rid in &self.unplaced {
            bits.insert(rid);
        }
        if let Some(root) = &self.root {
            Self::complement_node(root, rect, &mut bits);
        }
        bits
    }

    fn complement_node(node: &Node, rect: &GeoRect, bits: &mut SelectionBitmap) {
        if !node.mbr.intersects(rect) {
            return Self::collect_all_bitmap(node, bits, &mut 0);
        }
        if rect.contains_rect(&node.mbr) {
            return;
        }
        match &node.kind {
            NodeKind::Leaf { points, rids } => {
                for (p, &rid) in points.iter().zip(rids) {
                    if !rect.contains(p) {
                        bits.insert(rid);
                    }
                }
            }
            NodeKind::Internal { children } => {
                for child in children {
                    Self::complement_node(child, rect, bits);
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
        self.root.as_ref().map(node_bytes).unwrap_or(0) + self.unplaced.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_tree(side: u32) -> RTree {
        // Points on an integer grid: (i, j) with rid = i * side + j.
        let mut entries = Vec::new();
        for i in 0..side {
            for j in 0..side {
                entries.push((GeoPoint::new(i as f64, j as f64), i * side + j));
            }
        }
        RTree::build(entries)
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
    fn scan_stats_reports_visits() {
        let t = grid_tree(40);
        let (_, stats) = t.range_scan(&GeoRect::new(0.0, 0.0, 5.0, 5.0));
        assert!(stats.nodes_visited > 0);
        assert_eq!(stats.matches, 36);
    }

    #[test]
    fn bitmap_scan_matches_vector_scan() {
        let t = grid_tree(30);
        for (a, b, c, d) in [
            (0.5, 0.5, 3.5, 3.5),
            (-2.0, -2.0, 40.0, 40.0),
            (100.0, 100.0, 110.0, 110.0),
            (5.0, 5.0, 25.0, 6.0),
        ] {
            let rect = GeoRect::new(a, b, c, d);
            let (rids, stats) = t.range_scan(&rect);
            let (bm, bm_stats) = t.range_scan_bitmap(&rect);
            assert_eq!(bm.to_vec(), rids);
            assert_eq!(bm_stats, stats);
        }
    }

    #[test]
    fn complement_of_an_empty_or_unplaced_tree() {
        let rect = GeoRect::new(-1.0, -1.0, 1.0, 1.0);
        assert!(RTree::build(vec![])
            .complement_scan_bitmap(&rect)
            .is_empty());
        let nan = vec![
            (GeoPoint::new(f64::NAN, 0.0), 0),
            (GeoPoint::new(0.0, f64::NAN), 1),
        ];
        let t = RTree::build(nan);
        assert_eq!(t.range_count(&rect), 0);
        assert_eq!(t.complement_scan_bitmap(&rect).to_vec(), vec![0, 1]);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Coordinate draw `v` of `0..23`: an integer in `-10..10` (so points
        /// land exactly on rectangle edges), or NaN, `+∞`, `−∞`.
        fn coord(v: u8) -> f64 {
            match v {
                20 => f64::NAN,
                21 => f64::INFINITY,
                22 => f64::NEG_INFINITY,
                _ => f64::from(v) - 10.0,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The complement walk emits exactly the rows outside the
            /// rectangle: disjoint from the scan, together all of `0..len`,
            /// `len − range_count` of them, NaN points always among them —
            /// over empty and two-level trees, ±∞ points, points on an edge,
            /// and zero-area, inverted and NaN-bound rectangles.
            #[test]
            fn complement_is_the_scan_inverted(
                pts in proptest::collection::vec((0u8..23, 0u8..23), 0..1500),
                lon in (0u8..23, 0u8..23),
                lat in (0u8..23, 0u8..23),
            ) {
                let points: Vec<GeoPoint> =
                    pts.iter().map(|&(x, y)| GeoPoint::new(coord(x), coord(y))).collect();
                let entries = points.iter().zip(0..).map(|(&p, rid)| (p, rid)).collect();
                let tree = RTree::build(entries);
                // Built field by field, so the bounds may be inverted or NaN.
                let rect = GeoRect {
                    min_lon: coord(lon.0),
                    min_lat: coord(lat.0),
                    max_lon: coord(lon.1),
                    max_lat: coord(lat.1),
                };
                let inside = tree.range_scan_bitmap(&rect).0.to_vec();
                let outside = tree.complement_scan_bitmap(&rect).to_vec();
                let mut all = [inside.clone(), outside.clone()].concat();
                all.sort_unstable();
                prop_assert_eq!(all, (0..points.len() as RecordId).collect::<Vec<_>>());
                prop_assert_eq!(outside.len(), points.len() - tree.range_count(&rect));
                let expected: Vec<RecordId> = (0..)
                    .zip(&points)
                    .filter(|(_, p)| !rect.contains(p))
                    .map(|(rid, _)| rid)
                    .collect();
                prop_assert_eq!(&outside, &expected);
                for (rid, p) in (0..).zip(&points) {
                    if p.lon.is_nan() || p.lat.is_nan() {
                        prop_assert!(outside.contains(&rid));
                    }
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
                let entries: Vec<(GeoPoint, RecordId)> = pts
                    .iter()
                    .enumerate()
                    .map(|(i, &(x, y))| (GeoPoint::new(x, y), i as RecordId))
                    .collect();
                let tree = RTree::build(entries);
                let rect = GeoRect::new(qx, qy, qx + w, qy + h);
                let (rids, stats) = tree.range_scan(&rect);
                let (bm, bm_stats) = tree.range_scan_bitmap(&rect);
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
