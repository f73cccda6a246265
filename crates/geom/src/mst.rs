//! The Manhattan minimum spanning tree the routers split multi-pin nets by.

use crate::Point;

/// A minimum spanning tree of `points` under the Manhattan distance, grown
/// by Prim's algorithm from `points[0]`.
///
/// Returns `(parent, child)` index pairs into `points`, in the order the
/// children join the tree; fewer than two points give no edge.  Of equally
/// near outside points the lowest index joins next, and a point keeps as its
/// parent the first tree point found at its least distance.
///
/// # Examples
///
/// ```
/// use tpl_geom::{manhattan_mst, Point};
///
/// let pins = [Point::new(0, 0), Point::new(10, 0), Point::new(0, 3)];
/// assert_eq!(manhattan_mst(&pins), vec![(0, 2), (0, 1)]);
/// ```
pub fn manhattan_mst(points: &[Point]) -> Vec<(usize, usize)> {
    let n = points.len();
    if n < 2 {
        return Vec::new();
    }
    let mut in_tree = vec![false; n];
    let mut best: Vec<i64> = points.iter().map(|p| points[0].manhattan(p)).collect();
    let mut parent = vec![0usize; n];
    in_tree[0] = true;
    let mut edges = Vec::with_capacity(n - 1);
    for _ in 1..n {
        let mut pick = usize::MAX;
        let mut pick_d = i64::MAX;
        for i in 0..n {
            if !in_tree[i] && best[i] < pick_d {
                pick = i;
                pick_d = best[i];
            }
        }
        in_tree[pick] = true;
        edges.push((parent[pick], pick));
        for i in 0..n {
            if !in_tree[i] {
                let d = points[pick].manhattan(&points[i]);
                if d < best[i] {
                    best[i] = d;
                    parent[i] = pick;
                }
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    /// True when `edges` connect all `n` points.
    fn spans(n: usize, edges: &[(usize, usize)]) -> bool {
        let mut root: Vec<usize> = (0..n).collect();
        fn find(root: &mut [usize], x: usize) -> usize {
            if root[x] != x {
                root[x] = find(root, root[x]);
            }
            root[x]
        }
        for &(a, b) in edges {
            let (ra, rb) = (find(&mut root, a), find(&mut root, b));
            root[rb] = ra;
        }
        (0..n).all(|i| find(&mut root, i) == find(&mut root, 0))
    }

    #[test]
    fn the_tree_spans_every_point_with_one_edge_less() {
        for points in [
            vec![(0, 0), (5, 0), (5, 7), (1, 6), (9, 9)],
            vec![(0, 0), (100, 0), (0, 100), (100, 100)],
        ] {
            let points: Vec<Point> = points.into_iter().map(|(x, y)| Point::new(x, y)).collect();
            let mst = manhattan_mst(&points);
            assert_eq!(mst.len(), points.len() - 1);
            assert!(spans(points.len(), &mst), "{mst:?}");
        }
        assert!(manhattan_mst(&[]).is_empty());
        assert!(manhattan_mst(&[Point::new(3, 3)]).is_empty());
    }

    #[test]
    fn equal_distances_pick_the_lowest_index() {
        // Points 1, 2 and 3 are all 10 from point 0, and point 3 is also 10
        // from points 1 and 2.  The lowest index joins first, and every
        // later point keeps point 0, the first tree point at its distance,
        // as its parent.
        let points = [
            Point::new(0, 0),
            Point::new(10, 0),
            Point::new(0, 10),
            Point::new(5, 5),
        ];
        assert_eq!(manhattan_mst(&points), vec![(0, 1), (0, 2), (0, 3)]);
        // Permuted, the lowest index still joins first.
        let reversed = [points[0], points[3], points[2], points[1]];
        assert_eq!(manhattan_mst(&reversed), vec![(0, 1), (0, 2), (0, 3)]);
        // A nearer point joins first whatever its index, and becomes the
        // parent of the points it is nearer to.
        let points = [Point::new(0, 0), Point::new(20, 0), Point::new(10, 0)];
        assert_eq!(manhattan_mst(&points), vec![(0, 2), (2, 1)]);
    }
}
