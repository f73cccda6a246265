//! Uniform-bin spatial index.

use crate::{Dbu, Rect};

/// A uniform-grid spatial index over `(id, Rect)` pairs.
///
/// The index divides a bounding region into square bins of a configurable
/// size; each inserted rectangle is registered in every bin it touches.
/// Queries return candidate ids whose rectangles may intersect a search
/// window — the caller re-checks exact geometry.  This is the workhorse
/// behind colour-conflict detection and colour-cost lookups, where the
/// query window is the `Dcolor` halo around a wire.
///
/// # Examples
///
/// ```
/// use tpl_geom::{BinIndex, Rect};
/// let mut idx = BinIndex::new(Rect::from_coords(0, 0, 1000, 1000), 100);
/// idx.insert(7, Rect::from_coords(10, 10, 40, 20));
/// let hits = idx.query(&Rect::from_coords(0, 0, 50, 50));
/// assert_eq!(hits, vec![7]);
/// ```
#[derive(Clone, Debug)]
pub struct BinIndex {
    region: Rect,
    bin: Dbu,
    nx: usize,
    ny: usize,
    bins: Vec<Vec<(u64, Rect)>>,
    len: usize,
}

impl BinIndex {
    /// Creates an empty index covering `region` with bins of size `bin_size`.
    ///
    /// # Panics
    ///
    /// Panics if `bin_size <= 0` or the region is degenerate in both axes
    /// and has zero extent.
    pub fn new(region: Rect, bin_size: Dbu) -> Self {
        assert!(bin_size > 0, "bin size must be positive");
        let nx = ((region.width() / bin_size) + 1).max(1) as usize;
        let ny = ((region.height() / bin_size) + 1).max(1) as usize;
        Self {
            region,
            bin: bin_size,
            nx,
            ny,
            bins: vec![Vec::new(); nx * ny],
            len: 0,
        }
    }

    /// Number of inserted rectangles.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no rectangle has been inserted.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The region the index was built for.
    #[inline]
    pub fn region(&self) -> Rect {
        self.region
    }

    fn clamp_bin_range(&self, r: &Rect) -> (usize, usize, usize, usize) {
        let bx0 = ((r.lo.x - self.region.lo.x) / self.bin).max(0) as usize;
        let by0 = ((r.lo.y - self.region.lo.y) / self.bin).max(0) as usize;
        let bx1 = ((r.hi.x - self.region.lo.x) / self.bin).max(0) as usize;
        let by1 = ((r.hi.y - self.region.lo.y) / self.bin).max(0) as usize;
        (
            bx0.min(self.nx - 1),
            by0.min(self.ny - 1),
            bx1.min(self.nx - 1),
            by1.min(self.ny - 1),
        )
    }

    /// Inserts a rectangle under the given id.  Rectangles outside the index
    /// region are clamped to the boundary bins, so nothing is ever lost.
    pub fn insert(&mut self, id: u64, rect: Rect) {
        let (bx0, by0, bx1, by1) = self.clamp_bin_range(&rect);
        for by in by0..=by1 {
            for bx in bx0..=bx1 {
                self.bins[by * self.nx + bx].push((id, rect));
            }
        }
        self.len += 1;
    }

    /// Removes every entry with the given id and an identical rectangle.
    /// Returns `true` if at least one entry was removed.
    pub fn remove(&mut self, id: u64, rect: Rect) -> bool {
        let (bx0, by0, bx1, by1) = self.clamp_bin_range(&rect);
        let mut removed = false;
        for by in by0..=by1 {
            for bx in bx0..=bx1 {
                let bin = &mut self.bins[by * self.nx + bx];
                let before = bin.len();
                bin.retain(|(i, r)| !(*i == id && *r == rect));
                if bin.len() != before {
                    removed = true;
                }
            }
        }
        if removed {
            self.len = self.len.saturating_sub(1);
        }
        removed
    }

    /// Returns the sorted, deduplicated ids of all rectangles that intersect
    /// the query window.
    pub fn query(&self, window: &Rect) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .query_entries(window)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Calls `f(id, rect)` once for every entry that intersects the window,
    /// in bin order, without allocating.
    ///
    /// An entry stored in several bins is reported only from the first bin
    /// it shares with the window: in bin `(bx, by)` past the window's first
    /// column (row) it is skipped when it also reaches into the column (row)
    /// before, which the window covers too.  Callers whose results depend on
    /// visit order use the sorted [`query`](Self::query) instead.
    pub fn for_each_intersecting(&self, window: &Rect, mut f: impl FnMut(u64, &Rect)) {
        let (bx0, by0, bx1, by1) = self.clamp_bin_range(window);
        for by in by0..=by1 {
            let y_edge = self.region.lo.y + by as Dbu * self.bin;
            for bx in bx0..=bx1 {
                let x_edge = self.region.lo.x + bx as Dbu * self.bin;
                for (id, r) in &self.bins[by * self.nx + bx] {
                    let seen = (bx > bx0 && r.lo.x < x_edge) || (by > by0 && r.lo.y < y_edge);
                    if !seen && r.intersects(window) {
                        f(*id, r);
                    }
                }
            }
        }
    }

    /// Returns `(id, rect)` pairs intersecting the window, deduplicated,
    /// in deterministic (id, rect) order.
    pub fn query_entries(&self, window: &Rect) -> Vec<(u64, Rect)> {
        let (bx0, by0, bx1, by1) = self.clamp_bin_range(window);
        let mut out = Vec::new();
        for by in by0..=by1 {
            for bx in bx0..=bx1 {
                for (id, r) in &self.bins[by * self.nx + bx] {
                    if r.intersects(window) {
                        out.push((*id, *r));
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx() -> BinIndex {
        BinIndex::new(Rect::from_coords(0, 0, 1000, 1000), 64)
    }

    #[test]
    fn empty_index_reports_no_hits() {
        let idx = idx();
        assert!(idx.is_empty());
        assert!(idx.query(&Rect::from_coords(0, 0, 1000, 1000)).is_empty());
    }

    #[test]
    fn insert_and_query_single_bin() {
        let mut idx = idx();
        idx.insert(1, Rect::from_coords(5, 5, 10, 10));
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.query(&Rect::from_coords(0, 0, 20, 20)), vec![1]);
        assert!(idx.query(&Rect::from_coords(500, 500, 600, 600)).is_empty());
    }

    #[test]
    fn rect_spanning_multiple_bins_is_reported_once() {
        let mut idx = idx();
        idx.insert(9, Rect::from_coords(0, 0, 500, 10));
        let hits = idx.query(&Rect::from_coords(0, 0, 1000, 1000));
        assert_eq!(hits, vec![9]);
    }

    #[test]
    fn remove_deletes_all_copies() {
        let mut idx = idx();
        let r = Rect::from_coords(0, 0, 500, 500);
        idx.insert(3, r);
        assert!(idx.remove(3, r));
        assert!(idx.query(&Rect::from_coords(0, 0, 1000, 1000)).is_empty());
        assert!(!idx.remove(3, r));
        assert_eq!(idx.len(), 0);
    }

    #[test]
    fn out_of_region_rect_is_clamped_not_lost() {
        let mut idx = idx();
        idx.insert(4, Rect::from_coords(-100, -100, -50, -50));
        assert_eq!(idx.query(&Rect::from_coords(-200, -200, 0, 0)), vec![4]);
    }

    #[test]
    fn query_entries_returns_geometry() {
        let mut idx = idx();
        let r1 = Rect::from_coords(0, 0, 10, 10);
        let r2 = Rect::from_coords(100, 100, 110, 110);
        idx.insert(1, r1);
        idx.insert(2, r2);
        let entries = idx.query_entries(&Rect::from_coords(0, 0, 120, 120));
        assert_eq!(entries, vec![(1, r1), (2, r2)]);
    }

    #[test]
    fn touching_window_counts_as_hit() {
        let mut idx = idx();
        idx.insert(1, Rect::from_coords(10, 10, 20, 20));
        assert_eq!(idx.query(&Rect::from_coords(20, 20, 30, 30)), vec![1]);
    }
}
