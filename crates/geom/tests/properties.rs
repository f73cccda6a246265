//! Property-based tests for the geometry substrate.

use proptest::prelude::*;
use tpl_geom::{BinIndex, Interval, Point, Rect, Segment};

fn arb_point() -> impl Strategy<Value = Point> {
    (-10_000i64..10_000, -10_000i64..10_000).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    (arb_point(), arb_point()).prop_map(|(a, b)| Rect::new(a, b))
}

fn arb_interval() -> impl Strategy<Value = Interval> {
    (-10_000i64..10_000, 0i64..5_000).prop_map(|(lo, len)| Interval::new(lo, lo + len))
}

proptest! {
    #[test]
    fn manhattan_triangle_inequality(a in arb_point(), b in arb_point(), c in arb_point()) {
        prop_assert!(a.manhattan(&c) <= a.manhattan(&b) + b.manhattan(&c));
    }

    #[test]
    fn rect_normalisation_holds(r in arb_rect()) {
        prop_assert!(r.lo.x <= r.hi.x);
        prop_assert!(r.lo.y <= r.hi.y);
        prop_assert!(r.area() >= 0);
    }

    #[test]
    fn rect_intersection_is_contained_in_both(a in arb_rect(), b in arb_rect()) {
        if let Some(i) = a.intersection(&b) {
            prop_assert!(a.contains_rect(&i));
            prop_assert!(b.contains_rect(&i));
            prop_assert_eq!(a.spacing_to(&b), 0);
        } else {
            prop_assert!(a.spacing_to(&b) > 0);
        }
    }

    #[test]
    fn rect_hull_contains_both(a in arb_rect(), b in arb_rect()) {
        let h = a.hull(&b);
        prop_assert!(h.contains_rect(&a));
        prop_assert!(h.contains_rect(&b));
    }

    #[test]
    fn spacing_is_symmetric(a in arb_rect(), b in arb_rect()) {
        prop_assert_eq!(a.spacing_to(&b), b.spacing_to(&a));
    }

    #[test]
    fn expanded_rects_touch_when_spacing_small(a in arb_rect(), b in arb_rect(), halo in 1i64..200) {
        // The fundamental query used for conflict detection: bloating one rect
        // by `halo` finds exactly the rects with spacing <= halo.
        let bloated = a.expanded(halo);
        let within = a.spacing_to(&b) <= halo;
        prop_assert_eq!(bloated.intersects(&b), within);
    }

    #[test]
    fn interval_intersection_commutes(a in arb_interval(), b in arb_interval()) {
        prop_assert_eq!(a.intersection(&b), b.intersection(&a));
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
    }

    #[test]
    fn interval_gap_zero_iff_overlap_or_touch(a in arb_interval(), b in arb_interval()) {
        let gap = a.gap_to(&b);
        if a.overlaps(&b) {
            prop_assert_eq!(gap, 0);
        } else {
            prop_assert!(gap >= 0);
        }
    }

    #[test]
    fn segment_rect_expansion_contains_centerline(p in arb_point(), len in 0i64..500, width in 0i64..20, horizontal in any::<bool>()) {
        let q = if horizontal { p.translated(len, 0) } else { p.translated(0, len) };
        let s = Segment::new(p, q);
        let r = s.to_rect(width * 2);
        prop_assert!(r.contains(&s.a));
        prop_assert!(r.contains(&s.b));
        prop_assert!(r.contains_rect(&s.bbox()));
    }

    #[test]
    fn bin_index_query_matches_linear_scan(
        rects in prop::collection::vec(arb_rect(), 1..40),
        window in arb_rect(),
    ) {
        let region = Rect::from_coords(-10_000, -10_000, 10_000, 10_000);
        let mut idx = BinIndex::new(region, 512);
        for (i, r) in rects.iter().enumerate() {
            idx.insert(i as u64, *r);
        }
        let mut expected: Vec<u64> = rects
            .iter()
            .enumerate()
            .filter(|(_, r)| r.intersects(&window))
            .map(|(i, _)| i as u64)
            .collect();
        expected.sort_unstable();
        expected.dedup();
        prop_assert_eq!(idx.query(&window), expected);
    }

    /// The allocation-free visitor reports every intersecting id exactly once
    /// and the same id set as the sorted query: rects spanning many bins,
    /// rects outside the indexed region (clamped into its boundary bins) and
    /// rects that only touch the window's edge.
    #[test]
    fn bin_index_visitor_reports_each_hit_once(
        rects in prop::collection::vec((-1_500i64..1_500, -1_500i64..1_500, 0i64..1_200, 0i64..1_200), 1..40),
        window in (-1_500i64..1_500, -1_500i64..1_500, 0i64..1_200, 0i64..1_200),
        touch in any::<bool>(),
    ) {
        let mut idx = BinIndex::new(Rect::from_coords(-1_000, -1_000, 1_000, 1_000), 100);
        let window = Rect::from_coords(window.0, window.1, window.0 + window.2, window.1 + window.3);
        for (i, &(x, y, w, h)) in rects.iter().enumerate() {
            let rect = if touch && i % 2 == 0 {
                // Abut the window's right edge exactly.
                Rect::from_coords(window.hi.x, y, window.hi.x + w, y + h)
            } else {
                Rect::from_coords(x, y, x + w, y + h)
            };
            idx.insert(i as u64, rect);
        }
        let mut seen = Vec::new();
        idx.for_each_intersecting(&window, |id, r| {
            assert!(r.intersects(&window));
            seen.push(id);
        });
        seen.sort_unstable();
        let hits = seen.len();
        seen.dedup();
        prop_assert_eq!(seen.len(), hits);
        prop_assert_eq!(seen, idx.query(&window));
    }

    #[test]
    fn bin_index_remove_is_exact(rects in prop::collection::vec(arb_rect(), 1..20)) {
        let region = Rect::from_coords(-10_000, -10_000, 10_000, 10_000);
        let mut idx = BinIndex::new(region, 256);
        for (i, r) in rects.iter().enumerate() {
            idx.insert(i as u64, *r);
        }
        // Remove every other entry and confirm the survivors are intact.
        for (i, r) in rects.iter().enumerate().step_by(2) {
            prop_assert!(idx.remove(i as u64, *r));
        }
        let all = idx.query(&region);
        for (i, _) in rects.iter().enumerate() {
            let should_exist = i % 2 == 1;
            prop_assert_eq!(all.contains(&(i as u64)), should_exist);
        }
    }
}
