//! The consistent lower bounds the detailed routers search with.
//!
//! A bound is a whole-number price like the steps it bounds: a `u64` sum of
//! `u32` weights times track and layer gaps, the type of the distances it is
//! added to.  So consistency holds exactly, and a bound plus a distance is
//! an exact frontier key.

use crate::{CostParams, GridGraph, PinCoverage, VertexId};
use tpl_design::{LayerId, PinId};
use tpl_geom::Dir;

/// One way to reach a target layer range: `via` for the layer walk, plus
/// `cx` per x-track gap and `cy` per y-track gap.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Term {
    via: u64,
    cx: u64,
    cy: u64,
}

impl Term {
    /// True when `self` is nowhere more expensive than `other`.
    fn dominates(&self, other: &Term) -> bool {
        self.via <= other.via && self.cx <= other.cx && self.cy <= other.cy
    }
}

/// Appends to `terms` the Pareto-minimal terms of the layer intervals
/// `[lo, hi]` that contain start layer `l` and meet the target range
/// `[l0, l1]`, given each layer's x-step and y-step price and the via
/// price.
fn push_terms(
    terms: &mut Vec<Term>,
    l: usize,
    (l0, l1): (usize, usize),
    (cx, cy): (&[u64], &[u64]),
    via: u64,
) {
    let start = terms.len();
    let cheapest = |prices: &[u64]| prices.iter().copied().min().expect("a layer interval");
    for lo in 0..=l.min(l1) {
        for hi in l.max(l0)..cx.len() {
            // Down to `lo` first, then up to `hi` and down to the highest
            // target layer in the interval; or up first, then down to `lo`
            // and up to the lowest.
            let walk = (l - lo + hi - lo + hi - hi.min(l1)).min(hi - l + hi - lo + lo.max(l0) - lo);
            let term = Term {
                via: walk as u64 * via,
                cx: cheapest(&cx[lo..=hi]),
                cy: cheapest(&cy[lo..=hi]),
            };
            if terms[start..].iter().any(|t| t.dominates(&term)) {
                continue;
            }
            let mut i = start;
            while i < terms.len() {
                if term.dominates(&terms[i]) {
                    terms.swap_remove(i);
                } else {
                    i += 1;
                }
            }
            terms.push(term);
        }
    }
}

/// A target pin: the bounding box of its coverage in track coordinates,
/// its layer range `[l0, l1]`, and that range's index `l0 · L + l1` into
/// the term table (`L` layers).
#[derive(Clone, Copy, Debug)]
struct Target {
    x0: i32,
    x1: i32,
    y0: i32,
    y1: i32,
    l0: i32,
    l1: i32,
    range: usize,
}

/// Lower bounds on the cost from a vertex to the nearest of a set of pins.
///
/// Each target pin contributes the bounding box of its coverage vertices in
/// track coordinates plus its layer range.  Both bounds are minima over the
/// boxes of a price of the gaps `dx`, `dy` (tracks) and `dl` (layers) from
/// the vertex to the box:
///
/// * [`h`](Self::h) is the exact distance to the box on an infinite grid
///   that charges only the base costs [`CostParams::base`] per layer.  A
///   path visits some *layer interval* — the layers between its lowest and
///   highest one.  On an interval `[lo, hi]` it pays at least one via per
///   layer of the shortest walk from its start layer that covers
///   `[lo, hi]` and ends in the box's layers, and at least the cheapest
///   x-step (y-step) on any layer of `[lo, hi]` per x (y) track.
///   [`new`](Self::new) tabulates, per start layer and target layer range,
///   the Pareto-minimal terms `(V, cx, cy)` of these intervals (with
///   default costs at most 3), and `h` is the least `V + cx·dx + cy·dy`.
///   It sees that M1 wire costs 4× and that an M1-to-M1 route either stays
///   on M1 or climbs a via and comes back down.
/// * [`manhattan`](Self::manhattan) prices every planar gap at a lower
///   bound on every planar step and every layer gap at one via.  It is never
///   above `h`; Mr.TPL's A\*-order negotiation passes keep it because their
///   answers depend on the expansion order.
///
/// A detailed-routing step costs [`CostParams::base`] of its direction
/// class on the layer it leaves, plus non-negative node, colour and stitch
/// terms.  So every real path costs at least its path on the
/// base-cost grid, and both bounds are admissible.  Each is the exact
/// distance in a graph whose every edge is at most the real step (the base
/// grid for `h`, the base grid at the cheapest planar step for
/// `manhattan`), so each is consistent (`h(u) <= step + h(v)`, exactly, as
/// every price is a whole number), and each is zero on every vertex of a
/// target pin's coverage.  That is what
/// [`Kernel::run`](crate::Kernel::run) needs for A\* and
/// [`Kernel::run_one_pass`](crate::Kernel::run_one_pass) for its band and
/// its tie rules.
#[derive(Clone, Debug)]
pub struct GoalBound {
    /// Layers of the grid.
    layers: usize,
    /// `terms[spans[l · L² + l0 · L + l1]]` are the terms of start layer
    /// `l` and target layer range `[l0, l1]`.
    spans: Vec<(u32, u32)>,
    terms: Vec<Term>,
    /// A lower bound on every planar step, for `manhattan`.
    step: u64,
    via: u64,
    targets: Vec<Target>,
}

impl GoalBound {
    /// Bounds priced for steps of `Cost_trad` under `params`, aimed at no
    /// pin yet: both are zero until [`aim`](Self::aim).
    pub fn new(grid: &GridGraph, params: &CostParams) -> Self {
        let layers = grid.num_layers();
        let price = |layer: usize, dir: Dir| params.base(grid, LayerId::from(layer), dir);
        let cx: Vec<u64> = (0..layers).map(|l| price(l, Dir::East)).collect();
        let cy: Vec<u64> = (0..layers).map(|l| price(l, Dir::North)).collect();
        let via = u64::from(params.via);
        let mut spans = Vec::with_capacity(layers * layers * layers);
        let mut terms = Vec::new();
        for l in 0..layers {
            for l0 in 0..layers {
                for l1 in 0..layers {
                    let start = terms.len();
                    if l0 <= l1 {
                        push_terms(&mut terms, l, (l0, l1), (&cx, &cy), via);
                    }
                    spans.push((start as u32, terms.len() as u32));
                }
            }
        }
        // A whole-number multiplier of 1 or more never makes wire cheaper;
        // one of 0 makes some planar step free.
        let mult = params.wrong_way_mult.min(1) * params.base_layer_mult.min(1);
        Self {
            layers,
            spans,
            terms,
            step: params.wire_cost(grid.pitch()) * u64::from(mult),
            via,
            targets: Vec::new(),
        }
    }

    /// Aims the bounds at `pins`, replacing the previous targets.  Pins
    /// without coverage add no box; with no box at all, both are zero.
    pub fn aim(&mut self, grid: &GridGraph, coverage: &PinCoverage, pins: &[PinId]) {
        self.targets.clear();
        for &pin in pins {
            let mut bbox: Option<(i32, i32, i32, i32, i32, i32)> = None;
            for &v in coverage.vertices(pin) {
                let (layer, ix, iy) = grid.coords(v);
                let (l, x, y) = (layer as i32, ix as i32, iy as i32);
                bbox = Some(match bbox {
                    None => (x, x, y, y, l, l),
                    Some((x0, x1, y0, y1, l0, l1)) => (
                        x0.min(x),
                        x1.max(x),
                        y0.min(y),
                        y1.max(y),
                        l0.min(l),
                        l1.max(l),
                    ),
                });
            }
            self.targets
                .extend(bbox.map(|(x0, x1, y0, y1, l0, l1)| Target {
                    x0,
                    x1,
                    y0,
                    y1,
                    l0,
                    l1,
                    range: l0 as usize * self.layers + l1 as usize,
                }));
        }
    }

    /// The layer-aware bound at `v`: the base-cost distance to the nearest
    /// target box.
    #[inline]
    pub fn h(&self, grid: &GridGraph, v: VertexId) -> u64 {
        self.nearest(grid, v, |target, l, dx, dy| {
            let (start, end) = self.spans[l as usize * self.layers * self.layers + target.range];
            let (dx, dy) = (dx as u64, dy as u64);
            self.terms[start as usize..end as usize]
                .iter()
                .map(|t| t.via + t.cx * dx + t.cy * dy)
                .min()
                .expect("a target range has a term")
        })
    }

    /// The Manhattan bound at `v`: every planar gap at the cheapest planar
    /// step, every layer gap at one via.
    #[inline]
    pub fn manhattan(&self, grid: &GridGraph, v: VertexId) -> u64 {
        self.nearest(grid, v, |target, l, dx, dy| {
            let dl = (target.l0 - l).max(l - target.l1).max(0);
            (dx + dy) as u64 * self.step + dl as u64 * self.via
        })
    }

    /// The least `price(target, l, dx, dy)` over the targets, given `v`'s
    /// layer `l` and its track gaps to each box; zero without targets.
    #[inline]
    fn nearest(
        &self,
        grid: &GridGraph,
        v: VertexId,
        price: impl Fn(&Target, i32, i32, i32) -> u64,
    ) -> u64 {
        if self.targets.is_empty() {
            return 0;
        }
        let (layer, ix, iy) = grid.coords(v);
        let (l, x, y) = (layer as i32, ix as i32, iy as i32);
        let mut best = u64::MAX;
        for target in &self.targets {
            let dx = (target.x0 - x).max(x - target.x1).max(0);
            let dy = (target.y0 - y).max(y - target.y1).max(0);
            let h = price(target, l, dx, dy);
            if h < best {
                best = h;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DenseBitSet, GridState, TradCost};

    #[test]
    fn bound_is_consistent_and_zero_on_the_targets() {
        let design = tpl_ispd::CaseParams::ispd18_like(1).scaled(0.25).generate();
        let grid = GridGraph::build(&design);
        let state = GridState::new(&grid, &design);
        let coverage = PinCoverage::build(&grid, &design);
        let in_guide = DenseBitSet::new(grid.num_vertices());
        let params = CostParams::default();
        let net = design.nets()[0].id();
        let trad = TradCost {
            grid: &grid,
            state: &state,
            coverage: &coverage,
            params: &params,
            net,
            in_guide: &in_guide,
        };
        let mut bound = GoalBound::new(&grid, &params);
        assert_eq!(bound.h(&grid, VertexId::new(0)), 0, "unaimed");
        let pins = &design.net(net).pins()[1..];
        bound.aim(&grid, &coverage, pins);
        for &pin in pins {
            for &v in coverage.vertices(pin) {
                assert_eq!(bound.h(&grid, v), 0);
                assert_eq!(bound.manhattan(&grid, v), 0);
            }
        }
        for v in grid.iter_vertices() {
            for (dir, n) in grid.neighbors(v) {
                let base = trad.base(grid.layer_of(v), dir);
                assert!(
                    bound.h(&grid, v) <= base + bound.h(&grid, n),
                    "{v:?} {dir:?}"
                );
                assert!(
                    bound.manhattan(&grid, v) <= base + bound.manhattan(&grid, n),
                    "{v:?} {dir:?}"
                );
            }
        }
    }

    #[test]
    fn default_costs_need_at_most_three_terms_per_entry() {
        let design = tpl_ispd::CaseParams::ispd19_like(1).scaled(0.25).generate();
        let grid = GridGraph::build(&design);
        let bound = GoalBound::new(&grid, &CostParams::default());
        let most = bound.spans.iter().map(|(a, b)| b - a).max();
        assert_eq!(most, Some(3));
    }
}
