//! The one consistent lower bound the detailed routers search with.

use crate::{CostParams, GridGraph, PinCoverage, VertexId};
use tpl_design::PinId;

/// Lower bound on the cost from a vertex to the nearest of a set of pins.
///
/// Each target pin contributes the bounding box of its coverage vertices in
/// track coordinates plus its layer range; `h(v)` is the cheapest
/// conceivable cost of closing the Manhattan gap to the nearest box: planar
/// track gaps cost at least the minimum planar step and layer gaps at least
/// one via each, both times `scale`.
///
/// A detailed-routing step costs `scale` times [`TradCost::base`] of its
/// direction class, which these minima bound from below, plus non-negative
/// node, colour and stitch terms.  So the bound is admissible; one grid move
/// changes each gap by at most one, so it is also consistent, and it is zero
/// on every vertex of a target pin's coverage.  That is what
/// [`Kernel::run`](crate::Kernel::run) needs for A\* and
/// [`Kernel::run_dijkstra`](crate::Kernel::run_dijkstra) for its pruning.
///
/// [`TradCost::base`]: crate::TradCost::base
#[derive(Clone, Debug)]
pub struct GoalBound {
    /// `(x0, x1, y0, y1, l0, l1)` per target pin.
    boxes: Vec<(i32, i32, i32, i32, i32, i32)>,
    step: f64,
    via: f64,
}

impl GoalBound {
    /// A bound priced for steps of `scale` times `Cost_trad` under `params`
    /// (`scale` is Mr.TPL's `alpha`, 1 for the other routers), aimed at no
    /// pin yet: `h` is zero until [`aim`](Self::aim).
    pub fn new(grid: &GridGraph, params: &CostParams, scale: f64) -> Self {
        // Conservative minima: honour configs where the wrong-way or
        // base-layer multipliers dip below 1.
        let mult = params
            .wrong_way_mult
            .min(1.0)
            .min(params.base_layer_mult.min(1.0));
        Self {
            boxes: Vec::new(),
            step: (scale * params.wire_cost(grid.pitch()) * mult).max(0.0),
            via: (scale * params.via).max(0.0),
        }
    }

    /// Aims the bound at `pins`, replacing the previous targets.  Pins
    /// without coverage add no box; with no box at all, `h` is zero.
    pub fn aim(&mut self, grid: &GridGraph, coverage: &PinCoverage, pins: &[PinId]) {
        self.boxes.clear();
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
            self.boxes.extend(bbox);
        }
    }

    /// The bound at `v`.
    #[inline]
    pub fn h(&self, grid: &GridGraph, v: VertexId) -> f64 {
        if self.boxes.is_empty() {
            return 0.0;
        }
        let (layer, ix, iy) = grid.coords(v);
        let (l, x, y) = (layer as i32, ix as i32, iy as i32);
        let mut best = f64::INFINITY;
        for &(x0, x1, y0, y1, l0, l1) in &self.boxes {
            let dx = (x0 - x).max(x - x1).max(0);
            let dy = (y0 - y).max(y - y1).max(0);
            let dl = (l0 - l).max(l - l1).max(0);
            let h = (dx + dy) as f64 * self.step + dl as f64 * self.via;
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
            design: &design,
            params: &params,
            net,
            in_guide: &in_guide,
        };
        let mut bound = GoalBound::new(&grid, &params, 1.0);
        assert_eq!(bound.h(&grid, VertexId::new(0)), 0.0, "unaimed");
        let pins = &design.net(net).pins()[1..];
        bound.aim(&grid, &coverage, pins);
        for &pin in pins {
            for &v in coverage.vertices(pin) {
                assert_eq!(bound.h(&grid, v), 0.0);
            }
        }
        for v in grid.iter_vertices() {
            for (dir, n) in grid.neighbors(v) {
                let base = trad.base(grid.layer_of(v), dir);
                assert!(
                    bound.h(&grid, v) <= base + bound.h(&grid, n),
                    "{v:?} {dir:?}"
                );
            }
        }
    }
}
