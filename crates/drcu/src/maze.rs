//! Multi-source maze search of the colour-blind router, on the shared
//! search kernel.

use tpl_design::PinId;
use tpl_grid::{GoalBound, Kernel, SearchSpace, TradCost, VertexId};

/// Key units per cost unit of the maze frontier.
pub(crate) const KEY_RESOLUTION: f64 = 256.0;

/// The colour-blind search graph: grid vertices at `Cost_trad` step costs,
/// with the net's unreached pins as goals.
struct Maze<'s, 'a> {
    cost: &'s TradCost<'a>,
    unreached: &'s [PinId],
}

impl SearchSpace for Maze<'_, '_> {
    type Payload = ();
    type Goal = (VertexId, PinId);

    fn goal(&mut self, node: u32, _: u64, _: &Kernel<()>) -> Option<(VertexId, PinId)> {
        let v = VertexId::new(node);
        let pin = self.cost.coverage.pin_at(v)?;
        (self.cost.design.pin(pin).net() == self.cost.net && self.unreached.contains(&pin))
            .then_some((v, pin))
    }

    fn expand(&mut self, node: u32, dist: f64, _: (), mut relax: impl FnMut(u32, f64, ())) {
        let v = VertexId::new(node);
        for (dir, n) in self.cost.grid.neighbors(v) {
            if let Some(step) = self.cost.step(v, n, dir) {
                relax(n.0, dist + step, ());
            }
        }
    }
}

/// Runs a multi-source Dijkstra from `sources` until it pops a vertex
/// covered by a pin of the net listed in `unreached`, returning that vertex
/// and the pin.  Returns `None` when no unreached pin can be reached, or
/// when the kernel's budget stopped the search.
///
/// The answer is plain Dijkstra's; `bound`, aimed here at the unreached
/// pins, only prunes the nodes that cannot lie on an optimal path (see
/// [`Kernel::run_dijkstra`]).
pub(crate) fn search(
    cost: &TradCost<'_>,
    kernel: &mut Kernel<()>,
    bound: &mut GoalBound,
    sources: &[VertexId],
    unreached: &[PinId],
) -> Option<(VertexId, PinId)> {
    let grid = cost.grid;
    bound.aim(grid, cost.coverage, unreached);
    let bound = &*bound;
    let sources = sources
        .iter()
        .filter(|s| !cost.state.is_blocked(**s))
        .map(|s| (s.0, ()));
    kernel.run_dijkstra(&mut Maze { cost, unreached }, sources, |v| {
        bound.h(grid, VertexId::new(v))
    })
}

/// The path the last search found to `dst`, source first.
pub(crate) fn backtrace(kernel: &Kernel<()>, dst: VertexId) -> Vec<VertexId> {
    kernel.path(dst.0).into_iter().map(VertexId::new).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpl_design::{Design, DesignBuilder, NetId, RouteGuides, Technology};
    use tpl_geom::Rect;
    use tpl_grid::{guide_membership, CostParams, DenseBitSet, GridGraph, GridState, PinCoverage};

    fn setup() -> (Design, GridGraph, GridState, PinCoverage) {
        let mut b = DesignBuilder::new(
            "maze",
            Technology::ispd_like(3),
            Rect::from_coords(0, 0, 400, 400),
        );
        let p0 = b.add_pin_shape("a", 0, Rect::from_coords(6, 6, 14, 14));
        let p1 = b.add_pin_shape("b", 0, Rect::from_coords(366, 366, 374, 374));
        b.add_net("n0", vec![p0, p1]);
        // A wall of obstacle across the middle on layer 0 and 1, with a gap.
        b.add_obstacle(1, Rect::from_coords(0, 180, 300, 220));
        let d = b.build().unwrap();
        let g = GridGraph::build(&d);
        let s = GridState::new(&g, &d);
        let c = PinCoverage::build(&g, &d);
        (d, g, s, c)
    }

    #[test]
    fn search_connects_two_pins_around_obstacles() {
        let (d, g, s, c) = setup();
        let guides = RouteGuides::new(1);
        let mut in_guide = DenseBitSet::new(g.num_vertices());
        guide_membership(&g, &guides, NetId::new(0), &mut in_guide);
        let params = CostParams::default();
        let cost = TradCost {
            grid: &g,
            state: &s,
            coverage: &c,
            design: &d,
            params: &params,
            net: NetId::new(0),
            in_guide: &in_guide,
        };
        let mut kernel = Kernel::new(g.num_vertices(), KEY_RESOLUTION);
        let mut bound = GoalBound::new(&g, &params, 1.0);
        let sources = c.vertices(PinId::new(0)).to_vec();
        let unreached = vec![PinId::new(1)];
        let (dst, pin) =
            search(&cost, &mut kernel, &mut bound, &sources, &unreached).expect("path exists");
        assert_eq!(pin, PinId::new(1));
        let path = backtrace(&kernel, dst);
        assert!(path.len() >= 2);
        // The path starts at a source vertex and ends at the destination.
        assert!(sources.contains(&path[0]));
        assert_eq!(*path.last().unwrap(), dst);
        // No vertex on the path is blocked.
        assert!(path.iter().all(|v| !s.is_blocked(*v)));
        // Consecutive path vertices are grid neighbours.
        for w in path.windows(2) {
            assert!(g.neighbors(w[0]).any(|(_, n)| n == w[1]));
        }
    }

    #[test]
    fn searching_with_no_unreached_pins_returns_none() {
        let (d, g, s, c) = setup();
        let guides = RouteGuides::new(1);
        let mut in_guide = DenseBitSet::new(g.num_vertices());
        guide_membership(&g, &guides, NetId::new(0), &mut in_guide);
        let params = CostParams::default();
        let cost = TradCost {
            grid: &g,
            state: &s,
            coverage: &c,
            design: &d,
            params: &params,
            net: NetId::new(0),
            in_guide: &in_guide,
        };
        let mut kernel = Kernel::new(g.num_vertices(), KEY_RESOLUTION);
        let mut bound = GoalBound::new(&g, &params, 1.0);
        let sources = c.vertices(PinId::new(0)).to_vec();
        assert!(search(&cost, &mut kernel, &mut bound, &sources, &[]).is_none());
    }

    #[test]
    fn occupied_vertices_are_avoided_when_a_detour_exists() {
        let (d, g, mut s, c) = setup();
        // Occupy a straight wall between the pins on every layer except one
        // column, by another net.
        let other = NetId::new(7);
        for layer in 0..g.num_layers() {
            for ix in 0..g.nx() {
                if ix == g.nx() - 1 {
                    continue; // leave a gap at the right edge
                }
                s.occupy(g.vertex(layer, ix, g.ny() / 2), other);
            }
        }
        let guides = RouteGuides::new(1);
        let mut in_guide = DenseBitSet::new(g.num_vertices());
        guide_membership(&g, &guides, NetId::new(0), &mut in_guide);
        let params = CostParams::default();
        let cost = TradCost {
            grid: &g,
            state: &s,
            coverage: &c,
            design: &d,
            params: &params,
            net: NetId::new(0),
            in_guide: &in_guide,
        };
        let mut kernel = Kernel::new(g.num_vertices(), KEY_RESOLUTION);
        let mut bound = GoalBound::new(&g, &params, 1.0);
        let sources = c.vertices(PinId::new(0)).to_vec();
        let (dst, _) = search(&cost, &mut kernel, &mut bound, &sources, &[PinId::new(1)]).unwrap();
        let path = backtrace(&kernel, dst);
        // The path never steps on an occupied vertex because the detour
        // through the gap is cheaper than the occupancy penalty.
        assert!(path
            .iter()
            .all(|v| !s.is_occupied_by_other(*v, NetId::new(0))));
    }
}
