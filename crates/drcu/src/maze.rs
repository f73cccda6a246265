//! Multi-source maze search of the colour-blind router, on the shared
//! search kernel.
//!
//! A pop decodes its vertex once and takes its neighbours from
//! [`GridGraph::neighbors_at`]; a step costs the direction-class base, read
//! from a per-layer table built once per routing run, plus the entered
//! vertex's [`TradCost::node_penalty`], exactly [`TradCost::step`].  The goal
//! test reads [`GoalMarks`] set once per search.

use tpl_design::PinId;
use tpl_grid::{
    CostParams, GoalBound, GoalMarks, GridGraph, Kernel, SearchSpace, TradCost, VertexId,
};

/// Key units per cost unit of the maze frontier.
const KEY_RESOLUTION: f64 = 256.0;

/// What every maze search of a routing run reuses.
pub(crate) struct MazeBuffers {
    /// The search kernel; the router arms it per net and reads its counters.
    pub(crate) kernel: Kernel<()>,
    /// The lower bound, aimed at the unreached pins per search.
    bound: GoalBound,
    /// The unreached pins' vertices, marked per search.
    goals: GoalMarks,
    /// [`CostParams::base`] per layer and direction of [`tpl_geom::Dir::ALL`].
    base: Vec<[f64; 6]>,
}

impl MazeBuffers {
    /// Buffers for searches over `grid` at the costs of `params`.
    pub(crate) fn new(grid: &GridGraph, params: &CostParams) -> Self {
        Self {
            kernel: Kernel::new(grid.num_vertices(), KEY_RESOLUTION),
            bound: GoalBound::new(grid, params, 1.0),
            goals: GoalMarks::new(grid.num_vertices()),
            base: params.base_table(grid),
        }
    }
}

/// The colour-blind search graph: grid vertices at `Cost_trad` step costs,
/// with the marked vertices of the net's unreached pins as goals.
struct Maze<'s, 'a> {
    cost: &'s TradCost<'a>,
    base: &'s [[f64; 6]],
    goals: &'s GoalMarks,
}

impl SearchSpace for Maze<'_, '_> {
    type Payload = ();
    type Goal = (VertexId, PinId);

    fn goal(&mut self, node: u32, _: u64, _: &Kernel<()>) -> Option<(VertexId, PinId)> {
        let v = VertexId::new(node);
        self.goals.pin(v).map(|pin| (v, pin))
    }

    fn expand(&mut self, node: u32, dist: f64, _: (), mut relax: impl FnMut(u32, f64, ())) {
        let grid = self.cost.grid;
        let v = VertexId::new(node);
        let at = grid.coords(v);
        let base = &self.base[at.0];
        for (k, n) in grid.neighbors_at(v, at).into_iter().enumerate() {
            let Some(n) = n else {
                continue;
            };
            if let Some(penalty) = self.cost.node_penalty(n) {
                relax(n.0, dist + (base[k] + penalty), ());
            }
        }
    }
}

/// Runs a multi-source Dijkstra from `sources` until it pops a vertex
/// covered by a pin of the net listed in `unreached`, returning that vertex
/// and the pin.  Returns `None` when no unreached pin can be reached, or
/// when the kernel's budget stopped the search.
///
/// The answer is plain Dijkstra's; the bound, aimed here at the unreached
/// pins, only prunes the nodes that cannot lie on an optimal path (see
/// [`Kernel::run_dijkstra`]).
pub(crate) fn search(
    cost: &TradCost<'_>,
    buffers: &mut MazeBuffers,
    sources: &[VertexId],
    unreached: &[PinId],
) -> Option<(VertexId, PinId)> {
    let (grid, coverage) = (cost.grid, cost.coverage);
    let MazeBuffers {
        kernel,
        bound,
        goals,
        base,
    } = buffers;
    goals.mark_unreached(coverage, unreached);
    bound.aim(grid, coverage, unreached);
    let bound = &*bound;
    let sources = sources
        .iter()
        .filter(|s| !cost.state.is_blocked(**s))
        .map(|s| (s.0, ()));
    let mut maze = Maze { cost, base, goals };
    kernel.run_dijkstra(&mut maze, sources, |v| bound.h(grid, VertexId::new(v)))
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
    use tpl_grid::{guide_membership, DenseBitSet, GridState, PinCoverage};

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

    /// Net 0's guide membership (everywhere: it has no guides).
    fn in_guide(g: &GridGraph) -> DenseBitSet {
        let mut in_guide = DenseBitSet::new(g.num_vertices());
        guide_membership(g, &RouteGuides::new(1), NetId::new(0), &mut in_guide);
        in_guide
    }

    /// Net 0's `Cost_trad`.
    fn cost<'a>(
        d: &'a Design,
        g: &'a GridGraph,
        s: &'a GridState,
        c: &'a PinCoverage,
        params: &'a CostParams,
        in_guide: &'a DenseBitSet,
    ) -> TradCost<'a> {
        TradCost {
            grid: g,
            state: s,
            coverage: c,
            design: d,
            params,
            net: NetId::new(0),
            in_guide,
        }
    }

    #[test]
    fn search_connects_two_pins_around_obstacles() {
        let (d, g, s, c) = setup();
        let (params, in_guide) = (CostParams::default(), in_guide(&g));
        let cost = cost(&d, &g, &s, &c, &params, &in_guide);
        let mut buffers = MazeBuffers::new(&g, &params);
        let sources = c.vertices(PinId::new(0)).to_vec();
        let unreached = vec![PinId::new(1)];
        let (dst, pin) = search(&cost, &mut buffers, &sources, &unreached).expect("path exists");
        assert_eq!(pin, PinId::new(1));
        let path = backtrace(&buffers.kernel, dst);
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
        let (params, in_guide) = (CostParams::default(), in_guide(&g));
        let cost = cost(&d, &g, &s, &c, &params, &in_guide);
        let mut buffers = MazeBuffers::new(&g, &params);
        let sources = c.vertices(PinId::new(0)).to_vec();
        assert!(search(&cost, &mut buffers, &sources, &[]).is_none());
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
        let (params, in_guide) = (CostParams::default(), in_guide(&g));
        let cost = cost(&d, &g, &s, &c, &params, &in_guide);
        let mut buffers = MazeBuffers::new(&g, &params);
        let sources = c.vertices(PinId::new(0)).to_vec();
        let (dst, _) = search(&cost, &mut buffers, &sources, &[PinId::new(1)]).unwrap();
        let path = backtrace(&buffers.kernel, dst);
        // The path never steps on an occupied vertex because the detour
        // through the gap is cheaper than the occupancy penalty.
        assert!(path
            .iter()
            .all(|v| !s.is_occupied_by_other(*v, NetId::new(0))));
    }

    #[test]
    fn every_relaxation_costs_exactly_trad_step() {
        let (d, g, mut s, c) = setup();
        // Occupancy, history, the obstacle and a half-die guide vary the
        // node penalty from vertex to vertex.
        for i in (0..g.num_vertices()).step_by(7) {
            let v = VertexId::new(i as u32);
            s.add_history(v, (i % 5) as f64 * 30.0);
            if i % 3 == 0 {
                s.occupy(v, NetId::new(7));
            }
        }
        let params = CostParams::default();
        let mut in_guide = DenseBitSet::new(g.num_vertices());
        in_guide.insert_range(0..g.num_vertices() / 2);
        let cost = cost(&d, &g, &s, &c, &params, &in_guide);
        let buffers = MazeBuffers::new(&g, &params);
        let mut maze = Maze {
            cost: &cost,
            base: &buffers.base,
            goals: &buffers.goals,
        };
        for v in g.iter_vertices() {
            let mut got = Vec::new();
            maze.expand(v.0, 1.5, (), |to, nd, ()| got.push((to, nd.to_bits())));
            let want: Vec<(u32, u64)> = g
                .neighbors(v)
                .filter_map(|(dir, n)| {
                    cost.step(v, n, dir)
                        .map(|step| (n.0, (1.5 + step).to_bits()))
                })
                .collect();
            assert_eq!(got, want, "{v:?}");
        }
    }

    #[test]
    fn reached_and_foreign_pins_are_never_goals() {
        let mut b = DesignBuilder::new(
            "goals",
            Technology::ispd_like(3),
            Rect::from_coords(0, 0, 400, 400),
        );
        let p0 = b.add_pin_shape("a", 0, Rect::from_coords(6, 6, 14, 14));
        let p1 = b.add_pin_shape("b", 0, Rect::from_coords(100, 100, 180, 120));
        let p2 = b.add_pin_shape("c", 1, Rect::from_coords(300, 300, 340, 340));
        let q0 = b.add_pin_shape("x", 0, Rect::from_coords(200, 6, 260, 34));
        let q1 = b.add_pin_shape("y", 0, Rect::from_coords(366, 366, 374, 374));
        b.add_net("n0", vec![p0, p1, p2]);
        b.add_net("n1", vec![q0, q1]);
        let d = b.build().unwrap();
        let g = GridGraph::build(&d);
        let s = GridState::new(&g, &d);
        let c = PinCoverage::build(&g, &d);
        let (params, in_guide) = (CostParams::default(), in_guide(&g));
        let cost = cost(&d, &g, &s, &c, &params, &in_guide);
        let mut buffers = MazeBuffers::new(&g, &params);
        // Pin 0 started the tree and pin 1 is reached: only pin 2 is left.
        let unreached = [PinId::new(2)];
        buffers.goals.mark_unreached(&c, &unreached);
        let mut maze = Maze {
            cost: &cost,
            base: &buffers.base,
            goals: &buffers.goals,
        };
        let mut goals = 0;
        for v in g.iter_vertices() {
            let goal = maze.goal(v.0, 0, &buffers.kernel);
            match c.pin_at(v) {
                Some(pin) if pin == PinId::new(2) => {
                    assert_eq!(goal, Some((v, pin)), "{v:?}");
                    goals += 1;
                }
                _ => assert_eq!(goal, None, "{v:?} is covered by {:?}", c.pin_at(v)),
            }
        }
        assert!(goals > 0);
        for pin in [0, 1, 3, 4].map(PinId::new) {
            assert!(!c.vertices(pin).is_empty(), "{pin:?} covers a vertex");
        }
    }
}
