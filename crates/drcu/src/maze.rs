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

/// What every maze search of a routing run reuses.
pub(crate) struct MazeBuffers {
    /// The search kernel; the router arms it per net and reads its counters.
    pub(crate) kernel: Kernel<()>,
    /// The lower bound, aimed at the unreached pins per search.
    bound: GoalBound,
    /// The unreached pins' vertices, marked per search.
    goals: GoalMarks,
    /// [`CostParams::base`] per layer and direction of `tpl_geom::Dir::ALL`.
    base: Vec<[u64; 6]>,
}

impl MazeBuffers {
    /// Buffers for searches over `grid` at the costs of `params`.
    pub(crate) fn new(grid: &GridGraph, params: &CostParams) -> Self {
        Self {
            kernel: Kernel::new(grid.num_vertices()),
            bound: GoalBound::new(grid, params),
            goals: GoalMarks::new(grid.num_vertices()),
            base: params.base_table(grid),
        }
    }
}

/// The colour-blind search graph: grid vertices at `Cost_trad` step costs,
/// with the marked vertices of the net's unreached pins as goals.
struct Maze<'s, 'a> {
    cost: &'s TradCost<'a>,
    base: &'s [[u64; 6]],
    goals: &'s GoalMarks,
}

impl SearchSpace for Maze<'_, '_> {
    type Payload = ();
    type Goal = (VertexId, PinId);

    fn goal(&mut self, node: u32) -> Option<(VertexId, PinId)> {
        let v = VertexId::new(node);
        self.goals.pin(v).map(|pin| (v, pin))
    }

    fn expand(&mut self, node: u32, dist: u64, _: (), mut relax: impl FnMut(u32, u64, ())) {
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
/// The answer is plain Dijkstra's, found in one A\*-order pass
/// ([`Kernel::run_one_pass`]; the maze has no payload, so no order within a
/// key changes the answer, and the pass pops equal keys last in, first out),
/// and the bound, aimed here at the unreached pins, only steers the pass
/// past the nodes that cannot lie on an optimal path.
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
    let found = kernel.run_one_pass(&mut maze, sources.clone(), |v| {
        bound.h(grid, VertexId::new(v))
    });
    #[cfg(test)]
    tests::cross_check(&mut maze, kernel, sources, found);
    found
}

/// The path the last search found to `dst`, source first.
pub(crate) fn backtrace(kernel: &Kernel<()>, dst: VertexId) -> Vec<VertexId> {
    kernel.path(dst.0).into_iter().map(VertexId::new).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use tpl_design::{Design, DesignBuilder, NetId, RouteGuides, Technology};
    use tpl_geom::Rect;
    use tpl_global::{GlobalConfig, GlobalRouter};
    use tpl_grid::{guide_membership, DenseBitSet, GridState, PinCoverage};
    use tpl_ispd::CaseParams;

    thread_local! {
        /// Searches checked against plain Dijkstra on this thread, counted
        /// while a test has set it; `None` leaves [`search`] unchecked.
        static CROSS_CHECKS: Cell<Option<usize>> = const { Cell::new(None) };
    }

    /// When a test on this thread asked for it, reruns a search as plain
    /// Dijkstra (`Kernel::run` with `h = 0`) on a kernel of its own and
    /// asserts that the one pass found the same goal and path.
    pub(super) fn cross_check(
        maze: &mut Maze<'_, '_>,
        kernel: &Kernel<()>,
        sources: impl Iterator<Item = (u32, ())>,
        found: Option<(VertexId, PinId)>,
    ) {
        let Some(checked) = CROSS_CHECKS.get() else {
            return;
        };
        assert_eq!(
            kernel.stop_reason(),
            None,
            "cross-checked runs are unbudgeted"
        );
        let mut plain = Kernel::new(maze.cost.grid.num_vertices());
        let want = plain.run(maze, sources, |_| 0);
        assert_eq!(found, want, "goal");
        if let Some((v, _)) = want {
            assert_eq!(kernel.path(v.0), plain.path(v.0), "path to {v:?}");
        }
        CROSS_CHECKS.set(Some(checked + 1));
    }

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
            params,
            net: NetId::new(0),
            in_guide,
        }
    }

    #[test]
    fn search_connects_two_pins_around_obstacles() {
        let (_, g, s, c) = setup();
        let (params, in_guide) = (CostParams::default(), in_guide(&g));
        let cost = cost(&g, &s, &c, &params, &in_guide);
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
        let (_, g, s, c) = setup();
        let (params, in_guide) = (CostParams::default(), in_guide(&g));
        let cost = cost(&g, &s, &c, &params, &in_guide);
        let mut buffers = MazeBuffers::new(&g, &params);
        let sources = c.vertices(PinId::new(0)).to_vec();
        assert!(search(&cost, &mut buffers, &sources, &[]).is_none());
    }

    #[test]
    fn occupied_vertices_are_avoided_when_a_detour_exists() {
        let (_, g, mut s, c) = setup();
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
        let cost = cost(&g, &s, &c, &params, &in_guide);
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
        let (_, g, mut s, c) = setup();
        // Occupancy, history, the obstacle and a half-die guide vary the
        // node penalty from vertex to vertex.
        for i in (0..g.num_vertices()).step_by(7) {
            let v = VertexId::new(i as u32);
            s.add_history(v, (i % 5) as u32 * 30);
            if i % 3 == 0 {
                s.occupy(v, NetId::new(7));
            }
        }
        let params = CostParams::default();
        let mut in_guide = DenseBitSet::new(g.num_vertices());
        in_guide.insert_range(0..g.num_vertices() / 2);
        let cost = cost(&g, &s, &c, &params, &in_guide);
        let buffers = MazeBuffers::new(&g, &params);
        let mut maze = Maze {
            cost: &cost,
            base: &buffers.base,
            goals: &buffers.goals,
        };
        for v in g.iter_vertices() {
            let mut got = Vec::new();
            maze.expand(v.0, 15, (), |to, nd, ()| got.push((to, nd)));
            let want: Vec<(u32, u64)> = g
                .neighbors(v)
                .filter_map(|(dir, n)| cost.step(v, n, dir).map(|step| (n.0, 15 + step)))
                .collect();
            assert_eq!(got, want, "{v:?}");
        }
    }

    #[test]
    fn the_bound_is_consistent_with_every_maze_step() {
        for salt in 0..3u64 {
            let mut case = tpl_ispd::CaseParams::ispd18_like(1 + salt as usize).scaled(0.3);
            case.seed = case.seed.wrapping_add(salt << 32);
            let d = case.generate();
            let g = GridGraph::build(&d);
            let c = PinCoverage::build(&g, &d);
            let mut s = GridState::new(&g, &d);
            let net = d.nets()[salt as usize].id();
            let mut r = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for v in g.iter_vertices() {
                r ^= r << 13;
                r ^= r >> 7;
                r ^= r << 17;
                match r % 8 {
                    0 => s.add_history(v, 30 * (r >> 3 & 3) as u32),
                    1 => s.occupy(v, NetId::new(net.0 + 1)),
                    _ => {}
                }
            }
            let params = CostParams::default();
            let mut in_guide = DenseBitSet::new(g.num_vertices());
            in_guide.insert_range(0..g.num_vertices() / 2);
            let cost = TradCost {
                net,
                ..cost(&g, &s, &c, &params, &in_guide)
            };
            let mut buffers = MazeBuffers::new(&g, &params);
            buffers.bound.aim(&g, &c, &d.net(net).pins()[1..]);
            let bound = &buffers.bound;
            let mut maze = Maze {
                cost: &cost,
                base: &buffers.base,
                goals: &buffers.goals,
            };
            for v in g.iter_vertices() {
                let h = bound.h(&g, v);
                maze.expand(v.0, 0, (), |to, step, ()| {
                    let h_to = bound.h(&g, VertexId::new(to));
                    assert!(h <= step + h_to, "{v:?} -> {to}: {h} > {step} + {h_to}");
                });
            }
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
        let cost = cost(&g, &s, &c, &params, &in_guide);
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
            let goal = maze.goal(v.0);
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

    #[test]
    fn every_search_of_a_routing_run_returns_plain_dijkstras_goal_and_path() {
        CROSS_CHECKS.set(Some(0));
        for suite in [CaseParams::ispd18_like, CaseParams::ispd19_like] {
            for case in 1..=10 {
                let mut params = suite(case).scaled(0.3);
                // A salt per case, so the seeds differ from the suites'.
                params.seed = params.seed.wrapping_add((case as u64 % 3) << 32);
                let design = params.generate();
                let guides = GlobalRouter::new(GlobalConfig::default()).route(&design);
                crate::DrCuRouter::new(crate::DrCuConfig::default()).route(&design, &guides);
            }
        }
        let checked = CROSS_CHECKS.take().expect("still counting");
        assert!(checked > 1000, "{checked} searches checked");
    }
}
