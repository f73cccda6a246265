//! The pattern global router.

use crate::GCellGrid;
use tpl_design::{Design, LayerId, Net, RouteGuides};
use tpl_geom::{manhattan_mst, Point};
use tpl_grid::{Outcome, RouteBudget};

/// Configuration of the global router.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GlobalConfig {
    /// Number of detailed-routing tracks per gcell side.
    pub tracks_per_gcell: usize,
    /// Number of gcells by which guides are expanded around the route.
    pub guide_expansion: usize,
}

impl Default for GlobalConfig {
    fn default() -> Self {
        Self {
            tracks_per_gcell: 5,
            guide_expansion: 1,
        }
    }
}

/// Statistics reported after global routing.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GlobalStats {
    /// Number of 2-pin connections routed, each with an L-pattern.
    pub pattern_routed: usize,
    /// Always 0: the router lays L-patterns only and has no maze.  Kept so
    /// readers of these statistics keep compiling.
    pub maze_routed: usize,
    /// Always 0: the router pops no search node.  Kept so readers of these
    /// statistics keep compiling.
    pub search_nodes: usize,
    /// How the run ended: `Complete` without a budget, `Degraded` when a
    /// zero search-node budget stopped it, `Aborted` on deadline or
    /// cancellation.
    pub outcome: Outcome,
}

/// The gcell-based global router.
///
/// See the crate documentation for the algorithm outline.
#[derive(Clone, Debug)]
pub struct GlobalRouter {
    config: GlobalConfig,
}

impl GlobalRouter {
    /// Creates a router with the given configuration.
    pub fn new(config: GlobalConfig) -> Self {
        Self { config }
    }

    /// Routes every net of the design and returns its route guides.
    pub fn route(&self, design: &Design) -> RouteGuides {
        self.route_with_stats(design).0
    }

    /// Routes every net and also returns routing statistics.
    pub fn route_with_stats(&self, design: &Design) -> (RouteGuides, GlobalStats) {
        self.route_with_budget(design, &RouteBudget::default())
    }

    /// Like [`route_with_stats`](GlobalRouter::route_with_stats), under a
    /// [`RouteBudget`].
    ///
    /// The budget is checked before each net.  Once it refuses one (a zero
    /// search-node cap, a passed deadline or cancellation), this and every
    /// later net get only their terminal gcells as guides, and
    /// `stats.outcome` says why: [`Outcome::Degraded`] on the node cap,
    /// [`Outcome::Aborted`] otherwise.  Terminal gcells are always included,
    /// so even a stopped run emits guides covering every pin.
    pub fn route_with_budget(
        &self,
        design: &Design,
        budget: &RouteBudget,
    ) -> (RouteGuides, GlobalStats) {
        let _route_span = tpl_trace::span!("global.route", nets = design.nets().len());
        tpl_fault::point!("global.route");
        let mut budget = budget.clone();
        if tpl_fault::trips_budget("global.budget") {
            // Injected budget exhaustion: behave exactly like a zero-node
            // budget and exercise the degraded path.
            budget.max_search_nodes = Some(0);
        }
        let cfg = &self.config;
        let grid = GCellGrid::build(design, cfg.tracks_per_gcell);
        let mut stats = GlobalStats::default();
        let mut stop = None;
        let mut guides = RouteGuides::new(design.nets().len());
        let layers = (
            LayerId::new(0),
            LayerId::from(design.tech().num_layers() - 1),
        );
        for net in design.nets() {
            // The router never searches, so no net spends any node.
            stop = stop.or_else(|| budget.allowance(0).err());
            let (cells, edges) = guided_cells(design, &grid, net, stop.is_none());
            if stop.is_none() {
                stats.pattern_routed += edges;
                tpl_trace::counter!("global.pattern_routed", edges);
            }
            // The guide is the union of the visited gcells, each expanded by
            // `guide_expansion` cells, on every routing layer.  One region
            // per maximal run of visited gcells along a row whose expanded
            // cells overlap or abut (at most `2e` gcells apart): the hull of
            // a run's expanded cells is exactly their union.
            let e = cfg.guide_expansion;
            for run in cells.chunk_by(|a, b| a.1 == b.1 && b.0 <= a.0 + 2 * e + 1) {
                let ((x0, gy), (x1, _)) = (run[0], run[run.len() - 1]);
                let lo = grid.cell_rect(x0.saturating_sub(e), gy.saturating_sub(e));
                let hi = grid.cell_rect((x1 + e).min(grid.nx() - 1), (gy + e).min(grid.ny() - 1));
                guides.add(net.id(), layers, lo.hull(&hi));
            }
        }
        stats.outcome = stop.map_or(Outcome::Complete, Outcome::from_stop);
        (guides, stats)
    }
}

/// The gcells a net's guide grows from, sorted by row and then column, and
/// the number of 2-pin connections laid: the terminal gcells (those of the
/// pins' centres) and, when `route` is set, the horizontal-first L on each
/// edge of their Manhattan MST.
pub(crate) fn guided_cells(
    design: &Design,
    grid: &GCellGrid,
    net: &Net,
    route: bool,
) -> (Vec<(usize, usize)>, usize) {
    let mut terminals: Vec<(usize, usize)> = net
        .pins()
        .iter()
        .filter_map(|p| design.pin(*p).bbox())
        .map(|b| grid.cell_of(b.center()))
        .collect();
    terminals.sort_unstable();
    terminals.dedup();
    let mut cells = terminals.clone();
    let mut edges = 0;
    if route {
        let points: Vec<Point> = terminals
            .iter()
            .map(|&(x, y)| Point::new(x as i64, y as i64))
            .collect();
        let mst = manhattan_mst(&points);
        for &(a, b) in &mst {
            cells.extend(l_path(terminals[a], terminals[b]));
        }
        edges = mst.len();
    }
    cells.sort_unstable_by_key(|&(gx, gy)| (gy, gx));
    cells.dedup();
    (cells, edges)
}

/// The horizontal-first L-shaped gcell path from `src` to `dst`: along
/// `src`'s row to `dst`'s column, then along that column.
fn l_path(src: (usize, usize), dst: (usize, usize)) -> Vec<(usize, usize)> {
    let mut path = vec![src];
    let mut cur = src;
    while cur.0 != dst.0 {
        cur.0 = if dst.0 > cur.0 { cur.0 + 1 } else { cur.0 - 1 };
        path.push(cur);
    }
    while cur.1 != dst.1 {
        cur.1 = if dst.1 > cur.1 { cur.1 + 1 } else { cur.1 - 1 };
        path.push(cur);
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpl_design::{DesignBuilder, Technology};
    use tpl_geom::Rect;
    use tpl_grid::{CancelToken, StopReason};
    use tpl_ispd::CaseParams;

    /// Asserts that every pin of every net lies inside its net's guide.
    fn assert_pins_covered(design: &Design, guides: &RouteGuides) {
        for net in design.nets() {
            for pin in net.pins() {
                let (layer, rect) = design.pin(*pin).shapes()[0];
                assert!(
                    guides.covers(net.id(), layer, &rect),
                    "guide of {} misses pin {}",
                    net.name(),
                    design.pin(*pin).name()
                );
            }
        }
    }

    /// A 1000 × 1000 die of 10 × 10 gcells (gcell side 100) with one
    /// two-pin net whose pins sit in gcells (1, 2) and (6, 7).
    fn two_pin_design() -> Design {
        let mut b = DesignBuilder::new(
            "l",
            Technology::ispd_like(3),
            Rect::from_coords(0, 0, 1000, 1000),
        );
        let p0 = b.add_pin_shape("a", 0, Rect::from_coords(146, 246, 154, 254));
        let p1 = b.add_pin_shape("b", 0, Rect::from_coords(646, 746, 654, 754));
        b.add_net("n", vec![p0, p1]);
        b.build().unwrap()
    }

    #[test]
    fn l_paths_have_manhattan_length() {
        let p = l_path((1, 1), (4, 5));
        assert_eq!(p.len(), 1 + 3 + 4);
        assert_eq!(*p.first().unwrap(), (1, 1));
        assert_eq!(*p.last().unwrap(), (4, 5));
        // Horizontal first: the corner is in the source's row.
        assert_eq!(p[3], (4, 1));
        let q = l_path((4, 5), (1, 1));
        assert_eq!(q.len(), 8);
        assert_eq!(q[3], (1, 5));
        // Consecutive cells are always 4-adjacent.
        for w in p.windows(2).chain(q.windows(2)) {
            let d = (w[0].0 as i64 - w[1].0 as i64).abs() + (w[0].1 as i64 - w[1].1 as i64).abs();
            assert_eq!(d, 1);
        }
    }

    #[test]
    fn a_two_pin_guide_is_its_horizontal_first_l_as_row_runs_on_every_layer() {
        let design = two_pin_design();
        let (guides, stats) = GlobalRouter::new(GlobalConfig::default()).route_with_stats(&design);
        assert_eq!(stats.pattern_routed, 1);
        assert_eq!(stats.outcome, Outcome::Complete);
        // Row 2 from column 1 to 6 is one run, then column 6 up to row 7 is
        // one run per row; each run grows by one gcell on every side.
        let mut want = vec![Rect::from_coords(0, 100, 800, 400)];
        want.extend((3..=7).map(|y| Rect::from_coords(500, y * 100 - 100, 800, y * 100 + 200)));
        let net = design.nets()[0].id();
        let got: Vec<Rect> = guides.regions(net).iter().map(|g| g.rect).collect();
        assert_eq!(got, want);
        let every_layer = (LayerId::new(0), LayerId::new(2));
        assert!(guides.regions(net).iter().all(|g| g.layers == every_layer));
    }

    #[test]
    fn guides_cover_every_pin_of_every_net() {
        let design = CaseParams::ispd18_like(1).scaled(0.4).generate();
        let guides = GlobalRouter::new(GlobalConfig::default()).route(&design);
        assert_pins_covered(&design, &guides);
    }

    #[test]
    fn two_pin_straight_nets_route_with_patterns() {
        let mut b = DesignBuilder::new(
            "straight",
            Technology::ispd_like(3),
            Rect::from_coords(0, 0, 800, 800),
        );
        let p0 = b.add_pin_shape("a", 0, Rect::from_coords(6, 6, 14, 14));
        let p1 = b.add_pin_shape("b", 0, Rect::from_coords(706, 6, 714, 14));
        b.add_net("n", vec![p0, p1]);
        let d = b.build().unwrap();
        let (guides, stats) = GlobalRouter::new(GlobalConfig::default()).route_with_stats(&d);
        assert_eq!(stats.pattern_routed, 1);
        assert_eq!(stats.maze_routed, 0);
        assert!(guides.total_regions() > 0);
    }

    #[test]
    fn a_zero_budget_guides_only_the_terminal_gcells() {
        let design = two_pin_design();
        let budget = RouteBudget::with_max_search_nodes(0);
        let (guides, stats) =
            GlobalRouter::new(GlobalConfig::default()).route_with_budget(&design, &budget);
        assert_eq!(stats.outcome, Outcome::Degraded(StopReason::SearchNodes));
        assert_eq!(stats.pattern_routed, 0);
        let net = design.nets()[0].id();
        let got: Vec<Rect> = guides.regions(net).iter().map(|g| g.rect).collect();
        let want = [
            Rect::from_coords(0, 100, 300, 400),
            Rect::from_coords(500, 600, 800, 900),
        ];
        assert_eq!(got, want);
        let every_layer = (LayerId::new(0), LayerId::new(2));
        assert!(guides.regions(net).iter().all(|g| g.layers == every_layer));
        assert_pins_covered(&design, &guides);
    }

    #[test]
    fn a_run_bridges_gaps_its_expanded_cells_close() {
        // Terminal gcells only (zero budget), in row 2: gcells 1 and 4 grow
        // to columns 0-2 and 3-5, which abut; gcells 1 and 5 leave column 3
        // unguided.
        let regions = |x: i64| {
            let mut b = DesignBuilder::new(
                "gap",
                Technology::ispd_like(3),
                Rect::from_coords(0, 0, 1000, 1000),
            );
            let p0 = b.add_pin_shape("a", 0, Rect::from_coords(146, 246, 154, 254));
            let p1 = b.add_pin_shape("b", 0, Rect::from_coords(x, 246, x + 8, 254));
            b.add_net("n", vec![p0, p1]);
            let design = b.build().unwrap();
            let budget = RouteBudget::with_max_search_nodes(0);
            let (guides, _) =
                GlobalRouter::new(GlobalConfig::default()).route_with_budget(&design, &budget);
            let net = design.nets()[0].id();
            guides
                .regions(net)
                .iter()
                .map(|g| g.rect)
                .collect::<Vec<_>>()
        };
        assert_eq!(regions(446), [Rect::from_coords(0, 100, 600, 400)]);
        assert_eq!(
            regions(546),
            [
                Rect::from_coords(0, 100, 300, 400),
                Rect::from_coords(400, 100, 700, 400)
            ]
        );
    }

    #[test]
    fn zero_budget_run_still_covers_every_pin() {
        let design = CaseParams::ispd18_like(1).scaled(0.4).generate();
        let router = GlobalRouter::new(GlobalConfig::default());
        let budget = RouteBudget::with_max_search_nodes(0);
        let (guides, stats) = router.route_with_budget(&design, &budget);
        assert_eq!(stats.outcome, Outcome::Degraded(StopReason::SearchNodes));
        assert_pins_covered(&design, &guides);
    }

    #[test]
    fn a_cancelled_run_aborts_with_pin_covering_guides() {
        let design = CaseParams::ispd18_like(1).scaled(0.4).generate();
        let cancel = CancelToken::new();
        cancel.cancel();
        let budget = RouteBudget {
            cancel: Some(cancel),
            ..RouteBudget::default()
        };
        let (guides, stats) =
            GlobalRouter::new(GlobalConfig::default()).route_with_budget(&design, &budget);
        assert_eq!(stats.outcome, Outcome::Aborted(StopReason::Cancelled));
        assert_eq!(stats.pattern_routed, 0);
        assert_pins_covered(&design, &guides);
    }
}
