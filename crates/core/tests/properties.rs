//! Property tests for the cached vertex record of the colour-state search.

use proptest::prelude::*;
use tpl_color::{ColorCostCache, ColorMap, Feature, Mask};
use tpl_design::{Design, LayerId, NetId, RouteGuides};
use tpl_geom::{Dir, Rect};
use tpl_grid::{
    guide_membership, CostParams, DenseBitSet, GridGraph, GridState, PinCoverage, TradCost,
    VertexId,
};
use tpl_ispd::CaseParams;

/// Half-width of the wire footprint the cache measures pressure around.
const HALF_WIDTH: i64 = 4;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On a generated case with random occupancy, history, guides and
    /// coloured wires, for every vertex: the direction-class base plus the
    /// record's node penalty equals `TradCost::step` and the term-by-term
    /// sum, the record's pressure equals a fresh `mask_pressure` query, and a
    /// blocked vertex has no record.
    #[test]
    fn record_matches_the_step_cost_and_a_fresh_pressure_query(
        salt in any::<u64>(),
        net in 0usize..64,
        occupied in prop::collection::vec((any::<u32>(), 0usize..64), 0..400),
        history in prop::collection::vec((any::<u32>(), 1u32..4), 0..400),
        guides in prop::collection::vec((0usize..4, 0i64..900, 0i64..900, 20i64..400), 0..6),
        wires in prop::collection::vec((0usize..4, 0i64..900, 0i64..900, 0usize..64, 0usize..3), 0..80),
    ) {
        let mut params = CaseParams::ispd18_like(1);
        params.seed = params.seed.wrapping_add(salt);
        let design = params.generate();
        let grid = GridGraph::build(&design);
        let coverage = PinCoverage::build(&grid, &design);
        let num_nets = design.nets().len();
        let num_layers = grid.num_layers();
        let net = NetId::new((net % num_nets) as u32);
        let vertex = |raw: u32| VertexId::new(raw % grid.num_vertices() as u32);

        let mut state = GridState::new(&grid, &design);
        for &(raw, owner) in &occupied {
            state.occupy(vertex(raw), NetId::new((owner % num_nets) as u32));
        }
        for &(raw, times) in &history {
            state.add_history(vertex(raw), 60 * times);
        }
        let mut route_guides = RouteGuides::new(num_nets);
        for &(layer, x, y, size) in &guides {
            let layer = LayerId::from(layer % num_layers);
            route_guides.add(net, (layer, layer), Rect::from_coords(x, y, x + size, y + size / 2));
        }
        let mut in_guide = DenseBitSet::new(grid.num_vertices());
        guide_membership(&grid, &route_guides, net, &mut in_guide);
        let mut map = ColorMap::new(&grid, design.tech().dcolor());
        for &(layer, x, y, owner, mask) in &wires {
            map.insert(Feature::wire(
                NetId::new((owner % num_nets) as u32),
                LayerId::from(layer % num_layers),
                Rect::from_coords(x, y, x + 120, y + 8),
                Some(Mask::from_index(mask)),
            ));
        }

        let cost = CostParams::default();
        let trad = TradCost {
            grid: &grid,
            state: &state,
            coverage: &coverage,
            params: &cost,
            net,
            in_guide: &in_guide,
        };
        let mut cache = ColorCostCache::new(&grid);
        cache.begin();
        for v in grid.iter_vertices() {
            let record = cache.record(&trad, &map, v);
            prop_assert_eq!(record.is_none(), state.is_blocked(v));
            let Some((penalty, pressure)) = record else {
                continue;
            };
            let footprint = Rect::from_point(grid.point_of(v)).expanded(HALF_WIDTH);
            let fresh = map.mask_pressure(net, grid.layer_of(v), &footprint);
            prop_assert_eq!(pressure.map(usize::from), fresh);
            // Every step into `v`: from each neighbour, in the opposite
            // direction of `v`'s own step to it.
            for (dir, from) in grid.neighbors(v) {
                let to_v = dir.opposite();
                let split = trad.base(grid.layer_of(from), to_v) + penalty;
                let step = trad.step(from, v, to_v).expect("v is not blocked");
                prop_assert!(split == step, "{:?} into {}", to_v, v);
                let unsplit = unsplit_step(&trad, &design, from, v, to_v);
                prop_assert!(step == unsplit, "{:?} into {}", to_v, v);
            }
        }
    }
}

/// `Cost_trad` summed term by term onto the direction-class cost, the
/// association the step used before it was split into base and penalty,
/// with the foreign-pin term read from the design.
fn unsplit_step(
    trad: &TradCost<'_>,
    design: &Design,
    from: VertexId,
    to: VertexId,
    dir: Dir,
) -> u64 {
    let p = trad.params;
    let pitch = trad.grid.pitch();
    let mut c = if dir.is_via() {
        u64::from(p.via)
    } else if dir.axis() != Some(trad.grid.layer_axis(trad.grid.layer_of(from))) {
        p.wrong_way_cost(pitch)
    } else {
        p.wire_cost(pitch)
    };
    if dir.is_planar() && trad.grid.layer_of(to).index() == 0 {
        c *= u64::from(p.base_layer_mult);
    }
    if !trad.in_guide.get(to.index()) {
        c += u64::from(p.out_of_guide) * pitch as u64;
    }
    if trad.state.is_occupied_by_other(to, trad.net) {
        c += u64::from(p.occupied);
    }
    if let Some(pin) = trad.coverage.pin_at(to) {
        if design.pin(pin).net() != trad.net {
            c += u64::from(p.occupied);
        }
    }
    c + u64::from(trad.state.history(to))
}
