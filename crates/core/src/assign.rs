//! Final mask assignment and coloured-geometry emission.

use crate::{NetBuffers, SearchContext};
use std::collections::HashMap;
use tpl_color::{color_route, ColorCostCache, ColorSetArena, ColoredPath, Mask, SegSetId};
use tpl_grid::{NetRoute, TradCost, VertexId};

/// Commits a final mask to every segSet of a net and emits the coloured
/// geometry: the route's segments, their masks and its pins' masks (`None`
/// only for a pin no coloured wire reaches, which happens for failed nets),
/// and the number of segSets (mask regions) the net was divided into.
///
/// For every segSet the candidate mask with the smallest accumulated
/// colour-pressure over its member vertices wins (deterministic tie-break on
/// mask order).  The paths, each vertex with its segSet's mask, then become
/// the net's wires and pin masks by [`color_route`], the rule the DAC'12
/// baseline colours by too.
pub fn assign_and_emit(
    ctx: &SearchContext<'_>,
    arena: &mut ColorSetArena,
    buffers: &NetBuffers,
    cache: &mut ColorCostCache,
    paths: &[Vec<VertexId>],
) -> (NetRoute<Option<Mask>>, usize) {
    let TradCost {
        grid,
        design,
        coverage,
        net,
        ..
    } = ctx.trad;
    let map = ctx.map;
    // 1. Group vertices by segSet.
    let mut members: HashMap<SegSetId, Vec<VertexId>> = HashMap::new();
    for path in paths {
        for &v in path {
            if let Some(vs) = buffers.ver_set(v) {
                members.entry(arena.seg_of(vs)).or_default().push(v);
            }
        }
    }

    // 2. Pick a mask per segSet: candidate with the lowest pressure sum.
    let mut seg_mask: HashMap<SegSetId, Mask> = HashMap::new();
    let mut seg_ids: Vec<SegSetId> = members.keys().copied().collect();
    seg_ids.sort_unstable();
    for seg in seg_ids {
        let state = arena.seg_state(seg);
        let candidates: Vec<Mask> = if state.is_empty() {
            Mask::ALL.to_vec()
        } else {
            state.candidates().collect()
        };
        let vertices = &members[&seg];
        let mut best = candidates[0];
        let mut best_pressure = u64::MAX;
        for mask in candidates {
            let pressure: u64 = vertices
                .iter()
                .map(|v| {
                    let (_, pressure) = cache
                        .record(&ctx.trad, map, *v)
                        .expect("the search never enters a blocked vertex");
                    pressure[mask.index()] as u64
                })
                .sum();
            if pressure < best_pressure {
                best_pressure = pressure;
                best = mask;
            }
        }
        seg_mask.insert(seg, best);
    }

    // 3. Wires and pin masks by the colour routers' one rule.
    let mask_of = |v: &VertexId| seg_mask.get(&arena.seg_of(buffers.ver_set(*v)?)).copied();
    let colored: Vec<ColoredPath> = paths
        .iter()
        .map(|path| (path.clone(), path.iter().map(mask_of).collect()))
        .collect();
    let route = color_route(grid, design, coverage, map, net, &colored);
    (route, seg_mask.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpl_color::{ColorMap, ColorState, TplConfig};
    use tpl_design::{Design, DesignBuilder, NetId, Technology};
    use tpl_geom::Rect;
    use tpl_grid::{DenseBitSet, GridGraph, GridState, PinCoverage};

    struct Fixture {
        design: Design,
        grid: GridGraph,
        gstate: GridState,
        coverage: PinCoverage,
        map: ColorMap,
        config: TplConfig,
        in_guide: DenseBitSet,
    }

    fn fixture() -> Fixture {
        let mut b = DesignBuilder::new(
            "assign",
            Technology::ispd_like(3),
            Rect::from_coords(0, 0, 400, 400),
        );
        let p0 = b.add_pin_shape("a", 0, Rect::from_coords(6, 6, 14, 14));
        let p1 = b.add_pin_shape("b", 0, Rect::from_coords(166, 6, 174, 14));
        b.add_net("n0", vec![p0, p1]);
        let design = b.build().unwrap();
        let grid = GridGraph::build(&design);
        Fixture {
            gstate: GridState::new(&grid, &design),
            coverage: PinCoverage::build(&grid, &design),
            map: ColorMap::new(&grid, design.tech().dcolor()),
            config: TplConfig::default(),
            in_guide: DenseBitSet::full(grid.num_vertices()),
            grid,
            design,
        }
    }

    impl Fixture {
        /// Assigns and emits net 0's paths under a fresh cache scope.
        fn assign(
            &self,
            arena: &mut ColorSetArena,
            buffers: &NetBuffers,
            paths: &[Vec<VertexId>],
        ) -> (NetRoute<Option<Mask>>, usize) {
            let trad = TradCost {
                grid: &self.grid,
                state: &self.gstate,
                coverage: &self.coverage,
                design: &self.design,
                params: &self.config.cost,
                net: NetId::new(0),
                in_guide: &self.in_guide,
            };
            let ctx = SearchContext::new(trad, &self.config, &self.map);
            let mut cache = ColorCostCache::new(&self.grid);
            cache.begin();
            assign_and_emit(&ctx, arena, buffers, &mut cache, paths)
        }
    }

    /// Builds buffers describing a straight horizontal path on layer 0 with
    /// uniform colour state, then checks the emitted geometry.
    #[test]
    fn uniform_path_emits_one_segment_with_one_mask() {
        let f = fixture();
        let grid = &f.grid;
        let mut buffers = NetBuffers::new(grid, &f.config.cost);
        let mut arena = ColorSetArena::new();
        buffers.begin_net();
        buffers.begin_search();

        let path: Vec<VertexId> = (0..9).map(|i| grid.vertex(0, i, 0)).collect();
        let vs = arena.make_ver_set(ColorState::all());
        for (i, &v) in path.iter().enumerate() {
            let prev = if i == 0 { None } else { Some(path[i - 1]) };
            buffers.relax(v, i as u64, prev, ColorState::all());
            buffers.set_ver_set(v, vs);
        }

        let (colored, seg_sets) = f.assign(&mut arena, &buffers, std::slice::from_ref(&path));
        assert_eq!(colored.routed.segments.len(), 1);
        assert_eq!(colored.labels.len(), 1);
        assert_eq!(colored.labels[0], Some(Mask::Red)); // deterministic tie-break
        assert_eq!(colored.routed.wirelength(), 8 * 20);
        assert_eq!(seg_sets, 1);
        // Both pins received the same mask.
        assert!(colored.pins.iter().all(|(_, m)| *m == Some(Mask::Red)));
    }

    #[test]
    fn mask_change_splits_the_wire_and_keeps_it_continuous() {
        let f = fixture();
        let grid = &f.grid;
        let mut buffers = NetBuffers::new(grid, &f.config.cost);
        let mut arena = ColorSetArena::new();
        buffers.begin_net();
        buffers.begin_search();

        let path: Vec<VertexId> = (0..9).map(|i| grid.vertex(0, i, 0)).collect();
        // First half green, second half red (two segSets = one stitch).
        let vs_a = arena.make_ver_set(ColorState::from_mask(Mask::Green));
        let vs_b = arena.make_ver_set(ColorState::from_mask(Mask::Red));
        for (i, &v) in path.iter().enumerate() {
            let prev = if i == 0 { None } else { Some(path[i - 1]) };
            let state = if i < 4 {
                ColorState::from_mask(Mask::Green)
            } else {
                ColorState::from_mask(Mask::Red)
            };
            buffers.relax(v, i as u64, prev, state);
            buffers.set_ver_set(v, if i < 4 { vs_a } else { vs_b });
        }

        let (colored, seg_sets) = f.assign(&mut arena, &buffers, std::slice::from_ref(&path));
        assert_eq!(colored.routed.segments.len(), 2);
        assert_eq!(seg_sets, 2);
        let masks: Vec<_> = colored.labels.iter().flatten().collect();
        assert_eq!(masks, vec![&Mask::Green, &Mask::Red]);
        // The two segments share the boundary point: total length is the full
        // span even though the wire is split.
        let total: i64 = colored.routed.segments.iter().map(|s| s.length()).sum();
        assert_eq!(total, 8 * 20);
        // The rectangles of the two segments touch (electrically continuous).
        let r0 = colored.routed.segments[0].rect();
        let r1 = colored.routed.segments[1].rect();
        assert!(r0.intersects(&r1));
    }

    #[test]
    fn corner_paths_split_at_the_bend() {
        let f = fixture();
        let grid = &f.grid;
        let mut buffers = NetBuffers::new(grid, &f.config.cost);
        let mut arena = ColorSetArena::new();
        buffers.begin_net();
        buffers.begin_search();

        // L-shaped path on layer 0: east 4 steps then north 3 steps.
        let mut path: Vec<VertexId> = (0..5).map(|i| grid.vertex(0, i, 0)).collect();
        path.extend((1..4).map(|j| grid.vertex(0, 4, j)));
        let vs = arena.make_ver_set(ColorState::all());
        for (i, &v) in path.iter().enumerate() {
            let prev = if i == 0 { None } else { Some(path[i - 1]) };
            buffers.relax(v, i as u64, prev, ColorState::all());
            buffers.set_ver_set(v, vs);
        }
        let (colored, seg_sets) = f.assign(&mut arena, &buffers, &[path]);
        assert_eq!(colored.routed.segments.len(), 2);
        assert_eq!(colored.routed.wirelength(), (4 + 3) * 20);
        // Single segSet: no stitch despite the bend.
        assert_eq!(seg_sets, 1);
        let unique: std::collections::HashSet<_> = colored.labels.iter().flatten().collect();
        assert_eq!(unique.len(), 1);
    }

    #[test]
    fn via_paths_emit_vias_and_segments_on_both_layers() {
        let f = fixture();
        let grid = &f.grid;
        let mut buffers = NetBuffers::new(grid, &f.config.cost);
        let mut arena = ColorSetArena::new();
        buffers.begin_net();
        buffers.begin_search();

        let path = vec![
            grid.vertex(0, 0, 0),
            grid.vertex(0, 1, 0),
            grid.vertex(1, 1, 0),
            grid.vertex(1, 1, 1),
            grid.vertex(1, 1, 2),
        ];
        let vs = arena.make_ver_set(ColorState::all());
        for (i, &v) in path.iter().enumerate() {
            let prev = if i == 0 { None } else { Some(path[i - 1]) };
            buffers.relax(v, i as u64, prev, ColorState::all());
            buffers.set_ver_set(v, vs);
        }
        let (colored, _) = f.assign(&mut arena, &buffers, &[path]);
        assert_eq!(colored.routed.vias.len(), 1);
        assert_eq!(colored.routed.segments.len(), 2);
        assert_eq!(colored.routed.segments[0].layer.index(), 0);
        assert_eq!(colored.routed.segments[1].layer.index(), 1);
    }
}
