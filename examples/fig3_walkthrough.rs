//! A narrated reproduction of Fig. 3 of the paper: routing a single 4-pin net
//! with Mr.TPL next to two pre-coloured neighbour wires (mask 2 and mask 3),
//! showing how the colour state evolves and where the final masks land.
//!
//! ```bash
//! cargo run --release --example fig3_walkthrough
//! ```

use mr_tpl::color::{ColorCostCache, ColorMap, ColorState, Feature, Mask};
use mr_tpl::core::{backtrace, search, MrTplConfig, NetBuffers, SearchContext};
use mr_tpl::design::{DesignBuilder, LayerId, NetId, Technology};
use mr_tpl::geom::Rect;
use mr_tpl::grid::{DenseBitSet, GridGraph, GridState, PinCoverage, TradCost};
use tpl_color::ColorSetArena;

fn main() {
    // A small layout mirroring Fig. 3: a 4-pin net (pins 1..4) that must be
    // routed while two already-coloured wires (mask 2 = green, mask 3 = blue)
    // run through the middle of its bounding box.
    let tech = Technology::ispd_like(2);
    let mut builder = DesignBuilder::new("fig3", tech, Rect::from_coords(0, 0, 400, 400));
    let p1 = builder.add_pin_shape("pin1", 0, Rect::from_coords(26, 306, 34, 314));
    let p2 = builder.add_pin_shape("pin2", 0, Rect::from_coords(26, 106, 34, 114));
    let p3 = builder.add_pin_shape("pin3", 0, Rect::from_coords(346, 306, 354, 314));
    let p4 = builder.add_pin_shape("pin4", 0, Rect::from_coords(346, 106, 354, 114));
    let net = builder.add_net("fig3_net", vec![p1, p2, p3, p4]);
    let design = builder.build().expect("valid design");

    let grid = GridGraph::build(&design);
    let gstate = GridState::new(&grid, &design);
    let coverage = PinCoverage::build(&grid, &design);
    let mut map = ColorMap::new(&grid, design.tech().dcolor());

    // The two pre-coloured neighbour wires of Fig. 3 (mask 2 and mask 3).
    // They run across the middle of the net's bounding box on both routing
    // layers, so any connection between the upper and lower pins has to pass
    // within `Dcolor` of them and the colour state is forced to narrow.
    for layer in [0u32, 1u32] {
        map.insert(Feature::wire(
            NetId::new(7),
            LayerId::new(layer),
            Rect::from_coords(80, 196, 400, 204),
            Some(Mask::Green),
        ));
        map.insert(Feature::wire(
            NetId::new(8),
            LayerId::new(layer),
            Rect::from_coords(0, 236, 320, 244),
            Some(Mask::Blue),
        ));
    }

    let config = MrTplConfig::default();
    let in_guide = DenseBitSet::full(grid.num_vertices());
    let trad = TradCost {
        grid: &grid,
        state: &gstate,
        coverage: &coverage,
        design: &design,
        params: &config.cost,
        net,
        in_guide: &in_guide,
    };
    let ctx = SearchContext::new(trad, &config, &map);

    let mut buffers = NetBuffers::new(&grid, &config.cost);
    let mut cache = ColorCostCache::new(&grid);
    let mut arena = ColorSetArena::new();
    buffers.begin_net();
    cache.begin();

    println!("Fig. 3 walkthrough: routing the 4-pin net\n");
    println!("step 0: seed the queue with the vertices covered by pin1, color state 111");

    let mut tree: Vec<_> = coverage.vertices(p1).to_vec();
    let mut unreached = vec![p2, p3, p4];
    let mut step = 1;
    while !unreached.is_empty() {
        let sources: Vec<_> = tree
            .iter()
            .map(|&v| {
                let state = buffers
                    .ver_set(v)
                    .map(|vs| arena.seg_state(arena.seg_of(vs)))
                    .unwrap_or_else(ColorState::all);
                (v, state)
            })
            .collect();
        let Some((dst, pin)) = search(&ctx, &mut buffers, &mut cache, &sources, &unreached) else {
            println!("  no path found — layout infeasible");
            break;
        };
        let reached_state = buffers.state(dst);
        let path = backtrace(&mut buffers, &mut arena, dst);
        println!(
            "step {step}: reached {} — color state at the pin is {} ({} candidate mask{})",
            design.pin(pin).name(),
            reached_state,
            reached_state.len(),
            if reached_state.len() == 1 { "" } else { "s" }
        );
        let seg = arena.seg_of(buffers.ver_set(dst).expect("on path"));
        println!(
            "         backtrace groups {} vertices; segment color-set state is now {}",
            path.len(),
            arena.seg_state(seg)
        );
        for &v in &path {
            if !tree.contains(&v) {
                tree.push(v);
            }
        }
        unreached.retain(|p| *p != pin);
        step += 1;
    }

    // Final mask decision per segSet.
    println!("\nfinal layout (like Fig. 3(g)):");
    let mut seen = std::collections::BTreeSet::new();
    for &v in &tree {
        if let Some(vs) = buffers.ver_set(v) {
            let seg = arena.seg_of(vs);
            if seen.insert(seg) {
                let state = arena.seg_state(seg);
                let mask = state.first().unwrap_or(Mask::Red);
                println!(
                    "  segment color-set {:?}: state {} -> printed on mask {} ",
                    seg, state, mask
                );
            }
        }
    }
    println!("\nneighbour wires keep mask 2 (green) and mask 3 (blue); the routed net");
    println!("split into segment color-sets exactly where the colour state had to change,");
    println!("which is where the paper's Fig. 3 introduces its stitch.");
}
