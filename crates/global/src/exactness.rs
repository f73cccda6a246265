//! The row-run guides against the per-gcell, per-layer guides they replace.
//!
//! The oracle rebuilds the old guides from the same gcells, one region per
//! expanded gcell on each layer, and every reader of a guide must see the
//! same thing in both: `guide_membership`'s vertex set, `covers` and `bbox`.

use crate::router::guided_cells;
use crate::{GCellGrid, GlobalConfig, GlobalRouter};
use std::ops::RangeInclusive;
use tpl_design::{Design, LayerId, RouteGuides};
use tpl_drcu::{DrCuConfig, DrCuRouter};
use tpl_geom::{Dbu, Rect};
use tpl_grid::{guide_membership, DenseBitSet, GridGraph};
use tpl_ispd::Suite;

/// The guides as the router emitted them before row runs: every gcell of
/// every net, grown by the expansion, as one region on each layer.
fn per_gcell_guides(design: &Design, config: &GlobalConfig) -> RouteGuides {
    let grid = GCellGrid::build(design, config.tracks_per_gcell);
    let e = config.guide_expansion;
    let mut guides = RouteGuides::new(design.nets().len());
    for net in design.nets() {
        for (gx, gy) in guided_cells(design, &grid, net, true).0 {
            let lo = grid.cell_rect(gx.saturating_sub(e), gy.saturating_sub(e));
            let hi = grid.cell_rect((gx + e).min(grid.nx() - 1), (gy + e).min(grid.ny() - 1));
            for layer in 0..design.tech().num_layers() {
                let layer = LayerId::from(layer);
                guides.add(net.id(), (layer, layer), lo.hull(&hi));
            }
        }
    }
    guides
}

/// Checks the router's guides of `design` against the per-gcell oracle at
/// one guide expansion.
fn assert_same_guides(design: &Design, guide_expansion: usize) {
    let config = GlobalConfig {
        guide_expansion,
        ..GlobalConfig::default()
    };
    let runs = GlobalRouter::new(config).route(design);
    let cells = per_gcell_guides(design, &config);
    let case = format!("{} at expansion {guide_expansion}", design.name());
    assert!(runs.total_regions() < cells.total_regions(), "{case}");

    let grid = GridGraph::build(design);
    let mut got = DenseBitSet::new(grid.num_vertices());
    let mut want = DenseBitSet::new(grid.num_vertices());
    for net in design.nets() {
        let id = net.id();
        assert_eq!(runs.bbox(id), cells.bbox(id), "{case}: net {}", net.name());
        guide_membership(&grid, &runs, id, &mut got);
        guide_membership(&grid, &cells, id, &mut want);
        assert!(got == want, "{case}: membership of net {}", net.name());
    }

    let solution = DrCuRouter::new(DrCuConfig::default())
        .route(design, &runs)
        .solution;
    let mut segments = 0;
    for (net, routed) in solution.iter() {
        for seg in &routed.segments {
            let rect = seg.rect();
            let (a, b) = (
                runs.covers(net, seg.layer, &rect),
                cells.covers(net, seg.layer, &rect),
            );
            assert_eq!(a, b, "{case}: {net} segment {rect:?} on {}", seg.layer);
            segments += 1;
        }
    }
    assert!(segments > 0, "{case}: nothing routed");

    // Seeded rects: off-grid corners anywhere around the die, corners on
    // and one unit either side of gcell boundaries (where neighbouring
    // regions meet), and thin rects narrower than a track pitch.
    let die = design.die();
    let side = GCellGrid::build(design, config.tracks_per_gcell).cell_size();
    let pitch = grid.pitch();
    let mut s = 0x9E37_79B9_7F4A_7C15u64 ^ (guide_expansion as u64 + 1);
    let mut r = |m: Dbu| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % m as u64) as Dbu
    };
    for net in design.nets() {
        for k in 0..8 {
            let (x, y) = if k % 2 == 0 {
                (
                    die.lo.x - side + r(die.width() + 2 * side),
                    die.lo.y - side + r(die.height() + 2 * side),
                )
            } else {
                (
                    die.lo.x + side * r(die.width() / side + 2) - 1 + r(3),
                    die.lo.y + side * r(die.height() / side + 2) - 1 + r(3),
                )
            };
            let (w, h) = match k % 4 {
                0 => (r(pitch / 2), r(3 * side)),
                1 => (r(3 * side), r(pitch / 2)),
                2 => (0, r(side)),
                _ => (r(3 * side), r(3 * side)),
            };
            let rect = Rect::from_coords(x, y, x + w, y + h);
            let layer = LayerId::from(r(design.tech().num_layers() as Dbu) as usize);
            let id = net.id();
            assert_eq!(
                runs.covers(id, layer, &rect),
                cells.covers(id, layer, &rect),
                "{case}: net {} rect {rect:?} on {layer}",
                net.name()
            );
        }
    }
}

/// Runs the oracle over cases `cases` of a suite at `scale`, at generator
/// salts 0 and 1 and guide expansions 0, 1 and 2.
fn check_suite(suite: Suite, scale: f64, cases: RangeInclusive<usize>) {
    for salt in 0..2u64 {
        for idx in cases.clone() {
            let mut params = suite.case(idx).scaled(scale);
            params.seed = params.seed.wrapping_add(salt << 32);
            let design = params.generate();
            for expansion in 0..3 {
                assert_same_guides(&design, expansion);
            }
        }
    }
}

#[test]
fn row_runs_guide_exactly_what_per_gcell_guides_did_on_small_cases() {
    check_suite(Suite::Ispd18, 0.3, 1..=10);
    check_suite(Suite::Ispd19, 0.3, 1..=10);
}

/// The full-size form: ISPD-18-like ×0.5 and ISPD-19-like ×1.0, cases
/// 1–10.  Run it in release: `cargo test --release -p tpl-global --
/// --ignored`.
#[test]
#[ignore = "full suites; run in release with --ignored"]
fn row_runs_guide_exactly_what_per_gcell_guides_did_on_full_suites() {
    check_suite(Suite::Ispd18, 0.5, 1..=10);
    check_suite(Suite::Ispd19, 1.0, 1..=10);
}

/// The ISPD-19-like ×1.0 suite at salt 0 took 98,763 regions as one region
/// per expanded gcell per layer, and takes 10,194 as row runs over every
/// layer.  Per-layer or per-gcell duplication would fail this.
#[test]
fn the_ispd19_suite_needs_at_most_10194_guide_regions() {
    let total: usize = (1..=10)
        .map(|idx| {
            let design = Suite::Ispd19.case(idx).generate();
            GlobalRouter::new(GlobalConfig::default())
                .route(&design)
                .total_regions()
        })
        .sum();
    assert!(total <= 10_194, "{total} guide regions");
}
