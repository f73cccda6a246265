//! Cross-crate integration tests: the full flow from benchmark generation
//! through global routing, detailed routing (all three methods) and
//! evaluation.

use mr_tpl::dac12::{Dac12Config, Dac12Router};
use mr_tpl::decompose::{DecomposeConfig, Decomposer};
use mr_tpl::ispd::{score_solution, ScoreWeights};
use mr_tpl::prelude::*;

fn tiny_case18() -> (Design, RouteGuides) {
    let design = CaseParams::ispd18_like(1).scaled(0.4).generate();
    let guides = GlobalRouter::new(GlobalConfig::default()).route(&design);
    (design, guides)
}

fn tiny_case19() -> (Design, RouteGuides) {
    let design = CaseParams::ispd19_like(1).scaled(0.4).generate();
    let guides = GlobalRouter::new(GlobalConfig::default()).route(&design);
    (design, guides)
}

#[test]
fn mrtpl_routes_connects_and_colors_everything() {
    let (design, guides) = tiny_case18();
    let result = MrTplRouter::new(MrTplConfig::default()).route(&design, &guides);
    assert_eq!(result.solution.routed_count(), design.nets().len());
    assert_eq!(result.stats.failed_nets, 0);
    for net in design.nets() {
        let routed = result.solution.get(net.id()).unwrap();
        assert!(routed.connects_all_pins(&design, net.id()));
        let masks = &result.segment_masks[net.id().index()];
        assert_eq!(masks.len(), routed.segments.len());
        assert!(masks.iter().all(|m| m.is_some()));
    }
    // The score of a complete solution never includes unrouted-net penalties.
    let score = score_solution(&design, &guides, &result.solution, &ScoreWeights::default());
    assert_eq!(score.unrouted_nets, 0);
}

#[test]
fn all_three_methods_agree_on_the_routing_contract() {
    let (design, guides) = tiny_case18();

    let ours = MrTplRouter::new(MrTplConfig::default()).route(&design, &guides);
    let dac = Dac12Router::new(Dac12Config::default()).route(&design, &guides);
    let blind = DrCuRouter::new(DrCuConfig::default()).route(&design, &guides);

    for net in design.nets() {
        for (label, solution) in [
            ("mrtpl", &ours.solution),
            ("dac12", &dac.solution),
            ("drcu", &blind.solution),
        ] {
            let routed = solution.get(net.id()).unwrap_or_else(|| {
                panic!("{label} did not route net {}", net.name());
            });
            assert!(
                routed.connects_all_pins(&design, net.id()),
                "{label} broke net {}",
                net.name()
            );
        }
    }
}

#[test]
fn color_aware_routing_beats_or_matches_decomposition_on_conflicts() {
    let (design, guides) = tiny_case19();
    let blind = DrCuRouter::new(DrCuConfig::default()).route(&design, &guides);
    let decomposed =
        Decomposer::new(DecomposeConfig::default()).decompose(&design, &blind.solution);
    let ours = MrTplRouter::new(MrTplConfig::default()).route(&design, &guides);
    assert!(
        ours.stats.conflicts <= decomposed.stats.conflicts,
        "Mr.TPL ({}) should not have more conflicts than decomposition ({})",
        ours.stats.conflicts,
        decomposed.stats.conflicts
    );
}

#[test]
fn the_whole_flow_is_deterministic_end_to_end() {
    let run = || {
        let (design, guides) = tiny_case18();
        let result = MrTplRouter::new(MrTplConfig::default()).route(&design, &guides);
        (
            result.stats.conflicts,
            result.stats.stitches,
            result.solution.total_wirelength(),
            result.solution.total_vias(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn colored_layouts_report_consistent_statistics() {
    let (design, guides) = tiny_case18();
    let result = MrTplRouter::new(MrTplConfig::default()).route(&design, &guides);
    let stats = result.layout.stats();
    assert_eq!(stats.conflicts, result.stats.conflicts);
    assert_eq!(stats.stitches, result.stats.stitches);
    assert_eq!(stats.conflicts, result.layout.conflicts().len());
    assert_eq!(stats.stitches, result.layout.stitches().len());
}
