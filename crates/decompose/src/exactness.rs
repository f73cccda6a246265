//! The one pair scan against the four scans it replaces.
//!
//! The oracle keeps the old code: the conflict graph built over its own
//! spatial index, the sibling lists grouped by net and layer, and the
//! conflict and stitch counts each rescanning the masked layout.  On drcu
//! routes of the benchmark suites, the decomposer must see the same
//! neighbours and siblings, in the same order, and report the same counts.

use crate::{extract_features, ConflictGraph, DecomposeConfig, Decomposer};
use std::collections::HashMap;
use std::ops::RangeInclusive;
use tpl_color::{ColoredLayout, Feature, FeatureKind};
use tpl_design::Design;
use tpl_drcu::{DrCuConfig, DrCuRouter};
use tpl_geom::BinIndex;
use tpl_global::{GlobalConfig, GlobalRouter};
use tpl_ispd::Suite;

/// Each layer's spatial index of `features`, ids being feature indices.
fn layer_indexes(design: &Design, features: &[Feature]) -> Vec<BinIndex> {
    let bin = (4 * design.tech().dcolor()).max(64);
    let mut index: Vec<BinIndex> = (0..design.tech().num_layers())
        .map(|_| BinIndex::new(design.die(), bin))
        .collect();
    for (i, f) in features.iter().enumerate() {
        index[f.layer.index()].insert(i as u64, f.rect);
    }
    index
}

/// The old `ConflictGraph::build`: adjacency lists and edge count.
fn old_graph(design: &Design, features: &[Feature]) -> (Vec<Vec<usize>>, usize) {
    let dcolor = design.tech().dcolor();
    let index = layer_indexes(design, features);
    let mut adjacency = vec![Vec::new(); features.len()];
    let mut num_edges = 0;
    for (i, n) in features.iter().enumerate() {
        let window = n.rect.expanded(dcolor - 1);
        for j in index[n.layer.index()].query(&window) {
            let j = j as usize;
            if j <= i || features[j].net == n.net {
                continue;
            }
            if n.rect.spacing_to(&features[j].rect) < dcolor {
                adjacency[i].push(j);
                adjacency[j].push(i);
                num_edges += 1;
            }
        }
    }
    for adj in &mut adjacency {
        adj.sort_unstable();
        adj.dedup();
    }
    (adjacency, num_edges)
}

/// The old `sibling_lists`: touching features grouped by net and layer.
fn old_siblings(features: &[Feature]) -> Vec<Vec<usize>> {
    let mut by_net: HashMap<(u32, u32), Vec<usize>> = HashMap::new();
    for (i, f) in features.iter().enumerate() {
        by_net.entry((f.net.0, f.layer.0)).or_default().push(i);
    }
    let mut siblings = vec![Vec::new(); features.len()];
    for members in by_net.values() {
        for (a_idx, &a) in members.iter().enumerate() {
            for &b in &members[a_idx + 1..] {
                if features[a].rect.intersects(&features[b].rect) {
                    siblings[a].push(b);
                    siblings[b].push(a);
                }
            }
        }
    }
    siblings
}

/// Feature index pairs `(i, j)`, `i < j`.
type PairList = Vec<(usize, usize)>;

/// The old two scans of a masked layout: its conflicts (pin-pin pairs
/// excluded) and its stitches, as ascending pairs.
fn old_counts(design: &Design, features: &[Feature]) -> (PairList, PairList) {
    let dcolor = design.tech().dcolor();
    let index = layer_indexes(design, features);
    let (mut conflicts, mut stitches) = (Vec::new(), Vec::new());
    for (i, f) in features.iter().enumerate() {
        let Some(mask_i) = f.mask else { continue };
        let layer = &index[f.layer.index()];
        for j in layer.query(&f.rect.expanded(dcolor - 1)) {
            let (j, g) = (j as usize, &features[j as usize]);
            let both_pins = f.kind == FeatureKind::Pin && g.kind == FeatureKind::Pin;
            if j > i
                && g.net != f.net
                && g.mask == Some(mask_i)
                && !both_pins
                && f.rect.spacing_to(&g.rect) < dcolor
            {
                conflicts.push((i, j));
            }
        }
        for j in layer.query(&f.rect) {
            let (j, g) = (j as usize, &features[j as usize]);
            if j > i
                && g.net == f.net
                && g.mask.is_some_and(|m| m != mask_i)
                && f.rect.intersects(&g.rect)
            {
                stitches.push((i, j));
            }
        }
    }
    (conflicts, stitches)
}

/// Checks the decomposition of a drcu route of `design` against the old
/// scans.
fn assert_same_pairs(design: &Design) {
    let case = design.name();
    let guides = GlobalRouter::new(GlobalConfig::default()).route(design);
    let solution = DrCuRouter::new(DrCuConfig::default())
        .route(design, &guides)
        .solution;
    let config = DecomposeConfig::default();
    let features = extract_features(design, &solution, config.chunk_pitches);
    let mut layout = ColoredLayout::of_design(design);
    for f in &features {
        layout.add(*f);
    }
    let graph = ConflictGraph::build(&layout);
    let (adjacency, num_edges) = old_graph(design, &features);
    let siblings = old_siblings(&features);
    assert!(num_edges > 0, "{case}: no conflict edges");
    assert_eq!(graph.num_edges(), num_edges, "{case}: edges");
    for v in 0..features.len() {
        assert_eq!(
            graph.neighbors(v),
            adjacency[v],
            "{case}: neighbours of {v}"
        );
        assert_eq!(graph.siblings(v), siblings[v], "{case}: siblings of {v}");
    }

    let result = Decomposer::new(config).decompose(design, &solution);
    let masked = result.layout.features().to_vec();
    let mut unmasked = masked.clone();
    unmasked.iter_mut().for_each(|f| f.mask = None);
    assert_eq!(unmasked, features, "{case}: extracted features");
    let (conflicts, stitches) = old_counts(design, &masked);
    let got: PairList = result
        .layout
        .conflicts()
        .iter()
        .map(|c| (c.a, c.b))
        .collect();
    assert_eq!(got, conflicts, "{case}: conflicts");
    let got: PairList = result
        .layout
        .stitches()
        .iter()
        .map(|s| (s.a, s.b))
        .collect();
    assert_eq!(got, stitches, "{case}: stitches");
    assert_eq!(result.stats.conflicts, conflicts.len(), "{case}");
    assert_eq!(result.stats.stitches, stitches.len(), "{case}");
    assert_eq!(result.stats.edges, num_edges, "{case}");
}

fn check_suite(suite: Suite, scale: f64, cases: RangeInclusive<usize>) {
    for idx in cases {
        assert_same_pairs(&suite.case(idx).scaled(scale).generate());
    }
}

#[test]
fn one_pair_scan_matches_the_old_scans_on_small_cases() {
    check_suite(Suite::Ispd18, 0.3, 1..=10);
    check_suite(Suite::Ispd19, 0.3, 1..=10);
}

/// The full-size form: drcu routes of ISPD-19-like ×1.0 and ISPD-18-like
/// ×0.5, cases 1–10.  Run it in release: `cargo test --release -p
/// tpl-decompose -- --ignored`.
#[test]
#[ignore = "full suites; run in release with --ignored"]
fn one_pair_scan_matches_the_old_scans_on_full_suites() {
    check_suite(Suite::Ispd19, 1.0, 1..=10);
    check_suite(Suite::Ispd18, 0.5, 1..=10);
}
