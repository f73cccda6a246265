//! OpenMPL-like triple-patterning layout decomposition baseline.
//!
//! The layout-decomposition flow the paper compares against in Table III
//! colours an *already routed* layout after the fact:
//!
//! 1. **Feature extraction** — routed wires are cut into stitch-candidate
//!    chunks, pins are kept whole (the `features` module).
//! 2. **Conflict-graph construction** — features of different nets on the
//!    same layer closer than `Dcolor` become adjacent (the `graph` module).
//! 3. **Graph simplification** — vertices with fewer than three neighbours
//!    are peeled off (they can always be coloured last) and the residual
//!    graph splits into independent components.
//! 4. **Colouring** — small cores are coloured exactly by backtracking, large
//!    ones greedily; peeled vertices are re-inserted in reverse order
//!    (the `coloring` module).
//!
//! Because the wire geometry is fixed before any colour is known, dense
//! regions routinely contain structures that no 3-colouring can legalise;
//! those show up as the large conflict counts of the OpenMPL column in
//! Table III.
//!
//! # Examples
//!
//! ```
//! use tpl_decompose::{DecomposeConfig, Decomposer};
//! use tpl_drcu::{DrCuConfig, DrCuRouter};
//! use tpl_global::{GlobalConfig, GlobalRouter};
//! use tpl_ispd::CaseParams;
//!
//! let design = CaseParams::ispd19_like(1).scaled(0.25).generate();
//! let guides = GlobalRouter::new(GlobalConfig::default()).route(&design);
//! let routed = DrCuRouter::new(DrCuConfig::default()).route(&design, &guides);
//! let colored = Decomposer::new(DecomposeConfig::default()).decompose(&design, &routed.solution);
//! assert!(colored.stats.uncolored_features == 0);
//! ```

#![warn(missing_docs)]

mod coloring;
mod features;
mod graph;

pub use coloring::color_graph;
pub use features::{extract_features, FeatureNode};
pub use graph::ConflictGraph;

use std::time::Instant;
use tpl_color::{ColoredLayout, Feature, Mask};
use tpl_design::{Design, RoutingSolution};

/// Configuration of the decomposer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DecomposeConfig {
    /// Length (in layer pitches) of a stitch-candidate wire chunk.
    pub chunk_pitches: i64,
    /// Components with at most this many vertices are coloured exactly by
    /// backtracking; larger ones greedily.
    pub exact_component_limit: usize,
    /// Upper bound on backtracking steps per component (safety valve).
    pub max_backtrack_steps: usize,
}

impl Default for DecomposeConfig {
    fn default() -> Self {
        Self {
            chunk_pitches: 6,
            exact_component_limit: 14,
            max_backtrack_steps: 200_000,
        }
    }
}

/// Statistics of a decomposition run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DecomposeStats {
    /// Colour conflicts in the coloured layout (routing-induced pairs).
    pub conflicts: usize,
    /// Stitches in the coloured layout.
    pub stitches: usize,
    /// Number of features (graph vertices).
    pub features: usize,
    /// Number of conflict-graph edges.
    pub edges: usize,
    /// Number of connected components after simplification.
    pub components: usize,
    /// Features that never received a mask (should be zero).
    pub uncolored_features: usize,
    /// Wall-clock decomposition time in seconds.
    pub runtime_seconds: f64,
}

/// The outcome of a decomposition run.
#[derive(Clone, Debug)]
pub struct DecomposeResult {
    /// The coloured layout used for evaluation.
    pub layout: ColoredLayout,
    /// Per-feature mask assignment, parallel to the extracted feature list.
    pub masks: Vec<Option<Mask>>,
    /// Run statistics.
    pub stats: DecomposeStats,
}

/// The OpenMPL-like layout decomposer.
#[derive(Clone, Debug)]
pub struct Decomposer {
    config: DecomposeConfig,
}

impl Decomposer {
    /// Creates a decomposer with the given configuration.
    pub fn new(config: DecomposeConfig) -> Self {
        Self { config }
    }

    /// Colours a routed layout; traced, each stage is a `decompose.*` span.
    pub fn decompose(&self, design: &Design, solution: &RoutingSolution) -> DecomposeResult {
        let start = Instant::now();
        let nodes = extract_features(design, solution, self.config.chunk_pitches);
        let graph = ConflictGraph::build(design, &nodes);
        let (masks, components) = color_graph(&graph, &nodes, &self.config);

        let _span = tpl_trace::span!("decompose.evaluate");
        let mut layout = ColoredLayout::new(
            design.die(),
            design.tech().num_layers(),
            design.tech().dcolor(),
        );
        for (node, mask) in nodes.iter().zip(masks.iter()) {
            layout.add(Feature {
                net: Some(node.net),
                layer: node.layer,
                rect: node.rect,
                mask: *mask,
                kind: node.kind,
            });
        }
        let layout_stats = layout.stats();
        let stats = DecomposeStats {
            conflicts: layout_stats.conflicts,
            stitches: layout_stats.stitches,
            features: nodes.len(),
            edges: graph.num_edges(),
            components,
            uncolored_features: masks.iter().filter(|m| m.is_none()).count(),
            runtime_seconds: start.elapsed().as_secs_f64(),
        };
        DecomposeResult {
            layout,
            masks,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpl_drcu::{DrCuConfig, DrCuRouter};
    use tpl_global::{GlobalConfig, GlobalRouter};
    use tpl_ispd::CaseParams;

    #[test]
    fn decomposes_a_routed_benchmark_without_leaving_uncolored_features() {
        let design = CaseParams::ispd19_like(1).scaled(0.35).generate();
        let guides = GlobalRouter::new(GlobalConfig::default()).route(&design);
        let routed = DrCuRouter::new(DrCuConfig::default()).route(&design, &guides);
        let result =
            Decomposer::new(DecomposeConfig::default()).decompose(&design, &routed.solution);
        assert_eq!(result.stats.uncolored_features, 0);
        assert!(result.stats.features > 0);
        assert!(result.stats.edges > 0);
        assert_eq!(result.masks.len(), result.stats.features);
    }

    #[test]
    fn decomposition_is_deterministic() {
        let design = CaseParams::ispd19_like(1).scaled(0.3).generate();
        let guides = GlobalRouter::new(GlobalConfig::default()).route(&design);
        let routed = DrCuRouter::new(DrCuConfig::default()).route(&design, &guides);
        let a = Decomposer::new(DecomposeConfig::default()).decompose(&design, &routed.solution);
        let b = Decomposer::new(DecomposeConfig::default()).decompose(&design, &routed.solution);
        assert_eq!(a.masks, b.masks);
        assert_eq!(a.stats.conflicts, b.stats.conflicts);
        assert_eq!(a.stats.stitches, b.stats.stitches);
    }

    #[test]
    fn chunk_length_controls_feature_granularity() {
        // Finer stitch candidates split wires into more features; both
        // granularities colour every feature.
        let design = CaseParams::ispd19_like(1).scaled(0.3).generate();
        let guides = GlobalRouter::new(GlobalConfig::default()).route(&design);
        let routed = DrCuRouter::new(DrCuConfig::default()).route(&design, &guides);
        let coarse = Decomposer::new(DecomposeConfig {
            chunk_pitches: 1_000,
            ..DecomposeConfig::default()
        })
        .decompose(&design, &routed.solution);
        let fine = Decomposer::new(DecomposeConfig {
            chunk_pitches: 4,
            ..DecomposeConfig::default()
        })
        .decompose(&design, &routed.solution);
        assert!(fine.stats.features > coarse.stats.features);
        assert_eq!(fine.stats.uncolored_features, 0);
        assert_eq!(coarse.stats.uncolored_features, 0);
    }
}
