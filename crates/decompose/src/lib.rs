//! OpenMPL-like triple-patterning layout decomposition baseline.
//!
//! The layout-decomposition flow the paper compares against in Table III
//! colours an *already routed* layout after the fact:
//!
//! 1. **Feature extraction** — routed wires are cut into stitch-candidate
//!    chunks, pins are kept whole (the `features` module); the unmasked
//!    features form a [`ColoredLayout`].
//! 2. **Conflict-graph construction** — the layout's one pair scan gives
//!    both kinds of edge: features of different nets on the same layer
//!    closer than `Dcolor` become adjacent, and touching features of one net
//!    become siblings that prefer one mask (the `graph` module).
//! 3. **Graph simplification** — vertices with fewer than three neighbours
//!    are peeled off (they can always be coloured last) and the residual
//!    graph splits into independent components.
//! 4. **Colouring** — small cores are coloured exactly by backtracking, large
//!    ones greedily; peeled vertices are re-inserted in reverse order
//!    (the `coloring` module).  The masks go onto the same layout, whose
//!    kept pairs count the conflicts and stitches.
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
#[cfg(test)]
mod exactness;
mod features;
mod graph;

pub use coloring::color_graph;
pub use features::extract_features;
pub use graph::ConflictGraph;

use std::time::Instant;
use tpl_color::ColoredLayout;
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
    /// The coloured layout used for evaluation: the extracted features, in
    /// order, each with the mask it was given.
    pub layout: ColoredLayout,
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
        let mut layout = ColoredLayout::of_design(design);
        for feature in extract_features(design, solution, self.config.chunk_pitches) {
            layout.add(feature);
        }
        let graph = ConflictGraph::build(&layout);
        let (masks, components) = color_graph(&graph, &self.config);

        let _span = tpl_trace::span!("decompose.evaluate");
        for (i, mask) in masks.iter().enumerate() {
            layout.set_mask(i, *mask);
        }
        let layout_stats = layout.stats();
        let stats = DecomposeStats {
            conflicts: layout_stats.conflicts,
            stitches: layout_stats.stitches,
            features: layout_stats.features,
            edges: graph.num_edges(),
            components,
            uncolored_features: layout_stats.uncolored,
            runtime_seconds: start.elapsed().as_secs_f64(),
        };
        DecomposeResult { layout, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpl_color::Feature;
    use tpl_drcu::{DrCuConfig, DrCuRouter};
    use tpl_geom::Rect;
    use tpl_global::{GlobalConfig, GlobalRouter};
    use tpl_ispd::CaseParams;

    /// The features on a 1000 x 1000 die of two layers at `Dcolor` 45.
    pub(crate) fn layout_of(features: &[Feature]) -> ColoredLayout {
        let mut layout = ColoredLayout::new(Rect::from_coords(0, 0, 1000, 1000), 2, 45);
        for f in features {
            layout.add(*f);
        }
        layout
    }

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
        assert_eq!(result.layout.features().len(), result.stats.features);
    }

    #[test]
    fn decomposition_is_deterministic() {
        let design = CaseParams::ispd19_like(1).scaled(0.3).generate();
        let guides = GlobalRouter::new(GlobalConfig::default()).route(&design);
        let routed = DrCuRouter::new(DrCuConfig::default()).route(&design, &guides);
        let a = Decomposer::new(DecomposeConfig::default()).decompose(&design, &routed.solution);
        let b = Decomposer::new(DecomposeConfig::default()).decompose(&design, &routed.solution);
        let masks = |r: &DecomposeResult| -> Vec<_> {
            r.layout.features().iter().map(|f| f.mask).collect()
        };
        assert_eq!(masks(&a), masks(&b));
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
