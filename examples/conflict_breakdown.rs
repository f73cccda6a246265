//! Diagnostic example: break the colour conflicts of a Mr.TPL run down by
//! feature kind (wire-wire, wire-pin, pin-pin) and by layer.
//!
//! ```bash
//! cargo run --release --example conflict_breakdown [case-index] [scale]
//! ```

use mr_tpl::color::FeatureKind;
use mr_tpl::prelude::*;

fn kind_name(kind: FeatureKind) -> &'static str {
    match kind {
        FeatureKind::Wire => "wire",
        FeatureKind::Pin => "pin",
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let case_idx: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1);
    let scale: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(1.0);

    let params = if (scale - 1.0).abs() < f64::EPSILON {
        CaseParams::ispd18_like(case_idx)
    } else {
        CaseParams::ispd18_like(case_idx).scaled(scale)
    };
    let design = params.generate();
    let guides = GlobalRouter::new(GlobalConfig::default()).route(&design);
    let result = MrTplRouter::new(MrTplConfig::default()).route(&design, &guides);

    println!(
        "case {}: {} conflicts, {} stitches",
        design.name(),
        result.stats.conflicts,
        result.stats.stitches
    );
    println!("conflict history : {:?}", result.stats.conflict_history);

    let features = result.layout.features();
    let mut by_kind: std::collections::BTreeMap<(String, String), usize> = Default::default();
    let mut by_layer: std::collections::BTreeMap<usize, usize> = Default::default();
    for c in result.layout.conflicts() {
        let mut kinds = [
            kind_name(features[c.a].kind).to_string(),
            kind_name(features[c.b].kind).to_string(),
        ];
        kinds.sort();
        *by_kind
            .entry((kinds[0].clone(), kinds[1].clone()))
            .or_default() += 1;
        *by_layer.entry(c.layer.index()).or_default() += 1;
    }
    println!("-- by feature kind --");
    for ((a, b), n) in &by_kind {
        println!("  {a:>8} / {b:<8} : {n}");
    }
    println!("-- by layer --");
    for (layer, n) in &by_layer {
        println!("  M{:<2} : {n}", layer + 1);
    }
}
