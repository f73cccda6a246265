//! Workspace-level property tests: invariants that must hold for any
//! generated benchmark, not just the curated ones.

use mr_tpl::prelude::*;
use proptest::prelude::*;
use tpl_ispd::CaseParams;

fn arb_case() -> impl Strategy<Value = CaseParams> {
    (1usize..=3, any::<u16>()).prop_map(|(idx, salt)| {
        let mut params = CaseParams::ispd18_like(idx).scaled(0.35);
        params.seed = params.seed.wrapping_add(salt as u64);
        params
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whatever the seed, Mr.TPL routes every net, connects every pin, and
    /// assigns a mask to every emitted wire segment.
    #[test]
    fn mrtpl_invariants_hold_for_random_benchmarks(params in arb_case()) {
        let design = params.generate();
        let guides = GlobalRouter::new(GlobalConfig::default()).route(&design);
        let result = MrTplRouter::new(MrTplConfig::default()).route(&design, &guides);
        prop_assert_eq!(result.solution.routed_count(), design.nets().len());
        for net in design.nets() {
            let routed = result.solution.get(net.id()).unwrap();
            prop_assert!(routed.connects_all_pins(&design, net.id()));
            let masks = &result.segment_masks[net.id().index()];
            prop_assert_eq!(masks.len(), routed.segments.len());
            prop_assert!(masks.iter().all(|m| m.is_some()));
        }
        // Stitches and conflicts are consistent with the reported layout.
        prop_assert_eq!(result.layout.count_conflicts(), result.stats.conflicts);
        prop_assert_eq!(result.layout.count_stitches(), result.stats.stitches);
    }

    /// The scheduler's worker count never changes a record: for any
    /// generated benchmark, running the method matrix on 2 or 4 workers
    /// produces exactly the records of the sequential run.
    #[test]
    fn worker_count_is_invisible_for_random_benchmarks(params in arb_case()) {
        use mr_tpl::harness::{run_matrix, MethodRegistry, RunOptions};
        let registry = MethodRegistry::builtin();
        let methods = registry.select("mrtpl,drcu").unwrap();
        let cases = [mr_tpl::ispd::Case::synthetic(params)];
        let run = |jobs| {
            run_matrix(&methods, &cases, &RunOptions {
                jobs,
                deterministic: true,
                ..RunOptions::default()
            })
        };
        let base = run(1);
        prop_assert!(base.iter().all(|r| r.record().is_some()));
        for jobs in [2usize, 4] {
            prop_assert_eq!(&run(jobs), &base);
        }
    }

    /// Guides always cover every pin of every net, whatever the seed.
    #[test]
    fn guides_cover_pins_for_random_benchmarks(params in arb_case()) {
        let design = params.generate();
        let guides = GlobalRouter::new(GlobalConfig::default()).route(&design);
        for net in design.nets() {
            for pin in net.pins() {
                let (layer, rect) = design.pin(*pin).shapes()[0];
                prop_assert!(guides.covers(net.id(), layer, &rect));
            }
        }
    }
}

/// Lossless LEF/DEF round-trip: writing any design and parsing it back
/// yields the same design.  `Design`'s equality compares every field, so
/// names, order, technology, every shape and every colourable flag are all
/// covered.
fn assert_lefdef_round_trips(design: &mr_tpl::design::Design) -> Result<(), TestCaseError> {
    use mr_tpl::lefdef::{lower, parse_def, parse_lef, write_def, write_lef};
    let lef_src = write_lef(design.tech());
    let def_src = write_def(design, None);
    let lef = parse_lef(&lef_src).expect("written LEF parses");
    let def = parse_def(&def_src).expect("written DEF parses");
    let lowered = lower(&lef, &def).expect("written pair lowers");
    prop_assert_eq!(&lowered.design, design);
    prop_assert!(lowered.routing.is_none());
    Ok(())
}

proptest! {
    // The round-trip satellite runs a larger sample than the routing
    // invariants above: writing + parsing is cheap, and the corners
    // (obstacle mixes, multi-pin nets, odd die sizes) live in the tails.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any synthetic benchmark survives design -> LEF/DEF -> parse ->
    /// lower unchanged.
    #[test]
    fn lefdef_round_trip_preserves_random_designs(params in arb_roundtrip_case()) {
        assert_lefdef_round_trips(&params.generate())?;
    }
}

/// The round-trip at full size: ISPD-19-like cases 1–10 at ×1.0 with their
/// canonical seeds (the inputs of perfbench's `decompose-ispd19` replica 0),
/// far larger than the proptest's ×0.15–0.40 designs.
#[test]
fn lefdef_round_trip_preserves_full_scale_ispd19_cases() {
    for idx in 1..=10 {
        let design = CaseParams::ispd19_like(idx).scaled(1.0).generate();
        if let Err(e) = assert_lefdef_round_trips(&design) {
            panic!("ISPD-19-like case {idx} ×1.0: {e}");
        }
    }
}

/// A wider parameter space than `arb_case`: both suite families, more
/// scales, any seed — round-tripping is cheap enough to cover it.
fn arb_roundtrip_case() -> impl Strategy<Value = CaseParams> {
    (1usize..=10, any::<u16>(), 0u8..=1, 15u32..=40).prop_map(|(idx, salt, family, scale)| {
        let mut params = if family == 0 {
            CaseParams::ispd18_like(idx)
        } else {
            CaseParams::ispd19_like(idx)
        }
        .scaled(f64::from(scale) / 100.0);
        params.seed = params.seed.wrapping_add(u64::from(salt));
        params
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Routed wiring also survives the round-trip: route a random design,
    /// write the solution into the DEF, parse it back and compare net by
    /// net.
    #[test]
    fn lefdef_round_trip_preserves_routed_wiring(params in arb_case()) {
        use mr_tpl::lefdef::{lower, parse_def, parse_lef, write_def, write_lef};
        let design = params.generate();
        let guides = GlobalRouter::new(GlobalConfig::default()).route(&design);
        let result = MrTplRouter::new(MrTplConfig::default()).route(&design, &guides);
        let lef = parse_lef(&write_lef(design.tech())).expect("written LEF parses");
        let def_src = write_def(&design, Some(&result.solution));
        let def = parse_def(&def_src).expect("written DEF parses");
        let lowered = lower(&lef, &def).expect("written pair lowers");
        let routing = lowered.routing.expect("wiring survives");
        prop_assert_eq!(routing.routed_count(), result.solution.routed_count());
        for net in design.nets() {
            prop_assert_eq!(routing.get(net.id()), result.solution.get(net.id()));
        }
    }
}
