//! Property-based tests for the design model.

use proptest::prelude::*;
use tpl_design::{DesignBuilder, Technology};
use tpl_geom::Rect;

/// A random but always-valid design: pins inside the die, at least 2 pins per
/// net, every pin owned by exactly one net.
fn arb_design() -> impl Strategy<Value = tpl_design::Design> {
    let net_specs = prop::collection::vec(2usize..6, 1..12);
    (net_specs, 2usize..5, any::<u64>()).prop_map(|(pins_per_net, layers, salt)| {
        let die = Rect::from_coords(0, 0, 4000, 4000);
        let mut b = DesignBuilder::new(format!("prop_{salt}"), Technology::ispd_like(layers), die);
        let mut rng = salt;
        let mut next = move || {
            // Tiny deterministic LCG so the strategy itself stays simple.
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng
        };
        for (ni, npins) in pins_per_net.iter().enumerate() {
            let mut pin_ids = Vec::new();
            for pi in 0..*npins {
                let x = (next() % 3900) as i64;
                let y = (next() % 3900) as i64;
                let layer = (next() % 2) as u32;
                pin_ids.push(b.add_pin_shape(
                    format!("n{ni}_p{pi}"),
                    layer,
                    Rect::from_coords(x, y, x + 20, y + 20),
                ));
            }
            b.add_net(format!("net{ni}"), pin_ids);
        }
        if salt % 3 == 0 {
            b.add_obstacle(1, Rect::from_coords(500, 500, 900, 900));
        }
        b.build().expect("generated design is valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn stats_are_consistent(design in arb_design()) {
        let s = design.stats();
        prop_assert_eq!(s.num_nets, design.nets().len());
        prop_assert_eq!(s.num_pins, design.pins().len());
        prop_assert!(s.multi_pin_nets <= s.num_nets);
        let count_multi = design.nets().iter().filter(|n| n.pin_count() > 2).count();
        prop_assert_eq!(s.multi_pin_nets, count_multi);
        prop_assert!(s.max_pins_per_net >= 2);
    }

    #[test]
    fn net_bbox_contains_every_pin_bbox(design in arb_design()) {
        for net in design.nets() {
            let bbox = design.net_bbox(net.id()).expect("nets have shapes");
            for pin in net.pins() {
                let pb = design.pin(*pin).bbox().expect("pins have shapes");
                prop_assert!(bbox.contains_rect(&pb));
            }
        }
    }

    #[test]
    fn every_pin_is_owned_by_its_net(design in arb_design()) {
        for net in design.nets() {
            for pin in net.pins() {
                prop_assert_eq!(design.pin(*pin).net(), net.id());
            }
        }
    }
}
