//! Deterministic synthetic design generation.

use crate::CaseParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use tpl_design::{Design, DesignBuilder, Technology};
use tpl_geom::{Dbu, Rect};

/// Generates a design from benchmark parameters.
///
/// The generator is fully deterministic: the same [`CaseParams`] (including
/// the seed) always produce the same [`Design`].
///
/// Pins are placed on track crossings of layer `M1`, grouped per net inside a
/// cluster window to create local congestion; cluster centres follow a
/// mixture of uniform placement and a few deliberate hot spots, which is what
/// drives colour-conflict pressure for colour-blind routers.  Obstacles are
/// rectangular blockages on intermediate layers.
pub fn generate_design(params: &CaseParams) -> Design {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let tech = Technology::ispd_like(params.num_layers);
    let pitch = params.pitch;
    let die = Rect::from_coords(0, 0, params.width_dbu(), params.height_dbu());
    let mut builder = DesignBuilder::new(params.name.clone(), tech, die);

    let w = params.width_tracks as i64;
    let h = params.height_tracks as i64;
    let half_pin: Dbu = 4;

    // A handful of hot spots that several nets gravitate towards.
    let num_hotspots = (params.num_nets / 60).clamp(1, 8);
    let hotspots: Vec<(i64, i64)> = (0..num_hotspots)
        .map(|_| {
            (
                rng.gen_range(4..w.max(5) - 4),
                rng.gen_range(4..h.max(5) - 4),
            )
        })
        .collect();

    // Slot bookkeeping: which net owns each used track crossing.  Pins of
    // different nets keep a Chebyshev distance of at least `PIN_HALO + 1`
    // tracks, which keeps the pin fabric nearly colour-clean (dense K4
    // clusters of foreign pins, which no router could ever legalise, do not
    // occur in the contest benchmarks either).
    const PIN_HALO: i64 = 1;
    let mut used_slots: HashMap<(i64, i64), usize> = HashMap::new();
    let slot_free_for = |used: &HashMap<(i64, i64), usize>, tx: i64, ty: i64, net: usize| -> bool {
        if used.contains_key(&(tx, ty)) {
            return false;
        }
        for dx in -PIN_HALO..=PIN_HALO {
            for dy in -PIN_HALO..=PIN_HALO {
                if let Some(owner) = used.get(&(tx + dx, ty + dy)) {
                    if *owner != net {
                        return false;
                    }
                }
            }
        }
        true
    };
    let track_coord = |t: i64| -> Dbu { t * pitch + pitch / 2 };

    let mut pin_counter = 0usize;
    for net_idx in 0..params.num_nets {
        // Pin count for this net.
        let num_pins = if rng.gen_bool(params.two_pin_fraction) {
            2
        } else {
            rng.gen_range(3..=params.max_pins_per_net.max(3))
        };

        // Cluster centre: a quarter of the nets anchor to a hot spot (local
        // congestion), the rest are uniform over the die.
        let (cx, cy) = if rng.gen_bool(0.25) {
            let (hx, hy) = hotspots[rng.gen_range(0..hotspots.len())];
            (
                (hx + rng.gen_range(-6..=6)).clamp(1, w - 2),
                (hy + rng.gen_range(-6..=6)).clamp(1, h - 2),
            )
        } else {
            (rng.gen_range(1..w - 1), rng.gen_range(1..h - 1))
        };

        let window = params.cluster_tracks as i64;
        let mut pin_ids = Vec::with_capacity(num_pins);
        let mut guard = 0;
        while pin_ids.len() < num_pins {
            guard += 1;
            // Give up on exclusivity if the window is saturated; widen instead.
            let widen = 1 + guard / 40;
            let tx = (cx + rng.gen_range(-window * widen..=window * widen)).clamp(0, w - 1);
            let ty = (cy + rng.gen_range(-window * widen..=window * widen)).clamp(0, h - 1);
            // If the die is so saturated that no halo-respecting slot can be
            // found (only possible for aggressively scaled-down test cases),
            // fall back to plain slot exclusivity so generation always
            // terminates.
            let relaxed = guard > 40 * (w + h);
            let ok = if relaxed {
                !used_slots.contains_key(&(tx, ty))
            } else {
                slot_free_for(&used_slots, tx, ty, net_idx)
            };
            if !ok {
                continue;
            }
            used_slots.insert((tx, ty), net_idx);
            let x = track_coord(tx);
            let y = track_coord(ty);
            let rect = Rect::from_coords(x - half_pin, y - half_pin, x + half_pin, y + half_pin);
            let pin_id = builder.add_pin_shape(format!("n{net_idx}_p{pin_counter}"), 0, rect);
            pin_counter += 1;
            pin_ids.push(pin_id);
        }
        builder.add_net(format!("net{net_idx}"), pin_ids);
    }

    // Obstacles: blockages on intermediate layers, sized 3..=8 tracks.
    for _ in 0..params.num_obstacles {
        let layer = if params.num_layers > 2 {
            rng.gen_range(1..params.num_layers as u32 - 1)
        } else {
            1.min(params.num_layers as u32 - 1)
        };
        let ow = rng.gen_range(3..=8).min(w - 2);
        let oh = rng.gen_range(3..=8).min(h - 2);
        let ox = rng.gen_range(0..(w - ow).max(1));
        let oy = rng.gen_range(0..(h - oh).max(1));
        let rect = Rect::from_coords(ox * pitch, oy * pitch, (ox + ow) * pitch, (oy + oh) * pitch);
        if rng.gen_bool(0.8) {
            builder.add_obstacle(layer, rect);
        } else {
            builder.add_blockage(layer, rect);
        }
    }

    builder
        .build()
        .expect("generated benchmark designs are always valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let p = CaseParams::ispd18_like(1);
        let a = generate_design(&p);
        let b = generate_design(&p);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_designs() {
        let p1 = CaseParams::ispd18_like(1);
        let mut p2 = p1.clone();
        p2.seed += 1;
        assert_ne!(generate_design(&p1), generate_design(&p2));
    }

    #[test]
    fn generated_design_matches_params() {
        let p = CaseParams::ispd18_like(2).scaled(0.5);
        let d = generate_design(&p);
        let stats = d.stats();
        assert_eq!(stats.num_nets, p.num_nets);
        assert_eq!(stats.num_layers, p.num_layers);
        assert_eq!(stats.num_obstacles, p.num_obstacles);
        assert!(
            stats.multi_pin_nets > 0,
            "suite must contain multi-pin nets"
        );
        assert!(stats.max_pins_per_net <= p.max_pins_per_net);
        assert_eq!(d.die().width(), p.width_dbu());
    }

    #[test]
    fn pins_do_not_overlap_each_other() {
        let p = CaseParams::ispd18_like(1);
        let d = generate_design(&p);
        let pins = d.pins();
        for i in 0..pins.len() {
            for j in (i + 1)..pins.len() {
                let a = pins[i].shapes()[0].1;
                let b = pins[j].shapes()[0].1;
                assert!(!a.intersects(&b), "pins {i} and {j} overlap: {a} vs {b}");
            }
        }
    }

    #[test]
    fn pins_of_different_nets_are_never_on_adjacent_crossings() {
        let p = CaseParams::ispd18_like(2);
        let d = generate_design(&p);
        let pitch = 20;
        let pins = d.pins();
        for i in 0..pins.len() {
            for j in (i + 1)..pins.len() {
                if pins[i].net() == pins[j].net() {
                    continue;
                }
                let a = pins[i].shapes()[0].1;
                let b = pins[j].shapes()[0].1;
                // Pins of different nets sit at least two tracks apart, so
                // their spacing always exceeds one pitch.
                assert!(
                    a.spacing_to(&b) > pitch,
                    "pins {} and {} of different nets are {} apart",
                    pins[i].name(),
                    pins[j].name(),
                    a.spacing_to(&b),
                );
            }
        }
    }

    #[test]
    fn pins_are_inside_the_die() {
        let p = CaseParams::ispd19_like(1);
        let d = generate_design(&p);
        for pin in d.pins() {
            for (_, rect) in pin.shapes() {
                assert!(d.die().contains_rect(rect) || d.die().intersects(rect));
            }
        }
    }
}
