//! Parameters describing one synthetic benchmark case.

use crate::generator::generate_design;
use tpl_design::Design;
use tpl_geom::Dbu;

/// Parameters of a synthetic ISPD-like benchmark case.
///
/// All sizes are expressed in *tracks* (multiples of the layer pitch), which
/// keeps the parameters independent of the database unit.  The generator
/// turns them into a concrete [`Design`].
#[derive(Clone, Debug, PartialEq)]
pub struct CaseParams {
    /// Case name, e.g. `ispd18_like_test3`.
    pub name: String,
    /// Die width in tracks.
    pub width_tracks: usize,
    /// Die height in tracks.
    pub height_tracks: usize,
    /// Number of routing layers.
    pub num_layers: usize,
    /// Number of nets to generate.
    pub num_nets: usize,
    /// Fraction (0..=1) of nets that have exactly two pins.
    pub two_pin_fraction: f64,
    /// Largest pin count for multi-pin nets (inclusive).
    pub max_pins_per_net: usize,
    /// Number of rectangular routing obstacles.
    pub num_obstacles: usize,
    /// Pin-cluster window, in tracks: pins of one net are placed inside a
    /// window of roughly this size (controls locality/congestion).
    pub cluster_tracks: usize,
    /// RNG seed; two identical `CaseParams` always generate identical designs.
    pub seed: u64,
    /// Track pitch in database units (20 in the canonical stack).
    pub pitch: Dbu,
}

impl CaseParams {
    /// Parameters mirroring case `idx` (1..=10) of the ISPD-2018-like suite.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not in `1..=10`.
    pub fn ispd18_like(idx: usize) -> Self {
        assert!((1..=10).contains(&idx), "ISPD18-like cases are 1..=10");
        // (width, height, layers, nets, 2-pin frac, max pins, obstacles, cluster)
        let table = [
            (40, 40, 4, 30, 0.55, 5, 6, 16),
            (60, 60, 4, 75, 0.55, 6, 10, 16),
            (72, 72, 4, 110, 0.55, 6, 14, 16),
            (84, 84, 4, 150, 0.50, 7, 18, 15),
            (96, 96, 5, 200, 0.50, 7, 22, 15),
            (108, 108, 5, 260, 0.50, 8, 26, 15),
            (120, 120, 5, 330, 0.45, 8, 30, 14),
            (130, 130, 5, 390, 0.45, 9, 34, 14),
            (140, 140, 5, 450, 0.45, 9, 38, 14),
            (148, 148, 5, 540, 0.40, 10, 42, 12),
        ];
        let (w, h, layers, nets, two_pin, max_pins, obstacles, cluster) = table[idx - 1];
        CaseParams {
            name: format!("ispd18_like_test{idx}"),
            width_tracks: w,
            height_tracks: h,
            num_layers: layers,
            num_nets: nets,
            two_pin_fraction: two_pin,
            max_pins_per_net: max_pins,
            num_obstacles: obstacles,
            cluster_tracks: cluster,
            seed: 0x1807_0000 + idx as u64,
            pitch: 20,
        }
    }

    /// Parameters mirroring case `idx` (1..=10) of the ISPD-2019-like suite.
    ///
    /// The 2019 contest added denser pin configurations and more irregular
    /// case sizes; the synthetic analogues are correspondingly denser and
    /// less monotone in size than the 2018 suite.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not in `1..=10`.
    pub fn ispd19_like(idx: usize) -> Self {
        assert!((1..=10).contains(&idx), "ISPD19-like cases are 1..=10");
        let table = [
            (48, 48, 4, 50, 0.50, 6, 8, 14),
            (64, 64, 5, 100, 0.50, 6, 12, 14),
            (56, 56, 4, 72, 0.55, 5, 10, 14),
            (80, 80, 5, 170, 0.45, 8, 18, 13),
            (88, 88, 5, 200, 0.45, 8, 22, 13),
            (96, 96, 5, 245, 0.45, 9, 26, 13),
            (104, 104, 5, 300, 0.40, 9, 30, 12),
            (116, 116, 5, 375, 0.40, 10, 34, 12),
            (128, 128, 5, 460, 0.40, 10, 38, 12),
            (140, 140, 5, 560, 0.35, 11, 42, 11),
        ];
        let (w, h, layers, nets, two_pin, max_pins, obstacles, cluster) = table[idx - 1];
        CaseParams {
            name: format!("ispd19_like_test{idx}"),
            width_tracks: w,
            height_tracks: h,
            num_layers: layers,
            num_nets: nets,
            two_pin_fraction: two_pin,
            max_pins_per_net: max_pins,
            num_obstacles: obstacles,
            cluster_tracks: cluster,
            seed: 0x1907_0000 + idx as u64,
            pitch: 20,
        }
    }

    /// Returns a proportionally smaller (or larger) copy of the case.
    ///
    /// `factor` scales the die linearly and the net/obstacle counts
    /// quadratically so routing density stays roughly constant.  Used by unit
    /// tests and smoke runs to keep runtimes small.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    pub fn scaled(&self, factor: f64) -> CaseParams {
        assert!(factor > 0.0, "scale factor must be positive");
        let scale_dim = |v: usize| ((v as f64 * factor).round() as usize).max(12);
        let scale_count = |v: usize| ((v as f64 * factor * factor).round() as usize).max(4);
        CaseParams {
            name: format!("{}_x{:.2}", self.name, factor),
            width_tracks: scale_dim(self.width_tracks),
            height_tracks: scale_dim(self.height_tracks),
            num_layers: self.num_layers,
            num_nets: scale_count(self.num_nets),
            two_pin_fraction: self.two_pin_fraction,
            max_pins_per_net: self.max_pins_per_net,
            num_obstacles: scale_count(self.num_obstacles).max(1),
            cluster_tracks: self.cluster_tracks.min(scale_dim(self.cluster_tracks)),
            seed: self.seed,
            pitch: self.pitch,
        }
    }

    /// Generates the concrete design for these parameters.
    pub fn generate(&self) -> Design {
        generate_design(self)
    }

    /// Die width in database units.
    pub fn width_dbu(&self) -> Dbu {
        self.width_tracks as Dbu * self.pitch
    }

    /// Die height in database units.
    pub fn height_dbu(&self) -> Dbu {
        self.height_tracks as Dbu * self.pitch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_sizes_grow_monotonically() {
        let mut prev_nets = 0;
        for idx in 1..=10 {
            let p = CaseParams::ispd18_like(idx);
            assert!(p.num_nets >= prev_nets, "case {idx} should not shrink");
            prev_nets = p.num_nets;
        }
    }

    #[test]
    #[should_panic(expected = "1..=10")]
    fn rejects_out_of_range_case() {
        CaseParams::ispd18_like(11);
    }

    #[test]
    fn scaled_keeps_density_roughly_constant() {
        let p = CaseParams::ispd18_like(5);
        let s = p.scaled(0.5);
        let density = p.num_nets as f64 / (p.width_tracks * p.height_tracks) as f64;
        let density_s = s.num_nets as f64 / (s.width_tracks * s.height_tracks) as f64;
        assert!((density - density_s).abs() / density < 0.35);
    }

    #[test]
    fn ispd19_cases_are_distinct_from_ispd18() {
        let a = CaseParams::ispd18_like(3);
        let b = CaseParams::ispd19_like(3);
        assert_ne!(a.seed, b.seed);
        assert_ne!(a.name, b.name);
    }

    #[test]
    fn width_dbu_uses_pitch() {
        let p = CaseParams::ispd18_like(1);
        assert_eq!(p.width_dbu(), 40 * 20);
    }
}
