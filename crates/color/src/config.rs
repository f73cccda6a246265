//! The configuration and the mask-step cost of the colour-aware routers.

use crate::{ColorState, Mask};
use tpl_geom::Dir;
use tpl_grid::CostParams;

/// Configuration of the colour-aware routers, Mr.TPL and the DAC'12
/// baseline, and of their negotiation ([`tpl_grid::negotiate`] under the
/// [`ColorRule`](crate::ColorRule)).
///
/// The weights are those of Eq. (1) of the paper with α fixed at 1:
/// `cost` prices `Cost_trad`, `stitch_cost` is `β·Cost_stitch` and
/// `color_conflict_cost` is `γ·Cost_color`.  Scaling `Cost_trad` by
/// another α is the same as dividing both other weights by it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TplConfig {
    /// Traditional (colour-free) cost parameters.
    pub cost: CostParams,
    /// Cost of a stitch: a planar step onto a mask the path does not carry.
    pub stitch_cost: u32,
    /// Cost per feature of another net within `Dcolor` on the step's mask.
    pub color_conflict_cost: u32,
    /// Passes after the initial one: the rip-up-and-reroute iterations.
    pub max_rrr_iterations: usize,
    /// History cost charged under both features of every conflict a pass
    /// leaves (see [`ColoredLayout::victims`](crate::ColoredLayout::victims)).
    pub history_increment: u32,
}

impl Default for TplConfig {
    fn default() -> Self {
        Self {
            cost: CostParams::default(),
            stitch_cost: 20,
            color_conflict_cost: 350,
            max_rrr_iterations: 5,
            history_increment: 60,
        }
    }
}

impl TplConfig {
    /// The cost of one step in direction `dir` onto a vertex, per mask of
    /// the vertex: the step's traditional cost `trad`, plus
    /// `color_conflict_cost` per feature that presses the mask
    /// (`pressure`), plus `stitch_cost` when the step is planar and the mask
    /// is not in `inherited`, the masks the path arrives with.  Mr.TPL
    /// inherits a colour state, DAC'12 the one mask of its node.
    ///
    /// A `u64` holds every step: the pressure term alone reaches
    /// `350 × 65,535`, over 2·10⁷, at the default weights.
    #[inline]
    pub fn step_costs(
        &self,
        trad: u64,
        pressure: [u16; 3],
        dir: Dir,
        inherited: ColorState,
    ) -> [u64; 3] {
        Mask::ALL.map(|mask| {
            let conflicts = u64::from(pressure[mask.index()]);
            let mut cost = trad + u64::from(self.color_conflict_cost) * conflicts;
            if dir.is_planar() && !inherited.contains(mask) {
                cost += u64::from(self.stitch_cost);
            }
            cost
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_prices_a_conflict_above_a_stitch() {
        let c = TplConfig::default();
        assert!(c.stitch_cost > 0);
        assert!(c.color_conflict_cost > c.stitch_cost);
        assert!(c.max_rrr_iterations >= 1);
    }

    #[test]
    fn a_planar_step_off_the_inherited_masks_pays_one_stitch() {
        let c = TplConfig::default();
        let green = ColorState::from_mask(Mask::Green);
        assert_eq!(c.step_costs(10, [0; 3], Dir::East, green), [30, 10, 30]);
        assert_eq!(
            c.step_costs(10, [0; 3], Dir::East, ColorState::all()),
            [10; 3]
        );
        // A via changes masks for free.
        assert_eq!(c.step_costs(10, [0; 3], Dir::Up, green), [10; 3]);
        // Pressure adds `color_conflict_cost` per feature on its mask.
        assert_eq!(
            c.step_costs(10, [2, 0, 1], Dir::North, green),
            [730, 10, 380]
        );
    }
}
