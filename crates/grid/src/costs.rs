//! The shared traditional cost model (`Cost_trad` of Eq. (1)).

use crate::{DenseBitSet, GridGraph, GridState, PinCoverage, VertexId};
use tpl_design::{Design, LayerId, NetId, RouteGuides};
use tpl_geom::{Dbu, Dir};

/// Parameters of the traditional (non-colour) part of the routing cost.
///
/// These correspond to `Cost_trad` in Eq. (1) of the paper and are shared by
/// the TPL-unaware baseline, the DAC'12 baseline and Mr.TPL so that runtime
/// and quality comparisons isolate the colour-handling strategy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostParams {
    /// Cost per database unit of preferred-direction wire.
    pub unit_wire: f64,
    /// Multiplier applied to wrong-way (non-preferred axis) wire.
    pub wrong_way_mult: f64,
    /// Cost of one via.
    pub via: f64,
    /// Additional cost per database unit of wire outside the route guide.
    pub out_of_guide: f64,
    /// Cost of stepping onto a vertex already occupied by another net.
    /// Kept finite so negotiation-based rip-up and reroute can resolve it.
    pub occupied: f64,
    /// Cost of stepping onto a blocked (obstacle) vertex.  Effectively
    /// infinite.
    pub blocked: f64,
    /// Multiplier for accumulated history cost during negotiation.
    pub history_weight: f64,
    /// Extra multiplier applied to planar wire on the lowest layer (M1).
    /// Real detailed routers keep M1 for pin access; through-routing on M1
    /// runs straight past foreign pins and is the main source of
    /// wire-to-pin colour conflicts, so it is discouraged.
    pub base_layer_mult: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        Self {
            unit_wire: 1.0,
            wrong_way_mult: 2.0,
            via: 40.0,
            out_of_guide: 1.0,
            occupied: 5_000.0,
            blocked: 1.0e12,
            history_weight: 1.0,
            base_layer_mult: 4.0,
        }
    }
}

impl CostParams {
    /// The cost of `len` database units of wire, preferred direction.
    #[inline]
    pub fn wire_cost(&self, len: Dbu) -> f64 {
        self.unit_wire * len as f64
    }

    /// The cost of `len` database units of wrong-way wire.
    #[inline]
    pub fn wrong_way_cost(&self, len: Dbu) -> f64 {
        self.unit_wire * self.wrong_way_mult * len as f64
    }
}

/// One net's `Cost_trad`: the colour-free cost of stepping onto a grid
/// vertex, shared by every detailed router.
#[derive(Clone, Copy)]
pub struct TradCost<'a> {
    /// The routing grid.
    pub grid: &'a GridGraph,
    /// Blockage / occupancy / history state.
    pub state: &'a GridState,
    /// Pin-to-vertex coverage.
    pub coverage: &'a PinCoverage,
    /// The design being routed.
    pub design: &'a Design,
    /// Cost parameters.
    pub params: &'a CostParams,
    /// The net being routed.
    pub net: NetId,
    /// Whether each vertex lies inside the net's route guide (see
    /// [`guide_membership`]).
    pub in_guide: &'a DenseBitSet,
}

impl TradCost<'_> {
    /// The cost of stepping from `from` onto `to` in direction `dir`, or
    /// `None` when `to` is blocked: [`base`](Self::base) of the direction
    /// class plus the [`node_penalty`](Self::node_penalty) of `to`.
    ///
    /// Splitting the sum this way groups the node terms before adding the
    /// base, which reassociates one `f64` sum.  Every default weight is an
    /// integer (unit wire 1, via 40, occupied 5000, history increments 30
    /// and 60, pitch-multiple wire costs), so every partial sum is exact and
    /// the split changes no result.
    #[inline]
    pub fn step(&self, from: VertexId, to: VertexId, dir: Dir) -> Option<f64> {
        let penalty = self.node_penalty(to)?;
        Some(self.base(self.grid.layer_of(from), dir) + penalty)
    }

    /// The direction-class cost of a step leaving a vertex on `layer` in
    /// direction `dir`: a via, preferred-direction wire or wrong-way wire,
    /// with planar wire on the lowest layer times the M1 multiplier.
    #[inline]
    pub fn base(&self, layer: LayerId, dir: Dir) -> f64 {
        let p = self.params;
        match dir.axis() {
            None => p.via,
            Some(axis) => {
                let c = if axis == self.grid.layer_axis(layer) {
                    p.wire_cost(self.grid.pitch())
                } else {
                    p.wrong_way_cost(self.grid.pitch())
                };
                if layer.index() == 0 {
                    c * p.base_layer_mult
                } else {
                    c
                }
            }
        }
    }

    /// The vertex-dependent part of stepping onto `to`, or `None` when `to`
    /// is blocked: the out-of-guide, foreign-occupancy, foreign-pin and
    /// history terms.
    #[inline]
    pub fn node_penalty(&self, to: VertexId) -> Option<f64> {
        if self.state.is_blocked(to) {
            return None;
        }
        let p = self.params;
        let mut c = 0.0;
        if !self.in_guide.get(to.index()) {
            c += p.out_of_guide * self.grid.pitch() as f64;
        }
        if self.state.is_occupied_by_other(to, self.net) {
            c += p.occupied;
        }
        if let Some(pin) = self.coverage.pin_at(to) {
            if self.design.pin(pin).net() != self.net {
                c += p.occupied;
            }
        }
        c += p.history_weight * self.state.history(to);
        Some(c)
    }
}

/// Per-net guide membership: the vertices inside the net's guide regions,
/// or every vertex for a net without guides.
pub fn guide_membership(grid: &GridGraph, guides: &RouteGuides, net: NetId) -> DenseBitSet {
    let regions = guides.regions(net);
    if regions.is_empty() {
        return DenseBitSet::full(grid.num_vertices());
    }
    let mut mask = DenseBitSet::new(grid.num_vertices());
    for region in regions {
        for v in grid.vertices_in_rect(region.layer, &region.rect) {
            mask.insert(v.index());
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrong_way_is_more_expensive() {
        let p = CostParams::default();
        assert!(p.wrong_way_cost(20) > p.wire_cost(20));
        assert_eq!(p.wire_cost(20), 20.0);
    }

    #[test]
    fn base_follows_the_layer_axis_and_the_m1_multiplier() {
        let design = tpl_ispd::CaseParams::ispd18_like(1).scaled(0.25).generate();
        let grid = GridGraph::build(&design);
        let state = GridState::new(&grid, &design);
        let coverage = PinCoverage::build(&grid, &design);
        let in_guide = DenseBitSet::full(grid.num_vertices());
        let p = CostParams::default();
        let trad = TradCost {
            grid: &grid,
            state: &state,
            coverage: &coverage,
            design: &design,
            params: &p,
            net: NetId::new(0),
            in_guide: &in_guide,
        };
        let (wire, wrong_way) = (p.wire_cost(grid.pitch()), p.wrong_way_cost(grid.pitch()));
        // Layer 0 is horizontal and pays the M1 multiplier on planar wire.
        let m1 = LayerId::new(0);
        assert_eq!(trad.base(m1, Dir::East), wire * p.base_layer_mult);
        assert_eq!(trad.base(m1, Dir::North), wrong_way * p.base_layer_mult);
        // Layer 1 is vertical.
        let m2 = LayerId::new(1);
        assert_eq!(trad.base(m2, Dir::East), wrong_way);
        assert_eq!(trad.base(m2, Dir::South), wire);
        // Vias pay the via cost only, on every layer.
        assert_eq!(trad.base(m1, Dir::Up), p.via);
        assert_eq!(trad.base(m2, Dir::Down), p.via);
    }

    #[test]
    fn blocked_dwarfs_everything_else() {
        let p = CostParams::default();
        assert!(p.blocked > p.occupied * 1000.0);
    }

    #[test]
    fn guide_membership_defaults_to_everywhere_without_regions() {
        let design = tpl_ispd::CaseParams::ispd18_like(1).scaled(0.25).generate();
        let grid = GridGraph::build(&design);
        let guides = RouteGuides::new(design.nets().len());
        let mask = guide_membership(&grid, &guides, NetId::new(0));
        assert_eq!(mask.count_ones(), grid.num_vertices());
    }
}
