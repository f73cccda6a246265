//! The shared traditional cost model (`Cost_trad` of Eq. (1)).
//!
//! Every price is a whole number: the weights are `u32`, pitches are integer
//! database units, and a step's cost is a `u64` sum of them (with the colour
//! routers' pressure term, one step can pass 2·10⁷, so sums along a path
//! need more than a `u32`).  So a path's cost is exact, and the search
//! kernel takes it as its frontier key.  The kernel's exactness arguments
//! need every step to cost at least 1, so [`CostParams::base_table`], which
//! every router builds once per run, rejects a base price of 0.

use crate::{DenseBitSet, GridGraph, GridState, PinCoverage, VertexId};
use tpl_design::{Design, LayerId, NetId, RouteGuides};
use tpl_geom::{Dbu, Dir};

/// Parameters of the traditional (non-colour) part of the routing cost.
///
/// These correspond to `Cost_trad` in Eq. (1) of the paper and are shared by
/// the TPL-unaware baseline, the DAC'12 baseline and Mr.TPL so that runtime
/// and quality comparisons isolate the colour-handling strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostParams {
    /// Cost per database unit of preferred-direction wire.
    pub unit_wire: u32,
    /// Multiplier applied to wrong-way (non-preferred axis) wire.
    pub wrong_way_mult: u32,
    /// Cost of one via.
    pub via: u32,
    /// Additional cost per database unit of wire outside the route guide.
    pub out_of_guide: u32,
    /// Cost of stepping onto a vertex already occupied by another net.
    /// Kept finite so negotiation-based rip-up and reroute can resolve it.
    pub occupied: u32,
    /// Extra multiplier applied to planar wire on the lowest layer (M1).
    /// Real detailed routers keep M1 for pin access; through-routing on M1
    /// runs straight past foreign pins and is the main source of
    /// wire-to-pin colour conflicts, so it is discouraged.
    pub base_layer_mult: u32,
}

impl Default for CostParams {
    fn default() -> Self {
        Self {
            unit_wire: 1,
            wrong_way_mult: 2,
            via: 40,
            out_of_guide: 1,
            occupied: 5_000,
            base_layer_mult: 4,
        }
    }
}

/// `len` database units as a cost factor.
#[inline]
fn dbu(len: Dbu) -> u64 {
    u64::try_from(len).expect("a wire length is non-negative")
}

impl CostParams {
    /// The cost of `len` database units of wire, preferred direction.
    #[inline]
    pub fn wire_cost(&self, len: Dbu) -> u64 {
        u64::from(self.unit_wire) * dbu(len)
    }

    /// The cost of `len` database units of wrong-way wire.
    #[inline]
    pub fn wrong_way_cost(&self, len: Dbu) -> u64 {
        self.wire_cost(len) * u64::from(self.wrong_way_mult)
    }

    /// The direction-class cost of a step leaving a vertex on `layer` of
    /// `grid` in direction `dir`: a via, preferred-direction wire or
    /// wrong-way wire, with planar wire on the lowest layer times the M1
    /// multiplier.
    pub fn base(&self, grid: &GridGraph, layer: LayerId, dir: Dir) -> u64 {
        match dir.axis() {
            None => u64::from(self.via),
            Some(axis) => {
                let c = if axis == grid.layer_axis(layer) {
                    self.wire_cost(grid.pitch())
                } else {
                    self.wrong_way_cost(grid.pitch())
                };
                if layer.index() == 0 {
                    c * u64::from(self.base_layer_mult)
                } else {
                    c
                }
            }
        }
    }

    /// [`base`](Self::base) per layer of `grid` and direction of
    /// [`Dir::ALL`]: the table the detailed routers read per relaxation,
    /// indexed by the popped vertex's layer and the direction's position in
    /// [`GridGraph::neighbors_at`].
    ///
    /// # Panics
    ///
    /// Panics if a base price is 0 (a zero via, wire or multiplier weight):
    /// the searches need every step to cost at least 1.
    pub fn base_table(&self, grid: &GridGraph) -> Vec<[u64; 6]> {
        let table: Vec<[u64; 6]> = (0..grid.num_layers())
            .map(|layer| Dir::ALL.map(|dir| self.base(grid, LayerId::from(layer), dir)))
            .collect();
        assert!(
            table.iter().flatten().all(|&price| price >= 1),
            "every base price must be at least 1: {self:?}"
        );
        table
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
    #[inline]
    pub fn step(&self, from: VertexId, to: VertexId, dir: Dir) -> Option<u64> {
        let penalty = self.node_penalty(to)?;
        Some(self.base(self.grid.layer_of(from), dir) + penalty)
    }

    /// [`CostParams::base`] on this net's grid: the direction-class cost of
    /// a step leaving a vertex on `layer` in direction `dir`.
    #[inline]
    pub fn base(&self, layer: LayerId, dir: Dir) -> u64 {
        self.params.base(self.grid, layer, dir)
    }

    /// The vertex-dependent part of stepping onto `to`, or `None` when `to`
    /// is blocked: the out-of-guide, foreign-occupancy, foreign-pin and
    /// history terms.
    #[inline]
    pub fn node_penalty(&self, to: VertexId) -> Option<u64> {
        if self.state.is_blocked(to) {
            return None;
        }
        let p = self.params;
        let mut c = u64::from(self.state.history(to));
        if !self.in_guide.get(to.index()) {
            c += u64::from(p.out_of_guide) * dbu(self.grid.pitch());
        }
        if self.state.is_occupied_by_other(to, self.net) {
            c += u64::from(p.occupied);
        }
        if let Some(pin) = self.coverage.pin_at(to) {
            if self.design.pin(pin).net() != self.net {
                c += u64::from(p.occupied);
            }
        }
        Some(c)
    }
}

/// Fills `in_guide` with one net's guide membership: the vertices inside
/// the net's guide regions on every layer of each region's span, or every
/// vertex for a net without guides.  Each router owns one `in_guide` set over
/// the grid's vertices and refills it per net, a row of each guide rectangle
/// at a time.
pub fn guide_membership(
    grid: &GridGraph,
    guides: &RouteGuides,
    net: NetId,
    in_guide: &mut DenseBitSet,
) {
    let regions = guides.regions(net);
    if regions.is_empty() {
        in_guide.set_all();
        return;
    }
    in_guide.clear_all();
    for region in regions {
        let (xs, ys) = grid.tracks_in_rect(&region.rect);
        if xs.is_empty() {
            continue;
        }
        for layer in region.layers.0.index()..=region.layers.1.index() {
            for iy in ys.clone() {
                let row = grid.vertex(layer, xs.start, iy).index();
                in_guide.insert_range(row..row + xs.len());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpl_geom::Rect;

    #[test]
    fn wrong_way_is_more_expensive() {
        let p = CostParams::default();
        assert!(p.wrong_way_cost(20) > p.wire_cost(20));
        assert_eq!(p.wire_cost(20), 20);
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
        assert_eq!(
            trad.base(m1, Dir::East),
            wire * u64::from(p.base_layer_mult)
        );
        assert_eq!(
            trad.base(m1, Dir::North),
            wrong_way * u64::from(p.base_layer_mult)
        );
        // Layer 1 is vertical.
        let m2 = LayerId::new(1);
        assert_eq!(trad.base(m2, Dir::East), wrong_way);
        assert_eq!(trad.base(m2, Dir::South), wire);
        // Vias pay the via cost only, on every layer.
        assert_eq!(trad.base(m1, Dir::Up), u64::from(p.via));
        assert_eq!(trad.base(m2, Dir::Down), u64::from(p.via));
        // The table holds the same values, in `Dir::ALL` order.
        let table = p.base_table(&grid);
        assert_eq!(table.len(), grid.num_layers());
        for (layer, row) in table.iter().enumerate() {
            for (dir, &base) in Dir::ALL.into_iter().zip(row) {
                assert_eq!(base, trad.base(LayerId::from(layer), dir));
            }
        }
    }

    #[test]
    #[should_panic(expected = "every base price must be at least 1")]
    fn a_zero_base_price_is_rejected() {
        let design = tpl_ispd::CaseParams::ispd18_like(1).scaled(0.25).generate();
        let grid = GridGraph::build(&design);
        CostParams {
            via: 0,
            ..CostParams::default()
        }
        .base_table(&grid);
    }

    #[test]
    fn guide_membership_defaults_to_everywhere_without_regions() {
        let design = tpl_ispd::CaseParams::ispd18_like(1).scaled(0.25).generate();
        let grid = GridGraph::build(&design);
        let guides = RouteGuides::new(design.nets().len());
        let mut mask = DenseBitSet::new(grid.num_vertices());
        guide_membership(&grid, &guides, NetId::new(0), &mut mask);
        assert_eq!(mask.count_ones(), grid.num_vertices());
    }

    #[test]
    fn guide_membership_is_exactly_the_region_vertices() {
        let design = tpl_ispd::CaseParams::ispd18_like(1).scaled(0.25).generate();
        let grid = GridGraph::build(&design);
        let die = design.die();
        let mut guides = RouteGuides::new(design.nets().len());
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        let mut r = |m: i64| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % m as u64) as i64
        };
        // Off-grid corners, rects reaching past the die, thin rects that
        // miss every track, and spans of one or more layers.
        for net in design.nets().iter().take(20) {
            for _ in 0..1 + r(4) {
                let (x, y) = (
                    die.lo.x - 40 + r(die.width() + 80),
                    die.lo.y - 40 + r(die.height() + 80),
                );
                let rect = Rect::from_coords(x, y, x + r(300), y + r(300));
                let n = grid.num_layers() as i64;
                let lo = r(n);
                let hi = lo + r(n - lo);
                let layers = (LayerId::from(lo as usize), LayerId::from(hi as usize));
                guides.add(net.id(), layers, rect);
            }
        }
        let mut mask = DenseBitSet::full(grid.num_vertices());
        for net in design.nets().iter().take(25) {
            guide_membership(&grid, &guides, net.id(), &mut mask);
            let regions = guides.regions(net.id());
            let mut want = DenseBitSet::new(grid.num_vertices());
            for region in regions {
                let (lo, hi) = region.layers;
                for layer in lo.index()..=hi.index() {
                    for v in grid.vertices_in_rect(LayerId::from(layer), &region.rect) {
                        want.insert(v.index());
                    }
                }
            }
            if regions.is_empty() {
                want.set_all();
            }
            assert_eq!(mask, want, "net {}", net.name());
        }
    }
}
