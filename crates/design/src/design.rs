//! The top-level design container and its builder.

use crate::{DesignError, LayerId, Net, NetId, Obstacle, ObstacleId, Pin, PinId, Technology};
use tpl_geom::Rect;

/// A complete routing problem instance: technology, die area, pins, nets and
/// obstacles.
///
/// `Design` is immutable once built; construct it through [`DesignBuilder`].
#[derive(Clone, Debug, PartialEq)]
pub struct Design {
    name: String,
    tech: Technology,
    die: Rect,
    pins: Vec<Pin>,
    nets: Vec<Net>,
    obstacles: Vec<Obstacle>,
}

impl Design {
    /// The design name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The technology the design is routed in.
    #[inline]
    pub fn tech(&self) -> &Technology {
        &self.tech
    }

    /// The die (routing) area.
    #[inline]
    pub fn die(&self) -> Rect {
        self.die
    }

    /// All pins, indexed by [`PinId::index`].
    #[inline]
    pub fn pins(&self) -> &[Pin] {
        &self.pins
    }

    /// All nets, indexed by [`NetId::index`].
    #[inline]
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// All obstacles.
    #[inline]
    pub fn obstacles(&self) -> &[Obstacle] {
        &self.obstacles
    }

    /// Looks up a pin.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    pub fn pin(&self, id: PinId) -> &Pin {
        &self.pins[id.index()]
    }

    /// Looks up a net.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// The bounding box of a net's pins (`None` if the net has no shapes).
    pub fn net_bbox(&self, id: NetId) -> Option<Rect> {
        let mut acc: Option<Rect> = None;
        for pin in self.net(id).pins() {
            if let Some(b) = self.pin(*pin).bbox() {
                acc = Some(match acc {
                    Some(a) => a.hull(&b),
                    None => b,
                });
            }
        }
        acc
    }

    /// The nets in detailed-routing order: ascending half-perimeter of
    /// [`Design::net_bbox`] (a net without shapes counts as zero), ties
    /// broken by id.  Short nets route first because they are the hardest
    /// to detour later.
    pub fn nets_by_bbox(&self) -> Vec<NetId> {
        let mut order: Vec<NetId> = self.nets.iter().map(|n| n.id()).collect();
        order.sort_by_key(|id| {
            let span = self.net_bbox(*id).map(|b| b.half_perimeter());
            (span.unwrap_or(0), id.index())
        });
        order
    }

    /// Summary statistics used by reports and benchmark tables.
    pub fn stats(&self) -> DesignStats {
        let multi_pin_nets = self.nets.iter().filter(|n| n.is_multi_pin()).count();
        let total_pins = self.pins.len();
        let max_pins_per_net = self.nets.iter().map(|n| n.pin_count()).max().unwrap_or(0);
        DesignStats {
            num_nets: self.nets.len(),
            num_pins: total_pins,
            num_obstacles: self.obstacles.len(),
            num_layers: self.tech.num_layers(),
            multi_pin_nets,
            max_pins_per_net,
            die: self.die,
        }
    }
}

/// Aggregate statistics of a design.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DesignStats {
    /// Number of nets.
    pub num_nets: usize,
    /// Number of pins over all nets.
    pub num_pins: usize,
    /// Number of obstacles.
    pub num_obstacles: usize,
    /// Number of routing layers.
    pub num_layers: usize,
    /// Number of nets with more than two pins.
    pub multi_pin_nets: usize,
    /// Largest pin count of any net.
    pub max_pins_per_net: usize,
    /// The die area.
    pub die: Rect,
}

/// Incremental builder for [`Design`].
///
/// # Examples
///
/// ```
/// use tpl_design::{DesignBuilder, Technology};
/// use tpl_geom::Rect;
/// let mut b = DesignBuilder::new("d", Technology::ispd_like(3), Rect::from_coords(0, 0, 400, 400));
/// let p0 = b.add_pin_shape("a", 0, Rect::from_coords(0, 0, 10, 10));
/// let p1 = b.add_pin_shape("b", 0, Rect::from_coords(100, 100, 110, 110));
/// let p2 = b.add_pin_shape("c", 0, Rect::from_coords(300, 40, 310, 50));
/// b.add_net("n0", vec![p0, p1, p2]);
/// let d = b.build().unwrap();
/// assert_eq!(d.stats().multi_pin_nets, 1);
/// ```
#[derive(Clone, Debug)]
pub struct DesignBuilder {
    name: String,
    tech: Technology,
    die: Rect,
    pins: Vec<Pin>,
    nets: Vec<Net>,
    obstacles: Vec<Obstacle>,
}

impl DesignBuilder {
    /// Starts a new design.
    pub fn new(name: impl Into<String>, tech: Technology, die: Rect) -> Self {
        Self {
            name: name.into(),
            tech,
            die,
            pins: Vec::new(),
            nets: Vec::new(),
            obstacles: Vec::new(),
        }
    }

    /// Adds a single-shape pin and returns its id.  The pin is not attached
    /// to a net until [`DesignBuilder::add_net`] references it.
    pub fn add_pin_shape(&mut self, name: impl Into<String>, layer: u32, rect: Rect) -> PinId {
        self.add_pin(name, vec![(LayerId::new(layer), rect)])
    }

    /// Adds a multi-shape pin and returns its id.
    pub fn add_pin(&mut self, name: impl Into<String>, shapes: Vec<(LayerId, Rect)>) -> PinId {
        let id = PinId::from(self.pins.len());
        // The owning net is patched in `add_net`.
        self.pins
            .push(Pin::new(id, name, NetId::new(u32::MAX), shapes));
        id
    }

    /// Adds a net over previously added pins and returns its id.
    pub fn add_net(&mut self, name: impl Into<String>, pins: Vec<PinId>) -> NetId {
        let id = NetId::from(self.nets.len());
        for pin in &pins {
            if pin.index() < self.pins.len() {
                let p = &mut self.pins[pin.index()];
                *p = Pin::new(p.id(), p.name().to_owned(), id, p.shapes().to_vec());
            }
        }
        self.nets.push(Net::new(id, name, pins));
        id
    }

    /// Adds a colourable obstacle.
    pub fn add_obstacle(&mut self, layer: u32, rect: Rect) -> ObstacleId {
        let id = ObstacleId::from(self.obstacles.len());
        self.obstacles
            .push(Obstacle::new(id, LayerId::new(layer), rect));
        id
    }

    /// Adds a non-colourable obstacle (blocks routing only).
    pub fn add_blockage(&mut self, layer: u32, rect: Rect) -> ObstacleId {
        let id = ObstacleId::from(self.obstacles.len());
        self.obstacles
            .push(Obstacle::non_colorable(id, LayerId::new(layer), rect));
        id
    }

    /// Validates the accumulated data and produces the immutable [`Design`].
    ///
    /// # Errors
    ///
    /// * [`DesignError::InvalidNet`] if a net has fewer than two pins, refers
    ///   to an unknown pin, or shares a pin with another net.
    /// * [`DesignError::InvalidGeometry`] if a pin or obstacle shape lies on a
    ///   missing layer or completely outside the die.
    pub fn build(self) -> Result<Design, DesignError> {
        let DesignBuilder {
            name,
            tech,
            die,
            pins,
            nets,
            obstacles,
        } = self;

        let mut pin_owner: Vec<Option<NetId>> = vec![None; pins.len()];
        for net in &nets {
            if net.pin_count() < 2 {
                return Err(DesignError::InvalidNet(format!(
                    "net {} has fewer than two pins",
                    net.name()
                )));
            }
            for pin in net.pins() {
                let idx = pin.index();
                if idx >= pins.len() {
                    return Err(DesignError::InvalidNet(format!(
                        "net {} references unknown pin {pin}",
                        net.name()
                    )));
                }
                if let Some(prev) = pin_owner[idx] {
                    if prev != net.id() {
                        return Err(DesignError::InvalidNet(format!(
                            "pin {pin} is claimed by two nets"
                        )));
                    }
                }
                pin_owner[idx] = Some(net.id());
            }
        }

        for pin in &pins {
            for (layer, rect) in pin.shapes() {
                if layer.index() >= tech.num_layers() {
                    return Err(DesignError::InvalidGeometry(format!(
                        "pin {} uses missing layer {layer}",
                        pin.name()
                    )));
                }
                if !die.intersects(rect) {
                    return Err(DesignError::InvalidGeometry(format!(
                        "pin {} shape {rect} lies outside the die {die}",
                        pin.name()
                    )));
                }
            }
        }
        for obs in &obstacles {
            if obs.layer.index() >= tech.num_layers() {
                return Err(DesignError::InvalidGeometry(format!(
                    "obstacle {} uses missing layer {}",
                    obs.id, obs.layer
                )));
            }
        }

        Ok(Design {
            name,
            tech,
            die,
            pins,
            nets,
            obstacles,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Technology;

    fn builder() -> DesignBuilder {
        DesignBuilder::new(
            "t",
            Technology::ispd_like(3),
            Rect::from_coords(0, 0, 1000, 1000),
        )
    }

    #[test]
    fn build_assigns_pin_ownership() {
        let mut b = builder();
        let p0 = b.add_pin_shape("a", 0, Rect::from_coords(0, 0, 10, 10));
        let p1 = b.add_pin_shape("b", 0, Rect::from_coords(50, 50, 60, 60));
        let n = b.add_net("n0", vec![p0, p1]);
        let d = b.build().unwrap();
        assert_eq!(d.pin(p0).net(), n);
        assert_eq!(d.pin(p1).net(), n);
        assert_eq!(d.net(n).pins(), &[p0, p1]);
    }

    #[test]
    fn rejects_single_pin_nets() {
        let mut b = builder();
        let p0 = b.add_pin_shape("a", 0, Rect::from_coords(0, 0, 10, 10));
        b.add_net("n0", vec![p0]);
        assert!(matches!(b.build(), Err(DesignError::InvalidNet(_))));
    }

    #[test]
    fn rejects_shared_pins() {
        let mut b = builder();
        let p0 = b.add_pin_shape("a", 0, Rect::from_coords(0, 0, 10, 10));
        let p1 = b.add_pin_shape("b", 0, Rect::from_coords(20, 20, 30, 30));
        b.add_net("n0", vec![p0, p1]);
        b.add_net("n1", vec![p0, p1]);
        assert!(matches!(b.build(), Err(DesignError::InvalidNet(_))));
    }

    #[test]
    fn rejects_unknown_pins_and_bad_layers() {
        let mut b = builder();
        let p0 = b.add_pin_shape("a", 0, Rect::from_coords(0, 0, 10, 10));
        b.add_net("n0", vec![p0, PinId::new(99)]);
        assert!(matches!(b.build(), Err(DesignError::InvalidNet(_))));

        let mut b = builder();
        let p0 = b.add_pin_shape("a", 7, Rect::from_coords(0, 0, 10, 10));
        let p1 = b.add_pin_shape("b", 0, Rect::from_coords(20, 20, 30, 30));
        b.add_net("n0", vec![p0, p1]);
        assert!(matches!(b.build(), Err(DesignError::InvalidGeometry(_))));
    }

    #[test]
    fn rejects_off_die_pins() {
        let mut b = builder();
        let p0 = b.add_pin_shape("a", 0, Rect::from_coords(2000, 2000, 2010, 2010));
        let p1 = b.add_pin_shape("b", 0, Rect::from_coords(20, 20, 30, 30));
        b.add_net("n0", vec![p0, p1]);
        assert!(matches!(b.build(), Err(DesignError::InvalidGeometry(_))));
    }

    #[test]
    fn stats_counts_multi_pin_nets() {
        let mut b = builder();
        let p: Vec<_> = (0..5)
            .map(|i| {
                b.add_pin_shape(
                    format!("p{i}"),
                    0,
                    Rect::from_coords(i * 50, i * 40, i * 50 + 10, i * 40 + 10),
                )
            })
            .collect();
        b.add_net("two", vec![p[0], p[1]]);
        b.add_net("three", vec![p[2], p[3], p[4]]);
        b.add_obstacle(1, Rect::from_coords(100, 100, 200, 200));
        let d = b.build().unwrap();
        let s = d.stats();
        assert_eq!(s.num_nets, 2);
        assert_eq!(s.multi_pin_nets, 1);
        assert_eq!(s.max_pins_per_net, 3);
        assert_eq!(s.num_obstacles, 1);
        assert_eq!(s.num_layers, 3);
    }

    #[test]
    fn net_bbox_covers_all_pins() {
        let mut b = builder();
        let p0 = b.add_pin_shape("a", 0, Rect::from_coords(0, 0, 10, 10));
        let p1 = b.add_pin_shape("b", 0, Rect::from_coords(500, 700, 510, 710));
        let n = b.add_net("n0", vec![p0, p1]);
        let d = b.build().unwrap();
        assert_eq!(d.net_bbox(n), Some(Rect::from_coords(0, 0, 510, 710)));
    }
}
