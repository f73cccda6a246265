//! LEF/DEF emission for `tpl-design` designs, the inverse of the parsers.
//!
//! [`write_lef`] emits the technology (layer stack plus the nonstandard
//! `TPLCOLORSPACING` statement) and [`write_def`] emits the design geometry
//! — die, pins with absolute shapes, nets, obstacles as `SPECIALNETS`, and
//! optionally routed wiring.  Feeding the two outputs back through
//! [`parse_lef`](crate::parse_lef) / [`parse_def`](crate::parse_def) /
//! [`lower`](crate::lower()) reproduces the design exactly: same technology,
//! die, pin/net/obstacle order, names and geometry.  This round-trip is
//! asserted property-style in the workspace test-suite.
//!
//! Two conscious narrowings of the subset:
//!
//! * Distances in LEF are decimal microns, so the technology's
//!   `dbu_per_micron` must be a power of ten (every built-in technology uses
//!   1000).
//! * DEF wiring has no per-segment width; routed segments are emitted at the
//!   layer's default width, which is what every router in this workspace
//!   produces.

use std::fmt::Write as _;
use tpl_design::{Design, RoutingSolution, Technology};

use crate::lex::format_microns;

/// Renders a technology as a LEF library.
///
/// The `dbu_per_micron` of the technology must be a power of ten (LEF
/// distances are decimal microns); every technology constructed by this
/// workspace satisfies that.
pub fn write_lef(tech: &Technology) -> String {
    let dbu = tech.dbu_per_micron();
    let um = |v| format_microns(v, dbu);
    let mut out = String::new();
    out.push_str("VERSION 5.8 ;\n");
    out.push_str("UNITS\n");
    let _ = writeln!(out, "  DATABASE MICRONS {dbu} ;");
    out.push_str("END UNITS\n");
    let _ = writeln!(out, "TPLCOLORSPACING {} ;", um(tech.dcolor()));
    for (_, layer) in tech.iter() {
        let _ = writeln!(out, "LAYER {}", layer.name);
        out.push_str("  TYPE ROUTING ;\n");
        let dir = if layer.axis.is_horizontal() {
            "HORIZONTAL"
        } else {
            "VERTICAL"
        };
        let _ = writeln!(out, "  DIRECTION {dir} ;");
        let _ = writeln!(out, "  PITCH {} ;", um(layer.pitch));
        let _ = writeln!(out, "  OFFSET {} ;", um(layer.offset));
        let _ = writeln!(out, "  WIDTH {} ;", um(layer.width));
        let _ = writeln!(out, "  SPACING {} ;", um(layer.spacing));
        let _ = writeln!(out, "END {}", layer.name);
    }
    out.push_str("END LIBRARY\n");
    out
}

/// Renders a design (and optionally its routing) as a DEF file.
///
/// Every pin is written as a top-level DEF pin with absolute geometry, every
/// net lists its terminals as `( PIN <name> )`, and every obstacle becomes a
/// one-rect special net (`+ USE SIGNAL` when colourable, `+ USE POWER` when a
/// blockage).  With a [`RoutingSolution`], nets gain `+ ROUTED` wiring;
/// segments are emitted at their layer's default width.
pub fn write_def(design: &Design, routing: Option<&RoutingSolution>) -> String {
    let tech = design.tech();
    let layer_name = |id: tpl_design::LayerId| tech.layer(id).name.as_str();
    let mut out = String::new();
    let _ = writeln!(out, "DESIGN {} ;", design.name());
    let _ = writeln!(out, "UNITS DISTANCE MICRONS {} ;", tech.dbu_per_micron());
    let die = design.die();
    let _ = writeln!(
        out,
        "DIEAREA ( {} {} ) ( {} {} ) ;",
        die.lo.x, die.lo.y, die.hi.x, die.hi.y
    );

    let _ = writeln!(out, "PINS {} ;", design.pins().len());
    for pin in design.pins() {
        let _ = write!(out, "- {}", pin.name());
        if pin.net().index() < design.nets().len() {
            let _ = write!(out, " + NET {}", design.net(pin.net()).name());
        }
        for (layer, rect) in pin.shapes() {
            let _ = write!(
                out,
                " + LAYER {} ( {} {} ) ( {} {} )",
                layer_name(*layer),
                rect.lo.x,
                rect.lo.y,
                rect.hi.x,
                rect.hi.y
            );
        }
        out.push_str(" + PLACED ( 0 0 ) N ;\n");
    }
    out.push_str("END PINS\n");

    let _ = writeln!(out, "NETS {} ;", design.nets().len());
    for net in design.nets() {
        let _ = write!(out, "- {}", net.name());
        for pin in net.pins() {
            let _ = write!(out, " ( PIN {} )", design.pins()[pin.index()].name());
        }
        if let Some(routed) = routing.and_then(|r| r.get(net.id())) {
            let mut keyword = "\n  + ROUTED";
            for seg in &routed.segments {
                let _ = write!(
                    out,
                    "{keyword} {} ( {} {} ) ( {} {} )",
                    layer_name(seg.layer),
                    seg.seg.a.x,
                    seg.seg.a.y,
                    seg.seg.b.x,
                    seg.seg.b.y
                );
                keyword = "\n    NEW";
            }
            for via in &routed.vias {
                let _ = write!(
                    out,
                    "{keyword} VIA {} ( {} {} )",
                    layer_name(via.lower_layer),
                    via.at.x,
                    via.at.y
                );
                keyword = "\n    NEW";
            }
        }
        out.push_str(" ;\n");
    }
    out.push_str("END NETS\n");

    let _ = writeln!(out, "SPECIALNETS {} ;", design.obstacles().len());
    for obs in design.obstacles() {
        let use_class = if obs.colorable { "SIGNAL" } else { "POWER" };
        let _ = writeln!(
            out,
            "- {} + USE {use_class} + RECT {} ( {} {} ) ( {} {} ) ;",
            obs.id,
            layer_name(obs.layer),
            obs.rect.lo.x,
            obs.rect.lo.y,
            obs.rect.hi.x,
            obs.rect.hi.y
        );
    }
    out.push_str("END SPECIALNETS\n");
    out.push_str("END DESIGN\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lower, parse_def, parse_lef};
    use tpl_design::{DesignBuilder, NetId, RouteSegment, RoutedNet, RoutingSolution, ViaInstance};
    use tpl_geom::{Point, Rect, Segment};

    fn sample() -> Design {
        let tech = Technology::ispd_like(3);
        let mut b = DesignBuilder::new("sample", tech, Rect::from_coords(0, 0, 400, 400));
        let a = b.add_pin_shape("n0_p0", 0, Rect::from_coords(6, 6, 14, 14));
        let z = b.add_pin_shape("n0_p1", 0, Rect::from_coords(206, 206, 214, 214));
        b.add_net("net0", vec![a, z]);
        let c = b.add_pin_shape("n1_p0", 0, Rect::from_coords(6, 106, 14, 114));
        let d = b.add_pin_shape("n1_p1", 2, Rect::from_coords(306, 106, 314, 114));
        b.add_net("net1", vec![c, d]);
        b.add_obstacle(1, Rect::from_coords(100, 100, 140, 120));
        b.add_blockage(0, Rect::from_coords(200, 0, 240, 40));
        b.build().unwrap()
    }

    #[test]
    fn lef_def_round_trip_reproduces_the_design() {
        let design = sample();
        let lef_src = write_lef(design.tech());
        let def_src = write_def(&design, None);
        let lef = parse_lef(&lef_src).unwrap();
        let def = parse_def(&def_src).unwrap();
        let lowered = lower(&lef, &def).unwrap();
        assert_eq!(lowered.design, design);
        assert!(lowered.routing.is_none());
    }

    #[test]
    fn routed_wiring_round_trips() {
        let design = sample();
        let mut sol = RoutingSolution::new(design.nets().len());
        let mut rn = RoutedNet::new();
        rn.segments.push(RouteSegment::new(
            tpl_design::LayerId::new(0),
            Segment::new(Point::new(10, 10), Point::new(210, 10)),
            8,
        ));
        rn.segments.push(RouteSegment::new(
            tpl_design::LayerId::new(1),
            Segment::new(Point::new(210, 10), Point::new(210, 210)),
            8,
        ));
        rn.vias.push(ViaInstance::new(
            tpl_design::LayerId::new(0),
            Point::new(210, 10),
        ));
        sol.set(NetId::new(0), rn.clone());
        let def_src = write_def(&design, Some(&sol));
        let lef = parse_lef(&write_lef(design.tech())).unwrap();
        let def = parse_def(&def_src).unwrap();
        let lowered = lower(&lef, &def).unwrap();
        let routing = lowered.routing.expect("wiring present");
        assert_eq!(routing.get(NetId::new(0)), Some(&rn));
        assert_eq!(routing.get(NetId::new(1)), None);
    }

    #[test]
    fn lef_writer_emits_exact_micron_distances() {
        let tech = Technology::ispd_like(2);
        let lef = write_lef(&tech);
        assert!(lef.contains("DATABASE MICRONS 1000 ;"), "{lef}");
        assert!(lef.contains("TPLCOLORSPACING 0.045 ;"), "{lef}");
        assert!(lef.contains("PITCH 0.02 ;"), "{lef}");
        assert!(lef.contains("WIDTH 0.008 ;"), "{lef}");
    }
}
