//! Lowering a parsed (LEF, DEF) pair into the `tpl-design` model.
//!
//! The lowering is the semantic half of ingestion: it cross-checks the two
//! sources (units, layer/macro/pin references), resolves component pin
//! geometry to absolute coordinates and produces a validated
//! [`Design`] — plus a [`RoutingSolution`] when the DEF carries `+ ROUTED`
//! wiring.
//!
//! Conventions of the subset:
//!
//! * Only net-referenced pins become design pins (a [`Design`] pin always
//!   belongs to a net).  Unreferenced DEF pins and unreferenced macro pin
//!   ports are kept as **colourable obstacles** so their metal still blocks
//!   and colours the layout.
//! * Macro `OBS` shapes are routing **blockages** (non-colourable).
//! * `SPECIALNETS` shapes are colourable obstacles under `+ USE SIGNAL` and
//!   blockages under every other use class (power/ground rails are not
//!   subject to triple patterning in this model).
//! * The TPL colour distance comes from the LEF `TPLCOLORSPACING`
//!   statement; without it, the canonical 2.25 × (minimum pitch) of the
//!   synthetic suites is assumed.

use crate::def::{DefDesign, DefTerminal, DefWire};
use crate::lef::{LefLibrary, LefMacro};
use crate::LefDefError;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use tpl_design::{
    Design, DesignBuilder, Layer, LayerId, NetId, PinId, RouteSegment, RoutedNet, RoutingSolution,
    Technology, ViaInstance,
};
use tpl_geom::{Point, Rect, Segment};

/// The result of lowering: the design plus any pre-routed wiring.
#[derive(Clone, Debug)]
pub struct LoweredDesign {
    /// The validated design.
    pub design: Design,
    /// The `+ ROUTED` wiring of the DEF, when any net carried some.
    pub routing: Option<RoutingSolution>,
}

fn lower_err(message: impl Into<String>) -> LefDefError {
    LefDefError::Lower(message.into())
}

/// Lowers a parsed LEF library and DEF design into the `tpl-design` model.
///
/// # Errors
///
/// [`LefDefError::Lower`] on unit mismatches and dangling references,
/// [`LefDefError::Design`] when `tpl-design`'s own validation rejects the
/// result (e.g. single-pin nets, geometry outside the die).
pub fn lower(lef: &LefLibrary, def: &DefDesign) -> Result<LoweredDesign, LefDefError> {
    if lef.dbu_per_micron != def.dbu_per_micron {
        return Err(lower_err(format!(
            "unit mismatch: LEF has {} database units per micron, DEF has {}",
            lef.dbu_per_micron, def.dbu_per_micron
        )));
    }
    if lef.layers.is_empty() {
        return Err(lower_err("the LEF defines no ROUTING layers"));
    }

    // Technology: LEF layer order is the stack order.
    let layers: Vec<Layer> = lef
        .layers
        .iter()
        .map(|l| {
            Layer::new(
                l.name.clone(),
                l.axis,
                l.pitch,
                l.offset,
                l.width,
                l.spacing,
            )
        })
        .collect();
    let min_pitch = lef.layers.iter().map(|l| l.pitch).min().unwrap_or(1);
    // Saturating: parsed pitches are bounded, but a hand-built library with
    // an absurd pitch should fail technology validation, not overflow here.
    let dcolor = lef
        .dcolor
        .unwrap_or_else(|| min_pitch.saturating_mul(2).saturating_add(min_pitch / 4));
    let tech = Technology::new(layers, dcolor, lef.dbu_per_micron)?;
    let layer_ids: HashMap<&str, u32> = lef
        .layers
        .iter()
        .enumerate()
        .map(|(i, l)| (l.name.as_str(), i as u32))
        .collect();
    // `what` names the referencing object for the error only, so it is
    // formatted lazily.
    let layer_id = |name: &str, what: fmt::Arguments<'_>| -> Result<u32, LefDefError> {
        layer_ids
            .get(name)
            .copied()
            .ok_or_else(|| lower_err(format!("{what} references unknown layer `{name}`")))
    };

    let macros: HashMap<&str, &LefMacro> =
        lef.macros.iter().map(|m| (m.name.as_str(), m)).collect();

    // The pin names the NETS section references, each with the design pin
    // it resolves to once one matches (the last match wins).
    let mut referenced: HashMap<PinName<'_>, Option<PinId>> = HashMap::new();
    for net in &def.nets {
        for term in &net.terminals {
            referenced.insert(PinName::of(term), None);
        }
    }

    let mut builder = DesignBuilder::new(def.name.clone(), tech, def.die);
    // Unreferenced metal collected as colourable obstacles, after the
    // special nets and macro obstructions.
    let mut leftover: Vec<(u32, Rect)> = Vec::new();

    // Top-level DEF pins, in file order.
    for pin in &def.pins {
        let mut shapes: Vec<(LayerId, Rect)> = Vec::new();
        for (layer, rect) in &pin.shapes {
            let id = layer_id(layer, format_args!("pin {}", pin.name))?;
            shapes.push((
                LayerId::new(id),
                translate(*rect, pin.at, format_args!("pin {}", pin.name))?,
            ));
        }
        if let Some(slot) = referenced.get_mut(&PinName::pin(&pin.name)) {
            if shapes.is_empty() {
                return Err(lower_err(format!(
                    "pin {} is connected to a net but has no LAYER geometry",
                    pin.name
                )));
            }
            *slot = Some(builder.add_pin(pin.name.clone(), shapes));
        } else {
            leftover.extend(shapes.into_iter().map(|(l, r)| (l.index() as u32, r)));
        }
    }

    // Component pins, in (component, macro pin) order.
    for comp in &def.components {
        let mac = macros.get(comp.macro_name.as_str()).ok_or_else(|| {
            lower_err(format!(
                "component {} references unknown macro `{}`",
                comp.name, comp.macro_name
            ))
        })?;
        for pin in &mac.pins {
            let name = PinName::component(&comp.name, &pin.name);
            let mut shapes: Vec<(LayerId, Rect)> = Vec::new();
            for (layer, rect) in &pin.ports {
                let id = layer_id(layer, format_args!("macro pin {name}"))?;
                shapes.push((
                    LayerId::new(id),
                    translate(*rect, comp.at, format_args!("macro pin {name}"))?,
                ));
            }
            if let Some(slot) = referenced.get_mut(&name) {
                if shapes.is_empty() {
                    return Err(lower_err(format!(
                        "component pin {name} is connected to a net but its macro port is empty"
                    )));
                }
                *slot = Some(builder.add_pin(name.to_string(), shapes));
            } else {
                leftover.extend(shapes.into_iter().map(|(l, r)| (l.index() as u32, r)));
            }
        }
    }

    // The first unmatched terminal in NETS file order.
    if let Some(name) = def
        .nets
        .iter()
        .flat_map(|net| &net.terminals)
        .map(PinName::of)
        .find(|name| referenced[name].is_none())
    {
        return Err(lower_err(format!(
            "net terminal `{name}` matches no DEF pin and no placed component pin"
        )));
    }

    // Nets, in file order.
    for net in &def.nets {
        let ids = net
            .terminals
            .iter()
            .map(|t| referenced[&PinName::of(t)].expect("every terminal matched a pin"))
            .collect();
        builder.add_net(net.name.clone(), ids);
    }

    // Special nets: obstacles in file order, rects before wires.
    for snet in &def.special_nets {
        let colorable = snet.use_class == "SIGNAL";
        let mut add = |layer: u32, rect: Rect| {
            if colorable {
                builder.add_obstacle(layer, rect);
            } else {
                builder.add_blockage(layer, rect);
            }
        };
        for (layer, rect) in &snet.rects {
            add(
                layer_id(layer, format_args!("special net {}", snet.name))?,
                *rect,
            );
        }
        for (layer, width, a, b) in &snet.wires {
            let id = layer_id(layer, format_args!("special net {}", snet.name))?;
            check_axis_aligned(*a, *b, format_args!("special net {}", snet.name))?;
            let rect = Segment::new(*a, *b).to_rect(*width);
            add(id, rect);
        }
    }

    // Macro obstructions: routing blockages.
    for comp in &def.components {
        let mac = macros[comp.macro_name.as_str()];
        for (layer, rect) in &mac.obs {
            let id = layer_id(layer, format_args!("macro {} OBS", mac.name))?;
            builder.add_blockage(
                id,
                translate(*rect, comp.at, format_args!("macro {} OBS", mac.name))?,
            );
        }
    }

    // Unreferenced pin metal, colourable.
    for (layer, rect) in leftover {
        builder.add_obstacle(layer, rect);
    }

    let design = builder.build()?;

    // Pre-routed wiring, when present.
    let has_wiring = def.nets.iter().any(|n| !n.routed.is_empty());
    let routing = if has_wiring {
        let mut solution = RoutingSolution::new(design.nets().len());
        for (idx, net) in def.nets.iter().enumerate() {
            if net.routed.is_empty() {
                continue;
            }
            let mut routed = RoutedNet::new();
            for wire in &net.routed {
                match wire {
                    DefWire::Segment { layer, a, b } => {
                        let id = layer_id(layer, format_args!("net {} wiring", net.name))?;
                        check_axis_aligned(*a, *b, format_args!("net {} wiring", net.name))?;
                        let width = design.tech().layer(LayerId::new(id)).width;
                        routed.segments.push(RouteSegment::new(
                            LayerId::new(id),
                            Segment::new(*a, *b),
                            width,
                        ));
                    }
                    DefWire::Via { layer, at } => {
                        let id = layer_id(layer, format_args!("net {} wiring", net.name))?;
                        if id as usize + 1 >= design.tech().num_layers() {
                            return Err(lower_err(format!(
                                "net {} has a via on the top layer `{layer}`",
                                net.name
                            )));
                        }
                        routed.vias.push(ViaInstance::new(LayerId::new(id), *at));
                    }
                }
            }
            solution.set(NetId::from(idx), routed);
        }
        Some(solution)
    } else {
        None
    };

    Ok(LoweredDesign { design, routing })
}

/// A design-level pin name — a DEF pin's own name, or `inst/pin` for a
/// component pin — compared and hashed as that joined text without building
/// it, so `( PIN u1/a )` and `( u1 a )` still name the same pin.
#[derive(Clone, Copy, Debug)]
struct PinName<'a> {
    head: &'a str,
    /// The macro pin after the `/`, for a component pin.
    tail: Option<&'a str>,
}

impl<'a> PinName<'a> {
    fn pin(name: &'a str) -> Self {
        PinName {
            head: name,
            tail: None,
        }
    }

    fn component(inst: &'a str, pin: &'a str) -> Self {
        PinName {
            head: inst,
            tail: Some(pin),
        }
    }

    /// The name a net terminal resolves to.
    fn of(term: &'a DefTerminal) -> Self {
        match term {
            DefTerminal::Pin(name) => PinName::pin(name),
            DefTerminal::Component(inst, pin) => PinName::component(inst, pin),
        }
    }

    /// The joined text's pieces, in order.
    fn parts(&self) -> [&'a [u8]; 3] {
        match self.tail {
            Some(tail) => [self.head.as_bytes(), b"/", tail.as_bytes()],
            None => [self.head.as_bytes(), b"", b""],
        }
    }

    fn len(&self) -> usize {
        self.parts().iter().map(|p| p.len()).sum()
    }
}

impl fmt::Display for PinName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.tail {
            Some(tail) => write!(f, "{}/{tail}", self.head),
            None => f.write_str(self.head),
        }
    }
}

impl PartialEq for PinName<'_> {
    fn eq(&self, other: &Self) -> bool {
        let bytes = |n: &Self| n.parts().into_iter().flatten();
        self.len() == other.len() && bytes(self).eq(bytes(other))
    }
}

impl Eq for PinName<'_> {}

impl Hash for PinName<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Fixed-size chunks of the joined text: equal texts hash alike
        // however they split into head and tail.
        let mut chunk = [0u8; 32];
        let mut fill = 0;
        for &b in self.parts().into_iter().flatten() {
            chunk[fill] = b;
            fill += 1;
            if fill == chunk.len() {
                state.write(&chunk);
                fill = 0;
            }
        }
        state.write(&chunk[..fill]);
    }
}

/// Rejects diagonal wiring (the model only supports Manhattan geometry).
fn check_axis_aligned(a: Point, b: Point, what: fmt::Arguments<'_>) -> Result<(), LefDefError> {
    if a.x == b.x || a.y == b.y {
        Ok(())
    } else {
        Err(lower_err(format!(
            "{what} contains a non-axis-aligned wire {a} -> {b}"
        )))
    }
}

/// Shifts a rectangle by a placement point, with checked arithmetic: the
/// parsers bound every coordinate to ±2^40, but `lower` is also a public
/// entry point for hand-built [`DefDesign`]s, so an overflowing placement
/// must come back as an error rather than a panic (debug) or a silently
/// wrapped rectangle (release).
fn translate(rect: Rect, by: Point, what: fmt::Arguments<'_>) -> Result<Rect, LefDefError> {
    let add = |a: i64, b: i64| {
        a.checked_add(b)
            .ok_or_else(|| lower_err(format!("{what}: placement overflows a coordinate")))
    };
    Ok(Rect::from_coords(
        add(rect.lo.x, by.x)?,
        add(rect.lo.y, by.y)?,
        add(rect.hi.x, by.x)?,
        add(rect.hi.y, by.y)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_def, parse_lef};

    const LEF: &str = "\
UNITS
  DATABASE MICRONS 1000 ;
END UNITS
TPLCOLORSPACING 0.045 ;
LAYER M1
  TYPE ROUTING ;
  DIRECTION HORIZONTAL ;
  PITCH 0.02 ;
  OFFSET 0.01 ;
  WIDTH 0.008 ;
  SPACING 0.008 ;
END M1
LAYER M2
  TYPE ROUTING ;
  DIRECTION VERTICAL ;
  PITCH 0.02 ;
  OFFSET 0.01 ;
  WIDTH 0.008 ;
  SPACING 0.008 ;
END M2
MACRO buf
  SIZE 0.1 BY 0.1 ;
  PIN a
    PORT
      LAYER M1 ;
        RECT 0.006 0.006 0.014 0.014 ;
    END
  END a
  PIN z
    PORT
      LAYER M1 ;
        RECT 0.066 0.006 0.074 0.014 ;
    END
  END z
  OBS
    LAYER M2 ;
      RECT 0.02 0.04 0.08 0.06 ;
  END
END buf
END LIBRARY
";

    const DEF: &str = "\
DESIGN lowered ;
UNITS DISTANCE MICRONS 1000 ;
DIEAREA ( 0 0 ) ( 800 800 ) ;
COMPONENTS 1 ;
- u1 buf + PLACED ( 100 100 ) N ;
END COMPONENTS
PINS 2 ;
- in0 + NET n0 + LAYER M1 ( -4 -4 ) ( 4 4 ) + PLACED ( 110 310 ) N ;
- dangling + LAYER M2 ( 200 200 ) ( 208 208 ) ;
END PINS
NETS 1 ;
- n0 ( PIN in0 ) ( u1 a )
  + ROUTED M1 ( 110 310 ) ( 110 110 )
    NEW VIA M1 ( 110 310 ) ;
END NETS
SPECIALNETS 2 ;
- keepout + USE SIGNAL + RECT M2 ( 300 300 ) ( 360 360 ) ;
- vdd + ROUTED M2 20 ( 0 700 ) ( 800 700 ) ;
END SPECIALNETS
END DESIGN
";

    #[test]
    fn lowers_pins_components_and_obstacles() {
        let lef = parse_lef(LEF).unwrap();
        let def = parse_def(DEF).unwrap();
        let lowered = lower(&lef, &def).unwrap();
        let d = &lowered.design;
        assert_eq!(d.name(), "lowered");
        assert_eq!(d.tech().num_layers(), 2);
        assert_eq!(d.tech().dcolor(), 45);
        // in0 (placed) and u1/a; `dangling` and u1/z fall through to
        // obstacles.
        assert_eq!(d.pins().len(), 2);
        assert_eq!(d.pins()[0].name(), "in0");
        assert_eq!(
            d.pins()[0].shapes()[0].1,
            Rect::from_coords(106, 306, 114, 314)
        );
        assert_eq!(d.pins()[1].name(), "u1/a");
        assert_eq!(
            d.pins()[1].shapes()[0].1,
            Rect::from_coords(106, 106, 114, 114)
        );
        assert_eq!(d.nets().len(), 1);
        assert_eq!(d.nets()[0].pin_count(), 2);
        // Obstacles: keepout rect (colourable), vdd wire (blockage), macro
        // OBS (blockage), dangling pin + u1/z port (colourable).
        assert_eq!(d.obstacles().len(), 5);
        assert!(d.obstacles()[0].colorable);
        assert!(!d.obstacles()[1].colorable);
        // Wire rects get square line caps: ends extend by half the width.
        assert_eq!(d.obstacles()[1].rect, Rect::from_coords(-10, 690, 810, 710));
        assert!(!d.obstacles()[2].colorable);
        assert_eq!(d.obstacles()[2].rect, Rect::from_coords(120, 140, 180, 160));
        assert!(d.obstacles()[3].colorable);
        assert!(d.obstacles()[4].colorable);
        // The + ROUTED clause became a one-net solution.
        let routing = lowered.routing.expect("DEF carries wiring");
        assert_eq!(routing.routed_count(), 1);
        let rn = routing.get(NetId::new(0)).unwrap();
        assert_eq!(rn.segments.len(), 1);
        assert_eq!(rn.segments[0].width, 8);
        assert_eq!(rn.vias.len(), 1);
    }

    #[test]
    fn unit_mismatch_is_a_lower_error() {
        let lef = parse_lef(LEF).unwrap();
        let mut def = parse_def(DEF).unwrap();
        def.dbu_per_micron = 100;
        let err = lower(&lef, &def).unwrap_err();
        assert!(err.to_string().contains("unit mismatch"), "{err}");
    }

    #[test]
    fn unknown_terminal_is_a_lower_error() {
        let lef = parse_lef(LEF).unwrap();
        let mut def = parse_def(DEF).unwrap();
        def.nets[0]
            .terminals
            .push(DefTerminal::Component("u9".into(), "a".into()));
        let err = lower(&lef, &def).unwrap_err();
        assert!(err.to_string().contains("u9/a"), "{err}");
    }

    #[test]
    fn the_first_unmatched_terminal_in_file_order_is_named() {
        let lef = parse_lef(LEF).unwrap();
        let mut def = parse_def(DEF).unwrap();
        def.nets[0]
            .terminals
            .push(DefTerminal::Pin("missing_first".into()));
        def.nets[0]
            .terminals
            .push(DefTerminal::Component("u9".into(), "z".into()));
        // Every lowering hashes with fresh keys, so an error picked from a
        // map's iteration order would differ between these calls.
        for _ in 0..16 {
            let err = lower(&lef, &def).unwrap_err().to_string();
            assert!(err.contains("net terminal `missing_first`"), "{err}");
            assert!(!err.contains("u9/z"), "{err}");
        }
    }

    #[test]
    fn a_pin_terminal_spelled_inst_slash_pin_resolves_to_the_component_pin() {
        let lef = parse_lef(LEF).unwrap();
        let def = parse_def(&DEF.replace("( u1 a )", "( PIN u1/a )")).unwrap();
        let lowered = lower(&lef, &def).unwrap();
        assert_eq!(
            lowered.design,
            lower(&lef, &parse_def(DEF).unwrap()).unwrap().design
        );
    }

    #[test]
    fn pin_names_compare_and_hash_as_their_joined_text() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |n: PinName<'_>| {
            let mut h = DefaultHasher::new();
            n.hash(&mut h);
            h.finish()
        };
        let long = "a_name_long_enough_to_cross_a_hash_chunk";
        let joined = format!("{long}/{long}/pin");
        let tail = format!("{long}/pin");
        let splits = [
            PinName::pin(&joined),
            PinName::component(long, &tail),
            PinName::component(&joined[..long.len() * 2 + 1], "pin"),
        ];
        for a in splits {
            assert_eq!(a.to_string(), joined);
            for b in splits {
                assert_eq!(a, b);
                assert_eq!(hash(a), hash(b));
            }
        }
        assert_ne!(PinName::pin("u1/a"), PinName::component("u1", "b"));
        assert_ne!(PinName::pin("u1"), PinName::component("u1", ""));
    }

    #[test]
    fn unknown_layer_is_a_lower_error() {
        let lef = parse_lef(LEF).unwrap();
        let mut def = parse_def(DEF).unwrap();
        def.pins[0].shapes[0].0 = "M9".to_string();
        let err = lower(&lef, &def).unwrap_err();
        assert!(err.to_string().contains("M9"), "{err}");
    }

    #[test]
    fn default_dcolor_is_2_25_pitches() {
        let lef_no_dcolor = LEF.replace("TPLCOLORSPACING 0.045 ;\n", "");
        let lef = parse_lef(&lef_no_dcolor).unwrap();
        let def = parse_def(DEF).unwrap();
        let lowered = lower(&lef, &def).unwrap();
        assert_eq!(lowered.design.tech().dcolor(), 45);
    }
}
