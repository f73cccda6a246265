//! Recursive-descent parser for the supported DEF subset.
//!
//! ```text
//! VERSION <num> ;  DIVIDERCHAR "<c>" ;  BUSBITCHARS "<..>" ;   # optional
//! DESIGN <name> ;
//! UNITS DISTANCE MICRONS <int> ;
//! DIEAREA ( x1 y1 ) ( x2 y2 ) ;
//! ROW <name> <site> <x> <y> <orient> [DO <n> BY <m> [STEP <sx> <sy>]] ;
//! COMPONENTS <n> ;
//!   - <inst> <macro> + <PLACED|FIXED> ( x y ) N ;
//! END COMPONENTS
//! PINS <n> ;
//!   - <pin> [+ NET <net>] [+ DIRECTION <d>] [+ USE <u>]
//!     (+ LAYER <layer> ( lx ly ) ( hx hy ))*
//!     [+ <PLACED|FIXED> ( x y ) N] ;
//! END PINS
//! NETS <n> ;
//!   - <net> ( PIN <pin> )* ( <inst> <pin> )* [+ USE <u>]
//!     [+ ROUTED <wire> (NEW <wire>)*] ;
//! END NETS
//! SPECIALNETS <n> ;
//!   - <name> [+ USE <u>]
//!     (+ RECT <layer> ( x1 y1 ) ( x2 y2 ))*
//!     (+ ROUTED <layer> <width> ( x1 y1 ) ( x2 y2 ) [NEW ...])* ;
//! END SPECIALNETS
//! END DESIGN
//! ```
//!
//! where a regular-net `<wire>` is either `<layer> ( x1 y1 ) ( x2 y2 )` (a
//! wire centre-line at the layer's default width) or `VIA <lower-layer>
//! ( x y )` (a cut to the layer above).  All coordinates are integer
//! database units, like real DEF.  Only orientation `N` is supported;
//! anything else is a positioned [`ParseError`].

use crate::lex::{err_at, Cursor, Token};
use crate::ParseError;
use std::collections::HashSet;
use tpl_geom::{Dbu, Point, Rect};

/// A placement row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DefRow {
    /// Row name.
    pub name: String,
    /// Site name (not cross-checked against the LEF).
    pub site: String,
    /// Origin of the first site.
    pub origin: Point,
    /// Site count in x (`DO`).
    pub nx: Dbu,
    /// Site count in y (`BY`).
    pub ny: Dbu,
    /// Step between sites (`STEP`).
    pub step: (Dbu, Dbu),
}

/// A placed component instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DefComponent {
    /// Instance name, unique within the design.
    pub name: String,
    /// LEF macro name.
    pub macro_name: String,
    /// Placement of the macro origin.
    pub at: Point,
}

/// A top-level design pin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DefPin {
    /// Pin name, unique within the design.
    pub name: String,
    /// The net named by `+ NET` (informational; connectivity comes from the
    /// `NETS` section).
    pub net: Option<String>,
    /// `(layer name, rect)` shapes relative to the placement point.
    pub shapes: Vec<(String, Rect)>,
    /// The placement point (defaults to the origin when `+ PLACED` is
    /// absent, i.e. shapes are absolute).
    pub at: Point,
}

/// One terminal of a net: a top-level pin or a `(component, pin)` pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DefTerminal {
    /// A top-level design pin (`( PIN name )`).
    Pin(String),
    /// A component pin (`( inst pin )`).
    Component(String, String),
}

/// One element of a routed wire: a segment or a via.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DefWire {
    /// A wire centre-line on a layer, at the layer's default width.
    Segment {
        /// Layer name.
        layer: String,
        /// Segment start.
        a: Point,
        /// Segment end.
        b: Point,
    },
    /// A via whose cut sits between `layer` and the layer above it.
    Via {
        /// Lower layer name.
        layer: String,
        /// Cut centre.
        at: Point,
    },
}

/// A signal net.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DefNet {
    /// Net name, unique within the design.
    pub name: String,
    /// Terminals in declaration order.
    pub terminals: Vec<DefTerminal>,
    /// Routed wiring (`+ ROUTED`), empty for unrouted nets.
    pub routed: Vec<DefWire>,
}

/// A special net, lowered as obstacles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DefSpecialNet {
    /// Net name.
    pub name: String,
    /// The `+ USE` class (`SIGNAL`, `POWER`, `GROUND`, …); defaults to
    /// `POWER` when absent.
    pub use_class: String,
    /// Explicit `(layer, rect)` shapes from `+ RECT`.
    pub rects: Vec<(String, Rect)>,
    /// Wires from `+ ROUTED <layer> <width> ( .. ) ( .. )`.
    pub wires: Vec<(String, Dbu, Point, Point)>,
}

/// A parsed DEF design.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DefDesign {
    /// Design name.
    pub name: String,
    /// Database units per micron (`UNITS DISTANCE MICRONS`).
    pub dbu_per_micron: Dbu,
    /// The die area.
    pub die: Rect,
    /// Placement rows (informational).
    pub rows: Vec<DefRow>,
    /// Component instances.
    pub components: Vec<DefComponent>,
    /// Top-level pins.
    pub pins: Vec<DefPin>,
    /// Signal nets.
    pub nets: Vec<DefNet>,
    /// Special nets (obstacles).
    pub special_nets: Vec<DefSpecialNet>,
}

/// The names declared so far, one set per kind.  Each set spans the whole
/// parse, so a name repeated in a second section of the same kind is still
/// a duplicate.
#[derive(Default)]
struct Declared<'a> {
    components: HashSet<&'a str>,
    pins: HashSet<&'a str>,
    nets: HashSet<&'a str>,
    special_nets: HashSet<&'a str>,
}

/// Parses a DEF source into a [`DefDesign`].
pub fn parse_def(src: &str) -> Result<DefDesign, ParseError> {
    let mut c = Cursor::new(src);
    let mut declared = Declared::default();
    let mut def = DefDesign {
        name: String::new(),
        dbu_per_micron: 0,
        die: Rect::from_coords(0, 0, 0, 0),
        rows: Vec::new(),
        components: Vec::new(),
        pins: Vec::new(),
        nets: Vec::new(),
        special_nets: Vec::new(),
    };
    let mut seen_die = false;
    loop {
        let t = c.next("a DEF statement or `END DESIGN`")?;
        match t.text {
            "VERSION" | "DIVIDERCHAR" | "BUSBITCHARS" => c.skip_statement()?,
            "DESIGN" => {
                def.name = c.word("a design name")?.text.to_string();
                c.expect(";")?;
            }
            "UNITS" => {
                c.expect("DISTANCE")?;
                c.expect("MICRONS")?;
                let u = c.word("a units value")?;
                let value: Dbu = u.text.parse().map_err(|_| {
                    err_at(
                        u,
                        format!("expected an integer unit count, found `{}`", u.text),
                    )
                })?;
                if value <= 0 {
                    return Err(err_at(u, "DISTANCE MICRONS must be positive"));
                }
                def.dbu_per_micron = value;
                c.expect(";")?;
            }
            "DIEAREA" => {
                let lo = point(&mut c)?;
                let hi = point(&mut c)?;
                c.expect(";")?;
                def.die = Rect::from_coords(lo.x, lo.y, hi.x, hi.y);
                seen_die = true;
            }
            "ROW" => def.rows.push(parse_row(&mut c)?),
            "COMPONENTS" => parse_components(&mut c, &mut def, &mut declared.components)?,
            "PINS" => parse_pins(&mut c, &mut def, &mut declared.pins)?,
            "NETS" => parse_nets(&mut c, &mut def, &mut declared.nets)?,
            "SPECIALNETS" => parse_special_nets(&mut c, &mut def, &mut declared.special_nets)?,
            "END" => {
                c.expect("DESIGN")?;
                if def.name.is_empty() {
                    return Err(err_at(t, "missing `DESIGN <name> ;` statement"));
                }
                if def.dbu_per_micron == 0 {
                    return Err(err_at(t, "missing `UNITS DISTANCE MICRONS` statement"));
                }
                if !seen_die {
                    return Err(err_at(t, "missing `DIEAREA` statement"));
                }
                return Ok(def);
            }
            other => {
                return Err(err_at(
                    t,
                    format!("unknown DEF statement `{other}` (unsupported by this subset)"),
                ))
            }
        }
    }
}

/// Parses `( x y )`.
fn point(c: &mut Cursor<'_>) -> Result<Point, ParseError> {
    c.expect("(")?;
    let x = c.int("an x coordinate")?;
    let y = c.int("a y coordinate")?;
    c.expect(")")?;
    Ok(Point::new(x, y))
}

/// Consumes an orientation token, accepting only `N`.
fn orient(c: &mut Cursor<'_>) -> Result<(), ParseError> {
    let t = c.word("an orientation")?;
    if t.text == "N" {
        Ok(())
    } else {
        Err(err_at(
            t,
            format!(
                "unsupported orientation `{}` (this subset places everything N)",
                t.text
            ),
        ))
    }
}

fn parse_row(c: &mut Cursor<'_>) -> Result<DefRow, ParseError> {
    let name = c.word("a row name")?.text.to_string();
    let site = c.word("a site name")?.text.to_string();
    let x = c.int("a row x origin")?;
    let y = c.int("a row y origin")?;
    orient(c)?;
    let mut row = DefRow {
        name,
        site,
        origin: Point::new(x, y),
        nx: 1,
        ny: 1,
        step: (0, 0),
    };
    if c.eat("DO") {
        row.nx = c.int("a site count")?;
        c.expect("BY")?;
        row.ny = c.int("a site count")?;
        if c.eat("STEP") {
            row.step.0 = c.int("a step")?;
            row.step.1 = c.int("a step")?;
        }
    }
    c.expect(";")?;
    Ok(row)
}

/// Checks the `<n> ;` header of a section and returns the declared count.
fn section_count(c: &mut Cursor<'_>, what: &str) -> Result<usize, ParseError> {
    let t = c.word(&format!("the {what} count"))?;
    let n: usize = t
        .text
        .parse()
        .map_err(|_| err_at(t, format!("expected the {what} count, found `{}`", t.text)))?;
    c.expect(";")?;
    Ok(n)
}

/// Verifies a section's declared count against what was actually parsed.
fn check_count(kw: Token<'_>, what: &str, declared: usize, got: usize) -> Result<(), ParseError> {
    if declared == got {
        Ok(())
    } else {
        Err(err_at(
            kw,
            format!("{what} section declares {declared} entries but contains {got}"),
        ))
    }
}

fn parse_components<'a>(
    c: &mut Cursor<'a>,
    def: &mut DefDesign,
    seen: &mut HashSet<&'a str>,
) -> Result<(), ParseError> {
    let kw = c.peek().unwrap_or(Token {
        text: "",
        line: 0,
        col: 0,
    });
    let declared = section_count(c, "COMPONENTS")?;
    loop {
        let t = c.next("`-` or `END COMPONENTS`")?;
        match t.text {
            "-" => {
                let name_tok = c.word("an instance name")?;
                let name = name_tok.text.to_string();
                if !seen.insert(name_tok.text) {
                    return Err(err_at(name_tok, format!("duplicate component `{name}`")));
                }
                let macro_name = c.word("a macro name")?.text.to_string();
                c.expect("+")?;
                let kind = c.word("PLACED or FIXED")?;
                if !matches!(kind.text, "PLACED" | "FIXED") {
                    return Err(err_at(
                        kind,
                        format!("expected PLACED or FIXED, found `{}`", kind.text),
                    ));
                }
                let at = point(c)?;
                orient(c)?;
                c.expect(";")?;
                def.components.push(DefComponent {
                    name,
                    macro_name,
                    at,
                });
            }
            "END" => {
                c.expect("COMPONENTS")?;
                return check_count(kw, "COMPONENTS", declared, def.components.len());
            }
            other => return Err(err_at(t, format!("expected `-` or `END`, found `{other}`"))),
        }
    }
}

fn parse_pins<'a>(
    c: &mut Cursor<'a>,
    def: &mut DefDesign,
    seen: &mut HashSet<&'a str>,
) -> Result<(), ParseError> {
    let kw = c.peek().unwrap_or(Token {
        text: "",
        line: 0,
        col: 0,
    });
    let declared = section_count(c, "PINS")?;
    loop {
        let t = c.next("`-` or `END PINS`")?;
        match t.text {
            "-" => {
                let name_tok = c.word("a pin name")?;
                let name = name_tok.text.to_string();
                if !seen.insert(name_tok.text) {
                    return Err(err_at(name_tok, format!("duplicate pin `{name}`")));
                }
                let mut pin = DefPin {
                    name,
                    net: None,
                    shapes: Vec::new(),
                    at: Point::new(0, 0),
                };
                loop {
                    let t = c.next("`+`, `;`")?;
                    match t.text {
                        ";" => break,
                        "+" => {
                            let prop = c.word("a pin property")?;
                            match prop.text {
                                "NET" => {
                                    pin.net = Some(c.word("a net name")?.text.to_string());
                                }
                                "DIRECTION" | "USE" => {
                                    c.word("a value")?;
                                }
                                "LAYER" => {
                                    let layer = c.word("a layer name")?.text.to_string();
                                    let lo = point(c)?;
                                    let hi = point(c)?;
                                    pin.shapes
                                        .push((layer, Rect::from_coords(lo.x, lo.y, hi.x, hi.y)));
                                }
                                "PLACED" | "FIXED" => {
                                    pin.at = point(c)?;
                                    orient(c)?;
                                }
                                other => {
                                    return Err(err_at(
                                        prop,
                                        format!("unknown pin property `{other}`"),
                                    ))
                                }
                            }
                        }
                        other => {
                            return Err(err_at(t, format!("expected `+` or `;`, found `{other}`")))
                        }
                    }
                }
                def.pins.push(pin);
            }
            "END" => {
                c.expect("PINS")?;
                return check_count(kw, "PINS", declared, def.pins.len());
            }
            other => return Err(err_at(t, format!("expected `-` or `END`, found `{other}`"))),
        }
    }
}

fn parse_nets<'a>(
    c: &mut Cursor<'a>,
    def: &mut DefDesign,
    seen: &mut HashSet<&'a str>,
) -> Result<(), ParseError> {
    let kw = c.peek().unwrap_or(Token {
        text: "",
        line: 0,
        col: 0,
    });
    let declared = section_count(c, "NETS")?;
    loop {
        let t = c.next("`-` or `END NETS`")?;
        match t.text {
            "-" => {
                let name_tok = c.word("a net name")?;
                let name = name_tok.text.to_string();
                if !seen.insert(name_tok.text) {
                    return Err(err_at(name_tok, format!("duplicate net `{name}`")));
                }
                let mut net = DefNet {
                    name,
                    terminals: Vec::new(),
                    routed: Vec::new(),
                };
                loop {
                    let t = c.next("a terminal, `+ ROUTED` or `;`")?;
                    match t.text {
                        ";" => break,
                        "(" => {
                            let first = c.word("PIN or an instance name")?;
                            if first.text == "PIN" {
                                let pin = c.word("a pin name")?.text.to_string();
                                net.terminals.push(DefTerminal::Pin(pin));
                            } else {
                                let inst = first.text.to_string();
                                let pin = c.word("a component pin name")?.text.to_string();
                                net.terminals.push(DefTerminal::Component(inst, pin));
                            }
                            c.expect(")")?;
                        }
                        "+" => {
                            let prop = c.word("a net property")?;
                            match prop.text {
                                "USE" => {
                                    c.word("a value")?;
                                }
                                "ROUTED" => parse_wiring(c, &mut net.routed)?,
                                other => {
                                    return Err(err_at(
                                        prop,
                                        format!("unknown net property `{other}`"),
                                    ))
                                }
                            }
                        }
                        other => {
                            return Err(err_at(
                                t,
                                format!("expected `(`, `+` or `;`, found `{other}`"),
                            ))
                        }
                    }
                }
                def.nets.push(net);
            }
            "END" => {
                c.expect("NETS")?;
                return check_count(kw, "NETS", declared, def.nets.len());
            }
            other => return Err(err_at(t, format!("expected `-` or `END`, found `{other}`"))),
        }
    }
}

/// Parses the wire list of a regular net's `+ ROUTED` clause.
fn parse_wiring(c: &mut Cursor<'_>, out: &mut Vec<DefWire>) -> Result<(), ParseError> {
    loop {
        let head = c.word("a layer name or VIA")?;
        if head.text == "VIA" {
            let layer = c.word("a lower layer name")?.text.to_string();
            let at = point(c)?;
            out.push(DefWire::Via { layer, at });
        } else {
            let layer = head.text.to_string();
            let a = point(c)?;
            let b = point(c)?;
            out.push(DefWire::Segment { layer, a, b });
        }
        if !c.eat("NEW") {
            return Ok(());
        }
    }
}

fn parse_special_nets<'a>(
    c: &mut Cursor<'a>,
    def: &mut DefDesign,
    seen: &mut HashSet<&'a str>,
) -> Result<(), ParseError> {
    let kw = c.peek().unwrap_or(Token {
        text: "",
        line: 0,
        col: 0,
    });
    let declared = section_count(c, "SPECIALNETS")?;
    loop {
        let t = c.next("`-` or `END SPECIALNETS`")?;
        match t.text {
            "-" => {
                let name_tok = c.word("a special net name")?;
                let name = name_tok.text.to_string();
                if !seen.insert(name_tok.text) {
                    return Err(err_at(name_tok, format!("duplicate special net `{name}`")));
                }
                let mut snet = DefSpecialNet {
                    name,
                    use_class: "POWER".to_string(),
                    rects: Vec::new(),
                    wires: Vec::new(),
                };
                loop {
                    let t = c.next("`+` or `;`")?;
                    match t.text {
                        ";" => break,
                        "+" => {
                            let prop = c.word("a special net property")?;
                            match prop.text {
                                "USE" => {
                                    snet.use_class = c.word("a use class")?.text.to_string();
                                }
                                "RECT" => {
                                    let layer = c.word("a layer name")?.text.to_string();
                                    let lo = point(c)?;
                                    let hi = point(c)?;
                                    snet.rects.push((layer, Rect::new(lo, hi)));
                                }
                                "ROUTED" => loop {
                                    let layer = c.word("a layer name")?.text.to_string();
                                    let width = c.int("a wire width")?;
                                    let a = point(c)?;
                                    let b = point(c)?;
                                    snet.wires.push((layer, width, a, b));
                                    if !c.eat("NEW") {
                                        break;
                                    }
                                },
                                other => {
                                    return Err(err_at(
                                        prop,
                                        format!("unknown special net property `{other}`"),
                                    ))
                                }
                            }
                        }
                        other => {
                            return Err(err_at(t, format!("expected `+` or `;`, found `{other}`")))
                        }
                    }
                }
                def.special_nets.push(snet);
            }
            "END" => {
                c.expect("SPECIALNETS")?;
                return check_count(kw, "SPECIALNETS", declared, def.special_nets.len());
            }
            other => return Err(err_at(t, format!("expected `-` or `END`, found `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: &str = "\
VERSION 5.8 ;
DESIGN tiny ;
UNITS DISTANCE MICRONS 1000 ;
DIEAREA ( 0 0 ) ( 800 800 ) ;
ROW core_0 core 0 0 N DO 40 BY 1 STEP 20 0 ;
COMPONENTS 1 ;
- u1 buf + PLACED ( 100 100 ) N ;
END COMPONENTS
PINS 2 ;
- in0 + NET n0 + DIRECTION INPUT + USE SIGNAL
  + LAYER M1 ( -4 -4 ) ( 4 4 )
  + PLACED ( 110 110 ) N ;
- out0 + NET n0
  + LAYER M1 ( 506 106 ) ( 514 114 ) ;
END PINS
NETS 1 ;
- n0 ( PIN in0 ) ( PIN out0 ) ( u1 a )
  + ROUTED M1 ( 110 110 ) ( 310 110 )
    NEW VIA M1 ( 310 110 )
    NEW M2 ( 310 110 ) ( 310 510 ) ;
END NETS
SPECIALNETS 1 ;
- vdd + USE POWER
  + RECT M2 ( 0 780 ) ( 800 800 )
  + ROUTED M2 20 ( 0 700 ) ( 800 700 ) ;
END SPECIALNETS
END DESIGN
";

    #[test]
    fn parses_a_full_small_design() {
        let def = parse_def(SMALL).unwrap();
        assert_eq!(def.name, "tiny");
        assert_eq!(def.dbu_per_micron, 1000);
        assert_eq!(def.die, Rect::from_coords(0, 0, 800, 800));
        assert_eq!(def.rows.len(), 1);
        assert_eq!(def.rows[0].nx, 40);
        assert_eq!(def.components[0].at, Point::new(100, 100));
        assert_eq!(def.pins.len(), 2);
        assert_eq!(def.pins[0].at, Point::new(110, 110));
        assert_eq!(def.pins[1].at, Point::new(0, 0));
        let net = &def.nets[0];
        assert_eq!(net.terminals.len(), 3);
        assert_eq!(
            net.terminals[2],
            DefTerminal::Component("u1".into(), "a".into())
        );
        assert_eq!(net.routed.len(), 3);
        assert!(matches!(net.routed[1], DefWire::Via { .. }));
        let snet = &def.special_nets[0];
        assert_eq!(snet.use_class, "POWER");
        assert_eq!(snet.rects.len(), 1);
        assert_eq!(snet.wires.len(), 1);
    }

    #[test]
    fn duplicate_net_names_error_with_position() {
        let src = "\
DESIGN d ;
UNITS DISTANCE MICRONS 1000 ;
DIEAREA ( 0 0 ) ( 100 100 ) ;
PINS 2 ;
- a + LAYER M1 ( 0 0 ) ( 8 8 ) ;
- b + LAYER M1 ( 20 20 ) ( 28 28 ) ;
END PINS
NETS 2 ;
- n0 ( PIN a ) ( PIN b ) ;
- n0 ( PIN a ) ( PIN b ) ;
END NETS
END DESIGN
";
        let err = parse_def(src).unwrap_err();
        assert_eq!(err.line, 10);
        assert!(err.message.contains("duplicate net"), "{err}");
    }

    #[test]
    fn wrong_section_count_is_an_error() {
        let src = "\
DESIGN d ;
UNITS DISTANCE MICRONS 1000 ;
DIEAREA ( 0 0 ) ( 100 100 ) ;
PINS 3 ;
- a + LAYER M1 ( 0 0 ) ( 8 8 ) ;
END PINS
END DESIGN
";
        let err = parse_def(src).unwrap_err();
        assert!(err.message.contains("declares 3"), "{err}");
    }

    #[test]
    fn non_north_orientation_is_rejected() {
        let src = "\
DESIGN d ;
UNITS DISTANCE MICRONS 1000 ;
DIEAREA ( 0 0 ) ( 100 100 ) ;
COMPONENTS 1 ;
- u1 buf + PLACED ( 0 0 ) FS ;
END COMPONENTS
END DESIGN
";
        let err = parse_def(src).unwrap_err();
        assert!(err.message.contains("orientation"), "{err}");
        assert_eq!(err.line, 5);
    }

    #[test]
    fn truncated_input_reports_eof() {
        let err =
            parse_def("DESIGN d ;\nUNITS DISTANCE MICRONS 1000 ;\nDIEAREA ( 0 0 )").unwrap_err();
        assert!(err.message.contains("end of file"), "{err}");
    }
}
