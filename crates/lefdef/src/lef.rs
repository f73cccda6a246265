//! Recursive-descent parser for the supported LEF subset.
//!
//! The subset covers what the lowering needs to build a
//! [`tpl_design::Technology`] and resolve macro pin geometry:
//!
//! ```text
//! VERSION <num> ;                    # optional, ignored
//! BUSBITCHARS "<..>" ; DIVIDERCHAR "<..>" ;   # optional, ignored
//! UNITS DATABASE MICRONS <int> ; END UNITS    # required before any distance
//! MANUFACTURINGGRID <num> ;          # optional, ignored
//! TPLCOLORSPACING <microns> ;        # nonstandard: the TPL colour distance
//! LAYER <name> TYPE ROUTING ; DIRECTION <HORIZONTAL|VERTICAL> ;
//!   PITCH <m> ; [OFFSET <m> ;] WIDTH <m> ; SPACING <m> ; END <name>
//! LAYER <name> TYPE CUT ; ... END <name>      # parsed, not lowered
//! SITE <name> ... SIZE <m> BY <m> ; END <name>
//! MACRO <name> ... SIZE <m> BY <m> ;
//!   PIN <name> ... PORT LAYER <l> ; RECT <m m m m> ; ... END END <name>
//!   OBS LAYER <l> ; RECT <m m m m> ; ... END
//! END <name>
//! END LIBRARY
//! ```
//!
//! All distances are decimal microns converted exactly to database units
//! (see `crate::lex::parse_microns`); anything outside the grammar is a
//! positioned [`ParseError`], never a panic.

use crate::lex::{err_at, Cursor};
use crate::ParseError;
use std::collections::HashSet;
use tpl_geom::{Axis, Dbu, Rect};

/// A routing layer description from a LEF `LAYER ... TYPE ROUTING` block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LefLayer {
    /// Layer name (`M1`, `M2`, …).
    pub name: String,
    /// Preferred routing direction.
    pub axis: Axis,
    /// Track pitch in database units.
    pub pitch: Dbu,
    /// First-track offset in database units (defaults to half the pitch).
    pub offset: Dbu,
    /// Default wire width in database units.
    pub width: Dbu,
    /// Minimum spacing in database units.
    pub spacing: Dbu,
}

/// A placement site (`SITE ... SIZE x BY y`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LefSite {
    /// Site name.
    pub name: String,
    /// Site width in database units.
    pub width: Dbu,
    /// Site height in database units.
    pub height: Dbu,
}

/// One pin of a macro, with its port geometry in macro-local coordinates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LefPin {
    /// Pin name, unique within the macro.
    pub name: String,
    /// `(layer name, rect)` port shapes, origin-relative.
    pub ports: Vec<(String, Rect)>,
}

/// A macro (cell) definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LefMacro {
    /// Macro name, unique within the library.
    pub name: String,
    /// Cell size in database units.
    pub size: (Dbu, Dbu),
    /// Pins in declaration order.
    pub pins: Vec<LefPin>,
    /// Obstruction shapes, origin-relative.
    pub obs: Vec<(String, Rect)>,
}

/// A parsed LEF library.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LefLibrary {
    /// Database units per micron (`UNITS DATABASE MICRONS`).
    pub dbu_per_micron: Dbu,
    /// Routing layers, bottom-up in declaration order.
    pub layers: Vec<LefLayer>,
    /// Placement sites.
    pub sites: Vec<LefSite>,
    /// Macros in declaration order.
    pub macros: Vec<LefMacro>,
    /// The TPL colour-spacing distance, when the nonstandard
    /// `TPLCOLORSPACING` statement is present.
    pub dcolor: Option<Dbu>,
}

/// Parses a LEF source into a [`LefLibrary`].
pub fn parse_lef(src: &str) -> Result<LefLibrary, ParseError> {
    let mut c = Cursor::new(src);
    let mut macro_names: HashSet<&str> = HashSet::new();
    let mut lib = LefLibrary {
        dbu_per_micron: 0,
        layers: Vec::new(),
        sites: Vec::new(),
        macros: Vec::new(),
        dcolor: None,
    };
    loop {
        let t = c.next("a LEF statement or `END LIBRARY`")?;
        match t.text {
            "VERSION" | "BUSBITCHARS" | "DIVIDERCHAR" | "MANUFACTURINGGRID" => {
                c.skip_statement()?;
            }
            "UNITS" => parse_units(&mut c, &mut lib)?,
            "TPLCOLORSPACING" => {
                let dbu = units(&lib, t)?;
                let v = c.microns("a colour-spacing distance", dbu)?;
                c.expect(";")?;
                lib.dcolor = Some(v);
            }
            "LAYER" => parse_layer(&mut c, &mut lib, t)?,
            "SITE" => parse_site(&mut c, &mut lib, t)?,
            "MACRO" => parse_macro(&mut c, &mut lib, t, &mut macro_names)?,
            "END" => {
                c.expect("LIBRARY")?;
                if lib.dbu_per_micron == 0 {
                    return Err(err_at(t, "missing `UNITS DATABASE MICRONS` block"));
                }
                return Ok(lib);
            }
            other => {
                return Err(err_at(
                    t,
                    format!("unknown LEF statement `{other}` (unsupported by this subset)"),
                ))
            }
        }
    }
}

/// The declared database units, erroring at `at` when distances appear
/// before the `UNITS` block.
fn units(lib: &LefLibrary, at: crate::lex::Token<'_>) -> Result<Dbu, ParseError> {
    if lib.dbu_per_micron > 0 {
        Ok(lib.dbu_per_micron)
    } else {
        Err(err_at(
            at,
            "distances before the `UNITS DATABASE MICRONS` block",
        ))
    }
}

fn parse_units(c: &mut Cursor<'_>, lib: &mut LefLibrary) -> Result<(), ParseError> {
    c.expect("DATABASE")?;
    c.expect("MICRONS")?;
    let t = c.word("a units value")?;
    let value: Dbu = t.text.parse().map_err(|_| {
        err_at(
            t,
            format!("expected an integer unit count, found `{}`", t.text),
        )
    })?;
    if value <= 0 {
        return Err(err_at(t, "DATABASE MICRONS must be positive"));
    }
    // Reject non-power-of-ten units up front so every later distance
    // conversion is exact.
    crate::lex::parse_microns("1", value).map_err(|m| err_at(t, m))?;
    lib.dbu_per_micron = value;
    c.expect(";")?;
    c.expect("END")?;
    c.expect("UNITS")?;
    Ok(())
}

fn parse_layer(
    c: &mut Cursor<'_>,
    lib: &mut LefLibrary,
    kw: crate::lex::Token<'_>,
) -> Result<(), ParseError> {
    let name_tok = c.word("a layer name")?;
    let name = name_tok.text.to_string();
    c.expect("TYPE")?;
    let ty = c.word("a layer type")?;
    let routing = match ty.text {
        "ROUTING" => true,
        "CUT" | "MASTERSLICE" | "OVERLAP" => false,
        other => return Err(err_at(ty, format!("unknown layer type `{other}`"))),
    };
    c.expect(";")?;
    let dbu = units(lib, kw)?;
    let mut axis: Option<Axis> = None;
    let mut pitch: Option<Dbu> = None;
    let mut offset: Option<Dbu> = None;
    let mut width: Option<Dbu> = None;
    let mut spacing: Option<Dbu> = None;
    loop {
        let t = c.next("a layer statement or `END`")?;
        match t.text {
            "DIRECTION" => {
                let d = c.word("HORIZONTAL or VERTICAL")?;
                axis = Some(match d.text {
                    "HORIZONTAL" => Axis::Horizontal,
                    "VERTICAL" => Axis::Vertical,
                    other => return Err(err_at(d, format!("unknown direction `{other}`"))),
                });
                c.expect(";")?;
            }
            "PITCH" => {
                pitch = Some(c.microns("a pitch", dbu)?);
                c.expect(";")?;
            }
            "OFFSET" => {
                offset = Some(c.microns("an offset", dbu)?);
                c.expect(";")?;
            }
            "WIDTH" => {
                width = Some(c.microns("a width", dbu)?);
                c.expect(";")?;
            }
            "SPACING" => {
                spacing = Some(c.microns("a spacing", dbu)?);
                c.expect(";")?;
            }
            "END" => {
                c.expect(&name)?;
                break;
            }
            other => {
                return Err(err_at(
                    t,
                    format!("unknown LAYER statement `{other}` (unsupported by this subset)"),
                ))
            }
        }
    }
    if !routing {
        return Ok(());
    }
    let missing = |what: &str| err_at(kw, format!("routing layer {name} is missing {what}"));
    let pitch = pitch.ok_or_else(|| missing("PITCH"))?;
    let layer = LefLayer {
        axis: axis.ok_or_else(|| missing("DIRECTION"))?,
        pitch,
        offset: offset.unwrap_or(pitch / 2),
        width: width.ok_or_else(|| missing("WIDTH"))?,
        spacing: spacing.ok_or_else(|| missing("SPACING"))?,
        name,
    };
    lib.layers.push(layer);
    Ok(())
}

fn parse_site(
    c: &mut Cursor<'_>,
    lib: &mut LefLibrary,
    kw: crate::lex::Token<'_>,
) -> Result<(), ParseError> {
    let name = c.word("a site name")?.text.to_string();
    let dbu = units(lib, kw)?;
    let mut size: Option<(Dbu, Dbu)> = None;
    loop {
        let t = c.next("a site statement or `END`")?;
        match t.text {
            "CLASS" | "SYMMETRY" => c.skip_statement()?,
            "SIZE" => {
                let w = c.microns("a site width", dbu)?;
                c.expect("BY")?;
                let h = c.microns("a site height", dbu)?;
                c.expect(";")?;
                size = Some((w, h));
            }
            "END" => {
                c.expect(&name)?;
                break;
            }
            other => return Err(err_at(t, format!("unknown SITE statement `{other}`"))),
        }
    }
    let (width, height) = size.ok_or_else(|| err_at(kw, format!("site {name} has no SIZE")))?;
    lib.sites.push(LefSite {
        name,
        width,
        height,
    });
    Ok(())
}

/// Parses one `MACRO` block; `macro_names` holds the names of the macros
/// before it.
fn parse_macro<'a>(
    c: &mut Cursor<'a>,
    lib: &mut LefLibrary,
    kw: crate::lex::Token<'_>,
    macro_names: &mut HashSet<&'a str>,
) -> Result<(), ParseError> {
    let name_tok = c.word("a macro name")?;
    let name = name_tok.text.to_string();
    let mut pin_names: HashSet<&str> = HashSet::new();
    let dbu = units(lib, kw)?;
    let mut size: Option<(Dbu, Dbu)> = None;
    let mut pins: Vec<LefPin> = Vec::new();
    let mut obs: Vec<(String, Rect)> = Vec::new();
    loop {
        let t = c.next("a macro statement or `END`")?;
        match t.text {
            "CLASS" | "ORIGIN" | "FOREIGN" | "SYMMETRY" | "SITE" => c.skip_statement()?,
            "SIZE" => {
                let w = c.microns("a macro width", dbu)?;
                c.expect("BY")?;
                let h = c.microns("a macro height", dbu)?;
                c.expect(";")?;
                size = Some((w, h));
            }
            "PIN" => {
                let (pin_name, pin) = parse_macro_pin(c, dbu)?;
                if !pin_names.insert(pin_name) {
                    return Err(err_at(
                        t,
                        format!("duplicate pin `{}` in macro {name}", pin.name),
                    ));
                }
                pins.push(pin);
            }
            "OBS" => parse_geometry_block(c, dbu, &mut obs, "OBS")?,
            "END" => {
                c.expect(&name)?;
                break;
            }
            other => {
                return Err(err_at(
                    t,
                    format!("unknown MACRO statement `{other}` (unsupported by this subset)"),
                ))
            }
        }
    }
    if !macro_names.insert(name_tok.text) {
        return Err(err_at(kw, format!("duplicate macro `{name}`")));
    }
    lib.macros.push(LefMacro {
        size: size.ok_or_else(|| err_at(kw, format!("macro {name} has no SIZE")))?,
        name,
        pins,
        obs,
    });
    Ok(())
}

/// Parses one macro `PIN` block, returning the pin and its name's source
/// text.
fn parse_macro_pin<'a>(c: &mut Cursor<'a>, dbu: Dbu) -> Result<(&'a str, LefPin), ParseError> {
    let name_tok = c.word("a pin name")?;
    let name = name_tok.text.to_string();
    let mut ports: Vec<(String, Rect)> = Vec::new();
    loop {
        let t = c.next("a pin statement or `END`")?;
        match t.text {
            "DIRECTION" | "USE" | "SHAPE" => c.skip_statement()?,
            "PORT" => parse_geometry_block(c, dbu, &mut ports, "PORT")?,
            "END" => {
                c.expect(&name)?;
                break;
            }
            other => return Err(err_at(t, format!("unknown PIN statement `{other}`"))),
        }
    }
    Ok((name_tok.text, LefPin { name, ports }))
}

/// Parses the shared body of `PORT`/`OBS` blocks: a sequence of
/// `LAYER <name> ;` headers each followed by `RECT x1 y1 x2 y2 ;`
/// statements, terminated by `END`.
fn parse_geometry_block(
    c: &mut Cursor<'_>,
    dbu: Dbu,
    out: &mut Vec<(String, Rect)>,
    what: &str,
) -> Result<(), ParseError> {
    let mut layer: Option<String> = None;
    loop {
        let t = c.next("LAYER, RECT or `END`")?;
        match t.text {
            "LAYER" => {
                layer = Some(c.word("a layer name")?.text.to_string());
                c.expect(";")?;
            }
            "RECT" => {
                let Some(ref l) = layer else {
                    return Err(err_at(t, format!("RECT before any LAYER in {what}")));
                };
                let x1 = c.microns("a coordinate", dbu)?;
                let y1 = c.microns("a coordinate", dbu)?;
                let x2 = c.microns("a coordinate", dbu)?;
                let y2 = c.microns("a coordinate", dbu)?;
                c.expect(";")?;
                out.push((l.clone(), Rect::from_coords(x1, y1, x2, y2)));
            }
            "END" => return Ok(()),
            other => return Err(err_at(t, format!("unknown {what} statement `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: &str = "\
VERSION 5.8 ;
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
  WIDTH 0.008 ;
  SPACING 0.008 ;
END M2
SITE core
  SIZE 0.02 BY 0.1 ;
END core
MACRO buf
  CLASS CORE ;
  SIZE 0.1 BY 0.1 ;
  PIN a
    DIRECTION INPUT ;
    PORT
      LAYER M1 ;
        RECT 0.006 0.006 0.014 0.014 ;
    END
  END a
  OBS
    LAYER M2 ;
      RECT 0.02 0.02 0.08 0.08 ;
  END
END buf
END LIBRARY
";

    #[test]
    fn parses_layers_sites_and_macros() {
        let lib = parse_lef(SMALL).unwrap();
        assert_eq!(lib.dbu_per_micron, 1000);
        assert_eq!(lib.dcolor, Some(45));
        assert_eq!(lib.layers.len(), 2);
        assert_eq!(lib.layers[0].name, "M1");
        assert_eq!(lib.layers[0].axis, Axis::Horizontal);
        assert_eq!(lib.layers[0].pitch, 20);
        assert_eq!(lib.layers[0].offset, 10);
        // OFFSET defaults to half the pitch when omitted.
        assert_eq!(lib.layers[1].offset, 10);
        assert_eq!(lib.sites.len(), 1);
        assert_eq!(lib.sites[0].height, 100);
        let m = &lib.macros[0];
        assert_eq!(m.size, (100, 100));
        assert_eq!(m.pins.len(), 1);
        assert_eq!(
            m.pins[0].ports[0],
            ("M1".to_string(), Rect::from_coords(6, 6, 14, 14))
        );
        assert_eq!(m.obs[0].0, "M2");
    }

    #[test]
    fn cut_layers_parse_but_do_not_lower() {
        let src = "\
UNITS
  DATABASE MICRONS 1000 ;
END UNITS
LAYER via1
  TYPE CUT ;
  WIDTH 0.01 ;
END via1
END LIBRARY
";
        let lib = parse_lef(src).unwrap();
        assert!(lib.layers.is_empty());
    }

    #[test]
    fn missing_units_is_an_error() {
        let err = parse_lef("LAYER M1\n  TYPE ROUTING ;\n  PITCH 0.02 ;\nEND M1\nEND LIBRARY\n")
            .unwrap_err();
        assert!(err.message.contains("UNITS"), "{err}");
    }

    #[test]
    fn incomplete_routing_layer_is_an_error() {
        let src = "\
UNITS
  DATABASE MICRONS 1000 ;
END UNITS
LAYER M1
  TYPE ROUTING ;
  PITCH 0.02 ;
  WIDTH 0.008 ;
  SPACING 0.008 ;
END M1
END LIBRARY
";
        let err = parse_lef(src).unwrap_err();
        assert!(err.message.contains("DIRECTION"), "{err}");
    }
}
