//! LEF/DEF ingestion and emission for the Mr.TPL reproduction.
//!
//! The synthetic ISPD-style generator covers the paper's benchmarks, but real
//! routing inputs arrive as LEF (technology + cell library) and DEF (die,
//! placement, netlist) files.  This crate provides a pragmatic,
//! zero-dependency subset of both formats:
//!
//! * a streaming lexer and recursive-descent parsers producing plain ASTs
//!   ([`LefLibrary`], [`DefDesign`]) with positioned [`ParseError`]s —
//!   malformed input never panics.  The lexer's cursor scans the source
//!   bytes on demand with one token of lookahead, so no token list is
//!   built, and duplicate names are found through hash sets: parsing is
//!   linear in the input size;
//! * a [`lower()`] pass that cross-checks the pair and produces a validated
//!   [`Design`](tpl_design::Design) plus any `+ ROUTED` wiring as a
//!   [`RoutingSolution`](tpl_design::RoutingSolution);
//! * writers ([`write_lef`], [`write_def`]) emitting the same subset, so
//!   routed results round-trip: write → parse → lower reproduces the design
//!   exactly.
//!
//! The supported subset (documented per module) covers ROUTING layers with
//! direction/pitch/offset/width/spacing, sites, macros with pin geometry and
//! obstructions, DIEAREA, ROWS, COMPONENTS (orientation `N`), PINS, NETS
//! with routed wiring, and SPECIALNETS as obstacles.  The nonstandard LEF
//! statement `TPLCOLORSPACING <microns> ;` carries the paper's
//! colour-spacing distance `Dcolor`; without it, 2.25 × the minimum pitch is
//! assumed.
//!
//! # Examples
//!
//! ```
//! use tpl_lefdef::{parse_def, parse_lef, lower, write_def, write_lef};
//!
//! let lef = parse_lef(
//!     "UNITS\n  DATABASE MICRONS 1000 ;\nEND UNITS\n\
//!      LAYER M1\n  TYPE ROUTING ;\n  DIRECTION HORIZONTAL ;\n\
//!      PITCH 0.02 ;\n  WIDTH 0.008 ;\n  SPACING 0.008 ;\nEND M1\n\
//!      END LIBRARY\n",
//! )
//! .unwrap();
//! let def = parse_def(
//!     "DESIGN two_pins ;\nUNITS DISTANCE MICRONS 1000 ;\n\
//!      DIEAREA ( 0 0 ) ( 400 400 ) ;\n\
//!      PINS 2 ;\n\
//!      - a + NET n0 + LAYER M1 ( 6 6 ) ( 14 14 ) ;\n\
//!      - b + NET n0 + LAYER M1 ( 206 6 ) ( 214 14 ) ;\n\
//!      END PINS\n\
//!      NETS 1 ;\n- n0 ( PIN a ) ( PIN b ) ;\nEND NETS\n\
//!      END DESIGN\n",
//! )
//! .unwrap();
//! let lowered = lower(&lef, &def).unwrap();
//! assert_eq!(lowered.design.nets().len(), 1);
//!
//! // The writers invert the parse: the round-trip reproduces the design.
//! let again = lower(
//!     &parse_lef(&write_lef(lowered.design.tech())).unwrap(),
//!     &parse_def(&write_def(&lowered.design, None)).unwrap(),
//! )
//! .unwrap();
//! assert_eq!(again.design, lowered.design);
//! ```

#![warn(missing_docs)]

pub mod def;
mod error;
pub mod lef;
mod lex;
pub mod lower;
pub mod writer;

pub use def::{parse_def, DefDesign};
pub use error::{LefDefError, ParseError};
pub use lef::{parse_lef, LefLibrary};
pub use lower::{lower, LoweredDesign};
pub use writer::{write_def, write_lef};

use std::path::Path;

/// Reads a LEF/DEF pair from disk and lowers it into a design.
///
/// # Errors
///
/// [`LefDefError::Io`] when either file cannot be read, otherwise the parse
/// and lowering errors of [`parse_lef`], [`parse_def`] and [`lower()`].
pub fn load_design(lef_path: &Path, def_path: &Path) -> Result<LoweredDesign, LefDefError> {
    let read = |path: &Path| {
        std::fs::read_to_string(path).map_err(|e| LefDefError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })
    };
    let lef = parse_lef(&read(lef_path)?).map_err(LefDefError::Lef)?;
    let def = parse_def(&read(def_path)?).map_err(LefDefError::Def)?;
    lower(&lef, &def)
}
