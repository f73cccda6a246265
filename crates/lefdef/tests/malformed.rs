//! Malformed-input suite: every way a LEF or DEF can be broken must come
//! back as a positioned [`ParseError`] — never a panic, never a silently
//! wrong value.
//!
//! Beyond targeted cases (bad units, unknown keywords, duplicates), two
//! sweeps hammer the parsers with systematically damaged sources: every
//! byte-prefix of a valid file (truncation at any point) and every
//! token-replacement with garbage.  The sweeps assert only "returns
//! `Result`, with an in-bounds position on `Err`" — the point is the
//! absence of panics and of out-of-range line/column numbers.

use proptest::prelude::*;
use tpl_lefdef::{parse_def, parse_lef, ParseError};

const GOOD_LEF: &str = "\
VERSION 5.8 ;
BUSBITCHARS \"[]\" ;
UNITS
  DATABASE MICRONS 1000 ;
END UNITS
MANUFACTURINGGRID 0.001 ;
TPLCOLORSPACING 0.045 ;
LAYER M1
  TYPE ROUTING ;
  DIRECTION HORIZONTAL ;
  PITCH 0.02 ;
  OFFSET 0.01 ;
  WIDTH 0.008 ;
  SPACING 0.008 ;
END M1
LAYER via1
  TYPE CUT ;
END via1
LAYER M2
  TYPE ROUTING ;
  DIRECTION VERTICAL ;
  PITCH 0.02 ;
  WIDTH 0.008 ;
  SPACING 0.008 ;
END M2
SITE core
  CLASS CORE ;
  SIZE 0.02 BY 0.24 ;
END core
MACRO buf
  CLASS CORE ;
  SIZE 0.06 BY 0.06 ;
  PIN a
    DIRECTION INPUT ;
    PORT
      LAYER M1 ;
        RECT 0.006 0.006 0.014 0.014 ;
    END
  END a
  OBS
    LAYER M2 ;
      RECT 0.02 0.025 0.04 0.035 ;
  END
END buf
END LIBRARY
";

const GOOD_DEF: &str = "\
VERSION 5.8 ;
DESIGN sweep ;
UNITS DISTANCE MICRONS 1000 ;
DIEAREA ( 0 0 ) ( 400 400 ) ;
ROW core_0 core 0 0 N DO 20 BY 1 STEP 20 0 ;
COMPONENTS 1 ;
- u1 buf + PLACED ( 100 100 ) N ;
END COMPONENTS
PINS 2 ;
- in0 + NET n0 + DIRECTION INPUT + USE SIGNAL
  + LAYER M1 ( -4 -4 ) ( 4 4 ) + PLACED ( 110 110 ) N ;
- out0 + NET n0 + LAYER M1 ( 306 106 ) ( 314 114 ) ;
END PINS
NETS 1 ;
- n0 ( PIN in0 ) ( PIN out0 ) ( u1 a )
  + ROUTED M1 ( 110 110 ) ( 310 110 )
    NEW VIA M1 ( 310 110 ) ;
END NETS
SPECIALNETS 1 ;
- vdd + USE POWER + RECT M2 ( 0 380 ) ( 400 400 )
  + ROUTED M2 20 ( 0 300 ) ( 400 300 ) ;
END SPECIALNETS
END DESIGN
";

/// Checks an error's position is inside the source it came from.
fn assert_in_bounds(src: &str, err: &ParseError, what: &str) {
    let lines = src.lines().count().max(1);
    assert!(
        err.line >= 1 && err.line <= lines,
        "{what}: line {} out of 1..={lines} for: {err}",
        err.line
    );
    assert!(
        err.col >= 1,
        "{what}: column {} out of range for: {err}",
        err.col
    );
}

#[test]
fn every_truncation_errors_without_panicking() {
    assert!(parse_lef(GOOD_LEF).is_ok());
    assert!(parse_def(GOOD_DEF).is_ok());
    // Prefixes that only cut trailing whitespace after `END LIBRARY` /
    // `END DESIGN` still parse; everything shorter must error in-bounds.
    for end in 0..GOOD_LEF.len() {
        let src = &GOOD_LEF[..end];
        match parse_lef(src) {
            Ok(_) => assert!(
                src.trim_end().ends_with("END LIBRARY"),
                "prefix {end} parsed"
            ),
            Err(err) => assert_in_bounds(GOOD_LEF, &err, "LEF truncation"),
        }
    }
    for end in 0..GOOD_DEF.len() {
        let src = &GOOD_DEF[..end];
        match parse_def(src) {
            Ok(_) => assert!(
                src.trim_end().ends_with("END DESIGN"),
                "prefix {end} parsed"
            ),
            Err(err) => assert_in_bounds(GOOD_DEF, &err, "DEF truncation"),
        }
    }
}

#[test]
fn every_token_replacement_is_handled_without_panicking() {
    // Replace each whitespace-separated token with a garbage word and make
    // sure the parsers return (almost always an error, occasionally an Ok
    // when the token was ignorable) rather than panic or loop.
    for (source, is_lef) in [(GOOD_LEF, true), (GOOD_DEF, false)] {
        let tokens: Vec<&str> = source.split_whitespace().collect();
        for i in 0..tokens.len() {
            let mut mutated = tokens.clone();
            mutated[i] = "XqZ9";
            let src = mutated.join(" ");
            let result_err = if is_lef {
                parse_lef(&src).err()
            } else {
                parse_def(&src).err()
            };
            if let Some(err) = result_err {
                // Joined onto one line, so only the column can be checked.
                assert!(err.col >= 1, "token {i}: {err}");
            }
        }
    }
}

#[test]
fn lef_bad_units_are_positioned_errors() {
    let cases = [
        (
            "UNITS\n  DATABASE MICRONS abc ;\nEND UNITS\nEND LIBRARY\n",
            "integer",
        ),
        (
            "UNITS\n  DATABASE MICRONS 0 ;\nEND UNITS\nEND LIBRARY\n",
            "positive",
        ),
        (
            "UNITS\n  DATABASE MICRONS -100 ;\nEND UNITS\nEND LIBRARY\n",
            "positive",
        ),
        (
            "UNITS\n  DATABASE MICRONS 1024 ;\nEND UNITS\nEND LIBRARY\n",
            "power of ten",
        ),
    ];
    for (src, needle) in cases {
        let err = parse_lef(src).unwrap_err();
        assert!(err.message.contains(needle), "`{needle}` not in: {err}");
        assert_eq!(err.line, 2, "for: {err}");
        assert_eq!(err.col, 20, "for: {err}");
    }
}

#[test]
fn lef_distance_finer_than_a_dbu_is_rejected() {
    let src = "\
UNITS
  DATABASE MICRONS 100 ;
END UNITS
LAYER M1
  TYPE ROUTING ;
  DIRECTION HORIZONTAL ;
  PITCH 0.015 ;
  WIDTH 0.01 ;
  SPACING 0.01 ;
END M1
END LIBRARY
";
    let err = parse_lef(src).unwrap_err();
    assert!(
        err.message.contains("finer than one database unit"),
        "{err}"
    );
    assert_eq!((err.line, err.col), (7, 9), "{err}");
}

#[test]
fn lef_distances_before_units_are_rejected() {
    let err = parse_lef("TPLCOLORSPACING 0.045 ;\nEND LIBRARY\n").unwrap_err();
    assert!(err.message.contains("before the `UNITS"), "{err}");
    assert_eq!(err.line, 1, "{err}");
}

#[test]
fn lef_unknown_keywords_are_positioned_errors() {
    let src = "\
UNITS
  DATABASE MICRONS 1000 ;
END UNITS
PROPERTYDEFINITIONS
END PROPERTYDEFINITIONS
END LIBRARY
";
    let err = parse_lef(src).unwrap_err();
    assert!(
        err.message
            .contains("unknown LEF statement `PROPERTYDEFINITIONS`"),
        "{err}"
    );
    assert_eq!((err.line, err.col), (4, 1), "{err}");
}

#[test]
fn lef_duplicate_macros_and_pins_are_rejected() {
    let dup_macro = "\
UNITS
  DATABASE MICRONS 1000 ;
END UNITS
MACRO buf
  SIZE 0.06 BY 0.06 ;
END buf
MACRO buf
  SIZE 0.06 BY 0.06 ;
END buf
END LIBRARY
";
    let err = parse_lef(dup_macro).unwrap_err();
    assert!(err.message.contains("duplicate macro `buf`"), "{err}");
    assert_eq!(err.line, 7, "{err}");

    let dup_pin = "\
UNITS
  DATABASE MICRONS 1000 ;
END UNITS
MACRO buf
  SIZE 0.06 BY 0.06 ;
  PIN a
  END a
  PIN a
  END a
END buf
END LIBRARY
";
    let err = parse_lef(dup_pin).unwrap_err();
    assert!(err.message.contains("duplicate pin `a`"), "{err}");
    assert_eq!(err.line, 8, "{err}");
}

#[test]
fn def_bad_units_are_positioned_errors() {
    for (units, needle) in [("abc", "integer"), ("0", "positive"), ("-1000", "positive")] {
        let src = format!(
            "DESIGN d ;\nUNITS DISTANCE MICRONS {units} ;\nDIEAREA ( 0 0 ) ( 9 9 ) ;\nEND DESIGN\n"
        );
        let err = parse_def(&src).unwrap_err();
        assert!(err.message.contains(needle), "`{needle}` not in: {err}");
        assert_eq!((err.line, err.col), (2, 24), "{err}");
    }
}

#[test]
fn def_unknown_keywords_are_positioned_errors() {
    let src = "\
DESIGN d ;
UNITS DISTANCE MICRONS 1000 ;
DIEAREA ( 0 0 ) ( 9 9 ) ;
TRACKS X 10 DO 5 STEP 20 LAYER M1 ;
END DESIGN
";
    let err = parse_def(src).unwrap_err();
    assert!(
        err.message.contains("unknown DEF statement `TRACKS`"),
        "{err}"
    );
    assert_eq!((err.line, err.col), (4, 1), "{err}");

    let src = "\
DESIGN d ;
UNITS DISTANCE MICRONS 1000 ;
DIEAREA ( 0 0 ) ( 9 9 ) ;
PINS 1 ;
- p0 + ANTENNAPINGATEAREA 1 ;
END PINS
END DESIGN
";
    let err = parse_def(src).unwrap_err();
    assert!(err.message.contains("unknown pin property"), "{err}");
    assert_eq!((err.line, err.col), (5, 8), "{err}");
}

#[test]
fn def_duplicate_names_are_positioned_errors() {
    let dup_net = "\
DESIGN d ;
UNITS DISTANCE MICRONS 1000 ;
DIEAREA ( 0 0 ) ( 100 100 ) ;
PINS 2 ;
- a + LAYER M1 ( 0 0 ) ( 8 8 ) ;
- b + LAYER M1 ( 20 20 ) ( 28 28 ) ;
END PINS
NETS 2 ;
- n0 ( PIN a ) ;
- n0 ( PIN b ) ;
END NETS
END DESIGN
";
    let err = parse_def(dup_net).unwrap_err();
    assert!(err.message.contains("duplicate net `n0`"), "{err}");
    assert_eq!((err.line, err.col), (10, 3), "{err}");

    let dup_pin = "\
DESIGN d ;
UNITS DISTANCE MICRONS 1000 ;
DIEAREA ( 0 0 ) ( 100 100 ) ;
PINS 2 ;
- a + LAYER M1 ( 0 0 ) ( 8 8 ) ;
- a + LAYER M1 ( 20 20 ) ( 28 28 ) ;
END PINS
END DESIGN
";
    let err = parse_def(dup_pin).unwrap_err();
    assert!(err.message.contains("duplicate pin `a`"), "{err}");
    assert_eq!(err.line, 6, "{err}");

    let dup_comp = "\
DESIGN d ;
UNITS DISTANCE MICRONS 1000 ;
DIEAREA ( 0 0 ) ( 100 100 ) ;
COMPONENTS 2 ;
- u1 buf + PLACED ( 0 0 ) N ;
- u1 inv + PLACED ( 20 0 ) N ;
END COMPONENTS
END DESIGN
";
    let err = parse_def(dup_comp).unwrap_err();
    assert!(err.message.contains("duplicate component `u1`"), "{err}");
    assert_eq!(err.line, 6, "{err}");

    let dup_special = "\
DESIGN d ;
UNITS DISTANCE MICRONS 1000 ;
DIEAREA ( 0 0 ) ( 100 100 ) ;
SPECIALNETS 2 ;
- vdd + RECT M1 ( 0 0 ) ( 8 8 ) ;
- vdd + RECT M1 ( 20 20 ) ( 28 28 ) ;
END SPECIALNETS
END DESIGN
";
    let err = parse_def(dup_special).unwrap_err();
    assert!(err.message.contains("duplicate special net `vdd`"), "{err}");
    assert_eq!((err.line, err.col), (6, 3), "{err}");
}

#[test]
fn def_names_repeated_in_a_second_section_of_a_kind_are_duplicates() {
    let src = "\
DESIGN d ;
UNITS DISTANCE MICRONS 1000 ;
DIEAREA ( 0 0 ) ( 100 100 ) ;
PINS 2 ;
- a + LAYER M1 ( 0 0 ) ( 8 8 ) ;
- b + LAYER M1 ( 20 20 ) ( 28 28 ) ;
END PINS
PINS 1 ;
- a + LAYER M1 ( 40 40 ) ( 48 48 ) ;
END PINS
END DESIGN
";
    let err = parse_def(src).unwrap_err();
    assert!(err.message.contains("duplicate pin `a`"), "{err}");
    assert_eq!((err.line, err.col), (9, 3), "{err}");

    // Each kind has its own namespace: a pin, a net, a component and a
    // special net may all be called `x`.
    let shared = "\
DESIGN d ;
UNITS DISTANCE MICRONS 1000 ;
DIEAREA ( 0 0 ) ( 100 100 ) ;
COMPONENTS 1 ;
- x buf + PLACED ( 0 0 ) N ;
END COMPONENTS
PINS 1 ;
- x + LAYER M1 ( 0 0 ) ( 8 8 ) ;
END PINS
NETS 1 ;
- x ( PIN x ) ;
END NETS
SPECIALNETS 1 ;
- x + RECT M1 ( 20 20 ) ( 28 28 ) ;
END SPECIALNETS
END DESIGN
";
    let def = parse_def(shared).expect("one name per kind is no duplicate");
    assert_eq!(
        (def.components.len(), def.pins.len(), def.nets.len()),
        (1, 1, 1)
    );
}

#[test]
fn lef_pin_names_are_scoped_to_their_macro() {
    let src = "\
UNITS
  DATABASE MICRONS 1000 ;
END UNITS
MACRO buf
  SIZE 0.06 BY 0.06 ;
  PIN a
  END a
END buf
MACRO inv
  SIZE 0.06 BY 0.06 ;
  PIN a
  END a
END inv
END LIBRARY
";
    let lib = parse_lef(src).expect("macros may reuse pin names");
    assert_eq!(lib.macros.len(), 2);
}

#[test]
fn def_section_count_mismatches_are_errors() {
    let src = "\
DESIGN d ;
UNITS DISTANCE MICRONS 1000 ;
DIEAREA ( 0 0 ) ( 100 100 ) ;
NETS 5 ;
END NETS
END DESIGN
";
    let err = parse_def(src).unwrap_err();
    assert!(
        err.message.contains("declares 5 entries but contains 0"),
        "{err}"
    );
}

#[test]
fn def_bad_coordinates_are_positioned_errors() {
    let src = "\
DESIGN d ;
UNITS DISTANCE MICRONS 1000 ;
DIEAREA ( 0 0 ) ( 4.5 100 ) ;
END DESIGN
";
    let err = parse_def(src).unwrap_err();
    assert!(err.message.contains("integer"), "{err}");
    assert_eq!((err.line, err.col), (3, 19), "{err}");
}

#[test]
fn oversized_coordinates_are_positioned_errors_not_overflows() {
    // Within i64 but beyond the ±2^40 coordinate limit: rejected at parse
    // time, long before placement translation or line caps could wrap.
    let src = "\
DESIGN d ;
UNITS DISTANCE MICRONS 1000 ;
DIEAREA ( 0 0 ) ( 4000000000000000000 9 ) ;
END DESIGN
";
    let err = parse_def(src).unwrap_err();
    assert!(err.message.contains("out of range"), "{err}");
    assert_eq!((err.line, err.col), (3, 19), "{err}");

    // i64::MIN parses as an i64 but has no absolute value.
    let src = src.replace("4000000000000000000", "-9223372036854775808");
    let err = parse_def(&src).unwrap_err();
    assert!(err.message.contains("out of range"), "{err}");

    // LEF micron distances are bounded by the same limit after scaling.
    let lef = "\
UNITS
  DATABASE MICRONS 1000 ;
END UNITS
LAYER M1
  TYPE ROUTING ;
  DIRECTION HORIZONTAL ;
  PITCH 99999999999999 ;
  WIDTH 0.008 ;
  SPACING 0.008 ;
END M1
END LIBRARY
";
    let err = parse_lef(lef).unwrap_err();
    assert!(err.message.contains("out of range"), "{err}");
    assert_eq!((err.line, err.col), (7, 9), "{err}");
}

#[test]
fn overflowing_placement_is_a_lowering_error_not_a_panic() {
    // Bypasses the parsers' coordinate bound to prove `lower` itself is
    // overflow-safe for hand-built inputs.
    let lef = parse_lef(GOOD_LEF).unwrap();
    let mut def = parse_def(GOOD_DEF).unwrap();
    def.components[0].at = tpl_geom::Point::new(i64::MAX - 1, 0);
    let err = tpl_lefdef::lower(&lef, &def).unwrap_err();
    assert!(err.to_string().contains("overflow"), "{err}");
}

#[test]
fn pathologically_long_and_nested_inputs_never_blow_the_stack() {
    // The parsers are iterative, so depth and length cost memory, not stack.
    // A wall of unclosed parens must come back as a plain positioned error.
    let mut src = String::from("DESIGN d ;\nUNITS DISTANCE MICRONS 1000 ;\nDIEAREA ");
    src.push_str(&"( ".repeat(100_000));
    assert!(parse_def(&src).is_err());

    // A very long (valid) routed net parses fine; a truncated version of it
    // errors in-bounds instead of overflowing anything.
    let mut long = String::from(
        "DESIGN d ;\nUNITS DISTANCE MICRONS 1000 ;\nDIEAREA ( 0 0 ) ( 4000000 4000000 ) ;\n\
         PINS 2 ;\n- a + NET n0 + LAYER M1 ( 0 0 ) ( 8 8 ) ;\n\
         - b + NET n0 + LAYER M1 ( 200000 0 ) ( 200008 8 ) ;\nEND PINS\n\
         NETS 1 ;\n- n0 ( PIN a ) ( PIN b )\n  + ROUTED M1 ( 0 4 ) ( 10 4 )\n",
    );
    for i in 1..20_000u64 {
        long.push_str(&format!(
            "    NEW M1 ( {} 4 ) ( {} 4 )\n",
            i * 10,
            (i + 1) * 10
        ));
    }
    long.push_str(" ;\nEND NETS\nEND DESIGN\n");
    let parsed = parse_def(&long).expect("a long routed net is valid input");
    assert_eq!(parsed.nets[0].routed.len(), 20_000);
    let truncated = &long[..long.len() / 2];
    let err = parse_def(truncated).unwrap_err();
    assert!(err.line <= truncated.lines().count().max(1), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary printable garbage spliced anywhere into either good source
    /// yields Ok or an in-bounds positioned error — never a panic.
    #[test]
    fn random_splices_never_panic(
        lef_side in any::<bool>(),
        cut in any::<u64>(),
        garbage_bytes in prop::collection::vec(0x20u8..0x7f, 0..32),
    ) {
        let source = if lef_side { GOOD_LEF } else { GOOD_DEF };
        // ASCII sources: every byte offset is a char boundary.
        let at = (cut % (source.len() as u64 + 1)) as usize;
        let garbage = String::from_utf8(garbage_bytes).unwrap();
        let src = format!("{}{}{}", &source[..at], garbage, &source[at..]);
        let err = if lef_side {
            parse_lef(&src).map(|_| ()).err()
        } else {
            parse_def(&src).map(|_| ()).err()
        };
        if let Some(err) = err {
            let lines = src.lines().count().max(1);
            prop_assert!(err.line >= 1 && err.line <= lines, "line {} for: {err}", err.line);
            prop_assert!(err.col >= 1, "col {} for: {err}", err.col);
        }
    }

    /// Oversized numeric tokens anywhere in the DEF either fail the parse
    /// with a positioned error or (when the slot is a name) flow through
    /// parse → lower without overflowing.
    #[test]
    fn huge_numbers_never_overflow_the_pipeline(
        value in (1i64 << 40) + 1..i64::MAX,
        negate in any::<bool>(),
        token in any::<u64>(),
    ) {
        let tokens: Vec<&str> = GOOD_DEF.split_whitespace().collect();
        let idx = (token % tokens.len() as u64) as usize;
        let mut mutated: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        mutated[idx] = if negate { format!("-{value}") } else { value.to_string() };
        let src = mutated.join(" ");
        if let Ok(def) = parse_def(&src) {
            let lef = parse_lef(GOOD_LEF).unwrap();
            let _ = tpl_lefdef::lower(&lef, &def);
        }
    }
}

#[test]
fn missing_required_def_statements_are_errors() {
    for (src, needle) in [
        (
            "UNITS DISTANCE MICRONS 1000 ;\nDIEAREA ( 0 0 ) ( 9 9 ) ;\nEND DESIGN\n",
            "DESIGN",
        ),
        (
            "DESIGN d ;\nDIEAREA ( 0 0 ) ( 9 9 ) ;\nEND DESIGN\n",
            "UNITS",
        ),
        (
            "DESIGN d ;\nUNITS DISTANCE MICRONS 1000 ;\nEND DESIGN\n",
            "DIEAREA",
        ),
    ] {
        let err = parse_def(src).unwrap_err();
        assert!(err.message.contains(needle), "`{needle}` not in: {err}");
    }
}
