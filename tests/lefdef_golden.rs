//! Golden-corpus snapshot tests for LEF/DEF ingestion.
//!
//! Each hand-written corpus pair under `tests/data/lefdef/` is lowered and
//! asserted *exactly* — names, die, technology, every pin shape, net arity,
//! obstacle order/layer/colourability and pre-routed wiring — so any change
//! to the parser or the lowering conventions shows up as a readable diff
//! here, not as a silent behaviour shift.  A final test routes the minimal
//! case through all four methods and checks the report is byte-identical
//! across worker counts.

use mr_tpl::design::{LayerId, NetId};
use mr_tpl::geom::Rect;
use mr_tpl::harness::{run_matrix, InputProvenance, MethodRegistry, RunOptions, RunReport};
use mr_tpl::ispd::cases_from_def_dir;
use mr_tpl::lefdef::{load_design, LoweredDesign};
use std::path::PathBuf;

/// Absolute path of a corpus file.
fn corpus(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data/lefdef")
        .join(file)
}

/// Loads a corpus DEF with its LEF (`<stem>.lef` sibling or `tech.lef`).
fn load(def: &str) -> LoweredDesign {
    let def_path = corpus(def);
    let sibling = def_path.with_extension("lef");
    let lef = if sibling.is_file() {
        sibling
    } else {
        corpus("tech.lef")
    };
    load_design(&lef, &def_path).expect("corpus files are well-formed")
}

/// Asserts one pin's name, net and single M1 shape.
fn assert_pin(
    d: &mr_tpl::design::Design,
    idx: usize,
    name: &str,
    net: usize,
    rect: (i64, i64, i64, i64),
) {
    let pin = &d.pins()[idx];
    assert_eq!(pin.name(), name, "pin {idx} name");
    assert_eq!(pin.net(), NetId::from(net), "pin {name} net");
    assert_eq!(pin.shapes().len(), 1, "pin {name} shape count");
    assert_eq!(pin.shapes()[0].0, LayerId::new(0), "pin {name} layer");
    assert_eq!(
        pin.shapes()[0].1,
        Rect::from_coords(rect.0, rect.1, rect.2, rect.3),
        "pin {name} rect"
    );
}

#[test]
fn minimal_lowers_exactly() {
    let lowered = load("minimal.def");
    let d = &lowered.design;
    assert_eq!(d.name(), "minimal");
    assert_eq!(d.die(), Rect::from_coords(0, 0, 400, 400));
    // Technology from minimal.lef (the sibling-LEF discovery path).
    assert_eq!(d.tech().num_layers(), 3);
    assert_eq!(d.tech().dcolor(), 45);
    assert_eq!(d.tech().dbu_per_micron(), 1000);
    for (i, name) in ["M1", "M2", "M3"].iter().enumerate() {
        let layer = d.tech().layer(LayerId::new(i as u32));
        assert_eq!(layer.name, *name);
        assert_eq!(
            (layer.pitch, layer.offset, layer.width, layer.spacing),
            (20, 10, 8, 8)
        );
    }
    // All seven pins are net-referenced, in DEF file order.
    assert_eq!(d.pins().len(), 7);
    assert_pin(d, 0, "n0_a", 0, (6, 6, 14, 14));
    assert_pin(d, 1, "n0_b", 0, (206, 206, 214, 214));
    assert_pin(d, 2, "n1_a", 1, (6, 106, 14, 114));
    assert_pin(d, 3, "n1_b", 1, (306, 106, 314, 114));
    assert_pin(d, 4, "n2_a", 2, (106, 306, 114, 314));
    assert_pin(d, 5, "n2_b", 2, (206, 306, 214, 314));
    assert_pin(d, 6, "n2_c", 2, (306, 366, 314, 374));
    let arities: Vec<(&str, usize)> = d.nets().iter().map(|n| (n.name(), n.pin_count())).collect();
    assert_eq!(arities, vec![("n0", 2), ("n1", 2), ("n2", 3)]);
    assert!(d.obstacles().is_empty());
    assert!(lowered.routing.is_none());
}

#[test]
fn dense_obstacles_lowers_every_obstacle_kind() {
    let lowered = load("dense_obstacles.def");
    let d = &lowered.design;
    assert_eq!(d.name(), "dense_obstacles");
    assert_eq!(d.tech().num_layers(), 3);
    // Referenced pins only: four DEF pins, then the two macro pins of u1
    // translated by its (100, 100) placement.  `spare` is not a design pin.
    assert_eq!(d.pins().len(), 6);
    assert_pin(d, 0, "p0", 0, (6, 6, 14, 14));
    assert_pin(d, 1, "p1", 0, (306, 306, 314, 314));
    assert_pin(d, 2, "p2", 1, (6, 206, 14, 214));
    assert_pin(d, 3, "p3", 1, (306, 206, 314, 214));
    assert_pin(d, 4, "u1/a", 2, (106, 106, 114, 114));
    assert_pin(d, 5, "u1/z", 2, (146, 146, 154, 154));
    let arities: Vec<(&str, usize)> = d.nets().iter().map(|n| (n.name(), n.pin_count())).collect();
    assert_eq!(arities, vec![("d0", 2), ("d1", 2), ("d2", 2)]);
    // Obstacle order: special nets in file order (rects before wires), then
    // macro OBS per component, then unreferenced pin metal.
    let got: Vec<(u32, Rect, bool)> = d
        .obstacles()
        .iter()
        .map(|o| (o.layer.index() as u32, o.rect, o.colorable))
        .collect();
    assert_eq!(
        got,
        vec![
            // obsa (+ USE SIGNAL): colourable.
            (0, Rect::from_coords(200, 40, 260, 60), true),
            (1, Rect::from_coords(40, 240, 60, 300), true),
            // vdd wire (default POWER), width 20 with square line caps.
            (2, Rect::from_coords(10, 370, 390, 390), false),
            // gnd (+ USE GROUND).
            (0, Rect::from_coords(160, 0, 240, 20), false),
            // Macro OBS of u1, translated by (100, 100).
            (1, Rect::from_coords(120, 125, 140, 135), false),
            // The unreferenced `spare` pin's metal, colourable.
            (0, Rect::from_coords(366, 366, 374, 374), true),
        ]
    );
    assert!(lowered.routing.is_none());
}

#[test]
fn pin_escape_lowers_exactly() {
    let lowered = load("pin_escape.def");
    let d = &lowered.design;
    assert_eq!(d.name(), "pin_escape");
    assert_eq!(d.die(), Rect::from_coords(0, 0, 200, 200));
    assert_eq!(d.pins().len(), 8);
    // Clustered corner pins first (file order), far partners after.
    assert_pin(d, 0, "e0_a", 0, (6, 6, 14, 14));
    assert_pin(d, 1, "e1_a", 1, (26, 6, 34, 14));
    assert_pin(d, 2, "e2_a", 2, (6, 26, 14, 34));
    assert_pin(d, 3, "e3_a", 3, (26, 26, 34, 34));
    assert_pin(d, 4, "e0_b", 0, (166, 166, 174, 174));
    assert_pin(d, 5, "e1_b", 1, (166, 146, 174, 154));
    assert_pin(d, 6, "e2_b", 2, (146, 166, 154, 174));
    assert_pin(d, 7, "e3_b", 3, (146, 146, 154, 154));
    assert_eq!(d.nets().len(), 4);
    // The escape wall: two POWER blockages on M1.
    let got: Vec<(u32, Rect, bool)> = d
        .obstacles()
        .iter()
        .map(|o| (o.layer.index() as u32, o.rect, o.colorable))
        .collect();
    assert_eq!(
        got,
        vec![
            (0, Rect::from_coords(40, 0, 48, 40), false),
            (0, Rect::from_coords(0, 40, 24, 48), false),
        ]
    );
}

#[test]
fn routed_def_lowers_prerouted_wiring() {
    let lowered = load("routed.def");
    let d = &lowered.design;
    assert_eq!(d.name(), "minimal_routed");
    assert_eq!(d.pins().len(), 7);
    assert_eq!(d.nets().len(), 3);
    let routing = lowered.routing.expect("routed.def carries + ROUTED wiring");
    assert_eq!(routing.routed_count(), 1);
    let rn = routing.get(NetId::new(0)).expect("n0 is routed");
    // Two segments at the layers' default width (8), one M1->M2 via.
    assert_eq!(rn.segments.len(), 2);
    assert_eq!(rn.segments[0].layer, LayerId::new(0));
    assert_eq!(rn.segments[0].width, 8);
    assert_eq!(rn.segments[1].layer, LayerId::new(1));
    assert_eq!(rn.segments[1].width, 8);
    assert_eq!(rn.vias.len(), 1);
    assert_eq!(rn.vias[0].lower_layer, LayerId::new(0));
    assert!(routing.get(NetId::new(1)).is_none());
    assert!(routing.get(NetId::new(2)).is_none());
}

#[test]
fn corpus_dir_discovery_finds_all_cases_with_the_right_lefs() {
    let cases = cases_from_def_dir(&corpus("")).expect("corpus directory loads");
    // Sorted by DEF file name; case names come from the DESIGN statements.
    let names: Vec<&str> = cases.iter().map(|c| c.name()).collect();
    assert_eq!(
        names,
        vec!["dense_obstacles", "minimal", "pin_escape", "minimal_routed"]
    );
    for case in &cases {
        let (lef, def) = case.lefdef_paths().expect("external case");
        let expect_sibling = case.name() == "minimal";
        let lef_name = lef.file_name().unwrap().to_str().unwrap();
        if expect_sibling {
            assert_eq!(lef_name, "minimal.lef", "sibling-LEF discovery");
        } else {
            assert_eq!(
                lef_name,
                "tech.lef",
                "tech.lef fallback for {}",
                def.display()
            );
        }
    }
}

#[test]
fn minimal_routes_through_all_methods_jobs_invariant() {
    let cases =
        vec![
            mr_tpl::ispd::Case::from_lefdef(&corpus("minimal.lef"), &corpus("minimal.def"))
                .expect("minimal corpus pair loads"),
        ];
    let registry = MethodRegistry::builtin();
    let methods = registry.select("drcu,dac12,decompose,mrtpl").unwrap();
    let report_with_jobs = |jobs: usize| {
        let records = run_matrix(
            &methods,
            &cases,
            &RunOptions {
                jobs,
                deterministic: true,
                ..RunOptions::default()
            },
        );
        for r in &records {
            assert_eq!(r.case, "minimal");
            assert!(r.record().is_some(), "{} failed: {:?}", r.method, r.error());
        }
        RunReport {
            suite: "external".to_string(),
            input: InputProvenance::External {
                lef: None,
                def: corpus("minimal.def").display().to_string(),
            },
            scale: 1.0,
            jobs,
            deterministic: true,
            methods: methods.iter().map(|m| m.name().to_string()).collect(),
            records,
        }
        .to_json()
    };
    // Deterministic reports are byte-identical across worker counts.
    assert_eq!(report_with_jobs(1), report_with_jobs(2));
}
