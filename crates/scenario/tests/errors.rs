//! Diagnostic contract tests: every error class a scenario author can
//! hit has a *stable* message and points at the offending line/column.
//! These strings are part of the DSL's public surface — docs and CI
//! output quote them — so changing one is a deliberate act that must
//! update this file.

use std::path::{Path, PathBuf};

use peas_scenario::{compile, load_compiled, load_path, parse};

fn compile_err(src: &str) -> peas_scenario::ScenarioError {
    compile(&parse(src).expect("source parses"), "test").expect_err("compile must fail")
}

#[test]
fn unknown_key_names_the_key_and_section() {
    let err = compile_err("[deployment]\ncount = 480\n\n[peas]\nprobing_rage = 3.0\n");
    assert_eq!(err.message, "unknown key `probing_rage` in [peas]");
    assert_eq!((err.line, err.column), (5, 1));
}

#[test]
fn unknown_section_is_rejected() {
    let err = compile_err("[deployment]\ncount = 480\n\n[radios]\nchannel = \"disc\"\n");
    assert_eq!(err.message, "unknown section [radios]");
    assert_eq!((err.line, err.column), (4, 1));
}

#[test]
fn type_mismatch_states_expected_and_found() {
    let err = compile_err("[deployment]\ncount = \"lots\"\n");
    assert_eq!(
        err.message,
        "[deployment] count: expected an integer, found a string"
    );
    assert_eq!((err.line, err.column), (2, 1));

    let err = compile_err("[deployment]\ncount = 480\n\n[peas]\nprobe_spread = 40\n");
    assert_eq!(
        err.message,
        "[peas] probe_spread: expected a duration (e.g. `150ms`, `25s`), found an integer"
    );
    assert_eq!((err.line, err.column), (5, 1));

    let err = compile_err("[deployment]\ncount = 480\n\n[peas]\nturnoff = 1\n");
    assert_eq!(
        err.message,
        "[peas] turnoff: expected a boolean, found an integer"
    );
}

#[test]
fn missing_deployment_section_is_reported() {
    let err = compile_err("[peas]\nprobing_range = 3.0\n");
    assert_eq!(
        err.message,
        "missing required section [deployment] (every scenario must declare `count`)"
    );
    assert_eq!((err.line, err.column), (1, 1));

    let err = compile_err("[deployment]\nkind = \"uniform\"\n");
    assert_eq!(err.message, "missing key `count` in [deployment]");
    assert_eq!((err.line, err.column), (1, 1));
}

#[test]
fn terrain_section_requires_the_terrain_model() {
    let err = compile_err("[deployment]\ncount = 60\n\n[terrain]\ncols = 11\n");
    assert_eq!(
        err.message,
        "a [terrain] section requires `model = \"terrain\"` in [radio]"
    );
    assert_eq!((err.line, err.column), (4, 1));

    let err = compile_err("[deployment]\ncount = 60\n\n[radio]\nmodel = \"terrain\"\n");
    assert_eq!(
        err.message,
        "model \"terrain\" requires a [terrain] section"
    );
    assert_eq!((err.line, err.column), (5, 1));
}

#[test]
fn unknown_propagation_model_lists_the_choices() {
    let err = compile_err("[deployment]\ncount = 60\n\n[radio]\nmodel = \"fresnel\"\n");
    assert_eq!(
        err.message,
        "unknown propagation model `fresnel` (expected \"disc\", \"shadowed\" or \"terrain\")"
    );
    assert_eq!((err.line, err.column), (5, 1));
}

/// Every `[terrain]` key points its diagnostic at the offending line.
#[test]
fn malformed_terrain_rasters_are_reported_at_the_key() {
    let terrain = |body: &str| {
        format!("[deployment]\ncount = 60\n\n[radio]\nmodel = \"terrain\"\n\n[terrain]\n{body}")
    };

    let err = compile_err(&terrain("cols = 11\nrows = 11\n"));
    assert_eq!(err.message, "missing key `cell_size` in [terrain]");
    assert_eq!((err.line, err.column), (7, 1));

    let err = compile_err(&terrain(
        "cols = 11\nrows = 11\ncell_size = 0.0\nseed = 1\n",
    ));
    assert_eq!(err.message, "terrain `cell_size` must be positive, got 0");
    assert_eq!((err.line, err.column), (10, 1));

    let err = compile_err(&terrain("cols = 1\nrows = 11\ncell_size = 5.0\nseed = 1\n"));
    assert_eq!(err.message, "terrain `cols` must be at least 2, got 1");
    assert_eq!((err.line, err.column), (8, 1));

    let err = compile_err(&terrain(
        "cols = 2\nrows = 2\ncell_size = 5.0\nheights = [0.0, 1.0, 2.0]\n",
    ));
    assert_eq!(
        err.message,
        "terrain `heights` has 3 samples but 2 cols x 2 rows = 4"
    );
    assert_eq!((err.line, err.column), (11, 1));

    let err = compile_err(&terrain(
        "cols = 2\nrows = 2\ncell_size = 5.0\nheights = [0.0, 1.0, 2.0, 3.0]\nseed = 4\n",
    ));
    assert_eq!(
        err.message,
        "terrain heights are either inline (`heights`) or generated (`seed`), not both"
    );

    let err = compile_err(&terrain("cols = 2\nrows = 2\ncell_size = 5.0\n"));
    assert_eq!(
        err.message,
        "terrain needs a height map: inline `heights` or a generator `seed`"
    );
    assert_eq!((err.line, err.column), (7, 1));
}

#[test]
fn oversized_probe_count_is_rejected_at_compile_time() {
    // Four billion PROBEs per wakeup would have the first wakeup ask its
    // host for 160 GB of timers; compilation refuses it, before any world
    // is built.
    let peas = |count: &str| format!("[deployment]\ncount = 60\n\n[peas]\nprobe_count = {count}\n");
    for count in ["17", "4000000000"] {
        let err = compile_err(&peas(count));
        assert_eq!(
            err.message,
            "invalid scenario: invalid PEAS configuration: probe_count must be at most 16"
        );
    }
    for count in ["3", "16"] {
        assert!(compile(&parse(&peas(count)).expect("parses"), "test").is_ok());
    }
}

#[test]
fn terrain_raster_must_cover_the_field() {
    // 6x6 at 5 m spans 25 m; the default paper field is 50 x 50 m.
    let err = compile_err(
        "[deployment]\ncount = 60\n\n[radio]\nmodel = \"terrain\"\n\n\
         [terrain]\ncols = 6\nrows = 6\ncell_size = 5.0\nseed = 1\n",
    );
    assert!(
        err.message
            .starts_with("invalid scenario: terrain raster spans"),
        "{}",
        err.message
    );
}

#[test]
fn bad_unit_suffix_lists_the_accepted_units() {
    let err = parse("[scenario]\nhorizon = 3m\n").expect_err("bad suffix");
    assert_eq!(
        err.message,
        "unknown unit suffix `m` in `3m` (expected ns, us, ms or s)"
    );
    assert_eq!((err.line, err.column), (2, 11));
}

/// A scratch directory under target/, unique per test.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/scenario-error-tests")
        .join(name);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn cyclic_extends_reports_the_whole_chain() {
    let dir = scratch("cycle3");
    std::fs::write(dir.join("a.peas"), "extends = \"b.peas\"\n").expect("write a");
    std::fs::write(dir.join("b.peas"), "extends = \"c.peas\"\n").expect("write b");
    std::fs::write(dir.join("c.peas"), "extends = \"a.peas\"\n").expect("write c");
    let err = load_path(&dir.join("a.peas")).expect_err("cycle detected");
    assert_eq!(
        err.message,
        "cyclic `extends` chain: a.peas -> b.peas -> c.peas -> a.peas"
    );
    assert!(err.file.is_some(), "cycle errors carry the offending file");
}

#[test]
fn compile_errors_from_files_carry_the_file_name() {
    let dir = scratch("filetag");
    std::fs::write(dir.join("bad.peas"), "[deployment]\ncount = true\n").expect("write bad");
    let err = load_compiled(&dir.join("bad.peas")).expect_err("type error");
    assert_eq!(
        err.message,
        "[deployment] count: expected an integer, found a boolean"
    );
    assert!(
        err.file.as_deref().is_some_and(|f| f.ends_with("bad.peas")),
        "error should name the file, got {:?}",
        err.file
    );
    // The rendered form is file:line:col: message.
    assert!(err
        .to_string()
        .ends_with("bad.peas:2:1: [deployment] count: expected an integer, found a boolean"));
}
