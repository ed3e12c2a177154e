//! The command lines of the four bins, driven as processes: undeclared
//! flags and missing operands are usage errors (exit 2, at once),
//! `scenario run` takes a `.peas` path and writes a single run's CSV
//! exports byte-identical to the same run in-process, a closed stdout
//! ends it quietly, and a model scenario's exit status follows its
//! `[trace] expect_violation`.

use std::cell::RefCell;
use std::fs;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use peas_des::time::SimTime;
use peas_scenario::{compile, load_str};
use peas_sim::{TraceEvent, World};

/// What a finished bin run left: its exit code, stdout and stderr.
struct Ran {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

/// A scratch directory per test, removed when the test ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("peas-cli-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir scratch");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Runs `exe` with `args`, killing it if it has not exited within
/// `limit`. Output goes through files, so a chatty child cannot stall on
/// a full pipe.
fn run(exe: &str, args: &[&str], limit: Duration) -> Ran {
    // Tests run on parallel threads of one process: number the runs.
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let out = Scratch::new(&format!("out-{}", RUNS.fetch_add(1, Ordering::Relaxed)));
    let (stdout, stderr) = (out.0.join("stdout"), out.0.join("stderr"));
    let mut child = Command::new(exe)
        .args(args)
        .stdout(Stdio::from(fs::File::create(&stdout).expect("stdout file")))
        .stderr(Stdio::from(fs::File::create(&stderr).expect("stderr file")))
        .spawn()
        .expect("spawn bin");
    let status = wait(&mut child, limit, &format!("{exe} {args:?}"));
    Ran {
        code: status.code(),
        stdout: fs::read_to_string(&stdout).expect("read stdout"),
        stderr: fs::read_to_string(&stderr).expect("read stderr"),
    }
}

/// Waits for `child`, killing it (and failing the test) if it has not
/// exited within `limit`.
fn wait(child: &mut Child, limit: Duration, what: &str) -> ExitStatus {
    let deadline = Instant::now() + limit;
    loop {
        if let Some(status) = child.try_wait().expect("poll child") {
            return status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{what} still running after {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

const SCENARIO: &str = env!("CARGO_BIN_EXE_scenario");
const QUICK: Duration = Duration::from_secs(30);

fn assert_usage_error(what: &str, ran: &Ran, needle: &str) {
    assert_eq!(ran.code, Some(2), "{what} must exit 2:\n{}", ran.stderr);
    assert!(
        ran.stderr.contains("usage:") && ran.stderr.contains(needle),
        "{what} must name `{needle}` and print the usage:\n{}",
        ran.stderr
    );
}

#[test]
fn undeclared_flags_are_usage_errors_in_every_bin() {
    let t = Scratch::new("flags");
    let (cache, spool) = (t.path("cache"), t.path("spool"));
    let cases: [(&str, Vec<&str>); 4] = [
        (env!("CARGO_BIN_EXE_paper"), vec!["kaccuracy", "--bogus"]),
        (SCENARIO, vec!["run", "smoke", "--bogus"]),
        (
            env!("CARGO_BIN_EXE_sweep"),
            vec!["status", "sweep-smoke", "--cache", &cache, "--bogus"],
        ),
        (
            env!("CARGO_BIN_EXE_serve"),
            vec!["status", "--spool", &spool, "--cache", &cache, "--bogus"],
        ),
    ];
    for (exe, args) in cases {
        let ran = run(exe, &args, QUICK);
        assert_usage_error(&format!("{exe} {args:?}"), &ran, "--bogus");
    }
}

/// A reader that takes one line and goes away closes `scenario run`'s
/// stdout while the run still has its summary to print: the bin ends
/// quietly, without a panic.
#[test]
fn a_closed_stdout_ends_scenario_run_quietly() {
    let t = Scratch::new("pipe");
    let stderr = t.path("stderr");
    let mut child = Command::new(SCENARIO)
        .args(["run", "smoke"])
        .stdout(Stdio::piped())
        .stderr(Stdio::from(fs::File::create(&stderr).expect("stderr file")))
        .spawn()
        .expect("spawn scenario");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("read one line");
    // The reader is gone: the pipe is closed before the summary is due.
    assert_eq!(first, "smoke: 1 run(s)\n");
    let status = wait(&mut child, Duration::from_secs(300), "scenario run smoke");
    let stderr = fs::read_to_string(&stderr).expect("read stderr");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(status.code(), Some(101), "{stderr}");
}

#[test]
fn run_without_a_scenario_is_a_usage_error() {
    // Not the whole corpus: that would start every full sweep.
    let ran = run(SCENARIO, &["run"], QUICK);
    assert_usage_error("bare `scenario run`", &ran, "needs a scenario");
}

#[test]
fn exports_need_one_single_run_scenario() {
    let t = Scratch::new("multi");
    let csv = t.path("series.csv");
    let ran = run(SCENARIO, &["run", "sweep-smoke", "--csv", &csv], QUICK);
    assert_usage_error("--csv on a sweep", &ran, "expands to 4 runs");
    assert!(
        !Path::new(&csv).exists(),
        "nothing runs, nothing is written"
    );
}

/// A `.peas` path runs like a corpus name, and its `--csv` and `--trace`
/// files hold exactly what the same run writes in-process.
#[test]
fn csv_and_trace_exports_equal_the_in_process_run() {
    const SRC: &str = "[deployment]\ncount = 60\n\n[scenario]\nseed = 5\nhorizon = 800s\n";
    let t = Scratch::new("exports");
    let file = t.path("one.peas");
    fs::write(&file, SRC).expect("write scenario");
    let (csv, trace) = (t.path("series.csv"), t.path("trace.csv"));
    let ran = run(
        SCENARIO,
        &["run", &file, "--csv", &csv, "--trace", &trace],
        Duration::from_secs(300),
    );
    assert_eq!(ran.code, Some(0), "scenario run failed:\n{}", ran.stderr);
    for figure in [
        "coverage lifetime",
        "data delivery",
        "energy",
        "deaths",
        "medium",
    ] {
        assert!(
            ran.stdout.contains(figure),
            "summary lacks {figure}:\n{}",
            ran.stdout
        );
    }

    let doc = load_str(SRC).expect("parses");
    let config = compile(&doc, "one").expect("compiles").base;
    let rows = Rc::new(RefCell::new(String::from("t_secs,event,node,detail\n")));
    let mut world = World::new(config);
    let sink = Rc::clone(&rows);
    world.set_trace(move |t: SimTime, event: &TraceEvent| {
        let mut rows = sink.borrow_mut();
        rows.push_str(&event.to_csv_row(t));
        rows.push('\n');
    });
    let report = world.run();
    let mut series = Vec::new();
    report.write_csv(&mut series).expect("in-memory csv");

    assert_eq!(fs::read(&csv).expect("--csv file"), series);
    assert_eq!(
        fs::read_to_string(&trace).expect("--trace file"),
        *rows.borrow()
    );
}

/// A model scenario exits 0 when its replay hits the violation it
/// expects, and 1 when it hits another; a path works like a name.
#[test]
fn model_runs_exit_by_their_expected_violation() {
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let ran = run(SCENARIO, &["run", "model-trace-exchange"], QUICK);
    assert_eq!(ran.code, Some(0), "pinned replay failed:\n{}", ran.stderr);
    assert!(ran.stdout.contains("violation = none"), "{}", ran.stdout);

    // Copies beside their base, one expecting the rule that does fire
    // (none) and one expecting another.
    let t = Scratch::new("model");
    let base = fs::read_to_string(corpus.join("model-3node.peas")).expect("base");
    fs::write(t.path("model-3node.peas"), base).expect("write base");
    let src = fs::read_to_string(corpus.join("model-trace-exchange.peas")).expect("trace");
    assert!(src.contains("expect_violation = \"none\""));
    let other = src.replace(
        "expect_violation = \"none\"",
        "expect_violation = \"turnoff-spec\"",
    );
    fs::write(t.path("same.peas"), &src).expect("write copy");
    fs::write(t.path("other.peas"), other).expect("write copy");

    let ran = run(SCENARIO, &["run", &t.path("same.peas")], QUICK);
    assert_eq!(ran.code, Some(0), "copy by path failed:\n{}", ran.stderr);
    let ran = run(SCENARIO, &["run", &t.path("other.peas")], QUICK);
    assert_eq!(ran.code, Some(1), "a different violation must fail");
    assert!(ran.stdout.contains("violation = none"), "{}", ran.stdout);
    assert!(
        ran.stderr
            .contains("expected violation `turnoff-spec`, found `none`"),
        "{}",
        ran.stderr
    );
}
