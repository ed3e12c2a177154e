//! Process-level fault injection for the sweep executor: drive the real
//! `serve` and `sweep` binaries through SIGKILL mid-sweep, restart or
//! `--resume`, dedup and overlap, and byte-compare every answer against
//! an uninterrupted reference — an in-process run or `scenario run
//! --json`. The `fault-injection` CI job runs this suite.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use peas_scenario::{compile, load_str};
use peas_sim::job::decode_outcome;
use peas_sim::{encode_report, ResultCache, Runner};

/// The inline scenario every test job submits: a 2 x 2 sweep (two
/// densities x two seeds) over a tiny fast field, exactly 4 shards.
const INLINE: &str = "[scenario]\nhorizon = 300s\n\n[field]\nwidth = 25.0\nheight = 25.0\n\n\
                      [deployment]\ncount = 25\n\n[grab]\nenabled = false\n\n\
                      [failures]\nenabled = false\n\n[sweeps]\naxis = \"deployment.count\"\n\
                      values = [25, 30]\nseeds = [1, 2]\n";

fn job_json(name: &str) -> String {
    format!(
        "{{\"schema\":1,\"job\":\"{name}\",\"inline\":\"{}\"}}",
        INLINE
            .replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n")
    )
}

/// The reference bytes: compile the same inline source in-process and
/// run it uncached — what every served `reports.jsonl` must equal.
fn reference_bytes() -> String {
    let doc = load_str(INLINE).expect("inline source parses");
    let compiled = compile(&doc, "reference").expect("compiles");
    let configs: Vec<_> = compiled.runs().into_iter().map(|r| r.config).collect();
    let mut out = String::new();
    for report in Runner::configs(configs).run() {
        out.push_str(&encode_report(&report));
        out.push('\n');
    }
    out
}

fn serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(args)
        .output()
        .expect("spawn serve binary")
}

fn sweep(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args)
        .output()
        .expect("spawn sweep binary")
}

fn ok(what: &str, args: &[&str], out: Output) -> Output {
    assert!(
        out.status.success(),
        "{what} {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn serve_ok(args: &[&str]) -> Output {
    ok("serve", args, serve(args))
}

fn sweep_ok(args: &[&str]) -> Output {
    ok("sweep", args, sweep(args))
}

/// A file of the committed `scenarios/` corpus.
fn corpus(file: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .join(file)
        .to_string_lossy()
        .into_owned()
}

struct TestSpool {
    root: PathBuf,
}

impl TestSpool {
    fn new(tag: &str) -> TestSpool {
        let root = std::env::temp_dir().join(format!("peas-serve-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("mkdir");
        TestSpool { root }
    }

    fn spool(&self) -> String {
        self.root.join("spool").to_string_lossy().into_owned()
    }

    fn cache(&self) -> String {
        self.root.join("cache").to_string_lossy().into_owned()
    }

    fn submit(&self, name: &str) {
        let file = self.root.join(format!("{name}.submission.json"));
        fs::write(&file, job_json(name)).expect("write job file");
        self.submit_file(file.to_str().expect("utf8"));
    }

    fn submit_file(&self, file: &str) {
        serve_ok(&["submit", file, "--spool", &self.spool()]);
    }

    fn drain(&self, extra: &[&str]) -> Output {
        let spool = self.spool();
        let cache = self.cache();
        let mut args = vec![
            "run",
            "--spool",
            &spool,
            "--cache",
            &cache,
            "--drain",
            "--workers",
            "2",
        ];
        args.extend_from_slice(extra);
        serve(&args)
    }

    fn response(&self, name: &str) -> peas_sim::JobOutcome {
        let path = Path::new(&self.spool())
            .join("responses")
            .join(format!("{name}.response.json"));
        let src = fs::read_to_string(&path).expect("response file");
        decode_outcome(src.trim()).expect("response decodes")
    }

    fn reports(&self, name: &str) -> String {
        let path = Path::new(&self.spool())
            .join("responses")
            .join(format!("{name}.reports.jsonl"));
        fs::read_to_string(&path).expect("reports file")
    }
}

impl Drop for TestSpool {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

/// The headline end-to-end property: a job SIGKILLed mid-sweep resumes
/// after restart with the cache intact, the merged response is
/// byte-identical to an uninterrupted in-process run, and a duplicate
/// submission afterwards is served entirely from cache.
#[test]
fn killed_service_resumes_and_serves_byte_identical_responses() {
    let t = TestSpool::new("kill");
    t.submit("first");

    // Fault injection: the service SIGKILLs itself after one executed
    // shard, mid-job. The exit is abnormal by construction.
    let out = t.drain(&["--kill-after", "1", "--workers", "1"]);
    assert!(
        !out.status.success(),
        "--kill-after must die abnormally, got: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The interrupted job is still claimed in active/, and the cache
    // already holds the executed shard — intact, nothing quarantined.
    let spool = PathBuf::from(t.spool());
    assert!(
        spool.join("active").join("first.json").exists(),
        "killed job must stay in active/ for recovery"
    );
    let cache = ResultCache::open(t.cache()).expect("open cache");
    let scan = cache.scan().expect("scan survives the kill");
    assert_eq!(scan.len(), 1, "exactly the pre-kill shard is cached");
    assert_eq!(scan.quarantined, 0, "a clean kill corrupts nothing");

    // Restart: the service recovers the active job and finishes it from
    // where the cache left off.
    let out = t.drain(&[]);
    assert!(
        out.status.success(),
        "restarted serve failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let first = t.response("first");
    assert!(first.is_done(), "recovered job must complete: {first:?}");
    assert_eq!(first.total, 4);
    assert_eq!(first.cached, 1, "the pre-kill shard is served from cache");
    assert_eq!(first.executed, 3, "only the remaining shards re-run");
    assert_eq!(
        t.reports("first"),
        reference_bytes(),
        "resumed response must be byte-identical to an uninterrupted run"
    );

    // A duplicate submission under a new name runs zero shards and
    // serves the exact same bytes.
    t.submit("second");
    serve_ok(&["status", "--spool", &t.spool(), "--cache", &t.cache()]);
    let out = t.drain(&[]);
    assert!(out.status.success());
    let second = t.response("second");
    assert_eq!((second.total, second.cached, second.executed), (4, 4, 0));
    assert_eq!(second.result_fingerprint, first.result_fingerprint);
    assert_eq!(t.reports("second"), t.reports("first"));
}

/// Bad submissions are answered, not wedged: an unservable job lands in
/// failed/ with a diagnostic response, and the service keeps draining.
#[test]
fn unservable_jobs_fail_cleanly_and_do_not_wedge_the_spool() {
    let t = TestSpool::new("badjob");
    let file = PathBuf::from(t.spool())
        .join("incoming")
        .join("broken.json");
    fs::create_dir_all(file.parent().expect("parent")).expect("mkdir incoming");
    fs::write(
        &file,
        r#"{"schema":1,"job":"broken","scenario":"no-such-scenario"}"#,
    )
    .expect("write job");
    t.submit("good");

    let out = t.drain(&[]);
    assert!(out.status.success());
    let broken = t.response("broken");
    assert!(!broken.is_done());
    assert!(
        broken
            .error
            .as_deref()
            .unwrap_or("")
            .contains("no-such-scenario"),
        "diagnostic must name the missing scenario: {broken:?}"
    );
    assert!(
        PathBuf::from(t.spool())
            .join("failed")
            .join("broken.json")
            .exists(),
        "unservable job must be archived in failed/"
    );
    let good = t.response("good");
    assert!(good.is_done(), "later jobs still serve: {good:?}");
    assert_eq!(t.reports("good"), reference_bytes());
}

/// The corpus jobs end to end: `sweep-smoke` killed after two executed
/// shards resumes on restart (`cached=2 executed=2`) with the bytes of
/// `scenario run sweep-smoke --json`; the overlapping inline job runs
/// only its two novel grid points; an exact duplicate runs nothing.
#[test]
fn corpus_jobs_resume_dedup_and_overlap() {
    let t = TestSpool::new("corpus");
    t.submit_file(&corpus("jobs/sweep-smoke.json"));
    let out = t.drain(&["--kill-after", "2"]);
    assert!(!out.status.success(), "--kill-after must die abnormally");
    assert!(PathBuf::from(t.spool())
        .join("active")
        .join("nightly-sweep-smoke.json")
        .exists());
    let scan = ResultCache::open(t.cache())
        .expect("open cache")
        .scan()
        .expect("scan");
    assert_eq!((scan.len(), scan.quarantined), (2, 0));

    assert!(t.drain(&[]).status.success());
    let first = t.response("nightly-sweep-smoke");
    assert_eq!((first.total, first.cached, first.executed), (4, 2, 2));
    let direct = Command::new(env!("CARGO_BIN_EXE_scenario"))
        .args(["run", "sweep-smoke", "--json"])
        .output()
        .expect("spawn scenario binary");
    assert!(direct.status.success());
    assert_eq!(
        t.reports("nightly-sweep-smoke").as_bytes(),
        direct.stdout.as_slice(),
        "served reports must equal `scenario run sweep-smoke --json`"
    );

    t.submit_file(&corpus("jobs/overlap-inline.json"));
    assert!(t.drain(&[]).status.success());
    let overlap = t.response("adhoc-overlap");
    assert_eq!((overlap.total, overlap.cached, overlap.executed), (4, 2, 2));

    t.submit_file(&corpus("jobs/sweep-smoke.json"));
    assert!(t.drain(&[]).status.success());
    let again = t.response("nightly-sweep-smoke");
    assert_eq!((again.total, again.cached, again.executed), (4, 4, 0));
    assert_eq!(t.reports("nightly-sweep-smoke").as_bytes(), direct.stdout);
}

/// `sweep run` on the same executor: killed after one shard it leaves
/// exactly one record, refuses the partial cache without `--resume`,
/// completes with it, and `verify` finds the result byte-identical to an
/// uninterrupted cache, with sweep-smoke's pinned sweep fingerprint.
#[test]
fn killed_sweep_resumes_and_verifies_against_an_uninterrupted_cache() {
    let t = TestSpool::new("sweep");
    let cache = t.cache();
    let reference = t.root.join("reference").to_string_lossy().into_owned();

    let killed = ["run", "sweep-smoke", "--cache", &cache, "--workers", "2"];
    let out = sweep(&[&killed[..], &["--kill-after", "1"]].concat());
    assert!(!out.status.success(), "--kill-after must die abnormally");
    let scan = ResultCache::open(&cache)
        .expect("open cache")
        .scan()
        .expect("scan");
    assert_eq!((scan.len(), scan.quarantined), (1, 0), "one record cached");

    let refused = sweep(&killed);
    assert!(!refused.status.success());
    assert!(String::from_utf8_lossy(&refused.stderr).contains("--resume"));
    sweep_ok(&[&killed[..], &["--resume"]].concat());

    sweep_ok(&[
        "run",
        "sweep-smoke",
        "--cache",
        &reference,
        "--workers",
        "1",
    ]);
    let args = [
        "verify",
        "sweep-smoke",
        "--cache",
        &cache,
        "--against",
        &reference,
    ];
    let out = sweep_ok(&args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("4 run(s) byte-identical, sweep_fingerprint = 0xBF30501023E0ADFC"),
        "{stdout}"
    );
}
