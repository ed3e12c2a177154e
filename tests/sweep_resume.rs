//! Tier-1 kill/resume conformance for sweeps over the result cache: a
//! sweep interrupted mid-write (a torn final line, exactly what a SIGKILL
//! mid-append leaves behind) or damaged at rest (a record that still
//! parses but no longer says what was written) must resume into merged
//! reports byte-identical — via the schema-1 serialized form — to an
//! uninterrupted run. Resumes go through `peas_bench::run_plan`, the loop
//! behind `sweep run --resume`; `crates/bench/tests/serve_smoke.rs`
//! proves the same across real processes with `sweep run --kill-after`.

use std::fs;
use std::path::PathBuf;

use peas_bench::{run_plan, PlanRun};
use peas_repro::scenario::load_compiled;
use peas_repro::simulation::report_json::parse_json;
use peas_repro::simulation::{encode_report, ResultCache, Runner, SweepPlan};

fn sweep_smoke() -> SweepPlan {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios/sweep-smoke.peas");
    let compiled = load_compiled(&path).expect("sweep-smoke.peas must compile");
    let plan = SweepPlan::new(
        compiled
            .runs()
            .into_iter()
            .map(|run| (run.label, run.config))
            .collect(),
    );
    assert_eq!(plan.len(), 4, "sweep-smoke expands to 2 values x 2 seeds");
    plan
}

/// The uninterrupted reference: every shard run directly, no cache.
fn reference(plan: &SweepPlan) -> Vec<String> {
    let configs = plan.shards().iter().map(|s| s.config.clone()).collect();
    Runner::configs(configs)
        .run()
        .iter()
        .map(encode_report)
        .collect()
}

fn temp_cache(tag: &str) -> (PathBuf, ResultCache) {
    let dir = std::env::temp_dir().join(format!("peas-resume-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let cache = ResultCache::open(&dir).expect("open cache");
    (dir, cache)
}

/// Runs the plan against the cache the way `sweep run --resume` does.
fn resume(cache: &ResultCache, plan: &SweepPlan, workers: usize) -> (PlanRun, Vec<String>) {
    let run = run_plan(cache, plan, workers, &mut None, "[test]", |_, _| Ok(())).expect("resume");
    let merged = match &run.merged {
        Ok(reports) => reports.iter().map(encode_report).collect(),
        Err(e) => panic!("resumed sweep must merge: {e}"),
    };
    (run, merged)
}

/// Writes every shard through an explicit writer slot — even indices to
/// `cache-0.jsonl`, odd to `cache-1.jsonl` — because `execute` assigns
/// shards to segments by thread timing, and the tests below tear a
/// known segment.
fn fill_two_writers(cache: &ResultCache, plan: &SweepPlan) {
    for slot in 0..2 {
        let mut writer = cache.writer(slot).expect("open writer");
        for shard in plan.shards().iter().filter(|s| s.index % 2 == slot) {
            let report = Runner::new(shard.config.clone()).run_single();
            writer
                .append(shard.key, &shard.label, &report)
                .expect("append");
        }
    }
}

/// Tears `cache-1.jsonl` mid-way through its final record (shard 3):
/// the first line and half of the second, no trailing newline.
fn tear_segment_1(cache: &ResultCache) {
    let segment = cache.segment_path(1);
    let text = fs::read_to_string(&segment).expect("read segment");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "writer 1 holds shards 1 and 3");
    let keep = lines[0].len() + 1 + lines[1].len() / 2;
    fs::write(&segment, &text[..keep]).expect("tear segment");
}

fn novel_indices(cache: &ResultCache, plan: &SweepPlan) -> Vec<usize> {
    let scan = cache.scan().expect("scan");
    plan.novel(&scan).iter().map(|s| s.index).collect()
}

/// The headline acceptance criterion: interrupt a sweep by tearing a
/// segment mid-line, resume on one writer, and the merged reports are
/// byte-identical to an uninterrupted run's.
#[test]
fn interrupted_then_resumed_sweep_is_byte_identical_to_uninterrupted() {
    let plan = sweep_smoke();
    let (dir, cache) = temp_cache("kill");
    fill_two_writers(&cache, &plan);
    tear_segment_1(&cache);

    let scan = cache.scan().expect("scan torn cache");
    assert_eq!((scan.len(), scan.torn, scan.quarantined), (3, 1, 0));
    assert_eq!(novel_indices(&cache, &plan), vec![3]);

    // One writer thread appends to cache-0.jsonl; the store is
    // writer-topology-independent, so only the torn shard re-runs.
    let (run, merged) = resume(&cache, &plan, 1);
    assert_eq!((run.cached, run.executed), (3, 1), "exactly the torn shard");
    assert_eq!(
        merged,
        reference(&plan),
        "resumed sweep must be byte-identical to the uninterrupted run"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Torn-tail regression: the re-run shard is appended onto its own torn
/// segment. The writer must first truncate the torn half-line, or the
/// new record fuses with it and the shard stays novel forever.
#[test]
fn resume_onto_same_torn_segment_recovers_the_shard() {
    let plan = sweep_smoke();
    let (dir, cache) = temp_cache("same-slot");
    fill_two_writers(&cache, &plan);
    tear_segment_1(&cache);
    assert_eq!(novel_indices(&cache, &plan), vec![3]);

    let shard = &plan.shards()[3];
    let report = Runner::new(shard.config.clone()).run_single();
    cache
        .writer(1)
        .expect("reopen the torn segment")
        .append(shard.key, &shard.label, &report)
        .expect("append");

    let scan = cache.scan().expect("scan");
    assert_eq!(
        scan.torn, 0,
        "the torn tail was truncated before the append"
    );
    assert!(
        plan.novel(&scan).is_empty(),
        "the appended record must be readable past the torn tail"
    );
    let merged: Vec<String> = plan
        .merged(&scan)
        .expect("complete after resume")
        .iter()
        .map(encode_report)
        .collect();
    assert_eq!(
        merged,
        reference(&plan),
        "same-segment resume must be byte-identical to the uninterrupted run"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Resuming a sweep the cache already holds in full runs nothing and
/// merges identically (the `--resume` no-op path).
#[test]
fn resume_of_a_complete_journal_runs_nothing() {
    let plan = sweep_smoke();
    let (dir, cache) = temp_cache("noop");
    let (first, merged) = resume(&cache, &plan, 2);
    assert_eq!((first.cached, first.executed), (0, 4));
    assert_eq!(merged, reference(&plan));

    let reopened = ResultCache::open(&dir).expect("reopen");
    let (again, merged_again) = resume(&reopened, &plan, 2);
    assert_eq!((again.cached, again.executed), (4, 0));
    assert_eq!(merged_again, merged);
    let _ = fs::remove_dir_all(&dir);
}

/// A record edited at rest so that it still parses — one digit of
/// `events_processed` changed — must be caught by its checksum: it is
/// quarantined, exactly its shard re-runs, and the merge is the
/// uninterrupted run's. (A store without checksums would merge the
/// edited report and re-run nothing.)
#[test]
fn changed_digit_in_a_record_is_quarantined_and_only_its_shard_reruns() {
    let plan = sweep_smoke();
    let (dir, cache) = temp_cache("digit");
    // One writer thread runs the shards in order into cache-0.jsonl.
    resume(&cache, &plan, 1);

    let segment = cache.segment_path(0);
    let mut text = fs::read_to_string(&segment).expect("read segment");
    let first_line_end = text.find('\n').expect("four records");
    let at = text[..first_line_end]
        .find("\"events_processed\":")
        .expect("record carries events_processed")
        + "\"events_processed\":".len();
    let digit = text.as_bytes()[at];
    assert!(digit.is_ascii_digit());
    let edited = if digit == b'9' {
        '1'
    } else {
        char::from(digit + 1)
    };
    text.replace_range(at..=at, &edited.to_string());
    assert!(
        parse_json(&text[..first_line_end]).is_ok(),
        "the edited record is still well-formed JSON"
    );
    fs::write(&segment, &text).expect("rewrite segment");

    let scan = cache.scan().expect("scan edited cache");
    assert_eq!((scan.len(), scan.quarantined, scan.torn), (3, 1, 0));
    assert_eq!(novel_indices(&cache, &plan), vec![0]);

    let (run, merged) = resume(&cache, &plan, 1);
    assert_eq!((run.cached, run.executed), (3, 1), "exactly that shard");
    assert_eq!(
        merged,
        reference(&plan),
        "the edited report must never be merged"
    );
    let log = fs::read_to_string(cache.quarantine_path()).expect("quarantine log");
    assert_eq!(log.lines().count(), 1, "the edited record is logged once");
    assert!(log.contains("checksum mismatch"), "{log}");
    let _ = fs::remove_dir_all(&dir);
}
