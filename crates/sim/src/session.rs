//! Sharded, checkpointed sweep execution: [`SweepSession`].
//!
//! A session deterministically enumerates the (config, seed) runs of a
//! sweep as numbered *shards* and journals every completed [`RunReport`]
//! to an append-only JSON-lines checkpoint, keyed by **config
//! fingerprint + seed**. A restarted session re-reads the journal and
//! skips every
//! already-journaled shard, so a sweep that dies at 90% loses one
//! in-flight run, not the whole grid — the same robustness-under-failure
//! stance PEAS itself takes for sensor nodes (Section 3.3).
//!
//! Layout: the journal is a directory of `worker-<i>.jsonl` segment
//! files, one per worker slot. Each line is
//!
//! ```text
//! {"fingerprint":"0x…","seed":N,"label":"…","report":{"schema":1,…}}
//! ```
//!
//! with the report in the canonical [`crate::report_json`] form. Workers
//! only ever append to their own segment and flush after every shard, so
//! concurrent worker *processes* never interleave bytes, and a worker
//! killed mid-write leaves at most one torn final line — which the
//! journal scan detects (it fails to parse) and ignores, causing exactly
//! that shard to be re-run on resume.
//!
//! Merging is positional and deterministic: [`SweepSession::merged`]
//! returns reports in shard-enumeration order, deduplicating journal
//! entries by key (first occurrence in sorted-segment order wins; runs
//! are deterministic, so duplicates are byte-identical anyway). A merged
//! resumed sweep is therefore byte-identical to an uninterrupted run —
//! pinned by `tests/sweep_resume.rs` and the `sweep-resume` CI job.

use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use peas_des::DetMap;

use crate::config::ScenarioConfig;
use crate::metrics::RunReport;
use crate::report_json::{encoded_len_hint, fill, push_escaped, push_report, required, Reader};
use crate::runner::Runner;

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over an arbitrary byte string — the workspace's one
/// non-cryptographic content hash, shared by [`config_fingerprint`] and
/// the result cache's record checksums ([`crate::cache`]).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The checkpoint identity of a sweep run: the fingerprint of its config
/// (seed excluded) plus the seed. Two shards with equal keys are the same
/// deterministic run and may share a journal entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ShardKey {
    /// [`config_fingerprint`] of the shard's config.
    pub fingerprint: u64,
    /// The run's master seed.
    pub seed: u64,
}

/// One unit of sweep work: a fully-resolved config plus its stable
/// position in the sweep enumeration.
#[derive(Clone, Debug)]
pub struct Shard {
    /// Position in the sweep enumeration (also the merge order).
    pub index: usize,
    /// Human-readable label (carried into the journal for debuggability).
    pub label: String,
    /// The fully-resolved configuration.
    pub config: ScenarioConfig,
    /// The checkpoint key.
    pub key: ShardKey,
}

/// A stable fingerprint of a scenario config **excluding its seed** (the
/// seed is tracked separately in the [`ShardKey`]). Computed as FNV-1a
/// over the config's canonical debug rendering, so any parameter change —
/// field size, ranges, rates, horizon — yields a new fingerprint and
/// stale journal entries simply stop matching (their shards re-run).
pub fn config_fingerprint(config: &ScenarioConfig) -> u64 {
    let canonical = format!("{:?}", config.clone().with_seed(0));
    fnv1a(canonical.as_bytes())
}

/// Enumerates `(label, config)` runs as [`Shard`]s in input order — the
/// single shard-numbering rule shared by [`SweepSession`] journals and
/// the content-addressed result cache ([`crate::cache::SweepPlan`]).
pub fn enumerate_shards(runs: Vec<(String, ScenarioConfig)>) -> Vec<Shard> {
    runs.into_iter()
        .enumerate()
        .map(|(index, (label, config))| {
            let key = ShardKey {
                fingerprint: config_fingerprint(&config),
                seed: config.seed,
            };
            Shard {
                index,
                label,
                config,
                key,
            }
        })
        .collect()
}

/// Why a session operation failed.
#[derive(Debug)]
pub enum SessionError {
    /// The journal directory or a segment file could not be read/written.
    Io(io::Error),
    /// A merge was requested while shards are still missing from the
    /// journal (their enumeration indices, in order).
    Incomplete {
        /// Enumeration indices of the shards not yet journaled.
        missing: Vec<usize>,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Io(e) => write!(f, "journal I/O error: {e}"),
            SessionError::Incomplete { missing } => write!(
                f,
                "sweep incomplete: {} shard(s) not journaled (indices {missing:?})",
                missing.len()
            ),
        }
    }
}

impl From<io::Error> for SessionError {
    fn from(e: io::Error) -> SessionError {
        SessionError::Io(e)
    }
}

/// A sharded, resumable sweep over a fixed, deterministically-enumerated
/// run list, checkpointed to a journal directory.
///
/// ```no_run
/// use peas_sim::{ScenarioConfig, SweepSession};
///
/// let runs = vec![
///     ("n=30".to_string(), ScenarioConfig::small().with_seed(1)),
///     ("n=30 s2".to_string(), ScenarioConfig::small().with_seed(2)),
/// ];
/// let session = SweepSession::create("target/sweep-journal", runs)?;
/// session.run_worker(0, 1, None)?; // runs only what the journal lacks
/// let reports = session.merged().expect("complete");
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct SweepSession {
    dir: PathBuf,
    shards: Vec<Shard>,
}

impl SweepSession {
    /// Opens (creating if needed) the journal directory `dir` for the
    /// given `(label, config)` runs, enumerated as shards in input order.
    /// An existing journal is *kept* — that is the resume path; pass a
    /// fresh directory for a from-scratch sweep.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn create(
        dir: impl Into<PathBuf>,
        runs: Vec<(String, ScenarioConfig)>,
    ) -> io::Result<SweepSession> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let shards = enumerate_shards(runs);
        Ok(SweepSession { dir, shards })
    }

    /// The journal directory.
    pub fn journal_dir(&self) -> &Path {
        &self.dir
    }

    /// The sweep's shards, in enumeration (= merge) order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The segment file worker slot `worker` appends to.
    pub fn segment_path(&self, worker: usize) -> PathBuf {
        self.dir.join(format!("worker-{worker}.jsonl"))
    }

    /// Scans every journal segment and returns the completed runs, keyed
    /// by [`ShardKey`]. Lines that fail to parse (torn tails of a killed
    /// worker) and entries keyed to no current shard (stale configs) are
    /// ignored; duplicate keys keep the first occurrence in sorted
    /// segment-file order.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from reading the journal directory.
    pub fn completed(&self) -> io::Result<DetMap<ShardKey, RunReport>> {
        let mut segments: Vec<PathBuf> = fs::read_dir(&self.dir)?
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "jsonl"))
            .collect();
        segments.sort();
        let mut done: DetMap<ShardKey, RunReport> = DetMap::new();
        for segment in segments {
            let text = fs::read_to_string(&segment)?;
            for line in text.lines() {
                let Some((key, report)) = decode_journal_line(line) else {
                    // A torn or stale line: the shard it would have
                    // journaled simply stays pending and re-runs.
                    continue;
                };
                if done.get(&key).is_none() {
                    done.insert(key, report);
                }
            }
        }
        Ok(done)
    }

    /// Enumeration indices of the shards the journal does not yet cover.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the journal scan.
    pub fn pending(&self) -> io::Result<Vec<usize>> {
        let done = self.completed()?;
        Ok(self
            .shards
            .iter()
            .filter(|s| done.get(&s.key).is_none())
            .map(|s| s.index)
            .collect())
    }

    /// `(journaled, total)` shard counts — the progress a supervisor
    /// polls.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the journal scan.
    pub fn progress(&self) -> io::Result<(usize, usize)> {
        Ok((self.completed()?.len(), self.shards.len()))
    }

    /// Runs this worker slot's share of the pending shards — those with
    /// `index % workers == worker` and no journal entry — serially (one
    /// process per worker slot *is* the parallelism), appending each
    /// completed report to `worker-<worker>.jsonl` and flushing after
    /// every shard. Returns how many shards this call ran.
    ///
    /// `cap` optionally bounds how many shards to run before returning
    /// (used by supervision tests to simulate a worker dying mid-sweep).
    ///
    /// Each shard executes through the [`Runner`] facade, so a sharded
    /// run is the same computation as `Runner::configs(..).run()` — only
    /// checkpointed.
    ///
    /// # Errors
    ///
    /// Propagates journal I/O errors.
    ///
    /// # Panics
    ///
    /// Panics if `worker >= workers` or `workers == 0`, or if a
    /// simulation run itself panics.
    pub fn run_worker(
        &self,
        worker: usize,
        workers: usize,
        cap: Option<usize>,
    ) -> io::Result<usize> {
        assert!(workers >= 1, "need at least one worker slot");
        assert!(
            worker < workers,
            "worker {worker} out of range 0..{workers}"
        );
        let done = self.completed()?;
        let mut file: Option<fs::File> = None;
        let mut ran = 0usize;
        for shard in &self.shards {
            if shard.index % workers != worker || done.get(&shard.key).is_some() {
                continue;
            }
            if cap.is_some_and(|limit| ran >= limit) {
                break;
            }
            let report = Runner::new(shard.config.clone()).run_single();
            let out = match &mut file {
                Some(f) => f,
                None => file.insert(open_segment_for_append(&self.segment_path(worker))?),
            };
            out.write_all(encode_journal_line(shard, &report).as_bytes())?;
            out.flush()?;
            ran += 1;
        }
        Ok(ran)
    }

    /// Merges the journal into the sweep's reports, in shard-enumeration
    /// order — the exact `Vec<RunReport>` an uninterrupted
    /// `Runner::configs(..).run()` over the same enumeration returns.
    ///
    /// # Errors
    ///
    /// [`SessionError::Incomplete`] when shards are missing from the
    /// journal (their indices are listed), or [`SessionError::Io`] on
    /// journal read failures.
    pub fn merged(&self) -> Result<Vec<RunReport>, SessionError> {
        let done = self.completed()?;
        let mut missing = Vec::new();
        let mut reports = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            match done.get(&shard.key) {
                Some(report) => reports.push(report.clone()),
                None => missing.push(shard.index),
            }
        }
        if missing.is_empty() {
            Ok(reports)
        } else {
            Err(SessionError::Incomplete { missing })
        }
    }
}

/// Opens a worker segment for appending, first truncating any torn
/// (newline-less) tail a killed worker left behind. Appending directly
/// after such a tail would fuse the new record onto the half-line,
/// leaving *both* unreadable — the journal would never converge for that
/// shard. Dropping the tail loses nothing: a torn line was never a
/// complete record, and its shard is exactly what the resume re-runs.
pub(crate) fn open_segment_for_append(path: &Path) -> io::Result<fs::File> {
    use std::io::{Read, Seek, SeekFrom};
    let mut file = fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    let keep = bytes
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |pos| pos + 1);
    if keep < bytes.len() {
        file.set_len(keep as u64)?;
    }
    file.seek(SeekFrom::Start(keep as u64))?;
    Ok(file)
}

/// A typical upper bound on the length of a record line.
pub(crate) fn record_len_hint(label: &str, report: &RunReport) -> usize {
    // Braces, keys, the `check` frame, a 0x-hex fingerprint and a seed.
    128 + label.len() + encoded_len_hint(report)
}

/// Appends a record's fields without the braces —
/// `"fingerprint":"0x…","seed":N,"label":"…","report":{…}` — to `out`:
/// the body a journal line wraps in braces and a cache line checksums.
pub(crate) fn push_record_body(out: &mut String, key: ShardKey, label: &str, report: &RunReport) {
    // Writing to a `String` cannot fail.
    let _ = write!(
        out,
        "\"fingerprint\":\"{:#018X}\",\"seed\":{},\"label\":\"",
        key.fingerprint, key.seed
    );
    push_escaped(out, label);
    out.push_str("\",\"report\":");
    push_report(out, report);
}

/// Decodes one record line — a journal line, or a cache line whose
/// checksum matched — in a single pass: the record object's `fingerprint`,
/// `seed`, `label` and `report` fields, in any order, with any other key
/// (the cache's `check`) syntax-checked and skipped.
pub(crate) fn decode_record(line: &str) -> Result<(ShardKey, String, RunReport), String> {
    let mut reader = Reader::new(line);
    let (mut fingerprint, mut seed, mut label, mut report) = (None, None, None, None);
    reader.object(|r, key| match key {
        "fingerprint" => fill(&mut fingerprint, || r.hex(key)),
        "seed" => fill(&mut seed, || r.u64(key)),
        "label" => fill(&mut label, || r.string().map(String::from)),
        "report" => fill(&mut report, || r.report()),
        _ => Ok(false),
    })?;
    reader.end()?;
    let key = ShardKey {
        fingerprint: required(fingerprint, "fingerprint")?,
        seed: required(seed, "seed")?,
    };
    Ok((key, required(label, "label")?, required(report, "report")?))
}

/// Renders one journal line (newline-terminated) for a completed shard.
fn encode_journal_line(shard: &Shard, report: &RunReport) -> String {
    let mut line = String::with_capacity(record_len_hint(&shard.label, report));
    line.push('{');
    push_record_body(&mut line, shard.key, &shard.label, report);
    line.push_str("}\n");
    line
}

/// Parses one journal line; `None` for torn/malformed lines.
fn decode_journal_line(line: &str) -> Option<(ShardKey, RunReport)> {
    let (key, _label, report) = decode_record(line).ok()?;
    Some((key, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use peas_des::time::SimTime;

    fn tiny(seed: u64) -> ScenarioConfig {
        let mut c = ScenarioConfig::small();
        c.node_count = 25;
        c.horizon = SimTime::from_secs(300);
        c.with_seed(seed)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("peas-session-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fingerprint_ignores_seed_but_not_parameters() {
        let a = tiny(1);
        let b = tiny(2);
        assert_eq!(config_fingerprint(&a), config_fingerprint(&b));
        let mut c = tiny(1);
        c.node_count = 26;
        assert_ne!(config_fingerprint(&a), config_fingerprint(&c));
    }

    #[test]
    fn journal_line_round_trips() {
        let shard = Shard {
            index: 0,
            label: "n=25 \"quoted\" seed=1".to_string(),
            config: tiny(1),
            key: ShardKey {
                fingerprint: config_fingerprint(&tiny(1)),
                seed: 1,
            },
        };
        let report = Runner::new(tiny(1)).run_single();
        let line = encode_journal_line(&shard, &report);
        let (key, back) = decode_journal_line(line.trim_end()).expect("decodes");
        assert_eq!(key, shard.key);
        assert_eq!(back, report);
        assert!(
            decode_journal_line(&line[..line.len() / 2]).is_none(),
            "torn line ignored"
        );
    }

    #[test]
    fn worker_skips_journaled_shards_and_merge_orders_positionally() {
        let dir = temp_dir("skip");
        let runs = vec![
            ("s1".to_string(), tiny(1)),
            ("s2".to_string(), tiny(2)),
            ("s3".to_string(), tiny(3)),
        ];
        let session = SweepSession::create(&dir, runs.clone()).expect("create");
        assert_eq!(session.run_worker(0, 1, None).expect("run"), 3);
        // Everything is journaled now; a second pass runs nothing.
        assert_eq!(session.run_worker(0, 1, None).expect("rerun"), 0);
        assert_eq!(session.pending().expect("pending"), Vec::<usize>::new());
        let merged = session.merged().expect("complete");
        let direct = Runner::configs(runs.into_iter().map(|(_, c)| c).collect()).run();
        assert_eq!(merged, direct);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn capped_worker_stops_early_and_resume_completes() {
        let dir = temp_dir("cap");
        let runs: Vec<(String, ScenarioConfig)> =
            (1..=4).map(|s| (format!("s{s}"), tiny(s))).collect();
        let session = SweepSession::create(&dir, runs).expect("create");
        assert_eq!(session.run_worker(0, 2, Some(1)).expect("capped"), 1);
        assert_eq!(session.progress().expect("progress"), (1, 4));
        assert!(matches!(
            session.merged(),
            Err(SessionError::Incomplete { .. })
        ));
        // Resume with a different worker topology: still converges.
        assert_eq!(session.run_worker(0, 1, None).expect("resume"), 3);
        assert!(session.merged().is_ok());
        let _ = fs::remove_dir_all(&dir);
    }
}
