//! The sweep store and executor: [`ResultCache`] + [`SweepPlan`].
//!
//! A sweep is a deterministic list of (config, seed) runs, numbered as
//! *shards* ([`enumerate_shards`]) and keyed by **config fingerprint +
//! seed** ([`ShardKey`]). A completed run is a fact about its
//! configuration, not about the sweep that produced it, so one
//! long-lived store serves every sweep: a sweep is expanded to a
//! [`SweepPlan`], every shard is looked up in the cache, and only the
//! **novel** keys are executed ([`ResultCache::execute`]). A re-submitted
//! sweep runs zero shards, an overlapping sweep runs only its new grid
//! points, and an interrupted sweep resumes by running again.
//! Deterministic replay is what makes this sound: a cache hit is
//! byte-identical to a cold re-run of the same shard (pinned by
//! `crates/sim/tests/cache_equiv.rs`).
//!
//! ## Record format
//!
//! The store is a directory of append-only `cache-<writer>.jsonl`
//! segments, one per writer thread (DESIGN.md §7). Every record is a
//! schema-1 report ([`crate::report_json`]) under its key, prefixed with
//! a checksum of its own body, so *any* corruption — a flipped bit, a
//! changed digit, a truncated write, a fused line — is detected instead
//! of served:
//!
//! ```text
//! {"check":"0x…","fingerprint":"0x…","seed":N,"label":"…","report":{"schema":1,…}}
//! ```
//!
//! `check` is FNV-1a over the raw bytes between `"check":"…",` and the
//! closing `}` — exactly the bytes that carry the record's meaning. A
//! torn tail fails to *parse*; the checksum also rejects records that
//! still parse but no longer mean what was written.
//!
//! Writers append and flush one record per shard, so a writer killed at
//! any moment leaves at most one torn final line in its segment. Before
//! its first append a writer truncates that torn tail (the
//! append-after-tear rule, [`ResultCache::writer`]), so a fresh record
//! never fuses with a half-line.
//!
//! ## Quarantine
//!
//! [`ResultCache::scan`] classifies every damaged line: a newline-less
//! final line is a **torn tail** (the expected artifact of a killed
//! writer — silently dropped), while any other unreadable or
//! checksum-mismatched record is **quarantined**: logged once to
//! `quarantine.jsonl` (with its segment, line number, reason and a hash
//! of the raw bytes) and excluded from the scan. Either way the affected
//! shard simply stops being cached and re-runs; the store never serves
//! garbage. Corruption handling is pinned by the proptests in
//! `crates/sim/tests/cache_store.rs`.

use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use peas_des::par::for_each_claimed;
use peas_des::{fnv1a, DetMap, DetSet};

use crate::config::ScenarioConfig;
use crate::metrics::RunReport;
use crate::report_json::{
    encoded_len_hint, fill, json_escape, parse_hex, parse_json, push_escaped, push_report,
    required, Json, Reader,
};
use crate::world::World;

/// The content address of a sweep run: the fingerprint of its config
/// (seed excluded) plus the seed. Two shards with equal keys are the same
/// deterministic run and share one cache record.
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
    /// Human-readable label (carried into the record for debuggability).
    pub label: String,
    /// The fully-resolved configuration.
    pub config: ScenarioConfig,
    /// The content address.
    pub key: ShardKey,
}

/// A stable fingerprint of a scenario config **excluding its seed** (the
/// seed is tracked separately in the [`ShardKey`]). Computed as FNV-1a
/// over the config's canonical debug rendering, so any parameter change —
/// field size, ranges, rates, horizon — yields a new fingerprint and
/// stale records simply stop matching (their shards re-run).
pub fn config_fingerprint(config: &ScenarioConfig) -> u64 {
    let canonical = format!("{:?}", config.clone().with_seed(0));
    fnv1a(canonical.as_bytes())
}

/// Enumerates `(label, config)` runs as [`Shard`]s in input order — the
/// one shard-numbering rule behind every [`SweepPlan`].
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

/// Why a plan could not be merged.
#[derive(Debug)]
pub enum SessionError {
    /// Shards are still missing from the cache (their enumeration
    /// indices, in order).
    Incomplete {
        /// Enumeration indices of the shards not yet cached.
        missing: Vec<usize>,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Incomplete { missing } => write!(
                f,
                "sweep incomplete: {} shard(s) not cached (indices {missing:?})",
                missing.len()
            ),
        }
    }
}

/// The leading frame of every cache record: `{"check":"0x` + 16 hex
/// digits + `",` + body + `}`.
const CHECK_PREFIX: &str = "{\"check\":\"0x";
/// Hex digits in the checksum field (`{:#018X}` minus the `0x` prefix).
const CHECK_HEX_LEN: usize = 16;

/// A typical upper bound on the length of a record line.
fn record_len_hint(label: &str, report: &RunReport) -> usize {
    // Braces, keys, the `check` frame, a 0x-hex fingerprint and a seed.
    128 + label.len() + encoded_len_hint(report)
}

/// Appends a record's fields without the braces —
/// `"fingerprint":"0x…","seed":N,"label":"…","report":{…}` — to `out`:
/// the body a cache line checksums.
fn push_record_body(out: &mut String, key: ShardKey, label: &str, report: &RunReport) {
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

/// Decodes one checksum-verified record line in a single pass: the
/// record object's `fingerprint`, `seed`, `label` and `report` fields, in
/// any order, with any other key (the `check` frame) syntax-checked and
/// skipped.
fn decode_record(line: &str) -> Result<(ShardKey, String, RunReport), String> {
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

/// Renders one cache record (newline-terminated): the schema-1 record
/// body prefixed with a checksum over the body's exact bytes.
pub fn encode_cache_line(key: ShardKey, label: &str, report: &RunReport) -> String {
    let digits = CHECK_PREFIX.len()..CHECK_PREFIX.len() + CHECK_HEX_LEN;
    let mut line = String::with_capacity(record_len_hint(label, report));
    line.push_str(CHECK_PREFIX);
    // Placeholder digits, overwritten once the body they cover is written.
    line.extend(std::iter::repeat_n('0', CHECK_HEX_LEN));
    line.push_str("\",");
    let body_start = line.len();
    push_record_body(&mut line, key, label, report);
    let check = fnv1a(&line.as_bytes()[body_start..]);
    line.replace_range(digits, &format!("{check:016X}"));
    line.push_str("}\n");
    line
}

/// The outcome of decoding one cache line.
#[derive(Debug)]
pub enum CacheRecord {
    /// A verified record: checksum and schema both check out.
    Entry {
        /// The record's content address.
        key: ShardKey,
        /// The human-readable label carried at append time.
        label: String,
        /// The cached report (boxed: a report is ~300 bytes of inline
        /// fields, a damage reason is one `String`).
        report: Box<RunReport>,
    },
    /// The line is unreadable or fails its checksum; the reason is a
    /// stable human-readable message (logged to the quarantine file).
    Damaged {
        /// Why the record was rejected.
        reason: String,
    },
}

fn damaged(reason: impl Into<String>) -> CacheRecord {
    CacheRecord::Damaged {
        reason: reason.into(),
    }
}

/// Decodes one cache line, verifying the checksum over the body's raw
/// bytes before trusting any field. Never panics on arbitrary input —
/// any malformation comes back as [`CacheRecord::Damaged`].
pub fn decode_cache_line(line: &str) -> CacheRecord {
    let Some(rest) = line.strip_prefix(CHECK_PREFIX) else {
        return damaged("missing checksum frame");
    };
    let (Some(hex), Some(after_hex)) = (rest.get(..CHECK_HEX_LEN), rest.get(CHECK_HEX_LEN..))
    else {
        return damaged("truncated checksum frame");
    };
    let Some(check) = parse_hex(hex) else {
        return damaged("malformed checksum hex");
    };
    let Some(with_brace) = after_hex.strip_prefix("\",") else {
        return damaged("missing body separator");
    };
    let Some(body) = with_brace.strip_suffix('}') else {
        return damaged("missing closing brace");
    };
    let got = fnv1a(body.as_bytes());
    if got != check {
        return damaged(format!(
            "checksum mismatch: recorded {check:#018X}, computed {got:#018X}"
        ));
    }
    // The checksum matched, so the body is exactly what a writer
    // flushed; read the whole line in place (the `check` field is one
    // more key the record reader skips).
    match decode_record(line) {
        Ok((key, label, report)) => CacheRecord::Entry {
            key,
            label,
            report: Box::new(report),
        },
        Err(e) => damaged(format!("checksummed record fails to decode: {e}")),
    }
}

/// A point-in-time view of the whole store: every verified entry plus
/// the damage accounting of the scan that produced it.
#[derive(Debug)]
pub struct CacheScan {
    /// Every verified record, keyed by content address (first valid
    /// occurrence in sorted-segment order wins; runs are deterministic,
    /// so duplicates are byte-identical anyway).
    pub entries: DetMap<ShardKey, RunReport>,
    /// Segment files scanned.
    pub segments: usize,
    /// Verified records seen (including key duplicates).
    pub records: usize,
    /// Damaged interior records quarantined (this scan's count, whether
    /// or not they were already in the quarantine log).
    pub quarantined: usize,
    /// Newline-less torn tails skipped (killed-writer artifacts; not
    /// quarantined).
    pub torn: usize,
}

impl Default for CacheScan {
    fn default() -> CacheScan {
        CacheScan {
            entries: DetMap::new(),
            segments: 0,
            records: 0,
            quarantined: 0,
            torn: 0,
        }
    }
}

impl CacheScan {
    /// Looks up the cached report for `key`.
    pub fn get(&self, key: &ShardKey) -> Option<&RunReport> {
        self.entries.get(key)
    }

    /// Number of distinct cached keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the store holds no verified entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A directory-backed content-addressed store of completed
/// `ShardKey → RunReport` entries. See the module docs for the record
/// format and damage rules.
///
/// Writer slots number threads, not processes: two processes writing one
/// directory would both append to `cache-0.jsonl` and could interleave
/// bytes. One process writes a cache directory at a time; any number may
/// read it.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Opens (creating if needed) the cache directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ResultCache> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ResultCache { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The segment file writer slot `writer` appends to.
    pub fn segment_path(&self, writer: usize) -> PathBuf {
        self.dir.join(format!("cache-{writer}.jsonl"))
    }

    /// The quarantine log (damaged records, one JSON line each).
    pub fn quarantine_path(&self) -> PathBuf {
        self.dir.join("quarantine.jsonl")
    }

    /// Opens an append handle for writer slot `writer`, truncating any
    /// torn tail first (the append-after-tear rule).
    ///
    /// # Errors
    ///
    /// Propagates segment open/seek failures.
    pub fn writer(&self, writer: usize) -> io::Result<CacheWriter> {
        Ok(CacheWriter {
            file: open_segment_for_append(&self.segment_path(writer))?,
        })
    }

    /// Scans every segment, verifying each record's checksum, and
    /// returns the store's verified contents. Damaged interior records
    /// are appended to the quarantine log (once per distinct raw line);
    /// torn tails are skipped silently.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from reading segments or appending to the
    /// quarantine log.
    pub fn scan(&self) -> io::Result<CacheScan> {
        let mut segments: Vec<PathBuf> = fs::read_dir(&self.dir)?
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .filter(|p| {
                p.extension().is_some_and(|ext| ext == "jsonl")
                    && p.file_name()
                        .is_some_and(|n| n.to_string_lossy().starts_with("cache-"))
            })
            .collect();
        segments.sort();

        let mut scan = CacheScan {
            segments: segments.len(),
            ..CacheScan::default()
        };
        let mut logged = self.quarantined_hashes()?;
        let mut quarantine: Option<fs::File> = None;
        for segment in &segments {
            // Read raw bytes, not a String: corruption can produce
            // invalid UTF-8, and one rotten record must not make the
            // whole store unreadable. Each line is converted lossily;
            // any replacement character changes the body's bytes, so
            // the checksum rejects it like any other damage.
            let bytes = fs::read(segment)?;
            if bytes.is_empty() {
                continue;
            }
            let ends_clean = bytes.last() == Some(&b'\n');
            let mut raw_lines: Vec<&[u8]> = bytes.split(|b| *b == b'\n').collect();
            if ends_clean {
                raw_lines.pop();
            }
            let lines = raw_lines;
            for (lineno, raw) in lines.iter().enumerate() {
                let line: &str = &String::from_utf8_lossy(raw);
                match decode_cache_line(line) {
                    CacheRecord::Entry { key, report, .. } => {
                        scan.records += 1;
                        if scan.entries.get(&key).is_none() {
                            scan.entries.insert(key, *report);
                        }
                    }
                    CacheRecord::Damaged { reason } => {
                        let is_torn_tail = lineno + 1 == lines.len() && !ends_clean;
                        if is_torn_tail {
                            scan.torn += 1;
                            continue;
                        }
                        scan.quarantined += 1;
                        let raw_hash = fnv1a(raw);
                        if logged.insert(raw_hash) {
                            let out = match &mut quarantine {
                                Some(f) => f,
                                None => quarantine
                                    .insert(open_segment_for_append(&self.quarantine_path())?),
                            };
                            let name = segment
                                .file_name()
                                .map(|n| n.to_string_lossy().into_owned())
                                .unwrap_or_default();
                            writeln!(
                                out,
                                "{{\"segment\":\"{}\",\"line\":{},\"reason\":\"{}\",\
                                 \"raw_hash\":\"{raw_hash:#018X}\",\"raw\":\"{}\"}}",
                                json_escape(&name),
                                lineno + 1,
                                json_escape(&reason),
                                json_escape(line)
                            )?;
                            out.flush()?;
                        }
                    }
                }
            }
        }
        Ok(scan)
    }

    /// Raw-line hashes already present in the quarantine log (so a
    /// damaged record is logged once, not once per scan).
    fn quarantined_hashes(&self) -> io::Result<DetSet<u64>> {
        let mut hashes = DetSet::new();
        let text = match fs::read_to_string(self.quarantine_path()) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(hashes),
            Err(e) => return Err(e),
        };
        for line in text.lines() {
            if let Ok(value) = parse_json(line) {
                if let Some(Json::Str(hex)) = value.get("raw_hash") {
                    if let Some(h) = hex.strip_prefix("0x").and_then(parse_hex) {
                        hashes.insert(h);
                    }
                }
            }
        }
        Ok(hashes)
    }

    /// Executes `shards` on [`peas_des::par`]'s pool of at most `workers`
    /// workers, each appending verified records to its own segment
    /// (writer slot = worker index, the segment opened at the worker's
    /// first append) and flushing after every shard — a SIGKILL at any
    /// moment leaves at most one torn tail per writer. Workers pull the
    /// next un-started shard from a shared counter. Returns the number
    /// of shards executed (always `shards.len()` on success).
    ///
    /// The caller decides *which* shards to run — typically
    /// [`SweepPlan::novel`] — so this function is also the fault-
    /// injection point: passing a prefix of the novel list and then
    /// killing the process models a service dying mid-sweep.
    ///
    /// # Errors
    ///
    /// The first failure to open or append to a segment, in worker
    /// order. A worker that fails stops claiming shards; the others
    /// finish theirs.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is 0, or if a simulation run itself panics.
    pub fn execute(&self, shards: &[Shard], workers: usize) -> io::Result<usize> {
        assert!(workers >= 1, "need at least one worker thread");
        let outcomes: Vec<io::Result<()>> =
            for_each_claimed(shards.len(), workers, |worker, claims| {
                let mut writer: Option<CacheWriter> = None;
                for shard in claims.map(|i| &shards[i]) {
                    let report = World::new(shard.config.clone()).run();
                    let out = match &mut writer {
                        Some(w) => w,
                        None => writer.insert(self.writer(worker)?),
                    };
                    out.append(shard.key, &shard.label, &report)?;
                }
                Ok(())
            });
        outcomes.into_iter().collect::<io::Result<()>>()?;
        Ok(shards.len())
    }
}

/// An append handle to one cache segment. Dropping it is always safe:
/// every append flushes, so the worst crash artifact is one torn tail.
#[derive(Debug)]
pub struct CacheWriter {
    file: fs::File,
}

impl CacheWriter {
    /// Appends one verified record and flushes.
    ///
    /// # Errors
    ///
    /// Propagates write/flush failures.
    pub fn append(&mut self, key: ShardKey, label: &str, report: &RunReport) -> io::Result<()> {
        self.file
            .write_all(encode_cache_line(key, label, report).as_bytes())?;
        self.file.flush()
    }
}

/// Opens a segment for appending, first truncating any torn
/// (newline-less) tail a killed writer left behind. Appending directly
/// after such a tail would fuse the new record onto the half-line,
/// leaving *both* unreadable — the store would never converge for that
/// shard. Dropping the tail loses nothing: a torn line was never a
/// complete record, and its shard is exactly what the resume re-runs.
fn open_segment_for_append(path: &Path) -> io::Result<fs::File> {
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

/// A sweep expanded against the cache: the full shard enumeration of a
/// submission, with cache-aware views (novel shards, merged reports).
#[derive(Clone, Debug)]
pub struct SweepPlan {
    shards: Vec<Shard>,
}

impl SweepPlan {
    /// Enumerates `(label, config)` runs as shards in input order.
    pub fn new(runs: Vec<(String, ScenarioConfig)>) -> SweepPlan {
        SweepPlan {
            shards: enumerate_shards(runs),
        }
    }

    /// The plan's shards, in enumeration (= merge) order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Number of shards in the plan.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True for an empty plan.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The shards `scan` cannot serve, deduplicated by key (first
    /// occurrence wins), in enumeration order — exactly the set a
    /// scheduler must execute to complete this plan. A plan fully
    /// covered by the cache returns an empty list: re-submitting an
    /// already-completed sweep runs zero shards.
    pub fn novel(&self, scan: &CacheScan) -> Vec<Shard> {
        let mut seen: DetSet<ShardKey> = DetSet::new();
        self.shards
            .iter()
            .filter(|shard| scan.get(&shard.key).is_none() && seen.insert(shard.key))
            .cloned()
            .collect()
    }

    /// Shards `scan` can already serve (the dedup hits), counted over
    /// the full enumeration (a key cached once satisfies every shard
    /// that carries it).
    pub fn cached(&self, scan: &CacheScan) -> usize {
        self.shards
            .iter()
            .filter(|shard| scan.get(&shard.key).is_some())
            .count()
    }

    /// Merges the cache into this plan's reports, in shard-enumeration
    /// order — the exact `Vec<RunReport>` that [`crate::run_all`] over
    /// the same enumeration's configs returns.
    ///
    /// # Errors
    ///
    /// [`SessionError::Incomplete`] when keys are missing from the scan
    /// (their enumeration indices are listed).
    pub fn merged(&self, scan: &CacheScan) -> Result<Vec<RunReport>, SessionError> {
        let mut missing = Vec::new();
        let mut reports = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            match scan.get(&shard.key) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report_json::encode_report;
    use peas_des::time::SimTime;

    fn tiny(seed: u64) -> ScenarioConfig {
        let mut c = ScenarioConfig::small();
        c.node_count = 25;
        c.horizon = SimTime::from_secs(300);
        c.with_seed(seed)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("peas-cache-{tag}-{}", std::process::id()));
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
    fn cache_line_round_trips_and_rejects_any_flip() {
        let report = World::new(tiny(1)).run();
        let key = ShardKey {
            fingerprint: 0xDEAD_BEEF_0123_4567,
            seed: 1,
        };
        let line = encode_cache_line(key, "n=25 \"quoted\"", &report);
        let trimmed = line.trim_end();
        match decode_cache_line(trimmed) {
            CacheRecord::Entry {
                key: k,
                label,
                report: back,
            } => {
                assert_eq!(k, key);
                assert_eq!(label, "n=25 \"quoted\"");
                assert_eq!(*back, report);
            }
            CacheRecord::Damaged { reason } => panic!("pristine line rejected: {reason}"),
        }
        // Flip one bit somewhere in the middle of the body: must be
        // detected by the checksum, not decoded into a wrong report.
        let mut bytes = trimmed.as_bytes().to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let corrupted = String::from_utf8_lossy(&bytes).into_owned();
        assert!(
            matches!(decode_cache_line(&corrupted), CacheRecord::Damaged { .. }),
            "flipped record must be rejected"
        );
        // Truncations at any point are rejected too.
        for cut in [1, CHECK_PREFIX.len() + 4, trimmed.len() / 2] {
            assert!(matches!(
                decode_cache_line(&trimmed[..cut]),
                CacheRecord::Damaged { .. }
            ));
        }
        // A `+` over a checksum's leading `0` leaves a value that a signed
        // hex parse reads back unchanged: the frame must still reject it.
        // Vary the label until the checksum has a leading zero digit.
        let zero_led = (0..)
            .map(|k| encode_cache_line(key, &format!("n=25 #{k}"), &report))
            .find(|line| line[CHECK_PREFIX.len()..].starts_with('0'))
            .expect("one checksum in sixteen starts with 0");
        let mut forged = zero_led.trim_end().to_string();
        assert!(matches!(
            decode_cache_line(&forged),
            CacheRecord::Entry { .. }
        ));
        forged.replace_range(CHECK_PREFIX.len()..=CHECK_PREFIX.len(), "+");
        assert!(
            matches!(decode_cache_line(&forged), CacheRecord::Damaged { .. }),
            "a signed checksum must be rejected: {:.40}",
            forged
        );
    }

    #[test]
    fn plan_dedups_and_merges_against_the_store() {
        let dir = temp_dir("plan");
        let cache = ResultCache::open(&dir).expect("open");
        let plan = SweepPlan::new(vec![
            ("s1".to_string(), tiny(1)),
            ("s2".to_string(), tiny(2)),
            // An exact duplicate of shard 0: same key, must not run twice.
            ("s1-dup".to_string(), tiny(1)),
        ]);
        let scan = cache.scan().expect("scan empty");
        assert!(scan.is_empty());
        let novel = plan.novel(&scan);
        assert_eq!(novel.len(), 2, "duplicate key deduped within the plan");
        assert_eq!(cache.execute(&novel, 2).expect("execute"), 2);

        let scan = cache.scan().expect("rescan");
        assert_eq!(scan.len(), 2);
        assert_eq!(plan.cached(&scan), 3);
        assert!(plan.novel(&scan).is_empty(), "resubmission runs nothing");
        let merged = plan.merged(&scan).expect("complete");
        assert_eq!(merged.len(), 3);
        assert_eq!(
            encode_report(&merged[0]),
            encode_report(&merged[2]),
            "duplicate shards share one cached report"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_skipped_but_interior_damage_is_quarantined() {
        let dir = temp_dir("damage");
        let cache = ResultCache::open(&dir).expect("open");
        let plan = SweepPlan::new(vec![
            ("s1".to_string(), tiny(1)),
            ("s2".to_string(), tiny(2)),
        ]);
        let scan = cache.scan().expect("scan");
        cache.execute(&plan.novel(&scan), 1).expect("execute");

        // Corrupt record 1 (interior) and tear record 2 (tail).
        let segment = cache.segment_path(0);
        let text = fs::read_to_string(&segment).expect("read segment");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let mut first = lines[0].to_string();
        // Swap a digit inside the first record's body.
        let flip = first.len() - 10;
        first.replace_range(flip..=flip, "~");
        let torn = &lines[1][..lines[1].len() / 2];
        fs::write(&segment, format!("{first}\n{torn}")).expect("rewrite");

        let scan = cache.scan().expect("scan damaged");
        assert_eq!(scan.len(), 0, "neither record is served");
        assert_eq!(scan.quarantined, 1, "interior damage quarantined");
        assert_eq!(scan.torn, 1, "torn tail skipped silently");
        let qlog = fs::read_to_string(cache.quarantine_path()).expect("quarantine log");
        assert_eq!(qlog.lines().count(), 1);
        assert!(qlog.contains("checksum mismatch") || qlog.contains("missing"));

        // A rescan does not double-log the same damaged line.
        let again = cache.scan().expect("rescan");
        assert_eq!(again.quarantined, 1);
        assert_eq!(
            fs::read_to_string(cache.quarantine_path())
                .expect("quarantine log")
                .lines()
                .count(),
            1
        );

        // Both shards re-run (the torn append truncates the tail first)
        // and the store converges to a fully-served plan.
        let novel = plan.novel(&again);
        assert_eq!(novel.len(), 2);
        cache.execute(&novel, 1).expect("re-execute");
        let scan = cache.scan().expect("final scan");
        assert!(plan.novel(&scan).is_empty());
        assert!(plan.merged(&scan).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }
}
