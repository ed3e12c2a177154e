//! The versioned, stable serialized form of a [`RunReport`]
//! (`schema = 1`), shared by the result cache ([`crate::cache`]) and the
//! `peas-bench` drivers.
//!
//! The encoding is one JSON object per report with a pinned key set and
//! key order (see the contract test in `crates/sim/tests/report_schema.rs`
//! — renaming or reordering a field is a schema break and must bump
//! [`REPORT_SCHEMA`]). Floating-point values are rendered with Rust's
//! shortest-round-trip formatting, so `decode(encode(r)) == r` is exact
//! down to the last bit — the property the resume path's "byte-identical
//! merged report" guarantee rests on.
//!
//! Neither direction builds an intermediate value. [`encode_report`]
//! writes every field straight into one `String`; [`decode_report`] is a
//! pull reader (`Reader`) that walks the text once into the
//! [`RunReport`], with borrowed keys and numbers parsed from slices of the
//! source. The same reader lexes [`parse_json`]'s dependency-free [`Json`]
//! tree for the small documents (jobs, the quarantine log, `perf`'s
//! tables) that want one, so the two accept exactly the same syntax.
//! Numbers stay raw text until a typed read asks for `u64`/`f64`, so
//! integers never round-trip through floating point.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

use peas::NodeStats;
use peas_radio::{EnergyCause, EnergyLedger, MediumStats};

use crate::metrics::{RunReport, Sample};

/// Version tag embedded in every encoded report (`"schema": 1`). Bump on
/// any change to field names, order or meaning; [`decode_report`] rejects
/// mismatching versions.
pub const REPORT_SCHEMA: u64 = 1;

/// The `(cause, json key)` pairs of the energy ledger object, in encoding
/// order.
const LEDGER_KEYS: [(EnergyCause, &str); 7] = [
    (EnergyCause::ProtocolTx, "protocol_tx"),
    (EnergyCause::ProtocolRx, "protocol_rx"),
    (EnergyCause::ProtocolIdle, "protocol_idle"),
    (EnergyCause::AppTx, "app_tx"),
    (EnergyCause::AppRx, "app_rx"),
    (EnergyCause::WorkingIdle, "working_idle"),
    (EnergyCause::Sleep, "sleep"),
];

/// The `node_stats` object's keys, in encoding order.
const NODE_STATS_KEYS: [&str; 10] = [
    "wakeups",
    "probes_sent",
    "replies_sent",
    "probes_heard",
    "replies_heard",
    "measurements",
    "window_with_reply",
    "window_silent",
    "turnoffs",
    "replies_overheard",
];

/// The `medium` object's keys, in encoding order.
const MEDIUM_KEYS: [&str; 4] = [
    "frames_sent",
    "deliveries_ok",
    "collisions",
    "random_losses",
];

/// Encoded bytes of a report outside its samples, of one sample outside
/// its coverage values, and of one coverage value: a little above what
/// paper runs write (159 bytes per five-value sample), so
/// [`encode_report`] writes a report into a single allocation.
const REPORT_BYTES: usize = 1024;
const SAMPLE_BYTES: usize = 128;
const COVERAGE_BYTES: usize = 12;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Escapes `s` as the *contents* of a JSON string literal (no surrounding
/// quotes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// Appends `s` to `out` escaped as the contents of a JSON string literal.
pub(crate) fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            // Writing to a `String` cannot fail.
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
}

/// A float rendered in the shortest form that parses back to the
/// identical bits (Rust's `{:?}` float formatting).
///
/// Formatting panics if the value is NaN or infinite — reports only ever
/// hold finite values, and JSON has no encoding for the rest.
struct Float(f64);

impl fmt::Display for Float {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        assert!(
            self.0.is_finite(),
            "cannot encode non-finite float {}",
            self.0
        );
        fmt::Debug::fmt(&self.0, f)
    }
}

fn write_sample(out: &mut String, s: &Sample) -> fmt::Result {
    write!(out, "{{\"t_secs\":{},\"coverage\":[", Float(s.t_secs))?;
    for (i, &c) in s.coverage.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{}", Float(c))?;
    }
    write!(
        out,
        "],\"working\":{},\"sleeping\":{},\"alive\":{},\"delivery_ratio\":",
        s.working, s.sleeping, s.alive
    )?;
    match s.delivery_ratio {
        Some(r) => write!(out, "{}", Float(r))?,
        None => out.push_str("null"),
    }
    write!(out, ",\"total_wakeups\":{}}}", s.total_wakeups)
}

/// Writes `{"k0":v0,…}` for parallel keys and values.
fn write_object<T: fmt::Display>(
    out: &mut String,
    keys: &[&str],
    values: impl IntoIterator<Item = T>,
) -> fmt::Result {
    out.push('{');
    for (i, (key, value)) in keys.iter().zip(values).enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "\"{key}\":{value}")?;
    }
    out.push('}');
    Ok(())
}

fn write_report(out: &mut String, r: &RunReport) -> fmt::Result {
    write!(
        out,
        "{{\"schema\":{REPORT_SCHEMA},\"node_count\":{},\"seed\":{},\"samples\":[",
        r.node_count, r.seed
    )?;
    for (i, s) in r.samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_sample(out, s)?;
    }
    let n = &r.node_stats;
    out.push_str("],\"node_stats\":");
    write_object(
        out,
        &NODE_STATS_KEYS,
        [
            n.wakeups,
            n.probes_sent,
            n.replies_sent,
            n.probes_heard,
            n.replies_heard,
            n.measurements,
            n.window_with_reply,
            n.window_silent,
            n.turnoffs,
            n.replies_overheard,
        ],
    )?;
    out.push_str(",\"ledger_j\":");
    write_object(
        out,
        &LEDGER_KEYS.map(|(_, key)| key),
        LEDGER_KEYS.map(|(cause, _)| Float(r.ledger.for_cause(cause))),
    )?;
    write!(out, ",\"consumed_j\":{},\"medium\":", Float(r.consumed_j))?;
    let m = &r.medium;
    write_object(
        out,
        &MEDIUM_KEYS,
        [
            m.frames_sent,
            m.deliveries_ok,
            m.collisions,
            m.random_losses,
        ],
    )?;
    write!(
        out,
        ",\"failures_injected\":{},\"energy_deaths\":{},\"generated_reports\":{},\
         \"delivered_reports\":{},\"events_total\":{},\"events_detected\":{},\
         \"events_delivered\":{},\"end_secs\":{},\"events_processed\":{}}}",
        r.failures_injected,
        r.energy_deaths,
        r.generated_reports,
        r.delivered_reports,
        r.events_total,
        r.events_detected,
        r.events_delivered,
        Float(r.end_secs),
        r.events_processed
    )
}

/// A typical upper bound on `report`'s encoded length (see
/// [`REPORT_BYTES`]).
pub(crate) fn encoded_len_hint(report: &RunReport) -> usize {
    let coverage = report.samples.first().map_or(0, |s| s.coverage.len());
    REPORT_BYTES + report.samples.len() * (SAMPLE_BYTES + coverage * COVERAGE_BYTES)
}

/// Appends `report`'s schema-1 form to `out` (see [`encode_report`]).
///
/// # Panics
///
/// Panics if the report holds a non-finite float.
pub(crate) fn push_report(out: &mut String, report: &RunReport) {
    // Writing to a `String` cannot fail; only `Float` can stop the write,
    // and it panics rather than returning an error.
    let _ = write_report(out, report);
}

/// Encodes a report in its canonical schema-1 form: a single-line JSON
/// object with a pinned key order. Two equal reports encode to identical
/// bytes, and `decode_report(encode_report(r))` reproduces `r` exactly.
///
/// # Panics
///
/// Panics if the report holds a non-finite float (cannot happen for
/// reports produced by [`crate::World::run`]).
pub fn encode_report(report: &RunReport) -> String {
    let mut out = String::with_capacity(encoded_len_hint(report));
    push_report(&mut out, report);
    out
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// Parses `digits` as a hexadecimal `u64`: one or more ASCII hex digits
/// and nothing else. `u64::from_str_radix` also accepts a leading `+`, so
/// a `+` written over a checksum's leading `0` would still parse to the
/// checksum's value; every hex field in this crate reads through here.
pub(crate) fn parse_hex(digits: &str) -> Option<u64> {
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(digits, 16).ok()
}

/// Stores `read()` in `slot` unless an earlier occurrence of the key
/// already filled it: the first occurrence wins, and `false` tells
/// [`Reader::object`] to syntax-check and skip the repeat.
pub(crate) fn fill<T>(
    slot: &mut Option<T>,
    read: impl FnOnce() -> Result<T, String>,
) -> Result<bool, String> {
    if slot.is_none() {
        *slot = Some(read()?);
        Ok(true)
    } else {
        Ok(false)
    }
}

/// `slot`'s value, or a "missing field" error naming `key`.
pub(crate) fn required<T>(slot: Option<T>, key: &str) -> Result<T, String> {
    slot.ok_or_else(|| format!("missing field `{key}`"))
}

/// How deeply objects and arrays may nest. The reader recurses once per
/// level, so without a cap a long enough run of `[` in a spool submission
/// would overflow the stack and abort the process; the deepest document
/// this crate reads, a cache line, nests 5 levels.
const MAX_DEPTH: usize = 64;

/// A pull reader over one JSON text: each call consumes one token or
/// value at the cursor, so a typed decoder walks the text once and builds
/// nothing it does not keep.
pub(crate) struct Reader<'a> {
    src: &'a str,
    pos: usize,
    /// Objects and arrays open at the cursor.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `src`.
    pub(crate) fn new(src: &'a str) -> Reader<'a> {
        Reader {
            src,
            pos: 0,
            depth: 0,
        }
    }

    /// Consumes the `open` byte of an object or array, one level deeper.
    fn open(&mut self, open: u8) -> Result<(), String> {
        self.expect_byte(open)?;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        Ok(())
    }

    /// The byte at the cursor after skipping whitespace.
    fn peek(&mut self) -> Option<u8> {
        let bytes = self.src.as_bytes();
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(self.pos) {
            self.pos += 1;
        }
        bytes.get(self.pos).copied()
    }

    /// Consumes `want` (after whitespace) if it is next.
    fn eat(&mut self, want: u8) -> bool {
        let hit = self.peek() == Some(want);
        self.pos += usize::from(hit);
        hit
    }

    fn expect_byte(&mut self, want: u8) -> Result<(), String> {
        if self.eat(want) {
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", want as char, self.pos))
        }
    }

    /// Checks that only whitespace remains.
    pub(crate) fn end(mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(format!("trailing garbage at byte {}", self.pos)),
        }
    }

    /// Reads an object, handing each key to `field` with the cursor on its
    /// value. `field` reads the value and returns `true`, or returns
    /// `false` to have it syntax-checked and skipped (unknown keys, and
    /// repeats of known ones).
    pub(crate) fn object(
        &mut self,
        mut field: impl FnMut(&mut Reader<'a>, &str) -> Result<bool, String>,
    ) -> Result<(), String> {
        self.open(b'{')?;
        if !self.eat(b'}') {
            loop {
                let key = self.string()?;
                self.expect_byte(b':')?;
                if !field(self, &key)? {
                    self.value()?;
                }
                if self.eat(b'}') {
                    break;
                }
                if !self.eat(b',') {
                    return Err(format!("expected `,` or `}}` at byte {}", self.pos));
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Reads an array, calling `item` with the cursor on each element.
    fn array(
        &mut self,
        mut item: impl FnMut(&mut Reader<'a>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.open(b'[')?;
        if !self.eat(b']') {
            loop {
                item(self)?;
                if self.eat(b']') {
                    break;
                }
                if !self.eat(b',') {
                    return Err(format!("expected `,` or `]` at byte {}", self.pos));
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Reads a string, borrowed from the source unless it holds escapes.
    pub(crate) fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect_byte(b'"')?;
        let src = self.src;
        let bytes = src.as_bytes();
        let start = self.pos;
        // `"` and `\` are ASCII, so a byte scan never splits a character.
        let Some(stop) = bytes[start..].iter().position(|&b| b == b'"' || b == b'\\') else {
            return Err("unterminated string".to_string());
        };
        self.pos = start + stop;
        if bytes[self.pos] == b'"' {
            self.pos += 1;
            return Ok(Cow::Borrowed(&src[start..self.pos - 1]));
        }
        let mut out = src[start..self.pos].to_string();
        loop {
            let Some(&b) = bytes.get(self.pos) else {
                return Err("unterminated string".to_string());
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                b'\\' => {
                    let Some(&esc) = bytes.get(self.pos + 1) else {
                        return Err("unterminated escape".to_string());
                    };
                    self.pos += 2;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = src
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = parse_hex(hex)
                                .and_then(|c| u32::try_from(c).ok())
                                .ok_or_else(|| format!("bad \\u escape `{hex}`"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid code point {code}"))?,
                            );
                        }
                        other => return Err(format!("unknown escape `\\{}`", other as char)),
                    }
                }
                _ => {
                    // Consume one full UTF-8 scalar, not one byte.
                    let c = src[self.pos..]
                        .chars()
                        .next()
                        .ok_or_else(|| "invalid UTF-8".to_string())?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Reads a number token as its raw source text.
    fn number(&mut self) -> Result<&'a str, String> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(format!("expected a number at byte {}", self.pos));
        }
        let bytes = self.src.as_bytes();
        let start = self.pos;
        self.pos += 1;
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = bytes.get(self.pos) {
            self.pos += 1;
        }
        Ok(&self.src[start..self.pos])
    }

    /// Consumes the keyword `word` (the cursor is on its first byte).
    fn keyword(&mut self, word: &str) -> Result<(), String> {
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("malformed keyword at byte {}", self.pos))
        }
    }

    /// Reads `key`'s value as a `u64`.
    pub(crate) fn u64(&mut self, key: &str) -> Result<u64, String> {
        let raw = self.number().map_err(|e| format!("field `{key}`: {e}"))?;
        raw.parse()
            .map_err(|_| format!("field `{key}`: `{raw}` is not a u64"))
    }

    fn usize(&mut self, key: &str) -> Result<usize, String> {
        let n = self.u64(key)?;
        usize::try_from(n).map_err(|_| format!("field `{key}`: {n} exceeds usize"))
    }

    /// Reads `key`'s value as a finite `f64` (the encoder writes no other
    /// kind, and could not re-encode one).
    fn f64(&mut self, key: &str) -> Result<f64, String> {
        let raw = self.number().map_err(|e| format!("field `{key}`: {e}"))?;
        match raw.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            _ => Err(format!("field `{key}`: `{raw}` is not a finite float")),
        }
    }

    /// Reads `key`'s value as a `"0x…"` hex string.
    pub(crate) fn hex(&mut self, key: &str) -> Result<u64, String> {
        let text = self.string()?;
        text.strip_prefix("0x")
            .and_then(parse_hex)
            .ok_or_else(|| format!("field `{key}`: `{text}` is not 0x-prefixed hex"))
    }

    /// Reads an object whose fields are exactly `keys`, each read by
    /// `read`, in any order.
    fn fields<T: Copy + Default, const N: usize>(
        &mut self,
        keys: [&str; N],
        mut read: impl FnMut(&mut Reader<'a>, &str) -> Result<T, String>,
    ) -> Result<[T; N], String> {
        let mut slots = [None; N];
        self.object(|r, key| match keys.iter().position(|k| *k == key) {
            Some(i) => fill(&mut slots[i], || read(r, key)),
            None => Ok(false),
        })?;
        let mut values = [T::default(); N];
        for ((value, slot), key) in values.iter_mut().zip(slots).zip(keys) {
            *value = required(slot, key)?;
        }
        Ok(values)
    }

    fn sample(&mut self, coverage_hint: usize) -> Result<Sample, String> {
        let (mut t_secs, mut coverage, mut delivery_ratio, mut total_wakeups) =
            (None, None, None, None);
        let (mut working, mut sleeping, mut alive) = (None, None, None);
        self.object(|r, key| match key {
            "t_secs" => fill(&mut t_secs, || r.f64(key)),
            "coverage" => fill(&mut coverage, || {
                let mut values = Vec::with_capacity(coverage_hint);
                r.array(|r| {
                    values.push(r.f64(key)?);
                    Ok(())
                })?;
                Ok(values)
            }),
            "working" => fill(&mut working, || r.usize(key)),
            "sleeping" => fill(&mut sleeping, || r.usize(key)),
            "alive" => fill(&mut alive, || r.usize(key)),
            "delivery_ratio" => fill(&mut delivery_ratio, || match r.peek() {
                Some(b'n') => r.keyword("null").map(|()| None),
                _ => r.f64(key).map(Some),
            }),
            "total_wakeups" => fill(&mut total_wakeups, || r.u64(key)),
            _ => Ok(false),
        })?;
        Ok(Sample {
            t_secs: required(t_secs, "t_secs")?,
            coverage: required(coverage, "coverage")?,
            working: required(working, "working")?,
            sleeping: required(sleeping, "sleeping")?,
            alive: required(alive, "alive")?,
            delivery_ratio: required(delivery_ratio, "delivery_ratio")?,
            total_wakeups: required(total_wakeups, "total_wakeups")?,
        })
    }

    /// Reads a schema-1 report object (see [`decode_report`]).
    pub(crate) fn report(&mut self) -> Result<RunReport, String> {
        let (mut schema, mut node_count, mut seed, mut samples) = (None, None, None, None);
        let (mut node_stats, mut ledger, mut consumed_j, mut medium) = (None, None, None, None);
        let (mut failures_injected, mut energy_deaths) = (None, None);
        let (mut generated_reports, mut delivered_reports) = (None, None);
        let (mut events_total, mut events_detected, mut events_delivered) = (None, None, None);
        let (mut end_secs, mut events_processed) = (None, None);
        self.object(|r, key| match key {
            "schema" => fill(&mut schema, || match r.u64(key)? {
                REPORT_SCHEMA => Ok(REPORT_SCHEMA),
                other => Err(format!(
                    "unsupported report schema {other} \
                     (this build reads schema {REPORT_SCHEMA})"
                )),
            }),
            "node_count" => fill(&mut node_count, || r.usize(key)),
            "seed" => fill(&mut seed, || r.u64(key)),
            "samples" => fill(&mut samples, || {
                let mut all: Vec<Sample> = Vec::new();
                r.array(|r| {
                    let hint = all.last().map_or(0, |s| s.coverage.len());
                    all.push(r.sample(hint)?);
                    Ok(())
                })?;
                Ok(all)
            }),
            "node_stats" => fill(&mut node_stats, || {
                let n = r.fields(NODE_STATS_KEYS, Reader::u64)?;
                Ok(NodeStats {
                    wakeups: n[0],
                    probes_sent: n[1],
                    replies_sent: n[2],
                    probes_heard: n[3],
                    replies_heard: n[4],
                    measurements: n[5],
                    window_with_reply: n[6],
                    window_silent: n[7],
                    turnoffs: n[8],
                    replies_overheard: n[9],
                })
            }),
            "ledger_j" => fill(&mut ledger, || {
                let joules = r.fields(LEDGER_KEYS.map(|(_, key)| key), |r, key| {
                    let j = r.f64(key)?;
                    if j >= 0.0 {
                        Ok(j)
                    } else {
                        Err(format!("field `{key}`: energy {j} out of range"))
                    }
                })?;
                let mut ledger = EnergyLedger::new();
                for ((cause, _), j) in LEDGER_KEYS.iter().zip(joules) {
                    ledger.add(*cause, j);
                }
                Ok(ledger)
            }),
            "consumed_j" => fill(&mut consumed_j, || r.f64(key)),
            "medium" => fill(&mut medium, || {
                let m = r.fields(MEDIUM_KEYS, Reader::u64)?;
                Ok(MediumStats {
                    frames_sent: m[0],
                    deliveries_ok: m[1],
                    collisions: m[2],
                    random_losses: m[3],
                })
            }),
            "failures_injected" => fill(&mut failures_injected, || r.u64(key)),
            "energy_deaths" => fill(&mut energy_deaths, || r.u64(key)),
            "generated_reports" => fill(&mut generated_reports, || r.u64(key)),
            "delivered_reports" => fill(&mut delivered_reports, || r.u64(key)),
            "events_total" => fill(&mut events_total, || r.u64(key)),
            "events_detected" => fill(&mut events_detected, || r.u64(key)),
            "events_delivered" => fill(&mut events_delivered, || r.u64(key)),
            "end_secs" => fill(&mut end_secs, || r.f64(key)),
            "events_processed" => fill(&mut events_processed, || r.u64(key)),
            _ => Ok(false),
        })?;
        required(schema, "schema")?;
        Ok(RunReport {
            node_count: required(node_count, "node_count")?,
            seed: required(seed, "seed")?,
            samples: required(samples, "samples")?,
            node_stats: required(node_stats, "node_stats")?,
            ledger: required(ledger, "ledger_j")?,
            consumed_j: required(consumed_j, "consumed_j")?,
            medium: required(medium, "medium")?,
            failures_injected: required(failures_injected, "failures_injected")?,
            energy_deaths: required(energy_deaths, "energy_deaths")?,
            generated_reports: required(generated_reports, "generated_reports")?,
            delivered_reports: required(delivered_reports, "delivered_reports")?,
            events_total: required(events_total, "events_total")?,
            events_detected: required(events_detected, "events_detected")?,
            events_delivered: required(events_delivered, "events_delivered")?,
            end_secs: required(end_secs, "end_secs")?,
            events_processed: required(events_processed, "events_processed")?,
        })
    }

    /// Reads any value into a [`Json`] tree.
    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'{') => {
                let mut fields = Vec::new();
                self.object(|r, key| {
                    fields.push((key.to_string(), r.value()?));
                    Ok(true)
                })?;
                Ok(Json::Obj(fields))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b'n') => self.keyword("null").map(|()| Json::Null),
            Some(b't') => self.keyword("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.keyword("false").map(|()| Json::Bool(false)),
            Some(b'-' | b'0'..=b'9') => Ok(Json::Num(self.number()?.to_string())),
            Some(other) => Err(format!(
                "unexpected `{}` at byte {}",
                other as char, self.pos
            )),
        }
    }
}

/// Decodes a report from its canonical schema-1 form (see
/// [`encode_report`]). Fields may come in any order; the first occurrence
/// of a key wins, and unknown keys are syntax-checked and skipped. The
/// reader accepts only text that [`parse_json`] accepts too.
///
/// # Errors
///
/// Returns a description of the first syntax error, missing field, type
/// mismatch, non-finite float, trailing bytes or schema-version mismatch.
pub fn decode_report(src: &str) -> Result<RunReport, String> {
    let mut reader = Reader::new(src);
    let report = reader.report()?;
    reader.end()?;
    Ok(report)
}

// ---------------------------------------------------------------------------
// Tree parsing
// ---------------------------------------------------------------------------

/// A parsed JSON value. Numbers stay as raw source text so typed decodes
/// can parse them losslessly (`u64` never detours through `f64`).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// A number, as its raw source text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first occurrence).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Parses one JSON document (with nothing but whitespace after it).
///
/// # Errors
///
/// Returns a message naming the byte offset of the first syntax error.
pub fn parse_json(src: &str) -> Result<Json, String> {
    let mut reader = Reader::new(src);
    let value = reader.value()?;
    reader.end()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_scalars_and_nesting() {
        let v = parse_json(r#"{"a":[1,-2.5e3,null,true,"x\"y"],"b":{}}"#).expect("parses");
        let a = v.get("a").expect("a");
        match a {
            Json::Arr(items) => {
                assert_eq!(items[0], Json::Num("1".to_string()));
                assert_eq!(items[1], Json::Num("-2.5e3".to_string()));
                assert_eq!(items[2], Json::Null);
                assert_eq!(items[3], Json::Bool(true));
                assert_eq!(items[4], Json::Str("x\"y".to_string()));
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(v.get("b"), Some(&Json::Obj(Vec::new())));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("{}x").is_err());
        assert!(parse_json(r#"{"a":}"#).is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("\"unterminated").is_err());
        // `from_str_radix` takes a sign; a `\u` escape must not.
        assert!(parse_json(r#""\u+041""#).is_err());
        // Nesting is capped before it can overflow the stack.
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse_json(&nested(MAX_DEPTH)).is_ok());
        let err = parse_json(&nested(100_000)).expect_err("too deep");
        assert!(err.contains("nesting deeper than 64"), "{err}");
        assert_eq!(parse_json(r#""A""#), Ok(Json::Str("A".to_string())));
    }

    #[test]
    fn hex_fields_take_digits_only() {
        assert_eq!(parse_hex("0D23"), Some(0x0D23));
        assert_eq!(parse_hex("ffFF"), Some(0xFFFF));
        for bad in ["", "+D23", "-1", " 1", "1 ", "0x1", "g"] {
            assert_eq!(parse_hex(bad), None, "{bad:?}");
        }
        assert_eq!(parse_hex("1_0000_0000_0000_0000"), None);
        assert_eq!(parse_hex("10000000000000000"), None, "overflow");
    }

    #[test]
    fn escape_round_trips_through_parser() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let doc = format!("\"{}\"", json_escape(nasty));
        assert_eq!(
            parse_json(&doc).expect("parses"),
            Json::Str(nasty.to_string())
        );
    }

    #[test]
    fn floats_round_trip_exactly() {
        for &v in &[
            0.0,
            1.0,
            0.1,
            1e-12,
            123456.789,
            f64::MIN_POSITIVE,
            1.0 / 3.0,
        ] {
            let text = Float(v).to_string();
            let back: f64 = text.parse().expect("parses");
            assert_eq!(back.to_bits(), v.to_bits(), "{text} did not round-trip");
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_floats_rejected_at_encode() {
        let _ = Float(f64::NAN).to_string();
    }

    #[test]
    fn schema_mismatch_rejected() {
        let err = decode_report(r#"{"schema":2}"#).expect_err("must reject");
        assert!(err.contains("unsupported report schema 2"), "{err}");
    }
}
