//! The sweep service's job wire forms (`schema = 1`).
//!
//! A *job* is one client submission to the `peas-bench serve` spool: a
//! JSON file naming a `.peas` scenario (by corpus stem or path) or
//! carrying an inline scenario source. The service answers with two
//! response artifacts per job:
//!
//! * `<job>.reports.jsonl` — the merged reports, one canonical schema-1
//!   line per shard in enumeration order. This file is **byte-identical**
//!   no matter how the job was served (cold run, warm cache, resumed
//!   after a crash) — the cache-equivalence guarantee.
//! * `<job>.response.json` — the accounting ([`JobOutcome`]): shard
//!   totals, dedup counts and a fingerprint of the reports file.
//!
//! While a job runs, the service maintains `<job>.progress.json`
//! ([`JobProgress`]) so clients can poll live completion counts.
//!
//! Everything here is plain data + encode/decode over the dependency-free
//! JSON layer in [`crate::report_json`]; the compilation of a job to
//! concrete runs lives in `peas-scenario` (`compile_job`), and the
//! scheduling in the `serve` binary.

use crate::report_json::{json_escape, parse_hex, parse_json, Json};

/// Version tag of the job/submission wire form. Bump on any change to
/// field names or meaning; decoders reject mismatching versions.
pub const JOB_SCHEMA: u64 = 1;

/// What a job asks the service to run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobSource {
    /// A `.peas` scenario: a corpus stem (`"sweep-smoke"`) or a path
    /// ending in `.peas`, resolved against the service's scenario dir.
    Scenario(String),
    /// An inline scenario source (the full `.peas` text; `extends` is
    /// not available — an inline job must be self-contained).
    Inline(String),
}

/// One parsed job submission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// The job name: identifies the submission in the spool and names
    /// its response artifacts. Restricted to `[A-Za-z0-9._-]` (it
    /// becomes file names), must not start with a dot.
    pub name: String,
    /// What to run.
    pub source: JobSource,
}

/// Validates a job name for use as a spool file stem.
///
/// # Errors
///
/// Returns a message describing the first violation.
pub fn validate_job_name(name: &str) -> Result<(), String> {
    if name.is_empty() || name.len() > 64 {
        return Err(format!(
            "job name must be 1..=64 characters, got {}",
            name.len()
        ));
    }
    if name.starts_with('.') {
        return Err("job name must not start with `.`".to_string());
    }
    if let Some(bad) = name
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')))
    {
        return Err(format!(
            "job name contains `{bad}`; allowed characters are [A-Za-z0-9._-]"
        ));
    }
    Ok(())
}

/// Encodes a job submission in its canonical single-line form.
pub fn encode_job(spec: &JobSpec) -> String {
    let (key, value) = match &spec.source {
        JobSource::Scenario(s) => ("scenario", s),
        JobSource::Inline(s) => ("inline", s),
    };
    format!(
        "{{\"schema\":{JOB_SCHEMA},\"job\":\"{}\",\"{key}\":\"{}\"}}",
        json_escape(&spec.name),
        json_escape(value)
    )
}

/// Decodes and validates a job submission.
///
/// # Errors
///
/// Returns a description of the first syntax error, schema mismatch,
/// invalid name, or missing/conflicting source field.
pub fn decode_job(src: &str) -> Result<JobSpec, String> {
    let v = parse_json(src)?;
    let schema = match v.get("schema") {
        Some(Json::Num(raw)) => raw
            .parse::<u64>()
            .map_err(|_| format!("field `schema`: `{raw}` is not a u64"))?,
        _ => return Err("missing numeric field `schema`".to_string()),
    };
    if schema != JOB_SCHEMA {
        return Err(format!(
            "unsupported job schema {schema} (this build reads schema {JOB_SCHEMA})"
        ));
    }
    let name = match v.get("job") {
        Some(Json::Str(name)) => name.clone(),
        _ => return Err("missing string field `job`".to_string()),
    };
    validate_job_name(&name).map_err(|e| format!("field `job`: {e}"))?;
    let source = match (v.get("scenario"), v.get("inline")) {
        (Some(Json::Str(s)), None) => JobSource::Scenario(s.clone()),
        (None, Some(Json::Str(s))) => JobSource::Inline(s.clone()),
        (Some(_), Some(_)) => {
            return Err("job declares both `scenario` and `inline`; pick one".to_string())
        }
        _ => return Err("job needs a string field `scenario` or `inline`".to_string()),
    };
    Ok(JobSpec { name, source })
}

/// The final accounting of one served job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobOutcome {
    /// The job name.
    pub name: String,
    /// Shards in the job's enumeration (including in-job duplicates).
    pub total: usize,
    /// Shards served straight from the cache at schedule time.
    pub cached: usize,
    /// Novel shards actually executed for this job.
    pub executed: usize,
    /// FNV-1a over the bytes of `<job>.reports.jsonl` — one number that
    /// pins the whole merged result (0 for failed jobs).
    pub result_fingerprint: u64,
    /// The failure message of a job that could not be served.
    pub error: Option<String>,
}

impl JobOutcome {
    /// True when the job was served to completion.
    pub fn is_done(&self) -> bool {
        self.error.is_none()
    }
}

/// Encodes an outcome in its canonical single-line form.
pub fn encode_outcome(outcome: &JobOutcome) -> String {
    let state = if outcome.is_done() { "done" } else { "failed" };
    let mut out = format!(
        "{{\"schema\":{JOB_SCHEMA},\"job\":\"{}\",\"state\":\"{state}\",\"total\":{},\
         \"cached\":{},\"executed\":{},\"result_fingerprint\":\"{:#018X}\"",
        json_escape(&outcome.name),
        outcome.total,
        outcome.cached,
        outcome.executed,
        outcome.result_fingerprint
    );
    if let Some(error) = &outcome.error {
        out.push_str(&format!(",\"error\":\"{}\"", json_escape(error)));
    }
    out.push('}');
    out
}

/// Decodes an outcome.
///
/// # Errors
///
/// Returns a description of the first syntax error, schema mismatch or
/// missing field.
pub fn decode_outcome(src: &str) -> Result<JobOutcome, String> {
    let v = parse_json(src)?;
    let get_usize = |key: &str| -> Result<usize, String> {
        match v.get(key) {
            Some(Json::Num(raw)) => raw
                .parse::<usize>()
                .map_err(|_| format!("field `{key}`: `{raw}` is not a usize")),
            _ => Err(format!("missing numeric field `{key}`")),
        }
    };
    let schema = get_usize("schema")?;
    if schema as u64 != JOB_SCHEMA {
        return Err(format!("unsupported outcome schema {schema}"));
    }
    let name = match v.get("job") {
        Some(Json::Str(name)) => name.clone(),
        _ => return Err("missing string field `job`".to_string()),
    };
    let result_fingerprint = match v.get("result_fingerprint") {
        Some(Json::Str(hex)) => hex
            .strip_prefix("0x")
            .and_then(parse_hex)
            .ok_or_else(|| format!("field `result_fingerprint`: bad hex `{hex}`"))?,
        _ => return Err("missing string field `result_fingerprint`".to_string()),
    };
    let error = match v.get("error") {
        Some(Json::Str(e)) => Some(e.clone()),
        None => None,
        Some(other) => return Err(format!("field `error`: expected string, got {other:?}")),
    };
    Ok(JobOutcome {
        name,
        total: get_usize("total")?,
        cached: get_usize("cached")?,
        executed: get_usize("executed")?,
        result_fingerprint,
        error,
    })
}

/// A live progress snapshot of a running job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobProgress {
    /// The job name.
    pub name: String,
    /// Shards already servable (cached + executed so far).
    pub done: usize,
    /// Shards in the job's enumeration.
    pub total: usize,
}

/// Encodes a progress snapshot in its canonical single-line form.
pub fn encode_progress(progress: &JobProgress) -> String {
    format!(
        "{{\"schema\":{JOB_SCHEMA},\"job\":\"{}\",\"state\":\"running\",\"done\":{},\"total\":{}}}",
        json_escape(&progress.name),
        progress.done,
        progress.total
    )
}

/// Decodes a progress snapshot.
///
/// # Errors
///
/// Returns a description of the first syntax error or missing field.
pub fn decode_progress(src: &str) -> Result<JobProgress, String> {
    let v = parse_json(src)?;
    let get_usize = |key: &str| -> Result<usize, String> {
        match v.get(key) {
            Some(Json::Num(raw)) => raw
                .parse::<usize>()
                .map_err(|_| format!("field `{key}`: `{raw}` is not a usize")),
            _ => Err(format!("missing numeric field `{key}`")),
        }
    };
    let name = match v.get("job") {
        Some(Json::Str(name)) => name.clone(),
        _ => return Err("missing string field `job`".to_string()),
    };
    Ok(JobProgress {
        name,
        done: get_usize("done")?,
        total: get_usize("total")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_round_trips_both_sources() {
        for spec in [
            JobSpec {
                name: "night-1".to_string(),
                source: JobSource::Scenario("sweep-smoke".to_string()),
            },
            JobSpec {
                name: "adhoc.2".to_string(),
                source: JobSource::Inline("[deployment]\ncount = 30\n".to_string()),
            },
        ] {
            let encoded = encode_job(&spec);
            assert_eq!(decode_job(&encoded).expect("decodes"), spec);
        }
    }

    #[test]
    fn job_decode_rejects_bad_submissions() {
        for (src, needle) in [
            ("{}", "schema"),
            (r#"{"schema":2,"job":"a","scenario":"x"}"#, "unsupported"),
            (r#"{"schema":1,"scenario":"x"}"#, "field `job`"),
            (r#"{"schema":1,"job":"a"}"#, "scenario"),
            (
                r#"{"schema":1,"job":"a","scenario":"x","inline":"y"}"#,
                "pick one",
            ),
            (r#"{"schema":1,"job":"a b","scenario":"x"}"#, "allowed"),
            (r#"{"schema":1,"job":".hidden","scenario":"x"}"#, "start"),
        ] {
            let err = decode_job(src).expect_err(src);
            assert!(err.contains(needle), "`{src}` -> `{err}`");
        }
    }

    #[test]
    fn outcome_round_trips_with_and_without_error() {
        for outcome in [
            JobOutcome {
                name: "a".to_string(),
                total: 8,
                cached: 6,
                executed: 2,
                result_fingerprint: 0x0123_4567_89AB_CDEF,
                error: None,
            },
            JobOutcome {
                name: "b".to_string(),
                total: 0,
                cached: 0,
                executed: 0,
                result_fingerprint: 0,
                error: Some("no such scenario \"x\"".to_string()),
            },
        ] {
            let encoded = encode_outcome(&outcome);
            assert_eq!(decode_outcome(&encoded).expect("decodes"), outcome);
        }
    }

    #[test]
    fn progress_round_trips() {
        let p = JobProgress {
            name: "a".to_string(),
            done: 3,
            total: 8,
        };
        assert_eq!(decode_progress(&encode_progress(&p)).expect("decodes"), p);
    }
}
