//! Spans for the traced run: each records a name, its start and end in
//! host nanoseconds since the trace began, the span that caused it, and
//! counts measured at the same boundary. Spans stay in memory and are
//! written out as JSON lines when the run ends, each with its self time:
//! its duration minus the part its child spans cover. The harness is
//! single-threaded while it traces, so children never overlap.

use std::time::Instant;

use peas_sim::report_json::json_escape;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

struct Span {
    name: String,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: Option<u64>,
    counts: Vec<(String, f64)>,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn open(&mut self, name: &str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns: None,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        let end = self.now_ns();
        self.spans[id].end_ns = Some(end);
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the tracer and the new span's id, to open children or add counts.
    pub fn span<T>(
        &mut self,
        name: &str,
        parent: SpanId,
        f: impl FnOnce(&mut Tracer, SpanId) -> T,
    ) -> T {
        let id = self.open(name, Some(parent));
        let out = f(self, id);
        self.close(id);
        out
    }

    pub fn count(&mut self, id: SpanId, key: &str, value: f64) {
        self.spans[id].counts.push((key.to_string(), value));
    }

    /// A closed span's duration in seconds.
    pub fn seconds(&self, id: SpanId) -> f64 {
        let s = &self.spans[id];
        s.end_ns.map_or(0.0, |end| (end - s.start_ns) as f64 / 1e9)
    }

    fn self_ns(&self, id: SpanId) -> u64 {
        let s = &self.spans[id];
        let total = s.end_ns.map_or(0, |end| end - s.start_ns);
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns.map_or(0, |end| end - c.start_ns))
            .sum();
        total.saturating_sub(children)
    }

    /// One JSON object per closed span, in opening order.
    pub fn to_jsonl(&self, trace: &str) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let Some(end) = s.end_ns else { continue };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let counts: Vec<String> = s
                .counts
                .iter()
                .map(|(k, v)| format!("\"{}\":{}", json_escape(k), crate::json_num(*v)))
                .collect();
            out.push_str(&format!(
                "{{\"trace\":\"{}\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{end},\"self_ns\":{},\"counts\":{{{}}}}}\n",
                json_escape(trace),
                json_escape(&s.name),
                s.start_ns,
                self.self_ns(id),
                counts.join(",")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let root = t.open("root", None);
        t.span("child", root, |t, id| {
            t.count(id, "ops", 3.0);
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        t.close(root);
        let child = 1;
        assert!(t.self_ns(root) + t.self_ns(child) <= (t.seconds(root) * 1e9) as u64 + 1);
        assert!(t.self_ns(child) >= 2_000_000);
        let lines = t.to_jsonl("w/seed=1");
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"parent\":0,\"name\":\"child\""));
        assert!(lines.contains("\"counts\":{\"ops\":3}"));
    }
}
