//! In-memory span recorder for the traced replay.
//!
//! One span per library call: name, start, end, the enclosing span, and a
//! request id shared by the spans of one operation. Spans stay in memory
//! and are written out once, when the benchmark ends.

use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    /// Index of the enclosing span in [`Recorder::spans`].
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Handle of an open span, returned by [`Recorder::open`].
#[must_use = "an opened span must be closed"]
pub struct Open(Option<usize>);

/// Records spans when enabled; a disabled recorder keeps nothing, so the
/// same replay code measures the untraced baseline.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    last_request: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            last_request: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// A fresh request id for the spans of one operation.
    pub fn next_request(&mut self) -> u64 {
        self.last_request += 1;
        self.last_request
    }

    /// Runs `f` under a span of its own.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let span = self.open(name, request);
        let out = f();
        self.close(span);
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            request,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn close(&mut self, span: Open) {
        if let Some(idx) = span.0 {
            let end = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
            self.spans[idx].end_ns = end;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans of one request named `name`.
    pub fn named<'a>(&'a self, request: u64, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans
            .iter()
            .filter(move |s| s.request == request && s.name == name)
    }

    /// Total milliseconds of the spans of `request` named `name`.
    pub fn total_ms(&self, request: u64, name: &str) -> f64 {
        self.named(request, name).map(Span::duration_ms).sum()
    }
}

/// A span's self time: its duration minus the part of it that its direct
/// children cover.
pub fn self_time_ms(spans: &[Span], idx: usize) -> f64 {
    let children: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(Span::duration_ms)
        .sum();
    spans[idx].duration_ms() - children
}

/// A recorder's spans as JSON lines, tagged with the workload that produced
/// them. `id` and `parent` are indices into the recorder, so a file that
/// holds several workloads needs one recorder per workload.
pub fn to_jsonl(workload: &str, rec: &Recorder) -> String {
    let spans = rec.spans();
    let mut children_ms = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children_ms[p] += s.duration_ms();
        }
    }
    let mut out = String::new();
    for (idx, s) in spans.iter().enumerate() {
        let line = serde_json::json!({
            "workload": workload,
            "id": idx,
            "name": s.name,
            "request": s.request,
            "parent": s.parent,
            "start_ns": s.start_ns,
            "end_ns": s.end_ns,
            "self_ms": s.duration_ms() - children_ms[idx],
        });
        out.push_str(&line.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ms: u64, end_ms: u64) -> Span {
        Span {
            name,
            request: 7,
            parent,
            start_ns: start_ms * 1_000_000,
            end_ns: end_ms * 1_000_000,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("pipeline", None, 0, 100),
            span("io.parse", Some(0), 10, 30),
            span("machine.iteration", Some(0), 30, 90),
            span("step", Some(2), 40, 50),
        ];
        assert_eq!(self_time_ms(&spans, 0), 100.0 - 20.0 - 60.0);
        assert_eq!(self_time_ms(&spans, 2), 60.0 - 10.0);
        assert_eq!(self_time_ms(&spans, 3), 10.0);
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::new(true);
        let outer = rec.open("pipeline", 1);
        let inner = rec.open("io.parse", 1);
        rec.close(inner);
        rec.close(outer);
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert!(rec.spans()[0].end_ns >= rec.spans()[1].end_ns);
        assert_eq!(rec.named(1, "io.parse").count(), 1);

        let mut off = Recorder::new(false);
        let s = off.open("pipeline", 1);
        off.close(s);
        assert!(off.spans().is_empty());
    }

    /// What a traced run over two workloads writes: every `parent` names an
    /// `id` of the same workload, and `self_ms` subtracts that span's own
    /// children.
    #[test]
    fn jsonl_parents_stay_within_their_workload() {
        let mut text = String::new();
        for (workload, extra) in [("first", 0), ("second", 3)] {
            let mut rec = Recorder::new(true);
            for _ in 0..extra {
                let s = rec.open("io.read", 1);
                rec.close(s);
            }
            let req = rec.next_request();
            let top = rec.open("pipeline", req);
            let child = rec.open("io.parse", req);
            std::thread::sleep(std::time::Duration::from_millis(2));
            rec.close(child);
            rec.close(top);
            text.push_str(&to_jsonl(workload, &rec));
        }
        let lines: Vec<serde_json::Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("JSON line"))
            .collect();
        assert_eq!(lines.len(), 2 + 5);
        for line in &lines {
            let Some(parent) = line["parent"].as_u64() else {
                continue;
            };
            let owner = lines
                .iter()
                .find(|o| o["workload"] == line["workload"] && o["id"] == parent)
                .expect("parent is a span of the same workload");
            assert_eq!(owner["name"], "pipeline");
            let dur = |v: &serde_json::Value| {
                (v["end_ns"].as_u64().expect("end") - v["start_ns"].as_u64().expect("start")) as f64
                    / 1e6
            };
            let own = owner["self_ms"].as_f64().expect("self_ms");
            assert!((own - (dur(owner) - dur(line))).abs() < 1e-9);
            assert!(own < dur(owner) - 1.0, "the child's 2 ms are subtracted");
        }
    }
}
