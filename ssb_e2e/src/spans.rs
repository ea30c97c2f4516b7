//! The benchmark's own span recorder.
//!
//! Each span is one call the benchmark makes into a layer of the engine
//! (`plan.optimize`, `engine.execute`, …), recorded from outside the
//! program. Spans of one query execution share its query id (and carry
//! the SSB query's name); a span's parent is the span that caused it. Spans stay in memory until the run
//! ends and are then written out as JSON lines.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub qid: u64,
    /// The SSB query the execution ran, e.g. `Q2.1`.
    pub query: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span of execution `qid` (of SSB query `query`) that ran
    /// from `start` to `end`; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        (qid, query): (u64, &'static str),
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            qid,
            query,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its interval
    /// covered by its children (overlapping children are counted once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for (a, b) in kids {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                s.dur_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Self times (ms) of every span called `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        self.self_times_ns()
            .into_iter()
            .zip(&self.spans)
            .filter(|(_, s)| s.name == name)
            .map(|(t, _)| t as f64 / 1e6)
            .collect()
    }

    /// Total self time (ns) of spans called `name`.
    pub fn total_self_ns(&self, name: &str) -> u64 {
        self.self_times_ns()
            .into_iter()
            .zip(&self.spans)
            .filter(|(_, s)| s.name == name)
            .map(|(t, _)| t)
            .sum()
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"qid\":{},\"query\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.qid, s.query, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut r = Recorder::new(t0);
        let id = (7, "Q2.1");
        let q = r.record("query", id, None, at(0), at(100));
        r.record("plan.optimize", id, Some(q), at(10), at(30));
        // Overlaps the previous child by 10 ms; counted once.
        r.record("plan.lower", id, Some(q), at(20), at(40));
        r.record("engine.execute", id, Some(q), at(50), at(90));
        let self_ns = r.self_times_ns();
        assert_eq!(
            self_ns[q],
            Duration::from_millis(100 - 30 - 40).as_nanos() as u64
        );
        assert_eq!(self_ns[1], Duration::from_millis(20).as_nanos() as u64);
        assert_eq!(r.self_ms("engine.execute"), vec![40.0]);
        assert_eq!(r.total_self_ns("query"), 30_000_000);
        let lines = r.to_jsonl();
        assert_eq!(lines.lines().count(), 4);
        let last = lines.lines().nth(3).unwrap();
        assert!(
            last.contains("\"parent\":0") && last.contains("\"query\":\"Q2.1\""),
            "{last}"
        );
    }
}
