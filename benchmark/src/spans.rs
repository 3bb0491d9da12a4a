//! In-memory spans of the traced pass.
//!
//! Spans are recorded by the benchmark's own code around calls into each
//! layer's public functions (nothing inside the program is instrumented
//! yet), kept in memory while the run measures, and written to
//! `benchmark/out/trace-<workload>.json` when it ends.

use serde_json::Value;
use std::time::Instant;

/// One timed interval. Times are microseconds from the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`model.forward`, `batcher.queue`, ...).
    pub name: &'static str,
    /// Start, µs.
    pub start_us: f64,
    /// End, µs.
    pub end_us: f64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// The op (one image inferred and verified) this span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration, ms.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Span store of one thread; stores of several threads are merged with
/// [`Spans::absorb`] once the window is over.
#[derive(Debug, Clone)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty store whose times count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Microseconds from the epoch to `at`.
    pub fn at(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Record a span between two instants; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        let (start_us, end_us) = (self.at(start), self.at(end));
        self.record_us(name, start_us, end_us, parent, op)
    }

    /// Record a span whose bounds are already in epoch microseconds (for
    /// intervals the program reports as durations, such as a reply's
    /// `queue_ms`).
    pub fn record_us(
        &mut self,
        name: &'static str,
        start_us: f64,
        end_us: f64,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_us,
            end_us,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Append another store's spans, keeping their parent links intact and
    /// moving their times onto this store's epoch (which must not be later
    /// than the other's).
    pub fn absorb(&mut self, other: Spans) {
        let offset = self.spans.len();
        let shift_us = self.at(other.epoch);
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span.start_us += shift_us;
            span.end_us += shift_us;
            span
        }));
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span, ms, indexed like [`Spans::all`]: a span's
    /// duration minus the part of its interval that its direct children
    /// cover (overlapping children are counted once, overhang is clipped).
    pub fn self_times_ms(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for child in &self.spans {
            if let Some(parent) = child.parent {
                children[parent].push((child.start_us, child.end_us));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut children)| {
                children.sort_by(|a, b| a.partial_cmp(b).expect("span times are never NaN"));
                let mut covered = 0.0;
                let mut reach = span.start_us;
                for (start, end) in children {
                    let (start, end) = (start.max(reach), end.min(span.end_us));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (span.end_us - span.start_us - covered) / 1e3
            })
            .collect()
    }

    /// Self times (ms) of every span called `name`.
    pub fn self_ms_of(&self, name: &str) -> Vec<f64> {
        self.self_times_ms()
            .into_iter()
            .zip(&self.spans)
            .filter(|(_, span)| span.name == name)
            .map(|(ms, _)| ms)
            .collect()
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(Span::ms)
            .collect()
    }

    /// The whole store as a JSON array of span objects.
    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|span| {
                    Value::Object(vec![
                        ("name".into(), Value::String(span.name.to_string())),
                        ("start_us".into(), Value::Number(span.start_us)),
                        ("end_us".into(), Value::Number(span.end_us)),
                        (
                            "parent".into(),
                            span.parent.map_or(Value::Null, |p| Value::Number(p as f64)),
                        ),
                        ("op".into(), Value::Number(span.op as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let mut spans = Spans::new(Instant::now());
        let op = spans.record_us("op", 0.0, 10_000.0, None, 1);
        spans.record_us("queue", 1_000.0, 4_000.0, Some(op), 1);
        let exec = spans.record_us("exec", 4_000.0, 7_000.0, Some(op), 1);
        // A grandchild shortens `exec`'s self time, not `op`'s.
        spans.record_us("gemm", 4_500.0, 6_500.0, Some(exec), 1);
        let own = spans.self_times_ms();
        assert!((own[op] - 4.0).abs() < 1e-9);
        assert!((own[exec] - 1.0).abs() < 1e-9);
        assert!((own[3] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        let mut spans = Spans::new(Instant::now());
        let op = spans.record_us("op", 1_000.0, 5_000.0, None, 2);
        spans.record_us("a", 0.0, 3_000.0, Some(op), 2); // starts before the parent
        spans.record_us("b", 2_000.0, 4_000.0, Some(op), 2); // overlaps `a`
        spans.record_us("c", 4_500.0, 9_000.0, Some(op), 2); // runs past the parent
        assert!((spans.self_times_ms()[op] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn absorbing_another_store_keeps_parent_links() {
        let epoch = Instant::now();
        let mut a = Spans::new(epoch);
        a.record_us("op", 0.0, 2_000.0, None, 1);
        // The other store started counting 5 ms later.
        let mut b = Spans::new(epoch + std::time::Duration::from_millis(5));
        let parent = b.record_us("op", 0.0, 4_000.0, None, 2);
        b.record_us("exec", 1_000.0, 2_000.0, Some(parent), 2);
        a.absorb(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!((a.spans[2].start_us, a.spans[2].end_us), (6_000.0, 7_000.0));
        assert_eq!(a.self_ms_of("op"), vec![2.0, 3.0]);
        assert_eq!(a.durations_ms("op"), vec![2.0, 4.0]);
    }
}
