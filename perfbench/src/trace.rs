//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer;
//! the program itself carries no instrumentation. They stay in memory
//! until the run ends, when [`Tracer::to_json`] writes them out.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id (1-based; 0 means "no parent").
    pub id: u32,
    /// Id of the enclosing span, 0 at the root.
    pub parent: u32,
    /// The `(rate, replicate)` job this span belongs to, if any.
    pub job: Option<u32>,
    /// Layer boundary name, e.g. `plan.build`.
    pub name: &'static str,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
}

/// Collects spans from any number of threads.
pub struct Tracer {
    origin: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
    on: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
            on: true,
        }
    }
}

impl Tracer {
    /// A tracer that records nothing: [`Tracer::span`] only calls its
    /// closure (with span id 0). Passes run with it make the same layer
    /// calls as traced passes, without the tracing cost.
    pub fn noop() -> Self {
        Tracer {
            on: false,
            ..Tracer::default()
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; `f` receives the span's id so
    /// it can parent further spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u32,
        job: Option<u32>,
        f: impl FnOnce(u32) -> R,
    ) -> R {
        if !self.on {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let out = f(id);
        let end = self.now();
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .push(Span {
                id,
                parent,
                job,
                name,
                start,
                end,
            });
        out
    }

    /// Every span recorded so far, sorted by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("no thread panics while holding the span list")
            .clone();
        v.sort_by_key(|s| (s.start, s.id));
        v
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans()
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\":{},\"parent\":{},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                    s.id,
                    s.parent,
                    s.job.map_or("null".to_string(), |j| j.to_string()),
                    s.name,
                    s.start,
                    s.end
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// Total length of the union of `intervals`.
pub fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the part of it that its
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut children: std::collections::HashMap<u32, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.get(&s.id).map_or(0, |c| union_len(c.clone()));
            (s.name, (s.end - s.start).saturating_sub(covered))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        assert_eq!(union_len(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(vec![]), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::default();
        t.span("outer", 0, None, |id| {
            t.span("inner", id, None, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            })
        });
        let spans = t.spans();
        let st = self_times(&spans);
        let inner = st.iter().find(|s| s.0 == "inner").unwrap().1;
        let outer = st.iter().find(|s| s.0 == "outer").unwrap().1;
        assert!(inner >= 2_000_000);
        assert!(outer < inner);
    }

    #[test]
    fn noop_tracer_records_nothing() {
        let t = Tracer::noop();
        assert_eq!(
            t.span("outer", 0, None, |id| t.span("inner", id, None, |_| 7)),
            7
        );
        assert!(t.spans().is_empty());
    }
}
