//! The traced run's span store.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer's public functions, kept in memory, and written as a
//! Chrome-trace file (`traceEvents`, opens in Perfetto) when the workload
//! ends. A span's self time is its duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one operation (rep, tick, batch, query) share an id.
    pub op_id: u64,
    /// Generator thread that recorded it (0 = main).
    pub tid: u32,
}

/// Count, total and self time of every span sharing a name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A per-thread span recorder. A disabled tracer still times the closures
/// it is handed (the workloads need those durations either way) but stores
/// nothing, so the untraced run pays no memory or bookkeeping.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            tid: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for another generator thread, on the same time origin.
    pub fn for_thread(&self, tid: u32) -> Self {
        Self {
            origin: self.origin,
            enabled: self.enabled,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` as a span nested under whatever span is open, and returns
    /// its result with its wall time. `f` gets the tracer back so it can
    /// open children.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        op_id: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Duration) {
        if !self.enabled {
            let t0 = Instant::now();
            let out = f(self);
            return (out, t0.elapsed());
        }
        let idx = self.spans.len();
        let t0 = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: self.ns(t0),
            end_ns: 0,
            parent: self.open.last().copied(),
            op_id,
            tid: self.tid,
        });
        self.open.push(idx);
        let out = f(self);
        let t1 = Instant::now();
        self.open.pop();
        self.spans[idx].end_ns = self.ns(t1);
        (out, t1 - t0)
    }

    /// Records a span that was timed elsewhere (e.g. from a due time to a
    /// reply), nested under whatever span is open.
    pub fn record(&mut self, name: &'static str, op_id: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            op_id,
            tid: self.tid,
        });
    }

    /// Appends another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span, index-aligned with [`spans`](Self::spans):
    /// duration minus the union of its children's intervals (children that
    /// overlap each other are not subtracted twice).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.clamp(cursor, s.end_ns);
                    let b = b.clamp(cursor, s.end_ns);
                    covered += b - a;
                    cursor = b;
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Totals per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += own;
        }
        out
    }

    /// Total seconds spent in spans named `name` (0 if none).
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            // Not `sum()`: an empty float sum is -0.0, which prints as "-0".
            .fold(0.0, |a, b| a + b)
    }

    /// The Chrome-trace document: one complete (`"ph":"X"`) event per span,
    /// microsecond timestamps, the causing span and operation in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 120);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op_id\":{},\"self_us\":{:.3}}}}}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op_id,
                own as f64 / 1e3,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-placed spans, so self times are exact.
    fn fixed(spans: &[(&'static str, u64, u64, Option<usize>)]) -> Tracer {
        let mut t = Tracer::new(true);
        t.spans = spans
            .iter()
            .map(|&(name, start_ns, end_ns, parent)| Span {
                name,
                start_ns,
                end_ns,
                parent,
                op_id: 0,
                tid: 0,
            })
            .collect();
        t
    }

    #[test]
    fn nested_spans_subtract_their_children() {
        // rep [0,100) > detect [10,70) > extract [20,50)
        let t = fixed(&[
            ("rep", 0, 100, None),
            ("detect", 10, 70, Some(0)),
            ("extract", 20, 50, Some(1)),
        ]);
        assert_eq!(t.self_times(), vec![40, 30, 30]);
    }

    #[test]
    fn sibling_spans_each_count_once() {
        // rep [0,100) with read [0,20), detect [20,80), rank [90,100)
        let t = fixed(&[
            ("rep", 0, 100, None),
            ("read", 0, 20, Some(0)),
            ("detect", 20, 80, Some(0)),
            ("rank", 90, 100, Some(0)),
        ]);
        assert_eq!(t.self_times(), vec![10, 20, 60, 10]);
        let names = t.by_name();
        assert_eq!(names["rep"].self_ns, 10);
        assert_eq!(names["detect"].total_ns, 60);
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        // Two parallel children covering [10,60) ∪ [40,90) = 80 of 100.
        let t = fixed(&[
            ("op", 0, 100, None),
            ("a", 10, 60, Some(0)),
            ("b", 40, 90, Some(0)),
        ]);
        assert_eq!(t.self_times()[0], 20);
    }

    #[test]
    fn timed_nests_by_call_structure() {
        let mut t = Tracer::new(true);
        t.timed("outer", 7, |t| {
            t.timed("inner", 7, |_| ());
            t.timed("inner", 7, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op_id == 7 && s.end_ns >= s.start_ns));
        assert_eq!(t.by_name()["inner"].count, 2);
    }

    #[test]
    fn disabled_tracer_times_but_stores_nothing() {
        let mut t = Tracer::new(false);
        let (v, d) = t.timed("x", 0, |_| 41 + 1);
        assert_eq!(v, 42);
        assert!(d >= Duration::ZERO);
        t.record("y", 0, Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents_and_chrome_json_lists_every_span() {
        let mut main = fixed(&[("batch", 0, 10, None)]);
        let mut other = main.for_thread(1);
        other.spans = vec![
            Span {
                name: "query",
                start_ns: 1,
                end_ns: 5,
                parent: None,
                op_id: 3,
                tid: 1,
            },
            Span {
                name: "reply",
                start_ns: 2,
                end_ns: 4,
                parent: Some(0),
                op_id: 3,
                tid: 1,
            },
        ];
        main.absorb(other);
        assert_eq!(main.spans()[2].parent, Some(1));
        let json = main.to_chrome_json();
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert!(json.contains("\"traceEvents\""));
    }
}
