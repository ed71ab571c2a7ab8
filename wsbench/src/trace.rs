//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start and an end (nanoseconds since the run's
//! origin), the span that caused it, and the id of the request or update
//! it belongs to. Spans stay in memory while the workload runs and are
//! written once, at exit. A span's self time is its duration minus the
//! part of that interval its children cover.
//!
//! The untraced run uses a disabled recorder: every call is a branch and
//! nothing is kept, so both runs execute the same benchmark code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span within its recorder.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What the span times (a layer's public function, or a benchmark step).
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's origin (0 while open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The request or update this span belongs to.
    pub op: u64,
}

/// Collects spans when enabled; does nothing otherwise.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder measuring from `origin`. Recorders that will be merged
    /// must share it.
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Recorder {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Recorder::end`].
    pub fn start(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Recorder::start`].
    pub fn end(&mut self, id: SpanId) {
        if self.enabled {
            let now = self.now_ns();
            self.spans[id].end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.start(name, parent, op);
        let out = f();
        self.end(id);
        out
    }

    /// Moves another recorder's spans (same origin) into this one,
    /// re-pointing their parents.
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    /// The recorded spans.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in nanoseconds, index-aligned with
    /// [`Recorder::spans`]: duration minus the union of its children's
    /// intervals clipped to its own.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut cursor = span.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(cursor);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
                span.end_ns.saturating_sub(span.start_ns) - covered
            })
            .collect()
    }

    /// Self times in microseconds, grouped by span name.
    pub fn self_us_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            out.entry(span.name).or_default().push(self_ns as f64 / 1e3);
        }
        out
    }

    /// Durations in microseconds of the spans named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Renders every span, with its self time, as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, (span, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}, \"self_ns\": {self_ns}}}",
                if i == 0 { "" } else { ",\n" },
                span.name,
                span.start_ns,
                span.end_ns,
                span.op
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    fn recorder(spans: Vec<Span>) -> Recorder {
        let mut r = Recorder::new(Instant::now(), true);
        r.spans = spans;
        r
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let r = recorder(vec![
            span("request", 0, 100, None),
            span("session", 10, 30, Some(0)),
            // Overlaps the first child: the union, not the sum, is removed.
            span("view", 20, 50, Some(0)),
            // Runs past the parent's end: clipped to the parent.
            span("channel", 90, 120, Some(0)),
            span("inner", 25, 35, Some(2)),
        ]);
        // request: 100 - ([10,50] + [90,100]) = 50
        assert_eq!(r.self_times(), vec![50, 20, 20, 30, 10]);
        let by_name = r.self_us_by_name();
        assert_eq!(by_name["request"], vec![0.05]);
        assert_eq!(r.durations_us("view"), vec![0.03]);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(Instant::now(), false);
        let id = r.start("x", None, 1);
        r.end(id);
        assert_eq!(r.time("y", None, 2, || 7), 7);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn spans_nest_in_call_order_and_merge_across_recorders() {
        let origin = Instant::now();
        let mut a = Recorder::new(origin, true);
        let outer = a.start("batch", None, 3);
        a.time("call", Some(outer), 3, || std::hint::black_box(0));
        a.end(outer);
        let mut b = Recorder::new(origin, true);
        let upd = b.start("update", None, 9);
        b.time("publish", Some(upd), 9, || ());
        b.end(upd);
        a.absorb(b);
        let spans = a.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2), "absorbed parents are re-pointed");
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let json = a.to_json();
        assert!(json.contains("\"name\": \"publish\"") && json.contains("\"parent\": 2"));
    }
}
