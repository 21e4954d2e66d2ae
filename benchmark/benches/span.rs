//! Harness-side span tracing (choosing-metrics §4).
//!
//! Spans are recorded here, in the benchmark's own files, around each
//! call into a layer of the program under test; the program itself is
//! not instrumented. They live in memory and are written out once the
//! run has been measured. The load generator is one thread, so the
//! recorder is single-threaded by construction.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer (or `body`/`probe` root) the span belongs to.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Spans of one operation (one body repetition, one fetch) share it.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// The span recorder. With recording off, [`Tracer::time`] still times
/// the call (the end-to-end numbers need that) but stores nothing.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    recording: Cell<bool>,
    op: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    idx: Option<usize>,
}

impl Tracer {
    pub fn new(recording: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            recording: Cell::new(recording),
            op: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Switches recording; the traced run alternates it between
    /// repetitions to measure what recording costs.
    pub fn set_recording(&self, on: bool) {
        self.recording.set(on);
    }

    /// Starts the next operation and returns its identifier.
    pub fn next_op(&self) -> u64 {
        self.op.set(self.op.get() + 1);
        self.op.get()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.recording.get() {
            return SpanGuard {
                tracer: self,
                idx: None,
            };
        }
        let now = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        let mut open = self.open.borrow_mut();
        let idx = spans.len();
        spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: open.last().copied(),
            op: self.op.get(),
        });
        open.push(idx);
        SpanGuard {
            tracer: self,
            idx: Some(idx),
        }
    }

    /// Runs `f` under a span named `name` and returns its result with
    /// the wall seconds it took.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let guard = self.span(name);
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        drop(guard);
        (out, secs)
    }

    /// Records an already-measured interval (a fetch timed from its due
    /// instant) as a child of the innermost open span.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant, op: u64) {
        if !self.recording.get() {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.borrow_mut().push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.open.borrow().last().copied(),
            op,
        });
    }

    /// Seconds of self time per span name.
    pub fn self_seconds_by_name(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut out = BTreeMap::new();
        for (s, own) in spans.iter().zip(self_times_ns(&spans)) {
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Share of the time under `root`-named spans that their direct
    /// children cover (1 when there is no such span).
    pub fn attributed_ratio(&self, root: &str) -> f64 {
        let spans = self.spans.borrow();
        let own = self_times_ns(&spans);
        let (mut total, mut unattributed) = (0u64, 0u64);
        for (s, own) in spans.iter().zip(own) {
            if s.name == root {
                total += s.duration_ns();
                unattributed += own;
            }
        }
        if total == 0 {
            1.0
        } else {
            1.0 - unattributed as f64 / total as f64
        }
    }

    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Writes one JSON object per span: name, start, end, parent,
    /// operation id.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        w.flush()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            let now = self.tracer.now_ns();
            self.tracer.spans.borrow_mut()[idx].end_ns = now;
            self.tracer.open.borrow_mut().pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("body", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("a.inner", 20, 30, Some(1)),
            span("b", 60, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 40, 10, 30]);
    }

    #[test]
    fn guards_nest_and_attribute() {
        let t = Tracer::new(true);
        {
            let _body = t.span("body");
            let ((), secs) = t.time("layer", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            assert!(secs >= 0.002);
        }
        assert_eq!(t.span_count(), 2);
        let by_name = t.self_seconds_by_name();
        assert!(by_name["layer"] >= 0.002);
        assert!(by_name["body"] < by_name["layer"]);
        let ratio = t.attributed_ratio("body");
        assert!(ratio > 0.5 && ratio <= 1.0, "{ratio}");
    }

    #[test]
    fn nothing_is_stored_while_recording_is_off() {
        let t = Tracer::new(false);
        let (v, secs) = t.time("layer", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        t.record("fetch", Instant::now(), Instant::now(), 3);
        assert_eq!(t.span_count(), 0);
        assert_eq!(t.attributed_ratio("body"), 1.0);
    }
}
