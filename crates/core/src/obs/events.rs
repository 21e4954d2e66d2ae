//! Structured event tracer: a ring buffer of timestamped events with
//! the same deterministic / wall-clock channel split as the registry.
//!
//! Deterministic events are stamped from **sim time**
//! ([`SimTime`](crate::time::SimTime)), so the event stream is a pure
//! function of the inputs and the seed tree: replaying an experiment
//! with any `--jobs` setting yields the same bytes. Wall-clock events
//! (and [`Span`]s, which time experiment phases) carry real elapsed
//! microseconds and live in a separate ring that is never part of a
//! golden comparison — the `perf_trajectory.json` carve-out generalized.
//!
//! The rings are bounded: when a channel overflows its capacity the
//! oldest events are dropped and the drop is counted, so tracing can be
//! left on in tight loops without unbounded memory growth.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// Default ring capacity per channel.
pub const DEFAULT_CAPACITY: usize = 4096;

/// One traced event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Position in the channel's stream (monotonic, counts drops too).
    pub seq: u64,
    /// Timestamp: sim-time milliseconds on the deterministic channel,
    /// elapsed real microseconds since tracer creation on the
    /// wall-clock channel.
    pub t: u64,
    /// Owning subsystem (`serve`, `par`, `netsim`, `spec`, `dissem`…).
    pub subsystem: String,
    /// Event name (`shed`, `fault.link_down`, `phase.end`…).
    pub name: String,
    /// Free-form detail, already formatted.
    pub detail: String,
}

#[derive(Debug)]
struct Ring {
    cap: usize,
    events: VecDeque<Event>,
    seq: u64,
    dropped: u64,
}

impl Ring {
    fn new(cap: usize) -> Ring {
        Ring {
            cap: cap.max(1),
            events: VecDeque::new(),
            seq: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, t: u64, subsystem: &str, name: &str, detail: String) {
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(Event {
            seq: self.seq,
            t,
            subsystem: subsystem.to_string(),
            name: name.to_string(),
            detail,
        });
        self.seq += 1;
    }
}

#[derive(Debug)]
struct TracerInner {
    det: Ring,
    wall: Ring,
}

/// A cloneable, ring-buffered event tracer (see module docs).
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<Mutex<TracerInner>>,
    epoch: Instant,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(DEFAULT_CAPACITY)
    }
}

impl Tracer {
    /// A tracer holding up to `capacity` events **per channel**.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            inner: Arc::new(Mutex::new(TracerInner {
                det: Ring::new(capacity),
                wall: Ring::new(capacity),
            })),
            epoch: Instant::now(),
        }
    }

    /// Records a deterministic event stamped with sim time.
    pub fn event(&self, at: SimTime, subsystem: &str, name: &str, detail: impl Into<String>) {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inner
            .det
            .push(at.as_millis(), subsystem, name, detail.into());
    }

    /// Records a wall-clock event stamped with elapsed real
    /// microseconds since the tracer was created.
    pub fn wall_event(&self, subsystem: &str, name: &str, detail: impl Into<String>) {
        let t = self.epoch.elapsed().as_micros() as u64;
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.wall.push(t, subsystem, name, detail.into());
    }

    /// Opens a wall-clock span for an experiment phase. The span
    /// records a `<name>.begin` event now and a `<name>.end` event
    /// (with the elapsed microseconds) when dropped or [`Span::end`]ed.
    pub fn span(&self, subsystem: &str, name: &str) -> Span {
        self.wall_event(subsystem, &format!("{name}.begin"), String::new());
        Span {
            tracer: self.clone(),
            subsystem: subsystem.to_string(),
            name: name.to_string(),
            started: Instant::now(),
            done: false,
        }
    }

    /// A copy of the deterministic channel, oldest first.
    pub fn deterministic_events(&self) -> Vec<Event> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .det
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// A copy of the wall-clock channel, oldest first.
    pub fn wallclock_events(&self) -> Vec<Event> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .wall
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Events dropped to ring overflow: `(deterministic, wall-clock)`.
    pub fn dropped(&self) -> (u64, u64) {
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        (inner.det.dropped, inner.wall.dropped)
    }

    /// Renders one channel as JSON Lines (one event object per line).
    pub fn to_jsonl(&self, channel: super::registry::Channel) -> String {
        let events = match channel {
            super::registry::Channel::Deterministic => self.deterministic_events(),
            super::registry::Channel::WallClock => self.wallclock_events(),
        };
        let mut out = String::new();
        for e in &events {
            // `serde::Value`'s Display is compact JSON, so core needs no
            // serde_json dependency to export.
            out.push_str(&e.to_value().to_string());
            out.push('\n');
        }
        out
    }
}

/// A live wall-clock phase span (see [`Tracer::span`]).
#[derive(Debug)]
pub struct Span {
    tracer: Tracer,
    subsystem: String,
    name: String,
    started: Instant,
    done: bool,
}

impl Span {
    /// Closes the span explicitly (otherwise `Drop` closes it).
    pub fn end(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        let us = self.started.elapsed().as_micros();
        self.tracer.wall_event(
            &self.subsystem,
            &format!("{}.end", self.name),
            format!("elapsed_us={us}"),
        );
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::super::registry::Channel;
    use super::*;

    #[test]
    fn deterministic_events_keep_sim_time_and_order() {
        let tr = Tracer::new(16);
        tr.event(SimTime::from_secs(1), "netsim", "fault.link_down", "node=3");
        tr.event(SimTime::from_secs(2), "netsim", "fault.crash", "node=1");
        let evs = tr.deterministic_events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].t, 1000);
        assert_eq!(evs[0].seq, 0);
        assert_eq!(evs[1].name, "fault.crash");
        assert!(tr.wallclock_events().is_empty(), "channels are separate");
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let tr = Tracer::new(2);
        for i in 0..5u64 {
            tr.event(SimTime(i), "x", "e", i.to_string());
        }
        let evs = tr.deterministic_events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].detail, "3");
        assert_eq!(evs[1].seq, 4, "seq keeps counting across drops");
        assert_eq!(tr.dropped(), (3, 0));
    }

    #[test]
    fn span_records_begin_and_end() {
        let tr = Tracer::new(16);
        {
            let _s = tr.span("bench", "phase.sweep");
        }
        let evs = tr.wallclock_events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].name, "phase.sweep.begin");
        assert_eq!(evs[1].name, "phase.sweep.end");
        assert!(evs[1].detail.starts_with("elapsed_us="));
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let tr = Tracer::new(16);
        tr.event(SimTime::ZERO, "spec", "push", "obj=1");
        tr.event(SimTime::from_millis(5), "spec", "push", "obj=2");
        let jsonl = tr.to_jsonl(Channel::Deterministic);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        let v: serde_json::Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(v["t"], 5);
        assert_eq!(v["subsystem"], "spec");
    }
}
