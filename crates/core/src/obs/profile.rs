//! The ambient per-run context, and the span-tree profiler that rides
//! it.
//!
//! A run's instrumentation reaches its sink through one door: a
//! thread-local `(bundle, stack)` pair installed by [`super::Obs::install`].
//! [`current`] hands the bundle's registry to the metric recording
//! sites and [`frame`] charges the bundle's [`Profiler`]; with nothing
//! installed `current()` is `None` and a frame is a no-op (one
//! thread-local borrow either way), so library code is instrumented
//! unconditionally and records nothing outside a run.
//! [`crate::par::Pool`] snapshots the caller's context before spawning
//! workers and adopts it on each worker thread, so metrics recorded by
//! fanned-out work land in the dispatching run's registry and its
//! frames nest under the frame that dispatched it — the span tree
//! crosses thread boundaries without any global registry.
//!
//! A [`Profiler`] aggregates *frames* — named, nested regions of work —
//! into a map keyed by the **collapsed call path** (`"exp-size;spec.replay"`),
//! the format flamegraph tools consume. Two numbers are kept per path:
//!
//! * **calls** — how many frames closed on that path. Frames are placed
//!   at scheduling-invariant sites (one per experiment, one per
//!   simulation phase), so call counts are part of the deterministic
//!   channel: the same workload yields the same counts for any `--jobs`.
//! * **wall nanoseconds** — real elapsed time, the wall-clock channel.
//!   Profiles are diagnostics, never inputs: `profile_<exp>.txt` files
//!   are excluded from the CI byte-diff exactly like `perf_trajectory.json`.
//!
//! Per-thread partials merge into the profiler's `BTreeMap` under a
//! poison-recovering mutex; the merge is a key-ordered,
//! order-independent sum, hence deterministic.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Separator between frame names in a collapsed path (the flamegraph
/// convention).
pub const PATH_SEPARATOR: char = ';';

/// The synthetic child [`Profiler::collapsed`] gives every root: its
/// wall time not covered by a depth-1 child frame.
const UNATTRIBUTED: &str = "<unattributed>";

/// Aggregated cost of one collapsed call path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameStat {
    /// Frames closed on this path (deterministic channel).
    pub calls: u64,
    /// Total wall time spent in those frames, including children
    /// (wall-clock channel).
    pub wall_ns: u64,
}

/// A span-tree aggregate shared by every thread working under it; the
/// `profile` half of a run's [`super::Obs`] bundle.
#[derive(Debug, Default)]
pub struct Profiler {
    paths: Mutex<BTreeMap<String, FrameStat>>,
}

thread_local! {
    static CONTEXT: RefCell<Option<Context>> = const { RefCell::new(None) };
}

/// The per-thread context: the run's bundle (where metrics and frames
/// report), and the stack of open frame names on this thread (seeded
/// from the parent thread when the pool propagates it).
#[derive(Debug, Clone)]
pub struct Context {
    obs: super::Obs,
    stack: Vec<String>,
}

impl super::Obs {
    /// Installs `self` as the current thread's context (empty frame
    /// stack) until the guard drops; the previous context is restored.
    pub fn install(&self) -> ContextGuard {
        let prev = CONTEXT.with(|c| {
            c.borrow_mut().replace(Context {
                obs: self.clone(),
                stack: Vec::new(),
            })
        });
        ContextGuard { prev }
    }
}

/// The bundle installed on this thread, or `None` outside a run — the
/// recording sites' one way to a registry. Costs a thread-local borrow
/// and two `Arc` clones, so sites call it once per pass, never per
/// access.
pub fn current() -> Option<super::Obs> {
    CONTEXT.with(|c| c.borrow().as_ref().map(|ctx| ctx.obs.clone()))
}

impl Profiler {
    fn record(&self, path: String, wall_ns: u64) {
        let mut map = self
            .paths
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let stat = map.entry(path).or_default();
        stat.calls += 1;
        stat.wall_ns += wall_ns;
    }

    /// The aggregated paths, key-sorted. Calls are deterministic for
    /// scheduling-invariant frame placement; wall times are not.
    pub fn snapshot(&self) -> BTreeMap<String, FrameStat> {
        self.paths
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Renders the aggregate as collapsed-stack text, one
    /// `path calls <n> wall_us <µs>` line per path, sorted by path —
    /// the `results/profile_<exp>.txt` format. Feeding the last column
    /// to a flamegraph renderer draws the span tree to scale.
    ///
    /// Every root also gets a `root;<unattributed> calls 1` line: the
    /// root's wall time less its depth-1 children's, saturating at 0
    /// (children on parallel workers can sum past the root). It is
    /// always present, so the path set stays jobs-invariant.
    pub fn collapsed(&self) -> String {
        let mut paths = self.snapshot();
        // A root sorts before its children, so its line exists by the
        // time they are subtracted from it.
        for (path, stat) in paths.clone() {
            let (root, child) = path.split_once(PATH_SEPARATOR).unwrap_or((&path, ""));
            let self_time = paths.entry(format!("{root}{PATH_SEPARATOR}{UNATTRIBUTED}"));
            if child.is_empty() {
                self_time.or_insert(FrameStat { calls: 1, ..stat });
            } else if !child.contains(PATH_SEPARATOR) {
                self_time.and_modify(|s| s.wall_ns = s.wall_ns.saturating_sub(stat.wall_ns));
            }
        }
        let mut out = String::new();
        for (path, stat) in paths {
            out.push_str(&format!(
                "{path} calls {} wall_us {}\n",
                stat.calls,
                stat.wall_ns / 1_000
            ));
        }
        out
    }
}

/// Restores the previous thread-local context on drop.
#[derive(Debug)]
pub struct ContextGuard {
    prev: Option<Context>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CONTEXT.with(|c| {
            *c.borrow_mut() = self.prev.take();
        });
    }
}

/// Snapshot of the current thread's context, for handing to a worker
/// thread (used by [`crate::par::Pool::map_indexed`]). `None` when
/// nothing is installed — adopting `None` is a no-op.
pub fn current_context() -> Option<Context> {
    CONTEXT.with(|c| c.borrow().clone())
}

/// Adopts a context snapshot on this thread (bundle *and* open-frame
/// stack, so metrics land in the dispatching run's registry and frames
/// opened on this thread nest under the frame that dispatched the
/// work). Restores the previous context when the guard
/// drops.
pub fn adopt_context(ctx: Option<&Context>) -> ContextGuard {
    let prev = CONTEXT.with(|c| match ctx {
        Some(ctx) => c.borrow_mut().replace(ctx.clone()),
        None => c.borrow_mut().take(),
    });
    ContextGuard { prev }
}

/// Opens a frame named `name` under the current thread's context.
///
/// Returns a guard that closes the frame on drop, charging the elapsed
/// wall time to the collapsed path of every frame open on this thread.
/// No-op (and allocation-free) when nothing is installed.
pub fn frame(name: &str) -> Frame {
    let opened = CONTEXT.with(|c| {
        let mut ctx = c.borrow_mut();
        match ctx.as_mut() {
            Some(ctx) => {
                ctx.stack.push(name.to_string());
                true
            }
            None => false,
        }
    });
    Frame {
        // Wall-clock profiling is the entire point of a frame — a
        // sanctioned read inside the `core::obs` wall channel. It feeds
        // only wall_ns and the rm'd-before-diff profile files, never a
        // deterministic output; call *counts* stay jobs-invariant by
        // frame placement.
        started: opened.then(Instant::now),
    }
}

/// An open profiling frame; closes (and reports) on drop.
#[derive(Debug)]
pub struct Frame {
    /// `None` when nothing was installed at open time.
    started: Option<Instant>,
}

impl Drop for Frame {
    fn drop(&mut self) {
        let Some(started) = self.started else {
            return;
        };
        let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        CONTEXT.with(|c| {
            let mut ctx = c.borrow_mut();
            let Some(ctx) = ctx.as_mut() else {
                // The context was replaced while the frame was open
                // (guard misuse); drop the measurement rather than
                // charging it to the wrong tree.
                return;
            };
            let path = ctx.stack.join(&PATH_SEPARATOR.to_string());
            ctx.stack.pop();
            if !path.is_empty() {
                ctx.obs.profile.record(path, wall_ns);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::Obs;

    #[test]
    fn frames_nest_into_collapsed_paths() {
        let obs = Obs::new();
        {
            let _g = obs.install();
            let _outer = frame("outer");
            {
                let _inner = frame("inner");
            }
            {
                let _inner = frame("inner");
            }
        }
        let snap = obs.profile.snapshot();
        assert_eq!(snap["outer"].calls, 1);
        assert_eq!(snap["outer;inner"].calls, 2);
        let text = obs.profile.collapsed();
        assert!(text.contains("outer;inner calls 2 wall_us"), "{text}");
    }

    #[test]
    fn collapsed_gives_every_root_an_unattributed_line() {
        let obs = Obs::new();
        let stat = |wall_us: u64| FrameStat {
            calls: 1,
            wall_ns: wall_us * 1_000,
        };
        obs.profile.paths.lock().unwrap().extend([
            ("bare".to_string(), stat(7)),
            ("root".to_string(), stat(100)),
            ("root;a".to_string(), stat(30)),
            ("root;a;deep".to_string(), stat(25)),
            ("root;b".to_string(), stat(50)),
            // Children on parallel workers can sum past their root.
            ("wide".to_string(), stat(10)),
            ("wide;w".to_string(), stat(40)),
        ]);
        let text = obs.profile.collapsed();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.is_sorted(), "sorted by path: {text}");
        assert_eq!(lines.len(), 7 + 3);
        for want in [
            "bare;<unattributed> calls 1 wall_us 7",
            "root;<unattributed> calls 1 wall_us 20",
            "wide;<unattributed> calls 1 wall_us 0",
        ] {
            assert!(lines.contains(&want), "no `{want}` in {text}");
        }
    }

    #[test]
    fn no_context_means_no_op() {
        // Must not panic or record anywhere.
        assert!(current().is_none());
        let _f = frame("orphan");
    }

    #[test]
    fn install_restores_previous_context() {
        let a = Obs::new();
        let b = Obs::new();
        let _ga = a.install();
        {
            let _gb = b.install();
            let _f = frame("in-b");
            current().unwrap().metrics.counter("n").incr();
        }
        let _f = frame("in-a");
        drop(_f);
        current().unwrap().metrics.counter("n").add(10);
        assert!(b.profile.snapshot().contains_key("in-b"));
        assert!(a.profile.snapshot().contains_key("in-a"));
        assert!(!a.profile.snapshot().contains_key("in-b"));
        assert_eq!(b.metrics.counter("n").get(), 1);
        assert_eq!(a.metrics.counter("n").get(), 10);
    }

    #[test]
    fn adopted_context_nests_under_parent_stack() {
        let obs = Obs::new();
        let ctx = {
            let _g = obs.install();
            let _outer = frame("dispatch");
            let snap = current_context();
            // Simulate a worker thread adopting the snapshot.
            let handle = std::thread::spawn({
                let snap = snap.clone();
                move || {
                    let _adopt = adopt_context(snap.as_ref());
                    let _f = frame("work");
                }
            });
            handle.join().expect("worker");
            snap
        };
        assert!(ctx.is_some());
        let snap = obs.profile.snapshot();
        assert_eq!(snap["dispatch;work"].calls, 1);
        assert_eq!(snap["dispatch"].calls, 1);
    }

    #[test]
    fn call_counts_merge_deterministically_across_threads() {
        // N threads each close one "item" frame under the same parent:
        // the aggregate must show exactly N calls no matter how the
        // threads interleave.
        let obs = Obs::new();
        {
            let _g = obs.install();
            let _outer = frame("fan-out");
            let ctx = current_context();
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let ctx = ctx.clone();
                    std::thread::spawn(move || {
                        let _adopt = adopt_context(ctx.as_ref());
                        let _f = frame("item");
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("worker");
            }
        }
        assert_eq!(obs.profile.snapshot()["fan-out;item"].calls, 8);
    }
}
