//! Deterministic scoped parallelism.
//!
//! Every hot path in the workspace is a pure function of its inputs plus
//! a [`SeedTree`](crate::rng::SeedTree) node, which makes *bit-identical
//! deterministic parallelism* possible: as long as each work item derives
//! its randomness from its **own** seed-tree child (never from a shared
//! sequential RNG), the result of mapping a function over a slice cannot
//! depend on how the items are scheduled across threads.
//!
//! [`Pool::map_indexed`] is the one primitive everything builds on. Its
//! contract:
//!
//! 1. **Order preservation** — output slot `i` holds `f(i, &items[i])`,
//!    regardless of worker count or scheduling.
//! 2. **Purity obligation (caller's side)** — `f` must not read mutable
//!    shared state or a shared RNG; per-item randomness comes from
//!    `SeedTree::child_idx`.
//! 3. **Serial equivalence** — with `jobs == 1` (or one item) the map
//!    runs inline on the caller's thread; parallel output is
//!    byte-identical to that serial output by (1) + (2).
//!
//! The pool is *scoped* (workers are joined before the call returns) and
//! *work-sharing* (an atomic cursor hands out the next item to whichever
//! worker is free, so uneven item costs still balance). There are no
//! external dependencies and no unsafe code: results land in per-slot
//! mutexes, which are uncontended by construction.
//!
//! The process-wide default worker count is resolved once from
//! `SPECWEB_JOBS` (if set) or `std::thread::available_parallelism`, and
//! can be pinned by binaries (e.g. `figures --jobs N`) via
//! [`set_default_jobs`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide default jobs; 0 means "not yet resolved".
static DEFAULT_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Pins the process-wide default worker count (clamped to ≥ 1).
///
/// Call this once at binary startup (`figures --jobs N`); library code
/// that uses [`Pool::auto`] then follows the same setting, so `--jobs 1`
/// makes the whole process run serially.
pub fn set_default_jobs(jobs: usize) {
    DEFAULT_JOBS.store(jobs.max(1), Ordering::SeqCst);
}

/// The process-wide default worker count.
///
/// Resolution order: the value pinned by [`set_default_jobs`], else the
/// `SPECWEB_JOBS` environment variable, else
/// `std::thread::available_parallelism()`, else 1.
pub fn default_jobs() -> usize {
    let pinned = DEFAULT_JOBS.load(Ordering::SeqCst);
    if pinned != 0 {
        return pinned;
    }
    let resolved = std::env::var("SPECWEB_JOBS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    // Cache the resolution so later calls (and later `Pool::auto`s) are
    // consistent even if the environment changes mid-run.
    DEFAULT_JOBS.store(resolved, Ordering::SeqCst);
    resolved
}

/// A scoped work-sharing thread pool of a fixed width.
///
/// `Pool` is a configuration value, not a set of live threads: workers
/// are spawned per call and joined before the call returns, so a `Pool`
/// can be kept in a `const`-like position or created ad hoc.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    jobs: usize,
}

impl Pool {
    /// A pool of `jobs` workers (clamped to ≥ 1; 1 means fully serial).
    pub fn new(jobs: usize) -> Pool {
        Pool { jobs: jobs.max(1) }
    }

    /// A pool sized by [`default_jobs`].
    pub fn auto() -> Pool {
        Pool::new(default_jobs())
    }

    /// The worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Maps `f` over `items`, preserving input order (see the module
    /// docs for the determinism contract).
    ///
    /// Runs inline on the caller's thread when the pool has one worker
    /// or there is at most one item. If `f` panics on any item, the
    /// panic is propagated to the caller after all workers have joined.
    /// Workers adopt the caller's observability context, so what `f`
    /// records through [`crate::obs::current`] or [`crate::obs::frame`]
    /// lands in the caller's run for any worker count.
    pub fn map_indexed<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.jobs.min(n);
        // Dispatch accounting is execution shape, not results: callers
        // may legitimately skip the pool entirely at one worker (the
        // simulators' shard gate does), so map/task totals vary with
        // `--jobs` and sit on the wall-clock channel with the rest of
        // the scheduling marks.
        let obs = crate::obs::global();
        obs.metrics
            .counter_on("par.maps_total", crate::obs::Channel::WallClock)
            .incr();
        obs.metrics
            .counter_on("par.tasks_total", crate::obs::Channel::WallClock)
            .add(n as u64);
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        obs.metrics
            .counter_on("par.workers_spawned", crate::obs::Channel::WallClock)
            .add(workers as u64);
        let worker_high_water = obs.metrics.gauge_on(
            "par.worker_tasks_high_water",
            crate::obs::Channel::WallClock,
        );
        // Metrics recorded by `f` must land in the caller's run and
        // frames it opens must nest under the frame that dispatched
        // this map: snapshot the caller's context (bundle + open-frame
        // stack) and adopt it on every worker. Counters sum and
        // per-thread frame partials merge order-independently, so
        // snapshots and profiler call counts stay jobs-invariant.
        let obs_ctx = crate::obs::profile::current_context();
        let cursor = AtomicUsize::new(0);
        let mut slots: Vec<Mutex<Option<R>>> = Vec::with_capacity(n);
        slots.resize_with(n, || Mutex::new(None));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let _obs = crate::obs::profile::adopt_context(obs_ctx.as_ref());
                    let mut processed: u64 = 0;
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let r = f(i, &items[i]);
                        *slots[i]
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(r);
                        processed += 1;
                    }
                    worker_high_water.record(processed);
                });
            }
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    // lint:allow(G3): the atomic cursor hands out every
                    // index below `n` exactly once and the scope joins
                    // all workers, so each slot was filled; a None here
                    // is a pool bug, not a caller error.
                    .expect("every index was visited exactly once")
            })
            .collect()
    }

    /// Fallible [`Pool::map_indexed`]: maps all items, then returns the
    /// first error in **input order** (not completion order), so error
    /// reporting is as deterministic as the results.
    pub fn try_map_indexed<T, R, E, F>(&self, items: &[T], f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(usize, &T) -> Result<R, E> + Sync,
    {
        self.map_indexed(items, f).into_iter().collect()
    }
}

/// Free-function form of [`Pool::map_indexed`].
pub fn par_map_indexed<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    Pool::new(jobs).map_indexed(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedTree;
    use proptest::prelude::*;
    use rand::Rng as _;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let out = par_map_indexed(jobs, &items, |i, &x| (i as u64) * 1000 + x);
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, (i as u64) * 1000 + items[i], "jobs={jobs} slot {i}");
            }
        }
    }

    #[test]
    fn parallel_equals_serial_with_seed_tree_rngs() {
        // The canonical usage pattern: per-item RNG from an indexed
        // seed-tree child. Output must not depend on the worker count.
        let tree = SeedTree::new(1996);
        let items: Vec<u64> = (0..64).collect();
        let draw = |i: usize, &item: &u64| -> u64 {
            let mut rng = tree.child_idx("par-test", i as u64).rng();
            rng.gen::<u64>() ^ item
        };
        let serial = par_map_indexed(1, &items, draw);
        for jobs in [2, 4, 7] {
            assert_eq!(par_map_indexed(jobs, &items, draw), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_indexed(4, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map_indexed(4, &[7u32], |i, &x| x + i as u32), vec![7]);
    }

    #[test]
    fn try_map_reports_first_error_in_input_order() {
        let items: Vec<u32> = (0..100).collect();
        let r: Result<Vec<u32>, u32> =
            Pool::new(8).try_map_indexed(&items, |_, &x| if x % 7 == 3 { Err(x) } else { Ok(x) });
        assert_eq!(r, Err(3), "must be the first failing input, not a race");
        let ok: Result<Vec<u32>, u32> = Pool::new(8).try_map_indexed(&items, |_, &x| Ok(x * 2));
        assert_eq!(ok.unwrap()[50], 100);
    }

    #[test]
    fn pool_clamps_to_one_worker() {
        assert_eq!(Pool::new(0).jobs(), 1);
        assert_eq!(Pool::new(5).jobs(), 5);
    }

    #[test]
    fn profiler_frames_cross_worker_threads_with_invariant_counts() {
        // Frames opened inside the mapped closure must nest under the
        // caller's open frame, and the per-path call counts must not
        // depend on the worker count — the profiler's deterministic-
        // channel contract.
        let items: Vec<u64> = (0..40).collect();
        let count_for = |jobs: usize| {
            let obs = crate::obs::Obs::new();
            {
                let _g = obs.install();
                let _dispatch = crate::obs::profile::frame("dispatch");
                let _ = par_map_indexed(jobs, &items, |_, &x| {
                    let _f = crate::obs::profile::frame("item");
                    x * 2
                });
            }
            obs.profile.snapshot()
        };
        let serial = count_for(1);
        assert_eq!(serial["dispatch;item"].calls, 40);
        assert_eq!(serial["dispatch"].calls, 1);
        for jobs in [2, 4, 8] {
            let snap = count_for(jobs);
            assert_eq!(
                snap["dispatch;item"].calls, 40,
                "jobs={jobs} changed the call count"
            );
            assert_eq!(
                snap.keys().collect::<Vec<_>>(),
                serial.keys().collect::<Vec<_>>(),
                "jobs={jobs} changed the path set"
            );
        }
    }

    #[test]
    fn metrics_recorded_on_workers_land_in_the_installed_bundle() {
        // The recording sites' contract: `obs::current()` inside a
        // mapped closure is the dispatching thread's bundle, so a run's
        // snapshot is the same for every worker count.
        let items: Vec<u64> = (0..40).collect();
        let snapshot_for = |jobs: usize| {
            let obs = crate::obs::Obs::new();
            {
                let _g = obs.install();
                let pool = Pool::new(jobs);
                pool.map_indexed(&items, |_, &x| {
                    let run = crate::obs::current().expect("adopted");
                    run.metrics.counter("test.sum").add(x);
                });
                pool.try_map_indexed(&items, |_, _| {
                    let run = crate::obs::current().expect("adopted");
                    run.metrics.counter("test.items").incr();
                    Ok::<_, ()>(())
                })
                .unwrap();
            }
            obs.snapshot().deterministic
        };
        let serial = snapshot_for(1);
        assert_eq!(
            serial["test.sum"],
            crate::obs::MetricValue::Counter { value: 780 }
        );
        assert_eq!(
            serial["test.items"],
            crate::obs::MetricValue::Counter { value: 40 }
        );
        for jobs in [2, 4] {
            assert_eq!(snapshot_for(jobs), serial, "jobs={jobs}");
        }
        // Workers restore their own (empty) context; the caller's is
        // untouched by the map.
        assert!(crate::obs::current().is_none());
    }

    #[test]
    fn uneven_item_costs_still_land_in_order() {
        // Early items are the slowest, so late items finish first; the
        // output order must be unaffected.
        let items: Vec<u64> = (0..32).collect();
        let out = par_map_indexed(8, &items, |i, &x| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn par_map_equals_serial_map(
            xs in prop::collection::vec(-1_000_000i64..1_000_000, 0..128),
            jobs in 1usize..9,
        ) {
            let f = |i: usize, &x: &i64| x.wrapping_mul(31).wrapping_add(i as i64);
            let serial: Vec<i64> = xs.iter().enumerate().map(|(i, x)| f(i, x)).collect();
            prop_assert_eq!(par_map_indexed(jobs, &xs, f), serial);
        }
    }
}
