//! Parallel sweep execution.
//!
//! Design-space sweeps (the Fig. 2–5 experiments, [`crate::dse::sweep`],
//! mapper comparisons) are embarrassingly parallel: every point is an
//! independent *(system, workload, options)* evaluation. [`SweepRunner`]
//! fans a list of points out over a scoped thread pool and returns the
//! results in input order, so callers keep the exact semantics of their
//! old sequential loops — including "fail on the *first* erroring point".
//!
//! `rayon` is the obvious tool here, but this workspace builds without
//! registry access, so the runner uses `std::thread::scope` with an
//! atomic work-stealing cursor instead; for the coarse-grained points a
//! sweep evaluates (whole-network evaluations taking milliseconds each)
//! the scheduling overhead is negligible.
//!
//! # Examples
//!
//! ```
//! use lumen_core::SweepRunner;
//!
//! let squares = SweepRunner::new().run(0..8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::num::NonZeroUsize;
use std::sync::{LockResult, Mutex, OnceLock, PoisonError};
use std::thread;

/// Largest worker count the `LUMEN_SWEEP_THREADS` override accepts.
/// Anything larger is a typo or a unit confusion (sweeps are
/// coarse-grained; thousands of workers would only thrash), so such
/// values fall back to available parallelism rather than spawning an
/// absurd pool.
pub const MAX_FORCED_THREADS: usize = 512;

/// Validates a `LUMEN_SWEEP_THREADS` value: a whole number in
/// `1..=MAX_FORCED_THREADS`. Returns the reason it was rejected
/// otherwise.
fn parse_thread_override(value: &str) -> Result<usize, &'static str> {
    let Ok(n) = value.trim().parse::<usize>() else {
        return Err("expected a whole-number thread count");
    };
    if n == 0 {
        return Err("thread count must be at least 1");
    }
    if n > MAX_FORCED_THREADS {
        return Err("thread count is implausibly large");
    }
    Ok(n)
}

/// Runs independent evaluation points across worker threads, preserving
/// input order in the results.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    threads: NonZeroUsize,
}

impl Default for SweepRunner {
    fn default() -> Self {
        SweepRunner::new()
    }
}

impl SweepRunner {
    /// A runner sized to the machine's available parallelism, or to the
    /// `LUMEN_SWEEP_THREADS` environment variable when set (useful to
    /// force sequential execution for profiling or flaky-CI bisection).
    ///
    /// Invalid overrides — non-numeric values, `0`, or counts above
    /// [`MAX_FORCED_THREADS`] — are ignored with a one-time warning and
    /// the runner falls back to available parallelism.
    pub fn new() -> SweepRunner {
        // Resolved (and any parse warning printed) once per process:
        // sweeps are constructed inside bench iteration loops, where a
        // per-construction warning would flood stderr, and every
        // evaluation session builds a runner, where re-reading the
        // machine's parallelism (cgroup files on Linux) would cost
        // ~20 µs each time.
        static THREADS: OnceLock<NonZeroUsize> = OnceLock::new();
        let threads = *THREADS.get_or_init(|| {
            let forced = match std::env::var("LUMEN_SWEEP_THREADS") {
                Ok(value) => match parse_thread_override(&value) {
                    Ok(n) => NonZeroUsize::new(n),
                    Err(reason) => {
                        eprintln!(
                            "warning: ignoring LUMEN_SWEEP_THREADS={value:?} ({reason}); \
                             using available parallelism"
                        );
                        None
                    }
                },
                Err(_) => None,
            };
            forced.unwrap_or_else(|| thread::available_parallelism().unwrap_or(NonZeroUsize::MIN))
        });
        SweepRunner { threads }
    }

    /// A runner with an explicit worker count (`0` is clamped to `1`).
    /// `with_threads(1)` degenerates to a sequential loop on the calling
    /// thread — useful for debugging and deterministic profiling.
    pub fn with_threads(threads: usize) -> SweepRunner {
        SweepRunner {
            threads: NonZeroUsize::new(threads).unwrap_or(NonZeroUsize::MIN),
        }
    }

    /// The number of worker threads this runner evaluates on, the
    /// calling thread included.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// Evaluates `eval` on every point, in parallel, returning results in
    /// the points' input order.
    pub fn run<P, R, F>(&self, points: impl IntoIterator<Item = P>, eval: F) -> Vec<R>
    where
        P: Send,
        R: Send,
        F: Fn(P) -> R + Sync,
    {
        let outcomes = self.dispatch(points, |p| Ok::<R, Never>(eval(p)));
        outcomes
            .into_iter()
            .map(|r| match r {
                Ok(v) => v,
                Err(never) => match never {},
            })
            .collect()
    }

    /// Fallible variant of [`run`](SweepRunner::run): evaluates every
    /// point and returns either all results (input order) or the error of
    /// the **earliest** failing point — the same error a sequential
    /// `for` loop with `?` would have surfaced, so parallelism never
    /// changes which error callers observe.
    ///
    /// All points are evaluated even when one fails early; sweep points
    /// are cheap enough that cancellation machinery isn't worth the
    /// complexity.
    pub fn try_run<P, R, E, F>(
        &self,
        points: impl IntoIterator<Item = P>,
        eval: F,
    ) -> Result<Vec<R>, E>
    where
        P: Send,
        R: Send,
        E: Send,
        F: Fn(P) -> Result<R, E> + Sync,
    {
        let outcomes = self.dispatch(points, eval);
        let mut results = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            results.push(outcome?);
        }
        Ok(results)
    }

    /// Work-stealing core: evaluates every point, returning one outcome
    /// per point in input order. Workers — the calling thread and
    /// `threads - 1` spawned ones — pull *(index, point)* pairs from a
    /// shared queue — locked only to pop, never while evaluating — and
    /// buffer outcomes locally, so the merge at the end is the only other
    /// synchronization point.
    fn dispatch<P, R, E, F>(
        &self,
        points: impl IntoIterator<Item = P>,
        eval: F,
    ) -> Vec<Result<R, E>>
    where
        P: Send,
        R: Send,
        E: Send,
        F: Fn(P) -> Result<R, E> + Sync,
    {
        let points: Vec<P> = points.into_iter().collect();
        let n = points.len();
        let workers = self.threads.get().min(n);

        if workers <= 1 {
            return points.into_iter().map(eval).collect();
        }

        let queue = Mutex::new(points.into_iter().enumerate());
        let merged: Mutex<Vec<(usize, Result<R, E>)>> = Mutex::new(Vec::with_capacity(n));
        let work = || {
            let mut local = Vec::new();
            loop {
                let next = recover(queue.lock()).next();
                let Some((i, point)) = next else { break };
                local.push((i, eval(point)));
            }
            recover(merged.lock()).extend(local);
        };
        // The calling thread is one of the workers, so a dispatch spawns
        // one thread fewer (a scope with two no-op spawns costs ~53 µs
        // on a 2-core host).
        thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(work);
            }
            work();
        });

        let mut outcomes = recover(merged.into_inner());
        debug_assert_eq!(outcomes.len(), n, "every point evaluated exactly once");
        outcomes.sort_by_key(|(i, _)| *i);
        outcomes.into_iter().map(|(_, outcome)| outcome).collect()
    }
}

/// A lock guard (or a lock's contents), recovered if a panicking holder
/// poisoned the lock: the queue is only popped and the merge buffer only
/// extended under it, so neither is ever left half-updated. (A panicking
/// worker still propagates out of `thread::scope`.)
fn recover<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Local stand-in for the unstable `!` type, so [`SweepRunner::run`] can
/// reuse the fallible dispatch path.
enum Never {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Condvar;
    use std::time::Duration;

    #[test]
    fn preserves_input_order() {
        let runner = SweepRunner::with_threads(4);
        let out = runner.run(0..64, |i| i * 2);
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn evaluates_every_point_exactly_once() {
        let runner = SweepRunner::with_threads(8);
        let hits = AtomicUsize::new(0);
        let out = runner.run(0..100, |i| {
            hits.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        assert_eq!(out.iter().copied().collect::<HashSet<_>>().len(), 100);
    }

    #[test]
    fn try_run_reports_earliest_error() {
        let runner = SweepRunner::with_threads(4);
        let result: Result<Vec<usize>, String> = runner.try_run(0..32, |i| {
            if i == 20 || i == 5 {
                Err(format!("point {i} failed"))
            } else {
                Ok(i)
            }
        });
        // Two points fail; the sequential-equivalent error is the lower
        // index regardless of which thread finished first.
        assert_eq!(result.unwrap_err(), "point 5 failed");
    }

    #[test]
    fn try_run_ok_keeps_order() {
        let runner = SweepRunner::with_threads(3);
        let result: Result<Vec<usize>, ()> = runner.try_run(0..10, Ok);
        assert_eq!(result.unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_runner_is_sequential_and_correct() {
        let runner = SweepRunner::with_threads(1);
        assert_eq!(runner.threads(), 1);
        let out = runner.run(0..5, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(SweepRunner::with_threads(0).threads(), 1);
    }

    #[test]
    fn thread_override_accepts_sane_counts() {
        assert_eq!(parse_thread_override("1"), Ok(1));
        assert_eq!(parse_thread_override(" 8 "), Ok(8));
        assert_eq!(
            parse_thread_override(&MAX_FORCED_THREADS.to_string()),
            Ok(MAX_FORCED_THREADS)
        );
    }

    #[test]
    fn thread_override_rejects_zero() {
        assert!(parse_thread_override("0").is_err());
        assert!(parse_thread_override(" 0 ").is_err());
    }

    #[test]
    fn thread_override_rejects_non_numeric() {
        for bad in ["", "auto", "four", "2.5", "-3", "8x", "0x10"] {
            assert!(parse_thread_override(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn thread_override_rejects_huge_values() {
        assert!(parse_thread_override("513").is_err());
        assert!(parse_thread_override("4294967296").is_err());
        // Larger than usize::MAX: must not panic, just reject.
        assert!(parse_thread_override("99999999999999999999999999").is_err());
    }

    #[test]
    fn empty_sweep_returns_empty() {
        let runner = SweepRunner::new();
        let out: Vec<u8> = runner.run(std::iter::empty::<u8>(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn a_two_thread_runner_works_on_the_caller_and_one_spawned_thread() {
        let caller = thread::current().id();
        let workers = (Mutex::new(HashSet::new()), Condvar::new());
        let out = SweepRunner::with_threads(2).run(0..16, |i| {
            // A worker's first point waits (for at most 10 s) until a
            // second worker starts, so neither drains the queue alone.
            let (started, arrival) = &workers;
            let mut started = started.lock().unwrap();
            if started.insert(thread::current().id()) {
                arrival.notify_all();
                let wait = Duration::from_secs(10);
                drop(arrival.wait_timeout_while(started, wait, |s| s.len() < 2));
            }
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
        let workers = workers.0.into_inner().unwrap();
        assert!(workers.contains(&caller), "the caller evaluated nothing");
        assert_eq!(workers.len(), 2, "{} worker threads", workers.len());
    }

    #[test]
    fn parallel_matches_sequential() {
        let work = |i: usize| (i * 31 + 7) % 97;
        let seq = SweepRunner::with_threads(1).run(0..200, work);
        let par = SweepRunner::with_threads(8).run(0..200, work);
        assert_eq!(seq, par);
    }
}
