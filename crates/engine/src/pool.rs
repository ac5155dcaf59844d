//! The bulk-synchronous worker pool.

use crate::error::EngineError;
use crate::partition::partition_ranges;
use ricd_obs::{Counter, Histogram, MetricsRegistry};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Attempts made per unit before a round is declared failed: the initial
/// parallel run, one parallel retry on a fresh thread, and a final
/// sequential fallback inline on the calling thread.
pub const MAX_PARTITION_ATTEMPTS: usize = 3;

/// What a unit claimed by a worker that died outright reports. Closure
/// panics are contained per unit, so this is allocation-failure territory;
/// the unit goes through the retry ladder like any other failure.
const WORKER_LOST: &str = "worker thread lost before reporting";

/// Deterministic chunk size for worklist scheduling: small enough that a
/// Zipf-skewed head cannot serialize the round behind one chunk, large
/// enough to amortize cursor contention and per-chunk bookkeeping.
fn worklist_chunk_size(len: usize, workers: usize) -> usize {
    (len / (workers * 16)).clamp(64, 8192)
}

/// Stringifies a panic payload (what `catch_unwind` and a failed `join`
/// hand back).
pub fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Registered metric handles for a [`WorkerPool`].
///
/// A *partition* here is one schedulable unit of a round — a range, a
/// worklist chunk or a task, see [`WorkerPool`]. Counter semantics are
/// chosen so the fault-model invariants hold by construction, round by
/// round and therefore cumulatively:
///
/// * `pool.partitions_started` — partitions launched (initial attempts only;
///   retries do not re-count). `pool.partitions_failed ≤
///   pool.partitions_started` because a round cannot fail more partitions
///   than it launched.
/// * `pool.panics_caught` — partitions whose *initial* attempt panicked
///   (0 or 1 per partition per round, regardless of how many later attempts
///   also panic).
/// * `pool.retries` — every re-execution of a failed partition, parallel or
///   sequential. Each initially-failed partition is re-executed at least
///   once, so `pool.retries ≥ pool.panics_caught`.
/// * `pool.fallback_sequential` — the subset of retries that ran inline on
///   the calling thread (the last-ditch attempt).
/// * `pool.partitions_failed` — partitions still failing after the full
///   retry budget ([`MAX_PARTITION_ATTEMPTS`]).
/// * `pool.partition_nanos` — histogram of per-partition wall time (every
///   attempt, including failed ones).
#[derive(Clone, Debug)]
pub struct PoolMetrics {
    registry: MetricsRegistry,
    partitions_started: Counter,
    panics_caught: Counter,
    retries: Counter,
    fallback_sequential: Counter,
    partitions_failed: Counter,
    partition_nanos: Histogram,
}

impl PoolMetrics {
    /// Registers (or re-attaches to) the pool metric family in `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        Self {
            registry: registry.clone(),
            partitions_started: registry.counter("pool.partitions_started"),
            panics_caught: registry.counter("pool.panics_caught"),
            retries: registry.counter("pool.retries"),
            fallback_sequential: registry.counter("pool.fallback_sequential"),
            partitions_failed: registry.counter("pool.partitions_failed"),
            partition_nanos: registry.duration_histogram("pool.partition_nanos"),
        }
    }
}

/// A fixed-width pool executing bulk-synchronous vertex rounds on scoped
/// threads.
///
/// A round is a list of *units* — even ranges of a dense index space
/// ([`try_run_partitioned`](Self::try_run_partitioned)), small chunks of a
/// sparse worklist ([`try_run_worklist`](Self::try_run_worklist)) or
/// coarse tasks ([`try_run_tasks`](Self::try_run_tasks)) — executed in
/// parallel and joined before returning: the same superstep-with-barrier
/// model Grape exposes. Threads are spawned per round; for the round sizes
/// in this workload (tens of thousands to millions of vertices) spawn cost
/// is noise, and scoped threads let closures borrow the graph without `Arc`.
///
/// # Fault contract
///
/// All three entry points schedule through one core, so one contract holds
/// for every kind of unit. A panic in a unit's closure does not abort the
/// round or poison the other units: the failed unit is retried on a fresh
/// thread with fresh worker state, then once more sequentially on the
/// calling thread ([`MAX_PARTITION_ATTEMPTS`] attempts in all), and only if
/// that also panics does the round fail, with
/// [`EngineError::PartitionPanicked`] naming the first such unit. Retrying
/// re-invokes the closure on the same unit, so closures must be pure (or at
/// least idempotent per unit) — everything the detection pipeline submits
/// is. Units double as partitions for the `pool.*` metric family
/// ([`PoolMetrics`]).
#[derive(Clone, Debug)]
pub struct WorkerPool {
    workers: usize,
    metrics: Option<PoolMetrics>,
}

impl WorkerPool {
    /// A pool with `workers` threads.
    ///
    /// # Panics
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "worker count must be positive");
        Self {
            workers,
            metrics: None,
        }
    }

    /// Attaches a metrics registry; the pool records per-partition wall time
    /// and fault/retry counters under the `pool.*` metric family (see
    /// [`PoolMetrics`]).
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.metrics = Some(PoolMetrics::register(registry));
        self
    }

    /// A pool sized to the machine (`available_parallelism`, capped at the
    /// paper's default of 16 workers).
    pub fn default_for_host() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(16);
        Self::new(n)
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The scheduler core under every entry point: runs `unit(&mut state,
    /// i)` once per `i in 0..units` and returns the results in unit order,
    /// under the [fault contract](Self#fault-contract).
    ///
    /// `min(workers, units)` scoped threads claim unit indices through an
    /// atomic cursor, so whatever the cost skew every thread stays busy
    /// until the list drains; when that minimum is 1 everything runs inline
    /// on the caller and no thread is spawned. `init` builds a worker's
    /// scratch state lazily, on the first unit it claims; the state is
    /// reused across that worker's units and dropped when a unit panics
    /// (the panic may have left it inconsistent), so no later unit ever
    /// sees it.
    fn run_units<S, T, I, U>(&self, units: usize, init: I, unit: U) -> Result<Vec<T>, EngineError>
    where
        T: Send,
        I: Fn() -> S + Sync,
        U: Fn(&mut S, usize) -> T + Sync,
    {
        let metrics = self.metrics.as_ref();
        // One timed, panic-contained execution of unit `i`, first or repeat.
        let attempt = |state: &mut Option<S>, i: usize| -> Result<T, String> {
            let st = state.get_or_insert_with(&init);
            let started = metrics.map(|m| m.registry.clock().now());
            let res = catch_unwind(AssertUnwindSafe(|| unit(st, i)))
                .map_err(|p| panic_message(p.as_ref()));
            if let (Some(m), Some(started)) = (metrics, started) {
                let spent = m.registry.clock().now().saturating_sub(started);
                m.partition_nanos.observe_duration(spent);
            }
            if res.is_err() {
                *state = None;
            }
            res
        };
        let attempt = &attempt;

        let threads = self.workers.min(units);
        let mut slots: Vec<Result<T, String>> = if threads <= 1 {
            let mut state = None;
            (0..units).map(|i| attempt(&mut state, i)).collect()
        } else {
            let cursor = AtomicUsize::new(0);
            let claimed: Vec<Vec<(usize, Result<T, String>)>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        s.spawn(|| {
                            let (mut state, mut done) = (None, Vec::new());
                            loop {
                                let i = cursor.fetch_add(1, Ordering::Relaxed);
                                if i >= units {
                                    break done;
                                }
                                done.push((i, attempt(&mut state, i)));
                            }
                        })
                    })
                    .collect();
                handles.into_iter().filter_map(|h| h.join().ok()).collect()
            });
            let mut slots: Vec<_> = (0..units).map(|_| Err(WORKER_LOST.to_string())).collect();
            for (i, res) in claimed.into_iter().flatten() {
                slots[i] = res;
            }
            slots
        };
        if let Some(m) = metrics {
            m.partitions_started.add(units as u64);
            m.panics_caught
                .add(slots.iter().filter(|s| s.is_err()).count() as u64);
        }

        for attempt_no in 1..MAX_PARTITION_ATTEMPTS {
            let failed: Vec<usize> = (0..units).filter(|&i| slots[i].is_err()).collect();
            if failed.is_empty() {
                break;
            }
            let sequential = attempt_no + 1 == MAX_PARTITION_ATTEMPTS;
            if let Some(m) = metrics {
                m.retries.add(failed.len() as u64);
                if sequential {
                    m.fallback_sequential.add(failed.len() as u64);
                }
            }
            if sequential {
                // Last attempt: inline on the calling thread with fresh
                // state, so a fault tied to worker-thread state or a
                // poisoned scratch cannot recur.
                for i in failed {
                    slots[i] = attempt(&mut None, i);
                }
            } else {
                let retried: Vec<Result<T, String>> = std::thread::scope(|s| {
                    let handles: Vec<_> = failed
                        .iter()
                        .map(|&i| s.spawn(move || attempt(&mut None, i)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().unwrap_or_else(|p| Err(panic_message(p.as_ref()))))
                        .collect()
                });
                for (i, res) in failed.into_iter().zip(retried) {
                    slots[i] = res;
                }
            }
        }
        if let Some(m) = metrics {
            m.partitions_failed
                .add(slots.iter().filter(|s| s.is_err()).count() as u64);
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(partition, slot)| {
                slot.map_err(|message| EngineError::PartitionPanicked {
                    partition,
                    attempts: MAX_PARTITION_ATTEMPTS,
                    message,
                })
            })
            .collect()
    }

    /// Runs `f(range)` once per partition of `0..n`, in parallel, returning
    /// the per-partition results in partition order.
    ///
    /// Delegates to [`try_run_partitioned`](Self::try_run_partitioned); a
    /// partition that keeps panicking after the retry budget re-raises the
    /// failure here as a panic carrying the [`EngineError`] description.
    pub fn run_partitioned<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Range<usize>) -> T + Sync,
    {
        self.try_run_partitioned(n, f)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fault-isolated [`run_partitioned`](Self::run_partitioned): the units
    /// are the (at most `workers`) even slices
    /// [`partition_ranges`] cuts `0..n` into, run under the
    /// [fault contract](Self#fault-contract).
    pub fn try_run_partitioned<T, F>(&self, n: usize, f: F) -> Result<Vec<T>, EngineError>
    where
        T: Send,
        F: Fn(Range<usize>) -> T + Sync,
    {
        let ranges = partition_ranges(n, self.workers);
        self.run_units(ranges.len(), || (), |_, i| f(ranges[i].clone()))
    }

    /// Runs `f` over a sparse worklist with dynamic (work-stealing-style)
    /// chunk scheduling, returning per-chunk results in chunk order.
    ///
    /// Delegates to [`try_run_worklist`](Self::try_run_worklist); a chunk
    /// that keeps panicking after the retry budget re-raises the failure
    /// here as a panic carrying the [`EngineError`] description.
    pub fn run_worklist<S, T, I, F>(&self, worklist: &[u32], init: I, f: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &[u32]) -> T + Sync,
    {
        self.try_run_worklist(worklist, init, f)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fault-isolated dynamic scheduling over a sparse `&[u32]` worklist.
    ///
    /// Unlike [`try_run_partitioned`](Self::try_run_partitioned), which
    /// splits a dense index range into `workers` even slices, the units
    /// here are many small chunks of the worklist. With Zipf-skewed degrees
    /// an even split piles the expensive head vertices into one slice and
    /// the round waits on it; small claimed-on-demand chunks keep every
    /// worker busy until the list drains.
    ///
    /// `init` builds a per-worker scratch state, created lazily on a
    /// worker's first claimed chunk and reused across all its chunks, so an
    /// `O(V)` scratch is paid once per worker rather than once per chunk.
    /// `f(&mut state, chunk)` processes one chunk of worklist entries, under
    /// the [fault contract](Self#fault-contract).
    pub fn try_run_worklist<S, T, I, F>(
        &self,
        worklist: &[u32],
        init: I,
        f: F,
    ) -> Result<Vec<T>, EngineError>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &[u32]) -> T + Sync,
    {
        let chunk = worklist_chunk_size(worklist.len(), self.workers);
        self.run_units(worklist.len().div_ceil(chunk), init, |state, i| {
            f(
                state,
                &worklist[i * chunk..((i + 1) * chunk).min(worklist.len())],
            )
        })
    }

    /// Fault-isolated per-task scheduling for *coarse* work units: runs
    /// `f(i)` once per task `i in 0..n`, returning results in task order,
    /// under the [fault contract](Self#fault-contract).
    ///
    /// [`try_run_worklist`](Self::try_run_worklist) amortizes cursor
    /// traffic by claiming vertices in chunks of ≥ 64, which serializes a
    /// round of a few dozen heavy tasks (e.g. graph shards) behind one
    /// worker. Here each task is its own unit, so a round of `n` expensive
    /// closures keeps `min(workers, n)` threads busy until the list drains.
    pub fn try_run_tasks<T, F>(&self, n: usize, f: F) -> Result<Vec<T>, EngineError>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run_units(n, || (), |_, i| f(i))
    }

    /// Computes `f(i)` for every `i in 0..n` into a vector (one superstep).
    pub fn map_vertices<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        concat(self.run_partitioned(n, |r| r.map(&f).collect::<Vec<T>>()))
    }

    /// Collects the indices `i in 0..n` for which `pred(i)` holds, in
    /// ascending order (one superstep).
    pub fn filter_vertices<F>(&self, n: usize, pred: F) -> Vec<usize>
    where
        F: Fn(usize) -> bool + Sync,
    {
        concat(self.run_partitioned(n, |r| r.filter(|&i| pred(i)).collect::<Vec<usize>>()))
    }
}

/// Joins per-partition results in partition order, allocating once.
fn concat<T>(chunks: Vec<Vec<T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
    for mut c in chunks {
        out.append(&mut c);
    }
    out
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::default_for_host()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_matches_sequential() {
        let pool = WorkerPool::new(4);
        let got = pool.map_vertices(1000, |i| i * i);
        let want: Vec<usize> = (0..1000).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn map_empty() {
        let pool = WorkerPool::new(4);
        let got: Vec<u32> = pool.map_vertices(0, |_| 1);
        assert!(got.is_empty());
    }

    #[test]
    fn filter_preserves_order() {
        let pool = WorkerPool::new(3);
        let got = pool.filter_vertices(100, |i| i % 7 == 0);
        let want: Vec<usize> = (0..100).filter(|i| i % 7 == 0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn every_vertex_visited_exactly_once() {
        let pool = WorkerPool::new(8);
        let visits = AtomicUsize::new(0);
        let _ = pool.map_vertices(12345, |_| {
            visits.fetch_add(1, Ordering::Relaxed);
            0u8
        });
        assert_eq!(visits.load(Ordering::Relaxed), 12345);
    }

    #[test]
    fn single_worker_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.map_vertices(10, |i| i), (0..10).collect::<Vec<_>>());
        assert_eq!(pool.workers(), 1);
    }

    #[test]
    fn run_partitioned_returns_in_order() {
        let pool = WorkerPool::new(4);
        let ids = pool.run_partitioned(10, |r| r.start);
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_workers_rejected() {
        WorkerPool::new(0);
    }

    #[test]
    fn results_independent_of_worker_count() {
        let n = 997;
        let seq: Vec<usize> = WorkerPool::new(1).map_vertices(n, |i| i.wrapping_mul(31));
        for w in [2, 3, 7, 16] {
            assert_eq!(
                WorkerPool::new(w).map_vertices(n, |i| i.wrapping_mul(31)),
                seq
            );
        }
    }

    #[test]
    fn transient_panic_recovers_with_correct_result() {
        let pool = WorkerPool::new(4);
        // First execution of the partition containing vertex 10 panics;
        // the retry (fresh attempt) succeeds.
        let blown = AtomicUsize::new(0);
        let got = pool
            .try_run_partitioned(100, |r| {
                if r.contains(&10) && blown.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("injected transient fault");
                }
                r.sum::<usize>()
            })
            .expect("transient fault must be absorbed");
        assert_eq!(got.iter().sum::<usize>(), (0..100).sum::<usize>());
        assert_eq!(blown.load(Ordering::SeqCst), 2, "one fault + one retry");
    }

    #[test]
    fn persistent_panic_yields_typed_error() {
        let pool = WorkerPool::new(4);
        let err = pool
            .try_run_partitioned(100, |r| {
                if r.contains(&10) {
                    panic!("deterministic bug");
                }
                r.len()
            })
            .unwrap_err();
        match err {
            crate::EngineError::PartitionPanicked {
                attempts, message, ..
            } => {
                assert_eq!(attempts, MAX_PARTITION_ATTEMPTS);
                assert!(message.contains("deterministic bug"), "{message}");
            }
        }
    }

    #[test]
    fn sequential_fallback_rescues_thread_hostile_faults() {
        let pool = WorkerPool::new(4);
        let main_thread = std::thread::current().id();
        // Panics on every worker thread; only the inline sequential
        // fallback (calling thread) survives.
        let got = pool
            .try_run_partitioned(50, |r| {
                if std::thread::current().id() != main_thread {
                    panic!("worker-thread poison");
                }
                r.map(|i| i * 2).collect::<Vec<_>>()
            })
            .expect("sequential fallback must rescue the round");
        assert_eq!(got.concat(), (0..50).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn infallible_form_panics_with_engine_error_message() {
        let pool = WorkerPool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map_vertices(10, |_| -> usize { panic!("always broken") })
        }));
        let msg = match caught.unwrap_err().downcast::<String>() {
            Ok(s) => *s,
            Err(_) => panic!("expected String payload"),
        };
        assert!(msg.contains("partition 0"), "{msg}");
        assert!(msg.contains("always broken"), "{msg}");
    }

    #[test]
    fn metrics_count_clean_round() {
        let registry = ricd_obs::MetricsRegistry::new();
        let pool = WorkerPool::new(4).with_metrics(&registry);
        let _ = pool.map_vertices(100, |i| i);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("pool.partitions_started"), Some(4));
        assert_eq!(snap.counter("pool.panics_caught"), Some(0));
        assert_eq!(snap.counter("pool.retries"), Some(0));
        assert_eq!(snap.counter("pool.fallback_sequential"), Some(0));
        assert_eq!(snap.counter("pool.partitions_failed"), Some(0));
        let (_, h) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "pool.partition_nanos")
            .expect("partition histogram registered");
        assert_eq!(h.count, 4, "one timing observation per partition");
    }

    #[test]
    fn metrics_count_transient_fault_and_retry() {
        let registry = ricd_obs::MetricsRegistry::new();
        let pool = WorkerPool::new(4).with_metrics(&registry);
        let blown = AtomicUsize::new(0);
        pool.try_run_partitioned(100, |r| {
            if r.contains(&10) && blown.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("injected transient fault");
            }
            r.len()
        })
        .expect("transient fault absorbed");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("pool.partitions_started"), Some(4));
        assert_eq!(snap.counter("pool.panics_caught"), Some(1));
        assert_eq!(snap.counter("pool.retries"), Some(1));
        assert_eq!(snap.counter("pool.fallback_sequential"), Some(0));
        assert_eq!(snap.counter("pool.partitions_failed"), Some(0));
    }

    #[test]
    fn metrics_count_persistent_fault_through_fallback() {
        let registry = ricd_obs::MetricsRegistry::new();
        let pool = WorkerPool::new(4).with_metrics(&registry);
        let _ = pool.try_run_partitioned(100, |r| {
            if r.contains(&10) {
                panic!("deterministic bug");
            }
            r.len()
        });
        let snap = registry.snapshot();
        assert_eq!(snap.counter("pool.partitions_started"), Some(4));
        assert_eq!(snap.counter("pool.panics_caught"), Some(1));
        // Parallel retry + sequential fallback = 2 re-executions.
        assert_eq!(snap.counter("pool.retries"), Some(2));
        assert_eq!(snap.counter("pool.fallback_sequential"), Some(1));
        assert_eq!(snap.counter("pool.partitions_failed"), Some(1));
        let (_, h) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "pool.partition_nanos")
            .unwrap();
        assert_eq!(h.count, 6, "3 clean + 1 initial fault + 2 retries");
    }

    #[test]
    fn metrics_invariants_hold_across_rounds() {
        let registry = ricd_obs::MetricsRegistry::new();
        let pool = WorkerPool::new(3).with_metrics(&registry);
        let calls = AtomicUsize::new(0);
        for round in 0..5 {
            let _ = pool.try_run_partitioned(30, |r| {
                let c = calls.fetch_add(1, Ordering::SeqCst);
                if round % 2 == 0 && r.start == 0 && c.is_multiple_of(2) {
                    panic!("flaky");
                }
                r.len()
            });
        }
        let snap = registry.snapshot();
        let started = snap.counter("pool.partitions_started").unwrap();
        let failed = snap.counter("pool.partitions_failed").unwrap();
        let panics = snap.counter("pool.panics_caught").unwrap();
        let retries = snap.counter("pool.retries").unwrap();
        assert!(failed <= started, "failed={failed} started={started}");
        assert!(retries >= panics, "retries={retries} panics={panics}");
        assert_eq!(started, 15, "5 rounds x 3 partitions");
    }

    #[test]
    fn pool_without_metrics_registers_nothing() {
        let registry = ricd_obs::MetricsRegistry::new();
        let pool = WorkerPool::new(4);
        let _ = pool.map_vertices(100, |i| i);
        let snap = registry.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn worklist_visits_every_entry_once_in_order() {
        for workers in [1, 2, 4, 8] {
            let pool = WorkerPool::new(workers);
            let list: Vec<u32> = (0..5000).map(|i| i * 3).collect();
            let chunks = pool.run_worklist(&list, || (), |_, c| c.to_vec());
            let flat: Vec<u32> = chunks.into_iter().flatten().collect();
            assert_eq!(flat, list, "workers={workers}");
        }
    }

    #[test]
    fn worklist_empty_is_noop() {
        let pool = WorkerPool::new(4);
        let got: Vec<u64> = pool.run_worklist(&[], || (), |_, c| c.len() as u64);
        assert!(got.is_empty());
    }

    #[test]
    fn worklist_state_reused_across_chunks() {
        let pool = WorkerPool::new(4);
        let list: Vec<u32> = (0..10_000).collect();
        let inits = AtomicUsize::new(0);
        let chunks = pool.run_worklist(
            &list,
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                0usize
            },
            |calls, c| {
                *calls += 1;
                c.len()
            },
        );
        assert!(chunks.len() > 4, "should produce many small chunks");
        assert_eq!(chunks.iter().sum::<usize>(), list.len());
        let inits = inits.load(Ordering::SeqCst);
        assert!(
            inits <= 4,
            "at most one state per worker, got {inits} for {} chunks",
            chunks.len()
        );
    }

    #[test]
    fn worklist_transient_panic_recovers_with_fresh_state() {
        let pool = WorkerPool::new(4);
        let list: Vec<u32> = (0..2000).collect();
        let blown = AtomicUsize::new(0);
        let got = pool
            .try_run_worklist(
                &list,
                || 0u32,
                |_, c| {
                    if c.contains(&100) && blown.fetch_add(1, Ordering::SeqCst) == 0 {
                        panic!("injected transient fault");
                    }
                    c.iter().map(|&x| x as u64).sum::<u64>()
                },
            )
            .expect("transient fault must be absorbed");
        assert_eq!(
            got.iter().sum::<u64>(),
            list.iter().map(|&x| x as u64).sum::<u64>()
        );
        assert_eq!(blown.load(Ordering::SeqCst), 2, "one fault + one retry");
    }

    #[test]
    fn worklist_persistent_panic_yields_typed_error() {
        let pool = WorkerPool::new(4);
        let list: Vec<u32> = (0..2000).collect();
        let err = pool
            .try_run_worklist(
                &list,
                || (),
                |_, c: &[u32]| {
                    if c.contains(&0) {
                        panic!("deterministic worklist bug");
                    }
                    c.len()
                },
            )
            .unwrap_err();
        match err {
            crate::EngineError::PartitionPanicked {
                partition,
                attempts,
                message,
            } => {
                assert_eq!(partition, 0, "entry 0 lives in chunk 0");
                assert_eq!(attempts, MAX_PARTITION_ATTEMPTS);
                assert!(message.contains("deterministic worklist bug"), "{message}");
            }
        }
    }

    #[test]
    fn worklist_metrics_count_chunks_as_partitions() {
        let registry = ricd_obs::MetricsRegistry::new();
        let pool = WorkerPool::new(4).with_metrics(&registry);
        let list: Vec<u32> = (0..10_000).collect();
        let chunks = pool.run_worklist(&list, || (), |_, c| c.len());
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("pool.partitions_started"),
            Some(chunks.len() as u64)
        );
        assert_eq!(snap.counter("pool.panics_caught"), Some(0));
        assert_eq!(snap.counter("pool.partitions_failed"), Some(0));
        let (_, h) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "pool.partition_nanos")
            .expect("partition histogram registered");
        assert_eq!(h.count as usize, chunks.len());
    }

    #[test]
    fn worklist_chunk_size_bounds() {
        assert_eq!(worklist_chunk_size(10, 4), 64, "small lists use the floor");
        assert_eq!(
            worklist_chunk_size(10_000_000, 4),
            8192,
            "capped at ceiling"
        );
        let mid = worklist_chunk_size(100_000, 4);
        assert!((64..=8192).contains(&mid));
        assert_eq!(mid, 100_000 / 64);
    }

    #[test]
    fn tasks_run_each_index_once_in_order() {
        for workers in [1, 2, 4, 8] {
            let pool = WorkerPool::new(workers);
            let got = pool.try_run_tasks(37, |i| i * 7).unwrap();
            assert_eq!(got, (0..37).map(|i| i * 7).collect::<Vec<_>>());
        }
    }

    #[test]
    fn tasks_empty_is_noop() {
        let pool = WorkerPool::new(4);
        let got: Vec<u8> = pool.try_run_tasks(0, |_| 1).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn few_coarse_tasks_use_multiple_workers() {
        // The point of try_run_tasks over run_worklist: 6 tasks must not all be
        // claimed by one worker (the worklist path's 64-entry chunk floor
        // would put them in a single chunk).
        use std::collections::HashSet;
        use std::sync::Mutex;
        let pool = WorkerPool::new(4);
        let seen = Mutex::new(HashSet::new());
        let barrier = std::sync::Barrier::new(4);
        let _ = pool.try_run_tasks(6, |i| {
            if i < 4 {
                // The first four tasks rendezvous: they can only all arrive
                // if four distinct workers each claimed one.
                barrier.wait();
            }
            seen.lock().unwrap().insert(std::thread::current().id());
            i
        });
        assert!(
            seen.lock().unwrap().len() >= 4,
            "coarse tasks must spread across workers"
        );
    }

    #[test]
    fn tasks_transient_panic_recovers() {
        let pool = WorkerPool::new(4);
        let blown = AtomicUsize::new(0);
        let got = pool
            .try_run_tasks(10, |i| {
                if i == 3 && blown.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("injected transient fault");
                }
                i * 2
            })
            .expect("transient fault must be absorbed");
        assert_eq!(got, (0..10).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(blown.load(Ordering::SeqCst), 2, "one fault + one retry");
    }

    #[test]
    fn tasks_persistent_panic_yields_typed_error() {
        let pool = WorkerPool::new(4);
        let err = pool
            .try_run_tasks(10, |i| {
                if i == 5 {
                    panic!("deterministic task bug");
                }
                i
            })
            .unwrap_err();
        match err {
            crate::EngineError::PartitionPanicked {
                partition,
                attempts,
                message,
            } => {
                assert_eq!(partition, 5);
                assert_eq!(attempts, MAX_PARTITION_ATTEMPTS);
                assert!(message.contains("deterministic task bug"), "{message}");
            }
        }
    }

    #[test]
    fn tasks_metrics_count_tasks_as_partitions() {
        let registry = ricd_obs::MetricsRegistry::new();
        let pool = WorkerPool::new(4).with_metrics(&registry);
        let blown = AtomicUsize::new(0);
        pool.try_run_tasks(8, |i| {
            if i == 2 && blown.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("flaky task");
            }
            i
        })
        .expect("transient fault absorbed");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("pool.partitions_started"), Some(8));
        assert_eq!(snap.counter("pool.panics_caught"), Some(1));
        assert_eq!(snap.counter("pool.retries"), Some(1));
        assert_eq!(snap.counter("pool.partitions_failed"), Some(0));
        let (_, h) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "pool.partition_nanos")
            .expect("partition histogram registered");
        assert_eq!(h.count, 9, "8 initial attempts + 1 retry");
    }

    #[test]
    fn tasks_results_independent_of_worker_count() {
        let run = |w| WorkerPool::new(w).try_run_tasks(23, |i| i.wrapping_mul(13));
        let seq: Vec<usize> = run(1).unwrap();
        for w in [2, 3, 8] {
            assert_eq!(run(w).unwrap(), seq);
        }
    }
}
