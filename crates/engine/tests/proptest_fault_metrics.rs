//! Property tests: the pool health counters obey their invariants for
//! every fault plan — transient or persistent, any worker count, any
//! number of rounds — through every entry point. What a unit is (a range,
//! a worklist chunk with per-worker scratch, a task) is one more drawn
//! input, because all three schedule through the same core.

use proptest::prelude::*;
use ricd_engine::{partition_ranges, FaultInjector, FaultPlan, WorkerPool};
use ricd_obs::MetricsRegistry;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Per-worker scratch for the worklist entry point: counts its own reuse
/// and remembers whether a unit panicked while holding it.
#[derive(Default)]
struct Scratch {
    uses: usize,
    dirty: bool,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn pool_counters_obey_invariants_for_any_fault_plan(
        seed in 0u64..(1u64 << 48),
        entry in 0usize..3,
        rounds in 1usize..5,
        workers in 1usize..6,
        faults in 0usize..8,
        persistent in any::<bool>(),
        n in 1usize..200,
    ) {
        let registry = MetricsRegistry::new();
        let pool = WorkerPool::new(workers).with_metrics(&registry);

        // The units of one round, per entry point. Worklist chunking is the
        // pool's business, so a clean probe round on an unmetered pool
        // reports where its chunks start.
        let ranges = partition_ranges(n, workers);
        let list: Vec<u32> = (0..(n * 32) as u32).collect();
        let starts = WorkerPool::new(workers).run_worklist(&list, || (), |_, c| c[0]);
        let units = [ranges.len(), starts.len(), n][entry];

        let mut plan = FaultPlan::seeded(seed, rounds, units, faults);
        if persistent {
            plan = plan.persistent();
        }
        let inj = FaultInjector::new(plan);
        let inits = AtomicU64::new(0);
        let reused_after_panic = AtomicBool::new(false);

        for _ in 0..rounds {
            inj.begin_round();
            let uses: Result<Vec<usize>, _> = match entry {
                0 => pool
                    .try_run_partitioned(n, |r| {
                        let unit = ranges.iter().position(|p| *p == r);
                        inj.maybe_panic(unit.expect("range maps to a partition"));
                        r.len()
                    })
                    .map(|_| Vec::new()),
                1 => pool
                    .try_run_worklist(
                        &list,
                        || {
                            inits.fetch_add(1, Ordering::SeqCst);
                            Scratch::default()
                        },
                        |scratch, chunk| {
                            if scratch.dirty {
                                reused_after_panic.store(true, Ordering::SeqCst);
                            }
                            scratch.uses += 1;
                            scratch.dirty = true;
                            let unit = starts.binary_search(&chunk[0]);
                            inj.maybe_panic(unit.expect("chunk maps to a unit"));
                            scratch.dirty = false;
                            scratch.uses
                        },
                    ),
                _ => pool
                    .try_run_tasks(n, |unit| {
                        inj.maybe_panic(unit);
                        unit
                    })
                    .map(|_| Vec::new()),
            };
            // Every execution counted itself on the scratch it was handed.
            prop_assert!(uses.unwrap_or_default().iter().all(|&u| u >= 1));
        }

        let snap = registry.snapshot();
        let started = snap.counter("pool.partitions_started").unwrap_or(0);
        let failed = snap.counter("pool.partitions_failed").unwrap_or(0);
        let panics = snap.counter("pool.panics_caught").unwrap_or(0);
        let retries = snap.counter("pool.retries").unwrap_or(0);

        // The headline invariants.
        prop_assert!(failed <= started, "failed={failed} > started={started}");
        prop_assert!(retries >= panics, "retries={retries} < panics={panics}");

        // Every round starts every unit exactly once.
        prop_assert_eq!(started, (rounds * units) as u64);

        // Transient faults are always absorbed by the retry ladder.
        if !persistent {
            prop_assert_eq!(failed, 0, "transient plan left failed partitions");
        } else {
            // A persistent fault fails exactly its (round, unit) cell;
            // `fired()` records each firing, so the distinct cells are the
            // failed unit executions.
            let cells: BTreeSet<(usize, usize)> = inj.fired().into_iter().collect();
            prop_assert_eq!(failed, cells.len() as u64);
        }

        // The duration histogram sees every execution: each started
        // unit once, plus each re-execution.
        let observed = snap
            .histograms
            .iter()
            .find(|(name, _)| name == "pool.partition_nanos")
            .map(|(_, h)| h.count)
            .unwrap_or(0);
        prop_assert_eq!(observed, started + retries);

        // Worker state: a panicked unit's scratch is dropped, never handed
        // to another unit; otherwise it is reused — a round builds at most
        // one per thread, plus one per scratch lost to a first-attempt
        // panic and one per retry (each retry starts fresh).
        prop_assert!(!reused_after_panic.load(Ordering::SeqCst));
        if entry == 1 {
            let inits = inits.load(Ordering::SeqCst);
            let threads = workers.min(units) as u64;
            prop_assert!(inits >= rounds as u64);
            prop_assert!(
                inits <= rounds as u64 * threads + panics + retries,
                "inits={inits} threads={threads} panics={panics} retries={retries}"
            );
        }
    }
}
