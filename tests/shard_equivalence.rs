//! Integration proof of the sharding contract: on real datagen worlds, the
//! sharded pipeline (`run_sharded`) produces *identical* output to the
//! unsharded pipeline — same groups, same risk scores, same ranking — for
//! every shard configuration, including caps small enough to force
//! hash-splitting of merged components.

use std::sync::atomic::{AtomicUsize, Ordering};

use fake_click_detection::core::detect::Seeds;
use fake_click_detection::core::detect_groups_sharded;
use fake_click_detection::engine::WorkerPool;
use fake_click_detection::obs::MetricsRegistry;
use fake_click_detection::prelude::*;

fn world() -> SyntheticDataset {
    let attack = AttackConfig {
        num_groups: 6,
        target_coverage: 0.9,
        ..AttackConfig::evaluation()
    };
    generate(&DatasetConfig::small(), &attack).expect("valid configs")
}

#[test]
fn sharded_pipeline_matches_unsharded_groups_and_risk_ordering() {
    let ds = world();
    let baseline = RicdPipeline::new(RicdParams::default()).run(&ds.graph);
    assert!(
        !baseline.groups.is_empty(),
        "scenario sanity: planted attacks must be detected"
    );

    for (cfg, workers) in [
        (ShardConfig::default(), 1),
        (
            ShardConfig {
                shards: Some(4),
                max_users: None,
            },
            4,
        ),
        // A cap far below any planted group's size: components get
        // hash-split and boundary items replicated, yet nothing may change.
        (
            ShardConfig {
                shards: None,
                max_users: Some(3),
            },
            2,
        ),
    ] {
        let sharded = RicdPipeline::new(RicdParams::default())
            .with_pool(WorkerPool::new(workers))
            .run_sharded(&ds.graph, &cfg);
        assert_eq!(sharded.status, baseline.status, "cfg={cfg:?}");
        assert_eq!(sharded.groups, baseline.groups, "cfg={cfg:?}");
        assert_eq!(
            sharded.ranked_users, baseline.ranked_users,
            "user risk ordering diverged (cfg={cfg:?})"
        );
        assert_eq!(
            sharded.ranked_items, baseline.ranked_items,
            "item risk ordering diverged (cfg={cfg:?})"
        );
    }
}

/// The worker matrix: the same shard plan executed on 1, 2, and 4 pool
/// workers must be *byte-identical* — not just set-equal — in groups, risk
/// scores, and both rankings. Serialized JSON is the comparison so any
/// float formatting or ordering drift fails loudly.
#[test]
fn worker_matrix_is_byte_identical() {
    let ds = world();
    let render = |workers: usize| {
        let cfg = ShardConfig {
            shards: Some(4),
            max_users: None,
        };
        let r = RicdPipeline::new(RicdParams::default())
            .with_pool(WorkerPool::new(workers))
            .run_sharded(&ds.graph, &cfg);
        assert!(
            !r.groups.is_empty(),
            "workers={workers}: no groups detected"
        );
        (
            serde_json::to_string(&r.groups).unwrap(),
            serde_json::to_string(&r.ranked_users).unwrap(),
            serde_json::to_string(&r.ranked_items).unwrap(),
        )
    };
    let baseline = render(1);
    for workers in [2usize, 4] {
        assert_eq!(
            render(workers),
            baseline,
            "groups / ranked_users / ranked_items bytes diverged at workers={workers}"
        );
    }
}

/// Chaos: a shard partition that panics mid-prune on its first attempt is
/// retried by the pool (PR-1 fault containment) and the run still converges
/// to exactly the unfaulted output.
///
/// The deadline closure is polled once on the coordinator after the
/// pre-filter (call 0) and then at the start of every shard task on the
/// worker threads, so panicking on call 1 detonates inside the first shard
/// task to start — never on the coordinator.
#[test]
fn shard_task_panic_is_retried_to_identical_output() {
    let ds = world();
    let params = RicdParams::default();
    let cfg = ShardConfig {
        shards: Some(4),
        max_users: None,
    };
    let pool = WorkerPool::new(2);

    let clean = detect_groups_sharded(
        &ds.graph,
        &Seeds::none(),
        &params,
        &pool,
        &cfg,
        &|| false,
        None,
    )
    .expect("clean run completes");
    assert!(!clean.groups.is_empty(), "scenario sanity: groups expected");

    let registry = MetricsRegistry::new();
    let faulted_pool = WorkerPool::new(2).with_metrics(&registry);
    let calls = AtomicUsize::new(0);
    let faulted = detect_groups_sharded(
        &ds.graph,
        &Seeds::none(),
        &params,
        &faulted_pool,
        &cfg,
        &|| {
            if calls.fetch_add(1, Ordering::SeqCst) == 1 {
                panic!("injected shard fault");
            }
            false
        },
        None,
    )
    .expect("faulted run converges after retry");

    let caught = registry
        .snapshot()
        .counter("pool.panics_caught")
        .unwrap_or(0);
    assert!(caught >= 1, "the injected panic must be caught by the pool");
    assert_eq!(
        faulted.groups, clean.groups,
        "retry must converge to the same groups"
    );
}

#[test]
fn sharded_run_flags_every_planted_worker_the_baseline_flags() {
    let ds = world();
    let baseline = RicdPipeline::new(RicdParams::default()).run(&ds.graph);
    let sharded =
        RicdPipeline::new(RicdParams::default()).run_sharded(&ds.graph, &ShardConfig::default());
    assert_eq!(
        sharded.suspicious_users(),
        baseline.suspicious_users(),
        "flagged user set must be identical"
    );
    assert_eq!(
        sharded.suspicious_items(),
        baseline.suspicious_items(),
        "flagged item set must be identical"
    );
}
