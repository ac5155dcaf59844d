//! Differential property tests for the sharded detection runtime: on
//! arbitrary generated worlds, `detect_groups_sharded` must produce exactly
//! the flagged-group set of the unsharded `detect_groups_with`, for every
//! shard configuration — and one layer up, `RicdPipeline::run_sharded` must
//! reproduce the unsharded pipeline's risk scores and ranking.
//!
//! A second suite engineers worlds that *force* the hard paths: planted
//! bicliques glued into one giant component through a surviving hub item,
//! sharded under a tiny user cap so the planner must hash-split the giant
//! and replicate boundary items — verified through the `shard.*` counters,
//! not assumed.

use proptest::prelude::*;
use ricd_core::detect::{detect_groups_with, Seeds};
use ricd_core::extract::{FixpointMode, SquareStrategy};
use ricd_core::params::RicdParams;
use ricd_core::pipeline::RicdPipeline;
use ricd_core::result::SuspiciousGroup;
use ricd_core::shard_run::{detect_groups_sharded, ShardConfig};
use ricd_engine::WorkerPool;
use ricd_graph::{BipartiteGraph, GraphBuilder, ItemId, UserId};
use ricd_obs::MetricsRegistry;

fn params(k: usize) -> RicdParams {
    RicdParams {
        k1: k,
        k2: k,
        ..RicdParams::default()
    }
}

/// Arbitrary worlds: random sparse noise plus a few planted bicliques at
/// disjoint id offsets, optionally glued through a shared hub item.
fn worlds() -> impl Strategy<Value = BipartiteGraph> {
    (
        proptest::collection::vec((0u32..80, 0u32..50, 1u32..20), 0..400),
        proptest::collection::vec(5usize..10, 0..3), // planted biclique sizes
        any::<bool>(),                               // glue plants through a hub item
    )
        .prop_map(|(noise, plants, glue)| {
            let mut b = GraphBuilder::new();
            for (u, v, c) in noise {
                b.add_click(UserId(u), ItemId(v), c);
            }
            for (p, k) in plants.iter().enumerate() {
                let (ubase, vbase) = (200 + 100 * p as u32, 200 + 100 * p as u32);
                for u in 0..*k as u32 {
                    for v in 0..*k as u32 {
                        b.add_click(UserId(ubase + u), ItemId(vbase + v), 13);
                    }
                    if glue {
                        b.add_click(UserId(ubase + u), ItemId(77), 2);
                    }
                }
            }
            b.build()
        })
}

fn shard_configs() -> impl Strategy<Value = ShardConfig> {
    (0usize..3, 1usize..8, 1usize..40).prop_map(|(which, shards, max_users)| match which {
        0 => ShardConfig::default(),
        1 => ShardConfig {
            shards: Some(shards),
            max_users: None,
        },
        _ => ShardConfig {
            shards: None,
            max_users: Some(max_users),
        },
    })
}

fn unsharded_groups(g: &BipartiteGraph, p: &RicdParams) -> Vec<SuspiciousGroup> {
    detect_groups_with(
        g,
        &Seeds::none(),
        p,
        &WorkerPool::new(2),
        SquareStrategy::Parallel,
        FixpointMode::Delta,
        None,
    )
    .groups
}

/// Worlds engineered to force giant-component splitting: `plants` bicliques
/// of `k + 2` users × `k + 1` items, every worker also clicking hub item 0,
/// plus a hub background crowd. The hub shares ≥ k users with every planted
/// item, so it *survives* extraction and welds all plants into one giant
/// component that a small user cap must hash-split.
fn glued_world(plants: usize, k: usize, crowd: u32) -> BipartiteGraph {
    let mut b = GraphBuilder::new();
    let mut next_user = 0u32;
    for p in 0..plants {
        for _ in 0..k + 2 {
            let u = UserId(next_user);
            next_user += 1;
            b.add_click(u, ItemId(0), 1);
            for v in 0..(k + 1) as u32 {
                b.add_click(u, ItemId(1 + (p as u32) * 50 + v), 13);
            }
        }
    }
    for c in 0..crowd {
        b.add_click(UserId(10_000 + c), ItemId(0), 1);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sharding is an execution strategy, not an approximation: identical
    /// flagged groups on arbitrary worlds under arbitrary shard configs.
    #[test]
    fn sharded_groups_match_unsharded(
        g in worlds(),
        cfg in shard_configs(),
        k in 3usize..7,
        workers in 1usize..4,
    ) {
        let p = params(k);
        let want = unsharded_groups(&g, &p);
        let got = detect_groups_sharded(
            &g,
            &Seeds::none(),
            &p,
            &WorkerPool::new(workers),
            &cfg,
            &(|| false),
            None,
        )
        .expect("sharded detection completes")
        .groups;
        prop_assert_eq!(got, want, "cfg={:?} workers={}", cfg, workers);
    }

    /// One layer up: the sharded pipeline reproduces the unsharded risk
    /// scores and ranking, not just the group partition.
    #[test]
    fn sharded_pipeline_matches_risk_scores(
        g in worlds(),
        cfg in shard_configs(),
        k in 3usize..6,
    ) {
        let p = params(k);
        let want = RicdPipeline::new(p).run(&g);
        let got = RicdPipeline::new(p).run_sharded(&g, &cfg);
        prop_assert_eq!(got.status, want.status);
        prop_assert_eq!(got.groups, want.groups);
        prop_assert_eq!(got.ranked_users, want.ranked_users, "user risk ordering diverged");
        prop_assert_eq!(got.ranked_items, want.ranked_items, "item risk ordering diverged");
    }

    /// The engineered giant: a tiny user cap must force hash splitting with
    /// boundary-item replication (proven via counters), and the output must
    /// still be byte-identical to the unsharded run.
    #[test]
    fn forced_giant_split_still_matches(
        plants in 2usize..5,
        k in 3usize..6,
        crowd in 20u32..200,
        cap in 1usize..6,
        workers in 1usize..4,
    ) {
        let g = glued_world(plants, k, crowd);
        let p = params(k);
        let want = unsharded_groups(&g, &p);
        prop_assert_eq!(want.len(), 1, "hub must weld the plants into one group");

        let registry = MetricsRegistry::new();
        let got = detect_groups_sharded(
            &g,
            &Seeds::none(),
            &p,
            &WorkerPool::new(workers),
            &ShardConfig { shards: None, max_users: Some(cap) },
            &(|| false),
            Some(&registry),
        )
        .expect("sharded detection completes")
        .groups;
        prop_assert_eq!(got, want);

        let snap = registry.snapshot();
        prop_assert!(
            snap.counter("shard.giant_components").unwrap_or(0) > 0,
            "cap {} must classify the welded component as a giant", cap
        );
        prop_assert!(
            snap.counter("shard.hash").unwrap_or(0) > 0,
            "the giant must be hash-split"
        );
        prop_assert!(
            snap.counter("shard.replicated_items").unwrap_or(0) > 0,
            "hash shards must replicate boundary items"
        );
    }
}
