//! The sharded detection runtime.
//!
//! Runs Algorithm 2/3 as a fan-out over the shard plan of
//! [`ricd_graph::shard`]: sound pre-removals, then the same
//! [`crate::extract`] fixpoint the unsharded path runs. A Lemma-1
//! **pre-filter** (CorePruning alone) collapses the organic long tail
//! before planning; the planner's component/hash decomposition yields one
//! *local* fixpoint per shard on the worker pool (each shard a coarse task
//! with the pool's panic-isolation contract, pruning a compact view
//! inline); a **reconciliation** fixpoint on the parent view finishes the
//! hash-split giants; and the survivors are split into groups exactly as
//! the unsharded path splits them.
//!
//! # Why the result is exactly the unsharded one
//!
//! Every removal rule (Lemma 1 degree bound, Lemma 2 common-neighbor bound)
//! is *monotone*: counts only fall as vertices disappear, so the extraction
//! fixpoint is unique and removal-order-independent. The sharded path only
//! ever performs **sound** removals — each removed vertex provably fails a
//! bound against a *superset* of the then-current global alive set
//! (supersets only inflate counts, so failing against one implies failing
//! globally):
//!
//! * pre-filter — plain degree bounds on the live view;
//! * exact shards — whole connected components: the local fixpoint *is*
//!   the global one there (bicliques cannot span components);
//! * hash shards — owned users and interior items have **exact** local
//!   counts (boundary replication + halo, see `ricd_graph::shard`);
//!   boundary items and halo users are pinned through the fixpoint's
//!   [`Removable`] masks and never removed locally;
//! * reconciliation — the fixpoint on what is left of the parent view,
//!   which by uniqueness lands on the global fixpoint.
//!
//! Since all removals are sound and the final pass runs the real rules to
//! convergence, the surviving vertex set — and therefore the component
//! split, the groups, and every downstream risk score — is identical to
//! the unsharded run. The differential proptests and the
//! `shard_equivalence` integration test enforce this end to end.

use crate::detect::{surviving_groups, DetectedGroups, Seeds};
use crate::extract::{
    core_prune, extract_masked, extract_with, ExtractionStats, FixpointMode, Removable,
    SquareStrategy,
};
use crate::params::RicdParams;
use ricd_engine::{EngineError, WorkerPool};
use ricd_graph::shard::{plan_shards, Shard, ShardOptions};
use ricd_graph::{BipartiteGraph, CompactSubgraph, CompactView, ItemId, NeighborView, UserId};
use ricd_obs::MetricsRegistry;

/// Sharding knobs for [`detect_groups_sharded`] /
/// [`crate::pipeline::RicdPipeline::run_sharded`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardConfig {
    /// Target shard count. The per-shard user cap is derived as
    /// `⌈alive users after pre-filter / shards⌉`. Default: twice the pool's
    /// worker count (over-decomposition keeps the pool busy when shard
    /// costs are skewed).
    pub shards: Option<usize>,
    /// Explicit per-shard owned-user cap; overrides `shards` when set.
    pub max_users: Option<usize>,
}

impl ShardConfig {
    /// Derives the effective owned-user cap for a view with `alive_users`.
    fn effective_max_users(&self, alive_users: usize, pool: &WorkerPool) -> usize {
        if let Some(m) = self.max_users {
            return m.max(1);
        }
        let shards = self.shards.unwrap_or(pool.workers() * 2).max(1);
        alive_users.div_ceil(shards).max(1)
    }
}

/// Why a sharded detection run could not complete.
#[derive(Debug)]
pub enum ShardAbort {
    /// The budget deadline tripped at a shard boundary.
    DeadlineExceeded,
    /// A shard task kept failing past the pool's retry budget.
    Engine(EngineError),
}

impl std::fmt::Display for ShardAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardAbort::DeadlineExceeded => write!(f, "deadline exceeded during shard phase"),
            ShardAbort::Engine(e) => write!(f, "shard task failed persistently: {e}"),
        }
    }
}

/// Outcome of one shard task (kept `Send`-cheap: parent-id removal lists).
enum ShardOutcome {
    Done {
        removed_users: Vec<UserId>,
        removed_items: Vec<ItemId>,
        stats: ExtractionStats,
    },
    DeadlineExceeded,
}

/// Marks which local vertices a hash shard may remove: owned users and
/// interior items (items whose parent id is *not* boundary).
fn hash_shard_permissions(
    user_map: &[UserId],
    item_map: &[ItemId],
    shard: &Shard,
) -> (Vec<bool>, Vec<bool>) {
    let owned: Vec<bool> = user_map
        .iter()
        .map(|p| shard.users.binary_search(p).is_ok())
        .collect();
    let interior: Vec<bool> = item_map
        .iter()
        .map(|p| shard.boundary_items.binary_search(p).is_err())
        .collect();
    (owned, interior)
}

/// One shard task: build the **compact** local subgraph (delta-encoded
/// adjacency, no click weights — the pruning rules never read them) and
/// run the fixpoint on it, inline on this pool thread. Exact shards prune
/// everything; hash shards pin boundary items and halo users.
fn process_shard(
    g: &BipartiteGraph,
    shard: &Shard,
    params: &RicdParams,
) -> (Vec<UserId>, Vec<ItemId>, ExtractionStats) {
    let (sub, owned, interior) = if shard.exact {
        let sub =
            CompactSubgraph::extract(g, shard.users.iter().copied(), shard.items.iter().copied());
        (sub, None, None)
    } else {
        let scope_users = shard.users.iter().chain(shard.halo_users.iter()).copied();
        let sub = CompactSubgraph::extract(g, scope_users, shard.items.iter().copied());
        let (owned, interior) = hash_shard_permissions(&sub.user_map, &sub.item_map, shard);
        (sub, Some(owned), Some(interior))
    };
    let mut view = CompactView::full(&sub.graph);
    let removable = Removable {
        users: owned.as_deref(),
        items: interior.as_deref(),
    };
    let stats = extract_masked(
        &mut view,
        removable,
        params,
        &WorkerPool::new(1),
        SquareStrategy::Parallel,
        FixpointMode::Delta,
        None,
    );
    // Pinned vertices are never removed, so "dead" alone selects removals.
    let dead_users = (0u32..).zip(&sub.user_map);
    let dead_items = (0u32..).zip(&sub.item_map);
    let removed_users = dead_users
        .filter(|&(l, _)| !view.user_alive(UserId(l)))
        .map(|(_, &p)| p)
        .collect();
    let removed_items = dead_items
        .filter(|&(l, _)| !view.item_alive(ItemId(l)))
        .map(|(_, &p)| p)
        .collect();
    (removed_users, removed_items, stats)
}

/// Sharded Algorithm 2: identical group output to
/// [`crate::detect::detect_groups_with`], computed shard-by-shard.
///
/// `deadline_exceeded` is polled at the pre-filter, shard, and
/// reconciliation boundaries; tripping it returns
/// [`ShardAbort::DeadlineExceeded`] so the pipeline can degrade exactly as
/// the unsharded path does.
pub fn detect_groups_sharded(
    g: &BipartiteGraph,
    seeds: &Seeds,
    params: &RicdParams,
    pool: &WorkerPool,
    cfg: &ShardConfig,
    deadline_exceeded: &(dyn Fn() -> bool + Sync),
    metrics: Option<&MetricsRegistry>,
) -> Result<DetectedGroups, ShardAbort> {
    let mut view = crate::detect::starting_view(g, seeds);
    let mut stats = ExtractionStats::default();

    // Phase 0: Lemma-1 pre-filter. This is what collapses the organic long
    // tail *before* planning, so shards carve up only the structure-bearing
    // survivors.
    let (pre_users, pre_items) = core_prune(&mut view, params, pool);
    stats.core_removed_users += pre_users;
    stats.core_removed_items += pre_items;
    if let Some(m) = metrics {
        m.inc_by("shard.prefilter_removed_users", pre_users as u64);
        m.inc_by("shard.prefilter_removed_items", pre_items as u64);
    }
    if deadline_exceeded() {
        return Err(ShardAbort::DeadlineExceeded);
    }

    // Phase timings: one duration histogram per phase, so sharded bench
    // rows can show where the wall-clock goes.
    let phase_clock = |t0: Option<std::time::Duration>, name: &str| {
        if let (Some(m), Some(t0)) = (metrics, t0) {
            m.duration_histogram(name)
                .observe_duration(m.clock().now().saturating_sub(t0));
        }
    };
    let phase_start = || metrics.map(|m| m.clock().now());

    // Phase 1: plan.
    let t_plan = phase_start();
    let max_users = cfg.effective_max_users(view.alive_users(), pool);
    let plan = plan_shards(&view, &ShardOptions::with_max_users(max_users));
    phase_clock(t_plan, "shard.plan_nanos");
    if let Some(m) = metrics {
        // Gauge, not counter: the pool size actually executing the shard
        // fan-out, so benches and post-mortems can see the real
        // parallelism of a run instead of assuming one worker.
        m.gauge("shard.workers").set(pool.workers() as i64);
        m.inc_by("shard.planned", plan.shards.len() as u64);
        m.inc_by("shard.exact", plan.stats.exact_shards as u64);
        m.inc_by("shard.hash", plan.stats.hash_shards as u64);
        m.inc_by("shard.giant_components", plan.stats.giant_components as u64);
        m.inc_by("shard.replicated_items", plan.stats.replicated_items as u64);
        m.inc_by("shard.halo_users", plan.stats.halo_users as u64);
    }

    // Phase 2: per-shard local fixpoints on the pool, biggest first so the
    // tail of the round is short.
    let t_prune = phase_start();
    let mut order: Vec<usize> = (0..plan.shards.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(plan.shards[i].cost_estimate()));
    let shard_hist = metrics.map(|m| (m.clone(), m.duration_histogram("shard.shard_nanos")));
    let outcomes = pool
        .try_run_tasks(order.len(), |slot| {
            if deadline_exceeded() {
                return ShardOutcome::DeadlineExceeded;
            }
            let shard = &plan.shards[order[slot]];
            let started = shard_hist.as_ref().map(|(m, _)| m.clock().now());
            let (removed_users, removed_items, stats) = process_shard(g, shard, params);
            if let (Some((m, h)), Some(t0)) = (&shard_hist, started) {
                h.observe_duration(m.clock().now().saturating_sub(t0));
            }
            ShardOutcome::Done {
                removed_users,
                removed_items,
                stats,
            }
        })
        .map_err(ShardAbort::Engine)?;

    let mut deadline_tripped = false;
    for outcome in outcomes {
        match outcome {
            ShardOutcome::Done {
                removed_users,
                removed_items,
                stats: shard_stats,
            } => {
                stats.absorb(&shard_stats);
                for u in removed_users {
                    view.remove_user(u);
                }
                for v in removed_items {
                    view.remove_item(v);
                }
            }
            ShardOutcome::DeadlineExceeded => deadline_tripped = true,
        }
    }
    phase_clock(t_prune, "shard.prune_nanos");
    if deadline_tripped || deadline_exceeded() {
        return Err(ShardAbort::DeadlineExceeded);
    }

    // Phase 3: reconciliation — the fixpoint on the parent view, whose
    // alive set is now a superset of the global fixpoint. Exact shards are
    // already at theirs, so a plan without hash shards skips it.
    let t_recon = phase_start();
    if plan.needs_reconciliation() {
        let recon = extract_with(
            &mut view,
            params,
            pool,
            SquareStrategy::Parallel,
            FixpointMode::Delta,
            metrics,
        );
        stats.absorb(&recon);
        if let Some(m) = metrics {
            let users = recon.core_removed_users + recon.square_removed_users;
            let items = recon.core_removed_items + recon.square_removed_items;
            m.inc_by("shard.reconcile_users", users as u64);
            m.inc_by("shard.reconcile_items", items as u64);
        }
    }
    phase_clock(t_recon, "shard.reconcile_nanos");

    // Phase 4: components + the (k₁, k₂) floor — the same final step as
    // the unsharded path, on a view holding the identical alive set.
    let t_merge = phase_start();
    let groups = surviving_groups(&view, params);
    phase_clock(t_merge, "shard.merge_nanos");
    if let Some(m) = metrics {
        m.inc_by("shard.merged_groups", groups.len() as u64);
    }
    Ok(DetectedGroups { groups, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::detect_groups_with;
    use crate::result::SuspiciousGroup;
    use ricd_graph::{GraphBuilder, GraphView};

    fn never() -> impl Fn() -> bool + Sync {
        || false
    }

    /// Four disjoint planted bicliques + organic noise: four separate
    /// components after extraction, exercising exact component shards and
    /// FFD bin-packing.
    fn disjoint_world() -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        for gidx in 0..4u32 {
            for u in 0..12u32 {
                for v in 0..11u32 {
                    b.add_click(UserId(gidx * 12 + u), ItemId(gidx * 11 + v), 13);
                }
            }
        }
        for u in 0..300u32 {
            b.add_click(UserId(2000 + u), ItemId(100 + (u % 40)), 2);
        }
        b.build()
    }

    /// Four planted bicliques glued through one shared hot item (the hot
    /// item survives extraction: it shares ≥ k₁ users with every biclique
    /// item) + organic noise: one giant merged component, forcing hash
    /// splits and boundary replication once the cap is small.
    fn glued_world() -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        let mut next_user = 0u32;
        for gidx in 0..4u32 {
            for u in 0..12 {
                let user = UserId(next_user + u);
                b.add_click(user, ItemId(0), 1); // shared hot item
                for v in 0..11u32 {
                    b.add_click(user, ItemId(1 + gidx * 11 + v), 13);
                }
            }
            next_user += 12;
        }
        // Hot-item background so the glue item is genuinely hot.
        for u in 0..800u32 {
            b.add_click(UserId(1000 + u), ItemId(0), 1);
        }
        // Organic noise.
        for u in 0..300u32 {
            b.add_click(UserId(2000 + u), ItemId(100 + (u % 40)), 2);
        }
        b.build()
    }

    fn sharded(g: &BipartiteGraph, cfg: &ShardConfig, workers: usize) -> Vec<SuspiciousGroup> {
        detect_groups_sharded(
            g,
            &Seeds::none(),
            &RicdParams::default(),
            &WorkerPool::new(workers),
            cfg,
            &never(),
            None,
        )
        .expect("sharded detection completes")
        .groups
    }

    fn unsharded(g: &BipartiteGraph) -> Vec<SuspiciousGroup> {
        detect_groups_with(
            g,
            &Seeds::none(),
            &RicdParams::default(),
            &WorkerPool::new(4),
            SquareStrategy::Parallel,
            FixpointMode::Delta,
            None,
        )
        .groups
    }

    #[test]
    fn sharded_equals_unsharded_on_disjoint_world() {
        let g = disjoint_world();
        let want = unsharded(&g);
        assert_eq!(want.len(), 4, "scenario sanity: four planted groups");
        for (cfg, workers) in [
            (ShardConfig::default(), 4),
            (
                ShardConfig {
                    shards: Some(1),
                    max_users: None,
                },
                1,
            ),
            (
                ShardConfig {
                    shards: None,
                    max_users: Some(12),
                },
                4,
            ),
            (
                ShardConfig {
                    shards: None,
                    max_users: Some(5),
                },
                2,
            ),
            (
                ShardConfig {
                    shards: Some(64),
                    max_users: None,
                },
                4,
            ),
        ] {
            let got = sharded(&g, &cfg, workers);
            assert_eq!(got, want, "cfg={cfg:?} workers={workers}");
        }
    }

    #[test]
    fn sharded_equals_unsharded_on_glued_world() {
        let g = glued_world();
        let want = unsharded(&g);
        assert_eq!(want.len(), 1, "scenario sanity: one merged giant group");
        assert_eq!(want[0].users.len(), 48);
        for (cfg, workers) in [
            (ShardConfig::default(), 4),
            (
                ShardConfig {
                    shards: Some(1),
                    max_users: None,
                },
                1,
            ),
            (
                ShardConfig {
                    shards: None,
                    max_users: Some(5),
                },
                4,
            ),
            (
                ShardConfig {
                    shards: None,
                    max_users: Some(1),
                },
                2,
            ),
            (
                ShardConfig {
                    shards: Some(64),
                    max_users: None,
                },
                4,
            ),
        ] {
            let got = sharded(&g, &cfg, workers);
            assert_eq!(got, want, "cfg={cfg:?} workers={workers}");
        }
    }

    #[test]
    fn tiny_cap_forces_hash_shards_and_reconciliation() {
        let g = glued_world();
        let registry = MetricsRegistry::new();
        let got = detect_groups_sharded(
            &g,
            &Seeds::none(),
            &RicdParams::default(),
            &WorkerPool::new(4),
            &ShardConfig {
                shards: None,
                max_users: Some(4),
            },
            &never(),
            Some(&registry),
        )
        .unwrap()
        .groups;
        assert_eq!(got, unsharded(&g));
        let snap = registry.snapshot();
        assert!(
            snap.counter("shard.hash").unwrap() > 0,
            "cap 4 must hash-split"
        );
        assert!(snap.counter("shard.giant_components").unwrap() > 0);
        assert!(snap.counter("shard.replicated_items").unwrap() > 0);
        assert!(
            snap.counter("shard.prefilter_removed_users").unwrap() > 0,
            "noise users die in the pre-filter"
        );
        assert_eq!(snap.counter("shard.merged_groups"), Some(1));
    }

    #[test]
    fn seeded_sharded_detection_matches_unsharded() {
        let g = glued_world();
        let seeds = Seeds {
            users: vec![],
            items: vec![ItemId(1)],
        };
        let params = RicdParams::default();
        let want = detect_groups_with(
            &g,
            &seeds,
            &params,
            &WorkerPool::new(2),
            SquareStrategy::Parallel,
            FixpointMode::Delta,
            None,
        )
        .groups;
        let got = detect_groups_sharded(
            &g,
            &seeds,
            &params,
            &WorkerPool::new(2),
            &ShardConfig {
                shards: None,
                max_users: Some(6),
            },
            &never(),
            None,
        )
        .unwrap()
        .groups;
        assert_eq!(got, want);
    }

    #[test]
    fn deadline_already_exceeded_aborts() {
        let g = glued_world();
        let err = detect_groups_sharded(
            &g,
            &Seeds::none(),
            &RicdParams::default(),
            &WorkerPool::new(2),
            &ShardConfig::default(),
            &(|| true),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, ShardAbort::DeadlineExceeded));
    }

    #[test]
    fn empty_graph_yields_no_groups() {
        let g = GraphBuilder::new().build();
        let out = detect_groups_sharded(
            &g,
            &Seeds::none(),
            &RicdParams::default(),
            &WorkerPool::new(2),
            &ShardConfig::default(),
            &never(),
            None,
        )
        .unwrap();
        assert!(out.groups.is_empty());
    }

    #[test]
    fn prefilter_matches_core_bounds() {
        let g = glued_world();
        let params = RicdParams::default();
        let mut view = GraphView::full(&g);
        core_prune(&mut view, &params, &WorkerPool::new(2));
        // Fixpoint check: every survivor meets both degree bounds.
        for u in view.users().collect::<Vec<_>>() {
            assert!(view.user_degree(u) >= params.user_degree_bound());
        }
        for v in view.items().collect::<Vec<_>>() {
            assert!(view.item_degree(v) >= params.item_degree_bound());
        }
        assert!(view.check_consistency());
    }
}
