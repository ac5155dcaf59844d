//! The suspicious group detection module (Algorithm 2).
//!
//! Builds the working bipartite graph — the whole click graph, or, when the
//! business department supplies known-abnormal **seeds**, only the region
//! around them (`GraphGenerator`'s `MaxBiGraph(node)` — here the two-hop
//! ball, which contains every biclique through the seed) — then runs the
//! Algorithm 3 extraction and splits the survivors into connected
//! components, each one a suspicious attack group.

use crate::extract::{extract_with, ExtractionStats, FixpointMode, SquareStrategy};
use crate::params::RicdParams;
use crate::result::SuspiciousGroup;
use ricd_engine::WorkerPool;
use ricd_graph::components::connected_components;
use ricd_graph::{BipartiteGraph, GraphView, ItemId, UserId};
use ricd_obs::MetricsRegistry;

/// Known-abnormal nodes supplied by the business department (optional
/// auxiliary input; Algorithm 2 lines 5–8).
#[derive(Clone, Debug, Default)]
pub struct Seeds {
    /// Known abnormal users.
    pub users: Vec<UserId>,
    /// Known abnormal items.
    pub items: Vec<ItemId>,
}

impl Seeds {
    /// No seed information — Algorithm 2's `else` branch ("this module can
    /// still work properly").
    pub fn none() -> Self {
        Self::default()
    }

    /// True if no seeds were given.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty() && self.items.is_empty()
    }
}

/// Output of the detection module.
#[derive(Clone, Debug)]
pub struct DetectedGroups {
    /// Candidate groups (pre-screening), each a connected component of the
    /// extraction survivors with at least `k₁` users and `k₂` items.
    pub groups: Vec<SuspiciousGroup>,
    /// Extraction counters.
    pub stats: ExtractionStats,
}

/// The two-hop ball around the seeds: seeds, their neighbors, and their
/// neighbors' neighbors. Any (α,k₁,k₂)-extension biclique containing a seed
/// lies inside this ball, so restricting to it loses nothing around seeds.
fn seed_ball(g: &BipartiteGraph, seeds: &Seeds) -> (Vec<UserId>, Vec<ItemId>) {
    let mut users: Vec<UserId> = seeds.users.clone();
    let mut items: Vec<ItemId> = seeds.items.clone();
    // First hop.
    for &u in &seeds.users {
        items.extend(g.user_adjacency(u));
    }
    for &v in &seeds.items {
        users.extend(g.item_adjacency(v));
    }
    users.sort_unstable();
    users.dedup();
    items.sort_unstable();
    items.dedup();
    // Second hop (close the ball so co-click structure is complete).
    let mut users2 = users.clone();
    let mut items2 = items.clone();
    for &u in &users {
        items2.extend(g.user_adjacency(u));
    }
    for &v in &items {
        users2.extend(g.item_adjacency(v));
    }
    users2.sort_unstable();
    users2.dedup();
    items2.sort_unstable();
    items2.dedup();
    (users2, items2)
}

/// The working view Algorithm 2 starts from: the full graph without seeds,
/// or the two-hop seed ball with them. Shared with the sharded runtime so
/// both paths search the identical region.
///
/// A seed id the graph does not have has no ball, so it is dropped; seeds
/// that are *all* out of range leave the empty ball, not the unseeded run.
pub(crate) fn starting_view<'g>(g: &'g BipartiteGraph, seeds: &Seeds) -> GraphView<'g> {
    if seeds.is_empty() {
        return GraphView::full(g);
    }
    let mut known = seeds.clone();
    known.users.retain(|u| u.index() < g.num_users());
    known.items.retain(|v| v.index() < g.num_items());
    let (users, items) = seed_ball(g, &known);
    GraphView::restricted(g, users, items)
}

/// Runs the full detection module on `g` with the default
/// ([`FixpointMode::Delta`]) extraction fixpoint and no metrics.
pub fn detect_groups(
    g: &BipartiteGraph,
    seeds: &Seeds,
    params: &RicdParams,
    pool: &WorkerPool,
    strategy: SquareStrategy,
) -> DetectedGroups {
    detect_groups_with(
        g,
        seeds,
        params,
        pool,
        strategy,
        FixpointMode::default(),
        None,
    )
}

/// [`detect_groups`] with an explicit extraction fixpoint mode and optional
/// metrics registry (for per-round extraction timings).
pub fn detect_groups_with(
    g: &BipartiteGraph,
    seeds: &Seeds,
    params: &RicdParams,
    pool: &WorkerPool,
    strategy: SquareStrategy,
    mode: FixpointMode,
    metrics: Option<&MetricsRegistry>,
) -> DetectedGroups {
    let mut view = starting_view(g, seeds);

    let stats = extract_with(&mut view, params, pool, strategy, mode, metrics);
    DetectedGroups {
        groups: surviving_groups(&view, params),
        stats,
    }
}

/// Splits the extraction survivors into connected components, each one a
/// candidate group. Shared with the sharded runtime: both paths finish on a
/// view holding the same alive set.
pub(crate) fn surviving_groups(view: &GraphView<'_>, params: &RicdParams) -> Vec<SuspiciousGroup> {
    connected_components(view)
        .into_iter()
        // A component smaller than (k₁, k₂) cannot contain a qualifying
        // structure; singletons and slivers are artifacts, not attacks.
        .filter(|c| c.users.len() >= params.k1 && c.items.len() >= params.k2)
        .map(|c| SuspiciousGroup {
            users: c.users,
            items: c.items,
            ridden_hot_items: Vec::new(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ricd_graph::GraphBuilder;

    /// Two planted 10x10 attack bicliques + organic noise.
    fn graph() -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        for base in [0u32, 50] {
            for u in 0..10 {
                for v in 0..10 {
                    b.add_click(UserId(base + u), ItemId(base + v), 13);
                }
            }
        }
        for u in 0..100u32 {
            b.add_click(UserId(200 + u), ItemId(200 + (u % 30)), 2);
        }
        b.build()
    }

    #[test]
    fn finds_both_groups_without_seeds() {
        let g = graph();
        let out = detect_groups(
            &g,
            &Seeds::none(),
            &RicdParams::default(),
            &WorkerPool::new(4),
            SquareStrategy::Parallel,
        );
        assert_eq!(out.groups.len(), 2);
        for grp in &out.groups {
            assert_eq!(grp.users.len(), 10);
            assert_eq!(grp.items.len(), 10);
        }
    }

    #[test]
    fn seeded_detection_restricts_to_seed_region() {
        let g = graph();
        let seeds = Seeds {
            users: vec![],
            items: vec![ItemId(0)], // inside the first group
        };
        let out = detect_groups(
            &g,
            &seeds,
            &RicdParams::default(),
            &WorkerPool::new(4),
            SquareStrategy::Parallel,
        );
        assert_eq!(
            out.groups.len(),
            1,
            "only the seeded group's region is searched"
        );
        assert!(out.groups[0].items.contains(&ItemId(0)));
        assert!(out.groups[0].users.iter().all(|u| u.0 < 10));
    }

    #[test]
    fn seed_on_clean_node_yields_nothing() {
        let g = graph();
        let seeds = Seeds {
            users: vec![UserId(250)],
            items: vec![],
        };
        let out = detect_groups(
            &g,
            &seeds,
            &RicdParams::default(),
            &WorkerPool::new(4),
            SquareStrategy::Parallel,
        );
        assert!(out.groups.is_empty());
    }

    /// A seed id the graph does not have has no ball. Seeds that are all
    /// out of range must give the empty ball — not index past the CSR, and
    /// not fall through to the unseeded full run (which finds 2 groups) —
    /// on the library paths as a complete run, not a degraded one.
    #[test]
    fn out_of_range_seeds_have_no_ball() {
        use crate::pipeline::RicdPipeline;
        use crate::result::RunStatus;
        use crate::shard_run::ShardConfig;

        let g = graph();
        let absent = Seeds {
            users: vec![UserId(999_999_999)],
            items: vec![ItemId(g.num_items() as u32)],
        };
        let view = starting_view(&g, &absent);
        assert_eq!((view.alive_users(), view.alive_items()), (0, 0));

        let pipeline = RicdPipeline::new(RicdParams::default())
            .with_pool(WorkerPool::new(2))
            .with_seeds(absent);
        let sharded = ShardConfig {
            shards: Some(2),
            max_users: None,
        };
        for result in [pipeline.run(&g), pipeline.run_sharded(&g, &sharded)] {
            assert!(result.groups.is_empty());
            assert_eq!(result.status, RunStatus::Complete);
        }

        // An absent seed next to a real one is dropped, the real one kept.
        let mixed = Seeds {
            users: vec![UserId(999_999_999)],
            items: vec![ItemId(0)],
        };
        let out = detect_groups(
            &g,
            &mixed,
            &RicdParams::default(),
            &WorkerPool::new(2),
            SquareStrategy::Parallel,
        );
        assert_eq!(out.groups.len(), 1);
        assert!(out.groups[0].items.contains(&ItemId(0)));
    }

    #[test]
    fn component_size_filter_drops_slivers() {
        // One 10x10 group and one 10x5 (too few items).
        let mut b = GraphBuilder::new();
        for u in 0..10u32 {
            for v in 0..10u32 {
                b.add_click(UserId(u), ItemId(v), 13);
            }
        }
        for u in 0..10u32 {
            for v in 0..5u32 {
                b.add_click(UserId(100 + u), ItemId(100 + v), 13);
            }
        }
        let g = b.build();
        let out = detect_groups(
            &g,
            &Seeds::none(),
            &RicdParams::default(),
            &WorkerPool::new(2),
            SquareStrategy::Parallel,
        );
        assert_eq!(out.groups.len(), 1);
        assert!(out.groups[0].users.iter().all(|u| u.0 < 10));
    }

    #[test]
    fn clean_graph_yields_no_groups() {
        let mut b = GraphBuilder::new();
        for u in 0..200u32 {
            b.add_click(UserId(u), ItemId(u % 40), 2);
            b.add_click(UserId(u), ItemId(40 + (u % 13)), 1);
        }
        let g = b.build();
        let out = detect_groups(
            &g,
            &Seeds::none(),
            &RicdParams::default(),
            &WorkerPool::new(2),
            SquareStrategy::Parallel,
        );
        assert!(out.groups.is_empty());
    }
}
