//! Common Neighbors grouping (Daminelli et al., the Grape `CN` used in the
//! paper with `cn_threshold = 10`).
//!
//! Two users are "close" when they share at least `cn_threshold` co-clicked
//! items. Connected components of that similarity relation form user
//! clusters; a cluster's item set is every item co-clicked by at least
//! `min_item_support` of its members. The paper notes the gap to RICD:
//! "only considering neighbor information will cause many abnormal users or
//! items to be erroneously undetected".

use crate::ui::with_ui;
use ricd_core::params::RicdParams;
use ricd_core::result::{DetectionResult, SuspiciousGroup};
use ricd_engine::{Stopwatch, WorkerPool};
use ricd_graph::twohop::{self, CommonNeighborScratch};
use ricd_graph::{BipartiteGraph, GraphView, ItemId, UserId};
use serde::{Deserialize, Serialize};

/// CN parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CnParams {
    /// Minimum common neighbors linking two users (paper: 10, "consistent
    /// with the k₁, k₂ in RICD").
    pub cn_threshold: u32,
    /// Minimum cluster members that must have clicked an item for it to
    /// join the cluster's item set.
    pub min_item_support: usize,
}

impl Default for CnParams {
    fn default() -> Self {
        Self {
            cn_threshold: 10,
            min_item_support: 2,
        }
    }
}

/// Computes the user clusters and their item sets.
pub fn cn_communities(
    g: &BipartiteGraph,
    params: &CnParams,
    pool: &WorkerPool,
) -> Vec<SuspiciousGroup> {
    let view = GraphView::full(g);
    let n = g.num_users();

    // Similarity edges (u < u') with enough common neighbors, found by
    // wedge counting per user in parallel.
    let pairs: Vec<Vec<(u32, u32)>> = pool.run_partitioned(n, |range| {
        let mut scratch = CommonNeighborScratch::new(n);
        let mut local = Vec::new();
        for u in range {
            let uid = UserId(u as u32);
            twohop::for_each_common_neighbor(&view, uid, &mut scratch, |other, count| {
                if other.0 > u as u32 && count >= params.cn_threshold {
                    local.push((u as u32, other.0));
                }
            });
        }
        local
    });

    // Union-find over users.
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    for batch in pairs {
        for (a, b) in batch {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                parent[ra as usize] = rb;
            }
        }
    }

    // Clusters with ≥ 2 members (singletons carry no CN evidence).
    let mut clusters: std::collections::HashMap<u32, Vec<UserId>> =
        std::collections::HashMap::new();
    for u in 0..n as u32 {
        clusters
            .entry(find(&mut parent, u))
            .or_default()
            .push(UserId(u));
    }
    let mut out = Vec::new();
    for (_, users) in clusters {
        if users.len() < 2 {
            continue;
        }
        // Item support count within the cluster.
        let mut support: std::collections::HashMap<ItemId, usize> =
            std::collections::HashMap::new();
        for &u in &users {
            for v in g.user_adjacency(u) {
                *support.entry(*v).or_default() += 1;
            }
        }
        let mut items: Vec<ItemId> = support
            .into_iter()
            .filter(|&(_, s)| s >= params.min_item_support)
            .map(|(v, _)| v)
            .collect();
        items.sort_unstable();
        let mut users = users;
        users.sort_unstable();
        out.push(SuspiciousGroup {
            users,
            items,
            ridden_hot_items: vec![],
        });
    }
    out.sort_by_key(|c| c.users.first().copied());
    out
}

/// CN + UI screening.
pub fn cn_detect(
    g: &BipartiteGraph,
    params: &CnParams,
    ricd_params: &RicdParams,
    pool: &WorkerPool,
) -> DetectionResult {
    let sw = Stopwatch::start();
    let comms = cn_communities(g, params, pool);
    let detect_time = sw.elapsed();
    with_ui(g, comms, ricd_params, detect_time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ricd_graph::GraphBuilder;

    fn block_graph() -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        // 12 users sharing 11 items (CN = 11 ≥ 10).
        for u in 0..12u32 {
            for v in 0..11u32 {
                b.add_click(UserId(u), ItemId(v), 14);
            }
        }
        // Two users sharing only 3 items (below threshold).
        for v in 50..53u32 {
            b.add_click(UserId(20), ItemId(v), 1);
            b.add_click(UserId(21), ItemId(v), 1);
        }
        b.build()
    }

    #[test]
    fn clusters_form_at_threshold() {
        let g = block_graph();
        let comms = cn_communities(&g, &CnParams::default(), &WorkerPool::new(2));
        assert_eq!(comms.len(), 1, "only the dense block clusters");
        assert_eq!(comms[0].users.len(), 12);
        assert_eq!(comms[0].items.len(), 11);
    }

    #[test]
    fn low_threshold_links_weak_pairs() {
        let g = block_graph();
        let p = CnParams {
            cn_threshold: 3,
            ..CnParams::default()
        };
        let comms = cn_communities(&g, &p, &WorkerPool::new(2));
        assert_eq!(comms.len(), 2);
    }

    #[test]
    fn item_support_filters_stray_items() {
        let mut b = GraphBuilder::new();
        for u in 0..12u32 {
            for v in 0..11u32 {
                b.add_click(UserId(u), ItemId(v), 14);
            }
        }
        // One member also clicked a personal item.
        b.add_click(UserId(0), ItemId(99), 3);
        let g = b.build();
        let comms = cn_communities(&g, &CnParams::default(), &WorkerPool::new(2));
        assert!(!comms[0].items.contains(&ItemId(99)));
    }

    #[test]
    fn detect_with_ui_outputs_block() {
        let g = block_graph();
        let r = cn_detect(
            &g,
            &CnParams::default(),
            &RicdParams::default(),
            &WorkerPool::new(2),
        );
        assert_eq!(r.groups.len(), 1);
        assert_eq!(r.groups[0].users.len(), 12);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        let comms = cn_communities(&g, &CnParams::default(), &WorkerPool::new(2));
        assert!(comms.is_empty());
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let g = block_graph();
        let a = cn_communities(&g, &CnParams::default(), &WorkerPool::new(1));
        let b = cn_communities(&g, &CnParams::default(), &WorkerPool::new(4));
        assert_eq!(a, b);
    }
}
