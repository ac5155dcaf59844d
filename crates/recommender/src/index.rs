//! The item-to-item co-click index.

use ricd_engine::WorkerPool;
use ricd_graph::{BipartiteGraph, ItemId, UserId};
use serde::{Deserialize, Serialize};

/// A truncated I2I index: for every anchor item, the top-N related items by
/// Eq 1 score.
///
/// Built the way a production pipeline would: for each anchor item, wedge
/// enumeration over its clickers accumulates co-click counts `Cᵢ`, scores
/// are `Cᵢ / Σⱼ Cⱼ` (Eq 1), and only the top `n_per_item` survive. Anchors
/// are processed in parallel across the worker pool.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct I2iIndex {
    /// `lists[anchor] = [(related item, score)]`, descending score.
    lists: Vec<Vec<(ItemId, f32)>>,
}

impl I2iIndex {
    /// Builds the index with `n_per_item` entries per anchor.
    pub fn build(g: &BipartiteGraph, n_per_item: usize, pool: &WorkerPool) -> Self {
        Self::build_cleaned(g, n_per_item, pool, &[])
    }

    /// Builds the **cleaned** index: wedges through `excluded_users` (a
    /// sorted slice, typically a detection result's suspicious users) are
    /// skipped, so the co-clicks crowd workers forged never enter any
    /// anchor's list. This is the serving path that subtracts a detected
    /// attack from the recommender — the targets fall back to whatever
    /// organic co-click support they actually have.
    pub fn build_cleaned(
        g: &BipartiteGraph,
        n_per_item: usize,
        pool: &WorkerPool,
        excluded_users: &[UserId],
    ) -> Self {
        debug_assert!(excluded_users.windows(2).all(|w| w[0] <= w[1]));
        // One count table per partition, reused across its anchors.
        let chunks = pool.run_partitioned(g.num_items(), |anchors| {
            let mut scratch = CoClicks {
                counts: vec![0; g.num_items()],
                touched: Vec::new(),
            };
            anchors
                .map(|a| {
                    build_list(
                        g,
                        ItemId(a as u32),
                        n_per_item,
                        excluded_users,
                        &mut scratch,
                    )
                })
                .collect::<Vec<_>>()
        });
        Self {
            lists: chunks.into_iter().flatten().collect(),
        }
    }

    /// The recommendation list for an anchor item (empty if the anchor has
    /// no co-clicks).
    pub fn related(&self, anchor: ItemId) -> &[(ItemId, f32)] {
        self.lists
            .get(anchor.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The Eq 1 score of `item` against `anchor` within the truncated list.
    pub fn score(&self, anchor: ItemId, item: ItemId) -> Option<f32> {
        self.related(anchor)
            .iter()
            .find(|&&(v, _)| v == item)
            .map(|&(_, s)| s)
    }

    /// The rank (1-based) of `item` in `anchor`'s list, if present.
    pub fn rank(&self, anchor: ItemId, item: ItemId) -> Option<usize> {
        self.related(anchor)
            .iter()
            .position(|&(v, _)| v == item)
            .map(|p| p + 1)
    }

    /// Number of anchor items.
    pub fn num_items(&self) -> usize {
        self.lists.len()
    }
}

/// Wedge-accumulation scratch: a dense co-click count per item, plus the
/// items whose count is non-zero, through which the table is zeroed again
/// after each anchor (so an anchor costs its wedges, not `num_items`).
struct CoClicks {
    counts: Vec<u64>,
    touched: Vec<ItemId>,
}

fn build_list(
    g: &BipartiteGraph,
    anchor: ItemId,
    n: usize,
    excluded_users: &[UserId],
    scratch: &mut CoClicks,
) -> Vec<(ItemId, f32)> {
    let CoClicks { counts, touched } = scratch;
    let mut total = 0u64;
    for (u, _) in g.item_neighbors(anchor) {
        if excluded_users.binary_search(&u).is_ok() {
            continue;
        }
        for (v, c) in g.user_neighbors(u) {
            if v != anchor {
                // Click counts are ≥ 1, so a zero count means "not yet seen".
                if counts[v.index()] == 0 {
                    touched.push(v);
                }
                counts[v.index()] += c as u64;
                total += c as u64;
            }
        }
    }
    let mut scored: Vec<(ItemId, f32)> = touched
        .drain(..)
        .map(|v| {
            let c = std::mem::take(&mut counts[v.index()]);
            (v, (c as f64 / total as f64) as f32)
        })
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    scored.truncate(n);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use ricd_graph::{GraphBuilder, UserId};

    fn toy() -> BipartiteGraph {
        // u0: i0, i1 x3 ; u1: i0 x2, i2 ; u2: i1 x5 (no i0 co-click).
        let mut b = GraphBuilder::new();
        b.add_click(UserId(0), ItemId(0), 1);
        b.add_click(UserId(0), ItemId(1), 3);
        b.add_click(UserId(1), ItemId(0), 2);
        b.add_click(UserId(1), ItemId(2), 1);
        b.add_click(UserId(2), ItemId(1), 5);
        b.build()
    }

    #[test]
    fn scores_match_eq1() {
        let idx = I2iIndex::build(&toy(), 10, &WorkerPool::new(2));
        // anchor i0: C(i1) = 3, C(i2) = 1 → scores 0.75 / 0.25.
        assert_eq!(idx.rank(ItemId(0), ItemId(1)), Some(1));
        assert!((idx.score(ItemId(0), ItemId(1)).unwrap() - 0.75).abs() < 1e-6);
        assert!((idx.score(ItemId(0), ItemId(2)).unwrap() - 0.25).abs() < 1e-6);
        assert_eq!(idx.score(ItemId(0), ItemId(0)), None, "self excluded");
    }

    #[test]
    fn truncation_keeps_top_n() {
        let mut b = GraphBuilder::new();
        for v in 1..20u32 {
            b.add_click(UserId(0), ItemId(v), v);
        }
        b.add_click(UserId(0), ItemId(0), 1);
        let g = b.build();
        let idx = I2iIndex::build(&g, 5, &WorkerPool::new(2));
        let related = idx.related(ItemId(0));
        assert_eq!(related.len(), 5);
        assert_eq!(related[0].0, ItemId(19), "highest co-click first");
        assert!(related.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn isolated_anchor_is_empty() {
        let idx = I2iIndex::build(&toy(), 10, &WorkerPool::new(2));
        // i2's only clicker is u1 → co-click with i0 only.
        assert_eq!(idx.related(ItemId(2)).len(), 1);
        assert!(idx.rank(ItemId(2), ItemId(9)).is_none());
    }

    #[test]
    fn matches_core_i2i_ranking() {
        // The index agrees with the reference single-anchor computation in
        // ricd-core.
        let g = toy();
        let idx = I2iIndex::build(&g, 100, &WorkerPool::new(2));
        let reference = ricd_core::i2i::i2i_ranking(&g, ItemId(0));
        let ours = idx.related(ItemId(0));
        assert_eq!(ours.len(), reference.len());
        for (a, b) in ours.iter().zip(&reference) {
            assert_eq!(a.0, b.0);
            assert!((a.1 as f64 - b.1).abs() < 1e-6);
        }
    }

    #[test]
    fn cleaned_index_drops_forged_wedges() {
        // Organic co-click i0↔i1; workers u10/u11 forge i0↔i99.
        let mut b = GraphBuilder::new();
        b.add_click(UserId(0), ItemId(0), 1);
        b.add_click(UserId(0), ItemId(1), 3);
        for w in 10..12u32 {
            b.add_click(UserId(w), ItemId(0), 1);
            b.add_click(UserId(w), ItemId(99), 14);
        }
        let g = b.build();
        let pool = WorkerPool::new(2);
        let dirty = I2iIndex::build(&g, 10, &pool);
        assert!(dirty.rank(ItemId(0), ItemId(99)).is_some(), "attack landed");
        let cleaned = I2iIndex::build_cleaned(&g, 10, &pool, &[UserId(10), UserId(11)]);
        assert!(cleaned.rank(ItemId(0), ItemId(99)).is_none(), "subtracted");
        assert_eq!(
            cleaned.rank(ItemId(0), ItemId(1)),
            Some(1),
            "organic support survives the cleaning"
        );
    }

    #[test]
    fn cleaned_with_no_exclusions_matches_dirty() {
        let g = toy();
        let pool = WorkerPool::new(2);
        let a = I2iIndex::build(&g, 10, &pool);
        let b = I2iIndex::build_cleaned(&g, 10, &pool, &[]);
        for v in 0..g.num_items() as u32 {
            assert_eq!(a.related(ItemId(v)), b.related(ItemId(v)));
        }
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let g = toy();
        let a = I2iIndex::build(&g, 10, &WorkerPool::new(1));
        let b = I2iIndex::build(&g, 10, &WorkerPool::new(4));
        for v in 0..g.num_items() as u32 {
            assert_eq!(a.related(ItemId(v)), b.related(ItemId(v)));
        }
    }
}
