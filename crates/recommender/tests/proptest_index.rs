//! Differential test for the I2I index: `I2iIndex::build_cleaned` — dense
//! per-worker count tables zeroed through a touched list — against the
//! `HashMap`-per-anchor construction it replaced, kept below as the
//! reference. The sort key `(score desc, id asc)` is total, so the lists
//! must be identical, not merely equivalent; worker counts vary so anchors
//! land on tables left behind by different predecessors (the stale-count bug
//! class).

use proptest::prelude::*;
use ricd_engine::WorkerPool;
use ricd_graph::{BipartiteGraph, GraphBuilder, ItemId, UserId};
use ricd_recommender::I2iIndex;
use std::collections::HashMap;

/// Eq 1 for one anchor, accumulated in a fresh `HashMap`.
fn reference_list(
    g: &BipartiteGraph,
    anchor: ItemId,
    n: usize,
    excluded_users: &[UserId],
) -> Vec<(ItemId, f32)> {
    let mut counts: HashMap<ItemId, u64> = HashMap::new();
    for (u, _) in g.item_neighbors(anchor) {
        if excluded_users.binary_search(&u).is_ok() {
            continue;
        }
        for (v, c) in g.user_neighbors(u) {
            if v != anchor {
                *counts.entry(v).or_default() += c as u64;
            }
        }
    }
    let total: u64 = counts.values().sum();
    let mut scored: Vec<(ItemId, f32)> = counts
        .into_iter()
        .map(|(v, c)| (v, (c as f64 / total as f64) as f32))
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    scored.truncate(n);
    scored
}

const USERS: u32 = 40;
const ITEMS: u32 = 24;

fn worlds() -> impl Strategy<Value = BipartiteGraph> {
    proptest::collection::vec((0..USERS, 0..ITEMS, 1u32..20), 0..300).prop_map(|edges| {
        let mut b = GraphBuilder::new();
        for (u, v, c) in edges {
            b.add_click(UserId(u), ItemId(v), c);
        }
        // The last ids always exist: the count table is indexed at its
        // final slot, and every excluded user below is in range.
        b.add_click(UserId(USERS - 1), ItemId(ITEMS - 1), 2);
        b.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dense_tables_match_the_hashmap_reference(
        g in worlds(),
        excluded in proptest::collection::btree_set(0..USERS, 0..12),
        n in 0usize..8,
        workers in 1usize..5,
    ) {
        let excluded: Vec<UserId> = excluded.into_iter().map(UserId).collect();
        let index = I2iIndex::build_cleaned(&g, n, &WorkerPool::new(workers), &excluded);
        prop_assert_eq!(index.num_items(), g.num_items());
        for anchor in g.items() {
            let want = reference_list(&g, anchor, n, &excluded);
            prop_assert_eq!(index.related(anchor), want.as_slice(), "anchor {}", anchor);
        }
    }
}
