//! Property-based tests for the bipartite-graph substrate.

use proptest::prelude::*;
use ricd_graph::{
    components::connected_components,
    io,
    twohop::{self, CommonNeighborScratch},
    GraphBuilder, GraphView, ItemId, UserId,
};
use std::collections::{BTreeMap, BTreeSet};

/// Strategy: a random multiset of click records over small id spaces.
fn records() -> impl Strategy<Value = Vec<(u32, u32, u32)>> {
    proptest::collection::vec((0u32..40, 0u32..30, 1u32..20), 0..200)
}

fn build(records: &[(u32, u32, u32)]) -> ricd_graph::BipartiteGraph {
    let mut b = GraphBuilder::new();
    for &(u, v, c) in records {
        b.add_click(UserId(u), ItemId(v), c);
    }
    b.build()
}

proptest! {
    /// The CSR invariants hold for any input multiset.
    #[test]
    fn built_graph_is_valid(recs in records()) {
        let g = build(&recs);
        prop_assert!(g.validate().is_ok());
    }

    /// Builder merge semantics equal a reference BTreeMap accumulation.
    #[test]
    fn builder_matches_reference_model(recs in records()) {
        let g = build(&recs);
        let mut model: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        for &(u, v, c) in &recs {
            *model.entry((u, v)).or_default() += c as u64;
        }
        prop_assert_eq!(g.num_edges(), model.len());
        for (&(u, v), &c) in &model {
            prop_assert_eq!(g.clicks(UserId(u), ItemId(v)).map(u64::from), Some(c));
        }
        let total: u64 = model.values().sum();
        prop_assert_eq!(g.total_clicks(), total);
    }

    /// Row sums equal column sums equal total clicks.
    #[test]
    fn totals_are_consistent(recs in records()) {
        let g = build(&recs);
        let by_user: u64 = g.all_user_total_clicks().iter().sum();
        let by_item: u64 = g.all_item_total_clicks().iter().sum();
        prop_assert_eq!(by_user, g.total_clicks());
        prop_assert_eq!(by_item, g.total_clicks());
    }

    /// TSV serialization round-trips the edge multiset.
    #[test]
    fn serialization_round_trips(recs in records()) {
        let g = build(&recs);
        let mut tsv = Vec::new();
        io::write_tsv(&g, &mut tsv).unwrap();
        let g_tsv = io::read_tsv(tsv.as_slice()).unwrap();
        prop_assert_eq!(g_tsv.num_edges(), g.num_edges());
        prop_assert_eq!(g_tsv.total_clicks(), g.total_clicks());
        let a: Vec<_> = g.edges().collect();
        let b: Vec<_> = g_tsv.edges().collect();
        prop_assert_eq!(a, b);
    }

    /// After arbitrary removals, live degrees match a naive recount.
    #[test]
    fn view_degrees_match_recount(recs in records(),
                                  dead_users in proptest::collection::btree_set(0u32..40, 0..20),
                                  dead_items in proptest::collection::btree_set(0u32..30, 0..15)) {
        let g = build(&recs);
        let mut view = GraphView::full(&g);
        for &u in &dead_users {
            if (u as usize) < g.num_users() {
                view.remove_user(UserId(u));
            }
        }
        for &v in &dead_items {
            if (v as usize) < g.num_items() {
                view.remove_item(ItemId(v));
            }
        }
        prop_assert!(view.check_consistency());
        for u in view.users() {
            let recount = g.user_adjacency(u).iter().filter(|v| view.item_alive(**v)).count();
            prop_assert_eq!(view.user_degree(u), recount);
        }
    }

    /// Wedge-based common-neighbor counts equal the merge-based exact count.
    #[test]
    fn wedge_counts_match_exact(recs in records()) {
        let g = build(&recs);
        let view = GraphView::full(&g);
        let mut scratch = CommonNeighborScratch::new(g.num_users());
        for u in g.users().take(10) {
            twohop::for_each_common_neighbor(&view, u, &mut scratch, |other, count| {
                assert_eq!(count, twohop::user_common_neighbors(&view, u, other),
                           "mismatch for {u} vs {other}");
            });
        }
    }

    /// Components partition the alive vertex set.
    #[test]
    fn components_partition_vertices(recs in records()) {
        let g = build(&recs);
        let view = GraphView::full(&g);
        let comps = connected_components(&view);
        let mut users = BTreeSet::new();
        let mut items = BTreeSet::new();
        for c in &comps {
            for &u in &c.users {
                prop_assert!(users.insert(u), "user in two components");
            }
            for &v in &c.items {
                prop_assert!(items.insert(v), "item in two components");
            }
        }
        prop_assert_eq!(users.len(), g.num_users());
        prop_assert_eq!(items.len(), g.num_items());
    }

    /// Lossy TSV reads recover exactly the clean-subset graph and report
    /// every malformed line, in order, with nothing dropped silently.
    #[test]
    fn lossy_read_partitions_lines(recs in records(),
                                   bad_at in proptest::collection::btree_set(0usize..64, 0..12),
                                   junk_pick in 0usize..4) {
        let junk = ["garbage", "1\t2", "x\t0\t1", "0\t0\t99999999999"][junk_pick];
        // Interleave clean records with malformed lines at chosen slots.
        let mut text = String::new();
        let mut clean = Vec::new();
        let mut expected_bad = Vec::new();
        let mut line_no = 0usize;
        for (i, &(u, v, c)) in recs.iter().enumerate() {
            if bad_at.contains(&i) {
                line_no += 1;
                text.push_str(junk);
                text.push('\n');
                expected_bad.push(line_no);
            }
            line_no += 1;
            text.push_str(&format!("{u}\t{v}\t{c}\n"));
            clean.push((u, v, c));
        }
        let lossy = io::read_tsv_lossy(text.as_bytes()).unwrap();
        let reference = build(&clean);
        prop_assert_eq!(lossy.graph.num_edges(), reference.num_edges());
        prop_assert_eq!(lossy.graph.total_clicks(), reference.total_clicks());
        let reported: Vec<usize> = lossy.errors.iter().map(|e| e.line).collect();
        prop_assert_eq!(reported, expected_bad);
        // Strict read agrees whenever there is nothing to quarantine.
        if expected_bad.is_empty() {
            prop_assert!(io::read_tsv(text.as_bytes()).is_ok());
        } else {
            prop_assert!(io::read_tsv(text.as_bytes()).is_err());
        }
    }

    /// Every edge stays inside one component.
    #[test]
    fn edges_do_not_cross_components(recs in records()) {
        let g = build(&recs);
        let view = GraphView::full(&g);
        let comps = connected_components(&view);
        let mut user_comp = vec![usize::MAX; g.num_users()];
        for (i, c) in comps.iter().enumerate() {
            for &u in &c.users {
                user_comp[u.index()] = i;
            }
        }
        let mut item_comp = vec![usize::MAX; g.num_items()];
        for (i, c) in comps.iter().enumerate() {
            for &v in &c.items {
                item_comp[v.index()] = i;
            }
        }
        for (u, v, _) in g.edges() {
            prop_assert_eq!(user_comp[u.index()], item_comp[v.index()]);
        }
    }
}
