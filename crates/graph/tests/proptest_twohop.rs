//! Differential property tests for the two two-hop survival kernels: the
//! wedge-accumulation counter (the reference) and the cache-blocked SWAR
//! kernel (`twohop::blocked_has_qualified_neighbors`). Both are written for
//! the user side of a view; items are checked as the users of the
//! [`Transposed`] view against the registry's other half.
//!
//! The pruning fixpoint dispatches every SquarePruning removal decision to
//! one of these kernels per anchor; the wedge test is the semantic
//! reference, kept precisely so these properties can assert the two always
//! agree — on random graphs, on both graph representations, under stale
//! hub registries (built before removals), with empty registries, and on
//! the adversarial shapes (star hubs, degree-1 chains with nothing to
//! intersect, candidate sets straddling 64-bit word boundaries).

use proptest::prelude::*;
use ricd_graph::{
    twohop::{
        blocked_has_qualified_neighbors, has_qualified_neighbors, CommonNeighborScratch,
        HubBitmaps, HubSide, KernelScratch,
    },
    CompactBigraph, CompactView, DeltaAdjacency, GraphBuilder, GraphView, ItemId, NeighborView,
    Transposed, UserId,
};

fn records() -> impl Strategy<Value = Vec<(u32, u32, u32)>> {
    proptest::collection::vec((0u32..50, 0u32..35, 1u32..10), 0..250)
}

fn build(records: &[(u32, u32, u32)]) -> ricd_graph::BipartiteGraph {
    let mut b = GraphBuilder::new();
    for &(u, v, c) in records {
        b.add_click(UserId(u), ItemId(v), c);
    }
    b.build()
}

/// Exhaustively compares both kernels over every vertex of any view under
/// a given (possibly stale, possibly empty) hub registry. The wedge kernel
/// is the reference; blocked must match it bit for bit.
fn assert_kernels_agree<V: NeighborView>(
    view: &V,
    hubs: &HubBitmaps,
    bounds: std::ops::Range<u32>,
    needs: std::ops::Range<usize>,
) {
    assert_side_agrees("user", view, &hubs.items, bounds.clone(), needs.clone());
    assert_side_agrees("item", &Transposed(view), &hubs.users, bounds, needs);
}

/// One side of [`assert_kernels_agree`]: every anchor on `view`'s user side.
fn assert_side_agrees<V: NeighborView>(
    side: &str,
    view: &V,
    hubs: &HubSide,
    bounds: std::ops::Range<u32>,
    needs: std::ops::Range<usize>,
) {
    let mut wedge = CommonNeighborScratch::new(view.num_users());
    let mut ks = KernelScratch::new(view.num_users());
    for u in (0..view.num_users() as u32).map(UserId) {
        for bound in bounds.clone() {
            for need in needs.clone() {
                assert_eq!(
                    blocked_has_qualified_neighbors(view, hubs, u, bound, need, &mut ks),
                    has_qualified_neighbors(view, u, bound, need, &mut wedge),
                    "{side} {} bound={bound} need={need}",
                    u.0
                );
            }
        }
    }
}

proptest! {
    /// Star hubs: one ultra-popular item shared by every user (the shape
    /// the hub registry exists for); leaf users have nothing else in
    /// common.
    #[test]
    fn star_hub_worlds(hub_users in 20u32..80, clique in 2u32..6) {
        let mut b = GraphBuilder::new();
        for u in 0..hub_users {
            b.add_click(UserId(u), ItemId(0), 1);
        }
        // A small clique of users sharing `clique` private items each.
        for u in 0..4u32 {
            for v in 0..clique {
                b.add_click(UserId(u), ItemId(1 + v), 1);
            }
        }
        // Degree-1 chain stragglers: user i clicks only private item i.
        for i in 0..10u32 {
            b.add_click(UserId(hub_users + i), ItemId(100 + i), 1);
        }
        let g = b.build();
        let mut view = GraphView::full(&g);
        let hubs = HubBitmaps::build(&view, 4, 64);
        prop_assert!(hubs.items.count() > 0, "the shared item must be a hub");
        assert_kernels_agree(&view, &hubs, 0..5, 0..5);
        // And with the hub removed (registry now stale); still identical.
        view.remove_item(ItemId(0));
        assert_kernels_agree(&view, &hubs, 0..5, 0..5);
    }

    /// Sorted-invariant violations are rejected at construction, not
    /// silently mis-encoded: any adjacency list with a duplicate or an
    /// inversion fails `DeltaAdjacency::from_lists`.
    #[test]
    fn unsorted_adjacency_rejected(ids in proptest::collection::vec(0u32..100, 2..30),
                                   dup_at in 0usize..28) {
        let mut sorted: Vec<u32> = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        // A valid strictly-increasing list encodes fine.
        let ok = [sorted.as_slice()];
        prop_assert!(DeltaAdjacency::from_lists(ok, 100).is_ok());
        if sorted.len() >= 2 {
            // Duplicate injection.
            let mut dup = sorted.clone();
            let at = dup_at % (dup.len() - 1);
            dup.insert(at, dup[at]);
            prop_assert!(DeltaAdjacency::from_lists([dup.as_slice()], 100).is_err());
            // Inversion injection.
            let mut inv = sorted.clone();
            inv.swap(0, sorted.len() - 1);
            prop_assert!(DeltaAdjacency::from_lists([inv.as_slice()], 100).is_err());
        }
        // Out-of-range neighbor id.
        let oob = [&[100u32][..]];
        prop_assert!(DeltaAdjacency::from_lists(oob, 100).is_err());
    }
}

proptest! {
    /// Agreement on random graphs, across the registry spectrum:
    /// `hub_min = 1` (almost everything is a hub), `4` (a realistic
    /// hot-vertex floor), and `1000` (an *empty* registry — the blocked
    /// kernel must stream adjacency instead of ANDing bitmaps).
    #[test]
    fn blocked_equals_wedge_on_random_graphs(
        recs in records(),
        hub_min_idx in 0usize..3,
    ) {
        let hub_min = [1u32, 4, 1000][hub_min_idx];
        let g = build(&recs);
        let view = GraphView::full(&g);
        let hubs = HubBitmaps::build(&view, hub_min, 64);
        assert_kernels_agree(&view, &hubs, 0..4, 0..5);
    }

    /// Hub staleness soundness: the registry is built on the *full* view,
    /// then vertices are removed. Removals are monotone, so the stale
    /// bitmaps must keep answering exactly — including when the removals
    /// wipe out every hub vertex itself (mass-removal regime).
    #[test]
    fn stale_hub_registry_stays_exact_under_removals(
        recs in records(),
        dead_users in proptest::collection::btree_set(0u32..50, 0..30),
        dead_items in proptest::collection::btree_set(0u32..35, 0..20),
        hub_min_idx in 0usize..2,
    ) {
        let hub_min = [1u32, 4][hub_min_idx];
        let g = build(&recs);
        let mut view = GraphView::full(&g);
        let hubs = HubBitmaps::build(&view, hub_min, 64);
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
        assert_kernels_agree(&view, &hubs, 0..4, 0..5);
        // A registry rebuilt after the mass removal may be empty; the
        // blocked kernel must degrade to adjacency streaming and agree.
        let rebuilt = HubBitmaps::build(&view, 1000, 64);
        prop_assert_eq!(rebuilt.items.count(), 0);
        prop_assert_eq!(rebuilt.users.count(), 0);
        assert_kernels_agree(&view, &rebuilt, 0..4, 0..5);
    }

    /// Representation independence for the blocked kernel: identical
    /// answers over the dense `GraphView` and the compact `CompactView`
    /// after mirrored removals, with each view's own registry.
    #[test]
    fn blocked_kernel_agrees_across_representations(
        recs in records(),
        kills in proptest::collection::vec((any::<bool>(), 0u32..50), 0..40),
    ) {
        let g = build(&recs);
        let c = CompactBigraph::from_graph(&g);
        let mut dense = GraphView::full(&g);
        let mut compact = CompactView::full(&c);
        for &(is_user, id) in &kills {
            if is_user {
                if (id as usize) < g.num_users() {
                    dense.remove_user(UserId(id));
                    compact.remove_user(UserId(id));
                }
            } else if (id as usize) < g.num_items() {
                dense.remove_item(ItemId(id));
                compact.remove_item(ItemId(id));
            }
        }
        let hubs_d = HubBitmaps::build(&dense, 2, 64);
        let hubs_c = HubBitmaps::build(&compact, 2, 64);
        let mut k1 = KernelScratch::new(g.num_users());
        let mut k2 = KernelScratch::new(g.num_users());
        for u in (0..g.num_users() as u32).map(UserId) {
            for bound in 0..3u32 {
                for need in 0..4usize {
                    prop_assert_eq!(
                        blocked_has_qualified_neighbors(&dense, &hubs_d.items, u, bound, need, &mut k1),
                        blocked_has_qualified_neighbors(&compact, &hubs_c.items, u, bound, need, &mut k2),
                        "user {} bound={} need={}", u, bound, need
                    );
                }
            }
        }
    }
}

/// Candidate sets straddling u64 word boundaries: one hub item clicked by
/// 64k−1, 64k, and 64k+1 users. The anchor's partner count lands exactly
/// at the last bit of the last word (and one past it), so any off-by-one
/// in the word-chunked AND+popcount loop flips the `need`-at-the-bound
/// answer.
#[test]
fn blocked_kernel_exact_at_word_boundary_populations() {
    for extra in [-1i64, 0, 1] {
        let n_users = (65_536i64 + extra) as u32;
        let mut b = GraphBuilder::new();
        for u in 0..n_users {
            b.add_click(UserId(u), ItemId(0), 1);
        }
        let g = b.build();
        let view = GraphView::full(&g);
        let hubs = HubBitmaps::build(&view, 1, 4);
        assert!(hubs.items.count() > 0, "the shared item must be a hub");
        let mut ks = KernelScratch::new(g.num_users());
        let mut wedge = CommonNeighborScratch::new(g.num_users());
        // Probe anchors at both ends; partners = everyone else.
        let partners = (n_users - 1) as usize;
        for u in [UserId(0), UserId(n_users - 1)] {
            for need in [partners - 1, partners, partners + 1] {
                let want = has_qualified_neighbors(&view, u, 1, need, &mut wedge);
                assert_eq!(
                    blocked_has_qualified_neighbors(&view, &hubs.items, u, 1, need, &mut ks),
                    want,
                    "n_users={n_users} u={u} need={need}"
                );
                assert_eq!(
                    want,
                    need <= partners,
                    "sanity: exactly {partners} partners"
                );
            }
        }
    }
}

/// `need` exactly at the qualified-partner bound on a perfect biclique,
/// answered by the *blocked* kernel against a populated registry: everyone
/// qualifies right up to (bound = items, need = users−1) and fails one
/// past it on either axis.
#[test]
fn blocked_biclique_boundary_is_exact() {
    let (nu, ni) = (9u32, 7u32);
    let mut b = GraphBuilder::new();
    for u in 0..nu {
        for v in 0..ni {
            b.add_click(UserId(u), ItemId(v), 2);
        }
    }
    let g = b.build();
    let view = GraphView::full(&g);
    let hubs = HubBitmaps::build(&view, 1, 64);
    let mut ks = KernelScratch::new(g.num_users());
    for u in (0..nu).map(UserId) {
        assert!(blocked_has_qualified_neighbors(
            &view,
            &hubs.items,
            u,
            ni,
            (nu - 1) as usize,
            &mut ks
        ));
        assert!(!blocked_has_qualified_neighbors(
            &view,
            &hubs.items,
            u,
            ni + 1,
            1,
            &mut ks
        ));
        assert!(!blocked_has_qualified_neighbors(
            &view,
            &hubs.items,
            u,
            ni,
            nu as usize,
            &mut ks
        ));
    }
    assert_kernels_agree(&view, &hubs, 0..9, 0..5);
}

/// Degree-1 chains end to end: u_i — v_i with no shared items anywhere.
/// Nobody has any qualified partner at bound ≥ 1; at bound 0 partners are
/// still absent because no item has two users.
#[test]
fn degree_one_chain_has_no_partners() {
    let mut b = GraphBuilder::new();
    for i in 0..70u32 {
        b.add_click(UserId(i), ItemId(i), 3);
    }
    let g = b.build();
    let view = GraphView::full(&g);
    let hubs = HubBitmaps::build(&view, 1, 64);
    assert_kernels_agree(&view, &hubs, 0..3, 0..5);
    let mut ks = KernelScratch::new(g.num_users());
    for u in (0..70u32).map(UserId) {
        for (bound, need, want) in [(1, 1, false), (0, 1, false), (3, 0, true)] {
            assert_eq!(
                blocked_has_qualified_neighbors(&view, &hubs.items, u, bound, need, &mut ks),
                want,
                "u={u} bound={bound} need={need}"
            );
        }
    }
}
