//! Property tests for the (α, k₁, k₂)-extension biclique extraction
//! (Algorithm 3): the Lemma 1/2 invariants on survivors, planted-structure
//! completeness, fixpoint idempotence, strategy agreement, agreement with
//! the literal reference fixpoint, and transpose symmetry (the item side is
//! the user side of `Gᵀ`).

use proptest::prelude::*;
use ricd_core::extract::{extract, extract_with, FixpointMode, SquareStrategy};
use ricd_core::params::RicdParams;
use ricd_engine::WorkerPool;
use ricd_graph::twohop::{self, CommonNeighborScratch};
use ricd_graph::{BipartiteGraph, GraphBuilder, GraphView, ItemId, UserId};

/// Random sparse noise plus an optional planted biclique.
fn graphs() -> impl Strategy<Value = (BipartiteGraph, Option<usize>)> {
    (
        proptest::collection::vec((0u32..60, 0u32..40, 1u32..20), 0..300),
        proptest::option::of(6usize..12), // planted k x k biclique size
    )
        .prop_map(|(noise, planted)| {
            let mut b = GraphBuilder::new();
            for (u, v, c) in noise {
                b.add_click(UserId(u), ItemId(v), c);
            }
            if let Some(k) = planted {
                // Plant at offset ids so noise overlaps only partially.
                for u in 0..k as u32 {
                    for v in 0..k as u32 {
                        b.add_click(UserId(100 + u), ItemId(100 + v), 13);
                    }
                }
            }
            (b.build(), planted)
        })
}

fn params(k: usize, alpha: f64) -> RicdParams {
    RicdParams {
        k1: k,
        k2: k,
        alpha,
        ..RicdParams::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lemma 1: every survivor satisfies the degree bounds.
    #[test]
    fn survivors_satisfy_degree_bounds((g, _) in graphs(), k in 3usize..8) {
        let p = params(k, 1.0);
        let mut view = GraphView::full(&g);
        extract(&mut view, &p, &WorkerPool::new(2), SquareStrategy::Parallel);
        for u in view.users() {
            prop_assert!(view.user_degree(u) >= p.user_degree_bound(),
                "{u} degree {} < bound {}", view.user_degree(u), p.user_degree_bound());
        }
        for v in view.items() {
            prop_assert!(view.item_degree(v) >= p.item_degree_bound());
        }
    }

    /// Lemma 2: every survivor has enough (α, k)-neighbors (self included
    /// when its degree qualifies).
    #[test]
    fn survivors_satisfy_neighbor_bounds((g, _) in graphs(), k in 3usize..8) {
        let p = params(k, 1.0);
        let mut view = GraphView::full(&g);
        extract(&mut view, &p, &WorkerPool::new(2), SquareStrategy::Parallel);
        let mut scratch = CommonNeighborScratch::new(g.num_users());
        for u in view.users() {
            let mut count = usize::from(view.user_degree(u) as u32 >= p.user_common_bound());
            twohop::for_each_common_neighbor(&view, u, &mut scratch, |_, c| {
                if c >= p.user_common_bound() {
                    count += 1;
                }
            });
            prop_assert!(count >= p.k1, "{u} has {count} qualified neighbors < k1 {}", p.k1);
        }
    }

    /// A planted biclique at least (k1, k2) large always survives intact.
    #[test]
    fn planted_biclique_survives((g, planted) in graphs(), k in 3usize..6) {
        prop_assume!(planted.is_some());
        let size = planted.unwrap();
        prop_assume!(size >= k);
        let p = params(k, 1.0);
        let mut view = GraphView::full(&g);
        extract(&mut view, &p, &WorkerPool::new(2), SquareStrategy::Parallel);
        for u in 0..size as u32 {
            prop_assert!(view.user_alive(UserId(100 + u)), "planted worker pruned");
        }
        for v in 0..size as u32 {
            prop_assert!(view.item_alive(ItemId(100 + v)), "planted target pruned");
        }
    }

    /// Extraction is idempotent: a second run removes nothing.
    #[test]
    fn extraction_is_idempotent((g, _) in graphs(), k in 3usize..8) {
        let p = params(k, 1.0);
        let mut view = GraphView::full(&g);
        extract(&mut view, &p, &WorkerPool::new(2), SquareStrategy::Parallel);
        let before = view.alive_sets();
        let stats = extract(&mut view, &p, &WorkerPool::new(2), SquareStrategy::Parallel);
        prop_assert_eq!(view.alive_sets(), before);
        prop_assert_eq!(stats.core_removed_users + stats.square_removed_users, 0);
    }

    /// Parallel and sequential strategies reach the same fixpoint.
    #[test]
    fn strategies_agree((g, _) in graphs(), k in 3usize..8, alpha in 0.7f64..=1.0) {
        let p = params(k, alpha);
        let mut a = GraphView::full(&g);
        extract(&mut a, &p, &WorkerPool::new(4), SquareStrategy::Parallel);
        let mut b = GraphView::full(&g);
        extract(&mut b, &p, &WorkerPool::new(1), SquareStrategy::SequentialOrdered);
        prop_assert_eq!(a.alive_sets(), b.alive_sets());
    }

    /// Looser α never prunes more than stricter α (monotonicity of the
    /// admission condition).
    #[test]
    fn alpha_monotonicity((g, _) in graphs(), k in 3usize..8) {
        let mut strict = GraphView::full(&g);
        extract(&mut strict, &params(k, 1.0), &WorkerPool::new(2), SquareStrategy::Parallel);
        let mut loose = GraphView::full(&g);
        extract(&mut loose, &params(k, 0.7), &WorkerPool::new(2), SquareStrategy::Parallel);
        // Everything alive under α=1.0 stays alive under α=0.7 (the bounds
        // only shrink).
        for u in strict.users() {
            prop_assert!(loose.user_alive(u), "{u} alive at α=1.0 but pruned at α=0.7");
        }
        for v in strict.items() {
            prop_assert!(loose.item_alive(v));
        }
    }

    /// The default fixpoint (parallel, delta) leaves the same alive set as
    /// the literal reference (sequential pseudocode, full rescan every
    /// round).
    #[test]
    fn dense_view_reaches_the_reference_fixpoint(
        (g, _) in graphs(),
        k in 3usize..8,
        alpha in 0.7f64..=1.0,
    ) {
        let p = params(k, alpha);
        let pool = WorkerPool::new(2);
        let mut dense = GraphView::full(&g);
        extract(&mut dense, &p, &pool, SquareStrategy::Parallel);
        let mut reference = GraphView::full(&g);
        extract_with(
            &mut reference,
            &p,
            &WorkerPool::new(1),
            SquareStrategy::SequentialOrdered,
            FixpointMode::FullRescan,
            None,
        );
        prop_assert_eq!(dense.alive_sets(), reference.alive_sets());
    }

    /// Transpose symmetry. Algorithm 3 treats both sides alike with
    /// `(k₁, k₂)` swapped, so extraction on `Gᵀ` (every record's user and
    /// item exchanged) with `(k₂, k₁)` must leave exactly the transposed
    /// alive sets, under either strategy. The planted
    /// block is `a × b` and `k₁ ≠ k₂` in general, so an item pass that reads
    /// a user-side bound, log or scratch gives different answers in the two
    /// runs. (The hub-registry halves are pinned by a unit test in
    /// `extract.rs`; no world this small has a hub on both sides.)
    #[test]
    fn extraction_commutes_with_transposition(
        noise in proptest::collection::vec((0u32..60, 0u32..60, 1u32..20), 0..300),
        (a, b) in (3u32..11, 3u32..11),
        (k1, k2) in (3usize..8, 3usize..8),
        alpha in 0.7f64..=1.0,
    ) {
        let planted = (0..a).flat_map(|u| (0..b).map(move |v| (50 + u, 50 + v, 13)));
        let records: Vec<(u32, u32, u32)> = noise.into_iter().chain(planted).collect();
        let build = |transpose: bool| {
            let mut builder = GraphBuilder::new();
            for &(u, v, c) in &records {
                let (u, v) = if transpose { (v, u) } else { (u, v) };
                builder.add_click(UserId(u), ItemId(v), c);
            }
            builder.build()
        };
        let (g, gt) = (build(false), build(true));
        let p = RicdParams { k1, k2, ..params(k1, alpha) };
        let pt = RicdParams { k1: k2, k2: k1, ..p };
        let raw = |(users, items): (Vec<UserId>, Vec<ItemId>)| -> (Vec<u32>, Vec<u32>) {
            (users.iter().map(|u| u.0).collect(), items.iter().map(|v| v.0).collect())
        };
        let pool = WorkerPool::new(2);
        for strategy in [SquareStrategy::Parallel, SquareStrategy::SequentialOrdered] {
            let (mut dense, mut dense_t) = (GraphView::full(&g), GraphView::full(&gt));
            extract(&mut dense, &p, &pool, strategy);
            extract(&mut dense_t, &pt, &pool, strategy);
            let (users, items) = raw(dense.alive_sets());
            prop_assert_eq!(raw(dense_t.alive_sets()), (items, users), "{:?}", strategy);
        }
    }
}
