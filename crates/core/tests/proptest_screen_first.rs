//! Screen-first extraction against the flow it replaced. Detection starts
//! from the screenable users only (an edge of `clicks ≥ T_click` on an item
//! whose whole-graph total is `< T_hot`); the oracle is the old flow, which
//! runs Algorithm 3 on every user (`ScreeningMode::None` detection) and
//! screens afterwards. Each step after the start is monotone, so every group
//! the rule reports lies inside one oracle group, `ridden_hot_items`
//! included, under both screening modes and with or without seeds.
//!
//! Worlds mix sparse noise, a planted worker group that rides hot items
//! lightly, and fans that click hot items hard and the targets lightly: the
//! light users whose support the rule takes away.

use proptest::prelude::*;
use ricd_core::detect::{detect_groups, DetectedGroups, Seeds};
use ricd_core::extract::{extract_with, FixpointMode, SquareStrategy};
use ricd_core::params::{RicdParams, ScreeningMode};
use ricd_core::result::SuspiciousGroup;
use ricd_core::screen::screen_groups;
use ricd_engine::WorkerPool;
use ricd_graph::components::connected_components;
use ricd_graph::{BipartiteGraph, GraphBuilder, GraphView, ItemId, UserId};
use std::collections::BTreeSet;

/// Hot-item candidates are ids `0..4`; planted workers and targets start at
/// 100; fans at 200.
fn graphs() -> impl Strategy<Value = BipartiteGraph> {
    (
        proptest::collection::vec((0u32..60, 0u32..40, 1u32..20), 0..300),
        proptest::option::of(5u32..10), // planted k x k group
        0u32..40,                       // fans
        5u32..15,                       // a fan's clicks on each hot item
    )
        .prop_map(|(noise, planted, fans, fan_clicks)| {
            let mut b = GraphBuilder::new();
            for (u, v, c) in noise {
                b.add_click(UserId(u), ItemId(v), c);
            }
            let k = planted.unwrap_or(0);
            for u in 0..k {
                for v in 0..k {
                    b.add_click(UserId(100 + u), ItemId(100 + v), 13);
                }
                // Workers ride one or two hot items, lightly.
                b.add_click(UserId(100 + u), ItemId(u % 2), 1);
            }
            for f in 0..fans {
                for hot in 0..4 {
                    b.add_click(UserId(200 + f), ItemId(hot), fan_clicks);
                }
                for v in 0..k.min(2 + f % 5) {
                    b.add_click(UserId(200 + f), ItemId(100 + v), 1);
                }
            }
            b.build()
        })
}

fn seeds() -> impl Strategy<Value = Option<Seeds>> {
    proptest::option::of((
        proptest::collection::vec(seed_user(), 0..3),
        proptest::collection::vec(seed_item(), 0..3),
    ))
    .prop_map(|s| {
        s.map(|(users, items)| Seeds {
            users: users.into_iter().map(UserId).collect(),
            items: items.into_iter().map(ItemId).collect(),
        })
    })
}

/// A noise user or a planted worker.
fn seed_user() -> impl Strategy<Value = u32> {
    (any::<bool>(), 0u32..60).prop_map(|(planted, u)| if planted { 100 + u % 5 } else { u })
}

/// A noise item or a planted target.
fn seed_item() -> impl Strategy<Value = u32> {
    (any::<bool>(), 0u32..40).prop_map(|(planted, v)| if planted { 100 + v % 5 } else { v })
}

fn detect(g: &BipartiteGraph, seeds: &Seeds, p: &RicdParams) -> DetectedGroups {
    detect_groups(g, seeds, p, &WorkerPool::new(2), SquareStrategy::Parallel)
}

/// The users the rule starts from, counted from its definition: users of
/// the two-hop seed ball (the whole graph without seeds) with a heavy edge
/// on an item that is not hot in the whole graph.
fn screenable(g: &BipartiteGraph, seeds: &Seeds, p: &RicdParams) -> usize {
    let totals = g.all_item_total_clicks();
    let seed_users: BTreeSet<UserId> = seeds.users.iter().copied().collect();
    // The ball's first-hop items; a user is in the ball if it is a seed or
    // clicked one of them.
    let hop1: BTreeSet<ItemId> = seed_users
        .iter()
        .filter(|s| s.index() < g.num_users())
        .flat_map(|&s| g.user_adjacency(s).iter().copied())
        .chain(
            seeds
                .items
                .iter()
                .copied()
                .filter(|v| v.index() < g.num_items()),
        )
        .collect();
    let in_ball = |u: UserId| {
        seeds.is_empty()
            || seed_users.contains(&u)
            || g.user_adjacency(u).iter().any(|v| hop1.contains(v))
    };
    let heavy = |(v, c): (ItemId, u32)| c >= p.t_click && totals[v.index()] < p.t_hot;
    (0..g.num_users() as u32)
        .map(UserId)
        .filter(|&u| in_ball(u) && g.user_neighbors(u).any(heavy))
        .count()
}

fn contains(outer: &SuspiciousGroup, inner: &SuspiciousGroup) -> bool {
    fn sub<T: PartialEq>(inner: &[T], outer: &[T]) -> bool {
        inner.iter().all(|x| outer.contains(x))
    }
    sub(&inner.users, &outer.users)
        && sub(&inner.items, &outer.items)
        && sub(&inner.ridden_hot_items, &outer.ridden_hot_items)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Restricted flagged ⊆ full flagged: each group screen-first
    /// detection reports lies inside one group of the old flow.
    #[test]
    fn screen_first_output_is_inside_the_unrestricted_flow(
        g in graphs(),
        seeds in seeds(),
        k in 3usize..6,
        alpha in 0.7f64..=1.0,
        t_hot in 150u64..400,
        t_click in 8u32..14,
        user_check_only in any::<bool>(),
    ) {
        let seeds = seeds.unwrap_or_default();
        let screening = if user_check_only { ScreeningMode::UserCheckOnly } else { ScreeningMode::Full };
        let p = RicdParams { k1: k, k2: k, alpha, t_hot, t_click, screening, ..RicdParams::default() };
        let unscreened = RicdParams { screening: ScreeningMode::None, ..p };

        let rule = detect(&g, &seeds, &p);
        prop_assert_eq!(rule.screenable_users, screenable(&g, &seeds, &p));
        let (rule, _) = screen_groups(&g, rule.groups, &p);
        let (oracle, _) = screen_groups(&g, detect(&g, &seeds, &unscreened).groups, &p);
        for group in &rule {
            prop_assert!(
                oracle.iter().any(|o| contains(o, group)),
                "{:?} lies in no group of the unrestricted flow {:?}", group, oracle
            );
        }
    }

    /// `ScreeningMode::None` (RICD-UI) keeps the unrestricted view: its
    /// groups are the (k₁, k₂)-sized components of Algorithm 3 on the
    /// whole graph.
    #[test]
    fn no_screening_detects_on_the_whole_graph(
        g in graphs(),
        k in 3usize..6,
        alpha in 0.7f64..=1.0,
        t_hot in 20u64..300,
    ) {
        let p = RicdParams { k1: k, k2: k, alpha, t_hot, screening: ScreeningMode::None, ..RicdParams::default() };
        let got = detect(&g, &Seeds::none(), &p);
        prop_assert_eq!(got.screenable_users, g.num_users());

        let mut view = GraphView::full(&g);
        let pool = WorkerPool::new(2);
        extract_with(&mut view, &p, &pool, SquareStrategy::Parallel, FixpointMode::Delta, None);
        let want: Vec<(Vec<UserId>, Vec<ItemId>)> = connected_components(&view)
            .into_iter()
            .filter(|c| c.users.len() >= k && c.items.len() >= k)
            .map(|c| (c.users, c.items))
            .collect();
        let got: Vec<(Vec<UserId>, Vec<ItemId>)> =
            got.groups.into_iter().map(|gr| (gr.users, gr.items)).collect();
        prop_assert_eq!(got, want);
    }
}
