//! Differential test for Module 2 (screening): the optimized
//! `screen_groups` — adjacency walks over a stamped member table — against
//! the literal per-pair screening it replaced, kept below as the oracle.
//!
//! The oracle asks `g.clicks(u, v)` for every user × item pair of a group,
//! exactly as Section V-B states the rules; it is obviously right and
//! quadratic. Worlds are built to hit the stamp-reuse bug class: several
//! groups per call that share items, empty groups, groups whose items are
//! all hot, and item ids at `num_items − 1`. Equality is on the output
//! groups (content and order, `ridden_hot_items` included) and on every
//! `ScreeningStats` counter the oracle has; `edges_walked`, which only the
//! walk has, is held to its linear bound instead.

use proptest::prelude::*;
use ricd_core::params::{RicdParams, ScreeningMode};
use ricd_core::result::SuspiciousGroup;
use ricd_core::screen::{screen_groups, ScreeningStats};
use ricd_graph::{BipartiteGraph, GraphBuilder, ItemId, UserId};

// ---- the oracle: the per-pair screening, as it shipped before the walk ----

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct OracleStats {
    users_removed: usize,
    hot_items_reclassified: usize,
    items_removed: usize,
    groups_dropped: usize,
}

fn oracle_screen_groups(
    g: &BipartiteGraph,
    groups: Vec<SuspiciousGroup>,
    params: &RicdParams,
) -> (Vec<SuspiciousGroup>, OracleStats) {
    let mut stats = OracleStats::default();
    if params.screening == ScreeningMode::None {
        return (groups, stats);
    }
    let hot: Vec<bool> = g
        .all_item_total_clicks()
        .into_iter()
        .map(|t| t >= params.t_hot)
        .collect();
    let mut out = Vec::with_capacity(groups.len());
    for mut group in groups {
        user_behavior_check(g, &hot, &mut group, params, &mut stats);
        if params.screening == ScreeningMode::Full {
            item_behavior_verification(g, &hot, &mut group, params, &mut stats);
            drop_disconnected_users(g, &mut group, params, &mut stats);
            // Distinct seller tasks often share ridden hot items, which glue
            // their structures into one connected component during
            // detection. Once hot items and camouflage are gone, the real
            // group boundary is connectivity through *heavy* edges —
            // re-split so each output group is one attack task (the
            // granularity of the paper's `g = {g₁…gₙ}` and case study).
            let splits = split_by_heavy_edges(g, &group, params);
            if splits.is_empty() {
                stats.groups_dropped += 1;
            }
            for split in splits {
                // Property 4b: a reportable group needs real group scale.
                if split.users.len() >= params.min_group_users
                    && split.items.len() >= params.min_group_targets
                {
                    out.push(split);
                } else {
                    stats.groups_dropped += 1;
                }
            }
            continue;
        }
        if group.users.len() >= params.min_group_users && !group.items.is_empty() {
            out.push(group);
        } else {
            stats.groups_dropped += 1;
        }
    }
    (out, stats)
}

/// Splits a screened group into connected components over its heavy
/// (`clicks ≥ T_click`) user–item edges. Ridden hot items are attributed to
/// every split whose users clicked them.
fn split_by_heavy_edges(
    g: &BipartiteGraph,
    group: &SuspiciousGroup,
    params: &RicdParams,
) -> Vec<SuspiciousGroup> {
    // Union-find over local indices: users then items.
    let nu = group.users.len();
    let n = nu + group.items.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let item_local: std::collections::HashMap<ItemId, usize> = group
        .items
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, nu + i))
        .collect();
    for (ui, &u) in group.users.iter().enumerate() {
        for (v, c) in g.user_neighbors(u) {
            if c >= params.t_click {
                if let Some(&vi) = item_local.get(&v) {
                    let (a, b) = (find(&mut parent, ui), find(&mut parent, vi));
                    parent[a] = b;
                }
            }
        }
    }
    let mut splits: std::collections::HashMap<usize, SuspiciousGroup> =
        std::collections::HashMap::new();
    for (ui, &u) in group.users.iter().enumerate() {
        splits
            .entry(find(&mut parent, ui))
            .or_default()
            .users
            .push(u);
    }
    for (ii, &v) in group.items.iter().enumerate() {
        splits
            .entry(find(&mut parent, nu + ii))
            .or_default()
            .items
            .push(v);
    }
    let mut out: Vec<SuspiciousGroup> = splits.into_values().collect();
    // Deterministic order: by first user id.
    out.sort_by_key(|s| (s.users.first().copied(), s.items.first().copied()));
    for s in &mut out {
        // Attribute each ridden hot item to the splits whose users touch it.
        s.ridden_hot_items = group
            .ridden_hot_items
            .iter()
            .copied()
            .filter(|&h| s.users.iter().any(|&u| g.clicks(u, h).is_some()))
            .collect();
    }
    out
}

/// True if `u` exhibits the crowd-worker click signature.
///
/// Characteristic (1) is checked *within the group* — some ordinary group
/// item carries ≥ `T_click` of `u`'s clicks. Characteristic (2) — "the
/// average number of clicks of hot items is extremely small (< 4)" — is
/// checked over `u`'s **whole click record**, exactly like the Section IV
/// Table III/IV analysis: an experienced worker's organic history keeps the
/// global hot average low, while a genuine hot-item fan (Table IV's user:
/// 19, 4, … clicks on hot items) exceeds it.
fn user_is_suspicious(
    g: &BipartiteGraph,
    hot: &[bool],
    u: UserId,
    group_items: &[ItemId],
    params: &RicdParams,
) -> bool {
    let has_heavy_ordinary = group_items
        .iter()
        .any(|&v| !hot[v.index()] && g.clicks(u, v).is_some_and(|c| c >= params.t_click));
    if !has_heavy_ordinary {
        return false;
    }
    let mut hot_clicks = 0u64;
    let mut hot_count = 0u64;
    for (v, c) in g.user_neighbors(u) {
        if hot[v.index()] {
            hot_clicks += c as u64;
            hot_count += 1;
        }
    }
    // Characteristic (2): hot items, if clicked at all, are clicked lightly.
    hot_count == 0 || (hot_clicks as f64 / hot_count as f64) < params.hot_avg_max
}

fn user_behavior_check(
    g: &BipartiteGraph,
    hot: &[bool],
    group: &mut SuspiciousGroup,
    params: &RicdParams,
    stats: &mut OracleStats,
) {
    let items = group.items.clone();
    let before = group.users.len();
    group
        .users
        .retain(|&u| user_is_suspicious(g, hot, u, &items, params));
    stats.users_removed += before - group.users.len();
}

fn item_behavior_verification(
    g: &BipartiteGraph,
    hot: &[bool],
    group: &mut SuspiciousGroup,
    params: &RicdParams,
    stats: &mut OracleStats,
) {
    let users = group.users.clone();
    let mut kept = Vec::with_capacity(group.items.len());
    for &v in &group.items {
        if hot[v.index()] {
            group.ridden_hot_items.push(v);
            stats.hot_items_reclassified += 1;
            continue;
        }
        // Coincidence of heavy clickers: how many of the group's surviving
        // (abnormal) users hammer this item?
        let support = users
            .iter()
            .filter(|&&u| g.clicks(u, v).is_some_and(|c| c >= params.t_click))
            .count();
        if support >= params.min_target_support {
            kept.push(v);
        } else {
            stats.items_removed += 1;
        }
    }
    group.items = kept;
    group.ridden_hot_items.sort_unstable();
    group.ridden_hot_items.dedup();
}

/// A user whose heavy edges all pointed at removed items no longer belongs.
fn drop_disconnected_users(
    g: &BipartiteGraph,
    group: &mut SuspiciousGroup,
    params: &RicdParams,
    stats: &mut OracleStats,
) {
    let items = group.items.clone();
    let before = group.users.len();
    group.users.retain(|&u| {
        items
            .iter()
            .any(|&v| g.clicks(u, v).is_some_and(|c| c >= params.t_click))
    });
    stats.users_removed += before - group.users.len();
}

// ---- worlds ----

const USERS: u32 = 36;
const ITEMS: u32 = 20;

/// A small dense world: click counts straddle every `T_click` drawn below,
/// a few items collect enough clicks to cross the lower `T_hot` values, and
/// the last user and item ids always exist, so every id the groups draw is in
/// range and `num_items − 1` is a legal group member.
fn worlds() -> impl Strategy<Value = BipartiteGraph> {
    proptest::collection::vec((0..USERS, 0..ITEMS, 1u32..16), 20..260).prop_map(|edges| {
        let mut b = GraphBuilder::new();
        for (u, v, c) in edges {
            // Skew towards the low item ids so some of them turn hot.
            b.add_click(UserId(u), ItemId(if c % 3 == 0 { v % 4 } else { v }), c);
        }
        b.add_click(UserId(USERS - 1), ItemId(ITEMS - 1), 9);
        b.build()
    })
}

/// Several groups over one shared id space (so they overlap in users and
/// items), with sorted duplicate-free members as detection emits them;
/// sizes start at zero, so empty groups and user-only / item-only groups
/// occur.
fn group_lists() -> impl Strategy<Value = Vec<SuspiciousGroup>> {
    let group = (
        proptest::collection::btree_set(0..USERS, 0..14),
        proptest::collection::btree_set(0..ITEMS, 0..10),
    )
        .prop_map(|(users, items)| SuspiciousGroup {
            users: users.into_iter().map(UserId).collect(),
            items: items.into_iter().map(ItemId).collect(),
            ridden_hot_items: vec![],
        });
    proptest::collection::vec(group, 1..6)
}

fn check(
    g: &BipartiteGraph,
    groups: &[SuspiciousGroup],
    p: &RicdParams,
) -> Result<(), TestCaseError> {
    let degree_sum: usize = groups
        .iter()
        .flat_map(|grp| &grp.users)
        .map(|&u| g.user_degree(u))
        .sum();
    for screening in [
        ScreeningMode::None,
        ScreeningMode::UserCheckOnly,
        ScreeningMode::Full,
    ] {
        let p = RicdParams { screening, ..*p };
        let (want, want_stats) = oracle_screen_groups(g, groups.to_vec(), &p);
        let (got, got_stats) = screen_groups(g, groups.to_vec(), &p);
        prop_assert_eq!(&got, &want, "groups differ under {:?}", screening);
        let ScreeningStats {
            users_removed,
            hot_items_reclassified,
            items_removed,
            groups_dropped,
            edges_walked,
        } = got_stats;
        let got_counters = OracleStats {
            users_removed,
            hot_items_reclassified,
            items_removed,
            groups_dropped,
        };
        prop_assert_eq!(
            got_counters,
            want_stats,
            "stats differ under {:?}",
            screening
        );
        prop_assert!(
            edges_walked <= 4 * degree_sum,
            "{edges_walked} > 4 x {degree_sum}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Random thresholds over random overlapping groups, all three modes.
    #[test]
    fn walk_matches_the_per_pair_oracle(
        g in worlds(),
        groups in group_lists(),
        t_click in 1u32..14,
        t_hot in 20u64..160,
        hot_avg_max in 1.0f64..9.0,
        min_target_support in 0usize..4,
        min_group_users in 0usize..4,
        min_group_targets in 0usize..3,
    ) {
        let p = RicdParams {
            t_click,
            t_hot,
            hot_avg_max,
            min_target_support,
            min_group_users,
            min_group_targets,
            ..RicdParams::default()
        };
        check(&g, &groups, &p)?;
    }

    /// `T_hot = 1`: every clicked item is hot, so every group's items are all
    /// hot — item verification reclassifies everything and nothing survives
    /// as a target.
    #[test]
    fn all_hot_groups_match(g in worlds(), groups in group_lists(), t_click in 1u32..14) {
        let p = RicdParams { t_click, t_hot: 1, min_group_users: 1, ..RicdParams::default() };
        check(&g, &groups, &p)?;
    }

    /// No hot items at all, and every group holds the last item id: the
    /// member table is indexed at its final slot in every restamp.
    #[test]
    fn last_item_id_in_every_group(g in worlds(), groups in group_lists(), t_click in 1u32..10) {
        let groups: Vec<SuspiciousGroup> = groups
            .into_iter()
            .map(|mut grp| {
                if grp.items.last() != Some(&ItemId(ITEMS - 1)) {
                    grp.items.push(ItemId(ITEMS - 1));
                }
                grp
            })
            .collect();
        let p = RicdParams {
            t_click,
            t_hot: u64::MAX,
            min_target_support: 1,
            min_group_users: 1,
            min_group_targets: 1,
            ..RicdParams::default()
        };
        check(&g, &groups, &p)?;
    }
}
