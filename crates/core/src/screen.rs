//! The suspicious group screening module (Section V-B, module 2).
//!
//! Detection (Algorithm 2/3) is purely structural; screening applies the
//! *behavioral* characteristics from the Section IV analysis to each
//! candidate group, in two steps:
//!
//! **User behavior check** — an abnormal user (crowd worker): (1) clicks
//! some ordinary group item at least `T_click` times (the attack clicks);
//! (2) clicks hot items far less — an average of `< hot_avg_max` (paper:
//! "extremely small (< 4)"). Users failing either rule are normal shoppers
//! who wandered into the dense region (e.g. the `u₁` of Fig 5, whose clicks
//! on `i₂` stay below `T_click`) and are removed.
//!
//! **Item behavior verification** — among the group's items: globally hot
//! items are the *victims* being ridden, not abnormal outputs; they move to
//! the group's `ridden_hot_items`. An ordinary item survives as a target
//! only if at least `min_target_support` of the group's (surviving) users
//! clicked it `T_click`+ times — an item whose in-group clicks are all light
//! is camouflage (the `i₁` of Fig 6, linked only by disguise edges), and is
//! removed.
//!
//! After both steps, users left without any surviving target are dropped,
//! groups are re-split along heavy edges into per-seller tasks, and a group
//! must retain at least `min_group_users` workers and `min_group_targets`
//! targets to be reported (the paper's property 4b: "explicitly limit the
//! detected group's size to avoid the misjudgment of group-buying
//! phenomenon" — a couple of shoppers re-clicking the same promotion is
//! risk-control's job, not a crowdsourced campaign).
//!
//! Every rule is a per-edge condition, so each is one walk over the group
//! users' adjacency lists against an item-indexed `MemberTable`: a group
//! costs `O(|items| + Σ deg(u))` — at most four walks, counted in
//! [`ScreeningStats::edges_walked`] — never `|users| · |items|` probes.

use crate::params::{RicdParams, ScreeningMode};
use crate::result::SuspiciousGroup;
use ricd_graph::{BipartiteGraph, ItemId, UserId};

/// Counters describing a screening pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScreeningStats {
    /// Users removed by the user behavior check.
    pub users_removed: usize,
    /// Items reclassified as ridden hot items.
    pub hot_items_reclassified: usize,
    /// Ordinary items removed as camouflage/disguise.
    pub items_removed: usize,
    /// Groups dropped entirely.
    pub groups_dropped: usize,
    /// Adjacency entries visited, summed over every walk of every group.
    pub edges_walked: usize,
}

/// An item set with `O(1)` membership and position lookup, sized to the graph
/// once per call: a new epoch orphans every older stamp, so switching sets
/// costs only the new set's length.
struct MemberTable {
    /// `stamp[v] == epoch` ⇔ item `v` is in the current set.
    stamp: Vec<u32>,
    /// Position of a member in the slice it was stamped from.
    local: Vec<u32>,
    epoch: u32,
}

impl MemberTable {
    /// Makes `items` (duplicate-free) the current set.
    fn restamp(&mut self, items: &[ItemId]) {
        self.epoch = self.epoch.checked_add(1).expect("under 2^32 restamps");
        for (i, &v) in items.iter().enumerate() {
            self.stamp[v.index()] = self.epoch;
            self.local[v.index()] = i as u32;
        }
    }

    /// Position of `v` in the current set, if it is a member.
    fn position(&self, v: ItemId) -> Option<usize> {
        (self.stamp[v.index()] == self.epoch).then(|| self.local[v.index()] as usize)
    }
}

/// One screening pass: what every rule reads, and the per-call scratch.
struct Pass<'a> {
    g: &'a BipartiteGraph,
    params: &'a RicdParams,
    /// `hot[v]` ⇔ item `v` received ≥ `T_hot` clicks in total.
    hot: Vec<bool>,
    members: MemberTable,
    stats: ScreeningStats,
}

/// Screens every group according to `params.screening`. A group's `users`
/// and `items` must be duplicate-free, as detection emits them.
pub fn screen_groups(
    g: &BipartiteGraph,
    groups: Vec<SuspiciousGroup>,
    params: &RicdParams,
) -> (Vec<SuspiciousGroup>, ScreeningStats) {
    if params.screening == ScreeningMode::None {
        return (groups, ScreeningStats::default());
    }
    let totals = g.all_item_total_clicks();
    let mut pass = Pass {
        g,
        params,
        hot: totals.into_iter().map(|t| t >= params.t_hot).collect(),
        members: MemberTable {
            stamp: vec![0; g.num_items()],
            local: vec![0; g.num_items()],
            epoch: 0,
        },
        stats: ScreeningStats::default(),
    };
    let mut out = Vec::with_capacity(groups.len());
    for mut group in groups {
        pass.user_behavior_check(&mut group);
        // Property 4b: a reportable group needs real group scale.
        let (splits, min_items) = if params.screening == ScreeningMode::Full {
            pass.item_behavior_verification(&mut group);
            (pass.split_by_heavy_edges(&group), params.min_group_targets)
        } else {
            (vec![group], 1)
        };
        if splits.is_empty() {
            pass.stats.groups_dropped += 1;
        }
        for split in splits {
            if split.users.len() >= params.min_group_users && split.items.len() >= min_items {
                out.push(split);
            } else {
                pass.stats.groups_dropped += 1;
            }
        }
    }
    (out, pass.stats)
}

impl Pass<'_> {
    /// Accounts for one walk over the adjacency lists of `users`.
    fn count_walk(&mut self, users: &[UserId]) {
        self.stats.edges_walked += users.iter().map(|&u| self.g.user_degree(u)).sum::<usize>();
    }

    /// Positions in `members` of the items `u` clicked ≥ `T_click` times.
    fn heavy_members(&self, u: UserId) -> impl Iterator<Item = usize> + '_ {
        let neighbors = self.g.user_neighbors(u);
        let heavy = neighbors.filter(|&(_, c)| c >= self.params.t_click);
        heavy.filter_map(|(v, _)| self.members.position(v))
    }

    /// True if `u` exhibits the crowd-worker click signature.
    ///
    /// Characteristic (1) is checked *within the group* (the `members`) —
    /// some ordinary group item carries ≥ `T_click` of `u`'s clicks.
    /// Characteristic (2) — "the average number of clicks of hot items is
    /// extremely small (< 4)" — is checked over `u`'s **whole click record**,
    /// exactly like the Section IV Table III/IV analysis: an experienced
    /// worker's organic history keeps the global hot average low, while a
    /// genuine hot-item fan (Table IV's user: 19, 4, … on hot items) exceeds it.
    fn user_is_suspicious(&self, u: UserId) -> bool {
        let mut has_heavy_ordinary = false;
        let (mut hot_clicks, mut hot_count) = (0u64, 0u64);
        for (v, c) in self.g.user_neighbors(u) {
            if self.hot[v.index()] {
                hot_clicks += c as u64;
                hot_count += 1;
            } else if c >= self.params.t_click && self.members.position(v).is_some() {
                has_heavy_ordinary = true;
            }
        }
        // Characteristic (2): hot items, if clicked at all, are clicked lightly.
        has_heavy_ordinary
            && (hot_count == 0 || (hot_clicks as f64 / hot_count as f64) < self.params.hot_avg_max)
    }

    fn user_behavior_check(&mut self, group: &mut SuspiciousGroup) {
        self.members.restamp(&group.items);
        self.count_walk(&group.users);
        let before = group.users.len();
        group.users.retain(|&u| self.user_is_suspicious(u));
        self.stats.users_removed += before - group.users.len();
    }

    fn item_behavior_verification(&mut self, group: &mut SuspiciousGroup) {
        // Coincidence of heavy clickers: how many surviving users hammer each item?
        self.count_walk(&group.users);
        let mut support = vec![0usize; group.items.len()];
        for &u in &group.users {
            for i in self.heavy_members(u) {
                support[i] += 1;
            }
        }
        let mut kept = Vec::with_capacity(group.items.len());
        for (&v, &heavy_clickers) in group.items.iter().zip(&support) {
            if self.hot[v.index()] {
                group.ridden_hot_items.push(v);
                self.stats.hot_items_reclassified += 1;
            } else if heavy_clickers >= self.params.min_target_support {
                kept.push(v);
            } else {
                self.stats.items_removed += 1;
            }
        }
        group.items = kept;
        group.ridden_hot_items.sort_unstable();
        group.ridden_hot_items.dedup();
    }

    /// Splits a screened group into connected components over its heavy
    /// (`clicks ≥ T_click`) user–item edges: seller tasks that share ridden
    /// hot items are glued into one component during detection, and with hot
    /// items and camouflage gone each heavy component is one attack task (the
    /// granularity of the paper's `g = {g₁…gₙ}` and case study). Ridden hot
    /// items are attributed to every split whose users clicked them.
    fn split_by_heavy_edges(&mut self, group: &SuspiciousGroup) -> Vec<SuspiciousGroup> {
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
        self.members.restamp(&group.items);
        self.count_walk(&group.users);
        for (ui, &u) in group.users.iter().enumerate() {
            for vi in self.heavy_members(u) {
                let (a, b) = (find(&mut parent, ui), find(&mut parent, nu + vi));
                parent[a] = b;
            }
        }
        // One slot per node; a component gathers in its root's slot.
        let mut out = vec![SuspiciousGroup::default(); n];
        for (ui, &u) in group.users.iter().enumerate() {
            out[find(&mut parent, ui)].users.push(u);
        }
        for (ii, &v) in group.items.iter().enumerate() {
            out[find(&mut parent, nu + ii)].items.push(v);
        }
        // An item-less slot is a user whose heavy edges all hit removed items.
        out.retain(|s| !s.items.is_empty());
        self.stats.users_removed += nu - out.iter().map(|s| s.users.len()).sum::<usize>();
        // Deterministic order: by first user id.
        out.sort_by_key(|s| (s.users.first().copied(), s.items.first().copied()));
        self.members.restamp(&group.ridden_hot_items);
        let mut last_split = vec![usize::MAX; group.ridden_hot_items.len()];
        for (si, s) in out.iter_mut().enumerate() {
            self.count_walk(&s.users);
            for &v in s.users.iter().flat_map(|&u| self.g.user_adjacency(u)) {
                if let Some(h) = self.members.position(v).filter(|&h| last_split[h] != si) {
                    last_split[h] = si;
                    s.ridden_hot_items.push(v);
                }
            }
            s.ridden_hot_items.sort_unstable();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ricd_graph::GraphBuilder;

    /// Builds the Fig 5 / Fig 6 situation:
    /// * i0 — globally hot item ridden by the group;
    /// * i1, i2 — target items hammered by workers u0, u1, u2;
    /// * u3 — a normal shopper who clicked i0 a lot and i1 once;
    /// * i3 — a camouflage item clicked once by a single worker.
    fn scenario() -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        // Make i0 hot: 1000+ background clicks.
        for u in 100..1100u32 {
            b.add_click(UserId(u), ItemId(0), 1);
        }
        // Workers: light on hot, heavy on targets, one camouflage click.
        for u in 0..3u32 {
            b.add_click(UserId(u), ItemId(0), 1);
            b.add_click(UserId(u), ItemId(1), 14);
            b.add_click(UserId(u), ItemId(2), 13);
        }
        b.add_click(UserId(0), ItemId(3), 1); // camouflage
                                              // Normal shopper: heavy on hot, light on the target.
        b.add_click(UserId(3), ItemId(0), 19);
        b.add_click(UserId(3), ItemId(1), 1);
        b.build()
    }

    fn group() -> SuspiciousGroup {
        SuspiciousGroup {
            users: vec![UserId(0), UserId(1), UserId(2), UserId(3)],
            items: vec![ItemId(0), ItemId(1), ItemId(2), ItemId(3)],
            ridden_hot_items: vec![],
        }
    }

    fn params() -> RicdParams {
        RicdParams {
            t_hot: 1_000,
            t_click: 12,
            ..RicdParams::default()
        }
    }

    #[test]
    fn full_screening_keeps_workers_and_targets() {
        let g = scenario();
        let (out, stats) = screen_groups(&g, vec![group()], &params());
        assert_eq!(out.len(), 1);
        let grp = &out[0];
        assert_eq!(
            grp.users,
            vec![UserId(0), UserId(1), UserId(2)],
            "normal shopper removed"
        );
        assert_eq!(
            grp.items,
            vec![ItemId(1), ItemId(2)],
            "hot + camouflage removed"
        );
        assert_eq!(grp.ridden_hot_items, vec![ItemId(0)]);
        assert_eq!(stats.users_removed, 1);
        assert_eq!(stats.hot_items_reclassified, 1);
        assert_eq!(stats.items_removed, 1);
    }

    #[test]
    fn mode_none_passes_through() {
        let g = scenario();
        let p = RicdParams {
            screening: ScreeningMode::None,
            ..params()
        };
        let (out, stats) = screen_groups(&g, vec![group()], &p);
        assert_eq!(out[0], group());
        assert_eq!(stats, ScreeningStats::default());
    }

    #[test]
    fn mode_user_only_skips_item_verification() {
        let g = scenario();
        let p = RicdParams {
            screening: ScreeningMode::UserCheckOnly,
            ..params()
        };
        let (out, _) = screen_groups(&g, vec![group()], &p);
        assert_eq!(out[0].users, vec![UserId(0), UserId(1), UserId(2)]);
        // Items untouched, including the hot one — that's why RICD-I's
        // precision trails full RICD (Table VI).
        assert_eq!(out[0].items, group().items);
        assert!(out[0].ridden_hot_items.is_empty());
    }

    #[test]
    fn heavy_hot_clicker_fails_user_check() {
        // A user whose only heavy clicks are on the hot item is a fan, not a
        // worker.
        let g = scenario();
        let p = RicdParams {
            screening: ScreeningMode::UserCheckOnly,
            min_group_users: 1,
            ..params()
        };
        let grp = SuspiciousGroup {
            users: vec![UserId(0), UserId(3)],
            items: vec![ItemId(0), ItemId(1)],
            ridden_hot_items: vec![],
        };
        let (out, stats) = screen_groups(&g, vec![grp], &p);
        assert_eq!(out[0].users, vec![UserId(0)]);
        assert_eq!(stats.users_removed, 1);
    }

    #[test]
    fn walks_are_linear_in_the_group_users_edges() {
        // The cost bound as a count: whatever the users × items product,
        // screening visits each group user's adjacency list at most four
        // times (user check, item support, heavy-edge split, ridden-hot
        // attribution).
        let g = scenario();
        let degree_sum: usize = group().users.iter().map(|&u| g.user_degree(u)).sum();
        let (out, stats) = screen_groups(&g, vec![group()], &params());
        assert_eq!(out.len(), 1);
        assert!(
            stats.edges_walked >= degree_sum,
            "the user check walks everyone"
        );
        assert!(
            stats.edges_walked <= 4 * degree_sum,
            "{} edges walked for a degree sum of {degree_sum}",
            stats.edges_walked
        );
    }

    #[test]
    fn group_needs_two_workers() {
        // Only one worker → not a group attack → dropped.
        let mut b = GraphBuilder::new();
        for u in 100..1100u32 {
            b.add_click(UserId(u), ItemId(0), 1);
        }
        b.add_click(UserId(0), ItemId(0), 1);
        b.add_click(UserId(0), ItemId(1), 20);
        let g = b.build();
        let grp = SuspiciousGroup {
            users: vec![UserId(0)],
            items: vec![ItemId(0), ItemId(1)],
            ridden_hot_items: vec![],
        };
        let (out, stats) = screen_groups(&g, vec![grp], &params());
        assert!(out.is_empty());
        assert_eq!(stats.groups_dropped, 1);
    }

    #[test]
    fn camouflage_item_needs_support() {
        // Items need min_target_support heavy clickers to survive.
        let g = scenario();
        let mut p = params();
        p.min_target_support = 4;
        let (out, _) = screen_groups(&g, vec![group()], &p);
        // Both targets only have 3 heavy clickers → everything pruned → the
        // group dies.
        assert!(out.is_empty());
    }

    #[test]
    fn property_4b_group_size_floor() {
        // The same valid group dies when the analyst raises the group-size
        // floor above its scale (property 4b).
        let g = scenario();
        let mut p = params();
        p.min_group_users = 4;
        let (out, _) = screen_groups(&g, vec![group()], &p);
        assert!(out.is_empty());
        let mut p = params();
        p.min_group_targets = 3;
        let (out, _) = screen_groups(&g, vec![group()], &p);
        assert!(out.is_empty());
    }

    #[test]
    fn users_without_surviving_targets_dropped() {
        let mut b = GraphBuilder::new();
        for u in 100..1100u32 {
            b.add_click(UserId(u), ItemId(0), 1);
        }
        // u0, u1, u2 hammer targets i1 and i4; u3 hammers only i2, which
        // will be removed (support 1).
        for u in 0..3u32 {
            b.add_click(UserId(u), ItemId(1), 14);
            b.add_click(UserId(u), ItemId(4), 14);
        }
        b.add_click(UserId(3), ItemId(2), 14);
        let g = b.build();
        let grp = SuspiciousGroup {
            users: vec![UserId(0), UserId(1), UserId(2), UserId(3)],
            items: vec![ItemId(1), ItemId(2), ItemId(4)],
            ridden_hot_items: vec![],
        };
        let (out, _) = screen_groups(&g, vec![grp], &params());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].users, vec![UserId(0), UserId(1), UserId(2)]);
        assert_eq!(out[0].items, vec![ItemId(1), ItemId(4)]);
    }
}
