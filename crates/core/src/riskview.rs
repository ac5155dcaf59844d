//! An immutable, query-optimized view over a [`DetectionResult`] — the
//! lookup surface an online service serves verdicts from.
//!
//! A [`DetectionResult`] is shaped for *reporting*: groups with sorted
//! member lists, plus global rankings. Answering "is user `u` risky?" from
//! it means scanning every group. A [`RiskView`] reindexes the same facts
//! into sorted `(id, verdict)` tables so point lookups are `O(log n)` and
//! allocation-free, and stamps the whole view with an **epoch** so a
//! concurrent reader can tell which generation of detection state answered
//! its query.
//!
//! The view is deliberately immutable: `ricd-serve` builds a fresh one
//! after each detection pass and swaps it in atomically, so queries never
//! observe a half-updated result (see DESIGN.md, "Online serving").

use crate::result::{DetectionResult, SuspiciousGroup};
use ricd_graph::{ItemId, UserId};
use serde::{Deserialize, Serialize};

/// The verdict for one user or item.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RiskVerdict {
    /// True if the node is in some detected group's suspicious set.
    pub flagged: bool,
    /// The node's risk score from the detection ranking (0.0 if unranked).
    pub score: f64,
    /// Index of the detected group the node belongs to, if flagged.
    pub group: Option<usize>,
}

impl RiskVerdict {
    /// The verdict for a node the detector has nothing on.
    pub fn clear() -> Self {
        Self::default()
    }
}

/// An epoch-stamped, immutable lookup table over one detection result.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RiskView {
    /// Which generation of detection state built this view. Epoch 0 is the
    /// empty pre-detection view; every rebuild increments it.
    epoch: u64,
    /// The detected groups, in result order (the `group` indices in the
    /// verdicts point into this).
    groups: Vec<SuspiciousGroup>,
    /// `(user, verdict)` sorted by user id.
    users: Vec<(UserId, RiskVerdict)>,
    /// `(item, verdict)` sorted by item id.
    items: Vec<(ItemId, RiskVerdict)>,
}

impl RiskView {
    /// The empty view (epoch 0): every lookup answers
    /// [`RiskVerdict::clear`].
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds the lookup tables from `result`, stamped with `epoch`.
    pub fn from_result(epoch: u64, result: &DetectionResult) -> Self {
        let mut users: Vec<(UserId, RiskVerdict)> = Vec::new();
        let mut items: Vec<(ItemId, RiskVerdict)> = Vec::new();
        for (gi, g) in result.groups.iter().enumerate() {
            for &u in &g.users {
                users.push((
                    u,
                    RiskVerdict {
                        flagged: true,
                        score: 0.0,
                        group: Some(gi),
                    },
                ));
            }
            for &v in &g.items {
                items.push((
                    v,
                    RiskVerdict {
                        flagged: true,
                        score: 0.0,
                        group: Some(gi),
                    },
                ));
            }
        }
        // A node in several groups keeps its first (lowest-index) group.
        users.sort_by_key(|&(u, _)| u);
        users.dedup_by_key(|&mut (u, _)| u);
        items.sort_by_key(|&(v, _)| v);
        items.dedup_by_key(|&mut (v, _)| v);
        // Attach ranking scores to the flagged tables.
        for &(u, s) in &result.ranked_users {
            if let Ok(i) = users.binary_search_by_key(&u, |&(id, _)| id) {
                users[i].1.score = s;
            }
        }
        for &(v, s) in &result.ranked_items {
            if let Ok(i) = items.binary_search_by_key(&v, |&(id, _)| id) {
                items[i].1.score = s;
            }
        }
        Self {
            epoch,
            groups: result.groups.clone(),
            users,
            items,
        }
    }

    /// Merges per-shard views into one combined view, stamped `epoch`.
    ///
    /// This is the degraded-query surface of the sharded serve tier: when a
    /// shard is down, the router answers from whatever live shard views it
    /// still holds. Halo replication means a group can be detected — in
    /// full, since every shard sees the whole neighborhood of the items its
    /// users click — by several shards at once, so groups are deduplicated
    /// by their exact member
    /// sets (users + items); a node flagged by several views keeps the
    /// highest score any of them assigned, and its group index is rewritten
    /// to point into the merged group list. The merge is order-insensitive
    /// up to group numbering, which follows first appearance in `views`
    /// order (callers pass shards in shard-index order for determinism).
    pub fn merged(epoch: u64, views: &[&RiskView]) -> Self {
        let mut groups: Vec<SuspiciousGroup> = Vec::new();
        let mut users: Vec<(UserId, RiskVerdict)> = Vec::new();
        let mut items: Vec<(ItemId, RiskVerdict)> = Vec::new();
        for view in views {
            // Map this view's group indices into the merged list.
            let remap: Vec<usize> = view
                .groups
                .iter()
                .map(|g| {
                    match groups
                        .iter()
                        .position(|m| m.users == g.users && m.items == g.items)
                    {
                        Some(i) => i,
                        None => {
                            groups.push(g.clone());
                            groups.len() - 1
                        }
                    }
                })
                .collect();
            let rewrite = |mut v: RiskVerdict| {
                v.group = v.group.map(|gi| remap[gi]);
                v
            };
            for &(u, v) in &view.users {
                users.push((u, rewrite(v)));
            }
            for &(i, v) in &view.items {
                items.push((i, rewrite(v)));
            }
        }
        // A node flagged by several shards keeps its best-scored verdict
        // (ties broken toward the earliest shard's group assignment).
        fn collapse<K: Ord + Copy>(table: &mut Vec<(K, RiskVerdict)>) {
            table.sort_by(|a, b| {
                a.0.cmp(&b.0).then(
                    b.1.score
                        .partial_cmp(&a.1.score)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
            });
            table.dedup_by_key(|&mut (k, _)| k);
        }
        collapse(&mut users);
        collapse(&mut items);
        Self {
            epoch,
            groups,
            users,
            items,
        }
    }

    /// The view's generation stamp.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The verdict for `u` ([`RiskVerdict::clear`] if unknown).
    pub fn user(&self, u: UserId) -> RiskVerdict {
        match self.users.binary_search_by_key(&u, |&(id, _)| id) {
            Ok(i) => self.users[i].1,
            Err(_) => RiskVerdict::clear(),
        }
    }

    /// The verdict for `v` ([`RiskVerdict::clear`] if unknown).
    pub fn item(&self, v: ItemId) -> RiskVerdict {
        match self.items.binary_search_by_key(&v, |&(id, _)| id) {
            Ok(i) => self.items[i].1,
            Err(_) => RiskVerdict::clear(),
        }
    }

    /// The group a verdict's `group` index points to.
    pub fn group(&self, idx: usize) -> Option<&SuspiciousGroup> {
        self.groups.get(idx)
    }

    /// The detected groups behind this view.
    pub fn groups(&self) -> &[SuspiciousGroup] {
        &self.groups
    }

    /// Number of flagged users.
    pub fn num_flagged_users(&self) -> usize {
        self.users.len()
    }

    /// Number of flagged items.
    pub fn num_flagged_items(&self) -> usize {
        self.items.len()
    }

    /// All flagged users, sorted (the cleaned-index exclusion list).
    pub fn flagged_users(&self) -> Vec<UserId> {
        self.users.iter().map(|&(u, _)| u).collect()
    }

    /// All flagged items, sorted.
    pub fn flagged_items(&self) -> Vec<ItemId> {
        self.items.iter().map(|&(v, _)| v).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> DetectionResult {
        DetectionResult {
            groups: vec![
                SuspiciousGroup {
                    users: vec![UserId(1), UserId(2)],
                    items: vec![ItemId(5)],
                    ridden_hot_items: vec![ItemId(0)],
                },
                SuspiciousGroup {
                    users: vec![UserId(7)],
                    items: vec![ItemId(5), ItemId(6)],
                    ridden_hot_items: vec![],
                },
            ],
            ranked_users: vec![(UserId(2), 9.5), (UserId(1), 3.0), (UserId(7), 1.0)],
            ranked_items: vec![(ItemId(5), 4.0), (ItemId(6), 2.0)],
            ..DetectionResult::default()
        }
    }

    #[test]
    fn empty_view_answers_clear() {
        let v = RiskView::empty();
        assert_eq!(v.epoch(), 0);
        assert_eq!(v.user(UserId(3)), RiskVerdict::clear());
        assert_eq!(v.item(ItemId(3)), RiskVerdict::clear());
        assert_eq!(v.num_flagged_users(), 0);
    }

    #[test]
    fn lookups_match_group_membership() {
        let view = RiskView::from_result(3, &result());
        assert_eq!(view.epoch(), 3);
        let u2 = view.user(UserId(2));
        assert!(u2.flagged);
        assert_eq!(u2.group, Some(0));
        assert!((u2.score - 9.5).abs() < 1e-12);
        let u7 = view.user(UserId(7));
        assert_eq!(u7.group, Some(1));
        assert!(!view.user(UserId(99)).flagged);
        let i6 = view.item(ItemId(6));
        assert!(i6.flagged);
        assert_eq!(i6.group, Some(1));
        assert!((i6.score - 2.0).abs() < 1e-12);
    }

    #[test]
    fn shared_item_keeps_first_group() {
        let view = RiskView::from_result(1, &result());
        // ItemId(5) is in both groups; the view reports the first.
        assert_eq!(view.item(ItemId(5)).group, Some(0));
        assert_eq!(view.num_flagged_items(), 2, "5 deduplicated");
    }

    #[test]
    fn ridden_hot_items_stay_clear() {
        let view = RiskView::from_result(1, &result());
        assert!(!view.item(ItemId(0)).flagged, "victim, not suspect");
    }

    #[test]
    fn flagged_sets_are_sorted_unions() {
        let view = RiskView::from_result(1, &result());
        assert_eq!(view.flagged_users(), vec![UserId(1), UserId(2), UserId(7)]);
        assert_eq!(view.flagged_items(), vec![ItemId(5), ItemId(6)]);
    }

    #[test]
    fn group_accessor_resolves_verdict_indices() {
        let view = RiskView::from_result(1, &result());
        let g = view.group(view.user(UserId(7)).group.unwrap()).unwrap();
        assert!(g.users.contains(&UserId(7)));
        assert!(view.group(5).is_none());
    }

    #[test]
    fn merged_deduplicates_halo_replicated_groups() {
        // Two shards detect the same group (halo replication), one shard
        // also has a group of its own; the merge keeps each group once.
        let shared = SuspiciousGroup {
            users: vec![UserId(1), UserId(2)],
            items: vec![ItemId(5)],
            ridden_hot_items: vec![ItemId(0)],
        };
        let own = SuspiciousGroup {
            users: vec![UserId(9)],
            items: vec![ItemId(7)],
            ridden_hot_items: vec![],
        };
        let a = RiskView::from_result(
            4,
            &DetectionResult {
                groups: vec![shared.clone()],
                ranked_users: vec![(UserId(1), 2.0)],
                ..DetectionResult::default()
            },
        );
        let b = RiskView::from_result(
            4,
            &DetectionResult {
                groups: vec![own.clone(), shared.clone()],
                ranked_users: vec![(UserId(1), 5.0), (UserId(9), 1.0)],
                ..DetectionResult::default()
            },
        );
        let m = RiskView::merged(4, &[&a, &b]);
        assert_eq!(m.epoch(), 4);
        assert_eq!(m.groups().len(), 2, "shared group deduplicated");
        // User 1 keeps the best score across shards and points at the
        // merged index of the shared group (0: first appearance, via a).
        let u1 = m.user(UserId(1));
        assert!(u1.flagged);
        assert!((u1.score - 5.0).abs() < 1e-12);
        assert_eq!(u1.group, Some(0));
        // Shard b's own group was remapped past the shared one.
        let u9 = m.user(UserId(9));
        assert_eq!(u9.group, Some(1));
        assert_eq!(m.group(1).unwrap().users, own.users);
        assert_eq!(m.flagged_users(), vec![UserId(1), UserId(2), UserId(9)]);
        assert_eq!(m.flagged_items(), vec![ItemId(5), ItemId(7)]);
    }

    #[test]
    fn merged_of_single_view_preserves_lookups() {
        let v = RiskView::from_result(2, &result());
        let m = RiskView::merged(9, &[&v]);
        assert_eq!(m.epoch(), 9);
        assert_eq!(m.groups(), v.groups());
        assert_eq!(m.flagged_users(), v.flagged_users());
        assert_eq!(m.user(UserId(2)), v.user(UserId(2)));
    }

    #[test]
    fn merged_of_nothing_is_empty() {
        let m = RiskView::merged(3, &[]);
        assert_eq!(m.epoch(), 3);
        assert_eq!(m.num_flagged_users(), 0);
        assert!(m.groups().is_empty());
    }

    #[test]
    fn serde_round_trips() {
        use serde::{Deserialize, Serialize};
        let view = RiskView::from_result(2, &result());
        let back = RiskView::from_value(&view.to_value()).unwrap();
        assert_eq!(back, view);
    }
}
