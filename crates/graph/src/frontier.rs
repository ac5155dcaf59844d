//! Dirty-frontier derivation for the delta-driven pruning fixpoint.
//!
//! The pruning bounds of Algorithm 3 are monotone: removing a vertex can
//! only *lower* other vertices' live degrees and common-neighbor counts,
//! never raise them. So after a full seeding pass, a vertex can newly fail
//! a bound only if something near it was removed:
//!
//! * **CorePruning** checks a vertex's live degree, which changes only when
//!   a *direct neighbor* dies — the dirty set is the one-hop neighborhood
//!   of the removal batch.
//! * **SquarePruning** checks common-neighbor counts over two-hop paths
//!   (`user → item → user`), which change when either an adjacent item dies
//!   (killing wedges through it) or a two-hop peer dies (no longer a
//!   countable neighbor) — the dirty set is the two-hop neighborhood.
//!
//! All derivations return **sorted, deduplicated** raw-index worklists over
//! currently-alive vertices. Dedup uses reusable bitmaps so repeated rounds
//! allocate nothing; the bitmaps are cleared by walking the result list, so
//! the cost is proportional to the frontier, not the graph. Everything is
//! generic over [`NeighborView`], whose walks from a *dead* anchor still
//! yield its alive neighbors — exactly the vertices a removal can dirty.

use crate::ids::{ItemId, UserId};
use crate::view::NeighborView;

/// Reusable dedup bitmaps for frontier derivation.
///
/// Sized for a specific id space; [`FrontierScratch::for_view`] builds one
/// that fits a view. All bits are false between calls.
#[derive(Debug)]
pub struct FrontierScratch {
    user_seen: Vec<bool>,
    item_seen: Vec<bool>,
}

impl FrontierScratch {
    /// Creates scratch for a graph with the given vertex counts.
    pub fn new(num_users: usize, num_items: usize) -> Self {
        Self {
            user_seen: vec![false; num_users],
            item_seen: vec![false; num_items],
        }
    }

    /// Creates scratch sized for `view`'s id space.
    pub fn for_view<V: NeighborView>(view: &V) -> Self {
        Self::new(view.num_users(), view.num_items())
    }

    // The callers only push what a `NeighborView` walk yielded, so the
    // vertex is alive; dedup is all that is left to do.
    #[inline]
    fn push_user(&mut self, out: &mut Vec<u32>, u: UserId) {
        if !self.user_seen[u.index()] {
            self.user_seen[u.index()] = true;
            out.push(u.0);
        }
    }

    #[inline]
    fn push_item(&mut self, out: &mut Vec<u32>, v: ItemId) {
        if !self.item_seen[v.index()] {
            self.item_seen[v.index()] = true;
            out.push(v.0);
        }
    }

    fn finish_users(&mut self, mut out: Vec<u32>) -> Vec<u32> {
        for &u in &out {
            self.user_seen[u as usize] = false;
        }
        out.sort_unstable();
        out
    }

    fn finish_items(&mut self, mut out: Vec<u32>) -> Vec<u32> {
        for &v in &out {
            self.item_seen[v as usize] = false;
        }
        out.sort_unstable();
        out
    }
}

/// Alive users whose live degree may have dropped: the one-hop neighborhood
/// of the removed items.
pub fn core_dirty_users<V: NeighborView>(
    view: &V,
    removed_items: &[ItemId],
    scratch: &mut FrontierScratch,
) -> Vec<u32> {
    let mut out = Vec::new();
    for &v in removed_items {
        view.for_each_item_neighbor(v, |u| scratch.push_user(&mut out, u));
    }
    scratch.finish_users(out)
}

/// Alive items whose live degree may have dropped: the one-hop neighborhood
/// of the removed users.
pub fn core_dirty_items<V: NeighborView>(
    view: &V,
    removed_users: &[UserId],
    scratch: &mut FrontierScratch,
) -> Vec<u32> {
    let mut out = Vec::new();
    for &u in removed_users {
        view.for_each_user_neighbor(u, |v| scratch.push_item(&mut out, v));
    }
    scratch.finish_items(out)
}

/// Alive users whose common-neighbor counts may have dropped.
///
/// Two legs cover every wedge-count-decreasing event:
/// * a removed **item** kills wedges through it for every adjacent user
///   (one hop from the item);
/// * a removed **user** stops being a countable peer for every alive user it
///   shares a *currently alive* item with (two hops). Shared items that died
///   in the same batch are covered by the first leg, since their adjacency
///   includes those same peers.
pub fn square_dirty_users<V: NeighborView>(
    view: &V,
    removed_users: &[UserId],
    removed_items: &[ItemId],
    scratch: &mut FrontierScratch,
) -> Vec<u32> {
    let mut out = Vec::new();
    for &v in removed_items {
        view.for_each_item_neighbor(v, |u| scratch.push_user(&mut out, u));
    }
    // Removed users share their (hot) items: walk each item's list once.
    let mut through = Vec::new();
    for &ru in removed_users {
        view.for_each_user_neighbor(ru, |v| scratch.push_item(&mut through, v));
    }
    for &v in &through {
        scratch.item_seen[v as usize] = false;
        view.for_each_item_neighbor(ItemId(v), |u| scratch.push_user(&mut out, u));
    }
    scratch.finish_users(out)
}

/// Alive items whose common-neighbor counts may have dropped (mirror of
/// [`square_dirty_users`]).
pub fn square_dirty_items<V: NeighborView>(
    view: &V,
    removed_users: &[UserId],
    removed_items: &[ItemId],
    scratch: &mut FrontierScratch,
) -> Vec<u32> {
    let mut out = Vec::new();
    for &u in removed_users {
        view.for_each_user_neighbor(u, |v| scratch.push_item(&mut out, v));
    }
    let mut through = Vec::new();
    for &rv in removed_items {
        view.for_each_item_neighbor(rv, |u| scratch.push_user(&mut through, u));
    }
    for &u in &through {
        scratch.user_seen[u as usize] = false;
        view.for_each_user_neighbor(UserId(u), |v| scratch.push_item(&mut out, v));
    }
    scratch.finish_items(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::graph::BipartiteGraph;
    use crate::view::GraphView;

    /// 4 users × 3 items; u0..u2 click all items, u3 clicks only i2.
    fn fixture() -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        for u in 0..3u32 {
            for v in 0..3u32 {
                b.add_click(UserId(u), ItemId(v), 1);
            }
        }
        b.add_click(UserId(3), ItemId(2), 1);
        b.build()
    }

    #[test]
    fn core_dirt_is_one_hop_and_alive_only() {
        let g = fixture();
        let mut view = GraphView::full(&g);
        let mut scratch = FrontierScratch::for_view(&view);
        view.remove_item(ItemId(2));
        view.remove_user(UserId(0));
        let dirty = core_dirty_users(&view, &[ItemId(2)], &mut scratch);
        // u0 is dead, so only u1, u2, u3 — all adjacent to i2.
        assert_eq!(dirty, vec![1, 2, 3]);
        let dirty = core_dirty_items(&view, &[UserId(0)], &mut scratch);
        assert_eq!(dirty, vec![0, 1]); // i2 is dead
    }

    #[test]
    fn square_dirt_reaches_two_hops() {
        let g = fixture();
        let mut view = GraphView::full(&g);
        let mut scratch = FrontierScratch::for_view(&view);
        view.remove_user(UserId(0));
        // u0's wedge peers through alive items: u1, u2 (i0, i1, i2), u3 (i2).
        let dirty = square_dirty_users(&view, &[UserId(0)], &[], &mut scratch);
        assert_eq!(dirty, vec![1, 2, 3]);
    }

    #[test]
    fn removed_item_leg_covers_same_batch_shared_items() {
        let g = fixture();
        let mut view = GraphView::full(&g);
        let mut scratch = FrontierScratch::for_view(&view);
        // Remove u3 and its only item i2 in the same batch: the user leg
        // finds nothing through i2 (dead), but the item leg reaches u0..u2.
        view.remove_user(UserId(3));
        view.remove_item(ItemId(2));
        let dirty = square_dirty_users(&view, &[UserId(3)], &[ItemId(2)], &mut scratch);
        assert_eq!(dirty, vec![0, 1, 2]);
    }

    #[test]
    fn output_is_deduped_and_sorted() {
        let g = fixture();
        let mut view = GraphView::full(&g);
        let mut scratch = FrontierScratch::for_view(&view);
        view.remove_item(ItemId(0));
        view.remove_item(ItemId(1));
        let dirty = core_dirty_users(&view, &[ItemId(0), ItemId(1)], &mut scratch);
        assert_eq!(dirty, vec![0, 1, 2]);
        // Scratch is clean for the next call.
        let dirty = core_dirty_users(&view, &[ItemId(1)], &mut scratch);
        assert_eq!(dirty, vec![0, 1, 2]);
    }
}
