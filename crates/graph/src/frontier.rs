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
//! Each derivation is written once, for one side of the view it is handed
//! ([`core_dirty`] yields items, [`square_dirty`] users); the other side is
//! the same call on [`crate::Transposed`]`(&view)` with the removal lists
//! and the two [`FrontierScratch`]es exchanged. Ids go in and come out as
//! raw indices, which is what the fixpoint's logs and worklists hold.
//!
//! All derivations return **sorted, deduplicated** worklists over
//! currently-alive vertices. The worklists themselves are allocated per
//! call; dedup uses reusable bitmaps, cleared by walking the result list,
//! so the cost is proportional to the frontier, not the graph. Everything
//! is generic over [`NeighborView`], whose walks from a *dead* anchor still
//! yield its alive neighbors — exactly the vertices a removal can dirty.

use crate::ids::{ItemId, UserId};
use crate::view::NeighborView;

/// Reusable dedup bitmap over one side's id space. All bits are false
/// between calls.
#[derive(Debug)]
pub struct FrontierScratch {
    seen: Vec<bool>,
}

impl FrontierScratch {
    /// Creates scratch for a side with `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            seen: vec![false; n],
        }
    }

    // The callers only push what a `NeighborView` walk yielded, so the
    // vertex is alive; dedup is all that is left to do.
    #[inline]
    fn push(&mut self, out: &mut Vec<u32>, id: u32) {
        if !self.seen[id as usize] {
            self.seen[id as usize] = true;
            out.push(id);
        }
    }

    fn finish(&mut self, mut out: Vec<u32>) -> Vec<u32> {
        for &id in &out {
            self.seen[id as usize] = false;
        }
        out.sort_unstable();
        out
    }
}

/// Alive items whose live degree may have dropped: the one-hop neighborhood
/// of the removed users.
pub fn core_dirty<V: NeighborView>(
    view: &V,
    removed_users: &[u32],
    items: &mut FrontierScratch,
) -> Vec<u32> {
    let mut out = Vec::new();
    for &u in removed_users {
        view.for_each_user_neighbor(UserId(u), |v| items.push(&mut out, v.0));
    }
    items.finish(out)
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
pub fn square_dirty<V: NeighborView>(
    view: &V,
    removed_users: &[u32],
    removed_items: &[u32],
    users: &mut FrontierScratch,
    items: &mut FrontierScratch,
) -> Vec<u32> {
    let mut out = Vec::new();
    for &v in removed_items {
        view.for_each_item_neighbor(ItemId(v), |u| users.push(&mut out, u.0));
    }
    // Removed users share their (hot) items: walk each item's list once.
    let through = core_dirty(view, removed_users, items);
    for &v in &through {
        view.for_each_item_neighbor(ItemId(v), |u| users.push(&mut out, u.0));
    }
    users.finish(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::graph::BipartiteGraph;
    use crate::view::{GraphView, Transposed};

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

    fn scratches(g: &BipartiteGraph) -> (FrontierScratch, FrontierScratch) {
        (
            FrontierScratch::new(g.num_users()),
            FrontierScratch::new(g.num_items()),
        )
    }

    #[test]
    fn core_dirt_is_one_hop_and_alive_only() {
        let g = fixture();
        let mut view = GraphView::full(&g);
        let (mut users, mut items) = scratches(&g);
        view.remove_item(ItemId(2));
        view.remove_user(UserId(0));
        // Users dirtied by a removed item: the item side's derivation.
        let dirty = core_dirty(&Transposed(&view), &[2], &mut users);
        // u0 is dead, so only u1, u2, u3 — all adjacent to i2.
        assert_eq!(dirty, vec![1, 2, 3]);
        let dirty = core_dirty(&view, &[0], &mut items);
        assert_eq!(dirty, vec![0, 1]); // i2 is dead
    }

    #[test]
    fn square_dirt_reaches_two_hops() {
        let g = fixture();
        let mut view = GraphView::full(&g);
        let (mut users, mut items) = scratches(&g);
        view.remove_user(UserId(0));
        // u0's wedge peers through alive items: u1, u2 (i0, i1, i2), u3 (i2).
        let dirty = square_dirty(&view, &[0], &[], &mut users, &mut items);
        assert_eq!(dirty, vec![1, 2, 3]);
    }

    #[test]
    fn item_square_dirt_is_the_transposed_derivation() {
        let g = fixture();
        let mut view = GraphView::full(&g);
        let (mut users, mut items) = scratches(&g);
        // Removing i0 dirties its two-hop item peers through alive users
        // (i1, i2 via u0..u2); removing u3 dirties its one item, i2.
        view.remove_item(ItemId(0));
        let t = Transposed(&view);
        assert_eq!(
            square_dirty(&t, &[0], &[], &mut items, &mut users),
            vec![1, 2]
        );
        view.remove_user(UserId(3));
        let t = Transposed(&view);
        assert_eq!(square_dirty(&t, &[], &[3], &mut items, &mut users), vec![2]);
    }

    #[test]
    fn removed_item_leg_covers_same_batch_shared_items() {
        let g = fixture();
        let mut view = GraphView::full(&g);
        let (mut users, mut items) = scratches(&g);
        // Remove u3 and its only item i2 in the same batch: the user leg
        // finds nothing through i2 (dead), but the item leg reaches u0..u2.
        view.remove_user(UserId(3));
        view.remove_item(ItemId(2));
        let dirty = square_dirty(&view, &[3], &[2], &mut users, &mut items);
        assert_eq!(dirty, vec![0, 1, 2]);
    }

    #[test]
    fn output_is_deduped_and_sorted() {
        let g = fixture();
        let mut view = GraphView::full(&g);
        let (mut users, _) = scratches(&g);
        view.remove_item(ItemId(0));
        view.remove_item(ItemId(1));
        let dirty = core_dirty(&Transposed(&view), &[0, 1], &mut users);
        assert_eq!(dirty, vec![0, 1, 2]);
        // Scratch is clean for the next call.
        let dirty = core_dirty(&Transposed(&view), &[1], &mut users);
        assert_eq!(dirty, vec![0, 1, 2]);
    }
}
