//! Deletion-tolerant views over a [`BipartiteGraph`].
//!
//! The paper's Algorithm 3 (`CorePruning` / `SquarePruning`) repeatedly
//! removes vertices "and all adjacent edges" from the graph. Rebuilding the
//! CSR after each removal would be quadratic; a [`GraphView`] instead keeps
//! per-side alive bitmaps plus *live degrees* that are decremented as
//! neighbors disappear, making a removal `O(degree)` and degree queries
//! `O(1)`.

use crate::graph::BipartiteGraph;
use crate::ids::{ItemId, UserId};
use crate::subgraph::InducedSubgraph;
use std::ops::{Deref, DerefMut};

/// The query surface the pruning fixpoint and two-hop counters need from a
/// deletion-tolerant graph view: alive predicates, live degrees, and
/// alive-filtered **ascending** neighbor iteration.
///
/// Implemented by [`GraphView`] (dense tombstones over the weighted CSR)
/// and by [`Transposed`], which exchanges its two sides. Iterating a *dead*
/// anchor still yields its alive neighbors, which is what the `frontier`
/// derivations walk. Methods take `impl FnMut` closures rather than
/// returning iterators so implementations stay monomorphized (no boxing on
/// the hot path); the trait is deliberately not object-safe.
pub trait NeighborView {
    /// Total user vertices (alive or dead).
    fn num_users(&self) -> usize;
    /// Total item vertices (alive or dead).
    fn num_items(&self) -> usize;
    /// True if user `u` has not been removed.
    fn user_alive(&self, u: UserId) -> bool;
    /// True if item `v` has not been removed.
    fn item_alive(&self, v: ItemId) -> bool;
    /// Degree of `u` counting only alive items; `0` if `u` is dead.
    fn user_degree(&self, u: UserId) -> usize;
    /// Degree of `v` counting only alive users; `0` if `v` is dead.
    fn item_degree(&self, v: ItemId) -> usize;
    /// Invokes `f` with each **alive** item adjacent to `u`, in ascending
    /// item-id order, stopping as soon as `f` returns `false`.
    fn for_each_user_neighbor_while(&self, u: UserId, f: impl FnMut(ItemId) -> bool);
    /// Invokes `f` with each **alive** user adjacent to `v`, in ascending
    /// user-id order, stopping as soon as `f` returns `false`.
    fn for_each_item_neighbor_while(&self, v: ItemId, f: impl FnMut(UserId) -> bool);

    /// Invokes `f` with each **alive** item adjacent to `u`, in ascending
    /// item-id order.
    fn for_each_user_neighbor(&self, u: UserId, mut f: impl FnMut(ItemId)) {
        self.for_each_user_neighbor_while(u, |v| {
            f(v);
            true
        });
    }

    /// Invokes `f` with each **alive** user adjacent to `v`, in ascending
    /// user-id order.
    fn for_each_item_neighbor(&self, v: ItemId, mut f: impl FnMut(UserId)) {
        self.for_each_item_neighbor_while(v, |u| {
            f(u);
            true
        });
    }
}

/// What the pruning fixpoint of `ricd-core` needs on top of
/// [`NeighborView`]: removals and alive counts. The fixpoint is written for
/// the user side of a `PruneView` and runs the item side on its
/// [`Transposed`] view, so both implement it.
pub trait PruneView: NeighborView {
    /// Number of alive users.
    fn alive_users(&self) -> usize;
    /// Number of alive items.
    fn alive_items(&self) -> usize;
    /// Removes user `u` and all its incident edges.
    fn remove_user(&mut self, u: UserId);
    /// Removes item `v` and all its incident edges.
    fn remove_item(&mut self, v: ItemId);
    /// Rebuilds the alive region as a dense remapped graph, for views whose
    /// representation can (the fixpoint calls this once most of a large
    /// view has died). `None` — the default — keeps pruning in place.
    fn compact(&self) -> Option<InducedSubgraph> {
        None
    }
}

/// A view with its two sides exchanged: the *users* of `Transposed(&view)`
/// are `view`'s items and the other way round, id for id.
///
/// Algorithm 3 states each rule once, for "a vertex", with `(k₁, k₂)`
/// swapped by side. So do [`crate::twohop`], [`crate::frontier`] and the
/// pruning fixpoint: they are written for the user side only, and the item
/// side is the same code on the transposed view. Wraps a `&V` for queries or
/// a `&mut V` where the caller also removes; every method forwards to its
/// mirror, so the wrapper compiles away.
#[derive(Debug)]
pub struct Transposed<P>(pub P);

impl<P: Deref<Target: NeighborView>> NeighborView for Transposed<P> {
    #[inline]
    fn num_users(&self) -> usize {
        self.0.num_items()
    }
    #[inline]
    fn num_items(&self) -> usize {
        self.0.num_users()
    }
    #[inline]
    fn user_alive(&self, u: UserId) -> bool {
        self.0.item_alive(ItemId(u.0))
    }
    #[inline]
    fn item_alive(&self, v: ItemId) -> bool {
        self.0.user_alive(UserId(v.0))
    }
    #[inline]
    fn user_degree(&self, u: UserId) -> usize {
        self.0.item_degree(ItemId(u.0))
    }
    #[inline]
    fn item_degree(&self, v: ItemId) -> usize {
        self.0.user_degree(UserId(v.0))
    }
    #[inline]
    fn for_each_user_neighbor_while(&self, u: UserId, mut f: impl FnMut(ItemId) -> bool) {
        self.0
            .for_each_item_neighbor_while(ItemId(u.0), |x| f(ItemId(x.0)));
    }
    #[inline]
    fn for_each_item_neighbor_while(&self, v: ItemId, mut f: impl FnMut(UserId) -> bool) {
        self.0
            .for_each_user_neighbor_while(UserId(v.0), |x| f(UserId(x.0)));
    }
}

impl<P: DerefMut<Target: PruneView>> PruneView for Transposed<P> {
    #[inline]
    fn alive_users(&self) -> usize {
        self.0.alive_items()
    }
    #[inline]
    fn alive_items(&self) -> usize {
        self.0.alive_users()
    }
    fn remove_user(&mut self, u: UserId) {
        self.0.remove_item(ItemId(u.0));
    }
    fn remove_item(&mut self, v: ItemId) {
        self.0.remove_user(UserId(v.0));
    }
}

/// A mutable "what's left" mask over an immutable [`BipartiteGraph`].
#[derive(Clone, Debug)]
pub struct GraphView<'g> {
    graph: &'g BipartiteGraph,
    user_alive: Vec<bool>,
    item_alive: Vec<bool>,
    user_live_degree: Vec<u32>,
    item_live_degree: Vec<u32>,
    alive_users: usize,
    alive_items: usize,
}

impl<'g> GraphView<'g> {
    /// A view with every vertex alive.
    pub fn full(graph: &'g BipartiteGraph) -> Self {
        let user_live_degree = (0..graph.num_users() as u32)
            .map(|u| graph.user_degree(UserId(u)) as u32)
            .collect();
        let item_live_degree = (0..graph.num_items() as u32)
            .map(|v| graph.item_degree(ItemId(v)) as u32)
            .collect();
        Self {
            graph,
            user_alive: vec![true; graph.num_users()],
            item_alive: vec![true; graph.num_items()],
            user_live_degree,
            item_live_degree,
            alive_users: graph.num_users(),
            alive_items: graph.num_items(),
        }
    }

    /// A view restricted to the given vertex sets (used for seed expansion in
    /// Algorithm 2's `GraphGenerator`). Vertices outside the sets start dead.
    ///
    /// Live degrees are recomputed only over the supplied alive sets —
    /// `O(Σ deg)` over the alive vertices, not `O(V + E)` over the whole
    /// graph — because Algorithm 2 builds one restricted view *per seed* and
    /// seed neighborhoods are tiny next to the full click graph.
    pub fn restricted(
        graph: &'g BipartiteGraph,
        users: impl IntoIterator<Item = UserId>,
        items: impl IntoIterator<Item = ItemId>,
    ) -> Self {
        let mut view = Self {
            graph,
            user_alive: vec![false; graph.num_users()],
            item_alive: vec![false; graph.num_items()],
            user_live_degree: vec![0; graph.num_users()],
            item_live_degree: vec![0; graph.num_items()],
            alive_users: 0,
            alive_items: 0,
        };
        let mut alive_user_list = Vec::new();
        for u in users {
            if !view.user_alive[u.index()] {
                view.user_alive[u.index()] = true;
                view.alive_users += 1;
                alive_user_list.push(u);
            }
        }
        let mut alive_item_list = Vec::new();
        for v in items {
            if !view.item_alive[v.index()] {
                view.item_alive[v.index()] = true;
                view.alive_items += 1;
                alive_item_list.push(v);
            }
        }
        for u in alive_user_list {
            view.user_live_degree[u.index()] = graph
                .user_adjacency(u)
                .iter()
                .filter(|v| view.item_alive[v.index()])
                .count() as u32;
        }
        for v in alive_item_list {
            view.item_live_degree[v.index()] = graph
                .item_adjacency(v)
                .iter()
                .filter(|u| view.user_alive[u.index()])
                .count() as u32;
        }
        view
    }

    fn recompute_live_degrees(&mut self) {
        for u in 0..self.graph.num_users() as u32 {
            let u = UserId(u);
            self.user_live_degree[u.index()] = if self.user_alive[u.index()] {
                self.graph
                    .user_adjacency(u)
                    .iter()
                    .filter(|v| self.item_alive[v.index()])
                    .count() as u32
            } else {
                0
            };
        }
        for v in 0..self.graph.num_items() as u32 {
            let v = ItemId(v);
            self.item_live_degree[v.index()] = if self.item_alive[v.index()] {
                self.graph
                    .item_adjacency(v)
                    .iter()
                    .filter(|u| self.user_alive[u.index()])
                    .count() as u32
            } else {
                0
            };
        }
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &'g BipartiteGraph {
        self.graph
    }

    /// True if user `u` has not been removed.
    #[inline]
    pub fn user_alive(&self, u: UserId) -> bool {
        self.user_alive[u.index()]
    }

    /// True if item `v` has not been removed.
    #[inline]
    pub fn item_alive(&self, v: ItemId) -> bool {
        self.item_alive[v.index()]
    }

    /// Number of alive users.
    #[inline]
    pub fn alive_users(&self) -> usize {
        self.alive_users
    }

    /// Number of alive items.
    #[inline]
    pub fn alive_items(&self) -> usize {
        self.alive_items
    }

    /// Degree of `u` counting only alive items. `0` if `u` itself is dead.
    #[inline]
    pub fn user_degree(&self, u: UserId) -> usize {
        self.user_live_degree[u.index()] as usize
    }

    /// Degree of `v` counting only alive users. `0` if `v` itself is dead.
    #[inline]
    pub fn item_degree(&self, v: ItemId) -> usize {
        self.item_live_degree[v.index()] as usize
    }

    /// Alive items clicked by `u` with click counts.
    pub fn user_neighbors<'a>(&'a self, u: UserId) -> impl Iterator<Item = (ItemId, u32)> + 'a {
        self.graph
            .user_neighbors(u)
            .filter(move |(v, _)| self.item_alive[v.index()])
    }

    /// Alive users who clicked `v` with click counts.
    pub fn item_neighbors<'a>(&'a self, v: ItemId) -> impl Iterator<Item = (UserId, u32)> + 'a {
        self.graph
            .item_neighbors(v)
            .filter(move |(u, _)| self.user_alive[u.index()])
    }

    /// Iterator over alive users.
    pub fn users<'a>(&'a self) -> impl Iterator<Item = UserId> + 'a {
        (0..self.graph.num_users() as u32)
            .map(UserId)
            .filter(move |u| self.user_alive[u.index()])
    }

    /// Iterator over alive items.
    pub fn items<'a>(&'a self) -> impl Iterator<Item = ItemId> + 'a {
        (0..self.graph.num_items() as u32)
            .map(ItemId)
            .filter(move |v| self.item_alive[v.index()])
    }

    /// Removes user `u` and all its incident edges. Idempotent.
    pub fn remove_user(&mut self, u: UserId) {
        if !self.user_alive[u.index()] {
            return;
        }
        self.user_alive[u.index()] = false;
        self.alive_users -= 1;
        self.user_live_degree[u.index()] = 0;
        for v in self.graph.user_adjacency(u) {
            if self.item_alive[v.index()] {
                self.item_live_degree[v.index()] -= 1;
            }
        }
    }

    /// Removes item `v` and all its incident edges. Idempotent.
    pub fn remove_item(&mut self, v: ItemId) {
        if !self.item_alive[v.index()] {
            return;
        }
        self.item_alive[v.index()] = false;
        self.alive_items -= 1;
        self.item_live_degree[v.index()] = 0;
        for u in self.graph.item_adjacency(v) {
            if self.user_alive[u.index()] {
                self.user_live_degree[u.index()] -= 1;
            }
        }
    }

    /// Re-adds a previously removed user (used by seed expansion). Recomputes
    /// its live degree and bumps neighbors' degrees.
    pub fn restore_user(&mut self, u: UserId) {
        if self.user_alive[u.index()] {
            return;
        }
        self.user_alive[u.index()] = true;
        self.alive_users += 1;
        let mut deg = 0;
        for v in self.graph.user_adjacency(u) {
            if self.item_alive[v.index()] {
                self.item_live_degree[v.index()] += 1;
                deg += 1;
            }
        }
        self.user_live_degree[u.index()] = deg;
    }

    /// Re-adds a previously removed item.
    pub fn restore_item(&mut self, v: ItemId) {
        if self.item_alive[v.index()] {
            return;
        }
        self.item_alive[v.index()] = true;
        self.alive_items += 1;
        let mut deg = 0;
        for u in self.graph.item_adjacency(v) {
            if self.user_alive[u.index()] {
                self.user_live_degree[u.index()] += 1;
                deg += 1;
            }
        }
        self.item_live_degree[v.index()] = deg;
    }

    /// Collects the alive vertex sets as sorted vectors.
    pub fn alive_sets(&self) -> (Vec<UserId>, Vec<ItemId>) {
        (self.users().collect(), self.items().collect())
    }

    /// Debug check: live degrees match a fresh recount. Intended for tests
    /// and assertions; costs a full recount.
    pub fn check_consistency(&self) -> bool {
        let mut clone = self.clone();
        clone.recompute_live_degrees();
        clone.user_live_degree == self.user_live_degree
            && clone.item_live_degree == self.item_live_degree
            && self.alive_users == self.user_alive.iter().filter(|&&a| a).count()
            && self.alive_items == self.item_alive.iter().filter(|&&a| a).count()
    }
}

impl NeighborView for GraphView<'_> {
    #[inline]
    fn num_users(&self) -> usize {
        self.graph.num_users()
    }
    #[inline]
    fn num_items(&self) -> usize {
        self.graph.num_items()
    }
    #[inline]
    fn user_alive(&self, u: UserId) -> bool {
        GraphView::user_alive(self, u)
    }
    #[inline]
    fn item_alive(&self, v: ItemId) -> bool {
        GraphView::item_alive(self, v)
    }
    #[inline]
    fn user_degree(&self, u: UserId) -> usize {
        GraphView::user_degree(self, u)
    }
    #[inline]
    fn item_degree(&self, v: ItemId) -> usize {
        GraphView::item_degree(self, v)
    }
    #[inline]
    fn for_each_user_neighbor_while(&self, u: UserId, mut f: impl FnMut(ItemId) -> bool) {
        for &v in self.graph.user_adjacency(u) {
            if self.item_alive[v.index()] && !f(v) {
                return;
            }
        }
    }
    #[inline]
    fn for_each_item_neighbor_while(&self, v: ItemId, mut f: impl FnMut(UserId) -> bool) {
        for &u in self.graph.item_adjacency(v) {
            if self.user_alive[u.index()] && !f(u) {
                return;
            }
        }
    }
}

impl PruneView for GraphView<'_> {
    #[inline]
    fn alive_users(&self) -> usize {
        GraphView::alive_users(self)
    }
    #[inline]
    fn alive_items(&self) -> usize {
        GraphView::alive_items(self)
    }
    fn remove_user(&mut self, u: UserId) {
        GraphView::remove_user(self, u);
    }
    fn remove_item(&mut self, v: ItemId) {
        GraphView::remove_item(self, v);
    }
    fn compact(&self) -> Option<InducedSubgraph> {
        Some(InducedSubgraph::compact(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn grid() -> BipartiteGraph {
        // 3 users x 3 items complete biclique, weight 1 each.
        let mut b = GraphBuilder::new();
        for u in 0..3 {
            for v in 0..3 {
                b.add_click(UserId(u), ItemId(v), 1);
            }
        }
        b.build()
    }

    #[test]
    fn full_view_matches_graph() {
        let g = grid();
        let view = GraphView::full(&g);
        assert_eq!(view.alive_users(), 3);
        assert_eq!(view.alive_items(), 3);
        assert_eq!(view.user_degree(UserId(0)), 3);
        assert!(view.check_consistency());
    }

    #[test]
    fn remove_user_updates_item_degrees() {
        let g = grid();
        let mut view = GraphView::full(&g);
        view.remove_user(UserId(1));
        assert_eq!(view.alive_users(), 2);
        assert_eq!(view.item_degree(ItemId(0)), 2);
        assert_eq!(view.user_degree(UserId(1)), 0);
        assert!(!view.user_alive(UserId(1)));
        assert!(view.check_consistency());
    }

    #[test]
    fn remove_is_idempotent() {
        let g = grid();
        let mut view = GraphView::full(&g);
        view.remove_item(ItemId(2));
        view.remove_item(ItemId(2));
        assert_eq!(view.alive_items(), 2);
        assert_eq!(view.user_degree(UserId(0)), 2);
        assert!(view.check_consistency());
    }

    #[test]
    fn restore_round_trips() {
        let g = grid();
        let mut view = GraphView::full(&g);
        view.remove_user(UserId(0));
        view.remove_item(ItemId(0));
        view.restore_user(UserId(0));
        view.restore_item(ItemId(0));
        assert_eq!(view.alive_users(), 3);
        assert_eq!(view.alive_items(), 3);
        assert_eq!(view.user_degree(UserId(0)), 3);
        assert_eq!(view.item_degree(ItemId(0)), 3);
        assert!(view.check_consistency());
    }

    #[test]
    fn restricted_view_starts_with_subset() {
        let g = grid();
        let view = GraphView::restricted(&g, [UserId(0), UserId(1)], [ItemId(0)]);
        assert_eq!(view.alive_users(), 2);
        assert_eq!(view.alive_items(), 1);
        assert_eq!(view.user_degree(UserId(0)), 1);
        assert_eq!(view.item_degree(ItemId(0)), 2);
        assert_eq!(view.user_degree(UserId(2)), 0);
        assert!(view.check_consistency());
    }

    #[test]
    fn restricted_view_with_empty_sets_is_fully_dead() {
        // The degenerate seed neighborhood: no vertices supplied. Every
        // vertex starts dead, every degree is zero, iteration yields
        // nothing, and the empty view is still internally consistent.
        let g = grid();
        let view = GraphView::restricted(&g, [], []);
        assert_eq!(view.alive_users(), 0);
        assert_eq!(view.alive_items(), 0);
        assert_eq!(view.users().count(), 0);
        assert_eq!(view.items().count(), 0);
        for u in 0..g.num_users() as u32 {
            assert!(!view.user_alive(UserId(u)));
            assert_eq!(view.user_degree(UserId(u)), 0);
        }
        for v in 0..g.num_items() as u32 {
            assert!(!view.item_alive(ItemId(v)));
            assert_eq!(view.item_degree(ItemId(v)), 0);
        }
        let (us, is) = view.alive_sets();
        assert!(us.is_empty() && is.is_empty());
        assert!(view.check_consistency());
    }

    #[test]
    fn neighbors_filter_dead_vertices() {
        let g = grid();
        let mut view = GraphView::full(&g);
        view.remove_item(ItemId(1));
        let n: Vec<_> = view.user_neighbors(UserId(0)).map(|(v, _)| v).collect();
        assert_eq!(n, vec![ItemId(0), ItemId(2)]);
    }

    #[test]
    fn alive_sets_sorted() {
        let g = grid();
        let mut view = GraphView::full(&g);
        view.remove_user(UserId(1));
        let (us, is) = view.alive_sets();
        assert_eq!(us, vec![UserId(0), UserId(2)]);
        assert_eq!(is, vec![ItemId(0), ItemId(1), ItemId(2)]);
    }
}
