//! The compact shard-local CSR: delta-encoded adjacency + alive bitmaps.
//!
//! The paper prunes a 20M-user / 90M-edge graph; at that scale the dense
//! [`BipartiteGraph`] + [`GraphView`](crate::GraphView) pair is
//! memory-bound: 4-byte neighbor ids in both directions, 4-byte click
//! weights the pruning rules never read, and one *byte* of tombstone per
//! vertex. Shard-local pruning (`ricd-core::shard_run`) needs none of
//! that — it only asks for degrees, alive-filtered sorted adjacency
//! iteration, and removals. This module provides a purpose-built
//! representation for exactly those queries:
//!
//! * [`DeltaAdjacency`] — sorted neighbor lists stored as LEB128 varints
//!   of the *gaps* between consecutive ids. Local subgraphs remap ids
//!   densely, so gaps are small and most neighbors cost one byte instead
//!   of four. Construction rejects unsorted or duplicated input: the
//!   strictly-increasing invariant is what makes delta coding and sorted
//!   intersection correct, so a violation is an error, not a latent bug.
//! * [`AliveBitmap`] — one bit per vertex (64 packed per word) replacing
//!   the view's byte-per-vertex tombstone array, with word-skipping alive
//!   iteration.
//! * [`CompactBigraph`] / [`CompactSubgraph`] / [`CompactView`] — the
//!   compact analogues of [`BipartiteGraph`],
//!   [`InducedSubgraph`](crate::InducedSubgraph) and
//!   [`GraphView`](crate::GraphView), implementing the same
//!   [`NeighborView`] contract so the two-hop counters and the shard
//!   fixpoint run unchanged on either representation.
//!
//! `tests/proptest_csr.rs` holds the differential proof: random worlds
//! and removal sequences must produce identical alive sets, degrees and
//! adjacency iteration order on both representations.

use crate::graph::BipartiteGraph;
use crate::ids::{ItemId, UserId};
use crate::view::{NeighborView, PruneView};

/// One alive bit per vertex, 64 packed per word.
///
/// Replaces the `Vec<bool>` tombstone array of
/// [`GraphView`](crate::GraphView): 8× smaller, and alive iteration skips
/// fully-dead words instead of probing every vertex.
#[derive(Clone, Debug)]
pub struct AliveBitmap {
    words: Vec<u64>,
    len: usize,
    alive: usize,
}

impl AliveBitmap {
    /// A bitmap of `len` vertices, all alive.
    pub fn all_alive(len: usize) -> Self {
        let full_words = len / 64;
        let tail = len % 64;
        let mut words = vec![u64::MAX; full_words];
        if tail > 0 {
            words.push((1u64 << tail) - 1);
        }
        Self {
            words,
            len,
            alive: len,
        }
    }

    /// Number of vertices covered (alive or dead).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap covers zero vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of alive vertices.
    #[inline]
    pub fn alive(&self) -> usize {
        self.alive
    }

    /// True if vertex `i` is alive.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Marks vertex `i` dead. Returns true if it was alive (idempotent).
    #[inline]
    pub fn clear(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        let w = &mut self.words[i / 64];
        if *w & mask == 0 {
            return false;
        }
        *w &= !mask;
        self.alive -= 1;
        true
    }

    /// Marks vertex `i` alive. Returns true if it was dead (idempotent).
    #[inline]
    pub fn set(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        let w = &mut self.words[i / 64];
        if *w & mask != 0 {
            return false;
        }
        *w |= mask;
        self.alive += 1;
        true
    }

    /// Ascending iterator over alive vertex indices, skipping dead words.
    pub fn iter_alive(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .filter(|(_, &w)| w != 0)
            .flat_map(|(wi, &w)| WordBits {
                word: w,
                base: wi * 64,
            })
    }

    /// Heap bytes held by the bitmap.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

/// Iterator over the set bits of one word.
struct WordBits {
    word: u64,
    base: usize,
}

impl Iterator for WordBits {
    type Item = usize;
    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

/// Sorted adjacency lists stored as varint-encoded gaps.
///
/// Per vertex: a byte range into `data` plus its static degree. The first
/// neighbor id is encoded as-is; each subsequent neighbor as the gap to
/// its predecessor (`≥ 1` because lists are strictly increasing — a gap of
/// zero would mean a duplicate, which construction rejects).
#[derive(Clone, Debug)]
pub struct DeltaAdjacency {
    /// Byte offset of each vertex's encoded list; `len = vertices + 1`.
    offsets: Vec<u32>,
    /// Static (construction-time) degree of each vertex.
    degrees: Vec<u32>,
    /// LEB128 varint stream of first-id + gaps.
    data: Vec<u8>,
}

fn push_varint(data: &mut Vec<u8>, mut x: u32) {
    loop {
        let byte = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            data.push(byte);
            break;
        }
        data.push(byte | 0x80);
    }
}

#[inline]
fn read_varint(data: &[u8], pos: &mut usize) -> u32 {
    let mut x = 0u32;
    let mut shift = 0;
    loop {
        let byte = data[*pos];
        *pos += 1;
        x |= ((byte & 0x7f) as u32) << shift;
        if byte & 0x80 == 0 {
            return x;
        }
        shift += 7;
    }
}

/// Streaming builder for a [`DeltaAdjacency`]: one `push_list` call per
/// vertex, in vertex order.
pub struct DeltaEncoder {
    offsets: Vec<u32>,
    degrees: Vec<u32>,
    data: Vec<u8>,
    other_side: usize,
}

impl DeltaEncoder {
    /// An encoder whose neighbor ids must lie in `0..other_side`.
    pub fn new(other_side: usize) -> Self {
        Self {
            offsets: vec![0u32],
            degrees: Vec::new(),
            data: Vec::new(),
            other_side,
        }
    }

    /// Appends the next vertex's neighbor list. The list must be strictly
    /// increasing with ids below `other_side`; violations are rejected —
    /// the sorted duplicate-free invariant is load-bearing for delta
    /// coding and sorted intersection.
    pub fn push_list(&mut self, list: impl IntoIterator<Item = u32>) -> Result<(), String> {
        let vertex = self.degrees.len();
        let mut prev: Option<u32> = None;
        let mut degree = 0u32;
        for id in list {
            if id as usize >= self.other_side {
                return Err(format!(
                    "vertex {vertex}: neighbor id {id} out of range (< {})",
                    self.other_side
                ));
            }
            match prev {
                None => push_varint(&mut self.data, id),
                Some(p) if id > p => push_varint(&mut self.data, id - p),
                Some(p) => {
                    return Err(format!(
                        "vertex {vertex}: adjacency not strictly increasing ({p} then {id})"
                    ))
                }
            }
            prev = Some(id);
            degree += 1;
        }
        self.degrees.push(degree);
        let end = u32::try_from(self.data.len())
            .map_err(|_| "adjacency stream exceeds u32 byte offsets".to_string())?;
        self.offsets.push(end);
        Ok(())
    }

    /// Finalizes the encoded adjacency.
    pub fn finish(mut self) -> DeltaAdjacency {
        self.data.shrink_to_fit();
        DeltaAdjacency {
            offsets: self.offsets,
            degrees: self.degrees,
            data: self.data,
        }
    }
}

impl DeltaAdjacency {
    /// Encodes one adjacency list per slice, in vertex order. See
    /// [`DeltaEncoder::push_list`] for the invariants enforced.
    pub fn from_lists<'a, I>(lists: I, other_side: usize) -> Result<Self, String>
    where
        I: IntoIterator<Item = &'a [u32]>,
    {
        let mut enc = DeltaEncoder::new(other_side);
        for list in lists {
            enc.push_list(list.iter().copied())?;
        }
        Ok(enc.finish())
    }

    /// Number of vertices on this side.
    #[inline]
    pub fn vertices(&self) -> usize {
        self.degrees.len()
    }

    /// Static degree of vertex `i`.
    #[inline]
    pub fn degree(&self, i: usize) -> u32 {
        self.degrees[i]
    }

    /// Invokes `f` with each neighbor id of vertex `i`, in ascending order.
    #[inline]
    pub fn for_each(&self, i: usize, mut f: impl FnMut(u32)) {
        self.for_each_while(i, |id| {
            f(id);
            true
        });
    }

    /// Like [`for_each`](Self::for_each) but stops decoding as soon as `f`
    /// returns `false`.
    #[inline]
    pub fn for_each_while(&self, i: usize, mut f: impl FnMut(u32) -> bool) {
        let mut pos = self.offsets[i] as usize;
        let deg = self.degrees[i];
        let mut id = 0u32;
        for k in 0..deg {
            let delta = read_varint(&self.data, &mut pos);
            id = if k == 0 { delta } else { id + delta };
            if !f(id) {
                return;
            }
        }
    }

    /// Decodes vertex `i`'s neighbor list into `out` (cleared first).
    pub fn decode_into(&self, i: usize, out: &mut Vec<u32>) {
        out.clear();
        self.for_each(i, |id| out.push(id));
    }

    /// Heap bytes held (offsets + degrees + encoded stream).
    pub fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * 4 + self.degrees.capacity() * 4 + self.data.capacity()
    }
}

/// A bipartite graph in compact CSR form: both directions delta-encoded,
/// no click weights (the pruning rules never read them).
#[derive(Clone, Debug)]
pub struct CompactBigraph {
    user_adj: DeltaAdjacency,
    item_adj: DeltaAdjacency,
}

impl CompactBigraph {
    /// Builds from explicit per-vertex sorted lists.
    pub fn from_lists(user_lists: &[Vec<u32>], item_lists: &[Vec<u32>]) -> Result<Self, String> {
        let user_adj =
            DeltaAdjacency::from_lists(user_lists.iter().map(|l| l.as_slice()), item_lists.len())?;
        let item_adj =
            DeltaAdjacency::from_lists(item_lists.iter().map(|l| l.as_slice()), user_lists.len())?;
        Ok(Self { user_adj, item_adj })
    }

    /// Re-encodes a dense [`BipartiteGraph`] compactly (weights dropped).
    pub fn from_graph(g: &BipartiteGraph) -> Self {
        let mut users = DeltaEncoder::new(g.num_items());
        for u in g.users() {
            users
                .push_list(g.user_adjacency(u).iter().map(|v| v.0))
                .expect("CSR adjacency is sorted by construction");
        }
        let mut items = DeltaEncoder::new(g.num_users());
        for v in g.items() {
            items
                .push_list(g.item_adjacency(v).iter().map(|u| u.0))
                .expect("CSR adjacency is sorted by construction");
        }
        Self {
            user_adj: users.finish(),
            item_adj: items.finish(),
        }
    }

    /// Number of user vertices.
    #[inline]
    pub fn num_users(&self) -> usize {
        self.user_adj.vertices()
    }

    /// Number of item vertices.
    #[inline]
    pub fn num_items(&self) -> usize {
        self.item_adj.vertices()
    }

    /// Static degree of user `u`.
    #[inline]
    pub fn user_degree(&self, u: UserId) -> u32 {
        self.user_adj.degree(u.index())
    }

    /// Static degree of item `v`.
    #[inline]
    pub fn item_degree(&self, v: ItemId) -> u32 {
        self.item_adj.degree(v.index())
    }

    /// Ascending iteration over user `u`'s item neighbors.
    #[inline]
    pub fn for_each_user_neighbor(&self, u: UserId, mut f: impl FnMut(ItemId)) {
        self.user_adj.for_each(u.index(), |id| f(ItemId(id)));
    }

    /// Ascending iteration over item `v`'s user neighbors.
    #[inline]
    pub fn for_each_item_neighbor(&self, v: ItemId, mut f: impl FnMut(UserId)) {
        self.item_adj.for_each(v.index(), |id| f(UserId(id)));
    }

    /// Heap bytes held by both directions.
    pub fn heap_bytes(&self) -> usize {
        self.user_adj.heap_bytes() + self.item_adj.heap_bytes()
    }
}

/// A compact induced subgraph with dense local ids plus the mapping back
/// to parent ids — the shard-local analogue of
/// [`InducedSubgraph`](crate::InducedSubgraph), built without click
/// weights and without an intermediate dense CSR.
#[derive(Clone, Debug)]
pub struct CompactSubgraph {
    /// The extracted compact graph with dense local ids.
    pub graph: CompactBigraph,
    /// `local user id → parent user id` (sorted).
    pub user_map: Vec<UserId>,
    /// `local item id → parent item id` (sorted).
    pub item_map: Vec<ItemId>,
}

impl CompactSubgraph {
    /// Extracts the subgraph induced by the given parent-id vertex sets.
    /// Duplicate ids in the inputs are tolerated. Local id order agrees
    /// with parent id order (both maps are sorted), so adjacency stays
    /// sorted without re-sorting.
    pub fn extract(
        parent: &BipartiteGraph,
        users: impl IntoIterator<Item = UserId>,
        items: impl IntoIterator<Item = ItemId>,
    ) -> Self {
        let mut user_map: Vec<UserId> = users.into_iter().collect();
        user_map.sort_unstable();
        user_map.dedup();
        let mut item_map: Vec<ItemId> = items.into_iter().collect();
        item_map.sort_unstable();
        item_map.dedup();

        let mut item_local = vec![u32::MAX; parent.num_items()];
        for (local, v) in item_map.iter().enumerate() {
            item_local[v.index()] = local as u32;
        }

        // User side: parent adjacency is sorted by parent item id, and the
        // sorted item_map makes local ids order-preserving.
        let mut user_lists: Vec<Vec<u32>> = Vec::with_capacity(user_map.len());
        let mut item_degrees = vec![0u32; item_map.len()];
        for &u in &user_map {
            let mut list = Vec::new();
            for &v in parent.user_adjacency(u) {
                let lv = item_local[v.index()];
                if lv != u32::MAX {
                    list.push(lv);
                    item_degrees[lv as usize] += 1;
                }
            }
            user_lists.push(list);
        }

        // Item side by counting sort: walking users in ascending local id
        // fills each item's list in ascending user order.
        let mut item_lists: Vec<Vec<u32>> = item_degrees
            .iter()
            .map(|&d| Vec::with_capacity(d as usize))
            .collect();
        for (lu, list) in user_lists.iter().enumerate() {
            for &lv in list {
                item_lists[lv as usize].push(lu as u32);
            }
        }

        let graph = CompactBigraph::from_lists(&user_lists, &item_lists)
            .expect("locally remapped adjacency is sorted by construction");
        Self {
            graph,
            user_map,
            item_map,
        }
    }

    /// Maps a local user id back to the parent id.
    #[inline]
    pub fn parent_user(&self, local: UserId) -> UserId {
        self.user_map[local.index()]
    }

    /// Maps a local item id back to the parent id.
    #[inline]
    pub fn parent_item(&self, local: ItemId) -> ItemId {
        self.item_map[local.index()]
    }
}

/// A deletion-tolerant view over a [`CompactBigraph`]: alive bitmaps
/// instead of byte tombstones, live degrees maintained incrementally —
/// the compact analogue of [`GraphView`](crate::GraphView).
#[derive(Clone, Debug)]
pub struct CompactView<'g> {
    graph: &'g CompactBigraph,
    user_alive: AliveBitmap,
    item_alive: AliveBitmap,
    user_live_degree: Vec<u32>,
    item_live_degree: Vec<u32>,
}

impl<'g> CompactView<'g> {
    /// A view with every vertex alive.
    pub fn full(graph: &'g CompactBigraph) -> Self {
        Self {
            user_alive: AliveBitmap::all_alive(graph.num_users()),
            item_alive: AliveBitmap::all_alive(graph.num_items()),
            user_live_degree: (0..graph.num_users())
                .map(|i| graph.user_adj.degree(i))
                .collect(),
            item_live_degree: (0..graph.num_items())
                .map(|i| graph.item_adj.degree(i))
                .collect(),
            graph,
        }
    }

    /// The underlying compact graph.
    #[inline]
    pub fn graph(&self) -> &'g CompactBigraph {
        self.graph
    }

    /// Number of alive users.
    #[inline]
    pub fn alive_users(&self) -> usize {
        self.user_alive.alive()
    }

    /// Number of alive items.
    #[inline]
    pub fn alive_items(&self) -> usize {
        self.item_alive.alive()
    }

    /// Removes user `u` and its incident edges. Idempotent.
    pub fn remove_user(&mut self, u: UserId) {
        if !self.user_alive.clear(u.index()) {
            return;
        }
        self.user_live_degree[u.index()] = 0;
        let item_alive = &self.item_alive;
        let item_live_degree = &mut self.item_live_degree;
        self.graph.user_adj.for_each(u.index(), |v| {
            if item_alive.get(v as usize) {
                item_live_degree[v as usize] -= 1;
            }
        });
    }

    /// Removes item `v` and its incident edges. Idempotent.
    pub fn remove_item(&mut self, v: ItemId) {
        if !self.item_alive.clear(v.index()) {
            return;
        }
        self.item_live_degree[v.index()] = 0;
        let user_alive = &self.user_alive;
        let user_live_degree = &mut self.user_live_degree;
        self.graph.item_adj.for_each(v.index(), |u| {
            if user_alive.get(u as usize) {
                user_live_degree[u as usize] -= 1;
            }
        });
    }

    /// Ascending iterator over alive users.
    pub fn users(&self) -> impl Iterator<Item = UserId> + '_ {
        self.user_alive.iter_alive().map(|i| UserId(i as u32))
    }

    /// Ascending iterator over alive items.
    pub fn items(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.item_alive.iter_alive().map(|i| ItemId(i as u32))
    }

    /// Collects the alive vertex sets as sorted vectors.
    pub fn alive_sets(&self) -> (Vec<UserId>, Vec<ItemId>) {
        (self.users().collect(), self.items().collect())
    }

    /// Debug check: live degrees match a fresh recount against the alive
    /// bitmaps. Costs a full pass; intended for tests.
    pub fn check_consistency(&self) -> bool {
        for i in 0..self.graph.num_users() {
            let mut deg = 0;
            if self.user_alive.get(i) {
                self.graph.user_adj.for_each(i, |v| {
                    if self.item_alive.get(v as usize) {
                        deg += 1;
                    }
                });
            }
            if self.user_live_degree[i] != deg {
                return false;
            }
        }
        for i in 0..self.graph.num_items() {
            let mut deg = 0;
            if self.item_alive.get(i) {
                self.graph.item_adj.for_each(i, |u| {
                    if self.user_alive.get(u as usize) {
                        deg += 1;
                    }
                });
            }
            if self.item_live_degree[i] != deg {
                return false;
            }
        }
        true
    }
}

impl NeighborView for CompactView<'_> {
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
        self.user_alive.get(u.index())
    }
    #[inline]
    fn item_alive(&self, v: ItemId) -> bool {
        self.item_alive.get(v.index())
    }
    #[inline]
    fn user_degree(&self, u: UserId) -> usize {
        self.user_live_degree[u.index()] as usize
    }
    #[inline]
    fn item_degree(&self, v: ItemId) -> usize {
        self.item_live_degree[v.index()] as usize
    }
    #[inline]
    fn for_each_user_neighbor_while(&self, u: UserId, mut f: impl FnMut(ItemId) -> bool) {
        let item_alive = &self.item_alive;
        self.graph.user_adj.for_each_while(u.index(), |v| {
            if item_alive.get(v as usize) {
                f(ItemId(v))
            } else {
                true
            }
        });
    }
    #[inline]
    fn for_each_item_neighbor_while(&self, v: ItemId, mut f: impl FnMut(UserId) -> bool) {
        let user_alive = &self.user_alive;
        self.graph.item_adj.for_each_while(v.index(), |u| {
            if user_alive.get(u as usize) {
                f(UserId(u))
            } else {
                true
            }
        });
    }
}

impl PruneView for CompactView<'_> {
    #[inline]
    fn alive_users(&self) -> usize {
        CompactView::alive_users(self)
    }
    #[inline]
    fn alive_items(&self) -> usize {
        CompactView::alive_items(self)
    }
    fn remove_user(&mut self, u: UserId) {
        CompactView::remove_user(self, u);
    }
    fn remove_item(&mut self, v: ItemId) {
        CompactView::remove_item(self, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn grid(users: u32, items: u32) -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        for u in 0..users {
            for v in 0..items {
                b.add_click(UserId(u), ItemId(v), 1);
            }
        }
        b.build()
    }

    #[test]
    fn bitmap_word_boundaries() {
        for n in [0usize, 1, 63, 64, 65, 127, 128, 129] {
            let mut bm = AliveBitmap::all_alive(n);
            assert_eq!(bm.alive(), n, "n={n}");
            assert_eq!(bm.iter_alive().count(), n, "n={n}");
            for i in 0..n {
                assert!(bm.get(i));
            }
            if n > 0 {
                assert!(bm.clear(n - 1));
                assert!(!bm.clear(n - 1), "clear is idempotent");
                assert!(!bm.get(n - 1));
                assert_eq!(bm.alive(), n - 1);
                assert_eq!(bm.iter_alive().count(), n - 1);
                assert!(bm.set(n - 1));
                assert!(!bm.set(n - 1), "set is idempotent");
                assert_eq!(bm.alive(), n);
            }
        }
    }

    #[test]
    fn bitmap_iter_skips_dead_words() {
        let mut bm = AliveBitmap::all_alive(200);
        for i in 0..200 {
            if !(64..128).contains(&i) {
                bm.clear(i);
            }
        }
        let alive: Vec<usize> = bm.iter_alive().collect();
        assert_eq!(alive, (64..128).collect::<Vec<_>>());
    }

    #[test]
    fn varint_round_trip() {
        let mut data = Vec::new();
        let values = [0u32, 1, 127, 128, 300, 16_383, 16_384, u32::MAX];
        for &v in &values {
            push_varint(&mut data, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&data, &mut pos), v);
        }
        assert_eq!(pos, data.len());
    }

    #[test]
    fn delta_adjacency_round_trips() {
        let lists: Vec<Vec<u32>> = vec![vec![0, 1, 5, 100], vec![], vec![7], vec![2, 3, 4]];
        let adj = DeltaAdjacency::from_lists(lists.iter().map(|l| l.as_slice()), 101).unwrap();
        assert_eq!(adj.vertices(), 4);
        let mut out = Vec::new();
        for (i, want) in lists.iter().enumerate() {
            assert_eq!(adj.degree(i) as usize, want.len());
            adj.decode_into(i, &mut out);
            assert_eq!(&out, want, "vertex {i}");
        }
    }

    #[test]
    fn construction_rejects_sorted_invariant_violations() {
        // Duplicates.
        let dup: Vec<Vec<u32>> = vec![vec![3, 3]];
        assert!(DeltaAdjacency::from_lists(dup.iter().map(|l| l.as_slice()), 10).is_err());
        // Out of order.
        let unsorted: Vec<Vec<u32>> = vec![vec![5, 2]];
        assert!(DeltaAdjacency::from_lists(unsorted.iter().map(|l| l.as_slice()), 10).is_err());
        // Out of range.
        let oor: Vec<Vec<u32>> = vec![vec![10]];
        assert!(DeltaAdjacency::from_lists(oor.iter().map(|l| l.as_slice()), 10).is_err());
    }

    #[test]
    fn compact_from_graph_matches_dense() {
        let g = grid(3, 4);
        let c = CompactBigraph::from_graph(&g);
        assert_eq!(c.num_users(), 3);
        assert_eq!(c.num_items(), 4);
        for u in g.users() {
            let mut got = Vec::new();
            c.for_each_user_neighbor(u, |v| got.push(v));
            assert_eq!(got, g.user_adjacency(u).to_vec());
        }
        for v in g.items() {
            let mut got = Vec::new();
            c.for_each_item_neighbor(v, |u| got.push(u));
            assert_eq!(got, g.item_adjacency(v).to_vec());
        }
        assert!(
            c.heap_bytes() < g.num_edges() * 16,
            "compact form must undercut the dense 2x(id+weight) layout"
        );
    }

    #[test]
    fn compact_subgraph_matches_induced_subgraph() {
        let mut b = GraphBuilder::new();
        for (u, v) in [(0, 0), (0, 5), (4, 0), (4, 9), (7, 9), (7, 3)] {
            b.add_click(UserId(u), ItemId(v), 2);
        }
        let g = b.build();
        let users = [UserId(0), UserId(4), UserId(7)];
        let items = [ItemId(0), ItemId(9)];
        let dense = crate::InducedSubgraph::extract(&g, users, items);
        let compact = CompactSubgraph::extract(&g, users, items);
        assert_eq!(compact.user_map, dense.user_map);
        assert_eq!(compact.item_map, dense.item_map);
        for lu in 0..dense.graph.num_users() as u32 {
            let mut got = Vec::new();
            compact
                .graph
                .for_each_user_neighbor(UserId(lu), |v| got.push(v));
            assert_eq!(got, dense.graph.user_adjacency(UserId(lu)).to_vec());
        }
        for lv in 0..dense.graph.num_items() as u32 {
            let mut got = Vec::new();
            compact
                .graph
                .for_each_item_neighbor(ItemId(lv), |u| got.push(u));
            assert_eq!(got, dense.graph.item_adjacency(ItemId(lv)).to_vec());
        }
        assert_eq!(compact.parent_user(UserId(0)), UserId(0));
        assert_eq!(compact.parent_item(ItemId(1)), ItemId(9));
    }

    #[test]
    fn compact_view_removals_mirror_graph_view() {
        let g = grid(5, 4);
        let c = CompactBigraph::from_graph(&g);
        let mut dense = crate::GraphView::full(&g);
        let mut view = CompactView::full(&c);
        assert_eq!(view.alive_users(), 5);

        for (ru, ri) in [(1u32, 0u32), (3, 2), (1, 0)] {
            dense.remove_user(UserId(ru));
            view.remove_user(UserId(ru));
            dense.remove_item(ItemId(ri));
            view.remove_item(ItemId(ri));
            assert_eq!(view.alive_users(), dense.alive_users());
            assert_eq!(view.alive_items(), dense.alive_items());
            for u in g.users() {
                assert_eq!(
                    NeighborView::user_degree(&view, u),
                    dense.user_degree(u),
                    "user {u} degree"
                );
                assert_eq!(NeighborView::user_alive(&view, u), dense.user_alive(u));
            }
            for v in g.items() {
                assert_eq!(NeighborView::item_degree(&view, v), dense.item_degree(v));
            }
            assert!(view.check_consistency());
        }
        assert_eq!(view.alive_sets(), dense.alive_sets());
    }

    #[test]
    fn neighbor_iteration_filters_dead_and_stays_sorted() {
        let g = grid(3, 5);
        let c = CompactBigraph::from_graph(&g);
        let mut view = CompactView::full(&c);
        view.remove_item(ItemId(2));
        let mut got = Vec::new();
        view.for_each_user_neighbor(UserId(0), |v| got.push(v));
        assert_eq!(got, vec![ItemId(0), ItemId(1), ItemId(3), ItemId(4)]);
        view.remove_user(UserId(1));
        let mut got = Vec::new();
        view.for_each_item_neighbor(ItemId(0), |u| got.push(u));
        assert_eq!(got, vec![UserId(0), UserId(2)]);
    }
}
