//! Two-hop neighborhoods and common-neighbor counting.
//!
//! `SquarePruning` (Algorithm 3, lines 11–27) asks, for each alive vertex,
//! how many *other* same-side vertices share at least `⌈k·α⌉` neighbors with
//! it. Computing `|adj(x) ∩ adj(y)|` for all pairs is `O(|U|²·deg)`; instead
//! we enumerate **wedges**: for user `u`, walk each alive item `v ∈ adj(u)`,
//! then each alive user `u' ∈ adj(v)`, accumulating a count per `u'`. The
//! cost is `Σ_{v ∈ adj(u)} deg(v)`, which is what the paper's `reduce2Hop`
//! candidate ordering (borrowed from [Lyu et al., VLDB'20]) optimizes.
//!
//! Every counter and kernel here is written once, for an anchor on the
//! **user** side of the view it is handed. The item side is the same call
//! on [`Transposed`]`(&view)` with `UserId(v.0)` as the anchor (and, for the
//! blocked kernel, the registry's other half).

use crate::ids::{ItemId, UserId};
use crate::view::{GraphView, NeighborView, Transposed};

/// Sparse map from a same-side vertex to the number of common neighbors,
/// reusable across calls to avoid re-allocation.
///
/// Internally a dense `u32` scratch array plus a touched-list, which is the
/// standard trick for repeated sparse accumulation over a fixed id space.
#[derive(Clone, Debug)]
pub struct CommonNeighborScratch {
    counts: Vec<u32>,
    touched: Vec<u32>,
    /// `(degree, id)` sort buffer for the cheap-first wedge-source ordering,
    /// kept here so the qualified-neighbor tests allocate nothing per call.
    order: Vec<(u32, u32)>,
}

impl CommonNeighborScratch {
    /// Scratch sized for `n` same-side vertices.
    pub fn new(n: usize) -> Self {
        Self {
            counts: vec![0; n],
            touched: Vec::new(),
            order: Vec::new(),
        }
    }

    fn clear(&mut self) {
        for &t in &self.touched {
            self.counts[t as usize] = 0;
        }
        self.touched.clear();
    }
}

/// Counts, for user `u`, the common-neighbor size with every other alive user
/// reachable in two hops, invoking `f(other, count)` for each.
///
/// `u` itself is **excluded**; callers that want the paper's self-inclusive
/// `(α,k)`-neighbor semantics (Definition 4 quantifies over all `u' ∈ U(C)`,
/// which includes `u` with `|adj(u) ∩ adj(u)| = deg(u)`) add it back
/// explicitly.
pub fn for_each_common_neighbor<V: NeighborView, F: FnMut(UserId, u32)>(
    view: &V,
    u: UserId,
    scratch: &mut CommonNeighborScratch,
    mut f: F,
) {
    scratch.clear();
    view.for_each_user_neighbor(u, |v| {
        view.for_each_item_neighbor(v, |u2| {
            if u2 == u {
                return;
            }
            let idx = u2.index();
            if scratch.counts[idx] == 0 {
                scratch.touched.push(u2.0);
            }
            scratch.counts[idx] += 1;
        });
    });
    for &t in &scratch.touched {
        f(UserId(t), scratch.counts[t as usize]);
    }
}

/// Decides whether user `u` has at least `need` other alive users sharing
/// `≥ bound` common neighbors with it — the `SquarePruning` survival test —
/// **without** computing the full common-neighbor map.
///
/// Two properties make this much cheaper than [`for_each_common_neighbor`]
/// on dense survivors:
///
/// * **Early exit.** Partial common counts only grow as more of `u`'s
///   adjacency is scanned, so the moment `need` partners have crossed
///   `bound` the answer is `true` — no further wedges needed. The test is
///   exact: a `false` is only returned after the full scan.
/// * **Cheap-first ordering.** `u`'s alive items are scanned in ascending
///   alive-degree order, so the handful of ultra-popular items (the most
///   expensive wedge sources) are visited last and usually skipped
///   entirely once dense-structure partners qualify.
///
/// Callers wanting the paper's self-inclusive Definition 4 count adjust
/// `need` for `u` itself (`|adj(u) ∩ adj(u)| = deg(u)`) before calling.
pub fn has_qualified_neighbors<V: NeighborView>(
    view: &V,
    u: UserId,
    bound: u32,
    need: usize,
    scratch: &mut CommonNeighborScratch,
) -> bool {
    if need == 0 {
        return true;
    }
    if bound == 0 {
        // Every alive co-clicker qualifies trivially; fall back to a plain
        // distinct-partner count with early exit.
        let mut n = 0;
        let mut done = false;
        scratch.clear();
        view.for_each_user_neighbor_while(u, |v| {
            view.for_each_item_neighbor_while(v, |u2| {
                if u2 == u {
                    return true;
                }
                let idx = u2.index();
                if scratch.counts[idx] == 0 {
                    scratch.touched.push(u2.0);
                    scratch.counts[idx] = 1;
                    n += 1;
                    if n >= need {
                        done = true;
                        return false;
                    }
                }
                true
            });
            !done
        });
        return done;
    }
    scratch.clear();
    let mut items = std::mem::take(&mut scratch.order);
    items.clear();
    view.for_each_user_neighbor(u, |v| items.push((view.item_degree(v) as u32, v.0)));
    items.sort_unstable();
    let mut qualified = 0usize;
    let mut done = false;
    for &(_, v) in &items {
        let v = ItemId(v);
        view.for_each_item_neighbor_while(v, |u2| {
            if u2 == u {
                return true;
            }
            let idx = u2.index();
            if scratch.counts[idx] == 0 {
                scratch.touched.push(u2.0);
            }
            scratch.counts[idx] += 1;
            if scratch.counts[idx] == bound {
                qualified += 1;
                if qualified >= need {
                    done = true;
                    return false;
                }
            }
            true
        });
        if done {
            break;
        }
    }
    scratch.order = items;
    done
}

/// Number of distinct users reachable from `u` in two hops (its two-hop
/// neighborhood size), used for the `reduce2Hop` candidate ordering.
pub fn two_hop_size<V: NeighborView>(
    view: &V,
    u: UserId,
    scratch: &mut CommonNeighborScratch,
) -> usize {
    let mut n = 0;
    for_each_common_neighbor(view, u, scratch, |_, _| n += 1);
    n
}

/// Exact `|adj(u1) ∩ adj(u2)|` over alive items, by sorted-merge on the
/// static adjacency (cheap for spot checks and property tests).
pub fn user_common_neighbors(view: &GraphView<'_>, u1: UserId, u2: UserId) -> u32 {
    let g = view.graph();
    let (a, b) = (g.user_adjacency(u1), g.user_adjacency(u2));
    sorted_intersection_count(a, b, |v| view.item_alive(*v))
}

/// Exact `|adj(v1) ∩ adj(v2)|` over alive users.
pub fn item_common_neighbors(view: &GraphView<'_>, v1: ItemId, v2: ItemId) -> u32 {
    let g = view.graph();
    let (a, b) = (g.item_adjacency(v1), g.item_adjacency(v2));
    sorted_intersection_count(a, b, |u| view.user_alive(*u))
}

fn sorted_intersection_count<T: Ord + Copy, F: Fn(&T) -> bool>(a: &[T], b: &[T], alive: F) -> u32 {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                if alive(&a[i]) {
                    n += 1;
                }
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Marks an out-of-registry entry in a hub slot map.
const NO_HUB: u32 = u32::MAX;

/// Candidate-bitmap words are swept in chunks of this many `u64`s (4 KiB)
/// during the blocked kernel's closed phase, so one chunk of the candidate
/// set and the matching chunk of a hub bitmap fit in L1 together.
const HUB_BLOCK_WORDS: usize = 512;

/// Dense alive-adjacency bitmaps for the highest-degree vertices of a view
/// — the *hubs* whose full wedge walks dominate SquarePruning cost.
///
/// For each of the top-K alive items (by current alive degree, above a
/// floor), [`HubBitmaps::items`] materializes its alive user set as a `u64`
/// bitmap over the user id space, with the popcount cached at build time;
/// [`HubBitmaps::users`] is the same registry built on the [`Transposed`]
/// view — the top users over the item space. The blocked survival kernel
/// then replaces "walk the hub's whole adjacency list" with "AND the
/// candidate bitmap against the hub bitmap", which skips 64 non-candidates
/// per instruction.
///
/// # Staleness contract
///
/// Bitmaps snapshot the alive sets **at build time**. They stay *exact* for
/// the whole monotone pruning fixpoint that follows: the kernel only reads
/// `candidates ∧ hub`, candidates are discovered through currently-alive
/// walks, and current-alive ⊆ build-alive under removals, so the AND equals
/// the current alive intersection bit for bit. The registry therefore only
/// needs rebuilding when the id space itself changes — a compaction epoch —
/// not on every removal.
#[derive(Clone, Debug, Default)]
pub struct HubBitmaps {
    /// Item hubs over the user space: what a user anchor's kernel reads.
    pub items: HubSide,
    /// User hubs over the item space, as the item hubs of the transposed
    /// view: what an item anchor's kernel reads.
    pub users: HubSide,
}

/// One half of a [`HubBitmaps`] registry: the hub **items** of the view it
/// was built from, as bitmaps over that view's user id space.
#[derive(Clone, Debug, Default)]
pub struct HubSide {
    /// `item.index()` → slot in `bits`, or [`NO_HUB`].
    slot: Vec<u32>,
    /// `stride` words per hub.
    bits: Vec<u64>,
    pop: Vec<u32>,
    stride: usize,
}

impl HubBitmaps {
    /// A registry with no hubs at all: every lookup misses, so the blocked
    /// kernel degrades to pure candidate-membership streaming.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds both sides from the view's current alive state: alive
    /// vertices with alive degree ≥ `min_degree`, highest degree first,
    /// at most `max_hubs` per side.
    pub fn build<V: NeighborView>(view: &V, min_degree: u32, max_hubs: usize) -> Self {
        Self {
            items: HubSide::build(view, min_degree, max_hubs),
            users: HubSide::build(&Transposed(view), min_degree, max_hubs),
        }
    }

    /// Bytes of live payload (lengths, not capacities, so the figure is
    /// deterministic for a given view — it feeds a metrics gauge).
    pub fn heap_bytes(&self) -> usize {
        self.items.heap_bytes() + self.users.heap_bytes()
    }
}

impl HubSide {
    fn build<V: NeighborView>(view: &V, min_degree: u32, max_hubs: usize) -> Self {
        let ni = view.num_items();
        let stride = view.num_users().div_ceil(64);
        let mut hot: Vec<(u32, u32)> = (0..ni as u32)
            .filter(|&v| view.item_alive(ItemId(v)))
            .map(|v| (view.item_degree(ItemId(v)) as u32, v))
            .filter(|&(d, _)| d >= min_degree.max(1))
            .collect();
        hot.sort_unstable_by(|a, b| b.cmp(a));
        hot.truncate(max_hubs);
        let mut slot = vec![NO_HUB; ni];
        let mut bits = vec![0u64; hot.len() * stride];
        let mut pop = vec![0u32; hot.len()];
        for (s, &(_, v)) in hot.iter().enumerate() {
            slot[v as usize] = s as u32;
            let words = &mut bits[s * stride..(s + 1) * stride];
            view.for_each_item_neighbor(ItemId(v), |u| {
                words[u.index() / 64] |= 1u64 << (u.index() % 64);
            });
            pop[s] = words.iter().map(|w| w.count_ones()).sum();
        }
        Self {
            slot,
            bits,
            pop,
            stride,
        }
    }

    /// The bitmap of hub item `v` over the user space, if `v` is a hub.
    #[inline]
    pub fn words(&self, v: ItemId) -> Option<&[u64]> {
        let slot = *self.slot.get(v.index())?;
        if slot == NO_HUB {
            return None;
        }
        let start = slot as usize * self.stride;
        Some(&self.bits[start..start + self.stride])
    }

    /// Cached build-time popcount of hub item `v`'s bitmap.
    pub fn popcount(&self, v: ItemId) -> Option<u32> {
        let slot = *self.slot.get(v.index())?;
        (slot != NO_HUB).then(|| self.pop[slot as usize])
    }

    /// Number of hubs on this side.
    pub fn count(&self) -> usize {
        self.pop.len()
    }

    fn heap_bytes(&self) -> usize {
        (self.slot.len() + self.pop.len()) * std::mem::size_of::<u32>()
            + self.bits.len() * std::mem::size_of::<u64>()
    }
}

/// Unified per-worker scratch for both survival kernels: the wedge
/// counter's counts/touched arrays and the blocked kernel's candidate
/// bitmap — one lease covers either dispatch decision, and nothing is
/// allocated per call in steady state.
#[derive(Clone, Debug)]
pub struct KernelScratch {
    wedge: CommonNeighborScratch,
    /// Candidate bitmap over the same-side id space (blocked kernel).
    cand_words: Vec<u64>,
    /// Indices of nonzero `cand_words`, for sparse clearing and sweeping.
    cand_touched: Vec<u32>,
    /// `(degree, id)` wedge-source ordering buffer.
    order: Vec<(u32, u32)>,
}

impl KernelScratch {
    /// Scratch sized for `n` same-side vertices.
    pub fn new(n: usize) -> Self {
        Self {
            wedge: CommonNeighborScratch::new(n),
            cand_words: vec![0u64; n.div_ceil(64)],
            cand_touched: Vec::new(),
            order: Vec::new(),
        }
    }

    /// The wedge-counting kernel's view of this scratch.
    pub fn wedge_mut(&mut self) -> &mut CommonNeighborScratch {
        &mut self.wedge
    }
}

/// Cache-blocked SWAR variant of [`has_qualified_neighbors`]: same
/// contract, same answer, different cost shape on hub-heavy anchors.
/// `hubs` is the registry half whose hubs are `view`'s items:
/// [`HubBitmaps::items`] for a plain view, [`HubBitmaps::users`] for the
/// transposed one.
///
/// The wedge counter pays `Σ deg(v)` over **all** of the anchor's items —
/// including the ultra-popular ones, whose adjacency walks dominate when
/// the early exit does not fire (every vertex that is ultimately *removed*
/// pays the full scan). This kernel splits the cheap-first item ordering
/// `v₁ … v_m` into two phases around `open = m − bound + 1`:
///
/// * **Open phase** (`v₁ … v_open`): a normal wedge walk that admits new
///   candidates into a bitmap + counts array. Any user sharing ≥ `bound`
///   items with the anchor occupies ≥ `bound` positions of the ordering,
///   so its *earliest* shared position is ≤ `m − bound` — every candidate
///   that can ever qualify is admitted here. (The argument holds for any
///   ordering, which is also why the phase split cannot change the
///   answer: the qualified set this kernel computes is exactly the wedge
///   counter's.)
/// * **Closed phase** (the `bound − 1` highest-degree items, i.e. the
///   likely hubs): no new candidates can qualify, so instead of walking
///   the hub's full adjacency the kernel ANDs the candidate bitmap
///   against the hub's [`HubSide`] bitmap word by word, in
///   [`HUB_BLOCK_WORDS`]-sized blocks — a zero word skips 64
///   non-candidates at once, and only surviving bits touch the counts
///   array. Items without a registry entry fall back to streaming their
///   adjacency with O(1) candidate-membership tests.
///
/// Early exit fires the moment `need` candidates reach `bound`, in either
/// phase. `bound == 0` (distinct-partner counting) has no threshold to
/// phase on and delegates to the wedge walk unchanged.
// No `#[inline]` here or on the wedge kernel: forcing this body into both
// sides' pass loops measured +10 % on the 200k-user batch benchmark.
pub fn blocked_has_qualified_neighbors<V: NeighborView>(
    view: &V,
    hubs: &HubSide,
    u: UserId,
    bound: u32,
    need: usize,
    scratch: &mut KernelScratch,
) -> bool {
    if need == 0 {
        return true;
    }
    if bound == 0 {
        return has_qualified_neighbors(view, u, bound, need, &mut scratch.wedge);
    }
    let KernelScratch {
        wedge,
        cand_words,
        cand_touched,
        order,
        ..
    } = scratch;
    wedge.clear();
    for &w in cand_touched.iter() {
        cand_words[w as usize] = 0;
    }
    cand_touched.clear();
    order.clear();
    view.for_each_user_neighbor(u, |v| order.push((view.item_degree(v) as u32, v.0)));
    order.sort_unstable();
    let m = order.len();
    if (m as u32) < bound {
        return false;
    }
    let open = m - (bound as usize - 1);
    let mut qualified = 0usize;
    let mut done = false;
    for &(_, raw) in &order[..open] {
        let v = ItemId(raw);
        view.for_each_item_neighbor_while(v, |u2| {
            if u2 == u {
                return true;
            }
            let idx = u2.index();
            let (w, mask) = (idx / 64, 1u64 << (idx % 64));
            if cand_words[w] & mask == 0 {
                if cand_words[w] == 0 {
                    cand_touched.push(w as u32);
                }
                cand_words[w] |= mask;
                wedge.touched.push(u2.0);
            }
            wedge.counts[idx] += 1;
            if wedge.counts[idx] == bound {
                qualified += 1;
                if qualified >= need {
                    done = true;
                    return false;
                }
            }
            true
        });
        if done {
            return true;
        }
    }
    // Sweeping in ascending word order keeps both the candidate words and
    // the hub words streaming sequentially through each block.
    cand_touched.sort_unstable();
    for &(_, raw) in &order[open..] {
        let v = ItemId(raw);
        if let Some(hub) = hubs.words(v) {
            debug_assert_eq!(hub.len(), cand_words.len(), "hub/scratch space mismatch");
            'blocks: for block in cand_touched.chunks(HUB_BLOCK_WORDS) {
                for &w in block {
                    let wi = w as usize;
                    let mut and = cand_words[wi] & hub[wi];
                    while and != 0 {
                        let idx = wi * 64 + and.trailing_zeros() as usize;
                        and &= and - 1;
                        wedge.counts[idx] += 1;
                        if wedge.counts[idx] == bound {
                            qualified += 1;
                            if qualified >= need {
                                done = true;
                                break 'blocks;
                            }
                        }
                    }
                }
            }
        } else {
            // No bitmap for this item: stream its adjacency, but keep the
            // closed-phase advantage — non-candidates cost one bit test,
            // never a counts-array touch or a touched-list push. The anchor
            // itself is never a candidate, so no self check is needed.
            view.for_each_item_neighbor_while(v, |u2| {
                let idx = u2.index();
                if cand_words[idx / 64] & (1u64 << (idx % 64)) != 0 {
                    wedge.counts[idx] += 1;
                    if wedge.counts[idx] == bound {
                        qualified += 1;
                        if qualified >= need {
                            done = true;
                            return false;
                        }
                    }
                }
                true
            });
        }
        if done {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, GraphView};
    use std::collections::HashMap;

    fn sample() -> crate::BipartiteGraph {
        // u0: {i0,i1,i2} ; u1: {i0,i1} ; u2: {i2,i3} ; u3: {i3}
        let mut b = GraphBuilder::new();
        for (u, v) in [
            (0, 0),
            (0, 1),
            (0, 2),
            (1, 0),
            (1, 1),
            (2, 2),
            (2, 3),
            (3, 3),
        ] {
            b.add_click(UserId(u), ItemId(v), 1);
        }
        b.build()
    }

    fn counts_of<V: NeighborView>(view: &V, u: UserId) -> HashMap<UserId, u32> {
        let mut scratch = CommonNeighborScratch::new(view.num_users());
        let mut m = HashMap::new();
        for_each_common_neighbor(view, u, &mut scratch, |o, c| {
            m.insert(o, c);
        });
        m
    }

    #[test]
    fn wedge_counts_match_pairwise_intersection() {
        let g = sample();
        let view = GraphView::full(&g);
        let m = counts_of(&view, UserId(0));
        assert_eq!(m[&UserId(1)], 2);
        assert_eq!(m[&UserId(2)], 1);
        assert!(!m.contains_key(&UserId(3)));
        assert_eq!(user_common_neighbors(&view, UserId(0), UserId(1)), 2);
        assert_eq!(user_common_neighbors(&view, UserId(0), UserId(3)), 0);
    }

    #[test]
    fn dead_vertices_are_skipped() {
        let g = sample();
        let mut view = GraphView::full(&g);
        view.remove_item(ItemId(1));
        let m = counts_of(&view, UserId(0));
        assert_eq!(m[&UserId(1)], 1, "i1 removed, only i0 shared");
        assert_eq!(user_common_neighbors(&view, UserId(0), UserId(1)), 1);
    }

    #[test]
    fn removed_user_does_not_appear() {
        let g = sample();
        let mut view = GraphView::full(&g);
        view.remove_user(UserId(1));
        let m = counts_of(&view, UserId(0));
        assert!(!m.contains_key(&UserId(1)));
    }

    #[test]
    fn two_hop_sizes() {
        let g = sample();
        let view = GraphView::full(&g);
        let mut s = CommonNeighborScratch::new(g.num_users());
        assert_eq!(two_hop_size(&view, UserId(0), &mut s), 2);
        assert_eq!(two_hop_size(&view, UserId(3), &mut s), 1);
        let mut s = CommonNeighborScratch::new(g.num_items());
        // Item 0 reaches i1 (via u0, u1) and i2 (via u0).
        assert_eq!(two_hop_size(&Transposed(&view), UserId(0), &mut s), 2);
    }

    #[test]
    fn item_side_counts() {
        let g = sample();
        let view = GraphView::full(&g);
        // On the transposed view the "users" are the items.
        let m = counts_of(&Transposed(&view), UserId(0));
        assert_eq!(m[&UserId(1)], 2); // i0, i1 share users u0, u1
        assert_eq!(m[&UserId(2)], 1); // i0, i2 share user u0
        for (&other, &count) in &m {
            let oracle = item_common_neighbors(&view, ItemId(0), ItemId(other.0));
            assert_eq!(count, oracle);
        }
    }

    /// The early-exit test against the full wedge count, for every alive
    /// anchor on `view`'s user side.
    fn assert_qualified_matches_full_count<V: NeighborView>(view: &V) {
        let mut scratch = CommonNeighborScratch::new(view.num_users());
        for u in (0..view.num_users() as u32).map(UserId) {
            if !view.user_alive(u) {
                continue;
            }
            for bound in 0..4u32 {
                // bound 0 counts distinct partners.
                let mut full = 0usize;
                for_each_common_neighbor(view, u, &mut scratch, |_, c| {
                    if c >= bound {
                        full += 1;
                    }
                });
                for need in 0..6usize {
                    assert_eq!(
                        has_qualified_neighbors(view, u, bound, need, &mut scratch),
                        full >= need,
                        "u={u:?} bound={bound} need={need} full={full}"
                    );
                }
            }
        }
    }

    #[test]
    fn qualified_neighbor_test_matches_full_count() {
        // A denser mixed graph: a 4x3 block plus stragglers.
        let mut b = GraphBuilder::new();
        for u in 0..4u32 {
            for v in 0..3u32 {
                b.add_click(UserId(u), ItemId(v), 1);
            }
        }
        for (u, v) in [(0, 3), (1, 3), (4, 0), (4, 3), (5, 4)] {
            b.add_click(UserId(u), ItemId(v), 1);
        }
        let g = b.build();
        let mut view = GraphView::full(&g);
        view.remove_user(UserId(5));
        assert_qualified_matches_full_count(&view);
        assert_qualified_matches_full_count(&Transposed(&view));
    }

    #[test]
    fn qualified_test_leaves_scratch_reusable() {
        let g = sample();
        let view = GraphView::full(&g);
        let mut scratch = CommonNeighborScratch::new(g.num_users());
        assert!(has_qualified_neighbors(
            &view,
            UserId(0),
            2,
            1,
            &mut scratch
        ));
        // The early exit may leave counts dirty; the next full enumeration
        // with the SAME scratch must still be correct because it clears
        // first.
        let mut m = HashMap::new();
        for_each_common_neighbor(&view, UserId(0), &mut scratch, |o, c| {
            m.insert(o, c);
        });
        assert_eq!(m[&UserId(1)], 2);
        assert_eq!(m[&UserId(2)], 1);
    }

    #[test]
    fn hub_registry_selects_top_degree_vertices() {
        let mut b = GraphBuilder::new();
        // Item 0 is hot (8 users), item 1 mid (4), the rest degree 1–3.
        for u in 0..8u32 {
            b.add_click(UserId(u), ItemId(0), 1);
        }
        for u in 0..4u32 {
            b.add_click(UserId(u), ItemId(1), 1);
        }
        b.add_click(UserId(0), ItemId(2), 1);
        let g = b.build();
        let view = GraphView::full(&g);
        let hubs = HubBitmaps::build(&view, 4, 1);
        assert_eq!(hubs.items.count(), 1, "only the top-1 item kept");
        assert!(hubs.items.words(ItemId(0)).is_some());
        assert!(hubs.items.words(ItemId(1)).is_none());
        assert_eq!(hubs.items.popcount(ItemId(0)), Some(8));
        let words = hubs.items.words(ItemId(0)).unwrap();
        assert_eq!(words[0], 0xff, "users 0..8 set");
        assert!(hubs.heap_bytes() > 0);
        // Degree floor keeps sparse vertices out entirely.
        let none = HubBitmaps::build(&view, 100, 8);
        assert_eq!(none.items.count(), 0);
        assert_eq!(none.users.count(), 0);
        // The empty registry answers every lookup with a miss.
        assert!(HubBitmaps::empty().items.words(ItemId(0)).is_none());
    }

    #[test]
    fn user_hubs_are_the_item_hubs_of_the_transposed_view() {
        let mut b = GraphBuilder::new();
        // User 2 clicks items 0..5; users 0 and 1 click one item each.
        for v in 0..5u32 {
            b.add_click(UserId(2), ItemId(v), 1);
        }
        b.add_click(UserId(0), ItemId(0), 1);
        b.add_click(UserId(1), ItemId(6), 1);
        let g = b.build();
        let view = GraphView::full(&g);
        let hubs = HubBitmaps::build(&view, 3, 4);
        assert_eq!(hubs.users.count(), 1);
        assert_eq!(hubs.items.count(), 0);
        // Looked up by the hub's id on the transposed view's item side.
        let words = hubs.users.words(ItemId(2)).expect("user 2 is a hub");
        assert_eq!(words, &[0b1_1111], "items 0..5 over the 7-item space");
        assert_eq!(hubs.users.popcount(ItemId(2)), Some(5));
        assert!(hubs.users.words(ItemId(0)).is_none());
    }

    #[test]
    fn hub_bitmaps_snapshot_alive_state_at_build() {
        let mut b = GraphBuilder::new();
        for u in 0..8u32 {
            b.add_click(UserId(u), ItemId(0), 1);
        }
        let g = b.build();
        let mut view = GraphView::full(&g);
        view.remove_user(UserId(3));
        let hubs = HubBitmaps::build(&view, 1, 4);
        let words = hubs.items.words(ItemId(0)).unwrap();
        assert_eq!(words[0], 0xff & !(1 << 3), "dead user excluded at build");
        assert_eq!(hubs.items.popcount(ItemId(0)), Some(7));
    }

    /// Blocked ≡ wedge for every anchor on `view`'s user side, `hubs` being
    /// the registry half over that side.
    fn assert_blocked_matches_wedge<V: NeighborView>(view: &V, hubs: &HubSide, bounds: u32) {
        let mut wedge = CommonNeighborScratch::new(view.num_users());
        let mut ks = KernelScratch::new(view.num_users());
        for u in (0..view.num_users() as u32).map(UserId) {
            for bound in 0..bounds {
                for need in 0..bounds as usize + 1 {
                    assert_eq!(
                        blocked_has_qualified_neighbors(view, hubs, u, bound, need, &mut ks),
                        has_qualified_neighbors(view, u, bound, need, &mut wedge),
                        "u={u:?} bound={bound} need={need}"
                    );
                }
            }
        }
    }

    /// The blocked kernel must agree with the wedge kernel everywhere —
    /// with a populated registry, with an empty one (pure membership
    /// streaming), and after removals that leave the registry stale.
    #[test]
    fn blocked_qualified_matches_wedge_qualified() {
        let mut b = GraphBuilder::new();
        // Star hub item 0 + a dense 4x3 block + a degree-1 chain.
        for u in 0..8u32 {
            b.add_click(UserId(u), ItemId(0), 1);
        }
        for u in 0..4u32 {
            for v in 1..4u32 {
                b.add_click(UserId(u), ItemId(v), 1);
            }
        }
        b.add_click(UserId(8), ItemId(4), 1);
        b.add_click(UserId(9), ItemId(5), 1);
        let g = b.build();
        let mut view = GraphView::full(&g);
        view.remove_user(UserId(7));
        view.remove_item(ItemId(3));
        for registry in [
            HubBitmaps::build(&view, 1, 64),
            HubBitmaps::build(&view, 4, 2),
            HubBitmaps::empty(),
        ] {
            assert_blocked_matches_wedge(&view, &registry.items, 5);
            assert_blocked_matches_wedge(&Transposed(&view), &registry.users, 5);
        }
    }

    /// Stale-registry soundness: hubs built *before* removals must still
    /// answer exactly for the shrunken alive set (the monotone-fixpoint
    /// contract the prune loops rely on).
    #[test]
    fn blocked_kernel_exact_under_stale_hubs() {
        let mut b = GraphBuilder::new();
        for u in 0..10u32 {
            for v in 0..6u32 {
                b.add_click(UserId(u), ItemId(v), 1);
            }
        }
        let g = b.build();
        let mut view = GraphView::full(&g);
        let hubs = HubBitmaps::build(&view, 1, 64);
        // Kill users/items after the build; the registry is now stale.
        for u in [1u32, 4, 7] {
            view.remove_user(UserId(u));
        }
        view.remove_item(ItemId(2));
        assert_blocked_matches_wedge(&view, &hubs.items, 7);
        assert_blocked_matches_wedge(&Transposed(&view), &hubs.users, 7);
    }

    #[test]
    fn blocked_scratch_reuse_is_clean() {
        let g = sample();
        let view = GraphView::full(&g);
        let hubs = HubBitmaps::build(&view, 1, 8);
        let mut ks = KernelScratch::new(g.num_users());
        // Early-exit call leaves the candidate bitmap dirty; the next call
        // (different anchor, different outcome) must still be exact.
        let items = &hubs.items;
        assert!(blocked_has_qualified_neighbors(
            &view,
            items,
            UserId(0),
            2,
            1,
            &mut ks
        ));
        assert!(!blocked_has_qualified_neighbors(
            &view,
            items,
            UserId(3),
            1,
            2,
            &mut ks
        ));
        // And the embedded wedge scratch is still clean for enumeration.
        let mut m = HashMap::new();
        for_each_common_neighbor(&view, UserId(0), ks.wedge_mut(), |o, c| {
            m.insert(o, c);
        });
        assert_eq!(m[&UserId(1)], 2);
        assert_eq!(m[&UserId(2)], 1);
    }

    #[test]
    fn scratch_reuse_is_clean() {
        let g = sample();
        let view = GraphView::full(&g);
        let mut scratch = CommonNeighborScratch::new(g.num_users());
        // Run twice with the same scratch: second result must be identical.
        let mut first = vec![];
        for_each_common_neighbor(&view, UserId(0), &mut scratch, |o, c| first.push((o, c)));
        let mut second = vec![];
        for_each_common_neighbor(&view, UserId(0), &mut scratch, |o, c| second.push((o, c)));
        first.sort();
        second.sort();
        assert_eq!(first, second);
    }
}
