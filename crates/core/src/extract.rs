//! The (α, k₁, k₂)-extension biclique extraction algorithm (Algorithm 3).
//!
//! Two pruning rules, each a *necessary* condition for membership in an
//! (α, k₁, k₂)-extension biclique (Definitions 2–4):
//!
//! * **CorePruning** (Lemma 1): every member user needs live degree
//!   ≥ `⌈α·k₂⌉`, every member item ≥ `⌈α·k₁⌉`.
//! * **SquarePruning** (Lemma 2): every member user needs ≥ `k₁`
//!   (α, k₂)-neighbors — same-side vertices sharing ≥ `⌈k₂·α⌉` common
//!   neighbors — and every member item ≥ `k₂` (α, k₁)-neighbors.
//!
//! This module holds the **only** loop that alternates the two rules. It
//! is generic over the view ([`PruneView`]), so unsharded detection, every
//! shard-local prune and the sharded reconciliation are the same call on
//! different views ([`crate::shard_run`]); a hash shard additionally pins
//! its halo users and boundary items through [`Removable`] masks.
//!
//! Two execution strategies are provided:
//!
//! * [`SquareStrategy::Parallel`] (default) — bulk-synchronous rounds on the
//!   worker pool, the Grape formulation: all removal decisions in a round
//!   are taken against the same snapshot, then applied, then the next round
//!   runs; iterated to a fixpoint. This is how the paper's implementation
//!   runs on Grape's 16 workers.
//! * [`SquareStrategy::SequentialOrdered`] — the literal pseudocode: one
//!   vertex at a time, candidates visited in non-decreasing two-hop
//!   neighborhood size (the `reduce2Hop` ordering of [Lyu et al.,
//!   VLDB'20] the paper cites), removals taking effect immediately.
//!
//! # Delta-driven fixpoint
//!
//! Removal is monotone: degrees and common-neighbor counts only fall as
//! vertices disappear, so a vertex that passes a bound can newly fail it
//! only if something in its neighborhood was removed — one hop away for the
//! degree bound, two hops for the common-neighbor bound. The default
//! [`FixpointMode::Delta`] exploits this: after one full seeding round,
//! every later round checks only the dirty frontier derived from the log of
//! its own removals ([`ricd_graph::frontier`]), instead of re-scanning
//! every vertex every round. When most of the view has died and the view
//! can rebuild itself ([`PruneView::compact`]), the remaining work moves
//! onto a small remapped graph so even adjacency walks stop touching
//! corpses. [`FixpointMode::FullRescan`] preserves the pre-delta behavior
//! for differential testing.
//!
//! All paths converge to the same fixpoint (by monotonicity the fixpoint is
//! unique and independent of removal order), so mode and strategy only
//! affect intermediate work, never the surviving vertex set.

use crate::kernel::{self, KernelTally};
use crate::params::RicdParams;
use ricd_engine::WorkerPool;
use ricd_graph::frontier::{self, FrontierScratch};
use ricd_graph::twohop::{self, CommonNeighborScratch, HubBitmaps, KernelScratch};
use ricd_graph::{GraphView, InducedSubgraph, ItemId, PruneView, UserId};
use ricd_obs::MetricsRegistry;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// How SquarePruning visits candidates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SquareStrategy {
    /// Bulk-synchronous rounds on the worker pool (Grape formulation).
    #[default]
    Parallel,
    /// Literal sequential pseudocode with `reduce2Hop` candidate ordering.
    SequentialOrdered,
}

/// How rounds after the first select their candidates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum FixpointMode {
    /// One full seeding round, then dirty-frontier worklists derived from
    /// the removal log, with view compaction when most vertices have died.
    #[default]
    Delta,
    /// Re-scan every vertex every round (the pre-delta behavior), kept for
    /// differential testing and ablation.
    FullRescan,
}

/// Counters describing one extraction run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExtractionStats {
    /// Alternation rounds until the fixpoint (summed over every fixpoint a
    /// sharded run executes).
    pub rounds: usize,
    /// Users removed by CorePruning.
    pub core_removed_users: usize,
    /// Items removed by CorePruning.
    pub core_removed_items: usize,
    /// Users removed by SquarePruning.
    pub square_removed_users: usize,
    /// Items removed by SquarePruning.
    pub square_removed_items: usize,
    /// Total size of the SquarePruning user worklists in delta rounds.
    pub dirty_users: usize,
    /// Total size of the SquarePruning item worklists in delta rounds.
    pub dirty_items: usize,
    /// Alive users *not* re-checked by SquarePruning in delta rounds — the
    /// work a full rescan would have done for nothing.
    pub skipped_users: usize,
    /// Alive items not re-checked by SquarePruning in delta rounds.
    pub skipped_items: usize,
    /// Times the view was compacted onto a remapped subgraph mid-fixpoint.
    pub compactions: usize,
    /// Survival queries answered by the wedge-counting kernel.
    pub kernel_wedge: u64,
    /// Survival queries answered by the blocked SWAR kernel.
    pub kernel_blocked: u64,
    /// Always 0: the sorted-intersection kernel is gone; the field stays
    /// because the frozen benchmark adapter names it.
    pub kernel_sorted: u64,
    /// Largest hub-bitmap registry materialized during the run, in bytes
    /// (exported as the `twohop.hub_bitmap_bytes` gauge).
    pub hub_bitmap_bytes: usize,
}

impl ExtractionStats {
    fn absorb_kernels(&mut self, tally: KernelTally) {
        self.kernel_wedge += tally.wedge;
        self.kernel_blocked += tally.blocked;
    }

    /// Folds another fixpoint's counters into this run's.
    pub(crate) fn absorb(&mut self, other: &ExtractionStats) {
        self.rounds += other.rounds;
        self.core_removed_users += other.core_removed_users;
        self.core_removed_items += other.core_removed_items;
        self.square_removed_users += other.square_removed_users;
        self.square_removed_items += other.square_removed_items;
        self.dirty_users += other.dirty_users;
        self.dirty_items += other.dirty_items;
        self.skipped_users += other.skipped_users;
        self.skipped_items += other.skipped_items;
        self.compactions += other.compactions;
        self.kernel_wedge += other.kernel_wedge;
        self.kernel_blocked += other.kernel_blocked;
        // Max, not sum: registries are per-fixpoint and freed when it ends,
        // so the gauge reports peak working-set bytes.
        self.hub_bitmap_bytes = self.hub_bitmap_bytes.max(other.hub_bitmap_bytes);
    }
}

/// Which vertices a fixpoint may remove, one optional mask per side indexed
/// by vertex id; `None` means every vertex on that side.
///
/// A hash shard pins its halo users and boundary items this way: their
/// local counts are not exact, so only the masked-in vertices (whose counts
/// are) may be removed, which keeps every shard-local removal globally
/// sound. Pinned vertices still count as alive neighbors.
#[derive(Clone, Copy, Debug, Default)]
pub struct Removable<'a> {
    /// `users[u]` is true when user `u` may be removed.
    pub users: Option<&'a [bool]>,
    /// `items[v]` is true when item `v` may be removed.
    pub items: Option<&'a [bool]>,
}

impl Removable<'_> {
    #[inline]
    fn user(&self, u: UserId) -> bool {
        self.users.is_none_or(|m| m[u.index()])
    }

    #[inline]
    fn item(&self, v: ItemId) -> bool {
        self.items.is_none_or(|m| m[v.index()])
    }
}

/// Compact the view once fewer than 1 in `COMPACT_ALIVE_DIVISOR` vertices
/// are still alive…
const COMPACT_ALIVE_DIVISOR: usize = 4;
/// …but only when the graph is big enough for rebuild cost to be noise.
const COMPACT_MIN_VERTICES: usize = 1024;

/// Runs Algorithm 3 in place on `view`, leaving only vertices that can
/// belong to an (α, k₁, k₂)-extension biclique.
pub fn extract<V: PruneView + Sync>(
    view: &mut V,
    params: &RicdParams,
    pool: &WorkerPool,
    strategy: SquareStrategy,
) -> ExtractionStats {
    extract_with(view, params, pool, strategy, FixpointMode::default(), None)
}

/// [`extract`] with explicit fixpoint mode and optional metrics.
///
/// With a registry attached, per-round wall time is recorded under
/// `extract.round_nanos`; the dirty/skipped/compaction counters are in the
/// returned [`ExtractionStats`] for the caller to export.
pub fn extract_with<V: PruneView + Sync>(
    view: &mut V,
    params: &RicdParams,
    pool: &WorkerPool,
    strategy: SquareStrategy,
    mode: FixpointMode,
    metrics: Option<&MetricsRegistry>,
) -> ExtractionStats {
    let all = Removable::default();
    extract_masked(view, all, params, pool, strategy, mode, metrics)
}

/// [`extract_with`] restricted to the `removable` vertices: the fixpoint of
/// the two rules over those, with everything else pinned alive.
pub fn extract_masked<V: PruneView + Sync>(
    view: &mut V,
    removable: Removable<'_>,
    params: &RicdParams,
    pool: &WorkerPool,
    strategy: SquareStrategy,
    mode: FixpointMode,
    metrics: Option<&MetricsRegistry>,
) -> ExtractionStats {
    let ctx = FixpointCtx {
        params,
        pool,
        strategy,
        mode,
        metrics,
        removable,
    };
    let mut stats = ExtractionStats::default();
    run_fixpoint(view, &ctx, None, 1, &mut stats);
    stats
}

/// CorePruning alone, to its own fixpoint, over every alive vertex: the
/// sharded runtime's pre-filter. Returns `(removed users, removed items)`.
pub(crate) fn core_prune<V: PruneView + Sync>(
    view: &mut V,
    params: &RicdParams,
    pool: &WorkerPool,
) -> (usize, usize) {
    let ctx = FixpointCtx {
        params,
        pool,
        strategy: SquareStrategy::default(),
        mode: FixpointMode::default(),
        metrics: None,
        removable: Removable::default(),
    };
    let mut fscratch = FrontierScratch::for_view(view);
    let (users, items) = (alive_user_ids(view), alive_item_ids(view));
    core_pruning(&mut Pruned::new(view), &ctx, users, items, &mut fscratch)
}

/// Immutable per-run configuration threaded through the fixpoint.
#[derive(Clone, Copy)]
struct FixpointCtx<'a> {
    params: &'a RicdParams,
    pool: &'a WorkerPool,
    strategy: SquareStrategy,
    mode: FixpointMode,
    metrics: Option<&'a MetricsRegistry>,
    removable: Removable<'a>,
}

/// The view being pruned plus the log of what this fixpoint level removed
/// from it, in removal order. Every removal the fixpoint makes goes through
/// here, so "what disappeared since pass X last ran?" is a suffix of the
/// log and each pass derives its next dirty frontier from it.
struct Pruned<'v, V> {
    view: &'v mut V,
    users: Vec<UserId>,
    items: Vec<ItemId>,
}

/// A position in a [`Pruned`] log: `(users logged, items logged)`.
type LogMark = (usize, usize);

impl<'v, V: PruneView> Pruned<'v, V> {
    fn new(view: &'v mut V) -> Self {
        Self {
            view,
            users: Vec::new(),
            items: Vec::new(),
        }
    }

    /// Removes an **alive** user (callers check), logging it once.
    fn remove_user(&mut self, u: UserId) {
        self.view.remove_user(u);
        self.users.push(u);
    }

    /// Removes an **alive** item (callers check), logging it once.
    fn remove_item(&mut self, v: ItemId) {
        self.view.remove_item(v);
        self.items.push(v);
    }

    fn mark(&self) -> LogMark {
        (self.users.len(), self.items.len())
    }

    fn since(&self, mark: LogMark) -> (&[UserId], &[ItemId]) {
        (&self.users[mark.0..], &self.items[mark.1..])
    }
}

/// Pending worklists handed across a compaction boundary (already in the
/// compacted graph's local id space), so the first post-compaction round
/// stays worklist-only instead of paying a fresh full seeding pass.
struct Carryover {
    core_users: Vec<u32>,
    core_items: Vec<u32>,
    square_users: Vec<u32>,
    square_items: Vec<u32>,
    /// The compaction interrupted a round whose SquarePruning passes were
    /// going to re-check everything (the seeding round, mid-round, right
    /// after CorePruning): run them full on the compacted graph instead of
    /// carrying an "everything is dirty" worklist.
    square_full: bool,
}

/// The alternating pruning loop on one view. Recurses (at most once per
/// level) into a compacted copy when the alive fraction collapses.
fn run_fixpoint<V: PruneView + Sync>(
    view: &mut V,
    ctx: &FixpointCtx<'_>,
    carryover: Option<Carryover>,
    start_round: usize,
    stats: &mut ExtractionStats,
) {
    let user_scratch = ScratchPool::new(view.num_users());
    let item_scratch = ScratchPool::new(view.num_items());
    let mut fscratch = FrontierScratch::for_view(view);
    let mut pv = Pruned::new(view);
    // Hub bitmaps are built at most once per fixpoint level — lazily,
    // after the first CorePruning fixpoint has collapsed the degree
    // distribution — and stay sound for every later round (monotone
    // removals; see `HubBitmaps`' staleness contract). A compaction starts
    // a new level with fresh ids, so the recursion rebuilds there.
    let mut hubs: Option<HubBitmaps> = None;
    let round_hist = ctx
        .metrics
        .map(|m| m.duration_histogram("extract.round_nanos"));
    // Per-pass log positions: each pass's next frontier is derived from
    // everything removed since it last ran (for CorePruning: since it last
    // *finished*, because it runs to its own fixpoint).
    let mut core_mark = pv.mark();
    let mut sq_user_mark = pv.mark();
    let mut sq_item_mark = pv.mark();
    let mut carry = carryover;

    for round in start_round..=ctx.params.max_rounds {
        stats.rounds = round;
        let round_started = ctx.metrics.map(|m| m.clock().now());
        // A full round re-checks every alive vertex: always in FullRescan
        // mode, and as the seeding round of a delta level that has no
        // carryover (the top level's first round).
        let full = matches!(ctx.mode, FixpointMode::FullRescan)
            || (round == start_round && carry.is_none());
        let carry_now = carry.take();

        // --- CorePruning, to its own fixpoint ---
        let (mut seed_users, mut seed_items) = if full {
            (alive_user_ids(pv.view), alive_item_ids(pv.view))
        } else {
            let (ru, ri) = pv.since(core_mark);
            (
                frontier::core_dirty_users(pv.view, ri, &mut fscratch),
                frontier::core_dirty_items(pv.view, ru, &mut fscratch),
            )
        };
        if let Some(c) = &carry_now {
            merge_sorted(&mut seed_users, &c.core_users);
            merge_sorted(&mut seed_items, &c.core_items);
        }
        let core = core_pruning(&mut pv, ctx, seed_users, seed_items, &mut fscratch);
        core_mark = pv.mark();
        stats.core_removed_users += core.0;
        stats.core_removed_items += core.1;

        // Whether this round's square passes re-check everything: a genuinely
        // full round, or the resumption of one interrupted by a mid-round
        // compaction below.
        let square_full = full || carry_now.as_ref().is_some_and(|c| c.square_full);

        // Compact *before* the wedge walks when CorePruning just gutted the
        // view. This matters most on the seeding round: CorePruning alone
        // can kill the vast majority of vertices, and every SquarePruning
        // wedge walk on the original CSR still pays to skip the dead
        // adjacency entries. The square passes resume on the dense copy.
        if matches!(ctx.mode, FixpointMode::Delta) && should_compact(pv.view) {
            if let Some(sub) = pv.view.compact() {
                let marks = [core_mark, sq_user_mark, sq_item_mark];
                let carry = carry_into(&sub, &pv, marks, square_full, &mut fscratch);
                resume_compacted(pv.view, &sub, ctx, carry, round, stats);
                return;
            }
        }

        // --- SquarePruning, one user pass + one item pass ---
        // Both modes keep the pseudocode's user-then-item order; the fixpoint
        // is order-independent (monotonicity), so delta rounds only change
        // *which* vertices are checked, never the outcome.
        let (carry_sq_users, carry_sq_items) = match &carry_now {
            Some(c) if !c.square_full => (
                Some(c.square_users.as_slice()),
                Some(c.square_items.as_slice()),
            ),
            _ => (None, None),
        };
        if matches!(ctx.strategy, SquareStrategy::Parallel) && hubs.is_none() {
            let h = kernel::build_hubs(pv.view);
            stats.hub_bitmap_bytes = stats.hub_bitmap_bytes.max(h.heap_bytes());
            hubs = Some(h);
        }
        let sq_users = square_user_round(
            &mut pv,
            ctx,
            square_full,
            &mut sq_user_mark,
            carry_sq_users,
            &mut fscratch,
            &user_scratch,
            hubs.as_ref(),
            stats,
        );
        let sq_items = square_item_round(
            &mut pv,
            ctx,
            square_full,
            &mut sq_item_mark,
            carry_sq_items,
            &mut fscratch,
            &item_scratch,
            hubs.as_ref(),
            stats,
        );
        stats.square_removed_users += sq_users;
        stats.square_removed_items += sq_items;

        if let (Some(h), Some(t0)) = (&round_hist, round_started) {
            let clock = ctx.metrics.unwrap().clock();
            h.observe_duration(clock.now().saturating_sub(t0));
        }

        if sq_users == 0 && sq_items == 0 {
            // CorePruning is already at its own fixpoint when its pass
            // returns; no square removals on top means no frontier is left
            // anywhere (monotonicity), so the global fixpoint is reached.
            break;
        }
    }
}

/// True once the view is mostly corpses and big enough that rebuilding a
/// dense subgraph is cheaper than dragging dead adjacency entries through
/// every remaining pass.
fn should_compact<V: PruneView>(view: &V) -> bool {
    let total = view.num_users() + view.num_items();
    let alive = view.alive_users() + view.alive_items();
    alive > 0 && total >= COMPACT_MIN_VERTICES && alive * COMPACT_ALIVE_DIVISOR < total
}

/// The pending frontiers of the three passes (`marks`: core, square-user,
/// square-item), derived in the parent id space and translated into
/// `sub`'s. `user_map`/`item_map` are sorted, so translation preserves
/// worklist order; vertices the maps don't contain are dead and need no
/// check. When the interrupted round's square passes were full anyway,
/// there is no point materialising an "everything alive" frontier — the
/// flag makes the resumed round re-check the whole (now dense) view.
fn carry_into<V: PruneView>(
    sub: &InducedSubgraph,
    pv: &Pruned<'_, V>,
    marks: [LogMark; 3],
    square_full: bool,
    fscratch: &mut FrontierScratch,
) -> Carryover {
    let [core_mark, sq_user_mark, sq_item_mark] = marks;
    let view: &V = pv.view;
    let local_users = |parents: Vec<u32>| -> Vec<u32> {
        let local = |&u| sub.local_user(UserId(u)).map(|l| l.0);
        parents.iter().filter_map(local).collect()
    };
    let local_items = |parents: Vec<u32>| -> Vec<u32> {
        let local = |&v| sub.local_item(ItemId(v)).map(|l| l.0);
        parents.iter().filter_map(local).collect()
    };
    let (ru, ri) = pv.since(core_mark);
    let core_users = local_users(frontier::core_dirty_users(view, ri, fscratch));
    let core_items = local_items(frontier::core_dirty_items(view, ru, fscratch));
    let (square_users, square_items) = if square_full {
        (Vec::new(), Vec::new())
    } else {
        let (ru, ri) = pv.since(sq_user_mark);
        let su = frontier::square_dirty_users(view, ru, ri, fscratch);
        let (ru, ri) = pv.since(sq_item_mark);
        let si = frontier::square_dirty_items(view, ru, ri, fscratch);
        (local_users(su), local_items(si))
    };
    Carryover {
        core_users,
        core_items,
        square_users,
        square_items,
        square_full,
    }
}

/// Continues the fixpoint on the dense copy `sub` of `view`'s alive region
/// (masks translated in through the id maps) and applies the deaths back.
fn resume_compacted<V: PruneView>(
    view: &mut V,
    sub: &InducedSubgraph,
    ctx: &FixpointCtx<'_>,
    carry: Carryover,
    round: usize,
    stats: &mut ExtractionStats,
) {
    stats.compactions += 1;
    let removable = ctx.removable;
    let user_mask: Option<Vec<bool>> = removable
        .users
        .map(|m| sub.user_map.iter().map(|p| m[p.index()]).collect());
    let item_mask: Option<Vec<bool>> = removable
        .items
        .map(|m| sub.item_map.iter().map(|p| m[p.index()]).collect());
    let local_ctx = FixpointCtx {
        removable: Removable {
            users: user_mask.as_deref(),
            items: item_mask.as_deref(),
        },
        ..*ctx
    };
    let mut local = GraphView::full(&sub.graph);
    run_fixpoint(&mut local, &local_ctx, Some(carry), round, stats);
    for (li, &parent) in sub.user_map.iter().enumerate() {
        if !local.user_alive(UserId(li as u32)) {
            view.remove_user(parent);
        }
    }
    for (li, &parent) in sub.item_map.iter().enumerate() {
        if !local.item_alive(ItemId(li as u32)) {
            view.remove_item(parent);
        }
    }
}

fn alive_user_ids<V: PruneView>(view: &V) -> Vec<u32> {
    let alive = |u: &u32| view.user_alive(UserId(*u));
    (0..view.num_users() as u32).filter(alive).collect()
}

fn alive_item_ids<V: PruneView>(view: &V) -> Vec<u32> {
    let alive = |v: &u32| view.item_alive(ItemId(*v));
    (0..view.num_items() as u32).filter(alive).collect()
}

/// Merges sorted, deduplicated id lists, keeping the invariant.
fn merge_sorted(into: &mut Vec<u32>, other: &[u32]) {
    if other.is_empty() {
        return;
    }
    into.extend_from_slice(other);
    into.sort_unstable();
    into.dedup();
}

/// Lemma 1 pruning over worklists, iterated to its own fixpoint.
///
/// Seeded with the given candidate lists; every removal enqueues its
/// one-hop neighborhood on the opposite side (the only vertices whose live
/// degree changed). With full alive seeds this visits exactly what a
/// whole-range scan would visit, minus the vertices that never got dirty.
fn core_pruning<V: PruneView + Sync>(
    pv: &mut Pruned<'_, V>,
    ctx: &FixpointCtx<'_>,
    mut users: Vec<u32>,
    mut items: Vec<u32>,
    fscratch: &mut FrontierScratch,
) -> (usize, usize) {
    let user_bound = ctx.params.user_degree_bound();
    let item_bound = ctx.params.item_degree_bound();
    let removable = ctx.removable;
    let (mut removed_users, mut removed_items) = (0, 0);
    loop {
        let doomed_users: Vec<UserId> = {
            let view: &V = pv.view;
            let doomed = |u: &UserId| {
                view.user_alive(*u) && removable.user(*u) && view.user_degree(*u) < user_bound
            };
            ctx.pool
                .run_worklist(
                    &users,
                    || (),
                    |_, chunk| {
                        let ids = chunk.iter().copied().map(UserId);
                        ids.filter(doomed).collect::<Vec<UserId>>()
                    },
                )
                .into_iter()
                .flatten()
                .collect()
        };
        for &u in &doomed_users {
            pv.remove_user(u);
        }
        merge_sorted(
            &mut items,
            &frontier::core_dirty_items(pv.view, &doomed_users, fscratch),
        );

        let doomed_items: Vec<ItemId> = {
            let view: &V = pv.view;
            let doomed = |v: &ItemId| {
                view.item_alive(*v) && removable.item(*v) && view.item_degree(*v) < item_bound
            };
            ctx.pool
                .run_worklist(
                    &items,
                    || (),
                    |_, chunk| {
                        let ids = chunk.iter().copied().map(ItemId);
                        ids.filter(doomed).collect::<Vec<ItemId>>()
                    },
                )
                .into_iter()
                .flatten()
                .collect()
        };
        for &v in &doomed_items {
            pv.remove_item(v);
        }
        removed_users += doomed_users.len();
        removed_items += doomed_items.len();
        if doomed_users.is_empty() && doomed_items.is_empty() {
            return (removed_users, removed_items);
        }
        users = frontier::core_dirty_users(pv.view, &doomed_items, fscratch);
        items.clear();
    }
}

/// Counts `u`'s (α, k₂)-neighbors among alive users, including `u` itself
/// when its own degree meets the bound (Definition 4 quantifies over all of
/// `U(C)`, so a perfect k₁×k₂ biclique member counts itself — excluding self
/// with the same `< k₁` test would wrongly prune exact bicliques).
fn user_neighbor_count<V: PruneView>(
    view: &V,
    u: UserId,
    bound: u32,
    scratch: &mut CommonNeighborScratch,
) -> usize {
    let mut num = usize::from(view.user_degree(u) as u32 >= bound);
    twohop::for_each_user_common_neighbor(view, u, scratch, |_, c| {
        if c >= bound {
            num += 1;
        }
    });
    num
}

/// Item-side analogue of [`user_neighbor_count`].
fn item_neighbor_count<V: PruneView>(
    view: &V,
    v: ItemId,
    bound: u32,
    scratch: &mut CommonNeighborScratch,
) -> usize {
    let mut num = usize::from(view.item_degree(v) as u32 >= bound);
    twohop::for_each_item_common_neighbor(view, v, scratch, |_, c| {
        if c >= bound {
            num += 1;
        }
    });
    num
}

/// One SquarePruning user pass: derive the worklist (full or dirty), record
/// delta stats, advance the pass mark, check and remove.
#[allow(clippy::too_many_arguments)]
fn square_user_round<V: PruneView + Sync>(
    pv: &mut Pruned<'_, V>,
    ctx: &FixpointCtx<'_>,
    full: bool,
    mark: &mut LogMark,
    carry: Option<&[u32]>,
    fscratch: &mut FrontierScratch,
    scratch_pool: &ScratchPool,
    hubs: Option<&HubBitmaps>,
    stats: &mut ExtractionStats,
) -> usize {
    let worklist: Vec<u32> = if full {
        alive_user_ids(pv.view)
    } else {
        let mut wl = {
            let (ru, ri) = pv.since(*mark);
            frontier::square_dirty_users(pv.view, ru, ri, fscratch)
        };
        if let Some(c) = carry {
            merge_sorted(&mut wl, c);
        }
        stats.dirty_users += wl.len();
        stats.skipped_users += pv.view.alive_users().saturating_sub(wl.len());
        wl
    };
    // Mark *before* the pass: its own removals (applied below) belong to the
    // next frontier.
    *mark = pv.mark();
    square_user_pass(pv, ctx, &worklist, scratch_pool, hubs, stats)
}

/// Item-side analogue of [`square_user_round`].
#[allow(clippy::too_many_arguments)]
fn square_item_round<V: PruneView + Sync>(
    pv: &mut Pruned<'_, V>,
    ctx: &FixpointCtx<'_>,
    full: bool,
    mark: &mut LogMark,
    carry: Option<&[u32]>,
    fscratch: &mut FrontierScratch,
    scratch_pool: &ScratchPool,
    hubs: Option<&HubBitmaps>,
    stats: &mut ExtractionStats,
) -> usize {
    let worklist: Vec<u32> = if full {
        alive_item_ids(pv.view)
    } else {
        let mut wl = {
            let (ru, ri) = pv.since(*mark);
            frontier::square_dirty_items(pv.view, ru, ri, fscratch)
        };
        if let Some(c) = carry {
            merge_sorted(&mut wl, c);
        }
        stats.dirty_items += wl.len();
        stats.skipped_items += pv.view.alive_items().saturating_sub(wl.len());
        wl
    };
    *mark = pv.mark();
    square_item_pass(pv, ctx, &worklist, scratch_pool, hubs, stats)
}

/// Lemma 2 user check over a worklist; decisions against the pass-start
/// snapshot (Parallel) or with immediate effect in `reduce2Hop` order
/// (SequentialOrdered). Returns the number of removals.
///
/// The Parallel arm answers each check through the kernel dispatcher with
/// the self-inclusion folded into `need` (`count ≥ k₁ ⟺ others ≥ k₁ −
/// selfq`) — the same predicate as [`user_neighbor_count`]` < k₁` with
/// early exit, against the same snapshot, so the removal set per round is
/// unchanged. SequentialOrdered keeps the literal full-count pseudocode as
/// the differential reference.
fn square_user_pass<V: PruneView + Sync>(
    pv: &mut Pruned<'_, V>,
    ctx: &FixpointCtx<'_>,
    worklist: &[u32],
    scratch_pool: &ScratchPool,
    hubs: Option<&HubBitmaps>,
    stats: &mut ExtractionStats,
) -> usize {
    if worklist.is_empty() {
        return 0;
    }
    let bound = ctx.params.user_common_bound();
    let k1 = ctx.params.k1;
    let removable = ctx.removable;
    match ctx.strategy {
        SquareStrategy::Parallel => {
            let results: Vec<(Vec<UserId>, KernelTally)> = {
                let view: &V = pv.view;
                ctx.pool.run_worklist(
                    worklist,
                    || scratch_pool.lease(),
                    |lease, chunk| {
                        let scratch = lease.get();
                        let mut doomed = Vec::new();
                        let mut tally = KernelTally::default();
                        for &u in chunk {
                            let u = UserId(u);
                            if !view.user_alive(u) || !removable.user(u) {
                                continue;
                            }
                            let selfq = usize::from(view.user_degree(u) as u32 >= bound);
                            let need = k1.saturating_sub(selfq);
                            if !kernel::user_survives(
                                view, hubs, u, bound, need, scratch, &mut tally,
                            ) {
                                doomed.push(u);
                            }
                        }
                        (doomed, tally)
                    },
                )
            };
            let mut removed = 0;
            for (doomed, tally) in results {
                stats.absorb_kernels(tally);
                removed += doomed.len();
                for u in doomed {
                    pv.remove_user(u);
                }
            }
            removed
        }
        SquareStrategy::SequentialOrdered => {
            let mut lease = scratch_pool.lease();
            let scratch = lease.get().wedge_mut();
            let mut order: Vec<(usize, UserId)> = worklist
                .iter()
                .map(|&u| {
                    let u = UserId(u);
                    (twohop::user_two_hop_size(pv.view, u, scratch), u)
                })
                .collect();
            order.sort_unstable();
            let mut removed = 0;
            for (_, u) in order {
                if !pv.view.user_alive(u) || !removable.user(u) {
                    continue;
                }
                stats.kernel_wedge += 1;
                if user_neighbor_count(pv.view, u, bound, scratch) < k1 {
                    pv.remove_user(u);
                    removed += 1;
                }
            }
            removed
        }
    }
}

/// Item-side analogue of [`square_user_pass`].
fn square_item_pass<V: PruneView + Sync>(
    pv: &mut Pruned<'_, V>,
    ctx: &FixpointCtx<'_>,
    worklist: &[u32],
    scratch_pool: &ScratchPool,
    hubs: Option<&HubBitmaps>,
    stats: &mut ExtractionStats,
) -> usize {
    if worklist.is_empty() {
        return 0;
    }
    let bound = ctx.params.item_common_bound();
    let k2 = ctx.params.k2;
    let removable = ctx.removable;
    match ctx.strategy {
        SquareStrategy::Parallel => {
            let results: Vec<(Vec<ItemId>, KernelTally)> = {
                let view: &V = pv.view;
                ctx.pool.run_worklist(
                    worklist,
                    || scratch_pool.lease(),
                    |lease, chunk| {
                        let scratch = lease.get();
                        let mut doomed = Vec::new();
                        let mut tally = KernelTally::default();
                        for &v in chunk {
                            let v = ItemId(v);
                            if !view.item_alive(v) || !removable.item(v) {
                                continue;
                            }
                            let selfq = usize::from(view.item_degree(v) as u32 >= bound);
                            let need = k2.saturating_sub(selfq);
                            if !kernel::item_survives(
                                view, hubs, v, bound, need, scratch, &mut tally,
                            ) {
                                doomed.push(v);
                            }
                        }
                        (doomed, tally)
                    },
                )
            };
            let mut removed = 0;
            for (doomed, tally) in results {
                stats.absorb_kernels(tally);
                removed += doomed.len();
                for v in doomed {
                    pv.remove_item(v);
                }
            }
            removed
        }
        SquareStrategy::SequentialOrdered => {
            let mut lease = scratch_pool.lease();
            let scratch = lease.get().wedge_mut();
            let mut order: Vec<(usize, ItemId)> = worklist
                .iter()
                .map(|&v| {
                    let v = ItemId(v);
                    (twohop::item_two_hop_size(pv.view, v, scratch), v)
                })
                .collect();
            order.sort_unstable();
            let mut removed = 0;
            for (_, v) in order {
                if !pv.view.item_alive(v) || !removable.item(v) {
                    continue;
                }
                stats.kernel_wedge += 1;
                if item_neighbor_count(pv.view, v, bound, scratch) < k2 {
                    pv.remove_item(v);
                    removed += 1;
                }
            }
            removed
        }
    }
}

/// A pool of [`KernelScratch`] buffers (wedge counts and the blocked
/// kernel's candidate bitmap) shared across workers, passes,
/// and rounds: each `O(V)` zeroed allocation is paid at most once per
/// concurrently-active worker for the whole fixpoint, instead of once per
/// partition per round — the steady state allocates nothing.
///
/// Safe to reuse without cleanup: every kernel clears its counters and
/// bitmap words via its touched-lists at the *start* of each call, which
/// also heals a buffer abandoned mid-enumeration by a panicking worker.
struct ScratchPool {
    size: usize,
    free: Mutex<Vec<KernelScratch>>,
    /// Fresh `O(V)` allocations — bounded by peak concurrent leases.
    created: AtomicU64,
    /// Leases served from the free list (the steady state).
    reused: AtomicU64,
}

impl ScratchPool {
    fn new(size: usize) -> Self {
        Self {
            size,
            free: Mutex::new(Vec::new()),
            created: AtomicU64::new(0),
            reused: AtomicU64::new(0),
        }
    }

    fn lease(&self) -> ScratchLease<'_> {
        let pooled = self.free.lock().unwrap_or_else(|e| e.into_inner()).pop();
        let scratch = match pooled {
            Some(s) => {
                self.reused.fetch_add(1, Ordering::Relaxed);
                s
            }
            None => {
                self.created.fetch_add(1, Ordering::Relaxed);
                KernelScratch::new(self.size)
            }
        };
        ScratchLease {
            pool: self,
            scratch: Some(scratch),
        }
    }
}

/// RAII handle returning the scratch to its pool on drop (including during
/// a panic unwind, so the buffer survives worker retries).
struct ScratchLease<'p> {
    pool: &'p ScratchPool,
    scratch: Option<KernelScratch>,
}

impl ScratchLease<'_> {
    fn get(&mut self) -> &mut KernelScratch {
        self.scratch.as_mut().expect("scratch present until drop")
    }
}

impl Drop for ScratchLease<'_> {
    fn drop(&mut self) {
        if let Some(s) = self.scratch.take() {
            self.pool
                .free
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ricd_graph::GraphBuilder;

    /// A planted k×k biclique plus sparse organic noise.
    fn biclique_plus_noise(k: usize) -> ricd_graph::BipartiteGraph {
        let mut b = GraphBuilder::new();
        for u in 0..k as u32 {
            for v in 0..k as u32 {
                b.add_click(UserId(u), ItemId(v), 13);
            }
        }
        // Sparse noise: users 100.. each click 2 distinct items 200.. once.
        for u in 0..50u32 {
            b.add_click(UserId(100 + u), ItemId(200 + u), 1);
            b.add_click(UserId(100 + u), ItemId(200 + (u + 1) % 50), 1);
        }
        b.build()
    }

    fn params(k: usize, alpha: f64) -> RicdParams {
        RicdParams {
            k1: k,
            k2: k,
            alpha,
            ..RicdParams::default()
        }
    }

    #[test]
    fn exact_biclique_survives_noise_removed() {
        let g = biclique_plus_noise(10);
        for strategy in [SquareStrategy::Parallel, SquareStrategy::SequentialOrdered] {
            let mut view = GraphView::full(&g);
            let stats = extract(&mut view, &params(10, 1.0), &WorkerPool::new(4), strategy);
            let (users, items) = view.alive_sets();
            assert_eq!(users.len(), 10, "{strategy:?}");
            assert_eq!(items.len(), 10, "{strategy:?}");
            assert!(users.iter().all(|u| u.0 < 10));
            assert!(items.iter().all(|v| v.0 < 10));
            assert!(stats.rounds >= 1);
            assert!(stats.core_removed_users >= 50, "noise users core-pruned");
        }
    }

    #[test]
    fn scratch_pool_reuses_buffers_across_leases() {
        let pool = ScratchPool::new(256);
        drop(pool.lease());
        for _ in 0..5 {
            drop(pool.lease());
        }
        assert_eq!(
            pool.created.load(Ordering::Relaxed),
            1,
            "sequential leases allocate once"
        );
        assert_eq!(pool.reused.load(Ordering::Relaxed), 5);
        // Two concurrent leases need a second buffer; after both return,
        // the steady state is pure reuse again.
        {
            let _a = pool.lease();
            let _b = pool.lease();
        }
        assert_eq!(pool.created.load(Ordering::Relaxed), 2);
        drop(pool.lease());
        assert_eq!(pool.created.load(Ordering::Relaxed), 2);
        assert_eq!(pool.reused.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn parallel_rounds_allocate_at_most_one_scratch_per_worker() {
        // Drive the same worklist machinery the fixpoint uses across many
        // rounds: allocations must be bounded by worker concurrency, not by
        // rounds × partitions (zero steady-state allocation).
        let g = biclique_plus_noise(10);
        let view = GraphView::full(&g);
        let pool = WorkerPool::new(4);
        let scratch_pool = ScratchPool::new(g.num_users().max(g.num_items()));
        let worklist: Vec<u32> = (0..g.num_users() as u32).collect();
        for _round in 0..8 {
            let _counts: Vec<usize> = pool.run_worklist(
                &worklist,
                || scratch_pool.lease(),
                |lease, chunk| {
                    let scratch = lease.get().wedge_mut();
                    chunk
                        .iter()
                        .map(|&u| user_neighbor_count(&view, UserId(u), 2, scratch))
                        .sum()
                },
            );
        }
        let created = scratch_pool.created.load(Ordering::Relaxed);
        let reused = scratch_pool.reused.load(Ordering::Relaxed);
        assert!(
            created <= pool.workers() as u64,
            "created {created} buffers for {} workers",
            pool.workers()
        );
        assert!(reused > 0, "later rounds must reuse pooled scratch");
    }

    #[test]
    fn undersized_biclique_fully_pruned() {
        // A 9x9 biclique cannot satisfy (k1=10, k2=10, alpha=1).
        let g = biclique_plus_noise(9);
        let mut view = GraphView::full(&g);
        extract(
            &mut view,
            &params(10, 1.0),
            &WorkerPool::new(4),
            SquareStrategy::Parallel,
        );
        assert_eq!(view.alive_users(), 0);
        assert_eq!(view.alive_items(), 0);
    }

    #[test]
    fn alpha_extension_survives_lower_alpha() {
        // 10x10 biclique plus an extension user clicking 8 of the 10 items:
        // survives alpha=0.8 (needs ceil(0.8*10)=8 common), dies at 1.0.
        let mut b = GraphBuilder::new();
        for u in 0..10u32 {
            for v in 0..10u32 {
                b.add_click(UserId(u), ItemId(v), 13);
            }
        }
        for v in 0..8u32 {
            b.add_click(UserId(10), ItemId(v), 13);
        }
        let g = b.build();

        let mut view = GraphView::full(&g);
        extract(
            &mut view,
            &params(10, 0.8),
            &WorkerPool::new(2),
            SquareStrategy::Parallel,
        );
        assert!(view.user_alive(UserId(10)), "extension user kept at α=0.8");

        let mut view = GraphView::full(&g);
        extract(
            &mut view,
            &params(10, 1.0),
            &WorkerPool::new(2),
            SquareStrategy::Parallel,
        );
        assert!(
            !view.user_alive(UserId(10)),
            "extension user pruned at α=1.0"
        );
        assert_eq!(view.alive_users(), 10, "core biclique intact");
    }

    #[test]
    fn strategies_agree_on_fixpoint() {
        let g = biclique_plus_noise(12);
        let p = params(10, 0.9);
        let mut a = GraphView::full(&g);
        extract(&mut a, &p, &WorkerPool::new(4), SquareStrategy::Parallel);
        let mut b = GraphView::full(&g);
        extract(
            &mut b,
            &p,
            &WorkerPool::new(1),
            SquareStrategy::SequentialOrdered,
        );
        assert_eq!(a.alive_sets(), b.alive_sets());
    }

    #[test]
    fn two_disjoint_groups_both_survive() {
        let mut b = GraphBuilder::new();
        for base in [0u32, 100] {
            for u in 0..10 {
                for v in 0..10 {
                    b.add_click(UserId(base + u), ItemId(base + v), 13);
                }
            }
        }
        let g = b.build();
        let mut view = GraphView::full(&g);
        extract(
            &mut view,
            &params(10, 1.0),
            &WorkerPool::new(4),
            SquareStrategy::Parallel,
        );
        assert_eq!(view.alive_users(), 20);
        assert_eq!(view.alive_items(), 20);
    }

    #[test]
    fn empty_graph_is_noop() {
        let g = GraphBuilder::new().build();
        let mut view = GraphView::full(&g);
        let stats = extract(
            &mut view,
            &params(10, 1.0),
            &WorkerPool::new(2),
            SquareStrategy::Parallel,
        );
        assert_eq!(stats.core_removed_users, 0);
        assert_eq!(view.alive_users(), 0);
    }

    #[test]
    fn bigger_core_than_k_survives_whole() {
        // A 15x15 biclique under (10, 10, 1.0): every vertex has 15 ≥ 10
        // qualified neighbors, all stay.
        let g = biclique_plus_noise(15);
        let mut view = GraphView::full(&g);
        extract(
            &mut view,
            &params(10, 1.0),
            &WorkerPool::new(4),
            SquareStrategy::Parallel,
        );
        assert_eq!(view.alive_users(), 15);
        assert_eq!(view.alive_items(), 15);
    }

    #[test]
    fn delta_and_full_rescan_agree() {
        for (k, alpha) in [(10, 1.0), (10, 0.9), (12, 0.8), (9, 1.0)] {
            let g = biclique_plus_noise(k + 2);
            let p = params(k, alpha);
            for strategy in [SquareStrategy::Parallel, SquareStrategy::SequentialOrdered] {
                let pool = WorkerPool::new(4);
                let mut delta = GraphView::full(&g);
                extract_with(&mut delta, &p, &pool, strategy, FixpointMode::Delta, None);
                let mut full = GraphView::full(&g);
                extract_with(
                    &mut full,
                    &p,
                    &pool,
                    strategy,
                    FixpointMode::FullRescan,
                    None,
                );
                assert_eq!(
                    delta.alive_sets(),
                    full.alive_sets(),
                    "k={k} alpha={alpha} {strategy:?}"
                );
            }
        }
    }

    /// 2×2 biclique (survives) + 6-cycle (dies in SquarePruning round 1)
    /// + enough degree-1 filler pairs to clear `COMPACT_MIN_VERTICES`.
    fn compaction_world() -> ricd_graph::BipartiteGraph {
        let mut b = GraphBuilder::new();
        for u in 0..2u32 {
            for v in 0..2u32 {
                b.add_click(UserId(u), ItemId(v), 5);
            }
        }
        // 6-cycle u10-i10-u11-i11-u12-i12-u10: all degrees 2 (passes core
        // at k=2), but no pair shares 2 neighbors, so SquarePruning kills
        // every vertex in round 1 and the fixpoint needs a second round.
        for j in 0..3u32 {
            b.add_click(UserId(10 + j), ItemId(10 + j), 1);
            b.add_click(UserId(10 + j), ItemId(10 + (j + 1) % 3), 1);
        }
        // Filler: dies immediately in CorePruning but inflates the graph
        // past the compaction minimum.
        for j in 0..600u32 {
            b.add_click(UserId(100 + j), ItemId(100 + j), 1);
        }
        b.build()
    }

    #[test]
    fn delta_compacts_mid_fixpoint_and_matches_full_rescan() {
        let g = compaction_world();
        let p = params(2, 1.0);
        let pool = WorkerPool::new(2);
        let mut delta = GraphView::full(&g);
        let stats = extract_with(
            &mut delta,
            &p,
            &pool,
            SquareStrategy::Parallel,
            FixpointMode::Delta,
            None,
        );
        assert!(
            stats.compactions >= 1,
            "alive fraction collapse must compact"
        );
        assert!(stats.rounds >= 2);
        let mut full = GraphView::full(&g);
        extract_with(
            &mut full,
            &p,
            &pool,
            SquareStrategy::Parallel,
            FixpointMode::FullRescan,
            None,
        );
        assert_eq!(delta.alive_sets(), full.alive_sets());
        assert_eq!(delta.alive_users(), 2);
        assert_eq!(delta.alive_items(), 2);
    }

    /// Masks are indexed by vertex id, and a mid-fixpoint compaction changes
    /// the ids: the translated masks must pin the same vertices. The compact
    /// view never compacts, so it is the same run with compaction out of
    /// reach.
    #[test]
    fn masked_run_is_the_same_across_a_compaction() {
        let g = compaction_world();
        let p = params(2, 1.0);
        let pool = WorkerPool::new(2);
        // Pin one 6-cycle user, one 6-cycle item and one filler user.
        let mut users = vec![true; g.num_users()];
        let mut items = vec![true; g.num_items()];
        users[10] = false;
        users[100] = false;
        items[11] = false;
        let removable = Removable {
            users: Some(&users),
            items: Some(&items),
        };
        let (strategy, mode) = (SquareStrategy::Parallel, FixpointMode::Delta);

        let mut dense = GraphView::full(&g);
        let stats = extract_masked(&mut dense, removable, &p, &pool, strategy, mode, None);
        assert!(stats.compactions >= 1, "the dense run must compact");

        let c = ricd_graph::CompactBigraph::from_graph(&g);
        let mut compact = ricd_graph::CompactView::full(&c);
        let stats = extract_masked(&mut compact, removable, &p, &pool, strategy, mode, None);
        assert_eq!(stats.compactions, 0);

        assert_eq!(dense.alive_sets(), compact.alive_sets());
        assert!(dense.user_alive(UserId(10)) && dense.user_alive(UserId(100)));
        assert!(dense.item_alive(ItemId(11)));
        assert!(!dense.user_alive(UserId(11)), "unpinned cycle user dies");
        assert_eq!(dense.alive_users(), 2 + 2);
        assert_eq!(dense.alive_items(), 2 + 1);
    }

    #[test]
    fn delta_rounds_skip_clean_vertices() {
        let g = compaction_world();
        let p = params(2, 1.0);
        let mut view = GraphView::full(&g);
        let stats = extract_with(
            &mut view,
            &p,
            &WorkerPool::new(2),
            SquareStrategy::Parallel,
            FixpointMode::Delta,
            None,
        );
        assert!(stats.rounds >= 2);
        assert!(
            stats.skipped_users + stats.skipped_items > 0,
            "post-seed rounds must not re-check every alive vertex: {stats:?}"
        );
        // Full rescan never populates the delta counters.
        let mut view = GraphView::full(&g);
        let full_stats = extract_with(
            &mut view,
            &p,
            &WorkerPool::new(2),
            SquareStrategy::Parallel,
            FixpointMode::FullRescan,
            None,
        );
        assert_eq!(full_stats.dirty_users, 0);
        assert_eq!(full_stats.skipped_users, 0);
        assert_eq!(full_stats.compactions, 0);
    }

    #[test]
    fn extract_records_round_durations() {
        let registry = MetricsRegistry::new();
        let g = biclique_plus_noise(10);
        let mut view = GraphView::full(&g);
        let stats = extract_with(
            &mut view,
            &params(10, 1.0),
            &WorkerPool::new(2),
            SquareStrategy::Parallel,
            FixpointMode::Delta,
            Some(&registry),
        );
        let snap = registry.snapshot();
        let (_, h) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "extract.round_nanos")
            .expect("round histogram registered");
        assert_eq!(h.count as usize, stats.rounds);
    }
}
