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
//! is generic over the view ([`PruneView`]): batch detection, seeded
//! detection and the streaming re-detects all run it on a
//! [`GraphView`], and a mid-fixpoint compaction continues it on the dense
//! [`InducedSubgraph`] copy. Each rule is written once, for the user side
//! of the view it is handed; the item side is the same pass on the
//! [`Transposed`] view with the two per-side states (`Side`) exchanged.
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
use ricd_graph::twohop::{self, CommonNeighborScratch, HubBitmaps, HubSide, KernelScratch};
use ricd_graph::{GraphView, InducedSubgraph, ItemId, NeighborView, PruneView, Transposed, UserId};
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
    /// Alternation rounds until the fixpoint.
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
    let ctx = FixpointCtx {
        params,
        pool,
        strategy,
        mode,
        metrics,
    };
    let mut stats = ExtractionStats::default();
    run_fixpoint(view, &ctx, None, 1, &mut stats);
    stats
}

/// Immutable per-run configuration threaded through the fixpoint.
#[derive(Clone, Copy)]
struct FixpointCtx<'a> {
    params: &'a RicdParams,
    pool: &'a WorkerPool,
    strategy: SquareStrategy,
    mode: FixpointMode,
    metrics: Option<&'a MetricsRegistry>,
}

/// One side's share of a fixpoint level: its bounds and what its passes
/// keep between rounds.
///
/// Algorithm 3 states each rule once, for "a vertex", with `(k₁, k₂)`
/// swapped by side, and so does this module: every pass below is written
/// for the **user** side of the view it is handed and takes `(this, other)`
/// sides. The item side is the same call on the [`Transposed`] view with
/// the two `Side`s exchanged.
struct Side {
    /// Lemma 1: the minimum live degree.
    degree_bound: usize,
    /// Lemma 2: `k` same-side partners sharing ≥ `common_bound` neighbors.
    common_bound: u32,
    k: usize,
    /// What this level removed on this side, in removal order. Every
    /// removal the fixpoint makes is logged, so "what disappeared since
    /// pass X last ran?" is a suffix of the two logs and each pass derives
    /// its next dirty frontier from it.
    log: Vec<u32>,
    /// How much of `log` CorePruning has propagated (all of it whenever
    /// CorePruning returns, because it runs to its own fixpoint).
    core_mark: usize,
    /// Where this side's SquarePruning pass last started, as positions in
    /// `(this log, the other side's log)`.
    square_mark: (usize, usize),
    seen: FrontierScratch,
    scratch: ScratchPool,
    core_removed: usize,
    square_removed: usize,
    dirty: usize,
    skipped: usize,
}

/// Removes an **alive** user of `view` (callers check), logging it once.
fn remove<T: PruneView>(view: &mut T, log: &mut Vec<u32>, u: u32) {
    view.remove_user(UserId(u));
    log.push(u);
}

/// The `(user, item)` sides of a fresh fixpoint level on `view`.
fn sides<V: PruneView>(view: &V, params: &RicdParams) -> (Side, Side) {
    let side = |n, degree_bound, common_bound, k| Side {
        degree_bound,
        common_bound,
        k,
        log: Vec::new(),
        core_mark: 0,
        square_mark: (0, 0),
        seen: FrontierScratch::new(n),
        scratch: ScratchPool::new(n),
        core_removed: 0,
        square_removed: 0,
        dirty: 0,
        skipped: 0,
    };
    (
        side(
            view.num_users(),
            params.user_degree_bound(),
            params.user_common_bound(),
            params.k1,
        ),
        side(
            view.num_items(),
            params.item_degree_bound(),
            params.item_common_bound(),
            params.k2,
        ),
    )
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
    let (mut users, mut items) = sides(view, ctx.params);
    // Hub bitmaps are built at most once per fixpoint level — lazily,
    // after the first CorePruning fixpoint has collapsed the degree
    // distribution — and stay sound for every later round (monotone
    // removals; see `HubBitmaps`' staleness contract). A compaction starts
    // a new level with fresh ids, so the recursion rebuilds there.
    let mut hubs: Option<HubBitmaps> = None;
    let round_hist = ctx
        .metrics
        .map(|m| m.duration_histogram("extract.round_nanos"));
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
            (alive_ids(view), alive_ids(&Transposed(&*view)))
        } else {
            (
                core_frontier(view, &mut users, &items),
                core_frontier(&Transposed(&*view), &mut items, &users),
            )
        };
        if let Some(c) = &carry_now {
            merge_sorted(&mut seed_users, &c.core_users);
            merge_sorted(&mut seed_items, &c.core_items);
        }
        core_pruning(
            view, &mut users, &mut items, ctx.pool, seed_users, seed_items,
        );

        // Whether this round's square passes re-check everything: a genuinely
        // full round, or the resumption of one interrupted by a mid-round
        // compaction below.
        let square_full = full || carry_now.as_ref().is_some_and(|c| c.square_full);

        // Compact *before* the wedge walks when CorePruning just gutted the
        // view. This matters most on the seeding round: CorePruning alone
        // can kill the vast majority of vertices, and every SquarePruning
        // wedge walk on the original CSR still pays to skip the dead
        // adjacency entries. The square passes resume on the dense copy.
        if matches!(ctx.mode, FixpointMode::Delta) && should_compact(view) {
            if let Some(sub) = view.compact() {
                let carry = carry_into(&sub, view, &mut users, &mut items, square_full);
                resume_compacted(view, &sub, ctx, carry, round, stats);
                break;
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
            let h = kernel::build_hubs(view);
            stats.hub_bitmap_bytes = stats.hub_bitmap_bytes.max(h.heap_bytes());
            hubs = Some(h);
        }
        let sq_users = square_round(
            view,
            &mut users,
            &mut items,
            ctx,
            square_full,
            carry_sq_users,
            hubs.as_ref().map(|h| &h.items),
            stats,
        );
        let sq_items = square_round(
            &mut Transposed(&mut *view),
            &mut items,
            &mut users,
            ctx,
            square_full,
            carry_sq_items,
            hubs.as_ref().map(|h| &h.users),
            stats,
        );

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
    stats.core_removed_users += users.core_removed;
    stats.core_removed_items += items.core_removed;
    stats.square_removed_users += users.square_removed;
    stats.square_removed_items += items.square_removed;
    stats.dirty_users += users.dirty;
    stats.dirty_items += items.dirty;
    stats.skipped_users += users.skipped;
    stats.skipped_items += items.skipped;
}

/// True once the view is mostly corpses and big enough that rebuilding a
/// dense subgraph is cheaper than dragging dead adjacency entries through
/// every remaining pass.
fn should_compact<V: PruneView>(view: &V) -> bool {
    let total = view.num_users() + view.num_items();
    let alive = view.alive_users() + view.alive_items();
    alive > 0 && total >= COMPACT_MIN_VERTICES && alive * COMPACT_ALIVE_DIVISOR < total
}

/// Alive users whose live degree fell since CorePruning last finished: the
/// neighbors of the items removed since.
fn core_frontier<T: NeighborView>(view: &T, this: &mut Side, other: &Side) -> Vec<u32> {
    let removed_items = &other.log[other.core_mark..];
    frontier::core_dirty(&Transposed(view), removed_items, &mut this.seen)
}

/// Alive users whose common-neighbor counts may have fallen since this
/// side's SquarePruning pass last started.
fn square_frontier<T: NeighborView>(view: &T, this: &mut Side, other: &mut Side) -> Vec<u32> {
    let (own, others) = this.square_mark;
    let (removed_users, removed_items) = (&this.log[own..], &other.log[others..]);
    frontier::square_dirty(
        view,
        removed_users,
        removed_items,
        &mut this.seen,
        &mut other.seen,
    )
}

/// The pending frontiers of the passes, derived in the parent id space and
/// translated into `sub`'s. `user_map`/`item_map` are sorted, so translation
/// preserves worklist order; vertices the maps don't contain are dead and
/// need no check. When the interrupted round's square passes were full
/// anyway, there is no point materialising an "everything alive" frontier —
/// the flag makes the resumed round re-check the whole (now dense) view.
fn carry_into<V: PruneView>(
    sub: &InducedSubgraph,
    view: &V,
    users: &mut Side,
    items: &mut Side,
    square_full: bool,
) -> Carryover {
    let transposed = Transposed(view);
    let local_users = |parents: Vec<u32>| -> Vec<u32> {
        let local = |&u| sub.local_user(UserId(u)).map(|l| l.0);
        parents.iter().filter_map(local).collect()
    };
    let local_items = |parents: Vec<u32>| -> Vec<u32> {
        let local = |&v| sub.local_item(ItemId(v)).map(|l| l.0);
        parents.iter().filter_map(local).collect()
    };
    let (square_users, square_items) = if square_full {
        (Vec::new(), Vec::new())
    } else {
        (
            local_users(square_frontier(view, users, items)),
            local_items(square_frontier(&transposed, items, users)),
        )
    };
    Carryover {
        core_users: local_users(core_frontier(view, users, items)),
        core_items: local_items(core_frontier(&transposed, items, users)),
        square_users,
        square_items,
        square_full,
    }
}

/// Continues the fixpoint on the dense copy `sub` of `view`'s alive region
/// and applies the deaths back.
fn resume_compacted<V: PruneView>(
    view: &mut V,
    sub: &InducedSubgraph,
    ctx: &FixpointCtx<'_>,
    carry: Carryover,
    round: usize,
    stats: &mut ExtractionStats,
) {
    stats.compactions += 1;
    let mut local = GraphView::full(&sub.graph);
    run_fixpoint(&mut local, ctx, Some(carry), round, stats);
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

fn alive_ids<V: NeighborView>(view: &V) -> Vec<u32> {
    let alive = |u: &u32| view.user_alive(UserId(*u));
    (0..view.num_users() as u32).filter(alive).collect()
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
    view: &mut V,
    users: &mut Side,
    items: &mut Side,
    pool: &WorkerPool,
    mut user_worklist: Vec<u32>,
    mut item_worklist: Vec<u32>,
) {
    loop {
        let logged = users.log.len() + items.log.len();
        let dirty_items = core_step(view, users, items, pool, &user_worklist);
        merge_sorted(&mut item_worklist, &dirty_items);
        let transposed = &mut Transposed(&mut *view);
        user_worklist = core_step(transposed, items, users, pool, &item_worklist);
        item_worklist.clear();
        if users.log.len() + items.log.len() == logged {
            users.core_mark = users.log.len();
            items.core_mark = items.log.len();
            return;
        }
    }
}

/// One half-step of CorePruning: removes every worklisted user below the
/// degree bound and returns the alive items whose live degree fell with
/// them.
fn core_step<T: PruneView + Sync>(
    view: &mut T,
    this: &mut Side,
    other: &mut Side,
    pool: &WorkerPool,
    worklist: &[u32],
) -> Vec<u32> {
    let doomed: Vec<u32> = {
        let (view, this): (&T, &Side) = (view, this);
        let doomed = |u: &u32| {
            let id = UserId(*u);
            view.user_alive(id) && view.user_degree(id) < this.degree_bound
        };
        let chunks = pool.run_worklist(
            worklist,
            || (),
            |_, chunk| chunk.iter().copied().filter(doomed).collect::<Vec<u32>>(),
        );
        chunks.into_iter().flatten().collect()
    };
    for &u in &doomed {
        remove(view, &mut this.log, u);
    }
    this.core_removed += doomed.len();
    frontier::core_dirty(view, &doomed, &mut other.seen)
}

/// Counts `u`'s (α, k₂)-neighbors among alive users, including `u` itself
/// when its own degree meets the bound (Definition 4 quantifies over all of
/// `U(C)`, so a perfect k₁×k₂ biclique member counts itself — excluding self
/// with the same `< k₁` test would wrongly prune exact bicliques).
fn neighbor_count<V: NeighborView>(
    view: &V,
    u: UserId,
    bound: u32,
    scratch: &mut CommonNeighborScratch,
) -> usize {
    let mut num = usize::from(view.user_degree(u) as u32 >= bound);
    twohop::for_each_common_neighbor(view, u, scratch, |_, c| {
        if c >= bound {
            num += 1;
        }
    });
    num
}

/// One SquarePruning pass over `view`'s users: derive the worklist (full or
/// dirty), record delta stats, advance the pass mark, check and remove.
/// Returns the number of removals.
#[allow(clippy::too_many_arguments)]
fn square_round<T: PruneView + Sync>(
    view: &mut T,
    this: &mut Side,
    other: &mut Side,
    ctx: &FixpointCtx<'_>,
    full: bool,
    carry: Option<&[u32]>,
    hubs: Option<&HubSide>,
    stats: &mut ExtractionStats,
) -> usize {
    let worklist: Vec<u32> = if full {
        alive_ids(view)
    } else {
        let mut wl = square_frontier(view, this, other);
        if let Some(c) = carry {
            merge_sorted(&mut wl, c);
        }
        this.dirty += wl.len();
        this.skipped += view.alive_users().saturating_sub(wl.len());
        wl
    };
    // Mark *before* the pass: its own removals (applied below) belong to the
    // next frontier.
    this.square_mark = (this.log.len(), other.log.len());
    let removed = square_pass(view, this, ctx, &worklist, hubs, stats);
    this.square_removed += removed;
    removed
}

/// Lemma 2 check over a worklist of `view`'s users; decisions against the
/// pass-start snapshot (Parallel) or with immediate effect in `reduce2Hop`
/// order (SequentialOrdered). Returns the number of removals.
///
/// The Parallel arm answers each check through the kernel dispatcher with
/// the self-inclusion folded into `need` (`count ≥ k ⟺ others ≥ k −
/// selfq`) — the same predicate as [`neighbor_count`]` < k` with early
/// exit, against the same snapshot, so the removal set per round is
/// unchanged. SequentialOrdered keeps the literal full-count pseudocode as
/// the differential reference.
fn square_pass<T: PruneView + Sync>(
    view: &mut T,
    this: &mut Side,
    ctx: &FixpointCtx<'_>,
    worklist: &[u32],
    hubs: Option<&HubSide>,
    stats: &mut ExtractionStats,
) -> usize {
    if worklist.is_empty() {
        return 0;
    }
    let (bound, k) = (this.common_bound, this.k);
    match ctx.strategy {
        SquareStrategy::Parallel => {
            let results: Vec<(Vec<u32>, KernelTally)> = {
                let (view, this): (&T, &Side) = (view, this);
                ctx.pool.run_worklist(
                    worklist,
                    || this.scratch.lease(),
                    |lease, chunk| {
                        let scratch = lease.get();
                        let mut doomed = Vec::new();
                        let mut tally = KernelTally::default();
                        for &raw in chunk {
                            let u = UserId(raw);
                            if !view.user_alive(u) {
                                continue;
                            }
                            let selfq = usize::from(view.user_degree(u) as u32 >= bound);
                            let need = k.saturating_sub(selfq);
                            if !kernel::survives(view, hubs, u, bound, need, scratch, &mut tally) {
                                doomed.push(raw);
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
                    remove(view, &mut this.log, u);
                }
            }
            removed
        }
        SquareStrategy::SequentialOrdered => {
            let mut lease = this.scratch.lease();
            let scratch = lease.get().wedge_mut();
            let mut order: Vec<(usize, u32)> = worklist
                .iter()
                .map(|&u| (twohop::two_hop_size(view, UserId(u), scratch), u))
                .collect();
            order.sort_unstable();
            let mut removed = 0;
            for (_, raw) in order {
                let u = UserId(raw);
                if !view.user_alive(u) {
                    continue;
                }
                stats.kernel_wedge += 1;
                if neighbor_count(view, u, bound, scratch) < k {
                    remove(view, &mut this.log, raw);
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
                        .map(|&u| neighbor_count(&view, UserId(u), 2, scratch))
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

    /// A 3×70 block makes users 0–2 hubs over items 10–79, a 70×3 block
    /// makes items 0–2 hubs over users 100–169: the same ids name hubs on
    /// both sides, with disjoint bitmaps over id spaces of different
    /// widths. Every vertex survives (3, 3, 1.0) — but only if the user
    /// pass reads the item hubs and the item pass the user hubs; the other
    /// half answers "no common neighbors" (or trips the width check).
    #[test]
    fn each_side_reads_its_own_half_of_the_hub_registry() {
        let mut b = GraphBuilder::new();
        for u in 0..3u32 {
            for v in 10..80u32 {
                b.add_click(UserId(u), ItemId(v), 13);
            }
        }
        for u in 100..170u32 {
            for v in 0..3u32 {
                b.add_click(UserId(u), ItemId(v), 13);
            }
        }
        let g = b.build();
        let mut view = GraphView::full(&g);
        let stats = extract(
            &mut view,
            &params(3, 1.0),
            &WorkerPool::new(2),
            SquareStrategy::Parallel,
        );
        assert!(stats.kernel_blocked > 0, "hub anchors dispatch blocked");
        assert_eq!(view.alive_users(), 3 + 70);
        assert_eq!(view.alive_items(), 3 + 70);
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
