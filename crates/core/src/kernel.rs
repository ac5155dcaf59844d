//! Per-anchor survival-kernel dispatch.
//!
//! No single two-hop kernel wins everywhere: the early-exit wedge counter
//! is optimal for cold and sparse anchors, the cache-blocked SWAR kernel
//! ([`twohop::blocked_has_qualified_neighbors`]) for anchors whose
//! cheap-first item ordering ends in hub adjacency. One dispatch function
//! picks between them from the anchor's degree and the presence of a
//! [`HubBitmaps`] registry; the pruning fixpoint ([`crate::extract`]) is
//! its only caller, once per side.
//!
//! Both kernels answer the same exact predicate ("does this anchor have
//! ≥ `need` same-side partners sharing ≥ `bound` neighbors?"), proven
//! equivalent by the differential suites in
//! `crates/graph/tests/proptest_twohop.rs`; dispatch therefore never
//! changes a fixpoint, only how many cache lines each query costs.

use ricd_graph::twohop::{self, HubBitmaps, HubSide, KernelScratch};
use ricd_graph::{NeighborView, UserId};

/// Alive-degree floor for a vertex to get a hub bitmap. Below this, walking
/// the adjacency list is at most a few cache lines anyway and a bitmap
/// would only add build cost. Measured with `cargo bench -p ricd-bench
/// --bench kernels`: with hub coverage the blocked kernel beats the wedge
/// counter (hub shape, planted biclique); on the sparse tail, where no
/// vertex clears this floor, it loses — hence dispatch requires a hub.
pub const HUB_MIN_DEGREE: u32 = 64;

/// Hub bitmaps per side. Bounds registry memory at
/// `2 · HUB_MAX_COUNT · (V/8)` bytes; the degree distribution is
/// heavy-tailed, so a few dozen covers the vertices that matter.
pub const HUB_MAX_COUNT: usize = 64;

/// How many survival queries each kernel answered, accumulated per worker
/// and merged into the run's [`crate::extract::ExtractionStats`] (exported
/// as the `extract.kernel_*` counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelTally {
    /// Queries answered by the wedge-counting scan (including trivial
    /// degree short-circuits, which are wedge-path bookkeeping).
    pub wedge: u64,
    /// Queries answered by the blocked SWAR kernel.
    pub blocked: u64,
}

/// Builds the hub registry for a view.
pub(crate) fn build_hubs<V: NeighborView>(view: &V) -> HubBitmaps {
    HubBitmaps::build(view, HUB_MIN_DEGREE, HUB_MAX_COUNT)
}

/// Dispatched survival test for user `u` of `view`: exactly
/// [`twohop::has_qualified_neighbors`]'s answer, by whichever kernel suits
/// this anchor. `hubs` is the registry half over `view`'s user space
/// ([`HubBitmaps::items`]; for an item anchor, the transposed view and
/// [`HubBitmaps::users`]).
#[inline]
pub(crate) fn survives<V: NeighborView>(
    view: &V,
    hubs: Option<&HubSide>,
    u: UserId,
    bound: u32,
    need: usize,
    scratch: &mut KernelScratch,
    tally: &mut KernelTally,
) -> bool {
    if need == 0 {
        return true;
    }
    if bound > 0 && (view.user_degree(u) as u32) < bound {
        // No partner can share more neighbors than the anchor has; the
        // wedge kernel would conclude the same after its walk.
        tally.wedge += 1;
        return false;
    }
    if let Some(h) = hubs {
        // bound < 2 leaves the blocked kernel's closed phase empty — it
        // would be the wedge walk with extra bitmap bookkeeping.
        if bound >= 2 && h.count() > 0 {
            tally.blocked += 1;
            return twohop::blocked_has_qualified_neighbors(view, h, u, bound, need, scratch);
        }
    }
    tally.wedge += 1;
    twohop::has_qualified_neighbors(view, u, bound, need, scratch.wedge_mut())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ricd_graph::{GraphBuilder, GraphView, ItemId, Transposed};

    /// A hot item (degree ≥ hub floor) glued onto a dense block, so
    /// dispatch exercises both the wedge and blocked kernels.
    fn hub_world() -> ricd_graph::BipartiteGraph {
        let mut b = GraphBuilder::new();
        for u in 0..80u32 {
            b.add_click(UserId(u), ItemId(0), 1);
        }
        for u in 0..6u32 {
            for v in 1..6u32 {
                b.add_click(UserId(u), ItemId(v), 1);
            }
        }
        b.build()
    }

    /// Dispatch ≡ wedge for every anchor on `view`'s user side; returns the
    /// tally after checking that every non-trivial query was counted once.
    fn assert_dispatch_agrees<V: NeighborView>(view: &V, hubs: &HubSide) -> KernelTally {
        let mut ks = KernelScratch::new(view.num_users());
        let mut wedge = ricd_graph::CommonNeighborScratch::new(view.num_users());
        let mut tally = KernelTally::default();
        for u in (0..view.num_users() as u32).map(UserId) {
            for bound in 0..6u32 {
                for need in 0..4usize {
                    assert_eq!(
                        survives(view, Some(hubs), u, bound, need, &mut ks, &mut tally),
                        twohop::has_qualified_neighbors(view, u, bound, need, &mut wedge),
                        "u={u:?} bound={bound} need={need}"
                    );
                }
            }
        }
        // need == 0 trivia are not kernel invocations; everything else is.
        let queries = (view.num_users() as u64) * 6 * 3;
        assert_eq!(tally.wedge + tally.blocked, queries);
        tally
    }

    #[test]
    fn dispatch_agrees_with_wedge_and_counts_queries() {
        let g = hub_world();
        let view = GraphView::full(&g);
        let hubs = build_hubs(&view);
        assert!(hubs.items.count() > 0, "hot item must be a hub");
        let tally = assert_dispatch_agrees(&view, &hubs.items);
        assert!(tally.blocked > 0, "hub anchors must dispatch blocked");
        assert!(tally.wedge > 0, "bound<2 queries stay on the wedge kernel");
    }

    /// The item side is the same dispatch on the transposed view: a hot
    /// *user* makes item anchors go blocked, and with no user hub they stay
    /// on the wedge kernel.
    #[test]
    fn item_anchors_dispatch_through_the_transposed_view() {
        let mut b = GraphBuilder::new();
        for v in 0..80u32 {
            b.add_click(UserId(0), ItemId(v), 1);
        }
        for u in 1..6u32 {
            for v in 0..6u32 {
                b.add_click(UserId(u), ItemId(v), 1);
            }
        }
        let g = b.build();
        let view = GraphView::full(&g);
        let hubs = build_hubs(&view);
        assert!(hubs.users.count() > 0, "hot user must be a hub");
        let tally = assert_dispatch_agrees(&Transposed(&view), &hubs.users);
        assert!(tally.blocked > 0 && tally.wedge > 0);

        let world = hub_world();
        let view = GraphView::full(&world);
        let hubs = build_hubs(&view);
        assert_eq!(hubs.users.count(), 0);
        let tally = assert_dispatch_agrees(&Transposed(&view), &hubs.users);
        assert_eq!(tally.blocked, 0, "no user hub, no blocked dispatch");
    }
}
