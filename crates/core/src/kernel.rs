//! Per-anchor survival-kernel dispatch.
//!
//! No single two-hop kernel wins everywhere: the early-exit wedge counter
//! is optimal for cold and sparse anchors, the cache-blocked SWAR kernel
//! ([`twohop::blocked_user_has_qualified_neighbors`]) for anchors whose
//! cheap-first item ordering ends in hub adjacency. One dispatch function
//! per side picks between them from the anchor's degree and the presence
//! of a [`HubBitmaps`] registry; the pruning fixpoint
//! ([`crate::extract`]) is its only caller.
//!
//! Both kernels answer the same exact predicate ("does this anchor have
//! ≥ `need` same-side partners sharing ≥ `bound` neighbors?"), proven
//! equivalent by the differential suites in
//! `crates/graph/tests/proptest_twohop.rs`; dispatch therefore never
//! changes a fixpoint, only how many cache lines each query costs.

use ricd_graph::twohop::{self, HubBitmaps, KernelScratch};
use ricd_graph::{ItemId, NeighborView, UserId};

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

/// Dispatched user-side survival test: exactly
/// [`twohop::user_has_qualified_neighbors`]'s answer, by whichever kernel
/// suits this anchor.
#[inline]
pub(crate) fn user_survives<V: NeighborView>(
    view: &V,
    hubs: Option<&HubBitmaps>,
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
        if bound >= 2 && h.item_hub_count() > 0 {
            tally.blocked += 1;
            return twohop::blocked_user_has_qualified_neighbors(view, h, u, bound, need, scratch);
        }
    }
    tally.wedge += 1;
    twohop::user_has_qualified_neighbors(view, u, bound, need, scratch.wedge_mut())
}

/// Item-side analogue of [`user_survives`].
#[inline]
pub(crate) fn item_survives<V: NeighborView>(
    view: &V,
    hubs: Option<&HubBitmaps>,
    v: ItemId,
    bound: u32,
    need: usize,
    scratch: &mut KernelScratch,
    tally: &mut KernelTally,
) -> bool {
    if need == 0 {
        return true;
    }
    if bound > 0 && (view.item_degree(v) as u32) < bound {
        tally.wedge += 1;
        return false;
    }
    if let Some(h) = hubs {
        if bound >= 2 && h.user_hub_count() > 0 {
            tally.blocked += 1;
            return twohop::blocked_item_has_qualified_neighbors(view, h, v, bound, need, scratch);
        }
    }
    tally.wedge += 1;
    twohop::item_has_qualified_neighbors(view, v, bound, need, scratch.wedge_mut())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ricd_graph::{GraphBuilder, GraphView};

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

    #[test]
    fn dispatch_agrees_with_wedge_and_counts_queries() {
        let g = hub_world();
        let view = GraphView::full(&g);
        let hubs = build_hubs(&view);
        assert!(hubs.item_hub_count() > 0, "hot item must be a hub");
        let mut ks = KernelScratch::new(g.num_users());
        let mut wedge = ricd_graph::CommonNeighborScratch::new(g.num_users());
        let mut tally = KernelTally::default();
        for u in (0..g.num_users() as u32).map(UserId) {
            for bound in 0..6u32 {
                for need in 0..4usize {
                    assert_eq!(
                        user_survives(&view, Some(&hubs), u, bound, need, &mut ks, &mut tally),
                        twohop::user_has_qualified_neighbors(&view, u, bound, need, &mut wedge),
                        "u={u:?} bound={bound} need={need}"
                    );
                }
            }
        }
        assert!(tally.blocked > 0, "hub anchors must dispatch blocked");
        assert!(tally.wedge > 0, "bound<2 queries stay on the wedge kernel");
        // need == 0 trivia are not kernel invocations; everything else is.
        let queries = (g.num_users() as u64) * 6 * 3;
        assert_eq!(tally.wedge + tally.blocked, queries);
    }
}
