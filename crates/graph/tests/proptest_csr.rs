//! Property tests for the compact CSR (`ricd_graph::compact`): the varint
//! delta coding round-trips any strictly-increasing adjacency list and
//! rejects anything else, and the encoding undercuts the dense layout it
//! is measured against.

use proptest::prelude::*;
use ricd_graph::{CompactBigraph, DeltaAdjacency, GraphBuilder, ItemId, UserId};

proptest! {
    /// Delta round-trip: encoding arbitrary strictly-increasing lists and
    /// decoding them is the identity; non-sorted input is rejected.
    #[test]
    fn delta_adjacency_round_trip(lists in proptest::collection::vec(
        proptest::collection::btree_set(0u32..10_000, 0..50), 0..20))
    {
        let lists: Vec<Vec<u32>> = lists.into_iter().map(|s| s.into_iter().collect()).collect();
        let adj = DeltaAdjacency::from_lists(lists.iter().map(|l| l.as_slice()), 10_000).unwrap();
        prop_assert_eq!(adj.vertices(), lists.len());
        let mut out = Vec::new();
        for (i, want) in lists.iter().enumerate() {
            prop_assert_eq!(adj.degree(i) as usize, want.len());
            adj.decode_into(i, &mut out);
            prop_assert_eq!(&out, want);
        }
        // Any list with an injected duplicate or inversion must be rejected.
        for (i, l) in lists.iter().enumerate() {
            if let Some(&first) = l.first() {
                let mut bad = l.clone();
                bad.insert(0, first); // duplicate head
                let mut all: Vec<&[u32]> = lists.iter().map(|x| x.as_slice()).collect();
                all[i] = &bad;
                prop_assert!(DeltaAdjacency::from_lists(all, 10_000).is_err());
                break;
            }
        }
    }
}

/// The compact encoding must actually be smaller than the dense layout it
/// replaces on a realistic dense-id subgraph.
#[test]
fn compact_is_smaller_than_dense_layout() {
    let mut b = GraphBuilder::new();
    for u in 0..200u32 {
        for v in 0..40u32 {
            b.add_click(UserId(u), ItemId((u + v) % 80), 1);
        }
    }
    let g = b.build();
    let c = CompactBigraph::from_graph(&g);
    // Dense CSR stores each edge twice as (id: 4B + clicks: 4B) plus
    // offsets; the compact form must undercut just the id payload.
    let dense_id_bytes = g.num_edges() * 2 * 4;
    assert!(
        c.heap_bytes() < dense_id_bytes,
        "compact {} bytes >= dense id payload {} bytes",
        c.heap_bytes(),
        dense_id_bytes
    );
}
