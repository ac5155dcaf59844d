//! The compact CSR encoding: delta-encoded sorted adjacency.
//!
//! The paper prunes a 20M-user / 90M-edge graph; at that scale the dense
//! [`BipartiteGraph`] stores 4-byte neighbor ids in both directions plus
//! 4-byte click weights the pruning rules never read. [`CompactBigraph`]
//! re-encodes both directions as [`DeltaAdjacency`] — sorted neighbor lists
//! stored as LEB128 varints of the *gaps* between consecutive ids, so most
//! neighbors cost one byte instead of four — and measures what that layout
//! would cost ([`CompactBigraph::heap_bytes`]). Construction rejects
//! unsorted or duplicated input: the strictly-increasing invariant is what
//! makes delta coding correct, so a violation is an error, not a latent bug.
//!
//! `tests/proptest_csr.rs` holds the round-trip properties.

use crate::graph::BipartiteGraph;

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

    /// Decodes vertex `i`'s neighbor list into `out` (cleared first), in
    /// ascending order.
    pub fn decode_into(&self, i: usize, out: &mut Vec<u32>) {
        out.clear();
        let mut pos = self.offsets[i] as usize;
        let mut id = 0u32;
        for k in 0..self.degrees[i] {
            let delta = read_varint(&self.data, &mut pos);
            id = if k == 0 { delta } else { id + delta };
            out.push(id);
        }
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

    /// Heap bytes held by both directions.
    pub fn heap_bytes(&self) -> usize {
        self.user_adj.heap_bytes() + self.item_adj.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, ItemId, UserId};

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
        assert_eq!(c.user_adj.vertices(), 3);
        assert_eq!(c.item_adj.vertices(), 4);
        let mut got = Vec::new();
        for u in g.users() {
            c.user_adj.decode_into(u.index(), &mut got);
            assert!(got
                .iter()
                .copied()
                .eq(g.user_adjacency(u).iter().map(|v| v.0)));
        }
        for v in g.items() {
            c.item_adj.decode_into(v.index(), &mut got);
            assert!(got
                .iter()
                .copied()
                .eq(g.item_adjacency(v).iter().map(|u| u.0)));
        }
        assert!(
            c.heap_bytes() < g.num_edges() * 16,
            "compact form must undercut the dense 2x(id+weight) layout"
        );
    }
}
