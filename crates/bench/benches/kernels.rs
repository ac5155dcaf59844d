//! Survival-kernel shoot-out: the two two-hop kernels (early-exit wedge
//! scan, cache-blocked SWAR bitset) answering the same SquarePruning
//! survival query on the three shapes that span the dispatch space:
//!
//! * **hub** — organic anchors riding a handful of ultra-popular items,
//!   the shape the blocked kernel exists for: the wedge scan must walk
//!   every hot adjacency list edge by edge, the blocked kernel ANDs
//!   64 candidates per word against the hub registry.
//! * **sparse** — the organic long tail (degree ≈ 3): the blocked
//!   kernel's open phase *is* the wedge walk here, so the two should be
//!   within noise of each other.
//! * **biclique** — a planted dense block, the attack structure itself:
//!   every kernel early-exits almost immediately.
//!
//! The measured numbers are what justify the hub constants in
//! `ricd-core/src/kernel.rs` — see the doc comments there and the
//! DESIGN.md "Wedge kernel selection" section. Run with
//! `cargo bench --bench kernels`.

use criterion::{criterion_group, criterion_main, Criterion};
use ricd_core::kernel::{HUB_MAX_COUNT, HUB_MIN_DEGREE};
use ricd_graph::twohop::{
    blocked_has_qualified_neighbors, has_qualified_neighbors, CommonNeighborScratch, HubBitmaps,
    KernelScratch,
};
use ricd_graph::{BipartiteGraph, GraphBuilder, GraphView, ItemId, UserId};
use std::hint::black_box;

/// Deterministic splitmix64 so the shapes are identical across runs.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `n` organic users each riding 12 random picks out of `hubs` hot items,
/// plus two private items each (the cheap prefix the wedge scan loves).
/// With `hubs` ≫ 12 almost no user pair shares ≥ 10 items, so survival
/// queries cannot early-exit — the shape where candidate mass is huge but
/// unqualified, which is exactly what the blocked kernel is for.
fn hub_world(n: u32, hubs: u32) -> BipartiteGraph {
    let mut b = GraphBuilder::new();
    let mut rng = 0x40b_u64 ^ 0xdead_beef;
    for u in 0..n {
        for _ in 0..12 {
            b.add_click(
                UserId(u),
                ItemId((splitmix(&mut rng) % hubs as u64) as u32),
                1,
            );
        }
        b.add_click(UserId(u), ItemId(hubs + 2 * u), 1);
        b.add_click(UserId(u), ItemId(hubs + 2 * u + 1), 1);
    }
    b.build()
}

/// Organic tail: `n` users clicking ~3 random mid-tail items.
fn sparse_world(n: u32) -> BipartiteGraph {
    let mut b = GraphBuilder::new();
    let mut rng = 0x5eed_u64;
    for u in 0..n {
        for _ in 0..3 {
            b.add_click(
                UserId(u),
                ItemId((splitmix(&mut rng) % (n as u64 / 2)) as u32),
                1,
            );
        }
    }
    b.build()
}

/// A planted k×k biclique (the attack structure) plus background noise.
fn biclique_world(k: u32) -> BipartiteGraph {
    let mut b = GraphBuilder::new();
    for u in 0..k {
        for v in 0..k {
            b.add_click(UserId(u), ItemId(v), 13);
        }
    }
    let mut rng = 0xfeed_u64;
    for u in 0..4 * k {
        for _ in 0..3 {
            b.add_click(
                UserId(k + u),
                ItemId(k + (splitmix(&mut rng) % (2 * k) as u64) as u32),
                1,
            );
        }
    }
    b.build()
}

struct Shape {
    name: &'static str,
    g: BipartiteGraph,
    /// Anchors to query (subset so the wedge kernel's O(Σ deg(v)) cost per
    /// anchor keeps the bench under a second).
    anchors: Vec<UserId>,
    bound: u32,
    need: usize,
}

fn shapes() -> Vec<Shape> {
    let hub_n = 4096u32;
    let hub = Shape {
        name: "hub",
        g: hub_world(hub_n, 64),
        anchors: (0..64).map(UserId).collect(),
        // The paper's defaults: bound = ⌈α·k₂⌉ = 10, need = k₁ = 10.
        bound: 10,
        need: 10,
    };
    let sparse_n = 8192u32;
    let sparse = Shape {
        name: "sparse",
        g: sparse_world(sparse_n),
        anchors: (0..sparse_n).step_by(8).map(UserId).collect(),
        bound: 2,
        need: 3,
    };
    let k = 64u32;
    let biclique = Shape {
        name: "biclique",
        g: biclique_world(k),
        anchors: (0..k).map(UserId).collect(),
        bound: k,
        need: (k - 1) as usize,
    };
    vec![hub, sparse, biclique]
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    group.sample_size(10);

    for shape in shapes() {
        let view = GraphView::full(&shape.g);
        let hubs = HubBitmaps::build(&view, HUB_MIN_DEGREE, HUB_MAX_COUNT);
        let (bound, need) = (shape.bound, shape.need);

        // Sanity: both kernels agree on this shape before timing it.
        {
            let mut w = CommonNeighborScratch::new(shape.g.num_users());
            let mut k = KernelScratch::new(shape.g.num_users());
            for &u in &shape.anchors {
                let want = has_qualified_neighbors(&view, u, bound, need, &mut w);
                assert_eq!(
                    blocked_has_qualified_neighbors(&view, &hubs.items, u, bound, need, &mut k),
                    want
                );
            }
        }

        group.bench_function(format!("{}/wedge", shape.name), |b| {
            let mut scratch = CommonNeighborScratch::new(shape.g.num_users());
            b.iter(|| {
                let mut survivors = 0u32;
                for &u in &shape.anchors {
                    survivors +=
                        u32::from(has_qualified_neighbors(&view, u, bound, need, &mut scratch));
                }
                black_box(survivors)
            })
        });

        group.bench_function(format!("{}/blocked", shape.name), |b| {
            let mut scratch = KernelScratch::new(shape.g.num_users());
            b.iter(|| {
                let mut survivors = 0u32;
                for &u in &shape.anchors {
                    survivors += u32::from(blocked_has_qualified_neighbors(
                        &view,
                        &hubs.items,
                        u,
                        bound,
                        need,
                        &mut scratch,
                    ));
                }
                black_box(survivors)
            })
        });

        group.bench_function(format!("{}/hub_registry_build", shape.name), |b| {
            b.iter(|| black_box(HubBitmaps::build(&view, HUB_MIN_DEGREE, HUB_MAX_COUNT)))
        });
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
