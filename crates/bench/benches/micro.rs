//! Component microbenches: the substrate operations the complexity analysis
//! (Section V-D) reasons about, measured in isolation — CSR construction,
//! view removals, wedge counting, connected components, I2I scoring, and
//! the parallel engine's superstep overhead.

use criterion::{criterion_group, criterion_main, Criterion};
use ricd_bench::eval_dataset;
use ricd_core::i2i;
use ricd_engine::WorkerPool;
use ricd_graph::twohop::{self, CommonNeighborScratch};
use ricd_graph::{components, GraphBuilder, GraphView, ItemId, UserId};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let ds = eval_dataset();
    let g = &ds.graph;

    let mut group = c.benchmark_group("micro");

    group.bench_function("csr_build_90k_edges", |b| {
        let edges: Vec<_> = g.edges().collect();
        b.iter(|| {
            let mut builder = GraphBuilder::with_capacity(edges.len());
            builder.extend(edges.iter().copied());
            black_box(builder.build())
        })
    });

    group.bench_function("view_full_init", |b| {
        b.iter(|| black_box(GraphView::full(g)))
    });

    group.bench_function("view_remove_1000_users", |b| {
        b.iter(|| {
            let mut view = GraphView::full(g);
            for u in 0..1000u32 {
                view.remove_user(UserId(u));
            }
            black_box(view.alive_users())
        })
    });

    group.bench_function("wedge_count_100_users", |b| {
        let view = GraphView::full(g);
        let mut scratch = CommonNeighborScratch::new(g.num_users());
        b.iter(|| {
            let mut acc = 0u64;
            for u in 0..100u32 {
                twohop::for_each_common_neighbor(&view, UserId(u), &mut scratch, |_, c| {
                    acc += c as u64;
                });
            }
            black_box(acc)
        })
    });

    group.bench_function("connected_components", |b| {
        let view = GraphView::full(g);
        b.iter(|| black_box(components::connected_components(&view)))
    });

    group.bench_function("i2i_ranking_hot_item", |b| {
        // The most-clicked item is the hottest recommendation anchor.
        let hot = g
            .items()
            .max_by_key(|&v| g.item_total_clicks(v))
            .unwrap_or(ItemId(0));
        b.iter(|| black_box(i2i::i2i_ranking(g, hot)))
    });

    group.bench_function("i2i_index_build_top20", |b| {
        let pool = WorkerPool::new(4);
        b.iter(|| black_box(ricd_recommender::I2iIndex::build(g, 20, &pool)))
    });

    for workers in [1usize, 4, 16] {
        group.bench_function(format!("engine_map_vertices_w{workers}"), |b| {
            let pool = WorkerPool::new(workers);
            b.iter(|| {
                black_box(
                    pool.map_vertices(g.num_users(), |u| g.user_total_clicks(UserId(u as u32))),
                )
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
