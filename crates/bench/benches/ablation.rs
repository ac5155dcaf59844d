//! Ablations of the design choices DESIGN.md calls out:
//!
//! * **FRAUDAR edge weighting** — binary adjacency (the released code /
//!   our default) vs click-count multiplicities.
//! * **Naive `T_risk` curve** — the naive algorithm's precision/recall
//!   trade-off as its risk threshold moves.
//! * **COPYCATCH budget curve** — quality as a function of the enumeration
//!   budget, the knob the paper's degenerate variant lives or dies by.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ricd_baselines::copycatch::{copycatch_detect, CopyCatchParams};
use ricd_baselines::fraudar::{fraudar_detect, FraudarParams};
use ricd_bench::eval_dataset;
use ricd_core::prelude::*;
use ricd_engine::WorkerPool;
use ricd_eval::prelude::*;
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let ds = eval_dataset();
    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);

    // FRAUDAR weighting.
    eprintln!("\n=== Ablation: FRAUDAR edge weighting ===");
    for use_clicks in [false, true] {
        let params = FraudarParams {
            use_click_counts: use_clicks,
            ..FraudarParams::default()
        };
        let r = fraudar_detect(&ds.graph, &params, &RicdParams::default());
        let e = evaluate(&r, &ds.truth);
        eprintln!(
            "use_click_counts={use_clicks}: precision={:.3} recall={:.3} f1={:.3}",
            e.precision, e.recall, e.f1
        );
        group.bench_with_input(
            BenchmarkId::new("fraudar_weighting", use_clicks),
            &params,
            |b, p| b.iter(|| black_box(fraudar_detect(&ds.graph, p, &RicdParams::default()))),
        );
    }

    // Naive algorithm's T_risk trade-off ("the risk threshold is used to
    // balance the trade-off between precision and recall", Section V-A).
    eprintln!("\n=== Ablation: naive algorithm T_risk curve ===");
    for t_risk in [100.0f64, 500.0, 2_000.0, 8_000.0] {
        let params = ricd_core::naive::NaiveParams {
            t_hot: 1_000,
            t_risk_item: t_risk,
            t_risk_user: 12.0,
        };
        let r = ricd_core::naive::naive_detect(&ds.graph, &params, &WorkerPool::new(4));
        let e = evaluate(&r, &ds.truth);
        eprintln!(
            "t_risk={t_risk}: precision={:.3} recall={:.3} f1={:.3} output={}",
            e.precision, e.recall, e.f1, e.num_output
        );
    }

    // COPYCATCH budget curve (quality only; timing IS the budget).
    eprintln!("\n=== Ablation: COPYCATCH budget curve ===");
    for secs in [1u64, 2, 5, 10] {
        let params = CopyCatchParams {
            time_budget: Duration::from_secs(secs),
            ..CopyCatchParams::default()
        };
        let r = copycatch_detect(&ds.graph, &params, &RicdParams::default());
        let e = evaluate(&r, &ds.truth);
        eprintln!(
            "budget={secs}s: precision={:.3} recall={:.3} f1={:.3}",
            e.precision, e.recall, e.f1
        );
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
