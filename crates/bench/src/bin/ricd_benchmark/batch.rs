//! The two batch workloads: TSV bytes → ranked detection result, through
//! `RicdPipeline::run` (`batch-200k`) or `run_sharded`
//! (`batch-200k-sharded`), as a closed loop of reps.

use crate::report::{peak_rss_mb, repeated_setup, Outcome, RunCfg};
use crate::spec::{query_mix, Kind, QUERY_WINDOW};
use crate::stats;
use crate::sut::{self, Batch, BatchCounts, Detection};
use crate::trace::Tracer;
use serde_json::Value;
use std::time::Instant;

/// Reps a run times at least, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Queries of the contention-free query floor.
const FLOOR_QUERIES: usize = 5_000;
/// The planted groups must be found this well for the run to count.
const MIN_F1: f64 = 0.95;

/// The layer spans of one recomposed rep, in call order.
const LAYER_SPANS: [&str; 5] = [
    "graph.io.read_tsv",
    "core.detect.detect_groups_with",
    "core.shard_run.detect_groups_sharded",
    "core.screen.screen_groups",
    "core.identify.rank_output",
];

pub fn run(cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let Kind::Batch { sharded } = cfg.workload.kind else {
        unreachable!("batch::run is given batch workloads");
    };
    let mut out = Outcome::default();

    // Set-up: world, TSV bytes, the unsharded reference run every check
    // compares against, and one warm-up of the timed path.
    let (setup, setup_s) = repeated_setup(
        cfg.started,
        &mut out,
        || {
            let world = sut::batch_world(cfg.seed, cfg.scale);
            let batch = Batch::new(sharded);
            let reference = Batch::new(false).facade(&world.tsv);
            let warm = sharded.then(|| batch.facade(&world.tsv));
            (world, batch, reference, warm)
        },
        drop,
    );
    let (world, batch, reference, warm) = setup;
    let tsv = world.tsv.as_slice();
    let score = reference.score(&world.truth);
    out.check(reference.complete(), || {
        "reference run degraded".to_string()
    });
    out.check(score.f1 >= MIN_F1, || {
        format!("reference F1 {:.3} < {MIN_F1}", score.f1)
    });
    if let Some(warm) = warm {
        out.check(warm.digest() == reference.digest(), || {
            "sharded result differs from the unsharded reference".to_string()
        });
    }

    // Measured phase.
    let measure = Instant::now();
    let keep_going = |reps: usize| reps < MIN_REPS || measure.elapsed().as_secs_f64() < cfg.seconds;
    let mut facade_ms: Vec<f64> = Vec::new();
    let check_rep = |out: &mut Outcome, what: &str, r: &Detection| {
        out.check(r.complete() && r.digest() == reference.digest(), || {
            format!("{what} rep: degraded or digest differs from the reference")
        });
    };
    if !cfg.traced {
        while keep_going(facade_ms.len()) {
            let t = Instant::now();
            let r = batch.facade(tsv);
            facade_ms.push(t.elapsed().as_secs_f64() * 1e3);
            check_rep(&mut out, "facade", &r);
        }
        let median_s = stats::median(&facade_ms).unwrap_or(0.0) / 1e3;
        out.set("setup_s", setup_s);
        out.set_work(&cfg.workload, &facade_ms);
        out.set("records_per_s", world.edges as f64 / median_s);
        let queries = query_mix(
            cfg.seed,
            FLOOR_QUERIES,
            world.users as u32,
            world.items as u32,
            &world.truth.workers(),
        );
        out.set_query(&sut::query_floor(&reference, &queries), QUERY_WINDOW);
        out.set("recall", score.recall);
        out.set("peak_rss_mb", peak_rss_mb());
    } else {
        // Facade and recomposed reps alternate, so both see the same
        // machine state; the recomposed ones run on their own registry.
        let traced = Batch::new(sharded);
        let mut recomposed_ms: Vec<f64> = Vec::new();
        let mut counts = BatchCounts::default();
        while keep_going(recomposed_ms.len()) {
            let t = Instant::now();
            let r = batch.facade(tsv);
            facade_ms.push(t.elapsed().as_secs_f64() * 1e3);
            check_rep(&mut out, "facade", &r);
            let op = recomposed_ms.len() as u64;
            let ((r, c), wall) = tracer.timed("batch.rep", op, |t| traced.recomposed(tsv, t, op));
            recomposed_ms.push(wall.as_secs_f64() * 1e3);
            counts = c;
            check_rep(&mut out, "recomposed", &r);
        }
        let probe = sut::graph_probe(tsv, tracer);
        let reps = recomposed_ms.len() as f64;
        let per_rep = |name: &str| tracer.total_s(name) / reps;
        let layers_s: f64 = LAYER_SPANS.iter().map(|n| per_rep(n)).sum();
        let facade_s = stats::median(&facade_ms).unwrap_or(0.0) / 1e3;
        let recomposed_s = stats::median(&recomposed_ms).unwrap_or(0.0) / 1e3;
        let reg = traced.registry();

        out.set("datagen.generate_s", world.generate_s);
        out.set("datagen.records", world.edges as f64);
        out.set("graph.io.read_tsv_s", per_rep("graph.io.read_tsv"));
        out.set("graph.io.tsv_bytes", tsv.len() as f64);
        out.set("graph.builder.build_s", probe.build_s);
        out.set("graph.compact.from_graph_s", probe.compact_from_graph_s);
        out.set(
            "graph.compact.adjacency_bytes",
            probe.compact_adjacency_bytes as f64,
        );
        out.set(
            "graph.graph.adjacency_bytes",
            probe.dense_adjacency_bytes as f64,
        );
        out.set(
            "core.detect.detect_s",
            per_rep("core.detect.detect_groups_with"),
        );
        out.set(
            "core.shard_run.detect_s",
            per_rep("core.shard_run.detect_groups_sharded"),
        );
        if sharded {
            let per = |v: Option<f64>| v.map(|x| x / reps);
            out.set_registry(
                "graph.shard.plan_s",
                per(reg.histogram_sum_s("shard.plan_nanos")),
            );
            out.set_registry(
                "graph.shard.planned_shards",
                per(reg.counter("shard.planned")),
            );
            out.set_registry(
                "graph.shard.replicated_items",
                per(reg.counter("shard.replicated_items")),
            );
            out.set_registry(
                "graph.shard.halo_users",
                per(reg.counter("shard.halo_users")),
            );
            out.set_registry(
                "core.shard_run.prune_s",
                per(reg.histogram_sum_s("shard.prune_nanos")),
            );
            out.set_registry(
                "core.shard_run.reconcile_s",
                per(reg.histogram_sum_s("shard.reconcile_nanos")),
            );
            out.set_registry(
                "core.shard_run.merge_s",
                per(reg.histogram_sum_s("shard.merge_nanos")),
            );
        }
        out.set("core.extract.rounds", counts.rounds as f64);
        out.set("core.extract.dirty_users", counts.dirty_users as f64);
        out.set("core.extract.dirty_items", counts.dirty_items as f64);
        out.set("core.extract.compactions", counts.compactions as f64);
        out.set("core.extract.kernel_wedge", counts.kernel_wedge as f64);
        out.set("core.extract.kernel_blocked", counts.kernel_blocked as f64);
        out.set("core.extract.kernel_sorted", counts.kernel_sorted as f64);
        out.set(
            "core.extract.hub_bitmap_bytes",
            counts.hub_bitmap_bytes as f64,
        );
        out.set("core.screen.screen_s", per_rep("core.screen.screen_groups"));
        out.set("core.screen.groups_in", counts.groups_in as f64);
        out.set("core.screen.groups_out", counts.groups_out as f64);
        out.set("core.identify.rank_s", per_rep("core.identify.rank_output"));
        out.set_registry(
            "engine.pool.busy_share",
            reg.histogram_sum_s("pool.partition_nanos").map(|busy| {
                busy / (sut::POOL_WORKERS as f64 * recomposed_ms.iter().sum::<f64>() / 1e3)
            }),
        );
        out.set("bench.trace.overhead_share", recomposed_s / facade_s - 1.0);
        out.set("bench.trace.recompose_gap_share", layers_s / facade_s - 1.0);
        out.note("facade_rep_median_s", Value::F64(facade_s));
        out.note("recomposed_rep_median_s", Value::F64(recomposed_s));
    }
    out.note("reps", Value::U64(facade_ms.len() as u64));
    out.note("users", Value::U64(world.users as u64));
    out.note("items", Value::U64(world.items as u64));
    out.note("edges", Value::U64(world.edges as u64));
    out.note("planted_nodes", Value::U64(world.truth.planted() as u64));
    out.note("groups_found", Value::U64(reference.groups() as u64));
    out.note("reference_f1", Value::F64(score.f1));
    out
}
