//! `stream-200k-window`: the timestamped scenario replayed through
//! `WindowedDetector` as a closed loop — the next batch goes in when the
//! previous tick returns. The first half of a replay only grows the
//! window; the second half slides it, evicting on every tick.

use crate::report::{peak_rss_mb, repeated_setup, Outcome, RunCfg};
use crate::spec::{query_mix, Scale, QUERY_WINDOW};
use crate::stats;
use crate::sut::{self, Scenario, ScenarioWorld, Stream};
use crate::trace::Tracer;
use serde_json::Value;
use std::collections::BTreeSet;
use std::time::Instant;

/// Queries of the contention-free query floor.
const FLOOR_QUERIES: usize = 5_000;
/// Share of a campaign's workers that must have been flagged, at some tick,
/// for the campaign to count as caught.
const FLAG_FRACTION: f64 = 0.5;

fn num_batches(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 120,
        Scale::Smoke => 12,
    }
}

/// What one replay measured.
#[derive(Default)]
struct Replay {
    tick_ms: Vec<f64>,
    window_records: Vec<f64>,
    evicted: usize,
    late: usize,
    rejected: usize,
    // Traced replays only: the probes' wall times, per tick.
    window_graph_ms: Vec<f64>,
    redetect_ms: Vec<f64>,
    detect_phase_s: f64,
    screen_phase_s: f64,
    identify_phase_s: f64,
}

/// Everything flagged at any tick (an alarm that fired stays fired, even
/// after its evidence slides out of the window).
#[derive(Default)]
struct EverFlagged {
    users: BTreeSet<u32>,
    items: BTreeSet<u32>,
}

fn replay(
    scenario: &Scenario,
    probe: bool,
    tracer: &mut Tracer,
    mut ever: Option<&mut EverFlagged>,
) -> (Replay, Stream) {
    let mut stream = Stream::new();
    let mut r = Replay::default();
    for (seq, batch) in scenario.batches.iter().enumerate() {
        let op = seq as u64;
        let (stats, wall) = tracer.timed("core.temporal.tick", op, |_| stream.tick(op, batch));
        r.tick_ms.push(wall.as_secs_f64() * 1e3);
        r.window_records.push(stats.window_records as f64);
        r.evicted += stats.evicted;
        r.late += stats.late;
        r.rejected += stats.rejected;
        if let Some(ever) = ever.as_deref_mut() {
            ever.users.extend(stream.flagged_users());
            ever.items.extend(stream.flagged_items());
        }
        if probe {
            let (graph, redetect, result) = stream.probe_tick(tracer, op);
            r.window_graph_ms.push(graph.as_secs_f64() * 1e3);
            r.redetect_ms.push(redetect.as_secs_f64() * 1e3);
            r.detect_phase_s += result.phase_s("detect").unwrap_or(0.0);
            r.screen_phase_s += result.phase_s("screen").unwrap_or(0.0);
            r.identify_phase_s += result.phase_s("identify").unwrap_or(0.0);
        }
    }
    (r, stream)
}

pub fn run(cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (scenario, setup_s) = repeated_setup(
        cfg.started,
        &mut out,
        || {
            sut::scenario(
                cfg.seed,
                cfg.scale,
                ScenarioWorld::Stream,
                num_batches(cfg.scale),
            )
        },
        drop,
    );

    // Measured phase: whole replays until `--seconds` have passed. A traced
    // run probes every tick of every replay.
    let measure = Instant::now();
    let mut ever = EverFlagged::default();
    let mut replays: Vec<Replay> = Vec::new();
    let mut last;
    loop {
        let first = replays.is_empty();
        let (r, stream) = replay(&scenario, cfg.traced, tracer, first.then_some(&mut ever));
        replays.push(r);
        last = stream;
        if measure.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
        // Two live detectors would double the peak RSS.
        drop(last);
    }

    // Output checks.
    let mut stream = last;
    let result = stream.result();
    let reference = stream.reference();
    out.check(result.complete(), || "final result degraded".to_string());
    out.check(result.digest() == reference.digest(), || {
        "final result differs from batch detection on the window graph".to_string()
    });
    for (i, workers) in scenario.truth.group_workers().iter().enumerate() {
        let hit = workers.iter().filter(|w| ever.users.contains(w)).count();
        out.check(hit as f64 >= FLAG_FRACTION * workers.len() as f64, || {
            format!(
                "campaign {i}: only {hit}/{} workers ever flagged",
                workers.len()
            )
        });
    }
    for r in &replays {
        out.attempted += r.tick_ms.len() as u64;
        let bad = r.rejected + r.late;
        if bad > 0 {
            out.failed += bad as u64;
            out.failures.push(format!(
                "{} rejected and {} late records",
                r.rejected, r.late
            ));
        }
    }

    if !cfg.traced {
        let ticks_ms: Vec<f64> = replays
            .iter()
            .flat_map(|r| r.tick_ms.iter().copied())
            .collect();
        let rates: Vec<f64> = replays
            .iter()
            .map(|r| scenario.records as f64 / (r.tick_ms.iter().sum::<f64>() / 1e3))
            .collect();
        let caught = scenario
            .truth
            .workers()
            .iter()
            .filter(|w| ever.users.contains(w))
            .count()
            + scenario
                .truth
                .targets()
                .iter()
                .filter(|v| ever.items.contains(v))
                .count();
        out.set("setup_s", setup_s);
        out.set_work(&cfg.workload, &ticks_ms);
        out.set("records_per_s", stats::median(&rates).unwrap_or(0.0));
        let queries = query_mix(
            cfg.seed,
            FLOOR_QUERIES,
            scenario.users,
            scenario.items,
            &scenario.truth.workers(),
        );
        out.set_query(&sut::query_floor(&result, &queries), QUERY_WINDOW);
        out.set(
            "recall",
            caught as f64 / scenario.truth.planted().max(1) as f64,
        );
        out.set("peak_rss_mb", peak_rss_mb());
    } else {
        let all = |f: fn(&Replay) -> &Vec<f64>| -> Vec<f64> {
            replays.iter().flat_map(|r| f(r).iter().copied()).collect()
        };
        let mean_s = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64 / 1e3;
        let (tick, graph, redetect) = (
            all(|r| &r.tick_ms),
            all(|r| &r.window_graph_ms),
            all(|r| &r.redetect_ms),
        );
        let ingest_evict: Vec<f64> = tick
            .iter()
            .zip(graph.iter().zip(&redetect))
            .map(|(t, (g, d))| (t - g - d).max(0.0))
            .collect();
        let ticks = tick.len().max(1) as f64;
        let windows = all(|r| &r.window_records);
        let (ckpt, ckpt_bytes) = stream.checkpoint(tracer);
        out.set("datagen.timeline_s", scenario.timeline_s);
        out.set("datagen.records", scenario.records as f64);
        out.set("graph.builder.build_s", mean_s(&graph));
        out.set("core.temporal.tick_s", mean_s(&tick));
        out.set("core.temporal.window_graph_s", mean_s(&graph));
        out.set("core.temporal.redetect_s", mean_s(&redetect));
        out.set("core.temporal.ingest_evict_s", mean_s(&ingest_evict));
        out.set(
            "core.temporal.window_records_p50",
            stats::median(&windows).unwrap_or(0.0),
        );
        out.set(
            "core.temporal.window_records_max",
            windows.iter().copied().fold(0.0, f64::max),
        );
        let per_replay = replays.len().max(1) as f64;
        out.set(
            "core.temporal.evicted_records",
            replays.iter().map(|r| r.evicted).sum::<usize>() as f64 / per_replay,
        );
        out.set(
            "core.temporal.late_records",
            replays.iter().map(|r| r.late).sum::<usize>() as f64 / per_replay,
        );
        out.set("core.temporal.checkpoint_s", ckpt.as_secs_f64());
        out.set("core.temporal.checkpoint_bytes", ckpt_bytes as f64);
        let phase = |f: fn(&Replay) -> f64| replays.iter().map(f).sum::<f64>() / ticks;
        out.set("core.detect.detect_s", phase(|r| r.detect_phase_s));
        out.set("core.screen.screen_s", phase(|r| r.screen_phase_s));
        out.set("core.identify.rank_s", phase(|r| r.identify_phase_s));
        // The probes re-run the two parts of every tick, so the traced
        // replay takes this much longer than its ticks alone.
        out.set(
            "bench.trace.overhead_share",
            (mean_s(&graph) + mean_s(&redetect)) / mean_s(&tick),
        );
    }
    out.note("replays", Value::U64(replays.len() as u64));
    out.note(
        "batches_per_replay",
        Value::U64(scenario.batches.len() as u64),
    );
    out.note("records", Value::U64(scenario.records as u64));
    out.note("planted_nodes", Value::U64(scenario.truth.planted() as u64));
    out.note("final_groups", Value::U64(result.groups() as u64));
    out
}
