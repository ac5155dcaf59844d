//! The two serve workloads: the serve tier in-process on loopback
//! (`serve-50k-mono` through `ricd_serve::start`, `serve-50k-shard2`
//! through `start_router`), driven **open loop** by two threads on two
//! connections — clicks and recommender queries come from independent
//! users, so neither waits for the other or slows when the tier does.
//!
//! * Set-up ingests the first 60 % of the scenario as one batch and waits
//!   until it is served.
//! * The ingest thread (this thread) sends the rest, batch *i* at
//!   *i* × `BATCH_INTERVAL_MS`, and polls `Status` every 5 ms in between.
//! * The query thread sends 500 requests per second, alternating
//!   `QueryRisk` (one user, one item) and `Recommend(10)`.
//!
//! Every latency is measured from the operation's *due* time, so a stall
//! charges the requests queued behind it (a query that left late through
//! no fault of the tier is timed from when it left, see `query_loop`).
//! Which CPU each thread runs on is fixed, see `placement.rs`.
//!
//! **Visibility rule.** A batch is visible at the first `Status` poll at
//! which every shard's served `epoch` has reached that shard's log tail
//! (`next_seq + backlog`) as read after the batch's ack; on the monolith,
//! `epoch ≥ seq + 1`. The tier swaps its view after every batch
//! (`swap_every_batches: 1`), so a shard's epoch counts the batches its
//! served view reflects. `next_seq` and `backlog` are read under two
//! separate locks, so their sum can overshoot the tail by the batches the
//! worker finished in between; the tail is therefore the minimum over the
//! polls made before the next send.

use crate::placement::{cpu_ticks, idle_poll, precise_sleeps, set_affinity, thread_ids, Placement};
use crate::report::{peak_rss_mb, repeated_setup, Outcome, RunCfg};
use crate::spec::{
    query_mix, Kind, Scale, BATCH_INTERVAL_MS, QUERY_RATE_PER_S, QUERY_WINDOW,
    SMOKE_BATCH_INTERVAL_MS, STATUS_POLL_MS, VISIBLE_DEADLINE_S,
};
use crate::stats;
use crate::sut::{self, Conn, IngestReply, Scenario, ScenarioWorld, Server, ShardProgress};
use crate::trace::Tracer;
use serde_json::Value;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The final view must flag this share of the planted nodes (generated
/// worlds use evaluation jitter, so 1.0 is not attainable).
const MIN_RECALL: f64 = 0.6;
/// Pause before re-sending a rejected batch.
const RETRY_PAUSE: Duration = Duration::from_millis(1);
/// Lead between set-up and the first due time, so both threads start on
/// schedule.
const START_LEAD: Duration = Duration::from_millis(50);
/// Share of the scenario ingested as one batch during set-up. Below it a
/// batch is served in under ~200 ms and where the scheduler happens to wake
/// the detection threads decides the lag (bimodal between runs of one
/// seed); above it the lag repeats. The measured sends are the rest of
/// the scenario, at the cumulative-graph sizes where lag matters.
const PRELOAD_SHARE: f64 = 0.6;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn sleep_until(due: Instant) {
    let wait = due.saturating_duration_since(Instant::now());
    if !wait.is_zero() {
        std::thread::sleep(wait);
    }
}

/// An acked batch waiting to become visible.
struct Pending {
    seq: u64,
    due: Instant,
    /// Per shard: the epoch at which this batch is in the served view.
    targets: Vec<u64>,
}

/// What the ingest thread measured.
#[derive(Default)]
struct IngestStats {
    lag_ms: Vec<f64>,
    ack_ms: Vec<f64>,
    late_ms: Vec<f64>,
    backlog: Vec<f64>,
    rejected: u64,
    sent: u64,
    last_visible: Option<Instant>,
}

/// What the query thread measured.
#[derive(Default)]
struct QueryStats {
    latency_us: Vec<f64>,
    late_ms: Vec<f64>,
    failures: Vec<String>,
}

/// One `Status` poll: tightens the newest batch's targets, pops every
/// batch that has become visible, samples the backlog.
fn poll(
    conn: &mut Conn,
    shards: usize,
    pending: &mut VecDeque<Pending>,
    stats: &mut IngestStats,
    out: &mut Outcome,
    tracer: &mut Tracer,
) {
    let progress: Vec<ShardProgress> = match conn.status() {
        Ok(s) => s,
        Err(e) => {
            out.check(false, || format!("status poll failed: {e}"));
            return;
        }
    };
    let seen = Instant::now();
    stats
        .backlog
        .push(progress.iter().map(|s| s.backlog).sum::<u64>() as f64);
    if shards > 1 {
        if let Some(newest) = pending.back_mut() {
            for (t, s) in newest.targets.iter_mut().zip(&progress) {
                *t = (*t).min(s.next_seq + s.backlog);
            }
        }
    }
    while let Some(front) = pending.front() {
        let visible = front
            .targets
            .iter()
            .zip(&progress)
            .all(|(&target, s)| s.epoch >= target);
        if !visible {
            break;
        }
        stats.lag_ms.push(ms(seen - front.due));
        stats.last_visible = Some(seen);
        tracer.record("serve.visible_lag", front.seq, front.due, seen);
        out.check(true, String::new);
        pending.pop_front();
    }
}

/// The ingest thread's schedule. Returns when every batch is visible or
/// the visibility deadline has passed.
fn ingest_loop(
    conn: &mut Conn,
    shards: usize,
    scenario: &Scenario,
    t0: Instant,
    interval: Duration,
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> IngestStats {
    let poll_every = Duration::from_millis(STATUS_POLL_MS);
    let mut stats = IngestStats::default();
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let mut last_due = t0;
    for (i, batch) in scenario.batches.iter().enumerate() {
        // Sequence 0 was the preload.
        let seq = i as u64 + 1;
        let due = t0 + interval * i as u32;
        last_due = due;
        // Poll until a poll could make the send late, then wait it out.
        while due.saturating_duration_since(Instant::now()) > poll_every {
            std::thread::sleep(poll_every);
            poll(conn, shards, &mut pending, &mut stats, out, tracer);
        }
        sleep_until(due);
        let sent = Instant::now();
        stats.late_ms.push(ms(sent - due));
        let accepted = loop {
            match conn.ingest(seq, batch) {
                IngestReply::Accepted => {
                    out.check(true, String::new);
                    break true;
                }
                IngestReply::Rejected => {
                    stats.rejected += 1;
                    out.check(false, || format!("batch {seq} rejected (backpressure)"));
                    std::thread::sleep(RETRY_PAUSE);
                }
                IngestReply::Error(e) => {
                    out.check(false, || format!("batch {seq} ingest error: {e}"));
                    break false;
                }
            }
        };
        if !accepted {
            continue;
        }
        let acked = Instant::now();
        stats.sent += 1;
        stats.ack_ms.push(ms(acked - sent));
        tracer.record("serve.ingest_ack", seq, sent, acked);
        // Monolith: the view that holds batch `seq` is epoch `seq + 1`.
        // Sharded: the first poll below reads the log tails.
        pending.push_back(Pending {
            seq,
            due,
            targets: if shards > 1 {
                vec![u64::MAX; shards]
            } else {
                vec![seq + 1]
            },
        });
        poll(conn, shards, &mut pending, &mut stats, out, tracer);
    }
    let deadline = last_due + Duration::from_secs(VISIBLE_DEADLINE_S);
    while !pending.is_empty() && Instant::now() < deadline {
        std::thread::sleep(poll_every);
        poll(conn, shards, &mut pending, &mut stats, out, tracer);
    }
    for p in &pending {
        out.check(false, || {
            format!(
                "batch {} not visible {VISIBLE_DEADLINE_S} s after the last due time",
                p.seq
            )
        });
    }
    stats
}

/// The query thread's schedule: query `k` is due at `t0 + k × period`.
fn query_loop(
    conn: &mut Conn,
    queries: &[(u32, u32)],
    t0: Instant,
    period: Duration,
    done: &AtomicBool,
    tracer: &mut Tracer,
) -> QueryStats {
    let mut stats = QueryStats::default();
    let mut previous_end = t0;
    for (k, &(user, item)) in queries.iter().enumerate() {
        if done.load(Ordering::Relaxed) {
            break;
        }
        let due = t0 + period * k as u32;
        sleep_until(due);
        let sent = Instant::now();
        stats.late_ms.push(ms(sent - due));
        // A query held up by the reply before it waited on the tier, and
        // is timed from when it was due. One that left late only because
        // this thread's own timer fired late (≈25 µs, the host's wake-up
        // cost again) is timed from when it left.
        let from = if previous_end > due { due } else { sent };
        let reply = if k % 2 == 0 {
            conn.query_risk(&[user], &[item])
        } else {
            conn.recommend(user, 10)
        };
        let end = Instant::now();
        previous_end = end;
        stats.latency_us.push((end - from).as_secs_f64() * 1e6);
        tracer.record("serve.query", k as u64, from, end);
        match reply {
            Ok(r) if !r.degraded => {}
            Ok(_) => stats.failures.push(format!("query {k}: degraded answer")),
            Err(e) => stats.failures.push(format!("query {k}: {e}")),
        }
    }
    stats
}

pub fn run(cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let Kind::Serve { shards } = cfg.workload.kind else {
        unreachable!("serve::run is given serve workloads");
    };
    let mut out = Outcome::default();
    let interval_ms = match cfg.scale {
        Scale::Full => BATCH_INTERVAL_MS,
        Scale::Smoke => SMOKE_BATCH_INTERVAL_MS,
    };
    let interval = Duration::from_millis(interval_ms);
    // The world is fixed; `--seconds` sets into how many sends its
    // measured part is cut.
    let sends = ((cfg.seconds * 1e3 / interval_ms as f64) as u64).clamp(4, 240);
    let slots = (sends as f64 / (1.0 - PRELOAD_SHARE)).round() as u64;
    let period = Duration::from_micros(1_000_000 / QUERY_RATE_PER_S);
    let placement = Placement::new(shards);
    let ((scenario, preload, queries, server, conns), setup_s) = repeated_setup(
        cfg.started,
        &mut out,
        || {
            let mut scenario = sut::scenario(cfg.seed, cfg.scale, ScenarioWorld::Serve, slots);
            let measured = scenario.batches.split_off((slots - sends) as usize);
            let preload = scenario.batches.concat();
            scenario.batches = measured;
            // Queries keep coming while the last batches drain.
            let schedule = interval * scenario.batches.len() as u32;
            let num_queries = ((schedule + Duration::from_secs(VISIBLE_DEADLINE_S)).as_micros()
                / period.as_micros()) as usize;
            let queries = query_mix(
                cfg.seed,
                num_queries,
                scenario.users,
                scenario.items,
                &scenario.truth.workers(),
            );
            // Everything the tier starts inherits the detection CPUs.
            let own = thread_ids();
            set_affinity(0, &placement.detection);
            let server = Server::start(shards).expect("bind loopback");
            set_affinity(0, &placement.all);
            let mut first = Conn::connect(server.addr()).expect("preload connection");
            assert_eq!(
                first.ingest(0, &preload),
                IngestReply::Accepted,
                "an idle tier accepts the preload"
            );
            // Idle again with the preload served: nothing queued, and every
            // shard's view at its log tail.
            while !first.status().is_ok_and(|shards| {
                shards
                    .iter()
                    .all(|s| s.backlog == 0 && s.epoch >= s.next_seq.max(1))
            }) {
                std::thread::sleep(Duration::from_millis(STATUS_POLL_MS));
            }
            drop(first);
            // With several workers, each gets a CPU of its own: the
            // workers are the tier's threads the preload kept busiest.
            if placement.detection.len() > 1 {
                let mut tier: Vec<i32> = thread_ids().difference(&own).copied().collect();
                tier.sort_by_key(|&tid| std::cmp::Reverse(cpu_ticks(tid)));
                for (&worker, &cpu) in tier.iter().zip(&placement.detection) {
                    set_affinity(worker, &[cpu]);
                }
            }
            // Every detection thread exists by now, so the threads that
            // appear with the two measured connections are their handlers.
            let before = thread_ids();
            let mut ingest = Conn::connect(server.addr()).expect("ingest connection");
            ingest.status().expect("an idle tier reports its status");
            let with_ingest = thread_ids();
            let mut query = Conn::connect(server.addr()).expect("query connection");
            query.status().expect("an idle tier reports its status");
            for &handler in with_ingest.difference(&before) {
                set_affinity(handler, &placement.ingest);
            }
            for &handler in thread_ids().difference(&with_ingest) {
                set_affinity(handler, &placement.query);
            }
            (scenario, preload, queries, server, (ingest, query))
        },
        |(_, _, _, server, (mut ingest, query))| {
            ingest.shutdown().expect("idle tier shuts down");
            drop((ingest, query));
            server.join();
        },
    );
    let (mut ingest_conn, mut query_conn) = conns;
    let workers = scenario.truth.workers();

    // Measured phase: two generator threads, two connections.
    precise_sleeps();
    let pinned = set_affinity(0, &placement.ingest);
    let t0 = Instant::now() + START_LEAD;
    let done = AtomicBool::new(false);
    let mut query_tracer = tracer.for_thread(1);
    let stop_poller = AtomicBool::new(false);
    let (ingest, query, polled) = std::thread::scope(|s| {
        let poller = pinned
            .then(|| s.spawn(|| set_affinity(0, &placement.query) && idle_poll(&stop_poller)));
        let q = s.spawn(|| {
            set_affinity(0, &placement.query);
            query_loop(
                &mut query_conn,
                &queries,
                t0,
                period,
                &done,
                &mut query_tracer,
            )
        });
        let ingest = ingest_loop(
            &mut ingest_conn,
            shards,
            &scenario,
            t0,
            interval,
            &mut out,
            tracer,
        );
        done.store(true, Ordering::Relaxed);
        let query = q.join().expect("query thread panicked");
        stop_poller.store(true, Ordering::Relaxed);
        let polled = poller.is_some_and(|p| p.join().expect("idle poller panicked"));
        (ingest, query, polled)
    });
    set_affinity(0, &placement.all);
    let wall = t0.elapsed();
    let spans_recorded = tracer.spans().len() + query_tracer.spans().len();
    tracer.absorb(query_tracer);
    out.attempted += query.latency_us.len() as u64;
    out.failed += query.failures.len() as u64;
    out.failures.extend(query.failures.iter().take(10).cloned());

    // The final view must know the planted groups.
    let targets = scenario.truth.targets();
    let planted = (workers.len() + targets.len()).max(1);
    let recall = match ingest_conn.query_risk(&workers, &targets) {
        Ok(r) => r.flagged as f64 / planted as f64,
        Err(e) => {
            out.check(false, || format!("final-view query failed: {e}"));
            0.0
        }
    };
    out.check(recall >= MIN_RECALL, || {
        format!("final-view recall {recall:.3} < {MIN_RECALL}")
    });
    if let Err(e) = ingest_conn.shutdown() {
        out.check(false, || format!("shutdown failed: {e}"));
    }
    drop((ingest_conn, query_conn));
    let (registry, views) = server.join();

    let late: Vec<f64> = ingest
        .late_ms
        .iter()
        .chain(&query.late_ms)
        .copied()
        .collect();
    let late_p99 = stats::percentile(&late, 99.0).unwrap_or(0.0);
    if !cfg.traced {
        let visible_s = ingest
            .last_visible
            .map_or(wall, |t| t.saturating_duration_since(t0))
            .as_secs_f64();
        out.set("setup_s", setup_s);
        out.set_work(&cfg.workload, &ingest.lag_ms);
        let measured_records: usize = scenario.batches.iter().map(Vec::len).sum();
        out.set("records_per_s", measured_records as f64 / visible_s);
        out.set_query(&query.latency_us, QUERY_WINDOW);
        out.set("recall", recall);
        out.set("peak_rss_mb", peak_rss_mb());
    } else {
        out.set("datagen.timeline_s", scenario.timeline_s);
        out.set("datagen.records", scenario.records as f64);
        let pct = |v: &[f64], p: f64| stats::percentile(v, p).unwrap_or(0.0);
        out.set("serve.server.ingest_ack_p50_ms", pct(&ingest.ack_ms, 50.0));
        out.set("serve.server.ingest_ack_p90_ms", pct(&ingest.ack_ms, 90.0));
        out.set("serve.server.backlog_p50", pct(&ingest.backlog, 50.0));
        out.set(
            "serve.server.backlog_max",
            ingest.backlog.iter().copied().fold(0.0, f64::max),
        );
        out.set_registry(
            "serve.server.rejected",
            registry.counter("serve.backpressure_rejected"),
        );
        out.set("serve.query.p99_us", pct(&query.latency_us, 99.0));
        out.set(
            "serve.query.max_us",
            query.latency_us.iter().copied().fold(0.0, f64::max),
        );
        if shards > 1 {
            out.set_registry(
                "serve.router.halo_records",
                registry.counter("serve.router.halo_records"),
            );
            out.set_registry(
                "serve.router.sub_batches",
                registry.counter_family("serve.shard.", ".batches"),
            );
        }
        out.set("bench.gen.late_p99_ms", late_p99);
        out.set("bench.gen.batches_sent", ingest.sent as f64);
        out.set("bench.gen.queries_sent", query.latency_us.len() as f64);

        // Layer probes, after the tier has stopped: nothing else runs.
        let sample = &queries[..queries.len().min(2_000)];
        let sample_users: Vec<u32> = sample.iter().take(500).map(|q| q.0).collect();
        let state = sut::state_probe(&preload, &scenario.batches, &sample_users, tracer);
        out.set("serve.state.ingest_p50_ms", pct(&state.ingest_ms, 50.0));
        out.set("serve.state.ingest_p90_ms", pct(&state.ingest_ms, 90.0));
        out.set(
            "serve.state.rebuild_view_p50_ms",
            pct(&state.rebuild_view_ms, 50.0),
        );
        out.set(
            "serve.state.rebuild_view_p90_ms",
            pct(&state.rebuild_view_ms, 90.0),
        );
        out.set("core.riskview.from_result_ms", state.from_result_ms);
        out.set("graph.graph.clone_ms", state.graph_clone_ms);
        out.set("recommender.index.build_cleaned_ms", state.build_cleaned_ms);
        out.set("recommender.recommend.recommend_us", state.recommend_us);
        let view = sut::view_probe(&views, sample, tracer);
        out.set("core.riskview.merged_us", view.merged_us);
        out.set("core.riskview.lookup_us", view.lookup_us);
        let median_batch = &scenario.batches[scenario.batches.len() / 2];
        let wire = sut::wire_probe(median_batch, sample, tracer);
        out.set(
            "serve.wire.ingest_frame_bytes",
            wire.ingest_frame_bytes as f64,
        );
        out.set("serve.wire.encode_ingest_us", wire.encode_ingest_us);
        out.set("serve.wire.decode_ingest_us", wire.decode_ingest_us);
        out.set("serve.wire.encode_risk_us", wire.encode_risk_us);
        out.set("serve.wire.decode_risk_us", wire.decode_risk_us);
        // The traced and untraced loopback phases differ only by the spans
        // the generator threads store; price those directly.
        let mut scratch = Tracer::new(true);
        let now = Instant::now();
        let (_, cost) = Tracer::new(false).timed("calibrate", 0, |_| {
            for k in 0..spans_recorded {
                scratch.record("calibrate", k as u64, now, now);
            }
        });
        out.set(
            "bench.trace.overhead_share",
            cost.as_secs_f64() / wall.as_secs_f64(),
        );
    }
    out.note("batch_interval_ms", Value::U64(interval_ms));
    out.note("batches", Value::U64(scenario.batches.len() as u64));
    out.note("records", Value::U64(scenario.records as u64));
    out.note("queries", Value::U64(query.latency_us.len() as u64));
    out.note("rejected_sends", Value::U64(ingest.rejected));
    let cpu_list =
        |cpus: &[usize]| Value::Array(cpus.iter().map(|&c| Value::U64(c as u64)).collect());
    out.note("pinned", Value::Bool(pinned));
    out.note("query_cpu_polled", Value::Bool(polled));
    out.note("detection_cpus", cpu_list(&placement.detection));
    out.note("ingest_cpus", cpu_list(&placement.ingest));
    out.note("query_cpus", cpu_list(&placement.query));
    out.note(
        "visible_lag_ms",
        Value::Array(
            ingest
                .lag_ms
                .iter()
                .map(|&l| Value::F64(l.round()))
                .collect(),
        ),
    );
    out.note("gen_late_p99_ms", Value::F64(late_p99));
    out.note(
        "gen_query_late_p50_ms",
        Value::F64(stats::median(&query.late_ms).unwrap_or(0.0)),
    );
    out.note(
        "query_percentiles_us",
        Value::Object(
            [25.0, 50.0, 75.0, 90.0, 95.0, 99.0]
                .into_iter()
                .map(|p| {
                    let v = stats::percentile(&query.latency_us, p).unwrap_or(0.0);
                    (format!("p{p}"), Value::F64(v.round()))
                })
                .collect(),
        ),
    );
    out.note("planted_nodes", Value::U64(planted as u64));
    out
}
