//! Chaos suite for the supervised replica tier: seeded kill/stall fault
//! plans injected into replica workers while a planted campaign streams in
//! under live query load.
//!
//! The contracts under test, matching the serve-tier failure model:
//!
//! * **Replica equivalence** — every replica publishes the same groups,
//!   and the router's answers equal the monolith's.
//! * **Zero accepted-batch loss** — an acked batch survives worker
//!   crashes: the restarted worker replays the replica's retained log from
//!   its last checkpoint, and the post-recovery per-replica views are
//!   byte-identical to an uninterrupted run of the same stream.
//! * **Degraded-mode serving** — a down replica is masked by an `Up`
//!   peer; with none `Up`, queries are still answered, tagged `degraded`
//!   with the missing replica list. Ingest for a down replica buffers to a
//!   bound then answers explicit `Rejected`.
//! * **Supervised recovery** — a killed replica is restarted (with capped
//!   seeded backoff) and reaches `Up` again within the budget; a stalled
//!   replica is marked `Down` and self-heals when it resumes.
//! * **Manifest resume** — a full process restart from `manifest.json`
//!   restores every replica and global-sequence dedup, so redelivered
//!   pre-checkpoint batches are acked idempotently; a manifest naming a
//!   file outside its directory is refused before that file is read.

use fake_click_detection::engine::{ServeFault, ServeFaultPlan, WorkerPool};
use fake_click_detection::graph::{ItemId, UserId};
use fake_click_detection::obs::MetricsRegistry;
use fake_click_detection::prelude::*;
use fake_click_detection::serve::{
    start, start_router, Client, RetryPolicy, RouterConfig, ServeConfig, ServeState,
    SupervisorConfig,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn world() -> SyntheticDataset {
    let attack = AttackConfig {
        num_groups: 2,
        ..AttackConfig::default()
    };
    generate(&DatasetConfig::tiny(), &attack).expect("valid configs")
}

fn batches(ds: &SyntheticDataset, per_batch: usize) -> Vec<Vec<(UserId, ItemId, u32)>> {
    let records: Vec<_> = ds.graph.edges().collect();
    records.chunks(per_batch).map(<[_]>::to_vec).collect()
}

/// Fast supervision knobs so recovery fits a test budget.
fn fast_supervisor() -> SupervisorConfig {
    SupervisorConfig {
        probe_interval: Duration::from_millis(5),
        stall_timeout: Duration::from_millis(150),
        restart: RetryPolicy {
            base: Duration::from_millis(5),
            cap: Duration::from_millis(20),
            deadline: None,
            jitter_seed: 0x5eed_5a4d,
        },
        max_restarts_per_shard: 16,
    }
}

fn router_config(shards: usize, plan: ServeFaultPlan) -> RouterConfig {
    RouterConfig {
        shards,
        serve: ServeConfig {
            swap_every_batches: 2,
            ..ServeConfig::default()
        },
        workers_per_shard: 1,
        buffer_per_shard: 4096,
        supervisor: fast_supervisor(),
        checkpoint_dir: None,
        checkpoint_every_batches: 0, // manual-only: keeps runs comparable
        fault_plan: plan,
        ..RouterConfig::default()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ricd-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Streams every batch and returns the per-replica final views,
/// serialized, after asserting that every replica's groups are identical.
/// The router's drain guarantees every accepted batch is processed first.
fn run_stream(
    cfg: RouterConfig,
    batches: &[Vec<(UserId, ItemId, u32)>],
) -> (Vec<String>, Vec<ServeState>) {
    let handle = start_router(cfg, MetricsRegistry::new(), "127.0.0.1:0", None).expect("bind");
    let mut c = Client::connect(handle.addr()).expect("connect");
    let policy = RetryPolicy::with_deadline(Duration::from_secs(120));
    for (seq, b) in batches.iter().enumerate() {
        c.ingest_blocking_with(seq as u64, b, &policy)
            .expect("batch accepted");
    }
    c.shutdown().expect("shutdown");
    drop(c);
    let states = handle.join();
    let views: Vec<String> = states
        .iter()
        .map(|s| serde_json::to_string(s.shared().load().view.groups()).expect("serialize"))
        .collect();
    assert!(
        views.windows(2).all(|w| w[0] == w[1]),
        "replicas disagree on the detected groups"
    );
    (views, states)
}

#[test]
fn killed_shard_recovers_with_zero_accepted_batch_loss() {
    let ds = world();
    let stream = batches(&ds, 500);

    // Baseline: the same stream, no faults.
    let (baseline_views, _) = run_stream(router_config(2, ServeFaultPlan::none()), &stream);

    // Faulted: kill shard 0 twice and shard 1 once, at local sequences the
    // replay is guaranteed to reach.
    let mut plan = ServeFaultPlan::none();
    plan.add(0, 1, ServeFault::Kill)
        .add(0, 3, ServeFault::Kill)
        .add(1, 2, ServeFault::Kill);
    let faults = plan.len();
    let cfg = router_config(2, plan);
    let handle = start_router(cfg, MetricsRegistry::new(), "127.0.0.1:0", None).expect("bind");
    let addr = handle.addr();

    // Query load for the whole run: every response must be answered —
    // degraded is acceptable, an error or hang is not.
    let stop = Arc::new(AtomicBool::new(false));
    let probe_user = ds.truth.groups[0].workers[0];
    let prober = {
        let stop = stop.clone();
        std::thread::spawn(move || -> (u64, u64) {
            let mut c = Client::connect(addr).expect("prober connects");
            let (mut total, mut degraded) = (0u64, 0u64);
            while !stop.load(Ordering::Relaxed) {
                let r = c
                    .query_risk(vec![probe_user], vec![])
                    .expect("risk query answered during chaos");
                total += 1;
                if r.degraded {
                    degraded += 1;
                }
            }
            (total, degraded)
        })
    };

    let mut c = Client::connect(addr).expect("connect");
    let policy = RetryPolicy::with_deadline(Duration::from_secs(120));
    for (seq, b) in stream.iter().enumerate() {
        c.ingest_blocking_with(seq as u64, b, &policy)
            .expect("batch accepted despite kills");
    }

    // Recovery budget: every shard back Up with the backlog drained.
    let deadline = Instant::now() + Duration::from_secs(60);
    let restarts = loop {
        let st = c.status().expect("status");
        let all_up = st.shards.iter().all(|s| s.state == "up" && s.backlog == 0);
        if all_up {
            break st.shards.iter().map(|s| s.restarts).sum::<u64>();
        }
        assert!(Instant::now() < deadline, "shards never recovered: {st:?}");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(restarts, faults as u64, "every kill caused one restart");

    stop.store(true, Ordering::Relaxed);
    let (total, _degraded) = prober.join().expect("prober clean");
    assert!(total > 0, "prober actually ran");

    c.shutdown().expect("shutdown");
    drop(c);
    let states = handle.join();
    let faulted_views: Vec<String> = states
        .iter()
        .map(|s| serde_json::to_string(s.shared().load().view.groups()).expect("serialize"))
        .collect();
    assert_eq!(
        faulted_views, baseline_views,
        "post-recovery views must be byte-identical to the uninterrupted run"
    );
}

/// What a stall of replica 0 looked like from outside.
struct StallRun {
    rejected: bool,
    saw_down: bool,
    saw_degraded_query: bool,
}

/// Stalls replica 0 of `replicas` for well past the stall budget while the
/// stream goes in through a buffer small enough that continued ingest hits
/// the bound, watching risk queries and status from a second connection;
/// then waits for the stalled replica to self-heal.
fn stall_run(replicas: usize) -> StallRun {
    let ds = world();
    let stream = batches(&ds, 400);
    let cfg = RouterConfig {
        buffer_per_shard: 3,
        ..router_config(replicas, ServeFaultPlan::stall_at(0, 2, 1200))
    };
    let handle = start_router(cfg, MetricsRegistry::new(), "127.0.0.1:0", None).expect("bind");
    let addr = handle.addr();
    let mut c = Client::connect(addr).expect("connect");

    // The ingester blocks inside its retry loop for most of the stall
    // window, so the Down/degraded observations run on their own
    // connection in the background.
    let stop = Arc::new(AtomicBool::new(false));
    let saw_down = Arc::new(AtomicBool::new(false));
    let saw_degraded_query = Arc::new(AtomicBool::new(false));
    let probe_user = ds.truth.groups[0].workers[0];
    let observer = {
        let (stop, saw_down, saw_degraded) =
            (stop.clone(), saw_down.clone(), saw_degraded_query.clone());
        std::thread::spawn(move || {
            let mut prober = Client::connect(addr).expect("prober connects");
            while !stop.load(Ordering::Relaxed) {
                let r = prober
                    .query_risk(vec![probe_user], vec![])
                    .expect("risk query during stall");
                if r.degraded {
                    saw_degraded.store(true, Ordering::Relaxed);
                }
                let st = prober.status().expect("status");
                if st.shards.iter().any(|s| s.state == "down") {
                    saw_down.store(true, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };

    let policy = RetryPolicy::with_deadline(Duration::from_secs(120));
    let mut rejected = false;
    for (seq, b) in stream.iter().enumerate() {
        let stats = c
            .ingest_blocking_with(seq as u64, b, &policy)
            .expect("batch accepted eventually");
        rejected |= stats.rejections > 0;
    }
    stop.store(true, Ordering::Relaxed);
    observer.join().expect("observer clean");

    // Self-heal: the stalled worker resumes, drains, and goes Up again.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let st = c.status().expect("status");
        if st.shards.iter().all(|s| s.state == "up" && s.backlog == 0) && !st.degraded {
            break;
        }
        assert!(Instant::now() < deadline, "stall never healed: {st:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    let m = c.metrics(true).expect("metrics");
    assert!(
        m.counter("serve.supervisor.stalls_detected").unwrap_or(0) >= 1,
        "stall detection never fired"
    );
    c.shutdown().expect("shutdown");
    drop(c);
    handle.join();
    StallRun {
        rejected,
        saw_down: saw_down.load(Ordering::Relaxed),
        saw_degraded_query: saw_degraded_query.load(Ordering::Relaxed),
    }
}

#[test]
fn stalled_replica_is_masked_by_its_peer_while_bounded_buffer_rejects_then_recovers() {
    let run = stall_run(2);
    assert!(
        run.rejected,
        "the bounded per-replica buffer never pushed back during the stall"
    );
    assert!(run.saw_down, "the stalled replica was never marked down");
    assert!(
        !run.saw_degraded_query,
        "a risk query was degraded although the other replica stayed up"
    );
}

#[test]
fn stalled_sole_replica_degrades_queries_then_recovers() {
    let run = stall_run(1);
    assert!(
        run.rejected,
        "the bounded buffer never pushed back during the stall"
    );
    assert!(run.saw_down, "the stalled replica was never marked down");
    assert!(
        run.saw_degraded_query,
        "queries during the stall were never tagged degraded"
    );
}

#[test]
fn manifest_restart_resumes_the_topology_equivalently() {
    let ds = world();
    let stream = batches(&ds, 500);
    let split = stream.len() / 2;
    let dir = temp_dir("manifest");

    // Uninterrupted reference run over the full stream.
    let (reference_views, _) = run_stream(router_config(2, ServeFaultPlan::none()), &stream);

    // First process: half the stream, a coordinated checkpoint, shutdown.
    let cfg = RouterConfig {
        checkpoint_dir: Some(dir.clone()),
        ..router_config(2, ServeFaultPlan::none())
    };
    let handle = start_router(cfg, MetricsRegistry::new(), "127.0.0.1:0", None).expect("bind");
    let mut c = Client::connect(handle.addr()).expect("connect");
    let policy = RetryPolicy::with_deadline(Duration::from_secs(120));
    for (seq, b) in stream[..split].iter().enumerate() {
        c.ingest_blocking_with(seq as u64, b, &policy)
            .expect("batch accepted");
    }
    let (manifest_path, _) = c.checkpoint_manifest().expect("coordinated checkpoint");
    assert!(
        manifest_path.ends_with("manifest.json"),
        "manifest path: {manifest_path}"
    );
    c.shutdown().expect("shutdown");
    drop(c);
    handle.join();

    // Second process resumes from the manifest. Redeliver an
    // already-covered batch first: it must be acked idempotently (global
    // sequence dedup survived the restart), then stream the rest.
    let cfg = RouterConfig {
        checkpoint_dir: Some(dir.clone()),
        ..router_config(2, ServeFaultPlan::none())
    };
    let handle = start_router(
        cfg,
        MetricsRegistry::new(),
        "127.0.0.1:0",
        Some(std::path::Path::new(&manifest_path)),
    )
    .expect("resume bind");
    let mut c = Client::connect(handle.addr()).expect("reconnect");
    c.ingest_blocking_with(0, &stream[0], &policy)
        .expect("pre-checkpoint redelivery acked idempotently");
    for (i, b) in stream[split..].iter().enumerate() {
        c.ingest_blocking_with((split + i) as u64, b, &policy)
            .expect("batch accepted after resume");
    }
    c.shutdown().expect("shutdown");
    drop(c);
    let states = handle.join();
    let resumed_views: Vec<String> = states
        .iter()
        .map(|s| serde_json::to_string(s.shared().load().view.groups()).expect("serialize"))
        .collect();
    assert_eq!(
        resumed_views, reference_views,
        "manifest-resumed views must match the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_manifest_naming_a_file_outside_its_directory_is_refused() {
    // A valid checkpoint one level above the manifest: following the
    // entry's `../` would resume from it.
    let root = temp_dir("escape");
    let ckpt = StreamingDetector::new(RicdPipeline::new(RicdParams::default())).checkpoint();
    let json = serde_json::to_string(&ckpt).unwrap();
    std::fs::create_dir_all(root.join("ckpt")).unwrap();
    std::fs::write(root.join("outside.ckpt.json"), json).unwrap();
    let cfg = router_config(1, ServeFaultPlan::none());
    let manifest = root.join("ckpt").join("manifest.json");
    let json = r#"{"version":2,"shards":1,"epoch":0,"next_global_seq":0,
        "entries":[{"shard":0,"file":"../outside.ckpt.json","next_seq":0,"epoch":0}]}"#;
    std::fs::write(&manifest, json).unwrap();
    let err = match start_router(cfg, MetricsRegistry::new(), "127.0.0.1:0", Some(&manifest)) {
        Ok(_) => panic!("resumed from a checkpoint outside the manifest's directory"),
        Err(e) => e,
    };
    let msg = err.to_string();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{msg}");
    assert!(
        msg.contains(r#"entry 0 names file "../outside.ckpt.json""#),
        "{msg}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn sharded_detection_flags_the_planted_campaign_across_shard_counts() {
    let ds = world();
    let stream = batches(&ds, 600);
    for shards in [1usize, 2, 4] {
        let (views, states) = run_stream(router_config(shards, ServeFaultPlan::none()), &stream);
        assert_eq!(views.len(), shards);
        // Every replica, on its own, flags every planted worker/target.
        for (r, state) in states.iter().enumerate() {
            let view = &state.shared().load().view;
            for u in ds.truth.abnormal_users() {
                assert!(
                    view.user(u).flagged,
                    "planted worker {u:?} not flagged by replica {r} of {shards}"
                );
            }
            for i in ds.truth.abnormal_items() {
                assert!(
                    view.item(i).flagged,
                    "planted target {i:?} not flagged by replica {r} of {shards}"
                );
            }
            let organic_flagged = (0..50)
                .map(UserId)
                .filter(|u| !ds.truth.is_abnormal_user(*u))
                .filter(|u| view.user(*u).flagged)
                .count();
            assert_eq!(
                organic_flagged, 0,
                "organic users misflagged by replica {r} of {shards}"
            );
        }
    }
}

#[test]
fn monolith_and_sharded_runs_agree_on_verdicts() {
    let ds = world();
    let stream = batches(&ds, 500);

    // Monolith reference over the classic single-state daemon.
    let state = ServeState::new(
        ServeConfig {
            swap_every_batches: 2,
            ..ServeConfig::default()
        },
        RicdPipeline::new(RicdParams::default()).with_pool(WorkerPool::new(2)),
    );
    let handle = start(state, "127.0.0.1:0").expect("bind monolith");
    let mut c = Client::connect(handle.addr()).expect("connect");
    for (seq, b) in stream.iter().enumerate() {
        c.ingest_blocking(seq as u64, b).expect("batch accepted");
    }
    // The planted accounts plus a few organic ones.
    let workers = ds.truth.abnormal_users();
    let users: Vec<UserId> = workers.iter().copied().chain((0..20).map(UserId)).collect();
    let items = ds.truth.abnormal_items();
    let recommend_all = |c: &mut Client| -> Vec<_> {
        workers
            .iter()
            .map(|&u| c.recommend(u, 10).expect("recommend").items)
            .collect()
    };
    c.checkpoint().expect("barrier: all batches processed");
    let mono = c.query_risk(users.clone(), items.clone()).expect("query");
    let mono_recs = recommend_all(&mut c);
    c.shutdown().expect("shutdown");
    drop(c);
    handle.join();

    // Four replicas over the same stream.
    let handle = start_router(
        router_config(4, ServeFaultPlan::none()),
        MetricsRegistry::new(),
        "127.0.0.1:0",
        None,
    )
    .expect("bind router");
    let mut c = Client::connect(handle.addr()).expect("connect");
    let policy = RetryPolicy::with_deadline(Duration::from_secs(120));
    for (seq, b) in stream.iter().enumerate() {
        c.ingest_blocking_with(seq as u64, b, &policy)
            .expect("batch accepted");
    }
    // Barrier + drain so every replica's view covers every batch.
    c.checkpoint_manifest().expect("coordinated barrier");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let st = c.status().expect("status");
        if st.shards.iter().all(|s| s.backlog == 0 && s.state == "up") {
            break;
        }
        assert!(Instant::now() < deadline, "router never drained: {st:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    let sharded = c.query_risk(users.clone(), items.clone()).expect("query");
    assert!(!sharded.degraded, "healthy topology answered degraded");
    let sharded_recs = recommend_all(&mut c);
    c.shutdown().expect("shutdown");
    drop(c);
    handle.join();

    // Whole verdicts — flagged, score and group — not only the flags.
    for ((u, mv), (_, sv)) in mono.users.iter().zip(&sharded.users) {
        assert_eq!(mv, sv, "user {u:?}");
    }
    for ((i, mv), (_, sv)) in mono.items.iter().zip(&sharded.items) {
        assert_eq!(mv, sv, "item {i:?}");
    }
    assert_eq!(mono.groups, sharded.groups, "group count");
    assert_eq!(
        mono_recs, sharded_recs,
        "recommendations for planted workers"
    );
}

#[test]
fn checkpoints_racing_ingest_never_lose_acked_batches() {
    // Regression: the manifest's global-sequence cursor must be captured
    // *before* the shard barriers are enqueued (under the same routing
    // lock). A checkpoint racing live ingest could otherwise record a
    // cursor past batches the shard checkpoint files exclude, and their
    // redelivery after a process restart would be deduped into silence.
    // The client-driven checkpoints here also race the supervisor's
    // cadence-driven ones (`checkpoint_every_batches: 1`), exercising
    // coordinated-checkpoint serialization.
    let ds = world();
    let stream = batches(&ds, 40);
    let dir = temp_dir("ckpt-race");

    // Uninterrupted reference run over the full stream.
    let (reference_views, _) = run_stream(router_config(2, ServeFaultPlan::none()), &stream);

    // First process: one thread streams batches while another fires
    // coordinated checkpoints as fast as the server will take them.
    let cfg = RouterConfig {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every_batches: 1,
        ..router_config(2, ServeFaultPlan::none())
    };
    let handle = start_router(cfg, MetricsRegistry::new(), "127.0.0.1:0", None).expect("bind");
    let policy = RetryPolicy::with_deadline(Duration::from_secs(120));
    let done = Arc::new(AtomicBool::new(false));
    let ckpt_thread = {
        let addr = handle.addr();
        let done = done.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("checkpoint client");
            let mut last = None;
            while !done.load(Ordering::SeqCst) {
                if let Ok((path, _)) = c.checkpoint_manifest() {
                    last = Some(path);
                }
            }
            last
        })
    };
    let mut c = Client::connect(handle.addr()).expect("ingest client");
    for (seq, b) in stream.iter().enumerate() {
        c.ingest_blocking_with(seq as u64, b, &policy)
            .expect("batch accepted");
    }
    done.store(true, Ordering::SeqCst);
    let manifest_path = ckpt_thread
        .join()
        .expect("checkpoint thread")
        .expect("at least one coordinated checkpoint succeeded");
    c.shutdown().expect("shutdown");
    drop(c);
    let first_states = handle.join();
    let first_views: Vec<String> = first_states
        .iter()
        .map(|s| serde_json::to_string(s.shared().load().view.groups()).expect("serialize"))
        .collect();
    assert_eq!(
        first_views, reference_views,
        "checkpoint-racing run must not perturb the live views"
    );

    // Second process: resume from whatever manifest won, then redeliver
    // the WHOLE stream (at-least-once delivery). Covered batches must be
    // acked idempotently, uncovered ones re-routed — and the final views
    // must match the uninterrupted run's exactly.
    let cfg = RouterConfig {
        checkpoint_dir: Some(dir.clone()),
        ..router_config(2, ServeFaultPlan::none())
    };
    let handle = start_router(
        cfg,
        MetricsRegistry::new(),
        "127.0.0.1:0",
        Some(std::path::Path::new(&manifest_path)),
    )
    .expect("resume bind");
    let mut c = Client::connect(handle.addr()).expect("reconnect");
    for (seq, b) in stream.iter().enumerate() {
        c.ingest_blocking_with(seq as u64, b, &policy)
            .expect("redelivered batch accepted");
    }
    c.shutdown().expect("shutdown");
    drop(c);
    let states = handle.join();
    let resumed_views: Vec<String> = states
        .iter()
        .map(|s| serde_json::to_string(s.shared().load().view.groups()).expect("serialize"))
        .collect();
    assert_eq!(
        resumed_views, reference_views,
        "full redelivery after a checkpoint-racing run must reproduce the uninterrupted views"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
