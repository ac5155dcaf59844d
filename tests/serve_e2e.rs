//! Loopback end-to-end test of the online detection service: a planted
//! Ride Item's Coattails campaign streamed in over the wire protocol,
//! risk-queried, recommendation-served, checkpointed, and resumed — with a
//! concurrent query load observing no errors throughout.

use fake_click_detection::engine::WorkerPool;
use fake_click_detection::graph::{ItemId, UserId};
use fake_click_detection::prelude::*;
use fake_click_detection::serve::{start, Client, ServeConfig, ServeState};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A tiny world with dense planted groups (full coverage, default click
/// intensity), so the streaming detector reliably flags every planted
/// worker and target.
fn world() -> SyntheticDataset {
    let attack = AttackConfig {
        num_groups: 2,
        ..AttackConfig::default()
    };
    generate(&DatasetConfig::tiny(), &attack).expect("valid configs")
}

fn pipeline() -> RicdPipeline {
    RicdPipeline::new(RicdParams::default()).with_pool(WorkerPool::new(2))
}

fn batches(ds: &SyntheticDataset, per_batch: usize) -> Vec<Vec<(UserId, ItemId, u32)>> {
    let records: Vec<_> = ds.graph.edges().collect();
    records.chunks(per_batch).map(<[_]>::to_vec).collect()
}

#[test]
fn planted_campaign_detected_and_cleaned_over_the_wire() {
    let ds = world();
    let state = ServeState::new(
        ServeConfig {
            swap_every_batches: 4,
            ..ServeConfig::default()
        },
        pipeline(),
    );
    let handle = start(state, "127.0.0.1:0").expect("bind loopback");
    let addr = handle.addr();

    // Concurrent query load on its own connection for the whole run: every
    // response must be well-formed (epoch-snapshotted views mean a query
    // never races a swap).
    let stop = Arc::new(AtomicBool::new(false));
    let prober = {
        let stop = stop.clone();
        let probe_user = ds.truth.groups[0].workers[0];
        let probe_item = ds.truth.groups[0].targets[0];
        std::thread::spawn(move || -> u64 {
            let mut c = Client::connect(addr).expect("prober connects");
            let mut queries = 0u64;
            let mut last_epoch = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let report = c
                    .query_risk(vec![probe_user], vec![probe_item])
                    .expect("risk query during ingest");
                assert!(report.epoch >= last_epoch, "epochs move forward only");
                last_epoch = report.epoch;
                let rec = c.recommend(probe_user, 5).expect("recommend during ingest");
                assert!(rec.items.len() <= 5);
                queries += 1;
            }
            queries
        })
    };

    // Stream the world in, tolerating (counting) backpressure rejections.
    let mut ingest = Client::connect(addr).expect("ingester connects");
    let mut rejections = 0u64;
    let mut next_seq = 0u64;
    for batch in &batches(&ds, 2000) {
        rejections += ingest
            .ingest_blocking(next_seq, batch)
            .expect("batch accepted eventually")
            .rejections;
        next_seq += 1;
    }
    // Any value is fine here; server::tests::backpressure_rejects_when_queue_is_full_and_drops_nothing
    // asserts > 0 under load.
    let _ = rejections;

    // One synthetic probe user per ridden hot item, each clicking ONLY that
    // hot item: their recommendations are exactly the hot anchor's served
    // list, which is where the attack buys its exposure.
    let mut probes: Vec<(UserId, ItemId, usize)> = Vec::new(); // (probe, hot, group)
    let mut probe_batch = Vec::new();
    let mut next_user = ds.graph.num_users() as u32;
    for (gi, g) in ds.truth.groups.iter().enumerate() {
        for &hot in &g.ridden_hot_items {
            let probe = UserId(next_user);
            next_user += 1;
            probes.push((probe, hot, gi));
            probe_batch.push((probe, hot, 1));
        }
    }
    ingest
        .ingest_blocking(next_seq, &probe_batch)
        .expect("probe batch accepted");

    // Wait until the published view covers every ingested batch.
    let deadline = Instant::now() + Duration::from_secs(120);
    let (epoch, view_groups) = loop {
        let m = ingest.metrics(true).expect("metrics");
        let swaps = m.counter("serve.swaps").unwrap_or(0);
        let batches_done = m.counter("serve.batches").unwrap_or(0);
        let depth = m.gauge("serve.ingest_queue_depth").unwrap_or(0);
        if depth == 0 && batches_done > 0 && swaps > 0 {
            // One explicit poll of the view after the queue drained: the
            // worker flushes on drain, so the epoch gauge is now stable.
            let epoch = m.gauge("serve.epoch").unwrap_or(0);
            let groups = m.gauge("serve.view_groups").unwrap_or(0);
            if groups > 0 {
                break (epoch, groups);
            }
        }
        assert!(Instant::now() < deadline, "view never converged: {m:?}");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(epoch > 0);
    assert!(view_groups >= 2, "both planted groups detected");

    // Every planted worker and target is flagged by the live view.
    let report = ingest
        .query_risk(ds.truth.abnormal_users(), ds.truth.abnormal_items())
        .expect("risk query");
    for (u, v) in &report.users {
        assert!(v.flagged, "planted worker {u:?} not flagged");
        assert!(v.group.is_some());
    }
    for (i, v) in &report.items {
        assert!(v.flagged, "planted target {i:?} not flagged");
    }

    // Organic users stay clear.
    let organic: Vec<UserId> = (0..50)
        .map(UserId)
        .filter(|u| !ds.truth.is_abnormal_user(*u))
        .collect();
    let clear = ingest
        .query_risk(organic, vec![])
        .expect("organic risk query");
    let false_flags = clear.users.iter().filter(|(_, v)| v.flagged).count();
    assert_eq!(false_flags, 0, "organic users misflagged: {clear:?}");

    // Cleaned recommendations. The *dirty* index (forged wedges included)
    // provably surfaces planted targets in the ridden hot items' lists;
    // the served lists must not — the workers' wedges are subtracted, and
    // whatever organic co-click support a target keeps cannot put it back
    // into a top-10 dominated by genuinely co-clicked items.
    let dirty =
        fake_click_detection::recommender::I2iIndex::build(&ds.graph, 10, &WorkerPool::new(2));
    let mut attacks_landed = 0;
    for &(probe, hot, gi) in &probes {
        let group_targets = &ds.truth.groups[gi].targets;
        let dirty_hits = dirty
            .related(hot)
            .iter()
            .filter(|(v, _)| group_targets.contains(v))
            .count();
        if dirty_hits == 0 {
            continue; // this hot item's list resisted the attack even dirty
        }
        attacks_landed += 1;
        let rec = ingest.recommend(probe, 10).expect("probe recommend");
        assert!(!rec.items.is_empty(), "hot anchor {hot:?} serves a list");
        for (item, _) in &rec.items {
            assert!(
                !group_targets.contains(item),
                "probe {probe:?} (clicked only hot {hot:?}) was recommended planted \
                 target {item:?}; dirty list had {dirty_hits} planted hits"
            );
        }
    }
    assert!(
        attacks_landed > 0,
        "no ridden hot item had a dirty-list hit; the world is too weak to test cleaning"
    );

    // Checkpoint over the wire, shut down, and resume: the restored server
    // republishes an equivalent view before any new batch arrives.
    let ckpt = ingest.checkpoint().expect("checkpoint");
    stop.store(true, Ordering::Relaxed);
    let queries = prober.join().expect("prober clean");
    assert!(queries > 0, "prober actually ran");
    ingest.shutdown().expect("shutdown");
    drop(ingest);
    let final_state = handle.join();
    let groups_before = final_state.shared().load().view.groups().to_vec();

    let restored = ServeState::restore(ServeConfig::default(), pipeline(), ckpt);
    let handle2 = start(restored, "127.0.0.1:0").expect("rebind");
    let mut c2 = Client::connect(handle2.addr()).expect("reconnect");
    let report2 = c2
        .query_risk(ds.truth.abnormal_users(), vec![])
        .expect("risk query after resume");
    assert!(report2.epoch > 0, "restored server published a view");
    for (u, v) in &report2.users {
        assert!(v.flagged, "planted worker {u:?} lost across restart");
    }
    let groups_after = handle2_groups(&mut c2);
    assert_eq!(groups_after, groups_before.len(), "group count preserved");
    c2.shutdown().expect("shutdown restored server");
    drop(c2);
    handle2.join();
}

/// Reads the restored server's group count via a risk query.
fn handle2_groups(c: &mut Client) -> usize {
    c.query_risk(vec![], vec![])
        .expect("group count query")
        .groups
}
