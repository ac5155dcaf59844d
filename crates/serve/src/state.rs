//! The server's detection-side state: a [`StreamingDetector`] plus the
//! machinery that turns its running result into query-servable snapshots.
//!
//! [`ServeState`] is deliberately synchronous and single-owner — the
//! daemon's background detection thread owns one and drives it; everything
//! concurrent (the ingest queue, the connection pool) lives in
//! [`server`](crate::server). That split keeps the state deterministic
//! under test: the golden-metrics suite drives a `ServeState` directly,
//! batch by batch, on a manual clock and pins the exact `serve.*` counter
//! set the daemon would produce.

use crate::shared::SnapshotCell;
use ricd_core::incremental::{BatchStats, Checkpoint, StreamingDetector};
use ricd_core::riskview::RiskView;
use ricd_core::{BudgetClock, RicdPipeline, RunBudget};
use ricd_engine::WorkerPool;
use ricd_graph::{BipartiteGraph, GraphBuilder, ItemId, UserId};
use ricd_obs::{Counter, Gauge, Histogram, MetricsRegistry, DURATION_BUCKETS_NANOS};
use ricd_recommender::I2iIndex;
use std::sync::Arc;
use std::time::Duration;

/// Serving configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Ingest queue capacity (batches). A full queue **rejects** further
    /// batches — explicit backpressure, never unbounded buffering.
    pub queue_capacity: usize,
    /// Maximum concurrent client connections; excess connections get an
    /// error frame and are closed.
    pub max_connections: usize,
    /// Rebuild + swap the risk view after this many ingested batches (the
    /// queue draining empty also triggers a swap, so a quiet stream still
    /// converges).
    pub swap_every_batches: usize,
    /// Also swap once this much wall-clock time has passed since the last
    /// swap, even mid-cadence (measured with a [`BudgetClock`]).
    pub swap_interval: Option<Duration>,
    /// Width of the cleaned I2I index's per-anchor lists.
    pub recommend_per_anchor: usize,
    /// Serve exactly one client connection, then drain and exit.
    pub oneshot: bool,
    /// Name prefix for this state's metric family. The monolith daemon and
    /// the router's aggregate set use the default `"serve"`; the router's
    /// shard workers register as `"serve.shard.<i>"` so one registry holds
    /// every shard's counters side by side.
    pub metrics_prefix: String,
    /// Per-connection frame I/O deadline (the slow-loris guard): once a
    /// frame's first byte is visible, the whole frame must arrive — and
    /// responses must flush — within this budget or the connection is
    /// closed and `<prefix>.conn_timeouts` incremented.
    pub io_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            max_connections: 32,
            swap_every_batches: 8,
            swap_interval: None,
            recommend_per_anchor: 50,
            oneshot: false,
            metrics_prefix: "serve".into(),
            io_timeout: Duration::from_secs(10),
        }
    }
}

/// One immutable, internally consistent serving snapshot: the risk view,
/// the cumulative graph it was computed on, and the cleaned I2I index with
/// that view's fake co-clicks subtracted. Queries resolve entirely inside
/// one snapshot, so a mid-query swap can never mix generations.
#[derive(Clone, Debug)]
pub struct ServeSnapshot {
    /// Risk verdicts.
    pub view: RiskView,
    /// The cumulative click graph behind `view`.
    pub graph: BipartiteGraph,
    /// The cleaned I2I index (flagged users' wedges removed).
    pub clean_index: I2iIndex,
    /// The stream sequence `view` covers: every batch below it is in.
    /// Unlike the view epoch, which counts this state's swaps and restarts
    /// at 0 on restore, it compares across replicas and restarts.
    pub(crate) covered_seq: u64,
}

impl ServeSnapshot {
    /// The pre-ingestion snapshot: empty view over an empty graph.
    pub fn empty() -> Self {
        let graph = GraphBuilder::new().build();
        let clean_index = I2iIndex::build(&graph, 1, &WorkerPool::new(1));
        Self {
            view: RiskView::empty(),
            graph,
            clean_index,
            covered_seq: 0,
        }
    }

    /// Cleaned top-`n` recommendations for `user` within this snapshot.
    pub fn recommend(&self, user: UserId, n: usize) -> Vec<(ItemId, f32)> {
        if (user.0 as usize) >= self.graph.num_users() {
            return Vec::new();
        }
        ricd_recommender::recommend_with(&self.graph, &self.clean_index, user, n)
    }
}

/// Handles to every `serve.*` metric, registered eagerly so the metric set
/// is identical whether or not a code path fired (golden-snapshot
/// stability), and so hot paths never take the registry lock.
#[derive(Clone)]
pub(crate) struct ServeMetrics {
    pub batches: Counter,
    pub records: Counter,
    pub timed_batches: Counter,
    pub timed_records: Counter,
    pub event_ts: Gauge,
    pub backpressure_rejected: Counter,
    pub queries_risk: Counter,
    pub queries_recommend: Counter,
    pub frames_malformed: Counter,
    pub connections_accepted: Counter,
    pub connections_rejected: Counter,
    pub conn_timeouts: Counter,
    pub view_swaps: Counter,
    pub ingest_queue_depth: Gauge,
    pub epoch: Gauge,
    pub view_groups: Gauge,
    pub view_flagged_users: Gauge,
    pub view_flagged_items: Gauge,
    pub batch_nanos: Histogram,
    pub swap_nanos: Histogram,
}

impl ServeMetrics {
    pub(crate) fn register(registry: &MetricsRegistry, prefix: &str) -> Self {
        let name = |suffix: &str| format!("{prefix}.{suffix}");
        Self {
            batches: registry.counter(&name("batches")),
            records: registry.counter(&name("records")),
            timed_batches: registry.counter(&name("timed_batches")),
            timed_records: registry.counter(&name("timed_records")),
            event_ts: registry.gauge(&name("event_ts")),
            backpressure_rejected: registry.counter(&name("backpressure_rejected")),
            queries_risk: registry.counter(&name("queries_risk")),
            queries_recommend: registry.counter(&name("queries_recommend")),
            frames_malformed: registry.counter(&name("frames_malformed")),
            connections_accepted: registry.counter(&name("connections_accepted")),
            connections_rejected: registry.counter(&name("connections_rejected")),
            conn_timeouts: registry.counter(&name("conn_timeouts")),
            view_swaps: registry.counter(&name("swaps")),
            ingest_queue_depth: registry.gauge(&name("ingest_queue_depth")),
            epoch: registry.gauge(&name("epoch")),
            view_groups: registry.gauge(&name("view_groups")),
            view_flagged_users: registry.gauge(&name("view_flagged_users")),
            view_flagged_items: registry.gauge(&name("view_flagged_items")),
            batch_nanos: registry.histogram(&name("batch_nanos"), &DURATION_BUCKETS_NANOS),
            swap_nanos: registry.histogram(&name("swap_nanos"), &DURATION_BUCKETS_NANOS),
        }
    }
}

/// The single-owner detection state behind a server.
pub struct ServeState {
    cfg: ServeConfig,
    detector: StreamingDetector,
    pool: WorkerPool,
    registry: MetricsRegistry,
    metrics: ServeMetrics,
    shared: Arc<SnapshotCell<ServeSnapshot>>,
    epoch: u64,
    batches_since_swap: usize,
    swap_clock: Option<BudgetClock>,
}

impl ServeState {
    /// Fresh state with an empty stream. The pipeline supplies detection
    /// parameters, the worker pool, and the metrics registry the `serve.*`
    /// family registers into.
    pub fn new(cfg: ServeConfig, pipeline: RicdPipeline) -> Self {
        let cell = Arc::new(SnapshotCell::new(ServeSnapshot::empty()));
        Self::new_in_cell(cfg, pipeline, cell)
    }

    /// Like [`new`](Self::new) but publishing into an existing snapshot
    /// cell — the sharded runtime's restart path: a replacement shard
    /// worker republishes into the *same* cell its predecessor's queries
    /// read from, so query routing never has to re-wire.
    pub fn new_in_cell(
        cfg: ServeConfig,
        pipeline: RicdPipeline,
        cell: Arc<SnapshotCell<ServeSnapshot>>,
    ) -> Self {
        let registry = pipeline.metrics.clone();
        let pool = pipeline.pool.clone();
        let metrics = ServeMetrics::register(&registry, &cfg.metrics_prefix);
        let swap_clock = cfg
            .swap_interval
            .map(|d| BudgetClock::start(RunBudget::none().with_deadline(d)));
        Self {
            cfg,
            detector: StreamingDetector::new(pipeline),
            pool,
            registry,
            metrics,
            shared: cell,
            epoch: 0,
            batches_since_swap: 0,
            swap_clock,
        }
    }

    /// State resumed from a [`Checkpoint`] (PR 1's crash-recovery format).
    /// The restored view is rebuilt and published immediately, so a
    /// restarted server serves the pre-crash verdicts before any new batch
    /// arrives.
    pub fn restore(cfg: ServeConfig, pipeline: RicdPipeline, ckpt: Checkpoint) -> Self {
        let cell = Arc::new(SnapshotCell::new(ServeSnapshot::empty()));
        Self::restore_in_cell(cfg, pipeline, ckpt, cell)
    }

    /// [`restore`](Self::restore) into an existing snapshot cell (see
    /// [`new_in_cell`](Self::new_in_cell)).
    pub fn restore_in_cell(
        cfg: ServeConfig,
        pipeline: RicdPipeline,
        ckpt: Checkpoint,
        cell: Arc<SnapshotCell<ServeSnapshot>>,
    ) -> Self {
        let registry = pipeline.metrics.clone();
        let pool = pipeline.pool.clone();
        let metrics = ServeMetrics::register(&registry, &cfg.metrics_prefix);
        let swap_clock = cfg
            .swap_interval
            .map(|d| BudgetClock::start(RunBudget::none().with_deadline(d)));
        let mut state = Self {
            cfg,
            detector: StreamingDetector::restore(pipeline, ckpt),
            pool,
            registry,
            metrics,
            shared: cell,
            epoch: 0,
            batches_since_swap: 0,
            swap_clock,
        };
        state.rebuild_view();
        state
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The snapshot cell queries read from.
    pub fn shared(&self) -> Arc<SnapshotCell<ServeSnapshot>> {
        self.shared.clone()
    }

    /// The metrics registry (shared with the pipeline and detector).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    pub(crate) fn serve_metrics(&self) -> ServeMetrics {
        self.metrics.clone()
    }

    /// The next batch sequence number the detector expects.
    pub fn next_seq(&self) -> u64 {
        self.detector.next_seq()
    }

    /// Ingests one batch through the streaming detector, recording batch
    /// latency, then swaps in a fresh view if the cadence (batch count or
    /// interval deadline) says so. Returns the detector's batch counters.
    pub fn ingest(&mut self, seq: u64, records: &[(UserId, ItemId, u32)]) -> BatchStats {
        let t0 = self.registry.clock().now();
        let stats = self.detector.ingest_batch(seq, records);
        let elapsed = self.registry.clock().now().saturating_sub(t0);
        self.metrics.batch_nanos.observe_duration(elapsed);
        self.metrics.batches.inc();
        self.metrics.records.add(stats.records as u64);
        self.batches_since_swap += 1;
        let interval_due = self
            .swap_clock
            .as_ref()
            .is_some_and(BudgetClock::deadline_exceeded);
        if self.batches_since_swap >= self.cfg.swap_every_batches || interval_due {
            self.rebuild_view();
        }
        stats
    }

    /// Ingests one **timestamped** batch: records the batch's event-time
    /// high-water mark (`<prefix>.event_ts` gauge) and the timed-ingest
    /// counters, then feeds the stripped `(user, item, clicks)` triples
    /// through the same path as [`ingest`](Self::ingest). Event time is
    /// observability-only here — windowed eviction lives in
    /// [`WindowedDetector`](ricd_core::temporal::WindowedDetector), which
    /// the replay harness drives directly; the serve tier keeps the
    /// cumulative-stream semantics its checkpoint format promises.
    pub fn ingest_timed(&mut self, seq: u64, records: &[(UserId, ItemId, u32, u64)]) -> BatchStats {
        self.metrics.timed_batches.inc();
        self.metrics.timed_records.add(records.len() as u64);
        if let Some(max_ts) = records.iter().map(|&(_, _, _, ts)| ts).max() {
            let ts = i64::try_from(max_ts).unwrap_or(i64::MAX);
            if ts > self.metrics.event_ts.get() {
                self.metrics.event_ts.set(ts);
            }
        }
        let stripped: Vec<(UserId, ItemId, u32)> =
            records.iter().map(|&(u, v, c, _)| (u, v, c)).collect();
        self.ingest(seq, &stripped)
    }

    /// Rebuilds the serving snapshot from the detector's current result and
    /// publishes it: a new epoch-stamped [`RiskView`], a clone of the
    /// cumulative graph, and the cleaned I2I index with the view's flagged
    /// users subtracted. Queries switch to the new generation atomically.
    pub fn rebuild_view(&mut self) {
        let t0 = self.registry.clock().now();
        self.epoch += 1;
        let result = self.detector.result();
        let view = RiskView::from_result(self.epoch, &result);
        let graph = self.detector.graph().clone();
        let flagged = view.flagged_users();
        let clean_index =
            I2iIndex::build_cleaned(&graph, self.cfg.recommend_per_anchor, &self.pool, &flagged);
        self.metrics.epoch.set(self.epoch as i64);
        self.metrics.view_groups.set(view.groups().len() as i64);
        self.metrics
            .view_flagged_users
            .set(view.num_flagged_users() as i64);
        self.metrics
            .view_flagged_items
            .set(view.num_flagged_items() as i64);
        self.metrics.view_swaps.inc();
        self.shared.store(ServeSnapshot {
            view,
            graph,
            clean_index,
            covered_seq: self.detector.next_seq(),
        });
        self.batches_since_swap = 0;
        if let Some(interval) = self.cfg.swap_interval {
            self.swap_clock = Some(BudgetClock::start(
                RunBudget::none().with_deadline(interval),
            ));
        }
        let elapsed = self.registry.clock().now().saturating_sub(t0);
        self.metrics.swap_nanos.observe_duration(elapsed);
    }

    /// Rebuilds the view only if batches arrived since the last swap. The
    /// worker calls this whenever the ingest queue drains, so a quiet
    /// stream converges to a view covering every accepted batch without
    /// waiting out the cadence.
    pub fn flush(&mut self) {
        if self.batches_since_swap > 0 {
            self.rebuild_view();
        }
    }

    /// A consistent checkpoint of the detector (covers every batch ingested
    /// so far).
    pub fn checkpoint(&self) -> Checkpoint {
        self.detector.checkpoint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ricd_core::RicdParams;

    fn attack_world() -> Vec<Vec<(UserId, ItemId, u32)>> {
        // Hot item + a 12x11 attack arriving over two batches.
        let mut background = Vec::new();
        for u in 1000..2200u32 {
            background.push((UserId(u), ItemId(0), 1));
        }
        let mut attack = Vec::new();
        for u in 0..12u32 {
            attack.push((UserId(u), ItemId(0), 1));
            for v in 1..12u32 {
                attack.push((UserId(u), ItemId(v), 15));
            }
        }
        vec![background, attack]
    }

    fn state(swap_every: usize) -> ServeState {
        let cfg = ServeConfig {
            swap_every_batches: swap_every,
            ..ServeConfig::default()
        };
        ServeState::new(
            cfg,
            RicdPipeline::new(RicdParams::default()).with_pool(WorkerPool::new(2)),
        )
    }

    #[test]
    fn empty_state_serves_epoch_zero() {
        let s = state(4);
        let snap = s.shared().load();
        assert_eq!(snap.view.epoch(), 0);
        assert!(!snap.view.user(UserId(0)).flagged);
        assert!(snap.recommend(UserId(0), 5).is_empty());
    }

    #[test]
    fn cadence_swaps_after_configured_batches() {
        let mut s = state(2);
        let shared = s.shared();
        let batches = attack_world();
        s.ingest(0, &batches[0]);
        assert_eq!(shared.load().view.epoch(), 0, "one batch: no swap yet");
        s.ingest(1, &batches[1]);
        let snap = shared.load();
        assert_eq!(snap.view.epoch(), 1, "second batch hits the cadence");
        assert_eq!(snap.view.groups().len(), 1);
        assert!(snap.view.user(UserId(3)).flagged);
        assert!(snap.view.item(ItemId(5)).flagged);
        assert!(!snap.view.item(ItemId(0)).flagged, "hot item is a victim");
    }

    #[test]
    fn explicit_rebuild_publishes_without_cadence() {
        let mut s = state(100);
        let shared = s.shared();
        for (i, b) in attack_world().iter().enumerate() {
            s.ingest(i as u64, b);
        }
        assert_eq!(shared.load().view.epoch(), 0);
        s.rebuild_view();
        assert_eq!(shared.load().view.epoch(), 1);
        assert_eq!(shared.load().view.groups().len(), 1);
    }

    #[test]
    fn recommendations_are_cleaned() {
        let mut s = state(1);
        for (i, b) in attack_world().iter().enumerate() {
            s.ingest(i as u64, b);
        }
        let snap = s.shared().load();
        // A victim who clicked only the ridden hot item: cleaned lists must
        // not surface the attack's targets.
        let recs = snap.recommend(UserId(1500), 10);
        assert!(
            recs.iter().all(|&(v, _)| !snap.view.item(v).flagged),
            "flagged targets leaked into a victim's list: {recs:?}"
        );
    }

    #[test]
    fn checkpoint_restore_republishes_the_same_view() {
        let mut s = state(1);
        for (i, b) in attack_world().iter().enumerate() {
            s.ingest(i as u64, b);
        }
        let before = s.shared().load();
        let ckpt = s.checkpoint();
        let restored = ServeState::restore(
            ServeConfig::default(),
            RicdPipeline::new(RicdParams::default()).with_pool(WorkerPool::new(2)),
            ckpt,
        );
        let after = restored.shared().load();
        assert_eq!(after.view.groups(), before.view.groups());
        assert_eq!(
            after.view.num_flagged_users(),
            before.view.num_flagged_users()
        );
        assert_eq!(restored.next_seq(), 2);
    }

    #[test]
    fn serve_metrics_are_registered_eagerly_and_track_ingest() {
        let registry = MetricsRegistry::new();
        let mut s = ServeState::new(
            ServeConfig {
                swap_every_batches: 2,
                ..ServeConfig::default()
            },
            RicdPipeline::new(RicdParams::default())
                .with_pool(WorkerPool::new(2))
                .with_metrics(registry.clone()),
        );
        let snap = registry.snapshot();
        for name in [
            "serve.batches",
            "serve.backpressure_rejected",
            "serve.queries_risk",
            "serve.frames_malformed",
            "serve.swaps",
        ] {
            assert_eq!(snap.counter(name), Some(0), "{name} registered at 0");
        }
        assert_eq!(snap.gauge("serve.ingest_queue_depth"), Some(0));
        for (i, b) in attack_world().iter().enumerate() {
            s.ingest(i as u64, b);
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.batches"), Some(2));
        assert!(snap.counter("serve.records").unwrap() > 0);
        assert_eq!(snap.counter("serve.swaps"), Some(1));
        assert_eq!(snap.gauge("serve.epoch"), Some(1));
        assert_eq!(snap.gauge("serve.view_groups"), Some(1));
        let (_, h) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "serve.batch_nanos")
            .expect("batch latency histogram");
        assert_eq!(h.count, 2);
    }

    #[test]
    fn timed_ingest_strips_timestamps_and_tracks_event_time() {
        let registry = MetricsRegistry::new();
        let mut s = ServeState::new(
            ServeConfig {
                swap_every_batches: 1,
                ..ServeConfig::default()
            },
            RicdPipeline::new(RicdParams::default())
                .with_pool(WorkerPool::new(2))
                .with_metrics(registry.clone()),
        );
        for (i, b) in attack_world().iter().enumerate() {
            let timed: Vec<_> = b
                .iter()
                .map(|&(u, v, c)| (u, v, c, 100 * (i as u64 + 1)))
                .collect();
            s.ingest_timed(i as u64, &timed);
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.timed_batches"), Some(2));
        assert_eq!(snap.counter("serve.batches"), Some(2));
        assert_eq!(snap.gauge("serve.event_ts"), Some(200));
        // Detection over the stripped stream matches the untimed path.
        let view = s.shared().load();
        assert_eq!(view.view.groups().len(), 1);
        assert!(view.view.user(UserId(3)).flagged);
    }

    #[test]
    fn interval_deadline_forces_a_swap_mid_cadence() {
        let cfg = ServeConfig {
            swap_every_batches: 1000,
            swap_interval: Some(Duration::ZERO),
            ..ServeConfig::default()
        };
        let mut s = ServeState::new(
            cfg,
            RicdPipeline::new(RicdParams::default()).with_pool(WorkerPool::new(2)),
        );
        s.ingest(0, &[(UserId(1), ItemId(1), 1)]);
        assert_eq!(s.shared().load().view.epoch(), 1, "zero interval swaps");
    }
}
