//! The replicated router: fans every accepted batch out to N supervised
//! replicas and answers queries from the freshest healthy one.
//!
//! **Replication.** Each replica is a full [`ServeState`] over the whole
//! click stream. The paper's attack groups ride hot items, so a user-hash
//! partition had to copy almost every item's neighbourhood to every shard
//! anyway; replicating outright costs the same records and needs no
//! routing table, no backfill and no per-query merge. Every replica gets
//! the same `Arc` of each batch in the same order, so healthy replicas
//! publish identical verdicts — the monolith's.
//!
//! **Zero accepted-batch loss.** An accepted batch is appended to every
//! replica's replay log *before* the accept reply is written; logs are
//! truncated only when a coordinated checkpoint durably covers them. A
//! replica crash therefore loses at most un-acked work: the supervisor
//! restores the replica from its last checkpoint and the replacement
//! worker replays the retained log, deduplicated by local sequence number.
//!
//! **Degradation contract.** Queries answer from the `Up` replica whose
//! view covers the most of the stream. Only when no replica is `Up` is
//! the answer tagged `degraded: true`; it then comes from the freshest
//! replica that is not `Down` (a `Recovering` replica's cell holds its
//! last published view), or is empty when every replica is `Down`.
//! `missing_shards` lists the `Down` replicas either way. Ingest keeps
//! flowing while a replica is down: batches buffer into its replay log up
//! to [`buffer_per_shard`](RouterConfig::buffer_per_shard), after which
//! the whole batch gets an explicit backpressure `Rejected` (the monolith
//! queue's contract: the router never buffers unboundedly). The published
//! epoch is a **quorum watermark**: it advances to `min(epoch of Up
//! replicas)` only while at least `⌊N/2⌋+1` replicas are `Up`, and
//! freezes (never regresses) below quorum.

use crate::manifest::{Manifest, ManifestEntry, MANIFEST_VERSION};
use crate::state::{ServeConfig, ServeMetrics, ServeSnapshot};
use crate::supervisor::{
    ShardHealth, ShardSlot, ShardStateFactory, Supervisor, SupervisorConfig, SupervisorMetrics,
};
use crate::wire::{Request, Response, ShardStatus};
use ricd_core::riskview::RiskView;
use ricd_core::RicdParams;
use ricd_engine::{ServeFaultInjector, ServeFaultPlan};
use ricd_graph::{ItemId, UserId};
use ricd_obs::{Counter, Gauge, MetricsRegistry};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Replicated-runtime configuration.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Replica count (1..=64 — each replica is a full `ServeState`, so
    /// memory grows linearly with it).
    pub shards: usize,
    /// Detection parameters every shard runs with.
    pub params: RicdParams,
    /// Per-shard serving template (swap cadence, queue knobs, io timeout).
    /// `metrics_prefix` is overridden per shard.
    pub serve: ServeConfig,
    /// Detection worker threads per shard.
    pub workers_per_shard: usize,
    /// Max *unprocessed* batches buffered per shard before the router
    /// answers `Rejected` (explicit backpressure, incl. for down shards).
    pub buffer_per_shard: usize,
    /// Supervision knobs (probe cadence, stall budget, restart backoff).
    pub supervisor: SupervisorConfig,
    /// Where coordinated checkpoints (per-shard files + `manifest.json`)
    /// are written. `None` keeps checkpoints in memory only — still
    /// enough for worker-crash recovery, not for process-crash recovery.
    pub checkpoint_dir: Option<PathBuf>,
    /// Auto-checkpoint after this many accepted batches (0 = manual
    /// only). The cadence is what bounds replay-log memory.
    pub checkpoint_every_batches: u64,
    /// Chaos plan armed into the shard workers (empty in production).
    pub fault_plan: ServeFaultPlan,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            params: RicdParams::default(),
            serve: ServeConfig::default(),
            workers_per_shard: 1,
            buffer_per_shard: 64,
            supervisor: SupervisorConfig::default(),
            checkpoint_dir: None,
            checkpoint_every_batches: 32,
            fault_plan: ServeFaultPlan::none(),
        }
    }
}

/// Router-side mutable state, serialized under one lock so every replica
/// log receives batches in the same order.
struct RouteTable {
    /// Global-sequence dedup: batches below this were already accepted
    /// (at-least-once redelivery is acked idempotently, never re-routed).
    next_global_seq: u64,
    accepted_since_checkpoint: u64,
}

/// Router-level metrics beyond the aggregate `serve.*` family.
struct RouterMetrics {
    degraded_queries: Counter,
    checkpoints: Counter,
    quorum: Gauge,
    live_shards: Gauge,
}

impl RouterMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        // Replicas copy no halo, so this stays 0; it stays registered
        // because dashboards and the benchmark's trace read it.
        registry.counter("serve.router.halo_records");
        Self {
            degraded_queries: registry.counter("serve.router.degraded_queries"),
            checkpoints: registry.counter("serve.router.checkpoints"),
            quorum: registry.gauge("serve.router.quorum"),
            live_shards: registry.gauge("serve.router.live_shards"),
        }
    }
}

/// The routed serve runtime: everything the connection pool and the
/// supervisor share.
pub struct Router {
    cfg: RouterConfig,
    slots: Vec<Arc<ShardSlot>>,
    registry: MetricsRegistry,
    /// Aggregate client-visible metrics, registered under the plain
    /// `serve.` prefix so dashboards don't care whether a daemon is
    /// monolithic or sharded.
    agg: ServeMetrics,
    rm: RouterMetrics,
    route: Mutex<RouteTable>,
    /// Serializes coordinated checkpoints: two interleaved runs could
    /// otherwise commit an older barrier's mirrors after a newer one
    /// already truncated the replay logs past them.
    ckpt_lock: Mutex<()>,
    /// A cadence checkpoint is in flight on its own thread; don't stack
    /// another behind it.
    cadence_inflight: AtomicBool,
    /// Handle of the in-flight cadence thread. Joined during drain so a
    /// cadence checkpoint's file writes can never outlive the topology
    /// (a resuming process may already be reading the checkpoint dir).
    cadence_join: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// The quorum epoch watermark (monotone).
    epoch: AtomicU64,
    shutdown: Arc<AtomicBool>,
}

impl Router {
    /// Builds the router and its shard slots. `initial` carries per-shard
    /// checkpoints when resuming from a manifest.
    fn build(cfg: RouterConfig, registry: MetricsRegistry) -> Arc<Self> {
        assert!(
            (1..=64).contains(&cfg.shards),
            "shard count must be in 1..=64 (got {})",
            cfg.shards
        );
        let slots = Supervisor::new_slots(cfg.shards);
        let agg = ServeMetrics::register(&registry, "serve");
        let rm = RouterMetrics::register(&registry);
        rm.quorum.set(Self::quorum_of(cfg.shards) as i64);
        rm.live_shards.set(cfg.shards as i64);
        Arc::new(Self {
            cfg,
            slots,
            registry,
            agg,
            rm,
            route: Mutex::new(RouteTable {
                next_global_seq: 0,
                accepted_since_checkpoint: 0,
            }),
            ckpt_lock: Mutex::new(()),
            cadence_inflight: AtomicBool::new(false),
            cadence_join: Mutex::new(None),
            epoch: AtomicU64::new(0),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// A fresh router.
    pub fn new(cfg: RouterConfig, registry: MetricsRegistry) -> Arc<Self> {
        Self::build(cfg, registry)
    }

    fn quorum_of(shards: usize) -> usize {
        shards / 2 + 1
    }

    /// Shards required `Up` before the epoch watermark may advance.
    pub fn quorum(&self) -> usize {
        Self::quorum_of(self.cfg.shards)
    }

    pub(crate) fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    pub(crate) fn agg_metrics(&self) -> &ServeMetrics {
        &self.agg
    }

    pub(crate) fn shutdown_flag(&self) -> Arc<AtomicBool> {
        self.shutdown.clone()
    }

    /// Accepts one batch: appends one shared copy of it to every
    /// replica's replay log. Two-phase: admission is checked against every
    /// replica's backlog before anything is appended, so a rejected batch
    /// leaves no trace and the client's retry is routed identically. A
    /// batch with no records is acked and appended nowhere.
    pub fn route_batch(&self, seq: u64, records: Vec<(UserId, ItemId, u32)>) -> Response {
        let len = records.len();
        let mut route = self.route.lock().expect("route table poisoned");
        if seq < route.next_global_seq {
            // At-least-once redelivery of an already-accepted batch:
            // idempotent ack, nothing re-routed.
            return Response::Ingested { seq, records: len };
        }
        if len > 0 {
            // Admission: every replica's log must have room.
            let full = self
                .slots
                .iter()
                .any(|s| s.channel.backlog() >= self.cfg.buffer_per_shard as u64);
            if full {
                self.agg.backpressure_rejected.inc();
                return Response::Rejected {
                    seq,
                    queue_capacity: self.cfg.buffer_per_shard,
                };
            }
            let batch = Arc::new(records);
            for slot in &self.slots {
                slot.channel.push(batch.clone());
            }
        }
        route.next_global_seq = seq + 1;
        route.accepted_since_checkpoint += 1;
        self.agg.batches.inc();
        self.agg.records.add(len as u64);
        drop(route);
        self.refresh_depth_gauge();
        Response::Ingested { seq, records: len }
    }

    fn refresh_depth_gauge(&self) {
        let total: u64 = self.slots.iter().map(|s| s.channel.backlog()).sum();
        self.agg.ingest_queue_depth.set(total as i64);
    }

    /// Recomputes the quorum watermark: advances to the minimum `Up`
    /// epoch while quorum holds, freezes otherwise. Monotone by `max`.
    pub(crate) fn refresh_epoch(&self) -> u64 {
        let up: Vec<u64> = self
            .slots
            .iter()
            .filter(|s| s.health() == ShardHealth::Up)
            .map(|s| s.epoch())
            .collect();
        self.rm.live_shards.set(
            self.slots
                .iter()
                .filter(|s| s.health() != ShardHealth::Down)
                .count() as i64,
        );
        if up.len() >= self.quorum() {
            // fetch_max keeps the watermark monotone under concurrent
            // callers (every query refreshes it).
            let candidate = up.into_iter().min().unwrap_or(0);
            self.epoch.fetch_max(candidate, Ordering::SeqCst);
        }
        let e = self.epoch.load(Ordering::SeqCst);
        self.agg.epoch.set(e as i64);
        e
    }

    /// The snapshot queries read: the `Up` replica whose view covers the
    /// highest stream sequence (lowest index on a tie). View epochs count
    /// each replica's own swaps and restart at 0 on restore, so they do not
    /// compare across replicas. With no replica `Up` the answer is
    /// degraded and comes from the freshest replica that is not `Down`,
    /// or is `None` when every replica is `Down`. Also returns whether the
    /// answer is degraded and the `Down` replicas.
    fn answering_snapshot(&self) -> (Option<Arc<ServeSnapshot>>, bool, Vec<u32>) {
        let health: Vec<ShardHealth> = self.slots.iter().map(|s| s.health()).collect();
        let degraded = !health.contains(&ShardHealth::Up);
        if degraded {
            self.rm.degraded_queries.inc();
        }
        // With none `Up`, "not `Down`" means `Recovering`.
        let eligible = if degraded {
            ShardHealth::Recovering
        } else {
            ShardHealth::Up
        };
        let snap = self
            .slots
            .iter()
            .zip(&health)
            .filter(|&(_, &h)| h == eligible)
            .map(|(s, _)| s.cell.load())
            // `min_by_key` keeps the first of equal keys: the lowest index.
            .min_by_key(|snap| std::cmp::Reverse(snap.covered_seq));
        let down = (0..)
            .zip(&health)
            .filter(|&(_, &h)| h == ShardHealth::Down)
            .map(|(i, _)| i)
            .collect();
        (snap, degraded, down)
    }

    /// Risk query answered by one replica's view.
    pub fn query_risk(&self, users: Vec<UserId>, items: Vec<ItemId>) -> Response {
        self.agg.queries_risk.inc();
        let epoch = self.refresh_epoch();
        let (snap, degraded, missing_shards) = self.answering_snapshot();
        let empty = RiskView::empty();
        let view = snap.as_ref().map_or(&empty, |s| &s.view);
        Response::Risk {
            epoch,
            users: users.into_iter().map(|u| (u, view.user(u))).collect(),
            items: items.into_iter().map(|i| (i, view.item(i))).collect(),
            groups: view.groups().len(),
            degraded,
            missing_shards,
        }
    }

    /// Recommendation from the replica risk queries read; empty and
    /// degraded when every replica is down.
    pub fn recommend(&self, user: UserId, n: usize) -> Response {
        self.agg.queries_recommend.inc();
        let epoch = self.refresh_epoch();
        let (snap, degraded, _) = self.answering_snapshot();
        Response::Recommendation {
            epoch,
            items: snap.map_or_else(Vec::new, |s| s.recommend(user, n)),
            degraded,
        }
    }

    /// Topology health for `ricd client status`.
    pub fn status(&self) -> Response {
        let epoch = self.refresh_epoch();
        let shards = self
            .slots
            .iter()
            .map(|s| ShardStatus {
                shard: s.shard as u32,
                state: s.health().as_str().into(),
                epoch: s.epoch(),
                backlog: s.channel.backlog(),
                next_seq: s.channel.next_seq(),
                restarts: s.restarts.load(Ordering::SeqCst),
            })
            .collect::<Vec<_>>();
        Response::Status {
            epoch,
            quorum: self.quorum() as u32,
            degraded: shards.iter().any(|s| s.state != "up"),
            shards,
        }
    }

    /// Coordinated checkpoint: barriers every shard at its current log
    /// tail, collects the per-shard checkpoints, writes files + manifest
    /// atomically (when a checkpoint directory is configured), mirrors
    /// them in memory for fast worker restarts, and only then truncates
    /// the replay logs. Barriers ride the shard logs, so they survive a
    /// mid-checkpoint worker crash and are answered after recovery.
    pub fn checkpoint_coordinated(&self, deadline: Duration) -> Result<Response, String> {
        let _serial = self.ckpt_lock.lock().expect("checkpoint lock poisoned");
        // Capture the global cursor and enqueue every barrier under ONE
        // route-lock hold. route_batch appends batches and advances
        // next_global_seq under the same lock, so every batch below the
        // captured cursor reached the replay logs before any barrier —
        // i.e. is covered by every shard checkpoint — and every batch at
        // or above it stays in the logs after truncation. Capturing after
        // the barriers instead would let a batch slip between barrier
        // enqueue and capture: excluded from the checkpoints yet below the
        // manifest cursor, so its redelivery after a process restart would
        // be deduped away — silent loss.
        let (next_global_seq, receivers) = {
            let route = self.route.lock().expect("route table poisoned");
            let receivers: Vec<_> = self
                .slots
                .iter()
                .map(|slot| {
                    let (tx, rx) = std::sync::mpsc::sync_channel(1);
                    slot.channel.request_checkpoint(tx);
                    rx
                })
                .collect();
            (route.next_global_seq, receivers)
        };
        let t0 = Instant::now();
        let mut ckpts = Vec::with_capacity(self.slots.len());
        for (i, rx) in receivers.into_iter().enumerate() {
            let left = deadline.saturating_sub(t0.elapsed());
            match rx.recv_timeout(left) {
                Ok(c) => ckpts.push(c),
                Err(RecvTimeoutError::Timeout) => {
                    return Err(format!("shard {i} missed the checkpoint barrier"))
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(format!("shard {i} died before the checkpoint barrier"))
                }
            }
        }
        let epoch = self.refresh_epoch();
        let mut path = String::new();
        if let Some(dir) = &self.cfg.checkpoint_dir {
            let mut entries = Vec::with_capacity(ckpts.len());
            for (i, c) in ckpts.iter().enumerate() {
                let file = Manifest::write_shard_checkpoint(dir, i as u32, c)
                    .map_err(|e| format!("shard {i} checkpoint write: {e}"))?;
                entries.push(ManifestEntry {
                    shard: i as u32,
                    file,
                    next_seq: c.next_seq,
                    epoch: self.slots[i].epoch(),
                });
            }
            let manifest = Manifest {
                version: MANIFEST_VERSION,
                shards: self.cfg.shards as u32,
                epoch,
                next_global_seq,
                entries,
            };
            path = manifest
                .save(dir)
                .map_err(|e| format!("manifest write: {e}"))?
                .display()
                .to_string();
        }
        // Commit point passed: mirror + truncate. The monotonicity guard
        // is belt-and-braces under ckpt_lock serialization — a stale
        // checkpoint must never replace a newer mirror whose log prefix
        // was already truncated.
        for (slot, c) in self.slots.iter().zip(&ckpts) {
            let mut mirror = slot.last_checkpoint.lock().expect("slot poisoned");
            if mirror.as_ref().is_none_or(|m| m.next_seq <= c.next_seq) {
                *mirror = Some(c.clone());
                drop(mirror);
                slot.channel.truncate_to(c.next_seq);
            }
        }
        {
            let mut route = self.route.lock().expect("route table poisoned");
            route.accepted_since_checkpoint = 0;
        }
        self.rm.checkpoints.inc();
        Ok(Response::ManifestWritten {
            path,
            shards: self.cfg.shards as u32,
            epoch,
        })
    }

    /// The probe-loop hook: refresh the watermark and gauges, and fire
    /// the checkpoint cadence once every shard is `Up` (a degraded
    /// topology defers the cadence rather than failing it). The cadence
    /// checkpoint runs on its own thread: a shard dying right after the
    /// all-`Up` check would otherwise pin the supervisor inside the
    /// barrier wait for the full deadline, during which no shard is
    /// probed, stall-detected, or restarted — and the barrier itself is
    /// only answered once the supervisor restarts the dead worker.
    pub(crate) fn on_probe(self: &Arc<Self>) {
        self.refresh_epoch();
        self.refresh_depth_gauge();
        if self.cfg.checkpoint_every_batches == 0 {
            return;
        }
        if self.shutdown.load(Ordering::SeqCst) {
            // Draining: start no new cadence checkpoint, and wait out any
            // in-flight one. A detached cadence thread would otherwise
            // write shard files and the manifest *after* the supervisor
            // returned — i.e. while a resuming process is already reading
            // the checkpoint directory — handing it a torn set (old
            // manifest cursor, newer shard files) that double-ingests
            // redelivered batches. Draining workers answer pending
            // barriers before they exit, so this join is bounded by the
            // checkpoint deadline, not the drain.
            let handle = self
                .cadence_join
                .lock()
                .expect("cadence handle poisoned")
                .take();
            if let Some(h) = handle {
                let _ = h.join();
            }
            return;
        }
        let due = {
            let route = self.route.lock().expect("route table poisoned");
            route.accepted_since_checkpoint >= self.cfg.checkpoint_every_batches
        };
        let all_up = self.slots.iter().all(|s| s.health() == ShardHealth::Up);
        if due && all_up && !self.cadence_inflight.swap(true, Ordering::SeqCst) {
            let me = self.clone();
            let spawned = std::thread::Builder::new()
                .name("ricd-ckpt-cadence".into())
                .spawn(move || {
                    let _ = me.checkpoint_coordinated(Duration::from_secs(60));
                    me.cadence_inflight.store(false, Ordering::SeqCst);
                });
            match spawned {
                Ok(h) => {
                    // `cadence_inflight` was false, so any previous thread
                    // has finished its work; joining it is near-instant.
                    let prev = self
                        .cadence_join
                        .lock()
                        .expect("cadence handle poisoned")
                        .replace(h);
                    if let Some(old) = prev {
                        let _ = old.join();
                    }
                }
                Err(_) => self.cadence_inflight.store(false, Ordering::SeqCst),
            }
        }
    }

    /// Handles one wire request against the routed topology.
    pub fn handle(&self, req: Request) -> Response {
        match req {
            Request::Ingest { seq, records } => self.route_batch(seq, records),
            Request::IngestTimed { seq, records } => {
                // Event time is recorded at the router's aggregate family;
                // replicas receive the stripped triples so routing,
                // dedup, and checkpoints are identical to untimed ingest.
                self.agg.timed_batches.inc();
                self.agg.timed_records.add(records.len() as u64);
                if let Some(max_ts) = records.iter().map(|&(_, _, _, ts)| ts).max() {
                    let ts = i64::try_from(max_ts).unwrap_or(i64::MAX);
                    if ts > self.agg.event_ts.get() {
                        self.agg.event_ts.set(ts);
                    }
                }
                let stripped = records.iter().map(|&(u, v, c, _)| (u, v, c)).collect();
                self.route_batch(seq, stripped)
            }
            Request::QueryRisk { users, items } => self.query_risk(users, items),
            Request::Recommend { user, n } => self.recommend(user, n),
            Request::Metrics { count_only } => {
                let snap = self.registry.snapshot();
                Response::Metrics(if count_only { snap.count_only() } else { snap })
            }
            Request::Checkpoint => {
                match self
                    .checkpoint_coordinated(self.cfg.serve.io_timeout.max(Duration::from_secs(60)))
                {
                    Ok(resp) => resp,
                    Err(e) => Response::Error {
                        message: format!("coordinated checkpoint failed: {e}"),
                    },
                }
            }
            Request::Status => self.status(),
            // The connection layer flips the shutdown flag (and wakes the
            // accept loop) after this response is written.
            Request::Shutdown => Response::ShuttingDown,
        }
    }

    /// Builds the supervisor that owns this router's shard workers. The
    /// caller runs it on a dedicated thread.
    pub(crate) fn supervisor(self: &Arc<Self>) -> Supervisor {
        let me = self.clone();
        Supervisor {
            slots: self.slots.clone(),
            factory: ShardStateFactory {
                params: self.cfg.params,
                registry: self.registry.clone(),
                template: self.cfg.serve.clone(),
                workers_per_shard: self.cfg.workers_per_shard,
            },
            cfg: self.cfg.supervisor.clone(),
            injector: Arc::new(ServeFaultInjector::new(self.cfg.fault_plan.clone())),
            metrics: SupervisorMetrics::register(&self.registry, self.cfg.shards),
            shutdown: self.shutdown.clone(),
            on_probe: Box::new(move || me.on_probe()),
        }
    }

    /// Initial per-replica checkpoints when resuming from `manifest`; also
    /// restores the global-sequence cursor and the epoch watermark.
    pub(crate) fn load_resume_state(
        self: &Arc<Self>,
        manifest: &Manifest,
        dir: &std::path::Path,
    ) -> Result<Vec<Option<ricd_core::incremental::Checkpoint>>, String> {
        if manifest.shards as usize != self.cfg.shards {
            return Err(format!(
                "manifest is for {} shards, router runs {}",
                manifest.shards, self.cfg.shards
            ));
        }
        let mut initial = Vec::with_capacity(self.cfg.shards);
        let mut route = self.route.lock().expect("route table poisoned");
        route.next_global_seq = manifest.next_global_seq;
        for entry in &manifest.entries {
            let ckpt = Manifest::load_shard_checkpoint(dir, entry)
                .map_err(|e| format!("shard {}: {e}", entry.shard))?;
            // A shard file whose cursor disagrees with the manifest entry
            // written alongside it means the set is torn — e.g. another
            // process is still writing checkpoints into this directory.
            // Resuming anyway would mis-place the dedup cut and double- or
            // under-ingest redelivered batches; fail loudly instead.
            if ckpt.next_seq != entry.next_seq {
                return Err(format!(
                    "shard {}: checkpoint file covers sequences below {} but the \
                     manifest records {} — torn checkpoint set (is another process \
                     still writing to this checkpoint directory?)",
                    entry.shard, ckpt.next_seq, entry.next_seq
                ));
            }
            // Fast-forward the shard channel and seed the restart mirror
            // *now*, synchronously — before the accept loop exists — so the
            // first routed batches are numbered after the restored
            // detector's cursor (the supervisor thread starts too late to
            // win that race).
            let slot = &self.slots[entry.shard as usize];
            slot.channel.resume_at(ckpt.next_seq);
            *slot.last_checkpoint.lock().expect("slot poisoned") = Some(ckpt.clone());
            initial.push(Some(ckpt));
        }
        self.epoch.store(manifest.epoch, Ordering::SeqCst);
        Ok(initial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ServeState;
    use ricd_core::RicdPipeline;
    use ricd_engine::WorkerPool;

    #[test]
    fn queries_answer_from_the_replica_covering_the_most_batches() {
        let cfg = ServeConfig {
            swap_every_batches: 1,
            ..ServeConfig::default()
        };
        let pipeline = || RicdPipeline::new(RicdParams::default()).with_pool(WorkerPool::new(1));
        let batch = |seq: u64| -> Vec<_> {
            (0..20u32)
                .map(|i| (UserId(seq as u32 * 20 + i), ItemId(i % 4), 1))
                .collect()
        };
        let router = Router::new(RouterConfig::default(), MetricsRegistry::new());
        let [a, b] = [&router.slots[0], &router.slots[1]];

        // Replica 0 never restarted: three batches, three swaps (epoch 3).
        let mut state_a = ServeState::new_in_cell(cfg.clone(), pipeline(), a.cell.clone());
        for seq in 0..3 {
            state_a.ingest(seq, &batch(seq));
        }
        // Replica 1 restored a checkpoint covering four batches and took a
        // fifth: two swaps since the restore (epoch 2).
        let mut before = ServeState::new(cfg.clone(), pipeline());
        for seq in 0..4 {
            before.ingest(seq, &batch(seq));
        }
        let ckpt = before.checkpoint();
        let mut state_b = ServeState::restore_in_cell(cfg, pipeline(), ckpt, b.cell.clone());
        state_b.ingest(4, &batch(4));
        assert_eq!((a.epoch(), b.epoch()), (3, 2));

        let (snap, degraded, down) = router.answering_snapshot();
        assert!(!degraded && down.is_empty());
        let snap = snap.expect("an Up replica answers");
        assert!(
            Arc::ptr_eq(&snap, &b.cell.load()),
            "answered from the epoch-{} view, not the one covering five batches",
            snap.view.epoch()
        );

        // Equal coverage: the lowest index answers.
        for seq in 3..5 {
            state_a.ingest(seq, &batch(seq));
        }
        let (snap, _, _) = router.answering_snapshot();
        assert!(Arc::ptr_eq(&snap.expect("answered"), &a.cell.load()));
    }
}
