//! Shard workers and the supervision tree that keeps them alive.
//!
//! Each shard of the routed runtime is one [`ShardSlot`]: a replay-log
//! channel the router appends every accepted batch to, a snapshot cell
//! queries read from, and health/heartbeat state the supervisor probes.
//! The worker thread owning the shard's [`ServeState`] is **expendable** —
//! it processes batches by *reading* the log (entries are only dropped
//! when a checkpoint durably covers them), so a panic loses nothing: the
//! supervisor joins the dead thread, rebuilds a `ServeState` from the
//! shard's last checkpoint into the *same* snapshot cell, and the new
//! worker replays the retained log. Replay is exactly-once end to end
//! because local sequence numbers ride with the log and the
//! `StreamingDetector` deduplicates by sequence (PR 1's contract).
//!
//! Health is three-valued, probed rather than self-reported where it
//! matters:
//!
//! * `Up` — thread alive, caught up past its recovery target;
//! * `Recovering` — a restarted worker replaying toward the log tail it
//!   was restarted at;
//! * `Down` — the thread is dead (join returned a panic) or stalled (work
//!   pending but no heartbeat within the stall budget). A stalled thread
//!   cannot be killed from outside; marking it `Down` takes it out of
//!   the query rotation until it resumes and re-beats.

use crate::retry::RetryPolicy;
use crate::shared::SnapshotCell;
use crate::state::{ServeConfig, ServeSnapshot, ServeState};
use ricd_core::incremental::Checkpoint;
use ricd_core::{RicdParams, RicdPipeline};
use ricd_engine::{ServeFault, ServeFaultInjector, WorkerPool};
use ricd_graph::{ItemId, UserId};
use ricd_obs::{Counter, Gauge, MetricsRegistry};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A shard's probed health.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardHealth {
    /// Dead or stalled; its view is excluded from queries.
    Down,
    /// Restarted and replaying its log toward the restart-time tail.
    Recovering,
    /// Alive and caught up.
    Up,
}

impl ShardHealth {
    fn from_u8(v: u8) -> Self {
        match v {
            0 => ShardHealth::Down,
            1 => ShardHealth::Recovering,
            _ => ShardHealth::Up,
        }
    }

    /// The wire-protocol spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ShardHealth::Down => "down",
            ShardHealth::Recovering => "recovering",
            ShardHealth::Up => "up",
        }
    }
}

/// A checkpoint barrier riding the shard's log: executed only once the
/// worker's `next` passes `upto`, i.e. after every batch appended before
/// the barrier was requested. Barriers live in the channel, not the
/// worker, so they survive a worker crash and are satisfied by the
/// replacement after replay.
struct CheckpointBarrier {
    upto: u64,
    reply: SyncSender<Checkpoint>,
}

/// The replay-log channel between router and one shard worker.
struct ChannelInner {
    /// Local sequence of `log[0]`.
    base: u64,
    /// Batches retained for crash replay; truncated only when
    /// a checkpoint covers them.
    log: VecDeque<Arc<Vec<(UserId, ItemId, u32)>>>,
    /// Local sequence of the next batch the worker will process.
    next: u64,
    /// Pending checkpoint barriers.
    barriers: Vec<CheckpointBarrier>,
    /// Graceful drain requested: finish the log, flush, exit.
    shutdown: bool,
}

impl ChannelInner {
    fn tail(&self) -> u64 {
        self.base + self.log.len() as u64
    }
}

/// What a worker found on its channel.
enum Task {
    Batch(u64, Arc<Vec<(UserId, ItemId, u32)>>),
    Checkpoint(SyncSender<Checkpoint>),
    /// Log dry; `true` = drain-and-exit was requested.
    Idle(bool),
}

/// The shard channel: a mutex-guarded replay log plus a condvar workers
/// park on.
pub(crate) struct ShardChannel {
    inner: Mutex<ChannelInner>,
    work: Condvar,
}

impl ShardChannel {
    fn new() -> Self {
        Self {
            inner: Mutex::new(ChannelInner {
                base: 0,
                log: VecDeque::new(),
                next: 0,
                barriers: Vec::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ChannelInner> {
        self.inner.lock().expect("shard channel poisoned")
    }

    /// Appends a batch, returning its local sequence.
    pub(crate) fn push(&self, records: Arc<Vec<(UserId, ItemId, u32)>>) -> u64 {
        let seq = {
            let mut inner = self.lock();
            let seq = inner.tail();
            inner.log.push_back(records);
            seq
        };
        self.work.notify_all();
        seq
    }

    /// Unprocessed batches (`tail - next`): the admission-control bound.
    pub(crate) fn backlog(&self) -> u64 {
        let inner = self.lock();
        inner.tail().saturating_sub(inner.next)
    }

    /// The worker's next local sequence.
    pub(crate) fn next_seq(&self) -> u64 {
        self.lock().next
    }

    /// Enqueues a checkpoint barrier at the current tail; the reply fires
    /// once the worker has processed everything appended before this call.
    ///
    /// Refused once the channel is draining: the worker may already have
    /// exited (it answers every barrier it can see before doing so), and a
    /// barrier enqueued past that point would never fire — the requester
    /// would block out its whole deadline. Dropping the reply here makes
    /// the requester's `recv` fail immediately instead.
    pub(crate) fn request_checkpoint(&self, reply: SyncSender<Checkpoint>) {
        {
            let mut inner = self.lock();
            if inner.shutdown {
                return;
            }
            let upto = inner.tail();
            inner.barriers.push(CheckpointBarrier { upto, reply });
        }
        self.work.notify_all();
    }

    /// Drops log entries durably covered by a checkpoint (`< seq`).
    pub(crate) fn truncate_to(&self, seq: u64) {
        let mut inner = self.lock();
        while inner.base < seq && !inner.log.is_empty() {
            inner.log.pop_front();
            inner.base += 1;
        }
    }

    /// Rewinds the worker cursor to `seq` (a restart replaying from its
    /// checkpoint). Clamped to the retained range.
    fn rewind_to(&self, seq: u64) {
        let mut inner = self.lock();
        inner.next = seq.max(inner.base).min(inner.tail());
    }

    /// Fast-forwards a fresh (empty) channel so local sequences continue
    /// from a restored checkpoint: a resumed process starts with an empty
    /// log, but the restored detector's cursor is already at
    /// `ckpt.next_seq` — without this, new pushes would number from 0 and
    /// be discarded as replays. No-op once the log holds entries.
    pub(crate) fn resume_at(&self, seq: u64) {
        let mut inner = self.lock();
        if inner.log.is_empty() && inner.base < seq {
            inner.base = seq;
            inner.next = seq;
        }
    }

    /// Requests a graceful drain: the worker finishes the log and exits.
    pub(crate) fn begin_drain(&self) {
        self.lock().shutdown = true;
        self.work.notify_all();
    }

    /// Non-blocking scan for the worker's next task.
    fn next_task(&self) -> Task {
        let mut inner = self.lock();
        let next = inner.next;
        if let Some(pos) = inner.barriers.iter().position(|b| b.upto <= next) {
            return Task::Checkpoint(inner.barriers.remove(pos).reply);
        }
        if inner.next < inner.tail() {
            let idx = (inner.next - inner.base) as usize;
            return Task::Batch(inner.next, inner.log[idx].clone());
        }
        Task::Idle(inner.shutdown)
    }

    /// Parks until work might be available (bounded, so heartbeats and
    /// shutdown checks still happen on an idle shard).
    fn wait_for_work(&self, timeout: Duration) {
        let inner = self.lock();
        let _ = self
            .work
            .wait_timeout(inner, timeout)
            .expect("shard channel poisoned");
    }
}

/// Everything shared about one shard between router, supervisor, and the
/// (current) worker thread.
pub(crate) struct ShardSlot {
    /// Shard index.
    pub(crate) shard: usize,
    /// The snapshot cell this shard's queries read from — stable across
    /// worker restarts.
    pub(crate) cell: Arc<SnapshotCell<ServeSnapshot>>,
    /// The replay-log channel.
    pub(crate) channel: ShardChannel,
    /// Probed health (`ShardHealth` as u8).
    health: AtomicU8,
    /// Last sign of life, as nanos since the supervisor's start instant.
    heartbeat: AtomicU64,
    /// Supervisor restarts of this shard.
    pub(crate) restarts: AtomicU64,
    /// Local sequence a recovering worker must reach before going `Up`.
    recovery_target: AtomicU64,
    /// In-memory mirror of the shard's last coordinated checkpoint — what
    /// a restart rebuilds from (identical to the on-disk file when a
    /// checkpoint directory is configured).
    pub(crate) last_checkpoint: Mutex<Option<Checkpoint>>,
}

impl ShardSlot {
    fn new(shard: usize) -> Self {
        Self {
            shard,
            cell: Arc::new(SnapshotCell::new(ServeSnapshot::empty())),
            channel: ShardChannel::new(),
            health: AtomicU8::new(2),
            heartbeat: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            recovery_target: AtomicU64::new(0),
            last_checkpoint: Mutex::new(None),
        }
    }

    pub(crate) fn health(&self) -> ShardHealth {
        ShardHealth::from_u8(self.health.load(Ordering::SeqCst))
    }

    pub(crate) fn set_health(&self, h: ShardHealth) {
        self.health.store(h as u8, Ordering::SeqCst);
    }

    /// The shard's latest published view epoch.
    pub(crate) fn epoch(&self) -> u64 {
        self.cell.load().view.epoch()
    }

    fn beat(&self, origin: Instant) {
        self.heartbeat
            .store(origin.elapsed().as_nanos() as u64, Ordering::SeqCst);
    }
}

/// Builds fresh or restored per-shard [`ServeState`]s — kept by the
/// supervisor because a restart must construct a brand-new state (the old
/// one died with its thread).
pub(crate) struct ShardStateFactory {
    pub(crate) params: RicdParams,
    pub(crate) registry: MetricsRegistry,
    pub(crate) template: ServeConfig,
    pub(crate) workers_per_shard: usize,
}

impl ShardStateFactory {
    fn config_for(&self, shard: usize) -> ServeConfig {
        ServeConfig {
            metrics_prefix: format!("serve.shard.{shard}"),
            ..self.template.clone()
        }
    }

    fn pipeline(&self) -> RicdPipeline {
        RicdPipeline::new(self.params)
            .with_pool(WorkerPool::new(self.workers_per_shard.max(1)))
            .with_metrics(self.registry.clone())
    }

    pub(crate) fn build(&self, slot: &ShardSlot, ckpt: Option<Checkpoint>) -> ServeState {
        let cfg = self.config_for(slot.shard);
        match ckpt {
            Some(c) => ServeState::restore_in_cell(cfg, self.pipeline(), c, slot.cell.clone()),
            None => ServeState::new_in_cell(cfg, self.pipeline(), slot.cell.clone()),
        }
    }
}

/// How often an idle worker wakes to re-check shutdown and heartbeat.
const WORKER_IDLE_WAIT: Duration = Duration::from_millis(20);

/// The shard worker loop: drain the replay log, honor checkpoint
/// barriers, flush the view when dry, heartbeat throughout. Returns the
/// final state on graceful drain. Panics (deliberately un-caught) when a
/// kill fault fires — crash recovery is the supervisor's job, and the
/// panic site is chosen so no lock is poisoned: faults fire after the
/// batch is cloned out of the channel and before any state mutation.
fn shard_worker(
    slot: Arc<ShardSlot>,
    mut state: ServeState,
    injector: Arc<ServeFaultInjector>,
    origin: Instant,
) -> ServeState {
    loop {
        slot.beat(origin);
        match slot.channel.next_task() {
            Task::Batch(seq, records) => {
                match injector.take(slot.shard, seq) {
                    Some(ServeFault::Kill) => {
                        panic!("serve chaos: kill shard {} at seq {seq}", slot.shard)
                    }
                    Some(ServeFault::Stall { millis }) => {
                        std::thread::sleep(Duration::from_millis(millis));
                    }
                    // Wire-level fault; the chaos harness drives it from
                    // the client side. A no-op at the worker.
                    Some(ServeFault::SlowFrame { .. }) | None => {}
                }
                state.ingest(seq, &records);
                slot.beat(origin);
                let next = {
                    let mut inner = slot.channel.lock();
                    // A replayed prefix keeps `next` monotone even if the
                    // router appended while we processed.
                    inner.next = inner.next.max(seq + 1);
                    inner.next
                };
                if next >= slot.recovery_target.load(Ordering::SeqCst) {
                    slot.set_health(ShardHealth::Up);
                } else {
                    slot.set_health(ShardHealth::Recovering);
                }
                slot.channel.work.notify_all();
            }
            Task::Checkpoint(reply) => {
                // A barrier is also a *view* barrier: flush first, so the
                // published snapshot covers everything the checkpoint
                // covers. The receiver may have timed out and gone; that
                // aborts the coordinated checkpoint, not this worker.
                state.flush();
                let _ = reply.send(state.checkpoint());
            }
            Task::Idle(drain) => {
                state.flush();
                // A restarted worker with nothing to replay (or one that
                // just drained its replay backlog) is caught up: the batch
                // path never runs, so the upgrade must happen here too.
                if slot.channel.next_seq() >= slot.recovery_target.load(Ordering::SeqCst) {
                    slot.set_health(ShardHealth::Up);
                }
                if drain {
                    return state;
                }
                slot.channel.wait_for_work(WORKER_IDLE_WAIT);
            }
        }
    }
}

/// Supervision knobs.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Health-probe cadence.
    pub probe_interval: Duration,
    /// A shard with pending work and no heartbeat for this long is marked
    /// `Down` (stall detection).
    pub stall_timeout: Duration,
    /// Backoff policy between restart attempts of one shard.
    pub restart: RetryPolicy,
    /// Restarts per shard before the supervisor gives up and leaves it
    /// `Down` (a crash-loop breaker).
    pub max_restarts_per_shard: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            probe_interval: Duration::from_millis(20),
            stall_timeout: Duration::from_secs(2),
            restart: RetryPolicy {
                base: Duration::from_millis(10),
                cap: Duration::from_millis(500),
                deadline: None,
                jitter_seed: 0x5eed_5a4d,
            },
            max_restarts_per_shard: 16,
        }
    }
}

pub(crate) struct SupervisorMetrics {
    pub(crate) restarts: Counter,
    pub(crate) probes: Counter,
    pub(crate) stalls_detected: Counter,
    pub(crate) shard_health: Vec<Gauge>,
    pub(crate) shard_backlog: Vec<Gauge>,
}

impl SupervisorMetrics {
    pub(crate) fn register(registry: &MetricsRegistry, shards: usize) -> Self {
        Self {
            restarts: registry.counter("serve.supervisor.restarts"),
            probes: registry.counter("serve.supervisor.probes"),
            stalls_detected: registry.counter("serve.supervisor.stalls_detected"),
            shard_health: (0..shards)
                .map(|i| registry.gauge(&format!("serve.shard.{i}.health")))
                .collect(),
            shard_backlog: (0..shards)
                .map(|i| registry.gauge(&format!("serve.shard.{i}.backlog")))
                .collect(),
        }
    }
}

/// The supervisor: owns every shard's worker `JoinHandle`, probes health,
/// and restarts crashed workers from their checkpoints. Runs on its own
/// thread ([`run`](Supervisor::run)) until shutdown, then returns the
/// drained final states.
pub(crate) struct Supervisor {
    pub(crate) slots: Vec<Arc<ShardSlot>>,
    pub(crate) factory: ShardStateFactory,
    pub(crate) cfg: SupervisorConfig,
    pub(crate) injector: Arc<ServeFaultInjector>,
    pub(crate) metrics: SupervisorMetrics,
    pub(crate) shutdown: Arc<AtomicBool>,
    /// Hook the router installs so the probe loop can trigger cadence
    /// checkpoints and refresh the quorum watermark.
    pub(crate) on_probe: Box<dyn Fn() + Send>,
}

impl Supervisor {
    pub(crate) fn new_slots(shards: usize) -> Vec<Arc<ShardSlot>> {
        (0..shards).map(|i| Arc::new(ShardSlot::new(i))).collect()
    }

    fn spawn_worker(
        &self,
        slot: &Arc<ShardSlot>,
        state: ServeState,
        origin: Instant,
    ) -> std::io::Result<std::thread::JoinHandle<ServeState>> {
        let slot = slot.clone();
        let injector = self.injector.clone();
        let name = format!("ricd-shard-{}", slot.shard);
        std::thread::Builder::new()
            .name(name)
            .spawn(move || shard_worker(slot, state, injector, origin))
    }

    /// The supervision loop. Spawns the initial workers (fresh, or from
    /// `initial` checkpoints), probes on a cadence, restarts panicked
    /// shards with capped seeded backoff, and — once shutdown is flagged —
    /// drains every channel and returns the final per-shard states.
    pub(crate) fn run(self, initial: Vec<Option<Checkpoint>>) -> Vec<ServeState> {
        let origin = Instant::now();
        let shards = self.slots.len();
        let mut handles: Vec<Option<std::thread::JoinHandle<ServeState>>> = Vec::new();
        let mut finals: Vec<Option<ServeState>> = (0..shards).map(|_| None).collect();
        let mut backoffs: Vec<Option<crate::retry::Backoff>> = (0..shards).map(|_| None).collect();
        // Per-shard not-before restart deadlines: the probe loop never
        // sleeps a backoff inline, so one crash-looping shard can't stop
        // the others from being probed, stall-detected, or restarted.
        let mut restart_at: Vec<Option<Instant>> = (0..shards).map(|_| None).collect();
        // Channel fast-forward and the restart mirror were already set up
        // synchronously by `Router::load_resume_state` (before the listener
        // could route anything); here the checkpoints only seed the states.
        for (slot, ckpt) in self.slots.iter().zip(initial) {
            let state = self.factory.build(slot, ckpt);
            slot.set_health(ShardHealth::Up);
            slot.beat(origin);
            let h = self
                .spawn_worker(slot, state, origin)
                .expect("spawn shard worker");
            handles.push(Some(h));
        }

        loop {
            self.metrics.probes.inc();
            let draining = self.shutdown.load(Ordering::SeqCst);
            if draining {
                for slot in &self.slots {
                    slot.channel.begin_drain();
                }
            }
            for i in 0..shards {
                let slot = &self.slots[i];
                self.metrics.shard_backlog[i].set(slot.channel.backlog() as i64);
                self.metrics.shard_health[i].set(slot.health() as u8 as i64);
                let finished = handles[i].as_ref().is_some_and(|h| h.is_finished());
                if finished {
                    let h = handles[i].take().expect("handle present");
                    match h.join() {
                        Ok(state) => {
                            // Clean exit: only happens on drain.
                            finals[i] = Some(state);
                        }
                        Err(_) => {
                            slot.set_health(ShardHealth::Down);
                            let restarts = slot.restarts.load(Ordering::SeqCst);
                            if restarts >= self.cfg.max_restarts_per_shard {
                                self.factory.registry.event(
                                    "serve.supervisor.gave_up",
                                    &format!("shard {i}: restart cap {restarts} reached"),
                                );
                            } else {
                                let b = backoffs[i].get_or_insert_with(|| self.cfg.restart.start());
                                restart_at[i] = Some(Instant::now() + b.next_delay());
                            }
                        }
                    }
                } else if handles[i].is_some() && slot.health() == ShardHealth::Up {
                    // Healthy again: future crashes back off from scratch.
                    backoffs[i] = None;
                    if slot.channel.backlog() > 0 {
                        let beat = Duration::from_nanos(slot.heartbeat.load(Ordering::SeqCst));
                        if origin.elapsed().saturating_sub(beat) > self.cfg.stall_timeout {
                            self.metrics.stalls_detected.inc();
                            slot.set_health(ShardHealth::Down);
                        }
                    }
                }
                // A crashed shard whose backoff deadline has passed is
                // restarted from its checkpoint mirror.
                if handles[i].is_none() && restart_at[i].is_some_and(|at| Instant::now() >= at) {
                    restart_at[i] = None;
                    let ckpt = slot.last_checkpoint.lock().expect("slot poisoned").clone();
                    let resume_at = ckpt.as_ref().map_or(0, |c| c.next_seq);
                    slot.channel.rewind_to(resume_at);
                    slot.recovery_target
                        .store(slot.channel.lock().tail(), Ordering::SeqCst);
                    let state = self.factory.build(slot, ckpt);
                    slot.set_health(ShardHealth::Recovering);
                    slot.restarts.fetch_add(1, Ordering::SeqCst);
                    self.metrics.restarts.inc();
                    slot.beat(origin);
                    match self.spawn_worker(slot, state, origin) {
                        Ok(h) => handles[i] = Some(h),
                        Err(_) => slot.set_health(ShardHealth::Down),
                    }
                }
            }
            (self.on_probe)();
            if draining
                && handles.iter().all(Option::is_none)
                && restart_at.iter().all(Option::is_none)
            {
                break;
            }
            std::thread::sleep(self.cfg.probe_interval);
        }
        finals
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                s.unwrap_or_else(|| {
                    // A shard that was Down at drain time never produced a
                    // final state; rebuild one from its checkpoint so join()
                    // always returns a full set.
                    self.factory.build(
                        &self.slots[i],
                        self.slots[i]
                            .last_checkpoint
                            .lock()
                            .expect("slot poisoned")
                            .clone(),
                    )
                })
            })
            .collect()
    }
}
