//! The system under test. This is the only module that names product
//! crates; the workload modules drive the system through the functions
//! here and never see a product type they could call into.
//!
//! It keeps to the surface later simplification issues are expected to
//! preserve: `RicdPipeline::{run, run_sharded}`, `WindowedDetector`,
//! `ricd_serve::{start, start_router, Client}`, `ServeState`, and the
//! top-level per-layer functions (`read_tsv`, `detect_groups_with`,
//! `detect_groups_sharded`, `screen_groups`, `rank_output`,
//! `RiskView::{from_result, merged}`, `I2iIndex::build_cleaned`, the wire
//! codec). Execution-path selectors (`FixpointMode`, `SquareStrategy`,
//! `KernelSelection` variants) are never named: the recomposed batch run
//! passes the pipeline's own defaults through.

use crate::spec::{sub_seed, Scale};
use crate::trace::Tracer;
use ricd_core::detect::{detect_groups_with, Seeds};
use ricd_core::identify::rank_output;
use ricd_core::screen::screen_groups;
use ricd_core::{
    detect_groups_sharded, DetectionResult, RicdParams, RicdPipeline, RiskView, ShardConfig,
    WindowConfig, WindowedDetector,
};
use ricd_datagen::{
    build_timeline, generate, AttackConfig, CampaignSpec, DatasetConfig, FlashSaleSpec,
    GroundTruth, ScenarioConfig,
};
use ricd_engine::WorkerPool;
use ricd_graph::io::{read_tsv, write_tsv};
use ricd_graph::{BipartiteGraph, CompactBigraph, GraphBuilder, ItemId, UserId};
use ricd_obs::{MetricsRegistry, MetricsSnapshot};
use ricd_recommender::I2iIndex;
use ricd_serve::wire::{read_frame, write_frame};
use ricd_serve::{
    start, start_router, Client, IngestOutcome, Request, Response, RouterConfig, RouterHandle,
    ServeConfig, ServeSnapshot, ServeState, ServerHandle,
};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Detection worker threads of the batch and stream workloads, pinned so
/// results do not depend on the host.
pub const POOL_WORKERS: usize = 2;
/// Detection workers per shard of the serve tier, the monolith counting as
/// one shard. The load generator's two threads share this box's two cores
/// with the tier: with a 2-worker pool the monolith's fork-join rounds ran
/// 1.6× slower whenever both workers landed on one core, which made
/// visible lag bimodal between runs of the same seed.
pub const WORKERS_PER_SHARD: usize = 1;
/// Batches the serve tier may queue before it rejects.
pub const QUEUE_CAPACITY: usize = 8;
/// Scenario length in ticks (stream and serve).
pub const HORIZON: u64 = 4800;
/// Sliding-window length of the stream workload, in ticks.
pub const WINDOW: u64 = 2400;
/// Width of the cleaned I2I lists the serve tier builds.
const RECOMMEND_PER_ANCHOR: usize = 50;

/// `(user, item, clicks, event tick)`.
pub type TimedClick = (u32, u32, u32, u64);

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn pipeline_with(workers: usize, registry: &MetricsRegistry) -> RicdPipeline {
    RicdPipeline::new(RicdParams::default())
        .with_pool(WorkerPool::new(workers))
        .with_metrics(registry.clone())
}

fn pipeline(registry: &MetricsRegistry) -> RicdPipeline {
    pipeline_with(POOL_WORKERS, registry)
}

// ---------------------------------------------------------------- truth

/// The planted attack groups of a generated world.
pub struct Truth(GroundTruth);

impl Truth {
    /// Planted worker accounts, sorted.
    pub fn workers(&self) -> Vec<u32> {
        self.0.abnormal_users().into_iter().map(|u| u.0).collect()
    }

    /// Planted target items, sorted.
    pub fn targets(&self) -> Vec<u32> {
        self.0.abnormal_items().into_iter().map(|v| v.0).collect()
    }

    /// Worker accounts of each planted group, in group order.
    pub fn group_workers(&self) -> Vec<Vec<u32>> {
        self.0
            .groups
            .iter()
            .map(|g| g.workers.iter().map(|u| u.0).collect())
            .collect()
    }

    pub fn planted(&self) -> usize {
        self.0.num_abnormal()
    }
}

// ------------------------------------------------------------ detection

/// A finished detection run.
pub struct Detection(DetectionResult);

/// Node-level quality of a detection against the planted truth.
#[derive(Clone, Copy, Debug)]
pub struct Score {
    pub recall: f64,
    pub f1: f64,
}

impl Detection {
    /// Order-sensitive digest of the groups and both rankings (scores by
    /// bit pattern): two runs agree iff they produced the same output.
    pub fn digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for g in &self.0.groups {
            (&g.users, &g.items, &g.ridden_hot_items).hash(&mut h);
        }
        for &(u, s) in &self.0.ranked_users {
            (u, s.to_bits()).hash(&mut h);
        }
        for &(v, s) in &self.0.ranked_items {
            (v, s.to_bits()).hash(&mut h);
        }
        h.finish()
    }

    /// `true` when every phase ran at full fidelity.
    pub fn complete(&self) -> bool {
        !self.0.status.is_degraded()
    }

    pub fn groups(&self) -> usize {
        self.0.groups.len()
    }

    /// Wall time the facade itself recorded for one of its phases
    /// (`detect`, `screen`, `identify`), in seconds.
    pub fn phase_s(&self, phase: &str) -> Option<f64> {
        self.0.timings.get(phase).map(|d| d.as_secs_f64())
    }

    pub fn score(&self, truth: &Truth) -> Score {
        let e = ricd_eval::metrics::evaluate(&self.0, &truth.0);
        Score {
            recall: e.recall,
            f1: e.f1,
        }
    }
}

// ---------------------------------------------------------- batch world

/// A generated batch world, reduced to what the system is given (the TSV
/// bytes) and what the checks need (the truth).
pub struct BatchWorld {
    pub tsv: Vec<u8>,
    pub truth: Truth,
    pub users: usize,
    pub items: usize,
    pub edges: usize,
    pub generate_s: f64,
}

pub fn batch_world(seed: u64, scale: Scale) -> BatchWorld {
    let (dataset, attack) = match scale {
        Scale::Full => (DatasetConfig::scale100(), AttackConfig::scale100()),
        Scale::Smoke => (DatasetConfig::small(), AttackConfig::small()),
    };
    let dataset = DatasetConfig {
        seed: sub_seed(seed, 1),
        ..dataset
    };
    let attack = AttackConfig {
        seed: sub_seed(seed, 2),
        ..attack
    };
    let t0 = Instant::now();
    let ds = generate(&dataset, &attack).expect("batch world config is valid");
    let generate_s = secs(t0.elapsed());
    let mut tsv = Vec::with_capacity(ds.graph.num_edges() * 16);
    write_tsv(&ds.graph, &mut tsv).expect("writing TSV to memory cannot fail");
    BatchWorld {
        tsv,
        users: ds.graph.num_users(),
        items: ds.graph.num_items(),
        edges: ds.graph.num_edges(),
        truth: Truth(ds.truth),
        generate_s,
    }
}

// ------------------------------------------------------- batch detector

/// Counts the recomposed run reads off the layers' return values.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchCounts {
    pub rounds: u64,
    pub dirty_users: u64,
    pub dirty_items: u64,
    pub compactions: u64,
    pub kernel_wedge: u64,
    pub kernel_blocked: u64,
    pub kernel_sorted: u64,
    pub hub_bitmap_bytes: u64,
    pub groups_in: u64,
    pub groups_out: u64,
}

/// Batch detection, unsharded or sharded, behind one registry.
pub struct Batch {
    pipeline: RicdPipeline,
    sharded: bool,
}

impl Batch {
    pub fn new(sharded: bool) -> Self {
        Self {
            pipeline: pipeline(&MetricsRegistry::new()),
            sharded,
        }
    }

    /// The timed operation: TSV bytes → ranked result, through the facade.
    pub fn facade(&self, tsv: &[u8]) -> Detection {
        let g = read_tsv(tsv).expect("generated TSV parses");
        Detection(if self.sharded {
            self.pipeline.run_sharded(&g, &ShardConfig::default())
        } else {
            self.pipeline.run(&g)
        })
    }

    /// The same computation recomposed from the layers' public functions,
    /// one span per layer call.
    pub fn recomposed(&self, tsv: &[u8], tracer: &mut Tracer, op: u64) -> (Detection, BatchCounts) {
        let p = &self.pipeline;
        let pool = p.pool.clone().with_metrics(&p.metrics);
        let (g, _) = tracer.timed("graph.io.read_tsv", op, |_| {
            read_tsv(tsv).expect("generated TSV parses")
        });
        let detected = if self.sharded {
            tracer
                .timed("core.shard_run.detect_groups_sharded", op, |_| {
                    detect_groups_sharded(
                        &g,
                        &Seeds::none(),
                        &p.params,
                        &pool,
                        &ShardConfig::default(),
                        &|| false,
                        Some(&p.metrics),
                    )
                    .expect("no deadline, no faults: sharded detection completes")
                })
                .0
        } else {
            tracer
                .timed("core.detect.detect_groups_with", op, |_| {
                    detect_groups_with(
                        &g,
                        &Seeds::none(),
                        &p.params,
                        &pool,
                        p.strategy,
                        p.mode,
                        Some(&p.metrics),
                    )
                })
                .0
        };
        let stats = detected.stats;
        let groups_in = detected.groups.len() as u64;
        let ((groups, _), _) = tracer.timed("core.screen.screen_groups", op, |_| {
            screen_groups(&g, detected.groups, &p.params)
        });
        let ((ranked_users, ranked_items), _) =
            tracer.timed("core.identify.rank_output", op, |_| {
                rank_output(&g, &groups)
            });
        let mut result = DetectionResult {
            groups,
            ranked_users,
            ranked_items,
            ..DetectionResult::default()
        };
        result.prune_empty();
        let counts = BatchCounts {
            rounds: stats.rounds as u64,
            dirty_users: stats.dirty_users as u64,
            dirty_items: stats.dirty_items as u64,
            compactions: stats.compactions as u64,
            kernel_wedge: stats.kernel_wedge,
            kernel_blocked: stats.kernel_blocked,
            kernel_sorted: stats.kernel_sorted,
            hub_bitmap_bytes: stats.hub_bitmap_bytes as u64,
            groups_in,
            groups_out: result.groups.len() as u64,
        };
        (Detection(result), counts)
    }

    /// What the product's own registry recorded so far.
    pub fn registry(&self) -> Registry {
        Registry(self.pipeline.metrics.snapshot())
    }
}

/// A read-only view of a product `MetricsRegistry`. Names that a later
/// change renames read as `None`, never as a failure.
pub struct Registry(MetricsSnapshot);

impl Registry {
    pub fn counter(&self, name: &str) -> Option<f64> {
        self.0.counter(name).map(|v| v as f64)
    }

    /// Sum of a duration histogram, in seconds.
    pub fn histogram_sum_s(&self, name: &str) -> Option<f64> {
        self.0
            .histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h.sum as f64 / 1e9)
    }

    /// Sum of every counter whose name matches `prefix*suffix`.
    pub fn counter_family(&self, prefix: &str, suffix: &str) -> Option<f64> {
        let mut hits = self
            .0
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with(prefix) && n.ends_with(suffix))
            .map(|(_, v)| *v as f64)
            .peekable();
        hits.peek()?;
        Some(hits.sum())
    }
}

/// Single-shot graph-layer measurements on the batch world.
#[derive(Clone, Copy, Debug, Default)]
pub struct GraphProbe {
    pub build_s: f64,
    pub compact_from_graph_s: f64,
    pub compact_adjacency_bytes: u64,
    pub dense_adjacency_bytes: u64,
}

/// Dense CSR adjacency footprint without click counts (both directions'
/// id arrays plus the u64 offsets), comparable to the compact form.
fn dense_adjacency_bytes(g: &BipartiteGraph) -> u64 {
    (g.num_edges() * 2 * std::mem::size_of::<u32>()
        + (g.num_users() + g.num_items() + 2) * std::mem::size_of::<u64>()) as u64
}

fn build_graph(records: &[(UserId, ItemId, u32)]) -> BipartiteGraph {
    let mut b = GraphBuilder::with_capacity(records.len());
    b.extend(records.iter().copied());
    b.build()
}

pub fn graph_probe(tsv: &[u8], tracer: &mut Tracer) -> GraphProbe {
    let g = read_tsv(tsv).expect("generated TSV parses");
    let records: Vec<(UserId, ItemId, u32)> = g.edges().collect();
    let (_, build) = tracer.timed("graph.builder.build", 0, |_| build_graph(&records));
    let (compact, from_graph) = tracer.timed("graph.compact.from_graph", 0, |_| {
        CompactBigraph::from_graph(&g)
    });
    GraphProbe {
        build_s: secs(build),
        compact_from_graph_s: secs(from_graph),
        compact_adjacency_bytes: compact.heap_bytes() as u64,
        dense_adjacency_bytes: dense_adjacency_bytes(&g),
    }
}

// ------------------------------------------------------- timed scenario

/// A generated timestamped scenario: what stream and serve replay.
pub struct Scenario {
    pub batches: Vec<Vec<TimedClick>>,
    pub truth: Truth,
    pub users: u32,
    pub items: u32,
    pub records: usize,
    pub timeline_s: f64,
}

/// Which scenario world to generate.
#[derive(Clone, Copy, Debug)]
pub enum ScenarioWorld {
    /// 200k users / 40k items.
    Stream,
    /// 50k users / 10k items.
    Serve,
}

/// The benchmark-owned scenario: organic diurnal traffic over
/// [`HORIZON`] ticks, one flash sale, and four burst campaigns of the
/// case-study group, one per quarter, so every sliding window of
/// [`WINDOW`] ticks holds live attack evidence.
pub fn scenario(seed: u64, scale: Scale, world: ScenarioWorld, num_batches: u64) -> Scenario {
    let dataset = match (scale, world) {
        (Scale::Full, ScenarioWorld::Stream) => DatasetConfig::scale100(),
        (Scale::Full, ScenarioWorld::Serve) => DatasetConfig {
            num_users: 50_000,
            num_items: 10_000,
            num_communities: 45,
            num_flash_items: 100,
            num_hunter_rings: 38,
            ..DatasetConfig::default()
        },
        (Scale::Smoke, ScenarioWorld::Stream) => DatasetConfig::small(),
        (Scale::Smoke, ScenarioWorld::Serve) => DatasetConfig::tiny(),
    };
    let group = ScenarioConfig::burst().campaigns[0].attack.clone();
    let cfg = ScenarioConfig {
        horizon: HORIZON,
        batch_interval: HORIZON.div_ceil(num_batches.max(1)),
        day_length: 1600,
        diurnal_amplitude: 0.5,
        flash_sales: vec![FlashSaleSpec {
            start: 2400,
            duration: 80,
            extra_clicks: (dataset.num_users / 50) as u32,
        }],
        campaigns: [600, 1800, 3000, 4200]
            .into_iter()
            .map(|start| CampaignSpec {
                start,
                ramp: 100,
                stop: start + 200,
                churn_cohorts: 1,
                attack: group.clone(),
            })
            .collect(),
        dataset: DatasetConfig {
            seed: sub_seed(seed, 3),
            ..dataset
        },
        seed: sub_seed(seed, 4),
    };
    let t0 = Instant::now();
    let tl = build_timeline(&cfg).expect("scenario config is valid");
    let timeline_s = secs(t0.elapsed());
    let batches: Vec<Vec<TimedClick>> = tl
        .batches
        .iter()
        .map(|b| {
            b.records
                .iter()
                .map(|r| (r.user.0, r.item.0, r.clicks, r.ts))
                .collect()
        })
        .collect();
    let max_id = |pick: fn(&TimedClick) -> u32| {
        batches
            .iter()
            .flatten()
            .map(pick)
            .max()
            .map_or(0, |m| m + 1)
    };
    Scenario {
        users: max_id(|r| r.0),
        items: max_id(|r| r.1),
        records: tl.num_records(),
        truth: Truth(tl.truth),
        batches,
        timeline_s,
    }
}

fn wire(batch: &[TimedClick]) -> Vec<(UserId, ItemId, u32, u64)> {
    batch
        .iter()
        .map(|&(u, v, c, ts)| (UserId(u), ItemId(v), c, ts))
        .collect()
}

// --------------------------------------------------------------- stream

/// What one windowed tick did.
#[derive(Clone, Copy, Debug, Default)]
pub struct TickStats {
    pub rejected: usize,
    pub late: usize,
    pub evicted: usize,
    pub window_records: usize,
}

/// The windowed streaming detector plus a second pipeline for probes and
/// the reference run.
pub struct Stream {
    det: WindowedDetector,
    probe: RicdPipeline,
}

impl Stream {
    pub fn new() -> Self {
        let cfg = WindowConfig {
            window: Some(WINDOW),
            half_life: None,
            detect_every: 1,
        };
        Self {
            det: WindowedDetector::new(pipeline(&MetricsRegistry::new()), cfg)
                .expect("window config is valid"),
            probe: pipeline(&MetricsRegistry::new()),
        }
    }

    /// The timed operation: ingest, evict, re-detect.
    pub fn tick(&mut self, seq: u64, batch: &[TimedClick]) -> TickStats {
        let s = self.det.ingest_batch(seq, &wire(batch));
        TickStats {
            rejected: s.rejected,
            late: s.late,
            evicted: s.evicted,
            window_records: s.window_records,
        }
    }

    /// Users flagged by the tick that just ran.
    pub fn flagged_users(&self) -> Vec<u32> {
        self.det
            .last_result()
            .suspicious_users()
            .into_iter()
            .map(|u| u.0)
            .collect()
    }

    /// Items flagged by the tick that just ran.
    pub fn flagged_items(&self) -> Vec<u32> {
        self.det
            .last_result()
            .suspicious_items()
            .into_iter()
            .map(|v| v.0)
            .collect()
    }

    /// Re-runs the two parts of a tick that have public entry points —
    /// the window-graph rebuild and the re-detect on it — and returns
    /// their wall times and the re-detect's result. The remainder of the
    /// tick is ingest + evict.
    pub fn probe_tick(&self, tracer: &mut Tracer, op: u64) -> (Duration, Duration, Detection) {
        let (g, graph) = tracer.timed("core.temporal.window_graph", op, |_| {
            self.det.window_graph()
        });
        let (r, redetect) = tracer.timed("core.temporal.redetect", op, |_| self.probe.run(&g));
        (graph, redetect, Detection(r))
    }

    /// The detector's result over the final window.
    pub fn result(&mut self) -> Detection {
        Detection(self.det.result().clone())
    }

    /// One-shot batch detection on the final window graph: what the
    /// streaming result must equal.
    pub fn reference(&self) -> Detection {
        Detection(self.probe.run(&self.det.window_graph()))
    }

    /// Takes a checkpoint; returns its wall time and serialized size.
    pub fn checkpoint(&self, tracer: &mut Tracer) -> (Duration, usize) {
        let (ckpt, d) = tracer.timed("core.temporal.checkpoint", 0, |_| self.det.checkpoint());
        let bytes = serde_json::to_string(&ckpt).map_or(0, |s| s.len());
        (d, bytes)
    }
}

// ---------------------------------------------------------------- serve

fn serve_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: QUEUE_CAPACITY,
        swap_every_batches: 1,
        recommend_per_anchor: RECOMMEND_PER_ANCHOR,
        ..ServeConfig::default()
    }
}

/// A running serve tier on loopback: the monolith or the sharded router.
pub enum Server {
    Mono(ServerHandle, MetricsRegistry),
    Sharded(RouterHandle, MetricsRegistry),
}

/// The final published snapshots, one per shard.
pub struct FinalViews(Vec<Arc<ServeSnapshot>>);

impl Server {
    /// Starts the tier in-process on an ephemeral loopback port.
    pub fn start(shards: usize) -> std::io::Result<Self> {
        let registry = MetricsRegistry::new();
        if shards <= 1 {
            let state =
                ServeState::new(serve_config(), pipeline_with(WORKERS_PER_SHARD, &registry));
            Ok(Server::Mono(start(state, "127.0.0.1:0")?, registry))
        } else {
            let cfg = RouterConfig {
                shards,
                params: RicdParams::default(),
                serve: serve_config(),
                workers_per_shard: WORKERS_PER_SHARD,
                buffer_per_shard: QUEUE_CAPACITY,
                // Cadence checkpoints serialize the whole stream; they are
                // a durability feature this benchmark does not load.
                checkpoint_every_batches: 0,
                ..RouterConfig::default()
            };
            Ok(Server::Sharded(
                start_router(cfg, registry.clone(), "127.0.0.1:0", None)?,
                registry,
            ))
        }
    }

    pub fn addr(&self) -> SocketAddr {
        match self {
            Server::Mono(h, _) => h.addr(),
            Server::Sharded(h, _) => h.addr(),
        }
    }

    /// Waits for the tier to drain and stop (after a client `shutdown`);
    /// returns its registry and final snapshots.
    pub fn join(self) -> (Registry, FinalViews) {
        match self {
            Server::Mono(h, reg) => {
                let state = h.join();
                (
                    Registry(reg.snapshot()),
                    FinalViews(vec![state.shared().load()]),
                )
            }
            Server::Sharded(h, reg) => {
                let states = h.join();
                (
                    Registry(reg.snapshot()),
                    FinalViews(states.iter().map(|s| s.shared().load()).collect()),
                )
            }
        }
    }
}

/// One shard's progress as `Status` reports it.
#[derive(Clone, Copy, Debug)]
pub struct ShardProgress {
    pub epoch: u64,
    pub next_seq: u64,
    pub backlog: u64,
}

/// How the tier answered one ingest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IngestReply {
    Accepted,
    Rejected,
    Error(String),
}

/// One query's answer, reduced to what the checks read.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryReply {
    pub degraded: bool,
    pub flagged: usize,
}

/// One client connection.
pub struct Conn(Client);

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        Client::connect(addr).map(Conn)
    }

    pub fn ingest(&mut self, seq: u64, batch: &[TimedClick]) -> IngestReply {
        match self.0.ingest_timed(seq, wire(batch)) {
            Ok(IngestOutcome::Accepted { .. }) => IngestReply::Accepted,
            Ok(IngestOutcome::Backpressure { .. }) => IngestReply::Rejected,
            Err(e) => IngestReply::Error(e.to_string()),
        }
    }

    pub fn status(&mut self) -> Result<Vec<ShardProgress>, String> {
        let st = self.0.status().map_err(|e| e.to_string())?;
        if st.degraded {
            return Err("status reports a degraded topology".into());
        }
        Ok(st
            .shards
            .iter()
            .map(|s| ShardProgress {
                epoch: s.epoch,
                next_seq: s.next_seq,
                backlog: s.backlog,
            })
            .collect())
    }

    pub fn query_risk(&mut self, users: &[u32], items: &[u32]) -> Result<QueryReply, String> {
        let r = self
            .0
            .query_risk(
                users.iter().map(|&u| UserId(u)).collect(),
                items.iter().map(|&v| ItemId(v)).collect(),
            )
            .map_err(|e| e.to_string())?;
        let flagged = r.users.iter().filter(|(_, v)| v.flagged).count()
            + r.items.iter().filter(|(_, v)| v.flagged).count();
        Ok(QueryReply {
            degraded: r.degraded,
            flagged,
        })
    }

    pub fn recommend(&mut self, user: u32, n: usize) -> Result<QueryReply, String> {
        let r = self
            .0
            .recommend(UserId(user), n)
            .map_err(|e| e.to_string())?;
        Ok(QueryReply {
            degraded: r.degraded,
            flagged: 0,
        })
    }

    pub fn shutdown(&mut self) -> Result<(), String> {
        self.0.shutdown().map_err(|e| e.to_string())
    }
}

// --------------------------------------------------- serve layer probes

/// Wall times of a `ServeState` driven directly: no sockets, no queue, the
/// swap disabled and then called explicitly after every measured batch
/// (the preload goes in untimed).
#[derive(Clone, Debug, Default)]
pub struct StateProbe {
    pub ingest_ms: Vec<f64>,
    pub rebuild_view_ms: Vec<f64>,
    pub from_result_ms: f64,
    pub graph_clone_ms: f64,
    pub build_cleaned_ms: f64,
    pub recommend_us: f64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn state_probe(
    preload: &[TimedClick],
    batches: &[Vec<TimedClick>],
    users: &[u32],
    tracer: &mut Tracer,
) -> StateProbe {
    let registry = MetricsRegistry::new();
    let mut state = ServeState::new(
        ServeConfig {
            swap_every_batches: usize::MAX,
            ..serve_config()
        },
        pipeline_with(WORKERS_PER_SHARD, &registry),
    );
    let mut out = StateProbe::default();
    state.ingest_timed(0, &wire(preload));
    for (seq, batch) in batches.iter().enumerate() {
        let records = wire(batch);
        let op = seq as u64 + 1;
        let (_, d) = tracer.timed("serve.state.ingest", op, |_| {
            state.ingest_timed(op, &records)
        });
        out.ingest_ms.push(ms(d));
        let (_, d) = tracer.timed("serve.state.rebuild_view", op, |_| state.rebuild_view());
        out.rebuild_view_ms.push(ms(d));
    }
    // The parts of the last rebuild, on the final cumulative graph.
    let snap = state.shared().load();
    let pipe = pipeline_with(WORKERS_PER_SHARD, &registry);
    let result = pipe.run(&snap.graph);
    let (view, d) = tracer.timed("core.riskview.from_result", 0, |_| {
        RiskView::from_result(1, &result)
    });
    out.from_result_ms = ms(d);
    let (graph, d) = tracer.timed("graph.graph.clone", 0, |_| snap.graph.clone());
    out.graph_clone_ms = ms(d);
    let flagged = view.flagged_users();
    let (_, d) = tracer.timed("recommender.index.build_cleaned", 0, |_| {
        I2iIndex::build_cleaned(&graph, RECOMMEND_PER_ANCHOR, &pipe.pool, &flagged)
    });
    out.build_cleaned_ms = ms(d);
    let (_, d) = tracer.timed("recommender.recommend", 0, |_| {
        for &u in users {
            std::hint::black_box(snap.recommend(UserId(u), 10));
        }
    });
    out.recommend_us = us(d) / users.len().max(1) as f64;
    out
}

/// Wall times of the risk-view read path on the tier's final snapshots.
#[derive(Clone, Copy, Debug, Default)]
pub struct ViewProbe {
    pub merged_us: f64,
    pub lookup_us: f64,
}

pub fn view_probe(views: &FinalViews, queries: &[(u32, u32)], tracer: &mut Tracer) -> ViewProbe {
    const MERGES: usize = 200;
    let refs: Vec<&RiskView> = views.0.iter().map(|s| &s.view).collect();
    let (merged, d) = tracer.timed("core.riskview.merged", 0, |_| {
        let mut last = RiskView::empty();
        for _ in 0..MERGES {
            last = std::hint::black_box(RiskView::merged(1, &refs));
        }
        last
    });
    let merged_us = us(d) / MERGES as f64;
    let (_, d) = tracer.timed("core.riskview.lookup", 0, |_| {
        for &(u, v) in queries {
            std::hint::black_box((merged.user(UserId(u)), merged.item(ItemId(v))));
        }
    });
    ViewProbe {
        merged_us,
        lookup_us: us(d) / queries.len().max(1) as f64,
    }
}

/// Wall times of the wire codec on in-memory buffers.
#[derive(Clone, Copy, Debug, Default)]
pub struct WireProbe {
    pub ingest_frame_bytes: u64,
    pub encode_ingest_us: f64,
    pub decode_ingest_us: f64,
    pub encode_risk_us: f64,
    pub decode_risk_us: f64,
}

fn risk_request(user: u32, item: u32) -> Request {
    Request::QueryRisk {
        users: vec![UserId(user)],
        items: vec![ItemId(item)],
    }
}

/// The monolith's answer to [`risk_request`] from `view`.
fn risk_response(view: &RiskView, user: UserId, item: ItemId) -> Response {
    Response::Risk {
        epoch: view.epoch(),
        users: vec![(user, view.user(user))],
        items: vec![(item, view.item(item))],
        groups: view.groups().len(),
        degraded: false,
        missing_shards: Vec::new(),
    }
}

pub fn wire_probe(batch: &[TimedClick], queries: &[(u32, u32)], tracer: &mut Tracer) -> WireProbe {
    const INGEST_REPS: usize = 20;
    let req = Request::IngestTimed {
        seq: 0,
        records: wire(batch),
    };
    let mut buf = Vec::new();
    let (_, enc) = tracer.timed("serve.wire.encode_ingest", 0, |_| {
        for _ in 0..INGEST_REPS {
            buf.clear();
            write_frame(&mut buf, &req).expect("in-memory write");
        }
    });
    let (_, dec) = tracer.timed("serve.wire.decode_ingest", 0, |_| {
        for _ in 0..INGEST_REPS {
            std::hint::black_box(read_frame::<Request>(&mut buf.as_slice()).expect("round trip"));
        }
    });
    let view = RiskView::empty();
    let exchanges: Vec<(Request, Response)> = queries
        .iter()
        .map(|&(u, v)| {
            (
                risk_request(u, v),
                risk_response(&view, UserId(u), ItemId(v)),
            )
        })
        .collect();
    let mut frames: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(exchanges.len());
    let (_, enc_risk) = tracer.timed("serve.wire.encode_risk", 0, |_| {
        for (req, resp) in &exchanges {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            write_frame(&mut a, req).expect("in-memory write");
            write_frame(&mut b, resp).expect("in-memory write");
            frames.push((a, b));
        }
    });
    let (_, dec_risk) = tracer.timed("serve.wire.decode_risk", 0, |_| {
        for (a, b) in &frames {
            std::hint::black_box(read_frame::<Request>(&mut a.as_slice()).expect("round trip"));
            std::hint::black_box(read_frame::<Response>(&mut b.as_slice()).expect("round trip"));
        }
    });
    let n = queries.len().max(1) as f64;
    WireProbe {
        ingest_frame_bytes: buf.len() as u64,
        encode_ingest_us: us(enc) / INGEST_REPS as f64,
        decode_ingest_us: us(dec) / INGEST_REPS as f64,
        encode_risk_us: us(enc_risk) / n,
        decode_risk_us: us(dec_risk) / n,
    }
}

/// The contention-free floor of a risk query: each `(user, item)` pair is
/// encoded as a `QueryRisk` frame, decoded, answered from `result` loaded
/// into a `RiskView`, and the reply encoded and decoded — the serve tier's
/// query path with no socket, no scheduler and nothing else running.
/// Returns one reply time per query, in microseconds.
pub fn query_floor(result: &Detection, queries: &[(u32, u32)]) -> Vec<f64> {
    let view = RiskView::from_result(1, &result.0);
    let (mut req_buf, mut resp_buf) = (Vec::new(), Vec::new());
    queries
        .iter()
        .map(|&(u, v)| {
            let t0 = Instant::now();
            req_buf.clear();
            resp_buf.clear();
            write_frame(&mut req_buf, &risk_request(u, v)).expect("in-memory write");
            let decoded: Request = read_frame(&mut req_buf.as_slice()).expect("round trip");
            let Request::QueryRisk { users, items } = decoded else {
                unreachable!("a QueryRisk frame decodes to QueryRisk");
            };
            let resp = risk_response(&view, users[0], items[0]);
            write_frame(&mut resp_buf, &resp).expect("in-memory write");
            std::hint::black_box(
                read_frame::<Response>(&mut resp_buf.as_slice()).expect("round trip"),
            );
            us(t0.elapsed())
        })
        .collect()
}
