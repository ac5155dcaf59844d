//! What the benchmark runs and what it reports: the five workloads, their
//! sizes, and the metric names, units and bounds of `BENCHMARK.json`
//! (compiled in, so the binary and the contract cannot drift apart).

use serde_json::Value;

/// The contract file at the repository root.
pub const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// Open-loop send period of the two serve workloads. Chosen on the seed
/// commit so that the busiest tenth of the stream runs at ≤ 70 %
/// utilisation on `serve-50k-shard2`, then frozen (see README).
pub const BATCH_INTERVAL_MS: u64 = 750;
/// `--smoke` serve period: tiny batches, so a dozen fit in a second.
pub const SMOKE_BATCH_INTERVAL_MS: u64 = 40;
/// Open-loop query rate of the serve workloads, requests per second.
pub const QUERY_RATE_PER_S: u64 = 500;
/// Samples in one window of the query percentiles: a second of queries.
pub const QUERY_WINDOW: usize = QUERY_RATE_PER_S as usize;
/// `Status` poll period of the ingest thread between sends.
pub const STATUS_POLL_MS: u64 = 5;
/// A batch not visible this long after the last due time has failed.
pub const VISIBLE_DEADLINE_S: u64 = 10;
/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 11;

/// Full-size worlds, or the tiny ones `--smoke` runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// How a workload uses the system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// TSV bytes → ranked result, closed loop of reps.
    Batch { sharded: bool },
    /// Timestamped batches through the windowed detector, closed loop.
    Stream,
    /// Open-loop ingest + queries over loopback; `shards == 1` is the
    /// monolith, more goes through the router.
    Serve { shards: usize },
}

/// One named workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Percentile reported as `work_tail_ms`, fixed per workload so the
    /// metric means the same thing on every run.
    pub tail_percentile: u32,
}

/// The workloads, in the order `--all` runs them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "batch-200k",
        kind: Kind::Batch { sharded: false },
        tail_percentile: 75,
    },
    Workload {
        name: "batch-200k-sharded",
        kind: Kind::Batch { sharded: true },
        tail_percentile: 75,
    },
    Workload {
        name: "stream-200k-window",
        kind: Kind::Stream,
        tail_percentile: 90,
    },
    Workload {
        name: "serve-50k-mono",
        kind: Kind::Serve { shards: 1 },
        tail_percentile: 80,
    },
    Workload {
        name: "serve-50k-shard2",
        kind: Kind::Serve { shards: 2 },
        tail_percentile: 80,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.into_iter().find(|w| w.name == name)
}

/// One metric of `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the baseline median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Clone, Debug)]
pub struct Contract {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metric_specs(v: &Value) -> Result<Vec<MetricSpec>, String> {
    v.as_array()
        .ok_or("metric list is not an array")?
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m[k].as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("metric without `{k}`: {m:?}"))
            };
            let better = field("better")?;
            Ok(MetricSpec {
                name: field("name")?,
                unit: field("unit")?,
                higher_is_better: match better.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("`better` must be higher|lower, got {other}")),
                },
                bound: m["bound"].as_f64(),
            })
        })
        .collect()
}

impl Contract {
    pub fn parse(text: &str) -> Result<Self, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        Ok(Self {
            run_seconds: v["run_seconds"]
                .as_u64()
                .ok_or("BENCHMARK.json: run_seconds missing")?,
            workloads: v["workloads"]
                .as_array()
                .ok_or("BENCHMARK.json: workloads missing")?
                .iter()
                .filter_map(|w| w["name"].as_str().map(str::to_string))
                .collect(),
            end_to_end: metric_specs(&v["end_to_end"])?,
            per_layer: metric_specs(&v["per_layer"])?,
        })
    }

    /// The compiled-in contract.
    pub fn load() -> Self {
        Self::parse(BENCHMARK_JSON).expect("the committed BENCHMARK.json parses")
    }

    /// The metric list a run reports: per-layer when traced, end-to-end
    /// otherwise.
    pub fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// SplitMix64: the benchmark's own generator for seeds and query mixes.
#[derive(Clone, Debug)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: u32) -> u32 {
        (self.next_u64() % n as u64) as u32
    }
}

/// A sub-seed of `--seed` for one generator stage.
pub fn sub_seed(seed: u64, stage: u64) -> u64 {
    SplitMix64(seed ^ stage.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

/// The `(user, item)` pairs the risk queries ask about: uniform over the
/// id spaces, every tenth user a planted worker.
pub fn query_mix(seed: u64, n: usize, users: u32, items: u32, workers: &[u32]) -> Vec<(u32, u32)> {
    let mut rng = SplitMix64(sub_seed(seed, 5));
    (0..n)
        .map(|k| {
            let user = if k % 10 == 9 && !workers.is_empty() {
                workers[rng.below(workers.len() as u32) as usize]
            } else {
                rng.below(users.max(1))
            };
            (user, rng.below(items.max(1)))
        })
        .collect()
}
