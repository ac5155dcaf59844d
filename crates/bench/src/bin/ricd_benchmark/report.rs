//! What one workload run hands back, and how it is printed.

use crate::spec::{MetricSpec, Scale, Workload};
use crate::stats;
use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// The inputs of one workload run.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    pub workload: Workload,
    pub seed: u64,
    /// How long the measured phase runs, seconds.
    pub seconds: f64,
    pub scale: Scale,
    pub traced: bool,
    /// Process start, as close as `main` can get to it.
    pub started: Instant,
}

/// Metrics, output checks and side notes of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, f64>,
    /// Operations attempted: every timed operation and every output check.
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation or check.
    pub failures: Vec<String>,
    /// Sample counts and other context for `result.json`.
    pub info: Vec<(String, Value)>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// A registry-sourced metric: a name the product no longer registers
    /// reads 0 and is listed under `unresolved_registry_names`.
    pub fn set_registry(&mut self, name: &str, value: Option<f64>) {
        if value.is_none() {
            self.note_list("unresolved_registry_names", name);
        }
        self.set(name, value.unwrap_or(0.0));
    }

    /// Counts one attempted operation or check; records why if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn note(&mut self, key: &str, value: Value) {
        self.info.push((key.to_string(), value));
    }

    fn note_list(&mut self, key: &str, item: &str) {
        let item = Value::Str(item.to_string());
        match self.info.iter_mut().find(|(k, _)| k == key) {
            Some((_, Value::Array(a))) => a.push(item),
            _ => self.info.push((key.to_string(), Value::Array(vec![item]))),
        }
    }

    /// Mean and the workload's fixed tail percentile of `samples_ms`, as
    /// `work_mean_ms` / `work_tail_ms`; the median and the sample count go
    /// into the notes. The mean, because none of these samples are draws
    /// from one distribution: ticks and lags ramp with the graph, and the
    /// median of a ramp is whichever single sample sits in the middle
    /// (spread between seeds: 14 % for the median tick, 4.5 % for the mean).
    pub fn set_work(&mut self, workload: &Workload, samples_ms: &[f64]) {
        let p = workload.tail_percentile;
        let mean = samples_ms.iter().sum::<f64>() / samples_ms.len().max(1) as f64;
        self.set("work_mean_ms", mean);
        self.note(
            "work_p50_ms",
            stats::median(samples_ms).map_or(Value::Null, Value::F64),
        );
        self.set(
            "work_tail_ms",
            stats::percentile(samples_ms, p as f64).unwrap_or(0.0),
        );
        self.note("work_samples", Value::U64(samples_ms.len() as u64));
        self.note("work_tail_percentile", Value::U64(p as u64));
        self.note(
            "work_samples_beyond_tail",
            Value::U64(stats::beyond(samples_ms.len(), p) as u64),
        );
        // The highest percentile this sample could support with ten
        // samples beyond it (null below 40 samples).
        self.note(
            "work_supported_percentile",
            stats::tail_percentile(samples_ms.len()).map_or(Value::Null, |p| Value::U64(p as u64)),
        );
    }

    /// `query_p50_us` / `query_p95_us` from per-query reply times in the
    /// order they were taken: the median over windows of `window` samples
    /// of each window's percentile. On this shared box the host slows
    /// everything by a third for a few seconds in about one run in four;
    /// pooled, such an episode moved a run's p50 by 15 %, per window it
    /// moves a minority of the windows and not their median. The pooled
    /// percentiles go into the notes.
    pub fn set_query(&mut self, samples_us: &[f64], window: usize) {
        for (name, p) in [("query_p50_us", 50.0), ("query_p95_us", 95.0)] {
            self.set(
                name,
                stats::windowed_percentile(samples_us, window, p).unwrap_or(0.0),
            );
        }
        self.note(
            "query_pooled_p50_us",
            stats::median(samples_us).map_or(Value::Null, Value::F64),
        );
        self.note(
            "query_pooled_p95_us",
            stats::percentile(samples_us, 95.0).map_or(Value::Null, Value::F64),
        );
        self.note("query_samples", Value::U64(samples_us.len() as u64));
        self.note("query_window_samples", Value::U64(window as u64));
    }
}

/// Set-ups a run makes at most. Seven, because in about half the processes
/// the first two or three set-ups of `serve-50k-shard2` take 0.6 s and the
/// rest 0.36 s; the median of seven is of the settled kind either way.
const SETUP_REPEATS: usize = 7;
/// Seconds a run may spend repeating its set-up.
const SETUP_REPEAT_BUDGET_S: f64 = 3.0;

/// Sets the workload up and returns the state with `setup_s`, and notes
/// every sample in `out`. The first set-up is timed from process start;
/// while another one fits the repeat budget the state is discarded and
/// built again, and `setup_s` is the median — a sub-second set-up measured
/// once would be mostly noise, a multi-second one is steady as it is.
pub fn repeated_setup<S>(
    started: Instant,
    out: &mut Outcome,
    mut build: impl FnMut() -> S,
    mut discard: impl FnMut(S),
) -> (S, f64) {
    let mut state = build();
    let mut times = vec![started.elapsed().as_secs_f64()];
    let mut spent = 0.0;
    while times.len() < SETUP_REPEATS && spent + times[times.len() - 1] <= SETUP_REPEAT_BUDGET_S {
        discard(state);
        let t = Instant::now();
        state = build();
        let s = t.elapsed().as_secs_f64();
        spent += s;
        times.push(s);
    }
    out.note(
        "setup_samples_s",
        Value::Array(times.iter().map(|&t| Value::F64(t)).collect()),
    );
    (state, stats::median(&times).unwrap_or(0.0))
}

/// Peak resident set of this process (`VmHWM`), in MB; 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric_value(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".into(), Value::F64(value)),
        ("unit".into(), Value::Str(unit.into())),
    ])
}

/// The run's result object: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every metric of `specs` and nothing else
/// (a measured metric `specs` does not name is an error). A metric the
/// workload did not produce is an error for an end-to-end list and an idle
/// layer (0) for a per-layer one.
pub fn result_object(
    outcome: &Outcome,
    specs: &[MetricSpec],
    idle_is_zero: bool,
) -> Result<Value, String> {
    if let Some(stray) = outcome
        .metrics
        .keys()
        .find(|k| !specs.iter().any(|s| &s.name == *k))
    {
        return Err(format!("metric {stray} is not in BENCHMARK.json"));
    }
    let mut metrics = Vec::with_capacity(specs.len());
    for spec in specs {
        let value = match outcome.metrics.get(&spec.name) {
            Some(&v) if v.is_finite() => v,
            Some(v) => return Err(format!("metric {} is not finite: {v}", spec.name)),
            None if idle_is_zero => 0.0,
            None => return Err(format!("metric {} was not measured", spec.name)),
        };
        metrics.push((spec.name.clone(), metric_value(value, &spec.unit)));
    }
    Ok(Value::Object(vec![
        ("correct".into(), Value::Bool(outcome.failed == 0)),
        ("attempted".into(), Value::U64(outcome.attempted.max(1))),
        ("failed".into(), Value::U64(outcome.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]))
}
