//! `ricd_benchmark` — one benchmark for the three ways the system is used:
//! batch detection, windowed streaming, and online serving.
//!
//! ```text
//! ricd_benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ricd_benchmark --all [--trace 0|1] [--repeat N] [--seed N] [--seconds S] [--smoke]
//! ricd_benchmark --smoke                      # --all at tiny sizes
//! ricd_benchmark --compare A.json B.json
//! ```
//!
//! A single-workload run prints `workload metric value unit` lines and, as
//! the last line of standard output, one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end metrics
//! of `BENCHMARK.json`, or with `--trace 1` its per-layer metrics (and a
//! Chrome-trace file beside `result.json`). `--all` re-executes this
//! binary once per workload, so peak RSS is per workload. See `README.md`.

mod batch;
mod compare;
mod placement;
mod report;
mod serve;
mod spec;
mod stats;
mod stream;
mod sut;
mod trace;

use report::{Outcome, RunCfg};
use serde_json::Value;
use spec::{Contract, Kind, Scale, Workload, DEFAULT_SEED, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Tracer;

/// Marks the line a single-workload run prints for `--all` to collect.
const INFO_PREFIX: &str = "#info ";
/// `--smoke` measures this long per workload.
const SMOKE_SECONDS: f64 = 1.0;

const USAGE: &str =
    "usage: ricd_benchmark (--workload <name> | --all | --smoke | --compare A.json B.json) \
[--seed N] [--seconds S] [--trace [0|1]] [--repeat N]";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    all: bool,
    smoke: bool,
    traced: bool,
    seed: u64,
    seconds: Option<f64>,
    repeat: u64,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        smoke: false,
        traced: false,
        seed: DEFAULT_SEED,
        seconds: None,
        repeat: 1,
        compare: None,
    };
    let mut it = argv.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = Some(value(&mut it, flag)?),
            "--all" => a.all = true,
            "--smoke" => a.smoke = true,
            "--seed" => {
                a.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            "--repeat" => {
                a.repeat = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if a.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            // `--trace`, `--trace 1` and `--trace 0` are all accepted.
            "--trace" => {
                a.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--compare" => a.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// Where `result.json` and the trace files go: beside the build outputs.
fn out_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("benchmark")
}

fn run_workload(cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    match cfg.workload.kind {
        Kind::Batch { .. } => batch::run(cfg, tracer),
        Kind::Stream => stream::run(cfg, tracer),
        Kind::Serve { .. } => serve::run(cfg, tracer),
    }
}

/// Runs one workload in this process and prints its result line.
fn run_one(contract: &Contract, args: &Args, workload: Workload, started: Instant) -> ExitCode {
    let scale = if args.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    };
    let cfg = RunCfg {
        workload,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke {
            SMOKE_SECONDS
        } else {
            contract.run_seconds as f64
        }),
        scale,
        traced: args.traced,
        started,
    };
    let mut tracer = Tracer::new(cfg.traced);
    let mut outcome = run_workload(&cfg, &mut tracer);
    if cfg.traced {
        let path = out_dir().join(format!("trace-{}.json", workload.name));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, tracer.to_chrome_json()));
        match written {
            Ok(()) => outcome.note("trace_file", Value::Str(path.display().to_string())),
            Err(e) => outcome.check(false, || format!("writing {}: {e}", path.display())),
        }
        outcome.note("spans", Value::U64(tracer.spans().len() as u64));
        let layers = tracer
            .by_name()
            .into_iter()
            .map(|(name, t)| {
                let secs = |ns: u64| Value::F64(ns as f64 / 1e9);
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("count".into(), Value::U64(t.count)),
                        ("total_s".into(), secs(t.total_ns)),
                        ("self_s".into(), secs(t.self_ns)),
                    ]),
                )
            })
            .collect();
        outcome.note("spans_by_name", Value::Object(layers));
    }
    let specs = contract.metrics(cfg.traced);
    let result = match report::result_object(&outcome, specs, cfg.traced) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ricd_benchmark: {}: {e}", workload.name);
            return ExitCode::from(1);
        }
    };
    for f in &outcome.failures {
        eprintln!("{}: FAILED: {f}", workload.name);
    }
    for spec in specs {
        if let Some(v) = result["metrics"][spec.name.as_str()]["value"].as_f64() {
            println!("{} {} {v} {}", workload.name, spec.name, spec.unit);
        }
    }
    let info = Value::Object(std::mem::take(&mut outcome.info));
    println!(
        "{INFO_PREFIX}{}",
        serde_json::to_string(&info).expect("info serializes")
    );
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    ExitCode::SUCCESS
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn host(args: &Args, seconds: f64) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::Object(vec![
        ("nproc".into(), Value::U64(nproc as u64)),
        (
            "rustc".into(),
            Value::Str(command_line("rustc", &["--version"])),
        ),
        (
            "commit".into(),
            Value::Str(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("pool_workers".into(), Value::U64(sut::POOL_WORKERS as u64)),
        (
            "workers_per_shard".into(),
            Value::U64(sut::WORKERS_PER_SHARD as u64),
        ),
        (
            "batch_interval_ms".into(),
            Value::U64(if args.smoke {
                spec::SMOKE_BATCH_INTERVAL_MS
            } else {
                spec::BATCH_INTERVAL_MS
            }),
        ),
        ("seed".into(), Value::U64(args.seed)),
        ("seconds".into(), Value::F64(seconds)),
        ("repeat".into(), Value::U64(args.repeat)),
        ("smoke".into(), Value::Bool(args.smoke)),
        ("traced".into(), Value::Bool(args.traced)),
    ])
}

/// What `--all` keeps of one workload across its repeats.
struct Collected {
    name: &'static str,
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(metric, unit, one value per repeat)`.
    metrics: Vec<(String, String, Vec<f64>)>,
    info: Value,
}

/// Runs every workload, each in a fresh process, `--repeat` times over
/// (repeat `r` uses seed + `r`); prints every metric and writes
/// `result.json`. Fails if any output check fails.
fn run_all(contract: &Contract, args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("ricd_benchmark: cannot re-execute myself: {e}");
            return ExitCode::from(1);
        }
    };
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        contract.run_seconds as f64
    });
    let specs = contract.metrics(args.traced);
    let mut collected: Vec<Collected> = WORKLOADS
        .iter()
        .map(|w| Collected {
            name: w.name,
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: specs
                .iter()
                .map(|s| (s.name.clone(), s.unit.clone(), Vec::new()))
                .collect(),
            info: Value::Null,
        })
        .collect();
    let mut ok = true;
    for r in 0..args.repeat {
        for c in &mut collected {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", c.name])
                .args(["--seed", &(args.seed + r).to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if args.traced { "1" } else { "0" }])
                .stderr(Stdio::inherit());
            if args.smoke {
                cmd.arg("--smoke");
            }
            let output = match cmd.output() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("{}: could not start: {e}", c.name);
                    return ExitCode::from(1);
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            let lines: Vec<&str> = stdout.lines().collect();
            let parsed = lines
                .last()
                .filter(|_| output.status.success())
                .and_then(|l| serde_json::from_str::<Value>(l).ok());
            let Some(result) = parsed else {
                eprintln!("{}: run {r} produced no result ({})", c.name, output.status);
                c.correct = false;
                ok = false;
                continue;
            };
            c.correct &= result["correct"].as_bool().unwrap_or(false);
            c.attempted += result["attempted"].as_u64().unwrap_or(0);
            c.failed += result["failed"].as_u64().unwrap_or(0);
            for (name, unit, values) in &mut c.metrics {
                if let Some(v) = result["metrics"][name.as_str()]["value"].as_f64() {
                    println!("{} {name} {v} {unit}", c.name);
                    values.push(v);
                }
            }
            if let Some(info) = lines
                .iter()
                .rev()
                .find_map(|l| l.strip_prefix(INFO_PREFIX))
                .and_then(|l| serde_json::from_str::<Value>(l).ok())
            {
                c.info = info;
            }
            ok &= c.correct;
        }
    }

    let workloads = collected
        .iter()
        .map(|c| {
            let metrics = c
                .metrics
                .iter()
                .map(|(name, unit, values)| {
                    (
                        name.clone(),
                        Value::Object(vec![
                            ("unit".into(), Value::Str(unit.clone())),
                            (
                                "median".into(),
                                stats::median(values).map_or(Value::Null, Value::F64),
                            ),
                            (
                                "spread".into(),
                                stats::spread(values).map_or(Value::Null, Value::F64),
                            ),
                            (
                                "values".into(),
                                Value::Array(values.iter().map(|&v| Value::F64(v)).collect()),
                            ),
                        ]),
                    )
                })
                .collect();
            (
                c.name.to_string(),
                Value::Object(vec![
                    ("correct".into(), Value::Bool(c.correct)),
                    ("attempted".into(), Value::U64(c.attempted)),
                    ("failed".into(), Value::U64(c.failed)),
                    (
                        "failed_share".into(),
                        Value::F64(c.failed as f64 / c.attempted.max(1) as f64),
                    ),
                    ("metrics".into(), Value::Object(metrics)),
                    ("info".into(), c.info.clone()),
                ]),
            )
        })
        .collect();
    let doc = Value::Object(vec![
        ("host".into(), host(args, seconds)),
        ("workloads".into(), Value::Object(workloads)),
    ]);
    let path = out_dir().join(if args.traced {
        "result-traced.json"
    } else {
        "result.json"
    });
    let text = serde_json::to_string_pretty(&doc).expect("result document serializes");
    match std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, text + "\n")) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("ricd_benchmark: writing {}: {e}", path.display());
            ok = false;
        }
    }
    for c in &collected {
        eprintln!(
            "{:<22} {} ({} of {} operations failed)",
            c.name,
            if c.correct { "ok" } else { "FAILED" },
            c.failed,
            c.attempted
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ricd_benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let contract = Contract::load();
    if let Some((a, b)) = &args.compare {
        return match compare::run(&contract, a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("ricd_benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    if cfg!(debug_assertions) {
        eprintln!("ricd_benchmark: refusing to measure a debug build; run with --release");
        return ExitCode::from(2);
    }
    match &args.workload {
        Some(name) => match spec::workload(name) {
            Some(w) => run_one(&contract, &args, w, started),
            None => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!(
                    "ricd_benchmark: no workload {name}; have {}",
                    names.join(", ")
                );
                ExitCode::from(2)
            }
        },
        None if args.all || args.smoke => run_all(&contract, &args),
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn smoke(workload: Workload, traced: bool) -> (Outcome, Tracer) {
        let cfg = RunCfg {
            workload,
            seed: DEFAULT_SEED,
            seconds: 0.5,
            scale: Scale::Smoke,
            traced,
            started: Instant::now(),
        };
        let mut tracer = Tracer::new(traced);
        let outcome = run_workload(&cfg, &mut tracer);
        (outcome, tracer)
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn contract_and_code_name_the_same_workloads_within_the_limits() {
        let c = Contract::load();
        let code: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(c.workloads, code);
        assert!((2..=8).contains(&c.workloads.len()));
        assert!((1..=16).contains(&c.end_to_end.len()));
        assert!((1..=128).contains(&c.per_layer.len()));
        assert!((1..=60).contains(&c.run_seconds));
        let mut seen = BTreeSet::new();
        for name in c
            .workloads
            .iter()
            .chain(c.end_to_end.iter().map(|m| &m.name))
            .chain(c.per_layer.iter().map(|m| &m.name))
        {
            assert!(well_formed(name), "bad name {name:?}");
            assert!(seen.insert(name.clone()), "{name} is used twice");
        }
        assert!(c
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = c.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
    }

    /// Runs the five workloads at `--smoke` sizes, untraced and traced,
    /// and checks the emitted metric names against `BENCHMARK.json` in
    /// both directions.
    #[test]
    fn smoke_emits_exactly_the_metrics_the_contract_names() {
        let c = Contract::load();
        let end_to_end: BTreeSet<&str> = c.end_to_end.iter().map(|m| m.name.as_str()).collect();
        let per_layer: BTreeSet<&str> = c.per_layer.iter().map(|m| m.name.as_str()).collect();
        let mut layers_seen: BTreeSet<String> = BTreeSet::new();
        for w in WORKLOADS {
            let (plain, _) = smoke(w, false);
            let got: BTreeSet<&str> = plain.metrics.keys().map(String::as_str).collect();
            assert_eq!(got, end_to_end, "{}: end-to-end metric set", w.name);
            assert!(
                plain.failures.is_empty(),
                "{}: {:?}",
                w.name,
                plain.failures
            );
            let line = report::result_object(&plain, &c.end_to_end, false).unwrap();
            assert_eq!(line["correct"].as_bool(), Some(true));
            assert!(plain.metrics.values().all(|v| v.is_finite() && *v != 0.0));

            let (traced, tracer) = smoke(w, true);
            assert!(
                traced.failures.is_empty(),
                "{}: {:?}",
                w.name,
                traced.failures
            );
            for name in traced.metrics.keys() {
                assert!(
                    per_layer.contains(name.as_str()),
                    "{}: stray {name}",
                    w.name
                );
            }
            report::result_object(&traced, &c.per_layer, true).unwrap();
            assert!(!tracer.spans().is_empty(), "{}: no spans", w.name);
            layers_seen.extend(traced.metrics.into_keys());
        }
        let seen: BTreeSet<&str> = layers_seen.iter().map(String::as_str).collect();
        assert_eq!(
            seen, per_layer,
            "every per-layer metric comes from some workload"
        );
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        let parse =
            |s: &[&str]| parse_args(&s.iter().map(|x| x.to_string()).collect::<Vec<_>>()).unwrap();
        assert!(parse(&["--all", "--trace"]).traced);
        assert!(parse(&["--trace", "1", "--all"]).traced);
        assert!(!parse(&["--trace", "0", "--workload", "batch-200k"]).traced);
        let a = parse(&[
            "--workload",
            "x",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]);
        assert_eq!((a.seed, a.seconds, a.traced), (7, Some(3.0), true));
    }
}
