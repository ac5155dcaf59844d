//! `ricd` — command-line front end for the fake-click-detection library.
//!
//! ```text
//! ricd generate --output clicks.tsv --truth truth.json [--scale default]
//! ricd stats    --input clicks.tsv
//! ricd detect   --input clicks.tsv [--k1 10 --k2 10 --alpha 1.0 ...]
//! ricd eval     --input clicks.tsv --truth truth.json [--method RICD]
//! ricd campaign [--days 13]
//! ```
//!
//! Click tables are TSV (`user \t item \t clicks`); ground truth and
//! detection reports are JSON.

use fake_click_detection::core::detect::Seeds;
use fake_click_detection::engine::WorkerPool;
use fake_click_detection::eval::figures;
use fake_click_detection::graph::io as graph_io;
use fake_click_detection::obs::{MetricsRegistry, MetricsSnapshot, StderrTraceRecorder};
use fake_click_detection::prelude::*;
use fake_click_detection::serve::{Client, RouterConfig, ServeConfig, ServeState};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;
use std::sync::Arc;

/// CLI failures, split by exit code: usage errors exit 2, runtime (I/O,
/// parse, generation) errors exit 1. A *degraded* detection run is not an
/// error — it exits 0 with a warning on stderr, because a best-effort
/// report is still a report.
enum CliError {
    /// The invocation itself is wrong (missing/unknown flag or command).
    Usage(String),
    /// The invocation is fine but the work failed (I/O, malformed data).
    Runtime(String),
}

impl From<String> for CliError {
    fn from(s: String) -> Self {
        CliError::Runtime(s)
    }
}

impl From<fake_click_detection::serve::WireError> for CliError {
    fn from(e: fake_click_detection::serve::WireError) -> Self {
        CliError::Runtime(e.to_string())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("detect") => cmd_detect(&args[1..]),
        Some("eval") => cmd_eval(&args[1..]),
        Some("campaign") => cmd_campaign(&args[1..]),
        Some("stream") => cmd_stream(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(CliError::Usage(format!("unknown command `{other}`"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Runtime(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Err(CliError::Usage(e)) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
ricd - Ride Item's Coattails attack detection (ICDE 2021 reproduction)

USAGE:
    ricd generate --output <clicks.tsv> [--truth <truth.json>]
                  [--scale tiny|small|default|100x|1000x] [--groups <N>] [--seed <N>]
    ricd stats    --input <clicks.tsv> [--lossy]
    ricd detect   --input <clicks.tsv> [--output <report.json>]
                  [--k1 <N>] [--k2 <N>] [--alpha <F>]
                  [--t-hot <N>] [--t-click <N>]
                  [--seed-user <id>]... [--seed-item <id>]...
                  [--lossy] [--deadline-ms <N>] [--max-groups <N>]
                  [--metrics-out <m.json>] [--metrics-count-only] [--trace]
    ricd eval     --input <clicks.tsv> --truth <truth.json> [--method <NAME>]
                  [--lossy] [--metrics-out <m.json>] [--metrics-count-only]
                  [--trace]
    ricd eval     --adversarial [--budgets <N,N,...>] [--rounds <N>]
                  [--params default|derived] [--scale tiny|small]
                  [--seed <N>] [--target-flagged <N>] [--workers <N>]
                  [--out <report.json>]
    ricd campaign [--days <N>]
    ricd stream   [--scenario burst|slow-drip] [--seed <N>]
                  [--window <TICKS>] [--decay <TICKS>] [--detect-every <N>]
                  [--flag-fraction <F>] [--out <report.json>]
                  [--params default|derived]
                  [--k1 <N>] [--k2 <N>] [--alpha <F>]
                  [--t-hot <N>] [--t-click <N>]
                  [--metrics-out <m.json>] [--metrics-count-only] [--trace]
    ricd serve    [--port <N>] [--oneshot] [--resume <ckpt.json>]
                  [--queue <N>] [--swap-every <N>] [--max-connections <N>]
                  [--workers <N>] [--checkpoint-out <ckpt.json>]
                  [--io-timeout-ms <N>]
                  [--shards <N>] [--buffer-per-shard <N>]
                  [--checkpoint-dir <DIR>] [--checkpoint-every <N>]
                  [--resume-manifest <manifest.json|DIR>]
                  [--k1 <N>] [--k2 <N>] [--alpha <F>]
                  [--t-hot <N>] [--t-click <N>]
                  [--metrics-out <m.json>] [--metrics-count-only] [--trace]
    ricd client   <op> --addr <HOST:PORT> ...
        ingest     --input <clicks.tsv> [--lossy] [--batch <N>] [--start-seq <N>]
        query      [--user <id>]... [--item <id>]...
        recommend  --user <id> [--n <N>]
        metrics    [--count-only] [--filter <PREFIX>] [--output <m.json>]
        checkpoint [--output <ckpt.json>]
        check      --truth <truth.json> [--min-recall <F>]
        status
        shutdown

Click tables are TSV lines `user<TAB>item<TAB>clicks`.

FAULT TOLERANCE:
    --lossy          quarantine malformed TSV lines (reported on stderr)
                     instead of aborting the read
    --deadline-ms N  wall-clock budget; past it the run degrades to the
                     naive detector and warns instead of failing
    --max-groups N   cap the report at the N largest groups

OBSERVABILITY:
    --metrics-out F        write the run's metrics snapshot (counters,
                           gauges, histograms, span timings) as JSON to F;
                           with `eval`, requires a single --method
    --metrics-count-only   zero all durations in the snapshot, keeping
                           counts, so repeat runs are byte-identical
    --trace                stream a human-readable span trace to stderr

SERVING:
    `ricd serve` runs the online detection daemon on 127.0.0.1 (port 0 =
    ephemeral; the bound address is printed as `listening on HOST:PORT`).
    Batches ingest through a bounded queue (--queue), detection reruns
    every --swap-every batches, and --oneshot serves exactly one client
    connection then drains and exits. `ricd client` speaks the
    length-prefixed JSON wire protocol; `client check --truth` exits 1
    unless every planted worker/target is flagged by the live view.
    A frame that stalls mid-read past --io-timeout-ms closes the
    connection (slow-loris guard, counted in serve.conn_timeouts).

    `ricd serve --shards N` runs N supervised replicas: every batch goes
    to N crash-isolated replica workers; a dead replica restarts from its
    last coordinated checkpoint and replays its log, losing no accepted
    batch. Queries answer from the freshest replica that is up; only
    when none is up are they tagged DEGRADED. `ricd client status` shows
    per-replica health, restart counts, and the quorum epoch watermark
    (degraded status still exits 0 — the topology is serving).
    Coordinated checkpoints write per-replica files plus a manifest.json
    commit point under --checkpoint-dir every --checkpoint-every accepted
    batches (and on `client checkpoint`); --resume-manifest restores the
    whole topology from one.

STREAMING:
    `ricd stream` replays a timestamped attack scenario through the
    windowed streaming detector and reports per-campaign detection
    latency: batches-to-flag, sim-ticks-to-flag, and per-phase
    recall/precision. `--window T` keeps only clicks newer than T ticks
    (sliding window); `--decay H` halves edge weight every H ticks;
    with neither, the window is infinite and the final result equals a
    one-shot batch run over the whole scenario. `--detect-every N` runs
    detection every Nth batch; `--flag-fraction F` sets the fraction of
    a campaign's workers that must be flagged before the campaign
    counts as detected. `--out` writes the full report JSON;
    `--metrics-out` captures the `stream.*` metric family.
    `--params derived` resolves T_hot/T_click from the scenario's own
    aggregate table (Pareto rule + Eq 4) instead of the paper's
    operating point; explicit threshold flags override either base.

ADVERSARIAL LAB:
    `ricd eval --adversarial` needs no input files: it plants every
    detector-aware attacker strategy (paper-optimal, camouflage sweep,
    budget splitting, hot-item mimicry, slow drip) at each `--budgets`
    click budget against a synthetic world, runs detection at the
    round-0 operating point, and lets the Module-3 feedback loop relax
    the thresholds for up to `--rounds` extra rounds whenever fewer
    than `--target-flagged` nodes are flagged. The matrix prints one
    row per strategy x budget cell (round-0 recall, final recall,
    recovery, collateral); `--out` writes the deterministic JSON
    report (`BENCH_adversarial.json` in CI).

EXIT CODES:
    0  success (including degraded runs, which warn on stderr)
    1  runtime failure (I/O, malformed data, rejected wire frames)
    2  usage error, including any flag the subcommand does not take
";

/// The flags one subcommand (or `client` op) takes. Anything else on its
/// command line is a usage error, not something to skip over.
struct FlagTable {
    /// `--flag <value>`, at most once.
    value: &'static [&'static str],
    /// `--flag`, taking nothing.
    bare: &'static [&'static str],
    /// `--flag <value>`, any number of times.
    repeatable: &'static [&'static str],
}

/// One table per subcommand (and per `client` op): what it takes.
#[rustfmt::skip]
mod tables {
    use super::FlagTable;

    const NONE: FlagTable = FlagTable { value: &[], bare: &[], repeatable: &[] };

    pub const GENERATE: FlagTable = FlagTable {
        value: &["--output", "--truth", "--scale", "--groups", "--seed"],
        ..NONE
    };
    pub const STATS: FlagTable = FlagTable { value: &["--input"], bare: &["--lossy"], ..NONE };
    pub const DETECT: FlagTable = FlagTable {
        value: &["--input", "--output", "--k1", "--k2", "--alpha", "--t-hot", "--t-click",
                 "--deadline-ms", "--max-groups", "--metrics-out"],
        bare: &["--lossy", "--metrics-count-only", "--trace"],
        repeatable: &["--seed-user", "--seed-item"],
    };
    pub const EVAL: FlagTable = FlagTable {
        value: &["--input", "--truth", "--method", "--metrics-out"],
        bare: &["--lossy", "--metrics-count-only", "--trace"],
        ..NONE
    };
    pub const EVAL_ADVERSARIAL: FlagTable = FlagTable {
        value: &["--budgets", "--rounds", "--params", "--scale", "--seed", "--target-flagged",
                 "--workers", "--out"],
        bare: &["--adversarial"],
        ..NONE
    };
    pub const CAMPAIGN: FlagTable = FlagTable { value: &["--days"], ..NONE };
    pub const STREAM: FlagTable = FlagTable {
        value: &["--scenario", "--seed", "--window", "--decay", "--detect-every",
                 "--flag-fraction", "--out", "--params", "--k1", "--k2", "--alpha", "--t-hot",
                 "--t-click", "--metrics-out"],
        bare: &["--metrics-count-only", "--trace"],
        ..NONE
    };
    pub const SERVE: FlagTable = FlagTable {
        value: &["--port", "--resume", "--queue", "--swap-every", "--max-connections",
                 "--workers", "--checkpoint-out", "--io-timeout-ms", "--shards",
                 "--buffer-per-shard", "--checkpoint-dir", "--checkpoint-every",
                 "--resume-manifest", "--k1", "--k2", "--alpha", "--t-hot", "--t-click",
                 "--metrics-out"],
        bare: &["--oneshot", "--metrics-count-only", "--trace"],
        ..NONE
    };
    pub const CLIENT_OPS: &[(&str, FlagTable)] = &[
        ("ingest", FlagTable {
            value: &["--addr", "--input", "--batch", "--start-seq"],
            bare: &["--lossy"],
            ..NONE
        }),
        ("query", FlagTable { value: &["--addr"], repeatable: &["--user", "--item"], ..NONE }),
        ("recommend", FlagTable { value: &["--addr", "--user", "--n"], ..NONE }),
        ("metrics", FlagTable {
            value: &["--addr", "--filter", "--output"],
            bare: &["--count-only"],
            ..NONE
        }),
        ("checkpoint", FlagTable { value: &["--addr", "--output"], ..NONE }),
        ("check", FlagTable { value: &["--addr", "--truth", "--min-recall"], ..NONE }),
        ("status", FlagTable { value: &["--addr"], ..NONE }),
        ("shutdown", FlagTable { value: &["--addr"], ..NONE }),
    ];
}

/// A command line checked against its command's [`FlagTable`]: the
/// `(flag, value)` pairs in order, a bare flag carrying an empty value.
struct Flags<'a> {
    table: &'a FlagTable,
    given: Vec<(&'a str, &'a str)>,
}

impl<'a> Flags<'a> {
    /// Rejects, as usage errors naming the flag: a flag `cmd` does not
    /// take (a typo must not run the command with the default instead), a
    /// value flag whose value is missing or is itself a `--flag`, and a
    /// non-repeatable flag given twice.
    fn new(cmd: &str, args: &'a [String], table: &'a FlagTable) -> Result<Self, CliError> {
        let mut given: Vec<(&str, &str)> = Vec::new();
        let mut args = args.iter().map(String::as_str);
        while let Some(flag) = args.next() {
            let repeatable = table.repeatable.contains(&flag);
            let value = if table.bare.contains(&flag) {
                ""
            } else if repeatable || table.value.contains(&flag) {
                args.next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| CliError::Usage(format!("{flag} requires a value")))?
            } else {
                return Err(CliError::Usage(format!(
                    "unknown flag `{flag}` for `ricd {cmd}`"
                )));
            };
            if !repeatable && given.iter().any(|&(f, _)| f == flag) {
                return Err(CliError::Usage(format!("{flag} given more than once")));
            }
            given.push((flag, value));
        }
        Ok(Flags { table, given })
    }

    fn get_all(&self, key: &'a str) -> impl Iterator<Item = &'a str> + '_ {
        // A flag read here but missing from the table could never be given.
        let t = self.table;
        debug_assert!([t.value, t.bare, t.repeatable].concat().contains(&key));
        self.given
            .iter()
            .filter(move |(f, _)| *f == key)
            .map(|&(_, v)| v)
    }

    fn get(&self, key: &'a str) -> Option<&'a str> {
        self.get_all(key).next()
    }

    /// True if the bare (value-less) flag `key` is present.
    fn has(&self, key: &'a str) -> bool {
        self.get(key).is_some()
    }

    fn parse_all<T: std::str::FromStr>(&self, key: &'a str) -> Result<Vec<T>, CliError>
    where
        T::Err: std::fmt::Display,
    {
        self.get_all(key)
            .map(|v| {
                v.parse()
                    .map_err(|e| CliError::Usage(format!("bad {key}: {e}")))
            })
            .collect()
    }

    fn parse<T: std::str::FromStr>(&self, key: &'a str) -> Result<Option<T>, CliError>
    where
        T::Err: std::fmt::Display,
    {
        Ok(self.parse_all(key)?.pop())
    }

    /// Overwrites `slot` with the flag's parsed value, if the flag is given.
    fn set<T: std::str::FromStr>(&self, key: &'a str, slot: &mut T) -> Result<(), CliError>
    where
        T::Err: std::fmt::Display,
    {
        if let Some(v) = self.parse(key)? {
            *slot = v;
        }
        Ok(())
    }

    fn require(&self, key: &'a str) -> Result<&'a str, CliError> {
        self.get(key)
            .ok_or_else(|| CliError::Usage(format!("missing {key}")))
    }
}

/// Writes `value` to `path`, if one was given, as pretty JSON with a
/// trailing newline.
fn write_json<T: serde::Serialize>(path: Option<&str>, value: &T) -> Result<(), CliError> {
    let Some(path) = path else { return Ok(()) };
    let json = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, json + "\n").map_err(|e| format!("{path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}

/// Reads the JSON file at `path`.
fn read_json<T: serde::Deserialize>(path: &str) -> Result<T, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?)
}

/// Loads a click table; with `lossy`, malformed lines are quarantined and
/// reported on stderr instead of failing the command. When a registry is
/// supplied, the lossy read records `io.records_ingested` /
/// `io.lines_quarantined` into it.
fn load_graph(
    path: &str,
    lossy: bool,
    metrics: Option<&MetricsRegistry>,
) -> Result<fake_click_detection::graph::BipartiteGraph, CliError> {
    let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    if lossy {
        let reader = BufReader::new(file);
        let read = match metrics {
            Some(m) => graph_io::read_tsv_lossy_metered(reader, m),
            None => graph_io::read_tsv_lossy(reader),
        }
        .map_err(|e| format!("{path}: {e}"))?;
        if !read.errors.is_empty() {
            eprintln!(
                "warning: {path}: quarantined {} malformed line(s):",
                read.errors.len()
            );
            for err in read.errors.iter().take(10) {
                eprintln!("warning:   {err}");
            }
            if read.errors.len() > 10 {
                eprintln!("warning:   ... and {} more", read.errors.len() - 10);
            }
        }
        Ok(read.graph)
    } else {
        Ok(graph_io::read_tsv(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))?)
    }
}

fn ricd_params(flags: &Flags) -> Result<RicdParams, CliError> {
    ricd_params_over(RicdParams::default(), flags)
}

/// Applies the explicit `--k1`/`--t-hot`/… flags over an arbitrary base —
/// the seam `--params derived` uses so data-derived thresholds can still be
/// overridden per knob.
fn ricd_params_over(base: RicdParams, flags: &Flags) -> Result<RicdParams, CliError> {
    let mut p = base;
    flags.set("--k1", &mut p.k1)?;
    flags.set("--k2", &mut p.k2)?;
    flags.set("--alpha", &mut p.alpha)?;
    flags.set("--t-hot", &mut p.t_hot)?;
    flags.set("--t-click", &mut p.t_click)?;
    p.validate().map_err(CliError::Usage)?;
    Ok(p)
}

/// The observability flags shared by `detect`, `eval`, `stream` and
/// `serve`: a fresh registry (streaming spans to stderr under `--trace`)
/// plus the snapshot destination and whether to strip durations from it.
fn metrics_flags<'a>(flags: &Flags<'a>) -> (MetricsRegistry, Option<&'a str>, bool) {
    let registry = MetricsRegistry::new();
    if flags.has("--trace") {
        registry.set_recorder(Arc::new(StderrTraceRecorder));
    }
    (
        registry,
        flags.get("--metrics-out"),
        flags.has("--metrics-count-only"),
    )
}

/// Writes `registry`'s snapshot as pretty JSON to `path`, if one was given.
fn write_snapshot(
    registry: &MetricsRegistry,
    path: Option<&str>,
    count_only: bool,
) -> Result<(), CliError> {
    let Some(path) = path else { return Ok(()) };
    let snap = registry.snapshot();
    let snap = if count_only { snap.count_only() } else { snap };
    write_json(Some(path), &snap)
}

/// Assembles the run budget from `--deadline-ms` / `--max-groups`.
fn run_budget(flags: &Flags) -> Result<RunBudget, CliError> {
    let mut budget = RunBudget::none();
    if let Some(ms) = flags.parse::<u64>("--deadline-ms")? {
        budget = budget.with_deadline(std::time::Duration::from_millis(ms));
    }
    if let Some(n) = flags.parse::<usize>("--max-groups")? {
        budget = budget.with_max_groups(n);
    }
    Ok(budget)
}

fn cmd_generate(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::new("generate", args, &tables::GENERATE)?;
    let output = flags.require("--output")?;
    // The 100× preset pairs its own attack mix: ten times the planted
    // groups so the fake-to-organic ratio matches the smaller scales.
    let (mut dataset_cfg, mut attack) = match flags.get("--scale") {
        None | Some("default") => (DatasetConfig::default(), AttackConfig::evaluation()),
        Some("small") => (DatasetConfig::small(), AttackConfig::evaluation()),
        Some("tiny") => (DatasetConfig::tiny(), AttackConfig::evaluation()),
        Some("100x") => (DatasetConfig::scale100(), AttackConfig::scale100()),
        Some("1000x") => (DatasetConfig::scale1000(), AttackConfig::scale1000()),
        Some(other) => return Err(CliError::Usage(format!("unknown scale `{other}`"))),
    };
    flags.set("--seed", &mut dataset_cfg.seed)?;
    flags.set("--groups", &mut attack.num_groups)?;
    let ds = generate(&dataset_cfg, &attack)?;

    let file = File::create(output).map_err(|e| format!("{output}: {e}"))?;
    graph_io::write_tsv(&ds.graph, BufWriter::new(file)).map_err(|e| e.to_string())?;
    eprintln!(
        "wrote {}: {} users, {} items, {} records, {} clicks ({} planted groups)",
        output,
        ds.graph.num_users(),
        ds.graph.num_items(),
        ds.graph.num_edges(),
        ds.graph.total_clicks(),
        ds.truth.groups.len()
    );

    write_json(flags.get("--truth"), &ds.truth)
}

fn cmd_stats(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::new("stats", args, &tables::STATS)?;
    let g = load_graph(flags.require("--input")?, flags.has("--lossy"), None)?;
    let r = figures::dataset_report(&g);
    println!("users         {}", r.scale.users);
    println!("items         {}", r.scale.items);
    println!("edges         {}", r.scale.edges);
    println!("total clicks  {}", r.scale.total_clicks);
    println!(
        "user stats    avg_clk={:.2} avg_cnt={:.2} stdev={:.2}",
        r.user_stats.avg_clk, r.user_stats.avg_cnt, r.user_stats.stdev
    );
    println!(
        "item stats    avg_clk={:.2} avg_cnt={:.2} stdev={:.2}",
        r.item_stats.avg_clk, r.item_stats.avg_cnt, r.item_stats.stdev
    );
    println!(
        "pareto        top-20% items hold {:.1}% of clicks",
        r.pareto_top20_share * 100.0
    );
    println!(
        "derived       T_hot={} T_click={}",
        r.t_hot_pareto, r.t_click_derived
    );
    Ok(())
}

fn cmd_detect(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::new("detect", args, &tables::DETECT)?;
    // Validate every flag before touching the filesystem: a usage error
    // (exit 2) must win over an I/O error (exit 1) so a typo'd invocation
    // never half-runs against a large input.
    let input = flags.require("--input")?;
    let params = ricd_params(&flags)?;
    let budget = run_budget(&flags)?;
    let (registry, metrics_out, count_only) = metrics_flags(&flags);

    let seeds = Seeds {
        users: flags
            .parse_all("--seed-user")?
            .into_iter()
            .map(UserId)
            .collect(),
        items: flags
            .parse_all("--seed-item")?
            .into_iter()
            .map(ItemId)
            .collect(),
    };

    let g = load_graph(input, flags.has("--lossy"), Some(&registry))?;
    // The one flag that can only be checked against the loaded graph.
    let seed_in_graph = |flag: &str, side: &str, id: u32, n: usize| {
        if (id as usize) < n {
            return Ok(());
        }
        Err(CliError::Usage(format!(
            "{flag} {id} is not in the graph ({n} {side}, ids 0..{n})"
        )))
    };
    for u in &seeds.users {
        seed_in_graph("--seed-user", "users", u.0, g.num_users())?;
    }
    for v in &seeds.items {
        seed_in_graph("--seed-item", "items", v.0, g.num_items())?;
    }
    let pipeline = RicdPipeline::new(params)
        .with_seeds(seeds)
        .with_budget(budget)
        .with_metrics(registry.clone());
    let result = pipeline.run(&g);
    if let RunStatus::Degraded { reason, phase } = &result.status {
        eprintln!("warning: degraded run (phase `{phase}`): {reason}");
    }
    eprintln!(
        "detected {} groups ({} suspicious users, {} suspicious items) in {:?}",
        result.groups.len(),
        result.suspicious_users().len(),
        result.suspicious_items().len(),
        result.timings.total()
    );
    for (i, grp) in result.groups.iter().enumerate() {
        println!(
            "group {}: {} workers x {} targets (ridden hot items: {:?})",
            i + 1,
            grp.users.len(),
            grp.items.len(),
            grp.ridden_hot_items
        );
    }
    write_json(flags.get("--output"), &result)?;
    write_snapshot(&registry, metrics_out, count_only)
}

fn cmd_eval(args: &[String]) -> Result<(), CliError> {
    if args.iter().any(|a| a == "--adversarial") {
        let flags = Flags::new("eval --adversarial", args, &tables::EVAL_ADVERSARIAL)?;
        return cmd_eval_adversarial(&flags);
    }
    let flags = Flags::new("eval", args, &tables::EVAL)?;
    let (registry, metrics_out, count_only) = metrics_flags(&flags);
    let trace = flags.has("--trace");
    let g = load_graph(
        flags.require("--input")?,
        flags.has("--lossy"),
        Some(&registry),
    )?;
    let truth: fake_click_detection::datagen::GroundTruth = read_json(flags.require("--truth")?)?;

    let methods: Vec<Method> = match flags.get("--method") {
        None => Method::fig8_lineup().to_vec(),
        Some(name) => vec![Method::fig8_lineup()
            .into_iter()
            .chain(Method::table6_lineup())
            .find(|m| m.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| CliError::Usage(format!("unknown method `{name}`")))?],
    };

    if metrics_out.is_some() && methods.len() != 1 {
        return Err(CliError::Usage(
            "eval --metrics-out requires a single --method".into(),
        ));
    }

    let cfg = MethodConfig::default();
    let outcomes: Vec<_> = methods
        .iter()
        .map(|&m| {
            // One registry per method, so each snapshot describes exactly
            // that run; a single-method invocation reuses the command
            // registry so the io.* counters from loading land in the same
            // --metrics-out snapshot as the pipeline spans.
            let method_registry = if methods.len() == 1 {
                registry.clone()
            } else {
                let r = MetricsRegistry::new();
                if trace {
                    r.set_recorder(Arc::new(StderrTraceRecorder));
                }
                r
            };
            let result = cfg.run_metered(m, &g, &method_registry);
            let eval = evaluate(&result, &truth);
            figures::MethodOutcome::from_snapshot(m, eval, &method_registry.snapshot())
        })
        .collect();
    println!("{}", report::format_quality(&outcomes));
    println!("{}", report::format_timing(&outcomes));
    write_snapshot(&registry, metrics_out, count_only)
}

/// `ricd eval --adversarial`: the adaptive-attacker matrix — every
/// detector-aware strategy × budget cell over a planted world, with the
/// Module-3 feedback loop re-tuning thresholds between rounds.
fn cmd_eval_adversarial(flags: &Flags) -> Result<(), CliError> {
    let mut cfg = AdversarialConfig::tiny(flags.parse::<u64>("--seed")?.unwrap_or(0x5eed_0010));
    match flags.get("--scale") {
        None | Some("tiny") => {}
        Some("small") => cfg.dataset = DatasetConfig::small(),
        Some(other) => {
            return Err(CliError::Usage(format!(
                "unknown --scale `{other}` for --adversarial (expected tiny|small)"
            )))
        }
    }
    if let Some(csv) = flags.get("--budgets") {
        cfg.budgets = csv
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<u64>()
                    .map_err(|e| CliError::Usage(format!("--budgets: `{s}`: {e}")))
            })
            .collect::<Result<_, _>>()?;
    }
    flags.set("--rounds", &mut cfg.feedback_rounds)?;
    if let Some(mode) = flags.get("--params") {
        cfg.params_mode = ParamsMode::parse(mode).map_err(CliError::Usage)?;
    }
    flags.set("--target-flagged", &mut cfg.tuner.target_flagged)?;
    cfg.workers = flags.parse("--workers")?.or(cfg.workers);
    let report = run_adversarial(&cfg).map_err(CliError::Runtime)?;

    println!(
        "adversarial matrix: {} strategies x {} budgets (params {}, expectation >={} flagged)",
        report.strategies.len(),
        report.budgets.len(),
        report.params_mode,
        report.target_flagged
    );
    println!(
        "{:<18} {:>8} {:>7} {:>7} {:>9} {:>6} {:>10} {:>5}",
        "strategy", "budget", "r0", "final", "recovery", "rounds", "collateral", "conv"
    );
    for c in &report.cells {
        let collateral = c.rounds.last().map_or(0, |r| r.collateral);
        println!(
            "{:<18} {:>8} {:>7.3} {:>7.3} {:>+9.3} {:>6} {:>10} {:>5}",
            c.strategy,
            c.budget,
            c.round0_recall,
            c.final_recall,
            c.recovery,
            c.rounds.len(),
            collateral,
            if c.converged { "yes" } else { "no" }
        );
    }
    write_json(flags.get("--out"), &report)
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::new("serve", args, &tables::SERVE)?;
    let params = ricd_params(&flags)?;
    let (registry, metrics_out, count_only) = metrics_flags(&flags);
    let mut cfg = ServeConfig::default();
    flags.set("--queue", &mut cfg.queue_capacity)?;
    flags.set("--swap-every", &mut cfg.swap_every_batches)?;
    flags.set("--max-connections", &mut cfg.max_connections)?;
    cfg.oneshot = flags.has("--oneshot");
    if let Some(ms) = flags.parse("--io-timeout-ms")? {
        cfg.io_timeout = std::time::Duration::from_millis(ms);
    }
    let port: u16 = flags.parse("--port")?.unwrap_or(0);

    // --shards N runs N supervised replicas (crash-recovering replica
    // workers, degraded-mode serving). Without it the classic single-state
    // daemon runs.
    if let Some(shards) = flags.parse::<usize>("--shards")? {
        let mut rcfg = RouterConfig {
            shards,
            params,
            serve: cfg,
            ..RouterConfig::default()
        };
        flags.set("--workers", &mut rcfg.workers_per_shard)?;
        flags.set("--buffer-per-shard", &mut rcfg.buffer_per_shard)?;
        flags.set("--checkpoint-every", &mut rcfg.checkpoint_every_batches)?;
        if let Some(dir) = flags.get("--checkpoint-dir") {
            rcfg.checkpoint_dir = Some(std::path::PathBuf::from(dir));
        }
        let resume = flags.get("--resume-manifest").map(std::path::Path::new);
        if let Some(path) = resume {
            eprintln!("resuming {shards} shard(s) from {}", path.display());
        }
        let handle = fake_click_detection::serve::start_router(
            rcfg,
            registry.clone(),
            ("127.0.0.1", port),
            resume,
        )
        .map_err(|e| format!("bind 127.0.0.1:{port}: {e}"))?;
        println!("listening on {}", handle.addr());
        std::io::stdout().flush().map_err(|e| e.to_string())?;
        let states = handle.join();
        for (i, s) in states.iter().enumerate() {
            eprintln!("shard {i} drained (next_seq {})", s.next_seq());
        }
        return write_snapshot(&registry, metrics_out, count_only);
    }

    let pool = match flags.parse("--workers")? {
        Some(n) => WorkerPool::new(n),
        None => WorkerPool::default_for_host(),
    };
    let pipeline = RicdPipeline::new(params)
        .with_pool(pool)
        .with_metrics(registry.clone());

    let state = match flags.get("--resume") {
        Some(path) => {
            let ckpt: fake_click_detection::core::prelude::Checkpoint = read_json(path)?;
            ckpt.validate().map_err(|e| format!("{path}: {e}"))?;
            eprintln!("resuming from {path} (next_seq {})", ckpt.next_seq);
            ServeState::restore(cfg, pipeline, ckpt)
        }
        None => ServeState::new(cfg, pipeline),
    };

    let handle = fake_click_detection::serve::start(state, ("127.0.0.1", port))
        .map_err(|e| format!("bind 127.0.0.1:{port}: {e}"))?;
    // Scrapeable by scripts and the oneshot tests: the first stdout line is
    // always the bound address.
    println!("listening on {}", handle.addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;

    let state = handle.join();
    eprintln!(
        "drained; {} batches ingested (next_seq {})",
        state.next_seq(),
        state.next_seq()
    );
    if let Some(path) = flags.get("--checkpoint-out") {
        write_json(Some(path), &state.checkpoint())?;
    }
    write_snapshot(&registry, metrics_out, count_only)
}

/// Retains only the snapshot entries whose name starts with `prefix`
/// (events filter on their name field). Used by `client metrics --filter`
/// so restart comparisons can select the view-derived `serve.view_*`
/// gauges, which must survive a checkpoint/restore round trip.
fn filter_snapshot(snap: &mut MetricsSnapshot, prefix: &str) {
    snap.counters.retain(|(n, _)| n.starts_with(prefix));
    snap.gauges.retain(|(n, _)| n.starts_with(prefix));
    snap.histograms.retain(|(n, _)| n.starts_with(prefix));
    snap.spans.retain(|(n, _)| n.starts_with(prefix));
    snap.events.retain(|e| e.name.starts_with(prefix));
}

fn cmd_client(args: &[String]) -> Result<(), CliError> {
    let Some(op) = args.first().map(String::as_str) else {
        return Err(CliError::Usage("client requires an operation".into()));
    };
    let Some((_, table)) = tables::CLIENT_OPS.iter().find(|(name, _)| *name == op) else {
        return Err(CliError::Usage(format!("unknown client op `{op}`")));
    };
    // Validate per-op flags BEFORE connecting: usage errors (exit 2) must
    // win over connection errors (exit 1).
    let flags = Flags::new(&format!("client {op}"), &args[1..], table)?;
    let addr = flags.require("--addr")?;

    match op {
        "ingest" => {
            let input = flags.require("--input")?;
            let batch_size: usize = flags.parse("--batch")?.unwrap_or(1000).max(1);
            let start_seq: u64 = flags.parse("--start-seq")?.unwrap_or(0);
            let g = load_graph(input, flags.has("--lossy"), None)?;
            let records: Vec<(UserId, ItemId, u32)> = g.edges().collect();
            let mut c = connect(addr)?;
            let mut seq = start_seq;
            let mut rejections = 0u64;
            let mut attempts = 0u64;
            for chunk in records.chunks(batch_size) {
                let stats = c.ingest_blocking(seq, chunk)?;
                rejections += stats.rejections;
                attempts += stats.attempts;
                seq += 1;
            }
            eprintln!(
                "ingested {} batches ({} records) in {attempts} attempt(s), \
                 {rejections} backpressure rejection(s)",
                seq - start_seq,
                records.len(),
            );
            Ok(())
        }
        "query" => {
            let users = flags.parse_all("--user")?.into_iter().map(UserId).collect();
            let items = flags.parse_all("--item")?.into_iter().map(ItemId).collect();
            let mut c = connect(addr)?;
            let report = c.query_risk(users, items)?;
            println!(
                "epoch {} ({} groups){}",
                report.epoch,
                report.groups,
                if report.degraded {
                    format!(" DEGRADED missing_shards={:?}", report.missing_shards)
                } else {
                    String::new()
                }
            );
            for (u, v) in &report.users {
                println!(
                    "user {}: {} score={:.3}{}",
                    u.0,
                    if v.flagged { "FLAGGED" } else { "clear" },
                    v.score,
                    v.group.map(|g| format!(" group={g}")).unwrap_or_default()
                );
            }
            for (i, v) in &report.items {
                println!(
                    "item {}: {} score={:.3}{}",
                    i.0,
                    if v.flagged { "FLAGGED" } else { "clear" },
                    v.score,
                    v.group.map(|g| format!(" group={g}")).unwrap_or_default()
                );
            }
            Ok(())
        }
        "recommend" => {
            let user = UserId(
                flags
                    .parse("--user")?
                    .ok_or_else(|| CliError::Usage("missing --user".into()))?,
            );
            let n: usize = flags.parse("--n")?.unwrap_or(10);
            let mut c = connect(addr)?;
            let rec = c.recommend(user, n)?;
            println!(
                "epoch {}{}",
                rec.epoch,
                if rec.degraded { " (degraded)" } else { "" }
            );
            for (item, score) in rec.items {
                println!("item {}  score={score:.4}", item.0);
            }
            Ok(())
        }
        "metrics" => {
            let mut c = connect(addr)?;
            let mut snap = c.metrics(flags.has("--count-only"))?;
            if let Some(prefix) = flags.get("--filter") {
                filter_snapshot(&mut snap, prefix);
            }
            match flags.get("--output") {
                path @ Some(_) => write_json(path, &snap),
                None => {
                    let json = serde_json::to_string_pretty(&snap).map_err(|e| e.to_string())?;
                    println!("{json}");
                    Ok(())
                }
            }
        }
        "checkpoint" => {
            // A monolith answers with the checkpoint itself (written to
            // --output); a sharded router writes its own files and answers
            // with the manifest path.
            let output = flags.get("--output");
            let mut c = connect(addr)?;
            let resp = c.request(&fake_click_detection::serve::Request::Checkpoint)?;
            match resp {
                fake_click_detection::serve::Response::CheckpointTaken(ckpt) => {
                    let output =
                        output.ok_or_else(|| CliError::Usage("missing --output".into()))?;
                    write_json(Some(output), &ckpt)?;
                    eprintln!(
                        "checkpoint holds {} records, {} groups, next_seq {}",
                        ckpt.records.len(),
                        ckpt.groups.len(),
                        ckpt.next_seq
                    );
                    Ok(())
                }
                fake_click_detection::serve::Response::ManifestWritten {
                    path,
                    shards,
                    epoch,
                } => {
                    if path.is_empty() {
                        eprintln!(
                            "coordinated checkpoint taken in memory ({shards} shards, \
                             epoch {epoch}); start the server with --checkpoint-dir \
                             to persist manifests"
                        );
                    } else {
                        eprintln!("wrote {path} ({shards} shards, epoch {epoch})");
                        println!("{path}");
                    }
                    Ok(())
                }
                fake_click_detection::serve::Response::Error { message } => {
                    Err(CliError::Runtime(format!("server: {message}")))
                }
                other => Err(CliError::Runtime(format!("unexpected response: {other:?}"))),
            }
        }
        "status" => {
            let mut c = connect(addr)?;
            let st = c.status()?;
            println!(
                "epoch {}  quorum {}  {}",
                st.epoch,
                st.quorum,
                if st.degraded { "DEGRADED" } else { "healthy" }
            );
            println!("shard  state       epoch  backlog  next_seq  restarts");
            for s in &st.shards {
                println!(
                    "{:>5}  {:<10}  {:>5}  {:>7}  {:>8}  {:>8}",
                    s.shard, s.state, s.epoch, s.backlog, s.next_seq, s.restarts
                );
            }
            // Degraded status is exit 0: visibility, not failure — the
            // topology is still serving.
            Ok(())
        }
        "check" => {
            let truth_path = flags.require("--truth")?;
            let min_recall: f64 = flags.parse("--min-recall")?.unwrap_or(1.0);
            let truth: fake_click_detection::datagen::GroundTruth = read_json(truth_path)?;
            let users = truth.abnormal_users();
            let items = truth.abnormal_items();
            let mut c = connect(addr)?;
            let report = c.query_risk(users.clone(), items.clone())?;
            let missed_users: Vec<u32> = report
                .users
                .iter()
                .filter(|(_, v)| !v.flagged)
                .map(|(u, _)| u.0)
                .collect();
            let missed_items: Vec<u32> = report
                .items
                .iter()
                .filter(|(_, v)| !v.flagged)
                .map(|(i, _)| i.0)
                .collect();
            println!(
                "epoch {}: {}/{} planted workers and {}/{} planted targets flagged",
                report.epoch,
                users.len() - missed_users.len(),
                users.len(),
                items.len() - missed_items.len(),
                items.len()
            );
            let total = users.len() + items.len();
            let flagged = total - missed_users.len() - missed_items.len();
            let recall = if total == 0 {
                1.0
            } else {
                flagged as f64 / total as f64
            };
            if recall + 1e-9 >= min_recall {
                Ok(())
            } else {
                Err(CliError::Runtime(format!(
                    "planted attack under-flagged: recall {recall:.3} < {min_recall:.3} \
                     (missed users {missed_users:?}, missed items {missed_items:?})"
                )))
            }
        }
        "shutdown" => {
            let mut c = connect(addr)?;
            c.shutdown()?;
            eprintln!("server is draining");
            Ok(())
        }
        _ => unreachable!("validated above"),
    }
}

/// Connects to a serve daemon (runtime error — exit 1 — on refusal).
fn connect(addr: &str) -> Result<Client, CliError> {
    Client::connect(addr).map_err(|e| CliError::Runtime(format!("{addr}: {e}")))
}

fn cmd_campaign(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::new("campaign", args, &tables::CAMPAIGN)?;
    let mut cfg = CampaignConfig::default();
    if let Some(days) = flags.parse("--days")? {
        cfg.num_days = days;
        cfg.delist_day = days;
    }
    let method_cfg = MethodConfig::default();
    let report = figures::fig10(&cfg, &method_cfg, 0.5)?;
    match report.detection_day {
        Some(day) => println!(
            "detected on day {day} (worker recall {:.0}%)",
            report.worker_recall_at_detection * 100.0
        ),
        None => println!("not detected within the window"),
    }
    println!("day  normal  fake");
    for d in &report.cleaned {
        println!("{:>3}  {:>6}  {:>5}", d.day, d.normal_clicks, d.fake_clicks);
    }
    Ok(())
}

fn cmd_stream(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::new("stream", args, &tables::STREAM)?;
    let (registry, metrics_out, count_only) = metrics_flags(&flags);
    let scenario_name = flags.get("--scenario").unwrap_or("burst");
    let mut scenario = match scenario_name {
        "burst" => ScenarioConfig::burst(),
        "slow-drip" => ScenarioConfig::slow_drip(),
        other => {
            return Err(CliError::Usage(format!(
                "unknown --scenario `{other}` (expected burst|slow-drip)"
            )))
        }
    };
    flags.set("--seed", &mut scenario.seed)?;
    let timeline = build_timeline(&scenario).map_err(CliError::Runtime)?;
    // --params derived resolves T_hot/T_click from the scenario's own
    // aggregate click table (the paper's Section IV-A derivations) instead
    // of the published operating point; explicit --t-hot/--t-click style
    // flags still override either base.
    let mode = match flags.get("--params") {
        None => ParamsMode::Default,
        Some(s) => ParamsMode::parse(s).map_err(CliError::Usage)?,
    };
    let base = match mode {
        ParamsMode::Default => RicdParams::default(),
        ParamsMode::Derived => {
            let mut b = GraphBuilder::new();
            for (u, v, c) in timeline.all_untimed() {
                b.add_click(u, v, c);
            }
            let p = params_for_mode(mode, &b.build());
            eprintln!("derived params: t_hot={} t_click={}", p.t_hot, p.t_click);
            p
        }
    };
    let mut cfg = StreamEvalConfig::new(ricd_params_over(base, &flags)?);
    cfg.window.window = flags.parse("--window")?.or(cfg.window.window);
    cfg.window.half_life = flags.parse("--decay")?.or(cfg.window.half_life);
    flags.set("--detect-every", &mut cfg.window.detect_every)?;
    flags.set("--flag-fraction", &mut cfg.flag_fraction)?;
    cfg.validate().map_err(CliError::Usage)?;
    let report = replay_timeline(&timeline, &cfg, &registry)?;
    println!(
        "scenario {scenario_name}: {} batches, {} records (evicted {}, late {}, peak window {})",
        report.batches, report.records, report.evicted, report.late, report.peak_window_records
    );
    for c in &report.campaigns {
        match (c.batches_to_flag, c.ticks_to_flag) {
            (Some(b), Some(t)) => println!(
                "campaign {}: workers {}, flagged {}, batches-to-flag {b}, ticks-to-flag {t}",
                c.campaign, c.workers, c.flagged_workers
            ),
            _ => println!(
                "campaign {}: workers {}, flagged {}, NOT FLAGGED",
                c.campaign, c.workers, c.flagged_workers
            ),
        }
        for p in &c.phases {
            println!(
                "  phase {:<6} @batch {:>3}: worker-recall {:.2}, precision {:.2}",
                p.phase, p.at_batch, p.worker_recall, p.precision
            );
        }
    }
    println!(
        "final: precision {:.3} recall {:.3} f1 {:.3}",
        report.final_precision, report.final_recall, report.final_f1
    );
    write_json(flags.get("--out"), &report)?;
    write_snapshot(&registry, metrics_out, count_only)
}
