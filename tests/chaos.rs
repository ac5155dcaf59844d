//! Chaos suite: deterministic fault injection against the detection
//! runtime. The contract under test, end to end:
//!
//! 1. **Never abort** — injected worker panics, corrupt or truncated
//!    checkpoints and manifests, corrupt TSV lines, and replayed stream
//!    batches must surface as typed errors, quarantine reports, or
//!    degraded-but-complete runs; never as a crash.
//! 2. **Never silently wrong** — whenever a run completes despite faults,
//!    its output must either equal the fault-free run (transient faults,
//!    replays, crash/resume) or be explicitly marked (degraded status,
//!    quarantined lines).
//!
//! Every fault here is derived from a seed, so a failure replays exactly.

use fake_click_detection::core::prelude::*;
use fake_click_detection::engine::fault::{flip_bytes, replay_batch, truncate_at};
use fake_click_detection::engine::{
    partition_ranges, EngineError, FaultInjector, FaultPlan, WorkerPool,
};
use fake_click_detection::graph::{io as graph_io, GraphBuilder, ItemId, UserId};
use fake_click_detection::serve::{Manifest, MANIFEST_FILE};
use std::io::ErrorKind;
use std::path::PathBuf;
use std::process::Command;

// ---------------------------------------------------------------- compute

/// Drives `rounds` bulk-synchronous supersteps through a pool while an
/// armed injector panics chosen (round, partition) cells, and returns the
/// per-round sums.
fn run_rounds(
    pool: &WorkerPool,
    inj: &FaultInjector,
    n: usize,
    rounds: usize,
) -> Vec<Result<u64, EngineError>> {
    let ranges = partition_ranges(n, pool.workers());
    (0..rounds)
        .map(|_| {
            inj.begin_round();
            pool.try_run_partitioned(n, |r| {
                let partition = ranges
                    .iter()
                    .position(|p| *p == r)
                    .expect("range maps to a partition");
                inj.maybe_panic(partition);
                r.map(|i| i as u64).sum::<u64>()
            })
            .map(|per| per.into_iter().sum())
        })
        .collect()
}

#[test]
fn seeded_panic_plans_never_abort_and_never_corrupt_results() {
    let pool = WorkerPool::new(4);
    let n = 400;
    let rounds = 5;
    let want: u64 = (0..n as u64).sum();
    for seed in 0..8u64 {
        let plan = FaultPlan::seeded(seed, rounds, pool.workers(), 3);
        let inj = FaultInjector::new(plan.clone());
        let got = run_rounds(&pool, &inj, n, rounds);
        for (round, result) in got.iter().enumerate() {
            let sum = result
                .as_ref()
                .unwrap_or_else(|e| panic!("seed {seed} round {round} failed: {e}"));
            assert_eq!(*sum, want, "seed {seed} round {round} wrong sum");
        }
        assert_eq!(
            inj.fired().len(),
            plan.len(),
            "seed {seed}: every planned fault actually fired"
        );
    }
}

#[test]
fn persistent_fault_surfaces_as_typed_error_not_a_crash() {
    let pool = WorkerPool::new(4);
    let inj = FaultInjector::new(FaultPlan::panic_at(0, 2).persistent());
    let results = run_rounds(&pool, &inj, 400, 2);
    match &results[0] {
        Err(EngineError::PartitionPanicked {
            partition, message, ..
        }) => {
            assert_eq!(*partition, 2);
            assert!(message.contains("injected fault"), "{message}");
        }
        Ok(_) => panic!("persistent fault must fail the round"),
    }
    // The next round is clean: the failed round poisoned nothing.
    assert!(results[1].is_ok(), "pool unusable after a failed round");
}

// ------------------------------------------------------------------- I/O

fn sample_graph() -> fake_click_detection::graph::BipartiteGraph {
    let mut b = GraphBuilder::new();
    for u in 0..40u32 {
        for v in 0..10u32 {
            b.add_click(UserId(u), ItemId(v), 1 + (u + v) % 7);
        }
    }
    b.build()
}

#[test]
fn flipped_tsv_is_quarantined_line_by_line() {
    let g = sample_graph();
    let mut tsv = Vec::new();
    graph_io::write_tsv(&g, &mut tsv).unwrap();
    for seed in 0..16u64 {
        let flipped = flip_bytes(&tsv, seed, 4);
        let read = graph_io::read_tsv_lossy(flipped.as_slice())
            .unwrap_or_else(|e| panic!("seed {seed}: lossy read aborted: {e}"));
        read.graph
            .validate()
            .unwrap_or_else(|e| panic!("seed {seed}: recovered graph invalid: {e}"));
        // Conservation: every input line is either a parsed record or a
        // quarantined error (blank/comment lines aside — flips can create
        // those too, so only an upper bound holds on records).
        let lines = flipped
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .count();
        assert!(
            read.graph.num_edges() + read.errors.len() <= lines,
            "seed {seed}: more records+errors than lines"
        );
    }
}

// ------------------------------------------------- checkpoints and manifests

/// Feeds `load` every byte-level mutation of `bytes`: a cut at every byte,
/// every single-bit flip (most still decode, and so reach `resume`) and 768
/// seeded 3-bit flips. Each must fail typed, or load into a value `resume`
/// drives without panicking; no cut may load. Returns how many loaded.
fn fuzz<T>(bytes: &[u8], load: impl Fn(&[u8]) -> Result<T, String>, resume: impl Fn(T)) -> usize {
    let cuts = (0..bytes.len()).map(|n| (format!("cut at byte {n}"), truncate_at(bytes, n)));
    let bits = (0..bytes.len() * 8).map(|bit| {
        let mut out = bytes.to_vec();
        out[bit / 8] ^= 1 << (bit % 8);
        (format!("flip of bit {bit}"), out)
    });
    let flips = (0..768).map(|seed| (format!("3-bit flip {seed}"), flip_bytes(bytes, seed, 3)));
    let mut loaded = 0;
    for (case, mutated) in cuts.chain(bits).chain(flips) {
        let Ok(value) = load(&mutated) else { continue };
        assert!(!case.starts_with("cut"), "{case}: loaded");
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| resume(value)));
        assert!(run.is_ok(), "{case}: panicked");
        loaded += 1;
    }
    loaded
}

/// Decodes what the product reads from disk: UTF-8 text, then JSON.
fn decode<T: serde::Deserialize>(bytes: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

/// Thresholds small enough that `fuzz_clicks` holds a group, so mutations
/// reach group fields as well as records.
fn fuzz_pipeline() -> RicdPipeline {
    let mut p = RicdParams::default();
    (p.k1, p.k2, p.t_hot, p.t_click) = (3, 3, 30, 5);
    RicdPipeline::new(p)
}

/// A hot item (`ItemId(0)`, 36 organic clickers) ridden by four workers
/// who each click four targets heavily.
fn fuzz_clicks() -> Vec<(UserId, ItemId, u32)> {
    let mut clicks: Vec<_> = (10..46u32).map(|u| (UserId(u), ItemId(0), 1)).collect();
    for u in 0..4u32 {
        clicks.push((UserId(u), ItemId(0), 1));
        clicks.extend((1..5u32).map(|v| (UserId(u), ItemId(v), 6)));
    }
    clicks
}

fn fuzz_checkpoint() -> Checkpoint {
    let mut d = StreamingDetector::new(fuzz_pipeline());
    d.ingest(&fuzz_clicks());
    assert!(!d.groups().is_empty(), "the fuzz world holds a group");
    d.checkpoint()
}

/// Restores a checkpoint; the graph must validate, one more batch must
/// ingest and the result must return.
fn resume_stream(ckpt: Checkpoint) {
    let mut d = StreamingDetector::restore(fuzz_pipeline(), ckpt);
    d.graph().validate().expect("restored graph validates");
    d.ingest(&[(UserId(4), ItemId(1), 6)]);
    d.result();
}

#[test]
fn mutated_checkpoints_fail_typed_or_resume_cleanly() {
    let json = serde_json::to_string(&fuzz_checkpoint()).unwrap();
    let refused = std::cell::Cell::new(0);
    let load = |b: &[u8]| {
        let ckpt = decode::<Checkpoint>(b)?;
        ckpt.validate()
            .inspect_err(|_| refused.set(refused.get() + 1))?;
        Ok(ckpt)
    };
    assert!(fuzz(json.as_bytes(), load, resume_stream) > 0);
    assert!(refused.get() > 0, "no flip moved a group outside the graph");
}

#[test]
fn mutated_window_checkpoints_fail_typed_or_resume_cleanly() {
    let cfg = WindowConfig {
        window: Some(50),
        half_life: Some(20),
        ..WindowConfig::default()
    };
    let mut d = WindowedDetector::new(fuzz_pipeline(), cfg).unwrap();
    let clicks: Vec<_> = fuzz_clicks()
        .into_iter()
        .map(|(u, v, c)| (u, v, c, 10))
        .collect();
    d.ingest(&clicks);
    assert!(!d.result().groups.is_empty(), "the window holds a group");
    let json = serde_json::to_string(&d.checkpoint()).unwrap();
    let resume = |ckpt| {
        let mut d = WindowedDetector::restore(fuzz_pipeline(), cfg, ckpt).expect("restores");
        d.window_graph().validate().expect("window graph validates");
        d.ingest(&[(UserId(4), ItemId(1), 6, 30)]);
        d.result();
    };
    assert!(fuzz(json.as_bytes(), decode::<WindowCheckpoint>, resume) > 0);
}

/// A mutated `manifest.json` must fail `Manifest::load` with `InvalidData`,
/// or name shard files that resume or, under a flipped name, are missing.
#[test]
fn mutated_manifests_fail_typed_or_resume_cleanly() {
    let dir = tmp("manifest-fuzz");
    let ckpt = fuzz_checkpoint();
    for shard in 0..2 {
        Manifest::write_shard_checkpoint(&dir, shard, &ckpt).unwrap();
    }
    let bytes = br#"{"version":1,"shards":2,"hash_seed":7,"epoch":3,"next_global_seq":1,"entries":[
        {"shard":0,"file":"shard-0.ckpt.json","next_seq":1,"epoch":3},
        {"shard":1,"file":"shard-1.ckpt.json","next_seq":1,"epoch":3}]}"#;
    let load = |b: &[u8]| {
        std::fs::write(dir.join(MANIFEST_FILE), b).unwrap();
        Manifest::load(&dir).map_err(|e| {
            assert_eq!(e.kind(), ErrorKind::InvalidData, "{e}");
            e.to_string()
        })
    };
    let resume = |m: Manifest| {
        for entry in &m.entries {
            match Manifest::load_shard_checkpoint(&dir, entry) {
                Ok(ckpt) => resume_stream(ckpt),
                Err(e) => assert_eq!(e.kind(), ErrorKind::NotFound, "{e}"),
            }
        }
    };
    assert!(fuzz(bytes, load, resume) > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

// -------------------------------------------------------------- streaming

fn stream() -> Vec<Vec<(UserId, ItemId, u32)>> {
    let mut background = Vec::new();
    for u in 1000..2200u32 {
        background.push((UserId(u), ItemId(0), 1));
    }
    let mut batches = vec![background, Vec::new(), Vec::new(), Vec::new()];
    for u in 0..12u32 {
        for day in batches.iter_mut().take(4).skip(1) {
            for v in 1..12u32 {
                day.push((UserId(u), ItemId(v), 5));
            }
        }
        batches[1].push((UserId(u), ItemId(0), 1));
    }
    batches
}

#[test]
fn replayed_batches_leave_results_identical_to_clean_stream() {
    let batches = stream();
    let mut clean = StreamingDetector::new(RicdPipeline::new(RicdParams::default()));
    for (i, b) in batches.iter().enumerate() {
        clean.ingest_batch(i as u64, b);
    }
    // Replay every batch position in turn (redelivery keeps the original
    // sequence number), plus a triple-delivery of the last batch.
    for dup in 0..batches.len() {
        let mut faulty = StreamingDetector::new(RicdPipeline::new(RicdParams::default()));
        let delivered = replay_batch(&batches, dup);
        let mut seqs: Vec<u64> = (0..batches.len() as u64).collect();
        seqs.insert(dup + 1, dup as u64);
        for (s, b) in seqs.iter().zip(&delivered) {
            faulty.ingest_batch(*s, b);
        }
        assert_eq!(clean.groups(), faulty.groups(), "dup of batch {dup}");
        assert_eq!(
            clean.graph().num_edges(),
            faulty.graph().num_edges(),
            "dup of batch {dup} double-counted clicks"
        );
    }
}

#[test]
fn crash_resume_with_replay_matches_never_crashed() {
    let batches = stream();
    let mut steady = StreamingDetector::new(RicdPipeline::new(RicdParams::default()));
    for (i, b) in batches.iter().enumerate() {
        steady.ingest_batch(i as u64, b);
    }
    for cut in 1..batches.len() {
        // Run to the cut, checkpoint, "crash", restore — and have the
        // stream redeliver the batch before the cut (at-least-once).
        let mut before = StreamingDetector::new(RicdPipeline::new(RicdParams::default()));
        for (i, b) in batches[..cut].iter().enumerate() {
            before.ingest_batch(i as u64, b);
        }
        let ckpt = before.checkpoint();
        let json = serde_json::to_string(&ckpt).unwrap();
        drop(before);
        let restored: Checkpoint = serde_json::from_str(&json).unwrap();
        let mut resumed =
            StreamingDetector::restore(RicdPipeline::new(RicdParams::default()), restored);
        let replay = resumed.ingest_batch(cut as u64 - 1, &batches[cut - 1]);
        assert!(replay.replayed, "redelivered batch recognized");
        for (i, b) in batches.iter().enumerate().skip(cut) {
            resumed.ingest_batch(i as u64, b);
        }
        assert_eq!(steady.groups(), resumed.groups(), "cut {cut} diverged");
    }
}

// ------------------------------------------------------------------- CLI

fn ricd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ricd"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ricd-chaos-{}-{name}", std::process::id()));
    p
}

fn write_corrupt_tsv(path: &PathBuf) {
    let g = sample_graph();
    let mut tsv = Vec::new();
    graph_io::write_tsv(&g, &mut tsv).unwrap();
    // Splice garbage into the middle of the file.
    let mid = tsv.len() / 2;
    let pre = tsv[..mid].iter().rposition(|&b| b == b'\n').unwrap() + 1;
    let mut bad = tsv[..pre].to_vec();
    bad.extend_from_slice(b"this line is garbage\n");
    bad.extend_from_slice(&tsv[pre..]);
    std::fs::write(path, bad).unwrap();
}

#[test]
fn cli_corrupt_input_fails_strict_but_recovers_lossy() {
    let clicks = tmp("corrupt.tsv");
    write_corrupt_tsv(&clicks);

    let strict = ricd()
        .args(["detect", "--input", clicks.to_str().unwrap()])
        .output()
        .expect("ricd runs");
    assert_eq!(strict.status.code(), Some(1), "strict parse error exits 1");
    let err = String::from_utf8_lossy(&strict.stderr);
    assert!(err.contains("error:"), "{err}");

    let lossy = ricd()
        .args(["detect", "--input", clicks.to_str().unwrap(), "--lossy"])
        .output()
        .expect("ricd runs");
    assert_eq!(lossy.status.code(), Some(0), "lossy run succeeds");
    let err = String::from_utf8_lossy(&lossy.stderr);
    assert!(err.contains("quarantined 1 malformed line"), "{err}");

    let _ = std::fs::remove_file(&clicks);
}

#[test]
fn cli_deadline_degrades_with_warning_and_exit_zero() {
    let clicks = tmp("deadline.tsv");
    let g = sample_graph();
    let mut tsv = Vec::new();
    graph_io::write_tsv(&g, &mut tsv).unwrap();
    std::fs::write(&clicks, tsv).unwrap();

    let out = ricd()
        .args([
            "detect",
            "--input",
            clicks.to_str().unwrap(),
            "--deadline-ms",
            "0",
        ])
        .output()
        .expect("ricd runs");
    assert_eq!(out.status.code(), Some(0), "degraded run still exits 0");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("warning: degraded run"), "{err}");
    assert!(err.contains("deadline"), "{err}");

    let _ = std::fs::remove_file(&clicks);
}

#[test]
fn cli_usage_errors_exit_two() {
    for args in [
        vec!["detect"],                               // missing --input
        vec!["frobnicate"],                           // unknown command
        vec!["detect", "--input", "x", "--k1", "no"], // malformed flag value
    ] {
        let out = ricd().args(&args).output().expect("ricd runs");
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("USAGE"), "usage shown for {args:?}: {err}");
    }
}

#[test]
fn cli_missing_file_exits_one() {
    let out = ricd()
        .args(["detect", "--input", "/nonexistent/clicks.tsv"])
        .output()
        .expect("ricd runs");
    assert_eq!(out.status.code(), Some(1));
}
