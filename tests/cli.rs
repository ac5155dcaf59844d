//! Integration tests of the `ricd` CLI binary: the generate → stats →
//! detect → eval round trip over real files, and the serve/client pair
//! over a loopback socket.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn ricd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ricd"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ricd-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn generate_stats_detect_eval_round_trip() {
    let clicks = tmp("clicks.tsv");
    let truth = tmp("truth.json");
    let report = tmp("report.json");

    // generate
    let out = ricd()
        .args([
            "generate",
            "--output",
            clicks.to_str().unwrap(),
            "--truth",
            truth.to_str().unwrap(),
            "--scale",
            "small",
            "--groups",
            "3",
            "--seed",
            "7",
        ])
        .output()
        .expect("ricd generate runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(clicks.exists() && truth.exists());

    // stats
    let out = ricd()
        .args(["stats", "--input", clicks.to_str().unwrap()])
        .output()
        .expect("ricd stats runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("total clicks"), "{text}");
    assert!(text.contains("pareto"), "{text}");

    // detect
    let out = ricd()
        .args([
            "detect",
            "--input",
            clicks.to_str().unwrap(),
            "--output",
            report.to_str().unwrap(),
        ])
        .output()
        .expect("ricd detect runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("group 1:"), "{text}");
    let json = std::fs::read_to_string(&report).unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert!(parsed["groups"].as_array().is_some_and(|g| !g.is_empty()));

    // eval
    let out = ricd()
        .args([
            "eval",
            "--input",
            clicks.to_str().unwrap(),
            "--truth",
            truth.to_str().unwrap(),
            "--method",
            "RICD",
        ])
        .output()
        .expect("ricd eval runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("RICD"), "{text}");
    assert!(text.contains("precision"), "{text}");

    for p in [clicks, truth, report] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn deterministic_generation_under_seed() {
    let a = tmp("a.tsv");
    let b = tmp("b.tsv");
    for path in [&a, &b] {
        let out = ricd()
            .args([
                "generate",
                "--output",
                path.to_str().unwrap(),
                "--scale",
                "tiny",
                "--seed",
                "99",
            ])
            .output()
            .unwrap();
        assert!(out.status.success());
    }
    assert_eq!(
        std::fs::read_to_string(&a).unwrap(),
        std::fs::read_to_string(&b).unwrap()
    );
    let _ = std::fs::remove_file(a);
    let _ = std::fs::remove_file(b);
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = ricd().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"), "{err}");
    assert!(err.contains("USAGE"), "{err}");
}

#[test]
fn help_prints_usage() {
    let out = ricd().arg("--help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn missing_required_flag_is_an_error() {
    let out = ricd().arg("stats").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--input"));
}

/// Spawns `ricd serve` with the given extra flags and scrapes the bound
/// address from its first stdout line.
fn spawn_serve(extra: &[&str]) -> (Child, String, BufReader<std::process::ChildStdout>) {
    let mut child = ricd()
        .arg("serve")
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("ricd serve spawns");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("serve announces itself");
    let addr = line
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
        .trim()
        .to_string();
    (child, addr, stdout)
}

#[test]
fn serve_oneshot_answers_one_client_and_exits_cleanly() {
    let (mut child, addr, _stdout) = spawn_serve(&["--oneshot"]);

    let out = ricd()
        .args(["client", "metrics", "--addr", &addr])
        .output()
        .expect("ricd client runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("serve.connections_accepted"), "{json}");
    assert!(json.contains("serve.batches"), "{json}");

    // The one connection closed, so the oneshot server drains and exits 0.
    let status = child.wait().expect("serve exits");
    assert!(status.success(), "serve exit status: {status:?}");
}

#[test]
fn serve_client_ingest_query_shutdown_flow() {
    let clicks = tmp("serve-clicks.tsv");
    let truth = tmp("serve-truth.json");
    let out = ricd()
        .args([
            "generate",
            "--output",
            clicks.to_str().unwrap(),
            "--truth",
            truth.to_str().unwrap(),
            "--scale",
            "tiny",
            "--groups",
            "2",
            "--seed",
            "11",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let parsed: fake_click_detection::datagen::GroundTruth =
        serde_json::from_str(&std::fs::read_to_string(&truth).unwrap()).unwrap();
    let worker = parsed.groups[0].workers[0].0;

    let (mut child, addr, _stdout) = spawn_serve(&["--swap-every", "2"]);

    let out = ricd()
        .args([
            "client",
            "ingest",
            "--addr",
            &addr,
            "--input",
            clicks.to_str().unwrap(),
            "--batch",
            "2000",
        ])
        .output()
        .expect("client ingest runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Detection is asynchronous: poll risk queries until the planted worker
    // surfaces in a published view.
    let worker_flag = worker.to_string();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let out = ricd()
            .args(["client", "query", "--addr", &addr, "--user", &worker_flag])
            .output()
            .expect("client query runs");
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout);
        if text.contains("FLAGGED") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "planted worker never flagged; last reply: {text}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    let out = ricd()
        .args(["client", "shutdown", "--addr", &addr])
        .output()
        .expect("client shutdown runs");
    assert!(out.status.success());
    let status = child.wait().expect("serve exits");
    assert!(status.success(), "serve exit status: {status:?}");

    for p in [clicks, truth] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn client_usage_errors_exit_2_before_any_connection() {
    // Unknown operation.
    let out = ricd()
        .args(["client", "frobnicate", "--addr", "127.0.0.1:1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown client op"));

    // Missing --addr.
    let out = ricd().args(["client", "metrics"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--addr"));

    // Missing operation entirely.
    let out = ricd().arg("client").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn client_connection_refused_exits_1() {
    // Port 1 on loopback: nothing listens there in the test sandbox.
    let out = ricd()
        .args(["client", "metrics", "--addr", "127.0.0.1:1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn serve_rejects_malformed_frames_but_keeps_the_connection() {
    use fake_click_detection::serve::{Request, Response, MAX_FRAME_LEN};
    use std::io::{Read, Write};

    let (mut child, addr, _stdout) = spawn_serve(&["--oneshot"]);
    let mut sock = std::net::TcpStream::connect(&addr).expect("raw connect");

    // A well-framed but non-JSON payload: the server answers with an Error
    // frame and keeps the connection open.
    let garbage = b"definitely not json";
    sock.write_all(&(garbage.len() as u32).to_be_bytes())
        .unwrap();
    sock.write_all(garbage).unwrap();
    let mut len = [0u8; 4];
    sock.read_exact(&mut len).expect("error frame length");
    let n = u32::from_be_bytes(len) as usize;
    assert!(n <= MAX_FRAME_LEN as usize);
    let mut payload = vec![0u8; n];
    sock.read_exact(&mut payload).expect("error frame payload");
    let resp: Response =
        serde_json::from_str(std::str::from_utf8(&payload).unwrap()).expect("reply is wire JSON");
    assert!(
        matches!(resp, Response::Error { .. }),
        "malformed frame must be answered with Error, got {resp:?}"
    );

    // Same connection still serves a valid request afterwards.
    let req = serde_json::to_string(&Request::Shutdown)
        .unwrap()
        .into_bytes();
    sock.write_all(&(req.len() as u32).to_be_bytes()).unwrap();
    sock.write_all(&req).unwrap();
    sock.read_exact(&mut len).expect("shutdown reply length");
    let mut payload = vec![0u8; u32::from_be_bytes(len) as usize];
    sock.read_exact(&mut payload)
        .expect("shutdown reply payload");
    let resp: Response = serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap();
    assert!(matches!(resp, Response::ShuttingDown), "{resp:?}");

    drop(sock);
    let status = child.wait().expect("serve exits");
    assert!(status.success(), "serve exit status: {status:?}");
}

#[test]
fn detect_accepts_custom_parameters() {
    let clicks = tmp("params.tsv");
    let out = ricd()
        .args([
            "generate",
            "--output",
            clicks.to_str().unwrap(),
            "--scale",
            "tiny",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = ricd()
        .args([
            "detect",
            "--input",
            clicks.to_str().unwrap(),
            "--k1",
            "5",
            "--k2",
            "5",
            "--alpha",
            "0.9",
            "--t-click",
            "10",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Invalid alpha rejected.
    let out = ricd()
        .args([
            "detect",
            "--input",
            clicks.to_str().unwrap(),
            "--alpha",
            "1.5",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // A seed id the graph does not have is a usage error naming the flag
    // and the graph's size — not a panic reported as a degraded run.
    for flag in ["--seed-user", "--seed-item"] {
        let out = ricd()
            .args(["detect", "--input", clicks.to_str().unwrap()])
            .args([flag, "999999999"])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{err}");
        assert!(err.contains(flag) && err.contains("ids 0.."), "{err}");
        assert!(!err.contains("panicked"), "{err}");
    }
    let _ = std::fs::remove_file(clicks);
}

#[test]
fn stream_replay_round_trip_writes_report_and_metrics() {
    let report = tmp("stream-report.json");
    let metrics = tmp("stream-metrics.json");
    let out = ricd()
        .args([
            "stream",
            "--scenario",
            "burst",
            "--out",
            report.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--metrics-count-only",
        ])
        .output()
        .expect("ricd stream runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("batches-to-flag"), "{text}");
    assert!(text.contains("final: precision"), "{text}");

    // The report round-trips as JSON with per-campaign latency numbers.
    let json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&report).unwrap()).unwrap();
    let campaigns = json["campaigns"].as_array().unwrap();
    assert!(!campaigns.is_empty());
    assert!(campaigns[0]["batches_to_flag"].as_u64().is_some());
    assert!(campaigns[0]["ticks_to_flag"].as_u64().is_some());

    // The metrics snapshot carries the stream.* family.
    let snap = std::fs::read_to_string(&metrics).unwrap();
    assert!(snap.contains("stream.detects"), "{snap}");
    assert!(snap.contains("stream.time_to_flag_batches"), "{snap}");

    // Windowed replay over the slow drip also flags (the acceptance gate).
    let out = ricd()
        .args(["stream", "--scenario", "slow-drip", "--window", "1000"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("batches-to-flag"), "{text}");
    assert!(!text.contains("NOT FLAGGED"), "{text}");

    let _ = std::fs::remove_file(report);
    let _ = std::fs::remove_file(metrics);
}

#[test]
fn stream_flag_validation_exits_2() {
    // Unknown scenario.
    let out = ricd()
        .args(["stream", "--scenario", "bogus"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown --scenario"));

    // Zero-width window rejected by WindowConfig validation.
    let out = ricd().args(["stream", "--window", "0"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));

    // Flag fraction outside (0, 1].
    let out = ricd()
        .args(["stream", "--flag-fraction", "1.5"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    // Dangling value flag must not silently drop the report.
    let out = ricd().args(["stream", "--out"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn stream_unwritable_output_exits_1() {
    let out = ricd()
        .args(["stream", "--out", "/nonexistent-dir/report.json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
}

/// Every command line is checked against its command's flag table before
/// any work is done: what the table does not hold is a usage error naming
/// the flag, never something to skip over.
#[test]
fn flags_a_command_does_not_take_exit_2_naming_the_flag() {
    // The input does not exist: a usage error (exit 2) must win over the
    // I/O error (exit 1) the run itself would end in.
    let input = ["--input", "/nonexistent-dir/clicks.tsv"];
    for (args, names, why) in [
        (
            &["detect", input[0], input[1], "--dedline-ms", "0"][..],
            "unknown flag `--dedline-ms` for `ricd detect`",
            "a misspelt flag must not run unbudgeted",
        ),
        (
            &["detect", input[0], input[1], "--t_hot", "5"],
            "unknown flag `--t_hot`",
            "underscore for dash",
        ),
        (
            &["detect", input[0], input[1], "--window", "5"],
            "unknown flag `--window` for `ricd detect`",
            "a `stream` flag on `detect`",
        ),
        (
            &["detect", input[0], input[1], "--shards", "2"],
            "unknown flag `--shards` for `ricd detect`",
            "batch detection has one path; only `serve` shards",
        ),
        (
            &["stats", "--input", "--lossy"],
            "--input requires a value",
            "a value flag followed by a flag must not read a file called --lossy",
        ),
        (
            &["detect", input[0], input[1], "--deadline-ms"],
            "--deadline-ms requires a value",
            "a dangling value flag",
        ),
        (
            &["detect", input[0], input[1], "--k1", "5", "--k1", "6"],
            "--k1 given more than once",
            "a non-repeatable flag given twice",
        ),
        (
            &["eval", "--adversarial", input[0], input[1]],
            "unknown flag `--input` for `ricd eval --adversarial`",
            "the adversarial lab takes no input files",
        ),
        (
            &["client", "status", "--addr", "127.0.0.1:1", "--user", "3"],
            "unknown flag `--user` for `ricd client status`",
            "a `client query` flag on `client status`, before any connection",
        ),
        (
            &["campaign", "13"],
            "unknown flag `13` for `ricd campaign`",
            "no command takes positional arguments",
        ),
    ] {
        let out = ricd().args(args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{why}: {err}");
        assert!(err.contains(names), "{why}: {err}");
        assert!(out.stdout.is_empty(), "{why}: no work done");
    }
    // A repeatable flag still repeats (the seeds then fail on the missing
    // input, not on the flags).
    let out = ricd()
        .args(["detect", input[0], input[1]])
        .args(["--seed-user", "1", "--seed-user", "2", "--seed-item", "3"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}
