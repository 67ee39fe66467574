//! Smoke runs of the built benchmark: every workload at tiny size must
//! pass its output checks and print a well-formed result line, and a
//! corrupted output digest must fail the run. `serve_replicated` and the
//! traced capture pass need a shard daemon, so they run only when
//! `FELIM_SHARDD_BIN` names one (as in the repository's service tests);
//! the traced run also needs this crate built with `--features
//! telemetry`.

use serde_json::Value;
use std::process::Command;

const WORKLOADS: [&str; 6] = [
    "fig6_eval",
    "cell_transients",
    "serve_trace",
    "serve_protected",
    "serve_kernels",
    "serve_replicated",
];

fn bench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_felim_benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn result_line(stdout: &str) -> Value {
    let last = stdout.lines().last().expect("some output");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("result line {last:?}: {e}"))
}

fn daemon() -> bool {
    std::env::var_os("FELIM_SHARDD_BIN").is_some()
}

#[test]
fn every_workload_passes_its_checks_at_smoke_size() {
    for w in WORKLOADS {
        if w == "serve_replicated" && !daemon() {
            eprintln!("skipping {w}: FELIM_SHARDD_BIN is not set");
            continue;
        }
        let (ok, stdout) = bench(&[
            "run",
            "--workload",
            w,
            "--seed",
            "3",
            "--seconds",
            "0",
            "--smoke",
        ]);
        assert!(ok, "{w} failed:\n{stdout}");
        let line = result_line(&stdout);
        assert_eq!(
            line.get("correct").and_then(Value::as_bool),
            Some(true),
            "{w}"
        );
        assert!(line
            .get("attempted")
            .and_then(Value::as_u64)
            .is_some_and(|n| n >= 1));
        assert_eq!(line.get("failed").and_then(Value::as_u64), Some(0), "{w}");
        let Some(Value::Object(metrics)) = line.get("metrics") else {
            panic!("{w}: no metrics")
        };
        assert_eq!(metrics.len(), 4, "{w}: every end-to-end metric");
        for (name, m) in metrics {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(0.0);
            assert!(value > 0.0, "{w}: {name} = {value}");
            assert!(m.get("unit").and_then(Value::as_str).is_some());
        }
    }
}

#[test]
fn a_corrupted_output_digest_fails_the_run() {
    for w in ["serve_trace", "cell_transients"] {
        let (ok, stdout) = bench(&[
            "run",
            "--workload",
            w,
            "--seed",
            "3",
            "--seconds",
            "0",
            "--smoke",
            "--inject-digest-fault",
        ]);
        assert!(!ok, "{w}: a corrupted digest must fail the run");
        assert_eq!(
            result_line(&stdout).get("correct").and_then(Value::as_bool),
            Some(false)
        );
    }
}

#[test]
fn the_traced_run_replays_its_capture() {
    if !daemon() || !cfg!(feature = "telemetry") {
        eprintln!("skipping: needs FELIM_SHARDD_BIN and --features telemetry");
        return;
    }
    let exe = env!("CARGO_BIN_EXE_felim_benchmark");
    let (ok, stdout) = bench(&[
        "trace",
        "--workload",
        "serve_protected",
        "--seed",
        "3",
        "--smoke",
        "--traced-bin",
        exe,
    ]);
    assert!(ok, "traced run failed:\n{stdout}");
    assert!(stdout.contains("check ok   per-layer passes reproduce the run"));
    let Some(Value::Object(metrics)) = result_line(&stdout).get("metrics").cloned() else {
        panic!("no metrics")
    };
    let value = |name: &str| {
        metrics
            .get(name)
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .unwrap()
    };
    assert!(value("wire.frames_per_req") > 0.0);
    assert!(value("arch.controller.tick.us_per_tick") > 0.0);
}

#[test]
fn bad_arguments_fail_without_a_result_line() {
    let (ok, stdout) = bench(&["run", "--workload", "no_such_workload", "--seed", "1"]);
    assert!(!ok);
    assert!(stdout.is_empty());
}
