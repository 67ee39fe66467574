//! Printing a run: the human-readable table, the one-line JSON result
//! the benchmark ends with, and the stamped result file.

use super::metrics::{def, Def, Kind, END_TO_END, PER_LAYER};
use super::runner::{Options, Outcome, MIN_REPS, SETUPS};
use super::stats;
use serde::Serialize;
use std::path::Path;

/// Schema tag of result files.
pub const SCHEMA: &str = "felim-benchmark/result-v1";

/// The metrics the final line carries: end-to-end for an untraced run,
/// per-layer for a traced one.
pub fn reported(outcome: &Outcome) -> &'static [Def] {
    if outcome.traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Prints every measured metric with its unit and sample count, the
/// checks, and the output digest.
pub fn print_table(opts: &Options, outcome: &Outcome) {
    println!(
        "felim_benchmark {} {} seed {} ({}, {} repetitions of {})",
        if outcome.traced { "trace" } else { "run" },
        opts.workload.name(),
        opts.seed,
        opts.workload.work_unit(),
        outcome.rep_host_s.len(),
        outcome.shape
    );
    for (name, m) in outcome.sheet.iter() {
        let unit = def(name).map_or("", |d| d.unit);
        println!("  {name:<40} {:>16.6} {unit:<14} n={}", m.value, m.samples);
    }
    for (name, q) in [("latency_ref_us_p50", 0.50), ("latency_ref_us_p99", 0.99)] {
        if let Some(m) = outcome.sheet.get(name) {
            let n = m.samples as usize;
            let note = if stats::resolves(n, q) {
                ""
            } else {
                " (fewer than ten: the percentile is not resolved)"
            };
            println!("  {name}: {} samples beyond it{note}", stats::beyond(n, q));
        }
    }
    for c in &outcome.checks {
        println!(
            "  check {:<4} {}: {}",
            if c.ok { "ok" } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    println!("output_digest {:#018x}", outcome.digest);
}

/// The final result line: `{"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}`, values with all their digits.
pub fn result_line(outcome: &Outcome) -> String {
    let json = |v: &dyn Serialize| serde_json::to_string(v).expect("plain values serialise");
    let metrics: Vec<String> = reported(outcome)
        .iter()
        .map(|d| {
            let value = outcome.sheet.get(d.name).map_or(0.0, |m| m.value);
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json(&d.name),
                json(&value),
                json(&d.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    )
}

/// Settings two runs must share to be compared.
#[derive(Debug, Serialize)]
struct Settings {
    workload: &'static str,
    traced: bool,
    shape: String,
    seconds: f64,
    smoke: bool,
    setups: usize,
    min_reps: usize,
    features: &'static str,
    felim_threads: String,
    nproc: usize,
    rustc: String,
}

#[derive(Debug, Serialize)]
struct MetricRecord {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    kind: &'static str,
    bound: Option<f64>,
    value: f64,
    samples: u64,
}

#[derive(Debug, Serialize)]
struct CheckRecord {
    name: &'static str,
    ok: bool,
    detail: String,
}

#[derive(Debug, Serialize)]
struct ResultFile {
    schema: &'static str,
    workload: &'static str,
    seed: u64,
    git_commit: String,
    settings: Settings,
    correct: bool,
    attempted: u64,
    failed: u64,
    repetitions: usize,
    rep_host_s: Vec<f64>,
    output_digest: String,
    metrics: Vec<MetricRecord>,
    checks: Vec<CheckRecord>,
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// Writes `<out>/<workload>.json` (`<workload>.trace.json` for a traced
/// run) and, for a traced run, `<out>/<workload>.spans.json`.
///
/// # Errors
///
/// The directory or a file cannot be written.
pub fn write_files(out: &Path, opts: &Options, outcome: &Outcome) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let name = opts.workload.name();
    let settings = Settings {
        workload: name,
        traced: outcome.traced,
        shape: outcome.shape.clone(),
        seconds: opts.seconds,
        smoke: opts.smoke,
        setups: SETUPS,
        min_reps: MIN_REPS,
        features: if felim::telemetry::enabled() {
            "telemetry"
        } else {
            "default"
        },
        felim_threads: std::env::var(felim::exec::THREADS_ENV).unwrap_or_default(),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rustc: command_line("rustc", &["-V"]),
    };
    let metrics = outcome
        .sheet
        .iter()
        .filter_map(|(name, m)| def(name).map(|d| (d, m)))
        .map(|(d, m)| MetricRecord {
            name: d.name,
            unit: d.unit,
            better: d.better.label(),
            kind: match d.kind {
                Kind::Host(_) => "host",
                Kind::Exact => "exact",
                Kind::Layer => "layer",
            },
            bound: match d.kind {
                Kind::Host(b) => Some(b),
                _ => None,
            },
            value: m.value,
            samples: m.samples,
        })
        .collect();
    let file = ResultFile {
        schema: SCHEMA,
        workload: name,
        seed: opts.seed,
        git_commit: command_line("git", &["rev-parse", "HEAD"]),
        settings,
        correct: outcome.correct(),
        attempted: outcome.attempted,
        failed: outcome.failed,
        repetitions: outcome.rep_host_s.len(),
        rep_host_s: outcome.rep_host_s.clone(),
        output_digest: format!("{:#018x}", outcome.digest),
        metrics,
        checks: outcome
            .checks
            .iter()
            .map(|c| CheckRecord {
                name: c.name,
                ok: c.ok,
                detail: c.detail.clone(),
            })
            .collect(),
    };
    let suffix = if outcome.traced {
        ".trace.json"
    } else {
        ".json"
    };
    let json = serde_json::to_string_pretty(&file).expect("result serialises");
    std::fs::write(out.join(format!("{name}{suffix}")), json + "\n").map_err(|e| e.to_string())?;
    if outcome.traced {
        std::fs::write(
            out.join(format!("{name}.spans.json")),
            outcome.tracer.to_json(),
        )
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}
