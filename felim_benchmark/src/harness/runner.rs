//! One workload run: repeated set-ups, an untimed warm-up repetition,
//! timed repetitions of fixed work for the requested duration, and the
//! output checks. The traced run adds the per-layer passes.

use super::daemon::peak_rss_mib;
use super::fig6;
use super::metrics::{Sheet, PER_LAYER};
use super::reference::{normalise, Reference};
use super::stats::{median, nearest_rank};
use super::tracer::Tracer;
use super::workloads::{Fixture, Rep, Workload};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;
/// Timed repetitions at least, however short the requested duration.
pub const MIN_REPS: usize = 2;
/// Repetitions the traced run records spans for, after its timed ones.
const TRACED_REPS: usize = 1;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Host seconds of timed repetitions (at least [`MIN_REPS`]).
    pub seconds: f64,
    /// Tiny repetitions, for tests.
    pub smoke: bool,
    /// Corrupt the first repetition's output digest, to show that the
    /// output checks fail the run.
    pub inject_digest_fault: bool,
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// Values behind the verdict.
    pub detail: String,
}

/// A finished run.
pub struct Outcome {
    /// Whether the per-layer passes ran.
    pub traced: bool,
    /// Operations attempted in the timed repetitions.
    pub attempted: u64,
    /// Attempted operations that did not complete.
    pub failed: u64,
    /// Every measured metric.
    pub sheet: Sheet,
    /// The output checks.
    pub checks: Vec<Check>,
    /// Host seconds of each timed repetition.
    pub rep_host_s: Vec<f64>,
    /// The fixed shape of one repetition.
    pub shape: String,
    /// Output digest of the first timed repetition.
    pub digest: u64,
    /// The spans of a traced run.
    pub tracer: Tracer,
}

impl Outcome {
    /// Whether every output check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

fn check(checks: &mut Vec<Check>, name: &'static str, ok: bool, detail: String) {
    checks.push(Check { name, ok, detail });
}

/// Set-ups, warm-up, timed repetitions (untraced), then `traced_reps`
/// more repetitions with spans on, and the checks. Returns the outcome
/// and the fixture, with the telemetry counters of the timed
/// repetitions (empty outside the telemetry build).
fn measure(
    opts: &Options,
    seconds: f64,
    min_reps: usize,
    traced_reps: usize,
) -> Result<(Outcome, Fixture, felim::telemetry::Report), String> {
    let mut reference = Reference::new();
    let mut speed = reference.measure();
    let (mut setup_raw, mut setup_s) = (Vec::with_capacity(SETUPS), Vec::with_capacity(SETUPS));
    let mut fixture = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        fixture = Some(Fixture::set_up(opts.workload, opts.seed, opts.smoke)?);
        let raw = t.elapsed().as_secs_f64();
        let after = reference.measure();
        setup_raw.push(raw);
        setup_s.push(normalise(raw, speed, after));
        speed = after;
    }
    let mut fixture = fixture.expect("at least one set-up");
    let warm_up = fixture.rep(None, &mut Tracer::off())?;

    felim::telemetry::reset();
    let (mut reps, mut refs): (Vec<Rep>, Vec<f64>) = (Vec::new(), vec![reference.measure()]);
    let mut rss = 0.0;
    let started = Instant::now();
    while reps.len() < min_reps || started.elapsed().as_secs_f64() < seconds {
        reps.push(fixture.rep(Some(reps.len() as u64), &mut Tracer::off())?);
        refs.push(reference.measure());
        if reps.len() == 1 {
            // Peak memory once the system has served a whole repetition,
            // before the benchmark's own per-repetition records grow.
            rss = peak_rss_mib("/proc/self/status").unwrap_or(0.0) - reference.resident_mib()
                + fixture.helper_peak_rss_mib();
        }
    }
    let counters = felim::telemetry::snapshot();
    let mut tracer = if traced_reps > 0 {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let mut spans_reps = Vec::new();
    for i in 0..traced_reps {
        tracer.open("rep");
        let rep = fixture.rep(Some((reps.len() + i) as u64), &mut tracer);
        tracer.close();
        spans_reps.push(rep?);
    }
    if opts.inject_digest_fault {
        reps[0].digest ^= 1;
    }

    let mut checks = Vec::new();
    match fixture.recompute_first()? {
        Some(again) => check(
            &mut checks,
            "first unit recomputes to the same output",
            again == reps[0].digest,
            format!("{again:#018x} vs {:#018x}", reps[0].digest),
        ),
        None => {
            let all = || reps.iter().chain(&spans_reps);
            let differing = all().filter(|r| r.digest != warm_up.digest).count();
            check(
                &mut checks,
                "response log digest identical across repetitions and topologies",
                differing == 0,
                format!(
                    "{differing} of {} repetitions differ from {:#018x}",
                    all().count(),
                    warm_up.digest
                ),
            );
            let exact_differs = all().filter(|r| r.exact != warm_up.exact).count();
            check(
                &mut checks,
                "simulated metrics identical across repetitions",
                exact_differs == 0,
                format!("{exact_differs} repetitions differ"),
            );
        }
    }
    let mut sheet = Sheet::default();
    if opts.workload == Workload::Fig6Eval {
        let (energy, speedup) = fig6::golden_geomeans();
        let (paper_e, paper_s) = fig6::PAPER_GEOMEANS;
        let printed = (format!("{energy:.2}"), format!("{speedup:.2}"));
        check(
            &mut checks,
            "seed-42 Fig 6 geomeans match the golden table",
            (printed.0.as_str(), printed.1.as_str()) == fig6::GOLDEN_GEOMEANS,
            format!(
                "energy {}x (paper {paper_e}x, error {:+.1}%), speedup {}x (paper {paper_s}x, error {:+.1}%)",
                printed.0,
                (energy / paper_e - 1.0) * 100.0,
                printed.1,
                (speedup / paper_s - 1.0) * 100.0
            ),
        );
        sheet.set("fig6.energy_reduction_geomean", energy, 1);
        sheet.set("fig6.speedup_geomean", speedup, 1);
    }
    for &(name, value) in &reps[0].exact {
        sheet.set(name, value, reps.len() as u64);
    }

    // Each repetition at reference speed, from the reference measured
    // before and after it.
    let scale: Vec<f64> = refs
        .windows(2)
        .map(|w| normalise(1.0, w[0], w[1]))
        .collect();
    let unscaled = vec![1.0; reps.len()];
    let n = reps.iter().map(|r| r.latencies_us.len()).sum::<usize>() as u64;
    for (factor, setups, [work, p50, p99, setup]) in [
        (
            &scale,
            &setup_s,
            [
                "work_per_ref_s",
                "latency_ref_us_p50",
                "latency_ref_us_p99",
                "setup_s",
            ],
        ),
        (
            &unscaled,
            &setup_raw,
            [
                "host.work_per_s",
                "host.latency_us_p50",
                "host.latency_us_p99",
                "host.setup_s",
            ],
        ),
    ] {
        let (per_s, median_us, p99_us) = summarise(&reps, factor);
        sheet.set(work, per_s, reps.len() as u64);
        sheet.set(p50, median_us, n);
        sheet.set(p99, p99_us, n);
        sheet.set(setup, median(setups).expect("set-ups ran"), SETUPS as u64);
    }
    sheet.set("peak_rss_mib", rss, 1);
    sheet.set(
        "host.reference_ms",
        median(&refs).expect("measured") * 1e3,
        refs.len() as u64,
    );

    let outcome = Outcome {
        traced: false,
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        sheet,
        checks,
        rep_host_s: reps.iter().map(|r| r.host_s).collect(),
        shape: fixture.shape(),
        digest: reps[0].digest,
        tracer,
    };
    Ok((outcome, fixture, counters))
}

/// Throughput, median latency and tail latency of the timed
/// repetitions, each repetition's times multiplied by its factor.
/// Throughput and the median are medians across repetitions of each
/// repetition's value, so a slow stretch of the host that covers fewer
/// than half the repetitions does not move them; the p99 pools every
/// call.
fn summarise(reps: &[Rep], factor: &[f64]) -> (f64, f64, f64) {
    let per_rep = |value: &dyn Fn(&Rep) -> f64| -> f64 {
        let values: Vec<f64> = reps.iter().zip(factor).map(|(r, k)| value(r) * k).collect();
        median(&values).expect("repetitions ran")
    };
    let per_s = 1.0 / per_rep(&|r| r.host_s / r.work as f64);
    let median_us = per_rep(&|r| median(&r.latencies_us).unwrap_or(0.0));
    let mut pooled: Vec<f64> = reps
        .iter()
        .zip(factor)
        .flat_map(|(r, k)| r.latencies_us.iter().map(move |l| l * k))
        .collect();
    pooled.sort_by(f64::total_cmp);
    (per_s, median_us, nearest_rank(&pooled, 0.99).unwrap_or(0.0))
}

/// The untraced run: end-to-end metrics.
///
/// # Errors
///
/// A workload that cannot be set up or fails an operation outright.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let (outcome, _, counters) = measure(opts, opts.seconds, MIN_REPS, 0)?;
    if felim::telemetry::enabled() {
        println!(
            "telemetry_counters {}",
            counter_line(&counters, outcome.rep_host_s.len())
        );
    }
    Ok(outcome)
}

/// Counters the per-layer metrics read from the telemetry build.
const COUNTERS: [&str; 5] = [
    "exec.pool.dispatches",
    "exec.pool.tasks",
    "spice.lu_factorizations",
    "spice.newton_iterations",
    "spice.rejected_steps",
];

/// `{"repetitions": n, "<counter>": total, ...}` over the timed
/// repetitions.
fn counter_line(counters: &felim::telemetry::Report, reps: usize) -> String {
    let mut fields = vec![format!("\"repetitions\":{reps}")];
    fields.extend(
        COUNTERS
            .iter()
            .map(|c| format!("\"{c}\":{}", counters.counter(c).unwrap_or(0))),
    );
    format!("{{{}}}", fields.join(","))
}

/// What the telemetry build's run of the same workload and seed
/// reported.
struct TelemetryRun {
    throughput: f64,
    digest: u64,
    /// Counter totals divided by the run's timed repetitions.
    per_rep: std::collections::BTreeMap<String, f64>,
}

/// The traced run. Every host time comes from this (untraced) build:
/// timed repetitions as in `run`, one more repetition with the
/// benchmark's spans on, then the workload's per-layer passes. The
/// telemetry build then runs the same workload and seed for the
/// program's own counters and for the tracing overhead.
///
/// # Errors
///
/// A failed pass or a failed telemetry-build run.
pub fn trace(opts: &Options, traced_bin: &Path) -> Result<Outcome, String> {
    let (mut outcome, fixture, _) = measure(opts, 0.0, MIN_REPS, TRACED_REPS)?;
    outcome.traced = true;
    let telemetry = telemetry_run(opts, traced_bin)?;
    let throughput = outcome.sheet.get("work_per_ref_s").map_or(0.0, |m| m.value);
    outcome.sheet.set(
        "telemetry.overhead",
        throughput / telemetry.throughput - 1.0,
        MIN_REPS as u64,
    );
    check(
        &mut outcome.checks,
        "output digest identical in the untraced and telemetry builds",
        telemetry.digest == outcome.digest,
        format!("{:#018x} vs {:#018x}", outcome.digest, telemetry.digest),
    );
    let counter = |name: &str| telemetry.per_rep.get(name).copied().unwrap_or(0.0);
    let sheet = &mut outcome.sheet;
    let layers = match &fixture {
        Fixture::Fig6(f) => f.measure_layers(if opts.smoke { 1 } else { 3 }, sheet),
        Fixture::Cell(f) => {
            let per_rep = outcome.attempted / outcome.rep_host_s.len() as u64;
            sheet.set_mean(
                "spice.newton_per_transient",
                counter("spice.newton_iterations"),
                per_rep,
            );
            sheet.set_mean(
                "spice.rejected_steps_per_transient",
                counter("spice.rejected_steps"),
                per_rep,
            );
            sheet.set_mean(
                "spice.lu_factorizations_per_transient",
                counter("spice.lu_factorizations"),
                per_rep,
            );
            f.measure_layers(if opts.smoke { 1 } else { 4 }, sheet)
        }
        Fixture::Serve(f) => f.measure_layers(
            &outcome.tracer,
            (counter("exec.pool.tasks"), counter("exec.pool.dispatches")),
            sheet,
        ),
    };
    check(
        &mut outcome.checks,
        "per-layer passes reproduce the run",
        layers.is_ok(),
        layers.err().unwrap_or_default(),
    );
    outcome.sheet.fill_missing(&PER_LAYER);
    Ok(outcome)
}

/// Runs the telemetry build on the same workload and seed.
fn telemetry_run(opts: &Options, bin: &Path) -> Result<TelemetryRun, String> {
    let mut cmd = Command::new(bin);
    cmd.args([
        "run",
        "--workload",
        opts.workload.name(),
        "--seed",
        &opts.seed.to_string(),
        "--seconds",
        "0",
    ]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("running {}: {e}", bin.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "telemetry-build run failed ({}):\n{stdout}",
            out.status
        ));
    }
    let line = |prefix: &str| {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(prefix))
            .map(str::trim)
    };
    let digest = line("output_digest ")
        .and_then(|d| u64::from_str_radix(d.trim_start_matches("0x"), 16).ok())
        .ok_or("telemetry-build run printed no output digest")?;
    let counters: serde_json::Value = line("telemetry_counters ")
        .and_then(|c| serde_json::from_str(c).ok())
        .ok_or("the --traced-bin binary is not a telemetry build")?;
    let result: serde_json::Value = stdout
        .lines()
        .last()
        .and_then(|l| serde_json::from_str(l).ok())
        .ok_or("telemetry-build run printed no result line")?;
    let throughput = result
        .get("metrics")
        .and_then(|m| m.get("work_per_ref_s"))
        .and_then(|m| m.get("value"))
        .and_then(serde_json::Value::as_f64)
        .ok_or("telemetry-build result has no work_per_ref_s")?;
    let reps = counters
        .get("repetitions")
        .and_then(serde_json::Value::as_f64)
        .unwrap_or(1.0);
    let per_rep = COUNTERS
        .iter()
        .map(|c| {
            (
                c.to_string(),
                counters
                    .get(c)
                    .and_then(serde_json::Value::as_f64)
                    .unwrap_or(0.0)
                    / reps,
            )
        })
        .collect();
    Ok(TelemetryRun {
        throughput,
        digest,
        per_rep,
    })
}
