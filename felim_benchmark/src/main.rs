//! `felim_benchmark` — the layered benchmark of the felim stack.
//!
//! ```text
//! felim_benchmark run   (--workload <name> | --all) --seed <u64> [--seconds <s>] [--out <dir>] [--smoke]
//! felim_benchmark trace (--workload <name> | --all) --seed <u64> --traced-bin <path>
//!                       [--seconds <s>] [--out <dir>] [--smoke]
//! felim_benchmark compare <parent_dir> <change_dir>
//! ```
//!
//! Without a subcommand, `--trace 1` selects `trace` and `--trace 0`
//! selects `run`. Every run ends its standard output with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}` and exits non-zero
//! when an output check fails. See README.md beside this crate.

mod harness;

use harness::runner::{self, Check, Options};
use harness::workloads::{Workload, ALL};
use harness::{compare, report};
use std::path::PathBuf;
use std::process::Command;

const USAGE: &str =
    "usage: felim_benchmark (run | trace) (--workload <name> | --all) --seed <u64> \
[--seconds <s>] [--out <dir>] [--smoke] [--traced-bin <path>]\n       \
felim_benchmark compare <parent_dir> <change_dir>\n       \
felim_benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--traced-bin <path>]";

fn main() {
    // One worker thread unless the caller chose otherwise: on a shared
    // two-vCPU host, where the scheduler places a second thread moves
    // run times by up to 20 % (README.md). Set before any thread exists.
    if std::env::var_os(felim::exec::THREADS_ENV).is_none() {
        std::env::set_var(felim::exec::THREADS_ENV, "1");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match cli(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("felim_benchmark: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn cli(args: &[String]) -> Result<i32, String> {
    let (mut traced, flags) = match args.first().map(String::as_str) {
        Some("compare") => return compare_sets(&args[1..]),
        Some("run") => (Some(false), &args[1..]),
        Some("trace") => (Some(true), &args[1..]),
        Some(flag) if flag.starts_with("--") => (None, args),
        _ => return Err(USAGE.into()),
    };
    let mut opts = Options {
        workload: Workload::ServeTrace,
        seed: 0,
        seconds: 10.0,
        smoke: false,
        inject_digest_fault: false,
    };
    let (mut workload, mut seed, mut all) = (None, None, false);
    let (mut out, mut traced_bin) = (None, None);
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--all" => all = true,
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                opts.seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                let on = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
                if traced.is_some_and(|t| t != on) {
                    return Err("--trace contradicts the subcommand".into());
                }
                traced = Some(on);
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--traced-bin" => traced_bin = Some(PathBuf::from(value()?)),
            "--smoke" => opts.smoke = true,
            "--inject-digest-fault" => opts.inject_digest_fault = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let traced = traced.unwrap_or(false);
    opts.seed = seed.ok_or("--seed is required")?;
    if all {
        return run_all(traced, flags);
    }
    opts.workload = workload.ok_or("--workload or --all is required")?;
    let mut outcome = if traced {
        runner::trace(&opts, &traced_bin.ok_or("trace needs --traced-bin <path>")?)?
    } else {
        runner::run(&opts)?
    };
    let non_finite: Vec<&str> = report::reported(&outcome)
        .iter()
        .filter(|d| {
            !outcome
                .sheet
                .get(d.name)
                .is_some_and(|m| m.value.is_finite())
        })
        .map(|d| d.name)
        .collect();
    outcome.checks.push(Check {
        name: "every reported metric is a finite number",
        ok: non_finite.is_empty(),
        detail: non_finite.join(", "),
    });
    report::print_table(&opts, &outcome);
    if let Some(out) = out {
        report::write_files(&out, &opts, &outcome)?;
    }
    println!("{}", report::result_line(&outcome));
    Ok(if outcome.correct() { 0 } else { 1 })
}

/// Runs every workload in its own child process, one after another, so
/// set-up time and peak memory are per workload.
fn run_all(traced: bool, flags: &[String]) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut rest = Vec::new();
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--all" => {}
            "--trace" => {
                it.next();
            }
            _ => rest.push(flag),
        }
    }
    let mut failed = Vec::new();
    for w in ALL {
        let status = Command::new(&exe)
            .arg(if traced { "trace" } else { "run" })
            .args(&rest)
            .args(["--workload", w.name()])
            .status()
            .map_err(|e| format!("{}: {e}", w.name()))?;
        if !status.success() {
            failed.push(w.name());
        }
    }
    if failed.is_empty() {
        Ok(0)
    } else {
        eprintln!("felim_benchmark: failed workloads: {}", failed.join(", "));
        Ok(1)
    }
}

fn compare_sets(args: &[String]) -> Result<i32, String> {
    let [parent, change] = args else {
        return Err(USAGE.into());
    };
    let rows = compare::compare_runs(
        &compare::load(parent.as_ref())?,
        &compare::load(change.as_ref())?,
    )?;
    Ok(i32::from(compare::print(&rows)))
}
