//! # felim-bench — figure and table regeneration
//!
//! One binary per paper artifact (`cargo run --release -p felim-bench
//! --bin <target>`):
//!
//! | target | regenerates |
//! |---|---|
//! | `fig1_comparison` | Fig 1 — technology comparison table |
//! | `fig2_sensing` | Fig 2 — destructive vs QNRO sensing charges |
//! | `fig3d_not` | Fig 3(d) — transistor-level NOT transient |
//! | `fig3f_tba` | Fig 3(f) — transistor-level TBA NAND-NOR levels |
//! | `fig4d_transfer` | Fig 4(d) — transistor transfer curve |
//! | `fig4e_pv` | Fig 4(e) — P–V loops vs temperature |
//! | `fig4f_endurance` | Fig 4(f) — bipolar cycling endurance |
//! | `fig4gh_switching` | Fig 4(g,h) — pulse switching dynamics |
//! | `fig4ij_minority` | Fig 4(i,j) — TBA currents and MINORITY output |
//! | `sec5_area` | Section V — planar vs vertical area/density |
//! | `fig6_workloads` | Fig 6 — eight-workload DRAM vs FeRAM evaluation |
//! | `fig7_thermal` | Fig 7 — steady-state stack thermal profile |
//!
//! Each binary prints the paper's rows/series to stdout and appends a
//! machine-readable record to `results/experiments.jsonl` (used to build
//! `EXPERIMENTS.md`). Host and simulated performance is measured by the
//! separate `felim_benchmark` package (`bash felim_benchmark/run.sh`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::Serialize;
use std::fs::{create_dir_all, OpenOptions};
use std::io::Write as _;
use std::path::PathBuf;

/// A machine-readable experiment record appended to
/// `results/experiments.jsonl`.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentRecord<'a, T: Serialize> {
    /// Experiment id (e.g. `"fig6"`).
    pub id: &'a str,
    /// Paper artifact (e.g. `"Figure 6(a,b)"`).
    pub artifact: &'a str,
    /// What the paper reports.
    pub paper_claim: &'a str,
    /// What this run measured.
    pub measured: T,
}

/// Directory where experiment records are written (workspace-relative
/// `results/`, created on demand).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("FELIM_RESULTS_DIR").unwrap_or_else(|_| "results".into());
    PathBuf::from(dir)
}

/// Appends a record to `results/experiments.jsonl`. Failures to write are
/// reported but never fatal (the stdout table is the primary artifact).
pub fn record<T: Serialize>(rec: &ExperimentRecord<'_, T>) {
    let dir = results_dir();
    if let Err(e) = create_dir_all(&dir) {
        eprintln!("note: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join("experiments.jsonl");
    match OpenOptions::new().create(true).append(true).open(&path) {
        Ok(mut f) => {
            if let Ok(line) = serde_json::to_string(rec) {
                let _ = writeln!(f, "{line}");
            }
        }
        Err(e) => eprintln!("note: cannot open {}: {e}", path.display()),
    }
}

/// Prints a section header for a figure binary.
pub fn header(artifact: &str, description: &str) {
    println!("================================================================");
    println!("{artifact} — {description}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_is_serialisable() {
        let rec = ExperimentRecord {
            id: "test",
            artifact: "none",
            paper_claim: "n/a",
            measured: vec![1.0, 2.0],
        };
        let json = serde_json::to_string(&rec).unwrap();
        assert!(json.contains("\"id\":\"test\""));
    }

    #[test]
    fn results_dir_env_override() {
        std::env::set_var("FELIM_RESULTS_DIR", "/tmp/felim-test-results");
        assert_eq!(results_dir(), PathBuf::from("/tmp/felim-test-results"));
        std::env::remove_var("FELIM_RESULTS_DIR");
    }
}
