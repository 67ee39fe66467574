//! `compare <parent_dir> <change_dir>`: judges every (metric, workload)
//! pair of two sets of result files by the choosing-metrics §6–8 rule.
//!
//! Runs pair up in path order within each workload — record them as
//! alternating parent/change runs, each pair on one seed. At least ten
//! pairs are needed. A host metric improves when the change wins at
//! least nine of every ten pairs and the medians differ by more than the
//! parent's interquartile range; it regresses when the change's median
//! is worse than the parent's by more than the metric's bound; it is
//! unresolved when either side's spread exceeds the bound, unless every
//! change run beats every parent run. Simulated metrics compare exactly.

use super::metrics::{Better, Kind};
use super::report::SCHEMA;
use super::stats::{median, quartiles, relative_spread};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Pairs a comparison needs at least.
pub const MIN_PAIRS: usize = 10;

/// One result file.
#[derive(Debug, Clone)]
pub struct Run {
    /// Path relative to its set's directory.
    pub path: PathBuf,
    /// Workload name, plus `+trace` for traced runs.
    pub group: String,
    /// The run's seed.
    pub seed: u64,
    /// Settings that must agree across both sets.
    pub settings: String,
    /// Metric name → (value, kind, direction).
    pub metrics: BTreeMap<String, (f64, Kind, Better)>,
}

/// Verdict on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change is better by the §8 rule.
    Improved,
    /// No worse than the bound allows.
    NoRegression,
    /// Worse by more than the bound.
    Regressed,
    /// Spread wider than the bound; no call either way.
    Unresolved,
    /// Exact metric, identical in every pair.
    Unchanged,
    /// Per-layer metric: reported, not judged.
    Info,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoRegression => "no regression",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
            Verdict::Info => "info",
        }
    }
}

/// Whether `a` is strictly better than `b`.
fn better(dir: Better, a: f64, b: f64) -> bool {
    match dir {
        Better::Lower => a < b,
        Better::Higher => a > b,
    }
}

/// Judges one metric over paired `parent`/`change` values.
pub fn verdict(parent: &[f64], change: &[f64], kind: Kind, dir: Better) -> Verdict {
    let pairs = parent.iter().zip(change);
    match kind {
        Kind::Layer => Verdict::Info,
        Kind::Exact => {
            if parent == change {
                Verdict::Unchanged
            } else if pairs.clone().all(|(&p, &c)| c == p || better(dir, c, p)) {
                Verdict::Improved
            } else {
                Verdict::Regressed
            }
        }
        Kind::Host(bound) => {
            let wins = pairs.filter(|(&p, &c)| better(dir, c, p)).count();
            let (pm, cm) = (median(parent).unwrap_or(0.0), median(change).unwrap_or(0.0));
            let parent_iqr = quartiles(parent).map_or(0.0, |(q1, q3)| q3 - q1);
            if wins * 10 >= 9 * parent.len() && (cm - pm).abs() > parent_iqr && better(dir, cm, pm)
            {
                return Verdict::Improved;
            }
            let all_better = change
                .iter()
                .all(|&c| parent.iter().all(|&p| better(dir, c, p)));
            let spread = relative_spread(parent).max(relative_spread(change));
            let worse_by = match dir {
                Better::Lower => (cm - pm) / pm.abs(),
                Better::Higher => (pm - cm) / pm.abs(),
            };
            if spread > bound && !all_better {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Regressed
            } else {
                Verdict::NoRegression
            }
        }
    }
}

/// One judged row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload group.
    pub group: String,
    /// Metric name.
    pub metric: String,
    /// Parent median.
    pub parent: f64,
    /// Change median.
    pub change: f64,
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges every (metric, workload) pair of two sets.
///
/// # Errors
///
/// Refuses sets that differ in workloads or run counts, have fewer than
/// [`MIN_PAIRS`] pairs, pair runs of different seeds, or mix settings.
pub fn compare_runs(parent: &[Run], change: &[Run]) -> Result<Vec<Row>, String> {
    let groups = |runs: &[Run]| {
        let mut g: BTreeMap<String, Vec<Run>> = BTreeMap::new();
        for r in runs {
            g.entry(r.group.clone()).or_default().push(r.clone());
        }
        for v in g.values_mut() {
            v.sort_by(|a, b| a.path.cmp(&b.path));
        }
        g
    };
    let (pg, cg) = (groups(parent), groups(change));
    if pg.keys().ne(cg.keys()) {
        return Err("the two sets cover different workloads".into());
    }
    let mut rows = Vec::new();
    for (group, p) in &pg {
        let c = &cg[group];
        if p.len() != c.len() || p.len() < MIN_PAIRS {
            return Err(format!(
                "{group}: {} parent and {} change runs; need {MIN_PAIRS} pairs",
                p.len(),
                c.len()
            ));
        }
        if let Some(r) = p.iter().chain(c).find(|r| r.settings != p[0].settings) {
            return Err(format!(
                "{group}: {} was run with different settings",
                r.path.display()
            ));
        }
        if let Some((a, b)) = p.iter().zip(c).find(|(a, b)| a.seed != b.seed) {
            return Err(format!(
                "{group}: {} and {} pair different seeds",
                a.path.display(),
                b.path.display()
            ));
        }
        for (metric, &(_, kind, dir)) in &p[0].metrics {
            let values = |runs: &[Run]| -> Result<Vec<f64>, String> {
                runs.iter()
                    .map(|r| {
                        r.metrics
                            .get(metric)
                            .map(|m| m.0)
                            .ok_or_else(|| format!("{}: no {metric}", r.path.display()))
                    })
                    .collect()
            };
            let (pv, cv) = (values(p)?, values(c)?);
            rows.push(Row {
                group: group.clone(),
                metric: metric.clone(),
                parent: median(&pv).unwrap_or(0.0),
                change: median(&cv).unwrap_or(0.0),
                wins: pv
                    .iter()
                    .zip(&cv)
                    .filter(|(&a, &b)| better(dir, b, a))
                    .count(),
                pairs: pv.len(),
                verdict: verdict(&pv, &cv, kind, dir),
            });
        }
    }
    Ok(rows)
}

/// Reads every result file under `dir` (recursively; span dumps are
/// skipped).
///
/// # Errors
///
/// An unreadable directory or a malformed result file.
pub fn load(dir: &Path) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).map_err(|e| format!("{}: {e}", d.display()))? {
            let path = entry.map_err(|e| e.to_string())?.path();
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            if path.is_dir() {
                stack.push(path);
            } else if name.ends_with(".json") && !name.ends_with(".spans.json") {
                runs.push(parse(&path, dir)?);
            }
        }
    }
    Ok(runs)
}

fn parse(path: &Path, root: &Path) -> Result<Run, String> {
    let bad = |what: &str| format!("{}: {what}", path.display());
    let text = std::fs::read_to_string(path).map_err(|e| bad(&e.to_string()))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| bad(&e.to_string()))?;
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(bad("not a felim_benchmark result file"));
    }
    let settings = doc.get("settings").ok_or_else(|| bad("no settings"))?;
    let traced = settings
        .get("traced")
        .and_then(Value::as_bool)
        .unwrap_or(false);
    let workload = doc
        .get("workload")
        .and_then(Value::as_str)
        .ok_or_else(|| bad("no workload"))?;
    let mut metrics = BTreeMap::new();
    for m in doc
        .get("metrics")
        .and_then(Value::as_array)
        .ok_or_else(|| bad("no metrics"))?
    {
        let field = |k: &str| m.get(k).ok_or_else(|| bad(&format!("metric without {k}")));
        let name = field("name")?.as_str().unwrap_or_default().to_owned();
        let dir = match field("better")?.as_str() {
            Some("higher") => Better::Higher,
            _ => Better::Lower,
        };
        let kind = match (
            field("kind")?.as_str(),
            m.get("bound").and_then(Value::as_f64),
        ) {
            (Some("host"), Some(b)) => Kind::Host(b),
            (Some("exact"), _) => Kind::Exact,
            _ => Kind::Layer,
        };
        metrics.insert(
            name,
            (field("value")?.as_f64().unwrap_or(f64::NAN), kind, dir),
        );
    }
    Ok(Run {
        path: path.strip_prefix(root).unwrap_or(path).to_path_buf(),
        group: if traced {
            format!("{workload}+trace")
        } else {
            workload.to_owned()
        },
        seed: doc
            .get("seed")
            .and_then(Value::as_u64)
            .ok_or_else(|| bad("no seed"))?,
        settings: serde_json::to_string(settings).expect("value serialises"),
        metrics,
    })
}

/// Prints the comparison table; returns whether any pair regressed.
pub fn print(rows: &[Row]) -> bool {
    println!(
        "  {:<18} {:<40} {:>14} {:>14} {:>6}  verdict",
        "workload", "metric", "parent", "change", "wins"
    );
    for r in rows {
        println!(
            "  {:<18} {:<40} {:>14.6} {:>14.6} {:>3}/{:<2}  {}",
            r.group,
            r.metric,
            r.parent,
            r.change,
            r.wins,
            r.pairs,
            r.verdict.label()
        );
    }
    rows.iter().any(|r| r.verdict == Verdict::Regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten values around `center`, spread ±`jitter`.
    fn set(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + jitter * ((i as f64 * 0.37).sin())))
            .collect()
    }

    const HOST: Kind = Kind::Host(0.10);

    #[test]
    fn a_clear_gain_is_improved() {
        assert_eq!(
            verdict(&set(100.0, 0.01), &set(80.0, 0.01), HOST, Better::Lower),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&set(100.0, 0.01), &set(120.0, 0.01), HOST, Better::Higher),
            Verdict::Improved
        );
    }

    #[test]
    fn the_same_distribution_is_no_regression() {
        let p = set(100.0, 0.01);
        let c: Vec<f64> = p.iter().rev().copied().collect();
        assert_eq!(verdict(&p, &c, HOST, Better::Lower), Verdict::NoRegression);
        // Worse, but within the bound.
        assert_eq!(
            verdict(&p, &set(105.0, 0.01), HOST, Better::Lower),
            Verdict::NoRegression
        );
    }

    #[test]
    fn worse_beyond_the_bound_regresses() {
        assert_eq!(
            verdict(&set(100.0, 0.01), &set(130.0, 0.01), HOST, Better::Lower),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&set(100.0, 0.01), &set(70.0, 0.01), HOST, Better::Higher),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_every_run_is_better() {
        let wide = set(100.0, 0.5);
        assert_eq!(
            verdict(&wide, &set(101.0, 0.5), HOST, Better::Lower),
            Verdict::Unresolved
        );
        // Every change run beats every parent run: no regression claim
        // is possible, though the wide parent spread blocks "improved".
        let fast: Vec<f64> = wide.iter().map(|_| 10.0).collect();
        assert_ne!(
            verdict(&wide, &fast, HOST, Better::Lower),
            Verdict::Unresolved
        );
    }

    #[test]
    fn exact_metrics_compare_exactly() {
        let p = vec![5.0; 10];
        assert_eq!(
            verdict(&p, &p, Kind::Exact, Better::Lower),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&p, &[4.0; 10], Kind::Exact, Better::Lower),
            Verdict::Improved
        );
        let mut c = p.clone();
        c[3] = 5.000_000_1;
        assert_eq!(
            verdict(&p, &c, Kind::Exact, Better::Lower),
            Verdict::Regressed
        );
        assert_eq!(verdict(&p, &c, Kind::Layer, Better::Lower), Verdict::Info);
    }

    fn runs(n: usize, value: f64, settings: &str) -> Vec<Run> {
        (0..n)
            .map(|i| Run {
                path: PathBuf::from(format!("{i:02}/serve_trace.json")),
                group: "serve_trace".into(),
                seed: i as u64,
                settings: settings.into(),
                metrics: [("work_per_host_s".to_owned(), (value, HOST, Better::Higher))].into(),
            })
            .collect()
    }

    #[test]
    fn compare_refuses_mismatched_sets() {
        assert!(compare_runs(&runs(9, 1.0, "a"), &runs(9, 1.0, "a")).is_err());
        assert!(compare_runs(&runs(10, 1.0, "a"), &runs(10, 1.0, "b")).is_err());
        let mut shifted = runs(10, 1.0, "a");
        shifted[4].seed = 99;
        assert!(compare_runs(&runs(10, 1.0, "a"), &shifted).is_err());
        let rows = compare_runs(&runs(10, 1.0, "a"), &runs(10, 1.0, "a")).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::NoRegression);
    }
}
