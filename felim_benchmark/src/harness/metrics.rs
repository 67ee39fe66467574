//! The metric catalogue: every metric the benchmark reports, with its
//! unit, direction and how it is judged. `BENCHMARK.json` at the
//! repository root mirrors this table (a unit test keeps them in step).

use super::stats;
use std::collections::BTreeMap;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a metric is judged between two commits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Host measurement, gated: the change may worsen the median by at
    /// most this share of the parent's median.
    Host(f64),
    /// Simulated and deterministic: compared exactly.
    Exact,
    /// Per-layer attribution from the traced run: reported, not gated.
    Layer,
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name as printed and stored.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// How the metric is judged.
    pub kind: Kind,
}

const fn host(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        kind: Kind::Host(bound),
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        kind: Kind::Exact,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        kind: Kind::Layer,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: reported by every untraced run of every
/// workload, never zero. A unit of work is one Fig 6 evaluation, one
/// cell transient, or one service request. Times are at reference
/// speed (see [`super::reference`]).
pub const END_TO_END: [Def; 4] = [
    host("setup_s", "s", Lower, 0.25),
    host("peak_rss_mib", "MiB", Lower, 0.25),
    host("work_per_ref_s", "1/s", Higher, 0.25),
    host("latency_ref_us_p50", "us", Lower, 0.25),
];

/// Metrics the traced run reports. Simulated results come first (exact,
/// identical between commits unless the model changes); the rest
/// attribute host time and work to single layers. A layer a workload
/// does not exercise reports 0.
pub const PER_LAYER: [Def; 69] = [
    // Simulated results (exact).
    exact("sim_req_per_s", "req/sim_s", Higher),
    exact("sim_latency_cycles_p50", "cycles", Lower),
    exact("sim_latency_cycles_p99", "cycles", Lower),
    exact("energy_nj_per_req", "nJ/req", Lower),
    exact("failed_share", "share", Lower),
    exact("fig6.energy_reduction_geomean", "x", Higher),
    exact("fig6.speedup_geomean", "x", Higher),
    exact("cell.mean_sensed_current_na", "nA", Higher),
    // The tail latency: too noisy on a shared host to gate a change.
    layer("latency_ref_us_p99", "us", Lower),
    // The same host measurements before normalisation, and the
    // reference kernel's time (the host's speed during the run).
    layer("host.setup_s", "s", Lower),
    layer("host.work_per_s", "1/s", Higher),
    layer("host.latency_us_p50", "us", Lower),
    layer("host.latency_us_p99", "us", Lower),
    layer("host.reference_ms", "ms", Lower),
    // Simulator throughput of the Fig 6 kernels.
    layer("sim_cmds_per_host_s", "cmd/s", Higher),
    // serve: the service itself.
    layer("serve.submit.us_per_call", "us/call", Lower),
    layer("serve.step.us_per_tick", "us/tick", Lower),
    layer("serve.step.residual_us_per_tick", "us/tick", Lower),
    layer("serve.step.idle_share", "share", Lower),
    layer("serve.batch.reqs_per_tick", "req/tick", Higher),
    layer("serve.row_ops_per_req", "row_op/req", Lower),
    layer("serve.shard.makespan_imbalance", "ratio", Lower),
    layer("serve.queue.max_depth", "req", Lower),
    layer("serve.retries", "count", Lower),
    layer("serve.rejected", "count", Lower),
    // serve::plan and serve::dsl: the kernel compiler and the caches.
    layer("plan.compile.us_per_program", "us/program", Lower),
    layer("serve.plan_cache.hit_ratio", "share", Higher),
    layer("serve.read_cache.hit_ratio", "share", Higher),
    layer("plan.fused_ops_per_kernel", "row_op/kernel", Lower),
    // serve::replica: hot standbys.
    layer("replica.standby_energy_share", "share", Lower),
    layer("replica.dispatches_per_tick", "batch/tick", Lower),
    layer("replica.divergences", "count", Lower),
    layer("replica.failovers", "count", Lower),
    // serve::wire and serve::remote, from the all-remote capture pass.
    layer("wire.frames_per_req", "frame/req", Lower),
    layer("wire.bytes_per_req", "B/req", Lower),
    layer("wire.decode.ns_per_frame", "ns/frame", Lower),
    layer("wire.encode.ns_per_frame", "ns/frame", Lower),
    layer("wire.crc.ns_per_kib", "ns/KiB", Lower),
    layer("remote.turnaround.us_per_batch", "us/batch", Lower),
    // arch: the bulk-bitwise engine.
    layer("arch.execute_batch.ns_per_row_op", "ns/row_op", Lower),
    layer("arch.schedule.us_per_batch", "us/batch", Lower),
    layer("arch.controller.tick.us_per_tick", "us/tick", Lower),
    layer("arch.backend.ns_per_call", "ns/call", Lower),
    layer("arch.cmds.activate", "cmd/work", Lower),
    layer("arch.cmds.copy", "cmd/work", Lower),
    layer("arch.cmds.precharge", "cmd/work", Lower),
    layer("arch.cmds.write", "cmd/work", Lower),
    layer("arch.cmds.read", "cmd/work", Lower),
    layer("arch.cmds.refresh", "cmd/work", Lower),
    // workloads: the eight Fig 6 kernels, DRAM and FeRAM runs together.
    layer("workloads.crc8.ms", "ms/eval", Lower),
    layer("workloads.xor_cipher.ms", "ms/eval", Lower),
    layer("workloads.set_union.ms", "ms/eval", Lower),
    layer("workloads.set_intersection.ms", "ms/eval", Lower),
    layer("workloads.set_difference.ms", "ms/eval", Lower),
    layer("workloads.masked_init.ms", "ms/eval", Lower),
    layer("workloads.bitmap_index.ms", "ms/eval", Lower),
    layer("workloads.bnn.ms", "ms/eval", Lower),
    // exec: the persistent worker pool behind the service.
    layer("exec.pool.tasks_per_dispatch", "task/dispatch", Higher),
    layer("exec.pool.dispatches_per_tick", "dispatch/tick", Lower),
    // cell and spice (ferro runs inside the spice elements).
    layer("cell.transient.ms", "ms/transient", Lower),
    layer("cell.mean_time_points", "point/transient", Lower),
    layer("spice.newton_per_transient", "iter/transient", Lower),
    layer(
        "spice.rejected_steps_per_transient",
        "step/transient",
        Lower,
    ),
    layer(
        "spice.lu_factorizations_per_transient",
        "lu/transient",
        Lower,
    ),
    // The benchmark's own telemetry build.
    layer("telemetry.overhead", "ratio", Lower),
    // Where the host time of one request goes (serve workloads).
    layer("host.us_per_req.submit", "us/req", Lower),
    layer("host.us_per_req.serve_residual", "us/req", Lower),
    layer("host.us_per_req.arch", "us/req", Lower),
    layer("host.us_per_req.controller", "us/req", Lower),
];

/// The catalogue entry for `name`.
pub fn def(name: &str) -> Option<&'static Def> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// The value, in the catalogue unit.
    pub value: f64,
    /// Samples the value summarises (repetitions, requests, calls…).
    pub samples: u64,
}

/// Measured metrics of one run, keyed by catalogue name.
#[derive(Debug, Clone, Default)]
pub struct Sheet {
    values: BTreeMap<&'static str, Measured>,
}

impl Sheet {
    /// Records `name` (which must be catalogued).
    ///
    /// # Panics
    ///
    /// On an uncatalogued name — a bug in the harness.
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        assert!(def(name).is_some(), "metric {name} is not catalogued");
        self.values.insert(name, Measured { value, samples });
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<Measured> {
        self.values.get(name).copied()
    }

    /// Every recorded metric in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Measured)> + '_ {
        self.values.iter().map(|(k, v)| (*k, *v))
    }

    /// Fills every catalogued metric in `defs` that is still missing
    /// with 0 (a layer the workload does not exercise).
    pub fn fill_missing(&mut self, defs: &[Def]) {
        for d in defs {
            self.values.entry(d.name).or_insert(Measured {
                value: 0.0,
                samples: 0,
            });
        }
    }

    /// Records a mean `total / count` (0 when nothing was counted).
    pub fn set_mean(&mut self, name: &'static str, total: f64, count: u64) {
        self.set(name, stats::ratio(total, count as f64), count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&Def> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(
                all[..i].iter().all(|e| e.name != d.name),
                "{} twice",
                d.name
            );
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
        }
        // setup_s carries the largest bound, and no bound exceeds 0.25.
        let bound = |d: &Def| match d.kind {
            Kind::Host(b) => b,
            _ => panic!("end-to-end metrics are host metrics"),
        };
        let setup = bound(def("setup_s").unwrap());
        assert!(END_TO_END
            .iter()
            .all(|d| bound(d) <= setup && bound(d) <= 0.25));
    }

    /// `BENCHMARK.json` at the repository root names exactly this
    /// catalogue, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_mirrors_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| doc.get(key).and_then(|v| v.as_array()).cloned().unwrap();
        let check = |entries: Vec<serde_json::Value>, defs: &[Def]| {
            assert_eq!(entries.len(), defs.len());
            for (e, d) in entries.iter().zip(defs) {
                assert_eq!(e.get("name").and_then(|v| v.as_str()), Some(d.name));
                assert_eq!(e.get("unit").and_then(|v| v.as_str()), Some(d.unit));
                assert_eq!(
                    e.get("better").and_then(|v| v.as_str()),
                    Some(d.better.label())
                );
                if let Kind::Host(b) = d.kind {
                    assert_eq!(
                        e.get("bound").and_then(|v| v.as_f64()),
                        Some(b),
                        "{}",
                        d.name
                    );
                }
            }
        };
        check(list("end_to_end"), &END_TO_END);
        check(list("per_layer"), &PER_LAYER);
        let workloads: Vec<String> = list("workloads")
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_owned())
            .collect();
        let ours: Vec<String> = super::super::workloads::ALL
            .iter()
            .map(|w| w.name().to_owned())
            .collect();
        assert_eq!(workloads, ours);
    }
}
