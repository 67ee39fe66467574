//! The six workloads, each a set of inputs derived from the run seed,
//! and the fixture that runs one repetition of it.

use super::tracer::Tracer;
use super::{cell, fig6, serve};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig 6 evaluation.
    Fig6Eval,
    /// Uncached Monte-Carlo cell transients.
    CellTransients,
    /// The multi-tenant service trace on baseline shards.
    ServeTrace,
    /// The same trace shape on ECC + scrub protected shards.
    ServeProtected,
    /// Kernel programs, plan and read caches.
    ServeKernels,
    /// Replicated stripes with remote standbys.
    ServeReplicated,
}

/// Every workload, in report order.
pub const ALL: [Workload; 6] = [
    Workload::Fig6Eval,
    Workload::CellTransients,
    Workload::ServeTrace,
    Workload::ServeProtected,
    Workload::ServeKernels,
    Workload::ServeReplicated,
];

impl Workload {
    /// The command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig6Eval => "fig6_eval",
            Workload::CellTransients => "cell_transients",
            Workload::ServeTrace => "serve_trace",
            Workload::ServeProtected => "serve_protected",
            Workload::ServeKernels => "serve_kernels",
            Workload::ServeReplicated => "serve_replicated",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one unit of work is.
    pub fn work_unit(self) -> &'static str {
        match self {
            Workload::Fig6Eval => "Fig 6 evaluation (run_fig6, 64 rows, 1 GiB)",
            Workload::CellTransients => "cell transient (TBA read, standard netlist)",
            _ => "service request",
        }
    }
}

/// Outcome of one repetition.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host seconds the repetition's timed work took.
    pub host_s: f64,
    /// Units of work completed.
    pub work: u64,
    /// Operations attempted (requests, evaluations, transients).
    pub attempted: u64,
    /// Attempted operations that did not complete.
    pub failed: u64,
    /// Host latency of each unit call, microseconds.
    pub latencies_us: Vec<f64>,
    /// Digest of the repetition's outputs: the whole response log for
    /// the service workloads, the first unit's result otherwise.
    pub digest: u64,
    /// Simulated results; identical across repetitions that replay the
    /// same inputs.
    pub exact: Vec<(&'static str, f64)>,
}

/// A workload ready to run repetitions.
pub enum Fixture {
    /// Fig 6 evaluation.
    Fig6(fig6::Fixture),
    /// Monte-Carlo transients.
    Cell(Box<cell::Fixture>),
    /// A service workload.
    Serve(Box<serve::Fixture>),
}

impl Fixture {
    /// Builds the workload's inputs and system from `seed` and produces
    /// its first result — one set-up, as a user's cold start pays it.
    ///
    /// # Errors
    ///
    /// A failed build or first result.
    pub fn set_up(workload: Workload, seed: u64, smoke: bool) -> Result<Self, String> {
        Ok(match workload {
            Workload::Fig6Eval => Fixture::Fig6(fig6::Fixture::set_up(seed, smoke)),
            Workload::CellTransients => {
                Fixture::Cell(Box::new(cell::Fixture::set_up(seed, smoke)?))
            }
            _ => Fixture::Serve(Box::new(serve::Fixture::set_up(workload, seed, smoke)?)),
        })
    }

    /// Runs repetition `index` (`None` for the untimed warm-up).
    ///
    /// # Errors
    ///
    /// A failed operation or a broken output invariant.
    pub fn rep(&mut self, index: Option<u64>, tracer: &mut Tracer) -> Result<Rep, String> {
        match self {
            Fixture::Fig6(f) => Ok(f.rep(index, tracer)),
            Fixture::Cell(f) => f.rep(index, tracer),
            Fixture::Serve(f) => f.rep(index, tracer),
        }
    }

    /// Recomputes the first unit of timed repetition 0 and returns its
    /// digest, for workloads whose repetitions draw fresh inputs (the
    /// service workloads replay one trace, so their repetitions are
    /// compared with each other instead).
    ///
    /// # Errors
    ///
    /// A failed recomputation.
    pub fn recompute_first(&self) -> Result<Option<u64>, String> {
        match self {
            Fixture::Fig6(f) => Ok(Some(f.recompute_first())),
            Fixture::Cell(f) => f.recompute_first().map(Some),
            Fixture::Serve(_) => Ok(None),
        }
    }

    /// The fixed shape of one repetition, recorded with every result.
    pub fn shape(&self) -> String {
        match self {
            Fixture::Fig6(f) => f.shape(),
            Fixture::Cell(f) => f.shape(),
            Fixture::Serve(f) => f.shape(),
        }
    }

    /// Peak resident memory of helper processes the fixture runs (the
    /// shard daemon), MiB.
    pub fn helper_peak_rss_mib(&self) -> f64 {
        match self {
            Fixture::Serve(f) => f.daemon_peak_rss_mib(),
            _ => 0.0,
        }
    }
}
