//! The multi-tenant bulk-bitwise service: admission, batching, sharded
//! dispatch, and deterministic virtual time.
//!
//! # Execution model
//!
//! The service advances in *virtual ticks*. Each tick it promotes due
//! retries, sheds requests whose deadline passed, takes up to
//! `batch_window` requests FIFO from the pending queue, decomposes them
//! through the [`Catalog`] into per-shard [`RowOp`] batches, and runs
//! every shard's batch concurrently on a persistent
//! [`felim_exec::ExecPool`]. The tick's *duration* is the
//! slowest shard's subarray-parallel makespan, so simulated time shrinks
//! as sharding spreads the same row-work wider (`tests/service.rs`
//! asserts ≥1.5× from 1 to 4 shards). A request's latency is the simulated-cycle delta
//! between admission and completion: queue wait plus execution.
//!
//! # Determinism
//!
//! Shard results reduce in shard-index order, responses are assembled in
//! batch (request-id) order, and retry jitter derives from
//! [`derive_seed`] — never from wall clocks or scheduling. Identical
//! submissions therefore produce byte-identical serialised response
//! logs at any `FELIM_THREADS` setting (pinned by `tests/service.rs`).
//!
//! # Admission control
//!
//! Submission is atomic: a request is either admitted to every shard
//! queue it needs, or rejected with one typed [`ServeError`] and no
//! state change. Bounded per-shard queues give
//! [`ServeError::Overloaded`] backpressure; per-tenant fair-share
//! quotas give [`ServeError::QuotaExceeded`]; stale requests shed with
//! [`ServeError::DeadlineExceeded`] instead of executing late. Requests
//! that hit an uncorrectable ECC escalation retry with deterministic
//! jitter up to `max_retries` times before failing with
//! [`ServeError::RetriesExhausted`]. Every submission — accepted or not
//! — produces exactly one [`ServeResponse`].

use crate::catalog::{Catalog, VectorId};
use crate::dsl::Program;
use crate::plan::{KernelPlan, KernelPlanError};
use crate::remote::{lock, ConnectRetry, PoolMember, RemoteShard};
use crate::replica::{ReplicaManager, ReplicaStats, ReplicationConfig};
use crate::request::{LogicalOp, RequestId, ResponsePayload, ServeResponse, TenantId};
use crate::shard::{Shard, ShardBatchOutcome, Technology};
use crate::ServeError;
use felim_arch::batch::{RowOp, RowOpOutput};
use felim_arch::drift::DriftSpec;
use felim_arch::energy::LatencyModel;
use felim_arch::geometry::{MemoryGeometry, RowId};
use felim_arch::shard::{ShardId, ShardMap};
use felim_arch::ArchError;
use felim_exec::hash::{fnv1a_fold_words, FNV1A_OFFSET};
use felim_exec::{derive_seed, ExecPool};
use felim_telemetry as telemetry;
use serde::Serialize;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Reliability tier the shard pool runs at.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum ServiceTier {
    /// Raw backends: no ECC, no scrub, no drift process.
    Baseline,
    /// Every shard wrapped in a protected
    /// [`ReliabilityController`](felim_arch::ReliabilityController)
    /// (SECDED ECC + patrol scrub) over the given drift physics.
    Protected {
        /// The drift/disturb fault process each shard runs.
        drift: DriftSpec,
        /// Patrol scrub period, seconds of virtual time.
        scrub_period_s: f64,
    },
}

impl ServiceTier {
    /// Short label for reports and telemetry.
    pub fn label(&self) -> &'static str {
        match self {
            ServiceTier::Baseline => "baseline",
            ServiceTier::Protected { .. } => "protected",
        }
    }
}

/// Static configuration of a [`BulkService`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServiceConfig {
    /// Number of independent shards (backend instances).
    pub shards: u32,
    /// Memory technology behind every shard.
    pub technology: Technology,
    /// Reliability tier (baseline or ECC + scrub).
    pub tier: ServiceTier,
    /// Geometry of each shard's array.
    pub shard_geometry: MemoryGeometry,
    /// Bound on each shard's queue, in requests; admission beyond it is
    /// [`ServeError::Overloaded`].
    pub queue_depth: usize,
    /// Requests coalesced per tick (the batching window).
    pub batch_window: usize,
    /// Per-tenant batch-window overrides as `(tenant, window)` pairs,
    /// for latency-sensitive tenants opting out of coalescing (window 1
    /// trades throughput for latency). A tick's effective window is the
    /// minimum over the tenants it includes, so a window-1 tenant's
    /// requests never share a tick. Validated when the service is
    /// built: tenants must exist, windows must be non-zero.
    pub tenant_batch_window: Vec<(u32, usize)>,
    /// Number of tenant accounts.
    pub tenants: u32,
    /// Per-tenant cap on queued requests; `None` derives the fair share
    /// `max(1, queue_depth / tenants)`.
    pub tenant_quota: Option<usize>,
    /// Retries granted to an uncorrectable-ECC escalation before the
    /// request fails (0 disables retry).
    pub max_retries: u32,
    /// Upper bound on the deterministic retry jitter, in ticks.
    pub retry_backoff_ticks: u64,
    /// Virtual seconds of reliability time per dispatch tick (drives
    /// drift and patrol scrub on protected tiers).
    pub tick_s: f64,
    /// Seed for every derived stream (retry jitter).
    pub seed: u64,
    /// Local rows per shard reserved at the top of the data region for
    /// kernel temporaries (scratch slots stripe through them). Catalog
    /// capacity shrinks by the same amount.
    pub kernel_scratch_rows: u64,
    /// Serve `Read` requests from the content-addressed digest cache
    /// when the vector is unchanged since its last read (invalidated on
    /// any write to it).
    pub read_cache: bool,
    /// Shards hosted remotely, as `(shard_index, "host:port")` pairs
    /// pointing at `felim-shardd` daemons. Unlisted shards stay
    /// in-process; the mix is transparent — response logs are
    /// byte-identical for any placement. Validated when the service is
    /// built: indices must be in range and unique.
    pub remote_shards: Vec<(u32, String)>,
    /// Connection attempts per remote shard before the build fails
    /// (bounded backoff between attempts; at least 1).
    pub remote_connect_attempts: u32,
    /// Backoff before the second connection attempt, milliseconds
    /// (doubling per attempt, capped at one second).
    pub remote_connect_backoff_ms: u64,
    /// Stripe replication: `Some` backs every stripe with hot standbys
    /// and enables deterministic failover (see [`crate::replica`]).
    /// `None` (the default) runs each stripe on a single member — the
    /// zero-standby case of the same dispatch path — and is
    /// byte-identical to replication being on: standbys are exact
    /// copies and never influence settled responses.
    pub replication: Option<ReplicationConfig>,
}

impl ServiceConfig {
    /// A small test-friendly configuration over `shards` tiny FeRAM
    /// arrays: queue depth 32, batch window 8, 4 tenants, 3 retries.
    pub fn small(shards: u32) -> Self {
        Self {
            shards,
            technology: Technology::Feram,
            tier: ServiceTier::Baseline,
            shard_geometry: MemoryGeometry::tiny(),
            queue_depth: 32,
            batch_window: 8,
            tenant_batch_window: Vec::new(),
            tenants: 4,
            tenant_quota: None,
            max_retries: 3,
            retry_backoff_ticks: 4,
            tick_s: 1e-3,
            seed: 0x5eed,
            kernel_scratch_rows: 64,
            read_cache: true,
            remote_shards: Vec::new(),
            remote_connect_attempts: 5,
            remote_connect_backoff_ms: 20,
            replication: None,
        }
    }

    /// The connection-retry policy derived from the remote knobs.
    pub fn connect_retry(&self) -> ConnectRetry {
        ConnectRetry {
            attempts: self.remote_connect_attempts.max(1),
            base_backoff: Duration::from_millis(self.remote_connect_backoff_ms),
        }
    }

    /// The effective per-tenant quota.
    pub fn quota(&self) -> usize {
        self.tenant_quota
            .unwrap_or_else(|| (self.queue_depth / self.tenants.max(1) as usize).max(1))
    }

    /// The batch window governing `tenant`'s requests (its override, or
    /// the global `batch_window`).
    pub fn window_for(&self, tenant: TenantId) -> usize {
        self.tenant_batch_window
            .iter()
            .find_map(|&(t, w)| (t == tenant.0).then_some(w))
            .unwrap_or(self.batch_window)
    }
}

/// A request's op as admitted: every vector name resolved to its
/// catalog id, and kernels compiled. Dispatch, the read cache and
/// settlement work from ids and never look a name up.
enum AdmittedOp {
    /// Not, Copy and the six binary logic ops, with the op kind as its
    /// row-op constructor: row `k` of each stripe gives
    /// `row_op(a, b, dst)`. The unary ops have `b == a` and ignore it.
    RowWise { row_op: RowOpFn, a: VectorId, b: VectorId, dst: VectorId },
    /// Host write of a cyclic word pattern.
    Write { dst: VectorId, words: Vec<u64> },
    /// Host read of a whole vector.
    Read { src: VectorId },
    /// A kernel's compiled schedule, the row count its bound vectors
    /// share, and the ids of the plan's vectors in table order.
    Kernel {
        /// Compiled once at admission (or taken from the plan cache).
        plan: Arc<KernelPlan>,
        /// Rows of every bound vector.
        rows: u64,
        /// `vectors[i]` is the id of `plan.vector_names()`'s `i`-th.
        vectors: Vec<VectorId>,
    },
}

/// A row-wise op kind as its row-op constructor, over one row of each
/// of `(a, b, dst)`.
type RowOpFn = fn(RowId, RowId, RowId) -> RowOp;

/// Resolves `name` to its catalog id, checking that it has the `rows`
/// rows of the op's first vector `left`.
fn resolve_like(
    catalog: &Catalog,
    name: &str,
    (left, rows): (&str, u64),
) -> Result<VectorId, ServeError> {
    let id = catalog.resolve(name)?;
    let right_rows = catalog.placement(id).rows;
    if right_rows != rows {
        return Err(ServeError::ShapeMismatch {
            left: left.to_owned(),
            left_rows: rows,
            right: name.to_owned(),
            right_rows,
        });
    }
    Ok(id)
}

/// An admitted request waiting for (or between) dispatches.
struct PendingRequest {
    id: RequestId,
    tenant: TenantId,
    /// The submitted op's [`LogicalOp::mnemonic`].
    mnemonic: &'static str,
    op: AdmittedOp,
    deadline: Option<u64>,
    submitted_tick: u64,
    submit_cycles: u64,
    attempts: u32,
    not_before: u64,
    involved: Vec<u32>,
    /// A `Read` answered from the digest cache: `(rows, digest)` — the
    /// request then dispatches zero row-ops.
    cached_digest: Option<(u64, u64)>,
    /// An executed `Read` may populate the cache at settlement (false
    /// when a later request in the same batch overwrites the vector).
    cache_fill: bool,
}

/// Running totals over one shard's dispatches.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct ShardLoad {
    /// Batches dispatched to the shard.
    pub batches: u64,
    /// Row-ops it executed.
    pub row_ops: u64,
    /// Its summed batch makespans, cycles.
    pub makespan_cycles: u64,
    /// Largest queue depth observed at admission.
    pub max_queue_depth: usize,
}

/// Counter block for one service lifetime.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct ServiceStats {
    /// Submissions offered (accepted + rejected).
    pub submitted: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Rejections for shard-queue backpressure.
    pub rejected_overloaded: u64,
    /// Rejections for tenant quota.
    pub rejected_quota: u64,
    /// Rejections for malformed requests (unknown vector, shape…).
    pub rejected_invalid: u64,
    /// Requests shed at their deadline.
    pub shed_deadline: u64,
    /// Requests that failed on the backend (incl. retries exhausted).
    pub failed: u64,
    /// Retry dispatches consumed.
    pub retries: u64,
    /// Non-empty ticks dispatched.
    pub batches: u64,
    /// Maintenance (scrub/drift) faults recorded, not escalated.
    pub maintenance_errors: u64,
    /// Kernel requests completed.
    pub kernels: u64,
    /// `Read` requests answered from the digest cache (zero row-ops).
    pub cache_hits: u64,
    /// `Read` requests that had to touch the backend.
    pub cache_misses: u64,
    /// Cache entries dropped because their vector was written.
    pub cache_invalidations: u64,
    /// Kernel submissions whose compiled plan came from the plan cache
    /// (same program digest and bindings — compilation skipped).
    pub plan_cache_hits: u64,
    /// Requests failed by a remote shard's transport (torn frame,
    /// corrupt payload, peer loss) — never silently dropped.
    pub transport_errors: u64,
}

/// Latency distribution over completed requests, in simulated cycles.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct LatencySummary {
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Worst case.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl LatencySummary {
    /// Summarises a set of latencies (all zeros when empty).
    pub fn from_latencies(mut values: Vec<u64>) -> Self {
        if values.is_empty() {
            return Self::default();
        }
        values.sort_unstable();
        let n = values.len();
        // Nearest-rank: the smallest value with at least q·n values ≤ it.
        let pick = |q: f64| values[(((q * n as f64).ceil() as usize).max(1) - 1).min(n - 1)];
        Self {
            p50: pick(0.50),
            p95: pick(0.95),
            p99: pick(0.99),
            max: values[n - 1],
            mean: values.iter().sum::<u64>() as f64 / n as f64,
        }
    }
}

/// End-of-run summary of a service lifetime.
#[derive(Debug, Clone, Serialize)]
pub struct ServiceReport {
    /// Shards configured.
    pub shards: u32,
    /// Technology label.
    pub technology: &'static str,
    /// Tier label.
    pub tier: &'static str,
    /// Counter block.
    pub stats: ServiceStats,
    /// Total simulated cycles across all ticks (slowest-shard makespans).
    pub sim_cycles: u64,
    /// The same in seconds under the paper's clock.
    pub sim_seconds: f64,
    /// Completed requests per simulated second.
    pub throughput_rps: f64,
    /// Row-ops executed per simulated second.
    pub row_ops_per_second: f64,
    /// Latency distribution over completed requests.
    pub latency: LatencySummary,
    /// Total backend energy, millijoules.
    pub energy_mj: f64,
    /// Per-shard load totals.
    pub per_shard: Vec<ShardLoad>,
    /// Replication-layer counters, when replication is configured
    /// (`None` for a plain pool).
    pub replica: Option<ReplicaStats>,
}

/// The multi-tenant bulk-bitwise request service. See the [module
/// docs](self) for the execution model; see the crate docs for a
/// quickstart.
pub struct BulkService {
    config: ServiceConfig,
    map: ShardMap,
    catalog: Catalog,
    /// Pool members, replica-major (see `replicas`), each locked only
    /// through [`lock`].
    shards: Arc<[Mutex<Box<dyn PoolMember>>]>,
    pool: ExecPool,
    latency_model: LatencyModel,
    pending: VecDeque<PendingRequest>,
    retries: Vec<PendingRequest>,
    queued_per_tenant: Vec<usize>,
    queued_per_shard: Vec<usize>,
    responses: Vec<ServeResponse>,
    shard_load: Vec<ShardLoad>,
    stats: ServiceStats,
    now: u64,
    sim_cycles: u64,
    energy_nj: f64,
    next_id: u64,
    /// First local row of the per-shard kernel scratch region (the
    /// catalog allocates strictly below it).
    scratch_base: u64,
    /// Content-addressed read cache, indexed by [`VectorId`]: a
    /// vector's `(rows, digest)`, valid while the vector is unwritten
    /// since the digest was taken. One slot per catalog vector.
    read_cache: Vec<Option<(u64, u64)>>,
    /// Compiled-kernel cache keyed on (program text, bindings):
    /// repeated `Kernel` submissions of the same program against the
    /// same binding shape skip recompilation entirely.
    plan_cache: HashMap<PlanKey, Arc<KernelPlan>>,
    /// Replication state machine — the zero-standby identity when
    /// `config.replication` is `None`. Pool members are laid out
    /// replica-major (member `replica · shards + stripe`), so member
    /// indices 0..shards are the primaries and all stripe-indexed
    /// bookkeeping is the same with or without standbys.
    replicas: ReplicaManager,
}

/// Plan-cache key: the exact kernel program text plus the exact
/// (dsl name, vector name) binding list it was compiled against.
type PlanKey = (String, Vec<(String, String)>);

/// One dispatch of a tick: `(stripe, replica, the stripe's ops)`, the
/// ops shared by every replica of the stripe.
type WorkItem = (usize, usize, Arc<[RowOp]>);

impl std::fmt::Debug for BulkService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BulkService")
            .field("shards", &self.config.shards)
            .field("now", &self.now)
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl BulkService {
    /// Builds the shard pool and its worker pool (sized by
    /// `FELIM_THREADS`, minus the calling thread).
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for a self-inconsistent
    /// configuration: zero shards, window, or queue; a per-tenant
    /// window override naming an unknown tenant or a zero window; or a
    /// scratch reservation that swallows the whole data region.
    pub fn new(config: ServiceConfig) -> Result<Self, ServeError> {
        let invalid = |message: &str| {
            Err(ServeError::InvalidConfig {
                message: message.to_owned(),
            })
        };
        if config.shards == 0 {
            return invalid("need at least one shard");
        }
        if config.batch_window == 0 {
            return invalid("need a non-empty batch window");
        }
        if config.queue_depth == 0 {
            return invalid("need a non-empty queue");
        }
        for &(tenant, window) in &config.tenant_batch_window {
            if tenant >= config.tenants {
                return Err(ServeError::InvalidConfig {
                    message: format!(
                        "batch-window override for tenant#{tenant} outside the configured {} tenants",
                        config.tenants
                    ),
                });
            }
            if window == 0 {
                return Err(ServeError::InvalidConfig {
                    message: format!("batch-window override for tenant#{tenant} must be non-zero"),
                });
            }
        }
        for (i, &(s, _)) in config.remote_shards.iter().enumerate() {
            if s >= config.shards {
                return Err(ServeError::InvalidConfig {
                    message: format!(
                        "remote placement for shard#{s} outside the configured {} shards",
                        config.shards
                    ),
                });
            }
            if config.remote_shards[..i].iter().any(|&(t, _)| t == s) {
                return Err(ServeError::InvalidConfig {
                    message: format!("shard#{s} has two remote placements"),
                });
            }
        }
        if let Some(repl) = &config.replication {
            if repl.standbys == 0 {
                return invalid("replication needs at least one standby");
            }
            if repl.epoch_ticks == 0 {
                return invalid("replication epoch must be non-zero ticks");
            }
            if repl.rebuild_chunk_bytes == 0 {
                return invalid("rebuild pacing needs a non-zero chunk");
            }
            for (i, &(s, r, _)) in repl.remote_standbys.iter().enumerate() {
                if s >= config.shards {
                    return Err(ServeError::InvalidConfig {
                        message: format!(
                            "remote standby for stripe#{s} outside the configured {} shards",
                            config.shards
                        ),
                    });
                }
                if r == 0 || r > repl.standbys {
                    return Err(ServeError::InvalidConfig {
                        message: format!(
                            "remote standby#{r} for stripe#{s} outside 1..={}",
                            repl.standbys
                        ),
                    });
                }
                if repl.remote_standbys[..i].iter().any(|&(s2, r2, _)| (s2, r2) == (s, r)) {
                    return Err(ServeError::InvalidConfig {
                        message: format!("standby#{r} of stripe#{s} has two remote placements"),
                    });
                }
            }
        }
        let tier_config = match &config.tier {
            ServiceTier::Baseline => None,
            ServiceTier::Protected {
                drift,
                scrub_period_s,
            } => Some((drift.clone(), *scrub_period_s)),
        };
        let replicas = match config.replication.clone() {
            Some(repl) => ReplicaManager::new(repl, config.shards as usize),
            None => ReplicaManager::unreplicated(config.shards as usize),
        };
        // Pool layout is replica-major: member `r · shards + i` is
        // stripe `i`'s replica `r`, so a plain pool's (one replica)
        // member indices coincide with stripe indices.
        let replica_count = replicas.replicas();
        let mut members: Vec<Mutex<Box<dyn PoolMember>>> =
            Vec::with_capacity(replica_count * config.shards as usize);
        let mut remote_members = 0u32;
        for r in 0..replica_count {
            for i in 0..config.shards {
                let tier = tier_config.clone().map(|(mut drift, period)| {
                    // Each STRIPE gets its own derived fault stream —
                    // derived before any placement decision, so a
                    // remote shard receives exactly the seed its local
                    // twin would have used, and every replica of a
                    // stripe shares its primary's virtual physics
                    // (replicas must be byte-identical by
                    // construction).
                    drift.seed = derive_seed(drift.seed, u64::from(i));
                    (drift, period)
                });
                let addr = if r == 0 {
                    config
                        .remote_shards
                        .iter()
                        .find(|&&(s, _)| s == i)
                        .map(|(_, a)| a)
                } else {
                    replicas
                        .config()
                        .remote_standbys
                        .iter()
                        .find(|&&(s, sb, _)| s == i && sb as usize == r)
                        .map(|(_, _, a)| a)
                };
                let member: Box<dyn PoolMember> = match addr {
                    None => Box::new(Shard::new(config.technology, config.shard_geometry, tier)),
                    Some(addr) => {
                        remote_members += 1;
                        // The session slot is the member's pool index,
                        // so one daemon can host any mix of primaries
                        // and standbys.
                        let slot = (r * config.shards as usize + i as usize) as u64;
                        Box::new(RemoteShard::connect_slot(
                            addr,
                            config.technology,
                            config.shard_geometry,
                            tier,
                            config.connect_retry(),
                            slot,
                            false,
                        )?)
                    }
                };
                members.push(Mutex::new(member));
            }
        }
        let data_rows = lock(&members[0]).data_rows()?;
        for (s, member) in members.iter().enumerate().skip(1) {
            let rows = lock(member).data_rows()?;
            if rows != data_rows {
                return Err(ServeError::InvalidConfig {
                    message: format!(
                        "pool member#{s} reports {rows} data rows, member#0 reports {data_rows} — \
                         a remote host was built with different parameters"
                    ),
                });
            }
        }
        if config.kernel_scratch_rows >= data_rows {
            return Err(ServeError::InvalidConfig {
                message: format!(
                    "kernel_scratch_rows {} swallows the whole {data_rows}-row data region",
                    config.kernel_scratch_rows
                ),
            });
        }
        // Kernel scratch sits at the top of the data region; the
        // catalog allocates strictly below it.
        let scratch_base = data_rows - config.kernel_scratch_rows;
        let map = ShardMap::new(config.shards, data_rows)
            .map_err(|message| ServeError::InvalidConfig { message })?;
        let catalog = Catalog::new(config.shards, scratch_base);
        telemetry::gauge("serve.shards").set(f64::from(config.shards));
        telemetry::gauge("serve.remote.shards").set(f64::from(remote_members));
        telemetry::gauge("serve.replica.standbys")
            .set((replica_count - 1) as f64 * f64::from(config.shards));
        Ok(Self {
            catalog,
            map,
            shards: members.into(),
            pool: ExecPool::with_env_threads(),
            latency_model: LatencyModel::paper_default(),
            pending: VecDeque::new(),
            retries: Vec::new(),
            queued_per_tenant: vec![0; config.tenants as usize],
            queued_per_shard: vec![0; config.shards as usize],
            responses: Vec::new(),
            shard_load: vec![ShardLoad::default(); config.shards as usize],
            stats: ServiceStats::default(),
            now: 0,
            sim_cycles: 0,
            energy_nj: 0.0,
            next_id: 0,
            scratch_base,
            read_cache: Vec::new(),
            plan_cache: HashMap::new(),
            replicas,
            config,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The shard ownership map (contiguous row ranges per shard).
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// The current virtual tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Simulated cycles elapsed (sum of per-tick slowest-shard
    /// makespans).
    pub fn sim_cycles(&self) -> u64 {
        self.sim_cycles
    }

    /// The counter block so far.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Responses produced so far, in completion order.
    pub fn responses(&self) -> &[ServeResponse] {
        &self.responses
    }

    /// Takes (and clears) the response log.
    pub fn take_responses(&mut self) -> Vec<ServeResponse> {
        std::mem::take(&mut self.responses)
    }

    /// Registers a named vector of `rows` rows, striped across shards.
    ///
    /// # Errors
    ///
    /// See [`Catalog::create`].
    pub fn create_vector(&mut self, name: &str, rows: u64) -> Result<(), ServeError> {
        self.catalog.create(name, rows)?;
        self.read_cache.push(None);
        Ok(())
    }

    /// Submits one request for `tenant`, optionally with a deadline
    /// `deadline_ticks` from now. Admission is atomic; rejected
    /// submissions consume a [`RequestId`] and produce an immediate
    /// error response in the log.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`], [`ServeError::QuotaExceeded`], or a
    /// validation error ([`ServeError::UnknownVector`],
    /// [`ServeError::ShapeMismatch`], [`ServeError::EmptyPattern`],
    /// [`ServeError::UnknownTenant`]).
    pub fn submit(
        &mut self,
        tenant: TenantId,
        op: LogicalOp,
        deadline_ticks: Option<u64>,
    ) -> Result<RequestId, ServeError> {
        let id = RequestId(self.next_id);
        self.next_id += 1;
        self.stats.submitted += 1;
        telemetry::counter("serve.submitted").inc();

        let mnemonic = op.mnemonic();
        match self.admit(tenant, op) {
            Ok((involved, op)) => {
                for &s in &involved {
                    let depth = &mut self.queued_per_shard[s as usize];
                    *depth += 1;
                    let load = &mut self.shard_load[s as usize];
                    load.max_queue_depth = load.max_queue_depth.max(*depth);
                }
                self.queued_per_tenant[tenant.0 as usize] += 1;
                self.pending.push_back(PendingRequest {
                    id,
                    tenant,
                    mnemonic,
                    op,
                    deadline: deadline_ticks.map(|d| self.now + d),
                    submitted_tick: self.now,
                    submit_cycles: self.sim_cycles,
                    attempts: 0,
                    not_before: self.now,
                    involved,
                    cached_digest: None,
                    cache_fill: false,
                });
                Ok(id)
            }
            Err(err) => {
                match &err {
                    ServeError::Overloaded { .. } => {
                        self.stats.rejected_overloaded += 1;
                        telemetry::counter("serve.rejected.overloaded").inc();
                    }
                    ServeError::QuotaExceeded { .. } => {
                        self.stats.rejected_quota += 1;
                        telemetry::counter("serve.rejected.quota").inc();
                    }
                    _ => {
                        self.stats.rejected_invalid += 1;
                        telemetry::counter("serve.rejected.invalid").inc();
                    }
                }
                self.responses.push(ServeResponse {
                    request: id,
                    tenant,
                    op: mnemonic,
                    outcome: Err(err.clone()),
                    submitted_tick: self.now,
                    completed_tick: self.now,
                    latency_cycles: 0,
                    retries: 0,
                });
                Err(err)
            }
        }
    }

    /// Validates a submission and returns the shards it will occupy,
    /// plus the admitted op: every vector name resolved to its catalog
    /// id, kernels compiled (`&mut self` only to feed the plan cache).
    /// After admission no code looks a vector name up.
    fn admit(
        &mut self,
        tenant: TenantId,
        op: LogicalOp,
    ) -> Result<(Vec<u32>, AdmittedOp), ServeError> {
        if tenant.0 >= self.config.tenants {
            return Err(ServeError::UnknownTenant {
                tenant,
                tenants: self.config.tenants,
            });
        }
        let catalog = &self.catalog;
        // Names resolve in op order, operands before the destination:
        // the first unknown name, or the first whose row count differs
        // from the op's first vector's, is the error.
        let first = |name: &str| catalog.resolve(name).map(|id| (id, catalog.placement(id).rows));
        let row_wise = |row_op: RowOpFn, left: &str, b: Option<&str>, dst: &str| {
            let (a, rows) = first(left)?;
            let b = b.map_or(Ok(a), |b| resolve_like(catalog, b, (left, rows)))?;
            let dst = resolve_like(catalog, dst, (left, rows))?;
            Ok::<_, ServeError>((rows, AdmittedOp::RowWise { row_op, a, b, dst }))
        };
        let (rows, admitted) = match op {
            LogicalOp::Not { src, dst } => {
                row_wise(|src, _, dst| RowOp::Not { src, dst }, &src, None, &dst)?
            }
            LogicalOp::Copy { src, dst } => {
                row_wise(|src, _, dst| RowOp::Copy { src, dst }, &src, None, &dst)?
            }
            LogicalOp::And { a, b, dst } => {
                row_wise(|a, b, dst| RowOp::And { a, b, dst }, &a, Some(&b), &dst)?
            }
            LogicalOp::Or { a, b, dst } => {
                row_wise(|a, b, dst| RowOp::Or { a, b, dst }, &a, Some(&b), &dst)?
            }
            LogicalOp::Xor { a, b, dst } => {
                row_wise(|a, b, dst| RowOp::Xor { a, b, dst }, &a, Some(&b), &dst)?
            }
            LogicalOp::Nand { a, b, dst } => {
                row_wise(|a, b, dst| RowOp::Nand { a, b, dst }, &a, Some(&b), &dst)?
            }
            LogicalOp::Nor { a, b, dst } => {
                row_wise(|a, b, dst| RowOp::Nor { a, b, dst }, &a, Some(&b), &dst)?
            }
            LogicalOp::Xnor { a, b, dst } => {
                row_wise(|a, b, dst| RowOp::Xnor { a, b, dst }, &a, Some(&b), &dst)?
            }
            LogicalOp::Write { dst, words } => {
                if words.is_empty() {
                    return Err(ServeError::EmptyPattern);
                }
                let (dst, rows) = first(&dst)?;
                (rows, AdmittedOp::Write { dst, words })
            }
            LogicalOp::Read { src } => {
                let (src, rows) = first(&src)?;
                (rows, AdmittedOp::Read { src })
            }
            LogicalOp::Kernel { program, bindings } => {
                // Kernels parse and plan at admission, before any queue
                // state changes: a malformed program is rejected
                // atomically, and the compiled plan rides with the
                // request so dispatch just stamps it out per shard.
                // Compilation is deterministic, so a plan keyed on the
                // exact (program, bindings) is reusable verbatim —
                // repeated submissions of the same kernel skip the
                // compiler.
                let cached = match self.plan_cache.entry((program, bindings)) {
                    Entry::Occupied(hit) => {
                        self.stats.plan_cache_hits += 1;
                        telemetry::counter("serve.kernel.plan_cache_hits").inc();
                        hit
                    }
                    Entry::Vacant(miss) => {
                        let (program, bindings) = miss.key();
                        let parsed =
                            Program::parse(program).map_err(|e| ServeError::KernelParse {
                                position: e.position,
                                message: e.message,
                            })?;
                        let plan = KernelPlan::compile(&parsed, bindings).map_err(|e| {
                            ServeError::KernelPlan {
                                message: e.to_string(),
                            }
                        })?;
                        miss.insert_entry(Arc::new(plan))
                    }
                };
                let ((_, bindings), plan) = (cached.key(), cached.get());
                // Every binding is validated, also one the program
                // never reads. A plan writes at least one bound name,
                // so a compiled kernel has a binding.
                let Some(((_, left), rest)) = bindings.split_first() else {
                    return Err(ServeError::KernelPlan {
                        message: KernelPlanError::NoOutputs.to_string(),
                    });
                };
                let rows = first(left)?.1;
                for (_, name) in rest {
                    resolve_like(catalog, name, (left, rows))?;
                }
                let needed = plan.scratch_rows_needed(rows, self.config.shards);
                if needed > self.config.kernel_scratch_rows {
                    return Err(ServeError::ScratchExhausted {
                        needed_rows: needed,
                        budget_rows: self.config.kernel_scratch_rows,
                    });
                }
                let vectors = plan
                    .vector_names()
                    .map(|name| catalog.resolve(name))
                    .collect::<Result<_, _>>()?;
                let plan = Arc::clone(plan);
                (rows, AdmittedOp::Kernel { plan, rows, vectors })
            }
        };
        // Row `i` lives on shard `i mod S`: the first `rows` shards.
        let involved: Vec<u32> = (0..self.config.shards)
            .filter(|&s| u64::from(s) < rows)
            .collect();
        debug_assert!(!involved.is_empty(), "{rows}-row vector spans no shard");
        if self.queued_per_tenant[tenant.0 as usize] >= self.config.quota() {
            return Err(ServeError::QuotaExceeded {
                tenant,
                queued: self.queued_per_tenant[tenant.0 as usize],
                quota: self.config.quota(),
            });
        }
        for &s in &involved {
            if self.queued_per_shard[s as usize] >= self.config.queue_depth {
                return Err(ServeError::Overloaded {
                    shard: ShardId(s),
                    depth: self.queued_per_shard[s as usize],
                });
            }
        }
        Ok((involved, admitted))
    }

    /// Advances one virtual tick: promote due retries, shed expired
    /// requests, dispatch up to `batch_window` requests across the shard
    /// pool, and charge the slowest shard's makespan to simulated time.
    /// Returns the number of requests dispatched this tick.
    pub fn step(&mut self) -> usize {
        self.promote_due_retries();
        let mut batch = self.collect_batch();
        if batch.is_empty() {
            // Idle ticks still pump replication upkeep: a background
            // rebuild must finish even when no requests arrive.
            self.replica_maintenance(&[]);
            self.now += 1;
            return 0;
        }
        self.stats.batches += 1;
        telemetry::counter("serve.batches").inc();

        // Cache maintenance runs in batch order *before* decomposition:
        // a write earlier in the batch invalidates the digest a later
        // read would otherwise hit, and a read followed by a write in
        // the same batch must not populate the cache with the stale
        // digest (`cache_fill` is false then).
        if self.config.read_cache {
            for i in 0..batch.len() {
                for v in Self::written_vectors(&batch[i].op) {
                    if self.read_cache[v.index()].take().is_some() {
                        self.stats.cache_invalidations += 1;
                        telemetry::counter("serve.cache.invalidations").inc();
                    }
                }
                if let AdmittedOp::Read { src } = batch[i].op {
                    if let Some(entry) = self.read_cache[src.index()] {
                        batch[i].cached_digest = Some(entry);
                        self.stats.cache_hits += 1;
                        telemetry::counter("serve.cache.hits").inc();
                    } else {
                        batch[i].cache_fill = !batch[i + 1..]
                            .iter()
                            .any(|later| Self::written_vectors(&later.op).any(|v| v == src));
                        self.stats.cache_misses += 1;
                        telemetry::counter("serve.cache.misses").inc();
                    }
                }
            }
        }

        // Decompose each request into per-shard row-op runs.
        let shard_count = self.config.shards as usize;
        let mut shard_ops: Vec<Vec<RowOp>> = vec![Vec::new(); shard_count];
        let mut spans: Vec<Vec<(usize, usize)>> = Vec::with_capacity(batch.len());
        for req in &batch {
            let mut req_spans = Vec::with_capacity(shard_count);
            for (s, ops) in shard_ops.iter_mut().enumerate() {
                let start = ops.len();
                self.decompose_for_shard(req, s as u32, ops);
                req_spans.push((start, ops.len() - start));
            }
            spans.push(req_spans);
        }

        // Dispatch every replica of every stripe (empty batches still
        // tick the reliability clock), all replicas of a stripe sharing
        // one copy of its ops; reduce in stripe order. A remote member's
        // dispatch can fail at the transport — the per-member `Result`
        // carries that without disturbing the other outcomes. A plain
        // pool dispatches one work item per stripe.
        let shard_ops: Vec<Arc<[RowOp]>> = shard_ops.into_iter().map(Arc::from).collect();
        for (s, ops) in shard_ops.iter().enumerate() {
            // A mid-rebuild member misses this batch; it replays from
            // the schedule log when its snapshot lands.
            self.replicas.log_schedule(s, self.config.tick_s, ops);
        }
        let replicas = &self.replicas;
        let work: Arc<Vec<WorkItem>> = Arc::new(
            shard_ops
                .iter()
                .enumerate()
                .flat_map(|(s, ops)| {
                    replicas
                        .dispatch_replicas(s)
                        .into_iter()
                        .map(move |r| (s, r, Arc::clone(ops)))
                })
                .collect(),
        );
        // Split phase: every member's batch starts here, in work order
        // — a remote member writes it to its link and returns — so the
        // remote round trips run while the pool map below does the
        // local work, then finishes each item (reading a remote reply).
        // Every started batch finishes this tick; one whose start failed
        // yields that error instead.
        let shards = Arc::clone(&self.shards);
        let tick_s = self.config.tick_s;
        let stripes = shard_count;
        let started: Vec<Result<(), ServeError>> = work
            .iter()
            .map(|(s, r, ops)| lock(&shards[r * stripes + s]).start(ops, tick_s))
            .collect();
        let raw: Vec<Result<ShardBatchOutcome, ServeError>> = self.pool.map(
            &work,
            Arc::new(move |i: usize, (s, r, ops): &WorkItem| match &started[i] {
                Ok(()) => lock(&shards[r * stripes + s]).finish(ops, tick_s),
                Err(e) => Err(e.clone()),
            }),
        );
        let outcomes = self.reduce_outcomes(&work, raw);

        let makespan = outcomes
            .iter()
            .filter_map(|o| o.as_ref().ok().map(|o| o.makespan_cycles))
            .max()
            .unwrap_or(0);
        self.sim_cycles += makespan;
        telemetry::histogram("serve.tick.makespan_cycles").record(makespan);
        for (s, outcome) in outcomes.iter().enumerate() {
            let Ok(outcome) = outcome else { continue };
            let load = &mut self.shard_load[s];
            load.batches += 1;
            load.row_ops += outcome.outputs.len() as u64;
            load.makespan_cycles += outcome.makespan_cycles;
            self.energy_nj += outcome.energy_nj;
            if outcome.maintenance_error.is_some() {
                self.stats.maintenance_errors += 1;
                telemetry::counter("serve.maintenance_errors").inc();
            }
        }

        let dispatched = batch.len();
        for (req, req_spans) in batch.into_iter().zip(spans) {
            self.settle(req, &req_spans, &outcomes);
        }
        self.replica_maintenance(&outcomes);
        self.now += 1;
        dispatched
    }

    /// Reduces the raw per-member dispatch results to one outcome per
    /// stripe. Every `Ok` outcome folds into its replica's rolling
    /// digest, standby energy moves to the replica-side account, and the
    /// stripe settles from its active replica's outcome — unless the
    /// active faulted at the transport, in which case the first healthy
    /// standby is promoted *mid-tick* and the stripe settles from its
    /// already-computed, byte-identical outcome. A plain pool has one
    /// item per stripe (its primary's), and nothing to digest or
    /// promote. Exactly one outcome per stripe, exactly one response
    /// per request, in every case.
    fn reduce_outcomes(
        &mut self,
        work: &[WorkItem],
        raw: Vec<Result<ShardBatchOutcome, ServeError>>,
    ) -> Vec<Result<ShardBatchOutcome, ServeError>> {
        let mgr = &mut self.replicas;
        // Work items run stripe-major and each stripe's run starts with
        // its active replica (`dispatch_replicas`), so a run's first
        // item is the active and the items after it, up to the next
        // stripe, are its standbys.
        let mut raw = work.iter().map(|&(s, r, _)| (s, r)).zip(raw).peekable();
        let mut reduced = Vec::with_capacity(self.config.shards as usize);
        while let Some(((s, active), result)) = raw.next() {
            let mut entries = vec![(active, result)];
            while let Some(((_, r), result)) = raw.next_if(|&((t, _), _)| t == s) {
                entries.push((r, result));
            }
            for (r, result) in &entries {
                if let Ok(o) = result {
                    mgr.note_outcome(s, *r, o);
                }
            }
            let mut chosen = 0;
            if entries[0].1.is_err() {
                let healthy: Vec<usize> = entries[1..]
                    .iter()
                    .filter(|(_, result)| result.is_ok())
                    .map(|&(r, _)| r)
                    .collect();
                // The first healthy standby takes over (`healthy` lists
                // dispatched replicas only); with none left the stripe
                // fails honestly with the active's transport error.
                if let Some(promoted) = mgr.promote_after_fault(s, &healthy) {
                    telemetry::counter("serve.replica.failovers").inc();
                    chosen = entries
                        .iter()
                        .position(|&(r, _)| r == promoted)
                        .unwrap_or(chosen);
                }
            }
            let (_, outcome) = entries.remove(chosen);
            for (_, result) in &entries {
                if let Ok(o) = result {
                    mgr.add_standby_energy(o.energy_nj);
                }
            }
            reduced.push(outcome);
        }
        reduced
    }

    /// Post-settle replication upkeep, once per tick: roll the
    /// uncorrectable streak (planned failover past the threshold),
    /// audit digests and poll active-member health at epoch
    /// boundaries, and pump background rebuilds by one paced chunk.
    /// `outcomes` is empty on idle ticks (nothing dispatched).
    fn replica_maintenance(&mut self, outcomes: &[Result<ShardBatchOutcome, ServeError>]) {
        let shard_count = self.config.shards as usize;
        let epoch = self.replicas.epoch_due(self.now + 1);
        for s in 0..shard_count {
            let any_uncorrectable = outcomes.get(s).is_some_and(|o| {
                o.as_ref().is_ok_and(|o| {
                    o.outputs
                        .iter()
                        .any(|out| matches!(out, Err(ArchError::Uncorrectable { .. })))
                })
            });
            let mgr = &mut self.replicas;
            if mgr.note_active_uncorrectable(s, any_uncorrectable)
                && mgr.promote_planned(s).is_some()
            {
                telemetry::counter("serve.replica.planned_failovers").inc();
            }
            if epoch {
                let divergent = mgr.audit_epoch(s);
                for _ in &divergent {
                    telemetry::counter("serve.replica.divergences").inc();
                }
                let health = lock(&self.shards[mgr.active_member(s)]).health();
                if let Ok(health) = health {
                    if mgr.health_exceeded(&health) && mgr.promote_planned(s).is_some() {
                        telemetry::counter("serve.replica.planned_failovers").inc();
                    }
                }
            }
            self.pump_rebuild(s);
        }
    }

    /// Advances stripe `s`'s background rebuild by one tick: starts a
    /// snapshot transfer for the oldest retired replica, paces the
    /// in-flight transfer, and on completion restores the snapshot
    /// (chunked over the wire for remote members), replays the missed
    /// schedule log, and rejoins the member as a standby.
    fn pump_rebuild(&mut self, s: usize) {
        let mgr = &mut self.replicas;
        if mgr.rebuild_in_progress(s).is_some() {
            if let Some((replica, snapshot, pending)) = mgr.rebuild_step(s) {
                // A remote member's session may have died with the
                // fault that retired it — revive opens a fresh session
                // at the same slot before the snapshot lands.
                let mut member = lock(&self.shards[mgr.member(s, replica)]);
                let mut ok =
                    member.revive().is_ok() && member.restore_state(&snapshot).unwrap_or(false);
                let mut replayed = 0;
                if ok {
                    for (tick_s, ops) in &pending {
                        if member.execute(ops, *tick_s).is_err() {
                            ok = false;
                            break;
                        }
                        replayed += 1;
                    }
                }
                mgr.complete_rebuild(s, replica, ok, replayed);
                if ok {
                    telemetry::counter("serve.replica.rebuilds").inc();
                }
            }
        } else if let Some(replica) = mgr.needs_rebuild(s) {
            let active = mgr.active_member(s);
            // Snapshot the new active *after* the tick settled, so the
            // schedule log starts exactly at the snapshot's state. An
            // unavailable snapshot (transport hiccup) retries next tick.
            let snapshot = lock(&self.shards[active]).snapshot_state();
            if let Ok(Some(snapshot)) = snapshot {
                mgr.begin_rebuild(s, replica, snapshot);
                telemetry::counter("serve.replica.rebuilds_started").inc();
            }
        }
    }

    /// Runs ticks until every queued and retrying request has settled.
    pub fn drain(&mut self) {
        while !self.pending.is_empty() || !self.retries.is_empty() {
            self.step();
        }
    }

    /// Replays a trace: submits each event at its tick, stepping once
    /// per tick, then drains. Events must be sorted by `at_tick`.
    /// Rejected submissions are already logged as responses — the replay
    /// never aborts on them.
    pub fn run_trace(&mut self, events: &[crate::trace::TraceEvent]) {
        debug_assert!(
            events.windows(2).all(|w| w[0].at_tick <= w[1].at_tick),
            "trace events must be sorted by tick"
        );
        let mut idx = 0;
        while idx < events.len() {
            while idx < events.len() && events[idx].at_tick <= self.now {
                let ev = &events[idx];
                let _ = self.submit(ev.tenant, ev.op.clone(), ev.deadline_ticks);
                idx += 1;
            }
            self.step();
        }
        self.drain();
    }

    /// Reads a whole vector back, row-major, bypassing the request queue
    /// (a maintenance path for verification and tests).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownVector`] or a wrapped backend fault.
    pub fn read_vector(&mut self, name: &str) -> Result<Vec<Vec<u64>>, ServeError> {
        let placement = self.catalog.get(name)?.clone();
        let mut rows = Vec::with_capacity(placement.rows as usize);
        for i in 0..placement.rows {
            let (shard, local) = placement.locate(i, self.config.shards);
            debug_assert_eq!(
                self.map.owner(self.map.logical(shard, local)),
                shard,
                "placement and ownership map disagree"
            );
            let member = self.replicas.active_member(shard.0 as usize);
            let data = lock(&self.shards[member]).read_local_row(local.0)?;
            rows.push(data);
        }
        Ok(rows)
    }

    /// Summarises the run: counters, simulated throughput and latency
    /// percentiles, energy, and per-shard load.
    pub fn report(&self) -> ServiceReport {
        let latencies: Vec<u64> = self
            .responses
            .iter()
            .filter(|r| r.is_ok())
            .map(|r| r.latency_cycles)
            .collect();
        let sim_seconds = self.latency_model.seconds(self.sim_cycles);
        let row_ops: u64 = self.shard_load.iter().map(|l| l.row_ops).sum();
        ServiceReport {
            shards: self.config.shards,
            technology: self.config.technology.label(),
            tier: self.config.tier.label(),
            stats: self.stats,
            sim_cycles: self.sim_cycles,
            sim_seconds,
            throughput_rps: if sim_seconds > 0.0 {
                self.stats.completed as f64 / sim_seconds
            } else {
                0.0
            },
            row_ops_per_second: if sim_seconds > 0.0 {
                row_ops as f64 / sim_seconds
            } else {
                0.0
            },
            latency: LatencySummary::from_latencies(latencies),
            energy_mj: self.energy_nj * 1e-6,
            per_shard: self.shard_load.clone(),
            replica: self.replicas.replicated().then_some(*self.replicas.stats()),
        }
    }

    /// Moves retries whose backoff expired to the head of the pending
    /// queue, oldest request first.
    fn promote_due_retries(&mut self) {
        let now = self.now;
        // `retries` is kept sorted by (not_before, id); due entries form
        // a sorted prefix once partitioned.
        let mut due: Vec<PendingRequest> = Vec::new();
        let mut rest: Vec<PendingRequest> = Vec::new();
        for r in self.retries.drain(..) {
            if r.not_before <= now {
                due.push(r);
            } else {
                rest.push(r);
            }
        }
        self.retries = rest;
        for r in due.into_iter().rev() {
            self.pending.push_front(r);
        }
    }

    /// Pops up to `batch_window` requests, shedding any whose deadline
    /// already passed (they respond with `DeadlineExceeded`).
    ///
    /// The effective window tightens to the minimum of the windows of
    /// the tenants already in the batch: once a window-1 tenant's
    /// request is taken, the batch closes, and such a request never
    /// joins a batch that already has members — latency-sensitive
    /// tenants opt out of coalescing without stalling anyone else.
    fn collect_batch(&mut self) -> Vec<PendingRequest> {
        let mut window = self.config.batch_window;
        let mut batch = Vec::with_capacity(window);
        while let Some(req) = self.pending.pop_front() {
            if let Some(deadline) = req.deadline {
                if deadline < self.now {
                    self.stats.shed_deadline += 1;
                    telemetry::counter("serve.shed.deadline").inc();
                    self.respond(
                        &req,
                        Err(ServeError::DeadlineExceeded {
                            deadline_tick: deadline,
                            now_tick: self.now,
                        }),
                    );
                    continue;
                }
            }
            let proposed = window.min(self.config.window_for(req.tenant));
            if batch.len() >= proposed {
                self.pending.push_front(req);
                break;
            }
            window = proposed;
            batch.push(req);
        }
        batch
    }

    /// Catalog vectors `op` writes (cache-invalidation set).
    fn written_vectors(op: &AdmittedOp) -> impl Iterator<Item = VectorId> + '_ {
        let (dst, kernel) = match op {
            AdmittedOp::RowWise { dst, .. } | AdmittedOp::Write { dst, .. } => (Some(*dst), None),
            AdmittedOp::Read { .. } => (None, None),
            AdmittedOp::Kernel { plan, vectors, .. } => {
                (None, Some(plan.output_indices().map(|i| vectors[i])))
            }
        };
        dst.into_iter().chain(kernel.into_iter().flatten())
    }

    /// Appends the per-shard row-ops realising `req` on shard `s`.
    fn decompose_for_shard(&self, req: &PendingRequest, s: u32, out: &mut Vec<RowOp>) {
        let shards = self.config.shards;
        let placement = |v: VectorId| self.catalog.placement(v);
        let base = |v: VectorId| placement(v).shard_base[s as usize];
        match &req.op {
            &AdmittedOp::RowWise { row_op, a, b, dst } => {
                let (ra, rb, rd) = (base(a), base(b), base(dst));
                for k in 0..placement(a).rows_on_shard(ShardId(s), shards) {
                    out.push(row_op(RowId(ra + k), RowId(rb + k), RowId(rd + k)));
                }
            }
            AdmittedOp::Write { dst, words } => {
                let rd = base(*dst);
                let words_per_row = self.config.shard_geometry.row_words();
                for k in 0..placement(*dst).rows_on_shard(ShardId(s), shards) {
                    // Vector row `r` is the pattern rotated left by `r`.
                    let r = u64::from(s) + k * u64::from(shards);
                    let start = (r % words.len() as u64) as usize;
                    let data = words.iter().cycle().skip(start).take(words_per_row);
                    out.push(RowOp::Write {
                        row: RowId(rd + k),
                        data: data.copied().collect(),
                    });
                }
            }
            // A cache-hit read dispatches zero row-ops: the digest is
            // served straight from the cache at settlement.
            AdmittedOp::Read { .. } if req.cached_digest.is_some() => {}
            AdmittedOp::Read { src } => {
                let rs = base(*src);
                for k in 0..placement(*src).rows_on_shard(ShardId(s), shards) {
                    out.push(RowOp::Read { row: RowId(rs + k) });
                }
            }
            AdmittedOp::Kernel { plan, rows, vectors } => {
                let bases: Vec<u64> = vectors.iter().map(|&v| base(v)).collect();
                plan.emit_for_shard(s, shards, *rows, &bases, self.scratch_base, out);
            }
        }
    }

    /// Settles one dispatched request: success response, retry
    /// re-queue, or typed failure.
    fn settle(
        &mut self,
        mut req: PendingRequest,
        spans: &[(usize, usize)],
        outcomes: &[Result<ShardBatchOutcome, ServeError>],
    ) {
        // Each shard's slice of this request's outputs: its span of a
        // touched shard's outcome, empty for the rest. A transport
        // failure on any touched shard fails the request honestly: the
        // remote shard's post-failure state is unknown, so neither
        // success nor retry would be truthful. The first failing shard
        // in index order decides (determinism).
        let mut slices = Vec::with_capacity(spans.len());
        for (&(start, count), outcome) in spans.iter().zip(outcomes) {
            if count == 0 {
                slices.push(&[][..]);
                continue;
            }
            match outcome {
                Ok(o) => slices.push(&o.outputs[start..start + count]),
                Err(err) => {
                    self.stats.failed += 1;
                    self.stats.transport_errors += 1;
                    telemetry::counter("serve.failed").inc();
                    telemetry::counter("serve.transport_errors").inc();
                    self.respond(&req, Err(err.clone()));
                    return;
                }
            }
        }

        // First error in shard-then-op order decides the outcome.
        let first_error: Option<ArchError> = slices
            .iter()
            .flat_map(|slice| slice.iter())
            .find_map(|r| r.as_ref().err())
            .cloned();

        match first_error {
            None => {
                let payload = match (&req.op, req.cached_digest) {
                    (AdmittedOp::Read { .. }, Some((rows, digest))) => {
                        // Served from the digest cache: no row was read.
                        ResponsePayload::Digest { rows, digest }
                    }
                    (&AdmittedOp::Read { src }, None) => {
                        let placement = self.catalog.placement(src);
                        let shards = self.config.shards;
                        // The digest folds each row in vector order
                        // straight from its outcome. Every read output
                        // is `Ok(Data)` here: a local shard answers a
                        // read with its row, and `RemoteShard::finish`
                        // refuses a reply that does not.
                        let mut digest = FNV1A_OFFSET;
                        for i in 0..placement.rows {
                            let (shard, _) = placement.locate(i, shards);
                            let k = (i / u64::from(shards)) as usize;
                            let output = slices[shard.0 as usize].get(k);
                            if let Some(Ok(RowOpOutput::Data(row))) = output {
                                digest = fnv1a_fold_words(digest, row);
                            }
                        }
                        let rows = placement.rows;
                        if self.config.read_cache && req.cache_fill {
                            self.read_cache[src.index()] = Some((rows, digest));
                        }
                        ResponsePayload::Digest { rows, digest }
                    }
                    (AdmittedOp::Kernel { plan, rows, .. }, _) => {
                        let fused_ops = plan.vector_ops() * rows;
                        self.stats.kernels += 1;
                        telemetry::counter("serve.kernel.requests").inc();
                        telemetry::counter("serve.kernel.fused_ops").add(fused_ops);
                        telemetry::counter("serve.kernel.cse_hits").add(plan.cse_hits);
                        ResponsePayload::Kernel {
                            fused_ops,
                            cse_hits: plan.cse_hits,
                            scratch_slots: u64::from(plan.scratch_slots),
                        }
                    }
                    _ => ResponsePayload::Done,
                };
                self.stats.completed += 1;
                telemetry::counter("serve.completed").inc();
                telemetry::histogram("serve.latency_cycles")
                    .record(self.sim_cycles - req.submit_cycles);
                self.respond(&req, Ok(payload));
            }
            Some(err @ ArchError::Uncorrectable { .. })
                if req.attempts < self.config.max_retries =>
            {
                req.attempts += 1;
                let jitter = if self.config.retry_backoff_ticks > 0 {
                    derive_seed(
                        self.config.seed,
                        req.id.0.wrapping_mul(0x9e37).wrapping_add(u64::from(req.attempts)),
                    ) % self.config.retry_backoff_ticks
                } else {
                    0
                };
                req.not_before = self.now + 1 + jitter;
                self.stats.retries += 1;
                telemetry::counter("serve.retries").inc();
                let _ = err;
                // Queue accounting stays held: a retrying request still
                // occupies its shard slots, which is honest backpressure.
                let pos = self
                    .retries
                    .partition_point(|r| (r.not_before, r.id) <= (req.not_before, req.id));
                self.retries.insert(pos, req);
            }
            Some(err) => {
                self.stats.failed += 1;
                telemetry::counter("serve.failed").inc();
                let outcome = match err {
                    ArchError::Uncorrectable { .. } => ServeError::RetriesExhausted {
                        attempts: req.attempts + 1,
                        source: err,
                    },
                    other => ServeError::Backend { source: other },
                };
                self.respond(&req, Err(outcome));
            }
        }
    }

    /// Settles `req` for good: releases its queue accounting and logs
    /// its one response, completed now.
    fn respond(&mut self, req: &PendingRequest, outcome: Result<ResponsePayload, ServeError>) {
        for &s in &req.involved {
            self.queued_per_shard[s as usize] -= 1;
        }
        self.queued_per_tenant[req.tenant.0 as usize] -= 1;
        self.responses.push(ServeResponse {
            request: req.id,
            tenant: req.tenant,
            op: req.mnemonic,
            outcome,
            submitted_tick: req.submitted_tick,
            completed_tick: self.now,
            latency_cycles: self.sim_cycles - req.submit_cycles,
            retries: req.attempts,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::fnv1a_words;

    fn setup(shards: u32) -> BulkService {
        let mut svc = BulkService::new(ServiceConfig::small(shards)).unwrap();
        svc.create_vector("a", 8).unwrap();
        svc.create_vector("b", 8).unwrap();
        svc.create_vector("d", 8).unwrap();
        svc
    }

    fn write(svc: &mut BulkService, t: TenantId, dst: &str, words: Vec<u64>) {
        svc.submit(t, LogicalOp::Write { dst: dst.into(), words }, None)
            .unwrap();
    }

    #[test]
    fn logic_ops_compute_correct_vectors() {
        let mut svc = setup(2);
        let t = TenantId(0);
        write(&mut svc, t, "a", vec![0b1100]);
        write(&mut svc, t, "b", vec![0b1010]);
        for (op, want) in [
            (
                LogicalOp::And {
                    a: "a".into(),
                    b: "b".into(),
                    dst: "d".into(),
                },
                0b1000u64,
            ),
            (
                LogicalOp::Xor {
                    a: "a".into(),
                    b: "b".into(),
                    dst: "d".into(),
                },
                0b0110,
            ),
            (
                LogicalOp::Nor {
                    a: "a".into(),
                    b: "b".into(),
                    dst: "d".into(),
                },
                !0b1110,
            ),
        ] {
            svc.submit(t, op, None).unwrap();
            svc.drain();
            let rows = svc.read_vector("d").unwrap();
            assert_eq!(rows.len(), 8);
            // Write pattern is cyclic with one word, so every word of
            // every row holds the same operand value.
            for row in &rows {
                assert!(row.iter().all(|&w| w == want));
            }
        }
        assert!(svc.take_responses().iter().all(|r| r.is_ok()));
    }

    #[test]
    fn read_digest_matches_read_vector() {
        let mut svc = setup(2);
        let t = TenantId(1);
        write(&mut svc, t, "a", vec![1, 2, 3]);
        svc.submit(t, LogicalOp::Read { src: "a".into() }, None)
            .unwrap();
        svc.drain();
        let responses = svc.take_responses();
        let digest = match &responses[1].outcome {
            Ok(ResponsePayload::Digest { rows, digest }) => {
                assert_eq!(*rows, 8);
                *digest
            }
            other => panic!("expected digest, got {other:?}"),
        };
        let words: Vec<u64> = svc
            .read_vector("a")
            .unwrap()
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(digest, fnv1a_words(&words));
    }

    #[test]
    fn rejections_are_typed_and_logged() {
        let mut svc = setup(1);
        let t = TenantId(0);
        assert!(matches!(
            svc.submit(t, LogicalOp::Read { src: "nope".into() }, None),
            Err(ServeError::UnknownVector { .. })
        ));
        assert!(matches!(
            svc.submit(TenantId(99), LogicalOp::Read { src: "a".into() }, None),
            Err(ServeError::UnknownTenant { .. })
        ));
        assert!(matches!(
            svc.submit(
                t,
                LogicalOp::Write {
                    dst: "a".into(),
                    words: vec![]
                },
                None
            ),
            Err(ServeError::EmptyPattern)
        ));
        svc.create_vector("short", 3).unwrap();
        assert!(matches!(
            svc.submit(
                t,
                LogicalOp::And {
                    a: "a".into(),
                    b: "short".into(),
                    dst: "d".into()
                },
                None
            ),
            Err(ServeError::ShapeMismatch { .. })
        ));
        // Every rejection produced a response.
        assert_eq!(svc.responses().len(), 4);
        assert_eq!(svc.stats().rejected_invalid, 4);
    }

    #[test]
    fn quota_and_overload_backpressure() {
        let mut cfg = ServiceConfig::small(1);
        cfg.queue_depth = 4;
        cfg.tenants = 2;
        cfg.tenant_quota = Some(3);
        cfg.batch_window = 1;
        let mut svc = BulkService::new(cfg).unwrap();
        svc.create_vector("v", 4).unwrap();
        let op = || LogicalOp::Read { src: "v".into() };
        let (t0, t1) = (TenantId(0), TenantId(1));
        for _ in 0..3 {
            svc.submit(t0, op(), None).unwrap();
        }
        assert!(matches!(
            svc.submit(t0, op(), None),
            Err(ServeError::QuotaExceeded { .. })
        ));
        svc.submit(t1, op(), None).unwrap(); // queue now full at 4
        assert!(matches!(
            svc.submit(t1, op(), None),
            Err(ServeError::Overloaded { .. })
        ));
        svc.drain();
        // Accounting drains back to zero: a fresh submission is accepted.
        svc.submit(t1, op(), None).unwrap();
        svc.drain();
        let total = svc.responses().len() as u64;
        assert_eq!(total, svc.stats().submitted);
    }

    #[test]
    fn deadline_shedding_rejects_stale_requests() {
        let mut cfg = ServiceConfig::small(1);
        cfg.batch_window = 1;
        let mut svc = BulkService::new(cfg).unwrap();
        svc.create_vector("v", 4).unwrap();
        let t = TenantId(0);
        // Three requests, one-per-tick service, deadline 0 ticks: the
        // second and third expire before their turn.
        for _ in 0..3 {
            svc.submit(t, LogicalOp::Read { src: "v".into() }, Some(0))
                .unwrap();
        }
        svc.drain();
        assert_eq!(svc.stats().completed, 1);
        assert_eq!(svc.stats().shed_deadline, 2);
        assert!(svc
            .responses()
            .iter()
            .any(|r| matches!(r.outcome, Err(ServeError::DeadlineExceeded { .. }))));
    }

    #[test]
    fn multi_shard_equals_single_shard_results() {
        let mut one = setup(1);
        let mut four = setup(4);
        let t = TenantId(2);
        for svc in [&mut one, &mut four] {
            write(svc, t, "a", vec![0xDEAD, 0xBEEF]);
            write(svc, t, "b", vec![0x1234]);
            svc.submit(
                t,
                LogicalOp::Xnor {
                    a: "a".into(),
                    b: "b".into(),
                    dst: "d".into(),
                },
                None,
            )
            .unwrap();
            svc.drain();
        }
        assert_eq!(
            one.read_vector("d").unwrap(),
            four.read_vector("d").unwrap(),
            "sharding must not change results"
        );
        // More shards, shorter simulated time for the same work.
        assert!(four.sim_cycles() < one.sim_cycles());
    }

    #[test]
    fn protected_tier_serves_correctly() {
        let mut cfg = ServiceConfig::small(2);
        cfg.tier = ServiceTier::Protected {
            drift: DriftSpec::quiet(11),
            scrub_period_s: 0.5,
        };
        let mut svc = BulkService::new(cfg).unwrap();
        svc.create_vector("a", 6).unwrap();
        svc.create_vector("d", 6).unwrap();
        let t = TenantId(0);
        write(&mut svc, t, "a", vec![0xF0F0]);
        svc.submit(
            t,
            LogicalOp::Not {
                src: "a".into(),
                dst: "d".into(),
            },
            None,
        )
        .unwrap();
        svc.drain();
        assert_eq!(svc.stats().completed, 2);
        let rows = svc.read_vector("d").unwrap();
        assert!(rows.iter().all(|r| r.iter().all(|&w| w == !0xF0F0u64)));
    }

    #[test]
    fn report_summarises_the_run() {
        let mut svc = setup(2);
        let t = TenantId(0);
        write(&mut svc, t, "a", vec![1]);
        write(&mut svc, t, "b", vec![2]);
        svc.submit(
            t,
            LogicalOp::Or {
                a: "a".into(),
                b: "b".into(),
                dst: "d".into(),
            },
            None,
        )
        .unwrap();
        svc.drain();
        let report = svc.report();
        assert_eq!(report.shards, 2);
        assert_eq!(report.technology, "feram");
        assert_eq!(report.stats.completed, 3);
        assert!(report.sim_seconds > 0.0);
        assert!(report.throughput_rps > 0.0);
        assert!(report.latency.max >= report.latency.p50);
        assert!(report.energy_mj > 0.0);
        assert_eq!(report.per_shard.len(), 2);
        serde_json::to_string(&report).unwrap();
    }

    #[test]
    fn kernel_computes_fused_program_and_reports_counters() {
        let mut svc = setup(2);
        let t = TenantId(0);
        write(&mut svc, t, "a", vec![0b1100]);
        write(&mut svc, t, "b", vec![0b1010]);
        svc.submit(
            t,
            LogicalOp::Kernel {
                program: "t = a & b\nd = t ^ ~b".into(),
                bindings: vec![
                    ("a".into(), "a".into()),
                    ("b".into(), "b".into()),
                    ("d".into(), "d".into()),
                ],
            },
            None,
        )
        .unwrap();
        svc.drain();
        let responses = svc.take_responses();
        match &responses[2].outcome {
            Ok(ResponsePayload::Kernel {
                fused_ops,
                scratch_slots,
                ..
            }) => {
                // 6 gates (AND, NOT, and the XOR's four-NAND network)
                // × 8 rows, fused: every intermediate feeds the next
                // gate without a catalog round-trip, and d
                // direct-writes the network's final NAND.
                assert_eq!(*fused_ops, 48);
                assert!(*scratch_slots <= 3);
            }
            other => panic!("expected kernel payload, got {other:?}"),
        }
        assert_eq!(svc.stats().kernels, 1);
        let want = (0b1100u64 & 0b1010) ^ !0b1010u64;
        let rows = svc.read_vector("d").unwrap();
        assert!(rows.iter().all(|r| r.iter().all(|&w| w == want)));
    }

    #[test]
    fn kernel_rejections_are_typed() {
        let mut svc = setup(1);
        let t = TenantId(0);
        let kernel = |program: &str, bindings: Vec<(&str, &str)>| LogicalOp::Kernel {
            program: program.into(),
            bindings: bindings
                .into_iter()
                .map(|(d, v)| (d.to_owned(), v.to_owned()))
                .collect(),
        };
        assert!(matches!(
            svc.submit(t, kernel("d = (a", vec![("a", "a"), ("d", "d")]), None),
            Err(ServeError::KernelParse { .. })
        ));
        assert!(matches!(
            svc.submit(t, kernel("d = ghost", vec![("d", "d")]), None),
            Err(ServeError::KernelPlan { .. })
        ));
        assert!(matches!(
            svc.submit(t, kernel("d = a", vec![("a", "nope"), ("d", "d")]), None),
            Err(ServeError::UnknownVector { .. })
        ));
        // The XOR network peaks at two live scratch slots; 8-row
        // vectors on one shard then need 16 scratch rows — more than a
        // 4-row budget.
        let mut cfg = ServiceConfig::small(1);
        cfg.kernel_scratch_rows = 4;
        let mut tight = BulkService::new(cfg).unwrap();
        tight.create_vector("a", 8).unwrap();
        tight.create_vector("b", 8).unwrap();
        tight.create_vector("d", 8).unwrap();
        tight.create_vector("e", 8).unwrap();
        assert!(matches!(
            tight.submit(
                t,
                kernel(
                    "t = a ^ b\nd = t & a\ne = t | b",
                    vec![("a", "a"), ("b", "b"), ("d", "d"), ("e", "e")],
                ),
                None
            ),
            Err(ServeError::ScratchExhausted {
                needed_rows: 16,
                budget_rows: 4,
            })
        ));
    }

    #[test]
    fn read_cache_serves_repeats_and_invalidates_on_write() {
        let mut svc = setup(2);
        let t = TenantId(0);
        let read = || LogicalOp::Read { src: "a".into() };
        write(&mut svc, t, "a", vec![5, 6]);
        for _ in 0..3 {
            svc.submit(t, read(), None).unwrap();
            svc.drain();
        }
        // First read misses and fills; the next two hit.
        assert_eq!(svc.stats().cache_hits, 2);
        assert_eq!(svc.stats().cache_misses, 1);
        write(&mut svc, t, "a", vec![7]);
        svc.submit(t, read(), None).unwrap();
        svc.drain();
        assert_eq!(svc.stats().cache_invalidations, 1);
        assert_eq!(svc.stats().cache_misses, 2);
        // Every response carries the digest of the vector as it was at
        // that point — cached or not.
        let digests: Vec<u64> = svc
            .take_responses()
            .iter()
            .filter_map(|r| match &r.outcome {
                Ok(ResponsePayload::Digest { digest, .. }) => Some(*digest),
                _ => None,
            })
            .collect();
        assert_eq!(digests.len(), 4);
        assert_eq!(digests[0], digests[1]);
        assert_eq!(digests[1], digests[2]);
        assert_ne!(digests[2], digests[3], "write must invalidate");
    }

    #[test]
    fn cache_respects_same_batch_write_ordering() {
        // Read then write coalesced into ONE batch: the read must not
        // populate the cache with the pre-write digest.
        let mut svc = setup(1);
        let t = TenantId(0);
        write(&mut svc, t, "a", vec![1]);
        svc.drain();
        svc.submit(t, LogicalOp::Read { src: "a".into() }, None)
            .unwrap();
        svc.submit(
            t,
            LogicalOp::Write {
                dst: "a".into(),
                words: vec![2],
            },
            None,
        )
        .unwrap();
        svc.drain(); // both in the same window-8 batch
        svc.submit(t, LogicalOp::Read { src: "a".into() }, None)
            .unwrap();
        svc.drain();
        // The trailing read must miss (no stale fill) and see the new
        // contents.
        assert_eq!(svc.stats().cache_hits, 0);
        assert_eq!(svc.stats().cache_misses, 2);
        let responses = svc.take_responses();
        let digest = |i: usize| match &responses[i].outcome {
            Ok(ResponsePayload::Digest { digest, .. }) => *digest,
            other => panic!("expected digest, got {other:?}"),
        };
        assert_ne!(digest(1), digest(3));
    }

    #[test]
    fn disabled_cache_never_hits() {
        let mut cfg = ServiceConfig::small(1);
        cfg.read_cache = false;
        let mut svc = BulkService::new(cfg).unwrap();
        svc.create_vector("a", 4).unwrap();
        let t = TenantId(0);
        write(&mut svc, t, "a", vec![9]);
        for _ in 0..2 {
            svc.submit(t, LogicalOp::Read { src: "a".into() }, None)
                .unwrap();
            svc.drain();
        }
        assert_eq!(svc.stats().cache_hits, 0);
        assert_eq!(svc.stats().cache_misses, 0, "accounting off while disabled");
        assert!(svc.take_responses().iter().all(|r| r.is_ok()));
    }

    #[test]
    fn per_tenant_window_override_prevents_coalescing() {
        let mut cfg = ServiceConfig::small(1);
        cfg.tenant_batch_window = vec![(1, 1)];
        let mut svc = BulkService::new(cfg).unwrap();
        svc.create_vector("v", 4).unwrap();
        let read = || LogicalOp::Read { src: "v".into() };
        // 3 bulk-tenant requests, 1 latency-tenant, 3 bulk again: the
        // override forces three batches (3 / 1 / 3) where the default
        // window of 8 would take all seven at once.
        for _ in 0..3 {
            svc.submit(TenantId(0), read(), None).unwrap();
        }
        svc.submit(TenantId(1), read(), None).unwrap();
        for _ in 0..3 {
            svc.submit(TenantId(0), read(), None).unwrap();
        }
        svc.drain();
        assert_eq!(svc.stats().batches, 3);
        assert_eq!(svc.stats().completed, 7);
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        let mut cfg = ServiceConfig::small(1);
        cfg.shards = 0;
        assert!(matches!(
            BulkService::new(cfg),
            Err(ServeError::InvalidConfig { .. })
        ));
        let mut cfg = ServiceConfig::small(1);
        cfg.tenant_batch_window = vec![(99, 1)];
        assert!(matches!(
            BulkService::new(cfg),
            Err(ServeError::InvalidConfig { .. })
        ));
        let mut cfg = ServiceConfig::small(1);
        cfg.tenant_batch_window = vec![(0, 0)];
        assert!(matches!(
            BulkService::new(cfg),
            Err(ServeError::InvalidConfig { .. })
        ));
        let mut cfg = ServiceConfig::small(1);
        cfg.kernel_scratch_rows = u64::MAX;
        assert!(matches!(
            BulkService::new(cfg),
            Err(ServeError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn kernel_plan_cache_skips_recompilation() {
        let mut svc = setup(2);
        let t = TenantId(0);
        write(&mut svc, t, "a", vec![0b1100]);
        write(&mut svc, t, "b", vec![0b1010]);
        let kernel = || LogicalOp::Kernel {
            program: "d = a & ~b".into(),
            bindings: vec![
                ("a".into(), "a".into()),
                ("b".into(), "b".into()),
                ("d".into(), "d".into()),
            ],
        };
        for _ in 0..3 {
            svc.submit(t, kernel(), None).unwrap();
            svc.drain();
        }
        // First submission compiles and fills; the next two hit.
        assert_eq!(svc.stats().plan_cache_hits, 2);
        let rows = svc.read_vector("d").unwrap();
        let want = 0b1100u64 & !0b1010u64;
        assert!(rows.iter().all(|r| r.iter().all(|&w| w == want)));
        // A different binding shape is a different plan: no false hit.
        svc.create_vector("e", 8).unwrap();
        svc.submit(
            t,
            LogicalOp::Kernel {
                program: "d = a & ~b".into(),
                bindings: vec![
                    ("a".into(), "b".into()),
                    ("b".into(), "a".into()),
                    ("d".into(), "e".into()),
                ],
            },
            None,
        )
        .unwrap();
        svc.drain();
        assert_eq!(svc.stats().plan_cache_hits, 2);
        // A different program text against the same bindings is a
        // different plan: it compiles, misses, and runs its own program.
        svc.submit(
            t,
            LogicalOp::Kernel {
                program: "d = a | b".into(),
                bindings: vec![
                    ("a".into(), "a".into()),
                    ("b".into(), "b".into()),
                    ("d".into(), "d".into()),
                ],
            },
            None,
        )
        .unwrap();
        svc.drain();
        assert_eq!(svc.stats().plan_cache_hits, 2);
        let rows = svc.read_vector("d").unwrap();
        assert!(rows.iter().all(|r| r.iter().all(|&w| w == 0b1100 | 0b1010)));
    }

    #[test]
    fn decomposition_matches_a_row_by_row_oracle() {
        // 7-row vectors on 3 shards stripe unevenly (3/2/2 rows), and the
        // three operands sit at different bases on every shard, so a
        // misrouted operand or a miscounted stripe shows.
        let shards = 3u32;
        let mut cfg = ServiceConfig::small(shards);
        cfg.tenant_quota = Some(32);
        let mut svc = BulkService::new(cfg).unwrap();
        for name in ["a", "b", "d"] {
            svc.create_vector(name, 7).unwrap();
        }
        let words_per_row = svc.config.shard_geometry.row_words();
        let pattern = [0x11u64, 0x22, 0x33];
        let decomposed = |svc: &mut BulkService, op: LogicalOp| -> Vec<Vec<RowOp>> {
            svc.submit(TenantId(0), op, None).unwrap();
            let batch = svc.collect_batch();
            assert_eq!(batch.len(), 1);
            (0..shards)
                .map(|s| {
                    let mut out = Vec::new();
                    svc.decompose_for_shard(&batch[0], s, &mut out);
                    out
                })
                .collect()
        };
        // Row `i`'s op from the rows `locate` gives each named vector.
        let oracle =
            |svc: &BulkService, names: &[&str], row_op: &dyn Fn(u64, &[RowId]) -> RowOp| {
                let mut lists = vec![Vec::new(); shards as usize];
                for i in 0..7 {
                    let located: Vec<(ShardId, RowId)> = names
                        .iter()
                        .map(|n| svc.catalog.get(n).unwrap().locate(i, shards))
                        .collect();
                    let shard = located[0].0;
                    assert!(located.iter().all(|&(s, _)| s == shard));
                    let rows: Vec<RowId> = located.iter().map(|&(_, r)| r).collect();
                    lists[shard.0 as usize].push(row_op(i, &rows));
                }
                lists
            };
        type Unary = fn(String, String) -> LogicalOp;
        type UnaryRow = fn(RowId, RowId) -> RowOp;
        let unary: [(Unary, UnaryRow); 2] = [
            (|src, dst| LogicalOp::Not { src, dst }, |src, dst| RowOp::Not { src, dst }),
            (|src, dst| LogicalOp::Copy { src, dst }, |src, dst| RowOp::Copy { src, dst }),
        ];
        for (op, row_op) in unary {
            let want = oracle(&svc, &["b", "d"], &|_, r| row_op(r[0], r[1]));
            assert_eq!(decomposed(&mut svc, op("b".into(), "d".into())), want);
        }
        type Binary = fn(String, String, String) -> LogicalOp;
        type BinaryRow = fn(RowId, RowId, RowId) -> RowOp;
        let binary: [(Binary, BinaryRow); 6] = [
            (
                |a, b, dst| LogicalOp::And { a, b, dst },
                |a, b, dst| RowOp::And { a, b, dst },
            ),
            (
                |a, b, dst| LogicalOp::Or { a, b, dst },
                |a, b, dst| RowOp::Or { a, b, dst },
            ),
            (
                |a, b, dst| LogicalOp::Xor { a, b, dst },
                |a, b, dst| RowOp::Xor { a, b, dst },
            ),
            (
                |a, b, dst| LogicalOp::Nand { a, b, dst },
                |a, b, dst| RowOp::Nand { a, b, dst },
            ),
            (
                |a, b, dst| LogicalOp::Nor { a, b, dst },
                |a, b, dst| RowOp::Nor { a, b, dst },
            ),
            (
                |a, b, dst| LogicalOp::Xnor { a, b, dst },
                |a, b, dst| RowOp::Xnor { a, b, dst },
            ),
        ];
        for (op, row_op) in binary {
            let want = oracle(&svc, &["d", "a", "b"], &|_, r| row_op(r[0], r[1], r[2]));
            let got = decomposed(&mut svc, op("d".into(), "a".into(), "b".into()));
            assert_eq!(got, want);
        }
        let want = oracle(&svc, &["a"], &|i, r| RowOp::Write {
            row: r[0],
            data: (0..words_per_row)
                .map(|j| pattern[(j + i as usize) % pattern.len()])
                .collect(),
        });
        let write = LogicalOp::Write {
            dst: "a".into(),
            words: pattern.to_vec(),
        };
        assert_eq!(decomposed(&mut svc, write), want);
        let want = oracle(&svc, &["b"], &|_, r| RowOp::Read { row: r[0] });
        assert_eq!(
            decomposed(&mut svc, LogicalOp::Read { src: "b".into() }),
            want
        );

        let program = "t = a ^ b\nd = ~(t & a) | b";
        let bindings: Vec<(String, String)> = [("a", "b"), ("b", "d"), ("d", "a")]
            .iter()
            .map(|&(dsl, v)| (dsl.to_owned(), v.to_owned()))
            .collect();
        let plan = KernelPlan::compile(&Program::parse(program).unwrap(), &bindings).unwrap();
        let want: Vec<Vec<RowOp>> = (0..shards)
            .map(|s| {
                let bases: Vec<u64> = plan
                    .vector_names()
                    .map(|v| svc.catalog.get(v).unwrap().shard_base[s as usize])
                    .collect();
                let mut out = Vec::new();
                plan.emit_for_shard(s, shards, 7, &bases, svc.scratch_base, &mut out);
                out
            })
            .collect();
        let kernel = LogicalOp::Kernel {
            program: program.into(),
            bindings,
        };
        assert_eq!(decomposed(&mut svc, kernel), want);
    }

    #[test]
    fn write_rotates_a_multi_word_pattern_per_row() {
        // Row `r` holds `words[(j + r) % len]` at word `j`; 7 rows on 3
        // shards stripe unevenly.
        let mut svc = BulkService::new(ServiceConfig::small(3)).unwrap();
        svc.create_vector("v", 7).unwrap();
        let words = vec![0x11, 0x22, 0x33];
        write(&mut svc, TenantId(0), "v", words.clone());
        svc.drain();
        let rows = svc.read_vector("v").unwrap();
        assert_eq!(rows.len(), 7);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), svc.config.shard_geometry.row_words());
            for (j, &w) in row.iter().enumerate() {
                assert_eq!(w, words[(j + r) % words.len()], "row {r}, word {j}");
            }
        }
    }

    #[test]
    fn remote_placements_are_validated() {
        let mut cfg = ServiceConfig::small(2);
        cfg.remote_shards = vec![(7, "127.0.0.1:1".into())];
        assert!(matches!(
            BulkService::new(cfg),
            Err(ServeError::InvalidConfig { .. })
        ));
        let mut cfg = ServiceConfig::small(2);
        cfg.remote_shards = vec![(0, "127.0.0.1:1".into()), (0, "127.0.0.1:2".into())];
        assert!(matches!(
            BulkService::new(cfg),
            Err(ServeError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn unreachable_remote_shard_fails_the_build_with_transport() {
        // Bind-then-drop to get a dead port.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let mut cfg = ServiceConfig::small(1);
        cfg.remote_shards = vec![(0, format!("127.0.0.1:{port}"))];
        cfg.remote_connect_attempts = 2;
        cfg.remote_connect_backoff_ms = 1;
        assert!(matches!(
            BulkService::new(cfg),
            Err(ServeError::Transport { .. })
        ));
    }

    #[test]
    fn remote_shard_service_is_byte_identical_to_local() {
        use crate::remote::ShardHost;

        let host = ShardHost::bind("127.0.0.1:0").unwrap();
        let addr = host.local_addr().to_string();
        let server = std::thread::spawn(move || host.serve_once().unwrap());

        let drive = |mut svc: BulkService| -> (String, Vec<Vec<u64>>) {
            svc.create_vector("a", 8).unwrap();
            svc.create_vector("b", 8).unwrap();
            svc.create_vector("d", 8).unwrap();
            let t = TenantId(0);
            write(&mut svc, t, "a", vec![0xDEAD, 0xBEEF]);
            write(&mut svc, t, "b", vec![0x1234]);
            svc.submit(
                t,
                LogicalOp::Xor {
                    a: "a".into(),
                    b: "b".into(),
                    dst: "d".into(),
                },
                None,
            )
            .unwrap();
            svc.submit(t, LogicalOp::Read { src: "d".into() }, None)
                .unwrap();
            svc.drain();
            let log = serde_json::to_string(&svc.take_responses()).unwrap();
            (log, svc.read_vector("d").unwrap())
        };

        let mut remote_cfg = ServiceConfig::small(2);
        remote_cfg.remote_shards = vec![(1, addr)];
        let (remote_log, remote_rows) = drive(BulkService::new(remote_cfg).unwrap());
        let (local_log, local_rows) = drive(BulkService::new(ServiceConfig::small(2)).unwrap());
        assert_eq!(remote_log, local_log, "response logs must be byte-identical");
        assert_eq!(remote_rows, local_rows);
        server.join().unwrap();
    }

    #[test]
    fn latency_summary_percentiles() {
        let s = LatencySummary::from_latencies((1..=100).collect());
        assert_eq!(s.p50, 50);
        assert_eq!(s.p95, 95);
        assert_eq!(s.p99, 99);
        assert_eq!(s.max, 100);
        let empty = LatencySummary::from_latencies(vec![]);
        assert_eq!(empty.max, 0);
    }

    /// Drives the same small campaign through `svc` and returns the
    /// serialised response log, the final contents of `d`, and the
    /// simulated cycles the campaign took.
    fn campaign(mut svc: BulkService) -> (String, Vec<Vec<u64>>, u64) {
        svc.create_vector("a", 8).unwrap();
        svc.create_vector("b", 8).unwrap();
        svc.create_vector("d", 8).unwrap();
        let t = TenantId(0);
        write(&mut svc, t, "a", vec![0xFACE, 0xCAFE]);
        write(&mut svc, t, "b", vec![0xF0F0]);
        for op in [
            LogicalOp::Xor { a: "a".into(), b: "b".into(), dst: "d".into() },
            LogicalOp::Nand { a: "d".into(), b: "b".into(), dst: "d".into() },
            LogicalOp::Read { src: "d".into() },
        ] {
            svc.submit(t, op, None).unwrap();
        }
        svc.drain();
        let log = serde_json::to_string(&svc.take_responses()).unwrap();
        let rows = svc.read_vector("d").unwrap();
        (log, rows, svc.sim_cycles())
    }

    #[test]
    fn replication_on_is_byte_identical_to_replication_off() {
        // Standbys are exact copies and never influence settled
        // responses — the response log and readback must match the
        // unreplicated service bit for bit, on both tiers — and never
        // extend the settled makespan, so simulated time matches too.
        for tier in [
            ServiceTier::Baseline,
            ServiceTier::Protected {
                drift: DriftSpec::quiet(17),
                scrub_period_s: 0.25,
            },
        ] {
            let mut plain = ServiceConfig::small(2);
            plain.tier = tier.clone();
            let mut replicated = plain.clone();
            replicated.replication = Some(ReplicationConfig {
                standbys: 2,
                ..ReplicationConfig::default()
            });
            let (log_off, rows_off, cycles_off) = campaign(BulkService::new(plain).unwrap());
            let (log_on, rows_on, cycles_on) = campaign(BulkService::new(replicated).unwrap());
            assert_eq!(log_on, log_off, "replication must be invisible in the log");
            assert_eq!(rows_on, rows_off);
            assert_eq!(cycles_on, cycles_off, "standbys must not extend simulated time");
        }
    }

    #[test]
    fn replicated_report_accounts_standby_energy_separately() {
        let mut cfg = ServiceConfig::small(2);
        cfg.replication = Some(ReplicationConfig::default());
        let svc_cfg = cfg.clone();
        let mut svc = BulkService::new(svc_cfg).unwrap();
        svc.create_vector("a", 4).unwrap();
        write(&mut svc, TenantId(0), "a", vec![7]);
        svc.drain();
        let report = svc.report();
        let replica = report.replica.expect("replication configured");
        assert!(
            replica.standby_energy_nj > 0.0,
            "the standby executed the same batch and its energy lands here"
        );
        assert_eq!(replica.failovers, 0);
        // The settled energy matches an unreplicated run (checked
        // byte-for-byte by the identity test); standby energy rides
        // outside it.
        assert!(report.energy_mj > 0.0);
    }

    #[test]
    fn replication_epoch_audit_passes_on_identical_replicas() {
        let mut cfg = ServiceConfig::small(2);
        cfg.tenant_quota = Some(32);
        cfg.replication = Some(ReplicationConfig {
            epoch_ticks: 2,
            ..ReplicationConfig::default()
        });
        let mut svc = BulkService::new(cfg).unwrap();
        svc.create_vector("a", 8).unwrap();
        for i in 0..12 {
            write(&mut svc, TenantId(0), "a", vec![i]);
        }
        svc.drain();
        let replica = svc.report().replica.unwrap();
        assert_eq!(replica.divergences, 0, "identical replicas never diverge");
        assert_eq!(replica.planned_failovers, 0);
    }

    #[test]
    fn invalid_replication_configs_are_typed_errors() {
        let cases: Vec<(&str, ReplicationConfig)> = vec![
            ("zero standbys", ReplicationConfig { standbys: 0, ..ReplicationConfig::default() }),
            ("zero epoch", ReplicationConfig { epoch_ticks: 0, ..ReplicationConfig::default() }),
            (
                "zero chunk",
                ReplicationConfig { rebuild_chunk_bytes: 0, ..ReplicationConfig::default() },
            ),
            (
                "stripe out of range",
                ReplicationConfig {
                    remote_standbys: vec![(9, 1, "127.0.0.1:1".into())],
                    ..ReplicationConfig::default()
                },
            ),
            (
                "standby index out of range",
                ReplicationConfig {
                    remote_standbys: vec![(0, 2, "127.0.0.1:1".into())],
                    ..ReplicationConfig::default()
                },
            ),
            (
                "duplicate placement",
                ReplicationConfig {
                    remote_standbys: vec![
                        (0, 1, "127.0.0.1:1".into()),
                        (0, 1, "127.0.0.1:2".into()),
                    ],
                    ..ReplicationConfig::default()
                },
            ),
        ];
        for (label, repl) in cases {
            let mut cfg = ServiceConfig::small(2);
            cfg.replication = Some(repl);
            assert!(
                matches!(BulkService::new(cfg), Err(ServeError::InvalidConfig { .. })),
                "{label} must be rejected at build time"
            );
        }
    }
}
