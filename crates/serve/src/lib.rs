//! # felim-serve — the bulk-bitwise request service
//!
//! Everything below this crate computes; this crate *serves*. It is the
//! front door the workspace previously lacked: a multi-tenant request
//! service over a pool of sharded [`BulkBackend`](felim_arch::BulkBackend)
//! instances (2T-nC FeRAM or the Ambit DRAM baseline, optionally wrapped
//! in a [`ReliabilityController`](felim_arch::ReliabilityController)),
//! with the controls a production memory service needs:
//!
//! * **Sharding & routing** ([`catalog`]) — clients address *named
//!   bit-vectors*; vector rows stripe across shards
//!   ([`ShardMap`](felim_arch::shard::ShardMap) row-range ownership), so
//!   every logical op splits into same-shard batches of equal size.
//! * **Batching** ([`shard`]) — same-shard commands coalesce into
//!   [`RowOp`](felim_arch::batch::RowOp) batches dispatched through
//!   [`execute_batch`](felim_arch::batch::execute_batch), amortising
//!   per-op dispatch and letting the backends' subarray-parallel
//!   makespan clock price each batch as a makespan rather than a
//!   serial sum.
//! * **Kernel fusion** ([`dsl`], [`plan`]) — a [`LogicalOp::Kernel`]
//!   request carries a multi-statement expression program
//!   (`d = (a & b) ^ ~c`) compiled server-side into one fused per-shard
//!   schedule: common subexpressions deduplicate, `~` fuses into the
//!   array's inverting gates, and temporaries live in reserved scratch
//!   rows instead of round-tripping through the catalog. A
//!   content-addressed read cache keyed on [`fnv1a_words`] digests
//!   skips backend row reads for vectors unchanged since their last
//!   read (`serve.cache.*` telemetry).
//! * **Concurrency with determinism** ([`service`]) — shards execute on
//!   a persistent [`ExecPool`](felim_exec::ExecPool); results reduce in
//!   shard-index order and responses in request order, so identical
//!   request logs produce **byte-identical response logs at any worker
//!   count** (pinned by `tests/service.rs`).
//! * **Admission control & graceful degradation** — bounded per-shard
//!   queues with typed [`ServeError::Overloaded`] backpressure,
//!   per-tenant fair-share quotas, deadline-based shedding, and
//!   retry-with-deterministic-jitter for
//!   [`ArchError::Uncorrectable`] escalations. Every submission gets exactly one typed response —
//!   the service never drops a request silently.
//!
//! ## Quickstart
//!
//! ```
//! use felim_serve::{BulkService, LogicalOp, ServiceConfig, TenantId};
//!
//! # fn main() -> Result<(), felim_serve::ServeError> {
//! let mut service = BulkService::new(ServiceConfig::small(2))?;
//! service.create_vector("a", 8)?;
//! service.create_vector("b", 8)?;
//! service.create_vector("d", 8)?;
//!
//! let t = TenantId(0);
//! service.submit(t, LogicalOp::Write { dst: "a".into(), words: vec![0b1100] }, None)?;
//! service.submit(t, LogicalOp::Write { dst: "b".into(), words: vec![0b1010] }, None)?;
//! service.submit(t, LogicalOp::Nand { a: "a".into(), b: "b".into(), dst: "d".into() }, None)?;
//! service.drain();
//!
//! let responses = service.take_responses();
//! assert_eq!(responses.len(), 3);
//! assert!(responses.iter().all(|r| r.is_ok()));
//! assert_eq!(service.read_vector("d")?[0][0], !0b1000u64);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod catalog;
pub mod chaos;
pub mod dsl;
pub mod plan;
pub mod remote;
pub mod replica;
pub mod request;
pub mod service;
pub mod shard;
pub mod trace;
pub mod wire;

pub use catalog::{Catalog, VectorPlacement};
pub use chaos::{ChaosAction, ChaosProxy, ChaosSpec};
pub use dsl::{KernelParseError, Program};
pub use plan::{KernelPlan, KernelPlanError};
pub use remote::{
    ConnectRetry, PoolMember, RemoteShard, ShardHost, ShardHostChild, SlotRegistry,
    SNAPSHOT_CHUNK_LEN,
};
pub use replica::{ReplicaStats, ReplicationConfig};
pub use request::{fnv1a_words, LogicalOp, RequestId, ResponsePayload, ServeResponse, TenantId};
pub use service::{BulkService, LatencySummary, ServiceConfig, ServiceReport, ServiceTier};
pub use shard::Technology;
pub use trace::{generate_trace, TraceEvent, TraceSpec};
pub use wire::{Frame, TransportErrorKind, WireError, MAX_FRAME, WIRE_VERSION};

use felim_arch::shard::ShardId;
use felim_arch::ArchError;
use serde::Serialize;

/// Typed failure of a service submission or request.
///
/// Every rejected or failed request carries exactly one of these in its
/// [`ServeResponse`]; admission-time rejections also surface as the
/// `Err` of [`BulkService::submit`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum ServeError {
    /// A bounded shard queue is full — backpressure; retry later.
    Overloaded {
        /// The saturated shard.
        shard: ShardId,
        /// Its queue depth at rejection (== the configured bound).
        depth: usize,
    },
    /// The tenant has reached its fair-share quota of queued requests.
    QuotaExceeded {
        /// The over-quota tenant.
        tenant: TenantId,
        /// Requests it already has queued.
        queued: usize,
        /// Its quota.
        quota: usize,
    },
    /// The request's deadline passed before it reached a batch; it was
    /// shed rather than executed late.
    DeadlineExceeded {
        /// The absolute deadline tick.
        deadline_tick: u64,
        /// The tick at which it was shed.
        now_tick: u64,
    },
    /// No vector of this name is registered.
    UnknownVector {
        /// The unknown name.
        vector: String,
    },
    /// A vector of this name already exists.
    VectorExists {
        /// The duplicate name.
        vector: String,
    },
    /// Vectors in one op must have identical row counts.
    ShapeMismatch {
        /// First vector.
        left: String,
        /// Its rows.
        left_rows: u64,
        /// Second vector.
        right: String,
        /// Its rows.
        right_rows: u64,
    },
    /// Zero-row vectors cannot be created.
    EmptyVector {
        /// The offending name.
        vector: String,
    },
    /// A `Write` needs a non-empty word pattern.
    EmptyPattern,
    /// A shard's data region cannot hold the requested stripe.
    CapacityExhausted {
        /// The full shard.
        shard: ShardId,
        /// Rows the stripe needed there.
        requested_rows: u64,
        /// Rows still free there.
        free_rows: u64,
    },
    /// The tenant id is outside the configured tenant set.
    UnknownTenant {
        /// The offending tenant.
        tenant: TenantId,
        /// Tenants configured.
        tenants: u32,
    },
    /// A kernel request's program text failed to parse.
    KernelParse {
        /// Byte offset of the failure in the program text.
        position: usize,
        /// What the parser expected.
        message: String,
    },
    /// A kernel parsed but could not be planned against its bindings
    /// (unbound name, duplicate binding, or no outputs).
    KernelPlan {
        /// The planner's diagnosis.
        message: String,
    },
    /// A kernel's temporaries need more reserved scratch rows per shard
    /// than the service reserves.
    ScratchExhausted {
        /// Scratch rows the plan needs on the widest stripe.
        needed_rows: u64,
        /// Rows the configuration reserves per shard.
        budget_rows: u64,
    },
    /// The service configuration is self-inconsistent and the service
    /// was not built.
    InvalidConfig {
        /// What is wrong with it.
        message: String,
    },
    /// An [`ArchError::Uncorrectable`] escalation survived every
    /// jittered retry.
    RetriesExhausted {
        /// Attempts made (initial try + retries).
        attempts: u32,
        /// The final escalation.
        source: ArchError,
    },
    /// The backend failed with a non-retryable fault.
    Backend {
        /// The underlying fault.
        source: ArchError,
    },
    /// A remote shard's transport failed: torn frame, short read,
    /// corrupt payload, version mismatch, or peer loss. The request is
    /// failed honestly — never silently dropped or retried against a
    /// shard whose state is unknown.
    Transport {
        /// The peer address (`host:port`) of the failing shard host.
        peer: String,
        /// The transport failure class.
        kind: wire::TransportErrorKind,
        /// Human-readable diagnosis from the wire layer.
        detail: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { shard, depth } => {
                write!(f, "{shard} queue full at depth {depth} — back off and retry")
            }
            ServeError::QuotaExceeded {
                tenant,
                queued,
                quota,
            } => write!(f, "{tenant} at fair-share quota ({queued}/{quota} queued)"),
            ServeError::DeadlineExceeded {
                deadline_tick,
                now_tick,
            } => write!(f, "deadline tick {deadline_tick} passed (now {now_tick}); shed"),
            ServeError::UnknownVector { vector } => write!(f, "unknown vector {vector:?}"),
            ServeError::VectorExists { vector } => write!(f, "vector {vector:?} already exists"),
            ServeError::ShapeMismatch {
                left,
                left_rows,
                right,
                right_rows,
            } => write!(
                f,
                "vectors {left:?} ({left_rows} rows) and {right:?} ({right_rows} rows) differ"
            ),
            ServeError::EmptyVector { vector } => {
                write!(f, "vector {vector:?} must have at least one row")
            }
            ServeError::EmptyPattern => write!(f, "write pattern must be non-empty"),
            ServeError::CapacityExhausted {
                shard,
                requested_rows,
                free_rows,
            } => write!(
                f,
                "{shard} cannot hold {requested_rows} more rows ({free_rows} free)"
            ),
            ServeError::UnknownTenant { tenant, tenants } => {
                write!(f, "{tenant} outside the configured {tenants} tenants")
            }
            ServeError::KernelParse { position, message } => {
                write!(f, "kernel parse error at byte {position}: {message}")
            }
            ServeError::KernelPlan { message } => write!(f, "kernel plan error: {message}"),
            ServeError::ScratchExhausted {
                needed_rows,
                budget_rows,
            } => write!(
                f,
                "kernel needs {needed_rows} scratch rows per shard, budget is {budget_rows}"
            ),
            ServeError::InvalidConfig { message } => {
                write!(f, "invalid service configuration: {message}")
            }
            ServeError::RetriesExhausted { attempts, source } => {
                write!(f, "uncorrectable after {attempts} attempts: {source}")
            }
            ServeError::Backend { source } => write!(f, "backend fault: {source}"),
            ServeError::Transport { peer, kind, detail } => {
                write!(f, "transport failure ({kind}) on shard host {peer}: {detail}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::RetriesExhausted { source, .. } | ServeError::Backend { source } => {
                Some(source)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        let cases: Vec<ServeError> = vec![
            ServeError::Overloaded {
                shard: ShardId(1),
                depth: 32,
            },
            ServeError::QuotaExceeded {
                tenant: TenantId(0),
                queued: 8,
                quota: 8,
            },
            ServeError::DeadlineExceeded {
                deadline_tick: 5,
                now_tick: 9,
            },
            ServeError::UnknownVector { vector: "v".into() },
            ServeError::VectorExists { vector: "v".into() },
            ServeError::ShapeMismatch {
                left: "a".into(),
                left_rows: 4,
                right: "b".into(),
                right_rows: 5,
            },
            ServeError::EmptyVector { vector: "v".into() },
            ServeError::EmptyPattern,
            ServeError::CapacityExhausted {
                shard: ShardId(0),
                requested_rows: 10,
                free_rows: 2,
            },
            ServeError::UnknownTenant {
                tenant: TenantId(9),
                tenants: 4,
            },
            ServeError::KernelParse {
                position: 7,
                message: "expected `)`".into(),
            },
            ServeError::KernelPlan {
                message: "kernel reads unbound name `x`".into(),
            },
            ServeError::ScratchExhausted {
                needed_rows: 96,
                budget_rows: 64,
            },
            ServeError::InvalidConfig {
                message: "need at least one shard".into(),
            },
            ServeError::RetriesExhausted {
                attempts: 4,
                source: ArchError::Uncorrectable {
                    row: 3,
                    words: vec![1],
                },
            },
            ServeError::Backend {
                source: ArchError::RowOutOfRange { row: 99, rows: 10 },
            },
            ServeError::Transport {
                peer: "127.0.0.1:4801".into(),
                kind: wire::TransportErrorKind::ShortRead,
                detail: "torn frame: eof after 3/8 bytes of payload".into(),
            },
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
            let _ = serde_json::to_string(&e).unwrap();
        }
    }

    #[test]
    fn error_source_chains_to_arch() {
        use std::error::Error as _;
        let e = ServeError::Backend {
            source: ArchError::RowOutOfRange { row: 1, rows: 1 },
        };
        assert!(e.source().is_some());
        assert!(ServeError::EmptyPattern.source().is_none());
    }
}
