//! The service's request/response vocabulary.
//!
//! Clients speak in *named bit-vectors* — contiguous logical arrays of
//! memory rows registered in the [`Catalog`](crate::catalog::Catalog) —
//! and submit [`LogicalOp`]s over them: the eight bulk-bitwise logic
//! operations plus host read/write. The service assigns every accepted
//! submission a monotonically increasing [`RequestId`] and eventually
//! emits exactly one [`ServeResponse`] for it; rejected submissions get
//! their response immediately. The stream of responses, serialised in
//! completion order, is the *response log* — the artifact the
//! determinism suite compares byte-for-byte across worker counts.

use serde::Serialize;

/// Identifier of one tenant (client account) of the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// Identifier of one accepted request — the submission sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// A logical bulk-bitwise request over named bit-vectors.
///
/// All vectors named by one op must have the same row count (checked at
/// submission). `Write` fills row `r` of the destination with the given
/// word pattern cyclically rotated by `r`, so a short pattern describes
/// a full deterministic payload without shipping megabytes through the
/// trace.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum LogicalOp {
    /// `dst = NOT src`, row-wise.
    Not {
        /// Source vector name.
        src: String,
        /// Destination vector name.
        dst: String,
    },
    /// `dst = a AND b`, row-wise.
    And {
        /// First operand vector.
        a: String,
        /// Second operand vector.
        b: String,
        /// Destination vector.
        dst: String,
    },
    /// `dst = a OR b`, row-wise.
    Or {
        /// First operand vector.
        a: String,
        /// Second operand vector.
        b: String,
        /// Destination vector.
        dst: String,
    },
    /// `dst = a XOR b`, row-wise.
    Xor {
        /// First operand vector.
        a: String,
        /// Second operand vector.
        b: String,
        /// Destination vector.
        dst: String,
    },
    /// `dst = NOT (a AND b)`, row-wise.
    Nand {
        /// First operand vector.
        a: String,
        /// Second operand vector.
        b: String,
        /// Destination vector.
        dst: String,
    },
    /// `dst = NOT (a OR b)`, row-wise.
    Nor {
        /// First operand vector.
        a: String,
        /// Second operand vector.
        b: String,
        /// Destination vector.
        dst: String,
    },
    /// `dst = NOT (a XOR b)`, row-wise.
    Xnor {
        /// First operand vector.
        a: String,
        /// Second operand vector.
        b: String,
        /// Destination vector.
        dst: String,
    },
    /// Copies `src` into `dst`, row-wise.
    Copy {
        /// Source vector name.
        src: String,
        /// Destination vector name.
        dst: String,
    },
    /// Host write: fills `dst` from a cyclic word pattern (row `r` gets
    /// `words[(j + r) % words.len()]` at word `j`).
    Write {
        /// Destination vector name.
        dst: String,
        /// Non-empty word pattern.
        words: Vec<u64>,
    },
    /// Host read of the whole vector; the response carries its FNV-1a
    /// digest (and the data is available via
    /// [`BulkService::read_vector`](crate::service::BulkService::read_vector)).
    Read {
        /// Source vector name.
        src: String,
    },
    /// A multi-statement kernel: an expression-DSL program compiled
    /// server-side into one fused per-shard schedule (see
    /// [`dsl`](crate::dsl) for the grammar and [`plan`](crate::plan) for
    /// the compiler). `bindings` maps the program's free names to
    /// catalog vector names; every bound vector must share one row
    /// count. Temporaries never touch the catalog — they live in
    /// reserved scratch rows for the duration of the batch.
    Kernel {
        /// DSL program text (statements `name = expr`, separated by
        /// newlines or `;`).
        program: String,
        /// `(dsl_name, vector_name)` pairs binding program names to
        /// catalog vectors. Names read by the program must be bound;
        /// bound names assigned by the program are written back.
        bindings: Vec<(String, String)>,
    },
}

impl LogicalOp {
    /// Short mnemonic for telemetry labels and trace displays.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            LogicalOp::Not { .. } => "not",
            LogicalOp::And { .. } => "and",
            LogicalOp::Or { .. } => "or",
            LogicalOp::Xor { .. } => "xor",
            LogicalOp::Nand { .. } => "nand",
            LogicalOp::Nor { .. } => "nor",
            LogicalOp::Xnor { .. } => "xnor",
            LogicalOp::Copy { .. } => "copy",
            LogicalOp::Write { .. } => "write",
            LogicalOp::Read { .. } => "read",
            LogicalOp::Kernel { .. } => "kernel",
        }
    }
}

/// Payload of a successfully served request.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum ResponsePayload {
    /// The op completed; no host-visible data.
    Done,
    /// A `Read` completed: vector length in rows and the FNV-1a digest
    /// of its contents in row order.
    Digest {
        /// Rows read.
        rows: u64,
        /// FNV-1a 64-bit digest over all words, row-major.
        digest: u64,
    },
    /// A `Kernel` completed; carries the compiler's fusion counters so
    /// clients (and the bench harness) can see what the plan saved.
    Kernel {
        /// Row-level ops actually scheduled across all shards.
        fused_ops: u64,
        /// DAG nodes eliminated by common-subexpression reuse.
        cse_hits: u64,
        /// Scratch row slots the plan needed per shard stripe.
        scratch_slots: u64,
    },
}

/// The terminal record for one submission — exactly one per request,
/// whether it completed, failed, or was rejected at admission.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServeResponse {
    /// The submission's sequence number.
    pub request: RequestId,
    /// The submitting tenant.
    pub tenant: TenantId,
    /// Op mnemonic (the full op is in the trace, keyed by id).
    pub op: &'static str,
    /// The outcome: payload or typed error.
    pub outcome: Result<ResponsePayload, crate::ServeError>,
    /// Virtual tick at which the request was submitted.
    pub submitted_tick: u64,
    /// Virtual tick at which this response was produced.
    pub completed_tick: u64,
    /// Service latency in modelled memory cycles: the simulated time
    /// between admission and completion (queue wait + execution, using
    /// each tick's slowest-shard makespan as the tick duration). Zero
    /// for admission-time rejections.
    pub latency_cycles: u64,
    /// Retry attempts consumed (0 = served first try).
    pub retries: u32,
}

impl ServeResponse {
    /// Did the request complete successfully?
    pub fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }
}

/// FNV-1a 64-bit over a word slice (row-major vector digests).
///
/// Re-exported from the workspace-shared implementation in
/// [`felim_exec::hash`] so the service, the transient memoizer, and the
/// read cache all key on the exact same digest.
pub use felim_exec::hash::fnv1a_words;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonics_name_the_op() {
        let op = LogicalOp::Nand {
            a: "x".into(),
            b: "y".into(),
            dst: "z".into(),
        };
        assert_eq!(op.mnemonic(), "nand");
        let w = LogicalOp::Write {
            dst: "x".into(),
            words: vec![1],
        };
        assert_eq!(w.mnemonic(), "write");
        let k = LogicalOp::Kernel {
            program: "d = a & b".into(),
            bindings: vec![
                ("a".into(), "va".into()),
                ("b".into(), "vb".into()),
                ("d".into(), "vd".into()),
            ],
        };
        assert_eq!(k.mnemonic(), "kernel");
    }

    #[test]
    fn fnv_digest_is_stable_and_sensitive() {
        let a = fnv1a_words(&[1, 2, 3]);
        assert_eq!(a, fnv1a_words(&[1, 2, 3]));
        assert_ne!(a, fnv1a_words(&[1, 2, 4]));
        assert_ne!(a, fnv1a_words(&[2, 1, 3]));
    }

    #[test]
    fn ids_display() {
        assert_eq!(TenantId(2).to_string(), "tenant#2");
        assert_eq!(RequestId(9).to_string(), "req#9");
    }
}
