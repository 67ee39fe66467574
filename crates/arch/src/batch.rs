//! Batched row-operation dispatch: one entry point per *batch* instead
//! of one trait call per operation.
//!
//! The service layer coalesces compatible same-shard commands and hands
//! them to [`execute_batch`] as a slice of [`RowOp`]s. The batch runs
//! front to back on one backend; each op succeeds or fails
//! independently (a fault in one request of a coalesced batch must not
//! poison its neighbours), and the report carries the per-op outcomes
//! in input order plus the cycle/energy deltas for the whole batch —
//! the numbers the service layer turns into latency accounting.
//!
//! ```
//! use felim_arch::batch::{execute_batch, RowOp, RowOpOutput};
//! use felim_arch::{BulkBackend, FeramBackend, RowId};
//!
//! let mut mem = FeramBackend::tiny();
//! let words = mem.geometry().row_words();
//! let report = execute_batch(
//!     &mut mem,
//!     &[
//!         RowOp::Write { row: RowId(0), data: vec![0b1100; words] },
//!         RowOp::Write { row: RowId(1), data: vec![0b1010; words] },
//!         RowOp::Nand { a: RowId(0), b: RowId(1), dst: RowId(2) },
//!         RowOp::Read { row: RowId(2) },
//!     ],
//! );
//! assert_eq!(report.outputs.len(), 4);
//! match report.outputs[3].as_ref().unwrap() {
//!     RowOpOutput::Data(data) => assert_eq!(data[0], !0b1000u64),
//!     RowOpOutput::Done => panic!("read must return data"),
//! }
//! assert!(report.cycles > 0 && report.energy_nj > 0.0);
//! ```

use crate::geometry::RowId;
use crate::snapshot::{put_u64, put_words, take_run, take_u64, take_words};
use crate::{ArchError, BulkBackend};
use felim_telemetry::CachedCounter;
use serde::Serialize;

/// One row-level operation inside a batch. Rows are backend-local
/// physical addresses — the caller (the shard router) has already
/// resolved logical addresses to the owning backend.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum RowOp {
    /// `dst = NOT src`.
    Not {
        /// Source row.
        src: RowId,
        /// Destination row.
        dst: RowId,
    },
    /// `dst = a AND b`.
    And {
        /// First operand.
        a: RowId,
        /// Second operand.
        b: RowId,
        /// Destination row.
        dst: RowId,
    },
    /// `dst = a OR b`.
    Or {
        /// First operand.
        a: RowId,
        /// Second operand.
        b: RowId,
        /// Destination row.
        dst: RowId,
    },
    /// `dst = a XOR b`.
    Xor {
        /// First operand.
        a: RowId,
        /// Second operand.
        b: RowId,
        /// Destination row.
        dst: RowId,
    },
    /// `dst = NOT (a AND b)`.
    Nand {
        /// First operand.
        a: RowId,
        /// Second operand.
        b: RowId,
        /// Destination row.
        dst: RowId,
    },
    /// `dst = NOT (a OR b)`.
    Nor {
        /// First operand.
        a: RowId,
        /// Second operand.
        b: RowId,
        /// Destination row.
        dst: RowId,
    },
    /// `dst = NOT (a XOR b)`.
    Xnor {
        /// First operand.
        a: RowId,
        /// Second operand.
        b: RowId,
        /// Destination row.
        dst: RowId,
    },
    /// Copies `src` into `dst`.
    Copy {
        /// Source row.
        src: RowId,
        /// Destination row.
        dst: RowId,
    },
    /// Host write of a full row.
    Write {
        /// Destination row.
        row: RowId,
        /// Exactly `row_words()` words.
        data: Vec<u64>,
    },
    /// Host read of a full row.
    Read {
        /// Source row.
        row: RowId,
    },
}

impl RowOp {
    /// Short operation mnemonic (telemetry labels, error messages).
    pub fn mnemonic(&self) -> &'static str {
        match self {
            RowOp::Not { .. } => "not",
            RowOp::And { .. } => "and",
            RowOp::Or { .. } => "or",
            RowOp::Xor { .. } => "xor",
            RowOp::Nand { .. } => "nand",
            RowOp::Nor { .. } => "nor",
            RowOp::Xnor { .. } => "xnor",
            RowOp::Copy { .. } => "copy",
            RowOp::Write { .. } => "write",
            RowOp::Read { .. } => "read",
        }
    }
}

/// Successful result of one [`RowOp`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum RowOpOutput {
    /// The op completed; it produces no host-visible data.
    Done,
    /// The op completed and read this row back to the host.
    Data(Vec<u64>),
}

/// Outcome of one batch: per-op results in input order plus the
/// aggregate cost of the whole batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// One entry per input op, in input order. Failed ops carry their
    /// typed [`ArchError`]; later ops still run.
    pub outputs: Vec<Result<RowOpOutput, ArchError>>,
    /// Cycles charged by the backend across the batch (serial model).
    pub cycles: u64,
    /// Energy charged across the batch, nJ.
    pub energy_nj: f64,
}

impl BatchReport {
    /// Number of ops that failed.
    pub fn failures(&self) -> usize {
        self.outputs.iter().filter(|o| o.is_err()).count()
    }
}

/// Runs `ops` front to back on `backend`, isolating per-op failures,
/// and reports per-op outcomes plus the batch's cycle/energy deltas.
pub fn execute_batch(backend: &mut dyn BulkBackend, ops: &[RowOp]) -> BatchReport {
    let cycles_before = backend.stats().total_cycles();
    let energy_before = backend.stats().total_energy_nj();
    let outputs = ops
        .iter()
        .map(|op| match op {
            RowOp::Not { src, dst } => backend.not(*src, *dst).map(|()| RowOpOutput::Done),
            RowOp::And { a, b, dst } => backend.and(*a, *b, *dst).map(|()| RowOpOutput::Done),
            RowOp::Or { a, b, dst } => backend.or(*a, *b, *dst).map(|()| RowOpOutput::Done),
            RowOp::Xor { a, b, dst } => backend.xor(*a, *b, *dst).map(|()| RowOpOutput::Done),
            RowOp::Nand { a, b, dst } => backend.nand(*a, *b, *dst).map(|()| RowOpOutput::Done),
            RowOp::Nor { a, b, dst } => backend.nor(*a, *b, *dst).map(|()| RowOpOutput::Done),
            RowOp::Xnor { a, b, dst } => backend.xnor(*a, *b, *dst).map(|()| RowOpOutput::Done),
            RowOp::Copy { src, dst } => backend.copy(*src, *dst).map(|()| RowOpOutput::Done),
            RowOp::Write { row, data } => backend.write_row(*row, data).map(|()| RowOpOutput::Done),
            RowOp::Read { row } => backend.read_row(*row).map(RowOpOutput::Data),
        })
        .collect();
    static DISPATCHES: CachedCounter = CachedCounter::new("arch.batch.dispatches");
    static OPS: CachedCounter = CachedCounter::new("arch.batch.ops");
    DISPATCHES.inc();
    OPS.add(ops.len() as u64);
    BatchReport {
        outputs,
        cycles: backend.stats().total_cycles() - cycles_before,
        energy_nj: backend.stats().total_energy_nj() - energy_before,
    }
}

// ---------------------------------------------------------------------
// Wire codecs
//
// The multi-node shard transport (`felim-serve`'s `wire` module) ships
// batches of `RowOp`s and their outcomes between processes as
// length-prefixed binary frames. The types that cross the link encode
// themselves here — next to their definitions — so a new variant cannot
// be added without the codec (and its round-trip property test)
// noticing. They use the little-endian primitives of `crate::snapshot`,
// like every other codec in the workspace; `f64` travels as its IEEE bit
// pattern, so replies are bit-identical across the link.
// ---------------------------------------------------------------------

impl RowOp {
    /// Appends this op's wire encoding (tag byte + operand rows) to
    /// `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let two = |out: &mut Vec<u8>, tag: u8, a: RowId, b: RowId| {
            out.push(tag);
            put_u64(out, a.0);
            put_u64(out, b.0);
        };
        let three = |out: &mut Vec<u8>, tag: u8, a: RowId, b: RowId, d: RowId| {
            out.push(tag);
            put_u64(out, a.0);
            put_u64(out, b.0);
            put_u64(out, d.0);
        };
        match self {
            RowOp::Not { src, dst } => two(out, 0, *src, *dst),
            RowOp::And { a, b, dst } => three(out, 1, *a, *b, *dst),
            RowOp::Or { a, b, dst } => three(out, 2, *a, *b, *dst),
            RowOp::Xor { a, b, dst } => three(out, 3, *a, *b, *dst),
            RowOp::Nand { a, b, dst } => three(out, 4, *a, *b, *dst),
            RowOp::Nor { a, b, dst } => three(out, 5, *a, *b, *dst),
            RowOp::Xnor { a, b, dst } => three(out, 6, *a, *b, *dst),
            RowOp::Copy { src, dst } => two(out, 7, *src, *dst),
            RowOp::Write { row, data } => {
                out.push(8);
                put_u64(out, row.0);
                put_words(out, data);
            }
            RowOp::Read { row } => {
                out.push(9);
                put_u64(out, row.0);
            }
        }
    }

    /// Decodes one op from `buf` at `pos`, advancing `pos` past it.
    /// Returns `None` on a truncated buffer or an unknown tag — the
    /// caller maps that to a typed transport error.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Option<RowOp> {
        let tag = *buf.get(*pos)?;
        *pos += 1;
        let mut row = || take_u64(buf, pos).map(RowId);
        Some(match tag {
            0 => RowOp::Not {
                src: row()?,
                dst: row()?,
            },
            1 => RowOp::And {
                a: row()?,
                b: row()?,
                dst: row()?,
            },
            2 => RowOp::Or {
                a: row()?,
                b: row()?,
                dst: row()?,
            },
            3 => RowOp::Xor {
                a: row()?,
                b: row()?,
                dst: row()?,
            },
            4 => RowOp::Nand {
                a: row()?,
                b: row()?,
                dst: row()?,
            },
            5 => RowOp::Nor {
                a: row()?,
                b: row()?,
                dst: row()?,
            },
            6 => RowOp::Xnor {
                a: row()?,
                b: row()?,
                dst: row()?,
            },
            7 => RowOp::Copy {
                src: row()?,
                dst: row()?,
            },
            8 => RowOp::Write {
                row: RowId(take_u64(buf, pos)?),
                data: take_words(buf, pos)?,
            },
            9 => RowOp::Read {
                row: RowId(take_u64(buf, pos)?),
            },
            _ => return None,
        })
    }
}

impl RowOpOutput {
    /// Appends this output's wire encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RowOpOutput::Done => out.push(0),
            RowOpOutput::Data(words) => {
                out.push(1);
                put_words(out, words);
            }
        }
    }

    /// Decodes one output from `buf` at `pos`. `None` on malformed
    /// input.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Option<RowOpOutput> {
        let tag = *buf.get(*pos)?;
        *pos += 1;
        Some(match tag {
            0 => RowOpOutput::Done,
            1 => RowOpOutput::Data(take_words(buf, pos)?),
            _ => return None,
        })
    }
}

impl ArchError {
    /// Appends this error's wire encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ArchError::RowOutOfRange { row, rows } => {
                out.push(0);
                put_u64(out, *row);
                put_u64(out, *rows);
            }
            ArchError::RowSizeMismatch { expected, got } => {
                out.push(1);
                put_u64(out, *expected as u64);
                put_u64(out, *got as u64);
            }
            ArchError::UncorrectableWrite { row, attempts } => {
                out.push(2);
                put_u64(out, *row);
                put_u64(out, u64::from(*attempts));
            }
            ArchError::SparesExhausted { row } => {
                out.push(3);
                put_u64(out, *row);
            }
            ArchError::Uncorrectable { row, words } => {
                out.push(4);
                put_u64(out, *row);
                put_u64(out, words.len() as u64);
                for &w in words {
                    put_u64(out, w as u64);
                }
            }
        }
    }

    /// Decodes one error from `buf` at `pos`. `None` on malformed
    /// input.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Option<ArchError> {
        let tag = *buf.get(*pos)?;
        *pos += 1;
        Some(match tag {
            0 => ArchError::RowOutOfRange {
                row: take_u64(buf, pos)?,
                rows: take_u64(buf, pos)?,
            },
            1 => ArchError::RowSizeMismatch {
                expected: take_u64(buf, pos)? as usize,
                got: take_u64(buf, pos)? as usize,
            },
            2 => ArchError::UncorrectableWrite {
                row: take_u64(buf, pos)?,
                attempts: u32::try_from(take_u64(buf, pos)?).ok()?,
            },
            3 => ArchError::SparesExhausted {
                row: take_u64(buf, pos)?,
            },
            4 => {
                let row = take_u64(buf, pos)?;
                let words = take_run(buf, pos, 8, |buf, pos| {
                    take_u64(buf, pos).map(|w| w as usize)
                })?;
                ArchError::Uncorrectable { row, words }
            }
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feram_backend::FeramBackend;

    #[test]
    fn batch_matches_individual_calls() {
        let words = FeramBackend::tiny().geometry().row_words();
        let a = vec![0xF0F0_F0F0u64; words];
        let b = vec![0x0FF0_0FF0u64; words];

        let mut serial = FeramBackend::tiny();
        serial.write_row(RowId(0), &a).unwrap();
        serial.write_row(RowId(1), &b).unwrap();
        serial.xor(RowId(0), RowId(1), RowId(2)).unwrap();
        let want = serial.read_row(RowId(2)).unwrap();

        let mut batched = FeramBackend::tiny();
        let report = execute_batch(
            &mut batched,
            &[
                RowOp::Write {
                    row: RowId(0),
                    data: a,
                },
                RowOp::Write {
                    row: RowId(1),
                    data: b,
                },
                RowOp::Xor {
                    a: RowId(0),
                    b: RowId(1),
                    dst: RowId(2),
                },
                RowOp::Read { row: RowId(2) },
            ],
        );
        assert_eq!(report.failures(), 0);
        assert_eq!(
            report.outputs[3],
            Ok(RowOpOutput::Data(want)),
            "batched result must match serial"
        );
        assert_eq!(report.cycles, serial.stats().total_cycles());
        assert!((report.energy_nj - serial.stats().total_energy_nj()).abs() < 1e-9);
    }

    #[test]
    fn op_failures_are_isolated() {
        let mut mem = FeramBackend::tiny();
        let words = mem.geometry().row_words();
        let rows = mem.geometry().total_rows();
        let report = execute_batch(
            &mut mem,
            &[
                RowOp::Write {
                    row: RowId(0),
                    data: vec![7; words],
                },
                // Out of range: fails without aborting the batch.
                RowOp::Read { row: RowId(rows) },
                RowOp::Read { row: RowId(0) },
            ],
        );
        assert_eq!(report.failures(), 1);
        assert!(matches!(
            report.outputs[1],
            Err(ArchError::RowOutOfRange { .. })
        ));
        assert_eq!(report.outputs[2], Ok(RowOpOutput::Data(vec![7; words])));
    }

    #[test]
    fn every_op_kind_dispatches() {
        let mut mem = FeramBackend::tiny();
        let words = mem.geometry().row_words();
        let av = 0b1100u64;
        let bv = 0b1010u64;
        let ops = vec![
            RowOp::Write {
                row: RowId(0),
                data: vec![av; words],
            },
            RowOp::Write {
                row: RowId(1),
                data: vec![bv; words],
            },
            RowOp::Not {
                src: RowId(0),
                dst: RowId(2),
            },
            RowOp::And {
                a: RowId(0),
                b: RowId(1),
                dst: RowId(3),
            },
            RowOp::Or {
                a: RowId(0),
                b: RowId(1),
                dst: RowId(4),
            },
            RowOp::Xor {
                a: RowId(0),
                b: RowId(1),
                dst: RowId(5),
            },
            RowOp::Nand {
                a: RowId(0),
                b: RowId(1),
                dst: RowId(6),
            },
            RowOp::Nor {
                a: RowId(0),
                b: RowId(1),
                dst: RowId(7),
            },
            RowOp::Xnor {
                a: RowId(0),
                b: RowId(1),
                dst: RowId(8),
            },
            RowOp::Copy {
                src: RowId(3),
                dst: RowId(9),
            },
        ];
        let report = execute_batch(&mut mem, &ops);
        assert_eq!(report.failures(), 0, "{:?}", report.outputs);
        let expect: [(u64, u64); 8] = [
            (2, !av),
            (3, av & bv),
            (4, av | bv),
            (5, av ^ bv),
            (6, !(av & bv)),
            (7, !(av | bv)),
            (8, !(av ^ bv)),
            (9, av & bv),
        ];
        for (row, want) in expect {
            assert_eq!(mem.read_row(RowId(row)).unwrap()[0], want, "row {row}");
        }
        assert_eq!(ops[0].mnemonic(), "write");
        assert_eq!(ops[9].mnemonic(), "copy");
    }

    /// One op of every kind, for codec coverage.
    fn one_of_each() -> Vec<RowOp> {
        let (a, b, d) = (RowId(3), RowId(5), RowId(9));
        vec![
            RowOp::Not { src: a, dst: d },
            RowOp::And { a, b, dst: d },
            RowOp::Or { a, b, dst: d },
            RowOp::Xor { a, b, dst: d },
            RowOp::Nand { a, b, dst: d },
            RowOp::Nor { a, b, dst: d },
            RowOp::Xnor { a, b, dst: d },
            RowOp::Copy { src: b, dst: a },
            RowOp::Write {
                row: RowId(7),
                data: vec![u64::MAX, 0, 0xDEAD_BEEF],
            },
            RowOp::Read { row: RowId(11) },
        ]
    }

    #[test]
    fn row_op_codec_round_trips_every_variant() {
        let mut buf = Vec::new();
        let ops = one_of_each();
        for op in &ops {
            op.encode(&mut buf);
        }
        let mut pos = 0;
        for op in &ops {
            assert_eq!(RowOp::decode(&buf, &mut pos).as_ref(), Some(op));
        }
        assert_eq!(pos, buf.len(), "codec must consume exactly what it wrote");
    }

    #[test]
    fn outcome_and_error_codecs_round_trip() {
        let outputs = [RowOpOutput::Done, RowOpOutput::Data(vec![1, 2, u64::MAX])];
        let errors = [
            ArchError::RowOutOfRange { row: 9, rows: 4 },
            ArchError::RowSizeMismatch {
                expected: 128,
                got: 3,
            },
            ArchError::UncorrectableWrite {
                row: 1,
                attempts: 4,
            },
            ArchError::SparesExhausted { row: 2 },
            ArchError::Uncorrectable {
                row: 3,
                words: vec![0, 17],
            },
        ];
        let mut buf = Vec::new();
        for o in &outputs {
            o.encode(&mut buf);
        }
        for e in &errors {
            e.encode(&mut buf);
        }
        let mut pos = 0;
        for o in &outputs {
            assert_eq!(RowOpOutput::decode(&buf, &mut pos).as_ref(), Some(o));
        }
        for e in &errors {
            assert_eq!(ArchError::decode(&buf, &mut pos).as_ref(), Some(e));
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn codecs_reject_truncation_and_bad_tags_without_panicking() {
        let mut buf = Vec::new();
        RowOp::Write {
            row: RowId(1),
            data: vec![7; 16],
        }
        .encode(&mut buf);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(
                RowOp::decode(&buf[..cut], &mut pos).is_none(),
                "truncation at {cut} must be rejected"
            );
        }
        let mut pos = 0;
        assert!(RowOp::decode(&[0xFF], &mut pos).is_none(), "unknown tag");
        // A corrupt word count larger than the remaining payload must be
        // rejected before any allocation is attempted.
        let mut evil = vec![8u8]; // Write tag
        evil.extend_from_slice(&0u64.to_le_bytes()); // row
        evil.extend_from_slice(&u64::MAX.to_le_bytes()); // absurd count
        let mut pos = 0;
        assert!(RowOp::decode(&evil, &mut pos).is_none());
    }
}
