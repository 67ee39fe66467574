//! The shard transport wire format: length-prefixed, CRC-32-guarded
//! binary frames over any [`Read`]/[`Write`] byte stream.
//!
//! PR 7/8 stop at one process: every shard is a `Mutex<Shard>` in the
//! service's own address space. This module is the first half of the
//! multi-node story (the other half is [`remote`](crate::remote)): a
//! vendored-only frame codec that carries the existing
//! [`RowOp`] batch schedules and their [`ShardBatchOutcome`]s across a
//! `std::net::TcpStream` — no async runtime, no serde-derived wire
//! structs, every integer little-endian and every `f64` moved as its
//! IEEE-754 bit pattern so outcomes are **bit-identical** on both ends.
//!
//! # Frame layout
//!
//! ```text
//! ┌────────────┬──────────────────────────────┬─────────────┐
//! │ len: u32LE │ payload = tag: u8 ++ body    │ crc32: u32LE│
//! └────────────┴──────────────────────────────┴─────────────┘
//! ```
//!
//! * `len` counts the payload only (tag + body), capped at
//!   [`MAX_FRAME`]; a larger prefix is rejected **before** any
//!   allocation ([`TransportErrorKind::Oversize`]).
//! * `crc32` is the IEEE CRC-32 of the payload. A mismatch — one
//!   flipped bit anywhere in flight — is
//!   [`TransportErrorKind::Corrupt`], never a mis-decoded frame.
//! * EOF cleanly **between** frames is [`TransportErrorKind::PeerLost`]
//!   (the peer went away); EOF **inside** a frame is
//!   [`TransportErrorKind::ShortRead`] (a torn frame). The distinction
//!   matters operationally: the first is a dead shardd, the second a
//!   cut mid-sentence.
//!
//! # Cost per byte
//!
//! Nearly every byte on the wire is row payload, so the codec runs at
//! memory speed and no byte of it changed to get there:
//!
//! * [`crc32`] folds the payload in four streams: each 2 KiB round is
//!   four 512-byte blocks whose registers step together through the
//!   slice-by-8 step (eight table lookups per eight bytes), so their
//!   table-load chains overlap. The CRC register is linear in its start
//!   value, so the round combines the four exactly through "append `n`
//!   zero bytes" shift tables built at compile time; the CRC value is
//!   the one a bytewise loop gives. Bytes past the last whole round go
//!   through the slice-by-8 step one register at a time.
//! * Row words move through `felim_arch::snapshot::{put_words,
//!   take_words}` as one reservation and one bounds-checked slice.
//! * A session keeps one send and one receive buffer for its lifetime
//!   (`Frame::write_with`, `Frame::read_with`): a frame is encoded
//!   behind a reserved length slot, patched, CRC'd and written with one
//!   `write_all`, and a received frame lands in the buffer the last one
//!   used. A client's batch is encoded straight from the borrowed
//!   schedule, never copied into an owned [`Frame::Batch`].
//! * The daemon encodes a pulled snapshot once per transfer and serves
//!   every [`Frame::SnapshotChunk`] from that copy (see
//!   [`run_session_mux`](crate::remote::run_session_mux)).
//!
//! Sessions open with a [`Frame::Hello`] / [`Frame::HelloAck`]
//! handshake pinning [`WIRE_VERSION`] and the shard's construction
//! parameters (technology, geometry, reliability tier **with the
//! already-derived per-shard drift seed**), so a remote shard is built
//! from exactly the same inputs as a local one — the root of the
//! byte-identical settlement guarantee.

use crate::shard::{ShardBatchOutcome, Technology};
use felim_arch::batch::{RowOp, RowOpOutput};
use felim_arch::drift::DriftSpec;
use felim_arch::geometry::MemoryGeometry;
use felim_arch::snapshot::{
    put_bytes, put_f64, put_u32, put_u64, put_words, take_bytes, take_f64, take_run, take_u32,
    take_u64, take_words,
};
use felim_arch::ArchError;
use serde::Serialize;
use std::io::{Read, Write};

/// Protocol revision carried in every [`Frame::Hello`]. Bump on any
/// frame-layout change; mismatched peers refuse each other with
/// [`TransportErrorKind::VersionMismatch`] instead of mis-decoding.
///
/// Version history: v1 was the PR 9 batch/read transport; v2 adds the
/// replication frames (slot-addressed sessions, snapshot transfer,
/// health polling) for stripe failover.
pub const WIRE_VERSION: u32 = 2;

/// Upper bound on one frame's payload, bytes. A batch of row-writes
/// against the paper's 8 KB rows stays far below this; anything larger
/// on the wire is a corrupt or hostile length prefix.
pub const MAX_FRAME: usize = 64 << 20;

/// How far a receive buffer grows ahead of the bytes that have arrived
/// (see `Frame::read_with`).
const RECV_STEP: usize = 64 << 10;

/// IEEE CRC-32 lookup table (reflected polynomial `0xEDB8_8320`).
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Slice-by-8 tables: `CRC_TABLES[k][b]` is the CRC register after
/// byte `b` is followed by `k` zero bytes, so eight table lookups fold
/// eight input bytes at once. `CRC_TABLES[0]` is [`CRC_TABLE`].
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    t[0] = CRC_TABLE;
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = CRC_TABLE[(prev & 0xFF) as usize] ^ (prev >> 8);
            b += 1;
        }
        k += 1;
    }
    t
};

/// Bytes per stream block: [`crc32`] folds a round of four blocks in
/// four independent streams.
const CRC_BLOCK: usize = 512;

/// Bytes per round of [`crc32`]'s four streams.
const CRC_ROUND: usize = 4 * CRC_BLOCK;

/// `CRC_SHIFTS[k]` is `Sⁿ` for `n = (k + 1)·CRC_BLOCK`, as byte-lane
/// tables (see [`zero_shift_tables`]): what one, two or three blocks of
/// zero bytes do to a raw register.
const CRC_SHIFTS: [[[u32; 256]; 4]; 3] = [
    zero_shift_tables(CRC_BLOCK),
    zero_shift_tables(2 * CRC_BLOCK),
    zero_shift_tables(3 * CRC_BLOCK),
];

/// The "append `n` zero bytes" operator `Sⁿ` on the raw CRC register,
/// as four byte-lane tables: `Sⁿ(x)` is the XOR of `t[k][byte k of x]`
/// over `k = 0..4`. A zero byte moves the register through
/// `c ↦ CRC_TABLE[c & 0xFF] ⊕ (c >> 8)`, which is linear over GF(2)
/// (the table is), so `Sⁿ` is fixed by its images of the 32 one-bit
/// registers, and each table entry is the XOR of the images of its set
/// bits.
const fn zero_shift_tables(n: usize) -> [[u32; 256]; 4] {
    let mut basis = [0u32; 32];
    let mut i = 0;
    while i < 32 {
        let mut c = 1u32 << i;
        let mut k = 0;
        while k < n {
            c = CRC_TABLE[(c & 0xFF) as usize] ^ (c >> 8);
            k += 1;
        }
        basis[i] = c;
        i += 1;
    }
    let mut t = [[0u32; 256]; 4];
    let mut lane = 0;
    while lane < 4 {
        // Entry `b` is entry `b` without its lowest set bit, plus
        // that bit's image.
        let mut b = 1;
        while b < 256 {
            t[lane][b] = t[lane][b & (b - 1)] ^ basis[8 * lane + b.trailing_zeros() as usize];
            b += 1;
        }
        lane += 1;
    }
    t
}

/// One slice-by-8 step: the register after folding eight bytes into `c`.
#[inline(always)]
fn crc_step8(c: u32, chunk: &[u8; 8]) -> u32 {
    let t = &CRC_TABLES;
    let v = u64::from_le_bytes(*chunk) ^ u64::from(c);
    let (lo, hi) = (v as u32, (v >> 32) as u32);
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// `Sⁿ(c)` through one entry of [`CRC_SHIFTS`].
#[inline(always)]
fn crc_shift(t: &[[u32; 256]; 4], c: u32) -> u32 {
    t[0][(c & 0xFF) as usize]
        ^ t[1][((c >> 8) & 0xFF) as usize]
        ^ t[2][((c >> 16) & 0xFF) as usize]
        ^ t[3][(c >> 24) as usize]
}

/// IEEE CRC-32 of `bytes` (the zlib/ethernet polynomial), in four
/// streams.
///
/// Each round of `CRC_ROUND` bytes is four blocks. Block 0 continues
/// the running register, blocks 1–3 start from register 0, and one
/// loop steps all four registers through the slice-by-8 step, so the
/// four table-load chains overlap instead of waiting on each other.
/// The raw register after a block of `B` bytes is
/// `Sᴮ(start) ⊕ f(block)`, linear in the start register, so folding
/// the blocks one after another would give exactly
/// `S³ᴮ(c₀) ⊕ S²ᴮ(c₁) ⊕ Sᴮ(c₂) ⊕ c₃`, which is how the round combines
/// them (`CRC_SHIFTS`). The bytes after the last whole round
/// — all of a frame shorter than one — go through the slice-by-8 step
/// one register at a time, and the last `len % 8` bytewise.
pub fn crc32(bytes: &[u8]) -> u32 {
    const STEPS: usize = CRC_BLOCK / 8;
    let [s1, s2, s3] = &CRC_SHIFTS;
    let mut c = !0u32;
    let (rounds, rest) = bytes.as_chunks::<CRC_ROUND>();
    for round in rounds {
        let (w, _) = round.as_chunks::<8>();
        let (mut c0, mut c1, mut c2, mut c3) = (c, 0, 0, 0);
        for i in 0..STEPS {
            c0 = crc_step8(c0, &w[i]);
            c1 = crc_step8(c1, &w[STEPS + i]);
            c2 = crc_step8(c2, &w[2 * STEPS + i]);
            c3 = crc_step8(c3, &w[3 * STEPS + i]);
        }
        c = crc_shift(s3, c0) ^ crc_shift(s2, c1) ^ crc_shift(s1, c2) ^ c3;
    }
    let (chunks, tail) = rest.as_chunks::<8>();
    for chunk in chunks {
        c = crc_step8(c, chunk);
    }
    for &b in tail {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// How a transport interaction failed — the typed taxonomy behind
/// [`ServeError::Transport`](crate::ServeError::Transport).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TransportErrorKind {
    /// The stream ended inside a frame: a torn frame or short read.
    ShortRead,
    /// The frame arrived whole but failed its CRC or decoded to
    /// nonsense (unknown tag, trailing bytes, malformed body).
    Corrupt,
    /// The length prefix exceeds [`MAX_FRAME`] — rejected before
    /// allocation.
    Oversize,
    /// The peer speaks a different [`WIRE_VERSION`].
    VersionMismatch,
    /// The peer is gone: connection refused, reset, or closed at a
    /// frame boundary.
    PeerLost,
    /// Framing was intact but the conversation was not: an unexpected
    /// frame type or an out-of-order sequence number.
    Protocol,
}

impl TransportErrorKind {
    /// Stable lower-snake label for telemetry and reports.
    pub fn label(self) -> &'static str {
        match self {
            TransportErrorKind::ShortRead => "short_read",
            TransportErrorKind::Corrupt => "corrupt",
            TransportErrorKind::Oversize => "oversize",
            TransportErrorKind::VersionMismatch => "version_mismatch",
            TransportErrorKind::PeerLost => "peer_lost",
            TransportErrorKind::Protocol => "protocol",
        }
    }
}

impl std::fmt::Display for TransportErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A typed transport failure: what went wrong plus a human diagnosis.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WireError {
    /// The failure class.
    pub kind: TransportErrorKind,
    /// Human-readable diagnosis (offsets, expected/got values…).
    pub detail: String,
}

impl WireError {
    /// Builds an error of `kind` with a formatted diagnosis.
    pub fn new(kind: TransportErrorKind, detail: impl Into<String>) -> Self {
        Self {
            kind,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

impl std::error::Error for WireError {}

/// One protocol message. The session grammar:
///
/// ```text
/// client: Hello ─────────▶            (version + shard construction)
///            ◀───────── HelloAck      (version + data_rows)
/// client: Batch{seq}* / ReadRow{seq}* ─▶   (pipelined, seq-tagged)
///            ◀─ BatchReply{seq} / ReadRowReply{seq}  (in seq order)
/// client: Shutdown ──────▶            (then both sides close)
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → daemon: open a session and construct the hosted shard.
    Hello {
        /// The client's [`WIRE_VERSION`].
        version: u32,
        /// Memory technology of the hosted shard.
        technology: Technology,
        /// Geometry of the hosted shard's array.
        geometry: MemoryGeometry,
        /// `None` hosts a baseline shard; `Some((drift, scrub_s))` a
        /// protected one. The drift seed must arrive **already derived
        /// for this shard index** — the daemon applies it verbatim.
        tier: Option<(DriftSpec, f64)>,
        /// Daemon-local slot this session addresses. One daemon hosts
        /// many shards of one service (connection multiplexing); each
        /// session names its slot at handshake. Distinct sessions with
        /// distinct slots coexist on one daemon.
        slot: u64,
        /// `false` (fresh) constructs a new shard at `slot`, replacing
        /// any prior occupant; `true` (resume) attaches to the shard
        /// already at `slot` — used by failover rebuild to reconnect and
        /// restore state without losing the slot's identity.
        resume: bool,
    },
    /// Daemon → client: session accepted.
    HelloAck {
        /// The daemon's [`WIRE_VERSION`].
        version: u32,
        /// Data rows of the constructed shard (client sanity-checks
        /// this against its local shards).
        data_rows: u64,
    },
    /// Client → daemon: execute one coalesced batch.
    Batch {
        /// Client-chosen sequence number; replies echo it.
        seq: u64,
        /// Virtual seconds to advance the reliability clock.
        tick_s: f64,
        /// The batch schedule, in execution order.
        ops: Vec<RowOp>,
    },
    /// Daemon → client: one batch's outcome.
    BatchReply {
        /// Echo of the request's sequence number.
        seq: u64,
        /// The full outcome — outputs, cycles, energy, maintenance.
        outcome: ShardBatchOutcome,
    },
    /// Client → daemon: maintenance read of one local row.
    ReadRow {
        /// Client-chosen sequence number; the reply echoes it.
        seq: u64,
        /// The shard-local row to read.
        row: u64,
    },
    /// Daemon → client: a maintenance read's result.
    ReadRowReply {
        /// Echo of the request's sequence number.
        seq: u64,
        /// The row's words, or the backend's typed fault.
        result: Result<Vec<u64>, ArchError>,
    },
    /// Client → daemon: end the session; the daemon drops the shard.
    Shutdown,
    /// Client → daemon: request one chunk of the hosted shard's state
    /// snapshot, starting at `offset`. Offset-addressed, so an
    /// interrupted transfer resumes where it left off instead of
    /// restarting.
    SnapshotPull {
        /// Client-chosen sequence number; the reply echoes it.
        seq: u64,
        /// Byte offset into the snapshot to start from.
        offset: u64,
        /// Upper bound on the chunk size the client will accept.
        max_len: u64,
    },
    /// Daemon → client: one chunk of the snapshot. `total_len == 0`
    /// means the shard cannot snapshot (e.g. a fault injector is
    /// attached) and `data` is empty.
    SnapshotChunk {
        /// Echo of the request's sequence number.
        seq: u64,
        /// Byte offset of this chunk within the snapshot.
        offset: u64,
        /// Total snapshot length — the client knows when it has it all.
        total_len: u64,
        /// The chunk bytes (CRC-guarded by the frame envelope).
        data: Vec<u8>,
    },
    /// Client → daemon: deliver one chunk of a snapshot to restore into
    /// the hosted shard. When `offset + data.len() == total_len` the
    /// daemon reassembles and restores atomically.
    SnapshotPush {
        /// Client-chosen sequence number; the ack echoes it.
        seq: u64,
        /// Byte offset of this chunk within the snapshot.
        offset: u64,
        /// Total snapshot length being transferred.
        total_len: u64,
        /// The chunk bytes.
        data: Vec<u8>,
    },
    /// Daemon → client: push-chunk acknowledgement. On the final chunk
    /// `ok` reports whether the reassembled snapshot restored cleanly;
    /// on intermediate chunks it reports the chunk was accepted.
    SnapshotPushAck {
        /// Echo of the request's sequence number.
        seq: u64,
        /// Whether the chunk (and, on the last chunk, the restore)
        /// succeeded.
        ok: bool,
    },
    /// Client → daemon: poll the hosted shard's reliability health.
    Health {
        /// Client-chosen sequence number; the reply echoes it.
        seq: u64,
    },
    /// Daemon → client: the shard's [`ControllerHealth`] counters.
    ///
    /// [`ControllerHealth`]: felim_arch::ControllerHealth
    HealthReply {
        /// Echo of the request's sequence number.
        seq: u64,
        /// Words no code could repair (data corruption reached a read).
        uncorrectable_words: u64,
        /// Single-bit data corrections (transparent repairs).
        corrected_bits: u64,
        /// Rows rewritten by patrol scrub after drift decay.
        scrub_rewrites: u64,
        /// Stored bits flipped by the drift fault processes.
        drift_flips: u64,
        /// Worst per-row wear fraction across drift-tracked rows.
        max_wear_fraction: f64,
    },
}

fn put_technology(out: &mut Vec<u8>, t: Technology) {
    out.push(match t {
        Technology::Feram => 0,
        Technology::Dram => 1,
    });
}

fn take_technology(buf: &[u8], pos: &mut usize) -> Option<Technology> {
    let tag = *buf.get(*pos)?;
    *pos += 1;
    match tag {
        0 => Some(Technology::Feram),
        1 => Some(Technology::Dram),
        _ => None,
    }
}

fn put_geometry(out: &mut Vec<u8>, g: &MemoryGeometry) {
    put_u64(out, g.capacity_bytes);
    put_u64(out, g.row_bytes);
    put_u64(out, g.rows_per_subarray);
}

fn take_geometry(buf: &[u8], pos: &mut usize) -> Option<MemoryGeometry> {
    Some(MemoryGeometry {
        capacity_bytes: take_u64(buf, pos)?,
        row_bytes: take_u64(buf, pos)?,
        rows_per_subarray: take_u64(buf, pos)?,
    })
}

fn put_drift(out: &mut Vec<u8>, d: &DriftSpec) {
    put_u64(out, d.seed);
    put_f64(out, d.temperature_k);
    put_f64(out, d.retention.tau_300k_s);
    put_f64(out, d.retention.beta);
    put_f64(out, d.retention.activation_ev);
    put_f64(out, d.sense_floor);
    put_f64(out, d.imprint.shift_per_decade_v);
    put_f64(out, d.imprint.onset_s);
    put_f64(out, d.imprint.activation_ev);
    put_f64(out, d.imprint.max_shift_v);
    put_f64(out, d.sense_margin_v);
    put_f64(out, d.disturb_per_read);
    put_f64(out, d.wear_acceleration);
}

fn take_drift(buf: &[u8], pos: &mut usize) -> Option<DriftSpec> {
    // Start from a stock spec and overwrite every field — serve does
    // not depend on felim-ferro, so the nested model structs are
    // reached through DriftSpec's public fields rather than by name.
    let mut d = DriftSpec::quiet(take_u64(buf, pos)?);
    d.temperature_k = take_f64(buf, pos)?;
    d.retention.tau_300k_s = take_f64(buf, pos)?;
    d.retention.beta = take_f64(buf, pos)?;
    d.retention.activation_ev = take_f64(buf, pos)?;
    d.sense_floor = take_f64(buf, pos)?;
    d.imprint.shift_per_decade_v = take_f64(buf, pos)?;
    d.imprint.onset_s = take_f64(buf, pos)?;
    d.imprint.activation_ev = take_f64(buf, pos)?;
    d.imprint.max_shift_v = take_f64(buf, pos)?;
    d.sense_margin_v = take_f64(buf, pos)?;
    d.disturb_per_read = take_f64(buf, pos)?;
    d.wear_acceleration = take_f64(buf, pos)?;
    Some(d)
}

fn put_row_result(out: &mut Vec<u8>, r: &Result<RowOpOutput, ArchError>) {
    match r {
        Ok(output) => {
            out.push(0);
            output.encode(out);
        }
        Err(e) => {
            out.push(1);
            e.encode(out);
        }
    }
}

fn take_row_result(buf: &[u8], pos: &mut usize) -> Option<Result<RowOpOutput, ArchError>> {
    let tag = *buf.get(*pos)?;
    *pos += 1;
    match tag {
        0 => Some(Ok(RowOpOutput::decode(buf, pos)?)),
        1 => Some(Err(ArchError::decode(buf, pos)?)),
        _ => None,
    }
}

fn put_outcome(out: &mut Vec<u8>, o: &ShardBatchOutcome) {
    put_u64(out, o.outputs.len() as u64);
    for r in &o.outputs {
        put_row_result(out, r);
    }
    put_u64(out, o.serial_cycles);
    put_u64(out, o.makespan_cycles);
    put_f64(out, o.energy_nj);
    match &o.maintenance_error {
        None => out.push(0),
        Some(e) => {
            out.push(1);
            e.encode(out);
        }
    }
}

fn take_outcome(buf: &[u8], pos: &mut usize) -> Option<ShardBatchOutcome> {
    // Each output is at least 2 bytes (result tag + body tag).
    let outputs = take_run(buf, pos, 2, take_row_result)?;
    let serial_cycles = take_u64(buf, pos)?;
    let makespan_cycles = take_u64(buf, pos)?;
    let energy_nj = take_f64(buf, pos)?;
    let maintenance_error = match *buf.get(*pos)? {
        0 => {
            *pos += 1;
            None
        }
        1 => {
            *pos += 1;
            Some(ArchError::decode(buf, pos)?)
        }
        _ => return None,
    };
    Some(ShardBatchOutcome {
        outputs,
        serial_cycles,
        makespan_cycles,
        energy_nj,
        maintenance_error,
    })
}

// ---- frame tags ----

const TAG_HELLO: u8 = 1;
const TAG_HELLO_ACK: u8 = 2;
const TAG_BATCH: u8 = 3;
const TAG_BATCH_REPLY: u8 = 4;
const TAG_READ_ROW: u8 = 5;
const TAG_READ_ROW_REPLY: u8 = 6;
const TAG_SHUTDOWN: u8 = 7;
const TAG_SNAPSHOT_PULL: u8 = 8;
const TAG_SNAPSHOT_CHUNK: u8 = 9;
const TAG_SNAPSHOT_PUSH: u8 = 10;
const TAG_SNAPSHOT_PUSH_ACK: u8 = 11;
const TAG_HEALTH: u8 = 12;
const TAG_HEALTH_REPLY: u8 = 13;

/// A [`Frame::Batch`] payload from a borrowed schedule.
fn put_batch(out: &mut Vec<u8>, seq: u64, tick_s: f64, ops: &[RowOp]) {
    out.push(TAG_BATCH);
    put_u64(out, seq);
    put_f64(out, tick_s);
    put_u64(out, ops.len() as u64);
    for op in ops {
        op.encode(out);
    }
}

/// Frames the payload `encode` appends and writes it with one
/// `write_all`, then flushes. `buf` is the session's send buffer:
/// cleared here, it takes the 4-byte length slot, the payload and the
/// CRC, so a frame costs no allocation once the buffer has grown to the
/// session's largest frame. `name` labels errors.
fn write_framed(
    w: &mut impl Write,
    buf: &mut Vec<u8>,
    name: &str,
    encode: impl FnOnce(&mut Vec<u8>),
) -> Result<(), WireError> {
    buf.clear();
    buf.extend_from_slice(&[0; 4]);
    encode(buf);
    let len = buf.len() - 4;
    if len > MAX_FRAME {
        return Err(WireError::new(
            TransportErrorKind::Oversize,
            format!("{len}-byte {name} frame exceeds {MAX_FRAME}"),
        ));
    }
    buf[..4].copy_from_slice(&(len as u32).to_le_bytes());
    let crc = crc32(&buf[4..]);
    put_u32(buf, crc);
    w.write_all(buf).and_then(|()| w.flush()).map_err(|e| {
        WireError::new(
            TransportErrorKind::PeerLost,
            format!("writing {name} frame: {e}"),
        )
    })
}

/// Writes a [`Frame::Batch`] straight from a borrowed schedule — the
/// same bytes as [`Frame::write_with`] on the owned frame, without
/// copying `ops` into one.
///
/// # Errors
///
/// As for [`Frame::write_to`].
pub(crate) fn write_batch(
    w: &mut impl Write,
    buf: &mut Vec<u8>,
    seq: u64,
    tick_s: f64,
    ops: &[RowOp],
) -> Result<(), WireError> {
    write_framed(w, buf, "batch", |out| put_batch(out, seq, tick_s, ops))
}

impl Frame {
    /// Short name of the frame type (diagnostics, `Protocol` errors).
    pub fn name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "hello",
            Frame::HelloAck { .. } => "hello_ack",
            Frame::Batch { .. } => "batch",
            Frame::BatchReply { .. } => "batch_reply",
            Frame::ReadRow { .. } => "read_row",
            Frame::ReadRowReply { .. } => "read_row_reply",
            Frame::Shutdown => "shutdown",
            Frame::SnapshotPull { .. } => "snapshot_pull",
            Frame::SnapshotChunk { .. } => "snapshot_chunk",
            Frame::SnapshotPush { .. } => "snapshot_push",
            Frame::SnapshotPushAck { .. } => "snapshot_push_ack",
            Frame::Health { .. } => "health",
            Frame::HealthReply { .. } => "health_reply",
        }
    }

    /// Serialises the payload (tag + body) without framing — what the
    /// CRC covers.
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    /// Appends the payload (tag + body) to `out`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Hello {
                version,
                technology,
                geometry,
                tier,
                slot,
                resume,
            } => {
                out.push(TAG_HELLO);
                put_u32(out, *version);
                put_technology(out, *technology);
                put_geometry(out, geometry);
                match tier {
                    None => out.push(0),
                    Some((drift, scrub_period_s)) => {
                        out.push(1);
                        put_drift(out, drift);
                        put_f64(out, *scrub_period_s);
                    }
                }
                put_u64(out, *slot);
                out.push(u8::from(*resume));
            }
            Frame::HelloAck { version, data_rows } => {
                out.push(TAG_HELLO_ACK);
                put_u32(out, *version);
                put_u64(out, *data_rows);
            }
            Frame::Batch { seq, tick_s, ops } => put_batch(out, *seq, *tick_s, ops),
            Frame::BatchReply { seq, outcome } => {
                out.push(TAG_BATCH_REPLY);
                put_u64(out, *seq);
                put_outcome(out, outcome);
            }
            Frame::ReadRow { seq, row } => {
                out.push(TAG_READ_ROW);
                put_u64(out, *seq);
                put_u64(out, *row);
            }
            Frame::ReadRowReply { seq, result } => {
                out.push(TAG_READ_ROW_REPLY);
                put_u64(out, *seq);
                match result {
                    Ok(words) => {
                        out.push(0);
                        put_words(out, words);
                    }
                    Err(e) => {
                        out.push(1);
                        e.encode(out);
                    }
                }
            }
            Frame::Shutdown => out.push(TAG_SHUTDOWN),
            Frame::SnapshotPull { seq, offset, max_len } => {
                out.push(TAG_SNAPSHOT_PULL);
                put_u64(out, *seq);
                put_u64(out, *offset);
                put_u64(out, *max_len);
            }
            Frame::SnapshotChunk {
                seq,
                offset,
                total_len,
                data,
            } => {
                out.push(TAG_SNAPSHOT_CHUNK);
                put_u64(out, *seq);
                put_u64(out, *offset);
                put_u64(out, *total_len);
                put_bytes(out, data);
            }
            Frame::SnapshotPush {
                seq,
                offset,
                total_len,
                data,
            } => {
                out.push(TAG_SNAPSHOT_PUSH);
                put_u64(out, *seq);
                put_u64(out, *offset);
                put_u64(out, *total_len);
                put_bytes(out, data);
            }
            Frame::SnapshotPushAck { seq, ok } => {
                out.push(TAG_SNAPSHOT_PUSH_ACK);
                put_u64(out, *seq);
                out.push(u8::from(*ok));
            }
            Frame::Health { seq } => {
                out.push(TAG_HEALTH);
                put_u64(out, *seq);
            }
            Frame::HealthReply {
                seq,
                uncorrectable_words,
                corrected_bits,
                scrub_rewrites,
                drift_flips,
                max_wear_fraction,
            } => {
                out.push(TAG_HEALTH_REPLY);
                put_u64(out, *seq);
                put_u64(out, *uncorrectable_words);
                put_u64(out, *corrected_bits);
                put_u64(out, *scrub_rewrites);
                put_u64(out, *drift_flips);
                put_f64(out, *max_wear_fraction);
            }
        }
    }

    /// Decodes a payload (tag + body) produced by
    /// [`encode_payload`](Frame::encode_payload). The whole payload
    /// must be consumed — trailing bytes are [`TransportErrorKind::Corrupt`].
    ///
    /// # Errors
    ///
    /// [`WireError`] of kind `Corrupt` on any malformed payload.
    pub fn decode_payload(payload: &[u8]) -> Result<Frame, WireError> {
        let corrupt = |what: &str| WireError::new(TransportErrorKind::Corrupt, what);
        let (&tag, body) = payload
            .split_first()
            .ok_or_else(|| corrupt("empty payload"))?;
        let mut pos = 0usize;
        let frame = match tag {
            TAG_HELLO => {
                let version =
                    take_u32(body, &mut pos).ok_or_else(|| corrupt("hello: truncated version"))?;
                let technology = take_technology(body, &mut pos)
                    .ok_or_else(|| corrupt("hello: bad technology"))?;
                let geometry = take_geometry(body, &mut pos)
                    .ok_or_else(|| corrupt("hello: truncated geometry"))?;
                let tier = match body.get(pos).copied() {
                    Some(0) => {
                        pos += 1;
                        None
                    }
                    Some(1) => {
                        pos += 1;
                        let drift = take_drift(body, &mut pos)
                            .ok_or_else(|| corrupt("hello: truncated drift spec"))?;
                        let scrub = take_f64(body, &mut pos)
                            .ok_or_else(|| corrupt("hello: truncated scrub period"))?;
                        Some((drift, scrub))
                    }
                    _ => return Err(corrupt("hello: bad tier tag")),
                };
                let slot =
                    take_u64(body, &mut pos).ok_or_else(|| corrupt("hello: truncated slot"))?;
                let resume = match body.get(pos).copied() {
                    Some(0) => false,
                    Some(1) => true,
                    _ => return Err(corrupt("hello: bad resume flag")),
                };
                pos += 1;
                Frame::Hello {
                    version,
                    technology,
                    geometry,
                    tier,
                    slot,
                    resume,
                }
            }
            TAG_HELLO_ACK => Frame::HelloAck {
                version: take_u32(body, &mut pos)
                    .ok_or_else(|| corrupt("hello_ack: truncated version"))?,
                data_rows: take_u64(body, &mut pos)
                    .ok_or_else(|| corrupt("hello_ack: truncated data_rows"))?,
            },
            TAG_BATCH => {
                let seq =
                    take_u64(body, &mut pos).ok_or_else(|| corrupt("batch: truncated seq"))?;
                let tick_s =
                    take_f64(body, &mut pos).ok_or_else(|| corrupt("batch: truncated tick"))?;
                let count =
                    take_u64(body, &mut pos).ok_or_else(|| corrupt("batch: truncated count"))?;
                // Every op is at least 1 tag byte.
                if count > (body.len() - pos) as u64 {
                    return Err(corrupt("batch: op count exceeds payload"));
                }
                let mut ops = Vec::with_capacity(count as usize);
                for i in 0..count {
                    ops.push(
                        RowOp::decode(body, &mut pos)
                            .ok_or_else(|| corrupt(&format!("batch: malformed op {i}")))?,
                    );
                }
                Frame::Batch { seq, tick_s, ops }
            }
            TAG_BATCH_REPLY => Frame::BatchReply {
                seq: take_u64(body, &mut pos)
                    .ok_or_else(|| corrupt("batch_reply: truncated seq"))?,
                outcome: take_outcome(body, &mut pos)
                    .ok_or_else(|| corrupt("batch_reply: malformed outcome"))?,
            },
            TAG_READ_ROW => Frame::ReadRow {
                seq: take_u64(body, &mut pos)
                    .ok_or_else(|| corrupt("read_row: truncated seq"))?,
                row: take_u64(body, &mut pos)
                    .ok_or_else(|| corrupt("read_row: truncated row"))?,
            },
            TAG_READ_ROW_REPLY => {
                let seq = take_u64(body, &mut pos)
                    .ok_or_else(|| corrupt("read_row_reply: truncated seq"))?;
                let result = match body.get(pos).copied() {
                    Some(0) => {
                        pos += 1;
                        Ok(take_words(body, &mut pos)
                            .ok_or_else(|| corrupt("read_row_reply: truncated words"))?)
                    }
                    Some(1) => {
                        pos += 1;
                        Err(ArchError::decode(body, &mut pos)
                            .ok_or_else(|| corrupt("read_row_reply: malformed error"))?)
                    }
                    _ => return Err(corrupt("read_row_reply: bad result tag")),
                };
                Frame::ReadRowReply { seq, result }
            }
            TAG_SHUTDOWN => Frame::Shutdown,
            TAG_SNAPSHOT_PULL => Frame::SnapshotPull {
                seq: take_u64(body, &mut pos)
                    .ok_or_else(|| corrupt("snapshot_pull: truncated seq"))?,
                offset: take_u64(body, &mut pos)
                    .ok_or_else(|| corrupt("snapshot_pull: truncated offset"))?,
                max_len: take_u64(body, &mut pos)
                    .ok_or_else(|| corrupt("snapshot_pull: truncated max_len"))?,
            },
            TAG_SNAPSHOT_CHUNK => Frame::SnapshotChunk {
                seq: take_u64(body, &mut pos)
                    .ok_or_else(|| corrupt("snapshot_chunk: truncated seq"))?,
                offset: take_u64(body, &mut pos)
                    .ok_or_else(|| corrupt("snapshot_chunk: truncated offset"))?,
                total_len: take_u64(body, &mut pos)
                    .ok_or_else(|| corrupt("snapshot_chunk: truncated total_len"))?,
                data: take_bytes(body, &mut pos)
                    .ok_or_else(|| corrupt("snapshot_chunk: truncated data"))?,
            },
            TAG_SNAPSHOT_PUSH => Frame::SnapshotPush {
                seq: take_u64(body, &mut pos)
                    .ok_or_else(|| corrupt("snapshot_push: truncated seq"))?,
                offset: take_u64(body, &mut pos)
                    .ok_or_else(|| corrupt("snapshot_push: truncated offset"))?,
                total_len: take_u64(body, &mut pos)
                    .ok_or_else(|| corrupt("snapshot_push: truncated total_len"))?,
                data: take_bytes(body, &mut pos)
                    .ok_or_else(|| corrupt("snapshot_push: truncated data"))?,
            },
            TAG_SNAPSHOT_PUSH_ACK => {
                let seq = take_u64(body, &mut pos)
                    .ok_or_else(|| corrupt("snapshot_push_ack: truncated seq"))?;
                let ok = match body.get(pos).copied() {
                    Some(0) => false,
                    Some(1) => true,
                    _ => return Err(corrupt("snapshot_push_ack: bad ok flag")),
                };
                pos += 1;
                Frame::SnapshotPushAck { seq, ok }
            }
            TAG_HEALTH => Frame::Health {
                seq: take_u64(body, &mut pos)
                    .ok_or_else(|| corrupt("health: truncated seq"))?,
            },
            TAG_HEALTH_REPLY => Frame::HealthReply {
                seq: take_u64(body, &mut pos)
                    .ok_or_else(|| corrupt("health_reply: truncated seq"))?,
                uncorrectable_words: take_u64(body, &mut pos)
                    .ok_or_else(|| corrupt("health_reply: truncated uncorrectable"))?,
                corrected_bits: take_u64(body, &mut pos)
                    .ok_or_else(|| corrupt("health_reply: truncated corrected"))?,
                scrub_rewrites: take_u64(body, &mut pos)
                    .ok_or_else(|| corrupt("health_reply: truncated rewrites"))?,
                drift_flips: take_u64(body, &mut pos)
                    .ok_or_else(|| corrupt("health_reply: truncated flips"))?,
                max_wear_fraction: take_f64(body, &mut pos)
                    .ok_or_else(|| corrupt("health_reply: truncated wear"))?,
            },
            other => return Err(corrupt(&format!("unknown frame tag {other}"))),
        };
        if pos != payload.len() - 1 {
            return Err(corrupt(&format!(
                "{} bytes of trailing garbage after {} frame",
                payload.len() - 1 - pos,
                frame.name()
            )));
        }
        Ok(frame)
    }

    /// Writes one framed message: `[len][payload][crc32]`, then flushes.
    /// Sessions write through `write_with`, which reuses one buffer;
    /// this is its one-shot form.
    ///
    /// # Errors
    ///
    /// [`TransportErrorKind::PeerLost`] when the underlying stream
    /// fails, [`TransportErrorKind::Oversize`] when the payload exceeds
    /// [`MAX_FRAME`].
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), WireError> {
        self.write_with(w, &mut Vec::new())
    }

    /// [`write_to`](Frame::write_to) through a caller-owned send buffer:
    /// the frame is encoded into `buf` behind a reserved length slot,
    /// the length patched in, the CRC appended, and the whole frame
    /// written with one `write_all`. Sessions keep one `buf` for their
    /// lifetime, so steady-state frames allocate nothing.
    ///
    /// # Errors
    ///
    /// As for [`write_to`](Frame::write_to).
    pub(crate) fn write_with(
        &self,
        w: &mut impl Write,
        buf: &mut Vec<u8>,
    ) -> Result<(), WireError> {
        write_framed(w, buf, self.name(), |out| self.encode_into(out))
    }

    /// Reads one framed message, verifying length bound and CRC.
    /// Sessions read through `read_with`, which reuses one buffer; this
    /// is its one-shot form.
    ///
    /// # Errors
    ///
    /// * [`TransportErrorKind::PeerLost`] — EOF at a frame boundary, or
    ///   a stream error.
    /// * [`TransportErrorKind::ShortRead`] — EOF inside a frame.
    /// * [`TransportErrorKind::Oversize`] — length prefix over
    ///   [`MAX_FRAME`].
    /// * [`TransportErrorKind::Corrupt`] — CRC mismatch or malformed
    ///   payload.
    pub fn read_from(r: &mut impl Read) -> Result<Frame, WireError> {
        Self::read_with(r, &mut Vec::new())
    }

    /// [`read_from`](Frame::read_from) through a caller-owned receive
    /// buffer: payload and CRC land in `buf`, which only ever grows (to
    /// the session's largest frame, never past [`MAX_FRAME`] + 4), so
    /// steady-state frames neither allocate nor zero-fill.
    ///
    /// The length prefix is only a claim until the bytes arrive, so a
    /// buffer short of it grows in steps of at most
    /// `max(RECV_STEP, bytes read)`: a bare prefix near [`MAX_FRAME`]
    /// costs one `RECV_STEP`, and a real frame still costs amortised
    /// linear growth.
    ///
    /// # Errors
    ///
    /// As for [`read_from`](Frame::read_from).
    pub(crate) fn read_with(r: &mut impl Read, buf: &mut Vec<u8>) -> Result<Frame, WireError> {
        let mut len_bytes = [0u8; 4];
        read_exact_at(r, &mut len_bytes, "length prefix", true)?;
        let len = u32::from_le_bytes(len_bytes) as usize;
        if len > MAX_FRAME {
            return Err(WireError::new(
                TransportErrorKind::Oversize,
                format!("{len}-byte length prefix exceeds {MAX_FRAME}"),
            ));
        }
        let total = len + 4;
        let mut filled = 0;
        while filled < total {
            let end = total.min(buf.len().max(filled + filled.max(RECV_STEP)));
            if buf.len() < end {
                buf.resize(end, 0);
            }
            filled += read_up_to(r, &mut buf[filled..end], "payload and crc")?;
            if filled < end {
                return Err(WireError::new(
                    TransportErrorKind::ShortRead,
                    format!("torn frame: eof after {filled}/{total} bytes of payload and crc"),
                ));
            }
        }
        let (payload, crc_bytes) = buf[..total].split_at(len);
        let want = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
        let got = crc32(payload);
        if want != got {
            return Err(WireError::new(
                TransportErrorKind::Corrupt,
                format!("crc mismatch: frame says {want:#010x}, payload hashes to {got:#010x}"),
            ));
        }
        Frame::decode_payload(payload)
    }
}

/// `read_exact` with the boundary/mid-frame EOF distinction: EOF before
/// the first byte of the *length prefix* is a closed peer
/// ([`TransportErrorKind::PeerLost`]); EOF anywhere else is a torn
/// frame ([`TransportErrorKind::ShortRead`]).
fn read_exact_at(
    r: &mut impl Read,
    buf: &mut [u8],
    what: &str,
    at_boundary: bool,
) -> Result<(), WireError> {
    let filled = read_up_to(r, buf, what)?;
    if filled == buf.len() {
        Ok(())
    } else if at_boundary && filled == 0 {
        Err(WireError::new(
            TransportErrorKind::PeerLost,
            "peer closed the connection at a frame boundary",
        ))
    } else {
        Err(WireError::new(
            TransportErrorKind::ShortRead,
            format!(
                "torn frame: eof after {filled}/{} bytes of {what}",
                buf.len()
            ),
        ))
    }
}

/// Reads until `buf` is full or the stream ends, returning the bytes
/// read. A stream error is [`TransportErrorKind::PeerLost`].
fn read_up_to(r: &mut impl Read, buf: &mut [u8], what: &str) -> Result<usize, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                return Err(WireError::new(
                    TransportErrorKind::PeerLost,
                    format!("stream error reading {what}: {e}"),
                ));
            }
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use felim_arch::geometry::RowId;

    // `sample_frames()`: one or more of every frame type, shared with
    // the decode sweep in `tests/wire_sweep.rs`.
    include!("../tests/support/sample_frames.rs");

    #[test]
    fn every_frame_round_trips_through_a_byte_stream() {
        let mut stream = Vec::new();
        let frames = sample_frames();
        for f in &frames {
            f.write_to(&mut stream).unwrap();
        }
        let mut cursor = &stream[..];
        for f in &frames {
            assert_eq!(&Frame::read_from(&mut cursor).unwrap(), f);
        }
        // Stream exhausted: the next read is a clean PeerLost.
        let err = Frame::read_from(&mut cursor).unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::PeerLost);
    }

    #[test]
    fn crc_guards_every_payload_byte() {
        for frame in sample_frames() {
            let mut bytes = Vec::new();
            frame.write_to(&mut bytes).unwrap();
            // Flip one bit of the payload (skip the 4-byte length so
            // the reader still finds the frame envelope).
            let mid = 4 + (bytes.len() - 8) / 2;
            bytes[mid] ^= 0x10;
            let err = Frame::read_from(&mut &bytes[..]).unwrap_err();
            assert_eq!(err.kind, TransportErrorKind::Corrupt, "{frame:?}");
        }
    }

    #[test]
    fn truncation_anywhere_is_a_short_read() {
        let mut bytes = Vec::new();
        Frame::ReadRow { seq: 1, row: 2 }.write_to(&mut bytes).unwrap();
        for cut in 1..bytes.len() {
            let err = Frame::read_from(&mut &bytes[..cut]).unwrap_err();
            assert_eq!(
                err.kind,
                TransportErrorKind::ShortRead,
                "cut at {cut}/{}",
                bytes.len()
            );
        }
    }

    #[test]
    fn oversize_prefix_is_rejected_before_allocation() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, u32::MAX);
        bytes.extend_from_slice(&[0; 16]);
        let err = Frame::read_from(&mut &bytes[..]).unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::Oversize);
    }

    #[test]
    fn trailing_garbage_and_unknown_tags_are_corrupt() {
        let mut payload = Frame::Shutdown.encode_payload();
        payload.push(0xEE);
        assert_eq!(
            Frame::decode_payload(&payload).unwrap_err().kind,
            TransportErrorKind::Corrupt
        );
        assert_eq!(
            Frame::decode_payload(&[0x7F]).unwrap_err().kind,
            TransportErrorKind::Corrupt
        );
        assert_eq!(
            Frame::decode_payload(&[]).unwrap_err().kind,
            TransportErrorKind::Corrupt
        );
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bytewise table loop: the oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    /// Seeded pseudo-random bytes (splitmix64 via `derive_seed`).
    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = felim_exec::derive_seed(state, 1);
                state as u8
            })
            .collect()
    }

    #[test]
    fn four_stream_crc32_matches_the_bytewise_oracle() {
        // Every short length; one below, at, one past and seven past
        // each of the first four round boundaries; 64 KiB.
        let boundaries = (0..=4).flat_map(|r| {
            let at = r * CRC_ROUND;
            [at.checked_sub(1), Some(at), Some(at + 1), Some(at + 7)]
        });
        let lengths = (0..=300)
            .chain(boundaries.flatten())
            .chain([511, 1024, 4095, 8192, 28_001, 65_536]);
        for len in lengths {
            // Eight spare bytes so every start offset 0..8 sees `len`.
            let buf = random_bytes(len as u64 ^ 0xC4C3, len + 8);
            for start in 0..8 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "len {len} at offset {start}");
            }
        }
        let big = random_bytes(0x4D1B, 4 << 20);
        assert_eq!(crc32(&big), crc32_bytewise(&big), "4 MiB");
    }

    #[test]
    fn a_flipped_bit_in_any_stream_or_the_tail_is_corrupt() {
        // 40 full rows of `Write`: a payload of many whole rounds plus
        // a tail with both slice-by-8 steps and trailing single bytes.
        let frame = Frame::Batch {
            seq: 9,
            tick_s: 1e-3,
            ops: (0..40)
                .map(|r| RowOp::Write {
                    row: RowId(r),
                    data: (0..1024).map(|w| felim_exec::derive_seed(r, w)).collect(),
                })
                .collect(),
        };
        let mut bytes = Vec::new();
        frame.write_to(&mut bytes).unwrap();
        let len = bytes.len() - 8;
        let rounds = len / CRC_ROUND;
        let tail = rounds * CRC_ROUND;
        assert!(
            len >= 64 << 10 && len - tail > 8 && len % 8 != 0,
            "payload {len}"
        );
        let mut offsets: Vec<usize> = (0..4).map(|k| k * CRC_BLOCK + 77).collect();
        offsets.extend((0..4).map(|k| rounds / 2 * CRC_ROUND + k * CRC_BLOCK + 300));
        offsets.extend([tail, tail + (len - tail) / 2, len - 1]);
        for at in offsets {
            let mut flipped = bytes.clone();
            // The payload starts after the 4-byte length.
            flipped[4 + at] ^= 0x04;
            let err = Frame::read_from(&mut &flipped[..]).unwrap_err();
            assert_eq!(err.kind, TransportErrorKind::Corrupt, "payload byte {at}");
        }
        assert_eq!(Frame::read_from(&mut &bytes[..]).unwrap(), frame);
    }

    #[test]
    fn drift_spec_survives_the_wire_bit_for_bit() {
        let spec = DriftSpec::accelerated(0xDEAD_BEEF, 390.0, 2.5e-7);
        let mut buf = Vec::new();
        put_drift(&mut buf, &spec);
        let mut pos = 0;
        assert_eq!(take_drift(&buf, &mut pos), Some(spec));
        assert_eq!(pos, buf.len());
    }
}
