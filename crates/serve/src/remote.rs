//! Remote shards: TCP clients, the pool-member trait local and remote
//! shards share, and the daemon-side session loop behind `felim-shardd`.
//!
//! The [`wire`] module defines *what* crosses the link;
//! this module defines *who talks*:
//!
//! * [`RemoteShard`] — the client end: one persistent `TcpStream` per
//!   shard host, a [`Frame::Hello`] handshake that constructs the
//!   hosted shard from exactly the parameters a local shard would get
//!   (including the **already-derived** per-shard drift seed), then
//!   pipelined seq-tagged batch frames with strictly ordered replies.
//!   Any transport failure **poisons** the connection: a shardd's state
//!   cannot be reconstructed mid-session, so reconnecting silently
//!   would break the determinism contract — every later call returns
//!   the same typed [`ServeError::Transport`] instead (honest
//!   backpressure, never silent drops).
//! * [`PoolMember`] — the dispatch surface the service runs against,
//!   implemented by [`Shard`] and [`RemoteShard`]. [`BulkService`] holds
//!   its pool as `Mutex<Box<dyn PoolMember>>` members and never asks
//!   which kind a member is, so it settles responses identically
//!   whether a shard is in-process, across a socket, or a mix (pinned
//!   by `tests/remote.rs`). A batch runs in two phases, `start` and
//!   `finish`: the service starts every member's batch before it
//!   finishes any, so a remote member's round trip overlaps the local
//!   members' work, and a reply is checked against its batch before
//!   it settles anything.
//! * [`ShardHost`] + [`run_session_mux`] — the daemon side: accept a
//!   connection, look up or build the [`Shard`] at the slot the Hello
//!   names (in a [`SlotRegistry`] shared by every session), and answer
//!   batches until `Shutdown` or peer loss. A fresh Hello always builds
//!   a new shard, so a new session can never observe a previous
//!   client's rows; a resume Hello re-attaches for failover rebuilds.
//! * [`ShardHostChild`] — test/bench helper that spawns a `felim-shardd`
//!   child on an ephemeral loopback port, parses the advertised
//!   address, and kills the daemon on drop so suites never leak
//!   processes.
//!
//! [`BulkService`]: crate::BulkService

use crate::shard::{snapshot_len_bound, Shard, ShardBatchOutcome, Technology};
use crate::wire::{self, Frame, TransportErrorKind, WireError, WIRE_VERSION};
use crate::ServeError;
use felim_arch::batch::{RowOp, RowOpOutput};
use felim_arch::drift::DriftSpec;
use felim_arch::geometry::MemoryGeometry;
use felim_arch::ControllerHealth;
use felim_telemetry as telemetry;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Chunk size for snapshot transfer frames: large enough to amortise
/// framing, small enough that one chunk never approaches
/// [`MAX_FRAME`](crate::wire::MAX_FRAME).
pub const SNAPSHOT_CHUNK_LEN: u64 = 1 << 20;

/// Bounded-backoff policy for the initial connection to a shard host.
///
/// Only *connection establishment* retries: once a session is live, a
/// transport failure poisons it (the remote shard's state is
/// unrecoverable) and surfaces as [`ServeError::Transport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectRetry {
    /// Connection attempts before giving up (at least 1).
    pub attempts: u32,
    /// Backoff before the second attempt, doubling per attempt and
    /// capped at one second.
    pub base_backoff: Duration,
}

impl Default for ConnectRetry {
    fn default() -> Self {
        Self {
            attempts: 5,
            base_backoff: Duration::from_millis(20),
        }
    }
}

impl ConnectRetry {
    /// The sleep before attempt `attempt` (0-based; attempt 0 never
    /// sleeps). Deterministic: `base · 2^(attempt-1)`, capped at 1 s.
    pub fn backoff(&self, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let factor = 1u32 << (attempt - 1).min(10);
        (self.base_backoff * factor).min(Duration::from_secs(1))
    }
}

/// The client end of one shard-host session. See the [module
/// docs](self) for the pipelining and poisoning contract.
pub struct RemoteShard {
    peer: String,
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Send and receive buffers, reused by every frame of the session.
    tx: Vec<u8>,
    rx: Vec<u8>,
    next_seq: u64,
    /// Sequence numbers written but not yet answered, oldest first —
    /// replies must arrive in exactly this order.
    inflight: VecDeque<u64>,
    data_rows: u64,
    /// Set on the first transport failure; every later call echoes it.
    poisoned: Option<WireError>,
    /// Handshake parameters, retained so a replacement session can be
    /// opened with [`reconnect_fresh`](Self::reconnect_fresh) after a
    /// poisoning failure (failover rebuild).
    params: ConnectParams,
}

/// Everything needed to reopen a session to the same hosted shard slot.
#[derive(Debug, Clone)]
struct ConnectParams {
    addr: String,
    technology: Technology,
    geometry: MemoryGeometry,
    tier: Option<(DriftSpec, f64)>,
    retry: ConnectRetry,
    slot: u64,
}

impl std::fmt::Debug for RemoteShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteShard")
            .field("peer", &self.peer)
            .field("inflight", &self.inflight.len())
            .field("poisoned", &self.poisoned.is_some())
            .finish()
    }
}

impl RemoteShard {
    /// Connects to a shard host at `addr` (with bounded retry/backoff)
    /// and performs the Hello handshake, constructing the hosted shard
    /// from `technology`/`geometry`/`tier`. A protected tier's drift
    /// seed must already be derived for this shard's index — the daemon
    /// applies it verbatim, which is what makes a remote shard
    /// bit-identical to the local shard it replaces.
    ///
    /// # Errors
    ///
    /// [`ServeError::Transport`]: `PeerLost` when every connection
    /// attempt failed, `VersionMismatch` when the daemon speaks a
    /// different [`WIRE_VERSION`], `Protocol` on a malformed handshake.
    pub fn connect(
        addr: &str,
        technology: Technology,
        geometry: MemoryGeometry,
        tier: Option<(DriftSpec, f64)>,
        retry: ConnectRetry,
    ) -> Result<Self, ServeError> {
        Self::connect_slot(addr, technology, geometry, tier, retry, 0, false)
    }

    /// [`connect`](Self::connect) addressing a specific daemon-local
    /// `slot` — the connection-multiplexing handshake: one daemon hosts
    /// many shards of one service, each session naming its slot.
    /// `resume = true` attaches to the shard already at `slot` (failover
    /// rebuild) instead of constructing a fresh one; the daemon refuses
    /// (`data_rows == 0` in the ack, surfaced as `Protocol`) when the
    /// slot is empty.
    ///
    /// # Errors
    ///
    /// As for [`connect`](Self::connect), plus `Protocol` when a resume
    /// targets an empty slot.
    #[allow(clippy::too_many_arguments)]
    pub fn connect_slot(
        addr: &str,
        technology: Technology,
        geometry: MemoryGeometry,
        tier: Option<(DriftSpec, f64)>,
        retry: ConnectRetry,
        slot: u64,
        resume: bool,
    ) -> Result<Self, ServeError> {
        let attempts = retry.attempts.max(1);
        let mut last_err = None;
        let mut stream = None;
        for attempt in 0..attempts {
            std::thread::sleep(retry.backoff(attempt));
            if attempt > 0 {
                telemetry::counter("serve.remote.connect_retries").inc();
            }
            match TcpStream::connect(addr) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let Some(stream) = stream else {
            return Err(ServeError::Transport {
                peer: addr.to_owned(),
                kind: TransportErrorKind::PeerLost,
                detail: format!(
                    "connect failed after {attempts} attempts: {}",
                    last_err.map_or_else(|| "no error recorded".into(), |e| e.to_string())
                ),
            });
        };
        // Batches are latency-sensitive request/reply pairs; never sit
        // on Nagle.
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone().map_err(|e| ServeError::Transport {
            peer: addr.to_owned(),
            kind: TransportErrorKind::PeerLost,
            detail: format!("cloning stream: {e}"),
        })?);
        let mut remote = Self {
            peer: addr.to_owned(),
            reader,
            writer: BufWriter::new(stream),
            tx: Vec::new(),
            rx: Vec::new(),
            next_seq: 0,
            inflight: VecDeque::new(),
            data_rows: 0,
            poisoned: None,
            params: ConnectParams {
                addr: addr.to_owned(),
                technology,
                geometry,
                tier: tier.clone(),
                retry,
                slot,
            },
        };
        let hello = Frame::Hello {
            version: WIRE_VERSION,
            technology,
            geometry,
            tier,
            slot,
            resume,
        };
        remote.write_frame(&hello)?;
        match remote.read_frame()? {
            Frame::HelloAck { version, data_rows } => {
                if version != WIRE_VERSION {
                    return Err(remote.poison(WireError::new(
                        TransportErrorKind::VersionMismatch,
                        format!("peer speaks wire v{version}, this build speaks v{WIRE_VERSION}"),
                    )));
                }
                if resume && data_rows == 0 {
                    return Err(remote.poison(WireError::new(
                        TransportErrorKind::Protocol,
                        format!("daemon refused resume: no shard at slot {slot}"),
                    )));
                }
                remote.data_rows = data_rows;
                Ok(remote)
            }
            other => Err(remote.poison(WireError::new(
                TransportErrorKind::Protocol,
                format!("expected hello_ack, got {}", other.name()),
            ))),
        }
    }

    /// The peer address this session talks to.
    pub fn peer(&self) -> &str {
        &self.peer
    }

    /// Data rows of the hosted shard, from the handshake.
    pub fn data_rows(&self) -> u64 {
        self.data_rows
    }

    /// Batches written but not yet answered.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Maps a wire failure into the session-poisoning transport error.
    fn poison(&mut self, e: WireError) -> ServeError {
        telemetry::counter("serve.remote.transport_errors").inc();
        let err = ServeError::Transport {
            peer: self.peer.clone(),
            kind: e.kind,
            detail: e.detail.clone(),
        };
        self.poisoned.get_or_insert(e);
        err
    }

    /// Errors out if a previous transport failure poisoned the session.
    fn check_poison(&self) -> Result<(), ServeError> {
        match &self.poisoned {
            None => Ok(()),
            Some(e) => Err(ServeError::Transport {
                peer: self.peer.clone(),
                kind: e.kind,
                detail: format!("session poisoned by earlier failure: {}", e.detail),
            }),
        }
    }

    /// Errors out unless no batch awaits its reply: maintenance `call`s
    /// (reads, snapshots, health polls) cannot interleave with the
    /// pipeline, whose replies must arrive in sequence order.
    fn require_idle(&self, call: &str) -> Result<(), ServeError> {
        if self.inflight.is_empty() {
            return Ok(());
        }
        Err(ServeError::Transport {
            peer: self.peer.clone(),
            kind: TransportErrorKind::Protocol,
            detail: format!("{call} with {} batches in flight", self.inflight.len()),
        })
    }

    fn write_frame(&mut self, frame: &Frame) -> Result<(), ServeError> {
        self.send(|w, buf| frame.write_with(w, buf))
    }

    /// Runs one frame writer against the session's stream and send
    /// buffer, poisoning the session when it fails.
    fn send(
        &mut self,
        write: impl FnOnce(&mut BufWriter<TcpStream>, &mut Vec<u8>) -> Result<(), WireError>,
    ) -> Result<(), ServeError> {
        self.check_poison()?;
        write(&mut self.writer, &mut self.tx).map_err(|e| self.poison(e))
    }

    fn read_frame(&mut self) -> Result<Frame, ServeError> {
        self.check_poison()?;
        Frame::read_with(&mut self.reader, &mut self.rx).map_err(|e| self.poison(e))
    }

    /// Writes one batch frame **without waiting for its reply** and
    /// returns its sequence number — the pipelining half. Replies
    /// arrive strictly in send order via [`recv_batch`](Self::recv_batch).
    ///
    /// # Errors
    ///
    /// [`ServeError::Transport`] on a poisoned session or write failure.
    pub fn send_batch(&mut self, ops: &[RowOp], tick_s: f64) -> Result<u64, ServeError> {
        let seq = self.next_seq;
        self.send(|w, buf| wire::write_batch(w, buf, seq, tick_s, ops))?;
        self.next_seq += 1;
        self.inflight.push_back(seq);
        telemetry::counter("serve.remote.batches_sent").inc();
        Ok(seq)
    }

    /// Receives the oldest in-flight batch's outcome, enforcing the
    /// (shard, sequence) settlement order: a reply for any other
    /// sequence — or any other frame type — is a `Protocol` failure.
    ///
    /// # Errors
    ///
    /// [`ServeError::Transport`] on transport failure, out-of-order
    /// reply, or when nothing is in flight.
    pub fn recv_batch(&mut self) -> Result<(u64, ShardBatchOutcome), ServeError> {
        let Some(expected) = self.inflight.front().copied() else {
            return Err(ServeError::Transport {
                peer: self.peer.clone(),
                kind: TransportErrorKind::Protocol,
                detail: "recv_batch with no batch in flight".into(),
            });
        };
        match self.read_frame()? {
            Frame::BatchReply { seq, outcome } if seq == expected => {
                self.inflight.pop_front();
                Ok((seq, outcome))
            }
            Frame::BatchReply { seq, .. } => Err(self.poison(WireError::new(
                TransportErrorKind::Protocol,
                format!("out-of-order reply: expected seq {expected}, got {seq}"),
            ))),
            other => Err(self.poison(WireError::new(
                TransportErrorKind::Protocol,
                format!("expected batch_reply, got {}", other.name()),
            ))),
        }
    }

    /// Checks a batch reply against the `ops` it answers: one output per
    /// op, row data for exactly the reads, and each row this session's
    /// `row_words` wide. A reply that does not fit is a peer fault: it
    /// poisons the session with `Protocol`, so settlement never indexes
    /// past a short reply or meets the wrong output kind.
    fn check_reply(
        &mut self,
        ops: &[RowOp],
        outcome: &ShardBatchOutcome,
    ) -> Result<(), ServeError> {
        let row_words = self.params.geometry.row_words();
        let misfit = if outcome.outputs.len() == ops.len() {
            ops.iter()
                .zip(&outcome.outputs)
                .position(|(op, output)| {
                    let read = matches!(op, RowOp::Read { .. });
                    match output {
                        Err(_) => false,
                        Ok(RowOpOutput::Done) => read,
                        Ok(RowOpOutput::Data(row)) => !read || row.len() != row_words,
                    }
                })
                .map(|i| {
                    format!(
                        "reply output {i} does not answer its {} op",
                        ops[i].mnemonic()
                    )
                })
        } else {
            Some(format!(
                "reply carries {} outputs for {} ops",
                outcome.outputs.len(),
                ops.len()
            ))
        };
        match misfit {
            None => Ok(()),
            Some(detail) => Err(self.poison(WireError::new(TransportErrorKind::Protocol, detail))),
        }
    }

    /// Maintenance read of one shard-local row across the link.
    ///
    /// # Errors
    ///
    /// [`ServeError::Transport`] for link failures,
    /// [`ServeError::Backend`] when the remote backend itself faulted.
    pub fn read_local_row(&mut self, row: u64) -> Result<Vec<u64>, ServeError> {
        self.require_idle("read_local_row")?;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.write_frame(&Frame::ReadRow { seq, row })?;
        match self.read_frame()? {
            Frame::ReadRowReply { seq: got, result } if got == seq => {
                result.map_err(|source| ServeError::Backend { source })
            }
            Frame::ReadRowReply { seq: got, .. } => Err(self.poison(WireError::new(
                TransportErrorKind::Protocol,
                format!("out-of-order read reply: expected seq {seq}, got {got}"),
            ))),
            other => Err(self.poison(WireError::new(
                TransportErrorKind::Protocol,
                format!("expected read_row_reply, got {}", other.name()),
            ))),
        }
    }

    /// The daemon-local slot this session addresses.
    pub fn slot(&self) -> u64 {
        self.params.slot
    }

    /// Opens a **replacement session** to the same address and slot with
    /// the original handshake parameters (`resume = false`, so the
    /// daemon constructs a fresh shard at the slot). Used by failover
    /// rebuild after this session was poisoned; the replacement's state
    /// is then restored via [`push_snapshot`](Self::push_snapshot).
    ///
    /// # Errors
    ///
    /// As for [`connect`](Self::connect).
    pub fn reconnect_fresh(&self) -> Result<Self, ServeError> {
        let p = &self.params;
        Self::connect_slot(
            &p.addr,
            p.technology,
            p.geometry,
            p.tier.clone(),
            p.retry,
            p.slot,
            false,
        )
    }

    /// Pulls the hosted shard's complete state snapshot in
    /// [`SNAPSHOT_CHUNK_LEN`]-byte chunks (back-to-back, so no batch can
    /// interleave and tear the transfer). `None` when the shard cannot
    /// snapshot. Requires an idle pipeline, like
    /// [`read_local_row`](Self::read_local_row).
    ///
    /// # Errors
    ///
    /// [`ServeError::Transport`] on link failure, a non-chunk reply,
    /// chunks that do not assemble into the advertised total, or a total
    /// above [`snapshot_len_bound`] of this session's geometry (refused
    /// before any chunk is buffered).
    pub fn fetch_snapshot(&mut self) -> Result<Option<Vec<u8>>, ServeError> {
        self.require_idle("fetch_snapshot")?;
        let bound = snapshot_len_bound(&self.params.geometry);
        let mut snapshot = Vec::new();
        loop {
            let offset = snapshot.len() as u64;
            let seq = self.next_seq;
            self.next_seq += 1;
            self.write_frame(&Frame::SnapshotPull {
                seq,
                offset,
                max_len: SNAPSHOT_CHUNK_LEN,
            })?;
            let (got_offset, total_len, data) = match self.read_frame()? {
                Frame::SnapshotChunk {
                    seq: got,
                    offset,
                    total_len,
                    data,
                } if got == seq => (offset, total_len, data),
                other => {
                    return Err(self.poison(WireError::new(
                        TransportErrorKind::Protocol,
                        format!("expected snapshot_chunk for seq {seq}, got {}", other.name()),
                    )));
                }
            };
            if total_len == 0 {
                return Ok(None);
            }
            // A claim past what this shard's geometry could encode is
            // refused before a byte of it is kept.
            if total_len > bound {
                return Err(self.poison(WireError::new(
                    TransportErrorKind::Protocol,
                    format!("snapshot of {total_len} bytes exceeds this shard's bound of {bound}"),
                )));
            }
            if got_offset != offset || data.is_empty() || offset + data.len() as u64 > total_len {
                return Err(self.poison(WireError::new(
                    TransportErrorKind::Protocol,
                    format!(
                        "snapshot chunk misassembled: offset {got_offset} (wanted {offset}), \
                         {} bytes toward {total_len}",
                        data.len()
                    ),
                )));
            }
            snapshot.extend_from_slice(&data);
            if snapshot.len() as u64 == total_len {
                telemetry::counter("serve.replica.snapshot_pulls").inc();
                return Ok(Some(snapshot));
            }
        }
    }

    /// Pushes a state snapshot into the hosted shard in
    /// [`SNAPSHOT_CHUNK_LEN`]-byte chunks; the daemon reassembles and
    /// restores atomically on the final chunk. Returns whether the
    /// restore succeeded. Requires an idle pipeline.
    ///
    /// # Errors
    ///
    /// [`ServeError::Transport`] on link failure or a rejected chunk.
    pub fn push_snapshot(&mut self, snapshot: &[u8]) -> Result<bool, ServeError> {
        self.require_idle("push_snapshot")?;
        let total_len = snapshot.len() as u64;
        let mut offset = 0u64;
        loop {
            let end = (offset + SNAPSHOT_CHUNK_LEN).min(total_len);
            let chunk = &snapshot[offset as usize..end as usize];
            let seq = self.next_seq;
            self.next_seq += 1;
            self.write_frame(&Frame::SnapshotPush {
                seq,
                offset,
                total_len,
                data: chunk.to_vec(),
            })?;
            let ok = match self.read_frame()? {
                Frame::SnapshotPushAck { seq: got, ok } if got == seq => ok,
                other => {
                    return Err(self.poison(WireError::new(
                        TransportErrorKind::Protocol,
                        format!("expected snapshot_push_ack for seq {seq}, got {}", other.name()),
                    )));
                }
            };
            if !ok {
                return Ok(false);
            }
            offset = end;
            if offset >= total_len {
                telemetry::counter("serve.replica.snapshot_pushes").inc();
                return Ok(ok);
            }
        }
    }

    /// Polls the hosted shard's reliability-health counters.
    ///
    /// # Errors
    ///
    /// [`ServeError::Transport`] on link failure or a non-health reply.
    pub fn health(&mut self) -> Result<ControllerHealth, ServeError> {
        self.require_idle("health poll")?;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.write_frame(&Frame::Health { seq })?;
        match self.read_frame()? {
            Frame::HealthReply {
                seq: got,
                uncorrectable_words,
                corrected_bits,
                scrub_rewrites,
                drift_flips,
                max_wear_fraction,
            } if got == seq => Ok(ControllerHealth {
                uncorrectable_words,
                corrected_bits,
                scrub_rewrites,
                drift_flips,
                max_wear_fraction,
            }),
            other => Err(self.poison(WireError::new(
                TransportErrorKind::Protocol,
                format!("expected health_reply for seq {seq}, got {}", other.name()),
            ))),
        }
    }

    /// Ends the session politely. Errors are ignored — the daemon drops
    /// the shard either way when the stream closes.
    pub fn shutdown(&mut self) {
        if self.poisoned.is_none() {
            let _ = Frame::Shutdown.write_with(&mut self.writer, &mut self.tx);
        }
    }
}

impl Drop for RemoteShard {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One member of the service's shard pool: an in-process [`Shard`] or a
/// [`RemoteShard`] session, answering the same calls either way.
/// [`BulkService`](crate::BulkService) holds members as
/// `Mutex<Box<dyn PoolMember>>` and never asks which kind it has.
/// Settlement order is (tick, shard, sequence) — the service reduces
/// outcomes in shard-index order every tick and each remote link settles
/// its replies in sequence order, so the response log is byte-identical
/// for any local/remote mix.
///
/// Every call returns `Result` so a member that lives across a link can
/// fail with [`ServeError::Transport`]; in-process members only fail
/// where their backend does.
pub trait PoolMember: Send {
    /// Data rows of the member's shard (identical across members by
    /// construction; validated by the service at build time).
    ///
    /// # Errors
    ///
    /// None for the members in this crate: a remote member learnt its
    /// rows at the handshake.
    fn data_rows(&self) -> Result<u64, ServeError>;

    /// Starts one coalesced batch without waiting for its outcome: a
    /// remote member writes the batch to its link, an in-process member
    /// does nothing yet. The caller must [`finish`](Self::finish) the
    /// batch, with the same `ops` and `tick_s`, before any other call on
    /// this member — one batch in flight, never one left between ticks.
    ///
    /// # Errors
    ///
    /// [`ServeError::Transport`] when a remote member's link failed or
    /// was already poisoned; nothing is then in flight.
    fn start(&mut self, ops: &[RowOp], tick_s: f64) -> Result<(), ServeError>;

    /// Finishes the batch [`start`](Self::start) began and returns its
    /// outcome: an in-process member executes it now, a remote member
    /// reads its reply. Per-op faults ride inside the outcome.
    ///
    /// # Errors
    ///
    /// [`ServeError::Transport`] when a remote member's link failed or
    /// its reply does not answer `ops`.
    fn finish(&mut self, ops: &[RowOp], tick_s: f64) -> Result<ShardBatchOutcome, ServeError>;

    /// Executes one coalesced batch: [`start`](Self::start), then
    /// [`finish`](Self::finish).
    ///
    /// # Errors
    ///
    /// As for [`start`](Self::start) and [`finish`](Self::finish).
    fn execute(&mut self, ops: &[RowOp], tick_s: f64) -> Result<ShardBatchOutcome, ServeError> {
        self.start(ops, tick_s)?;
        self.finish(ops, tick_s)
    }

    /// Maintenance read of one shard-local `row`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Backend`] for backend faults,
    /// [`ServeError::Transport`] for remote link failures.
    fn read_local_row(&mut self, row: u64) -> Result<Vec<u64>, ServeError>;

    /// The member's complete state snapshot; `Ok(None)` when the backend
    /// cannot snapshot.
    ///
    /// # Errors
    ///
    /// [`ServeError::Transport`] for remote link failures.
    fn snapshot_state(&mut self) -> Result<Option<Vec<u8>>, ServeError>;

    /// Restores the member from a snapshot, atomically. Returns whether
    /// the restore succeeded.
    ///
    /// # Errors
    ///
    /// [`ServeError::Transport`] for remote link failures.
    fn restore_state(&mut self, snapshot: &[u8]) -> Result<bool, ServeError>;

    /// The member's reliability-health counters.
    ///
    /// # Errors
    ///
    /// [`ServeError::Transport`] for remote link failures.
    fn health(&mut self) -> Result<ControllerHealth, ServeError>;

    /// Makes the member usable again after a poisoning transport
    /// failure; the caller restores its state next. A no-op by default:
    /// an in-process member's state never left the process.
    ///
    /// # Errors
    ///
    /// [`ServeError::Transport`] when the member cannot be revived — it
    /// stays poisoned and can be revived again later.
    fn revive(&mut self) -> Result<(), ServeError> {
        Ok(())
    }
}

impl PoolMember for Shard {
    fn data_rows(&self) -> Result<u64, ServeError> {
        Ok(Shard::data_rows(self))
    }

    fn start(&mut self, _ops: &[RowOp], _tick_s: f64) -> Result<(), ServeError> {
        Ok(())
    }

    fn finish(&mut self, ops: &[RowOp], tick_s: f64) -> Result<ShardBatchOutcome, ServeError> {
        Ok(Shard::execute(self, ops, tick_s))
    }

    fn read_local_row(&mut self, row: u64) -> Result<Vec<u64>, ServeError> {
        Shard::read_local_row(self, row).map_err(|source| ServeError::Backend { source })
    }

    fn snapshot_state(&mut self) -> Result<Option<Vec<u8>>, ServeError> {
        Ok(Shard::snapshot_state(self))
    }

    fn restore_state(&mut self, snapshot: &[u8]) -> Result<bool, ServeError> {
        Ok(Shard::restore_state(self, snapshot))
    }

    fn health(&mut self) -> Result<ControllerHealth, ServeError> {
        Ok(Shard::health(self))
    }
}

impl PoolMember for RemoteShard {
    fn data_rows(&self) -> Result<u64, ServeError> {
        Ok(RemoteShard::data_rows(self))
    }

    fn start(&mut self, ops: &[RowOp], tick_s: f64) -> Result<(), ServeError> {
        self.send_batch(ops, tick_s).map(drop)
    }

    fn finish(&mut self, ops: &[RowOp], _tick_s: f64) -> Result<ShardBatchOutcome, ServeError> {
        let (_, outcome) = self.recv_batch()?;
        self.check_reply(ops, &outcome)?;
        Ok(outcome)
    }

    fn read_local_row(&mut self, row: u64) -> Result<Vec<u64>, ServeError> {
        RemoteShard::read_local_row(self, row)
    }

    fn snapshot_state(&mut self) -> Result<Option<Vec<u8>>, ServeError> {
        self.fetch_snapshot()
    }

    fn restore_state(&mut self, snapshot: &[u8]) -> Result<bool, ServeError> {
        self.push_snapshot(snapshot)
    }

    fn health(&mut self) -> Result<ControllerHealth, ServeError> {
        RemoteShard::health(self)
    }

    /// Replaces this session with a **fresh** one to the same address
    /// and slot (the daemon constructs an empty shard there), dropping
    /// the old session only once the new one is up.
    fn revive(&mut self) -> Result<(), ServeError> {
        *self = self.reconnect_fresh()?;
        telemetry::counter("serve.replica.revivals").inc();
        Ok(())
    }
}

/// Locks a pool member or a daemon's shard. A thread that panicked
/// while holding the lock leaves the shard usable: the next call sees
/// whatever state its backend kept.
pub(crate) fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shared slot registry of one daemon: the shards it hosts, keyed by
/// the slot each session named at handshake. Shared across sessions so
/// a reconnect can resume (or replace) a slot's shard — the
/// connection-multiplexing surface behind `felim-shardd`.
pub type SlotRegistry = Arc<Mutex<HashMap<u64, Arc<Mutex<Shard>>>>>;

/// The daemon side: a bound listener serving shard sessions. Used by
/// the `felim-shardd` binary and, in-process, by transport tests. All
/// sessions share one [`SlotRegistry`], so one daemon hosts many shards
/// of one service (each session addresses its slot at handshake) and a
/// rebuild can reconnect to a slot after its session died.
#[derive(Debug)]
pub struct ShardHost {
    listener: TcpListener,
    addr: SocketAddr,
    registry: SlotRegistry,
}

impl ShardHost {
    /// Binds to `addr` (use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// The bind failure, verbatim.
    pub fn bind(addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(Self {
            addr: listener.local_addr()?,
            listener,
            registry: Arc::new(Mutex::new(HashMap::new())),
        })
    }

    /// The bound address (what to advertise to clients), as recorded by
    /// [`bind`](Self::bind).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Accepts and serves exactly one session on the calling thread.
    ///
    /// # Errors
    ///
    /// The accept failure, verbatim (session-level wire errors end the
    /// session silently — the client owns failure reporting).
    pub fn serve_once(&self) -> std::io::Result<()> {
        let (stream, _) = self.listener.accept()?;
        run_session_mux(stream, &self.registry);
        Ok(())
    }

    /// Accepts sessions forever, one thread per connection — the
    /// `felim-shardd` main loop. Only returns on accept failure.
    ///
    /// # Errors
    ///
    /// The accept failure, verbatim.
    pub fn serve_forever(&self) -> std::io::Result<()> {
        loop {
            let (stream, _) = self.listener.accept()?;
            let registry = Arc::clone(&self.registry);
            std::thread::spawn(move || run_session_mux(stream, &registry));
        }
    }
}

/// Serves one client session: Hello → slot lookup/construction → batch
/// loop. The daemon main loop runs one of these per connection, all
/// sharing the daemon's [`SlotRegistry`].
///
/// A **fresh** Hello (`resume = false`) constructs a new shard at its
/// slot, replacing any prior occupant — a reconnect without resume
/// always starts from a well-defined (empty) state, and no client can
/// observe a previous session's rows at that slot. A **resume** Hello
/// attaches to the shard already at the slot (failover rebuild), and is
/// refused (`data_rows == 0` ack) when the slot is empty. Wire failures
/// end the session quietly — the client side owns turning them into
/// typed errors; the shard stays in the registry for a later resume.
///
/// A snapshot pull is encoded once, at its offset-0 chunk, and later
/// chunks are cut from that copy, so pulling *S* bytes encodes *S*
/// bytes rather than one snapshot per chunk. Any other frame drops the
/// copy, so a pull restarted after a batch sees the batch. A snapshot
/// push is buffered only up to [`Shard::snapshot_len_bound`]: a push
/// that claims more, or sends more than it claimed, is refused unread.
pub fn run_session_mux(stream: TcpStream, registry: &SlotRegistry) {
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = BufWriter::new(stream);
    // Send and receive buffers, reused by every frame of the session.
    let (mut tx, mut rx) = (Vec::new(), Vec::new());

    // Handshake: exactly one Hello, answered even on version mismatch
    // so the client can diagnose `VersionMismatch` instead of a dead
    // socket.
    let shard: Arc<Mutex<Shard>> = match Frame::read_with(&mut reader, &mut rx) {
        Ok(Frame::Hello {
            version,
            technology,
            geometry,
            tier,
            slot,
            resume,
        }) => {
            let mut refuse = || {
                let _ = Frame::HelloAck {
                    version: WIRE_VERSION,
                    data_rows: 0,
                }
                .write_with(&mut writer, &mut tx);
            };
            if version != WIRE_VERSION || geometry.validate().is_err() {
                refuse();
                return;
            }
            let mut slots = lock(registry);
            if resume {
                match slots.get(&slot) {
                    Some(existing) => Arc::clone(existing),
                    None => {
                        drop(slots);
                        refuse();
                        return;
                    }
                }
            } else {
                let fresh = Arc::new(Mutex::new(Shard::new(technology, geometry, tier)));
                slots.insert(slot, Arc::clone(&fresh));
                fresh
            }
        }
        _ => return,
    };
    let data_rows = lock(&shard).data_rows();
    let ack = Frame::HelloAck {
        version: WIRE_VERSION,
        data_rows,
    };
    if ack.write_with(&mut writer, &mut tx).is_err() {
        return;
    }
    telemetry::counter("serve.remote.sessions").inc();

    // Partial snapshot-push reassembly: strictly sequential chunks,
    // restored atomically when complete, never past what this shard's
    // own geometry could encode.
    let mut push_buf: Vec<u8> = Vec::new();
    let mut push_total: u64 = 0;
    let push_bound = lock(&shard).snapshot_len_bound();
    // The snapshot a pull in progress is served from: encoded once at
    // offset 0 (or at the first pull of the session), dropped after its
    // last chunk or when any other frame arrives, so a pull never sees
    // state older than the frames before it.
    let mut pulling: Option<Vec<u8>> = None;

    loop {
        let frame = match Frame::read_with(&mut reader, &mut rx) {
            Ok(frame) => frame,
            // Any wire failure ends the session; the shard stays
            // registered for a resume.
            Err(_) => return,
        };
        if !matches!(frame, Frame::SnapshotPull { .. }) {
            pulling = None;
        }
        let sent = match frame {
            Frame::Batch { seq, tick_s, ops } => {
                let outcome = lock(&shard).execute(&ops, tick_s);
                Frame::BatchReply { seq, outcome }.write_with(&mut writer, &mut tx)
            }
            Frame::ReadRow { seq, row } => {
                let result = lock(&shard).read_local_row(row);
                Frame::ReadRowReply { seq, result }.write_with(&mut writer, &mut tx)
            }
            Frame::SnapshotPull {
                seq,
                offset,
                max_len,
            } => {
                if offset == 0 || pulling.is_none() {
                    pulling = lock(&shard).snapshot_state();
                }
                let (reply, last) = match &pulling {
                    None => (
                        Frame::SnapshotChunk {
                            seq,
                            offset: 0,
                            total_len: 0,
                            data: Vec::new(),
                        },
                        true,
                    ),
                    Some(snap) => {
                        let total_len = snap.len() as u64;
                        let start = offset.min(total_len);
                        let end = start.saturating_add(max_len).min(total_len);
                        let chunk = Frame::SnapshotChunk {
                            seq,
                            offset: start,
                            total_len,
                            data: snap[start as usize..end as usize].to_vec(),
                        };
                        (chunk, end == total_len)
                    }
                };
                if last {
                    pulling = None;
                }
                reply.write_with(&mut writer, &mut tx)
            }
            Frame::SnapshotPush {
                seq,
                offset,
                total_len,
                data,
            } => {
                // Chunks must arrive in order, agree on a total this
                // shard could have encoded and stay within it; anything
                // else aborts the transfer unbuffered (the client sees
                // `ok = false` and owns the retry).
                if offset == 0 {
                    push_buf.clear();
                    push_total = if total_len <= push_bound {
                        total_len
                    } else {
                        0
                    };
                }
                let ok = if total_len != push_total
                    || offset != push_buf.len() as u64
                    || data.len() as u64 > push_total - offset
                {
                    push_buf.clear();
                    push_total = 0;
                    false
                } else {
                    push_buf.extend_from_slice(&data);
                    if push_buf.len() as u64 >= push_total {
                        let restored = lock(&shard).restore_state(&push_buf);
                        push_buf = Vec::new();
                        push_total = 0;
                        restored
                    } else {
                        true
                    }
                };
                Frame::SnapshotPushAck { seq, ok }.write_with(&mut writer, &mut tx)
            }
            Frame::Health { seq } => {
                let h = lock(&shard).health();
                Frame::HealthReply {
                    seq,
                    uncorrectable_words: h.uncorrectable_words,
                    corrected_bits: h.corrected_bits,
                    scrub_rewrites: h.scrub_rewrites,
                    drift_flips: h.drift_flips,
                    max_wear_fraction: h.max_wear_fraction,
                }
                .write_with(&mut writer, &mut tx)
            }
            // Shutdown, a second Hello or a reply frame ends the
            // session; the shard stays registered for a resume.
            _ => return,
        };
        if sent.is_err() {
            return;
        }
    }
}

/// A `felim-shardd` child process on an ephemeral loopback port, killed
/// on drop. The daemon advertises its bound address as the first stdout
/// line (`LISTENING <addr>`), which `spawn` parses.
#[derive(Debug)]
pub struct ShardHostChild {
    child: std::process::Child,
    addr: String,
}

impl ShardHostChild {
    /// Spawns `bin --listen 127.0.0.1:0` and waits for its address
    /// line.
    ///
    /// # Errors
    ///
    /// Spawn failures, or a daemon that exits / prints garbage instead
    /// of `LISTENING <addr>`.
    pub fn spawn(bin: impl AsRef<std::ffi::OsStr>) -> std::io::Result<Self> {
        let mut child = std::process::Command::new(bin.as_ref())
            .args(["--listen", "127.0.0.1:0"])
            .stdout(std::process::Stdio::piped())
            .spawn()?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::other("shardd stdout was not captured"));
        };
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        let addr = match line.trim().strip_prefix("LISTENING ") {
            Some(addr) if !addr.is_empty() => addr.to_owned(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("shardd did not advertise an address (got {line:?})"),
                ));
            }
        };
        Ok(Self { child, addr })
    }

    /// The daemon's advertised `host:port`.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Kills the daemon now (tests that simulate peer loss).
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ShardHostChild {
    fn drop(&mut self) {
        self.kill();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use felim_arch::geometry::RowId;
    use felim_arch::ArchError;

    /// An in-process host serving `sessions` sessions on its own thread.
    fn host(sessions: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let host = ShardHost::bind("127.0.0.1:0").unwrap();
        let addr = host.local_addr();
        let handle = std::thread::spawn(move || {
            for _ in 0..sessions {
                host.serve_once().unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn remote_shard_matches_local_shard_bit_for_bit() {
        let (addr, handle) = host(1);
        let geometry = MemoryGeometry::tiny();
        let mut local = Shard::new(Technology::Feram, geometry, None);
        let mut remote = RemoteShard::connect(
            &addr.to_string(),
            Technology::Feram,
            geometry,
            None,
            ConnectRetry::default(),
        )
        .unwrap();
        assert_eq!(remote.data_rows(), local.data_rows());

        let ops = vec![
            RowOp::Write {
                row: RowId(0),
                data: vec![0b1100; 128],
            },
            RowOp::Write {
                row: RowId(1),
                data: vec![0b1010; 128],
            },
            RowOp::Nand {
                a: RowId(0),
                b: RowId(1),
                dst: RowId(2),
            },
            RowOp::Read { row: RowId(2) },
        ];
        let want = local.execute(&ops, 1e-3);
        let got = remote.execute(&ops, 1e-3).unwrap();
        assert_eq!(got, want, "remote outcome must be bit-identical");
        match &got.outputs[3] {
            Ok(RowOpOutput::Data(words)) => assert_eq!(words[0], !0b1000u64),
            other => panic!("expected data, got {other:?}"),
        }
        assert_eq!(
            remote.read_local_row(2).unwrap(),
            local.read_local_row(2).unwrap()
        );
        remote.shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn pipelined_batches_settle_in_sequence_order() {
        let (addr, handle) = host(1);
        let mut remote = RemoteShard::connect(
            &addr.to_string(),
            Technology::Feram,
            MemoryGeometry::tiny(),
            None,
            ConnectRetry::default(),
        )
        .unwrap();
        // Queue four batches before reading any reply.
        let mut seqs = Vec::new();
        for i in 0..4u64 {
            let ops = vec![RowOp::Write {
                row: RowId(i),
                data: vec![i; 128],
            }];
            seqs.push(remote.send_batch(&ops, 1e-3).unwrap());
        }
        assert_eq!(remote.inflight(), 4);
        for want in seqs {
            let (seq, outcome) = remote.recv_batch().unwrap();
            assert_eq!(seq, want);
            assert!(outcome.outputs.iter().all(Result::is_ok));
        }
        assert_eq!(remote.inflight(), 0);
        remote.shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn protected_tier_crosses_the_wire() {
        let (addr, handle) = host(1);
        let geometry = MemoryGeometry::tiny();
        let tier = Some((DriftSpec::quiet(99), 0.5));
        let mut local = Shard::new(Technology::Feram, geometry, tier.clone());
        let mut remote = RemoteShard::connect(
            &addr.to_string(),
            Technology::Feram,
            geometry,
            tier,
            ConnectRetry::default(),
        )
        .unwrap();
        let ops = vec![
            RowOp::Write {
                row: RowId(5),
                data: vec![0xF0F0; 128],
            },
            RowOp::Read { row: RowId(5) },
        ];
        assert_eq!(remote.execute(&ops, 0.5).unwrap(), local.execute(&ops, 0.5));
        remote.shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn dead_peer_poisons_the_session_with_typed_errors() {
        let (addr, handle) = host(1);
        let mut remote = RemoteShard::connect(
            &addr.to_string(),
            Technology::Feram,
            MemoryGeometry::tiny(),
            None,
            ConnectRetry::default(),
        )
        .unwrap();
        // End the daemon side by shutting down, then keep using the
        // session: the next call must be a typed Transport error, and
        // every call after that echoes the poison.
        remote.shutdown();
        handle.join().unwrap();
        let ops = vec![RowOp::Read { row: RowId(0) }];
        // The send may still land in the OS buffer; the recv must fail.
        let err = match remote.execute(&ops, 1e-3) {
            Err(e) => e,
            Ok(_) => panic!("session kept working after peer shutdown"),
        };
        match &err {
            ServeError::Transport { kind, .. } => {
                assert!(
                    matches!(
                        kind,
                        TransportErrorKind::PeerLost | TransportErrorKind::ShortRead
                    ),
                    "got {kind:?}"
                );
            }
            other => panic!("expected transport error, got {other:?}"),
        }
        assert!(matches!(
            remote.execute(&ops, 1e-3),
            Err(ServeError::Transport { .. })
        ));
    }

    #[test]
    fn connect_to_nothing_fails_after_bounded_retries() {
        // Bind-then-drop to find a port with nothing listening.
        let port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let retry = ConnectRetry {
            attempts: 2,
            base_backoff: Duration::from_millis(1),
        };
        let err = RemoteShard::connect(
            &format!("127.0.0.1:{port}"),
            Technology::Feram,
            MemoryGeometry::tiny(),
            None,
            retry,
        )
        .unwrap_err();
        match err {
            ServeError::Transport { kind, detail, .. } => {
                assert_eq!(kind, TransportErrorKind::PeerLost);
                assert!(detail.contains("2 attempts"), "{detail}");
            }
            other => panic!("expected transport error, got {other:?}"),
        }
    }

    #[test]
    fn backoff_is_bounded_and_deterministic() {
        let retry = ConnectRetry::default();
        assert_eq!(retry.backoff(0), Duration::ZERO);
        assert_eq!(retry.backoff(1), Duration::from_millis(20));
        assert_eq!(retry.backoff(2), Duration::from_millis(40));
        assert_eq!(retry.backoff(30), Duration::from_secs(1), "capped");
    }

    #[test]
    fn pool_mixes_local_and_remote_members_transparently() {
        let (addr, handle) = host(1);
        let geometry = MemoryGeometry::tiny();
        let mut local = Shard::new(Technology::Feram, geometry, None);
        let mut remote = RemoteShard::connect(
            &addr.to_string(),
            Technology::Feram,
            geometry,
            None,
            ConnectRetry::default(),
        )
        .unwrap();
        let (l, r): (&mut dyn PoolMember, &mut dyn PoolMember) = (&mut local, &mut remote);
        assert_eq!(l.data_rows().unwrap(), r.data_rows().unwrap());
        let ops = vec![
            RowOp::Write {
                row: RowId(0),
                data: vec![42; 128],
            },
            RowOp::Read { row: RowId(0) },
        ];
        let a = l.execute(&ops, 1e-3).unwrap();
        let b = r.execute(&ops, 1e-3).unwrap();
        assert_eq!(a, b, "local and remote members must agree bit-for-bit");
        assert_eq!(l.read_local_row(0).unwrap(), r.read_local_row(0).unwrap());

        // A bad row fails with the same typed error on both sides of the link.
        let beyond = 1 << 32;
        let err = l.read_local_row(beyond).unwrap_err();
        assert!(
            matches!(
                err,
                ServeError::Backend {
                    source: ArchError::RowOutOfRange { .. }
                }
            ),
            "{err:?}"
        );
        assert_eq!(r.read_local_row(beyond).unwrap_err(), err);

        let snapshot = l.snapshot_state().unwrap();
        assert!(snapshot.is_some());
        assert_eq!(r.snapshot_state().unwrap(), snapshot);
        assert!(matches!(
            r.restore_state(snapshot.as_deref().unwrap()),
            Ok(true)
        ));
        assert_eq!(l.health().unwrap(), r.health().unwrap());
        assert!(l.revive().is_ok());
        // Dropping the session itself sends Shutdown, which ends the
        // host's session and lets its thread finish.
        drop(remote);
        handle.join().unwrap();
    }

    /// A 2 MiB array of 1 KiB rows with its first `rows` rows written.
    fn filled(rows: u64) -> (MemoryGeometry, Vec<RowOp>) {
        let geometry = MemoryGeometry {
            capacity_bytes: 2 << 20,
            row_bytes: 1 << 10,
            rows_per_subarray: 64,
        };
        let ops = (0..rows)
            .map(|r| RowOp::Write {
                row: RowId(r),
                data: (0..128).map(|w| r << 32 | w).collect(),
            })
            .collect();
        (geometry, ops)
    }

    #[test]
    fn multi_chunk_snapshot_pull_equals_the_local_snapshot() {
        let (addr, handle) = host(1);
        let (geometry, ops) = filled(1500);
        let mut local = Shard::new(Technology::Feram, geometry, None);
        let mut remote = RemoteShard::connect(
            &addr.to_string(),
            Technology::Feram,
            geometry,
            None,
            ConnectRetry::default(),
        )
        .unwrap();
        assert_eq!(
            remote.execute(&ops, 1e-3).unwrap(),
            local.execute(&ops, 1e-3)
        );
        let want = local.snapshot_state().unwrap();
        assert!(
            want.len() as u64 > SNAPSHOT_CHUNK_LEN,
            "{} bytes fit one chunk",
            want.len()
        );
        assert_eq!(remote.fetch_snapshot().unwrap(), Some(want));
        drop(remote);
        handle.join().unwrap();
    }

    #[test]
    fn a_batch_between_raw_pulls_shows_in_the_next_pull() {
        const CHUNK: u64 = 64;
        let (addr, handle) = host(1);
        let (geometry, ops) = filled(8);
        let mut local = Shard::new(Technology::Feram, geometry, None);
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        let mut call = |frame: Frame| {
            frame.write_to(&mut writer).unwrap();
            Frame::read_from(&mut reader).unwrap()
        };
        let hello = Frame::Hello {
            version: WIRE_VERSION,
            technology: Technology::Feram,
            geometry,
            tier: None,
            slot: 0,
            resume: false,
        };
        assert!(matches!(call(hello), Frame::HelloAck { .. }));
        // One pull of up to CHUNK bytes at `offset`: (total_len, data).
        let pull = |call: &mut dyn FnMut(Frame) -> Frame, offset: u64| {
            let max_len = CHUNK;
            match call(Frame::SnapshotPull {
                seq: 0,
                offset,
                max_len,
            }) {
                Frame::SnapshotChunk {
                    offset: got,
                    total_len,
                    data,
                    ..
                } if got == offset => (total_len, data),
                other => panic!("expected snapshot_chunk at {offset}, got {other:?}"),
            }
        };
        let chunk = |snap: &[u8], at: usize| {
            (
                snap.len() as u64,
                snap[at..(at + CHUNK as usize).min(snap.len())].to_vec(),
            )
        };

        let before = local.snapshot_state().unwrap();
        assert!(
            before.len() as u64 > 2 * CHUNK,
            "the first pull must leave chunks to serve"
        );
        assert_eq!(pull(&mut call, 0), chunk(&before, 0));
        local.execute(&ops, 1e-3);
        let after = local.snapshot_state().unwrap();
        assert_ne!(before, after);
        assert!(matches!(
            call(Frame::Batch {
                seq: 1,
                tick_s: 1e-3,
                ops
            }),
            Frame::BatchReply { .. }
        ));
        // The batch dropped the pull's cached snapshot: a pull resumed
        // mid-way reads the new state, and so does a restarted one.
        assert_eq!(pull(&mut call, CHUNK), chunk(&after, CHUNK as usize));
        assert_eq!(pull(&mut call, 0), chunk(&after, 0));
        // Back-to-back chunks assemble to the snapshot.
        let mut pulled = Vec::new();
        while pulled.len() < after.len() {
            pulled.extend(pull(&mut call, pulled.len() as u64).1);
        }
        assert_eq!(pulled, after);
        Frame::Shutdown.write_to(&mut writer).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn version_mismatch_is_refused_with_a_typed_error() {
        // A raw listener that answers Hello with a wrong-version ack.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = BufWriter::new(stream);
            assert!(matches!(
                Frame::read_from(&mut reader).unwrap(),
                Frame::Hello { .. }
            ));
            Frame::HelloAck {
                version: WIRE_VERSION + 1,
                data_rows: 0,
            }
            .write_to(&mut writer)
            .unwrap();
        });
        let err = RemoteShard::connect(
            &addr.to_string(),
            Technology::Feram,
            MemoryGeometry::tiny(),
            None,
            ConnectRetry::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ServeError::Transport {
                kind: TransportErrorKind::VersionMismatch,
                ..
            }
        ));
        handle.join().unwrap();
    }
}
