//! Replays captured shard sessions: every frame is decoded and
//! re-encoded with the wire codec, and every `Batch` runs through a
//! shard rebuilt from the session's `Hello`, with the reliability tick,
//! `execute_batch` and `schedule` timed apart. The replay must
//! reproduce each captured `BatchReply` exactly.

use super::proxy::Session;
use felim::arch::batch::execute_batch;
use felim::arch::schedule::schedule;
use felim::arch::{
    ArchError, BulkBackend, ControllerConfig, DriftSpec, ExecStats, FeramBackend, MemoryGeometry,
    ReliabilityController,
};
use felim::serve::shard::ShardBatchOutcome;
use felim::serve::wire::crc32;
use felim::serve::{Frame, Technology};
use std::hint::black_box;
use std::time::Instant;

/// Host cost of the wire codec over every captured frame.
#[derive(Debug, Default, Clone, Copy)]
pub struct Codec {
    /// Frames decoded and re-encoded.
    pub frames: u64,
    /// Their framed bytes.
    pub bytes: u64,
    /// `Frame::read_from` time, ns.
    pub decode_ns: u64,
    /// `Frame::write_to` time, ns.
    pub encode_ns: u64,
    /// `crc32` time over the payloads, ns.
    pub crc_ns: u64,
    /// Payload bytes the CRC covered.
    pub crc_bytes: u64,
}

/// One session's replay.
#[derive(Debug, Default)]
pub struct SessionReplay {
    /// The pool member (daemon slot) the session served.
    pub slot: u64,
    /// Row-ops executed.
    pub row_ops: u64,
    /// Summed batch makespans, cycles.
    pub makespan_cycles: u64,
    /// Per batch, in order: reliability tick, `execute_batch` and
    /// `schedule` host time, ns.
    pub batch_ns: Vec<[u64; 3]>,
    /// Batches whose command log was scheduled.
    pub schedules: u64,
    /// Whether the shard ran under a reliability controller.
    pub protected: bool,
    /// Commands the rebuilt shard issued.
    pub cmds: ExecStats,
    /// Summed time from a `Batch` leaving the proxy to its
    /// `BatchReply` arriving, ns.
    pub turnaround_ns: u64,
}

/// The shard a session's `Hello` describes.
enum ReplayShard {
    Raw(Box<FeramBackend>),
    Protected(Box<ReliabilityController<FeramBackend>>),
}

impl ReplayShard {
    fn build(
        technology: Technology,
        geometry: MemoryGeometry,
        tier: Option<(DriftSpec, f64)>,
    ) -> Result<Self, String> {
        if technology != Technology::Feram {
            return Err("replay rebuilds FeRAM shards only".into());
        }
        let inner = FeramBackend::new(geometry).with_command_log();
        Ok(match tier {
            None => ReplayShard::Raw(Box::new(inner)),
            Some((drift, period)) => ReplayShard::Protected(Box::new(ReliabilityController::new(
                inner,
                ControllerConfig::protected(drift, period),
            ))),
        })
    }

    fn tick(&mut self, dt_s: f64) -> Option<ArchError> {
        match self {
            ReplayShard::Raw(_) => None,
            ReplayShard::Protected(c) => c.tick(dt_s).err(),
        }
    }

    fn backend(&mut self) -> &mut dyn BulkBackend {
        match self {
            ReplayShard::Raw(b) => b.as_mut(),
            ReplayShard::Protected(c) => c.as_mut(),
        }
    }

    fn inner(&self) -> &FeramBackend {
        match self {
            ReplayShard::Raw(b) => b,
            ReplayShard::Protected(c) => c.inner(),
        }
    }

    fn inner_mut(&mut self) -> &mut FeramBackend {
        match self {
            ReplayShard::Raw(b) => b,
            ReplayShard::Protected(c) => c.inner_mut(),
        }
    }
}

/// Decodes, re-encodes and times every frame of `frames`, returning the
/// decoded frames.
fn codec_pass(frames: &[super::proxy::Captured], codec: &mut Codec) -> Result<Vec<Frame>, String> {
    let mut decoded = Vec::with_capacity(frames.len());
    let mut out = Vec::new();
    for c in frames {
        let t = Instant::now();
        let frame =
            Frame::read_from(&mut c.bytes.as_slice()).map_err(|e| format!("decode: {e}"))?;
        let t1 = Instant::now();
        out.clear();
        frame
            .write_to(&mut out)
            .map_err(|e| format!("encode: {e}"))?;
        let t2 = Instant::now();
        if out != c.bytes {
            return Err(format!(
                "{} frame does not re-encode to its captured bytes",
                frame.name()
            ));
        }
        let payload = &c.bytes[4..c.bytes.len() - 4];
        let t3 = Instant::now();
        black_box(crc32(black_box(payload)));
        let t4 = Instant::now();
        codec.frames += 1;
        codec.bytes += c.bytes.len() as u64;
        codec.decode_ns += (t1 - t).as_nanos() as u64;
        codec.encode_ns += (t2 - t1).as_nanos() as u64;
        codec.crc_ns += (t4 - t3).as_nanos() as u64;
        codec.crc_bytes += payload.len() as u64;
        decoded.push(frame);
    }
    Ok(decoded)
}

/// Replays one captured session.
///
/// # Errors
///
/// A frame that does not round-trip, a session that does not open with
/// `Hello`, or a replayed outcome that differs from the captured reply.
pub fn replay_session(session: &Session, codec: &mut Codec) -> Result<SessionReplay, String> {
    let requests = codec_pass(&session.to_daemon, codec)?;
    let replies = codec_pass(&session.to_client, codec)?;
    let Some(Frame::Hello {
        technology,
        geometry,
        tier,
        slot,
        ..
    }) = requests.first().cloned()
    else {
        return Err("captured session does not open with hello".into());
    };
    let slots = geometry.subarrays().max(1) as usize;
    let protected = tier.is_some();
    let mut shard = ReplayShard::build(technology, geometry, tier)?;
    let mut replay = SessionReplay {
        slot,
        protected,
        ..SessionReplay::default()
    };
    let mut reply_at = session
        .to_client
        .iter()
        .zip(&replies)
        .filter_map(|(c, f)| match f {
            Frame::BatchReply { seq, outcome } => Some((c.at, *seq, outcome)),
            _ => None,
        });
    for (captured, frame) in session.to_daemon.iter().zip(&requests) {
        let Frame::Batch { seq, tick_s, ops } = frame else {
            continue;
        };
        let t0 = Instant::now();
        let maintenance_error = shard.tick(*tick_s);
        let t1 = Instant::now();
        let report = execute_batch(shard.backend(), ops);
        let t2 = Instant::now();
        let log = shard.inner().command_log();
        let (serial_cycles, makespan_cycles) = if log.is_empty() {
            (0, 0)
        } else {
            replay.schedules += 1;
            let r = schedule(
                log,
                shard.inner().geometry(),
                shard.inner().latency_model(),
                slots,
            );
            (r.serial_cycles, r.makespan_cycles)
        };
        let t3 = Instant::now();
        shard.inner_mut().clear_command_log();
        let outcome = ShardBatchOutcome {
            outputs: report.outputs,
            serial_cycles,
            makespan_cycles,
            energy_nj: report.energy_nj,
            maintenance_error,
        };
        let Some((at, reply_seq, captured_outcome)) = reply_at.next() else {
            return Err(format!("slot {slot}: batch {seq} has no captured reply"));
        };
        if reply_seq != *seq || &outcome != captured_outcome {
            return Err(format!(
                "slot {slot}: replayed batch {seq} differs from its captured reply"
            ));
        }
        replay.row_ops += ops.len() as u64;
        replay.makespan_cycles += makespan_cycles;
        replay.turnaround_ns += at.saturating_duration_since(captured.at).as_nanos() as u64;
        replay.batch_ns.push([
            (t1 - t0).as_nanos() as u64,
            (t2 - t1).as_nanos() as u64,
            (t3 - t2).as_nanos() as u64,
        ]);
    }
    if reply_at.next().is_some() {
        return Err(format!("slot {slot}: more replies than batches"));
    }
    replay.cmds = shard.backend().stats().clone();
    Ok(replay)
}
