//! A recording passthrough proxy between the service's remote shards
//! and one `felim-shardd`: bytes pass through unchanged and as they
//! arrive, while each direction's stream is split into whole wire
//! frames and kept, with the instant each frame completed, for replay.

use felim::serve::MAX_FRAME;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Splits a byte stream into whole `[len][payload][crc32]` frames.
#[derive(Debug, Default)]
pub struct FrameSplitter {
    pending: Vec<u8>,
}

impl FrameSplitter {
    /// Appends `bytes` and returns every frame they complete, each as
    /// its full framed bytes.
    ///
    /// # Errors
    ///
    /// A length prefix over the wire's frame bound: the stream is not
    /// the shard protocol.
    pub fn push(&mut self, bytes: &[u8]) -> Result<Vec<Vec<u8>>, String> {
        self.pending.extend_from_slice(bytes);
        let mut frames = Vec::new();
        let mut at = 0;
        while let Some(prefix) = self.pending.get(at..at + 4) {
            let len = u32::from_le_bytes(prefix.try_into().expect("four bytes")) as usize;
            if len > MAX_FRAME {
                return Err(format!("{len}-byte frame exceeds the wire bound"));
            }
            let end = at + 4 + len + 4;
            if self.pending.len() < end {
                break;
            }
            frames.push(self.pending[at..end].to_vec());
            at = end;
        }
        self.pending.drain(..at);
        Ok(frames)
    }

    /// Bytes of an incomplete trailing frame.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }
}

/// One frame as it passed the proxy.
#[derive(Debug, Clone)]
pub struct Captured {
    /// When its last byte was forwarded.
    pub at: Instant,
    /// The full framed bytes.
    pub bytes: Vec<u8>,
}

/// Both directions of one client session.
#[derive(Debug, Default)]
pub struct Session {
    /// Client → daemon frames, in order.
    pub to_daemon: Vec<Captured>,
    /// Daemon → client frames, in order.
    pub to_client: Vec<Captured>,
}

type Shared = Arc<Mutex<Session>>;
/// A pump thread, forwarding one direction of one session.
type Pump = JoinHandle<Result<(), String>>;
/// What the acceptor thread hands back: every session with its pumps.
type Accepted = Result<Vec<(Shared, Vec<Pump>)>, String>;

/// The running proxy.
pub struct RecordingProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: JoinHandle<Accepted>,
}

impl RecordingProxy {
    /// Listens on an ephemeral loopback port, forwarding every accepted
    /// connection to `upstream`.
    ///
    /// # Errors
    ///
    /// The bind failure.
    pub fn start(upstream: &str) -> Result<Self, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("proxy bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let stop = Arc::new(AtomicBool::new(false));
        let upstream = upstream.to_owned();
        let stopping = Arc::clone(&stop);
        let acceptor = std::thread::spawn(move || {
            let mut sessions = Vec::new();
            for client in listener.incoming() {
                if stopping.load(Ordering::SeqCst) {
                    break;
                }
                let client = client.map_err(|e| format!("proxy accept: {e}"))?;
                let daemon =
                    TcpStream::connect(&upstream).map_err(|e| format!("proxy connect: {e}"))?;
                let _ = (client.set_nodelay(true), daemon.set_nodelay(true));
                let session: Shared = Arc::default();
                let pumps = vec![
                    pump(&client, &daemon, Arc::clone(&session), true)?,
                    pump(&daemon, &client, Arc::clone(&session), false)?,
                ];
                sessions.push((session, pumps));
            }
            Ok(sessions)
        });
        Ok(Self {
            addr,
            stop,
            acceptor,
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// Stops accepting, waits for every session to end (the clients
    /// must have closed their connections), and returns the captures in
    /// connection order.
    ///
    /// # Errors
    ///
    /// A failed accept, connect or forward, or a torn trailing frame.
    pub fn finish(self) -> Result<Vec<Session>, String> {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor so it sees the stop flag.
        let _ = TcpStream::connect(self.addr);
        let sessions = self
            .acceptor
            .join()
            .map_err(|_| "proxy acceptor panicked".to_owned())??;
        let mut out = Vec::with_capacity(sessions.len());
        for (session, pumps) in sessions {
            for p in pumps {
                p.join().map_err(|_| "proxy pump panicked".to_owned())??;
            }
            let session =
                Arc::try_unwrap(session).map_err(|_| "session still shared".to_owned())?;
            out.push(
                session
                    .into_inner()
                    .map_err(|_| "session lock poisoned".to_owned())?,
            );
        }
        Ok(out)
    }
}

/// Forwards `from` → `to` until EOF, recording whole frames.
fn pump(
    from: &TcpStream,
    to: &TcpStream,
    session: Shared,
    to_daemon: bool,
) -> Result<Pump, String> {
    let mut from = from.try_clone().map_err(|e| e.to_string())?;
    let mut to = to.try_clone().map_err(|e| e.to_string())?;
    Ok(std::thread::spawn(move || {
        let mut splitter = FrameSplitter::default();
        let mut buf = vec![0u8; 64 << 10];
        loop {
            let n = match from.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            if to.write_all(&buf[..n]).is_err() {
                break;
            }
            let frames = splitter.push(&buf[..n])?;
            if !frames.is_empty() {
                let at = Instant::now();
                let mut s = session
                    .lock()
                    .map_err(|_| "session lock poisoned".to_owned())?;
                let dir = if to_daemon {
                    &mut s.to_daemon
                } else {
                    &mut s.to_client
                };
                dir.extend(frames.into_iter().map(|bytes| Captured { at, bytes }));
            }
        }
        let _ = to.shutdown(Shutdown::Write);
        match splitter.pending() {
            0 => Ok(()),
            n => Err(format!("stream ended inside a frame ({n} bytes pending)")),
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use felim::arch::batch::{RowOp, RowOpOutput};
    use felim::arch::{DriftSpec, MemoryGeometry, RowId};
    use felim::serve::shard::ShardBatchOutcome;
    use felim::serve::{Frame, Technology, WIRE_VERSION};

    fn stream() -> (Vec<Frame>, Vec<u8>) {
        let frames = vec![
            Frame::Hello {
                version: WIRE_VERSION,
                technology: Technology::Feram,
                geometry: MemoryGeometry::tiny(),
                tier: Some((DriftSpec::quiet(3), 1.0)),
                slot: 2,
                resume: false,
            },
            Frame::Batch {
                seq: 0,
                tick_s: 1e-3,
                ops: vec![
                    RowOp::Write {
                        row: RowId(0),
                        data: vec![0b1100; 128],
                    },
                    RowOp::And {
                        a: RowId(0),
                        b: RowId(0),
                        dst: RowId(1),
                    },
                ],
            },
            Frame::BatchReply {
                seq: 0,
                outcome: ShardBatchOutcome {
                    outputs: vec![Ok(RowOpOutput::Done), Ok(RowOpOutput::Data(vec![7; 128]))],
                    serial_cycles: 40,
                    makespan_cycles: 20,
                    energy_nj: 1.5,
                    maintenance_error: None,
                },
            },
        ];
        let mut bytes = Vec::new();
        for f in &frames {
            f.write_to(&mut bytes).unwrap();
        }
        (frames, bytes)
    }

    #[test]
    fn splitter_recovers_every_frame_at_any_chunking() {
        let (frames, bytes) = stream();
        for chunk in [1, 3, 7, 64, bytes.len()] {
            let mut s = FrameSplitter::default();
            let mut got = Vec::new();
            for piece in bytes.chunks(chunk) {
                got.extend(s.push(piece).unwrap());
            }
            assert_eq!(s.pending(), 0);
            assert_eq!(got.len(), frames.len(), "chunk {chunk}");
            for (raw, want) in got.iter().zip(&frames) {
                assert_eq!(&Frame::read_from(&mut raw.as_slice()).unwrap(), want);
            }
            assert_eq!(got.concat(), bytes);
        }
    }

    #[test]
    fn splitter_holds_a_torn_frame_and_refuses_oversize() {
        let (_, bytes) = stream();
        let mut s = FrameSplitter::default();
        assert!(s.push(&bytes[..bytes.len() - 1]).unwrap().len() == 2);
        assert!(s.pending() > 0);
        let mut bad = FrameSplitter::default();
        assert!(bad.push(&u32::MAX.to_le_bytes()).is_err());
    }
}
