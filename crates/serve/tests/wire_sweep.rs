//! Frame-decode sweep: hostile counts and lengths in every position of
//! real frames, plus seeded random byte strings, through
//! [`Frame::decode_payload`].
//!
//! Each payload must decode to `Ok` or a [`TransportErrorKind::Corrupt`]
//! error — never a panic — and no single allocation made while decoding
//! may exceed what the input could describe. Decoded runs are guarded
//! at no less than one input byte per element, so the bound is the
//! payload length times the largest element a decoded run holds, plus a
//! little room for an error message. A counting global allocator
//! measures each decode.

use felim_arch::batch::{RowOp, RowOpOutput};
use felim_arch::drift::DriftSpec;
use felim_arch::geometry::{MemoryGeometry, RowId};
use felim_arch::ArchError;
use felim_exec::derive_seed;
use felim_serve::remote::run_session_mux;
use felim_serve::shard::{snapshot_len_bound, ShardBatchOutcome};
use felim_serve::{
    ConnectRetry, Frame, RemoteShard, ServeError, SlotRegistry, Technology, TransportErrorKind,
    MAX_FRAME, WIRE_VERSION,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

include!("support/sample_frames.rs");

thread_local! {
    /// The largest request this thread made since [`largest_during`]
    /// armed it; `None` when not measuring.
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| {
        if let Some(max) = l.get() {
            l.set(Some(max.max(size)));
        }
    });
}

/// `System`, noting each request's size on the requesting thread.
struct Probe;

// SAFETY: every call forwards to `System` unchanged; `note` only
// touches a const-initialised thread-local cell and never allocates.
unsafe impl GlobalAlloc for Probe {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static PROBE: Probe = Probe;

/// Runs `f`, returning its result and the largest allocation it
/// requested on this thread.
fn largest_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(Some(0)));
    let out = f();
    (out, LARGEST.with(Cell::take).unwrap_or(0))
}

/// Seeded pseudo-random bytes (splitmix64 via `derive_seed`).
fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = derive_seed(state, 1);
            state as u8
        })
        .collect()
}

/// Decodes `payload`, asserting the outcome class and the allocation
/// bound. Returns whether it decoded.
fn decode(payload: &[u8]) -> bool {
    let elem = std::mem::size_of::<RowOp>()
        .max(std::mem::size_of::<Result<RowOpOutput, ArchError>>())
        .max(8);
    let (result, largest) = largest_during(|| Frame::decode_payload(payload));
    assert!(
        largest <= elem * payload.len() + 256,
        "{largest}-byte allocation decoding {} payload bytes",
        payload.len()
    );
    match result {
        Ok(_) => true,
        Err(e) => {
            assert_eq!(e.kind, TransportErrorKind::Corrupt, "{e}");
            false
        }
    }
}

#[test]
fn hostile_windows_and_random_bytes_decode_or_fail_corrupt() {
    let (mut windows, mut corrupt) = (0, 0);
    for frame in sample_frames() {
        let payload = frame.encode_payload();
        assert!(decode(&payload), "{} frame must decode", frame.name());
        for at in 0..payload.len().saturating_sub(7) {
            // The last count is allocatable but still far past any
            // payload here: a guard that let it through would show as
            // an over-large allocation rather than a failed one.
            for v in [u64::MAX, u64::MAX >> 1, 1 << 40, 1 << 16] {
                let mut evil = payload.clone();
                evil[at..at + 8].copy_from_slice(&v.to_le_bytes());
                windows += 1;
                corrupt += usize::from(!decode(&evil));
            }
        }
    }
    assert!(windows > 5_000, "only {windows} windows swept");
    // Windows over counts and tags are rejected; windows over row data
    // and f64 fields still decode. The sweep must reach both.
    assert!(
        0 < corrupt && corrupt < windows,
        "{corrupt} of {windows} windows rejected"
    );

    for seed in 0..5_000u64 {
        let mut bytes = random_bytes(seed, (seed % 131) as usize + 1);
        if seed % 2 == 0 {
            // Half start with a real tag (1..=13) to reach the bodies.
            bytes[0] = (seed / 2 % 13) as u8 + 1;
        }
        decode(&bytes);
    }
}

/// A length prefix is a claim, not a grant: a peer that announces a
/// `MAX_FRAME` payload, sends 1 KiB of it and hangs up gets a torn-frame
/// error without the reader ever sizing its buffer to the claim.
#[test]
fn a_bare_max_frame_prefix_cannot_size_the_receive_buffer() {
    let mut stream = (MAX_FRAME as u32).to_le_bytes().to_vec();
    stream.extend(random_bytes(7, 1 << 10));
    let (result, largest) = largest_during(|| Frame::read_from(&mut &stream[..]));
    let err = result.expect_err("a 1 KiB body cannot complete a MAX_FRAME frame");
    assert_eq!(err.kind, TransportErrorKind::ShortRead, "{err}");
    assert!(
        largest < 256 << 10,
        "{largest}-byte allocation for 1 KiB of input"
    );
}

/// A snapshot push's `total_len` is a claim as well: a peer that
/// announces more than its shard's geometry could encode and streams
/// chunks toward it is refused at every chunk, and the daemon buffers
/// none of them.
#[test]
fn an_oversized_snapshot_push_is_refused_unbuffered() {
    const CHUNK: usize = 512 << 10;
    const CHUNKS: u64 = 12;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let peer = std::thread::spawn(move || {
        let mut s = std::net::TcpStream::connect(addr).expect("connect");
        Frame::Hello {
            version: WIRE_VERSION,
            technology: Technology::Feram,
            geometry: MemoryGeometry::tiny(),
            tier: None,
            slot: 0,
            resume: false,
        }
        .write_to(&mut s)
        .expect("hello");
        let ack = Frame::read_from(&mut s).expect("hello ack");
        assert!(matches!(ack, Frame::HelloAck { data_rows, .. } if data_rows > 0));
        let data = vec![0xa5; CHUNK];
        let acks: Vec<bool> = (0..CHUNKS)
            .map(|seq| {
                Frame::SnapshotPush {
                    seq,
                    offset: seq * CHUNK as u64,
                    total_len: 64 << 20,
                    data: data.clone(),
                }
                .write_to(&mut s)
                .expect("push");
                match Frame::read_from(&mut s).expect("push ack") {
                    Frame::SnapshotPushAck { ok, .. } => ok,
                    other => panic!("expected snapshot_push_ack, got {}", other.name()),
                }
            })
            .collect();
        Frame::Shutdown.write_to(&mut s).expect("shutdown");
        acks
    });
    let (stream, _) = listener.accept().expect("accept");
    let registry = SlotRegistry::default();
    let ((), largest) = largest_during(|| run_session_mux(stream, &registry));
    let acks = peer.join().expect("peer thread");
    assert_eq!(acks, vec![false; CHUNKS as usize], "every chunk refused");
    // Each frame's own buffers are allowed; the 6 MiB sent are not.
    assert!(
        largest < 2 * CHUNK + (64 << 10),
        "{largest}-byte allocation for {CHUNKS} refused chunks of {CHUNK} bytes"
    );
}

/// The same claim in the other direction: a daemon that answers a
/// snapshot pull with a `total_len` its shard's geometry could never
/// encode, and streams chunks toward it, poisons the client session as
/// a protocol failure at the first chunk, and the client buffers none
/// of them.
#[test]
fn an_oversized_snapshot_pull_is_refused_unbuffered() {
    const CHUNK: usize = 512 << 10;
    const CHUNKS: usize = 12;
    const CLAIM: u64 = 64 << 20;
    let geometry = MemoryGeometry::tiny();
    assert!(CLAIM > snapshot_len_bound(&geometry));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let daemon = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept");
        let hello = Frame::read_from(&mut s).expect("hello");
        assert!(matches!(hello, Frame::Hello { .. }), "{}", hello.name());
        Frame::HelloAck {
            version: WIRE_VERSION,
            data_rows: 1,
        }
        .write_to(&mut s)
        .expect("hello ack");
        let data = vec![0xa5; CHUNK];
        let mut served = 0;
        // Serve pulls until the client stops asking or the chunks run
        // out, then hang up.
        while served < CHUNKS {
            let Ok(Frame::SnapshotPull { seq, offset, .. }) = Frame::read_from(&mut s) else {
                break;
            };
            let chunk = Frame::SnapshotChunk {
                seq,
                offset,
                total_len: CLAIM,
                data: data.clone(),
            };
            if chunk.write_to(&mut s).is_err() {
                break;
            }
            served += 1;
        }
        served
    });
    let mut remote = RemoteShard::connect(
        &addr.to_string(),
        Technology::Feram,
        geometry,
        None,
        ConnectRetry::default(),
    )
    .expect("connect");
    let (result, largest) = largest_during(|| remote.fetch_snapshot());
    drop(remote);
    let served = daemon.join().expect("daemon thread");
    match result {
        Err(ServeError::Transport { kind, .. }) => {
            assert_eq!(kind, TransportErrorKind::Protocol, "after {served} chunks")
        }
        other => panic!("expected a protocol failure, got {other:?}"),
    }
    assert_eq!(served, 1, "refused at the first chunk");
    // The chunk frame's own buffers are allowed; the claim is not.
    assert!(
        largest < 2 * CHUNK + (64 << 10),
        "{largest}-byte allocation for {served} chunks of {CHUNK} bytes"
    );
}

/// The probe itself works: an over-large allocation is seen.
#[test]
fn the_probe_sees_large_allocations() {
    let (v, largest) = largest_during(|| vec![0u8; 1 << 20]);
    assert_eq!(v.len(), 1 << 20);
    assert!(largest >= 1 << 20);
}
