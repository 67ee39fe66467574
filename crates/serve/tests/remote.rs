//! Cross-process transport suite: a real `felim-shardd` daemon (spawned
//! from this build's own binary), real loopback TCP, and the full
//! [`BulkService`] running against local, remote, and mixed shard
//! pools.
//!
//! The headline contract is the PR 9 acceptance criterion: the
//! serialised response log of a trace replay is **byte-identical**
//! whether every shard is in-process, every shard is behind a daemon,
//! or the pool mixes both — on the Baseline tier and under the
//! Protected tier's drift physics. The failure-path contract rides
//! along: killing the daemon mid-session yields typed
//! [`ServeError::Transport`] responses, never panics or silent drops.

use felim_arch::batch::{RowOp, RowOpOutput};
use felim_arch::drift::DriftSpec;
use felim_serve::shard::ShardBatchOutcome;
use felim_serve::{
    generate_trace, BulkService, ConnectRetry, Frame, LogicalOp, PoolMember, RemoteShard,
    ServeError, ServiceConfig, ServiceTier, ShardHostChild, Technology, TenantId, TraceSpec,
    TransportErrorKind, WIRE_VERSION,
};
use std::io::{BufReader, BufWriter};
use std::net::TcpListener;

/// Path of the `felim-shardd` binary Cargo built for this test run.
const SHARDD: &str = env!("CARGO_BIN_EXE_felim-shardd");

fn spawn_daemon() -> ShardHostChild {
    ShardHostChild::spawn(SHARDD).expect("felim-shardd spawns and advertises an address")
}

/// Replays one trace against `config` and returns the serialised
/// response log and report.
fn replay(config: ServiceConfig, trace: &TraceSpec) -> (String, String) {
    let (vectors, events) = generate_trace(trace);
    let mut service = BulkService::new(config).expect("valid config");
    for (name, rows) in &vectors {
        service.create_vector(name, *rows).expect("vectors fit");
    }
    service.run_trace(&events);
    let report = serde_json::to_string(&service.report()).expect("report serializes");
    let log = serde_json::to_string(&service.take_responses()).expect("log serializes");
    (log, report)
}

fn config_with_remotes(tier: ServiceTier, remotes: Vec<(u32, String)>) -> ServiceConfig {
    let mut config = ServiceConfig::small(4);
    config.tier = tier;
    config.remote_shards = remotes;
    config
}

#[test]
fn response_log_is_byte_identical_across_local_remote_and_mixed_pools() {
    // One daemon serves every remote session: each connection hosts its
    // own fresh shard, so a single child can back a whole pool.
    let daemon = spawn_daemon();
    let addr = daemon.addr().to_owned();
    let mut trace = TraceSpec::small(42);
    trace.requests = 48;

    type TierCase = (&'static str, fn() -> ServiceTier);
    let tiers: [TierCase; 2] = [
        ("baseline", || ServiceTier::Baseline),
        ("protected", || ServiceTier::Protected {
            drift: DriftSpec::quiet(13),
            scrub_period_s: 0.25,
        }),
    ];
    for (label, tier) in tiers {
        let local = replay(config_with_remotes(tier(), Vec::new()), &trace);
        let remote = replay(
            config_with_remotes(
                tier(),
                (0..4).map(|s| (s, addr.clone())).collect(),
            ),
            &trace,
        );
        let mixed = replay(
            config_with_remotes(tier(), vec![(1, addr.clone()), (3, addr.clone())]),
            &trace,
        );
        assert_eq!(
            local.0, remote.0,
            "{label}: all-remote response log must match all-local"
        );
        assert_eq!(
            local.0, mixed.0,
            "{label}: mixed-pool response log must match all-local"
        );
        assert_eq!(local.1, remote.1, "{label}: reports must match");
        assert_eq!(local.1, mixed.1, "{label}: reports must match");
        assert!(local.0.contains("\"Ok\""), "{label}: replay must complete work");
    }
}

#[test]
fn pipelined_batches_settle_in_order_against_a_real_daemon() {
    use felim_arch::geometry::{MemoryGeometry, RowId};

    let daemon = spawn_daemon();
    let mut remote = RemoteShard::connect(
        daemon.addr(),
        Technology::Feram,
        MemoryGeometry::tiny(),
        None,
        ConnectRetry::default(),
    )
    .expect("handshake succeeds");

    // Queue four dependent batches without waiting — depth-4 pipeline.
    let words = remote.data_rows(); // row width probe not needed; write row 0 with a recognisable word
    assert!(words > 0);
    let row_words = {
        // Read an empty row to learn the width.
        remote.read_local_row(0).expect("fresh shard row readable").len()
    };
    let pattern = |i: u64| vec![0x1111_1111_1111_1111 * (i + 1); row_words];
    let mut seqs = Vec::new();
    for i in 0..4u64 {
        let ops = vec![
            RowOp::Write { row: RowId(0), data: pattern(i) },
            RowOp::Read { row: RowId(0) },
        ];
        seqs.push(remote.send_batch(&ops, 1e-3).expect("send pipelined"));
    }
    assert_eq!(remote.inflight(), 4);
    for (i, want_seq) in seqs.into_iter().enumerate() {
        let (seq, outcome) = remote.recv_batch().expect("reply in order");
        assert_eq!(seq, want_seq, "replies settle strictly in sequence order");
        match &outcome.outputs[1] {
            Ok(RowOpOutput::Data(words)) => {
                assert_eq!(words, &pattern(i as u64), "batch {i} sees its own write")
            }
            other => panic!("batch {i}: expected read data, got {other:?}"),
        }
    }
    assert_eq!(remote.inflight(), 0);
}

#[test]
fn every_session_gets_a_fresh_shard() {
    use felim_arch::geometry::{MemoryGeometry, RowId};

    let daemon = spawn_daemon();
    let connect = || {
        RemoteShard::connect(
            daemon.addr(),
            Technology::Feram,
            MemoryGeometry::tiny(),
            None,
            ConnectRetry::default(),
        )
        .expect("handshake succeeds")
    };
    let mut first = connect();
    let row_words = first.read_local_row(0).expect("readable").len();
    first
        .execute(
            &[RowOp::Write { row: RowId(0), data: vec![u64::MAX; row_words] }],
            1e-3,
        )
        .expect("write lands");
    assert_eq!(first.read_local_row(0).unwrap(), vec![u64::MAX; row_words]);
    drop(first);

    // A new session must never observe the previous client's rows.
    let mut second = connect();
    assert_eq!(
        second.read_local_row(0).unwrap(),
        vec![0u64; row_words],
        "a reconnect starts from a well-defined empty shard"
    );
}

#[test]
fn killing_the_daemon_mid_session_yields_typed_transport_errors() {
    let mut daemon = spawn_daemon();
    let mut config = ServiceConfig::small(1);
    config.remote_shards = vec![(0, daemon.addr().to_owned())];
    let mut service = BulkService::new(config).expect("remote pool builds");
    service.create_vector("v", 4).expect("fits");
    let t = TenantId(0);

    // The link works before the kill.
    service
        .submit(t, LogicalOp::Write { dst: "v".into(), words: vec![7] }, None)
        .expect("admitted");
    service.drain();
    assert!(
        service.take_responses().iter().all(|r| r.is_ok()),
        "pre-kill traffic completes"
    );

    daemon.kill();

    // Post-kill traffic fails with typed Transport errors — exactly one
    // response per submission, no panics, no hangs, no silent drops.
    for _ in 0..3 {
        service
            .submit(t, LogicalOp::Write { dst: "v".into(), words: vec![9] }, None)
            .expect("admission still works; failure surfaces at settlement");
    }
    service.drain();
    let responses = service.take_responses();
    assert_eq!(responses.len(), 3, "every submission gets a response");
    for r in &responses {
        match &r.outcome {
            Err(ServeError::Transport { peer, kind, .. }) => {
                assert_eq!(peer, daemon.addr());
                // The first failure is the torn link; later ones echo
                // the poisoned session. All are transport-class.
                let label = kind.label();
                assert!(
                    ["peer_lost", "short_read", "protocol"].contains(&label),
                    "unexpected transport kind {label}"
                );
            }
            other => panic!("expected a typed Transport error, got {other:?}"),
        }
    }
    assert!(service.stats().transport_errors >= 1);
    assert_eq!(service.stats().failed, 3);

    // Maintenance reads against the dead shard fail honestly too.
    assert!(matches!(
        service.read_vector("v"),
        Err(ServeError::Transport { .. })
    ));
}

#[test]
fn a_crafted_snapshot_push_is_refused_and_the_session_lives_on() {
    use felim_arch::geometry::{MemoryGeometry, RowId};
    use felim_serve::ShardHost;

    let host = ShardHost::bind("127.0.0.1:0").expect("binds");
    let addr = host.local_addr().to_string();
    let daemon = std::thread::spawn(move || host.serve_once());
    let mut shard = RemoteShard::connect(
        &addr,
        Technology::Feram,
        MemoryGeometry::tiny(),
        None,
        ConnectRetry::default(),
    )
    .expect("handshake succeeds");
    let words = MemoryGeometry::tiny().row_words();
    shard
        .execute(&[RowOp::Write { row: RowId(3), data: vec![7; words] }], 1e-3)
        .expect("write lands");
    let good = shard.fetch_snapshot().expect("link up").expect("snapshots");

    // The row count follows the version byte and the two geometry words.
    let mut crafted = good.clone();
    crafted[17..25].copy_from_slice(&(u64::MAX >> 1).to_le_bytes());
    assert!(matches!(shard.push_snapshot(&crafted), Ok(false)), "crafted count must be refused");
    shard.health().expect("the session still answers after the refusal");
    assert_eq!(shard.read_local_row(3).expect("readable"), vec![7; words]);

    drop(shard);
    daemon.join().expect("the daemon thread never panics").expect("accepted");
}

/// A scripted shard daemon on its own thread: it accepts one session,
/// acks the handshake, then answers every batch with a reply for the
/// right sequence number whose outcome is `answer(ops)`, until the
/// client hangs up.
fn scripted_daemon(
    answer: fn(&[RowOp]) -> ShardBatchOutcome,
) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = listener.local_addr().expect("bound").to_string();
    let script = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("the client connects");
        let mut reader = BufReader::new(stream.try_clone().expect("stream clones"));
        let mut writer = BufWriter::new(stream);
        let Ok(Frame::Hello { geometry, .. }) = Frame::read_from(&mut reader) else {
            panic!("the session opens with a hello");
        };
        let ack = Frame::HelloAck { version: WIRE_VERSION, data_rows: geometry.total_rows() / 2 };
        ack.write_to(&mut writer).expect("ack sent");
        while let Ok(Frame::Batch { seq, ops, .. }) = Frame::read_from(&mut reader) {
            let outcome = answer(&ops);
            if (Frame::BatchReply { seq, outcome }).write_to(&mut writer).is_err() {
                break;
            }
        }
    });
    (addr, script)
}

/// An outcome carrying `outputs` and no cost.
fn outcome(outputs: Vec<Result<RowOpOutput, felim_arch::ArchError>>) -> ShardBatchOutcome {
    ShardBatchOutcome {
        outputs,
        serial_cycles: 0,
        makespan_cycles: 0,
        energy_nj: 0.0,
        maintenance_error: None,
    }
}

fn assert_protocol(result: &Result<ShardBatchOutcome, ServeError>, case: &str) {
    assert!(
        matches!(
            result,
            Err(ServeError::Transport { kind: TransportErrorKind::Protocol, .. })
        ),
        "{case}: expected a Protocol transport error, got {result:?}"
    );
}

#[test]
fn a_short_batch_reply_fails_its_requests_without_a_panic() {
    // One output fewer than the batch has ops.
    let (addr, script) =
        scripted_daemon(|ops| outcome(vec![Ok(RowOpOutput::Done); ops.len().saturating_sub(1)]));
    let mut config = ServiceConfig::small(1);
    config.remote_shards = vec![(0, addr.clone())];
    let mut service = BulkService::new(config).expect("the handshake succeeds");
    service.create_vector("v", 4).expect("fits");
    // Both writes share one batch; the second one's outputs are the
    // ones the short reply leaves out.
    for pattern in [7, 9] {
        let op = LogicalOp::Write { dst: "v".into(), words: vec![pattern] };
        service.submit(TenantId(0), op, None).expect("admitted");
    }
    service.drain();
    let responses = service.take_responses();
    assert_eq!(responses.len(), 2, "every submission gets a response");
    for r in &responses {
        match &r.outcome {
            Err(ServeError::Transport { peer, kind: TransportErrorKind::Protocol, .. }) => {
                assert_eq!(peer, &addr);
            }
            other => panic!("expected a Protocol transport error, got {other:?}"),
        }
    }
    assert_eq!(service.stats().transport_errors, 2);
    drop(service);
    script.join().expect("the script never panics");
}

#[test]
fn a_reply_that_does_not_answer_its_ops_poisons_the_session() {
    use felim_arch::geometry::{MemoryGeometry, RowId};

    type Case = (&'static str, RowOp, fn(&[RowOp]) -> ShardBatchOutcome);
    let write = RowOp::Write { row: RowId(0), data: vec![1; MemoryGeometry::tiny().row_words()] };
    let read = RowOp::Read { row: RowId(0) };
    let cases: [Case; 4] = [
        ("no outputs", read.clone(), |_| outcome(Vec::new())),
        ("done for a read", read.clone(), |_| outcome(vec![Ok(RowOpOutput::Done)])),
        ("data for a write", write, |_| outcome(vec![Ok(RowOpOutput::Data(vec![1]))])),
        ("a one-word row", read, |_| outcome(vec![Ok(RowOpOutput::Data(vec![1]))])),
    ];
    for (case, op, answer) in cases {
        let (addr, script) = scripted_daemon(answer);
        let mut shard = RemoteShard::connect(
            &addr,
            Technology::Feram,
            MemoryGeometry::tiny(),
            None,
            ConnectRetry::default(),
        )
        .expect("handshake succeeds");
        let ops = [op];
        assert_protocol(&shard.execute(&ops, 1e-3), case);
        // The session stays poisoned with the same kind.
        assert_protocol(&shard.execute(&ops, 1e-3), case);
        assert_eq!(shard.inflight(), 0, "{case}: nothing is left in flight");
        drop(shard);
        script.join().expect("the script never panics");
    }
}
