//! Replication & failover suite: a real `felim-shardd` daemon, real
//! loopback TCP, a deterministic [`ChaosProxy`] in the middle, and the
//! full [`BulkService`] with hot standbys.
//!
//! The headline contract is the PR 10 acceptance criterion: kill the
//! primary's transport **mid-campaign** and the service fails over to a
//! standby with *zero silent corruptions*, *exactly one response per
//! request*, and a response log **byte-identical** to the no-fault
//! run's — the standby executed the same deterministic schedules, so
//! settling from its outcome is indistinguishable. The satellite
//! contracts ride along: daemon multiplexing (one child hosting many
//! slots), resume sessions, snapshot pull/push over the wire, and
//! chaos delays not perturbing the log.

use felim_arch::drift::DriftSpec;
use felim_arch::geometry::MemoryGeometry;
use felim_serve::{
    generate_trace, BulkService, ChaosProxy, ChaosSpec, ConnectRetry, PoolMember, RemoteShard,
    ReplicationConfig, ServeError, ServiceConfig, ServiceTier, ShardHostChild, Technology,
    TraceEvent, TraceSpec,
};

/// Path of the `felim-shardd` binary Cargo built for this test run.
const SHARDD: &str = env!("CARGO_BIN_EXE_felim-shardd");

fn spawn_daemon() -> ShardHostChild {
    ShardHostChild::spawn(SHARDD).expect("felim-shardd spawns and advertises an address")
}

/// Replays one trace against `config`, pumping a few idle ticks at the
/// end so background rebuilds settle; returns the serialised response
/// log and the final report.
///
/// Under `FELIM_REMOTE_POOL=1` every member the caller left local is
/// routed through a freshly spawned daemon instead, so the no-fault
/// "truth" runs exercise the wire transport just like the chaos runs —
/// the byte-identity assertions then compare remote against remote.
fn replay(mut config: ServiceConfig, trace: &TraceSpec) -> (String, felim_serve::ServiceReport) {
    let _daemon = route_unplaced_members(&mut config);
    let (vectors, events) = generate_trace(trace);
    let mut service = BulkService::new(config).expect("valid config");
    for (name, rows) in &vectors {
        service.create_vector(name, *rows).expect("vectors fit");
    }
    service.run_trace(&events);
    settle_and_log(service)
}

/// Under `FELIM_REMOTE_POOL=1`, places every member `config` left local
/// on a freshly spawned daemon, which the caller keeps alive.
fn route_unplaced_members(config: &mut ServiceConfig) -> Option<ShardHostChild> {
    if std::env::var("FELIM_REMOTE_POOL").as_deref() == Ok("1") {
        let daemon = spawn_daemon();
        let addr = daemon.addr().to_owned();
        for s in 0..config.shards {
            if !config.remote_shards.iter().any(|(i, _)| *i == s) {
                config.remote_shards.push((s, addr.clone()));
            }
        }
        if let Some(replication) = config.replication.as_mut() {
            for s in 0..config.shards {
                for r in 1..=replication.standbys {
                    if !replication.remote_standbys.iter().any(|(i, rr, _)| (*i, *rr) == (s, r)) {
                        replication.remote_standbys.push((s, r, addr.clone()));
                    }
                }
            }
        }
        Some(daemon)
    } else {
        None
    }
}

/// Pumps a few idle ticks so background rebuilds settle, then returns
/// the serialised response log and the final report.
fn settle_and_log(mut service: BulkService) -> (String, felim_serve::ServiceReport) {
    for _ in 0..32 {
        service.step();
    }
    let report = service.report();
    let log = serde_json::to_string(&service.take_responses()).expect("log serializes");
    (log, report)
}

fn base_config(tier: ServiceTier) -> ServiceConfig {
    let mut config = ServiceConfig::small(2);
    config.tier = tier;
    config.replication = Some(ReplicationConfig {
        standbys: 1,
        // A generous per-tick chunk so rebuilds complete within the
        // drain's idle ticks.
        rebuild_chunk_bytes: 1 << 20,
        ..ReplicationConfig::default()
    });
    config
}

fn small_trace() -> TraceSpec {
    let mut trace = TraceSpec::small(77);
    trace.requests = 40;
    trace
}

#[test]
fn killing_the_primary_mid_campaign_fails_over_with_a_byte_identical_log() {
    for (label, tier) in [
        ("baseline", ServiceTier::Baseline),
        (
            "protected",
            ServiceTier::Protected {
                drift: DriftSpec::quiet(23),
                scrub_period_s: 0.25,
            },
        ),
    ] {
        let trace = small_trace();
        // The truth: every member local, no faults.
        let (want_log, want_report) = replay(base_config(tier.clone()), &trace);

        // The victim: stripe 0's primary behind a chaos proxy that cuts
        // the session mid-frame partway through the campaign. Its
        // standby is local and promoted mid-tick.
        let daemon = spawn_daemon();
        let upstream = daemon.addr().parse().expect("daemon addr parses");
        let chaos = ChaosProxy::start(
            upstream,
            ChaosSpec {
                seed: 5,
                kill_mid_frame_at: Some(9),
                ..ChaosSpec::default()
            },
        )
        .expect("proxy binds");
        let mut config = base_config(tier);
        config.remote_shards = vec![(0, chaos.addr().to_string())];
        let (got_log, got_report) = replay(config, &trace);

        // Zero silent drops: exactly one response per submission, and
        // the log is byte-identical to the no-fault run — including the
        // requests in flight when the primary died.
        assert_eq!(
            got_report.stats.submitted, want_report.stats.submitted,
            "{label}: same trace, same submissions"
        );
        assert_eq!(
            got_log, want_log,
            "{label}: failover must be invisible in the response log"
        );
        let replica = got_report.replica.expect("replication configured");
        assert_eq!(replica.failovers, 1, "{label}: the kill fired exactly once");
        assert_eq!(
            got_report.stats.transport_errors, 0,
            "{label}: the standby absorbed the fault before settlement"
        );
        // The retired primary was revived through the proxy (later
        // connections pass untouched) and rebuilt from a snapshot.
        assert_eq!(replica.rebuilds_started, 1, "{label}");
        assert_eq!(replica.rebuilds_completed, 1, "{label}");
        assert_eq!(replica.divergences, 0, "{label}: replicas never diverged");
    }
}

#[test]
fn failover_recovery_stays_within_the_paced_rebuild_bound() {
    // Rebuild pacing small enough that the snapshot transfer spans
    // several ticks, so the bound is actually exercised.
    const CHUNK: u64 = 1 << 14;
    // Ticks allowed beyond the pure transfer: one to observe the fault,
    // one to snapshot, and scheduling slack.
    const SLACK: u64 = 4;

    let daemon = spawn_daemon();
    let upstream = daemon.addr().parse().expect("daemon addr parses");
    let chaos = ChaosProxy::start(
        upstream,
        ChaosSpec {
            seed: 0xA10,
            kill_mid_frame_at: Some(11),
            ..ChaosSpec::default()
        },
    )
    .expect("proxy binds");
    let mut config = base_config(ServiceTier::Baseline);
    config.seed = 0xA10;
    config.queue_depth = 256;
    config.tenant_quota = Some(256);
    config.replication = Some(ReplicationConfig {
        rebuild_chunk_bytes: CHUNK,
        ..ReplicationConfig::default()
    });
    config.remote_shards = vec![(0, chaos.addr().to_string())];

    let mut trace = TraceSpec::small(0xA10);
    trace.vector_rows = 32;
    trace.requests = 96;
    let (vectors, events) = generate_trace(&trace);
    let mut service = BulkService::new(config).expect("valid config");
    for (name, rows) in &vectors {
        service.create_vector(name, *rows).expect("vectors fit");
    }
    // Step by hand so the promotion and rejoin ticks are observed
    // exactly.
    let (mut next, mut promoted_at, mut rebuilt_at) = (0, None, None);
    for _ in 0..100_000 {
        while next < events.len() && events[next].at_tick <= service.now() {
            let ev = &events[next];
            let _ = service.submit(ev.tenant, ev.op.clone(), ev.deadline_ticks);
            next += 1;
        }
        service.step();
        let replica = service.report().replica.expect("replication configured");
        if promoted_at.is_none() && replica.failovers > 0 {
            promoted_at = Some(service.now());
        }
        if rebuilt_at.is_none() && replica.rebuilds_completed > 0 {
            rebuilt_at = Some(service.now());
        }
        if next == events.len() && service.responses().len() >= events.len() && rebuilt_at.is_some()
        {
            break;
        }
    }
    let promoted_at = promoted_at.expect("the chaos kill fires mid-campaign");
    let rebuilt_at = rebuilt_at.expect("the retired primary rebuilds");

    let report = service.report();
    let replica = report.replica.expect("replication configured");
    assert_eq!(replica.failovers, 1, "exactly one transport failover");
    assert_eq!(report.stats.transport_errors, 0, "the standby absorbed the fault");
    // The bound the design guarantees: the snapshot the rebuild actually
    // transferred, paced at CHUNK bytes per tick, plus fixed slack.
    let bound = replica.rebuild_snapshot_bytes.div_ceil(CHUNK) + SLACK;
    let recovery = rebuilt_at - promoted_at;
    assert!(
        recovery <= bound,
        "recovery took {recovery} ticks, bound is {bound} \
         (snapshot {} B at {CHUNK} B/tick)",
        replica.rebuild_snapshot_bytes
    );
}

#[test]
fn a_clean_connection_drop_also_fails_over_without_log_damage() {
    let trace = small_trace();
    let (want_log, _) = replay(base_config(ServiceTier::Baseline), &trace);

    let daemon = spawn_daemon();
    let upstream = daemon.addr().parse().expect("daemon addr parses");
    let chaos = ChaosProxy::start(
        upstream,
        ChaosSpec {
            seed: 6,
            drop_at_frame: Some(5),
            ..ChaosSpec::default()
        },
    )
    .expect("proxy binds");
    let mut config = base_config(ServiceTier::Baseline);
    config.remote_shards = vec![(1, chaos.addr().to_string())];
    let (got_log, got_report) = replay(config, &trace);

    assert_eq!(got_log, want_log);
    let replica = got_report.replica.expect("replication configured");
    assert_eq!(replica.failovers, 1);
    assert_eq!(replica.rebuilds_completed, 1);
}

/// Replays `trace` in two halves: the first half runs and drains,
/// `between` runs, then the second half runs from the current tick.
fn replay_in_halves(
    mut config: ServiceConfig,
    trace: &TraceSpec,
    between: impl FnOnce(&mut BulkService),
) -> (String, felim_serve::ServiceReport) {
    let _daemon = route_unplaced_members(&mut config);
    let (vectors, events) = generate_trace(trace);
    let mut service = BulkService::new(config).expect("valid config");
    for (name, rows) in &vectors {
        service.create_vector(name, *rows).expect("vectors fit");
    }
    let (first, second) = events.split_at(events.len() / 2);
    service.run_trace(first);
    between(&mut service);
    let shift = service.now().saturating_sub(second[0].at_tick);
    let second: Vec<TraceEvent> = second
        .iter()
        .map(|e| TraceEvent { at_tick: e.at_tick + shift, ..e.clone() })
        .collect();
    service.run_trace(&second);
    settle_and_log(service)
}

#[test]
fn a_transport_error_at_start_fails_over_with_a_byte_identical_log() {
    // Between the halves the pool idles for one replication epoch, so
    // every active member's health probe runs with nothing in flight.
    let idle_epoch = |service: &mut BulkService| {
        for _ in 0..ReplicationConfig::default().epoch_ticks {
            service.step();
        }
    };
    let trace = small_trace();
    let (want_log, want_report) =
        replay_in_halves(base_config(ServiceTier::Baseline), &trace, idle_epoch);
    let probe_vector = generate_trace(&trace).0[0].0.clone();

    // Stripe 0's primary, then its standby, on a daemon killed between
    // the halves. The primary's probe fails and poisons its session, so
    // its next `start` fails and the standby takes over mid-tick. The
    // standby fails at `finish` on its first tick after the kill and at
    // `start` on every tick after that.
    for (label, primary) in [("primary", true), ("standby", false)] {
        let mut daemon = spawn_daemon();
        let addr = daemon.addr().to_owned();
        let mut config = base_config(ServiceTier::Baseline);
        // A rebuild's revival dials the dead daemon once, not with backoff.
        config.remote_connect_attempts = 1;
        if primary {
            config.remote_shards = vec![(0, addr)];
        } else {
            let replication = config.replication.as_mut().expect("replicated");
            replication.remote_standbys = vec![(0, 1, addr)];
        }
        let (got_log, got_report) = replay_in_halves(config, &trace, |service| {
            daemon.kill();
            idle_epoch(service);
            if primary {
                // The health probe met the dead link and poisoned the
                // session, so the next tick's `start` fails on it. The
                // read fails before it reaches any shard.
                match service.read_vector(&probe_vector) {
                    Err(ServeError::Transport { detail, .. }) => {
                        assert!(detail.contains("poisoned"), "{detail}");
                    }
                    other => panic!("expected the poisoned session, got {other:?}"),
                }
            }
        });

        assert_eq!(
            got_report.stats.submitted, want_report.stats.submitted,
            "{label}: same trace, same submissions"
        );
        let responses: serde_json::Value = serde_json::from_str(&got_log).expect("log parses");
        assert_eq!(
            responses.as_array().map_or(0, Vec::len) as u64,
            got_report.stats.submitted,
            "{label}: exactly one response per submission"
        );
        assert_eq!(got_log, want_log, "{label}: the fault must be invisible in the log");
        let replica = got_report.replica.expect("replication configured");
        assert_eq!(replica.failovers, u64::from(primary), "{label}");
        assert_eq!(
            got_report.stats.transport_errors, 0,
            "{label}: the standby absorbed the fault before settlement"
        );
    }
}

#[test]
fn chaos_delays_do_not_perturb_the_response_log() {
    // Virtual time is decoupled from wall time: holding every few reply
    // frames for a few milliseconds changes nothing observable.
    let trace = small_trace();
    let (want_log, _) = replay(base_config(ServiceTier::Baseline), &trace);

    let daemon = spawn_daemon();
    let upstream = daemon.addr().parse().expect("daemon addr parses");
    let chaos = ChaosProxy::start(
        upstream,
        ChaosSpec {
            seed: 99,
            delay_every: 4,
            delay_ms: 3,
            ..ChaosSpec::default()
        },
    )
    .expect("proxy binds");
    let mut config = base_config(ServiceTier::Baseline);
    config.remote_shards = vec![(0, chaos.addr().to_string())];
    let (got_log, got_report) = replay(config, &trace);

    assert_eq!(got_log, want_log, "delays must be invisible");
    let replica = got_report.replica.expect("replication configured");
    assert_eq!(replica.failovers, 0, "no fault, no failover");
}

#[test]
fn one_daemon_multiplexes_primaries_and_standbys_across_slots() {
    // Four pool members (2 stripes × primary+standby) all behind a
    // single daemon process, distinguished only by their handshake
    // slot. The log still matches the all-local run.
    let trace = small_trace();
    let (want_log, _) = replay(base_config(ServiceTier::Baseline), &trace);

    let daemon = spawn_daemon();
    let addr = daemon.addr().to_owned();
    let mut config = base_config(ServiceTier::Baseline);
    config.remote_shards = (0..2).map(|s| (s, addr.clone())).collect();
    config.replication = Some(ReplicationConfig {
        standbys: 1,
        remote_standbys: (0..2).map(|s| (s, 1, addr.clone())).collect(),
        ..ReplicationConfig::default()
    });
    let (got_log, got_report) = replay(config, &trace);

    assert_eq!(got_log, want_log);
    assert_eq!(got_report.replica.expect("configured").failovers, 0);
}

#[test]
fn resume_sessions_reattach_and_snapshots_round_trip_over_the_wire() {
    use felim_arch::batch::{RowOp, RowOpOutput};
    use felim_arch::geometry::RowId;

    let daemon = spawn_daemon();
    let addr = daemon.addr();
    let geometry = MemoryGeometry::tiny();
    let retry = ConnectRetry::default();

    // Session 1 at slot 7: write a recognisable row, then die without
    // Shutdown — the shard must outlive the session.
    let mut first =
        RemoteShard::connect_slot(addr, Technology::Feram, geometry, None, retry, 7, false)
            .expect("fresh session");
    let outcome = first
        .execute(
            &[RowOp::Write { row: RowId(3), data: vec![0xFEED_F00D; geometry.row_words()] }],
            1e-3,
        )
        .expect("write lands");
    assert!(outcome.outputs[0].is_ok());
    drop(first);

    // Session 2 resumes slot 7 and reads the row back.
    let mut second =
        RemoteShard::connect_slot(addr, Technology::Feram, geometry, None, retry, 7, true)
            .expect("resume session");
    let outcome = second
        .execute(&[RowOp::Read { row: RowId(3) }], 1e-3)
        .expect("read runs");
    match &outcome.outputs[0] {
        Ok(RowOpOutput::Data(words)) => {
            assert!(words.iter().all(|&w| w == 0xFEED_F00D), "state survived the session");
        }
        other => panic!("expected data, got {other:?}"),
    }

    // Snapshot pull → push onto a different slot → the clone serves the
    // same row.
    let snapshot = second
        .fetch_snapshot()
        .expect("pull succeeds")
        .expect("baseline tier snapshots");
    let mut clone =
        RemoteShard::connect_slot(addr, Technology::Feram, geometry, None, retry, 8, false)
            .expect("clone session");
    assert!(clone.push_snapshot(&snapshot).expect("push succeeds"), "daemon restores");
    let outcome = clone
        .execute(&[RowOp::Read { row: RowId(3) }], 1e-3)
        .expect("read runs");
    match &outcome.outputs[0] {
        Ok(RowOpOutput::Data(words)) => {
            assert!(words.iter().all(|&w| w == 0xFEED_F00D), "snapshot carried the row");
        }
        other => panic!("expected data, got {other:?}"),
    }

    // Resuming an empty slot is refused with a typed error, not a hang.
    assert!(
        RemoteShard::connect_slot(addr, Technology::Feram, geometry, None, retry, 99, true)
            .is_err(),
        "nothing lives at slot 99"
    );
}
