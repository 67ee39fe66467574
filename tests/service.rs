//! Integration suite for the `felim-serve` request service.
//!
//! Two contracts matter above all others:
//!
//! 1. **Worker-count determinism** — the serialised response log of a
//!    trace replay is byte-identical under 1 and 4 workers. The service
//!    reduces shard outcomes in shard order and settles responses in
//!    request order, so `FELIM_THREADS` must only affect scheduling.
//! 2. **No silent drops** — a saturating trace produces typed
//!    `Overloaded` rejections, never panics, deadlocks, or requests
//!    that vanish: every submission has exactly one response.
//!
//! **Remote mode**: setting `FELIM_REMOTE_POOL=1` (with
//! `FELIM_SHARDD_BIN` pointing at a built `felim-shardd`) reruns every
//! test in this suite against shards hosted behind real loopback-TCP
//! `felim-shardd` daemons instead of in-process `Mutex<Shard>`s. The
//! assertions are unchanged — that is the point: the transport must be
//! observationally invisible. CI runs the suite both ways.

use felim::exec::THREADS_ENV;
use felim::serve::{
    generate_trace, BulkService, LogicalOp, Program, ServeError, ServiceConfig, ServiceReport,
    ServiceTier, ShardHostChild, TenantId, TraceSpec,
};
use felim::arch::DriftSpec;
use std::collections::BTreeMap;
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// A service plus (in remote mode) the daemon hosting its shards: the
/// child must outlive the sessions and is killed when the test drops
/// this guard. Derefs to [`BulkService`] so tests read identically in
/// both modes.
struct TestService {
    service: BulkService,
    _daemon: Option<ShardHostChild>,
}

impl std::ops::Deref for TestService {
    type Target = BulkService;
    fn deref(&self) -> &BulkService {
        &self.service
    }
}

impl std::ops::DerefMut for TestService {
    fn deref_mut(&mut self) -> &mut BulkService {
        &mut self.service
    }
}

/// Builds a service; under `FELIM_REMOTE_POOL=1` every shard is placed
/// behind a freshly spawned `felim-shardd` daemon first.
fn build(mut config: ServiceConfig) -> TestService {
    let daemon = if std::env::var("FELIM_REMOTE_POOL").as_deref() == Ok("1") {
        let bin = std::env::var("FELIM_SHARDD_BIN")
            .expect("FELIM_REMOTE_POOL=1 needs FELIM_SHARDD_BIN=<path to felim-shardd>");
        let daemon = ShardHostChild::spawn(&bin).expect("felim-shardd spawns");
        config.remote_shards = (0..config.shards)
            .map(|s| (s, daemon.addr().to_owned()))
            .collect();
        Some(daemon)
    } else {
        None
    };
    TestService {
        service: BulkService::new(config).expect("valid config"),
        _daemon: daemon,
    }
}

fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    let _guard = ENV_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    std::env::set_var(THREADS_ENV, n.to_string());
    let out = f();
    std::env::remove_var(THREADS_ENV);
    out
}

/// Replays one trace and returns the serialised response log plus the
/// serialised end-of-run report.
fn replay(config: ServiceConfig, trace: &TraceSpec) -> (String, String) {
    let (vectors, events) = generate_trace(trace);
    let mut service = build(config);
    for (name, rows) in &vectors {
        service.create_vector(name, *rows).expect("vectors fit");
    }
    service.run_trace(&events);
    let report = serde_json::to_string(&service.report()).expect("report serializes");
    let log = serde_json::to_string(&service.take_responses()).expect("log serializes");
    (log, report)
}

#[test]
fn response_log_bytes_identical_1_vs_4_workers() {
    let trace = TraceSpec::small(42);
    let run = |threads| with_threads(threads, || replay(ServiceConfig::small(4), &trace));
    let (log1, report1) = run(1);
    let (log4, report4) = run(4);
    assert_eq!(log1, log4, "response log must not depend on worker count");
    assert_eq!(report1, report4, "report must not depend on worker count");
    assert!(log1.contains("\"Ok\""));
}

#[test]
fn protected_tier_is_worker_count_deterministic_too() {
    let mut trace = TraceSpec::small(7);
    trace.requests = 32;
    let config = || {
        let mut c = ServiceConfig::small(2);
        c.tier = ServiceTier::Protected {
            drift: DriftSpec::quiet(13),
            scrub_period_s: 0.25,
        };
        c
    };
    let run = |threads| with_threads(threads, || replay(config(), &trace).0);
    assert_eq!(run(1), run(4));
}

#[test]
fn saturating_trace_sheds_with_typed_overloads_and_no_silent_drops() {
    // A single narrow shard, queue depth 4, one request per tick against
    // 32 arrivals per tick: heavily oversubscribed.
    let mut config = ServiceConfig::small(1);
    config.queue_depth = 4;
    config.batch_window = 1;
    config.tenant_quota = Some(4);
    let mut trace = TraceSpec::small(21);
    trace.requests = 120;
    trace.per_tick = 32;

    let (vectors, events) = generate_trace(&trace);
    let mut service = build(config);
    for (name, rows) in &vectors {
        service.create_vector(name, *rows).expect("vectors fit");
    }
    service.run_trace(&events);

    let stats = *service.stats();
    let responses = service.take_responses();

    // Exactly one response per submission — nothing dropped silently.
    assert_eq!(responses.len() as u64, stats.submitted);
    assert_eq!(responses.len(), events.len());
    let overloaded = responses
        .iter()
        .filter(|r| matches!(r.outcome, Err(ServeError::Overloaded { .. })))
        .count() as u64;
    assert!(
        overloaded > 0,
        "a 32×-oversubscribed shard must reject with Overloaded: {stats:?}"
    );
    assert_eq!(overloaded, stats.rejected_overloaded);
    // The counter block sums back to the offered load.
    assert_eq!(
        stats.completed
            + stats.rejected_overloaded
            + stats.rejected_quota
            + stats.rejected_invalid
            + stats.shed_deadline
            + stats.failed,
        stats.submitted
    );
    // The queue itself kept serving: the accepted prefix completed.
    assert!(stats.completed > 0);
}

/// Replays `trace` at `per_tick` arrivals per tick. The request mix
/// comes from `trace.seed` alone, so levels of one ladder differ only in
/// arrival density.
fn load_level(config: ServiceConfig, trace: &TraceSpec, per_tick: u32) -> ServiceReport {
    let mut spec = *trace;
    spec.per_tick = per_tick;
    let (vectors, events) = generate_trace(&spec);
    let mut service = build(config);
    for (name, rows) in &vectors {
        service.create_vector(name, *rows).expect("vectors fit");
    }
    service.run_trace(&events);
    service.report()
}

fn fully_accounted(report: &ServiceReport) -> bool {
    let stats = &report.stats;
    stats.completed
        + stats.rejected_overloaded
        + stats.rejected_quota
        + stats.rejected_invalid
        + stats.shed_deadline
        + stats.failed
        == stats.submitted
}

#[test]
fn offered_load_ladder_accounts_every_submission() {
    let trace = TraceSpec::small(3);
    let levels: Vec<_> = [1, 2, 16]
        .iter()
        .map(|&per_tick| load_level(ServiceConfig::small(2), &trace, per_tick))
        .collect();
    for r in &levels {
        assert!(fully_accounted(r), "unaccounted submissions: {:?}", r.stats);
        assert!(r.stats.completed > 0);
        assert!(r.sim_seconds > 0.0);
    }
    // Denser arrivals offer the same work: the ladder never changes
    // what is submitted, only when.
    assert!(levels
        .iter()
        .all(|r| r.stats.submitted == levels[0].stats.submitted));
}

#[test]
fn offered_load_past_the_knee_sheds_while_latency_stays_bounded() {
    // One shard serving one request per tick; the tenant quota is as
    // deep as the shard queue, so the queue is what binds.
    let config = |queue_depth| {
        let mut c = ServiceConfig::small(1);
        c.queue_depth = queue_depth;
        c.batch_window = 1;
        c.tenant_quota = Some(queue_depth);
        c
    };
    let mut trace = TraceSpec::small(5);
    trace.requests = 96;

    // Below the knee everything completes, each request alone in its
    // tick: the worst latency is the costliest op of the mix.
    let calm = load_level(config(4), &trace, 1);
    assert_eq!(
        calm.stats.completed, calm.stats.submitted,
        "{:?}",
        calm.stats
    );
    let worst_op = calm.latency.max;
    assert!(worst_op > 0);

    // Past it the queue sheds with typed backpressure, and a completed
    // request waited behind at most `queue_depth` others.
    let mut admitted = Vec::new();
    for queue_depth in [4, 16] {
        let r = load_level(config(queue_depth), &trace, 32);
        assert!(
            fully_accounted(&r),
            "unaccounted submissions: {:?}",
            r.stats
        );
        assert!(
            r.stats.rejected_overloaded > 0,
            "depth {queue_depth} must shed: {:?}",
            r.stats
        );
        assert!(r.stats.completed > 0);
        let bound = (queue_depth as u64 + 1) * worst_op;
        assert!(
            r.latency.max <= bound,
            "depth {queue_depth}: latency {} cycles past the {bound}-cycle queue bound",
            r.latency.max
        );
        admitted.push(r.stats.completed);
    }
    assert!(
        admitted[1] > admitted[0],
        "a deeper queue admits more: {admitted:?}"
    );
}

#[test]
fn load_level_report_is_repeatable() {
    let run = || {
        serde_json::to_string(&load_level(
            ServiceConfig::small(2),
            &TraceSpec::small(11),
            4,
        ))
        .expect("report serializes")
    };
    assert_eq!(run(), run());
}

#[test]
fn sharding_preserves_results_and_shrinks_simulated_time() {
    let trace = TraceSpec::small(9);
    let digest_of = |shards: u32| {
        let (vectors, events) = generate_trace(&trace);
        let mut service = build(ServiceConfig::small(shards));
        for (name, rows) in &vectors {
            service.create_vector(name, *rows).expect("fit");
        }
        service.run_trace(&events);
        let cycles = service.sim_cycles();
        // Vector contents must be shard-count independent.
        let mut contents = Vec::new();
        for t in 0..trace.tenants {
            for name in TraceSpec::tenant_vectors(t) {
                contents.push(service.read_vector(&name).expect("readable"));
            }
        }
        (contents, cycles)
    };
    let (one, cycles_one) = digest_of(1);
    let (four, cycles_four) = digest_of(4);
    assert_eq!(one, four, "sharding must not change any vector's bits");
    assert!(
        cycles_one as f64 >= 1.5 * cycles_four as f64,
        "1 → 4 shards must scale simulated throughput ≥1.5× \
         ({cycles_four} vs {cycles_one} cycles)"
    );
}

#[test]
fn deadlines_shed_and_quotas_bind_under_pressure() {
    let mut config = ServiceConfig::small(1);
    config.batch_window = 1;
    config.queue_depth = 16;
    config.tenant_quota = Some(2);
    let mut service = build(config);
    service.create_vector("v", 4).expect("fits");
    let t = TenantId(0);
    let read = || LogicalOp::Read { src: "v".into() };

    // Quota binds at 2 queued.
    service.submit(t, read(), Some(0)).expect("first accepted");
    service.submit(t, read(), Some(0)).expect("second accepted");
    assert!(matches!(
        service.submit(t, read(), Some(0)),
        Err(ServeError::QuotaExceeded { .. })
    ));
    // One-per-tick service with 0-tick deadlines: the second expires.
    service.drain();
    let responses = service.take_responses();
    assert_eq!(responses.len(), 3);
    assert!(responses
        .iter()
        .any(|r| matches!(r.outcome, Err(ServeError::DeadlineExceeded { .. }))));
    // Accounting drained: the tenant can submit again.
    service.submit(t, read(), None).expect("quota released");
    service.drain();
    assert!(service.take_responses().pop().expect("response").is_ok());
}

/// Builds a service with `shards` shards, runs a fixed mixed sequence of
/// writes, fused kernels, and repeated reads, and returns the serialised
/// response log, final vector contents, and simulated cycle count.
fn kernel_campaign(mut config: ServiceConfig) -> (String, Vec<Vec<Vec<u64>>>, u64) {
    // Window 1: repeated reads land in *later* batches than their first
    // read, so the digest cache (which fills at settle) can serve them.
    config.batch_window = 1;
    config.tenant_quota = Some(32);
    let mut service = build(config);
    for name in ["a", "b", "c", "d"] {
        service.create_vector(name, 8).expect("fits");
    }
    let t = TenantId(0);
    let kernel = |program: &str| LogicalOp::Kernel {
        program: program.into(),
        bindings: ["a", "b", "c", "d"]
            .iter()
            .map(|n| (n.to_string(), n.to_string()))
            .collect(),
    };
    let ops: Vec<LogicalOp> = vec![
        LogicalOp::Write { dst: "a".into(), words: vec![0xDEAD_BEEF_0123_4567] },
        LogicalOp::Write { dst: "b".into(), words: vec![0x0F0F_F0F0_AAAA_5555] },
        LogicalOp::Write { dst: "c".into(), words: vec![0x8844_2211_CCCC_3333] },
        kernel("t = a & b\nd = (t ^ ~c) | (a & b)\nc = c ^ t"),
        LogicalOp::Read { src: "d".into() },
        LogicalOp::Read { src: "d".into() }, // repeat: cache hit
        LogicalOp::Read { src: "c".into() },
        kernel("u = d | c\nd = u ^ a"), // invalidates d's cached digest
        LogicalOp::Read { src: "d".into() },
        LogicalOp::Read { src: "d".into() }, // repeat: cache hit again
    ];
    for op in ops {
        service.submit(t, op, None).expect("admitted");
    }
    service.drain();
    let log = serde_json::to_string(&service.take_responses()).expect("log serializes");
    let contents = ["a", "b", "c", "d"]
        .iter()
        .map(|n| service.read_vector(n).expect("readable"))
        .collect();
    (log, contents, service.sim_cycles())
}

/// The per-response `outcome` fields of a serialised log — what a
/// client observes, independent of how fast the service got there.
fn outcomes(log: &str) -> Vec<serde_json::Value> {
    let v: serde_json::Value = serde_json::from_str(log).expect("log parses");
    v.as_array()
        .expect("array")
        .iter()
        .map(|r| r.get("outcome").expect("outcome field").clone())
        .collect()
}

#[test]
fn kernel_responses_byte_identical_1_vs_4_workers() {
    let run = |threads| with_threads(threads, || kernel_campaign(ServiceConfig::small(4)).0);
    let (log1, log4) = (run(1), run(4));
    assert_eq!(log1, log4, "kernel response log must not depend on worker count");
    assert!(log1.contains("\"Kernel\""), "campaign must exercise the kernel path");
}

#[test]
fn kernel_results_shard_count_independent() {
    let (log1, contents1, cycles1) = kernel_campaign(ServiceConfig::small(1));
    let (log2, contents2, _) = kernel_campaign(ServiceConfig::small(2));
    let (log4, contents4, cycles4) = kernel_campaign(ServiceConfig::small(4));
    assert_eq!(contents1, contents2, "sharding must not change kernel results");
    assert_eq!(contents2, contents4, "sharding must not change kernel results");
    // Latencies shrink with shard count, but every outcome — including
    // the read digests riding in the responses — must be identical.
    assert_eq!(outcomes(&log1), outcomes(&log2));
    assert_eq!(outcomes(&log2), outcomes(&log4));
    assert!(
        cycles4 < cycles1,
        "4 shards must finish the fused kernels in less simulated time \
         ({cycles4} vs {cycles1} cycles)"
    );
}

#[test]
fn read_cache_is_transparent_and_saves_simulated_time() {
    let cache_off = || {
        let mut c = ServiceConfig::small(2);
        c.read_cache = false;
        c
    };
    let (log_on, contents_on, cycles_on) = kernel_campaign(ServiceConfig::small(2));
    let (log_off, contents_off, cycles_off) = kernel_campaign(cache_off());
    // The cache must be invisible in every observable outcome (the
    // cached digests equal the recomputed ones)...
    assert_eq!(outcomes(&log_on), outcomes(&log_off));
    assert_eq!(contents_on, contents_off);
    // ...except the simulated clock: cached repeats cost no row ops.
    assert!(
        cycles_on < cycles_off,
        "cache hits must shrink simulated time ({cycles_on} vs {cycles_off})"
    );
}

/// CRC-8/ATM generator polynomial, x^8 + x^2 + x + 1.
const CRC8_POLY: u8 = 0x07;

/// The bit-sliced CRC-8 update as one DSL program: for each message bit,
/// fold it into the running remainder and shift. Shifts are renames —
/// free in the fused plan, materialised copies in the per-op stream.
fn crc8_program() -> String {
    let mut lines = Vec::new();
    for i in 0..8 {
        lines.push(format!("fb = c7 ^ m{i}"));
        for k in (1..8).rev() {
            if (CRC8_POLY >> k) & 1 == 1 {
                lines.push(format!("c{k} = c{} ^ fb", k - 1));
            } else {
                lines.push(format!("c{k} = c{}", k - 1));
            }
        }
        lines.push("c0 = fb".to_string());
    }
    lines.join("\n")
}

/// The same update as an op-at-a-time request stream. Copies are
/// `x OR x → dst`; the shift walks top-down so every read still sees the
/// pre-shift value.
fn crc8_requests() -> Vec<LogicalOp> {
    let copy = |src: String, dst: String| LogicalOp::Or {
        a: src.clone(),
        b: src,
        dst,
    };
    let mut ops = Vec::new();
    for i in 0..8 {
        ops.push(LogicalOp::Xor {
            a: "c7".into(),
            b: format!("m{i}"),
            dst: "fb".into(),
        });
        for k in (1..8).rev() {
            if (CRC8_POLY >> k) & 1 == 1 {
                ops.push(LogicalOp::Xor {
                    a: format!("c{}", k - 1),
                    b: "fb".into(),
                    dst: format!("c{k}"),
                });
            } else {
                ops.push(copy(format!("c{}", k - 1), format!("c{k}")));
            }
        }
        ops.push(copy("fb".into(), "c0".into()));
    }
    ops
}

#[test]
fn fused_crc8_kernel_beats_the_per_op_stream_in_simulated_time() {
    // Two CRC-8 updates over 16-row slices at 4 shards, once as fused
    // kernels and once op at a time. Both must leave the same remainder;
    // the fused plan must need at most 1/1.3 of the simulated cycles.
    let run = |tier: ServiceTier, fused: bool| {
        let mut config = ServiceConfig::small(4);
        config.tier = tier;
        config.queue_depth = 256;
        config.tenant_quota = Some(256);
        config.batch_window = 8;
        // The plan peaks at 19 live scratch slots per 16-row stripe.
        config.kernel_scratch_rows = 384;
        let mut service = build(config);
        let t = TenantId(0);
        let slices: Vec<String> = (0..8)
            .flat_map(|i| [format!("c{i}"), format!("m{i}")])
            .collect();
        for (i, name) in slices.iter().chain([&"fb".to_string()]).enumerate() {
            service.create_vector(name, 16).expect("fits");
            let words = vec![felim::exec::derive_seed(0x9b8, i as u64)];
            service
                .submit(t, LogicalOp::Write { dst: name.clone(), words }, None)
                .expect("seed write admitted");
        }
        service.drain();
        for _ in 0..2 {
            if fused {
                let bindings = slices.iter().map(|n| (n.clone(), n.clone())).collect();
                let program = LogicalOp::Kernel { program: crc8_program(), bindings };
                service.submit(t, program, None).expect("kernel admitted");
            } else {
                for op in crc8_requests() {
                    service.submit(t, op, None).expect("op admitted");
                }
            }
            service.drain();
        }
        assert!(service.take_responses().iter().all(|r| r.is_ok()));
        let remainder: Vec<_> = (0..8)
            .map(|i| service.read_vector(&format!("c{i}")).expect("readable"))
            .collect();
        (remainder, service.sim_cycles())
    };
    for tier in [
        ServiceTier::Baseline,
        ServiceTier::Protected {
            drift: DriftSpec::quiet(0x9b8),
            scrub_period_s: 1.0,
        },
    ] {
        let (per_op, per_op_cycles) = run(tier.clone(), false);
        let (fused, fused_cycles) = run(tier.clone(), true);
        assert_eq!(fused, per_op, "{tier:?}: both strategies compute the same CRC");
        assert!(
            per_op_cycles as f64 >= 1.3 * fused_cycles as f64,
            "{tier:?}: fused CRC-8 must beat per-op by ≥1.3× \
             ({fused_cycles} vs {per_op_cycles} cycles)"
        );
    }
}

#[test]
fn rejected_submissions_still_get_responses() {
    let mut service = build(ServiceConfig::small(2));
    service.create_vector("a", 8).expect("fits");
    service.create_vector("short", 2).expect("fits");
    let t = TenantId(0);
    let submissions: Vec<Result<_, _>> = vec![
        service.submit(t, LogicalOp::Read { src: "ghost".into() }, None),
        service.submit(
            t,
            LogicalOp::And {
                a: "a".into(),
                b: "short".into(),
                dst: "a".into(),
            },
            None,
        ),
        service.submit(
            TenantId(99),
            LogicalOp::Read { src: "a".into() },
            None,
        ),
        service.submit(
            t,
            LogicalOp::Write {
                dst: "a".into(),
                words: vec![],
            },
            None,
        ),
    ];
    assert!(submissions.iter().all(Result::is_err));
    let responses = service.take_responses();
    assert_eq!(responses.len(), 4, "every rejection responds");
    assert!(responses.iter().all(|r| !r.is_ok()));
    assert_eq!(service.stats().rejected_invalid, 4);
    assert_eq!(service.stats().submitted, 4);
}

#[test]
fn kernel_write_back_preserves_read_before_write_order() {
    // `d = t` must see the OLD value of `a` captured into `t` before
    // `a = x` overwrites it — the plan's write-back copies must respect
    // statement order, not last-writer-wins.
    let program = "t = a\na = x\nd = t";
    let parsed = Program::parse(program).expect("parses");
    let mut env = BTreeMap::new();
    env.insert("a".to_owned(), 0xAAAAu64);
    env.insert("x".to_owned(), 0x5555u64);
    let expected = parsed.eval_words(&env);
    assert_eq!(expected["d"], 0xAAAA);

    let mut svc = build(ServiceConfig::small(1));
    for n in ["a", "x", "d"] {
        svc.create_vector(n, 4).expect("fits");
    }
    let t = TenantId(0);
    svc.submit(t, LogicalOp::Write { dst: "a".into(), words: vec![0xAAAA] }, None)
        .expect("admitted");
    svc.submit(t, LogicalOp::Write { dst: "x".into(), words: vec![0x5555] }, None)
        .expect("admitted");
    svc.submit(
        t,
        LogicalOp::Kernel {
            program: program.into(),
            bindings: vec![
                ("a".into(), "a".into()),
                ("x".into(), "x".into()),
                ("d".into(), "d".into()),
            ],
        },
        None,
    )
    .expect("admitted");
    svc.drain();
    assert!(svc.take_responses().iter().all(|r| r.is_ok()));
    let d = svc.read_vector("d").expect("readable");
    assert_eq!(d[0][0], 0xAAAA, "d must hold OLD a; got {:#x}", d[0][0]);
}

/// Runs one fixed plain-pool campaign (no replication) and returns the
/// FNV-1a digest of its serialised response log followed by its
/// serialised report.
fn plain_pool_digest(tier: ServiceTier) -> u64 {
    let mut config = ServiceConfig::small(2);
    config.tier = tier;
    config.tenant_quota = Some(32);
    assert!(config.read_cache && config.replication.is_none());
    let mut service = build(config);
    for name in ["a", "b", "c", "d"] {
        service.create_vector(name, 8).expect("fits");
    }
    let t = TenantId(0);
    let binary = |op: fn(String, String, String) -> LogicalOp, a: &str, b: &str, d: &str| {
        op(a.into(), b.into(), d.into())
    };
    let rounds: Vec<Vec<LogicalOp>> = vec![
        vec![
            LogicalOp::Write {
                dst: "a".into(),
                words: vec![0xDEAD_BEEF_0123_4567, 7],
            },
            LogicalOp::Write {
                dst: "b".into(),
                words: vec![0x0F0F_F0F0_AAAA_5555],
            },
            LogicalOp::Write {
                dst: "c".into(),
                words: vec![0x8844_2211_CCCC_3333, 1, 2],
            },
        ],
        vec![
            binary(|a, b, dst| LogicalOp::And { a, b, dst }, "a", "b", "d"),
            LogicalOp::Read { src: "d".into() },
            binary(|a, b, dst| LogicalOp::Xor { a, b, dst }, "d", "c", "b"),
            binary(|a, b, dst| LogicalOp::Nor { a, b, dst }, "a", "c", "c"),
        ],
        vec![
            LogicalOp::Read { src: "d".into() }, // cache hit
            LogicalOp::Read { src: "b".into() },
            LogicalOp::Kernel {
                program: "t = a & b\nd = (t ^ ~c) | a\nc = c ^ t".into(),
                bindings: ["a", "b", "c", "d"]
                    .iter()
                    .map(|n| (n.to_string(), n.to_string()))
                    .collect(),
            },
            LogicalOp::Not {
                src: "d".into(),
                dst: "a".into(),
            },
        ],
        vec![
            LogicalOp::Read { src: "b".into() }, // cache hit
            LogicalOp::Read { src: "d".into() }, // invalidated by the kernel
            binary(|a, b, dst| LogicalOp::Or { a, b, dst }, "a", "c", "d"),
            LogicalOp::Read { src: "d".into() },
        ],
    ];
    for round in rounds {
        for op in round {
            service.submit(t, op, None).expect("admitted");
        }
        service.drain();
    }
    let report = serde_json::to_string(&service.report()).expect("report serializes");
    let log = serde_json::to_string(&service.take_responses()).expect("log serializes");
    felim::exec::fnv1a_str(&(log + &report))
}

#[test]
fn plain_pool_log_and_report_bytes_are_pinned() {
    // Pins the plain (unreplicated) pool's observable bytes across
    // refactors of the dispatch path: any drift in responses, latencies,
    // simulated cycles, energy or counters changes the digest.
    let baseline = plain_pool_digest(ServiceTier::Baseline);
    let protected = plain_pool_digest(ServiceTier::Protected {
        drift: DriftSpec::accelerated(29, 360.0, 1e-3),
        scrub_period_s: 2e-3,
    });
    assert_eq!(
        baseline, 0xb4fb_0370_dc2b_a6ed,
        "baseline digest {baseline:#018x}"
    );
    assert_eq!(
        protected, 0xb387_86c9_ff01_cca2,
        "protected digest {protected:#018x}"
    );
}
