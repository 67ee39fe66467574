//! The four service workloads. Traffic is open-loop in virtual time —
//! a fixed number of requests arrives every tick whatever the backlog,
//! and rejections count as failures — and closed-loop in host time: one
//! client thread calls `step` as fast as the service returns. Each
//! repetition replays the same trace on a fresh service.

use super::daemon::Daemon;
use super::fig6::command_metric;
use super::metrics::Sheet;
use super::proxy::{RecordingProxy, Session};
use super::replay::{replay_session, Codec, SessionReplay};
use super::stats::ratio;
use super::tracer::Tracer;
use super::workloads::{Rep, Workload};
use felim::arch::{CommandClass, DriftSpec, ExecStats, MemoryGeometry};
use felim::exec::{derive_seed, fnv1a_str, THREADS_ENV};
use felim::serve::{
    generate_trace, BulkService, KernelPlan, LatencySummary, LogicalOp, Program, ReplicationConfig,
    ResponsePayload, ServeResponse, ServiceConfig, ServiceReport, ServiceTier, TenantId,
    TraceEvent, TraceSpec,
};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

const TENANTS: u32 = 4;
const VECTOR_ROWS: u64 = 64;
const PER_TICK: u32 = 8;

/// Requests per timed repetition, and per capture pass of the traced
/// run (a prefix of the same trace).
fn sizes(kind: Workload, smoke: bool) -> (u64, u64) {
    match (kind, smoke) {
        (Workload::ServeProtected, false) => (200, 200),
        (Workload::ServeKernels, false) => (400, 400),
        (Workload::ServeReplicated, false) => (2_000, 1_000),
        (_, false) => (6_000, 2_000),
        (_, true) => (96, 48),
    }
}

/// A service workload ready to replay.
pub struct Fixture {
    /// The run's topology.
    config: ServiceConfig,
    /// The same service with every pool member in-process.
    local: ServiceConfig,
    vectors: Vec<(String, u64)>,
    events: Vec<TraceEvent>,
    capture_events: Vec<TraceEvent>,
    daemon: Option<Daemon>,
    /// The last repetition, for the traced run's attribution.
    last: Option<Summary>,
}

/// What the traced run's attribution needs from a repetition.
struct Summary {
    report: ServiceReport,
    ticks: Vec<(u64, usize)>,
    fused_ops: (u64, u64),
}

impl Fixture {
    /// Generates the trace, builds the service (spawning and connecting
    /// the shard daemon for `serve_replicated`) and serves its first
    /// tick.
    ///
    /// # Errors
    ///
    /// A daemon or service that cannot be built.
    pub fn set_up(kind: Workload, seed: u64, smoke: bool) -> Result<Self, String> {
        let (requests, capture) = sizes(kind, smoke);
        let (vectors, events) = inputs(kind, seed, requests);
        let capture_events = inputs(kind, seed, capture).1;
        let local = base_config(kind, seed);
        let (config, daemon) = if kind == Workload::ServeReplicated {
            let daemon = Daemon::spawn()?;
            let mut config = local.clone();
            if let Some(repl) = &mut config.replication {
                repl.remote_standbys = (0..config.shards)
                    .map(|s| (s, 1, daemon.addr().to_owned()))
                    .collect();
            }
            (config, Some(daemon))
        } else {
            (local.clone(), None)
        };
        let fixture = Self {
            config,
            local,
            vectors,
            events,
            capture_events,
            daemon,
            last: None,
        };
        let mut service = build(&fixture.config, &fixture.vectors)?;
        for ev in fixture.events.iter().take_while(|e| e.at_tick == 0) {
            let _ = service.submit(ev.tenant, ev.op.clone(), ev.deadline_ticks);
        }
        service.step();
        Ok(fixture)
    }

    /// One repetition: the whole trace on a fresh service. The warm-up
    /// runs every member in-process, so its log also checks that the
    /// remote topology settles identically.
    ///
    /// # Errors
    ///
    /// A service that cannot be built, stalls, or breaks the
    /// one-response-per-submission rule.
    pub fn rep(&mut self, index: Option<u64>, tracer: &mut Tracer) -> Result<Rep, String> {
        let config = if index.is_some() {
            &self.config
        } else {
            &self.local
        };
        let run = drive(config, &self.vectors, &self.events, tracer)?;
        let stats = run.report.stats;
        let exact = exact_metrics(&run);
        self.last = Some(Summary {
            report: run.report,
            ticks: run.ticks,
            fused_ops: run.fused_ops,
        });
        Ok(Rep {
            host_s: run.host_s,
            work: stats.completed,
            attempted: stats.submitted,
            failed: stats.submitted - stats.completed,
            latencies_us: run.latencies_us,
            digest: run.digest,
            exact,
        })
    }

    /// The repetition shape.
    pub fn shape(&self) -> String {
        let c = &self.config;
        format!(
            "{} requests ({} per tick, {TENANTS} tenants, {VECTOR_ROWS}-row vectors) on {} {} shards{}, window {}, queue {}",
            self.events.len(),
            PER_TICK,
            c.shards,
            c.tier.label(),
            if c.replication.is_some() { " + 1 remote standby each" } else { "" },
            c.batch_window,
            c.queue_depth
        )
    }

    /// The shard daemon's peak resident memory, MiB (0 without one).
    pub fn daemon_peak_rss_mib(&self) -> f64 {
        self.daemon.as_ref().map_or(0.0, Daemon::peak_rss_mib)
    }

    /// Per-layer attribution after the traced repetitions: service
    /// counters and span totals, a kernel-compiler replay, a
    /// `FELIM_THREADS=1` pass, and an all-remote capture pass whose
    /// frames are replayed through the codec and rebuilt shards. `pool`
    /// is the telemetry build's `exec.pool.tasks` and
    /// `exec.pool.dispatches` per repetition of the same trace.
    ///
    /// # Errors
    ///
    /// Any output check of the passes: local and remote logs that
    /// differ, or a replay that does not reproduce every captured reply
    /// and per-shard makespan.
    pub fn measure_layers(
        &self,
        tracer: &Tracer,
        pool: (f64, f64),
        sheet: &mut Sheet,
    ) -> Result<(), String> {
        let last = self.last.as_ref().ok_or("no traced repetition")?;
        let report = &last.report;
        let stats = report.stats;
        let (submits, submit_ns) = tracer.total("serve.submit");
        let (steps, step_ns) = tracer.total("serve.step");
        sheet.set_mean("serve.submit.us_per_call", submit_ns as f64 / 1e3, submits);
        sheet.set_mean("serve.step.us_per_tick", step_ns as f64 / 1e3, steps);
        let ticks = last.ticks.len() as u64;
        let busy = last.ticks.iter().filter(|t| t.1 > 0).count() as u64;
        sheet.set(
            "serve.step.idle_share",
            ratio((ticks - busy) as f64, ticks as f64),
            ticks,
        );
        let dispatched: usize = last.ticks.iter().map(|t| t.1).sum();
        sheet.set_mean("serve.batch.reqs_per_tick", dispatched as f64, busy);
        let row_ops: u64 = report.per_shard.iter().map(|l| l.row_ops).sum();
        sheet.set_mean("serve.row_ops_per_req", row_ops as f64, stats.completed);
        let spans: Vec<f64> = report
            .per_shard
            .iter()
            .map(|l| l.makespan_cycles as f64)
            .collect();
        let mean = spans.iter().sum::<f64>() / spans.len() as f64;
        let max = spans.iter().copied().fold(0.0, f64::max);
        sheet.set(
            "serve.shard.makespan_imbalance",
            ratio(max, mean),
            spans.len() as u64,
        );
        let depth = report
            .per_shard
            .iter()
            .map(|l| l.max_queue_depth)
            .max()
            .unwrap_or(0);
        sheet.set("serve.queue.max_depth", depth as f64, spans.len() as u64);
        sheet.set("serve.retries", stats.retries as f64, 1);
        let rejected = stats.rejected_overloaded + stats.rejected_quota + stats.rejected_invalid;
        sheet.set("serve.rejected", rejected as f64, 1);

        let kernel_requests = self
            .events
            .iter()
            .filter(|e| matches!(e.op, LogicalOp::Kernel { .. }))
            .count() as u64;
        if kernel_requests > 0 {
            sheet.set_mean(
                "serve.plan_cache.hit_ratio",
                stats.plan_cache_hits as f64,
                kernel_requests,
            );
            let (fused, kernels) = last.fused_ops;
            sheet.set_mean("plan.fused_ops_per_kernel", fused as f64, kernels);
            let (programs, us) = compile_replay(&self.events)?;
            sheet.set_mean("plan.compile.us_per_program", us, programs);
        }
        let reads = stats.cache_hits + stats.cache_misses;
        sheet.set_mean("serve.read_cache.hit_ratio", stats.cache_hits as f64, reads);

        let (tasks, dispatches) = pool;
        sheet.set(
            "exec.pool.tasks_per_dispatch",
            ratio(tasks, dispatches),
            dispatches as u64,
        );
        sheet.set(
            "exec.pool.dispatches_per_tick",
            ratio(dispatches, ticks as f64),
            ticks,
        );
        if let Some(replica) = report.replica {
            let settled = report.energy_mj * 1e6;
            sheet.set(
                "replica.standby_energy_share",
                ratio(
                    replica.standby_energy_nj,
                    settled + replica.standby_energy_nj,
                ),
                stats.completed,
            );
            sheet.set(
                "replica.dispatches_per_tick",
                ratio(tasks, busy as f64),
                busy,
            );
            sheet.set("replica.divergences", replica.divergences as f64, 1);
            sheet.set(
                "replica.failovers",
                (replica.failovers + replica.planned_failovers) as f64,
                1,
            );
            if replica.divergences + replica.failovers + replica.planned_failovers > 0 {
                return Err("replicas diverged or failed over in a fault-free run".into());
            }
        }

        // FELIM_THREADS=1: shard work runs serially inside `step`.
        let serial = with_threads("1", || {
            drive(
                &self.local,
                &self.vectors,
                &self.capture_events,
                &mut Tracer::off(),
            )
        })?;
        let (remote, sessions) = self.capture()?;
        if remote.digest != serial.digest {
            return Err(
                "the all-remote capture pass settled a different log than the local pass".into(),
            );
        }
        let mut codec = Codec::default();
        let replays = sessions
            .iter()
            .map(|s| replay_session(s, &mut codec))
            .collect::<Result<Vec<_>, _>>()?;
        check_makespans(&replays, &remote.report)?;
        self.attribute(
            sheet,
            &serial,
            &remote,
            &replays,
            codec,
            submit_ns as f64 / submits.max(1) as f64,
        )
    }

    /// Replays the capture-length trace with every pool member behind a
    /// recording proxy in front of one fresh daemon.
    fn capture(&self) -> Result<(Drive, Vec<Session>), String> {
        let daemon = Daemon::spawn()?;
        let proxy = RecordingProxy::start(daemon.addr())?;
        let (addr, mut config) = (proxy.addr(), self.local.clone());
        let shards = config.shards;
        config.remote_shards = (0..shards).map(|s| (s, addr.clone())).collect();
        if let Some(repl) = &mut config.replication {
            repl.remote_standbys.clear();
            for s in 0..shards {
                for r in 1..=repl.standbys {
                    repl.remote_standbys.push((s, r, addr.clone()));
                }
            }
        }
        let run = drive(
            &config,
            &self.vectors,
            &self.capture_events,
            &mut Tracer::off(),
        );
        let sessions = proxy.finish();
        drop(daemon);
        Ok((run?, sessions?))
    }

    /// Wire, arch and residual-time metrics from the passes.
    fn attribute(
        &self,
        sheet: &mut Sheet,
        serial: &Drive,
        remote: &Drive,
        replays: &[SessionReplay],
        codec: Codec,
        submit_ns: f64,
    ) -> Result<(), String> {
        let requests = remote.report.stats.completed;
        sheet.set_mean("wire.frames_per_req", codec.frames as f64, requests);
        sheet.set_mean("wire.bytes_per_req", codec.bytes as f64, requests);
        sheet.set_mean(
            "wire.decode.ns_per_frame",
            codec.decode_ns as f64,
            codec.frames,
        );
        sheet.set_mean(
            "wire.encode.ns_per_frame",
            codec.encode_ns as f64,
            codec.frames,
        );
        sheet.set(
            "wire.crc.ns_per_kib",
            ratio(codec.crc_ns as f64, codec.crc_bytes as f64 / 1024.0),
            codec.frames,
        );
        let batches: u64 = replays.iter().map(|r| r.batch_ns.len() as u64).sum();
        let turnaround: u64 = replays.iter().map(|r| r.turnaround_ns).sum();
        sheet.set_mean(
            "remote.turnaround.us_per_batch",
            turnaround as f64 / 1e3,
            batches,
        );

        let sum = |k: usize| {
            replays
                .iter()
                .flat_map(|r| r.batch_ns.iter())
                .map(|b| b[k])
                .sum::<u64>() as f64
        };
        let (tick_ns, exec_ns, sched_ns) = (sum(0), sum(1), sum(2));
        let row_ops: u64 = replays.iter().map(|r| r.row_ops).sum();
        let schedules: u64 = replays.iter().map(|r| r.schedules).sum();
        sheet.set_mean("arch.execute_batch.ns_per_row_op", exec_ns, row_ops);
        sheet.set_mean("arch.schedule.us_per_batch", sched_ns / 1e3, schedules);
        if replays.iter().any(|r| r.protected) {
            sheet.set_mean("arch.controller.tick.us_per_tick", tick_ns / 1e3, batches);
        }
        let mut cmds = ExecStats::new();
        for r in replays {
            cmds.merge(&r.cmds);
        }
        for class in CommandClass::ALL {
            sheet.set_mean(command_metric(class), cmds.count(class) as f64, requests);
        }

        // Residual: each serial tick's step time minus its replayed
        // children — the k-th busy tick dispatched the k-th batch of
        // every session.
        let busy = serial.ticks.iter().filter(|t| t.1 > 0).count();
        if replays.iter().any(|r| r.batch_ns.len() != busy) {
            return Err(format!(
                "{busy} busy ticks, but a session replayed a different batch count"
            ));
        }
        let mut k = 0;
        let mut residual_ns = 0.0;
        for &(step_ns, dispatched) in &serial.ticks {
            residual_ns += step_ns as f64;
            if dispatched > 0 {
                residual_ns -= replays
                    .iter()
                    .map(|r| r.batch_ns[k].iter().sum::<u64>())
                    .sum::<u64>() as f64;
                k += 1;
            }
        }
        let ticks = serial.ticks.len() as u64;
        sheet.set_mean("serve.step.residual_us_per_tick", residual_ns / 1e3, ticks);
        let served = serial.report.stats.completed;
        sheet.set("host.us_per_req.submit", submit_ns / 1e3, requests);
        sheet.set_mean("host.us_per_req.serve_residual", residual_ns / 1e3, served);
        sheet.set_mean("host.us_per_req.arch", (exec_ns + sched_ns) / 1e3, requests);
        sheet.set_mean("host.us_per_req.controller", tick_ns / 1e3, requests);
        Ok(())
    }
}

/// Every session's summed replayed makespan must equal the capture
/// run's per-shard makespan of its stripe (standbys replay the
/// stripe's primary exactly).
fn check_makespans(replays: &[SessionReplay], report: &ServiceReport) -> Result<(), String> {
    let stripes = report.per_shard.len() as u64;
    for r in replays {
        let want = report.per_shard[(r.slot % stripes) as usize].makespan_cycles;
        if r.makespan_cycles != want {
            return Err(format!(
                "slot {}: replayed makespan {} cycles, the run reported {want}",
                r.slot, r.makespan_cycles
            ));
        }
    }
    if !(replays.len() as u64).is_multiple_of(stripes) || replays.is_empty() {
        return Err(format!(
            "{} captured sessions for {stripes} stripes",
            replays.len()
        ));
    }
    Ok(())
}

/// One replay of a trace.
struct Drive {
    log: Vec<ServeResponse>,
    digest: u64,
    latencies_us: Vec<f64>,
    host_s: f64,
    report: ServiceReport,
    /// Per tick: host ns inside `step`, requests it dispatched.
    ticks: Vec<(u64, usize)>,
    /// Summed fused row-ops and count of completed kernels.
    fused_ops: (u64, u64),
}

fn build(config: &ServiceConfig, vectors: &[(String, u64)]) -> Result<BulkService, String> {
    let mut service = BulkService::new(config.clone()).map_err(|e| format!("service: {e}"))?;
    for (name, rows) in vectors {
        service
            .create_vector(name, *rows)
            .map_err(|e| format!("vector {name}: {e}"))?;
    }
    Ok(service)
}

/// Replays `events` on a fresh service: submits each tick's arrivals,
/// steps, and drains responses, timing each request from its
/// submission to the drain that returned its response.
fn drive(
    config: &ServiceConfig,
    vectors: &[(String, u64)],
    events: &[TraceEvent],
    tracer: &mut Tracer,
) -> Result<Drive, String> {
    let mut service = build(config, vectors)?;
    let mut submitted_at: Vec<Instant> = Vec::with_capacity(events.len());
    let mut log: Vec<ServeResponse> = Vec::with_capacity(events.len());
    let mut latencies_us = Vec::with_capacity(events.len());
    let mut ticks = Vec::new();
    let mut idle_in_a_row = 0u32;
    let mut next = 0;
    tracer.open("serve.replay");
    let started = Instant::now();
    while next < events.len() || log.len() < submitted_at.len() {
        while let Some(ev) = events.get(next).filter(|e| e.at_tick <= service.now()) {
            let op = ev.op.clone();
            let t = Instant::now();
            let _ = service.submit(ev.tenant, op, ev.deadline_ticks);
            tracer.record(
                "serve.submit",
                t,
                Instant::now(),
                Some(submitted_at.len() as u64),
            );
            submitted_at.push(t);
            next += 1;
        }
        let t = Instant::now();
        let dispatched = service.step();
        let stepped = Instant::now();
        tracer.record("serve.step", t, stepped, None);
        ticks.push(((stepped - t).as_nanos() as u64, dispatched));
        let drained = service.take_responses();
        let now = Instant::now();
        tracer.record("serve.drain", stepped, now, None);
        for r in drained {
            let at = submitted_at
                .get(r.request.0 as usize)
                .ok_or("response to an unknown request")?;
            latencies_us.push((now - *at).as_secs_f64() * 1e6);
            log.push(r);
        }
        idle_in_a_row = if dispatched == 0 {
            idle_in_a_row + 1
        } else {
            0
        };
        if idle_in_a_row > 10_000 {
            return Err(format!(
                "service stalled with {} of {} responses",
                log.len(),
                submitted_at.len()
            ));
        }
    }
    let host_s = started.elapsed().as_secs_f64();
    tracer.close();
    let mut seen = vec![false; submitted_at.len()];
    for r in &log {
        let slot = &mut seen[r.request.0 as usize];
        if *slot {
            return Err(format!("{} answered twice", r.request));
        }
        *slot = true;
    }
    let report = service.report();
    drop(service);
    let digest = fnv1a_str(&serde_json::to_string(&log).expect("log serialises"));
    let fused_ops = log.iter().fold((0, 0), |(f, n), r| match r.outcome {
        Ok(ResponsePayload::Kernel { fused_ops, .. }) => (f + fused_ops, n + 1),
        _ => (f, n),
    });
    Ok(Drive {
        log,
        digest,
        latencies_us,
        host_s,
        report,
        ticks,
        fused_ops,
    })
}

/// Simulated results of one replay — identical across repetitions.
fn exact_metrics(run: &Drive) -> Vec<(&'static str, f64)> {
    let stats = run.report.stats;
    let latency = LatencySummary::from_latencies(
        run.log
            .iter()
            .filter(|r| r.is_ok())
            .map(|r| r.latency_cycles)
            .collect(),
    );
    let standby = run.report.replica.map_or(0.0, |r| r.standby_energy_nj);
    vec![
        (
            "sim_req_per_s",
            ratio(stats.completed as f64, run.report.sim_seconds),
        ),
        ("sim_latency_cycles_p50", latency.p50 as f64),
        ("sim_latency_cycles_p99", latency.p99 as f64),
        (
            "energy_nj_per_req",
            ratio(run.report.energy_mj * 1e6 + standby, stats.completed as f64),
        ),
        (
            "failed_share",
            ratio(
                (stats.submitted - stats.completed) as f64,
                stats.submitted as f64,
            ),
        ),
    ]
}

/// Runs `f` with `FELIM_THREADS` set to `threads`. Called only while the
/// benchmark runs no other thread of its own.
fn with_threads<T>(threads: &str, f: impl FnOnce() -> T) -> T {
    let saved = std::env::var_os(THREADS_ENV);
    std::env::set_var(THREADS_ENV, threads);
    let out = f();
    match saved {
        Some(v) => std::env::set_var(THREADS_ENV, v),
        None => std::env::remove_var(THREADS_ENV),
    }
    out
}

/// Parses and compiles each distinct kernel program of the trace, as
/// admission does on a plan-cache miss. Returns the program count and
/// the summed time, microseconds.
fn compile_replay(events: &[TraceEvent]) -> Result<(u64, f64), String> {
    let mut seen = HashSet::new();
    let (mut programs, mut us) = (0u64, 0.0);
    for ev in events {
        let LogicalOp::Kernel { program, bindings } = &ev.op else {
            continue;
        };
        if !seen.insert((program, bindings)) {
            continue;
        }
        let t = Instant::now();
        let parsed = Program::parse(program).map_err(|e| e.to_string())?;
        black_box(KernelPlan::compile(&parsed, bindings).map_err(|e| e.to_string())?);
        us += t.elapsed().as_secs_f64() * 1e6;
        programs += 1;
    }
    Ok((programs, us))
}

fn base_config(kind: Workload, seed: u64) -> ServiceConfig {
    let mut c = ServiceConfig::small(4);
    c.queue_depth = 64;
    c.batch_window = 8;
    c.seed = seed;
    match kind {
        Workload::ServeProtected => {
            c.tier = ServiceTier::Protected {
                drift: DriftSpec::quiet(seed),
                scrub_period_s: 1.0,
            };
        }
        Workload::ServeKernels => {
            // 4 tenants × 25 vectors × 16 rows per shard, plus the CRC-8
            // plan's peak of 19 scratch slots × 16 rows.
            c.shard_geometry = MemoryGeometry {
                capacity_bytes: 2 << 20,
                row_bytes: 1 << 10,
                rows_per_subarray: 64,
            };
            c.kernel_scratch_rows = 320;
        }
        Workload::ServeReplicated => {
            c.shards = 2;
            c.replication = Some(ReplicationConfig::default());
        }
        _ => {}
    }
    c
}

/// The vectors to create and the trace of `requests` requests (after
/// the per-vector initial writes). A shorter trace of the same seed is
/// a prefix of a longer one.
fn inputs(kind: Workload, seed: u64, requests: u64) -> (Vec<(String, u64)>, Vec<TraceEvent>) {
    if kind == Workload::ServeKernels {
        return kernel_trace(seed, requests);
    }
    generate_trace(&TraceSpec {
        tenants: TENANTS,
        vector_rows: VECTOR_ROWS,
        requests,
        per_tick: PER_TICK,
        deadline_ticks: None,
        seed,
    })
}

/// CRC-8/ATM generator polynomial, x^8 + x^2 + x + 1.
const POLY: u8 = 0x07;

/// The bit-sliced CRC-8 update over eight message-bit slices as one
/// program: fold each message bit into the remainder, then shift.
fn crc8_program() -> String {
    let mut lines = Vec::new();
    for i in 0..8 {
        lines.push(format!("fb = c7 ^ m{i}"));
        for k in (1..8).rev() {
            if (POLY >> k) & 1 == 1 {
                lines.push(format!("c{k} = c{} ^ fb", k - 1));
            } else {
                lines.push(format!("c{k} = c{}", k - 1));
            }
        }
        lines.push("c0 = fb".to_string());
    }
    lines.join("\n")
}

/// Sticky-bitmap refresh: keep rows that newly match or already matched
/// with the sticky mask, and report what changed.
const PREDICATE: &str = "prev = flagged\n\
     flagged = (price & in_stock) | (flagged & sticky)\n\
     changed = prev ^ flagged";

const PREDICATE_VECTORS: [&str; 6] = ["price", "in_stock", "sticky", "flagged", "prev", "changed"];
const ONE_OFF_INPUTS: [&str; 4] = ["price", "in_stock", "sticky", "flagged"];

/// A tenant's vector names: CRC remainder and message slices, the
/// predicate bitmaps, and the one-off programs' output `x`.
fn kernel_vectors() -> Vec<String> {
    let mut names: Vec<String> = (0..8)
        .flat_map(|i| [format!("c{i}"), format!("m{i}")])
        .collect();
    names.extend(PREDICATE_VECTORS.iter().map(|n| n.to_string()));
    names.push("x".into());
    names
}

/// A random one-off program over the predicate bitmaps, writing `x`;
/// returns the program and the inputs it reads.
fn one_off_program(seed: u64) -> (String, Vec<&'static str>) {
    const OPS: [&str; 3] = ["&", "|", "^"];
    fn expr(depth: u32, draw: &mut impl FnMut(u64) -> u64, used: &mut Vec<&'static str>) -> String {
        if depth == 0 || draw(3) == 0 {
            let name = ONE_OFF_INPUTS[draw(4) as usize];
            if !used.contains(&name) {
                used.push(name);
            }
            return if draw(4) == 0 {
                format!("~{name}")
            } else {
                name.to_owned()
            };
        }
        let op = OPS[draw(3) as usize];
        format!(
            "({} {op} {})",
            expr(depth - 1, draw, used),
            expr(depth - 1, draw, used)
        )
    }
    let mut state = seed;
    let mut draw = |n: u64| {
        state = derive_seed(state, 1);
        state % n
    };
    let mut used = Vec::new();
    let first = expr(3, &mut draw, &mut used);
    let second = expr(2, &mut draw, &mut used);
    let op = OPS[draw(3) as usize];
    (format!("t = {first}\nx = t {op} {second}"), used)
}

/// Request `r`'s slot in its block of 20: every block holds each slot
/// once, in a seeded order, so every seed offers exactly the same mix.
fn mix_slot(seed: u64, r: u64) -> u64 {
    let mut order: Vec<u64> = (0..20).collect();
    let block = derive_seed(seed ^ 0x6b65_726e, r / 20);
    for i in (1..order.len()).rev() {
        order.swap(i, (derive_seed(block, i as u64) % (i as u64 + 1)) as usize);
    }
    order[(r % 20) as usize]
}

/// The `serve_kernels` trace: in every block of 20 requests, 8 CRC-8
/// kernels, 6 predicate kernels, 1 one-off program (a plan-cache miss),
/// 3 reads of kernel outputs and 2 writes to kernel inputs.
fn kernel_trace(seed: u64, requests: u64) -> (Vec<(String, u64)>, Vec<TraceEvent>) {
    let names = kernel_vectors();
    let vector = |t: u32, n: &str| format!("t{t}.{n}");
    let vectors: Vec<(String, u64)> = (0..TENANTS)
        .flat_map(|t| names.iter().map(move |n| (vector(t, n), VECTOR_ROWS)))
        .collect();
    let crc = crc8_program();
    let mut events = Vec::with_capacity(vectors.len() + requests as usize);
    let mut push = |op: LogicalOp, tenant: u32| {
        let at_tick = events.len() as u64 / u64::from(PER_TICK);
        events.push(TraceEvent {
            at_tick,
            tenant: TenantId(tenant),
            op,
            deadline_ticks: None,
        });
    };
    for (i, (name, _)) in vectors.iter().enumerate() {
        let w = derive_seed(seed, i as u64);
        push(
            LogicalOp::Write {
                dst: name.clone(),
                words: vec![w, !w, w.rotate_left(17)],
            },
            i as u32 / names.len() as u32,
        );
    }
    let bind = |t: u32, dsl: &[&str]| {
        dsl.iter()
            .map(|n| (n.to_string(), vector(t, n)))
            .collect::<Vec<_>>()
    };
    let crc_names: Vec<&str> = names[..16].iter().map(String::as_str).collect();
    let outputs: Vec<String> = (0..8)
        .map(|i| format!("c{i}"))
        .chain(["flagged", "changed", "x"].map(String::from))
        .collect();
    let inputs: Vec<String> = (0..8)
        .map(|i| format!("m{i}"))
        .chain(["price", "in_stock", "sticky"].map(String::from))
        .collect();
    for r in 0..requests {
        let t = (r % u64::from(TENANTS)) as u32;
        let pick = derive_seed(seed ^ 0x7069_636b, r);
        let op = match mix_slot(seed, r) {
            0..=7 => LogicalOp::Kernel {
                program: crc.clone(),
                bindings: bind(t, &crc_names),
            },
            8..=13 => LogicalOp::Kernel {
                program: PREDICATE.into(),
                bindings: bind(t, &PREDICATE_VECTORS),
            },
            14 => {
                let (program, mut used) = one_off_program(pick);
                used.push("x");
                LogicalOp::Kernel {
                    program,
                    bindings: bind(t, &used),
                }
            }
            15..=17 => LogicalOp::Read {
                src: vector(t, &outputs[(pick % outputs.len() as u64) as usize]),
            },
            _ => LogicalOp::Write {
                dst: vector(t, &inputs[(pick % inputs.len() as u64) as usize]),
                words: vec![derive_seed(seed, r ^ 0x77), r + 1],
            },
        };
        push(op, t);
    }
    (vectors, events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_trace_is_seeded_and_prefix_stable() {
        let (v, long) = kernel_trace(5, 200);
        let (_, short) = kernel_trace(5, 50);
        assert_eq!(v.len(), 4 * kernel_vectors().len());
        assert_eq!(long.len(), v.len() + 200);
        let json = |e: &[TraceEvent]| serde_json::to_string(e).unwrap();
        assert_eq!(json(&long[..short.len()]), json(&short));
        assert_ne!(json(&kernel_trace(6, 50).1), json(&short));
    }

    #[test]
    fn every_block_of_twenty_holds_the_whole_mix() {
        let mut slots: Vec<u64> = (40..60).map(|r| mix_slot(9, r)).collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn one_off_programs_parse_and_bind_what_they_read() {
        for s in 0..200 {
            let (program, used) = one_off_program(s);
            let parsed = Program::parse(&program).unwrap();
            let mut inputs = parsed.inputs();
            inputs.sort();
            let mut want: Vec<String> = used.iter().map(|s| s.to_string()).collect();
            want.sort();
            assert_eq!(inputs, want, "{program}");
        }
    }
}
