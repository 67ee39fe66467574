//! Stripe replication and deterministic failover.
//!
//! Every stripe of the vector catalog is backed by a **primary plus
//! N hot standbys** — any mix of local and remote
//! [`PoolMember`](crate::PoolMember)s, which the service drives through
//! that one trait without asking where a member lives. A plain
//! (unreplicated) pool is the `N = 0` case of the same dispatch path:
//! its [`ReplicaManager`] is the identity (see
//! [`ReplicaManager::unreplicated`]). The service dispatches every
//! settled [`RowOp`] batch schedule to the primary *and* its standbys,
//! all sharing one copy of the stripe's ops; schedules are
//! deterministic (same ops, same tick clock, same derived drift seed),
//! so replicas stay **byte-identical by construction**. That claim is
//! verified cheaply, not assumed: each replica's batch outcomes fold
//! into a rolling digest, and the digests are compared at epoch
//! boundaries — a divergent standby is retired and rebuilt rather than
//! trusted.
//!
//! The digest is a [`RowHasher`] fed each outcome's fields in place,
//! one multiply-and-mix per `u64` word, with no buffer: the output
//! count; per output a tag, then a row's length and its words; each
//! error's wire encoding; both cycle counts; the energy's bit pattern;
//! and the maintenance error. A row's words run in four lanes of their
//! own (word `i` to lane `i mod 4`, so the four multiply chains
//! overlap), whose finished states then go to the digest. The mix
//! `(h ⋘ 5 ⊕ w) · K`, `K` odd, is a bijection in both the state and the
//! word, and so is the avalanche `finish` applies to a lane and before
//! a compare: changing any single word changes the digest. The digest
//! is an in-memory audit value: replicas compare digests with each
//! other, for equality, and no response, report, snapshot or wire frame
//! carries one, so no pinned byte depends on how it is computed.
//!
//! # The failover state machine
//!
//! Each stripe is in one of three states, tracked per replica:
//!
//! ```text
//!            ┌──────────┐ transport fault / health breach
//!            │  ACTIVE  │──────────────────────────────┐
//!            └──────────┘                              ▼
//!                 ▲ promote (first live standby)  ┌─────────┐
//!            ┌──────────┐                         │ FAILED  │
//!            │ STANDBY  │◀── rebuild completes ───└─────────┘
//!            └──────────┘    (snapshot + schedule replay)
//! ```
//!
//! Failover triggers:
//!
//! * **Transport poison** — the active member's dispatch returned
//!   [`ServeError::Transport`](crate::ServeError::Transport). Because
//!   standbys executed the *same* batch in the same tick, the first
//!   healthy standby's already-computed outcome settles the tick's
//!   requests: promotion happens **mid-tick** with exactly one response
//!   per request and zero silent drops.
//! * **Repeated uncorrectables** — the active outcome carried
//!   uncorrectable rows for [`max_uncorrectable_ticks`] consecutive
//!   ticks ([`ReplicationConfig::max_uncorrectable_ticks`]).
//! * **Health threshold** — the reliability controller's exported
//!   [`ControllerHealth`] crossed the configured wear/uncorrectable
//!   thresholds at an epoch boundary.
//!
//! After promotion the failed member is rebuilt in the background: the
//! new active's state snapshot transfers at a paced
//! [`rebuild_chunk_bytes`](ReplicationConfig::rebuild_chunk_bytes) per
//! tick (chunked and CRC-guarded over the wire for remote members),
//! batches the rebuilding member missed accumulate in a per-stripe
//! schedule log, and on completion the snapshot restores, the log
//! replays, and the member rejoins as a standby. Everything is paced in
//! virtual ticks, so recovery time is **bounded and deterministic**.
//!
//! [`max_uncorrectable_ticks`]: ReplicationConfig::max_uncorrectable_ticks

use crate::shard::ShardBatchOutcome;
use felim_arch::batch::{RowOp, RowOpOutput};
use felim_arch::geometry::RowHasher;
use felim_arch::{ArchError, ControllerHealth};
use serde::Serialize;
use std::hash::Hasher;
use std::sync::Arc;

/// Replication knobs, carried in
/// [`ServiceConfig::replication`](crate::ServiceConfig::replication).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ReplicationConfig {
    /// Hot standbys per stripe (at least 1 — a stripe with nothing to
    /// promote to is not replicated).
    pub standbys: u32,
    /// Epoch length in ticks: how often replica digests are compared
    /// and the active member's health is polled.
    pub epoch_ticks: u64,
    /// Consecutive active-member ticks carrying uncorrectable rows
    /// before a planned failover fires.
    pub max_uncorrectable_ticks: u32,
    /// Planned failover fires when the active member's worst per-row
    /// wear fraction exceeds this.
    pub max_wear_fraction: f64,
    /// Snapshot bytes transferred per tick during a background rebuild
    /// — the pacing that bounds both rebuild bandwidth and recovery
    /// time (`ceil(snapshot / chunk) + 1` ticks).
    pub rebuild_chunk_bytes: u64,
    /// Standbys hosted remotely, as `(stripe, standby, "host:port")`
    /// triples (`standby` counts from 1; unlisted standbys are local).
    /// The session's slot is the member's pool index, so one daemon can
    /// host many standbys.
    pub remote_standbys: Vec<(u32, u32, String)>,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        Self {
            standbys: 1,
            epoch_ticks: 8,
            max_uncorrectable_ticks: 3,
            max_wear_fraction: 0.5,
            rebuild_chunk_bytes: 1 << 16,
            remote_standbys: Vec::new(),
        }
    }
}

/// Counter block of the replication layer (mirrors the
/// `serve.replica.*` telemetry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct ReplicaStats {
    /// Mid-tick promotions after a transport fault on the active member.
    pub failovers: u64,
    /// Planned promotions (health threshold or repeated uncorrectables).
    pub planned_failovers: u64,
    /// Standbys retired for digest divergence at an epoch boundary.
    pub divergences: u64,
    /// Background rebuilds started.
    pub rebuilds_started: u64,
    /// Background rebuilds completed (snapshot restored, log replayed).
    pub rebuilds_completed: u64,
    /// Batches replayed from the schedule log during rebuilds.
    pub replayed_batches: u64,
    /// Snapshot bytes entered into paced transfer by rebuilds — with
    /// [`ReplicationConfig::rebuild_chunk_bytes`] this bounds recovery:
    /// a rebuild completes within `ceil(bytes / chunk) + O(1)` ticks.
    pub rebuild_snapshot_bytes: u64,
    /// Energy spent by standby dispatches, nanojoules (accounted here,
    /// never in the service's settled energy — replication on or off
    /// must not change the reported simulation).
    pub standby_energy_nj: f64,
}

/// A background rebuild in flight for one stripe.
struct Rebuild {
    /// Replica index being rebuilt.
    replica: usize,
    /// The new active's snapshot, transferred at a paced rate.
    snapshot: Vec<u8>,
    /// Bytes transferred so far (virtual pacing).
    sent: u64,
    /// Batch schedules the rebuilding member missed, replayed on
    /// completion with their original tick clocks.
    pending: Vec<MissedSchedule>,
}

/// A batch schedule a rebuilding member missed: its tick clock and the
/// stripe's ops, shared with the dispatch that ran them.
pub type MissedSchedule = (f64, Arc<[RowOp]>);

/// Per-stripe replication bookkeeping: active/standby roles, rolling
/// outcome digests, failure flags, and rebuild progress. The service
/// always owns one of these and drives it each tick — a plain pool's is
/// the zero-standby [`unreplicated`](Self::unreplicated) manager; all
/// pool I/O (dispatch, snapshot, restore) stays in the service — this
/// type is pure state machine.
pub struct ReplicaManager {
    config: ReplicationConfig,
    stripes: usize,
    stats: ReplicaStats,
    /// Per stripe: the replica index currently active.
    active: Vec<usize>,
    /// Per stripe, per replica: retired (failed or divergent)?
    failed: Vec<Vec<bool>>,
    /// Per stripe, per replica: rolling outcome digest since the last
    /// epoch boundary (or rebuild completion).
    digests: Vec<Vec<RowHasher>>,
    /// Per stripe, per replica: ticks folded into the digest — only
    /// replicas with the active's tick count are comparable.
    digest_ticks: Vec<Vec<u64>>,
    /// Per stripe: consecutive active ticks carrying uncorrectables.
    uncorrectable_streak: Vec<u32>,
    /// Per stripe: the rebuild in flight, if any.
    rebuilds: Vec<Option<Rebuild>>,
}

impl std::fmt::Debug for ReplicaManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaManager")
            .field("stripes", &self.stripes)
            .field("replicas", &self.replicas())
            .field("active", &self.active)
            .finish()
    }
}

impl ReplicaManager {
    /// Fresh bookkeeping for `stripes` stripes under `config`: replica 0
    /// active everywhere, nothing failed, no rebuilds.
    pub fn new(config: ReplicationConfig, stripes: usize) -> Self {
        let replicas = 1 + config.standbys as usize;
        Self {
            config,
            stripes,
            stats: ReplicaStats::default(),
            active: vec![0; stripes],
            failed: vec![vec![false; replicas]; stripes],
            digests: vec![vec![RowHasher::default(); replicas]; stripes],
            digest_ticks: vec![vec![0; replicas]; stripes],
            uncorrectable_streak: vec![0; stripes],
            rebuilds: (0..stripes).map(|_| None).collect(),
        }
    }

    /// The zero-standby manager of a plain pool, and the identity: it
    /// folds no digests, is never at an epoch boundary (so the service
    /// polls no member's health), and has nothing to promote, retire,
    /// snapshot, rebuild or log. Each stripe dispatches to its primary
    /// only, and [`ServiceReport::replica`](crate::ServiceReport::replica)
    /// stays `None`.
    pub fn unreplicated(stripes: usize) -> Self {
        Self::new(
            ReplicationConfig {
                standbys: 0,
                ..ReplicationConfig::default()
            },
            stripes,
        )
    }

    /// Does any stripe have a standby? `false` for
    /// [`unreplicated`](Self::unreplicated).
    pub fn replicated(&self) -> bool {
        self.config.standbys > 0
    }

    /// The configuration in force.
    pub fn config(&self) -> &ReplicationConfig {
        &self.config
    }

    /// Replicas per stripe (primary + standbys).
    pub fn replicas(&self) -> usize {
        1 + self.config.standbys as usize
    }

    /// The counter block so far.
    pub fn stats(&self) -> &ReplicaStats {
        &self.stats
    }

    /// Adds standby dispatch energy to the replica-side account.
    pub fn add_standby_energy(&mut self, nj: f64) {
        self.stats.standby_energy_nj += nj;
    }

    /// Pool member index of `stripe`'s replica `replica` (replica-major
    /// layout: member `replica · stripes + stripe`, so replica 0 members
    /// coincide with the unreplicated pool's indices).
    pub fn member(&self, stripe: usize, replica: usize) -> usize {
        replica * self.stripes + stripe
    }

    /// The replica index currently active for `stripe`.
    pub fn active_replica(&self, stripe: usize) -> usize {
        self.active[stripe]
    }

    /// Pool member index of `stripe`'s active replica.
    pub fn active_member(&self, stripe: usize) -> usize {
        self.member(stripe, self.active[stripe])
    }

    /// Replica indices that dispatch `stripe`'s current batch, the
    /// active first and then the standbys in index order: every live
    /// replica except one mid-rebuild (it is behind; its missed batches
    /// land in the schedule log instead). The active is never retired
    /// or rebuilding, so the list always starts with it.
    pub fn dispatch_replicas(&self, stripe: usize) -> Vec<usize> {
        let active = self.active[stripe];
        let rebuilding = self.rebuilds[stripe].as_ref().map(|r| r.replica);
        let standbys = (0..self.replicas())
            .filter(|&r| r != active && !self.failed[stripe][r] && Some(r) != rebuilding);
        std::iter::once(active).chain(standbys).collect()
    }

    /// Folds one replica's batch outcome into its rolling digest, field
    /// by field with no buffer (see the module docs), and counts the
    /// tick. A no-op without standbys: there is nothing to compare it
    /// with.
    pub fn note_outcome(&mut self, stripe: usize, replica: usize, outcome: &ShardBatchOutcome) {
        if !self.replicated() {
            return;
        }
        fold_outcome(&mut self.digests[stripe][replica], outcome);
        self.digest_ticks[stripe][replica] += 1;
    }

    /// Records whether the active outcome carried uncorrectable rows
    /// this tick; `true` when the consecutive-tick threshold was crossed
    /// (the service then runs a planned failover).
    pub fn note_active_uncorrectable(&mut self, stripe: usize, any: bool) -> bool {
        if any {
            self.uncorrectable_streak[stripe] += 1;
        } else {
            self.uncorrectable_streak[stripe] = 0;
        }
        self.uncorrectable_streak[stripe] >= self.config.max_uncorrectable_ticks
    }

    /// Does `health` breach the planned-failover thresholds?
    pub fn health_exceeded(&self, health: &ControllerHealth) -> bool {
        health.max_wear_fraction > self.config.max_wear_fraction
            || health.uncorrectable_words > 0
    }

    /// Is `now` an epoch boundary (digest compare + health poll)? Never
    /// without standbys: a health breach would have nothing to promote.
    pub fn epoch_due(&self, now: u64) -> bool {
        self.replicated() && now > 0 && now.is_multiple_of(self.config.epoch_ticks)
    }

    /// Promotes a replacement active for `stripe` after the current
    /// active faulted mid-tick. `healthy` lists the standbys whose
    /// dual-dispatch outcome arrived intact this tick; the first (lowest
    /// index) is promoted and the old active retired. `None` when no
    /// standby can take over — the stripe fails honestly.
    pub fn promote_after_fault(&mut self, stripe: usize, healthy: &[usize]) -> Option<usize> {
        let new = *healthy
            .iter()
            .find(|&&r| !self.failed[stripe][r] && r != self.active[stripe])?;
        self.retire_and_promote(stripe, new);
        self.stats.failovers += 1;
        Some(new)
    }

    /// Planned promotion (health breach or uncorrectable streak): the
    /// first live standby not mid-rebuild takes over between ticks; the
    /// old active is retired for rebuild. `None` when no standby is
    /// available.
    pub fn promote_planned(&mut self, stripe: usize) -> Option<usize> {
        let rebuilding = self.rebuilds[stripe].as_ref().map(|r| r.replica);
        let new = (0..self.replicas()).find(|&r| {
            !self.failed[stripe][r] && r != self.active[stripe] && Some(r) != rebuilding
        })?;
        self.retire_and_promote(stripe, new);
        self.stats.planned_failovers += 1;
        Some(new)
    }

    fn retire_and_promote(&mut self, stripe: usize, new: usize) {
        let old = self.active[stripe];
        self.failed[stripe][old] = true;
        self.active[stripe] = new;
        self.uncorrectable_streak[stripe] = 0;
    }

    /// Epoch digest audit for `stripe`: standbys whose rolling digest
    /// (over the same tick count) disagrees with the active's are
    /// retired and returned. All digests then reset for the next epoch.
    pub fn audit_epoch(&mut self, stripe: usize) -> Vec<usize> {
        let active = self.active[stripe];
        let want = self.digests[stripe][active].finish();
        let want_ticks = self.digest_ticks[stripe][active];
        let mut divergent = Vec::new();
        for r in 0..self.replicas() {
            if r == active || self.failed[stripe][r] {
                continue;
            }
            if self.digest_ticks[stripe][r] == want_ticks
                && self.digests[stripe][r].finish() != want
            {
                self.failed[stripe][r] = true;
                self.stats.divergences += 1;
                divergent.push(r);
            }
        }
        for r in 0..self.replicas() {
            self.digests[stripe][r] = RowHasher::default();
            self.digest_ticks[stripe][r] = 0;
        }
        divergent
    }

    /// The retired replica next in line for a rebuild on `stripe`, when
    /// no rebuild is already in flight and at least one live replica
    /// remains to snapshot from.
    pub fn needs_rebuild(&self, stripe: usize) -> Option<usize> {
        if self.rebuilds[stripe].is_some() {
            return None;
        }
        (0..self.replicas()).find(|&r| self.failed[stripe][r])
    }

    /// The replica mid-rebuild on `stripe`, if any.
    pub fn rebuild_in_progress(&self, stripe: usize) -> Option<usize> {
        self.rebuilds[stripe].as_ref().map(|r| r.replica)
    }

    /// Starts a background rebuild of `replica` from the active's
    /// `snapshot`. The snapshot was taken *after* the current tick, so
    /// the schedule log starts empty.
    pub fn begin_rebuild(&mut self, stripe: usize, replica: usize, snapshot: Vec<u8>) {
        debug_assert!(self.failed[stripe][replica], "only retired replicas rebuild");
        self.stats.rebuilds_started += 1;
        self.stats.rebuild_snapshot_bytes += snapshot.len() as u64;
        self.rebuilds[stripe] = Some(Rebuild {
            replica,
            snapshot,
            sent: 0,
            pending: Vec::new(),
        });
    }

    /// Logs a batch schedule the rebuilding member missed (no-op when
    /// `stripe` has no rebuild in flight).
    pub fn log_schedule(&mut self, stripe: usize, tick_s: f64, ops: &Arc<[RowOp]>) {
        if let Some(rebuild) = &mut self.rebuilds[stripe] {
            rebuild.pending.push((tick_s, Arc::clone(ops)));
        }
    }

    /// Advances `stripe`'s rebuild by one tick's
    /// [`rebuild_chunk_bytes`](ReplicationConfig::rebuild_chunk_bytes).
    /// When the transfer completes, returns
    /// `(replica, snapshot, missed schedules)` for the service to
    /// restore and replay; otherwise `None`.
    pub fn rebuild_step(&mut self, stripe: usize) -> Option<(usize, Vec<u8>, Vec<MissedSchedule>)> {
        let rebuild = self.rebuilds[stripe].as_mut()?;
        rebuild.sent = rebuild
            .sent
            .saturating_add(self.config.rebuild_chunk_bytes.max(1));
        if rebuild.sent < rebuild.snapshot.len() as u64 {
            return None;
        }
        let done = self.rebuilds[stripe].take()?;
        Some((done.replica, done.snapshot, done.pending))
    }

    /// Finishes a rebuild: on success the replica rejoins as a live
    /// standby with fresh digests for the whole stripe (its replayed
    /// history differs from the epoch digests of the others); on failure
    /// it stays retired and [`needs_rebuild`](Self::needs_rebuild) will
    /// offer it again.
    pub fn complete_rebuild(&mut self, stripe: usize, replica: usize, ok: bool, replayed: u64) {
        if ok {
            self.failed[stripe][replica] = false;
            self.stats.rebuilds_completed += 1;
            self.stats.replayed_batches += replayed;
            for r in 0..self.replicas() {
                self.digests[stripe][r] = RowHasher::default();
                self.digest_ticks[stripe][r] = 0;
            }
        }
    }
}

/// Feeds `outcome`'s fields to the digest `h`: the output count; per
/// output a tag (0 `Done`, 1 `Data`, 2 error), then a row's length and
/// words or an error's encoding; both cycle counts; the energy's bits;
/// and the maintenance error behind a presence tag.
fn fold_outcome(h: &mut RowHasher, outcome: &ShardBatchOutcome) {
    // Errors are rare: the buffer for their encoding allocates only
    // when one appears.
    let mut err_buf = Vec::new();
    h.write_u64(outcome.outputs.len() as u64);
    for output in &outcome.outputs {
        match output {
            Ok(RowOpOutput::Done) => h.write_u64(0),
            Ok(RowOpOutput::Data(row)) => {
                h.write_u64(1);
                h.write_u64(row.len() as u64);
                fold_row(h, row);
            }
            Err(e) => {
                h.write_u64(2);
                fold_error(h, e, &mut err_buf);
            }
        }
    }
    h.write_u64(outcome.serial_cycles);
    h.write_u64(outcome.makespan_cycles);
    h.write_u64(outcome.energy_nj.to_bits());
    match &outcome.maintenance_error {
        None => h.write_u64(0),
        Some(e) => {
            h.write_u64(1);
            fold_error(h, e, &mut err_buf);
        }
    }
}

/// Feeds `row`'s words to the digest `h` in four lanes: word `i` goes
/// to lane `i mod 4`, so the four multiply chains overlap, and then
/// each lane's `finish` goes to `h`. Every step is a bijection (in the
/// lane and in the word, then `finish`, then `h`'s mix), so changing
/// any one word still changes the digest; the row's length goes to `h`
/// before this.
fn fold_row(h: &mut RowHasher, row: &[u64]) {
    let mut lanes = [RowHasher::default(); 4];
    let (quads, tail) = row.as_chunks::<4>();
    for quad in quads {
        for (lane, &w) in lanes.iter_mut().zip(quad) {
            lane.write_u64(w);
        }
    }
    for (lane, &w) in lanes.iter_mut().zip(tail) {
        lane.write_u64(w);
    }
    for lane in &lanes {
        h.write_u64(lane.finish());
    }
}

/// Feeds `e`'s wire encoding to `h`, one mix per byte (the encoding is
/// self-delimiting). `buf` is scratch.
fn fold_error(h: &mut RowHasher, e: &ArchError, buf: &mut Vec<u8>) {
    buf.clear();
    e.encode(buf);
    h.write(buf);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(energy: f64) -> ShardBatchOutcome {
        ShardBatchOutcome {
            outputs: Vec::new(),
            serial_cycles: 10,
            makespan_cycles: 5,
            energy_nj: energy,
            maintenance_error: None,
        }
    }

    #[test]
    fn promotion_prefers_lowest_live_standby_and_retires_the_active() {
        let mut mgr = ReplicaManager::new(
            ReplicationConfig {
                standbys: 2,
                ..ReplicationConfig::default()
            },
            2,
        );
        assert_eq!(mgr.active_replica(0), 0);
        assert_eq!(mgr.dispatch_replicas(0), vec![0, 1, 2]);
        let new = mgr.promote_after_fault(0, &[1, 2]).unwrap();
        assert_eq!(new, 1);
        assert_eq!(mgr.active_replica(0), 1);
        // The old active is retired and queued for rebuild.
        assert_eq!(mgr.needs_rebuild(0), Some(0));
        assert_eq!(mgr.dispatch_replicas(0), vec![1, 2]);
        // Stripe 1 is untouched.
        assert_eq!(mgr.active_replica(1), 0);
        // No healthy standby left after retiring 1 and 2.
        mgr.promote_after_fault(0, &[2]).unwrap();
        assert!(mgr.promote_after_fault(0, &[]).is_none());
        assert_eq!(mgr.stats().failovers, 2);
    }

    #[test]
    fn digest_audit_retires_divergent_standbys_only() {
        let mut mgr = ReplicaManager::new(ReplicationConfig::default(), 1);
        // Same outcomes: digests agree.
        mgr.note_outcome(0, 0, &outcome(1.0));
        mgr.note_outcome(0, 1, &outcome(1.0));
        assert!(mgr.audit_epoch(0).is_empty());
        // Diverging energy (a physical observable) trips the audit.
        mgr.note_outcome(0, 0, &outcome(1.0));
        mgr.note_outcome(0, 1, &outcome(2.0));
        assert_eq!(mgr.audit_epoch(0), vec![1]);
        assert_eq!(mgr.stats().divergences, 1);
        assert_eq!(mgr.needs_rebuild(0), Some(1));
    }

    #[test]
    fn audit_skips_replicas_with_fewer_digested_ticks() {
        let mut mgr = ReplicaManager::new(ReplicationConfig::default(), 1);
        mgr.note_outcome(0, 0, &outcome(1.0));
        mgr.note_outcome(0, 0, &outcome(1.0));
        // Replica 1 only saw one tick (it was rebuilding): different
        // digest, but not comparable — no divergence.
        mgr.note_outcome(0, 1, &outcome(1.0));
        assert!(mgr.audit_epoch(0).is_empty());
    }

    /// A splitmix64 stream: the sweeps below are seeded, so a failure
    /// names the seed that found it.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn row(&mut self, words: usize) -> Vec<u64> {
            (0..words).map(|_| self.next()).collect()
        }
    }

    /// One error of every variant, with seeded fields.
    fn every_error(g: &mut Stream) -> Vec<ArchError> {
        vec![
            ArchError::RowOutOfRange {
                row: g.next(),
                rows: g.next(),
            },
            ArchError::RowSizeMismatch {
                expected: 128,
                got: (g.next() % 256) as usize,
            },
            ArchError::UncorrectableWrite {
                row: g.next(),
                attempts: g.next() as u32,
            },
            ArchError::SparesExhausted { row: g.next() },
            ArchError::Uncorrectable {
                row: g.next(),
                words: vec![3, (g.next() % 128) as usize],
            },
        ]
    }

    /// An outcome with `Done`, a 1-word and a 128-word `Data` row and
    /// every error variant, in a seeded rotation. The seed also picks
    /// the energy (0.0, −0.0, a NaN payload or random bits) and whether
    /// a maintenance error is present.
    fn sweep_outcome(seed: u64) -> ShardBatchOutcome {
        let mut g = Stream(seed);
        let mut outputs = vec![
            Ok(RowOpOutput::Done),
            Ok(RowOpOutput::Data(g.row(1))),
            Ok(RowOpOutput::Data(g.row(128))),
        ];
        outputs.extend(every_error(&mut g).into_iter().map(Err));
        let turn = (g.next() % outputs.len() as u64) as usize;
        outputs.rotate_left(turn);
        let energy_nj = match seed % 4 {
            0 => 0.0,
            1 => -0.0,
            2 => f64::from_bits(0x7FF8_0000_0000_0000 | (g.next() & 0xF_FFFF)),
            _ => f64::from_bits(g.next()),
        };
        let maintenance_error = (seed % 2 == 1).then(|| {
            let i = (g.next() % 5) as usize;
            every_error(&mut g).swap_remove(i)
        });
        ShardBatchOutcome {
            outputs,
            serial_cycles: g.next(),
            makespan_cycles: g.next(),
            energy_nj,
            maintenance_error,
        }
    }

    /// Every single-field change of `e`, the variant kept.
    fn error_changes(e: &ArchError) -> Vec<ArchError> {
        match e.clone() {
            ArchError::RowOutOfRange { row, rows } => vec![
                ArchError::RowOutOfRange { row: row ^ 1, rows },
                ArchError::RowOutOfRange {
                    row,
                    rows: rows ^ 1,
                },
            ],
            ArchError::RowSizeMismatch { expected, got } => vec![
                ArchError::RowSizeMismatch {
                    expected: expected + 1,
                    got,
                },
                ArchError::RowSizeMismatch {
                    expected,
                    got: got + 1,
                },
            ],
            ArchError::UncorrectableWrite { row, attempts } => vec![
                ArchError::UncorrectableWrite {
                    row: row ^ 1,
                    attempts,
                },
                ArchError::UncorrectableWrite {
                    row,
                    attempts: attempts ^ 1,
                },
            ],
            ArchError::SparesExhausted { row } => {
                vec![ArchError::SparesExhausted { row: row ^ 1 }]
            }
            ArchError::Uncorrectable { row, words } => {
                let mut longer = words.clone();
                longer.push(0);
                let mut shorter = words.clone();
                shorter.pop();
                let mut flipped = words.clone();
                flipped[0] ^= 1;
                vec![
                    ArchError::Uncorrectable {
                        row: row ^ 1,
                        words: words.clone(),
                    },
                    ArchError::Uncorrectable { row, words: longer },
                    ArchError::Uncorrectable {
                        row,
                        words: shorter,
                    },
                    ArchError::Uncorrectable {
                        row,
                        words: flipped,
                    },
                ]
            }
        }
    }

    /// Every single-field change of `o`: the output count, each output's
    /// tag, each row's length and every row word, each error field, both
    /// cycle counts, the energy bits (sign and payload), and the
    /// maintenance error's presence and fields.
    fn single_changes(o: &ShardBatchOutcome, g: &mut Stream) -> Vec<ShardBatchOutcome> {
        let mut out = Vec::new();
        let mut change = |f: &mut dyn FnMut(&mut ShardBatchOutcome)| {
            let mut c = o.clone();
            f(&mut c);
            out.push(c);
        };
        change(&mut |c| c.outputs.push(Ok(RowOpOutput::Done)));
        change(&mut |c| drop(c.outputs.pop()));
        for i in 0..o.outputs.len() {
            match &o.outputs[i] {
                Ok(RowOpOutput::Done) => {
                    change(&mut |c| c.outputs[i] = Ok(RowOpOutput::Data(Vec::new())));
                    change(&mut |c| c.outputs[i] = Err(ArchError::SparesExhausted { row: 0 }));
                }
                Ok(RowOpOutput::Data(row)) => {
                    change(&mut |c| c.outputs[i] = Ok(RowOpOutput::Done));
                    for j in 0..row.len() {
                        let bit = 1 << (g.next() % 64);
                        change(&mut |c| {
                            if let Ok(RowOpOutput::Data(r)) = &mut c.outputs[i] {
                                r[j] ^= bit;
                            }
                        });
                    }
                    change(&mut |c| {
                        if let Ok(RowOpOutput::Data(r)) = &mut c.outputs[i] {
                            r.push(0);
                        }
                    });
                    change(&mut |c| {
                        if let Ok(RowOpOutput::Data(r)) = &mut c.outputs[i] {
                            r.pop();
                        }
                    });
                }
                Err(e) => {
                    change(&mut |c| c.outputs[i] = Ok(RowOpOutput::Done));
                    for changed in error_changes(e) {
                        change(&mut |c| c.outputs[i] = Err(changed.clone()));
                    }
                }
            }
        }
        change(&mut |c| c.serial_cycles ^= 1);
        change(&mut |c| c.makespan_cycles ^= 1 << 63);
        change(&mut |c| c.energy_nj = -c.energy_nj);
        change(&mut |c| c.energy_nj = f64::from_bits(c.energy_nj.to_bits() ^ 1));
        match &o.maintenance_error {
            None => {
                change(&mut |c| c.maintenance_error = Some(ArchError::SparesExhausted { row: 0 }))
            }
            Some(e) => {
                change(&mut |c| c.maintenance_error = None);
                for changed in error_changes(e) {
                    change(&mut |c| c.maintenance_error = Some(changed.clone()));
                }
            }
        }
        out
    }

    #[test]
    fn any_single_field_change_changes_the_digest() {
        for seed in 0..16 {
            let base = sweep_outcome(seed);
            let mut g = Stream(seed ^ 0xD1CE);
            let mut fed = RowHasher::default();
            fed.write_u64(g.next());
            let changes = single_changes(&base, &mut g);
            assert!(
                changes.len() > 140,
                "seed {seed}: {} changes",
                changes.len()
            );
            // From a fresh digest and from one mid-epoch.
            for prior in [RowHasher::default(), fed] {
                let digest = |o: &ShardBatchOutcome| {
                    let mut h = prior;
                    fold_outcome(&mut h, o);
                    h.finish()
                };
                let want = digest(&base);
                for (n, changed) in changes.iter().enumerate() {
                    assert_ne!(digest(changed), want, "seed {seed}, change {n}");
                }
            }
        }
    }

    #[test]
    fn an_outcome_digests_alike_after_a_wire_round_trip() {
        use crate::wire::Frame;
        for seed in 0..16 {
            let sent = sweep_outcome(seed);
            let frame = Frame::BatchReply {
                seq: seed,
                outcome: sent.clone(),
            };
            let Ok(Frame::BatchReply {
                outcome: received, ..
            }) = Frame::decode_payload(&frame.encode_payload())
            else {
                panic!("seed {seed}: the batch reply does not decode");
            };
            // A local primary digests what it computed; a remote standby
            // digests what the wire delivered.
            let mut mgr = ReplicaManager::new(ReplicationConfig::default(), 1);
            mgr.note_outcome(0, 0, &sent);
            mgr.note_outcome(0, 1, &received);
            assert_eq!(
                mgr.digests[0][0].finish(),
                mgr.digests[0][1].finish(),
                "seed {seed}"
            );
            assert!(mgr.audit_epoch(0).is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn rebuild_is_paced_and_replays_the_missed_log() {
        let mut mgr = ReplicaManager::new(
            ReplicationConfig {
                rebuild_chunk_bytes: 4,
                ..ReplicationConfig::default()
            },
            1,
        );
        mgr.promote_after_fault(0, &[1]).unwrap();
        mgr.begin_rebuild(0, 0, vec![0xAB; 10]);
        assert_eq!(mgr.rebuild_in_progress(0), Some(0));
        // Missed batches accumulate while the transfer paces.
        let ops: Arc<[RowOp]> = Arc::from([]);
        mgr.log_schedule(0, 1e-3, &ops);
        assert!(mgr.rebuild_step(0).is_none(), "4/10 bytes");
        mgr.log_schedule(0, 1e-3, &ops);
        assert!(mgr.rebuild_step(0).is_none(), "8/10 bytes");
        let (replica, snapshot, pending) = mgr.rebuild_step(0).expect("12/10 bytes: complete");
        assert_eq!(replica, 0);
        assert_eq!(snapshot, vec![0xAB; 10]);
        assert_eq!(pending.len(), 2);
        mgr.complete_rebuild(0, replica, true, pending.len() as u64);
        assert!(mgr.needs_rebuild(0).is_none());
        // The rebuilt member rejoins behind the active.
        assert_eq!(mgr.dispatch_replicas(0), vec![1, 0]);
        assert_eq!(mgr.stats().rebuilds_completed, 1);
        assert_eq!(mgr.stats().replayed_batches, 2);
    }

    #[test]
    fn uncorrectable_streak_crosses_the_threshold_only_when_consecutive() {
        let mut mgr = ReplicaManager::new(
            ReplicationConfig {
                max_uncorrectable_ticks: 2,
                ..ReplicationConfig::default()
            },
            1,
        );
        assert!(!mgr.note_active_uncorrectable(0, true));
        assert!(!mgr.note_active_uncorrectable(0, false), "streak resets");
        assert!(!mgr.note_active_uncorrectable(0, true));
        assert!(mgr.note_active_uncorrectable(0, true), "2 consecutive");
    }

    #[test]
    fn zero_standby_manager_is_the_identity() {
        let mut mgr = ReplicaManager::unreplicated(3);
        assert!(!mgr.replicated());
        for round in 0..10u32 {
            for s in 0..3 {
                mgr.note_outcome(s, 0, &outcome(f64::from(round)));
                // A streak far past any threshold still has no standby
                // to promote.
                mgr.note_active_uncorrectable(s, true);
            }
        }
        for n in 0..1000 {
            assert!(!mgr.epoch_due(n), "tick {n}");
        }
        for s in 0..3 {
            assert_eq!(mgr.promote_planned(s), None);
            assert_eq!(mgr.promote_after_fault(s, &[]), None);
            assert_eq!(mgr.needs_rebuild(s), None);
            assert_eq!(mgr.rebuild_in_progress(s), None);
            assert_eq!(mgr.dispatch_replicas(s), vec![0]);
            assert_eq!(mgr.active_member(s), s);
        }
        assert_eq!(*mgr.stats(), ReplicaStats::default());
    }

    #[test]
    fn health_thresholds_gate_planned_failover() {
        let mgr = ReplicaManager::new(ReplicationConfig::default(), 1);
        let healthy = ControllerHealth::default();
        assert!(!mgr.health_exceeded(&healthy));
        let worn = ControllerHealth {
            max_wear_fraction: 0.9,
            ..ControllerHealth::default()
        };
        assert!(mgr.health_exceeded(&worn));
        let corrupt = ControllerHealth {
            uncorrectable_words: 1,
            ..ControllerHealth::default()
        };
        assert!(mgr.health_exceeded(&corrupt));
    }
}
