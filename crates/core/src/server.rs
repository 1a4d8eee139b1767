//! The dedicated-core server loop.
//!
//! Runs on the node's dedicated core (a thread here): pulls events from
//! the shared queue, maintains the metadata store, tracks per-iteration
//! completion across the node's clients, and hands events to the EPE.
//! Actual I/O happens inside plugins — asynchronously with respect to the
//! compute cores, which is the whole point (§III).
//!
//! # Crash recovery
//!
//! The loop runs under the node supervisor (see [`crate::node`]): each
//! incarnation gets a heartbeat *epoch*. Epoch 0 starts clean; a respawned
//! epoch first **replays** the write-ahead journal — re-adopting the
//! shared-memory segments the dead incarnation had resident, re-counting
//! end-of-iteration notifications, firing still-pending user events — and
//! only then publishes its epoch on the heartbeat word, so clients parked
//! on a stale heartbeat resume against a consistent allocator and store.
//! Replayed records go through the same event handler as popped events;
//! replay only adds its pre-filters (fenced source, segment no longer
//! reserved, user event a dead epoch already claimed).
//!
//! Exactly-once processing hinges on [`crate::journal::EventJournal::claim`]:
//! both the replay and the normal pop path claim an event's sequence
//! number, and only the first claim wins — a replayed event's stale queue
//! copy is counted in `stale_events_rejected` and dropped.

use crate::config::{OnClientFailure, OnDiskFull};
use crate::epe::{EventProcessingEngine, END_OF_ITERATION};
use crate::error::DamarisError;
use crate::event::{Event, Note, Span};
use crate::journal::{Claim, RecordState, ReplayEntry};
use crate::metadata::{MetadataStore, StoredVariable, VariableKey};
use crate::node::{FaultStats, NodeReport, NodeShared};
use crate::plugin::{ActionContext, EventInfo};
use damaris_obs::{EventKind, Histogram, Recorder, TraceRecord, TraceWriter};
use damaris_shm::{LeaseSnapshot, Segment};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::BufWriter;
use std::sync::Arc;
use std::time::Duration;

/// Marker source id for server-originated events.
pub const SERVER_SOURCE: u32 = u32::MAX;

/// A segment waiting for its iteration's flush: `(source, seq, segment)`.
type Held = (u32, u64, Segment);

/// True when every client of the node is accounted for on an iteration:
/// either its end-of-iteration notification was counted, or the lease
/// sweeper fenced it (a dead rank will never send one).
fn iteration_complete(counted: &[(u32, u64)], fenced: &BTreeSet<u32>, clients: usize) -> bool {
    (0..clients as u32).all(|c| fenced.contains(&c) || counted.iter().any(|(s, _)| *s == c))
}

/// Presence bitmap for a partial fire: bit `r` is set iff client `r` ended
/// the iteration. Only representable for nodes with ≤ 64 clients; larger
/// nodes fire partially without the annotation.
fn presence_bits(counted: &[(u32, u64)], clients: usize) -> Option<u64> {
    if clients > 64 {
        return None;
    }
    Some(counted.iter().fold(0u64, |bits, (s, _)| bits | (1u64 << s)))
}

/// The dedicated-core event loop; returns the node's accounting when a
/// `Terminate` event arrives. `epoch` is this incarnation's heartbeat
/// epoch — nonzero means a predecessor crashed and the journal replays.
pub(crate) fn run(
    shared: Arc<NodeShared>,
    epe: EventProcessingEngine,
    node_id: u32,
    epoch: u32,
) -> Result<NodeReport, DamarisError> {
    let mut server = Server::new(&shared, epe, node_id, epoch);
    if epoch > 0 {
        server.replay(epoch)?;
    }
    // Publish this epoch only after replay: clients parked on a stale
    // heartbeat resume against fully-rebuilt state (the Release store
    // makes everything above visible to their Acquire observe).
    shared.heartbeat.begin_epoch(epoch);
    server.poll_pressure();
    loop {
        let t_idle = server.rec.begin();
        let event = server.wait_for_event()?;
        // Tagged with the iteration we are presumably waiting to complete.
        server.rec.end(EventKind::QueueIdle, server.last_fired.wrapping_add(1), 0, t_idle);
        let Event::Note { seq, note } = event else {
            server.shutdown()?;
            break;
        };
        // Claim arbitration: a note whose journal record was already
        // processed (by a previous epoch's replay) is dropped. The segment
        // handle in a stale Write is inert — the replay's adopted handle
        // owns the allocation.
        if shared.journal.claim(seq) == Claim::Stale {
            FaultStats::bump(&shared.stats.stale_events_rejected);
            continue;
        }
        server.handle(seq, note)?;
        server.maintain()?;
        shared.heartbeat.beat();
    }
    Ok(server.finish())
}

/// One incarnation of the dedicated core: everything the loop keeps
/// between events.
struct Server<'a> {
    shared: &'a NodeShared,
    epe: EventProcessingEngine,
    node_id: u32,
    rec: Recorder,
    obs_flush: ObsFlush,
    store: MetadataStore,
    report: NodeReport,
    // The actions' release list; empty between actions, kept for its
    // capacity.
    pending_release: Vec<Held>,
    // Segments displaced by a same-(iteration, variable, source) rewrite,
    // handed back by an `Abandon`, or cancelled by a fence, held until
    // their iteration fires. Releasing them on the spot is NOT safe: the
    // partitioned allocator requires per-client FIFO release, and a
    // client that ran ahead still has retained segments from *earlier*
    // iterations that were allocated first. Deferring to the fire lets
    // `flush_releases`'s (source, seq) sort restore allocation order.
    // (Found by the obs-overhead gate: the out-of-order release corrupted
    // a region's tail counter and wedged the client on `Full`.)
    held_rewrites: BTreeMap<u32, Vec<Held>>,
    // End-notifications counted per iteration, as `(source, seq)` pairs:
    // the sources decide completion against the fenced set, and the seqnos
    // are marked applied when the iteration fires.
    end_counts: HashMap<u32, Vec<(u32, u64)>>,
    // Iteration spans run fire-end to fire-end.
    last_fire_end: u64,
    last_fired: u32,
    // The pressure machine only has a signal to run on when the backend
    // reports disk usage; without a sentinel it stays dormant.
    pressure_on: bool,
    // Under the default `wait` policy the sweeper never runs: a silent
    // client stalls its iterations forever (the original Damaris
    // contract).
    sweeper_on: bool,
    // Fencing survives server crashes via the journal: a respawned epoch
    // starts from its predecessor's fenced set.
    fenced: BTreeSet<u32>,
    // Per-client `(last observation, expiry deadline)` on the backend's
    // clock (virtual under test). The deadline refreshes whenever the
    // observation changes; an unchanged lease past its deadline is swept.
    lease_track: Vec<(LeaseSnapshot, Duration)>,
}

impl<'a> Server<'a> {
    fn new(shared: &'a NodeShared, epe: EventProcessingEngine, node_id: u32, epoch: u32) -> Self {
        let rec = shared.obs.server_recorder();
        let resilience = &shared.config.resilience;
        let now = shared.backend.clock().now();
        Server {
            shared,
            epe,
            node_id,
            obs_flush: ObsFlush::new(shared, node_id, epoch),
            // The first iteration span starts now.
            last_fire_end: rec.begin(),
            rec,
            store: MetadataStore::new(),
            report: NodeReport::default(),
            pending_release: Vec::new(),
            held_rewrites: BTreeMap::new(),
            end_counts: HashMap::new(),
            last_fired: 0,
            pressure_on: shared.backend.sentinel().is_some(),
            sweeper_on: resilience.on_client_failure != OnClientFailure::Wait && shared.clients > 0,
            fenced: (0..shared.clients as u32)
                .filter(|c| shared.journal.is_fenced(*c))
                .collect(),
            lease_track: (0..shared.clients)
                .map(|c| {
                    // invariant: the lease table is sized for the node's clients.
                    let lease = shared.leases.lease(c).expect("lease table covers every client");
                    (lease.snapshot(), now + resilience.client_lease_timeout)
                })
                .collect(),
        }
    }

    /// Pops the next event, spinning then yielding while the queue is
    /// empty. Every idle poll beats the heartbeat; with the lease sweeper
    /// or the pressure machine on it also runs [`Server::maintain`]: a
    /// dead client stops producing events, which is exactly what starves
    /// a blocking pop, and a quota lift produces no event either, yet
    /// held iterations must fire and the node must re-ascend to Normal.
    fn wait_for_event(&mut self) -> Result<Event, DamarisError> {
        let shared = self.shared;
        shared.queue.pop_wait_with(|| {
            shared.heartbeat.beat();
            if self.sweeper_on || self.pressure_on {
                self.maintain()?;
            }
            Ok(())
        })
    }

    /// The pass after every event (and every idle poll, see
    /// [`Server::wait_for_event`]).
    fn maintain(&mut self) -> Result<(), DamarisError> {
        self.poll_pressure();
        self.sweep_leases();
        self.fire_ready()?;
        self.reclaim_fenced();
        Ok(())
    }

    /// Rebuilds the dead incarnation's state from the journal.
    fn replay(&mut self, epoch: u32) -> Result<(), DamarisError> {
        let (entries, corrupt) = self.shared.journal.replay_snapshot();
        if corrupt > 0 {
            eprintln!(
                "[damaris node {}] replay (epoch {epoch}): skipped {corrupt} \
                 CRC-corrupt journal record(s)",
                self.node_id
            );
        }
        for ReplayEntry { seq, state, note } in entries {
            // Claim pending records so the stale queue copy is rejected
            // when it eventually pops.
            if state == RecordState::Pending {
                let _ = self.shared.journal.claim(seq);
            }
            if let Some(note) = self.readmit(seq, state, note) {
                FaultStats::bump(&self.shared.stats.events_replayed);
                self.handle(seq, note)?;
            }
        }
        // Fire iterations the replayed notifications (or pre-crash
        // fencing) completed.
        self.fire_ready()?;
        self.shared.journal.compact();
        Ok(())
    }

    /// Replay's pre-filters: turns a surviving journal record back into
    /// the note the dead incarnation popped, or retires it and returns
    /// `None`.
    fn readmit(&mut self, seq: u64, state: RecordState, note: Note<Span>) -> Option<Note<Segment>> {
        let source = note.source();
        if self.fenced.contains(&source) {
            // The dead epoch's sweeper fenced this client but may have
            // crashed mid-cancel: finish the job.
            self.cancel(seq, note);
            return None;
        }
        // A claimed user event may already have run its plugins in the
        // dead epoch: at-most-once forbids re-firing.
        if matches!(note, Note::User { .. }) && state != RecordState::Pending {
            self.shared.journal.mark_applied(seq);
            return None;
        }
        note.map_segment(|span| self.adopt_or_retire(seq, source, *span)).ok()
    }

    /// Re-creates the handle of a journaled segment, or retires the record
    /// when the segment is no longer reserved: it was released between
    /// persisting (or cancelling) and marking the record applied, so the
    /// data is already safe (or was deliberately degraded).
    fn adopt_or_retire(&self, seq: u64, source: u32, span: Span) -> Result<Segment, ()> {
        let Span { offset, len } = span;
        self.shared.buffer.adopt(source, offset, len).ok_or_else(|| {
            self.shared.journal.mark_applied(seq);
            eprintln!(
                "[damaris node {}] journal seq {seq} (src {source}, {len}B@{offset}) \
                 not adoptable; retired",
                self.node_id
            );
        })
    }

    /// Cancels a fenced client's journaled note: it never takes effect,
    /// but a segment it names must still release in seq order, so the
    /// segment is held until its iteration's flush (or the record retires
    /// if the segment was already released). An end notification is not
    /// counted: completion comes from the fenced set.
    fn cancel(&mut self, seq: u64, note: Note<Span>) {
        let source = note.source();
        match note.map_segment(|span| self.adopt_or_retire(seq, source, *span)) {
            Ok(Note::Write {
                iteration, segment, ..
            }
            | Note::Abandon {
                iteration, segment, ..
            }) => self.hold(iteration, (source, seq, segment)),
            Ok(Note::User { .. } | Note::EndIteration { .. }) => {
                self.shared.journal.mark_applied(seq)
            }
            // Already released: `adopt_or_retire` retired the record.
            Err(()) => {}
        }
    }

    fn hold(&mut self, iteration: u32, held: Held) {
        self.held_rewrites.entry(iteration).or_default().push(held);
    }

    /// Acts on one claimed note, popped or replayed.
    fn handle(&mut self, seq: u64, note: Note<Segment>) -> Result<(), DamarisError> {
        match note {
            Note::Write {
                variable_id,
                iteration,
                source,
                segment,
                dynamic_layout,
                data_crc,
            } => {
                let config = &self.shared.config;
                let def = config
                    .variable(variable_id)
                    .ok_or_else(|| DamarisError::UnknownVariable(format!("id {variable_id}")))?;
                self.report.variables_received += 1;
                self.report.bytes_received += segment.len() as u64;
                let var = StoredVariable {
                    key: VariableKey {
                        iteration,
                        variable_id,
                        source,
                    },
                    name: def.name.clone(),
                    layout: dynamic_layout
                        .unwrap_or_else(|| config.layout_of(def).storage_layout()),
                    segment,
                    seq,
                    data_crc,
                };
                self.report.peak_resident_bytes = self
                    .report
                    .peak_resident_bytes
                    .max(self.store.bytes_resident() as u64 + var.segment.len() as u64);
                if let Some(replaced) = self.store.insert(var) {
                    // Duplicate tuple: hold the displaced segment until the
                    // iteration fires (see `held_rewrites`).
                    self.hold(iteration, (source, replaced.seq, replaced.segment));
                }
            }
            Note::User {
                name,
                iteration,
                source,
            } => {
                // At-most-once: retire the record before firing, so a
                // crash mid-plugin does not re-fire it on replay.
                self.shared.journal.mark_applied(seq);
                self.report.user_events += 1;
                let info = EventInfo {
                    name,
                    iteration,
                    source,
                };
                let t_epe = self.rec.begin();
                self.with_ctx(Vec::new(), None, |epe, ctx| epe.fire(ctx, &info))?;
                self.rec.end(EventKind::EpeDispatch, iteration, 0, t_epe);
            }
            // The fire itself happens in the `fire_ready` pass, which also
            // covers iterations completed by fencing.
            Note::EndIteration { iteration, source } => {
                self.end_counts.entry(iteration).or_default().push((source, seq))
            }
            // A client handed back an uncommitted region. It may not
            // release the segment itself (per-client FIFO, single
            // consumer) — hold it until the iteration's flush.
            Note::Abandon {
                iteration,
                source,
                segment,
            } => self.hold(iteration, (source, seq, segment)),
        }
        Ok(())
    }

    /// Runs `action` against an [`ActionContext`] over the server's state,
    /// with `held` segments queued for release, then flushes the releases
    /// in per-client FIFO order.
    fn with_ctx(
        &mut self,
        held: Vec<Held>,
        presence: Option<u64>,
        action: impl FnOnce(&mut EventProcessingEngine, &mut ActionContext<'_>) -> Result<(), DamarisError>,
    ) -> Result<(), DamarisError> {
        let shared = self.shared;
        let mut ctx = ActionContext {
            node_id: self.node_id,
            config: &shared.config,
            store: &mut self.store,
            backend: shared.backend.as_ref(),
            buffer: &shared.buffer,
            stats: &shared.stats,
            journal: &shared.journal,
            pressure: &shared.pressure,
            pending_release: &mut self.pending_release,
            rec: self.rec.clone(),
            presence,
        };
        for (source, seq, segment) in held {
            ctx.release_segment(source, seq, segment);
        }
        action(&mut self.epe, &mut ctx)?;
        ctx.flush_releases();
        Ok(())
    }

    /// Marks counted end-of-iteration notifications applied.
    fn retire(&self, counted: &[(u32, u64)]) {
        for (_, seq) in counted {
            self.shared.journal.mark_applied(*seq);
        }
    }

    /// Fires `end_of_iteration`. The counted end-notification records are
    /// retired *before* the plugins run: plugin side effects are
    /// at-most-once across crashes (a crash mid-fire does not re-fire the
    /// iteration on replay — its data is still flushed at `Terminate`).
    fn fire_iteration(
        &mut self,
        iteration: u32,
        counted: &[(u32, u64)],
        presence: Option<u64>,
    ) -> Result<(), DamarisError> {
        self.retire(counted);
        let info = EventInfo {
            name: END_OF_ITERATION.to_string(),
            iteration,
            source: SERVER_SOURCE,
        };
        let t_epe = self.rec.begin();
        if presence.is_some() {
            // Firing without every client: the persisted datasets are
            // stamped with the presence bitmap for the recovery scan.
            FaultStats::bump(&self.shared.stats.partial_iterations);
        }
        // Rewritten duplicates of this iteration join the flush, where the
        // (source, seq) sort merges them back into FIFO order with the
        // segments the plugins drain.
        let held = self.held_rewrites.remove(&iteration).unwrap_or_default();
        self.with_ctx(held, presence, |epe, ctx| epe.fire(ctx, &info))?;
        self.rec.end(EventKind::EpeDispatch, iteration, 0, t_epe);
        // The iteration span covers everything since the previous fire
        // completed (idle + dispatch), so per-phase sums can be checked
        // against it for coverage.
        let now = self.rec.begin();
        self.rec.event(
            EventKind::Iteration,
            iteration,
            0,
            now.saturating_sub(self.last_fire_end),
        );
        self.last_fire_end = now;
        self.last_fired = iteration;
        self.report.iterations_persisted += 1;
        // Between-iteration drain: telemetry I/O rides the dedicated core,
        // never the compute ranks.
        self.obs_flush.drain(self.shared, self.node_id);
        Ok(())
    }

    /// Discards a ready iteration whole: nothing persists, every resident
    /// segment (and held rewrite) releases in FIFO order, and the counted
    /// end records retire. Counted in `iterations_degraded`. Two policies
    /// discard: `on_client_failure="drop-iteration"` drops an iteration
    /// missing a fenced client, and `on_disk_full="drop-iteration"` sheds
    /// (`shed`) one that becomes ready while the node is read-only.
    fn discard_iteration(
        &mut self,
        iteration: u32,
        counted: &[(u32, u64)],
        shed: bool,
    ) -> Result<(), DamarisError> {
        self.retire(counted);
        let held = self.held_rewrites.remove(&iteration).unwrap_or_default();
        self.with_ctx(held, None, |_, ctx| {
            let drained = ctx.store.drain_iteration(iteration);
            ctx.release_all(drained);
            Ok(())
        })?;
        let stats = &self.shared.stats;
        FaultStats::bump(&stats.iterations_degraded);
        let cause = if shed {
            FaultStats::bump(&stats.storage_pressure_sheds);
            "shed: storage read-only under on_disk_full"
        } else {
            "dropped: client(s) fenced under on_client_failure"
        };
        eprintln!(
            "[damaris node {}] iteration {iteration} {cause}=\"drop-iteration\"",
            self.node_id
        );
        Ok(())
    }

    /// Advances the storage-pressure machine against the backend's
    /// sentinel, so transitions — including the re-ascent to Normal when
    /// a chaos scenario lifts the quota — are observed even when no events
    /// flow.
    fn poll_pressure(&self) {
        if self.pressure_on {
            let shared = self.shared;
            shared.pressure.poll(
                self.node_id,
                shared.backend.as_ref(),
                &shared.stats,
                &self.rec,
                self.last_fired,
            );
        }
    }

    /// Fires (or drops) every iteration whose clients are all counted or
    /// fenced, in ascending order. Complete iterations fire exactly as
    /// before; incomplete ones only become eligible through fencing, and
    /// the policy decides between a partial fire (presence-stamped) and a
    /// drop. While the storage-pressure machine is read-only, ready
    /// iterations are shed per `on_disk_full` instead: `block` holds them
    /// resident until space returns, `drop-iteration` discards them,
    /// `partial` falls through and lets persist fail fast.
    fn fire_ready(&mut self) -> Result<(), DamarisError> {
        let shared = self.shared;
        let (clients, resilience) = (shared.clients, &shared.config.resilience);
        let mut ready: Vec<u32> = self
            .end_counts
            .iter()
            .filter(|(_, counted)| iteration_complete(counted, &self.fenced, clients))
            .map(|(it, _)| *it)
            .collect();
        ready.sort_unstable();
        let read_only = self.pressure_on && shared.pressure.is_read_only();
        for iteration in ready {
            let counted = self.end_counts.remove(&iteration).unwrap_or_default();
            if read_only {
                match resilience.on_disk_full {
                    OnDiskFull::Block => {
                        // Keep the iteration pending (data resident,
                        // notifications counted); re-examined on every
                        // pass until the quota relieves.
                        self.end_counts.insert(iteration, counted);
                        continue;
                    }
                    OnDiskFull::DropIteration => {
                        self.discard_iteration(iteration, &counted, true)?;
                        continue;
                    }
                    OnDiskFull::Partial => {}
                }
            }
            if counted.len() == clients {
                self.fire_iteration(iteration, &counted, None)?;
            } else if resilience.on_client_failure.drops_incomplete() {
                self.discard_iteration(iteration, &counted, false)?;
            } else {
                self.fire_iteration(iteration, &counted, presence_bits(&counted, clients))?;
            }
        }
        Ok(())
    }

    /// One sweeper pass: revoke-or-refresh every live client's lease. A
    /// lease unchanged past its deadline is revoked via compare-exchange
    /// against our stale observation — the CAS is the arbiter of the
    /// revoke-vs-late-renew race, so exactly one side wins. A successful
    /// revoke fences the client's journal source and cancels its pending
    /// notifications through the claim lattice; cancelled segments are
    /// held until their iteration's flush so per-client FIFO release
    /// survives.
    fn sweep_leases(&mut self) {
        if !self.sweeper_on {
            return;
        }
        let shared = self.shared;
        let lease_timeout = shared.config.resilience.client_lease_timeout;
        let now = shared.backend.clock().now();
        for c in 0..shared.clients {
            let cu = c as u32;
            if self.fenced.contains(&cu) {
                continue;
            }
            // invariant: the lease table is sized for the node's clients.
            let lease = shared.leases.lease(c).expect("lease table covers every client");
            let snap = lease.snapshot();
            if snap != self.lease_track[c].0 {
                // The client renewed since we last looked: refresh.
                self.lease_track[c] = (snap, now + lease_timeout);
                continue;
            }
            if now < self.lease_track[c].1 {
                continue;
            }
            if !lease.try_revoke(snap) {
                // A renew won the race — the client is alive.
                self.lease_track[c] = (lease.snapshot(), now + lease_timeout);
                continue;
            }
            let t_sweep = self.rec.begin();
            FaultStats::bump(&shared.stats.client_leases_expired);
            self.fenced.insert(cu);
            for (seq, payload) in shared.journal.fence(cu) {
                if shared.journal.claim(seq) == Claim::Fresh {
                    self.cancel(seq, payload);
                }
            }
            eprintln!(
                "[damaris node {}] client {cu} lease expired after \
                 {lease_timeout:?}; fenced and cancelled",
                self.node_id
            );
            self.rec.end(EventKind::LeaseSweep, self.last_fired, 0, t_sweep);
        }
    }

    /// Reclaims fenced clients' outstanding shared memory once no live
    /// handle of theirs remains on the server (store, held rewrites):
    /// `revoke_remaining` swallows *everything* the
    /// client has outstanding, so a held handle released afterwards would
    /// double-free. Re-run at every opportunity — a zombie (fenced but
    /// still scheduled) client can keep allocating until it observes its
    /// revoked lease.
    fn reclaim_fenced(&self) {
        for &cu in &self.fenced {
            if self.store.has_source(cu)
                || self
                    .held_rewrites
                    .values()
                    .any(|v| v.iter().any(|(s, _, _)| *s == cu))
            {
                continue;
            }
            let reclaimed = self.shared.buffer.revoke_remaining(cu);
            if reclaimed > 0 {
                self.shared.stats.segments_reclaimed.add(reclaimed as u64);
                eprintln!(
                    "[damaris node {}] reclaimed {reclaimed}B of abandoned \
                     shared memory from fenced client {cu}",
                    self.node_id
                );
            }
        }
    }

    /// `Terminate`: flushes any iterations that never completed (e.g. a
    /// client crashed between write and end_iteration) — persisting what
    /// we have rather than losing it — then lets stateful plugins flush
    /// their residuals. Incomplete flushes get the presence stamp under
    /// the `partial` policy so recovery can tell which ranks made it.
    fn shutdown(&mut self) -> Result<(), DamarisError> {
        let clients = self.shared.clients;
        let partial = self.shared.config.resilience.on_client_failure == OnClientFailure::Partial;
        for iteration in self.store.pending_iterations() {
            let counted = self.end_counts.remove(&iteration).unwrap_or_default();
            let presence = if counted.len() == clients || !partial {
                None
            } else {
                presence_bits(&counted, clients)
            };
            self.fire_iteration(iteration, &counted, presence)?;
        }
        // End-notifications for iterations with no resident data have no
        // further effect; retire their records.
        for (_, counted) in std::mem::take(&mut self.end_counts) {
            self.retire(&counted);
        }
        // Belt and braces: every held rewrite belongs to an iteration whose
        // replacement was resident, so the flush-out above should have
        // drained the map — but never leak a segment on the way out.
        let held = std::mem::take(&mut self.held_rewrites).into_values().flatten().collect();
        self.with_ctx(held, None, |epe, ctx| epe.finalize_all(ctx))?;
        // Last zombie reclamation: nothing of the fenced clients' is held
        // any more, so their partitions drain completely.
        self.reclaim_fenced();
        Ok(())
    }

    /// Compacts the journal, closes the trace and snapshots the counters.
    fn finish(mut self) -> NodeReport {
        let shared = self.shared;
        shared.journal.compact();
        // Final drain so records from the tail of the run (and the shutdown
        // pass itself) reach the histograms and the trace file.
        self.obs_flush.drain(shared, self.node_id);
        self.obs_flush.finish(self.node_id);

        let mut report = self.report;
        report.files_created = shared.backend.files_created();
        report.bytes_stored = shared.backend.bytes_written();
        let stats = &shared.stats;
        report.persist_retries = FaultStats::get(&stats.persist_retries);
        report.iterations_degraded = FaultStats::get(&stats.iterations_degraded);
        report.writes_dropped = FaultStats::get(&stats.writes_dropped);
        report.sync_fallback_writes = FaultStats::get(&stats.sync_fallback_writes);
        report.plugin_failures = FaultStats::get(&stats.plugin_failures);
        report.plugins_quarantined = FaultStats::get(&stats.plugins_quarantined);
        report.recovery_actions = FaultStats::get(&stats.recovery_actions);
        report.epe_respawns = FaultStats::get(&stats.epe_respawns);
        report.events_replayed = FaultStats::get(&stats.events_replayed);
        report.stale_events_rejected = FaultStats::get(&stats.stale_events_rejected);
        report.heartbeat_stale_observed = FaultStats::get(&stats.heartbeat_stale_observed);
        report.client_leases_expired = FaultStats::get(&stats.client_leases_expired);
        report.segments_reclaimed = FaultStats::get(&stats.segments_reclaimed);
        report.crc_quarantined = FaultStats::get(&stats.crc_quarantined);
        report.partial_iterations = FaultStats::get(&stats.partial_iterations);
        report.storage_pressure_degraded = FaultStats::get(&stats.storage_pressure_degraded);
        report.storage_pressure_readonly = FaultStats::get(&stats.storage_pressure_readonly);
        report.storage_pressure_recovered = FaultStats::get(&stats.storage_pressure_recovered);
        report.storage_pressure_sheds = FaultStats::get(&stats.storage_pressure_sheds);
        report.storage_pressure_gc_bytes = FaultStats::get(&stats.storage_pressure_gc_bytes);
        report
    }
}

/// The dedicated core's between-iteration trace drain: the single
/// consumer of every ring on the node. Flushed records always feed the
/// per-phase `phase.<kind>_ns` histograms in the node registry; when a
/// trace directory is configured they are additionally appended to a
/// CRC-guarded `node-<id>.dtrc` file (one file per server incarnation, so
/// a respawn never clobbers the predecessor's records).
struct ObsFlush {
    scratch: Vec<TraceRecord>,
    /// Per-kind histograms, indexed by `EventKind as usize`.
    hists: Vec<Histogram>,
    writer: Option<TraceWriter<BufWriter<std::fs::File>>>,
    /// Ring-drop total already forwarded to the writer.
    dropped_seen: u64,
}

impl ObsFlush {
    fn new(shared: &NodeShared, node_id: u32, epoch: u32) -> ObsFlush {
        let hists = EventKind::ALL
            .iter()
            .map(|k| shared.metrics.histogram(&format!("phase.{}_ns", k.label())))
            .collect();
        let writer = shared.obs.trace_dir.as_ref().and_then(|dir| {
            let name = if epoch == 0 {
                format!("node-{node_id}.dtrc")
            } else {
                format!("node-{node_id}-e{epoch}.dtrc")
            };
            let path = dir.join(name);
            let open = std::fs::create_dir_all(dir)
                .map_err(damaris_format::SdfError::from)
                .and_then(|()| {
                    let file = std::fs::File::create(&path)?;
                    TraceWriter::new(BufWriter::new(file))
                });
            match open {
                Ok(w) => Some(w),
                Err(e) => {
                    // Telemetry must never take down the data path: run on
                    // without a trace file.
                    eprintln!(
                        "[damaris node {node_id}] trace file {} disabled: {e}",
                        path.display()
                    );
                    None
                }
            }
        });
        ObsFlush {
            scratch: Vec::new(),
            hists,
            writer,
            dropped_seen: 0,
        }
    }

    fn drain(&mut self, shared: &NodeShared, node_id: u32) {
        self.scratch.clear();
        let mut dropped = 0;
        for ring in shared.obs.rings() {
            ring.flush_into(&mut self.scratch);
            dropped += ring.dropped();
        }
        for r in &self.scratch {
            if let Some(kind) = r.event_kind() {
                self.hists[kind as usize].observe(r.dur_ns);
            }
        }
        if let Some(w) = &mut self.writer {
            if dropped > self.dropped_seen {
                w.note_dropped(dropped - self.dropped_seen);
            }
            if !self.scratch.is_empty() {
                if let Err(e) = w.write_block(&self.scratch) {
                    eprintln!("[damaris node {node_id}] trace write failed, disabling: {e}");
                    self.writer = None;
                }
            }
        }
        self.dropped_seen = dropped;
    }

    fn finish(&mut self, node_id: u32) {
        if let Some(w) = self.writer.take() {
            if let Err(e) = w.finish() {
                eprintln!("[damaris node {node_id}] trace file close failed: {e}");
            }
        }
    }
}
