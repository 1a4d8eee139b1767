//! Write-ahead journal for the node's shared event queue.
//!
//! The dedicated core (EPE) runs as a thread; if it dies, the queue, the
//! shared buffer, and this journal all survive in [`crate::node::NodeShared`],
//! but the server's in-flight state — its metadata store, its
//! end-of-iteration counts — dies with its stack. The journal is what lets
//! a respawned server reconstruct that state:
//!
//! * every client [`Note`] is appended here **before** it is pushed onto
//!   the queue, as a `Note<Span>` (the segment's coordinates instead of
//!   its live handle); the queue [`crate::event::Event`] carries the same
//!   note and the assigned sequence number;
//! * the server *claims* each sequence number as it pops the event
//!   ([`EventJournal::claim`]), and marks it *applied* once its side
//!   effects are durable (segment released, iteration fired);
//! * a respawned server replays every non-applied record in sequence
//!   order, re-adopting the shared-memory segments the dead server had
//!   resident, and the stale queue copies of replayed events are rejected
//!   when they eventually pop — `claim` is the exactly-once arbiter
//!   closing the race between the replay snapshot and late queue pops.
//!
//! Records carry a CRC over their header (computed with the same
//! `damaris-format` CRC-32 the SDF files use); a corrupted record is
//! skipped at replay rather than poisoning the new epoch.
//!
//! # Invariants
//!
//! * Sequence numbers are assigned by one atomic counter and never reused:
//!   the journal's iteration order *is* the global notification order, and
//!   per client it matches queue order (each client appends, then pushes).
//! * A record moves `Pending → Resident → Applied`, never backwards; only
//!   `claim` performs `Pending → Resident` and it succeeds exactly once.
//! * `Applied` records are dead weight; [`EventJournal::compact`] drops
//!   them (a missing record claims as `Stale`, preserving at-most-once).

//! # Fast path
//!
//! The overwhelmingly common record — a static-layout `Write` from a
//! low-numbered source — never touches the mutex or the heap on append:
//! it is staged as a fixed-size `FixedWriteRecord` in a lock-free slab
//! and folded into the `BTreeMap` by whichever mutex entry point runs
//! next (`claim` on the dedicated core's pop, `fence`, `replay_snapshot`,
//! …). Appends and fences race by design; the slab's publish/recheck
//! protocol (see [`EventJournal::append_write`]) guarantees a fenced
//! source's staged record is either collected by the fence or cancelled
//! by the appender — never silently retained. Both paths stamp the header
//! CRC with the one `header_crc`.

use crate::event::{Note, Span};
use damaris_shm::sync::{AtomicU64, Mutex, Ordering, ShmCell};
use std::collections::{BTreeMap, BTreeSet};

/// [`EventJournal::append`] rejected the record: the source has been
/// fenced by the lease sweeper and may no longer journal notifications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fenced {
    pub source: u32,
}

/// Lifecycle of a journal record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordState {
    /// Appended, not yet claimed by any server epoch (the event is still
    /// in the queue, or was, when the previous server died).
    Pending,
    /// Claimed by a server: a `Write` is resident in the metadata store,
    /// an `EndIteration` is counted, a `User` is about to fire.
    Resident,
    /// Side effects durable; the record is garbage awaiting [`EventJournal::compact`].
    Applied,
}

/// One journaled notification.
#[derive(Debug, Clone)]
pub struct JournalRecord {
    pub seq: u64,
    /// Heartbeat epoch of the *appending* side at append time (0 for
    /// clients started before any respawn). Diagnostic only.
    pub epoch: u32,
    /// `header_crc` at append; verified at replay.
    pub crc: u32,
    pub note: Note<Span>,
    pub state: RecordState,
}

/// Outcome of [`EventJournal::claim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    /// First claim — process the event.
    Fresh,
    /// Already claimed (by a previous epoch's replay or processing) —
    /// drop the event without side effects.
    Stale,
}

/// What a replaying server gets for each surviving record.
#[derive(Debug, Clone)]
pub struct ReplayEntry {
    pub seq: u64,
    pub state: RecordState,
    pub note: Note<Span>,
}

#[derive(Debug, Default)]
struct JournalInner {
    records: BTreeMap<u64, JournalRecord>,
    /// Sources whose leases were revoked: appends from them are rejected.
    /// Lives under the same lock as the records so fencing and the
    /// collection of a dead client's pending seqnos are one atomic step —
    /// no append can slip in between.
    fenced: BTreeSet<u32>,
}

/// Slot states, packed into the low 2 bits of the state word; the upper
/// 62 bits carry the staged record's sequence number, which makes every
/// state transition ABA-proof (a recycled slot never matches a stale
/// compare-exchange expectation).
const SLOT_FREE: u64 = 0;
const SLOT_CLAIMED: u64 = 1;
const SLOT_READY: u64 = 2;
const SLOT_DRAINING: u64 = 3;
const STATE_TAG_MASK: u64 = 0b11;

/// Sources `0..FAST_SOURCES` get a fence bit in `fenced_mask` and may use
/// the lock-free append path; higher sources fall back to the mutex.
const FAST_SOURCES: u32 = 64;

/// Staging capacity shared by all fast-path appenders. Exhaustion is not
/// an error — appends overflow to the mutex path — but it only happens
/// when the dedicated core has not popped (and therefore not drained) for
/// a full slab of writes.
const STAGING_SLOTS: usize = 64;

fn pack(tag: u64, seq: u64) -> u64 {
    (seq << 2) | tag
}

/// The fixed-size, heap-free image of a static-layout `Write` record —
/// everything its [`Note::Write`] carries except `dynamic_layout` (dynamic
/// writes take the mutex path; they allocate regardless).
#[derive(Debug, Clone, Copy, Default)]
struct FixedWriteRecord {
    variable_id: u32,
    iteration: u32,
    source: u32,
    data_crc: u32,
    segment: Span,
    epoch: u32,
    /// [`header_crc`] of [`note`](Self::note), stamped at append.
    crc: u32,
}

impl FixedWriteRecord {
    fn note(&self) -> Note<Span> {
        Note::Write {
            variable_id: self.variable_id,
            iteration: self.iteration,
            source: self.source,
            segment: self.segment,
            dynamic_layout: None,
            data_crc: self.data_crc,
        }
    }
}

/// One lock-free staging slot.
struct StagingSlot {
    state: AtomicU64,
    rec: ShmCell<FixedWriteRecord>,
}

/// The write-ahead journal shared by a node's clients and its (current)
/// dedicated-core thread.
pub struct EventJournal {
    next_seq: AtomicU64,
    inner: Mutex<JournalInner>,
    staging: Box<[StagingSlot]>,
    /// One fence bit per fast-path source; the lock-free counterpart of
    /// `JournalInner::fenced` (which remains authoritative for all
    /// sources). Written only by [`fence`](Self::fence).
    fenced_mask: AtomicU64,
}

impl Default for EventJournal {
    fn default() -> Self {
        let staging: Vec<StagingSlot> = (0..STAGING_SLOTS)
            .map(|_| StagingSlot {
                state: AtomicU64::new(pack(SLOT_FREE, 0)),
                rec: ShmCell::new(FixedWriteRecord::default()),
            })
            .collect();
        EventJournal {
            next_seq: AtomicU64::new(0),
            inner: Mutex::default(),
            staging: staging.into_boxed_slice(),
            fenced_mask: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for EventJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "EventJournal(next_seq={})",
            self.next_seq.load(Ordering::Relaxed)
        )
    }
}

/// CRC-32 over a record's integrity-protected fields — sequence number,
/// kind tag, then the kind's fields (a dynamic layout is not covered) —
/// fed field by field, so neither append path builds a buffer.
fn header_crc(seq: u64, note: &Note<Span>) -> u32 {
    let mut crc = 0xFFFF_FFFF;
    let mut feed = |bytes: &[u8]| crc = damaris_format::crc32_update(crc, bytes);
    feed(&seq.to_le_bytes());
    match note {
        Note::Write {
            variable_id,
            segment,
            data_crc,
            ..
        } => {
            feed(&[0]);
            feed(&variable_id.to_le_bytes());
            feed(&(segment.offset as u64).to_le_bytes());
            feed(&(segment.len as u64).to_le_bytes());
            feed(&data_crc.to_le_bytes());
        }
        Note::User { name, .. } => {
            feed(&[1]);
            feed(name.as_bytes());
        }
        Note::EndIteration { .. } => feed(&[2]),
        Note::Abandon { segment, .. } => {
            feed(&[3]);
            feed(&(segment.offset as u64).to_le_bytes());
            feed(&(segment.len as u64).to_le_bytes());
        }
    }
    feed(&note.iteration().to_le_bytes());
    feed(&note.source().to_le_bytes());
    crc ^ 0xFFFF_FFFF
}

impl EventJournal {
    pub fn new() -> Self {
        Self::default()
    }

    /// Journals a note and returns its sequence number. Called by clients
    /// *before* the matching queue push. Fails if the source has been
    /// fenced ([`fence`](Self::fence)) — the caller must abandon the
    /// operation and surface a `ClientFenced` error instead of pushing.
    ///
    /// This is the mutex path, for control-plane kinds and dynamic-layout
    /// writes; static writes go through [`append_write`](Self::append_write).
    pub fn append(&self, epoch: u32, note: Note<Span>) -> Result<u64, Fenced> {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        self.append_with_seq(seq, epoch, note)
    }

    /// The mutex path behind [`append`](Self::append), and the fallback of
    /// [`append_write`](Self::append_write) when the slab is full or the
    /// source is outside the fence-bit range.
    // ANALYZE: cold — the mutex path: control-plane kinds, dynamic writes and fast-path overflow take the lock by design; bounded jitter, correctness identical
    #[cold]
    fn append_with_seq(&self, seq: u64, epoch: u32, note: Note<Span>) -> Result<u64, Fenced> {
        let source = note.source();
        let record = JournalRecord {
            seq,
            epoch,
            crc: header_crc(seq, &note),
            note,
            state: RecordState::Pending,
        };
        let mut inner = self.inner.lock();
        self.drain_staged(&mut inner);
        if inner.fenced.contains(&source) {
            return Err(Fenced { source });
        }
        inner.records.insert(seq, record);
        Ok(seq)
    }

    /// Journals a static-layout write **without locking or allocating** —
    /// the jitter-free counterpart of [`append`](Self::append) on the
    /// client `write()` path.
    ///
    /// Protocol (the fence race is the whole game):
    ///
    /// 1. check the fence bit — cheap early out;
    /// 2. claim a `FREE` staging slot by seq-tagged compare-exchange;
    /// 3. fill the record, publish `READY` with a SeqCst store;
    /// 4. re-check the fence bit with a SeqCst load. [`fence`] sets the
    ///    bit (SeqCst RMW) *before* scanning the slab, so in the SeqCst
    ///    total order either our `READY` precedes the scan (the fence
    ///    collects the record and hands it to the sweeper) or the scan
    ///    precedes our re-check (we see the bit). If we see the bit we
    ///    try to cancel `READY → FREE`; losing that race means the fence
    ///    collected it — both outcomes return `Err(Fenced)` and the
    ///    record is cancelled through the claim lattice, exactly like a
    ///    mutex-path append that lost to the fence.
    ///
    /// Slab exhaustion and sources above the fence-bit range fall back to
    /// the mutex path — correctness is identical, only latency differs.
    // ANALYZE: hot
    #[allow(clippy::too_many_arguments)]
    pub fn append_write(
        &self,
        epoch: u32,
        variable_id: u32,
        iteration: u32,
        source: u32,
        offset: usize,
        len: usize,
        data_crc: u32,
    ) -> Result<u64, Fenced> {
        // Relaxed: the counter only hands out unique tickets; record
        // visibility is ordered by the slot state below (or the mutex).
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let mut rec = FixedWriteRecord {
            variable_id,
            iteration,
            source,
            data_crc,
            segment: Span { offset, len },
            epoch,
            crc: 0,
        };
        if source >= FAST_SOURCES {
            return self.append_with_seq(seq, epoch, rec.note());
        }
        let bit = 1u64 << source;
        // seqcst: fence-vs-append is a store-buffering (Dekker) pattern —
        // this early check only saves work; the re-check after publish is
        // the one the argument rests on, and both must be in the same
        // total order as fence()'s fetch_or + slab scan.
        if self.fenced_mask.load(Ordering::SeqCst) & bit != 0 {
            return Err(Fenced { source });
        }
        rec.crc = header_crc(seq, &rec.note());
        for slot in self.staging.iter() {
            // Relaxed probe: the claim CAS below re-validates the word.
            let cur = slot.state.load(Ordering::Relaxed);
            if cur & STATE_TAG_MASK != SLOT_FREE {
                continue;
            }
            // Acquire: pairs with the drainer's Release store of FREE so
            // our overwrite of the cell happens-after its copy-out.
            if slot
                .state
                .compare_exchange(cur, pack(SLOT_CLAIMED, seq), Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            // SAFETY: the CAS above made us the slot's unique owner; no
            // other thread touches the cell until we publish READY.
            slot.rec.with_mut(|p| unsafe { *p = rec });
            // seqcst: publish half of the Dekker pattern — must be
            // ordered before the fence-bit re-check below in the global
            // SeqCst order so a racing fence() either sees READY in its
            // scan or its bit is seen by our re-check. Release is not
            // enough: store-buffering allows both sides to miss.
            slot.state.store(pack(SLOT_READY, seq), Ordering::SeqCst);
            // seqcst: re-check half of the Dekker pattern (see above).
            if self.fenced_mask.load(Ordering::SeqCst) & bit != 0 {
                // Cancel if the fence's drain has not collected the slot;
                // if the CAS fails the fence owns the record and will
                // cancel it through the claim lattice. AcqRel success:
                // release our cell write, acquire nothing in particular.
                let _ = slot.state.compare_exchange(
                    pack(SLOT_READY, seq),
                    pack(SLOT_FREE, seq),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                );
                return Err(Fenced { source });
            }
            return Ok(seq);
        }
        self.append_with_seq(seq, epoch, rec.note())
    }

    /// Folds every `READY` staging slot into the record map. Called with
    /// the journal lock held by **every** mutex entry point, so staged
    /// records are visible to any observer that could act on them.
    fn drain_staged(&self, inner: &mut JournalInner) {
        for slot in self.staging.iter() {
            let cur = slot.state.load(Ordering::Relaxed);
            if cur & STATE_TAG_MASK != SLOT_READY {
                continue;
            }
            // Acquire: pairs with the appender's READY publish so the
            // record bytes are visible; the CAS also arbitrates against
            // the appender's own cancel (exactly one of us wins).
            if slot
                .state
                .compare_exchange(
                    cur,
                    (cur & !STATE_TAG_MASK) | SLOT_DRAINING,
                    Ordering::Acquire,
                    Ordering::Relaxed,
                )
                .is_err()
            {
                continue;
            }
            let seq = cur >> 2;
            // SAFETY: DRAINING excludes both slot reuse and the
            // appender's cancel CAS; the cell is ours to read.
            let rec = slot.rec.with(|p| unsafe { *p });
            if inner.fenced.contains(&rec.source) {
                // The source was fenced *before* this drain. fence() sets
                // its bit and scans the slab in one critical section
                // before marking the source fenced here, so any record it
                // could collect, it did; a staged record still visible
                // from an already-fenced source was published by an
                // appender that observed the fence bit at its re-check
                // and returned `Err` — we won its cancel race, so we
                // complete the cancellation by dropping the record
                // instead of inserting a ghost nobody would ever claim.
                slot.state.store(pack(SLOT_FREE, seq), Ordering::Release);
                continue;
            }
            inner.records.insert(seq, JournalRecord {
                seq,
                epoch: rec.epoch,
                crc: rec.crc,
                note: rec.note(),
                state: RecordState::Pending,
            });
            // Release: hands the slot back; pairs with a future
            // appender's Acquire claim CAS.
            slot.state.store(pack(SLOT_FREE, seq), Ordering::Release);
        }
    }

    /// Fences `source` — all further appends from it fail — and returns
    /// the still-`Pending` records of that source, in sequence order, so
    /// the sweeper can cancel them through the [`claim`](Self::claim)
    /// lattice (re-adopting `Write`/`Abandon` segments by their journaled
    /// coordinates). One critical section: no append can land between the
    /// fence and the collection.
    pub fn fence(&self, source: u32) -> Vec<(u64, Note<Span>)> {
        if source < FAST_SOURCES {
            // seqcst: fence half of the Dekker pattern — the bit must be
            // set in the global SeqCst order *before* the slab scan below
            // (inside drain_staged) so a racing append_write either gets
            // its READY collected here or observes the bit at its
            // re-check. See append_write for the full argument.
            self.fenced_mask.fetch_or(1u64 << source, Ordering::SeqCst);
        }
        let mut inner = self.inner.lock();
        self.drain_staged(&mut inner);
        inner.fenced.insert(source);
        inner
            .records
            .values()
            .filter(|rec| rec.state == RecordState::Pending && rec.note.source() == source)
            .map(|rec| (rec.seq, rec.note.clone()))
            .collect()
    }

    /// Whether `source` has been fenced.
    pub fn is_fenced(&self, source: u32) -> bool {
        self.inner.lock().fenced.contains(&source)
    }

    /// Claims a sequence number for processing: `Pending → Resident`,
    /// exactly once. Any other state — including a record already dropped
    /// by [`compact`](Self::compact) — is `Stale`, and the caller must
    /// discard the event without side effects.
    pub fn claim(&self, seq: u64) -> Claim {
        let mut inner = self.inner.lock();
        self.drain_staged(&mut inner);
        match inner.records.get_mut(&seq) {
            Some(rec) if rec.state == RecordState::Pending => {
                rec.state = RecordState::Resident;
                Claim::Fresh
            }
            _ => Claim::Stale,
        }
    }

    /// Marks a record's side effects durable. Idempotent; unknown
    /// sequence numbers (already compacted) are ignored.
    pub fn mark_applied(&self, seq: u64) {
        let mut inner = self.inner.lock();
        self.drain_staged(&mut inner);
        if let Some(rec) = inner.records.get_mut(&seq) {
            rec.state = RecordState::Applied;
        }
    }

    /// Snapshot of every non-applied record in sequence order, for a
    /// respawned server to replay. CRC-corrupted records are skipped; the
    /// second element counts them.
    pub fn replay_snapshot(&self) -> (Vec<ReplayEntry>, usize) {
        let mut inner = self.inner.lock();
        self.drain_staged(&mut inner);
        let mut entries = Vec::new();
        let mut corrupt = 0;
        for rec in inner.records.values() {
            if rec.state == RecordState::Applied {
                continue;
            }
            if header_crc(rec.seq, &rec.note) != rec.crc {
                corrupt += 1;
                continue;
            }
            entries.push(ReplayEntry {
                seq: rec.seq,
                state: rec.state,
                note: rec.note.clone(),
            });
        }
        (entries, corrupt)
    }

    /// Drops applied records; returns how many were removed.
    pub fn compact(&self) -> usize {
        let mut inner = self.inner.lock();
        self.drain_staged(&mut inner);
        let before = inner.records.len();
        inner.records.retain(|_, rec| rec.state != RecordState::Applied);
        before - inner.records.len()
    }

    /// Records currently retained (any state), staged ones included.
    pub fn len(&self) -> usize {
        let mut inner = self.inner.lock();
        self.drain_staged(&mut inner);
        inner.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Test hook: flip a record's stored CRC so replay sees corruption.
    #[cfg(test)]
    fn corrupt_for_test(&self, seq: u64) {
        let mut inner = self.inner.lock();
        self.drain_staged(&mut inner);
        if let Some(rec) = inner.records.get_mut(&seq) {
            rec.crc ^= 0xdead_beef;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_note(source: u32) -> Note<Span> {
        Note::Write {
            variable_id: 1,
            iteration: 0,
            source,
            segment: Span { offset: 128, len: 64 },
            dynamic_layout: None,
            data_crc: 0,
        }
    }

    #[test]
    fn seqnos_are_monotonic_and_claims_are_exactly_once() {
        let j = EventJournal::new();
        let a = j.append(0, write_note(0)).unwrap();
        let b = j
            .append(0, Note::EndIteration {
                iteration: 0,
                source: 0,
            })
            .unwrap();
        assert!(b > a);
        assert_eq!(j.claim(a), Claim::Fresh);
        assert_eq!(j.claim(a), Claim::Stale);
        assert_eq!(j.claim(b), Claim::Fresh);
        // Unknown (never appended / compacted) seqnos are stale too.
        assert_eq!(j.claim(b + 1000), Claim::Stale);
    }

    #[test]
    fn replay_skips_applied_and_orders_by_seq() {
        let j = EventJournal::new();
        let a = j.append(0, write_note(0)).unwrap();
        let b = j.append(0, write_note(1)).unwrap();
        let c = j
            .append(0, Note::User {
                name: "snap".into(),
                iteration: 0,
                source: 1,
            })
            .unwrap();
        j.claim(a);
        j.mark_applied(a);
        j.claim(b); // resident, not applied: must replay
        let (entries, corrupt) = j.replay_snapshot();
        assert_eq!(corrupt, 0);
        let seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![b, c]);
        assert_eq!(entries[0].state, RecordState::Resident);
        assert_eq!(entries[1].state, RecordState::Pending);
    }

    #[test]
    fn corrupt_records_are_skipped_not_replayed() {
        let j = EventJournal::new();
        let a = j.append(0, write_note(0)).unwrap();
        let b = j.append(0, write_note(1)).unwrap();
        j.corrupt_for_test(a);
        let (entries, corrupt) = j.replay_snapshot();
        assert_eq!(corrupt, 1);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].seq, b);
    }

    #[test]
    fn compact_drops_only_applied() {
        let j = EventJournal::new();
        let a = j.append(0, write_note(0)).unwrap();
        let b = j.append(0, write_note(1)).unwrap();
        j.claim(a);
        j.mark_applied(a);
        assert_eq!(j.compact(), 1);
        assert_eq!(j.len(), 1);
        // The compacted record stays at-most-once.
        assert_eq!(j.claim(a), Claim::Stale);
        assert_eq!(j.claim(b), Claim::Fresh);
    }

    #[test]
    fn fence_rejects_appends_and_collects_pending() {
        let j = EventJournal::new();
        let a = j.append(0, write_note(3)).unwrap();
        let b = j.append(0, write_note(3)).unwrap();
        let other = j.append(0, write_note(1)).unwrap();
        // One record of the doomed client is already claimed (resident):
        // the fence only hands back the still-pending ones.
        assert_eq!(j.claim(a), Claim::Fresh);
        assert!(!j.is_fenced(3));
        let pending = j.fence(3);
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].0, b);
        assert!(matches!(pending[0].1, Note::Write { source: 3, .. }));
        assert!(j.is_fenced(3));
        // Fenced source can no longer journal; others can.
        assert!(matches!(j.append(0, write_note(3)), Err(Fenced { source: 3 })));
        assert!(j.append(0, write_note(1)).is_ok());
        // Fencing twice is idempotent (the pending set may have shrunk).
        assert_eq!(j.claim(b), Claim::Fresh);
        assert!(j.fence(3).is_empty());
        // The unrelated client's record is untouched.
        assert_eq!(j.claim(other), Claim::Fresh);
    }

    #[test]
    fn fast_and_mutex_appends_stamp_the_same_header_crc() {
        // The same static write, once staged lock-free and once through
        // the mutex path, each as the first record (seq 0) of its journal.
        let fast = EventJournal::new();
        let slow = EventJournal::new();
        let a = fast.append_write(9, 7, 3, 42, 4096, 1024, 0xdead_beef).unwrap();
        let b = slow
            .append(9, Note::Write {
                variable_id: 7,
                iteration: 3,
                source: 42,
                segment: Span {
                    offset: 4096,
                    len: 1024,
                },
                dynamic_layout: None,
                data_crc: 0xdead_beef,
            })
            .unwrap();
        assert_eq!((a, b), (0, 0));
        let crc_of = |j: &EventJournal| {
            // The snapshot folds the staged record into the map.
            let (entries, corrupt) = j.replay_snapshot();
            assert_eq!(corrupt, 0);
            (entries[0].note.clone(), j.inner.lock().records[&0].crc)
        };
        assert_eq!(crc_of(&fast), crc_of(&slow));
    }

    #[test]
    fn fast_append_is_visible_claimable_and_crc_clean() {
        let j = EventJournal::new();
        let seq = j.append_write(5, 7, 3, 2, 4096, 1024, 0xabcd).unwrap();
        // Any mutex entry point folds the staged record in.
        assert_eq!(j.len(), 1);
        let (entries, corrupt) = j.replay_snapshot();
        assert_eq!(corrupt, 0, "staged record must replay with a valid CRC");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].seq, seq);
        assert_eq!(entries[0].note, Note::Write {
            variable_id: 7,
            iteration: 3,
            source: 2,
            segment: Span {
                offset: 4096,
                len: 1024
            },
            dynamic_layout: None,
            data_crc: 0xabcd,
        });
        assert_eq!(j.claim(seq), Claim::Fresh);
        assert_eq!(j.claim(seq), Claim::Stale);
    }

    #[test]
    fn fast_append_after_fence_is_rejected_without_leaking() {
        let j = EventJournal::new();
        j.fence(2);
        assert!(matches!(j.append_write(0, 1, 0, 2, 0, 8, 0), Err(Fenced { source: 2 })));
        // No record leaked into the map, and no staging slot is stuck.
        assert!(j.is_empty());
        // Other sources still append lock-free.
        assert!(j.append_write(0, 1, 0, 3, 0, 8, 0).is_ok());
        assert_eq!(j.len(), 1);
    }

    #[test]
    fn high_source_overflow_path_works_and_respects_fence() {
        let j = EventJournal::new();
        let seq = j.append_write(0, 1, 0, 200, 0, 8, 0).unwrap();
        assert_eq!(j.claim(seq), Claim::Fresh);
        j.fence(200);
        assert!(matches!(
            j.append_write(0, 1, 0, 200, 0, 8, 0),
            Err(Fenced { source: 200 })
        ));
    }

    #[test]
    fn slab_exhaustion_overflows_to_the_mutex_without_loss() {
        let j = EventJournal::new();
        // One more append than staging slots, with no intervening drain:
        // the last one must take the mutex path, and none may be lost.
        let seqs: Vec<u64> = (0..65)
            .map(|i| j.append_write(0, 1, 0, i % 8, 0, 8, 0).unwrap())
            .collect();
        assert_eq!(j.len(), 65);
        for seq in seqs {
            assert_eq!(j.claim(seq), Claim::Fresh);
        }
    }

    #[test]
    fn concurrent_fast_appends_and_fences_never_lose_or_leak_records() {
        use std::sync::atomic::{AtomicBool, Ordering as StdOrdering};
        let j = std::sync::Arc::new(EventJournal::new());
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0u32..4)
            .map(|source| {
                let j = std::sync::Arc::clone(&j);
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut ok = Vec::new();
                    while !stop.load(StdOrdering::Relaxed) {
                        match j.append_write(0, 1, 0, source, 0, 8, 0) {
                            Ok(seq) => ok.push(seq),
                            Err(Fenced { .. }) => break,
                        }
                    }
                    ok
                })
            })
            .collect();
        // Let the writers run, then fence two of them mid-flight.
        std::thread::sleep(std::time::Duration::from_millis(10));
        let pending_of_fenced: Vec<(u64, Note<Span>)> =
            [0u32, 1].iter().flat_map(|&s| j.fence(s)).collect();
        std::thread::sleep(std::time::Duration::from_millis(5));
        stop.store(true, StdOrdering::Relaxed);
        let ok_seqs: Vec<Vec<u64>> = writers.into_iter().map(|h| h.join().unwrap()).collect();
        // Every seq whose append returned Ok must be claimable exactly once
        // — a fence may not have eaten an acknowledged record.
        for seq in ok_seqs.iter().flatten() {
            assert_eq!(j.claim(*seq), Claim::Fresh, "acknowledged seq {seq} lost");
        }
        // Conversely, every still-pending record in the journal is either
        // acknowledged or was handed to the fence for cancellation: a
        // cancelled fast append may not linger as a claimable ghost.
        let acknowledged: std::collections::BTreeSet<u64> =
            ok_seqs.iter().flatten().copied().collect();
        let fenced_pending: std::collections::BTreeSet<u64> =
            pending_of_fenced.iter().map(|(s, _)| *s).collect();
        let (entries, corrupt) = j.replay_snapshot();
        assert_eq!(corrupt, 0);
        for e in &entries {
            assert!(
                acknowledged.contains(&e.seq) || fenced_pending.contains(&e.seq),
                "seq {} in journal but neither acknowledged nor fence-collected",
                e.seq
            );
        }
    }

    #[test]
    fn data_crc_is_integrity_protected() {
        // Two Write notes differing only in data_crc must have
        // different header CRCs — the end-to-end checksum is itself
        // covered by the journal's integrity guard.
        let j = EventJournal::new();
        let a = j
            .append(0, Note::Write {
                variable_id: 1,
                iteration: 0,
                source: 0,
                segment: Span { offset: 0, len: 8 },
                dynamic_layout: None,
                data_crc: 0x1111,
            })
            .unwrap();
        let (entries, _) = j.replay_snapshot();
        let rec_crc = |seq: u64| {
            entries
                .iter()
                .find(|e| e.seq == seq)
                .map(|e| header_crc(e.seq, &e.note))
                .unwrap()
        };
        let crc_a = rec_crc(a);
        // Same seq, same fields, different data_crc → different header CRC.
        let altered = Note::Write {
            variable_id: 1,
            iteration: 0,
            source: 0,
            segment: Span { offset: 0, len: 8 },
            dynamic_layout: None,
            data_crc: 0x2222,
        };
        assert_ne!(crc_a, header_crc(a, &altered));
    }
}
