//! The partition-ring protocol over *bare words*: the one implementation
//! of the paper's per-client lock-free reservation ring (§III-B).
//!
//! Each ring is a pair of monotonic counters — `head` (bytes ever
//! reserved, written only by the owning client) and `tail` (bytes ever
//! released, written only by the consumer, in FIFO order) — and these free
//! functions run the protocol over any pair of facade [`AtomicU64`]s. The
//! counters have two owners:
//!
//! * [`crate::PartitionAllocator`] keeps them in a process-private `Vec`,
//!   for the threaded node whose cores are threads of one process;
//! * [`crate::mapped::MappedNode`] keeps them **inside the shared
//!   mapping**, so a client's reservation survives the EPE process being
//!   `kill -9`'d (and vice versa).
//!
//! Both topologies therefore share rounding, wrap padding (skipped at
//! reserve time, recovered at release from the FIFO position) and memory
//! orderings, and the model tests (`tests/model.rs`, `--features check`)
//! explore this code whichever owner they drive.
//!
//! ## Memory-ordering argument (verified under `--features check`)
//!
//! Each counter has a single writer, so its owner may load it `Relaxed`
//! (it always sees its own latest value) while the *other* side loads it
//! `Acquire` against the owner's `Release` store. The Acquire on `tail` in
//! [`ring_reserve`] is what makes recycling sound: observing `tail = t`
//! means the consumer finished reading every byte below `t`, so
//! overwriting them cannot race. Third-party observers ([`ring_in_use`])
//! must load `tail` **before** `head`: both counters are monotonic and
//! `tail <= head` holds at every instant, so `tail_read <= head_read`
//! follows — loading them in the other order allowed `tail` to overtake a
//! stale `head` snapshot and the subtraction to underflow (pinned by a
//! model test).

use crate::sync::{AtomicU64, Ordering};
use crate::AllocError;

/// Alignment granted to every reservation (shared with the allocators).
pub const RING_ALIGN: u64 = 8;

/// Rounds a byte length up to the ring granularity (min one unit).
#[inline]
pub fn ring_rounded(len: u64) -> u64 {
    len.div_ceil(RING_ALIGN).max(1) * RING_ALIGN
}

/// Reserves `len` bytes in a ring of `cap` bytes. Returns the byte offset
/// of the reservation **within the region** (the caller adds the region's
/// base offset). Must only be called by the single owner of `head`.
///
/// Lock-free: two loads + one store.
// ANALYZE: hot
#[inline]
pub fn ring_reserve(
    head: &AtomicU64,
    tail: &AtomicU64,
    cap: u64,
    len: u64,
) -> Result<u64, AllocError> {
    let need = ring_rounded(len);
    if need > cap {
        return Err(AllocError::TooLarge);
    }
    // Relaxed: only the calling client writes `head`, so it always sees
    // its own latest value. Acquire on `tail`: pairs with the consumer's
    // Release in `ring_release`/`ring_reclaim`, ordering its reads of the
    // freed bytes before our overwrite of them.
    let h = head.load(Ordering::Relaxed);
    let t = tail.load(Ordering::Acquire);
    // Cannot underflow: the consumer only releases what we reserved, so
    // tail <= head always holds from the owner's view of head.
    let used = h - t;
    let pos = h % cap;
    let (pad, start) = if pos + need <= cap { (0, pos) } else { (cap - pos, 0) };
    if used + pad + need > cap {
        return Err(AllocError::Full);
    }
    // Release: publishes the reservation to `ring_in_use` observers; the
    // data itself is published by the control-plane message (Commit over
    // the socket) that hands the range to the consumer.
    head.store(h + pad + need, Ordering::Release);
    Ok(start)
}

/// Releases the **oldest** live reservation: `seg_pos` is the in-region
/// byte offset `ring_reserve` returned, `len` the requested length. Must
/// be called in reservation order (FIFO) and only by the single owner of
/// `tail`. Wrap padding between the current tail and the reservation
/// start is reclaimed automatically.
#[inline]
pub fn ring_release(head: &AtomicU64, tail: &AtomicU64, cap: u64, seg_pos: u64, len: u64) {
    let need = ring_rounded(len);
    // Relaxed: only this (consumer) side writes `tail`.
    let t = tail.load(Ordering::Relaxed);
    let tail_pos = t % cap;
    let pad = (seg_pos + cap - tail_pos) % cap;
    // Acquire: pairs with the client's Release store of `head` so the
    // FIFO debug check below sees the reservation being released.
    let h = head.load(Ordering::Acquire);
    debug_assert!(
        t + pad + need <= h,
        "FIFO release violated: tail {t} pad {pad} need {need} head {h}"
    );
    // Release: hands the freed bytes back to the client — pairs with the
    // Acquire on `tail` in `ring_reserve`.
    tail.store(t + pad + need, Ordering::Release);
}

/// Reclaims everything still reserved by advancing `tail` to `head`;
/// returns the bytes reclaimed (including wrap padding). The consumer's
/// terminal sweep for a fenced client: the owner's lease must already be
/// revoked, and the sweeper re-runs this until it returns 0 (see
/// `PartitionAllocator::revoke_remaining` for the full contract).
pub fn ring_reclaim(head: &AtomicU64, tail: &AtomicU64) -> u64 {
    // Acquire: the bytes below `head` were fully reserved before we read it.
    let h = head.load(Ordering::Acquire);
    // Relaxed: only this (consumer) side writes `tail`.
    let t = tail.load(Ordering::Relaxed);
    if h == t {
        return 0;
    }
    // Release: hands the recycled bytes to any future reservation.
    tail.store(h, Ordering::Release);
    h - t
}

/// Bytes currently reserved (including wrap padding), observable from any
/// process. Seqlock-style consistent snapshot: loading `head` and `tail`
/// independently races with a concurrent reserve + release pair — `tail`
/// can overtake a stale `head` snapshot (underflow) or a fresh `head` can
/// meet a stale `tail` (over-report past the region size). Re-reading the
/// monotonic `tail` around the `head` load proves the pair consistent;
/// each retry needs the consumer to have advanced `tail`, so the loop is
/// bounded by the releases in flight.
pub fn ring_in_use(head: &AtomicU64, tail: &AtomicU64) -> u64 {
    // Acquire on all three: pairs with the owners' Release stores so the
    // snapshot is ordered after the work it covers.
    let mut t = tail.load(Ordering::Acquire);
    loop {
        let h = head.load(Ordering::Acquire);
        let t_after = tail.load(Ordering::Acquire);
        if t_after == t {
            return h.saturating_sub(t);
        }
        t = t_after;
    }
}

// Sequential semantics; the concurrent interleavings are explored by the
// model tests in tests/model.rs under `--features check`.
#[cfg(all(test, not(feature = "check")))]
mod tests {
    use super::*;

    fn ring() -> (AtomicU64, AtomicU64) {
        (AtomicU64::new(0), AtomicU64::new(0))
    }

    #[test]
    fn reserve_release_drains_to_empty() {
        let (head, tail) = ring();
        for _ in 0..50 {
            let p1 = ring_reserve(&head, &tail, 256, 64).unwrap();
            let p2 = ring_reserve(&head, &tail, 256, 64).unwrap();
            ring_release(&head, &tail, 256, p1, 64);
            ring_release(&head, &tail, 256, p2, 64);
            assert_eq!(ring_in_use(&head, &tail), 0);
        }
    }

    #[test]
    fn too_large_vs_full() {
        let (head, tail) = ring();
        assert_eq!(ring_reserve(&head, &tail, 128, 129).unwrap_err(), AllocError::TooLarge);
        let _ = ring_reserve(&head, &tail, 128, 128).unwrap();
        assert_eq!(ring_reserve(&head, &tail, 128, 8).unwrap_err(), AllocError::Full);
    }

    #[test]
    fn wrap_padding_matches_partition_allocator() {
        // Mirrors `wrap_padding_reclaimed` in alloc_partition.rs.
        let (head, tail) = ring();
        let p1 = ring_reserve(&head, &tail, 256, 100).unwrap(); // 104 @ 0
        let p2 = ring_reserve(&head, &tail, 256, 100).unwrap(); // 104 @ 104
        ring_release(&head, &tail, 256, p1, 100); // tail = 104
        let p3 = ring_reserve(&head, &tail, 256, 100).unwrap(); // pad 48, wraps to 0
        assert_eq!(p3, 0);
        ring_release(&head, &tail, 256, p2, 100);
        ring_release(&head, &tail, 256, p3, 100);
        assert_eq!(ring_in_use(&head, &tail), 0);
        let p4 = ring_reserve(&head, &tail, 256, 152).unwrap();
        assert_eq!(p4, 104);
        let p5 = ring_reserve(&head, &tail, 256, 96).unwrap();
        assert_eq!(p5, 0);
    }

    #[test]
    fn reclaim_swallows_abandoned_reservations() {
        let (head, tail) = ring();
        let p1 = ring_reserve(&head, &tail, 512, 64).unwrap();
        let _abandoned = ring_reserve(&head, &tail, 512, 100).unwrap(); // 104
        ring_release(&head, &tail, 512, p1, 64);
        assert_eq!(ring_in_use(&head, &tail), 104);
        assert_eq!(ring_reclaim(&head, &tail), 104);
        assert_eq!(ring_in_use(&head, &tail), 0);
        assert_eq!(ring_reclaim(&head, &tail), 0);
    }

    #[test]
    fn rounding_is_shared_with_the_allocators() {
        assert_eq!(ring_rounded(0), 8);
        assert_eq!(ring_rounded(1), 8);
        assert_eq!(ring_rounded(8), 8);
        assert_eq!(ring_rounded(9), 16);
        assert_eq!(ring_rounded(100), 104);
    }
}
