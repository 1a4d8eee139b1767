//! First-fit free-list allocator under a mutex — the paper's "default
//! mutex-based allocation algorithm of the Boost library".
//!
//! Supports arbitrary allocate/release interleavings from any thread, with
//! coalescing of adjacent free ranges so long-running sessions don't
//! fragment into uselessness. All sizes are rounded up to the ring's
//! [`RING_ALIGN`] (shared with the partitioned allocator) so segments can
//! hold any scalar type without misalignment.
//!
//! All cross-thread state lives under the one [`crate::sync::Mutex`]; there
//! is no ordering subtlety here — the lock's release/acquire edges order
//! everything. `release` carries a double-free canary: a returned range
//! overlapping the free list means the same segment was released twice (or
//! a forged segment was released), and we abort loudly instead of silently
//! corrupting the free list and handing the bytes out to two owners.

use crate::buffer::{Segment, SharedBuffer};
use crate::ring::{ring_rounded, RING_ALIGN};
use crate::sync::{Arc, Mutex};
use crate::AllocError;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FreeRange {
    offset: usize,
    len: usize,
}

/// A live range tagged with the client that reserved it, so an expired
/// client's reservations can be swept back (`revoke_client`). Only ranges
/// allocated through [`MutexAllocator::allocate_owned`] are tagged.
#[derive(Debug, Clone, Copy)]
struct OwnedRange {
    offset: usize,
    len: usize,
    client: u32,
}

#[derive(Debug)]
struct FreeList {
    /// Sorted by offset; no two ranges adjacent (always coalesced).
    ranges: Vec<FreeRange>,
    in_use: usize,
    /// Live owner tags, unsorted (live offsets are unique).
    owners: Vec<OwnedRange>,
}

/// Mutex-guarded first-fit allocator over a [`SharedBuffer`].
pub struct MutexAllocator {
    buffer: Arc<SharedBuffer>,
    state: Mutex<FreeList>,
}

impl MutexAllocator {
    /// Wraps a buffer, making its whole capacity available.
    pub fn new(buffer: Arc<SharedBuffer>) -> Self {
        let capacity = buffer.capacity();
        MutexAllocator {
            buffer,
            state: Mutex::new(FreeList {
                ranges: if capacity > 0 {
                    vec![FreeRange {
                        offset: 0,
                        len: capacity,
                    }]
                } else {
                    Vec::new()
                },
                in_use: 0,
                owners: Vec::new(),
            }),
        }
    }

    /// Creates the buffer and the allocator together.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::new(SharedBuffer::new(capacity))
    }

    /// Total buffer capacity.
    pub fn capacity(&self) -> usize {
        self.buffer.capacity()
    }

    /// Bytes currently reserved (after alignment rounding).
    pub fn in_use(&self) -> usize {
        self.state.lock().in_use
    }

    /// The underlying shared buffer.
    pub fn buffer(&self) -> &Arc<SharedBuffer> {
        &self.buffer
    }

    fn rounded(len: usize) -> usize {
        ring_rounded(len as u64) as usize
    }

    /// Reserves `len` bytes; the returned segment has exactly `len`
    /// visible bytes (internal rounding is hidden).
    pub fn allocate(&self, len: usize) -> Result<Segment, AllocError> {
        self.allocate_inner(len, None)
    }

    /// Like [`allocate`](Self::allocate), but tags the range with the
    /// reserving client so [`revoke_client`](Self::revoke_client) can
    /// sweep it back if the client's lease expires. The tag is dropped on
    /// release.
    // ANALYZE: cold — the paper's mutex-allocator comparison baseline locks by design; the partition allocator is the jitter-free path
    pub fn allocate_owned(&self, client: u32, len: usize) -> Result<Segment, AllocError> {
        self.allocate_inner(len, Some(client))
    }

    fn allocate_inner(&self, len: usize, owner: Option<u32>) -> Result<Segment, AllocError> {
        let need = Self::rounded(len);
        if need > self.buffer.capacity() {
            return Err(AllocError::TooLarge);
        }
        let mut state = self.state.lock();
        let idx = state
            .ranges
            .iter()
            .position(|r| r.len >= need)
            .ok_or(AllocError::Full)?;
        let range = state.ranges[idx];
        let seg_offset = range.offset;
        if range.len == need {
            state.ranges.remove(idx);
        } else {
            state.ranges[idx] = FreeRange {
                offset: range.offset + need,
                len: range.len - need,
            };
        }
        state.in_use += need;
        if let Some(client) = owner {
            state.owners.push(OwnedRange {
                offset: seg_offset,
                len,
                client,
            });
        }
        drop(state);
        Ok(self.buffer.segment(seg_offset, len))
    }

    /// Returns a segment's bytes to the free list, coalescing neighbours.
    ///
    /// Panics if the segment belongs to a different buffer, and — the
    /// double-free canary — if any byte of the segment is already free,
    /// which can only mean the same range was released twice or a handle
    /// was forged by splitting after release.
    pub fn release(&self, segment: Segment) {
        assert!(
            Arc::ptr_eq(segment.buffer(), &self.buffer),
            "segment released to the wrong allocator"
        );
        let offset = segment.offset();
        let len = Self::rounded(segment.len());
        drop(segment);
        let mut state = self.state.lock();
        // Insert keeping the list sorted, then coalesce with neighbours.
        let pos = state
            .ranges
            .partition_point(|r| r.offset < offset);
        // Double-release canary: the freed range must not intersect the
        // range before or after its sorted insertion point (the list is
        // sorted and coalesced, so these are the only possible overlaps).
        // An intersection means those bytes are already on the free list —
        // a double release — and continuing would hand the same memory to
        // two future allocations. Zero-length ranges (len 0 never occurs:
        // `rounded` is >= RING_ALIGN) need no special casing.
        if pos > 0 {
            let prev = state.ranges[pos - 1];
            assert!(
                prev.offset + prev.len <= offset,
                "double release: [{offset}, {}) overlaps free range [{}, {})",
                offset + len,
                prev.offset,
                prev.offset + prev.len
            );
        }
        if pos < state.ranges.len() {
            let next = state.ranges[pos];
            assert!(
                offset + len <= next.offset,
                "double release: [{offset}, {}) overlaps free range [{}, {})",
                offset + len,
                next.offset,
                next.offset + next.len
            );
        }
        // The range is dead: drop its owner tag (live offsets are unique,
        // so matching on offset is unambiguous). No-op for untagged ranges.
        state.owners.retain(|o| o.offset != offset);
        // invariant: in_use counts exactly the rounded bytes of live
        // segments; the canary above guarantees this range is live.
        debug_assert!(state.in_use >= len, "in_use underflow on release");
        state.in_use -= len;
        state.ranges.insert(pos, FreeRange { offset, len });
        // Coalesce with the next range.
        if pos + 1 < state.ranges.len()
            && state.ranges[pos].offset + state.ranges[pos].len == state.ranges[pos + 1].offset
        {
            state.ranges[pos].len += state.ranges[pos + 1].len;
            state.ranges.remove(pos + 1);
        }
        // Coalesce with the previous range.
        if pos > 0
            && state.ranges[pos - 1].offset + state.ranges[pos - 1].len == state.ranges[pos].offset
        {
            state.ranges[pos - 1].len += state.ranges[pos].len;
            state.ranges.remove(pos);
        }
    }

    /// Re-creates the handle of a segment that is still accounted as in
    /// use — crash recovery: the previous owner's handle died with its
    /// thread, but the bytes were never released, so the journal's
    /// `(offset, len)` record is enough to re-adopt them. Returns `None`
    /// if the range is out of bounds or any of its bytes are currently on
    /// the free list (a stale or corrupt journal record — adopting it
    /// would alias a future allocation).
    pub fn adopt(&self, offset: usize, len: usize) -> Option<Segment> {
        let need = Self::rounded(len);
        if !offset.is_multiple_of(RING_ALIGN as usize) || offset.checked_add(need)? > self.buffer.capacity() {
            return None;
        }
        let state = self.state.lock();
        // Same overlap scan as the release canary, but non-panicking: an
        // adoptable range must be entirely absent from the free list.
        let pos = state.ranges.partition_point(|r| r.offset < offset);
        if pos > 0 {
            let prev = state.ranges[pos - 1];
            if prev.offset + prev.len > offset {
                return None;
            }
        }
        if pos < state.ranges.len() && offset + need > state.ranges[pos].offset {
            return None;
        }
        drop(state);
        Some(self.buffer.segment(offset, len))
    }

    /// [`adopt`](Self::adopt) that also restores the owner tag — used by
    /// journal replay after an EPE respawn so a later lease expiry of the
    /// same client can still sweep the re-adopted range.
    pub fn adopt_owned(&self, client: u32, offset: usize, len: usize) -> Option<Segment> {
        let seg = self.adopt(offset, len)?;
        let mut state = self.state.lock();
        if !state.owners.iter().any(|o| o.offset == offset) {
            state.owners.push(OwnedRange {
                offset,
                len,
                client,
            });
        }
        Some(seg)
    }

    /// Sweeps back every range still tagged as owned by `client`,
    /// returning the rounded bytes reclaimed. Ranges whose handles were
    /// already released are untagged and unaffected; ranges whose handles
    /// are still live elsewhere (e.g. resident in the metadata store) must
    /// be released through those handles *before* this sweep, or the later
    /// release will trip the double-free canary.
    ///
    /// Known limit (deliberate, documented in DESIGN.md): unlike the
    /// partitioned allocator — where a revoked client's region simply goes
    /// idle — bytes reclaimed here return to the *global* free list, so a
    /// zombie client stalled mid-`memcpy` past its lease could scribble on
    /// a range that has been handed to another client. The CRC stamped at
    /// commit is the backstop: the scribbled-over segment fails
    /// verification at persist time instead of reaching storage.
    pub fn revoke_client(&self, client: u32) -> usize {
        let mut state = self.state.lock();
        let mut dead = Vec::new();
        state.owners.retain(|o| {
            if o.client == client {
                dead.push((o.offset, o.len));
                false
            } else {
                true
            }
        });
        drop(state);
        let mut reclaimed = 0;
        for (offset, len) in dead {
            reclaimed += Self::rounded(len);
            // Re-forge the dead client's handle; the canary in `release`
            // still guards against the range somehow being free already.
            self.release(self.buffer.segment(offset, len));
        }
        reclaimed
    }

    /// Largest single allocation that could currently succeed.
    pub fn largest_free(&self) -> usize {
        self.state
            .lock()
            .ranges
            .iter()
            .map(|r| r.len)
            .max()
            .unwrap_or(0)
    }
}

impl std::fmt::Debug for MutexAllocator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MutexAllocator(capacity={}, in_use={})",
            self.capacity(),
            self.in_use()
        )
    }
}

// OS-thread + proptest suites don't run under the model checker; the
// `check` build is exercised by tests/model.rs instead.
#[cfg(all(test, not(feature = "check")))]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn allocate_and_release() {
        let a = MutexAllocator::with_capacity(1024);
        let s1 = a.allocate(100).unwrap();
        let s2 = a.allocate(100).unwrap();
        assert_ne!(s1.offset(), s2.offset());
        assert_eq!(a.in_use(), 208); // two 104-rounded blocks
        a.release(s1);
        a.release(s2);
        assert_eq!(a.in_use(), 0);
        assert_eq!(a.largest_free(), 1024);
    }

    #[test]
    fn full_and_too_large() {
        let a = MutexAllocator::with_capacity(64);
        assert_eq!(a.allocate(65).unwrap_err(), AllocError::TooLarge);
        let _s = a.allocate(64).unwrap();
        assert_eq!(a.allocate(1).unwrap_err(), AllocError::Full);
    }

    #[test]
    fn coalescing_recovers_contiguity() {
        let a = MutexAllocator::with_capacity(300);
        let s1 = a.allocate(96).unwrap();
        let s2 = a.allocate(96).unwrap();
        let s3 = a.allocate(96).unwrap();
        // Release middle, then edges: without coalescing, a 288-byte
        // allocation would be impossible afterwards.
        a.release(s2);
        a.release(s1);
        a.release(s3);
        assert!(a.allocate(288).is_ok());
    }

    #[test]
    fn zero_len_allocation_works() {
        let a = MutexAllocator::with_capacity(64);
        let s = a.allocate(0).unwrap();
        assert_eq!(s.len(), 0);
        a.release(s);
        assert_eq!(a.in_use(), 0);
    }

    #[test]
    fn reuse_after_release() {
        let a = MutexAllocator::with_capacity(128);
        let s1 = a.allocate(128).unwrap();
        let off = s1.offset();
        a.release(s1);
        let s2 = a.allocate(128).unwrap();
        assert_eq!(s2.offset(), off);
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_is_caught() {
        let a = MutexAllocator::with_capacity(256);
        let s1 = a.allocate(64).unwrap();
        let (off, len) = (s1.offset(), s1.len());
        a.release(s1);
        // Re-forge an identical segment (the API makes true double release
        // impossible by move semantics, so simulate a stale duplicated
        // handle the way a buggy FFI layer could produce one).
        let s_dup = a.buffer().segment(off, len);
        a.release(s_dup);
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn overlapping_release_is_caught() {
        let a = MutexAllocator::with_capacity(256);
        let s1 = a.allocate(64).unwrap();
        let s2 = a.allocate(64).unwrap();
        let off2 = s2.offset();
        a.release(s2);
        // A forged range straddling live s1 and freed s2 bytes.
        let forged = a.buffer().segment(off2 - 8, 16);
        drop(s1);
        a.release(forged);
    }

    #[test]
    fn adopt_recovers_live_segment() {
        let a = MutexAllocator::with_capacity(256);
        let mut s1 = a.allocate(64).unwrap();
        s1.as_mut_slice().fill(0xAB);
        let (off, len) = (s1.offset(), s1.len());
        // The crash: the handle is lost without a release.
        drop(s1);
        assert_eq!(a.in_use(), 64);
        let adopted = a.adopt(off, len).expect("range is live");
        assert!(adopted.as_slice().iter().all(|&b| b == 0xAB));
        a.release(adopted);
        assert_eq!(a.in_use(), 0);
    }

    #[test]
    fn adopt_rejects_free_or_bad_ranges() {
        let a = MutexAllocator::with_capacity(256);
        let s1 = a.allocate(64).unwrap();
        let (off, len) = (s1.offset(), s1.len());
        a.release(s1);
        // Released range: adopting it would alias future allocations.
        assert!(a.adopt(off, len).is_none());
        // Out of bounds / misaligned.
        assert!(a.adopt(512, 8).is_none());
        assert!(a.adopt(3, 8).is_none());
        // Range straddling live and free bytes.
        let s2 = a.allocate(64).unwrap();
        let off2 = s2.offset();
        assert!(a.adopt(off2, 128).is_none());
        a.release(s2);
    }

    #[test]
    fn revoke_client_sweeps_only_tagged_live_ranges() {
        let a = MutexAllocator::with_capacity(1024);
        let mine = a.allocate_owned(7, 64).unwrap();
        let released = a.allocate_owned(7, 64).unwrap();
        let other = a.allocate_owned(3, 64).unwrap();
        let untagged = a.allocate(64).unwrap();
        // A normal release drops the tag: revoke must not touch it again.
        a.release(released);
        drop(mine); // handle dies, reservation stays — the leak to sweep
        assert_eq!(a.revoke_client(7), 64);
        assert_eq!(a.in_use(), 128); // other + untagged still live
        // Idempotent.
        assert_eq!(a.revoke_client(7), 0);
        a.release(other);
        a.release(untagged);
        assert_eq!(a.in_use(), 0);
        assert_eq!(a.largest_free(), 1024);
    }

    #[test]
    fn adopt_owned_restores_the_tag() {
        let a = MutexAllocator::with_capacity(256);
        // An untagged live range (as if the tag state had been lost).
        let s = a.allocate(64).unwrap();
        let (off, len) = (s.offset(), s.len());
        drop(s);
        assert_eq!(a.revoke_client(2), 0); // nothing tagged yet
        // Replay re-adopts the range under its owner, then the owner's
        // lease expires before the segment is ever released.
        let adopted = a.adopt_owned(2, off, len).expect("range is live");
        drop(adopted);
        assert_eq!(a.revoke_client(2), 64);
        assert_eq!(a.in_use(), 0);
        // Re-adopting twice must not duplicate the tag.
        let s = a.allocate_owned(5, 64).unwrap();
        let (off, len) = (s.offset(), s.len());
        drop(s);
        let adopted = a.adopt_owned(5, off, len).expect("range is live");
        drop(adopted);
        assert_eq!(a.revoke_client(5), 64);
        assert_eq!(a.in_use(), 0);
    }

    #[test]
    fn concurrent_allocate_release_stress() {
        let a = Arc::new(MutexAllocator::with_capacity(1 << 16));
        std::thread::scope(|scope| {
            for t in 0..8 {
                let a = Arc::clone(&a);
                scope.spawn(move || {
                    let mut held = Vec::new();
                    for i in 0..500 {
                        match a.allocate(64 + (t * 13 + i) % 256) {
                            Ok(mut seg) => {
                                seg.as_mut_slice().fill(t as u8);
                                held.push(seg);
                            }
                            Err(AllocError::Full) => {
                                for seg in held.drain(..) {
                                    assert!(seg.as_slice().iter().all(|&b| b == t as u8));
                                    a.release(seg);
                                }
                            }
                            Err(e) => panic!("unexpected {e}"),
                        }
                        if held.len() > 16 {
                            let seg = held.swap_remove(i % held.len());
                            assert!(seg.as_slice().iter().all(|&b| b == t as u8));
                            a.release(seg);
                        }
                    }
                    for seg in held {
                        a.release(seg);
                    }
                });
            }
        });
        assert_eq!(a.in_use(), 0);
        assert_eq!(a.largest_free(), 1 << 16);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Live segments never overlap, and releasing everything restores
        /// the full capacity — the core allocator invariants.
        #[test]
        fn no_overlap_and_full_recovery(ops in proptest::collection::vec((any::<bool>(), 1usize..512), 1..200)) {
            let a = MutexAllocator::with_capacity(8192);
            let mut live: Vec<Segment> = Vec::new();
            for (is_alloc, size) in ops {
                if is_alloc || live.is_empty() {
                    if let Ok(seg) = a.allocate(size) {
                        // Check against every live segment for overlap.
                        for other in &live {
                            let a0 = seg.offset();
                            let a1 = a0 + MutexAllocator::rounded(seg.len());
                            let b0 = other.offset();
                            let b1 = b0 + MutexAllocator::rounded(other.len());
                            prop_assert!(a1 <= b0 || b1 <= a0, "overlap [{},{}) vs [{},{})", a0, a1, b0, b1);
                        }
                        live.push(seg);
                    }
                } else {
                    let seg = live.swap_remove(size % live.len());
                    a.release(seg);
                }
            }
            for seg in live.drain(..) {
                a.release(seg);
            }
            prop_assert_eq!(a.in_use(), 0);
            prop_assert_eq!(a.largest_free(), 8192);
        }
    }
}
