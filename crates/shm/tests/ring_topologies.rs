//! Both topologies run one ring: the threaded node's
//! [`PartitionAllocator`] (counters on the heap) and the process node's
//! [`MappedNode`] (counters inside a file-backed mapping) must answer the
//! same seeded sequence of reserves, FIFO releases and reclaims with the
//! same in-region offsets, the same `Full`/`TooLarge` outcomes and the
//! same bytes in use.
//!
//! Unix only (the mapping), and compiled out under `--features check`,
//! where `tests/model.rs` explores the shared ring code instead.

#![cfg(all(unix, not(feature = "check")))]

use damaris_shm::{MappedNode, PartitionAllocator, Segment};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

#[derive(Debug, Clone, Copy)]
enum Op {
    Reserve(usize),
    /// Releases the oldest live reservation, if any.
    Release,
    /// The sweeper's terminal step: reclaims everything still reserved.
    Reclaim,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (1usize..1100).prop_map(Op::Reserve),
        3 => Just(Op::Release),
        1 => Just(Op::Reclaim),
    ]
}

fn mapping_path() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("damaris-ring-topologies");
    std::fs::create_dir_all(&dir).unwrap();
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("ring-{}-{n}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn heap_and_mapped_rings_agree(
        cap_units in 1usize..128,
        ops in proptest::collection::vec(op(), 1..200),
    ) {
        let cap = cap_units * 8;
        let heap = PartitionAllocator::with_capacity(cap, 1);
        let path = mapping_path();
        let mapped = MappedNode::create(&path, 1, cap).unwrap();
        // The mapping outlives its name; unlinking now leaves nothing
        // behind when an assertion ends the case early.
        std::fs::remove_file(&path).unwrap();
        let buffer = mapped.buffer();
        let mut live: VecDeque<(Segment, Segment)> = VecDeque::new();
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                Op::Reserve(len) => match (heap.allocate(0, len), mapped.reserve(&buffer, 0, len)) {
                    (Ok(h), Ok(m)) => {
                        prop_assert_eq!(h.offset(), m.offset(), "op {} {:?}", i, op);
                        live.push_back((h, m));
                    }
                    (Err(h), Err(m)) => prop_assert_eq!(h, m, "op {} {:?}", i, op),
                    (h, m) => prop_assert!(
                        false,
                        "op {} {:?}: heap {:?} vs mapped {:?}",
                        i,
                        op,
                        h.map(|s| s.offset()),
                        m.map(|s| s.offset())
                    ),
                },
                Op::Release => {
                    if let Some((h, m)) = live.pop_front() {
                        let (offset, len) = (m.offset(), m.len());
                        drop(m);
                        heap.release(0, h);
                        mapped.release(0, offset, len);
                    }
                }
                Op::Reclaim => {
                    live.clear();
                    prop_assert_eq!(
                        heap.revoke_remaining(0) as u64,
                        mapped.revoke_remaining(0),
                        "op {}",
                        i
                    );
                }
            }
            prop_assert_eq!(heap.in_use(0) as u64, mapped.in_use(0), "op {} {:?}", i, op);
        }
    }
}
