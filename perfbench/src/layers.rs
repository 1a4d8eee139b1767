//! Per-layer replays for the traced run: each times one layer's public
//! functions on the workload's own geometry and data, from the
//! benchmark's code, with nothing else running.

use crate::fields::Geometry;
use crate::stats::median_of;
use damaris_compress::Pipeline;
use damaris_core::proc::{ProcWal, WalRecord};
use damaris_core::EventJournal;
use damaris_format::{DataType, DatasetOptions, Layout, SdfReader};
use damaris_fs::LocalDirBackend;
use damaris_shm::sync::AtomicU64;
use damaris_shm::{ring, MappedNode, MpscQueue, PartitionAllocator, SharedBuffer};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// One per-layer figure: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

/// What the replays need to know about the workload.
pub struct Input<'a> {
    pub geometry: Geometry,
    pub filter: Option<&'a str>,
    pub buffer_bytes: usize,
    /// One iteration's payloads, one per variable.
    pub payloads: &'a [Vec<u8>],
    pub names: &'a [String],
    /// A file the workload persisted, for the read-side replay.
    pub sample_file: Option<&'a Path>,
    /// Iterations the workload published (manifest replay size).
    pub iterations: u32,
    /// Scratch directory, removed by the caller.
    pub work: &'a Path,
}

/// Median per-operation time of `op`, in nanoseconds, over `rounds`
/// timed batches of `batch` operations after two warm-up batches.
fn per_op_ns(rounds: usize, batch: usize, mut op: impl FnMut()) -> f64 {
    let mut per = Vec::with_capacity(rounds);
    for r in 0..rounds + 2 {
        let t = Instant::now();
        for _ in 0..batch {
            op();
        }
        if r >= 2 {
            per.push(t.elapsed().as_nanos() as f64 / batch as f64);
        }
    }
    median_of(&per)
}

/// Operations per batch so that one batch moves about 256 KiB.
fn batch_for(len: usize) -> usize {
    (262_144 / len.max(1)).clamp(1, 1024)
}

/// The persist replay: one iteration written as the threaded dedicated
/// core writes it (`begin_sdf`, one dataset per variable, `commit_sdf`),
/// returning the median encode and commit times in nanoseconds.
fn persist_replay(input: &Input<'_>) -> (f64, f64) {
    let backend = LocalDirBackend::new(input.work.join("persist")).expect("replay directory");
    let g = input.geometry;
    let layout = Layout::new(DataType::F64, &[g.rows as u64, g.cols as u64]);
    let (mut encode, mut commit) = (Vec::new(), Vec::new());
    for rep in 0..24u32 {
        let mut writer = backend
            .begin_sdf(&format!("iter-{rep:06}.sdf"))
            .expect("begin_sdf");
        let t = Instant::now();
        for (name, data) in input.names.iter().zip(input.payloads) {
            let mut opts = DatasetOptions::plain()
                .with_attr("iteration", i64::from(rep))
                .with_attr("source", 0i64);
            if let Some(f) = input.filter {
                opts = opts.with_filter(f);
            }
            writer
                .write_dataset_bytes(&format!("/iter-{rep}/rank-0/{name}"), &layout, data, &opts)
                .expect("write dataset");
        }
        let t_commit = Instant::now();
        backend.commit_sdf(writer).expect("commit_sdf");
        if rep >= 4 {
            encode.push((t_commit - t).as_nanos() as f64);
            commit.push(t_commit.elapsed().as_nanos() as f64);
        }
    }
    (median_of(&encode), median_of(&commit))
}

fn read_block_ns(path: &Path) -> Option<f64> {
    let reader = SdfReader::open(path).ok()?;
    let n = reader.len();
    let mut per = Vec::new();
    for rep in 0..8 {
        for ordinal in 0..n {
            let t = Instant::now();
            black_box(reader.read_bytes_at(ordinal).ok()?);
            if rep > 0 {
                per.push(t.elapsed().as_nanos() as f64);
            }
        }
    }
    Some(median_of(&per))
}

fn ring_heap_ns(payload: &[u8], cap: usize) -> f64 {
    let buffer = SharedBuffer::new(cap);
    let (head, tail) = (AtomicU64::new(0), AtomicU64::new(0));
    per_op_ns(64, batch_for(payload.len()), || {
        let pos = ring::ring_reserve(&head, &tail, cap as u64, payload.len() as u64)
            .expect("ring reserve") as usize;
        let mut seg = buffer.adopt_segment(pos, payload.len());
        seg.copy_from_slice(payload);
        drop(seg);
        ring::ring_release(&head, &tail, cap as u64, pos as u64, payload.len() as u64);
    })
}

fn ring_mapped_ns(payload: &[u8], cap: usize, path: &Path) -> f64 {
    let node = MappedNode::create(path, 1, cap).expect("create mapping");
    let buffer = node.buffer();
    let ns = per_op_ns(64, batch_for(payload.len()), || {
        let mut seg = node
            .reserve(&buffer, 0, payload.len())
            .expect("mapped reserve");
        seg.copy_from_slice(payload);
        let (off, len) = (seg.offset(), seg.len());
        drop(seg);
        node.release(0, off, len);
    });
    drop(buffer);
    drop(node);
    let _ = std::fs::remove_file(path);
    ns
}

fn journal_append_ns(len: usize) -> f64 {
    let journal = EventJournal::new();
    let mut seqs = Vec::with_capacity(256);
    let mut per = Vec::new();
    for round in 0..66 {
        let t = Instant::now();
        for i in 0..256u32 {
            if let Ok(seq) = journal.append_write(0, i % 8, round, 0, 0, len, 0xC0FFEE) {
                seqs.push(seq);
            }
        }
        let dt = t.elapsed().as_nanos() as f64 / 256.0;
        if round >= 2 {
            per.push(dt);
        }
        // Retire the batch untimed, as the dedicated core would.
        for seq in seqs.drain(..) {
            journal.claim(seq);
            journal.mark_applied(seq);
        }
        journal.compact();
    }
    median_of(&per)
}

fn wal_record_ns(path: &Path, len: u64) -> f64 {
    let (mut wal, _) = ProcWal::open(path).expect("open WAL");
    let mut per = Vec::new();
    for i in 0..64u32 {
        let t = Instant::now();
        let seq = wal
            .append_pending(WalRecord {
                seq: 0,
                rank: 0,
                iteration: i,
                variable: 0,
                offset: 0,
                len,
                data_crc: 0xC0FFEE,
            })
            .expect("WAL append");
        wal.mark_applied(seq).expect("WAL applied");
        wal.mark_released(seq).expect("WAL released");
        if i >= 4 {
            per.push(t.elapsed().as_nanos() as f64);
        }
    }
    drop(wal);
    let _ = std::fs::remove_file(path);
    median_of(&per)
}

fn manifest_publish_ns(dir: &Path, entries: u32) -> f64 {
    let per: Vec<f64> = (0..entries.max(1))
        .map(|it| {
            let name = format!("node-0/iter-{it:06}.sdf");
            let t = Instant::now();
            damaris_fs::manifest::publish_iteration(dir, 0, it, &name, 1 << 19).expect("publish");
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median_of(&per)
}

/// `(encode MB/s, decode MB/s, logical ÷ stored)` of lzss over one
/// iteration's payloads.
fn compress_replay(payloads: &[Vec<u8>]) -> (f64, f64, f64) {
    let lzss = Pipeline::from_spec("lzss").expect("lzss pipeline");
    let logical: usize = payloads.iter().map(Vec::len).sum();
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let mut stored = 0;
    for rep in 0..5 {
        let t = Instant::now();
        let encoded: Vec<Vec<u8>> = payloads
            .iter()
            .map(|p| lzss.encode(p).expect("encode").0)
            .collect();
        let te = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for (e, p) in encoded.iter().zip(payloads) {
            assert_eq!(&lzss.decode(e).expect("decode"), p, "lzss round trip");
        }
        let td = t.elapsed().as_secs_f64();
        stored = encoded.iter().map(Vec::len).sum();
        if rep > 0 {
            enc.push(logical as f64 / 1e6 / te);
            dec.push(logical as f64 / 1e6 / td);
        }
    }
    (
        median_of(&enc),
        median_of(&dec),
        logical as f64 / stored as f64,
    )
}

/// The replays' figures, plus the persist replay's median commit time
/// (ns), which stands in for the in-situ one where the benchmark cannot
/// observe the dedicated core's commits.
pub fn replays(input: &Input<'_>) -> (Vec<Metric>, f64) {
    let payload = &input.payloads[0];
    let len = payload.len();
    let mut m: Vec<Metric> = Vec::new();
    let crc = per_op_ns(64, batch_for(len), || {
        black_box(damaris_format::crc32(black_box(payload)));
    });
    m.push(("format.crc32_us", "us", crc / 1e3));
    let (encode, commit) = persist_replay(input);
    m.push(("format.encode_iter_us", "us", encode / 1e3));
    let read = input.sample_file.and_then(read_block_ns).unwrap_or(0.0);
    m.push(("format.read_block_us", "us", read / 1e3));

    let alloc = PartitionAllocator::with_capacity(input.buffer_bytes, 1);
    let ns = per_op_ns(64, 256, || {
        let seg = alloc.allocate(0, len).expect("allocate");
        alloc.release(0, seg);
    });
    m.push(("shm.alloc_release_ns", "ns", ns));
    let queue: MpscQueue<u64> = MpscQueue::new(1024);
    let ns = per_op_ns(64, 1024, || {
        queue.push(black_box(7)).expect("push");
        black_box(queue.pop());
    });
    m.push(("shm.queue_push_pop_ns", "ns", ns));
    m.push(("core.journal_append_ns", "ns", journal_append_ns(len)));
    let new_ms: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(SharedBuffer::new(input.buffer_bytes));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    m.push(("shm.buffer_new_ms", "ms", median_of(&new_ms)));
    let cap = (4 * input.geometry.iter_bytes()).max(1 << 20);
    m.push(("shm.ring_heap_us", "us", ring_heap_ns(payload, cap) / 1e3));
    let mapped = input.work.join("damaris-node-replay.shm");
    m.push((
        "shm.ring_mapped_us",
        "us",
        ring_mapped_ns(payload, cap, &mapped) / 1e3,
    ));
    let manifest_dir = input.work.join("manifest");
    std::fs::create_dir_all(&manifest_dir).expect("manifest replay directory");
    let publish = manifest_publish_ns(&manifest_dir, input.iterations.min(1000));
    m.push(("fs.manifest_publish_us", "us", publish / 1e3));
    let (enc, dec, ratio) = compress_replay(input.payloads);
    m.push(("compress.encode_MBps", "MB/s", enc));
    m.push(("compress.decode_MBps", "MB/s", dec));
    m.push(("compress.ratio", "ratio", ratio));
    let wal = wal_record_ns(&input.work.join("replay.wal"), len as u64);
    m.push(("proc.wal_record_us", "us", wal / 1e3));
    (m, commit)
}
