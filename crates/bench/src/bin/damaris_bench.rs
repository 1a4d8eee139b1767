//! Hot-path microbenchmark companion to `cargo run -p xtask -- analyze`:
//! the analyzer proves the write path *cannot* allocate, lock, or panic;
//! this binary measures what that discipline buys, and pins the numbers
//! where a reviewer can see them.
//!
//! Writes `BENCH_10.json` at the repository root with schema
//! `damaris-bench/v4`:
//!
//! ```json
//! {
//!   "schema": "damaris-bench/v4",
//!   "write_latency_ns": { "p50": ..., "p99": ..., "samples": ... },
//!   "allocator": { "ops_per_sec": ..., "bytes_per_sec": ... },
//!   "queue": { "ops_per_sec": ... },
//!   "backing": {
//!     "heap": { "ops_per_sec": ..., "bytes_per_sec": ... },
//!     "file": { "ops_per_sec": ..., "bytes_per_sec": ... }
//!   },
//!   "query": {
//!     "qps": ..., "p99_latency_ns": ..., "cache_hit_rate": ...,
//!     "pruned_fraction": ..., "readers": ..., "queries": ...
//!   },
//!   "degraded": {
//!     "normal_iters_per_sec": ..., "degraded_iters_per_sec": ...,
//!     "throughput_ratio": ..., "iterations": ..., "quota_used_pct": 95
//!   },
//!   "config": { "clients": ..., "payload_bytes": ..., "iterations": ... }
//! }
//! ```
//!
//! * `write_latency_ns` — per-call `DamarisClient::write` latency over a
//!   partition-allocator, tracing-on, never-backpressured workload (the
//!   same sizing rationale as `obs_overhead`): p50 is the typical
//!   jitter-free call, p99 the tail the paper's Fig. 2 cares about.
//! * `allocator` — `PartitionAllocator` allocate+release round-trips per
//!   second from one client (ops and bytes).
//! * `queue` — `MpscQueue` push+pop pairs per second, single producer
//!   (the per-rank MPSC configuration of the event queue).
//! * `backing` — the same ring reserve→memcpy→release round-trip over
//!   the two buffer placements: a heap `SharedBuffer` (the threaded
//!   node) and a file-backed mapping under `/dev/shm` (the
//!   cross-process node). The protocol and the code are identical —
//!   [`damaris_shm::ring`] over facade words — only the placement
//!   differs, so the delta is the true cost of going multi-process.
//! * `query` — the mixed-load read tier (ISSUE 9): 4 clients append
//!   through the EPE while reader threads run point queries against the
//!   same directory through `damaris_query::QueryEngine`. Reported:
//!   sustained queries/s and p99 query latency *during the write phase*,
//!   the block-cache hit rate, and the fraction of absent-key probes the
//!   bloom + sparse index answered without a payload read.
//! * `degraded` — the same append loop under storage pressure (ISSUE 10):
//!   a baseline pass at unlimited quota, then the sentinel squeezed to
//!   95 % usage so the node runs `Degraded` (compactor paused, persist
//!   errors classified) while usage is held at the squeeze point by an
//!   external drain. The ratio pins the overhead of the pressure
//!   machinery itself: its poll is two atomic loads on the write path,
//!   so the ratio should sit near 1.0 until the quota actually exhausts.
//!
//! CI runs this advisory (never a hard gate): absolute numbers depend on
//! the runner; the JSON exists so regressions show up in review diffs.

use damaris_core::{Config, NodeRuntime};
use damaris_obs::analyze::nearest_rank;
use damaris_shm::sync::AtomicU64;
use damaris_shm::{ring, MpscQueue, PartitionAllocator, SharedBuffer};
use serde_json::json;
use std::path::PathBuf;
use std::time::Instant;

const CLIENTS: usize = 4;
const ITERATIONS: u32 = 100;
const WRITES_PER_ITER: u32 = 4;
const PAYLOAD_F64: usize = 8192; // 64 KiB per write: memcpy-dominated

fn repo_root() -> PathBuf {
    // crates/bench/../.. = repository root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

/// Per-call write latencies (ns) for a workload sized so no client ever
/// waits on the dedicated core — the client path, not server throughput.
fn write_latencies() -> Vec<u64> {
    let dir = std::env::temp_dir().join(format!("damaris-bench7-{}", std::process::id()));
    let cfg = Config::from_xml(
        r#"<damaris>
             <buffer size="268435456" allocator="partition" queue="4096"/>
             <observability enabled="true" ring_capacity="8192"/>
             <layout name="block" type="double" dimensions="8192"/>
             <variable name="field" layout="block"/>
           </damaris>"#,
    )
    .expect("valid config");
    let runtime = NodeRuntime::start(cfg, CLIENTS, &dir).expect("start node");
    let clients = runtime.clients();
    let data = vec![1.0f64; PAYLOAD_F64];
    let samples = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for client in clients {
            let samples = &samples;
            let data = &data;
            s.spawn(move || {
                let mut local = Vec::with_capacity((ITERATIONS * WRITES_PER_ITER) as usize);
                for it in 0..ITERATIONS {
                    for _ in 0..WRITES_PER_ITER {
                        let t = Instant::now();
                        client.write_f64("field", it, data).expect("write");
                        local.push(t.elapsed().as_nanos() as u64);
                    }
                    client.end_iteration(it).expect("end iteration");
                }
                samples.lock().expect("samples lock").append(&mut local);
            });
        }
    });
    runtime.finish().expect("clean shutdown");
    std::fs::remove_dir_all(&dir).ok();
    samples.into_inner().expect("samples lock")
}

/// Partition-allocator allocate+release round-trips from one client.
fn allocator_throughput() -> (f64, f64) {
    const LEN: usize = 4096;
    const ROUNDS: u32 = 200_000;
    let alloc = PartitionAllocator::with_capacity(64 << 20, 1);
    // Warmup: fault in the region bookkeeping.
    for _ in 0..1000 {
        let seg = alloc.allocate(0, LEN).expect("allocate");
        alloc.release(0, seg);
    }
    let t = Instant::now();
    for _ in 0..ROUNDS {
        let seg = alloc.allocate(0, LEN).expect("allocate");
        alloc.release(0, seg);
    }
    let secs = t.elapsed().as_secs_f64();
    (
        f64::from(ROUNDS) / secs,
        f64::from(ROUNDS) * LEN as f64 / secs,
    )
}

/// Event-queue push+pop pairs per second, single producer (the per-rank
/// MPSC configuration).
fn queue_throughput() -> f64 {
    const OPS: u32 = 1_000_000;
    let q: MpscQueue<u64> = MpscQueue::new(1024);
    // Warmup.
    for i in 0..1024u64 {
        q.push(i).expect("push");
    }
    while q.pop().is_some() {}
    let t = Instant::now();
    for i in 0..OPS {
        q.push(u64::from(i)).expect("push");
        q.pop().expect("pop");
    }
    let secs = t.elapsed().as_secs_f64();
    f64::from(OPS) / secs
}

/// One ring round-trip benchmark body: reserve a segment, memcpy the
/// payload into it, release it. `reserve` hands back a start offset.
fn ring_round_trips(
    rounds: u32,
    payload: &[u8],
    mut reserve: impl FnMut(usize) -> usize,
    mut write_release: impl FnMut(usize, &[u8]),
) -> (f64, f64) {
    // Warmup: fault pages in and settle the counters.
    for _ in 0..64 {
        let pos = reserve(payload.len());
        write_release(pos, payload);
    }
    let t = Instant::now();
    for _ in 0..rounds {
        let pos = reserve(payload.len());
        write_release(pos, payload);
    }
    let secs = t.elapsed().as_secs_f64();
    (
        f64::from(rounds) / secs,
        f64::from(rounds) * payload.len() as f64 / secs,
    )
}

/// What the mixed read/write phase measured.
struct QueryPhase {
    qps: f64,
    p99_latency_ns: u64,
    cache_hit_rate: f64,
    pruned_fraction: f64,
    readers: usize,
    queries: u64,
}

/// Mixed-load read tier: 4 clients append `QUERY_ITERS` iterations while
/// `QUERY_READERS` threads run point queries over the manifest snapshots.
/// QPS and latency cover only queries issued while the writer was live.
fn query_mixed_load() -> QueryPhase {
    use damaris_query::{QueryConfig, QueryEngine};
    const QUERY_ITERS: u32 = 50;
    const QUERY_READERS: usize = 4;
    const ABSENT_PROBES: u64 = 2000;

    let dir = std::env::temp_dir().join(format!("damaris-bench9-q-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = Config::from_xml(
        r#"<damaris>
             <buffer size="67108864" allocator="partition" queue="1024"/>
             <layout name="block" type="double" dimensions="4096"/>
             <variable name="field" layout="block"/>
           </damaris>"#,
    )
    .expect("valid config");
    let runtime = NodeRuntime::start(cfg, CLIENTS, &dir).expect("start node");
    let engine = std::sync::Arc::new(
        QueryEngine::open(&dir, QueryConfig { cache_bytes: 32 << 20 }).expect("engine"),
    );
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let data = vec![2.5f64; 4096];

    let mut latencies: Vec<u64> = Vec::new();
    let t_mixed = Instant::now();
    std::thread::scope(|s| {
        let mut readers = Vec::new();
        for reader_id in 0..QUERY_READERS {
            let engine = std::sync::Arc::clone(&engine);
            let stop = std::sync::Arc::clone(&stop);
            readers.push(s.spawn(move || {
                let mut local: Vec<u64> = Vec::new();
                let mut round = 0u32;
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    round += 1;
                    let Ok(snap) = engine.refresh() else { continue };
                    let Some(max) = snap.max_iteration() else { continue };
                    // A burst of point probes over published data.
                    for k in 0..16u32 {
                        let it = (round + k + reader_id as u32) % (max + 1);
                        let src = (round + k) % CLIENTS as u32;
                        let t = Instant::now();
                        let got = engine.lookup(&snap, "field", it, src).expect("lookup");
                        local.push(t.elapsed().as_nanos() as u64);
                        assert!(got.is_some(), "published block present");
                    }
                }
                local
            }));
        }

        // The write side: the same client→shm→EPE→persist path as the
        // latency phase, paced so readers see many manifest generations.
        let clients = runtime.clients();
        for it in 0..QUERY_ITERS {
            for client in &clients {
                client.write_f64("field", it, &data).expect("write");
            }
            for client in &clients {
                client.end_iteration(it).expect("end iteration");
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        // Let readers drain against the final generation briefly, then
        // close the mixed window.
        std::thread::sleep(std::time::Duration::from_millis(20));
        stop.store(true, std::sync::atomic::Ordering::Release);
        for handle in readers {
            latencies.append(&mut handle.join().expect("reader"));
        }
    });
    let mixed_secs = t_mixed.elapsed().as_secs_f64();
    runtime.finish().expect("clean shutdown");

    // Pruning measurement on the sealed directory: absent-key probes
    // against covered iterations; the bloom + sparse index should answer
    // nearly all of them without touching payload bytes.
    let snap = engine.refresh().expect("refresh");
    let block_reads = engine.registry().counter("query.block_reads");
    let before = block_reads.get();
    for probe in 0..ABSENT_PROBES {
        let ghost = format!("ghost-{probe}");
        let it = (probe as u32) % QUERY_ITERS;
        assert!(engine
            .lookup(&snap, &ghost, it, 0)
            .expect("lookup")
            .is_none());
    }
    let wasted = block_reads.get() - before;
    let pruned_fraction = 1.0 - wasted as f64 / ABSENT_PROBES as f64;

    let stats = engine.cache_stats();
    let cache_hit_rate = if stats.hits + stats.misses == 0 {
        0.0
    } else {
        stats.hits as f64 / (stats.hits + stats.misses) as f64
    };
    latencies.sort_unstable();
    let queries = latencies.len() as u64;
    // Sustained aggregate rate over the whole mixed window (including
    // refresh overhead between bursts — what a consumer experiences).
    let qps = if mixed_secs > 0.0 {
        queries as f64 / mixed_secs
    } else {
        0.0
    };
    let p99_latency_ns = nearest_rank(&latencies, 99, 100);
    std::fs::remove_dir_all(&dir).ok();
    QueryPhase {
        qps,
        p99_latency_ns,
        cache_hit_rate,
        pruned_fraction,
        readers: QUERY_READERS,
        queries,
    }
}

/// What the storage-pressure phase measured.
struct DegradedPhase {
    normal_iters_per_sec: f64,
    degraded_iters_per_sec: f64,
    iterations: u32,
}

/// End-to-end iteration throughput (client write → shm → EPE → committed
/// file) in `Normal` vs `Degraded`. Each iteration is paced to its commit
/// so the comparison measures the persist round trip, not pipelining —
/// and so the held-at-95 % phase can never overshoot into `ReadOnly`.
fn degraded_mode() -> DegradedPhase {
    use damaris_core::PressureState;
    use damaris_fs::{DiskSentinel, LocalDirBackend, StorageBackend};
    const ITERS: u32 = 30;

    let dir = std::env::temp_dir().join(format!("damaris-bench10-d-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sentinel = std::sync::Arc::new(DiskSentinel::unlimited());
    let backend = std::sync::Arc::new(
        LocalDirBackend::new(&dir)
            .expect("backend")
            .with_sentinel(std::sync::Arc::clone(&sentinel)),
    );
    let cfg = Config::from_xml(
        r#"<damaris>
             <buffer size="67108864" allocator="partition" queue="1024"/>
             <layout name="block" type="double" dimensions="4096"/>
             <variable name="field" layout="block"/>
             <resilience on_disk_full="drop-iteration"/>
           </damaris>"#,
    )
    .expect("valid config");
    let runtime = NodeRuntime::start_with_backend(
        cfg,
        CLIENTS,
        std::sync::Arc::clone(&backend) as std::sync::Arc<dyn StorageBackend>,
        0,
        Vec::new(),
    )
    .expect("start node");
    let clients = runtime.clients();
    let data = vec![2.5f64; 4096];
    let paced_iteration = |it: u32| {
        for client in &clients {
            client.write_f64("field", it, &data).expect("write");
        }
        for client in &clients {
            client.end_iteration(it).expect("end iteration");
        }
        while backend.list_sdf_files().expect("list").len() < (it + 1) as usize {
            std::thread::yield_now();
        }
    };

    // Baseline: quota effectively infinite, node stays Normal.
    let t = Instant::now();
    for it in 0..ITERS {
        paced_iteration(it);
    }
    let normal_secs = t.elapsed().as_secs_f64();

    // A commit's rename is visible before its sentinel charge; the
    // manifest entry is published strictly after both. Wait for it so
    // `used` below includes every baseline charge — measuring one file
    // short would squeeze the quota low enough to ENOSPC the next commit.
    while !damaris_fs::Manifest::load(&dir)
        .map(|m| m.covers(0, ITERS - 1))
        .unwrap_or(false)
    {
        std::thread::yield_now();
    }

    // Squeeze to 95 % usage; the idle EPE loop polls the machine into
    // Degraded (compactor flags raised, gc pass run, fail-fast armed).
    let target = sentinel.used();
    sentinel.set_quota(target.saturating_mul(100) / 95);
    while runtime.pressure_state() != PressureState::Degraded {
        std::thread::yield_now();
    }

    // Same load while Degraded. An external drain (this thread) releases
    // whatever each commit charged, holding usage at the squeeze point —
    // the paced loop means at most one iteration is ever in flight, so
    // the headroom above 95 % is never overrun and nothing is shed.
    let t = Instant::now();
    for it in ITERS..2 * ITERS {
        paced_iteration(it);
        // The commit's rename is visible before its sentinel charge —
        // wait for the charge too, or the drain misses it and the leaked
        // bytes eat the headroom a few iterations later.
        while sentinel.used() <= target {
            std::thread::yield_now();
        }
        sentinel.release(sentinel.used() - target);
    }
    let degraded_secs = t.elapsed().as_secs_f64();
    assert_eq!(runtime.pressure_state(), PressureState::Degraded);

    let report = runtime.finish().expect("clean shutdown");
    assert_eq!(report.iterations_persisted, u64::from(2 * ITERS));
    assert_eq!(report.storage_pressure_sheds, 0, "phase must not shed");
    std::fs::remove_dir_all(&dir).ok();
    DegradedPhase {
        normal_iters_per_sec: f64::from(ITERS) / normal_secs,
        degraded_iters_per_sec: f64::from(ITERS) / degraded_secs,
        iterations: ITERS,
    }
}

const BACKING_SEG: usize = 65_536;
const BACKING_CAP: usize = 1 << 20;
const BACKING_ROUNDS: u32 = 50_000;

/// Heap placement: the threaded node's buffer, ring words on the heap.
fn backing_heap() -> (f64, f64) {
    let buffer = SharedBuffer::new(BACKING_CAP);
    let head = AtomicU64::new(0);
    let tail = AtomicU64::new(0);
    let payload = vec![0xA5u8; BACKING_SEG];
    ring_round_trips(
        BACKING_ROUNDS,
        &payload,
        |len| {
            ring::ring_reserve(&head, &tail, BACKING_CAP as u64, len as u64).expect("reserve")
                as usize
        },
        |pos, data| {
            let mut seg = buffer.adopt_segment(pos, data.len());
            seg.copy_from_slice(data);
            ring::ring_release(&head, &tail, BACKING_CAP as u64, pos as u64, data.len() as u64);
        },
    )
}

/// File placement: the cross-process node's mapping — same ring protocol,
/// but every word and every byte lives in a `/dev/shm`-backed file.
#[cfg(unix)]
fn backing_file() -> (f64, f64) {
    let dir = if std::path::Path::new("/dev/shm").is_dir() {
        PathBuf::from("/dev/shm")
    } else {
        std::env::temp_dir()
    };
    let path = dir.join(format!("damaris-bench8-{}.shm", std::process::id()));
    let node = damaris_shm::MappedNode::create(&path, 1, BACKING_CAP).expect("create mapping");
    let buffer = node.buffer();
    let payload = vec![0xA5u8; BACKING_SEG];
    let out = ring_round_trips(
        BACKING_ROUNDS,
        &payload,
        |len| node.reserve(&buffer, 0, len).expect("reserve").offset(),
        |pos, data| {
            let mut seg = buffer.adopt_segment(pos, data.len());
            seg.copy_from_slice(data);
            node.release(0, pos, data.len());
        },
    );
    drop(buffer);
    drop(node);
    std::fs::remove_file(&path).ok();
    out
}

#[cfg(not(unix))]
fn backing_file() -> (f64, f64) {
    (0.0, 0.0)
}

fn main() {
    // Warmup run: page in the binary and the temp dir.
    write_latencies();

    let mut lat = write_latencies();
    lat.sort_unstable();
    let p50 = nearest_rank(&lat, 50, 100);
    let p99 = nearest_rank(&lat, 99, 100);
    let (alloc_ops, alloc_bytes) = allocator_throughput();
    let queue_ops = queue_throughput();
    let (heap_ops, heap_bytes) = backing_heap();
    let (file_ops, file_bytes) = backing_file();
    let query = query_mixed_load();
    let degraded = degraded_mode();

    println!(
        "write latency: p50 {p50} ns, p99 {p99} ns ({} samples, {CLIENTS} clients x \
         {ITERATIONS} iters x {WRITES_PER_ITER} writes of {} B)",
        lat.len(),
        PAYLOAD_F64 * 8
    );
    println!("allocator: {alloc_ops:.0} alloc+release/s ({alloc_bytes:.3e} B/s)");
    println!("queue: {queue_ops:.0} push+pop/s");
    println!(
        "backing: heap {heap_ops:.0} ring round-trips/s ({heap_bytes:.3e} B/s), \
         file {file_ops:.0}/s ({file_bytes:.3e} B/s)"
    );
    println!(
        "query (mixed load, {} readers): {:.0} q/s, p99 {} ns, cache hit rate {:.3}, \
         pruned {:.3} of absent probes ({} queries)",
        query.readers,
        query.qps,
        query.p99_latency_ns,
        query.cache_hit_rate,
        query.pruned_fraction,
        query.queries
    );
    println!(
        "degraded (95% quota, compactor paused): {:.1} iters/s vs {:.1} normal \
         (ratio {:.3}, {} iterations each)",
        degraded.degraded_iters_per_sec,
        degraded.normal_iters_per_sec,
        degraded.degraded_iters_per_sec / degraded.normal_iters_per_sec,
        degraded.iterations
    );

    let record = json!({
        "schema": "damaris-bench/v4",
        "write_latency_ns": { "p50": p50, "p99": p99, "samples": lat.len() },
        "allocator": { "ops_per_sec": alloc_ops, "bytes_per_sec": alloc_bytes },
        "queue": { "ops_per_sec": queue_ops },
        "backing": {
            "heap": { "ops_per_sec": heap_ops, "bytes_per_sec": heap_bytes },
            "file": { "ops_per_sec": file_ops, "bytes_per_sec": file_bytes },
        },
        "query": {
            "qps": query.qps,
            "p99_latency_ns": query.p99_latency_ns,
            "cache_hit_rate": query.cache_hit_rate,
            "pruned_fraction": query.pruned_fraction,
            "readers": query.readers,
            "queries": query.queries,
        },
        "degraded": {
            "normal_iters_per_sec": degraded.normal_iters_per_sec,
            "degraded_iters_per_sec": degraded.degraded_iters_per_sec,
            "throughput_ratio": degraded.degraded_iters_per_sec / degraded.normal_iters_per_sec,
            "iterations": degraded.iterations,
            "quota_used_pct": 95,
        },
        "config": {
            "clients": CLIENTS,
            "payload_bytes": PAYLOAD_F64 * 8,
            "iterations": ITERATIONS,
        },
    });
    let path = repo_root().join("BENCH_10.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&record).expect("serialize") + "\n",
    )
    .expect("write BENCH_10.json");
    println!("(saved {})", path.display());
}
