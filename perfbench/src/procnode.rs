//! `proc_bulk`: the multi-process node, launched through
//! `damaris_core::proc::launch` with this binary as the role-dispatching
//! executable — one compute-core process and one dedicated-core process
//! over the file-backed mapping, the Unix-socket control plane and the
//! file WAL.
//!
//! The dedicated core runs the program's own `run_epe`. The compute-core
//! role is the benchmark's: it follows the protocol of
//! `damaris_core::proc::run_client` on its happy path (reserve, copy,
//! CRC, `Commit`; `EndIteration`; wait for the `Ack` the EPE sends once
//! the iteration is durable) so that it can write seeded fields and time
//! every call. It writes back to back, unpaced. Its timings go to
//! `perfbench-client-<rank>.txt` in the run directory.

use crate::fields::{FieldGen, Geometry};
use crate::query::{QueryStats, ABSENT, LOOKUPS, RANGE_ITERS, WINDOW};
use crate::{ns_since, CopyFloor, Outcome, Tally, WARMUP_ITERS};
use damaris_core::proc::{
    launch, ClientOptions, LaunchPlan, LaunchReport, MAPPING_FILE, OUT_DIR, SOCKET_FILE,
};
use damaris_core::OnClientFailure;
use damaris_format::SdfReader;
use damaris_mpi::{connect_client, CtrlMsg, FaultPlan};
use damaris_shm::sync::Ordering;
use damaris_shm::{monotonic_now_ns, AllocError, MappedNode};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Passes the workload seed to the child processes.
pub const ENV_SEED: &str = "PERFBENCH_SEED";
/// Share of the run's seconds spent in reader rounds after the launch.
const READ_SHARE: f64 = 0.1;
/// One-iteration launches per run; their median is `setup_s`.
const SETUP_REPS: usize = 9;
/// Iterations of the launch that sizes the measured one.
const CALIBRATE_ITERS: u32 = 40;

/// Same shape as `bulk`: 8 variables of 64 KiB.
pub fn geometry() -> Geometry {
    crate::threaded::bulk().geometry
}

/// A deployment-sized mapping: eight iterations of headroom.
pub fn buffer_bytes() -> usize {
    8 * geometry().iter_bytes()
}

fn plan(exe: &Path, dir: PathBuf, iterations: u32) -> LaunchPlan {
    let g = geometry();
    let mut plan = LaunchPlan::new(exe.to_path_buf(), dir, 1);
    plan.iterations = iterations;
    plan.variables = g.vars as u32;
    plan.payload_len = g.var_bytes();
    plan.data_capacity = buffer_bytes();
    // A dead rank ends the run (partial iteration, caught by verify)
    // instead of stalling it.
    plan.policy = OnClientFailure::Partial;
    plan.lease_timeout = Duration::from_secs(5);
    plan.max_epe_respawns = 0;
    plan.timeout = Duration::from_secs(120);
    plan
}

/// Client-side timings of one launch, in nanoseconds.
#[derive(Debug, Default)]
struct ClientTimes {
    write: Vec<u64>,
    end: Vec<u64>,
    iter_io: Vec<u64>,
    durable: Vec<u64>,
    period: Vec<u64>,
    memcpy: Vec<u64>,
}

const SERIES: [&str; 6] = ["write", "end", "iter_io", "durable", "period", "memcpy"];

impl ClientTimes {
    fn series(&mut self) -> [&mut Vec<u64>; 6] {
        [
            &mut self.write,
            &mut self.end,
            &mut self.iter_io,
            &mut self.durable,
            &mut self.period,
            &mut self.memcpy,
        ]
    }

    fn path(dir: &Path, rank: u32) -> PathBuf {
        dir.join(format!("perfbench-client-{rank}.txt"))
    }

    fn store(mut self, path: &Path) -> io::Result<()> {
        let mut text = String::new();
        for (name, values) in SERIES.iter().zip(self.series()) {
            text.push_str(name);
            for v in values.iter() {
                text.push_str(&format!(" {v}"));
            }
            text.push('\n');
        }
        std::fs::write(path, text)
    }

    fn load(path: &Path) -> io::Result<ClientTimes> {
        let text = std::fs::read_to_string(path)?;
        let mut times = ClientTimes::default();
        for line in text.lines() {
            let mut words = line.split_whitespace();
            let name = words.next().unwrap_or_default();
            let Some(k) = SERIES.iter().position(|s| *s == name) else {
                continue;
            };
            let values: Result<Vec<u64>, _> = words.map(str::parse).collect();
            *times.series()[k] = values.map_err(|_| io::Error::other("malformed timings"))?;
        }
        Ok(times)
    }
}

fn renew(node: &MappedNode, rank: usize) -> io::Result<()> {
    if !node.lease(rank).renew() {
        return Err(io::Error::other("lease revoked"));
    }
    // Release pairs with the sweeper's Acquire staleness load.
    node.renewed_at_ns(rank)
        .store(monotonic_now_ns(), Ordering::Release);
    Ok(())
}

/// The compute-core process (`DAMARIS_PROC_ROLE=client`).
pub fn client_role() -> io::Result<()> {
    let opts = ClientOptions::from_env()?;
    let seed: u64 = std::env::var(ENV_SEED)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::other(format!("{ENV_SEED} not set")))?;
    let g = geometry();
    if opts.variables as usize != g.vars || opts.payload_len != g.var_bytes() {
        return Err(io::Error::other(
            "launch geometry differs from the workload's",
        ));
    }
    let gen = FieldGen::new(seed, g);
    let rank = opts.rank as usize;
    let start = Instant::now();
    let node = loop {
        match MappedNode::open(&opts.dir.join(MAPPING_FILE)) {
            Ok(n) => break n,
            Err(_) if start.elapsed() < Duration::from_secs(20) => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(e),
        }
    };
    let buffer = node.buffer();
    let (mut conn, _epoch) = connect_client(
        &opts.dir.join(SOCKET_FILE),
        rank,
        damaris_shm::this_pid(),
        opts.n_clients,
        &FaultPlan::new(),
        Duration::from_secs(20),
    )?;
    conn.set_recv_timeout(Some(Duration::from_millis(100)))?;

    let mut times = ClientTimes::default();
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); g.vars];
    let mut floor = CopyFloor::default();
    let mut last_start: Option<Instant> = None;
    for it in 0..opts.iterations {
        let measured = it >= WARMUP_ITERS;
        let it_start = Instant::now();
        if let Some(prev) = last_start.replace(it_start) {
            if it > WARMUP_ITERS {
                times.period.push((it_start - prev).as_nanos() as u64);
            }
        }
        for (v, buf) in bufs.iter_mut().enumerate() {
            gen.fill(v, it, buf);
        }
        let copy_ns = floor.sample(&bufs);
        if measured {
            times.memcpy.push(copy_ns);
        }
        let io_start = Instant::now();
        for (v, buf) in bufs.iter().enumerate() {
            let t = Instant::now();
            renew(&node, rank)?;
            let mut seg = loop {
                match node.reserve(&buffer, rank, buf.len()) {
                    Ok(seg) => break seg,
                    Err(AllocError::Full) if t.elapsed() < Duration::from_secs(20) => {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    Err(e) => return Err(io::Error::other(format!("reserve: {e}"))),
                }
            };
            seg.copy_from_slice(buf);
            let commit = CtrlMsg::Commit {
                rank: opts.rank,
                iteration: it,
                variable: v as u32,
                offset: seg.offset() as u64,
                len: seg.len() as u64,
                crc: damaris_format::crc32(buf),
            };
            drop(seg);
            conn.send(&commit)?;
            if measured {
                times.write.push(t.elapsed().as_nanos() as u64);
            }
        }
        let t = Instant::now();
        conn.send(&CtrlMsg::EndIteration {
            rank: opts.rank,
            iteration: it,
        })?;
        let done = Instant::now();
        loop {
            match conn.recv() {
                Ok(CtrlMsg::Ack { iteration }) if iteration == it => break,
                Ok(CtrlMsg::Shutdown) => return Err(io::Error::other("EPE shut down early")),
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    renew(&node, rank)?;
                    if done.elapsed() > Duration::from_secs(60) {
                        return Err(io::Error::other(format!("no ack for iteration {it}")));
                    }
                }
                Err(e) => return Err(e),
            }
        }
        if measured {
            times.end.push((done - t).as_nanos() as u64);
            times.iter_io.push((done - io_start).as_nanos() as u64);
            times.durable.push(done.elapsed().as_nanos() as u64);
        }
    }
    times.store(&ClientTimes::path(&opts.dir, opts.rank))
}

fn timed_launch(plan: &LaunchPlan, tally: &mut Tally) -> (f64, Option<LaunchReport>) {
    let t = Instant::now();
    let report = launch(plan);
    let secs = t.elapsed().as_secs_f64();
    match report {
        Ok(r) => {
            check_report(&r, plan.iterations, tally);
            (secs, Some(r))
        }
        Err(e) => {
            tally.check(false, || format!("launch: {e}"));
            (secs, None)
        }
    }
}

fn check_report(r: &LaunchReport, iterations: u32, tally: &mut Tally) {
    tally.check(r.epe_ok, || "EPE did not exit cleanly".into());
    tally.check(r.leaked_bytes == 0, || {
        format!("leaked_bytes={}", r.leaked_bytes)
    });
    tally.check(
        r.failed_ranks.is_empty() && r.killed_ranks.is_empty(),
        || {
            format!(
                "failed_ranks={:?} killed_ranks={:?}",
                r.failed_ranks, r.killed_ranks
            )
        },
    );
    let persisted = r.total(|e| e.iterations_persisted);
    tally.check(persisted == u64::from(iterations), || {
        format!("{persisted} of {iterations} iterations persisted")
    });
    for (what, n) in [
        ("crc_rejected", r.total(|e| e.crc_rejected)),
        ("partial_iterations", r.total(|e| e.partial_iterations)),
        ("iterations_dropped", r.total(|e| e.iterations_dropped)),
        ("iterations_degraded", r.total(|e| e.iterations_degraded)),
    ] {
        tally.check(n == 0, || format!("{what}={n}"));
    }
}

/// Runs `proc_bulk` for about `seconds` under `work`, then verifies it.
pub fn run(seed: u64, seconds: f64, work: &Path) -> Outcome {
    std::env::set_var(ENV_SEED, seed.to_string());
    let g = geometry();
    let gen = FieldGen::new(seed, g);
    let mut out = Outcome {
        buffer_bytes: buffer_bytes(),
        ..Outcome::default()
    };
    // This binary is the role-dispatching executable of the launch.
    let exe = std::env::current_exe().expect("locate the benchmark executable");

    for k in 0..SETUP_REPS {
        let dir = work.join(format!("setup-{k}"));
        let (secs, _) = timed_launch(&plan(&exe, dir.clone(), 1), &mut out.tally);
        out.setup_s.push(secs);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Size the measured launch from a short one's iteration period.
    let calib = work.join("calibrate");
    timed_launch(&plan(&exe, calib.clone(), CALIBRATE_ITERS), &mut out.tally);
    let period = ClientTimes::load(&ClientTimes::path(&calib, 0))
        .ok()
        .map(|t| crate::stats::Samples::new(t.period.iter().map(|&v| v as f64).collect()))
        .filter(|s| !s.is_empty())
        .map_or(10e6, |s| s.median());
    let _ = std::fs::remove_dir_all(&calib);
    let iterations = ((seconds * 1e9 / period) as u32).clamp(2 * WARMUP_ITERS + 50, 50_000);

    let dir = work.join("run");
    let (wall, report) = timed_launch(&plan(&exe, dir.clone(), iterations), &mut out.tally);
    out.wall_s = wall;
    out.iterations = iterations;
    out.payload_bytes = u64::from(iterations) * g.iter_bytes() as u64;
    match ClientTimes::load(&ClientTimes::path(&dir, 0)) {
        Ok(t) => {
            out.tally.check(
                t.durable.len() == (iterations - WARMUP_ITERS) as usize,
                || format!("{} of {iterations} iterations acked", t.durable.len()),
            );
            out.write_ns = t.write;
            out.end_iteration_ns = t.end;
            out.iter_io_ns = t.iter_io;
            out.durable_ns = t.durable;
            out.period_ns = t.period;
            out.memcpy_ns = t.memcpy;
        }
        Err(e) => out.tally.check(false, || format!("client timings: {e}")),
    }

    let out_dir = dir.join(OUT_DIR);
    if let Some(r) = &report {
        verify(&gen, r, &out_dir, iterations, &mut out.tally);
    }
    out.query = rounds(&gen, &out_dir, iterations, seed, seconds * READ_SHARE);
    let q = std::mem::take(&mut out.query.tally);
    out.tally.absorb(q);
    out.stored_bytes = crate::dir_bytes(&out_dir);
    out.sample_file = Some(sdf_path(&out_dir, iterations - 1));
    out
}

fn sdf_path(out_dir: &Path, it: u32) -> PathBuf {
    out_dir.join(format!("iter-{it:05}.sdf"))
}

fn dataset(v: usize) -> String {
    format!("/rank0/var{v}")
}

/// Every iteration on disk, every dataset byte-identical to its field,
/// no presence bitmap (no rank was missing).
fn verify(
    gen: &FieldGen,
    report: &LaunchReport,
    out_dir: &Path,
    iterations: u32,
    tally: &mut Tally,
) {
    tally.check(report.sdf_files.len() == iterations as usize, || {
        format!("{} of {iterations} iteration files", report.sdf_files.len())
    });
    let mut expected = Vec::new();
    for it in 0..iterations {
        let path = sdf_path(out_dir, it);
        let reader = match SdfReader::open(&path) {
            Ok(r) => r,
            Err(e) => {
                tally.check(false, || format!("open {}: {e}", path.display()));
                continue;
            }
        };
        tally.check(reader.info("/presence").is_none(), || {
            format!("iteration {it} is partial")
        });
        for v in 0..gen.geometry().vars {
            gen.fill(v, it, &mut expected);
            let got = reader.read_bytes(&dataset(v));
            tally.check(got.as_deref().ok() == Some(&expected[..]), || {
                format!("proc_bulk: var{v}@{it} does not read back")
            });
        }
    }
}

/// The reader of `proc_bulk`'s output. The process node publishes no
/// MANIFEST, so the reader lists the output directory and reads datasets
/// by path through `SdfReader`, with the same round shape as
/// [`crate::query::Reader`]: a refresh, present-key lookups over the
/// newest iterations, absent-key probes and one window range read. It has
/// no block cache: every present-key lookup reads its block.
fn rounds(gen: &FieldGen, out_dir: &Path, iterations: u32, seed: u64, seconds: f64) -> QueryStats {
    let mut stats = QueryStats::default();
    let mut rng = crate::query::reader_rng(seed);
    let mut open: BTreeMap<u32, SdfReader> = BTreeMap::new();
    let max = iterations - 1;
    let lo = max.saturating_sub(WINDOW - 1);
    let vars = gen.geometry().vars as u64;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        stats.tally.attempt();
        let t = Instant::now();
        match std::fs::read_dir(out_dir) {
            Ok(entries) => {
                for entry in entries.flatten() {
                    let Some(it) = crate::timing::iteration_of(&entry.path()) else {
                        continue;
                    };
                    if it >= lo && !open.contains_key(&it) {
                        match SdfReader::open(entry.path()) {
                            Ok(r) => {
                                open.insert(it, r);
                            }
                            Err(e) => stats.tally.fail(format!("open iteration {it}: {e}")),
                        }
                    }
                }
            }
            Err(e) => stats.tally.fail(format!("list output: {e}")),
        }
        stats.refresh_ns.push(ns_since(t));
        for _ in 0..LOOKUPS {
            let it = lo + rng.below(u64::from(max - lo + 1)) as u32;
            let v = rng.below(vars) as usize;
            stats.tally.attempt();
            let t = Instant::now();
            let got = open.get(&it).map(|r| r.read_bytes(&dataset(v)));
            stats.lookup_ns.push(ns_since(t));
            stats.block_reads += 1;
            match got {
                Some(Ok(bytes)) if bytes == gen.field(v, it) => {}
                _ => stats
                    .tally
                    .fail(format!("lookup var{v}@{it} does not match")),
            }
        }
        for k in 0..ABSENT {
            let it = lo + rng.below(u64::from(max - lo + 1)) as u32;
            stats.tally.attempt();
            let t = Instant::now();
            let got = open.get(&it).map(|r| r.info(&format!("/rank0/absent{k}")));
            stats.absent_ns.push(ns_since(t));
            if !matches!(got, Some(None)) {
                stats.tally.fail(format!("absent probe {k}@{it} answered"));
            }
        }
        let v = rng.below(vars) as usize;
        let first = max.saturating_sub(RANGE_ITERS - 1);
        stats.tally.attempt();
        let t = Instant::now();
        let hits: Vec<_> = (first..=max)
            .map(|it| (it, open.get(&it).map(|r| r.read_bytes(&dataset(v)))))
            .collect();
        stats.range_ns.push(ns_since(t));
        for (it, got) in hits {
            if !matches!(got, Some(Ok(ref b)) if *b == gen.field(v, it)) {
                stats
                    .tally
                    .fail(format!("range var{v}@{it} does not match"));
            }
        }
    }
    stats
}
