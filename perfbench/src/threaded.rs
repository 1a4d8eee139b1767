//! `bulk`, `small` and `analysis`: one generator thread drives a threaded
//! node (`NodeRuntime`) with one client, leaving the other core to the
//! dedicated core.
//!
//! Each iteration runs a fixed compute phase and then an I/O phase. In the
//! compute phase the generator runs one reader round over the output
//! published so far (at the workload's `read_at`), makes the iteration's
//! fields and spins to the end of the phase, as CM1 computes between
//! outputs. The I/O phase is one `write` per variable and `end_iteration`.
//!
//! Every workload reads while it writes, so that every workload reports
//! the query metrics. The reads are spread over the run, one round per
//! iteration, because a single block of µs-scale lookups (`small`) reads
//! up to ±20 % apart from one run to the next.

use crate::fields::{FieldGen, Geometry};
use crate::query::Reader;
use crate::timing::TimingBackend;
use crate::{CopyFloor, Outcome, Tally, WARMUP_ITERS};
use damaris_core::{Config, DamarisClient, NodeReport, NodeRuntime};
use damaris_format::SdfReader;
use damaris_fs::{LocalDirBackend, Manifest, StorageBackend};
use damaris_query::{QueryConfig, QueryEngine};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One threaded workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub geometry: Geometry,
    /// Length of the compute phase of every iteration.
    pub compute: Duration,
    /// Codec spec persisted through `<event ... using=…>`, if any.
    pub filter: Option<&'static str>,
    /// Present-key lookups per reader round.
    pub lookups: usize,
    /// Start of the reader round within the compute phase.
    pub read_at: Duration,
}

/// Node starts per run; their median is `setup_s`.
const SETUP_REPS: usize = 41;

impl Spec {
    pub fn var_names(&self) -> Vec<String> {
        let width = if self.geometry.vars > 10 { 3 } else { 1 };
        (0..self.geometry.vars)
            .map(|v| format!("v{v:0width$}"))
            .collect()
    }

    /// A deployment-sized buffer: eight iterations of headroom, at least
    /// 4 MiB.
    pub fn buffer_bytes(&self) -> usize {
        (8 * self.geometry.iter_bytes()).max(4 << 20)
    }

    /// Block-cache budget of the reader: a quarter of its lookup window,
    /// so lookups both hit and miss, with hits well below half. The cache
    /// splits its budget over 16 shards and caches nothing in a shard too
    /// small for one block, hence the floor.
    pub fn cache_bytes(&self) -> u64 {
        let window = crate::query::WINDOW as u64 * self.geometry.iter_bytes() as u64;
        (window / 4).max(16 * (self.geometry.var_bytes() as u64 + 4096))
    }

    pub fn config(&self, observability: bool) -> Config {
        let g = self.geometry;
        let mut xml = format!(
            "<damaris>\n  <buffer size=\"{}\" allocator=\"partition\" queue=\"8192\"/>\n  \
             <observability enabled=\"{observability}\" ring_capacity=\"65536\"/>\n  \
             <layout name=\"field\" type=\"double\" dimensions=\"{},{}\"/>\n",
            self.buffer_bytes(),
            g.rows,
            g.cols
        );
        for name in self.var_names() {
            xml.push_str(&format!("  <variable name=\"{name}\" layout=\"field\"/>\n"));
        }
        if let Some(filter) = self.filter {
            xml.push_str(&format!(
                "  <event name=\"end_of_iteration\" action=\"persist\" using=\"{filter}\"/>\n"
            ));
        }
        xml.push_str("</damaris>\n");
        Config::from_xml(&xml).expect("benchmark config is valid")
    }
}

pub fn bulk() -> Spec {
    Spec {
        name: "bulk",
        geometry: Geometry {
            vars: 8,
            rows: 64,
            cols: 128,
        },
        compute: Duration::from_millis(12),
        filter: None,
        lookups: crate::query::LOOKUPS,
        read_at: Duration::ZERO,
    }
}

pub fn small() -> Spec {
    Spec {
        name: "small",
        geometry: Geometry {
            vars: 256,
            rows: 4,
            cols: 8,
        },
        compute: Duration::from_millis(12),
        filter: None,
        // A lookup of a 256 B block takes a few µs, so a round can afford
        // many. With 16 a round, the first lookup after each refresh (a
        // sixteenth of all lookups, and the slow ones) set the p99.
        lookups: 128,
        // Halfway, after the EPE has made the last iteration durable
        // (≈2.5 ms): read beside its fsync, µs-scale lookups followed the
        // disk's load from one run to the next.
        read_at: Duration::from_millis(6),
    }
}

pub fn analysis() -> Spec {
    Spec {
        name: "analysis",
        geometry: Geometry {
            vars: 4,
            rows: 64,
            cols: 128,
        },
        compute: Duration::from_millis(30),
        filter: Some("lzss"),
        lookups: crate::query::LOOKUPS,
        read_at: Duration::ZERO,
    }
}

fn start(
    spec: &Spec,
    dir: &Path,
    observability: bool,
    origin: Instant,
) -> (NodeRuntime, Arc<TimingBackend>, f64) {
    let inner: Arc<dyn StorageBackend> =
        Arc::new(LocalDirBackend::new(dir).expect("create output directory"));
    let backend = Arc::new(TimingBackend::new(inner, origin));
    let config = spec.config(observability);
    let t = Instant::now();
    let node = NodeRuntime::start_with_backend(
        config,
        1,
        Arc::clone(&backend) as Arc<dyn StorageBackend>,
        0,
        Vec::new(),
    )
    .expect("start node");
    (node, backend, t.elapsed().as_secs_f64())
}

/// Times `SETUP_REPS - 1` extra node starts (the measured run's own start
/// is the last repetition).
fn setup_reps(spec: &Spec, work: &Path) -> Vec<f64> {
    (0..SETUP_REPS - 1)
        .map(|k| {
            let dir = work.join(format!("setup-{k}"));
            let (node, _, secs) = start(spec, &dir, false, Instant::now());
            node.finish().expect("finish idle node");
            let _ = std::fs::remove_dir_all(&dir);
            secs
        })
        .collect()
}

fn spin_until(deadline: Instant) {
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

/// Times the set-up repetitions, then runs `spec` for `seconds` under
/// `work` and verifies everything it wrote.
pub fn run(spec: &Spec, seed: u64, seconds: f64, observability: bool, work: &Path) -> Outcome {
    let mut setup_s = setup_reps(spec, work);
    let dir = &work.join("run");
    let gen = FieldGen::new(seed, spec.geometry);
    let names = spec.var_names();
    let origin = Instant::now();
    let (node, backend, setup) = start(spec, dir, observability, origin);
    setup_s.push(setup);
    let mut out = Outcome {
        setup_s,
        buffer_bytes: spec.buffer_bytes(),
        ..Outcome::default()
    };
    let client = node.clients().remove(0);
    let engine = QueryEngine::open(
        dir,
        QueryConfig {
            cache_bytes: spec.cache_bytes(),
        },
    )
    .expect("open query engine");
    let mut reader = Reader {
        engine: &engine,
        gen: &gen,
        names: &names,
        lookups: spec.lookups,
        rng: crate::query::reader_rng(seed),
        stats: Default::default(),
    };

    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); names.len()];
    let mut floor = CopyFloor::default();
    let mut end_at_ns: Vec<u64> = Vec::new();
    let mut last_start: Option<Instant> = None;
    let run_start = Instant::now();
    let deadline = run_start + Duration::from_secs_f64(seconds);
    let mut it = 0u32;
    while Instant::now() < deadline {
        let phase_start = Instant::now();
        if let Some(prev) = last_start.replace(phase_start) {
            if it > WARMUP_ITERS {
                out.period_ns.push((phase_start - prev).as_nanos() as u64);
            }
        }
        // The reader goes first, so that its blocks do not push the new
        // fields out of the cache before the writes read them.
        spin_until(phase_start + spec.read_at);
        reader.round();
        for (v, buf) in bufs.iter_mut().enumerate() {
            gen.fill(v, it, buf);
        }
        let copy_ns = floor.sample(&bufs);
        if it >= WARMUP_ITERS {
            out.memcpy_ns.push(copy_ns);
        }
        spin_until(phase_start + spec.compute);

        let measured = it >= WARMUP_ITERS;
        let io_start = Instant::now();
        for (name, buf) in names.iter().zip(&bufs) {
            let t = Instant::now();
            let res = client.write(name, it, buf);
            let dt = t.elapsed().as_nanos() as u64;
            out.tally.attempt();
            match res {
                Ok(()) if measured => out.write_ns.push(dt),
                Ok(()) => {}
                Err(e) => out.tally.fail(format!("write {name}@{it}: {e}")),
            }
        }
        let t = Instant::now();
        let res = client.end_iteration(it);
        let done = Instant::now();
        out.tally.attempt();
        if let Err(e) = res {
            out.tally.fail(format!("end_iteration {it}: {e}"));
        }
        end_at_ns.push((done - origin).as_nanos() as u64);
        if measured {
            out.end_iteration_ns.push((done - t).as_nanos() as u64);
            out.iter_io_ns.push((done - io_start).as_nanos() as u64);
        }
        it += 1;
    }
    out.wall_s = run_start.elapsed().as_secs_f64();
    out.iterations = it;
    out.payload_bytes = u64::from(it) * spec.geometry.iter_bytes() as u64;

    let report = node.finish();
    for s in backend.stamps() {
        let Some(&end) = end_at_ns.get(s.iteration as usize) else {
            continue;
        };
        if s.iteration < WARMUP_ITERS {
            continue;
        }
        out.durable_ns.push(s.commit_end_ns.saturating_sub(end));
        out.pre_persist_ns.push(s.begin_ns as i64 - end as i64);
        out.encode_ns.push(s.commit_start_ns - s.begin_ns);
        out.commit_ns.push(s.commit_end_ns - s.commit_start_ns);
    }
    out.query = reader.stats;

    verify(spec, &gen, &names, dir, it, report, &client, &mut out.tally);
    out.tally.check(
        out.durable_ns.len() + WARMUP_ITERS.min(it) as usize == it as usize,
        || format!("{} of {it} iterations committed", out.durable_ns.len()),
    );
    let q = std::mem::take(&mut out.query.tally);
    out.tally.absorb(q);
    out.stored_bytes = crate::dir_bytes(&dir.join("node-0"));
    out.sample_file = Some(sdf_path(dir, it.saturating_sub(1)));
    out
}

fn sdf_path(dir: &Path, it: u32) -> PathBuf {
    dir.join(format!("node-0/iter-{it:06}.sdf"))
}

/// Checks, outside the timed window, that the node persisted every
/// iteration exactly as generated and leaked nothing.
#[allow(clippy::too_many_arguments)]
fn verify(
    spec: &Spec,
    gen: &FieldGen,
    names: &[String],
    dir: &Path,
    iterations: u32,
    report: Result<NodeReport, damaris_core::DamarisError>,
    client: &DamarisClient,
    tally: &mut Tally,
) {
    match report {
        Ok(r) => {
            tally.check(r.iterations_persisted == u64::from(iterations), || {
                format!(
                    "{} of {iterations} iterations persisted",
                    r.iterations_persisted
                )
            });
            tally.check(r.crc_quarantined == 0, || {
                format!("crc_quarantined={}", r.crc_quarantined)
            });
            tally.check(r.iterations_degraded == 0, || {
                format!("iterations_degraded={}", r.iterations_degraded)
            });
            tally.check(r.writes_dropped == 0, || {
                format!("writes_dropped={}", r.writes_dropped)
            });
        }
        Err(e) => tally.check(false, || format!("finish: {e}")),
    }
    tally.check(client.buffer_in_use() == 0, || {
        format!("{} buffer bytes still in use", client.buffer_in_use())
    });
    let manifest = Manifest::load(dir);
    tally.check(manifest.is_ok(), || {
        format!("MANIFEST: {:?}", manifest.as_ref().err())
    });
    let mut expected = Vec::new();
    for it in 0..iterations {
        if let Ok(m) = &manifest {
            tally.check(m.covers(0, it), || {
                format!("iteration {it} missing from MANIFEST")
            });
        }
        let path = sdf_path(dir, it);
        let reader = match SdfReader::open(&path) {
            Ok(r) => r,
            Err(e) => {
                tally.check(false, || format!("open {}: {e}", path.display()));
                continue;
            }
        };
        for (v, name) in names.iter().enumerate() {
            gen.fill(v, it, &mut expected);
            let got = reader.read_bytes(&format!("/iter-{it}/rank-0/{name}"));
            tally.check(got.as_deref().ok() == Some(&expected[..]), || {
                format!("{}: {name}@{it} does not read back", spec.name)
            });
        }
    }
}
