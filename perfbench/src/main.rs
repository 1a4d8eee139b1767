//! `perfbench --workload <bulk|small|analysis|proc_bulk> --seed N
//! --seconds S --trace 0|1`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Exits 1 when
//! any operation or output check failed. Launched with
//! `DAMARIS_PROC_ROLE` set, it is instead one process of the
//! multi-process node (`proc_bulk`). See `README.md`.

use damaris_perfbench::fields::FieldGen;
use damaris_perfbench::layers::{self, Metric};
use damaris_perfbench::stats::{beyond, median_of, tail_windows, windowed_tail, Samples};
use damaris_perfbench::{procnode, threaded, Outcome};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad.clone())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad.clone())?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(0.5),
        trace: trace.unwrap_or(false),
    })
}

/// The filesystem type holding `path`, from the mount table.
fn filesystem_of(path: &Path) -> String {
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

fn us(ns: &[u64]) -> Samples {
    Samples::from_ns_as_us(ns)
}

/// Windowed `p` tail ([`windowed_tail`]) of nanosecond samples, in µs.
fn tail_us(ns: &[u64], p: f64) -> f64 {
    let in_order: Vec<f64> = ns.iter().map(|&v| v as f64 / 1e3).collect();
    windowed_tail(&in_order, p)
}

/// Header fields for a windowed tail: the windows it used and whether
/// each had the ten samples beyond `p` it needs.
fn tail_header(name: &str, n: usize, p: f64) -> [(String, String); 2] {
    let k = tail_windows(n, p);
    [
        (format!("{name}_windows"), k.to_string()),
        (
            format!("{name}_has_10_beyond_per_window"),
            (beyond(n / k, p) >= 10).to_string(),
        ),
    ]
}

/// One measured pass of the workload. Its output stays under `work`
/// (the read replay uses a persisted file) until `main` removes it.
fn run_pass(workload: &str, seed: u64, seconds: f64, observability: bool, work: &Path) -> Outcome {
    std::fs::create_dir_all(work).expect("create work directory");
    match spec_of(workload) {
        Some(spec) => threaded::run(&spec, seed, seconds, observability, work),
        None => procnode::run(seed, seconds, work),
    }
}

fn spec_of(name: &str) -> Option<threaded::Spec> {
    match name {
        "bulk" => Some(threaded::bulk()),
        "small" => Some(threaded::small()),
        "analysis" => Some(threaded::analysis()),
        _ => None,
    }
}

/// The end-to-end metrics `BENCHMARK.json` gates on, and the ones that are
/// only printed: `write_p50_over_memcpy`, `write_p99_us`, `query_p99_us`
/// and `durable_p90_us`, whose run-to-run spreads on a shared host exceed
/// the bounds the benchmark may set (see `README.md`), and `failed_frac`,
/// which is 0 on every healthy run (`attempted`/`failed` carry it).
fn end_to_end(o: &Outcome, failed_frac: f64) -> (Vec<Metric>, Vec<Metric>) {
    let write = us(&o.write_ns);
    let iter_io = us(&o.iter_io_ns);
    let durable = us(&o.durable_ns);
    let query = us(&o.query.lookup_ns);
    let gated = vec![
        ("setup_s", "s", median_of(&o.setup_s)),
        ("write_p50_us", "us", write.median()),
        ("write_p95_us", "us", tail_us(&o.write_ns, 95.0)),
        ("iter_io_p50_us", "us", iter_io.median()),
        ("iter_io_p90_us", "us", tail_us(&o.iter_io_ns, 90.0)),
        ("durable_p50_us", "us", durable.median()),
        ("query_p50_us", "us", query.median()),
        ("query_p95_us", "us", tail_us(&o.query.lookup_ns, 95.0)),
        ("range_p50_us", "us", us(&o.query.range_ns).median()),
        (
            "persist_MBps",
            "MB/s",
            o.payload_bytes as f64 / 1e6 / o.wall_s,
        ),
    ];
    let printed = vec![
        (
            "write_p50_over_memcpy",
            "ratio",
            write.median() / us(&o.memcpy_ns).median(),
        ),
        ("write_p99_us", "us", tail_us(&o.write_ns, 99.0)),
        ("query_p99_us", "us", tail_us(&o.query.lookup_ns, 99.0)),
        ("durable_p90_us", "us", tail_us(&o.durable_ns, 90.0)),
        ("failed_frac", "ratio", failed_frac),
    ];
    (gated, printed)
}

fn per_layer(
    workload: &str,
    seed: u64,
    untraced: &Outcome,
    traced: &Outcome,
    work: &Path,
) -> Vec<Metric> {
    let (geometry, filter, names) = match spec_of(workload) {
        Some(spec) => (spec.geometry, spec.filter, spec.var_names()),
        None => {
            let g = procnode::geometry();
            (g, None, (0..g.vars).map(|v| format!("var{v}")).collect())
        }
    };
    let gen = FieldGen::new(seed, geometry);
    let payloads: Vec<Vec<u8>> = (0..geometry.vars).map(|v| gen.field(v, 0)).collect();
    let replay_dir = work.join("replay");
    std::fs::create_dir_all(&replay_dir).expect("replay directory");
    let (mut m, commit_replay_ns) = layers::replays(&layers::Input {
        geometry,
        filter,
        buffer_bytes: traced.buffer_bytes,
        payloads: &payloads,
        names: &names,
        sample_file: traced.sample_file.as_deref(),
        iterations: traced.iterations,
        work: &replay_dir,
    });
    let value = |m: &[Metric], name: &str| m.iter().find(|x| x.0 == name).map_or(0.0, |x| x.2);
    m.insert(0, ("floor.memcpy_us", "us", us(&traced.memcpy_ns).median()));

    let write = us(&traced.write_ns).median();
    m.push(("core.write_us", "us", write));
    m.push((
        "core.end_iteration_us",
        "us",
        us(&traced.end_iteration_ns).median(),
    ));
    if traced.encode_ns.is_empty() {
        // The process node's dedicated core persists through a backend
        // the benchmark cannot wrap: its verify step (copy out of the
        // mapping + CRC per variable) and its persist are replayed.
        let verify =
            geometry.vars as f64 * (value(&m, "floor.memcpy_us") + value(&m, "format.crc32_us"));
        m.push(("epe.pre_persist_us", "us", verify));
        m.push(("epe.encode_us", "us", value(&m, "format.encode_iter_us")));
        m.push(("fs.commit_sdf_us", "us", commit_replay_ns / 1e3));
    } else {
        let pre: Vec<f64> = traced
            .pre_persist_ns
            .iter()
            .map(|&v| v as f64 / 1e3)
            .collect();
        m.push(("epe.pre_persist_us", "us", median_of(&pre)));
        m.push(("epe.encode_us", "us", us(&traced.encode_ns).median()));
        m.push(("fs.commit_sdf_us", "us", us(&traced.commit_ns).median()));
    }
    m.push((
        "fs.stored_per_payload_byte",
        "ratio",
        traced.stored_bytes as f64 / traced.payload_bytes as f64,
    ));
    let q = &traced.query;
    m.push(("query.refresh_us", "us", us(&q.refresh_ns).median()));
    m.push(("query.lookup_present_us", "us", us(&q.lookup_ns).median()));
    m.push(("query.lookup_absent_us", "us", us(&q.absent_ns).median()));
    m.push(("query.cache_hit_rate", "ratio", q.cache_hit_rate()));
    m.push((
        "query.block_reads_per_lookup",
        "ratio",
        q.block_reads_per_lookup(),
    ));
    m.push(("query.pruned_frac", "ratio", q.pruned_frac()));
    m.push((
        "core.iter_period_ms",
        "ms",
        us(&traced.period_ns).median() / 1e3,
    ));
    let base = us(&untraced.write_ns).median();
    m.push(("obs.overhead_frac", "ratio", (write - base) / base));
    m
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    match std::env::var(damaris_core::proc::ENV_ROLE).as_deref() {
        Ok("epe") => {
            let run = damaris_core::proc::EpeOptions::from_env()
                .and_then(|o| damaris_core::proc::run_epe(&o));
            return match run {
                Ok(_) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench[epe]: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Ok("client") => {
            return match procnode::client_role() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench[client]: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => {}
    }

    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload != "proc_bulk" && spec_of(&args.workload).is_none() {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    }
    let cwd = std::env::current_dir().expect("working directory");
    let work: PathBuf =
        cwd.join(".bench_work")
            .join(format!("{}-{}", args.workload, std::process::id()));

    let outcomes = if args.trace {
        // Untraced half, then the traced half with node observability on.
        let half = args.seconds / 2.0;
        vec![
            run_pass(
                &args.workload,
                args.seed,
                half,
                false,
                &work.join("untraced"),
            ),
            run_pass(&args.workload, args.seed, half, true, &work.join("traced")),
        ]
    } else {
        vec![run_pass(
            &args.workload,
            args.seed,
            args.seconds,
            false,
            &work.join("untraced"),
        )]
    };
    let mut tally = damaris_perfbench::Tally::default();
    for o in &outcomes {
        tally.absorb(o.tally.clone());
    }
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    let (metrics, printed) = match &outcomes[..] {
        [plain, traced] => (
            per_layer(&args.workload, args.seed, plain, traced, &work),
            vec![("failed_frac", "ratio", failed_frac)],
        ),
        [o] => end_to_end(o, failed_frac),
        _ => unreachable!("one or two passes"),
    };
    let _ = std::fs::remove_dir_all(&work);

    let o = outcomes.last().expect("one pass");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let generator_threads = 1;
    let spec = spec_of(&args.workload);
    let g = spec
        .as_ref()
        .map_or_else(procnode::geometry, |s| s.geometry);
    let header = [
        ("workload", json_str(&args.workload)),
        ("host.cores", cores.to_string()),
        ("generator_threads", generator_threads.to_string()),
        (
            "node",
            json_str(if spec.is_some() {
                "threaded: 1 process, 1 client + dedicated-core thread"
            } else {
                "multi-process: 1 client process + 1 dedicated-core process"
            }),
        ),
        (
            "oversubscribed",
            (generator_threads > cores.saturating_sub(1)).to_string(),
        ),
        ("variables_per_iteration", g.vars.to_string()),
        ("payload_bytes_per_variable", g.var_bytes().to_string()),
        ("payload_bytes_per_iteration", g.iter_bytes().to_string()),
        ("iterations", o.iterations.to_string()),
        (
            "warmup_iterations",
            damaris_perfbench::WARMUP_ITERS.to_string(),
        ),
        (
            "compute_phase_ms",
            spec.as_ref()
                .map_or(0.0, |s| s.compute.as_secs_f64() * 1e3)
                .to_string(),
        ),
        ("buffer_bytes", o.buffer_bytes.to_string()),
        ("output_fs", json_str(&filesystem_of(&cwd))),
        (
            "flush_policy",
            json_str(if spec.is_some() {
                "per iteration file: fsync, rename, directory fsync"
            } else {
                "per iteration file: fsync, rename, directory fsync; WAL fdatasync per record step"
            }),
        ),
        ("seed", args.seed.to_string()),
        (
            "commit",
            json_str(&std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into())),
        ),
        ("trace", args.trace.to_string()),
        ("measured_s", o.wall_s.to_string()),
        ("write_samples", o.write_ns.len().to_string()),
        ("iter_io_samples", o.iter_io_ns.len().to_string()),
        ("durable_samples", o.durable_ns.len().to_string()),
        ("query_samples", o.query.lookup_ns.len().to_string()),
    ];
    let mut header: Vec<(String, String)> = header
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    header.extend(tail_header("write_p95", o.write_ns.len(), 95.0));
    header.extend(tail_header("write_p99", o.write_ns.len(), 99.0));
    header.extend(tail_header("iter_io_p90", o.iter_io_ns.len(), 90.0));
    header.extend(tail_header("durable_p90", o.durable_ns.len(), 90.0));
    header.extend(tail_header("query_p95", o.query.lookup_ns.len(), 95.0));
    header.extend(tail_header("query_p99", o.query.lookup_ns.len(), 99.0));
    let header: Vec<String> = header
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("header {{{}}}", header.join(", "));
    for note in &tally.notes {
        println!("FAILED: {note}");
    }
    for (name, unit, value) in metrics.iter().chain(&printed) {
        println!("{name:<32} {value:>14.4} {unit}");
    }

    let finite = metrics.iter().all(|m| m.2.is_finite());
    let correct = tally.failed == 0 && tally.attempted > 0 && finite;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}: {{\"value\": {v:?}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed + u64::from(!finite),
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
