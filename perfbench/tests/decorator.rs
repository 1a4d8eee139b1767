//! The timing decorator must be invisible to the node: a decorated run
//! writes byte-identical files and reports the same counters as an
//! undecorated run of the same seeded inputs.

use damaris_core::{NodeReport, NodeRuntime};
use damaris_fs::{LocalDirBackend, Manifest, StorageBackend};
use damaris_perfbench::fields::FieldGen;
use damaris_perfbench::threaded;
use damaris_perfbench::timing::TimingBackend;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ITERATIONS: u32 = 6;

fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("decorator-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the `analysis` shape (lzss persist) with one iteration in flight
/// at a time, so residency and every counter are deterministic.
fn run(dir: &Path, decorate: bool) -> (NodeReport, Option<Arc<TimingBackend>>) {
    let spec = threaded::analysis();
    let gen = FieldGen::new(42, spec.geometry);
    let names = spec.var_names();
    let plain: Arc<dyn StorageBackend> = Arc::new(LocalDirBackend::new(dir).unwrap());
    let timing = decorate.then(|| Arc::new(TimingBackend::new(Arc::clone(&plain), Instant::now())));
    let backend = match &timing {
        Some(t) => Arc::clone(t) as Arc<dyn StorageBackend>,
        None => plain,
    };
    let node =
        NodeRuntime::start_with_backend(spec.config(false), 1, backend, 0, Vec::new()).unwrap();
    let client = node.clients().remove(0);
    for it in 0..ITERATIONS {
        for (v, name) in names.iter().enumerate() {
            client.write(name, it, &gen.field(v, it)).unwrap();
        }
        client.end_iteration(it).unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        while !Manifest::load(dir)
            .map(|m| m.covers(0, it))
            .unwrap_or(false)
        {
            assert!(Instant::now() < deadline, "iteration {it} never published");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    (node.finish().unwrap(), timing)
}

fn files(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap().flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if !path.ends_with("MANIFEST.lock") {
                let rel = path.strip_prefix(dir).unwrap().to_path_buf();
                out.insert(rel, std::fs::read(&path).unwrap());
            }
        }
    }
    out
}

#[test]
fn decorated_run_is_byte_identical_with_equal_counters() {
    let (a, b) = (scratch("plain"), scratch("timed"));
    let (plain_report, _) = run(&a, false);
    let (timed_report, timing) = run(&b, true);
    assert_eq!(plain_report, timed_report);
    assert_eq!(plain_report.iterations_persisted, u64::from(ITERATIONS));
    let (fa, fb) = (files(&a), files(&b));
    assert_eq!(fa.keys().collect::<Vec<_>>(), fb.keys().collect::<Vec<_>>());
    assert!(
        fa.keys()
            .filter(|k| k.extension().is_some_and(|e| e == "sdf"))
            .count()
            == ITERATIONS as usize
    );
    for (name, bytes) in &fa {
        assert!(fb[name] == *bytes, "{} differs", name.display());
    }
    // And the decorator saw every commit, in protocol order.
    let stamps = timing.unwrap().stamps();
    let mut seen: Vec<u32> = stamps.iter().map(|s| s.iteration).collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..ITERATIONS).collect::<Vec<_>>());
    for s in &stamps {
        assert!(s.begin_ns <= s.commit_start_ns && s.commit_start_ns <= s.commit_end_ns);
    }
    let _ = std::fs::remove_dir_all(&a);
    let _ = std::fs::remove_dir_all(&b);
}
