//! The repository benchmark: seeded workloads that drive a Damaris node
//! through its public API from one generator thread, time every call from
//! the outside, and verify every byte the node persisted.
//!
//! * [`threaded`] — `bulk`, `small` and `analysis` on [`damaris_core::NodeRuntime`];
//! * [`procnode`] — `proc_bulk` on the multi-process node;
//! * [`layers`] — the per-layer replays the traced run adds;
//! * [`timing`] — the `StorageBackend` decorator that sees commits;
//! * [`fields`] — the seeded CM1-like payloads;
//! * [`query`] — the reader that checks every answer;
//! * [`stats`] — the one nearest-rank percentile every metric uses.
//!
//! See `README.md` next to this crate for the metric definitions.

pub mod fields;
pub mod layers;
pub mod procnode;
pub mod query;
pub mod stats;
pub mod threaded;
pub mod timing;

use std::path::Path;

/// Operations attempted and failed, with the first few failure notes.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 10 {
            self.notes.push(note);
        }
    }

    /// Counts one check, failing it with `note()` when `ok` is false.
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempt();
        if !ok {
            self.fail(note());
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 10 {
                self.notes.push(n);
            }
        }
    }
}

/// Everything one measured pass of a workload produced. Durations are in
/// nanoseconds; per-call vectors exclude the warm-up iterations.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Set-up repetitions, seconds each.
    pub setup_s: Vec<f64>,
    pub write_ns: Vec<u64>,
    pub end_iteration_ns: Vec<u64>,
    pub iter_io_ns: Vec<u64>,
    pub durable_ns: Vec<u64>,
    /// Start-to-start time of consecutive iterations.
    pub period_ns: Vec<u64>,
    /// In-situ persist breakdown (threaded node, from the decorator).
    pub pre_persist_ns: Vec<i64>,
    pub encode_ns: Vec<u64>,
    pub commit_ns: Vec<u64>,
    pub iterations: u32,
    /// Payload bytes persisted over `wall_s` of measured run.
    pub payload_bytes: u64,
    pub wall_s: f64,
    /// Bytes of the persisted files.
    pub stored_bytes: u64,
    /// Same-run copy-floor samples ([`CopyFloor`]), nanoseconds each.
    pub memcpy_ns: Vec<u64>,
    pub query: query::QueryStats,
    pub tally: Tally,
    /// Buffer bytes the node was given.
    pub buffer_bytes: usize,
    /// One persisted file, for the read-side replays.
    pub sample_file: Option<std::path::PathBuf>,
}

/// Iterations at the start of a run kept out of the statistics (they
/// still go through verification).
pub const WARMUP_ITERS: u32 = 10;

/// The memcpy floor a client `write` is compared with, sampled in the
/// same run: once per iteration the generator copies the iteration's
/// payloads into a 4 MiB destination ring — successive offsets, like the
/// node's writes — and records the time per payload.
pub struct CopyFloor {
    dst: Vec<u8>,
    at: usize,
}

impl Default for CopyFloor {
    fn default() -> Self {
        // Filled, not zeroed: every page is faulted in before any sample.
        CopyFloor {
            dst: vec![1u8; 4 << 20],
            at: 0,
        }
    }
}

impl CopyFloor {
    /// Copies every payload once; returns nanoseconds per payload.
    pub fn sample(&mut self, payloads: &[Vec<u8>]) -> u64 {
        let t = std::time::Instant::now();
        for p in payloads {
            if self.at + p.len() > self.dst.len() {
                self.at = 0;
            }
            self.dst[self.at..self.at + p.len()].copy_from_slice(std::hint::black_box(p));
            self.at += p.len();
        }
        std::hint::black_box(&mut self.dst);
        t.elapsed().as_nanos() as u64 / payloads.len().max(1) as u64
    }
}

/// Nanoseconds elapsed since `t`.
pub(crate) fn ns_since(t: std::time::Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Sum of the sizes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map(|m| m.len()).unwrap_or(0),
            _ => 0,
        })
        .sum()
}
