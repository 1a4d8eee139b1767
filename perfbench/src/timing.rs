//! A `StorageBackend` decorator that timestamps the persist protocol.
//!
//! The dedicated core opens every iteration file with `begin_sdf` and
//! publishes it with `commit_sdf` (finish + fsync + rename). Wrapping the
//! node's backend lets the benchmark see, from outside the program, when
//! each iteration started encoding and when it became durable. Every
//! method forwards to the wrapped backend unchanged — including `clock()`
//! and `sentinel()` — so a decorated node writes the same bytes and
//! counts the same things as an undecorated one (see
//! `tests/decorator.rs`).

use damaris_format::{Result, SdfWriter};
use damaris_fs::{IoClock, StorageBackend};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// When one iteration file went through the persist protocol, in
/// nanoseconds since the decorator's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitStamp {
    pub iteration: u32,
    /// `begin_sdf` called.
    pub begin_ns: u64,
    /// `commit_sdf` called (all datasets encoded and written).
    pub commit_start_ns: u64,
    /// `commit_sdf` returned (fsynced and renamed into place).
    pub commit_end_ns: u64,
}

#[derive(Debug)]
pub struct TimingBackend {
    inner: Arc<dyn StorageBackend>,
    origin: Instant,
    open: Mutex<HashMap<PathBuf, (u32, u64)>>,
    done: Mutex<Vec<CommitStamp>>,
}

/// The iteration an SDF name such as `node-0/iter-000012.sdf` holds.
pub fn iteration_of(name: &Path) -> Option<u32> {
    let file = name.file_name()?.to_str()?;
    let digits = file.strip_prefix("iter-")?.split('.').next()?;
    digits.parse().ok()
}

impl TimingBackend {
    pub fn new(inner: Arc<dyn StorageBackend>, origin: Instant) -> TimingBackend {
        TimingBackend {
            inner,
            origin,
            open: Mutex::new(HashMap::new()),
            done: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Completed commits, in completion order.
    pub fn stamps(&self) -> Vec<CommitStamp> {
        self.done.lock().expect("stamps lock").clone()
    }
}

impl StorageBackend for TimingBackend {
    fn begin_sdf(&self, name: &str) -> Result<SdfWriter> {
        let begin_ns = self.now_ns();
        let writer = self.inner.begin_sdf(name)?;
        if let Some(iteration) = iteration_of(Path::new(name)) {
            self.open
                .lock()
                .expect("open lock")
                .insert(writer.path().to_path_buf(), (iteration, begin_ns));
        }
        Ok(writer)
    }

    fn commit_sdf(&self, writer: SdfWriter) -> Result<u64> {
        let commit_start_ns = self.now_ns();
        let opened = self.open.lock().expect("open lock").remove(writer.path());
        let bytes = self.inner.commit_sdf(writer)?;
        if let Some((iteration, begin_ns)) = opened {
            self.done.lock().expect("stamps lock").push(CommitStamp {
                iteration,
                begin_ns,
                commit_start_ns,
                commit_end_ns: self.now_ns(),
            });
        }
        Ok(bytes)
    }

    fn create_sdf(&self, name: &str) -> Result<SdfWriter> {
        self.inner.create_sdf(name)
    }

    fn account_bytes(&self, bytes: u64) {
        self.inner.account_bytes(bytes);
    }

    fn files_created(&self) -> u64 {
        self.inner.files_created()
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn mean_throughput(&self) -> f64 {
        self.inner.mean_throughput()
    }

    fn list_sdf_files(&self) -> std::io::Result<Vec<PathBuf>> {
        self.inner.list_sdf_files()
    }

    fn root(&self) -> &Path {
        self.inner.root()
    }

    fn path_of(&self, name: &str) -> PathBuf {
        self.inner.path_of(name)
    }

    fn clock(&self) -> &dyn IoClock {
        self.inner.clock()
    }

    fn sentinel(&self) -> Option<&damaris_fs::DiskSentinel> {
        self.inner.sentinel()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_is_parsed_from_threaded_and_process_names() {
        assert_eq!(iteration_of(Path::new("node-0/iter-000012.sdf")), Some(12));
        assert_eq!(iteration_of(Path::new("iter-00007.sdf")), Some(7));
        assert_eq!(iteration_of(Path::new("node-0/compact-1-2.sdf")), None);
    }
}
