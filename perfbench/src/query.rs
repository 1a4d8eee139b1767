//! The analysis reader: seeded point lookups, absent-key probes and one
//! window range query per round, every answer checked against the
//! generator. `analysis` runs one round per iteration while the node
//! writes; `bulk` and `small` run rounds over their finished output.

use crate::fields::{FieldGen, Rng};
use crate::{ns_since, Tally};
use damaris_query::{QueryEngine, RangeQuery};
use std::time::Instant;

/// Present-key lookups per round, unless a workload sets its own.
pub const LOOKUPS: usize = 16;
/// Absent-key probes per round.
pub const ABSENT: usize = 4;
/// Iterations a round's lookups spread over (ending at the newest).
pub const WINDOW: u32 = 16;
/// Iterations one range query covers.
pub const RANGE_ITERS: u32 = 4;

/// The reader's key stream: drawn from the workload seed, apart from the
/// stream that shapes the fields.
pub fn reader_rng(seed: u64) -> Rng {
    Rng::new(seed ^ 0x5EED_0000_0F0F_ACE5)
}

/// What the reader measured, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    pub refresh_ns: Vec<u64>,
    /// Lookups of keys the output holds.
    pub lookup_ns: Vec<u64>,
    /// Lookups of keys it does not hold.
    pub absent_ns: Vec<u64>,
    pub range_ns: Vec<u64>,
    /// Present-key lookups answered without reading a block.
    pub cache_hits: u64,
    /// Blocks read from files by present-key lookups.
    pub block_reads: u64,
    /// Blocks read from files by absent-key probes (ideally none).
    pub absent_block_reads: u64,
    pub tally: Tally,
}

impl QueryStats {
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache_hits as f64 / self.lookup_ns.len().max(1) as f64
    }

    pub fn block_reads_per_lookup(&self) -> f64 {
        self.block_reads as f64 / self.lookup_ns.len().max(1) as f64
    }

    /// Share of absent-key probes answered without reading a block.
    pub fn pruned_frac(&self) -> f64 {
        let n = self.absent_ns.len().max(1) as f64;
        1.0 - self.absent_block_reads as f64 / n
    }
}

/// One reader over a threaded node's output directory.
pub struct Reader<'a> {
    pub engine: &'a QueryEngine,
    pub gen: &'a FieldGen,
    pub names: &'a [String],
    /// Present-key lookups per round.
    pub lookups: usize,
    pub rng: Rng,
    pub stats: QueryStats,
}

impl Reader<'_> {
    /// One round over the newest published iterations.
    pub fn round(&mut self) {
        let block_reads = self.engine.registry().counter("query.block_reads");
        self.stats.tally.attempt();
        let t = Instant::now();
        let snap = match self.engine.refresh() {
            Ok(s) => s,
            Err(e) => return self.stats.tally.fail(format!("refresh: {e:?}")),
        };
        self.stats.refresh_ns.push(ns_since(t));
        let Some(max) = snap.max_iteration() else {
            return;
        };
        let lo = max.saturating_sub(WINDOW - 1);
        let vars = self.names.len() as u64;
        for _ in 0..self.lookups {
            let it = lo + self.rng.below(u64::from(max - lo + 1)) as u32;
            let v = self.rng.below(vars) as usize;
            self.stats.tally.attempt();
            let before = block_reads.get();
            let t = Instant::now();
            let got = self.engine.lookup(&snap, &self.names[v], it, 0);
            let dt = ns_since(t);
            let read = block_reads.get() - before;
            match got {
                Ok(Some(block)) if *block == self.gen.field(v, it) => {}
                Ok(Some(_)) => self
                    .stats
                    .tally
                    .fail(format!("lookup {}@{it}: wrong bytes", self.names[v])),
                Ok(None) => self
                    .stats
                    .tally
                    .fail(format!("lookup {}@{it}: missing", self.names[v])),
                Err(e) => self
                    .stats
                    .tally
                    .fail(format!("lookup {}@{it}: {e:?}", self.names[v])),
            }
            self.stats.lookup_ns.push(dt);
            self.stats.block_reads += read;
            self.stats.cache_hits += u64::from(read == 0);
        }
        for k in 0..ABSENT {
            let it = lo + self.rng.below(u64::from(max - lo + 1)) as u32;
            let ghost = format!("absent{k}");
            self.stats.tally.attempt();
            let before = block_reads.get();
            let t = Instant::now();
            let got = self.engine.lookup(&snap, &ghost, it, 0);
            self.stats.absent_ns.push(ns_since(t));
            self.stats.absent_block_reads += block_reads.get() - before;
            if !matches!(got, Ok(None)) {
                self.stats
                    .tally
                    .fail(format!("absent probe {ghost}@{it} answered"));
            }
        }
        let v = self.rng.below(vars) as usize;
        let first = max.saturating_sub(RANGE_ITERS - 1);
        let query = RangeQuery {
            variable: &self.names[v],
            iterations: (first, max),
            sources: None,
            rows: None,
        };
        self.stats.tally.attempt();
        let t = Instant::now();
        let hits = self.engine.range(&snap, &query);
        self.stats.range_ns.push(ns_since(t));
        match hits {
            Ok(hits) => {
                let expected: Vec<u32> = (first..=max).collect();
                let got: Vec<u32> = hits.iter().map(|h| h.iteration).collect();
                if got != expected {
                    self.stats
                        .tally
                        .fail(format!("range {first}..={max}: iterations {got:?}"));
                } else if hits
                    .iter()
                    .any(|h| *h.data != self.gen.field(v, h.iteration))
                {
                    self.stats
                        .tally
                        .fail(format!("range {first}..={max}: wrong bytes"));
                }
            }
            Err(e) => self
                .stats
                .tally
                .fail(format!("range {first}..={max}: {e:?}")),
        }
    }
}
