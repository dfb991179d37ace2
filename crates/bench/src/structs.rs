//! Per-structure microbenchmarks: the `struct_ops` section of
//! `bench wallclock`.
//!
//! The flat core data structures of DESIGN.md §19 sit on the simulation's
//! hot paths. This module times three of them, each replaying one
//! pregenerated operation sequence (fixed [`SimRng`] seeds):
//!
//! | structure | what runs |
//! |---|---|
//! | extent index | [`iosim_pfs::ExtentTree`]: sequential write, sequential read, random read tail |
//! | block LRU | [`iosim_cache::LruSlab`]: insert / touch / evict / flush-scan mix at capacity |
//! | command queue | [`iosim_machine::CmdRing`]: a 64-deep NCQ window under steady load |
//!
//! Correctness is checked elsewhere, against independent reference
//! models (`crates/bench/tests/struct_props.rs`). Like every wall-clock
//! number these timings are host-relative and must never gate CI on
//! absolute values.

use std::time::{Duration, Instant};

use iosim_buf::Bytes;
use iosim_cache::LruSlab;
use iosim_machine::CmdRing;
use iosim_pfs::ExtentTree;
use iosim_simkit::rng::SimRng;
use iosim_simkit::time::SimTime;
use iosim_trace::structs as stally;

use crate::wallclock::best_of;

/// One timed structure workload.
#[derive(Clone, Copy, Debug)]
pub struct StructStorm {
    /// Best-of-reps host wall time.
    pub wall: Duration,
    /// Logical operations performed (identical across reps).
    pub ops: u64,
}

impl StructStorm {
    /// Structure throughput: operations per host second.
    pub fn ops_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s > 0.0 {
            self.ops as f64 / s
        } else {
            0.0
        }
    }
}

/// Workload sizes for the three structure storms.
#[derive(Clone, Copy, Debug)]
pub struct StructsConfig {
    /// Extent storm: sequential blocks written then read, plus a random
    /// read tail of a quarter that size.
    pub extent_blocks: usize,
    /// LRU storm: total operations over a 4096-block cache.
    pub lru_ops: usize,
    /// Command-queue storm: commands pushed through a 64-deep queue.
    pub ring_cmds: usize,
    /// Repetitions per storm; best (minimum wall time) is reported.
    pub reps: usize,
}

impl StructsConfig {
    /// Full-size storms for the committed trajectory file.
    pub fn full() -> StructsConfig {
        StructsConfig {
            extent_blocks: 4096,
            lru_ops: 200_000,
            ring_cmds: 50_000,
            reps: 3,
        }
    }

    /// Small storms for the CI smoke gate.
    pub fn smoke() -> StructsConfig {
        StructsConfig {
            extent_blocks: 256,
            lru_ops: 12_000,
            ring_cmds: 3_000,
            reps: 1,
        }
    }
}

/// The full per-structure report.
#[derive(Clone, Copy, Debug)]
pub struct StructsReport {
    pub smoke: bool,
    pub extent: StructStorm,
    pub lru: StructStorm,
    pub cmdq: StructStorm,
    /// Cursor hit rate of the extent storm (the locality the sorted-Vec
    /// layout is built around).
    pub extent_cursor_hit_rate: f64,
}

/// Structure keys in report and JSON order.
pub const STRUCT_NAMES: [&str; 3] = ["extent", "lru", "cmdq"];

impl StructsReport {
    /// Storms in [`STRUCT_NAMES`] order.
    pub fn storms(&self) -> [(&'static str, StructStorm); 3] {
        [
            ("extent", self.extent),
            ("lru", self.lru),
            ("cmdq", self.cmdq),
        ]
    }
}

// ---------------------------------------------------------------------
// Extent storm: the PFS stored-file index under a sequential-heavy
// stream — the access pattern the paper's applications generate.

const EXTENT_BLOCK: u64 = 512;

/// Pregenerated extent op: write at offset, or read `[offset, offset+len)`.
enum ExtOp {
    Write(u64),
    Read(u64, u64),
}

fn extent_ops(cfg: &StructsConfig) -> Vec<ExtOp> {
    let n = cfg.extent_blocks as u64;
    let mut ops: Vec<ExtOp> = Vec::new();
    // Sequential write pass, sequential read pass: the hot-path shape.
    for i in 0..n {
        ops.push(ExtOp::Write(i * EXTENT_BLOCK));
    }
    for i in 0..n {
        ops.push(ExtOp::Read(i * EXTENT_BLOCK, EXTENT_BLOCK));
    }
    // Random read tail: range queries that land off the cursor.
    let mut rng = SimRng::seed_from(0x0e17_e217);
    for _ in 0..n / 4 {
        let start = rng.range(0, n * EXTENT_BLOCK);
        let len = rng.range(1, 4 * EXTENT_BLOCK);
        ops.push(ExtOp::Read(start, len));
    }
    ops
}

fn extent_storm(ops: &[ExtOp]) -> StructStorm {
    let payload = Bytes::from_vec(vec![0xabu8; EXTENT_BLOCK as usize]);
    let mut t = ExtentTree::new();
    let t0 = Instant::now();
    for op in ops {
        match *op {
            ExtOp::Write(off) => t.write(off, payload.clone()),
            ExtOp::Read(off, len) => {
                std::hint::black_box(t.read(off, len));
            }
        }
    }
    StructStorm {
        wall: t0.elapsed(),
        ops: ops.len() as u64,
    }
}

// ---------------------------------------------------------------------
// LRU storm: the block-cache recency machinery under an insert / touch /
// evict / flush-scan mix at capacity.

const LRU_CAP: usize = 4096;
const LRU_FLUSH_EVERY: usize = 256;
const LRU_FLUSH_BATCH: usize = 64;

/// Pregenerated LRU op.
enum LruOp {
    /// Insert-or-touch `key`, dirtying it when the flag is set; evict
    /// the LRU victim first when at capacity (the write/read hit path).
    Access((u64, u64), bool),
    /// Flush scan: collect up to [`LRU_FLUSH_BATCH`] dirty keys in LRU
    /// order and mark them clean in place (the flush-daemon batch).
    FlushScan,
}

fn lru_ops(cfg: &StructsConfig) -> Vec<LruOp> {
    let mut rng = SimRng::seed_from(0x0017_05c4_c8e5_u64);
    let mut ops: Vec<LruOp> = Vec::with_capacity(cfg.lru_ops);
    for i in 0..cfg.lru_ops {
        if i % LRU_FLUSH_EVERY == LRU_FLUSH_EVERY - 1 {
            ops.push(LruOp::FlushScan);
        } else {
            let key = (rng.range(1, 5), rng.range(0, 2 * LRU_CAP as u64));
            ops.push(LruOp::Access(key, rng.range(0, 2) == 0));
        }
    }
    ops
}

fn lru_storm(ops: &[LruOp]) -> StructStorm {
    let mut s: LruSlab<(u64, u64), u64> = LruSlab::new();
    let t0 = Instant::now();
    for op in ops {
        match *op {
            LruOp::Access(key, dirty) => {
                if s.contains(&key) {
                    if dirty {
                        s.set_dirty(&key);
                    }
                    s.touch(&key);
                } else {
                    while s.len() >= LRU_CAP {
                        std::hint::black_box(s.pop_lru());
                    }
                    s.insert(key, 0, dirty);
                }
            }
            LruOp::FlushScan => {
                let batch: Vec<(u64, u64)> = s.iter_dirty().take(LRU_FLUSH_BATCH).collect();
                for k in &batch {
                    s.clear_dirty(k);
                }
                std::hint::black_box(batch.len());
            }
        }
    }
    StructStorm {
        wall: t0.elapsed(),
        ops: ops.len() as u64,
    }
}

// ---------------------------------------------------------------------
// Command-queue storm: an NCQ window under steady load — every command
// visible (arrival ZERO), one push per pick once the window fills.

const RING_DEPTH: usize = 64;

/// Pregenerated command: (uid, first offset).
fn ring_cmds(cfg: &StructsConfig) -> Vec<(u64, u64)> {
    let mut rng = SimRng::seed_from(0x00c0_ffee_0b57_ac1e);
    (0..cfg.ring_cmds)
        .map(|_| {
            // A mix of sequential runs (continuations the elevator can
            // exploit) and far jumps, over a handful of files.
            let uid = rng.range(1, 4);
            let offset = rng.range(0, 64) * 4096;
            (uid, offset)
        })
        .collect()
}

fn cmdq_storm(cmds: &[(u64, u64)]) -> StructStorm {
    let mut ring: CmdRing<u32> = CmdRing::new();
    let mut head: Option<(u64, u64)> = None;
    let t0 = Instant::now();
    let mut it = cmds.iter();
    let mut live = 0usize;
    loop {
        while live < RING_DEPTH {
            let Some(&(uid, offset)) = it.next() else {
                break;
            };
            ring.push(SimTime::ZERO, uid, offset, 0);
            live += 1;
        }
        if live == 0 {
            break;
        }
        let picked = ring
            .pick(head, SimTime::ZERO, RING_DEPTH)
            .expect("commands arrived");
        head = Some((picked.uid, picked.offset + 4096));
        live -= 1;
        std::hint::black_box(picked.seq);
    }
    StructStorm {
        wall: t0.elapsed(),
        // One push plus one pick per command.
        ops: 2 * cmds.len() as u64,
    }
}

/// Run the three structure storms at `smoke` or full size.
pub fn run_struct_storms(smoke: bool) -> StructsReport {
    let cfg = if smoke {
        StructsConfig::smoke()
    } else {
        StructsConfig::full()
    };

    eprintln!("[structs] extent index");
    let ext_ops = extent_ops(&cfg);
    stally::reset();
    let extent = best_of(cfg.reps, || extent_storm(&ext_ops), |r| r.wall);
    let tally = stally::snapshot();

    eprintln!("[structs] block LRU");
    let l_ops = lru_ops(&cfg);
    let lru = best_of(cfg.reps, || lru_storm(&l_ops), |r| r.wall);

    eprintln!("[structs] command queue");
    let cmds = ring_cmds(&cfg);
    let cmdq = best_of(cfg.reps, || cmdq_storm(&cmds), |r| r.wall);

    StructsReport {
        smoke,
        extent,
        lru,
        cmdq,
        extent_cursor_hit_rate: tally.cursor_hit_rate(),
    }
}

/// Human-readable summary of the per-structure storms.
pub fn render_summary(r: &StructsReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "struct microbenchmarks ({} mode):",
        if r.smoke { "smoke" } else { "full" }
    );
    for (name, storm) in r.storms() {
        let _ = writeln!(out, "  {name:>8}: {:>11.0} ops/s", storm.ops_per_sec());
    }
    let _ = writeln!(
        out,
        "  extent cursor hit rate: {:.1}%",
        r.extent_cursor_hit_rate * 100.0
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_shape_holds_on_tiny_run() {
        // Exercise the real entry point at smoke size (kept small by the
        // smoke config itself) and sanity-check the derived numbers.
        let r = run_struct_storms(true);
        for (name, storm) in r.storms() {
            assert!(storm.ops > 0, "{name}: zero ops");
            assert!(storm.ops_per_sec().is_finite());
        }
        assert!((0.0..=1.0).contains(&r.extent_cursor_hit_rate));
        assert!(
            r.extent_cursor_hit_rate > 0.5,
            "sequential storm should mostly hit the cursor, got {}",
            r.extent_cursor_hit_rate
        );
    }
}
