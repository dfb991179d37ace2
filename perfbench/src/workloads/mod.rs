//! The four workloads and the counters they share.

pub mod advisor;
pub mod btio;
pub mod replay;
pub mod scf;

use iosim_buf::tally::DataPlaneTally;
use iosim_trace::{CacheSnapshot, IoSummary, ListIoSnapshot, OpKind, QueueSnapshot};

use crate::{Rep, Workload};

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["btio_a64", "scf11_read", "trace_replay", "advisor_sweep"];

/// Build workload `name` at paper scale from `seed`, or `None` for an
/// unknown name.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "btio_a64" => Box::new(btio::Btio::new(btio::BtioSize::PAPER)),
        "scf11_read" => Box::new(scf::Scf::new(scf::ScfSize::PAPER)),
        "trace_replay" => Box::new(replay::Replay::new(
            crate::gen::TraceShape::PAPER,
            seed,
            crate::nproc(),
        )),
        "advisor_sweep" => Box::new(advisor::Advisor::new(
            advisor::AdvisorSize::PAPER,
            seed,
            crate::nproc(),
        )),
        _ => return None,
    })
}

/// File-system counters summed over the simulations of a repetition.
#[derive(Clone, Copy, Debug, Default)]
pub struct FsTotals {
    ops: u64,
    read_ops: u64,
    write_ops: u64,
    seek_ops: u64,
    bytes: u64,
    listio_requests: u64,
    listio_fragments: u64,
}

impl FsTotals {
    /// Add one simulation's counters.
    pub fn add(&mut self, summary: &IoSummary, ops: u64, bytes: u64, listio: &ListIoSnapshot) {
        let count = |kind: OpKind| {
            summary
                .rows
                .iter()
                .filter(|r| r.kind == kind)
                .map(|r| r.count)
                .sum::<u64>()
        };
        self.ops += ops;
        self.read_ops += count(OpKind::Read);
        self.write_ops += count(OpKind::Write);
        self.seek_ops += count(OpKind::Seek);
        self.bytes += bytes;
        self.listio_requests += listio.requests;
        self.listio_fragments += listio.fragments;
    }

    /// Report as `pfs.*` metrics.
    pub fn emit(&self, rep: &mut Rep) {
        rep.layer("pfs.ops", self.ops as f64);
        rep.layer("pfs.read_ops", self.read_ops as f64);
        rep.layer("pfs.write_ops", self.write_ops as f64);
        rep.layer("pfs.seek_ops", self.seek_ops as f64);
        rep.layer("pfs.bytes", self.bytes as f64);
        rep.layer("pfs.listio_requests", self.listio_requests as f64);
        rep.layer("pfs.listio_fragments", self.listio_fragments as f64);
    }
}

/// Report the data-plane tally as `buf.*` metrics.
pub fn emit_buf(rep: &mut Rep, t: &DataPlaneTally) {
    rep.layer("buf.bytes_allocated", t.bytes_allocated as f64);
    rep.layer("buf.bytes_copied", t.bytes_copied as f64);
    rep.layer("buf.buffers_allocated", t.buffers_allocated as f64);
}

/// Report the I/O-node command-queue counters as `machine.cmdq_*`.
pub fn emit_queue(rep: &mut Rep, q: &QueueSnapshot) {
    rep.layer("machine.cmdq_bookings", q.bookings as f64);
    rep.layer("machine.cmdq_dispatches", q.dispatches() as f64);
    rep.layer("machine.cmdq_mean_depth", q.mean_depth());
    rep.layer("machine.cmdq_reorders", q.reorders as f64);
    rep.layer("machine.cmdq_seeks_avoided", q.seeks_avoided as f64);
}

/// Which engine a cache snapshot came from.
#[derive(Clone, Copy, Debug)]
pub enum Engine {
    /// One executor for the whole machine (apps, `workload::replay`).
    Mono,
    /// The sharded engine (`workload::replay_threaded`).
    Sharded,
}

/// Report buffer-cache counters as `cache.*.{mono,sharded}`. The hit
/// ratio is 0, not 1, when the cache saw no lookups.
pub fn emit_cache(rep: &mut Rep, engine: Engine, c: &CacheSnapshot) {
    let names: [&'static str; 7] = match engine {
        Engine::Mono => [
            "cache.hits.mono",
            "cache.misses.mono",
            "cache.evictions.mono",
            "cache.flushed.mono",
            "cache.readahead_hits.mono",
            "cache.writes_absorbed.mono",
            "cache.hit_ratio.mono",
        ],
        Engine::Sharded => [
            "cache.hits.sharded",
            "cache.misses.sharded",
            "cache.evictions.sharded",
            "cache.flushed.sharded",
            "cache.readahead_hits.sharded",
            "cache.writes_absorbed.sharded",
            "cache.hit_ratio.sharded",
        ],
    };
    let lookups = c.hits + c.misses;
    let ratio = if lookups == 0 {
        0.0
    } else {
        c.hits as f64 / lookups as f64
    };
    let values = [
        c.hits as f64,
        c.misses as f64,
        c.evictions as f64,
        c.flushed_blocks as f64,
        c.readahead_hits as f64,
        c.writes_absorbed as f64,
        ratio,
    ];
    for (name, value) in names.into_iter().zip(values) {
        rep.layer(name, value);
    }
}

/// Report executor polls and host nanoseconds per poll of the
/// monolithic simulations of a repetition.
pub fn emit_polls(rep: &mut Rep, polls: u64, sim_s: f64) {
    rep.layer("simkit.polls", polls as f64);
    let per_poll = if polls == 0 {
        0.0
    } else {
        sim_s * 1e9 / polls as f64
    };
    rep.layer("simkit.ns_per_poll", per_poll);
}
