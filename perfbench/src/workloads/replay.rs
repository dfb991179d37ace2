//! `trace_replay`: a seeded 10,000-rank op-stream trace with cross-rank
//! `<-dep` edges, parsed by `parse_any` and replayed twice on a
//! near-square-mesh SP-2 with 16 I/O nodes and a 4 MB cache: first by
//! the monolithic `workload::replay`, then by `workload::replay_threaded`.
//! The two engines model different machines (the sharded one partitions
//! the I/O nodes), so each has its own pins and they are never compared.

use std::time::Instant;

use iosim_apps::common::with_cache_mb;
use iosim_buf::tally;
use iosim_machine::{presets, MachineConfig, MeshDims};
use iosim_trace::LatencyHistogram;
use iosim_workload::{parse_any, replay, replay_threaded, ReplayReport, ReplaySpec};

use super::{emit_buf, emit_cache, emit_polls, emit_queue, Engine, FsTotals};
use crate::gen::{replay_trace, TraceShape};
use crate::{secs, Rep, WordFnv, Workload};

/// I/O nodes of the replay machine.
const IO_NODES: usize = 16;
/// Per-I/O-node buffer cache, MB.
const CACHE_MB: u64 = 4;

/// The SP-2 preset grown to `ranks` compute nodes on a near-square mesh
/// (the stock 8 × 10 mesh cannot seat them).
pub fn machine(ranks: usize) -> MachineConfig {
    let cols = ((ranks as f64).sqrt().ceil() as usize).max(1);
    let rows = ranks.div_ceil(cols);
    let mut m = presets::sp2()
        .with_compute_nodes(ranks)
        .with_io_nodes(IO_NODES);
    m.mesh = MeshDims { rows, cols };
    with_cache_mb(m, CACHE_MB)
}

/// Digest of a latency distribution: count, exact max and mean, and
/// every percentile from 1 to 100.
pub fn latency_digest(h: &LatencyHistogram) -> u64 {
    let qs: Vec<f64> = (1..=100).map(|p| p as f64 / 100.0).collect();
    let mut d = WordFnv::default();
    for word in [h.count(), h.max_ns(), h.mean_ns().to_bits()]
        .into_iter()
        .chain(h.quantiles(&qs))
    {
        d.update(&word.to_le_bytes());
    }
    d.finish()
}

/// The `trace_replay` workload.
pub struct Replay {
    shape: TraceShape,
    seed: u64,
    workers: usize,
    text: String,
}

impl Replay {
    /// Generate the trace for `seed`; the sharded replay runs on
    /// `workers` host threads.
    pub fn new(shape: TraceShape, seed: u64, workers: usize) -> Replay {
        Replay {
            shape,
            seed,
            workers,
            text: replay_trace(shape, seed),
        }
    }
}

fn pin_report(rep: &mut Rep, engine: &str, r: &ReplayReport, data_ops: usize) {
    rep.pin(format!("{engine}.exec_ns"), r.stats.exec_time.as_nanos());
    rep.pin(format!("{engine}.fingerprint"), r.stats.sched_fingerprint);
    rep.pin(
        format!("{engine}.latency_digest"),
        latency_digest(&r.latency),
    );
    rep.check(
        format!("{engine}: every data op replayed"),
        r.data_ops as usize == data_ops && r.latency.count() as usize == data_ops,
    );
    rep.io_ops += r.stats.io_ops;
    rep.queries += 1;
}

impl Workload for Replay {
    fn rep(&mut self, traced: bool) -> Rep {
        let mut rep = Rep::default();
        let t0 = Instant::now();
        let stream = match parse_any(&self.text, self.seed) {
            Ok(s) => s,
            Err(e) => {
                rep.check(format!("trace parses: {e}"), false);
                return rep;
            }
        };
        let parse_s = secs(t0);
        let spec = ReplaySpec::direct(machine(stream.ranks()));
        rep.setup_s.push(secs(t0));
        rep.check("trace has every op", stream.ops.len() == self.shape.ops());

        tally::reset();
        let t = Instant::now();
        let mono = replay(&stream, &spec);
        let replay_s = secs(t);
        let buf = tally::snapshot();

        // The planner probe is a measurement, not part of the workload:
        // it stays out of the traced wall time.
        let plan = traced.then(|| {
            let t = Instant::now();
            let plan = iosim_machine::shard::plan(&spec.machine, stream.ranks());
            (secs(t), plan.shards.len())
        });

        let t = Instant::now();
        let sharded = replay_threaded(&stream, &spec, self.workers);
        let threaded_s = secs(t);
        rep.wall_s = rep.setup_s[0] + replay_s + threaded_s;

        pin_report(&mut rep, "mono", &mono, self.shape.data_ops());
        pin_report(&mut rep, "sharded", &sharded, self.shape.data_ops());
        if let Some((plan_s, shards)) = plan {
            rep.layer("workload.parse_s", parse_s);
            rep.layer("workload.trace_ops", stream.ops.len() as f64);
            rep.layer("workload.data_ops", stream.data_ops() as f64);
            rep.layer("workload.replay_s", replay_s);
            rep.layer("workload.replay_threaded_s", threaded_s);
            rep.layer("machine.shard_plan_s", plan_s);
            rep.layer("machine.shards", shards as f64);
            rep.layer("simkit.sync_rounds", sharded.stats.sync_rounds as f64);
            emit_polls(
                &mut rep,
                mono.stats.sim_events,
                mono.stats.host_elapsed.as_secs_f64(),
            );
            let mut fs = FsTotals::default();
            let mut queue = mono.stats.queue;
            for r in [&mono, &sharded] {
                let s = &r.stats;
                fs.add(&s.summary, s.io_ops, s.io_bytes, &s.listio);
            }
            queue.merge(&sharded.stats.queue);
            fs.emit(&mut rep);
            emit_queue(&mut rep, &queue);
            emit_cache(&mut rep, Engine::Mono, &mono.stats.cache);
            emit_cache(&mut rep, Engine::Sharded, &sharded.stats.cache);
            emit_buf(&mut rep, &buf);
        }
        rep
    }

    fn unavailable(&self) -> Vec<(&'static str, &'static str)> {
        vec![(
            "simkit.self_s",
            "replay builds its rank tasks inside workload::replay, \
             so their polls cannot be timed from outside",
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: TraceShape = TraceShape {
        ranks: 200,
        rounds: 2,
        record: 4096,
    };

    #[test]
    fn pins_hold_at_reduced_size() {
        let mut w = Replay::new(SMALL, 5, 2);
        let plain = w.rep(false);
        let traced = w.rep(true);
        assert!(plain.checks.iter().all(|(_, ok)| *ok), "{:?}", plain.checks);
        assert_eq!(plain.pins, traced.pins);
        assert_eq!(Replay::new(SMALL, 5, 1).rep(false).pins, plain.pins);
        let got: Vec<(&str, u64)> = plain.pins.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        assert_eq!(
            got,
            [
                ("mono.exec_ns", 80_167_378),
                ("mono.fingerprint", 6_993_797_662_517_700_874),
                ("mono.latency_digest", 4_324_014_379_217_389_485),
                ("sharded.exec_ns", 169_340_103),
                ("sharded.fingerprint", 8_069_201_517_863_170_941),
                ("sharded.latency_digest", 5_452_758_176_011_125_908),
            ]
        );
    }
}
