//! `btio_a64`: BTIO class A on 64 processes in stored-bytes mode, the
//! original (per-run seek + write) version and then the two-phase
//! version, each captured, with the two files checked byte-identical.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use iosim_apps::btio::{self, BtClass, BtioConfig};
use iosim_apps::common::{run_ranks, with_cache_mb, with_queue_depth, RankFuture, RunResult};
use iosim_buf::tally::{self, DataPlaneTally};
use iosim_buf::BytesList;
use iosim_machine::{presets, Interface};
use iosim_trace::{CacheSnapshot, QueueSnapshot};

use super::{emit_buf, emit_cache, emit_polls, emit_queue, Engine, FsTotals};
use crate::polltime::PollClock;
use crate::{batched_samples, secs, Rep, WordFnv, Workload};

/// Problem size.
#[derive(Clone, Copy, Debug)]
pub struct BtioSize {
    /// NAS class.
    pub class: BtClass,
    /// Processes (a perfect square).
    pub procs: usize,
    /// Solution dumps.
    pub dumps: u32,
}

impl BtioSize {
    /// The paper's Fig. 6 endpoint: class A, 64 processes, 40 dumps.
    pub const PAPER: BtioSize = BtioSize {
        class: BtClass::A,
        procs: 64,
        dumps: 40,
    };

    fn config(&self, optimized: bool) -> BtioConfig {
        let mut cfg = BtioConfig::new(self.class, self.procs, optimized);
        cfg.dumps = self.dumps;
        cfg.stored = true;
        cfg
    }
}

/// The two halves of the workload in run order: pin prefix, two-phase
/// flag, and the metric of the host time inside its rank polls.
const HALVES: [(&str, bool, &str); 2] = [
    ("original", false, "apps.rank_poll_s.original"),
    ("two_phase", true, "apps.rank_poll_s.two_phase"),
];

/// The `btio_a64` workload.
pub struct Btio {
    size: BtioSize,
}

impl Btio {
    /// The workload at `size` (the seed does not enter: BTIO's input is
    /// its problem class).
    pub fn new(size: BtioSize) -> Btio {
        Btio { size }
    }
}

/// `btio::run_capture`, rebuilt from public parts so every rank's polls
/// run under `clock`: the same machine config, the same rank program
/// via `btio::rank_program_on`, and the same rank-0 read-back.
pub fn run_capture_traced(cfg: &BtioConfig, clock: &PollClock) -> (RunResult, BytesList) {
    let machine = with_queue_depth(
        with_cache_mb(
            presets::sp2()
                .with_compute_nodes(cfg.procs.max(1))
                .with_io_nodes(cfg.io_nodes.max(1)),
            cfg.cache_mb,
        ),
        cfg.queue_depth,
    );
    let captured = Rc::new(RefCell::new(BytesList::new()));
    let total = cfg.total_bytes();
    let res = run_ranks(machine, cfg.procs, |ctx| {
        let cfg = cfg.clone();
        let cap = Rc::clone(&captured);
        let program: RankFuture = Box::pin(async move {
            let rank = ctx.rank;
            let fs = Rc::clone(&ctx.fs);
            btio::rank_program_on(ctx, cfg).await;
            if rank == 0 {
                let fh = fs
                    .open(0, Interface::UnixStyle, "btio.solution", None)
                    .await
                    .expect("reopen solution");
                *cap.borrow_mut() = fh.read_rope_at(0, total).await.expect("read solution");
            }
        });
        Box::pin(clock.wrap(program))
    });
    let file = captured.borrow().clone();
    (res, file)
}

fn file_digest(file: &BytesList) -> u64 {
    let mut h = WordFnv::default();
    for seg in file.segments() {
        h.update(seg.as_slice());
    }
    h.finish()
}

impl Workload for Btio {
    fn rep(&mut self, traced: bool) -> Rep {
        let mut rep = Rep {
            setup_s: batched_samples(16, 256, || {
                (self.size.config(false), self.size.config(true))
            }),
            ..Rep::default()
        };
        let t0 = Instant::now();
        let cfgs = HALVES.map(|(_, optimized, _)| self.size.config(optimized));
        let mut wall = secs(t0);

        let mut fs = FsTotals::default();
        let mut buf = DataPlaneTally::default();
        let mut queue = QueueSnapshot::default();
        let mut cache = CacheSnapshot::default();
        let (mut polls, mut sim_s, mut self_s) = (0u64, 0.0, 0.0);
        let mut digests = Vec::new();
        for ((half, _, rank_poll_metric), cfg) in HALVES.iter().zip(&cfgs) {
            tally::reset();
            let clock = PollClock::default();
            let t = Instant::now();
            let (res, file) = if traced {
                run_capture_traced(cfg, &clock)
            } else {
                btio::run_capture(cfg)
            };
            wall += secs(t);
            let t = tally::snapshot();
            buf.bytes_allocated += t.bytes_allocated;
            buf.bytes_copied += t.bytes_copied;
            buf.buffers_allocated += t.buffers_allocated;

            rep.check(
                format!("{half}: file length"),
                file.len() == cfg.total_bytes(),
            );
            digests.push(file_digest(&file));
            let t = Instant::now();
            drop(file);
            wall += secs(t);

            rep.pin(format!("{half}.exec_ns"), res.exec_time.as_nanos());
            rep.pin(format!("{half}.fingerprint"), res.sched_fingerprint);
            rep.io_ops += res.io_ops;
            rep.queries += 1;
            fs.add(&res.summary, res.io_ops, res.io_bytes, &res.listio);
            queue.merge(&res.queue);
            cache.merge(&res.cache);
            polls += res.sim_events;
            sim_s += res.host_elapsed.as_secs_f64();
            if traced {
                rep.layer(rank_poll_metric, clock.total().as_secs_f64());
                self_s += res.host_elapsed.saturating_sub(clock.total()).as_secs_f64();
            }
        }
        rep.check(
            "original and two-phase files byte-identical",
            digests[0] == digests[1],
        );
        rep.pin("file_digest", digests[0]);
        rep.wall_s = wall;
        if traced {
            rep.layer("simkit.self_s", self_s);
            emit_queue(&mut rep, &queue);
            emit_cache(&mut rep, Engine::Mono, &cache);
            emit_polls(&mut rep, polls, sim_s);
            fs.emit(&mut rep);
            emit_buf(&mut rep, &buf);
        }
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: BtioSize = BtioSize {
        class: BtClass::Custom(12),
        procs: 4,
        dumps: 2,
    };

    #[test]
    fn poll_wrapper_leaves_fingerprints_unchanged() {
        for optimized in [false, true] {
            let cfg = SMALL.config(optimized);
            let (plain, plain_file) = btio::run_capture(&cfg);
            let clock = PollClock::default();
            let (timed, timed_file) = run_capture_traced(&cfg, &clock);
            assert_eq!(plain.sched_fingerprint, timed.sched_fingerprint);
            assert_eq!(plain.exec_time, timed.exec_time);
            assert_eq!(plain.sim_events, timed.sim_events);
            assert_eq!(plain_file, timed_file);
            assert!(clock.total() > std::time::Duration::ZERO);
            assert!(clock.total() <= timed.host_elapsed);
        }
    }

    #[test]
    fn pins_hold_at_reduced_size() {
        let mut w = Btio::new(SMALL);
        let plain = w.rep(false);
        let traced = w.rep(true);
        assert!(plain.checks.iter().all(|(_, ok)| *ok), "{:?}", plain.checks);
        assert_eq!(plain.pins, traced.pins);
        let want = [
            ("original.exec_ns", 2_443_432_097u64),
            ("original.fingerprint", 11_437_041_308_258_027_872),
            ("two_phase.exec_ns", 1_183_725_704),
            ("two_phase.fingerprint", 2_911_098_495_472_475_713),
            ("file_digest", 15_034_628_066_686_651_593),
        ];
        let got: Vec<(&str, u64)> = plain.pins.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        assert_eq!(got, want);
    }
}
