//! `scf11_read`: SCF 1.1 on the LARGE input with PASSION prefetch calls,
//! 64 processes and 16 I/O nodes at command-queue depth 8, uncached —
//! the read-heavy pattern of the paper's Figs. 1–3, and the one place
//! the `machine` command ring and `core::prefetch` do most of the work.

use std::time::Instant;

use iosim_apps::scf11::{self, Scf11Config, Scf11Version, ScfInput};
use iosim_buf::tally;

use super::{emit_buf, emit_cache, emit_polls, emit_queue, Engine, FsTotals};
use crate::{batched_samples, secs, Rep, Workload};

/// Problem size and machine.
#[derive(Clone, Copy, Debug)]
pub struct ScfSize {
    /// Basis-set input.
    pub input: ScfInput,
    /// Processes.
    pub procs: usize,
    /// I/O nodes (the stripe factor).
    pub io_nodes: usize,
    /// I/O-node command-queue depth.
    pub queue_depth: usize,
    /// Volume and compute scale.
    pub scale: f64,
}

impl ScfSize {
    /// LARGE input, 64 processes, 16 I/O nodes, depth 8, full volume.
    pub const PAPER: ScfSize = ScfSize {
        input: ScfInput::Large,
        procs: 64,
        io_nodes: 16,
        queue_depth: 8,
        scale: 1.0,
    };

    fn config(&self) -> Scf11Config {
        Scf11Config {
            procs: self.procs,
            io_nodes: self.io_nodes,
            queue_depth: self.queue_depth,
            scale: self.scale,
            cache_mb: 0,
            ..Scf11Config::new(self.input, Scf11Version::PassionPrefetch)
        }
    }
}

/// The `scf11_read` workload.
pub struct Scf {
    size: ScfSize,
}

impl Scf {
    /// The workload at `size` (the seed does not enter).
    pub fn new(size: ScfSize) -> Scf {
        Scf { size }
    }
}

impl Workload for Scf {
    fn rep(&mut self, traced: bool) -> Rep {
        let mut rep = Rep {
            setup_s: batched_samples(16, 1024, || self.size.config()),
            ..Rep::default()
        };
        tally::reset();
        let t0 = Instant::now();
        let cfg = self.size.config();
        let res = scf11::run(&cfg);
        rep.wall_s = secs(t0);
        let buf = tally::snapshot();

        let run = &res.run;
        rep.pin("exec_ns", run.exec_time.as_nanos());
        rep.pin("fingerprint", run.sched_fingerprint);
        rep.pin("fg_io_ns", res.fg_io_time.as_nanos());
        rep.check("command ring booked commands", run.queue.bookings > 0);
        rep.io_ops = run.io_ops;
        rep.queries = 1;
        if traced {
            let mut fs = FsTotals::default();
            fs.add(&run.summary, run.io_ops, run.io_bytes, &run.listio);
            fs.emit(&mut rep);
            emit_polls(&mut rep, run.sim_events, run.host_elapsed.as_secs_f64());
            emit_queue(&mut rep, &run.queue);
            emit_cache(&mut rep, Engine::Mono, &run.cache);
            emit_buf(&mut rep, &buf);
        }
        rep
    }

    fn unavailable(&self) -> Vec<(&'static str, &'static str)> {
        let why = "SCF 1.1 has no public per-rank entry point (only scf11::run), \
                   so its rank polls cannot be timed from outside";
        vec![("simkit.self_s", why), ("apps.rank_poll_s.original", why)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_hold_at_reduced_size() {
        let small = ScfSize {
            input: ScfInput::Small,
            procs: 8,
            io_nodes: 4,
            queue_depth: 8,
            scale: 0.02,
        };
        let mut w = Scf::new(small);
        let plain = w.rep(false);
        let traced = w.rep(true);
        assert!(plain.checks.iter().all(|(_, ok)| *ok), "{:?}", plain.checks);
        assert_eq!(plain.pins, traced.pins);
        let got: Vec<(&str, u64)> = plain.pins.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        assert_eq!(
            got,
            [
                ("exec_ns", 4_338_155_251),
                ("fingerprint", 4_514_350_007_751_178_980),
                ("fg_io_ns", 1_535_790_451)
            ]
        );
    }
}
