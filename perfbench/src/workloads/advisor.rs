//! `advisor_sweep`: the batch what-if advisor over the 648-point hint
//! grid on the hinted `synth` workload. Batch A (seeded draws) runs on a
//! cold advisor whose memo is then saved; a fresh advisor loads it and
//! answers batch B (draws on seed + 1). Many short simulations, plus
//! the memo, dedup and parallel fan-out around them.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

use iosim_bench::advisor::{render_batch, BatchAdvisor, BatchReport, Query, RowSource};
use iosim_core::{HintError, Hints};

use crate::gen::advisor_draws;
use crate::{digest, secs, Rep, Workload};

/// Batch sizes and memo capacity.
#[derive(Clone, Copy, Debug)]
pub struct AdvisorSize {
    /// Draws per batch.
    pub draws: usize,
    /// Memo-cache entries.
    pub memo: usize,
    /// Evaluation fidelity in (0, 1].
    pub scale: f64,
}

impl AdvisorSize {
    /// 4,096 draws per batch, a 256-entry memo, full fidelity.
    pub const PAPER: AdvisorSize = AdvisorSize {
        draws: 4096,
        memo: 256,
        scale: 1.0,
    };
}

/// The hinted workload every query asks about.
const WORKLOAD: &str = "synth";

/// The `advisor_sweep` workload.
pub struct Advisor {
    size: AdvisorSize,
    threads: usize,
    batch_a: Vec<Hints>,
    batch_b: Vec<Hints>,
    memo_path: PathBuf,
}

impl Advisor {
    /// Draw both batches for `seed`; evaluations fan out over `threads`.
    /// The memo file lives under `.perfbench_tmp/` in the working
    /// directory and is removed after each repetition.
    pub fn new(size: AdvisorSize, seed: u64, threads: usize) -> Advisor {
        static INSTANCE: AtomicUsize = AtomicUsize::new(0);
        let instance = INSTANCE.fetch_add(1, Relaxed);
        Advisor {
            size,
            threads,
            batch_a: advisor_draws(size.draws, seed),
            batch_b: advisor_draws(size.draws, seed.wrapping_add(1)),
            memo_path: PathBuf::from(".perfbench_tmp")
                .join(format!("memo-{}-{instance}.bin", std::process::id())),
        }
    }
}

/// Query admission as a caller does it: resolve the workload and
/// validate every hint set before anything simulates.
fn admit(draws: &[Hints]) -> Result<Vec<Query>, HintError> {
    draws
        .iter()
        .map(|h| {
            h.canonical()?;
            Ok(Query::new(WORKLOAD, *h).expect("synth is an advisable workload"))
        })
        .collect()
}

/// Pin and check one batch report; returns the file-system ops and
/// bytes of the simulations it ran.
fn check_batch(rep: &mut Rep, name: &str, r: &BatchReport, queries: usize) -> (u64, u64) {
    let s = &r.stats;
    rep.pin(format!("{name}.digest"), digest(render_batch(r).as_bytes()));
    rep.check(
        format!("{name}: one row per query, every query accounted once"),
        r.rows.len() == queries && s.memo_hits + s.deduped + s.evaluated == queries,
    );
    r.rows
        .iter()
        .filter(|row| row.source == RowSource::Computed)
        .fold((0, 0), |(ops, bytes), row| {
            (ops + row.summary.io_ops, bytes + row.summary.io_bytes)
        })
}

impl Workload for Advisor {
    fn rep(&mut self, traced: bool) -> Rep {
        let mut rep = Rep::default();
        let t0 = Instant::now();
        let (qa, qb) = match (admit(&self.batch_a), admit(&self.batch_b)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                rep.check(format!("admission: {e}"), false);
                return rep;
            }
        };
        let admit_s = secs(t0);

        let mut cold = BatchAdvisor::new(self.size.memo, self.threads);
        let t = Instant::now();
        let ra = cold.evaluate(&qa, self.size.scale);
        let cold_s = secs(t);

        if let Some(dir) = self.memo_path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let t = Instant::now();
        let saved = cold.save(&self.memo_path);
        let save_s = secs(t);

        let mut warm = BatchAdvisor::new(self.size.memo, self.threads);
        let t = Instant::now();
        let loaded = warm.load(&self.memo_path);
        let load_s = secs(t);

        let t = Instant::now();
        let rb = warm.evaluate(&qb, self.size.scale);
        let warm_s = secs(t);
        rep.wall_s = secs(t0);
        let _ = std::fs::remove_file(&self.memo_path);

        rep.setup_s.push(admit_s + load_s);
        let (ra, rb) = match (ra, rb) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                rep.check(format!("evaluate: {e}"), false);
                return rep;
            }
        };
        rep.check(
            "memo saved and restored in full",
            matches!(saved, Ok(n) if n == loaded && n == self.size.memo.min(ra.stats.unique)),
        );
        let (ops_a, bytes_a) = check_batch(&mut rep, "batch_a", &ra, qa.len());
        let (ops_b, bytes_b) = check_batch(&mut rep, "batch_b", &rb, qb.len());
        rep.io_ops = ops_a + ops_b;
        rep.queries = (qa.len() + qb.len()) as u64;

        if traced {
            let (a, b) = (&ra.stats, &rb.stats);
            let evaluated = a.evaluated + b.evaluated;
            let (hits_a, misses_a, evict_a) = cold.memo_counters();
            let (hits_b, misses_b, evict_b) = warm.memo_counters();
            let lookups = hits_a + misses_a + hits_b + misses_b;
            rep.layer("advisor.queries", (a.queries + b.queries) as f64);
            rep.layer("advisor.unique", (a.unique + b.unique) as f64);
            rep.layer("advisor.deduped", (a.deduped + b.deduped) as f64);
            rep.layer("advisor.memo_hits", (a.memo_hits + b.memo_hits) as f64);
            rep.layer("advisor.evaluated", evaluated as f64);
            rep.layer("advisor.memo_evictions", (evict_a + evict_b) as f64);
            rep.layer(
                "advisor.useful_ratio",
                if lookups == 0 {
                    0.0
                } else {
                    (hits_a + hits_b) as f64 / lookups as f64
                },
            );
            rep.layer("advisor.evaluate_s.cold", cold_s);
            rep.layer("advisor.evaluate_s.warm", warm_s);
            rep.layer(
                "advisor.s_per_evaluated",
                (cold_s + warm_s) / evaluated.max(1) as f64,
            );
            rep.layer("advisor.save_s", save_s);
            rep.layer("advisor.load_s", load_s);
            rep.layer("pfs.ops", rep.io_ops as f64);
            rep.layer("pfs.bytes", (bytes_a + bytes_b) as f64);
        }
        rep
    }

    fn unavailable(&self) -> Vec<(&'static str, &'static str)> {
        let why = "advisor evaluations return only a RunSummary \
                   (virtual times, bytes, ops, fingerprint)";
        vec![
            ("simkit.polls", why),
            ("simkit.ns_per_poll", why),
            ("simkit.self_s", why),
            ("pfs.read_ops", why),
            ("pfs.write_ops", why),
            ("pfs.seek_ops", why),
            ("pfs.listio_", why),
            ("cache.", why),
            ("machine.cmdq_", why),
            (
                "buf.",
                "evaluations run on worker threads, and the data-plane tally is thread-local",
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_hold_at_reduced_size() {
        let small = AdvisorSize {
            draws: 300,
            memo: 32,
            scale: 0.25,
        };
        let mut w = Advisor::new(small, 9, 2);
        let plain = w.rep(false);
        let traced = w.rep(true);
        assert!(plain.checks.iter().all(|(_, ok)| *ok), "{:?}", plain.checks);
        assert_eq!(plain.pins, traced.pins);
        assert_eq!(Advisor::new(small, 9, 1).rep(false).pins, plain.pins);
        let _ = std::fs::remove_dir(".perfbench_tmp");
        let got: Vec<(&str, u64)> = plain.pins.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        assert_eq!(
            got,
            [
                ("batch_a.digest", 18_083_903_709_848_959_094),
                ("batch_b.digest", 14_866_386_217_726_443_533)
            ]
        );
    }
}
