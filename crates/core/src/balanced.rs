//! Balanced I/O (SCF 3.0, paper §4.3).
//!
//! Two cooperating mechanisms:
//!
//! 1. **Semi-direct caching** — the user chooses what fraction of the
//!    integrals is stored on disk; the rest is recomputed every iteration.
//!    [`SemiDirect`] captures the split and its per-iteration cost terms.
//! 2. **File-size balancing** — after the write phase, integral files are
//!    balanced across processes "to within 10% or 1 MB, whichever is
//!    larger", so the read phase is load-balanced even when integral
//!    evaluation was not. [`plan_balance`] computes the minimal set of
//!    byte moves.

/// The paper's balancing tolerance: within 10% or 1 MB, whichever larger.
pub fn default_tolerance(mean_size: f64) -> u64 {
    ((mean_size * 0.10) as u64).max(1 << 20)
}

/// One planned transfer of bytes from an oversized file to an undersized
/// one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Move {
    /// Source rank (file too large).
    pub from: usize,
    /// Destination rank (file too small).
    pub to: usize,
    /// Bytes to move.
    pub bytes: u64,
}

/// Plan the byte moves that bring `sizes` within `tolerance` of the mean.
///
/// Greedy pairing of the most-over with the most-under file; terminates
/// because every move strictly reduces total imbalance. Total size is
/// preserved exactly.
///
/// ```
/// use iosim_core::balanced::{apply_moves, plan_balance};
/// let sizes = [900, 100, 500];
/// let moves = plan_balance(&sizes, 50);
/// let balanced = apply_moves(&sizes, &moves);
/// assert_eq!(balanced.iter().sum::<u64>(), 1500);
/// assert!(balanced.iter().all(|&s| s.abs_diff(500) <= 50));
/// ```
pub fn plan_balance(sizes: &[u64], tolerance: u64) -> Vec<Move> {
    if sizes.is_empty() {
        return Vec::new();
    }
    let total: u64 = sizes.iter().sum();
    let n = sizes.len() as u64;
    let mean = total / n;
    let mut cur: Vec<i64> = sizes.iter().map(|&s| s as i64).collect();
    let mut moves = Vec::new();
    loop {
        let (imax, &max) = cur
            .iter()
            .enumerate()
            .max_by_key(|&(_, &v)| v)
            .expect("non-empty");
        let (imin, &min) = cur
            .iter()
            .enumerate()
            .min_by_key(|&(_, &v)| v)
            .expect("non-empty");
        let over = max - mean as i64;
        let under = mean as i64 - min;
        if over <= tolerance as i64 && under <= tolerance as i64 {
            break;
        }
        let amount = over.min(under).max(1) as u64;
        cur[imax] -= amount as i64;
        cur[imin] += amount as i64;
        moves.push(Move {
            from: imax,
            to: imin,
            bytes: amount,
        });
    }
    moves
}

/// Apply `moves` to `sizes`, returning the balanced sizes.
pub fn apply_moves(sizes: &[u64], moves: &[Move]) -> Vec<u64> {
    let mut out: Vec<i64> = sizes.iter().map(|&s| s as i64).collect();
    for m in moves {
        out[m.from] -= m.bytes as i64;
        out[m.to] += m.bytes as i64;
    }
    out.into_iter()
        .map(|v| u64::try_from(v).expect("moves never overdraw"))
        .collect()
}

/// The semi-direct split: fraction of integrals cached on disk.
#[derive(Clone, Copy, Debug)]
pub struct SemiDirect {
    /// Fraction in `[0, 1]` of the integral volume kept on disk.
    pub cached_fraction: f64,
}

impl SemiDirect {
    /// Construct; clamps to `[0, 1]`.
    pub fn new(cached_fraction: f64) -> SemiDirect {
        SemiDirect {
            cached_fraction: cached_fraction.clamp(0.0, 1.0),
        }
    }

    /// Bytes of integrals stored on disk out of `total_bytes`.
    pub fn disk_bytes(&self, total_bytes: u64) -> u64 {
        (total_bytes as f64 * self.cached_fraction).round() as u64
    }

    /// Bytes of integrals recomputed each iteration.
    pub fn recompute_bytes(&self, total_bytes: u64) -> u64 {
        total_bytes - self.disk_bytes(total_bytes)
    }

    /// FLOPs of recomputation per iteration, given the average evaluation
    /// cost per integral and the integral size in bytes.
    ///
    /// SCF 3.0 "arranges integral evaluation from most to least expensive,
    /// so that those recomputed every iteration are generally *less*
    /// expensive than those kept on disk": the recompute cost per integral
    /// falls below the average as the cached fraction grows. We model the
    /// per-integral cost of the recomputed set as
    /// `avg × (1 - 0.5 × cached_fraction)`.
    pub fn recompute_flops(
        &self,
        total_bytes: u64,
        bytes_per_integral: u64,
        avg_flops_per_integral: f64,
    ) -> f64 {
        let n = self.recompute_bytes(total_bytes) as f64 / bytes_per_integral as f64;
        let per = avg_flops_per_integral * (1.0 - 0.5 * self.cached_fraction);
        n * per
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosim_simkit::rng::SimRng;

    #[test]
    fn already_balanced_needs_no_moves() {
        assert!(plan_balance(&[100, 100, 100], 10).is_empty());
        assert!(plan_balance(&[], 10).is_empty());
        assert!(plan_balance(&[100, 109, 95], 10).is_empty());
    }

    #[test]
    fn unbalanced_sizes_get_moves() {
        let sizes = [1000, 0, 500];
        let moves = plan_balance(&sizes, 50);
        assert!(!moves.is_empty());
        let balanced = apply_moves(&sizes, &moves);
        let mean = 1500 / 3;
        for b in &balanced {
            assert!(
                (*b as i64 - mean as i64).unsigned_abs() <= 50,
                "{balanced:?}"
            );
        }
        assert_eq!(balanced.iter().sum::<u64>(), 1500);
    }

    #[test]
    fn default_tolerance_is_ten_percent_or_one_mb() {
        assert_eq!(default_tolerance(100.0 * (1 << 20) as f64), 10 << 20);
        assert_eq!(default_tolerance(1000.0), 1 << 20);
    }

    #[test]
    fn semi_direct_splits_volume() {
        let sd = SemiDirect::new(0.75);
        assert_eq!(sd.disk_bytes(1000), 750);
        assert_eq!(sd.recompute_bytes(1000), 250);
        let full = SemiDirect::new(1.0);
        assert_eq!(full.recompute_bytes(1000), 0);
        assert_eq!(full.recompute_flops(1000, 10, 400.0), 0.0);
    }

    #[test]
    fn semi_direct_clamps() {
        assert_eq!(SemiDirect::new(2.0).cached_fraction, 1.0);
        assert_eq!(SemiDirect::new(-1.0).cached_fraction, 0.0);
    }

    #[test]
    fn recompute_cost_falls_with_caching() {
        // Caching the expensive half means the remaining recomputation is
        // cheaper than pro-rata.
        let half = SemiDirect::new(0.5);
        let none = SemiDirect::new(0.0);
        let f_half = half.recompute_flops(1000, 10, 400.0);
        let f_none = none.recompute_flops(1000, 10, 400.0);
        assert!(f_half < f_none / 2.0 + 1e-9);
    }

    #[test]
    fn balance_preserves_total_and_converges() {
        for seed in 0..256u64 {
            let mut rng = SimRng::seed_from(0xba1a_0000 + seed);
            let n = rng.range(1, 20) as usize;
            let sizes: Vec<u64> = (0..n).map(|_| rng.range(0, 10_000_000)).collect();
            let tol = rng.range(1_000, 1_000_000);
            let moves = plan_balance(&sizes, tol);
            let balanced = apply_moves(&sizes, &moves);
            assert_eq!(
                balanced.iter().sum::<u64>(),
                sizes.iter().sum::<u64>(),
                "seed {seed}: balancing changed the total"
            );
            let mean = (sizes.iter().sum::<u64>() / sizes.len() as u64) as i64;
            for b in &balanced {
                assert!(
                    (*b as i64 - mean).unsigned_abs() <= tol + 1,
                    "seed {seed}: {b} is more than {tol} from the mean {mean}"
                );
            }
            // Bounded number of moves (each strictly reduces imbalance).
            assert!(
                moves.len() <= sizes.len() * 64,
                "seed {seed}: {} moves for {} sizes",
                moves.len(),
                sizes.len()
            );
        }
    }
}
