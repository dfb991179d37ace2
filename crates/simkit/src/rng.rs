//! Deterministic random number generation for workloads.
//!
//! Every stochastic element of a simulation draws from a [`SimRng`] seeded
//! from the experiment configuration, so runs are exactly reproducible.
//!
//! The generator is an in-tree **xoshiro256\*\*** (Blackman & Vigna),
//! seeded through **SplitMix64** — the standard pairing recommended by the
//! xoshiro authors. Keeping the implementation in-tree (rather than
//! depending on an external `rand` crate) lets the whole workspace build
//! and test with no network access, and pins the exact stream forever:
//! a seed produces the same sequence on every toolchain.

/// SplitMix64 step: advances `state` and returns the next output. Used
/// for seed expansion and stream derivation; its output is equidistributed
/// and passes through zero-seeds safely.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded, splittable RNG for simulation workloads (xoshiro256**).
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create from a 64-bit seed, expanding it with SplitMix64 so that
    /// similar seeds yield unrelated states (an all-zero state — the one
    /// invalid xoshiro state — cannot be produced this way).
    pub fn seed_from(seed: u64) -> SimRng {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The next raw 64-bit output (xoshiro256** scrambler).
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Derive an independent stream for a sub-component (e.g. one rank).
    /// Uses SplitMix64 over `(draw ^ stream)` so streams do not overlap in
    /// practice.
    pub fn split(&mut self, stream: u64) -> SimRng {
        let base = self.next_u64();
        let mut z = base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        SimRng::seed_from(z ^ (z >> 31))
    }

    /// Uniform `f64` in `[0, 1)` (53 high bits, the standard mapping).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `u64` in `[lo, hi)`, unbiased (Lemire's multiply-shift
    /// method with rejection).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        let span = hi - lo;
        let mut m = (self.next_u64() as u128) * (span as u128);
        if (m as u64) < span {
            let threshold = span.wrapping_neg() % span;
            while (m as u64) < threshold {
                m = (self.next_u64() as u128) * (span as u128);
            }
        }
        lo + (m >> 64) as u64
    }

    /// A value drawn from `mean * (1 ± spread)`, uniformly. Used for mild
    /// service-time jitter; `spread` is clamped to `[0, 1]`.
    pub fn jitter(&mut self, mean: f64, spread: f64) -> f64 {
        let s = spread.clamp(0.0, 1.0);
        mean * (1.0 + s * (2.0 * self.unit() - 1.0))
    }

    /// An exponentially distributed value with the given `rate`
    /// (mean `1 / rate`) — Poisson inter-arrival times for open-loop
    /// workloads and queueing-model validation.
    pub fn exp(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "rate must be positive");
        // 1 - unit() lies in (0, 1]; ln is finite and the result >= 0.
        let u = 1.0 - self.unit();
        -u.ln() / rate
    }

    /// Fill a byte buffer with pseudo-random data.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(42);
        let mut b = SimRng::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.range(0, 1000), b.range(0, 1000));
        }
    }

    #[test]
    fn split_streams_differ() {
        let mut root = SimRng::seed_from(7);
        let mut s0 = root.split(0);
        let mut s1 = root.split(1);
        let a: Vec<u64> = (0..50).map(|_| s0.range(0, 1 << 30)).collect();
        let b: Vec<u64> = (0..50).map(|_| s1.range(0, 1 << 30)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn jitter_stays_in_band() {
        let mut r = SimRng::seed_from(1);
        for _ in 0..1000 {
            let v = r.jitter(100.0, 0.2);
            assert!((80.0..=120.0).contains(&v), "jitter out of band: {v}");
        }
        // Spread beyond 1 clamps.
        for _ in 0..100 {
            assert!(r.jitter(10.0, 5.0) >= 0.0);
        }
    }

    #[test]
    fn unit_in_range() {
        let mut r = SimRng::seed_from(3);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn matches_reference_xoshiro_vector() {
        // First outputs of xoshiro256** from the state produced by
        // SplitMix64(0): pins the stream against accidental edits.
        let mut sm = 0u64;
        let expect_state = [
            0xE220_A839_7B1D_CDAFu64,
            0x6E78_9E6A_A1B9_65F4,
            0x06C4_5D18_8009_454F,
            0xF88B_B8A8_724C_81EC,
        ];
        let got: Vec<u64> = (0..4).map(|_| splitmix64(&mut sm)).collect();
        assert_eq!(got, expect_state);
        let mut r = SimRng::seed_from(0);
        // xoshiro256** output for that state, computed by the reference
        // algorithm: s[1]*5 rotl 7 *9 on the initial state.
        let first = expect_state[1]
            .wrapping_mul(5)
            .rotate_left(7)
            .wrapping_mul(9);
        assert_eq!(r.next_u64(), first);
    }

    #[test]
    fn range_is_unbiased_at_bounds() {
        let mut r = SimRng::seed_from(9);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let v = r.range(10, 13);
            assert!((10..13).contains(&v));
            seen_lo |= v == 10;
            seen_hi |= v == 12;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = SimRng::seed_from(5);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        // Same seed reproduces the same bytes.
        let mut r2 = SimRng::seed_from(5);
        let mut buf2 = [0u8; 13];
        r2.fill_bytes(&mut buf2);
        assert_eq!(buf, buf2);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
