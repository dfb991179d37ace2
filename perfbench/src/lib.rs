//! Host-time benchmark of the iosim simulator.
//!
//! Four workloads, each the only place some layer of the simulator does
//! most of its work (see `README.md` in this directory). An untraced
//! repetition measures what a user waits for; a traced repetition times
//! the benchmark's own calls into each layer's public functions and
//! reads the counters the program already exposes. Nothing inside the
//! program is instrumented.

pub mod alloc;
pub mod gen;
pub mod metrics;
pub mod pins;
pub mod polltime;
pub mod workloads;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

use std::time::Instant;

/// What one repetition of a workload measured and checked.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host seconds of the program calls, set-up included.
    pub wall_s: f64,
    /// Host seconds before the first simulation call; one or more
    /// samples, the report takes the median over the run.
    pub setup_s: Vec<f64>,
    /// Simulated file-system operations completed.
    pub io_ops: u64,
    /// Requests answered: advisor queries, or whole simulation runs on
    /// the other workloads.
    pub queries: u64,
    /// Values pinned per seed: virtual times, schedule fingerprints,
    /// report and file digests. A traced repetition must reproduce the
    /// untraced values exactly.
    pub pins: Vec<(String, u64)>,
    /// Seed-independent checks, `(what, passed)`.
    pub checks: Vec<(String, bool)>,
    /// Per-layer values, traced repetitions only.
    pub layers: Vec<(&'static str, f64)>,
}

impl Rep {
    /// Record a pinned value.
    pub fn pin(&mut self, key: impl Into<String>, value: u64) {
        self.pins.push((key.into(), value));
    }

    /// Record a seed-independent check.
    pub fn check(&mut self, what: impl Into<String>, passed: bool) {
        self.checks.push((what.into(), passed));
    }

    /// Record a per-layer value.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }
}

/// One benchmark workload, built from its seed.
pub trait Workload {
    /// Run the workload once. `traced` selects the traced repetition,
    /// which must reproduce every pinned value of the untraced one.
    fn rep(&mut self, traced: bool) -> Rep;

    /// Per-layer metrics this workload exercises but that cannot be
    /// measured from outside the program, as `(name prefix, reason)`.
    fn unavailable(&self) -> Vec<(&'static str, &'static str)> {
        Vec::new()
    }
}

/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Samples of a set-up step too cheap to time alone: each sample is the
/// mean of `batch` back-to-back calls, so the clock's resolution does
/// not quantize it.
pub fn batched_samples<T>(samples: usize, batch: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
    (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            secs(t0) / batch as f64
        })
        .collect()
}

/// Host threads the workloads may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// FNV-1a over 64-bit little-endian words of a byte stream delivered in
/// arbitrary pieces: the digest depends only on the bytes, not on where
/// the pieces split, and costs one multiply per 8 bytes.
#[derive(Clone, Debug)]
pub struct WordFnv {
    hash: u64,
    pending: [u8; 8],
    filled: usize,
    len: u64,
}

impl Default for WordFnv {
    fn default() -> WordFnv {
        WordFnv {
            hash: 0xcbf2_9ce4_8422_2325,
            pending: [0; 8],
            filled: 0,
            len: 0,
        }
    }
}

impl WordFnv {
    const PRIME: u64 = 0x1000_0000_01b3;

    fn mix(&mut self, word: u64) {
        self.hash = (self.hash ^ word).wrapping_mul(Self::PRIME);
    }

    /// Feed the next piece of the stream.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.filled > 0 {
            let take = (8 - self.filled).min(bytes.len());
            self.pending[self.filled..self.filled + take].copy_from_slice(&bytes[..take]);
            self.filled += take;
            bytes = &bytes[take..];
            if self.filled < 8 {
                return;
            }
            self.mix(u64::from_le_bytes(self.pending));
            self.filled = 0;
        }
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        self.pending[..rest.len()].copy_from_slice(rest);
        self.filled = rest.len();
    }

    /// The digest of everything fed so far, length included.
    pub fn finish(&self) -> u64 {
        let mut h = self.clone();
        if h.filled > 0 {
            let mut last = [0u8; 8];
            last[..h.filled].copy_from_slice(&h.pending[..h.filled]);
            h.mix(u64::from_le_bytes(last));
        }
        h.mix(self.len);
        h.hash
    }
}

/// [`WordFnv`] of one byte string.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = WordFnv::default();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_fnv_ignores_piece_boundaries() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 37 % 251) as u8).collect();
        let whole = digest(&data);
        for split in [1, 3, 7, 8, 9, 500, 999] {
            let mut h = WordFnv::default();
            for piece in data.chunks(split) {
                h.update(piece);
            }
            assert_eq!(h.finish(), whole, "split {split}");
        }
        assert_ne!(digest(&data[..999]), whole);
        assert_ne!(digest(&[0]), digest(&[0, 0]));
    }
}
