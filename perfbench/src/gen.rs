//! Seeded input generators. The benchmark owns its random source, so a
//! change to the simulator's RNG cannot change the inputs; the program
//! only ever sees the generated trace text and hint sets.

use iosim_core::Hints;
use iosim_machine::Interface;

/// SplitMix64: tiny, full-period and fixed forever.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`); the multiply-shift bias is
    /// below 2^-40 for the sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// Shape of the replay trace: `ranks` ranks, `rounds` rounds of one
/// labelled `record`-byte write then one dependent read each.
#[derive(Clone, Copy, Debug)]
pub struct TraceShape {
    /// Replayed ranks.
    pub ranks: usize,
    /// Write-then-read rounds per rank.
    pub rounds: usize,
    /// Record size in bytes.
    pub record: u64,
}

impl TraceShape {
    /// The benchmark's size: 10,000 ranks × 4 rounds of 4 KB records,
    /// 100,000 ops with the opens and closes.
    pub const PAPER: TraceShape = TraceShape {
        ranks: 10_000,
        rounds: 4,
        record: 4096,
    };

    /// Operations in the generated trace (open, close, and a write and
    /// a read per round, per rank).
    pub fn ops(&self) -> usize {
        self.ranks * (2 + 2 * self.rounds)
    }

    /// Data (read and write) operations.
    pub fn data_ops(&self) -> usize {
        self.ranks * 2 * self.rounds
    }
}

/// The op-stream trace text: every rank opens `rec.dat`; in round `k`
/// each rank `r` writes record `k·ranks + r` as `@wK.R`, then reads a
/// random rank's record of the same round with `<-wK.J`; finally every
/// rank closes the file. Writes of a round precede its reads in the
/// text, so every label is defined before use.
pub fn replay_trace(shape: TraceShape, seed: u64) -> String {
    let mut rng = SplitMix64::new(seed);
    let mut out = String::with_capacity(shape.ops() * 32);
    out.push_str("#iosim opstream v1\n");
    for r in 0..shape.ranks {
        out.push_str(&format!("{r} open rec.dat\n"));
    }
    for k in 0..shape.rounds {
        let base = (k * shape.ranks) as u64;
        for r in 0..shape.ranks {
            let off = (base + r as u64) * shape.record;
            out.push_str(&format!(
                "{r} write rec.dat {off} {} @w{k}.{r}\n",
                shape.record
            ));
        }
        for r in 0..shape.ranks {
            let j = rng.below(shape.ranks);
            let off = (base + j as u64) * shape.record;
            out.push_str(&format!(
                "{r} read rec.dat {off} {} <-w{k}.{j}\n",
                shape.record
            ));
        }
    }
    for r in 0..shape.ranks {
        out.push_str(&format!("{r} close rec.dat\n"));
    }
    out
}

/// Knob values of the advisor grid: 4 × 3 × 3 × 3 × 3 × 2 = 648 points.
pub const CACHE_MB: [u64; 4] = [0, 2, 8, 32];
/// Command-queue depths.
pub const QUEUE_DEPTH: [usize; 3] = [1, 4, 16];
/// Two-phase aggregator counts (0 = off).
pub const AGGREGATORS: [usize; 3] = [0, 4, 16];
/// Client interfaces.
pub const INTERFACE: [Interface; 3] =
    [Interface::Fortran, Interface::UnixStyle, Interface::Passion];
/// Stripe units in KB.
pub const STRIPE_KB: [u64; 3] = [32, 64, 128];
/// I/O-node counts.
pub const IO_NODES: [usize; 2] = [4, 16];

/// Points in the advisor grid.
pub const GRID_POINTS: usize = CACHE_MB.len()
    * QUEUE_DEPTH.len()
    * AGGREGATORS.len()
    * INTERFACE.len()
    * STRIPE_KB.len()
    * IO_NODES.len();

/// `n` uniform draws with replacement from the advisor grid (each knob
/// drawn independently, which is uniform over the product). Engine
/// threads stay 1: the advisor fans whole evaluations out instead.
pub fn advisor_draws(n: usize, seed: u64) -> Vec<Hints> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| Hints {
            cache_mb: CACHE_MB[rng.below(CACHE_MB.len())],
            io_queue_depth: QUEUE_DEPTH[rng.below(QUEUE_DEPTH.len())],
            aggregators: AGGREGATORS[rng.below(AGGREGATORS.len())],
            interface: INTERFACE[rng.below(INTERFACE.len())],
            stripe_unit_kb: STRIPE_KB[rng.below(STRIPE_KB.len())],
            io_nodes: IO_NODES[rng.below(IO_NODES.len())],
            threads: 1,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        let shape = TraceShape {
            ranks: 50,
            rounds: 3,
            record: 512,
        };
        assert_eq!(replay_trace(shape, 7), replay_trace(shape, 7));
        assert_ne!(replay_trace(shape, 7), replay_trace(shape, 8));
        assert_eq!(advisor_draws(500, 7), advisor_draws(500, 7));
        assert_ne!(advisor_draws(500, 7), advisor_draws(500, 8));
    }

    #[test]
    fn trace_has_the_stated_shape_and_parses() {
        let shape = TraceShape {
            ranks: 40,
            rounds: 4,
            record: 4096,
        };
        let stream = iosim_workload::parse_any(&replay_trace(shape, 3), 3).expect("trace parses");
        assert_eq!(stream.ops.len(), shape.ops());
        assert_eq!(stream.data_ops() as usize, shape.data_ops());
        assert_eq!(stream.ranks(), shape.ranks);
        assert!(stream.has_deps());
    }

    #[test]
    fn draws_cover_the_grid() {
        let mut seen = std::collections::BTreeSet::new();
        for h in advisor_draws(20_000, 1) {
            seen.insert(h.canonical().expect("draws are valid").fingerprint());
        }
        assert_eq!(seen.len(), GRID_POINTS);
        assert_eq!(GRID_POINTS, 648);
    }
}
