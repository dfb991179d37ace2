//! Striping arithmetic: mapping a file byte range onto per-I/O-node
//! contiguous runs.
//!
//! PFS and PIOFS stripe a file round-robin across the I/O nodes in units
//! of the stripe unit (PFS default 64 KB, PIOFS BSU 32 KB). Consecutive
//! stripe units land on consecutive I/O nodes; the units assigned to one
//! node are stored contiguously in that node's fragment. Hence a single
//! contiguous file request decomposes into **at most one contiguous local
//! run per I/O node**, which is what the service model books on each
//! node's disk queue.

/// Striping description of one file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Striping {
    /// Stripe unit in bytes.
    pub unit: u64,
    /// Number of I/O nodes the file is striped across (stripe factor).
    pub factor: usize,
    /// I/O node holding stripe unit 0.
    pub start_node: usize,
}

/// One contiguous run of bytes on a single I/O node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Run {
    /// The I/O node index.
    pub io_node: usize,
    /// Offset within that node's fragment of the file.
    pub local_offset: u64,
    /// Length in bytes.
    pub bytes: u64,
}

impl Striping {
    /// Create a striping; panics on degenerate parameters.
    pub fn new(unit: u64, factor: usize, start_node: usize) -> Striping {
        assert!(unit > 0, "stripe unit must be positive");
        assert!(factor > 0, "stripe factor must be positive");
        assert!(start_node < factor, "start node must be < factor");
        Striping {
            unit,
            factor,
            start_node,
        }
    }

    /// I/O node holding global stripe unit `u`.
    #[inline]
    pub fn node_of_unit(&self, u: u64) -> usize {
        ((self.start_node as u64 + u) % self.factor as u64) as usize
    }

    /// Index of global unit `u` within its node's fragment.
    #[inline]
    pub fn local_unit_index(&self, u: u64) -> u64 {
        u / self.factor as u64
    }

    /// Local fragment offset of global file offset `off`.
    #[inline]
    pub fn local_offset(&self, off: u64) -> u64 {
        let u = off / self.unit;
        self.local_unit_index(u) * self.unit + off % self.unit
    }

    /// Decompose `[offset, offset+len)` into per-node contiguous runs.
    ///
    /// Runs are returned ordered by I/O node of the first touched unit,
    /// then increasing. A zero-length request yields no runs.
    pub fn runs(&self, offset: u64, len: u64) -> Vec<Run> {
        if len == 0 {
            return Vec::new();
        }
        let first_unit = offset / self.unit;
        let last_unit = (offset + len - 1) / self.unit;
        let touched_nodes = ((last_unit - first_unit + 1) as usize).min(self.factor);
        let mut runs: Vec<Option<Run>> = vec![None; self.factor];
        // Walk the touched units of each node: they are consecutive in the
        // local fragment, so each node contributes one run. Only the first
        // `touched_nodes` nodes starting at `first_unit` participate.
        for i in 0..touched_nodes as u64 {
            let u0 = first_unit + i; // first touched unit on this node
            let node = self.node_of_unit(u0);
            // Bytes of the first touched unit on this node:
            let u0_start = (u0 * self.unit).max(offset);
            let u0_end = ((u0 + 1) * self.unit).min(offset + len);
            let mut bytes = u0_end - u0_start;
            // Subsequent units on this node: u0 + k*factor, fully or
            // partially covered.
            let mut u = u0 + self.factor as u64;
            while u <= last_unit {
                let s = u * self.unit; // always >= offset here
                let e = ((u + 1) * self.unit).min(offset + len);
                bytes += e - s;
                u += self.factor as u64;
            }
            runs[node] = Some(Run {
                io_node: node,
                local_offset: self.local_unit_index(u0) * self.unit + (u0_start - u0 * self.unit),
                bytes,
            });
        }
        runs.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosim_simkit::rng::SimRng;

    #[test]
    fn single_unit_request_hits_one_node() {
        let s = Striping::new(64, 4, 0);
        let runs = s.runs(0, 64);
        assert_eq!(
            runs,
            vec![Run {
                io_node: 0,
                local_offset: 0,
                bytes: 64
            }]
        );
    }

    #[test]
    fn request_spanning_all_nodes() {
        let s = Striping::new(64, 4, 0);
        let runs = s.runs(0, 256);
        assert_eq!(runs.len(), 4);
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(r.io_node, i);
            assert_eq!(r.local_offset, 0);
            assert_eq!(r.bytes, 64);
        }
    }

    #[test]
    fn large_request_wraps_round_robin() {
        let s = Striping::new(64, 2, 0);
        // Units 0..6: node0 gets 0,2,4 (local 0..192), node1 gets 1,3,5.
        let runs = s.runs(0, 6 * 64);
        assert_eq!(runs.len(), 2);
        assert_eq!(
            runs[0],
            Run {
                io_node: 0,
                local_offset: 0,
                bytes: 192
            }
        );
        assert_eq!(
            runs[1],
            Run {
                io_node: 1,
                local_offset: 0,
                bytes: 192
            }
        );
    }

    #[test]
    fn partial_units_at_both_ends() {
        let s = Striping::new(100, 3, 0);
        // [50, 250): 50 B of unit 0 (node 0), 100 B of unit 1 (node 1),
        // 50 B of unit 2 (node 2).
        let runs = s.runs(50, 200);
        assert_eq!(runs.len(), 3);
        assert_eq!(
            runs[0],
            Run {
                io_node: 0,
                local_offset: 50,
                bytes: 50
            }
        );
        assert_eq!(
            runs[1],
            Run {
                io_node: 1,
                local_offset: 0,
                bytes: 100
            }
        );
        assert_eq!(
            runs[2],
            Run {
                io_node: 2,
                local_offset: 0,
                bytes: 50
            }
        );
    }

    #[test]
    fn start_node_shifts_mapping() {
        let s = Striping::new(64, 4, 2);
        let runs = s.runs(0, 64);
        assert_eq!(runs[0].io_node, 2);
        let runs = s.runs(64, 64);
        assert_eq!(runs[0].io_node, 3);
        let runs = s.runs(128, 64);
        assert_eq!(runs[0].io_node, 0);
    }

    #[test]
    fn local_offset_accounts_for_round_robin() {
        let s = Striping::new(64, 4, 0);
        // Unit 4 is node 0's second unit: local offset 64.
        assert_eq!(s.local_offset(4 * 64), 64);
        assert_eq!(s.local_offset(4 * 64 + 10), 74);
    }

    #[test]
    fn zero_length_request_has_no_runs() {
        let s = Striping::new(64, 4, 0);
        assert!(s.runs(123, 0).is_empty());
    }

    #[test]
    fn mid_file_request_local_offsets() {
        let s = Striping::new(64, 2, 0);
        // Units: n0 ← 0,2,4,…  n1 ← 1,3,5,…
        // Request units 3..=4: node1 unit 3 (local idx 1), node0 unit 4
        // (local idx 2).
        let runs = s.runs(3 * 64, 128);
        assert_eq!(runs.len(), 2);
        let n0 = runs.iter().find(|r| r.io_node == 0).unwrap();
        let n1 = runs.iter().find(|r| r.io_node == 1).unwrap();
        assert_eq!(n1.local_offset, 64);
        assert_eq!(n0.local_offset, 128);
    }

    // Randomized properties: each seed draws one case from the same
    // space the properties always covered; the seed is in every message.
    const SEEDS: u64 = 256;

    #[test]
    fn runs_cover_exactly_len() {
        for seed in 0..SEEDS {
            let mut rng = SimRng::seed_from(0x1a70_0000 + seed);
            let unit = rng.range(1, 256);
            let factor = rng.range(1, 9) as usize;
            let start = rng.range(0, 8) as usize % factor;
            let offset = rng.range(0, 10_000);
            let len = rng.range(0, 10_000);
            let s = Striping::new(unit, factor, start);
            let runs = s.runs(offset, len);
            let total: u64 = runs.iter().map(|r| r.bytes).sum();
            assert_eq!(total, len, "seed {seed}: runs must cover the request");
            // At most one run per node.
            let mut nodes: Vec<usize> = runs.iter().map(|r| r.io_node).collect();
            nodes.sort_unstable();
            nodes.dedup();
            assert_eq!(nodes.len(), runs.len(), "seed {seed}: two runs on one node");
        }
    }

    #[test]
    fn adjacent_requests_have_adjacent_local_offsets() {
        // Reading [offset, offset+len) then [offset+len, …) must continue
        // each node's fragment without gaps: the second request's run on a
        // node starts exactly at the end of the first request's run when
        // that node had one ending at a unit boundary shared by both.
        for seed in 0..SEEDS {
            let mut rng = SimRng::seed_from(0x1a71_0000 + seed);
            let unit = rng.range(1, 128);
            let factor = rng.range(1, 5) as usize;
            let offset = rng.range(0, 5_000);
            let len = rng.range(1, 2_000);
            let s = Striping::new(unit, factor, 0);
            let a = s.runs(offset, len);
            let b = s.runs(offset + len, len.max(unit * factor as u64));
            for rb in &b {
                if let Some(ra) = a.iter().find(|r| r.io_node == rb.io_node) {
                    assert!(
                        rb.local_offset >= ra.local_offset,
                        "seed {seed}: fragment must move forward: {ra:?} then {rb:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn local_offset_is_monotone_per_node() {
        for seed in 0..SEEDS {
            let mut rng = SimRng::seed_from(0x1a72_0000 + seed);
            let unit = rng.range(1, 128);
            let factor = rng.range(1, 6) as usize;
            let a = rng.range(0, 100_000);
            let b = rng.range(0, 100_000);
            let s = Striping::new(unit, factor, 0);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            if s.node_of_unit(lo / unit) == s.node_of_unit(hi / unit) {
                assert!(
                    s.local_offset(lo) <= s.local_offset(hi),
                    "seed {seed}: local offset of {lo} above that of {hi}"
                );
            }
        }
    }
}
