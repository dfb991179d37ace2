//! Shard map and lookahead extraction for the parallel DES engine.
//!
//! The sharded engine (`iosim_simkit::shard`) partitions one simulated
//! machine into independent sub-simulations. The natural cut follows the
//! machine topology: each shard owns a contiguous group of compute ranks
//! plus an exclusive slice of the I/O nodes, so every node of the machine
//! belongs to exactly one shard. Conservative synchronization then gets
//! its lookahead for free from the network model: no interaction can cross
//! shards in less virtual time than the cheapest network traversal between
//! two nodes in different shards.

use crate::config::MachineConfig;
use crate::topology::Topology;
use iosim_simkit::time::SimDuration;

/// Lower bound on the engine lookahead used by sharded runs. The
/// machine-derived lookahead (tens of µs on the 1990s presets) is sound
/// but forces a synchronization round every few events; widening the
/// window only delays cross-shard dependency tokens, which travel one
/// lookahead ahead of their send time anyway, so a modest floor trades a
/// little modelled dependency latency for an order of magnitude fewer
/// rounds.
pub const LOOKAHEAD_FLOOR: SimDuration = SimDuration(200_000); // 200 µs

/// One shard of the machine: a contiguous compute-rank group and an
/// exclusive I/O-node slice.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// Shard index, `0..plan.shards.len()`.
    pub index: usize,
    /// First global compute rank owned by this shard.
    pub rank_base: usize,
    /// Number of compute ranks owned.
    pub ranks: usize,
    /// First global I/O-node index owned by this shard.
    pub io_base: usize,
    /// Number of I/O nodes owned.
    pub io_nodes: usize,
}

impl ShardSpec {
    /// Global compute ranks owned by this shard.
    pub fn rank_range(&self) -> std::ops::Range<usize> {
        self.rank_base..self.rank_base + self.ranks
    }

    /// Global I/O-node indices owned by this shard.
    pub fn io_range(&self) -> std::ops::Range<usize> {
        self.io_base..self.io_base + self.io_nodes
    }
}

/// A partition of the machine into shards, plus the conservative lookahead
/// the partition guarantees.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// The shards, covering every compute rank and I/O node exactly once.
    pub shards: Vec<ShardSpec>,
    /// Minimum network latency between any two nodes in different shards:
    /// the free lookahead for conservative cross-shard synchronization.
    /// Zero when the plan is degenerate (a single shard).
    pub lookahead: SimDuration,
}

impl ShardPlan {
    /// True when the machine cannot be partitioned (single shard): the
    /// caller should fall back to the legacy single-executor path.
    pub fn is_degenerate(&self) -> bool {
        self.shards.len() <= 1
    }
}

/// Partition a machine running `procs` compute ranks into shards, one per
/// I/O-node slice (capped at the rank count so every shard owns at least
/// one rank), and derive the conservative lookahead.
///
/// Degenerate machines — one I/O node, no I/O nodes, one rank, or a
/// network with zero cross-shard latency — produce a single-shard plan;
/// callers detect that with [`ShardPlan::is_degenerate`] and use the
/// legacy executor.
pub fn plan(cfg: &MachineConfig, procs: usize) -> ShardPlan {
    plan_with_max_shards(cfg, procs, usize::MAX)
}

/// Like [`plan`], additionally capping the shard count (used to bound the
/// number of sub-simulations to the useful worker count).
pub fn plan_with_max_shards(cfg: &MachineConfig, procs: usize, max_shards: usize) -> ShardPlan {
    let procs = procs.max(1);
    let count = procs.min(cfg.io_nodes.max(1)).min(max_shards.max(1));
    if count <= 1 {
        return single_shard(cfg, procs);
    }
    let shards: Vec<ShardSpec> = (0..count)
        .map(|index| {
            let rank_base = index * procs / count;
            let rank_end = (index + 1) * procs / count;
            let io_base = index * cfg.io_nodes / count;
            let io_end = (index + 1) * cfg.io_nodes / count;
            ShardSpec {
                index,
                rank_base,
                ranks: rank_end - rank_base,
                io_base,
                io_nodes: io_end - io_base,
            }
        })
        .collect();
    let lookahead = cross_shard_lookahead(cfg, procs, &shards);
    if lookahead == SimDuration::ZERO {
        // A zero-latency network gives no conservative window to exploit.
        return single_shard(cfg, procs);
    }
    ShardPlan { shards, lookahead }
}

fn single_shard(cfg: &MachineConfig, procs: usize) -> ShardPlan {
    ShardPlan {
        shards: vec![ShardSpec {
            index: 0,
            rank_base: 0,
            ranks: procs,
            io_base: 0,
            io_nodes: cfg.io_nodes,
        }],
        lookahead: SimDuration::ZERO,
    }
}

/// Minimum `base + per_hop × hops` over all pairs of nodes (compute or
/// I/O) that live in different shards.
fn cross_shard_lookahead(cfg: &MachineConfig, procs: usize, shards: &[ShardSpec]) -> SimDuration {
    let topo = Topology::new(cfg.mesh, cfg.io_nodes.max(1));
    // Shard id per node, compute ranks first then I/O nodes.
    let mut owner = vec![usize::MAX; procs + cfg.io_nodes];
    for s in shards {
        for r in s.rank_range() {
            owner[r] = s.index;
        }
        for io in s.io_range() {
            owner[procs + io] = s.index;
        }
    }
    let coord = |node: usize| {
        if node < procs {
            topo.compute_coord(node)
        } else {
            topo.io_coord(node - procs)
        }
    };
    let mut min_hops = u32::MAX;
    for a in 0..owner.len() {
        for b in a + 1..owner.len() {
            if owner[a] != owner[b] {
                min_hops = min_hops.min(Topology::hops(coord(a), coord(b)));
            }
        }
    }
    if min_hops == u32::MAX {
        return SimDuration::ZERO;
    }
    cfg.net.base_latency + cfg.net.per_hop_latency * min_hops as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn every_rank_and_io_node_is_assigned_exactly_once() {
        for (procs, io) in [(4usize, 4usize), (9, 4), (16, 12), (5, 3), (8, 16), (7, 7)] {
            let cfg = presets::paragon_large()
                .with_compute_nodes(procs)
                .with_io_nodes(io);
            let p = plan(&cfg, procs);
            let mut rank_owner = vec![0u32; procs];
            let mut io_owner = vec![0u32; io];
            for s in &p.shards {
                assert_eq!(s.index, p.shards.iter().position(|x| x == s).unwrap());
                for r in s.rank_range() {
                    rank_owner[r] += 1;
                }
                for i in s.io_range() {
                    io_owner[i] += 1;
                }
            }
            assert!(
                rank_owner.iter().all(|&c| c == 1),
                "procs={procs} io={io}: rank coverage {rank_owner:?}"
            );
            assert!(
                io_owner.iter().all(|&c| c == 1),
                "procs={procs} io={io}: io coverage {io_owner:?}"
            );
            // Every shard owns at least one rank and one I/O node.
            assert!(p.shards.iter().all(|s| s.ranks > 0 && s.io_nodes > 0));
        }
    }

    #[test]
    fn cross_shard_latencies_are_at_least_the_lookahead() {
        let procs = 8;
        let cfg = presets::paragon_large()
            .with_compute_nodes(procs)
            .with_io_nodes(4);
        let p = plan(&cfg, procs);
        assert!(!p.is_degenerate());
        assert!(p.lookahead > SimDuration::ZERO);
        let topo = Topology::new(cfg.mesh, cfg.io_nodes);
        // Enumerate every cross-shard node pair and check the modelled
        // latency never undercuts the extracted lookahead.
        let nodes: Vec<(usize, crate::topology::Coord)> = p
            .shards
            .iter()
            .flat_map(|s| {
                s.rank_range()
                    .map(|r| (s.index, topo.compute_coord(r)))
                    .chain(s.io_range().map(|i| (s.index, topo.io_coord(i))))
                    .collect::<Vec<_>>()
            })
            .collect();
        for (i, &(sa, ca)) in nodes.iter().enumerate() {
            for &(sb, cb) in &nodes[i + 1..] {
                if sa != sb {
                    let lat = cfg.net.base_latency
                        + cfg.net.per_hop_latency * Topology::hops(ca, cb) as u64;
                    assert!(
                        lat >= p.lookahead,
                        "cross-shard pair latency {lat:?} < lookahead {:?}",
                        p.lookahead
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_machines_fall_back_to_one_shard() {
        // One I/O node: nothing to slice.
        let cfg = presets::paragon_large()
            .with_compute_nodes(8)
            .with_io_nodes(1);
        assert!(plan(&cfg, 8).is_degenerate());
        // One rank.
        let cfg = presets::paragon_large()
            .with_compute_nodes(1)
            .with_io_nodes(8);
        assert!(plan(&cfg, 1).is_degenerate());
        // Zero-latency network: no conservative window to exploit.
        let mut cfg = presets::paragon_large()
            .with_compute_nodes(8)
            .with_io_nodes(4);
        cfg.net.base_latency = SimDuration::ZERO;
        cfg.net.per_hop_latency = SimDuration::ZERO;
        assert!(plan(&cfg, 8).is_degenerate());
        // Degenerate plans still cover everything, once.
        let p = plan(&cfg, 8);
        assert_eq!(p.shards.len(), 1);
        assert_eq!(p.shards[0].ranks, 8);
        assert_eq!(p.shards[0].io_nodes, 4);
        assert_eq!(p.lookahead, SimDuration::ZERO);
    }

    #[test]
    fn shard_count_follows_io_nodes_capped_by_ranks() {
        let cfg = presets::paragon_large()
            .with_compute_nodes(16)
            .with_io_nodes(4);
        assert_eq!(plan(&cfg, 16).shards.len(), 4);
        let cfg = presets::paragon_large()
            .with_compute_nodes(2)
            .with_io_nodes(8);
        assert_eq!(plan(&cfg, 2).shards.len(), 2);
        let cfg = presets::paragon_large()
            .with_compute_nodes(16)
            .with_io_nodes(8);
        assert_eq!(plan_with_max_shards(&cfg, 16, 3).shards.len(), 3);
    }

    #[test]
    fn lookahead_reflects_the_network_model() {
        let procs = 8;
        let cfg = presets::paragon_large()
            .with_compute_nodes(procs)
            .with_io_nodes(4);
        let p = plan(&cfg, procs);
        // Lookahead is at least the base latency (hops ≥ 0) and at least
        // one hop when the closest cross-shard pair is distinct coords.
        assert!(p.lookahead >= cfg.net.base_latency);
    }
}
