//! Property test for cross-shard dependency-token ordering in sharded
//! trace replay.
//!
//! The committed sample traces exercise a handful of hand-picked
//! `<-dep` edges; this test generates dep-chain-heavy topologies from
//! seeded [`SimRng`] draws — every failure reproducible from the seed
//! in the assertion message — and checks the two properties the token
//! protocol must hold under arbitrary edge patterns:
//!
//! * **worker invariance**: virtual times, fingerprints, latency
//!   distributions, and adaptive round counts are bit-identical at
//!   workers {1, 2, 4} (the single-worker sharded run is the oracle);
//! * **adaptive ≤ static**: the adaptive lookahead window never costs
//!   more synchronization rounds than the static one, and both agree on
//!   every virtual observable.
//!
//! Topologies are built to *stress* the cross-shard path: ranks map
//! round-robin onto the SP-2 preset's 4 I/O-node shards, and every dep
//! edge points at a label owned by a different rank, so nearly all of
//! them become dep tokens sent through the engine outbox.

use iosim_machine::presets;
use iosim_simkit::rng::SimRng;
use iosim_workload::{
    parse_opstream, replay_threaded, replay_threaded_static, OpStream, ReplaySpec,
};

/// Seeds per property; each seed is an independent random topology.
const SEEDS: u64 = 6;

/// Generate a dep-chain-heavy op stream: `ranks` ranks, each emitting
/// labelled writes, with most later operations waiting on a label some
/// *other* rank already produced. Emission is a single global sequence,
/// so every edge points backwards — the stream is acyclic by
/// construction.
fn dep_heavy_stream(rng: &mut SimRng, ranks: usize) -> OpStream {
    let mut text = String::new();
    for r in 0..ranks {
        text.push_str(&format!("{r} open shared.dat\n"));
    }
    // (label, owner rank) of every write emitted so far.
    let mut labels: Vec<(String, usize)> = Vec::new();
    let steps = 24 + rng.range(0, 25);
    for step in 0..steps {
        let r = rng.range(0, ranks as u64) as usize;
        let off = rng.range(0, 64) * 16_384;
        // Three-quarters of eligible ops pick a foreign dependency.
        let dep = {
            let foreign: Vec<&(String, usize)> =
                labels.iter().filter(|(_, owner)| *owner != r).collect();
            if !foreign.is_empty() && rng.range(0, 4) > 0 {
                let pick = rng.range(0, foreign.len() as u64) as usize;
                format!(" <-{}", foreign[pick].0)
            } else {
                String::new()
            }
        };
        if rng.range(0, 2) == 0 {
            let label = format!("s{step}");
            text.push_str(&format!("{r} write shared.dat {off} 16384 @{label}{dep}\n"));
            labels.push((label, r));
        } else {
            text.push_str(&format!("{r} read shared.dat {off} 4096{dep}\n"));
        }
    }
    for r in 0..ranks {
        text.push_str(&format!("{r} close shared.dat\n"));
    }
    parse_opstream(&text).expect("generated stream parses")
}

#[test]
fn dep_heavy_replay_is_worker_invariant_across_seeded_topologies() {
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from(0xdec0_0000 + seed);
        let ranks = 4 + 2 * rng.range(0, 3) as usize; // 4, 6, or 8
        let stream = dep_heavy_stream(&mut rng, ranks);
        assert!(stream.has_deps(), "seed {seed}: generator lost its edges");
        for spec in [
            ReplaySpec::direct(presets::sp2()),
            ReplaySpec::list_io(presets::sp2(), 8),
        ] {
            let oracle = replay_threaded(&stream, &spec, 1);
            assert!(
                oracle.stats.sync_rounds > 0,
                "seed {seed}: topology must actually shard"
            );
            for workers in [2, 4] {
                let r = replay_threaded(&stream, &spec, workers);
                let tag = format!(
                    "seed {seed} ranks={ranks} workers={workers} {:?}",
                    spec.mode
                );
                assert_eq!(
                    r.stats.sched_fingerprint, oracle.stats.sched_fingerprint,
                    "{tag}: fingerprint diverged"
                );
                assert_eq!(
                    r.stats.exec_time, oracle.stats.exec_time,
                    "{tag}: exec_time"
                );
                assert_eq!(r.stats.io_bytes, oracle.stats.io_bytes, "{tag}: io_bytes");
                assert_eq!(r.stats.io_ops, oracle.stats.io_ops, "{tag}: io_ops");
                assert_eq!(
                    r.stats.sync_rounds, oracle.stats.sync_rounds,
                    "{tag}: round count"
                );
                assert_eq!(
                    r.latency.render_line(),
                    oracle.latency.render_line(),
                    "{tag}: latency distribution"
                );

                let s = replay_threaded_static(&stream, &spec, workers);
                assert_eq!(
                    s.stats.sched_fingerprint, oracle.stats.sched_fingerprint,
                    "{tag}: static engine fingerprint diverged"
                );
                assert_eq!(
                    s.stats.exec_time, oracle.stats.exec_time,
                    "{tag}: static engine exec_time diverged"
                );
                assert!(
                    oracle.stats.sync_rounds <= s.stats.sync_rounds,
                    "{tag}: adaptive used more rounds ({}) than static ({})",
                    oracle.stats.sync_rounds,
                    s.stats.sync_rounds
                );
            }
        }
    }
}
