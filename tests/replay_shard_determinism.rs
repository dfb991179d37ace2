//! Cross-thread determinism stress suite for the sharded engine's two
//! entry points: trace replay and the open-loop generator.
//!
//! The contract follows DESIGN.md §18's partitioned-model caveat: the shard
//! decomposition is fixed by the machine topology, so every worker
//! count must produce bit-identical virtual times, latency
//! distributions, and schedule fingerprints — and a degenerate plan
//! (single I/O node) must reproduce the monolithic oracle exactly,
//! which keeps the monolithic engine the pinned reference. Cross-rank
//! `<-dep` edges in the op-stream trace become cross-shard dependency
//! tokens sent through the engine outbox, so this suite is the end-to-end
//! check that the token protocol preserves one schedule at every
//! thread count.
//!
//! Three repetitions per (trace, mode, workers) point matter: a racy
//! mailbox or a lookahead undercut would pass a single comparison with
//! high probability and still trip here.

use iosim::machine::presets;
use iosim::machine::MachineConfig;
use iosim::simkit::time::SimDuration;
use iosim::workload::{
    parse_any, replay, replay_threaded, replay_threaded_static, run_open_loop,
    run_open_loop_threaded, OpStream, OpenLoopReport, ReplayMode, ReplayReport, ReplaySpec,
    SynthSpec,
};

const REPS: usize = 3;
const WORKER_LADDER: [usize; 2] = [2, 4];

/// Legacy 4-column trace: no dependency edges, dep-free fast path.
const LEGACY: &str = include_str!("data/sample_legacy.trace");
/// Extended op-stream trace with cross-rank `<-dep` edges.
const OPSTREAM: &str = include_str!("data/sample_opstream.trace");

fn parse(text: &str) -> OpStream {
    parse_any(text, 42).expect("committed sample trace parses")
}

fn modes() -> [(&'static str, ReplayMode); 3] {
    [
        ("direct", ReplayMode::Direct),
        ("list", ReplayMode::ListIo { batch: 32 }),
        ("twophase", ReplayMode::TwoPhase { window: 32 }),
    ]
}

fn spec_on(machine: MachineConfig, mode: ReplayMode) -> ReplaySpec {
    match mode {
        ReplayMode::Direct => ReplaySpec::direct(machine),
        ReplayMode::ListIo { batch } => ReplaySpec::list_io(machine, batch),
        ReplayMode::TwoPhase { window } => ReplaySpec::two_phase(machine, window),
    }
}

/// SP-2 preset: 4 I/O nodes, so the 4-rank sample traces decompose
/// into a real multi-shard plan.
fn sharded_spec(mode: ReplayMode) -> ReplaySpec {
    spec_on(presets::sp2(), mode)
}

fn assert_matches(tag: &str, r: &ReplayReport, oracle: &ReplayReport) {
    assert_eq!(
        r.stats.exec_time, oracle.stats.exec_time,
        "{tag}: exec_time diverged from the oracle"
    );
    assert_eq!(r.stats.io_time, oracle.stats.io_time, "{tag}: io_time");
    assert_eq!(
        r.stats.cum_io_time, oracle.stats.cum_io_time,
        "{tag}: cumulative io_time"
    );
    assert_eq!(r.stats.io_bytes, oracle.stats.io_bytes, "{tag}: io_bytes");
    assert_eq!(r.stats.io_ops, oracle.stats.io_ops, "{tag}: io_ops");
    assert_eq!(
        r.stats.sched_fingerprint, oracle.stats.sched_fingerprint,
        "{tag}: schedule fingerprint"
    );
    assert_eq!(
        r.latency.render_line(),
        oracle.latency.render_line(),
        "{tag}: latency distribution"
    );
    assert_eq!(r.data_ops, oracle.data_ops, "{tag}: data op count");
    assert_eq!(r.data_bytes, oracle.data_bytes, "{tag}: data bytes");
}

fn assert_trace_is_worker_invariant(name: &str, text: &str) {
    let stream = parse(text);
    for (mode_name, mode) in modes() {
        // The single-worker run of the *sharded* engine is the oracle:
        // same shard decomposition, no host parallelism.
        let oracle = replay_threaded(&stream, &sharded_spec(mode), 1);
        assert!(
            oracle.stats.sync_rounds > 0,
            "{name} mode={mode_name}: sample trace must actually shard on SP-2"
        );
        for workers in WORKER_LADDER {
            for rep in 0..REPS {
                let tag = format!("{name} mode={mode_name} workers={workers} rep={rep}");
                let r = replay_threaded(&stream, &sharded_spec(mode), workers);
                assert_matches(&tag, &r, &oracle);
                assert_eq!(
                    r.stats.sync_rounds, oracle.stats.sync_rounds,
                    "{tag}: adaptive round count must be worker-count-invariant"
                );
                // The static-lookahead engine runs the same schedule
                // through more synchronization rounds — virtual
                // observables must not care.
                let s = replay_threaded_static(&stream, &sharded_spec(mode), workers);
                assert_matches(&format!("{tag} (static)"), &s, &oracle);
                assert!(
                    r.stats.sync_rounds <= s.stats.sync_rounds,
                    "{tag}: adaptive lookahead used more rounds ({}) than static ({})",
                    r.stats.sync_rounds,
                    s.stats.sync_rounds
                );
            }
        }
    }
}

#[test]
fn legacy_trace_replay_is_worker_count_invariant() {
    assert_trace_is_worker_invariant("legacy", LEGACY);
}

#[test]
fn opstream_trace_replay_is_worker_count_invariant() {
    assert_trace_is_worker_invariant("opstream", OPSTREAM);
}

#[test]
fn degenerate_plan_matches_the_monolithic_oracle_exactly() {
    // One I/O node ⇒ single-shard plan ⇒ the threaded entry must fall
    // back to the monolithic engine bit for bit (zero sync rounds, no
    // per-shard memory accounting), at every requested worker count.
    for (name, text) in [("legacy", LEGACY), ("opstream", OPSTREAM)] {
        let stream = parse(text);
        for (mode_name, mode) in modes() {
            let machine = presets::sp2().with_io_nodes(1);
            let oracle = replay(&stream, &spec_on(machine.clone(), mode));
            for workers in [1, 2, 4] {
                let r = replay_threaded(&stream, &spec_on(machine.clone(), mode), workers);
                let tag = format!("{name} mode={mode_name} workers={workers} (degenerate)");
                assert_matches(&tag, &r, &oracle);
                assert_eq!(
                    r.stats.sync_rounds, 0,
                    "{tag}: degenerate plan must not shard"
                );
                assert!(r.stats.shard_mem.is_empty(), "{tag}: no shard accounting");
            }
        }
    }
}

#[test]
fn dep_free_trace_collapses_to_two_rounds() {
    // The legacy trace has no cross-rank edges, so every shard promises
    // "never sends" at build time and the adaptive window runs to the
    // horizon immediately: the whole replay costs at most two rounds,
    // where the static engine needs one round per lookahead window.
    let stream = parse(LEGACY);
    for workers in WORKER_LADDER {
        let adaptive = replay_threaded(&stream, &sharded_spec(ReplayMode::Direct), workers);
        let fixed = replay_threaded_static(&stream, &sharded_spec(ReplayMode::Direct), workers);
        assert!(
            adaptive.stats.sync_rounds <= 2,
            "dep-free replay should finish in <= 2 rounds, took {}",
            adaptive.stats.sync_rounds
        );
        assert!(
            fixed.stats.sync_rounds > adaptive.stats.sync_rounds,
            "static lookahead should need more rounds ({} vs {})",
            fixed.stats.sync_rounds,
            adaptive.stats.sync_rounds
        );
    }
}

#[test]
fn sharded_replay_accounts_per_shard_memory() {
    // Sharded runs charge per-shard footprints; the monolithic oracle
    // reports none. Peak is the worst single shard, so spreading the
    // same trace over more shards (4 I/O nodes vs 2) must not raise it.
    let stream = parse(OPSTREAM);
    let mono = replay(&stream, &sharded_spec(ReplayMode::Direct));
    assert!(mono.stats.shard_mem.is_empty());
    let wide = replay_threaded(&stream, &sharded_spec(ReplayMode::Direct), 4);
    let narrow = replay_threaded(
        &stream,
        &spec_on(presets::sp2().with_io_nodes(2), ReplayMode::Direct),
        4,
    );
    assert!(wide.stats.shard_mem.peak > 0);
    assert!(narrow.stats.shard_mem.peak > 0);
    assert!(
        wide.stats.shard_mem.peak < narrow.stats.shard_mem.peak,
        "per-shard peak must track ranks-per-shard ({} vs {})",
        wide.stats.shard_mem.peak,
        narrow.stats.shard_mem.peak
    );
}

/// The ext10 overload population at a mid-ladder rate: 24 clients on the
/// small Paragon's 2 I/O nodes, a 2-shard plan.
fn overload_synth() -> SynthSpec {
    let mut synth = SynthSpec::small(4.0, 4242);
    synth.clients = 24;
    synth.duration = SimDuration::from_secs_f64(2.0);
    synth.op_bytes = 32 << 10;
    synth.fragments = 4;
    synth.files = 2;
    synth.file_bytes = 8 << 20;
    synth
}

fn assert_open_loop_matches(tag: &str, r: &OpenLoopReport, oracle: &OpenLoopReport) {
    assert_eq!(
        r.stats.exec_time, oracle.stats.exec_time,
        "{tag}: exec_time diverged from the oracle"
    );
    assert_eq!(r.stats.io_time, oracle.stats.io_time, "{tag}: io_time");
    assert_eq!(
        r.stats.cum_io_time, oracle.stats.cum_io_time,
        "{tag}: cumulative io_time"
    );
    assert_eq!(r.stats.io_bytes, oracle.stats.io_bytes, "{tag}: io_bytes");
    assert_eq!(r.stats.io_ops, oracle.stats.io_ops, "{tag}: io_ops");
    assert_eq!(r.stats.sim_events, oracle.stats.sim_events, "{tag}: polls");
    assert_eq!(
        r.stats.sched_fingerprint, oracle.stats.sched_fingerprint,
        "{tag}: schedule fingerprint"
    );
    assert_eq!(
        r.latency.render_line(),
        oracle.latency.render_line(),
        "{tag}: latency distribution"
    );
    assert_eq!(r.offered_ops, oracle.offered_ops, "{tag}: offered ops");
    assert_eq!(
        r.completed_ops, oracle.completed_ops,
        "{tag}: completed ops"
    );
}

#[test]
fn open_loop_is_worker_count_invariant() {
    let synth = overload_synth();
    for (mode_name, mode) in modes() {
        let spec = spec_on(presets::paragon_small(), mode);
        let oracle = run_open_loop_threaded(&synth, &spec, 1);
        assert!(
            oracle.stats.sync_rounds > 0,
            "open-loop mode={mode_name}: population must actually shard on paragon-small"
        );
        for workers in WORKER_LADDER {
            for rep in 0..REPS {
                let tag = format!("open-loop mode={mode_name} workers={workers} rep={rep}");
                let r = run_open_loop_threaded(&synth, &spec, workers);
                assert_open_loop_matches(&tag, &r, &oracle);
                assert_eq!(
                    r.stats.sync_rounds, oracle.stats.sync_rounds,
                    "{tag}: adaptive round count must be worker-count-invariant"
                );
            }
        }
    }
}

#[test]
fn degenerate_open_loop_plan_matches_the_monolithic_oracle_exactly() {
    let synth = overload_synth();
    for (mode_name, mode) in modes() {
        let machine = presets::paragon_small().with_io_nodes(1);
        let oracle = run_open_loop(&synth, &spec_on(machine.clone(), mode));
        for workers in [1, 2, 4] {
            let r = run_open_loop_threaded(&synth, &spec_on(machine.clone(), mode), workers);
            let tag = format!("open-loop mode={mode_name} workers={workers} (degenerate)");
            assert_open_loop_matches(&tag, &r, &oracle);
            assert_eq!(
                r.stats.sync_rounds, 0,
                "{tag}: degenerate plan must not shard"
            );
            assert!(r.stats.shard_mem.is_empty(), "{tag}: no shard accounting");
        }
    }
}
