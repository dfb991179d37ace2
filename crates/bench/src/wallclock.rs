//! Wall-clock benchmark layer: `bench wallclock`.
//!
//! Times four scheduler microbenchmarks (spawn, sleep, channel, and
//! ping storms) on the `simkit` executor, the flat core structures
//! ([`crate::structs`]), the five applications and the full repro suite,
//! and emits everything as `BENCH_wallclock.json` so
//! every PR has a host-performance trajectory (paper-side motivation:
//! Kunkel et al., *Tools for Analyzing Parallel I/O* — you can't optimize
//! what you don't measure).
//!
//! Timings are machine-dependent; consumers must only compare across runs
//! on the same host and must never gate CI on them. The JSON layout is
//! validated by [`validate`], which `verify.sh` runs on both the smoke
//! output and the committed trajectory file.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use iosim_buf::tally;
use iosim_simkit::executor::Sim;
use iosim_simkit::sync::channel;
use iosim_simkit::time::SimDuration;

use crate::experiments;
use crate::parallel::{default_threads, map_parallel};
use crate::structs::{self, StructsReport};

/// One timed executor workload.
#[derive(Clone, Copy, Debug)]
pub struct StormResult {
    /// Best-of-reps host wall time.
    pub wall: Duration,
    /// Task polls the run performed (identical across reps).
    pub events: u64,
}

impl StormResult {
    /// Scheduler throughput: polls per host second.
    pub fn events_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s > 0.0 {
            self.events as f64 / s
        } else {
            0.0
        }
    }
}

/// Workload sizes for the four scheduler storms.
#[derive(Clone, Copy, Debug)]
pub struct StormConfig {
    /// spawn storm: `rounds` waves of `batch` immediately-completing tasks.
    pub spawn_rounds: usize,
    pub spawn_batch: usize,
    /// sleep storm: `tasks` tasks each sleeping `iters` times.
    pub sleep_tasks: usize,
    pub sleep_iters: usize,
    /// channel storm: `pairs` producer/consumer pairs moving `msgs` each.
    pub chan_pairs: usize,
    pub chan_msgs: usize,
    /// ping storm: `pairs` task pairs ping-ponging `rounds` round trips.
    pub ping_pairs: usize,
    pub ping_rounds: usize,
    /// Repetitions per storm; best (minimum wall time) is reported.
    pub reps: usize,
}

impl StormConfig {
    /// Full-size storms for the committed trajectory file.
    pub fn full() -> StormConfig {
        StormConfig {
            spawn_rounds: 64,
            spawn_batch: 512,
            sleep_tasks: 2048,
            sleep_iters: 64,
            chan_pairs: 256,
            chan_msgs: 512,
            ping_pairs: 64,
            ping_rounds: 1024,
            reps: 3,
        }
    }

    /// Small storms for the CI smoke gate.
    pub fn smoke() -> StormConfig {
        StormConfig {
            spawn_rounds: 8,
            spawn_batch: 64,
            sleep_tasks: 128,
            sleep_iters: 8,
            chan_pairs: 32,
            chan_msgs: 64,
            ping_pairs: 8,
            ping_rounds: 64,
            reps: 1,
        }
    }
}

/// One discarded warm-up run, then the best (minimum `wall`) of `reps`
/// runs.
pub(crate) fn best_of<T>(
    reps: usize,
    mut run: impl FnMut() -> T,
    wall: impl Fn(&T) -> Duration,
) -> T {
    let _ = run();
    let mut best = run();
    for _ in 1..reps.max(1) {
        let r = run();
        if wall(&r) < wall(&best) {
            best = r;
        }
    }
    best
}

/// Spawn storm: waves of immediately-completing tasks — stresses task
/// admission and retirement (slab alloc/free). Tasks complete by counter,
/// with a 1 ns virtual-time ladder between waves.
pub fn spawn_storm(cfg: &StormConfig) -> StormResult {
    use std::cell::Cell;
    use std::rc::Rc;
    let mut sim = Sim::new();
    let h = sim.handle();
    let done: Rc<Cell<usize>> = Rc::default();
    let done2 = Rc::clone(&done);
    let (rounds, batch) = (cfg.spawn_rounds, cfg.spawn_batch);
    sim.spawn(async move {
        for _ in 0..rounds {
            for _ in 0..batch {
                let d = Rc::clone(&done2);
                h.spawn(async move {
                    d.set(d.get() + 1);
                });
            }
            h.sleep(SimDuration::from_nanos(1)).await;
        }
    });
    let t0 = Instant::now();
    sim.run();
    let events = sim.events_processed();
    assert_eq!(done.get(), cfg.spawn_rounds * cfg.spawn_batch);
    StormResult {
        wall: t0.elapsed(),
        events,
    }
}

/// Sleep storm: many tasks ticking through staggered timers — stresses
/// the timer heap and the wake → poll round trip.
pub fn sleep_storm(cfg: &StormConfig) -> StormResult {
    let mut sim = sleep_ladder(cfg);
    let t0 = Instant::now();
    sim.run();
    StormResult {
        wall: t0.elapsed(),
        events: sim.events_processed(),
    }
}

/// The sleep storm's simulation, not yet run: task `i` sleeps
/// `(i % 7 + 1)` µs, `sleep_iters` times.
fn sleep_ladder(cfg: &StormConfig) -> Sim {
    let sim = Sim::new();
    for i in 0..cfg.sleep_tasks {
        let h = sim.handle();
        let iters = cfg.sleep_iters;
        sim.spawn(async move {
            for _ in 0..iters {
                h.sleep(SimDuration::from_micros((i % 7 + 1) as u64)).await;
            }
        });
    }
    sim
}

/// Channel storm: producer/consumer pairs where the producer paces itself
/// with a timer — stresses wake delivery and the duplicate-wake dedup.
pub fn channel_storm(cfg: &StormConfig) -> StormResult {
    let mut sim = Sim::new();
    for p in 0..cfg.chan_pairs {
        let (tx, rx) = channel::<u32>();
        let h = sim.handle();
        let msgs = cfg.chan_msgs;
        sim.spawn(async move {
            for m in 0..msgs {
                if m % 16 == 0 {
                    h.sleep(SimDuration::from_micros((p % 5 + 1) as u64)).await;
                }
                tx.send(m as u32);
            }
        });
        sim.spawn(async move {
            let mut sum = 0u64;
            while let Some(v) = rx.recv().await {
                sum += v as u64;
            }
            std::hint::black_box(sum);
        });
    }
    let t0 = Instant::now();
    sim.run();
    StormResult {
        wall: t0.elapsed(),
        events: sim.events_processed(),
    }
}

/// Ping storm: task pairs ping-ponging over a pair of channels — no
/// timers at all, so the wake -> poll round trip dominates and the storm
/// isolates raw scheduler overhead better than the others.
pub fn ping_storm(cfg: &StormConfig) -> StormResult {
    let mut sim = Sim::new();
    for _ in 0..cfg.ping_pairs {
        let (ping_tx, ping_rx) = channel::<u32>();
        let (pong_tx, pong_rx) = channel::<u32>();
        let rounds = cfg.ping_rounds;
        sim.spawn(async move {
            for i in 0..rounds {
                ping_tx.send(i as u32);
                let _ = pong_rx.recv().await;
            }
        });
        sim.spawn(async move {
            for _ in 0..rounds {
                if let Some(v) = ping_rx.recv().await {
                    pong_tx.send(v);
                }
            }
        });
    }
    let t0 = Instant::now();
    sim.run();
    StormResult {
        wall: t0.elapsed(),
        events: sim.events_processed(),
    }
}

/// One timed application run.
#[derive(Clone, Debug)]
pub struct AppTiming {
    pub name: &'static str,
    pub wall: Duration,
    pub sim_events: u64,
    pub events_per_sec: f64,
    pub virtual_exec_s: f64,
}

/// One timed repro experiment.
#[derive(Clone, Debug)]
pub struct ReproTiming {
    pub id: &'static str,
    pub wall: Duration,
    pub shape_holds: bool,
}

/// Data-plane accounting of one stored-mode application run: what the
/// `iosim_buf::tally` counters saw between reset and snapshot.
#[derive(Clone, Debug)]
pub struct DataPlaneTiming {
    pub name: &'static str,
    pub wall: Duration,
    /// Host bytes allocated into counted buffers during the run.
    pub bytes_allocated: u64,
    /// Host bytes memcpy'd between counted buffers during the run.
    pub bytes_copied: u64,
    /// Counted buffers allocated.
    pub buffers_allocated: u64,
    /// `bytes_copied` of the identical configuration on the pre-rewrite
    /// data plane (flat `Vec<u8>` payloads; recorded at commit 4962e8e).
    pub baseline_bytes_copied: u64,
}

impl DataPlaneTiming {
    /// Copy-traffic reduction vs the pre-rewrite data plane
    /// (baseline/current; a run that no longer copies at all reports
    /// the baseline count itself, i.e. "N bytes down to zero").
    pub fn copy_reduction(&self) -> f64 {
        self.baseline_bytes_copied as f64 / self.bytes_copied.max(1) as f64
    }
}

/// One timed workload-subsystem run: the committed sample trace
/// replayed in one mode, or an open-loop generator point.
#[derive(Clone, Debug)]
pub struct WorkloadTiming {
    pub name: &'static str,
    pub wall: Duration,
    /// Data operations completed in the simulation.
    pub ops: u64,
    /// Latency samples recorded. A zero here means the replay engine
    /// moved data without measuring it — the gate must catch that.
    pub lat_count: u64,
    /// p99 operation latency in virtual milliseconds.
    pub p99_ms: f64,
    /// Virtual throughput: replay ops/s, or open-loop achieved rate.
    pub achieved_ops_s: f64,
}

/// The `advisor` section: throughput of the batch what-if advisor on a
/// duplicate-heavy sweep, with and without the memo cache, plus the
/// successive-halving auto-tuner's pruning record.
#[derive(Clone, Debug)]
pub struct AdvisorTiming {
    /// Queries issued per arm (the sweep runs twice, so repeats cross
    /// batch boundaries and exercise the memo, not just in-batch dedup).
    pub queries: usize,
    /// Distinct canonical configurations in the sweep.
    pub unique: usize,
    /// Wall time of the memoized batch advisor over both passes.
    pub memo_wall: Duration,
    /// Wall time of naive per-query re-simulation (same thread budget,
    /// no dedup, no memo) over both passes.
    pub naive_wall: Duration,
    /// Memo-cache hit rate over the sweep, hits / (hits + misses).
    pub hit_rate: f64,
    /// Auto-tuner demo: distinct configurations in the tuned grid.
    pub tune_unique: usize,
    /// Configurations that got full-fidelity runs (the survivors).
    pub tune_full_evals: usize,
    /// Fraction of the grid pruned before full fidelity.
    pub pruning_ratio: f64,
    /// The halving schedule: candidate count entering each round
    /// (non-increasing; the validator enforces it).
    pub round_candidates: Vec<usize>,
    /// Whether exhaustive full-fidelity search names the same winner.
    pub winner_matches_exhaustive: bool,
}

impl AdvisorTiming {
    /// Queries per host second through the memoized advisor.
    pub fn memo_qps(&self) -> f64 {
        self.queries as f64 / self.memo_wall.as_secs_f64().max(1e-9)
    }

    /// Queries per host second through naive re-simulation.
    pub fn naive_qps(&self) -> f64 {
        self.queries as f64 / self.naive_wall.as_secs_f64().max(1e-9)
    }

    /// Throughput multiple of the memoized advisor over naive.
    pub fn speedup(&self) -> f64 {
        self.memo_qps() / self.naive_qps().max(1e-9)
    }
}

/// One workload's thread ladder in the `shard_scaling` section.
#[derive(Clone, Debug)]
pub struct ShardScalingSeries {
    pub name: &'static str,
    /// One sample per entry of [`experiments::extensions::SHARD_THREADS`],
    /// in ladder order.
    pub samples: Vec<experiments::extensions::ShardRunSample>,
}

/// One config's worker ladder in the `replay_shard_scaling` section.
#[derive(Clone, Debug)]
pub struct ReplayShardSeries {
    pub name: &'static str,
    /// One sample per entry of [`experiments::extensions::SHARD_THREADS`],
    /// in ladder order.
    pub samples: Vec<experiments::extensions::ReplayShardSample>,
}

/// The full wall-clock report.
#[derive(Clone, Debug)]
pub struct WallclockReport {
    pub smoke: bool,
    pub scale: f64,
    /// The scheduler storms by JSON key: spawn, sleep, channel, ping.
    pub microbench: [(&'static str, StormResult); 4],
    /// Per-structure microbenchmarks of the flat core data structures
    /// (DESIGN.md §19).
    pub struct_ops: StructsReport,
    pub apps: Vec<AppTiming>,
    pub data_plane: Vec<DataPlaneTiming>,
    pub workload: Vec<WorkloadTiming>,
    /// Sharded-engine thread ladder (extension 11's measurement, recorded
    /// per host). Throughput ratios are honest for `host_cores`.
    pub shard_scaling: Vec<ShardScalingSeries>,
    /// Sharded trace-replay worker ladder: adaptive vs static lookahead
    /// round counts and per-shard peak memory (the 10k-rank story).
    pub replay_shard_scaling: Vec<ReplayShardSeries>,
    /// Wide-vs-narrow decomposition of the 10k-rank replay: per-shard
    /// peak memory must track ranks-per-shard, not total ranks.
    pub replay_mem: experiments::extensions::ReplayMemScaling,
    /// Batch what-if advisor throughput + auto-tuner pruning record.
    pub advisor: AdvisorTiming,
    /// CPU cores of the host that produced the timings.
    pub host_cores: usize,
    pub repro: Vec<ReproTiming>,
    pub total_wall: Duration,
}

/// One scheduler storm at a given size.
type Storm = fn(&StormConfig) -> StormResult;

/// The scheduler storms, by JSON key, in report order.
const STORMS: [(&str, Storm); 4] = [
    ("spawn_storm", spawn_storm),
    ("sleep_storm", sleep_storm),
    ("channel_storm", channel_storm),
    ("ping_storm", ping_storm),
];

/// The five timed applications, in report order.
const APP_NAMES: [&str; 5] = ["scf11", "scf30", "fft", "btio", "ast"];

/// The workload-subsystem entries, in report order.
const WORKLOAD_NAMES: [&str; 4] = [
    "replay_direct",
    "replay_list",
    "replay_twophase",
    "openloop_poisson",
];

fn run_app_by_name(name: &str, scale: f64) -> iosim_apps::RunResult {
    use iosim_apps::{ast, btio, fft, scf11, scf30};
    match name {
        "scf11" => {
            scf11::run(&scf11::Scf11Config {
                scale,
                ..scf11::Scf11Config::new(
                    scf11::ScfInput::Small,
                    scf11::Scf11Version::PassionPrefetch,
                )
            })
            .run
        }
        "scf30" => {
            scf30::run(&scf30::Scf30Config {
                scale,
                ..scf30::Scf30Config::new(scf11::ScfInput::Small, 8, 75)
            })
            .run
        }
        "fft" => fft::run(&fft::FftConfig::new(128, 4, true)),
        "btio" => btio::run(&btio::BtioConfig {
            dumps: 2,
            ..btio::BtioConfig::new(btio::BtClass::Custom(16), 9, false)
        }),
        "ast" => ast::run(&ast::AstConfig {
            grid: 64,
            arrays: 2,
            dumps: 2,
            ..ast::AstConfig::new(4, 16, true)
        }),
        other => panic!("unknown app {other}"),
    }
}

/// Time the five applications at fixed small configurations, reporting
/// scheduler throughput (`Sim::events_processed` over host time) through
/// `RunResult::events_per_sec`. The runs are independent simulations, so
/// they spread over host threads; each entry's wall time is its own.
pub fn time_apps(scale: f64) -> Vec<AppTiming> {
    map_parallel(APP_NAMES.to_vec(), default_threads(), |&name| {
        let t0 = Instant::now();
        let r = run_app_by_name(name, scale);
        AppTiming {
            name,
            wall: t0.elapsed(),
            sim_events: r.sim_events,
            events_per_sec: r.events_per_sec(),
            virtual_exec_s: r.exec_time.as_secs_f64(),
        }
    })
}

/// Pre-rewrite `bytes_copied` of the data-plane configurations below
/// (flat `Vec<u8>` payloads and per-file byte vectors, commit 4962e8e).
/// `tests/dataplane_equivalence.rs` pins the same constants.
const DATA_PLANE_BASELINE_COPIED: [(&str, u64); 5] = [
    ("scf11", 0),
    ("scf30", 448),
    ("fft", 4194304),
    ("btio", 655360),
    ("ast", 1053952),
];

/// Run the five applications in stored mode (real bytes through the
/// whole stack) and report the `iosim_buf::tally` counters per run: how
/// many host bytes the data plane allocated and memcpy'd. The counters
/// are thread-local, so each parallel worker resets and snapshots its
/// own tally around each run.
pub fn time_data_plane() -> Vec<DataPlaneTiming> {
    use iosim_apps::{ast, btio, fft, scf11, scf30};
    map_parallel(
        DATA_PLANE_BASELINE_COPIED.to_vec(),
        default_threads(),
        |&(name, baseline_bytes_copied)| {
            tally::reset();
            let t0 = Instant::now();
            match name {
                "scf11" => {
                    scf11::run(&scf11::Scf11Config {
                        scale: 0.02,
                        ..scf11::Scf11Config::new(
                            scf11::ScfInput::Small,
                            scf11::Scf11Version::PassionPrefetch,
                        )
                    });
                }
                "scf30" => {
                    scf30::run(&scf30::Scf30Config {
                        scale: 0.02,
                        ..scf30::Scf30Config::new(scf11::ScfInput::Small, 8, 75)
                    });
                }
                "fft" => {
                    fft::run_capture(&fft::FftConfig {
                        stored: true,
                        ..fft::FftConfig::new(128, 4, true)
                    });
                }
                "btio" => {
                    btio::run_capture(&btio::BtioConfig {
                        dumps: 2,
                        stored: true,
                        ..btio::BtioConfig::new(btio::BtClass::Custom(16), 9, false)
                    });
                }
                "ast" => {
                    ast::run_capture(&ast::AstConfig {
                        grid: 64,
                        arrays: 2,
                        dumps: 2,
                        stored: true,
                        ..ast::AstConfig::new(4, 16, true)
                    });
                }
                other => panic!("unknown app {other}"),
            }
            let wall = t0.elapsed();
            let t = tally::snapshot();
            DataPlaneTiming {
                name,
                wall,
                bytes_allocated: t.bytes_allocated,
                bytes_copied: t.bytes_copied,
                buffers_allocated: t.buffers_allocated,
                baseline_bytes_copied,
            }
        },
    )
}

/// Time every experiment of the repro suite at `scale`. The experiments
/// are independent single-threaded simulations, so they spread over host
/// threads; each entry's wall time is still its own (measured inside the
/// worker), and results come back in suite order.
pub fn time_repro(scale: f64) -> Vec<ReproTiming> {
    map_parallel(experiments::IDS.to_vec(), default_threads(), |&id| {
        let t0 = Instant::now();
        let report = experiments::by_id(id, scale).expect("known id");
        ReproTiming {
            id,
            wall: t0.elapsed(),
            shape_holds: report.shape_holds(),
        }
    })
}

/// Time the workload subsystem: the committed sample op-stream trace
/// replayed in all three modes, plus one open-loop generator point.
/// Every entry must record a non-empty latency histogram — this is the
/// machine-readable half of the `verify.sh` replay smoke gate.
pub fn time_workload() -> Vec<WorkloadTiming> {
    use iosim_machine::presets;
    use iosim_workload::{parse_any, replay, run_open_loop, ReplaySpec, SynthSpec};

    const SAMPLE: &str = include_str!("../../../tests/data/sample_opstream.trace");
    let stream = parse_any(SAMPLE, 42).expect("committed sample trace parses");
    let machine = || presets::paragon_small().with_compute_nodes(stream.ranks().max(1));
    let specs: [(&str, ReplaySpec); 3] = [
        ("replay_direct", ReplaySpec::direct(machine())),
        ("replay_list", ReplaySpec::list_io(machine(), 8)),
        ("replay_twophase", ReplaySpec::two_phase(machine(), 8)),
    ];
    let mut out: Vec<WorkloadTiming> = specs
        .iter()
        .map(|(name, spec)| {
            let t0 = Instant::now();
            let rep = replay(&stream, spec);
            WorkloadTiming {
                name,
                wall: t0.elapsed(),
                ops: rep.data_ops,
                lat_count: rep.latency.count(),
                p99_ms: rep.latency.p99() as f64 / 1e6,
                achieved_ops_s: rep.ops_per_sec(),
            }
        })
        .collect();
    let t0 = Instant::now();
    let mut synth = SynthSpec::small(4.0, 42);
    synth.clients = 16;
    synth.duration = SimDuration::from_secs_f64(0.5);
    let ol = run_open_loop(&synth, &ReplaySpec::direct(presets::paragon_small()));
    out.push(WorkloadTiming {
        name: "openloop_poisson",
        wall: t0.elapsed(),
        ops: ol.completed_ops,
        lat_count: ol.latency.count(),
        p99_ms: ol.latency.p99() as f64 / 1e6,
        achieved_ops_s: ol.achieved_rate,
    });
    out
}

/// Time extension 11's shard-scaling ladder: the open-loop workload at
/// every host-thread count, in ladder order. Runs serially (not through
/// `map_parallel`) so each sample's wall time is unpolluted by sibling
/// simulations competing for the same cores.
pub fn time_shard_scaling() -> Vec<ShardScalingSeries> {
    use experiments::extensions::{run_shard_scaling_config, SHARD_SCALING_NAMES, SHARD_THREADS};
    SHARD_SCALING_NAMES
        .iter()
        .map(|&name| ShardScalingSeries {
            name,
            samples: SHARD_THREADS
                .iter()
                .map(|&t| run_shard_scaling_config(name, t))
                .collect(),
        })
        .collect()
}

/// Time the sharded-replay scaling ladder: every config at every
/// host-thread count, in ladder order, plus the wide-vs-narrow memory
/// decomposition. Serial for the same reason as [`time_shard_scaling`].
pub fn time_replay_shard_scaling(
    smoke: bool,
) -> (
    Vec<ReplayShardSeries>,
    experiments::extensions::ReplayMemScaling,
) {
    use experiments::extensions::{
        run_replay_mem_scaling, run_replay_shard_config, REPLAY_SHARD_NAMES, SHARD_THREADS,
    };
    let series = REPLAY_SHARD_NAMES
        .iter()
        .map(|&name| ReplayShardSeries {
            name,
            samples: SHARD_THREADS
                .iter()
                .map(|&t| run_replay_shard_config(name, t, smoke))
                .collect(),
        })
        .collect();
    (series, run_replay_mem_scaling(smoke))
}

/// Time the batch what-if advisor (DESIGN.md §20).
///
/// **Sweep arm** — a duplicate-heavy query mix (`n` seeded draws with
/// replacement from an 8-point synth grid, so ~⅞ of queries repeat),
/// run twice per arm so repeats also cross batch boundaries. The memo
/// arm routes through [`crate::advisor::BatchAdvisor`]; the naive arm
/// re-simulates every query through the *same* `map_parallel` fan-out,
/// so the recorded speedup isolates admission + dedup + memoization and
/// owes nothing to threading differences.
///
/// **Tune arm** — successive halving over a 16-point grid, then an
/// exhaustive full-fidelity evaluation through the same advisor (the
/// memo lets the exhaustive pass reuse the survivors' full runs) to
/// check the pruned search names the same winner.
pub fn time_advisor(smoke: bool) -> AdvisorTiming {
    use crate::advisor::{AdviseOpts, BatchAdvisor, Query};
    use iosim_apps::hinted::run_hinted;
    use iosim_core::advisor::hints::HintGrid;

    let threads = default_threads();
    let scale = 0.25;
    let sweep_grid = HintGrid {
        cache_mb: vec![0, 2],
        io_queue_depth: vec![1, 8],
        io_nodes: vec![2, 4],
        ..HintGrid::default()
    };
    let n = if smoke { 32 } else { 64 };
    let queries: Vec<Query> = sweep_grid
        .sample(n, 42)
        .into_iter()
        .map(|h| Query::new("synth", h).expect("synth is advisable"))
        .collect();

    let t0 = Instant::now();
    for _ in 0..2 {
        let _ = map_parallel(queries.clone(), threads, |q| {
            run_hinted(q.workload, &q.hints, scale)
        });
    }
    let naive_wall = t0.elapsed();

    let mut adv = BatchAdvisor::new(256, threads);
    let t0 = Instant::now();
    let warm = adv
        .evaluate(&queries, scale)
        .expect("sweep hints are valid");
    let hot = adv
        .evaluate(&queries, scale)
        .expect("sweep hints are valid");
    let memo_wall = t0.elapsed();
    assert_eq!(warm.rows.len(), hot.rows.len());
    let (hits, misses, _) = adv.memo_counters();
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;

    let tune_grid = HintGrid {
        cache_mb: vec![0, 2],
        io_queue_depth: vec![1, 8],
        io_nodes: vec![2, 4],
        stripe_unit_kb: vec![64, 256],
        ..HintGrid::default()
    };
    let mut tuner = BatchAdvisor::new(256, threads);
    let report = tuner
        .advise("synth", &tune_grid, &AdviseOpts::default())
        .expect("tune grid is valid");
    let all: Vec<Query> = tune_grid
        .enumerate()
        .into_iter()
        .map(|h| Query::new("synth", h).expect("synth is advisable"))
        .collect();
    let exhaustive = tuner.evaluate(&all, 1.0).expect("tune grid is valid");
    let winner = exhaustive
        .rows
        .iter()
        .min_by_key(|r| (r.summary.exec_ns, r.fingerprint))
        .expect("non-empty grid");
    AdvisorTiming {
        queries: 2 * n,
        unique: warm.stats.unique,
        memo_wall,
        naive_wall,
        hit_rate,
        tune_unique: report.unique,
        tune_full_evals: report.survivors.len(),
        pruning_ratio: report.pruning_ratio,
        round_candidates: report.rounds.iter().map(|r| r.candidates).collect(),
        winner_matches_exhaustive: winner.fingerprint == report.best.fingerprint
            && winner.summary == report.best.summary,
    }
}

/// Run the whole wall-clock suite.
pub fn run_suite(smoke: bool, scale: f64) -> WallclockReport {
    let cfg = if smoke {
        StormConfig::smoke()
    } else {
        StormConfig::full()
    };
    let t0 = Instant::now();
    let microbench = STORMS.map(|(name, storm)| {
        eprintln!("[wallclock] microbench: {name}");
        (name, best_of(cfg.reps, || storm(&cfg), |r| r.wall))
    });
    eprintln!("[wallclock] struct microbenchmarks");
    let struct_ops = structs::run_struct_storms(smoke);
    eprintln!("[wallclock] apps");
    let apps = time_apps(if smoke { 0.02 } else { 0.1 });
    eprintln!("[wallclock] data plane (stored-mode byte accounting)");
    let data_plane = time_data_plane();
    eprintln!("[wallclock] workload replay + open loop");
    let workload = time_workload();
    eprintln!("[wallclock] shard scaling (threads ladder)");
    let shard_scaling = time_shard_scaling();
    eprintln!("[wallclock] sharded replay scaling (10k-rank story)");
    let (replay_shard_scaling, replay_mem) = time_replay_shard_scaling(smoke);
    eprintln!("[wallclock] batch advisor (sweep + auto-tune)");
    let advisor = time_advisor(smoke);
    eprintln!("[wallclock] repro suite at scale {scale}");
    let repro = time_repro(scale);
    WallclockReport {
        smoke,
        scale,
        microbench,
        struct_ops,
        apps,
        data_plane,
        workload,
        shard_scaling,
        replay_shard_scaling,
        replay_mem,
        advisor,
        host_cores: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        repro,
        total_wall: t0.elapsed(),
    }
}

/// Render the report as the `BENCH_wallclock.json` document.
pub fn emit_json(r: &WallclockReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"iosim-bench-wallclock-v8\",");
    let _ = writeln!(out, "  \"smoke\": {},", r.smoke);
    let _ = writeln!(out, "  \"scale\": {},", r.scale);
    out.push_str("  \"microbench\": {\n");
    for (k, (name, storm)) in r.microbench.iter().enumerate() {
        let _ = writeln!(
            out,
            "    \"{name}\": {{\"wall_s\": {:.6}, \"events\": {}, \"events_per_sec\": {:.1}}}{}",
            storm.wall.as_secs_f64(),
            storm.events,
            storm.events_per_sec(),
            if k + 1 < r.microbench.len() { "," } else { "" },
        );
    }
    out.push_str("  },\n");
    out.push_str("  \"struct_ops\": {\n");
    for (name, storm) in r.struct_ops.storms() {
        let _ = writeln!(
            out,
            "    \"{name}\": {{\"wall_s\": {:.6}, \"ops\": {}, \"ops_per_sec\": {:.1}}},",
            storm.wall.as_secs_f64(),
            storm.ops,
            storm.ops_per_sec(),
        );
    }
    let _ = writeln!(
        out,
        "    \"extent_cursor_hit_rate\": {:.4}\n  }},",
        r.struct_ops.extent_cursor_hit_rate
    );
    out.push_str("  \"apps\": {\n");
    for (k, a) in r.apps.iter().enumerate() {
        let _ = writeln!(
            out,
            "    \"{}\": {{\"wall_s\": {:.6}, \"sim_events\": {}, \"events_per_sec\": {:.1}, \"virtual_exec_s\": {:.6}}}{}",
            a.name,
            a.wall.as_secs_f64(),
            a.sim_events,
            a.events_per_sec,
            a.virtual_exec_s,
            if k + 1 < r.apps.len() { "," } else { "" },
        );
    }
    out.push_str("  },\n");
    out.push_str("  \"data_plane\": {\n");
    for (k, d) in r.data_plane.iter().enumerate() {
        let _ = writeln!(
            out,
            "    \"{}\": {{\"wall_s\": {:.6}, \"bytes_allocated\": {}, \"bytes_copied\": {}, \"buffers_allocated\": {}, \"baseline_bytes_copied\": {}, \"copy_reduction\": {:.3}}}{}",
            d.name,
            d.wall.as_secs_f64(),
            d.bytes_allocated,
            d.bytes_copied,
            d.buffers_allocated,
            d.baseline_bytes_copied,
            d.copy_reduction(),
            if k + 1 < r.data_plane.len() { "," } else { "" },
        );
    }
    out.push_str("  },\n");
    out.push_str("  \"workload\": {\n");
    for (k, w) in r.workload.iter().enumerate() {
        let _ = writeln!(
            out,
            "    \"{}\": {{\"wall_s\": {:.6}, \"ops\": {}, \"lat_count\": {}, \"p99_ms\": {:.3}, \"achieved_ops_s\": {:.3}}}{}",
            w.name,
            w.wall.as_secs_f64(),
            w.ops,
            w.lat_count,
            w.p99_ms,
            w.achieved_ops_s,
            if k + 1 < r.workload.len() { "," } else { "" },
        );
    }
    out.push_str("  },\n");
    out.push_str("  \"shard_scaling\": {\n");
    let _ = writeln!(out, "    \"host_cores\": {},", r.host_cores);
    for (k, s) in r.shard_scaling.iter().enumerate() {
        let _ = writeln!(out, "    \"{}\": [", s.name);
        for (j, p) in s.samples.iter().enumerate() {
            // Fingerprints are 64-bit and exceed f64 integer precision,
            // so they travel as hex strings.
            let _ = writeln!(
                out,
                "      {{\"threads\": {}, \"wall_s\": {:.6}, \"sim_events\": {}, \"events_per_sec\": {:.1}, \"virtual_exec_s\": {:.6}, \"fingerprint\": \"{:#018x}\"}}{}",
                p.threads,
                p.wall.as_secs_f64(),
                p.sim_events,
                p.events_per_sec,
                p.virtual_exec_s,
                p.fingerprint,
                if j + 1 < s.samples.len() { "," } else { "" },
            );
        }
        let _ = writeln!(
            out,
            "    ]{}",
            if k + 1 < r.shard_scaling.len() {
                ","
            } else {
                ""
            },
        );
    }
    out.push_str("  },\n");
    out.push_str("  \"replay_shard_scaling\": {\n");
    for s in &r.replay_shard_scaling {
        let _ = writeln!(out, "    \"{}\": [", s.name);
        for (j, p) in s.samples.iter().enumerate() {
            let _ = writeln!(
                out,
                "      {{\"threads\": {}, \"wall_s\": {:.6}, \"adaptive_rounds\": {}, \"static_rounds\": {}, \"virtual_exec_s\": {:.6}, \"fingerprint\": \"{:#018x}\", \"shard_mem_peak\": {}}}{}",
                p.threads,
                p.wall.as_secs_f64(),
                p.adaptive_rounds,
                p.static_rounds,
                p.virtual_exec_s,
                p.fingerprint,
                p.shard_mem_peak,
                if j + 1 < s.samples.len() { "," } else { "" },
            );
        }
        let _ = writeln!(out, "    ],");
    }
    let m = &r.replay_mem;
    let _ = writeln!(
        out,
        "    \"mem_10k\": {{\"ranks\": {}, \"wide_shards\": {}, \"wide_peak\": {}, \"narrow_shards\": {}, \"narrow_peak\": {}}}",
        m.ranks, m.wide_shards, m.wide_peak, m.narrow_shards, m.narrow_peak,
    );
    out.push_str("  },\n");
    out.push_str("  \"advisor\": {\n");
    let a = &r.advisor;
    let _ = writeln!(
        out,
        "    \"sweep\": {{\"queries\": {}, \"unique\": {}, \"memo_wall_s\": {:.6}, \"naive_wall_s\": {:.6}, \"memo_qps\": {:.3}, \"naive_qps\": {:.3}, \"speedup\": {:.3}, \"hit_rate\": {:.4}}},",
        a.queries,
        a.unique,
        a.memo_wall.as_secs_f64(),
        a.naive_wall.as_secs_f64(),
        a.memo_qps(),
        a.naive_qps(),
        a.speedup(),
        a.hit_rate,
    );
    let rounds: Vec<String> = a.round_candidates.iter().map(usize::to_string).collect();
    let _ = writeln!(
        out,
        "    \"tune\": {{\"unique\": {}, \"full_evals\": {}, \"pruning_ratio\": {:.4}, \"round_candidates\": [{}], \"winner_matches_exhaustive\": {}}}",
        a.tune_unique,
        a.tune_full_evals,
        a.pruning_ratio,
        rounds.join(", "),
        a.winner_matches_exhaustive,
    );
    out.push_str("  },\n");
    out.push_str("  \"repro\": {\n");
    for (k, t) in r.repro.iter().enumerate() {
        let _ = writeln!(
            out,
            "    \"{}\": {{\"wall_s\": {:.6}, \"shape_holds\": {}}}{}",
            t.id,
            t.wall.as_secs_f64(),
            t.shape_holds,
            if k + 1 < r.repro.len() { "," } else { "" },
        );
    }
    out.push_str("  },\n");
    let _ = writeln!(out, "  \"total_wall_s\": {:.6}", r.total_wall.as_secs_f64());
    out.push_str("}\n");
    out
}

// ---------------------------------------------------------------------
// Minimal JSON reader for validation (the workspace builds offline with
// no external dependencies, so no serde).

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Parse a JSON document (objects, arrays, strings with simple escapes,
/// numbers, booleans, null). Sufficient for the documents this crate
/// emits; not a general-purpose parser.
pub fn parse_json(s: &str) -> Result<Json, String> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && (b[*pos] as char).is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at offset {}", c as char, pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_str(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at offset {pos}"))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at offset {start}"))
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    other => return Err(format!("unsupported escape {other:?}")),
                }
                *pos += 1;
            }
            c => {
                out.push(c as char);
                *pos += 1;
            }
        }
    }
    Err("unterminated string".into())
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let val = parse_value(b, pos)?;
        fields.push((key, val));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}")),
        }
    }
}

/// Check that a field is a sane wall time: a finite, non-negative
/// number (the emitter writes `NaN` verbatim on arithmetic bugs, which
/// the parser rejects — but a hand-edited or corrupted file can still
/// smuggle in negatives or infinities).
fn check_wall(v: Option<&Json>, what: &str) -> Result<f64, String> {
    match v {
        Some(Json::Num(n)) if n.is_finite() && *n >= 0.0 => Ok(*n),
        Some(Json::Num(n)) => Err(format!("{what}: bad wall time {n}")),
        other => Err(format!("{what}: {other:?}")),
    }
}

fn check_count(v: Option<&Json>, what: &str) -> Result<f64, String> {
    match v {
        Some(Json::Num(n)) if n.is_finite() && *n >= 0.0 && n.fract() == 0.0 => Ok(*n),
        other => Err(format!(
            "{what}: expected a non-negative integer, got {other:?}"
        )),
    }
}

/// Validate a `BENCH_wallclock.json` document: schema marker, the four
/// microbench storms, the per-structure `struct_ops` section (all three
/// structures, nonzero op counts, finite positive ops/sec, a cursor hit
/// rate in [0, 1]), all five apps, the
/// data-plane byte accounting (counters present and non-trivial), the
/// workload-subsystem section (sample-trace replays and an open-loop
/// point, each with a non-empty latency histogram), the open-loop
/// shard-scaling thread ladder (full ladder, and a deterministic
/// fingerprint: every thread count must report the same one), the
/// sharded-replay scaling section (full thread ladder per replay
/// workload with a fingerprint-uniform ladder, adaptive round counts
/// that never exceed the static ones, nonzero per-shard peak
/// memory, and a `mem_10k` scale story where the wider decomposition
/// shows the smaller worst-shard footprint), the `advisor` section
/// (positive queries/sec in both arms, a
/// memo hit rate in [0, 1], a non-increasing halving schedule with a
/// pruning ratio in [0, 1], and pruned-vs-exhaustive winner agreement),
/// and every repro suite key. All wall times must be finite and
/// non-negative. Returns a description of the first problem found.
pub fn validate(doc: &str) -> Result<(), String> {
    let v = parse_json(doc)?;
    match v.get("schema") {
        Some(Json::Str(s)) if s == "iosim-bench-wallclock-v8" => {}
        other => return Err(format!("bad schema field: {other:?}")),
    }
    let micro = v.get("microbench").ok_or("missing microbench")?;
    for (storm, _) in STORMS {
        let s = micro
            .get(storm)
            .ok_or_else(|| format!("missing microbench.{storm}"))?;
        check_wall(s.get("wall_s"), &format!("microbench.{storm}.wall_s"))?;
        for field in ["events", "events_per_sec"] {
            match s.get(field) {
                Some(Json::Num(_)) => {}
                other => return Err(format!("microbench.{storm}.{field}: {other:?}")),
            }
        }
    }
    let so = v.get("struct_ops").ok_or("missing struct_ops")?;
    for name in crate::structs::STRUCT_NAMES {
        let s = so
            .get(name)
            .ok_or_else(|| format!("missing struct_ops.{name}"))?;
        check_wall(s.get("wall_s"), &format!("struct_ops.{name}.wall_s"))?;
        if check_count(s.get("ops"), &format!("struct_ops.{name}.ops"))? == 0.0 {
            return Err(format!("struct_ops.{name}: zero operations"));
        }
        match s.get("ops_per_sec") {
            Some(Json::Num(n)) if n.is_finite() && *n > 0.0 => {}
            other => return Err(format!("struct_ops.{name}.ops_per_sec: {other:?}")),
        }
    }
    match so.get("extent_cursor_hit_rate") {
        Some(Json::Num(n)) if (0.0..=1.0).contains(n) => {}
        other => return Err(format!("struct_ops.extent_cursor_hit_rate: {other:?}")),
    }
    let apps = v.get("apps").ok_or("missing apps")?;
    for app in APP_NAMES {
        let a = apps.get(app).ok_or_else(|| format!("missing apps.{app}"))?;
        check_wall(a.get("wall_s"), &format!("apps.{app}.wall_s"))?;
    }
    let dp = v.get("data_plane").ok_or("missing data_plane")?;
    let mut total_alloc = 0.0f64;
    for app in APP_NAMES {
        let a = dp
            .get(app)
            .ok_or_else(|| format!("missing data_plane.{app}"))?;
        check_wall(a.get("wall_s"), &format!("data_plane.{app}.wall_s"))?;
        total_alloc += check_count(
            a.get("bytes_allocated"),
            &format!("data_plane.{app}.bytes_allocated"),
        )?;
        for field in ["bytes_copied", "buffers_allocated", "baseline_bytes_copied"] {
            check_count(a.get(field), &format!("data_plane.{app}.{field}"))?;
        }
        if !matches!(a.get("copy_reduction"), Some(Json::Num(n)) if n.is_finite() && *n >= 0.0) {
            return Err(format!("data_plane.{app}.copy_reduction: bad or missing"));
        }
    }
    if total_alloc == 0.0 {
        return Err("data_plane: all byte counters are zero (tally not wired?)".into());
    }
    let wl = v.get("workload").ok_or("missing workload")?;
    for name in WORKLOAD_NAMES {
        let w = wl
            .get(name)
            .ok_or_else(|| format!("missing workload.{name}"))?;
        check_wall(w.get("wall_s"), &format!("workload.{name}.wall_s"))?;
        let ops = check_count(w.get("ops"), &format!("workload.{name}.ops"))?;
        if ops == 0.0 {
            return Err(format!("workload.{name}: zero operations replayed"));
        }
        let lat = check_count(w.get("lat_count"), &format!("workload.{name}.lat_count"))?;
        if lat == 0.0 {
            return Err(format!("workload.{name}: empty latency histogram"));
        }
        for field in ["p99_ms", "achieved_ops_s"] {
            if !matches!(w.get(field), Some(Json::Num(n)) if n.is_finite() && *n >= 0.0) {
                return Err(format!("workload.{name}.{field}: bad or missing"));
            }
        }
    }
    let ss = v.get("shard_scaling").ok_or("missing shard_scaling")?;
    match ss.get("host_cores") {
        Some(Json::Num(n)) if n.is_finite() && *n >= 1.0 && n.fract() == 0.0 => {}
        other => return Err(format!("shard_scaling.host_cores: {other:?}")),
    }
    for name in experiments::extensions::SHARD_SCALING_NAMES {
        let series = match ss.get(name) {
            Some(Json::Arr(items)) => items,
            other => {
                return Err(format!(
                    "shard_scaling.{name}: expected array, got {other:?}"
                ))
            }
        };
        if series.len() != experiments::extensions::SHARD_THREADS.len() {
            return Err(format!(
                "shard_scaling.{name}: expected {} ladder points, got {}",
                experiments::extensions::SHARD_THREADS.len(),
                series.len()
            ));
        }
        let mut fingerprint: Option<&str> = None;
        for (p, want_threads) in series.iter().zip(experiments::extensions::SHARD_THREADS) {
            let what = format!("shard_scaling.{name}[threads={want_threads}]");
            match p.get("threads") {
                Some(Json::Num(n)) if *n == want_threads as f64 => {}
                other => return Err(format!("{what}.threads: {other:?}")),
            }
            check_wall(p.get("wall_s"), &format!("{what}.wall_s"))?;
            if check_count(p.get("sim_events"), &format!("{what}.sim_events"))? == 0.0 {
                return Err(format!("{what}: zero simulation events"));
            }
            for field in ["events_per_sec", "virtual_exec_s"] {
                if !matches!(p.get(field), Some(Json::Num(n)) if n.is_finite() && *n >= 0.0) {
                    return Err(format!("{what}.{field}: bad or missing"));
                }
            }
            // Determinism gate: the whole ladder must agree on one
            // fingerprint — a thread-count-dependent schedule is a bug.
            match (p.get("fingerprint"), fingerprint) {
                (Some(Json::Str(f)), None) => fingerprint = Some(f),
                (Some(Json::Str(f)), Some(first)) if f == first => {}
                (Some(Json::Str(f)), Some(first)) => {
                    return Err(format!(
                        "shard_scaling.{name}: fingerprint diverges across threads ({first} vs {f})"
                    ));
                }
                (other, _) => return Err(format!("{what}.fingerprint: {other:?}")),
            }
        }
    }
    let rss = v
        .get("replay_shard_scaling")
        .ok_or("missing replay_shard_scaling")?;
    for name in experiments::extensions::REPLAY_SHARD_NAMES {
        let series = match rss.get(name) {
            Some(Json::Arr(items)) => items,
            other => {
                return Err(format!(
                    "replay_shard_scaling.{name}: expected array, got {other:?}"
                ))
            }
        };
        if series.len() != experiments::extensions::SHARD_THREADS.len() {
            return Err(format!(
                "replay_shard_scaling.{name}: expected {} ladder points, got {}",
                experiments::extensions::SHARD_THREADS.len(),
                series.len()
            ));
        }
        let mut fingerprint: Option<&str> = None;
        for (p, want_threads) in series.iter().zip(experiments::extensions::SHARD_THREADS) {
            let what = format!("replay_shard_scaling.{name}[threads={want_threads}]");
            match p.get("threads") {
                Some(Json::Num(n)) if *n == want_threads as f64 => {}
                other => return Err(format!("{what}.threads: {other:?}")),
            }
            check_wall(p.get("wall_s"), &format!("{what}.wall_s"))?;
            let adaptive =
                check_count(p.get("adaptive_rounds"), &format!("{what}.adaptive_rounds"))?;
            let statik = check_count(p.get("static_rounds"), &format!("{what}.static_rounds"))?;
            if adaptive == 0.0 {
                return Err(format!(
                    "{what}: zero synchronization rounds (did not shard)"
                ));
            }
            // The adaptive window may only *save* rounds relative to the
            // static mesh-latency floor.
            if adaptive > statik {
                return Err(format!(
                    "{what}: adaptive lookahead cost more rounds ({adaptive}) than static ({statik})"
                ));
            }
            if !matches!(p.get("virtual_exec_s"), Some(Json::Num(n)) if n.is_finite() && *n > 0.0) {
                return Err(format!("{what}.virtual_exec_s: bad or missing"));
            }
            if check_count(p.get("shard_mem_peak"), &format!("{what}.shard_mem_peak"))? == 0.0 {
                return Err(format!("{what}: zero per-shard peak memory"));
            }
            // Determinism gate: one fingerprint across the whole ladder.
            match (p.get("fingerprint"), fingerprint) {
                (Some(Json::Str(f)), None) => fingerprint = Some(f),
                (Some(Json::Str(f)), Some(first)) if f == first => {}
                (Some(Json::Str(f)), Some(first)) => {
                    return Err(format!(
                        "replay_shard_scaling.{name}: fingerprint diverges across threads ({first} vs {f})"
                    ));
                }
                (other, _) => return Err(format!("{what}.fingerprint: {other:?}")),
            }
        }
    }
    {
        let mem = rss
            .get("mem_10k")
            .ok_or("missing replay_shard_scaling.mem_10k")?;
        let ranks = check_count(mem.get("ranks"), "replay_shard_scaling.mem_10k.ranks")?;
        if ranks < 1000.0 {
            return Err(format!(
                "replay_shard_scaling.mem_10k: scale story needs >= 1000 ranks, got {ranks}"
            ));
        }
        let wide_shards = check_count(
            mem.get("wide_shards"),
            "replay_shard_scaling.mem_10k.wide_shards",
        )?;
        let narrow_shards = check_count(
            mem.get("narrow_shards"),
            "replay_shard_scaling.mem_10k.narrow_shards",
        )?;
        if wide_shards <= narrow_shards {
            return Err(
                "replay_shard_scaling.mem_10k: wide decomposition must have more shards".into(),
            );
        }
        let wide_peak = check_count(
            mem.get("wide_peak"),
            "replay_shard_scaling.mem_10k.wide_peak",
        )?;
        let narrow_peak = check_count(
            mem.get("narrow_peak"),
            "replay_shard_scaling.mem_10k.narrow_peak",
        )?;
        if wide_peak == 0.0 || narrow_peak == 0.0 {
            return Err("replay_shard_scaling.mem_10k: zero per-shard peak memory".into());
        }
        // The scale story itself: per-shard memory tracks ranks-per-
        // shard, so spreading the same ranks over more shards must
        // shrink the worst shard.
        if wide_peak >= narrow_peak {
            return Err(format!(
                "replay_shard_scaling.mem_10k: per-shard peak does not scale with ranks-per-shard \
                 (wide {wide_peak} >= narrow {narrow_peak})"
            ));
        }
    }
    let adv = v.get("advisor").ok_or("missing advisor")?;
    {
        let sweep = adv.get("sweep").ok_or("missing advisor.sweep")?;
        for field in ["memo_wall_s", "naive_wall_s"] {
            check_wall(sweep.get(field), &format!("advisor.sweep.{field}"))?;
        }
        let queries = check_count(sweep.get("queries"), "advisor.sweep.queries")?;
        let unique = check_count(sweep.get("unique"), "advisor.sweep.unique")?;
        if queries == 0.0 || unique == 0.0 {
            return Err("advisor.sweep: empty sweep".into());
        }
        if unique > queries {
            return Err(format!(
                "advisor.sweep: {unique} unique configs exceed {queries} queries"
            ));
        }
        for field in ["memo_qps", "naive_qps", "speedup"] {
            match sweep.get(field) {
                Some(Json::Num(n)) if n.is_finite() && *n > 0.0 => {}
                other => return Err(format!("advisor.sweep.{field}: {other:?}")),
            }
        }
        match sweep.get("hit_rate") {
            Some(Json::Num(n)) if (0.0..=1.0).contains(n) => {}
            other => return Err(format!("advisor.sweep.hit_rate: {other:?}")),
        }
        let tune = adv.get("tune").ok_or("missing advisor.tune")?;
        let unique = check_count(tune.get("unique"), "advisor.tune.unique")?;
        let full = check_count(tune.get("full_evals"), "advisor.tune.full_evals")?;
        if full > unique {
            return Err(format!(
                "advisor.tune: {full} full evaluations exceed {unique} unique configs"
            ));
        }
        match tune.get("pruning_ratio") {
            Some(Json::Num(n)) if (0.0..=1.0).contains(n) => {}
            other => return Err(format!("advisor.tune.pruning_ratio: {other:?}")),
        }
        // The halving schedule can only shrink: a growing candidate
        // count means the tuner re-admitted pruned configurations.
        let rounds = match tune.get("round_candidates") {
            Some(Json::Arr(items)) if !items.is_empty() => items,
            other => return Err(format!("advisor.tune.round_candidates: {other:?}")),
        };
        let mut prev = f64::INFINITY;
        for (i, r) in rounds.iter().enumerate() {
            let c = check_count(Some(r), &format!("advisor.tune.round_candidates[{i}]"))?;
            if c == 0.0 || c > prev {
                return Err(format!(
                    "advisor.tune.round_candidates: not monotone non-increasing at [{i}]"
                ));
            }
            prev = c;
        }
        match tune.get("winner_matches_exhaustive") {
            Some(Json::Bool(true)) => {}
            other => {
                return Err(format!(
                    "advisor.tune.winner_matches_exhaustive: {other:?} (pruned search must agree with exhaustive)"
                ))
            }
        }
    }
    let repro = v.get("repro").ok_or("missing repro")?;
    for id in experiments::IDS {
        let e = repro.get(id).ok_or_else(|| format!("missing repro.{id}"))?;
        check_wall(e.get("wall_s"), &format!("repro.{id}.wall_s"))?;
    }
    check_wall(v.get("total_wall_s"), "total_wall_s")?;
    Ok(())
}

/// Human-readable summary printed after a run.
pub fn render_summary(r: &WallclockReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "wall-clock suite ({} mode, repro scale {}):",
        if r.smoke { "smoke" } else { "full" },
        r.scale
    );
    for (name, storm) in &r.microbench {
        let _ = writeln!(out, "  {name:>14}: {:>10.0} ev/s", storm.events_per_sec());
    }
    out.push_str(&structs::render_summary(&r.struct_ops));
    for a in &r.apps {
        let _ = writeln!(
            out,
            "  app {:>10}: {:>8.1} ms host, {:>7} polls, {:>10.0} ev/s",
            a.name,
            a.wall.as_secs_f64() * 1e3,
            a.sim_events,
            a.events_per_sec,
        );
    }
    for d in &r.data_plane {
        let _ = writeln!(
            out,
            "  data plane {:>7}: {:>9} B alloc, {:>9} B copied (was {:>9} B -> {:.1}x less)",
            d.name,
            d.bytes_allocated,
            d.bytes_copied,
            d.baseline_bytes_copied,
            d.copy_reduction(),
        );
    }
    for w in &r.workload {
        let _ = writeln!(
            out,
            "  workload {:>16}: {:>7.1} ms host, {:>5} ops, p99 {:>8.1} ms, {:>7.1} ops/s",
            w.name,
            w.wall.as_secs_f64() * 1e3,
            w.ops,
            w.p99_ms,
            w.achieved_ops_s,
        );
    }
    let _ = writeln!(out, "  shard scaling ({}-core host):", r.host_cores);
    for s in &r.shard_scaling {
        let cells: Vec<String> = s
            .samples
            .iter()
            .map(|p| format!("{}t {:.0} ev/s", p.threads, p.events_per_sec))
            .collect();
        let _ = writeln!(out, "    {:>18}: {}", s.name, cells.join(", "));
    }
    let _ = writeln!(out, "  sharded replay scaling:");
    for s in &r.replay_shard_scaling {
        let cells: Vec<String> = s
            .samples
            .iter()
            .map(|p| {
                format!(
                    "{}t {:.0} ms ({}/{} rounds)",
                    p.threads,
                    p.wall.as_secs_f64() * 1e3,
                    p.adaptive_rounds,
                    p.static_rounds,
                )
            })
            .collect();
        let _ = writeln!(out, "    {:>18}: {}", s.name, cells.join(", "));
    }
    let m = &r.replay_mem;
    let _ = writeln!(
        out,
        "    mem @ {} ranks: {} shards peak {:.1} KiB vs {} shards peak {:.1} KiB",
        m.ranks,
        m.wide_shards,
        m.wide_peak as f64 / 1024.0,
        m.narrow_shards,
        m.narrow_peak as f64 / 1024.0,
    );
    let _ = writeln!(
        out,
        "  advisor sweep: {:.0} q/s memoized vs {:.0} q/s naive ({:.1}x, hit rate {:.0}%)",
        r.advisor.memo_qps(),
        r.advisor.naive_qps(),
        r.advisor.speedup(),
        r.advisor.hit_rate * 100.0,
    );
    let _ = writeln!(
        out,
        "  advisor tune: {} configs -> {} full runs ({:.0}% pruned, winner {})",
        r.advisor.tune_unique,
        r.advisor.tune_full_evals,
        r.advisor.pruning_ratio * 100.0,
        if r.advisor.winner_matches_exhaustive {
            "matches exhaustive"
        } else {
            "DIVERGES from exhaustive"
        },
    );
    let repro_total: f64 = r.repro.iter().map(|t| t.wall.as_secs_f64()).sum();
    let holds = r.repro.iter().filter(|t| t.shape_holds).count();
    let _ = writeln!(
        out,
        "  repro suite: {:.1} s host over {} experiments ({} shapes hold)",
        repro_total,
        r.repro.len(),
        holds,
    );
    let _ = writeln!(out, "  total: {:.1} s", r.total_wall.as_secs_f64());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosim_simkit::time::SimTime;

    fn tiny() -> StormConfig {
        StormConfig {
            spawn_rounds: 2,
            spawn_batch: 8,
            sleep_tasks: 8,
            sleep_iters: 3,
            chan_pairs: 4,
            chan_msgs: 20,
            ping_pairs: 2,
            ping_rounds: 8,
            reps: 1,
        }
    }

    #[test]
    fn storms_run() {
        let cfg = tiny();
        assert!(spawn_storm(&cfg).events >= 16);
        assert!(sleep_storm(&cfg).events >= 24);
        assert!(channel_storm(&cfg).events > 0);
        assert!(ping_storm(&cfg).events > 0);
    }

    #[test]
    fn sleep_storm_ends_at_the_longest_ladder() {
        // Task i sleeps (i % 7 + 1) µs, `iters` times, with no contention:
        // the run ends when the slowest task's ladder does.
        let cfg = tiny();
        let longest = (0..cfg.sleep_tasks)
            .map(|i| cfg.sleep_iters as u64 * (i % 7 + 1) as u64)
            .max()
            .expect("at least one task");
        assert_eq!(
            sleep_ladder(&cfg).run(),
            SimTime::ZERO + SimDuration::from_micros(longest)
        );
    }

    #[test]
    fn json_roundtrip_and_validation() {
        let report = run_suite(true, 0.02);
        let doc = emit_json(&report);
        validate(&doc).expect("emitted document validates");
        // Spot-check the parser end-to-end.
        let v = parse_json(&doc).unwrap();
        assert_eq!(v.get("smoke"), Some(&Json::Bool(true)));
        assert!(matches!(
            v.get("microbench").and_then(|m| m.get("spawn_storm")),
            Some(Json::Obj(_))
        ));
    }

    #[test]
    fn validate_rejects_missing_keys() {
        assert!(validate("{}").is_err());
        // Old schema generations are rejected outright.
        assert!(validate("{\"schema\": \"iosim-bench-wallclock-v1\"}").is_err());
        assert!(validate("{\"schema\": \"iosim-bench-wallclock-v2\"}").is_err());
        assert!(validate("{\"schema\": \"iosim-bench-wallclock-v3\"}").is_err());
        assert!(validate("{\"schema\": \"iosim-bench-wallclock-v4\"}").is_err());
        assert!(validate("{\"schema\": \"iosim-bench-wallclock-v5\"}").is_err());
        assert!(validate("{\"schema\": \"iosim-bench-wallclock-v6\"}").is_err());
        assert!(validate("{\"schema\": \"iosim-bench-wallclock-v7\"}").is_err());
        // Current schema but no sections.
        assert!(validate("{\"schema\": \"iosim-bench-wallclock-v8\"}").is_err());
        assert!(parse_json("{bad").is_err());
    }

    #[test]
    fn validate_rejects_empty_latency_histogram() {
        let report = run_suite(true, 0.02);
        let doc = emit_json(&report);
        let direct = report
            .workload
            .iter()
            .find(|w| w.name == "replay_direct")
            .expect("replay_direct present");
        assert!(direct.lat_count > 0);
        let broken = doc.replacen(
            &format!("\"lat_count\": {}", direct.lat_count),
            "\"lat_count\": 0",
            1,
        );
        assert!(validate(&broken)
            .unwrap_err()
            .contains("empty latency histogram"));
    }

    #[test]
    fn workload_section_replays_the_committed_sample() {
        let wl = time_workload();
        assert_eq!(wl.len(), WORKLOAD_NAMES.len());
        for (w, name) in wl.iter().zip(WORKLOAD_NAMES) {
            assert_eq!(w.name, name);
            assert!(w.lat_count > 0, "{name}: empty latency histogram");
            assert!(w.achieved_ops_s > 0.0, "{name}: no throughput");
        }
        // The three replay modes move the same committed trace: same op
        // count each, and the sample has 14 data ops.
        assert!(wl[..3].iter().all(|w| w.ops == 14));
    }

    #[test]
    fn validate_rejects_bad_wall_times_and_empty_data_plane() {
        let report = run_suite(true, 0.02);
        let doc = emit_json(&report);
        // Negative wall time anywhere must fail.
        let negated = doc.replacen("\"total_wall_s\": ", "\"total_wall_s\": -", 1);
        assert!(validate(&negated).unwrap_err().contains("total_wall_s"));
        // A data plane whose counters are all zero means the tally isn't
        // wired through the stack — the smoke gate must catch that.
        let mut zeroed = doc.clone();
        for d in &report.data_plane {
            zeroed = zeroed.replace(
                &format!("\"bytes_allocated\": {}", d.bytes_allocated),
                "\"bytes_allocated\": 0",
            );
        }
        assert!(validate(&zeroed).unwrap_err().contains("data_plane"));
        // A shard-scaling ladder whose fingerprint changes with the
        // thread count means the parallel engine is non-deterministic.
        let fp = report.shard_scaling[0].samples[0].fingerprint;
        let tampered = doc.replacen(
            &format!("\"fingerprint\": \"{fp:#018x}\""),
            &format!("\"fingerprint\": \"{:#018x}\"", fp ^ 1),
            1,
        );
        assert!(validate(&tampered)
            .unwrap_err()
            .contains("fingerprint diverges"));
    }

    #[test]
    fn validate_rejects_tampered_advisor_section() {
        let report = run_suite(true, 0.02);
        let doc = emit_json(&report);
        // Hit rate outside [0, 1].
        let tampered = doc.replacen(
            &format!("\"hit_rate\": {:.4}", report.advisor.hit_rate),
            "\"hit_rate\": 1.5",
            1,
        );
        assert!(validate(&tampered).unwrap_err().contains("hit_rate"));
        // Negative wall time in the sweep.
        let tampered = doc.replacen("\"memo_wall_s\": ", "\"memo_wall_s\": -", 1);
        assert!(validate(&tampered).unwrap_err().contains("memo_wall_s"));
        // A growing halving schedule (pruned configs re-admitted).
        let rounds: Vec<String> = report
            .advisor
            .round_candidates
            .iter()
            .map(usize::to_string)
            .collect();
        let grown = {
            let mut r = report.advisor.round_candidates.clone();
            let last = *r.last().unwrap();
            r.push(last + 1);
            r.iter().map(usize::to_string).collect::<Vec<_>>()
        };
        let tampered = doc.replacen(
            &format!("\"round_candidates\": [{}]", rounds.join(", ")),
            &format!("\"round_candidates\": [{}]", grown.join(", ")),
            1,
        );
        assert!(validate(&tampered)
            .unwrap_err()
            .contains("round_candidates"));
        // A pruned winner that diverges from exhaustive search.
        let tampered = doc.replacen(
            "\"winner_matches_exhaustive\": true",
            "\"winner_matches_exhaustive\": false",
            1,
        );
        assert!(validate(&tampered)
            .unwrap_err()
            .contains("winner_matches_exhaustive"));
    }

    #[test]
    fn data_plane_counters_show_the_rewrite() {
        let dp = time_data_plane();
        assert_eq!(dp.len(), 5);
        let by_name = |n: &str| dp.iter().find(|d| d.name == n).expect("app present");
        // FFT and BTIO move real payloads; the shared-buffer data plane
        // must at least halve their memcpy traffic vs the recorded
        // pre-rewrite baselines.
        for app in ["fft", "btio"] {
            let d = by_name(app);
            assert!(
                d.bytes_copied * 2 <= d.baseline_bytes_copied,
                "{app}: copied {} vs baseline {}",
                d.bytes_copied,
                d.baseline_bytes_copied
            );
        }
        assert!(by_name("fft").bytes_allocated > 0);
    }

    #[test]
    fn parser_handles_basics() {
        assert_eq!(parse_json("null").unwrap(), Json::Null);
        assert_eq!(
            parse_json(" [1, 2.5, -3e2] ").unwrap(),
            Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Num(-300.0)])
        );
        let obj = parse_json("{\"a\": {\"b\": [true, false]}}").unwrap();
        assert_eq!(
            obj.get("a").and_then(|a| a.get("b")),
            Some(&Json::Arr(vec![Json::Bool(true), Json::Bool(false)]))
        );
    }
}
