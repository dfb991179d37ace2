//! The replay engine: run an [`OpStream`] or an open-loop synthetic
//! workload through the simulated PFS and measure it.
//!
//! # Replay modes
//!
//! - [`ReplayMode::Direct`] — each rank walks its program order one
//!   operation at a time (seek + read/write), exactly like the
//!   unoptimized applications and bit-identical to the original
//!   `iosim replay` for legacy traces.
//! - [`ReplayMode::ListIo`] — consecutive same-file, same-direction data
//!   operations of a rank are coalesced into vectored list-I/O requests
//!   of at most `batch` extents ([`IoRequest::from_extents`]).
//! - [`ReplayMode::TwoPhase`] — data operations are grouped into
//!   two-phase collective windows of `window` operations per rank
//!   ([`write_collective`] / [`read_collective`]); all ranks execute the
//!   same number of windows per file. In this mode every rank opens
//!   every file, and explicit seeks and dependency *waits* are skipped —
//!   the collective windows already impose a global order (labels are
//!   still signalled so mixed traces stay well-defined).
//!
//! # Measurement
//!
//! Every run returns [`RunStats`] (the same machine-level measurements
//! the in-tree applications report) plus a per-operation
//! [`LatencyHistogram`]: for trace replay, latency is the virtual time
//! from issue to completion; for open-loop runs it is measured from the
//! operation's *scheduled arrival*, so queueing delay under overload is
//! included — that is what makes the saturation knee visible.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use iosim_core::two_phase::{read_collective, write_collective, Piece, Span};
use iosim_machine::shard::ShardSpec;
use iosim_machine::{Interface, Machine, MachineConfig};
use iosim_msg::{ShardLink, ShardSignal, World};
use iosim_pfs::{CreateOptions, FileHandle, FileSystem, IoRequest};
use iosim_simkit::executor::{join_all, Sim};
use iosim_simkit::hash::FxHashMap;
use iosim_simkit::shard::SendPromise;
use iosim_simkit::sync::{channel, Event};
use iosim_simkit::time::{SimDuration, SimTime};
use iosim_trace::{
    BalanceStats, CacheSnapshot, IoSummary, LatencyHistogram, ListIoSnapshot, MemSnapshot,
    QueueSnapshot, SizeHistogram, TraceCollector,
};

use crate::opstream::{OpStream, TraceKind, WorkKind};
use crate::synth::{self, SynthSpec, TimedOp};

/// How the engine turns operations into file-system requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayMode {
    /// One request per operation, in program order.
    Direct,
    /// Coalesce runs of same-file, same-direction operations into
    /// vectored requests of at most `batch` extents.
    ListIo {
        /// Maximum extents per vectored request.
        batch: usize,
    },
    /// Two-phase collective windows of `window` operations per rank.
    TwoPhase {
        /// Operations per rank per collective window.
        window: usize,
    },
}

/// A replay configuration: the machine, the client interface, and the
/// mode.
#[derive(Clone, Debug)]
pub struct ReplaySpec {
    /// The machine to replay on.
    pub machine: MachineConfig,
    /// Client interface used for opens and data operations.
    pub iface: Interface,
    /// Request-issue strategy.
    pub mode: ReplayMode,
}

impl ReplaySpec {
    /// Direct replay with the UNIX-style interface (the original
    /// `iosim replay` default).
    pub fn direct(machine: MachineConfig) -> ReplaySpec {
        ReplaySpec {
            machine,
            iface: Interface::UnixStyle,
            mode: ReplayMode::Direct,
        }
    }

    /// List-I/O replay: vectored requests of at most `batch` extents on
    /// the PASSION interface (the file system only takes the list-I/O
    /// service path — one call, coalesced extents, one booking per I/O
    /// node — for PASSION's vectored interface).
    pub fn list_io(machine: MachineConfig, batch: usize) -> ReplaySpec {
        assert!(batch > 0, "batch must be positive");
        ReplaySpec {
            machine,
            iface: Interface::Passion,
            mode: ReplayMode::ListIo { batch },
        }
    }

    /// Two-phase collective replay with windows of `window` operations
    /// per rank (the original `iosim replay --collective`).
    pub fn two_phase(machine: MachineConfig, window: usize) -> ReplaySpec {
        assert!(window > 0, "window must be positive");
        ReplaySpec {
            machine,
            iface: Interface::Passion,
            mode: ReplayMode::TwoPhase { window },
        }
    }
}

/// Machine-level measurements of one engine run. Field-for-field the
/// same data `iosim_apps::common::RunResult` carries (`iosim-apps`
/// converts with `From`) but defined here so the workload crate does
/// not depend on the applications crate.
#[derive(Clone, Debug)]
pub struct RunStats {
    /// Compute nodes used.
    pub procs: usize,
    /// I/O nodes of the machine.
    pub io_nodes: usize,
    /// Wall-clock execution time of the whole run.
    pub exec_time: SimDuration,
    /// Wall-clock I/O time: the slowest rank's cumulative I/O time.
    pub io_time: SimDuration,
    /// Cumulative I/O time summed over ranks.
    pub cum_io_time: SimDuration,
    /// Per-op-kind summary.
    pub summary: IoSummary,
    /// Total bytes moved through the file system.
    pub io_bytes: u64,
    /// Total file-system operations.
    pub io_ops: u64,
    /// Request-size distribution of reads.
    pub read_sizes: SizeHistogram,
    /// Request-size distribution of writes.
    pub write_sizes: SizeHistogram,
    /// I/O load balance across ranks.
    pub balance: BalanceStats,
    /// Buffer-cache behaviour (all zero when uncached).
    pub cache: CacheSnapshot,
    /// Vectored list-I/O request shapes.
    pub listio: ListIoSnapshot,
    /// I/O-node command-queue behaviour.
    pub queue: QueueSnapshot,
    /// Scheduler events (task polls) executed by the simulation engine.
    pub sim_events: u64,
    /// Order-sensitive hash of the task schedule.
    pub sched_fingerprint: u64,
    /// Synchronization rounds the sharded engine executed (zero for
    /// monolithic runs and degenerate shard plans). The adaptive window
    /// lowers this without touching any schedule.
    pub sync_rounds: u64,
    /// Per-shard simulation-memory accounting: `current` sums the
    /// shards' resident bytes, `peak` is the worst single shard — the
    /// number that must scale with ranks-per-shard, not total ranks.
    /// Zero for monolithic runs (nothing is partitioned).
    pub shard_mem: MemSnapshot,
    /// Host wall-clock time the simulation took to run.
    pub host_elapsed: std::time::Duration,
}

impl RunStats {
    /// Aggregate I/O bandwidth in MB/s (bytes over wall-clock I/O time).
    pub fn bandwidth_mb_s(&self) -> f64 {
        let t = self.io_time.as_secs_f64();
        if t > 0.0 {
            self.io_bytes as f64 / 1e6 / t
        } else {
            0.0
        }
    }
}

/// Result of a trace replay.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// Machine-level measurements.
    pub stats: RunStats,
    /// Per-data-operation latency (virtual time from issue to
    /// completion; in list-I/O and two-phase modes every operation of a
    /// batch records the batch's latency).
    pub latency: LatencyHistogram,
    /// Data (read/write) operations replayed.
    pub data_ops: u64,
    /// Bytes moved by data operations.
    pub data_bytes: u64,
}

impl ReplayReport {
    /// Achieved data-operation throughput over the run (ops/s of virtual
    /// time).
    pub fn ops_per_sec(&self) -> f64 {
        let t = self.stats.exec_time.as_secs_f64();
        if t > 0.0 {
            self.data_ops as f64 / t
        } else {
            0.0
        }
    }
}

/// Result of an open-loop run.
#[derive(Clone, Debug)]
pub struct OpenLoopReport {
    /// Machine-level measurements.
    pub stats: RunStats,
    /// Per-operation latency, measured from scheduled arrival to
    /// completion (queueing delay included).
    pub latency: LatencyHistogram,
    /// Operations the generator offered.
    pub offered_ops: u64,
    /// Operations that completed (equal to `offered_ops`; the run drains
    /// the backlog, overload shows up as latency and makespan).
    pub completed_ops: u64,
    /// Offered operation rate over the arrival window (ops/s).
    pub offered_rate: f64,
    /// Achieved operation rate: completions over the time the last one
    /// finished (ops/s). Tracks `offered_rate` until saturation, then
    /// flattens — the knee.
    pub achieved_rate: f64,
}

impl OpenLoopReport {
    /// `achieved / offered` — below ~0.9 the system is past its knee.
    pub fn overload_ratio(&self) -> f64 {
        if self.offered_rate > 0.0 {
            self.achieved_rate / self.offered_rate
        } else {
            1.0
        }
    }

    /// Project this run to a sweep point.
    pub fn sweep_point(&self) -> SweepPoint {
        SweepPoint {
            offered: self.offered_rate,
            achieved: self.achieved_rate,
            p99_ms: self.latency.p99() as f64 / 1e6,
        }
    }
}

/// One point of an offered-load sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepPoint {
    /// Offered rate (ops/s).
    pub offered: f64,
    /// Achieved rate (ops/s).
    pub achieved: f64,
    /// p99 latency in milliseconds.
    pub p99_ms: f64,
}

/// Index of the first sweep point past the saturation knee — where the
/// achieved rate falls below 90% of the offered rate — or `None` if the
/// sweep never saturates. Points must be in increasing offered-rate
/// order.
pub fn saturation_knee(points: &[SweepPoint]) -> Option<usize> {
    points
        .iter()
        .position(|p| p.offered > 0.0 && p.achieved < 0.9 * p.offered)
}

// ---------------------------------------------------------------------
// Shared run harness

type RankFuture = Pin<Box<dyn Future<Output = ()>>>;

/// Build machine + file system + world, run `program` on every rank,
/// and collect [`RunStats`] (the workload crate's copy of the
/// `run_ranks` harness; kept independent so `iosim-apps` can wrap this
/// crate instead of the other way round).
fn run_world(
    cfg: MachineConfig,
    procs: usize,
    program: impl Fn(WorldCtx) -> RankFuture,
) -> RunStats {
    let mut sim = Sim::new();
    let trace = TraceCollector::new();
    let machine = Machine::new(sim.handle(), cfg);
    let io_nodes = machine.io_nodes();
    let fs = FileSystem::new(Rc::clone(&machine), trace.clone());
    let world = World::new(Rc::clone(&machine), procs);
    let h = sim.handle();
    let futs: Vec<RankFuture> = world
        .comms()
        .into_iter()
        .enumerate()
        .map(|(rank, comm)| {
            program(WorldCtx {
                rank,
                comm,
                fs: Rc::clone(&fs),
            })
        })
        .collect();
    let n = futs.len();
    let jh = sim.spawn(async move {
        let done = join_all(&h, futs).await;
        done.len()
    });
    let host_t0 = std::time::Instant::now();
    let end = sim.run();
    let host_elapsed = host_t0.elapsed();
    assert_eq!(
        jh.try_take().expect("workload deadlocked"),
        n,
        "all ranks must finish"
    );
    RunStats {
        procs,
        io_nodes,
        exec_time: end - SimTime::ZERO,
        io_time: trace.max_rank_io_time(),
        cum_io_time: trace.cumulative_io_time(),
        summary: trace.summary(),
        io_bytes: trace.total_bytes(),
        io_ops: trace.total_ops(),
        read_sizes: trace.read_sizes(),
        write_sizes: trace.write_sizes(),
        balance: trace.balance(),
        cache: trace.cache().snapshot(),
        listio: trace.listio().snapshot(),
        queue: trace.queue().snapshot(),
        sim_events: sim.events_processed(),
        sched_fingerprint: sim.schedule_fingerprint(),
        sync_rounds: 0,
        shard_mem: trace.mem().snapshot(),
        host_elapsed,
    }
}

/// Everything one simulated rank needs (the machine is reachable
/// through the file system).
struct WorldCtx {
    rank: usize,
    comm: iosim_msg::Comm,
    fs: Rc<FileSystem>,
}

// ---------------------------------------------------------------------
// Trace replay

struct ReplayShared {
    stream: OpStream,
    extents: Vec<u64>,
    /// One completion event per op slot that something waits on. In a
    /// sharded run the tail slots (past the local ops) stand in for
    /// foreign dependency targets and are set by incoming dep tokens;
    /// shared with the shard link's dep handler, hence the `Rc`.
    events: Rc<Vec<Option<Event<()>>>>,
    /// Per-rank op indices in program order, indexed by `rank - rank_base`.
    per_rank: Vec<Vec<usize>>,
    /// First global rank of this shard (zero for monolithic runs).
    rank_base: usize,
    /// Per-file collective window counts (two-phase mode only).
    windows: Vec<usize>,
    latency: RefCell<LatencyHistogram>,
    iface: Interface,
    mode: ReplayMode,
    /// Cross-shard completion signalling (`None` for monolithic runs).
    bridge: Option<DepBridge>,
}

/// Cross-shard dependency bridge: everything a sharded replay shard
/// needs to notify foreign waiters that a labelled op completed. The
/// tokens ride the shard link's mailboxes under the same
/// `(deliver_at, src, seq)` total order as barrier arrivals, so the
/// receiving shard's wakeups are deterministic at every worker count.
struct DepBridge {
    link: ShardLink,
    promise: SendPromise,
    /// Per local op: foreign shards to notify when it completes.
    tokens: Vec<Vec<usize>>,
    /// Per local op: its index in the source stream (the token id).
    global: Vec<u64>,
    /// Local ops with foreign waiters not yet signalled. Dep tokens are
    /// the only cross-shard traffic a replay shard ever sends (barriers
    /// are per-shard), so when this hits zero the shard promises the
    /// engine it will never send again and the adaptive window opens up.
    pending: Cell<usize>,
}

impl ReplayShared {
    /// Mark op `i` complete: wake local waiters and, in a sharded run,
    /// token every foreign shard that waits on it.
    fn signal(&self, i: usize) {
        if let Some(ev) = &self.events[i] {
            ev.set(());
        }
        if let Some(b) = &self.bridge {
            if !b.tokens[i].is_empty() {
                for &dst in &b.tokens[i] {
                    b.link.send_dep_token(dst, b.global[i]);
                }
                b.pending.set(b.pending.get() - 1);
                if b.pending.get() == 0 {
                    b.promise.promise_never_sends();
                }
            }
        }
    }
}

/// Two-phase window counts per file: within one comm world all ranks
/// must execute the same number of collective windows.
fn window_counts(stream: &OpStream, per_rank: &[Vec<usize>], window: usize) -> Vec<usize> {
    (0..stream.files.len())
        .map(|f| {
            per_rank
                .iter()
                .map(|mine| {
                    mine.iter()
                        .filter(|&&i| {
                            let op = &stream.ops[i];
                            op.file == f && data_parts(&op.kind).is_some()
                        })
                        .count()
                        .div_ceil(window)
                })
                .max()
                .unwrap_or(0)
        })
        .collect()
}

/// Replay `stream` under `spec` and return the measurements.
///
/// # Panics
/// Panics if the stream needs more ranks than the machine has compute
/// nodes. Reads of unwritten data are allowed (files are preallocated to
/// their full traced extent; only timing is modelled).
pub fn replay(stream: &OpStream, spec: &ReplaySpec) -> ReplayReport {
    let n = stream.ranks();
    assert!(
        n <= spec.machine.compute_nodes,
        "trace needs {n} ranks but the machine has {}",
        spec.machine.compute_nodes
    );
    let mut events: Vec<Option<Event<()>>> = vec![None; stream.ops.len()];
    for op in &stream.ops {
        for &d in &op.deps {
            if events[d].is_none() {
                events[d] = Some(Event::new());
            }
        }
    }
    let mut per_rank: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, op) in stream.ops.iter().enumerate() {
        per_rank[op.rank].push(i);
    }
    let windows = match spec.mode {
        ReplayMode::TwoPhase { window } => window_counts(stream, &per_rank, window),
        _ => Vec::new(),
    };
    let shared = Rc::new(ReplayShared {
        stream: stream.clone(),
        extents: stream.extents(),
        events: Rc::new(events),
        per_rank,
        rank_base: 0,
        windows,
        latency: RefCell::new(LatencyHistogram::new()),
        iface: spec.iface,
        mode: spec.mode,
        bridge: None,
    });
    let sh = Rc::clone(&shared);
    let stats = run_world(spec.machine.clone(), n.max(1), move |ctx| {
        let sh = Rc::clone(&sh);
        Box::pin(async move {
            match sh.mode {
                ReplayMode::TwoPhase { window } => replay_two_phase(ctx, sh, window).await,
                ReplayMode::Direct => replay_serial(ctx, sh, 1).await,
                ReplayMode::ListIo { batch } => replay_serial(ctx, sh, batch).await,
            }
        })
    });
    let latency = shared.latency.borrow().clone();
    ReplayReport {
        stats,
        latency,
        data_ops: stream.data_ops(),
        data_bytes: stream.data_bytes(),
    }
}

/// Data-op helper: `(is_read, offset, len)`.
fn data_parts(kind: &WorkKind) -> Option<(bool, u64, u64)> {
    match *kind {
        WorkKind::Read { offset, len } => Some((true, offset, len)),
        WorkKind::Write { offset, len } => Some((false, offset, len)),
        _ => None,
    }
}

async fn ensure_open(
    ctx: &WorldCtx,
    sh: &ReplayShared,
    handles: &mut FxHashMap<usize, FileHandle>,
    file: usize,
) {
    if let std::collections::hash_map::Entry::Vacant(slot) = handles.entry(file) {
        let fh = ctx
            .fs
            .open(
                ctx.rank,
                sh.iface,
                &sh.stream.files[file],
                Some(CreateOptions::default()),
            )
            .await
            .expect("open replay file");
        fh.preallocate(sh.extents[file]);
        slot.insert(fh);
    }
}

/// A pending coalesced run: (file, is_read, extents, op indices).
type PendingRun = (usize, bool, Vec<(u64, u64)>, Vec<usize>);

/// Direct and list-I/O replay: walk the rank's program order; with
/// `batch > 1`, coalesce runs of same-file same-direction data ops into
/// vectored requests.
async fn replay_serial(ctx: WorldCtx, sh: Rc<ReplayShared>, batch: usize) {
    let mine = sh
        .per_rank
        .get(ctx.rank - sh.rank_base)
        .cloned()
        .unwrap_or_default();
    let h = ctx.fs.machine().handle().clone();
    let mut handles: FxHashMap<usize, FileHandle> = FxHashMap::default();
    let mut pending: Option<PendingRun> = None;
    macro_rules! flush {
        () => {
            if let Some((file, is_read, extents, idxs)) = pending.take() {
                let fh = handles.get(&file).expect("flush on open file");
                let t0 = h.now();
                if extents.len() == 1 {
                    // A lone op takes the legacy seek + read/write path,
                    // so `batch = 1` is exactly direct replay.
                    let (off, len) = extents[0];
                    fh.seek(off).await;
                    if is_read {
                        fh.read_discard(len).await.expect("replay read");
                    } else {
                        fh.write_discard(len).await.expect("replay write");
                    }
                } else {
                    let req = IoRequest::from_extents(extents);
                    if is_read {
                        fh.readv_discard(&req).await.expect("replay readv");
                    } else {
                        fh.writev_discard(&req).await.expect("replay writev");
                    }
                }
                let elapsed = h.now() - t0;
                for i in idxs {
                    sh.latency.borrow_mut().record(elapsed.as_nanos());
                    sh.signal(i);
                }
            }
        };
    }
    for &i in &mine {
        let op = &sh.stream.ops[i];
        if !op.deps.is_empty() {
            flush!();
            for &d in &op.deps {
                sh.events[d].as_ref().expect("dep event").wait().await;
            }
        }
        match data_parts(&op.kind) {
            Some((is_read, offset, len)) => {
                ensure_open(&ctx, &sh, &mut handles, op.file).await;
                let fits = matches!(
                    &pending,
                    Some((f, r, exts, _)) if *f == op.file && *r == is_read && exts.len() < batch
                );
                if !fits {
                    flush!();
                    pending = Some((op.file, is_read, Vec::new(), Vec::new()));
                }
                let (_, _, exts, idxs) = pending.as_mut().expect("pending run");
                exts.push((offset, len));
                idxs.push(i);
                // Direct mode issues immediately; list mode waits for
                // the run to grow or break.
                if batch == 1 {
                    flush!();
                }
            }
            None => {
                flush!();
                match op.kind {
                    WorkKind::Open => ensure_open(&ctx, &sh, &mut handles, op.file).await,
                    WorkKind::Close => {
                        if let Some(fh) = handles.remove(&op.file) {
                            fh.close().await;
                        }
                    }
                    WorkKind::Seek(pos) => {
                        ensure_open(&ctx, &sh, &mut handles, op.file).await;
                        handles[&op.file].seek(pos).await;
                    }
                    _ => unreachable!("data ops handled above"),
                }
                sh.signal(i);
            }
        }
    }
    flush!();
    ctx.comm.barrier().await;
    let mut left: Vec<(usize, FileHandle)> = handles.drain().collect();
    left.sort_by_key(|(f, _)| *f);
    for (_, fh) in left {
        fh.close().await;
    }
}

/// Two-phase collective replay: every rank opens every file, then the
/// ranks walk each file's windows in lockstep.
async fn replay_two_phase(ctx: WorldCtx, sh: Rc<ReplayShared>, window: usize) {
    let h = ctx.fs.machine().handle().clone();
    let mut fhs: Vec<FileHandle> = Vec::with_capacity(sh.stream.files.len());
    for (f, name) in sh.stream.files.iter().enumerate() {
        let fh = ctx
            .fs
            .open(ctx.rank, sh.iface, name, Some(CreateOptions::default()))
            .await
            .expect("open replay file");
        fh.preallocate(sh.extents[f]);
        fhs.push(fh);
    }
    let mine = sh
        .per_rank
        .get(ctx.rank - sh.rank_base)
        .cloned()
        .unwrap_or_default();
    for (f, fh) in fhs.iter().enumerate() {
        let ops: Vec<usize> = mine
            .iter()
            .copied()
            .filter(|&i| sh.stream.ops[i].file == f && data_parts(&sh.stream.ops[i].kind).is_some())
            .collect();
        for w in 0..sh.windows[f] {
            let chunk: &[usize] = ops
                .get(w * window..)
                .map_or(&[], |rest| &rest[..rest.len().min(window)]);
            let writes: Vec<Piece> = chunk
                .iter()
                .filter_map(|&i| match data_parts(&sh.stream.ops[i].kind) {
                    Some((false, off, len)) => Some(Piece::synthetic(off, len)),
                    _ => None,
                })
                .collect();
            let reads: Vec<Span> = chunk
                .iter()
                .filter_map(|&i| match data_parts(&sh.stream.ops[i].kind) {
                    Some((true, off, len)) => Some(Span::new(off, len)),
                    _ => None,
                })
                .collect();
            let t0 = h.now();
            write_collective(&ctx.comm, fh, writes)
                .await
                .expect("collective writes");
            read_collective(&ctx.comm, fh, reads)
                .await
                .expect("collective reads");
            let elapsed = h.now() - t0;
            for &i in chunk {
                sh.latency.borrow_mut().record(elapsed.as_nanos());
                sh.signal(i);
            }
        }
    }
    ctx.comm.barrier().await;
    for fh in fhs {
        fh.close().await;
    }
}

// ---------------------------------------------------------------------
// Sharded replay

/// Machine-level measurements one shard of a sharded run reports back
/// (the per-shard half of [`RunStats`], merged by [`merge_shard_outs`]).
struct ShardIoOut {
    per_rank_io: Vec<SimDuration>,
    cum_io_time: SimDuration,
    summary: IoSummary,
    io_bytes: u64,
    io_ops: u64,
    read_sizes: SizeHistogram,
    write_sizes: SizeHistogram,
    cache: CacheSnapshot,
    listio: ListIoSnapshot,
    queue: QueueSnapshot,
    latency: LatencyHistogram,
    mem: MemSnapshot,
}

impl ShardIoOut {
    /// Snapshot one shard's collector at the end of its run.
    fn collect(trace: &TraceCollector, sspec: &ShardSpec, latency: LatencyHistogram) -> ShardIoOut {
        // The collector indexes by global rank; keep this shard's slice
        // for the cross-shard balance stats.
        let mut times = trace.per_rank_io_times();
        times.resize(sspec.rank_base + sspec.ranks, SimDuration::ZERO);
        ShardIoOut {
            per_rank_io: times[sspec.rank_base..].to_vec(),
            cum_io_time: trace.cumulative_io_time(),
            summary: trace.summary(),
            io_bytes: trace.total_bytes(),
            io_ops: trace.total_ops(),
            read_sizes: trace.read_sizes(),
            write_sizes: trace.write_sizes(),
            cache: trace.cache().snapshot(),
            listio: trace.listio().snapshot(),
            queue: trace.queue().snapshot(),
            latency,
            mem: trace.mem().snapshot(),
        }
    }
}

/// Scalars of one sharded engine run, folded together with the
/// per-shard outputs by [`merge_shard_outs`].
struct ShardRunMeta {
    ranks: usize,
    io_nodes: usize,
    end_time: SimTime,
    events: u64,
    fingerprint: u64,
    rounds: u64,
    host_elapsed: std::time::Duration,
}

/// Fold per-shard outputs (shard-index order, so every merge is
/// deterministic) into [`RunStats`] plus the merged latency histogram.
fn merge_shard_outs(meta: ShardRunMeta, outs: Vec<ShardIoOut>) -> (RunStats, LatencyHistogram) {
    let mut rank_times: Vec<SimDuration> = Vec::with_capacity(meta.ranks);
    let mut summary: Option<IoSummary> = None;
    let mut cum_io_time = SimDuration::ZERO;
    let mut io_bytes = 0u64;
    let mut io_ops = 0u64;
    let mut read_sizes = SizeHistogram::new();
    let mut write_sizes = SizeHistogram::new();
    let mut cache = CacheSnapshot::default();
    let mut listio = ListIoSnapshot::default();
    let mut queue = QueueSnapshot::default();
    let mut latency = LatencyHistogram::new();
    let mut shard_mem = MemSnapshot::default();
    for out in outs {
        rank_times.extend_from_slice(&out.per_rank_io);
        match &mut summary {
            Some(s) => s.merge(&out.summary),
            None => summary = Some(out.summary),
        }
        cum_io_time += out.cum_io_time;
        io_bytes += out.io_bytes;
        io_ops += out.io_ops;
        read_sizes.merge(&out.read_sizes);
        write_sizes.merge(&out.write_sizes);
        cache.merge(&out.cache);
        listio.merge(&out.listio);
        queue.merge(&out.queue);
        latency.merge(&out.latency);
        shard_mem.merge(&out.mem);
    }
    let io_time = rank_times
        .iter()
        .copied()
        .fold(SimDuration::ZERO, SimDuration::max);
    let stats = RunStats {
        procs: meta.ranks,
        io_nodes: meta.io_nodes,
        exec_time: meta.end_time - SimTime::ZERO,
        io_time,
        cum_io_time,
        summary: summary.expect("at least one shard"),
        io_bytes,
        io_ops,
        read_sizes,
        write_sizes,
        balance: BalanceStats::from_times(&rank_times),
        cache,
        listio,
        queue,
        sim_events: meta.events,
        sched_fingerprint: meta.fingerprint,
        sync_rounds: meta.rounds,
        shard_mem,
        host_elapsed: meta.host_elapsed,
    };
    (stats, latency)
}

/// Host bytes one shard's replay structures pin, charged to its
/// [`iosim_trace::MemCounters`]: the projected ops (labels and dep
/// edges included), event slots, per-rank index lists, token tables,
/// and the latency histogram. An estimate, not an allocator hook — the
/// point is the scaling shape (per-shard state must track ranks *per
/// shard*), not byte-exact accounting.
fn replay_shard_footprint(
    ops: &[crate::opstream::WorkOp],
    event_slots: usize,
    per_rank: &[Vec<usize>],
    tokens: &[Vec<usize>],
) -> u64 {
    use std::mem::size_of;
    let word = size_of::<usize>();
    let op_bytes: usize = ops
        .iter()
        .map(|o| {
            size_of::<crate::opstream::WorkOp>()
                + o.label.as_ref().map_or(0, String::len)
                + o.deps.len() * word
        })
        .sum();
    let ev_bytes = event_slots * size_of::<Option<Event<()>>>();
    let idx_bytes: usize = per_rank.iter().map(|v| v.len() * word).sum();
    let tok_bytes: usize = tokens
        .iter()
        .map(|v| size_of::<Vec<usize>>() + v.len() * word)
        .sum();
    (op_bytes + ev_bytes + idx_bytes + tok_bytes) as u64 + LatencyHistogram::footprint_bytes()
}

/// Sharded variant of [`replay`]: partition the replayed ranks along the
/// machine's topology ([`iosim_machine::shard::plan`], the same plan
/// the open-loop generator uses) and replay each shard's rank group,
/// with its slice of the I/O nodes and its own file system, on its own
/// executor, run by up to `workers` host threads.
///
/// Cross-rank dependency edges that cross a shard boundary become
/// completion-notification *dep tokens* on the shard-link mailboxes:
/// the owning shard tokens every waiting shard when the labelled op
/// completes, and the waiting shard's local stand-in event fires when
/// the token arrives (one conservative lookahead later — a pessimistic
/// but deterministic bound on the notification latency). Dep tokens are
/// the only cross-shard traffic, so a shard with no foreign waiters
/// promises the engine it will never send ([`SendPromise`]) and the
/// adaptive window runs it to completion in a handful of rounds.
///
/// The result is bit-identical for every `workers` value, but differs
/// from [`replay`]'s monolithic schedule: each shard stripes files over
/// its own I/O-node slice. Degenerate shard plans (single I/O node, one
/// rank, zero lookahead) fall back to [`replay`] exactly.
pub fn replay_threaded(stream: &OpStream, spec: &ReplaySpec, workers: usize) -> ReplayReport {
    replay_threaded_inner(stream, spec, workers, true)
}

/// [`replay_threaded`] under the static window protocol: send promises
/// are ignored, every round advances by one lookahead. Schedules and
/// fingerprints are identical to the adaptive run — only
/// [`RunStats::sync_rounds`] differs. This is the baseline the bench
/// ladder measures the adaptive window against.
pub fn replay_threaded_static(
    stream: &OpStream,
    spec: &ReplaySpec,
    workers: usize,
) -> ReplayReport {
    replay_threaded_inner(stream, spec, workers, false)
}

fn replay_threaded_inner(
    stream: &OpStream,
    spec: &ReplaySpec,
    workers: usize,
    adaptive: bool,
) -> ReplayReport {
    use iosim_simkit::shard::{run_sharded, run_sharded_static, ShardCtx, ShardRuntime};

    let host_t0 = std::time::Instant::now();
    let workers = workers.max(1);
    let n = stream.ranks();
    assert!(
        n <= spec.machine.compute_nodes,
        "trace needs {n} ranks but the machine has {}",
        spec.machine.compute_nodes
    );
    let plan = iosim_machine::shard::plan(&spec.machine, n);
    if plan.is_degenerate() {
        let mut rep = replay(stream, spec);
        rep.stats.host_elapsed = host_t0.elapsed();
        return rep;
    }
    let lookahead = plan.lookahead.max(iosim_machine::shard::LOOKAHEAD_FLOOR);
    let mut shard_of_rank = vec![0usize; n];
    for s in &plan.shards {
        for r in s.rank_range() {
            shard_of_rank[r] = s.index;
        }
    }
    // Which shards wait on each dependency target (global op index).
    let mut waiters: FxHashMap<usize, Vec<usize>> = FxHashMap::default();
    for op in &stream.ops {
        let ws = shard_of_rank[op.rank];
        for &d in &op.deps {
            let v = waiters.entry(d).or_default();
            if !v.contains(&ws) {
                v.push(ws);
            }
        }
    }
    let extents = stream.extents();
    let iface = spec.iface;
    let mode = spec.mode;
    let cfg = &spec.machine;
    let stream_ref = stream;
    let waiters = &waiters;
    let shard_of_rank = &shard_of_rank;
    let extents_ref = &extents;
    let builders: Vec<_> = plan
        .shards
        .iter()
        .cloned()
        .map(|sspec| {
            move |ctx: ShardCtx<ShardSignal>| -> ShardRuntime<ShardSignal, ShardIoOut> {
                let sim = Sim::new();
                let trace = TraceCollector::new();
                let sub_cfg = cfg
                    .clone()
                    .with_compute_nodes(sspec.ranks.max(1))
                    .with_io_nodes(sspec.io_nodes.max(1));
                let machine = Machine::new(sim.handle(), sub_cfg);
                let fs = FileSystem::new(Rc::clone(&machine), trace.clone());
                let world = World::new(Rc::clone(&machine), sspec.ranks);
                let link = ShardLink::new(
                    sim.handle(),
                    ctx.index,
                    ctx.shards,
                    ctx.lookahead,
                    ctx.outbox,
                );

                // Project the stream onto this shard: local ops keep
                // their relative order; dependency edges are rewritten
                // to local event slots, with foreign targets getting
                // stand-in slots past the local ops.
                let me = sspec.index;
                let mut ops: Vec<crate::opstream::WorkOp> = Vec::new();
                let mut global: Vec<u64> = Vec::new();
                let mut slot_of: FxHashMap<usize, usize> = FxHashMap::default();
                for (g, op) in stream_ref.ops.iter().enumerate() {
                    if shard_of_rank[op.rank] == me {
                        slot_of.insert(g, ops.len());
                        global.push(g as u64);
                        ops.push(op.clone());
                    }
                }
                let local_n = ops.len();
                let mut events: Vec<Option<Event<()>>> = vec![None; local_n];
                for op in ops.iter_mut().take(local_n) {
                    let deps = std::mem::take(&mut op.deps);
                    op.deps = deps
                        .into_iter()
                        .map(|d| {
                            let slot = match slot_of.get(&d) {
                                Some(&s) => s,
                                None => {
                                    let s = events.len();
                                    events.push(None);
                                    slot_of.insert(d, s);
                                    s
                                }
                            };
                            if events[slot].is_none() {
                                events[slot] = Some(Event::new());
                            }
                            slot
                        })
                        .collect();
                }
                let mut pending = 0usize;
                let tokens: Vec<Vec<usize>> = global
                    .iter()
                    .map(|&g| {
                        let mut dsts: Vec<usize> = waiters
                            .get(&(g as usize))
                            .map(|w| w.iter().copied().filter(|&s| s != me).collect())
                            .unwrap_or_default();
                        dsts.sort_unstable();
                        if !dsts.is_empty() {
                            pending += 1;
                        }
                        dsts
                    })
                    .collect();
                let mut per_rank: Vec<Vec<usize>> = vec![Vec::new(); sspec.ranks];
                for (k, op) in ops.iter().enumerate() {
                    per_rank[op.rank - sspec.rank_base].push(k);
                }
                trace.mem().alloc(replay_shard_footprint(
                    &ops,
                    events.len(),
                    &per_rank,
                    &tokens,
                ));
                let events = Rc::new(events);
                // Incoming dep tokens fire the stand-in event of the
                // foreign target they announce.
                let token_slots: FxHashMap<u64, usize> = slot_of
                    .iter()
                    .filter(|&(_, &s)| s >= local_n)
                    .map(|(&g, &s)| (g as u64, s))
                    .collect();
                {
                    let events = Rc::clone(&events);
                    link.set_dep_handler(Box::new(move |g| {
                        let slot = *token_slots.get(&g).expect("dep token for unknown op");
                        events[slot].as_ref().expect("dep token event").set(());
                    }));
                }
                if pending == 0 {
                    // No foreign waiters: this shard never sends.
                    ctx.promise.promise_never_sends();
                }
                let stream = OpStream {
                    files: stream_ref.files.clone(),
                    ops,
                };
                let windows = match mode {
                    ReplayMode::TwoPhase { window } => window_counts(&stream, &per_rank, window),
                    _ => Vec::new(),
                };
                let shared = Rc::new(ReplayShared {
                    stream,
                    extents: extents_ref.clone(),
                    events,
                    per_rank,
                    rank_base: sspec.rank_base,
                    windows,
                    latency: RefCell::new(LatencyHistogram::new()),
                    iface,
                    mode,
                    bridge: Some(DepBridge {
                        link: link.clone(),
                        promise: ctx.promise.clone(),
                        tokens,
                        global,
                        pending: Cell::new(pending),
                    }),
                });
                let futs: Vec<RankFuture> = world
                    .comms()
                    .into_iter()
                    .enumerate()
                    .map(|(local, comm)| -> RankFuture {
                        let sh = Rc::clone(&shared);
                        let wctx = WorldCtx {
                            rank: sspec.rank_base + local,
                            comm,
                            fs: Rc::clone(&fs),
                        };
                        Box::pin(async move {
                            match sh.mode {
                                ReplayMode::TwoPhase { window } => {
                                    replay_two_phase(wctx, sh, window).await
                                }
                                ReplayMode::Direct => replay_serial(wctx, sh, 1).await,
                                ReplayMode::ListIo { batch } => {
                                    replay_serial(wctx, sh, batch).await
                                }
                            }
                        })
                    })
                    .collect();
                let n_futs = futs.len();
                let h = sim.handle();
                let jh = sim.spawn(async move {
                    let done = join_all(&h, futs).await;
                    done.len()
                });
                ShardRuntime {
                    sim,
                    deliver: Box::new(move |sig| link.deliver(sig)),
                    finish: Box::new(move || {
                        assert_eq!(
                            jh.try_take().expect("replay shard deadlocked"),
                            n_futs,
                            "all ranks of shard {} must finish",
                            sspec.index
                        );
                        ShardIoOut::collect(&trace, &sspec, shared.latency.borrow().clone())
                    }),
                }
            }
        })
        .collect();
    let report = if adaptive {
        run_sharded(lookahead, workers, builders)
    } else {
        run_sharded_static(lookahead, workers, builders)
    };
    let (stats, latency) = merge_shard_outs(
        ShardRunMeta {
            ranks: n,
            io_nodes: spec.machine.io_nodes,
            end_time: report.end_time,
            events: report.events,
            fingerprint: report.fingerprint,
            rounds: report.rounds,
            host_elapsed: host_t0.elapsed(),
        },
        report.results,
    );
    ReplayReport {
        stats,
        latency,
        data_ops: stream.data_ops(),
        data_bytes: stream.data_bytes(),
    }
}

// ---------------------------------------------------------------------
// Open-loop runner

struct OpenLoopShared {
    latency: RefCell<LatencyHistogram>,
    completed: Cell<u64>,
    last_done: Cell<SimTime>,
    fragments: u32,
}

impl OpenLoopShared {
    fn finish(&self, scheduled: SimTime, now: SimTime) {
        self.latency
            .borrow_mut()
            .record((now - scheduled).as_nanos());
        self.completed.set(self.completed.get() + 1);
        self.last_done.set(self.last_done.get().max(now));
    }
}

/// Fragment extents of one synthetic op: the record emitted as
/// `fragments` back-to-back pieces — the many-small-calls pattern the
/// paper's packed/list-I/O interfaces target. Direct replay pays one
/// file-system request per piece; a vectored request coalesces the
/// adjacent pieces into a single extent.
fn fragments_of(op: &TimedOp, fragments: u32) -> Vec<(u64, u64)> {
    let n = (fragments.max(1) as u64).min(op.len);
    let frag = op.len / n;
    (0..n)
        .map(|k| {
            let len = if k == n - 1 {
                op.len - frag * (n - 1)
            } else {
                frag
            };
            (op.offset + k * frag, len)
        })
        .collect()
}

/// Run an open-loop synthetic workload through the machine.
///
/// Clients are assigned round-robin to compute ranks. Each client issues
/// its operations at their scheduled arrival instants *regardless of
/// completion* (spawned as detached tasks — a true open loop with no
/// back-pressure), so offered load is honoured exactly and overload
/// shows up as queueing latency. In [`ReplayMode::TwoPhase`] the rank
/// aggregates arrivals into exchange windows of `window` operations and
/// issues each window as vectored requests — the per-node half of
/// two-phase I/O; a global collective is impossible open-loop.
pub fn run_open_loop(synth: &SynthSpec, spec: &ReplaySpec) -> OpenLoopReport {
    let clients = synth::generate(synth);
    let offered_ops = synth::total_ops(&clients);
    let ranks = synth.clients.min(spec.machine.compute_nodes).max(1);
    let mut per_rank: Vec<Vec<Vec<TimedOp>>> = vec![Vec::new(); ranks];
    for (c, ops) in clients.into_iter().enumerate() {
        per_rank[c % ranks].push(ops);
    }
    let shared = Rc::new(OpenLoopShared {
        latency: RefCell::new(LatencyHistogram::new()),
        completed: Cell::new(0),
        last_done: Cell::new(SimTime::ZERO),
        fragments: synth.fragments,
    });
    let files: Vec<String> = open_loop_files(synth);
    let files = Rc::new(files);
    let extent = open_loop_extent(synth);
    let sh = Rc::clone(&shared);
    let iface = spec.iface;
    let mode = spec.mode;
    let stats = run_world(spec.machine.clone(), ranks, move |ctx| {
        let sh = Rc::clone(&sh);
        let my_clients = per_rank[ctx.rank].clone();
        let files = Rc::clone(&files);
        Box::pin(open_loop_rank(
            ctx, sh, my_clients, files, extent, iface, mode,
        ))
    });
    let latency = shared.latency.borrow().clone();
    open_loop_report(
        synth,
        stats,
        latency,
        offered_ops,
        shared.completed.get(),
        shared.last_done.get(),
    )
}

/// File names of the synthetic population.
fn open_loop_files(synth: &SynthSpec) -> Vec<String> {
    (0..synth.files).map(|f| format!("synth{f}.data")).collect()
}

/// Preallocation extent: a record starting at the last aligned offset
/// ends past `file_bytes`.
fn open_loop_extent(synth: &SynthSpec) -> u64 {
    synth.file_bytes + synth.op_bytes
}

/// Assemble an [`OpenLoopReport`] from the run's raw measurements.
fn open_loop_report(
    synth: &SynthSpec,
    stats: RunStats,
    latency: LatencyHistogram,
    offered_ops: u64,
    completed_ops: u64,
    last_done: SimTime,
) -> OpenLoopReport {
    let duration = synth.duration.as_secs_f64();
    let offered_rate = if duration > 0.0 {
        offered_ops as f64 / duration
    } else {
        0.0
    };
    let makespan = (last_done - SimTime::ZERO).as_secs_f64();
    let achieved_rate = if makespan > 0.0 {
        completed_ops as f64 / makespan
    } else {
        0.0
    };
    OpenLoopReport {
        stats,
        latency,
        offered_ops,
        completed_ops,
        offered_rate,
        achieved_rate,
    }
}

/// One rank's open-loop program: open every file, then drive this rank's
/// clients (shared by the monolithic and sharded runners).
async fn open_loop_rank(
    ctx: WorldCtx,
    sh: Rc<OpenLoopShared>,
    my_clients: Vec<Vec<TimedOp>>,
    files: Rc<Vec<String>>,
    extent: u64,
    iface: Interface,
    mode: ReplayMode,
) {
    let mut fhs = Vec::with_capacity(files.len());
    for name in files.iter() {
        let fh = ctx
            .fs
            .open(ctx.rank, iface, name, Some(CreateOptions::default()))
            .await
            .expect("open synth file");
        fh.preallocate(extent);
        fhs.push(fh);
    }
    let fhs = Rc::new(fhs);
    let h = ctx.fs.machine().handle().clone();
    let start = h.now();
    match mode {
        ReplayMode::TwoPhase { window } => {
            // Clients feed an exchange queue; the rank drains it
            // in windows.
            let (tx, rx) = channel::<(SimTime, TimedOp)>();
            let mut drivers = Vec::new();
            for ops in my_clients {
                let h2 = h.clone();
                let tx = tx.clone();
                drivers.push(h.spawn(async move {
                    for op in ops {
                        let at = start + op.at;
                        h2.sleep_until(at).await;
                        tx.send((at, op));
                    }
                }));
            }
            drop(tx);
            let mut batch: Vec<(SimTime, TimedOp)> = Vec::new();
            loop {
                let item = rx.recv().await;
                if let Some(it) = item {
                    batch.push(it);
                }
                let closed = item.is_none();
                if batch.len() >= window.max(1) || (closed && !batch.is_empty()) {
                    flush_window(&sh, &fhs, &h, &batch).await;
                    batch.clear();
                }
                if closed {
                    break;
                }
            }
            for d in drivers {
                d.await;
            }
        }
        _ => {
            let mut drivers = Vec::new();
            for ops in my_clients {
                let h2 = h.clone();
                let sh = Rc::clone(&sh);
                let fhs = Rc::clone(&fhs);
                drivers.push(h.spawn(async move {
                    for op in ops {
                        let at = start + op.at;
                        h2.sleep_until(at).await;
                        let sh = Rc::clone(&sh);
                        let fhs = Rc::clone(&fhs);
                        let h3 = h2.clone();
                        // Detached: the next arrival does not
                        // wait for this op — the open loop.
                        h2.spawn(async move {
                            issue_op(&sh, &fhs, &op, mode).await;
                            sh.finish(at, h3.now());
                        });
                    }
                }));
            }
            for d in drivers {
                d.await;
            }
        }
    }
}

/// Everything one shard of a sharded open-loop run reports back.
struct OpenLoopShardOut {
    io: ShardIoOut,
    completed: u64,
    last_done: SimTime,
}

/// Sharded variant of [`run_open_loop`]: partition the machine along its
/// topology ([`iosim_machine::shard::plan`]) and simulate each shard's
/// rank group — with its slice of the I/O nodes and its own file system —
/// on its own executor, run by up to `workers` host threads.
///
/// Open-loop clients never talk to each other, so the shards exchange no
/// cross-shard traffic at all; the conservative windows only pace the
/// shards through virtual time together. The result is bit-identical for
/// every `workers` value (the shard decomposition is fixed by the
/// machine), but differs from [`run_open_loop`]'s monolithic schedule:
/// each shard stripes its files over its own I/O-node slice. Degenerate
/// machines fall back to [`run_open_loop`] exactly.
pub fn run_open_loop_threaded(
    synth: &SynthSpec,
    spec: &ReplaySpec,
    workers: usize,
) -> OpenLoopReport {
    run_open_loop_threaded_inner(synth, spec, workers, true)
}

/// [`run_open_loop_threaded`] under the static window protocol (send
/// promises ignored; identical schedules and fingerprints, only
/// [`RunStats::sync_rounds`] differs) — the bench baseline the adaptive
/// window is measured against.
pub fn run_open_loop_threaded_static(
    synth: &SynthSpec,
    spec: &ReplaySpec,
    workers: usize,
) -> OpenLoopReport {
    run_open_loop_threaded_inner(synth, spec, workers, false)
}

fn run_open_loop_threaded_inner(
    synth: &SynthSpec,
    spec: &ReplaySpec,
    workers: usize,
    adaptive: bool,
) -> OpenLoopReport {
    use iosim_simkit::shard::{run_sharded, run_sharded_static, ShardCtx, ShardRuntime};

    let host_t0 = std::time::Instant::now();
    let workers = workers.max(1);
    let clients = synth::generate(synth);
    let offered_ops = synth::total_ops(&clients);
    let ranks = synth.clients.min(spec.machine.compute_nodes).max(1);
    let plan = iosim_machine::shard::plan(&spec.machine, ranks);
    if plan.is_degenerate() {
        let mut rep = run_open_loop(synth, spec);
        rep.stats.host_elapsed = host_t0.elapsed();
        return rep;
    }
    let lookahead = plan.lookahead.max(iosim_machine::shard::LOOKAHEAD_FLOOR);
    let mut per_rank: Vec<Vec<Vec<TimedOp>>> = vec![Vec::new(); ranks];
    for (c, ops) in clients.into_iter().enumerate() {
        per_rank[c % ranks].push(ops);
    }
    let files = open_loop_files(synth);
    let extent = open_loop_extent(synth);
    let fragments = synth.fragments;
    let iface = spec.iface;
    let mode = spec.mode;
    let per_rank = &per_rank;
    let files = &files;
    let cfg = &spec.machine;
    let builders: Vec<_> = plan
        .shards
        .iter()
        .cloned()
        .map(|sspec| {
            move |ctx: ShardCtx<()>| -> ShardRuntime<(), OpenLoopShardOut> {
                // Open-loop shards never exchange messages, so every
                // shard can promise the engine it will never send and
                // the adaptive window runs the whole simulation in a
                // handful of rounds.
                ctx.promise.promise_never_sends();
                let sim = Sim::new();
                let trace = TraceCollector::new();
                // This shard's slice of the machine, on the parent mesh
                // (global ranks keep their real coordinates).
                let sub_cfg = cfg
                    .clone()
                    .with_compute_nodes(sspec.ranks.max(1))
                    .with_io_nodes(sspec.io_nodes.max(1));
                let machine = Machine::new(sim.handle(), sub_cfg);
                let fs = FileSystem::new(Rc::clone(&machine), trace.clone());
                let world = World::new(Rc::clone(&machine), sspec.ranks);
                let shared = Rc::new(OpenLoopShared {
                    latency: RefCell::new(LatencyHistogram::new()),
                    completed: Cell::new(0),
                    last_done: Cell::new(SimTime::ZERO),
                    fragments,
                });
                let shard_files = Rc::new(files.clone());
                // Account this shard's resident replay state: its ranks'
                // client schedules, the file-name table, the histogram.
                let my_ops: usize = (sspec.rank_base..sspec.rank_base + sspec.ranks)
                    .map(|r| per_rank[r].iter().map(Vec::len).sum::<usize>())
                    .sum();
                trace.mem().alloc(
                    (my_ops * std::mem::size_of::<TimedOp>()
                        + shard_files.iter().map(String::len).sum::<usize>())
                        as u64
                        + LatencyHistogram::footprint_bytes(),
                );
                let futs: Vec<RankFuture> = world
                    .comms()
                    .into_iter()
                    .enumerate()
                    .map(|(local, comm)| -> RankFuture {
                        let rank = sspec.rank_base + local;
                        Box::pin(open_loop_rank(
                            WorldCtx {
                                rank,
                                comm,
                                fs: Rc::clone(&fs),
                            },
                            Rc::clone(&shared),
                            per_rank[rank].clone(),
                            Rc::clone(&shard_files),
                            extent,
                            iface,
                            mode,
                        ))
                    })
                    .collect();
                let n = futs.len();
                let h = sim.handle();
                let jh = sim.spawn(async move {
                    let done = join_all(&h, futs).await;
                    done.len()
                });
                ShardRuntime {
                    sim,
                    deliver: Box::new(|_| {}),
                    finish: Box::new(move || {
                        assert_eq!(
                            jh.try_take().expect("open-loop shard deadlocked"),
                            n,
                            "all ranks of shard {} must finish",
                            sspec.index
                        );
                        OpenLoopShardOut {
                            io: ShardIoOut::collect(
                                &trace,
                                &sspec,
                                shared.latency.borrow().clone(),
                            ),
                            completed: shared.completed.get(),
                            last_done: shared.last_done.get(),
                        }
                    }),
                }
            }
        })
        .collect();
    let report = if adaptive {
        run_sharded(lookahead, workers, builders)
    } else {
        run_sharded_static(lookahead, workers, builders)
    };

    let mut completed = 0u64;
    let mut last_done = SimTime::ZERO;
    let ios: Vec<ShardIoOut> = report
        .results
        .into_iter()
        .map(|out| {
            completed += out.completed;
            last_done = last_done.max(out.last_done);
            out.io
        })
        .collect();
    let (stats, latency) = merge_shard_outs(
        ShardRunMeta {
            ranks,
            io_nodes: spec.machine.io_nodes,
            end_time: report.end_time,
            events: report.events,
            fingerprint: report.fingerprint,
            rounds: report.rounds,
            host_elapsed: host_t0.elapsed(),
        },
        ios,
    );
    open_loop_report(synth, stats, latency, offered_ops, completed, last_done)
}

/// Issue one open-loop op in direct or list-I/O style.
async fn issue_op(sh: &OpenLoopShared, fhs: &[FileHandle], op: &TimedOp, mode: ReplayMode) {
    let fh = &fhs[op.file];
    let exts = fragments_of(op, sh.fragments);
    match mode {
        ReplayMode::ListIo { .. } => {
            let req = IoRequest::from_extents(exts);
            match op.kind {
                TraceKind::Read => fh.readv_discard(&req).await.expect("open-loop readv"),
                TraceKind::Write => fh.writev_discard(&req).await.expect("open-loop writev"),
            }
        }
        _ => {
            for (off, len) in exts {
                match op.kind {
                    TraceKind::Read => fh.read_discard_at(off, len).await.expect("open-loop read"),
                    TraceKind::Write => fh
                        .write_discard_at(off, len)
                        .await
                        .expect("open-loop write"),
                }
            }
        }
    }
}

/// Extent lists gathered inside one exchange window, keyed by file id.
/// Iteration always goes through a sorted fid list, never map order.
type ExtentsByFile = FxHashMap<usize, Vec<(u64, u64)>>;

/// Flush one exchange window: all write fragments per file as one
/// vectored request, then all read fragments per file.
async fn flush_window(
    sh: &OpenLoopShared,
    fhs: &[FileHandle],
    h: &iosim_simkit::executor::SimHandle,
    batch: &[(SimTime, TimedOp)],
) {
    let mut writes: ExtentsByFile = FxHashMap::default();
    let mut reads: ExtentsByFile = FxHashMap::default();
    for (_, op) in batch {
        let dst = match op.kind {
            TraceKind::Write => &mut writes,
            TraceKind::Read => &mut reads,
        };
        dst.entry(op.file)
            .or_default()
            .extend(fragments_of(op, sh.fragments));
    }
    let order: [(&ExtentsByFile, bool); 2] = [(&writes, false), (&reads, true)];
    for (map, is_read) in order {
        let mut fids: Vec<usize> = map.keys().copied().collect();
        fids.sort_unstable();
        for f in fids {
            let req = IoRequest::from_extents(map[&f].clone());
            if is_read {
                fhs[f].readv_discard(&req).await.expect("window readv");
            } else {
                fhs[f].writev_discard(&req).await.expect("window writev");
            }
        }
    }
    let now = h.now();
    for &(at, _) in batch {
        sh.finish(at, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ArrivalModel;
    use crate::opstream::{parse_legacy, parse_opstream, synthesize_strided, OpStream};
    use iosim_machine::presets;

    fn strided(ranks: usize, ops_per_rank: u64, record: u64) -> OpStream {
        OpStream::from_legacy(&synthesize_strided(ranks, ops_per_rank, record))
    }

    #[test]
    fn direct_replay_matches_legacy_structure() {
        let s = strided(4, 25, 512);
        let rep = replay(&s, &ReplaySpec::direct(presets::sp2()));
        assert_eq!(rep.stats.summary.rows[3].count, 100); // writes
        assert_eq!(rep.stats.summary.rows[2].count, 100); // seeks
        assert_eq!(rep.stats.io_bytes, 100 * 512);
        assert_eq!(rep.latency.count(), 100);
        assert_eq!(rep.data_ops, 100);
        assert!(rep.ops_per_sec() > 0.0);
    }

    #[test]
    fn three_modes_move_the_same_bytes() {
        let s = strided(4, 40, 1024);
        let direct = replay(&s, &ReplaySpec::direct(presets::sp2()));
        let list = replay(&s, &ReplaySpec::list_io(presets::sp2(), 16));
        let two = replay(&s, &ReplaySpec::two_phase(presets::sp2(), 40));
        assert_eq!(direct.stats.io_bytes, list.stats.io_bytes);
        assert_eq!(direct.stats.io_bytes, two.stats.io_bytes);
        // Strided small ops: batching must beat per-op replay.
        assert!(list.stats.exec_time < direct.stats.exec_time);
        assert!(two.stats.exec_time.as_secs_f64() < direct.stats.exec_time.as_secs_f64() / 2.0);
        // Every data op got a latency sample in every mode.
        assert_eq!(direct.latency.count(), 160);
        assert_eq!(list.latency.count(), 160);
        assert_eq!(two.latency.count(), 160);
    }

    #[test]
    fn collective_replay_is_faster_for_strided_writes() {
        let s = strided(4, 100, 512);
        let direct = replay(&s, &ReplaySpec::direct(presets::sp2()));
        let coll = replay(&s, &ReplaySpec::two_phase(presets::sp2(), 100));
        assert!(
            coll.stats.exec_time.as_secs_f64() < direct.stats.exec_time.as_secs_f64() / 2.0,
            "collective replay should win: {:?} vs {:?}",
            coll.stats.exec_time,
            direct.stats.exec_time
        );
        assert_eq!(coll.stats.io_bytes, direct.stats.io_bytes);
    }

    #[test]
    fn uneven_rank_op_counts_stay_collectively_aligned() {
        // Rank 0 has 7 ops, rank 1 has 2: windows must still align.
        let mut text = String::new();
        for k in 0..7u64 {
            text.push_str(&format!("0 w {} 100\n", k * 100));
        }
        for k in 0..2u64 {
            text.push_str(&format!("1 w {} 100\n", 1000 + k * 100));
        }
        let s = OpStream::from_legacy(&parse_legacy(&text).unwrap());
        let rep = replay(&s, &ReplaySpec::two_phase(presets::sp2(), 3));
        assert_eq!(rep.stats.io_bytes, 900);
        assert_eq!(rep.latency.count(), 9);
    }

    #[test]
    fn mixed_reads_and_writes_replay() {
        let text = "0 w 0 1000\n1 w 1000 1000\n0 r 1000 500\n1 r 0 500\n";
        let s = OpStream::from_legacy(&parse_legacy(text).unwrap());
        let rep = replay(&s, &ReplaySpec::direct(presets::paragon_small()));
        assert_eq!(rep.stats.summary.rows[1].bytes, 1000); // reads
        assert_eq!(rep.stats.summary.rows[3].bytes, 2000); // writes
        let coll = replay(&s, &ReplaySpec::two_phase(presets::paragon_small(), 4));
        let rows = &coll.stats.summary.rows;
        assert_eq!(rows[1].bytes + rows[3].bytes, 3000);
    }

    #[test]
    #[should_panic(expected = "trace needs")]
    fn too_many_ranks_rejected() {
        let s = strided(100, 1, 10);
        let _ = replay(&s, &ReplaySpec::direct(presets::sp2()));
    }

    #[test]
    fn replay_is_deterministic() {
        let s = strided(2, 10, 256);
        let a = replay(&s, &ReplaySpec::list_io(presets::paragon_small(), 8));
        let b = replay(&s, &ReplaySpec::list_io(presets::paragon_small(), 8));
        assert_eq!(a.stats.exec_time, b.stats.exec_time);
        assert_eq!(a.stats.sched_fingerprint, b.stats.sched_fingerprint);
        assert_eq!(a.latency.quantile(0.5), b.latency.quantile(0.5));
    }

    #[test]
    fn dependency_edges_order_cross_rank_ops() {
        // Rank 1's read waits for rank 0's write even though rank 1
        // would otherwise race ahead.
        let text = "\
0 open f
1 open f
0 write f 0 1048576 @w0
1 read f 0 4096 <-w0
0 close f
1 close f
";
        let s = parse_opstream(text).unwrap();
        assert!(s.has_deps());
        let rep = replay(&s, &ReplaySpec::direct(presets::paragon_small()));
        assert_eq!(rep.stats.summary.rows[1].count, 1); // read happened
        assert_eq!(rep.latency.count(), 2);
        // The dependent read cannot have finished before the write.
        let nodep = parse_opstream(&text.replace(" <-w0", "")).unwrap();
        let rep2 = replay(&nodep, &ReplaySpec::direct(presets::paragon_small()));
        assert!(rep.stats.exec_time >= rep2.stats.exec_time);
    }

    #[test]
    fn multi_file_streams_replay_in_all_modes() {
        let text = "\
0 open a
0 open b
1 open a
0 write a 0 4096
0 write b 0 4096
1 write a 4096 4096
0 read a 0 1024
0 close a
0 close b
1 close a
";
        let s = parse_opstream(text).unwrap();
        for spec in [
            ReplaySpec::direct(presets::paragon_small()),
            ReplaySpec::list_io(presets::paragon_small(), 4),
            ReplaySpec::two_phase(presets::paragon_small(), 2),
        ] {
            let rep = replay(&s, &spec);
            assert_eq!(rep.stats.io_bytes, 3 * 4096 + 1024, "{:?}", spec.mode);
            assert_eq!(rep.latency.count(), 4, "{:?}", spec.mode);
        }
    }

    #[test]
    fn open_loop_reports_offered_and_achieved() {
        let synth = SynthSpec {
            clients: 8,
            files: 2,
            fragments: 4,
            op_bytes: 16 << 10,
            file_bytes: 4 << 20,
            ..SynthSpec::small(20.0, 42)
        };
        let rep = run_open_loop(&synth, &ReplaySpec::direct(presets::paragon_small()));
        assert_eq!(rep.offered_ops, rep.completed_ops);
        assert!(rep.offered_ops > 0);
        assert_eq!(rep.latency.count(), rep.completed_ops);
        assert!(rep.achieved_rate > 0.0);
        assert!(rep.overload_ratio() > 0.0);
    }

    #[test]
    fn open_loop_is_bit_deterministic() {
        let synth = SynthSpec {
            clients: 6,
            ..SynthSpec::small(15.0, 9)
        };
        let spec = ReplaySpec::list_io(presets::paragon_small(), 8);
        let a = run_open_loop(&synth, &spec);
        let b = run_open_loop(&synth, &spec);
        assert_eq!(a.stats.exec_time, b.stats.exec_time);
        assert_eq!(a.stats.sched_fingerprint, b.stats.sched_fingerprint);
        assert_eq!(a.completed_ops, b.completed_ops);
        assert_eq!(a.latency.quantile(0.99), b.latency.quantile(0.99));
    }

    #[test]
    fn open_loop_two_phase_batches_windows() {
        let synth = SynthSpec {
            clients: 8,
            ..SynthSpec::small(25.0, 11)
        };
        let rep = run_open_loop(&synth, &ReplaySpec::two_phase(presets::paragon_small(), 8));
        assert_eq!(rep.offered_ops, rep.completed_ops);
        assert!(rep.latency.count() > 0);
    }

    #[test]
    fn open_loop_threaded_is_worker_invariant_and_complete() {
        let synth = SynthSpec {
            clients: 8,
            files: 2,
            ..SynthSpec::small(20.0, 7)
        };
        let spec = ReplaySpec::direct(presets::paragon_small());
        let a = run_open_loop_threaded(&synth, &spec, 1);
        let b = run_open_loop_threaded(&synth, &spec, 4);
        assert_eq!(a.stats.sched_fingerprint, b.stats.sched_fingerprint);
        assert_eq!(a.stats.exec_time, b.stats.exec_time);
        assert_eq!(a.stats.sim_events, b.stats.sim_events);
        assert_eq!(a.stats.io_bytes, b.stats.io_bytes);
        assert_eq!(a.completed_ops, a.offered_ops);
        assert_eq!(a.latency.count(), a.completed_ops);
        assert_eq!(a.latency.quantile(0.99), b.latency.quantile(0.99));
    }

    #[test]
    fn open_loop_threaded_degenerate_matches_monolithic() {
        let synth = SynthSpec {
            clients: 4,
            ..SynthSpec::small(10.0, 5)
        };
        let spec = ReplaySpec::direct(presets::paragon_small().with_io_nodes(1));
        let a = run_open_loop(&synth, &spec);
        let b = run_open_loop_threaded(&synth, &spec, 4);
        assert_eq!(a.stats.sched_fingerprint, b.stats.sched_fingerprint);
        assert_eq!(a.stats.exec_time, b.stats.exec_time);
        assert_eq!(a.stats.sim_events, b.stats.sim_events);
        assert_eq!(a.completed_ops, b.completed_ops);
    }

    /// A dep-bearing stream whose edges cross shard boundaries on any
    /// multi-shard plan: rank 0 writes labelled blocks, every other
    /// rank reads them back.
    fn cross_dep_stream(ranks: usize) -> OpStream {
        let mut text = String::from("0 open f\n");
        for r in 1..ranks {
            text.push_str(&format!("{r} open f\n"));
        }
        for k in 0..4 {
            text.push_str(&format!("0 write f {} 65536 @b{k}\n", k * 65536));
        }
        for r in 1..ranks {
            for k in 0..4 {
                text.push_str(&format!("{r} read f {} 4096 <-b{k}\n", k * 65536));
            }
        }
        for r in 0..ranks {
            text.push_str(&format!("{r} close f\n"));
        }
        parse_opstream(&text).unwrap()
    }

    #[test]
    fn replay_threaded_is_worker_invariant_in_all_modes() {
        let s = cross_dep_stream(4);
        assert!(s.has_deps());
        for spec in [
            ReplaySpec::direct(presets::sp2()),
            ReplaySpec::list_io(presets::sp2(), 4),
            ReplaySpec::two_phase(presets::sp2(), 4),
        ] {
            let a = replay_threaded(&s, &spec, 1);
            for workers in [2, 4] {
                let b = replay_threaded(&s, &spec, workers);
                assert_eq!(
                    a.stats.sched_fingerprint, b.stats.sched_fingerprint,
                    "workers={workers} {:?}",
                    spec.mode
                );
                assert_eq!(a.stats.exec_time, b.stats.exec_time);
                assert_eq!(a.stats.sim_events, b.stats.sim_events);
                assert_eq!(a.stats.io_bytes, b.stats.io_bytes);
                assert_eq!(a.stats.sync_rounds, b.stats.sync_rounds);
                assert_eq!(a.latency.quantile(0.99), b.latency.quantile(0.99));
            }
            assert_eq!(a.latency.count(), s.data_ops(), "{:?}", spec.mode);
            // Two-phase redistribution reads whole stripes, so it can
            // move more than the trace's sparse data bytes.
            assert!(a.stats.io_bytes >= s.data_bytes(), "{:?}", spec.mode);
            assert!(a.stats.sync_rounds > 0, "multi-shard plan must round");
            assert!(a.stats.shard_mem.peak > 0, "shards must account memory");
        }
    }

    #[test]
    fn replay_threaded_degenerate_matches_monolithic() {
        // One I/O node collapses the plan; the threaded entry must be
        // bit-identical to the monolithic engine, not merely close.
        let s = strided(3, 12, 2048);
        for spec in [
            ReplaySpec::direct(presets::paragon_small().with_io_nodes(1)),
            ReplaySpec::list_io(presets::paragon_small().with_io_nodes(1), 4),
            ReplaySpec::two_phase(presets::paragon_small().with_io_nodes(1), 6),
        ] {
            let mono = replay(&s, &spec);
            for workers in [1, 2, 4] {
                let t = replay_threaded(&s, &spec, workers);
                assert_eq!(
                    mono.stats.sched_fingerprint, t.stats.sched_fingerprint,
                    "workers={workers} {:?}",
                    spec.mode
                );
                assert_eq!(mono.stats.exec_time, t.stats.exec_time);
                assert_eq!(mono.stats.sim_events, t.stats.sim_events);
                assert_eq!(t.stats.sync_rounds, 0);
                assert_eq!(mono.latency.quantile(0.5), t.latency.quantile(0.5));
            }
        }
    }

    #[test]
    fn replay_threaded_orders_cross_shard_deps() {
        let s = cross_dep_stream(4);
        let spec = ReplaySpec::direct(presets::sp2());
        let with_deps = replay_threaded(&s, &spec, 4);
        // Stripping the edges lets the readers race ahead of the writer.
        let mut free = s.clone();
        for op in &mut free.ops {
            op.deps.clear();
            op.label = None;
        }
        let without = replay_threaded(&free, &spec, 4);
        assert!(with_deps.stats.exec_time >= without.stats.exec_time);
        assert_eq!(with_deps.stats.io_bytes, without.stats.io_bytes);
    }

    #[test]
    fn adaptive_rounds_never_exceed_static() {
        // Dep-free replay: every shard promises up front and the
        // adaptive window collapses the ladder.
        let s = strided(4, 30, 4096);
        let spec = ReplaySpec::direct(presets::sp2());
        let adaptive = replay_threaded(&s, &spec, 4);
        let fixed = replay_threaded_static(&s, &spec, 4);
        assert_eq!(
            adaptive.stats.sched_fingerprint,
            fixed.stats.sched_fingerprint
        );
        assert_eq!(adaptive.stats.exec_time, fixed.stats.exec_time);
        assert!(adaptive.stats.sync_rounds <= fixed.stats.sync_rounds);
        assert!(
            adaptive.stats.sync_rounds <= 2,
            "dep-free shards never send; got {} rounds",
            adaptive.stats.sync_rounds
        );
        assert!(fixed.stats.sync_rounds > adaptive.stats.sync_rounds);

        // Dep-bearing replay still must not regress past static.
        let d = cross_dep_stream(4);
        let da = replay_threaded(&d, &spec, 4);
        let ds = replay_threaded_static(&d, &spec, 4);
        assert_eq!(da.stats.sched_fingerprint, ds.stats.sched_fingerprint);
        assert!(da.stats.sync_rounds <= ds.stats.sync_rounds);

        // Open-loop shards never talk at all.
        let synth = SynthSpec {
            clients: 8,
            ..SynthSpec::small(20.0, 7)
        };
        let oa = run_open_loop_threaded(&synth, &spec, 4);
        let os = run_open_loop_threaded_static(&synth, &spec, 4);
        assert_eq!(oa.stats.sched_fingerprint, os.stats.sched_fingerprint);
        assert!(oa.stats.sync_rounds <= 2);
        assert!(os.stats.sync_rounds > oa.stats.sync_rounds);
    }

    #[test]
    fn shard_mem_peak_tracks_ranks_per_shard() {
        // Same 4-rank trace, 2 shards vs 4: halving the ranks per shard
        // must shrink the worst single shard's accounted peak.
        let s = strided(4, 50, 4096);
        let wide = replay_threaded(&s, &ReplaySpec::direct(presets::sp2()), 4);
        let narrow = replay_threaded(&s, &ReplaySpec::direct(presets::sp2().with_io_nodes(2)), 4);
        assert!(wide.stats.shard_mem.peak > 0);
        assert!(narrow.stats.shard_mem.peak > 0);
        assert!(
            wide.stats.shard_mem.peak < narrow.stats.shard_mem.peak,
            "4 shards peak {} must be below 2 shards peak {}",
            wide.stats.shard_mem.peak,
            narrow.stats.shard_mem.peak
        );
        // Monolithic runs partition nothing.
        let mono = replay(&s, &ReplaySpec::direct(presets::sp2()));
        assert!(mono.stats.shard_mem.is_empty());
    }

    #[test]
    fn overload_bends_the_latency_curve() {
        // Same population at 1× and 20× the arrival rate: the overloaded
        // run must show a worse overload ratio and higher p99.
        let calm = SynthSpec {
            clients: 16,
            ..SynthSpec::small(5.0, 3)
        };
        let hot = SynthSpec {
            arrival: ArrivalModel::Poisson { rate: 100.0 },
            ..calm.clone()
        };
        let spec = ReplaySpec::direct(presets::paragon_small());
        let a = run_open_loop(&calm, &spec);
        let b = run_open_loop(&hot, &spec);
        assert!(b.offered_rate > a.offered_rate * 10.0);
        assert!(
            b.overload_ratio() < a.overload_ratio(),
            "overload ratio should degrade: calm {} vs hot {}",
            a.overload_ratio(),
            b.overload_ratio()
        );
        assert!(b.latency.p99() > a.latency.p99());
    }

    #[test]
    fn knee_detection_finds_first_saturated_point() {
        let pts = vec![
            SweepPoint {
                offered: 100.0,
                achieved: 99.0,
                p99_ms: 1.0,
            },
            SweepPoint {
                offered: 200.0,
                achieved: 196.0,
                p99_ms: 2.0,
            },
            SweepPoint {
                offered: 400.0,
                achieved: 310.0,
                p99_ms: 40.0,
            },
            SweepPoint {
                offered: 800.0,
                achieved: 315.0,
                p99_ms: 400.0,
            },
        ];
        assert_eq!(saturation_knee(&pts), Some(2));
        assert_eq!(saturation_knee(&pts[..2]), None);
        assert_eq!(saturation_knee(&[]), None);

        // Percentile-path stability: reading each point's p99 through
        // the batched single-scan `quantiles` must leave every sweep
        // point — and therefore the knee index — exactly where the
        // scalar `quantile` path put it.
        let histograms: Vec<LatencyHistogram> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mut h = LatencyHistogram::new();
                for k in 0..100u64 {
                    h.record((p.p99_ms * 1e6) as u64 / 2 + k * 1_000);
                }
                h.record((p.p99_ms * 1e6) as u64 + i as u64);
                h
            })
            .collect();
        let scalar: Vec<SweepPoint> = pts
            .iter()
            .zip(&histograms)
            .map(|(p, h)| SweepPoint {
                p99_ms: h.quantile(0.99) as f64 / 1e6,
                ..*p
            })
            .collect();
        let batched: Vec<SweepPoint> = pts
            .iter()
            .zip(&histograms)
            .map(|(p, h)| SweepPoint {
                p99_ms: h.quantiles(&[0.99])[0] as f64 / 1e6,
                ..*p
            })
            .collect();
        assert_eq!(scalar, batched, "batched quantiles moved a sweep point");
        assert_eq!(saturation_knee(&scalar), saturation_knee(&batched));
        assert_eq!(saturation_knee(&batched), Some(2), "knee index moved");
    }
}
