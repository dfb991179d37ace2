//! Sharded conservative-lookahead execution of multiple `Sim`s.
//!
//! A [`Sim`] is deliberately `!Send`: its executor runs Rc/RefCell state on
//! one thread. This module parallelizes *across* sims instead: the event
//! graph is partitioned into shards, each shard owns an ordinary
//! single-threaded [`Sim`], and the shards advance together through
//! conservative time windows (Chandy–Misra-style null-message reasoning,
//! specialized to a barrier-synchronous window protocol).
//!
//! # Protocol
//!
//! Cross-shard interaction happens only through [`Outbox`] envelopes, and
//! every envelope must be sent with at least `lookahead` of virtual delay
//! (the minimum cross-shard network latency — "free" lookahead extracted
//! from the machine model). Each round:
//!
//! 1. every shard runs all events strictly before the horizon
//!    `H = T + lookahead`, where `T` is the minimum next-event time across
//!    shards at the start of the round ([`Sim::run_until`]);
//! 2. workers exchange the envelopes those events produced (barrier);
//! 3. each shard sorts its incoming envelopes by `(deliver_at, src, seq)`
//!    and injects them as timed deliveries (barrier);
//! 4. the new global minimum next-event time yields the next horizon.
//!
//! Safety: every event executed in a round is at time `t ≥ T`, so any
//! envelope it sends delivers at `t + lookahead ≥ H` — never inside the
//! window being executed, and never in another shard's past. The runtime
//! asserts this invariant on every envelope. Each round advances the
//! horizon by at least one lookahead, so progress is guaranteed.
//!
//! # Adaptive windows (send promises)
//!
//! The static protocol advances the horizon by exactly one lookahead per
//! round, which forces a synchronization round every window even when no
//! shard has any cross-shard traffic pending. Shards can do better by
//! publishing a *send promise* through [`ShardCtx::promise`]: a lower
//! bound on the virtual time of their next cross-shard send. Each round
//! the engine folds the minimum published floor `F` into the horizon,
//! `H = max(T, F) + lookahead`, which is safe by the same argument as the
//! static window: every send happens at an event time `u ≥ max(T, F)`, so
//! its envelope delivers at `u + lookahead ≥ H`. When every shard promises
//! it will never send again, the horizon jumps to infinity and the run
//! completes in a single window. A promise must hold under *all* possible
//! incoming deliveries; the envelope assert catches broken promises.
//! Unset promises (the default, floor 0) reproduce the static protocol
//! exactly.
//!
//! # Determinism
//!
//! The shard decomposition is fixed by the caller (one builder per shard),
//! never by the worker count. A shard's schedule depends only on its own
//! program, the horizon sequence, and its sorted envelope stream — all
//! pure functions of global simulation state — so a run with 1 worker and
//! a run with N workers execute bit-identical per-shard schedules. The
//! combined [`ShardedReport::fingerprint`] (an order-sensitive fold of
//! per-shard schedule fingerprints in shard order) is the regression
//! oracle for that guarantee.

use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::barrier::{SpinBarrier, WaitOutcome};
use crate::executor::{combine_fingerprints, Sim};
use crate::time::{SimDuration, SimTime};

/// How long a worker may spin at a round barrier before concluding that a
/// peer worker is gone and the run is wedged. Rounds are virtual-time
/// windows — host wall time per round is microseconds to low seconds even
/// for the 10k-rank scenarios — so five minutes of one-sided waiting means
/// a peer thread stopped participating without poisoning the run. Rather
/// than hang the process indefinitely (the worst possible CI failure
/// mode), the waiter poisons the run with a diagnostic and every worker
/// unwinds; the caller re-raises it as a panic.
const WEDGE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(300);

/// A cross-shard message in flight: delivered to shard `dst` at virtual
/// time `deliver_at`. Envelopes are globally ordered by
/// `(deliver_at, src, seq)`, which makes the injection order — and hence
/// the destination shard's schedule — independent of host-thread timing.
pub struct Envelope<M> {
    /// Virtual delivery time (must be ≥ the sending round's horizon).
    pub deliver_at: SimTime,
    /// Sending shard index.
    pub src: usize,
    /// Destination shard index.
    pub dst: usize,
    /// Per-sender sequence number (tie-break within one instant).
    pub seq: u64,
    /// The message.
    pub msg: M,
}

/// Per-shard staging queue for outgoing cross-shard envelopes. Cloneable;
/// clones share the queue. Lives on the shard's own thread (`!Send`), like
/// everything else inside a shard.
pub struct Outbox<M> {
    inner: Rc<RefCell<OutboxInner<M>>>,
}

struct OutboxInner<M> {
    src: usize,
    next_seq: u64,
    queue: Vec<Envelope<M>>,
}

impl<M> Clone for Outbox<M> {
    fn clone(&self) -> Self {
        Outbox {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<M> Outbox<M> {
    fn new(src: usize) -> Outbox<M> {
        Outbox {
            inner: Rc::new(RefCell::new(OutboxInner {
                src,
                next_seq: 0,
                queue: Vec::new(),
            })),
        }
    }

    /// Queue `msg` for delivery to shard `dst` at virtual time
    /// `deliver_at`. The delay from the sending event to `deliver_at` must
    /// be at least the engine lookahead; the engine asserts it when the
    /// envelope is collected.
    pub fn send(&self, dst: usize, deliver_at: SimTime, msg: M) {
        let mut inner = self.inner.borrow_mut();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let src = inner.src;
        inner.queue.push(Envelope {
            deliver_at,
            src,
            dst,
            seq,
            msg,
        });
    }

    fn drain(&self) -> Vec<Envelope<M>> {
        std::mem::take(&mut self.inner.borrow_mut().queue)
    }
}

/// A per-shard *send promise*: a lower bound on the virtual time of the
/// shard's next cross-shard send, published to the engine at every
/// synchronization round. Cloneable; clones share the value. The default
/// floor of zero promises nothing and reproduces the static window
/// protocol bit-for-bit.
///
/// A promise is a safety contract: it must hold under every possible
/// sequence of incoming deliveries, not just the expected one. The engine
/// widens windows based on it and asserts (via the envelope lookahead
/// check) when a shard sends earlier than it promised.
#[derive(Clone)]
pub struct SendPromise {
    floor: Rc<Cell<u64>>,
}

impl SendPromise {
    fn new() -> SendPromise {
        SendPromise {
            floor: Rc::new(Cell::new(0)),
        }
    }

    /// Promise that this shard will never send another cross-shard
    /// envelope. When every shard promises this, the engine runs the rest
    /// of the simulation in a single window.
    pub fn promise_never_sends(&self) {
        self.floor.set(NO_EVENT);
    }

    /// Promise that this shard executes no send before virtual time `t`.
    pub fn promise_no_send_before(&self, t: SimTime) {
        self.floor.set(t.as_nanos());
    }

    fn published(&self) -> u64 {
        self.floor.get()
    }
}

/// What a shard builder receives: its identity and its outbox.
pub struct ShardCtx<M> {
    /// This shard's index, `0..shards`.
    pub index: usize,
    /// Total shard count.
    pub shards: usize,
    /// The engine lookahead: the minimum virtual delay every cross-shard
    /// envelope must carry.
    pub lookahead: SimDuration,
    /// Queue for outgoing cross-shard envelopes.
    pub outbox: Outbox<M>,
    /// Adaptive-lookahead handle: the shard's send promise (see
    /// [`SendPromise`]). Ignored by [`run_sharded_static`].
    pub promise: SendPromise,
}

/// What a shard builder returns: the shard's simulation, a delivery hook
/// for incoming envelopes, and a finisher that extracts the shard's
/// result after the run.
pub struct ShardRuntime<M, R> {
    /// The shard's single-threaded simulation, fully populated with tasks.
    pub sim: Sim,
    /// Called at `deliver_at` (in the shard's virtual time) with each
    /// incoming message, in global `(deliver_at, src, seq)` order.
    /// Typically pushes into a channel or wakes a waiting task.
    pub deliver: Box<dyn FnMut(M)>,
    /// Extracts the shard's result once no shard has events left.
    pub finish: Box<dyn FnOnce() -> R>,
}

/// The outcome of a sharded run.
pub struct ShardedReport<R> {
    /// Per-shard results, in shard-index order.
    pub results: Vec<R>,
    /// Order-sensitive fold of per-shard schedule fingerprints (shard
    /// order): bit-identical across worker counts.
    pub fingerprint: u64,
    /// Total task polls across all shards.
    pub events: u64,
    /// Latest virtual time reached by any shard.
    pub end_time: SimTime,
    /// Synchronization rounds executed.
    pub rounds: u64,
    /// Host worker threads actually used.
    pub workers: usize,
}

/// `Option<SimTime>` packed into an atomic: `u64::MAX` means "no event".
const NO_EVENT: u64 = u64::MAX;

fn pack(t: Option<SimTime>) -> u64 {
    match t {
        Some(t) => t.as_nanos(),
        None => NO_EVENT,
    }
}

struct ShardOut<R> {
    result: R,
    fingerprint: u64,
    events: u64,
    end: SimTime,
}

/// Shared engine state visible to all workers.
struct Shared<M, R> {
    lookahead: SimDuration,
    shards: usize,
    workers: usize,
    /// When set, fold published send floors into the horizon (the
    /// adaptive-window protocol); when clear, ignore them (static).
    adaptive: bool,
    barrier: SpinBarrier,
    /// Next-event time per shard (packed; see [`pack`]).
    next_evt: Vec<AtomicU64>,
    /// Earliest delivery time each shard's current round *sent* (packed).
    /// Envelopes staged this round are not yet timers anywhere, so the
    /// horizon computation must count them separately.
    out_min: Vec<AtomicU64>,
    /// Send-promise floor per shard, republished every round (packed:
    /// `NO_EVENT` means "will never send again", 0 means no promise).
    send_floor: Vec<AtomicU64>,
    /// Incoming envelopes per destination shard, staged between rounds.
    inboxes: Vec<Mutex<Vec<Envelope<M>>>>,
    /// Per-shard outputs, filled at the end of the run.
    outputs: Vec<Mutex<Option<ShardOut<R>>>>,
    /// Set when any worker panics; everyone unwinds at the next barrier.
    poisoned: AtomicBool,
    panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl<M, R> Shared<M, R> {
    fn poison(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self.panic_payload.lock().unwrap();
        if slot.is_none() {
            *slot = Some(payload);
        }
        self.poisoned.store(true, Ordering::Release);
    }

    /// Cross the round barrier. Returns `false` when the worker must stop
    /// participating: the run is poisoned (a peer panicked), or no peer
    /// arrived within [`WEDGE_TIMEOUT`] (a peer thread was lost without
    /// poisoning — an engine bug or a torn-down host — which this converts
    /// into a loud panic on the caller instead of an unbounded spin).
    fn sync(&self) -> bool {
        let mut start = None;
        let outcome = self.barrier.wait_or_abort(|| {
            if self.poisoned.load(Ordering::Acquire) {
                return true;
            }
            let t = *start.get_or_insert_with(std::time::Instant::now);
            if t.elapsed() >= WEDGE_TIMEOUT {
                self.poison(Box::new(format!(
                    "sharded engine wedged: a worker waited {WEDGE_TIMEOUT:?} at a round \
                     barrier without its {} peer worker(s) arriving",
                    self.workers - 1
                )));
                return true;
            }
            false
        });
        outcome != WaitOutcome::Aborted && !self.poisoned.load(Ordering::Acquire)
    }
}

/// Run `builders.len()` shards to completion on up to `workers` host
/// threads and collect their results.
///
/// Shard `i` is built and run on worker `i % workers`; the worker count
/// affects only host-thread placement, never the schedule (see the module
/// docs). `lookahead` must be positive when there is more than one shard.
///
/// # Panics
/// Panics if any shard's program panics (the panic is propagated), or if
/// a shard sends a cross-shard envelope with less than `lookahead` of
/// virtual delay.
pub fn run_sharded<M, R, B>(
    lookahead: SimDuration,
    workers: usize,
    builders: Vec<B>,
) -> ShardedReport<R>
where
    M: Send + 'static,
    R: Send + 'static,
    B: FnOnce(ShardCtx<M>) -> ShardRuntime<M, R> + Send,
{
    run_sharded_with_mode(lookahead, workers, builders, true)
}

/// Like [`run_sharded`], but with send promises ignored: every round
/// advances the horizon by exactly one lookahead (the static window
/// protocol). Schedules and fingerprints are identical to the adaptive
/// run — promises only ever *widen* windows past times no event can
/// occupy — so the only observable difference is the round count. Used
/// by the bench suite to measure what the adaptive window saves.
pub fn run_sharded_static<M, R, B>(
    lookahead: SimDuration,
    workers: usize,
    builders: Vec<B>,
) -> ShardedReport<R>
where
    M: Send + 'static,
    R: Send + 'static,
    B: FnOnce(ShardCtx<M>) -> ShardRuntime<M, R> + Send,
{
    run_sharded_with_mode(lookahead, workers, builders, false)
}

fn run_sharded_with_mode<M, R, B>(
    lookahead: SimDuration,
    workers: usize,
    builders: Vec<B>,
    adaptive: bool,
) -> ShardedReport<R>
where
    M: Send + 'static,
    R: Send + 'static,
    B: FnOnce(ShardCtx<M>) -> ShardRuntime<M, R> + Send,
{
    let shards = builders.len();
    assert!(shards > 0, "need at least one shard");
    if shards == 1 {
        return run_single(lookahead, builders.into_iter().next().expect("one builder"));
    }
    assert!(
        lookahead > SimDuration::ZERO,
        "conservative execution needs a positive lookahead"
    );
    let workers = workers.clamp(1, shards);

    let shared: Shared<M, R> = Shared {
        lookahead,
        shards,
        workers,
        adaptive,
        barrier: SpinBarrier::new(workers),
        next_evt: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        out_min: (0..shards).map(|_| AtomicU64::new(NO_EVENT)).collect(),
        send_floor: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        inboxes: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
        outputs: (0..shards).map(|_| Mutex::new(None)).collect(),
        poisoned: AtomicBool::new(false),
        panic_payload: Mutex::new(None),
    };
    let builder_slots: Mutex<Vec<Option<B>>> = Mutex::new(builders.into_iter().map(Some).collect());
    let rounds = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for w in 0..workers {
            let shared = &shared;
            let builder_slots = &builder_slots;
            let rounds = &rounds;
            scope.spawn(move || {
                // `worker_loop` catches panics from shard programs itself;
                // anything escaping it is an engine bug. Poison the run
                // regardless, so peers spinning at a barrier bail out
                // (via `Shared::sync`) instead of waiting forever for a
                // thread that no longer exists.
                if let Err(p) = catch_unwind(AssertUnwindSafe(|| {
                    worker_loop(w, shared, builder_slots, rounds)
                })) {
                    shared.poison(p);
                }
            });
        }
    });

    if shared.poisoned.load(Ordering::Acquire) {
        let payload = shared
            .panic_payload
            .lock()
            .unwrap()
            .take()
            .unwrap_or_else(|| Box::new("sharded worker panicked"));
        resume_unwind(payload);
    }

    let mut results = Vec::with_capacity(shards);
    let mut fingerprints = Vec::with_capacity(shards);
    let mut events = 0u64;
    let mut end_time = SimTime::ZERO;
    for slot in &shared.outputs {
        let out = slot.lock().unwrap().take().expect("shard produced output");
        events += out.events;
        end_time = end_time.max(out.end);
        fingerprints.push(out.fingerprint);
        results.push(out.result);
    }
    ShardedReport {
        results,
        fingerprint: combine_fingerprints(fingerprints),
        events,
        end_time,
        rounds: rounds.load(Ordering::Acquire),
        workers,
    }
}

/// Degenerate one-shard run: no windows, no barriers — the legacy
/// single-executor path, wrapped in the same report shape.
fn run_single<M, R, B>(lookahead: SimDuration, builder: B) -> ShardedReport<R>
where
    B: FnOnce(ShardCtx<M>) -> ShardRuntime<M, R>,
{
    let ctx = ShardCtx {
        index: 0,
        shards: 1,
        lookahead,
        outbox: Outbox::new(0),
        promise: SendPromise::new(),
    };
    let outbox = ctx.outbox.clone();
    let mut rt = builder(ctx);
    let end = rt.sim.run();
    assert!(
        outbox.drain().is_empty(),
        "single-shard run must not send cross-shard envelopes"
    );
    let fingerprint = rt.sim.schedule_fingerprint();
    ShardedReport {
        events: rt.sim.events_processed(),
        fingerprint: combine_fingerprints([fingerprint]),
        end_time: end,
        rounds: 0,
        workers: 1,
        results: vec![(rt.finish)()],
    }
}

/// Shared handle to a shard's envelope-delivery hook.
type DeliverFn<M> = Rc<RefCell<Box<dyn FnMut(M)>>>;

/// One shard as a worker sees it.
struct LocalShard<M, R> {
    index: usize,
    sim: Sim,
    deliver: DeliverFn<M>,
    finish: Option<Box<dyn FnOnce() -> R>>,
    outbox: Outbox<M>,
    promise: SendPromise,
}

fn worker_loop<M, R, B>(
    w: usize,
    shared: &Shared<M, R>,
    builder_slots: &Mutex<Vec<Option<B>>>,
    rounds: &AtomicU64,
) where
    M: Send + 'static,
    R: Send + 'static,
    B: FnOnce(ShardCtx<M>) -> ShardRuntime<M, R> + Send,
{
    // Build this worker's shards. A panicking builder poisons the run but
    // the worker still participates in the barrier protocol so the other
    // workers are not left waiting.
    let mut locals: Vec<LocalShard<M, R>> = Vec::new();
    let built = catch_unwind(AssertUnwindSafe(|| {
        let mut out = Vec::new();
        for index in (w..shared.shards).step_by(shared.workers) {
            let builder = builder_slots.lock().unwrap()[index]
                .take()
                .expect("each shard is built once");
            let outbox = Outbox::new(index);
            let promise = SendPromise::new();
            let rt = builder(ShardCtx {
                index,
                shards: shared.shards,
                lookahead: shared.lookahead,
                outbox: outbox.clone(),
                promise: promise.clone(),
            });
            out.push(LocalShard {
                index,
                sim: rt.sim,
                deliver: Rc::new(RefCell::new(rt.deliver)),
                finish: Some(rt.finish),
                outbox,
                promise,
            });
        }
        out
    }));
    let mut dead = match built {
        Ok(shards) => {
            locals = shards;
            false
        }
        Err(p) => {
            shared.poison(p);
            true
        }
    };

    // All shards start at virtual time zero with their spawns ready, so
    // the initial published next-event times (zero) give T = 0 and the
    // first horizon is exactly one lookahead.
    let mut horizon = SimTime::ZERO + shared.lookahead;
    let mut local_rounds = 0u64;
    loop {
        // Phase 1: run every owned shard up to the horizon and stage the
        // envelopes its events produced. Publish the shard's next pending
        // event time and the earliest delivery it sent this round.
        if !dead {
            let r = catch_unwind(AssertUnwindSafe(|| {
                for shard in locals.iter_mut() {
                    let next = shard.sim.run_until(horizon);
                    shared.next_evt[shard.index].store(pack(next), Ordering::Release);
                    let outgoing = shard.outbox.drain();
                    let mut sent_min = NO_EVENT;
                    if !outgoing.is_empty() {
                        // Group by destination locally, then take each
                        // destination lock once.
                        let mut by_dst: Vec<Vec<Envelope<M>>> = Vec::new();
                        by_dst.resize_with(shared.shards, Vec::new);
                        for env in outgoing {
                            assert!(
                                env.deliver_at >= horizon,
                                "cross-shard envelope from shard {} to {} delivers at {:?}, \
                                 inside the current window (horizon {:?}): the sender undercut \
                                 the engine lookahead of {:?}",
                                env.src,
                                env.dst,
                                env.deliver_at,
                                horizon,
                                shared.lookahead,
                            );
                            assert!(env.dst < shared.shards, "envelope to unknown shard");
                            sent_min = sent_min.min(env.deliver_at.as_nanos());
                            by_dst[env.dst].push(env);
                        }
                        for (dst, batch) in by_dst.into_iter().enumerate() {
                            if !batch.is_empty() {
                                shared.inboxes[dst].lock().unwrap().extend(batch);
                            }
                        }
                    }
                    shared.out_min[shard.index].store(sent_min, Ordering::Release);
                    shared.send_floor[shard.index]
                        .store(shard.promise.published(), Ordering::Release);
                }
            }));
            if let Err(p) = r {
                shared.poison(p);
                dead = true;
            }
        }
        if !shared.sync() {
            break;
        }

        // Between the barriers every worker computes the same next horizon
        // from the same published values: phase 1 (the only writer of
        // `next_evt`/`out_min`) is fenced off by the barrier above, and the
        // next round's phase 1 by the barrier below. Staged envelopes are
        // counted via `out_min` — they are not timers anywhere yet.
        let t = shared
            .next_evt
            .iter()
            .chain(shared.out_min.iter())
            .map(|a| a.load(Ordering::Acquire))
            .min()
            .expect("at least one shard");
        // The published send floors must be read in the same inter-barrier
        // window as `t` (phase 1, their only writer, is fenced off on both
        // sides); the value is applied to the horizon after the next
        // barrier, when every worker has computed the same floor.
        let floor = if shared.adaptive {
            shared
                .send_floor
                .iter()
                .map(|a| a.load(Ordering::Acquire))
                .min()
                .expect("at least one shard")
        } else {
            0
        };

        // Phase 2: inject incoming envelopes in deterministic order. The
        // injector tasks are polled (registering their delivery timers) at
        // the start of the next round's `run_until`, in spawn order —
        // deterministic regardless of worker placement.
        if !dead && t != NO_EVENT {
            let r = catch_unwind(AssertUnwindSafe(|| {
                for shard in locals.iter_mut() {
                    let mut inbox =
                        std::mem::take(&mut *shared.inboxes[shard.index].lock().unwrap());
                    if inbox.is_empty() {
                        continue;
                    }
                    inbox.sort_by_key(|e| (e.deliver_at, e.src, e.seq));
                    for env in inbox {
                        let deliver = Rc::clone(&shard.deliver);
                        let handle = shard.sim.handle();
                        let at = env.deliver_at;
                        let msg = env.msg;
                        shard.sim.spawn(async move {
                            handle.sleep_until(at).await;
                            (deliver.borrow_mut())(msg);
                        });
                    }
                }
            }));
            if let Err(p) = r {
                shared.poison(p);
                dead = true;
            }
        }
        if !shared.sync() {
            break;
        }
        if t == NO_EVENT {
            // No pending timer and no in-flight envelope anywhere: done.
            // Every worker computed the same `t`, so all break together.
            break;
        }
        local_rounds += 1;
        horizon = if floor == NO_EVENT {
            // Every shard promised it will never send again: run the rest
            // of the simulation in one window. Any send after this point
            // is a broken promise and trips the envelope assert above.
            SimTime(NO_EVENT)
        } else {
            // Safe because no event runs before max(T, F): a send at event
            // time u ≥ max(T, F) delivers at u + lookahead ≥ the horizon.
            SimTime(t.max(floor).saturating_add(shared.lookahead.as_nanos()))
        };
    }

    if w == 0 {
        rounds.store(local_rounds, Ordering::Release);
    }
    if shared.poisoned.load(Ordering::Acquire) {
        return;
    }
    let r = catch_unwind(AssertUnwindSafe(|| {
        for shard in locals.iter_mut() {
            let fingerprint = shard.sim.schedule_fingerprint();
            let events = shard.sim.events_processed();
            let end = shard.sim.handle().now();
            let finish = shard.finish.take().expect("finish called once");
            let out = ShardOut {
                result: finish(),
                fingerprint,
                events,
                end,
            };
            *shared.outputs[shard.index].lock().unwrap() = Some(out);
        }
    }));
    if let Err(p) = r {
        shared.poison(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::channel;

    const LOOKAHEAD: SimDuration = SimDuration(50_000); // 50 µs

    /// Two shards ping-pong a counter through the mailbox layer; each hop
    /// carries exactly the lookahead of latency.
    fn ping_pong(workers: usize, hops: u64) -> ShardedReport<(u64, SimTime)> {
        let builders: Vec<_> = (0..2usize)
            .map(|_| {
                move |ctx: ShardCtx<u64>| {
                    let sim = Sim::new();
                    let h = sim.handle();
                    let (tx, rx) = channel::<u64>();
                    let outbox = ctx.outbox.clone();
                    let me = ctx.index;
                    let peer = 1 - me;
                    let count = Rc::new(std::cell::Cell::new(0u64));
                    let count2 = Rc::clone(&count);
                    let h2 = h.clone();
                    sim.spawn(async move {
                        if me == 0 {
                            outbox.send(peer, h2.now() + LOOKAHEAD, 1);
                        }
                        while let Some(v) = rx.recv().await {
                            count2.set(count2.get() + 1);
                            if v < hops {
                                outbox.send(peer, h2.now() + LOOKAHEAD, v + 1);
                            } else {
                                break;
                            }
                        }
                    });
                    ShardRuntime {
                        sim,
                        deliver: Box::new(move |m| {
                            tx.send(m);
                        }),
                        finish: Box::new(move || (count.get(), h.now())),
                    }
                }
            })
            .collect();
        run_sharded(LOOKAHEAD, workers, builders)
    }

    #[test]
    fn ping_pong_carries_latency_per_hop() {
        let report = ping_pong(2, 10);
        // 10 messages, each one lookahead after the previous.
        let received: u64 = report.results.iter().map(|(c, _)| c).sum();
        assert_eq!(received, 10);
        assert_eq!(report.end_time, SimTime(10 * LOOKAHEAD.as_nanos()));
        assert!(report.rounds >= 10);
    }

    #[test]
    fn worker_count_does_not_change_the_schedule() {
        let a = ping_pong(1, 25);
        let b = ping_pong(2, 25);
        let c = ping_pong(7, 25); // clamped to the shard count
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.fingerprint, c.fingerprint);
        assert_eq!(a.events, b.events);
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(c.workers, 2);
    }

    #[test]
    fn outbox_tokens_deliver_in_send_order_one_lookahead_later() {
        // Shard 0 sends three tokens at 10/20/30 µs, each due one
        // lookahead later; shard 1's deliver hook must see them in send
        // order at exactly those instants.
        let run = |workers: usize| {
            let builders: Vec<_> = (0..2usize)
                .map(|_| {
                    |ctx: ShardCtx<u64>| {
                        let sim = Sim::new();
                        let h = sim.handle();
                        if ctx.index == 0 {
                            let outbox = ctx.outbox.clone();
                            let lookahead = ctx.lookahead;
                            let h2 = h.clone();
                            sim.spawn(async move {
                                for token in [3u64, 1, 2] {
                                    h2.sleep(SimDuration::from_micros(10)).await;
                                    outbox.send(1, h2.now() + lookahead, token);
                                }
                            });
                        }
                        let got: Rc<RefCell<Vec<(SimTime, u64)>>> = Rc::default();
                        let got2 = Rc::clone(&got);
                        ShardRuntime {
                            sim,
                            deliver: Box::new(move |token| {
                                got2.borrow_mut().push((h.now(), token))
                            }),
                            finish: Box::new(move || got.take()),
                        }
                    }
                })
                .collect();
            run_sharded(LOOKAHEAD, workers, builders)
        };
        let a = run(1);
        let b = run(2);
        let us = |t: u64| SimTime::ZERO + SimDuration::from_micros(t);
        assert_eq!(a.results[0], vec![]);
        assert_eq!(a.results[1], vec![(us(60), 3), (us(70), 1), (us(80), 2)]);
        assert_eq!(a.results, b.results);
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn single_shard_falls_back_to_plain_run() {
        let report = run_sharded::<u64, SimTime, _>(
            SimDuration::ZERO, // no lookahead needed for one shard
            4,
            vec![|_ctx: ShardCtx<u64>| {
                let sim = Sim::new();
                let h = sim.handle();
                let h2 = h.clone();
                sim.spawn(async move {
                    h2.sleep(SimDuration::from_millis(3)).await;
                });
                ShardRuntime {
                    sim,
                    deliver: Box::new(|_| {}),
                    finish: Box::new(move || h.now()),
                }
            }],
        );
        assert_eq!(report.results, vec![SimTime(3_000_000)]);
        assert_eq!(report.rounds, 0);
        assert_eq!(report.workers, 1);
    }

    #[test]
    fn many_shards_with_local_work_only() {
        // No cross-shard traffic at all: the engine still terminates and
        // aggregates, and the end time is the slowest shard's.
        let run = |workers: usize| {
            let builders: Vec<_> = (0..5usize)
                .map(|i| {
                    move |_ctx: ShardCtx<()>| {
                        let sim = Sim::new();
                        let h = sim.handle();
                        let h2 = h.clone();
                        sim.spawn(async move {
                            for _ in 0..=i {
                                h2.sleep(SimDuration::from_millis(1)).await;
                            }
                        });
                        ShardRuntime {
                            sim,
                            deliver: Box::new(|_| {}),
                            finish: Box::new(move || h.now()),
                        }
                    }
                })
                .collect();
            run_sharded(LOOKAHEAD, workers, builders)
        };
        let a = run(1);
        let b = run(3);
        assert_eq!(a.end_time, SimTime(5_000_000));
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.events, b.events);
    }

    /// Shards that sleep a long time with no cross-shard traffic, with or
    /// without a never-sends promise.
    fn local_sleepers(workers: usize, promised: bool, adaptive: bool) -> ShardedReport<SimTime> {
        let builders: Vec<_> = (0..4usize)
            .map(|i| {
                move |ctx: ShardCtx<()>| {
                    if promised {
                        ctx.promise.promise_never_sends();
                    }
                    let sim = Sim::new();
                    let h = sim.handle();
                    let h2 = h.clone();
                    sim.spawn(async move {
                        for _ in 0..=i {
                            h2.sleep(SimDuration::from_millis(5)).await;
                        }
                    });
                    ShardRuntime {
                        sim,
                        deliver: Box::new(|_| {}),
                        finish: Box::new(move || h.now()),
                    }
                }
            })
            .collect();
        if adaptive {
            run_sharded(LOOKAHEAD, workers, builders)
        } else {
            run_sharded_static(LOOKAHEAD, workers, builders)
        }
    }

    #[test]
    fn never_sends_promise_collapses_rounds() {
        let static_run = local_sleepers(2, false, false);
        let adaptive = local_sleepers(2, true, true);
        // Same schedule, same end time — but the promised run finishes in
        // a couple of windows instead of one per lookahead.
        assert_eq!(static_run.fingerprint, adaptive.fingerprint);
        assert_eq!(static_run.events, adaptive.events);
        assert_eq!(static_run.end_time, adaptive.end_time);
        assert!(
            adaptive.rounds < static_run.rounds,
            "adaptive {} vs static {}",
            adaptive.rounds,
            static_run.rounds
        );
        assert!(adaptive.rounds <= 2, "rounds {}", adaptive.rounds);
        // Worker count still does not matter.
        let adaptive4 = local_sleepers(4, true, true);
        assert_eq!(adaptive.fingerprint, adaptive4.fingerprint);
        assert_eq!(adaptive.rounds, adaptive4.rounds);
    }

    #[test]
    fn unset_promises_reproduce_the_static_protocol() {
        let static_run = local_sleepers(2, false, false);
        let adaptive_unpromised = local_sleepers(2, false, true);
        assert_eq!(static_run.fingerprint, adaptive_unpromised.fingerprint);
        assert_eq!(static_run.rounds, adaptive_unpromised.rounds);
        assert_eq!(static_run.end_time, adaptive_unpromised.end_time);
    }

    #[test]
    fn promises_do_not_change_ping_pong_schedules() {
        // Cross-shard traffic with floors raised between hops: promising a
        // send *at* the hop time must not perturb the schedule. Each shard
        // promises no send before its next possible hop (now + 0): a
        // trivially true floor that exercises the max(T, F) path.
        let run = |workers: usize| {
            let builders: Vec<_> = (0..2usize)
                .map(|_| {
                    move |ctx: ShardCtx<u64>| {
                        let sim = Sim::new();
                        let h = sim.handle();
                        let (tx, rx) = channel::<u64>();
                        let outbox = ctx.outbox.clone();
                        let promise = ctx.promise.clone();
                        let me = ctx.index;
                        let peer = 1 - me;
                        let h2 = h.clone();
                        sim.spawn(async move {
                            if me == 0 {
                                outbox.send(peer, h2.now() + LOOKAHEAD, 1);
                            }
                            while let Some(v) = rx.recv().await {
                                promise.promise_no_send_before(h2.now());
                                if v < 12 {
                                    outbox.send(peer, h2.now() + LOOKAHEAD, v + 1);
                                } else {
                                    promise.promise_never_sends();
                                    break;
                                }
                            }
                        });
                        ShardRuntime {
                            sim,
                            deliver: Box::new(move |m| {
                                tx.send(m);
                            }),
                            finish: Box::new(move || h.now()),
                        }
                    }
                })
                .collect();
            run_sharded(LOOKAHEAD, workers, builders)
        };
        let a = run(1);
        let b = run(2);
        let oracle = ping_pong(2, 12);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.end_time, oracle.end_time);
        assert_eq!(a.end_time, SimTime(12 * LOOKAHEAD.as_nanos()));
    }

    #[test]
    #[should_panic(expected = "undercut the engine lookahead")]
    fn broken_promises_are_detected() {
        // Shard 0 promises it will never send, then sends anyway once the
        // engine has widened the window past the send's delivery time.
        let builders: Vec<_> = (0..2usize)
            .map(|_| {
                |ctx: ShardCtx<u64>| {
                    let sim = Sim::new();
                    let h = sim.handle();
                    ctx.promise.promise_never_sends();
                    if ctx.index == 0 {
                        let outbox = ctx.outbox.clone();
                        let h2 = h.clone();
                        sim.spawn(async move {
                            // Past the first (static) window, inside the
                            // collapsed infinite window.
                            h2.sleep(SimDuration(LOOKAHEAD.as_nanos() * 3)).await;
                            outbox.send(1, h2.now() + LOOKAHEAD, 7);
                        });
                    }
                    ShardRuntime {
                        sim,
                        deliver: Box::new(|_| {}),
                        finish: Box::new(|| ()),
                    }
                }
            })
            .collect();
        run_sharded(LOOKAHEAD, 2, builders);
    }

    #[test]
    #[should_panic(expected = "undercut the engine lookahead")]
    fn undershooting_the_lookahead_is_detected() {
        let builders: Vec<_> = (0..2usize)
            .map(|_| {
                |ctx: ShardCtx<u64>| {
                    let sim = Sim::new();
                    let h = sim.handle();
                    let outbox = ctx.outbox.clone();
                    let me = ctx.index;
                    if me == 0 {
                        let h2 = h.clone();
                        sim.spawn(async move {
                            // Half the required latency: must be caught.
                            outbox.send(1, h2.now() + SimDuration(LOOKAHEAD.as_nanos() / 2), 9);
                        });
                    }
                    ShardRuntime {
                        sim,
                        deliver: Box::new(|_| {}),
                        finish: Box::new(|| ()),
                    }
                }
            })
            .collect();
        run_sharded(LOOKAHEAD, 2, builders);
    }

    #[test]
    #[should_panic(expected = "shard task exploded")]
    fn worker_panics_propagate() {
        let builders: Vec<_> = (0..3usize)
            .map(|i| {
                move |_ctx: ShardCtx<()>| {
                    let sim = Sim::new();
                    let h = sim.handle();
                    if i == 1 {
                        let h2 = h.clone();
                        sim.spawn(async move {
                            h2.sleep(SimDuration::from_millis(1)).await;
                            panic!("shard task exploded");
                        });
                    }
                    ShardRuntime {
                        sim,
                        deliver: Box::new(|_| {}),
                        finish: Box::new(|| ()),
                    }
                }
            })
            .collect();
        run_sharded(LOOKAHEAD, 2, builders);
    }
}
