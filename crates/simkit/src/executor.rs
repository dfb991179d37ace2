//! The deterministic virtual-time executor.
//!
//! A [`Sim`] owns a set of tasks (plain Rust futures) and an event heap of
//! timers. The run loop polls every ready task until quiescence, then pops
//! the earliest timer batch, advances virtual time to it, and wakes its
//! tasks. Ties on the heap are broken by insertion sequence number, so a
//! given program always produces the same schedule — simulations are
//! exactly reproducible.
//!
//! The executor is single-threaded and `!Send`; cross-configuration sweeps
//! parallelize at the granularity of whole `Sim` instances instead.
//!
//! # Hot-path design
//!
//! The scheduling loop is the inner loop of every experiment, so it pays
//! for nothing it does not need (DESIGN.md §15):
//!
//! - **Lock-free ready queue.** Tasks are woken through a custom
//!   [`RawWaker`] vtable over a non-atomic `Rc`, pushing into a plain
//!   `RefCell<VecDeque>` — no `Mutex`, no atomic reference counts.
//! - **Slab task storage.** Tasks live in a `Vec<Option<Task>>` indexed by
//!   task id with a free list; a poll takes the future out of its slot and
//!   puts it back (two pointer moves), instead of a `HashMap`
//!   remove + re-insert per poll.
//! - **One waker per task.** The per-task wake state is allocated once at
//!   spawn and reused for every poll and every timer; polls borrow it
//!   without touching the reference count.
//! - **Wake deduplication.** A per-task `queued` flag makes duplicate
//!   wakes of an already-queued task no-ops at enqueue time instead of
//!   round-tripping through the queue as spurious polls.
//! - **Batched timer pops.** All timers at the next instant are popped
//!   from the heap in one borrow and woken in `(time, seq)` order before
//!   the ready queue drains again.
//!
//! ## Safety invariant
//!
//! `std::task::Waker` is unconditionally `Send + Sync`, but the wakers
//! minted here wrap a non-atomic `Rc` and must never leave the executor's
//! thread. [`Sim`] and every handle into it are `!Send`, and the
//! simulation's futures run only on the thread that owns the `Sim`, so a
//! waker can only escape if a task deliberately smuggles it to another
//! thread (e.g. via `std::thread::spawn`) — which nothing in this
//! workspace does and which the simulation model (single-threaded virtual
//! time) rules out by construction.

use std::cell::{Cell, RefCell};
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::mem::ManuallyDrop;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

use crate::time::{SimDuration, SimTime};

type BoxFuture = Pin<Box<dyn Future<Output = ()>>>;

/// Shared mutable waker slot: the most recent poller of a [`Sleep`] (or
/// any future registering a timer) parks its waker here, and the timer
/// reads the slot at fire time — so re-polling from a different task
/// (select/race patterns) retargets the timer instead of waking a stale
/// task.
type WakerSlot = Rc<Cell<Option<Waker>>>;

/// A pending timer. Entries order by `(time, seq)` only; `seq` is unique
/// per registration, so the order is total and the heap's pop order is
/// fully determined by the keys, never by its internal layout.
struct TimerEntry {
    time: SimTime,
    seq: u64,
    slot: WakerSlot,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}

impl Eq for TimerEntry {}

impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Ready queue of `(slab index, spawn serial)` pairs. The serial lets the
/// run loop reject entries whose slot was freed and reused since enqueue.
type ReadyQueue = Rc<RefCell<VecDeque<(usize, u64)>>>;

/// Per-task wake state, allocated once at spawn and shared (via the raw
/// vtable below) with every waker handed to the task's polls.
struct WakeState {
    /// Slab index of the task.
    index: usize,
    /// Monotonic spawn serial; survives slot reuse and is what the
    /// schedule fingerprint records.
    serial: u64,
    /// True while the task sits in the ready queue: duplicate wakes
    /// dedupe here instead of producing spurious polls.
    queued: Cell<bool>,
    /// Set when the task completes; late wakes from stale timers or
    /// abandoned channels become no-ops.
    dead: Cell<bool>,
    ready: ReadyQueue,
}

impl WakeState {
    fn wake(&self) {
        if !self.dead.get() && !self.queued.get() {
            self.queued.set(true);
            self.ready.borrow_mut().push_back((self.index, self.serial));
        }
    }
}

/// Custom waker vtable over `Rc<WakeState>`: cloning and dropping touch a
/// non-atomic reference count and waking is a flag check plus a `VecDeque`
/// push — no allocation, no locks, no atomics. See the module-level safety
/// invariant.
static WAKER_VTABLE: RawWakerVTable = RawWakerVTable::new(
    |ptr| {
        // SAFETY: `ptr` came from `Rc::into_raw` and the count is
        // incremented for the new waker before both are used.
        unsafe { Rc::increment_strong_count(ptr as *const WakeState) };
        RawWaker::new(ptr, &WAKER_VTABLE)
    },
    |ptr| {
        // SAFETY: consumes the waker's reference.
        let state = unsafe { Rc::from_raw(ptr as *const WakeState) };
        state.wake();
    },
    |ptr| {
        // SAFETY: borrows the waker's reference without consuming it.
        let state = ManuallyDrop::new(unsafe { Rc::from_raw(ptr as *const WakeState) });
        state.wake();
    },
    |ptr| {
        // SAFETY: consumes the waker's reference.
        drop(unsafe { Rc::from_raw(ptr as *const WakeState) });
    },
);

/// A task slot: the future plus its cached wake state.
struct Task {
    /// Taken out of the slot for the duration of a poll (so the poll may
    /// re-borrow the slab to spawn) and put back if still pending.
    fut: Option<BoxFuture>,
    state: Rc<WakeState>,
}

/// Slab of tasks indexed by task id, with a free list of vacated slots.
#[derive(Default)]
struct Slab {
    slots: Vec<Option<Task>>,
    free: Vec<usize>,
}

impl Slab {
    /// Reserve a slot index for a new task.
    fn alloc(&mut self) -> usize {
        match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        }
    }
}

/// FNV-1a offset basis; the schedule fingerprint folds each polled task's
/// spawn serial into this running hash.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv_fold(acc: u64, v: u64) -> u64 {
    let mut acc = acc;
    for byte in v.to_le_bytes() {
        acc = (acc ^ byte as u64).wrapping_mul(FNV_PRIME);
    }
    acc
}

/// Advance the clock to `first`'s instant and move every timer due at
/// that instant into `batch`, in `(time, seq)` order.
fn pop_instant(
    core: &Core,
    timers: &mut BinaryHeap<Reverse<TimerEntry>>,
    first: TimerEntry,
    batch: &mut Vec<WakerSlot>,
) {
    let instant = first.time;
    debug_assert!(instant >= core.now.get());
    core.now.set(instant);
    batch.push(first.slot);
    while timers.peek().is_some_and(|Reverse(e)| e.time == instant) {
        let Reverse(e) = timers.pop().expect("peeked entry");
        batch.push(e.slot);
    }
}

/// Poll ready tasks until the queue is empty — the scheduler hot loop.
fn drain_ready(core: &Core) {
    loop {
        let next = core.ready.borrow_mut().pop_front();
        let Some((index, serial)) = next else { break };
        // Take the future out of its slot for the poll; a vacated or
        // reused slot means the wake went stale in the queue.
        let polled = {
            let mut slab = core.tasks.borrow_mut();
            match slab.slots[index].as_mut() {
                Some(task) if task.state.serial == serial => {
                    task.state.queued.set(false);
                    task.fut.take().map(|fut| (fut, Rc::clone(&task.state)))
                }
                _ => None,
            }
        };
        let Some((mut fut, state)) = polled else {
            continue;
        };
        core.events_processed.set(core.events_processed.get() + 1);
        core.fingerprint
            .set(fnv_fold(core.fingerprint.get(), serial));
        // Borrow the cached wake state as a waker without touching
        // its reference count; `state` outlives the context.
        // SAFETY: the pointer comes from a live `Rc` and the
        // `ManuallyDrop` suppresses the borrowed count decrement.
        let waker = ManuallyDrop::new(unsafe {
            Waker::from_raw(RawWaker::new(Rc::as_ptr(&state).cast(), &WAKER_VTABLE))
        });
        let mut cx = Context::from_waker(&waker);
        if fut.as_mut().poll(&mut cx).is_pending() {
            let mut slab = core.tasks.borrow_mut();
            if let Some(task) = slab.slots[index].as_mut() {
                task.fut = Some(fut);
            }
        } else {
            state.dead.set(true);
            let mut slab = core.tasks.borrow_mut();
            slab.slots[index] = None;
            slab.free.push(index);
        }
    }
}

struct Core {
    now: Cell<SimTime>,
    seq: Cell<u64>,
    /// Pending timers as a min-heap on `(time, seq)`.
    timers: RefCell<BinaryHeap<Reverse<TimerEntry>>>,
    ready: ReadyQueue,
    tasks: RefCell<Slab>,
    next_serial: Cell<u64>,
    events_processed: Cell<u64>,
    fingerprint: Cell<u64>,
    /// Reusable buffer for batched same-instant timer pops.
    timer_batch: RefCell<Vec<WakerSlot>>,
    /// Recycled waker slots: a completed [`Sleep`] returns its slot here
    /// so steady-state timer traffic allocates nothing. Bounded so a
    /// one-off burst of concurrent sleeps cannot pin memory forever.
    slot_pool: RefCell<Vec<WakerSlot>>,
}

/// Upper bound on [`Core::slot_pool`] retention.
const SLOT_POOL_CAP: usize = 4096;

/// A cloneable, lightweight handle into a running simulation.
///
/// Handles are captured by tasks to read the clock, sleep, and spawn
/// subtasks. All clones refer to the same simulation.
#[derive(Clone)]
pub struct SimHandle {
    core: Rc<Core>,
}

/// A deterministic discrete-event simulation.
pub struct Sim {
    handle: SimHandle,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Create an empty simulation at virtual time zero.
    pub fn new() -> Sim {
        Sim {
            handle: SimHandle {
                core: Rc::new(Core {
                    now: Cell::new(SimTime::ZERO),
                    seq: Cell::new(0),
                    timers: RefCell::new(BinaryHeap::new()),
                    ready: Rc::new(RefCell::new(VecDeque::new())),
                    tasks: RefCell::new(Slab::default()),
                    next_serial: Cell::new(0),
                    events_processed: Cell::new(0),
                    fingerprint: Cell::new(FNV_OFFSET),
                    timer_batch: RefCell::new(Vec::new()),
                    slot_pool: RefCell::new(Vec::new()),
                }),
            },
        }
    }

    /// The handle used by tasks to interact with the simulation.
    pub fn handle(&self) -> SimHandle {
        self.handle.clone()
    }

    /// Spawn a root task. Equivalent to `handle().spawn(fut)`.
    pub fn spawn<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> JoinHandle<T> {
        self.handle.spawn(fut)
    }

    /// Run until no runnable task and no pending timer remain, and return
    /// the final virtual time.
    ///
    /// Tasks still blocked on a channel/barrier with no peer are simply
    /// dropped when the simulation ends (deadlock is not an error at this
    /// layer; higher layers assert on join handles instead).
    pub fn run(&mut self) -> SimTime {
        let core = &self.handle.core;
        loop {
            // Drain the ready queue to quiescence at the current instant.
            drain_ready(core);
            // Advance to the next timer instant. Every entry at that
            // instant is popped off the heap in one batch (single heap
            // borrow), then woken one at a time with a ready-queue drain
            // after each wake. The per-wake drain preserves the legacy
            // executor's schedule exactly — the wake chain set off by
            // timer k is fully polled before timer k+1 fires — which is
            // what keeps virtual times bit-identical across the rewrite
            // in contention-heavy runs. Timers a woken task registers
            // *at the same instant* carry later seqs and fire on the
            // next trip around the outer loop, still in (time, seq)
            // order, matching the legacy pop-one-at-a-time heap order.
            let mut batch = core.timer_batch.borrow_mut();
            {
                let mut timers = core.timers.borrow_mut();
                let Some(Reverse(first)) = timers.pop() else {
                    break;
                };
                pop_instant(core, &mut timers, first, &mut batch);
            }
            for slot in batch.drain(..) {
                if let Some(w) = slot.take() {
                    w.wake();
                }
                drain_ready(core);
            }
        }
        core.now.get()
    }
    /// Run until the next pending event is at or after `horizon` (or no
    /// event remains), and return that next event's time.
    ///
    /// Everything strictly before `horizon` executes exactly as [`Sim::run`]
    /// would have executed it: the ready queue drains to quiescence and
    /// same-instant timer batches pop in `(time, seq)` order, so a sequence
    /// of `run_until` calls with increasing horizons produces the same
    /// schedule — and the same [`Sim::schedule_fingerprint`] — as one
    /// uninterrupted `run`. This is the primitive the sharded
    /// conservative-lookahead engine ([`crate::shard`]) uses to advance each
    /// shard through one synchronization window at a time.
    ///
    /// Returns `None` when the simulation is quiescent (no runnable task
    /// and no pending timer), `Some(t)` with `t >= horizon` otherwise.
    pub fn run_until(&mut self, horizon: SimTime) -> Option<SimTime> {
        let core = &self.handle.core;
        loop {
            drain_ready(core);
            let mut batch = core.timer_batch.borrow_mut();
            {
                let mut timers = core.timers.borrow_mut();
                match timers.peek() {
                    None => return None,
                    Some(Reverse(e)) if e.time >= horizon => return Some(e.time),
                    Some(_) => {}
                }
                let Reverse(first) = timers.pop().expect("peeked entry");
                pop_instant(core, &mut timers, first, &mut batch);
            }
            for slot in batch.drain(..) {
                if let Some(w) = slot.take() {
                    w.wake();
                }
                drain_ready(core);
            }
        }
    }

    /// Run a single root future to completion and return its output along
    /// with the final virtual time. Panics if the future deadlocks (cannot
    /// complete before the event queue empties).
    pub fn run_to_completion<T: 'static>(
        fut: impl FnOnce(SimHandle) -> Pin<Box<dyn Future<Output = T>>>,
    ) -> (T, SimTime) {
        let mut sim = Sim::new();
        let handle = sim.handle();
        let jh = sim.spawn(fut(handle));
        let end = sim.run();
        let out = jh
            .try_take()
            .expect("root task did not complete: simulation deadlocked");
        (out, end)
    }

    /// Number of task polls performed so far (a rough event count, useful
    /// for performance diagnostics).
    pub fn events_processed(&self) -> u64 {
        self.handle.core.events_processed.get()
    }

    /// Order-sensitive hash of the schedule so far: an FNV-1a fold of the
    /// spawn serial of every task poll, in poll order. Two runs of the
    /// same program produce the same fingerprint if and only if the
    /// executor polled the same tasks in the same order — the regression
    /// oracle for scheduler changes.
    pub fn schedule_fingerprint(&self) -> u64 {
        self.handle.core.fingerprint.get()
    }
}

/// Dropping the simulation drops every task still pending in it. Parked
/// daemons (such as the I/O-node queue daemons, which wait on their
/// channels forever) capture handles back into the core, so leaving them
/// in the slab would form an `Rc` cycle that keeps the core, and
/// everything the daemons hold, alive.
/// The slab is taken out first so the futures' own destructors (which may
/// wake, release timer slots or drop handles) run outside any borrow.
impl Drop for Sim {
    fn drop(&mut self) {
        let pending = std::mem::take(&mut *self.handle.core.tasks.borrow_mut());
        drop(pending);
    }
}

impl SimHandle {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.core.now.get()
    }

    fn next_seq(&self) -> u64 {
        let s = self.core.seq.get();
        self.core.seq.set(s + 1);
        s
    }

    /// Register a timer that, at `deadline`, wakes whatever waker then
    /// sits in `slot`.
    /// Take a recycled waker slot (or allocate a fresh one). The slot is
    /// always empty on return.
    fn acquire_slot(&self) -> WakerSlot {
        self.core.slot_pool.borrow_mut().pop().unwrap_or_default()
    }

    /// Recycle a waker slot if this was the last reference to it (a slot
    /// still held by an unfired timer entry must not be reused).
    fn release_slot(&self, slot: WakerSlot) {
        if Rc::strong_count(&slot) == 1 {
            slot.set(None);
            let mut pool = self.core.slot_pool.borrow_mut();
            if pool.len() < SLOT_POOL_CAP {
                pool.push(slot);
            }
        }
    }

    pub(crate) fn register_timer(&self, deadline: SimTime, slot: WakerSlot) {
        let seq = self.next_seq();
        self.core.timers.borrow_mut().push(Reverse(TimerEntry {
            time: deadline.max(self.now()),
            seq,
            slot,
        }));
    }

    /// Spawn a task; it begins running when the executor next reaches the
    /// scheduling loop (at the current virtual instant).
    pub fn spawn<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> JoinHandle<T> {
        let slot: Rc<RefCell<JoinSlot<T>>> = Rc::new(RefCell::new(JoinSlot {
            value: None,
            waker: None,
            finished: false,
        }));
        let slot2 = Rc::clone(&slot);
        let wrapped: BoxFuture = Box::pin(async move {
            let v = fut.await;
            let mut s = slot2.borrow_mut();
            s.value = Some(v);
            s.finished = true;
            if let Some(w) = s.waker.take() {
                w.wake();
            }
        });
        let serial = self.core.next_serial.get();
        self.core.next_serial.set(serial + 1);
        let mut slab = self.core.tasks.borrow_mut();
        let index = slab.alloc();
        let state = Rc::new(WakeState {
            index,
            serial,
            queued: Cell::new(false),
            dead: Cell::new(false),
            ready: Rc::clone(&self.core.ready),
        });
        slab.slots[index] = Some(Task {
            fut: Some(wrapped),
            state: Rc::clone(&state),
        });
        drop(slab);
        state.wake();
        JoinHandle { slot }
    }

    /// Sleep for `dur` of virtual time.
    pub fn sleep(&self, dur: SimDuration) -> Sleep {
        self.sleep_until(self.now() + dur)
    }

    /// Sleep until the given instant (no-op if already past).
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            handle: self.clone(),
            deadline,
            slot: None,
        }
    }

    /// Yield to let other already-runnable tasks at this instant run
    /// first. (A zero-duration sleep would complete without yielding,
    /// since its deadline is already reached on the first poll.)
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { yielded: false }
    }
}

/// Future returned by [`SimHandle::yield_now`]: pending once, then ready.
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

struct JoinSlot<T> {
    value: Option<T>,
    waker: Option<Waker>,
    /// Completion flag, independent of `value` so [`JoinHandle::is_finished`]
    /// stays true after the output is taken.
    finished: bool,
}

/// Awaits the completion of a spawned task and yields its output.
pub struct JoinHandle<T> {
    slot: Rc<RefCell<JoinSlot<T>>>,
}

impl<T> JoinHandle<T> {
    /// Take the task output if it has completed, without awaiting.
    pub fn try_take(&self) -> Option<T> {
        self.slot.borrow_mut().value.take()
    }

    /// Whether the task has finished (output may already be taken).
    pub fn is_finished(&self) -> bool {
        self.slot.borrow().finished
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut slot = self.slot.borrow_mut();
        if let Some(v) = slot.value.take() {
            Poll::Ready(v)
        } else {
            // Skip the clone when the same task re-polls (cached wakers
            // make `will_wake` an exact identity test).
            match &slot.waker {
                Some(w) if w.will_wake(cx.waker()) => {}
                _ => slot.waker = Some(cx.waker().clone()),
            }
            Poll::Pending
        }
    }
}

/// Future returned by [`SimHandle::sleep`].
pub struct Sleep {
    handle: SimHandle,
    deadline: SimTime,
    /// Shared waker slot the timer reads at fire time; created on first
    /// registration and refreshed on every later poll, so the timer wakes
    /// the *most recent* poller even if the sleep migrated between tasks
    /// (select/race patterns).
    slot: Option<WakerSlot>,
}

impl Future for Sleep {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.handle.now() >= self.deadline {
            return Poll::Ready(());
        }
        match &self.slot {
            None => {
                let slot = self.handle.acquire_slot();
                slot.set(Some(cx.waker().clone()));
                self.handle.register_timer(self.deadline, Rc::clone(&slot));
                self.slot = Some(slot);
            }
            Some(slot) => match slot.take() {
                Some(w) if w.will_wake(cx.waker()) => slot.set(Some(w)),
                _ => slot.set(Some(cx.waker().clone())),
            },
        }
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            self.handle.release_slot(slot);
        }
    }
}

/// Fold a sequence of per-shard schedule fingerprints into one combined
/// fingerprint, using the same FNV-1a fold the per-sim fingerprint uses.
/// The fold is order-sensitive; callers pass parts in shard-index order so
/// the combined value is independent of host-thread interleaving.
pub fn combine_fingerprints<I: IntoIterator<Item = u64>>(parts: I) -> u64 {
    let mut acc = FNV_OFFSET;
    for p in parts {
        acc = fnv_fold(acc, p);
    }
    acc
}

/// Await `fut` with a virtual-time deadline: `Some(output)` if it
/// completes within `dur`, `None` otherwise. The future is spawned, so on
/// timeout it keeps running detached (like an abandoned I/O request);
/// callers that need cancellation should check a flag inside the future.
pub async fn with_timeout<T: 'static>(
    handle: &SimHandle,
    dur: SimDuration,
    fut: impl Future<Output = T> + 'static,
) -> Option<T> {
    let deadline = handle.now() + dur;
    let jh = handle.spawn(fut);
    // Poll the join handle against the deadline via a race future.
    struct Race<T> {
        jh: JoinHandle<T>,
        sleep: Sleep,
    }
    impl<T> Future for Race<T> {
        type Output = Option<T>;
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
            // All fields are Unpin, so the struct is too.
            let this = self.get_mut();
            if let Poll::Ready(v) = Pin::new(&mut this.jh).poll(cx) {
                return Poll::Ready(Some(v));
            }
            if Pin::new(&mut this.sleep).poll(cx).is_ready() {
                return Poll::Ready(None);
            }
            Poll::Pending
        }
    }
    Race {
        jh,
        sleep: handle.sleep_until(deadline),
    }
    .await
}

/// Await every future in `futs` (spawned concurrently in virtual time) and
/// collect their outputs in order.
///
/// Because awaiting a [`JoinHandle`] consumes no virtual time, the caller
/// resumes at the virtual instant when the *last* future finishes — i.e.
/// this is a fork/join with correct parallel timing.
pub async fn join_all<T: 'static, F>(handle: &SimHandle, futs: Vec<F>) -> Vec<T>
where
    F: Future<Output = T> + 'static,
{
    let handles: Vec<JoinHandle<T>> = futs.into_iter().map(|f| handle.spawn(f)).collect();
    let mut out = Vec::with_capacity(handles.len());
    for h in handles {
        out.push(h.await);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleep_advances_virtual_time() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let jh = sim.spawn(async move {
            h.sleep(SimDuration::from_millis(250)).await;
            h.now()
        });
        let end = sim.run();
        assert_eq!(end, SimTime(250_000_000));
        assert_eq!(jh.try_take().unwrap(), SimTime(250_000_000));
    }

    #[test]
    fn tasks_interleave_deterministically() {
        let mut sim = Sim::new();
        let log: Rc<RefCell<Vec<(u32, u64)>>> = Rc::new(RefCell::new(Vec::new()));
        for id in 0..3u32 {
            let h = sim.handle();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                for _step in 0..3u64 {
                    h.sleep(SimDuration::from_millis(10 * (id as u64 + 1)))
                        .await;
                    log.borrow_mut().push((id, h.now().as_nanos() / 1_000_000));
                }
            });
        }
        sim.run();
        let got = log.borrow().clone();
        // Task 0 ticks at 10,20,30; task 1 at 20,40,60; task 2 at 30,60,90.
        // Ties resolve by timer registration order: task 1 registered its
        // t=20 timer at t=0, before task 0 re-registered at t=10, so task 1
        // fires first at t=20; likewise at t=30 and t=60.
        assert_eq!(
            got,
            vec![
                (0, 10),
                (1, 20),
                (0, 20),
                (2, 30),
                (0, 30),
                (1, 40),
                (2, 60),
                (1, 60),
                (2, 90)
            ]
        );
    }

    #[test]
    fn join_all_resumes_at_last_completion() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let jh = sim.spawn(async move {
            let h2 = h.clone();
            let futs: Vec<_> = (1..=4u64)
                .map(|i| {
                    let h3 = h2.clone();
                    async move {
                        h3.sleep(SimDuration::from_secs(i)).await;
                        i
                    }
                })
                .collect();
            let outs = join_all(&h2, futs).await;
            (outs, h2.now())
        });
        sim.run();
        let (outs, t) = jh.try_take().unwrap();
        assert_eq!(outs, vec![1, 2, 3, 4]);
        assert_eq!(t, SimTime::ZERO + SimDuration::from_secs(4));
    }

    #[test]
    fn nested_spawn_runs_at_same_instant() {
        let (val, end) = Sim::run_to_completion(|h| {
            Box::pin(async move {
                let child = h.spawn(async { 42 });
                child.await
            })
        });
        assert_eq!(val, 42);
        assert_eq!(end, SimTime::ZERO);
    }

    #[test]
    fn run_returns_final_time_with_no_tasks() {
        let mut sim = Sim::new();
        assert_eq!(sim.run(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "deadlocked")]
    fn run_to_completion_detects_deadlock() {
        Sim::run_to_completion(|_h| {
            Box::pin(async move {
                // A future that is never woken.
                std::future::pending::<()>().await;
            })
        });
    }

    #[test]
    fn sleep_until_past_instant_is_noop() {
        let (t, end) = Sim::run_to_completion(|h| {
            Box::pin(async move {
                h.sleep(SimDuration::from_secs(5)).await;
                h.sleep_until(SimTime(1)).await; // already past
                h.now()
            })
        });
        assert_eq!(t, SimTime::ZERO + SimDuration::from_secs(5));
        assert_eq!(end, t);
    }

    #[test]
    fn blocked_tasks_are_dropped_cleanly_at_sim_end() {
        // A task waiting on a channel with no sender left alive at the
        // end of the run is simply dropped — no panic, no leak observable
        // through the join handle.
        let mut sim = Sim::new();
        let (tx, rx) = crate::sync::channel::<u32>();
        let jh = sim.spawn(async move { rx.recv().await });
        let end = sim.run(); // tx still alive: recv never resolves
        assert_eq!(end, SimTime::ZERO);
        assert!(!jh.is_finished());
        drop(tx);
    }

    #[test]
    fn yield_now_lets_peers_run_first() {
        let (order, _) = Sim::run_to_completion(|h| {
            Box::pin(async move {
                let log: Rc<RefCell<Vec<u32>>> = Rc::default();
                let l1 = Rc::clone(&log);
                let peer = h.spawn(async move {
                    l1.borrow_mut().push(1);
                });
                h.yield_now().await;
                log.borrow_mut().push(2);
                peer.await;
                let order = log.borrow().clone();
                order
            })
        });
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn with_timeout_returns_some_when_fast() {
        let (out, _) = Sim::run_to_completion(|h| {
            Box::pin(async move {
                let h2 = h.clone();
                with_timeout(&h, SimDuration::from_secs(10), async move {
                    h2.sleep(SimDuration::from_secs(1)).await;
                    42
                })
                .await
            })
        });
        assert_eq!(out, Some(42));
    }

    #[test]
    fn with_timeout_returns_none_when_slow() {
        let (out, end) = Sim::run_to_completion(|h| {
            Box::pin(async move {
                let h2 = h.clone();
                let r = with_timeout(&h, SimDuration::from_secs(1), async move {
                    h2.sleep(SimDuration::from_secs(10)).await;
                    42
                })
                .await;
                (r, h.now())
            })
        });
        let (r, t) = out;
        assert_eq!(r, None);
        assert_eq!(t, SimTime(1_000_000_000));
        // The abandoned future still runs to completion.
        assert_eq!(end, SimTime(10_000_000_000));
    }

    #[test]
    fn events_processed_counts_polls() {
        let mut sim = Sim::new();
        let h = sim.handle();
        sim.spawn(async move {
            for _ in 0..10 {
                h.sleep(SimDuration::from_millis(1)).await;
            }
        });
        sim.run();
        assert!(sim.events_processed() >= 10);
    }

    #[test]
    fn is_finished_survives_try_take() {
        let mut sim = Sim::new();
        let jh = sim.spawn(async { 7u32 });
        assert!(!jh.is_finished());
        sim.run();
        assert!(jh.is_finished());
        assert_eq!(jh.try_take(), Some(7));
        // The documented contract: "output may already be taken".
        assert!(jh.is_finished());
        assert_eq!(jh.try_take(), None);
    }

    #[test]
    fn schedule_fingerprint_is_deterministic_and_order_sensitive() {
        let run_once = |flip: bool| {
            let mut sim = Sim::new();
            let h = sim.handle();
            for i in 0..4u64 {
                let h2 = h.clone();
                let d = if flip { 4 - i } else { i + 1 };
                sim.spawn(async move {
                    h2.sleep(SimDuration::from_millis(d)).await;
                });
            }
            sim.run();
            sim.schedule_fingerprint()
        };
        assert_eq!(run_once(false), run_once(false));
        assert_ne!(run_once(false), run_once(true));
    }

    #[test]
    fn duplicate_wakes_dedupe_to_one_poll() {
        // Two sends at the same instant enqueue the receiver once, not
        // twice: the `queued` flag absorbs the duplicate wake.
        let (polls, _) = Sim::run_to_completion(|h| {
            Box::pin(async move {
                let (tx, rx) = crate::sync::channel::<u32>();
                let h2 = h.clone();
                let consumer = h.spawn(async move {
                    let mut got = Vec::new();
                    while let Some(v) = rx.recv().await {
                        got.push(v);
                    }
                    got
                });
                h2.yield_now().await; // let the consumer block first
                tx.send(1);
                tx.send(2); // duplicate wake: consumer already queued
                drop(tx);
                consumer.await
            })
        });
        assert_eq!(polls, vec![1, 2]);
    }

    #[test]
    fn slab_slots_are_reused_without_cross_talk() {
        // Churn through many short-lived tasks so slots recycle, while a
        // long-lived task keeps its slot; stale wakes must never reach
        // the wrong task.
        let (total, _) = Sim::run_to_completion(|h| {
            Box::pin(async move {
                let mut total = 0u64;
                for round in 0..50u64 {
                    let h2 = h.clone();
                    let jh = h.spawn(async move {
                        h2.sleep(SimDuration::from_micros(1)).await;
                        round
                    });
                    total += jh.await;
                }
                total
            })
        });
        assert_eq!(total, (0..50).sum());
    }

    #[test]
    fn sleep_wakes_most_recent_poller() {
        // A Sleep first polled inside one task and then re-polled from a
        // different task must wake the second task at fire time (the
        // stale-waker bug fixed by the shared waker slot).
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;

        struct CountWaker(AtomicU32);
        impl std::task::Wake for CountWaker {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        let mut sim = Sim::new();
        let h = sim.handle();
        let mut sleep = h.sleep(SimDuration::from_millis(5));
        // First poll with a throwaway waker (simulating the first branch
        // of a race that later loses interest).
        let counter = Arc::new(CountWaker(AtomicU32::new(0)));
        let first = Waker::from(Arc::clone(&counter));
        let mut cx = Context::from_waker(&first);
        assert!(Pin::new(&mut sleep).poll(&mut cx).is_pending());
        // Re-poll from a real task, which then awaits the same sleep.
        let jh = sim.spawn(async move {
            sleep.await;
            h.now()
        });
        sim.run();
        // The timer woke the task (the most recent poller), not the
        // throwaway waker.
        assert_eq!(jh.try_take().unwrap(), SimTime(5_000_000));
        assert_eq!(counter.0.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn same_instant_timers_fire_in_seq_order() {
        // Three tasks sleeping to the same deadline resume in the order
        // their timers were registered, even though the heap pops them as
        // one batch.
        let (order, end) = Sim::run_to_completion(|h| {
            Box::pin(async move {
                let log: Rc<RefCell<Vec<u32>>> = Rc::default();
                let futs: Vec<_> = (0..3u32)
                    .map(|i| {
                        let h2 = h.clone();
                        let log = Rc::clone(&log);
                        async move {
                            h2.sleep_until(SimTime(1_000)).await;
                            log.borrow_mut().push(i);
                        }
                    })
                    .collect();
                join_all(&h, futs).await;
                let order = log.borrow().clone();
                order
            })
        });
        assert_eq!(order, vec![0, 1, 2]);
        assert_eq!(end, SimTime(1_000));
    }

    #[test]
    fn timers_fire_in_time_then_seq_order() {
        // Deadlines registered out of time order: the queue pops by time
        // first, and only same-instant ties fall back to registration order.
        let mut sim = Sim::new();
        let log: Rc<RefCell<Vec<char>>> = Rc::default();
        for (name, at) in [('c', 30), ('a', 10), ('b', 10), ('x', 20)] {
            let h = sim.handle();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                h.sleep_until(SimTime(at)).await;
                log.borrow_mut().push(name);
            });
        }
        assert_eq!(sim.run(), SimTime(30));
        assert_eq!(*log.borrow(), vec!['a', 'b', 'x', 'c']);
    }
}
