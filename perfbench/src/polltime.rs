//! The traced run's only instrument inside a simulation: a future that
//! adds the host time of every poll of the future it wraps to a shared
//! total. It forwards each poll unchanged, so the task schedule (and its
//! fingerprint) is the same as without it; the benchmark checks that on
//! every traced run.

use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

/// Host time spent inside the polls of every future sharing this clock.
#[derive(Clone, Default)]
pub struct PollClock(Rc<Cell<Duration>>);

impl PollClock {
    /// Total poll time so far.
    pub fn total(&self) -> Duration {
        self.0.get()
    }

    /// Wrap `inner` so its polls are timed on this clock.
    pub fn wrap<F: Future + Unpin>(&self, inner: F) -> PollTimed<F> {
        PollTimed {
            inner,
            clock: self.clone(),
        }
    }
}

/// A future whose polls are timed on a [`PollClock`].
pub struct PollTimed<F> {
    inner: F,
    clock: PollClock,
}

impl<F: Future + Unpin> Future for PollTimed<F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let t0 = Instant::now();
        let out = Pin::new(&mut self.inner).poll(cx);
        let acc = &self.clock.0;
        acc.set(acc.get() + t0.elapsed());
        out
    }
}
