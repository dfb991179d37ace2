//! Cross-shard dependency link for the sharded parallel engine.
//!
//! When a trace replay is partitioned into shards (`iosim_simkit::shard`),
//! each shard simulates its own rank group on its own [`crate::World`].
//! A `<-dep` edge whose endpoints land on different shards becomes a
//! completion notification: the shard that finishes the labelled op
//! sends a [`ShardSignal::DepToken`] through the engine's conservative
//! mailboxes, and the waiting shard's handler releases its waiters when
//! the token is delivered. Tokens travel with the engine lookahead as
//! their latency — the cheapest cross-shard network traversal.

use std::cell::RefCell;
use std::rc::Rc;

use iosim_simkit::executor::SimHandle;
use iosim_simkit::shard::Outbox;
use iosim_simkit::time::SimDuration;

/// Signal exchanged between shards through the engine mailboxes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardSignal {
    /// A labelled operation completed on another shard: the
    /// completion-notification channel for cross-shard dependency edges
    /// (trace-replay `<-dep` edges whose waiters live on foreign shards).
    /// Tokens are delivered in the engine's `(deliver_at, src, seq)`
    /// total order.
    DepToken {
        /// Identifier of the completed operation (the replay engine uses
        /// the op's index in the trace stream).
        op: u64,
    },
}

/// Callback invoked for each incoming dependency token.
type DepHandler = Box<dyn FnMut(u64)>;

struct LinkInner {
    handle: SimHandle,
    shard: usize,
    shards: usize,
    lookahead: SimDuration,
    outbox: Outbox<ShardSignal>,
    /// Handler for incoming dependency tokens (set by the replay engine;
    /// unset tokens are a protocol error).
    dep_handler: RefCell<Option<DepHandler>>,
}

/// One shard's endpoint of the cross-shard dependency link. Clones share
/// state.
#[derive(Clone)]
pub struct ShardLink {
    inner: Rc<LinkInner>,
}

impl ShardLink {
    /// Create the link for shard `shard` of `shards`, signalling through
    /// `outbox` with `lookahead` as the signal latency.
    pub fn new(
        handle: SimHandle,
        shard: usize,
        shards: usize,
        lookahead: SimDuration,
        outbox: Outbox<ShardSignal>,
    ) -> ShardLink {
        assert!(shard < shards, "shard {shard} outside {shards}");
        ShardLink {
            inner: Rc::new(LinkInner {
                handle,
                shard,
                shards,
                lookahead,
                outbox,
                dep_handler: RefCell::new(None),
            }),
        }
    }

    /// Feed an incoming signal from the engine's deliver hook.
    pub fn deliver(&self, sig: ShardSignal) {
        let ShardSignal::DepToken { op } = sig;
        let mut handler = self.inner.dep_handler.borrow_mut();
        let handler = handler
            .as_mut()
            .expect("DepToken delivered to a shard with no dep handler");
        handler(op);
    }

    /// Register the handler invoked (at delivery time, in the engine's
    /// total envelope order) for each incoming [`ShardSignal::DepToken`].
    /// Replaces any previous handler.
    pub fn set_dep_handler(&self, handler: Box<dyn FnMut(u64)>) {
        *self.inner.dep_handler.borrow_mut() = Some(handler);
    }

    /// Notify shard `dst` that labelled operation `op` completed. The
    /// token is timestamped one lookahead ahead of now, the cheapest
    /// latency any cross-shard interaction can carry.
    pub fn send_dep_token(&self, dst: usize, op: u64) {
        assert!(dst < self.inner.shards, "dep token to unknown shard {dst}");
        assert_ne!(dst, self.inner.shard, "dep token to own shard");
        let at = self.inner.handle.now() + self.inner.lookahead;
        self.inner
            .outbox
            .send(dst, at, ShardSignal::DepToken { op });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosim_simkit::executor::Sim;
    use iosim_simkit::shard::{run_sharded, ShardCtx, ShardRuntime};
    use iosim_simkit::time::SimTime;

    const L: SimDuration = SimDuration(50_000); // 50 µs

    #[test]
    fn dep_tokens_deliver_in_order_with_latency() {
        // Shard 0 completes three labelled ops at 10/20/30 µs; shard 1's
        // dep handler must see the tokens in send order, each one engine
        // lookahead after its completion.
        let run = |workers: usize| {
            let builders: Vec<_> = (0..2usize)
                .map(|_| {
                    |ctx: ShardCtx<ShardSignal>| {
                        let sim = Sim::new();
                        let h = sim.handle();
                        let link = ShardLink::new(
                            h.clone(),
                            ctx.index,
                            ctx.shards,
                            ctx.lookahead,
                            ctx.outbox,
                        );
                        let got: Rc<RefCell<Vec<(SimTime, u64)>>> =
                            Rc::new(RefCell::new(Vec::new()));
                        let got2 = Rc::clone(&got);
                        let h2 = h.clone();
                        link.set_dep_handler(Box::new(move |op| {
                            got2.borrow_mut().push((h2.now(), op));
                        }));
                        if ctx.index == 0 {
                            let l2 = link.clone();
                            let h3 = h.clone();
                            sim.spawn(async move {
                                for op in [3u64, 1, 2] {
                                    h3.sleep(SimDuration::from_micros(10)).await;
                                    l2.send_dep_token(1, op);
                                }
                            });
                        }
                        let link2 = link.clone();
                        ShardRuntime {
                            sim,
                            deliver: Box::new(move |sig| link2.deliver(sig)),
                            finish: Box::new(move || got.borrow().clone()),
                        }
                    }
                })
                .collect();
            run_sharded(L, workers, builders)
        };
        let a = run(1);
        let b = run(2);
        let us = |t: u64| SimTime::ZERO + SimDuration::from_micros(t);
        assert_eq!(a.results[0], vec![]);
        assert_eq!(a.results[1], vec![(us(60), 3), (us(70), 1), (us(80), 2)]);
        assert_eq!(a.results, b.results);
        assert_eq!(a.fingerprint, b.fingerprint);
    }
}
