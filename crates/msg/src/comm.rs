//! Point-to-point communication: the [`World`], per-rank [`Comm`]
//! endpoints, payloads, and tag-matched receive.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use iosim_buf::{Bytes, BytesList};
use iosim_machine::Machine;
use iosim_simkit::time::{SimDuration, SimTime};

/// A message payload: real bytes or a synthetic length.
///
/// Real bytes travel as a [`BytesList`] rope of shared buffers, so
/// building a message from fragments (two-phase encode, run merging) and
/// cloning a payload per destination (collectives) never copies data —
/// only [`Payload::into_bytes`]/[`Payload::to_bytes`] on a multi-segment
/// rope materializes contiguous storage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Payload {
    /// Length in bytes (always meaningful for timing).
    pub len: u64,
    /// The bytes, when carried.
    pub data: Option<BytesList>,
}

impl Payload {
    /// A payload carrying real bytes (accepts `Vec<u8>`, `Bytes`, or a
    /// prebuilt rope).
    pub fn bytes(data: impl Into<BytesList>) -> Payload {
        let data = data.into();
        Payload {
            len: data.len(),
            data: Some(data),
        }
    }

    /// A timing-only payload of `len` bytes.
    pub fn synthetic(len: u64) -> Payload {
        Payload { len, data: None }
    }

    /// An empty payload (control message).
    pub fn empty() -> Payload {
        Payload::bytes(BytesList::new())
    }

    /// The carried bytes as one contiguous buffer. Header-only messages
    /// (`data: None`) yield an empty buffer — callers that need to
    /// distinguish "no data" from "empty data" check `data` directly.
    pub fn into_bytes(self) -> Bytes {
        self.data.map(|d| d.flatten()).unwrap_or_default()
    }

    /// Like [`Payload::into_bytes`], without consuming the payload.
    pub fn to_bytes(&self) -> Bytes {
        self.data.as_ref().map(|d| d.flatten()).unwrap_or_default()
    }
}

/// Source matching for receives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatchSrc {
    /// Match messages from one specific rank.
    Rank(usize),
    /// Match messages from any rank.
    Any,
}

struct Envelope {
    src: usize,
    tag: u64,
    deliver_at: SimTime,
    payload: Payload,
}

#[derive(Default)]
struct Mailbox {
    msgs: VecDeque<Envelope>,
    wakers: Vec<Waker>,
}

struct WorldInner {
    machine: Rc<Machine>,
    mailboxes: Vec<RefCell<Mailbox>>,
}

/// The communication world: `size` ranks on one machine.
#[derive(Clone)]
pub struct World {
    inner: Rc<WorldInner>,
    size: usize,
}

impl World {
    /// Create a world of `size` ranks mapped to compute nodes `0..size`.
    ///
    /// # Panics
    /// Panics if `size` exceeds the machine's compute nodes or is zero.
    pub fn new(machine: Rc<Machine>, size: usize) -> World {
        assert!(size > 0, "world must have at least one rank");
        assert!(
            size <= machine.compute_nodes(),
            "world of {size} ranks exceeds {} compute nodes",
            machine.compute_nodes()
        );
        World {
            inner: Rc::new(WorldInner {
                machine,
                mailboxes: (0..size)
                    .map(|_| RefCell::new(Mailbox::default()))
                    .collect(),
            }),
            size,
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The machine the world runs on.
    pub fn machine(&self) -> &Rc<Machine> {
        &self.inner.machine
    }

    /// Endpoint for `rank`.
    pub fn comm(&self, rank: usize) -> Comm {
        assert!(rank < self.size, "rank {rank} outside world");
        Comm {
            world: self.clone(),
            rank,
            coll_seq: Rc::new(std::cell::Cell::new(0)),
        }
    }

    /// Endpoints for every rank, in rank order.
    pub fn comms(&self) -> Vec<Comm> {
        (0..self.size).map(|r| self.comm(r)).collect()
    }
}

/// A per-rank communication endpoint.
///
/// Clones share the endpoint (including the collective-tag sequence), so
/// a clone can be moved into a background task for non-blocking sends.
#[derive(Clone)]
pub struct Comm {
    world: World,
    rank: usize,
    /// Per-rank collective sequence number; ranks must call collectives in
    /// the same order (as in MPI), which keeps tags aligned.
    pub(crate) coll_seq: Rc<std::cell::Cell<u64>>,
}

impl Comm {
    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.world.size()
    }

    /// The underlying machine.
    pub fn machine(&self) -> &Rc<Machine> {
        self.world.machine()
    }

    /// Send `payload` to `dst` with `tag`.
    ///
    /// The send blocks (in virtual time) until the message has been
    /// injected through this rank's NIC — like a buffered MPI send. The
    /// message is delivered `base + per_hop × hops` after injection.
    pub async fn send(&self, dst: usize, tag: u64, payload: Payload) {
        assert!(dst < self.size(), "send to rank {dst} outside world");
        let m = self.world.machine();
        let h = m.handle().clone();
        let cfg = m.cfg();
        let inject = SimDuration::from_secs_f64(payload.len as f64 / cfg.net.bandwidth_bps);
        let (_, inject_end) = m.nic(self.rank).reserve(inject);
        let hops = if dst == self.rank {
            0
        } else {
            m.topology().compute_hops(self.rank, dst)
        };
        let latency = cfg.net.base_latency + cfg.net.per_hop_latency * hops as u64;
        // Under link-contention modelling, the message also books
        // bandwidth along its XY route.
        let route_end = if dst != self.rank && m.models_link_contention() {
            m.reserve_route(
                m.topology().compute_coord(self.rank),
                m.topology().compute_coord(dst),
                payload.len,
                inject_end,
            )
        } else {
            inject_end
        };
        let deliver_at = route_end.max(inject_end) + latency;
        {
            let mut mb = self.world.inner.mailboxes[dst].borrow_mut();
            mb.msgs.push_back(Envelope {
                src: self.rank,
                tag,
                deliver_at,
                payload,
            });
            for w in mb.wakers.drain(..) {
                w.wake();
            }
        }
        h.sleep_until(inject_end).await;
    }

    /// Non-blocking send (MPI `Isend` style): the injection proceeds in a
    /// background task; await the returned handle to complete the send
    /// (MPI `Wait`). Message ordering per `(src, dst, tag)` follows the
    /// posting order, as the mailbox enqueues at posting time.
    pub fn isend(
        &self,
        dst: usize,
        tag: u64,
        payload: Payload,
    ) -> iosim_simkit::executor::JoinHandle<()> {
        let me = self.clone();
        self.world
            .machine()
            .handle()
            .spawn(async move { me.send(dst, tag, payload).await })
    }

    /// Receive a message matching `(src, tag)`. Returns `(source, payload)`.
    ///
    /// Matching is FIFO per `(source, tag)` pair; the receive completes at
    /// the message's delivery instant.
    pub async fn recv(&self, src: MatchSrc, tag: u64) -> (usize, Payload) {
        let env = MatchFuture {
            world: self.world.clone(),
            rank: self.rank,
            src,
            tag,
        }
        .await;
        let h = self.world.machine().handle().clone();
        h.sleep_until(env.deliver_at).await;
        (env.src, env.payload)
    }

    /// Next collective tag (shared sequence across collective calls).
    pub(crate) fn next_coll_tag(&self) -> u64 {
        let s = self.coll_seq.get();
        self.coll_seq.set(s + 1);
        // High bit namespace separates collective tags from user tags.
        (1 << 63) | s
    }
}

struct MatchFuture {
    world: World,
    rank: usize,
    src: MatchSrc,
    tag: u64,
}

impl Future for MatchFuture {
    type Output = Envelope;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Envelope> {
        let mut mb = self.world.inner.mailboxes[self.rank].borrow_mut();
        let idx = mb.msgs.iter().position(|e| {
            e.tag == self.tag
                && match self.src {
                    MatchSrc::Any => true,
                    MatchSrc::Rank(r) => e.src == r,
                }
        });
        match idx {
            Some(i) => Poll::Ready(mb.msgs.remove(i).expect("index valid")),
            None => {
                mb.wakers.push(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosim_machine::presets;
    use iosim_simkit::executor::{join_all, Sim};

    fn world(sim: &Sim, n: usize) -> World {
        let m = Machine::new(sim.handle(), presets::paragon_small());
        World::new(m, n)
    }

    #[test]
    fn into_bytes_of_header_only_message_is_empty() {
        // Regression: this used to panic ("payload is synthetic") on
        // `data: None`, taking down receivers of header-only messages.
        assert!(Payload::synthetic(64).into_bytes().is_empty());
        assert!(Payload::synthetic(0).to_bytes().is_empty());
        assert!(Payload::empty().into_bytes().is_empty());
    }

    #[test]
    fn payload_clone_shares_buffers_without_copying() {
        let p = Payload::bytes(vec![1, 2, 3, 4]);
        iosim_buf::tally::reset();
        let q = p.clone();
        assert_eq!(p, q);
        let t = iosim_buf::tally::snapshot();
        assert_eq!(t.bytes_copied, 0);
        assert_eq!(t.bytes_allocated, 0);
    }

    #[test]
    fn send_recv_roundtrip() {
        let mut sim = Sim::new();
        let w = world(&sim, 2);
        let h = sim.handle();
        let c0 = w.comm(0);
        let c1 = w.comm(1);
        let jh = sim.spawn(async move {
            let sender = h.spawn(async move {
                c0.send(1, 7, Payload::bytes(vec![1, 2, 3])).await;
            });
            let (src, p) = c1.recv(MatchSrc::Rank(0), 7).await;
            sender.await;
            (src, p.into_bytes())
        });
        sim.run();
        let (src, data) = jh.try_take().unwrap();
        assert_eq!(src, 0);
        assert_eq!(data, vec![1, 2, 3]);
    }

    #[test]
    fn transfer_time_scales_with_size() {
        let elapsed = |bytes: u64| -> f64 {
            let mut sim = Sim::new();
            let w = world(&sim, 2);
            let h = sim.handle();
            let c0 = w.comm(0);
            let c1 = w.comm(1);
            let jh = sim.spawn(async move {
                let t0 = h.now();
                let s = h.spawn(async move {
                    c0.send(1, 0, Payload::synthetic(bytes)).await;
                });
                c1.recv(MatchSrc::Rank(0), 0).await;
                s.await;
                (h.now() - t0).as_secs_f64()
            });
            sim.run();
            jh.try_take().unwrap()
        };
        let small = elapsed(1_000);
        let big = elapsed(8_000_000);
        // 8 MB at 80 MB/s ≈ 0.1 s dominates latency.
        assert!(big > 0.09 && big < 0.2, "big transfer took {big}");
        assert!(small < 0.01, "small transfer took {small}");
    }

    #[test]
    fn tag_matching_is_selective() {
        let mut sim = Sim::new();
        let w = world(&sim, 2);
        let h = sim.handle();
        let c0 = w.comm(0);
        let c1 = w.comm(1);
        let jh = sim.spawn(async move {
            h.spawn(async move {
                c0.send(1, 5, Payload::bytes(vec![5])).await;
                c0.send(1, 9, Payload::bytes(vec![9])).await;
            });
            // Receive tag 9 first even though tag 5 was sent first.
            let (_, p9) = c1.recv(MatchSrc::Rank(0), 9).await;
            let (_, p5) = c1.recv(MatchSrc::Rank(0), 5).await;
            (p9.into_bytes(), p5.into_bytes())
        });
        sim.run();
        let (p9, p5) = jh.try_take().unwrap();
        assert_eq!(p9, vec![9]);
        assert_eq!(p5, vec![5]);
    }

    #[test]
    fn match_any_source() {
        let mut sim = Sim::new();
        let w = world(&sim, 3);
        let h = sim.handle();
        let c2 = w.comm(2);
        let senders: Vec<_> = (0..2)
            .map(|r| {
                let c = w.comm(r);
                async move {
                    c.send(2, 1, Payload::bytes(vec![r as u8])).await;
                }
            })
            .collect();
        let jh = sim.spawn(async move {
            join_all(&h, senders).await;
            let mut got = Vec::new();
            for _ in 0..2 {
                let (src, _) = c2.recv(MatchSrc::Any, 1).await;
                got.push(src);
            }
            got.sort_unstable();
            got
        });
        sim.run();
        assert_eq!(jh.try_take().unwrap(), vec![0, 1]);
    }

    #[test]
    fn nic_serializes_concurrent_sends() {
        // Two 8 MB sends from the same rank take ~2x one send.
        let mut sim = Sim::new();
        let w = world(&sim, 3);
        let h = sim.handle();
        let c0a = w.comm(0);
        let c0b = w.comm(0);
        let c1 = w.comm(1);
        let c2 = w.comm(2);
        let jh = sim.spawn(async move {
            let t0 = h.now();
            let s1 = h.spawn(async move {
                c0a.send(1, 0, Payload::synthetic(8_000_000)).await;
            });
            let s2 = h.spawn(async move {
                c0b.send(2, 0, Payload::synthetic(8_000_000)).await;
            });
            c1.recv(MatchSrc::Rank(0), 0).await;
            c2.recv(MatchSrc::Rank(0), 0).await;
            s1.await;
            s2.await;
            (h.now() - t0).as_secs_f64()
        });
        sim.run();
        let t = jh.try_take().unwrap();
        assert!(
            t > 0.19,
            "two sends through one NIC should take ~0.2 s: {t}"
        );
    }

    #[test]
    fn self_send_works() {
        let mut sim = Sim::new();
        let w = world(&sim, 1);
        let h = sim.handle();
        let ca = w.comm(0);
        let cb = w.comm(0);
        let jh = sim.spawn(async move {
            h.spawn(async move {
                ca.send(0, 3, Payload::bytes(vec![42])).await;
            });
            let (_, p) = cb.recv(MatchSrc::Rank(0), 3).await;
            p.into_bytes()
        });
        sim.run();
        assert_eq!(jh.try_take().unwrap(), vec![42]);
    }

    #[test]
    fn link_contention_slows_crossing_traffic() {
        // Many ranks in one mesh row all send across the same horizontal
        // links; with contention modelled the exchange takes longer.
        let run_exchange = |contend: bool| -> f64 {
            let mut sim = Sim::new();
            let mut cfg = presets::paragon_small();
            cfg.net.link_contention = contend;
            let m = Machine::new(sim.handle(), cfg);
            // Ranks 0..4 are one mesh row (4 columns); all send 4 MB to
            // the rank 2 rows below (same column → crossing shared
            // vertical links after the X leg... use same-row targets to
            // share horizontal links deterministically).
            let w = World::new(m, 8);
            let h = sim.handle();
            let futs: Vec<_> = (0..4usize)
                .map(|r| {
                    let tx = w.comm(r);
                    let rx = w.comm(r + 4);
                    let h2 = h.clone();
                    async move {
                        let s = h2.spawn(async move {
                            tx.send(tx.rank() + 4, 0, Payload::synthetic(4 << 20)).await;
                        });
                        rx.recv(MatchSrc::Rank(r), 0).await;
                        s.await;
                    }
                })
                .collect();
            let jh = sim.spawn(async move {
                join_all(&h, futs).await;
            });
            let end = sim.run();
            jh.try_take().expect("completed");
            end.as_secs_f64()
        };
        let free = run_exchange(false);
        let contended = run_exchange(true);
        assert!(
            contended >= free,
            "contention cannot speed things up: {contended} vs {free}"
        );
    }

    #[test]
    fn isend_overlaps_injections_with_work() {
        let mut sim = Sim::new();
        let w = world(&sim, 2);
        let h = sim.handle();
        let c0 = w.comm(0);
        let c1 = w.comm(1);
        let jh = sim.spawn(async move {
            // Post two non-blocking sends, "compute", then wait for both.
            let s1 = c0.isend(1, 1, Payload::bytes(vec![1]));
            let s2 = c0.isend(1, 2, Payload::bytes(vec![2]));
            h.sleep(SimDuration::from_millis(5)).await;
            s1.await;
            s2.await;
            let (_, a) = c1.recv(MatchSrc::Rank(0), 1).await;
            let (_, b) = c1.recv(MatchSrc::Rank(0), 2).await;
            (a.into_bytes(), b.into_bytes(), h.now())
        });
        sim.run();
        let (a, b, t) = jh.try_take().unwrap();
        assert_eq!(a, vec![1]);
        assert_eq!(b, vec![2]);
        // Small messages inject during the 5 ms of "compute": total stays 5 ms.
        assert_eq!(t, SimTime(5_000_000));
    }

    #[test]
    fn isend_preserves_posting_order_per_tag() {
        let mut sim = Sim::new();
        let w = world(&sim, 2);
        let c0 = w.comm(0);
        let c1 = w.comm(1);
        let jh = sim.spawn(async move {
            let handles: Vec<_> = (0..5u8)
                .map(|i| c0.isend(1, 9, Payload::bytes(vec![i])))
                .collect();
            for hdl in handles {
                hdl.await;
            }
            let mut got = Vec::new();
            for _ in 0..5 {
                let (_, p) = c1.recv(MatchSrc::Rank(0), 9).await;
                got.push(p.into_bytes()[0]);
            }
            got
        });
        sim.run();
        assert_eq!(jh.try_take().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "outside world")]
    fn out_of_range_rank_panics() {
        let sim = Sim::new();
        let w = world(&sim, 2);
        let _ = w.comm(2);
    }
}
