//! Property tests of the collectives: for arbitrary payload matrices the
//! collectives must implement their algebraic contracts (transpose for
//! all-to-all, replication for broadcast/all-gather, reduction for
//! all-reduce) — regardless of sizes or rank counts.
//!
//! Cases come from the in-tree [`SimRng`]; every assertion names its
//! seed, so a failure replays from that seed alone.

use iosim_machine::{presets, Machine};
use iosim_msg::{Comm, Payload, World};
use iosim_simkit::executor::{join_all, Sim};
use iosim_simkit::rng::SimRng;

/// Seeds per property. Each seed is one simulated run.
const SEEDS: u64 = 24;

fn run_ranks<T: 'static, F, Fut>(n: usize, f: F) -> Vec<T>
where
    F: Fn(Comm) -> Fut,
    Fut: std::future::Future<Output = T> + 'static,
{
    let mut sim = Sim::new();
    let m = Machine::new(sim.handle(), presets::paragon_large());
    let w = World::new(m, n);
    let h = sim.handle();
    let futs: Vec<_> = w.comms().into_iter().map(&f).collect();
    let jh = sim.spawn(async move { join_all(&h, futs).await });
    sim.run();
    jh.try_take().expect("all ranks completed")
}

fn byte(rng: &mut SimRng) -> u8 {
    rng.range(0, 256) as u8
}

#[test]
fn alltoallv_is_a_transpose() {
    for s in 0..SEEDS {
        let mut rng = SimRng::seed_from(0xa2a0_0000 + s);
        let n = rng.range(2, 6) as usize;
        let seed = byte(&mut rng);
        // Payload from src to dst encodes (src, dst, seed).
        let outs = run_ranks(n, move |c| async move {
            let me = c.rank() as u8;
            let to_each: Vec<Payload> = (0..c.size() as u8)
                .map(|d| Payload::bytes(vec![me, d, seed, me ^ d]))
                .collect();
            let got = c.alltoallv(to_each).await;
            got.into_iter().map(|p| p.into_bytes()).collect::<Vec<_>>()
        });
        for (dst, got) in outs.iter().enumerate() {
            for (src, bytes) in got.iter().enumerate() {
                assert_eq!(
                    bytes.as_slice(),
                    &[src as u8, dst as u8, seed, (src ^ dst) as u8][..],
                    "seed {s}: {src} -> {dst} of {n}"
                );
            }
        }
    }
}

#[test]
fn alltoallv_preserves_arbitrary_lengths() {
    for s in 0..SEEDS {
        let mut rng = SimRng::seed_from(0xa2a1_0000 + s);
        let lens: Vec<u64> = (0..9).map(|_| rng.range(0, 5_000)).collect();
        // 3 ranks, each sending lens[src*3+dst] synthetic bytes.
        let lens2 = lens.clone();
        let outs = run_ranks(3, move |c| {
            let lens = lens2.clone();
            async move {
                let me = c.rank();
                let to_each: Vec<Payload> = (0..3)
                    .map(|d| Payload::synthetic(lens[me * 3 + d]))
                    .collect();
                let got = c.alltoallv(to_each).await;
                got.iter().map(|p| p.len).collect::<Vec<u64>>()
            }
        });
        for (dst, got) in outs.iter().enumerate() {
            for (src, &len) in got.iter().enumerate() {
                assert_eq!(len, lens[src * 3 + dst], "seed {s}: {src} -> {dst}");
            }
        }
    }
}

#[test]
fn bcast_replicates_any_payload() {
    for s in 0..SEEDS {
        let mut rng = SimRng::seed_from(0xa2a2_0000 + s);
        let n = rng.range(2, 6) as usize;
        let root = byte(&mut rng) as usize % n;
        let len = rng.range(0, 200) as usize;
        let data: Vec<u8> = (0..len).map(|_| byte(&mut rng)).collect();
        let data2 = data.clone();
        let outs = run_ranks(n, move |c| {
            let data = data2.clone();
            async move {
                let p = (c.rank() == root).then(|| Payload::bytes(data.clone()));
                c.bcast(root, p).await.into_bytes()
            }
        });
        for (rank, o) in outs.iter().enumerate() {
            assert_eq!(o, &data, "seed {s}: rank {rank} of {n}, root {root}");
        }
    }
}

#[test]
fn allreduce_sum_is_exact_for_integers() {
    for s in 0..SEEDS {
        let mut rng = SimRng::seed_from(0xa2a3_0000 + s);
        let n = rng.range(2, 7) as usize;
        let values: Vec<i32> = (0..7).map(|_| rng.range(0, 2000) as i32 - 1000).collect();
        let vals = values.clone();
        let outs = run_ranks(n, move |c| {
            let v = vals[c.rank()] as f64;
            async move { c.allreduce_sum(v).await }
        });
        let want: f64 = values[..n].iter().map(|&v| v as f64).sum();
        for o in outs {
            assert!((o - want).abs() < 1e-9, "seed {s}: {o} vs {want}");
        }
    }
}

#[test]
fn gather_then_bcast_equals_allgather() {
    for s in 0..SEEDS {
        let mut rng = SimRng::seed_from(0xa2a4_0000 + s);
        let n = rng.range(2, 5) as usize;
        let seed = byte(&mut rng);
        let outs = run_ranks(n, move |c| async move {
            let mine = Payload::bytes(vec![c.rank() as u8 ^ seed]);
            let ag = c.allgather(mine.clone()).await;
            let g = c.gather(0, mine).await;
            (ag, g)
        });
        let reference: Vec<Vec<u8>> = (0..n).map(|r| vec![r as u8 ^ seed]).collect();
        for (rank, (ag, g)) in outs.into_iter().enumerate() {
            let ag_bytes: Vec<Vec<u8>> = ag.into_iter().map(|p| p.into_bytes().to_vec()).collect();
            assert_eq!(ag_bytes, reference, "seed {s}: allgather at rank {rank}");
            if rank == 0 {
                let g_bytes: Vec<Vec<u8>> = g
                    .expect("root has gather")
                    .into_iter()
                    .map(|p| p.into_bytes().to_vec())
                    .collect();
                assert_eq!(g_bytes, reference, "seed {s}: gather at root");
            } else {
                assert!(g.is_none(), "seed {s}: rank {rank} got a gather result");
            }
        }
    }
}
