//! Property tests driving the whole stack against an in-memory oracle:
//! random sequences of writes and reads through the simulated parallel
//! file system must behave exactly like a plain byte vector, regardless
//! of striping, interface, caching, queueing, list I/O or interleaving
//! across ranks.
//!
//! Cases come from the in-tree [`SimRng`]; every assertion names its
//! seed (and, for the oracle, its configuration), so a failure replays
//! from that seed alone.

use std::cell::RefCell;
use std::rc::Rc;

use iosim::machine::CacheParams;
use iosim::prelude::*;
use iosim::simkit::rng::SimRng;

/// Seeds per property. Each seed is one simulated program.
const SEEDS: u64 = 48;

/// Stripe units are drawn from `[64, 4096)`, in three log-spaced strata
/// so that small, medium and large units all occur.
const STRIPE_STRATA: [(u64, u64); 3] = [(64, 256), (256, 1024), (1024, 4096)];
const IO_NODES: [usize; 5] = [1, 2, 3, 4, 5];
const INTERFACES: [Interface; 3] = [Interface::UnixStyle, Interface::Passion, Interface::Fortran];
const QUEUE_DEPTHS: [usize; 2] = [1, 8];

/// One point of the oracle's configuration space.
#[derive(Clone, Copy, Debug)]
struct Config {
    stripe_unit: u64,
    io_nodes: usize,
    iface: Interface,
    cache: bool,
    queue_depth: usize,
    /// Vectored `readv`/`writev` of 1–4 fragments instead of one
    /// `read_at`/`write_at` extent per op.
    list_io: bool,
}

/// Axis value indices per seed: each axis is a shuffled, balanced column
/// (value `i % k` at row `i`), so every value of every axis occurs once
/// `SEEDS >= k` while the combinations across axes stay random.
fn design(rng: &mut SimRng, sizes: &[usize]) -> Vec<Vec<usize>> {
    let n = SEEDS as usize;
    let columns: Vec<Vec<usize>> = sizes
        .iter()
        .map(|&k| {
            let mut col: Vec<usize> = (0..n).map(|i| i % k).collect();
            for i in (1..n).rev() {
                col.swap(i, rng.range(0, i as u64 + 1) as usize);
            }
            col
        })
        .collect();
    (0..n)
        .map(|row| columns.iter().map(|c| c[row]).collect())
        .collect()
}

fn configs() -> Vec<Config> {
    let mut rng = SimRng::seed_from(0xf5_0c1e);
    let sizes = [
        STRIPE_STRATA.len(),
        IO_NODES.len(),
        INTERFACES.len(),
        2,
        QUEUE_DEPTHS.len(),
        2,
    ];
    design(&mut rng, &sizes)
        .into_iter()
        .map(|p| {
            let (lo, hi) = STRIPE_STRATA[p[0]];
            Config {
                stripe_unit: rng.range(lo, hi),
                io_nodes: IO_NODES[p[1]],
                iface: INTERFACES[p[2]],
                cache: p[3] == 1,
                queue_depth: QUEUE_DEPTHS[p[4]],
                list_io: p[5] == 1,
            }
        })
        .collect()
}

#[test]
fn oracle_configurations_cover_every_axis_value() {
    let cfgs = configs();
    for (k, &(lo, hi)) in STRIPE_STRATA.iter().enumerate() {
        assert!(
            cfgs.iter().any(|c| (lo..hi).contains(&c.stripe_unit)),
            "stripe stratum {k} unused"
        );
    }
    for n in IO_NODES {
        assert!(cfgs.iter().any(|c| c.io_nodes == n), "{n} I/O nodes unused");
    }
    for iface in INTERFACES {
        assert!(cfgs.iter().any(|c| c.iface == iface), "{iface:?} unused");
    }
    for d in QUEUE_DEPTHS {
        assert!(cfgs.iter().any(|c| c.queue_depth == d), "depth {d} unused");
    }
    for on in [false, true] {
        assert!(cfgs.iter().any(|c| c.cache == on), "cache={on} unused");
        assert!(cfgs.iter().any(|c| c.list_io == on), "list_io={on} unused");
    }
}

/// An operation in the random program: the extents of one call (a single
/// extent unless the configuration uses list I/O).
enum Op {
    Write { extents: Vec<(u64, u64, u8)> },
    Read { extents: Vec<(u64, u64)> },
}

fn random_program(rng: &mut SimRng, max_file: u64, list_io: bool) -> Vec<Op> {
    let n = rng.range(1, 40);
    (0..n)
        .map(|_| {
            let frags = if list_io { rng.range(1, 5) } else { 1 };
            let write = rng.range(0, 2) == 0;
            let mut extents = Vec::new();
            for _ in 0..frags {
                let offset = rng.range(0, max_file);
                let len = rng.range(1, 2048);
                extents.push((offset, len, rng.range(0, 256) as u8));
            }
            if write {
                Op::Write { extents }
            } else {
                Op::Read {
                    extents: extents.into_iter().map(|(o, l, _)| (o, l)).collect(),
                }
            }
        })
        .collect()
}

#[test]
fn random_io_matches_in_memory_oracle() {
    for (seed, cfg) in configs().into_iter().enumerate() {
        let mut rng = SimRng::seed_from(0x0a1e_0000 + seed as u64);
        let ops = random_program(&mut rng, 16_384, cfg.list_io);
        let case = format!("seed {seed} {cfg:?}");
        let mut machine_cfg = presets::paragon_small()
            .with_io_nodes(cfg.io_nodes)
            .with_io_queue_depth(cfg.queue_depth);
        if cfg.cache {
            // Smaller than the file, so blocks are evicted and flushed.
            machine_cfg = machine_cfg.with_cache(CacheParams::lru(8 << 10));
        }
        let mut sim = Sim::new();
        let machine = Machine::new(sim.handle(), machine_cfg);
        let fs = FileSystem::new(machine, TraceCollector::new());
        let program_case = case.clone();
        let jh = sim.spawn(async move {
            let case = program_case;
            let fh = fs
                .open(
                    0,
                    cfg.iface,
                    "oracle",
                    Some(CreateOptions {
                        stored: true,
                        stripe_unit: Some(cfg.stripe_unit),
                        ..Default::default()
                    }),
                )
                .await
                .expect("open");
            let mut oracle: Vec<u8> = Vec::new();
            for (step, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Write { extents } => {
                        let mut payload = Vec::new();
                        for &(offset, len, fill) in &extents {
                            let end = (offset + len) as usize;
                            if oracle.len() < end {
                                oracle.resize(end, 0);
                            }
                            // Later fragments win on overlap.
                            oracle[offset as usize..end].fill(fill);
                            payload.extend(std::iter::repeat_n(fill, len as usize));
                        }
                        if cfg.list_io {
                            let req = IoRequest::from_extents(
                                extents.iter().map(|&(o, l, _)| (o, l)).collect(),
                            );
                            fh.writev(&req, payload).await
                        } else {
                            fh.write_at(extents[0].0, payload).await
                        }
                        .unwrap_or_else(|e| panic!("{case} step {step}: write failed: {e}"));
                        assert_eq!(fh.size(), oracle.len() as u64, "{case} step {step}: size");
                    }
                    Op::Read { extents } => {
                        let in_bounds = extents.iter().all(|&(o, l)| o + l <= oracle.len() as u64);
                        let got = if cfg.list_io {
                            fh.readv(&IoRequest::from_extents(extents.clone())).await
                        } else {
                            fh.read_at(extents[0].0, extents[0].1).await
                        };
                        if in_bounds {
                            let want: Vec<u8> = extents
                                .iter()
                                .flat_map(|&(o, l)| &oracle[o as usize..(o + l) as usize])
                                .copied()
                                .collect();
                            let got = got
                                .unwrap_or_else(|e| panic!("{case} step {step}: read failed: {e}"));
                            assert!(got == want[..], "{case} step {step}: read {extents:?}");
                        } else {
                            assert!(got.is_err(), "{case} step {step}: read past EOF succeeded");
                        }
                    }
                }
            }
        });
        sim.run();
        assert!(jh.try_take().is_some(), "{case}: program did not complete");
    }
}

#[test]
fn concurrent_writers_to_disjoint_regions_compose() {
    for s in 0..SEEDS {
        let mut rng = SimRng::seed_from(0xd15c_0000 + s);
        let region = rng.range(512, 4096);
        let ranks = rng.range(2, 6) as usize;
        let seed = rng.range(0, 256) as u8;
        let mut sim = Sim::new();
        let machine = Machine::new(sim.handle(), presets::paragon_small());
        let fs = FileSystem::new(machine, TraceCollector::new());
        let h = sim.handle();
        let futs: Vec<_> = (0..ranks)
            .map(|r| {
                let fs = Rc::clone(&fs);
                async move {
                    let fh = fs
                        .open(
                            r,
                            Interface::Passion,
                            "shared",
                            Some(CreateOptions {
                                stored: true,
                                ..Default::default()
                            }),
                        )
                        .await
                        .expect("open");
                    let data: Vec<u8> = (0..region).map(|i| (i as u8) ^ (r as u8) ^ seed).collect();
                    fh.write_at(r as u64 * region, data).await.expect("write");
                }
            })
            .collect();
        let fs2 = Rc::clone(&fs);
        let jh = sim.spawn(async move {
            iosim::simkit::executor::join_all(&h, futs).await;
            let fh = fs2
                .open(0, Interface::Passion, "shared", None)
                .await
                .expect("reopen");
            fh.read_at(0, ranks as u64 * region)
                .await
                .expect("read all")
        });
        sim.run();
        let all = jh.try_take().expect("completed");
        for r in 0..ranks {
            for i in 0..region {
                assert_eq!(
                    all[(r as u64 * region + i) as usize],
                    (i as u8) ^ (r as u8) ^ seed,
                    "seed {s}: rank {r} of {ranks}, byte {i} of {region}"
                );
            }
        }
    }
}

#[test]
fn stripe_groups_confine_traffic_to_their_nodes() {
    for s in 0..SEEDS {
        let mut rng = SimRng::seed_from(0x5919_0000 + s);
        let stripe_factor = rng.range(1, 5) as usize;
        let n = rng.range(1, 12);
        let ops: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.range(0, 1_000_000), rng.range(1, 100_000)))
            .collect();
        let mut sim = Sim::new();
        let machine = Machine::new(sim.handle(), presets::paragon_small().with_io_nodes(6));
        let m2 = Rc::clone(&machine);
        let fs = FileSystem::new(machine, TraceCollector::new());
        let jh = sim.spawn(async move {
            let fh = fs
                .open(
                    0,
                    Interface::Passion,
                    "grouped",
                    Some(CreateOptions {
                        stripe_factor: Some(stripe_factor),
                        ..Default::default()
                    }),
                )
                .await
                .expect("open");
            for (offset, len) in ops {
                fh.write_discard_at(offset, len).await.expect("write");
            }
        });
        sim.run();
        jh.try_take().expect("completed");
        let busy_nodes = (0..6)
            .filter(|&i| m2.io_queue(i).stats().requests > 0)
            .count();
        assert!(
            busy_nodes <= stripe_factor,
            "seed {s}: traffic leaked outside the stripe group: {busy_nodes} > {stripe_factor}"
        );
    }
}

#[test]
fn two_phase_random_pieces_equal_direct() {
    for s in 0..SEEDS {
        let mut rng = SimRng::seed_from(0x2fa5_0000 + s);
        let n = rng.range(4, 16);
        let piece_lens: Vec<u64> = (0..n).map(|_| rng.range(1, 300)).collect();
        let ranks = rng.range(2, 5) as usize;
        // Deterministically deal random-length contiguous pieces to ranks
        // round-robin; both write paths must produce the same file.
        let offsets: Vec<u64> = piece_lens
            .iter()
            .scan(0u64, |acc, &l| {
                let o = *acc;
                *acc += l;
                Some(o)
            })
            .collect();
        let total: u64 = piece_lens.iter().sum();
        let build = |collective: bool| -> Vec<u8> {
            let out: Rc<RefCell<Vec<u8>>> = Rc::default();
            let out2 = Rc::clone(&out);
            let lens = piece_lens.clone();
            let offs = offsets.clone();
            run_ranks(
                presets::sp2().with_compute_nodes(ranks),
                ranks,
                move |ctx| {
                    let lens = lens.clone();
                    let offs = offs.clone();
                    let out = Rc::clone(&out2);
                    Box::pin(async move {
                        let fh = ctx
                            .fs
                            .open(
                                ctx.rank,
                                Interface::UnixStyle,
                                "tp",
                                Some(CreateOptions {
                                    stored: true,
                                    ..Default::default()
                                }),
                            )
                            .await
                            .expect("open");
                        let mine: Vec<Piece> = lens
                            .iter()
                            .zip(&offs)
                            .enumerate()
                            .filter(|(k, _)| k % ctx.comm.size() == ctx.rank)
                            .map(|(k, (&l, &o))| {
                                let data: Vec<u8> =
                                    (0..l).map(|i| ((k as u64 * 13 + i) % 251) as u8).collect();
                                Piece::bytes(o, data)
                            })
                            .collect();
                        if collective {
                            write_collective(&ctx.comm, &fh, mine)
                                .await
                                .expect("collective");
                        } else {
                            for p in mine {
                                fh.write_at(p.offset, p.payload.data.expect("bytes"))
                                    .await
                                    .expect("direct");
                            }
                        }
                        ctx.comm.barrier().await;
                        if ctx.rank == 0 {
                            *out.borrow_mut() =
                                fh.read_at(0, fh.size()).await.expect("read back").to_vec();
                        }
                    })
                },
            );
            let v = out.borrow().clone();
            v
        };
        let direct = build(false);
        let collective = build(true);
        assert_eq!(direct.len() as u64, total, "seed {s}: file length");
        assert_eq!(
            direct, collective,
            "seed {s}: {ranks} ranks, pieces {piece_lens:?}"
        );
    }
}
