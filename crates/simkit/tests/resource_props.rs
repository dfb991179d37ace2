//! Property tests of the FIFO resource: the virtual-queue booking must
//! behave exactly like an m-server FIFO queue.
//!
//! Cases come from the in-tree [`SimRng`]; every assertion names its
//! seed, so a failure replays from that seed alone.

use iosim_simkit::prelude::*;
use iosim_simkit::rng::SimRng;

/// Seeds per property. Each seed is one independent random case.
const SEEDS: u64 = 256;

/// `n` jobs in `[lo_n, hi_n)`, each `(arrival in [0, max_arrival), dur in
/// [1, max_dur))`.
fn jobs(rng: &mut SimRng, n: (u64, u64), max_arrival: u64, max_dur: u64) -> Vec<(u64, u64)> {
    let count = rng.range(n.0, n.1);
    (0..count)
        .map(|_| (rng.range(0, max_arrival), rng.range(1, max_dur)))
        .collect()
}

/// Book `durs[i]` at arrival times `arrivals[i]` (non-decreasing) and
/// return the (start, end) pairs.
fn book_all(capacity: usize, jobs: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let sim = Sim::new();
    let r = Resource::new(sim.handle(), "r", capacity);
    jobs.iter()
        .map(|&(arrival, dur)| {
            let (s, e) = r.reserve_at(SimTime(arrival), SimDuration(dur));
            (s.as_nanos(), e.as_nanos())
        })
        .collect()
}

#[test]
fn single_server_is_fifo_and_work_conserving() {
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from(0x5e50_0000 + seed);
        let mut jobs = jobs(&mut rng, (1, 50), 10_000, 1_000);
        jobs.sort_by_key(|&(a, _)| a);
        let booked = book_all(1, &jobs);
        let mut prev_end = 0u64;
        for (k, ((arrival, dur), &(start, end))) in jobs.iter().zip(&booked).enumerate() {
            // FIFO: no job starts before the previous finished.
            assert!(start >= prev_end, "seed {seed} job {k}: overtook");
            // No job starts before it arrives; service is exact.
            assert!(start >= *arrival, "seed {seed} job {k}: started early");
            assert_eq!(end, start + dur, "seed {seed} job {k}: service time");
            // Work conservation: the server never idles while work waits —
            // it starts at max(arrival, previous end).
            assert_eq!(
                start,
                (*arrival).max(prev_end),
                "seed {seed} job {k}: server idled"
            );
            prev_end = end;
        }
    }
}

#[test]
fn multi_server_never_exceeds_capacity() {
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from(0x5e51_0000 + seed);
        let mut jobs = jobs(&mut rng, (1, 60), 5_000, 500);
        let capacity = rng.range(1, 5) as usize;
        jobs.sort_by_key(|&(a, _)| a);
        let booked = book_all(capacity, &jobs);
        // At any service start, the number of overlapping services must
        // not exceed the capacity.
        for (i, &(s_i, _)) in booked.iter().enumerate() {
            let overlapping = booked
                .iter()
                .enumerate()
                .filter(|&(j, &(s, e))| j != i && s <= s_i && s_i < e)
                .count();
            assert!(
                overlapping < capacity,
                "seed {seed}: {overlapping} services already running at start {s_i}"
            );
        }
        // Total busy time matches the sum of durations.
        let total: u64 = jobs.iter().map(|&(_, d)| d).sum();
        let busy: u64 = booked.iter().map(|&(s, e)| e - s).sum();
        assert_eq!(total, busy, "seed {seed}: busy time");
    }
}

#[test]
fn stats_agree_with_bookings() {
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from(0x5e52_0000 + seed);
        let jobs = jobs(&mut rng, (1, 30), 1_000, 100);
        let sim = Sim::new();
        let r = Resource::new(sim.handle(), "r", 2);
        let mut last = 0u64;
        for &(arrival, dur) in &jobs {
            let (_, e) = r.reserve_at(SimTime(arrival), SimDuration(dur));
            last = last.max(e.as_nanos());
        }
        let st = r.stats();
        assert_eq!(st.requests, jobs.len() as u64, "seed {seed}: requests");
        assert_eq!(
            st.busy.as_nanos(),
            jobs.iter().map(|&(_, d)| d).sum::<u64>(),
            "seed {seed}: busy"
        );
        assert_eq!(
            st.last_completion.as_nanos(),
            last,
            "seed {seed}: last completion"
        );
    }
}

#[test]
fn sleeping_tasks_complete_in_deadline_order() {
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from(0x5e53_0000 + seed);
        let n = rng.range(1, 40);
        let delays: Vec<u64> = (0..n).map(|_| rng.range(1, 1_000_000)).collect();
        let mut sim = Sim::new();
        let h = sim.handle();
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        for (i, &d) in delays.iter().enumerate() {
            let h = h.clone();
            let log = std::rc::Rc::clone(&log);
            sim.spawn(async move {
                h.sleep(SimDuration(d)).await;
                log.borrow_mut().push((d, i));
            });
        }
        let end = sim.run();
        assert_eq!(
            end.as_nanos(),
            *delays.iter().max().unwrap(),
            "seed {seed}: end time"
        );
        // Completions are sorted by (deadline, spawn order).
        let completed = log.borrow().clone();
        let mut expected = completed.clone();
        expected.sort();
        assert_eq!(completed, expected, "seed {seed}: completion order");
    }
}
