//! `perfbench --workload W --seed N --seconds S --trace 0|1`
//!
//! Repeats workload `W` (built from seed `N`) until `S` seconds have
//! passed, checks every repetition against the pin table, prints a
//! table of every metric with its unit, and ends with one JSON line:
//! end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. A traced run alternates untraced and traced
//! repetitions, so it also reports the tracing overhead.
//!
//! `--print-pins` runs one untraced repetition and prints its pin-table
//! lines instead.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use iosim_perfbench::metrics::{median, result_json, END_TO_END, PER_LAYER};
use iosim_perfbench::{alloc, nproc, pins, secs, workloads, Rep, Workload};

const USAGE: &str = "usage: perfbench --workload <btio_a64|scf11_read|trace_replay|advisor_sweep> \
                     --seed <n> --seconds <s> --trace <0|1> [--print-pins]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_pins: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut print_pins = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-pins" {
            print_pins = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        print_pins,
    })
}

/// What a run gathered from its repetitions.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    wall: Vec<f64>,
    setup: Vec<f64>,
    io_ops_per_s: Vec<f64>,
    queries_per_s: Vec<f64>,
    peak_mib: Vec<f64>,
    traced_wall: Vec<f64>,
    layers: BTreeMap<&'static str, Vec<f64>>,
}

impl Tally {
    fn check(&mut self, what: &str, passed: bool) {
        self.attempted += 1;
        if !passed {
            self.failed += 1;
            println!("FAIL: {what}");
        }
    }

    /// Check one repetition against the reference pins (taken from the
    /// first repetition when the table has none for this seed).
    fn absorb(
        &mut self,
        rep: Rep,
        traced: bool,
        peak: usize,
        reference: &mut Option<BTreeMap<String, u64>>,
    ) {
        let reference = reference.get_or_insert_with(|| rep.pins.iter().cloned().collect());
        let kind = if traced { "traced" } else { "untraced" };
        let got: BTreeMap<&str, u64> = rep.pins.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        for (key, want) in reference.iter() {
            let ok = got.get(key.as_str()) == Some(want);
            self.check(
                &format!(
                    "{kind} pin {key}: got {:?}, pinned {want}",
                    got.get(key.as_str())
                ),
                ok,
            );
        }
        self.check(
            &format!("{kind}: no value outside the pin table"),
            got.len() == reference.len(),
        );
        for (what, ok) in &rep.checks {
            self.check(&format!("{kind}: {what}"), *ok);
        }
        if traced {
            self.traced_wall.push(rep.wall_s);
            for (name, value) in rep.layers {
                self.layers.entry(name).or_default().push(value);
            }
        } else if rep.wall_s > 0.0 {
            self.wall.push(rep.wall_s);
            self.setup.extend(rep.setup_s);
            self.io_ops_per_s.push(rep.io_ops as f64 / rep.wall_s);
            self.queries_per_s.push(rep.queries as f64 / rep.wall_s);
            self.peak_mib.push(mib(peak));
        }
    }
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

/// Run one repetition; also returns its peak heap above what was live
/// when it started (the inputs, and anything earlier repetitions kept).
fn run_one(wl: &mut dyn Workload, traced: bool) -> Result<(Rep, usize), ()> {
    alloc::reset_peak();
    let base = alloc::live_bytes();
    let rep = catch_unwind(AssertUnwindSafe(|| wl.rep(traced))).map_err(|_| ())?;
    Ok((rep, alloc::peak_bytes().saturating_sub(base)))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(mut wl) = workloads::build(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let name = args.workload.as_str();
    if args.print_pins {
        return match run_one(wl.as_mut(), false) {
            Ok((rep, _)) if rep.checks.iter().all(|(_, ok)| *ok) => {
                let seed = match name {
                    "btio_a64" | "scf11_read" => "*".to_string(),
                    _ => args.seed.to_string(),
                };
                print!("{}", pins::render(name, &seed, &rep.pins));
                ExitCode::SUCCESS
            }
            _ => {
                eprintln!("perfbench: the repetition failed; nothing to pin");
                ExitCode::FAILURE
            }
        };
    }

    let mut reference = pins::lookup(name, args.seed);
    println!(
        "perfbench: workload={name} seed={} seconds={} trace={} threads={} pins={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        if reference.is_some() {
            "table"
        } else {
            "first repetition (seed not in pins.tsv)"
        }
    );
    let mut tally = Tally::default();
    let t_run = Instant::now();
    let mut rounds = 0u32;
    loop {
        for traced in [false, true] {
            if traced && !args.trace {
                continue;
            }
            let t = Instant::now();
            let result = run_one(wl.as_mut(), traced);
            tally.check("repetition completed without a panic", result.is_ok());
            if let Ok((rep, peak)) = result {
                println!(
                    "rep {rounds} {}: wall {:.6} s, peak {:.1} MiB, live after {:.3} MiB, \
                     {:.3} s with checks",
                    if traced { "traced" } else { "untraced" },
                    rep.wall_s,
                    mib(peak),
                    mib(alloc::live_bytes()),
                    secs(t)
                );
                tally.absorb(rep, traced, peak, &mut reference);
            }
        }
        rounds += 1;
        // Stop when another round would overrun the budget, so a run
        // lasts about `--seconds` whatever the repetition length.
        let elapsed = secs(t_run);
        if elapsed + elapsed / rounds as f64 > args.seconds {
            break;
        }
    }
    let _ = std::fs::remove_dir(".perfbench_tmp");

    let wall = median(&tally.wall);
    let e2e: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .zip([
            wall,
            median(&tally.setup),
            median(&tally.io_ops_per_s),
            median(&tally.queries_per_s),
            median(&tally.peak_mib),
        ])
        .map(|((m, u), v)| (*m, *u, v))
        .collect();
    // Per-layer values of a traced run; `None` where the workload
    // produced none.
    let layers: Vec<(&str, &str, Option<f64>)> = PER_LAYER
        .iter()
        .filter(|_| args.trace)
        .map(|&(metric, unit)| {
            let value = if metric == "trace.overhead_s" {
                Some(median(&tally.traced_wall) - wall)
            } else {
                tally.layers.get(metric).map(|v| median(v))
            };
            (metric, unit, value)
        })
        .collect();
    tally.check(
        "at least one untraced repetition completed",
        !tally.wall.is_empty(),
    );
    tally.check(
        "every metric is a finite number",
        e2e.iter().all(|(_, _, v)| v.is_finite())
            && layers.iter().all(|(_, _, v)| v.is_none_or(f64::is_finite)),
    );

    println!(
        "end-to-end, untraced, median of {} repetitions ({} set-up samples):",
        tally.wall.len(),
        tally.setup.len()
    );
    for (metric, unit, value) in &e2e {
        println!("  {metric:<32} {value:>18.9} {unit}");
    }
    let fail_frac = tally.failed as f64 / tally.attempted as f64;
    println!(
        "  {:<32} {fail_frac:>18.9} ({} of {} checks failed)",
        "fail_frac", tally.failed, tally.attempted
    );
    if args.trace {
        let unavailable = wl.unavailable();
        println!(
            "per-layer, traced, median of {} repetitions:",
            tally.traced_wall.len()
        );
        for (metric, unit, value) in &layers {
            let why = unavailable
                .iter()
                .find(|(prefix, _)| metric.starts_with(prefix))
                .map(|(_, why)| *why);
            match (value, why) {
                (Some(v), _) => println!("  {metric:<32} {v:>18.9} {unit}"),
                (None, Some(why)) => println!("  {metric:<32} unavailable: {why}"),
                (None, None) => println!("  {metric:<32} not exercised by this workload (0)"),
            }
        }
    }

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        layers
            .iter()
            .map(|&(m, u, v)| (m, u, v.unwrap_or(0.0)))
            .collect()
    } else {
        e2e
    };
    println!("{}", result_json(tally.attempted, tally.failed, &metrics));
    ExitCode::SUCCESS
}
