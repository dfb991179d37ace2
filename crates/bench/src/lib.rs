//! # iosim-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation section
//! from the simulation, with shape checks against the paper's claims.
//! Used by the `repro` binary (full-scale runs, EXPERIMENTS.md) and the
//! `bench` binary (host wall-clock trajectory, BENCH_wallclock.json).

pub mod advisor;
pub mod experiments;
pub mod parallel;
pub mod structs;
pub mod wallclock;

/// Parse a `--scale` value: a problem-size factor must be a finite
/// number greater than zero. The error is the one-line message every
/// binary prints before exiting with status 2.
pub fn parse_scale(v: &str) -> Result<f64, String> {
    match v.parse::<f64>() {
        Ok(x) if x.is_finite() && x > 0.0 => Ok(x),
        _ => Err(format!("--scale must be a finite number > 0, got '{v}'")),
    }
}
