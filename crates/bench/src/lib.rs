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

/// Parse the value `v` of a real-valued flag that must be a finite
/// number greater than zero (`--scale`, `--rate`, `--duration`, ...).
/// The error is the one-line message, naming `flag`, that every binary
/// prints before exiting with status 2.
pub fn parse_positive(flag: &str, v: &str) -> Result<f64, String> {
    match v.parse::<f64>() {
        Ok(x) if x.is_finite() && x > 0.0 => Ok(x),
        _ => Err(format!("{flag} must be a finite number > 0, got '{v}'")),
    }
}
