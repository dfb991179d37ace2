//! # iosim-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation section
//! from the simulation, with shape checks against the paper's claims.
//! Used by the `repro` binary (full-scale runs, EXPERIMENTS.md) and the
//! `bench` binary (host wall-clock trajectory, BENCH_wallclock.json).

pub mod advisor;
pub mod baseline;
pub mod experiments;
pub mod parallel;
pub mod structs;
pub mod wallclock;
