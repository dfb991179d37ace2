//! Shared run harness: the workload crate's [`run_ranks`] and
//! [`RunResult`] (one harness and one report type for applications and
//! trace replay alike), plus the machine knobs every application takes.

use iosim_machine::MachineConfig;
pub use iosim_workload::run::{run_ranks, AppCtx, RankFuture, RunResult};

/// Apply an application-level cache knob to a machine config:
/// `cache_mb` megabytes of LRU buffer cache per I/O node, `0` keeping
/// the machine uncached (the presets' default).
pub fn with_cache_mb(cfg: MachineConfig, cache_mb: u64) -> MachineConfig {
    if cache_mb == 0 {
        cfg
    } else {
        cfg.with_lru_cache(cache_mb << 20)
    }
}

/// Apply an application-level queue-depth knob to a machine config:
/// NCQ-style command queuing with `depth` outstanding commands per I/O
/// node. `0` and `1` both keep the presets' depth-1 legacy FIFO path.
pub fn with_queue_depth(cfg: MachineConfig, depth: usize) -> MachineConfig {
    if depth <= 1 {
        cfg
    } else {
        cfg.with_io_queue_depth(depth)
    }
}
