//! The instantiated machine: per-I/O-node service queues, per-node NICs,
//! and cost helpers, bound to one simulation.

use std::rc::Rc;

use iosim_simkit::executor::SimHandle;
use iosim_simkit::resource::Resource;
use iosim_simkit::time::SimDuration;

use crate::config::MachineConfig;
use crate::topology::Topology;

/// A machine instance bound to a simulation.
///
/// Owns the contended resources: one FIFO queue per I/O node (with one
/// server per attached disk) and one NIC per compute node. All other costs
/// (CPU, network transfer) are uncontended analytic delays, which keeps
/// the event count low while preserving the queueing effects the paper's
/// results hinge on (compute nodes piling onto few I/O nodes).
pub struct Machine {
    handle: SimHandle,
    cfg: MachineConfig,
    topo: Topology,
    io_queues: Vec<Resource>,
    nics: Vec<Resource>,
    /// Mesh links (half-duplex); empty unless `cfg.net.link_contention`.
    links: Vec<Resource>,
}

impl Machine {
    /// Instantiate `cfg` in the simulation behind `handle`.
    ///
    /// # Panics
    /// Panics if the configuration fails validation.
    pub fn new(handle: SimHandle, cfg: MachineConfig) -> Rc<Machine> {
        if let Err(e) = cfg.validate() {
            panic!("invalid machine config: {e}");
        }
        let topo = Topology::new(cfg.mesh, cfg.io_nodes);
        let io_queues = (0..cfg.io_nodes)
            .map(|i| {
                Resource::new(
                    handle.clone(),
                    format!("io-node-{i}"),
                    cfg.disks_per_io_node,
                )
            })
            .collect();
        let nics = (0..cfg.compute_nodes)
            .map(|i| Resource::new(handle.clone(), format!("nic-{i}"), 1))
            .collect();
        let links = if cfg.net.link_contention {
            (0..topo.link_count())
                .map(|i| Resource::new(handle.clone(), format!("link-{i}"), 1))
                .collect()
        } else {
            Vec::new()
        };
        Rc::new(Machine {
            handle,
            cfg,
            topo,
            io_queues,
            nics,
            links,
        })
    }

    /// Book bandwidth for `bytes` on every link of the XY route from `a`
    /// to `b`, returning the latest completion instant — the wormhole
    /// approximation: the message holds each route link for its transfer
    /// duration. No-op returning `now` when link contention is off or the
    /// route is empty.
    pub fn reserve_route(
        &self,
        a: crate::topology::Coord,
        b: crate::topology::Coord,
        bytes: u64,
        arrival: iosim_simkit::time::SimTime,
    ) -> iosim_simkit::time::SimTime {
        if self.links.is_empty() {
            return arrival;
        }
        let dur = SimDuration::from_secs_f64(bytes as f64 / self.cfg.net.bandwidth_bps);
        let mut latest = arrival;
        for link in self.topo.route_links(a, b) {
            let (_, end) = self.links[link].reserve_at(arrival, dur);
            latest = latest.max(end);
        }
        latest
    }

    /// Whether mesh-link contention is being modelled.
    pub fn models_link_contention(&self) -> bool {
        !self.links.is_empty()
    }

    /// The simulation handle this machine is bound to.
    pub fn handle(&self) -> &SimHandle {
        &self.handle
    }

    /// The configuration.
    pub fn cfg(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The topology (node placement, hop counts).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of compute nodes.
    pub fn compute_nodes(&self) -> usize {
        self.cfg.compute_nodes
    }

    /// Number of I/O nodes.
    pub fn io_nodes(&self) -> usize {
        self.cfg.io_nodes
    }

    /// Time to execute `flops` floating-point operations on one node.
    pub fn compute_duration(&self, flops: f64) -> SimDuration {
        SimDuration::from_secs_f64(flops / (self.cfg.cpu.effective_mflops * 1e6))
    }

    /// Execute `flops` on the calling task's node (pure delay; compute
    /// nodes are not shared between tasks).
    pub async fn compute(&self, flops: f64) {
        self.handle.sleep(self.compute_duration(flops)).await;
    }

    /// The FIFO service queue of I/O node `io`.
    pub fn io_queue(&self, io: usize) -> &Resource {
        &self.io_queues[io]
    }

    /// Disk service time at I/O node `io` for one request, including that
    /// node's speed factor (failure injection). Flat-cost model.
    pub fn disk_service_time(&self, io: usize, bytes: u64, seek: bool) -> SimDuration {
        self.apply_speed(io, self.cfg.disk.service_time(bytes, seek))
    }

    /// Disk service time with head-position awareness: `prev_end` is the
    /// node's previous access end offset on the same file (`None` = cold
    /// head or other file at offset 0). Uses the geometric model when the
    /// machine has one, else the flat model with a seek whenever the
    /// request is discontiguous.
    pub fn disk_service_positioned(
        &self,
        io: usize,
        prev_end: Option<u64>,
        offset: u64,
        bytes: u64,
    ) -> SimDuration {
        let sequential = prev_end == Some(offset);
        let t = match &self.cfg.disk_geometry {
            None => self.cfg.disk.service_time(bytes, !sequential),
            Some(geo) => {
                let head_at = if sequential {
                    None
                } else {
                    Some(geo.cylinder_of(prev_end.unwrap_or(0)))
                };
                geo.service_time(head_at, offset, bytes)
            }
        };
        self.apply_speed(io, t)
    }

    /// Disk service time for one multi-run command at I/O node `io`:
    /// the first run pays the full positioned cost from `prev_end`, each
    /// later run adds its positioned cost minus the per-request overhead
    /// (a queued command issues once and walks its runs). `runs` are
    /// `(local_offset, bytes)` pairs serviced in order. This is exactly
    /// the incremental arithmetic of the vectored list-I/O path, so a
    /// single-run command costs precisely `disk_service_positioned`.
    ///
    /// # Panics
    /// Panics if `runs` is empty.
    pub fn disk_service_runs(
        &self,
        io: usize,
        prev_end: Option<u64>,
        runs: &[(u64, u64)],
    ) -> SimDuration {
        let (off0, len0) = runs[0];
        let mut svc = self.disk_service_positioned(io, prev_end, off0, len0);
        let mut head = off0 + len0;
        let base = self.disk_service_time(io, 0, false);
        for &(off, len) in &runs[1..] {
            svc += self
                .disk_service_positioned(io, Some(head), off, len)
                .saturating_sub(base);
            head = off + len;
        }
        svc
    }

    /// The per-I/O-node command-queue depth (1 = legacy FIFO path).
    pub fn io_queue_depth(&self) -> usize {
        self.cfg.io_queue_depth
    }

    fn apply_speed(&self, io: usize, nominal: SimDuration) -> SimDuration {
        let speed = self.cfg.io_node_speed_of(io);
        if (speed - 1.0).abs() < f64::EPSILON {
            nominal
        } else {
            SimDuration::from_secs_f64(nominal.as_secs_f64() / speed)
        }
    }

    /// The NIC of compute node `rank` (serializes its message injections).
    pub fn nic(&self, rank: usize) -> &Resource {
        &self.nics[rank]
    }

    /// Network time for `bytes` between compute rank `rank` and I/O node
    /// `io`.
    pub fn net_time_to_io(&self, rank: usize, io: usize, bytes: u64) -> SimDuration {
        self.cfg
            .net
            .transfer_time(bytes, self.topo.io_hops(rank, io))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use iosim_simkit::executor::Sim;
    use iosim_simkit::time::SimTime;

    #[test]
    fn machine_builds_resources() {
        let sim = Sim::new();
        let m = Machine::new(sim.handle(), presets::sp2());
        assert_eq!(m.io_nodes(), 4);
        assert_eq!(m.compute_nodes(), presets::sp2().compute_nodes);
        assert_eq!(m.io_queue(0).capacity(), 4); // 4 disks per I/O node
        assert_eq!(m.nic(0).capacity(), 1);
    }

    #[test]
    fn compute_consumes_virtual_time() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let m = Machine::new(h.clone(), presets::paragon_small());
        let mflops = m.cfg().cpu.effective_mflops;
        let jh = sim.spawn(async move {
            m.compute(mflops * 1e6).await; // exactly one second of work
            h.now()
        });
        sim.run();
        assert_eq!(jh.try_take().unwrap(), SimTime(1_000_000_000));
    }

    #[test]
    fn net_time_monotone_in_bytes_and_distance() {
        let sim = Sim::new();
        let m = Machine::new(sim.handle(), presets::paragon_large());
        let near = m.net_time_to_io(0, 0, 1024);
        let far = m.net_time_to_io(0, m.io_nodes() - 1, 1024);
        assert!(far >= near);
        assert!(m.net_time_to_io(0, 0, 1 << 20) > near);
    }

    #[test]
    #[should_panic(expected = "invalid machine config")]
    fn invalid_config_panics() {
        let sim = Sim::new();
        let mut cfg = presets::paragon_small();
        cfg.io_nodes = 0;
        let _ = Machine::new(sim.handle(), cfg);
    }

    #[test]
    fn degraded_io_node_scales_service_time() {
        let sim = Sim::new();
        let cfg = presets::paragon_small()
            .with_io_nodes(4)
            .with_degraded_io_node(1, 0.5);
        let m = Machine::new(sim.handle(), cfg);
        let nominal = m.disk_service_time(0, 1 << 20, true);
        let degraded = m.disk_service_time(1, 1 << 20, true);
        assert_eq!(degraded.as_nanos(), nominal.as_nanos() * 2);
        // Untouched nodes stay nominal.
        assert_eq!(m.disk_service_time(3, 1 << 20, true), nominal);
    }

    #[test]
    fn positioned_service_flat_model_matches_seek_flag() {
        let sim = Sim::new();
        let m = Machine::new(sim.handle(), presets::paragon_small());
        // Sequential continuation == no-seek flat service.
        assert_eq!(
            m.disk_service_positioned(0, Some(4096), 4096, 1024),
            m.disk_service_time(0, 1024, false)
        );
        // Discontiguous or cold == seek.
        assert_eq!(
            m.disk_service_positioned(0, Some(0), 4096, 1024),
            m.disk_service_time(0, 1024, true)
        );
        assert_eq!(
            m.disk_service_positioned(0, None, 4096, 1024),
            m.disk_service_time(0, 1024, true)
        );
    }

    #[test]
    fn multi_run_service_matches_the_incremental_arithmetic() {
        let sim = Sim::new();
        let m = Machine::new(sim.handle(), presets::paragon_small());
        // One run degenerates to the positioned cost exactly.
        assert_eq!(
            m.disk_service_runs(0, Some(4096), &[(4096, 1024)]),
            m.disk_service_positioned(0, Some(4096), 4096, 1024)
        );
        // Two discontiguous runs: the second pays its positioned cost
        // minus the per-request overhead (issued once per command).
        let base = m.disk_service_time(0, 0, false);
        let expect = m.disk_service_positioned(0, None, 0, 1024)
            + m.disk_service_positioned(0, Some(1024), 8192, 1024)
                .saturating_sub(base);
        assert_eq!(
            m.disk_service_runs(0, None, &[(0, 1024), (8192, 1024)]),
            expect
        );
        // Adjacent runs cost exactly one merged sequential stream extra.
        let merged = m.disk_service_runs(0, Some(0), &[(0, 2048)]);
        let split = m.disk_service_runs(0, Some(0), &[(0, 1024), (1024, 1024)]);
        assert_eq!(split, merged);
    }

    #[test]
    fn geometric_model_prices_seek_distance() {
        use crate::disk::DiskGeometry;
        let sim = Sim::new();
        let cfg = presets::paragon_small().with_disk_geometry(DiskGeometry::classic_1995());
        let m = Machine::new(sim.handle(), cfg);
        let geo = DiskGeometry::classic_1995();
        let near = m.disk_service_positioned(0, Some(0), geo.cylinder_bytes(), 4096);
        let far =
            m.disk_service_positioned(0, Some(0), geo.cylinder_bytes() * (geo.cylinders - 1), 4096);
        assert!(
            far > near + SimDuration::from_millis(5),
            "full-stroke {far} should dwarf track-to-track {near}"
        );
        // Sequential continuation skips seek and rotation entirely.
        let seq = m.disk_service_positioned(0, Some(8192), 8192, 4096);
        assert!(seq < near);
    }

    #[test]
    fn io_queue_contention_serializes() {
        let mut sim = Sim::new();
        let m = Machine::new(sim.handle(), presets::paragon_small().with_io_nodes(1));
        // Single disk on the single I/O node: two bookings serialize.
        let d = SimDuration::from_millis(10);
        let (_, e1) = m.io_queue(0).reserve(d);
        let (_, e2) = m.io_queue(0).reserve(d);
        assert_eq!(e2, e1 + d);
        sim.run();
    }
}
