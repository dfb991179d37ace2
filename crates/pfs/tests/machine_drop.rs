//! Dropping a finished simulation releases its machine.
//!
//! Background daemons (the per-I/O-node command-queue daemons at queue
//! depth > 1, the buffer cache's flush daemon) stay parked in the
//! executor's task slab when the run ends, and each holds an
//! `Rc<Machine>` — which holds a handle back into the executor. Unless
//! dropping the `Sim` releases its pending tasks, that cycle keeps the
//! machine, its file system and every stored byte alive forever, and a
//! process that runs many simulations grows without bound.

use std::rc::{Rc, Weak};

use iosim_machine::{presets, Interface, Machine, MachineConfig};
use iosim_pfs::{CreateOptions, FileSystem};
use iosim_simkit::executor::Sim;
use iosim_trace::TraceCollector;

/// Run one write-then-read program on `cfg`, drop everything, and
/// report whether the machine is still reachable. With `drop_fs_early`
/// the file system goes before the run (closing the daemons' channels),
/// otherwise after it.
fn machine_survives(cfg: MachineConfig, drop_fs_early: bool) -> bool {
    let mut sim = Sim::new();
    let machine = Machine::new(sim.handle(), cfg);
    let weak: Weak<Machine> = Rc::downgrade(&machine);
    let fs = FileSystem::new(machine, TraceCollector::new());
    let fs2 = Rc::clone(&fs);
    let jh = sim.spawn(async move {
        let opts = CreateOptions {
            stored: true,
            ..Default::default()
        };
        let fh = fs2
            .open(0, Interface::UnixStyle, "f", Some(opts))
            .await
            .expect("open");
        fh.write_at(0, &[7u8; 8192]).await.expect("write");
        fh.read_at(0, 8192).await.expect("read")
    });
    if drop_fs_early {
        drop(fs);
        sim.run();
    } else {
        sim.run();
        drop(fs);
    }
    assert_eq!(jh.try_take().expect("program completed"), vec![7u8; 8192]);
    drop(sim);
    weak.upgrade().is_some()
}

#[test]
fn queue_daemons_do_not_keep_the_machine_alive() {
    let deep = presets::paragon_small().with_io_queue_depth(8);
    assert!(
        !machine_survives(deep.clone(), false),
        "depth 8, fs dropped after the run: machine leaked"
    );
    assert!(
        !machine_survives(deep, true),
        "depth 8, fs dropped before the run: machine leaked"
    );
    assert!(
        !machine_survives(presets::paragon_small(), false),
        "depth 1: machine leaked"
    );
}

#[test]
fn cache_daemons_do_not_keep_the_machine_alive() {
    for depth in [1, 8] {
        let cfg = presets::paragon_small()
            .with_io_queue_depth(depth)
            .with_cache(iosim_machine::CacheParams::lru(1 << 20));
        assert!(
            !machine_survives(cfg, false),
            "cache on, depth {depth}: machine leaked"
        );
    }
}
