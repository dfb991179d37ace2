//! PFS/PIOFS I/O modes.
//!
//! The paper's platform section notes that "both PFS and PIOFS have
//! different I/O modes which make the programming for I/O very difficult
//! for the user". This module models the Paragon PFS modes beyond the
//! default independent-pointer mode (`M_UNIX`, which is what a plain
//! [`FileHandle`] provides):
//!
//! - **`M_LOG`** ([`LogFile`]): one *shared* file pointer; every write
//!   appends atomically at the current end, in operation order —
//!   first-come-first-served interleaving across compute nodes.
//! - **`M_RECORD`** ([`RecordFile`]): fixed-size records interleaved
//!   round-robin by node — node `r`'s `k`-th record lands in slot
//!   `k · nodes + r`, giving coordinated access without synchronization.
//! - **`M_GLOBAL`** ([`GlobalFile`]): every node reads the same data; the
//!   file system performs one disk read and broadcasts, so `n` readers
//!   cost one disk access plus network fan-out.

use std::cell::RefCell;
use std::rc::Rc;

use iosim_buf::Bytes;
use iosim_simkit::hash::FxHashMap;
use iosim_simkit::sync::Event;
use iosim_simkit::time::SimTime;

use crate::fs::{FileHandle, FsError};
use crate::request::IoRequest;

/// `M_LOG`: shared-pointer atomic appends.
///
/// All participating handles share one [`LogCursor`]; appends allocate
/// their region at the cursor in call order (the simulation executor is
/// deterministic, so "call order" is well defined) and then perform an
/// ordinary positioned write.
#[derive(Clone, Default)]
pub struct LogCursor {
    pos: Rc<RefCell<u64>>,
}

impl LogCursor {
    /// A cursor starting at offset 0.
    pub fn new() -> LogCursor {
        LogCursor::default()
    }

    /// Current end-of-log offset.
    pub fn position(&self) -> u64 {
        *self.pos.borrow()
    }

    fn allocate(&self, len: u64) -> u64 {
        let mut p = self.pos.borrow_mut();
        let off = *p;
        *p += len;
        off
    }
}

/// A handle participating in `M_LOG` mode.
pub struct LogFile {
    fh: FileHandle,
    cursor: LogCursor,
}

impl LogFile {
    /// Wrap `fh` with the shared `cursor`.
    pub fn new(fh: FileHandle, cursor: LogCursor) -> LogFile {
        LogFile { fh, cursor }
    }

    /// Atomically append `data`; returns the offset it landed at.
    pub async fn append(&self, data: &[u8]) -> Result<u64, FsError> {
        let off = self.cursor.allocate(data.len() as u64);
        self.fh.write_at(off, data).await?;
        Ok(off)
    }

    /// Atomically append `len` synthetic bytes; returns the offset.
    pub async fn append_discard(&self, len: u64) -> Result<u64, FsError> {
        let off = self.cursor.allocate(len);
        self.fh.write_discard_at(off, len).await?;
        Ok(off)
    }

    /// The underlying handle.
    pub fn handle(&self) -> &FileHandle {
        &self.fh
    }

    /// Close the handle.
    pub async fn close(self) {
        self.fh.close().await;
    }
}

/// `M_RECORD`: fixed-size records, round-robin by node slot.
pub struct RecordFile {
    fh: FileHandle,
    record_size: u64,
    slot: u64,
    slots: u64,
    next_record: u64,
}

impl RecordFile {
    /// Wrap `fh` for node `slot` of `slots`, with `record_size`-byte
    /// records.
    ///
    /// # Panics
    /// Panics on a zero record size, zero slots, or `slot >= slots`.
    pub fn new(fh: FileHandle, slot: u64, slots: u64, record_size: u64) -> RecordFile {
        assert!(record_size > 0, "record size must be positive");
        assert!(slots > 0 && slot < slots, "slot must be < slots");
        RecordFile {
            fh,
            record_size,
            slot,
            slots,
            next_record: 0,
        }
    }

    /// File offset of this node's `k`-th record.
    pub fn offset_of(&self, k: u64) -> u64 {
        (k * self.slots + self.slot) * self.record_size
    }

    /// Write this node's next record.
    pub async fn write_record(&mut self, data: &[u8]) -> Result<u64, FsError> {
        assert_eq!(
            data.len() as u64,
            self.record_size,
            "record must be exactly {} bytes",
            self.record_size
        );
        let off = self.offset_of(self.next_record);
        self.next_record += 1;
        self.fh.write_at(off, data).await?;
        Ok(off)
    }

    /// Write this node's next record, timing-only.
    pub async fn write_record_discard(&mut self) -> Result<u64, FsError> {
        let off = self.offset_of(self.next_record);
        self.next_record += 1;
        self.fh.write_discard_at(off, self.record_size).await?;
        Ok(off)
    }

    /// Read this node's `k`-th record.
    pub async fn read_record(&self, k: u64) -> Result<Bytes, FsError> {
        self.fh.read_at(self.offset_of(k), self.record_size).await
    }

    /// Describe this node's records `k0 .. k0+count` as one vectored
    /// request (the node's round-robin slots in the shared file).
    pub fn records_request(&self, k0: u64, count: u64) -> IoRequest {
        IoRequest::block_cyclic(self.record_size, self.slot, self.slots, k0, count)
    }

    /// Read this node's records `k0 .. k0+count` with one vectored
    /// request; under the PASSION interface the whole batch is one list-I/O
    /// call. Returns one buffer per record, all views of the same read.
    pub async fn read_records(&self, k0: u64, count: u64) -> Result<Vec<Bytes>, FsError> {
        let flat = self.fh.readv(&self.records_request(k0, count)).await?;
        let rs = self.record_size as usize;
        Ok((0..count as usize)
            .map(|k| flat.slice(k * rs, rs))
            .collect())
    }

    /// Timing-only batch read of records `k0 .. k0+count`.
    pub async fn read_records_discard(&self, k0: u64, count: u64) -> Result<(), FsError> {
        self.fh
            .readv_discard(&self.records_request(k0, count))
            .await
    }

    /// Records written through this handle so far.
    pub fn records_written(&self) -> u64 {
        self.next_record
    }

    /// Close the handle.
    pub async fn close(self) {
        self.fh.close().await;
    }
}

/// `M_SYNC`: synchronized shared-pointer writes in strict node order.
///
/// Unlike `M_LOG` (first-come-first-served), `M_SYNC` serializes the
/// nodes' operations round-robin by node index: node `k`'s `i`-th write
/// lands after node `k−1`'s `i`-th write, whatever the arrival order —
/// the mode PFS offers for deterministic shared-file construction.
pub struct SyncFile {
    fh: FileHandle,
    cursor: LogCursor,
    turnstile: iosim_simkit::sync::Turnstile,
    slot: usize,
}

impl SyncFile {
    /// Wrap `fh` for participant `slot`; all participants must share the
    /// same `cursor` and `turnstile`.
    pub fn new(
        fh: FileHandle,
        cursor: LogCursor,
        turnstile: iosim_simkit::sync::Turnstile,
        slot: usize,
    ) -> SyncFile {
        SyncFile {
            fh,
            cursor,
            turnstile,
            slot,
        }
    }

    /// Write `data` at the shared pointer, in node order. Returns the
    /// offset it landed at.
    pub async fn write_ordered(&self, data: &[u8]) -> Result<u64, FsError> {
        self.turnstile.wait_turn(self.slot).await;
        let off = self.cursor.allocate(data.len() as u64);
        let res = self.fh.write_at(off, data).await;
        self.turnstile.advance();
        res.map(|()| off)
    }

    /// Timing-only ordered write.
    pub async fn write_ordered_discard(&self, len: u64) -> Result<u64, FsError> {
        self.turnstile.wait_turn(self.slot).await;
        let off = self.cursor.allocate(len);
        let res = self.fh.write_discard_at(off, len).await;
        self.turnstile.advance();
        res.map(|()| off)
    }

    /// The underlying handle.
    pub fn handle(&self) -> &FileHandle {
        &self.fh
    }

    /// Close the handle.
    pub async fn close(self) {
        self.fh.close().await;
    }
}

type GlobalMap = FxHashMap<(u64, u64), Event<SimTime>>;

/// Shared coordination state of `M_GLOBAL` mode: which regions have been
/// read, and when their data became available.
#[derive(Clone, Default)]
pub struct GlobalState {
    done: Rc<RefCell<GlobalMap>>,
}

impl GlobalState {
    /// Fresh state (one per file per read phase).
    pub fn new() -> GlobalState {
        GlobalState::default()
    }
}

/// A handle participating in `M_GLOBAL` mode: all nodes issue the same
/// reads; the file system reads once and broadcasts.
pub struct GlobalFile {
    fh: FileHandle,
    state: GlobalState,
}

impl GlobalFile {
    /// Wrap `fh` with the shared `state`.
    pub fn new(fh: FileHandle, state: GlobalState) -> GlobalFile {
        GlobalFile { fh, state }
    }

    /// Globally read `[offset, offset+len)`: the first caller performs
    /// the disk read; the others wait for it and pay only the broadcast
    /// transfer. Returns `true` for the caller that hit the disk.
    pub async fn read_discard(&self, offset: u64, len: u64) -> Result<bool, FsError> {
        let h = self.fh.sim_handle();
        let event = {
            let mut done = self.state.done.borrow_mut();
            match done.get(&(offset, len)) {
                Some(ev) => Some(ev.clone()),
                None => {
                    done.insert((offset, len), Event::new());
                    None
                }
            }
        };
        match event {
            None => {
                // First reader: hit the disks, then publish.
                self.fh.read_discard_at(offset, len).await?;
                let ev = self.state.done.borrow()[&(offset, len)].clone();
                ev.set(h.now());
                Ok(true)
            }
            Some(ev) => {
                let ready = ev.wait().await;
                h.sleep_until(ready).await;
                // Broadcast leg: payload over the mesh from the reader.
                let t = self.fh.broadcast_time(len);
                h.sleep(t).await;
                Ok(false)
            }
        }
    }

    /// The underlying handle.
    pub fn handle(&self) -> &FileHandle {
        &self.fh
    }

    /// Close the handle.
    pub async fn close(self) {
        self.fh.close().await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{CreateOptions, FileSystem};
    use iosim_machine::{presets, Interface, Machine};
    use iosim_simkit::executor::{join_all, Sim};
    use iosim_trace::TraceCollector;

    fn fixture(sim: &Sim) -> Rc<FileSystem> {
        let m = Machine::new(sim.handle(), presets::paragon_small().with_io_nodes(4));
        FileSystem::new(m, TraceCollector::new())
    }

    #[test]
    fn m_log_appends_never_overlap() {
        let mut sim = Sim::new();
        let fs = fixture(&sim);
        let h = sim.handle();
        let cursor = LogCursor::new();
        let futs: Vec<_> = (0..4usize)
            .map(|rank| {
                let fs = Rc::clone(&fs);
                let cursor = cursor.clone();
                async move {
                    let fh = fs
                        .open(
                            rank,
                            Interface::UnixStyle,
                            "log",
                            Some(CreateOptions {
                                stored: true,
                                ..Default::default()
                            }),
                        )
                        .await
                        .unwrap();
                    let log = LogFile::new(fh, cursor);
                    let mut offsets = Vec::new();
                    for i in 0..5u64 {
                        let data = vec![(rank as u8) * 10 + i as u8; 100];
                        offsets.push(log.append(&data).await.unwrap());
                    }
                    offsets
                }
            })
            .collect();
        let jh = sim.spawn(async move { join_all(&h, futs).await });
        sim.run();
        let all: Vec<u64> = jh.try_take().unwrap().into_iter().flatten().collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20, "offsets must be unique: {all:?}");
        // Dense packing: offsets are exactly 0, 100, …, 1900.
        assert_eq!(sorted, (0..20).map(|k| k * 100).collect::<Vec<u64>>());
        assert_eq!(cursor.position(), 2000);
    }

    #[test]
    fn m_record_interleaves_round_robin() {
        let mut sim = Sim::new();
        let fs = fixture(&sim);
        let h = sim.handle();
        let futs: Vec<_> = (0..3usize)
            .map(|rank| {
                let fs = Rc::clone(&fs);
                async move {
                    let fh = fs
                        .open(
                            rank,
                            Interface::UnixStyle,
                            "rec",
                            Some(CreateOptions {
                                stored: true,
                                ..Default::default()
                            }),
                        )
                        .await
                        .unwrap();
                    let mut rf = RecordFile::new(fh, rank as u64, 3, 64);
                    for k in 0..4u64 {
                        let data = vec![(rank as u8) ^ (k as u8); 64];
                        rf.write_record(&data).await.unwrap();
                    }
                    assert_eq!(rf.records_written(), 4);
                }
            })
            .collect();
        let fs_check = Rc::clone(&fs);
        let jh = sim.spawn(async move {
            join_all(&h, futs).await;
            // Read back: record j (file order) came from slot j % 3 in
            // round k = j / 3, holding bytes (slot ^ k).
            let fh = fs_check
                .open(0, Interface::UnixStyle, "rec", None)
                .await
                .unwrap();
            fh.read_at(0, 12 * 64).await.unwrap()
        });
        sim.run();
        let bytes = jh.try_take().expect("completed");
        for j in 0..12u64 {
            let want = ((j % 3) as u8) ^ ((j / 3) as u8);
            let rec = &bytes[(j * 64) as usize..((j + 1) * 64) as usize];
            assert!(
                rec.iter().all(|&b| b == want),
                "record {j} should be {want}: {rec:?}"
            );
        }
    }

    #[test]
    fn m_record_batch_read_matches_singles() {
        let mut sim = Sim::new();
        let fs = fixture(&sim);
        let jh = sim.spawn(async move {
            let fh = fs
                .open(
                    0,
                    Interface::Passion,
                    "batch",
                    Some(CreateOptions {
                        stored: true,
                        ..Default::default()
                    }),
                )
                .await
                .unwrap();
            let mut rf = RecordFile::new(fh, 0, 2, 64);
            for k in 0..4u64 {
                rf.write_record(&[k as u8; 64]).await.unwrap();
            }
            let batch = rf.read_records(0, 4).await.unwrap();
            let mut singles = Vec::new();
            for k in 0..4u64 {
                singles.push(rf.read_record(k).await.unwrap());
            }
            assert_eq!(batch, singles);
            // The request strides over the interleaved slots.
            let req = rf.records_request(1, 2);
            assert_eq!(req.extents(), &[(128, 64), (256, 64)]);
        });
        sim.run();
        jh.try_take().expect("completed");
    }

    #[test]
    fn m_sync_writes_land_in_node_order() {
        let mut sim = Sim::new();
        let fs = fixture(&sim);
        let h = sim.handle();
        let cursor = LogCursor::new();
        let ts = iosim_simkit::sync::Turnstile::new(3);
        let futs: Vec<_> = (0..3usize)
            .map(|rank| {
                let fs = Rc::clone(&fs);
                let cursor = cursor.clone();
                let ts = ts.clone();
                let h = h.clone();
                async move {
                    let fh = fs
                        .open(
                            rank,
                            Interface::UnixStyle,
                            "sync",
                            Some(CreateOptions {
                                stored: true,
                                ..Default::default()
                            }),
                        )
                        .await
                        .unwrap();
                    let sf = SyncFile::new(fh, cursor, ts, rank);
                    // Arrive out of order: higher ranks are ready first.
                    h.sleep(iosim_simkit::time::SimDuration::from_millis(
                        (3 - rank) as u64 * 5,
                    ))
                    .await;
                    for round in 0..2u8 {
                        let data = vec![rank as u8 * 10 + round; 8];
                        sf.write_ordered(&data).await.unwrap();
                    }
                }
            })
            .collect();
        let jh = sim.spawn(async move { join_all(&h, futs).await });
        sim.run();
        jh.try_take().expect("completed");
        // Six 8-byte records packed densely; ordering enforced by the
        // turnstile (content verified in m_sync_content_is_round_robin).
        assert_eq!(cursor.position(), 48);
    }

    #[test]
    fn m_sync_content_is_round_robin() {
        // Same as above but verify the actual bytes, keeping the
        // file system alive.
        let mut sim = Sim::new();
        let fs = fixture(&sim);
        let h = sim.handle();
        let cursor = LogCursor::new();
        let ts = iosim_simkit::sync::Turnstile::new(2);
        let futs: Vec<_> = (0..2usize)
            .map(|rank| {
                let fs = Rc::clone(&fs);
                let cursor = cursor.clone();
                let ts = ts.clone();
                let h = h.clone();
                async move {
                    let fh = fs
                        .open(
                            rank,
                            Interface::UnixStyle,
                            "sync2",
                            Some(CreateOptions {
                                stored: true,
                                ..Default::default()
                            }),
                        )
                        .await
                        .unwrap();
                    let sf = SyncFile::new(fh, cursor, ts, rank);
                    h.sleep(iosim_simkit::time::SimDuration::from_millis(
                        (2 - rank) as u64 * 9,
                    ))
                    .await;
                    sf.write_ordered(&[rank as u8; 4]).await.unwrap();
                }
            })
            .collect();
        let fs_check = Rc::clone(&fs);
        let jh = sim.spawn(async move {
            join_all(&h, futs).await;
            let fh = fs_check
                .open(0, Interface::UnixStyle, "sync2", None)
                .await
                .unwrap();
            fh.read_at(0, 8).await.unwrap()
        });
        sim.run();
        let bytes = jh.try_take().unwrap();
        assert_eq!(bytes, vec![0, 0, 0, 0, 1, 1, 1, 1]);
    }

    #[test]
    fn m_global_reads_disk_once() {
        let mut sim = Sim::new();
        let trace = TraceCollector::new();
        let m = Machine::new(sim.handle(), presets::paragon_small().with_io_nodes(4));
        let fs = FileSystem::new(m, trace.clone());
        let h = sim.handle();
        let state = GlobalState::new();
        let futs: Vec<_> = (0..8usize)
            .map(|rank| {
                let fs = Rc::clone(&fs);
                let state = state.clone();
                async move {
                    let fh = fs
                        .open(
                            rank,
                            Interface::UnixStyle,
                            "global",
                            Some(CreateOptions::default()),
                        )
                        .await
                        .unwrap();
                    fh.preallocate(4 << 20);
                    let gf = GlobalFile::new(fh, state);
                    gf.read_discard(0, 4 << 20).await.unwrap()
                }
            })
            .collect();
        let jh = sim.spawn(async move { join_all(&h, futs).await });
        sim.run();
        let hits: Vec<bool> = jh.try_take().unwrap();
        assert_eq!(hits.iter().filter(|&&b| b).count(), 1, "{hits:?}");
        // Exactly one data read hit the file system.
        assert_eq!(trace.count(iosim_trace::OpKind::Read), 1);
    }

    #[test]
    fn m_global_is_cheaper_than_independent_reads() {
        let run = |global: bool| -> f64 {
            let mut sim = Sim::new();
            let fs = fixture(&sim);
            let h = sim.handle();
            let state = GlobalState::new();
            let futs: Vec<_> = (0..8usize)
                .map(|rank| {
                    let fs = Rc::clone(&fs);
                    let state = state.clone();
                    async move {
                        let fh = fs
                            .open(
                                rank,
                                Interface::UnixStyle,
                                "g",
                                Some(CreateOptions::default()),
                            )
                            .await
                            .unwrap();
                        fh.preallocate(8 << 20);
                        if global {
                            GlobalFile::new(fh, state)
                                .read_discard(0, 8 << 20)
                                .await
                                .unwrap();
                        } else {
                            fh.read_discard_at(0, 8 << 20).await.unwrap();
                        }
                    }
                })
                .collect();
            let jh = sim.spawn(async move { join_all(&h, futs).await });
            let end = sim.run();
            jh.try_take().expect("completed");
            end.as_secs_f64()
        };
        let independent = run(false);
        let global = run(true);
        assert!(
            global < independent / 2.0,
            "M_GLOBAL should amortize the disk read: {global} vs {independent}"
        );
    }

    #[test]
    #[should_panic(expected = "record must be exactly")]
    fn wrong_record_size_rejected() {
        let mut sim = Sim::new();
        let fs = fixture(&sim);
        let jh = sim.spawn(async move {
            let fh = fs
                .open(
                    0,
                    Interface::UnixStyle,
                    "r",
                    Some(CreateOptions {
                        stored: true,
                        ..Default::default()
                    }),
                )
                .await
                .unwrap();
            let mut rf = RecordFile::new(fh, 0, 2, 32);
            rf.write_record(&[0u8; 16]).await.unwrap();
        });
        sim.run();
        jh.try_take().expect("task panicked before here");
    }
}
