//! Extent storage for stored files: the zero-copy backing store.
//!
//! A stored file's content is a set of non-overlapping extents keyed by
//! file offset, each an [`Bytes`] view into a shared buffer. A write
//! **adopts** the incoming segments — the application's buffer becomes
//! the file's backing store, no memcpy — trimming any overlapped older
//! extents with O(1) slices. A read assembles the requested range as a
//! rope of shared views, filling holes (never-written gaps and
//! `preallocate`d tails) from a shared zero page.
//!
//! Adjacent extents are deliberately **not** merged: merging would copy,
//! and the simulator's timing engine never looks at extents — virtual
//! time depends only on (offset, length) geometry, which is unchanged.
//!
//! # Layout (DESIGN.md §19)
//!
//! The extents live in a **two-level chunked index**: sorted, non-empty
//! chunks of at most [`CHUNK_MAX`] `(start, Bytes)` entries, plus a
//! `firsts` vector holding each chunk's first start offset. A lookup
//! binary-searches `firsts`, then the one chunk it names; an insert or
//! removal moves at most one chunk's tail, however large the file grows.
//! A chunk that grows past [`CHUNK_MAX`] splits in half; a chunk emptied
//! by an overwrite is dropped. A **cursor** `(chunk, index)` remembers
//! the last operation's position: when the next operation lands at or
//! one entry past it (the sequential case), both searches are skipped.
//! The cursor is an optimization only — every operation computes the
//! same partition point it would have without it, so contents are
//! position-independent.

use std::cell::Cell;

use iosim_buf::{zeros, Bytes, BytesList};
use iosim_trace::structs as stally;

/// Most entries one chunk holds; a chunk growing past it splits in half.
pub const CHUNK_MAX: usize = 512;

/// Non-overlapping byte extents of one stored file.
///
/// Equality compares logical contents (offset → bytes), not the chunk
/// layout or cursor position.
#[derive(Clone, Debug, Default)]
pub struct ExtentTree {
    /// Sorted, non-empty runs of `(start offset, payload)`; concatenated
    /// they are globally sorted by start and non-overlapping.
    chunks: Vec<Vec<(u64, Bytes)>>,
    /// `firsts[c]` is the start of `chunks[c][0]`.
    firsts: Vec<u64>,
    /// Last operation's partition point as `(chunk, index)` — the
    /// sequential-access fast path. Always in the canonical form that
    /// [`ExtentTree::lower_bound`] returns.
    cursor: Cell<(usize, usize)>,
}

impl PartialEq for ExtentTree {
    fn eq(&self, other: &Self) -> bool {
        self.chunks
            .iter()
            .flatten()
            .eq(other.chunks.iter().flatten())
    }
}
impl Eq for ExtentTree {}

/// The part of extent `(s, e)` lying at or after `end`, if any.
fn suffix_from(s: u64, e: &Bytes, end: u64) -> Option<Bytes> {
    let e_end = s + e.len() as u64;
    (e_end > end).then(|| e.slice((end - s) as usize, (e_end - end) as usize))
}

impl ExtentTree {
    /// An empty tree.
    pub fn new() -> ExtentTree {
        ExtentTree::default()
    }

    /// Number of extents currently held (diagnostics).
    pub fn extent_count(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    /// Whether `(c, i)` is the canonical partition point of `offset`:
    /// every entry before it starts below `offset`, every entry from it
    /// on starts at or above. Canonical means the entry just before the
    /// point (if any) sits in chunk `c` itself, so `i == 0` only in
    /// chunk 0.
    fn is_bound(&self, (c, i): (usize, usize), offset: u64) -> bool {
        let Some(chunk) = self.chunks.get(c) else {
            return c == 0 && i == 0;
        };
        if i > chunk.len() {
            return false;
        }
        let before = match i {
            0 => c == 0,
            _ => chunk[i - 1].0 < offset,
        };
        let after = match chunk.get(i) {
            Some(e) => e.0 >= offset,
            None => self.firsts.get(c + 1).is_none_or(|&f| f >= offset),
        };
        before && after
    }

    /// The canonical position one entry past `(c, i)`, if there is one.
    fn step(&self, (c, i): (usize, usize)) -> Option<(usize, usize)> {
        let chunk = self.chunks.get(c)?;
        if i < chunk.len() {
            Some((c, i + 1))
        } else if c + 1 < self.chunks.len() {
            Some((c + 1, 1))
        } else {
            None
        }
    }

    /// Partition point of `offset`: the position of the first entry with
    /// `start >= offset`, as `(chunk, index)` with the entry before it
    /// (if any) in the same chunk. Tries the cursor (and the position one
    /// entry past it, the sequential-advance case) before falling back to
    /// the two binary searches; either way the result is the exact
    /// partition point, so the cursor never changes behavior, only cost.
    fn lower_bound(&self, offset: u64) -> (usize, usize) {
        let cur = self.cursor.get();
        if self.is_bound(cur, offset) {
            stally::add_extent_lookup(true);
            return cur;
        }
        if let Some(next) = self.step(cur).filter(|&p| self.is_bound(p, offset)) {
            stally::add_extent_lookup(true);
            return next;
        }
        stally::add_extent_lookup(false);
        let c = self
            .firsts
            .partition_point(|&f| f < offset)
            .saturating_sub(1);
        let i = self
            .chunks
            .get(c)
            .map_or(0, |chunk| chunk.partition_point(|e| e.0 < offset));
        (c, i)
    }

    /// Store `data` at `offset`, adopting the buffer without copying.
    /// Overlapped parts of existing extents are trimmed away (O(1)
    /// slices of their shared backing).
    pub fn write(&mut self, offset: u64, data: Bytes) {
        if data.is_empty() {
            return;
        }
        let end = offset
            .checked_add(data.len() as u64)
            .expect("extent end past the 64-bit file range");
        let (c, i) = self.lower_bound(offset);
        if self.chunks.is_empty() {
            self.chunks.push(Vec::new());
            self.firsts.push(offset);
        }
        // An older extent overhanging the new range from the left is
        // split: its prefix survives (trimmed in place, same start key),
        // and — if it outlives the new range on the right too — so does
        // its suffix, re-keyed at `end`. The canonical partition point
        // keeps that extent in chunk `c`.
        let chunk = &mut self.chunks[c];
        let mut right_suffix: Option<Bytes> = None;
        if i > 0 {
            let (s, e) = &mut chunk[i - 1];
            if *s + e.len() as u64 > offset {
                right_suffix = suffix_from(*s, e, end);
                *e = e.slice(0, (offset - *s) as usize);
            }
        }
        // Entries starting inside the new range are dropped; only the
        // last of them can outlive the range (non-overlap), and its
        // suffix is re-keyed at `end`. A left overhang past `end` covers
        // all of `[offset, end)`, so the two suffix sources are mutually
        // exclusive.
        let mut j = i;
        while j < chunk.len() && chunk[j].0 < end {
            j += 1;
        }
        if j > i {
            let (s, e) = &chunk[j - 1];
            if let Some(sfx) = suffix_from(*s, e, end) {
                debug_assert!(right_suffix.is_none(), "non-overlap invariant");
                right_suffix = Some(sfx);
            }
        }
        // The covered span may run on into later chunks: whole chunks
        // are dropped, a partly covered one loses its prefix.
        if j == chunk.len() {
            let mut d = c + 1;
            while d < self.chunks.len() && self.firsts[d] < end {
                let later = &mut self.chunks[d];
                let k = later.partition_point(|e| e.0 < end);
                let (s, e) = &later[k - 1];
                if let Some(sfx) = suffix_from(*s, e, end) {
                    debug_assert!(right_suffix.is_none(), "non-overlap invariant");
                    right_suffix = Some(sfx);
                }
                if k < later.len() {
                    later.drain(..k);
                    self.firsts[d] = later[0].0;
                    break;
                }
                d += 1;
            }
            if d > c + 1 {
                self.chunks.drain(c + 1..d);
                self.firsts.drain(c + 1..d);
            }
        }
        // Splice the removed span `[i, j)` of chunk `c` into the new entry
        // (plus the surviving suffix): a memmove of one chunk's tail.
        let chunk = &mut self.chunks[c];
        match right_suffix {
            // The common case, an insert into a gap (or an append).
            None if i == j => chunk.insert(i, (offset, data)),
            suffix => {
                let suffix_entry = suffix.map(|b| (end, b));
                chunk.splice(i..j, std::iter::once((offset, data)).chain(suffix_entry));
            }
        }
        self.firsts[c] = chunk[0].0;
        // A sequential writer continues at `end`, whose partition point
        // is right after the entry just written.
        let mut cursor = (c, i + 1);
        if chunk.len() > CHUNK_MAX {
            let half = chunk.len() / 2;
            let tail = chunk.split_off(half);
            self.firsts.insert(c + 1, tail[0].0);
            self.chunks.insert(c + 1, tail);
            if i >= half {
                cursor = (c + 1, i + 1 - half);
            }
        }
        self.cursor.set(cursor);
        #[cfg(test)]
        self.check_invariants();
    }

    /// Store a rope at `offset`: each segment becomes (or trims into)
    /// its own extent, still without copying.
    pub fn write_list(&mut self, offset: u64, data: &BytesList) {
        let mut at = offset;
        for seg in data.segments() {
            let len = seg.len() as u64;
            self.write(at, seg.clone());
            at += len;
        }
    }

    /// Assemble `[offset, offset + len)` as a rope of shared views,
    /// zero-filling any holes. Never copies stored bytes.
    pub fn read(&self, offset: u64, len: u64) -> BytesList {
        let end = offset
            .checked_add(len)
            .expect("read end past the 64-bit file range");
        let mut out = BytesList::new();
        if len == 0 {
            return out;
        }
        let (mut c, mut i) = self.lower_bound(offset);
        let mut cursor = offset;
        // An extent straddling `offset` from the left contributes first.
        if i > 0 {
            let (s, e) = &self.chunks[c][i - 1];
            let e_end = *s + e.len() as u64;
            if e_end > offset {
                let take = e_end.min(end) - offset;
                out.push(e.slice((offset - *s) as usize, take as usize));
                cursor += take;
            }
        }
        while let Some(chunk) = self.chunks.get(c) {
            let Some((s, e)) = chunk.get(i) else {
                // Step into the next chunk only if it starts in range, so
                // the scan stops at a canonical partition point.
                match self.firsts.get(c + 1) {
                    Some(&f) if f < end => (c, i) = (c + 1, 0),
                    _ => break,
                }
                continue;
            };
            if *s >= end {
                break;
            }
            if *s > cursor {
                out.append(zeros(*s - cursor));
            }
            let take = (*s + e.len() as u64).min(end) - *s;
            out.push(e.slice(0, take as usize));
            cursor = *s + take;
            i += 1;
        }
        if cursor < end {
            out.append(zeros(end - cursor));
        }
        // A sequential reader continues at `end`, whose partition point
        // is the scan's stopping position.
        self.cursor.set((c, i));
        out
    }

    /// Panic unless the layout invariants hold: every chunk non-empty and
    /// at most [`CHUNK_MAX`] long, `firsts` naming each chunk's first
    /// start, and extents globally sorted, non-empty and non-overlapping.
    /// O(n); for tests and oracles (unit tests run it after every write).
    pub fn check_invariants(&self) {
        assert_eq!(self.chunks.len(), self.firsts.len(), "one first per chunk");
        let mut prev_end = 0u64;
        for (c, chunk) in self.chunks.iter().enumerate() {
            assert!(!chunk.is_empty(), "chunk {c} is empty");
            assert!(
                chunk.len() <= CHUNK_MAX,
                "chunk {c} holds {} entries",
                chunk.len()
            );
            assert_eq!(self.firsts[c], chunk[0].0, "firsts[{c}] is stale");
            for (s, e) in chunk {
                assert!(!e.is_empty(), "empty extent at {s}");
                assert!(
                    *s >= prev_end,
                    "extent at {s} overlaps or precedes one ending at {prev_end}"
                );
                prev_end = s + e.len() as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosim_buf::tally;

    fn bytes(v: Vec<u8>) -> Bytes {
        Bytes::from_vec(v)
    }

    #[test]
    fn writes_adopt_buffers_and_reads_share_them() {
        let mut t = ExtentTree::new();
        let payload: Vec<u8> = (0..100u8).collect();
        t.write(50, bytes(payload.clone()));
        tally::reset();
        let got = t.read(50, 100);
        assert_eq!(got, payload);
        // Reading shares the stored extent: no allocation, no copy.
        assert_eq!(tally::snapshot(), tally::DataPlaneTally::default());
    }

    #[test]
    fn holes_read_as_zeros() {
        let mut t = ExtentTree::new();
        t.write(10, bytes(vec![7; 5]));
        t.write(25, bytes(vec![9; 5]));
        let got = t.read(0, 40).to_vec();
        let mut want = vec![0u8; 40];
        want[10..15].fill(7);
        want[25..30].fill(9);
        assert_eq!(got, want);
    }

    #[test]
    fn overlapping_write_trims_older_extents() {
        let mut t = ExtentTree::new();
        t.write(0, bytes((0..30u8).collect()));
        // Overwrite the middle; prefix and suffix of the old extent
        // survive as trimmed views.
        t.write(10, bytes(vec![255; 10]));
        assert_eq!(t.extent_count(), 3);
        let got = t.read(0, 30).to_vec();
        let mut want: Vec<u8> = (0..30u8).collect();
        want[10..20].fill(255);
        assert_eq!(got, want);
        // Overwrite spanning several extents collapses them.
        t.write(5, bytes(vec![1; 20]));
        assert_eq!(t.read(0, 30).to_vec()[5..25], [1u8; 20]);
    }

    #[test]
    fn exact_overwrite_replaces_in_place() {
        let mut t = ExtentTree::new();
        t.write(0, bytes(vec![1; 16]));
        t.write(0, bytes(vec![2; 16]));
        assert_eq!(t.extent_count(), 1);
        assert_eq!(t.read(0, 16), vec![2u8; 16]);
    }

    #[test]
    fn straddling_read_clips_to_range() {
        let mut t = ExtentTree::new();
        t.write(0, bytes((0..50u8).collect()));
        let got = t.read(20, 10);
        assert_eq!(got, (20..30u8).collect::<Vec<_>>());
        assert_eq!(got.segments().len(), 1);
    }

    #[test]
    fn sequential_stream_hits_the_cursor() {
        let mut t = ExtentTree::new();
        stally::reset();
        for i in 0..64u64 {
            t.write(i * 512, bytes(vec![i as u8; 512]));
        }
        for i in 0..64u64 {
            assert_eq!(t.read(i * 512, 512), vec![i as u8; 512]);
        }
        let s = stally::snapshot();
        assert_eq!(s.extent_lookups, 128);
        // All but the two stream starts ride the cursor.
        assert!(
            s.extent_cursor_hits >= 126,
            "cursor hits {} of {}",
            s.extent_cursor_hits,
            s.extent_lookups
        );
    }

    #[test]
    fn equality_ignores_chunk_layout() {
        // Same logical contents reached through different write orders
        // (hence different cursor positions).
        let mut a = ExtentTree::new();
        a.write(0, bytes(vec![1; 8]));
        a.write(8, bytes(vec![2; 8]));
        let mut b = ExtentTree::new();
        b.write(8, bytes(vec![2; 8]));
        b.write(0, bytes(vec![1; 8]));
        assert_eq!(a, b);
        b.write(4, bytes(vec![3; 2]));
        assert_ne!(a, b);
    }

    #[test]
    fn chunks_split_past_the_cap_and_drop_when_covered() {
        let n = 4 * CHUNK_MAX as u64;
        let mut t = ExtentTree::new();
        // Two interleaved strided writers: every second write lands
        // mid-chunk, so splits happen away from the tail too.
        for i in (0..n).step_by(2).chain((1..n).step_by(2)) {
            t.write(i * 8, bytes(vec![i as u8; 8]));
        }
        assert_eq!(t.extent_count(), n as usize);
        assert!(t.chunks.len() >= 4, "{} chunks", t.chunks.len());
        // Overwrite from inside the first extent to inside the third
        // last: whole chunks in between are dropped, the last chunk loses
        // a prefix, and the straddled extent's suffix is re-keyed.
        let (span, end) = (n * 8, n * 8 - 20);
        t.write(4, bytes(vec![0xee; (end - 4) as usize]));
        assert_eq!(t.chunks.len(), 2);
        let got = t.read(0, span).to_vec();
        let mut want = vec![0xee; span as usize];
        want[..4].fill(0);
        want[end as usize..(span - 16) as usize].fill((n - 3) as u8);
        want[(span - 16) as usize..(span - 8) as usize].fill((n - 2) as u8);
        want[(span - 8) as usize..].fill((n - 1) as u8);
        assert_eq!(got, want);
    }

    #[test]
    fn random_writes_match_byte_mirror() {
        use iosim_simkit::rng::SimRng;
        let mut rng = SimRng::seed_from(0xeea7_5eed);
        let mut t = ExtentTree::new();
        let mut mirror = vec![0u8; 4096];
        for _ in 0..500 {
            let off = rng.range(0, 4000);
            let len = rng.range(1, 96) as usize;
            let fill = rng.range(0, 256) as u8;
            t.write(off, bytes(vec![fill; len]));
            mirror[off as usize..off as usize + len].fill(fill);
        }
        assert_eq!(t.read(0, 4096).to_vec(), mirror);
        // Spot-check sub-ranges (exercises straddlers and clipping).
        for _ in 0..200 {
            let off = rng.range(0, 4000);
            let len = rng.range(0, 96);
            assert_eq!(
                t.read(off, len).to_vec(),
                mirror[off as usize..(off + len) as usize]
            );
        }
    }
}
