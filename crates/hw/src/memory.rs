//! Simulated process memory, each allocation a list of immutable extents.
//!
//! Every simulated process owns a [`GuestMem`] arena. Message payloads are
//! real bytes carried end-to-end through the NIC pipeline, so tests can
//! assert data integrity across segmentation, DMA, and reassembly — the
//! same guarantee a real RDMA stack must provide.
//!
//! ## Zero-copy design
//!
//! The arena is a sequence of per-allocation *chunks*. A chunk is a sorted
//! list of *extents* that tiles it: each extent is a byte range of the
//! chunk held as a [`PayloadSeg`], an offset+length view over a
//! reference-counted buffer. Nothing writes a buffer once a segment views
//! it, so every segment is a stable snapshot: a reader sees the bytes
//! exactly as they were at read time, whatever is written afterwards.
//!
//! [`GuestMem::install`] is the one way memory changes. It trims the
//! extents the new segment overlaps, drops the ones it covers, and fuses
//! the segment with a neighbour whose buffer it continues (the previous or
//! next bytes of the same buffer). A message's fragments therefore become
//! one extent in any arrival order, and a read of the whole message shares
//! the sender's buffer; a buffer that every RPC or MPI rendezvous reuses
//! keeps as few extents as the messages landing in it leave.
//! [`GuestMem::write`] and [`GuestMem::fill`] install a buffer of their
//! own. [`GuestMem::read`] slices the extent that holds the range, in
//! O(1); a range that several extents cut is gathered into one buffer,
//! which (inside one allocation) is installed back, so the next read of
//! it slices. A sender that owns its payload stages it by installing the
//! whole buffer; the NIC's fragment reads then slice it.
//!
//! Two bounds keep a chunk small: at most 32 extents, and at most twice
//! its own bytes of buffers kept alive besides the newest extent's
//! buffer. A chunk past either is copied into one fresh buffer, and its
//! newest extent is landed over it again by reference, so the rest of
//! that extent's message still fuses with it. A copy therefore costs one
//! allocation or one read's length. The slots of a pool made with
//! [`GuestMem::alloc_slots`] are separate chunks that start as views of
//! one shared fill buffer. [`GuestMem::copy_stats`] counts the gathers and
//! compactions, the only payload copies the arena makes.
//!
//! None of this is visible in virtual time — reads and writes are
//! instantaneous model operations either way — so simulation results are
//! bit-identical to a copying implementation; only wall-clock time and
//! allocator traffic change.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::ops::{Add, Deref};
use std::rc::Rc;

/// Errors raised by guest-memory accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// Address range exceeds the allocated arena.
    OutOfBounds {
        /// Faulting virtual address.
        addr: u64,
        /// Length of the attempted access.
        len: usize,
    },
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::OutOfBounds { addr, len } => {
                write!(
                    f,
                    "guest memory access out of bounds: addr={addr:#x} len={len}"
                )
            }
        }
    }
}

impl std::error::Error for MemError {}

/// Base virtual address of the first allocation; nonzero so that address 0
/// is never valid (catching "forgot to set the address" bugs).
pub const GUEST_BASE: u64 = 0x1_0000;

/// Extent count past which a chunk is compacted into one buffer. Small
/// enough that extent lookups stay cheap, large enough that a windowed RPC
/// workload (whose fragments keep landing at the same offsets and so
/// *replace* extents) never reaches it.
const MAX_EXTENTS: usize = 32;

/// A contiguous, immutable view of payload bytes: an offset+length window
/// over a reference-counted buffer.
///
/// This is what [`GuestMem::read`] returns and what NIC fragments carry
/// through WQE → packet → frame → RX completion. Cloning and sub-slicing
/// are O(1) (a reference-count bump); the bytes themselves are shared with
/// the arena extent they were read from and are guaranteed stable — no
/// buffer is ever written once a segment views it.
///
/// # Examples
///
/// ```
/// use cord_hw::GuestMem;
///
/// let mem = GuestMem::new();
/// let region = mem.alloc_from(b"zero copy payload");
/// let seg = mem.read(region.addr, region.len).unwrap();
/// assert_eq!(&seg[..], b"zero copy payload");
///
/// // Snapshots are stable across later writes (a write lands new bytes
/// // beside the old ones instead of overwriting them):
/// mem.write(region.addr, b"ZERO").unwrap();
/// assert_eq!(&seg[..5], b"zero ");
/// assert_eq!(&mem.read(region.addr, 4).unwrap()[..], b"ZERO");
/// ```
#[derive(Clone)]
pub struct PayloadSeg {
    data: Rc<Vec<u8>>,
    start: usize,
    len: usize,
}

impl PayloadSeg {
    /// A segment viewing `data[start..start + len]`.
    pub(crate) fn new(data: Rc<Vec<u8>>, start: usize, len: usize) -> PayloadSeg {
        debug_assert!(start + len <= data.len());
        PayloadSeg { data, start, len }
    }

    /// A segment owning a fresh copy of `src`.
    pub fn copy_from_slice(src: &[u8]) -> PayloadSeg {
        PayloadSeg::new(Rc::new(src.to_vec()), 0, src.len())
    }

    /// Number of payload bytes in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Zero-copy sub-view of `self[offset..offset + len]`.
    pub fn slice(&self, offset: usize, len: usize) -> PayloadSeg {
        assert!(offset + len <= self.len, "segment slice out of bounds");
        PayloadSeg::new(Rc::clone(&self.data), self.start + offset, len)
    }

    /// Whether `next` views the bytes of the same buffer right after this
    /// view's last byte.
    fn is_followed_by(&self, next: &PayloadSeg) -> bool {
        Rc::ptr_eq(&self.data, &next.data) && self.start + self.len == next.start
    }

    /// Copy the viewed bytes into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self[..].to_vec()
    }
}

impl Deref for PayloadSeg {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.start + self.len]
    }
}

impl AsRef<[u8]> for PayloadSeg {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for PayloadSeg {
    fn eq(&self, other: &PayloadSeg) -> bool {
        self[..] == other[..]
    }
}

impl Eq for PayloadSeg {}

impl PartialEq<[u8]> for PayloadSeg {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl PartialEq<&[u8]> for PayloadSeg {
    fn eq(&self, other: &&[u8]) -> bool {
        &self[..] == *other
    }
}

impl PartialEq<Vec<u8>> for PayloadSeg {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl From<Vec<u8>> for PayloadSeg {
    fn from(v: Vec<u8>) -> PayloadSeg {
        let len = v.len();
        PayloadSeg::new(Rc::new(v), 0, len)
    }
}

impl fmt::Debug for PayloadSeg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PayloadSeg(b\"")?;
        for &b in self.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\")")
    }
}

/// The payload copies an arena made behind its zero-copy API: gathers of a
/// range that several extents cut, and compactions of a chunk past its
/// bounds. Observer-only — nothing in the model reads them — and kept out
/// of every digest and report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CopyStats {
    /// Gathers and compactions.
    pub copies: u64,
    /// Bytes they copied.
    pub bytes: u64,
}

impl CopyStats {
    /// One copy of `bytes` bytes.
    fn one(bytes: usize) -> CopyStats {
        CopyStats {
            copies: 1,
            bytes: bytes as u64,
        }
    }
}

impl Add for CopyStats {
    type Output = CopyStats;

    fn add(self, other: CopyStats) -> CopyStats {
        CopyStats {
            copies: self.copies + other.copies,
            bytes: self.bytes + other.bytes,
        }
    }
}

thread_local! {
    /// Every arena's copies on this thread (see [`thread_copy_stats`]).
    static THREAD_COPIES: Cell<CopyStats> = const { Cell::new(CopyStats { copies: 0, bytes: 0 }) };
}

/// Copies made so far by every arena on this thread. A simulation runs on
/// one thread, so the difference across a run is the run's copy cost
/// (`simbench` reports it per bench).
pub fn thread_copy_stats() -> CopyStats {
    THREAD_COPIES.with(Cell::get)
}

/// A byte range of a chunk, held by reference.
struct Extent {
    /// Offset within the chunk.
    offset: usize,
    seg: PayloadSeg,
}

impl Extent {
    /// One past the extent's last chunk offset.
    fn end(&self) -> usize {
        self.offset + self.seg.len()
    }
}

/// One allocation's bytes.
struct Chunk {
    /// First virtual address covered by this chunk.
    base: u64,
    /// One past the last address, kept inline: chunk lookup probes it on
    /// every access.
    end: u64,
    /// Extents in offset order, tiling `[0, len)`.
    extents: Vec<Extent>,
}

impl Chunk {
    fn new(base: u64, seg: PayloadSeg) -> Chunk {
        Chunk {
            base,
            end: base + seg.len() as u64,
            extents: vec![Extent { offset: 0, seg }],
        }
    }

    fn len(&self) -> usize {
        (self.end - self.base) as usize
    }

    /// Index of the extent holding chunk offset `at`.
    fn find(&self, at: usize) -> usize {
        self.extents.partition_point(|e| e.end() <= at)
    }

    /// Append the bytes at chunk offsets `[start, start + n)` to `out`.
    fn copy_out(&self, start: usize, n: usize, out: &mut Vec<u8>) {
        let end = start + n;
        for e in self.extents[self.find(start)..]
            .iter()
            .take_while(|e| e.offset < end)
        {
            let from = start.max(e.offset) - e.offset;
            out.extend_from_slice(&e.seg[from..end.min(e.end()) - e.offset]);
        }
    }

    /// Land `seg` at `offset` by reference.
    ///
    /// The segment replaces the bytes it covers: the extents it overlaps
    /// are trimmed, the ones it covers dropped, and it fuses with a
    /// neighbour whose buffer it continues, so a message's fragments
    /// become one extent in any arrival order. A chunk left with more
    /// than [`MAX_EXTENTS`] extents, or whose extents keep more than twice
    /// its bytes alive besides the new segment's buffer, is compacted
    /// around the new segment; the copy that costs is returned.
    fn install(&mut self, offset: usize, seg: PayloadSeg) -> CopyStats {
        let end = offset + seg.len();
        let i = self.find(offset);
        let first = &self.extents[i];
        let mut k = i;
        if first.offset == offset && first.end() == end {
            self.extents[i].seg = seg;
        } else {
            // Keep what the overlapped extents [i, j) hold outside the
            // range: the first one's head, trimmed in place, and the last
            // one's tail.
            let j = i + self.extents[i..].partition_point(|e| e.offset < end);
            let last = &self.extents[j - 1];
            let tail = (last.end() > end).then(|| Extent {
                offset: end,
                seg: last.seg.slice(end - last.offset, last.end() - end),
            });
            if first.offset < offset {
                self.extents[i].seg.len = offset - self.extents[i].offset;
                k += 1;
            }
            let landed = Extent { offset, seg };
            self.extents
                .splice(k..j, std::iter::once(landed).chain(tail));
        }
        self.fuse_next(k);
        if k > 0 && self.fuse_next(k - 1) {
            k -= 1;
        }
        if self.extents.len() > MAX_EXTENTS || self.pinned_besides(k) > 2 * self.len() {
            return self.compact(k);
        }
        CopyStats::default()
    }

    /// Fuse extent `k + 1` into extent `k` if it continues `k`'s buffer.
    fn fuse_next(&mut self, k: usize) -> bool {
        let fuses = self
            .extents
            .get(k + 1)
            .is_some_and(|next| self.extents[k].seg.is_followed_by(&next.seg));
        if fuses {
            let next = self.extents.remove(k + 1);
            self.extents[k].seg.len += next.seg.len;
        }
        fuses
    }

    /// Bytes of the buffers the extents keep alive, besides the buffer of
    /// extent `newest`; a buffer several extents cut counts once.
    fn pinned_besides(&self, newest: usize) -> usize {
        let newest = &self.extents[newest].seg.data;
        let mut pinned = 0;
        for (i, e) in self.extents.iter().enumerate() {
            let buf = &e.seg.data;
            let seen = self.extents[..i]
                .iter()
                .any(|d| Rc::ptr_eq(&d.seg.data, buf));
            if !seen && !Rc::ptr_eq(buf, newest) {
                pinned += buf.len();
            }
        }
        pinned
    }

    /// Copy the chunk into one fresh buffer, then land extent `keep` over
    /// it again by reference.
    fn compact(&mut self, keep: usize) -> CopyStats {
        let mut buf = Vec::with_capacity(self.len());
        self.copy_out(0, self.len(), &mut buf);
        let kept = self.extents.swap_remove(keep);
        self.extents.clear();
        self.extents.push(Extent {
            offset: 0,
            seg: PayloadSeg::from(buf),
        });
        self.install(kept.offset, kept.seg);
        CopyStats::one(self.len())
    }
}

struct Inner {
    /// Chunks in ascending-address order; addresses are dense, so chunk
    /// lookup is a binary search over a handful of entries.
    chunks: Vec<Chunk>,
    next: u64,
    /// Copies this arena has made so far.
    copies: CopyStats,
}

impl Inner {
    /// Index of the chunk containing `addr`, if any.
    fn chunk_idx(&self, addr: u64) -> Option<usize> {
        let i = self.chunks.partition_point(|c| c.end <= addr);
        (self.chunks.get(i)?.base <= addr).then_some(i)
    }

    /// Bounds check: the arena is contiguous from [`GUEST_BASE`] to the
    /// allocation frontier, exactly as in a flat-buffer implementation.
    fn check(&self, addr: u64, len: usize) -> Result<(), MemError> {
        let fits = addr >= GUEST_BASE && addr as u128 + len as u128 <= self.next as u128;
        fits.then_some(())
            .ok_or(MemError::OutOfBounds { addr, len })
    }

    /// Check `[addr, addr + len)`, then walk the chunks spanning it in
    /// address order, calling `op(chunk, start_in_chunk, span_len,
    /// done_before)` for each span. The single home of the chunk-walk
    /// arithmetic shared by every mutation and the cross-chunk gather.
    fn for_each_span(
        &mut self,
        addr: u64,
        len: usize,
        mut op: impl FnMut(&mut Chunk, usize, usize, usize),
    ) -> Result<(), MemError> {
        self.check(addr, len)?;
        let mut done = 0;
        while done < len {
            let a = addr + done as u64;
            let i = self.chunk_idx(a).expect("checked, and the arena is dense");
            let chunk = &mut self.chunks[i];
            let start = (a - chunk.base) as usize;
            let n = (chunk.len() - start).min(len - done);
            op(chunk, start, n, done);
            done += n;
        }
        Ok(())
    }

    /// Count `copy` on this arena and on the thread.
    fn count(&mut self, copy: CopyStats) {
        if copy.copies > 0 {
            self.copies = self.copies + copy;
            THREAD_COPIES.with(|t| t.set(t.get() + copy));
        }
    }
}

/// A process's memory arena. Clones share the arena.
///
/// # Examples
///
/// ```
/// use cord_hw::GuestMem;
///
/// let mem = GuestMem::new();
/// let region = mem.alloc(64, 0xAA);
/// mem.write(region.addr, &[1, 2, 3]).unwrap();
/// let seg = mem.read(region.addr, 4).unwrap();
/// assert_eq!(&seg[..], &[1, 2, 3, 0xAA]);
/// ```
#[derive(Clone)]
pub struct GuestMem {
    inner: Rc<RefCell<Inner>>,
}

/// A contiguous allocation inside a [`GuestMem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRegion {
    /// First virtual address of the region.
    pub addr: u64,
    /// Region length in bytes.
    pub len: usize,
}

impl MemRegion {
    /// A sub-region `[offset, offset + len)` of this region.
    ///
    /// Panics if the sub-range does not fit.
    pub fn slice(&self, offset: usize, len: usize) -> MemRegion {
        assert!(offset + len <= self.len, "sub-region out of range");
        MemRegion {
            addr: self.addr + offset as u64,
            len,
        }
    }

    /// One past the last address of the region.
    pub fn end(&self) -> u64 {
        self.addr + self.len as u64
    }
}

impl Default for GuestMem {
    fn default() -> Self {
        Self::new()
    }
}

impl GuestMem {
    /// An empty arena.
    pub fn new() -> Self {
        GuestMem {
            inner: Rc::new(RefCell::new(Inner {
                chunks: Vec::new(),
                next: GUEST_BASE,
                copies: CopyStats::default(),
            })),
        }
    }

    /// Allocate `len` bytes initialized to `fill`.
    pub fn alloc(&self, len: usize, fill: u8) -> MemRegion {
        self.alloc_slots(1, len, fill)
    }

    /// Allocate `count` slots of `len` bytes each, initialized to `fill`,
    /// and return the region spanning them.
    ///
    /// Each slot is its own allocation, so the extents a slot collects and
    /// the copy that compacts them stay the size of one slot, not the
    /// pool's; until written, every slot views one shared fill buffer. The
    /// slots sit at contiguous addresses, so the spanning region (and a
    /// memory region registered over it) is the one a single
    /// `alloc(count * len, fill)` would return.
    pub fn alloc_slots(&self, count: usize, len: usize, fill: u8) -> MemRegion {
        self.alloc_views(count, PayloadSeg::from(vec![fill; len]))
    }

    /// Allocate and initialize from a slice.
    pub fn alloc_from(&self, data: &[u8]) -> MemRegion {
        self.alloc_views(1, PayloadSeg::copy_from_slice(data))
    }

    /// Allocate `count` chunks at contiguous addresses, each one extent
    /// viewing `seg`, and return the region spanning them.
    fn alloc_views(&self, count: usize, seg: PayloadSeg) -> MemRegion {
        let mut inner = self.inner.borrow_mut();
        let (addr, len) = (inner.next, seg.len());
        for i in 0..count {
            inner
                .chunks
                .push(Chunk::new(addr + (i * len) as u64, seg.clone()));
        }
        inner.next += (count * len) as u64;
        MemRegion {
            addr,
            len: count * len,
        }
    }

    /// Read `len` bytes at `addr` as a zero-copy [`PayloadSeg`] snapshot.
    ///
    /// O(1) when one extent holds the range (the NIC data path's fragment
    /// reads of a staged payload always do): the segment shares that
    /// extent's buffer. A range that several extents cut is gathered into
    /// a fresh buffer, which is installed back when the range lies within
    /// one allocation.
    pub fn read(&self, addr: u64, len: usize) -> Result<PayloadSeg, MemError> {
        let mut inner = self.inner.borrow_mut();
        inner.check(addr, len)?;
        // In bounds, only an empty read (at the frontier) finds no chunk.
        let Some(i) = inner.chunk_idx(addr).filter(|_| len > 0) else {
            return Ok(PayloadSeg::from(Vec::new()));
        };
        let chunk = &inner.chunks[i];
        let start = (addr - chunk.base) as usize;
        let e = &chunk.extents[chunk.find(start)];
        if start + len <= e.end() {
            return Ok(e.seg.slice(start - e.offset, len));
        }
        // Several extents cut the range: gather it, and inside one
        // allocation install it back, so the next read of it slices.
        let mut out = Vec::with_capacity(len);
        inner.for_each_span(addr, len, |chunk, start, n, _| {
            chunk.copy_out(start, n, &mut out);
        })?;
        let seg = PayloadSeg::from(out);
        let mut copies = CopyStats::one(len);
        let chunk = &mut inner.chunks[i];
        if start + len <= chunk.len() {
            copies = copies + chunk.install(start, seg.clone());
        }
        inner.count(copies);
        Ok(seg)
    }

    /// Land the segment `part(done, n)` over each chunk span of
    /// `[addr, addr + len)`, where `done` bytes precede the span and `n`
    /// is its length: the one path by which memory changes.
    fn land(
        &self,
        addr: u64,
        len: usize,
        mut part: impl FnMut(usize, usize) -> PayloadSeg,
    ) -> Result<(), MemError> {
        let mut inner = self.inner.borrow_mut();
        let mut copies = CopyStats::default();
        inner.for_each_span(addr, len, |chunk, start, n, done| {
            copies = copies + chunk.install(start, part(done, n));
        })?;
        inner.count(copies);
        Ok(())
    }

    /// Write `data` at `addr`. Earlier snapshots of the range keep their
    /// bytes.
    pub fn write(&self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        self.land(addr, data.len(), |done, n| {
            PayloadSeg::copy_from_slice(&data[done..done + n])
        })
    }

    /// Land `seg` at `addr` by reference — the zero-copy receive and
    /// staging path.
    ///
    /// Logically identical to `write(addr, &seg)`, but the bytes stay in
    /// the segment's buffer instead of being copied: a later read inside
    /// the range slices that buffer.
    pub fn install(&self, addr: u64, seg: &PayloadSeg) -> Result<(), MemError> {
        self.land(addr, seg.len(), |done, n| seg.slice(done, n))
    }

    /// Read a region.
    pub fn read_region(&self, r: MemRegion) -> Result<PayloadSeg, MemError> {
        self.read(r.addr, r.len)
    }

    /// Fill a region with a byte value: each allocation it spans gets a
    /// buffer of `v`s.
    pub fn fill(&self, r: MemRegion, v: u8) -> Result<(), MemError> {
        self.land(r.addr, r.len, |_, n| PayloadSeg::from(vec![v; n]))
    }

    /// Total bytes allocated so far.
    pub fn allocated(&self) -> usize {
        (self.inner.borrow().next - GUEST_BASE) as usize
    }

    /// Payload copies this arena has made so far.
    pub fn copy_stats(&self) -> CopyStats {
        self.inner.borrow().copies
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_write_read_roundtrip() {
        let m = GuestMem::new();
        let r = m.alloc(64, 0xAA);
        assert_eq!(r.addr, GUEST_BASE);
        assert_eq!(m.read(r.addr, 64).unwrap(), vec![0xAA; 64]);
        m.write(r.addr + 8, &[1, 2, 3]).unwrap();
        let b = m.read(r.addr + 8, 3).unwrap();
        assert_eq!(&b[..], &[1, 2, 3]);
    }

    #[test]
    fn allocations_do_not_overlap() {
        let m = GuestMem::new();
        let a = m.alloc(16, 1);
        let b = m.alloc(16, 2);
        assert_eq!(a.end(), b.addr);
        assert_eq!(m.read_region(a).unwrap(), vec![1; 16]);
        assert_eq!(m.read_region(b).unwrap(), vec![2; 16]);
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        let m = GuestMem::new();
        let r = m.alloc(8, 0);
        assert!(m.read(r.addr, 9).is_err());
        assert!(m.read(0, 1).is_err(), "address 0 is never valid");
        assert!(m.write(r.end(), &[1]).is_err());
    }

    #[test]
    fn alloc_from_copies_data() {
        let m = GuestMem::new();
        let r = m.alloc_from(b"hello rdma");
        assert_eq!(&m.read_region(r).unwrap()[..], b"hello rdma");
    }

    #[test]
    fn subregion_slicing() {
        let m = GuestMem::new();
        let r = m.alloc_from(b"0123456789");
        let s = r.slice(3, 4);
        assert_eq!(&m.read_region(s).unwrap()[..], b"3456");
    }

    #[test]
    #[should_panic(expected = "sub-region out of range")]
    fn subregion_overflow_panics() {
        let r = MemRegion { addr: 0, len: 4 };
        let _ = r.slice(2, 3);
    }

    #[test]
    fn read_spanning_allocations_gathers() {
        let m = GuestMem::new();
        let a = m.alloc(4, 1);
        let _b = m.alloc(4, 2);
        let got = m.read(a.addr + 2, 4).unwrap();
        assert_eq!(&got[..], &[1, 1, 2, 2]);
    }

    #[test]
    fn write_spanning_allocations_scatters() {
        let m = GuestMem::new();
        let a = m.alloc(4, 0);
        let b = m.alloc(4, 0);
        m.write(a.addr + 2, &[7, 7, 7, 7]).unwrap();
        assert_eq!(m.read_region(a).unwrap(), vec![0, 0, 7, 7]);
        assert_eq!(m.read_region(b).unwrap(), vec![7, 7, 0, 0]);
    }

    #[test]
    fn snapshots_are_stable_across_writes() {
        let m = GuestMem::new();
        let r = m.alloc_from(b"immutable snapshot");
        let snap = m.read_region(r).unwrap();
        m.write(r.addr, b"OVERWRITTEN BYTES!").unwrap();
        assert_eq!(
            &snap[..],
            b"immutable snapshot",
            "the view's buffer is immutable"
        );
        assert_eq!(&m.read_region(r).unwrap()[..], b"OVERWRITTEN BYTES!");
    }

    #[test]
    fn snapshots_are_stable_across_fill() {
        let m = GuestMem::new();
        let r = m.alloc(8, 3);
        let snap = m.read_region(r).unwrap();
        m.fill(r, 9).unwrap();
        assert_eq!(snap, vec![3; 8]);
        assert_eq!(m.read_region(r).unwrap(), vec![9; 8]);
    }

    #[test]
    fn install_lands_bytes_without_copy() {
        let src = GuestMem::new();
        let dst = GuestMem::new();
        let sr = src.alloc_from(b"payload from the wire");
        let dr = dst.alloc(64, 0);
        let seg = src.read_region(sr).unwrap();
        dst.install(dr.addr + 8, &seg).unwrap();
        // Exact-range readback is served by reference.
        let got = dst.read(dr.addr + 8, sr.len).unwrap();
        assert_eq!(&got[..], b"payload from the wire");
        assert_eq!(got.as_ptr(), seg.as_ptr());
        // Overlapping byte reads see the gathered view, which is installed
        // back: the next read of the range slices it.
        let gathered = dst.read(dr.addr, 64).unwrap();
        assert_eq!(&gathered[..8], &[0; 8]);
        assert_eq!(&gathered[8..8 + sr.len], b"payload from the wire");
        assert_eq!(dst.read(dr.addr, 64).unwrap().as_ptr(), gathered.as_ptr());
        assert_eq!(dst.copy_stats(), CopyStats::one(64), "one gather");
    }

    #[test]
    fn install_snapshot_isolated_from_source_writes() {
        let src = GuestMem::new();
        let dst = GuestMem::new();
        let sr = src.alloc_from(b"first");
        let dr = dst.alloc(8, 0);
        let seg = src.read_region(sr).unwrap();
        dst.install(dr.addr, &seg).unwrap();
        // The sender reuses its buffer: the installed bytes must not change.
        src.write(sr.addr, b"xxxxx").unwrap();
        assert_eq!(&dst.read(dr.addr, 5).unwrap()[..], b"first");
    }

    #[test]
    fn repeated_same_range_installs_do_not_grow_extents() {
        let src = GuestMem::new();
        let dst = GuestMem::new();
        let sr = src.alloc(4096, 0);
        let dr = dst.alloc(8192, 0);
        for round in 0..200u32 {
            src.write(sr.addr, &round.to_le_bytes()).unwrap();
            let seg = src.read_region(sr).unwrap();
            dst.install(dr.addr, &seg).unwrap();
            dst.install(dr.addr + 4096, &seg).unwrap();
        }
        let extents = dst.inner.borrow().chunks[0].extents.len();
        assert!(
            extents <= 2,
            "windowed installs must replace, not accumulate: {extents}"
        );
        assert_eq!(dst.copy_stats(), CopyStats::default());
        assert_eq!(&dst.read(dr.addr, 4).unwrap()[..], 199u32.to_le_bytes());
    }

    #[test]
    fn extent_bound_is_enforced() {
        let dst = GuestMem::new();
        let dr = dst.alloc(128, 0xFF);
        // 40 single-byte installs of distinct buffers, one byte apart: each
        // adds two extents until the bound compacts the chunk.
        for i in 0..40u8 {
            let at = dr.addr + 2 * u64::from(i);
            dst.install(at, &PayloadSeg::from(vec![i])).unwrap();
            assert!(dst.inner.borrow().chunks[0].extents.len() <= MAX_EXTENTS);
        }
        assert!(
            dst.copy_stats().copies >= 1,
            "the bound compacted the chunk"
        );
        for i in 0..40u8 {
            let at = dr.addr + 2 * u64::from(i);
            assert_eq!(dst.read(at, 2).unwrap(), vec![i, 0xFF]);
        }
    }

    #[test]
    fn header_peek_of_installed_fragment_is_by_reference() {
        let src = GuestMem::new();
        let dst = GuestMem::new();
        let sr = src.alloc_from(b"HDR|payload bytes");
        let dr = dst.alloc(64, 0);
        let seg = src.read_region(sr).unwrap();
        dst.install(dr.addr + 4, &seg).unwrap();
        // A sub-range read inside the installed extent slices it: no copy,
        // and the extents stay as they are.
        let hdr = dst.read(dr.addr + 4, 3).unwrap();
        assert_eq!(&hdr[..], b"HDR");
        assert_eq!(hdr.as_ptr(), seg.as_ptr());
        assert_eq!(&dst.read(dr.addr + 8, 7).unwrap()[..], b"payload");
        assert_eq!(dst.copy_stats(), CopyStats::default());
        assert_eq!(
            dst.inner.borrow().chunks[0].extents.len(),
            3,
            "peek reads must not gather the extent away"
        );
    }

    #[test]
    fn reinstall_of_unchanged_buffer_still_overwrites_overlap() {
        // Regression: re-sending an unmodified source buffer (retransmit,
        // constant payload) over a range that an overlapping install
        // touched in between must behave as a fresh write, not be
        // shadowed by the older overlapping install.
        let src = GuestMem::new();
        let dst = GuestMem::new();
        let a = src.alloc_from(b"AAAA");
        let b = src.alloc_from(b"BB");
        let dr = dst.alloc(8, 0);
        let seg_a = src.read_region(a).unwrap();
        let seg_b = src.read_region(b).unwrap();
        dst.install(dr.addr, &seg_a).unwrap();
        dst.install(dr.addr + 1, &seg_b).unwrap();
        // Same backing buffer, same range as the first install.
        dst.install(dr.addr, &src.read_region(a).unwrap()).unwrap();
        assert_eq!(&dst.read(dr.addr, 4).unwrap()[..], b"AAAA");
        let _ = seg_a;
        let _ = seg_b;
    }

    #[test]
    fn overlapping_installs_apply_in_order() {
        let src = GuestMem::new();
        let dst = GuestMem::new();
        let a = src.alloc_from(b"AAAA");
        let b = src.alloc_from(b"BB");
        let dr = dst.alloc(8, 0);
        dst.install(dr.addr, &src.read_region(a).unwrap()).unwrap();
        dst.install(dr.addr + 1, &src.read_region(b).unwrap())
            .unwrap();
        assert_eq!(&dst.read(dr.addr, 5).unwrap()[..], b"ABBA\0");
    }

    /// `payload` cut into `frag`-byte fragments, as the NIC reads them.
    fn fragments(payload: &PayloadSeg, frag: usize) -> Vec<(usize, PayloadSeg)> {
        (0..payload.len())
            .step_by(frag)
            .map(|off| (off, payload.slice(off, frag.min(payload.len() - off))))
            .collect()
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + i / 251) as u8).collect()
    }

    #[test]
    fn in_order_fragments_coalesce_into_one_extent() {
        let dst = GuestMem::new();
        let dr = dst.alloc(16 << 10, 0);
        let payload = PayloadSeg::from(pattern(10_000));
        for (off, frag) in fragments(&payload, 1024) {
            dst.install(dr.addr + 64 + off as u64, &frag).unwrap();
            // The fill before it, the message so far, the fill after it.
            assert_eq!(dst.inner.borrow().chunks[0].extents.len(), 3);
        }
        let landed = |k: usize| {
            let e = &dst.inner.borrow().chunks[0].extents[k];
            (e.offset, e.seg.len())
        };
        assert_eq!(landed(1), (64, 10_000));
        // The same offsets cut from another buffer continue nothing.
        let other = PayloadSeg::from(vec![9u8; 10_100]);
        dst.install(dr.addr + 10_064, &other.slice(10_000, 100))
            .unwrap();
        assert_eq!(landed(2), (10_064, 100));
        let got = dst.read(dr.addr + 64, 10_100).unwrap();
        assert_eq!(got, [&payload[..], &[9u8; 100][..]].concat());
    }

    #[test]
    fn whole_range_read_shares_the_senders_buffer() {
        let dst = GuestMem::new();
        let dr = dst.alloc(16 << 10, 0);
        let before = thread_copy_stats();
        let payload = PayloadSeg::from(pattern(10_000));
        for (off, frag) in fragments(&payload, 1024) {
            dst.install(dr.addr + off as u64, &frag).unwrap();
        }
        let got = dst.read(dr.addr, 10_000).unwrap();
        assert_eq!(got.as_ptr(), payload.as_ptr(), "no copy: the same bytes");
        assert_eq!(got, payload);
        assert_eq!(thread_copy_stats(), before, "no gather, no compaction");
    }

    #[test]
    fn out_of_order_and_duplicate_fragments_read_back_exactly() {
        let payload = PayloadSeg::from(pattern(12_000));
        let frags = fragments(&payload, 1000);
        let rng = cord_sim::DetRng::from_seed(7);
        let mut shuffled: Vec<usize> = (0..12).collect();
        for i in (1..12).rev() {
            shuffled.swap(i, rng.uniform_range(0, i as u64 + 1) as usize);
        }
        // Reversed, interleaved, repeated and shuffled arrivals of one
        // message: each fuses into one extent, so the whole-message read
        // is the sender's buffer, with no copy.
        let orders: [Vec<usize>; 4] = [
            (0..12).rev().collect(),
            vec![0, 2, 1, 4, 3, 6, 5, 8, 7, 10, 9, 11],
            vec![0, 1, 1, 3, 2, 2, 5, 4, 0, 6, 7, 9, 8, 11, 10, 11],
            shuffled,
        ];
        for order in orders {
            let dst = GuestMem::new();
            let dr = dst.alloc(12_000, 0xEE);
            for &i in &order {
                let (off, frag) = &frags[i];
                dst.install(dr.addr + *off as u64, frag).unwrap();
            }
            let extents = dst.inner.borrow().chunks[0].extents.len();
            assert_eq!(extents, 1, "order {order:?}");
            let got = dst.read_region(dr).unwrap();
            assert_eq!(got.as_ptr(), payload.as_ptr(), "order {order:?}");
            assert_eq!(got, payload);
            assert_eq!(dst.read(dr.addr + 999, 2).unwrap(), payload.slice(999, 2));
            assert_eq!(dst.copy_stats(), CopyStats::default(), "order {order:?}");
        }
    }

    #[test]
    fn fill_and_write_over_a_landed_message_copy_nothing() {
        let dst = GuestMem::new();
        let dr = dst.alloc(4096, 0xEE);
        let payload = PayloadSeg::from(pattern(1000));
        let mut want = vec![0xEE; 4096];
        for (off, frag) in fragments(&payload, 256) {
            dst.install(dr.addr + 100 + off as u64, &frag).unwrap();
        }
        want[100..1100].copy_from_slice(&payload);
        // A write into the message, one across its end, and a scrub of the
        // whole message, as an RPC client scrubs each landed response.
        dst.write(dr.addr + 500, &[1; 100]).unwrap();
        want[500..600].fill(1);
        dst.write(dr.addr + 1050, &[2; 100]).unwrap();
        want[1050..1150].fill(2);
        assert_eq!(dst.read(dr.addr + 1050, 100).unwrap(), vec![2; 100]);
        dst.fill(dr.slice(100, 1000), 0).unwrap();
        want[100..1100].fill(0);
        assert_eq!(dst.read(dr.addr + 100, 1000).unwrap(), vec![0; 1000]);
        assert_eq!(dst.copy_stats(), CopyStats::default());
        assert_eq!(dst.read_region(dr).unwrap(), want);
    }

    #[test]
    fn fully_covered_extent_is_dropped() {
        let dst = GuestMem::new();
        let dr = dst.alloc(256, 0);
        let small = PayloadSeg::from(vec![1u8; 16]);
        dst.install(dr.addr + 32, &small).unwrap();
        assert_eq!(Rc::strong_count(&small.data), 2, "the extent pins it");
        let big = PayloadSeg::from(vec![2u8; 128]);
        dst.install(dr.addr, &big).unwrap();
        assert_eq!(dst.inner.borrow().chunks[0].extents.len(), 2);
        assert_eq!(Rc::strong_count(&small.data), 1, "dropped, not copied");
        assert_eq!(dst.copy_stats(), CopyStats::default());
        assert_eq!(dst.read(dr.addr + 32, 16).unwrap(), vec![2u8; 16]);
    }

    #[test]
    fn chunk_compacts_once_older_extents_pin_twice_its_bytes() {
        let dst = GuestMem::new();
        let dr = dst.alloc(1000, 0);
        // Each install keeps 100 bytes of a 400-byte buffer. Besides the
        // newest buffer, the third leaves the 1000 B fill buffer and two
        // 400 B buffers alive (1800 B), the fourth 2200 B > 2 × 1000 B.
        let bufs: Vec<PayloadSeg> = (0..4u8)
            .map(|i| PayloadSeg::from(vec![i + 1; 400]))
            .collect();
        for (i, buf) in bufs.iter().enumerate() {
            dst.install(dr.addr + 100 * i as u64, &buf.slice(0, 100))
                .unwrap();
            assert_eq!(dst.copy_stats().copies, u64::from(i == 3), "install {i}");
        }
        // The compaction copies the chunk, and the newest extent stays a
        // view of its own buffer; the older buffers are released.
        assert_eq!(dst.copy_stats(), CopyStats::one(1000));
        {
            let inner = dst.inner.borrow();
            let extents = &inner.chunks[0].extents;
            assert_eq!(extents.len(), 3, "fresh, newest, fresh");
            assert!(Rc::ptr_eq(&extents[1].seg.data, &bufs[3].data));
        }
        assert!(bufs[..3].iter().all(|b| Rc::strong_count(&b.data) == 1));
        let want = [[1u8; 100], [2; 100], [3; 100], [4; 100]].concat();
        assert_eq!(dst.read(dr.addr, 400).unwrap(), want);
    }

    #[test]
    fn random_mutations_keep_the_chunk_within_its_bounds() {
        let rng = cord_sim::DetRng::from_seed(0xE87E);
        let m = GuestMem::new();
        let r = m.alloc(4096, 0);
        let mut want = vec![0u8; 4096];
        let shared = PayloadSeg::from(pattern(8192));
        for step in 0..5000 {
            let max = if rng.uniform_range(0, 2) == 0 {
                16
            } else {
                600
            };
            let len = rng.uniform_range(1, max) as usize;
            let off = rng.uniform_range(0, (4096 - len) as u64 + 1) as usize;
            let at = r.addr + off as u64;
            let bytes: Vec<u8> = match rng.uniform_range(0, 4) {
                // A fragment of a buffer larger than the chunk.
                0 => {
                    let from = rng.uniform_range(0, (8192 - len) as u64 + 1) as usize;
                    m.install(at, &shared.slice(from, len)).unwrap();
                    shared[from..from + len].to_vec()
                }
                // A slice of an owned buffer.
                1 => {
                    let buf = PayloadSeg::from(pattern(len + step % 64));
                    m.install(at, &buf.slice(step % 64, len)).unwrap();
                    buf[step % 64..].to_vec()
                }
                2 => {
                    let data = vec![step as u8; len];
                    m.write(at, &data).unwrap();
                    data
                }
                _ => {
                    m.fill(r.slice(off, len), step as u8).unwrap();
                    vec![step as u8; len]
                }
            };
            want[off..off + len].copy_from_slice(&bytes);
            let inner = m.inner.borrow();
            let chunk = &inner.chunks[0];
            assert!(chunk.extents.len() <= MAX_EXTENTS, "step {step}");
            let newest = &chunk.extents[chunk.find(off)].seg.data;
            let mut bufs: Vec<&Rc<Vec<u8>>> = chunk
                .extents
                .iter()
                .map(|e| &e.seg.data)
                .filter(|b| !Rc::ptr_eq(b, newest))
                .collect();
            bufs.sort_by_key(|b| Rc::as_ptr(b));
            bufs.dedup_by(|a, b| Rc::ptr_eq(a, b));
            let pinned: usize = bufs.iter().map(|b| b.len()).sum();
            assert!(pinned <= 2 * 4096, "step {step}: {pinned} B pinned");
        }
        assert!(m.copy_stats().copies > 0, "the bounds were reached");
        assert_eq!(m.read_region(r).unwrap(), want);
    }

    #[test]
    fn pool_slots_share_one_fill_buffer_until_written() {
        let m = GuestMem::new();
        let pool = m.alloc_slots(4, 16, 5);
        let slot = |i: u64| m.read(pool.addr + 16 * i, 16).unwrap();
        let first = slot(0);
        assert!((1..4).all(|i| slot(i).as_ptr() == first.as_ptr()));
        assert_eq!(
            Rc::strong_count(&first.data),
            4 + 1,
            "four slots and `first`"
        );
        m.write(pool.addr + 32, &[6; 16]).unwrap();
        assert_eq!(Rc::strong_count(&first.data), 3 + 1);
        assert_eq!(slot(2), vec![6; 16]);
        assert!([0, 1, 3]
            .iter()
            .all(|&i| slot(i).as_ptr() == first.as_ptr()));
        assert_eq!(m.copy_stats(), CopyStats::default());
    }

    #[test]
    fn compaction_copies_one_slot_not_the_pool() {
        let m = GuestMem::new();
        let before = thread_copy_stats();
        let pool = m.alloc_slots(4, 8, 7);
        assert_eq!(pool.addr, GUEST_BASE);
        assert_eq!((pool.len, m.allocated()), (32, 32));
        // Two bytes of two 100-byte buffers pin more than twice an 8-byte
        // slot: compacting copies slot 1 alone, and writing the whole of
        // slot 2 copies nothing.
        let pin_two_bytes = |at: u64| {
            for k in 0..2 {
                let buf = PayloadSeg::from(vec![1; 100]);
                m.install(at + k, &buf.slice(0, 1)).unwrap();
            }
        };
        pin_two_bytes(pool.addr + 8);
        m.write(pool.addr + 16, &[2; 8]).unwrap();
        assert_eq!(m.copy_stats(), CopyStats::one(8));
        // One allocation of the pool's size copies all of it.
        let flat = m.alloc(32, 0);
        pin_two_bytes(flat.addr + 8);
        let total = CopyStats::one(8) + CopyStats::one(32);
        assert_eq!(m.copy_stats(), total);
        let after = thread_copy_stats();
        let thread = (after.copies - before.copies, after.bytes - before.bytes);
        assert_eq!(thread, (total.copies, total.bytes));
        let want = [[7u8; 8], [1, 1, 7, 7, 7, 7, 7, 7], [2; 8], [7; 8]].concat();
        assert_eq!(m.read_region(pool).unwrap(), want);
    }

    #[test]
    fn payload_seg_slice_and_eq() {
        let seg = PayloadSeg::from(b"0123456789".to_vec());
        let s = seg.slice(3, 4);
        assert_eq!(&s[..], b"3456");
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert_eq!(s.to_vec(), b"3456".to_vec());
        assert_eq!(s, PayloadSeg::from(b"3456".to_vec()));
        // Sub-slicing shares the buffer.
        assert_eq!(s.slice(1, 2).as_ptr(), seg[4..].as_ptr());
    }

    #[test]
    fn payload_seg_roundtrip_and_slice() {
        let seg = PayloadSeg::from(vec![1u8, 2, 3, 4, 5]);
        assert_eq!(seg.len(), 5);
        let s = seg.slice(1, 3);
        assert_eq!(&s[..], &[2, 3, 4]);
        let s2 = s.slice(1, 2);
        assert_eq!(&s2[..], &[3, 4]);
        assert_eq!(seg.to_vec(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn payload_seg_equality_and_empty() {
        let empty = PayloadSeg::from(Vec::new());
        assert_eq!(empty.len(), 0);
        assert!(empty.is_empty());
        assert_eq!(
            PayloadSeg::from(vec![7, 7]),
            PayloadSeg::copy_from_slice(&[7, 7])
        );
    }
}
