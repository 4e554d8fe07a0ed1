//! Simulated process memory with a copy-on-write payload path.
//!
//! Every simulated process owns a [`GuestMem`] arena. Message payloads are
//! real bytes carried end-to-end through the NIC pipeline, so tests can
//! assert data integrity across segmentation, DMA, and reassembly — the
//! same guarantee a real RDMA stack must provide.
//!
//! ## Zero-copy design
//!
//! The arena is a sequence of per-allocation *chunks*, each backed by a
//! reference-counted buffer. [`GuestMem::read`] returns a [`PayloadSeg`] —
//! an offset+length view over the chunk's current backing — in O(1),
//! without copying the bytes. The snapshot is stable: a later write to the
//! same range clones the chunk first (copy-on-write) whenever any segment
//! still references it, so a reader always sees the bytes exactly as they
//! were at read time, which is what the old copying `read` guaranteed.
//!
//! On the receive side, [`GuestMem::install`] lands an inbound fragment by
//! *reference*: the segment (still backed by the sender's buffer) is
//! recorded as a patch over the destination chunk instead of being copied
//! into it. A fragment that continues the newest patch — the next bytes
//! of the same buffer, landing right after it — extends that patch, so a
//! message whose fragments arrive in order lands as one patch, and a read
//! of the whole message shares the sender's buffer. A patch drops every
//! earlier patch it fully covers, so steady-state traffic that lands
//! messages at the same offsets over and over (every RPC reuses its
//! receive buffer, every MPI rendezvous its landing zone) never copies
//! payload bytes and never grows the list. Patches are merged into the
//! backing buffer only when a write or fill overlaps them, when a read
//! overlaps them and no single patch covers it, when the list reaches a
//! small bound, or when the older patches pin more bytes of other buffers
//! than the chunk holds.
//! That last rule bounds what a chunk keeps alive: its own bytes, at most
//! as many again in older patches, and the newest patch's buffer. A
//! sender that owns its payload stages it the same way, by installing the
//! whole buffer; the NIC's fragment reads then slice it.
//!
//! A copy-on-write copy clones one chunk, so its cost is the size of one
//! allocation. Buffer pools that recycle buffers while earlier fragments
//! are still in flight (the IPoIB socket buffers, the MPI eager slots)
//! therefore allocate each buffer as its own chunk with
//! [`GuestMem::alloc_slots`]: reusing a buffer clones that buffer, never
//! the pool. [`GuestMem::cow_stats`] counts these copies and the merges.
//!
//! None of this is visible in virtual time — reads and writes are
//! instantaneous model operations either way — so simulation results are
//! bit-identical to the copying implementation; only wall-clock time and
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

/// Patch-list length at which a chunk merges its patches back into the
/// backing buffer. Small enough that patch lookups stay cheap, large
/// enough that a windowed RPC workload (whose fragments keep landing at
/// the same offsets and so *replace* patches instead of appending) never
/// triggers a merge at all.
const MAX_PATCHES: usize = 32;

/// A contiguous, immutable view of payload bytes: an offset+length window
/// over a reference-counted buffer.
///
/// This is what [`GuestMem::read`] returns and what NIC fragments carry
/// through WQE → packet → frame → RX completion. Cloning and sub-slicing
/// are O(1) (a reference-count bump); the bytes themselves are shared with
/// the arena chunk they were read from and are guaranteed stable — the
/// arena copies on write while any segment is alive.
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
/// // Snapshots are stable across later writes (copy-on-write):
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

/// The payload copies an arena made behind its zero-copy API: chunk clones
/// forced by copy-on-write, and patch merges that copy installed segments
/// into a chunk's backing buffer. Observer-only — nothing in the model
/// reads them — and kept out of every digest and report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CowStats {
    /// Chunk clones forced by a write while a [`PayloadSeg`] still
    /// referenced the chunk.
    pub copies: u64,
    /// Bytes those clones copied.
    pub bytes: u64,
    /// Patch merges.
    pub merges: u64,
    /// Bytes those merges copied out of installed segments.
    pub merge_bytes: u64,
}

impl Add for CowStats {
    type Output = CowStats;

    fn add(self, other: CowStats) -> CowStats {
        CowStats {
            copies: self.copies + other.copies,
            bytes: self.bytes + other.bytes,
            merges: self.merges + other.merges,
            merge_bytes: self.merge_bytes + other.merge_bytes,
        }
    }
}

thread_local! {
    /// Every arena's copies on this thread (see [`thread_cow_stats`]).
    static THREAD_COW: Cell<CowStats> = const {
        Cell::new(CowStats { copies: 0, bytes: 0, merges: 0, merge_bytes: 0 })
    };
}

/// Copies made so far by every arena on this thread. A simulation runs on
/// one thread, so the difference across a run is the run's copy cost
/// (`simbench` reports it per bench).
pub fn thread_cow_stats() -> CowStats {
    THREAD_COW.with(Cell::get)
}

/// One inbound segment recorded over a chunk without copying.
struct Patch {
    /// Offset within the chunk.
    offset: usize,
    seg: PayloadSeg,
}

impl Patch {
    /// One past the patch's last chunk offset.
    fn end(&self) -> usize {
        self.offset + self.seg.len()
    }
}

/// One allocation's backing storage.
struct Chunk {
    /// First virtual address covered by this chunk.
    base: u64,
    /// One past the last address, kept inline: chunk lookup probes it on
    /// every access and must not chase the `data` pointer to learn it.
    end: u64,
    /// Shared backing buffer; `Rc::strong_count > 1` means live read
    /// snapshots exist and a write must copy first.
    data: Rc<Vec<u8>>,
    /// Reference-installed writes not yet merged into `data`, in
    /// application order (later patches shadow earlier ones).
    patches: Vec<Patch>,
    /// Copies this chunk has made so far.
    copies: CowStats,
}

impl Chunk {
    fn new(base: u64, data: Vec<u8>) -> Chunk {
        Chunk {
            base,
            end: base + data.len() as u64,
            data: Rc::new(data),
            patches: Vec::new(),
            copies: CowStats::default(),
        }
    }

    fn len(&self) -> usize {
        (self.end - self.base) as usize
    }

    fn count(&mut self, copy: CowStats) {
        self.copies = self.copies + copy;
        THREAD_COW.with(|t| t.set(t.get() + copy));
    }

    /// Mutable access to the backing buffer, cloning it first if any
    /// outstanding [`PayloadSeg`] still references it (copy-on-write).
    fn data_mut(&mut self) -> &mut Vec<u8> {
        if Rc::strong_count(&self.data) > 1 {
            self.data = Rc::new(self.data.as_ref().clone());
            self.count(CowStats {
                copies: 1,
                bytes: self.data.len() as u64,
                ..CowStats::default()
            });
        }
        Rc::get_mut(&mut self.data).expect("uniquely owned after COW")
    }

    /// Merge all pending patches into the backing buffer.
    fn merge_patches(&mut self) {
        if self.patches.is_empty() {
            return;
        }
        let patches = std::mem::take(&mut self.patches);
        let buf = self.data_mut();
        let mut bytes = 0;
        for p in &patches {
            buf[p.offset..p.end()].copy_from_slice(&p.seg);
            bytes += p.seg.len() as u64;
        }
        self.count(CowStats {
            merges: 1,
            merge_bytes: bytes,
            ..CowStats::default()
        });
    }

    /// Index of the most recent patch covering `[start, end)` that no
    /// *later* patch overlaps — the one position where the patch can serve
    /// a read without consulting the rest of the shadow order.
    fn covering_patch(&self, start: usize, end: usize) -> Option<usize> {
        let k = self
            .patches
            .iter()
            .rposition(|p| p.offset <= start && p.end() >= end)?;
        let shadowed = self.patches[k + 1..]
            .iter()
            .any(|p| p.offset < end && p.end() > start);
        (!shadowed).then_some(k)
    }

    /// Record `seg` at `offset` by reference.
    ///
    /// A segment that continues the newest patch — the next bytes of the
    /// same buffer, landing right after it — extends that patch, so a
    /// message's in-order fragments become one patch. The newest patch
    /// then drops every earlier patch it fully covers, which is how a
    /// message landing where an earlier one did replaces it. The older
    /// patches are merged into the backing buffer once they pin more bytes
    /// than the chunk holds, or when the list reaches [`MAX_PATCHES`].
    fn install(&mut self, offset: usize, seg: PayloadSeg) {
        let newest = match self.patches.pop() {
            Some(mut last) if last.end() == offset && last.seg.is_followed_by(&seg) => {
                last.seg.len += seg.len();
                last
            }
            last => {
                self.patches.extend(last);
                Patch { offset, seg }
            }
        };
        self.patches
            .retain(|p| p.offset < newest.offset || p.end() > newest.end());
        if self.pinned_by_older(&newest.seg) > self.len() || self.patches.len() + 1 >= MAX_PATCHES {
            self.merge_patches();
        }
        self.patches.push(newest);
    }

    /// Bytes the older patches keep alive beyond the newest patch's
    /// buffer: what merging them would free. A buffer counts once per run
    /// of patches cutting it, so an out-of-order message, whose fragments
    /// share one buffer, pins it once.
    fn pinned_by_older(&self, newest: &PayloadSeg) -> usize {
        let mut prev = &newest.data;
        let mut pinned = 0;
        for p in &self.patches {
            let buf = &p.seg.data;
            if !Rc::ptr_eq(buf, prev) && !Rc::ptr_eq(buf, &newest.data) {
                pinned += buf.len();
            }
            prev = buf;
        }
        pinned
    }

    /// Whether `[start, end)` (chunk-relative) overlaps any pending patch.
    fn overlaps_patch(&self, start: usize, end: usize) -> bool {
        self.patches
            .iter()
            .any(|p| p.offset < end && p.end() > start)
    }
}

struct Inner {
    /// Chunks in ascending-address order; addresses are dense, so chunk
    /// lookup is a binary search over a handful of entries.
    chunks: Vec<Chunk>,
    next: u64,
}

impl Inner {
    /// Index of the chunk containing `addr`, if any.
    fn chunk_idx(&self, addr: u64) -> Option<usize> {
        let i = self.chunks.partition_point(|c| c.end <= addr);
        (self.chunks.get(i)?.base <= addr).then_some(i)
    }

    /// Bounds check: the arena is contiguous from [`GUEST_BASE`] to the
    /// allocation frontier, exactly as in the flat-buffer implementation.
    fn check(&self, addr: u64, len: usize) -> Result<(), MemError> {
        let err = MemError::OutOfBounds { addr, len };
        if addr < GUEST_BASE || addr as u128 + len as u128 > self.next as u128 {
            return Err(err);
        }
        Ok(())
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
    /// Each slot is its own allocation, so when in-flight fragments still
    /// pin a slot, a write to it copies that one slot, not the whole pool.
    /// The slots sit at contiguous addresses, so the spanning region (and
    /// a memory region registered over it) is the one a single
    /// `alloc(count * len, fill)` would return.
    pub fn alloc_slots(&self, count: usize, len: usize, fill: u8) -> MemRegion {
        let mut inner = self.inner.borrow_mut();
        let addr = inner.next;
        for i in 0..count {
            inner
                .chunks
                .push(Chunk::new(addr + (i * len) as u64, vec![fill; len]));
        }
        inner.next += (count * len) as u64;
        MemRegion {
            addr,
            len: count * len,
        }
    }

    /// Allocate and initialize from a slice.
    pub fn alloc_from(&self, data: &[u8]) -> MemRegion {
        let mut inner = self.inner.borrow_mut();
        let addr = inner.next;
        inner.next += data.len() as u64;
        inner.chunks.push(Chunk::new(addr, data.to_vec()));
        MemRegion {
            addr,
            len: data.len(),
        }
    }

    /// Read `len` bytes at `addr` as a zero-copy [`PayloadSeg`] snapshot.
    ///
    /// O(1) when the range lies within one allocation (the NIC data path
    /// always does): the segment shares the chunk's backing buffer, and
    /// later writes copy-on-write so the snapshot stays stable. Ranges
    /// spanning allocations fall back to a gather copy.
    pub fn read(&self, addr: u64, len: usize) -> Result<PayloadSeg, MemError> {
        let mut inner = self.inner.borrow_mut();
        inner.check(addr, len)?;
        if len == 0 {
            return Ok(PayloadSeg::new(Rc::new(Vec::new()), 0, 0));
        }
        let Some(i) = inner.chunk_idx(addr) else {
            return Err(MemError::OutOfBounds { addr, len });
        };
        let chunk = &mut inner.chunks[i];
        let start = (addr - chunk.base) as usize;
        if start + len <= chunk.len() {
            if !chunk.patches.is_empty() {
                // Fast path: a read inside one installed segment (whole
                // fragment or a header peek) is served by reference, if
                // nothing later shadows it.
                if let Some(k) = chunk.covering_patch(start, start + len) {
                    let p = &chunk.patches[k];
                    return Ok(p.seg.slice(start - p.offset, len));
                }
                if chunk.overlaps_patch(start, start + len) {
                    chunk.merge_patches();
                }
            }
            return Ok(PayloadSeg::new(Rc::clone(&chunk.data), start, len));
        }
        // Cross-chunk read: gather (cold path; the arena is contiguous).
        drop(inner);
        let mut out = vec![0u8; len];
        self.gather(addr, &mut out)?;
        Ok(PayloadSeg::from(out))
    }

    /// Walk the chunks spanning `[addr, addr + len)` in address order,
    /// calling `op(chunk, start_in_chunk, span_len, done_before)` for each
    /// span. The single home of the chunk-walk arithmetic shared by
    /// [`GuestMem::write`], [`GuestMem::fill`], and the gather path.
    fn for_each_span(
        &self,
        addr: u64,
        len: usize,
        mut op: impl FnMut(&mut Chunk, usize, usize, usize),
    ) -> Result<(), MemError> {
        let mut inner = self.inner.borrow_mut();
        let mut done = 0;
        while done < len {
            let a = addr + done as u64;
            let Some(i) = inner.chunk_idx(a) else {
                return Err(MemError::OutOfBounds { addr, len });
            };
            let chunk = &mut inner.chunks[i];
            let start = (a - chunk.base) as usize;
            let n = (chunk.len() - start).min(len - done);
            op(chunk, start, n, done);
            done += n;
        }
        Ok(())
    }

    fn gather(&self, addr: u64, out: &mut [u8]) -> Result<(), MemError> {
        self.for_each_span(addr, out.len(), |chunk, start, n, done| {
            if chunk.overlaps_patch(start, start + n) {
                chunk.merge_patches();
            }
            out[done..done + n].copy_from_slice(&chunk.data[start..start + n]);
        })
    }

    /// Write `data` at `addr` (copy-on-write if snapshots are live).
    pub fn write(&self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        self.inner.borrow().check(addr, data.len())?;
        self.for_each_span(addr, data.len(), |chunk, start, n, done| {
            if chunk.overlaps_patch(start, start + n) {
                chunk.merge_patches();
            }
            chunk.data_mut()[start..start + n].copy_from_slice(&data[done..done + n]);
        })
    }

    /// Land `seg` at `addr` by reference — the zero-copy receive path.
    ///
    /// Logically identical to `write(addr, &seg)`, but when the range lies
    /// within one allocation the bytes are recorded as a patch sharing the
    /// sender's buffer instead of being copied; the copy happens lazily if
    /// and when the range is next accessed through the byte APIs.
    pub fn install(&self, addr: u64, seg: &PayloadSeg) -> Result<(), MemError> {
        let mut inner = self.inner.borrow_mut();
        inner.check(addr, seg.len())?;
        if seg.is_empty() {
            return Ok(());
        }
        let Some(i) = inner.chunk_idx(addr) else {
            return Err(MemError::OutOfBounds {
                addr,
                len: seg.len(),
            });
        };
        let chunk = &mut inner.chunks[i];
        let start = (addr - chunk.base) as usize;
        if start + seg.len() <= chunk.len() {
            chunk.install(start, seg.clone());
            Ok(())
        } else {
            drop(inner);
            self.write(addr, seg)
        }
    }

    /// Read a region.
    pub fn read_region(&self, r: MemRegion) -> Result<PayloadSeg, MemError> {
        self.read(r.addr, r.len)
    }

    /// Fill a region with a byte value.
    pub fn fill(&self, r: MemRegion, v: u8) -> Result<(), MemError> {
        self.inner.borrow().check(r.addr, r.len)?;
        self.for_each_span(r.addr, r.len, |chunk, start, n, _| {
            if chunk.overlaps_patch(start, start + n) {
                chunk.merge_patches();
            }
            chunk.data_mut()[start..start + n].fill(v);
        })
    }

    /// Total bytes allocated so far.
    pub fn allocated(&self) -> usize {
        (self.inner.borrow().next - GUEST_BASE) as usize
    }

    /// Copy-on-write copies this arena has made so far.
    pub fn cow_stats(&self) -> CowStats {
        let inner = self.inner.borrow();
        inner
            .chunks
            .iter()
            .fold(CowStats::default(), |t, c| t + c.copies)
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
        assert_eq!(&snap[..], b"immutable snapshot", "COW preserved the view");
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
        // Overlapping byte reads see the merged view.
        let merged = dst.read(dr.addr, 64).unwrap();
        assert_eq!(&merged[..8], &[0; 8]);
        assert_eq!(&merged[8..8 + sr.len], b"payload from the wire");
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
    fn repeated_same_range_installs_do_not_grow_patches() {
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
        let inner = dst.inner.borrow();
        assert!(
            inner.chunks[0].patches.len() <= 2,
            "windowed installs must replace, not accumulate: {}",
            inner.chunks[0].patches.len()
        );
        drop(inner);
        assert_eq!(&dst.read(dr.addr, 4).unwrap()[..], 199u32.to_le_bytes());
    }

    #[test]
    fn patch_merge_bound_is_enforced() {
        let src = GuestMem::new();
        let dst = GuestMem::new();
        let sr = src.alloc_from(&(0u8..32).collect::<Vec<_>>());
        let dr = dst.alloc(64, 0xFF);
        // 40 distinct single-byte installs force at least one merge.
        for i in 0..40usize {
            let seg = src.read(sr.addr + (i % 32) as u64, 1).unwrap();
            dst.install(dr.addr + (i % 64) as u64, &seg).unwrap();
        }
        assert!(dst.inner.borrow().chunks[0].patches.len() < MAX_PATCHES);
        for i in 0..40usize {
            let want = (i % 32) as u8;
            assert_eq!(dst.read(dr.addr + i as u64, 1).unwrap()[0], want);
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
        // A sub-range read inside the installed patch must not force a
        // merge (the patch list survives) and must see the right bytes.
        assert_eq!(&dst.read(dr.addr + 4, 3).unwrap()[..], b"HDR");
        assert_eq!(&dst.read(dr.addr + 8, 7).unwrap()[..], b"payload");
        assert_eq!(
            dst.inner.borrow().chunks[0].patches.len(),
            1,
            "peek reads must not merge the patch away"
        );
    }

    #[test]
    fn reinstall_of_unchanged_buffer_still_overwrites_overlap() {
        // Regression: re-sending an unmodified source buffer (retransmit,
        // constant payload) over a range that an overlapping install
        // touched in between must behave as a fresh write, not be
        // shadowed by the older overlapping patch.
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
    fn in_order_fragments_coalesce_into_one_patch() {
        let dst = GuestMem::new();
        let dr = dst.alloc(16 << 10, 0);
        let payload = PayloadSeg::from(pattern(10_000));
        for (off, frag) in fragments(&payload, 1024) {
            dst.install(dr.addr + 64 + off as u64, &frag).unwrap();
            assert_eq!(dst.inner.borrow().chunks[0].patches.len(), 1);
        }
        let landed = |k: usize| {
            let p = &dst.inner.borrow().chunks[0].patches[k];
            (p.offset, p.seg.len())
        };
        assert_eq!(landed(0), (64, 10_000));
        // The same offsets cut from another buffer continue nothing.
        let other = PayloadSeg::from(vec![9u8; 10_100]);
        dst.install(dr.addr + 10_064, &other.slice(10_000, 100))
            .unwrap();
        assert_eq!(landed(1), (10_064, 100));
        let got = dst.read(dr.addr + 64, 10_100).unwrap();
        assert_eq!(got, [&payload[..], &[9u8; 100][..]].concat());
    }

    #[test]
    fn whole_range_read_shares_the_senders_buffer() {
        let dst = GuestMem::new();
        let dr = dst.alloc(16 << 10, 0);
        let before = thread_cow_stats();
        let payload = PayloadSeg::from(pattern(10_000));
        for (off, frag) in fragments(&payload, 1024) {
            dst.install(dr.addr + off as u64, &frag).unwrap();
        }
        let got = dst.read(dr.addr, 10_000).unwrap();
        assert_eq!(got.as_ptr(), payload.as_ptr(), "no copy: the same bytes");
        assert_eq!(got, payload);
        assert_eq!(thread_cow_stats(), before, "no COW copy, no merge");
    }

    #[test]
    fn out_of_order_and_duplicate_fragments_read_back_exactly() {
        let payload = PayloadSeg::from(pattern(12_000));
        let frags = fragments(&payload, 1000);
        // Reversed, interleaved and repeated arrivals of one message.
        let orders: [Vec<usize>; 3] = [
            (0..12).rev().collect(),
            vec![0, 2, 1, 4, 3, 6, 5, 8, 7, 10, 9, 11],
            vec![0, 1, 1, 3, 2, 2, 5, 4, 0, 6, 7, 9, 8, 11, 10, 11],
        ];
        for order in orders {
            let dst = GuestMem::new();
            let dr = dst.alloc(12_000, 0xEE);
            for &i in &order {
                let (off, frag) = &frags[i];
                dst.install(dr.addr + *off as u64, frag).unwrap();
            }
            assert_eq!(dst.read_region(dr).unwrap(), payload, "order {order:?}");
            assert_eq!(dst.read(dr.addr + 999, 2).unwrap(), payload.slice(999, 2));
        }
    }

    #[test]
    fn fully_covered_patch_is_dropped() {
        let dst = GuestMem::new();
        let dr = dst.alloc(256, 0);
        let small = PayloadSeg::from(vec![1u8; 16]);
        dst.install(dr.addr + 32, &small).unwrap();
        assert_eq!(Rc::strong_count(&small.data), 2, "the patch pins it");
        let big = PayloadSeg::from(vec![2u8; 128]);
        dst.install(dr.addr, &big).unwrap();
        assert_eq!(dst.inner.borrow().chunks[0].patches.len(), 1);
        assert_eq!(Rc::strong_count(&small.data), 1, "dropped, not merged");
        assert_eq!(dst.cow_stats(), CowStats::default());
        assert_eq!(dst.read(dr.addr + 32, 16).unwrap(), vec![2u8; 16]);
    }

    #[test]
    fn older_patches_merge_once_they_pin_more_than_the_chunk() {
        let dst = GuestMem::new();
        let dr = dst.alloc(1000, 0);
        // Each install keeps 100 bytes of a 400-byte buffer: the third
        // leaves 800 pinned by older patches, the fourth 1200 > 1000.
        let bufs: Vec<PayloadSeg> = (0..4u8)
            .map(|i| PayloadSeg::from(vec![i + 1; 400]))
            .collect();
        for (i, buf) in bufs.iter().enumerate() {
            dst.install(dr.addr + 100 * i as u64, &buf.slice(0, 100))
                .unwrap();
        }
        let merged = CowStats {
            merges: 1,
            merge_bytes: 300,
            ..CowStats::default()
        };
        assert_eq!(dst.cow_stats(), merged);
        assert_eq!(dst.inner.borrow().chunks[0].patches.len(), 1, "newest kept");
        let want = [[1u8; 100], [2; 100], [3; 100], [4; 100]].concat();
        assert_eq!(dst.read(dr.addr, 400).unwrap(), want);
    }

    #[test]
    fn cow_copies_one_slot_not_the_pool() {
        let m = GuestMem::new();
        let before = thread_cow_stats();
        let pool = m.alloc_slots(4, 8, 7);
        assert_eq!(pool.addr, GUEST_BASE);
        assert_eq!((pool.len, m.allocated()), (32, 32));
        // A segment pins slot 1: rewriting it copies that slot alone, and
        // rewriting the unpinned slot 2 copies nothing.
        let held = m.read(pool.addr + 8, 8).unwrap();
        m.write(pool.addr + 8, &[1; 8]).unwrap();
        m.write(pool.addr + 16, &[2; 8]).unwrap();
        let one = CowStats {
            copies: 1,
            bytes: 8,
            ..CowStats::default()
        };
        assert_eq!(m.cow_stats(), one);
        assert_eq!(held, vec![7; 8]);
        let want = [[7u8; 8], [1; 8], [2; 8], [7; 8]].concat();
        assert_eq!(m.read_region(pool).unwrap(), want);
        // One allocation of the pool's size copies all of it.
        let flat = m.alloc(32, 0);
        let _pin = m.read(flat.addr, 1).unwrap();
        m.write(flat.addr + 8, &[1]).unwrap();
        let total = CowStats {
            copies: 2,
            bytes: 8 + 32,
            ..CowStats::default()
        };
        assert_eq!(m.cow_stats(), total);
        let after = thread_cow_stats();
        let thread = (after.copies - before.copies, after.bytes - before.bytes);
        assert_eq!(thread, (total.copies, total.bytes));
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
