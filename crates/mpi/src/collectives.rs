//! Collective operations, built on tagged point-to-point.
//!
//! Algorithms are the textbook ones MPICH/Open MPI default to at these
//! scales: dissemination barrier, binomial broadcast, a family of
//! allreduce schedules selectable via [`AllreduceAlgo`] (recursive
//! doubling, binomial reduce+broadcast, bandwidth-optimal ring, and
//! Rabenseifner recursive halving-doubling), ring allgather, and
//! pairwise-exchange all-to-all.
//!
//! ## The allreduce size crossover
//!
//! Latency-bound schedules (recursive doubling, tree) move the whole
//! vector every round but finish in ⌈log₂ P⌉ steps; bandwidth-optimal
//! schedules (ring, halving-doubling) move only `2·(P−1)/P` of the vector
//! per rank but take more rounds (ring) or same rounds with scattered
//! reduction (halving-doubling). [`AllreduceAlgo::auto`] switches families
//! at [`AllreduceAlgo::CROSSOVER_ELEMS`] elements, mirroring the
//! MPICH-style short/long message cutover; [`Comm::allreduce`] uses it, so
//! small NPB-style reductions keep the exact schedule (and virtual-time
//! behavior) they had before the knob existed.

use cord_core::prelude::PayloadSeg;

use crate::rank::Comm;

/// Reduction operators over f64 vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
}

impl ReduceOp {
    /// Reduce the little-endian f64s in `wire` into `acc`, straight from
    /// the received bytes.
    fn apply(self, acc: &mut [f64], wire: &[u8]) {
        assert_eq!(acc.len() * 8, wire.len());
        let theirs = decode(wire);
        match self {
            ReduceOp::Sum => acc.iter_mut().zip(theirs).for_each(|(a, b)| *a += b),
            ReduceOp::Max => acc.iter_mut().zip(theirs).for_each(|(a, b)| *a = a.max(b)),
            ReduceOp::Min => acc.iter_mut().zip(theirs).for_each(|(a, b)| *a = a.min(b)),
        }
    }
}

/// Which schedule [`Comm::allreduce_algo`] runs.
///
/// Exposed rather than hidden behind a heuristic so collective-shaped
/// workloads can pin a schedule and compare fabrics on identical traffic;
/// [`AllreduceAlgo::auto`] is the documented default selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllreduceAlgo {
    /// Mask-doubling pairwise exchange of the whole vector: ⌈log₂ P⌉
    /// rounds, `S` bytes per rank per round. Latency-optimal for short
    /// vectors; requires a power-of-two rank count (falls back to
    /// [`AllreduceAlgo::Tree`] otherwise).
    RecursiveDoubling,
    /// Binomial reduce to rank 0 followed by binomial broadcast. Works for
    /// any rank count; root links carry the whole vector every round.
    Tree,
    /// Ring reduce-scatter + ring allgather: `2·(P−1)` steps of `S/P`
    /// bytes. Bandwidth-optimal (each rank moves `2·S·(P−1)/P` bytes
    /// total) for any rank count; the schedule NCCL-class libraries run
    /// for large tensors.
    Ring,
    /// Rabenseifner recursive halving (reduce-scatter) + recursive
    /// doubling (allgather): `2·log₂ P` steps moving geometrically
    /// shrinking halves, same `2·S·(P−1)/P` bytes per rank as the ring in
    /// half the steps. Power-of-two rank counts only (falls back to
    /// [`AllreduceAlgo::Tree`] otherwise).
    HalvingDoubling,
}

impl AllreduceAlgo {
    /// The short/long vector crossover used by [`AllreduceAlgo::auto`],
    /// in f64 elements (4096 elements = 32 KiB).
    ///
    /// Below it the latency-bound schedules win (fewer rounds beat less
    /// traffic); at or above it the bandwidth-optimal schedules win. The
    /// value is deliberately above every reduction the NPB kernels issue
    /// (≤ 1024 elements), so the auto path is byte-identical to the
    /// pre-[`AllreduceAlgo`] behavior for all existing callers.
    pub const CROSSOVER_ELEMS: usize = 4096;

    /// MPICH-style default selection: latency-bound schedules below
    /// [`Self::CROSSOVER_ELEMS`] (recursive doubling on power-of-two rank
    /// counts, tree otherwise), bandwidth-optimal schedules at or above it
    /// (halving-doubling on power-of-two counts, ring otherwise).
    pub fn auto(nranks: usize, elems: usize) -> AllreduceAlgo {
        let pow2 = nranks.is_power_of_two();
        if elems < Self::CROSSOVER_ELEMS {
            if pow2 {
                AllreduceAlgo::RecursiveDoubling
            } else {
                AllreduceAlgo::Tree
            }
        } else if pow2 {
            AllreduceAlgo::HalvingDoubling
        } else {
            AllreduceAlgo::Ring
        }
    }
}

impl std::fmt::Display for AllreduceAlgo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AllreduceAlgo::RecursiveDoubling => "recursive-doubling",
            AllreduceAlgo::Tree => "tree",
            AllreduceAlgo::Ring => "ring",
            AllreduceAlgo::HalvingDoubling => "halving-doubling",
        })
    }
}

/// Encode f64s as the little-endian bytes a send hands over.
fn encode(v: &[f64]) -> Vec<u8> {
    let mut out = vec![0u8; v.len() * 8];
    for (b, x) in out.chunks_exact_mut(8).zip(v) {
        b.copy_from_slice(&x.to_le_bytes());
    }
    out
}

/// The f64s in little-endian `wire` bytes, decoded as they are read.
fn decode(wire: &[u8]) -> impl Iterator<Item = f64> + '_ {
    wire.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
}

/// Overwrite `dst` with the f64s in `wire`.
fn decode_into(dst: &mut [f64], wire: &[u8]) {
    assert_eq!(dst.len() * 8, wire.len());
    dst.iter_mut().zip(decode(wire)).for_each(|(d, x)| *d = x);
}

/// Per-element reduction CPU cost, ns (one FLOP + load/store each).
const REDUCE_NS_PER_ELEM: f64 = 0.6;

/// Collective tags live in a reserved namespace above user tags.
const TAG_BASE: u32 = 0xC011_0000;

impl Comm {
    /// Dissemination barrier: ⌈log2 P⌉ rounds.
    pub async fn barrier(&self, epoch: u32) -> () {
        let p = self.size();
        let r = self.rank();
        let mut k = 1usize;
        let mut round = 0u32;
        while k < p {
            let dst = (r + k) % p;
            let src = (r + p - k % p) % p;
            let tag = TAG_BASE.wrapping_add(0x100 + epoch.wrapping_mul(64) + round);
            self.sendrecv(dst, tag, Vec::new(), src, tag).await;
            k <<= 1;
            round += 1;
        }
    }

    /// Binomial-tree broadcast from `root`. Every rank returns the data.
    pub async fn bcast(&self, root: usize, epoch: u32, data: Option<&[u8]>) -> PayloadSeg {
        let p = self.size();
        let vr = (self.rank() + p - root) % p; // virtual rank, root = 0
        let tag = TAG_BASE.wrapping_add(0x200).wrapping_add(epoch);
        let mut buf: Option<PayloadSeg> = data.map(PayloadSeg::copy_from_slice);
        if vr == 0 {
            assert!(buf.is_some(), "root must supply data");
        }
        // Receive from the parent.
        if vr != 0 {
            let mut mask = 1usize;
            while mask < p {
                if vr & mask != 0 {
                    let parent = (vr - mask + root) % p;
                    buf = Some(self.recv(parent, tag).await);
                    break;
                }
                mask <<= 1;
            }
        }
        // Forward to children.
        let data = buf.expect("received or root");
        let mut mask = 1usize;
        while mask < p {
            if vr & mask != 0 {
                break;
            }
            mask <<= 1;
        }
        let mut child_mask = mask >> 1;
        let mut sends = Vec::new();
        while child_mask > 0 {
            let child_vr = vr + child_mask;
            if child_vr < p {
                let child = (child_vr + root) % p;
                sends.push(self.isend(child, tag, data.to_vec()));
            }
            child_mask >>= 1;
        }
        for s in sends {
            s.await;
        }
        data
    }

    /// Allreduce over f64 vectors with the [`AllreduceAlgo::auto`]
    /// schedule for this rank count and vector length.
    pub async fn allreduce(&self, epoch: u32, vals: &[f64], op: ReduceOp) -> Vec<f64> {
        let algo = AllreduceAlgo::auto(self.size(), vals.len());
        self.allreduce_algo(algo, epoch, vals, op).await
    }

    /// Allreduce over f64 vectors with an explicit schedule.
    ///
    /// Schedules that require a power-of-two rank count
    /// ([`AllreduceAlgo::RecursiveDoubling`],
    /// [`AllreduceAlgo::HalvingDoubling`]) fall back to
    /// [`AllreduceAlgo::Tree`] on other counts rather than panicking, so a
    /// scenario can pin an algorithm without pinning the world size.
    ///
    /// ```
    /// use cord_core::prelude::*;
    /// use cord_mpi::{create_world, AllreduceAlgo, MpiTransport, ReduceOp};
    ///
    /// let fabric = Fabric::builder(system_l()).seed(1).build();
    /// let f2 = fabric.clone();
    /// fabric.block_on(async move {
    ///     let comms = create_world(&f2, 2, MpiTransport::Verbs(Dataplane::Bypass)).await;
    ///     let mut ranks = Vec::new();
    ///     for c in comms {
    ///         ranks.push(f2.spawn(async move {
    ///             let mine = [c.rank() as f64, 1.0];
    ///             let out = c
    ///                 .allreduce_algo(AllreduceAlgo::Ring, 0, &mine, ReduceOp::Sum)
    ///                 .await;
    ///             assert_eq!(out, vec![1.0, 2.0]);
    ///         }));
    ///     }
    ///     for r in ranks {
    ///         r.await;
    ///     }
    /// });
    /// ```
    pub async fn allreduce_algo(
        &self,
        algo: AllreduceAlgo,
        epoch: u32,
        vals: &[f64],
        op: ReduceOp,
    ) -> Vec<f64> {
        let pow2 = self.size().is_power_of_two();
        match algo {
            AllreduceAlgo::RecursiveDoubling if pow2 => self.allreduce_rd(epoch, vals, op).await,
            AllreduceAlgo::HalvingDoubling if pow2 => self.allreduce_hd(epoch, vals, op).await,
            AllreduceAlgo::Ring => self.allreduce_ring(epoch, vals, op).await,
            _ => self.allreduce_tree(epoch, vals, op).await,
        }
    }

    /// Binomial reduce to rank 0 + internal broadcast.
    async fn allreduce_tree(&self, epoch: u32, vals: &[f64], op: ReduceOp) -> Vec<f64> {
        let reduced = self.reduce(0, epoch, vals, op).await;
        // Internal bcast epoch lives in its own namespace so it cannot
        // collide with a user bcast of the same epoch.
        let wire = self
            .bcast(
                0,
                0x4000 + epoch,
                reduced.as_ref().map(|v| encode(v)).as_deref(),
            )
            .await;
        reduced.unwrap_or_else(|| {
            let mut out = vec![0.0; vals.len()];
            decode_into(&mut out, &wire);
            out
        })
    }

    async fn allreduce_rd(&self, epoch: u32, vals: &[f64], op: ReduceOp) -> Vec<f64> {
        let p = self.size();
        let r = self.rank();
        let mut acc = vals.to_vec();
        let mut mask = 1usize;
        let mut round = 0u32;
        while mask < p {
            let partner = r ^ mask;
            let tag = TAG_BASE.wrapping_add(0x300 + epoch.wrapping_mul(64) + round);
            let theirs = self
                .sendrecv(partner, tag, encode(&acc), partner, tag)
                .await;
            // Reduction compute cost.
            self.compute_ns(REDUCE_NS_PER_ELEM * acc.len() as f64).await;
            op.apply(&mut acc, &theirs);
            mask <<= 1;
            round += 1;
        }
        acc
    }

    /// Ring allreduce: reduce-scatter then allgather around the ring.
    ///
    /// Element range of chunk `c` is `[c·n/P, (c+1)·n/P)` (uneven lengths
    /// allowed). Reduce-scatter step `s`: send chunk `(r − s) mod P`
    /// right, receive and reduce chunk `(r − s − 1) mod P` from the left;
    /// after `P − 1` steps rank `r` owns fully reduced chunk
    /// `(r + 1) mod P`, which the allgather half then walks around the
    /// ring.
    async fn allreduce_ring(&self, epoch: u32, vals: &[f64], op: ReduceOp) -> Vec<f64> {
        let p = self.size();
        let r = self.rank();
        if p == 1 {
            return vals.to_vec();
        }
        let n = vals.len();
        let bounds = |c: usize| (c * n / p, (c + 1) * n / p);
        let mut acc = vals.to_vec();
        let right = (r + 1) % p;
        let left = (r + p - 1) % p;
        let tag_for =
            |step: usize| TAG_BASE.wrapping_add(0x700 + epoch.wrapping_mul(0x100) + step as u32);
        // Reduce-scatter half.
        for s in 0..p - 1 {
            let (slo, shi) = bounds((r + p - s) % p);
            let (rlo, rhi) = bounds((r + p - s - 1) % p);
            let tag = tag_for(s);
            let theirs = self
                .sendrecv(right, tag, encode(&acc[slo..shi]), left, tag)
                .await;
            self.compute_ns(REDUCE_NS_PER_ELEM * (rhi - rlo) as f64)
                .await;
            op.apply(&mut acc[rlo..rhi], &theirs);
        }
        // Allgather half: rank r starts it owning reduced chunk (r+1) mod P.
        for s in 0..p - 1 {
            let (slo, shi) = bounds((r + 1 + p - s) % p);
            let (rlo, rhi) = bounds((r + p - s) % p);
            let tag = tag_for(p - 1 + s);
            let theirs = self
                .sendrecv(right, tag, encode(&acc[slo..shi]), left, tag)
                .await;
            decode_into(&mut acc[rlo..rhi], &theirs);
        }
        acc
    }

    /// Rabenseifner allreduce: recursive vector halving with distance
    /// doubling (reduce-scatter), then the mirrored recursive doubling
    /// (allgather), unwinding the recorded halving steps in reverse.
    /// Power-of-two rank counts only (the caller guarantees it).
    async fn allreduce_hd(&self, epoch: u32, vals: &[f64], op: ReduceOp) -> Vec<f64> {
        let p = self.size();
        debug_assert!(p.is_power_of_two());
        let r = self.rank();
        let mut acc = vals.to_vec();
        let (mut lo, mut hi) = (0usize, acc.len());
        // (parent_lo, parent_hi, partner) per halving step, for the unwind.
        let mut steps: Vec<(usize, usize, usize)> = Vec::new();
        let tag_for = |round: u32| TAG_BASE.wrapping_add(0x800 + epoch.wrapping_mul(0x40) + round);
        let mut mask = 1usize;
        let mut round = 0u32;
        while mask < p {
            let partner = r ^ mask;
            let mid = lo + (hi - lo) / 2;
            steps.push((lo, hi, partner));
            // The lower-ranked partner keeps the lower half; both send the
            // complement (the partner's keep range) and reduce into theirs.
            let (keep, send) = if r & mask == 0 {
                ((lo, mid), (mid, hi))
            } else {
                ((mid, hi), (lo, mid))
            };
            let tag = tag_for(round);
            let theirs = self
                .sendrecv(partner, tag, encode(&acc[send.0..send.1]), partner, tag)
                .await;
            self.compute_ns(REDUCE_NS_PER_ELEM * (keep.1 - keep.0) as f64)
                .await;
            op.apply(&mut acc[keep.0..keep.1], &theirs);
            lo = keep.0;
            hi = keep.1;
            mask <<= 1;
            round += 1;
        }
        // Allgather by exchanging owned blocks, widest distance last.
        for (plo, phi, partner) in steps.into_iter().rev() {
            let tag = tag_for(round);
            let theirs = self
                .sendrecv(partner, tag, encode(&acc[lo..hi]), partner, tag)
                .await;
            // The partner owns the complementary half of the parent range.
            if lo == plo {
                decode_into(&mut acc[hi..phi], &theirs);
            } else {
                decode_into(&mut acc[plo..lo], &theirs);
            }
            lo = plo;
            hi = phi;
            round += 1;
        }
        acc
    }

    /// Binomial-tree reduce to `root`; only the root gets `Some`.
    pub async fn reduce(
        &self,
        root: usize,
        epoch: u32,
        vals: &[f64],
        op: ReduceOp,
    ) -> Option<Vec<f64>> {
        let p = self.size();
        let vr = (self.rank() + p - root) % p;
        let tag = TAG_BASE.wrapping_add(0x400).wrapping_add(epoch);
        let mut acc = vals.to_vec();
        let mut mask = 1usize;
        while mask < p {
            if vr & mask != 0 {
                let parent = (vr - mask + root) % p;
                self.send_vec(parent, tag, encode(&acc)).await;
                return None;
            }
            let child_vr = vr + mask;
            if child_vr < p {
                let child = (child_vr + root) % p;
                let theirs = self.recv(child, tag).await;
                self.compute_ns(REDUCE_NS_PER_ELEM * acc.len() as f64).await;
                op.apply(&mut acc, &theirs);
            }
            mask <<= 1;
        }
        Some(acc)
    }

    /// Ring allgather: every rank contributes `mine`, all get all chunks.
    pub async fn allgather(&self, epoch: u32, mine: &[u8]) -> Vec<PayloadSeg> {
        let p = self.size();
        let r = self.rank();
        let tag = TAG_BASE.wrapping_add(0x500).wrapping_add(epoch);
        let mut chunks: Vec<Option<PayloadSeg>> = vec![None; p];
        chunks[r] = Some(PayloadSeg::copy_from_slice(mine));
        let right = (r + 1) % p;
        let left = (r + p - 1) % p;
        let mut cursor = r;
        for _ in 0..p - 1 {
            let outgoing = chunks[cursor].as_ref().expect("have current chunk");
            let incoming = self
                .sendrecv(right, tag, outgoing.to_vec(), left, tag)
                .await;
            cursor = (cursor + p - 1) % p;
            chunks[cursor] = Some(incoming);
        }
        chunks
            .into_iter()
            .map(|c| c.expect("ring complete"))
            .collect()
    }

    /// Pairwise-exchange all-to-all with per-destination payloads.
    /// `sends[d]` goes to rank `d` (each send takes its buffer over);
    /// returns what every rank sent to us.
    pub async fn alltoallv(&self, epoch: u32, mut sends: Vec<Vec<u8>>) -> Vec<PayloadSeg> {
        let p = self.size();
        let r = self.rank();
        assert_eq!(sends.len(), p);
        let tag = TAG_BASE.wrapping_add(0x600).wrapping_add(epoch);
        let mut recvs: Vec<Option<PayloadSeg>> = vec![None; p];
        recvs[r] = Some(PayloadSeg::from(std::mem::take(&mut sends[r])));
        for step in 1..p {
            // Pairwise: talk to (r + step) while receiving from (r - step).
            let dst = (r + step) % p;
            let src = (r + p - step) % p;
            let got = self
                .sendrecv(
                    dst,
                    tag.wrapping_add(step as u32),
                    std::mem::take(&mut sends[dst]),
                    src,
                    tag.wrapping_add(step as u32),
                )
                .await;
            recvs[src] = Some(got);
        }
        recvs
            .into_iter()
            .map(|c| c.expect("exchange complete"))
            .collect()
    }
}
