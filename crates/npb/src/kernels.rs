//! The eight NPB communication skeletons.
//!
//! Every kernel is an async function executed by each rank. Compute phases
//! are virtual-time delays derived from the class's problem size divided
//! across ranks; communication uses the real `cord-mpi` protocols, so the
//! transport under test (RDMA / CoRD / IPoIB) shapes the runtime exactly
//! the way Fig. 6 measures.
//!
//! Scale note: problem sizes are the NPB class tables divided by 4 (and
//! compute constants calibrated to keep each kernel's communication
//! fraction in its published range); this keeps a full Fig. 6 campaign
//! tractable in simulation while preserving byte/message *ratios*.

use cord_mpi::{Comm, ReduceOp};

use crate::model::{grid_2d, Class};

fn payload(len: usize) -> Vec<u8> {
    vec![0x5A; len]
}

/// IS — integer bucket sort. Per iteration: local histogram, allreduce of
/// bucket counts, all-to-all key exchange, local ranking.
pub async fn is_iter(comm: &Comm, class: Class, iter: usize) {
    let keys_total: usize = match class {
        Class::S => 1 << 15,
        Class::A => 1 << 24,
        Class::B => 1 << 26,
    };
    let p = comm.size();
    let my_keys = keys_total / p;
    // Histogram pass (~random-access bound).
    comm.compute_ns(my_keys as f64 * 4.0).await;
    // Bucket-count allreduce (1024 buckets).
    let buckets = vec![1.0f64; 256];
    comm.allreduce(iter as u32 * 4, &buckets, ReduceOp::Sum)
        .await;
    // Key exchange: uniformly distributed keys → keys*4/P bytes per dest.
    let per_dest = (my_keys * 4 / p).max(16);
    let sends: Vec<Vec<u8>> = (0..p).map(|_| payload(per_dest)).collect();
    comm.alltoallv(iter as u32, sends).await;
    // Local ranking of received keys.
    comm.compute_ns(my_keys as f64 * 8.0).await;
}

/// EP — embarrassingly parallel Gaussian-pair generation; communication is
/// three tiny allreduces per (chunked) iteration.
pub async fn ep_iter(comm: &Comm, class: Class, iter: usize) {
    let samples: usize = match class {
        Class::S => 1 << 18,
        Class::A => 1 << 26,
        Class::B => 1 << 28,
    };
    let p = comm.size();
    comm.compute_ns((samples / p) as f64 * 3.0).await;
    let sums = vec![0.5f64; 10];
    comm.allreduce(iter as u32 * 4, &sums, ReduceOp::Sum).await;
}

/// MG — V-cycle multigrid: halo exchanges at every level (message sizes
/// shrink geometrically), one residual allreduce per iteration.
pub async fn mg_iter(comm: &Comm, class: Class, iter: usize) {
    let n: usize = match class {
        Class::S => 32,
        Class::A => 128,
        Class::B => 192,
    };
    let p = comm.size();
    let levels = n.trailing_zeros().max(3) as usize;
    // Smoothing + residual compute across the cycle (~2 sweeps of n^3/P).
    comm.compute_ns((n * n * n / p) as f64 * 7.0).await;
    let r = comm.rank();
    for lvl in 0..levels {
        let dim = (n >> lvl).max(4);
        // Face area per rank at this level (2D surface of the subdomain).
        let face = ((dim * dim * 8) as f64 / (p as f64).powf(2.0 / 3.0)) as usize;
        let face = face.clamp(64, 1 << 20);
        // Two neighbor exchanges per level (alternating dimension).
        for (d, shift) in [(0usize, 1usize), (1, p / 2)].into_iter() {
            let partner = match d {
                0 => r ^ shift,
                _ => (r + shift) % p,
            };
            if partner == r || partner >= p {
                continue;
            }
            let tag = (iter * 64 + lvl * 2 + d) as u32;
            comm.sendrecv(partner, tag, payload(face), partner, tag)
                .await;
        }
        // Level-local smoothing.
        comm.compute_ns((dim * dim * dim / p).max(1) as f64 * 3.0)
            .await;
    }
    comm.allreduce(iter as u32 * 4 + 3, &[0.0f64; 4], ReduceOp::Sum)
        .await;
}

/// FT — 3D FFT: local FFT passes + a global transpose (all-to-all of the
/// full grid) per iteration.
pub async fn ft_iter(comm: &Comm, class: Class, iter: usize) {
    let elems: usize = match class {
        Class::S => 1 << 14,
        Class::A => 1 << 21, // 256×128×64 scaled
        Class::B => 1 << 23,
    };
    let p = comm.size();
    // Local 1-D FFT passes: ~5 N log N flops.
    let n_local = elems / p;
    comm.compute_ns(n_local as f64 * (elems as f64).log2() * 2.0)
        .await;
    // Transpose: each pair exchanges elems×16/P² bytes (complex doubles).
    let per_dest = (elems * 16 / (p * p)).max(64);
    let sends: Vec<Vec<u8>> = (0..p).map(|_| payload(per_dest)).collect();
    comm.alltoallv(iter as u32, sends).await;
    comm.compute_ns(n_local as f64 * (elems as f64).log2() * 1.0)
        .await;
}

/// LU — SSOR wavefront: pipelined small messages to the 2D-grid neighbors
/// at every pipeline stage (the message-intensive kernel).
pub async fn lu_iter(comm: &Comm, class: Class, iter: usize) {
    let n: usize = match class {
        Class::S => 12,
        Class::A => 64,
        Class::B => 102,
    };
    let p = comm.size();
    let (rows, cols) = grid_2d(p);
    let r = comm.rank();
    let (my_row, my_col) = (r / cols, r % cols);
    // Pencil exchange size: 5 doubles per boundary cell of the subdomain.
    let msg = ((n / rows.max(1)).max(2) * 5 * 8 * 4).max(160);
    let stages = 16usize; // pipeline depth per sweep (scaled from nz)
    for sweep in 0..2usize {
        for stage in 0..stages {
            let tag = (iter * 1024 + sweep * 512 + stage * 8) as u32;
            // Receive from north/west (lower sweep) or south/east (upper).
            let (dr, dc): (isize, isize) = if sweep == 0 { (-1, -1) } else { (1, 1) };
            let north = my_row.checked_add_signed(dr).filter(|&x| x < rows);
            let west = my_col.checked_add_signed(dc).filter(|&x| x < cols);
            if let Some(nr) = north {
                let src = nr * cols + my_col;
                comm.recv(src, tag).await;
            }
            if let Some(wc) = west {
                let src = my_row * cols + wc;
                comm.recv(src, tag + 1).await;
            }
            // Local relaxation for this stage.
            comm.compute_ns((n * n * n / p / stages).max(1) as f64 * 65.0)
                .await;
            let south = my_row.checked_add_signed(-dr).filter(|&x| x < rows);
            let east = my_col.checked_add_signed(-dc).filter(|&x| x < cols);
            let mut sends = Vec::new();
            if let Some(sr) = south {
                let dst = sr * cols + my_col;
                sends.push(comm.isend(dst, tag, payload(msg)));
            }
            if let Some(ec) = east {
                let dst = my_row * cols + ec;
                sends.push(comm.isend(dst, tag + 1, payload(msg)));
            }
            for s in sends {
                s.await;
            }
        }
    }
    comm.allreduce(iter as u32, &[0.0f64; 5], ReduceOp::Max)
        .await;
}

/// CG — conjugate gradient: per inner step a sparse matvec, one large
/// row-segment exchange, and tiny dot-product allreduces ("few large
/// messages", §5).
pub async fn cg_iter(comm: &Comm, class: Class, iter: usize) {
    let n: usize = match class {
        Class::S => 1400,
        Class::A => 14_000,
        Class::B => 75_000,
    };
    let nz_per_row = 50usize;
    let p = comm.size();
    let (rows, _cols) = grid_2d(p);
    let r = comm.rank();
    let inner_steps = 4usize; // scaled from NPB's 25
    for step in 0..inner_steps {
        // Sparse matvec over the local block.
        comm.compute_ns((n * nz_per_row / p) as f64 * 25.0).await;
        // Row-group vector exchange: segment of the iterate (large).
        let seg = (n * 8 / rows.max(1)).max(1024);
        // Symmetric exchange partner: XOR pairing for powers of two,
        // half-shift pairing otherwise (partner(partner(r)) == r always).
        let partner = if p.is_power_of_two() {
            r ^ (1 << (step % p.trailing_zeros() as usize))
        } else {
            let half = p / 2;
            if r < half * 2 {
                (r + half) % (half * 2)
            } else {
                r
            }
        };
        if partner != r && partner < p {
            let tag = (iter * 64 + step * 2) as u32;
            comm.sendrecv(partner, tag, payload(seg), partner, tag)
                .await;
        }
        // Dot product.
        comm.allreduce(iter as u32 * 64 + step as u32 * 4, &[1.0], ReduceOp::Sum)
            .await;
    }
}

/// BT — block-tridiagonal ADI: per iteration, face exchanges with both
/// neighbors in each of three dimensions, with a solve between.
pub async fn bt_iter(comm: &Comm, class: Class, iter: usize) {
    adi_iter(comm, class, iter, 5, 3.2, 45.0).await;
}

/// SP — scalar-pentadiagonal ADI: same structure as BT but lighter compute
/// per cell and (relatively) more communication — the second
/// "simultaneously data- and message-intensive" kernel (§5).
pub async fn sp_iter(comm: &Comm, class: Class, iter: usize) {
    adi_iter(comm, class, iter, 9, 3.4, 21.0).await;
}

async fn adi_iter(
    comm: &Comm,
    class: Class,
    iter: usize,
    comps: usize,
    face_scale: f64,
    flop_ns: f64,
) {
    let n: usize = match class {
        Class::S => 12,
        Class::A => 64,
        Class::B => 102,
    };
    let p = comm.size();
    let (rows, cols) = grid_2d(p);
    let r = comm.rank();
    let (my_row, my_col) = (r / cols, r % cols);
    for dim in 0..3usize {
        // Face exchange with both neighbors along this sweep direction.
        let face = (((n * n * comps * 8) as f64 / (rows * cols) as f64) * face_scale) as usize;
        let face = face.max(256);
        let (fwd, bwd) = match dim % 2 {
            0 => {
                let f = ((my_row + 1) % rows) * cols + my_col;
                let b = ((my_row + rows - 1) % rows) * cols + my_col;
                (f, b)
            }
            _ => {
                let f = my_row * cols + (my_col + 1) % cols;
                let b = my_row * cols + (my_col + cols - 1) % cols;
                (f, b)
            }
        };
        let tag = (iter * 64 + dim * 8) as u32;
        if fwd != r {
            comm.sendrecv(fwd, tag, payload(face), bwd, tag).await;
            comm.sendrecv(bwd, tag + 1, payload(face), fwd, tag + 1)
                .await;
        }
        // Sweep solve.
        comm.compute_ns((n * n * n / p) as f64 * flop_ns).await;
    }
}
