//! The `train-step` workload: an MPI world running training steps, each a
//! ring allreduce (the rendezvous path) and an MoE all-to-all of small
//! tokens (the eager path), on a fat tree with DCQCN, per-packet spray and
//! selective repeat.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use cord_core::Fabric;
use cord_hw::system_l;
use cord_mpi::{create_world, AllreduceAlgo, Comm, MpiTransport, ReduceOp};
use cord_net::{NetConfig, Routing, Topology};
use cord_nic::{CcAlgorithm, RetxConfig, RetxMode};
use cord_sim::{RngFactory, SimTime};
use cord_verbs::Dataplane;
use cord_workload::{expert_assignments, shuffle_payloads, token_payload};

use crate::layers::{self, add, RING_CAP};
use crate::spans::{self, call, Tracer};
use crate::stats::{quantile, Stopwatch};
use crate::{Mode, Pass, Workload};

/// Ranks, one per node.
const RANKS: usize = 16;
/// Training steps per pass: 16 ranks × 64 steps is 1024 step latencies, so
/// at least ten lie beyond the p99.
const STEPS: usize = 64;
/// f64 elements each rank contributes to the allreduce (512 KiB).
const ELEMS: usize = 64 * 1024;
/// MoE tokens per rank per step, and bytes per token.
const TOKENS: usize = 256;
const TOKEN_BYTES: usize = 1024;
/// Distinct allreduce inputs per rank, cycled over the steps.
const VARIANTS: usize = 4;
/// ECN marking threshold of the switch ports, bytes (DCQCN's K). Spray
/// keeps every queue here far below the 64 KiB default, so at the default
/// nothing is marked and DCQCN never reacts. At 8 KiB, about the p99 queue
/// depth and near the 5 KB K_min of the DCQCN paper, the collectives' bursts
/// are marked and DCQCN cuts rates some 4300 times a pass.
const ECN_THRESHOLD_BYTES: usize = 8 << 10;

/// Inputs of every step, drawn from the seed before any timing.
struct Inputs {
    /// `[variant][rank]` integer-valued allreduce contributions, so every
    /// summation order gives the exact sum.
    vals: Vec<Vec<Vec<f64>>>,
    /// `[variant]` the exact elementwise sums.
    sums: Vec<Vec<f64>>,
    /// `[step][rank]` the expert (destination rank) of each token.
    experts: Vec<Vec<Vec<usize>>>,
}

pub struct TrainStep {
    seed: u64,
    inputs: Rc<Inputs>,
}

impl TrainStep {
    pub fn new(seed: u64) -> TrainStep {
        let rng = RngFactory::new(seed);
        let vals: Vec<Vec<Vec<f64>>> = (0..VARIANTS)
            .map(|v| {
                (0..RANKS)
                    .map(|r| {
                        let s = rng.stream_indexed("allreduce", (v * RANKS + r) as u64);
                        (0..ELEMS)
                            .map(|_| s.uniform_range(0, 1 << 20) as f64)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let sums = vals
            .iter()
            .map(|ranks: &Vec<Vec<f64>>| {
                (0..ELEMS)
                    .map(|i| ranks.iter().map(|v| v[i]).sum())
                    .collect()
            })
            .collect();
        let experts = (0..STEPS)
            .map(|step| {
                (0..RANKS)
                    .map(|r| {
                        let s = rng.stream_indexed("experts", (step * RANKS + r) as u64);
                        expert_assignments(&s, RANKS, TOKENS)
                    })
                    .collect()
            })
            .collect();
        TrainStep {
            seed,
            inputs: Rc::new(Inputs {
                vals,
                sums,
                experts,
            }),
        }
    }
}

/// What the ranks observed.
#[derive(Default)]
struct Tally {
    /// Per-rank step latency, µs.
    steps: Vec<f64>,
    allreduce_us: Vec<f64>,
    alltoallv_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    last_done: SimTime,
    /// MPI payload bytes and messages the ranks sent (`Comm::traffic`).
    bytes: u64,
    msgs: u64,
}

/// Epoch of step `step`'s all-to-all. Ring allreduce tags use offsets below
/// 0x20 of each 0x100 block of its epoch; this puts the all-to-all's tags at
/// 0x40.. of the same block, so one world can run both back to back.
fn alltoallv_epoch(step: usize) -> u32 {
    0x140 + step as u32 * 0x100
}

async fn rank_steps(
    comm: Comm,
    inputs: Rc<Inputs>,
    tally: Rc<RefCell<Tally>>,
    tracer: Option<Rc<Tracer>>,
) {
    let tr = tracer.as_ref();
    let sim = comm.core().sim().clone();
    let (rank, size) = (comm.rank(), comm.size());
    for step in 0..STEPS {
        let req = ((rank as u64) << 32) | step as u64;
        let v = step % VARIANTS;
        let start = sim.now();
        let sum = call(
            tr,
            "mpi.allreduce",
            req,
            comm.allreduce_algo(
                AllreduceAlgo::Ring,
                step as u32,
                &inputs.vals[v][rank],
                ReduceOp::Sum,
            ),
        )
        .await;
        let reduced = sim.now();
        let experts = &inputs.experts[step];
        let sends = shuffle_payloads(rank, size, TOKEN_BYTES, &experts[rank]);
        let got = call(
            tr,
            "mpi.alltoallv",
            req,
            comm.alltoallv(alltoallv_epoch(step), sends),
        )
        .await;
        let done = sim.now();
        let ok = sum == inputs.sums[v] && tokens_arrived(rank, &got, experts);
        let mut t = tally.borrow_mut();
        t.attempted += 1;
        t.failed += u64::from(!ok);
        t.steps.push(done.since(start).as_us_f64());
        t.allreduce_us.push(reduced.since(start).as_us_f64());
        t.alltoallv_us.push(done.since(reduced).as_us_f64());
        t.last_done = t.last_done.max(done);
    }
    let (bytes, msgs) = comm.traffic();
    let mut t = tally.borrow_mut();
    t.bytes += bytes;
    t.msgs += msgs;
}

/// Whether `got[src]` holds exactly the tokens `src` assigned to `me`, in
/// token order, each matching its `token_payload`.
fn tokens_arrived(me: usize, got: &[impl AsRef<[u8]>], experts: &[Vec<usize>]) -> bool {
    got.len() == experts.len()
        && got
            .iter()
            .zip(experts)
            .enumerate()
            .all(|(src, (buf, assign))| {
                let buf = buf.as_ref();
                let mine: Vec<usize> = (0..assign.len()).filter(|&i| assign[i] == me).collect();
                buf.len() == mine.len() * TOKEN_BYTES
                    && buf
                        .chunks_exact(TOKEN_BYTES)
                        .zip(&mine)
                        .all(|(tok, &idx)| tok == token_payload(src, idx, TOKEN_BYTES).as_slice())
            })
}

impl Workload for TrainStep {
    fn pass(&self, mode: Mode) -> Pass {
        let mut pass = Pass::default();
        let mut machine = system_l();
        machine.nodes = RANKS;
        let mut net = NetConfig::for_topology(Topology::fat_tree_for(RANKS));
        net.routing = Routing::Spray;
        net.ecn.threshold_bytes = ECN_THRESHOLD_BYTES;
        let t = Instant::now();
        let mut builder = Fabric::builder(machine).seed(self.seed).net(net);
        if mode == Mode::Traced {
            builder = builder.trace(RING_CAP);
        }
        let fabric = builder.build();
        pass.build_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let f = fabric.clone();
        let comms: Vec<Comm> = fabric.block_on(async move {
            let comms = create_world(&f, RANKS, MpiTransport::Verbs(Dataplane::Cord)).await;
            let retx = RetxConfig {
                mode: RetxMode::Sr,
                ..RetxConfig::default()
            };
            for comm in &comms {
                for (node, qpn) in comm.endpoints() {
                    let nic = f.nic(node);
                    nic.set_cc(qpn, CcAlgorithm::Dcqcn).expect("fresh QP");
                    nic.set_rc_retx(qpn, Some(retx)).expect("fresh QP");
                }
            }
            comms
        });
        pass.connect_s = t.elapsed().as_secs_f64();
        if mode == Mode::SetupOnly {
            return pass;
        }

        let peers = layers::world_peers(&comms);
        let tracer = (mode == Mode::Traced).then(|| {
            let t = Tracer::new();
            t.attach(fabric.sim());
            t
        });
        let tally = Rc::new(RefCell::new(Tally::default()));
        let before = fabric.sim().stats();
        let clock = Stopwatch::start();
        let sim = fabric.sim().clone();
        let tally2 = Rc::clone(&tally);
        let inputs = Rc::clone(&self.inputs);
        let tr = tracer.clone();
        let t0 = fabric.block_on(async move {
            let t0 = sim.now();
            let ranks: Vec<_> = comms
                .into_iter()
                .map(|comm| {
                    let rank = comm.rank() as u64;
                    let fut = rank_steps(comm, Rc::clone(&inputs), Rc::clone(&tally2), tr.clone());
                    spans::spawn(&sim, tr.as_ref(), "mpi.rank", rank, fut)
                })
                .collect();
            for r in ranks {
                r.await;
            }
            t0
        });
        (pass.wall_s, pass.cpu_s) = clock.read();
        let mut tally = tally.take();
        pass.attempted = tally.attempted;
        pass.failed = tally.failed;
        let runtime_s = tally.last_done.since(t0).as_secs_f64();

        eprintln!(
            "perfbench: {} training-step latency samples",
            tally.steps.len()
        );
        let payload_bits = (tally.attempted * (ELEMS * 8 + TOKENS * TOKEN_BYTES) as u64 * 8) as f64;
        let v = &mut pass.virt;
        add(v, "virt_p50_us", quantile(&mut tally.steps, 0.5));
        add(v, "virt_p99_us", quantile(&mut tally.steps, 0.99));
        add(v, "virt_goodput_gbps", payload_bits / runtime_s / 1e9);
        add(v, "virt_runtime_ms", runtime_s * 1e3);
        let c = &mut pass.counters;
        layers::add_counters(c, &fabric, &before);
        add(c, "mpi.bytes", tally.bytes as f64);
        add(c, "mpi.msgs", tally.msgs as f64);
        add(
            c,
            "mpi.allreduce_p50_us",
            quantile(&mut tally.allreduce_us, 0.5),
        );
        add(
            c,
            "mpi.alltoallv_p50_us",
            quantile(&mut tally.alltoallv_us, 0.5),
        );
        if let Some(tr) = tracer {
            pass.ring.add_ring(&fabric, &peers);
            pass.spans = tr.finish();
        }
        pass
    }
}
