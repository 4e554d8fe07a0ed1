//! The `npb-fig6` workload: NPB IS and SP over bypass, CoRD and IPoIB on
//! system A, the runs behind the paper's Fig. 6 ratios.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use cord_core::Fabric;
use cord_hw::system_a;
use cord_mpi::{create_world, Comm, MpiTransport};
use cord_npb::{run_iter, Bench, Class};
use cord_verbs::Dataplane;

use crate::layers::{self, add, RING_CAP};
use crate::spans::{self, call, Tracer};
use crate::stats::{geomean, quantile, Stopwatch};
use crate::{Mode, Pass, Workload};

/// The kernels run, with ranks and timed iterations. IS is the paper's
/// worst IPoIB case; SP the second "data- and message-intensive" kernel.
const KERNELS: [(Bench, usize, usize); 2] = [(Bench::Is, 8, 1), (Bench::Sp, 4, 4)];

/// The three legs of each kernel; bypass first, as the ratios' base.
const TRANSPORTS: [MpiTransport; 3] = [
    MpiTransport::Verbs(Dataplane::Bypass),
    MpiTransport::Verbs(Dataplane::Cord),
    MpiTransport::Ipoib,
];

/// CoRD ÷ bypass must stay inside this band on every kernel, and IPoIB ÷
/// bypass above the floor on IS: the bands `crates/npb/tests/npb.rs` holds.
const CORD_BAND: (f64, f64) = (0.95, 1.12);
const IS_IPOIB_FLOOR: f64 = 1.25;

pub struct NpbFig6 {
    seed: u64,
}

impl NpbFig6 {
    pub fn new(seed: u64) -> NpbFig6 {
        NpbFig6 { seed }
    }
}

/// What one leg (kernel × transport) observed.
#[derive(Default)]
struct Leg {
    build_s: f64,
    connect_s: f64,
    wall_s: f64,
    cpu_s: f64,
    /// Timed-region runtime (slowest rank), µs of virtual time.
    runtime_us: f64,
    /// Per-rank, per-iteration `run_iter` time, µs.
    iter_us: Vec<f64>,
    bytes: u64,
    msgs: u64,
}

impl NpbFig6 {
    fn leg(
        &self,
        mode: Mode,
        (bench, ranks, iters): (Bench, usize, usize),
        transport: MpiTransport,
        tracer: Option<&Rc<Tracer>>,
        pass: &mut Pass,
    ) -> Leg {
        let mut leg = Leg::default();
        let t = Instant::now();
        let mut builder = Fabric::builder(system_a()).seed(self.seed);
        if transport == MpiTransport::Ipoib {
            builder = builder.with_ipoib();
        }
        if mode == Mode::Traced {
            builder = builder.trace(RING_CAP);
        }
        let fabric = builder.build();
        fabric.sim().set_max_polls(0);
        leg.build_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let f = fabric.clone();
        let comms = fabric.block_on(async move { create_world(&f, ranks, transport).await });
        leg.connect_s = t.elapsed().as_secs_f64();
        if mode == Mode::SetupOnly {
            return leg;
        }

        let mut peers = layers::world_peers(&comms);
        if fabric.has_ipoib() {
            let nodes = fabric.nodes();
            for a in 0..nodes {
                for b in (a + 1)..nodes {
                    let (qa, qb) = (fabric.ipoib(a).udqpn().0, fabric.ipoib(b).udqpn().0);
                    layers::pair(&mut peers, (a, qa), (b, qb));
                }
            }
        }
        if let Some(tr) = tracer {
            tr.attach(fabric.sim());
        }
        let out = Rc::new(RefCell::new(Leg::default()));
        let before = fabric.sim().stats();
        let clock = Stopwatch::start();
        let sim = fabric.sim().clone();
        let out2 = Rc::clone(&out);
        let tr = tracer.cloned();
        fabric.block_on(async move {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|comm| {
                    let rank = comm.rank() as u64;
                    let fut = rank_iters(comm, bench, iters, Rc::clone(&out2), tr.clone());
                    spans::spawn(&sim, tr.as_ref(), "npb.rank", rank, fut)
                })
                .collect();
            for h in handles {
                h.await;
            }
        });
        (leg.wall_s, leg.cpu_s) = clock.read();
        let got = out.take();
        leg.runtime_us = got.runtime_us;
        leg.iter_us = got.iter_us;
        leg.bytes = got.bytes;
        leg.msgs = got.msgs;

        layers::add_counters(&mut pass.counters, &fabric, &before);
        add(&mut pass.counters, "mpi.bytes", leg.bytes as f64);
        add(&mut pass.counters, "mpi.msgs", leg.msgs as f64);
        if tracer.is_some() {
            pass.ring.add_ring(&fabric, &peers);
        }
        leg
    }
}

/// One rank's timed region, as `cord_npb::run_benchmark` times it: a
/// barrier, the iterations, a barrier. There is no warm-up iteration, so an
/// IPoIB leg costs one iteration's host time per timed iteration.
async fn rank_iters(
    comm: Comm,
    bench: Bench,
    iters: usize,
    out: Rc<RefCell<Leg>>,
    tracer: Option<Rc<Tracer>>,
) {
    let tr = tracer.as_ref();
    let sim = comm.core().sim().clone();
    let rank = comm.rank() as u64;
    call(tr, "mpi.barrier", rank << 32, comm.barrier(9000)).await;
    let t0 = sim.now();
    let mut iter_us = Vec::with_capacity(iters);
    for it in 0..iters {
        let start = sim.now();
        let req = (rank << 32) | it as u64;
        call(
            tr,
            "npb.run_iter",
            req,
            run_iter(&comm, bench, Class::A, it),
        )
        .await;
        iter_us.push(sim.now().since(start).as_us_f64());
    }
    call(
        tr,
        "mpi.barrier",
        (rank << 32) | iters as u64,
        comm.barrier(9001),
    )
    .await;
    let elapsed = sim.now().since(t0).as_us_f64();
    let (bytes, msgs) = comm.traffic();
    let mut o = out.borrow_mut();
    o.runtime_us = o.runtime_us.max(elapsed);
    o.iter_us.extend(iter_us);
    o.bytes += bytes;
    o.msgs += msgs;
}

impl Workload for NpbFig6 {
    fn pass(&self, mode: Mode) -> Pass {
        let mut pass = Pass::default();
        let tracer = (mode == Mode::Traced).then(Tracer::new);
        let mut cord_rel = Vec::new();
        let mut ipoib_rel = Vec::new();
        let mut cord_iters = Vec::new();
        let (mut cord_runtime_us, mut cord_bytes) = (0.0, 0u64);
        let mut host_s = [0.0f64; 3];
        for kernel in KERNELS {
            let bench = kernel.0;
            let legs: Vec<Leg> = TRANSPORTS
                .iter()
                .map(|&t| self.leg(mode, kernel, t, tracer.as_ref(), &mut pass))
                .collect();
            for (i, leg) in legs.iter().enumerate() {
                pass.build_s += leg.build_s;
                pass.connect_s += leg.connect_s;
                pass.wall_s += leg.wall_s;
                pass.cpu_s += leg.cpu_s;
                host_s[i] += leg.wall_s;
            }
            if mode == Mode::SetupOnly {
                continue;
            }
            let [bypass, cord, ipoib] = &legs[..] else {
                unreachable!("three transports")
            };
            let (rc, ri) = (
                cord.runtime_us / bypass.runtime_us,
                ipoib.runtime_us / bypass.runtime_us,
            );
            let in_band = (CORD_BAND.0..=CORD_BAND.1).contains(&rc)
                && (bench != Bench::Is || ri > IS_IPOIB_FLOOR);
            if !in_band {
                eprintln!(
                    "perfbench: {} outside the Fig. 6 bands: CoRD/bypass {rc:.4}, IPoIB/bypass {ri:.4}",
                    bench.label()
                );
            }
            pass.failed += u64::from(!in_band);
            pass.attempted += legs.iter().map(|l| l.iter_us.len() as u64).sum::<u64>();
            cord_rel.push(rc);
            ipoib_rel.push(ri);
            cord_iters.extend_from_slice(&cord.iter_us);
            cord_runtime_us += cord.runtime_us;
            cord_bytes += cord.bytes;
        }
        if mode == Mode::SetupOnly {
            return pass;
        }
        eprintln!(
            "perfbench: {} NPB iteration samples on the CoRD legs",
            cord_iters.len()
        );
        let v = &mut pass.virt;
        add(v, "virt_p50_us", quantile(&mut cord_iters, 0.5));
        add(v, "virt_p99_us", quantile(&mut cord_iters, 0.99));
        add(
            v,
            "virt_goodput_gbps",
            cord_bytes as f64 * 8.0 / (cord_runtime_us * 1e-6) / 1e9,
        );
        add(v, "virt_runtime_ms", cord_runtime_us / 1e3);
        add(&mut pass.counters, "cord_rel", geomean(&cord_rel));
        add(&mut pass.counters, "ipoib_rel", geomean(&ipoib_rel));
        let h = &mut pass.host;
        for (i, name) in ["bypass", "cord", "ipoib"].iter().enumerate() {
            add(h, &format!("npb.host_s.{name}"), host_s[i]);
        }
        let tx = pass.counters.get("ipoib.tx_pkts").copied().unwrap_or(0.0);
        if tx > 0.0 {
            add(h, "ipoib.host_us_per_pkt", host_s[2] * 1e6 / tx);
        }
        if let Some(tr) = tracer {
            pass.spans = tr.finish();
        }
        pass
    }
}
