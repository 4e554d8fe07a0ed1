//! The RPC workloads, `kv-rpc` and `incast-lossy`, and the closed-loop
//! client both run.
//!
//! Connections and servers are the program's own (`rpc::establish`,
//! `rpc::serve`); the client is the benchmark's, so the request clock is
//! too. Each connection runs one closed loop: post the response buffer,
//! think, issue, wait for the response CQE, check it.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use cord_core::Fabric;
use cord_hw::{system_l, GuestMem, MemRegion, PayloadSeg};
use cord_net::{NetConfig, Topology};
use cord_nic::{CqeStatus, RecvWqe, RetxConfig, SendWqe, Sge, WrId};
use cord_sim::{RngFactory, SimDuration, SimTime};
use cord_verbs::Dataplane;
use cord_workload::rpc::{establish, serve, Connection, Endpoint};
use cord_workload::{scenarios, Arrival, SizeDist, TenantSpec};

use crate::layers::{self, add, PeerMap, RING_CAP};
use crate::spans::{self, call, Tracer};
use crate::stats::{quantile, Stopwatch};
use crate::{Mode, Pass, Workload};

/// Fabric size of both RPC workloads.
const NODES: usize = 16;
/// Requests per `kv-rpc` tenant (32 tenants) and per `incast-lossy` sender
/// (16 senders): over 1000 RPCs a pass, so at least ten lie beyond the p99.
const KV_REQUESTS: usize = 3000;
const INCAST_REQUESTS: usize = 1200;

/// One connection's inputs, drawn from the seed before any timing.
struct ConnPlan {
    tenant: usize,
    server: usize,
    dataplane: Dataplane,
    req_len: usize,
    resp_size: SizeDist,
    /// Think time before each request.
    think: Vec<SimDuration>,
    /// The response length the server will choose for each request: the
    /// server draws from a stream identical to the one drawn here.
    resp_len: Vec<usize>,
    /// Index of the seed stream handed to the server, aligned with
    /// `resp_len`.
    server_stream: u64,
    /// The server's compute per request, ns.
    service_ns: f64,
}

/// A closed-loop RPC workload over `rpc::establish` / `rpc::serve`.
pub struct RpcWorkload {
    net: NetConfig,
    retx: Option<RetxConfig>,
    seed: u64,
    inputs: RngFactory,
    tenants: Vec<TenantSpec>,
    conns: Vec<Rc<ConnPlan>>,
}

impl RpcWorkload {
    /// `kv-rpc`: `scenarios::kv_fanout`'s layout at 32 tenants on a 16-node
    /// full mesh (24 CoRD, 8 bypass), 64 B GETs to 4 shards each, 256 B
    /// responses with 5 % at 8 KiB, and a 2 µs mean exponential think time.
    pub fn kv_rpc(seed: u64) -> RpcWorkload {
        let scale = scenarios::Scale {
            nodes: NODES,
            tenants: 32,
            requests: KV_REQUESTS,
            seed,
            ..scenarios::Scale::default()
        };
        let spec = scenarios::kv_fanout(scale);
        RpcWorkload::new(
            NetConfig::for_topology(spec.topology),
            None,
            seed,
            spec.tenants,
        )
    }

    /// `incast-lossy`: 16 senders each keeping one 32 KiB request in flight
    /// to node 0, closed loop with a seeded think time, on a radix-8 fat
    /// tree with 256 KiB port buffers, PFC off, and RC go-back-N over ECMP.
    pub fn incast_lossy(seed: u64) -> RpcWorkload {
        let tenants = (0..16)
            .map(|i| {
                let mut t = TenantSpec::new(format!("in{i:02}"), 1 + i % (NODES - 1), vec![0]);
                // Every 4th sender bypasses the kernel, as in the builtins.
                t.dataplane = if i % 4 == 3 {
                    Dataplane::Bypass
                } else {
                    Dataplane::Cord
                };
                t.arrival = Arrival::Closed {
                    think: SimDuration::from_us(INCAST_THINK_US),
                };
                t.req_size = SizeDist::Fixed(32 * 1024);
                t.resp_size = SizeDist::Fixed(16);
                t.requests = INCAST_REQUESTS;
                t.service_ns = 100.0;
                t
            })
            .collect();
        let mut net = NetConfig::for_topology(Topology::fat_tree_for(NODES));
        net.buffer_bytes = 256 << 10;
        RpcWorkload::new(net, Some(RetxConfig::default()), seed, tenants)
    }

    fn new(
        net: NetConfig,
        retx: Option<RetxConfig>,
        seed: u64,
        tenants: Vec<TenantSpec>,
    ) -> RpcWorkload {
        let inputs = RngFactory::new(seed);
        // Shards differ in cost: each server node's compute is drawn once,
        // within ±25 % of the tenant's (`kv_fanout` fixes it). Without the
        // spread an uncontended RPC's latency, and so the p50, is the same
        // for every seed. Drawn per node, not per connection, so CoRD and
        // bypass tenants that fan out over the same nodes see the same costs.
        let spread: Vec<f64> = (0..NODES)
            .map(|node| 0.75 + 0.5 * inputs.stream_indexed("service", node as u64).uniform())
            .collect();
        let mut conns = Vec::new();
        for (ti, t) in tenants.iter().enumerate() {
            let Arrival::Closed { think } = t.arrival else {
                panic!("{}: the benchmark client runs closed loops only", t.name);
            };
            let nconn = t.servers.len();
            for (k, &server) in t.servers.iter().enumerate() {
                let idx = conns.len() as u64;
                let n = t.requests / nconn + usize::from(k < t.requests % nconn);
                let think_rng = inputs.stream_indexed("think", idx);
                let resp_rng = inputs.stream_indexed("resp", idx);
                conns.push(Rc::new(ConnPlan {
                    tenant: ti,
                    server,
                    dataplane: t.dataplane,
                    req_len: t.req_size.max(),
                    resp_size: t.resp_size,
                    think: (0..n)
                        .map(|_| {
                            let s = think_rng.exponential(think.as_secs_f64());
                            SimDuration::from_ns_f64(s * 1e9)
                        })
                        .collect(),
                    resp_len: (0..n).map(|_| t.resp_size.sample(&resp_rng)).collect(),
                    server_stream: idx,
                    service_ns: t.service_ns * spread[server],
                }));
            }
        }
        RpcWorkload {
            net,
            retx,
            seed,
            inputs,
            tenants,
            conns,
        }
    }
}

/// Mean think time of `incast-lossy`, µs. The downlink to node 0 stays
/// saturated either way; the think time sets how many requests wait out a
/// retransmit timeout (≈ 620 µs). At 10 µs that is ≈ 0.4 % of requests,
/// while ≈ 4 % take a go-back-N replay (≈ 230 µs), so the p99 sits inside
/// the replay mode. At 2 µs the timeout share is ≈ 1 %, and the p99 jumps
/// between 257 and 623 µs from seed to seed.
const INCAST_THINK_US: u64 = 10;

/// What the clients of one pass observed.
#[derive(Default)]
struct Tally {
    /// RPC latency (issue → response CQE), µs, per dataplane.
    lat_cord: Vec<f64>,
    lat_bypass: Vec<f64>,
    attempted: u64,
    failed: u64,
    payload_bytes: u64,
    last_done: SimTime,
    /// Virtual ns across `post_send` and across a send-CQ poll, summed, with
    /// call counts, per dataplane (index 0 CoRD, 1 bypass).
    post_ns: [(f64, u64); 2],
    poll_ns: [(f64, u64); 2],
}

impl Workload for RpcWorkload {
    fn pass(&self, mode: Mode) -> Pass {
        let mut pass = Pass::default();
        let mut machine = system_l();
        machine.nodes = NODES;
        let t = Instant::now();
        let mut builder = Fabric::builder(machine).seed(self.seed).net(self.net);
        if mode == Mode::Traced {
            builder = builder.trace(RING_CAP);
        }
        let fabric = builder.build();
        pass.build_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let f = fabric.clone();
        let tenants = self.tenants.clone();
        let targets: Vec<(usize, usize)> =
            self.conns.iter().map(|c| (c.tenant, c.server)).collect();
        let retx = self.retx;
        let conns: Vec<Connection> = fabric.block_on(async move {
            let mut out = Vec::with_capacity(targets.len());
            for (ti, server) in targets {
                let c = establish(&f, &tenants[ti], server).await;
                if let Some(cfg) = retx {
                    for ep in [&c.client, &c.server] {
                        f.nic(ep.qp.node())
                            .set_rc_retx(ep.qp.qpn(), Some(cfg))
                            .expect("fresh QP accepts retransmission");
                    }
                }
                out.push(c);
            }
            out
        });
        pass.connect_s = t.elapsed().as_secs_f64();
        if mode == Mode::SetupOnly {
            return pass;
        }

        let mut peers = PeerMap::new();
        for c in &conns {
            layers::pair(
                &mut peers,
                (c.client.qp.node(), c.client.qp.qpn().0),
                (c.server.qp.node(), c.server.qp.qpn().0),
            );
        }
        let tracer = (mode == Mode::Traced).then(|| {
            let t = Tracer::new();
            t.attach(fabric.sim());
            t
        });
        let tally = Rc::new(RefCell::new(Tally::default()));
        let inputs = self.inputs.clone();
        let plans = self.conns.clone();
        let before = fabric.sim().stats();
        let clock = Stopwatch::start();
        let f = fabric.clone();
        let tally2 = Rc::clone(&tally);
        let tr = tracer.clone();
        let t0 = fabric.block_on(async move {
            let sim = f.sim().clone();
            let t0 = sim.now();
            let mut clients = Vec::with_capacity(conns.len());
            for (i, (conn, plan)) in conns.into_iter().zip(plans).enumerate() {
                let srng = inputs.stream_indexed("resp", plan.server_stream);
                let expect = conn
                    .server
                    .ctx
                    .mem()
                    .read(conn.server.tx.addr, conn.server.tx.len)
                    .expect("server payload buffer is mapped");
                let server = serve(
                    conn.server,
                    conn.transport,
                    plan.resp_size,
                    plan.service_ns,
                    srng,
                );
                spans::spawn(&sim, tr.as_ref(), "rpc.server", i as u64, server);
                let job = Client {
                    ep: conn.client,
                    plan,
                    expect,
                    conn: i as u64,
                };
                let fut = client(job, Rc::clone(&tally2), tr.clone());
                clients.push(spans::spawn(&sim, tr.as_ref(), "rpc.client", i as u64, fut));
            }
            for c in clients {
                c.await;
            }
            t0
        });
        (pass.wall_s, pass.cpu_s) = clock.read();

        let mut tally = tally.take();
        pass.attempted = tally.attempted;
        pass.failed = tally.failed;
        let runtime = tally.last_done.since(t0);
        let mut all: Vec<f64> = tally
            .lat_cord
            .iter()
            .chain(&tally.lat_bypass)
            .copied()
            .collect();
        eprintln!(
            "perfbench: {} RPC latency samples ({} CoRD, {} bypass)",
            all.len(),
            tally.lat_cord.len(),
            tally.lat_bypass.len()
        );
        let v = &mut pass.virt;
        add(v, "virt_p50_us", quantile(&mut all, 0.5));
        add(v, "virt_p99_us", quantile(&mut all, 0.99));
        add(
            v,
            "virt_goodput_gbps",
            tally.payload_bytes as f64 * 8.0 / runtime.as_secs_f64() / 1e9,
        );
        add(v, "virt_runtime_ms", runtime.as_us_f64() / 1e3);

        let c = &mut pass.counters;
        layers::add_counters(c, &fabric, &before);
        add(
            c,
            "cord_rel",
            quantile(&mut tally.lat_cord, 0.5) / quantile(&mut tally.lat_bypass, 0.5),
        );
        for (i, plane) in ["cord", "bypass"].iter().enumerate() {
            let mean = |(sum, n): (f64, u64)| if n == 0 { 0.0 } else { sum / n as f64 };
            add(c, &format!("kern.post_ns.{plane}"), mean(tally.post_ns[i]));
            add(c, &format!("kern.poll_ns.{plane}"), mean(tally.poll_ns[i]));
        }
        if let Some(tr) = tracer {
            pass.ring.add_ring(&fabric, &peers);
            pass.spans = tr.finish();
        }
        pass
    }
}

/// One client connection's job.
struct Client {
    ep: Endpoint,
    plan: Rc<ConnPlan>,
    /// The server's payload buffer: every response must carry its bytes.
    expect: PayloadSeg,
    conn: u64,
}

async fn client(job: Client, tally: Rc<RefCell<Tally>>, tracer: Option<Rc<Tracer>>) {
    let Client {
        ep,
        plan,
        expect,
        conn,
    } = job;
    let tr = tracer.as_ref();
    let sim = ep.ctx.core().sim().clone();
    let mem = ep.ctx.mem().clone();
    let cord = plan.dataplane == Dataplane::Cord;
    let plane = usize::from(!cord);
    let rx = Sge {
        addr: ep.rx.addr,
        len: ep.rx.len,
        lkey: ep.rx_mr.lkey,
    };
    let tx = Sge {
        addr: ep.tx.addr,
        len: plan.req_len,
        lkey: ep.tx_mr.lkey,
    };
    let n = plan.think.len();
    tally.borrow_mut().attempted += n as u64;
    let (mut sends_posted, mut sends_done) = (0u64, 0u64);
    let mut send_failures = 0u64;
    for seq in 0..n {
        let req = (conn << 32) | seq as u64;
        let wr = WrId(seq as u64);
        let posted = call(
            tr,
            "verbs.post_recv",
            req,
            ep.qp.post_recv(RecvWqe::new(wr, rx)),
        )
        .await;
        sim.sleep(plan.think[seq]).await;
        // The request clock starts at issue and stops at the response CQE.
        // `cord_workload::rpc::drive_client` keeps its own clock, which
        // stamps a closed loop's next arrival before reaping the previous
        // response and reaps an open loop only when its window is full, so
        // latencies are taken here instead.
        let issued = sim.now();
        let sent = call(
            tr,
            "verbs.post_send",
            req,
            ep.qp.post_send(SendWqe::send(wr, tx)),
        )
        .await;
        let post_ns = sim.now().since(issued).as_ns_f64();
        if posted.is_err() || sent.is_err() {
            // A QP that refuses posts is dead: this request and the rest fail.
            tally.borrow_mut().failed += (n - seq) as u64;
            break;
        }
        sends_posted += 1;
        let cqe = call(tr, "verbs.wait_recv", req, ep.qp.recv_cq().wait_one()).await;
        let done = sim.now();
        let resp_len = plan.resp_len[seq];
        let ok = cqe.status == CqeStatus::Success
            && cqe.wr_id == wr
            && cqe.byte_len == resp_len
            && payload_matches(&mem, ep.rx, &expect[..resp_len]);
        let polled = sim.now();
        let reaped = call(tr, "verbs.poll_send", req, ep.qp.send_cq().poll(4)).await;
        let poll_ns = sim.now().since(polled).as_ns_f64();
        for c in reaped {
            send_failures +=
                u64::from(c.status != CqeStatus::Success || c.wr_id != WrId(sends_done));
            sends_done += 1;
        }
        let mut t = tally.borrow_mut();
        t.post_ns[plane].0 += post_ns;
        t.post_ns[plane].1 += 1;
        t.poll_ns[plane].0 += poll_ns;
        t.poll_ns[plane].1 += 1;
        if ok {
            let lat = done.since(issued).as_us_f64();
            if cord {
                t.lat_cord.push(lat);
            } else {
                t.lat_bypass.push(lat);
            }
            t.payload_bytes += (plan.req_len + resp_len) as u64;
            t.last_done = t.last_done.max(done);
        } else {
            t.failed += 1;
        }
    }
    // Every posted send completes exactly once, in order, successfully.
    while sends_done < sends_posted && send_failures == 0 {
        let req = (conn << 32) | sends_done;
        let c = call(tr, "verbs.wait_send", req, ep.qp.send_cq().wait_one()).await;
        send_failures += u64::from(c.status != CqeStatus::Success || c.wr_id != WrId(sends_done));
        sends_done += 1;
    }
    let stray = !ep.qp.recv_cq().is_empty() || !ep.qp.send_cq().is_empty();
    tally.borrow_mut().failed += send_failures + u64::from(stray);
}

/// Whether the response landed in `rx` with the server's bytes. The
/// landing bytes are then scrubbed, so the next response must rewrite them.
fn payload_matches(mem: &GuestMem, rx: MemRegion, expect: &[u8]) -> bool {
    let len = expect.len();
    let landed = mem.read(rx.addr, len).is_ok_and(|got| got[..] == *expect);
    landed && mem.fill(rx.slice(0, len), 0).is_ok()
}
