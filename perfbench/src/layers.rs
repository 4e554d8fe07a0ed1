//! Per-layer counters, read from outside the program: the public getters of
//! each layer after a run, and the lifecycle trace ring of a traced run.

use std::collections::{BTreeMap, HashMap, VecDeque};

use cord_core::Fabric;
use cord_mpi::Comm;
use cord_sim::{SimStats, Subsystem, TraceEvent, TraceKind};

/// Named metric values. Sorted, so two maps compare and print stably.
pub type Metrics = BTreeMap<String, f64>;

/// Add `v` to metric `name`, creating it at zero.
pub fn add(m: &mut Metrics, name: &str, v: f64) {
    *m.entry(name.to_string()).or_insert(0.0) += v;
}

/// Ring capacity of a traced fabric. The ring only grows as events arrive,
/// so a generous cap costs nothing unless used; a full ring means events
/// were evicted, which the run reports as a failed check.
pub const RING_CAP: usize = 1 << 26;

/// Add the layer counters of one fabric's run phase to `m`. `before` is the
/// executor snapshot taken when the run phase launched; every other counter
/// covers the fabric's lifetime, which set-up leaves at or near zero.
pub fn add_counters(m: &mut Metrics, fabric: &Fabric, before: &SimStats) {
    let after = fabric.sim().stats();
    let polls = after.polls - before.polls;
    let fires = after.timer_fires - before.timer_fires;
    add(m, "sim.events", (polls + fires) as f64);
    for (i, sub) in Subsystem::ALL.iter().enumerate() {
        let label = sub.label();
        let p = after.polls_by[i] - before.polls_by[i];
        let f = after.timer_fires_by[i] - before.timer_fires_by[i];
        add(m, &format!("sim.polls.{label}"), p as f64);
        add(m, &format!("sim.fires.{label}"), f as f64);
    }
    add(m, "sim.spawns", (after.spawns - before.spawns) as f64);
    add(
        m,
        "sim.timer_inserts",
        (after.timer_inserts - before.timer_inserts) as f64,
    );

    let net = fabric.nic(0).network();
    let frames: u64 = net.plan().map_or(0, |plan| {
        (0..plan.num_ports()).map(|p| net.port_forwarded(p)).sum()
    });
    add(m, "net.frames", frames as f64);
    add(m, "net.drops", net.total_drops() as f64);
    add(m, "net.ecn_marks", net.total_marks() as f64);
    add(m, "net.pause_ms", net.total_pause_time().as_us_f64() / 1e3);

    for node in 0..fabric.nodes() {
        let nic = fabric.nic(node);
        let (replays, exhausted) = nic.retx_stats();
        add(m, "nic.rx_packets", nic.rx_packets() as f64);
        add(m, "nic.retx_replays", replays as f64);
        add(m, "nic.retx_exhausted", exhausted as f64);
        let (posts, polls, denials) = fabric.kernel(node).counters();
        add(m, "kern.cord_posts", posts as f64);
        add(m, "kern.cord_polls", polls as f64);
        add(m, "kern.denials", denials as f64);
        let (tx, rx) = if fabric.has_ipoib() {
            fabric.ipoib(node).counters()
        } else {
            (0, 0)
        };
        add(m, "ipoib.tx_pkts", tx as f64);
        add(m, "ipoib.rx_pkts", rx as f64);
    }
}

/// Which sending QP feeds each receiving QP: `(rx node, rx qpn, src node)`
/// to the sender's QP number. Fragment receipts name only the receiving QP,
/// so the ring's wire latency needs this to pair a receipt with its send.
pub type PeerMap = HashMap<(u32, u32, u32), u32>;

/// Record that QP `(a_node, a_qpn)` and QP `(b_node, b_qpn)` talk to each
/// other (in both directions).
pub fn pair(peers: &mut PeerMap, a: (usize, u32), b: (usize, u32)) {
    let (an, bn) = (a.0 as u32, b.0 as u32);
    peers.insert((bn, b.1, an), a.1);
    peers.insert((an, a.1, bn), b.1);
}

/// Pair every rank's QP with the peer rank's QP back to it. `endpoints()`
/// lists a rank's QPs in peer-rank order, skipping itself.
pub fn world_peers(comms: &[Comm]) -> PeerMap {
    let eps: Vec<_> = comms.iter().map(Comm::endpoints).collect();
    let mut peers = PeerMap::new();
    for (r, mine) in eps.iter().enumerate() {
        for (i, &(node, qpn)) in mine.iter().enumerate() {
            let p = if i < r { i } else { i + 1 };
            let back = if r < p { r } else { r - 1 };
            if let Some(&(pnode, pqpn)) = eps.get(p).and_then(|e| e.get(back)) {
                pair(&mut peers, (node, qpn.0), (pnode, pqpn.0));
            }
        }
    }
    peers
}

/// Samples and counts drawn from lifecycle rings.
#[derive(Default)]
pub struct RingStats {
    /// Switch-port occupancy after each enqueue, bytes.
    pub queue_bytes: Vec<f64>,
    /// Fragment transmit to receipt, µs.
    pub wire_us: Vec<f64>,
    /// WQE accepted by the engine to its first fragment on the wire, µs.
    pub tx_us: Vec<f64>,
    /// Last fragment received to the completion on that QP, µs.
    pub rx_us: Vec<f64>,
    pub rate_cuts: u64,
    /// WQEs the NIC engines accepted.
    pub wqes: u64,
    /// Rings that filled up, so may have evicted events.
    pub full_rings: u64,
}

impl RingStats {
    /// Fold one fabric's ring into the samples.
    pub fn add_ring(&mut self, fabric: &Fabric, peers: &PeerMap) {
        let trace = fabric.trace();
        if trace.len() >= RING_CAP {
            self.full_rings += 1;
        }
        self.add_events(&trace.snapshot(), peers);
    }

    fn add_events(&mut self, events: &[TraceEvent], peers: &PeerMap) {
        // (src node, src qpn, msg_seq, frag) → last transmit instant.
        let mut in_flight: HashMap<(u32, u32, u32, u32), u64> = HashMap::new();
        // (node, qpn) → accepted WQEs awaiting their first fragment.
        let mut accepted: HashMap<(u32, u32), VecDeque<u64>> = HashMap::new();
        // (node, qpn) → next message sequence not yet seen on the wire.
        let mut next_seq: HashMap<(u32, u32), u32> = HashMap::new();
        // (node, qpn) → the latest fragment receipt not yet completed.
        let mut last_rx: HashMap<(u32, u32), u64> = HashMap::new();
        let us = |ps: u64| ps as f64 / 1e6;
        for e in events {
            let at = e.at.as_ps();
            match e.kind {
                TraceKind::WqeStart { node, qpn, .. } => {
                    self.wqes += 1;
                    accepted.entry((node, qpn)).or_default().push_back(at);
                }
                TraceKind::FragTx {
                    node,
                    qpn,
                    msg_seq,
                    frag,
                    ..
                } => {
                    in_flight.insert((node, qpn, msg_seq, frag), at);
                    let next = next_seq.entry((node, qpn)).or_insert(0);
                    if frag == 0 && msg_seq >= *next {
                        *next = msg_seq + 1;
                        if let Some(t) = accepted.get_mut(&(node, qpn)).and_then(|q| q.pop_front())
                        {
                            self.tx_us.push(us(at - t));
                        }
                    }
                }
                TraceKind::FragRx {
                    node,
                    qpn,
                    src,
                    msg_seq,
                    frag,
                    ..
                } => {
                    if let Some(&src_qpn) = peers.get(&(node, qpn, src)) {
                        if let Some(t) = in_flight.remove(&(src, src_qpn, msg_seq, frag)) {
                            self.wire_us.push(us(at - t));
                        }
                    }
                    last_rx.insert((node, qpn), at);
                }
                TraceKind::CqeDone { node, qpn, .. } => {
                    if let Some(t) = last_rx.remove(&(node, qpn)) {
                        self.rx_us.push(us(at - t));
                    }
                }
                TraceKind::PortEnqueue { queued_bytes, .. } => {
                    self.queue_bytes.push(f64::from(queued_bytes));
                }
                TraceKind::RateCut { .. } => self.rate_cuts += 1,
                _ => {}
            }
        }
    }
}
