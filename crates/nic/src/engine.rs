//! The NIC engine: TX scheduler, RX pipeline, and DMA orchestration.
//!
//! ## TX path
//! `post_send` validates and enqueues the WQE, then rings the doorbell
//! (a [`Notify`]). A single TX scheduler task round-robins across QPs with
//! pending work at *burst* granularity (up to [`TX_BURST`] fragments), so a
//! multi-megabyte message cannot head-of-line-block other QPs — matching how
//! ConnectX hardware interleaves QP schedules.
//!
//! The requester keeps one path per job. Every WQE, fresh from the SQ or
//! replayed from the retransmission window, starts the same way (bill the
//! per-WQE cost, validate local memory, then issue the read request or set
//! up segmentation). Every data fragment, a send or write fragment or a
//! read-response fragment, leaves through one launcher: its payload is
//! fetched by DMA ([`DmaEngine::enqueue`], FIFO, pipelined) and the frame
//! enters the fabric when the fetch completes. A window semaphore bounds
//! in-flight fragments so the scheduler paces at the bottleneck (DMA or
//! wire) rate instead of queueing unboundedly. Every work request that
//! ends in error leaves through one exit: one error completion, then an RC
//! QP flushes.
//!
//! ## RX path
//! A single RX task serializes per-packet processing, asks the QP's
//! receive window for a verdict on each request arrival (one handler per
//! request kind, whatever the retransmission mode), validates memory
//! access (MR table), lands payloads via DMA, and generates CQEs/ACKs *at
//! the DMA completion instant* — data is visible in memory before its
//! completion, the ordering RDMA applications rely on.

use std::cell::{Cell, RefCell, RefMut};
use std::collections::VecDeque;
use std::rc::Rc;

use cord_hw::link::Frame;
use cord_hw::{DmaDir, DmaEngine, GuestMem, MachineSpec, PayloadSeg};
use cord_net::Network;
use cord_sim::sync::{Notify, Receiver, Semaphore};
use cord_sim::{FifoResource, Sim, SimDuration, Subsystem, Trace, TraceKind};

use crate::cc::{CcAlgorithm, Dcqcn, CNP_MIN_INTERVAL};
use crate::cq::{Cq, Cqe, CqeOpcode, CqeStatus};
use crate::mr::MrTable;
use crate::packet::{NakReason, Packet, PacketKind};
use crate::qp::{
    Action, Frags, Kind, PendingAck, PendingRead, Qp, RecvAssembly, RetxConfig, RetxState,
    TxProgress,
};
use crate::types::{CqId, NodeId, Opcode, QpNum, QpState, Transport, VerbsError, WrId};
use crate::wqe::{RecvWqe, SendWqe};

/// Max fragments a QP may transmit before yielding to the round-robin ring.
pub const TX_BURST: u32 = 32;

/// Max in-flight (DMA-fetched but not yet on the wire) TX fragments.
pub const TX_WINDOW: usize = 64;

pub(crate) struct NicInner {
    sim: Sim,
    pub node: NodeId,
    pub spec: MachineSpec,
    fabric: Rc<Network<Packet>>,
    rx: RefCell<Option<Receiver<Frame<Packet>>>>,
    /// QP table indexed by QPN (QPNs are dense, starting at 1; index 0 is
    /// permanently vacant). A direct index beats a hash on the per-packet
    /// path.
    qps: RefCell<Vec<Option<Rc<RefCell<Qp>>>>>,
    next_qpn: Cell<u32>,
    next_cq: Cell<u32>,
    pub mrs: MrTable,
    pub dma: DmaEngine,
    tx_pipeline: FifoResource,
    rx_pipeline: FifoResource,
    tx_ring: RefCell<VecDeque<QpNum>>,
    tx_notify: Notify,
    tx_window: Semaphore,
    started: Cell<bool>,
    trace: Trace,
    /// Packets handled by the RX pipeline (diagnostics).
    rx_packets: Cell<u64>,
    /// Messages queued for go-back-N replay across all QPs (diagnostics).
    retx_replays: Cell<u64>,
    /// QPs errored out after exhausting their retransmit budget.
    retx_exhausted: Cell<u64>,
    /// Pipeline slowdown factor (chaos straggler injection): every per-WQE
    /// and per-packet processing cost is multiplied by this. 1.0 (the
    /// default) is bit-identical to an unscaled pipeline.
    slowdown: Cell<f64>,
}

/// A simulated RDMA NIC. Cheap to clone.
#[derive(Clone)]
pub struct Nic {
    inner: Rc<NicInner>,
}

impl Nic {
    pub fn new(
        sim: &Sim,
        spec: &MachineSpec,
        node: NodeId,
        fabric: Rc<Network<Packet>>,
        rx: Receiver<Frame<Packet>>,
        trace: Trace,
    ) -> Self {
        let nic = Nic {
            inner: Rc::new(NicInner {
                sim: sim.clone(),
                node,
                spec: spec.clone(),
                fabric,
                rx: RefCell::new(Some(rx)),
                qps: RefCell::new(vec![None]),
                next_qpn: Cell::new(0),
                next_cq: Cell::new(0),
                mrs: MrTable::new(),
                dma: DmaEngine::new(sim, spec.pcie.clone()),
                tx_pipeline: FifoResource::new(sim),
                rx_pipeline: FifoResource::new(sim),
                tx_ring: RefCell::new(VecDeque::new()),
                tx_notify: Notify::new(),
                tx_window: Semaphore::new(TX_WINDOW),
                started: Cell::new(false),
                trace,
                rx_packets: Cell::new(0),
                retx_replays: Cell::new(0),
                retx_exhausted: Cell::new(0),
                slowdown: Cell::new(1.0),
            }),
        };
        nic.start();
        nic
    }

    /// Spawn the TX and RX tasks (idempotent). Both carry the
    /// [`Subsystem::NicEngine`] tag, so their polls — and every timer they
    /// schedule (DMA completions, retransmit timers, pacing gates) — land
    /// in the NIC bucket of [`cord_sim::SimStats`].
    fn start(&self) {
        if self.inner.started.replace(true) {
            return;
        }
        let sim = self.inner.sim.clone();
        sim.with_tag(Subsystem::NicEngine, || {
            let tx_inner = Rc::clone(&self.inner);
            self.inner.sim.spawn(async move {
                tx_loop(tx_inner).await;
            });
            let rx_inner = Rc::clone(&self.inner);
            self.inner.sim.spawn(async move {
                rx_loop(rx_inner).await;
            });
        });
    }

    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    pub fn spec(&self) -> &MachineSpec {
        &self.inner.spec
    }

    pub fn mr_table(&self) -> &MrTable {
        &self.inner.mrs
    }

    pub fn rx_packets(&self) -> u64 {
        self.inner.rx_packets.get()
    }

    /// Create a completion queue.
    pub fn create_cq(&self, capacity: usize) -> Cq {
        let id = self.inner.next_cq.get();
        self.inner.next_cq.set(id + 1);
        Cq::new(CqId(id), capacity)
    }

    /// Create a queue pair in the RESET state.
    pub fn create_qp(&self, transport: Transport, send_cq: Cq, recv_cq: Cq) -> QpNum {
        let n = self.inner.next_qpn.get() + 1;
        self.inner.next_qpn.set(n);
        let qpn = QpNum(n);
        let qp = Qp::new(
            qpn,
            transport,
            send_cq,
            recv_cq,
            self.inner.spec.nic.sq_depth,
            self.inner.spec.nic.rq_depth,
            self.inner.spec.nic.max_rd_atomic,
        );
        let mut qps = self.inner.qps.borrow_mut();
        debug_assert_eq!(qps.len(), n as usize);
        qps.push(Some(Rc::new(RefCell::new(qp))));
        qpn
    }

    fn qp(&self, qpn: QpNum) -> Result<Rc<RefCell<Qp>>, VerbsError> {
        self.inner.qp_rc(qpn).ok_or(VerbsError::UnknownQp(qpn))
    }

    /// Full RESET→INIT→RTR→RTS transition (the common CM handshake result).
    pub fn connect(&self, qpn: QpNum, peer: Option<(NodeId, QpNum)>) -> Result<(), VerbsError> {
        let qp = self.qp(qpn)?;
        let mut qp = qp.borrow_mut();
        qp.to_init()?;
        qp.to_rtr(peer)?;
        qp.to_rts()
    }

    /// Individual state transitions (for tests of the state machine).
    pub fn modify_to_init(&self, qpn: QpNum) -> Result<(), VerbsError> {
        self.qp(qpn)?.borrow_mut().to_init()
    }

    pub fn modify_to_rtr(
        &self,
        qpn: QpNum,
        peer: Option<(NodeId, QpNum)>,
    ) -> Result<(), VerbsError> {
        self.qp(qpn)?.borrow_mut().to_rtr(peer)
    }

    pub fn modify_to_rts(&self, qpn: QpNum) -> Result<(), VerbsError> {
        self.qp(qpn)?.borrow_mut().to_rts()
    }

    pub fn qp_state(&self, qpn: QpNum) -> Result<QpState, VerbsError> {
        Ok(self.qp(qpn)?.borrow().state)
    }

    pub fn qp_transport(&self, qpn: QpNum) -> Result<Transport, VerbsError> {
        Ok(self.qp(qpn)?.borrow().transport)
    }

    /// Select the QP's congestion-control algorithm. For
    /// [`CcAlgorithm::Dcqcn`] this arms the sender-side rate limiter at
    /// line rate *and* enables receiver-side CNP echo for ECN-marked
    /// arrivals; [`CcAlgorithm::None`] restores the seed's uncontrolled
    /// behavior.
    ///
    /// DCQCN is an RC mechanism (as on real RoCE NICs): on a UD QP the
    /// knob is accepted but inert — UD receivers never echo CNPs, so UD
    /// traffic is never throttled.
    pub fn set_cc(&self, qpn: QpNum, alg: CcAlgorithm) -> Result<(), VerbsError> {
        let qp = self.qp(qpn)?;
        let mut qp = qp.borrow_mut();
        qp.dcqcn = match alg {
            CcAlgorithm::None => None,
            CcAlgorithm::Dcqcn => Some(Dcqcn::new(self.inner.spec.link.gbps, self.inner.sim.now())),
        };
        Ok(())
    }

    pub fn qp_cc(&self, qpn: QpNum) -> Result<CcAlgorithm, VerbsError> {
        Ok(self.qp(qpn)?.borrow().cc())
    }

    /// Arm (or disarm, with `None`) RC retransmission on a QP: an unacked
    /// window with a per-QP retransmit timer on the sender side, and a
    /// receive window with `cfg.mode` as its acceptance rule and one
    /// coalesced gap notice per episode on the receiver side. Disarming
    /// cancels both of the QP's timers. Like the DCQCN knob it must be set
    /// symmetrically on both ends of a connection before traffic flows,
    /// and like DCQCN it is accepted but inert on UD QPs (datagrams have no
    /// ACK protocol to retransmit from).
    pub fn set_rc_retx(&self, qpn: QpNum, cfg: Option<RetxConfig>) -> Result<(), VerbsError> {
        let qp = self.qp(qpn)?;
        let mut qp = qp.borrow_mut();
        if qp.transport != Transport::Rc {
            return Ok(());
        }
        // Arming after traffic has flowed cannot work: pre-arm messages
        // are outside the window and the fresh receive window
        // misaligns with the peer's message ids — a silent deadlock.
        // Reject it like any out-of-order `ibv_modify_qp`.
        if cfg.is_some()
            && (qp.next_msg_id > 1 || qp.rx_msgs > 0 || qp.tx.is_some() || !qp.recv_asm.is_empty())
        {
            return Err(VerbsError::InvalidState {
                expected: "no prior traffic (arm retransmission at connect)",
                actual: qp.state,
            });
        }
        if let Some(mut rx) = qp.retx.take() {
            rx.cancel_timers(&self.inner.sim);
        }
        qp.retx = cfg.map(RetxState::new);
        Ok(())
    }

    /// Whether RC retransmission is armed on a QP.
    pub fn qp_retx(&self, qpn: QpNum) -> Result<bool, VerbsError> {
        Ok(self.qp(qpn)?.borrow().retx.is_some())
    }

    /// `(messages queued for replay, QPs that exhausted their retry
    /// budget)` across this NIC's lifetime.
    pub fn retx_stats(&self) -> (u64, u64) {
        (
            self.inner.retx_replays.get(),
            self.inner.retx_exhausted.get(),
        )
    }

    /// Snapshot of a DCQCN QP's `(rate_gbps, cnps, cuts)` (diagnostics).
    pub fn dcqcn_snapshot(&self, qpn: QpNum) -> Result<Option<(f64, u64, u64)>, VerbsError> {
        Ok(self
            .qp(qpn)?
            .borrow()
            .dcqcn
            .as_ref()
            .map(|d| (d.rate_gbps, d.cnps, d.cuts)))
    }

    /// The network this NIC transmits through (topology + port stats).
    pub fn network(&self) -> Rc<Network<Packet>> {
        Rc::clone(&self.inner.fabric)
    }

    /// The shared trace sink this NIC (and the whole cluster it was built
    /// with) emits lifecycle events into.
    pub fn trace(&self) -> Trace {
        self.inner.trace.clone()
    }

    /// Scale every per-WQE and per-packet pipeline cost by `factor`
    /// (chaos straggler-NIC injection). `factor` ≥ 1 slows the NIC's
    /// processing pipelines without touching wire rates; 1.0 restores the
    /// healthy, bit-identical behavior. Takes effect on the next pipeline
    /// use — costs already in flight keep their original duration.
    pub fn set_slowdown(&self, factor: f64) {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "slowdown factor must be positive and finite"
        );
        self.inner.slowdown.set(factor);
    }

    /// (tx_msgs, rx_msgs, tx_bytes, rx_bytes) counters for a QP.
    pub fn qp_counters(&self, qpn: QpNum) -> Result<(u64, u64, u64, u64), VerbsError> {
        let qp = self.qp(qpn)?;
        let qp = qp.borrow();
        Ok((qp.tx_msgs, qp.rx_msgs, qp.tx_bytes, qp.rx_bytes))
    }

    /// Post a send work request and ring the doorbell. CPU-side costs
    /// (WQE build, MMIO write) are billed by the calling driver layer.
    pub fn post_send(
        &self,
        qpn: QpNum,
        mut wqe: SendWqe,
        inline_allowed: bool,
    ) -> Result<(), VerbsError> {
        let qp_rc = self.qp(qpn)?;
        {
            let mut qp = qp_rc.borrow_mut();
            // Capture inline payload at post time if the driver requested it
            // and the NIC supports it at this size.
            if inline_allowed
                && wqe.opcode == Opcode::Send
                && wqe.sge.len <= self.inner.spec.nic.inline_cap
            {
                if let Ok(mr) =
                    self.inner
                        .mrs
                        .check_local(wqe.sge.lkey, wqe.sge.addr, wqe.sge.len, false)
                {
                    if let Ok(data) = mr.mem.read(wqe.sge.addr, wqe.sge.len) {
                        wqe.inline_data = Some(data);
                    }
                }
            }
            let (wr_id, bytes) = (wqe.wr_id.0, wqe.sge.len as u32);
            qp.push_send(wqe, self.inner.spec.nic.mtu)?;
            self.inner.trace.emit(
                self.inner.sim.now(),
                TraceKind::WqeStart {
                    node: self.inner.node as u32,
                    qpn: qpn.0,
                    wr_id,
                    bytes,
                },
            );
        }
        self.ring(qpn);
        Ok(())
    }

    /// Post a receive work request.
    pub fn post_recv(&self, qpn: QpNum, wqe: RecvWqe) -> Result<(), VerbsError> {
        let qp_rc = self.qp(qpn)?;
        let result = qp_rc.borrow_mut().push_recv(wqe);
        result
    }

    /// Add a QP to the TX ring if it is not there already.
    fn ring(&self, qpn: QpNum) {
        ring_qp(&self.inner, qpn);
    }

    /// Test/diagnostic access to the raw QP (crate-internal).
    #[doc(hidden)]
    pub fn qp_handle(&self, qpn: QpNum) -> Option<Rc<RefCell<Qp>>> {
        self.inner.qp_rc(qpn)
    }
}

impl NicInner {
    #[inline]
    fn qp_rc(&self, qpn: QpNum) -> Option<Rc<RefCell<Qp>>> {
        self.qps.borrow().get(qpn.0 as usize)?.clone()
    }

    /// Pipeline occupancy for `ns` nanoseconds of nominal processing cost,
    /// scaled by the straggler slowdown factor.
    #[inline]
    fn pipe_cost(&self, ns: f64) -> SimDuration {
        SimDuration::from_ns_f64(ns * self.slowdown.get())
    }
}

fn ring_qp(inner: &Rc<NicInner>, qpn: QpNum) {
    let Some(qp_rc) = inner.qp_rc(qpn) else {
        return;
    };
    let mut qp = qp_rc.borrow_mut();
    if !qp.in_ring {
        qp.in_ring = true;
        inner.tx_ring.borrow_mut().push_back(qpn);
        inner.tx_notify.notify_one();
    }
}

fn transmit(inner: &Rc<NicInner>, pkt: Packet) {
    let wire = pkt.wire_bytes(inner.spec.nic.header_bytes);
    if inner.trace.is_enabled() {
        if let Some((msg_seq, frag)) = frag_info(&pkt.kind) {
            inner.trace.emit(
                inner.sim.now(),
                TraceKind::FragTx {
                    node: inner.node as u32,
                    qpn: pkt.src_qpn.0,
                    dst: pkt.dst_node as u32,
                    msg_seq,
                    frag,
                    bytes: wire as u32,
                },
            );
        }
    }
    inner.fabric.transmit(Frame {
        src: pkt.src_node,
        dst: pkt.dst_node,
        wire_bytes: wire,
        flow: flow_label(&pkt),
        ecn: false,
        payload: pkt,
    });
}

/// ECMP flow label: all of a QP pair's traffic in one direction shares a
/// label, so switched topologies keep it on one path (RC stays in order).
fn flow_label(pkt: &Packet) -> u64 {
    ((pkt.src_qpn.0 as u64) << 32) | pkt.dst_qpn.0 as u64
}

/// `(msg_seq, frag)` for data-bearing packet kinds; control packets
/// (ACK/NAK/CNP, read requests) carry no fragment lifecycle.
fn frag_info(k: &PacketKind) -> Option<(u32, u32)> {
    match k {
        PacketKind::SendFrag { msg_id, frag, .. }
        | PacketKind::WriteFrag { msg_id, frag, .. }
        | PacketKind::ReadResp { msg_id, frag, .. } => Some((*msg_id as u32, *frag)),
        _ => None,
    }
}

/// Size of a CQE on the wire to host memory.
const CQE_BYTES: usize = 64;

/// Deliver a CQE the way hardware does: a DMA write into the CQ ring. The
/// ToHost DMA FIFO both delays visibility by the transaction latency
/// (≈0.2 µs on the latency path) and keeps CQEs ordered after the payload
/// writes that precede them.
fn deliver_cqe(inner: &Rc<NicInner>, cq: &Cq, cqe: Cqe) {
    let at = inner.dma.enqueue(DmaDir::ToHost, CQE_BYTES);
    // Stamped with the DMA completion instant — when the CQE becomes
    // visible to software — not the enqueue instant.
    inner.trace.emit(
        at,
        TraceKind::CqeDone {
            node: inner.node as u32,
            qpn: cqe.qp.0,
            wr_id: cqe.wr_id.0,
        },
    );
    let cq = cq.clone();
    inner.sim.schedule_at(at, move |_| cq.push(cqe));
}

fn flush_qp(inner: &Rc<NicInner>, qp: &mut Qp) {
    // Tear down retransmission: cancel the pending timers and drop the
    // window — errored QPs never replay.
    if let Some(rx) = qp.retx.as_mut() {
        rx.cancel_timers(&inner.sim);
        rx.window.clear();
        rx.rtx.clear();
        rx.rtx_mask.clear();
    }
    let qpn = qp.num;
    let flush_cqe = |wr_id, opcode| Cqe::new(wr_id, CqeStatus::WrFlushErr, opcode, 0, qpn);
    // Outstanding (already transmitted, awaiting ACK/response) WQEs flush
    // too — IB errors out *every* posted WR, not just the still-queued
    // ones. Drained in message order: HashMap iteration order is not
    // deterministic and CQE order is observable.
    let mut acks: Vec<(u64, PendingAck)> = qp.pending_acks.drain().collect();
    acks.sort_by_key(|(m, _)| *m);
    let acked_msgs: Vec<u64> = acks.iter().map(|(m, _)| *m).collect();
    for (_, pa) in acks {
        if pa.signaled {
            qp.send_cq.push(flush_cqe(pa.wr_id, pa.opcode.into()));
        }
    }
    let mut reads: Vec<(u64, PendingRead)> = qp.pending_reads.drain().collect();
    reads.sort_by_key(|(m, _)| *m);
    for (_, pr) in reads {
        if pr.signaled {
            qp.send_cq.push(flush_cqe(pr.wr_id, CqeOpcode::RdmaRead));
        }
    }
    qp.outstanding_reads = 0;
    qp.stalled_rd = false;
    // The WQE mid-segmentation — unless it is a *replay* of a message
    // whose first pass already has a pending-ack entry drained above.
    if let Some(tx) = qp.tx.take() {
        if tx.wqe.signaled && !acked_msgs.contains(&tx.msg_id) {
            qp.send_cq
                .push(flush_cqe(tx.wqe.wr_id, tx.wqe.opcode.into()));
        }
    }
    // Receive WQEs bound to half-assembled inbound sends were popped from
    // the RQ; flush them, in message order, ahead of the rest of the RQ.
    for (_, asm) in std::mem::take(&mut qp.recv_asm) {
        qp.recv_cq.push(flush_cqe(asm.wqe.wr_id, CqeOpcode::Recv));
    }
    let (sq, rq) = qp.enter_error();
    for w in sq {
        if w.signaled {
            qp.send_cq.push(flush_cqe(w.wr_id, w.opcode.into()));
        }
    }
    for r in rq {
        qp.recv_cq.push(flush_cqe(r.wr_id, CqeOpcode::Recv));
    }
    inner.trace.emit(
        inner.sim.now(),
        TraceKind::QpFlush {
            node: inner.node as u32,
            qpn: qp.num.0,
        },
    );
}

/// The one requester exit for a work request that ends in error: drop
/// message `msg_id`'s pending ACK or read record, push one `status`
/// completion for its WR (`wr` names a WR that has no record yet), abandon
/// a mid-segmentation pass of it, and flush an RC QP. A message with
/// neither a record nor `wr` pushes nothing and leaves its pass for the
/// flush to complete.
fn fail_wr(
    inner: &Rc<NicInner>,
    qp: &mut Qp,
    msg_id: u64,
    wr: Option<(WrId, Opcode)>,
    status: CqeStatus,
) {
    let pending = match qp.pending_acks.remove(&msg_id) {
        Some(pa) => Some((pa.wr_id, pa.opcode)),
        None => qp.pending_reads.remove(&msg_id).map(|pr| {
            qp.outstanding_reads -= 1;
            (pr.wr_id, Opcode::RdmaRead)
        }),
    };
    if let Some((wr_id, opcode)) = pending.or(wr) {
        qp.send_cq
            .push(Cqe::new(wr_id, status, opcode.into(), 0, qp.num));
        if qp.tx.as_ref().is_some_and(|tx| tx.msg_id == msg_id) {
            qp.tx = None;
        }
    }
    if qp.transport == Transport::Rc {
        flush_qp(inner, qp);
    }
}

/// ===================== RC retransmission: sender =====================
///
/// The window holds every unacked WQE in message order; one timer per QP
/// covers the oldest unacked message and is re-armed (tombstone-cancel +
/// fresh wheel insert, no allocation) on every ACK. A timeout or gap
/// notice (SACK) queues every fully transmitted window entry for replay;
/// the TX scheduler starts the head of that queue ahead of the SQ head,
/// through the same start as a fresh WQE, reusing the original message id
/// so the receive window accepts the replay. Retry exhaustion ends the
/// oldest WR through the error exit (`RetryExcErr`), which flushes the QP.
/// Reset the QP's retransmit timer to `timeout` from now (cancelling any
/// pending one); disarms when the window is empty.
fn arm_retx_timer(inner: &Rc<NicInner>, qp: &mut Qp) {
    let qpn = qp.num;
    let Some(rx) = qp.retx.as_mut() else { return };
    if let Some(h) = rx.timer.take() {
        inner.sim.cancel_scheduled(h);
    }
    if rx.window.is_empty() {
        return;
    }
    let at = inner.sim.now() + rx.cfg.backoff(rx.retries);
    let inner2 = Rc::clone(inner);
    rx.timer = Some(
        inner
            .sim
            .schedule_cancellable_at(at, move |_| retx_timeout(&inner2, qpn)),
    );
}

/// A message finished its (first or replayed) pass to the fabric: mark
/// its window entry replayable and make sure a retransmit timer covers
/// the window.
fn mark_sent_and_arm(inner: &Rc<NicInner>, qp: &mut Qp, msg_id: u64) {
    let Some(rx) = qp.retx.as_mut() else { return };
    if let Some(e) = rx.window.iter_mut().find(|e| e.msg_id == msg_id) {
        e.sent = true;
    }
    if rx.timer.is_none() {
        arm_retx_timer(inner, qp);
    }
}

/// Retransmit timer fired: replay the window, or error out the QP once
/// the retry budget is exhausted.
fn retx_timeout(inner: &Rc<NicInner>, qpn: QpNum) {
    let Some(qp_rc) = inner.qp_rc(qpn) else {
        return;
    };
    let mut qp = qp_rc.borrow_mut();
    if qp.state != QpState::Rts {
        return;
    }
    let Some(rx) = qp.retx.as_mut() else { return };
    rx.timer = None;
    if rx.window.is_empty() {
        return;
    }
    if !rx.window.iter().any(|e| e.sent) {
        // Nothing fully transmitted yet — a large message still streaming
        // (e.g. paced to a deep DCQCN cut) is not a loss signal. Re-arm
        // without consuming retry budget.
        arm_retx_timer(inner, &mut qp);
        return;
    }
    rx.retries += 1;
    if rx.retries > rx.cfg.max_retries {
        // Retry exhausted: the oldest unacked WR ends in error and the QP
        // flushes (IB semantics for transport retry errors).
        let e = rx.window.front().expect("window checked non-empty");
        let (msg_id, wr) = (e.msg_id, (e.wqe.wr_id, e.wqe.opcode));
        inner.retx_exhausted.set(inner.retx_exhausted.get() + 1);
        inner.trace.emit(
            inner.sim.now(),
            TraceKind::RetxExhausted {
                node: inner.node as u32,
                qpn: qpn.0,
            },
        );
        fail_wr(inner, &mut qp, msg_id, Some(wr), CqeStatus::RetryExcErr);
        return;
    }
    let queued = rx.queue_replay();
    inner.retx_replays.set(inner.retx_replays.get() + queued);
    arm_retx_timer(inner, &mut qp);
    drop(qp);
    if queued > 0 {
        ring_qp(inner, qpn);
    }
}

/// Replay trigger from a gap notice or RNR backoff: replay from the
/// responder's first missing message (`from`) — older window entries were
/// delivered and their ACKs are merely in flight, so replaying them would
/// waste bottleneck bandwidth on duplicates. NAK-triggered replays do not
/// consume retries — only silent timeouts do; ACK progress resets the
/// count.
fn retx_go_back(inner: &Rc<NicInner>, qp_rc: &Rc<RefCell<Qp>>, from: u64) {
    let qpn = {
        let mut qp = qp_rc.borrow_mut();
        let Some(rx) = qp.retx.as_mut() else { return };
        let queued = rx.queue_replay_from(from);
        inner.retx_replays.set(inner.retx_replays.get() + queued);
        arm_retx_timer(inner, &mut qp);
        if queued == 0 {
            return;
        }
        qp.num
    };
    ring_qp(inner, qpn);
}

/// RNR NAK with retransmission armed: the responder had no receive WQE for
/// `msg_id`. Arm a backoff timer (same wheel as the loss timer, shorter
/// base period — `ibv_modify_qp`'s rnr_timer attribute) that replays from
/// the NAKed message, giving the application time to post a buffer. ACK
/// progress resets the RNR count. Returns whether the NAK was absorbed;
/// `false` (budget exhausted, or retransmission unarmed) sends the caller
/// down the fatal `RnrRetryExceeded` path.
fn rnr_defer(inner: &Rc<NicInner>, qp_rc: &Rc<RefCell<Qp>>, msg_id: u64) -> bool {
    let mut qp = qp_rc.borrow_mut();
    let qpn = qp.num;
    let Some(rx) = qp.retx.as_mut() else {
        return false;
    };
    rx.rnr_retries += 1;
    if rx.rnr_retries > rx.cfg.max_rnr_retries {
        inner.retx_exhausted.set(inner.retx_exhausted.get() + 1);
        inner.trace.emit(
            inner.sim.now(),
            TraceKind::RnrExhausted {
                node: inner.node as u32,
                qpn: qpn.0,
            },
        );
        return false;
    }
    let delay = rx.cfg.rnr_backoff(rx.rnr_retries - 1);
    rx.rnr_from = msg_id;
    if let Some(h) = rx.rnr_timer.take() {
        inner.sim.cancel_scheduled(h);
    }
    let at = inner.sim.now() + delay;
    let inner2 = Rc::clone(inner);
    rx.rnr_timer = Some(
        inner
            .sim
            .schedule_cancellable_at(at, move |_| rnr_fire(&inner2, qpn)),
    );
    true
}

/// RNR backoff timer fired: replay from the NAKed message (the receiver's
/// sequence state was rewound to it when the NAK was generated).
fn rnr_fire(inner: &Rc<NicInner>, qpn: QpNum) {
    let Some(qp_rc) = inner.qp_rc(qpn) else {
        return;
    };
    let from = {
        let mut qp = qp_rc.borrow_mut();
        if qp.state != QpState::Rts {
            return;
        }
        let Some(rx) = qp.retx.as_mut() else { return };
        rx.rnr_timer = None;
        rx.rnr_from
    };
    retx_go_back(inner, &qp_rc, from);
}

/// ===================== TX scheduler =====================
///
/// One task round-robins the QPs in the ring at burst granularity: each
/// turn starts the QP's next WQE (replay first) if it has none in
/// progress, then segments it through the fragment launcher.
async fn tx_loop(inner: Rc<NicInner>) {
    loop {
        let qpn = loop {
            let head = inner.tx_ring.borrow_mut().pop_front();
            match head {
                Some(q) => break q,
                None => inner.tx_notify.notified().await,
            }
        };
        process_burst(&inner, qpn).await;
    }
}

/// Process up to [`TX_BURST`] fragments for one QP, then yield.
async fn process_burst(inner: &Rc<NicInner>, qpn: QpNum) {
    let Some(qp_rc) = inner.qp_rc(qpn) else {
        return;
    };
    let mut budget = TX_BURST;

    while budget > 0 {
        // Ensure there is an in-progress WQE, starting a new one if needed.
        let has_progress = qp_rc.borrow().tx.is_some();
        if !has_progress {
            let started = start_next_wqe(inner, &qp_rc).await;
            match started {
                StartOutcome::Started => {}
                StartOutcome::NothingToDo => {
                    qp_rc.borrow_mut().in_ring = false;
                    return;
                }
                StartOutcome::StalledOnReads => {
                    let mut qp = qp_rc.borrow_mut();
                    qp.stalled_rd = true;
                    qp.in_ring = false;
                    return;
                }
                StartOutcome::Consumed(cost) => {
                    // A WQE that needed no segmentation (read request or an
                    // erroring WQE): bill its pipeline cost and continue.
                    budget = budget.saturating_sub(cost);
                    continue;
                }
            }
        }
        // Emit fragments. `None` means the QP hit its DCQCN pacing gate
        // and already rescheduled itself — leave it off the ring.
        match emit_fragments(inner, &qp_rc, budget).await {
            Some(rem) => budget = rem,
            None => return,
        }
    }

    // Budget exhausted: requeue if work remains.
    let mut qp = qp_rc.borrow_mut();
    if qp.tx.is_some() || !qp.sq.is_empty() {
        inner.tx_ring.borrow_mut().push_back(qpn);
        inner.tx_notify.notify_one();
    } else {
        qp.in_ring = false;
    }
}

enum StartOutcome {
    Started,
    NothingToDo,
    StalledOnReads,
    /// WQE fully handled during start (no fragments); burn `n` budget.
    Consumed(u32),
}

/// Start the QP's next WQE: the head of the replay queue, or else the SQ
/// head. Both run one sequence — bill the per-WQE cost, validate local
/// memory, then issue the read request or set up segmentation. A replay
/// differs only in its data: the original message id (so the receive
/// window accepts it), the window's WQE snapshot (payload re-read from
/// guest memory), the selective-repeat skip mask, and the replay trace
/// stamps.
async fn start_next_wqe(inner: &Rc<NicInner>, qp_rc: &Rc<RefCell<Qp>>) -> StartOutcome {
    loop {
        // Peek before billing: replays run ahead of fresh sends (the
        // receiver is waiting on exactly these message ids), and a fresh
        // read may stall without consuming its WQE.
        let queued = {
            let qp = qp_rc.borrow();
            let queued = qp.retx.as_ref().is_some_and(|rx| !rx.rtx.is_empty());
            match qp.sq.front() {
                _ if queued => {}
                None => return StartOutcome::NothingToDo,
                Some(w)
                    if w.opcode == Opcode::RdmaRead && qp.outstanding_reads >= qp.max_rd_atomic =>
                {
                    return StartOutcome::StalledOnReads;
                }
                Some(_) => {}
            }
            queued
        };
        // Per-WQE NIC processing cost.
        inner
            .tx_pipeline
            .use_for(inner.pipe_cost(inner.spec.nic.wqe_proc_ns))
            .await;
        let next = {
            let mut qp = qp_rc.borrow_mut();
            if queued {
                let next = qp.retx.as_mut().and_then(|rx| rx.next_replay());
                next.map(|(m, wqe, skip, drained)| (m, wqe, skip, Some(drained)))
            } else {
                qp.next_fresh().map(|(m, wqe)| (m, wqe, 0, None))
            }
        };
        let (msg_id, wqe, skip, replay) = match next {
            Some(next) => next,
            // ACKs emptied the replay queue during the billing: start the
            // SQ head, billed again.
            None if queued => continue,
            None => return StartOutcome::NothingToDo,
        };
        if let Some(drained) = replay {
            let (node, qpn) = (inner.node as u32, qp_rc.borrow().num.0);
            let now = inner.sim.now();
            let msg_seq = msg_id as u32;
            inner
                .trace
                .emit(now, TraceKind::ReplayStart { node, qpn, msg_seq });
            if drained {
                // The last queued message entered replay: the window closes
                // here (the exporter pairs the first ReplayStart with this).
                inner.trace.emit(now, TraceKind::ReplayEnd { node, qpn });
            }
        }
        // Local memory validation: TX fetch for sends/writes, local landing
        // (needs LOCAL_WRITE) for reads. A replay whose region vanished
        // between passes fails exactly like a fresh WQE.
        let read = wqe.opcode == Opcode::RdmaRead;
        let Ok(mr) = inner
            .mrs
            .check_local(wqe.sge.lkey, wqe.sge.addr, wqe.sge.len, read)
        else {
            let wr = Some((wqe.wr_id, wqe.opcode));
            fail_wr(
                inner,
                &mut qp_rc.borrow_mut(),
                msg_id,
                wr,
                CqeStatus::LocalProtErr,
            );
            return StartOutcome::Consumed(1);
        };
        let nfrags = inner.spec.fragments(wqe.sge.len) as u32;
        let mut qp = qp_rc.borrow_mut();
        if !read {
            qp.tx = Some(TxProgress {
                wqe,
                msg_id,
                next_frag: 0,
                nfrags,
                mem: mr.mem,
                skip,
            });
            return StartOutcome::Started;
        }
        // A read is one request packet. A fresh read opens its pending
        // record; a replay re-issues the request only while the read is
        // still pending (its completion may have raced the replay).
        if replay.is_none() {
            qp.outstanding_reads += 1;
            let pr = PendingRead {
                wr_id: wqe.wr_id,
                signaled: wqe.signaled,
                addr: wqe.sge.addr,
                len: wqe.sge.len,
                lkey: wqe.sge.lkey,
                frags: Frags::new(nfrags),
            };
            qp.pending_reads.insert(msg_id, pr);
        } else if !qp.pending_reads.contains_key(&msg_id) {
            return StartOutcome::Consumed(1);
        }
        let (raddr, rkey) = wqe.remote.expect("validated at post");
        let dst = qp.peer.expect("RC read on connected QP");
        let len = wqe.sge.len;
        let req = packet(
            inner,
            qp.num,
            dst,
            PacketKind::ReadReq {
                msg_id,
                raddr,
                rkey,
                len,
            },
        );
        drop(qp);
        transmit(inner, req);
        if replay.is_none() {
            mark_sent_and_arm(inner, &mut qp_rc.borrow_mut(), msg_id);
        }
        return StartOutcome::Consumed(1);
    }
}

/// Emit fragments for the current progress until done or out of budget.
/// Returns the remaining budget, or `None` if the QP stalled on its DCQCN
/// pacing gate (in which case it has left the ring and a timer re-rings it
/// when the gate opens).
async fn emit_fragments(
    inner: &Rc<NicInner>,
    qp_rc: &Rc<RefCell<Qp>>,
    mut budget: u32,
) -> Option<u32> {
    while budget > 0 {
        // Selective-repeat replay: advance past fragments the receiver
        // SACKed as already held. A pass that ends on a skipped tail needs
        // no completion bookkeeping — the first pass installed the
        // pending-ack record and the replay trigger armed the timer.
        {
            let mut qp = qp_rc.borrow_mut();
            if let Some(tx) = &mut qp.tx {
                if tx.skip != 0 {
                    while tx.next_frag < tx.nfrags
                        && tx.next_frag < 64
                        && tx.skip >> tx.next_frag & 1 == 1
                    {
                        tx.next_frag += 1;
                    }
                    if tx.next_frag >= tx.nfrags {
                        qp.tx = None;
                        return Some(budget);
                    }
                }
            }
        }
        // DCQCN pacing: a rate-limited QP may not launch its next data
        // fragment before the inter-packet gap at its current rate.
        let gate = {
            let mut qp = qp_rc.borrow_mut();
            match qp.dcqcn.as_mut().and_then(|d| d.gate(inner.sim.now())) {
                Some(at) => {
                    qp.in_ring = false;
                    Some((at, qp.num))
                }
                None => None,
            }
        };
        if let Some((at, qpn)) = gate {
            let inner2 = Rc::clone(inner);
            inner.sim.schedule_at(at, move |_| ring_qp(&inner2, qpn));
            return None;
        }
        let (tx, src_qpn, dst) = {
            let qp = qp_rc.borrow();
            let Some(tx) = qp.tx.clone() else {
                return Some(budget);
            };
            let dst = match (qp.transport, tx.wqe.ud_dest) {
                (Transport::Rc, _) => qp.peer.expect("RC connected"),
                (Transport::Ud, d) => d.map(|d| (d.node, d.qpn)).expect("validated at post"),
            };
            (tx, qp.num, dst)
        };
        let TxProgress {
            wqe,
            msg_id,
            next_frag: frag,
            nfrags,
            mem,
            ..
        } = tx;
        let offset = frag as usize * inner.spec.nic.mtu;
        let len = (wqe.sge.len - offset).min(inner.spec.nic.mtu);
        let last = frag + 1 == nfrags;
        let (total_len, imm, remote) = (wqe.sge.len, wqe.imm, wqe.remote);
        let kind = |payload| match wqe.opcode {
            Opcode::Send => PacketKind::SendFrag {
                msg_id,
                frag,
                nfrags,
                total_len,
                offset,
                payload,
                imm,
            },
            Opcode::RdmaWrite => {
                let (raddr, rkey) = remote.expect("validated at post");
                PacketKind::WriteFrag {
                    msg_id,
                    frag,
                    nfrags,
                    total_len,
                    raddr,
                    rkey,
                    offset,
                    payload,
                    imm,
                }
            }
            Opcode::RdmaRead => unreachable!("reads have no fragments"),
        };
        let done = PendingAck {
            wr_id: wqe.wr_id,
            signaled: wqe.signaled,
            opcode: wqe.opcode,
            byte_len: total_len,
        };
        let qp2 = Rc::clone(qp_rc);
        launch_frag(
            inner,
            qp_rc,
            (src_qpn, dst),
            wqe.inline_data.as_ref().map(|d| d.slice(offset, len)),
            (&mem, wqe.sge.addr + offset as u64, len),
            kind,
            move |inner| {
                if last {
                    message_sent(inner, &qp2, msg_id, done);
                }
            },
        )
        .await;

        budget -= 1;
        let mut qp = qp_rc.borrow_mut();
        if last {
            qp.tx = None;
            return Some(budget);
        } else if let Some(tx) = &mut qp.tx {
            tx.next_frag += 1;
        }
    }
    Some(0)
}

/// Launch one data fragment: a send or write fragment from the TX
/// scheduler, or a read-response fragment from a responder task. Each
/// caller has passed its own DCQCN gate (the scheduler leaves the ring
/// and re-rings on a timer, a responder task sleeps). Then, in order:
/// charge the fragment against the QP's DCQCN rate, take a TX window
/// credit, fetch the payload (inline data captured at post time, else a
/// FromHost DMA read of `len` bytes at `addr`), transmit when the fetch
/// ends — releasing the credit, then running `on_wire` — and occupy the
/// TX pipeline for the per-packet cost.
async fn launch_frag(
    inner: &Rc<NicInner>,
    qp_rc: &Rc<RefCell<Qp>>,
    (src_qpn, dst): (QpNum, (NodeId, QpNum)),
    inline: Option<PayloadSeg>,
    (mem, addr, len): (&GuestMem, u64, usize),
    kind: impl FnOnce(PayloadSeg) -> PacketKind,
    on_wire: impl FnOnce(&Rc<NicInner>) + 'static,
) {
    let now = inner.sim.now();
    if let Some(d) = qp_rc.borrow_mut().dcqcn.as_mut() {
        d.charge(now, len + inner.spec.nic.header_bytes);
    }
    // Respect the in-flight window so we pace at the bottleneck.
    inner.tx_window.acquire(1).await;
    let (payload, ready) = match inline {
        Some(data) => (data, inner.sim.now()),
        None => (
            mem.read(addr, len).expect("range validated"),
            inner.dma.enqueue(DmaDir::FromHost, len),
        ),
    };
    let pkt = packet(inner, src_qpn, dst, kind(payload));
    let inner2 = Rc::clone(inner);
    inner.sim.schedule_at(ready, move |_| {
        transmit(&inner2, pkt);
        inner2.tx_window.release(1);
        on_wire(&inner2);
    });
    inner
        .tx_pipeline
        .use_for(inner.pipe_cost(inner.spec.nic.tx_pkt_ns))
        .await;
}

/// The last fragment of message `msg_id` (described by `done`) reached
/// the wire: count a first pass, then complete a UD send locally or await
/// the RC ACK.
fn message_sent(inner: &Rc<NicInner>, qp_rc: &Rc<RefCell<Qp>>, msg_id: u64, done: PendingAck) {
    let mut qp = qp_rc.borrow_mut();
    // Which pass just finished? On a retransmitting QP the window entry
    // tells: missing = the ACK landed mid-replay (do nothing — re-inserting
    // pending_acks here would pair with the receiver's duplicate re-ACK
    // into a second completion); `sent` already true = a replay pass
    // (await the ACK again but don't re-count the message).
    let (first_pass, acked) = match qp.retx.as_ref() {
        None => (true, false),
        Some(rx) => match rx.window.iter().find(|e| e.msg_id == msg_id) {
            None => (false, true),
            Some(e) => (!e.sent, false),
        },
    };
    if first_pass {
        qp.tx_msgs += 1;
        qp.tx_bytes += done.byte_len as u64;
    }
    match qp.transport {
        // UD: local completion once the NIC owns the data.
        Transport::Ud if done.signaled => {
            let cqe = Cqe::new(
                done.wr_id,
                CqeStatus::Success,
                done.opcode.into(),
                done.byte_len,
                qp.num,
            );
            let cq = qp.send_cq.clone();
            drop(qp);
            deliver_cqe(inner, &cq, cqe);
        }
        Transport::Rc if !acked => {
            qp.pending_acks.insert(msg_id, done);
            mark_sent_and_arm(inner, &mut qp, msg_id);
        }
        _ => {}
    }
}

/// ===================== RX pipeline =====================
async fn rx_loop(inner: Rc<NicInner>) {
    let rx = inner.rx.borrow_mut().take().expect("rx taken once");
    loop {
        let Ok(frame) = rx.recv().await else { return };
        inner
            .rx_pipeline
            .use_for(inner.pipe_cost(inner.spec.nic.rx_pkt_ns))
            .await;
        inner.rx_packets.set(inner.rx_packets.get() + 1);
        // Surface the fabric's ECN mark in the packet header.
        let mut pkt = frame.payload;
        pkt.ecn |= frame.ecn;
        handle_packet(&inner, pkt);
    }
}

/// Header fields of a received packet, kept after its payload has been
/// moved out — everything reply paths (ACK/NAK/CNP, CQE source fields)
/// need, without cloning whole packets.
#[derive(Debug, Clone, Copy)]
struct PktHdr {
    src_node: NodeId,
    src_qpn: QpNum,
    dst_qpn: QpNum,
}

impl PktHdr {
    fn of(pkt: &Packet) -> PktHdr {
        PktHdr {
            src_node: pkt.src_node,
            src_qpn: pkt.src_qpn,
            dst_qpn: pkt.dst_qpn,
        }
    }

    /// Where a reply to this packet goes: its sender's node and QP.
    fn back(self) -> (NodeId, QpNum) {
        (self.src_node, self.src_qpn)
    }
}

/// A packet from this NIC's QP `src_qpn` to `dst` — every packet the
/// engine sends is built here.
fn packet(
    inner: &NicInner,
    src_qpn: QpNum,
    (dst_node, dst_qpn): (NodeId, QpNum),
    kind: PacketKind,
) -> Packet {
    Packet {
        src_node: inner.node,
        dst_node,
        src_qpn,
        dst_qpn,
        ecn: false,
        kind,
    }
}

/// Answer the sender of a received packet: the reversed header, built in
/// one place for every ACK, NAK, gap notice and CNP.
fn reply(inner: &Rc<NicInner>, hdr: PktHdr, kind: PacketKind) {
    transmit(inner, packet(inner, hdr.dst_qpn, hdr.back(), kind));
}

fn ack(inner: &Rc<NicInner>, hdr: PktHdr, msg_id: u64) {
    reply(inner, hdr, PacketKind::Ack { msg_id });
}

fn nak(inner: &Rc<NicInner>, hdr: PktHdr, msg_id: u64, reason: NakReason) {
    reply(inner, hdr, PacketKind::Nak { msg_id, reason });
}

/// Echo a congestion notification for an ECN-marked arrival, if the
/// receiving QP participates in DCQCN and its per-QP CNP budget allows.
fn maybe_echo_cnp(inner: &Rc<NicInner>, qp_rc: &Rc<RefCell<Qp>>, hdr: PktHdr) {
    let now = inner.sim.now();
    {
        let mut qp = qp_rc.borrow_mut();
        if qp.transport != Transport::Rc || qp.dcqcn.is_none() {
            return;
        }
        let due = qp
            .last_cnp_tx
            .is_none_or(|t| now.since(t) >= CNP_MIN_INTERVAL);
        if !due {
            return;
        }
        qp.last_cnp_tx = Some(now);
    }
    reply(inner, hdr, PacketKind::Cnp);
}

fn handle_packet(inner: &Rc<NicInner>, pkt: Packet) {
    let Some(qp_rc) = inner.qp_rc(pkt.dst_qpn) else {
        return; // stale packet to a destroyed QP
    };
    if inner.trace.is_enabled() {
        if let Some((msg_seq, frag)) = frag_info(&pkt.kind) {
            inner.trace.emit(
                inner.sim.now(),
                TraceKind::FragRx {
                    node: inner.node as u32,
                    qpn: pkt.dst_qpn.0,
                    src: pkt.src_node as u32,
                    msg_seq,
                    frag,
                    bytes: pkt.wire_bytes(inner.spec.nic.header_bytes) as u32,
                },
            );
        }
    }
    // Destructure by value: handlers receive the payload without a clone
    // and the header fields as a small `Copy` struct.
    let hdr = PktHdr::of(&pkt);
    // Congestion feedback is independent of WQE state: echo a CNP for any
    // marked data-bearing arrival before normal processing.
    if pkt.ecn && pkt.is_data() {
        maybe_echo_cnp(inner, &qp_rc, hdr);
    }
    match pkt.kind {
        PacketKind::SendFrag {
            msg_id,
            frag,
            nfrags,
            total_len,
            offset,
            payload,
            imm,
        } => handle_send_frag(
            inner, &qp_rc, hdr, msg_id, frag, nfrags, total_len, offset, payload, imm,
        ),
        PacketKind::WriteFrag {
            msg_id,
            frag,
            nfrags,
            total_len,
            raddr,
            rkey,
            offset,
            payload,
            imm,
        } => handle_write_frag(
            inner, &qp_rc, hdr, msg_id, frag, nfrags, total_len, raddr, rkey, offset, payload, imm,
        ),
        PacketKind::ReadReq {
            msg_id,
            raddr,
            rkey,
            len,
        } => handle_read_req(inner, &qp_rc, hdr, msg_id, raddr, rkey, len),
        PacketKind::ReadResp {
            msg_id,
            frag,
            nfrags,
            offset,
            payload,
        } => handle_read_resp(inner, &qp_rc, msg_id, frag, nfrags, offset, payload),
        PacketKind::Ack { msg_id } => handle_ack(inner, &qp_rc, msg_id),
        PacketKind::Nak { msg_id, reason } => handle_nak(inner, &qp_rc, msg_id, reason),
        PacketKind::Sack { msg_id, received } => handle_sack(inner, &qp_rc, msg_id, received),
        PacketKind::Cnp => handle_cnp(inner, &qp_rc),
    }
}

fn handle_cnp(inner: &Rc<NicInner>, qp_rc: &Rc<RefCell<Qp>>) {
    let now = inner.sim.now();
    let mut qp = qp_rc.borrow_mut();
    if let Some(d) = qp.dcqcn.as_mut() {
        d.on_cnp(now);
        let rate = d.rate_gbps;
        let qpn = qp.num;
        drop(qp);
        inner.trace.emit(
            now,
            TraceKind::RateCut {
                node: inner.node as u32,
                qpn: qpn.0,
                rate_mbps: (rate * 1000.0) as u32,
            },
        );
    }
}

/// ===================== RC receive window =====================
///
/// Every request arrival — send fragment, write fragment, read request —
/// asks the QP's receive window ([`RxWindow`](crate::qp::RxWindow)) for a
/// verdict. The window's acceptance rule is the QP's
/// [`RetxMode`](crate::qp::RetxMode): under selective repeat fragments
/// install out of order (`GuestMem::install` lands each as an extent and
/// fuses it with its neighbours, so any order leaves the same bytes) and
/// each message ACKs individually on completion; under go-back-N
/// only the next fragment in sequence lands. Either way one gap notice (a
/// SACK naming the first missing message) per episode drives the sender's
/// replay, and sends bind receive WQEs in strict message order at the
/// window's binding floor. QPs without retransmission keep no window:
/// fragments land in arrival order and a send binds its WQE at fragment
/// 0. Payload install, CQE and ACK happen at DMA completion. On the
/// requester, read responses pass the same rule on the pending read's own
/// fragment set ([`Frags`]).
///
/// Carries out the window's verdict on an arriving request fragment:
/// emits its gap notice and, for a send with no receive WQE yet, binds at
/// the floor and asks again.
#[allow(clippy::too_many_arguments)]
fn admit(
    inner: &Rc<NicInner>,
    qp_rc: &Rc<RefCell<Qp>>,
    hdr: PktHdr,
    msg_id: u64,
    frag: u32,
    nfrags: u32,
    kind: Kind,
    total_len: usize,
) -> Action {
    let verdict = || {
        qp_rc
            .borrow_mut()
            .rx_verdict(msg_id, frag, nfrags, kind, total_len)
    };
    let Some(mut d) = verdict() else {
        if kind == Kind::Send && frag == 0 {
            bind_recv(inner, qp_rc, hdr, msg_id, total_len, true);
        }
        return Action::Install {
            completes: frag + 1 == nfrags,
        };
    };
    if let Some((m, received)) = d.sack {
        reply(
            inner,
            hdr,
            PacketKind::Sack {
                msg_id: m,
                received,
            },
        );
    }
    if d.action == Action::Unbound {
        // This fragment classified its message: bind what the floor
        // allows, then retry the fragment.
        loop {
            let next = {
                let mut qp = qp_rc.borrow_mut();
                let w = qp.rx_window().expect("verdict came from the window");
                w.next_bind().map(|m| (m, w.total_len(m)))
            };
            let Some((m, len)) = next else { break };
            if !bind_recv(inner, qp_rc, hdr, m, len, (msg_id, frag) == (m, 0)) {
                break;
            }
        }
        d = verdict().expect("verdict came from the window");
        if let Some((m, received)) = d.sack {
            reply(
                inner,
                hdr,
                PacketKind::Sack {
                    msg_id: m,
                    received,
                },
            );
        }
    }
    d.action
}

/// Bind the RQ's next receive WQE to send message `m` of `total_len`
/// bytes. A buffer too short rejects the message (LengthError) and the
/// caller may bind the next one. An empty RQ, or a WQE whose buffer the
/// MR table refuses, leaves `m` unbound and stops binding; when the
/// arrival is `m`'s fragment 0 (`first`) an RC QP RNR-NAKs it, bounding
/// RNR NAKs to one per replay round. Returns whether binding may go on.
fn bind_recv(
    inner: &Rc<NicInner>,
    qp_rc: &Rc<RefCell<Qp>>,
    hdr: PktHdr,
    m: u64,
    total_len: usize,
    first: bool,
) -> bool {
    let mut qp = qp_rc.borrow_mut();
    let rnr = first && qp.transport == Transport::Rc;
    let Some(rwqe) = qp.rq.pop_front() else {
        if rnr {
            rnr_nak(inner, qp, hdr, m);
        }
        return false;
    };
    let lprot = Cqe::new(
        rwqe.wr_id,
        CqeStatus::LocalProtErr,
        CqeOpcode::Recv,
        0,
        qp.num,
    );
    if total_len > rwqe.sge.len {
        qp.recv_cq.push(lprot);
        if let Some(w) = qp.rx_window() {
            w.poison(m, 1, Kind::Send);
        }
        let rc = qp.transport == Transport::Rc;
        drop(qp);
        if rc {
            nak(inner, hdr, m, NakReason::LengthError);
        }
        return true;
    }
    let Ok(mr) = inner
        .mrs
        .check_local(rwqe.sge.lkey, rwqe.sge.addr, rwqe.sge.len, true)
    else {
        // The WQE is consumed and errored; the message stays unbound so
        // the post-backoff replay binds the next one.
        qp.recv_cq.push(lprot);
        if rnr {
            rnr_nak(inner, qp, hdr, m);
        }
        return false;
    };
    qp.recv_asm.insert(
        m,
        RecvAssembly {
            wqe: rwqe,
            mem: mr.mem,
        },
    );
    if let Some(w) = qp.rx_window() {
        w.bound(m);
    }
    true
}

/// RNR-NAK message `m`: the receiver has no receive WQE for it. The
/// window learns of it first (the in-order rule mutes gap notices until
/// the replay makes progress).
fn rnr_nak(inner: &Rc<NicInner>, mut qp: RefMut<'_, Qp>, hdr: PktHdr, m: u64) {
    if let Some(w) = qp.rx_window() {
        w.rnr();
    }
    drop(qp);
    nak(inner, hdr, m, NakReason::Rnr);
}

#[allow(clippy::too_many_arguments)]
fn handle_send_frag(
    inner: &Rc<NicInner>,
    qp_rc: &Rc<RefCell<Qp>>,
    hdr: PktHdr,
    msg_id: u64,
    frag: u32,
    nfrags: u32,
    total_len: usize,
    offset: usize,
    payload: PayloadSeg,
    imm: Option<u32>,
) {
    let completes = match admit(
        inner,
        qp_rc,
        hdr,
        msg_id,
        frag,
        nfrags,
        Kind::Send,
        total_len,
    ) {
        Action::Install { completes } => completes,
        Action::Discard { reack: true } => {
            // The whole message already completed; its ACK was lost.
            ack(inner, hdr, msg_id);
            return;
        }
        _ => return,
    };
    let (dst_addr, mem, rwr_id) = {
        let mut qp = qp_rc.borrow_mut();
        // No binding: the message was rejected or found no WQE, or (on a
        // lossy fabric without retransmission) its fragment 0 was lost.
        let Some(asm) = qp.recv_asm.get(&msg_id) else {
            return;
        };
        let out = (
            asm.wqe.sge.addr + offset as u64,
            asm.mem.clone(),
            asm.wqe.wr_id,
        );
        // Once the last fragment has *arrived* the binding is done, even
        // though this message's DMA completion (and CQE) is still in
        // flight.
        if completes {
            qp.recv_asm.remove(&msg_id);
        }
        out
    };

    let dma_done = inner.dma.enqueue(DmaDir::ToHost, payload.len());
    let inner2 = Rc::clone(inner);
    let qp2 = Rc::clone(qp_rc);
    inner.sim.schedule_at(dma_done, move |_| {
        mem.install(dst_addr, &payload)
            .expect("validated landing zone");
        if completes {
            let mut qp = qp2.borrow_mut();
            qp.rx_msgs += 1;
            qp.rx_bytes += total_len as u64;
            let cqe = Cqe {
                wr_id: rwr_id,
                status: CqeStatus::Success,
                opcode: if imm.is_some() {
                    CqeOpcode::RecvWithImm
                } else {
                    CqeOpcode::Recv
                },
                byte_len: total_len,
                qp: qp.num,
                imm,
                src_qp: Some(hdr.src_qpn),
                src_node: Some(hdr.src_node),
            };
            let recv_cq = qp.recv_cq.clone();
            let is_rc = qp.transport == Transport::Rc;
            drop(qp);
            deliver_cqe(&inner2, &recv_cq, cqe);
            if is_rc {
                ack(&inner2, hdr, msg_id);
            }
        }
    });
}

#[allow(clippy::too_many_arguments)]
fn handle_write_frag(
    inner: &Rc<NicInner>,
    qp_rc: &Rc<RefCell<Qp>>,
    hdr: PktHdr,
    msg_id: u64,
    frag: u32,
    nfrags: u32,
    total_len: usize,
    raddr: u64,
    rkey: crate::types::RKey,
    offset: usize,
    payload: PayloadSeg,
    imm: Option<u32>,
) {
    // Every fragment validates the whole message range, so no fragment of
    // a rejected message ever lands. The fragment that opens the message
    // rejects it (poisoning it in the window) and NAKs once; its other
    // fragments drop silently.
    let mr = inner.mrs.check_remote(rkey, raddr, total_len, true).ok();
    {
        let mut qp = qp_rc.borrow_mut();
        let rq_empty = qp.rq.is_empty();
        let w = qp.rx_window();
        if mr.is_none() {
            if w.as_ref().map_or(frag == 0, |w| w.opens(msg_id, frag)) {
                if let Some(w) = w {
                    w.poison(msg_id, nfrags, Kind::Write);
                }
                drop(qp);
                nak(inner, hdr, msg_id, NakReason::RemoteAccess);
            }
        } else if imm.is_some()
            && rq_empty
            && w.is_some_and(|w| w.completes_with(msg_id, frag, nfrags))
        {
            // Write-with-immediate consumes a receive WQE at completion:
            // check for one before accepting the completing fragment, and
            // RNR-NAK it back instead.
            rnr_nak(inner, qp, hdr, msg_id);
            return;
        }
    }
    let completes = match admit(
        inner,
        qp_rc,
        hdr,
        msg_id,
        frag,
        nfrags,
        Kind::Write,
        total_len,
    ) {
        Action::Install { completes } => completes,
        Action::Discard { reack: true } => {
            ack(inner, hdr, msg_id);
            return;
        }
        _ => return,
    };
    // No window to poison a rejected message: its fragments stop here.
    let Some(mr) = mr else { return };

    let dma_done = inner.dma.enqueue(DmaDir::ToHost, payload.len());
    let inner2 = Rc::clone(inner);
    let qp2 = Rc::clone(qp_rc);
    let dst = raddr + offset as u64;
    inner.sim.schedule_at(dma_done, move |_| {
        mr.mem
            .install(dst, &payload)
            .expect("validated remote range");
        if completes {
            {
                let mut qp = qp2.borrow_mut();
                qp.rx_msgs += 1;
                qp.rx_bytes += total_len as u64;
            }
            if let Some(imm) = imm {
                let popped = qp2.borrow_mut().rq.pop_front();
                let Some(rwqe) = popped else {
                    // Pre-checked at arrival when a window is kept; only
                    // a receive WQE taken in between lands here. Withhold
                    // the ACK — the replay's duplicate pass re-ACKs,
                    // degrading to a lost-CQE corner rather than
                    // corrupting WQE pairing.
                    nak(&inner2, hdr, msg_id, NakReason::Rnr);
                    return;
                };
                let (cq, cqe) = {
                    let qp = qp2.borrow();
                    (
                        qp.recv_cq.clone(),
                        Cqe {
                            wr_id: rwqe.wr_id,
                            status: CqeStatus::Success,
                            opcode: CqeOpcode::RecvWithImm,
                            byte_len: total_len,
                            qp: qp.num,
                            imm: Some(imm),
                            src_qp: Some(hdr.src_qpn),
                            src_node: Some(hdr.src_node),
                        },
                    )
                };
                deliver_cqe(&inner2, &cq, cqe);
            }
            ack(&inner2, hdr, msg_id);
        }
    });
}

fn handle_read_req(
    inner: &Rc<NicInner>,
    qp_rc: &Rc<RefCell<Qp>>,
    hdr: PktHdr,
    msg_id: u64,
    raddr: u64,
    rkey: crate::types::RKey,
    len: usize,
) {
    // A single-packet message through the window, served on arrival. A
    // duplicate of a delivered request means the response (or its tail)
    // was lost: re-streaming is idempotent — the requester discards
    // fragments it already landed — so serve it again without re-counting.
    let dup = match admit(inner, qp_rc, hdr, msg_id, 0, 1, Kind::Read, len) {
        Action::Install { .. } => false,
        Action::Discard { reack: true } => true,
        _ => return,
    };
    let Ok(mr) = inner.mrs.check_remote(rkey, raddr, len, false) else {
        nak(inner, hdr, msg_id, NakReason::RemoteAccess);
        return;
    };
    if !dup {
        let mut qp = qp_rc.borrow_mut();
        qp.rx_msgs += 1;
        qp.rx_bytes += len as u64;
    }
    // Stream the response: one task per read (responder CPU stays idle —
    // the property Fig. 3 depends on).
    let inner2 = Rc::clone(inner);
    let qp2 = Rc::clone(qp_rc);
    inner.sim.spawn(async move {
        let mtu = inner2.spec.nic.mtu;
        let nfrags = inner2.spec.fragments(len) as u32;
        for frag in 0..nfrags {
            let offset = frag as usize * mtu;
            let flen = (len - offset).min(mtu);
            // DCQCN pacing: responder fragments go through the same per-QP
            // rate-limiter gate as the TX scheduler's send/write path, so
            // a read-heavy workload cannot stream past its CNP-cut rate.
            // Gate *before* taking a window credit (same order as the TX
            // scheduler): a throttled QP must not park the NIC-global
            // in-flight window for its inter-packet gap.
            loop {
                let now = inner2.sim.now();
                let gate = qp2.borrow_mut().dcqcn.as_mut().and_then(|d| d.gate(now));
                match gate {
                    Some(at) => inner2.sim.sleep_until(at).await,
                    None => break,
                }
            }
            let kind = |payload| PacketKind::ReadResp {
                msg_id,
                frag,
                nfrags,
                offset,
                payload,
            };
            let at = (&mr.mem, raddr + offset as u64, flen);
            launch_frag(
                &inner2,
                &qp2,
                (hdr.dst_qpn, hdr.back()),
                None,
                at,
                kind,
                |_| {},
            )
            .await;
        }
    });
}

#[allow(clippy::too_many_arguments)]
fn handle_read_resp(
    inner: &Rc<NicInner>,
    qp_rc: &Rc<RefCell<Qp>>,
    msg_id: u64,
    frag: u32,
    nfrags: u32,
    offset: usize,
    payload: PayloadSeg,
) {
    // The receive window's rule on the read's own fragment set: without
    // retransmission fragments land in arrival order; otherwise go-back-N
    // takes only the next one in sequence (the retransmit timer re-issues
    // the request after a loss) and selective repeat any fragment not yet
    // held, so duplicates from a re-served response drop.
    let (dst, lkey, last) = {
        let mut qp = qp_rc.borrow_mut();
        let rule = qp.retx.as_ref().map(|rx| rx.cfg.mode);
        let Some(pr) = qp.pending_reads.get_mut(&msg_id) else {
            return;
        };
        let last = match rule {
            None => frag + 1 == nfrags,
            Some(rule) if pr.frags.accept(rule, frag) => pr.frags.count() == nfrags,
            Some(_) => return,
        };
        (pr.addr + offset as u64, pr.lkey, last)
    };
    let Ok(mr) = inner.mrs.check_local(lkey, dst, payload.len(), true) else {
        // Landing buffer vanished mid-read.
        fail_wr(
            inner,
            &mut qp_rc.borrow_mut(),
            msg_id,
            None,
            CqeStatus::LocalProtErr,
        );
        return;
    };
    let dma_done = inner.dma.enqueue(DmaDir::ToHost, payload.len());
    let inner2 = Rc::clone(inner);
    let qp2 = Rc::clone(qp_rc);
    inner.sim.schedule_at(dma_done, move |_| {
        mr.mem
            .install(dst, &payload)
            .expect("validated landing zone");
        if !last {
            return;
        }
        let mut qp = qp2.borrow_mut();
        let Some(pr) = qp.pending_reads.remove(&msg_id) else {
            return;
        };
        qp.outstanding_reads -= 1;
        if qp.retx.as_mut().is_some_and(|rx| rx.ack(msg_id)) {
            arm_retx_timer(&inner2, &mut qp);
        }
        qp.tx_msgs += 1;
        qp.tx_bytes += pr.len as u64;
        if pr.signaled {
            let cqe = Cqe::new(
                pr.wr_id,
                CqeStatus::Success,
                CqeOpcode::RdmaRead,
                pr.len,
                qp.num,
            );
            deliver_cqe(&inner2, &qp.send_cq.clone(), cqe);
        }
        if std::mem::take(&mut qp.stalled_rd) {
            let qpn = qp.num;
            drop(qp);
            ring_qp(&inner2, qpn);
        }
    });
}

fn handle_ack(inner: &Rc<NicInner>, qp_rc: &Rc<RefCell<Qp>>, msg_id: u64) {
    let mut qp = qp_rc.borrow_mut();
    // ACK progress shrinks the go-back-N window, resets the retry count,
    // and re-covers the (new) oldest unacked message with a fresh timer.
    if qp.retx.as_mut().is_some_and(|rx| rx.ack(msg_id)) {
        arm_retx_timer(inner, &mut qp);
    }
    if let Some(pa) = qp.pending_acks.remove(&msg_id) {
        if pa.signaled {
            let cqe = Cqe::new(
                pa.wr_id,
                CqeStatus::Success,
                pa.opcode.into(),
                pa.byte_len,
                qp.num,
            );
            let cq = qp.send_cq.clone();
            drop(qp);
            deliver_cqe(inner, &cq, cqe);
        }
    }
}

/// Gap notice from the responder: remember which fragments of the first
/// missing message it already holds (the replay pass skips them), then
/// replay the unacked window from that message. Under selective repeat
/// individually ACKed messages are no longer in the window, so only
/// messages actually missing something go back on the wire; under
/// go-back-N the bitmap is empty and this is the classic go-back.
fn handle_sack(inner: &Rc<NicInner>, qp_rc: &Rc<RefCell<Qp>>, msg_id: u64, received: u64) {
    {
        let mut qp = qp_rc.borrow_mut();
        let Some(rx) = qp.retx.as_mut() else { return };
        if received != 0 {
            rx.rtx_mask.insert(msg_id, received);
        }
    }
    retx_go_back(inner, qp_rc, msg_id);
}

fn handle_nak(inner: &Rc<NicInner>, qp_rc: &Rc<RefCell<Qp>>, msg_id: u64, reason: NakReason) {
    // Receiver-not-ready with retransmission armed is recoverable too:
    // back off and replay, hoping the application posts a receive buffer
    // in the meantime. Only budget exhaustion (or an unarmed QP, the
    // seed's behavior) falls through to the fatal path below.
    if reason == NakReason::Rnr && rnr_defer(inner, qp_rc, msg_id) {
        return;
    }
    let status = match reason {
        NakReason::Rnr => CqeStatus::RnrRetryExceeded,
        NakReason::RemoteAccess | NakReason::LengthError => CqeStatus::RemoteAccessErr,
    };
    fail_wr(inner, &mut qp_rc.borrow_mut(), msg_id, None, status);
}
