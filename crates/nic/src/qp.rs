//! Queue pairs: state machine, work queues, in-flight transfer state, and
//! the RC retransmission state — the sender's unacked window and the
//! receive window whose acceptance rule is the QP's [`RetxMode`].

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;

use cord_sim::{Sim, SimDuration, SimTime, TimerHandle};

use crate::cc::{CcAlgorithm, Dcqcn};
use crate::cq::Cq;
use crate::types::{NodeId, Opcode, QpNum, QpState, Transport, VerbsError, WrId};
use crate::wqe::{RecvWqe, SendWqe};

/// Sender-side record awaiting an ACK/NAK (RC sends and writes).
#[derive(Debug, Clone)]
pub struct PendingAck {
    pub wr_id: WrId,
    pub signaled: bool,
    pub opcode: Opcode,
    pub byte_len: usize,
}

/// Requester-side record of an outstanding RDMA read.
#[derive(Debug, Clone)]
pub struct PendingRead {
    pub wr_id: WrId,
    pub signaled: bool,
    /// Local landing zone.
    pub addr: u64,
    pub len: usize,
    pub lkey: crate::types::LKey,
    /// Response fragments landed so far, gated by the QP's acceptance
    /// rule when retransmission is armed.
    pub frags: Frags,
}

/// The fragments of one message held so far: a bitmap, 64 fragments per
/// word, and its population count. The receive window keeps one per
/// in-progress message, the requester one per pending read.
#[derive(Debug, Clone)]
pub struct Frags {
    bits: Vec<u64>,
    count: u32,
}

impl Frags {
    /// An empty set for a message of `nfrags` fragments.
    pub fn new(nfrags: u32) -> Frags {
        Frags {
            bits: vec![0; (nfrags as usize).div_ceil(64)],
            count: 0,
        }
    }

    /// Whether `frag` is held.
    pub fn has(&self, frag: u32) -> bool {
        self.bits[frag as usize / 64] >> (frag % 64) & 1 == 1
    }

    /// Fragments held.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Take `frag` if `rule` accepts it: the in-order rule accepts only
    /// the next fragment in sequence, selective repeat any fragment not
    /// yet held.
    pub fn accept(&mut self, rule: RetxMode, frag: u32) -> bool {
        let ok = match rule {
            RetxMode::Gbn => frag == self.count,
            RetxMode::Sr => !self.has(frag),
        };
        if ok {
            self.bits[frag as usize / 64] |= 1 << (frag % 64);
            self.count += 1;
        }
        ok
    }
}

/// Loss-recovery discipline for an RC QP with retransmission armed — on
/// the receive side, the acceptance rule of its [`RxWindow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetxMode {
    /// Go-back-N: the receiver accepts only in-order arrivals and the
    /// sender replays the whole unacked window from the first missing
    /// message, re-sending fragments the receiver already holds.
    #[default]
    Gbn,
    /// Selective repeat: the receiver installs out-of-order fragments
    /// (`GuestMem::install` lands each as an extent and fuses it with its
    /// neighbours), ACKs each message individually as it completes, and
    /// NAKs with a SACK bitmap so the sender replays only what is actually
    /// missing. Required for per-packet spray routing, which reorders by
    /// design.
    Sr,
}

impl fmt::Display for RetxMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RetxMode::Gbn => "gbn",
            RetxMode::Sr => "sr",
        })
    }
}

/// RC retransmission knobs (per QP, like `ibv_modify_qp`'s timeout /
/// retry_cnt attributes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetxConfig {
    /// Loss-recovery discipline: go-back-N (default) or selective repeat.
    pub mode: RetxMode,
    /// Base retransmit timer period: how long the oldest unacked message
    /// may wait before a go-back-N replay. Must exceed the uncongested
    /// RTT; consecutive unproductive timeouts back off exponentially
    /// (doubling, capped at 64×), which both tolerates congested RTTs and
    /// de-synchronizes the replay storms of QPs sharing a hot port.
    pub timeout: SimDuration,
    /// Timeouts tolerated before the QP errors out with
    /// [`crate::cq::CqeStatus::RetryExcErr`]. ACK progress resets the count.
    pub max_retries: u32,
    /// Base delay before replaying a message the responder RNR-NAKed
    /// (receiver not ready: no receive WQE posted yet). Much shorter than
    /// the loss `timeout` — the application is expected to post a buffer
    /// imminently; consecutive RNR rounds back off exponentially.
    pub rnr_timeout: SimDuration,
    /// RNR NAKs tolerated before the QP errors out with
    /// [`crate::cq::CqeStatus::RnrRetryExceeded`]. ACK progress resets
    /// the count.
    pub max_rnr_retries: u32,
}

impl Default for RetxConfig {
    fn default() -> Self {
        RetxConfig {
            mode: RetxMode::Gbn,
            timeout: SimDuration::from_us(200),
            max_retries: 8,
            rnr_timeout: SimDuration::from_us(20),
            max_rnr_retries: 8,
        }
    }
}

impl RetxConfig {
    /// Timer period for the next arm given `retries` consecutive
    /// unproductive timeouts: exponential backoff, capped at 64× base.
    pub fn backoff(&self, retries: u32) -> SimDuration {
        SimDuration::from_ps(self.timeout.as_ps() << retries.min(6))
    }

    /// Replay delay after the `retries`-th consecutive RNR NAK: same
    /// exponential shape as [`RetxConfig::backoff`] on the RNR base.
    pub fn rnr_backoff(&self, retries: u32) -> SimDuration {
        SimDuration::from_ps(self.rnr_timeout.as_ps() << retries.min(6))
    }
}

/// One unacked WQE in the retransmit window.
#[derive(Debug, Clone)]
pub struct RetxEntry {
    pub msg_id: u64,
    /// Snapshot of the WQE for go-back-N replay (payload re-read from
    /// guest memory at replay time, exactly like the original pass).
    pub wqe: SendWqe,
    /// Whether the message has been fully handed to the fabric at least
    /// once — only such entries are replayed (the tail still streaming
    /// through the TX scheduler retransmits on a later round if needed).
    pub sent: bool,
}

/// How an arriving request message consumes receiver resources, as far as
/// the receive window cares: sends bind a receive WQE in strict message
/// order, writes and reads do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Send,
    Write,
    Read,
}

/// What the engine should do with a fragment, per [`RxWindow::on_frag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Fresh fragment of a live message: install the payload.
    /// `completes` means every fragment of the message has now landed.
    Install { completes: bool },
    /// Send fragment whose message has no receive WQE yet: the engine
    /// binds at the floor ([`RxWindow::next_bind`]) and asks again. If the
    /// message still cannot bind (an earlier message is unclassified or
    /// unbound, or the RQ is empty) the payload drops and replay
    /// recovers it.
    Unbound,
    /// Drop the payload: a duplicate, a fragment of a rejected message,
    /// or an arrival out of sequence under the in-order rule. `reack`
    /// asks for a duplicate ACK — the message was delivered and its ACK
    /// was likely lost.
    Discard { reack: bool },
    /// In-order rule: an arrival out of sequence (dropped) cost the
    /// expected send message `msg_id` its partial progress and its receive
    /// WQE, which goes back to the front of the RQ so the replay rebinds
    /// the same buffer.
    Unbind { msg_id: u64 },
}

/// [`RxWindow::on_frag`] verdict plus an optional gap notice to emit: a
/// SACK naming the first missing message and the bitmap of its fragments
/// already held (low 64; anything past bit 63 is replayed
/// unconditionally). Under the in-order rule the first missing message
/// holds nothing, so the bitmap is 0 and the SACK acts as go-back-N's
/// sequence NAK.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    pub action: Action,
    pub sack: Option<(u64, u64)>,
}

/// Per-message fragment tracking inside the receive window.
#[derive(Debug, Clone)]
struct MsgState {
    kind: Kind,
    nfrags: u32,
    total_len: usize,
    frags: Frags,
    /// Sends: whether a receive WQE has been bound (writes/reads: true).
    bound: bool,
    /// Message rejected (length / protection error): nothing installs.
    poisoned: bool,
}

impl MsgState {
    fn new(kind: Kind, nfrags: u32) -> MsgState {
        MsgState {
            kind,
            nfrags,
            total_len: 0,
            frags: Frags::new(nfrags),
            bound: !matches!(kind, Kind::Send),
            poisoned: false,
        }
    }
}

/// Receiver side of an RC QP with retransmission armed: per-message
/// receive bitmaps, the cumulative delivery point, the send binding
/// floor, and the gap-notice decision. The QP's [`RetxMode`] is the
/// acceptance rule:
///
/// * selective repeat accepts fragments in any order, completes messages
///   out of order, and re-arms its gap notice when the delivery point
///   advances;
/// * go-back-N (the in-order rule) accepts only the next fragment of the
///   expected message and discards everything else; a gap also discards
///   the expected message's partial progress, and any accepted fragment
///   re-arms the gap notice.
///
/// Pure state machine — the engine owns WQE binding, memory installs,
/// and packet emission — so it is directly property-testable against a
/// naive model.
#[derive(Debug)]
pub struct RxWindow {
    /// Acceptance rule.
    rule: RetxMode,
    /// Every message below this id is fully delivered.
    expected_msg: u64,
    /// Messages at or above `expected_msg` that completed out of order.
    done: BTreeSet<u64>,
    /// In-progress messages.
    msgs: BTreeMap<u64, MsgState>,
    /// Lowest message id not yet resolved for WQE binding: sends bind in
    /// strict message order, so a send can bind only once every earlier
    /// message is delivered, bound, or known not to need a WQE.
    floor: u64,
    /// One gap notice per episode.
    sack_sent: bool,
}

impl RxWindow {
    pub fn new(rule: RetxMode) -> RxWindow {
        RxWindow {
            rule,
            expected_msg: 1,
            done: BTreeSet::new(),
            msgs: BTreeMap::new(),
            floor: 1,
            sack_sent: false,
        }
    }

    /// Next message id not yet fully delivered.
    pub fn expected_msg(&self) -> u64 {
        self.expected_msg
    }

    /// Whether `(msg_id, frag)` is the first contact with `msg_id`: any
    /// fragment of an unseen message under selective repeat, fragment 0 of
    /// the expected message under the in-order rule.
    pub fn opens(&self, msg_id: u64, frag: u32) -> bool {
        let known = msg_id < self.expected_msg
            || self.done.contains(&msg_id)
            || self.msgs.contains_key(&msg_id);
        !known && (self.rule == RetxMode::Sr || (msg_id == self.expected_msg && frag == 0))
    }

    /// Whether landing `frag` would complete `msg_id` (used by the engine
    /// to pre-check receiver resources before committing the fragment).
    pub fn completes_with(&self, msg_id: u64, frag: u32, nfrags: u32) -> bool {
        match self.msgs.get(&msg_id) {
            Some(m) => {
                m.bound && !m.poisoned && m.frags.count + 1 == m.nfrags && !m.frags.has(frag)
            }
            None => nfrags == 1 && self.opens(msg_id, frag),
        }
    }

    /// Total length of an in-progress message (recorded from its first
    /// arrived fragment; every fragment carries it on the wire).
    pub fn total_len(&self, msg_id: u64) -> usize {
        self.msgs.get(&msg_id).map_or(0, |m| m.total_len)
    }

    fn lowest_missing(&self, msg_id: u64) -> u32 {
        let Some(m) = self.msgs.get(&msg_id) else {
            return 0;
        };
        (0..m.nfrags).find(|&f| !m.frags.has(f)).unwrap_or(m.nfrags)
    }

    /// The gap notice for this episode, unless it was already sent.
    fn notice(&mut self) -> Option<(u64, u64)> {
        if self.sack_sent {
            return None;
        }
        self.sack_sent = true;
        let held = self
            .msgs
            .get(&self.expected_msg)
            .map_or(0, |m| m.frags.bits[0]);
        Some((self.expected_msg, held))
    }

    /// Process one arriving fragment. Classifies the message on first
    /// contact, applies the acceptance rule, tracks the receive bitmap,
    /// advances the cumulative delivery point on completion, and decides
    /// whether to emit a gap notice: once per episode, when the arrival
    /// lands ahead of the first missing position (a later message, or a
    /// fragment past the lowest hole of the expected message).
    pub fn on_frag(&mut self, msg_id: u64, frag: u32, nfrags: u32, kind: Kind) -> Decision {
        debug_assert!(frag < nfrags);
        if msg_id < self.expected_msg || self.done.contains(&msg_id) {
            return Decision {
                action: Action::Discard {
                    reack: frag + 1 == nfrags,
                },
                sack: None,
            };
        }
        let in_order = self.rule == RetxMode::Gbn;
        if in_order
            && (msg_id > self.expected_msg
                || frag > self.msgs.get(&msg_id).map_or(0, |m| m.frags.count))
        {
            return self.rewind();
        }
        let e = self
            .msgs
            .entry(msg_id)
            .or_insert_with(|| MsgState::new(kind, nfrags));
        // A rejected message never installs. Selective repeat drops its
        // fragments outright; the in-order rule still walks them through
        // the sequence so the delivery point moves past the message.
        let action = if e.poisoned && !in_order {
            Action::Discard { reack: false }
        } else if !e.bound && !e.poisoned {
            Action::Unbound
        } else if !e.frags.accept(self.rule, frag) {
            Action::Discard { reack: false }
        } else {
            let (completes, poisoned) = (e.frags.count == e.nfrags, e.poisoned);
            if completes {
                self.deliver(msg_id);
            }
            if in_order {
                self.sack_sent = false;
            }
            if poisoned {
                Action::Discard { reack: false }
            } else {
                Action::Install { completes }
            }
        };
        let gap = !in_order
            && (msg_id > self.expected_msg
                || (msg_id == self.expected_msg && frag > self.lowest_missing(msg_id)));
        let sack = if gap && !matches!(action, Action::Discard { .. }) {
            self.notice()
        } else {
            None
        };
        Decision { action, sack }
    }

    /// Mark `msg_id` delivered and advance the delivery point over every
    /// message completed since.
    fn deliver(&mut self, msg_id: u64) {
        self.msgs.remove(&msg_id);
        self.done.insert(msg_id);
        let before = self.expected_msg;
        while self.done.remove(&self.expected_msg) {
            self.expected_msg += 1;
        }
        if self.expected_msg > before {
            self.sack_sent = false;
        }
        if self.floor < self.expected_msg {
            self.floor = self.expected_msg;
        }
    }

    /// In-order rule, arrival out of sequence: the expected message loses
    /// its partial progress (and a bound send its receive WQE), so the
    /// replay is accepted from fragment 0.
    fn rewind(&mut self) -> Decision {
        let e = self.expected_msg;
        let action = match self.msgs.remove(&e) {
            Some(m) if m.kind == Kind::Send && m.bound => Action::Unbind { msg_id: e },
            _ => Action::Discard { reack: false },
        };
        self.floor = e;
        Decision {
            action,
            sack: self.notice(),
        }
    }

    /// Record the total message length from a fragment header (idempotent;
    /// the engine calls this so WQE binding can length-check the message
    /// even when fragment 0 has not arrived).
    pub fn note_total_len(&mut self, msg_id: u64, total_len: usize) {
        if let Some(m) = self.msgs.get_mut(&msg_id) {
            m.total_len = total_len;
        }
    }

    /// The next send message ready to bind a receive WQE, if any: the
    /// binding floor advances over delivered / bound / poisoned messages
    /// and stalls on the first unclassified gap (replay fills it) or the
    /// first unbound send (which this returns).
    pub fn next_bind(&mut self) -> Option<u64> {
        loop {
            if self.floor < self.expected_msg {
                self.floor = self.expected_msg;
                continue;
            }
            if self.done.contains(&self.floor) {
                self.floor += 1;
                continue;
            }
            match self.msgs.get(&self.floor) {
                Some(m) if m.bound || m.poisoned => {
                    self.floor += 1;
                    continue;
                }
                Some(m) => {
                    debug_assert!(matches!(m.kind, Kind::Send));
                    return Some(self.floor);
                }
                None => return None,
            }
        }
    }

    /// Mark a send message as having bound its receive WQE.
    pub fn bound(&mut self, msg_id: u64) {
        if let Some(m) = self.msgs.get_mut(&msg_id) {
            m.bound = true;
        }
    }

    /// Reject a message (length / protection error): none of its
    /// fragments installs from now on and it never blocks the binding
    /// floor.
    pub fn poison(&mut self, msg_id: u64, nfrags: u32, kind: Kind) {
        self.msgs
            .entry(msg_id)
            .or_insert_with(|| MsgState::new(kind, nfrags))
            .poisoned = true;
    }

    /// The engine RNR-NAKed the message at the binding floor. Under the
    /// in-order rule the NAK already tells the sender where to restart, so
    /// gap notices stay muted until the next accepted fragment; selective
    /// repeat leaves the message unbound and may SACK on its next
    /// fragment.
    pub fn rnr(&mut self) {
        if self.rule == RetxMode::Gbn {
            self.sack_sent = true;
        }
    }
}

/// Retransmission state for one RC QP (sender and receiver roles), armed
/// by `Nic::set_rc_retx`.
#[derive(Debug)]
pub struct RetxState {
    pub cfg: RetxConfig,
    /// Unacked WQEs in message order (the replay window).
    pub window: VecDeque<RetxEntry>,
    /// Messages queued for replay, consumed by the TX scheduler ahead of
    /// fresh sends.
    pub rtx: VecDeque<u64>,
    /// Pending retransmit timer (tombstone-cancelled on ACK progress).
    pub timer: Option<TimerHandle>,
    /// Consecutive timeouts without ACK progress.
    pub retries: u32,
    /// Consecutive RNR NAKs without ACK progress.
    pub rnr_retries: u32,
    /// Pending RNR backoff timer (cancelled on flush).
    pub rnr_timer: Option<TimerHandle>,
    /// First message to replay when the RNR backoff fires (the message
    /// the responder RNR-NAKed).
    pub rnr_from: u64,
    /// Messages queued for replay over the QP's lifetime (diagnostics).
    pub replayed: u64,
    /// Sender side, selective repeat: per-message bitmaps of fragments
    /// the receiver SACKed as already held — skipped on replay. Bits are
    /// sticky-correct (an installed fragment never un-installs), so stale
    /// masks can only suppress redundant traffic, never lose data.
    pub rtx_mask: HashMap<u64, u64>,
    /// Receiver side: the receive window, with `cfg.mode` as its
    /// acceptance rule.
    pub rx_window: RxWindow,
}

impl RetxState {
    pub fn new(cfg: RetxConfig) -> RetxState {
        RetxState {
            cfg,
            window: VecDeque::new(),
            rtx: VecDeque::new(),
            timer: None,
            retries: 0,
            rnr_retries: 0,
            rnr_timer: None,
            rnr_from: 0,
            replayed: 0,
            rtx_mask: HashMap::new(),
            rx_window: RxWindow::new(cfg.mode),
        }
    }

    /// Cancel the retransmit and RNR backoff timers (tombstones in the
    /// wheel), so a disarmed or flushed QP leaves nothing pending.
    pub fn cancel_timers(&mut self, sim: &Sim) {
        for h in [self.timer.take(), self.rnr_timer.take()]
            .into_iter()
            .flatten()
        {
            sim.cancel_scheduled(h);
        }
    }

    /// Queue every fully transmitted unacked message for replay, in
    /// message order. Returns how many were queued.
    pub fn queue_replay(&mut self) -> u64 {
        self.queue_replay_from(0)
    }

    /// [`RetxState::queue_replay`] restricted to messages at or after
    /// `from` — a gap notice names the responder's first missing
    /// message, and replaying anything older would only burn bottleneck
    /// bandwidth on duplicates the receiver discards.
    pub fn queue_replay_from(&mut self, from: u64) -> u64 {
        self.rtx.clear();
        let mut n = 0;
        for e in &self.window {
            if e.sent && e.msg_id >= from {
                self.rtx.push_back(e.msg_id);
                n += 1;
            }
        }
        self.replayed += n;
        n
    }

    /// Pop the next queued replay: its message id, the window's WQE
    /// snapshot, the fragments the receiver SACKed as held (this pass
    /// skips them; a later round re-learns the grown bitmap from the next
    /// SACK), and whether the queue is now drained. `None` once ACKs have
    /// emptied the queue — [`RetxState::ack`] unqueues what it removes.
    pub fn next_replay(&mut self) -> Option<(u64, SendWqe, u64, bool)> {
        let msg_id = self.rtx.pop_front()?;
        let wqe = self.window.iter().find(|e| e.msg_id == msg_id)?.wqe.clone();
        let skip = self.rtx_mask.remove(&msg_id).unwrap_or(0);
        Some((msg_id, wqe, skip, self.rtx.is_empty()))
    }

    /// Drop `msg_id` from the window (and any queued replay of it) after
    /// its ACK / read completion. Returns whether it was present.
    pub fn ack(&mut self, msg_id: u64) -> bool {
        let Some(pos) = self.window.iter().position(|e| e.msg_id == msg_id) else {
            return false;
        };
        self.window.remove(pos);
        self.rtx.retain(|&m| m != msg_id);
        self.rtx_mask.remove(&msg_id);
        self.retries = 0;
        self.rnr_retries = 0;
        true
    }
}

/// Responder side: the receive WQE an inbound send message is bound to,
/// kept in [`Qp::recv_asm`] until the message's last fragment lands.
#[derive(Clone)]
pub struct RecvAssembly {
    pub wqe: RecvWqe,
    /// Landing arena resolved from the receive WQE's lkey.
    pub mem: cord_hw::GuestMem,
}

/// TX progress of the WQE currently being segmented.
#[derive(Clone)]
pub struct TxProgress {
    pub wqe: SendWqe,
    pub msg_id: u64,
    pub next_frag: u32,
    pub nfrags: u32,
    /// Source arena resolved from the WQE's lkey.
    pub mem: cord_hw::GuestMem,
    /// Selective-repeat replay: bitmap of fragments the receiver SACKed
    /// as already held — the segmenter skips them (0 on first passes and
    /// in go-back-N mode; fragments ≥ 64 always transmit).
    pub skip: u64,
}

/// A queue pair.
pub struct Qp {
    pub num: QpNum,
    pub transport: Transport,
    pub state: QpState,
    pub send_cq: Cq,
    pub recv_cq: Cq,
    /// Connected peer (RC only).
    pub peer: Option<(NodeId, QpNum)>,
    pub sq: VecDeque<SendWqe>,
    pub rq: VecDeque<RecvWqe>,
    pub sq_depth: usize,
    pub rq_depth: usize,
    pub next_msg_id: u64,
    /// The WQE currently being transmitted (burst-resumable).
    pub tx: Option<TxProgress>,
    /// Whether this QP sits in the NIC's round-robin TX ring.
    pub in_ring: bool,
    /// TX stalled on the outstanding-read limit.
    pub stalled_rd: bool,
    pub outstanding_reads: usize,
    pub max_rd_atomic: usize,
    pub pending_acks: HashMap<u64, PendingAck>,
    pub pending_reads: HashMap<u64, PendingRead>,
    /// Inbound send reassemblies keyed by message id: one at a time in
    /// arrival order, several at once under selective repeat.
    pub recv_asm: BTreeMap<u64, RecvAssembly>,
    /// DCQCN sender state (`Some` iff the QP's CC knob is `Dcqcn`). On the
    /// receive side its presence also enables CNP echo for marked arrivals.
    pub dcqcn: Option<Dcqcn>,
    /// RC retransmission state (`Some` iff armed via `Nic::set_rc_retx`).
    /// Sender side: unacked window + retransmit timer; receiver side: the
    /// receive window. Without it, request fragments are accepted in
    /// arrival order.
    pub retx: Option<RetxState>,
    /// Last CNP echoed from this QP (receiver-side CNP rate limiting).
    pub last_cnp_tx: Option<SimTime>,
    /// Counters for observability (exported by the CoRD stats policy).
    pub tx_msgs: u64,
    pub rx_msgs: u64,
    pub tx_bytes: u64,
    pub rx_bytes: u64,
}

impl Qp {
    pub fn new(
        num: QpNum,
        transport: Transport,
        send_cq: Cq,
        recv_cq: Cq,
        sq_depth: usize,
        rq_depth: usize,
        max_rd_atomic: usize,
    ) -> Self {
        Qp {
            num,
            transport,
            state: QpState::Reset,
            send_cq,
            recv_cq,
            peer: None,
            sq: VecDeque::new(),
            rq: VecDeque::new(),
            sq_depth,
            rq_depth,
            next_msg_id: 1,
            tx: None,
            in_ring: false,
            stalled_rd: false,
            outstanding_reads: 0,
            max_rd_atomic,
            pending_acks: HashMap::new(),
            pending_reads: HashMap::new(),
            recv_asm: BTreeMap::new(),
            dcqcn: None,
            retx: None,
            last_cnp_tx: None,
            tx_msgs: 0,
            rx_msgs: 0,
            tx_bytes: 0,
            rx_bytes: 0,
        }
    }

    /// RESET → INIT (`ibv_modify_qp` with pkey/port).
    pub fn to_init(&mut self) -> Result<(), VerbsError> {
        match self.state {
            QpState::Reset => {
                self.state = QpState::Init;
                Ok(())
            }
            s => Err(VerbsError::InvalidState {
                expected: "RESET",
                actual: s,
            }),
        }
    }

    /// INIT → RTR; RC requires the remote endpoint.
    pub fn to_rtr(&mut self, peer: Option<(NodeId, QpNum)>) -> Result<(), VerbsError> {
        match self.state {
            QpState::Init => {
                if self.transport == Transport::Rc && peer.is_none() {
                    return Err(VerbsError::MissingRemoteInfo);
                }
                self.peer = peer;
                self.state = QpState::Rtr;
                Ok(())
            }
            s => Err(VerbsError::InvalidState {
                expected: "INIT",
                actual: s,
            }),
        }
    }

    /// RTR → RTS.
    pub fn to_rts(&mut self) -> Result<(), VerbsError> {
        match self.state {
            QpState::Rtr => {
                self.state = QpState::Rts;
                Ok(())
            }
            s => Err(VerbsError::InvalidState {
                expected: "RTR",
                actual: s,
            }),
        }
    }

    /// Validate and enqueue a send WQE. Does not ring the doorbell.
    pub fn push_send(&mut self, wqe: SendWqe, mtu: usize) -> Result<(), VerbsError> {
        if self.state != QpState::Rts {
            return Err(VerbsError::InvalidState {
                expected: "RTS",
                actual: self.state,
            });
        }
        if self.sq.len() >= self.sq_depth {
            return Err(VerbsError::QueueFull);
        }
        match self.transport {
            Transport::Ud => {
                if wqe.opcode != Opcode::Send {
                    return Err(VerbsError::OpNotSupported {
                        op: wqe.opcode,
                        transport: Transport::Ud,
                    });
                }
                if wqe.sge.len > mtu {
                    return Err(VerbsError::MessageTooLong {
                        len: wqe.sge.len,
                        max: mtu,
                    });
                }
                if wqe.ud_dest.is_none() {
                    return Err(VerbsError::MissingDestination);
                }
            }
            Transport::Rc => {
                if wqe.opcode != Opcode::Send && wqe.remote.is_none() {
                    return Err(VerbsError::MissingRemoteInfo);
                }
            }
        }
        self.sq.push_back(wqe);
        Ok(())
    }

    /// Validate and enqueue a receive WQE.
    pub fn push_recv(&mut self, wqe: RecvWqe) -> Result<(), VerbsError> {
        // Receives may be posted from INIT onwards (IB allows posting in
        // INIT; they only complete once RTR).
        match self.state {
            QpState::Init | QpState::Rtr | QpState::Rts => {}
            s => {
                return Err(VerbsError::InvalidState {
                    expected: "INIT/RTR/RTS",
                    actual: s,
                })
            }
        }
        if self.rq.len() >= self.rq_depth {
            return Err(VerbsError::QueueFull);
        }
        self.rq.push_back(wqe);
        Ok(())
    }

    /// The QP's congestion-control algorithm.
    pub fn cc(&self) -> CcAlgorithm {
        if self.dcqcn.is_some() {
            CcAlgorithm::Dcqcn
        } else {
            CcAlgorithm::None
        }
    }

    pub fn alloc_msg_id(&mut self) -> u64 {
        let id = self.next_msg_id;
        self.next_msg_id += 1;
        id
    }

    /// Pop the SQ head as a fresh message: allocate its id and, with
    /// retransmission armed, open its window entry.
    pub fn next_fresh(&mut self) -> Option<(u64, SendWqe)> {
        let wqe = self.sq.pop_front()?;
        let msg_id = self.alloc_msg_id();
        if let Some(rx) = self.retx.as_mut() {
            rx.window.push_back(RetxEntry {
                msg_id,
                wqe: wqe.clone(),
                sent: false,
            });
        }
        Some((msg_id, wqe))
    }

    /// The receive window, if retransmission is armed.
    pub fn rx_window(&mut self) -> Option<&mut RxWindow> {
        self.retx.as_mut().map(|rx| &mut rx.rx_window)
    }

    /// The receive window's verdict on an arriving request fragment, or
    /// `None` when the QP keeps no window (retransmission disarmed: the
    /// engine accepts fragments in arrival order). An [`Action::Unbind`]
    /// is carried out here — the receive WQE goes back to the front of the
    /// RQ — and reported as a silent discard.
    pub fn rx_verdict(
        &mut self,
        msg_id: u64,
        frag: u32,
        nfrags: u32,
        kind: Kind,
        total_len: usize,
    ) -> Option<Decision> {
        let w = self.rx_window()?;
        let mut d = w.on_frag(msg_id, frag, nfrags, kind);
        if kind == Kind::Send {
            w.note_total_len(msg_id, total_len);
        }
        if let Action::Unbind { msg_id } = d.action {
            if let Some(asm) = self.recv_asm.remove(&msg_id) {
                self.rq.push_front(asm.wqe);
            }
            d.action = Action::Discard { reack: false };
        }
        Some(d)
    }

    /// Move to the error state; remaining queued WQEs flush with errors.
    /// Returns the flushed send WQEs (the engine emits flush CQEs).
    pub fn enter_error(&mut self) -> (Vec<SendWqe>, Vec<RecvWqe>) {
        self.state = QpState::Error;
        let sq = self.sq.drain(..).collect();
        let rq = self.rq.drain(..).collect();
        (sq, rq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::Cq;
    use crate::types::{CqId, LKey, RKey};
    use crate::wqe::{Sge, UdDest};

    fn mk_qp(t: Transport) -> Qp {
        Qp::new(
            QpNum(1),
            t,
            Cq::new(CqId(0), 64),
            Cq::new(CqId(1), 64),
            4,
            4,
            16,
        )
    }

    fn sge(len: usize) -> Sge {
        Sge {
            addr: 0x1_0000,
            len,
            lkey: LKey(1),
        }
    }

    #[test]
    fn state_machine_happy_path() {
        let mut qp = mk_qp(Transport::Rc);
        assert_eq!(qp.state, QpState::Reset);
        qp.to_init().unwrap();
        qp.to_rtr(Some((1, QpNum(2)))).unwrap();
        qp.to_rts().unwrap();
        assert_eq!(qp.state, QpState::Rts);
        assert_eq!(qp.peer, Some((1, QpNum(2))));
    }

    #[test]
    fn state_machine_rejects_skips() {
        let mut qp = mk_qp(Transport::Rc);
        assert!(qp.to_rtr(Some((1, QpNum(2)))).is_err());
        assert!(qp.to_rts().is_err());
        qp.to_init().unwrap();
        assert!(qp.to_init().is_err(), "double INIT");
        assert!(qp.to_rts().is_err(), "INIT→RTS skips RTR");
    }

    #[test]
    fn rc_rtr_requires_peer() {
        let mut qp = mk_qp(Transport::Rc);
        qp.to_init().unwrap();
        assert_eq!(qp.to_rtr(None), Err(VerbsError::MissingRemoteInfo));
        // UD needs no peer.
        let mut ud = mk_qp(Transport::Ud);
        ud.to_init().unwrap();
        ud.to_rtr(None).unwrap();
    }

    #[test]
    fn post_send_requires_rts() {
        let mut qp = mk_qp(Transport::Rc);
        qp.to_init().unwrap();
        let err = qp.push_send(SendWqe::send(WrId(1), sge(16)), 4096);
        assert!(matches!(err, Err(VerbsError::InvalidState { .. })));
    }

    #[test]
    fn sq_depth_enforced() {
        let mut qp = mk_qp(Transport::Rc);
        qp.to_init().unwrap();
        qp.to_rtr(Some((1, QpNum(2)))).unwrap();
        qp.to_rts().unwrap();
        for i in 0..4 {
            qp.push_send(SendWqe::send(WrId(i), sge(16)), 4096).unwrap();
        }
        assert_eq!(
            qp.push_send(SendWqe::send(WrId(9), sge(16)), 4096),
            Err(VerbsError::QueueFull)
        );
    }

    #[test]
    fn ud_restrictions() {
        let mut qp = mk_qp(Transport::Ud);
        qp.to_init().unwrap();
        qp.to_rtr(None).unwrap();
        qp.to_rts().unwrap();
        // RDMA ops rejected.
        let w = SendWqe::write(WrId(1), sge(16), 0x2000, RKey(1));
        assert!(matches!(
            qp.push_send(w, 4096),
            Err(VerbsError::OpNotSupported { .. })
        ));
        // Over-MTU rejected.
        let big = SendWqe::send(WrId(2), sge(5000)).with_ud_dest(UdDest {
            node: 1,
            qpn: QpNum(3),
        });
        assert!(matches!(
            qp.push_send(big, 4096),
            Err(VerbsError::MessageTooLong { .. })
        ));
        // Missing destination rejected.
        let nodest = SendWqe::send(WrId(3), sge(64));
        assert_eq!(
            qp.push_send(nodest, 4096),
            Err(VerbsError::MissingDestination)
        );
        // Valid UD send accepted.
        let ok = SendWqe::send(WrId(4), sge(64)).with_ud_dest(UdDest {
            node: 1,
            qpn: QpNum(3),
        });
        qp.push_send(ok, 4096).unwrap();
    }

    #[test]
    fn rc_one_sided_requires_remote() {
        let mut qp = mk_qp(Transport::Rc);
        qp.to_init().unwrap();
        qp.to_rtr(Some((1, QpNum(2)))).unwrap();
        qp.to_rts().unwrap();
        let mut w = SendWqe::write(WrId(1), sge(16), 0x2000, RKey(1));
        w.remote = None;
        assert_eq!(qp.push_send(w, 4096), Err(VerbsError::MissingRemoteInfo));
    }

    #[test]
    fn recv_posting_allowed_from_init() {
        let mut qp = mk_qp(Transport::Rc);
        qp.to_init().unwrap();
        qp.push_recv(RecvWqe::new(WrId(1), sge(64))).unwrap();
        // But not in RESET.
        let mut fresh = mk_qp(Transport::Rc);
        assert!(fresh.push_recv(RecvWqe::new(WrId(1), sge(64))).is_err());
    }

    #[test]
    fn error_state_flushes_queues() {
        let mut qp = mk_qp(Transport::Rc);
        qp.to_init().unwrap();
        qp.to_rtr(Some((1, QpNum(2)))).unwrap();
        qp.to_rts().unwrap();
        qp.push_send(SendWqe::send(WrId(1), sge(16)), 4096).unwrap();
        qp.push_recv(RecvWqe::new(WrId(2), sge(16))).unwrap();
        let (sq, rq) = qp.enter_error();
        assert_eq!(sq.len(), 1);
        assert_eq!(rq.len(), 1);
        assert_eq!(qp.state, QpState::Error);
        assert!(qp.push_send(SendWqe::send(WrId(3), sge(16)), 4096).is_err());
    }

    #[test]
    fn msg_ids_are_unique() {
        let mut qp = mk_qp(Transport::Rc);
        let a = qp.alloc_msg_id();
        let b = qp.alloc_msg_id();
        assert_ne!(a, b);
    }

    fn mk_retx_qp() -> Qp {
        let mut qp = mk_qp(Transport::Rc);
        qp.retx = Some(RetxState::new(RetxConfig::default()));
        qp
    }

    fn gbn() -> RxWindow {
        RxWindow::new(RetxMode::Gbn)
    }

    fn install(completes: bool) -> Action {
        Action::Install { completes }
    }

    fn discard(reack: bool) -> Action {
        Action::Discard { reack }
    }

    #[test]
    fn rx_seq_accepts_in_order_and_advances() {
        let mut w = gbn();
        // msg 1: three fragments in order, then msg 2 single-fragment.
        assert_eq!(w.on_frag(1, 0, 3, Kind::Write).action, install(false));
        assert_eq!(w.on_frag(1, 1, 3, Kind::Write).action, install(false));
        assert_eq!(w.on_frag(1, 2, 3, Kind::Write).action, install(true));
        assert_eq!(w.on_frag(2, 0, 1, Kind::Write).action, install(true));
        assert_eq!(w.expected_msg(), 3);
        // Without retx armed the QP keeps no window: arrival order rules.
        let mut plain = mk_qp(Transport::Rc);
        assert_eq!(plain.rx_verdict(9, 5, 6, Kind::Write, 0), None);
    }

    #[test]
    fn rx_seq_naks_once_per_gap_and_resumes_on_progress() {
        let mut w = gbn();
        assert_eq!(w.on_frag(1, 0, 4, Kind::Write).action, install(false));
        // Fragment 1 lost: 2 arrives out of order — one gap notice naming
        // msg 1 with nothing held, then silence.
        let d = w.on_frag(1, 2, 4, Kind::Write);
        assert_eq!((d.action, d.sack), (discard(false), Some((1, 0))));
        assert_eq!(w.on_frag(1, 3, 4, Kind::Write).sack, None);
        // Later messages during the same gap stay suppressed too.
        let d = w.on_frag(2, 0, 1, Kind::Write);
        assert_eq!((d.action, d.sack), (discard(false), None));
        // Go-back-N replay restarts msg 1 from fragment 0 and is accepted;
        // progress re-arms the notice for the next gap.
        assert_eq!(w.on_frag(1, 0, 4, Kind::Write).action, install(false));
        assert_eq!(w.on_frag(1, 1, 4, Kind::Write).action, install(false));
        assert_eq!(w.on_frag(1, 3, 4, Kind::Write).sack, Some((1, 0)));
    }

    #[test]
    fn rx_seq_gap_rewinds_partial_reassembly() {
        let mut qp = mk_retx_qp();
        qp.to_init().unwrap();
        qp.push_recv(RecvWqe::new(WrId(77), sge(192))).unwrap();
        qp.push_recv(RecvWqe::new(WrId(78), sge(192))).unwrap();
        // Msg 1 is a send: its first fragment finds no WQE bound yet, so
        // the engine binds one at the floor and asks again.
        let d = qp.rx_verdict(1, 0, 3, Kind::Send, 192).unwrap();
        assert_eq!(d.action, Action::Unbound);
        let w = qp.rx_window().unwrap();
        assert_eq!(w.next_bind(), Some(1));
        assert_eq!(w.total_len(1), 192);
        w.bound(1);
        let wqe = qp.rq.pop_front().unwrap();
        let mem = cord_hw::GuestMem::new();
        qp.recv_asm.insert(1, RecvAssembly { wqe, mem });
        let d = qp.rx_verdict(1, 0, 3, Kind::Send, 192).unwrap();
        assert_eq!(d.action, install(false));
        // Fragment 1 lost: the gap unbinds msg 1 (the window says so)...
        let mut w = gbn();
        assert_eq!(w.on_frag(1, 0, 3, Kind::Send).action, Action::Unbound);
        w.bound(1);
        assert_eq!(w.on_frag(1, 0, 3, Kind::Send).action, install(false));
        assert_eq!(
            w.on_frag(1, 2, 3, Kind::Send).action,
            Action::Unbind { msg_id: 1 }
        );
        assert_eq!(w.next_bind(), None, "msg 1 rebinds only on its replay");
        // ...and the QP returns the bound receive WQE to the front of the
        // RQ, so the replay rebinds the same buffer from fragment 0.
        let d = qp.rx_verdict(1, 2, 3, Kind::Send, 192).unwrap();
        assert_eq!((d.action, d.sack), (discard(false), Some((1, 0))));
        assert!(qp.recv_asm.is_empty());
        let rq: Vec<WrId> = qp.rq.iter().map(|r| r.wr_id).collect();
        assert_eq!(rq, [WrId(77), WrId(78)]);
        let d = qp.rx_verdict(1, 0, 3, Kind::Send, 192).unwrap();
        assert_eq!(d.action, Action::Unbound);
        assert_eq!(qp.rx_window().unwrap().next_bind(), Some(1));
    }

    #[test]
    fn rx_seq_duplicates_reack_only_on_last_fragment() {
        let mut w = gbn();
        assert_eq!(w.on_frag(1, 0, 2, Kind::Write).action, install(false));
        assert_eq!(w.on_frag(1, 1, 2, Kind::Write).action, install(true));
        // Replay of the delivered message: drop payload, re-ACK at the end.
        assert_eq!(w.on_frag(1, 0, 2, Kind::Write).action, discard(false));
        assert_eq!(w.on_frag(1, 1, 2, Kind::Write).action, discard(true));
        // Replay duplicate of an already-landed fragment inside the
        // current message: silent drop, no rewind, no gap notice.
        assert_eq!(w.on_frag(2, 0, 3, Kind::Write).action, install(false));
        assert_eq!(w.on_frag(2, 1, 3, Kind::Write).action, install(false));
        let d = w.on_frag(2, 0, 3, Kind::Write);
        assert_eq!((d.action, d.sack), (discard(false), None));
        assert_eq!(w.on_frag(2, 2, 3, Kind::Write).action, install(true));
        assert_eq!(w.expected_msg(), 3);
    }

    #[test]
    fn retx_window_acks_in_any_order_and_queues_sent_entries() {
        let mut rx = RetxState::new(RetxConfig::default());
        for id in 1..=4u64 {
            rx.window.push_back(RetxEntry {
                msg_id: id,
                wqe: SendWqe::send(WrId(id), sge(64)),
                sent: id <= 3, // msg 4 still streaming
            });
        }
        assert_eq!(rx.queue_replay(), 3, "only fully-sent entries replay");
        assert_eq!(rx.rtx, [1, 2, 3]);
        // ACK for msg 2 (out of order): removed from window and replay
        // queue; retries reset.
        rx.retries = 5;
        assert!(rx.ack(2));
        assert!(!rx.ack(2), "double ACK is a no-op");
        assert_eq!(rx.retries, 0);
        assert_eq!(rx.rtx, [1, 3]);
        assert_eq!(
            rx.window.iter().map(|e| e.msg_id).collect::<Vec<_>>(),
            [1, 3, 4]
        );
        // Replay ordering is message order, regardless of ACK history.
        assert_eq!(rx.queue_replay(), 2);
        assert_eq!(rx.rtx, [1, 3]);
    }

    #[test]
    fn frags_accept_by_rule() {
        // The in-order rule takes only the next fragment in sequence.
        let mut gbn = Frags::new(130);
        assert!(gbn.accept(RetxMode::Gbn, 0));
        assert!(!gbn.accept(RetxMode::Gbn, 2), "a gap is refused");
        assert!(!gbn.accept(RetxMode::Gbn, 0), "a duplicate is refused");
        assert!(gbn.accept(RetxMode::Gbn, 1));
        assert_eq!(gbn.count, 2);
        // Selective repeat takes any fragment not yet held, past the
        // first 64 too.
        let mut sr = Frags::new(130);
        assert!(sr.accept(RetxMode::Sr, 129));
        assert!(sr.accept(RetxMode::Sr, 0));
        assert!(!sr.accept(RetxMode::Sr, 129), "a duplicate is refused");
        assert!(sr.has(129) && sr.has(0) && !sr.has(64));
        assert_eq!(sr.count, 2);
    }

    #[test]
    fn sr_window_accepts_out_of_order_and_completes() {
        let mut w = RxWindow::new(RetxMode::Sr);
        // Writes need no WQE binding: fragments land in any order.
        let d = w.on_frag(1, 2, 3, Kind::Write);
        assert_eq!(d.action, Action::Install { completes: false });
        // Arrival past the first hole of the expected message → SACK
        // naming msg 1 with bit 2 set.
        assert_eq!(d.sack, Some((1, 0b100)));
        let d = w.on_frag(1, 0, 3, Kind::Write);
        assert_eq!(d.action, Action::Install { completes: false });
        assert_eq!(d.sack, None, "one SACK per gap episode");
        let d = w.on_frag(1, 1, 3, Kind::Write);
        assert_eq!(d.action, Action::Install { completes: true });
        assert_eq!(w.expected_msg(), 2);
        // Message 3 completes before message 2: delivery point holds.
        assert_eq!(
            w.on_frag(3, 0, 1, Kind::Write).action,
            Action::Install { completes: true }
        );
        assert_eq!(w.expected_msg(), 2);
        assert_eq!(
            w.on_frag(2, 0, 1, Kind::Write).action,
            Action::Install { completes: true }
        );
        assert_eq!(w.expected_msg(), 4, "delivery point jumps over done msgs");
    }

    #[test]
    fn sr_window_duplicates_reack_only_on_last_fragment() {
        let mut w = RxWindow::new(RetxMode::Sr);
        assert_eq!(
            w.on_frag(1, 0, 2, Kind::Write).action,
            Action::Install { completes: false }
        );
        // Same fragment again: silent drop.
        assert_eq!(
            w.on_frag(1, 0, 2, Kind::Write).action,
            Action::Discard { reack: false }
        );
        assert_eq!(
            w.on_frag(1, 1, 2, Kind::Write).action,
            Action::Install { completes: true }
        );
        // Replay of the delivered message: re-ACK only on its last frag.
        assert_eq!(
            w.on_frag(1, 0, 2, Kind::Write).action,
            Action::Discard { reack: false }
        );
        assert_eq!(
            w.on_frag(1, 1, 2, Kind::Write).action,
            Action::Discard { reack: true }
        );
    }

    #[test]
    fn sr_window_binds_sends_in_message_order() {
        let mut w = RxWindow::new(RetxMode::Sr);
        // Msg 2's fragment arrives before anything of msg 1: it cannot
        // bind (msg 1 unclassified), so the payload drops.
        assert_eq!(w.on_frag(2, 0, 2, Kind::Send).action, Action::Unbound);
        assert_eq!(w.next_bind(), None, "floor stalls on unclassified msg 1");
        // Msg 1 turns out to be a write: the floor advances and msg 2
        // becomes bindable.
        assert_eq!(
            w.on_frag(1, 0, 1, Kind::Write).action,
            Action::Install { completes: true }
        );
        assert_eq!(w.next_bind(), Some(2));
        w.bound(2);
        assert_eq!(w.next_bind(), None);
        // Bound now: the retried fragment installs.
        assert_eq!(
            w.on_frag(2, 0, 2, Kind::Send).action,
            Action::Install { completes: false }
        );
        assert_eq!(
            w.on_frag(2, 1, 2, Kind::Send).action,
            Action::Install { completes: true }
        );
        assert_eq!(w.expected_msg(), 3);
    }

    #[test]
    fn sr_window_poisoned_messages_drop_and_skip_floor() {
        let mut w = RxWindow::new(RetxMode::Sr);
        w.poison(1, 2, Kind::Send);
        assert_eq!(w.next_bind(), None, "poisoned send never binds");
        assert_eq!(
            w.on_frag(1, 0, 2, Kind::Send).action,
            Action::Discard { reack: false }
        );
        // A later send is still bindable: the floor skips the poisoned msg.
        assert_eq!(w.on_frag(2, 0, 1, Kind::Send).action, Action::Unbound);
        assert_eq!(w.next_bind(), Some(2));
    }

    #[test]
    fn sr_window_sack_carries_expected_msg_bitmap() {
        let mut w = RxWindow::new(RetxMode::Sr);
        // Msg 1 partially lands, then msg 2 arrives: the SACK names msg 1
        // (first missing) with its received bitmap.
        assert_eq!(w.on_frag(1, 0, 4, Kind::Write).sack, None);
        assert_eq!(w.on_frag(1, 3, 4, Kind::Write).sack, Some((1, 0b1001)));
        // Suppressed until progress...
        assert_eq!(w.on_frag(2, 0, 1, Kind::Write).sack, None);
        assert_eq!(w.on_frag(1, 1, 4, Kind::Write).sack, None);
        // ...completing msg 1 advances the point and re-arms the SACK.
        let d = w.on_frag(1, 2, 4, Kind::Write);
        assert_eq!(d.action, Action::Install { completes: true });
        assert_eq!(w.expected_msg(), 3);
        let d = w.on_frag(4, 0, 1, Kind::Write);
        assert_eq!(d.action, Action::Install { completes: true });
        assert_eq!(d.sack, Some((3, 0)), "never-seen msg SACKs an empty bitmap");
    }
}
