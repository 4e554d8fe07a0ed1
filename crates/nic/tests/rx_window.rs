//! Property tests of the receive window under both acceptance rules.
//!
//! [`RxWindow`] is a pure state machine (the engine owns WQE binding,
//! DMA, and packet emission), so it can be driven directly with
//! adversarial fragment schedules drawn from `DetRng`, and every verdict
//! checked against a reference:
//!
//! * selective repeat, under loss, reordering and duplication, against a
//!   naive model that remembers which `(msg, frag)` pairs have landed in
//!   a `BTreeSet`;
//! * go-back-N (the in-order rule), under loss and racing replays on an
//!   in-order fabric, against the classic receiver gate of three
//!   scalars: `(expected_msg, expected_frag, nak_sent)`.

use std::collections::{BTreeMap, BTreeSet};

use cord_nic::{Action, Kind, RetxMode, RxWindow};
use cord_sim::DetRng;

/// The naive reference: installed fragments as a plain set, plus each
/// message's fragment count.
#[derive(Default)]
struct Model {
    installed: BTreeSet<(u64, u32)>,
    nfrags: BTreeMap<u64, u32>,
}

impl Model {
    fn complete(&self, msg: u64) -> bool {
        self.nfrags
            .get(&msg)
            .is_some_and(|&n| (0..n).all(|f| self.installed.contains(&(msg, f))))
    }

    /// Smallest message id (from 1) not yet fully delivered.
    fn expected(&self) -> u64 {
        (1..).find(|&m| !self.complete(m)).unwrap()
    }

    /// Bitmap of the low 64 fragments `msg` already holds.
    fn low64(&self, msg: u64) -> u64 {
        (0..64u32)
            .filter(|&f| self.installed.contains(&(msg, f)))
            .fold(0u64, |acc, f| acc | 1 << f)
    }
}

/// The go-back-N reference: a receiver that tracks only the next
/// expected `(message, fragment)` and whether the current gap was
/// already NAKed.
struct Gate {
    expected_msg: u64,
    expected_frag: u32,
    nak_sent: bool,
}

#[derive(Debug, PartialEq)]
enum Verdict {
    /// In sequence: land it.
    Accept,
    /// Out of sequence or duplicate: discard, NAKing once per gap.
    Drop { nak: bool },
    /// Duplicate of a fully delivered message's last fragment: re-ACK.
    DupAck,
}

impl Gate {
    fn new() -> Gate {
        Gate {
            expected_msg: 1,
            expected_frag: 0,
            nak_sent: false,
        }
    }

    fn check(&mut self, msg: u64, frag: u32, last: bool) -> Verdict {
        if msg < self.expected_msg {
            return if last {
                Verdict::DupAck
            } else {
                Verdict::Drop { nak: false }
            };
        }
        if msg > self.expected_msg || frag > self.expected_frag {
            // Gap: the replay restarts the expected message at fragment 0.
            let nak = !self.nak_sent;
            self.nak_sent = true;
            self.expected_frag = 0;
            return Verdict::Drop { nak };
        }
        if frag < self.expected_frag {
            return Verdict::Drop { nak: false };
        }
        self.expected_frag += 1;
        self.nak_sent = false;
        if last {
            self.expected_msg += 1;
            self.expected_frag = 0;
        }
        Verdict::Accept
    }
}

/// Deterministic Fisher–Yates shuffle on `DetRng`.
fn shuffle<T>(v: &mut [T], rng: &DetRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.uniform_range(0, i as u64 + 1) as usize);
    }
}

/// Rounds during which the fabric loses fragments; later rounds are
/// clean, so go-back-N — which needs one loss-free pass of a whole
/// message — drains even 130-fragment messages.
const LOSSY_ROUNDS: u32 = 50;

/// Drive `msgs` write messages (writes bind implicitly, isolating the
/// bitmap/ordering logic from WQE binding) through a window with
/// acceptance rule `rule`, in rounds; each fragment is lost with
/// probability `loss`. Every verdict is cross-checked against the rule's
/// reference.
///
/// * Selective repeat: each round offers the outstanding fragments in a
///   random order and re-offers already-installed ones with probability
///   `dup` — the arrival soup a sprayed lossy fabric produces.
/// * Go-back-N: each round is the sender's replay on an in-order fabric:
///   delivered messages whose ACK was lost (each with probability `dup`),
///   then every fragment from the first undelivered message on, and with
///   probability `dup` a second, racing pass from the same point.
fn run_trial(rule: RetxMode, seed: u64, msgs: u64, nfrags: u32, loss: f64, dup: f64) {
    let rng = DetRng::from_seed(seed);
    let mut w = RxWindow::new(rule);
    let mut model = Model::default();
    for m in 1..=msgs {
        model.nfrags.insert(m, nfrags);
    }
    let mut gate = Gate::new();
    let mut rounds = 0;
    while w.expected_msg() <= msgs {
        rounds += 1;
        assert!(rounds < 1000, "livelock: loss schedule never drains");
        let offer = match rule {
            RetxMode::Sr => {
                let mut offer: Vec<(u64, u32)> = (1..=msgs)
                    .flat_map(|m| (0..nfrags).map(move |f| (m, f)))
                    .filter(|k| !model.installed.contains(k))
                    .collect();
                // Sprinkle duplicates of fragments that already landed.
                for &k in &model.installed {
                    if rng.uniform() < dup {
                        offer.push(k);
                    }
                }
                shuffle(&mut offer, &rng);
                offer
            }
            RetxMode::Gbn => {
                let pass = |from: u64| (from..=msgs).flat_map(|m| (0..nfrags).map(move |f| (m, f)));
                let from = gate.expected_msg;
                let mut offer: Vec<(u64, u32)> = (1..from)
                    .filter(|_| rng.uniform() < dup)
                    .flat_map(|m| (0..nfrags).map(move |f| (m, f)))
                    .collect();
                offer.extend(pass(from));
                if rng.uniform() < dup {
                    offer.extend(pass(from));
                }
                offer
            }
        };
        for (m, f) in offer {
            if rounds <= LOSSY_ROUNDS && rng.uniform() < loss {
                continue; // lost on the wire this round
            }
            match rule {
                RetxMode::Sr => check_sr(&mut w, &mut model, m, f, nfrags),
                RetxMode::Gbn => check_gbn(&mut w, &mut gate, m, f, nfrags),
            }
        }
    }
    assert_eq!(w.expected_msg(), msgs + 1, "all messages delivered");
}

/// One arrival under selective repeat, checked against the set model.
fn check_sr(w: &mut RxWindow, model: &mut Model, m: u64, f: u32, nfrags: u32) {
    let was_installed = model.installed.contains(&(m, f));
    let would_complete = !was_installed
        && !model.complete(m)
        && (0..nfrags).all(|g| g == f || model.installed.contains(&(m, g)));
    // The engine's pre-commit resource check must agree with the model
    // about whether this fragment is the finisher.
    assert_eq!(
        w.completes_with(m, f, nfrags),
        would_complete,
        "completes_with({m},{f})"
    );
    let d = w.on_frag(m, f, nfrags, Kind::Write);
    match d.action {
        Action::Install { completes } => {
            assert!(!was_installed, "installed a duplicate ({m},{f})");
            model.installed.insert((m, f));
            assert_eq!(completes, model.complete(m), "completes ({m},{f})");
        }
        Action::Discard { reack } => {
            assert!(was_installed, "dropped a fresh fragment ({m},{f})");
            // Duplicate ACKs regenerate possibly-lost ACKs: only for fully
            // delivered messages, only on the last fragment (the one whose
            // original arrival ACKed).
            assert_eq!(reack, model.complete(m) && f + 1 == nfrags);
        }
        a => panic!("write fragment got {a:?}"),
    }
    assert_eq!(w.expected_msg(), model.expected(), "after ({m},{f})");
    if let Some((sack_msg, received)) = d.sack {
        // A SACK always names the first missing message and the exact
        // bitmap of its fragments already held.
        assert_eq!(sack_msg, model.expected());
        assert_eq!(received, model.low64(sack_msg));
    }
}

/// One arrival under the in-order rule, checked against the gate.
fn check_gbn(w: &mut RxWindow, gate: &mut Gate, m: u64, f: u32, nfrags: u32) {
    let last = f + 1 == nfrags;
    let (e, ef) = (gate.expected_msg, gate.expected_frag);
    assert_eq!(
        w.completes_with(m, f, nfrags),
        m == e && f == ef && last,
        "completes_with({m},{f})"
    );
    assert_eq!(w.opens(m, f), m == e && f == 0 && ef == 0, "opens({m},{f})");
    let d = w.on_frag(m, f, nfrags, Kind::Write);
    let expected = match gate.check(m, f, last) {
        Verdict::Accept => (Action::Install { completes: last }, None),
        Verdict::DupAck => (Action::Discard { reack: true }, None),
        // The gap notice names the first missing message, which holds
        // nothing under the in-order rule: go-back-N's sequence NAK.
        Verdict::Drop { nak } => (
            Action::Discard { reack: false },
            nak.then_some((gate.expected_msg, 0)),
        ),
    };
    assert_eq!((d.action, d.sack), expected, "verdict for ({m},{f})");
    assert_eq!(w.expected_msg(), gate.expected_msg, "after ({m},{f})");
}

const RULES: [RetxMode; 2] = [RetxMode::Gbn, RetxMode::Sr];

#[test]
fn window_matches_naive_model_under_loss_reorder_and_duplication() {
    for rule in RULES {
        for seed in 0..20 {
            run_trial(rule, seed, 12, 4, 0.3, 0.2);
        }
    }
}

#[test]
fn window_matches_model_with_single_fragment_messages() {
    // nfrags = 1: every arrival is its own finisher, the completes_with
    // None-entry path (`opens && nfrags == 1`) runs constantly.
    for rule in RULES {
        for seed in 100..110 {
            run_trial(rule, seed, 30, 1, 0.4, 0.3);
        }
    }
}

#[test]
fn window_matches_model_past_the_64_fragment_bitmap_word() {
    // 130 fragments spans three bitmap words: the wrap between words (and
    // SACKs that can only describe the low 64 bits) must not confuse the
    // dedup or completion logic.
    for rule in RULES {
        for seed in 200..204 {
            run_trial(rule, seed, 2, 130, 0.25, 0.15);
        }
    }
}

#[test]
fn reverse_order_delivery_completes_only_on_the_last_hole() {
    let mut w = RxWindow::new(RetxMode::Sr);
    const N: u32 = 130;
    for f in (1..N).rev() {
        let d = w.on_frag(1, f, N, Kind::Write);
        assert_eq!(d.action, Action::Install { completes: false });
        assert_eq!(w.expected_msg(), 1);
    }
    // Everything but fragment 0 landed; 0 is the finisher.
    assert!(w.completes_with(1, 0, N));
    let d = w.on_frag(1, 0, N, Kind::Write);
    assert_eq!(d.action, Action::Install { completes: true });
    assert_eq!(w.expected_msg(), 2);
    // Late duplicates of the delivered message re-ACK only on the last
    // fragment — the duplicate-ACK edge.
    assert_eq!(
        w.on_frag(1, N - 1, N, Kind::Write).action,
        Action::Discard { reack: true }
    );
    assert_eq!(
        w.on_frag(1, 7, N, Kind::Write).action,
        Action::Discard { reack: false }
    );
}

#[test]
fn one_sack_per_gap_episode_reset_by_delivery_advance() {
    let mut w = RxWindow::new(RetxMode::Sr);
    // Message 2 arrives while message 1 is missing: first gap evidence
    // SACKs (naming message 1, empty bitmap), the rest of the episode
    // stays quiet.
    assert_eq!(w.on_frag(2, 0, 2, Kind::Write).sack, Some((1, 0)));
    assert_eq!(w.on_frag(2, 1, 2, Kind::Write).sack, None);
    assert_eq!(w.on_frag(3, 0, 2, Kind::Write).sack, None);
    // Message 1 fills in: the delivery point advances over it (message 2
    // is already done), clearing the episode.
    assert_eq!(w.on_frag(1, 0, 2, Kind::Write).sack, None);
    assert!(matches!(
        w.on_frag(1, 1, 2, Kind::Write).action,
        Action::Install { completes: true }
    ));
    assert_eq!(w.expected_msg(), 3);
    // A new gap (message 4 ahead of half-done message 3) starts a fresh
    // episode: one SACK, now carrying message 3's received bitmap.
    assert_eq!(w.on_frag(4, 0, 2, Kind::Write).sack, Some((3, 0b01)));
    assert_eq!(w.on_frag(4, 1, 2, Kind::Write).sack, None);
}

#[test]
fn sends_bind_in_message_order_whatever_the_arrival_order() {
    // Sends must consume receive WQEs in message order even when their
    // fragments arrive shuffled. Model: a send may bind only when every
    // earlier message has been seen (classified) — the window stalls its
    // binding floor on unclassified gaps.
    for seed in 300..320 {
        let rng = DetRng::from_seed(seed);
        let mut w = RxWindow::new(RetxMode::Sr);
        const MSGS: u64 = 10;
        let mut arrivals: Vec<u64> = (1..=MSGS).collect();
        shuffle(&mut arrivals, &rng);
        let mut seen = BTreeSet::new();
        let mut bind_order = Vec::new();
        for m in arrivals {
            assert_eq!(w.on_frag(m, 0, 2, Kind::Send).action, Action::Unbound);
            seen.insert(m);
            while let Some(b) = w.next_bind() {
                // Strictly ordered, never skipping an unseen message.
                assert!((1..b).all(|e| seen.contains(&e)), "bound {b} over a gap");
                bind_order.push(b);
                w.bound(b);
            }
        }
        assert_eq!(bind_order, (1..=MSGS).collect::<Vec<_>>());
    }
}

#[test]
fn poisoned_sends_never_block_the_binding_floor() {
    let mut w = RxWindow::new(RetxMode::Sr);
    // Message 1 is rejected (say, longer than the posted buffer);
    // message 2 arrives as a normal send.
    w.poison(1, 2, Kind::Send);
    assert_eq!(w.on_frag(2, 0, 1, Kind::Send).action, Action::Unbound);
    // The floor skips the poisoned message and offers message 2.
    assert_eq!(w.next_bind(), Some(2));
    w.bound(2);
    // Fragments of the poisoned message drop silently, without re-ACK.
    assert_eq!(
        w.on_frag(1, 1, 2, Kind::Write).action,
        Action::Discard { reack: false }
    );
    // Message 2, now bound, installs and completes.
    assert_eq!(
        w.on_frag(2, 0, 1, Kind::Send).action,
        Action::Install { completes: true }
    );
}
