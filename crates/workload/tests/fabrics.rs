//! End-to-end lossless/lossy fabric scenarios: PFC head-of-line blocking
//! (and its disappearance under DCQCN), pause storms, and RC
//! retransmission recovering goodput on a tail-dropping fat tree.

use cord_nic::RetxMode;
use cord_workload::scenarios::{
    lossy_incast_rc, pause_storm, pfc_hol_blocking, spray_incast, Scale,
};
use cord_workload::{run_scenario, ScenarioReport};

fn scale() -> Scale {
    Scale {
        nodes: 16,
        tenants: 8,
        requests: 15,
        seed: 0xC0BD,
        ..Scale::default()
    }
}

fn victim_p99(r: &ScenarioReport) -> f64 {
    r.tenants
        .iter()
        .find(|t| t.tenant == "victim")
        .expect("victim tenant present")
        .p99_us
}

fn issued(r: &ScenarioReport) -> u64 {
    r.tenants.iter().map(|t| t.issued).sum()
}

/// The e2e regression the PFC tentpole is built around: the same incast,
/// lossless vs DCQCN. PFC drops nothing but head-of-line blocks the
/// victim flow (its p99 blows up); DCQCN throttles the incast at the
/// source and the blowup disappears.
#[test]
fn pfc_hol_blocking_vs_dcqcn() {
    let pfc = run_scenario(&pfc_hol_blocking(scale())).unwrap();
    let dcqcn = run_scenario(&pfc_hol_blocking(Scale {
        pfc: Some(false),
        rc_retx: Some(true), // lossy now: retransmission keeps it live
        cc: Some(cord_nic::CcAlgorithm::Dcqcn),
        ..scale()
    }))
    .unwrap();

    // Both complete every request.
    assert_eq!(pfc.total_completed, issued(&pfc));
    assert_eq!(dcqcn.total_completed, issued(&dcqcn));

    // Lossless means lossless — and the pauses that buy it are real.
    let fp = pfc.fabric.as_ref().expect("fabric counters when PFC on");
    assert!(fp.pfc);
    assert_eq!(fp.net_drops, 0, "PFC must not drop");
    assert!(fp.net_pauses > 0, "the incast must assert pauses");
    assert!(fp.net_pause_ms > 0.0);

    // The DCQCN run is lossy (small buffers, no pauses) but recovers.
    let fd = dcqcn.fabric.as_ref().expect("fabric counters when retx on");
    assert!(!fd.pfc && fd.rc_retx);
    assert_eq!(fd.net_pauses, 0);

    // The victim pins the pathology: head-of-line blocked behind paused
    // incast frames under PFC, unharmed when DCQCN throttles the incast
    // at the source instead.
    let (vp, vd) = (victim_p99(&pfc), victim_p99(&dcqcn));
    assert!(
        vp > 3.0 * vd,
        "HoL blowup must appear under PFC and vanish under DCQCN: \
         victim p99 {vp} µs (PFC) vs {vd} µs (DCQCN)"
    );
}

/// Oversubscribed lossless fat tree: pauses cascade beyond the hot
/// downlink (a pause storm), yet nothing drops and the run completes.
#[test]
fn pause_storm_is_lossless_and_pause_heavy() {
    let r = run_scenario(&pause_storm(scale())).unwrap();
    assert_eq!(r.total_completed, issued(&r));
    let f = r.fabric.expect("fabric counters when PFC on");
    assert_eq!(f.net_drops, 0);
    // A storm, not a blip: more pause episodes than tenants, with
    // meaningful cumulative pause time.
    assert!(f.net_pauses > 8, "pauses: {}", f.net_pauses);
    assert!(f.net_pause_ms > 0.1, "pause_ms: {}", f.net_pause_ms);
}

/// The lossy counterpart: the same incast on the tail-dropping fat tree.
/// Before RC retransmission existed this configuration deadlocked (a
/// dropped fragment stalled its QP forever); now it completes and keeps
/// >= 70% of the goodput of the deep-buffer (lossless) equivalent.
#[test]
fn lossy_incast_rc_recovers_goodput() {
    let lossy = run_scenario(&lossy_incast_rc(scale())).unwrap();
    let mut reference = lossy_incast_rc(scale());
    reference.buffer_bytes = None; // cord-net's deep default: no drops
    let reference = run_scenario(&reference).unwrap();

    assert_eq!(lossy.total_completed, issued(&lossy), "must not stall");
    let f = lossy.fabric.expect("fabric counters when retx on");
    assert!(f.net_drops > 0, "the small buffer must actually drop");
    assert!(f.retx_replays > 0, "retransmission must actually replay");
    assert_eq!(f.retx_exhausted, 0, "no QP may exhaust its retries");

    let fr = reference.fabric.expect("reference records counters too");
    assert_eq!(fr.net_drops, 0, "deep-buffer reference must be loss-free");
    assert!(
        lossy.total_goodput_gbps >= 0.7 * reference.total_goodput_gbps,
        "retransmission must recover >= 70% goodput: {:.2} vs {:.2} Gb/s",
        lossy.total_goodput_gbps,
        reference.total_goodput_gbps
    );
}

/// The cluster-scale differential between the two retransmission
/// flavors: the same lossy incast, once under go-back-N and once under
/// selective repeat. Both must complete everything; selective repeat
/// must replay strictly less (it never throws away delivered-but-
/// out-of-order messages) at comparable goodput.
#[test]
fn selective_repeat_replays_strictly_less_than_gbn() {
    let gbn = run_scenario(&lossy_incast_rc(scale())).unwrap();
    let sr = run_scenario(&lossy_incast_rc(Scale {
        retx_mode: Some(RetxMode::Sr),
        ..scale()
    }))
    .unwrap();

    assert_eq!(gbn.total_completed, issued(&gbn));
    assert_eq!(sr.total_completed, issued(&sr));
    let fg = gbn.fabric.expect("fabric counters when retx on");
    let fs = sr.fabric.expect("fabric counters when retx on");
    assert!(fg.net_drops > 0 && fs.net_drops > 0, "both runs must drop");
    assert_eq!(fs.retx_exhausted, 0, "selective repeat must not exhaust");
    assert!(
        fs.retx_replays < fg.retx_replays,
        "sr must replay strictly less: {} vs {}",
        fs.retx_replays,
        fg.retx_replays
    );
    assert!(
        sr.total_goodput_gbps >= 0.9 * gbn.total_goodput_gbps,
        "sr goodput must not collapse: {:.2} vs {:.2} Gb/s",
        sr.total_goodput_gbps,
        gbn.total_goodput_gbps
    );
}

/// Per-packet spray on the lossy fat tree: reordering is constant (every
/// packet re-picks a spine), yet the selective-repeat receiver delivers
/// everything with zero retry exhaustion.
#[test]
fn spray_incast_completes_under_constant_reordering() {
    let r = run_scenario(&spray_incast(scale())).unwrap();
    assert_eq!(r.total_completed, issued(&r), "must not stall");
    let f = r.fabric.expect("fabric counters when retx on");
    assert_eq!(f.retx_exhausted, 0, "no QP may exhaust its retries");
    assert_eq!(f.routing.as_deref(), Some("spray"));
    assert_eq!(f.retx_mode.as_deref(), Some("sr"));
}

/// PFC pausing, go-back-N recovery, and per-packet spray with selective
/// repeat are all bit-deterministic: same spec + seed serialize to
/// byte-identical reports.
#[test]
fn fabric_scenarios_are_seed_deterministic() {
    for spec in [
        pfc_hol_blocking(scale()),
        lossy_incast_rc(scale()),
        pause_storm(scale()),
        spray_incast(scale()),
    ] {
        let a = serde_json::to_string_pretty(&run_scenario(&spec).unwrap()).unwrap();
        let b = serde_json::to_string_pretty(&run_scenario(&spec).unwrap()).unwrap();
        assert_eq!(a, b, "{}", spec.name);
    }
}
