//! Figure 5 — CoRD on system A (Azure HB120, virtualized CX-6 IB 200G):
//! (a) latency overhead vs message size, with bimodality analysis — the
//!     paper observes two statistical modes (small ≤1 KiB vs large)
//!     because the CoRD prototype lacks inline sends;
//! (b) relative throughput vs size (recovers by ~2¹⁶).

use cord_bench::{iters_for, par_map, pow2_sizes, print_table, save_json};
use cord_hw::system_a;
use cord_perftest::{run_test, TestOp, TestSpec};
use cord_sim::stats::split_modes;
use cord_verbs::{Dataplane, Transport};
use serde::Serialize;

#[derive(Serialize)]
struct Fig5a {
    mode: String,
    points: Vec<(usize, f64)>, // (size, overhead µs)
    low_mode_us: f64,
    high_mode_us: f64,
    bimodal: bool,
}

#[derive(Serialize)]
struct Fig5b {
    mode: String,
    points: Vec<(usize, f64)>, // (size, relative throughput)
}

fn main() {
    let lat_combos = [
        (TestOp::ReadLat, Transport::Rc, "Read/RC"),
        (TestOp::WriteLat, Transport::Rc, "Write/RC"),
        (TestOp::SendLat, Transport::Rc, "Send/RC"),
        (TestOp::SendLat, Transport::Ud, "Send/UD"),
    ];
    // --- Fig. 5a: latency overhead vs size ------------------------------
    let lat_sizes = pow2_sizes(64, 1 << 13);
    let fig5a: Vec<Fig5a> = par_map(&lat_combos, |&(op, tr, label)| {
        let points: Vec<(usize, f64)> = lat_sizes
            .iter()
            .filter(|&&s| tr != Transport::Ud || s <= 4096)
            .map(|&size| {
                let lat = |c, s2, seed| {
                    run_test(
                        system_a(),
                        TestSpec::new(op)
                            .transport(tr)
                            .size(size)
                            .iters(120)
                            .warmup(12)
                            .modes(c, s2),
                        seed,
                    )
                    .lat_avg_us
                };
                use Dataplane::{Bypass as BP, Cord as CD};
                (size, lat(CD, CD, 5) - lat(BP, BP, 5))
            })
            .collect();
        let samples: Vec<f64> = points.iter().map(|p| p.1).collect();
        let split = split_modes(&samples);
        let (lo, hi, bimodal) = split
            .map(|m| (m.low_mean, m.high_mean, m.is_bimodal()))
            .unwrap_or((0.0, 0.0, false));
        Fig5a {
            mode: label.to_string(),
            points,
            low_mode_us: lo,
            high_mode_us: hi,
            bimodal,
        }
    });

    for s in &fig5a {
        let rows: Vec<Vec<String>> = s
            .points
            .iter()
            .map(|(size, o)| vec![format!("{size}"), format!("{o:+.2}")])
            .collect();
        print_table(
            &format!("Fig. 5a [{}]: CoRD latency overhead (µs), system A", s.mode),
            &["size B", "overhead"],
            &rows,
        );
        println!(
            "   modes: small-message {:.2} µs vs large-message {:.2} µs (bimodal: {})",
            s.high_mode_us, s.low_mode_us, s.bimodal
        );
    }
    println!("\npaper shape: overhead larger and noisier than system L; two modes (≤1 KiB worse: CoRD lacks inline sends)");

    // --- Fig. 5b: relative throughput ------------------------------------
    let bw_sizes = pow2_sizes(1 << 12, 1 << 17);
    let bw_combos = [
        (TestOp::ReadBw, Transport::Rc, "Read/RC"),
        (TestOp::WriteBw, Transport::Rc, "Write/RC"),
        (TestOp::SendBw, Transport::Rc, "Send/RC"),
    ];
    let fig5b: Vec<Fig5b> = par_map(&bw_combos, |&(op, tr, label)| {
        let points: Vec<(usize, f64)> = bw_sizes
            .iter()
            .map(|&size| {
                let iters = iters_for(size, 128 << 20, 150, 1500);
                let run = |c, s2| {
                    run_test(
                        system_a(),
                        TestSpec::new(op)
                            .transport(tr)
                            .size(size)
                            .iters(iters)
                            .modes(c, s2),
                        9,
                    )
                };
                use Dataplane::{Bypass as BP, Cord as CD};
                (size, run(CD, CD).bw_gbps / run(BP, BP).bw_gbps)
            })
            .collect();
        Fig5b {
            mode: label.to_string(),
            points,
        }
    });

    for s in &fig5b {
        let rows: Vec<Vec<String>> = s
            .points
            .iter()
            .map(|(size, r)| vec![format!("{size}"), format!("{r:.3}")])
            .collect();
        print_table(
            &format!("Fig. 5b [{}]: CoRD relative throughput, system A", s.mode),
            &["size B", "rel tput"],
            &rows,
        );
    }

    save_json("fig5a", &fig5a);
    save_json("fig5b", &fig5b);
}
