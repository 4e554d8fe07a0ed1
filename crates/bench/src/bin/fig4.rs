//! Figure 4 — CoRD throughput relative to bypass on system L, across
//! message sizes (2³…2¹⁸) for Read/RC, Write/RC, Send/RC, Send/UD, with
//! the bypass message-rate overlay.
//!
//! Paper anchors: bypass small-message rate ~12.5 M/s; send at 32 KiB
//! ~370 k msg/s with only 1% degradation; UD capped at the 4 KiB MTU.

use cord_bench::{iters_for, par_map, pow2_sizes, print_table, save_json};
use cord_hw::system_l;
use cord_perftest::{run_test, TestOp, TestSpec};
use cord_verbs::{Dataplane, Transport};
use serde::Serialize;

#[derive(Serialize)]
struct Fig4Point {
    size: usize,
    relative: f64,
    bypass_mrate_mps: f64,
}

#[derive(Serialize)]
struct Fig4Series {
    mode: String,
    points: Vec<Fig4Point>,
}

fn main() {
    let combos = [
        (TestOp::ReadBw, Transport::Rc, "Read/RC"),
        (TestOp::WriteBw, Transport::Rc, "Write/RC"),
        (TestOp::SendBw, Transport::Rc, "Send/RC"),
        (TestOp::SendBw, Transport::Ud, "Send/UD"),
    ];
    let sizes = pow2_sizes(8, 1 << 18);
    let all: Vec<Fig4Series> = par_map(&combos, |&(op, tr, label)| {
        let points: Vec<Fig4Point> = sizes
            .iter()
            .filter(|&&s| tr != Transport::Ud || s <= 4096)
            .map(|&size| {
                let iters = iters_for(size, 128 << 20, 150, 2500);
                let run = |c, s2| {
                    run_test(
                        system_l(),
                        TestSpec::new(op)
                            .transport(tr)
                            .size(size)
                            .iters(iters)
                            .modes(c, s2),
                        1,
                    )
                };
                use Dataplane::{Bypass as BP, Cord as CD};
                let bp = run(BP, BP);
                let cd = run(CD, CD);
                Fig4Point {
                    size,
                    relative: cd.bw_gbps / bp.bw_gbps,
                    bypass_mrate_mps: bp.mrate_mps,
                }
            })
            .collect();
        Fig4Series {
            mode: label.to_string(),
            points,
        }
    });

    for series in &all {
        let rows: Vec<Vec<String>> = series
            .points
            .iter()
            .map(|p| {
                vec![
                    format!("{}", p.size),
                    format!("{:.3}", p.relative),
                    format!("{:.3}", p.bypass_mrate_mps),
                ]
            })
            .collect();
        print_table(
            &format!(
                "Fig. 4 [{}]: CoRD relative throughput, system L",
                series.mode
            ),
            &["size B", "rel tput", "bypass Mmsg/s"],
            &rows,
        );
    }

    // Paper anchor callouts for send/RC.
    if let Some(send) = all.iter().find(|s| s.mode == "Send/RC") {
        if let Some(p32k) = send.points.iter().find(|p| p.size == 32768) {
            println!(
                "\nSend/RC @32 KiB: {:.0} k msg/s, degradation {:.1}% (paper: ~370 k, 1%)",
                p32k.bypass_mrate_mps * 1000.0,
                (1.0 - p32k.relative) * 100.0
            );
        }
    }
    save_json("fig4", &all);
}
