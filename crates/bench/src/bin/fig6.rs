//! Figure 6 — relative runtime of the NPB suite on system A over CoRD and
//! IPoIB, normalized to kernel-bypass RDMA.
//!
//! Paper shape: CoRD ≈ 1.0 everywhere (EP and CG slightly below 1 — the
//! DVFS/turbo interaction); IPoIB up to 2× slower, worst on the
//! simultaneously data- and message-intensive IS and SP.
//!
//! The harness holds that shape as a gate: after writing `fig6.json` it
//! exits 1 unless CoRD ÷ bypass lies in [`CORD_BAND`] on every kernel and
//! IPoIB ÷ bypass reaches [`IPOIB_FLOOR`] on IS and SP.

use cord_bench::{par_map, print_table, save_json};
use cord_hw::system_a;
use cord_mpi::MpiTransport;
use cord_npb::{run_benchmark, Bench, Class};
use cord_verbs::Dataplane;
use serde::Serialize;

/// CoRD ÷ bypass must lie in this band on every kernel.
const CORD_BAND: (f64, f64) = (0.95, 1.10);
/// IPoIB ÷ bypass must reach this on the paper's worst kernels, IS and SP.
const IPOIB_FLOOR: f64 = 1.7;

#[derive(Serialize)]
struct Fig6Row {
    bench: String,
    nranks: usize,
    rdma_us: f64,
    cord_rel: f64,
    ipoib_rel: f64,
    gbit_per_rank: f64,
    msgs_per_rank_s: f64,
}

fn main() {
    let ranks: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(32);
    let class = Class::A;

    let results: Vec<Fig6Row> = par_map(&Bench::ALL, |&bench| {
        let run = |t| run_benchmark(system_a(), bench, class, ranks, t, 42);
        let rdma = run(MpiTransport::Verbs(Dataplane::Bypass));
        let cord = run(MpiTransport::Verbs(Dataplane::Cord));
        let ipoib = run(MpiTransport::Ipoib);
        Fig6Row {
            bench: bench.label().to_string(),
            nranks: rdma.nranks,
            rdma_us: rdma.runtime_us,
            cord_rel: cord.runtime_us / rdma.runtime_us,
            ipoib_rel: ipoib.runtime_us / rdma.runtime_us,
            gbit_per_rank: rdma.gbit_per_rank,
            msgs_per_rank_s: rdma.msgs_per_rank_s,
        }
    });

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.bench.clone(),
                format!("{}", r.nranks),
                format!("{:.0}", r.rdma_us),
                format!("{:.3}", r.cord_rel),
                format!("{:.3}", r.ipoib_rel),
                format!("{:.2}", r.gbit_per_rank),
                format!("{:.0}", r.msgs_per_rank_s),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Fig. 6: NPB relative runtime, system A, class {} ({} ranks wanted)",
            class.label(),
            ranks
        ),
        &[
            "bench",
            "ranks",
            "RDMA µs",
            "CoRD rel",
            "IPoIB rel",
            "Gb/s/rank",
            "msg/s/rank",
        ],
        &rows,
    );
    println!(
        "\npaper shape: CoRD ≈ 1.0 (EP/CG slightly <1 via DVFS); IPoIB up to 2× (worst: IS, SP)"
    );
    save_json("fig6", &results);

    let mut broken = Vec::new();
    for (bench, r) in Bench::ALL.iter().zip(&results) {
        if !(CORD_BAND.0..=CORD_BAND.1).contains(&r.cord_rel) {
            broken.push(format!(
                "{}: CoRD/bypass {:.3} outside [{}, {}]",
                r.bench, r.cord_rel, CORD_BAND.0, CORD_BAND.1
            ));
        }
        if matches!(bench, Bench::Is | Bench::Sp) && r.ipoib_rel < IPOIB_FLOOR {
            broken.push(format!(
                "{}: IPoIB/bypass {:.3} below {IPOIB_FLOOR}",
                r.bench, r.ipoib_rel
            ));
        }
    }
    if !broken.is_empty() {
        for b in &broken {
            eprintln!("fig6: paper shape broken: {b}");
        }
        std::process::exit(1);
    }
    println!(
        "paper shape holds: CoRD/bypass in [{}, {}] on all kernels, IPoIB/bypass ≥ {IPOIB_FLOOR} on IS and SP",
        CORD_BAND.0, CORD_BAND.1
    );
}
