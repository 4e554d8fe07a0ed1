//! Figure 6 — relative runtime of the NPB suite on system A over CoRD and
//! IPoIB, normalized to kernel-bypass RDMA.
//!
//! Paper shape: CoRD ≈ 1.0 everywhere (EP and CG slightly below 1 — the
//! DVFS/turbo interaction); IPoIB up to 2× slower, worst on the
//! simultaneously data- and message-intensive IS and SP.

use cord_bench::{par_map, print_table, save_json};
use cord_hw::system_a;
use cord_mpi::MpiTransport;
use cord_npb::{run_benchmark, Bench, Class};
use cord_verbs::Dataplane;
use serde::Serialize;

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
}
