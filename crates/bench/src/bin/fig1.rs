//! Figure 1 — "Removing" performance-improving techniques (system L).
//!
//! (a) RC send latency at 16 B / 4 KiB / 1 MiB for Baseline, No kernel
//!     bypass (getppid per op), No busy-polling (interrupts), No zero-copy
//!     (extra memcpy per side).
//! (b) Relative send bandwidth across sizes for the same removals.
//!
//! Paper reference values (Fig. 1a): baseline 0.99/1.95/86 µs; no-KB
//! 1.06/1.95/86; no-polling 4.69/4.16/90; no-ZC 1.03/2.31/229.

use cord_bench::{iters_for, par_map, pow2_sizes, print_table, save_json};
use cord_hw::system_l;
use cord_perftest::{run_test, EmuKnobs, TestOp, TestSpec};
use serde::Serialize;

#[derive(Serialize)]
struct Fig1 {
    latency_us: Vec<(String, Vec<f64>)>,
    relative_bw: Vec<(String, Vec<(usize, f64)>)>,
    baseline_small_bw_gbps: f64,
}

fn knob_sets() -> Vec<(&'static str, EmuKnobs)> {
    vec![
        ("Baseline", EmuKnobs::BASELINE),
        ("No kernel bypass", EmuKnobs::no_kernel_bypass()),
        ("No busy-polling", EmuKnobs::no_busy_polling()),
        ("No zero copy (ZC)", EmuKnobs::no_zero_copy()),
    ]
}

fn main() {
    // --- Fig. 1a: latency table -----------------------------------------
    let lat_sizes = [16usize, 4096, 1 << 20];
    let lat: Vec<(String, Vec<f64>)> = par_map(&knob_sets(), |(name, knobs)| {
        let row: Vec<f64> = lat_sizes
            .iter()
            .map(|&size| {
                run_test(
                    system_l(),
                    TestSpec::new(TestOp::SendLat)
                        .size(size)
                        .iters(100)
                        .warmup(10)
                        .knobs(*knobs),
                    1,
                )
                .lat_avg_us
            })
            .collect();
        (name.to_string(), row)
    });

    let rows: Vec<Vec<String>> = lat
        .iter()
        .map(|(name, vals)| {
            let mut r = vec![name.clone()];
            r.extend(vals.iter().map(|v| format!("{v:.2}")));
            r
        })
        .collect();
    print_table(
        "Fig. 1a: send latency (µs), system L",
        &["variant", "16B", "4KiB", "1MiB"],
        &rows,
    );

    // --- Fig. 1b: relative bandwidth ------------------------------------
    let sizes = pow2_sizes(16, 16 << 20);
    // One pool over every (variant, size) point, baseline first, so the
    // slow large-message points of all variants overlap.
    let variants = knob_sets();
    let points: Vec<(EmuKnobs, usize)> = variants
        .iter()
        .flat_map(|&(_, knobs)| sizes.iter().map(move |&size| (knobs, size)))
        .collect();
    let bw: Vec<f64> = par_map(&points, |&(knobs, size)| {
        let iters = iters_for(size, 256 << 20, 100, 2000);
        let spec = TestSpec::new(TestOp::SendBw).size(size).iters(iters);
        run_test(system_l(), spec.knobs(knobs), 1).bw_gbps
    });
    let (base_bw, variant_bw) = bw.split_at(sizes.len());
    let baselines: Vec<(usize, f64)> = sizes.iter().copied().zip(base_bw.iter().copied()).collect();
    let baseline_small = baselines[0].1;
    let rel_series: Vec<(String, Vec<(usize, f64)>)> = variants[1..]
        .iter()
        .zip(variant_bw.chunks(sizes.len()))
        .map(|(&(name, _), series)| {
            let rel = baselines
                .iter()
                .zip(series)
                .map(|(&(size, base), m)| (size, m / base));
            (name.to_string(), rel.collect())
        })
        .collect();

    let rows: Vec<Vec<String>> = sizes
        .iter()
        .enumerate()
        .map(|(i, &size)| {
            let mut r = vec![format!("{size}")];
            r.push(format!("{:.2}", baselines[i].1));
            for (_, s) in &rel_series {
                r.push(format!("{:.3}", s[i].1));
            }
            r
        })
        .collect();
    print_table(
        "Fig. 1b: bandwidth relative to baseline, system L",
        &["size B", "base Gb/s", "no-KB", "no-poll", "no-ZC"],
        &rows,
    );
    println!("\nbaseline small-message bandwidth: {baseline_small:.2} Gbit/s (paper: ~1.4)",);

    save_json(
        "fig1",
        &Fig1 {
            latency_us: lat,
            relative_bw: rel_series,
            baseline_small_bw_gbps: baseline_small,
        },
    );
}
