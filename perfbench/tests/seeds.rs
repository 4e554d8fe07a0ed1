//! The benchmark's own checks: its inputs depend on the seed, its virtual
//! figures stay within `BENCHMARK.json`'s bounds across seeds, tracing does
//! not steer the simulation, and the metric lists match `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`. The
//! workload tests run every workload at its benchmark size, which takes about
//! a minute optimised, so a debug build skips them.

use cord_perfbench::{workload, Mode, Pass, END_TO_END, PER_LAYER, WORKLOADS};

const SEEDS: [u64; 3] = [1, 2, 3];

fn manifest() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark directory")
}

/// `(name, unit, bound)` of every metric line in `section` of the manifest,
/// which lists one metric object per line.
fn metrics_of(section: &str) -> Vec<(String, String, Option<f64>)> {
    let text = manifest();
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section closes");
    let field = |line: &str, key: &str| -> Option<String> {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = line[at..].trim_start_matches('"');
        let stop = rest.find(['"', ',', '}']).unwrap_or(rest.len());
        Some(rest[..stop].to_string())
    };
    body[..end]
        .lines()
        .filter_map(|line| {
            let name = field(line, "name")?;
            let unit = field(line, "unit")?;
            let bound = field(line, "bound").map(|b| b.parse().expect("numeric bound"));
            Some((name, unit, bound))
        })
        .collect()
}

#[test]
fn metric_lists_match_the_manifest() {
    let listed = |s: &str| -> Vec<(String, String)> {
        metrics_of(s).into_iter().map(|(n, u, _)| (n, u)).collect()
    };
    let ours = |m: &[(&str, &str)]| -> Vec<(String, String)> {
        m.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), ours(END_TO_END));
    assert_eq!(listed("per_layer"), ours(PER_LAYER));
    for w in WORKLOADS {
        assert!(manifest().contains(&format!("{{\"name\": \"{w}\"")), "{w}");
    }
}

fn passes(name: &str) -> Vec<Pass> {
    SEEDS
        .iter()
        .map(|&seed| {
            let w = workload(name, seed).expect("known workload");
            let p = w.pass(Mode::Run);
            assert_eq!(p.failed, 0, "{name} seed {seed}: failed operations");
            assert!(p.attempted > 0, "{name} seed {seed}: nothing attempted");
            p
        })
        .collect()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full-size workloads: run with --release")]
fn seeds_change_the_inputs_and_virtual_figures_stay_in_bounds() {
    let bounds = metrics_of("end_to_end");
    for name in WORKLOADS {
        let runs = passes(name);
        let events: Vec<f64> = runs.iter().map(|p| p.counters["sim.events"]).collect();
        assert_ne!(
            events[0], events[1],
            "{name}: seeds 1 and 2 ran the same events"
        );
        for (metric, _, bound) in &bounds {
            let Some(vals) = runs
                .iter()
                .map(|p| p.virt.get(metric).copied())
                .collect::<Option<Vec<f64>>>()
            else {
                continue; // a host-clock metric
            };
            let bound = bound.expect("end-to-end metrics have bounds");
            let mut sorted = vals.clone();
            sorted.sort_by(f64::total_cmp);
            let spread = (sorted[2] - sorted[0]) / sorted[1];
            assert!(
                spread <= bound,
                "{name} {metric}: {vals:?} spread {spread:.4} over bound {bound}"
            );
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full-size workloads: run with --release")]
fn tracing_does_not_steer_the_simulation() {
    for name in ["kv-rpc", "train-step"] {
        let w = workload(name, 7).expect("known workload");
        let plain = w.pass(Mode::Run);
        let traced = w.pass(Mode::Traced);
        assert_eq!(plain.virt, traced.virt, "{name}");
        assert_eq!(plain.counters, traced.counters, "{name}");
        assert_eq!(traced.ring.full_rings, 0, "{name}");
        assert!(!traced.spans.is_empty() && plain.spans.is_empty(), "{name}");
        assert!(!traced.ring.wire_us.is_empty(), "{name}");
        // DCQCN is armed on train-step only, and must react there.
        assert_eq!(traced.ring.rate_cuts > 0, name == "train-step", "{name}");
    }
}
