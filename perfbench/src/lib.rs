//! # cord-perfbench — the repository benchmark
//!
//! One command runs one named workload from a seed, in one single-threaded
//! process, and prints its metrics as one JSON line:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A *pass* builds the workload's fabric, establishes its connections or
//! MPI worlds (set-up), then runs it (the run phase). After a first pass
//! that warms the process, the benchmark repeats passes (two at least)
//! while they still end within `--seconds` of the start, and reports
//! run-phase host figures as medians over those passes; set-up is timed
//! over a fixed number of passes that only set up. The run phase is timed
//! in this thread's CPU seconds (`cpu_s`), not wall seconds: on a shared
//! host the wall clock also counts the time other processes, or a
//! hypervisor that took the vCPU, kept the thread waiting. Virtual-clock
//! figures are deterministic for a seed: every pass must reproduce the
//! first one's exactly, or the run fails.
//!
//! `--trace 0` prints the end-to-end metrics ([`END_TO_END`]) from untraced
//! passes. `--trace 1` alternates untraced and traced passes and prints the
//! per-layer metrics ([`PER_LAYER`]); a traced pass arms the lifecycle ring
//! and times every future the benchmark spawns and every layer call it
//! awaits ([`spans`]), and must reproduce the untraced virtual figures.
//!
//! The workloads (see `BENCHMARK.json` for why each was chosen):
//! `kv-rpc` and `incast-lossy` ([`rpc`]), `train-step` ([`train`]),
//! `npb-fig6` ([`npb`]).

pub mod layers;
pub mod npb;
pub mod rpc;
pub mod spans;
pub mod stats;
pub mod train;

use std::time::Instant;

use layers::{Metrics, RingStats};
use spans::Span;
use stats::{median, quantile};

/// End-to-end metrics and units, as `--trace 0` prints them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("virt_p50_us", "us"),
    ("virt_p99_us", "us"),
    ("virt_goodput_gbps", "Gb/s"),
    ("virt_runtime_ms", "ms"),
];

/// Per-layer metrics and units, as `--trace 1` prints them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.polls.nic", "count"),
    ("sim.polls.switch", "count"),
    ("sim.polls.cpu", "count"),
    ("sim.polls.other", "count"),
    ("sim.fires.nic", "count"),
    ("sim.fires.switch", "count"),
    ("sim.fires.cpu", "count"),
    ("sim.fires.other", "count"),
    ("sim.spawns", "count"),
    ("sim.timer_inserts", "count"),
    ("sim.host_s", "s"),
    ("core.build_s", "s"),
    ("core.connect_s", "s"),
    ("net.frames", "count"),
    ("net.drops", "count"),
    ("net.ecn_marks", "count"),
    ("net.pause_ms", "ms"),
    ("net.queue_p99_kib", "KiB"),
    ("net.wire_p50_us", "us"),
    ("net.wire_p99_us", "us"),
    ("nic.rx_packets", "count"),
    ("nic.retx_replays", "count"),
    ("nic.retx_exhausted", "count"),
    ("nic.replay_ratio", "ratio"),
    ("nic.tx_p50_us", "us"),
    ("nic.rx_p50_us", "us"),
    ("nic.rate_cuts", "count"),
    ("kern.cord_posts", "count"),
    ("kern.cord_polls", "count"),
    ("kern.denials", "count"),
    ("kern.post_ns.cord", "ns"),
    ("kern.post_ns.bypass", "ns"),
    ("kern.poll_ns.cord", "ns"),
    ("kern.poll_ns.bypass", "ns"),
    ("cord_rel", "ratio"),
    ("ipoib.tx_pkts", "count"),
    ("ipoib.rx_pkts", "count"),
    ("ipoib.host_us_per_pkt", "us"),
    ("ipoib_rel", "ratio"),
    ("npb.host_s.bypass", "s"),
    ("npb.host_s.cord", "s"),
    ("npb.host_s.ipoib", "s"),
    ("mpi.bytes", "B"),
    ("mpi.msgs", "count"),
    ("mpi.allreduce_p50_us", "us"),
    ("mpi.alltoallv_p50_us", "us"),
    ("mpi.host_s", "s"),
    ("rpc.host_s", "s"),
    ("bench.input_s", "s"),
    ("bench.cpu_share", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.evicted", "count"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["kv-rpc", "incast-lossy", "train-step", "npb-fig6"];

/// Set-up samples a run takes, from passes that only set up. Every run
/// takes the same number the same way, so how many full passes fit in
/// `--seconds` does not change the mix the `setup_s` median is taken over.
const SETUPS: usize = 21;

/// Passes a run measures however short `--seconds` is, so that `npb-fig6`,
/// whose passes take a third of a run, always has a median of two.
const MIN_PASSES: usize = 2;

/// What a pass does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Set up, then stop.
    SetupOnly,
    /// Set up and run.
    Run,
    /// Set up and run with the lifecycle ring and the span timer armed.
    Traced,
}

/// What one pass produced.
#[derive(Default)]
pub struct Pass {
    /// Host seconds building fabrics.
    pub build_s: f64,
    /// Host seconds establishing connections or MPI worlds.
    pub connect_s: f64,
    /// Host seconds of the run phase, on the wall clock and as this
    /// thread's CPU time.
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Operations attempted and failed (a failed output check counts).
    pub attempted: u64,
    pub failed: u64,
    /// Virtual end-to-end figures: deterministic for a seed.
    pub virt: Metrics,
    /// Layer counters and virtual layer figures: deterministic for a seed.
    pub counters: Metrics,
    /// Host-clock layer figures the workload times itself.
    pub host: Metrics,
    /// Lifecycle-ring samples (traced passes).
    pub ring: RingStats,
    /// Host-time spans (traced passes).
    pub spans: Vec<Span>,
}

/// A workload whose inputs are already drawn from the seed.
pub trait Workload {
    fn pass(&self, mode: Mode) -> Pass;
}

/// Draw `name`'s inputs from `seed`.
pub fn workload(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "kv-rpc" => Box::new(rpc::RpcWorkload::kv_rpc(seed)),
        "incast-lossy" => Box::new(rpc::RpcWorkload::incast_lossy(seed)),
        "train-step" => Box::new(train::TrainStep::new(seed)),
        "npb-fig6" => Box::new(npb::NpbFig6::new(seed)),
        _ => return None,
    })
}

/// One run's result: the JSON line's fields.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Counts a run's failed checks, naming each on stderr.
#[derive(Default)]
struct Checks {
    failed: u64,
}

impl Checks {
    fn expect(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("perfbench: check failed: {what}");
            self.failed += 1;
        }
    }
}

/// Run `name` from `seed` for about `seconds`, traced or not.
pub fn run(name: &str, seed: u64, seconds: f64, trace: bool) -> Option<Outcome> {
    let t = Instant::now();
    let w = workload(name, seed)?;
    let input_s = t.elapsed().as_secs_f64();

    // The first pass fills the process's heap and page tables, so its host
    // time reads high (by about a tenth on npb-fig6, whose IPoIB legs touch
    // gigabytes). It is checked like every other pass and sets the peak
    // resident set — later passes may reuse memory it freed — but no
    // host-clock figure includes it. It counts toward `seconds`: after
    // `MIN_PASSES`, the run starts another pass only if one as long as the
    // last still ends in time, so a run lasts about `seconds` however long
    // a pass takes.
    let start = Instant::now();
    let first = w.pass(Mode::Run);
    let peak_rss_mib = stats::peak_rss_mib();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    loop {
        let t = Instant::now();
        untraced.push(w.pass(Mode::Run));
        if trace {
            let mut p = w.pass(Mode::Traced);
            add_span_figures(&mut p);
            if !traced.is_empty() {
                p.spans = Vec::new(); // only the first traced pass is written
            }
            traced.push(p);
        }
        let next_ends = start.elapsed().as_secs_f64() + t.elapsed().as_secs_f64();
        if untraced.len() >= MIN_PASSES && next_ends > seconds {
            break;
        }
    }
    let clock = |p: &Pass| format!("{:.4}/{:.4}", p.cpu_s, p.wall_s);
    let clocks = |ps: &[Pass]| ps.iter().map(clock).collect::<Vec<_>>();
    eprintln!(
        "perfbench: run-phase CPU/wall seconds per pass: first {} untraced {:?} traced {:?}",
        clock(&first),
        clocks(&untraced),
        clocks(&traced)
    );
    let setups: Vec<(f64, f64)> = (0..SETUPS)
        .map(|_| {
            let p = w.pass(Mode::SetupOnly);
            (p.build_s, p.connect_s)
        })
        .collect();

    let mut checks = Checks::default();
    for (i, p) in untraced.iter().chain(&traced).enumerate() {
        checks.expect(
            p.virt == first.virt && p.counters == first.counters,
            &format!("pass {} reproduces the first pass's virtual figures", i + 1),
        );
    }
    let setup = |f: fn(&(f64, f64)) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let mut values = Metrics::new();
    if trace {
        values.extend(first.counters.clone());
        for name in HOST_UNTRACED {
            let host = |p: &Pass| p.host.get(name).copied().unwrap_or(0.0);
            values.insert(name.into(), median_of(&untraced, host));
        }
        for name in HOST_TRACED {
            values.insert(name.into(), median_of(&traced, |p| p.host[name]));
        }
        let untraced_cpu = median_of(&untraced, |p| p.cpu_s);
        let traced_cpu = median_of(&traced, |p| p.cpu_s);
        let events = first.counters["sim.events"].max(1.0);
        values.insert("sim.ns_per_event".into(), untraced_cpu * 1e9 / events);
        values.insert("core.build_s".into(), setup(|s| s.0));
        values.insert("core.connect_s".into(), setup(|s| s.1));
        add_ring_figures(
            &mut values,
            &traced[0].ring,
            first.counters["nic.retx_replays"],
        );
        values.insert("bench.input_s".into(), input_s);
        let total = |f: fn(&Pass) -> f64| untraced.iter().map(f).sum::<f64>();
        values.insert(
            "bench.cpu_share".into(),
            total(|p| p.cpu_s) / total(|p| p.wall_s),
        );
        values.insert(
            "trace.overhead_pct".into(),
            (traced_cpu / untraced_cpu - 1.0) * 100.0,
        );
        let evicted: u64 = traced.iter().map(|p| p.ring.full_rings).sum();
        values.insert("trace.evicted".into(), evicted as f64);
        checks.expect(evicted == 0, "the lifecycle ring evicted nothing");
        write_spans(name, seed, &traced[0].spans);
    } else {
        values.insert("cpu_s".into(), median_of(&untraced, |p| p.cpu_s));
        values.insert("setup_s".into(), setup(|s| s.0 + s.1));
        values.insert("peak_rss_mib".into(), peak_rss_mib);
        values.extend(first.virt.clone());
    }

    let wanted = if trace { PER_LAYER } else { END_TO_END };
    let metrics = wanted
        .iter()
        .map(|&(metric, unit)| {
            let v = values.get(metric).copied().unwrap_or(0.0);
            checks.expect(v.is_finite(), &format!("{metric} is a finite number"));
            (metric, if v.is_finite() { v } else { 0.0 }, unit)
        })
        .collect();
    let all = std::iter::once(&first).chain(&untraced).chain(&traced);
    Some(Outcome {
        attempted: all.clone().map(|p| p.attempted).sum(),
        failed: all.map(|p| p.failed).sum::<u64>() + checks.failed,
        metrics,
    })
}

/// Host-clock layer figures the workloads time themselves, zero where a
/// workload has no such leg; medians over untraced passes.
const HOST_UNTRACED: [&str; 4] = [
    "npb.host_s.bypass",
    "npb.host_s.cord",
    "npb.host_s.ipoib",
    "ipoib.host_us_per_pkt",
];

/// Host-clock layer figures taken from spans; medians over traced passes.
const HOST_TRACED: [&str; 3] = ["sim.host_s", "rpc.host_s", "mpi.host_s"];

fn median_of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// Split a traced pass's run phase by span: the benchmark's own tasks and
/// the layer calls they make inline, and everything else (executor, timer
/// wheel, NIC engines, switch ports, and tasks the program spawns itself).
fn add_span_figures(p: &mut Pass) {
    let s = &p.spans;
    let figures = [
        ("sim.host_s", p.wall_s - spans::root_busy_s(s)),
        (
            "rpc.host_s",
            spans::busy_s(s, &["rpc.client", "rpc.server"]),
        ),
        (
            "mpi.host_s",
            spans::busy_s(
                s,
                &[
                    "mpi.allreduce",
                    "mpi.alltoallv",
                    "mpi.barrier",
                    "npb.run_iter",
                ],
            ),
        ),
    ];
    for (name, v) in figures {
        p.host.insert(name.into(), v);
    }
}

/// Per-stage figures from a traced pass's lifecycle rings.
fn add_ring_figures(values: &mut Metrics, ring: &RingStats, replays: f64) {
    let q = |xs: &[f64], at: f64| quantile(&mut xs.to_vec(), at);
    let figures = [
        ("net.queue_p99_kib", q(&ring.queue_bytes, 0.99) / 1024.0),
        ("net.wire_p50_us", q(&ring.wire_us, 0.5)),
        ("net.wire_p99_us", q(&ring.wire_us, 0.99)),
        ("nic.tx_p50_us", q(&ring.tx_us, 0.5)),
        ("nic.rx_p50_us", q(&ring.rx_us, 0.5)),
        ("nic.rate_cuts", ring.rate_cuts as f64),
        ("nic.replay_ratio", replays / (ring.wqes as f64).max(1.0)),
    ];
    for (name, v) in figures {
        values.insert(name.into(), v);
    }
}

/// Write a traced pass's spans as TSV under `out/` in the benchmark's own
/// directory; a failure to write is reported, not fatal.
fn write_spans(name: &str, seed: u64, spans: &[Span]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{name}-seed{seed}.tsv"));
    let mut text = String::from(spans::TSV_HEADER);
    text.push_str(&spans::to_tsv(spans));
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text));
    match written {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}
