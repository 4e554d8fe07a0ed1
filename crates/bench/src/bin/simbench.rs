//! `simbench` — wall-clock benchmarks of the simulator core on fixed
//! loadgen scenarios, persisted as the repo's perf trajectory.
//!
//! ```text
//! cargo run --release --bin simbench            # full suite
//! cargo run --release --bin simbench -- --quick # CI smoke (seconds)
//! cargo run --release --bin simbench -- incast-dcqcn
//! ```
//!
//! Every named benchmark pins its scenario spec completely (nodes,
//! tenants, requests, topology, cc, seed), so two builds of the simulator
//! can be compared run-to-run:
//!
//! * `kv-fanout`   — closed-loop small RPC fan-out on the full mesh; the
//!   message-rate / executor-churn stress.
//! * `incast-dcqcn` — open-loop 32 KiB fan-in on a fat tree with DCQCN,
//!   the timer-heavy case (CNP echo gates, rate-limiter pacing gates,
//!   alpha/recovery timers on every QP).
//! * `shuffle`     — all-to-all 16 KiB exchange, ~960 concurrent QPs; the
//!   task-count / ready-queue stress.
//! * `lossy-retx`  — the incast on a small-buffer tail-dropping fat tree
//!   with RC retransmission armed: the go-back-N window, gap notices,
//!   and tombstone-cancelled retransmit timers on the hot path. Its
//!   digest line additionally pins the drop/replay counters.
//! * `lossy-retx-spray` — the same lossy fan-in under per-packet spray
//!   routing with the selective-repeat receiver: per-packet congestion
//!   snapshots, out-of-order fragment installs, SACK-driven partial
//!   replays. Its digest line pins spray determinism and the SACK
//!   replay economy.
//! * `allreduce-ring` — a fabric-saturating 16-rank × 512 KiB ring
//!   allreduce over `cord-mpi` with DCQCN: the rendezvous RTS/CTS/DATA
//!   hot path. Its digest line pins the collective schedule end to end.
//! * `prefill-decode` — disaggregated serving: open-loop 128 KiB
//!   KV-cache pushes from the prefill half into the decode half of a
//!   fat tree under a 250 µs SLO.
//!
//! Results land in `results/simbench_<name>.json` (`--quick` writes
//! `simbench_quick_<name>.json`, so smoke runs never clobber the
//! committed full-run perf trajectory): wall seconds plus the executor's
//! own counters (polls/s, timer fires/s). Wall-clock fields are
//! nondeterministic by nature, so the virtual-time digest every run must
//! reproduce exactly is written separately to
//! `results/simbench_digest.txt` — CI runs the bench twice and diffs that
//! file byte-for-byte.
//!
//! Two observability side-channels ride along without touching the
//! digest: `results/simbench_attr.txt` attributes every bench's polls
//! and timer fires to the subsystem that caused them (NIC engines,
//! switch ports, CPU billing, other — the executor's [`Subsystem`]
//! tags) and counts the bench's guest-memory payload copies (gathers and
//! compactions, with their bytes; CI fails on any), and `--trace` arms
//! the packet-lifecycle ring during each bench and exports
//! `results/simbench[_quick]_trace_<bench>.json` in Chrome trace_event
//! form. Tracing observes without perturbing: the digest is
//! byte-identical with and without `--trace`.
//!
//! [`Subsystem`]: cord_sim::Subsystem

use std::fmt::Write as _;
use std::time::Instant;

use cord_bench::perfetto::write_chrome_trace;
use cord_bench::{append_jsonl, print_table, save_json};
use cord_hw::thread_copy_stats;
use cord_nic::CcAlgorithm;
use cord_sim::Subsystem;
use cord_workload::scenarios::{self, Scale};
use cord_workload::{run_scenario_full, RunOptions, ScenarioSpec};

use serde::Serialize;

/// Ring capacity for `--trace` (same bound as loadgen's).
const TRACE_CAPACITY: usize = 1 << 20;

/// One benchmark = one fully pinned scenario.
struct Bench {
    name: &'static str,
    spec: ScenarioSpec,
}

/// The fixed benchmark suite. `quick` divides request counts by 10 so CI
/// can run the whole suite (twice) in seconds.
fn suite(quick: bool) -> Vec<Bench> {
    let req = |n: usize| if quick { (n / 10).max(1) } else { n };
    let scale = |requests: usize, cc: CcAlgorithm| Scale {
        requests: req(requests),
        cc: Some(cc),
        ..Scale::default()
    };
    vec![
        Bench {
            name: "kv-fanout",
            spec: scenarios::kv_fanout(scale(600, CcAlgorithm::None)),
        },
        Bench {
            name: "incast-dcqcn",
            spec: scenarios::incast(scale(600, CcAlgorithm::Dcqcn)),
        },
        Bench {
            name: "shuffle",
            spec: scenarios::shuffle(scale(300, CcAlgorithm::None)),
        },
        Bench {
            name: "lossy-retx",
            // Half the tenant fan-in of the other benches: a sustained
            // 600-request run at the full 32-tenant overload drives some
            // QPs into (legitimate, deterministic) retry exhaustion;
            // 16 tenants keep the bench lossy but fully recoverable, so
            // the digest pins `completed` at the issued count.
            spec: scenarios::lossy_incast_rc(Scale {
                tenants: 16,
                requests: req(600),
                ..Scale::default()
            }),
        },
        Bench {
            name: "lossy-retx-spray",
            // The same lossy fan-in under congestion-aware per-packet
            // spray and selective repeat: every cross-leaf packet takes a
            // per-packet congestion snapshot and the receiver runs the
            // SACK/out-of-order-install path — the multipath hot path.
            // Its digest line pins both spray determinism (packet-level
            // path choices feed `drops`) and the SACK replay economy
            // (`retx` is the selective-repeat replay count).
            spec: scenarios::spray_incast(Scale {
                tenants: 16,
                requests: req(600),
                ..Scale::default()
            }),
        },
        Bench {
            name: "allreduce-ring",
            // A fabric-saturating ring allreduce (16 ranks × 512 KiB):
            // the rendezvous hot path — every chunk is an RTS/CTS/DATA
            // exchange — plus DCQCN timers on every rank's QPs. Its
            // digest line pins the collective schedule end to end
            // (virtual_ms moves if a single chunk reorders).
            spec: scenarios::allreduce_ring(Scale {
                requests: req(600),
                ..Scale::default()
            }),
        },
        Bench {
            name: "prefill-decode",
            // Disaggregated serving: open-loop 128 KiB KV-cache pushes
            // from the prefill half into the decode half of a fat tree,
            // DCQCN armed, 250 µs SLO. The digest pins completion and
            // goodput; SLO attainment lives in the loadgen scoreboard.
            spec: scenarios::prefill_decode(Scale {
                requests: req(150),
                ..Scale::default()
            }),
        },
    ]
}

#[derive(Serialize)]
struct SimbenchReport {
    /// Trajectory label for this run (`--label`, e.g. "pr4").
    label: String,
    bench: String,
    scenario: String,
    nodes: usize,
    tenants: usize,
    requests_per_tenant: usize,
    topology: String,
    cc: String,
    seed: u64,
    quick: bool,
    /// Wall-clock time of `run_scenario` (nondeterministic; excluded from
    /// the determinism digest).
    wall_seconds: f64,
    virtual_ms: f64,
    polls: u64,
    timer_fires: u64,
    polls_per_sec: f64,
    timer_fires_per_sec: f64,
    completed: u64,
    goodput_gbps: f64,
}

/// What one bench run leaves behind: the perf report, the scenario's
/// fabric counters (digest-only — the JSON stays pure perf data), the
/// per-subsystem attribution line, and the lifecycle trace if armed.
struct BenchRun {
    report: SimbenchReport,
    fabric: Option<cord_workload::FabricCounters>,
    attr: String,
    trace: Option<Vec<cord_sim::TraceEvent>>,
}

fn run_bench(b: &Bench, quick: bool, label: &str, trace: bool) -> BenchRun {
    let opts = RunOptions {
        trace_capacity: trace.then_some(TRACE_CAPACITY),
    };
    let copies0 = thread_copy_stats();
    let t0 = Instant::now();
    let out = run_scenario_full(&b.spec, opts).unwrap_or_else(|e| panic!("{}: {e}", b.name));
    let wall = t0.elapsed().as_secs_f64();
    let copies = thread_copy_stats();
    let (report, core) = (out.report, out.core);
    let fabric = report.fabric;
    // Attribution: deterministic counts, but deliberately NOT part of the
    // digest — the digest's poll/fire totals are perf-gated (±tolerance),
    // and splitting them there would turn every executor tweak into four
    // baseline refreshes. The side file keeps the breakdown inspectable.
    let mut attr = b.name.to_string();
    for sub in Subsystem::ALL {
        write!(
            attr,
            " polls[{}]={}",
            sub.label(),
            core.sim.polls_by[sub as usize]
        )
        .unwrap();
    }
    for sub in Subsystem::ALL {
        write!(
            attr,
            " fires[{}]={}",
            sub.label(),
            core.sim.timer_fires_by[sub as usize]
        )
        .unwrap();
    }
    write!(
        attr,
        " copies={} copy_bytes={}",
        copies.copies - copies0.copies,
        copies.bytes - copies0.bytes
    )
    .unwrap();
    let r = SimbenchReport {
        label: label.to_string(),
        bench: b.name.to_string(),
        scenario: report.scenario.clone(),
        nodes: report.nodes,
        tenants: b.spec.tenants.len(),
        requests_per_tenant: b.spec.tenants.first().map_or(0, |t| t.requests),
        topology: report.topology.clone(),
        cc: report.cc.clone(),
        seed: b.spec.seed,
        quick,
        wall_seconds: wall,
        virtual_ms: report.elapsed_ms,
        polls: core.sim.polls,
        timer_fires: core.sim.timer_fires,
        polls_per_sec: core.sim.polls as f64 / wall,
        timer_fires_per_sec: core.sim.timer_fires as f64 / wall,
        completed: report.total_completed,
        goodput_gbps: report.total_goodput_gbps,
    };
    BenchRun {
        report: r,
        fabric,
        attr,
        trace: out.trace,
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: simbench [--quick] [--trace] [--label <name>] [bench ...]\n\
         benches: kv-fanout, incast-dcqcn, shuffle, lossy-retx, lossy-retx-spray,\n\
         \x20        allreduce-ring, prefill-decode"
    );
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut trace = false;
    let mut label = String::from("dev");
    let mut picked: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--trace" => trace = true,
            "--label" => match args.next() {
                Some(v) if !v.starts_with('-') => label = v,
                _ => usage(),
            },
            s if s.starts_with('-') => usage(),
            s => picked.push(s.to_string()),
        }
    }
    let benches: Vec<Bench> = suite(quick)
        .into_iter()
        .filter(|b| picked.is_empty() || picked.iter().any(|p| p == b.name))
        .collect();
    if benches.is_empty() {
        usage();
    }

    let mut rows = Vec::new();
    let mut digest = String::new();
    let mut attr = String::new();
    for b in &benches {
        let run = run_bench(b, quick, &label, trace);
        let (r, fabric) = (run.report, run.fabric);
        writeln!(attr, "{}", run.attr).unwrap();
        rows.push(vec![
            r.bench.clone(),
            format!("{:.3}", r.wall_seconds),
            format!("{:.3}", r.virtual_ms),
            format!("{}", r.polls),
            format!("{}", r.timer_fires),
            format!("{:.2e}", r.polls_per_sec),
            format!("{:.2e}", r.timer_fires_per_sec),
        ]);
        // Everything in the digest must be bit-reproducible across runs.
        write!(
            digest,
            "{} virtual_ms={} polls={} timer_fires={} completed={} goodput_gbps={}",
            r.bench, r.virtual_ms, r.polls, r.timer_fires, r.completed, r.goodput_gbps
        )
        .unwrap();
        // Fabric benches (PFC / RC retransmission) also pin their
        // loss-recovery counters — these are simulation semantics, so they
        // belong with the byte-exact fields, not the perf ones.
        if let Some(f) = &fabric {
            write!(
                digest,
                " drops={} pauses={} pause_ms={} retx={}",
                f.net_drops, f.net_pauses, f.net_pause_ms, f.retx_replays
            )
            .unwrap();
        }
        writeln!(digest).unwrap();
        // Quick smoke runs write under a different name so they never
        // clobber the committed full-run trajectory files.
        let prefix = if quick { "simbench_quick" } else { "simbench" };
        save_json(&format!("{prefix}_{}", r.bench), &r);
        if let Some(events) = &run.trace {
            let path = format!("results/{prefix}_trace_{}.json", r.bench);
            match write_chrome_trace(std::path::Path::new(&path), events) {
                Ok(()) => println!("[saved {path} — {} trace events]", events.len()),
                Err(e) => eprintln!("{}: trace write failed: {e}", r.bench),
            }
        }
        // Full runs (the committed perf numbers) also accumulate into the
        // append-only trajectory; quick smoke runs never touch it.
        if !quick {
            append_jsonl("simbench_trajectory", &r);
        }
    }
    print_table(
        &format!("simbench{}", if quick { " --quick" } else { "" }),
        &[
            "bench", "wall s", "virt ms", "polls", "fires", "polls/s", "fires/s",
        ],
        &rows,
    );
    if std::fs::create_dir_all("results").is_ok()
        && std::fs::write("results/simbench_digest.txt", &digest).is_ok()
    {
        println!("[saved results/simbench_digest.txt]");
    }
    // The attribution breakdown lives beside the digest, never in it:
    // deterministic and diffable, but not a gate.
    if std::fs::write("results/simbench_attr.txt", &attr).is_ok() {
        println!("[saved results/simbench_attr.txt]");
    }
}
