//! Per-tenant SLO accounting, built on `cord_sim::stats`.

use std::cell::RefCell;
use std::rc::Rc;

use cord_sim::stats::Histogram;
use cord_sim::{SimDuration, SimTime};
use serde::Serialize;

/// Mutable per-tenant counters, shared by all of a tenant's connection
/// tasks via `Rc<TenantStats>`.
#[derive(Default)]
pub struct TenantStats {
    inner: RefCell<StatsInner>,
}

#[derive(Default)]
struct StatsInner {
    latency: Option<Histogram>,
    issued: u64,
    completed: u64,
    dropped: u64,
    bytes_moved: u64,
    /// First arrival and last completion, bounding the tenant's active span
    /// (its goodput denominator — tenants finish at different times).
    first_issue: Option<SimTime>,
    last_event: SimTime,
    /// Latency objective, when the tenant declared one; completions whose
    /// sojourn met it are counted in `slo_ok`.
    slo: Option<SimDuration>,
    slo_ok: u64,
}

impl TenantStats {
    /// Fresh counters with no latency objective.
    pub fn new() -> Rc<TenantStats> {
        Rc::new(TenantStats::default())
    }

    /// Fresh counters, tracking SLO attainment when `slo` is `Some`.
    pub fn with_slo(slo: Option<SimDuration>) -> Rc<TenantStats> {
        let st = TenantStats::default();
        st.inner.borrow_mut().slo = slo;
        Rc::new(st)
    }

    /// A request entered the system at `now`.
    pub fn on_issue(&self, now: SimTime) {
        let mut s = self.inner.borrow_mut();
        s.issued += 1;
        s.first_issue.get_or_insert(now);
        s.last_event = s.last_event.max(now);
    }

    /// A request finished: `sojourn` is arrival-to-response time (includes
    /// queueing for open-loop tenants); `bytes` is request + response
    /// payload.
    pub fn on_complete(&self, now: SimTime, sojourn: SimDuration, bytes: usize) {
        let mut s = self.inner.borrow_mut();
        s.completed += 1;
        s.bytes_moved += bytes as u64;
        s.last_event = s.last_event.max(now);
        if s.slo.is_some_and(|slo| sojourn <= slo) {
            s.slo_ok += 1;
        }
        s.latency
            .get_or_insert_with(Histogram::new)
            .record(sojourn.as_ps());
    }

    /// A request was refused by a kernel policy (quota, security, ...).
    pub fn on_drop(&self) {
        self.inner.borrow_mut().dropped += 1;
    }

    /// Requests completed so far.
    pub fn completed(&self) -> u64 {
        self.inner.borrow().completed
    }

    /// Requests refused by kernel policies so far.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped
    }

    /// Snapshot `(issued, completed, bytes_moved)` for the telemetry
    /// samplers: in-flight is `issued - completed - dropped`, windowed
    /// goodput is the delta of `bytes_moved` across one cadence.
    pub fn progress(&self) -> (u64, u64, u64) {
        let s = self.inner.borrow();
        (s.issued, s.completed + s.dropped, s.bytes_moved)
    }

    /// Virtual instant of the tenant's last issue/completion (recovery
    /// accounting for tenants that finish before the next sample lands).
    pub fn last_event(&self) -> SimTime {
        self.inner.borrow().last_event
    }

    /// Freeze into a report. Goodput is computed over the tenant's own
    /// active span (first arrival to last completion), so tenants that
    /// finish early aren't diluted by a long-running scenario.
    pub fn report(&self, name: &str) -> TenantReport {
        let s = self.inner.borrow();
        let q = |quant: f64| -> f64 {
            s.latency
                .as_ref()
                .map(|h| h.quantile(quant) as f64 / 1e6)
                .unwrap_or(0.0)
        };
        let mean_us = s
            .latency
            .as_ref()
            .map(|h| h.mean() / 1e6)
            .filter(|m| m.is_finite())
            .unwrap_or(0.0);
        let span_s = s
            .first_issue
            .map(|t0| s.last_event.saturating_since(t0).as_secs_f64())
            .unwrap_or(0.0);
        TenantReport {
            tenant: name.to_string(),
            issued: s.issued,
            completed: s.completed,
            dropped: s.dropped,
            p50_us: q(0.50),
            p99_us: q(0.99),
            p999_us: q(0.999),
            mean_us,
            max_us: s
                .latency
                .as_ref()
                .map(|h| h.max() as f64 / 1e6)
                .unwrap_or(0.0),
            bytes_moved: s.bytes_moved,
            active_ms: span_s * 1e3,
            goodput_gbps: if span_s > 0.0 {
                s.bytes_moved as f64 * 8.0 / span_s / 1e9
            } else {
                0.0
            },
            slo_us: s.slo.map(|d| d.as_us_f64()),
            slo_attained: s.slo.map(|_| {
                if s.completed > 0 {
                    s.slo_ok as f64 / s.completed as f64
                } else {
                    0.0
                }
            }),
        }
    }
}

/// Immutable per-tenant scoreboard.
#[derive(Debug, Clone, Serialize)]
pub struct TenantReport {
    /// Tenant (or collective job) name from the spec.
    pub tenant: String,
    /// Requests that entered the system.
    pub issued: u64,
    /// Requests that finished.
    pub completed: u64,
    /// Requests refused by kernel policies.
    pub dropped: u64,
    /// Median sojourn time, µs.
    pub p50_us: f64,
    /// 99th-percentile sojourn time, µs.
    pub p99_us: f64,
    /// 99.9th-percentile sojourn time, µs.
    pub p999_us: f64,
    /// Mean sojourn time, µs.
    pub mean_us: f64,
    /// Worst sojourn time, µs.
    pub max_us: f64,
    /// Payload bytes moved (request + response) by completed requests.
    pub bytes_moved: u64,
    /// First arrival to last completion, ms.
    pub active_ms: f64,
    /// Payload bits moved per second of the tenant's active span.
    pub goodput_gbps: f64,
    /// Latency objective, µs — only when the tenant declared one.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub slo_us: Option<f64>,
    /// Fraction of completed requests whose sojourn met the objective —
    /// only when the tenant declared one.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub slo_attained: Option<f64>,
}

/// Fabric-level loss/pause/retransmission counters, present in a report
/// only when the scenario engaged one of the new fabric knobs (PFC, RC
/// retransmission, or a buffer override). Absent fields are omitted from
/// the JSON, not serialized as nulls, so reports written before a knob
/// existed stay byte-identical.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FabricCounters {
    /// PFC effectively enabled (false when requested on the full mesh,
    /// where the knob is inert).
    pub pfc: bool,
    /// RC retransmission armed on tenant QPs.
    pub rc_retx: bool,
    /// Routing policy, only when non-default (spray).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub routing: Option<String>,
    /// Retransmission flavor, only when non-default (sr).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub retx_mode: Option<String>,
    /// Per-port buffer override, if any.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub buffer_bytes: Option<u64>,
    /// Frames tail-dropped by switch ports.
    pub net_drops: u64,
    /// XOFF pause episodes asserted across all switch ports.
    pub net_pauses: u64,
    /// Cumulative pause time across all switch ports, ms.
    pub net_pause_ms: f64,
    /// Messages queued for go-back-N replay across all NICs.
    pub retx_replays: u64,
    /// QPs errored out after exhausting their retry budget.
    pub retx_exhausted: u64,
}

/// Chaos-plane detection counters, present in a report only when the
/// scenario carried a non-empty fault schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ChaosCounters {
    /// Fault events injected (each counted once, at onset).
    pub faults: u64,
    /// Events skipped as inapplicable to this fabric.
    pub faults_skipped: u64,
    /// Frames rerouted around dead spines.
    pub chaos_reroutes: u64,
    /// Frames lost to dead hardware.
    pub chaos_dead_frames: u64,
    /// PFC deadlocks detected (and broken) by the no-progress watchdog.
    pub chaos_pfc_deadlocks: u64,
}

/// One tenant's time series from the telemetry samplers, columnar: entry
/// `k` of every vector belongs to the `k`-th sample instant.
#[derive(Debug, Clone, Serialize)]
pub struct TenantSeries {
    /// Tenant (or collective job) name from the spec.
    pub tenant: String,
    /// Requests issued but not yet completed or dropped at each sample.
    pub inflight: Vec<u64>,
    /// Goodput over the window ending at each sample, Gbit/s.
    pub goodput_gbps: Vec<f64>,
}

/// Deterministic time-series telemetry: fixed-cadence samples driven by
/// the sim clock (never ambient time), present in a report only when the
/// scenario armed `ScenarioSpec::telemetry`.
#[derive(Debug, Clone, Serialize)]
pub struct TelemetryReport {
    /// Sampling cadence, µs of virtual time.
    pub cadence_us: f64,
    /// Sample instants, µs since traffic launch (t0).
    pub t_us: Vec<f64>,
    /// Deepest switch-port queue at each sample, bytes (0 on a mesh).
    pub max_port_queued: Vec<u64>,
    /// Switch ports holding XOFF at each sample (0 without PFC).
    pub paused_ports: Vec<u64>,
    /// Slowest DCQCN rate across tenant client QPs at each sample,
    /// Gbit/s; `None` when no QP runs DCQCN.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub min_dcqcn_gbps: Option<Vec<f64>>,
    /// Per-tenant series, in scenario tenant order.
    pub tenants: Vec<TenantSeries>,
}

/// One tenant's recovery verdict after a fault cleared: the time from
/// clearance until windowed goodput returned to within 10% of the
/// pre-fault rate (or until the tenant finished everything it had left).
#[derive(Debug, Clone, Serialize)]
pub struct TenantRecovery {
    /// Tenant (or collective job) name from the spec.
    pub tenant: String,
    /// Whether the tenant got back to ≥ 90% of its pre-fault goodput (or
    /// completed all requests) after the last fault clearance.
    pub recovered: bool,
    /// Clearance-to-recovery time, µs; absent when not recovered.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub recovery_us: Option<f64>,
}

/// Whole-scenario result. Optional blocks are omitted from the JSON, not
/// serialized as nulls, and the counter blocks are flattened into the top
/// level: every scenario that existed before a block keeps byte-identical
/// JSON.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioReport {
    /// Scenario name from the spec.
    pub scenario: String,
    /// Machine preset the fabric was cloned from.
    pub machine: String,
    /// Fabric size in nodes.
    pub nodes: usize,
    /// Root RNG seed of the run.
    pub seed: u64,
    /// Network shape (e.g. `full-mesh`, `fat-tree/8`, `dumbbell/25g`).
    pub topology: String,
    /// Congestion control applied to tenant QPs (`none` or `dcqcn`).
    pub cc: String,
    /// Loss/pause/retransmit counters (`None` for pre-existing
    /// configurations, keeping their JSON byte-identical).
    #[serde(flatten)]
    pub fabric: Option<FabricCounters>,
    /// Chaos detection counters (`None` with an empty fault schedule,
    /// keeping fault-free JSON byte-identical).
    #[serde(flatten)]
    pub chaos: Option<ChaosCounters>,
    /// Per-tenant recovery-time verdicts (`None` unless a fault actually
    /// cleared *and* the telemetry samplers were armed to witness the
    /// recovery).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub recovery: Option<Vec<TenantRecovery>>,
    /// Deterministic time series (`None` unless the scenario armed
    /// `ScenarioSpec::telemetry`).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub telemetry: Option<TelemetryReport>,
    /// Client connections (QP pairs) the tenants opened.
    pub connections: usize,
    /// Total QPs created across tenants and collective worlds.
    pub qps_created: usize,
    /// Traffic-launch to last-completion, ms of virtual time.
    pub elapsed_ms: f64,
    /// Requests completed across all tenants (collective rows count one
    /// completion per rank per iteration).
    pub total_completed: u64,
    /// Requests refused by kernel policies, across all tenants.
    pub total_dropped: u64,
    /// Payload bits moved per second of the whole run.
    pub total_goodput_gbps: f64,
    /// Per-tenant scoreboards, spec order; collective jobs append one row
    /// each after the tenants.
    pub tenants: Vec<TenantReport>,
    /// Per-collective completion/bandwidth/skew rows. Empty (and omitted
    /// from the JSON) when the scenario ran no collectives, keeping every
    /// pre-existing report byte-identical.
    #[serde(skip_serializing_if = "Vec::is_empty")]
    pub collectives: Vec<crate::collective::CollectiveReport>,
}

impl ScenarioReport {
    /// Assemble the report from a finished run's parts.
    #[allow(clippy::too_many_arguments)]
    pub fn summarize(
        spec: &crate::spec::ScenarioSpec,
        qps_created: usize,
        elapsed: SimDuration,
        tenants: Vec<TenantReport>,
        fabric: Option<FabricCounters>,
        chaos: Option<ChaosCounters>,
        recovery: Option<Vec<TenantRecovery>>,
        telemetry: Option<TelemetryReport>,
        collectives: Vec<crate::collective::CollectiveReport>,
    ) -> ScenarioReport {
        let secs = elapsed.as_secs_f64();
        let total_bytes: u64 = tenants.iter().map(|t| t.bytes_moved).sum();
        ScenarioReport {
            scenario: spec.name.clone(),
            machine: spec.machine.name.to_string(),
            nodes: spec.nodes,
            seed: spec.seed,
            topology: spec.topology.to_string(),
            cc: spec.cc.to_string(),
            fabric,
            chaos,
            recovery,
            telemetry,
            connections: spec.total_connections(),
            qps_created,
            elapsed_ms: elapsed.as_us_f64() / 1e3,
            total_completed: tenants.iter().map(|t| t.completed).sum(),
            total_dropped: tenants.iter().map(|t| t.dropped).sum(),
            total_goodput_gbps: if secs > 0.0 {
                total_bytes as f64 * 8.0 / secs / 1e9
            } else {
                0.0
            },
            tenants,
            collectives,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_computes_quantiles_and_goodput() {
        let st = TenantStats::new();
        st.on_issue(SimTime::ZERO);
        for i in 1..=100u64 {
            if i > 1 {
                st.on_issue(SimTime(i * 1_000_000));
            }
            st.on_complete(SimTime(i * 1_000_000), SimDuration::from_us(i), 1000);
        }
        st.on_drop();
        let r = st.report("t0");
        assert_eq!(r.issued, 100);
        assert_eq!(r.completed, 100);
        assert_eq!(r.dropped, 1);
        assert!((r.p50_us - 50.0).abs() < 3.0, "p50 {}", r.p50_us);
        assert!((r.p99_us - 99.0).abs() < 4.0, "p99 {}", r.p99_us);
        // 100 kB over a 100 µs active span = 8 Gbit/s.
        assert!((r.active_ms - 0.1).abs() < 1e-9, "{}", r.active_ms);
        assert!((r.goodput_gbps - 8.0).abs() < 0.01, "{}", r.goodput_gbps);
    }

    #[test]
    fn slo_attainment_counts_only_within_objective() {
        let st = TenantStats::with_slo(Some(SimDuration::from_us(50)));
        st.on_issue(SimTime::ZERO);
        for i in 1..=10u64 {
            if i > 1 {
                st.on_issue(SimTime(i * 1_000_000));
            }
            // Sojourns 10, 20, ..., 100 µs: exactly 5 meet the 50 µs SLO.
            st.on_complete(SimTime(i * 1_000_000), SimDuration::from_us(i * 10), 100);
        }
        let r = st.report("slo");
        assert_eq!(r.slo_us, Some(50.0));
        assert_eq!(r.slo_attained, Some(0.5));
        // Unarmed tenants serialize without the SLO pair at all.
        let bare = TenantStats::new().report("bare");
        assert!(bare.slo_us.is_none());
        let json = serde_json::to_string(&bare).unwrap();
        assert!(!json.contains("slo"), "{json}");
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"slo_attained\""), "{json}");
    }

    #[test]
    fn empty_stats_report_zeroes() {
        let st = TenantStats::new();
        let r = st.report("idle");
        assert_eq!(r.completed, 0);
        assert_eq!(r.p99_us, 0.0);
        assert_eq!(r.mean_us, 0.0);
        assert_eq!(r.goodput_gbps, 0.0);
    }
}
