//! Order statistics and host readings shared by every workload.

use std::time::Instant;

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs` by nearest rank; 0 for no samples.
///
/// Sorts `xs` in place. Nearest rank keeps every reported value one that was
/// actually observed, so a virtual latency stays bit-identical across runs.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// Median of `xs`: the mean of the two middle values for an even count.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive ratios.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// This thread's CPU seconds so far, from `/proc/thread-self/schedstat`;
/// NaN where that cannot be read. The kernel brings the figure up to date at
/// each scheduler tick and task switch, and leaves out time the hypervisor
/// stole from the vCPU.
pub fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(f64::NAN, |ns| ns as f64 / 1e9)
}

/// Times a stretch of this thread on both host clocks.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu: thread_cpu_s(),
        }
    }

    /// Wall seconds, and this thread's CPU seconds, since [`Stopwatch::start`].
    pub fn read(&self) -> (f64, f64) {
        (self.wall.elapsed().as_secs_f64(), thread_cpu_s() - self.cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut xs, 0.5), 50.0);
        assert_eq!(quantile(&mut xs, 0.99), 99.0);
        assert_eq!(quantile(&mut xs, 1.0), 100.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn cpu_clock_counts_work_not_sleep() {
        let clock = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut x = 0u64;
        while clock.read().0 < 0.06 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let (wall, cpu) = clock.read();
        assert!(cpu.is_finite() && cpu <= wall, "cpu {cpu} wall {wall}");
        assert!(
            wall - cpu > 0.02,
            "the sleep is not CPU time: cpu {cpu} wall {wall}"
        );
    }
}
