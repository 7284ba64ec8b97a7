//! The result line every run prints, and the order statistics the
//! workloads report.

use reqisc_compiler::CompileCacheStats;
use reqisc_microarch::{CacheStats, SolverStats};

/// One run's result: the correctness verdict, the operation counts and
/// the metrics, printed as the last line of standard output.
#[derive(Debug, Default)]
pub(crate) struct Report {
    /// True when every output the run checked was right.
    pub(crate) correct: bool,
    /// Operations attempted (programs, pulse solves or requests).
    pub(crate) attempted: u64,
    /// Operations that failed: refused, errored, unsolved or wrong.
    pub(crate) failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// An empty report that is correct until a check says otherwise.
    pub(crate) fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    /// Records one metric. A non-finite value cannot be printed as a JSON
    /// number, so it marks the run incorrect and is reported as -1.
    pub(crate) fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() {
            value
        } else {
            eprintln!("# metric {name} is not finite ({value})");
            self.correct = false;
            -1.0
        };
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records every end-to-end metric. `attempted` and `failed` must be
    /// final: the share of operations that succeeded is derived from them.
    pub(crate) fn end_to_end(&mut self, e: &EndToEnd) {
        let ok_ratio = (self.attempted.saturating_sub(self.failed)) as f64 / self.attempted.max(1) as f64;
        self.metric("setup_s", e.setup_s, "s");
        self.metric("cold_ref", e.cold_ref, "ref");
        self.metric("warm_p50_ref", e.warm_p50_ref, "ref");
        self.metric("warm_p99_ref", e.warm_p99_ref, "ref");
        self.metric("out_2q", e.out_2q as f64, "count");
        self.metric("out_duration_g", e.out_duration_g, "1/g");
        self.metric("ok_ratio", ok_ratio, "ratio");
        self.metric("peak_rss_mb", e.peak_rss_mb.unwrap_or(f64::NAN), "MiB");
    }

    /// Records every per-layer metric.
    pub(crate) fn per_layer(&mut self, p: &PerLayer) {
        let mut count = |name: &str, v: u64| self.metric(name, v as f64, "count");
        count("cache.program_hits", p.pools.programs.hits);
        count("cache.program_misses", p.pools.programs.misses);
        count("cache.synthesis_hits", p.pools.synthesis.hits);
        count("cache.synthesis_misses", p.pools.synthesis.misses);
        count("cache.pulse_hits", p.pools.pulses.hits);
        count("cache.pulse_misses", p.pools.pulses.misses);
        count("solver.solves", p.solver.solves);
        count("solver.evals", p.solver.evals);
        count("solver.failures", p.solver.failures);
        count("solver.early_rejects", p.solver.early_rejects);
        count("solver.newton_iters", p.solver.newton_iters);
        let s = &p.service;
        count("service.submitted", s.submitted);
        count("service.coalesced", s.coalesced);
        count("service.rejected_queue_full", s.rejected_queue_full);
        count("service.failed", s.failed);
        count("service.delivered", s.delivered);
        count("lookup.hits", s.lookup_hits);
        count("lookup.misses", s.lookup_misses);
        count("solve.claimed", s.solve_claimed);
        count("shared.published", s.shared_published);
        count("shared.hits", s.shared_hits);
        self.metric("trace.traced_s", p.traced_s, "s");
        self.metric("trace.untraced_s", p.untraced_s, "s");
        self.metric("trace.overhead_s", p.traced_s - p.untraced_s, "s");
    }

    /// Records a failed check: the run is no longer correct.
    pub(crate) fn fail_check(&mut self, what: impl AsRef<str>) {
        eprintln!("# check failed: {}", what.as_ref());
        self.correct = false;
    }

    /// The one-line JSON object the benchmark contract asks for.
    pub(crate) fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The end-to-end metrics every workload reports on an untraced run, in
/// `BENCHMARK.json` order. What "cold", "warm" and "output" mean for each
/// workload is in NOTES.md. Times other than set-up are in `ref`, the mean
/// chunk time of the interleaved host-speed reference (see `hostspeed`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct EndToEnd {
    /// Median of the set-ups, in seconds.
    pub(crate) setup_s: f64,
    /// Time of one cold unit of work: the median pass, or the mean cold
    /// request.
    pub(crate) cold_ref: f64,
    /// Median and 99th percentile of the warm repeat latencies.
    pub(crate) warm_p50_ref: f64,
    pub(crate) warm_p99_ref: f64,
    /// 2Q gates of the workload's compiled outputs.
    pub(crate) out_2q: usize,
    /// Mean pulse duration per output, in g⁻¹.
    pub(crate) out_duration_g: f64,
    /// Peak resident set of the process doing the work.
    pub(crate) peak_rss_mb: Option<f64>,
}

/// Compile-cache counters of the run (program, synthesis and pulse pools).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Pools {
    pub(crate) programs: CacheStats,
    pub(crate) synthesis: CacheStats,
    pub(crate) pulses: CacheStats,
}

impl From<&CompileCacheStats> for Pools {
    fn from(s: &CompileCacheStats) -> Self {
        Self {
            programs: s.programs,
            synthesis: s.synthesis,
            pulses: s.pulses,
        }
    }
}

/// Service-stage counters over the measured window; all zero in a
/// workload that runs no service.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ServiceCounts {
    pub(crate) submitted: u64,
    pub(crate) coalesced: u64,
    pub(crate) rejected_queue_full: u64,
    pub(crate) failed: u64,
    pub(crate) delivered: u64,
    pub(crate) lookup_hits: u64,
    pub(crate) lookup_misses: u64,
    pub(crate) solve_claimed: u64,
    pub(crate) shared_published: u64,
    pub(crate) shared_hits: u64,
}

/// The per-layer metrics every workload reports on a traced run, in
/// `BENCHMARK.json` order. Counters of a layer the workload bypasses are
/// zero, as measured.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PerLayer {
    pub(crate) pools: Pools,
    pub(crate) solver: SolverStats,
    pub(crate) service: ServiceCounts,
    /// The traced measurement and the same work untraced.
    pub(crate) traced_s: f64,
    pub(crate) untraced_s: f64,
}

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub(crate) fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Percentile by linear interpolation between the closest ranks (the
/// common "type 7" definition; `q = 0.5` is the median).
///
/// # Panics
///
/// Panics on an empty slice.
pub(crate) fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "percentile of nothing");
    let h = (v.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (h - lo as f64) * (v[hi] - v[lo])
}

/// Peak resident set size in MiB of a process (`None` = this one), read
/// from the kernel's high-water mark `VmHWM`.
pub(crate) fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.5);
        assert!((percentile(&xs, 0.99) - 99.01).abs() < 1e-9);
        assert_eq!(percentile(&xs, 1.0), 100.0);
    }

    #[test]
    fn result_line_shape() {
        let mut r = Report::new();
        r.attempted = 3;
        r.metric("setup_s", 0.25, "s");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
