//! What a run prints: every metric by name with unit and sample count, the
//! machine fingerprint, and the one-line JSON result.

use crate::check::Tally;
use crate::spec::{metric, Metric, Spec};
use hnsw_flash::metrics::Json;
use std::process::Command;

/// One measured value of a declared metric.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    /// Timing samples (or operations) the value summarizes.
    pub samples: usize,
}

impl Measured {
    pub fn new(name: &'static str, value: f64, samples: usize) -> Self {
        Self {
            name,
            value,
            samples,
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Threads the load generators may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and on what the numbers were taken.
pub fn print_fingerprint(spec: &Spec, seed: u64, seconds: u64, traced: bool) {
    println!(
        "# workload={} seed={seed} seconds={seconds} trace={} nproc={} simd={} rustc=\"{}\" commit={}",
        spec.name,
        u8::from(traced),
        nproc(),
        hnsw_flash::simdops::current_level().name(),
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
    );
    println!(
        "# sizes: n={} dim={} queries={} truth_queries={} coding={} c={} r={} k={} ef={} rerank={} churn={:?}",
        spec.n,
        spec.profile.spec().dim,
        spec.nq,
        spec.truth_q,
        spec.coding,
        spec.c,
        spec.r,
        spec.k,
        spec.ef,
        spec.rerank,
        spec.churn,
    );
}

/// Prints `measured` by name and the final JSON line. The names must be
/// exactly `expected`, in any order.
///
/// # Panics
/// Panics when a declared metric is missing, undeclared, repeated, or not
/// finite: the run then ends without a result instead of a partial one.
pub fn print_result(expected: &[Metric], measured: &[Measured], tally: &Tally) {
    let mut metrics = Vec::with_capacity(expected.len());
    for decl in expected {
        let mut found = measured.iter().filter(|m| m.name == decl.name);
        let m = found
            .next()
            .unwrap_or_else(|| panic!("metric `{}` was not measured", decl.name));
        assert!(
            found.next().is_none(),
            "metric `{}` measured twice",
            decl.name
        );
        assert!(m.value.is_finite(), "metric `{}` is not finite", decl.name);
        println!(
            "{:<40} {:>16.6} {:<8} n={}",
            decl.name, m.value, decl.unit, m.samples
        );
        metrics.push((
            decl.name.to_string(),
            Json::Obj(vec![
                ("value".into(), Json::Num(m.value)),
                ("unit".into(), Json::str(decl.unit)),
            ]),
        ));
    }
    for m in measured {
        assert!(
            expected.iter().any(|d| d.name == m.name),
            "metric `{}` is not declared for this run (declared elsewhere: {})",
            m.name,
            metric(m.name).is_some()
        );
    }
    for why in &tally.failures {
        println!("# FAILED: {why}");
    }
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(tally.correct())),
        ("attempted".into(), Json::uint(tally.attempted.max(1))),
        ("failed".into(), Json::uint(tally.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.to_compact_string());
}
