//! `raidbench child <workload>`: a fresh process that runs the
//! workload's library entry point at one thread and reports ns per
//! simulated group and its own peak resident memory. A fresh process
//! per measurement keeps allocator and cache state from earlier work
//! out of the numbers.

use crate::json::Json;
use crate::verify::table3_driver;
use crate::workload::{self, Scale, Workload};
use std::time::Instant;

/// Runs the measurement and returns the JSON line the child prints.
pub fn measure(w: Workload, scale: Scale, seed: u64) -> Json {
    let groups = scale.child_groups(w);
    let (elapsed, simulated, ddfs) = match w {
        Workload::Table3Precision => {
            let sim = workload::simulator(w);
            // The precision driver the CLI runs, capped so it stops
            // after `groups` groups (well short of the precision target).
            let driver = raidsim_core::checkpoint::DriverState {
                max_groups: groups,
                ..table3_driver(scale, seed)
            };
            let start = Instant::now();
            let (stats, _) = sim
                .run_checkpointed(driver, 1, &(), &(), None, None)
                .expect("a run with no checkpoint plan and no resume cannot fail");
            (start.elapsed(), stats.groups(), stats.total_ddfs())
        }
        Workload::OponlyCheckpointed | Workload::ScatterMerge => {
            let sim = workload::simulator(w);
            let start = Instant::now();
            let stats = sim.run_streaming(groups as usize, seed, 1);
            (start.elapsed(), stats.groups(), stats.total_ddfs())
        }
        Workload::SweepTimelineLadder => {
            let fused = workload::fused_sweep(seed);
            let start = Instant::now();
            let report = fused.run_streaming(groups as usize, 1);
            let elapsed = start.elapsed();
            let simulated = report.results.iter().map(|(_, s)| s.groups()).sum();
            let ddfs = report.results.iter().map(|(_, s)| s.total_ddfs()).sum();
            (elapsed, simulated, ddfs)
        }
    };
    Json::obj()
        .with("workload", w.name())
        .with("groups", simulated)
        .with("ddfs", ddfs)
        .with(
            "ns_per_group",
            elapsed.as_nanos() as f64 / simulated.max(1) as f64,
        )
        .with("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN))
}

/// `VmHWM` of this process in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// What the parent reads back from a child's last stdout line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChildReport {
    pub groups: u64,
    /// Deterministic per seed, so every repetition must report the same.
    pub ddfs: u64,
    pub ns_per_group: f64,
    pub peak_rss_mb: f64,
}

impl ChildReport {
    pub fn parse(stdout: &str) -> Option<ChildReport> {
        let j = Json::parse(stdout.lines().last()?).ok()?;
        let report = ChildReport {
            groups: j.get("groups")?.as_f64()? as u64,
            ddfs: j.get("ddfs")?.as_f64()? as u64,
            ns_per_group: j.get("ns_per_group")?.as_f64()?,
            peak_rss_mb: j.get("peak_rss_mb")?.as_f64()?,
        };
        (report.ns_per_group > 0.0 && report.peak_rss_mb > 0.0).then_some(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_child_reports_positive_numbers() {
        let j = measure(Workload::OponlyCheckpointed, Scale { smoke: true }, 3);
        let report = ChildReport::parse(&j.to_compact()).unwrap();
        assert_eq!(
            report.groups,
            Scale { smoke: true }.child_groups(Workload::OponlyCheckpointed)
        );
        assert!(report.peak_rss_mb > 0.5);
        assert_eq!(ChildReport::parse("not json"), None);
    }
}
