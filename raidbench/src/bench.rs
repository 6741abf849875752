//! The timed benchmark: end-to-end metrics with tracing off.
//!
//! Load model: a closed loop with one client. The harness runs one CLI
//! process at a time and waits for it to exit before starting the next.
//!
//! A repetition runs, per workload: the main steps (`wall_s`), then
//! alternately the rerun step (`rerun_s`) and the set-up step
//! (`setup_s`) a few times each, then one `child` measurement
//! (`ns_per_group`, `peak_rss_mb`). With several workloads a
//! repetition visits them in alternating order (ABCD, DCBA, …) so
//! machine drift spreads evenly over the workloads. One warm-up
//! repetition is discarded.
//!
//! Every step runs on CPU 0, and host-speed probes on CPU 0 (`raidbench
//! calibrate`, a fixed loop that runs none of raidsim's code) bracket
//! every phase of a repetition. Every sample is stored with the mean
//! probe time around it, and the reported timings are medians of the
//! samples scaled to a reference probe time, which divides out the
//! speed drift of a shared host. Raw samples stay in the results file.

use crate::baseline::Reference;
use crate::child::ChildReport;
use crate::cli::{canonical, Tally};
use crate::env;
use crate::json::Json;
use crate::metrics::{
    end_to_end_def, END_TO_END, NS_PER_GROUP, PEAK_RSS_MB, RERUN_S, SETUP_S, WALL_S,
};
use crate::micro::HOST_REF_NS;
use crate::stats::{log_correlation, median, Summary};
use crate::verify::{verify, Verified};
use crate::workload::{Scale, Steps, Tools, Workload};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How long to keep repeating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Exactly this many timed repetitions.
    Reps(usize),
    /// Timed repetitions until this many seconds have passed (at least
    /// [`MIN_REPS`]).
    Seconds(f64),
}

pub const MIN_REPS: usize = 3;

/// Rerun and set-up invocations per repetition and workload: ten
/// repetitions give 160 of each. They take milliseconds each, so many
/// per repetition keep their medians steady at little cost.
fn invocations_per_rep(scale: Scale) -> usize {
    if scale.smoke {
        2
    } else {
        16
    }
}

/// Measured values, each with the host-speed probe time (ns) around
/// it.
#[derive(Debug, Default)]
struct Series {
    values: Vec<f64>,
    host: Vec<f64>,
}

impl Series {
    fn push(&mut self, value: f64, host: f64) {
        self.values.push(value);
        self.host.push(host);
    }
}

#[derive(Debug, Default)]
struct Samples {
    wall: Series,
    rerun: Series,
    setup: Series,
    ns_per_group: Series,
    peak_rss_mb: Series,
}

impl Samples {
    fn get(&self, metric: &str) -> &Series {
        match metric {
            WALL_S => &self.wall,
            RERUN_S => &self.rerun,
            SETUP_S => &self.setup,
            NS_PER_GROUP => &self.ns_per_group,
            PEAK_RSS_MB => &self.peak_rss_mb,
            other => panic!("unknown end-to-end metric {other}"),
        }
    }
}

/// One end-to-end metric's samples from one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub samples: Vec<f64>,
    /// Host-speed probe time (ns) per sample.
    pub host: Vec<f64>,
    /// Consecutive samples taken in one repetition.
    pub per_rep: usize,
}

impl Metric {
    pub fn summary(&self) -> Summary {
        Summary::of(&self.samples).expect("a recorded metric has samples")
    }

    /// The value the benchmark reports: for timings, the median of the
    /// host-normalized samples scaled to the reference probe time
    /// ([`HOST_REF_NS`]); for memory, or without valid probes, the raw
    /// median.
    pub fn reported(&self) -> f64 {
        self.normalized_timing()
            .map_or_else(|| self.summary().median, |xs| HOST_REF_NS * median(&xs))
    }

    /// Whether [`Metric::reported`] is host-normalized.
    pub fn reported_normalized(&self) -> bool {
        self.normalized_timing().is_some()
    }

    fn normalized_timing(&self) -> Option<Vec<f64>> {
        let timing = end_to_end_def(&self.name).is_some_and(|d| d.host_normalized);
        self.host_normalized().filter(|_| timing)
    }

    /// How closely the samples follow the host's speed: the correlation
    /// of ln sample with ln probe time (see [`log_correlation`]).
    pub fn probe_correlation(&self) -> Option<f64> {
        log_correlation(&self.samples, &self.host)
    }

    /// Samples divided by their host-speed probe times: the host's
    /// drift divided out. `None` unless every sample has a valid probe.
    pub fn host_normalized(&self) -> Option<Vec<f64>> {
        let valid = self.host.len() == self.samples.len()
            && self.host.iter().all(|h| h.is_finite() && *h > 0.0);
        valid.then(|| {
            self.samples
                .iter()
                .zip(&self.host)
                .map(|(x, h)| x / h)
                .collect()
        })
    }
}

/// One workload's measured end-to-end metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub workload: Workload,
    /// In catalogue order.
    pub metrics: Vec<Metric>,
    /// The exact argv of every step.
    pub steps: Json,
}

/// Everything one `run` produced; this is the results file.
#[derive(Debug, Clone, PartialEq)]
pub struct Results {
    pub seed: u64,
    pub smoke: bool,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub manifest: Json,
    pub workloads: Vec<WorkloadResult>,
}

impl Results {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn metric(&self, w: Workload, metric: &str) -> Option<&Metric> {
        self.workloads
            .iter()
            .find(|r| r.workload == w)?
            .metrics
            .iter()
            .find(|m| m.name == metric)
    }

    pub fn to_json(&self) -> Json {
        let mut workloads = Json::obj();
        for r in &self.workloads {
            let mut metrics = Json::obj();
            for m in &r.metrics {
                let mut entry = Json::obj()
                    .with("unit", m.unit.as_str())
                    .with("reported", m.reported())
                    .with("reported_host_normalized", m.reported_normalized());
                if let Some(r) = m.probe_correlation() {
                    entry.push("probe_correlation", r);
                }
                if let (Json::Obj(dst), Json::Obj(src)) = (&mut entry, m.summary().to_json()) {
                    dst.extend(src);
                }
                entry.push(
                    "samples",
                    m.samples.iter().map(|&x| Json::from(x)).collect::<Vec<_>>(),
                );
                entry.push(
                    "host_ns",
                    m.host.iter().map(|&x| Json::from(x)).collect::<Vec<_>>(),
                );
                entry.push("samples_per_rep", m.per_rep);
                metrics.push(&m.name, entry);
            }
            workloads.push(
                r.workload.name(),
                Json::obj()
                    .with("metrics", metrics)
                    .with("steps", r.steps.clone()),
            );
        }
        Json::obj()
            .with("schema", 1u64)
            .with("seed", self.seed)
            .with("smoke", self.smoke)
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with(
                "problems",
                self.problems
                    .iter()
                    .map(|p| Json::from(p.as_str()))
                    .collect::<Vec<_>>(),
            )
            .with("manifest", self.manifest.clone())
            .with("workloads", workloads)
    }

    pub fn from_json(j: &Json) -> Result<Results, String> {
        let num = |k: &str| {
            j.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing {k}"))
        };
        let mut workloads = Vec::new();
        for (name, entry) in j
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or("missing workloads")?
        {
            let workload =
                Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
            let mut metrics = Vec::new();
            for (metric, m) in entry
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("{name}: missing metrics"))?
            {
                let numbers = |key: &str| {
                    m.get(key)
                        .and_then(Json::as_arr)
                        .and_then(|xs| xs.iter().map(Json::as_f64).collect::<Option<Vec<f64>>>())
                };
                let samples = numbers("samples")
                    .filter(|xs| !xs.is_empty())
                    .ok_or_else(|| format!("{name}.{metric}: missing samples"))?;
                metrics.push(Metric {
                    name: metric.clone(),
                    unit: m
                        .get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    samples,
                    host: numbers("host_ns").unwrap_or_default(),
                    per_rep: m
                        .get("samples_per_rep")
                        .and_then(Json::as_f64)
                        .map_or(1, |k| k as usize),
                });
            }
            workloads.push(WorkloadResult {
                workload,
                metrics,
                steps: entry.get("steps").cloned().unwrap_or(Json::Null),
            });
        }
        Ok(Results {
            seed: num("seed")? as u64,
            smoke: j.get("smoke").and_then(Json::as_bool).unwrap_or(false),
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            problems: j
                .get("problems")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|p| p.as_str().map(String::from))
                .collect(),
            manifest: j.get("manifest").cloned().unwrap_or(Json::Null),
            workloads,
        })
    }

    pub fn load(path: &Path) -> Result<Results, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let j = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Results::from_json(&j).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// An argv as recorded in results: paths inside the repository are
/// written relative to its root, so results compare across checkouts.
fn argv_json(argv: &[String]) -> Json {
    let root = format!("{}/", env::repo_root().display());
    Json::Arr(
        argv.iter()
            .map(|a| Json::from(a.strip_prefix(&root).unwrap_or(a)))
            .collect(),
    )
}

/// One workload's measurement state.
struct Bench {
    workload: Workload,
    steps: Steps,
    child: Vec<String>,
    /// The host-speed probe, pinned to CPU 0.
    probe: Vec<String>,
    verified: Verified,
    setup_stdout: Option<String>,
    /// `(groups, DDFs)` of the first child measurement.
    child_result: Option<(u64, u64)>,
    samples: Samples,
}

impl Bench {
    fn steps_json(&self) -> Json {
        Json::obj()
            .with(
                "main",
                self.steps
                    .main
                    .iter()
                    .map(|a| argv_json(a))
                    .collect::<Vec<_>>(),
            )
            .with("rerun", argv_json(&self.steps.rerun))
            .with("setup", argv_json(&self.steps.setup))
            .with("child", argv_json(&self.child))
            .with("host_probe", argv_json(&self.probe))
    }

    /// Probe time (ns); `NaN` where the probe failed.
    fn host_speed(&self, tally: &mut Tally) -> f64 {
        let ns = tally
            .step(&self.probe)
            .and_then(|out| out.stdout.trim().parse::<f64>().ok());
        tally.check(ns.is_some(), || "host-speed probe printed no time".into());
        ns.unwrap_or(f64::NAN)
    }

    /// One repetition; samples are kept unless `warmup`. Host-speed
    /// probes bracket each phase, so every sample is scaled by the
    /// host's speed while it ran.
    fn rep(&mut self, per_rep: usize, warmup: bool, tally: &mut Tally) -> Result<(), String> {
        let name = self.workload.name();
        if let Some(dir) = &self.steps.clear_before_main {
            env::fresh_dir(dir)?;
        }
        let p0 = self.host_speed(tally);
        let start = Instant::now();
        let mut stdout = String::new();
        for argv in &self.steps.main {
            if let Some(out) = tally.step(argv) {
                stdout.push_str(&out.stdout);
            }
        }
        let wall = start.elapsed().as_secs_f64();
        let p1 = self.host_speed(tally);
        let stdout = canonical(&stdout);
        tally.check(stdout == self.verified.main_stdout, || {
            format!("{name}: main output changed: {stdout:?}")
        });

        let (mut rerun, mut setup) = (Vec::new(), Vec::new());
        for _ in 0..per_rep {
            if let Some(out) = tally.step(&self.steps.rerun) {
                let text = canonical(&out.stdout);
                tally.check(text == self.verified.rerun_stdout, || {
                    format!("{name}: rerun output changed: {text:?}")
                });
                rerun.push(out.wall_s);
            }
            if let Some(dir) = &self.steps.clear_before_setup {
                env::fresh_dir(dir)?;
            }
            if let Some(out) = tally.step(&self.steps.setup) {
                let expected = self.setup_stdout.get_or_insert_with(|| out.stdout.clone());
                tally.check(out.stdout == *expected, || {
                    format!("{name}: set-up output changed: {:?}", out.stdout)
                });
                setup.push(out.wall_s);
            }
        }
        let p2 = self.host_speed(tally);

        let child = tally
            .step(&self.child)
            .and_then(|out| ChildReport::parse(&out.stdout));
        tally.check(child.is_some(), || {
            format!("{name}: child measurement failed")
        });
        if let Some(c) = child {
            let expected = *self.child_result.get_or_insert((c.groups, c.ddfs));
            tally.check((c.groups, c.ddfs) == expected, || {
                format!(
                    "{name}: child result changed: {} DDFs in {} groups",
                    c.ddfs, c.groups
                )
            });
        }
        let p3 = self.host_speed(tally);

        if !warmup {
            let s = &mut self.samples;
            s.wall.push(wall, (p0 + p1) / 2.0);
            let host = (p1 + p2) / 2.0;
            for x in rerun {
                s.rerun.push(x, host);
            }
            for x in setup {
                s.setup.push(x, host);
            }
            if let Some(c) = child {
                let host = (p2 + p3) / 2.0;
                s.ns_per_group.push(c.ns_per_group, host);
                s.peak_rss_mb.push(c.peak_rss_mb, host);
            }
        }
        Ok(())
    }

    fn result(&self) -> WorkloadResult {
        let reps = self.samples.wall.values.len().max(1);
        let metrics = END_TO_END
            .iter()
            .filter(|m| !self.samples.get(m.name).values.is_empty())
            .map(|m| {
                let series = self.samples.get(m.name);
                Metric {
                    name: m.name.to_string(),
                    unit: m.unit.to_string(),
                    samples: series.values.clone(),
                    host: series.host.clone(),
                    per_rep: (series.values.len() / reps).max(1),
                }
            })
            .collect();
        WorkloadResult {
            workload: self.workload,
            metrics,
            steps: self.steps_json(),
        }
    }
}

/// This harness's own command line `raidbench <args>`, pinned to CPU 0
/// like every step.
fn own_argv(taskset: &Path, args: &[&str]) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate raidbench: {e}"))?;
    let mut argv = vec![
        taskset.display().to_string(),
        "-c".into(),
        "0".into(),
        exe.display().to_string(),
    ];
    argv.extend(args.iter().map(|a| a.to_string()));
    Ok(argv)
}

/// The gate plus per-workload work directories, shared with the traced
/// run.
pub struct Prepared {
    pub tools: Tools,
    pub work_root: WorkDir,
    pub tally: Tally,
    pub verified: Vec<(Workload, PathBuf, Verified)>,
}

/// Builds the CLI and runs the correctness gate for `workloads`.
pub fn prepare(
    root: &Path,
    workloads: &[Workload],
    scale: Scale,
    seed: u64,
) -> Result<Prepared, String> {
    crate::metrics::check_benchmark_json(root)?;
    let tools = env::tools(root)?;
    let reference = Reference::from_json(&crate::baseline::load(root)?)?;
    let work_root = WorkDir(env::out_dir(root).join(format!("work-{}", std::process::id())));
    let mut prepared = Prepared {
        tools,
        work_root,
        tally: Tally::default(),
        verified: Vec::new(),
    };
    for &w in workloads {
        let work = prepared.work_root.0.join(w.name());
        env::fresh_dir(&work)?;
        let v = verify(
            w,
            &prepared.tools,
            scale,
            seed,
            &work,
            &reference,
            &mut prepared.tally,
        );
        prepared.verified.push((w, work, v));
    }
    Ok(prepared)
}

/// Runs the timed benchmark.
pub fn run(
    root: &Path,
    workloads: &[Workload],
    scale: Scale,
    seed: u64,
    budget: Budget,
) -> Result<Results, String> {
    let prepared = prepare(root, workloads, scale, seed)?;
    let Prepared {
        tools,
        work_root,
        mut tally,
        verified,
    } = prepared;
    let mut benches = Vec::new();
    let seed_arg = seed.to_string();
    for (w, work, v) in verified {
        let mut child = vec!["child", w.name(), "--seed", &seed_arg];
        if scale.smoke {
            child.push("--smoke");
        }
        benches.push(Bench {
            workload: w,
            steps: tools.steps(w, scale, seed, &work),
            child: own_argv(&tools.taskset, &child)?,
            probe: own_argv(&tools.taskset, &["calibrate"])?,
            verified: v,
            setup_stdout: None,
            child_result: None,
            samples: Samples::default(),
        });
    }
    let per_rep = invocations_per_rep(scale);
    for b in &mut benches {
        b.rep(per_rep, true, &mut tally)?;
    }
    let start = Instant::now();
    let mut reps = 0usize;
    loop {
        let done = match budget {
            Budget::Reps(n) => reps >= n,
            Budget::Seconds(s) => reps >= MIN_REPS && start.elapsed().as_secs_f64() >= s,
        };
        if done {
            break;
        }
        let forward = reps.is_multiple_of(2);
        for i in 0..benches.len() {
            let k = if forward { i } else { benches.len() - 1 - i };
            benches[k].rep(per_rep, false, &mut tally)?;
        }
        reps += 1;
    }
    drop(work_root);
    Ok(Results {
        seed,
        smoke: scale.smoke,
        attempted: tally.attempted,
        failed: tally.failed,
        problems: tally.problems,
        manifest: env::manifest(root, &tools),
        workloads: benches.iter().map(Bench::result).collect(),
    })
}

/// The scratch directory for checkpoints and caches, removed when the
/// run ends however it ends; results and traces live outside it.
pub struct WorkDir(pub PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, unit: &str, samples: Vec<f64>, per_rep: usize) -> Metric {
        let host = samples.iter().map(|x| 1e7 + x).collect();
        Metric {
            name: name.into(),
            unit: unit.into(),
            samples,
            host,
            per_rep,
        }
    }

    #[test]
    fn results_json_round_trip() {
        let results = Results {
            seed: 42,
            smoke: false,
            attempted: 120,
            failed: 1,
            problems: vec!["scatter_merge: rerun output changed: \"x\"".into()],
            manifest: Json::obj().with("git_rev", "abc").with("nproc", 2u64),
            workloads: vec![WorkloadResult {
                workload: Workload::OponlyCheckpointed,
                metrics: vec![
                    metric("wall_s", "s", vec![0.31, 0.29, 0.35], 1),
                    metric(
                        "setup_s",
                        "s",
                        (1..=30).map(|i| 1e-3 * f64::from(i)).collect(),
                        10,
                    ),
                ],
                steps: Json::obj()
                    .with("main", vec![argv_json(&["cli".into(), "simulate".into()])]),
            }],
        };
        let text = results.to_json().to_pretty();
        let back = Results::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, results);
        assert!(!back.correct());
        let wall = back.metric(Workload::OponlyCheckpointed, "wall_s").unwrap();
        assert_eq!(wall.summary().median, 0.31);
        // Reported: the median of samples over their probe times, at the
        // reference probe time.
        assert_eq!(wall.reported(), HOST_REF_NS * (0.31 / (1e7 + 0.31)));
        let unprobed = Metric {
            host: vec![f64::NAN, 1.0, 1.0],
            ..wall.clone()
        };
        assert_eq!(unprobed.host_normalized(), None);
        assert_eq!(unprobed.reported(), 0.31, "no valid probes: raw median");
        assert!(back.metric(Workload::ScatterMerge, "wall_s").is_none());
    }
}
