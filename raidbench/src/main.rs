//! `raidbench` — end-to-end and per-layer benchmark of `raidsim-cli`.
//!
//! ```text
//! raidbench run     [--seed 42] [--workload W]... [--seconds S] [--smoke]
//!                   [--update-baseline]
//! raidbench trace   [--seed 42] [--workload W]... [--seconds S] [--smoke]
//! raidbench compare A.json B.json
//! raidbench child   <workload> --seed N [--smoke]
//! raidbench reference
//! raidbench calibrate
//! raidbench --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! Without `--seconds`, `run` makes [`RUN_REPS`] timed repetitions and
//! `trace` [`TRACE_REPS`]; with it, each repeats for `S` seconds. The
//! last form is the benchmark's one-workload entry point: `--trace 0` is
//! `run` and `--trace 1` is `trace`. Every form that measures prints its
//! metrics by name and unit, writes a JSON file under
//! `<target>/raidbench/`, and ends its output with one JSON line:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod baseline;
mod bench;
mod child;
mod cli;
mod compare;
mod env;
mod json;
mod layers;
mod metrics;
mod micro;
mod stats;
mod trace;
mod verify;
mod workload;

use bench::Budget;
use json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{Scale, Workload};

const USAGE: &str = "\
usage:
  raidbench run     [--seed 42] [--workload W]... [--seconds S] [--smoke] [--update-baseline]
  raidbench trace   [--seed 42] [--workload W]... [--seconds S] [--smoke]
  raidbench compare A.json B.json
  raidbench child   <workload> --seed N [--smoke]
  raidbench reference
  raidbench calibrate
  raidbench --workload W --seed N --seconds S --trace 0|1
workloads: table3_precision oponly_checkpointed sweep_timeline_ladder scatter_merge";

/// Timed repetitions of `run` without `--seconds`.
const RUN_REPS: usize = 10;

/// Traced repetitions of `trace` without `--seconds`.
const TRACE_REPS: usize = 3;

/// Parsed flags of the measuring commands.
#[derive(Debug, Default)]
struct Flags {
    workloads: Vec<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    update_baseline: bool,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let num_err = |name: &str, v: &str| format!("{name}: cannot parse '{v}'");
        match arg.as_str() {
            "--workload" => {
                let v = value(arg)?;
                f.workloads
                    .push(Workload::parse(&v).ok_or_else(|| format!("unknown workload '{v}'"))?);
            }
            "--seed" => {
                let v = value(arg)?;
                f.seed = Some(v.parse().map_err(|_| num_err(arg, &v))?);
            }
            "--seconds" => {
                let v = value(arg)?;
                let s: f64 = v.parse().map_err(|_| num_err(arg, &v))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got '{v}'"));
                }
                f.seconds = Some(s);
            }
            "--trace" => {
                let v = value(arg)?;
                f.trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got '{v}'")),
                });
            }
            "--smoke" => f.smoke = true,
            "--update-baseline" => f.update_baseline = true,
            other if other.starts_with("--") => return Err(format!("unknown flag '{other}'")),
            other => f.positional.push(other.to_string()),
        }
    }
    Ok(f)
}

impl Flags {
    fn workloads(&self) -> Vec<Workload> {
        if self.workloads.is_empty() {
            Workload::ALL.to_vec()
        } else {
            self.workloads.clone()
        }
    }

    fn budget(&self, default_reps: usize) -> Budget {
        self.seconds
            .map_or(Budget::Reps(default_reps), Budget::Seconds)
    }

    fn scale(&self) -> Scale {
        Scale { smoke: self.smoke }
    }

    /// File-name label: the seed, prefixed by the workload when only
    /// one ran.
    fn label(&self, seed: u64) -> String {
        match self.workloads[..] {
            [w] => format!("{}-{seed}", w.name()),
            _ => seed.to_string(),
        }
    }
}

/// The workloads and metrics, for `help`.
fn catalogue() -> String {
    use std::fmt::Write as _;
    let mut out = String::from("workloads:\n");
    for w in Workload::ALL {
        let _ = writeln!(out, "  {:<22} {}", w.name(), w.why());
    }
    out.push_str(
        "end-to-end metrics (lower is better; timings are reported host-normalized to a \
         10 ms probe; bound = allowed worsening of the reported median):\n",
    );
    for m in metrics::END_TO_END {
        let _ = writeln!(
            out,
            "  {:<13} {:<4} {:>4.0}%  {}",
            m.name,
            m.unit,
            100.0 * m.bound,
            m.definition
        );
    }
    out.push_str("per-layer metrics (traced run) -> what each should move:\n");
    for l in metrics::LAYERS {
        let _ = writeln!(
            out,
            "  {:<32} {:<6} {:<7} {}",
            l.name,
            l.unit,
            l.better.as_str(),
            l.moves
        );
    }
    out
}

/// The closing JSON line.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &str)>,
) -> String {
    let mut m = Json::obj();
    for (name, value, unit) in metrics {
        m.push(&name, Json::obj().with("value", value).with("unit", unit));
    }
    Json::obj()
        .with("correct", correct)
        .with("attempted", attempted.max(1))
        .with("failed", failed)
        .with("metrics", m)
        .to_compact()
}

/// A metric's key in the closing line: bare for one workload,
/// prefixed by the workload otherwise.
fn key(single: bool, w: Workload, metric: &str) -> String {
    if single {
        metric.to_string()
    } else {
        format!("{}.{metric}", w.name())
    }
}

fn write_file(path: &Path, j: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, j.to_pretty()).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn print_problems(problems: &[String], failed: u64) {
    if failed > 0 {
        println!("{failed} failed operation(s):");
        for p in problems {
            println!("  {p}");
        }
    }
}

fn cmd_run(root: &Path, f: &Flags) -> Result<bool, String> {
    let seed = f.seed.unwrap_or(42);
    let workloads = f.workloads();
    let results = bench::run(root, &workloads, f.scale(), seed, f.budget(RUN_REPS))?;
    // Raw order statistics, the correlation of the samples with the
    // host-speed probe, then the reported value ('*': host-normalized).
    println!(
        "{:<22} {:<18} {:>5} {:>12} {:>12} {:>12} {:>7} {:>16} {:>6} {:>13}",
        "workload", "metric", "n", "median", "q1", "q3", "spread", "tail", "r", "reported"
    );
    let mut line = Vec::new();
    for r in &results.workloads {
        for m in &r.metrics {
            let s = m.summary();
            let tail = s
                .high
                .map_or(String::new(), |(p, v)| format!("p{p} {v:.6}"));
            let r_probe = m
                .probe_correlation()
                .map_or(String::new(), |r| format!("{r:.2}"));
            let mark = if m.reported_normalized() { "*" } else { " " };
            println!(
                "{:<22} {:<18} {:>5} {:>12.6} {:>12.6} {:>12.6} {:>6.1}% {:>16} {:>6} {:>12.6}{mark}",
                r.workload.name(),
                format!("{} ({})", m.name, m.unit),
                s.n,
                s.median,
                s.q1,
                s.q3,
                100.0 * stats::median_spread(&m.samples, m.per_rep),
                tail,
                r_probe,
                m.reported()
            );
            let unit = metrics::end_to_end_def(&m.name).map_or("", |d| d.unit);
            line.push((
                key(workloads.len() == 1, r.workload, &m.name),
                m.reported(),
                unit,
            ));
        }
    }
    println!(
        "r: correlation of ln sample with ln probe time. *: host-normalized, \
         the median of sample x 10 ms / probe time"
    );
    print_problems(&results.problems, results.failed);
    let path = env::out_dir(root).join(format!("results-{}.json", f.label(seed)));
    write_file(&path, &results.to_json())?;
    println!("wrote {}", path.display());
    if f.update_baseline {
        if f.smoke || workloads.len() != Workload::ALL.len() || !results.correct() {
            return Err("--update-baseline needs a full, correct run of every workload".into());
        }
        baseline::update(root, "baseline", results.to_json())?;
        println!("updated {}", baseline::path(root).display());
    }
    println!(
        "{}",
        result_line(results.correct(), results.attempted, results.failed, line)
    );
    Ok(results.correct())
}

fn cmd_trace(root: &Path, f: &Flags) -> Result<bool, String> {
    let seed = f.seed.unwrap_or(42);
    let workloads = f.workloads();
    let scale = f.scale();
    let results = layers::run(root, &workloads, scale, seed, f.budget(TRACE_REPS))?;
    let mut line = Vec::new();
    for lr in &results.workloads {
        println!("{}:", lr.workload.name());
        for (name, value) in &lr.metrics {
            let def = metrics::layer_def(name).expect("catalogued");
            println!(
                "  {:<32} {:>14.6} {:<6} -> {}",
                name, value, def.unit, def.moves
            );
            line.push((
                key(workloads.len() == 1, lr.workload, name),
                *value,
                def.unit,
            ));
        }
    }
    let t = &results.tally;
    print_problems(&t.problems, t.failed);
    let path = layers::trace_path(root, &f.label(seed));
    write_file(&path, &layers::trace_json(seed, scale, &results))?;
    println!("wrote {}", path.display());
    println!("{}", result_line(t.correct(), t.attempted, t.failed, line));
    Ok(t.correct())
}

fn cmd_compare(f: &Flags) -> Result<bool, String> {
    let [a, b] = &f.positional[..] else {
        return Err("compare needs two results files".into());
    };
    let (ra, rb) = (
        bench::Results::load(Path::new(a))?,
        bench::Results::load(Path::new(b))?,
    );
    let rows = compare::compare(&ra, &rb);
    print!("{}", compare::render(&rows));
    for (name, r) in [(a, &ra), (b, &rb)] {
        println!("{name}: {} of {} operations failed", r.failed, r.attempted);
    }
    let worse = rows
        .iter()
        .filter(|r| r.verdict == compare::Verdict::Worse)
        .count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == compare::Verdict::Unresolved)
        .count();
    println!(
        "{} comparison(s): {worse} worse, {unresolved} unresolved",
        rows.len()
    );
    Ok(worse == 0 && ra.correct() && rb.correct())
}

fn cmd_child(f: &Flags) -> Result<bool, String> {
    let [name] = &f.positional[..] else {
        return Err("child needs one workload name".into());
    };
    let w = Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed = f.seed.ok_or("child needs --seed")?;
    println!("{}", child::measure(w, f.scale(), seed).to_compact());
    Ok(true)
}

fn cmd_reference(root: &Path) -> Result<bool, String> {
    let (groups, seed) = (baseline::REFERENCE_GROUPS, baseline::REFERENCE_SEED);
    let sim = workload::simulator(Workload::Table3Precision);
    let stats = sim.run_streaming(groups as usize, seed, env::nproc());
    let reference = baseline::Reference {
        ddfs_per_1000: stats.ddfs_per_thousand_groups(),
        se_per_1000: 1_000.0 * stats.half_width(1.0),
        groups,
        seed,
    };
    baseline::update(root, "reference", reference.to_json())?;
    println!("{}", reference.to_json().to_compact());
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root: PathBuf = env::repo_root();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_flags(&args[1..]).and_then(|f| cmd_run(&root, &f)),
        Some("trace") => parse_flags(&args[1..]).and_then(|f| cmd_trace(&root, &f)),
        Some("compare") => parse_flags(&args[1..]).and_then(|f| cmd_compare(&f)),
        Some("child") => parse_flags(&args[1..]).and_then(|f| cmd_child(&f)),
        Some("reference") if args.len() > 1 => Err("reference takes no arguments".into()),
        Some("reference") => cmd_reference(&root),
        Some("calibrate") => {
            println!("{}", micro::calibration_ns());
            Ok(true)
        }
        Some("help" | "--help" | "-h") => {
            println!("{USAGE}\n\n{}", catalogue());
            Ok(true)
        }
        Some(a) if a.starts_with("--") => parse_flags(&args).and_then(|f| {
            if f.workloads.len() != 1
                || f.seed.is_none()
                || f.seconds.is_none()
                || f.trace.is_none()
            {
                return Err("give exactly --workload, --seed, --seconds and --trace".into());
            }
            if f.trace == Some(true) {
                cmd_trace(&root, &f)
            } else {
                cmd_run(&root, &f)
            }
        }),
        _ => Err("missing command".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // Measured, but a correctness check failed: the closing line
        // says so; the exit code does too.
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("raidbench: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_one_workload_form() {
        let f = parse_flags(&argv(
            "--workload scatter_merge --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(f.workloads, vec![Workload::ScatterMerge]);
        assert_eq!(
            (f.seed, f.seconds, f.trace),
            (Some(7), Some(12.0), Some(true))
        );
        assert_eq!(f.budget(10), Budget::Seconds(12.0));
        assert_eq!(f.label(7), "scatter_merge-7");
    }

    #[test]
    fn rejects_bad_flags() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--reps 3",
            "--groups 5",
            "--frobnicate",
            "--seed",
        ] {
            assert!(parse_flags(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn closing_line_has_the_contract_keys() {
        let line = result_line(true, 0, 0, vec![("wall_s".into(), 1.25, "s")]);
        let j = Json::parse(&line).unwrap();
        let keys: Vec<&str> = j
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(j.get("attempted").and_then(Json::as_f64), Some(1.0));
        let wall = j.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    }
}
