//! `cargo xtask` — the repo-specific static-analysis suite.
//!
//! Run as `cargo xtask check` (the alias lives in `.cargo/config.toml`).
//! Eight checks, each targeting an invariant the simulator's correctness
//! arguments lean on but `rustc`/`clippy` cannot express:
//!
//! 1. **determinism** — simulation crates must not use iteration-order-
//!    or wall-clock-dependent constructs (`HashMap`, `HashSet`,
//!    `thread_rng`, `rand::rng()`, `SystemTime::now`, `Instant::now`).
//!    Per-seed reproducibility is a published contract of the engines.
//! 2. **rng-discipline** — all randomness flows through the seeded
//!    stream factory in `crates/dists/src/rng.rs`; ad-hoc
//!    `StdRng::seed_from_u64` construction elsewhere forks the stream-
//!    derivation discipline and may collide with derived streams.
//! 3. **float-discipline** — simulation floats are `f64` ordered by
//!    `total_cmp`: no `partial_cmp`, no `f32`, and every `sort_by`-
//!    family comparator must name a total ordering in its arguments.
//! 4. **sync-audit** — every lock, condvar, and atomic in simulation
//!    crates lives in a module covered by the pool model checker, so
//!    `cargo xtask model` proves all the concurrency there is.
//! 5. **panic-policy** — simulation crates (and this lint suite) must
//!    not `unwrap()`/`expect()` in non-test code; a panic aborts a
//!    long run and loses everything the checkpoint layer preserves.
//! 6. **lint-policy** — every workspace crate must opt into the shared
//!    `[workspace.lints]` table with `[lints] workspace = true`.
//! 7. **deps** — every dependency declared in a workspace crate's
//!    manifest must actually be referenced by that crate's sources.
//! 8. **model** (separate command) — exhaustively model-check the
//!    worker pool's handshake and pin its state-space numbers.
//!
//! The pattern lints run on token-level masked source (see `lexer` /
//! `source`), with per-line `path:line:pattern` allowlists whose stale
//! entries are themselves findings. Findings are also mirrored to
//! `target/xtask-report.txt` so CI can attach them as an artifact.
//!
//! Four more commands drive the release CLI end to end: `smoke` (a
//! streamed precision run), `smoke --resume` (kill and resume),
//! `smoke --sweep` (every fused-sweep rung, both engines, against the
//! rung run alone — timeline rungs also by their exported aggregates —
//! and a `--cache-dir` warm rerun) and `torture` (injected checkpoint
//! faults). Performance is not measured
//! here: the standalone `raidbench` package under `raidbench/` times
//! the CLI and gates its results (see its README).
//!
//! See DESIGN.md §15 ("Correctness tooling") for rationale.

mod allowlist;
mod deps;
mod determinism;
mod float_discipline;
mod lexer;
mod model;
mod panic_policy;
mod policy;
mod rng_discipline;
mod smoke;
mod source;
mod sync_audit;
mod torture;
mod workspace;

use std::path::PathBuf;
use std::process::ExitCode;

/// A single lint violation, printed `path:line: [check] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which check produced this finding.
    pub check: &'static str,
    /// Path (workspace-relative where possible) of the offending file.
    pub path: PathBuf,
    /// 1-based line number, or 0 for whole-file/manifest findings.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(
                f,
                "{}: [{}] {}",
                self.path.display(),
                self.check,
                self.message
            )
        } else {
            write!(
                f,
                "{}:{}: [{}] {}",
                self.path.display(),
                self.line,
                self.check,
                self.message
            )
        }
    }
}

fn usage() -> &'static str {
    "usage: cargo xtask <command>\n\
     \n\
     commands:\n\
       check              run every static check (determinism, rng-discipline,\n\
     \x20                    float-discipline, sync-audit, panic-policy, lint-policy, deps)\n\
       determinism        forbid non-deterministic constructs in simulation crates\n\
       rng-discipline     require all RNGs to derive from the seeded stream factory\n\
       float-discipline   forbid partial float orderings and f32 in simulation crates\n\
     \x20  nan-safety         alias for float-discipline\n\
       sync-audit         confine sync primitives to model-checked modules\n\
       panic-policy       forbid unwrap()/expect() in non-test simulation + xtask code\n\
       lint-policy        require [lints] workspace = true in every crate\n\
       deps               flag declared-but-unused dependencies\n\
       model              exhaustively model-check the worker-pool handshake and\n\
     \x20                    diff the state-space report against BENCH_model.json\n\
       model --update     refresh BENCH_model.json after an intentional protocol change\n\
       smoke              build and run the CLI's streamed precision path end to end\n\
       smoke --resume     kill a checkpointed run mid-flight, resume it, diff the summary\n\
       smoke --sweep      check every rung of a fused sweep, both engines, against the rung alone\n\
     \x20                    (timeline rungs also by their exported aggregates, byte for byte),\n\
     \x20                    and a --cache-dir rerun against the cold sweep\n\
       torture            sweep injected checkpoint faults through the release binary:\n\
     \x20                    bit-identical reports or typed refusals, double-SIGINT escape\n\
       torture --smoke    reduced fault grid, for CI\n\
       help               print this message"
}

/// Where findings are mirrored for the CI artifact.
const REPORT_PATH: &str = "target/xtask-report.txt";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("help");
    let root = match workspace::find_root() {
        Ok(root) => root,
        Err(err) => {
            eprintln!("xtask: cannot locate workspace root: {err}");
            return ExitCode::FAILURE;
        }
    };

    let findings = match command {
        "check" => {
            let mut all = Vec::new();
            all.extend(run(determinism::check(&root), "determinism"));
            all.extend(run(rng_discipline::check(&root), "rng-discipline"));
            all.extend(run(float_discipline::check(&root), "float-discipline"));
            all.extend(run(sync_audit::check(&root), "sync-audit"));
            all.extend(run(panic_policy::check(&root), "panic-policy"));
            all.extend(run(policy::check(&root), "lint-policy"));
            all.extend(run(deps::check(&root), "deps"));
            all
        }
        "determinism" => run(determinism::check(&root), "determinism"),
        "rng-discipline" => run(rng_discipline::check(&root), "rng-discipline"),
        "float-discipline" | "nan-safety" => {
            run(float_discipline::check(&root), "float-discipline")
        }
        "sync-audit" => run(sync_audit::check(&root), "sync-audit"),
        "panic-policy" => run(panic_policy::check(&root), "panic-policy"),
        "lint-policy" => run(policy::check(&root), "lint-policy"),
        "deps" => run(deps::check(&root), "deps"),
        "model" => run(
            model::check(&root, args.iter().any(|a| a == "--update")),
            "model",
        ),
        "smoke" if args.iter().any(|a| a == "--resume") => run(smoke::check_resume(&root), "smoke"),
        "smoke" if args.iter().any(|a| a == "--sweep") => run(smoke::check_sweep(&root), "smoke"),
        "smoke" => run(smoke::check(&root), "smoke"),
        "torture" => run(
            torture::check(&root, args.iter().any(|a| a == "--smoke")),
            "torture",
        ),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("xtask: unknown command `{other}`\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };

    write_report(&root, command, &findings);
    if findings.is_empty() {
        println!("xtask: all checks passed");
        ExitCode::SUCCESS
    } else {
        for finding in &findings {
            eprintln!("{finding}");
        }
        eprintln!("xtask: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

/// Unwraps a check's IO result, converting hard errors (unreadable
/// files, malformed manifests) into findings so they fail the run
/// instead of aborting it.
fn run(result: Result<Vec<Finding>, String>, check: &'static str) -> Vec<Finding> {
    match result {
        Ok(findings) => findings,
        Err(err) => vec![Finding {
            check,
            path: PathBuf::from("."),
            line: 0,
            message: format!("check failed to run: {err}"),
        }],
    }
}

/// Mirrors the findings to [`REPORT_PATH`] (best effort — the console
/// output is authoritative, the file is the CI artifact).
fn write_report(root: &std::path::Path, command: &str, findings: &[Finding]) {
    let path = root.join(REPORT_PATH);
    if std::fs::create_dir_all(path.parent().unwrap_or(root)).is_err() {
        return;
    }
    let mut report = format!("cargo xtask {command}: {} finding(s)\n", findings.len());
    for finding in findings {
        report.push_str(&finding.to_string());
        report.push('\n');
    }
    let _ = std::fs::write(&path, report);
}
