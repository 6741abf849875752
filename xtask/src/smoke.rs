//! Dynamic smoke checks of the release CLI.
//!
//! The static checks guarantee the simulation crates *can* be
//! deterministic; these exercise the actual release binary. `smoke`: a
//! precision-controlled `simulate` run through the streaming
//! aggregation layer must complete and name the stopping criterion it
//! fired. `smoke --resume`: a killed checkpointed run must resume to
//! the uninterrupted report. `smoke --sweep`: every rung of a fused
//! `sweep` — whose scenarios share a seed and so share their draws —
//! must print what that rung prints alone: `simulate` for the
//! discrete-event engine, a one-rung `sweep` for the timeline engine,
//! whose exported aggregates must also match byte for byte — and a
//! `--cache-dir` rerun must replay the sweep from its one cache
//! image. They are
//! deliberately end-to-end — CLI argument parsing, the drivers, and the
//! report formatting all sit on the path.

use crate::Finding;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// What a healthy streamed precision run must print.
const EXPECTED: [&str; 3] = ["precision run:", "(stopped: ", "DDFs per 1,000 groups"];

/// Runs the CLI's streamed precision path and checks its report.
pub fn check(root: &Path) -> Result<Vec<Finding>, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let output = Command::new(cargo)
        .current_dir(root)
        .args([
            "run",
            "--release",
            "-q",
            "-p",
            "raidsim-cli",
            "--",
            "simulate",
            "--precision",
            "0.5",
            "--groups",
            "400",
            "--seed",
            "7",
            "--mission-years",
            "1",
        ])
        .output()
        .map_err(|e| format!("cannot spawn cargo: {e}"))?;

    let mut findings = Vec::new();
    let finding = |message: String| Finding {
        check: "smoke",
        path: "crates/cli".into(),
        line: 0,
        message,
    };
    if !output.status.success() {
        findings.push(finding(format!(
            "streamed precision run failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        )));
        return Ok(findings);
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    for needle in EXPECTED {
        if !stdout.contains(needle) {
            findings.push(finding(format!(
                "streamed precision run output is missing `{needle}`; got:\n{stdout}"
            )));
        }
    }
    Ok(findings)
}

/// The simulate arguments shared by every leg of the resume smoke: big
/// enough (~1.5 s) that a signal sent a third of a second in lands
/// mid-run, small enough to keep CI fast.
const RESUME_ARGS: [&str; 7] = [
    "simulate",
    "--groups",
    "200000",
    "--seed",
    "7",
    "--mission-years",
    "10",
];

/// How long to let the checkpointed run work before interrupting it.
const KILL_AFTER: Duration = Duration::from_millis(300);

/// End-to-end kill-and-resume smoke (`cargo xtask smoke --resume`):
///
/// 1. run the CLI uninterrupted and keep its report,
/// 2. rerun with a tiny checkpoint cadence and interrupt it mid-run,
/// 3. resume from the checkpoint and require the final report to be
///    byte-identical to the uninterrupted one,
/// 4. stamp the finished checkpoint as format version 2 (whose latent
///    counters meant something else) and require the resume to be
///    refused with an error naming that version.
///
/// This is the one test that exercises the *real* signal handler and
/// process exit codes rather than the in-process `RunControl` seam.
pub fn check_resume(root: &Path) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    let finding = |message: String| Finding {
        check: "smoke",
        path: "crates/cli".into(),
        line: 0,
        message,
    };

    let bin = match build_cli(root)? {
        Ok(bin) => bin,
        Err(message) => {
            findings.push(finding(message));
            return Ok(findings);
        }
    };

    // Leg 1: the uninterrupted reference report.
    let reference = Command::new(&bin)
        .current_dir(root)
        .args(RESUME_ARGS)
        .output()
        .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
    if !reference.status.success() {
        findings.push(finding(format!(
            "reference run failed ({}): {}",
            reference.status,
            String::from_utf8_lossy(&reference.stderr).trim()
        )));
        return Ok(findings);
    }
    let reference_out = String::from_utf8_lossy(&reference.stdout).into_owned();

    // Leg 2: same run, checkpointed every 500 groups, interrupted.
    let ckpt = std::env::temp_dir().join("raidsim-smoke-resume.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let ckpt_str = ckpt.to_string_lossy().into_owned();
    let mut child = Command::new(&bin)
        .current_dir(root)
        .args(RESUME_ARGS)
        .args(["--checkpoint", &ckpt_str, "--checkpoint-every", "500"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
    std::thread::sleep(KILL_AFTER);
    interrupt(&mut child);
    let interrupted = child
        .wait_with_output()
        .map_err(|e| format!("waiting for interrupted run: {e}"))?;
    let int_out = String::from_utf8_lossy(&interrupted.stdout).into_owned();
    match interrupted.status.code() {
        // Graceful interruption: partial report plus the resume hint.
        Some(5) => {
            if !int_out.contains("interrupted after") {
                findings.push(finding(format!(
                    "interrupted run exited 5 but did not report the interruption; got:\n{int_out}"
                )));
            }
        }
        // The signal raced run completion; the report must still match.
        Some(0) => {
            if int_out != reference_out {
                findings.push(finding(
                    "checkpointed run (uninterrupted) differs from the plain run".into(),
                ));
            }
        }
        other => {
            findings.push(finding(format!(
                "interrupted run exited with {other:?} (expected 5, or 0 on a race): {}",
                String::from_utf8_lossy(&interrupted.stderr).trim()
            )));
            let _ = std::fs::remove_file(&ckpt);
            return Ok(findings);
        }
    }
    if !ckpt.is_file() {
        findings.push(finding("interrupted run left no checkpoint file".into()));
        let _ = std::fs::remove_file(&ckpt);
        return Ok(findings);
    }

    // Leg 3: resume and diff against the reference.
    let resumed = Command::new(&bin)
        .current_dir(root)
        .args(RESUME_ARGS)
        .args(["--checkpoint", &ckpt_str, "--resume"])
        .output()
        .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
    if !resumed.status.success() {
        let _ = std::fs::remove_file(&ckpt);
        findings.push(finding(format!(
            "resumed run failed ({}): {}",
            resumed.status,
            String::from_utf8_lossy(&resumed.stderr).trim()
        )));
        return Ok(findings);
    }
    let resumed_out = String::from_utf8_lossy(&resumed.stdout);
    if !resumed_out.contains("resumed from checkpoint") {
        findings.push(finding(format!(
            "resumed run did not announce the resume; got:\n{resumed_out}"
        )));
    }
    if !resumed_out.ends_with(&reference_out) {
        findings.push(finding(format!(
            "resumed report differs from the uninterrupted run.\n\
             --- uninterrupted ---\n{reference_out}\n--- resumed ---\n{resumed_out}"
        )));
    }

    // Leg 4: the finished checkpoint re-stamped as format version 2.
    let refused = stamp_version_2(&ckpt).and_then(|()| {
        Command::new(&bin)
            .current_dir(root)
            .args(RESUME_ARGS)
            .args(["--checkpoint", &ckpt_str, "--resume"])
            .output()
    });
    let _ = std::fs::remove_file(&ckpt);
    let refused = refused.map_err(|e| format!("resuming a format-2 {ckpt_str}: {e}"))?;
    let refused_out = String::from_utf8_lossy(&refused.stdout);
    let refused_err = String::from_utf8_lossy(&refused.stderr);
    if refused.status.success()
        || !refused_err.contains("format version 2")
        || refused_out.contains("resumed from checkpoint")
    {
        findings.push(finding(format!(
            "a format-2 checkpoint was not refused by name ({}):\n\
             --- stdout ---\n{refused_out}\n--- stderr ---\n{refused_err}",
            refused.status
        )));
    }
    Ok(findings)
}

/// Rewrites the canonical checkpoint image at `path` as format version
/// 2: the version field (bytes 8..12) and the trailing FNV-1a 64
/// checksum, so only the version is wrong.
fn stamp_version_2(path: &Path) -> std::io::Result<()> {
    let mut image = std::fs::read(path)?;
    if !image.starts_with(b"RAIDSIMC") || image.len() < 28 {
        return Err(std::io::Error::other("not a canonical checkpoint image"));
    }
    image[8..12].copy_from_slice(&2u32.to_le_bytes());
    let end = image.len() - 8;
    let sum = image[..end]
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |hash, &b| {
            (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    image[end..].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(path, image)
}

/// Groups and seed of the sweep smoke: a few seconds of work, with
/// rungs that see enough DDFs that a wrong draw would show.
const SWEEP_GROUPS: &str = "3000";
const SWEEP_SEED: &str = "7";

/// What a report line prints after `marker`, up to the end of the line.
fn value_after<'t>(line: &'t str, marker: &str) -> Option<&'t str> {
    line.find(marker).map(|i| line[i + marker.len()..].trim())
}

/// The rungs a `sweep` report prints, as `(label, DDFs per 1,000
/// groups)` in report order.
fn sweep_rungs(report: &str) -> Vec<(&str, &str)> {
    report
        .lines()
        .filter_map(|line| {
            let value = value_after(line, "DDFs per 1,000 groups:")?;
            Some((line.split_whitespace().next().unwrap_or_default(), value))
        })
        .collect()
}

/// End-to-end bundling smoke (`cargo xtask smoke --sweep`), three legs
/// over a release `sweep --scrub-hours 336,48` (plus its no-scrub rung)
/// at two threads. The sweep's rungs share one seed, so they are
/// simulated as one bundle over a shared draw memo.
///
/// 1. Discrete-event engine: every rung must print the same "DDFs per
///    1,000 groups" as `simulate --scrub H` (`--scrub off` for
///    `no_scrub`) at the same seed and group count, which runs the rung
///    alone through its own draw cursor.
/// 2. Timeline engine (`--engine timeline`), whose bundled rungs also
///    share each group's operational phase and latent seeds: every rung
///    must print what a one-rung `sweep --engine timeline --scrub-hours
///    H --skip-no-scrub` prints (`--scrub-hours ,` for `no_scrub`), a
///    bundle of one that shares nothing. Both run with `--cache-dir`,
///    and each rung's exported `sweep-{fingerprint}-g{groups}-s{seed}.ckpt`
///    must equal the one-rung sweep's export byte for byte, so every
///    aggregate is compared, latent counters included.
/// 3. Result cache: a timeline sweep with `--cache-dir D` over a fresh
///    `D`, then the same command again. The rerun must print the same
///    rungs and "0 simulated, N cache hit(s) (N from disk)", `D` must
///    hold exactly one cache image (`*.cache`; the per-scenario
///    `*.ckpt` files beside it are exports), and the rerun must leave
///    every file in `D` as it was.
///
/// The first two legs compare binaries' outputs, independently of the
/// library's fused path.
pub fn check_sweep(root: &Path) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    let finding = |message: String| Finding {
        check: "smoke",
        path: "crates/cli".into(),
        line: 0,
        message,
    };
    let bin = match build_cli(root)? {
        Ok(bin) => bin,
        Err(message) => {
            findings.push(finding(message));
            return Ok(findings);
        }
    };
    let run = |args: &[&str]| -> Result<Result<String, String>, String> {
        let out = Command::new(&bin)
            .current_dir(root)
            .args(args)
            .args(["--groups", SWEEP_GROUPS, "--seed", SWEEP_SEED])
            .output()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        Ok(if out.status.success() {
            Ok(String::from_utf8_lossy(&out.stdout).into_owned())
        } else {
            Err(format!(
                "`{}` failed ({}): {}",
                args.join(" "),
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ))
        })
    };
    // Leg 2's `--cache-dir`s: the ladder's, and one per one-rung sweep.
    let ladder_dir = root.join("target").join("xtask-smoke-sweep-ladder");
    let rung_dir = root.join("target").join("xtask-smoke-sweep-rung");
    let (ladder_arg, rung_arg) = (
        ladder_dir.display().to_string(),
        rung_dir.display().to_string(),
    );
    for engine in ["des", "timeline"] {
        let timeline = engine == "timeline";
        let mut sweep_args = vec![
            "sweep",
            "--engine",
            engine,
            "--scrub-hours",
            "336,48",
            "--threads",
            "2",
        ];
        if timeline {
            let _ = std::fs::remove_dir_all(&ladder_dir);
            sweep_args.extend(["--cache-dir", &ladder_arg]);
        }
        let ladder_exports = || exports(&ladder_dir);
        let sweep = match run(&sweep_args)? {
            Ok(text) => text,
            Err(message) => {
                findings.push(finding(message));
                continue;
            }
        };
        let rungs = sweep_rungs(&sweep);
        for &(label, value) in &rungs {
            let hours = match label {
                "no_scrub" => None,
                other => match other
                    .strip_prefix("scrub_")
                    .and_then(|h| h.strip_suffix('h'))
                {
                    Some(hours) => Some(hours),
                    None => {
                        findings.push(finding(format!("unexpected {engine} sweep rung `{label}`")));
                        continue;
                    }
                },
            };
            let mut alone_args: Vec<&str> = match (engine, hours) {
                ("des", h) => vec!["simulate", "--scrub", h.unwrap_or("off")],
                (_, Some(h)) => vec![
                    "sweep",
                    "--engine",
                    engine,
                    "--scrub-hours",
                    h,
                    "--skip-no-scrub",
                ],
                (_, None) => vec!["sweep", "--engine", engine, "--scrub-hours", ","],
            };
            if timeline {
                let _ = std::fs::remove_dir_all(&rung_dir);
                alone_args.extend(["--cache-dir", &rung_arg]);
            }
            let alone = match run(&alone_args)? {
                Ok(text) => text,
                Err(message) => {
                    findings.push(finding(message));
                    continue;
                }
            };
            let want = if engine == "des" {
                alone
                    .lines()
                    .find_map(|l| value_after(l, "DDFs per 1,000 groups over 10 years:"))
            } else {
                match sweep_rungs(&alone)[..] {
                    [(alone_label, v)] if alone_label == label => Some(v),
                    _ => None,
                }
            };
            if want != Some(value) {
                findings.push(finding(format!(
                    "{engine} sweep rung `{label}` printed {value} DDFs per 1,000 groups, \
                     `{}` printed {want:?}",
                    alone_args.join(" ")
                )));
            }
            if timeline {
                let alone_exports = exports(&rung_dir);
                match alone_exports.iter().next() {
                    Some((name, bytes)) if alone_exports.len() == 1 => {
                        if ladder_exports().get(name) != Some(bytes) {
                            findings.push(finding(format!(
                                "timeline sweep rung `{label}`: the ladder's export `{name}` \
                                 differs from `{}`'s, or is missing",
                                alone_args.join(" ")
                            )));
                        }
                    }
                    _ => findings.push(finding(format!(
                        "`{}` left {} exports, expected one",
                        alone_args.join(" "),
                        alone_exports.len()
                    ))),
                }
            }
        }
        if timeline && ladder_exports().len() != 3 {
            findings.push(finding(format!(
                "expected 3 exports in the timeline ladder's --cache-dir, found {}",
                ladder_exports().len()
            )));
        }
        if rungs.len() != 3 {
            findings.push(finding(format!(
                "expected 3 {engine} sweep rungs (336 h, 48 h, no scrub), found {}; got:\n{sweep}",
                rungs.len()
            )));
        }
    }

    let _ = std::fs::remove_dir_all(&ladder_dir);
    let _ = std::fs::remove_dir_all(&rung_dir);

    let dir = root.join("target").join("xtask-smoke-sweep-cache");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.display().to_string();
    let cached = [
        "sweep",
        "--engine",
        "timeline",
        "--scrub-hours",
        "336,48",
        "--threads",
        "2",
        "--cache-dir",
        &dir_arg,
    ];
    let cold = run(&cached)?;
    let before = dir_contents(&dir);
    let warm = run(&cached)?;
    let after = dir_contents(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    match (cold, warm) {
        (Ok(cold), Ok(warm)) => {
            let rungs = sweep_rungs(&cold);
            if sweep_rungs(&warm) != rungs {
                findings.push(finding(format!(
                    "the warm rerun printed other rungs than the cold sweep:\n{cold}\n{warm}"
                )));
            }
            let n = rungs.len();
            let replayed = format!("0 simulated, {n} cache hit(s) ({n} from disk)");
            if !warm.contains(&replayed) {
                findings.push(finding(format!(
                    "the warm rerun did not print `{replayed}`; got:\n{warm}"
                )));
            }
            let images: Vec<&String> = before.keys().filter(|f| f.ends_with(".cache")).collect();
            if images.len() != 1 {
                findings.push(finding(format!(
                    "expected one cache image in --cache-dir, found {images:?}"
                )));
            }
            if after != before {
                findings.push(finding(
                    "the warm rerun changed files in --cache-dir".to_string(),
                ));
            }
        }
        (Err(message), _) | (_, Err(message)) => findings.push(finding(message)),
    }
    Ok(findings)
}

/// Every file in `dir` by name, with its bytes; empty when `dir`
/// cannot be read.
fn dir_contents(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return BTreeMap::new();
    };
    entries
        .filter_map(Result::ok)
        .map(|e| {
            let bytes = std::fs::read(e.path()).unwrap_or_default();
            (e.file_name().to_string_lossy().into_owned(), bytes)
        })
        .collect()
}

/// The per-scenario exports (`*.ckpt`) in a `--cache-dir`, by name,
/// with their bytes.
fn exports(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = dir_contents(dir);
    files.retain(|name, _| name.ends_with(".ckpt"));
    files
}

/// Builds the release CLI and returns the binary path (so the smoke can
/// signal the real process, not a `cargo run` wrapper): under
/// `$CARGO_TARGET_DIR` when it is set (relative to `root`, as cargo
/// reads it from there), else under `root/target`. Shared with the
/// torture harness.
pub(crate) fn build_cli(root: &Path) -> Result<Result<PathBuf, String>, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .current_dir(root)
        .args(["build", "--release", "-q", "-p", "raidsim-cli"])
        .status()
        .map_err(|e| format!("cannot spawn cargo: {e}"))?;
    if !status.success() {
        return Ok(Err(format!("cargo build --release failed ({status})")));
    }
    let name = if cfg!(windows) {
        "raidsim-cli.exe"
    } else {
        "raidsim-cli"
    };
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .filter(|dir| !dir.is_empty())
        .map_or_else(|| root.join("target"), |dir| root.join(dir));
    Ok(Ok(target.join("release").join(name)))
}

/// Sends SIGINT on Unix (exercising the graceful-interruption path); a
/// hard kill elsewhere (exercising crash recovery from the last
/// snapshot).
pub(crate) fn interrupt(child: &mut Child) {
    #[cfg(unix)]
    {
        let sent = Command::new("kill")
            .args(["-INT", &child.id().to_string()])
            .status()
            .map(|s| s.success())
            .unwrap_or(false);
        if sent {
            return;
        }
    }
    let _ = child.kill();
}
