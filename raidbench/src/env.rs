//! Where things are, what the harness runs on, and building the CLI.

use crate::json::Json;
use crate::workload::Tools;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

/// The cargo target directory builds go to (`CARGO_TARGET_DIR`, else
/// `<root>/target`), made absolute.
pub fn target_dir(root: &Path) -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => {
            let dir = PathBuf::from(dir);
            if dir.is_absolute() {
                dir
            } else {
                std::env::current_dir()
                    .expect("the working directory is readable")
                    .join(dir)
            }
        }
        None => root.join("target"),
    }
}

/// Results, traces and scratch files live here.
pub fn out_dir(root: &Path) -> PathBuf {
    target_dir(root).join("raidbench")
}

/// Builds `raidsim-cli` (release) through cargo, so a stale binary is
/// never timed, and returns the path cargo reports for it.
pub fn build_cli(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(&cargo)
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--package",
            "raidsim-cli",
            "--bin",
            "raidsim-cli",
            "--message-format=json-render-diagnostics",
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building raidsim-cli failed ({})", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .filter_map(|line| Json::parse(line).ok())
        .filter(|msg| msg.get("reason").and_then(Json::as_str) == Some("compiler-artifact"))
        .filter(|msg| {
            msg.get("target")
                .and_then(|t| t.get("name"))
                .and_then(Json::as_str)
                == Some("raidsim-cli")
        })
        .find_map(|msg| {
            msg.get("executable")
                .and_then(Json::as_str)
                .map(PathBuf::from)
        })
        .ok_or_else(|| "cargo built raidsim-cli but reported no executable".to_string())
}

/// `taskset`, which pins every step to CPU 0: missing it is an error,
/// not a reason to run unpinned.
pub fn find_taskset() -> Result<PathBuf, String> {
    let path = std::env::var_os("PATH").unwrap_or_default();
    std::env::split_paths(&path)
        .map(|dir| dir.join("taskset"))
        .find(|p| p.is_file())
        .ok_or_else(|| {
            "taskset not found on PATH: every step runs pinned to CPU 0 and cannot \
             run without it; install util-linux"
                .to_string()
        })
}

/// Builds the CLI and finds `taskset`.
pub fn tools(root: &Path) -> Result<Tools, String> {
    let taskset = find_taskset()?;
    let cli = build_cli(root)?;
    Ok(Tools { cli, taskset })
}

/// The commit the checkout is at, read from `.git` inside the root
/// only ("unknown" outside a git checkout).
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn rustc_version() -> String {
    let rustc = std::env::var_os("RUSTC").unwrap_or_else(|| "rustc".into());
    Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What the results were measured on.
pub fn manifest(root: &Path, tools: &Tools) -> Json {
    Json::obj()
        .with("git_rev", git_rev(root))
        .with("rustc", rustc_version())
        .with("nproc", nproc())
        .with("os", std::env::consts::OS)
        .with("arch", std::env::consts::ARCH)
        .with(
            "cli",
            tools
                .cli
                .strip_prefix(root)
                .unwrap_or(&tools.cli)
                .display()
                .to_string(),
        )
        .with("taskset", tools.taskset.display().to_string())
        .with(
            "load_model",
            "closed loop, one client: one CLI process at a time",
        )
}

/// Removes and recreates `dir`.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn git_rev_reads_loose_and_packed_refs() {
        let dir = std::env::temp_dir().join(format!("raidbench-git-{}", std::process::id()));
        let git = dir.join(".git");
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(git.join("packed-refs"), "# pack\nabc123 refs/heads/main\n").unwrap();
        assert_eq!(git_rev(&dir), "abc123");
        std::fs::write(git.join("refs/heads/main"), "def456\n").unwrap();
        assert_eq!(git_rev(&dir), "def456");
        std::fs::write(git.join("HEAD"), "0123abcd\n").unwrap();
        assert_eq!(git_rev(&dir), "0123abcd");
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(git_rev(&dir), "unknown");
    }
}
