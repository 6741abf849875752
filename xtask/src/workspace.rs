//! Workspace layout helpers: locating the root and enumerating crates.

use std::path::{Path, PathBuf};

/// The simulation crates subject to the determinism and NaN-safety
/// lints: the crates whose code runs inside `simulate_group` or feeds
/// it inputs. `analysis`, `cli`, and `bench` post-process results and
/// may use wall-clock time or hash maps freely.
pub const SIM_CRATES: [&str; 4] = ["core", "dists", "hdd", "workloads"];

/// Finds the workspace root by walking up from the current directory
/// looking for a `Cargo.toml` containing `[workspace]`.
pub fn find_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest).map_err(|e| e.to_string())?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no ancestor directory contains a [workspace] Cargo.toml".into());
        }
    }
}

/// Every workspace member directory (crates/*, vendor/*, xtask).
pub fn member_dirs(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut members = Vec::new();
    for group in ["crates", "vendor"] {
        let dir = root.join(group);
        let entries =
            std::fs::read_dir(&dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
        for entry in entries {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.join("Cargo.toml").is_file() {
                members.push(path);
            }
        }
    }
    members.push(root.join("xtask"));
    members.sort();
    Ok(members)
}

/// Every `.rs` file under the simulation crates' `src/` trees, sorted.
pub fn sim_sources(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for krate in SIM_CRATES {
        files.extend(rust_files(&root.join("crates").join(krate).join("src"))?);
    }
    Ok(files)
}

/// Recursively collects `.rs` files under `dir` (returns empty when the
/// directory does not exist).
pub fn rust_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    if !dir.exists() {
        return Ok(files);
    }
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        let entries = std::fs::read_dir(&current)
            .map_err(|e| format!("reading {}: {e}", current.display()))?;
        for entry in entries {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Renders `path` relative to `root` when possible, for stable output.
pub fn relative(root: &Path, path: &Path) -> PathBuf {
    path.strip_prefix(root).unwrap_or(path).to_path_buf()
}
