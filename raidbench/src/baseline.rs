//! `raidbench/baseline.json`: the seeds claims are checked on, the
//! pinned reference value of the correctness gate, and the committed
//! baseline results.

use crate::json::Json;
use std::path::{Path, PathBuf};

pub fn path(root: &Path) -> PathBuf {
    root.join("raidbench").join("baseline.json")
}

pub fn load(root: &Path) -> Result<Json, String> {
    let file = path(root);
    let text =
        std::fs::read_to_string(&file).map_err(|e| format!("reading {}: {e}", file.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))
}

/// Replaces (or adds) the top-level field `key` and rewrites the file.
pub fn update(root: &Path, key: &str, value: Json) -> Result<(), String> {
    let mut doc = load(root)?;
    let Json::Obj(fields) = &mut doc else {
        return Err("baseline.json is not an object".into());
    };
    match fields.iter_mut().find(|(k, _)| k == key) {
        Some((_, v)) => *v = value,
        None => fields.push((key.to_string(), value)),
    }
    let file = path(root);
    std::fs::write(&file, doc.to_pretty()).map_err(|e| format!("writing {}: {e}", file.display()))
}

/// Size and seed of the long run behind the pinned [`Reference`].
pub const REFERENCE_GROUPS: u64 = 1_000_000;
pub const REFERENCE_SEED: u64 = 1;

/// Table 3 base-case DDFs per 1,000 groups from a long run, which the
/// precision workload's estimate must match within four standard errors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reference {
    pub ddfs_per_1000: f64,
    pub se_per_1000: f64,
    pub groups: u64,
    pub seed: u64,
}

impl Reference {
    pub fn from_json(doc: &Json) -> Result<Reference, String> {
        let r = doc
            .get("reference")
            .ok_or("baseline.json has no reference")?;
        let num = |k: &str| {
            r.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("reference.{k} missing"))
        };
        Ok(Reference {
            ddfs_per_1000: num("ddfs_per_1000")?,
            se_per_1000: num("se_per_1000")?,
            groups: num("groups")? as u64,
            seed: num("seed")? as u64,
        })
    }

    pub fn to_json(self) -> Json {
        Json::obj()
            .with("workload", "table3_precision")
            .with("groups", self.groups)
            .with("seed", self.seed)
            .with("ddfs_per_1000", self.ddfs_per_1000)
            .with("se_per_1000", self.se_per_1000)
    }

    /// Whether `estimate ± se` agrees with the reference within four
    /// combined standard errors.
    pub fn agrees(&self, estimate: f64, se: f64) -> bool {
        (estimate - self.ddfs_per_1000).abs() <= 4.0 * se.hypot(self.se_per_1000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_round_trips_and_bounds_agreement() {
        let r = Reference {
            ddfs_per_1000: 140.0,
            se_per_1000: 0.3,
            groups: 1_000_000,
            seed: 1,
        };
        let doc = Json::obj().with("reference", r.to_json());
        assert_eq!(Reference::from_json(&doc), Ok(r));
        // Combined SE = 0.5: agreement out to 2.0 away.
        assert!(r.agrees(141.9, 0.4));
        assert!(!r.agrees(142.1, 0.4));
        assert!(Reference::from_json(&Json::obj()).is_err());
    }

    #[test]
    fn committed_baseline_has_seeds_and_reference() {
        let doc = load(&crate::env::repo_root()).unwrap();
        assert_eq!(doc.get("default_seed").and_then(Json::as_f64), Some(42.0));
        assert!(doc.get("held_out_seed").and_then(Json::as_f64).is_some());
        let r = Reference::from_json(&doc).unwrap();
        assert_eq!((r.groups, r.seed), (REFERENCE_GROUPS, REFERENCE_SEED));
        assert!(r.se_per_1000 > 0.0);
    }
}
