//! The metric catalogue: what the benchmark reports, in which unit,
//! which direction is better, and (for end-to-end metrics) how much a
//! median may worsen before a change counts as a regression.
//! `BENCHMARK.json` at the repository root mirrors this table, and every
//! measuring command refuses to start when the two differ.

use crate::json::Json;
use crate::workload::Workload;
use std::path::Path;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric, measured with tracing off.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Worst allowed worsening of the median, as a share of the
    /// baseline median.
    pub bound: f64,
    /// Reported as a host-normalized median (timings), or raw (memory).
    pub host_normalized: bool,
    pub definition: &'static str,
}

pub const WALL_S: &str = "wall_s";
pub const RERUN_S: &str = "rerun_s";
pub const SETUP_S: &str = "setup_s";
pub const NS_PER_GROUP: &str = "ns_per_group";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

/// Every end-to-end metric; all are "lower is better".
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: WALL_S,
        unit: "s",
        bound: 0.15,
        host_normalized: true,
        definition: "spawn of the workload's first main step to exit of its last, output written",
    },
    EndToEnd {
        name: RERUN_S,
        unit: "s",
        bound: 0.15,
        host_normalized: true,
        definition:
            "one invocation of the rerun step: warm cache or resume of a finished checkpoint",
    },
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        bound: 0.2,
        host_normalized: true,
        definition:
            "one invocation of the first main step at --groups 1: exec, parse, session and \
                     pool open, one group, output, snapshot or cache write",
    },
    EndToEnd {
        name: NS_PER_GROUP,
        unit: "ns",
        bound: 0.15,
        host_normalized: true,
        definition: "fresh child process running the workload's library entry point at one \
                     thread: wall time over groups",
    },
    EndToEnd {
        name: PEAK_RSS_MB,
        unit: "MiB",
        bound: 0.05,
        host_normalized: false,
        definition: "VmHWM of that child at exit",
    },
];

/// A per-layer metric from the traced replay. `moves` names the
/// end-to-end metric and workload a change to this layer should move.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// Every per-layer metric, grouped by the module that owns the layer.
pub const LAYERS: [Layer; 50] = [
    layer(
        "cli.process_s",
        "s",
        Lower,
        "setup_s @ all; wall_s @ scatter_merge",
    ),
    layer(
        "run.overhead_ns_per_group",
        "ns",
        Lower,
        "ns_per_group, wall_s @ oponly_checkpointed",
    ),
    layer(
        "run.driver_batches",
        "count",
        Lower,
        "wall_s @ oponly_checkpointed",
    ),
    layer(
        "run.groups_to_precision",
        "groups",
        Lower,
        "wall_s @ table3_precision",
    ),
    layer(
        "pool.thread_spawns",
        "count",
        Lower,
        "wall_s @ sweep_timeline_ladder",
    ),
    layer(
        "pool.balance",
        "ratio",
        Higher,
        "wall_s @ sweep_timeline_ladder",
    ),
    layer(
        "pool.steals",
        "count",
        Higher,
        "wall_s @ sweep_timeline_ladder",
    ),
    layer(
        "engine.session_open_us",
        "us",
        Lower,
        "setup_s @ all; wall_s @ sweep_timeline_ladder",
    ),
    layer(
        "engine.group_ns",
        "ns",
        Lower,
        "wall_s, ns_per_group @ table3_precision, sweep_timeline_ladder",
    ),
    layer(
        "engine.group_ns.p99",
        "ns",
        Lower,
        "wall_s @ table3_precision, sweep_timeline_ladder",
    ),
    layer(
        "engine.ns_per_event",
        "ns",
        Lower,
        "wall_s, ns_per_group @ table3_precision, sweep_timeline_ladder",
    ),
    layer(
        "engine.samples_per_group",
        "count",
        Lower,
        "ns_per_group @ all",
    ),
    layer(
        "engine.events_per_group",
        "count",
        Lower,
        "ns_per_group @ all",
    ),
    layer("engine.loop_allocs", "count", Lower, "ns_per_group @ all"),
    layer("engine.scratch_grows", "count", Lower, "ns_per_group @ all"),
    layer(
        "engine.ddf.check_ns",
        "ns",
        Lower,
        "wall_s, ns_per_group @ table3_precision",
    ),
    layer(
        "engine.model.kernel_share",
        "ratio",
        Higher,
        "ns_per_group @ table3_precision",
    ),
    layer(
        "engine.model.residual_share",
        "ratio",
        Lower,
        "ns_per_group @ table3_precision",
    ),
    layer(
        "engine.model.count_error",
        "ratio",
        Lower,
        "ns_per_group @ table3_precision",
    ),
    layer(
        "dists.rng.word_ns",
        "ns",
        Lower,
        "ns_per_group @ table3_precision",
    ),
    layer(
        "dists.rng.scalar_word_ns",
        "ns",
        Lower,
        "ns_per_group @ table3_precision",
    ),
    layer(
        "dists.rng.stream_ns",
        "ns",
        Lower,
        "ns_per_group, wall_s @ oponly_checkpointed",
    ),
    layer(
        "dists.kernel.ttop.sample_ns",
        "ns",
        Lower,
        "ns_per_group @ table3_precision",
    ),
    layer(
        "dists.kernel.ttr.sample_ns",
        "ns",
        Lower,
        "ns_per_group @ table3_precision",
    ),
    layer(
        "dists.kernel.ttld.sample_ns",
        "ns",
        Lower,
        "ns_per_group @ table3_precision",
    ),
    layer(
        "dists.kernel.ttscrub.sample_ns",
        "ns",
        Lower,
        "ns_per_group @ table3_precision",
    ),
    layer(
        "dists.kernel.ttop.block_ns",
        "ns",
        Lower,
        "ns_per_group @ oponly_checkpointed, scatter_merge",
    ),
    layer(
        "dists.kernel.ttr.block_ns",
        "ns",
        Lower,
        "ns_per_group @ oponly_checkpointed, scatter_merge",
    ),
    layer(
        "dists.kernel.ttld.block_ns",
        "ns",
        Lower,
        "ns_per_group @ scatter_merge",
    ),
    layer(
        "dists.kernel.ttscrub.block_ns",
        "ns",
        Lower,
        "ns_per_group @ sweep_timeline_ladder",
    ),
    layer(
        "dists.kernel.lower_us",
        "us",
        Lower,
        "setup_s @ all; wall_s @ sweep_timeline_ladder",
    ),
    layer(
        "dists.kernel.cache_hit_us",
        "us",
        Lower,
        "wall_s @ sweep_timeline_ladder",
    ),
    layer(
        "stats.push_ns",
        "ns",
        Lower,
        "ns_per_group, wall_s @ oponly_checkpointed",
    ),
    layer(
        "stats.merge_ns",
        "ns",
        Lower,
        "wall_s @ oponly_checkpointed",
    ),
    layer(
        "stats.bytes",
        "bytes",
        Lower,
        "wall_s @ oponly_checkpointed",
    ),
    layer(
        "stats.encode_us",
        "us",
        Lower,
        "wall_s @ oponly_checkpointed",
    ),
    layer(
        "checkpoint.encode_us",
        "us",
        Lower,
        "wall_s @ oponly_checkpointed",
    ),
    layer(
        "checkpoint.writes",
        "count",
        Lower,
        "wall_s @ oponly_checkpointed",
    ),
    layer(
        "checkpoint.load_ms",
        "ms",
        Lower,
        "rerun_s @ oponly_checkpointed, scatter_merge",
    ),
    layer(
        "checkpoint.merge_shards_ms",
        "ms",
        Lower,
        "wall_s @ scatter_merge",
    ),
    layer(
        "checkpoint.failures",
        "count",
        Lower,
        "correctness: failed operations",
    ),
    layer(
        "store.write_ms",
        "ms",
        Lower,
        "wall_s @ oponly_checkpointed",
    ),
    layer(
        "store.write_ms.p99",
        "ms",
        Lower,
        "wall_s @ oponly_checkpointed",
    ),
    layer(
        "sweep.cache.lookup_ms",
        "ms",
        Lower,
        "rerun_s @ sweep_timeline_ladder",
    ),
    layer(
        "sweep.cache.insert_ms",
        "ms",
        Lower,
        "wall_s @ sweep_timeline_ladder",
    ),
    layer(
        "sweep.cache.hits",
        "count",
        Higher,
        "rerun_s @ sweep_timeline_ladder",
    ),
    layer(
        "sweep.cache.store_hits",
        "count",
        Higher,
        "rerun_s @ sweep_timeline_ladder",
    ),
    layer(
        "sweep.cache.misses",
        "count",
        Lower,
        "wall_s @ sweep_timeline_ladder",
    ),
    layer(
        "sweep.quarantined",
        "count",
        Lower,
        "correctness: failed operations",
    ),
    layer(
        "trace.overhead_frac",
        "ratio",
        Lower,
        "none: cost of the tracing itself",
    ),
];

pub fn layer_def(name: &str) -> Option<&'static Layer> {
    LAYERS.iter().find(|l| l.name == name)
}

pub fn end_to_end_def(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Checks that `BENCHMARK.json` under `root` lists exactly this
/// catalogue and the workloads, in order, with the same units,
/// directions, bounds and whys.
pub fn check_benchmark_json(root: &Path) -> Result<(), String> {
    let path = root.join("BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let j = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| {
        j.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: no {key} list"))
    };
    let field = |entry: &Json, key: &str| entry.get(key).and_then(Json::as_str).map(String::from);
    // The first entry where the file and the catalogue differ.
    let expect = |what: &str, got: Vec<Option<String>>, want: Vec<String>| {
        let n = got.len().max(want.len());
        let at = |i: usize| (got.get(i).cloned().flatten(), want.get(i).cloned());
        match (0..n).map(at).find(|(g, w)| g != w) {
            None => Ok(()),
            Some((g, w)) => Err(format!(
                "BENCHMARK.json lists {what} {g:?} where the catalogue \
                 (src/metrics.rs, src/workload.rs) has {w:?}"
            )),
        }
    };
    expect(
        "end-to-end metric",
        list("end_to_end")?
            .iter()
            .map(|e| {
                let bound = e.get("bound").and_then(Json::as_f64);
                Some(format!(
                    "{} {} {} {bound:?}",
                    field(e, "name")?,
                    field(e, "unit")?,
                    field(e, "better")?
                ))
            })
            .collect(),
        END_TO_END
            .iter()
            .map(|m| format!("{} {} lower {:?}", m.name, m.unit, Some(m.bound)))
            .collect(),
    )?;
    expect(
        "per-layer metric",
        list("per_layer")?
            .iter()
            .map(|e| {
                Some(format!(
                    "{} {} {}",
                    field(e, "name")?,
                    field(e, "unit")?,
                    field(e, "better")?
                ))
            })
            .collect(),
        LAYERS
            .iter()
            .map(|l| format!("{} {} {}", l.name, l.unit, l.better.as_str()))
            .collect(),
    )?;
    expect(
        "workload",
        list("workloads")?
            .iter()
            .map(|e| Some(format!("{}: {}", field(e, "name")?, field(e, "why")?)))
            .collect(),
        Workload::ALL
            .iter()
            .map(|w| format!("{}: {}", w.name(), w.why()))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_mirrors_the_catalogue() {
        check_benchmark_json(&crate::env::repo_root()).unwrap();
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = end_to_end_def(SETUP_S).unwrap().bound;
        assert!(END_TO_END.iter().all(|m| m.bound <= setup));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        all.extend(LAYERS.iter().map(|l| l.name));
        for name in &all {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
    }
}
