//! Scheduler benchmark harness driver.
//!
//! `cargo xtask bench` builds and runs the `bench_parallel` experiment
//! binary (Table-3 configurations plus a skew-heavy mixed-vintage /
//! finite-spares fleet, across a 1/2/4/8 thread ladder), then validates
//! the emitted `BENCH_parallel.json`: syntactically well-formed JSON
//! carrying every key the regression trajectory needs, plus the
//! non-timing invariants that must hold on any machine — parallel
//! cells spawn exactly `threads` pool workers, serial cells spawn
//! none, and the steady-state group loop reports zero allocations.
//! The binary itself asserts that multi-threaded statistics are
//! bit-identical to the single-threaded reference before recording
//! any timing, so a passing bench is also a runtime determinism
//! check.
//!
//! The driver then runs the `bench_rareevent` binary the same way and
//! validates `BENCH_rareevent.json`: well-formed JSON with the
//! rare-event schema, importance-sampling weights attested finite and
//! positive, and an effective sample size that never exceeds the raw
//! group count (Jensen: `(Σw)² ≤ n·Σw²`). Timing and speedup fields
//! are trajectory data, not pass/fail criteria.
//!
//! The fused-sweep harness (`bench_sweep`) runs third and its
//! `BENCH_sweep.json` is validated the same way: every row must attest
//! `bit_identical: true` (the binary byte-compares each scenario's
//! fused aggregate against its sequential run before recording any
//! timing) and at least one cache hit (the deliberate duplicate
//! scenario must be served from the fingerprint-keyed result cache,
//! never re-simulated). Fused-vs-sequential wall times and steal
//! counts are trajectory data, never pass/fail.
//!
//! Schema 3 of `BENCH_parallel.json` additionally carries a
//! per-configuration `block_check` that must attest the default
//! sampling path bit-identical to the scalar one, and the driver
//! finishes with an end-to-end shard-scatter/merge round trip through
//! the release CLI: two `--shard` snapshots merged must be byte-equal
//! to the unsharded checkpointed run.
//!
//! `--smoke` forwards to the binaries (400 groups per cell / 2,000
//! groups instead of 10,000 / 40,000) so CI can exercise the full path
//! in seconds.

use crate::Finding;
use std::path::Path;
use std::process::Command;

/// Keys the benchmark document must carry at the top level.
const REQUIRED_TOP: [&str; 5] = [
    "\"schema_version\"",
    "\"groups\"",
    "\"claim_batch\"",
    "\"thread_ladder\"",
    "\"configs\"",
];

/// Keys every per-thread-count cell must carry.
const REQUIRED_CELL: [&str; 10] = [
    "\"threads\"",
    "\"wall_ms\"",
    "\"per_group_ns\"",
    "\"speedup\"",
    "\"worker_groups_max\"",
    "\"worker_groups_min\"",
    "\"balance\"",
    "\"thread_spawns\"",
    "\"samples_drawn\"",
    "\"steady_allocs\"",
];

/// Keys the fused-sweep benchmark document must carry at the top level.
const REQUIRED_SWEEP_TOP: [&str; 6] = [
    "\"schema_version\"",
    "\"groups\"",
    "\"claim_batch\"",
    "\"scenarios\"",
    "\"distinct_scenarios\"",
    "\"rows\"",
];

/// Keys every fused-sweep row must carry.
const REQUIRED_SWEEP_ROW: [&str; 7] = [
    "\"threads\"",
    "\"sequential_wall_ms\"",
    "\"fused_wall_ms\"",
    "\"fused_speedup\"",
    "\"steals\"",
    "\"cache_hits\"",
    "\"bit_identical\"",
];

/// Keys the rare-event benchmark document must carry at the top level.
const REQUIRED_RARE_TOP: [&str; 8] = [
    "\"schema_version\"",
    "\"config\"",
    "\"groups\"",
    "\"bias\"",
    "\"pilots\"",
    "\"plain\"",
    "\"biased\"",
    "\"effective_speedup\"",
];

/// Runs both benchmark harnesses and validates their JSON artifacts,
/// then exercises the shard-scatter/merge round trip end to end.
pub fn check(root: &Path, smoke: bool) -> Result<Vec<Finding>, String> {
    let mut findings = run_and_validate(
        root,
        smoke,
        "bench_parallel",
        "BENCH_parallel.json",
        &REQUIRED_TOP,
        &REQUIRED_CELL,
        invariant_violations,
    )?;
    findings.extend(run_and_validate(
        root,
        smoke,
        "bench_rareevent",
        "BENCH_rareevent.json",
        &REQUIRED_RARE_TOP,
        &[],
        rare_event_violations,
    )?);
    findings.extend(run_and_validate(
        root,
        smoke,
        "bench_sweep",
        "BENCH_sweep.json",
        &REQUIRED_SWEEP_TOP,
        &REQUIRED_SWEEP_ROW,
        sweep_violations,
    )?);
    findings.extend(shard_roundtrip(root)?);
    Ok(findings)
}

/// The simulate arguments every leg of the shard round trip shares.
const SHARD_ARGS: [&str; 7] = [
    "simulate",
    "--groups",
    "400",
    "--seed",
    "7",
    "--mission-years",
    "2",
];

/// End-to-end shard-scatter/merge round trip through the release CLI
/// (run in `--smoke` too — it is seconds of work and byte-equality is
/// the whole point of sharding):
///
/// 1. one unsharded checkpointed run over all 400 groups,
/// 2. the same run scattered as `--shard 1/2` and `--shard 2/2`,
/// 3. `merge` over the two shard snapshots,
///
/// then require the merged checkpoint to be **byte-equal** to the
/// unsharded one.
fn shard_roundtrip(root: &Path) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    let finding = |message: String| Finding {
        check: "bench",
        path: "crates/cli".into(),
        line: 0,
        message,
    };
    let bin = match crate::smoke::build_cli(root)? {
        Ok(bin) => bin,
        Err(message) => {
            findings.push(finding(message));
            return Ok(findings);
        }
    };

    let dir = std::env::temp_dir().join("raidsim-bench-shards");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path_of = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (reference, s1, s2, merged) = (
        path_of("reference.ckpt"),
        path_of("shard1.ckpt"),
        path_of("shard2.ckpt"),
        path_of("merged.ckpt"),
    );
    for p in [&reference, &s1, &s2, &merged] {
        let _ = std::fs::remove_file(p);
    }

    let legs: [Vec<&str>; 4] = [
        [&SHARD_ARGS[..], &["--checkpoint", &reference]].concat(),
        [&SHARD_ARGS[..], &["--checkpoint", &s1, "--shard", "1/2"]].concat(),
        [&SHARD_ARGS[..], &["--checkpoint", &s2, "--shard", "2/2"]].concat(),
        vec!["merge", "--out", &merged, &s1, &s2],
    ];
    for args in &legs {
        let output = Command::new(&bin)
            .current_dir(root)
            .args(args)
            .output()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        if !output.status.success() {
            findings.push(finding(format!(
                "shard round trip leg `{}` failed ({}): {}",
                args.join(" "),
                output.status,
                String::from_utf8_lossy(&output.stderr).trim()
            )));
            return Ok(findings);
        }
    }

    let reference_bytes = std::fs::read(&reference)
        .map_err(|e| format!("cannot read unsharded checkpoint {reference}: {e}"))?;
    let merged_bytes = std::fs::read(&merged)
        .map_err(|e| format!("cannot read merged checkpoint {merged}: {e}"))?;
    if merged_bytes != reference_bytes {
        findings.push(finding(
            "merged 2-shard checkpoint is not byte-equal to the unsharded run".into(),
        ));
    }
    for p in [&reference, &s1, &s2, &merged] {
        let _ = std::fs::remove_file(p);
    }
    Ok(findings)
}

/// Runs one benchmark binary and validates its artifact: well-formed
/// JSON, required keys present, and the binary-specific
/// machine-independent invariants.
fn run_and_validate(
    root: &Path,
    smoke: bool,
    bin: &'static str,
    artifact: &'static str,
    required_top: &[&str],
    required_cell: &[&str],
    invariants: fn(&str) -> Vec<String>,
) -> Result<Vec<Finding>, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut args = vec![
        "run",
        "--release",
        "-q",
        "-p",
        "raidsim-bench",
        "--bin",
        bin,
        "--",
    ];
    if smoke {
        args.push("--smoke");
    }
    let output = Command::new(cargo)
        .current_dir(root)
        .args(&args)
        .output()
        .map_err(|e| format!("cannot spawn cargo: {e}"))?;

    let mut findings = Vec::new();
    let finding = |message: String| Finding {
        check: "bench",
        path: artifact.into(),
        line: 0,
        message,
    };
    if !output.status.success() {
        findings.push(finding(format!(
            "{bin} failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        )));
        return Ok(findings);
    }

    let path = root.join(artifact);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    if let Err(msg) = validate_json(&text) {
        findings.push(finding(format!("not well-formed JSON: {msg}")));
        return Ok(findings);
    }
    for key in required_top {
        if !text.contains(key) {
            findings.push(finding(format!("missing required top-level key {key}")));
        }
    }
    for key in required_cell {
        if !text.contains(key) {
            findings.push(finding(format!("missing required per-cell key {key}")));
        }
    }
    for message in invariants(&text) {
        findings.push(finding(message));
    }
    Ok(findings)
}

/// Extracts an unsigned integer field from a single-line JSON cell.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Machine-independent invariants over the benchmark document: the
/// schema version, the per-configuration `block_check` attestation that
/// default-tuned sampling was bit-identical to the scalar path, exact
/// worker spawn counts (the pool spawns once per run; the serial path
/// never spawns), and an allocation-free steady state. Timing fields
/// are never judged here — they are trajectory data, not pass/fail
/// criteria.
fn invariant_violations(text: &str) -> Vec<String> {
    let mut violations = Vec::new();
    if !text.contains("\"schema_version\": 3") {
        violations.push("schema_version must be 3".to_string());
    }
    if !text.contains("\"block_check\"") {
        violations.push("missing per-config block_check object".to_string());
    } else if !text.contains("\"bit_identical\": true") || text.contains("\"bit_identical\": false")
    {
        violations.push("every block_check must attest bit_identical: true".to_string());
    }
    // The binary writes one cell per line, so per-cell fields can be
    // cross-checked line-locally.
    for (i, line) in text.lines().enumerate() {
        if !line.contains("\"thread_spawns\"") {
            continue;
        }
        let row = i + 1;
        let (Some(threads), Some(spawns), Some(allocs)) = (
            field_u64(line, "threads"),
            field_u64(line, "thread_spawns"),
            field_u64(line, "steady_allocs"),
        ) else {
            violations.push(format!("line {row}: cell is missing integer fields"));
            continue;
        };
        let expected = if threads == 1 { 0 } else { threads };
        if spawns != expected {
            violations.push(format!(
                "line {row}: {threads}-thread cell reports {spawns} spawned                  workers, expected {expected}"
            ));
        }
        if allocs != 0 {
            violations.push(format!(
                "line {row}: steady-state loop reported {allocs} allocations,                  expected 0"
            ));
        }
    }
    violations
}

/// Machine-independent invariants over the fused-sweep benchmark
/// document: the schema version, and — on every single-line row — the
/// binary's per-scenario bit-identity attestation plus at least one
/// result-cache hit (the suite contains a deliberate duplicate
/// scenario, so a row with zero hits means the cache is broken).
/// Wall times, speedups, and steal counts are trajectory data and are
/// not judged.
fn sweep_violations(text: &str) -> Vec<String> {
    let mut violations = Vec::new();
    if !text.contains("\"schema_version\": 1") {
        violations.push("schema_version must be 1".to_string());
    }
    let mut saw_row = false;
    for (i, line) in text.lines().enumerate() {
        if !line.contains("\"fused_wall_ms\"") {
            continue;
        }
        saw_row = true;
        let row = i + 1;
        if !line.contains("\"bit_identical\": true") {
            violations.push(format!(
                "line {row}: row does not attest bit_identical: true"
            ));
        }
        match field_u64(line, "cache_hits") {
            None => violations.push(format!("line {row}: row is missing cache_hits")),
            Some(0) => violations.push(format!(
                "line {row}: the duplicate scenario was not served from the cache"
            )),
            Some(_) => {}
        }
    }
    if !saw_row {
        violations.push("no fused-sweep rows found".to_string());
    }
    violations
}

/// Machine-independent invariants over the rare-event benchmark
/// document: the schema version, the binary's attestation that every
/// group weight was finite and positive, and — on the single-line
/// `biased` cell — an effective sample size within `[1, raw_groups]`
/// (the classic `(Σw)²/Σw²` can equal the raw count only when every
/// weight is identical, and exceeds it never). Speedup and timing
/// fields are trajectory data and are not judged.
fn rare_event_violations(text: &str) -> Vec<String> {
    let mut violations = Vec::new();
    if !text.contains("\"schema_version\": 1") {
        violations.push("schema_version must be 1".to_string());
    }
    if !text.contains("\"weights_finite\": true") {
        violations.push("the biased run must attest finite weights".to_string());
    }
    if !text.contains("\"weights_positive\": true") {
        violations.push("the biased run must attest positive weights".to_string());
    }
    let mut saw_biased_cell = false;
    for (i, line) in text.lines().enumerate() {
        if !line.contains("\"raw_groups\"") {
            continue;
        }
        saw_biased_cell = true;
        let row = i + 1;
        let (Some(raw), Some(effective)) = (
            field_u64(line, "raw_groups"),
            field_u64(line, "effective_samples"),
        ) else {
            violations.push(format!("line {row}: biased cell is missing integer fields"));
            continue;
        };
        if effective == 0 || effective > raw {
            violations.push(format!(
                "line {row}: effective sample size {effective} outside [1, {raw}]"
            ));
        }
    }
    if !saw_biased_cell {
        violations.push("no biased cell with raw_groups found".to_string());
    }
    violations
}

/// Minimal recursive-descent JSON well-formedness checker (the
/// workspace's vendored serde has no JSON backend, so the validation is
/// hand-rolled). Checks syntax only; no values are materialized.
pub(crate) fn validate_json(text: &str) -> Result<(), String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    if depth > 64 {
        return Err("nesting deeper than 64".to_string());
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(bytes, pos);
                parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect_byte(bytes, pos, b':')?;
                skip_ws(bytes, pos);
                parse_value(bytes, pos, depth + 1)?;
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(());
                    }
                    other => return Err(format!("expected , or }} at byte {pos}, got {other:?}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(bytes, pos);
                parse_value(bytes, pos, depth + 1)?;
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(());
                    }
                    other => return Err(format!("expected , or ] at byte {pos}, got {other:?}")),
                }
            }
        }
        Some(b'"') => parse_string(bytes, pos),
        Some(b't') => parse_literal(bytes, pos, "true"),
        Some(b'f') => parse_literal(bytes, pos, "false"),
        Some(b'n') => parse_literal(bytes, pos, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {c:?} at {pos}")),
    }
}

fn expect_byte(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {pos}", want as char))
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("invalid literal at byte {pos}, expected {lit}"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    expect_byte(bytes, pos, b'"')?;
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 2; // skip the escape pair; \uXXXX hex digits parse as plain chars
            }
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |bytes: &[u8], pos: &mut usize| {
        let before = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > before
    };
    if !digits(bytes, pos) {
        return Err(format!("invalid number at byte {start}"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(bytes, pos) {
            return Err(format!("invalid fraction at byte {start}"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(bytes, pos) {
            return Err(format!("invalid exponent at byte {start}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{invariant_violations, rare_event_violations, sweep_violations, validate_json};

    #[test]
    fn sweep_invariants_accept_a_conforming_document() {
        let doc = concat!(
            "{\n  \"schema_version\": 1,\n  \"rows\": [\n",
            "    {\"threads\": 2, \"sequential_wall_ms\": 100.0, ",
            "\"fused_wall_ms\": 60.0, \"fused_speedup\": 1.667, ",
            "\"steals\": 3, \"cache_hits\": 1, \"bit_identical\": true}\n",
            "  ]\n}\n",
        );
        assert_eq!(sweep_violations(doc), Vec::<String>::new());
    }

    #[test]
    fn sweep_invariants_flag_missing_attestation_and_cold_cache() {
        let doc = concat!(
            "{\n  \"schema_version\": 1,\n  \"rows\": [\n",
            "    {\"threads\": 2, \"fused_wall_ms\": 60.0, ",
            "\"cache_hits\": 0, \"bit_identical\": false}\n",
            "  ]\n}\n",
        );
        let violations = sweep_violations(doc);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations[0].contains("bit_identical"), "{violations:?}");
        assert!(violations[1].contains("cache"), "{violations:?}");
    }

    #[test]
    fn sweep_invariants_require_rows_and_schema() {
        let violations = sweep_violations("{\"schema_version\": 2}");
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations[0].contains("must be 1"), "{violations:?}");
        assert!(
            violations[1].contains("no fused-sweep rows"),
            "{violations:?}"
        );
    }

    #[test]
    fn rare_event_invariants_accept_a_conforming_document() {
        let doc = concat!(
            "{\n  \"schema_version\": 1,\n",
            "  \"biased\": {\"raw_groups\": 40000, \"effective_samples\": 19705, ",
            "\"weights_finite\": true, \"weights_positive\": true}\n}\n",
        );
        assert_eq!(rare_event_violations(doc), Vec::<String>::new());
    }

    #[test]
    fn rare_event_invariants_flag_excess_effective_samples() {
        let doc = concat!(
            "{\n  \"schema_version\": 1,\n",
            "  \"biased\": {\"raw_groups\": 100, \"effective_samples\": 101, ",
            "\"weights_finite\": true, \"weights_positive\": true}\n}\n",
        );
        let violations = rare_event_violations(doc);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("outside [1, 100]"), "{violations:?}");
    }

    #[test]
    fn rare_event_invariants_require_weight_attestations() {
        let doc = "{\"schema_version\": 1, \"biased\": {\"raw_groups\": 10, \
                   \"effective_samples\": 5}}";
        let violations = rare_event_violations(doc);
        assert_eq!(violations.len(), 2, "{violations:?}");
    }

    #[test]
    fn rare_event_invariants_require_a_biased_cell() {
        let doc = "{\"schema_version\": 1, \"weights_finite\": true, \
                   \"weights_positive\": true}";
        let violations = rare_event_violations(doc);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("no biased cell"), "{violations:?}");
    }

    #[test]
    fn invariants_accept_a_conforming_document() {
        let doc = concat!(
            "{\n  \"schema_version\": 3,\n",
            "  \"block_check\": {\"scalar_per_group_ns\": 1200.0, ",
            "\"block_per_group_ns\": 1150.0, \"bit_identical\": true},\n",
            "  {\"threads\": 1, \"thread_spawns\": 0, \"steady_allocs\": 0},\n",
            "  {\"threads\": 4, \"thread_spawns\": 4, \"steady_allocs\": 0}\n}\n",
        );
        assert_eq!(invariant_violations(doc), Vec::<String>::new());
    }

    #[test]
    fn invariants_flag_spawn_and_alloc_violations() {
        let doc = concat!(
            "{\n  \"schema_version\": 3,\n",
            "  \"block_check\": {\"bit_identical\": true},\n",
            "  {\"threads\": 1, \"thread_spawns\": 1, \"steady_allocs\": 0},\n",
            "  {\"threads\": 4, \"thread_spawns\": 8, \"steady_allocs\": 400}\n}\n",
        );
        let violations = invariant_violations(doc);
        assert_eq!(violations.len(), 3, "{violations:?}");
    }

    #[test]
    fn invariants_require_schema_version_three() {
        let violations = invariant_violations("{\"schema_version\": 2}");
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations[0].contains("must be 3"), "{violations:?}");
        assert!(violations[1].contains("block_check"), "{violations:?}");
    }

    #[test]
    fn invariants_reject_a_failed_block_check() {
        let doc = concat!(
            "{\n  \"schema_version\": 3,\n",
            "  \"block_check\": {\"bit_identical\": false}\n}\n",
        );
        let violations = invariant_violations(doc);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("bit_identical"), "{violations:?}");
    }

    #[test]
    fn accepts_well_formed_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            r#"{"a": [1, 2.5, true, null, "x\"y"], "b": {"c": []}}"#,
            "{\n  \"schema_version\": 1,\n  \"configs\": [{\"threads\": [\n    {\"wall_ms\": 0.123}\n  ]}]\n}\n",
        ] {
            assert!(validate_json(ok).is_ok(), "{ok}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1, ]",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "01a",
            "\"unterminated",
            "{} trailing",
            "{\"a\": 1} {\"b\": 2}",
        ] {
            assert!(validate_json(bad).is_err(), "{bad}");
        }
    }
}
