//! `cargo xtask model` — run the pool-protocol model checker and pin
//! its state-space numbers.
//!
//! Builds and runs the `model_check` example (release mode: the DFS
//! over the three-worker scenario visits thousands of states), which
//! exhaustively enumerates every interleaving of the CI scenario suite
//! and prints a JSON report. This command fails when:
//!
//! * any scenario reports a violation (the checker found a schedule
//!   that loses a wakeup, double-claims a batch, breaks the checkpoint
//!   watermark, or drops a panic), or
//! * the report differs from the committed `BENCH_model.json` — a
//!   pool-protocol change must surface its state-space delta in review
//!   rather than drift silently. `--update` refreshes the committed
//!   file after an intentional change.
//!
//! The search is a deterministic DFS, so byte-exact comparison is
//! sound: same protocol, same report, on every machine.

use crate::Finding;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Path of the committed report relative to the workspace root.
pub const BASELINE: &str = "BENCH_model.json";

/// Runs the checker; with `update`, rewrites [`BASELINE`] instead of
/// diffing against it.
pub fn check(root: &Path, update: bool) -> Result<Vec<Finding>, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let output = Command::new(cargo)
        .current_dir(root)
        .args([
            "run",
            "--release",
            "-q",
            "-p",
            "raidsim-core",
            "--example",
            "model_check",
        ])
        .output()
        .map_err(|e| format!("cannot spawn cargo: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if !output.status.success() {
        let stderr = String::from_utf8_lossy(&output.stderr);
        return Ok(vec![finding(format!(
            "model checker reported a violation ({}): {}",
            output.status,
            stderr.trim()
        ))]);
    }

    let mut findings = Vec::new();
    if let Err(msg) = validate_json(&stdout) {
        return Ok(vec![finding(format!(
            "model checker emitted malformed JSON: {msg}"
        ))]);
    }
    for key in ["\"schema_version\"", "\"total_states\"", "\"scenarios\""] {
        if !stdout.contains(key) {
            findings.push(finding(format!("model report is missing {key}")));
        }
    }
    // Belt and braces: the example exits nonzero on violations, but the
    // committed file must also never contain one.
    for line in stdout.lines() {
        if line.contains("\"violations\"") && !line.contains("\"violations\": 0") {
            findings.push(finding(format!(
                "scenario reports violations: {}",
                line.trim()
            )));
        }
    }
    if !findings.is_empty() {
        return Ok(findings);
    }

    let baseline_path = root.join(BASELINE);
    if update {
        std::fs::write(&baseline_path, &stdout)
            .map_err(|e| format!("writing {}: {e}", baseline_path.display()))?;
        return Ok(Vec::new());
    }
    let committed = std::fs::read_to_string(&baseline_path)
        .map_err(|e| format!("reading {}: {e}", baseline_path.display()))?;
    if committed != stdout {
        let diff = first_difference(&committed, &stdout);
        findings.push(finding(format!(
            "model report differs from committed {BASELINE} ({diff}); if the \
             pool protocol changed intentionally, run `cargo xtask model --update` \
             and commit the new state-space numbers"
        )));
    }
    Ok(findings)
}

/// Describes the first differing line between the committed and fresh
/// reports, for an actionable finding message.
fn first_difference(committed: &str, fresh: &str) -> String {
    let mut a = committed.lines();
    let mut b = fresh.lines();
    let mut row = 0usize;
    loop {
        row += 1;
        match (a.next(), b.next()) {
            (Some(x), Some(y)) if x == y => continue,
            (Some(x), Some(y)) => {
                return format!(
                    "line {row}: committed `{}` vs fresh `{}`",
                    x.trim(),
                    y.trim()
                )
            }
            (Some(x), None) => return format!("line {row}: committed `{}` vs end", x.trim()),
            (None, Some(y)) => return format!("line {row}: end vs fresh `{}`", y.trim()),
            (None, None) => return "reports differ only in trailing bytes".to_string(),
        }
    }
}

fn finding(message: String) -> Finding {
    Finding {
        check: "model",
        path: PathBuf::from(BASELINE),
        line: 0,
        message,
    }
}

/// Minimal recursive-descent JSON well-formedness checker (the
/// workspace's vendored serde has no JSON backend, so the validation is
/// hand-rolled). Checks syntax only; no values are materialized.
fn validate_json(text: &str) -> Result<(), String> {
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
    use super::{first_difference, validate_json};

    #[test]
    fn first_difference_points_at_the_changed_line() {
        let msg = first_difference("a\nb\nc\n", "a\nB\nc\n");
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains('B'), "{msg}");
    }

    #[test]
    fn length_mismatches_are_reported() {
        assert!(first_difference("a\n", "a\nb\n").contains("end vs fresh"));
        assert!(first_difference("a\nb\n", "a\n").contains("vs end"));
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
