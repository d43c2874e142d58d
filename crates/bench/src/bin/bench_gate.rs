//! CI perf-regression gate: compares a freshly generated `report_synthesis` JSON
//! against the committed baseline (`BENCH_synthesis.json`) and fails when any
//! workload's median wall-clock regressed by more than the allowed fraction (default
//! 25%, override with `OPENQUDIT_PERF_GATE_MAX_REGRESSION=<frac>`).
//!
//! Usage: `bench_gate <baseline.json> <fresh.json>`
//!
//! Both files are the `report_synthesis` output format: a JSON array with one row
//! per workload, each row carrying a `"workload_seconds"` median. The
//! parser is deliberately minimal (field extraction by key, no JSON dependency) —
//! exactly dual to how the report writer hand-rolls its output. Workloads present
//! in only one file are reported but do not fail the gate, so adding or retiring a
//! benchmark never breaks CI; a baseline generated under
//! `OPENQUDIT_SYNTH_OMIT_TIMING` (no timing fields at all) is an error.

use std::process::ExitCode;

/// One `workload -> median seconds` measurement.
type Row = (String, f64);

/// The smallest baseline median the gate compares against (seconds).
fn min_gated_seconds() -> f64 {
    std::env::var("OPENQUDIT_PERF_GATE_MIN_SECONDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.02)
}

/// Extracts the string value of `"key": "..."` from a row. No unescaping — workload
/// names are plain identifiers in practice.
fn field_str(row: &str, key: &str) -> Option<String> {
    let pattern = format!("\"{key}\": \"");
    let start = row.find(&pattern)? + pattern.len();
    let end = row[start..].find('"')?;
    Some(row[start..start + end].to_string())
}

/// Extracts the numeric value of `"key": <number>` from a row.
fn field_f64(row: &str, key: &str) -> Option<f64> {
    let pattern = format!("\"{key}\": ");
    let start = row.find(&pattern)? + pattern.len();
    let rest = &row[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses the report into `workload -> workload_seconds` rows. Rows without a
/// timing field are skipped (they cannot be gated).
fn parse_report(text: &str) -> Vec<Row> {
    text.lines()
        .filter_map(|line| {
            let workload = field_str(line, "workload")?;
            let seconds = field_f64(line, "workload_seconds")?;
            Some((workload, seconds))
        })
        .collect()
}

/// The regressions exceeding `max_regression` (a fraction: 0.25 allows +25%), as
/// human-readable descriptions. Workloads missing from either side are ignored.
fn regressions(baseline: &[Row], fresh: &[Row], max_regression: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for (key, base) in baseline {
        let Some((_, new)) = fresh.iter().find(|(k, _)| k == key) else { continue };
        // Millisecond-scale baselines are dominated by scheduler/co-tenancy noise,
        // not by the engine; gate only measurements large enough for a ratio to be
        // meaningful (override the floor with OPENQUDIT_PERF_GATE_MIN_SECONDS).
        if *base < min_gated_seconds() {
            continue;
        }
        let limit = base * (1.0 + max_regression);
        if *new > limit {
            failures.push(format!(
                "{key}: {:.6}s -> {:.6}s (+{:.1}%, limit +{:.1}%)",
                base,
                new,
                (new / base - 1.0) * 100.0,
                max_regression * 100.0
            ));
        }
    }
    failures
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, baseline_path, fresh_path] = &args[..] else {
        eprintln!("usage: bench_gate <baseline.json> <fresh.json>");
        return ExitCode::FAILURE;
    };
    let max_regression: f64 = std::env::var("OPENQUDIT_PERF_GATE_MAX_REGRESSION")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25);
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let baseline = parse_report(&read(baseline_path));
    let fresh = parse_report(&read(fresh_path));
    if baseline.is_empty() {
        eprintln!(
            "{baseline_path} has no (workload, workload_seconds) rows — was it \
             generated with OPENQUDIT_SYNTH_OMIT_TIMING set?"
        );
        return ExitCode::FAILURE;
    }
    if fresh.is_empty() {
        eprintln!("{fresh_path} has no timed rows to gate");
        return ExitCode::FAILURE;
    }
    for (key, _) in baseline.iter().filter(|(k, _)| !fresh.iter().any(|(fk, _)| fk == k)) {
        eprintln!("note: baseline workload {key} missing from fresh report");
    }
    let failures = regressions(&baseline, &fresh, max_regression);
    if failures.is_empty() {
        println!(
            "perf gate passed: {} measured workload(s) within +{:.1}% of baseline",
            fresh.len(),
            max_regression * 100.0
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("perf gate FAILED ({} regression(s)):", failures.len());
        for failure in &failures {
            eprintln!("  {failure}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"[
  {"workload": "cnot", "trials": 3, "metrics": {"lm.iterations": 42}, "workload_seconds": 0.100000, "infidelity": 1.0e-12, "success": true},
  {"workload": "ladder", "trials": 3, "workload_seconds": 0.080000, "success": true},
  {"workload": "tiny", "workload_seconds": 0.000200, "success": true}
]"#;

    #[test]
    fn parses_rows_and_skips_untimed_ones() {
        let rows = parse_report(SAMPLE);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].0, "cnot");
        assert!((rows[0].1 - 0.1).abs() < 1e-12);
        let untimed = "[\n  {\"workload\": \"cnot\", \"success\": true}\n]";
        assert!(parse_report(untimed).is_empty());
    }

    #[test]
    fn flags_only_regressions_beyond_the_limit() {
        let baseline = parse_report(SAMPLE);
        // +20% everywhere: inside the 25% budget.
        let fresh: Vec<Row> = baseline.iter().map(|(k, v)| (k.clone(), v * 1.2)).collect();
        assert!(regressions(&baseline, &fresh, 0.25).is_empty());
        // +30% on one workload: flagged, and the message names it.
        let mut worse = fresh.clone();
        worse[0].1 = baseline[0].1 * 1.3;
        let failures = regressions(&baseline, &worse, 0.25);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].starts_with("cnot:"), "{failures:?}");
        // Sub-millisecond workloads never gate, no matter the ratio.
        let mut noisy = fresh;
        noisy[2].1 = baseline[2].1 * 10.0;
        assert!(regressions(&baseline, &noisy, 0.25).is_empty());
    }

    #[test]
    fn missing_pairs_are_ignored() {
        let baseline = parse_report(SAMPLE);
        let fresh = vec![baseline[0].clone()];
        assert!(regressions(&baseline, &fresh, 0.25).is_empty());
    }
}
