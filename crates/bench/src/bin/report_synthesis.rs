//! Reports the synthesis workloads through the compiler-pass pipeline: nodes
//! expanded, per-pass wall-clock timings (partition, search, refinement, folding),
//! pre/post-refine entangling-block depths, and fold metrics per workload — emitted
//! as JSON, one row per workload.
//!
//! Every workload runs through [`Compiler::partitioned_passes`]: narrow targets skip
//! the partition pass and compile exactly as the default pipeline does, while the
//! 4-qubit workload exercises the partitioning front-end. The output is committed as
//! `BENCH_synthesis.json`.
//!
//! Run with `cargo run --release -p qudit-bench --bin report_synthesis`.
//! Set `OPENQUDIT_SYNTH_TRIALS=<n>` to repeat each workload (default 1; the report
//! records the **median** per-trial wall-clock — robust to co-tenancy spikes and to
//! the cold-cache first trial, both of which dwarf the millisecond workloads — and
//! the worst infidelity).
//! Set `OPENQUDIT_SYNTH_OMIT_TIMING=1` to drop **every** wall-clock-derived field
//! (`workload_seconds`, `median_pass_seconds`) in one gate — the single timing
//! switch, shared via [`openqudit::trace::omit_timing`]: every remaining field is
//! deterministic for a fixed seed, so two runs must produce byte-identical output —
//! the CI determinism check diffs exactly this (including the partitioned workload).
//! The per-row `"metrics"` object (algorithm, cache and `tnvm.*` kernel counters) is
//! deterministic and stays in the pinned output; span *timings* never reach stdout
//! at all — they only go to the optional Chrome trace file.
//!
//! Set `OPENQUDIT_SYNTH_TRACE=<path>` to also write a Chrome `trace_event` JSON
//! profile (loadable in `about://tracing` or <https://ui.perfetto.dev>) of the first
//! trial of the widest workload — the 4-qudit partitioned run.

use std::collections::BTreeMap;
use std::time::Instant;

use openqudit::prelude::*;
use openqudit::trace::counters_to_json;
use qudit_bench::{synthesis_config, synthesis_workloads};

/// Environment variable naming the Chrome `trace_event` output file.
const TRACE_ENV_VAR: &str = "OPENQUDIT_SYNTH_TRACE";

/// Minimal JSON string escaping for workload names (no exotic characters expected).
fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Median of the samples (mean of the middle two for even counts). Panics on empty.
fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn main() {
    let trials: usize = std::env::var("OPENQUDIT_SYNTH_TRIALS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
        .max(1);
    let omit_timing = openqudit::trace::omit_timing();
    let trace_path = std::env::var(TRACE_ENV_VAR).ok();
    let mut trace_export: Option<(usize, TraceRegistry)> = None;

    let mut entries: Vec<String> = Vec::new();
    for workload in synthesis_workloads() {
        let config = synthesis_config(&workload);
        // One fresh cache per workload: trials after the first measure a warm cache,
        // matching how a compiler would amortize gate compilation across tasks.
        let compiler = Compiler::with_cache(ExpressionCache::new()).partitioned_passes();
        let mut pass_seconds: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut pass_order: Vec<String> = Vec::new();
        let mut workload_seconds: Vec<f64> = Vec::new();
        // Result fields are taken from the *worst* trial (by final infidelity), so the
        // row always describes one run that actually happened.
        let mut worst: Option<SynthesisResult> = None;
        let mut success = true;
        // Counter snapshot of the *first* trial (cold fresh cache — the only trial
        // whose cache.hits/misses are reproducible across processes).
        let mut metrics: BTreeMap<String, u64> = BTreeMap::new();
        for trial in 0..trials {
            let task = CompilationTask::new(workload.target.clone(), config.clone());
            // detlint: allow(wall-clock) — timing medians are the report's product
            // and are withheld from the byte-diffed artifact by the omit-timing gate
            let started = Instant::now();
            let report = match compiler.compile(task) {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("workload '{}' failed: {e}", workload.name);
                    std::process::exit(1);
                }
            };
            workload_seconds.push(started.elapsed().as_secs_f64());
            if trial == 0 {
                metrics = report.metrics.clone();
                if trace_path.is_some() {
                    // Keep the widest workload's registry for the Chrome export.
                    let width = workload.radices.len();
                    if trace_export.as_ref().map(|(w, _)| width > *w).unwrap_or(true) {
                        trace_export = Some((width, report.trace.clone()));
                    }
                }
            }
            for timing in &report.timings {
                if !pass_seconds.contains_key(&timing.pass) {
                    pass_order.push(timing.pass.clone());
                }
                pass_seconds
                    .entry(timing.pass.clone())
                    .or_default()
                    .push(timing.duration.as_secs_f64());
            }
            success &= report.result.success;
            let worse =
                worst.as_ref().map(|w| report.result.infidelity > w.infidelity).unwrap_or(true);
            if worse {
                worst = Some(report.result);
            }
        }
        let worst = worst.expect("at least one trial ran");
        let timing = if omit_timing {
            String::new()
        } else {
            let per_pass: Vec<String> = pass_order
                .iter()
                .map(|pass| {
                    format!("\"{}\": {:.6}", json_escape(pass), median(&pass_seconds[pass]))
                })
                .collect();
            format!(
                "\"workload_seconds\": {:.6}, \"median_pass_seconds\": {{{}}}, ",
                median(&workload_seconds),
                per_pass.join(", ")
            )
        };
        entries.push(format!(
            concat!(
                "  {{\"workload\": \"{}\", \"radices\": {:?}, \"trials\": {}, ",
                "\"nodes_expanded\": {}, \"blocks_pre_refine\": {}, \"blocks\": {}, ",
                "\"params_folded\": {}, \"gates_constified\": {}, \"metrics\": {}, {}",
                "\"infidelity\": {:.3e}, \"success\": {}}}"
            ),
            json_escape(workload.name),
            workload.radices,
            trials,
            worst.nodes_expanded,
            worst.blocks.len() + worst.blocks_deleted,
            worst.blocks.len(),
            worst.params_folded,
            worst.gates_constified,
            counters_to_json(&metrics),
            timing,
            worst.infidelity,
            success,
        ));
    }
    println!("[\n{}\n]", entries.join(",\n"));

    if let Some(path) = trace_path {
        let (_, registry) = trace_export.expect("at least one workload ran");
        if let Err(e) = std::fs::write(&path, registry.chrome_trace_json()) {
            eprintln!("failed to write Chrome trace to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote Chrome trace_event profile to {path}");
    }
}
