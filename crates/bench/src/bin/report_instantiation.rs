//! Regenerates Figures 6 and 7 of the paper: single-start and multi-start (8 starts)
//! numerical instantiation time and success rate for the Fig. 5 PQC workloads,
//! OpenQudit (TNVM) vs the BQSKit-style baseline, both driven by the same LM optimizer.
//!
//! Each workload starts from a fresh `ExpressionCache`, so OpenQudit's first trial also
//! pays the expression JIT of the gates it uses (*cold*) while the remaining trials reuse
//! the compiled gates (*warm*). The two are printed as separate columns, each with its
//! speedup over the baseline on the same targets; the baseline has no JIT to warm.
//!
//! Run with `cargo run --release -p qudit-bench --bin report_instantiation`.
//! Set `OPENQUDIT_TRIALS=<n>` to change the number of targets per workload (default 5;
//! the warm column needs at least 2).

use std::time::Duration;

use openqudit::prelude::*;
use qudit_bench::{
    fig5_workloads, fmt_duration, reachable_targets, run_baseline_instantiation,
    run_openqudit_instantiation,
};

fn mean(times: &[Duration]) -> Option<Duration> {
    (!times.is_empty()).then(|| times.iter().sum::<Duration>() / times.len() as u32)
}

/// An OpenQudit time and its speedup over the baseline's time on the same targets.
fn column(openqudit: Option<Duration>, baseline: Option<Duration>) -> String {
    match (openqudit, baseline) {
        (Some(oq), Some(bl)) => {
            format!("{:>12} {:>8.2}x", fmt_duration(oq), bl.as_secs_f64() / oq.as_secs_f64())
        }
        _ => format!("{:>12} {:>9}", "-", "-"),
    }
}

fn main() {
    let trials: usize =
        std::env::var("OPENQUDIT_TRIALS").ok().and_then(|s| s.parse().ok()).unwrap_or(5).max(1);
    for (label, starts) in [
        ("Figure 6: single-start instantiation", 1usize),
        ("Figure 7: multi-start instantiation (8 starts)", 8),
    ] {
        println!("== {label} ==");
        println!(
            "{:<18} {:>7} {:>12} {:>9} {:>12} {:>9} {:>12} {:>11} {:>11}",
            "workload",
            "params",
            "oq cold",
            "speedup",
            "oq warm",
            "speedup",
            "baseline",
            "oq success",
            "bl success"
        );
        for w in fig5_workloads() {
            let targets = reachable_targets(&w.circuit, trials, 1000 + starts as u64);
            let cache = ExpressionCache::new();
            let (mut oq_times, mut bl_times) = (Vec::new(), Vec::new());
            let mut oq_success = 0usize;
            let mut bl_success = 0usize;
            for (k, target) in targets.iter().enumerate() {
                // threads: 1 keeps the engine comparison apples-to-apples (the paper's
                // Fig. 6/7 measure evaluation speed, not thread parallelism); the
                // parallel multi-start path is reported by report_synthesis instead.
                let config = InstantiateConfig {
                    starts,
                    seed: 7 + k as u64,
                    threads: 1,
                    ..Default::default()
                };
                let oq = run_openqudit_instantiation(&w.circuit, target, &config, &cache);
                let bl = run_baseline_instantiation(&w.circuit, target, &config);
                oq_times.push(oq.elapsed);
                bl_times.push(bl.elapsed);
                oq_success += oq.success as usize;
                bl_success += bl.success as usize;
            }
            println!(
                "{:<18} {:>7} {} {} {:>12} {:>10.0}% {:>10.0}%",
                w.name,
                w.circuit.num_params(),
                column(mean(&oq_times[..1]), mean(&bl_times[..1])),
                column(mean(&oq_times[1..]), mean(&bl_times[1..])),
                fmt_duration(mean(&bl_times).expect("at least one trial")),
                100.0 * oq_success as f64 / trials as f64,
                100.0 * bl_success as f64 / trials as f64,
            );
        }
        println!();
    }
}
