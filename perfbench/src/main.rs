//! End-to-end and per-layer benchmark of the OpenQudit workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <instantiate|synthesize|gate_jit|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines go to standard output first; the last line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set, with `--trace 1` the per-layer set (plus a
//! Chrome trace under `.perfbench/`). See `perfbench/README.md`.

mod gate_jit;
mod instantiate;
mod layers;
mod oracle;
mod serve;
mod stats;
mod synthesize;

use std::time::{Duration, Instant};

use openqudit::trace::{Span, TraceRegistry};

use stats::{geomean, median, peak_rss_mb};

/// Environment knobs that change what the engine runs; the benchmark measures the
/// defaults only.
const REFUSED_ENV: [&str; 4] = [
    "OPENQUDIT_TNVM_BACKEND",
    "OPENQUDIT_VERIFY",
    "OPENQUDIT_OPTIMIZE",
    "OPENQUDIT_SYNTH_OMIT_TIMING",
];

/// How many times set-up runs per process; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

/// One timed operation of a workload.
pub struct Op {
    /// Index into [`Run::kinds`].
    pub kind: usize,
    /// Wall-clock time of the operation in milliseconds.
    pub ms: f64,
    /// Whether spans were recorded around this operation.
    pub traced: bool,
    /// Whether the output met the workload's quality target.
    pub success: bool,
    /// Why the operation failed or its output was wrong, if it did.
    pub error: Option<String>,
}

/// What a workload measured.
pub struct Run {
    pub kinds: Vec<String>,
    pub ops: Vec<Op>,
    pub setup_s: Vec<f64>,
    pub elapsed_s: f64,
    /// Workload-specific end-to-end metrics, printed by name: `(name, value, unit)`.
    pub named: Vec<(String, f64, &'static str)>,
}

impl Run {
    pub fn new(kinds: Vec<String>, ops: Vec<Op>, setup_s: Vec<f64>, elapsed_s: f64) -> Self {
        Run { kinds, ops, setup_s, elapsed_s, named: Vec::new() }
    }

    /// Per-kind median time (ms) over the traced or the untraced operations.
    pub fn medians(&self, traced: bool) -> Vec<f64> {
        (0..self.kinds.len())
            .map(|k| {
                let times: Vec<f64> = self
                    .ops
                    .iter()
                    .filter(|o| o.kind == k && o.traced == traced)
                    .map(|o| o.ms)
                    .collect();
                median(&times)
            })
            .collect()
    }

    /// Geometric mean over kinds of each kind's median time: the `op_ms_p50` metric.
    pub fn op_ms_p50(&self) -> f64 {
        geomean(&self.medians(false))
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops.iter().filter(|o| o.error.is_none()).count() as f64 / self.elapsed_s
    }

    /// Mean over kinds of the share of operations that met the quality target.
    pub fn success_rate(&self) -> f64 {
        let shares: Vec<f64> = (0..self.kinds.len())
            .map(|k| {
                let of_kind: Vec<&Op> = self.ops.iter().filter(|o| o.kind == k).collect();
                of_kind.iter().filter(|o| o.success).count() as f64 / of_kind.len().max(1) as f64
            })
            .collect();
        shares.iter().sum::<f64>() / shares.len() as f64
    }

    /// Adds the workload's names for `op_ms_p50` and `ops_per_s`.
    pub fn named_op_metrics(mut self, p50_name: &str, rate_name: &str) -> Self {
        self.named.push((p50_name.to_string(), self.op_ms_p50(), "ms"));
        self.named.push((rate_name.to_string(), self.ops_per_s(), "1/s"));
        self
    }
}

/// Run parameters shared by every workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Enabled in `--trace 1` runs: odd rounds record spans into it.
    pub trace: Option<TraceRegistry>,
}

impl Ctx {
    pub fn deadline(&self, started: Instant) -> Instant {
        started + Duration::from_secs_f64(self.seconds)
    }

    /// Whether the timed loop stops after round `round`: at the deadline, but not
    /// before a traced run has both an untraced and a traced round.
    pub fn done(&self, round: usize, deadline: Instant) -> bool {
        Instant::now() >= deadline && (self.trace.is_none() || round >= 1)
    }

    /// Whether round `round` records spans (every other round of a traced run, so
    /// traced and untraced operations interleave and their difference is the
    /// tracing overhead).
    pub fn traced_round(&self, round: usize) -> bool {
        self.trace.is_some() && round % 2 == 1
    }

    /// Opens a span in the traced run's registry (a no-op when untraced).
    pub fn span(&self, name: &str) -> Span {
        self.trace.clone().unwrap_or_default().span(name)
    }

    /// Runs `setup` [`SETUP_REPEATS`] times (once in a traced run) and keeps the
    /// last state, returning it with every repetition's duration in seconds.
    pub fn repeat_setup<S>(&self, mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
        let repeats = if self.trace.is_some() { 1 } else { SETUP_REPEATS };
        let mut times = Vec::with_capacity(repeats);
        let mut state = None;
        for _ in 0..repeats {
            let _span = self.span("setup");
            // Drop the previous state first so repetitions do not overlap.
            drop(state.take());
            let t0 = Instant::now();
            state = Some(setup());
            times.push(t0.elapsed().as_secs_f64());
        }
        (state.expect("at least one set-up"), times)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["instantiate", "synthesize", "gate_jit", "serve"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected instantiate, synthesize, gate_jit or serve"
        ));
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn fail(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    std::process::exit(2);
}

fn main() {
    for var in REFUSED_ENV {
        if std::env::var_os(var).is_some() {
            fail(&format!(
                "{var} is set; the benchmark measures the engine's defaults only. Unset it and rerun."
            ));
        }
    }
    let args = parse_args().unwrap_or_else(|e| fail(&e));
    let ctx =
        Ctx { seed: args.seed, seconds: args.seconds, trace: args.trace.then(TraceRegistry::new) };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let run = match args.workload.as_str() {
        "instantiate" => instantiate::run(&ctx),
        "synthesize" => synthesize::run(&ctx),
        "gate_jit" => gate_jit::run(&ctx),
        _ => serve::run(&ctx),
    };

    let mut attempted = run.ops.len() as u64;
    let mut failed = run.ops.iter().filter(|o| o.error.is_some()).count() as u64;
    for error in run.ops.iter().filter_map(|o| o.error.as_ref()).take(5) {
        eprintln!("perfbench: wrong or failed operation: {error}");
    }

    for (k, kind) in run.kinds.iter().enumerate() {
        let n = run.ops.iter().filter(|o| o.kind == k).count();
        let wins = run.ops.iter().filter(|o| o.kind == k && o.success).count();
        let mut times: Vec<f64> = run.ops.iter().filter(|o| o.kind == k).map(|o| o.ms).collect();
        times.sort_by(f64::total_cmp);
        let q = |p: f64| {
            times.get(((times.len() - 1) as f64 * p) as usize).copied().unwrap_or(f64::NAN)
        };
        println!(
            "  kind {kind:<12} ops {n:>5}  successes {wins:>5}  ms min {:.2} p25 {:.2} p50 {:.2} p75 {:.2} max {:.2}",
            q(0.0),
            q(0.25),
            q(0.5),
            q(0.75),
            q(1.0)
        );
    }

    let metrics: Vec<(String, f64, String)> = if args.trace {
        let (traced, untraced) = (geomean(&run.medians(true)), run.op_ms_p50());
        let mut ledger = layers::Ledger::default();
        ledger.set("trace.untraced_op_ms_p50", untraced);
        ledger.set("trace.traced_op_ms_p50", traced);
        ledger.set("trace.overhead_ms", traced - untraced);
        let probe = layers::run_all(&ctx, &mut ledger);
        attempted += probe.attempted;
        failed += probe.failed;
        let registry = ctx.trace.as_ref().expect("traced run");
        ledger.set("trace.spans", registry.span_events().len() as f64);
        let path = format!(".perfbench/trace-{}-seed{}.json", args.workload, args.seed);
        match std::fs::create_dir_all(".perfbench")
            .and_then(|()| std::fs::write(&path, registry.chrome_trace_json()))
        {
            Ok(()) => println!("chrome trace written to {path}"),
            Err(e) => fail(&format!("cannot write {path}: {e}")),
        }
        ledger
            .into_metrics()
            .unwrap_or_else(|missing| fail(&format!("per-layer metric {missing} was not measured")))
    } else {
        let error_rate = failed as f64 / attempted.max(1) as f64;
        let mut named = run.named.clone();
        named.push(("error_rate".to_string(), error_rate, "share"));
        for (name, value, unit) in &named {
            println!("  {name} = {value} {unit}");
        }
        println!(
            "  setup repetitions (s): {:?}",
            run.setup_s.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>()
        );
        vec![
            ("setup_s".to_string(), median(&run.setup_s), "s".to_string()),
            ("peak_rss_mb".to_string(), peak_rss_mb(), "MiB".to_string()),
            ("success_rate".to_string(), run.success_rate(), "share".to_string()),
            ("op_ms_p50".to_string(), run.op_ms_p50(), "ms".to_string()),
        ]
    };

    if attempted == 0 {
        fail("no operation completed");
    }
    if let Some((name, _, _)) = metrics.iter().find(|(_, value, _)| !value.is_finite()) {
        fail(&format!("metric {name} could not be measured"));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
}
