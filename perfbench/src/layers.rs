//! Per-layer probes for the traced run (`--trace 1`). Each probe times calls into
//! one module's public functions from here, on the inputs of the workload the
//! layer is listed under, and records a span around every call it times.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use openqudit::egraph::simplify::{simplify_batch_with, SimplifyConfig};
use openqudit::optimize::minimize;
use openqudit::prelude::*;
use openqudit::qgl::{ComplexExpr, Expr};

use crate::stats::{geomean, median, mix, ms_since, Rng};
use crate::{gate_jit, instantiate, oracle, serve, synthesize, Ctx};

/// Ladders the baseline comparison runs on (the deep ladders take the baseline
/// tens of seconds).
const BASELINE_LADDERS: [&str; 3] = ["3q_shallow", "3qt_shallow", "3q_deep"];

/// LM starts per ladder in the optimizer probe.
const LM_STARTS: usize = 4;

/// Closed-loop steps in the serve probe.
const SERVE_STEPS: usize = 40;

/// Every per-layer metric with its unit, in output order.
pub fn metric_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("qgl.build_ms", "ms"),
        ("qgl.diff_ms", "ms"),
        ("egraph.simplify_ms", "ms"),
        ("egraph.nodes_before", "count"),
        ("egraph.node_ratio", "ratio"),
        ("egraph.trig_before", "count"),
        ("egraph.trig_ratio", "ratio"),
        ("qvm.emit_ms", "ms"),
        ("qvm.value_ns", "ns"),
        ("qvm.grad_ns", "ns"),
        ("qvm.grad_ns_unsimplified", "ns"),
        ("qvm.cache_hit_ratio", "ratio"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for (ladder, _) in instantiate::ladders() {
        for (metric, unit) in [
            ("network.lower_us", "us"),
            ("tnvm.init_us", "us"),
            ("tnvm.value_us", "us"),
            ("tnvm.grad_us", "us"),
            ("tnvm.grad_over_value", "ratio"),
            ("tnvm.flops_per_grad", "count"),
            ("tnvm.memory_bytes", "bytes"),
            ("optimize.lm_iter_us", "us"),
            ("optimize.lm_outside_vm_share", "share"),
            ("optimize.lm_iterations_per_start", "count"),
        ] {
            names.push((format!("{metric}.{ladder}"), unit));
        }
    }
    names.push(("optimize.successes_per_start".to_string(), "share"));
    for class in ["narrow", "wide"] {
        for pass in ["partition", "synthesis", "refine", "fold"] {
            names.push((format!("compile.{pass}_ms.{class}"), "ms"));
        }
    }
    for (n, u) in [
        ("synth.nodes_expanded", "count"),
        ("synth.frontier_candidates", "count"),
        ("synth.instantiate_success_ratio", "ratio"),
        ("serve.compile_ms_p50", "ms"),
        ("serve.queue_wait_ms_p50", "ms"),
        ("serve.dedup_joined_share", "share"),
        ("serve.admitted_share", "share"),
    ] {
        names.push((n.to_string(), u));
    }
    for ladder in BASELINE_LADDERS {
        names.push((format!("baseline.instantiate_ms.{ladder}"), "ms"));
        names.push((format!("baseline.ratio_cold.{ladder}"), "ratio"));
        names.push((format!("baseline.ratio_warm.{ladder}"), "ratio"));
    }
    for (n, u) in [
        ("trace.untraced_op_ms_p50", "ms"),
        ("trace.traced_op_ms_p50", "ms"),
        ("trace.overhead_ms", "ms"),
        ("trace.spans", "count"),
    ] {
        names.push((n.to_string(), u));
    }
    names
}

/// Per-layer values by metric name.
#[derive(Default)]
pub struct Ledger {
    values: BTreeMap<String, f64>,
}

impl Ledger {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Every metric of [`metric_names`] as `(name, value, unit)`, or the first
    /// name that was not measured.
    pub fn into_metrics(self) -> Result<Vec<(String, f64, String)>, String> {
        metric_names()
            .into_iter()
            .map(|(name, unit)| match self.values.get(&name) {
                Some(&value) if value.is_finite() => Ok((name, value, unit.to_string())),
                _ => Err(name),
            })
            .collect()
    }
}

/// Operations the probes attempted and how many of them failed.
#[derive(Default)]
pub struct ProbeOutcome {
    pub attempted: u64,
    pub failed: u64,
}

impl ProbeOutcome {
    fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("perfbench: probe {what} failed: {e}");
        }
    }
}

/// Runs every probe, filling `ledger`.
pub fn run_all(ctx: &Ctx, ledger: &mut Ledger) -> ProbeOutcome {
    let mut outcome = ProbeOutcome::default();
    jit(ctx, ledger);
    ladders(ctx, ledger);
    optimizer(ctx, ledger, &mut outcome);
    compile(ctx, ledger, &mut outcome);
    serve_layer(ctx, ledger, &mut outcome);
    baseline(ctx, ledger, &mut outcome);
    outcome
}

/// Nanoseconds per call of `f`: the median over seven batches, each long enough
/// (≥ 0.2 ms) for the clock to resolve it.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut batch = 1usize;
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t0.elapsed() >= Duration::from_micros(200) {
            break;
        }
        batch *= 2;
    }
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e9 / batch as f64
        })
        .collect();
    median(&samples)
}

fn components(matrices: &[&[Vec<ComplexExpr>]]) -> Vec<Expr> {
    let mut out = Vec::new();
    for matrix in matrices {
        for el in matrix.iter().flatten() {
            out.push(el.re.clone());
            out.push(el.im.clone());
        }
    }
    out
}

/// Nanoseconds per run of a compiled register program at `params`.
fn program_ns(program: &openqudit::qvm::program::ExprProgram, params: &[f64]) -> f64 {
    let mut scratch = vec![0.0; program.num_regs];
    let mut out = vec![C64::new(0.0, 0.0); program.outputs.len()];
    ns_per_call(|| program.run(black_box(params), &mut scratch, &mut out))
}

/// The expression JIT over the gate library (`gate_jit` inputs): parse, symbolic
/// gradient, e-graph simplification, register emission, and evaluation with and
/// without simplification.
fn jit(ctx: &Ctx, ledger: &mut Ledger) {
    let _probe = ctx.span("probe.jit");
    let builds: Vec<f64> = (0..3)
        .map(|_| {
            let _span = ctx.span("qgl.all_gates");
            let t0 = Instant::now();
            black_box(gates::all_gates());
            ms_since(t0)
        })
        .collect();
    ledger.set("qgl.build_ms", median(&builds));

    let gates = gates::all_gates();
    let params = gate_jit::gate_params(ctx.seed, &gates);
    let (mut diff_ms, mut simplify_ms, mut emit_ms) = (0.0, 0.0, 0.0);
    let (mut nodes, mut trig) = ([0usize; 2], [0usize; 2]);
    let (mut value_ns, mut grad_ns, mut grad_raw_ns) = (Vec::new(), Vec::new(), Vec::new());
    for ((name, gate), params) in gates.iter().zip(&params) {
        let t0 = Instant::now();
        let gradient = {
            let _span = ctx.span(&format!("qgl.gradient.{name}"));
            gate.gradient()
        };
        diff_ms += ms_since(t0);

        let mut matrices: Vec<&[Vec<ComplexExpr>]> = vec![gate.elements()];
        matrices.extend(gradient.iter().map(Vec::as_slice));
        let batch = components(&matrices);
        let t0 = Instant::now();
        let simplified = {
            let _span = ctx.span(&format!("egraph.simplify.{name}"));
            simplify_batch_with(&batch, &SimplifyConfig::default())
        };
        simplify_ms += ms_since(t0);
        nodes[0] += simplified.nodes_before;
        nodes[1] += simplified.nodes_after;
        trig[0] += simplified.trig_before;
        trig[1] += simplified.trig_after;

        let raw_options =
            CompileOptions { skip_simplification: true, ..CompileOptions::with_gradient() };
        let t0 = Instant::now();
        let raw = {
            let _span = ctx.span(&format!("qvm.emit.{name}"));
            CompiledExpression::compile(gate, &raw_options)
        };
        emit_ms += ms_since(t0);
        let full = CompiledExpression::compile(gate, &CompileOptions::with_gradient());

        let _span = ctx.span(&format!("qvm.evaluate.{name}"));
        value_ns.push(program_ns(full.unitary_program(), params));
        let gradient_program = full.gradient_program().expect("compiled with gradient");
        grad_ns.push(program_ns(gradient_program, params));
        let raw_gradient = raw.gradient_program().expect("compiled with gradient");
        grad_raw_ns.push(program_ns(raw_gradient, params));
    }
    ledger.set("qgl.diff_ms", diff_ms);
    ledger.set("egraph.simplify_ms", simplify_ms);
    ledger.set("egraph.nodes_before", nodes[0] as f64);
    ledger.set("egraph.node_ratio", nodes[1] as f64 / nodes[0] as f64);
    ledger.set("egraph.trig_before", trig[0] as f64);
    ledger.set("egraph.trig_ratio", trig[1] as f64 / trig[0] as f64);
    ledger.set("qvm.emit_ms", emit_ms);
    ledger.set("qvm.value_ns", geomean(&value_ns));
    ledger.set("qvm.grad_ns", geomean(&grad_ns));
    ledger.set("qvm.grad_ns_unsimplified", geomean(&grad_raw_ns));
}

/// Lowering and the TNVM on each `instantiate` ladder, warm cache.
fn ladders(ctx: &Ctx, ledger: &mut Ledger) {
    let _probe = ctx.span("probe.tnvm");
    let cache = ExpressionCache::new();
    for (l, (ladder, circuit)) in instantiate::ladders().iter().enumerate() {
        instantiate::warm_cache(circuit, &cache);
        let mut rng = Rng::new(mix(ctx.seed, 400, l as u64));
        let params: Vec<f64> = (0..circuit.num_params()).map(|_| rng.angle()).collect();
        let lower: Vec<f64> = (0..5)
            .map(|_| {
                let _span = ctx.span(&format!("network.lower.{ladder}"));
                let t0 = Instant::now();
                black_box(compile_network(&TensorNetwork::from_circuit(circuit)));
                ms_since(t0) * 1e3
            })
            .collect();
        let program = compile_network(&TensorNetwork::from_circuit(circuit));
        let init: Vec<f64> = (0..5)
            .map(|_| {
                let _span = ctx.span(&format!("tnvm.init.{ladder}"));
                let t0 = Instant::now();
                black_box(Tnvm::<f64>::new(&program, DiffMode::Gradient, &cache));
                ms_since(t0) * 1e3
            })
            .collect();
        let mut value_vm = Tnvm::<f64>::new(&program, DiffMode::None, &cache);
        let mut grad_vm = Tnvm::<f64>::new(&program, DiffMode::Gradient, &cache);
        let (value_us, grad_us) = {
            let _span = ctx.span(&format!("tnvm.evaluate.{ladder}"));
            let value = ns_per_call(|| drop(black_box(value_vm.evaluate(&params)))) / 1e3;
            let grad = ns_per_call(|| drop(black_box(grad_vm.evaluate(&params)))) / 1e3;
            (value, grad)
        };
        grad_vm.take_counters();
        drop(grad_vm.evaluate(&params));
        let counters = grad_vm.take_counters();
        ledger.set(&format!("network.lower_us.{ladder}"), median(&lower));
        ledger.set(&format!("tnvm.init_us.{ladder}"), median(&init));
        ledger.set(&format!("tnvm.value_us.{ladder}"), value_us);
        ledger.set(&format!("tnvm.grad_us.{ladder}"), grad_us);
        ledger.set(&format!("tnvm.grad_over_value.{ladder}"), grad_us / value_us);
        ledger.set(
            &format!("tnvm.flops_per_grad.{ladder}"),
            counters.flops.iter().sum::<u64>() as f64,
        );
        ledger.set(&format!("tnvm.memory_bytes.{ladder}"), grad_vm.memory_bytes() as f64);
    }
}

/// A [`GradientEvaluator`] that times every `evaluate` of the evaluator it wraps.
struct TimedEvaluator<E> {
    inner: E,
    evaluate_s: f64,
}

impl<E: GradientEvaluator> GradientEvaluator for TimedEvaluator<E> {
    fn num_params(&self) -> usize {
        self.inner.num_params()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn evaluate(&mut self, params: &[f64]) -> (Matrix<f64>, Vec<Matrix<f64>>) {
        let t0 = Instant::now();
        let out = self.inner.evaluate(params);
        self.evaluate_s += t0.elapsed().as_secs_f64();
        out
    }
}

/// LM (`minimize`) per start on one seeded target per ladder, through a timing
/// evaluator wrapper, so time inside and outside the VM separate.
fn optimizer(ctx: &Ctx, ledger: &mut Ledger, outcome: &mut ProbeOutcome) {
    let _probe = ctx.span("probe.optimize");
    let cache = ExpressionCache::new();
    let (mut starts, mut successes) = (0usize, 0usize);
    for (l, (ladder, circuit)) in instantiate::ladders().iter().enumerate() {
        instantiate::warm_cache(circuit, &cache);
        let target = instantiate::target(circuit, ctx.seed, l, 0);
        let mut evaluator =
            TimedEvaluator { inner: TnvmEvaluator::new(circuit, &cache), evaluate_s: 0.0 };
        let (mut lm_s, mut vm_s, mut iterations) = (0.0, 0.0, 0usize);
        let mut rng = Rng::new(mix(ctx.seed, 500, l as u64));
        for start in 0..LM_STARTS {
            let scale = if start == 0 { 0.1 / std::f64::consts::PI } else { 1.0 };
            let x0: Vec<f64> = (0..circuit.num_params()).map(|_| scale * rng.angle()).collect();
            evaluator.evaluate_s = 0.0;
            let _span = ctx.span(&format!("optimize.minimize.{ladder}"));
            let t0 = Instant::now();
            let result = minimize(&mut evaluator, &target, &x0, &LmConfig::default());
            lm_s += t0.elapsed().as_secs_f64();
            vm_s += evaluator.evaluate_s;
            iterations += result.iterations;
            starts += 1;
            let check = oracle::recomputed_infidelity(circuit, &result.params, &target);
            if matches!(check, Ok(inf) if inf < oracle::SUCCESS) {
                successes += 1;
            }
            outcome.record("optimize", check.map(drop));
        }
        ledger.set(&format!("optimize.lm_iter_us.{ladder}"), lm_s * 1e6 / iterations as f64);
        ledger.set(&format!("optimize.lm_outside_vm_share.{ladder}"), 1.0 - vm_s / lm_s);
        ledger.set(
            &format!("optimize.lm_iterations_per_start.{ladder}"),
            iterations as f64 / LM_STARTS as f64,
        );
    }
    ledger.set("optimize.successes_per_start", successes as f64 / starts as f64);
}

/// The pass pipeline through [`synthesize::TimedPass`] wrappers on `synthesize`
/// targets: two per narrow kind and one wide.
fn compile(ctx: &Ctx, ledger: &mut Ledger, outcome: &mut ProbeOutcome) {
    let _probe = ctx.span("probe.compile");
    let cache = ExpressionCache::new();
    synthesize::warm(&Compiler::with_cache(cache.clone()).partitioned_passes(), ctx.seed);
    let log = synthesize::PassLog::default();
    let compiler =
        synthesize::timed_compiler(cache.clone(), &log, &ctx.trace.clone().unwrap_or_default());
    let before = cache.stats();
    let mut per_pass: BTreeMap<(bool, String), f64> = BTreeMap::new();
    let (mut targets, mut nodes, mut candidates, mut calls, mut wins) = ([0usize; 2], 0, 0, 0, 0);
    for (kind, spec) in synthesize::KINDS.iter().enumerate() {
        let count = if spec.wide { 1 } else { 2 };
        for k in 0..count {
            let (target, engine_seed) = synthesize::target(ctx.seed, kind, (1 << 41) + k);
            log.lock().expect("pass log").clear();
            let _span = ctx.span(&format!("compile.{}", spec.name));
            let compiled = compiler.compile(synthesize::task(kind, target.clone(), engine_seed));
            let report = match compiled {
                Ok(report) => report,
                Err(e) => {
                    outcome.record("compile", Err(e.to_string()));
                    continue;
                }
            };
            outcome.record("compile", synthesize::check(&report, &target).map(drop));
            targets[spec.wide as usize] += 1;
            for (pass, ms) in log.lock().expect("pass log").iter() {
                *per_pass.entry((spec.wide, pass.clone())).or_default() += ms;
            }
            if !spec.wide {
                let metric = |key: &str| report.metrics.get(key).copied().unwrap_or(0);
                nodes += metric("search.nodes_expanded");
                candidates += metric("frontier.candidates");
                calls += metric("instantiate.calls");
                wins += metric("instantiate.successes");
            }
        }
    }
    for (wide, class) in [(false, "narrow"), (true, "wide")] {
        for pass in ["partition", "synthesis", "refine", "fold"] {
            let total = per_pass.get(&(wide, pass.to_string())).copied().unwrap_or(f64::NAN);
            ledger
                .set(&format!("compile.{pass}_ms.{class}"), total / targets[wide as usize] as f64);
        }
    }
    let narrow = targets[0] as f64;
    ledger.set("synth.nodes_expanded", nodes as f64 / narrow);
    ledger.set("synth.frontier_candidates", candidates as f64 / narrow);
    ledger.set("synth.instantiate_success_ratio", wins as f64 / calls as f64);
    let after = cache.stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    ledger.set("qvm.cache_hit_ratio", hits as f64 / (hits + misses) as f64);
}

/// A short `serve` closed loop: queue wait against compile time, and dedup.
fn serve_layer(ctx: &Ctx, ledger: &mut Ledger, outcome: &mut ProbeOutcome) {
    let _probe = ctx.span("probe.serve");
    let seed = ctx.seed ^ 0x5e7e;
    let server = serve::start_server(seed);
    let steps = serve::steps(seed, SERVE_STEPS, 0);
    let needed = steps.iter().map(|s| s[1] + 1).max().unwrap_or(0);
    let bodies: Vec<serve::Body> = (0..needed as u64).map(|k| serve::body(seed, k)).collect();
    let deadline = Instant::now() + Duration::from_secs(60);
    let records = serve::drive(server.addr(), &bodies, &steps, deadline, ctx);
    server.shutdown();
    let (mut compile_ms, mut wait_ms) = (Vec::new(), Vec::new());
    let (mut joined, mut admitted) = (0usize, 0usize);
    for r in &records {
        let ok = r.status == Some(200);
        outcome.record("serve", if ok { Ok(()) } else { Err(format!("{:?}", r.status)) });
        joined += r.joined as usize;
        admitted += !matches!(r.status, Some(429 | 504)) as usize;
        if let (true, false, Some(ms)) = (ok, r.joined, serve::compile_ms(&r.response)) {
            compile_ms.push(ms);
            wait_ms.push(r.ms - ms);
        }
    }
    let total = records.len() as f64;
    ledger.set("serve.compile_ms_p50", median(&compile_ms));
    ledger.set("serve.queue_wait_ms_p50", median(&wait_ms));
    ledger.set("serve.dedup_joined_share", joined as f64 / total);
    ledger.set("serve.admitted_share", admitted as f64 / total);
}

/// The `baseline` crate against the TNVM path on the same `instantiate` targets,
/// serial, with the TNVM side timed on a cold and then a warm expression cache.
fn baseline(ctx: &Ctx, ledger: &mut Ledger, outcome: &mut ProbeOutcome) {
    let _probe = ctx.span("probe.baseline");
    for (l, (ladder, circuit)) in instantiate::ladders().iter().enumerate() {
        if !BASELINE_LADDERS.contains(ladder) {
            continue;
        }
        let target = instantiate::target(circuit, ctx.seed, l, 0);
        let config = InstantiateConfig {
            threads: 1,
            ..InstantiateConfig::multi_start(mix(ctx.seed, 600, l as u64))
        };
        let t0 = Instant::now();
        let reference = {
            let _span = ctx.span(&format!("baseline.instantiate.{ladder}"));
            let mut evaluator = BaselineEvaluator::from_qudit_circuit(circuit)
                .expect("ladder gates have baseline implementations");
            instantiate(&mut evaluator, &target, &config)
        };
        let baseline_ms = ms_since(t0);
        let cache = ExpressionCache::new();
        let mut tnvm_ms = [0.0; 2];
        for (i, phase) in ["cold", "warm"].iter().enumerate() {
            let _span = ctx.span(&format!("optimize.instantiate.{phase}.{ladder}"));
            let t0 = Instant::now();
            let result = instantiate_circuit(circuit, &target, &config, &cache);
            tnvm_ms[i] = ms_since(t0);
            outcome.record(
                "baseline",
                oracle::check_result(circuit, &result.params, &target, result.infidelity).map(drop),
            );
        }
        outcome.record(
            "baseline",
            oracle::check_result(circuit, &reference.params, &target, reference.infidelity)
                .map(drop),
        );
        ledger.set(&format!("baseline.instantiate_ms.{ladder}"), baseline_ms);
        ledger.set(&format!("baseline.ratio_cold.{ladder}"), baseline_ms / tnvm_ms[0]);
        ledger.set(&format!("baseline.ratio_warm.{ladder}"), baseline_ms / tnvm_ms[1]);
    }
}
