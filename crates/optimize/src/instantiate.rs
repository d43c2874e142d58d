//! Numerical instantiation: driving the LM optimizer from one or many random starting
//! points to fit a parameterized circuit to a target unitary.
//!
//! This is the workload of Figs. 6 and 7 of the paper: single-start instantiation and
//! the more realistic multi-start scenario (8 starts, matching BQSKit's `-O3` default),
//! with early termination as soon as one start reaches the success threshold.
//!
//! Multi-start runs execute their starts **in parallel** (scoped threads, one TNVM per
//! worker, all sharing one [`ExpressionCache`]): each start's starting point is derived
//! from a deterministic `(seed, start index)` pair, and early termination is resolved
//! by the lowest successful start *index*, never by which thread finished first — so a
//! multi-start run returns the same parameters and infidelity as the serial loop, on
//! any machine. Synthesis frontiers hammer this path — see `qudit-synth`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qudit_circuit::QuditCircuit;
use qudit_network::{compile_network, TensorNetwork, TnvmProgram};
use qudit_qvm::{CompileOptions, DiffMode, ExpressionCache};
use qudit_tensor::{Matrix, C64};
use qudit_tnvm::{KernelCounters, Tnvm};
use qudit_trace::TraceRegistry;

use crate::cost::{hs_infidelity, jacobian_column_into, residual_len};
use crate::lm::{minimize_until, never, GradientEvaluator, LmConfig, LmStats};

/// The infidelity below which an instantiation is considered successful, matching the
/// convention used for synthesis sub-calls.
pub const SUCCESS_THRESHOLD: f64 = 1e-8;

/// Configuration for an instantiation run.
#[derive(Debug, Clone)]
pub struct InstantiateConfig {
    /// Number of random restarts (1 = single-start; the paper's multi-start uses 8).
    pub starts: usize,
    /// Infidelity threshold for declaring success (and short-circuiting restarts).
    pub success_threshold: f64,
    /// LM settings shared by every start.
    pub lm: LmConfig,
    /// RNG seed for the random starting parameters. Each start derives its own
    /// generator from `(seed, start index)`, so results are schedule-independent.
    pub seed: u64,
    /// Worker-thread cap for multi-start runs: `0` uses the machine's available
    /// parallelism, `1` forces the serial path.
    pub threads: usize,
    /// Optional warm start: the first start begins from these values (tail-padded with
    /// near-zero randoms when the circuit has more parameters). Bottom-up synthesis
    /// passes the parent node's optimum here, since an extended circuit keeps its
    /// parent's parameter positions.
    pub warm_start: Option<Vec<f64>>,
    /// Observability sink. Disabled by default (zero overhead); when enabled, every
    /// instantiation records its deterministic counters (calls, starts, LM iterations,
    /// kernel dispatches) at its join point. Parallel drivers hand workers a disabled
    /// handle and record only the schedule-independent prefix of completed work.
    pub trace: TraceRegistry,
}

impl Default for InstantiateConfig {
    fn default() -> Self {
        InstantiateConfig {
            starts: 1,
            success_threshold: SUCCESS_THRESHOLD,
            lm: LmConfig::default(),
            seed: 0,
            threads: 0,
            warm_start: None,
            trace: TraceRegistry::disabled(),
        }
    }
}

impl InstantiateConfig {
    /// The paper's multi-start configuration (8 restarts).
    pub fn multi_start(seed: u64) -> Self {
        InstantiateConfig { starts: 8, seed, ..Default::default() }
    }

    /// The number of worker threads a multi-start run will actually use.
    pub fn effective_threads(&self) -> usize {
        resolve_threads(self.threads).min(self.starts.max(1))
    }
}

/// Resolves a requested worker-thread count: `0` means the machine's available
/// parallelism (with a fallback of 1). Shared policy for every parallel driver in the
/// workspace (multi-start instantiation, the synthesis frontier).
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        requested
    }
}

/// The deterministic starting point for start `start_idx`: the warm start (when given)
/// for start 0, otherwise near-zero for start 0 and uniform over `(-π, π]` for the
/// rest. Every start seeds its own generator from `(config.seed, start_idx)`, so the
/// points do not depend on which thread evaluates which start.
fn start_point(n: usize, config: &InstantiateConfig, start_idx: usize) -> Vec<f64> {
    let mut rng =
        StdRng::seed_from_u64(config.seed ^ (start_idx as u64).wrapping_mul(0x9E3779B97F4A7C15));
    if start_idx == 0 {
        if let Some(warm) = &config.warm_start {
            return (0..n)
                .map(|k| warm.get(k).copied().unwrap_or_else(|| rng.gen_range(-0.1..0.1)))
                .collect();
        }
        // First start near zero (a common heuristic); subsequent starts are uniform.
        (0..n).map(|_| rng.gen_range(-0.1..0.1)).collect()
    } else {
        (0..n).map(|_| rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI)).collect()
    }
}

/// The outcome of an instantiation.
#[derive(Debug, Clone)]
pub struct InstantiationResult {
    /// Best parameters found across all starts.
    pub params: Vec<f64>,
    /// Hilbert–Schmidt infidelity at the best parameters.
    pub infidelity: f64,
    /// Whether the success threshold was reached.
    pub success: bool,
    /// Number of starts actually executed (early termination may use fewer).
    pub starts_used: usize,
    /// Total LM iterations summed over all starts.
    pub total_iterations: usize,
    /// Kernel-dispatch/flop/cache counters accumulated by the run's evaluators —
    /// evaluator construction plus the deterministic prefix of completed starts, so
    /// parallel and serial runs of the same configuration report identical counts
    /// (at the same worker-pool size; construction counts scale with the pool).
    pub kernels: KernelCounters,
    /// LM trial and stop-reason counts over the same starts as `total_iterations`.
    pub lm: LmStats,
}

/// Records a finished instantiation into `trace` (no-op on a disabled handle).
fn record_instantiation(trace: &TraceRegistry, result: &InstantiationResult) {
    if !trace.enabled() {
        return;
    }
    trace.incr("instantiate.calls");
    trace.add("instantiate.starts", result.starts_used as u64);
    trace.add("lm.iterations", result.total_iterations as u64);
    result.lm.record_into(trace);
    if result.success {
        trace.incr("instantiate.successes");
    }
    result.kernels.record_into(trace);
}

/// Runs (multi-start) instantiation of `evaluator` against `target`, serially.
///
/// This is the trait-object entry point shared with the baseline engine. The
/// TNVM-backed [`instantiate_circuit`] runs its starts in parallel instead (through
/// [`instantiate_parallel`]); both explore exactly the same deterministic per-start
/// starting points.
pub fn instantiate(
    evaluator: &mut dyn GradientEvaluator,
    target: &Matrix<f64>,
    config: &InstantiateConfig,
) -> InstantiationResult {
    instantiate_until(evaluator, target, config, &never).expect("a run nobody abandons finishes")
}

/// [`instantiate`] that gives the whole run up, returning `None`, as soon as
/// `abandon` answers `true`. LM polls the probe once per iteration. An abandoned run
/// drains the kernel counters its unfinished start left in `evaluator`, so a caller
/// that reuses the evaluator attributes none of that work to its next run.
pub fn instantiate_until(
    evaluator: &mut dyn GradientEvaluator,
    target: &Matrix<f64>,
    config: &InstantiateConfig,
    abandon: &dyn Fn() -> bool,
) -> Option<InstantiationResult> {
    assert!(config.starts >= 1, "at least one start is required");
    let n = evaluator.num_params();
    let mut best: Option<(Vec<f64>, f64)> = None;
    let mut total_iterations = 0usize;
    let mut starts_used = 0usize;
    let mut lm = LmStats::default();
    // Whatever the evaluator accumulated before this run (construction, a preceding
    // `load_program`) is attributed to this run — it is the work done on its behalf.
    let mut kernels = evaluator.take_kernel_counters();

    for start_idx in 0..config.starts {
        starts_used += 1;
        let x0 = start_point(n, config, start_idx);
        let Some(result) = minimize_until(evaluator, target, &x0, &config.lm, abandon) else {
            evaluator.take_kernel_counters();
            return None;
        };
        total_iterations += result.iterations;
        lm.merge(&LmStats::of(&result));
        let params = result.params;
        // Only the unitary is needed: an evaluator that defers gradients skips it.
        let (unitary, _) = evaluator.evaluate_trial(&params);
        let infidelity = hs_infidelity(target, &unitary);
        kernels.merge(&evaluator.take_kernel_counters());
        let better = best.as_ref().map(|(_, b)| infidelity < *b).unwrap_or(true);
        if better {
            best = Some((params, infidelity));
        }
        if infidelity < config.success_threshold {
            break;
        }
    }

    let (params, infidelity) = best.expect("at least one start ran");
    let result = InstantiationResult {
        params,
        success: infidelity < config.success_threshold,
        infidelity,
        starts_used,
        total_iterations,
        kernels,
        lm,
    };
    record_instantiation(&config.trace, &result);
    Some(result)
}

/// One finished start of a parallel run.
struct CompletedStart {
    index: usize,
    params: Vec<f64>,
    infidelity: f64,
    iterations: usize,
    kernels: KernelCounters,
    lm: LmStats,
}

/// Runs multi-start instantiation with the starts distributed over scoped worker
/// threads. `make_evaluator` is called once per worker (inside the worker), so the
/// evaluator type needs neither `Send` nor `Sync`; per-start starting points are
/// derived deterministically from `(config.seed, start index)`.
///
/// Early termination is **schedule-independent**: when one or more starts reach the
/// success threshold, the result is computed over exactly the starts `0..=s`, where
/// `s` is the lowest-indexed successful start. Starts above `s` are neither issued
/// after `s` completes nor counted if thread timing let them finish first, so the
/// returned parameters, infidelity, and `starts_used` match what the serial
/// [`instantiate`] loop produces for the same configuration — regardless of the
/// worker-pool size or thread interleaving. A start running above the lowest
/// successful index found so far is abandoned at its next LM iteration: the cutoff
/// only decreases, so its result would be discarded anyway.
pub fn instantiate_parallel<E, F>(
    make_evaluator: F,
    target: &Matrix<f64>,
    config: &InstantiateConfig,
) -> InstantiationResult
where
    E: GradientEvaluator,
    F: Fn() -> E + Sync,
{
    instantiate_parallel_until(make_evaluator, target, config, &never)
        .expect("a run nobody abandons finishes")
}

/// [`instantiate_parallel`] that gives the whole run up, returning `None`, once
/// `abandon` answers `true`; every start polls it at each LM iteration.
pub fn instantiate_parallel_until<E, F>(
    make_evaluator: F,
    target: &Matrix<f64>,
    config: &InstantiateConfig,
    abandon: &(dyn Fn() -> bool + Sync),
) -> Option<InstantiationResult>
where
    E: GradientEvaluator,
    F: Fn() -> E + Sync,
{
    assert!(config.starts >= 1, "at least one start is required");
    let threads = config.effective_threads();
    if threads <= 1 || config.starts == 1 {
        let mut evaluator = make_evaluator();
        return instantiate_until(&mut evaluator, target, config, abandon);
    }

    let next_start = AtomicUsize::new(0);
    // Lowest start index that reached the success threshold so far. Issuance is
    // monotonic (fetch_add hands out 0, 1, 2, …) and this value only decreases, so
    // every start below the final minimum is guaranteed to have been evaluated.
    let min_success = AtomicUsize::new(usize::MAX);
    let completed: Mutex<Vec<CompletedStart>> = Mutex::new(Vec::new());
    // Construction work is captured per worker *before* any start is claimed: every
    // worker constructs exactly one evaluator, so the sum over all `threads` workers
    // is deterministic at a fixed pool size even though the set of completed starts
    // past the early-stop cutoff is not.
    let construction: Mutex<KernelCounters> = Mutex::new(KernelCounters::default());

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut evaluator = make_evaluator();
                construction
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .merge(&evaluator.take_kernel_counters());
                let n = evaluator.num_params();
                loop {
                    // detlint: allow(thread-accumulation) — work-stealing ticket only;
                    // results are re-sorted by index at the deterministic join
                    let start_idx = next_start.fetch_add(1, Ordering::Relaxed);
                    if start_idx >= config.starts || start_idx > min_success.load(Ordering::Relaxed)
                    {
                        break;
                    }
                    let x0 = start_point(n, config, start_idx);
                    // Past the cutoff so far, this start's result is already lost. Every
                    // later index is past it too, and this worker's evaluator (with the
                    // abandoned start's counters) is dropped with it.
                    let past_cutoff =
                        || start_idx > min_success.load(Ordering::Relaxed) || abandon();
                    let Some(result) =
                        minimize_until(&mut evaluator, target, &x0, &config.lm, &past_cutoff)
                    else {
                        break;
                    };
                    let (unitary, _) = evaluator.evaluate_trial(&result.params);
                    let infidelity = hs_infidelity(target, &unitary);
                    let kernels = evaluator.take_kernel_counters();
                    if infidelity < config.success_threshold {
                        // detlint: allow(thread-accumulation) — min is commutative and
                        // every index below the final value is still evaluated
                        min_success.fetch_min(start_idx, Ordering::Relaxed);
                    }
                    completed.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(
                        CompletedStart {
                            index: start_idx,
                            lm: LmStats::of(&result),
                            params: result.params,
                            infidelity,
                            iterations: result.iterations,
                            kernels,
                        },
                    );
                }
            });
        }
    });

    if abandon() {
        // Some start may have been given up below the cutoff.
        return None;
    }
    let mut runs = completed.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
    // Keep exactly the deterministic prefix: starts past the winning index may or may
    // not have completed depending on thread timing, so they must not influence the
    // result (neither its parameters nor its counters).
    let cutoff = min_success.load(Ordering::Relaxed);
    runs.retain(|r| r.index <= cutoff);
    // Deterministic tie-breaking: earlier start indices win among equal infidelities.
    runs.sort_by_key(|r| r.index);
    let starts_used = runs.len();
    let total_iterations = runs.iter().map(|r| r.iterations).sum();
    let mut kernels = construction.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut lm = LmStats::default();
    for r in &runs {
        kernels.merge(&r.kernels);
        lm.merge(&r.lm);
    }
    let best = runs
        .into_iter()
        .min_by(|a, b| a.infidelity.total_cmp(&b.infidelity))
        .expect("at least one start ran");
    let result = InstantiationResult {
        params: best.params,
        success: best.infidelity < config.success_threshold,
        infidelity: best.infidelity,
        starts_used,
        total_iterations,
        kernels,
        lm,
    };
    record_instantiation(&config.trace, &result);
    Some(result)
}

/// A [`GradientEvaluator`] backed by the TNVM — the "OpenQudit side" of the evaluation.
#[derive(Debug)]
pub struct TnvmEvaluator {
    vm: Tnvm<f64>,
    num_params: usize,
    dim: usize,
}

impl TnvmEvaluator {
    /// Compiles `circuit` ahead of time and initializes a gradient-mode TNVM using the
    /// given expression cache.
    pub fn new(circuit: &QuditCircuit, cache: &ExpressionCache) -> Self {
        let network = TensorNetwork::from_circuit(circuit);
        TnvmEvaluator::from_program(&compile_network(&network), cache)
    }

    /// Initializes a gradient-mode TNVM directly from already-compiled bytecode. The
    /// parallel multi-start driver uses this to share one AOT compilation across all
    /// worker threads.
    pub fn from_program(program: &TnvmProgram, cache: &ExpressionCache) -> Self {
        let vm = Tnvm::new(program, DiffMode::Gradient, cache);
        TnvmEvaluator { num_params: program.num_params, dim: program.dim(), vm }
    }

    /// Re-targets the evaluator at new bytecode in place, reusing the TNVM's arena
    /// allocations — the recompile-on-expansion path synthesis workers use when moving
    /// from one candidate circuit to the next.
    pub fn load_program(&mut self, program: &TnvmProgram, cache: &ExpressionCache) {
        self.vm.load(program, cache);
        self.num_params = program.num_params;
        self.dim = program.dim();
    }

    /// Bytes of numerical storage held by the underlying TNVM.
    pub fn memory_bytes(&self) -> usize {
        self.vm.memory_bytes()
    }
}

impl GradientEvaluator for TnvmEvaluator {
    fn num_params(&self) -> usize {
        self.num_params
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn evaluate(&mut self, params: &[f64]) -> (Matrix<f64>, Vec<Matrix<f64>>) {
        let result = self.vm.evaluate(params);
        (result.unitary, result.gradient)
    }

    /// The value sweep only; [`GradientEvaluator::deferred_jacobian`] runs the
    /// gradient sweep over the values it leaves in the VM.
    fn evaluate_trial(&mut self, params: &[f64]) -> (Matrix<f64>, Option<Vec<Matrix<f64>>>) {
        (self.vm.evaluate_unitary(params), None)
    }

    /// Copies the gradient sweep's output blocks straight from the VM's gradient
    /// arena into the columns ([`Tnvm::gradient_blocks`]); a parameter the output does
    /// not depend on gets a zero column.
    fn deferred_jacobian(&mut self, jacobian: &mut [f64]) {
        let m = residual_len(self.dim);
        assert_eq!(jacobian.len(), m * self.num_params, "one Jacobian column per parameter");
        for (block, column) in self.vm.gradient_blocks().zip(jacobian.chunks_exact_mut(m)) {
            match block {
                Some(block) => jacobian_column_into(block, column),
                None => column.fill(0.0),
            }
        }
    }

    fn take_kernel_counters(&mut self) -> qudit_tnvm::KernelCounters {
        self.vm.take_counters()
    }
}

/// Instantiates a circuit against a target unitary using the TNVM pipeline (AOT compile,
/// TNVM init, multi-start LM). The expression cache is shared state, so repeated calls
/// with the same gate set skip recompilation. Multi-start runs distribute their starts
/// over worker threads (see [`InstantiateConfig::effective_threads`]); the circuit is
/// AOT-compiled once and every worker instantiates its own TNVM from the shared
/// bytecode.
pub fn instantiate_circuit(
    circuit: &QuditCircuit,
    target: &Matrix<f64>,
    config: &InstantiateConfig,
    cache: &ExpressionCache,
) -> InstantiationResult {
    if config.effective_threads() <= 1 {
        let mut evaluator = TnvmEvaluator::new(circuit, cache);
        return instantiate(&mut evaluator, target, config);
    }
    let network = TensorNetwork::from_circuit(circuit);
    let program = compile_network(&network);
    warm_cache(&program, cache).record_into(&config.trace);
    instantiate_parallel(|| TnvmEvaluator::from_program(&program, cache), target, config)
}

/// Compiles every expression of `program` that `cache` lacks, serially, and counts
/// the lookups' hits and misses. Call it before workers build evaluators of one
/// program at once: `get_or_compile` compiles outside its lock, so a cold cache hit by
/// N workers at once would compile the same expression N times, and whether each of
/// their lookups hits would depend on timing. The serial lookups' outcomes are
/// deterministic (fixed expression list), so they can be counted directly.
pub fn warm_cache(program: &TnvmProgram, cache: &ExpressionCache) -> KernelCounters {
    let options = CompileOptions::with_gradient();
    let mut counters = KernelCounters::default();
    for expr in &program.exprs {
        let (_, hit) = cache.get_or_compile_traced(expr, &options);
        if hit {
            counters.cache_hits += 1;
        } else {
            counters.cache_misses += 1;
        }
    }
    counters
}

/// Projects a parent parameter vector onto a smaller (or re-indexed) circuit through a
/// subset mapping: `mapping[k]` is the parent index supplying the child's `k`-th
/// parameter. The mapping is exactly what [`qudit_circuit::QuditCircuit::delete_op`]
/// returns, so a gate-deletion pass can warm-start the shrunken circuit from the
/// surviving optimum.
///
/// # Panics
///
/// Panics if any mapping entry is out of range for `parent`.
pub fn warm_start_from_mapping(parent: &[f64], mapping: &[usize]) -> Vec<f64> {
    mapping
        .iter()
        .map(|&i| {
            assert!(
                i < parent.len(),
                "mapping entry {i} out of range for {} parent parameter(s)",
                parent.len()
            );
            parent[i]
        })
        .collect()
}

/// [`instantiate_circuit`] warm-started from a *parent* circuit's optimum through a
/// parameter subset mapping — the re-instantiation entry point of the post-synthesis
/// refinement pass. The first start begins at the projected parent parameters
/// (`mapping[k]` = parent index of child parameter `k`); the remaining starts explore
/// the usual deterministic random points, so a deletion that perturbs the optimum out
/// of the warm basin can still be recovered.
pub fn instantiate_circuit_mapped(
    circuit: &QuditCircuit,
    target: &Matrix<f64>,
    parent_params: &[f64],
    mapping: &[usize],
    config: &InstantiateConfig,
    cache: &ExpressionCache,
) -> InstantiationResult {
    let warm = warm_start_from_mapping(parent_params, mapping);
    let config = InstantiateConfig { warm_start: Some(warm), ..config.clone() };
    instantiate_circuit(circuit, target, &config, cache)
}

/// Samples a Haar-random unitary of the given dimension (Gaussian matrix followed by
/// Gram–Schmidt orthonormalization with phase fixing).
pub fn haar_random_unitary(dim: usize, seed: u64) -> Matrix<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gauss = || {
        // Box–Muller transform.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    };
    let mut columns: Vec<Vec<C64>> =
        (0..dim).map(|_| (0..dim).map(|_| C64::new(gauss(), gauss())).collect()).collect();
    // Modified Gram–Schmidt.
    for k in 0..dim {
        for j in 0..k {
            let proj: C64 =
                columns[j].iter().zip(columns[k].iter()).map(|(a, b)| a.conj() * *b).sum();
            let col_j = columns[j].clone();
            for (vk, vj) in columns[k].iter_mut().zip(col_j.iter()) {
                *vk -= *vj * proj;
            }
        }
        let norm: f64 = columns[k].iter().map(|c| c.norm_sqr()).sum::<f64>().sqrt();
        for v in columns[k].iter_mut() {
            *v = v.scale(1.0 / norm);
        }
    }
    Matrix::from_fn(dim, dim, |r, c| columns[c][r])
}

/// Builds the target for a "reachable" benchmark: the circuit's own unitary at random
/// parameters, guaranteeing that a perfect solution exists.
pub fn reachable_target(circuit: &QuditCircuit, seed: u64) -> Matrix<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let params: Vec<f64> = (0..circuit.num_params())
        .map(|_| rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI))
        .collect();
    circuit.unitary::<f64>(&params).expect("circuit evaluates at any parameter point")
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_circuit::builders;

    #[test]
    fn haar_random_unitaries_are_unitary_and_distinct() {
        for dim in [2usize, 4, 8, 9] {
            let u = haar_random_unitary(dim, 42);
            assert!(u.is_unitary(1e-10), "dim {dim}");
        }
        let a = haar_random_unitary(4, 1);
        let b = haar_random_unitary(4, 2);
        assert!(a.max_elementwise_distance(&b) > 1e-3);
    }

    #[test]
    fn single_start_instantiation_hits_reachable_target() {
        let circuit = builders::pqc_qubit_ladder(2, 1).unwrap();
        let target = reachable_target(&circuit, 7);
        let cache = ExpressionCache::new();
        let config = InstantiateConfig { starts: 4, seed: 3, ..Default::default() };
        let result = instantiate_circuit(&circuit, &target, &config, &cache);
        assert!(
            result.infidelity < 1e-6,
            "infidelity {} after {} starts",
            result.infidelity,
            result.starts_used
        );
    }

    #[test]
    fn multi_start_short_circuits_after_success() {
        let circuit = builders::pqc_qubit_ladder(2, 1).unwrap();
        let target = reachable_target(&circuit, 11);
        let cache = ExpressionCache::new();
        let config = InstantiateConfig::multi_start(5);
        let result = instantiate_circuit(&circuit, &target, &config, &cache);
        if result.success {
            assert!(result.starts_used <= 8);
        }
        assert!(result.total_iterations > 0);
    }

    #[test]
    fn cnot_target_is_reached_with_identity_locals() {
        // The ladder is (U3⊗U3)·CNOT·(U3⊗U3); setting every U3 to the identity makes the
        // circuit exactly a CNOT, so a CNOT target must instantiate to ~zero infidelity.
        let circuit = builders::pqc_qubit_ladder(2, 1).unwrap();
        let target = qudit_circuit::gates::cnot().to_matrix::<f64>(&[]).unwrap();
        let cache = ExpressionCache::new();
        let config = InstantiateConfig { starts: 4, seed: 9, ..Default::default() };
        let result = instantiate_circuit(&circuit, &target, &config, &cache);
        assert!(result.infidelity < 1e-6, "infidelity {}", result.infidelity);
    }

    #[test]
    fn unreachable_target_reports_failure_honestly() {
        // A circuit with a single parameterized RZ cannot match a Haar-random 2-qubit
        // unitary; instantiation must report failure rather than a bogus success.
        let mut circuit = qudit_circuit::QuditCircuit::qubits(2);
        let rz = circuit.cache_operation(qudit_circuit::gates::rz()).unwrap();
        circuit.append_ref(rz, vec![0]).unwrap();
        let target = haar_random_unitary(4, 123);
        let cache = ExpressionCache::new();
        let result = instantiate_circuit(&circuit, &target, &InstantiateConfig::default(), &cache);
        assert!(!result.success);
        assert!(result.infidelity > 1e-3);
    }

    #[test]
    fn non_finite_warm_start_is_never_a_success_and_ranks_last() {
        // A NaN first parameter makes the warm-started unitary NaN: that start scores
        // +∞, stops LM before any gradient, and loses to every finite start, in the
        // serial and the parallel driver alike.
        let circuit = builders::pqc_qubit_ladder(2, 1).unwrap();
        let target = reachable_target(&circuit, 7);
        let cache = ExpressionCache::new();
        let mut warm = vec![0.1; circuit.num_params()];
        warm[0] = f64::NAN;
        let alone = InstantiateConfig { warm_start: Some(warm.clone()), ..Default::default() };
        let result = instantiate_circuit(&circuit, &target, &alone, &cache);
        assert!(!result.success);
        assert_eq!(result.infidelity, f64::INFINITY);
        assert_eq!(result.lm.stops[crate::lm::LmStop::NonFinite as usize], 1);
        for threads in [1, 0] {
            let config = InstantiateConfig {
                starts: 3,
                seed: 3,
                threads,
                warm_start: Some(warm.clone()),
                ..Default::default()
            };
            let result = instantiate_circuit(&circuit, &target, &config, &cache);
            assert!(result.infidelity.is_finite(), "threads {threads}: {}", result.infidelity);
            assert!(result.params.iter().all(|p| p.is_finite()), "threads {threads}");
        }
    }

    /// The TNVM evaluator's deferred Jacobian (after a discarded trial, like a rejected
    /// LM step) against the columns of a fresh evaluator's eager gradient, bit for bit,
    /// on every radix mix through one re-targeted evaluator.
    #[test]
    fn deferred_jacobian_is_bit_identical_to_eager_columns() {
        let cache = ExpressionCache::new();
        let mut deferring: Option<TnvmEvaluator> = None;
        for radices in [vec![2, 2], vec![3, 3], vec![2, 3], vec![2, 4], vec![2, 3, 4]] {
            let edges: Vec<(usize, usize)> = (0..radices.len() - 1).map(|q| (q, q + 1)).collect();
            let circuit = builders::pqc_template(&radices, &edges).unwrap();
            let program = compile_network(&TensorNetwork::from_circuit(&circuit));
            let evaluator = match deferring.as_mut() {
                Some(evaluator) => {
                    evaluator.load_program(&program, &cache);
                    evaluator
                }
                None => deferring.insert(TnvmEvaluator::from_program(&program, &cache)),
            };
            let n = circuit.num_params();
            let params: Vec<f64> = (0..n).map(|k| (1.7 * k as f64 + 0.3).sin() * 3.0).collect();
            let other: Vec<f64> = params.iter().map(|p| p + 0.5).collect();
            let (_, eager) = TnvmEvaluator::from_program(&program, &cache).evaluate(&params);

            let m = residual_len(evaluator.dim());
            // NaN-filled, so an entry the evaluator skips cannot match.
            let mut jacobian = vec![f64::NAN; m * n];
            let _rejected = evaluator.evaluate_trial(&other);
            let (_, deferred) = evaluator.evaluate_trial(&params);
            assert!(deferred.is_none());
            evaluator.deferred_jacobian(&mut jacobian);
            let mut expected = vec![0.0; m];
            for (k, (g, column)) in eager.iter().zip(jacobian.chunks_exact(m)).enumerate() {
                jacobian_column_into(g.as_slice(), &mut expected);
                let bits = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(column), bits(&expected), "{radices:?} column {k}");
            }
        }
    }

    #[test]
    fn config_defaults() {
        let c = InstantiateConfig::default();
        assert_eq!(c.starts, 1);
        assert_eq!(c.threads, 0);
        assert!(c.warm_start.is_none());
        let m = InstantiateConfig::multi_start(0);
        assert_eq!(m.starts, 8);
        assert_eq!(m.success_threshold, SUCCESS_THRESHOLD);
        assert!(m.effective_threads() >= 1);
        assert!(m.effective_threads() <= 8);
        let serial = InstantiateConfig { threads: 1, ..Default::default() };
        assert_eq!(serial.effective_threads(), 1);
    }

    #[test]
    fn parallel_and_serial_explore_identical_start_points() {
        let config = InstantiateConfig { starts: 5, seed: 17, ..Default::default() };
        for idx in 0..5 {
            let a = start_point(7, &config, idx);
            let b = start_point(7, &config, idx);
            assert_eq!(a, b, "start {idx} must be schedule-independent");
            assert_eq!(a.len(), 7);
        }
        // Start 0 is near zero, later starts are uniform in (-π, π].
        assert!(start_point(7, &config, 0).iter().all(|v| v.abs() < 0.1));
        assert!(start_point(7, &config, 1).iter().any(|v| v.abs() > 0.1));
    }

    #[test]
    fn parallel_multi_start_matches_serial_quality() {
        let circuit = builders::pqc_qubit_ladder(3, 3).unwrap();
        let target = reachable_target(&circuit, 31);
        let cache = ExpressionCache::new();
        let parallel_cfg = InstantiateConfig { starts: 4, seed: 5, ..Default::default() };
        let result = instantiate_circuit(&circuit, &target, &parallel_cfg, &cache);
        assert!(result.infidelity < 1e-6, "parallel infidelity {}", result.infidelity);
        assert!(result.starts_used >= 1 && result.starts_used <= 4);
        assert!(result.total_iterations > 0);
    }

    #[test]
    fn parallel_early_stop_matches_serial_exactly() {
        // The schedule-independence guarantee: parallel multi-start with early
        // termination must return bit-identical parameters and infidelity to the
        // serial loop, because both compute over the starts 0..=first-success.
        let circuit = builders::pqc_qubit_ladder(2, 1).unwrap();
        let target = reachable_target(&circuit, 21);
        let cache = ExpressionCache::new();
        let parallel_cfg = InstantiateConfig { starts: 6, seed: 13, ..Default::default() };
        let serial_cfg = InstantiateConfig { threads: 1, ..parallel_cfg.clone() };
        let parallel = instantiate_circuit(&circuit, &target, &parallel_cfg, &cache);
        let serial = instantiate_circuit(&circuit, &target, &serial_cfg, &cache);
        assert_eq!(parallel.params, serial.params);
        assert_eq!(parallel.infidelity.to_bits(), serial.infidelity.to_bits());
        assert_eq!(parallel.starts_used, serial.starts_used);
        assert_eq!(parallel.total_iterations, serial.total_iterations);
        assert_eq!(parallel.lm, serial.lm);
        assert_eq!(parallel.lm.stops.iter().sum::<u64>(), parallel.starts_used as u64);
        // Evaluation counts come only from the retained start prefix (construction
        // performs no `evaluate`), so they agree across schedules too.
        assert_eq!(parallel.kernels.evaluations, serial.kernels.evaluations);
    }

    /// `RZ(θ)` whose reported gradient is a million times too steep, so every LM step
    /// is a millionth of the right one: a start away from `θ = 0` creeps toward it,
    /// lowering its cost at every iteration until the cap. Counts its evaluations.
    struct Creeper<'a> {
        evaluations: &'a AtomicUsize,
    }

    impl GradientEvaluator for Creeper<'_> {
        fn num_params(&self) -> usize {
            1
        }
        fn dim(&self) -> usize {
            2
        }
        fn evaluate(&mut self, params: &[f64]) -> (Matrix<f64>, Vec<Matrix<f64>>) {
            self.evaluations.fetch_add(1, Ordering::Relaxed);
            let half = params[0] / 2.0;
            let diagonal =
                |a: C64, b: C64| Matrix::from_rows(&[vec![a, C64::zero()], vec![C64::zero(), b]]);
            let unitary = diagonal(C64::cis(-half), C64::cis(half));
            let steep = C64::new(0.0, 0.5e6);
            (unitary, vec![diagonal(-steep * C64::cis(-half), steep * C64::cis(half))])
        }
    }

    #[test]
    fn parallel_starts_past_the_cutoff_are_abandoned() {
        // Start 0 is warm-started on the solution and succeeds at once; start 1 would
        // creep through all CAP iterations, each costing at least one evaluation.
        const CAP: usize = 1_000_000;
        let evaluations = AtomicUsize::new(0);
        let config = InstantiateConfig {
            starts: 2,
            threads: 2,
            warm_start: Some(vec![0.0]),
            lm: LmConfig { max_iterations: CAP, ..LmConfig::default() },
            ..Default::default()
        };
        let target = Matrix::<f64>::identity(2);
        let result =
            instantiate_parallel(|| Creeper { evaluations: &evaluations }, &target, &config);
        assert!(result.success && result.params == [0.0], "{result:?}");
        assert_eq!((result.starts_used, result.total_iterations), (1, 1));
        let evaluations = evaluations.load(Ordering::Relaxed);
        assert!(evaluations < CAP / 10, "start 1 ran on past the cutoff: {evaluations}");
    }

    #[test]
    fn instantiation_records_deterministic_trace_counters() {
        let circuit = builders::pqc_qubit_ladder(2, 1).unwrap();
        let target = reachable_target(&circuit, 7);
        let run = |seed| {
            let cache = ExpressionCache::new();
            let trace = TraceRegistry::new();
            let config =
                InstantiateConfig { starts: 4, seed, trace: trace.clone(), ..Default::default() };
            let result = instantiate_circuit(&circuit, &target, &config, &cache);
            (result, trace.counters_json())
        };
        let (r1, s1) = run(3);
        let (r2, s2) = run(3);
        assert_eq!(s1, s2, "same-seed counter snapshots must be byte-identical");
        assert!(s1.contains("\"instantiate.calls\": 1"), "snapshot: {s1}");
        assert!(s1.contains("lm.iterations"), "snapshot: {s1}");
        assert!(s1.contains("lm.trials.rejected"), "snapshot: {s1}");
        assert!(s1.contains("lm.stop."), "snapshot: {s1}");
        assert!(s1.contains("cache.misses"), "cold cache must report misses: {s1}");
        assert_eq!(r1.total_iterations, r2.total_iterations);
        assert!(r1.kernels.evaluations > 0, "evaluator work must be attributed");
        let (_, other_seed) = run(4);
        assert_ne!(s1, other_seed, "different seeds should do different work");
    }

    #[test]
    fn mapped_warm_start_projects_parent_parameters() {
        assert_eq!(warm_start_from_mapping(&[0.1, 0.2, 0.3, 0.4], &[0, 3]), vec![0.1, 0.4]);

        // Deleting a block from an optimized template and re-instantiating through
        // the deletion's parameter mapping recovers the target immediately: the
        // surviving parameters already solve it.
        let parent = builders::pqc_template(&[2, 2], &[(0, 1)]).unwrap();
        let target = reachable_target(&parent, 3);
        let cache = ExpressionCache::new();
        let parent_result = instantiate_circuit(
            &parent,
            &target,
            &InstantiateConfig { starts: 4, seed: 1, ..Default::default() },
            &cache,
        );
        assert!(parent_result.infidelity < 1e-8);

        // Pad the template with one extra block, warm-starting the padded circuit so
        // its extra block lands near identity, then delete it and re-instantiate.
        let mut padded = builders::pqc_template(&[2, 2], &[(0, 1), (0, 1)]).unwrap();
        let padded_result = instantiate_circuit_mapped(
            &padded,
            &target,
            &parent_result.params,
            &(0..parent.num_params()).collect::<Vec<_>>(),
            &InstantiateConfig { starts: 4, seed: 2, ..Default::default() },
            &cache,
        );
        assert!(padded_result.infidelity < 1e-8);
        let mapping = qudit_circuit::builders::delete_pqc_block(&mut padded, 1).unwrap();
        let restored = instantiate_circuit_mapped(
            &padded,
            &target,
            &padded_result.params,
            &mapping,
            &InstantiateConfig { starts: 4, seed: 3, ..Default::default() },
            &cache,
        );
        assert!(restored.infidelity < 1e-8, "restored infidelity {}", restored.infidelity);
    }

    #[test]
    fn warm_start_reuses_parent_parameters() {
        // Optimize the 1-layer template, extend it by one block, and warm-start the
        // extended instantiation from the parent's optimum. The extension appends its
        // gates' parameters at the tail, so the parent optimum is a meaningful prefix
        // of the child's parameter vector — a strong starting region for LM (though
        // not an exact embedding: the appended block contains a constant entangler).
        let parent = builders::pqc_template(&[2, 2], &[(0, 1)]).unwrap();
        let target = reachable_target(&parent, 3);
        let cache = ExpressionCache::new();
        let parent_result = instantiate_circuit(
            &parent,
            &target,
            &InstantiateConfig { starts: 4, seed: 1, ..Default::default() },
            &cache,
        );
        assert!(parent_result.infidelity < 1e-8);

        let child = builders::pqc_template(&[2, 2], &[(0, 1), (0, 1)]).unwrap();
        let warm_cfg = InstantiateConfig {
            starts: 4,
            warm_start: Some(parent_result.params.clone()),
            seed: 2,
            ..Default::default()
        };
        let child_result = instantiate_circuit(&child, &target, &warm_cfg, &cache);
        assert!(
            child_result.infidelity < 1e-8,
            "warm-started child infidelity {}",
            child_result.infidelity
        );
    }
}
