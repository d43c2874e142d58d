//! The [`Compiler`]: an ordered pipeline of [`Pass`]es sharing one expression cache.

use std::collections::BTreeMap;
use std::time::Instant;

use qudit_analyze::VerifyLevel;
use qudit_qvm::ExpressionCache;
use qudit_synth::SynthesisResult;
use qudit_trace::TraceRegistry;

use crate::cancel::CancelToken;
use crate::error::CompileError;
use crate::partition::PartitionPass;
use crate::pass::{Pass, PassContext, PassTiming};
use crate::passes::{FoldPass, RefinePass, SynthesisPass};
use crate::task::CompilationTask;
use crate::verify::verify_task;

/// The outcome of one [`Compiler::compile`] run: the final circuit, per-pass
/// wall-clock timings, and what the passes recorded into the compilation's trace
/// registry.
#[derive(Debug, Clone)]
pub struct CompilationReport {
    /// The compiled circuit with its instantiated parameters and quality metrics.
    pub result: SynthesisResult,
    /// Wall-clock time of every pass, in pipeline order.
    pub timings: Vec<PassTiming>,
    /// Final snapshot of the compilation's deterministic counters, keyed
    /// `"<namespace>.<metric>"` (same seed, same machine-independent counts — see
    /// `qudit-trace` for the determinism contract).
    pub metrics: BTreeMap<String, u64>,
    /// The observability registry the compilation recorded into: counters (the
    /// `metrics` snapshot above) and hierarchical spans exportable as a Chrome
    /// `trace_event` profile via [`TraceRegistry::chrome_trace_json`].
    pub trace: TraceRegistry,
}

/// An ordered, composable compilation pipeline.
///
/// The compiler owns the [`ExpressionCache`] its passes compile through (by default
/// the process-wide [`qudit_qvm::global_cache`], so independent compilations amortize
/// JIT work) and an optional worker-thread budget, and executes its passes in order
/// over a [`CompilationTask`]. Each pass's wall-clock time and counters are collected
/// into a [`CompilationReport`].
///
/// ```
/// use qudit_circuit::gates;
/// use qudit_compile::{CompilationTask, Compiler};
/// use qudit_qvm::ExpressionCache;
///
/// let target = gates::cnot().to_matrix::<f64>(&[])?;
/// let compiler = Compiler::with_cache(ExpressionCache::new()).default_passes();
/// let report = compiler.compile(CompilationTask::with_radices(target, vec![2, 2]))?;
/// assert!(report.result.success);
/// assert_eq!(report.timings.len(), 3); // synthesis, refine, fold
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Compiler {
    cache: ExpressionCache,
    threads: usize,
    verify: VerifyLevel,
    passes: Vec<Box<dyn Pass>>,
}

impl Default for Compiler {
    fn default() -> Self {
        Compiler::new()
    }
}

impl Compiler {
    /// An empty pipeline over the process-wide shared cache
    /// ([`qudit_qvm::global_cache`]). Add passes with [`Compiler::add_pass`] or the
    /// [`Compiler::default_passes`] / [`Compiler::partitioned_passes`] shorthands.
    pub fn new() -> Self {
        Compiler::with_cache(qudit_qvm::global_cache())
    }

    /// An empty pipeline over an explicit cache (cloning an [`ExpressionCache`]
    /// shares its storage, so several compilers can deliberately share one).
    ///
    /// The interleaved verification level defaults to the `OPENQUDIT_VERIFY`
    /// environment variable ([`VerifyLevel::from_env`]): off unless set, so release
    /// binaries pay nothing while CI exports `full` — override per compiler with
    /// [`Compiler::verify`].
    pub fn with_cache(cache: ExpressionCache) -> Self {
        Compiler { cache, threads: 0, verify: VerifyLevel::from_env(), passes: Vec::new() }
    }

    /// The standard pipeline — `SynthesisPass → RefinePass → FoldPass` — over the
    /// process-wide cache. It is the one place search, refine and fold are composed;
    /// for the raw search result, build a pipeline of `SynthesisPass` alone. The
    /// integration tests pin its result at a fixed seed.
    pub fn default_pipeline() -> Self {
        Compiler::new().default_passes()
    }

    /// The width-aware pipeline — `PartitionPass → SynthesisPass → RefinePass →
    /// FoldPass` — over the process-wide cache. Targets wider than the partition
    /// threshold are split along a coupling cut and compiled partition-first; narrow
    /// targets fall through to the standard pipeline unchanged.
    pub fn partitioned_pipeline() -> Self {
        Compiler::new().partitioned_passes()
    }

    /// Appends the standard `SynthesisPass → RefinePass → FoldPass` sequence.
    #[must_use]
    pub fn default_passes(self) -> Self {
        self.add_pass(SynthesisPass).add_pass(RefinePass).add_pass(FoldPass)
    }

    /// Appends `PartitionPass` followed by the standard sequence.
    #[must_use]
    pub fn partitioned_passes(self) -> Self {
        self.add_pass(PartitionPass).default_passes()
    }

    /// Appends a pass to the pipeline (builder style).
    #[must_use]
    pub fn add_pass(mut self, pass: impl Pass + 'static) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Overrides the worker-thread budget of every pass (`0`, the default, lets each
    /// stage resolve the machine's available parallelism). Applied by writing
    /// `task.config.instantiate.threads` before the first pass runs.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the interleaved static-verification level. At any enabled level the
    /// compiler re-runs the `qudit-analyze` verifier over the circuit-in-progress
    /// after every pass (see [`crate::verify::verify_task`]), failing the
    /// compilation with [`CompileError::Verify`] — naming the pass and the offending
    /// instruction — on the first rejected artifact. Verification adds no
    /// [`PassTiming`] entries; what it checked lands in the `analyze.*` counters.
    #[must_use]
    pub fn verify(mut self, level: VerifyLevel) -> Self {
        self.verify = level;
        self
    }

    /// The interleaved static-verification level compilations run under.
    pub fn verify_level(&self) -> VerifyLevel {
        self.verify
    }

    /// The compiler's shared expression cache.
    pub fn cache(&self) -> &ExpressionCache {
        &self.cache
    }

    /// The pipeline's pass names, in execution order.
    pub fn pass_names(&self) -> Vec<&str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs every pass in order over `task` and returns the report.
    ///
    /// # Errors
    ///
    /// Propagates the first pass failure, and returns [`CompileError::NoResult`] when
    /// the pipeline finishes without any pass having produced a circuit.
    pub fn compile(&self, task: CompilationTask) -> Result<CompilationReport, CompileError> {
        self.compile_with_cancel(task, &CancelToken::none())
    }

    /// [`Compiler::compile`] under a cooperative [`CancelToken`].
    ///
    /// The token is checked at every pass boundary (before the first pass and after
    /// each one), and handed to each pass through
    /// [`PassContext::cancel`](crate::PassContext::cancel) so long passes can poll
    /// it at their own internal checkpoints. Cancellation is deliberate and typed:
    /// the compilation stops with [`CompileError::Cancelled`] naming the checkpoint
    /// that observed it — this is how a serving front-end bounds a request's
    /// latency without killing the worker running it.
    ///
    /// # Errors
    ///
    /// Everything [`Compiler::compile`] returns, plus [`CompileError::Cancelled`]
    /// once `cancel` reports cancellation or an expired deadline.
    pub fn compile_with_cancel(
        &self,
        task: CompilationTask,
        cancel: &CancelToken,
    ) -> Result<CompilationReport, CompileError> {
        let mut task = task;
        if self.threads != 0 {
            task.config.instantiate.threads = self.threads;
        }
        // Install a fresh observability registry everywhere the pipeline can reach:
        // the instantiate config (search, frontier, refine and the partition rounds
        // derive from it) and each PassContext, so the report's counters describe
        // exactly this compilation. (`TraceRegistry::default()` is the *disabled*
        // handle — it must be an enabled `new()` so every compile records a
        // snapshot.)
        let trace = TraceRegistry::new();
        task.config.instantiate.trace = trace.clone();
        let mut timings = Vec::with_capacity(self.passes.len());
        // The boundary checkpoints: cancellation observed before any pass reports
        // "start"; between passes it reports the last completed pass.
        let mut last_checkpoint = "start".to_string();
        for pass in &self.passes {
            cancel.check().map_err(|reason| CompileError::Cancelled {
                after: last_checkpoint.clone(),
                reason,
            })?;
            let mut ctx =
                PassContext::new(&self.cache).with_trace(trace.clone()).with_cancel(cancel.clone());
            // detlint: allow(wall-clock) — pass timings land only in the report's
            // timing block, which the determinism diff scrubs via the omit-timing gate
            let started = Instant::now();
            let span = trace.span(pass.name());
            pass.run(&mut task, &mut ctx)?;
            drop(span);
            timings.push(PassTiming { pass: pass.name().to_string(), duration: started.elapsed() });
            // Interleaved verification: every pass output is untrusted until the
            // static verifier accepts it. Deliberately outside the timed region and
            // without a timings entry, so enabling it never shifts pass timings.
            if self.verify.is_enabled() {
                let vspan = trace.span("verify");
                let verdict = verify_task(&task, self.verify, &trace);
                drop(vspan);
                verdict.map_err(|violation| CompileError::Verify {
                    after: pass.name().to_string(),
                    violation,
                })?;
            }
            last_checkpoint = pass.name().to_string();
        }
        let result = task.result.ok_or(CompileError::NoResult)?;
        let metrics = trace.counters();
        Ok(CompilationReport { result, timings, metrics, trace })
    }
}

impl std::fmt::Debug for Compiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Compiler")
            .field("threads", &self.threads)
            .field("verify", &self.verify)
            .field("passes", &self.pass_names())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_circuit::gates;
    use qudit_synth::SynthesisConfig;

    #[test]
    fn empty_pipeline_reports_no_result() {
        let target = gates::cnot().to_matrix::<f64>(&[]).unwrap();
        let task = CompilationTask::new(target, SynthesisConfig::qubits(2));
        let err = Compiler::with_cache(ExpressionCache::new()).compile(task).unwrap_err();
        assert_eq!(err, CompileError::NoResult);
    }

    #[test]
    fn default_pipeline_compiles_a_cnot_with_timings_and_metrics() {
        let target = gates::cnot().to_matrix::<f64>(&[]).unwrap();
        let compiler = Compiler::with_cache(ExpressionCache::new()).default_passes();
        assert_eq!(compiler.pass_names(), vec!["synthesis", "refine", "fold"]);
        let report =
            compiler.compile(CompilationTask::new(target, SynthesisConfig::qubits(2))).unwrap();
        assert!(report.result.success, "infidelity {}", report.result.infidelity);
        assert_eq!(report.result.blocks, vec![(0, 1)]);
        assert_eq!(report.timings.len(), 3);
        assert!(report.metrics["search.nodes_expanded"] >= 2);
        assert!(report.metrics.contains_key("refine.attempts"), "{:?}", report.metrics);
    }

    #[test]
    fn reports_carry_a_deterministic_metrics_snapshot() {
        let target = gates::cnot().to_matrix::<f64>(&[]).unwrap();
        let run = || {
            Compiler::with_cache(ExpressionCache::new())
                .default_passes()
                .compile(CompilationTask::new(target.clone(), SynthesisConfig::qubits(2)))
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert!(a.metrics.get("search.nodes_expanded").copied().unwrap_or(0) >= 2);
        assert!(a.metrics.contains_key("lm.iterations"));
        assert!(a.metrics.contains_key("instantiate.calls"));
        assert!(a.metrics.contains_key("cache.misses"), "{:?}", a.metrics);
        assert!(a.metrics.keys().any(|k| k.starts_with("tnvm.dispatch.")), "{:?}", a.metrics);
        // Same seed, fresh caches: the counter snapshot is byte-identical.
        assert_eq!(a.trace.counters_json(), b.trace.counters_json());
        // Spans cover every pass, and the export is non-empty valid-looking JSON.
        let names: Vec<String> = a.trace.span_events().iter().map(|s| s.name.clone()).collect();
        for pass in ["synthesis", "refine", "fold"] {
            assert!(names.iter().any(|n| n == pass), "missing span {pass} in {names:?}");
        }
        let chrome = a.trace.chrome_trace_json();
        assert!(chrome.starts_with('[') && chrome.ends_with(']'));
        assert!(chrome.contains("\"ph\": \"X\""));
    }

    #[test]
    fn pre_cancelled_token_aborts_at_the_start_checkpoint() {
        let target = gates::cnot().to_matrix::<f64>(&[]).unwrap();
        let task = CompilationTask::new(target, SynthesisConfig::qubits(2));
        let token = CancelToken::new();
        token.cancel();
        let err = Compiler::with_cache(ExpressionCache::new())
            .default_passes()
            .compile_with_cancel(task, &token)
            .unwrap_err();
        assert_eq!(
            err,
            CompileError::Cancelled {
                after: "start".to_string(),
                reason: crate::cancel::CancelReason::Cancelled
            }
        );
    }

    #[test]
    fn expired_deadline_aborts_between_passes_naming_the_last_pass() {
        // A pass that cancels the token mid-pipeline: the boundary check before the
        // *next* pass observes it and names the last completed pass as checkpoint.
        struct CancelAfterMe;
        impl crate::Pass for CancelAfterMe {
            fn name(&self) -> &str {
                "cancel-after-me"
            }
            fn run(
                &self,
                _task: &mut CompilationTask,
                ctx: &mut crate::PassContext<'_>,
            ) -> Result<(), CompileError> {
                ctx.cancel().cancel();
                Ok(())
            }
        }
        let target = gates::cnot().to_matrix::<f64>(&[]).unwrap();
        let task = CompilationTask::new(target, SynthesisConfig::qubits(2));
        let token = CancelToken::new();
        let err = Compiler::with_cache(ExpressionCache::new())
            .add_pass(CancelAfterMe)
            .add_pass(crate::SynthesisPass)
            .compile_with_cancel(task, &token)
            .unwrap_err();
        assert_eq!(
            err,
            CompileError::Cancelled {
                after: "cancel-after-me".to_string(),
                reason: crate::cancel::CancelReason::Cancelled
            }
        );
    }

    #[test]
    fn zero_budget_deadline_reports_deadline_exceeded() {
        let target = gates::cnot().to_matrix::<f64>(&[]).unwrap();
        let task = CompilationTask::new(target, SynthesisConfig::qubits(2));
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        let err = Compiler::with_cache(ExpressionCache::new())
            .default_passes()
            .compile_with_cancel(task, &token)
            .unwrap_err();
        assert_eq!(
            err,
            CompileError::Cancelled {
                after: "start".to_string(),
                reason: crate::cancel::CancelReason::DeadlineExceeded
            }
        );
    }

    #[test]
    fn thread_override_reaches_the_task_config() {
        // A threads(1) compiler forces the serial path; the result must still be
        // byte-identical to the parallel default (the determinism guarantee).
        let target = gates::cnot().to_matrix::<f64>(&[]).unwrap();
        let cache = ExpressionCache::new();
        let parallel = Compiler::with_cache(cache.clone())
            .default_passes()
            .compile(CompilationTask::new(target.clone(), SynthesisConfig::qubits(2)))
            .unwrap();
        let serial = Compiler::with_cache(cache)
            .threads(1)
            .default_passes()
            .compile(CompilationTask::new(target, SynthesisConfig::qubits(2)))
            .unwrap();
        assert_eq!(parallel.result.blocks, serial.result.blocks);
        assert_eq!(parallel.result.infidelity.to_bits(), serial.result.infidelity.to_bits());
        let a: Vec<u64> = parallel.result.params.iter().map(|p| p.to_bits()).collect();
        let b: Vec<u64> = serial.result.params.iter().map(|p| p.to_bits()).collect();
        assert_eq!(a, b);
    }
}
