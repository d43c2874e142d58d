//! The built-in passes wrapping the synthesis engine's stages: [`SynthesisPass`]
//! (A*/beam search), [`RefinePass`] (speculative gate deletion), and [`FoldPass`]
//! (symbolic constant snapping + gate constification).
//!
//! Each pass derives its settings deterministically from the task's
//! [`SynthesisConfig`](qudit_synth::SynthesisConfig), so the same task compiles to
//! the same bits at any thread count.

use qudit_analyze::VerifyLevel;
use qudit_synth::{fold_constants, refine_deletions, run_search};

use crate::error::CompileError;
use crate::pass::{Pass, PassContext};
use crate::task::CompilationTask;
use crate::verify::verify_task;

/// The bottom-up A*/beam search stage ([`qudit_synth::run_search`]).
///
/// Skips when an earlier pass — e.g. [`PartitionPass`](crate::PartitionPass) —
/// already produced a result, so the standard tail of a pipeline composes cleanly
/// behind width-dependent front-ends. A skipped search records no `search.*`
/// counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SynthesisPass;

impl Pass for SynthesisPass {
    fn name(&self) -> &str {
        "synthesis"
    }

    fn run(
        &self,
        task: &mut CompilationTask,
        ctx: &mut PassContext<'_>,
    ) -> Result<(), CompileError> {
        if task.result.is_none() {
            task.result = Some(run_search(&task.target, &task.config, ctx.cache())?);
        }
        Ok(())
    }
}

/// The speculative gate-deletion stage ([`qudit_synth::refine_deletions`]).
///
/// Runs only on successful results, with the configuration
/// [`SynthesisConfig::refine_config`] derives from the task. To keep the raw search
/// result, leave this pass out of the pipeline.
///
/// [`SynthesisConfig::refine_config`]: qudit_synth::SynthesisConfig::refine_config
#[derive(Debug, Clone, Copy, Default)]
pub struct RefinePass;

impl Pass for RefinePass {
    fn name(&self) -> &str {
        "refine"
    }

    fn run(
        &self,
        task: &mut CompilationTask,
        ctx: &mut PassContext<'_>,
    ) -> Result<(), CompileError> {
        let Some(result) = task.result.as_ref() else {
            return Err(CompileError::Pass {
                pass: self.name().to_string(),
                detail: "no synthesized result to refine; order a synthesis pass first".to_string(),
            });
        };
        if !result.success {
            return Ok(());
        }
        let refined =
            refine_deletions(result, &task.target, &task.config.refine_config(), ctx.cache())?;
        task.result = Some(refined);
        Ok(())
    }
}

/// The symbolic constant-folding stage ([`qudit_synth::fold_constants`]): snaps
/// parameters that landed on symbolic constants (0, ±π/2, ±π, ±2π), verifies the
/// substituted expressions e-graph-fold consistently, and **constifies** gates whose
/// parameters all snapped — rewriting them as constant gate applications so the JIT
/// compiles cheaper, constant-folded expressions. Runs only on successful results,
/// with the configuration [`SynthesisConfig::fold_config`] derives from the task.
/// Counts what it changed as `fold.params_folded` / `fold.gates_constified`.
///
/// [`SynthesisConfig::fold_config`]: qudit_synth::SynthesisConfig::fold_config
#[derive(Debug, Clone, Copy, Default)]
pub struct FoldPass;

impl Pass for FoldPass {
    fn name(&self) -> &str {
        "fold"
    }

    fn run(
        &self,
        task: &mut CompilationTask,
        ctx: &mut PassContext<'_>,
    ) -> Result<(), CompileError> {
        let Some(result) = task.result.as_ref() else {
            return Err(CompileError::Pass {
                pass: self.name().to_string(),
                detail: "no synthesized result to fold; order a synthesis pass first".to_string(),
            });
        };
        if !result.success {
            return Ok(());
        }
        let (prior_folded, prior_constified) = (result.params_folded, result.gates_constified);
        let folded = fold_constants(result, &task.target, &task.config.fold_config(), ctx.cache())?;
        // `fold_constants` takes no instantiate config, so the fold stage's counters
        // are recorded here from the result deltas (this pass runs at most once per
        // pipeline, but a custom pipeline may fold repeatedly — hence deltas).
        let delta_folded = folded.params_folded.saturating_sub(prior_folded);
        let delta_constified = folded.gates_constified.saturating_sub(prior_constified);
        if delta_folded > 0 {
            ctx.trace().add("fold.params_folded", delta_folded as u64);
        }
        if delta_constified > 0 {
            ctx.trace().add("fold.gates_constified", delta_constified as u64);
        }
        task.result = Some(folded);
        Ok(())
    }
}

/// The static-verification stage: re-checks the circuit-in-progress with the
/// `qudit-analyze` verifier (see [`verify_task`]).
///
/// Usually verification is enabled for the *whole* pipeline with the
/// [`Compiler::verify`](crate::Compiler::verify) knob, which re-checks after every
/// pass without adding timing entries. This explicit pass exists for custom
/// pipelines that want verification at one specific point — e.g. once, after a
/// trusted tail — or at a different level than the interleaved knob. A task with
/// no result yet verifies trivially.
#[derive(Debug, Clone, Copy)]
pub struct VerifyPass {
    level: VerifyLevel,
}

impl VerifyPass {
    /// A verify pass at an explicit level ([`VerifyLevel::Off`] makes it a no-op).
    pub fn new(level: VerifyLevel) -> Self {
        VerifyPass { level }
    }

    /// The level this pass verifies at.
    pub fn level(&self) -> VerifyLevel {
        self.level
    }
}

impl Default for VerifyPass {
    /// Defaults to [`VerifyLevel::Full`]: adding the pass explicitly is the opt-in,
    /// unlike the environment-driven interleaved knob.
    fn default() -> Self {
        VerifyPass { level: VerifyLevel::Full }
    }
}

impl Pass for VerifyPass {
    fn name(&self) -> &str {
        "verify"
    }

    fn run(
        &self,
        task: &mut CompilationTask,
        ctx: &mut PassContext<'_>,
    ) -> Result<(), CompileError> {
        verify_task(task, self.level, ctx.trace())
            .map_err(|violation| CompileError::Verify { after: self.name().to_string(), violation })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::Compiler;
    use qudit_circuit::{builders, gates, OpParams};
    use qudit_optimize::InstantiateConfig;
    use qudit_qvm::ExpressionCache;
    use qudit_synth::{SynthesisConfig, SynthesisResult};

    #[test]
    fn refine_and_fold_demand_a_prior_result() {
        let target = gates::cnot().to_matrix::<f64>(&[]).unwrap();
        for compiler in [
            Compiler::with_cache(ExpressionCache::new()).add_pass(RefinePass),
            Compiler::with_cache(ExpressionCache::new()).add_pass(FoldPass),
        ] {
            let task = CompilationTask::new(target.clone(), SynthesisConfig::qubits(2));
            match compiler.compile(task) {
                Err(CompileError::Pass { detail, .. }) => {
                    assert!(detail.contains("synthesis pass first"), "{detail}")
                }
                other => panic!("expected a pipeline-order error, got {other:?}"),
            }
        }
    }

    #[test]
    fn fold_pass_constifies_fully_snapped_gates() {
        // A hand-built optimum exactly on symbolic constants, perturbed by 1e-9: the
        // fold snaps every parameter, so constification must rewrite every
        // parameterized gate as a constant application and empty the parameter vector.
        let cache = ExpressionCache::new();
        let circuit = builders::pqc_template(&[2, 2], &[(0, 1)]).unwrap();
        let exact: Vec<f64> = (0..circuit.num_params())
            .map(|k| match k % 3 {
                0 => 0.0,
                1 => std::f64::consts::PI,
                _ => std::f64::consts::FRAC_PI_2,
            })
            .collect();
        let target = circuit.unitary::<f64>(&exact).unwrap();
        let perturbed: Vec<f64> =
            exact.iter().enumerate().map(|(k, &v)| v + 1e-9 * (k as f64 + 1.0)).collect();
        let result = SynthesisResult {
            blocks: vec![(0, 1)],
            params: perturbed,
            infidelity: 1e-12,
            success: true,
            nodes_expanded: 0,
            blocks_deleted: 0,
            refined_infidelity: None,
            params_folded: 0,
            gates_constified: 0,
            circuit,
        };
        let mut config = SynthesisConfig::qubits(2);
        config.instantiate = InstantiateConfig { starts: 2, ..Default::default() };
        let mut task = CompilationTask::new(target.clone(), config);
        task.result = Some(result);
        let report = Compiler::with_cache(cache).add_pass(FoldPass).compile(task).unwrap();
        let folded = &report.result;
        assert_eq!(folded.params_folded, 12);
        // The four U3 gates constify; the parameterless CNOT stays as-is.
        assert_eq!(folded.gates_constified, 4);
        assert_eq!(report.metrics["fold.gates_constified"], 4);
        assert_eq!(folded.params.len(), 0);
        assert_eq!(folded.circuit.num_params(), 0);
        assert!(folded.infidelity < 1e-10);
        let constants = folded
            .circuit
            .ops()
            .iter()
            .filter(|op| matches!(op.params, OpParams::Constant(_)))
            .count();
        assert_eq!(constants, 4);
        // The constified circuit still evaluates to the target through the reference
        // evaluator (an independent path from the TNVM that vetted the rewrite).
        let unitary = folded.circuit.unitary::<f64>(&[]).unwrap();
        assert!(
            qudit_optimize::hs_infidelity(&target, &unitary) < 1e-10,
            "constified circuit diverged from the target"
        );
    }
}
