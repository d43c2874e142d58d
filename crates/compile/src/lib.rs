//! # qudit-compile
//!
//! The composable compiler-pass pipeline of the OpenQudit reproduction: a [`Compiler`]
//! executes an ordered sequence of [`Pass`]es over a [`CompilationTask`], sharing one
//! process-wide [`ExpressionCache`](qudit_qvm::ExpressionCache) so every stage — and
//! every *compilation* — amortizes JIT work. This is the architecture BQSKit-style
//! compilers are built on, and the extensibility seam the paper's DSL feeds: passes
//! communicate through the task's circuit-in-progress, so user-defined stages compose
//! with the built-in ones. Each pass reports what it did as counters on the
//! compilation's trace registry ([`PassContext::trace`]), which the
//! [`CompilationReport`] returns as `metrics`; a pass that does not apply records
//! none.
//!
//! ## Built-in passes
//!
//! | Pass | Stage |
//! |---|---|
//! | [`PartitionPass`] | splits a wide target along a coupling cut and sketches it partition-first, escalating round by round |
//! | [`SynthesisPass`] | the bottom-up A*/beam search ([`qudit_synth::run_search`]) |
//! | [`RefinePass`] | speculative gate deletion ([`qudit_synth::refine_deletions`]) |
//! | [`FoldPass`] | symbolic constant snapping + gate constification ([`qudit_synth::fold_constants`]) |
//!
//! [`Compiler::default_pipeline`] is `synthesis → refine → fold`, the only place
//! those stages are composed; [`Compiler::partitioned_pipeline`] puts
//! [`PartitionPass`] in front, opening >3-qudit targets while passing narrow ones
//! through unchanged. A pipeline of [`SynthesisPass`] alone returns the raw search
//! result.
//!
//! ## Writing a custom pass
//!
//! A pass is any `Send + Sync` type implementing [`Pass`]. It can gate the pipeline,
//! transform the circuit-in-progress, or record counters:
//!
//! ```
//! use qudit_circuit::gates;
//! use qudit_compile::{
//!     CompilationTask, CompileError, Compiler, Pass, PassContext, SynthesisPass,
//! };
//! use qudit_qvm::ExpressionCache;
//! use qudit_synth::SynthesisConfig;
//!
//! /// Counts the target's dimension and rejects non-square targets before any
//! /// expensive stage runs.
//! struct TargetAudit;
//!
//! impl Pass for TargetAudit {
//!     fn name(&self) -> &str {
//!         "target-audit"
//!     }
//!
//!     fn run(
//!         &self,
//!         task: &mut CompilationTask,
//!         ctx: &mut PassContext<'_>,
//!     ) -> Result<(), CompileError> {
//!         if task.target.rows() != task.target.cols() {
//!             return Err(CompileError::Pass {
//!                 pass: self.name().to_string(),
//!                 detail: "target must be square".to_string(),
//!             });
//!         }
//!         ctx.trace().add("audit.dim", task.target.rows() as u64);
//!         Ok(())
//!     }
//! }
//!
//! let target = gates::cnot().to_matrix::<f64>(&[])?;
//! let compiler = Compiler::with_cache(ExpressionCache::new())
//!     .add_pass(TargetAudit)
//!     .add_pass(SynthesisPass);
//! let report = compiler.compile(CompilationTask::new(target, SynthesisConfig::qubits(2)))?;
//! assert!(report.result.success);
//! assert_eq!(report.metrics["audit.dim"], 4);
//! assert_eq!(report.timings.len(), 2); // target-audit, synthesis
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Determinism
//!
//! Every built-in pass derives its seeds from the task's
//! [`SynthesisConfig`](qudit_synth::SynthesisConfig) and the structure it operates on
//! (block sequences, partition layouts) — never from scheduling — so two `compile`
//! calls with the same task produce byte-identical results at any thread count, and
//! the CI determinism diff runs partitioned workloads through this pipeline.

pub mod cancel;
pub mod compiler;
pub mod error;
pub mod partition;
pub mod pass;
pub mod passes;
pub mod task;
pub mod verify;

pub use cancel::{CancelReason, CancelToken};
pub use compiler::{CompilationReport, Compiler};
pub use error::CompileError;
pub use partition::PartitionPass;
pub use pass::{Pass, PassContext, PassTiming};
pub use passes::{FoldPass, RefinePass, SynthesisPass, VerifyPass};
pub use qudit_analyze::VerifyLevel;
pub use task::CompilationTask;
pub use verify::verify_task;
