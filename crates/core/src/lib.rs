//! # OpenQudit (reproduction)
//!
//! An extensible and accelerated numerical quantum compilation framework built around a
//! JIT-compiled domain-specific language, reproducing the system described in
//! *"OpenQudit: Extensible and Accelerated Numerical Quantum Compilation via a
//! JIT-Compiled DSL"* (CGO 2026).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`tensor`] | `qudit-tensor` | complex scalars, dense matrices/tensors, GEMM/Kron/permute kernels |
//! | [`qgl`] | `qudit-qgl` | the Qudit Gate Language: parser, symbolic IR, differentiation, transforms |
//! | [`egraph`] | `qudit-egraph` | e-graph equality saturation and CSE-aware greedy extraction |
//! | [`qvm`] | `qudit-qvm` | the expression compiler ("JIT") and the shared `ExpressionCache` |
//! | [`circuit`] | `qudit-circuit` | `QuditCircuit`, the QGL gate library, QFT/DTC/PQC builders |
//! | [`network`] | `qudit-network` | AOT tensor-network lowering, contraction paths, TNVM bytecode |
//! | [`tnvm`] | `qudit-tnvm` | the Tensor Network Virtual Machine with forward-mode AD |
//! | [`optimize`] | `qudit-optimize` | Hilbert–Schmidt cost, Levenberg–Marquardt, parallel multi-start instantiation |
//! | [`synth`] | `qudit-synth` | instantiation-driven bottom-up synthesis (QSearch-style A*/beam over layered templates) |
//! | [`compile`] | `qudit-compile` | the composable compiler-pass pipeline (`Compiler`/`Pass`/`PassContext`), incl. the partitioning front-end for wide targets |
//! | [`analyze`] | `qudit-analyze` | static analysis: the TNVM bytecode/plan verifier, circuit/gate-set validator, and the `detlint` determinism linter |
//! | [`trace`] | `qudit-trace` | observability: hierarchical spans, deterministic counters, Chrome `trace_event` export |
//! | [`serve`] | `qudit-serve` | compilation-as-a-service: a dependency-free HTTP server with dedup, deadlines, and panic isolation |
//! | [`baseline`] | `qudit-baseline` | a BQSKit-style baseline compiler used by the benchmarks |
//!
//! # Quickstart
//!
//! ```
//! use openqudit::prelude::*;
//!
//! // Define a gate in QGL (Listing 2 of the paper).
//! let rx = UnitaryExpression::new(
//!     "RX(theta) { [[cos(theta/2), ~i*sin(theta/2)], [~i*sin(theta/2), cos(theta/2)]] }",
//! )?;
//!
//! // Build a parameterized circuit, caching the expression once.
//! let mut circuit = QuditCircuit::qubits(2);
//! let rx_ref = circuit.cache_operation(rx)?;
//! let cx_ref = circuit.cache_operation(gates::cnot())?;
//! circuit.append_ref(rx_ref, vec![0])?;
//! circuit.append_ref_constant(cx_ref, vec![0, 1], vec![])?;
//! circuit.append_ref(rx_ref, vec![1])?;
//!
//! // Compile it ahead of time and evaluate it on the TNVM.
//! let network = TensorNetwork::from_circuit(&circuit);
//! let code = compile_network(&network);
//! let cache = ExpressionCache::new();
//! let mut vm: Tnvm<f64> = Tnvm::new(&code, DiffMode::Gradient, &cache);
//! let result = vm.evaluate(&[0.3, 1.2]);
//! assert!(result.unitary.is_unitary(1e-10));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use qudit_analyze as analyze;
pub use qudit_baseline as baseline;
pub use qudit_circuit as circuit;
pub use qudit_compile as compile;
pub use qudit_egraph as egraph;
pub use qudit_network as network;
pub use qudit_optimize as optimize;
pub use qudit_qgl as qgl;
pub use qudit_qvm as qvm;
pub use qudit_serve as serve;
pub use qudit_synth as synth;
pub use qudit_tensor as tensor;
pub use qudit_tnvm as tnvm;
pub use qudit_trace as trace;

/// The most commonly used types, re-exported for convenient glob import.
pub mod prelude {
    pub use qudit_analyze::{
        verify_circuit, verify_gateset, verify_program, AnalyzeError, VerifyLevel,
    };
    pub use qudit_baseline::{BaselineCircuit, BaselineEvaluator};
    pub use qudit_circuit::{builders, gates, CircuitError, ExpressionRef, GateSet, QuditCircuit};
    pub use qudit_compile::{
        CompilationReport, CompilationTask, CompileError, Compiler, FoldPass, PartitionPass, Pass,
        PassContext, PassTiming, RefinePass, SynthesisPass, VerifyPass,
    };
    pub use qudit_egraph::simplify::{simplify, simplify_batch};
    pub use qudit_network::{
        compile_network, find_plan, try_compile_network, BytecodeError, TensorNetwork, TnvmProgram,
    };
    pub use qudit_optimize::{
        haar_random_unitary, hs_infidelity, instantiate, instantiate_circuit,
        instantiate_circuit_mapped, reachable_target, warm_start_from_mapping, GradientEvaluator,
        InstantiateConfig, InstantiationResult, LmConfig, TnvmEvaluator,
    };
    pub use qudit_qgl::{ComplexExpr, Expr, QglError, UnitaryExpression};
    pub use qudit_qvm::{CompileOptions, CompiledExpression, DiffMode, ExpressionCache};
    pub use qudit_synth::{
        fold_constants, refine_deletions, run_search, CouplingGraph, FoldConfig, RefineConfig,
        SynthesisConfig, SynthesisError, SynthesisResult,
    };
    pub use qudit_tensor::{Complex, Matrix, Tensor, C64};
    pub use qudit_tnvm::{EvalResult, KernelCounters, Tnvm};
    pub use qudit_trace::{Span, SpanEvent, TraceRegistry};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_pipeline_smoke_test() {
        let circuit = builders::pqc_qubit_ladder(2, 1).unwrap();
        let target = reachable_target(&circuit, 1);
        let cache = ExpressionCache::new();
        let config = InstantiateConfig { starts: 2, ..Default::default() };
        let result = instantiate_circuit(&circuit, &target, &config, &cache);
        assert!(result.infidelity < 1e-4);
    }

    #[test]
    fn facade_synthesis_smoke_test() {
        let target = gates::cnot().to_matrix::<f64>(&[]).unwrap();
        let report = Compiler::with_cache(ExpressionCache::new())
            .default_passes()
            .compile(CompilationTask::new(target, SynthesisConfig::qubits(2)))
            .unwrap();
        assert!(report.result.success);
        assert_eq!(report.result.blocks, vec![(0, 1)]);
        assert_eq!(report.timings.len(), 3);
    }
}
