//! Interleaved static verification: [`verify_task`] and the
//! [`Compiler::verify`](crate::Compiler::verify) knob.
//!
//! When verification is enabled, the compiler re-checks the circuit-in-progress
//! after *every* pass — each pass's output is an untrusted artifact until the
//! `qudit-analyze` verifier accepts it. [`VerifyLevel::Program`] lowers the circuit
//! to TNVM bytecode and runs the full per-instruction typing discipline;
//! [`VerifyLevel::Full`] adds the circuit structural validator and gate-set
//! membership.
//!
//! The default level comes from `OPENQUDIT_VERIFY` ([`VerifyLevel::from_env`]):
//! off in release (the determinism-diffed benchmark artifacts and
//! `BENCH_synthesis.json` medians see zero verification cost), `full` in CI's test
//! runs.
//!
//! What was verified is recorded in the `analyze.*` counters
//! (`analyze.circuits_verified`, `analyze.programs_verified`,
//! `analyze.instructions_checked`). These are pure counts of checking work, so they
//! are deterministic and join the counter snapshots the determinism diffs compare.

use qudit_analyze::{verify_circuit, verify_gateset, verify_program, AnalyzeError, VerifyLevel};
use qudit_network::{try_compile_network, TensorNetwork};
use qudit_trace::TraceRegistry;

use crate::task::CompilationTask;

/// Verifies a task's circuit-in-progress at the given level, recording what was
/// checked into `trace`'s `analyze.*` counters.
///
/// A task with no result yet (nothing synthesized) verifies trivially — a gating
/// pass that runs before synthesis must not fail verification.
///
/// # Errors
///
/// Returns the first [`AnalyzeError`] violated, naming the offending instruction
/// or operation.
pub fn verify_task(
    task: &CompilationTask,
    level: VerifyLevel,
    trace: &TraceRegistry,
) -> Result<(), AnalyzeError> {
    if !level.is_enabled() {
        return Ok(());
    }
    let Some(result) = &task.result else {
        return Ok(());
    };
    let circuit = &result.circuit;
    if level == VerifyLevel::Full {
        verify_circuit(circuit)?;
        verify_gateset(circuit, &task.config.gate_set)?;
        trace.incr("analyze.circuits_verified");
    }
    let program = try_compile_network(&TensorNetwork::from_circuit(circuit))?;
    let report = verify_program(&program)?;
    trace.incr("analyze.programs_verified");
    trace.add("analyze.instructions_checked", report.instructions as u64);
    Ok(())
}
