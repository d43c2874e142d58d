//! The static cost model that optimization decisions weigh: [`estimate_plan`]
//! predicts, from a program alone, the kernel counters the TNVM will tally.
//!
//! The prediction uses the VM's own dispatch and flop formulas, so it is exact,
//! not approximate: the tests compare it with the runtime `tnvm.*` counters by
//! equality. A full evaluation ([`Tnvm::evaluate`](qudit_tnvm::Tnvm::evaluate))
//! is the value sweep followed by the gradient sweep; the value sweep makes one
//! kernel call per bilinear instruction and the gradient sweep one per surviving
//! product-rule term, and [`PlanCostEstimate::per_evaluation`] counts both.

use qudit_network::{BufId, TnvmOp, TnvmProgram};
use qudit_qvm::DiffMode;
use qudit_tnvm::counters::BilinearTally;
use qudit_tnvm::KernelCounters;

/// The static cost model's prediction for one program: the kernel
/// counters the VM will accumulate at initialization and per evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCostEstimate {
    /// Counters from executing the constant section once at construction.
    /// `cache_hits`/`cache_misses` are left at zero — cache outcomes depend on
    /// process history, not on the program.
    pub init: KernelCounters,
    /// Counters from one [`Tnvm::evaluate`](qudit_tnvm::Tnvm::evaluate) call (the
    /// dynamic section; `evaluations` is 1).
    pub per_evaluation: KernelCounters,
}

/// Kernel invocations one bilinear instruction makes: the value call plus one
/// product-rule call per surviving gradient term (a term survives when the
/// operand depends on the parameter) — the same counting as the VM's two sweeps.
fn bilinear_calls(program: &TnvmProgram, a: BufId, b: BufId, out: BufId, mode: DiffMode) -> u64 {
    let mut calls = 1u64;
    if mode == DiffMode::Gradient {
        for param in &program.buffers[out].params {
            if program.buffers[a].params.contains(param) {
                calls += 1;
            }
            if program.buffers[b].params.contains(param) {
                calls += 1;
            }
        }
    }
    calls
}

fn section_counters(program: &TnvmProgram, ops: &[TnvmOp], mode: DiffMode) -> KernelCounters {
    let mut counters = KernelCounters::default();
    for op in ops {
        match op {
            TnvmOp::Write { .. } => counters.writes += 1,
            TnvmOp::Transpose { .. } => counters.transposes += 1,
            TnvmOp::Matmul { a, b, out } => {
                let (m, k) = (program.buffers[*a].rows, program.buffers[*a].cols);
                let n = program.buffers[*b].cols;
                let calls = bilinear_calls(program, *a, *b, *out, mode);
                counters.tally(BilinearTally::Matmul, calls, 8 * (m * n * k) as u64);
            }
            TnvmOp::Kron { a, b, out } => {
                let calls = bilinear_calls(program, *a, *b, *out, mode);
                let flops = 6 * program.buffers[*out].len() as u64;
                counters.tally(BilinearTally::Kron, calls, flops);
            }
            TnvmOp::Hadamard { a, b, out } => {
                let calls = bilinear_calls(program, *a, *b, *out, mode);
                let flops = 6 * program.buffers[*out].len() as u64;
                counters.tally(BilinearTally::Hadamard, calls, flops);
            }
        }
    }
    counters
}

/// Predicts the [`KernelCounters`] a [`Tnvm`](qudit_tnvm::Tnvm) running `program`
/// in `mode` will accumulate, using the same dispatch and flop formulas as the VM's
/// tallying — the conformance suite cross-checks the prediction *exactly* against
/// the runtime `tnvm.*` counters.
pub fn estimate_plan(program: &TnvmProgram, mode: DiffMode) -> PlanCostEstimate {
    let init = section_counters(program, &program.constant_ops, mode);
    let mut per_evaluation = section_counters(program, &program.dynamic_ops, mode);
    per_evaluation.evaluations = 1;
    PlanCostEstimate { init, per_evaluation }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_circuit::builders;
    use qudit_network::{compile_network, TensorNetwork};
    use qudit_qvm::ExpressionCache;
    use qudit_tnvm::Tnvm;

    #[test]
    fn estimate_matches_runtime_counters_exactly() {
        let circuit = builders::pqc_template(&[2, 3], &[(0, 1)]).unwrap();
        let p = compile_network(&TensorNetwork::from_circuit(&circuit));
        let params: Vec<f64> = (0..p.num_params).map(|i| 0.3 * i as f64 - 1.1).collect();
        let cache = ExpressionCache::new();
        for mode in [DiffMode::None, DiffMode::Gradient] {
            let estimate = estimate_plan(&p, mode);
            let mut vm: Tnvm<f64> = Tnvm::new(&p, mode, &cache);
            let mut init = vm.take_counters();
            init.cache_hits = 0;
            init.cache_misses = 0;
            assert_eq!(init, estimate.init, "{mode:?} init");
            vm.evaluate(&params);
            assert_eq!(vm.take_counters(), estimate.per_evaluation, "{mode:?} eval");
        }
    }
}
