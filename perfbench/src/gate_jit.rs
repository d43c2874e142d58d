//! `gate_jit`: cold expression JIT. Each round parses the gate library, compiles
//! every gate with its gradient into a fresh `ExpressionCache`, and evaluates each
//! compiled gate once.

use std::time::Instant;

use openqudit::prelude::*;

use crate::oracle;
use crate::stats::{ms_since, Rng};
use crate::{Ctx, Op, Run};

/// Compiled output may differ from the QGL interpreter by at most this much.
const TOLERANCE: f64 = 1e-10;

/// Reference unitary and gradient of one gate at its seeded parameter point,
/// computed by the QGL tree interpreter.
struct Reference {
    params: Vec<f64>,
    unitary: Matrix<f64>,
    gradient: Vec<Matrix<f64>>,
}

/// The seeded parameter point of every library gate.
pub fn gate_params(seed: u64, gates: &[(&'static str, UnitaryExpression)]) -> Vec<Vec<f64>> {
    let mut rng = Rng::new(seed ^ 0x6a7e);
    gates.iter().map(|(_, g)| (0..g.num_params()).map(|_| rng.angle()).collect()).collect()
}

fn setup(seed: u64) -> Vec<Reference> {
    let gates = gates::all_gates();
    let references: Vec<Reference> = gate_params(seed, &gates)
        .into_iter()
        .zip(&gates)
        .map(|(params, (name, gate))| Reference {
            unitary: gate.to_matrix(&params).unwrap_or_else(|e| panic!("{name}: {e}")),
            gradient: gate.gradient_matrices(&params).unwrap_or_else(|e| panic!("{name}: {e}")),
            params,
        })
        .collect();
    // One untimed cold round, so code pages and allocator pools are warm.
    round(&references, None);
    references
}

/// Compiled unitary and gradient of one gate.
type Output = (Matrix<f64>, Vec<Matrix<f64>>);

/// One cold round: parse the library, then compile each gate with its gradient
/// into a fresh cache and evaluate it once.
fn round(references: &[Reference], ctx: Option<&Ctx>) -> Vec<Output> {
    let gates = {
        let _span = ctx.map(|c| c.span("qgl.all_gates"));
        gates::all_gates()
    };
    let cache = ExpressionCache::new();
    let options = CompileOptions::with_gradient();
    gates
        .iter()
        .zip(references)
        .map(|((name, gate), reference)| {
            let _span = ctx.map(|c| c.span(&format!("qvm.compile.{name}")));
            cache.get_or_compile(gate, &options).evaluate_with_gradient(&reference.params)
        })
        .collect()
}

fn check(reference: &Reference, (unitary, gradient): &Output) -> Result<(), String> {
    let mut worst = oracle::distance(unitary, &reference.unitary);
    for (g, r) in gradient.iter().zip(&reference.gradient) {
        worst = worst.max(oracle::distance(g, r));
    }
    if worst > TOLERANCE || gradient.len() != reference.gradient.len() {
        return Err(format!("compiled output is {worst:e} from the interpreter"));
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Run {
    let (references, setup_s) = ctx.repeat_setup(|| setup(ctx.seed));
    let names: Vec<&str> = gates::all_gates().iter().map(|(name, _)| *name).collect();
    let mut ops = Vec::new();
    let started = Instant::now();
    let deadline = ctx.deadline(started);
    for r in 0.. {
        let traced = ctx.traced_round(r);
        let span = traced.then(|| ctx.span("gate_jit.round"));
        let t0 = Instant::now();
        let outputs = round(&references, traced.then_some(ctx));
        let ms = ms_since(t0);
        drop(span);
        let checked = outputs.iter().zip(&references).zip(&names).try_for_each(
            |((output, reference), name)| {
                check(reference, output).map_err(|e| format!("{name}: {e}"))
            },
        );
        ops.push(Op {
            kind: 0,
            ms,
            traced,
            success: checked.is_ok(),
            error: checked.err().map(|e| format!("round {r}: {e}")),
        });
        if ctx.done(r, deadline) {
            break;
        }
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    Run::new(vec!["round".to_string()], ops, setup_s, elapsed_s)
        .named_op_metrics("gateset_jit_ms_p50", "gateset_rounds_per_s")
}
