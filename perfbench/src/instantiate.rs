//! `instantiate`: multi-start instantiation of seeded reachable targets on five
//! ansatz ladders (the task of the paper's Figs. 6 and 7).

use std::time::Instant;

use openqudit::network::{compile_network, TensorNetwork};
use openqudit::prelude::*;

use crate::oracle;
use crate::stats::{mix, ms_since};
use crate::{Ctx, Op, Run};

/// Targets drawn per ladder; the timed loop cycles through them.
const TARGETS_PER_LADDER: usize = 48;

/// The five ladders: `(name, circuit)`.
pub fn ladders() -> Vec<(&'static str, QuditCircuit)> {
    let qubit = |n, layers| builders::pqc_qubit_ladder(n, layers).expect("valid ladder");
    let qutrit = |n, layers| builders::pqc_qutrit_ladder(n, layers).expect("valid ladder");
    vec![
        ("3q_shallow", qubit(3, 3)),
        ("3q_deep", qubit(3, 8)),
        ("3qt_shallow", qutrit(3, 3)),
        ("4q_6l", qubit(4, 6)),
        ("4q_12l", qubit(4, 12)),
    ]
}

/// The `k`-th seeded target of ladder `ladder`: the ladder's own unitary at random
/// parameters, so an exact solution exists.
pub fn target(circuit: &QuditCircuit, seed: u64, ladder: usize, k: usize) -> Matrix<f64> {
    reachable_target(circuit, mix(seed, 1 + ladder as u64, k as u64))
}

/// Compiles every expression a circuit's TNVM program needs into `cache`.
pub fn warm_cache(circuit: &QuditCircuit, cache: &ExpressionCache) {
    let program = compile_network(&TensorNetwork::from_circuit(circuit));
    for expr in &program.exprs {
        cache.get_or_compile(expr, &CompileOptions::with_gradient());
        cache.get_or_compile(expr, &CompileOptions::default());
    }
}

struct State {
    ladders: Vec<(&'static str, QuditCircuit)>,
    targets: Vec<Vec<Matrix<f64>>>,
    cache: ExpressionCache,
}

fn setup(seed: u64) -> State {
    let ladders = ladders();
    let cache = ExpressionCache::new();
    let targets = ladders
        .iter()
        .enumerate()
        .map(|(l, (_, circuit))| {
            warm_cache(circuit, &cache);
            (0..TARGETS_PER_LADDER).map(|k| target(circuit, seed, l, k)).collect()
        })
        .collect();
    State { ladders, targets, cache }
}

pub fn run(ctx: &Ctx) -> Run {
    let (state, setup_s) = ctx.repeat_setup(|| setup(ctx.seed));
    let kinds = state.ladders.iter().map(|(name, _)| name.to_string()).collect();
    let mut ops = Vec::new();
    let started = Instant::now();
    let deadline = ctx.deadline(started);
    for round in 0.. {
        let traced = ctx.traced_round(round);
        for (l, (name, circuit)) in state.ladders.iter().enumerate() {
            let target = &state.targets[l][round % TARGETS_PER_LADDER];
            let config =
                InstantiateConfig::multi_start(mix(ctx.seed, 100 + l as u64, round as u64));
            let span = traced.then(|| ctx.span(&format!("instantiate.{name}")));
            let t0 = Instant::now();
            let result = instantiate_circuit(circuit, target, &config, &state.cache);
            let ms = ms_since(t0);
            drop(span);
            let checked = oracle::check_result(circuit, &result.params, target, result.infidelity);
            ops.push(Op {
                kind: l,
                ms,
                traced,
                success: matches!(checked, Ok(inf) if inf < oracle::SUCCESS),
                error: checked.err().map(|e| format!("{name} round {round}: {e}")),
            });
        }
        // Whole rounds only, so throughput is measured at the stated ladder mix.
        if ctx.done(round, deadline) {
            break;
        }
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    Run::new(kinds, ops, setup_s, elapsed_s)
        .named_op_metrics("instantiate_ms_geomean", "instantiate_per_s")
}
