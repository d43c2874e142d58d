//! Numerical instantiation / synthesis example (the Fig. 6–7 workload): fit a QSearch
//! style ansatz to a target unitary with the TNVM-backed multi-start Levenberg–Marquardt
//! driver, compare against the BQSKit-style baseline engine — then hand the same
//! machinery to the compiler-pass pipeline (`Compiler`), which discovers the circuit
//! structure itself instead of being given an ansatz and reports per-pass timings.
//!
//! Run with `cargo run --release -p openqudit-examples --bin synthesis`.
//! Pass `--radices 2,3` (or any comma-separated radix list) to additionally run a
//! mixed-radix search through the pluggable gate-set registry — for `2,3` the target
//! is the embedded controlled-shift entangler itself.
//! Pass `--partition` to additionally compile a 4-qubit target through the
//! partitioned pipeline (the workload the plain search cannot practically reach).

use std::time::Instant;

use openqudit::circuit::builders;
use openqudit::prelude::*;

/// Parses an optional `--radices 2,3`-style flag from the command line.
fn radices_flag() -> Result<Option<Vec<usize>>, Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let Some(at) = args.iter().position(|a| a == "--radices") else {
        return Ok(None);
    };
    let value = args.get(at + 1).ok_or("--radices needs a value, e.g. `--radices 2,3`")?;
    let radices = value
        .split(',')
        .map(|r| r.trim().parse::<usize>())
        .collect::<Result<Vec<usize>, _>>()
        .map_err(|e| format!("invalid --radices value '{value}': {e}"))?;
    if radices.len() < 2 {
        return Err("--radices needs at least two qudits".into());
    }
    Ok(Some(radices))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The 3-qubit shallow ansatz of Fig. 5 and a target it can realize.
    let circuit = builders::pqc_qubit_ladder(3, 3)?;
    let target = reachable_target(&circuit, 2024);
    println!(
        "instantiating a 3-qubit ansatz with {} parameters against a {}x{} target",
        circuit.num_params(),
        target.rows(),
        target.cols()
    );

    let config = InstantiateConfig::multi_start(7);

    // OpenQudit path: AOT compile + TNVM + LM, with the expression cache shared state.
    let cache = ExpressionCache::new();
    let start = Instant::now();
    let result = instantiate_circuit(&circuit, &target, &config, &cache);
    let oq_time = start.elapsed();
    println!(
        "openqudit : infidelity {:.2e}, success {}, {} starts, {:.1} ms",
        result.infidelity,
        result.success,
        result.starts_used,
        oq_time.as_secs_f64() * 1e3
    );

    // Baseline path: same ansatz, same optimizer, hand-coded gates and full-width
    // matrix accumulation.
    let start = Instant::now();
    let mut baseline = BaselineEvaluator::from_qudit_circuit(&circuit)?;
    let bl_result = instantiate(&mut baseline, &target, &config);
    let bl_time = start.elapsed();
    println!(
        "baseline  : infidelity {:.2e}, success {}, {} starts, {:.1} ms",
        bl_result.infidelity,
        bl_result.success,
        bl_result.starts_used,
        bl_time.as_secs_f64() * 1e3
    );
    println!("speedup   : {:.1}x", bl_time.as_secs_f64() / oq_time.as_secs_f64());

    // Compile mode: the pass pipeline discovers the circuit structure itself. Give
    // the compiler a CNOT and a reachable two-qubit unitary; the synthesis pass grows
    // a template one entangling block at a time, instantiating every candidate on the
    // TNVM, and the refine/fold passes shrink and constant-fold the winner — with
    // each pass timed separately.
    println!("\n-- compile mode: the pass pipeline --");
    let compiler = Compiler::with_cache(ExpressionCache::new()).default_passes();
    for (name, target) in [
        ("cnot", openqudit::circuit::gates::cnot().to_matrix::<f64>(&[])?),
        (
            "2-qubit reachable",
            reachable_target(&builders::pqc_template(&[2, 2], &[(0, 1), (0, 1)])?, 99),
        ),
    ] {
        let task = CompilationTask::new(target, SynthesisConfig::qubits(2));
        let report = compiler.compile(task)?;
        let result = &report.result;
        println!(
            "{name:<18}: infidelity {:.2e}, {} block(s) {:?} ({} deleted, {} gate(s) \
             constified), {} nodes expanded | {}",
            result.infidelity,
            result.blocks.len(),
            result.blocks,
            result.blocks_deleted,
            result.gates_constified,
            result.nodes_expanded,
            pass_timings(&report),
        );
        assert!(report.result.success, "compile-mode demo should synthesize {name}");
    }

    // Mixed-radix search through the gate-set registry: `--radices 2,3` synthesizes
    // the embedded controlled-shift entangler on a qubit–qutrit pair (other radix
    // lists get a reachable random target on their linear-coupling template).
    if let Some(radices) = radices_flag()? {
        println!("\n-- mixed-radix search: radices {radices:?} --");
        let config = SynthesisConfig::with_radices(radices.clone());
        let target = if radices == [2, 3] {
            openqudit::circuit::gates::cshift23().to_matrix::<f64>(&[])?
        } else {
            let edges: Vec<(usize, usize)> = (0..radices.len() - 1).map(|q| (q, q + 1)).collect();
            reachable_target(&builders::pqc_template(&radices, &edges)?, 7)
        };
        let report = compiler.compile(CompilationTask::new(target, config))?;
        let result = &report.result;
        println!(
            "radices {radices:?}: infidelity {:.2e}, {} block(s) {:?}, {} nodes expanded | {}",
            result.infidelity,
            result.blocks.len(),
            result.blocks,
            result.nodes_expanded,
            pass_timings(&report),
        );
        assert!(result.success, "mixed-radix demo should synthesize its target");
    }

    // Partitioned compile: `--partition` splits a 4-qubit target along the
    // [0,1]|[2,3] coupling cut and sketches it partition-first, round by round, and
    // refine and fold polish the sketch — the plain search never sees the
    // exponentially wide 4-qubit candidate space.
    if std::env::args().any(|a| a == "--partition") {
        println!("\n-- partitioned compile: 4 qubits --");
        let round = [(0, 1), (2, 3), (1, 2)];
        let blocks: Vec<(usize, usize)> = round.iter().cycle().take(6).copied().collect();
        let target = reachable_target(&builders::pqc_template(&[2, 2, 2, 2], &blocks)?, 53);
        let partitioned = Compiler::with_cache(ExpressionCache::new()).partitioned_passes();
        let report =
            partitioned.compile(CompilationTask::with_radices(target, vec![2, 2, 2, 2]))?;
        let result = &report.result;
        let metric = |key: &str| report.metrics.get(key).copied().unwrap_or(0);
        println!(
            "4-qubit reachable : infidelity {:.2e}, {} block(s) over {} round(s), \
             {} group(s) | {}",
            result.infidelity,
            result.blocks.len(),
            metric("partition.rounds"),
            metric("partition.groups"),
            pass_timings(&report),
        );
        assert!(result.success, "partitioned demo should synthesize its target");
        assert!(metric("partition.rounds") >= 1, "the partition pass should have run");
    }
    Ok(())
}

/// Formats a report's per-pass wall-clock timings as `pass: ms` pairs.
fn pass_timings(report: &CompilationReport) -> String {
    report
        .timings
        .iter()
        .map(|t| format!("{}: {:.1} ms", t.pass, t.duration.as_secs_f64() * 1e3))
        .collect::<Vec<_>>()
        .join(", ")
}
