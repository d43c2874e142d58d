//! Regenerates the Sec. III-C observations: how much the e-graph pass (with the Table-I
//! cost model) reduces the count of distinct trigonometric operations in the benchmark
//! gates' unitary+gradient expression batches, and the U2 CSE example.
//!
//! Run with `cargo run --release -p qudit-bench --bin report_simplification`.

use openqudit::circuit::gates;
use openqudit::egraph::simplify::{simplify_batch_with, SimplifyConfig};
use openqudit::qgl::Expr;

fn batch_for(gate: &openqudit::qgl::UnitaryExpression) -> Vec<Expr> {
    let mut exprs = Vec::new();
    for row in gate.elements() {
        for el in row {
            exprs.push(el.re.clone());
            exprs.push(el.im.clone());
        }
    }
    for grad in gate.gradient() {
        for row in &grad {
            for el in row {
                exprs.push(el.re.clone());
                exprs.push(el.im.clone());
            }
        }
    }
    exprs
}

fn main() {
    println!("== Section III-C: e-graph simplification of gate + gradient expressions ==");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "gate", "trig before", "trig after", "nodes before", "nodes after", "iters"
    );
    for (name, gate) in [
        ("U3", gates::u3()),
        ("U2", gates::u2()),
        ("RX", gates::rx()),
        ("RZ", gates::rz()),
        ("RZZ", gates::rzz()),
        ("P3", gates::qutrit_phase()),
        ("QutritU", gates::qutrit_u()),
    ] {
        let batch = batch_for(&gate);
        let result = simplify_batch_with(&batch, &SimplifyConfig::default());
        println!(
            "{:<10} {:>12} {:>12} {:>12} {:>12} {:>10}",
            name,
            result.trig_before,
            result.trig_after,
            result.nodes_before,
            result.nodes_after,
            result.report.iterations
        );
    }

    // The U2 common-subexpression example from the paper.
    println!();
    println!("== U2 CSE example (paper Sec. III-C) ==");
    let (phi, lam) = (Expr::var("phi"), Expr::var("lam"));
    let roots = vec![
        Expr::cos(phi.clone()),
        Expr::sin(phi.clone()),
        Expr::cos(lam.clone()),
        Expr::sin(lam.clone()),
        Expr::cos(Expr::add(phi.clone(), lam.clone())),
        Expr::sin(Expr::add(phi, lam)),
    ];
    let result = simplify_batch_with(&roots, &SimplifyConfig::default());
    println!("distinct trig ops before: {}", result.trig_before);
    println!("distinct trig ops after : {} (e^(i(φ+λ)) reuses e^(iφ)·e^(iλ))", result.trig_after);
}
