//! Golden snapshot of the expression JIT.
//!
//! Every gate of the QGL library is compiled in both `DiffMode`s, and the `Debug` text
//! of each emitted register program is fingerprinted. The table below pins those
//! fingerprints, so any change to QGL differentiation, e-graph simplification
//! (saturation order, extraction tie-breaks) or register emission that alters a single
//! instruction, operand or constant bit fails here. Refactors of the JIT must keep the
//! table unchanged; a deliberate change to the emitted programs regenerates it from the
//! failure message.
//!
//! A guard beside the table checks that simplification pays: no program compiled by
//! default may cost more, under the Table-I weights, than the same program compiled
//! with `skip_simplification`.

use openqudit::egraph::cost::{
    COST_ADDITIVE, COST_CONST, COST_FREE, COST_MULTIPLICATIVE, COST_TRANSCENDENTAL, COST_TRIG,
};
use openqudit::prelude::*;
use openqudit::qvm::Instr;

/// 64-bit FNV-1a. Written out here because `DefaultHasher`'s output may change between
/// Rust releases, which would break a committed table.
fn fnv1a(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in text.as_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// `(gate, program, fingerprint)`: `none` is the unitary program compiled with
/// `DiffMode::None`; `unitary` and `gradient` are the two programs compiled with
/// `DiffMode::Gradient`.
const GOLDEN: &[(&str, &str, u64)] = &[
    ("U3", "none", 0xb28c31906809ecb2),
    ("U3", "unitary", 0xbb8be2560b22401f),
    ("U3", "gradient", 0x07953ab818c945ee),
    ("U2", "none", 0x76c93f0c1af28cd4),
    ("U2", "unitary", 0xe6c5b6bc019b4d48),
    ("U2", "gradient", 0x90e2020579848a26),
    ("U1", "none", 0xfb8f0eb23dfd2427),
    ("U1", "unitary", 0xfb8f0eb23dfd2427),
    ("U1", "gradient", 0x95190688e7655b69),
    ("RX", "none", 0x443a8d2ae30626cf),
    ("RX", "unitary", 0x443a8d2ae30626cf),
    ("RX", "gradient", 0xcd331c46deb387cd),
    ("RY", "none", 0x246017fa519fb7f0),
    ("RY", "unitary", 0x246017fa519fb7f0),
    ("RY", "gradient", 0xa71e68a735a8c919),
    ("RZ", "none", 0xa61a7d70b3379888),
    ("RZ", "unitary", 0xa61a7d70b3379888),
    ("RZ", "gradient", 0xc6aa8beec3a3d0fd),
    ("RZZ", "none", 0xa61a7d70b3379888),
    ("RZZ", "unitary", 0xa61a7d70b3379888),
    ("RZZ", "gradient", 0xc6aa8beec3a3d0fd),
    ("H", "none", 0x61e6ea6137038223),
    ("H", "unitary", 0x61e6ea6137038223),
    ("H", "gradient", 0x61e6ea6137038223),
    ("X", "none", 0xf41da97f11fd1f15),
    ("X", "unitary", 0xf41da97f11fd1f15),
    ("X", "gradient", 0xf41da97f11fd1f15),
    ("Y", "none", 0xa08fe6014004a4f1),
    ("Y", "unitary", 0xa08fe6014004a4f1),
    ("Y", "gradient", 0xa08fe6014004a4f1),
    ("Z", "none", 0x4ede8974f8f06ecd),
    ("Z", "unitary", 0x4ede8974f8f06ecd),
    ("Z", "gradient", 0x4ede8974f8f06ecd),
    ("CNOT", "none", 0xe76ecf86be3e4f19),
    ("CNOT", "unitary", 0xe76ecf86be3e4f19),
    ("CNOT", "gradient", 0xe76ecf86be3e4f19),
    ("CZ", "none", 0x4ede8974f8f06ecd),
    ("CZ", "unitary", 0x4ede8974f8f06ecd),
    ("CZ", "gradient", 0x4ede8974f8f06ecd),
    ("SWAP", "none", 0xe76ecf86be3e4f19),
    ("SWAP", "unitary", 0xe76ecf86be3e4f19),
    ("SWAP", "gradient", 0xe76ecf86be3e4f19),
    ("CP", "none", 0xfb8f0eb23dfd2427),
    ("CP", "unitary", 0xfb8f0eb23dfd2427),
    ("CP", "gradient", 0x95190688e7655b69),
    ("CSUM", "none", 0xe76ecf86be3e4f19),
    ("CSUM", "unitary", 0xe76ecf86be3e4f19),
    ("CSUM", "gradient", 0xe76ecf86be3e4f19),
    ("CSUM4", "none", 0xe76ecf86be3e4f19),
    ("CSUM4", "unitary", 0xe76ecf86be3e4f19),
    ("CSUM4", "gradient", 0xe76ecf86be3e4f19),
    ("CSHIFT23", "none", 0xe76ecf86be3e4f19),
    ("CSHIFT23", "unitary", 0xe76ecf86be3e4f19),
    ("CSHIFT23", "gradient", 0xe76ecf86be3e4f19),
    ("CSHIFT24", "none", 0xe76ecf86be3e4f19),
    ("CSHIFT24", "unitary", 0xe76ecf86be3e4f19),
    ("CSHIFT24", "gradient", 0xe76ecf86be3e4f19),
    ("CSHIFT34", "none", 0xe76ecf86be3e4f19),
    ("CSHIFT34", "unitary", 0xe76ecf86be3e4f19),
    ("CSHIFT34", "gradient", 0xe76ecf86be3e4f19),
    ("P3", "none", 0x28c1e2f30c0f9b21),
    ("P3", "unitary", 0x28c1e2f30c0f9b21),
    ("P3", "gradient", 0x962a6ffd952bb43c),
    ("QutritU", "none", 0x8cba411f986915c2),
    ("QutritU", "unitary", 0x8cba411f986915c2),
    ("QutritU", "gradient", 0xcfa4aa0ef4a14c70),
    ("QuquartU", "none", 0xc74bfca9f5204ac2),
    ("QuquartU", "unitary", 0x93c486a19a7798c8),
    ("QuquartU", "gradient", 0xc07048950d69d3eb),
];

/// The `none`, `unitary` and `gradient` programs of one gate.
fn programs(
    name: &str,
    gate: &UnitaryExpression,
    skip_simplification: bool,
) -> [(&'static str, Vec<Instr>); 3] {
    let options = |diff_mode| CompileOptions { diff_mode, skip_simplification };
    let plain = CompiledExpression::compile(gate, &options(DiffMode::None));
    assert!(plain.gradient_program().is_none(), "{name}: DiffMode::None emitted a gradient");
    let diff = CompiledExpression::compile(gate, &options(DiffMode::Gradient));
    let gradient = diff.gradient_program().expect("gradient mode emits a gradient program");
    [
        ("none", plain.unitary_program().instrs.clone()),
        ("unitary", diff.unitary_program().instrs.clone()),
        ("gradient", gradient.instrs.clone()),
    ]
}

fn fingerprints() -> Vec<(String, &'static str, u64)> {
    let mut out = Vec::new();
    for (name, gate) in gates::all_gates() {
        for (program, instrs) in programs(name, &gate, false) {
            out.push((name.to_string(), program, fnv1a(&format!("{instrs:?}"))));
        }
    }
    out
}

/// A program's cost: the Table-I weight of each instruction's operation, summed.
fn table_one_cost(instrs: &[Instr]) -> f64 {
    instrs
        .iter()
        .map(|instr| match instr {
            Instr::LoadParam { .. } => COST_FREE,
            Instr::LoadConst { .. } => COST_CONST,
            Instr::Neg { .. } | Instr::Add { .. } | Instr::Sub { .. } => COST_ADDITIVE,
            Instr::Mul { .. } | Instr::Div { .. } => COST_MULTIPLICATIVE,
            Instr::Sqrt { .. } | Instr::Sin { .. } | Instr::Cos { .. } => COST_TRIG,
            Instr::Exp { .. } | Instr::Ln { .. } | Instr::Pow { .. } => COST_TRANSCENDENTAL,
        })
        .sum()
}

#[test]
fn fnv1a_matches_reference_vectors() {
    assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a("foobar"), 0x8594_4171_f739_67e8);
}

#[test]
fn compiled_programs_match_golden_table() {
    let actual = fingerprints();
    let table: String = actual
        .iter()
        .map(|(gate, program, hash)| format!("    (\"{gate}\", \"{program}\", 0x{hash:016x}),\n"))
        .collect();
    let expected: Vec<(String, &str, u64)> =
        GOLDEN.iter().map(|&(gate, program, hash)| (gate.to_string(), program, hash)).collect();
    assert!(
        actual == expected,
        "compiled JIT programs differ from the golden table; the current table is:\n{table}"
    );
}

#[test]
fn simplification_never_makes_a_program_costlier() {
    let mut costlier = Vec::new();
    for (name, gate) in gates::all_gates() {
        let raw = programs(name, &gate, true);
        for ((program, simplified), (_, raw)) in programs(name, &gate, false).iter().zip(&raw) {
            let (cost, raw_cost) = (table_one_cost(simplified), table_one_cost(raw));
            if cost > raw_cost {
                costlier.push(format!("{name} {program}: {cost} > {raw_cost} unsimplified"));
            }
        }
    }
    assert!(costlier.is_empty(), "simplification made programs costlier:\n{}", costlier.join("\n"));
}
