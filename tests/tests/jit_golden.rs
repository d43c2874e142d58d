//! Golden snapshot of the expression JIT.
//!
//! Every gate of the QGL library is compiled in both `DiffMode`s, and the `Debug` text
//! of each emitted register program is fingerprinted. The table below pins those
//! fingerprints, so any change to QGL differentiation, e-graph simplification
//! (saturation order, extraction tie-breaks) or register emission that alters a single
//! instruction, operand or constant bit fails here. Refactors of the JIT must keep the
//! table unchanged; a deliberate change to the emitted programs regenerates it from the
//! failure message.

use openqudit::prelude::*;

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
    ("U3", "none", 0x2a2d2c7f6747d541),
    ("U3", "unitary", 0x100ae024ec4c896b),
    ("U3", "gradient", 0x61b5233349f414ae),
    ("U2", "none", 0x72aadc561a0457df),
    ("U2", "unitary", 0xdf79a79c3aca2cde),
    ("U2", "gradient", 0x94c5fedc89e2752f),
    ("U1", "none", 0xfb8f0eb23dfd2427),
    ("U1", "unitary", 0xfb8f0eb23dfd2427),
    ("U1", "gradient", 0x95190688e7655b69),
    ("RX", "none", 0x7899f22c7526e39f),
    ("RX", "unitary", 0x7899f22c7526e39f),
    ("RX", "gradient", 0xa22a4ff60e760c5d),
    ("RY", "none", 0xf4815fa0d4c8bd05),
    ("RY", "unitary", 0xf4815fa0d4c8bd05),
    ("RY", "gradient", 0xed6ee08c2c61e4ad),
    ("RZ", "none", 0xa61a7d70b3379888),
    ("RZ", "unitary", 0xa61a7d70b3379888),
    ("RZ", "gradient", 0x04dac275d8dddded),
    ("RZZ", "none", 0xa61a7d70b3379888),
    ("RZZ", "unitary", 0xa61a7d70b3379888),
    ("RZZ", "gradient", 0x04dac275d8dddded),
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
    ("QutritU", "none", 0x7fa9e0abb551c882),
    ("QutritU", "unitary", 0x083cbf85b00331b8),
    ("QutritU", "gradient", 0x43fbf13300a3e9b0),
    ("QuquartU", "none", 0xac13fabaee80317e),
    ("QuquartU", "unitary", 0x7a53413212b33644),
    ("QuquartU", "gradient", 0x3032df496d434366),
];

fn fingerprints() -> Vec<(String, &'static str, u64)> {
    let mut out = Vec::new();
    for (name, gate) in gates::all_gates() {
        let plain = CompiledExpression::compile(&gate, &CompileOptions::default());
        assert!(plain.gradient_program().is_none(), "{name}: DiffMode::None emitted a gradient");
        out.push((
            name.to_string(),
            "none",
            fnv1a(&format!("{:?}", plain.unitary_program().instrs)),
        ));

        let diff = CompiledExpression::compile(&gate, &CompileOptions::with_gradient());
        let gradient = diff.gradient_program().expect("gradient mode emits a gradient program");
        out.push((
            name.to_string(),
            "unitary",
            fnv1a(&format!("{:?}", diff.unitary_program().instrs)),
        ));
        out.push((name.to_string(), "gradient", fnv1a(&format!("{:?}", gradient.instrs))));
    }
    out
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
