//! A library of standard qubit and qutrit gates defined in QGL.
//!
//! Every gate here is a plain [`UnitaryExpression`] built from its on-paper definition —
//! exactly how a domain expert would extend the compiler (Listing 2 of the paper). The
//! benchmark circuits (QFT, DTC, and the QSearch-style PQC ladders of Fig. 5) are
//! assembled from these.
//!
//! Each gate is parsed once per process; every call returns a clone, which shares the
//! parsed gate's [`qudit_qgl::ExprKey`].

use std::sync::OnceLock;

use qudit_qgl::UnitaryExpression;

/// A clone of the gate defined by `$source`, parsed on the first call at each use site.
macro_rules! must {
    ($source:expr $(,)?) => {{
        static GATE: OnceLock<UnitaryExpression> = OnceLock::new();
        GATE.get_or_init(|| parse($source)).clone()
    }};
}

fn parse(source: &str) -> UnitaryExpression {
    UnitaryExpression::new(source).unwrap_or_else(|e| panic!("builtin gate failed to parse: {e}"))
}

/// The parameterized single-qubit U3 gate (3 parameters), able to express any
/// single-qubit unitary.
pub fn u3() -> UnitaryExpression {
    must!(
        "U3(theta, phi, lambda) {
            [
                [ cos(theta/2), ~ e^(i*lambda) * sin(theta/2) ],
                [ e^(i*phi) * sin(theta/2), e^(i*(phi+lambda)) * cos(theta/2) ],
            ]
        }",
    )
}

/// The U2 gate (2 parameters): a U3 with θ fixed at π/2.
pub fn u2() -> UnitaryExpression {
    must!(
        "U2(phi, lambda) {
            [
                [ 1/sqrt(2), ~ e^(i*lambda) / sqrt(2) ],
                [ e^(i*phi) / sqrt(2), e^(i*(phi+lambda)) / sqrt(2) ],
            ]
        }",
    )
}

/// The U1 (phase) gate.
pub fn u1() -> UnitaryExpression {
    must!("U1(lambda) { [[1, 0], [0, e^(i*lambda)]] }")
}

/// X-axis rotation.
pub fn rx() -> UnitaryExpression {
    must!(
        "RX(theta) {
            [[cos(theta/2), ~i*sin(theta/2)], [~i*sin(theta/2), cos(theta/2)]]
        }",
    )
}

/// Y-axis rotation.
pub fn ry() -> UnitaryExpression {
    must!(
        "RY(theta) {
            [[cos(theta/2), ~sin(theta/2)], [sin(theta/2), cos(theta/2)]]
        }",
    )
}

/// Z-axis rotation.
pub fn rz() -> UnitaryExpression {
    must!("RZ(theta) { [[e^(~i*theta/2), 0], [0, e^(i*theta/2)]] }")
}

/// Two-qubit ZZ interaction (the DTC benchmark's entangling gate, Listing 4).
pub fn rzz() -> UnitaryExpression {
    must!(
        "RZZ(theta) {
            [[e^(~i*theta/2), 0, 0, 0],
             [0, e^(i*theta/2), 0, 0],
             [0, 0, e^(i*theta/2), 0],
             [0, 0, 0, e^(~i*theta/2)]]
        }",
    )
}

/// Hadamard gate.
pub fn hadamard() -> UnitaryExpression {
    must!(
        "H() {
            [[1/sqrt(2), 1/sqrt(2)], [1/sqrt(2), ~1/sqrt(2)]]
        }",
    )
}

/// Pauli-X gate.
pub fn x() -> UnitaryExpression {
    must!("X() { [[0, 1], [1, 0]] }")
}

/// Pauli-Y gate.
pub fn y() -> UnitaryExpression {
    must!("Y() { [[0, ~i], [i, 0]] }")
}

/// Pauli-Z gate.
pub fn z() -> UnitaryExpression {
    must!("Z() { [[1, 0], [0, ~1]] }")
}

/// Controlled-NOT gate (control on the first qubit).
pub fn cnot() -> UnitaryExpression {
    must!("CNOT() { [[1,0,0,0],[0,1,0,0],[0,0,0,1],[0,0,1,0]] }")
}

/// Controlled-Z gate.
pub fn cz() -> UnitaryExpression {
    must!("CZ() { [[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,~1]] }")
}

/// SWAP gate.
pub fn swap() -> UnitaryExpression {
    must!("SWAP() { [[1,0,0,0],[0,0,1,0],[0,1,0,0],[0,0,0,1]] }")
}

/// Controlled phase gate (1 parameter) — the entangling gate of the QFT circuit.
pub fn cphase() -> UnitaryExpression {
    must!("CP(theta) { [[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,e^(i*theta)]] }")
}

/// The two-qutrit CSUM gate: |a, b⟩ → |a, (a+b) mod 3⟩ — the entangling gate of the
/// qutrit PQC benchmarks (Fig. 5).
pub fn csum() -> UnitaryExpression {
    must!(
        "CSUM<3, 3>() {
            [[1,0,0, 0,0,0, 0,0,0],
             [0,1,0, 0,0,0, 0,0,0],
             [0,0,1, 0,0,0, 0,0,0],
             [0,0,0, 0,0,1, 0,0,0],
             [0,0,0, 1,0,0, 0,0,0],
             [0,0,0, 0,1,0, 0,0,0],
             [0,0,0, 0,0,0, 0,1,0],
             [0,0,0, 0,0,0, 0,0,1],
             [0,0,0, 0,0,0, 1,0,0]]
        }",
    )
}

/// The embedded controlled-shift gate on a qubit–qutrit pair: |a, b⟩ → |a, (a+b) mod 3⟩
/// with the qubit as control. This is the CSUM gate restricted to a two-level control —
/// the mixed-radix entangler the default synthesis gate set registers for (2, 3) edges,
/// defined (like every other gate here) as a plain QGL unitary expression.
pub fn cshift23() -> UnitaryExpression {
    must!(
        "CSHIFT23<2, 3>() {
            [[1,0,0, 0,0,0],
             [0,1,0, 0,0,0],
             [0,0,1, 0,0,0],
             [0,0,0, 0,0,1],
             [0,0,0, 1,0,0],
             [0,0,0, 0,1,0]]
        }",
    )
}

/// The embedded controlled-shift gate on a qubit–ququart pair: |a, b⟩ → |a, (a+b) mod 4⟩
/// with the qubit as control — [`csum4`] restricted to a two-level control, following
/// the same recipe as [`cshift23`]. This is the mixed-radix entangler the default
/// synthesis gate set registers for (2, 4) edges.
pub fn cshift24() -> UnitaryExpression {
    must!(
        "CSHIFT24<2, 4>() {
            [[1,0,0,0, 0,0,0,0],
             [0,1,0,0, 0,0,0,0],
             [0,0,1,0, 0,0,0,0],
             [0,0,0,1, 0,0,0,0],
             [0,0,0,0, 0,0,0,1],
             [0,0,0,0, 1,0,0,0],
             [0,0,0,0, 0,1,0,0],
             [0,0,0,0, 0,0,1,0]]
        }",
    )
}

/// The embedded controlled-shift gate on a qutrit–ququart pair: |a, b⟩ → |a, (a+b) mod 4⟩
/// with the qutrit as control (control levels 0/1/2 shift the ququart by 0/1/2). The
/// mixed-radix entangler the default synthesis gate set registers for (3, 4) edges,
/// built with the same embedded-controlled-shift recipe as [`cshift23`].
pub fn cshift34() -> UnitaryExpression {
    must!(
        "CSHIFT34<3, 4>() {
            [[1,0,0,0, 0,0,0,0, 0,0,0,0],
             [0,1,0,0, 0,0,0,0, 0,0,0,0],
             [0,0,1,0, 0,0,0,0, 0,0,0,0],
             [0,0,0,1, 0,0,0,0, 0,0,0,0],
             [0,0,0,0, 0,0,0,1, 0,0,0,0],
             [0,0,0,0, 1,0,0,0, 0,0,0,0],
             [0,0,0,0, 0,1,0,0, 0,0,0,0],
             [0,0,0,0, 0,0,1,0, 0,0,0,0],
             [0,0,0,0, 0,0,0,0, 0,0,1,0],
             [0,0,0,0, 0,0,0,0, 0,0,0,1],
             [0,0,0,0, 0,0,0,0, 1,0,0,0],
             [0,0,0,0, 0,0,0,0, 0,1,0,0]]
        }",
    )
}

/// The two-ququart CSUM gate: |a, b⟩ → |a, (a+b) mod 4⟩ — the radix-4 analogue of the
/// qutrit [`csum`], and the entangler the default synthesis gate set registers for
/// `(4, 4)` pairs. Like every other built-in it is a plain QGL unitary expression: the
/// registry entry is all it takes to make ququart pairs synthesizable.
pub fn csum4() -> UnitaryExpression {
    must!(
        "CSUM4<4, 4>() {
            [[1,0,0,0, 0,0,0,0, 0,0,0,0, 0,0,0,0],
             [0,1,0,0, 0,0,0,0, 0,0,0,0, 0,0,0,0],
             [0,0,1,0, 0,0,0,0, 0,0,0,0, 0,0,0,0],
             [0,0,0,1, 0,0,0,0, 0,0,0,0, 0,0,0,0],
             [0,0,0,0, 0,0,0,1, 0,0,0,0, 0,0,0,0],
             [0,0,0,0, 1,0,0,0, 0,0,0,0, 0,0,0,0],
             [0,0,0,0, 0,1,0,0, 0,0,0,0, 0,0,0,0],
             [0,0,0,0, 0,0,1,0, 0,0,0,0, 0,0,0,0],
             [0,0,0,0, 0,0,0,0, 0,0,1,0, 0,0,0,0],
             [0,0,0,0, 0,0,0,0, 0,0,0,1, 0,0,0,0],
             [0,0,0,0, 0,0,0,0, 1,0,0,0, 0,0,0,0],
             [0,0,0,0, 0,0,0,0, 0,1,0,0, 0,0,0,0],
             [0,0,0,0, 0,0,0,0, 0,0,0,0, 0,1,0,0],
             [0,0,0,0, 0,0,0,0, 0,0,0,0, 0,0,1,0],
             [0,0,0,0, 0,0,0,0, 0,0,0,0, 0,0,0,1],
             [0,0,0,0, 0,0,0,0, 0,0,0,0, 1,0,0,0]]
        }",
    )
}

/// A single-qutrit phase gate with two independent phases — the qutrit analogue of the
/// local rotations used in the Fig. 5 qutrit circuits.
pub fn qutrit_phase() -> UnitaryExpression {
    must!(
        "P3<3>(a, b) {
            [[1, 0, 0],
             [0, e^(i*a), 0],
             [0, 0, e^(i*b)]]
        }",
    )
}

/// A general parameterized single-qutrit gate built from Gell-Mann-style rotations on
/// the three two-level subspaces (8 parameters). Used by the qutrit PQC benchmarks as
/// the local mixing gate (the qutrit counterpart of U3).
pub fn qutrit_u() -> UnitaryExpression {
    // Embedded two-level rotations: R01(a,b) · R02(c,d) · R12(u,f) · diag phases(g,h).
    // Note: `e`, `i`, and `pi` are reserved constants in QGL and cannot be parameters.
    must!(
        "QutritU<3>(a, b, c, d, u, f, g, h) {
            [[cos(a/2), ~e^(i*b)*sin(a/2), 0],
             [e^(~i*b)*sin(a/2), cos(a/2), 0],
             [0, 0, 1]]
            *
            [[cos(c/2), 0, ~e^(i*d)*sin(c/2)],
             [0, 1, 0],
             [e^(~i*d)*sin(c/2), 0, cos(c/2)]]
            *
            [[1, 0, 0],
             [0, cos(u/2), ~e^(i*f)*sin(u/2)],
             [0, e^(~i*f)*sin(u/2), cos(u/2)]]
            *
            [[1, 0, 0],
             [0, e^(i*g), 0],
             [0, 0, e^(i*h)]]
        }",
    )
}

/// A general parameterized single-ququart gate built from embedded two-level rotations
/// on all six two-level subspaces plus three relative phases (15 parameters, the
/// dimension of SU(4)) — the radix-4 counterpart of [`u3`] and [`qutrit_u`], used as
/// the local mixing gate of the default ququart synthesis gate set.
pub fn ququart_u() -> UnitaryExpression {
    // Givens-style ladder: R01 · R02 · R03 · R12 · R13 · R23 · diag phases.
    // Note: `e`, `i`, and `pi` are reserved constants in QGL and cannot be parameters.
    must!(
        "QuquartU<4>(a, b, c, d, f, g, h, k, l, m, n, o, p, q, r) {
            [[cos(a/2), ~e^(i*b)*sin(a/2), 0, 0],
             [e^(~i*b)*sin(a/2), cos(a/2), 0, 0],
             [0, 0, 1, 0],
             [0, 0, 0, 1]]
            *
            [[cos(c/2), 0, ~e^(i*d)*sin(c/2), 0],
             [0, 1, 0, 0],
             [e^(~i*d)*sin(c/2), 0, cos(c/2), 0],
             [0, 0, 0, 1]]
            *
            [[cos(f/2), 0, 0, ~e^(i*g)*sin(f/2)],
             [0, 1, 0, 0],
             [0, 0, 1, 0],
             [e^(~i*g)*sin(f/2), 0, 0, cos(f/2)]]
            *
            [[1, 0, 0, 0],
             [0, cos(h/2), ~e^(i*k)*sin(h/2), 0],
             [0, e^(~i*k)*sin(h/2), cos(h/2), 0],
             [0, 0, 0, 1]]
            *
            [[1, 0, 0, 0],
             [0, cos(l/2), 0, ~e^(i*m)*sin(l/2)],
             [0, 0, 1, 0],
             [0, e^(~i*m)*sin(l/2), 0, cos(l/2)]]
            *
            [[1, 0, 0, 0],
             [0, 1, 0, 0],
             [0, 0, cos(n/2), ~e^(i*o)*sin(n/2)],
             [0, 0, e^(~i*o)*sin(n/2), cos(n/2)]]
            *
            [[1, 0, 0, 0],
             [0, e^(i*p), 0, 0],
             [0, 0, e^(i*q), 0],
             [0, 0, 0, e^(i*r)]]
        }",
    )
}

/// Returns every gate in the library with its name (used by exhaustive tests).
pub fn all_gates() -> Vec<(&'static str, UnitaryExpression)> {
    vec![
        ("U3", u3()),
        ("U2", u2()),
        ("U1", u1()),
        ("RX", rx()),
        ("RY", ry()),
        ("RZ", rz()),
        ("RZZ", rzz()),
        ("H", hadamard()),
        ("X", x()),
        ("Y", y()),
        ("Z", z()),
        ("CNOT", cnot()),
        ("CZ", cz()),
        ("SWAP", swap()),
        ("CP", cphase()),
        ("CSUM", csum()),
        ("CSUM4", csum4()),
        ("CSHIFT23", cshift23()),
        ("CSHIFT24", cshift24()),
        ("CSHIFT34", cshift34()),
        ("P3", qutrit_phase()),
        ("QutritU", qutrit_u()),
        ("QuquartU", ququart_u()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_gate_is_unitary_at_random_parameters() {
        for (name, gate) in all_gates() {
            let params: Vec<f64> = (0..gate.num_params()).map(|k| 0.37 + 0.71 * k as f64).collect();
            assert!(gate.check_unitary(&params, 1e-10), "{name} is not unitary at {params:?}");
        }
    }

    #[test]
    fn builtins_are_parsed_once_and_share_their_key() {
        let (a, b) = (qutrit_u(), qutrit_u());
        assert_eq!(a, b);
        assert_eq!(a.canonical_key(), b.canonical_key());
        assert!(std::ptr::eq(a.canonical_key().as_str(), b.canonical_key().as_str()));
    }

    #[test]
    fn gate_metadata() {
        assert_eq!(u3().num_params(), 3);
        assert_eq!(u2().num_params(), 2);
        assert_eq!(rzz().radices(), &[2, 2]);
        assert_eq!(csum().radices(), &[3, 3]);
        assert_eq!(qutrit_phase().radices(), &[3]);
        assert_eq!(qutrit_u().num_params(), 8);
        assert_eq!(cnot().num_params(), 0);
        assert_eq!(csum4().radices(), &[4, 4]);
        assert_eq!(ququart_u().radices(), &[4]);
        assert_eq!(ququart_u().num_params(), 15);
    }

    #[test]
    fn csum4_adds_modulo_four() {
        let m = csum4().to_matrix::<f64>(&[]).unwrap();
        // |a,b⟩ index = 4a+b ↦ |a, (a+b) mod 4⟩
        for a in 0..4usize {
            for b in 0..4usize {
                let from = 4 * a + b;
                let to = 4 * a + (a + b) % 4;
                assert_eq!(m.get(to, from).re, 1.0, "|{a},{b}>");
            }
        }
        assert!(m.is_unitary(1e-14));
    }

    #[test]
    fn ququart_u_reaches_nontrivial_unitaries() {
        // All-zero parameters give the identity; the ladder's rotations move every
        // basis state once excited.
        let id = ququart_u().to_matrix::<f64>(&[0.0; 15]).unwrap();
        assert!(id.is_identity(1e-14));
        let params: Vec<f64> = (0..15).map(|k| 0.23 + 0.31 * k as f64).collect();
        let u = ququart_u().to_matrix::<f64>(&params).unwrap();
        assert!(u.is_unitary(1e-10));
        for col in 0..4 {
            let mut moved = 0.0;
            for row in 0..4 {
                if row != col {
                    moved += u.get(row, col).norm_sqr();
                }
            }
            assert!(moved > 1e-3, "column {col} untouched by the ladder");
        }
    }

    #[test]
    fn u2_is_u3_at_half_pi() {
        let from_u3 = u3().to_matrix::<f64>(&[std::f64::consts::FRAC_PI_2, 0.4, 1.2]).unwrap();
        let direct = u2().to_matrix::<f64>(&[0.4, 1.2]).unwrap();
        assert!(from_u3.max_elementwise_distance(&direct) < 1e-12);
    }

    #[test]
    fn cnot_flips_target_when_control_set() {
        let m = cnot().to_matrix::<f64>(&[]).unwrap();
        // |10⟩ (index 2) ↦ |11⟩ (index 3)
        assert_eq!(m.get(3, 2).re, 1.0);
        assert_eq!(m.get(2, 3).re, 1.0);
        assert_eq!(m.get(2, 2).re, 0.0);
    }

    #[test]
    fn csum_adds_modulo_three() {
        let m = csum().to_matrix::<f64>(&[]).unwrap();
        // |a,b⟩ index = 3a+b ↦ |a, a+b mod 3⟩
        for a in 0..3usize {
            for b in 0..3usize {
                let from = 3 * a + b;
                let to = 3 * a + (a + b) % 3;
                assert_eq!(m.get(to, from).re, 1.0, "|{a},{b}>");
            }
        }
    }

    #[test]
    fn cshift23_shifts_target_by_control() {
        let m = cshift23().to_matrix::<f64>(&[]).unwrap();
        // |a,b⟩ index = 3a+b ↦ |a, (a+b) mod 3⟩, with a ∈ {0, 1}.
        for a in 0..2usize {
            for b in 0..3usize {
                let from = 3 * a + b;
                let to = 3 * a + (a + b) % 3;
                assert_eq!(m.get(to, from).re, 1.0, "|{a},{b}>");
            }
        }
        assert!(m.is_unitary(1e-14));
        assert_eq!(cshift23().radices(), &[2, 3]);
    }

    #[test]
    fn cshift24_shifts_target_by_control() {
        let m = cshift24().to_matrix::<f64>(&[]).unwrap();
        // |a,b⟩ index = 4a+b ↦ |a, (a+b) mod 4⟩, with a ∈ {0, 1}.
        for a in 0..2usize {
            for b in 0..4usize {
                let from = 4 * a + b;
                let to = 4 * a + (a + b) % 4;
                assert_eq!(m.get(to, from).re, 1.0, "|{a},{b}>");
            }
        }
        assert!(m.is_unitary(1e-14));
        assert_eq!(cshift24().radices(), &[2, 4]);
    }

    #[test]
    fn cshift34_shifts_target_by_control() {
        let m = cshift34().to_matrix::<f64>(&[]).unwrap();
        // |a,b⟩ index = 4a+b ↦ |a, (a+b) mod 4⟩, with a ∈ {0, 1, 2}.
        for a in 0..3usize {
            for b in 0..4usize {
                let from = 4 * a + b;
                let to = 4 * a + (a + b) % 4;
                assert_eq!(m.get(to, from).re, 1.0, "|{a},{b}>");
            }
        }
        assert!(m.is_unitary(1e-14));
        assert_eq!(cshift34().radices(), &[3, 4]);
    }

    #[test]
    fn rz_is_diagonal_phase() {
        let m = rz().to_matrix::<f64>(&[1.4]).unwrap();
        assert!((m.get(0, 0).arg() + 0.7).abs() < 1e-14);
        assert!((m.get(1, 1).arg() - 0.7).abs() < 1e-14);
        assert_eq!(m.get(0, 1).abs(), 0.0);
    }

    #[test]
    fn rzz_diagonal_signs() {
        let m = rzz().to_matrix::<f64>(&[0.9]).unwrap();
        assert!((m.get(0, 0).arg() + 0.45).abs() < 1e-14);
        assert!((m.get(1, 1).arg() - 0.45).abs() < 1e-14);
        assert!((m.get(2, 2).arg() - 0.45).abs() < 1e-14);
        assert!((m.get(3, 3).arg() + 0.45).abs() < 1e-14);
    }

    #[test]
    fn hadamard_squares_to_identity() {
        let h = hadamard().to_matrix::<f64>(&[]).unwrap();
        assert!(h.matmul(&h).is_identity(1e-14));
    }
}
