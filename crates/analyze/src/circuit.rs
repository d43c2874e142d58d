//! Layer 2: the circuit / gate-set structural validator.
//!
//! [`verify_circuit`] re-derives, from the outside, every invariant
//! [`QuditCircuit`]'s mutating API enforces at construction time — expression-table
//! references, location arity/range/repeats, wire-radix agreement, the packed
//! parameter-offset discipline, and constant-application arity — so artifacts that
//! crossed a serialization or transformation boundary can be re-checked without
//! trusting their producer. [`verify_gateset`] checks the synthesis-side contract:
//! every expression a circuit applies is a member of the [`GateSet`] the task
//! declared (membership by canonical key, the same identity
//! [`QuditCircuit::cache_operation`] dedupes on).

use std::collections::HashSet;

use qudit_circuit::{GateSet, OpParams, QuditCircuit};

use crate::AnalyzeError;

/// A structural violation inside a [`QuditCircuit`], naming the offending operation.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitViolation {
    /// An operation references an expression outside the circuit's table.
    UnknownExpression {
        /// Index of the offending operation.
        op_index: usize,
        /// The out-of-range expression reference.
        expr_index: usize,
        /// The expression-table length.
        table_len: usize,
    },
    /// An operation's location is malformed (wrong arity, out-of-range wire, or a
    /// repeated wire).
    Location {
        /// Index of the offending operation.
        op_index: usize,
        /// What is malformed.
        detail: String,
    },
    /// A gate's wire radices disagree with the circuit radices at its location.
    RadixMismatch {
        /// Index of the offending operation.
        op_index: usize,
        /// What disagreed.
        detail: String,
    },
    /// A parameterized operation's offset breaks the packed-offset discipline
    /// (offsets must tile the parameter vector in operation order).
    ParamOffset {
        /// Index of the offending operation.
        op_index: usize,
        /// The offset the packing discipline requires.
        expected: usize,
        /// The offset found.
        found: usize,
    },
    /// A constant operation's baked-in value count disagrees with its expression's
    /// parameter count.
    ConstantArity {
        /// Index of the offending operation.
        op_index: usize,
        /// The expression's parameter count.
        expected: usize,
        /// The value count found.
        found: usize,
    },
    /// The circuit's declared parameter count disagrees with the sum over its
    /// parameterized operations.
    ParamCount {
        /// The count the operations imply.
        expected: usize,
        /// The count the circuit declares.
        found: usize,
    },
    /// An operation applies an expression that is not a member of the declared
    /// [`GateSet`].
    GateSet {
        /// Index of the offending operation.
        op_index: usize,
        /// The foreign expression's name.
        name: String,
    },
}

impl std::fmt::Display for CircuitViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CircuitViolation::UnknownExpression { op_index, expr_index, table_len } => write!(
                f,
                "operation {op_index} references expression {expr_index} of a \
                 {table_len}-entry table"
            ),
            CircuitViolation::Location { op_index, detail } => {
                write!(f, "operation {op_index} has an invalid location: {detail}")
            }
            CircuitViolation::RadixMismatch { op_index, detail } => {
                write!(f, "operation {op_index} has a radix mismatch: {detail}")
            }
            CircuitViolation::ParamOffset { op_index, expected, found } => write!(
                f,
                "operation {op_index} starts at parameter offset {found}, packing \
                 requires {expected}"
            ),
            CircuitViolation::ConstantArity { op_index, expected, found } => write!(
                f,
                "operation {op_index} bakes in {found} value(s) but its expression \
                 has {expected} parameter(s)"
            ),
            CircuitViolation::ParamCount { expected, found } => write!(
                f,
                "circuit declares {found} parameter(s) but its operations imply {expected}"
            ),
            CircuitViolation::GateSet { op_index, name } => {
                write!(f, "operation {op_index} applies '{name}', which is not in the gate set")
            }
        }
    }
}

/// What [`verify_circuit`] measured while checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CircuitReport {
    /// Operations checked.
    pub ops: usize,
}

/// Verifies a circuit's structural invariants from the outside.
///
/// Checks every operation's expression reference, location (arity, wire range,
/// repeats), wire-radix agreement, parameter binding (packed offsets for
/// parameterized operations, exact value counts for constant ones), and finally the
/// circuit's declared parameter count against the sum its operations imply.
///
/// # Errors
///
/// Returns the first [`AnalyzeError`] violated, naming the offending operation.
pub fn verify_circuit(circuit: &QuditCircuit) -> Result<CircuitReport, AnalyzeError> {
    let exprs = circuit.expressions();
    let mut next_offset = 0usize;
    for (op_index, op) in circuit.ops().iter().enumerate() {
        let Some(expr) = exprs.get(op.expr.index()) else {
            return Err(CircuitViolation::UnknownExpression {
                op_index,
                expr_index: op.expr.index(),
                table_len: exprs.len(),
            }
            .into());
        };
        if op.location.len() != expr.num_qudits() {
            return Err(CircuitViolation::Location {
                op_index,
                detail: format!(
                    "gate '{}' acts on {} qudit(s) but location has {}",
                    expr.name(),
                    expr.num_qudits(),
                    op.location.len()
                ),
            }
            .into());
        }
        let mut seen = vec![false; circuit.num_qudits()];
        for (&q, &expected_radix) in op.location.iter().zip(expr.radices().iter()) {
            if q >= circuit.num_qudits() {
                return Err(CircuitViolation::Location {
                    op_index,
                    detail: format!(
                        "qudit index {q} out of range for {} qudits",
                        circuit.num_qudits()
                    ),
                }
                .into());
            }
            if seen[q] {
                return Err(CircuitViolation::Location {
                    op_index,
                    detail: format!("qudit index {q} repeated in location"),
                }
                .into());
            }
            seen[q] = true;
            if circuit.radices()[q] != expected_radix {
                return Err(CircuitViolation::RadixMismatch {
                    op_index,
                    detail: format!(
                        "gate '{}' expects radix {expected_radix}, circuit qudit {q} \
                         has radix {}",
                        expr.name(),
                        circuit.radices()[q]
                    ),
                }
                .into());
            }
        }
        match &op.params {
            OpParams::Parameterized { offset } => {
                if *offset != next_offset {
                    return Err(CircuitViolation::ParamOffset {
                        op_index,
                        expected: next_offset,
                        found: *offset,
                    }
                    .into());
                }
                next_offset += expr.num_params();
            }
            OpParams::Constant(values) => {
                if values.len() != expr.num_params() {
                    return Err(CircuitViolation::ConstantArity {
                        op_index,
                        expected: expr.num_params(),
                        found: values.len(),
                    }
                    .into());
                }
            }
        }
    }
    if next_offset != circuit.num_params() {
        return Err(CircuitViolation::ParamCount {
            expected: next_offset,
            found: circuit.num_params(),
        }
        .into());
    }
    Ok(CircuitReport { ops: circuit.num_ops() })
}

/// Verifies that every expression a circuit applies is a member of `gate_set`.
///
/// Membership is by [`qudit_qgl::UnitaryExpression::canonical_key`], the identity
/// [`QuditCircuit::cache_operation`] dedupes on. The name is part of that identity, so
/// a renamed copy of a registered gate fails, and so does a foreign gate with a
/// registered name. Only *applied* expressions are checked; a cached-but-unused table
/// entry is not a violation.
///
/// # Errors
///
/// Returns [`CircuitViolation::GateSet`] (as an [`AnalyzeError`]) naming the first
/// operation that applies a foreign expression, or
/// [`CircuitViolation::UnknownExpression`] for a dangling reference.
pub fn verify_gateset(circuit: &QuditCircuit, gate_set: &GateSet) -> Result<(), AnalyzeError> {
    let members: HashSet<_> = gate_set
        .locals()
        .map(|(_, expr)| expr.canonical_key())
        .chain(gate_set.entanglers().map(|(_, expr)| expr.canonical_key()))
        .collect();
    for (op_index, op) in circuit.ops().iter().enumerate() {
        let Some(expr) = circuit.expressions().get(op.expr.index()) else {
            return Err(CircuitViolation::UnknownExpression {
                op_index,
                expr_index: op.expr.index(),
                table_len: circuit.expressions().len(),
            }
            .into());
        };
        if !members.contains(expr.canonical_key()) {
            return Err(
                CircuitViolation::GateSet { op_index, name: expr.name().to_string() }.into()
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_circuit::{builders, gates};

    #[test]
    fn builder_circuits_verify_clean() {
        for radices in [vec![2, 2], vec![3, 3], vec![2, 3, 2]] {
            let blocks: Vec<(usize, usize)> = (0..radices.len() - 1).map(|i| (i, i + 1)).collect();
            let circuit = builders::pqc_template(&radices, &blocks).unwrap();
            let report = verify_circuit(&circuit).unwrap();
            assert_eq!(report.ops, circuit.num_ops());
            let set = GateSet::default_for(&radices);
            verify_gateset(&circuit, &set).unwrap();
        }
    }

    #[test]
    fn constant_applications_verify_clean() {
        let mut circuit = QuditCircuit::qubits(2);
        let rx = circuit.cache_operation(gates::rx()).unwrap();
        let cx = circuit.cache_operation(gates::cnot()).unwrap();
        circuit.append_ref(rx, vec![0]).unwrap();
        circuit.append_ref_constant(rx, vec![1], vec![0.25]).unwrap();
        circuit.append_ref(cx, vec![0, 1]).unwrap();
        circuit.append_ref(rx, vec![1]).unwrap();
        verify_circuit(&circuit).unwrap();
        // Offsets stay packed across a mid-circuit deletion.
        circuit.delete_op(0).unwrap();
        verify_circuit(&circuit).unwrap();
    }

    #[test]
    fn foreign_gate_fails_gateset_membership() {
        let mut circuit = QuditCircuit::qubits(2);
        let h = circuit.cache_operation(gates::hadamard()).unwrap();
        circuit.append_ref(h, vec![0]).unwrap();
        let set = GateSet::default_for(&[2, 2]); // U3 + CNOT only
        let err = verify_gateset(&circuit, &set).unwrap_err();
        match &err {
            AnalyzeError::Circuit(CircuitViolation::GateSet { op_index, name }) => {
                assert_eq!(*op_index, 0);
                assert_eq!(name, "H");
            }
            other => panic!("expected GateSet violation, got {other:?}"),
        }
        assert!(err.to_string().contains("operation 0"));

        // The name is part of a gate's identity: a renamed U3 is not the registered U3.
        let mut circuit = QuditCircuit::qubits(2);
        let renamed = circuit.cache_operation(gates::u3().with_name("MyU3")).unwrap();
        circuit.append_ref(renamed, vec![0]).unwrap();
        match verify_gateset(&circuit, &set).unwrap_err() {
            AnalyzeError::Circuit(CircuitViolation::GateSet { op_index, name }) => {
                assert_eq!((op_index, name.as_str()), (0, "MyU3"));
            }
            other => panic!("expected GateSet violation, got {other:?}"),
        }
    }

    #[test]
    fn cached_but_unused_expression_is_not_a_membership_violation() {
        let mut circuit = QuditCircuit::qubits(2);
        let _h = circuit.cache_operation(gates::hadamard()).unwrap();
        let set = GateSet::default_for(&[2, 2]);
        verify_gateset(&circuit, &set).unwrap();
    }
}
