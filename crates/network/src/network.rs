//! Lowering of a [`QuditCircuit`] into a tensor-network representation.
//!
//! In the tensor-network model each quantum gate becomes a tensor whose rank is twice its
//! arity, with index cardinalities given by the qudit radices on its wires (Sec. IV-A of
//! the paper). For the purpose of computing a circuit's unitary, every intermediate
//! produced while contracting that network is itself an *operator on a subset of the
//! circuit's qudits*; [`GateNode`] records exactly that view (which qudits, in which
//! axis order, plus how the gate's parameters bind to circuit parameters), and the
//! contraction-tree machinery in [`crate::path`] merges nodes pairwise.

use qudit_circuit::{OpParams, QuditCircuit};
use qudit_qgl::UnitaryExpression;

/// How one gate parameter obtains its value at evaluation time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamBinding {
    /// Bound to the circuit parameter with this index.
    Circuit(usize),
    /// Fixed to a constant value.
    Constant(f64),
}

impl ParamBinding {
    /// Returns the circuit parameter index if this binding is dynamic.
    pub fn circuit_index(&self) -> Option<usize> {
        match self {
            ParamBinding::Circuit(i) => Some(*i),
            ParamBinding::Constant(_) => None,
        }
    }
}

/// A single gate tensor in the network.
#[derive(Debug, Clone)]
pub struct GateNode {
    /// Index into the network's expression table.
    pub expr_index: usize,
    /// The circuit qudits this gate acts on, in the gate's own wire order.
    pub qudits: Vec<usize>,
    /// Position of the originating operation in the circuit (time order).
    pub time: usize,
    /// Per-gate-parameter bindings, in the gate's parameter order.
    pub bindings: Vec<ParamBinding>,
}

impl GateNode {
    /// The sorted set of circuit parameters this node depends on.
    pub fn circuit_params(&self) -> Vec<usize> {
        let mut v: Vec<usize> =
            self.bindings.iter().filter_map(ParamBinding::circuit_index).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// A tensor network lowered from a circuit.
#[derive(Debug, Clone)]
pub struct TensorNetwork {
    /// Unique gate expressions referenced by the nodes (deduplicated by
    /// [`UnitaryExpression::canonical_key`]).
    exprs: Vec<UnitaryExpression>,
    /// The gate tensors, in circuit (time) order.
    nodes: Vec<GateNode>,
    /// The circuit's qudit radices.
    radices: Vec<usize>,
    /// Number of circuit-level parameters.
    num_params: usize,
}

impl TensorNetwork {
    /// Lowers a circuit into its tensor-network representation.
    pub fn from_circuit(circuit: &QuditCircuit) -> Self {
        let mut exprs: Vec<UnitaryExpression> = Vec::new();
        let mut key_to_index = std::collections::HashMap::new();
        let mut nodes = Vec::with_capacity(circuit.num_ops());
        for (time, op) in circuit.ops().iter().enumerate() {
            let expr = circuit
                .expression(op.expr)
                .expect("circuit operations always reference cached expressions");
            let expr_index = *key_to_index.entry(expr.canonical_key()).or_insert_with(|| {
                exprs.push(expr.clone());
                exprs.len() - 1
            });
            let bindings = match &op.params {
                OpParams::Constant(values) => {
                    values.iter().map(|&v| ParamBinding::Constant(v)).collect()
                }
                OpParams::Parameterized { offset } => {
                    (0..expr.num_params()).map(|k| ParamBinding::Circuit(offset + k)).collect()
                }
            };
            nodes.push(GateNode { expr_index, qudits: op.location.clone(), time, bindings });
        }
        TensorNetwork {
            exprs,
            nodes,
            radices: circuit.radices().to_vec(),
            num_params: circuit.num_params(),
        }
    }

    /// The unique gate expressions referenced by the network.
    pub fn expressions(&self) -> &[UnitaryExpression] {
        &self.exprs
    }

    /// The gate nodes in time order.
    pub fn nodes(&self) -> &[GateNode] {
        &self.nodes
    }

    /// The circuit's qudit radices.
    pub fn radices(&self) -> &[usize] {
        &self.radices
    }

    /// Number of qudits.
    pub fn num_qudits(&self) -> usize {
        self.radices.len()
    }

    /// Number of circuit parameters.
    pub fn num_params(&self) -> usize {
        self.num_params
    }

    /// The Hilbert-space dimension of a set of qudits.
    pub fn dim_of(&self, qudits: &[usize]) -> usize {
        qudits.iter().map(|&q| self.radices[q]).product()
    }

    /// Appends one parameterized gate node in place, allocating fresh trailing circuit
    /// parameters for it — the *recompile-on-expansion* path used by bottom-up
    /// synthesis: a search node clones its parent's network, pushes the new block's
    /// nodes, and recompiles only the extended network (expression compilation itself
    /// is amortized by the shared `ExpressionCache`, so the new bytecode reuses every
    /// previously compiled gate).
    ///
    /// Returns the index of the first circuit parameter allocated for the gate.
    ///
    /// # Panics
    ///
    /// Panics if `qudits` references wires out of range or whose radices do not match
    /// the expression (the circuit layer performs the user-facing validation; this is
    /// an internal-consistency check).
    pub fn push_parameterized(&mut self, expr: &UnitaryExpression, qudits: Vec<usize>) -> usize {
        let offset = self.num_params;
        let bindings = (0..expr.num_params()).map(|k| ParamBinding::Circuit(offset + k)).collect();
        self.num_params += expr.num_params();
        self.push_node(expr, qudits, bindings);
        offset
    }

    /// Appends one constant (fully bound) gate node in place.
    ///
    /// # Panics
    ///
    /// Panics if `values` has the wrong length or `qudits` is inconsistent with the
    /// expression (see [`TensorNetwork::push_parameterized`]).
    pub fn push_constant(&mut self, expr: &UnitaryExpression, qudits: Vec<usize>, values: &[f64]) {
        assert_eq!(
            values.len(),
            expr.num_params(),
            "constant node for '{}' expects {} value(s)",
            expr.name(),
            expr.num_params()
        );
        let bindings = values.iter().map(|&v| ParamBinding::Constant(v)).collect();
        self.push_node(expr, qudits, bindings);
    }

    fn push_node(
        &mut self,
        expr: &UnitaryExpression,
        qudits: Vec<usize>,
        bindings: Vec<ParamBinding>,
    ) {
        assert_eq!(qudits.len(), expr.num_qudits(), "gate arity must match its location");
        for (&q, &radix) in qudits.iter().zip(expr.radices().iter()) {
            assert!(q < self.radices.len(), "qudit index {q} out of range");
            assert_eq!(self.radices[q], radix, "gate radix must match the wire at qudit {q}");
        }
        // The expression table stays tiny (a handful of unique gates), so a linear
        // dedup scan beats carrying a hash map through every clone. A comparison checks
        // the stored keys' hashes first, so an unequal entry is passed over without
        // reading its text.
        let key = expr.canonical_key();
        let expr_index = match self.exprs.iter().position(|e| e.canonical_key() == key) {
            Some(found) => found,
            None => {
                self.exprs.push(expr.clone());
                self.exprs.len() - 1
            }
        };
        let time = self.nodes.len();
        self.nodes.push(GateNode { expr_index, qudits, time, bindings });
    }

    /// Total Hilbert-space dimension of the full circuit.
    pub fn dim(&self) -> usize {
        self.radices.iter().product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_circuit::{builders, gates, QuditCircuit};

    fn sample_circuit() -> QuditCircuit {
        let mut c = QuditCircuit::qubits(3);
        let u3 = c.cache_operation(gates::u3()).unwrap();
        let cx = c.cache_operation(gates::cnot()).unwrap();
        for q in 0..3 {
            c.append_ref(u3, vec![q]).unwrap();
        }
        c.append_ref(cx, vec![0, 1]).unwrap();
        c.append_ref_constant(u3, vec![2], vec![0.1, 0.2, 0.3]).unwrap();
        c
    }

    #[test]
    fn lowering_counts_and_dedup() {
        let net = TensorNetwork::from_circuit(&sample_circuit());
        assert_eq!(net.nodes().len(), 5);
        // U3 and CNOT only — the constant U3 reuses the same expression entry.
        assert_eq!(net.expressions().len(), 2);
        assert_eq!(net.num_params(), 9);
        assert_eq!(net.num_qudits(), 3);
        assert_eq!(net.dim(), 8);
    }

    #[test]
    fn bindings_follow_circuit_parameter_layout() {
        let net = TensorNetwork::from_circuit(&sample_circuit());
        // Second U3 (on qubit 1) owns circuit parameters 3..6.
        assert_eq!(
            net.nodes()[1].bindings,
            vec![ParamBinding::Circuit(3), ParamBinding::Circuit(4), ParamBinding::Circuit(5)]
        );
        assert_eq!(net.nodes()[1].circuit_params(), vec![3, 4, 5]);
        // The CNOT has no parameters.
        assert!(net.nodes()[3].bindings.is_empty());
        // The final constant U3 binds constants only.
        assert!(matches!(net.nodes()[4].bindings[0], ParamBinding::Constant(v) if v == 0.1));
        assert!(net.nodes()[4].circuit_params().is_empty());
    }

    #[test]
    fn node_geometry() {
        let net = TensorNetwork::from_circuit(&sample_circuit());
        assert_eq!(net.nodes()[3].qudits, vec![0, 1]);
        assert_eq!(net.dim_of(&[0, 1]), 4);
        assert_eq!(net.nodes()[3].time, 3);
    }

    #[test]
    fn incremental_extension_matches_from_circuit() {
        // Extending a lowered network in place must produce exactly the lowering of the
        // extended circuit (the recompile-on-expansion invariant).
        let mut circ = QuditCircuit::qubits(2);
        let u3 = circ.cache_operation(gates::u3()).unwrap();
        circ.append_ref(u3, vec![0]).unwrap();
        circ.append_ref(u3, vec![1]).unwrap();
        let mut net = TensorNetwork::from_circuit(&circ);

        let cx = gates::cnot();
        let offset = net.push_parameterized(&gates::u3(), vec![0]);
        assert_eq!(offset, 6);
        net.push_constant(&cx, vec![0, 1], &[]);

        let cx_ref = circ.cache_operation(cx).unwrap();
        circ.append_ref(u3, vec![0]).unwrap();
        circ.append_ref_constant(cx_ref, vec![0, 1], vec![]).unwrap();
        let expect = TensorNetwork::from_circuit(&circ);

        assert_eq!(net.num_params(), expect.num_params());
        assert_eq!(net.nodes().len(), expect.nodes().len());
        assert_eq!(net.expressions().len(), expect.expressions().len());
        for (a, b) in net.nodes().iter().zip(expect.nodes()) {
            assert_eq!(a.expr_index, b.expr_index);
            assert_eq!(a.qudits, b.qudits);
            assert_eq!(a.time, b.time);
            assert_eq!(a.bindings, b.bindings);
        }
    }

    #[test]
    #[should_panic(expected = "radix must match")]
    fn incremental_extension_validates_radix() {
        let c = builders::pqc_qutrit_ladder(2, 1).unwrap();
        let mut net = TensorNetwork::from_circuit(&c);
        net.push_parameterized(&gates::u3(), vec![0]);
    }

    #[test]
    fn mixed_radix_dimensions() {
        let c = builders::pqc_qutrit_ladder(2, 1).unwrap();
        let net = TensorNetwork::from_circuit(&c);
        assert_eq!(net.dim(), 9);
        assert_eq!(net.dim_of(&[0]), 3);
        assert!(net.num_params() > 0);
    }
}
