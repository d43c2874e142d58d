//! The dataflow-analysis framework over TNVM bytecode: def-use chains, liveness,
//! and the buffer-interference graph.
//!
//! The analyses view a [`TnvmProgram`] as one linearized instruction sequence —
//! the constant section followed by the dynamic section — with two control-flow
//! edges beyond straight-line fallthrough:
//!
//! * an **exit edge** keeping the program's output buffer live past the last
//!   instruction (the VM reads it after every evaluation), and
//! * a **back edge** from the end of the dynamic section to its start, modeling
//!   that every evaluation re-runs the dynamic section while the constant
//!   section ran exactly once. Any buffer a dynamic
//!   instruction reads that was written in the constant section is therefore live
//!   across the *entire* dynamic region, every iteration.
//!
//! Liveness is the standard backward may-analysis, iterated to a fixed point
//! (`live_in(i) = (live_out(i) \ def(i)) ∪ use(i)`); because the bytecode is
//! single-assignment over a small buffer set, the iteration converges in two
//! passes. [`Liveness::is_fixed_point`] re-applies one transfer round and checks
//! nothing changes.
//!
//! The [`InterferenceGraph`] derives from liveness: two buffers interfere when
//! some instruction has both *occupied* (live-in, live-out, or being defined
//! there). Defining an instruction's output as occupied alongside its live-in
//! set also encodes the VM's disjoint-slice rule — an output may never share
//! storage with that instruction's inputs.
//!
//! # The value sweep only
//!
//! These facts describe the TNVM's **value sweep**
//! ([`Tnvm::evaluate_unitary`](qudit_tnvm::Tnvm::evaluate_unitary)): every
//! evaluation without gradients, and the first half of one with them. The
//! gradient sweep ([`Tnvm::gradient`](qudit_tnvm::Tnvm::gradient)) reads every
//! dynamic instruction's operand values once more, after the whole value sweep,
//! so under gradient evaluation those buffers stay live to the end of the
//! dynamic section: two buffers this graph lets share storage could still
//! clobber each other. That is why the VM gives every buffer its own storage.

use std::collections::BTreeSet;

use qudit_network::{BufId, InstrRef, TnvmOp, TnvmProgram};

/// The definition site and use sites of one buffer, in linearized program order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DefUse {
    /// The instruction writing the buffer, if any (the bytecode is
    /// single-assignment, so there is at most one).
    pub def: Option<InstrRef>,
    /// Every instruction reading the buffer, in program order.
    pub uses: Vec<InstrRef>,
}

/// Per-buffer def-use chains for a program.
#[derive(Debug, Clone)]
pub struct DefUseChains {
    /// One entry per buffer, indexed by [`BufId`].
    pub buffers: Vec<DefUse>,
}

impl DefUseChains {
    /// Builds the def-use chains of `program`.
    pub fn build(program: &TnvmProgram) -> DefUseChains {
        let mut buffers = vec![DefUse { def: None, uses: Vec::new() }; program.buffers.len()];
        for (constant, ops) in [(true, &program.constant_ops), (false, &program.dynamic_ops)] {
            for (index, op) in ops.iter().enumerate() {
                let at = InstrRef { constant, index };
                for input in op.inputs() {
                    buffers[input].uses.push(at);
                }
                buffers[op.out()].def = Some(at);
            }
        }
        DefUseChains { buffers }
    }

    /// Buffers that are written but never read and are not the program output:
    /// the instructions writing them are dead.
    pub fn dead_buffers(&self, program: &TnvmProgram) -> Vec<BufId> {
        self.buffers
            .iter()
            .enumerate()
            .filter(|(buf, du)| du.def.is_some() && du.uses.is_empty() && *buf != program.output)
            .map(|(buf, _)| buf)
            .collect()
    }
}

/// The linearized instruction list: constant section first, then dynamic.
fn linearize(program: &TnvmProgram) -> Vec<&TnvmOp> {
    program.constant_ops.iter().chain(program.dynamic_ops.iter()).collect()
}

/// Liveness intervals over the linearized program.
///
/// Index `i` ranges over `0..program.len()` with the constant section first;
/// [`Liveness::live_in`]/[`Liveness::live_out`] expose the per-instruction sets.
#[derive(Debug, Clone)]
pub struct Liveness {
    live_in: Vec<BTreeSet<BufId>>,
    live_out: Vec<BTreeSet<BufId>>,
    constant_len: usize,
    output: BufId,
}

impl Liveness {
    /// Computes liveness for `program` by backward fixed-point iteration.
    pub fn compute(program: &TnvmProgram) -> Liveness {
        let ops = linearize(program);
        let n = ops.len();
        let mut live = Liveness {
            live_in: vec![BTreeSet::new(); n],
            live_out: vec![BTreeSet::new(); n],
            constant_len: program.constant_ops.len(),
            output: program.output,
        };
        // Two rounds always suffice for straight-line code with one back edge,
        // but iterate until stable so the fixed-point property is by construction.
        loop {
            if !live.transfer_round(&ops) {
                break;
            }
        }
        live
    }

    /// One backward transfer round; returns whether any set changed.
    fn transfer_round(&mut self, ops: &[&TnvmOp]) -> bool {
        let n = ops.len();
        let mut changed = false;
        for i in (0..n).rev() {
            // Successor union: fallthrough, the exit edge (output live forever),
            // and the dynamic back edge into the first dynamic instruction.
            let mut out = BTreeSet::new();
            if i + 1 < n {
                out.extend(self.live_in[i + 1].iter().copied());
            }
            if i + 1 == n {
                out.insert(self.output);
                if self.constant_len < n {
                    out.extend(self.live_in[self.constant_len].iter().copied());
                }
            }
            let mut inn: BTreeSet<BufId> = out.clone();
            inn.remove(&ops[i].out());
            inn.extend(ops[i].inputs());
            if inn != self.live_in[i] || out != self.live_out[i] {
                changed = true;
                self.live_in[i] = inn;
                self.live_out[i] = out;
            }
        }
        changed
    }

    /// The buffers live on entry to linearized instruction `i`.
    pub fn live_in(&self, i: usize) -> &BTreeSet<BufId> {
        &self.live_in[i]
    }

    /// The buffers live on exit from linearized instruction `i`.
    pub fn live_out(&self, i: usize) -> &BTreeSet<BufId> {
        &self.live_out[i]
    }

    /// Number of linearized instructions covered.
    pub fn len(&self) -> usize {
        self.live_in.len()
    }

    /// True when the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.live_in.is_empty()
    }

    /// Whether these sets are a fixed point of the transfer function: one more
    /// backward round over `program` must change nothing.
    pub fn is_fixed_point(&self, program: &TnvmProgram) -> bool {
        let ops = linearize(program);
        if ops.len() != self.live_in.len() || program.constant_ops.len() != self.constant_len {
            return false;
        }
        !self.clone().transfer_round(&ops)
    }

    /// The buffers *occupying* storage at instruction `i`: live-in, live-out, and
    /// the instruction's own output. Including the output alongside live-in means
    /// an interference-respecting layout also satisfies the VM's rule that an
    /// output slice never aliases that instruction's input slices.
    pub fn occupied(&self, i: usize, program: &TnvmProgram) -> BTreeSet<BufId> {
        let ops = linearize(program);
        let mut set = self.live_in[i].clone();
        set.extend(self.live_out[i].iter().copied());
        set.insert(ops[i].out());
        set
    }
}

/// The buffer-interference graph: which buffer pairs may never share arena
/// elements.
#[derive(Debug, Clone)]
pub struct InterferenceGraph {
    n: usize,
    /// Adjacency as a flattened boolean matrix (programs have tens of buffers,
    /// so the quadratic representation is exact and cheap).
    edges: Vec<bool>,
}

impl InterferenceGraph {
    /// Builds the interference graph of `program` from `liveness`: buffers `a`
    /// and `b` interfere when both occupy storage at some instruction.
    pub fn build(program: &TnvmProgram, liveness: &Liveness) -> InterferenceGraph {
        let n = program.buffers.len();
        let mut graph = InterferenceGraph { n, edges: vec![false; n * n] };
        for i in 0..liveness.len() {
            let occupied: Vec<BufId> = liveness.occupied(i, program).into_iter().collect();
            for (k, &a) in occupied.iter().enumerate() {
                for &b in &occupied[k + 1..] {
                    graph.edges[a * n + b] = true;
                    graph.edges[b * n + a] = true;
                }
            }
        }
        graph
    }

    /// Number of buffers (nodes).
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether buffers `a` and `b` may not share storage.
    pub fn interferes(&self, a: BufId, b: BufId) -> bool {
        a != b && self.edges[a * self.n + b]
    }

    /// The buffers interfering with `buf`, in ascending order.
    pub fn neighbors(&self, buf: BufId) -> Vec<BufId> {
        (0..self.n).filter(|&other| self.interferes(buf, other)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_circuit::builders;
    use qudit_network::{compile_network, TensorNetwork};

    fn program() -> TnvmProgram {
        let circuit = builders::pqc_qubit_ladder(3, 1).unwrap();
        compile_network(&TensorNetwork::from_circuit(&circuit))
    }

    #[test]
    fn def_use_chains_cover_every_instruction() {
        let p = program();
        let chains = DefUseChains::build(&p);
        assert_eq!(chains.buffers.len(), p.buffers.len());
        // Single-assignment: every buffer written at most once, and the output
        // buffer has a definition.
        assert!(chains.buffers[p.output].def.is_some());
        let total_uses: usize = chains.buffers.iter().map(|du| du.uses.len()).sum();
        let total_inputs: usize =
            p.constant_ops.iter().chain(p.dynamic_ops.iter()).map(|op| op.inputs().len()).sum();
        assert_eq!(total_uses, total_inputs);
        // Codegen never emits dead instructions on its own output.
        assert!(chains.dead_buffers(&p).is_empty());
    }

    #[test]
    fn liveness_is_a_fixed_point_and_output_is_live_at_exit() {
        // The ladder, plus two-layer templates over qutrit and mixed radices.
        let templates = [
            (vec![3usize, 3], vec![(0usize, 1usize); 2]),
            (vec![2, 3, 2], vec![(0, 1), (1, 2), (0, 1), (1, 2)]),
        ];
        let mut programs = vec![program()];
        for (radices, edges) in templates {
            let circuit = builders::pqc_template(&radices, &edges).unwrap();
            programs.push(compile_network(&TensorNetwork::from_circuit(&circuit)));
        }
        for p in programs {
            let live = Liveness::compute(&p);
            assert!(live.is_fixed_point(&p));
            assert_eq!(live.len(), p.len());
            assert!(live.live_out(p.len() - 1).contains(&p.output));
        }
    }

    #[test]
    fn constant_buffers_read_dynamically_stay_live_across_the_dynamic_section() {
        let p = program();
        let live = Liveness::compute(&p);
        // Any buffer a dynamic op reads that the constant section wrote must be
        // live on entry to every dynamic instruction up to its last use —
        // including the first, via the back edge.
        let constant_written: BTreeSet<BufId> = p.constant_ops.iter().map(TnvmOp::out).collect();
        let dynamic_reads_constant =
            p.dynamic_ops.iter().flat_map(TnvmOp::inputs).any(|b| constant_written.contains(&b));
        if dynamic_reads_constant && !p.dynamic_ops.is_empty() {
            let first_dynamic = p.constant_ops.len();
            let cross: Vec<BufId> = p
                .dynamic_ops
                .iter()
                .flat_map(TnvmOp::inputs)
                .filter(|b| constant_written.contains(b))
                .collect();
            for b in cross {
                assert!(
                    live.live_in(first_dynamic).contains(&b),
                    "constant buffer {b} read by the dynamic section must be live at its head"
                );
            }
        }
    }

    #[test]
    fn interference_relates_simultaneously_live_buffers_only() {
        let p = program();
        let live = Liveness::compute(&p);
        let graph = InterferenceGraph::build(&p, &live);
        assert_eq!(graph.len(), p.buffers.len());
        // An instruction's output always interferes with its live inputs.
        for (i, op) in p.constant_ops.iter().chain(p.dynamic_ops.iter()).enumerate() {
            for input in op.inputs() {
                if live.live_out(i).contains(&input) || live.live_in(i).contains(&input) {
                    assert!(graph.interferes(op.out(), input));
                }
            }
        }
        // Interference is irreflexive and symmetric.
        for a in 0..graph.len() {
            assert!(!graph.interferes(a, a));
            for b in 0..graph.len() {
                assert_eq!(graph.interferes(a, b), graph.interferes(b, a));
            }
        }
    }
}
