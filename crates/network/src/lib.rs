//! # qudit-network
//!
//! The ahead-of-time (AOT) compiler of the OpenQudit reproduction: it lowers a
//! [`qudit_circuit::QuditCircuit`] into a tensor-network representation, solves the
//! contraction-ordering problem with a hybrid optimal/greedy strategy, materializes a
//! binary contraction tree (with trace absorption and transpose fusion into leaf
//! expressions), and serializes the result into the two-section TNVM bytecode of
//! Table II in the paper.
//!
//! ```
//! use qudit_circuit::builders;
//! use qudit_network::{compile_network, TensorNetwork};
//!
//! let circuit = builders::pqc_qubit_ladder(3, 2)?;
//! let network = TensorNetwork::from_circuit(&circuit);
//! let program = compile_network(&network);
//! assert_eq!(program.dim(), 8);
//! program.validate().expect("bytecode is well-formed");
//! # Ok::<(), qudit_circuit::CircuitError>(())
//! ```

pub mod bytecode;
pub mod network;
pub mod path;

pub use bytecode::{
    compile_network, try_compile_network, BufId, BufferInfo, BytecodeError, InstrRef, TnvmOp,
    TnvmProgram,
};
pub use network::{GateNode, ParamBinding, TensorNetwork};
pub use path::{find_plan, ContractionPlan, ContractionTree, PlanKind, OPTIMAL_THRESHOLD};
