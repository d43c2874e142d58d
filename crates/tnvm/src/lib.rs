//! # qudit-tnvm
//!
//! The Tensor Network Virtual Machine (TNVM) runtime of the OpenQudit reproduction.
//!
//! A [`Tnvm`] is instantiated once per compiled circuit (choosing the numerical precision
//! `f32`/`f64` and the differentiation mode), performs all expensive preparation up front
//! (arena allocation, eager expression compilation through the shared
//! [`qudit_qvm::ExpressionCache`], constant-section execution), and then serves fast
//! repeated [`Tnvm::evaluate`] calls inside the numerical optimization loop.
//!
//! ```
//! use qudit_circuit::builders;
//! use qudit_network::{compile_network, TensorNetwork};
//! use qudit_qvm::{DiffMode, ExpressionCache};
//! use qudit_tnvm::Tnvm;
//!
//! // (1) Ahead-of-time compilation (once per PQC).
//! let circuit = builders::pqc_qubit_ladder(3, 2)?;
//! let network = TensorNetwork::from_circuit(&circuit);
//! let code = compile_network(&network);
//!
//! // (2) TNVM initialization.
//! let cache = ExpressionCache::new();
//! let mut tnvm: Tnvm<f64> = Tnvm::new(&code, DiffMode::Gradient, &cache);
//!
//! // (3) Fast evaluation loop.
//! let params = vec![0.1; circuit.num_params()];
//! let result = tnvm.evaluate(&params);
//! assert!(result.unitary.is_unitary(1e-10));
//! assert_eq!(result.gradient.len(), circuit.num_params());
//! # Ok::<(), qudit_circuit::CircuitError>(())
//! ```
//!
//! Each bytecode operation has one kernel: MATMUL runs `qudit_tensor::gemm`'s
//! `matmul_into`/`matmul_acc_into`, KRON the row-restructured
//! `qudit_tensor::kron::kron_into`/`kron_acc_into`, and HADAMARD the element-wise
//! `gemm::hadamard_into`/`hadamard_acc_into`. The same inputs give the same bits on
//! every run.

pub mod counters;
pub mod vm;

pub use counters::KernelCounters;
pub use vm::{EvalResult, Tnvm};
