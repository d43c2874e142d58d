//! # qudit-qvm
//!
//! The expression "JIT" of the OpenQudit reproduction.
//!
//! The paper lowers each unique QGL expression to native code with LLVM at TNVM
//! initialization time. This crate provides the equivalent stage as a register-bytecode
//! expression virtual machine: symbolic simplification via `qudit-egraph`, emission of a
//! flat, CSE-deduplicated register program, and an [`ExpressionCache`] that guarantees
//! each unique expression is compiled once per process. The workspace builds with the
//! stock Rust toolchain and no LLVM bindings, so a tight interpreter loop stands in for
//! native code. It evaluates the same simplified expressions with the same shared
//! subexpressions; what differs is the cost of dispatching each instruction.
//!
//! # Example
//!
//! ```
//! use qudit_qgl::UnitaryExpression;
//! use qudit_qvm::{CompiledExpression, CompileOptions};
//!
//! let rx = UnitaryExpression::new(
//!     "RX(t) { [[cos(t/2), ~i*sin(t/2)], [~i*sin(t/2), cos(t/2)]] }",
//! )?;
//! let compiled = CompiledExpression::compile(&rx, &CompileOptions::with_gradient());
//! let (unitary, grads) = compiled.evaluate_with_gradient::<f64>(&[0.7]);
//! assert!(unitary.is_unitary(1e-12));
//! assert_eq!(grads.len(), 1);
//! # Ok::<(), qudit_qgl::QglError>(())
//! ```

pub mod cache;
pub mod compile;
pub mod program;

pub use cache::{global_cache, CacheStats, ExpressionCache};
pub use compile::{write_unitary_into, CompileOptions, CompiledExpression, DiffMode};
pub use program::{ExprProgram, Instr, OutputSlot, Reg};
