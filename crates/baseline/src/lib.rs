//! # qudit-baseline
//!
//! A "traditional numerical compiler" baseline for the OpenQudit reproduction.
//!
//! The paper compares OpenQudit against BQSKit (and, for construction, Qiskit and Tket).
//! Those are out-of-process Python stacks; this crate reproduces the *strategy* they
//! embody so the comparison can run in-repo, in the same process and on the same
//! optimizer: hand-written gate classes with manually derived analytical gradients (Listing 1 of the paper),
//! per-append safety/equality checks during circuit construction, and unitary/gradient
//! evaluation by accumulating full-width embedded matrices. The baseline plugs into the
//! same Levenberg–Marquardt optimizer as the TNVM path through
//! [`qudit_optimize::GradientEvaluator`].

pub mod circuit;
pub mod gates;

pub use circuit::{BaselineCircuit, BaselineError, BaselineEvaluator, Result};
pub use gates::{
    gate_by_name, BaselineGate, CPhaseGate, ConstantGate, QutritPhaseGate, QutritUGate, RxGate,
    RzGate, RzzGate, U3Gate,
};
