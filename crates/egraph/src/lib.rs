//! # qudit-egraph
//!
//! E-graph based symbolic simplification for the OpenQudit reproduction.
//!
//! The paper uses equality saturation (via the EGG library) to simplify QGL expressions
//! and their automatically-derived gradients before JIT compilation. This crate
//! re-implements that machinery from scratch:
//!
//! * [`language`] — the e-node language and rewrite-pattern syntax,
//! * [`egraph`] — union-find e-classes, hash-consing, congruence closure, e-matching,
//! * [`rewrite`] — rewrite rules and the saturation runner with iteration/node limits,
//! * [`rules`] — the identity corpus (arithmetic, trigonometric, exponential),
//! * [`cost`] — the extraction cost model of Table I,
//! * [`extract`] — the greedy bottom-up, CSE-aware extraction heuristic,
//! * [`simplify`](mod@simplify) — the batch simplification entry point used by the expression JIT,
//! * [`fold`] — constant folding of *instantiated* parameter values (snapping to
//!   0/±π/2/±π/±2π and folding the substituted gate expressions), used by the
//!   post-synthesis refinement pass.
//!
//! # Example
//!
//! ```
//! use qudit_egraph::simplify::simplify;
//! use qudit_qgl::Expr;
//!
//! // sin²t + cos²t simplifies to 1.
//! let t = Expr::var("t");
//! let e = Expr::Add(
//!     std::sync::Arc::new(Expr::mul(Expr::sin(t.clone()), Expr::sin(t.clone()))),
//!     std::sync::Arc::new(Expr::mul(Expr::cos(t.clone()), Expr::cos(t))),
//! );
//! assert_eq!(simplify(&e), Expr::one());
//! ```

pub mod cost;
pub mod egraph;
pub mod extract;
pub mod fold;
pub mod language;
#[cfg(test)]
mod oracle;
pub mod rewrite;
pub mod rules;
pub mod simplify;

pub use cost::OpCost;
pub use egraph::EGraph;
pub use extract::GreedyExtractor;
pub use fold::{fold_elements, fold_params, snap_to_symbolic, ParamFold, SymbolicSnap};
pub use language::{Id, Node, Op, Pattern};
pub use rewrite::{Rewrite, RunReport, Runner, SlotPattern, StopReason};
pub use simplify::{simplify, simplify_batch, simplify_batch_with, SimplifyConfig, SimplifyResult};
