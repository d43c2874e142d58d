//! # qudit-synth
//!
//! An instantiation-driven, bottom-up synthesis engine in the QSearch style — the
//! workload the rest of the OpenQudit reproduction exists to accelerate: numerical
//! instantiation is fast enough (TNVM evaluation + shared `ExpressionCache`) to sit in
//! the inner loop of a search over circuit templates.
//!
//! The engine is a pipeline: **search → refine**.
//!
//! * [`topology`] — [`CouplingGraph`]: which qudit pairs may be entangled,
//! * [`GateSet`] — the pluggable building-block registry: one general local gate per
//!   radix and one entangler per (unordered) radix pair, each a plain QGL
//!   [`UnitaryExpression`](qudit_qgl::UnitaryExpression) validated at registration
//!   (arity + numerical unitarity). [`GateSet::default_for`] supplies CNOT/U3 for
//!   qubits, CSUM/the general qutrit gate for qutrits, and the embedded
//!   controlled-shift `CSHIFT23` for mixed qubit–qutrit `(2, 3)` edges,
//! * [`layers`] — [`LayerGenerator`]: expands a candidate by one two-qudit building
//!   block (the pair's registered entangler + the per-wire registered locals) along a
//!   coupling edge, incrementally extending both the circuit and its tensor network,
//! * [`bound`] — [`CutBound`]: a lower bound on a template's infidelity at every
//!   parameter vector, from the target's operator-Schmidt spectra across small qudit
//!   cuts and the ranks of the template's crossing entanglers. On two qubits with a
//!   CNOT-equivalent entangler it adds a term for templates of at most two blocks:
//!   such a template realizes at most two CNOTs, whose Shende–Markov–Bullock
//!   invariant `tr γ` is real, so the imaginary part `y` of the target's normalized
//!   invariant gives an infidelity of at least `y²/(128·(1 + π/2)²)` (proof in the
//!   module docs). A template whose bound exceeds 100× the success threshold is
//!   *certified* hopeless, and no LM run is spent on it; the partition pass runs a
//!   certified round once, only as the next round's warm start,
//! * [`search`] / [`frontier`] — an A*/beam search whose cost combines instantiated
//!   Hilbert–Schmidt infidelity with gate count, evaluating all uncertified candidate
//!   expansions of a node concurrently (one TNVM per worker, re-targeted in place per
//!   candidate, all sharing one expression cache), ranking certified ones by their
//!   bound, and exiting as soon as a candidate drops below the success threshold,
//! * [`refine`](mod@refine) — a post-synthesis pass over the successful result:
//!   entangling blocks are speculatively deleted one at a time, in order of their
//!   entangling residual, with the shrunken template warm-start re-instantiated
//!   through exact parameter mappings unless the cut bound certifies it hopeless, and
//!   parameters that landed on symbolic constants (0, ±π/2, ±π, ±2π) are snapped and
//!   e-graph constant-folded. A deletion is kept only when the re-instantiated
//!   infidelity stays under the success threshold. The two stages
//!   ([`refine_deletions`], [`fold_constants`]) are composed only by `qudit-compile`'s
//!   pass pipeline.
//!
//! # Determinism guarantees
//!
//! Two synthesis runs with the same configuration (including `seed`) produce
//! **byte-identical** results — blocks, parameters, and infidelity — regardless of
//! the worker-thread count or scheduling:
//!
//! * every candidate's instantiation seed derives from its block sequence
//!   ([`frontier::candidate_seed`], collision-audited over short sequences), never
//!   from queue order;
//! * multi-start early termination resolves by the lowest successful *start index*
//!   (`qudit-optimize`), so a parallel multi-start equals the serial loop bit for bit;
//! * the frontier's `stop_on_success` truncates to the candidates at or below the
//!   lowest successful *candidate index*, and the search then picks the winner by the
//!   total order `(f, blocks.len(), blocks)` — the same order the open list uses;
//! * the refinement pass orders deletion attempts by a deterministic entangling
//!   residual and seeds each re-instantiation from the surviving block sequence;
//! * the cut bound's spectra come from a cyclic-Jacobi eigensolver with a fixed pivot
//!   order, so which nodes and attempts are certified is deterministic too.
//!
//! # Example
//!
//! Synthesize a CNOT from scratch on a two-qubit line. [`run_search`] is the raw
//! engine stage; production callers should compose the stages through
//! `qudit-compile`'s `Compiler` (the `openqudit` prelude re-exports it), which also
//! schedules the [`refine_deletions`] / [`fold_constants`] stages and reports
//! per-pass timings:
//!
//! ```
//! use qudit_circuit::gates;
//! use qudit_qvm::ExpressionCache;
//! use qudit_synth::{run_search, SynthesisConfig};
//!
//! let target = gates::cnot().to_matrix::<f64>(&[])?;
//! let result = run_search(&target, &SynthesisConfig::qubits(2), &ExpressionCache::new())?;
//! assert!(result.success);
//! assert!(result.infidelity < 1e-8);
//! assert_eq!(result.blocks, vec![(0, 1)]); // one entangling block suffices
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Custom gate sets
//!
//! Any QGL unitary expression can serve as a building block — the paper's
//! extensibility claim made concrete. Register it and the whole pipeline
//! (instantiation, JIT compilation, search, refinement) uses it unchanged:
//!
//! ```
//! use qudit_circuit::gates;
//! use qudit_qvm::ExpressionCache;
//! use qudit_synth::{run_search, GateSet, SynthesisConfig};
//!
//! // Synthesize over an RZZ-entangler gate set instead of the default CNOT.
//! let mut gate_set = GateSet::new();
//! gate_set.register_local(gates::u3())?;
//! gate_set.register_entangler(gates::rzz())?;
//!
//! let mut config = SynthesisConfig::qubits(2);
//! config.gate_set = gate_set;
//! let target = gates::cz().to_matrix::<f64>(&[])?;
//! let result = run_search(&target, &config, &ExpressionCache::new())?;
//! assert!(result.success);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Mixed-radix systems work out of the box: `SynthesisConfig::with_radices(vec![2, 3])`
//! registers the embedded controlled-shift entangler for the qubit–qutrit edge, and
//! ququart (radix-4) systems draw on the registered `QuquartU`/`CSUM4` pair.

pub mod bound;
pub mod frontier;
pub mod layers;
pub mod refine;
pub mod search;
pub mod topology;

pub use bound::{entangler_rank, CutBound};
pub use frontier::{candidate_seed, evaluate_frontier, Candidate, EvaluatedCandidate};
pub use layers::LayerGenerator;
pub use qudit_circuit::GateSet;
pub use refine::{entangling_residual, fold_constants, refine_deletions, FoldConfig, RefineConfig};
pub use search::{run_search, validate_target, SynthesisConfig, SynthesisResult};
pub use topology::CouplingGraph;

/// Errors produced while configuring or running a synthesis search.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthesisError {
    /// The gate-set registry has no local gate for this radix.
    UnsupportedRadix(usize),
    /// The coupling graph is inconsistent with the radices, disconnected, or empty —
    /// or an edge's radix pair has no registered entangler (the message names the
    /// registry lookup key).
    InvalidCoupling(String),
    /// The target matrix has the wrong shape or is not unitary.
    InvalidTarget(String),
    /// A circuit-construction step failed.
    Circuit(qudit_circuit::CircuitError),
}

impl std::fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthesisError::UnsupportedRadix(radix) => {
                write!(f, "no synthesis gate set registered for radix {radix}")
            }
            SynthesisError::InvalidCoupling(detail) => write!(f, "invalid coupling: {detail}"),
            SynthesisError::InvalidTarget(detail) => write!(f, "invalid target: {detail}"),
            SynthesisError::Circuit(e) => write!(f, "circuit construction failed: {e}"),
        }
    }
}

impl std::error::Error for SynthesisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SynthesisError::Circuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<qudit_circuit::CircuitError> for SynthesisError {
    fn from(e: qudit_circuit::CircuitError) -> Self {
        SynthesisError::Circuit(e)
    }
}
