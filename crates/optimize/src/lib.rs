//! # qudit-optimize
//!
//! Numerical instantiation for the OpenQudit reproduction: the Hilbert–Schmidt cost
//! function of Eq. (1), a from-scratch (deliberately naive, per Sec. VI-A of the paper)
//! Levenberg–Marquardt optimizer, single- and multi-start instantiation drivers with
//! early termination, Haar-random target sampling, and the TNVM-backed
//! [`GradientEvaluator`] adapter.
//!
//! ```
//! use qudit_circuit::builders;
//! use qudit_optimize::{instantiate_circuit, reachable_target, InstantiateConfig};
//! use qudit_qvm::ExpressionCache;
//!
//! let circuit = builders::pqc_qubit_ladder(2, 1)?;
//! let target = reachable_target(&circuit, 7);
//! let cache = ExpressionCache::new();
//! let config = InstantiateConfig { starts: 4, ..Default::default() };
//! let result = instantiate_circuit(&circuit, &target, &config, &cache);
//! assert!(result.infidelity < 1e-4);
//! # Ok::<(), qudit_circuit::CircuitError>(())
//! ```

pub mod cost;
pub mod instantiate;
pub mod lm;

pub use cost::{hs_infidelity, jacobian_column_into, residual_len, residuals_into, sum_of_squares};
pub use instantiate::{
    haar_random_unitary, instantiate, instantiate_circuit, instantiate_circuit_mapped,
    instantiate_parallel, instantiate_parallel_until, instantiate_until, reachable_target,
    resolve_threads, warm_cache, warm_start_from_mapping, InstantiateConfig, InstantiationResult,
    TnvmEvaluator, SUCCESS_THRESHOLD,
};
pub use lm::{
    minimize, solve_linear_system, GradientEvaluator, LmConfig, LmResult, LmStats, LmStop,
};
