//! A from-scratch Levenberg–Marquardt optimizer.
//!
//! The paper deliberately evaluates OpenQudit with a *naive* LM implementation so that the
//! measured speedups isolate the cost of the underlying unitary/gradient evaluation
//! (Sec. VI-A). This module is that optimizer; both the TNVM-backed path and the
//! BQSKit-style baseline engine drive it through the same [`GradientEvaluator`] trait, so
//! optimizer quality is never a confounder in the benchmarks.
//!
//! Naive in its method, not in its overhead: a run allocates its workspace once (the
//! Jacobian, `JᵀJ`, `−Jᵀr`, the damped system, the step, the candidate point and its
//! residuals) and swaps the candidate buffers in when it accepts a step, so the loop
//! allocates nothing per iteration beyond the unitary each trial evaluation returns. A
//! TNVM-backed evaluator writes the Jacobian's columns straight into that workspace
//! ([`GradientEvaluator::deferred_jacobian`]). Every iterate is bit-identical to the
//! textbook loop's: the normal equations and the solver are checked against serial,
//! index-addressed oracles in the tests.

use qudit_tensor::Matrix;
use qudit_tnvm::KernelCounters;
use qudit_trace::TraceRegistry;

use crate::cost::{jacobian_column_into, residual_len, residuals_into, sum_of_squares};

/// Anything that can produce a unitary and its gradient for a parameter vector.
///
/// Implemented by the TNVM adapter ([`TnvmEvaluator`](crate::TnvmEvaluator), in
/// `instantiate.rs`) and by the baseline engine in `qudit-baseline`.
///
/// # Deferred gradients
///
/// [`minimize`] judges each trial step by its unitary alone and needs the gradient
/// only at points it accepts. An evaluator that can split its work overrides
/// [`GradientEvaluator::evaluate_trial`] to return `None` for the gradient, and
/// [`GradientEvaluator::deferred_jacobian`] to finish it later as the least-squares
/// Jacobian LM works on. The defaults evaluate eagerly, so an implementor that defines
/// only [`GradientEvaluator::evaluate`] does exactly the work it always did.
pub trait GradientEvaluator {
    /// Number of real parameters.
    fn num_params(&self) -> usize;
    /// The unitary dimension.
    fn dim(&self) -> usize;
    /// Evaluates the unitary and all partial derivatives at `params`.
    fn evaluate(&mut self, params: &[f64]) -> (Matrix<f64>, Vec<Matrix<f64>>);
    /// Evaluates the unitary at `params`, and the gradient unless the evaluator
    /// defers it. After a `None`, [`GradientEvaluator::deferred_jacobian`] writes the
    /// gradient at these parameters until the next evaluation.
    fn evaluate_trial(&mut self, params: &[f64]) -> (Matrix<f64>, Option<Vec<Matrix<f64>>>) {
        let (unitary, gradient) = self.evaluate(params);
        (unitary, Some(gradient))
    }
    /// Writes the gradient at the parameters of the last
    /// [`GradientEvaluator::evaluate_trial`], which returned `None` for it, into
    /// `jacobian` as column-major Jacobian columns: with `m = 2·dim²`
    /// ([`residual_len`]), column `k` at `[k·m, (k+1)·m)` is what
    /// [`jacobian_column_into`] writes for `∂U/∂θₖ`, bit for bit. `jacobian` holds
    /// exactly `m · num_params` entries.
    ///
    /// # Panics
    ///
    /// The default panics: an evaluator whose trials never defer is never asked.
    fn deferred_jacobian(&mut self, _jacobian: &mut [f64]) {
        panic!("this evaluator evaluates trials eagerly and defers no gradient")
    }
    /// Returns and resets the evaluator's accumulated kernel-dispatch counters.
    ///
    /// The default (for evaluators without a TNVM underneath, like the baseline
    /// engine) reports nothing; the TNVM adapter delegates to its VM. Instantiation
    /// drains this after every optimization start so kernel work can be attributed to
    /// deterministic join points.
    fn take_kernel_counters(&mut self) -> KernelCounters {
        KernelCounters::default()
    }
}

/// Configuration of the Levenberg–Marquardt loop.
#[derive(Debug, Clone)]
pub struct LmConfig {
    /// Maximum number of LM iterations.
    pub max_iterations: usize,
    /// Initial damping factor λ.
    pub initial_lambda: f64,
    /// Multiplicative λ adjustment factor.
    pub lambda_factor: f64,
    /// Stop when the sum of squared residuals falls below this value.
    pub cost_tolerance: f64,
    /// Stop when the step norm falls below this value.
    pub step_tolerance: f64,
    /// Stop as [`LmStop::Plateau`] when the cost fell by less than 1% over the last
    /// `plateau_window` iterations. `0` (the default) turns the rule off.
    pub plateau_window: usize,
}

impl Default for LmConfig {
    fn default() -> Self {
        LmConfig {
            max_iterations: 100,
            initial_lambda: 1e-3,
            lambda_factor: 10.0,
            cost_tolerance: 1e-16,
            step_tolerance: 1e-12,
            plateau_window: 0,
        }
    }
}

/// The relative cost decrease a run must make over [`LmConfig::plateau_window`]
/// iterations to keep going.
const PLATEAU_DECREASE: f64 = 0.01;

/// Column count from which the normal equations are assembled from packed panels
/// rather than straight from the Jacobian's columns. Below it the packing costs more
/// than its contiguous loads save.
const PANEL_MIN_COLUMNS: usize = 32;

/// Lane width of the packed-panel assembly.
const NE_PANEL: usize = 8;

/// Assembles `JᵀJ` and `−Jᵀr` from the column-major `m × n` Jacobian.
///
/// Every dot product is **bit-identical** to a strictly serial `Iterator::sum` over its
/// `m` terms (the `#[cfg(test)]` oracle below): each one accumulates in ascending index
/// order through its own chain, which starts at `−0.0` like `sum` does. The speed comes
/// from running up to eight *independent* chains side by side — one serial chain is
/// add-latency bound, and strict floating-point semantics forbid splitting it. Small
/// problems read the lanes straight from the Jacobian's columns; from
/// [`PANEL_MIN_COLUMNS`] on, each run of eight columns is first interleaved into one
/// row-major panel so the lanes load contiguously.
fn assemble_normal_equations(
    jacobian: &[f64],
    residuals: &[f64],
    m: usize,
    n: usize,
    jtj: &mut [f64],
    jtr: &mut [f64],
    packed: &mut Vec<f64>,
) {
    if n >= PANEL_MIN_COLUMNS {
        assemble_from_panels(jacobian, residuals, m, n, jtj, jtr, packed);
        return;
    }
    for a in 0..n {
        dot_columns(&jacobian[a * m..(a + 1) * m], jacobian, m, a, n, &mut jtj[a * n..(a + 1) * n]);
        for b in a + 1..n {
            jtj[b * n + a] = jtj[a * n + b];
        }
    }
    dot_columns(residuals, jacobian, m, 0, n, jtr);
    for v in jtr.iter_mut() {
        *v = -*v;
    }
}

/// Writes `out[b] = x · J[:, b]` for every column `b` in `first..n`, eight, four, two
/// or one columns at a time.
fn dot_columns(x: &[f64], jacobian: &[f64], m: usize, first: usize, n: usize, out: &mut [f64]) {
    let mut b = first;
    while b < n {
        b += match n - b {
            8.. => dot_lanes::<8>(x, jacobian, m, b, out),
            4..=7 => dot_lanes::<4>(x, jacobian, m, b, out),
            2 | 3 => dot_lanes::<2>(x, jacobian, m, b, out),
            _ => dot_lanes::<1>(x, jacobian, m, b, out),
        };
    }
}

/// `L` independent dot-product chains of `x` against columns `b..b + L`.
fn dot_lanes<const L: usize>(
    x: &[f64],
    jacobian: &[f64],
    m: usize,
    b: usize,
    out: &mut [f64],
) -> usize {
    let columns: [&[f64]; L] =
        std::array::from_fn(|lane| &jacobian[(b + lane) * m..(b + lane + 1) * m]);
    let mut acc = [-0.0f64; L];
    for (i, &xi) in x.iter().enumerate() {
        for (acc, column) in acc.iter_mut().zip(&columns) {
            *acc += xi * column[i];
        }
    }
    out[b..b + L].copy_from_slice(&acc);
    L
}

/// The packed-panel form of [`assemble_normal_equations`] for wide problems.
fn assemble_from_panels(
    jacobian: &[f64],
    residuals: &[f64],
    m: usize,
    n: usize,
    jtj: &mut [f64],
    jtr: &mut [f64],
    packed: &mut Vec<f64>,
) {
    let panels = n.div_ceil(NE_PANEL);
    packed.clear();
    packed.resize(panels * m * NE_PANEL, 0.0);
    // Interleave each run of NE_PANEL Jacobian columns: row `i` of panel `t` holds
    // element `i` of columns `t*NE_PANEL..(t+1)*NE_PANEL` (zero-padded ragged tail).
    for t in 0..panels {
        let panel = &mut packed[t * m * NE_PANEL..(t + 1) * m * NE_PANEL];
        for jj in 0..NE_PANEL.min(n - t * NE_PANEL) {
            let col = &jacobian[(t * NE_PANEL + jj) * m..(t * NE_PANEL + jj + 1) * m];
            for (i, &value) in col.iter().enumerate() {
                panel[i * NE_PANEL + jj] = value;
            }
        }
    }
    for a in 0..n {
        let col_a = &jacobian[a * m..(a + 1) * m];
        // Only panels containing some column b ≥ a are needed; the boundary panel
        // computes (and discards) up to NE_PANEL−1 dots with b < a.
        for t in a / NE_PANEL..panels {
            let panel = &packed[t * m * NE_PANEL..(t + 1) * m * NE_PANEL];
            let mut acc = [-0.0f64; NE_PANEL];
            for (i, &x) in col_a.iter().enumerate() {
                let row = <&[f64; NE_PANEL]>::try_from(&panel[i * NE_PANEL..(i + 1) * NE_PANEL])
                    .expect("panel row width");
                for (lane, acc) in acc.iter_mut().enumerate() {
                    *acc += x * row[lane];
                }
            }
            for (lane, dot) in acc.into_iter().enumerate() {
                let b = t * NE_PANEL + lane;
                if b >= a && b < n {
                    jtj[a * n + b] = dot;
                    jtj[b * n + a] = dot;
                }
            }
        }
    }
    // Jᵀr reuses the packed panels: lanes are still columns, the shared operand is r.
    for t in 0..panels {
        let panel = &packed[t * m * NE_PANEL..(t + 1) * m * NE_PANEL];
        let mut acc = [-0.0f64; NE_PANEL];
        for (i, &r) in residuals.iter().enumerate() {
            let row = <&[f64; NE_PANEL]>::try_from(&panel[i * NE_PANEL..(i + 1) * NE_PANEL])
                .expect("panel row width");
            for (lane, acc) in acc.iter_mut().enumerate() {
                *acc += row[lane] * r;
            }
        }
        for (lane, dot) in acc.into_iter().enumerate() {
            let b = t * NE_PANEL + lane;
            if b < n {
                jtr[b] = -dot;
            }
        }
    }
}

/// Why a Levenberg–Marquardt run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LmStop {
    /// The sum of squared residuals fell below [`LmConfig::cost_tolerance`].
    CostTolerance,
    /// An accepted step was shorter than [`LmConfig::step_tolerance`].
    StepTolerance,
    /// No damping value produced a decrease.
    Stalled,
    /// [`LmConfig::max_iterations`] ran out.
    IterationCap,
    /// The starting point's cost was NaN or infinite, so no step could be judged.
    NonFinite,
    /// The cost fell by less than 1% over the last [`LmConfig::plateau_window`]
    /// iterations.
    Plateau,
}

impl LmStop {
    /// Every stop reason, in declaration order (which indexes [`LmStats::stops`]).
    pub const ALL: [LmStop; 6] = [
        LmStop::CostTolerance,
        LmStop::StepTolerance,
        LmStop::Stalled,
        LmStop::IterationCap,
        LmStop::NonFinite,
        LmStop::Plateau,
    ];

    /// Stable name used in the `lm.stop.<name>` counters.
    pub fn name(self) -> &'static str {
        match self {
            LmStop::CostTolerance => "cost_tolerance",
            LmStop::StepTolerance => "step_tolerance",
            LmStop::Stalled => "stalled",
            LmStop::IterationCap => "iteration_cap",
            LmStop::NonFinite => "non_finite",
            LmStop::Plateau => "plateau",
        }
    }
}

/// The outcome of one LM run.
#[derive(Debug, Clone)]
pub struct LmResult {
    /// The best parameters found.
    pub params: Vec<f64>,
    /// The final sum of squared residuals.
    pub cost: f64,
    /// Number of iterations executed.
    pub iterations: usize,
    /// Why the run stopped: a tolerance criterion, a stall, a plateau, or the
    /// iteration cap.
    pub stop: LmStop,
    /// Trial steps evaluated (one per damped solve that produced a step).
    pub trials: usize,
    /// Trial steps that did not decrease the cost. None of them paid for a gradient
    /// when the evaluator defers it.
    pub rejected: usize,
}

/// Why-records of a set of LM runs: trial and rejection totals and stop reasons.
/// Deterministic, so instantiation records them at its join points next to
/// `lm.iterations`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LmStats {
    /// Trial steps evaluated.
    pub trials: u64,
    /// Trial steps rejected.
    pub rejected: u64,
    /// Runs per stop reason, indexed like [`LmStop::ALL`].
    pub stops: [u64; LmStop::ALL.len()],
}

impl LmStats {
    /// The stats of one run.
    pub fn of(result: &LmResult) -> LmStats {
        let mut stops = [0; LmStop::ALL.len()];
        stops[result.stop as usize] = 1;
        LmStats { trials: result.trials as u64, rejected: result.rejected as u64, stops }
    }

    /// Adds `other`'s counts into `self`.
    pub fn merge(&mut self, other: &LmStats) {
        self.trials += other.trials;
        self.rejected += other.rejected;
        for (a, b) in self.stops.iter_mut().zip(other.stops) {
            *a += b;
        }
    }

    /// Records `lm.trials`, `lm.trials.rejected` and the nonzero `lm.stop.<reason>`
    /// counts into `trace`.
    pub fn record_into(&self, trace: &TraceRegistry) {
        trace.add("lm.trials", self.trials);
        trace.add("lm.trials.rejected", self.rejected);
        for (stop, count) in LmStop::ALL.iter().zip(self.stops) {
            if count > 0 {
                trace.add(&format!("lm.stop.{}", stop.name()), count);
            }
        }
    }
}

/// Minimizes `‖U(θ) − U_target‖²` (element-wise least squares) with Levenberg–Marquardt.
///
/// Trial steps go through [`GradientEvaluator::evaluate_trial`]. A deferred gradient
/// is finished only when the next iteration needs it, so neither rejected trials nor
/// the point a run stops at pay for one. A start whose cost is NaN or infinite stops
/// at once with [`LmStop::NonFinite`], before any gradient. With
/// [`LmConfig::plateau_window`] set, a run whose cost has flattened stops with
/// [`LmStop::Plateau`] instead of creeping on to the iteration cap.
pub fn minimize(
    evaluator: &mut dyn GradientEvaluator,
    target: &Matrix<f64>,
    x0: &[f64],
    config: &LmConfig,
) -> LmResult {
    minimize_until(evaluator, target, x0, config, &never).expect("a run nobody abandons finishes")
}

/// A stop probe that never fires: the probe of every run nobody abandons.
pub(crate) fn never() -> bool {
    false
}

/// [`minimize`] that polls `abandon` at the top of every iteration and gives the run
/// up, returning `None`, as soon as it answers `true`. The parallel drivers pass a
/// probe that fires once a run's result can no longer be kept.
pub(crate) fn minimize_until(
    evaluator: &mut dyn GradientEvaluator,
    target: &Matrix<f64>,
    x0: &[f64],
    config: &LmConfig,
    abandon: &dyn Fn() -> bool,
) -> Option<LmResult> {
    minimize_with(evaluator, target, x0, config, assemble_normal_equations, abandon)
}

/// The shape of a normal-equations assembly: `(J, r, m, n, JᵀJ, −Jᵀr, scratch)`.
type Assembly = fn(&[f64], &[f64], usize, usize, &mut [f64], &mut [f64], &mut Vec<f64>);

/// [`minimize_until`] with the normal-equations assembly as a parameter, so the tests
/// can run the serial oracle through the same loop.
fn minimize_with(
    evaluator: &mut dyn GradientEvaluator,
    target: &Matrix<f64>,
    x0: &[f64],
    config: &LmConfig,
    assemble: Assembly,
    abandon: &dyn Fn() -> bool,
) -> Option<LmResult> {
    let n = evaluator.num_params();
    assert_eq!(x0.len(), n, "initial guess has wrong length");
    let m = residual_len(evaluator.dim());

    // The run's workspace. An accepted step swaps the candidate buffers in.
    let mut params = x0.to_vec();
    let mut candidate = vec![0.0; n];
    let mut residuals = vec![0.0; m];
    let mut cand_residuals = vec![0.0; m];
    let mut jacobian = vec![0.0; m * n]; // column-major: column k at [k*m .. (k+1)*m]
    let mut jtj = vec![0.0; n * n];
    let mut jtr = vec![0.0; n];
    let mut augmented = vec![0.0; n * (n + 1)]; // the damped system's rows [A | b]
    let mut step = vec![0.0; n];
    let mut packed: Vec<f64> = Vec::new(); // panel-assembly scratch
    let mut lambda = config.initial_lambda;

    // `grads` is `None` while the evaluator holds a deferred gradient for `params`.
    let (unitary, mut grads) = evaluator.evaluate_trial(&params);
    residuals_into(target, &unitary, &mut residuals);
    let mut cost = sum_of_squares(&residuals);

    let mut iterations = 0;
    let (mut trials, mut rejected) = (0, 0);
    if !cost.is_finite() {
        let stop = LmStop::NonFinite;
        return Some(LmResult { params, cost, iterations, stop, trials, rejected });
    }
    let mut stop = LmStop::IterationCap;
    // Ring of the costs at the top of the last `window` iterations: iteration `t`
    // writes slot `(t - 1) % window`, after reading the cost of iteration `t - window`.
    let window = config.plateau_window;
    let mut recent = vec![0.0; window];

    while iterations < config.max_iterations {
        if abandon() {
            return None;
        }
        iterations += 1;
        if cost < config.cost_tolerance {
            stop = LmStop::CostTolerance;
            break;
        }
        if window > 0 {
            let slot = (iterations - 1) % window;
            let old = recent[slot];
            if iterations > window && old - cost < PLATEAU_DECREASE * old {
                stop = LmStop::Plateau;
                break;
            }
            recent[slot] = cost;
        }
        // The Jacobian at the current point.
        match grads.take() {
            Some(current) => {
                for (g, column) in current.iter().zip(jacobian.chunks_exact_mut(m)) {
                    jacobian_column_into(g.as_slice(), column);
                }
            }
            None => evaluator.deferred_jacobian(&mut jacobian),
        }
        // Normal equations: (JᵀJ + λ diag(JᵀJ)) δ = −Jᵀ r.
        assemble(&jacobian, &residuals, m, n, &mut jtj, &mut jtr, &mut packed);

        let mut improved = false;
        for _ in 0..8 {
            for d in 0..n {
                let row = &mut augmented[d * (n + 1)..(d + 1) * (n + 1)];
                row[..n].copy_from_slice(&jtj[d * n..(d + 1) * n]);
                row[d] += lambda * jtj[d * n + d].max(1e-12);
                row[n] = jtr[d];
            }
            if !solve_linear_system(&mut augmented, n, &mut step) {
                lambda *= config.lambda_factor;
                continue;
            }
            let step_norm: f64 = step.iter().map(|s| s * s).sum::<f64>().sqrt();
            for ((c, p), s) in candidate.iter_mut().zip(&params).zip(&step) {
                *c = p + s;
            }
            trials += 1;
            let (cand_unitary, cand_grads) = evaluator.evaluate_trial(&candidate);
            residuals_into(target, &cand_unitary, &mut cand_residuals);
            let cand_cost = sum_of_squares(&cand_residuals);
            if cand_cost < cost {
                std::mem::swap(&mut params, &mut candidate);
                std::mem::swap(&mut residuals, &mut cand_residuals);
                grads = cand_grads;
                cost = cand_cost;
                lambda = (lambda / config.lambda_factor).max(1e-12);
                improved = true;
                if step_norm < config.step_tolerance {
                    stop = LmStop::StepTolerance;
                }
                break;
            }
            rejected += 1;
            lambda *= config.lambda_factor;
        }
        if !improved {
            // No damping value produced a decrease: treat as (local) convergence.
            stop = LmStop::Stalled;
            break;
        }
        if stop == LmStop::StepTolerance {
            break;
        }
    }
    Some(LmResult { params, cost, iterations, stop, trials, rejected })
}

/// Solves a dense symmetric positive-definite-ish system `A x = b` in place by Gaussian
/// elimination with partial pivoting. `augmented` holds the `n` rows `[A | b]`, row `r`
/// at `[r·(n+1), (r+1)·(n+1))`, and is overwritten; the solution goes to `x[..n]`.
/// Returns `false`, with `x` unspecified, if a pivot falls below `1e-300` (the system
/// is numerically singular).
///
/// Each elimination step subtracts a multiple of the pivot row's tail from the tail of
/// every row below it, skipping a row whose factor is zero, so the loops run over
/// slices. The entries left of the tails are never read again, so they are not
/// updated; every entry that is read gets the textbook operations in the textbook
/// order, so the solution is bit-identical to the index-addressed elimination the
/// tests keep as an oracle.
///
/// # Panics
///
/// Panics if `augmented` holds fewer than `n·(n+1)` entries or `x` fewer than `n`.
#[must_use]
pub fn solve_linear_system(augmented: &mut [f64], n: usize, x: &mut [f64]) -> bool {
    let width = n + 1;
    let augmented = &mut augmented[..n * width];
    let x = &mut x[..n];
    for col in 0..n {
        // The first row holding the largest magnitude in this column.
        let (mut pivot, mut best) = (col, augmented[col * width + col].abs());
        for (r, row) in augmented.chunks_exact(width).enumerate().skip(col + 1) {
            let v = row[col].abs();
            if v > best {
                best = v;
                pivot = r;
            }
        }
        if best < 1e-300 {
            return false;
        }
        let (above, below) = augmented.split_at_mut((col + 1) * width);
        let pivot_row = &mut above[col * width + col..];
        if pivot != col {
            let offset = (pivot - col - 1) * width;
            pivot_row.swap_with_slice(&mut below[offset + col..offset + width]);
        }
        let (diag, tail) = (pivot_row[0], &pivot_row[1..]);
        for row in below.chunks_exact_mut(width) {
            let factor = row[col] / diag;
            if factor == 0.0 {
                continue;
            }
            for (v, &p) in row[col + 1..].iter_mut().zip(tail) {
                *v -= factor * p;
            }
        }
    }
    // Every diagonal entry is its column's pivot, which passed the check above.
    for r in (0..n).rev() {
        let row = &augmented[r * width..(r + 1) * width];
        let mut acc = row[n];
        for (&a, &xk) in row[r + 1..n].iter().zip(&x[r + 1..]) {
            acc -= a * xk;
        }
        x[r] = acc / row[r];
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instantiate::TnvmEvaluator;
    use qudit_circuit::builders;
    use qudit_qvm::ExpressionCache;
    use qudit_tensor::{Matrix, C64};

    /// [`solve_linear_system`] on `A x = b`, with `A` row-major `n × n`.
    fn solve(a: &[f64], b: &[f64], n: usize) -> Option<Vec<f64>> {
        let mut augmented: Vec<f64> =
            (0..n).flat_map(|r| a[r * n..(r + 1) * n].iter().copied().chain([b[r]])).collect();
        let mut x = vec![f64::NAN; n];
        solve_linear_system(&mut augmented, n, &mut x).then_some(x)
    }

    #[test]
    fn linear_solver_inverts_small_systems() {
        // 2x2 system.
        let a = [4.0, 1.0, 1.0, 3.0];
        let b = [1.0, 2.0];
        let x = solve(&a, &b, 2).unwrap();
        assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
        assert!((x[0] + 3.0 * x[1] - 2.0).abs() < 1e-12);
        // Singular system returns None.
        let singular = [1.0, 2.0, 2.0, 4.0];
        assert!(solve(&singular, &b, 2).is_none());
    }

    /// The textbook solver: Gaussian elimination with partial pivoting on an
    /// index-addressed augmented matrix. The oracle the LM solver is checked against
    /// bit for bit.
    fn reference_solve(a: &[f64], b: &[f64], n: usize) -> Option<Vec<f64>> {
        let mut aug = vec![0.0; n * (n + 1)];
        for r in 0..n {
            aug[r * (n + 1)..r * (n + 1) + n].copy_from_slice(&a[r * n..(r + 1) * n]);
            aug[r * (n + 1) + n] = b[r];
        }
        for col in 0..n {
            let mut pivot = col;
            let mut best = aug[col * (n + 1) + col].abs();
            for r in col + 1..n {
                let v = aug[r * (n + 1) + col].abs();
                if v > best {
                    best = v;
                    pivot = r;
                }
            }
            if best < 1e-300 {
                return None;
            }
            if pivot != col {
                for k in 0..=n {
                    aug.swap(col * (n + 1) + k, pivot * (n + 1) + k);
                }
            }
            let diag = aug[col * (n + 1) + col];
            for r in col + 1..n {
                let factor = aug[r * (n + 1) + col] / diag;
                if factor == 0.0 {
                    continue;
                }
                for k in col..=n {
                    aug[r * (n + 1) + k] -= factor * aug[col * (n + 1) + k];
                }
            }
        }
        let mut x = vec![0.0; n];
        for r in (0..n).rev() {
            let mut acc = aug[r * (n + 1) + n];
            for k in r + 1..n {
                acc -= aug[r * (n + 1) + k] * x[k];
            }
            let diag = aug[r * (n + 1) + r];
            if diag.abs() < 1e-300 {
                return None;
            }
            x[r] = acc / diag;
        }
        Some(x)
    }

    #[test]
    fn linear_solver_is_bit_identical_to_reference() {
        // Seeded systems at the LM's sizes: dense ones (a pivot swap in most columns),
        // damped normal equations like LM's (diagonal pivots), ones with exact zeros
        // and −0.0 below the pivots (the zero-factor skip), singular ones (a zero
        // column), underflowing ones (every pivot below 1e-300) and non-finite ones.
        // Where the oracle returns `None`, so must the solver.
        let mut cases: Vec<(String, usize, Vec<f64>, Vec<f64>)> = Vec::new();
        for n in [1usize, 2, 3, 18, 32, 48, 84] {
            let seed = n as u64 * 1000;
            let dense = lcg_values(n * n, seed + 1);
            let b = lcg_values(n, seed + 2);
            let factor = lcg_values(2 * n * n, seed + 3);
            let mut damped: Vec<f64> = (0..n * n)
                .map(|ij| {
                    let (i, j) = (ij / n, ij % n);
                    (0..2 * n).map(|k| factor[k * n + i] * factor[k * n + j]).sum()
                })
                .collect();
            for d in 0..n {
                damped[d * n + d] += 1e-3 * damped[d * n + d].max(1e-12);
            }
            let sparse: Vec<f64> = dense
                .iter()
                .enumerate()
                .map(|(ij, &v)| match (ij / n).cmp(&(ij % n)) {
                    std::cmp::Ordering::Equal => v + 2.0,
                    _ if v < -0.25 => -0.0,
                    _ if v < 0.1 => 0.0,
                    _ => v,
                })
                .collect();
            let triangular: Vec<f64> = sparse
                .iter()
                .enumerate()
                .map(|(ij, &v)| if ij / n > ij % n { 0.0 } else { v })
                .collect();
            let mut singular = dense.clone();
            for r in 0..n {
                singular[r * n + n / 2] = 0.0;
            }
            let underflowing: Vec<f64> = dense.iter().map(|v| v * 1e-302).collect();
            let mut nan = damped.clone();
            nan[(n * n) / 2] = f64::NAN;
            let mut infinite = dense.clone();
            infinite[n * n - 1] = f64::INFINITY;
            for (name, a) in [
                ("dense", dense),
                ("damped", damped),
                ("sparse", sparse),
                ("triangular", triangular),
                ("singular", singular),
                ("underflowing", underflowing),
                ("nan", nan),
                ("infinite", infinite),
            ] {
                cases.push((format!("{name} n={n}"), n, a, b.clone()));
            }
        }
        let (mut solved, mut refused) = (0, 0);
        for (case, n, a, b) in cases {
            let expected = reference_solve(&a, &b, n);
            let actual = solve(&a, &b, n);
            let bits = |x: &Option<Vec<f64>>| {
                x.as_ref().map(|x| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            };
            assert_eq!(bits(&actual), bits(&expected), "{case}");
            if expected.is_some() {
                solved += 1;
            } else {
                refused += 1;
            }
            if case.starts_with("singular") || case.starts_with("underflowing") {
                assert!(expected.is_none(), "{case} must be refused");
            }
        }
        assert!(solved > 30 && refused >= 14, "{solved} solved, {refused} refused");
    }

    /// A toy evaluator: U(θ) = RZ(θ0) RX(θ1) as explicit closed forms.
    struct ToyEvaluator;

    impl GradientEvaluator for ToyEvaluator {
        fn num_params(&self) -> usize {
            2
        }
        fn dim(&self) -> usize {
            2
        }
        fn evaluate(&mut self, params: &[f64]) -> (Matrix<f64>, Vec<Matrix<f64>>) {
            let (a, b) = (params[0], params[1]);
            let rz = Matrix::from_rows(&[
                vec![C64::cis(-a / 2.0), C64::zero()],
                vec![C64::zero(), C64::cis(a / 2.0)],
            ]);
            let rx = Matrix::from_rows(&[
                vec![C64::from_real((b / 2.0).cos()), C64::new(0.0, -(b / 2.0).sin())],
                vec![C64::new(0.0, -(b / 2.0).sin()), C64::from_real((b / 2.0).cos())],
            ]);
            let u = rz.matmul(&rx);
            let drz = Matrix::from_rows(&[
                vec![C64::cis(-a / 2.0) * C64::new(0.0, -0.5), C64::zero()],
                vec![C64::zero(), C64::cis(a / 2.0) * C64::new(0.0, 0.5)],
            ]);
            let drx = Matrix::from_rows(&[
                vec![C64::from_real(-0.5 * (b / 2.0).sin()), C64::new(0.0, -0.5 * (b / 2.0).cos())],
                vec![C64::new(0.0, -0.5 * (b / 2.0).cos()), C64::from_real(-0.5 * (b / 2.0).sin())],
            ]);
            (u.clone(), vec![drz.matmul(&rx), rz.matmul(&drx)])
        }
    }

    /// The [`ToyEvaluator`] with deferred trial gradients.
    struct DeferringToy {
        last: Vec<f64>,
        deferred: usize,
    }

    impl GradientEvaluator for DeferringToy {
        fn num_params(&self) -> usize {
            2
        }
        fn dim(&self) -> usize {
            2
        }
        fn evaluate(&mut self, params: &[f64]) -> (Matrix<f64>, Vec<Matrix<f64>>) {
            ToyEvaluator.evaluate(params)
        }
        fn evaluate_trial(&mut self, params: &[f64]) -> (Matrix<f64>, Option<Vec<Matrix<f64>>>) {
            self.last = params.to_vec();
            (ToyEvaluator.evaluate(params).0, None)
        }
        fn deferred_jacobian(&mut self, jacobian: &mut [f64]) {
            self.deferred += 1;
            let gradient = ToyEvaluator.evaluate(&self.last).1;
            for (g, column) in gradient.iter().zip(jacobian.chunks_exact_mut(residual_len(2))) {
                jacobian_column_into(g.as_slice(), column);
            }
        }
    }

    #[test]
    fn deferred_trials_do_not_change_lm_results() {
        let (target, _) = ToyEvaluator.evaluate(&[0.9, -1.3]);
        for config in [LmConfig::default(), LmConfig { max_iterations: 3, ..LmConfig::default() }] {
            let eager = minimize(&mut ToyEvaluator, &target, &[0.1, 0.1], &config);
            let mut toy = DeferringToy { last: Vec::new(), deferred: 0 };
            let deferred = minimize(&mut toy, &target, &[0.1, 0.1], &config);
            let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&eager.params), bits(&deferred.params));
            assert_eq!(eager.cost.to_bits(), deferred.cost.to_bits());
            assert_eq!((eager.iterations, eager.stop), (deferred.iterations, deferred.stop));
            assert_eq!((eager.trials, eager.rejected), (deferred.trials, deferred.rejected));
            // One gradient per assembled Jacobian: rejected trials and the final point
            // never pay for one.
            let jacobians =
                deferred.iterations - usize::from(deferred.stop == LmStop::CostTolerance);
            assert_eq!(toy.deferred, jacobians);
        }
    }

    #[test]
    fn stop_reasons_and_trial_counts_are_reported() {
        let (target, _) = ToyEvaluator.evaluate(&[0.9, -1.3]);
        let capped = LmConfig { max_iterations: 1, ..LmConfig::default() };
        let result = minimize(&mut ToyEvaluator, &target, &[0.1, 0.1], &capped);
        assert_eq!(result.stop, LmStop::IterationCap);
        let result = minimize(&mut ToyEvaluator, &target, &[0.1, 0.1], &LmConfig::default());
        assert_ne!(result.stop, LmStop::IterationCap, "{result:?}");
        assert!(result.rejected <= result.trials);
        let stats = LmStats::of(&result);
        assert_eq!(stats.stops.iter().sum::<u64>(), 1);
        let trace = TraceRegistry::new();
        stats.record_into(&trace);
        let counters = trace.counters();
        assert_eq!(counters["lm.trials"], result.trials as u64);
        assert_eq!(counters[&format!("lm.stop.{}", result.stop.name())], 1);
    }

    #[test]
    fn non_finite_start_stops_before_any_gradient() {
        let (target, _) = ToyEvaluator.evaluate(&[0.9, -1.3]);
        for x0 in [[f64::NAN, 0.1], [0.1, f64::INFINITY]] {
            let mut toy = DeferringToy { last: Vec::new(), deferred: 0 };
            let result = minimize(&mut toy, &target, &x0, &LmConfig::default());
            assert_eq!(result.stop, LmStop::NonFinite, "{x0:?}: {result:?}");
            assert_eq!((result.iterations, result.trials, toy.deferred), (0, 0, 0));
            let trace = TraceRegistry::new();
            LmStats::of(&result).record_into(&trace);
            assert_eq!(trace.counters()["lm.stop.non_finite"], 1);
        }
    }

    /// RY(1.2), which the [`ToyEvaluator`]'s RZ·RX cannot reach: the cost creeps down
    /// to a floor near 0.7 instead of to zero.
    fn unreachable_toy_target() -> Matrix<f64> {
        let (c, s) = (0.6f64.cos(), 0.6f64.sin());
        Matrix::from_rows(&[
            vec![C64::from_real(c), C64::from_real(-s)],
            vec![C64::from_real(s), C64::from_real(c)],
        ])
    }

    #[test]
    fn a_cost_floor_stops_as_a_plateau_before_the_cap() {
        let target = unreachable_toy_target();
        let capped = LmConfig { max_iterations: 40, ..LmConfig::default() };
        let creeping = minimize(&mut ToyEvaluator, &target, &[0.1, 0.1], &capped);
        assert_eq!(creeping.stop, LmStop::IterationCap, "{creeping:?}");
        let config = LmConfig { plateau_window: 10, ..capped };
        let result = minimize(&mut ToyEvaluator, &target, &[0.1, 0.1], &config);
        assert_eq!(result.stop, LmStop::Plateau, "{result:?}");
        assert!(result.iterations < creeping.iterations, "{result:?}");
        // The run stopped on the floor: the 29 iterations it skipped gain under 1e-4.
        assert!(result.cost - creeping.cost < 1e-4 * creeping.cost, "{result:?} {creeping:?}");
        let trace = TraceRegistry::new();
        LmStats::of(&result).record_into(&trace);
        assert_eq!(trace.counters()["lm.stop.plateau"], 1);
    }

    /// A 2-qubit ladder of `depth` layers, with a reachable target and a start.
    fn ladder_problem(
        depth: usize,
        cache: &ExpressionCache,
    ) -> (TnvmEvaluator, Matrix<f64>, Vec<f64>) {
        let circuit = builders::pqc_qubit_ladder(2, depth).unwrap();
        let mut evaluator = TnvmEvaluator::new(&circuit, cache);
        let n = evaluator.num_params();
        let (target, _) = evaluator.evaluate(&lcg_values(n, 5));
        (evaluator, target, lcg_values(n, 9))
    }

    #[test]
    fn zero_residual_runs_still_end_at_the_cost_tolerance() {
        // A window of 2 is live from the third iteration on, so it watches most of
        // every convergence below; a falling cost never trips it.
        let cache = ExpressionCache::new();
        let (toy_target, _) = ToyEvaluator.evaluate(&[0.9, -1.3]);
        for window in [2, 10] {
            let config = LmConfig { plateau_window: window, ..LmConfig::default() };
            for x0 in [[0.1, 0.1], [1.0, -1.0], [-2.0, 2.0]] {
                let result = minimize(&mut ToyEvaluator, &toy_target, &x0, &config);
                assert_eq!(result.stop, LmStop::CostTolerance, "window {window} {x0:?}");
            }
            for depth in [1, 5] {
                let (mut evaluator, target, x0) = ladder_problem(depth, &cache);
                let result = minimize(&mut evaluator, &target, &x0, &config);
                assert_eq!(result.stop, LmStop::CostTolerance, "window {window} depth {depth}");
            }
        }
    }

    /// 64-bit FNV-1a over the little-endian bytes of `words`.
    fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for word in words {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
        hash
    }

    /// The plateau window `qudit-synth`'s attempt policy gives the search's frontier,
    /// refine and every partition round.
    const PIPELINE_PLATEAU_WINDOW: usize = 10;

    #[test]
    fn plateau_window_off_keeps_every_result() {
        // `(case, FNV-1a of the parameter bits, iterations, stop, trials)`. The
        // window-0 rows up to `ladder.5` were recorded before the plateau rule existed;
        // `ladder.floor` and the rows under the pipeline's window were recorded before
        // LM's per-run workspace and deferred Jacobian columns.
        const PINNED: &[(&str, u64, usize, LmStop, usize)] = &[
            ("toy.0", 0x776939f2158f2cc2, 5, LmStop::CostTolerance, 4),
            ("toy.1", 0x6c357a5f4fd71961, 5, LmStop::CostTolerance, 4),
            ("toy.2", 0xad2750e3f13c8fe0, 5, LmStop::CostTolerance, 4),
            ("toy.3", 0x1a2f63ce38851b84, 8, LmStop::CostTolerance, 7),
            ("toy.floor", 0x06c5d36da80c033d, 52, LmStop::Stalled, 59),
            ("ladder.1", 0xaf0668d9b4325539, 7, LmStop::CostTolerance, 6),
            ("ladder.5", 0x21cc7488fc7ea1c6, 6, LmStop::CostTolerance, 5),
            ("ladder.floor", 0x9833eed9289edd2a, 100, LmStop::IterationCap, 201),
            ("w10.toy.0", 0x776939f2158f2cc2, 5, LmStop::CostTolerance, 4),
            ("w10.toy.1", 0x6c357a5f4fd71961, 5, LmStop::CostTolerance, 4),
            ("w10.toy.2", 0xad2750e3f13c8fe0, 5, LmStop::CostTolerance, 4),
            ("w10.toy.3", 0x1a2f63ce38851b84, 8, LmStop::CostTolerance, 7),
            ("w10.toy.floor", 0xd23df07d2eb13916, 11, LmStop::Plateau, 10),
            ("w10.ladder.1", 0xaf0668d9b4325539, 7, LmStop::CostTolerance, 6),
            ("w10.ladder.5", 0x21cc7488fc7ea1c6, 6, LmStop::CostTolerance, 5),
            ("w10.ladder.floor", 0x2ec8545e07da7103, 32, LmStop::Plateau, 63),
        ];
        let fingerprint = |case: String, r: LmResult| {
            let hash = fnv1a(r.params.iter().map(|p| p.to_bits()));
            (case, hash, r.iterations, r.stop, r.trials)
        };
        let mut actual = Vec::new();
        let toy = [
            ([0.9, -1.3], [0.1, 0.1]),
            ([2.2, 0.4], [0.0, 0.0]),
            ([2.2, 0.4], [1.0, -1.0]),
            ([2.2, 0.4], [-2.0, 2.0]),
        ];
        let cache = ExpressionCache::new();
        for window in [0, PIPELINE_PLATEAU_WINDOW] {
            let config = LmConfig { plateau_window: window, ..LmConfig::default() };
            let prefix = if window == 0 { String::new() } else { format!("w{window}.") };
            for (k, (solution, x0)) in toy.into_iter().enumerate() {
                let (target, _) = ToyEvaluator.evaluate(&solution);
                let result = minimize(&mut ToyEvaluator, &target, &x0, &config);
                actual.push(fingerprint(format!("{prefix}toy.{k}"), result));
            }
            let target = unreachable_toy_target();
            let result = minimize(&mut ToyEvaluator, &target, &[0.1, 0.1], &config);
            actual.push(fingerprint(format!("{prefix}toy.floor"), result));
            for depth in [1, 5] {
                let (mut evaluator, target, x0) = ladder_problem(depth, &cache);
                let result = minimize(&mut evaluator, &target, &x0, &config);
                actual.push(fingerprint(format!("{prefix}ladder.{depth}"), result));
            }
            // A one-block ladder cannot reach a Haar-random two-qubit target, so the
            // TNVM's deferred gradients meet a cost floor and many rejected trials.
            let (mut evaluator, _, x0) = ladder_problem(1, &cache);
            let target = crate::instantiate::haar_random_unitary(4, 3);
            let result = minimize(&mut evaluator, &target, &x0, &config);
            actual.push(fingerprint(format!("{prefix}ladder.floor"), result));
        }
        let table: String = actual
            .iter()
            .map(|(case, hash, iterations, stop, trials)| {
                format!("            (\"{case}\", 0x{hash:016x}, {iterations}, LmStop::{stop:?}, {trials}),\n")
            })
            .collect();
        let pinned: Vec<_> =
            PINNED.iter().map(|&(case, h, i, stop, t)| (case.to_string(), h, i, stop, t)).collect();
        assert!(actual == pinned, "LM results moved; they are now:\n{table}");
    }

    /// Deterministic pseudo-random values in (−0.5, 0.5) from a 64-bit LCG.
    fn lcg_values(count: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (0..count)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            })
            .collect()
    }

    /// The serial oracle: textbook column dot products, each one a single strictly
    /// sequential `Iterator::sum` chain.
    fn reference_normal_equations(
        jacobian: &[f64],
        residuals: &[f64],
        m: usize,
        n: usize,
        jtj: &mut [f64],
        jtr: &mut [f64],
        _scratch: &mut Vec<f64>,
    ) {
        for a in 0..n {
            let col_a = &jacobian[a * m..(a + 1) * m];
            for b in a..n {
                let col_b = &jacobian[b * m..(b + 1) * m];
                let dot: f64 = col_a.iter().zip(col_b).map(|(x, y)| x * y).sum();
                jtj[a * n + b] = dot;
                jtj[b * n + a] = dot;
            }
            jtr[a] = -col_a.iter().zip(residuals.iter()).map(|(x, y)| x * y).sum::<f64>();
        }
    }

    #[test]
    fn panel_assembly_is_bit_identical_to_reference() {
        // Shapes on both sides of PANEL_MIN_COLUMNS, with ragged lane tails, plus an
        // input whose dots are sums of −0.0 products only: an all-zero column against
        // negative entries, where a chain that starts at +0.0 returns +0.0.
        let mut inputs: Vec<(usize, usize, Vec<f64>, Vec<f64>)> = [
            (7usize, 3usize),
            (32, 1),
            (32, 18),
            (45, 13),
            (64, 21),
            (162, 24),
            (512, 48),
            (512, 84),
        ]
        .into_iter()
        .map(|(m, n)| {
            (m, n, lcg_values(m * n, (m * 1000 + n) as u64), lcg_values(m, (m * 7 + n) as u64))
        })
        .collect();
        let (m, n) = (16, 40);
        let mut signed_zero: Vec<f64> = (0..m * n).map(|k| -1.0 - k as f64).collect();
        signed_zero[..m].fill(0.0);
        inputs.push((m, n, signed_zero, vec![-0.5; m]));
        for (m, n, jacobian, residuals) in inputs {
            let (mut jtj_ref, mut jtr_ref) = (vec![0.0; n * n], vec![0.0; n]);
            reference_normal_equations(
                &jacobian,
                &residuals,
                m,
                n,
                &mut jtj_ref,
                &mut jtr_ref,
                &mut Vec::new(),
            );
            let paths: [(&str, Assembly); 2] =
                [("assembly", assemble_normal_equations), ("panels", assemble_from_panels)];
            for (path, assemble) in paths {
                let (mut jtj, mut jtr) = (vec![0.0; n * n], vec![0.0; n]);
                assemble(&jacobian, &residuals, m, n, &mut jtj, &mut jtr, &mut Vec::new());
                for (i, (x, y)) in jtj_ref.iter().zip(&jtj).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "{path} JᵀJ[{i}] differs at m={m} n={n}");
                }
                for (i, (x, y)) in jtr_ref.iter().zip(&jtr).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "{path} Jᵀr[{i}] differs at m={m} n={n}");
                }
            }
        }
    }

    #[test]
    fn panel_lanes_do_not_change_lm_results() {
        // Whole LM runs with the lane-parallel assembly against the serial oracle:
        // two parameters (one- and two-lane chains), a 12-parameter ladder (eight-
        // and four-lane chains) and a 36-parameter ladder (packed panels).
        let cache = ExpressionCache::new();
        let ladder = |qubits, depth| {
            let circuit = builders::pqc_qubit_ladder(qubits, depth).unwrap();
            TnvmEvaluator::new(&circuit, &cache)
        };
        let evaluators: Vec<Box<dyn GradientEvaluator>> =
            vec![Box::new(ToyEvaluator), Box::new(ladder(2, 1)), Box::new(ladder(2, 5))];
        assert_eq!(evaluators[1].num_params(), 12);
        assert_eq!(evaluators[2].num_params(), 36);
        assert!(evaluators[2].num_params() >= PANEL_MIN_COLUMNS);
        let config = LmConfig { max_iterations: 12, ..LmConfig::default() };
        let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for mut evaluator in evaluators {
            let n = evaluator.num_params();
            let (target, _) = evaluator.evaluate(&lcg_values(n, 5));
            let x0 = lcg_values(n, 9);
            let mut run = |assemble| {
                minimize_with(&mut *evaluator, &target, &x0, &config, assemble, &never)
                    .expect("never abandoned")
            };
            let lanes = run(assemble_normal_equations as Assembly);
            let serial = run(reference_normal_equations as Assembly);
            assert_eq!((lanes.iterations, lanes.stop), (serial.iterations, serial.stop), "n={n}");
            assert_eq!((lanes.trials, lanes.rejected), (serial.trials, serial.rejected), "n={n}");
            assert_eq!(lanes.cost.to_bits(), serial.cost.to_bits(), "n={n}");
            assert_eq!(bits(&lanes.params), bits(&serial.params), "n={n}");
        }
    }

    #[test]
    fn lm_recovers_known_parameters() {
        let mut evaluator = ToyEvaluator;
        let target_params = [0.9, -1.3];
        let (target, _) = evaluator.evaluate(&target_params);
        let result = minimize(&mut evaluator, &target, &[0.1, 0.1], &LmConfig::default());
        assert!(result.cost < 1e-12, "cost {} after {} iterations", result.cost, result.iterations);
        let (found, _) = evaluator.evaluate(&result.params);
        assert!(found.max_elementwise_distance(&target) < 1e-6);
    }

    #[test]
    fn lm_converges_from_multiple_starts() {
        let mut evaluator = ToyEvaluator;
        let (target, _) = evaluator.evaluate(&[2.2, 0.4]);
        for start in [[0.0, 0.0], [1.0, -1.0], [-2.0, 2.0]] {
            let result = minimize(&mut evaluator, &target, &start, &LmConfig::default());
            assert!(result.cost < 1e-10, "start {start:?} ended at cost {}", result.cost);
        }
    }

    #[test]
    fn lm_respects_iteration_budget() {
        let mut evaluator = ToyEvaluator;
        let (target, _) = evaluator.evaluate(&[2.2, 0.4]);
        let config = LmConfig { max_iterations: 1, ..LmConfig::default() };
        let result = minimize(&mut evaluator, &target, &[0.0, 0.0], &config);
        assert!(result.iterations <= 1);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn lm_validates_initial_guess() {
        let mut evaluator = ToyEvaluator;
        let (target, _) = evaluator.evaluate(&[0.1, 0.2]);
        minimize(&mut evaluator, &target, &[0.0], &LmConfig::default());
    }
}
