//! Post-synthesis refinement: speculative gate deletion and re-instantiation.
//!
//! Bottom-up search stops at the first template that reaches the success threshold,
//! and that template can carry entangling blocks whose instantiated contribution is
//! (close to) redundant — the QudCom / adaptive-compilation observation that much of
//! the final gate-count win comes from *eliminating* multi-level operations after
//! synthesis, not from the search itself. Measured over perfbench's six target kinds
//! (seeds 7, 11, 13, 17, 19 and 23: 900 narrow and 90 wide targets), that win has
//! gone: none of 2,158 deletion attempts held, and the cut bound certified 2,035 of
//! them hopeless. Before the partition pass certified its hopeless rounds, 28 of
//! 2,208 held, all on five wide sketches that escalated past round 2; now every wide
//! target succeeds at round 2. So every attempt is kept cheap, and most are not run:
//!
//! 1. **Rank** the blocks by their entangling residual: the dominant
//!    operator-Schmidt weight deficit of the block's instantiated sub-unitary across
//!    its pair cut, computed by a deterministic power iteration. On the default gate
//!    sets every entangler is constant and every block ties at its entangler's
//!    residual; the ranking orders attempts when an entangler has parameters.
//! 2. **Certify** each deletion before running it: when the surviving blocks' cut
//!    bound ([`CutBound`]) proves that no parameter vector reaches the threshold, the
//!    attempt is skipped and counted as `refine.attempts.certified`. A failed attempt
//!    leaves refine's state unchanged and every attempt's seed derives from its
//!    surviving blocks, so a skip changes no result bit. The bound is checked before
//!    the ranking, which is not computed when every deletion is certified.
//! 3. **Delete speculatively**, one block at a time in rank order, rebuilding the
//!    smaller template via [`qudit_circuit::builders::delete_pqc_block`] (shape-
//!    checked against [`LayerGenerator::circuit_for`]) and re-instantiating through
//!    [`qudit_optimize::instantiate_circuit_mapped`] from the surviving parameters.
//!    Each attempt is one LM run from that warm start, stopped once its cost has
//!    flattened ([`LmConfig::plateau_window`]); only a near miss, within the square
//!    root of the success threshold, pays for random restarts. A deletion is kept
//!    only when the re-instantiated infidelity stays under the success threshold.
//! 4. **Fold constants**: parameters that landed on symbolic constants (0, ±π/2, ±π,
//!    ±2π) are snapped via the `qudit-egraph` [`fold`] entry point,
//!    the substituted gate expressions are e-graph-simplified to verify the fold, and
//!    the snapped vector is accepted only if the circuit still meets the threshold.
//!
//! The pass is fully deterministic: candidate order, per-attempt seeds (derived from
//! the surviving block sequence), and the re-instantiation drivers are all
//! schedule-independent, so refinement preserves the engine's reproducibility
//! guarantee.
//!
//! The two stages are exposed separately — [`refine_deletions`] (steps 1–3) and
//! [`fold_constants`] (step 4, which also *constifies* fully-snapped parameterized
//! gates into constant gate applications) — and only the `qudit-compile` pass
//! pipeline composes them, so it can schedule, time, and replace each on its own.

use qudit_circuit::{builders, embed_gate, GateSet, QuditCircuit};
use qudit_egraph::fold;
use qudit_optimize::{
    instantiate_circuit_mapped, GradientEvaluator, InstantiateConfig, LmConfig, TnvmEvaluator,
    SUCCESS_THRESHOLD,
};
use qudit_qvm::ExpressionCache;
use qudit_tensor::{Matrix, C64};

use crate::bound::CutBound;
use crate::frontier::candidate_seed;
use crate::layers::LayerGenerator;
use crate::search::SynthesisResult;
use crate::topology::CouplingGraph;
use crate::SynthesisError;

/// Configuration of the refinement pass.
#[derive(Debug, Clone)]
pub struct RefineConfig {
    /// Infidelity bound a deletion must preserve.
    pub success_threshold: f64,
    /// Per-attempt instantiation settings (the warm start is managed by the pass).
    /// Every attempt first runs the warm start alone; only a near miss goes on to
    /// all `starts`. The default stops each LM run once its cost has flattened
    /// ([`LmConfig::plateau_window`]).
    pub instantiate: InstantiateConfig,
    /// Base seed mixed into every attempt's deterministic instantiation seed.
    pub seed: u64,
    /// The gate-set registry the result's template was built from, used when
    /// rebuilding shrunken templates. `None` (the default) recovers the registry
    /// from the result circuit's own expressions ([`GateSet::from_circuit`]), so
    /// custom-gate-set results refine without further configuration;
    /// [`SynthesisConfig::refine_config`] threads the search's registry through
    /// explicitly.
    ///
    /// [`SynthesisConfig::refine_config`]: crate::SynthesisConfig::refine_config
    pub gate_set: Option<GateSet>,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig {
            success_threshold: SUCCESS_THRESHOLD,
            instantiate: attempt_policy(InstantiateConfig { starts: 4, ..Default::default() }),
            seed: 0,
            gate_set: None,
        }
    }
}

/// LM iterations over which a run's cost must fall by 1% to keep running. Successful
/// runs converge well inside it; failing ones flatten long before the iteration cap.
const ATTEMPT_PLATEAU_WINDOW: usize = 10;

/// The pipeline's LM policy applied to `base`: every run stops as `lm.stop.plateau`
/// once its cost has flattened. [`RefineConfig::default`] and
/// [`SynthesisConfig::frontier_instantiate_config`] derive from here, so refine's
/// deletion attempts, the search's frontier (the root and every expansion) and the
/// partition pass's rounds share it.
///
/// [`SynthesisConfig::frontier_instantiate_config`]:
///     crate::SynthesisConfig::frontier_instantiate_config
pub(crate) fn attempt_policy(base: InstantiateConfig) -> InstantiateConfig {
    InstantiateConfig { lm: LmConfig { plateau_window: ATTEMPT_PLATEAU_WINDOW, ..base.lm }, ..base }
}

/// The dominant normalized operator-Schmidt weight deficit of a two-qudit unitary:
/// `0` means `u` is (numerically) a tensor product of single-qudit operations — its
/// entangling content is the identity — while maximally entangling gates approach
/// `1 − 1/min(da², db²)` (a CNOT scores `0.5`).
///
/// Computed as `1 − σ₁²/(da·db)` where `σ₁` is the largest singular value of the
/// realigned matrix `R[(i,j),(k,l)] = U[(i,k),(j,l)]`, obtained by a deterministic
/// power iteration on the (tiny) Gram matrix `R·R†`.
pub fn entangling_residual(u: &Matrix<f64>, da: usize, db: usize) -> f64 {
    let d = da * db;
    assert_eq!(u.rows(), d, "unitary must act on the full pair space");
    assert_eq!(u.cols(), d, "unitary must act on the full pair space");
    let realigned = Matrix::<f64>::from_fn(da * da, db * db, |rc, cc| {
        let (ia, ja) = (rc / da, rc % da);
        let (ib, jb) = (cc / db, cc % db);
        u.get(ia * db + ib, ja * db + jb)
    });
    let gram = realigned.matmul(&realigned.dagger());
    let m = da * da;
    // Deterministic power iteration; the start vector has non-zero overlap with every
    // coordinate direction, and the Gram matrix is PSD with trace d ≥ σ₁² > 0.
    let mut v: Vec<C64> = (0..m).map(|i| C64::new(1.0 + 0.1 * i as f64, 0.0)).collect();
    let norm = v.iter().map(|c| c.norm_sqr()).sum::<f64>().sqrt();
    for entry in v.iter_mut() {
        *entry = entry.scale(1.0 / norm);
    }
    let mut sigma_sq = 0.0;
    for _ in 0..128 {
        let w: Vec<C64> = (0..m)
            .map(|r| {
                let mut acc = C64::zero();
                for (c, value) in v.iter().enumerate() {
                    acc += gram.get(r, c) * *value;
                }
                acc
            })
            .collect();
        let norm = w.iter().map(|c| c.norm_sqr()).sum::<f64>().sqrt();
        if norm <= f64::EPSILON {
            return 1.0;
        }
        sigma_sq = norm;
        v = w.into_iter().map(|c| c.scale(1.0 / norm)).collect();
    }
    (1.0 - (sigma_sq / d as f64).min(1.0)).max(0.0)
}

/// Internal worker: owns everything one refinement run needs.
struct Refiner<'a> {
    target: &'a Matrix<f64>,
    config: &'a RefineConfig,
    cache: &'a ExpressionCache,
    radices: Vec<usize>,
    generator: LayerGenerator,
}

/// One refinement state: a template, its block edges, and its instantiated optimum.
struct State {
    circuit: QuditCircuit,
    edges: Vec<(usize, usize)>,
    params: Vec<f64>,
    infidelity: f64,
}

/// The instantiated sub-unitary of entangling block `block_index` of a
/// template-shaped circuit — the entangler followed by the two trailing locals,
/// embedded in the block's two-qudit pair space (in the entangler op's wire order).
/// Refinement scores this matrix's entangling content.
///
/// # Errors
///
/// Returns [`SynthesisError::InvalidTarget`] when the circuit is not shaped like a
/// `pqc_template` at this block (the ops at `n + 3·block_index..` must be an
/// entangler plus two locals) or a gate fails to evaluate.
fn block_unitary(
    circuit: &QuditCircuit,
    params: &[f64],
    block_index: usize,
) -> Result<Matrix<f64>, SynthesisError> {
    let radices = circuit.radices();
    let n = radices.len();
    let first = n + 3 * block_index;
    if first + 3 > circuit.num_ops() || circuit.ops()[first].location.len() != 2 {
        return Err(SynthesisError::InvalidTarget(format!(
            "circuit has no complete entangling block at index {block_index}"
        )));
    }
    let ops = circuit.ops();
    let (a, b) = (ops[first].location[0], ops[first].location[1]);
    let pair = [radices[a], radices[b]];
    let mut unitary = Matrix::<f64>::identity(pair[0] * pair[1]);
    for op in &ops[first..first + 3] {
        let expr = circuit.expression(op.expr)?;
        let values = circuit.op_values(op, params)?;
        let gate = expr.to_matrix::<f64>(&values).map_err(|e| {
            SynthesisError::InvalidTarget(format!("block gate evaluation failed: {e}"))
        })?;
        let location: Vec<usize> = op.location.iter().map(|&q| usize::from(q != a)).collect();
        let embedded = embed_gate(&gate, expr.radices(), &location, &pair);
        unitary = embedded.matmul(&unitary);
    }
    Ok(unitary)
}

impl Refiner<'_> {
    /// Entangling residuals of every block, paired with the block index.
    ///
    /// The Schmidt cut's dimensions follow the *entangler op's* wire order, not the
    /// normalized coupling edge: a mixed-radix entangler registered for `(2, 3)` is
    /// applied with its wires reversed when the lower wire is the qutrit, and
    /// [`block_unitary`] builds the pair space in that op order — scoring a
    /// 2×3 cut as 3×2 would realign the wrong matrix.
    fn residuals(&self, state: &State) -> Result<Vec<(usize, f64)>, SynthesisError> {
        let n = self.radices.len();
        (0..state.edges.len())
            .map(|i| {
                let entangler = &state.circuit.ops()[n + 3 * i];
                let (a, b) = (entangler.location[0], entangler.location[1]);
                let unitary = block_unitary(&state.circuit, &state.params, i)?;
                Ok((i, entangling_residual(&unitary, self.radices[a], self.radices[b])))
            })
            .collect()
    }

    /// Attempts to delete block `block` (an index into `state.edges`, whose other
    /// blocks are `edges`): rebuilds the smaller template, projects the surviving
    /// parameters through the deletion's exact mapping, and re-instantiates
    /// warm-started. Returns the new state when the re-instantiated infidelity stays
    /// under the success threshold.
    fn attempt_deletion(
        &self,
        state: &State,
        block: usize,
        edges: Vec<(usize, usize)>,
    ) -> Option<State> {
        let mut trial = state.circuit.clone();
        let mapping = builders::delete_pqc_block(&mut trial, block).ok()?;
        // The in-place deletion must agree with a from-scratch rebuild of the
        // surviving template (LayerGenerator::circuit_for → pqc_template).
        debug_assert_eq!(
            (trial.num_ops(), trial.num_params()),
            self.generator
                .circuit_for(&self.block_indices(&edges))
                .map(|c| (c.num_ops(), c.num_params()))
                .expect("surviving edges come from the validated coupling graph"),
        );
        let seed_blocks: Vec<usize> =
            edges.iter().map(|&(a, b)| a * self.radices.len() + b).collect();
        let config = InstantiateConfig {
            seed: candidate_seed(self.config.seed, &seed_blocks),
            success_threshold: self.config.success_threshold,
            ..self.config.instantiate.clone()
        };
        // The warm start alone first. Only a near miss, a fit within the square root
        // of the threshold, suggests the smaller template fits from another basin, so
        // only a near miss pays for the random restarts.
        let threshold = self.config.success_threshold;
        let warm = InstantiateConfig { starts: 1, ..config.clone() };
        let mut outcome = instantiate_circuit_mapped(
            &trial,
            self.target,
            &state.params,
            &mapping,
            &warm,
            self.cache,
        );
        let near_miss = outcome.infidelity >= threshold && outcome.infidelity < threshold.sqrt();
        if near_miss && config.starts > 1 {
            outcome = instantiate_circuit_mapped(
                &trial,
                self.target,
                &state.params,
                &mapping,
                &config,
                self.cache,
            );
        }
        if outcome.infidelity < threshold {
            Some(State {
                circuit: trial,
                edges,
                params: outcome.params,
                infidelity: outcome.infidelity,
            })
        } else {
            None
        }
    }

    /// Maps edge pairs back to indices of the refiner's coupling graph.
    fn block_indices(&self, edges: &[(usize, usize)]) -> Vec<usize> {
        let graph_edges = self.generator.coupling().edges();
        edges
            .iter()
            .map(|&(a, b)| {
                let e = (a.min(b), a.max(b));
                graph_edges
                    .iter()
                    .position(|&g| g == e)
                    .expect("every surviving edge came from the result's block list")
            })
            .collect()
    }
}

/// The gate-deletion stage of refinement: speculatively deletes entangling blocks one
/// at a time and warm-start re-instantiates the shrunken template, keeping a deletion
/// only when the infidelity stays under the success threshold. An attempt whose
/// surviving blocks the target's cut bound ([`CutBound`]) certifies hopeless is
/// skipped without an LM run. Does **not** fold constants — that is
/// [`fold_constants`]' job. Unsuccessful results (infidelity at or above the
/// configured threshold) are returned unchanged — there is no baseline to validate
/// deletions against.
///
/// The returned result describes the refined circuit: `blocks_deleted` counts the
/// removed entangling blocks (the pre-refine depth is `blocks.len() + blocks_deleted`)
/// and `refined_infidelity` is `Some` of its final infidelity.
///
/// # Errors
///
/// Returns [`SynthesisError::InvalidTarget`] when `result` is not shaped like a
/// synthesis template (its circuit must be `pqc_initial` + 3 ops per block) or the
/// target's dimension does not match, and propagates coupling-graph errors for
/// malformed block lists.
pub fn refine_deletions(
    result: &SynthesisResult,
    target: &Matrix<f64>,
    config: &RefineConfig,
    cache: &ExpressionCache,
) -> Result<SynthesisResult, SynthesisError> {
    let radices = result.circuit.radices().to_vec();
    let n = radices.len();
    if result.circuit.num_ops() != n + 3 * result.blocks.len() {
        return Err(SynthesisError::InvalidTarget(format!(
            "result circuit has {} op(s), not the {} of a {}-block synthesis template",
            result.circuit.num_ops(),
            n + 3 * result.blocks.len(),
            result.blocks.len()
        )));
    }
    if target.rows() != result.circuit.dim() || target.cols() != result.circuit.dim() {
        return Err(SynthesisError::InvalidTarget(format!(
            "target is {}×{} but the result acts on dimension {}",
            target.rows(),
            target.cols(),
            result.circuit.dim()
        )));
    }
    if result.params.len() != result.circuit.num_params() {
        return Err(SynthesisError::InvalidTarget(format!(
            "result carries {} parameter value(s) for a circuit with {}",
            result.params.len(),
            result.circuit.num_params()
        )));
    }
    // Per-block structure: an entangler on the claimed edge followed by two locals.
    // An op count alone is not enough — block extraction indexes into these
    // locations, so a mismatched circuit must fail here, not panic there.
    for (i, &(a, b)) in result.blocks.iter().enumerate() {
        let ops = result.circuit.ops();
        let entangler = &ops[n + 3 * i];
        let wires: Vec<usize> = entangler.location.clone();
        let pair_ok = wires.len() == 2
            && ((wires[0] == a && wires[1] == b) || (wires[0] == b && wires[1] == a));
        let locals_ok = ops[n + 3 * i + 1].location.len() == 1
            && ops[n + 3 * i + 2].location.len() == 1
            && wires.contains(&ops[n + 3 * i + 1].location[0])
            && wires.contains(&ops[n + 3 * i + 2].location[0]);
        if !pair_ok || !locals_ok {
            return Err(SynthesisError::InvalidTarget(format!(
                "block {i} of the result circuit is not an entangler on ({a}, {b}) \
                 followed by two locals on its wires"
            )));
        }
    }

    let mut refined = result.clone();
    refined.refined_infidelity = Some(result.infidelity);
    if result.infidelity >= config.success_threshold {
        return Ok(refined);
    }

    // Deletion attempts run serially, so the per-attempt counters recorded by
    // `instantiate_circuit_mapped` through this registry are deterministic.
    let trace = &config.instantiate.trace;
    let _span = trace.span("refine");

    let mut state = State {
        circuit: result.circuit.clone(),
        edges: result.blocks.clone(),
        params: result.params.clone(),
        infidelity: result.infidelity,
    };
    let (mut attempts, mut accepted, mut certified, mut blocks_deleted) =
        (0u64, 0u64, 0u64, 0usize);

    if !state.edges.is_empty() {
        let coupling = CouplingGraph::new(n, state.edges.iter().copied())?;
        // Without an explicit registry, recover it from the result's own circuit —
        // falling back to the built-in defaults instead would mis-shape the rebuild
        // check (and reject radices with no built-ins) for custom-gate-set results.
        let gate_set =
            config.gate_set.clone().unwrap_or_else(|| GateSet::from_circuit(&result.circuit));
        let refiner = Refiner {
            target,
            config,
            cache,
            radices: radices.clone(),
            generator: LayerGenerator::with_gate_set(&radices, &coupling, gate_set)?,
        };

        let bound =
            CutBound::new(target, &radices, refiner.generator.gate_set(), config.success_threshold);
        loop {
            let without = |block: usize| -> Vec<(usize, usize)> {
                let others = state.edges.iter().enumerate().filter(|&(i, _)| i != block);
                others.map(|(_, &e)| e).collect()
            };
            let hopeless: Vec<bool> = (0..state.edges.len())
                .map(|block| bound.certify(&without(block)).is_some())
                .collect();
            // When every deletion is certified, the ranking would only order attempts
            // that are all skipped: count them and stop without computing it.
            if hopeless.iter().all(|&h| h) {
                attempts += hopeless.len() as u64;
                certified += hopeless.len() as u64;
                break;
            }
            // Rank blocks by how little entanglement they contribute; the most
            // identity-like blocks are the best deletion candidates.
            let mut ranked = refiner.residuals(&state)?;
            ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
            let mut deleted = false;
            for &(block, _) in &ranked {
                attempts += 1;
                if hopeless[block] {
                    certified += 1;
                    continue;
                }
                if let Some(next) = refiner.attempt_deletion(&state, block, without(block)) {
                    accepted += 1;
                    blocks_deleted += 1;
                    state = next;
                    deleted = true;
                    break;
                }
            }
            if !deleted {
                break;
            }
        }
    }

    refined.circuit = state.circuit;
    refined.blocks = state.edges;
    refined.params = state.params;
    refined.infidelity = state.infidelity;
    refined.success = state.infidelity < config.success_threshold;
    refined.blocks_deleted = result.blocks_deleted + blocks_deleted;
    refined.refined_infidelity = Some(state.infidelity);
    if attempts > 0 {
        trace.add("refine.attempts", attempts);
        trace.add("refine.attempts.accepted", accepted);
        trace.add("refine.attempts.certified", certified);
    }
    if blocks_deleted > 0 {
        trace.add("refine.blocks_deleted", blocks_deleted as u64);
    }
    Ok(refined)
}

/// Configuration of the constant-folding stage ([`fold_constants`]).
#[derive(Debug, Clone)]
pub struct FoldConfig {
    /// Snap tolerance for folding parameters onto symbolic constants (0, ±π/2, ±π,
    /// ±2π). Non-positive disables the stage.
    pub fold_tolerance: f64,
    /// Infidelity bound the snapped (and constified) circuit must preserve.
    pub success_threshold: f64,
}

impl Default for FoldConfig {
    fn default() -> Self {
        FoldConfig { fold_tolerance: 1e-6, success_threshold: SUCCESS_THRESHOLD }
    }
}

/// The constant-folding stage of refinement: snaps parameters that landed on symbolic
/// constants (0, ±π/2, ±π, ±2π), verifies the substituted gate expressions e-graph
/// fold consistently, and keeps the snapped vector only if the circuit still meets
/// the threshold. Gates whose parameters *all* snapped are then converted into
/// constant gate applications ([`QuditCircuit::constify_op`], counted as
/// `gates_constified` in the result), shrinking the free-parameter vector and letting
/// the JIT compile constant-folded expressions for them.
///
/// Unsuccessful results pass through unchanged. Unlike [`refine_deletions`] this
/// stage accepts any circuit shape — it never rebuilds templates.
///
/// # Errors
///
/// Returns [`SynthesisError::InvalidTarget`] when the result's parameter vector or
/// the target's dimension does not match the circuit, and propagates circuit errors
/// from constification (cannot occur for well-formed results).
pub fn fold_constants(
    result: &SynthesisResult,
    target: &Matrix<f64>,
    config: &FoldConfig,
    cache: &ExpressionCache,
) -> Result<SynthesisResult, SynthesisError> {
    if result.params.len() != result.circuit.num_params() {
        return Err(SynthesisError::InvalidTarget(format!(
            "result carries {} parameter value(s) for a circuit with {}",
            result.params.len(),
            result.circuit.num_params()
        )));
    }
    if target.rows() != result.circuit.dim() || target.cols() != result.circuit.dim() {
        return Err(SynthesisError::InvalidTarget(format!(
            "target is {}×{} but the result acts on dimension {}",
            target.rows(),
            target.cols(),
            result.circuit.dim()
        )));
    }
    let mut refined = result.clone();
    if refined.refined_infidelity.is_none() {
        refined.refined_infidelity = Some(result.infidelity);
    }
    if result.infidelity >= config.success_threshold || config.fold_tolerance <= 0.0 {
        return Ok(refined);
    }
    let folded = fold::fold_params(&result.params, config.fold_tolerance);
    if folded.folded == 0 {
        return Ok(refined);
    }
    // Checks need only the unitary, so they run the TNVM's value sweep alone.
    let mut evaluator = TnvmEvaluator::new(&result.circuit, cache);
    let (unitary, _) = evaluator.evaluate_trial(&folded.params);
    let snapped_infidelity = qudit_optimize::hs_infidelity(target, &unitary);
    if snapped_infidelity >= config.success_threshold {
        return Ok(refined);
    }
    // E-graph check: every op whose parameters all snapped must fold to expressions
    // that agree with the snapped numeric gate.
    if !fully_snapped_ops_fold(&result.circuit, &folded) {
        return Ok(refined);
    }
    refined.params = folded.params.clone();
    refined.infidelity = snapped_infidelity;
    refined.refined_infidelity = Some(snapped_infidelity);
    refined.success = true;
    refined.params_folded = result.params_folded + folded.folded;

    // Every fully-snapped parameterized gate was just verified to fold; bake its
    // values in, threading the parameter vector through each conversion's mapping.
    let mut circuit = result.circuit.clone();
    let mut params = folded.params.clone();
    let targets: Vec<(usize, Vec<f64>)> = circuit
        .ops()
        .iter()
        .enumerate()
        .filter_map(|(index, op)| {
            let qudit_circuit::OpParams::Parameterized { offset } = op.params else {
                return None;
            };
            let count = circuit.expression(op.expr).ok()?.num_params();
            let fully_snapped =
                count > 0 && (offset..offset + count).all(|k| folded.symbolic[k].is_some());
            fully_snapped.then(|| (index, folded.params[offset..offset + count].to_vec()))
        })
        .collect();
    if targets.is_empty() {
        return Ok(refined);
    }
    for (index, values) in &targets {
        let mapping = circuit.constify_op(*index, values.clone())?;
        params = mapping.iter().map(|&k| params[k]).collect();
    }
    // The constant path evaluates through a different (cheaper) kernel, so re-verify
    // before committing the rewritten circuit.
    let mut evaluator = TnvmEvaluator::new(&circuit, cache);
    let (unitary, _) = evaluator.evaluate_trial(&params);
    let const_infidelity = qudit_optimize::hs_infidelity(target, &unitary);
    if const_infidelity < config.success_threshold {
        refined.circuit = circuit;
        refined.params = params;
        refined.infidelity = const_infidelity;
        refined.refined_infidelity = Some(const_infidelity);
        refined.gates_constified = result.gates_constified + targets.len();
    }
    Ok(refined)
}

/// Substitutes each fully-snapped op's symbolic constants into its gate expression,
/// e-graph-folds the elements, and numerically verifies the folded expressions still
/// evaluate to the snapped gate matrix.
fn fully_snapped_ops_fold(circuit: &QuditCircuit, folded: &qudit_egraph::ParamFold) -> bool {
    for op in circuit.ops() {
        let qudit_circuit::OpParams::Parameterized { offset } = op.params else { continue };
        let expr = circuit.expression(op.expr).expect("ops always reference cached expressions");
        let count = expr.num_params();
        if count == 0 || !(offset..offset + count).all(|k| folded.symbolic[k].is_some()) {
            continue;
        }
        let values = &folded.params[offset..offset + count];
        let names: Vec<String> = expr.params().to_vec();
        let mut elements = Vec::new();
        for row in expr.elements() {
            for el in row {
                elements.push(el.re.clone());
                elements.push(el.im.clone());
            }
        }
        // The values are already snapped to exact constants, so any positive snap
        // tolerance re-recognizes them; keep it tight.
        let simplified = fold::fold_elements(&elements, &names, values, 1e-12);
        // Evaluate folded elements against the direct gate matrix at snapped values.
        let gate = match expr.to_matrix::<f64>(values) {
            Ok(gate) => gate,
            Err(_) => return false,
        };
        let dim = expr.dim();
        for (k, folded_expr) in simplified.exprs.iter().enumerate() {
            let (row, col, is_im) = (k / 2 / dim, (k / 2) % dim, k % 2 == 1);
            let reference = if is_im { gate.get(row, col).im } else { gate.get(row, col).re };
            let value = folded_expr.eval_with(&names, values);
            if (value - reference).abs() > 1e-9 {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_circuit::gates;
    use qudit_optimize::{instantiate_circuit, reachable_target};

    #[test]
    fn entangling_residual_separates_local_from_entangling() {
        // A product of locals has (numerically) zero residual.
        let rx = gates::rx().to_matrix::<f64>(&[0.8]).unwrap();
        let rz = gates::rz().to_matrix::<f64>(&[-1.3]).unwrap();
        let product = rx.kron(&rz);
        assert!(entangling_residual(&product, 2, 2) < 1e-10);

        // CNOT has operator-Schmidt weights {2, 2}: residual 1 − 2/4 = 0.5.
        let cnot = gates::cnot().to_matrix::<f64>(&[]).unwrap();
        let residual = entangling_residual(&cnot, 2, 2);
        assert!((residual - 0.5).abs() < 1e-9, "residual {residual}");

        // A qutrit CSUM is also maximally non-local across its cut.
        let csum = gates::csum().to_matrix::<f64>(&[]).unwrap();
        assert!(entangling_residual(&csum, 3, 3) > 0.3);
    }

    fn instantiated_result(
        radices: &[usize],
        blocks: &[(usize, usize)],
        target: &Matrix<f64>,
        cache: &ExpressionCache,
        seed: u64,
    ) -> SynthesisResult {
        let circuit = builders::pqc_template(radices, blocks).unwrap();
        let outcome = instantiate_circuit(
            &circuit,
            target,
            &InstantiateConfig { starts: 8, seed, ..Default::default() },
            cache,
        );
        SynthesisResult {
            blocks: blocks.to_vec(),
            params: outcome.params,
            infidelity: outcome.infidelity,
            success: outcome.success,
            nodes_expanded: 0,
            blocks_deleted: 0,
            refined_infidelity: None,
            params_folded: 0,
            gates_constified: 0,
            circuit,
        }
    }

    #[test]
    fn refine_deletes_padded_blocks() {
        let cache = ExpressionCache::new();
        let lean = builders::pqc_template(&[2, 2], &[(0, 1)]).unwrap();
        let target = reachable_target(&lean, 12);
        let padded = instantiated_result(&[2, 2], &[(0, 1), (0, 1), (0, 1)], &target, &cache, 5);
        assert!(padded.success, "padded instantiation failed: {}", padded.infidelity);

        let refined = refine_deletions(&padded, &target, &RefineConfig::default(), &cache).unwrap();
        assert!(refined.blocks_deleted >= 1, "no blocks deleted");
        assert_eq!(refined.blocks.len() + refined.blocks_deleted, 3);
        assert!(refined.infidelity < 1e-8, "refined infidelity {}", refined.infidelity);
        assert_eq!(refined.refined_infidelity, Some(refined.infidelity));
        assert_eq!(refined.params.len(), refined.circuit.num_params());
        assert!(refined.success);
    }

    #[test]
    fn refine_is_a_no_op_on_minimal_results() {
        let cache = ExpressionCache::new();
        let target = gates::cnot().to_matrix::<f64>(&[]).unwrap();
        let minimal = instantiated_result(&[2, 2], &[(0, 1)], &target, &cache, 3);
        assert!(minimal.success);
        let refined =
            refine_deletions(&minimal, &target, &RefineConfig::default(), &cache).unwrap();
        assert_eq!(refined.blocks_deleted, 0);
        assert_eq!(refined.blocks, minimal.blocks);
        assert_eq!(refined.circuit.num_ops(), minimal.circuit.num_ops());
        assert!(refined.infidelity < 1e-8);
    }

    #[test]
    fn refine_passes_unsuccessful_results_through() {
        let cache = ExpressionCache::new();
        let target = qudit_optimize::haar_random_unitary(4, 77);
        let mut result = instantiated_result(&[2, 2], &[(0, 1)], &target, &cache, 1);
        result.infidelity = result.infidelity.max(1e-3);
        result.success = false;
        let refined = refine_deletions(&result, &target, &RefineConfig::default(), &cache).unwrap();
        assert_eq!(refined.blocks_deleted, 0);
        assert_eq!(refined.blocks, result.blocks);
    }

    #[test]
    fn refine_rejects_malformed_results() {
        let cache = ExpressionCache::new();
        let target = gates::cnot().to_matrix::<f64>(&[]).unwrap();
        let mut result = instantiated_result(&[2, 2], &[(0, 1)], &target, &cache, 3);
        result.blocks = vec![(0, 1), (0, 1)]; // claims one more block than the circuit has
        assert!(matches!(
            refine_deletions(&result, &target, &RefineConfig::default(), &cache),
            Err(SynthesisError::InvalidTarget(_))
        ));

        // Wrong parameter-vector length is rejected up front.
        let mut short = instantiated_result(&[2, 2], &[(0, 1)], &target, &cache, 3);
        short.params.pop();
        assert!(matches!(
            refine_deletions(&short, &target, &RefineConfig::default(), &cache),
            Err(SynthesisError::InvalidTarget(_))
        ));

        // A circuit with the right op *count* but no entangler at the block position
        // must error, not panic inside block extraction.
        let mut flat = QuditCircuit::qubits(2);
        let u3 = flat.cache_operation(gates::u3()).unwrap();
        for wire in [0usize, 1, 0, 1, 0] {
            flat.append_ref(u3, vec![wire]).unwrap();
        }
        let params = vec![0.1; flat.num_params()];
        let bogus = SynthesisResult {
            blocks: vec![(0, 1)],
            params,
            infidelity: 1e-12,
            success: true,
            nodes_expanded: 0,
            blocks_deleted: 0,
            refined_infidelity: None,
            params_folded: 0,
            gates_constified: 0,
            circuit: flat,
        };
        assert!(matches!(
            refine_deletions(&bogus, &target, &RefineConfig::default(), &cache),
            Err(SynthesisError::InvalidTarget(_))
        ));
    }

    #[test]
    fn fold_constants_snaps_symbolic_parameters() {
        // A hand-built optimum exactly on symbolic constants, perturbed by 1e-9: the
        // fold must snap the perturbed values back and keep the (tiny) infidelity.
        // Every gate's parameters snap, so every gate is constified with them.
        let cache = ExpressionCache::new();
        let circuit = builders::pqc_template(&[2, 2], &[(0, 1)]).unwrap();
        let exact: Vec<f64> = (0..circuit.num_params())
            .map(|k| match k % 3 {
                0 => 0.0,
                1 => std::f64::consts::PI,
                _ => std::f64::consts::FRAC_PI_2,
            })
            .collect();
        let target = circuit.unitary::<f64>(&exact).unwrap();
        let perturbed: Vec<f64> =
            exact.iter().enumerate().map(|(k, &v)| v + 1e-9 * (k as f64 + 1.0)).collect();
        let result = SynthesisResult {
            blocks: vec![(0, 1)],
            params: perturbed,
            infidelity: 1e-12,
            success: true,
            nodes_expanded: 0,
            blocks_deleted: 0,
            refined_infidelity: None,
            params_folded: 0,
            gates_constified: 0,
            circuit,
        };
        let folded = fold_constants(&result, &target, &FoldConfig::default(), &cache).unwrap();
        assert_eq!(folded.params_folded, exact.len());
        assert!(folded.params.is_empty());
        // Read back in op order, the baked-in values are exactly the constants.
        let snapped: Vec<f64> = folded
            .circuit
            .ops()
            .iter()
            .flat_map(|op| folded.circuit.op_values(op, &folded.params).unwrap())
            .collect();
        assert_eq!(snapped, exact);
        assert!(folded.infidelity < 1e-10);
    }
}
