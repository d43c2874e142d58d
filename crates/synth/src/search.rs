//! The bottom-up A*/beam synthesis search.
//!
//! Starting from a local-gates-only seed template, the search repeatedly pops the most
//! promising node (lowest `f = √infidelity + block_weight · depth`, the QSearch-style
//! heuristic trading solution quality against gate count), expands it by one building
//! block per coupling edge, instantiates all children in parallel, and stops as soon
//! as a child's instantiated Hilbert–Schmidt infidelity drops below the success
//! threshold. The open list is pruned to `beam_width` nodes, turning plain A* into a
//! beam search for large topologies.
//!
//! A node whose template the target's cut bound ([`CutBound`]) certifies hopeless is
//! not instantiated. It enters the open list ranked by its bound, which never exceeds
//! its infidelity, and its children start cold with twice the configured starts.

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;

use qudit_circuit::{GateSet, QuditCircuit};
use qudit_optimize::{InstantiateConfig, SUCCESS_THRESHOLD};
use qudit_qvm::{CompileOptions, ExpressionCache};
use qudit_tensor::Matrix;

use crate::bound::CutBound;
use crate::frontier::{evaluate_frontier, Candidate, EvaluatedCandidate};
use crate::layers::LayerGenerator;
use crate::refine::{attempt_policy, FoldConfig, RefineConfig};
use crate::topology::CouplingGraph;
use crate::SynthesisError;

/// Configuration of a synthesis run.
#[derive(Debug, Clone)]
pub struct SynthesisConfig {
    /// The qudit radices of the target system (e.g. `[2, 2]` for two qubits).
    pub radices: Vec<usize>,
    /// Which pairs may be entangled.
    pub coupling: CouplingGraph,
    /// The building-block registry the search draws from: locals keyed by radix,
    /// entanglers keyed by (unordered) radix pair. Defaults to
    /// [`GateSet::default_for`] the radices; replace it to synthesize over a custom
    /// (e.g. hardware-native) gate set.
    pub gate_set: GateSet,
    /// Maximum number of entangling blocks in a candidate (the search depth bound).
    pub max_blocks: usize,
    /// Open-list cap: after each expansion only the `beam_width` best nodes survive.
    pub beam_width: usize,
    /// Total candidate-instantiation budget across the whole search.
    pub max_nodes: usize,
    /// Infidelity below which a candidate is accepted (early exit).
    pub success_threshold: f64,
    /// Weight of the gate-count term in the A* heuristic
    /// `f = √infidelity + block_weight · blocks`.
    pub block_weight: f64,
    /// Per-instantiation settings, shared by every stage of the pipeline. Its
    /// `threads` is the frontier evaluator's worker budget (`0` = available
    /// parallelism): candidates are evaluated concurrently, and a candidate's own
    /// starts run in parallel only when the frontier is narrower than the worker
    /// pool. Its `trace` is the observability sink of the search, the frontier,
    /// refine and every instantiation (disabled by default; the `qudit-compile`
    /// driver installs an enabled registry per compilation).
    pub instantiate: InstantiateConfig,
    /// Base seed for all per-candidate deterministic seeds.
    pub seed: u64,
    /// Element-wise tolerance for the up-front `target` unitarity validation. Long
    /// mixed-precision pipelines produce targets whose deviation exceeds the strict
    /// default; widen this instead of pre-polishing the matrix.
    pub unitary_tolerance: f64,
}

impl SynthesisConfig {
    /// A default configuration for the given radices on a line — the general
    /// constructor behind [`SynthesisConfig::qubits`]/[`SynthesisConfig::qutrits`],
    /// and the entry point for mixed-radix systems (e.g. `vec![2, 3]` for a
    /// qubit–qutrit pair).
    pub fn with_radices(radices: Vec<usize>) -> Self {
        let n = radices.len();
        SynthesisConfig {
            gate_set: GateSet::default_for(&radices),
            radices,
            coupling: CouplingGraph::linear(n),
            max_blocks: 8,
            beam_width: 8,
            max_nodes: 256,
            success_threshold: SUCCESS_THRESHOLD,
            block_weight: 1e-2,
            instantiate: InstantiateConfig { starts: 4, ..Default::default() },
            seed: 0,
            unitary_tolerance: 1e-8,
        }
    }

    /// A default configuration for `n` qubits on a line.
    pub fn qubits(n: usize) -> Self {
        SynthesisConfig::with_radices(vec![2; n])
    }

    /// A default configuration for `n` qutrits on a line.
    pub fn qutrits(n: usize) -> Self {
        SynthesisConfig::with_radices(vec![3; n])
    }

    /// The deterministic instantiation configuration every stage of the pipeline
    /// derives its per-candidate seeds from: the configured instantiation settings with
    /// the success threshold applied, the search seed mixed into the base seed, and
    /// the pipeline's one LM policy, which stops every run at its cost plateau.
    pub fn frontier_instantiate_config(&self) -> InstantiateConfig {
        let mut config = attempt_policy(self.instantiate.clone());
        config.success_threshold = self.success_threshold;
        config.seed ^= self.seed;
        config
    }

    /// The refinement (gate-deletion) configuration the default pipeline derives from
    /// this search configuration: the frontier's instantiation settings.
    pub fn refine_config(&self) -> RefineConfig {
        let instantiate = self.frontier_instantiate_config();
        RefineConfig {
            success_threshold: self.success_threshold,
            seed: instantiate.seed ^ 0xcafe_f00d_5eed_0001,
            instantiate,
            gate_set: Some(self.gate_set.clone()),
        }
    }

    /// The constant-folding configuration the default pipeline derives from this
    /// search configuration.
    pub fn fold_config(&self) -> FoldConfig {
        FoldConfig { success_threshold: self.success_threshold, ..FoldConfig::default() }
    }
}

/// The outcome of a synthesis run.
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// The synthesized template with the chosen building blocks.
    pub circuit: QuditCircuit,
    /// The instantiated parameter values for `circuit`.
    pub params: Vec<f64>,
    /// The Hilbert–Schmidt infidelity of `circuit(params)` against the target.
    pub infidelity: f64,
    /// Number of candidate circuits the search visited, the root included. A visited
    /// candidate is either instantiated or certified hopeless by the target's cut
    /// bound ([`CutBound`]), which ranks it without an LM run.
    pub nodes_expanded: usize,
    /// The coupling-edge pairs of the chosen blocks, in circuit order.
    pub blocks: Vec<(usize, usize)>,
    /// Whether `infidelity` is below the configured success threshold.
    pub success: bool,
    /// Entangling blocks removed by the refinement pass (`0` when refinement did not
    /// run or found nothing to delete). The pre-refine depth is
    /// `blocks.len() + blocks_deleted`.
    pub blocks_deleted: usize,
    /// The infidelity after refinement, `Some` exactly when the refinement pass ran.
    pub refined_infidelity: Option<f64>,
    /// Parameters the refinement pass snapped to exact symbolic constants.
    pub params_folded: usize,
    /// Parameterized gates whose parameters all snapped to symbolic constants and were
    /// converted into constant gate applications (so re-compiling the circuit JITs
    /// cheaper, constant-folded expressions). `0` when constification did not run.
    pub gates_constified: usize,
}

/// How many times the configured starts a child of a certified node runs with: it
/// has no warm start, because its parent spent none.
const COLD_START_FACTOR: usize = 2;

/// One open-list entry. Ordered so that `BinaryHeap` pops the lowest `f` first, with
/// deterministic tie-breaking on depth and then block sequence. A certified node has
/// no parameters: its `f` comes from its bound, and its children start cold.
struct OpenNode {
    f: f64,
    blocks: Vec<usize>,
    params: Option<Vec<f64>>,
    network: qudit_network::TensorNetwork,
}

impl PartialEq for OpenNode {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == CmpOrdering::Equal
    }
}
impl Eq for OpenNode {}
impl PartialOrd for OpenNode {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for OpenNode {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest f on top.
        other
            .f
            .total_cmp(&self.f)
            .then_with(|| other.blocks.len().cmp(&self.blocks.len()))
            .then_with(|| other.blocks.cmp(&self.blocks))
    }
}

/// The bottom-up A*/beam search itself — the engine stage behind `SynthesisPass` in
/// the `qudit-compile` pipeline. Never refines: gate deletion and constant folding are
/// separate pipeline stages ([`refine_deletions`](crate::refine_deletions),
/// [`fold_constants`](crate::fold_constants)).
///
/// The search is bottom-up and instantiation-driven: every candidate's quality is the
/// numerically instantiated Hilbert–Schmidt infidelity, produced by the TNVM pipeline
/// with one shared [`ExpressionCache`] for the entire search.
///
/// # Errors
///
/// Returns a [`SynthesisError`] when the configuration is inconsistent (unsupported
/// radices, disconnected or mismatched coupling graph) or the target's dimension does
/// not match the configured radices (or is not unitary).
pub fn run_search(
    target: &Matrix<f64>,
    config: &SynthesisConfig,
    cache: &ExpressionCache,
) -> Result<SynthesisResult, SynthesisError> {
    let generator =
        LayerGenerator::with_gate_set(&config.radices, &config.coupling, config.gate_set.clone())?;
    validate_target(target, config)?;
    let trace = &config.instantiate.trace;
    let _search_span = trace.span("search");

    // Pre-compile the (tiny) gate set once, so frontier workers never race a cold
    // cache into compiling the same expression twice. The generator validated every
    // lookup, so the registry reads cannot fail; iteration order is deterministic
    // (BTreeSet over radices, then over edge radix pairs) — so the prewarm's lookup
    // outcomes are deterministic and counted directly.
    let seed_network = generator.seed_network()?;
    let options = CompileOptions::with_gradient();
    let gate_set = generator.gate_set();
    let mut prewarm_hits = 0u64;
    let mut prewarm_misses = 0u64;
    let mut prewarm = |hit: bool| {
        if hit {
            prewarm_hits += 1;
        } else {
            prewarm_misses += 1;
        }
    };
    for radix in config.radices.iter().copied().collect::<std::collections::BTreeSet<_>>() {
        let local = gate_set.local(radix).expect("generator validated every radix");
        prewarm(cache.get_or_compile_traced(local, &options).1);
    }
    let edge_pairs: std::collections::BTreeSet<(usize, usize)> = config
        .coupling
        .edges()
        .iter()
        .map(|&(a, b)| {
            let (ra, rb) = (config.radices[a], config.radices[b]);
            (ra.min(rb), ra.max(rb))
        })
        .collect();
    for (ra, rb) in edge_pairs {
        let entangler = gate_set.entangler(ra, rb).expect("generator validated every edge");
        prewarm(cache.get_or_compile_traced(entangler, &options).1);
    }
    if prewarm_hits > 0 {
        trace.add("cache.hits", prewarm_hits);
    }
    if prewarm_misses > 0 {
        trace.add("cache.misses", prewarm_misses);
    }

    let threads = qudit_optimize::resolve_threads(config.instantiate.threads);
    let frontier_cfg = config.frontier_instantiate_config();
    // A child of a certified node has no warm start: it gets the starts its parent
    // did not spend.
    let cold_cfg = InstantiateConfig {
        starts: COLD_START_FACTOR * frontier_cfg.starts,
        ..frontier_cfg.clone()
    };
    let bound = CutBound::new(target, &config.radices, gate_set, config.success_threshold);

    let finish = |best: &EvaluatedCandidate, nodes_expanded: usize| {
        let circuit = generator.circuit_for(&best.blocks)?;
        Ok(SynthesisResult {
            blocks: generator.edges_of(&best.blocks),
            params: best.params.clone(),
            infidelity: best.infidelity,
            success: best.infidelity < config.success_threshold,
            circuit,
            nodes_expanded,
            blocks_deleted: 0,
            refined_infidelity: None,
            params_folded: 0,
            gates_constified: 0,
        })
    };
    let visit = |visited: usize, certified: usize| {
        trace.add("search.nodes_expanded", visited as u64);
        if certified > 0 {
            trace.add("search.nodes_certified", certified as u64);
        }
    };

    // Evaluate the root (local gates only) first: single-qudit-equivalent targets
    // synthesize without any entangler. A certified node, the root included, is
    // never instantiated: it is ranked by its bound, which never exceeds its
    // infidelity, and expanded as usual.
    let mut nodes_expanded = 1usize;
    let mut open: BinaryHeap<OpenNode> = BinaryHeap::new();
    // The best instantiated node, and the least hopeless certified one.
    let mut best: Option<EvaluatedCandidate> = None;
    let mut best_certified: Option<(f64, Vec<usize>)> = None;
    if let Some(root_bound) = bound.certify(&[]) {
        visit(1, 1);
        best_certified = Some((root_bound, Vec::new()));
        open.push(OpenNode {
            f: heuristic(root_bound, 0, config.block_weight),
            blocks: Vec::new(),
            params: None,
            network: seed_network.clone(),
        });
    } else {
        let root_candidate =
            Candidate { blocks: Vec::new(), network: seed_network.clone(), warm_start: None };
        let root = evaluate_frontier(target, &[root_candidate], &frontier_cfg, 1, cache, false)
            .pop()
            .expect("root evaluation always returns");
        visit(1, 0);
        if root.infidelity < config.success_threshold {
            return finish(&root, nodes_expanded);
        }
        open.push(OpenNode {
            f: heuristic(root.infidelity, 0, config.block_weight),
            blocks: root.blocks.clone(),
            params: Some(root.params.clone()),
            network: seed_network.clone(),
        });
        best = Some(root);
    }

    while let Some(node) = open.pop() {
        if nodes_expanded >= config.max_nodes {
            break;
        }
        if node.blocks.len() >= config.max_blocks {
            continue;
        }
        // Generate every one-block expansion of this node, set the certified ones
        // aside, and evaluate the rest in parallel.
        let mut certified = Vec::new();
        let mut indices = Vec::new();
        let mut candidates = Vec::new();
        for (index, blocks) in generator
            .expansions(&node.blocks)
            .into_iter()
            .take(config.max_nodes.saturating_sub(nodes_expanded))
            .enumerate()
        {
            let edge = *blocks.last().expect("expansions append one block");
            let network = generator.extend_network(&node.network, edge);
            match bound.certify(&generator.edges_of(&blocks)) {
                Some(child_bound) => certified.push((index, child_bound, blocks, network)),
                None => {
                    indices.push(index);
                    candidates.push(Candidate { blocks, network, warm_start: node.params.clone() });
                }
            }
        }
        if certified.is_empty() && candidates.is_empty() {
            break;
        }
        let instantiate = if node.params.is_some() { &frontier_cfg } else { &cold_cfg };
        let evaluated = if candidates.is_empty() {
            Vec::new()
        } else {
            evaluate_frontier(target, &candidates, instantiate, threads, cache, true)
        };
        // The frontier stops at its lowest-indexed success; a certified sibling past
        // that success is not visited either.
        let succeeded = evaluated.iter().any(|child| child.infidelity < config.success_threshold);
        if succeeded {
            let cutoff = indices[evaluated.len() - 1];
            certified.retain(|(index, ..)| *index < cutoff);
        }
        nodes_expanded += evaluated.len() + certified.len();
        visit(evaluated.len() + certified.len(), certified.len());

        // Deterministic winner selection: the frontier's evaluated set is itself
        // schedule-independent (see `evaluate_frontier`), and when several candidates
        // succeed the winner is chosen by the same total order `OpenNode` uses —
        // `(f, blocks.len(), blocks)` — not by which thread finished first.
        if let Some(winner) = evaluated
            .iter()
            .filter(|child| child.infidelity < config.success_threshold)
            .min_by(|a, b| candidate_order(a, b, config.block_weight))
        {
            return finish(winner, nodes_expanded);
        }
        // Best-effort tracking for the failure path stays infidelity-first (with the
        // same deterministic tie-breaks): a failed search should report the closest
        // approximation it evaluated, not the one the gate-count-penalized heuristic
        // happens to prefer.
        for child in &evaluated {
            if best.as_ref().is_none_or(|best| infidelity_order(child, best) == CmpOrdering::Less) {
                best = Some(child.clone());
            }
        }
        for (_, child_bound, blocks, _) in &certified {
            let key = (*child_bound, blocks.len(), blocks);
            if best_certified.as_ref().is_none_or(|(b, least)| key < (*b, least.len(), least)) {
                best_certified = Some((*child_bound, blocks.clone()));
            }
        }

        // Move each surviving child's network out of its candidate (an early stop may
        // have skipped some candidates, so match by block sequence).
        let mut networks: Vec<(Vec<usize>, qudit_network::TensorNetwork)> =
            candidates.into_iter().map(|c| (c.blocks, c.network)).collect();
        for child in evaluated {
            let at = networks
                .iter()
                .position(|(blocks, _)| *blocks == child.blocks)
                .expect("every evaluated child came from a candidate");
            let (_, network) = networks.swap_remove(at);
            open.push(OpenNode {
                f: heuristic(child.infidelity, child.blocks.len(), config.block_weight),
                network,
                blocks: child.blocks,
                params: Some(child.params),
            });
        }
        for (_, child_bound, blocks, network) in certified {
            open.push(OpenNode {
                f: heuristic(child_bound, blocks.len(), config.block_weight),
                network,
                blocks,
                params: None,
            });
        }

        // Beam pruning: keep only the best `beam_width` open nodes.
        if config.beam_width > 0 && open.len() > config.beam_width {
            trace.add("search.nodes_pruned", (open.len() - config.beam_width) as u64);
            let mut kept: Vec<OpenNode> = Vec::with_capacity(config.beam_width);
            for _ in 0..config.beam_width {
                kept.push(open.pop().expect("heap holds more than beam_width nodes"));
            }
            open = kept.into_iter().collect();
        }
    }

    // A failed search reports a fitted infidelity, never a bound: when every node it
    // visited was certified, it instantiates the least hopeless one.
    let best = match best {
        Some(best) => best,
        None => {
            let (_, blocks) = best_certified.expect("the root is always visited");
            let network = blocks
                .iter()
                .fold(seed_network, |network, &edge| generator.extend_network(&network, edge));
            let candidate = Candidate { blocks, network, warm_start: None };
            evaluate_frontier(target, &[candidate], &cold_cfg, threads, cache, false)
                .pop()
                .expect("a one-candidate frontier always returns")
        }
    };
    finish(&best, nodes_expanded)
}

/// Validates a target against a configuration the way every synthesis front door
/// must: matching dimension, numerical unitarity within the configured tolerance,
/// and a connected coupling graph. Shared by [`run_search`] and the `qudit-compile`
/// partitioning front-end, so wide and narrow targets get identical diagnostics.
///
/// # Errors
///
/// Returns [`SynthesisError::InvalidTarget`] for shape/unitarity violations and
/// [`SynthesisError::InvalidCoupling`] for a disconnected graph.
pub fn validate_target(
    target: &Matrix<f64>,
    config: &SynthesisConfig,
) -> Result<(), SynthesisError> {
    let dim =
        config.radices.iter().try_fold(1usize, |dim, &r| dim.checked_mul(r)).ok_or_else(|| {
            SynthesisError::InvalidTarget(format!(
                "the radices {:?} imply a dimension that overflows",
                config.radices
            ))
        })?;
    if target.rows() != dim || target.cols() != dim {
        return Err(SynthesisError::InvalidTarget(format!(
            "target is {}×{} but the radices {:?} require {dim}×{dim}",
            target.rows(),
            target.cols(),
            config.radices
        )));
    }
    // `>` alone would accept a NaN deviation, so compare through is-nan explicitly.
    let deviation = target.unitary_deviation();
    if deviation > config.unitary_tolerance || deviation.is_nan() {
        return Err(SynthesisError::InvalidTarget(format!(
            "target matrix is not unitary: max |U†U − I| element is {deviation:.3e} \
             (tolerance {:.3e})",
            config.unitary_tolerance
        )));
    }
    if config.radices.len() > 1 && !config.coupling.is_connected() {
        return Err(SynthesisError::InvalidCoupling(
            "coupling graph is disconnected; a generic target is unreachable".to_string(),
        ));
    }
    Ok(())
}

/// The QSearch-style A* priority: root-scaled distance plus a gate-count penalty.
fn heuristic(infidelity: f64, blocks: usize, block_weight: f64) -> f64 {
    infidelity.max(0.0).sqrt() + block_weight * blocks as f64
}

/// The deterministic total order over evaluated candidates — the same
/// `(f, blocks.len(), blocks)` ranking [`OpenNode`]'s `Ord` uses, so the candidate a
/// frontier promotes (or, among successes, returns) never depends on thread timing.
fn candidate_order(
    a: &EvaluatedCandidate,
    b: &EvaluatedCandidate,
    block_weight: f64,
) -> CmpOrdering {
    heuristic(a.infidelity, a.blocks.len(), block_weight)
        .total_cmp(&heuristic(b.infidelity, b.blocks.len(), block_weight))
        .then_with(|| a.blocks.len().cmp(&b.blocks.len()))
        .then_with(|| a.blocks.cmp(&b.blocks))
}

/// Deterministic ranking by raw infidelity (ties broken like [`candidate_order`]) —
/// used to track the best-effort answer a failed search returns.
fn infidelity_order(a: &EvaluatedCandidate, b: &EvaluatedCandidate) -> CmpOrdering {
    a.infidelity
        .total_cmp(&b.infidelity)
        .then_with(|| a.blocks.len().cmp(&b.blocks.len()))
        .then_with(|| a.blocks.cmp(&b.blocks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_circuit::gates;
    use qudit_optimize::{haar_random_unitary, reachable_target};
    use qudit_trace::TraceRegistry;

    fn search(
        target: &Matrix<f64>,
        config: &SynthesisConfig,
    ) -> Result<SynthesisResult, SynthesisError> {
        run_search(target, config, &ExpressionCache::new())
    }

    fn quick(mut config: SynthesisConfig) -> SynthesisConfig {
        config.instantiate.starts = 4;
        config.max_nodes = 64;
        config
    }

    #[test]
    fn synthesizes_cnot_with_one_block() {
        let target = gates::cnot().to_matrix::<f64>(&[]).unwrap();
        let result = search(&target, &quick(SynthesisConfig::qubits(2))).unwrap();
        assert!(result.success, "infidelity {}", result.infidelity);
        assert!(result.infidelity < SUCCESS_THRESHOLD);
        assert_eq!(result.blocks, vec![(0, 1)]);
        assert_eq!(result.params.len(), result.circuit.num_params());
        assert!(result.nodes_expanded >= 2);
    }

    #[test]
    fn synthesizes_single_qubit_target_without_entanglers() {
        // H ⊗ H is a product of locals: the root node must already succeed.
        let mut circuit = QuditCircuit::qubits(2);
        let h = circuit.cache_operation(gates::hadamard()).unwrap();
        circuit.append_ref_constant(h, vec![0], vec![]).unwrap();
        circuit.append_ref_constant(h, vec![1], vec![]).unwrap();
        let target = circuit.unitary::<f64>(&[]).unwrap();
        let result = search(&target, &quick(SynthesisConfig::qubits(2))).unwrap();
        assert!(result.success);
        assert!(result.blocks.is_empty(), "expected no entanglers, got {:?}", result.blocks);
        assert_eq!(result.nodes_expanded, 1);
    }

    #[test]
    fn respects_node_budget_and_reports_failure() {
        // A Haar-random 3-qubit unitary is far out of reach of a 2-block budget.
        let target = haar_random_unitary(8, 99);
        let mut config = SynthesisConfig::qubits(3);
        config.max_blocks = 1;
        config.max_nodes = 8;
        config.instantiate.starts = 1;
        config.instantiate.trace = TraceRegistry::new();
        let result = search(&target, &config).unwrap();
        assert!(!result.success);
        assert!(result.infidelity > 1e-3);
        assert!(result.nodes_expanded <= 8);
        // The cut bound certifies every node the search visits, so the search fits
        // just one of them at the end: the result's infidelity is that fit's, and its
        // parameters reproduce it on its circuit.
        let metrics = config.instantiate.trace.counters();
        let visited = Some(result.nodes_expanded as u64);
        assert_eq!(metrics.get("search.nodes_certified").copied(), visited, "{metrics:?}");
        assert_eq!(metrics.get("instantiate.calls"), Some(&1), "{metrics:?}");
        assert_eq!(result.params.len(), result.circuit.num_params());
        let unitary = result.circuit.unitary::<f64>(&result.params).unwrap();
        let refit = qudit_optimize::hs_infidelity(&target, &unitary);
        assert!((refit - result.infidelity).abs() < 1e-12, "{refit} vs {}", result.infidelity);
    }

    #[test]
    fn rejects_bad_targets_and_configs() {
        let config = SynthesisConfig::qubits(2);
        // Wrong dimension.
        assert!(matches!(
            search(&haar_random_unitary(8, 1), &config),
            Err(SynthesisError::InvalidTarget(_))
        ));
        // Non-unitary, with the measured deviation in the message.
        let bad = Matrix::<f64>::zeros(4, 4);
        match search(&bad, &config) {
            Err(SynthesisError::InvalidTarget(message)) => {
                assert!(message.contains("not unitary"), "{message}");
                assert!(message.contains("tolerance"), "{message}");
            }
            other => panic!("expected InvalidTarget, got {other:?}"),
        }
        // A NaN-poisoned target must be rejected, not synthesized to `success`.
        let mut poisoned = Matrix::<f64>::identity(4);
        poisoned.set(0, 0, qudit_tensor::C64::new(f64::NAN, 0.0));
        assert!(matches!(search(&poisoned, &config), Err(SynthesisError::InvalidTarget(_))));
        // Disconnected coupling.
        let mut disconnected = SynthesisConfig::qubits(4);
        disconnected.coupling = CouplingGraph::new(4, [(0, 1), (2, 3)]).unwrap();
        assert!(matches!(
            search(&haar_random_unitary(16, 2), &disconnected),
            Err(SynthesisError::InvalidCoupling(_))
        ));
    }

    #[test]
    fn rejects_radix_products_that_overflow() {
        // 2^64 wraps to 0 in a plain product, which an empty target would match.
        match validate_target(&Matrix::<f64>::zeros(0, 0), &SynthesisConfig::qubits(64)) {
            Err(SynthesisError::InvalidTarget(message)) => {
                assert!(message.contains("overflows"), "{message}");
            }
            other => panic!("expected InvalidTarget, got {other:?}"),
        }
    }

    #[test]
    fn recovers_reachable_two_qutrit_target() {
        let template = qudit_circuit::builders::pqc_template(&[3, 3], &[(0, 1)]).unwrap();
        let target = reachable_target(&template, 12);
        let mut config = quick(SynthesisConfig::qutrits(2));
        config.max_blocks = 2;
        let result = search(&target, &config).unwrap();
        assert!(result.success, "infidelity {}", result.infidelity);
        assert_eq!(result.circuit.radices(), &[3, 3]);
    }
}
