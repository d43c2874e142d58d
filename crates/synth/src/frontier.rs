//! The parallel frontier evaluator: instantiates every candidate expansion of a search
//! step concurrently.
//!
//! Workers are scoped threads; each worker owns **one** TNVM-backed evaluator that it
//! re-targets per candidate through the arena-reusing `Tnvm::load` path, and all
//! workers share a single `ExpressionCache`, so each unique gate expression still
//! compiles exactly once per process no matter how many candidates the search visits.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use qudit_network::{compile_network, TensorNetwork, TnvmProgram};
use qudit_optimize::{
    instantiate_parallel_until, instantiate_until, warm_cache, InstantiateConfig, LmStats,
    TnvmEvaluator,
};
use qudit_qvm::ExpressionCache;
use qudit_tensor::Matrix;
use qudit_tnvm::KernelCounters;
use qudit_trace::TraceRegistry;

/// One candidate circuit awaiting evaluation.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The block sequence identifying the candidate (coupling-edge indices, in order).
    pub blocks: Vec<usize>,
    /// The candidate's tensor network (parent network + one pushed block).
    pub network: TensorNetwork,
    /// Warm-start parameters inherited from the parent node, if any.
    pub warm_start: Option<Vec<f64>>,
}

/// An instantiated candidate.
#[derive(Debug, Clone)]
pub struct EvaluatedCandidate {
    /// The candidate's block sequence.
    pub blocks: Vec<usize>,
    /// Best parameters found.
    pub params: Vec<f64>,
    /// Hilbert–Schmidt infidelity at those parameters.
    pub infidelity: f64,
    /// Total LM iterations spent on this candidate.
    pub iterations: usize,
    /// Multi-start attempts this candidate consumed.
    pub starts: usize,
    /// Kernel-dispatch counters accumulated while instantiating this candidate.
    pub kernels: KernelCounters,
    /// LM trial and stop-reason counts of this candidate's starts.
    pub lm: LmStats,
}

/// Derives a per-candidate instantiation seed from the block sequence, so evaluation
/// results do not depend on the order candidates are pulled off the work queue.
///
/// Each round mixes both the block index (offset by one, so edge `0` still perturbs
/// the state) and its position in the sequence (so permutations of the same multiset
/// of blocks hash apart) before the multiply/rotate diffusion step. The function is
/// public so determinism audits can assert collision-freedom over template spaces —
/// see the collision tests here and the proptest in the integration suite.
pub fn candidate_seed(base: u64, blocks: &[usize]) -> u64 {
    let mut seed = base ^ 0x51ed270b7a1c4e6d;
    for (position, &block) in blocks.iter().enumerate() {
        seed ^= (block as u64).wrapping_add(1).wrapping_mul(0x9E3779B97F4A7C15);
        seed ^= (position as u64).wrapping_add(1).rotate_left(32);
        seed = seed.wrapping_mul(0x100000001b3).rotate_left(17);
    }
    seed
}

/// Instantiates all `candidates` against `target` using up to `threads` scoped worker
/// threads (1 falls back to an in-thread loop).
///
/// When `stop_on_success` is set, the early stop is **schedule-independent**: the
/// returned set is exactly the candidates `0..=s`, where `s` is the lowest index whose
/// (deterministic, per-candidate-seeded) instantiation reaches
/// `instantiate_cfg.success_threshold`. Candidate issuance is monotonic, so every
/// index below `s` is always evaluated; higher-indexed candidates that thread timing
/// happened to finish are discarded, so identical runs return identical results and
/// the search layer's winner selection sees the same successes every time. A
/// candidate above the lowest success so far is abandoned at its next LM iteration,
/// whether its starts run serially or in a nested multi-start: the cutoff only
/// decreases, so it would be discarded anyway.
///
/// Results are returned in candidate order. The thread budget is split across
/// candidates first: a wide frontier runs one serial multi-start per worker (reusing
/// each worker's TNVM arena allocations across candidates), while a frontier narrower
/// than the pool gives each candidate `threads / candidates` workers for its
/// multi-start instead, so a single-edge coupling graph still uses the machine.
///
/// With more than one thread, every candidate is lowered and its expressions are
/// compiled into `cache` serially, in candidate order, before any worker starts, and
/// each candidate counts that warm-up as its own lookups: evaluators built at once
/// would otherwise race a cold cache, and whether each lookup hit would depend on
/// timing.
pub fn evaluate_frontier(
    target: &Matrix<f64>,
    candidates: &[Candidate],
    instantiate_cfg: &InstantiateConfig,
    threads: usize,
    cache: &ExpressionCache,
    stop_on_success: bool,
) -> Vec<EvaluatedCandidate> {
    let _span = instantiate_cfg.trace.span("frontier");
    let per_candidate_threads = (threads.max(1) / candidates.len().max(1)).max(1);
    let prewarmed: Vec<(TnvmProgram, KernelCounters)> = if threads > 1 {
        candidates
            .iter()
            .map(|candidate| {
                let program = compile_network(&candidate.network);
                let warmed = warm_cache(&program, cache);
                (program, warmed)
            })
            .collect()
    } else {
        Vec::new()
    };
    let threads = threads.max(1).min(candidates.len().max(1));
    let next = AtomicUsize::new(0);
    // Lowest candidate index that reached the success threshold. Because indices are
    // issued in order and this only decreases, every candidate below the final value
    // is guaranteed to be evaluated — the key to the deterministic early stop.
    let min_success = AtomicUsize::new(usize::MAX);
    let results: Mutex<Vec<(usize, EvaluatedCandidate)>> =
        Mutex::new(Vec::with_capacity(candidates.len()));

    let worker = |evaluator_slot: &mut Option<TnvmEvaluator>| loop {
        // detlint: allow(thread-accumulation) — work-stealing ticket only; results
        // are re-sorted by index at the deterministic join
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index > min_success.load(Ordering::Relaxed) {
            break;
        }
        let Some(candidate) = candidates.get(index) else { break };
        let lowered;
        let (program, warmed) = match prewarmed.get(index) {
            Some((program, warmed)) => (program, Some(warmed)),
            None => {
                lowered = compile_network(&candidate.network);
                (&lowered, None)
            }
        };
        // Workers carry a *disabled* trace handle: per-candidate counters ride in the
        // results and are recorded once at the deterministic join below, after the
        // schedule-dependent tail past the early-stop cutoff has been discarded.
        let config = InstantiateConfig {
            warm_start: candidate.warm_start.clone(),
            seed: candidate_seed(instantiate_cfg.seed, &candidate.blocks),
            threads: per_candidate_threads,
            trace: TraceRegistry::disabled(),
            ..instantiate_cfg.clone()
        };
        let past_cutoff = || index > min_success.load(Ordering::Relaxed);
        let outcome = if per_candidate_threads > 1 && config.starts > 1 {
            // Narrow frontier: spend the spare workers on this candidate's starts. They
            // all build an evaluator of this program at once, from the warmed cache.
            let make = || TnvmEvaluator::from_program(program, cache);
            instantiate_parallel_until(make, target, &config, &past_cutoff)
        } else {
            let evaluator = match evaluator_slot.as_mut() {
                Some(evaluator) => {
                    evaluator.load_program(program, cache);
                    evaluator
                }
                None => evaluator_slot.insert(TnvmEvaluator::from_program(program, cache)),
            };
            instantiate_until(evaluator, target, &config, &past_cutoff).map(|mut outcome| {
                if warmed.is_some() {
                    // The evaluator's only cache lookups are its load of this program,
                    // made after the warm-up: the warm-up's outcomes count in their
                    // place, one lookup per expression as on the serial path.
                    outcome.kernels.cache_hits = 0;
                    outcome.kernels.cache_misses = 0;
                }
                outcome
            })
        };
        // Abandoned past the cutoff, like every later index.
        let Some(mut outcome) = outcome else { break };
        if let Some(warmed) = warmed {
            outcome.kernels.merge(warmed);
        }
        if stop_on_success && outcome.infidelity < config.success_threshold {
            // detlint: allow(thread-accumulation) — min is commutative and every
            // candidate below the final value is still evaluated
            min_success.fetch_min(index, Ordering::Relaxed);
        }
        results.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push((
            index,
            EvaluatedCandidate {
                blocks: candidate.blocks.clone(),
                params: outcome.params,
                infidelity: outcome.infidelity,
                iterations: outcome.total_iterations,
                starts: outcome.starts_used,
                kernels: outcome.kernels,
                lm: outcome.lm,
            },
        ));
    };

    if threads == 1 {
        let mut evaluator = None;
        worker(&mut evaluator);
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut evaluator = None;
                    worker(&mut evaluator);
                });
            }
        });
    }

    let mut evaluated = results.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
    // Drop completions past the deterministic cutoff: whether they finished depends
    // on thread timing, so they must not leak into the result set.
    let cutoff = min_success.load(Ordering::Relaxed);
    evaluated.retain(|(index, _)| *index <= cutoff);
    evaluated.sort_by_key(|(index, _)| *index);
    let evaluated: Vec<EvaluatedCandidate> =
        evaluated.into_iter().map(|(_, candidate)| candidate).collect();

    // Deterministic join point: everything recorded here is a pure function of the
    // retained (prefix-filtered) candidate set, never of thread scheduling.
    let trace = &instantiate_cfg.trace;
    if trace.enabled() {
        let mut kernels = KernelCounters::default();
        let mut lm = LmStats::default();
        let mut iterations = 0u64;
        let mut starts = 0u64;
        let mut successes = 0u64;
        for candidate in &evaluated {
            kernels.merge(&candidate.kernels);
            lm.merge(&candidate.lm);
            iterations += candidate.iterations as u64;
            starts += candidate.starts as u64;
            if candidate.infidelity < instantiate_cfg.success_threshold {
                successes += 1;
            }
        }
        trace.add("frontier.candidates", evaluated.len() as u64);
        trace.add("instantiate.calls", evaluated.len() as u64);
        trace.add("instantiate.starts", starts);
        trace.add("lm.iterations", iterations);
        lm.record_into(trace);
        if successes > 0 {
            trace.add("instantiate.successes", successes);
        }
        kernels.record_into(trace);
    }
    evaluated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::LayerGenerator;
    use crate::topology::CouplingGraph;
    use qudit_optimize::reachable_target;
    use std::time::Duration;

    #[test]
    fn frontier_evaluates_all_candidates_in_order() {
        let generator = LayerGenerator::new(&[2, 2], &CouplingGraph::linear(2)).unwrap();
        let seed_net = generator.seed_network().unwrap();
        let target = reachable_target(&generator.circuit_for(&[0]).unwrap(), 5);
        let cache = ExpressionCache::new();
        let candidates: Vec<Candidate> = [vec![0], vec![0, 0]]
            .into_iter()
            .map(|blocks| {
                let mut network = seed_net.clone();
                for &edge in &blocks {
                    network = generator.extend_network(&network, edge);
                }
                Candidate { blocks, network, warm_start: None }
            })
            .collect();
        let config = InstantiateConfig { starts: 2, ..Default::default() };
        let evaluated = evaluate_frontier(&target, &candidates, &config, 2, &cache, false);
        assert_eq!(evaluated.len(), 2);
        assert_eq!(evaluated[0].blocks, vec![0]);
        assert_eq!(evaluated[1].blocks, vec![0, 0]);
        for e in &evaluated {
            assert!(e.infidelity.is_finite());
            assert!(e.iterations > 0);
        }
        // The shared cache stores each unique (expression, mode) exactly once — two
        // gates in gradient mode — regardless of how many candidates were evaluated,
        // and a second evaluation compiles nothing.
        assert_eq!(cache.stats().entries, 2);
        let warm = evaluate_frontier(&target, &candidates, &config, 2, &cache, false);
        assert_eq!(warm.len(), 2);
        assert_eq!(cache.stats().entries, 2, "warm evaluation must not recompile");
        assert!(cache.stats().hits > 0);
    }

    #[test]
    fn candidates_past_a_success_are_abandoned() {
        // Candidate 0 starts near its solution and succeeds from there, after long
        // enough for the second worker to pick up candidate 1. Candidate 1 holds local
        // gates only, so it cannot reach the entangling target: every one of its
        // starts runs LM until it stalls or hits the cap. Raced behind candidate 0 with
        // 1,024 starts, it must cost less than 64 of those starts alone — through its
        // serial starts (two workers) and through a nested multi-start (four).
        let generator = LayerGenerator::new(&[2, 2], &CouplingGraph::linear(2)).unwrap();
        let seed_net = generator.seed_network().unwrap();
        let circuit = generator.circuit_for(&[0]).unwrap();
        let solution: Vec<f64> = (0..circuit.num_params()).map(|k| 0.3 + 0.1 * k as f64).collect();
        let target = circuit.unitary::<f64>(&solution).unwrap();
        let good = Candidate {
            blocks: vec![0],
            network: generator.extend_network(&seed_net, 0),
            warm_start: Some(solution.iter().map(|p| p + 0.3).collect()),
        };
        let hopeless = Candidate { blocks: Vec::new(), network: seed_net, warm_start: None };
        let raced = [good, hopeless];
        let cache = ExpressionCache::new();
        let timed = |candidates: &[Candidate], starts: usize, threads: usize| {
            let config = InstantiateConfig { starts, ..Default::default() };
            let clock = std::time::Instant::now();
            let evaluated = evaluate_frontier(&target, candidates, &config, threads, &cache, true);
            (evaluated, clock.elapsed())
        };
        timed(&raced[..1], 1, 1); // warms the cache
                                  // Single readings of a few milliseconds swing with the load of other tests and
                                  // processes, so each side is timed three times, alternating, and the fastest
                                  // readings are compared: transient load can slow either side's best reading
                                  // only if it hits all three of them.
        for threads in [2, 4] {
            let (mut raced_best, mut alone_best) = (Duration::MAX, Duration::MAX);
            for _ in 0..3 {
                let (alone, elapsed) = timed(&raced[1..], 64, 1);
                assert!(alone[0].infidelity > 1e-3, "{alone:?}");
                alone_best = alone_best.min(elapsed);
                let (evaluated, elapsed) = timed(&raced, 1024, threads);
                assert_eq!(evaluated.len(), 1, "{evaluated:?}");
                assert!(evaluated[0].infidelity < 1e-8, "{evaluated:?}");
                raced_best = raced_best.min(elapsed);
            }
            assert!(
                raced_best < alone_best,
                "{threads} workers: the raced frontier took at best {raced_best:?}, 64 \
                 hopeless starts alone {alone_best:?}"
            );
        }
    }

    #[test]
    fn candidate_seeds_are_order_independent_and_distinct() {
        assert_eq!(candidate_seed(7, &[0, 1]), candidate_seed(7, &[0, 1]));
        assert_ne!(candidate_seed(7, &[0, 1]), candidate_seed(7, &[1, 0]));
        assert_ne!(candidate_seed(7, &[0]), candidate_seed(7, &[0, 0]));
        // Edge 0 in the first round must perturb the state (the regression the
        // `b + 1` mixing fixes): prepending block 0 always changes the seed.
        assert_ne!(candidate_seed(7, &[0]), candidate_seed(7, &[]));
        assert_ne!(candidate_seed(7, &[0, 3]), candidate_seed(7, &[3]));
    }

    #[test]
    fn candidate_seeds_are_collision_free_over_short_sequences() {
        // All block sequences of length ≤ 3 over 8 coupling edges (1 + 8 + 64 + 512
        // sequences) must hash to distinct seeds, for several base seeds.
        for base in [0u64, 7, 0xdead_beef, u64::MAX] {
            let mut seen = std::collections::HashMap::new();
            let mut sequences: Vec<Vec<usize>> = vec![Vec::new()];
            for a in 0..8usize {
                sequences.push(vec![a]);
                for b in 0..8usize {
                    sequences.push(vec![a, b]);
                    for c in 0..8usize {
                        sequences.push(vec![a, b, c]);
                    }
                }
            }
            assert_eq!(sequences.len(), 1 + 8 + 64 + 512);
            for blocks in sequences {
                let seed = candidate_seed(base, &blocks);
                if let Some(previous) = seen.insert(seed, blocks.clone()) {
                    panic!("seed collision under base {base}: {previous:?} vs {blocks:?}");
                }
            }
        }
    }
}
