//! [`PartitionPass`] — the width-scaling front-end: splits a wide target along a
//! coupling-graph cut and compiles it partition-first, opening the >3-qudit workload
//! the monolithic search cannot practically reach.
//!
//! The qudits are grouped along the coupling graph (deterministic BFS growth, groups
//! of at most two qudits); the coupling edges split into *internal* edges (both
//! endpoints in one group) and *cut* edges (crossing groups). The pass then
//! instantiates an escalating sequence of partitioned templates — each round appends
//! one building block per internal edge, then one per cut edge — warm-starting every
//! round from the previous optimum, until the instantiated Hilbert–Schmidt
//! infidelity drops below the success threshold, for at most four rounds. Structure
//! discovery is thereby replaced by the partition layout: no search tree over the
//! exponentially wide candidate space is ever built, which is exactly why this
//! front-end scales past the A* engine's practical width limit. The sketch is the
//! pass's result; the ordinary [`RefinePass`](crate::RefinePass) /
//! [`FoldPass`](crate::FoldPass) tail deletes the blocks it does not need and folds
//! the survivor.
//!
//! The pass builds the target's cut bound ([`CutBound`]) once, the same bound the
//! search and refine use. A round whose template it *certifies* hopeless runs one
//! start, only to warm-start the next round; it still counts as a round, and it
//! stays eligible as the result, so a compile whose rounds are all certified returns
//! fitted parameters. Every uncertified round runs four times the configured starts:
//! with the configured four, 3 and 5 of two 90-target sweeps' reachable 4-qubit
//! targets failed although round 2's template generated them; with sixteen, none
//! did. Every round stops its LM runs at their cost plateau,
//! the LM policy the search and refine share
//! ([`SynthesisConfig::frontier_instantiate_config`]).
//!
//! [`SynthesisConfig::frontier_instantiate_config`]:
//!     qudit_synth::SynthesisConfig::frontier_instantiate_config
//!
//! Narrow targets (three qudits or fewer, the practical reach of the monolithic A*
//! engine) skip the pass entirely, so it composes transparently in front of the
//! standard pipeline. A pass that ran records `partition.rounds` (escalation rounds
//! instantiated, certified ones included), `partition.rounds.certified` (when any
//! was), `partition.groups` and `partition.cut_edges`; a skipped one records nothing.
//!
//! Every seed derives deterministically from the task configuration and the block
//! layout, so partitioned compilation inherits the engine's byte-for-byte
//! reproducibility guarantee.

use std::collections::BTreeMap;

use qudit_circuit::builders;
use qudit_optimize::instantiate_circuit;
use qudit_synth::{candidate_seed, validate_target, CouplingGraph, CutBound, SynthesisResult};

use crate::error::CompileError;
use crate::pass::{Pass, PassContext};
use crate::task::CompilationTask;

/// Deterministic index of every coupling edge, used to derive per-block seeds.
///
/// Wrapping the map keeps the lookup *fallible*: a block edge that is not in the
/// coupling graph is a degenerate input (or an internal invariant break), and in a
/// long-lived server it must fail the one request carrying it — as
/// [`CompileError::DegenerateCoupling`] — never panic the process.
struct EdgeIndex(BTreeMap<(usize, usize), usize>);

impl EdgeIndex {
    fn new(coupling: &CouplingGraph) -> Self {
        EdgeIndex(coupling.edges().iter().enumerate().map(|(i, &e)| (e, i)).collect())
    }

    fn get(&self, edge: (usize, usize)) -> Result<usize, CompileError> {
        self.0.get(&edge).copied().ok_or_else(|| CompileError::DegenerateCoupling {
            detail: format!("block edge {edge:?} is not an edge of the coupling graph"),
        })
    }
}

/// Seed salt separating the partitioned rounds' instantiations from every other stage.
const ROUND_SALT: u64 = 0x9a27_7171_0bed_0005;

/// Widths at or below this skip the pass: the plain search handles them.
const MAX_SEARCH_WIDTH: usize = 3;

/// Maximum number of qudits per partition group.
const GROUP_SIZE: usize = 2;

/// Maximum number of escalation rounds, each adding one block per coupling edge.
const MAX_ROUNDS: usize = 4;

/// How many times the configured starts an uncertified round runs with. A round
/// needs many starts to fit reliably; the rounds the cut bound rules out pay for them.
const UNCERTIFIED_START_FACTOR: usize = 4;

/// The partitioning front-end pass. See the [module docs](self) for the algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct PartitionPass;

impl Pass for PartitionPass {
    fn name(&self) -> &str {
        "partition"
    }

    fn run(
        &self,
        task: &mut CompilationTask,
        ctx: &mut PassContext<'_>,
    ) -> Result<(), CompileError> {
        if task.result.is_some() || task.config.radices.len() <= MAX_SEARCH_WIDTH {
            return Ok(());
        }
        validate_target(&task.target, &task.config)?;
        let Layout { groups, round_edges, cut_edges } = layout(&task.config.coupling)?;

        // Escalating-round sketch instantiation, warm-started round over round.
        let instantiate_base = task.config.frontier_instantiate_config();
        let bound = CutBound::new(
            &task.target,
            &task.config.radices,
            &task.config.gate_set,
            task.config.success_threshold,
        );
        let edge_index = EdgeIndex::new(&task.config.coupling);
        let mut blocks: Vec<(usize, usize)> = Vec::new();
        let mut warm: Option<Vec<f64>> = None;
        let (mut attempts, mut certified) = (0usize, 0u64);
        let mut best: Option<SynthesisResult> = None;
        for round in 1..=MAX_ROUNDS {
            // Cooperative cancellation checkpoint: rounds are the pass's unit of
            // work, so an expired deadline aborts before the next instantiation.
            ctx.checkpoint(&format!("partition:round-{round}"))?;
            blocks.extend(round_edges.iter().copied());
            let circuit =
                builders::pqc_template_with(&task.config.radices, &blocks, &task.config.gate_set)?;
            let block_indices: Vec<usize> =
                blocks.iter().map(|&e| edge_index.get(e)).collect::<Result<_, _>>()?;
            let mut icfg = instantiate_base.clone();
            icfg.seed = candidate_seed(instantiate_base.seed ^ ROUND_SALT, &block_indices);
            icfg.warm_start = warm.clone();
            // A round the cut bound rules out cannot succeed: its one start only
            // carries a warm start to the next round.
            if bound.certify(&blocks).is_some() {
                icfg.starts = 1;
                certified += 1;
            } else {
                icfg.starts = icfg.starts.saturating_mul(UNCERTIFIED_START_FACTOR);
            }
            let outcome = instantiate_circuit(&circuit, &task.target, &icfg, ctx.cache());
            attempts += 1;
            let better = best.as_ref().map(|b| outcome.infidelity < b.infidelity).unwrap_or(true);
            if better {
                best = Some(SynthesisResult {
                    blocks: blocks.clone(),
                    params: outcome.params.clone(),
                    infidelity: outcome.infidelity,
                    success: outcome.infidelity < task.config.success_threshold,
                    circuit,
                    nodes_expanded: attempts,
                    blocks_deleted: 0,
                    refined_infidelity: None,
                    params_folded: 0,
                    gates_constified: 0,
                });
            }
            warm = Some(outcome.params);
            if best.as_ref().is_some_and(|b| b.success) {
                break;
            }
        }
        let Some(mut result) = best else {
            // Defensive: the escalation loop always runs at least one round over a
            // non-empty edge set, but a broken invariant must fail typed, not panic.
            return Err(CompileError::DegenerateCoupling {
                detail: "no escalation round produced a candidate".to_string(),
            });
        };
        result.nodes_expanded = attempts;
        let trace = ctx.trace();
        trace.add("partition.rounds", attempts as u64);
        if certified > 0 {
            trace.add("partition.rounds.certified", certified);
        }
        trace.add("partition.groups", groups as u64);
        trace.add("partition.cut_edges", cut_edges as u64);
        task.result = Some(result);
        Ok(())
    }
}

/// The partition of a coupling graph that every escalation round follows.
struct Layout {
    /// How many qudit groups [`partition_groups`] formed.
    groups: usize,
    /// The blocks one round appends: the internal edges (both endpoints in one
    /// group), then the cut edges.
    round_edges: Vec<(usize, usize)>,
    /// How many of `round_edges` cross groups.
    cut_edges: usize,
}

/// Groups the qudits of `coupling` and orders its edges into one round.
///
/// # Errors
///
/// [`CompileError::DegenerateCoupling`] when the graph has no edges: there is
/// nothing to partition over, and degenerate input fails its task, never the process.
fn layout(coupling: &CouplingGraph) -> Result<Layout, CompileError> {
    let groups = partition_groups(coupling, GROUP_SIZE);
    let mut group_of = vec![0usize; coupling.num_qudits()];
    for (g, members) in groups.iter().enumerate() {
        for &q in members {
            group_of[q] = g;
        }
    }
    let (mut round_edges, cut): (Vec<_>, Vec<_>) =
        coupling.edges().iter().copied().partition(|&(a, b)| group_of[a] == group_of[b]);
    let cut_edges = cut.len();
    round_edges.extend(cut);
    if round_edges.is_empty() {
        return Err(CompileError::DegenerateCoupling {
            detail: format!(
                "coupling graph over {} qudits has no edges to partition over",
                coupling.num_qudits()
            ),
        });
    }
    Ok(Layout { groups: groups.len(), round_edges, cut_edges })
}

/// Deterministically partitions the coupling graph's qudits into connected groups of
/// at most `group_size`: repeatedly seed a group with the lowest unassigned qudit and
/// grow it BFS-style along coupling edges (lowest neighbour first).
fn partition_groups(coupling: &CouplingGraph, group_size: usize) -> Vec<Vec<usize>> {
    let n = coupling.num_qudits();
    let mut assigned = vec![false; n];
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for seed in 0..n {
        if assigned[seed] {
            continue;
        }
        let mut group = vec![seed];
        assigned[seed] = true;
        while group.len() < group_size {
            // The lowest-index unassigned qudit coupled to the group, if any.
            let next = (0..n)
                .filter(|&q| !assigned[q])
                .find(|&q| group.iter().any(|&m| coupling.contains(m, q)));
            match next {
                Some(q) => {
                    assigned[q] = true;
                    group.push(q);
                }
                None => break,
            }
        }
        group.sort_unstable();
        groups.push(group);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_synth::SynthesisError;

    #[test]
    fn grouping_is_deterministic_and_respects_the_graph() {
        let line = CouplingGraph::linear(5);
        assert_eq!(partition_groups(&line, 2), vec![vec![0, 1], vec![2, 3], vec![4]]);
        assert_eq!(partition_groups(&line, 3), vec![vec![0, 1, 2], vec![3, 4]]);
        let ring = CouplingGraph::ring(4);
        assert_eq!(partition_groups(&ring, 2), vec![vec![0, 1], vec![2, 3]]);
        // A star couples everything to 0: the first group absorbs 0's neighbours,
        // the remaining leaves are uncoupled among themselves and become singletons.
        let star = CouplingGraph::new(4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_eq!(partition_groups(&star, 2), vec![vec![0, 1], vec![2], vec![3]]);
    }

    #[test]
    fn narrow_tasks_skip_the_pass() {
        let target = qudit_circuit::gates::cnot().to_matrix::<f64>(&[]).unwrap();
        let mut task = CompilationTask::with_radices(target, vec![2, 2]);
        let cache = qudit_qvm::ExpressionCache::new();
        let trace = qudit_trace::TraceRegistry::new();
        let mut ctx = PassContext::new(&cache).with_trace(trace.clone());
        PartitionPass.run(&mut task, &mut ctx).unwrap();
        assert!(task.result.is_none());
        assert!(trace.counters().is_empty(), "{:?}", trace.counters());
    }

    #[test]
    fn wide_non_unitary_targets_are_rejected_up_front() {
        let target = qudit_tensor::Matrix::<f64>::zeros(16, 16);
        let mut task = CompilationTask::with_radices(target, vec![2, 2, 2, 2]);
        let cache = qudit_qvm::ExpressionCache::new();
        let mut ctx = PassContext::new(&cache);
        let err = PartitionPass.run(&mut task, &mut ctx).unwrap_err();
        assert!(matches!(err, CompileError::Synthesis(SynthesisError::InvalidTarget(_))));
    }

    // Regression: a disconnected coupling graph used to survive until the round
    // loop's edge-index closure, which panicked (`.expect("round edges come from
    // the coupling graph")`). It must fail the request with a typed error instead.
    #[test]
    fn disconnected_coupling_fails_typed_not_panicking() {
        let target = qudit_tensor::Matrix::<f64>::identity(16);
        let mut task = CompilationTask::with_radices(target, vec![2, 2, 2, 2]);
        task.config.coupling = CouplingGraph::new(4, [(0, 1), (2, 3)]).unwrap();
        let cache = qudit_qvm::ExpressionCache::new();
        let mut ctx = PassContext::new(&cache);
        let err = PartitionPass.run(&mut task, &mut ctx).unwrap_err();
        assert!(
            matches!(err, CompileError::Synthesis(SynthesisError::InvalidCoupling(_))),
            "{err:?}"
        );
    }

    // Regression: a single-node (edgeless) coupling graph used to run zero rounds
    // and panic on `.expect("at least one round ran")`. It must report the
    // degenerate input as a typed error.
    #[test]
    fn edgeless_coupling_fails_typed_not_panicking() {
        let Err(err) = layout(&CouplingGraph::linear(1)) else {
            panic!("an edgeless graph has no layout");
        };
        match err {
            CompileError::DegenerateCoupling { detail } => {
                assert!(detail.contains("no edges"), "{detail}");
            }
            other => panic!("expected DegenerateCoupling, got {other:?}"),
        }
    }
}
