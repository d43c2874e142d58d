//! Contraction-tree construction: the contraction-ordering problem.
//!
//! The cost of contracting a tensor network depends critically on the pairwise order in
//! which tensors are merged; finding the optimal order is NP-hard. Following the paper
//! (Sec. IV-A), OpenQudit uses a hybrid strategy: an optimal solver for small networks
//! and a fast greedy heuristic above a size threshold (7 tensors in the paper).
//!
//! Because every intermediate in a circuit-unitary contraction is itself an operator on a
//! subset of qudits, the search space used here is the space of *time-respecting pairwise
//! merges*: a merge combines an "earlier" subtree with a "later" subtree whose operations
//! never precede the earlier subtree's on any shared wire. The optimal solver performs an
//! exact interval dynamic program over the time-ordered gate sequence; the greedy solver
//! repeatedly merges the adjacent pair with the smallest resulting operator.

use crate::network::TensorNetwork;

/// A binary contraction tree over the network's gate nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContractionTree {
    /// A leaf: the gate node with this index.
    Leaf(usize),
    /// A pairwise contraction of an earlier and a later subtree.
    Merge {
        /// The subtree whose operations come first in circuit time.
        earlier: Box<ContractionTree>,
        /// The subtree whose operations come later.
        later: Box<ContractionTree>,
    },
}

impl ContractionTree {
    /// Number of leaves in the tree.
    pub fn leaf_count(&self) -> usize {
        match self {
            ContractionTree::Leaf(_) => 1,
            ContractionTree::Merge { earlier, later } => earlier.leaf_count() + later.leaf_count(),
        }
    }

    /// The leaf indices in left-to-right order.
    pub fn leaves(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves(&self, out: &mut Vec<usize>) {
        match self {
            ContractionTree::Leaf(i) => out.push(*i),
            ContractionTree::Merge { earlier, later } => {
                earlier.collect_leaves(out);
                later.collect_leaves(out);
            }
        }
    }

    /// Depth of the tree (1 for a single leaf).
    pub fn depth(&self) -> usize {
        match self {
            ContractionTree::Leaf(_) => 1,
            ContractionTree::Merge { earlier, later } => 1 + earlier.depth().max(later.depth()),
        }
    }
}

/// Which solver produced a plan (reported for benchmarks and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// Exact interval dynamic programming.
    Optimal,
    /// Greedy adjacent-pair merging.
    Greedy,
    /// Trivial (zero or one node).
    Trivial,
}

/// A contraction plan: the tree plus its estimated floating-point cost.
#[derive(Debug, Clone)]
pub struct ContractionPlan {
    /// The contraction tree. `None` when the network has no gate nodes.
    pub tree: Option<ContractionTree>,
    /// Estimated cost in floating-point operations (model units).
    pub cost: f64,
    /// Which solver produced the plan.
    pub kind: PlanKind,
}

/// The default node-count threshold above which the greedy heuristic is used, matching
/// the paper's choice of 7.
pub const OPTIMAL_THRESHOLD: usize = 7;

/// Finds a contraction plan using the hybrid strategy (optimal below
/// [`OPTIMAL_THRESHOLD`], greedy above).
pub fn find_plan(network: &TensorNetwork) -> ContractionPlan {
    find_plan_with_threshold(network, OPTIMAL_THRESHOLD)
}

/// Finds a contraction plan with an explicit optimal-solver threshold: the exact
/// interval DP at or below `threshold` gate nodes, greedy above.
fn find_plan_with_threshold(network: &TensorNetwork, threshold: usize) -> ContractionPlan {
    let n = network.nodes().len();
    match n {
        0 => ContractionPlan { tree: None, cost: 0.0, kind: PlanKind::Trivial },
        1 => ContractionPlan {
            tree: Some(ContractionTree::Leaf(0)),
            cost: 0.0,
            kind: PlanKind::Trivial,
        },
        _ if n <= threshold => {
            let (tree, cost) = optimal_interval_dp(network);
            ContractionPlan { tree: Some(tree), cost, kind: PlanKind::Optimal }
        }
        _ => {
            let (tree, cost) = greedy_adjacent(network);
            ContractionPlan { tree: Some(tree), cost, kind: PlanKind::Greedy }
        }
    }
}

/// Qudit set of a contiguous run of gate nodes `[i, j]` (inclusive).
fn interval_qudits(network: &TensorNetwork, i: usize, j: usize) -> Vec<usize> {
    let mut qudits: Vec<usize> =
        network.nodes()[i..=j].iter().flat_map(|n| n.qudits.iter().copied()).collect();
    qudits.sort_unstable();
    qudits.dedup();
    qudits
}

/// Cost model of merging two operators with the given qudit supports.
///
/// A disjoint merge is a Kronecker product (quadratic in the union dimension); an
/// overlapping merge requires expanding both operands to the union and a matrix product
/// (cubic in the union dimension).
pub fn merge_cost(network: &TensorNetwork, a: &[usize], b: &[usize]) -> f64 {
    let disjoint = a.iter().all(|q| !b.contains(q));
    let mut union: Vec<usize> = a.iter().chain(b.iter()).copied().collect();
    union.sort_unstable();
    union.dedup();
    let du = network.dim_of(&union) as f64;
    if disjoint {
        du * du
    } else {
        2.0 * du * du * du + 2.0 * du * du
    }
}

/// Exact interval dynamic program (matrix-chain style) over the time-ordered sequence.
fn optimal_interval_dp(network: &TensorNetwork) -> (ContractionTree, f64) {
    let n = network.nodes().len();
    // best[i][j] = (cost, split) for contracting nodes i..=j.
    let mut best_cost = vec![vec![0.0f64; n]; n];
    let mut best_split = vec![vec![usize::MAX; n]; n];
    for len in 2..=n {
        for i in 0..=(n - len) {
            let j = i + len - 1;
            let mut cheapest = f64::INFINITY;
            let mut split = i;
            for k in i..j {
                let left = interval_qudits(network, i, k);
                let right = interval_qudits(network, k + 1, j);
                let cost =
                    best_cost[i][k] + best_cost[k + 1][j] + merge_cost(network, &left, &right);
                if cost < cheapest {
                    cheapest = cost;
                    split = k;
                }
            }
            best_cost[i][j] = cheapest;
            best_split[i][j] = split;
        }
    }
    fn build(splits: &[Vec<usize>], i: usize, j: usize) -> ContractionTree {
        if i == j {
            return ContractionTree::Leaf(i);
        }
        let k = splits[i][j];
        ContractionTree::Merge {
            earlier: Box::new(build(splits, i, k)),
            later: Box::new(build(splits, k + 1, j)),
        }
    }
    (build(&best_split, 0, n - 1), best_cost[0][n - 1])
}

/// Greedy heuristic: repeatedly merge the adjacent pair of subtrees whose merged operator
/// is smallest (ties broken by estimated merge cost). Each subtree always covers a
/// contiguous interval of circuit time, so every merge is time-respecting.
fn greedy_adjacent(network: &TensorNetwork) -> (ContractionTree, f64) {
    struct Item {
        tree: ContractionTree,
        qudits: Vec<usize>,
    }
    let mut items: Vec<Item> = network
        .nodes()
        .iter()
        .enumerate()
        .map(|(i, node)| {
            let mut qudits = node.qudits.clone();
            qudits.sort_unstable();
            Item { tree: ContractionTree::Leaf(i), qudits }
        })
        .collect();
    let mut total_cost = 0.0;
    while items.len() > 1 {
        // Find the cheapest adjacent pair.
        let mut best_idx = 0usize;
        let mut best_key = (f64::INFINITY, f64::INFINITY);
        for idx in 0..items.len() - 1 {
            let a = &items[idx].qudits;
            let b = &items[idx + 1].qudits;
            let mut union: Vec<usize> = a.iter().chain(b.iter()).copied().collect();
            union.sort_unstable();
            union.dedup();
            let du = network.dim_of(&union) as f64;
            let cost = merge_cost(network, a, b);
            if (du, cost) < best_key {
                best_key = (du, cost);
                best_idx = idx;
            }
        }
        let right = items.remove(best_idx + 1);
        let left = std::mem::replace(
            &mut items[best_idx],
            Item { tree: ContractionTree::Leaf(0), qudits: Vec::new() },
        );
        total_cost += merge_cost(network, &left.qudits, &right.qudits);
        let mut union: Vec<usize> =
            left.qudits.iter().chain(right.qudits.iter()).copied().collect();
        union.sort_unstable();
        union.dedup();
        items[best_idx] = Item {
            tree: ContractionTree::Merge {
                earlier: Box::new(left.tree),
                later: Box::new(right.tree),
            },
            qudits: union,
        };
    }
    (items.pop().expect("at least one item").tree, total_cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_circuit::{builders, gates, QuditCircuit};

    fn ladder(n: usize, layers: usize) -> TensorNetwork {
        TensorNetwork::from_circuit(&builders::pqc_qubit_ladder(n, layers).unwrap())
    }

    #[test]
    fn trivial_plans() {
        let empty = TensorNetwork::from_circuit(&QuditCircuit::qubits(2));
        assert!(find_plan(&empty).tree.is_none());

        let mut c = QuditCircuit::qubits(1);
        let rx = c.cache_operation(gates::rx()).unwrap();
        c.append_ref(rx, vec![0]).unwrap();
        let single = TensorNetwork::from_circuit(&c);
        let plan = find_plan(&single);
        assert_eq!(plan.kind, PlanKind::Trivial);
        assert_eq!(plan.tree.unwrap(), ContractionTree::Leaf(0));
    }

    #[test]
    fn small_networks_use_optimal_solver() {
        let net = ladder(3, 1); // 6 gate nodes <= 7
        let plan = find_plan(&net);
        assert_eq!(plan.kind, PlanKind::Optimal);
        let tree = plan.tree.unwrap();
        assert_eq!(tree.leaf_count(), net.nodes().len());
        // Leaves must appear exactly once each, in time order (interval DP preserves it).
        assert_eq!(tree.leaves(), (0..net.nodes().len()).collect::<Vec<_>>());
    }

    #[test]
    fn large_networks_use_greedy_solver() {
        let net = ladder(3, 4); // 15 gate nodes > 7
        let plan = find_plan(&net);
        assert_eq!(plan.kind, PlanKind::Greedy);
        let tree = plan.tree.unwrap();
        assert_eq!(tree.leaf_count(), net.nodes().len());
        assert_eq!(tree.leaves(), (0..net.nodes().len()).collect::<Vec<_>>());
        assert!(plan.cost > 0.0);
    }

    #[test]
    fn threshold_is_configurable() {
        let net = ladder(3, 1);
        let plan = find_plan_with_threshold(&net, 2);
        assert_eq!(plan.kind, PlanKind::Greedy);
        let plan = find_plan_with_threshold(&net, 50);
        assert_eq!(plan.kind, PlanKind::Optimal);
    }

    #[test]
    fn optimal_cost_not_worse_than_greedy() {
        for layers in 1..=2 {
            let net = ladder(3, layers);
            if net.nodes().len() > 7 {
                continue;
            }
            let optimal = find_plan_with_threshold(&net, 50);
            let greedy = find_plan_with_threshold(&net, 1);
            assert!(
                optimal.cost <= greedy.cost + 1e-9,
                "optimal {} > greedy {}",
                optimal.cost,
                greedy.cost
            );
        }
    }

    #[test]
    fn merge_cost_model_prefers_small_intermediates() {
        let net = ladder(3, 2);
        // Merging two single-qubit operators on the same wire is cheaper than merging
        // operators on different wires (2³ vs 4² scale), and far cheaper than merging to
        // the full 3-qubit operator.
        let same = merge_cost(&net, &[0], &[0]);
        let disjoint = merge_cost(&net, &[0], &[1]);
        let full = merge_cost(&net, &[0, 1], &[1, 2]);
        assert!(same < full);
        assert!(disjoint < full);
    }

    #[test]
    fn tree_depth_and_leaves() {
        let t = ContractionTree::Merge {
            earlier: Box::new(ContractionTree::Leaf(0)),
            later: Box::new(ContractionTree::Merge {
                earlier: Box::new(ContractionTree::Leaf(1)),
                later: Box::new(ContractionTree::Leaf(2)),
            }),
        };
        assert_eq!(t.leaf_count(), 3);
        assert_eq!(t.depth(), 3);
        assert_eq!(t.leaves(), vec![0, 1, 2]);
    }
}
