//! Coupling graphs: which qudit pairs the synthesis search may entangle.
//!
//! Real devices restrict two-qudit interactions to a hardware coupling map; the layer
//! generator only proposes building blocks along these edges, so every synthesized
//! circuit is executable on the modelled topology without routing.

use crate::SynthesisError;

/// An undirected coupling graph over `num_qudits` wires.
///
/// Edges are stored with their endpoints in ascending order and deduplicated; the
/// stored orientation is also the orientation the building block uses (the general
/// local gates surrounding each entangler absorb the direction, so one orientation per
/// pair spans the same circuit space at half the branching factor).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CouplingGraph {
    num_qudits: usize,
    edges: Vec<(usize, usize)>,
}

impl CouplingGraph {
    /// Builds a coupling graph from an explicit edge list.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError::InvalidCoupling`] for self-loops, out-of-range
    /// endpoints, or an empty edge set on a multi-qudit system.
    pub fn new(
        num_qudits: usize,
        edges: impl IntoIterator<Item = (usize, usize)>,
    ) -> Result<Self, SynthesisError> {
        let mut normalized: Vec<(usize, usize)> = Vec::new();
        for (a, b) in edges {
            if a == b {
                return Err(SynthesisError::InvalidCoupling(format!("self-loop on qudit {a}")));
            }
            if a >= num_qudits || b >= num_qudits {
                return Err(SynthesisError::InvalidCoupling(format!(
                    "edge ({a}, {b}) out of range for {num_qudits} qudit(s)"
                )));
            }
            let e = (a.min(b), a.max(b));
            if !normalized.contains(&e) {
                normalized.push(e);
            }
        }
        if num_qudits > 1 && normalized.is_empty() {
            return Err(SynthesisError::InvalidCoupling(
                "multi-qudit synthesis needs at least one coupling edge".to_string(),
            ));
        }
        Ok(CouplingGraph { num_qudits, edges: normalized })
    }

    /// The nearest-neighbour line `0–1–2–…`.
    pub fn linear(num_qudits: usize) -> Self {
        CouplingGraph {
            num_qudits,
            edges: (0..num_qudits.saturating_sub(1)).map(|q| (q, q + 1)).collect(),
        }
    }

    /// The line closed into a cycle (falls back to [`CouplingGraph::linear`] below
    /// three qudits, where the closing edge would duplicate an existing one).
    pub fn ring(num_qudits: usize) -> Self {
        let mut graph = CouplingGraph::linear(num_qudits);
        if num_qudits >= 3 {
            graph.edges.push((0, num_qudits - 1));
        }
        graph
    }

    /// Every pair coupled.
    pub fn all_to_all(num_qudits: usize) -> Self {
        let mut edges = Vec::new();
        for a in 0..num_qudits {
            for b in (a + 1)..num_qudits {
                edges.push((a, b));
            }
        }
        CouplingGraph { num_qudits, edges }
    }

    /// Number of qudits the graph spans.
    pub fn num_qudits(&self) -> usize {
        self.num_qudits
    }

    /// The normalized edge list.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Whether the (undirected) pair is coupled.
    pub fn contains(&self, a: usize, b: usize) -> bool {
        self.edges.contains(&(a.min(b), a.max(b)))
    }

    /// Whether every qudit can reach every other through coupling edges. Synthesis of
    /// a generic target is impossible on a disconnected graph, so
    /// [`crate::validate_target`] rejects those up front.
    pub fn is_connected(&self) -> bool {
        if self.num_qudits <= 1 {
            return true;
        }
        let mut reached = vec![false; self.num_qudits];
        let mut stack = vec![0usize];
        reached[0] = true;
        while let Some(q) = stack.pop() {
            for &(a, b) in &self.edges {
                let next = if a == q {
                    b
                } else if b == q {
                    a
                } else {
                    continue;
                };
                if !reached[next] {
                    reached[next] = true;
                    stack.push(next);
                }
            }
        }
        reached.into_iter().all(|r| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_expected_edges() {
        assert_eq!(CouplingGraph::linear(3).edges(), &[(0, 1), (1, 2)]);
        assert_eq!(CouplingGraph::ring(3).edges(), &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(CouplingGraph::ring(2).edges(), &[(0, 1)]);
        assert_eq!(CouplingGraph::all_to_all(3).edges(), &[(0, 1), (0, 2), (1, 2)]);
        assert_eq!(CouplingGraph::linear(1).edges(), &[]);
    }

    #[test]
    fn new_normalizes_and_validates() {
        let g = CouplingGraph::new(3, [(2, 0), (0, 2), (1, 2)]).unwrap();
        assert_eq!(g.edges(), &[(0, 2), (1, 2)]);
        assert!(g.contains(2, 0));
        assert!(!g.contains(0, 1));
        assert!(CouplingGraph::new(2, [(0, 0)]).is_err());
        assert!(CouplingGraph::new(2, [(0, 5)]).is_err());
        assert!(CouplingGraph::new(2, std::iter::empty()).is_err());
    }

    #[test]
    fn connectivity() {
        assert!(CouplingGraph::linear(4).is_connected());
        assert!(!CouplingGraph::new(4, [(0, 1), (2, 3)]).unwrap().is_connected());
        assert!(CouplingGraph::linear(1).is_connected());
    }
}
