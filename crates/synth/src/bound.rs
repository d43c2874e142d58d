//! A lower bound on a template's infidelity that holds at every parameter vector,
//! read from the target's operator-Schmidt spectra. Refine and the search skip the
//! LM runs it proves hopeless.
//!
//! Cut the qudits into two sides A|B, and let `σ₁² ≥ σ₂² ≥ …` be the target's
//! squared operator-Schmidt coefficients across the cut
//! ([`operator_schmidt_spectrum`]). Locals, and entanglers with both wires on one
//! side, do not raise a unitary's Schmidt rank across A|B; an entangler that crosses
//! the cut multiplies it by at most its own rank (Nielsen et al., "Quantum dynamics
//! as a physical resource", PRA 67, 052301, 2003). So every unitary `U` a template
//! realizes has rank at most `r`, the product of its crossing entanglers' ranks, and
//!
//! ```text
//! |Tr(T†U)| ≤ Σ_{k≤r} σ_k(T)·σ_k(U) ≤ √(Σ_{k≤r} σ_k²) · ‖U‖_F = √(D · Σ_{k≤r} σ_k²)
//! ```
//!
//! by von Neumann's trace inequality and then Cauchy–Schwarz, with `‖U‖²_F = D`. The
//! template's infidelity is therefore at least `1 − √(Σ_{k≤r} σ_k² / D)`. The head
//! sum is used as it is, not as `D` minus a tail, so the bound also holds for a
//! target that is unitary only to a widened tolerance. A template's bound is the
//! largest over the cuts examined: those whose smaller side has dimension at most 4,
//! so every Gram matrix is at most 16×16. Skipping a cut only weakens the bound.

use std::collections::BTreeMap;

use qudit_circuit::GateSet;
use qudit_qgl::UnitaryExpression;
use qudit_tensor::spectrum::operator_schmidt_spectrum;
use qudit_tensor::Matrix;

/// The largest smaller-side dimension of a cut the bound examines.
const MAX_SIDE_DIM: usize = 4;

/// A template is certified hopeless when its bound exceeds this multiple of the
/// success threshold. The margin keeps rounding in the spectrum from certifying a
/// template that could reach the threshold.
const CERTIFY_MARGIN: f64 = 100.0;

/// A constant entangler's squared Schmidt coefficients at or below this multiple of
/// its dimension count as zero when its rank is taken.
const RANK_TOLERANCE: f64 = 1e-12;

/// The target's spectra across every examined cut, and the rank of every registered
/// entangler: built once per target, then [`CutBound::bound`] costs one pass over the
/// cuts and the template's edges.
#[derive(Debug, Clone)]
pub struct CutBound {
    radices: Vec<usize>,
    dim: f64,
    cuts: Vec<Cut>,
    ranks: BTreeMap<(usize, usize), usize>,
    certify_above: f64,
}

/// One cut: the qudits of its smaller side and the running sums of the target's
/// squared Schmidt coefficients, `head[k] = Σ_{j≤k} σ_j²`.
#[derive(Debug, Clone)]
struct Cut {
    side: Vec<usize>,
    head: Vec<f64>,
}

impl CutBound {
    /// Computes the target's spectrum across every cut whose smaller side has
    /// dimension at most 4, and the ranks of `gate_set`'s entanglers.
    /// `success_threshold` sets the level above which [`CutBound::certify`] certifies
    /// a template.
    ///
    /// # Panics
    ///
    /// Panics when `target` is not square of dimension `Π radices`.
    pub fn new(
        target: &Matrix<f64>,
        radices: &[usize],
        gate_set: &GateSet,
        success_threshold: f64,
    ) -> Self {
        let mut sides = Vec::new();
        small_sides(radices, target.rows(), &mut Vec::new(), 1, 0, &mut sides);
        let cuts = sides
            .into_iter()
            .map(|side| {
                let mut sum = 0.0;
                let head = operator_schmidt_spectrum(target, radices, &side)
                    .into_iter()
                    .map(|value| {
                        sum += value;
                        sum
                    })
                    .collect();
                Cut { side, head }
            })
            .collect();
        let ranks =
            gate_set.entanglers().map(|(pair, expr)| (pair, entangler_rank(expr))).collect();
        CutBound {
            radices: radices.to_vec(),
            dim: target.rows() as f64,
            cuts,
            ranks,
            certify_above: CERTIFY_MARGIN * success_threshold,
        }
    }

    /// The lower bound on the infidelity of every template with entangling blocks on
    /// `edges` (qudit pairs, in any order): the largest over the examined cuts of
    /// `1 − √(Σ_{k≤r} σ_k² / D)`.
    pub fn bound(&self, edges: &[(usize, usize)]) -> f64 {
        self.cuts
            .iter()
            .map(|cut| {
                let rank = edges
                    .iter()
                    .filter(|&&(a, b)| cut.side.contains(&a) != cut.side.contains(&b))
                    .fold(1usize, |rank, &(a, b)| rank.saturating_mul(self.rank(a, b)));
                let head = cut.head[rank.min(cut.head.len()) - 1];
                (1.0 - (head / self.dim).sqrt()).max(0.0)
            })
            .fold(0.0, f64::max)
    }

    /// The template's [`bound`](CutBound::bound) when it certifies that no parameter
    /// vector brings a template with blocks on `edges` to the success threshold: when
    /// it exceeds 100× the threshold.
    pub fn certify(&self, edges: &[(usize, usize)]) -> Option<f64> {
        Some(self.bound(edges)).filter(|&bound| bound > self.certify_above)
    }

    /// The rank of the entangler on qudits `a` and `b`, or the largest any two-qudit
    /// operator on them can have when the registry has none.
    fn rank(&self, a: usize, b: usize) -> usize {
        let (ra, rb) = (self.radices[a], self.radices[b]);
        self.ranks.get(&(ra.min(rb), ra.max(rb))).copied().unwrap_or((ra * ra).min(rb * rb))
    }
}

/// The operator-Schmidt rank of a two-qudit entangler across its own two wires. A
/// constant entangler's rank is the number of its squared coefficients above
/// `1e-12·d` (CNOT 2, CSUM 3, the embedded controlled shift 2). A parameterized
/// entangler's rank can vary with its parameters, so it is taken as the largest any
/// operator on the pair can have, `min(d_a², d_b²)`.
pub fn entangler_rank(expr: &UnitaryExpression) -> usize {
    let radices = expr.radices();
    let generic = radices.iter().map(|r| r * r).min().unwrap_or(1);
    if expr.num_params() > 0 || radices.len() != 2 {
        return generic;
    }
    let Ok(matrix) = expr.to_matrix::<f64>(&[]) else { return generic };
    let tolerance = RANK_TOLERANCE * matrix.rows() as f64;
    operator_schmidt_spectrum(&matrix, radices, &[0]).iter().filter(|&&v| v > tolerance).count()
}

/// Collects into `out` one side of every cut whose smaller side has dimension at
/// most [`MAX_SIDE_DIM`], growing `side` (of dimension `side_dim`) by qudits from
/// `from` on. Each cut is listed once, by its smaller side, or by the side holding
/// qudit 0 when both have the same dimension. Radix ≥ 2 keeps every side at two
/// qudits or fewer, so this visits O(n²) subsets, never all 2^(n−1) cuts.
fn small_sides(
    radices: &[usize],
    dim: usize,
    side: &mut Vec<usize>,
    side_dim: usize,
    from: usize,
    out: &mut Vec<Vec<usize>>,
) {
    for (q, &radix) in radices.iter().enumerate().skip(from) {
        let grown = side_dim * radix;
        if radix < 2 || grown > MAX_SIDE_DIM {
            continue;
        }
        side.push(q);
        let rest = dim / grown;
        if side.len() < radices.len() && (grown < rest || (grown == rest && side[0] == 0)) {
            out.push(side.clone());
        }
        small_sides(radices, dim, side, grown, q + 1, out);
        side.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_circuit::gates;

    fn sides(radices: &[usize]) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        small_sides(radices, radices.iter().product(), &mut Vec::new(), 1, 0, &mut out);
        out
    }

    #[test]
    fn each_small_cut_is_listed_once() {
        assert_eq!(sides(&[2, 2]), vec![vec![0]]);
        assert_eq!(sides(&[3, 2]), vec![vec![1]]);
        assert_eq!(sides(&[2, 2, 2]), vec![vec![0], vec![1], vec![2]]);
        assert_eq!(
            sides(&[2, 2, 2, 2]),
            vec![vec![0], vec![0, 1], vec![0, 2], vec![0, 3], vec![1], vec![2], vec![3]]
        );
        // A qutrit never joins another qudit on the small side.
        assert_eq!(sides(&[2, 2, 3]), vec![vec![0], vec![1], vec![2]]);
        assert!(sides(&[4]).is_empty());
    }

    #[test]
    fn bound_counts_only_crossing_entanglers() {
        // CNOT on (1, 2) of three qubits: with no block the cuts {1} and {2} see its
        // two equal coefficients, so the bound is 1 − 1/√2; one (1, 2) block lifts
        // it, a (0, 1) block does not cross the {2} cut and leaves it standing.
        let radices = [2usize, 2, 2];
        let cnot = gates::cnot().to_matrix::<f64>(&[]).unwrap();
        let target = Matrix::<f64>::identity(2).kron(&cnot);
        let bound = CutBound::new(&target, &radices, &GateSet::default_for(&radices), 1e-8);
        let hopeless = 1.0 - 0.5f64.sqrt();
        assert!((bound.bound(&[]) - hopeless).abs() < 1e-12);
        assert!((bound.bound(&[(0, 1)]) - hopeless).abs() < 1e-12);
        assert!(bound.bound(&[(1, 2)]) < 1e-12);
        assert_eq!(bound.certify(&[(0, 1)]), Some(bound.bound(&[(0, 1)])));
        assert_eq!(bound.certify(&[(2, 1)]), None);
    }
}
