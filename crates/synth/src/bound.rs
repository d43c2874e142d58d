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
//!
//! # The two-qubit term
//!
//! On two qubits the cut bound stops at one block: two CNOTs already reach full
//! Schmidt rank. When the registry's qubit entangler is constant and CNOT-equivalent,
//! a template with at most two blocks realizes, up to a global phase, a circuit with
//! at most two CNOTs, and the Shende–Markov–Bullock invariant decides that class
//! exactly (PRA 69, 062321, 2004): a `U` in SU(4) needs at most two CNOTs if and only
//! if `tr γ(U)` is real, where `γ(U) = U(σʸ⊗σʸ)Uᵀ(σʸ⊗σʸ)`. An entangler `E` is
//! CNOT-equivalent when `Ẽ = E·det(E)^(−1/4)` has `tr γ(Ẽ) = 0` and `γ(Ẽ)² = −I`
//! (CNOT and CZ are; RZZ, whose parameter varies its class, is not).
//!
//! Let `T̃ = T·det(T)^(−1/4)` and `y = Im tr γ(T̃)`; the branch of the fourth root only
//! flips the sign of `tr γ(T̃)`, so `|y|` is well defined. For unitaries `A` and `B`,
//! `|tr γ(A) − tr γ(B)| ≤ 4‖A − B‖_F`. The template unitary `W` nearest the target,
//! phase-aligned, has `‖T − W‖²_F = 8ε` for its infidelity `ε`, and normalizing `T`
//! and `W` by their determinants moves them apart by at most a factor `1 + π/2`.
//! Since `tr γ(W̃)` is real,
//!
//! ```text
//! |y| ≤ |tr γ(T̃) − tr γ(W̃)| ≤ 4·(1 + π/2)·√(8ε),   so   ε ≥ y² / (128·(1 + π/2)²)
//! ```
//!
//! for every template with at most two blocks, about `y²/846`. The bound takes the
//! larger of this term and the cut bound. The inequality assumes a unitary target,
//! so a target further than `1e-12` from unitary gets no term; skipping it only
//! weakens the bound.

use std::collections::BTreeMap;
use std::f64::consts::FRAC_PI_2;

use qudit_circuit::GateSet;
use qudit_qgl::UnitaryExpression;
use qudit_tensor::spectrum::operator_schmidt_spectrum;
use qudit_tensor::{Matrix, C64};

/// The largest smaller-side dimension of a cut the bound examines.
const MAX_SIDE_DIM: usize = 4;

/// A template is certified hopeless when its bound exceeds this multiple of the
/// success threshold. The margin keeps rounding in the spectrum from certifying a
/// template that could reach the threshold.
const CERTIFY_MARGIN: f64 = 100.0;

/// A constant entangler's squared Schmidt coefficients at or below this multiple of
/// its dimension count as zero when its rank is taken.
const RANK_TOLERANCE: f64 = 1e-12;

/// The largest element of `|γ(E)² + det(E)·I|` and `|tr γ(E)|` at which a constant
/// qubit entangler `E` counts as CNOT-equivalent.
const CNOT_CLASS_TOLERANCE: f64 = 1e-9;

/// The largest unitarity deviation (`max |T†T − I|` element) of a target that gets
/// the two-qubit term.
const TWO_QUBIT_UNITARY_TOLERANCE: f64 = 1e-12;

/// The target's spectra across every examined cut, and the rank of every registered
/// entangler: built once per target, then [`CutBound::bound`] costs one pass over the
/// cuts and the template's edges.
#[derive(Debug, Clone)]
pub struct CutBound {
    radices: Vec<usize>,
    dim: f64,
    cuts: Vec<Cut>,
    ranks: BTreeMap<(usize, usize), usize>,
    /// The two-qubit term: a lower bound on the infidelity of every template with at
    /// most two blocks, `0` where it does not apply.
    two_qubit: f64,
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
    /// dimension at most 4, the ranks of `gate_set`'s entanglers, and, on two qubits
    /// with a CNOT-equivalent entangler, the two-qubit term.
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
        let two_qubit = radices == [2, 2]
            && gate_set.entangler(2, 2).is_some_and(cnot_equivalent)
            && target.unitary_deviation() <= TWO_QUBIT_UNITARY_TOLERANCE;
        CutBound {
            radices: radices.to_vec(),
            dim: target.rows() as f64,
            cuts,
            ranks,
            two_qubit: if two_qubit { two_cnot_bound(target) } else { 0.0 },
            certify_above: CERTIFY_MARGIN * success_threshold,
        }
    }

    /// The lower bound on the infidelity of every template with entangling blocks on
    /// `edges` (qudit pairs, in any order): the largest over the examined cuts of
    /// `1 − √(Σ_{k≤r} σ_k² / D)`, and, for at most two blocks, the two-qubit term
    /// where it applies.
    pub fn bound(&self, edges: &[(usize, usize)]) -> f64 {
        let two_qubit = if edges.len() <= 2 { self.two_qubit } else { 0.0 };
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
            .fold(two_qubit, f64::max)
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

/// The Shende–Markov–Bullock map `γ(U) = U(σʸ⊗σʸ)Uᵀ(σʸ⊗σʸ)` of a two-qubit operator.
fn smb_gamma(u: &Matrix<f64>) -> Matrix<f64> {
    let yy = Matrix::<f64>::from_fn(4, 4, |r, c| match (r, c) {
        (0, 3) | (3, 0) => C64::from_real(-1.0),
        (1, 2) | (2, 1) => C64::from_real(1.0),
        _ => C64::zero(),
    });
    u.matmul(&yy).matmul(&u.transpose()).matmul(&yy)
}

/// Whether a constant qubit entangler `E` is CNOT-equivalent: `Ẽ = E·det(E)^(−1/4)`
/// has `tr γ(Ẽ) = 0` and `γ(Ẽ)² = −I`, tested without a root as `tr γ(E) = 0` and
/// `γ(E)² = −det(E)·I`.
fn cnot_equivalent(expr: &UnitaryExpression) -> bool {
    if expr.num_params() > 0 || expr.radices() != [2, 2] {
        return false;
    }
    let Ok(entangler) = expr.to_matrix::<f64>(&[]) else { return false };
    let gamma = smb_gamma(&entangler);
    let det = determinant(&entangler);
    let square = gamma.matmul(&gamma);
    gamma.trace().abs() <= CNOT_CLASS_TOLERANCE
        && square.iter().all(|(r, c, value)| {
            let expected = if r == c { -det } else { C64::zero() };
            value.dist(expected) <= CNOT_CLASS_TOLERANCE
        })
}

/// The two-qubit term for a unitary `target`: `y² / (128·(1 + π/2)²)` with
/// `y = Im tr γ(T̃)`. `z = tr γ(T)² / det(T)` equals `tr γ(T̃)²` for every branch of
/// the fourth root, and `y²` is read from it without taking a square root of `z`.
fn two_cnot_bound(target: &Matrix<f64>) -> f64 {
    let trace = smb_gamma(target).trace();
    let z = trace * trace / determinant(target);
    // `w² = z` gives `Im(w)² = (|z| − Re z) / 2`; for `Re z > 0` the equal form
    // `Im(z)² / (2(|z| + Re z))` avoids the cancellation.
    let y_sq =
        if z.re > 0.0 { z.im * z.im / (2.0 * (z.abs() + z.re)) } else { (z.abs() - z.re) / 2.0 };
    y_sq / (128.0 * (1.0 + FRAC_PI_2).powi(2))
}

/// The determinant of a square matrix, by Gaussian elimination with partial pivoting.
fn determinant(m: &Matrix<f64>) -> C64 {
    let n = m.rows();
    let mut a = m.as_slice().to_vec();
    let mut det = C64::one();
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&i, &j| a[i * n + col].norm_sqr().total_cmp(&a[j * n + col].norm_sqr()))
            .unwrap_or(col);
        if a[pivot * n + col].norm_sqr() == 0.0 {
            return C64::zero();
        }
        if pivot != col {
            for k in 0..n {
                a.swap(col * n + k, pivot * n + k);
            }
            det = -det;
        }
        let p = a[col * n + col];
        det *= p;
        for row in col + 1..n {
            let factor = a[row * n + col] / p;
            for k in col..n {
                let above = a[col * n + k];
                a[row * n + k] -= factor * above;
            }
        }
    }
    det
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

    #[test]
    fn cnot_class_and_determinant() {
        assert!(cnot_equivalent(&gates::cnot()));
        assert!(cnot_equivalent(&gates::cz()));
        assert!(!cnot_equivalent(&gates::swap()));
        assert!(!cnot_equivalent(&gates::rzz()));
        let cnot = gates::cnot().to_matrix::<f64>(&[]).unwrap();
        assert!(determinant(&cnot).dist(C64::from_real(-1.0)) < 1e-15);
        let scaled = Matrix::<f64>::identity(3).scale(C64::new(0.0, 2.0));
        assert!(determinant(&scaled).dist(C64::new(0.0, -8.0)) < 1e-15);
    }
}
