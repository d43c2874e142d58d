//! Execution-backend lowering: from shape-annotated bytecode to an executable plan.
//!
//! The TNVM separates *what* to compute (the [`TnvmProgram`] bytecode) from *how* to
//! compute it. A [`Backend`] consumes the shape-annotated program and lowers it to an
//! [`ExecPlan`]: one kernel selection per instruction plus the workspace the selected
//! kernels need. The interpreter in [`crate::vm`] then drives the plan, dispatching each
//! bilinear instruction to the scalar reference kernels or to the blocked
//! structure-of-arrays kernels in `qudit-tensor`.
//!
//! Two tiers ship today:
//!
//! * [`ScalarBackend`] — the original interpreter's kernel choices, bit-for-bit. Every
//!   instruction runs the simple scalar kernels. This is the reference tier.
//! * [`BlockedCpuBackend`] — selects `gemm::matmul_blocked_*` / `kron::kron_blocked_*`
//!   for instructions whose operand shapes clear the [`TargetDescriptor`] thresholds and
//!   falls back to scalar below them. The blocked kernels are reassociation-free (same
//!   per-element accumulation order, zero-skip, and complex-multiply expansion as the
//!   scalar kernels), so this tier is *also* bit-identical to the reference — the
//!   conformance suite asserts exact bit equality, and the per-tier determinism contract
//!   documented in `crates/tnvm/README.md` budgets a ≤1e-12 tolerance only for future
//!   tiers that reassociate (SIMD horizontal sums, GPU).
//!
//! Backend selection threads through the whole stack as a [`BackendKind`] value
//! (instantiation, synthesis frontier workers, compiler passes, benches). The process
//! default comes from the `OPENQUDIT_TNVM_BACKEND` environment variable, which is how
//! the CI matrix runs the full test suite once per tier.

use qudit_network::{TnvmOp, TnvmProgram};
use qudit_tensor::gemm;

/// Environment variable consulted by [`BackendKind::from_env`] (values: `scalar`,
/// `blocked`).
pub const BACKEND_ENV_VAR: &str = "OPENQUDIT_TNVM_BACKEND";

/// Identifies an execution tier. This is the value threaded through configuration
/// structs; [`BackendKind::instance`] resolves it to the tier implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The scalar reference interpreter (tier 0).
    Scalar,
    /// Blocked/structure-of-arrays CPU kernels with scalar fallback (tier 1).
    Blocked,
}

impl BackendKind {
    /// All registered tiers, in ascending capability order.
    pub fn all() -> [BackendKind; 2] {
        [BackendKind::Scalar, BackendKind::Blocked]
    }

    /// Parses a backend name as accepted by `OPENQUDIT_TNVM_BACKEND`.
    pub fn parse(name: &str) -> Option<BackendKind> {
        match name.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(BackendKind::Scalar),
            "blocked" => Some(BackendKind::Blocked),
            _ => None,
        }
    }

    /// The process-wide default tier: `OPENQUDIT_TNVM_BACKEND` when set to a valid
    /// backend name, otherwise [`BackendKind::Scalar`].
    ///
    /// An *invalid* value still falls back to the scalar tier — a long-lived server
    /// must not die over a typo in its environment — but emits a one-time stderr
    /// warning naming the rejected value and the accepted set, so the
    /// misconfiguration is visible instead of silently running the wrong tier.
    pub fn from_env() -> BackendKind {
        match std::env::var(BACKEND_ENV_VAR) {
            Ok(value) => match BackendKind::parse(&value) {
                Some(kind) => kind,
                None => {
                    warn_invalid_env(&value);
                    BackendKind::Scalar
                }
            },
            Err(_) => BackendKind::Scalar,
        }
    }

    /// Stable identifier used in reports and bench output.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Blocked => "blocked",
        }
    }

    /// Resolves the kind to its (stateless) tier implementation.
    pub fn instance(self) -> &'static dyn Backend {
        match self {
            BackendKind::Scalar => &ScalarBackend,
            BackendKind::Blocked => &BLOCKED_CPU,
        }
    }
}

/// The warning text for an invalid `OPENQUDIT_TNVM_BACKEND` value: names the value
/// and the accepted set. Factored out so tests can pin the message without touching
/// the process environment.
pub fn invalid_backend_env_warning(value: &str) -> String {
    format!(
        "warning: ignoring invalid {BACKEND_ENV_VAR}={value:?}; \
         accepted values: scalar, blocked (falling back to scalar)"
    )
}

/// Emits [`invalid_backend_env_warning`] to stderr the first time it is called in
/// this process; later calls are no-ops. Returns whether this call emitted —
/// [`BackendKind::default`] runs once per configuration-struct construction, so an
/// unguarded warning would flood a server's log.
pub fn warn_invalid_env(value: &str) -> bool {
    use std::sync::atomic::{AtomicBool, Ordering};
    static WARNED: AtomicBool = AtomicBool::new(false);
    let first = !WARNED.swap(true, Ordering::Relaxed);
    if first {
        eprintln!("{}", invalid_backend_env_warning(value));
    }
    first
}

impl Default for BackendKind {
    /// Defaults to the environment-selected tier so every configuration struct deriving
    /// `Default` (and therefore every CI invocation) honors `OPENQUDIT_TNVM_BACKEND`
    /// without explicit plumbing at each construction site.
    fn default() -> Self {
        BackendKind::from_env()
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Describes a tier's capabilities: the knobs lowering uses to pick kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetDescriptor {
    /// Minimum `m·n·k` flop volume for a MATMUL to lower to the blocked kernel.
    pub min_blocked_flops: usize,
    /// Minimum output element count for a KRON to lower to the blocked kernel.
    pub min_blocked_kron: usize,
}

impl TargetDescriptor {
    /// The scalar reference tier: thresholds at `usize::MAX` so nothing ever lowers to
    /// a blocked kernel.
    pub fn scalar() -> TargetDescriptor {
        TargetDescriptor { min_blocked_flops: usize::MAX, min_blocked_kron: usize::MAX }
    }

    /// The blocked CPU tier. Thresholds were measured on the pinned `report_synthesis`
    /// workloads with rotating operand pools (hot-cache single-buffer timings
    /// mislead): the restructured KRON beats the index-arithmetic scalar loop at
    /// every circuit-relevant shape (0.5–0.75× from 2×2 ⊗ 2×2 upward), while panel
    /// packing for MATMUL only amortizes once operands reach 64-dimensional
    /// (6-qubit) buffers — below that the scalar ikj kernel keeps output rows
    /// register-resident and is already optimal.
    pub fn blocked_cpu() -> TargetDescriptor {
        TargetDescriptor { min_blocked_flops: 64 * 64 * 64, min_blocked_kron: 16 }
    }
}

/// Which kernel family an instruction was lowered to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelSel {
    /// The scalar reference kernels.
    Scalar,
    /// The blocked structure-of-arrays kernels.
    Blocked,
}

/// An executable plan: per-instruction kernel selections plus workspace requirements.
///
/// The two selection vectors are index-aligned with the program's `constant_ops` and
/// `dynamic_ops`. `workspace_scalars` is the length (in `T` scalars, not complex
/// elements) of the kernel workspace the VM must provide to blocked gemm calls.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecPlan {
    /// Kernel selection for each constant-section instruction.
    pub constant_kernels: Vec<KernelSel>,
    /// Kernel selection for each dynamic-section instruction.
    pub dynamic_kernels: Vec<KernelSel>,
    /// Required kernel workspace length in scalars (0 when everything is scalar).
    pub workspace_scalars: usize,
}

impl ExecPlan {
    /// True if at least one instruction lowered to a blocked kernel.
    pub fn uses_blocked(&self) -> bool {
        self.constant_kernels
            .iter()
            .chain(self.dynamic_kernels.iter())
            .any(|k| *k == KernelSel::Blocked)
    }
}

/// An execution tier: lowers shape-annotated bytecode to an [`ExecPlan`].
pub trait Backend: std::fmt::Debug + Send + Sync {
    /// Stable tier identifier (matches [`BackendKind::name`]).
    fn name(&self) -> &'static str;

    /// The tier's capability description.
    fn descriptor(&self) -> TargetDescriptor;

    /// Lowers `program` to an executable plan.
    ///
    /// The default implementation applies the shape thresholds in
    /// [`Backend::descriptor`] uniformly: MATMUL lowers to the blocked gemm when its
    /// `m·n·k` volume reaches `min_blocked_flops`, KRON when its output element count
    /// reaches `min_blocked_kron`; WRITE, HADAMARD, and TRANSPOSE always stay scalar
    /// (they are bandwidth-bound copies or element-wise loops with nothing to block).
    fn lower(&self, program: &TnvmProgram) -> ExecPlan {
        let desc = self.descriptor();
        let select = |op: &TnvmOp| -> KernelSel {
            match op {
                TnvmOp::Matmul { a, b, out } => {
                    let m = program.buffers[*a].rows;
                    let k = program.buffers[*a].cols;
                    let n = program.buffers[*b].cols;
                    debug_assert_eq!(program.buffers[*out].rows, m);
                    if m * n * k >= desc.min_blocked_flops {
                        KernelSel::Blocked
                    } else {
                        KernelSel::Scalar
                    }
                }
                TnvmOp::Kron { a, b, out } => {
                    let _ = (a, b);
                    if program.buffers[*out].len() >= desc.min_blocked_kron {
                        KernelSel::Blocked
                    } else {
                        KernelSel::Scalar
                    }
                }
                _ => KernelSel::Scalar,
            }
        };
        let constant_kernels: Vec<KernelSel> = program.constant_ops.iter().map(select).collect();
        let dynamic_kernels: Vec<KernelSel> = program.dynamic_ops.iter().map(select).collect();
        // Workspace: the maximum over blocked MATMULs of the packed-panel length.
        let mut workspace_scalars = 0usize;
        for (op, sel) in program
            .constant_ops
            .iter()
            .zip(constant_kernels.iter())
            .chain(program.dynamic_ops.iter().zip(dynamic_kernels.iter()))
        {
            if let (TnvmOp::Matmul { a, .. }, KernelSel::Blocked) = (op, sel) {
                let k = program.buffers[*a].cols;
                workspace_scalars = workspace_scalars.max(gemm::blocked_workspace_len(k));
            }
        }
        ExecPlan { constant_kernels, dynamic_kernels, workspace_scalars }
    }
}

/// Tier 0: the original scalar interpreter, extracted as the bit-for-bit reference.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarBackend;

impl Backend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn descriptor(&self) -> TargetDescriptor {
        TargetDescriptor::scalar()
    }
}

/// Tier 1: blocked/structure-of-arrays CPU kernels with scalar fallback below the
/// descriptor thresholds.
#[derive(Debug, Clone, Copy)]
pub struct BlockedCpuBackend {
    /// The capability description lowering applies.
    pub target: TargetDescriptor,
}

impl Default for BlockedCpuBackend {
    fn default() -> Self {
        BlockedCpuBackend { target: TargetDescriptor::blocked_cpu() }
    }
}

static BLOCKED_CPU: BlockedCpuBackend = BlockedCpuBackend {
    target: TargetDescriptor { min_blocked_flops: 64 * 64 * 64, min_blocked_kron: 16 },
};

impl Backend for BlockedCpuBackend {
    fn name(&self) -> &'static str {
        "blocked"
    }

    fn descriptor(&self) -> TargetDescriptor {
        self.target
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_known_names() {
        assert_eq!(BackendKind::parse("scalar"), Some(BackendKind::Scalar));
        assert_eq!(BackendKind::parse(" Blocked "), Some(BackendKind::Blocked));
        assert_eq!(BackendKind::parse("gpu"), None);
        assert_eq!(BackendKind::parse(""), None);
    }

    #[test]
    fn names_round_trip() {
        for kind in BackendKind::all() {
            assert_eq!(BackendKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.instance().name(), kind.name());
            assert_eq!(kind.to_string(), kind.name());
        }
    }

    #[test]
    fn scalar_descriptor_never_blocks() {
        let desc = ScalarBackend.descriptor();
        assert_eq!(desc.min_blocked_flops, usize::MAX);
        assert_eq!(desc.min_blocked_kron, usize::MAX);
    }

    #[test]
    fn invalid_backend_names_fall_back_with_a_named_warning() {
        // The parse layer `from_env` funnels through: unknown names reject...
        assert_eq!(BackendKind::parse("blockedd"), None);
        assert_eq!(BackendKind::parse(""), None);
        // ...and the warning names the rejected value and the accepted set.
        let warning = invalid_backend_env_warning("blockedd");
        assert!(warning.contains(BACKEND_ENV_VAR), "{warning}");
        assert!(warning.contains("\"blockedd\""), "{warning}");
        assert!(warning.contains("scalar") && warning.contains("blocked"), "{warning}");
    }

    #[test]
    fn invalid_backend_warning_fires_once_per_process() {
        // Only the first call emits; the guard is process-wide so a server that
        // constructs thousands of configs logs the misconfiguration exactly once.
        let first = warn_invalid_env("bogus-tier");
        let second = warn_invalid_env("bogus-tier");
        assert!(first || !second, "a later call must never emit after the first");
        assert!(!warn_invalid_env("another-bogus-tier"));
    }

    #[test]
    fn blocked_descriptor_thresholds() {
        let desc = BackendKind::Blocked.instance().descriptor();
        assert_eq!(desc, TargetDescriptor::blocked_cpu());
        assert!(desc.min_blocked_flops <= 64 * 64 * 64, "64-dim matmuls must lower blocked");
        assert!(
            desc.min_blocked_flops > 32 * 32 * 32,
            "sub-64-dim matmuls must stay scalar (the ikj kernel wins there)"
        );
        assert!(2 * 2 * 2 * 2 >= desc.min_blocked_kron, "2x2 kron outputs must lower blocked");
    }
}
