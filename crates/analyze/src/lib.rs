//! # qudit-analyze
//!
//! Static analysis for the OpenQudit reproduction. The byte-for-byte determinism
//! contract (see `ROADMAP.md`) is enforced *dynamically* by CI diffs of repeated runs;
//! this crate adds the *static* half — checks that reject malformed artifacts and
//! hazard patterns at the source instead of hoping a schedule reveals them. Three
//! layers:
//!
//! 1. **TNVM bytecode verifier** ([`program`]): per-instruction
//!    shape/arity/radix typing, buffer def-before-use and output-aliasing checks,
//!    over both the constant and dynamic sections.
//! 2. **Circuit / gate-set structural validator** ([`circuit`]): wire/radix
//!    consistency, parameter-offset packing, constant-application arity, and
//!    [`GateSet`](qudit_circuit::GateSet) membership.
//! 3. **Determinism linter** ([`detlint`], also the `detlint` binary): scans
//!    workspace sources for hazard patterns the determinism contract forbids —
//!    unsorted `HashMap`/`HashSet` iteration feeding compilation or reduction order,
//!    wall-clock reads outside the `qudit_trace::omit_timing` gate, and
//!    thread-order-dependent accumulation outside blessed join points.
//!
//! Layers 1–2 are wired into the compilation pipeline by `qudit-compile`'s
//! `VerifyPass` / `Compiler::verify(level)` knob; the [`VerifyLevel`] here is the
//! shared setting (environment-driven via [`VERIFY_ENV_VAR`], so CI turns
//! verification on for every test run while release binaries stay unverified and
//! fast). Every rejection is a typed [`AnalyzeError`] naming the offending
//! instruction or operation.
//!
//! Beside the checks sits one bytecode analysis that executes nothing: the exact
//! static cost model [`estimate_plan`] in [`optimize`].

pub mod circuit;
pub mod detlint;
pub mod optimize;
pub mod program;

pub use circuit::{verify_circuit, verify_gateset, CircuitReport, CircuitViolation};
pub use optimize::{estimate_plan, PlanCostEstimate};
pub use program::{verify_program, ProgramReport, ProgramViolation};

use qudit_network::BytecodeError;

/// Environment variable consulted by [`VerifyLevel::from_env`] (values: `off`,
/// `program`, `full`; also `0`/`1`/`on` as aliases for `off`/`full`).
pub const VERIFY_ENV_VAR: &str = "OPENQUDIT_VERIFY";

/// How much verification the pipeline runs between passes.
///
/// The default ([`VerifyLevel::from_env`]) is [`VerifyLevel::Off`], so release
/// binaries pay nothing; CI and the test suite export `OPENQUDIT_VERIFY=full` to
/// verify every intermediate result of every compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyLevel {
    /// No verification.
    #[default]
    Off,
    /// Verify the compiled TNVM program after every pass.
    Program,
    /// [`VerifyLevel::Program`] plus the circuit structural validator and gate-set
    /// membership.
    Full,
}

impl VerifyLevel {
    /// Parses a verification level name as accepted by `OPENQUDIT_VERIFY`.
    pub fn parse(name: &str) -> Option<VerifyLevel> {
        match name.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Some(VerifyLevel::Off),
            "program" => Some(VerifyLevel::Program),
            "full" | "1" | "on" => Some(VerifyLevel::Full),
            _ => None,
        }
    }

    /// The process-wide default level: `OPENQUDIT_VERIFY` when set to a valid level
    /// name, otherwise [`VerifyLevel::Off`].
    ///
    /// An *invalid* value still falls back to [`VerifyLevel::Off`] — verification is
    /// an opt-in safety net, not a reason to refuse to start — but emits a one-time
    /// stderr warning naming the rejected value and the accepted set: silently
    /// running unverified when the operator asked for (say) `ful` is the worse
    /// failure mode.
    pub fn from_env() -> VerifyLevel {
        match std::env::var(VERIFY_ENV_VAR) {
            Ok(value) => match VerifyLevel::parse(&value) {
                Some(level) => level,
                None => {
                    warn_invalid_env(&value);
                    VerifyLevel::Off
                }
            },
            Err(_) => VerifyLevel::Off,
        }
    }

    /// Stable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            VerifyLevel::Off => "off",
            VerifyLevel::Program => "program",
            VerifyLevel::Full => "full",
        }
    }

    /// `true` unless the level is [`VerifyLevel::Off`].
    pub fn is_enabled(self) -> bool {
        self != VerifyLevel::Off
    }
}

impl std::fmt::Display for VerifyLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The warning text for an invalid `OPENQUDIT_VERIFY` value: names the value and
/// the accepted set. Factored out so tests can pin the message without touching the
/// process environment.
pub fn invalid_verify_env_warning(value: &str) -> String {
    format!(
        "warning: ignoring invalid {VERIFY_ENV_VAR}={value:?}; \
         accepted values: off, program, full (and 0/1/on/none aliases); \
         verification stays off"
    )
}

/// Emits [`invalid_verify_env_warning`] to stderr the first time it is called in
/// this process; later calls are no-ops. Returns whether this call emitted —
/// [`VerifyLevel::from_env`] runs once per compiler construction, so an unguarded
/// warning would flood a server's log.
pub fn warn_invalid_env(value: &str) -> bool {
    use std::sync::atomic::{AtomicBool, Ordering};
    static WARNED: AtomicBool = AtomicBool::new(false);
    let first = !WARNED.swap(true, Ordering::Relaxed);
    if first {
        eprintln!("{}", invalid_verify_env_warning(value));
    }
    first
}

/// A static-analysis rejection: which layer rejected the artifact and why.
///
/// Instruction-level variants carry a
/// [`qudit_network::InstrRef`] naming the offending instruction; circuit-level
/// variants carry the operation index.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalyzeError {
    /// The bytecode dataflow check ([`qudit_network::TnvmProgram::validate`])
    /// rejected the program.
    Bytecode(BytecodeError),
    /// The per-instruction typing verifier rejected the program.
    Program(ProgramViolation),
    /// The circuit structural validator rejected the circuit.
    Circuit(CircuitViolation),
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzeError::Bytecode(e) => write!(f, "bytecode dataflow violation: {e}"),
            AnalyzeError::Program(v) => write!(f, "program typing violation: {v}"),
            AnalyzeError::Circuit(v) => write!(f, "circuit structure violation: {v}"),
        }
    }
}

impl std::error::Error for AnalyzeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnalyzeError::Bytecode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BytecodeError> for AnalyzeError {
    fn from(e: BytecodeError) -> Self {
        AnalyzeError::Bytecode(e)
    }
}

impl From<ProgramViolation> for AnalyzeError {
    fn from(v: ProgramViolation) -> Self {
        AnalyzeError::Program(v)
    }
}

impl From<CircuitViolation> for AnalyzeError {
    fn from(v: CircuitViolation) -> Self {
        AnalyzeError::Circuit(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_level_parses_and_displays() {
        assert_eq!(VerifyLevel::parse("off"), Some(VerifyLevel::Off));
        assert_eq!(VerifyLevel::parse(" Full "), Some(VerifyLevel::Full));
        assert_eq!(VerifyLevel::parse("program"), Some(VerifyLevel::Program));
        assert_eq!(VerifyLevel::parse("1"), Some(VerifyLevel::Full));
        assert_eq!(VerifyLevel::parse("bogus"), None);
        assert_eq!(VerifyLevel::Full.to_string(), "full");
        assert!(VerifyLevel::Program.is_enabled());
        assert!(!VerifyLevel::Off.is_enabled());
        assert_eq!(VerifyLevel::default(), VerifyLevel::Off);
    }

    #[test]
    fn invalid_verify_values_fall_back_with_a_named_warning() {
        // Unknown level names reject (so `from_env` falls back to Off)...
        assert_eq!(VerifyLevel::parse("ful"), None);
        assert_eq!(VerifyLevel::parse(""), None);
        // ...and the warning names the rejected value and the accepted set.
        let warning = invalid_verify_env_warning("ful");
        assert!(warning.contains(VERIFY_ENV_VAR), "{warning}");
        assert!(warning.contains("\"ful\""), "{warning}");
        for accepted in ["off", "program", "full"] {
            assert!(warning.contains(accepted), "{warning}");
        }
    }

    #[test]
    fn invalid_verify_warning_fires_once_per_process() {
        let first = warn_invalid_env("bogus-level");
        let second = warn_invalid_env("bogus-level");
        assert!(first || !second, "a later call must never emit after the first");
        assert!(!warn_invalid_env("another-bogus-level"));
    }
}
