//! [`CompilationTask`] — the unit of work a [`Compiler`](crate::Compiler) pipeline
//! operates on.

use qudit_synth::{SynthesisConfig, SynthesisResult};
use qudit_tensor::Matrix;

/// One compilation in flight: the target unitary, the synthesis configuration the
/// passes derive their settings from, and the circuit-in-progress (a
/// [`SynthesisResult`] once some pass has produced one).
///
/// All fields are public: custom passes are first-class citizens — they read and
/// write the same state the built-in passes do.
#[derive(Debug, Clone)]
pub struct CompilationTask {
    /// The unitary to compile.
    pub target: Matrix<f64>,
    /// The configuration every built-in pass derives its settings (radices, coupling,
    /// gate set, seeds, thresholds, thread budget) from.
    pub config: SynthesisConfig,
    /// The circuit-in-progress. `None` until a pass synthesizes one; later passes
    /// transform it in place.
    pub result: Option<SynthesisResult>,
}

impl CompilationTask {
    /// A task for `target` under an explicit synthesis configuration.
    pub fn new(target: Matrix<f64>, config: SynthesisConfig) -> Self {
        CompilationTask { target, config, result: None }
    }

    /// A task for `target` over qudits with the given radices, using the default
    /// configuration ([`SynthesisConfig::with_radices`]: linear coupling, default
    /// gate set).
    pub fn with_radices(target: Matrix<f64>, radices: Vec<usize>) -> Self {
        let config = SynthesisConfig::with_radices(radices);
        CompilationTask::new(target, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_construction() {
        let target = Matrix::<f64>::identity(4);
        let task = CompilationTask::with_radices(target, vec![2, 2]);
        assert_eq!(task.config.radices, vec![2, 2]);
        assert!(task.result.is_none());
    }
}
