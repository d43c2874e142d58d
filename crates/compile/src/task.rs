//! [`CompilationTask`] — the unit of work a [`Compiler`](crate::Compiler) pipeline
//! operates on — and [`PassData`], its typed key/value blackboard.

use std::collections::BTreeMap;

use qudit_synth::{SynthesisConfig, SynthesisResult};
use qudit_tensor::Matrix;

/// A value a pass records on the [`PassData`] blackboard.
///
/// The closed set of variants keeps the blackboard deterministic to serialize (the
/// benchmark reports emit it as JSON) while covering everything the built-in passes
/// record: counters, seeds, flags, infidelities, and short labels.
#[derive(Debug, Clone, PartialEq)]
pub enum PassValue {
    /// A boolean flag (e.g. `"synthesis.skipped"`).
    Bool(bool),
    /// An unsigned counter or seed.
    U64(u64),
    /// A size or count.
    Usize(usize),
    /// A floating-point metric (e.g. an infidelity).
    F64(f64),
    /// A short textual annotation.
    Str(String),
}

impl From<bool> for PassValue {
    fn from(v: bool) -> Self {
        PassValue::Bool(v)
    }
}
impl From<u64> for PassValue {
    fn from(v: u64) -> Self {
        PassValue::U64(v)
    }
}
impl From<usize> for PassValue {
    fn from(v: usize) -> Self {
        PassValue::Usize(v)
    }
}
impl From<f64> for PassValue {
    fn from(v: f64) -> Self {
        PassValue::F64(v)
    }
}
impl From<&str> for PassValue {
    fn from(v: &str) -> Self {
        PassValue::Str(v.to_string())
    }
}
impl From<String> for PassValue {
    fn from(v: String) -> Self {
        PassValue::Str(v)
    }
}

impl std::fmt::Display for PassValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PassValue::Bool(v) => write!(f, "{v}"),
            PassValue::U64(v) => write!(f, "{v}"),
            PassValue::Usize(v) => write!(f, "{v}"),
            PassValue::F64(v) => write!(f, "{v:.3e}"),
            PassValue::Str(v) => write!(f, "{v}"),
        }
    }
}

/// The typed key/value blackboard passes use to communicate metrics and decisions.
///
/// Keys are dot-namespaced by convention (`"synthesis.nodes_expanded"`,
/// `"partition.rounds"`, …). Iteration order is the key order (`BTreeMap`), so
/// serializing the blackboard is deterministic — the benchmark determinism diff
/// relies on this.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassData {
    entries: BTreeMap<String, PassValue>,
}

impl PassData {
    /// An empty blackboard.
    pub fn new() -> Self {
        PassData::default()
    }

    /// Records (or overwrites) a value.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<PassValue>) {
        self.entries.insert(key.into(), value.into());
    }

    /// The raw value under `key`, if any.
    pub fn get(&self, key: &str) -> Option<&PassValue> {
        self.entries.get(key)
    }

    /// The value under `key` as a count, if it is one.
    pub fn get_usize(&self, key: &str) -> Option<usize> {
        match self.entries.get(key) {
            Some(PassValue::Usize(v)) => Some(*v),
            Some(PassValue::U64(v)) => usize::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value under `key` as a float, if it is one.
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        match self.entries.get(key) {
            Some(PassValue::F64(v)) => Some(*v),
            _ => None,
        }
    }

    /// The value under `key` as a flag, if it is one.
    pub fn get_bool(&self, key: &str) -> Option<bool> {
        match self.entries.get(key) {
            Some(PassValue::Bool(v)) => Some(*v),
            _ => None,
        }
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// All entries in deterministic (key) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &PassValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }
}

/// One compilation in flight: the target unitary, the synthesis configuration the
/// passes derive their settings from, the circuit-in-progress (a [`SynthesisResult`]
/// once some pass has produced one), and the [`PassData`] blackboard.
///
/// All fields are public: the pipeline is a blackboard architecture, and custom
/// passes are first-class citizens — they read and write the same state the built-in
/// passes do.
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
    /// The typed key/value blackboard (per-pass metrics, seeds, decisions).
    pub data: PassData,
}

impl CompilationTask {
    /// A task for `target` under an explicit synthesis configuration.
    pub fn new(target: Matrix<f64>, config: SynthesisConfig) -> Self {
        CompilationTask { target, config, result: None, data: PassData::new() }
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
    fn blackboard_is_typed_and_deterministic() {
        let mut data = PassData::new();
        data.set("b.count", 3usize);
        data.set("a.flag", true);
        data.set("c.metric", 0.5f64);
        data.set("d.label", "hello");
        data.set("e.seed", 7u64);
        assert_eq!(data.get_usize("b.count"), Some(3));
        assert_eq!(data.get_bool("a.flag"), Some(true));
        assert_eq!(data.get_f64("c.metric"), Some(0.5));
        assert_eq!(data.get_usize("e.seed"), Some(7));
        assert_eq!(data.get_usize("a.flag"), None, "typed getters reject other variants");
        assert_eq!(data.get("missing"), None);
        let keys: Vec<&str> = data.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a.flag", "b.count", "c.metric", "d.label", "e.seed"]);
        // Overwrite replaces in place.
        data.set("b.count", 9usize);
        assert_eq!(data.get_usize("b.count"), Some(9));
        assert_eq!(data.len(), 5);
        assert!(!data.is_empty());
    }

    #[test]
    fn task_construction() {
        let target = Matrix::<f64>::identity(4);
        let task = CompilationTask::with_radices(target, vec![2, 2]);
        assert_eq!(task.config.radices, vec![2, 2]);
        assert!(task.result.is_none());
        assert!(task.data.is_empty());
    }
}
