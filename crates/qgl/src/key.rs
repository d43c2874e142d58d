//! [`ExprKey`] — the identity of a [`UnitaryExpression`](crate::UnitaryExpression).
//!
//! The expression cache compiles each unique expression once per process and serves
//! every later request for it from a lookup (Sec. IV-B of the paper), so that lookup
//! must not cost more than it saves. An `ExprKey` is rendered once, when its
//! expression is built; every lookup after that compares a stored hash and a pointer.

use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// The identity of a unitary expression: its canonical text and a hash of that text,
/// both computed once when the expression is built.
///
/// Clones share the text. [`Hash`] writes only the stored hash, and equality compares
/// the hashes, then the text's address, then the text itself, so two keys are equal
/// exactly when their texts are. [`Ord`] compares the text.
///
/// The hash comes from a randomly seeded hasher shared by the whole process, so it
/// differs between processes: it orders nothing and never leaves the process.
#[derive(Clone)]
pub struct ExprKey {
    text: Arc<str>,
    hash: u64,
}

impl ExprKey {
    /// Hashes `text` once with the process-wide hasher.
    pub(crate) fn new(text: String) -> Self {
        static STATE: OnceLock<RandomState> = OnceLock::new();
        let hash = STATE.get_or_init(RandomState::new).hash_one(text.as_str());
        ExprKey { text: text.into(), hash }
    }

    /// The canonical text: the name, radices, parameters, and the s-expression form of
    /// every element.
    pub fn as_str(&self) -> &str {
        &self.text
    }
}

impl PartialEq for ExprKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && (Arc::ptr_eq(&self.text, &other.text) || self.text == other.text)
    }
}

impl Eq for ExprKey {}

impl Hash for ExprKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl Ord for ExprKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.text.cmp(&other.text)
    }
}

impl PartialOrd for ExprKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for ExprKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ExprKey").field(&self.as_str()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_hash_collision_is_not_equality() {
        let (a, b) = (ExprKey::new("A".into()), ExprKey::new("A".into()));
        assert!(!Arc::ptr_eq(&a.text, &b.text));
        assert_eq!((&a, a.cmp(&b)), (&b, Ordering::Equal));
        let forced = ExprKey { text: "B".into(), hash: a.hash };
        assert_ne!(a, forced);
        assert_eq!(a.cmp(&forced), Ordering::Less);
    }
}
