//! The expression cache.
//!
//! JIT compilation of a single QGL expression is orders of magnitude slower than a single
//! numerical evaluation of the resulting circuit, so the paper amortizes it with an
//! `ExpressionCache` attached to each circuit and managed as shared state: each unique
//! QGL expression is compiled only once per process, and subsequent TNVM initializations
//! retrieve the pre-compiled artifact via a fast lookup (Sec. IV-B).

use std::sync::Arc;

use parking_lot::Mutex;
use std::collections::HashMap;

use qudit_qgl::{ExprKey, UnitaryExpression};

use crate::compile::{CompileOptions, CompiledExpression};

/// A thread-safe cache of compiled expressions, keyed by the expression's identity
/// ([`UnitaryExpression::canonical_key`], computed once when the expression was built)
/// and the full [`CompileOptions`]. A lookup reads that stored key's hash and never
/// renders the expression; a separately built but identical expression hits the same
/// entry, and a renamed one does not.
///
/// By default the cache grows without bound — the right policy for a single
/// compilation, whose working set is the gate set. A long-lived service sharing one
/// cache across arbitrarily many requests caps it with
/// [`ExpressionCache::with_capacity`]: inserts beyond the capacity evict the
/// least-recently-used artifact, and [`CacheStats::evictions`] counts them so the
/// service's metrics endpoint can expose cache pressure.
#[derive(Debug, Default, Clone)]
pub struct ExpressionCache {
    inner: Arc<Mutex<CacheInner>>,
}

#[derive(Debug, Default)]
struct CacheInner {
    compiled: HashMap<CacheKey, CacheEntry>,
    /// Maximum number of stored artifacts (`0` = unbounded).
    capacity: usize,
    /// Logical clock advanced on every touch; drives least-recently-used eviction.
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// The expression's identity and every compile option.
type CacheKey = (ExprKey, CompileOptions);

#[derive(Debug)]
struct CacheEntry {
    artifact: Arc<CompiledExpression>,
    last_used: u64,
}

impl CacheInner {
    /// Marks `key` used now and returns its artifact, if present.
    fn touch(&mut self, key: &CacheKey) -> Option<Arc<CompiledExpression>> {
        self.tick += 1;
        let tick = self.tick;
        self.compiled.get_mut(key).map(|entry| {
            entry.last_used = tick;
            Arc::clone(&entry.artifact)
        })
    }

    /// Evicts least-recently-used entries until an insert fits the capacity.
    fn make_room(&mut self) {
        if self.capacity == 0 {
            return;
        }
        while self.compiled.len() >= self.capacity {
            // The victim is iteration-order-independent: min over the
            // (last_used, key) pair is a total order.
            // detlint: allow(unsorted-map-iter) — min over a total order
            let victim = (self.compiled.iter())
                .min_by(|a, b| (a.1.last_used, a.0).cmp(&(b.1.last_used, b.0)))
                .map(|(key, _)| key.clone());
            match victim {
                Some(key) => {
                    self.compiled.remove(&key);
                    self.evictions += 1;
                }
                None => break,
            }
        }
    }
}

/// Cache statistics, exposed for the construction benchmark, the serve metrics
/// endpoint, and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of lookups satisfied from the cache.
    pub hits: u64,
    /// Number of lookups that had to compile.
    pub misses: u64,
    /// Number of distinct compiled artifacts currently stored.
    pub entries: usize,
    /// Number of artifacts evicted to keep the cache within its capacity.
    pub evictions: u64,
}

impl ExpressionCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache that holds at most `capacity` compiled artifacts,
    /// evicting the least-recently-used entry on overflow (`0` = unbounded,
    /// identical to [`ExpressionCache::new`]).
    pub fn with_capacity(capacity: usize) -> Self {
        let cache = Self::default();
        cache.inner.lock().capacity = capacity;
        cache
    }

    /// The configured capacity (`0` = unbounded).
    pub fn capacity(&self) -> usize {
        self.inner.lock().capacity
    }

    /// Returns the compiled form of `expr`, compiling it (and caching the result) if
    /// this is the first time the expression is seen with these options.
    pub fn get_or_compile(
        &self,
        expr: &UnitaryExpression,
        options: &CompileOptions,
    ) -> Arc<CompiledExpression> {
        self.get_or_compile_traced(expr, options).0
    }

    /// Like [`ExpressionCache::get_or_compile`], but also reports whether the lookup
    /// was a hit — letting callers (the TNVM) attribute lookup outcomes to their own
    /// deterministic counters instead of reading the racy shared totals.
    ///
    /// Determinism note: on a *cold* cache, two threads racing on the same key may
    /// both observe a miss (compilation happens outside the lock), so per-caller
    /// hit/miss counts are only schedule-independent once the cache has been prewarmed
    /// with every expression the callers will request — which is exactly what the
    /// synthesis search does before spawning frontier workers.
    pub fn get_or_compile_traced(
        &self,
        expr: &UnitaryExpression,
        options: &CompileOptions,
    ) -> (Arc<CompiledExpression>, bool) {
        let key = (expr.canonical_key().clone(), options.clone());
        // Fast path: shared lock-and-lookup.
        {
            let mut inner = self.inner.lock();
            if let Some(found) = inner.touch(&key) {
                inner.hits += 1;
                return (found, true);
            }
            inner.misses += 1;
        }
        // Compile outside the lock (compilation may take milliseconds).
        let compiled = Arc::new(CompiledExpression::compile(expr, options));
        let mut inner = self.inner.lock();
        if let Some(found) = inner.touch(&key) {
            // Another thread raced the compile and inserted first; keep its artifact.
            return (found, false);
        }
        inner.make_room();
        inner.tick += 1;
        let entry = CacheEntry { artifact: Arc::clone(&compiled), last_used: inner.tick };
        inner.compiled.insert(key, entry);
        (compiled, false)
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.compiled.len(),
            evictions: inner.evictions,
        }
    }

    /// Removes every cached artifact (used by benchmarks that need cold-cache numbers).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.compiled.clear();
        inner.hits = 0;
        inner.misses = 0;
        inner.evictions = 0;
    }
}

/// Returns a process-wide shared cache. Circuits created without an explicit cache share
/// this one, which mirrors the paper's "managed as shared state" design.
pub fn global_cache() -> ExpressionCache {
    static GLOBAL: std::sync::OnceLock<ExpressionCache> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(ExpressionCache::new).clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rx() -> UnitaryExpression {
        UnitaryExpression::new("RX(t) { [[cos(t/2), ~i*sin(t/2)], [~i*sin(t/2), cos(t/2)]] }")
            .unwrap()
    }

    #[test]
    fn second_lookup_hits_cache() {
        // Each `rx()` parses anew, so the hit is by identity, not by allocation.
        let cache = ExpressionCache::new();
        let a = cache.get_or_compile(&rx(), &CompileOptions::default());
        let b = cache.get_or_compile(&rx(), &CompileOptions::default());
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn gradient_mode_is_a_distinct_entry() {
        let cache = ExpressionCache::new();
        let _ = cache.get_or_compile(&rx(), &CompileOptions::default());
        let _ = cache.get_or_compile(&rx(), &CompileOptions::with_gradient());
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn skip_simplification_is_a_distinct_entry() {
        let cache = ExpressionCache::new();
        let raw_options =
            CompileOptions { skip_simplification: true, ..CompileOptions::with_gradient() };
        let _ = cache.get_or_compile(&rx(), &CompileOptions::with_gradient());
        let raw = cache.get_or_compile(&rx(), &raw_options);
        let expected = CompiledExpression::compile(&rx(), &raw_options);
        assert_eq!(
            raw.gradient_program().map(|p| &p.instrs),
            expected.gradient_program().map(|p| &p.instrs),
            "an unsimplified request must not get the simplified artifact"
        );
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn different_gates_are_different_entries() {
        let cache = ExpressionCache::new();
        let rz = UnitaryExpression::new("RZ(t) { [[e^(~i*t/2), 0], [0, e^(i*t/2)]] }").unwrap();
        let _ = cache.get_or_compile(&rx(), &CompileOptions::default());
        let _ = cache.get_or_compile(&rz, &CompileOptions::default());
        // The name is part of an expression's identity.
        let _ = cache.get_or_compile(&rx().with_name("MyRX"), &CompileOptions::default());
        assert_eq!(cache.stats().entries, 3);
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn clear_resets_everything() {
        let cache = ExpressionCache::new();
        let _ = cache.get_or_compile(&rx(), &CompileOptions::default());
        cache.clear();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0));
    }

    #[test]
    fn cache_is_cloneable_shared_state() {
        let cache = ExpressionCache::new();
        let clone = cache.clone();
        let _ = cache.get_or_compile(&rx(), &CompileOptions::default());
        // The clone sees the entry because the state is shared.
        assert_eq!(clone.stats().entries, 1);
        let _ = clone.get_or_compile(&rx(), &CompileOptions::default());
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn global_cache_is_shared() {
        let a = global_cache();
        let b = global_cache();
        let before = a.stats().entries;
        let _ = a.get_or_compile(&rx(), &CompileOptions::default());
        assert!(b.stats().entries >= before);
    }

    #[test]
    fn traced_lookup_reports_hit_flag() {
        let cache = ExpressionCache::new();
        let (_, hit) = cache.get_or_compile_traced(&rx(), &CompileOptions::default());
        assert!(!hit, "first lookup must miss");
        let (_, hit) = cache.get_or_compile_traced(&rx(), &CompileOptions::default());
        assert!(hit, "second lookup must hit");
    }

    #[test]
    fn cache_is_send_sync() {
        fn assert_ss<T: Send + Sync>() {}
        assert_ss::<ExpressionCache>();
    }

    fn named(name: &str) -> UnitaryExpression {
        UnitaryExpression::new(&format!(
            "{name}(t) {{ [[cos(t/{n}), ~i*sin(t/{n})], [~i*sin(t/{n}), cos(t/{n})]] }}",
            n = 2 + name.len()
        ))
        .unwrap()
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let cache = ExpressionCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        let (a, b, c) = (named("A"), named("BB"), named("CCC"));
        let _ = cache.get_or_compile(&a, &CompileOptions::default());
        let _ = cache.get_or_compile(&b, &CompileOptions::default());
        // Touch A so B becomes the least recently used, then insert C.
        let _ = cache.get_or_compile(&a, &CompileOptions::default());
        let _ = cache.get_or_compile(&c, &CompileOptions::default());
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        // A survived (recently used); B was evicted and must recompile.
        let (_, hit) = cache.get_or_compile_traced(&a, &CompileOptions::default());
        assert!(hit, "recently used entry must survive eviction");
        let (_, hit) = cache.get_or_compile_traced(&b, &CompileOptions::default());
        assert!(!hit, "least recently used entry must have been evicted");
        assert_eq!(cache.stats().evictions, 2, "re-inserting B evicts again at capacity");
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = ExpressionCache::new();
        assert_eq!(cache.capacity(), 0);
        for name in ["A", "BB", "CCC", "DDDD", "EEEEE"] {
            let _ = cache.get_or_compile(&named(name), &CompileOptions::default());
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 5);
        assert_eq!(stats.evictions, 0);
    }
}
