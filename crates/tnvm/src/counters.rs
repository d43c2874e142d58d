//! Deterministic per-VM kernel-dispatch accounting.
//!
//! Every [`Tnvm`](crate::Tnvm) tallies how often each bytecode operation dispatched
//! its kernel (plus a static flop estimate per operation and its expression-cache
//! lookup outcomes) into a plain [`KernelCounters`] value — **local** to the VM, not a
//! shared registry. That locality is what keeps the numbers deterministic under the
//! schedule-independent early-stop discipline: parallel search workers accumulate
//! counters per candidate, the join point filters them to the deterministic prefix, and
//! only the surviving sums are recorded into a
//! [`TraceRegistry`].
//!
//! Dispatch counts derive purely from program structure, so they are byte-identical
//! across same-seed runs and sit in reports beside the algorithm counters.

use qudit_trace::TraceRegistry;

/// Monotone dispatch/flop/cache counts accumulated by one VM (or merged across several).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelCounters {
    /// MATMUL kernel invocations (value + gradient product-rule calls).
    pub matmul: u64,
    /// KRON kernel invocations.
    pub kron: u64,
    /// HADAMARD kernel invocations.
    pub hadamard: u64,
    /// WRITE instructions executed (compiled-expression runs).
    pub writes: u64,
    /// TRANSPOSE instructions executed.
    pub transposes: u64,
    /// Static flop estimate per bilinear operation, indexed by [`BilinearTally`]
    /// (MATMUL, KRON, HADAMARD): 8·m·n·k per MATMUL call, 6·output-elements per
    /// KRON/HADAMARD call.
    pub flops: [u64; 3],
    /// Value sweeps: [`Tnvm::evaluate`](crate::Tnvm::evaluate) and
    /// [`Tnvm::evaluate_unitary`](crate::Tnvm::evaluate_unitary) calls.
    pub evaluations: u64,
    /// Expression-cache lookups satisfied from the cache during (re)initialization.
    pub cache_hits: u64,
    /// Expression-cache lookups that had to compile.
    pub cache_misses: u64,
}

impl KernelCounters {
    /// Adds `other`'s counts into `self`.
    pub fn merge(&mut self, other: &KernelCounters) {
        self.matmul += other.matmul;
        self.kron += other.kron;
        self.hadamard += other.hadamard;
        for (flops, other) in self.flops.iter_mut().zip(other.flops) {
            *flops += other;
        }
        self.writes += other.writes;
        self.transposes += other.transposes;
        self.evaluations += other.evaluations;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
    }

    /// True if no event has been counted.
    pub fn is_empty(&self) -> bool {
        *self == KernelCounters::default()
    }

    /// Tallies `calls` dispatches of one bilinear instruction kind, with a static
    /// per-call flop estimate.
    pub fn tally(&mut self, kind: BilinearTally, calls: u64, flops_per_call: u64) {
        match kind {
            BilinearTally::Matmul => self.matmul += calls,
            BilinearTally::Kron => self.kron += calls,
            BilinearTally::Hadamard => self.hadamard += calls,
        }
        self.flops[kind as usize] += calls * flops_per_call;
    }

    /// Records the counts into `trace` under the `tnvm.*` namespace (kernel
    /// dispatches and flops) and the `cache.*` namespace (expression-cache lookups).
    /// Zero counts are skipped, so snapshots stay compact while still being
    /// deterministic (the same fields are nonzero in every same-seed run).
    pub fn record_into(&self, trace: &TraceRegistry) {
        if !trace.enabled() || self.is_empty() {
            return;
        }
        let counts = [
            ("tnvm.dispatch.matmul", self.matmul),
            ("tnvm.dispatch.kron", self.kron),
            ("tnvm.dispatch.hadamard", self.hadamard),
            ("tnvm.dispatch.write", self.writes),
            ("tnvm.dispatch.transpose", self.transposes),
            ("tnvm.flops.matmul", self.flops[BilinearTally::Matmul as usize]),
            ("tnvm.flops.kron", self.flops[BilinearTally::Kron as usize]),
            ("tnvm.flops.hadamard", self.flops[BilinearTally::Hadamard as usize]),
            ("tnvm.evaluations", self.evaluations),
            ("cache.hits", self.cache_hits),
            ("cache.misses", self.cache_misses),
        ];
        for (name, value) in counts {
            if value > 0 {
                trace.add(name, value);
            }
        }
    }
}

/// Which bilinear instruction a [`KernelCounters::tally`] call accounts for; its
/// discriminant indexes [`KernelCounters::flops`].
#[derive(Debug, Clone, Copy)]
pub enum BilinearTally {
    /// A MATMUL dispatch.
    Matmul = 0,
    /// A KRON dispatch.
    Kron = 1,
    /// A HADAMARD dispatch.
    Hadamard = 2,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = KernelCounters { matmul: 3, evaluations: 3, ..Default::default() };
        let b = KernelCounters { matmul: 2, flops: [1, 2, 3], cache_hits: 5, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.matmul, 5);
        assert_eq!(a.flops, [1, 2, 3]);
        assert_eq!(a.evaluations, 3);
        assert_eq!(a.cache_hits, 5);
    }

    #[test]
    fn record_skips_zeros_and_namespaces_keys() {
        let trace = TraceRegistry::new();
        let mut c = KernelCounters::default();
        c.tally(BilinearTally::Matmul, 2, 100);
        c.cache_hits = 7;
        c.record_into(&trace);
        let counters = trace.counters();
        assert_eq!(counters["tnvm.dispatch.matmul"], 2);
        assert_eq!(counters["tnvm.flops.matmul"], 200);
        assert_eq!(counters["cache.hits"], 7);
        assert!(!counters.contains_key("tnvm.dispatch.kron"));
        assert!(!counters.contains_key("tnvm.flops.kron"));
        assert!(!counters.contains_key("cache.misses"));
    }

    #[test]
    fn empty_counters_record_nothing() {
        let trace = TraceRegistry::new();
        KernelCounters::default().record_into(&trace);
        assert!(trace.counters().is_empty());
    }
}
