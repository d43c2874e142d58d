//! Deterministic per-VM kernel-dispatch accounting.
//!
//! Every [`Tnvm`](crate::Tnvm) tallies how often each bytecode operation dispatched to
//! each [`KernelSel`] kernel family (plus a static flop estimate and its expression-cache
//! lookup outcomes) into a plain [`KernelCounters`] value — **local** to the VM, not a
//! shared registry. That locality is what keeps the numbers deterministic under the
//! schedule-independent early-stop discipline: parallel search workers accumulate
//! counters per candidate, the join point filters them to the deterministic prefix, and
//! only the surviving sums are recorded into a
//! [`TraceRegistry`].
//!
//! Dispatch counts derive purely from program structure and the tier's lowering plan, so
//! they are byte-identical across same-seed runs *within* a tier; across tiers they
//! legitimately differ (that is the point — they answer "which kernels did this tier
//! run"), which is why reports emit them in a separate `kernel_metrics` section from the
//! tier-invariant algorithm counters.

use qudit_trace::TraceRegistry;

use crate::backend::KernelSel;

/// Index of a kernel family in the per-`KernelSel` counter arrays.
fn sel_index(sel: KernelSel) -> usize {
    match sel {
        KernelSel::Scalar => 0,
        KernelSel::Blocked => 1,
    }
}

/// Monotone dispatch/flop/cache counts accumulated by one VM (or merged across several).
///
/// Array fields are indexed by [`KernelSel`] (0 = scalar, 1 = blocked).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelCounters {
    /// MATMUL kernel invocations (value + gradient product-rule calls) per family.
    pub matmul: [u64; 2],
    /// KRON kernel invocations per family.
    pub kron: [u64; 2],
    /// HADAMARD kernel invocations (the tiers share one element-wise kernel).
    pub hadamard: u64,
    /// WRITE instructions executed (compiled-expression runs).
    pub writes: u64,
    /// TRANSPOSE instructions executed.
    pub transposes: u64,
    /// Static flop estimate per kernel family (8·m·n·k per MATMUL call,
    /// 6·output-elements per KRON/HADAMARD call).
    pub flops: [u64; 2],
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
        for i in 0..2 {
            self.matmul[i] += other.matmul[i];
            self.kron[i] += other.kron[i];
            self.flops[i] += other.flops[i];
        }
        self.hadamard += other.hadamard;
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

    /// Tallies `calls` dispatches of `sel` for one bilinear instruction kind, with a
    /// static per-call flop estimate.
    pub fn tally(&mut self, kind: BilinearTally, sel: KernelSel, calls: u64, flops_per_call: u64) {
        let i = sel_index(sel);
        match kind {
            BilinearTally::Matmul => self.matmul[i] += calls,
            BilinearTally::Kron => self.kron[i] += calls,
            BilinearTally::Hadamard => self.hadamard += calls,
        }
        self.flops[i] += calls * flops_per_call;
    }

    /// Records the counts into `trace` under the `tnvm.*` namespace (kernel-dispatch
    /// counts, tier-variant) and the `cache.*` namespace (expression-cache lookups,
    /// tier-invariant). Zero counts are skipped, so snapshots stay compact while still
    /// being deterministic (the same fields are nonzero in every same-seed run).
    pub fn record_into(&self, trace: &TraceRegistry) {
        if !trace.enabled() || self.is_empty() {
            return;
        }
        let sel_name = |i: usize| if i == 0 { "scalar" } else { "blocked" };
        for i in 0..2 {
            if self.matmul[i] > 0 {
                trace.add(&format!("tnvm.dispatch.matmul.{}", sel_name(i)), self.matmul[i]);
            }
            if self.kron[i] > 0 {
                trace.add(&format!("tnvm.dispatch.kron.{}", sel_name(i)), self.kron[i]);
            }
            if self.flops[i] > 0 {
                trace.add(&format!("tnvm.flops.{}", sel_name(i)), self.flops[i]);
            }
        }
        if self.hadamard > 0 {
            trace.add("tnvm.dispatch.hadamard", self.hadamard);
        }
        if self.writes > 0 {
            trace.add("tnvm.dispatch.write", self.writes);
        }
        if self.transposes > 0 {
            trace.add("tnvm.dispatch.transpose", self.transposes);
        }
        if self.evaluations > 0 {
            trace.add("tnvm.evaluations", self.evaluations);
        }
        if self.cache_hits > 0 {
            trace.add("cache.hits", self.cache_hits);
        }
        if self.cache_misses > 0 {
            trace.add("cache.misses", self.cache_misses);
        }
    }
}

/// Which bilinear instruction a [`KernelCounters::tally`] call accounts for.
#[derive(Debug, Clone, Copy)]
pub enum BilinearTally {
    /// A MATMUL dispatch.
    Matmul,
    /// A KRON dispatch.
    Kron,
    /// A HADAMARD dispatch.
    Hadamard,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = KernelCounters { matmul: [2, 1], evaluations: 3, ..Default::default() };
        let b = KernelCounters { matmul: [1, 1], cache_hits: 5, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.matmul, [3, 2]);
        assert_eq!(a.evaluations, 3);
        assert_eq!(a.cache_hits, 5);
    }

    #[test]
    fn record_skips_zeros_and_namespaces_keys() {
        let trace = TraceRegistry::new();
        let mut c = KernelCounters::default();
        c.tally(BilinearTally::Matmul, KernelSel::Blocked, 2, 100);
        c.cache_hits = 7;
        c.record_into(&trace);
        let counters = trace.counters();
        assert_eq!(counters["tnvm.dispatch.matmul.blocked"], 2);
        assert_eq!(counters["tnvm.flops.blocked"], 200);
        assert_eq!(counters["cache.hits"], 7);
        assert!(!counters.contains_key("tnvm.dispatch.matmul.scalar"));
        assert!(!counters.contains_key("cache.misses"));
    }

    #[test]
    fn empty_counters_record_nothing() {
        let trace = TraceRegistry::new();
        KernelCounters::default().record_into(&trace);
        assert!(trace.counters().is_empty());
    }
}
