//! Observability conformance: the `qudit-trace` registry threaded through the whole
//! pipeline must uphold the determinism contract — same seed, byte-identical counter
//! snapshots, with the kernel-dispatch totals pinned, also from a parallel frontier
//! on a cold cache — and span nesting stays well-formed under arbitrary
//! (proptest-generated) shapes.

use openqudit::prelude::*;

/// Asserts that every instantiation start recorded exactly one LM stop reason.
fn assert_one_stop_per_start(report: &CompilationReport) {
    let stops: u64 =
        report.metrics.iter().filter(|(k, _)| k.starts_with("lm.stop.")).map(|(_, v)| v).sum();
    assert_eq!(Some(&stops), report.metrics.get("instantiate.starts"), "{:?}", report.metrics);
}

/// Compiles the CNOT workload through the default pipeline with a fresh cache,
/// returning the report.
fn compile_cnot() -> CompilationReport {
    let target = gates::cnot().to_matrix::<f64>(&[]).unwrap();
    Compiler::with_cache(ExpressionCache::new())
        .default_passes()
        .compile(CompilationTask::new(target, SynthesisConfig::qubits(2)))
        .unwrap()
}

#[test]
fn same_seed_counter_snapshots_are_byte_identical() {
    let a = compile_cnot();
    let b = compile_cnot();
    assert_eq!(a.trace.counters_json(), b.trace.counters_json());
    // The snapshot is non-trivial: the pipeline recorded search, instantiation,
    // LM, cache, and kernel-dispatch activity.
    for key in [
        "search.nodes_expanded",
        "frontier.candidates",
        "instantiate.calls",
        "instantiate.starts",
        "lm.iterations",
        "lm.trials",
        "lm.trials.rejected",
        "cache.misses",
        "tnvm.evaluations",
    ] {
        assert!(a.metrics.contains_key(key), "missing {key} in {:?}", a.metrics);
    }
    assert_one_stop_per_start(&a);
    assert!(a.metrics.keys().any(|k| k.starts_with("tnvm.dispatch.")), "{:?}", a.metrics);
    // The search and its frontier evaluations show up in the span log.
    let events = a.trace.span_events();
    let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
    for stage in ["search", "frontier"] {
        assert!(names.contains(&stage), "missing span {stage} in {names:?}");
    }
}

#[test]
fn search_runs_stop_at_their_cost_plateau() {
    // The search's own LM runs, without refine's: a failing start stops once its cost
    // has flattened, and every start still records exactly one stop reason. The
    // target needs three CNOTs. Two already reach full Schmidt rank, so the cut bound
    // passes the depth-2 nodes, and this target sits close enough to the two-CNOT
    // class that no certificate rules them out, yet no parameter vector fits them:
    // their starts fail.
    let template = builders::pqc_template(&[2, 2], &[(0, 1); 3]).unwrap();
    let target = reachable_target(&template, 4);
    let report = Compiler::with_cache(ExpressionCache::new())
        .add_pass(SynthesisPass)
        .compile(CompilationTask::new(target, SynthesisConfig::qubits(2)))
        .unwrap();
    assert!(report.result.success);
    assert!(report.metrics.get("lm.stop.plateau").is_some_and(|&n| n > 0), "{:?}", report.metrics);
    assert_one_stop_per_start(&report);
}

#[test]
fn parallel_frontier_counters_do_not_depend_on_timing() {
    // Two candidates of a 3-qubit frontier on a fresh cache: their workers build
    // evaluators at once, so without a serial warm-up both could count a miss for an
    // expression they share. Counters and results must repeat exactly, and the
    // results must equal the serial path's. A cache too small for one program evicts
    // what the warm-up compiled, so the workers' own lookups miss; those must not
    // reach the counters either.
    use openqudit::synth::{evaluate_frontier, Candidate, LayerGenerator};
    let generator = LayerGenerator::new(&[2, 2, 2], &CouplingGraph::linear(3)).unwrap();
    let seed_net = generator.seed_network().unwrap();
    let target = reachable_target(&generator.circuit_for(&[0]).unwrap(), 9);
    let candidates: Vec<Candidate> = [vec![0], vec![1]]
        .into_iter()
        .map(|blocks| Candidate {
            network: generator.extend_network(&seed_net, blocks[0]),
            blocks,
            warm_start: None,
        })
        .collect();
    let lm = LmConfig { plateau_window: 10, ..Default::default() };
    let run = |threads: usize, cache: ExpressionCache| {
        let trace = TraceRegistry::new();
        let config = InstantiateConfig {
            starts: 2,
            lm: lm.clone(),
            trace: trace.clone(),
            ..Default::default()
        };
        let evaluated = evaluate_frontier(&target, &candidates, &config, threads, &cache, false);
        let bits: Vec<Vec<u64>> = evaluated
            .iter()
            .map(|c| c.params.iter().chain([&c.infidelity]).map(|x| x.to_bits()).collect())
            .collect();
        (trace.counters_json(), bits)
    };
    let (_, serial_bits) = run(1, ExpressionCache::new());
    for (threads, capacity) in [(2, None), (4, None), (2, Some(1))] {
        let cache = || capacity.map_or_else(ExpressionCache::new, ExpressionCache::with_capacity);
        let (counters, bits) = run(threads, cache());
        assert!(counters.contains("cache.misses"), "{counters}");
        assert_eq!(bits, serial_bits, "{threads} workers changed a result");
        for _ in 1..20 {
            assert_eq!(
                run(threads, cache()),
                (counters.clone(), bits.clone()),
                "{threads} workers"
            );
        }
    }
}

#[test]
fn tiers_agree_on_algorithm_counters_and_split_kernel_dispatch() {
    // The CNOT compile's kernel work, pinned: MATMUL and KRON dispatches, the flop
    // estimate summed over its keys, and the evaluation count.
    let report = compile_cnot();
    let metric = |key: &str| report.metrics.get(key).copied().unwrap_or(0);
    let flops: u64 =
        report.metrics.iter().filter(|(k, _)| k.starts_with("tnvm.flops.")).map(|(_, v)| v).sum();
    let totals = (
        metric("tnvm.dispatch.matmul"),
        metric("tnvm.dispatch.kron"),
        flops,
        metric("tnvm.evaluations"),
    );
    assert_eq!(totals, (64, 46, 37_184, 5), "{:?}", report.metrics);
}

#[test]
fn partitioned_run_emits_chrome_trace_and_counters() {
    // The 4-qubit partitioned workload (the same recipe report_synthesis uses):
    // two escalation rounds over the [0,1]|[2,3] cut reach the target.
    let round = [(0usize, 1usize), (2, 3), (1, 2)];
    let blocks: Vec<(usize, usize)> = round.iter().cycle().take(6).copied().collect();
    let template = builders::pqc_template(&[2, 2, 2, 2], &blocks).unwrap();
    let target = reachable_target(&template, 53);
    let mut config = SynthesisConfig::with_radices(vec![2, 2, 2, 2]);
    config.max_blocks = 8;
    let report = Compiler::with_cache(ExpressionCache::new())
        .partitioned_passes()
        .compile(CompilationTask::new(target, config))
        .unwrap();
    assert!(report.result.success);
    // The snapshot covers the whole pipeline: partition-round instantiations,
    // refine's deletion attempts, LM, cache, and kernels.
    for key in ["lm.iterations", "cache.hits", "instantiate.calls"] {
        assert!(report.metrics.contains_key(key), "missing {key} in {:?}", report.metrics);
    }
    assert_one_stop_per_start(&report);
    assert!(report.metrics.keys().any(|k| k.starts_with("tnvm.dispatch.")));
    // The counters describe this compile only: two partition rounds reached the
    // target and the search pass skipped, so no search or frontier work is counted,
    // and fold's counter matches the result. The cut bound certified round 1, whose
    // one start stopped at its cost plateau; round 2 converged from its warm start,
    // and refine's attempts were all certified, so that plateau stop is round 1's.
    assert_eq!(report.metrics.get("partition.rounds"), Some(&2));
    assert_eq!(report.metrics.get("partition.rounds.certified"), Some(&1));
    assert_eq!(
        report.metrics.get("refine.attempts.certified"),
        report.metrics.get("refine.attempts")
    );
    assert_eq!(report.metrics.get("lm.stop.plateau"), Some(&1), "{:?}", report.metrics);
    for key in ["search.nodes_expanded", "frontier.candidates"] {
        assert!(!report.metrics.contains_key(key), "unexpected {key} in {:?}", report.metrics);
    }
    let params_folded = report.metrics.get("fold.params_folded").copied().unwrap_or(0);
    assert_eq!(params_folded, report.result.params_folded as u64, "{:?}", report.metrics);
    // Every pipeline stage shows up in the span log, nested sanely.
    let events = report.trace.span_events();
    let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
    for stage in ["partition", "synthesis", "refine", "fold"] {
        assert!(names.contains(&stage), "missing span {stage} in {names:?}");
    }
    // The Chrome export is a JSON array of "X" complete events with the required
    // trace_event fields (structural check — no JSON parser in the workspace).
    let chrome = report.trace.chrome_trace_json();
    assert!(chrome.starts_with('[') && chrome.trim_end().ends_with(']'));
    let event_lines: Vec<&str> = chrome.lines().filter(|l| l.contains("\"name\"")).collect();
    assert_eq!(event_lines.len(), events.len());
    for line in &event_lines {
        for field in ["\"ph\": \"X\"", "\"ts\": ", "\"dur\": ", "\"pid\": ", "\"tid\": "] {
            assert!(line.contains(field), "chrome event missing {field}: {line}");
        }
    }
}

mod span_nesting {
    use openqudit::prelude::*;
    use proptest::prelude::*;

    /// Opens spans along `shape` interpreted as a stack program: value `v` at step
    /// `i` pops the stack down to depth `v % (depth + 1)` and then pushes one span.
    fn drive(trace: &TraceRegistry, shape: &[u8]) {
        let mut stack: Vec<Span> = Vec::new();
        for (i, &v) in shape.iter().enumerate() {
            let keep = (v as usize) % (stack.len() + 1);
            // Close deepest-first (plain Vec::truncate would drop front-to-back,
            // closing parents before their children).
            while stack.len() > keep {
                stack.pop();
            }
            stack.push(trace.span(&format!("s{i}")));
        }
        while stack.pop().is_some() {}
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn span_nesting_is_well_formed(len in 1usize..24, seed in 0u64..u64::MAX) {
            // Derive the nesting shape from the seed (the vendored proptest shim has
            // no collection strategies): a splitmix64 stream of pop/push decisions.
            let mut state = seed;
            let shape: Vec<u8> = (0..len)
                .map(|_| {
                    state = state.wrapping_add(0x9E3779B97F4A7C15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                    (z ^ (z >> 31)) as u8
                })
                .collect();
            let trace = TraceRegistry::new();
            drive(&trace, &shape);
            let events = trace.span_events();
            prop_assert_eq!(events.len(), shape.len());
            // Events are logged in open order; parents must be earlier events on
            // the same thread, exactly one level up, and time-containing.
            for (i, event) in events.iter().enumerate() {
                match event.parent {
                    None => prop_assert_eq!(event.depth, 0),
                    Some(p) => {
                        prop_assert!(p < i, "parent {} not before event {}", p, i);
                        let parent = &events[p];
                        prop_assert_eq!(event.depth, parent.depth + 1);
                        prop_assert_eq!(event.tid, parent.tid);
                        prop_assert!(event.start_us >= parent.start_us);
                        prop_assert!(
                            event.start_us + event.dur_us <= parent.start_us + parent.dur_us,
                            "child [{}, {}] escapes parent [{}, {}]",
                            event.start_us, event.start_us + event.dur_us,
                            parent.start_us, parent.start_us + parent.dur_us
                        );
                    }
                }
            }
        }
    }
}
