//! `synthesize`: the whole compile pipeline (`Compiler::partitioned_passes`) over a
//! seeded draw of narrow targets and wide partitioned 4-qubit targets.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use openqudit::prelude::*;

use crate::oracle;
use crate::stats::{mix, ms_since};
use crate::{Ctx, Op, Run};

/// One target class: a reachable template on `radices` with `blocks` entangling
/// blocks, searched up to `max_blocks`.
pub struct Kind {
    pub name: &'static str,
    pub radices: &'static [usize],
    pub blocks: &'static [(usize, usize)],
    pub max_blocks: usize,
    pub wide: bool,
}

const WIDE_BLOCKS: [(usize, usize); 6] = [(0, 1), (2, 3), (1, 2), (0, 1), (2, 3), (1, 2)];

pub const KINDS: [Kind; 6] = [
    Kind { name: "2q_d2", radices: &[2, 2], blocks: &[(0, 1); 2], max_blocks: 3, wide: false },
    Kind { name: "2q_d3", radices: &[2, 2], blocks: &[(0, 1); 3], max_blocks: 4, wide: false },
    Kind {
        name: "3q_d2",
        radices: &[2, 2, 2],
        blocks: &[(0, 1), (1, 2)],
        max_blocks: 3,
        wide: false,
    },
    Kind { name: "2qt_d1", radices: &[3, 3], blocks: &[(0, 1)], max_blocks: 2, wide: false },
    Kind { name: "2q3_d1", radices: &[2, 3], blocks: &[(0, 1)], max_blocks: 2, wide: false },
    Kind { name: "4q_w6", radices: &[2, 2, 2, 2], blocks: &WIDE_BLOCKS, max_blocks: 8, wide: true },
];

/// Narrow targets compiled per wide target in the timed loop.
const NARROW_PER_ROUND: usize = 2;

/// The seeded target `k` of kind `kind` and the engine seed it compiles under.
pub fn target(seed: u64, kind: usize, k: u64) -> (Matrix<f64>, u64) {
    let spec = &KINDS[kind];
    let template = builders::pqc_template(spec.radices, spec.blocks).expect("valid template");
    let stream = mix(seed, 200 + kind as u64, k);
    (reachable_target(&template, stream), stream >> 11)
}

pub fn task(kind: usize, target: Matrix<f64>, engine_seed: u64) -> CompilationTask {
    let spec = &KINDS[kind];
    let mut config = SynthesisConfig::with_radices(spec.radices.to_vec());
    config.max_blocks = spec.max_blocks;
    config.seed = engine_seed;
    CompilationTask::new(target, config)
}

/// Compiles one narrow target of every kind, so the timed phase starts with the
/// expression cache holding every gate the pipeline uses.
pub fn warm(compiler: &Compiler, seed: u64) {
    for (kind, spec) in KINDS.iter().enumerate().filter(|(_, s)| !s.wide) {
        let (target, engine_seed) = target(seed, kind, u64::MAX);
        if let Err(e) = compiler.compile(task(kind, target, engine_seed)) {
            panic!("warm-up compile of {} failed: {e}", spec.name);
        }
    }
}

/// Wall-clock pass durations recorded by [`TimedPass`]: `(pass name, ms)`.
pub type PassLog = Arc<Mutex<Vec<(String, f64)>>>;

/// A [`Pass`] wrapper that times the pass it wraps and opens a span around it.
pub struct TimedPass<P> {
    inner: P,
    log: PassLog,
    trace: TraceRegistry,
}

impl<P: Pass> Pass for TimedPass<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn run(
        &self,
        task: &mut CompilationTask,
        ctx: &mut PassContext<'_>,
    ) -> Result<(), CompileError> {
        let _span = self.trace.span(&format!("compile.{}", self.inner.name()));
        let t0 = Instant::now();
        let result = self.inner.run(task, ctx);
        let ms = ms_since(t0);
        self.log.lock().unwrap_or_else(PoisonError::into_inner).push((self.name().to_string(), ms));
        result
    }
}

/// `Compiler::partitioned_passes` rebuilt from the same passes, each wrapped in a
/// [`TimedPass`].
pub fn timed_compiler(cache: ExpressionCache, log: &PassLog, trace: &TraceRegistry) -> Compiler {
    fn wrap<P: Pass>(inner: P, log: &PassLog, trace: &TraceRegistry) -> TimedPass<P> {
        TimedPass { inner, log: Arc::clone(log), trace: trace.clone() }
    }
    Compiler::with_cache(cache)
        .add_pass(wrap(PartitionPass::default(), log, trace))
        .add_pass(wrap(SynthesisPass, log, trace))
        .add_pass(wrap(RefinePass::default(), log, trace))
        .add_pass(wrap(FoldPass::default(), log, trace))
}

/// Checks a compile result with the reference evaluator; returns whether it met
/// the success threshold.
pub fn check(report: &CompilationReport, target: &Matrix<f64>) -> Result<bool, String> {
    let result = &report.result;
    let recomputed =
        oracle::check_result(&result.circuit, &result.params, target, result.infidelity)?;
    Ok(recomputed < oracle::SUCCESS)
}

struct State {
    plain: Compiler,
    timed: Compiler,
}

fn setup(ctx: &Ctx) -> State {
    let cache = ExpressionCache::new();
    let plain = Compiler::with_cache(cache.clone()).partitioned_passes();
    warm(&plain, ctx.seed);
    let log = PassLog::default();
    let timed = timed_compiler(cache, &log, &ctx.trace.clone().unwrap_or_default());
    State { plain, timed }
}

pub fn run(ctx: &Ctx) -> Run {
    let (state, setup_s) = ctx.repeat_setup(|| setup(ctx));
    let kinds = KINDS.iter().map(|k| k.name.to_string()).collect();
    let narrow: Vec<usize> = (0..KINDS.len()).filter(|&k| !KINDS[k].wide).collect();
    let wide = KINDS.iter().position(|k| k.wide).expect("one wide kind");
    let mut ops = Vec::new();
    let started = Instant::now();
    let deadline = ctx.deadline(started);
    for round in 0.. {
        let traced = ctx.traced_round(round);
        let compiler = if traced { &state.timed } else { &state.plain };
        let mut order: Vec<usize> =
            (0..NARROW_PER_ROUND).flat_map(|_| narrow.iter().copied()).collect();
        order.push(wide);
        for (i, kind) in order.into_iter().enumerate() {
            let k = (round * 16 + i) as u64;
            let (target, engine_seed) = target(ctx.seed, kind, k);
            let task = task(kind, target.clone(), engine_seed);
            let span = traced.then(|| ctx.span(&format!("synthesize.{}", KINDS[kind].name)));
            let t0 = Instant::now();
            let compiled = compiler.compile(task);
            let ms = ms_since(t0);
            drop(span);
            let checked = compiled.map_err(|e| e.to_string()).and_then(|r| check(&r, &target));
            ops.push(Op {
                kind,
                ms,
                traced,
                success: checked == Ok(true),
                error: checked.err().map(|e| format!("{} target {k}: {e}", KINDS[kind].name)),
            });
        }
        // Whole rounds only, so throughput is measured at the stated target mix.
        if ctx.done(round, deadline) {
            break;
        }
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    let mut run = Run::new(kinds, ops, setup_s, elapsed_s)
        .named_op_metrics("synth_ms_geomean", "synth_targets_per_s");
    let medians = run.medians(false);
    let narrow: Vec<f64> = narrow.iter().map(|&k| medians[k]).collect();
    let narrow_geomean = crate::stats::geomean(&narrow);
    let wide_p50 = medians[wide] / 1e3;
    run.named.push(("synth_narrow_ms_geomean".to_string(), narrow_geomean, "ms"));
    run.named.push(("synth_wide_s_p50".to_string(), wide_p50, "s"));
    run
}
