//! The [`Pass`] trait and the [`PassContext`] handed to every pass invocation.

use qudit_qvm::ExpressionCache;
use qudit_trace::TraceRegistry;

use crate::cancel::CancelToken;
use crate::error::CompileError;
use crate::task::CompilationTask;

/// One stage of a compilation pipeline.
///
/// A pass reads and mutates the [`CompilationTask`]: it may synthesize the first
/// circuit (`task.result`), transform an existing one, or only gate the pipeline.
/// What it did, it reports as counters on [`PassContext::trace`]. Passes must be
/// deterministic for a fixed task (same seeds in, same bytes out) — the engine's
/// reproducibility guarantee extends pass-wise.
///
/// See the crate root for a runnable custom-pass example.
pub trait Pass: Send + Sync {
    /// The pass's stable display name (used for timings and metric namespaces).
    fn name(&self) -> &str;

    /// Runs the pass over `task`.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] when the pass cannot proceed (invalid target or
    /// configuration, or a pipeline-order bug such as refining before synthesizing).
    /// When the pass simply does not apply, it returns `Ok` without recording any of
    /// its counters: the absence of its namespace in the report is the signal.
    fn run(
        &self,
        task: &mut CompilationTask,
        ctx: &mut PassContext<'_>,
    ) -> Result<(), CompileError>;
}

/// Per-invocation services the [`Compiler`](crate::Compiler) provides to a pass:
/// today the process-wide [`ExpressionCache`] every stage compiles through.
///
/// The context is deliberately small — cross-pass *state* belongs on the
/// [`CompilationTask`], so that saving a task snapshot reproduces a run.
#[derive(Debug)]
pub struct PassContext<'a> {
    cache: &'a ExpressionCache,
    trace: TraceRegistry,
    cancel: CancelToken,
}

impl<'a> PassContext<'a> {
    /// A context borrowing the compiler's expression cache, with a disabled trace
    /// registry and no cancellation.
    pub fn new(cache: &'a ExpressionCache) -> Self {
        PassContext { cache, trace: TraceRegistry::disabled(), cancel: CancelToken::none() }
    }

    /// Sets the observability registry this pass invocation records into (builder
    /// style). The compiler installs its per-compilation registry here, so passes
    /// can record counters and open spans without going through the task config.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceRegistry) -> Self {
        self.trace = trace;
        self
    }

    /// The shared expression cache. Cloning it is cheap (`Arc` under the hood) and
    /// yields a handle to the *same* cache, so compiled gates are shared.
    pub fn cache(&self) -> &'a ExpressionCache {
        self.cache
    }

    /// The observability registry this pass invocation records into. Disabled (a
    /// no-op handle) unless the compiler installed one; cloning shares the sink.
    pub fn trace(&self) -> &TraceRegistry {
        &self.trace
    }

    /// Sets the cancellation token this pass invocation polls (builder style). The
    /// compiler installs the token handed to
    /// [`Compiler::compile_with_cancel`](crate::Compiler::compile_with_cancel).
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// The compilation's cancellation token. The never-cancelling handle unless the
    /// driver installed one; long passes poll it at internal checkpoints (e.g. the
    /// partition pass between escalation rounds) so a deadline can abort work the
    /// per-pass boundary check would reach too late.
    pub fn cancel(&self) -> &CancelToken {
        &self.cancel
    }

    /// Convenience checkpoint: maps a failed token check to
    /// [`CompileError::Cancelled`] labelled with `checkpoint`.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Cancelled`] when the token has been cancelled or its
    /// deadline has passed.
    pub fn checkpoint(&self, checkpoint: &str) -> Result<(), CompileError> {
        self.cancel
            .check()
            .map_err(|reason| CompileError::Cancelled { after: checkpoint.to_string(), reason })
    }
}

/// The measured wall-clock time of one pass execution, reported by
/// [`Compiler::compile`](crate::Compiler::compile).
#[derive(Debug, Clone)]
pub struct PassTiming {
    /// The pass's [`Pass::name`].
    pub pass: String,
    /// Wall-clock duration of the pass's `run`.
    pub duration: std::time::Duration,
}
