//! The compilation server: a bounded work queue of [`CompilationTask`]s over one
//! process-wide [`Compiler`] and shared [`ExpressionCache`].
//!
//! ## Endpoints
//!
//! | Endpoint | Semantics |
//! |---|---|
//! | `POST /compile` | Synthesize one target; see [`crate::request`] for the schema |
//! | `GET /metrics` | Process-level counter/cache/timing snapshot |
//! | `GET /healthz` | Liveness probe |
//!
//! ## Isolation guarantees
//!
//! One bad request cannot kill the process: degenerate inputs come back as typed
//! 4xx errors from the pipeline's fallible paths, an expired deadline aborts the
//! compilation at the next cooperative checkpoint (504), a full queue sheds load
//! (429), and a panicking compile is caught at the worker boundary (500) while
//! the worker thread survives to take the next job.

use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use qudit_compile::{
    CancelReason, CancelToken, CompilationReport, CompilationTask, CompileError, Compiler,
};
use qudit_qvm::ExpressionCache;
use qudit_trace::TraceRegistry;

use crate::http::{read_request, write_response, Request};
use crate::json::Json;
use crate::request::{parse_compile_request, CompileRequest};

/// Server capacity and behavior knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address. Use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// Number of compile worker threads.
    pub workers: usize,
    /// Maximum number of requests waiting for a worker before the server sheds
    /// load with 429 responses.
    pub queue_capacity: usize,
    /// Engine threads each compile may use. `0` budgets automatically:
    /// `max(1, available_parallelism / workers)`, so the request pool and the
    /// frontier's parallelism split the machine instead of oversubscribing it.
    pub threads_per_compile: usize,
    /// Expression-cache capacity (entries). `0` means unbounded.
    pub cache_capacity: usize,
    /// Default per-request deadline in milliseconds when the request carries
    /// none. `0` disables the default (requests without `deadline_ms` run
    /// unbounded).
    pub default_deadline_ms: u64,
    /// Whether `/compile` honors the `debug` hook object (hold/panic). Only
    /// tests and load generators enable this.
    pub debug_hooks: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 32,
            threads_per_compile: 0,
            cache_capacity: 0,
            default_deadline_ms: 0,
            debug_hooks: false,
        }
    }
}

/// The terminal outcome of one admitted request, shared verbatim with every
/// deduplicated joiner — bodies are byte-identical by construction.
#[derive(Debug, Clone)]
struct Outcome {
    status: u16,
    body: String,
}

/// The rendezvous cell a request waits on. The leader (or the worker running
/// its compile) fills it once; joiners block on the condvar until then.
#[derive(Debug, Default)]
struct Slot {
    done: Mutex<Option<Outcome>>,
    cv: Condvar,
}

impl Slot {
    fn fill(&self, outcome: Outcome) {
        let mut done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        *done = Some(outcome);
        self.cv.notify_all();
    }

    fn wait(&self) -> Outcome {
        let mut done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(outcome) = done.as_ref() {
                return outcome.clone();
            }
            done = self.cv.wait(done).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// One admitted compile waiting for a worker.
struct Job {
    request: CompileRequest,
    token: CancelToken,
    slot: Arc<Slot>,
    dedup_key: String,
}

/// Per-pass wall-clock accumulation for `/metrics` (aggregated from
/// [`CompilationReport`] timings — the serve layer itself reads no clocks).
#[derive(Debug, Default, Clone, Copy)]
struct PassStat {
    count: u64,
    total_us: u64,
}

/// State shared by the accept loop, connection threads, and workers.
struct Shared {
    config: ServeConfig,
    compiler: Compiler,
    registry: TraceRegistry,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    inflight: Mutex<BTreeMap<String, Arc<Slot>>>,
    pass_timings: Mutex<BTreeMap<String, PassStat>>,
    stop: AtomicBool,
}

impl Shared {
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, VecDeque<Job>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_inflight(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Arc<Slot>>> {
        self.inflight.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The compilation server.
pub struct Server;

impl Server {
    /// Binds the listener, spawns the worker pool and accept loop, and returns
    /// a handle. The server runs until [`ServerHandle::shutdown`].
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn start(config: ServeConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let threads_per_compile = if config.threads_per_compile != 0 {
            config.threads_per_compile
        } else {
            (qudit_optimize::resolve_threads(0) / workers).max(1)
        };
        let cache = if config.cache_capacity != 0 {
            ExpressionCache::with_capacity(config.cache_capacity)
        } else {
            ExpressionCache::new()
        };
        let compiler =
            Compiler::with_cache(cache).partitioned_passes().threads(threads_per_compile);
        let registry = TraceRegistry::new();
        let shared = Arc::new(Shared {
            config,
            compiler,
            registry,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            inflight: Mutex::new(BTreeMap::new()),
            pass_timings: Mutex::new(BTreeMap::new()),
            stop: AtomicBool::new(false),
        });

        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("qudit-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        let accept_shared = Arc::clone(&shared);
        let accept_handle = std::thread::Builder::new()
            .name("qudit-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared))?;

        Ok(ServerHandle { addr, shared, accept_handle, worker_handles })
    }
}

/// A running server: its bound address and the shutdown lever.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: std::thread::JoinHandle<()>,
    worker_handles: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The process-level metrics registry (serve counters plus every absorbed
    /// per-compilation counter snapshot).
    pub fn registry(&self) -> &TraceRegistry {
        &self.shared.registry
    }

    /// The shared expression cache behind the process-wide compiler.
    pub fn cache(&self) -> &ExpressionCache {
        self.shared.compiler.cache()
    }

    /// Stops accepting, drains the queue (every admitted request still gets a
    /// response), and joins the worker pool.
    pub fn shutdown(self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection; it re-checks the
        // stop flag before handling anything.
        let _ = TcpStream::connect(self.addr);
        self.shared.queue_cv.notify_all();
        let _ = self.accept_handle.join();
        for handle in self.worker_handles {
            self.shared.queue_cv.notify_all();
            let _ = handle.join();
        }
    }

    /// Blocks until the accept loop exits (for the CLI binary's main thread).
    pub fn join(self) {
        let _ = self.accept_handle.join();
        for handle in self.worker_handles {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        // Connection threads are short-lived (one request, one response) and
        // bounded by the HTTP read timeout, so they run detached.
        let _ = std::thread::Builder::new()
            .name("qudit-serve-conn".to_string())
            .spawn(move || handle_connection(stream, &shared));
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let request = match read_request(&mut stream) {
        Ok(request) => request,
        Err(detail) => {
            let body = error_body(&detail, "bad-request");
            let _ = write_response(&mut stream, 400, &body, &[]);
            return;
        }
    };
    let (status, body, headers) = route(&request, shared);
    let _ = write_response(&mut stream, status, &body, &headers);
}

fn route(request: &Request, shared: &Arc<Shared>) -> (u16, String, Vec<(String, String)>) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/compile") => handle_compile(&request.body, shared),
        ("GET", "/metrics") => (200, metrics_body(shared), Vec::new()),
        ("GET", "/healthz") => (200, "{\"status\":\"ok\"}".to_string(), Vec::new()),
        ("POST" | "GET", _) => (404, error_body("no such endpoint", "not-found"), Vec::new()),
        _ => (405, error_body("method not allowed", "method-not-allowed"), Vec::new()),
    }
}

/// Admits, deduplicates, enqueues, and waits out one `/compile` request.
fn handle_compile(body: &[u8], shared: &Arc<Shared>) -> (u16, String, Vec<(String, String)>) {
    shared.registry.add("serve.requests", 1);
    let (request, dedup_key) = match parse_compile_request(body, shared.config.debug_hooks) {
        Ok(parsed) => parsed,
        Err(detail) => {
            shared.registry.add("serve.rejected_invalid", 1);
            return (400, error_body(&detail, "bad-request"), Vec::new());
        }
    };

    // Dedup: identical canonical bodies share one in-flight compile. The first
    // arrival (the leader) enqueues; everyone else joins its slot and receives
    // the byte-identical outcome. The role is reported in a response *header*
    // so dedup never perturbs response bodies.
    let (slot, leader) = {
        let mut inflight = shared.lock_inflight();
        match inflight.get(&dedup_key) {
            Some(slot) => (Arc::clone(slot), false),
            None => {
                let slot = Arc::new(Slot::default());
                inflight.insert(dedup_key.clone(), Arc::clone(&slot));
                (slot, true)
            }
        }
    };
    if !leader {
        shared.registry.add("serve.dedup_joined", 1);
        let outcome = slot.wait();
        let headers = vec![("x-openqudit-dedup".to_string(), "joined".to_string())];
        return (outcome.status, outcome.body, headers);
    }

    // The deadline clock starts at admission, so time spent waiting in the
    // queue counts against the request's budget.
    let deadline_ms = match request.deadline_ms {
        Some(ms) => ms,
        None => shared.config.default_deadline_ms,
    };
    let token = if deadline_ms != 0 {
        CancelToken::with_deadline(Duration::from_millis(deadline_ms))
    } else {
        CancelToken::new()
    };

    let admitted = {
        let mut queue = shared.lock_queue();
        if queue.len() >= shared.config.queue_capacity {
            false
        } else {
            let slot = Arc::clone(&slot);
            queue.push_back(Job { request, token, slot, dedup_key: dedup_key.clone() });
            shared.queue_cv.notify_one();
            true
        }
    };
    if !admitted {
        shared.registry.add("serve.rejected_queue_full", 1);
        // Fill the slot *before* removing the inflight entry, so a racing
        // joiner observes the 429 instead of hanging on an orphaned slot.
        let outcome = Outcome {
            status: 429,
            body: error_body("compile queue is full; retry later", "queue-full"),
        };
        slot.fill(outcome.clone());
        shared.lock_inflight().remove(&dedup_key);
        let headers = vec![("x-openqudit-dedup".to_string(), "leader".to_string())];
        return (outcome.status, outcome.body, headers);
    }

    let outcome = slot.wait();
    let headers = vec![("x-openqudit-dedup".to_string(), "leader".to_string())];
    (outcome.status, outcome.body, headers)
}

/// The worker loop: drains the queue until shutdown. The queue is fully drained
/// before exit so every admitted request receives a response.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.lock_queue();
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.stop.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared.queue_cv.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(job) = job else { return };
        let outcome = run_job(&job, shared);
        // Fill before removing from inflight (mirror of the 429 path): a joiner
        // holding the slot must find the outcome, and a request arriving after
        // the removal simply starts a fresh compile.
        job.slot.fill(outcome);
        shared.lock_inflight().remove(&job.dedup_key);
    }
}

/// Runs one compile inside a panic boundary and maps the outcome to a response.
fn run_job(job: &Job, shared: &Arc<Shared>) -> Outcome {
    if job.request.debug_hold_ms != 0 {
        std::thread::sleep(Duration::from_millis(job.request.debug_hold_ms));
    }
    let request = &job.request;
    let task = CompilationTask::new(request.target.clone(), request.synthesis_config());
    let compiled = std::panic::catch_unwind(AssertUnwindSafe(|| {
        if request.debug_panic {
            panic!("debug panic requested");
        }
        shared.compiler.compile_with_cancel(task, &job.token)
    }));
    match compiled {
        Ok(Ok(report)) => {
            shared.registry.add("serve.compiles", 1);
            shared.registry.absorb_counters(&report.trace);
            record_pass_timings(shared, &report);
            Outcome { status: 200, body: success_body(request, &report) }
        }
        Ok(Err(CompileError::Cancelled { after, reason })) => {
            let (counter, status) = match reason {
                CancelReason::DeadlineExceeded => ("serve.deadline_exceeded", 504),
                CancelReason::Cancelled => ("serve.cancelled", 504),
            };
            shared.registry.add(counter, 1);
            let detail = format!("compilation {reason} (checkpoint: {after})");
            Outcome { status, body: error_body(&detail, "deadline-exceeded") }
        }
        Ok(Err(error)) => {
            shared.registry.add("serve.rejected_compile", 1);
            Outcome { status: 422, body: error_body(&error.to_string(), kind_of(&error)) }
        }
        Err(panic) => {
            // The panic boundary: the worker survives, the request gets a 500,
            // and the next job runs on a process that never noticed.
            shared.registry.add("serve.panics", 1);
            let detail = panic_message(&panic);
            Outcome {
                status: 500,
                body: error_body(&format!("compile panicked: {detail}"), "panic"),
            }
        }
    }
}

fn record_pass_timings(shared: &Arc<Shared>, report: &CompilationReport) {
    let mut timings = shared.pass_timings.lock().unwrap_or_else(PoisonError::into_inner);
    for timing in &report.timings {
        let stat = timings.entry(timing.pass.clone()).or_default();
        stat.count += 1;
        stat.total_us += timing.duration.as_micros() as u64;
    }
}

/// A stable kebab-case label for each error family, for clients that branch on
/// failures without parsing prose.
fn kind_of(error: &CompileError) -> &'static str {
    match error {
        CompileError::Synthesis(_) => "invalid-task",
        CompileError::Pass { .. } => "pass-failed",
        CompileError::Cancelled { .. } => "deadline-exceeded",
        CompileError::DegenerateCoupling { .. } => "degenerate-coupling",
        CompileError::Bytecode(_) => "bytecode",
        CompileError::Verify { .. } => "verification-failed",
        CompileError::NoResult => "no-result",
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn error_body(detail: &str, kind: &str) -> String {
    let mut obj = BTreeMap::new();
    obj.insert("error".to_string(), Json::Str(detail.to_string()));
    obj.insert("kind".to_string(), Json::Str(kind.to_string()));
    obj.insert("status".to_string(), Json::Str("error".to_string()));
    Json::Obj(obj).to_canonical_string()
}

/// The 200 body.
fn success_body(request: &CompileRequest, report: &CompilationReport) -> String {
    let result = &report.result;
    let mut obj = BTreeMap::new();
    obj.insert(
        "blocks".to_string(),
        Json::Arr(
            result
                .blocks
                .iter()
                .map(|&(a, b)| Json::Arr(vec![Json::Num(a as f64), Json::Num(b as f64)]))
                .collect(),
        ),
    );
    obj.insert("infidelity".to_string(), Json::Num(result.infidelity));
    let metrics =
        report.metrics.iter().map(|(name, value)| (name.clone(), Json::Num(*value as f64)));
    obj.insert("metrics".to_string(), Json::Obj(metrics.collect()));
    obj.insert(
        "params".to_string(),
        Json::Arr(result.params.iter().map(|&p| Json::Num(p)).collect()),
    );
    obj.insert("status".to_string(), Json::Str("ok".to_string()));
    obj.insert("success".to_string(), Json::Bool(result.success));
    if !request.omit_timings && !qudit_trace::omit_timing() {
        obj.insert(
            "timings".to_string(),
            Json::Arr(
                report
                    .timings
                    .iter()
                    .map(|t| {
                        let mut timing = BTreeMap::new();
                        timing.insert("pass".to_string(), Json::Str(t.pass.clone()));
                        timing.insert("seconds".to_string(), Json::Num(t.duration.as_secs_f64()));
                        Json::Obj(timing)
                    })
                    .collect(),
            ),
        );
    }
    Json::Obj(obj).to_canonical_string()
}

/// The `/metrics` body: aggregated counters, cache occupancy, queue state, and
/// the per-pass timing accumulation.
fn metrics_body(shared: &Arc<Shared>) -> String {
    let mut obj = BTreeMap::new();
    let stats = shared.compiler.cache().stats();
    let mut cache = BTreeMap::new();
    cache.insert("entries".to_string(), Json::Num(stats.entries as f64));
    cache.insert("evictions".to_string(), Json::Num(stats.evictions as f64));
    cache.insert("hits".to_string(), Json::Num(stats.hits as f64));
    cache.insert("misses".to_string(), Json::Num(stats.misses as f64));
    obj.insert("cache".to_string(), Json::Obj(cache));
    obj.insert(
        "counters".to_string(),
        Json::Obj(
            shared
                .registry
                .counters()
                .into_iter()
                .map(|(name, value)| (name, Json::Num(value as f64)))
                .collect(),
        ),
    );
    obj.insert(
        "pass_timings".to_string(),
        Json::Obj(
            shared
                .pass_timings
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(name, stat)| {
                    let mut entry = BTreeMap::new();
                    entry.insert("count".to_string(), Json::Num(stat.count as f64));
                    entry.insert("total_us".to_string(), Json::Num(stat.total_us as f64));
                    (name.clone(), Json::Obj(entry))
                })
                .collect(),
        ),
    );
    let mut queue = BTreeMap::new();
    queue.insert("capacity".to_string(), Json::Num(shared.config.queue_capacity as f64));
    queue.insert("depth".to_string(), Json::Num(shared.lock_queue().len() as f64));
    obj.insert("queue".to_string(), Json::Obj(queue));
    obj.insert("workers".to_string(), Json::Num(shared.config.workers.max(1) as f64));
    Json::Obj(obj).to_canonical_string()
}
