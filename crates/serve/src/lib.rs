//! # qudit-serve
//!
//! Compilation-as-a-service for the OpenQudit reproduction: a long-lived,
//! dependency-free HTTP server that runs a bounded work queue of
//! [`CompilationTask`](qudit_compile::CompilationTask)s over one process-wide
//! [`Compiler`](qudit_compile::Compiler) and shared
//! [`ExpressionCache`](qudit_qvm::ExpressionCache) — so every request amortizes
//! the JIT work of every request before it.
//!
//! Like `qudit-trace`, the crate is std-only by design (the build environment
//! vendors no HTTP or JSON dependencies): [`crate::http`] is a minimal
//! HTTP/1.1 layer over [`std::net::TcpListener`], and [`crate::json`] a small
//! canonical JSON value.
//!
//! ## What the server guarantees
//!
//! * **Isolation** — one bad request cannot kill the process. Degenerate inputs
//!   fail typed (4xx), deadlines abort cooperatively between passes (504), a
//!   full queue sheds load (429), and a panicking compile is caught at the
//!   worker boundary (500) while the worker survives.
//! * **Deduplication** — concurrent requests with the same canonical body join
//!   one in-flight compile and receive byte-identical response bodies; the
//!   `x-openqudit-dedup` header says which role a response played.
//! * **Determinism** — same request, same seed, same bytes out (modulo the
//!   `timings` block, which `omit_timings` drops), counters included, exactly
//!   like the CI determinism diff.
//! * **Budgeted parallelism** — `threads_per_compile = 0` splits the machine
//!   between the worker pool and each compile's frontier parallelism instead of
//!   oversubscribing it.
//!
//! See `docs/serving.md` for the request schema, capacity knobs, and the
//! `/metrics` format.

pub mod http;
pub mod json;
pub mod request;
pub mod server;

pub use json::Json;
pub use request::{parse_compile_request, CompileRequest};
pub use server::{ServeConfig, Server, ServerHandle};
