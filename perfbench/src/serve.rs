//! `serve`: compile requests over HTTP to an in-process `qudit-serve` server with
//! one worker, from a closed loop of two client connections.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use openqudit::prelude::*;
use openqudit::serve::json::{self, format_number, Json};
use openqudit::serve::{parse_compile_request, ServeConfig, Server, ServerHandle};

use crate::stats::{median, mix, ms_since, tail, Rng};
use crate::{oracle, synthesize, Ctx, Op, Run};

/// Client connections; one per core.
pub const CLIENTS: usize = 2;

/// Registry gates sent as `{"gate": name}` bodies, with their radices.
const GATES: [(&str, &[usize]); 5] = [
    ("CNOT", &[2, 2]),
    ("CZ", &[2, 2]),
    ("SWAP", &[2, 2]),
    ("CSUM", &[3, 3]),
    ("CSHIFT23", &[2, 3]),
];

/// Largest Hilbert-space dimension a generated body may have.
const MAX_DIM: usize = 64;

/// Request kinds: the narrow `synthesize` classes plus registry gates.
pub fn kinds() -> Vec<String> {
    let mut kinds: Vec<String> =
        synthesize::KINDS.iter().filter(|k| !k.wide).map(|k| k.name.to_string()).collect();
    kinds.push("gate".to_string());
    kinds
}

pub struct Body {
    pub kind: usize,
    pub text: String,
}

/// Builds the `k`-th seeded body. Every body is checked against the server's own
/// parser here, so the load never carries a request the server would refuse.
pub fn body(seed: u64, k: u64) -> Body {
    let mut rng = Rng::new(mix(seed, 300, k));
    let narrow = kinds().len() - 1;
    let kind = rng.below(narrow + 1);
    let engine_seed = rng.next_u64() >> 11;
    let (target, radices): (String, &[usize]) = if kind < narrow {
        let (matrix, _) = synthesize::target(seed, kind, (1 << 40) + k);
        (format!("{{\"matrix\": {}}}", matrix_json(&matrix)), synthesize::KINDS[kind].radices)
    } else {
        let (name, radices) = GATES[rng.below(GATES.len())];
        (format!("{{\"gate\": \"{name}\"}}"), radices)
    };
    let dim = radices.iter().try_fold(1usize, |d, &r| d.checked_mul(r));
    assert!(dim.is_some_and(|d| d <= MAX_DIM), "radices {radices:?} exceed the dimension cap");
    let radices: Vec<String> = radices.iter().map(usize::to_string).collect();
    let text = format!(
        "{{\"target\": {target}, \"radices\": [{}], \"seed\": {engine_seed}}}",
        radices.join(", ")
    );
    if let Err(e) = parse_compile_request(text.as_bytes(), false) {
        panic!("generated body {k} is not a valid request ({e}): {text}");
    }
    Body { kind, text }
}

fn matrix_json(m: &Matrix<f64>) -> String {
    let rows: Vec<String> = (0..m.rows())
        .map(|r| {
            let cells: Vec<String> = (0..m.cols())
                .map(|c| {
                    let v = m.get(r, c);
                    format!("[{}, {}]", format_number(v.re), format_number(v.im))
                })
                .collect();
            format!("[{}]", cells.join(", "))
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

/// One request/response as the client saw it.
pub struct Record {
    pub body: usize,
    pub kind: usize,
    pub ms: f64,
    pub traced: bool,
    /// HTTP status, or `None` when the exchange itself failed.
    pub status: Option<u16>,
    pub joined: bool,
    pub response: String,
}

fn post(addr: SocketAddr, body: &str) -> Result<(u16, bool, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
    let request = format!(
        "POST /compile HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).map_err(|e| format!("send: {e}"))?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(|e| format!("receive: {e}"))?;
    let (head, response) = raw.split_once("\r\n\r\n").ok_or("response has no header end")?;
    let status = head
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or("response has no status line")?;
    let joined = head.lines().any(|l| l.eq_ignore_ascii_case("x-openqudit-dedup: joined"));
    Ok((status, joined, response.to_string()))
}

/// Starts a one-worker server with the default queue and warms its cache with one
/// body of every kind.
pub fn start_server(seed: u64) -> ServerHandle {
    let config = ServeConfig { workers: 1, ..ServeConfig::default() };
    let server = Server::start(config).expect("bind a localhost port");
    let mut warmed = vec![false; kinds().len()];
    for k in 0.. {
        let body = body(seed ^ 0x5eed, k);
        if warmed[body.kind] {
            continue;
        }
        match post(server.addr(), &body.text) {
            Ok((200, _, _)) => warmed[body.kind] = true,
            other => panic!("warm-up request failed: {other:?}"),
        }
        if warmed.iter().all(|&w| w) {
            break;
        }
    }
    server
}

/// Drives the closed loop: each step, both clients send their body (the same one
/// on a dedup step) and wait for the reply; the next step starts when both have
/// one. Stops after `steps.len()` steps or at `deadline`.
pub fn drive(
    addr: SocketAddr,
    bodies: &[Body],
    steps: &[[usize; CLIENTS]],
    deadline: Instant,
    ctx: &Ctx,
) -> Vec<Record> {
    let barrier = Barrier::new(CLIENTS);
    let stop = AtomicBool::new(false);
    let per_client: Vec<Vec<Record>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (barrier, stop) = (&barrier, &stop);
                scope.spawn(move || {
                    let mut records = Vec::new();
                    for (i, step) in steps.iter().enumerate() {
                        let body = &bodies[step[client]];
                        let traced = ctx.traced_round(i);
                        let span = traced
                            .then(|| ctx.span(&format!("serve.request.{}", kinds()[body.kind])));
                        let t0 = Instant::now();
                        let outcome = post(addr, &body.text);
                        let ms = ms_since(t0);
                        drop(span);
                        let (status, joined, response) = match outcome {
                            Ok((status, joined, response)) => (Some(status), joined, response),
                            Err(e) => (None, false, e),
                        };
                        records.push(Record {
                            body: step[client],
                            kind: body.kind,
                            ms,
                            traced,
                            status,
                            joined,
                            response,
                        });
                        if client == 0 && (ctx.done(i, deadline) || i + 1 == steps.len()) {
                            stop.store(true, Ordering::SeqCst);
                        }
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    records
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    per_client.into_iter().flatten().collect()
}

/// Seeded steps: a quarter of them send one body from both clients at once.
pub fn steps(seed: u64, count: usize, first_body: usize) -> Vec<[usize; CLIENTS]> {
    let mut rng = Rng::new(mix(seed, 301, 0));
    let mut next = first_body;
    (0..count)
        .map(|_| {
            let dup = rng.unit() < 0.25;
            let a = next;
            let b = if dup { a } else { a + 1 };
            next = b + 1;
            [a, b]
        })
        .collect()
}

/// Compiles every distinct body that got a 200 in process, at the same seed, and
/// returns per body `Ok(success)` or why the served answer is wrong.
pub fn oracle(bodies: &[Body], records: &[Record]) -> BTreeMap<usize, Result<bool, String>> {
    let compiler = Compiler::with_cache(ExpressionCache::new()).partitioned_passes();
    let mut verdicts = BTreeMap::new();
    for record in records.iter().filter(|r| r.status == Some(200)) {
        if verdicts.contains_key(&record.body) {
            continue;
        }
        let verdict = judge(&compiler, &bodies[record.body].text, &record.response);
        verdicts.insert(record.body, verdict);
    }
    verdicts
}

fn judge(compiler: &Compiler, body: &str, response: &str) -> Result<bool, String> {
    let (request, _) = parse_compile_request(body.as_bytes(), false)?;
    let task = CompilationTask::new(request.target.clone(), request.synthesis_config());
    let report = compiler.compile(task).map_err(|e| format!("in-process compile: {e}"))?;
    let served = json::parse(response.as_bytes()).map_err(|e| format!("response: {e}"))?;
    let result = &report.result;
    let blocks: Vec<Json> = result
        .blocks
        .iter()
        .map(|&(a, b)| Json::Arr(vec![Json::Num(a as f64), Json::Num(b as f64)]))
        .collect();
    let params: Vec<Json> = result.params.iter().map(|&p| Json::Num(p)).collect();
    let expect = [
        ("blocks", Json::Arr(blocks)),
        ("params", Json::Arr(params)),
        ("infidelity", Json::Num(result.infidelity)),
    ];
    for (field, value) in expect {
        if served.get(field) != Some(&value) {
            return Err(format!("served {field} differs from the in-process compile"));
        }
    }
    let recomputed =
        oracle::check_result(&result.circuit, &result.params, &request.target, result.infidelity)?;
    Ok(recomputed < oracle::SUCCESS)
}

/// Sum of the pass timings in a 200 body, in milliseconds.
pub fn compile_ms(response: &str) -> Option<f64> {
    let doc = json::parse(response.as_bytes()).ok()?;
    let timings = doc.get("timings")?.as_arr()?;
    Some(timings.iter().filter_map(|t| t.get("seconds")?.as_f64()).sum::<f64>() * 1e3)
}

struct State {
    server: Option<ServerHandle>,
    bodies: Vec<Body>,
    steps: Vec<[usize; CLIENTS]>,
}

impl Drop for State {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// Steps prepared per measured second; more than the closed loop can complete.
const STEPS_PER_SECOND: f64 = 60.0;

fn setup(ctx: &Ctx) -> State {
    let count = (ctx.seconds * STEPS_PER_SECOND).ceil() as usize;
    let steps = steps(ctx.seed, count, 0);
    let needed = steps.iter().map(|s| s[1] + 1).max().unwrap_or(0);
    let bodies = (0..needed as u64).map(|k| body(ctx.seed, k)).collect();
    State { server: Some(start_server(ctx.seed)), bodies, steps }
}

pub fn run(ctx: &Ctx) -> Run {
    let (state, setup_s) = ctx.repeat_setup(|| setup(ctx));
    let addr = state.server.as_ref().expect("server running").addr();
    let started = Instant::now();
    let records = drive(addr, &state.bodies, &state.steps, ctx.deadline(started), ctx);
    let elapsed_s = started.elapsed().as_secs_f64();
    if records.len() >= state.steps.len() * CLIENTS {
        eprintln!("perfbench: serve ran out of prepared steps before the deadline");
    }

    let verdicts = oracle(&state.bodies, &records);
    let ops = records
        .iter()
        .map(|r| {
            let verdict = verdicts.get(&r.body);
            let error = match (r.status, verdict) {
                (None, _) => Some(r.response.clone()),
                (Some(200), Some(Err(e))) => Some(e.clone()),
                (Some(200), _) => None,
                (Some(status), _) => Some(format!("status {status}: {}", r.response)),
            };
            Op {
                kind: r.kind,
                ms: r.ms,
                traced: r.traced,
                success: error.is_none() && matches!(verdict, Some(Ok(true))),
                error: error.map(|e| format!("body {}: {e}", r.body)),
            }
        })
        .collect();
    let mut run = Run::new(kinds(), ops, setup_s, elapsed_s);
    let latencies: Vec<f64> = records.iter().filter(|r| !r.traced).map(|r| r.ms).collect();
    let (pct, tail_ms) = tail(&latencies);
    run.named.push(("serve_latency_ms_p50".to_string(), median(&latencies), "ms"));
    run.named.push((
        format!("serve_latency_ms_tail (p{pct}, n={})", latencies.len()),
        tail_ms,
        "ms",
    ));
    run.named.push(("serve_rps".to_string(), run.ops_per_s(), "1/s"));
    run
}
