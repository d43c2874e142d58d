//! Conformance suite for the `qudit-serve` compilation server: request
//! deduplication, cooperative deadlines, queue backpressure, panic isolation,
//! and cross-tier response determinism — each exercised end to end over real
//! sockets against an in-process server.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use openqudit::serve::{ServeConfig, Server, ServerHandle};

/// One parsed HTTP response.
struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }
}

/// A minimal blocking HTTP client: one request, one response, connection close.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("receive");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let mut lines = head.lines();
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line.split_whitespace().nth(1).expect("status code").parse().unwrap();
    let headers = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(n, v)| (n.trim().to_string(), v.trim().to_string()))
        .collect();
    Response { status, headers, body: body.to_string() }
}

fn post_compile(addr: SocketAddr, body: &str) -> Response {
    http(addr, "POST", "/compile", body)
}

/// Extracts an integer from a flat JSON object body, e.g. `counter(&m, "cache", "misses")`.
fn metrics_value(metrics_body: &str, section: &str, key: &str) -> u64 {
    let section_start = metrics_body
        .find(&format!("\"{section}\":{{"))
        .unwrap_or_else(|| panic!("no section {section:?} in {metrics_body}"));
    let rest = &metrics_body[section_start..];
    let end = rest.find('}').expect("section close");
    let section_text = &rest[..end];
    let key_start = section_text
        .find(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("no key {key:?} in section {section:?} of {metrics_body}"));
    let value_text = &section_text[key_start + key.len() + 3..];
    let end = value_text.find([',', '}']).unwrap_or(value_text.len());
    value_text[..end].trim().parse().expect("integer metric")
}

fn counter(addr: SocketAddr, name: &str) -> u64 {
    let metrics = http(addr, "GET", "/metrics", "");
    assert_eq!(metrics.status, 200);
    if metrics.body.contains(&format!("\"{name}\":")) {
        metrics_value(&metrics.body, "counters", name)
    } else {
        0
    }
}

fn start(config: ServeConfig) -> ServerHandle {
    Server::start(config).expect("server start")
}

const CNOT_SEED7: &str =
    r#"{"target": {"gate": "CNOT"}, "radices": [2, 2], "seed": 7, "omit_timings": true}"#;

#[test]
fn concurrent_identical_requests_join_one_compile() {
    // Reference: one compile's worth of cache misses, on its own server.
    let reference = start(ServeConfig { debug_hooks: true, ..ServeConfig::default() });
    assert_eq!(post_compile(reference.addr(), CNOT_SEED7).status, 200);
    let single_compile_misses =
        metrics_value(&http(reference.addr(), "GET", "/metrics", "").body, "cache", "misses");
    assert!(single_compile_misses > 0);
    reference.shutdown();

    // Now N concurrent identical requests against a fresh server. One worker +
    // a debug hold keeps the leader's compile in flight long enough that every
    // other thread observably joins it.
    let server = start(ServeConfig { workers: 1, debug_hooks: true, ..ServeConfig::default() });
    let addr = server.addr();
    let body = r#"{"target": {"gate": "CNOT"}, "radices": [2, 2], "seed": 7, "omit_timings": true, "debug": {"hold_ms": 300}}"#;
    let n = 4;
    let responses: Vec<Response> = std::thread::scope(|scope| {
        let handles: Vec<_> =
            (0..n).map(|_| scope.spawn(move || post_compile(addr, body))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for response in &responses {
        assert_eq!(response.status, 200, "{}", response.body);
        // Dedup is reported out of band; bodies stay byte-identical.
        assert_eq!(response.body, responses[0].body);
    }
    let joined =
        responses.iter().filter(|r| r.header("x-openqudit-dedup") == Some("joined")).count();
    assert_eq!(joined, n - 1, "exactly one leader, everyone else joins");
    assert_eq!(counter(addr, "serve.compiles"), 1);
    assert_eq!(counter(addr, "serve.dedup_joined"), (n - 1) as u64);
    // The batch cost exactly one compile's worth of cache misses.
    let misses = metrics_value(&http(addr, "GET", "/metrics", "").body, "cache", "misses");
    assert_eq!(misses, single_compile_misses);
    server.shutdown();
}

#[test]
fn deadline_exceeded_aborts_while_others_complete() {
    let server = start(ServeConfig { workers: 2, debug_hooks: true, ..ServeConfig::default() });
    let addr = server.addr();
    // The doomed request: a 1 ms budget spent inside a 200 ms debug hold, so the
    // cooperative checkpoint before the first pass observes the expired deadline.
    let doomed = r#"{"target": {"gate": "CNOT"}, "radices": [2, 2], "seed": 1, "deadline_ms": 1, "debug": {"hold_ms": 200}}"#;
    // A healthy request running concurrently on the other worker.
    let healthy =
        r#"{"target": {"gate": "CNOT"}, "radices": [2, 2], "seed": 2, "omit_timings": true}"#;
    let (doomed_response, healthy_response) = std::thread::scope(|scope| {
        let d = scope.spawn(move || post_compile(addr, doomed));
        let h = scope.spawn(move || post_compile(addr, healthy));
        (d.join().unwrap(), h.join().unwrap())
    });
    assert_eq!(doomed_response.status, 504, "{}", doomed_response.body);
    assert!(doomed_response.body.contains("deadline exceeded"), "{}", doomed_response.body);
    assert!(doomed_response.body.contains("checkpoint"), "{}", doomed_response.body);
    assert_eq!(healthy_response.status, 200, "{}", healthy_response.body);
    assert_eq!(counter(addr, "serve.deadline_exceeded"), 1);
    server.shutdown();
}

#[test]
fn full_queue_sheds_load_with_429() {
    // One worker, one queue slot. A holds the worker, B waits in the queue,
    // C finds the queue full and is shed.
    let server = start(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        debug_hooks: true,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let held =
        r#"{"target": {"gate": "CNOT"}, "radices": [2, 2], "seed": 1, "debug": {"hold_ms": 400}}"#;
    let queued =
        r#"{"target": {"gate": "CNOT"}, "radices": [2, 2], "seed": 2, "debug": {"hold_ms": 400}}"#;
    let shed = r#"{"target": {"gate": "CNOT"}, "radices": [2, 2], "seed": 3}"#;
    std::thread::scope(|scope| {
        let a = scope.spawn(move || post_compile(addr, held));
        std::thread::sleep(std::time::Duration::from_millis(100));
        let b = scope.spawn(move || post_compile(addr, queued));
        std::thread::sleep(std::time::Duration::from_millis(100));
        // A is in the worker, B fills the single queue slot: C must bounce.
        let c = post_compile(addr, shed);
        assert_eq!(c.status, 429, "{}", c.body);
        assert!(c.body.contains("queue"), "{}", c.body);
        assert_eq!(a.join().unwrap().status, 200);
        assert_eq!(b.join().unwrap().status, 200);
    });
    assert_eq!(counter(addr, "serve.rejected_queue_full"), 1);
    server.shutdown();
}

#[test]
fn panicking_request_gets_500_and_the_server_keeps_serving() {
    let server = start(ServeConfig { workers: 1, debug_hooks: true, ..ServeConfig::default() });
    let addr = server.addr();
    let bomb = r#"{"target": {"gate": "CNOT"}, "radices": [2, 2], "debug": {"panic": true}}"#;
    let response = post_compile(addr, bomb);
    assert_eq!(response.status, 500, "{}", response.body);
    assert!(response.body.contains("panicked"), "{}", response.body);
    assert_eq!(counter(addr, "serve.panics"), 1);
    // The single worker caught the panic and survives: the next request — on the
    // same worker thread — compiles normally.
    let after = post_compile(addr, CNOT_SEED7);
    assert_eq!(after.status, 200, "{}", after.body);
    assert_eq!(counter(addr, "serve.compiles"), 1);
    server.shutdown();
}

#[test]
fn degenerate_requests_fail_typed_not_fatally() {
    let server = start(ServeConfig::default());
    let addr = server.addr();
    // A disconnected coupling graph travels to the pipeline and comes back as a
    // typed 422 — the panic path this PR removed.
    let disconnected = r#"{"target": {"matrix": [
        [[1,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0]],
        [[0,0],[1,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0]],
        [[0,0],[0,0],[1,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0]],
        [[0,0],[0,0],[0,0],[1,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0]],
        [[0,0],[0,0],[0,0],[0,0],[1,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0]],
        [[0,0],[0,0],[0,0],[0,0],[0,0],[1,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0]],
        [[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[1,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0]],
        [[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[1,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0]],
        [[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[1,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0]],
        [[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[1,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0]],
        [[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[1,0],[0,0],[0,0],[0,0],[0,0],[0,0]],
        [[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[1,0],[0,0],[0,0],[0,0],[0,0]],
        [[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[1,0],[0,0],[0,0],[0,0]],
        [[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[1,0],[0,0],[0,0]],
        [[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[1,0],[0,0]],
        [[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[1,0]]
    ]}, "radices": [2, 2, 2, 2], "coupling": [[0, 1], [2, 3]]}"#;
    let response = post_compile(addr, disconnected);
    assert_eq!(response.status, 422, "{}", response.body);
    assert!(response.body.contains("coupling"), "{}", response.body);
    // Malformed JSON and unknown fields are 400s.
    assert_eq!(post_compile(addr, "{not json").status, 400);
    assert_eq!(
        post_compile(addr, r#"{"target": {"gate": "CNOT"}, "radices": [2, 2], "bogus": 1}"#).status,
        400
    );
    // The server is still healthy.
    assert_eq!(post_compile(addr, CNOT_SEED7).status, 200);
    server.shutdown();
}

#[test]
fn overflowing_radix_product_is_a_400_and_the_server_keeps_serving() {
    let server = start(ServeConfig::default());
    let addr = server.addr();
    // 2^64 wraps to 0 in a plain product: the empty matrix used to pass validation and
    // the compile then aborted the whole process on a 275 GB allocation.
    let radices = vec!["2"; 64].join(", ");
    let body = format!(r#"{{"radices": [{radices}], "target": {{"matrix": []}}}}"#);
    let response = post_compile(addr, &body);
    assert_eq!(response.status, 400, "{}", response.body);
    assert!(response.body.contains("overflows"), "{}", response.body);
    assert_eq!(post_compile(addr, CNOT_SEED7).status, 200);
    server.shutdown();
}

/// Removes the tier-variant parts of a 200 body — the `backend` name and the
/// `kernel_metrics` object — mirroring the CI determinism diff's scrub.
fn scrub_tier(body: &str) -> String {
    let backend_start = body.find("\"backend\":").expect("backend key");
    let backend_end = backend_start + body[backend_start..].find(',').expect("backend end");
    let kernel_start = body.find("\"kernel_metrics\":{").expect("kernel_metrics key");
    let kernel_end = kernel_start + body[kernel_start..].find('}').expect("kernel end") + 1;
    let mut out = String::new();
    out.push_str(&body[..backend_start]);
    out.push_str(&body[backend_end + 1..kernel_start]);
    out.push_str(&body[kernel_end + 1..]);
    out
}

#[test]
fn same_seed_responses_are_byte_identical_across_tnvm_tiers() {
    // One fresh server per request: the body's per-compile counters include the
    // cache hit/miss split, so byte comparison needs identical cache state —
    // cold, here — exactly like the CI determinism diff's fresh processes.
    let request_for = |backend: &str| {
        format!(
            r#"{{"target": {{"gate": "CNOT"}}, "radices": [2, 2], "seed": 11, "omit_timings": true, "backend": "{backend}"}}"#
        )
    };
    let compile_fresh = |backend: &str| {
        let server = start(ServeConfig::default());
        let response = post_compile(server.addr(), &request_for(backend));
        server.shutdown();
        assert_eq!(response.status, 200, "{}", response.body);
        response
    };
    let scalar = compile_fresh("scalar");
    let blocked = compile_fresh("blocked");
    assert!(scalar.body.contains("\"backend\":\"scalar\""));
    assert!(blocked.body.contains("\"backend\":\"blocked\""));
    // The engine contract: tiers are bit-identical, so after scrubbing the tier
    // name and the tier-variant kernel counters the bodies match byte for byte.
    assert_eq!(scrub_tier(&scalar.body), scrub_tier(&blocked.body));
    // And a same-tier repeat at the same seed is byte-identical even unscrubbed.
    let again = compile_fresh("scalar");
    assert_eq!(scalar.body, again.body);
}

#[test]
fn metrics_expose_the_analyze_counter_family() {
    let server = start(ServeConfig::default());
    let addr = server.addr();
    // The optimizer's rejection counter is pre-registered: present at zero
    // before any compile, so "never rejected" is distinguishable from "not wired".
    let metrics = http(addr, "GET", "/metrics", "").body;
    assert!(metrics.contains("\"analyze.optimize.rejected\""), "{metrics}");
    assert_eq!(counter(addr, "analyze.optimize.rejected"), 0);
    // A request opting into per-request optimization surfaces the whole
    // analyze.optimize.* family in the response metrics and process-wide.
    let body = r#"{"target": {"gate": "CNOT"}, "radices": [2, 2], "seed": 7, "omit_timings": true, "optimize": "full"}"#;
    let response = post_compile(addr, body);
    assert_eq!(response.status, 200, "{}", response.body);
    assert!(response.body.contains("\"analyze.optimize.programs\""), "{}", response.body);
    let metrics = http(addr, "GET", "/metrics", "").body;
    assert_eq!(counter(addr, "analyze.optimize.programs"), 1, "{metrics}");
    assert_eq!(counter(addr, "analyze.optimize.rejected"), 0, "{metrics}");
    for key in ["analyze.optimize.dce_removed", "analyze.optimize.cse_removed"] {
        assert!(metrics.contains(&format!("\"{key}\"")), "{metrics}");
    }
    // An invalid per-request level is a 400 naming the accepted set.
    let bad = post_compile(
        addr,
        r#"{"target": {"gate": "CNOT"}, "radices": [2, 2], "optimize": "aggressive"}"#,
    );
    assert_eq!(bad.status, 400, "{}", bad.body);
    assert!(bad.body.contains("off, instructions, full"), "{}", bad.body);
    server.shutdown();
}

#[test]
fn metrics_pass_timings_mirror_the_compilation_report() {
    let server = start(ServeConfig::default());
    let addr = server.addr();
    // Ask for timings in the response so we can cross-check /metrics against them.
    let with_timings = r#"{"target": {"gate": "CNOT"}, "radices": [2, 2], "seed": 5}"#;
    let response = post_compile(addr, with_timings);
    assert_eq!(response.status, 200, "{}", response.body);
    let metrics = http(addr, "GET", "/metrics", "").body;
    // Every pass the report timed appears in the /metrics accumulation with one
    // recorded execution (this server compiled exactly once).
    for pass in ["partition", "synthesis", "refine", "fold"] {
        if response.body.contains(&format!("\"pass\":\"{pass}\"")) {
            let count = metrics_value(&metrics, pass, "count");
            assert_eq!(count, 1, "pass {pass} in {metrics}");
        }
    }
    // The absorbed compile counters surface process-wide.
    assert!(metrics.contains("\"cache.misses\""), "{metrics}");
    assert!(metrics.contains("\"search.nodes_expanded\""), "{metrics}");
    assert_eq!(metrics_value(&metrics, "queue", "capacity"), 32);
    server.shutdown();
}
