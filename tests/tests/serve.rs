//! Conformance suite for the `qudit-serve` compilation server: request
//! deduplication, cooperative deadlines, queue backpressure, panic isolation,
//! and response determinism — each exercised end to end over real sockets
//! against an in-process server.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use openqudit::analyze::{VerifyLevel, VERIFY_ENV_VAR};
use openqudit::optimize::LmStop;
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

/// Sends raw request bytes from a writer thread (the server may reject and close
/// before reading them all, so write errors are expected) and returns the status of
/// whatever response arrived.
fn raw_request_status(addr: SocketAddr, request: Vec<u8>) -> Option<u16> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let sender = std::thread::spawn(move || {
        let _ = writer.write_all(&request);
        let _ = writer.shutdown(std::net::Shutdown::Write);
    });
    let mut raw = Vec::new();
    let _ = stream.read_to_end(&mut raw);
    sender.join().expect("writer thread");
    let text = String::from_utf8_lossy(&raw);
    text.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn oversized_header_line_is_a_400_and_the_server_keeps_serving() {
    let server = start(ServeConfig::default());
    let addr = server.addr();
    // A health check is otherwise always a 200, so only the cap can reject it.
    let mut request = b"GET /healthz HTTP/1.1\r\nx-filler: ".to_vec();
    request.resize(request.len() + (1 << 20), b'a');
    request.extend_from_slice(b"\r\n\r\n");
    assert_eq!(raw_request_status(addr, request), Some(400));
    assert_eq!(post_compile(addr, CNOT_SEED7).status, 200);
    server.shutdown();
}

#[test]
fn too_many_headers_is_a_400_and_the_server_keeps_serving() {
    let server = start(ServeConfig::default());
    let addr = server.addr();
    let mut request = b"GET /healthz HTTP/1.1\r\n".to_vec();
    for i in 0..10_000 {
        request.extend_from_slice(format!("x-header-{i}: v\r\n").as_bytes());
    }
    request.extend_from_slice(b"\r\n");
    assert_eq!(raw_request_status(addr, request), Some(400));
    assert_eq!(post_compile(addr, CNOT_SEED7).status, 200);
    server.shutdown();
}

#[test]
fn same_seed_responses_are_byte_identical_across_tnvm_tiers() {
    // One fresh server per request: the body's per-compile counters include the
    // cache hit/miss split, so byte comparison needs identical cache state —
    // cold, here — exactly like the CI determinism diff's fresh processes.
    let request =
        r#"{"target": {"gate": "CNOT"}, "radices": [2, 2], "seed": 11, "omit_timings": true}"#;
    let compile_fresh = || {
        let server = start(ServeConfig::default());
        let response = post_compile(server.addr(), request);
        server.shutdown();
        assert_eq!(response.status, 200, "{}", response.body);
        response
    };
    let first = compile_fresh();
    let again = compile_fresh();
    assert_eq!(first.body, again.body);
    // The TNVM has one execution path, so a tier override is an unknown field.
    let server = start(ServeConfig::default());
    let tiered = post_compile(
        server.addr(),
        r#"{"target": {"gate": "CNOT"}, "radices": [2, 2], "backend": "scalar"}"#,
    );
    server.shutdown();
    assert_eq!(tiered.status, 400, "{}", tiered.body);
    assert!(tiered.body.contains("unknown field"), "{}", tiered.body);
}

#[test]
fn metrics_expose_the_analyze_counter_family() {
    // The server's compiler reads its verification level from the environment.
    // Without full verification here, rerun just this test in a child process
    // that has it.
    if VerifyLevel::from_env() != VerifyLevel::Full {
        let output = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args(["metrics_expose_the_analyze_counter_family", "--exact", "--test-threads=1"])
            .env(VERIFY_ENV_VAR, "full")
            .output()
            .expect("rerun under full verification");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "{stdout}{stderr}");
        assert!(stdout.contains("1 passed"), "{stdout}");
        return;
    }
    let server = start(ServeConfig::default());
    let addr = server.addr();
    let response = post_compile(addr, CNOT_SEED7);
    assert_eq!(response.status, 200, "{}", response.body);
    // Full verification checks the circuit and its program after every pass;
    // each check counts under analyze.*, in the response metrics and
    // process-wide.
    let metrics = http(addr, "GET", "/metrics", "").body;
    let family =
        ["analyze.circuits_verified", "analyze.programs_verified", "analyze.instructions_checked"];
    for key in family {
        assert!(response.body.contains(&format!("\"{key}\"")), "{}", response.body);
        assert!(counter(addr, key) >= 1, "{key}: {metrics}");
    }
    let programs = counter(addr, "analyze.programs_verified");
    assert_eq!(counter(addr, "analyze.circuits_verified"), programs, "{metrics}");
    server.shutdown();
}

#[test]
fn metrics_expose_the_lm_why_counters() {
    let server = start(ServeConfig::default());
    let addr = server.addr();
    let response = post_compile(addr, CNOT_SEED7);
    assert_eq!(response.status, 200, "{}", response.body);
    // Why the optimizer stopped, and how many trial steps it threw away, ride the
    // deterministic counters into the response and the process-wide /metrics.
    let metrics = http(addr, "GET", "/metrics", "").body;
    for key in ["lm.trials", "lm.trials.rejected"] {
        assert!(response.body.contains(&format!("\"{key}\"")), "{}", response.body);
        assert!(metrics.contains(&format!("\"{key}\"")), "{metrics}");
    }
    let stops: u64 =
        LmStop::ALL.iter().map(|stop| counter(addr, &format!("lm.stop.{}", stop.name()))).sum();
    assert_eq!(stops, counter(addr, "instantiate.starts"), "{metrics}");
    assert!(counter(addr, "lm.trials.rejected") <= counter(addr, "lm.trials"));
    // The bytecode optimizer and its per-request level are gone.
    let bad = post_compile(
        addr,
        r#"{"target": {"gate": "CNOT"}, "radices": [2, 2], "optimize": "full"}"#,
    );
    assert_eq!(bad.status, 400, "{}", bad.body);
    assert!(bad.body.contains("unknown field"), "{}", bad.body);
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

/// Fuzzing of the request front end: hostile bytes never panic the HTTP request
/// reader, the JSON parser or the request validator; the reader returns every
/// rejection as an `Err` (which the server answers with a 400) and parses a valid
/// request back to its method, path and body; and every accepted body's dedup key
/// parses back to the same key.
mod fuzz {
    use openqudit::serve::http::{read_request_from, MAX_HEADERS, MAX_LINE_BYTES};
    use openqudit::serve::{json, parse_compile_request};
    use proptest::prelude::*;

    /// Valid bodies the mutations start from.
    const BODIES: [&str; 4] = [
        r#"{"target": {"gate": "CNOT"}, "radices": [2, 2], "seed": 7, "omit_timings": true}"#,
        r#"{"target": {"matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0.5e-3]]]}, "radices": [2]}"#,
        r#"{"target": {"gate": "CSUM"}, "radices": [3, 3], "coupling": [[0, 1]], "deadline_ms": 900}"#,
        r#"{"radices": [2, 3], "target": {"gate": "CNOT"}, "seed": 1e3, "debug": {"hold_ms": 1}}"#,
    ];

    /// Bytes the mutations splice in: JSON structure, number syntax and literals,
    /// plus a UTF-8 lead byte and a control character.
    const ALPHABET: &[u8] = b"{}[]\",:-+.eE0123456789 \\ntrufalsgmixd\xc3\x01";

    /// Number spellings a digit can turn into: exponents, signs, an underflow to
    /// zero and two overflows to infinity.
    const NUMBERS: [&str; 9] =
        ["0", "-0", "17", "1e3", "2.5e-3", "1E+2", "1e-400", "1e999", "-2e999"];

    /// A splitmix64 stream (the vendored proptest has no collection strategies).
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn byte(&mut self) -> u8 {
            if self.below(4) == 0 {
                self.next() as u8
            } else {
                ALPHABET[self.below(ALPHABET.len())]
            }
        }
    }

    /// Runs both parsers on `body` (a panic fails the test) and checks that an
    /// accepted body's dedup key is itself accepted with the same key. Debug hooks
    /// are on, so bodies with a `debug` object are accepted too.
    fn check(body: &[u8]) -> Result<(), String> {
        let _ = json::parse(body);
        if let Ok((_, key)) = parse_compile_request(body, true) {
            match parse_compile_request(key.as_bytes(), true) {
                Ok((_, again)) if again == key => {}
                Ok((_, again)) => return Err(format!("key {key} re-parses to {again}")),
                Err(e) => return Err(format!("key {key} is rejected: {e}")),
            }
        }
        Ok(())
    }

    /// Bytes the request mutations splice in: request-line and header structure,
    /// digits and signs, a NUL, a UTF-8 lead byte and a byte that is never UTF-8.
    const HTTP_ALPHABET: &[u8] = b" \r\n\t:/?=HTTP1.0GETPOS-+abxyz0123456789\x00\xc3\xff";

    /// `Content-Length` values a request mutation can swap in: signs, an overflow of
    /// `usize`, the body cap and one past it, blanks and non-decimal spellings.
    const LENGTHS: [&str; 10] =
        ["0", "-1", "+3", "18446744073709551616", "67108864", "67108865", "", " 7 ", "1e3", "0x10"];

    /// A valid request with `headers` as its header lines and a matching
    /// `content-length` after them.
    fn request(method: &str, path: &str, headers: &[String], body: &[u8]) -> Vec<u8> {
        let mut bytes = format!("{method} {path} HTTP/1.1\r\n").into_bytes();
        for header in headers {
            bytes.extend_from_slice(format!("{header}\r\n").as_bytes());
        }
        bytes.extend_from_slice(format!("content-length: {}\r\n\r\n", body.len()).as_bytes());
        bytes.extend_from_slice(body);
        bytes
    }

    /// Runs the HTTP reader on `bytes` (a panic fails the test); a rejection must
    /// carry a message.
    fn check_request(bytes: &[u8]) -> Result<(), String> {
        match read_request_from(bytes) {
            Err(detail) if detail.is_empty() => Err("a rejection without a message".to_string()),
            _ => Ok(()),
        }
    }

    #[test]
    fn the_header_cap_admits_exactly_max_headers() {
        // `request` adds the content-length header after the others.
        let headers = |n: usize| (0..n).map(|i| format!("x-header-{i}: v")).collect::<Vec<_>>();
        let at_cap = request("GET", "/healthz", &headers(MAX_HEADERS - 1), b"");
        assert_eq!(read_request_from(&at_cap[..]).map(|r| r.path), Ok("/healthz".to_string()));
        let over = request("GET", "/healthz", &headers(MAX_HEADERS), b"");
        assert!(read_request_from(&over[..]).is_err());
        // A line of exactly the cap, terminator included, is accepted; one byte more
        // is not.
        let line = |len: usize| format!("x-long: {}", "a".repeat(len - "x-long: \r\n".len()));
        let fits = request("GET", "/healthz", &[line(MAX_LINE_BYTES)], b"");
        assert!(read_request_from(&fits[..]).is_ok());
        let long = request("GET", "/healthz", &[line(MAX_LINE_BYTES + 1)], b"");
        assert!(read_request_from(&long[..]).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn arbitrary_bytes_never_panic_the_request_reader(
            len in 0usize..400,
            seed in 0u64..u64::MAX,
        ) {
            let mut stream = Stream(seed);
            let bytes: Vec<u8> = (0..len)
                .map(|_| match stream.below(2) {
                    0 => HTTP_ALPHABET[stream.below(HTTP_ALPHABET.len())],
                    _ => stream.next() as u8,
                })
                .collect();
            let verdict = check_request(&bytes);
            prop_assert!(verdict.is_ok(), "{:?}: {:?}", String::from_utf8_lossy(&bytes), verdict);
        }

        #[test]
        fn mutated_valid_requests_never_panic_the_reader(
            base in 0usize..3,
            edits in 1usize..4,
            seed in 0u64..u64::MAX,
        ) {
            let mut stream = Stream(seed);
            let mut bytes = match base {
                0 => request("POST", "/compile", &["host: localhost".to_string()], BODIES[0].as_bytes()),
                1 => request("GET", "/metrics", &[], b""),
                _ => request("GET", "/healthz?x=1", &["x-a: b:c".to_string(), "Content-Length: 0".to_string()], b""),
            };
            for _ in 0..edits {
                let at = stream.below(bytes.len() + 1);
                match stream.below(5) {
                    0 if at < bytes.len() => bytes[at] = HTTP_ALPHABET[stream.below(HTTP_ALPHABET.len())],
                    1 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    2 => {
                        // Swap the last content-length value for an edge case.
                        let key = b"length: ";
                        if let Some(i) = bytes.windows(key.len()).rposition(|w| w == key) {
                            let start = i + key.len();
                            let end = bytes[start..]
                                .iter()
                                .position(|&b| b == b'\r')
                                .map_or(bytes.len(), |len| start + len);
                            let value = LENGTHS[stream.below(LENGTHS.len())];
                            bytes.splice(start..end, value.bytes());
                        }
                    }
                    3 => {
                        // Duplicate a line: a header or the request line.
                        let start = bytes[..at].iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                        if let Some(len) = bytes[start..].iter().position(|&b| b == b'\n') {
                            let line = bytes[start..start + len + 1].to_vec();
                            bytes.splice(start..start, line);
                        }
                    }
                    _ => bytes.insert(at, HTTP_ALPHABET[stream.below(HTTP_ALPHABET.len())]),
                }
            }
            let verdict = check_request(&bytes);
            prop_assert!(verdict.is_ok(), "{:?}: {:?}", String::from_utf8_lossy(&bytes), verdict);
        }

        #[test]
        fn valid_requests_parse_back_to_their_parts(
            headers in 0usize..8,
            body_len in 0usize..300,
            seed in 0u64..u64::MAX,
        ) {
            const METHODS: [&str; 4] = ["GET", "POST", "PUT", "DELETE"];
            const PATH: &[u8] = b"abcxyz0123456789/?=&%-._~";
            let mut stream = Stream(seed);
            let method = METHODS[stream.below(METHODS.len())];
            let path: String = std::iter::once('/')
                .chain((0..stream.below(40)).map(|_| PATH[stream.below(PATH.len())] as char))
                .collect();
            let headers: Vec<String> = (0..headers)
                .map(|i| format!("x-fuzz-{i}: {}", "v:".repeat(stream.below(4))))
                .collect();
            // The body is read by length, so any byte may appear in it.
            let body: Vec<u8> = (0..body_len).map(|_| stream.next() as u8).collect();
            let bytes = request(method, &path, &headers, &body);
            let parsed = read_request_from(&bytes[..]);
            prop_assert!(parsed.is_ok(), "{:?}: {:?}", String::from_utf8_lossy(&bytes), parsed);
            let parsed = parsed.unwrap();
            prop_assert_eq!(parsed.method.as_str(), method);
            prop_assert_eq!(parsed.path, path);
            prop_assert_eq!(parsed.body, body);
        }

        #[test]
        fn arbitrary_bytes_never_panic_the_request_parsers(
            len in 0usize..200,
            seed in 0u64..u64::MAX,
        ) {
            let mut stream = Stream(seed);
            let body: Vec<u8> = (0..len).map(|_| stream.byte()).collect();
            let verdict = check(&body);
            prop_assert!(verdict.is_ok(), "{:?}: {:?}", String::from_utf8_lossy(&body), verdict);
        }

        #[test]
        fn mutated_valid_bodies_never_panic_and_keys_round_trip(
            base in 0usize..4,
            edits in 1usize..4,
            seed in 0u64..u64::MAX,
        ) {
            let mut stream = Stream(seed);
            let mut body = BODIES[base].as_bytes().to_vec();
            for _ in 0..edits {
                let at = stream.below(body.len() + 1);
                match stream.below(4) {
                    0 if at < body.len() => body[at] = stream.byte(),
                    3 if at < body.len() && body[at].is_ascii_digit() => {
                        let number = NUMBERS[stream.below(NUMBERS.len())];
                        body.splice(at..=at, number.bytes());
                    }
                    1 if at < body.len() => {
                        body.remove(at);
                    }
                    _ => body.insert(at, stream.byte()),
                }
            }
            let verdict = check(&body);
            prop_assert!(verdict.is_ok(), "{:?}: {:?}", String::from_utf8_lossy(&body), verdict);
        }
    }
}
