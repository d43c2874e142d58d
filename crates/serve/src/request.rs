//! The `/compile` request schema: parsing, validation, and the canonical dedup key.
//!
//! ```json
//! {
//!   "target": {"gate": "CNOT"} | {"matrix": [[[re, im], ...], ...]},
//!   "radices": [2, 2],
//!   "seed": 0,
//!   "coupling": [[0, 1], [1, 2]],
//!   "deadline_ms": 1000,
//!   "omit_timings": true,
//!   "debug": {"hold_ms": 50, "panic": true}
//! }
//! ```
//!
//! Only `target` and `radices` are required. `debug` is honored solely when the
//! server was started with debug hooks enabled (tests and load generators);
//! otherwise its presence fails the request.

use qudit_circuit::gates;
use qudit_synth::{CouplingGraph, SynthesisConfig};
use qudit_tensor::{Complex, Matrix};

use crate::json::{self, Json};

/// A validated compilation request.
#[derive(Debug, Clone)]
pub struct CompileRequest {
    /// The unitary to synthesize.
    pub target: Matrix<f64>,
    /// Per-qudit dimensions.
    pub radices: Vec<usize>,
    /// The engine seed (default 0). Same seed, same request, same bytes out.
    pub seed: u64,
    /// Explicit coupling graph (`None` uses the default line).
    pub coupling: Option<CouplingGraph>,
    /// Per-request latency budget in milliseconds (`None` uses the server default).
    pub deadline_ms: Option<u64>,
    /// Whether to drop the (nondeterministic) per-pass timings from the response
    /// body, making same-seed response bodies byte-comparable.
    pub omit_timings: bool,
    /// Debug hook: hold the worker for this many milliseconds before compiling.
    pub debug_hold_ms: u64,
    /// Debug hook: panic inside the worker instead of compiling.
    pub debug_panic: bool,
}

impl CompileRequest {
    /// Builds the engine-facing synthesis configuration for this request.
    pub fn synthesis_config(&self) -> SynthesisConfig {
        let mut config = SynthesisConfig::with_radices(self.radices.clone());
        config.seed = self.seed;
        if let Some(coupling) = &self.coupling {
            config.coupling = coupling.clone();
        }
        config
    }
}

/// Parses and validates a `/compile` body, returning the request plus its dedup
/// key — the body's canonical serialization itself. Requests differing only in
/// whitespace or key order get equal keys and join the same in-flight compile;
/// requests differing in anything else never do.
///
/// # Errors
///
/// Returns a client-facing message (the server maps it to 400) naming the bad
/// field and, for enums, the accepted set.
pub fn parse_compile_request(
    body: &[u8],
    debug_hooks: bool,
) -> Result<(CompileRequest, String), String> {
    let doc = json::parse(body).map_err(|e| format!("malformed JSON: {e}"))?;
    let obj = doc.as_obj().ok_or("request body must be a JSON object")?;

    const KNOWN: [&str; 7] =
        ["target", "radices", "seed", "coupling", "deadline_ms", "omit_timings", "debug"];
    for key in obj.keys() {
        if !KNOWN.contains(&key.as_str()) {
            return Err(format!("unknown field {key:?}; accepted fields: {}", KNOWN.join(", ")));
        }
    }

    let radices = parse_radices(doc.get("radices").ok_or("missing required field \"radices\"")?)?;
    let target = parse_target(doc.get("target").ok_or("missing required field \"target\"")?)?;
    let dim = radices
        .iter()
        .try_fold(1usize, |dim, &r| dim.checked_mul(r))
        .ok_or_else(|| format!("radices {radices:?} imply a dimension that overflows"))?;
    if target.rows() != dim || target.cols() != dim {
        return Err(format!(
            "target is {}x{} but radices {radices:?} imply {dim}x{dim}",
            target.rows(),
            target.cols()
        ));
    }

    let seed = match doc.get("seed") {
        None => 0,
        Some(v) => v.as_u64().ok_or("\"seed\" must be a non-negative integer")?,
    };
    let coupling = match doc.get("coupling") {
        None => None,
        Some(v) => Some(parse_coupling(v, radices.len())?),
    };
    let deadline_ms = match doc.get("deadline_ms") {
        None => None,
        Some(v) => Some(v.as_u64().ok_or("\"deadline_ms\" must be a non-negative integer")?),
    };
    let omit_timings = match doc.get("omit_timings") {
        None => false,
        Some(v) => v.as_bool().ok_or("\"omit_timings\" must be a boolean")?,
    };

    let (debug_hold_ms, debug_panic) = match doc.get("debug") {
        None => (0, false),
        Some(_) if !debug_hooks => {
            return Err("\"debug\" hooks are disabled on this server".to_string());
        }
        Some(v) => {
            let hold = v.get("hold_ms").map(|h| h.as_u64()).unwrap_or(Some(0));
            let hold = hold.ok_or("\"debug.hold_ms\" must be a non-negative integer")?;
            let panic = v.get("panic").map(|p| p.as_bool()).unwrap_or(Some(false));
            let panic = panic.ok_or("\"debug.panic\" must be a boolean")?;
            (hold, panic)
        }
    };

    let key = doc.to_canonical_string();
    Ok((
        CompileRequest {
            target,
            radices,
            seed,
            coupling,
            deadline_ms,
            omit_timings,
            debug_hold_ms,
            debug_panic,
        },
        key,
    ))
}

fn parse_radices(value: &Json) -> Result<Vec<usize>, String> {
    let items = value.as_arr().ok_or("\"radices\" must be an array of integers >= 2")?;
    if items.is_empty() {
        return Err("\"radices\" must be non-empty".to_string());
    }
    let mut radices = Vec::with_capacity(items.len());
    for item in items {
        let r = item.as_u64().ok_or("\"radices\" entries must be integers")?;
        if !(2..=16).contains(&r) {
            return Err(format!("radix {r} out of supported range 2..=16"));
        }
        radices.push(r as usize);
    }
    Ok(radices)
}

fn parse_target(value: &Json) -> Result<Matrix<f64>, String> {
    if let Some(name) = value.get("gate").and_then(Json::as_str) {
        let expr = gates::all_gates()
            .into_iter()
            .find(|(gate_name, _)| *gate_name == name)
            .map(|(_, expr)| expr)
            .ok_or_else(|| {
                let names: Vec<&str> = gates::all_gates().iter().map(|(n, _)| *n).collect();
                format!("unknown gate {name:?}; known gates: {}", names.join(", "))
            })?;
        return expr
            .to_matrix::<f64>(&[])
            .map_err(|e| format!("gate {name:?} is not a constant target: {e}"));
    }
    if let Some(rows) = value.get("matrix").and_then(Json::as_arr) {
        let n = rows.len();
        let mut entries = Vec::with_capacity(n * n);
        for row in rows {
            let row = row.as_arr().ok_or("\"target.matrix\" rows must be arrays")?;
            if row.len() != n {
                return Err(format!("target matrix must be square; got a row of {}", row.len()));
            }
            for cell in row {
                let pair = cell.as_arr().ok_or("matrix entries must be [re, im] pairs")?;
                if pair.len() != 2 {
                    return Err("matrix entries must be [re, im] pairs".to_string());
                }
                let re = pair[0].as_f64().ok_or("matrix entry components must be numbers")?;
                let im = pair[1].as_f64().ok_or("matrix entry components must be numbers")?;
                entries.push(Complex { re, im });
            }
        }
        let mut iter = entries.into_iter();
        return Ok(Matrix::from_fn(n, n, |_, _| iter.next().unwrap()));
    }
    Err("\"target\" must be {\"gate\": name} or {\"matrix\": [[[re, im], ...], ...]}".to_string())
}

fn parse_coupling(value: &Json, num_qudits: usize) -> Result<CouplingGraph, String> {
    let items = value.as_arr().ok_or("\"coupling\" must be an array of [a, b] pairs")?;
    let mut edges = Vec::with_capacity(items.len());
    for item in items {
        let pair = item.as_arr().ok_or("coupling edges must be [a, b] pairs")?;
        if pair.len() != 2 {
            return Err("coupling edges must be [a, b] pairs".to_string());
        }
        let a = pair[0].as_u64().ok_or("coupling endpoints must be integers")?;
        let b = pair[1].as_u64().ok_or("coupling endpoints must be integers")?;
        edges.push((a as usize, b as usize));
    }
    // Structural validation only (range, self-loops). Connectivity is the
    // *compiler's* call: a disconnected graph must travel to the pipeline and
    // come back as a typed 422, exercising the panic-free degenerate path.
    CouplingGraph::new(num_qudits, edges).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_gate_requests_parse_and_dedup_by_canonical_bytes() {
        let a = br#"{"target": {"gate": "CNOT"}, "radices": [2, 2], "seed": 3}"#;
        let b = b"{\"seed\":3,\"radices\":[2,2],\"target\":{\"gate\":\"CNOT\"}}";
        let (req_a, key_a) = parse_compile_request(a, false).unwrap();
        let (_req_b, key_b) = parse_compile_request(b, false).unwrap();
        assert_eq!(req_a.target.rows(), 4);
        assert_eq!(req_a.seed, 3);
        assert_eq!(key_a, key_b, "whitespace/key-order variants must share a dedup key");
    }

    #[test]
    fn different_requests_get_different_keys() {
        let a = br#"{"target": {"gate": "CNOT"}, "radices": [2, 2], "seed": 0}"#;
        let b = br#"{"target": {"gate": "CNOT"}, "radices": [2, 2], "seed": 1}"#;
        let (_, key_a) = parse_compile_request(a, false).unwrap();
        let (_, key_b) = parse_compile_request(b, false).unwrap();
        assert_ne!(key_a, key_b);
    }

    #[test]
    fn dedup_key_is_the_canonical_body() {
        let body = br#"{"seed": 5, "radices": [2, 2], "target": {"gate": "CZ"}}"#;
        let (_, key) = parse_compile_request(body, false).unwrap();
        assert_eq!(key, r#"{"radices":[2,2],"seed":5,"target":{"gate":"CZ"}}"#);
    }

    #[test]
    fn radix_product_overflow_is_rejected() {
        // 2^64 wraps to 0 in a plain product, which an empty matrix would match.
        let radices = vec!["2"; 64].join(", ");
        let body = format!(r#"{{"radices": [{radices}], "target": {{"matrix": []}}}}"#);
        let err = parse_compile_request(body.as_bytes(), false).unwrap_err();
        assert!(err.contains("overflows"), "{err}");
    }

    #[test]
    fn explicit_matrix_targets_parse() {
        // A 2x2 identity as [re, im] pairs.
        let body =
            br#"{"target": {"matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}, "radices": [2]}"#;
        let (req, _) = parse_compile_request(body, false).unwrap();
        assert_eq!(req.target.rows(), 2);
        assert_eq!(req.target.get(0, 0).re, 1.0);
        assert_eq!(req.target.get(1, 0).re, 0.0);
    }

    #[test]
    fn validation_names_the_offending_field() {
        let cases: [(&[u8], &str); 7] = [
            (br#"{"radices": [2, 2]}"#, "target"),
            (br#"{"target": {"gate": "NOPE"}, "radices": [2, 2]}"#, "known gates"),
            (
                br#"{"target": {"gate": "CNOT"}, "radices": [2, 2], "backend": "scalar"}"#,
                "unknown field",
            ),
            (
                br#"{"target": {"gate": "CNOT"}, "radices": [2, 2], "optimize": "full"}"#,
                "unknown field",
            ),
            (br#"{"target": {"gate": "CNOT"}, "radices": [2], "seed": 0}"#, "imply"),
            (br#"{"target": {"gate": "CNOT"}, "radices": [2, 2], "bogus": 1}"#, "unknown field"),
            (br#"{"target": {"gate": "CNOT"}, "radices": [2, 2], "debug": {}}"#, "disabled"),
        ];
        for (body, needle) in cases {
            let err = parse_compile_request(body, false).unwrap_err();
            assert!(err.contains(needle), "expected {needle:?} in {err:?}");
        }
    }

    #[test]
    fn overflowing_numbers_are_rejected_instead_of_sharing_a_dedup_key() {
        for huge in ["1e999", "2e999"] {
            let body = format!(
                r#"{{"target": {{"matrix": [[[{huge}, 0], [0, 0]], [[0, 0], [1, 0]]]}}, "radices": [2]}}"#
            );
            let err = parse_compile_request(body.as_bytes(), false).unwrap_err();
            assert!(err.contains("out of range at offset 25"), "{huge}: {err}");
        }
    }

    #[test]
    fn debug_hooks_parse_when_enabled() {
        let body =
            br#"{"target": {"gate": "CNOT"}, "radices": [2, 2], "debug": {"hold_ms": 25, "panic": true}}"#;
        let (req, _) = parse_compile_request(body, true).unwrap();
        assert_eq!(req.debug_hold_ms, 25);
        assert!(req.debug_panic);
    }
}
