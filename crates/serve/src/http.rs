//! A deliberately small HTTP/1.1 layer: enough to parse one request per
//! connection and write one `Connection: close` response. No keep-alive, no
//! chunked encoding, no TLS — the server is an in-cluster compilation sidecar,
//! not an edge proxy.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Largest request body accepted (a 10-qudit dense target is ~32 MiB of JSON;
/// anything bigger is out of the partition front-end's reach anyway).
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// How long a connection may sit idle mid-request before the read fails. Keeps
/// half-open sockets from pinning connection threads across a shutdown.
pub const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Longest request or header line accepted, line terminator included. The read
/// timeout applies per read, so without a cap a client trickling one endless line
/// would grow the server's memory without limit.
pub const MAX_LINE_BYTES: usize = 8 * 1024;

/// Most header lines accepted in one request.
pub const MAX_HEADERS: usize = 100;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// The request method (`GET`, `POST`, ...), uppercased by the client.
    pub method: String,
    /// The request path, query string included.
    pub path: String,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

/// Reads one request from a connection, failing any read that waits longer than
/// [`READ_TIMEOUT`]. See [`read_request_from`] for the parse.
///
/// # Errors
///
/// Returns a message when the timeout cannot be set, and every error of
/// [`read_request_from`], timeouts included.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    stream.set_read_timeout(Some(READ_TIMEOUT)).map_err(|e| e.to_string())?;
    read_request_from(stream)
}

/// Reads one request from `source`: the request line, the headers up to the blank
/// line, and a body of `Content-Length` bytes. The server answers every error with
/// a 400.
///
/// # Errors
///
/// Returns a message for malformed request lines, lines longer than
/// [`MAX_LINE_BYTES`] or not UTF-8, more than [`MAX_HEADERS`] headers, unparsable or
/// oversized `Content-Length`, read errors, and short reads.
pub fn read_request_from(source: impl Read) -> Result<Request, String> {
    let mut reader = BufReader::new(source);
    let line = read_line_capped(&mut reader, "request line")?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let path = parts.next().ok_or("request line missing path")?.to_string();

    let mut content_length = 0usize;
    for count in 0.. {
        let header = read_line_capped(&mut reader, "header")?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if count == MAX_HEADERS {
            return Err(format!("more than {MAX_HEADERS} headers"));
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse::<usize>()
                    .map_err(|_| format!("invalid content-length {value:?}"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(format!("body of {content_length} bytes exceeds limit of {MAX_BODY_BYTES}"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| format!("reading body: {e}"))?;
    Ok(Request { method, path, body })
}

/// Reads one line of at most [`MAX_LINE_BYTES`] bytes; `what` names it in errors.
fn read_line_capped(reader: &mut impl BufRead, what: &str) -> Result<String, String> {
    let mut line = String::new();
    let read = reader
        .take(MAX_LINE_BYTES as u64)
        .read_line(&mut line)
        .map_err(|e| format!("reading {what}: {e}"))?;
    if read == MAX_LINE_BYTES && !line.ends_with('\n') {
        return Err(format!("{what} longer than {MAX_LINE_BYTES} bytes"));
    }
    Ok(line)
}

/// Writes one JSON response and flushes. `extra_headers` lets the server attach
/// metadata (e.g. `x-openqudit-dedup`) without touching the body — response
/// *bodies* stay byte-identical for deduplicated requests.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    extra_headers: &[(String, String)],
) -> std::io::Result<()> {
    let reason = reason_phrase(status);
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// The standard reason phrase for each status the server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}
