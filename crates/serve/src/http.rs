//! A minimal hand-rolled HTTP/1.1 transport on `std::net::TcpListener`
//! — no external crates, `Connection: close` per request.
//!
//! Routes:
//! - `POST /parse` — body is a JSONL request batch (same lines as the
//!   stdio transport); the response body is a `serve` header line plus
//!   one response line per request, in request order.
//! - `GET /metrics` — Prometheus text exposition of every grammar's
//!   counters (scrapeable; passes `llstar metrics --validate`).
//! - `GET /healthz` — liveness probe (`ok`, or `draining`).
//! - `POST /shutdown` — begins a graceful drain and stops the accept
//!   loop.
//!
//! The accept loop blocks in `accept`. [`Server::begin_drain`] — from
//! `POST /shutdown`, a signal, or an embedder — wakes it by connecting
//! to the listener, and the loop exits on seeing the drain. Each
//! connection is handled on a scoped thread, so a long batch cannot
//! starve metrics scrapes; at most `workers + queue_capacity` handlers
//! run at once, and connections beyond that are answered 503.
//!
//! Hostile clients get an error answer, never an unbounded allocation:
//! request and header lines are capped at [`MAX_LINE_BYTES`], a head at
//! [`MAX_HEADERS`] header lines, and a `Content-Length` above a bound
//! derived from `max_input_bytes` is answered 413 before any body byte
//! is read.

use crate::{max_body_bytes, ServeOptions, Server};
use llstar_core::schema::{ServeRequest, ServeResponse, StreamKind};
use llstar_runtime::{derive_span_id, format_traceparent, parse_traceparent};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Longest request or header line accepted, in bytes.
pub const MAX_LINE_BYTES: usize = 8 << 10;
/// Most header lines accepted in one request head.
pub const MAX_HEADERS: usize = 100;
/// How long a connection may sit idle between reads.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// How long, and for how many bytes, [`reject`] waits for the client
/// to finish sending before closing.
const LINGER: Duration = Duration::from_secs(1);
const LINGER_BYTES: u64 = 64 << 10;
const TEXT: &str = "text/plain; charset=utf-8";

/// Runs the accept loop until `server` drains ([`Server::begin_drain`],
/// which `POST /shutdown` calls). Callers still own shutting the server
/// down afterwards.
pub fn run_http(server: &Server, listener: TcpListener) -> std::io::Result<()> {
    let wake = wake_addr(listener.local_addr()?);
    if !server.register_listener(wake) {
        return Ok(()); // already draining
    }
    let result = accept_loop(server, &listener);
    server.unregister_listener(wake);
    result
}

fn accept_loop(server: &Server, listener: &TcpListener) -> std::io::Result<()> {
    let max_handlers = max_handlers(server.options());
    let active = AtomicUsize::new(0);
    let active = &active;
    std::thread::scope(|scope| {
        for stream in listener.incoming() {
            if server.is_draining() {
                break;
            }
            let stream = match stream {
                Ok(stream) => stream,
                // The peer gave up before we got to it.
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionAborted => continue,
                Err(e) => return Err(e),
            };
            // Only this thread raises the count, so it never passes the cap.
            if active.load(Ordering::SeqCst) >= max_handlers {
                let _ = respond(&stream, 503, TEXT, "too many connections\n");
                continue;
            }
            active.fetch_add(1, Ordering::SeqCst);
            let spawned = std::thread::Builder::new().spawn_scoped(scope, move || {
                let _ = handle_connection(server, stream);
                active.fetch_sub(1, Ordering::SeqCst);
            });
            if spawned.is_err() {
                // The connection was dropped with the closure: closed.
                active.fetch_sub(1, Ordering::SeqCst);
            }
        }
        Ok(())
    })
}

/// Where [`Server::begin_drain`] connects to wake a listener bound to
/// `bound`: the same port, on loopback when bound to every interface.
fn wake_addr(mut bound: SocketAddr) -> SocketAddr {
    if bound.ip().is_unspecified() {
        bound.set_ip(match bound.ip() {
            IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    bound
}

/// Most connection handlers run at once: one per request the server can
/// hold (working or queued). Beyond that a connection would only wait.
fn max_handlers(opts: &ServeOptions) -> usize {
    opts.workers.max(1).saturating_add(opts.queue_capacity)
}

/// A request head, or why there is none.
enum Head {
    Request {
        method: String,
        path: String,
        content_length: u64,
        traceparent: Option<String>,
    },
    /// The peer closed before the head was complete.
    Closed,
    /// Malformed or over a limit: answer with this status and message.
    Reject(u16, &'static str),
}

/// One head line without its line ending, or why there is none.
enum Line {
    Text(String),
    Closed,
    TooLong,
    NotUtf8,
}

/// Reads one LF-terminated line of at most [`MAX_LINE_BYTES`] bytes,
/// never buffering more than that.
fn read_line(reader: &mut impl BufRead) -> std::io::Result<Line> {
    let mut raw = Vec::new();
    reader.by_ref().take(MAX_LINE_BYTES as u64 + 1).read_until(b'\n', &mut raw)?;
    if raw.last() != Some(&b'\n') {
        return Ok(if raw.len() > MAX_LINE_BYTES { Line::TooLong } else { Line::Closed });
    }
    raw.pop();
    if raw.last() == Some(&b'\r') {
        raw.pop();
    }
    Ok(String::from_utf8(raw).map_or(Line::NotUtf8, Line::Text))
}

fn read_head(reader: &mut impl BufRead, max_body: u64) -> std::io::Result<Head> {
    let request_line = match read_line(reader)? {
        Line::Text(line) => line,
        Line::Closed => return Ok(Head::Closed),
        Line::TooLong => return Ok(Head::Reject(400, "request line too long\n")),
        Line::NotUtf8 => return Ok(Head::Reject(400, "request line is not utf-8\n")),
    };
    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_string(), p.to_string()),
        _ => return Ok(Head::Reject(400, "bad request line\n")),
    };
    let mut content_length = 0u64;
    let mut traceparent: Option<String> = None;
    for _ in 0..=MAX_HEADERS {
        let header = match read_line(reader)? {
            Line::Text(line) => line,
            Line::Closed => return Ok(Head::Closed),
            Line::TooLong => return Ok(Head::Reject(431, "header line too long\n")),
            Line::NotUtf8 => return Ok(Head::Reject(400, "header is not utf-8\n")),
        };
        let header = header.trim();
        if header.is_empty() {
            return Ok(Head::Request { method, path, content_length, traceparent });
        }
        let Some((name, value)) = header.split_once(':') else { continue };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = match value.parse() {
                Ok(n) if n > max_body => return Ok(Head::Reject(413, "body too large\n")),
                Ok(n) => n,
                Err(_) => return Ok(Head::Reject(400, "bad content-length\n")),
            };
        } else if name.eq_ignore_ascii_case("traceparent") {
            // Lenient by design: a malformed or all-zero traceparent is
            // ignored (requests fall back to derived trace ids) rather
            // than failing the request — a bad tracing proxy must never
            // take parsing down.
            if parse_traceparent(value).is_some() {
                traceparent = Some(value.to_ascii_lowercase());
            }
        }
    }
    Ok(Head::Reject(431, "too many headers\n"))
}

fn handle_connection(server: &Server, stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let mut reader = BufReader::new(&stream);
    let (method, path, content_length, traceparent) =
        match read_head(&mut reader, max_body_bytes(server.options()))? {
            Head::Request { method, path, content_length, traceparent } => {
                (method, path, content_length, traceparent)
            }
            Head::Closed => return Ok(()),
            Head::Reject(status, message) => return reject(&stream, status, message),
        };
    match (method.as_str(), path.as_str()) {
        ("POST", "/parse") => {
            // `take` bounds the read; the buffer grows only as bytes
            // arrive, so a false Content-Length costs nothing up front.
            let mut body = Vec::new();
            reader.take(content_length).read_to_end(&mut body)?;
            if (body.len() as u64) < content_length {
                return Ok(()); // peer closed mid-body
            }
            let Ok(body) = String::from_utf8(body) else {
                return respond(&stream, 400, TEXT, "body is not utf-8\n");
            };
            let (out, trace_id) = parse_batch(server, &body, traceparent.as_deref());
            let outgoing = trace_id
                .map(|id| {
                    let span = derive_span_id(&id, "serve"); // serve's span within the trace
                    format_traceparent(&id, &span)
                })
                .map(|tp| ("Traceparent".to_string(), tp));
            let extra: Vec<(String, String)> = outgoing.into_iter().collect();
            respond_with(&stream, 200, "application/jsonl; charset=utf-8", &extra, &out)
        }
        ("GET", "/metrics") => {
            respond(&stream, 200, "text/plain; version=0.0.4; charset=utf-8", &server.prometheus())
        }
        ("GET", "/healthz") => {
            let status = if server.is_draining() { "draining" } else { "ok" };
            respond(&stream, 200, TEXT, &format!("{status}\n"))
        }
        ("POST", "/shutdown") => {
            // Answer first, then stop: the drain wakes the accept loop,
            // and the caller shuts the server down.
            respond(&stream, 200, TEXT, "draining\n")?;
            server.begin_drain();
            Ok(())
        }
        _ => respond(&stream, 404, TEXT, "no such route\n"),
    }
}

/// Runs a JSONL batch body through the server, keeping request order.
/// Bad lines are answered in place (as in the stdio transport), so a
/// batch always yields exactly one response line per non-header line.
/// A connection-level `traceparent` (already validated) becomes the
/// default for request lines that carry none of their own. Returns the
/// body plus the trace id to echo back (the connection's, or the first
/// answered request's derived id).
fn parse_batch(server: &Server, body: &str, traceparent: Option<&str>) -> (String, Option<String>) {
    let mut slots: Vec<Result<usize, ServeResponse>> = Vec::new();
    let mut requests: Vec<ServeRequest> = Vec::new();
    for line in body.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        match crate::stdio::parse_request_line(trimmed) {
            Ok(Some(mut request)) => {
                if request.traceparent.is_none() {
                    request.traceparent = traceparent.map(str::to_string);
                }
                slots.push(Ok(requests.len()));
                requests.push(request);
            }
            Ok(None) => {}
            Err(message) => slots.push(Err(ServeResponse::error(
                0,
                "",
                llstar_core::schema::ServeErrorKind::BadRequest,
                message,
            ))),
        }
    }
    let mut trace_id = traceparent.and_then(parse_traceparent).map(|(trace, _span)| trace);
    let mut out = StreamKind::Serve.header_line();
    out.push('\n');
    let mut answered = server.process_batch(requests).into_iter();
    for slot in slots {
        let response = match slot {
            Ok(_) => answered.next().expect("one response per request"),
            Err(response) => response,
        };
        if trace_id.is_none() {
            trace_id = response.trace_id.clone();
        }
        out.push_str(&response.to_json());
        out.push('\n');
    }
    (out, trace_id)
}

/// Answers a request whose input was not read to the end. Closing a
/// socket with unread input makes the kernel send a reset, which can
/// destroy the answer before the client reads it; so half-close, then
/// discard what the client still sends, within bounds.
fn reject(stream: &TcpStream, status: u16, message: &str) -> std::io::Result<()> {
    respond(stream, status, TEXT, message)?;
    stream.shutdown(Shutdown::Write)?;
    stream.set_read_timeout(Some(LINGER))?;
    let _ = std::io::copy(&mut stream.take(LINGER_BYTES), &mut std::io::sink());
    Ok(())
}

fn respond(stream: &TcpStream, status: u16, content_type: &str, body: &str) -> std::io::Result<()> {
    respond_with(stream, status, content_type, &[], body)
}

fn respond_with(
    mut stream: &TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[(String, String)],
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let extra: String =
        extra_headers.iter().map(|(name, value)| format!("{name}: {value}\r\n")).collect();
    let response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n{extra}Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::{demo_entries, demo_server};

    /// Sends `raw` on a fresh connection and returns what came back
    /// before the server closed it (a reset ends the read too).
    fn http_request(addr: &str, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(raw.as_bytes()).expect("write");
        let mut response = Vec::new();
        let _ = stream.read_to_end(&mut response);
        String::from_utf8_lossy(&response).into_owned()
    }

    /// Serves `server` on a fresh loopback port while `client` runs,
    /// then drains it and joins the accept loop — also when `client`
    /// panics, so a failing test fails instead of hanging.
    fn with_http<R>(server: &Server, client: impl FnOnce(&str) -> R) -> R {
        struct DrainOnDrop<'a>(&'a Server);
        impl Drop for DrainOnDrop<'_> {
            fn drop(&mut self) {
                self.0.begin_drain();
            }
        }
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        std::thread::scope(|scope| {
            let accept = scope.spawn(|| run_http(server, listener));
            let drain = DrainOnDrop(server);
            let out = client(&addr);
            drop(drain);
            accept.join().expect("accept loop").expect("io");
            out
        })
    }

    const PARSE_BODY: &str = concat!(
        r#"{"type":"request","id":1,"grammar":"Demo","mode":"tree","input":"a = 1;"}"#,
        "\n"
    );

    fn parse_ok(addr: &str) -> bool {
        let response = http_request(
            addr,
            &format!(
                "POST /parse HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{PARSE_BODY}",
                PARSE_BODY.len()
            ),
        );
        response.starts_with("HTTP/1.1 200") && response.contains("\"status\":\"ok\"")
    }

    #[test]
    fn http_parse_metrics_and_shutdown_round_trip() {
        let server = demo_server();
        with_http(&server, |addr| {
            let body = format!("{PARSE_BODY}not json\n");
            let response = http_request(
                addr,
                &format!(
                    "POST /parse HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{}",
                    body.len(),
                    body
                ),
            );
            assert!(response.starts_with("HTTP/1.1 200"), "{response}");
            let payload = response.split("\r\n\r\n").nth(1).expect("body");
            let lines: Vec<&str> = payload.lines().collect();
            assert_eq!(lines.len(), 3, "{payload}");
            assert!(lines[0].contains("\"stream\":\"serve\""));
            assert!(lines[1].contains("\"status\":\"ok\""));
            assert!(lines[2].contains("\"error\":\"bad-request\""));

            let metrics = http_request(addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
            assert!(metrics.starts_with("HTTP/1.1 200"), "{metrics}");
            let exposition = metrics.split("\r\n\r\n").nth(1).expect("body");
            assert!(
                llstar_runtime::validate_prometheus(exposition).expect("valid") > 0,
                "{exposition}"
            );

            let health = http_request(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
            assert!(health.contains("ok"), "{health}");
            let missing = http_request(addr, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
            assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

            // The drain `with_http` adds afterwards wakes nothing: this
            // request alone must end the accept loop.
            let bye = http_request(addr, "POST /shutdown HTTP/1.1\r\nHost: x\r\n\r\n");
            assert!(bye.contains("draining"), "{bye}");
        });
        assert!(server.is_draining());
        server.shutdown();
    }

    fn parse_with_traceparent(addr: &str, header: Option<&str>) -> String {
        let tp = header.map(|h| format!("Traceparent: {h}\r\n")).unwrap_or_default();
        http_request(
            addr,
            &format!(
                "POST /parse HTTP/1.1\r\nHost: x\r\n{tp}Content-Length: {}\r\n\r\n{PARSE_BODY}",
                PARSE_BODY.len()
            ),
        )
    }

    #[test]
    fn traceparent_threads_through_and_garbage_never_errors() {
        let server = demo_server();
        with_http(&server, |addr| {
            // A valid incoming traceparent wins: its trace id lands in
            // the response body and the echoed Traceparent header.
            let trace = "0af7651916cd43dd8448eb211c80319c";
            let valid = format!("00-{trace}-b7ad6b7169203331-01");
            let response = parse_with_traceparent(addr, Some(&valid));
            assert!(response.starts_with("HTTP/1.1 200"), "{response}");
            assert!(
                response.contains(&format!("\"trace-id\":\"{trace}\"")),
                "client trace id must thread through: {response}"
            );
            let echoed = response
                .lines()
                .find_map(|l| l.strip_prefix("Traceparent: "))
                .expect("response echoes a traceparent header");
            let (echoed_trace, echoed_span) =
                parse_traceparent(echoed).expect("echoed header is well-formed");
            assert_eq!(echoed_trace, trace);
            assert_ne!(echoed_span, "b7ad6b7169203331", "server answers with its own span id");

            // Garbage headers never 500: each shape falls back to the
            // same deterministic derived id.
            let derived = llstar_runtime::derive_trace_id("Demo", 1, "a = 1;");
            for garbage in [
                "not-a-traceparent",
                "00-zzzz-b7ad6b7169203331-01",
                &format!("00-{}-{}-01", "0".repeat(32), "0".repeat(16)),
                "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
            ] {
                let response = parse_with_traceparent(addr, Some(garbage));
                assert!(response.starts_with("HTTP/1.1 200"), "{garbage:?}: {response}");
                assert!(
                    response.contains(&format!("\"trace-id\":\"{derived}\"")),
                    "{garbage:?} must fall back to the derived id: {response}"
                );
            }

            // No header at all: same derived fallback.
            let response = parse_with_traceparent(addr, None);
            assert!(response.contains(&format!("\"trace-id\":\"{derived}\"")), "{response}");
        });
        server.shutdown();
    }

    #[test]
    fn shutdown_stops_only_its_own_server() {
        let (a, b) = (demo_server(), demo_server());
        with_http(&b, |addr_b| {
            with_http(&a, |addr_a| {
                assert!(parse_ok(addr_a) && parse_ok(addr_b));
                let bye = http_request(addr_a, "POST /shutdown HTTP/1.1\r\nHost: x\r\n\r\n");
                assert!(bye.contains("draining"), "{bye}");
            });
            assert!(a.is_draining() && !b.is_draining());
            assert!(parse_ok(addr_b), "the other server must keep answering");
        });
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn hostile_heads_get_error_answers_and_the_daemon_keeps_serving() {
        let server = demo_server();
        let long = "x".repeat(MAX_LINE_BYTES + 1);
        let many: String = (0..=MAX_HEADERS).map(|i| format!("X-{i}: y\r\n")).collect();
        with_http(&server, |addr| {
            for (raw, status) in [
                ("POST /parse HTTP/1.1\r\nContent-Length: 100000000000000\r\n\r\n".into(), 413),
                ("POST /parse HTTP/1.1\r\nContent-Length: -1\r\n\r\n".into(), 400),
                (format!("GET /{long} HTTP/1.1\r\n\r\n"), 400),
                (format!("GET /healthz HTTP/1.1\r\nX-Long: {long}\r\n\r\n"), 431),
                (format!("GET /healthz HTTP/1.1\r\n{many}\r\n"), 431),
            ] {
                let response = http_request(addr, &raw);
                assert!(response.starts_with(&format!("HTTP/1.1 {status} ")), "{response}");
                assert!(parse_ok(addr), "the daemon must still answer /parse");
            }
        });
        server.shutdown();
    }

    #[test]
    fn connections_beyond_the_handler_cap_get_503() {
        let opts = ServeOptions { workers: 1, queue_capacity: 1, ..ServeOptions::default() };
        let server = Server::start(demo_entries(), opts).expect("start");
        with_http(&server, |addr| {
            // Two silent connections hold both handlers in their read;
            // the accept loop takes connections in arrival order.
            let idle: Vec<TcpStream> =
                (0..2).map(|_| TcpStream::connect(addr).expect("connect")).collect();
            let refused = http_request(addr, "");
            assert!(refused.starts_with("HTTP/1.1 503 "), "{refused}");
            drop(idle);
            // The handlers see EOF and exit; capacity comes back.
            let healthy = (0..10_000).any(|_| {
                http_request(addr, "GET /healthz HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 200")
            });
            assert!(healthy, "handlers must free their slots");
        });
        server.shutdown();
    }
}
