//! The JSONL stdio transport: one request per line in, one response per
//! line out, both streams led by a schema-versioned `serve` header.
//!
//! Responses come back in request (line) order even though workers
//! finish out of order — a writer thread holds early finishers in a
//! reorder buffer keyed by line number. The reader blocks on
//! [`crate::Server::submit`] when the queue is full, so a fast producer
//! piping a million-line batch gets real backpressure instead of
//! unbounded buffering. EOF (or a drain begun by
//! [`crate::Server::begin_drain`]) drains in-flight requests before
//! returning.
//!
//! A line is read into memory only up to [`max_body_bytes`], the bound
//! the HTTP transport puts on a body. A longer line is answered
//! `oversized` and the rest of it is skipped without being buffered.

use crate::{max_body_bytes, Server};
use llstar_core::schema::{ServeErrorKind, ServeRequest, ServeResponse, StreamKind};
use llstar_core::Json;
use std::collections::BTreeMap;
use std::io::{BufRead, Read, Write};
use std::sync::mpsc;

/// Pumps `input` lines through `server` and writes ordered responses to
/// `out`. Returns the number of response lines written (excluding the
/// header). Malformed lines are answered in place with a `bad-request`
/// error, and lines over [`max_body_bytes`] with `oversized`, rather
/// than killing the stream; a leading `serve` header line from the
/// client is validated and skipped.
pub fn serve_lines<R: BufRead, W: Write + Send>(
    server: &Server,
    mut input: R,
    mut out: W,
) -> std::io::Result<u64> {
    writeln!(out, "{}", StreamKind::Serve.header_line())?;
    let (tx, rx) = mpsc::channel::<(u64, ServeResponse)>();
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || -> std::io::Result<u64> {
            let mut pending: BTreeMap<u64, ServeResponse> = BTreeMap::new();
            let mut next = 0u64;
            let mut written = 0u64;
            for (tag, response) in rx {
                pending.insert(tag, response);
                while let Some(response) = pending.remove(&next) {
                    writeln!(out, "{}", response.to_json())?;
                    out.flush()?;
                    next += 1;
                    written += 1;
                }
            }
            Ok(written)
        });
        let bound = max_body_bytes(server.options());
        let mut line = Vec::new();
        let mut tag = 0u64;
        loop {
            if server.is_draining() {
                break;
            }
            line.clear();
            if input.by_ref().take(bound.saturating_add(1)).read_until(b'\n', &mut line)? == 0 {
                break; // EOF: drain and exit
            }
            let text = line.strip_suffix(b"\n").unwrap_or(&line);
            if text.len() as u64 > bound {
                input.skip_until(b'\n')?; // the rest of the line, unbuffered
                let message = format!("request line exceeds {bound} bytes");
                let _ =
                    tx.send((tag, ServeResponse::error(0, "", ServeErrorKind::Oversized, message)));
                tag += 1;
                continue;
            }
            let parsed = match std::str::from_utf8(text) {
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => parse_request_line(text.trim()),
                Err(_) => Err("request line is not utf-8".to_string()),
            };
            match parsed {
                Ok(Some(request)) => {
                    server.submit(tag, request, &tx);
                    tag += 1;
                }
                Ok(None) => {} // valid serve header: consumed silently
                Err(message) => {
                    let _ = tx.send((
                        tag,
                        ServeResponse::error(0, "", ServeErrorKind::BadRequest, message),
                    ));
                    tag += 1;
                }
            }
        }
        drop(tx);
        writer.join().expect("writer thread never panics")
    })
}

/// Parses one input line: `Ok(Some(_))` for a request, `Ok(None)` for a
/// valid `serve` stream header, `Err(message)` otherwise.
pub(crate) fn parse_request_line(line: &str) -> Result<Option<ServeRequest>, String> {
    let value = Json::parse(line).map_err(|e| format!("malformed request line: {e}"))?;
    if llstar_core::schema::parse_schema_header(&value).is_some() {
        return match llstar_core::schema::check_header(&value, StreamKind::Serve) {
            Ok(()) => Ok(None),
            Err(e) => Err(format!("bad stream header: {e}")),
        };
    }
    ServeRequest::from_json(&value).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::{demo_entries, demo_server};
    use crate::ServeOptions;
    use llstar_core::schema::SERVE_STREAM_VERSION;
    use std::io::Cursor;

    #[test]
    fn stdio_round_trip_preserves_line_order_and_flags_bad_lines() {
        let server = demo_server();
        let input = format!(
            "{header}\n\
             {{\"type\":\"request\",\"id\":7,\"grammar\":\"Demo\",\"mode\":\"tree\",\"input\":\"a = 1;\"}}\n\
             this is not json\n\
             {{\"type\":\"request\",\"id\":8,\"grammar\":\"Demo\",\"mode\":\"tree\",\"input\":\"b = 2;\"}}\n",
            header = StreamKind::Serve.header_line()
        );
        let mut out: Vec<u8> = Vec::new();
        let written = serve_lines(&server, Cursor::new(input), &mut out).expect("io");
        assert_eq!(written, 3);
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains(&format!("\"version\":{SERVE_STREAM_VERSION}")), "{}", lines[0]);
        assert!(lines[1].contains("\"id\":7") && lines[1].contains("\"status\":\"ok\""));
        assert!(
            lines[2].contains("\"error\":\"bad-request\""),
            "bad line must answer in place: {}",
            lines[2]
        );
        assert!(lines[3].contains("\"id\":8") && lines[3].contains("\"status\":\"ok\""));
        server.shutdown();
    }

    #[test]
    fn over_long_line_is_oversized_and_the_stream_goes_on() {
        let opts = ServeOptions { max_input_bytes: 64, ..ServeOptions::default() };
        let server = Server::start(demo_entries(), opts).expect("start");
        let bound = max_body_bytes(server.options()) as usize;
        let input = format!(
            "{at_bound}\n{over}\n\
             {{\"type\":\"request\",\"id\":9,\"grammar\":\"Demo\",\"mode\":\"tree\",\"input\":\"c = 3;\"}}\n",
            at_bound = "x".repeat(bound),
            over = "x".repeat(bound + 1),
        );
        let mut out: Vec<u8> = Vec::new();
        let written = serve_lines(&server, Cursor::new(input), &mut out).expect("io");
        assert_eq!(written, 3);
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[1].contains("\"error\":\"bad-request\""), "{}", lines[1]);
        assert!(lines[2].contains("\"error\":\"oversized\""), "{}", lines[2]);
        assert!(lines[3].contains("\"id\":9") && lines[3].contains("\"status\":\"ok\""));
        server.shutdown();
    }
}
