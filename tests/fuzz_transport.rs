//! Robustness fuzzing for the serve transports: seeded serve-v1 request
//! lines, some over the line bound, through the stdio transport, and seeded raw HTTP framing —
//! truncated heads, bogus or huge `Content-Length`, non-UTF-8 bodies,
//! early close — against a live accept loop. Each transport also gets
//! one request nested far past the JSON depth cap. Every line must be
//! answered in place; every connection must be answered or closed; and
//! no handler may panic (a panic would surface when the accept loop's
//! scope joins). Afterwards the daemon is still healthy and
//! `POST /shutdown` ends it cleanly.

use llstar::core::schema::StreamKind;
use llstar::serve::http::{run_http, MAX_HEADERS, MAX_LINE_BYTES};
use llstar::serve::stdio::serve_lines;
use llstar::serve::{load_grammars, max_body_bytes, GrammarEntry, ServeOptions, Server};
use llstar_rng::Rng64;
use std::io::{Cursor, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Duration;

/// Small enough that generated `Content-Length`s cross the 413 bound.
const MAX_INPUT_BYTES: usize = 512;

fn server() -> Server {
    let entries: Vec<GrammarEntry> =
        load_grammars(&["grammars/json.g".to_string()], None, None).expect("grammar loads");
    let opts = ServeOptions {
        workers: 2,
        max_input_bytes: MAX_INPUT_BYTES,
        fuel: Some(100_000),
        ..ServeOptions::default()
    };
    Server::start(entries, opts).expect("server starts")
}

fn json_string(s: &str) -> String {
    llstar::core::Json::Str(s.to_string()).to_string()
}

/// A request line, well under the line bound, whose extra field nests
/// 50,000 arrays deep: it must be answered `bad-request`, not overflow
/// the stack that parses it.
fn nested_line() -> String {
    format!(
        r#"{{"type":"request","id":1,"grammar":"Json","mode":"tree","input":"[1]","extra":{}}}"#,
        "[".repeat(50_000)
    )
}

/// One serve-v1 request line: well-formed, mangled, or garbage.
fn request_line(rng: &mut Rng64) -> String {
    const INPUTS: &[&str] = &["[1, 2]", "{\"k\": null}", "[1,", "", "\"\u{e9}\u{1f600}\""];
    const MODES: &[&str] = &["tree", "diagnostics", "metrics", "bogus"];
    let input = match rng.gen_range(0..3u32) {
        0 => rng.pick(INPUTS).to_string(),
        1 => rng.gen_string(40),
        _ => "[".repeat(rng.gen_range(0..2 * MAX_INPUT_BYTES)),
    };
    let grammar = if rng.gen_bool(0.9) { "Json" } else { "Nope" };
    let line = format!(
        r#"{{"type":"request","id":{},"grammar":"{grammar}","mode":"{}","input":{}}}"#,
        rng.gen_range(0..1000u64),
        rng.pick(MODES),
        json_string(&input)
    );
    match rng.gen_range(0..4u32) {
        0 | 1 => line,
        2 => {
            // Cut at a random char boundary.
            let cut: Vec<char> = line.chars().collect();
            cut[..rng.gen_range(0..=cut.len())].iter().collect()
        }
        _ => rng.gen_string(120),
    }
}

#[test]
fn stdio_answers_every_fuzzed_line_in_place() {
    let server = server();
    let mut rng = Rng64::seed_from_u64(0x7a_0001);
    let mut input: Vec<u8> = format!("{}\n", StreamKind::Serve.header_line()).into_bytes();
    let mut expected = 0;
    for i in 0..300 {
        if i == 150 {
            // One line over the bound, answered `oversized` mid-stream.
            input.resize(input.len() + max_body_bytes(server.options()) as usize + 1, b'[');
            input.push(b'\n');
            expected += 1;
        }
        if i == 200 {
            input.extend_from_slice(nested_line().as_bytes());
            input.push(b'\n');
            expected += 1;
        }
        let mut line = request_line(&mut rng).replace(['\n', '\r'], " ").into_bytes();
        if rng.gen_bool(0.05) {
            line.extend_from_slice(&[0xff, 0xfe, b'x']); // not UTF-8
        }
        if !String::from_utf8_lossy(&line).trim().is_empty() {
            expected += 1;
        }
        input.extend_from_slice(&line);
        input.push(b'\n');
    }
    let mut out: Vec<u8> = Vec::new();
    let written = serve_lines(&server, Cursor::new(input), &mut out).expect("io");
    assert_eq!(written, expected, "one answer per non-blank line");
    let text = String::from_utf8(out).expect("responses are UTF-8");
    for line in text.lines().skip(1) {
        llstar::core::Json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    }
    assert!(text.contains("\"error\":\"oversized\",\"message\":\"request line"), "{text}");
    assert!(
        text.contains(
            "\"error\":\"bad-request\",\"message\":\"malformed request line: nesting deeper than"
        ),
        "{text}"
    );
    server.shutdown();
}

/// One raw HTTP request, possibly malformed or cut short.
fn http_request(rng: &mut Rng64, max_body: u64) -> Vec<u8> {
    const METHODS: &[&str] = &["GET", "POST", "PUT", "", "G\u{e9}T"];
    const PATHS: &[&str] = &["/parse", "/metrics", "/healthz", "/nope", ""];
    let mut body: Vec<u8> = (0..rng.gen_range(0..4u32))
        .flat_map(|_| format!("{}\n", request_line(rng)).into_bytes())
        .collect();
    if rng.gen_bool(0.1) {
        body.extend_from_slice(&[0xc3, 0x28]); // invalid UTF-8 sequence
    }
    let length = match rng.gen_range(0..8u32) {
        0 => "-1".to_string(),
        1 => "lots".to_string(),
        2 => (max_body + 1).to_string(),
        3 => u64::MAX.to_string(),
        4 => "100000000000000".to_string(),
        5 => (body.len() + rng.gen_range(1..64usize)).to_string(), // more than sent
        _ => body.len().to_string(),
    };
    let (method, path) =
        if rng.gen_bool(0.5) { ("POST", "/parse") } else { (rng.pick(METHODS), rng.pick(PATHS)) };
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: x\r\n").into_bytes();
    if rng.gen_bool(0.9) {
        head.extend_from_slice(format!("Content-Length: {length}\r\n").as_bytes());
    }
    match rng.gen_range(0..10u32) {
        0 => {
            head.extend_from_slice(format!("X-Long: {}\r\n", "y".repeat(MAX_LINE_BYTES)).as_bytes())
        }
        1 => (0..=MAX_HEADERS)
            .for_each(|i| head.extend_from_slice(format!("X-{i}: 1\r\n").as_bytes())),
        2 => head.extend_from_slice(b"X-Bytes: \xff\xfe\r\n"),
        3 => head.extend_from_slice(format!("Traceparent: {}\r\n", rng.gen_string(60)).as_bytes()),
        4 => head.extend_from_slice(b"no colon here\r\n"),
        _ => {}
    }
    head.extend_from_slice(b"\r\n");
    head.extend_from_slice(&body);
    if rng.gen_bool(0.2) {
        head.truncate(rng.gen_range(0..=head.len())); // truncated head or body
    }
    head
}

/// Sends `raw`, half-closes, and returns what came back. The daemon
/// must answer or close; a read that times out means it did neither.
fn exchange(addr: &str, raw: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(20))).expect("timeout");
    // The daemon may answer and close before reading everything.
    let _ = stream.write_all(raw);
    let _ = stream.shutdown(Shutdown::Write);
    let mut response = Vec::new();
    if let Err(e) = stream.read_to_end(&mut response) {
        assert!(
            !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "the daemon neither answered nor closed: {:?}",
            String::from_utf8_lossy(raw)
        );
    }
    response
}

#[test]
fn http_answers_or_closes_every_fuzzed_connection() {
    let server = server();
    let max_body = max_body_bytes(server.options());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let mut rng = Rng64::seed_from_u64(0x7a_0002);
    // A failed assertion must fail the test, not leave the scope
    // waiting on an accept loop nobody stops.
    struct DrainOnDrop<'a>(&'a Server);
    impl Drop for DrainOnDrop<'_> {
        fn drop(&mut self) {
            self.0.begin_drain();
        }
    }
    std::thread::scope(|scope| {
        let accept = scope.spawn(|| run_http(&server, listener));
        let _drain = DrainOnDrop(&server);
        for i in 0..300 {
            if i == 150 {
                let line = nested_line();
                let raw = format!(
                    "POST /parse HTTP/1.1\r\nContent-Length: {}\r\n\r\n{line}\n",
                    line.len() + 1
                );
                let text = String::from_utf8_lossy(&exchange(&addr, raw.as_bytes())).into_owned();
                assert!(text.starts_with("HTTP/1.1 200 "), "{text}");
                assert!(text.contains("\"error\":\"bad-request\""), "{text}");
            }
            let raw = http_request(&mut rng, max_body);
            if rng.gen_bool(0.05) {
                // Early close: connect, maybe send, and go away.
                let mut stream = TcpStream::connect(&addr).expect("connect");
                let _ = stream.write_all(&raw[..raw.len() / 2]);
                continue;
            }
            let response = exchange(&addr, &raw);
            if response.is_empty() {
                continue; // closed without an answer
            }
            let text = String::from_utf8_lossy(&response);
            let status: u16 = text
                .strip_prefix("HTTP/1.1 ")
                .and_then(|rest| rest.get(..3))
                .and_then(|code| code.parse().ok())
                .unwrap_or_else(|| panic!("not an HTTP answer: {text}"));
            assert!([200, 400, 404, 413, 431].contains(&status), "{text}");
            assert!(text.contains("\r\n\r\n"), "{text}");
        }
        let health = exchange(&addr, b"GET /healthz HTTP/1.1\r\n\r\n");
        assert!(String::from_utf8_lossy(&health).ends_with("\r\n\r\nok\n"), "still healthy");
        let bye = exchange(&addr, b"POST /shutdown HTTP/1.1\r\n\r\n");
        assert!(String::from_utf8_lossy(&bye).ends_with("draining\n"));
        accept.join().expect("no handler panicked").expect("accept loop io");
    });
    server.shutdown();
}
