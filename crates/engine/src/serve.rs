//! Std-only HTTP scrape endpoint for live engine runs.
//!
//! A [`ScrapeServer`] owns a non-blocking [`TcpListener`] on loopback.
//! The engine's event path calls [`ScrapeServer::poll`] at snapshot
//! boundaries (never per event): each poll accepts a bounded number of
//! pending connections, answers each with one response, and returns —
//! `WouldBlock` means "no scraper waiting" and costs one syscall, so an
//! idle server adds nothing measurable to the hot path (bounded by the
//! gated `engine_observe` perf stage).
//!
//! The protocol is the minimum Prometheus and `curl` need: `GET` only,
//! one request per connection, `Connection: close`. Routing is the
//! caller's: `poll` takes a responder closure from path to
//! [`Response`], so the server itself stays transport-only and unit
//! tests can drive it with a plain [`std::net::TcpStream`].

use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// Most connections answered per [`ScrapeServer::poll`] call, bounding
/// the time a scrape burst can steal from the simulation loop.
const MAX_ACCEPTS_PER_POLL: usize = 8;

/// Largest request head read before the request is rejected.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// How long one accepted connection may take to deliver its request
/// head before it is dropped (scrapers are local; this only guards
/// against a stuck peer wedging the poll).
const READ_TIMEOUT: Duration = Duration::from_millis(200);

/// One response body with its content type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// The body.
    pub body: String,
}

impl Response {
    /// A Prometheus text-exposition response.
    pub fn prometheus(body: String) -> Self {
        Response {
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body,
        }
    }

    /// A JSON response.
    pub fn json(body: String) -> Self {
        Response {
            content_type: "application/json",
            body,
        }
    }
}

/// Counters of what the server answered, for the run report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests answered with `200 OK`.
    pub served: u64,
    /// Requests answered with `404 Not Found`.
    pub not_found: u64,
    /// Connections dropped or answered with an error status (bad
    /// request line, unsupported method, oversized or timed-out head).
    pub rejected: u64,
}

/// A non-blocking loopback HTTP listener polled from the engine loop.
#[derive(Debug)]
pub struct ScrapeServer {
    listener: TcpListener,
    addr: SocketAddr,
    stats: ServeStats,
}

impl ScrapeServer {
    /// Bind `127.0.0.1:port` (`port = 0` picks a free port; read the
    /// outcome back with [`port`](Self::port)).
    pub fn bind(port: u16) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(ScrapeServer {
            listener,
            addr,
            stats: ServeStats::default(),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// What the server has answered so far.
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Accept and answer every pending connection (up to the per-poll
    /// bound). `respond` maps a request path to `Some(response)` or
    /// `None` (answered `404`). Returns the number of connections
    /// handled; `0` is the idle fast path.
    pub fn poll(&mut self, respond: &mut dyn FnMut(&str) -> Option<Response>) -> usize {
        let mut handled = 0;
        while handled < MAX_ACCEPTS_PER_POLL {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(err) if err.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            };
            self.answer(stream, respond);
            handled += 1;
        }
        handled
    }

    fn answer(&mut self, mut stream: TcpStream, respond: &mut dyn FnMut(&str) -> Option<Response>) {
        // The accepted stream inherits non-blocking from the listener on
        // some platforms; reads below want the bounded-blocking mode.
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
        let head = match read_request_head(&mut stream) {
            Some(head) => head,
            None => {
                self.stats.rejected += 1;
                let _ = stream.write_all(http_error(400, "bad request").as_bytes());
                return;
            }
        };
        match parse_request_line(&head) {
            Some(("GET", path)) => match respond(path) {
                Some(response) => {
                    self.stats.served += 1;
                    let _ = stream.write_all(http_ok(&response).as_bytes());
                }
                None => {
                    self.stats.not_found += 1;
                    let _ = stream.write_all(http_error(404, "not found").as_bytes());
                }
            },
            Some((_, _)) => {
                self.stats.rejected += 1;
                let _ = stream.write_all(http_error(405, "method not allowed").as_bytes());
            }
            None => {
                self.stats.rejected += 1;
                let _ = stream.write_all(http_error(400, "bad request").as_bytes());
            }
        }
        let _ = stream.flush();
    }
}

/// Read until the end of the request head (`\r\n\r\n`), the size bound,
/// or the read timeout. Returns `None` on anything but a complete head.
fn read_request_head(stream: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") {
                    return String::from_utf8(buf).ok();
                }
                if buf.len() > MAX_REQUEST_BYTES {
                    return None;
                }
            }
            Err(_) => return None,
        }
    }
}

/// Split the request line of an HTTP/1.x head into `(method, path)`.
/// The path is returned without any query string.
pub fn parse_request_line(head: &str) -> Option<(&str, &str)> {
    let line = head.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let target = parts.next()?;
    let version = parts.next()?;
    if !version.starts_with("HTTP/1.") {
        return None;
    }
    let path = target.split('?').next().unwrap_or(target);
    Some((method, path))
}

fn http_ok(response: &Response) -> String {
    format!(
        "HTTP/1.1 200 OK\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        response.content_type,
        response.body.len(),
        response.body
    )
}

fn http_error(code: u16, reason: &str) -> String {
    let text = match code {
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    format!(
        "HTTP/1.1 {code} {text}\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{reason}",
        reason.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
            .expect("write request");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read response");
        out
    }

    fn respond(path: &str) -> Option<Response> {
        match path {
            "/metrics" => Some(Response::prometheus("jobs_total 7\n".to_string())),
            "/health" => Some(Response::json("{\"status\": \"ok\"}".to_string())),
            _ => None,
        }
    }

    #[test]
    fn poll_answers_pending_requests_and_idles_cheaply() {
        let mut server = ScrapeServer::bind(0).expect("bind loopback");
        assert_eq!(server.poll(&mut respond), 0, "no scraper yet");
        let addr = server.addr();
        let client = std::thread::spawn(move || get(addr, "/metrics"));
        // The client connects asynchronously; poll until it is served.
        let mut handled = 0;
        for _ in 0..100 {
            handled += server.poll(&mut respond);
            if handled > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(handled, 1);
        let reply = client.join().expect("client thread");
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        assert!(reply.contains("Content-Type: text/plain; version=0.0.4"));
        assert!(reply.ends_with("jobs_total 7\n"), "{reply}");
        assert_eq!(server.stats().served, 1);
    }

    #[test]
    fn unknown_paths_get_404_and_non_get_405() {
        let mut server = ScrapeServer::bind(0).expect("bind loopback");
        let addr = server.addr();
        let missing = std::thread::spawn(move || get(addr, "/nope"));
        let posted = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .write_all(b"POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
                .expect("write");
            let mut out = String::new();
            stream.read_to_string(&mut out).expect("read");
            out
        });
        let mut handled = 0;
        for _ in 0..200 {
            handled += server.poll(&mut respond);
            if handled >= 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(handled, 2);
        assert!(missing.join().unwrap().starts_with("HTTP/1.1 404"));
        assert!(posted.join().unwrap().starts_with("HTTP/1.1 405"));
        let stats = server.stats();
        assert_eq!(stats.not_found, 1);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.served, 0);
    }

    #[test]
    fn request_lines_parse_paths_and_strip_queries() {
        assert_eq!(
            parse_request_line("GET /metrics HTTP/1.1\r\n"),
            Some(("GET", "/metrics"))
        );
        assert_eq!(
            parse_request_line("GET /snapshot?n=3 HTTP/1.0\r\nHost: x\r\n"),
            Some(("GET", "/snapshot"))
        );
        assert_eq!(parse_request_line("SPEAK /x FTP/9"), None);
        assert_eq!(parse_request_line(""), None);
        assert_eq!(parse_request_line("GET /lonely"), None);
    }

    #[test]
    fn request_line_parsing_survives_every_prefix_and_seeded_garbage() {
        let valid = b"GET /snapshot?n=3 HTTP/1.1\r\nHost: scraper\r\nAccept: */*\r\n\r\n";
        // A prefix parses exactly once it holds the method, the target and
        // the version's `HTTP/1.` stem.
        let parses_from = b"GET /snapshot?n=3 HTTP/1.".len();
        for cut in 0..=valid.len() {
            let head = String::from_utf8_lossy(&valid[..cut]);
            match parse_request_line(&head) {
                Some(parsed) => {
                    assert!(cut >= parses_from, "prefix {head:?} parsed");
                    assert_eq!(parsed, ("GET", "/snapshot"));
                }
                None => assert!(cut < parses_from, "prefix {head:?} rejected"),
            }
        }

        // Garbage: random bytes mixed with request-line tokens so the
        // parser's later branches are reached too.
        const TOKENS: [&[u8]; 8] = [
            b"GET",
            b" ",
            b"/",
            b"?",
            b"HTTP/1.",
            b"\r\n",
            b"\xff\xfe",
            b"\t",
        ];
        let mut rng = workloads::SplitMix64::new(0x5eed);
        for _ in 0..5_000 {
            let mut bytes = Vec::new();
            for _ in 0..rng.next_u64() % 24 {
                let pick = rng.next_u64();
                if pick.is_multiple_of(3) {
                    bytes.push((pick >> 8) as u8);
                } else {
                    bytes.extend_from_slice(TOKENS[(pick >> 8) as usize % TOKENS.len()]);
                }
            }
            let head = String::from_utf8_lossy(&bytes);
            if let Some((method, path)) = parse_request_line(&head) {
                assert!(!method.is_empty() && !method.contains(char::is_whitespace));
                assert!(!path.contains(char::is_whitespace) && !path.contains('?'));
                assert!(head
                    .lines()
                    .next()
                    .is_some_and(|line| line.contains(method)));
            }
        }
    }

    #[test]
    fn malformed_heads_are_rejected_and_a_valid_scrape_still_follows() {
        use std::net::Shutdown;

        let mut server = ScrapeServer::bind(0).expect("bind loopback");
        let addr = server.addr();
        // Send each head and wait for the answer (or the drop) before the
        // next, so the four connections reach the server one at a time.
        let client = std::thread::spawn(move || {
            let send = |head: &[u8], close_write: bool| {
                let mut stream = TcpStream::connect(addr).expect("connect");
                // The server may close an oversized head's connection
                // mid-write; that is a drop, not a test failure.
                let _ = stream.write_all(head);
                if close_write {
                    let _ = stream.shutdown(Shutdown::Write);
                }
                let mut out = Vec::new();
                let _ = stream.read_to_end(&mut out);
                String::from_utf8_lossy(&out).into_owned()
            };
            let truncated = send(b"GET /metrics HTTP/1.1\r\nHost: t", true);
            let non_utf8 = send(b"GET /\xff\xfe HTTP/1.1\r\nHost: t\r\n\r\n", false);
            let mut oversized = b"GET /metrics HTTP/1.1\r\n".to_vec();
            oversized.resize(MAX_REQUEST_BYTES + 512, b'a');
            let oversized = send(&oversized, false);
            let valid = send(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n", false);
            [truncated, non_utf8, oversized, valid]
        });
        let mut handled = 0;
        for _ in 0..400 {
            handled += server.poll(&mut respond);
            if handled >= 4 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(handled, 4);
        let [truncated, non_utf8, oversized, valid] = client.join().expect("client thread");
        for (name, reply) in [
            ("truncated", truncated),
            ("non-UTF-8", non_utf8),
            ("oversized", oversized),
        ] {
            assert!(
                reply.is_empty() || reply.starts_with("HTTP/1.1 400"),
                "{name} head answered {reply:?}"
            );
        }
        assert!(valid.starts_with("HTTP/1.1 200 OK\r\n"), "{valid}");
        assert_eq!(
            server.stats(),
            ServeStats {
                served: 1,
                not_found: 0,
                rejected: 3,
            }
        );
    }
}
