//! Hand-rolled HTTP/1.1 plumbing over `std::net::TcpStream`, and the one
//! front end both tiers (the `dcam-server` shard and the `dcam-router`)
//! run on.
//!
//! The build environment has no crates.io access, so this module supplies
//! the minimal-but-correct slice of HTTP the explanation server needs:
//! request parsing with persistent (keep-alive) connections, a
//! `Content-Length`-framed body with a configurable size cap, response
//! writing, and a non-blocking peer-disconnect probe used to cancel
//! abandoned requests. Chunked transfer encoding is deliberately not
//! supported (requests using it get a structured 400).
//!
//! [`FrontEnd`] is the listener on top: one accept thread feeding a
//! bounded backlog (overflow answered 503 on the spot), a pool of
//! connection workers running the keep-alive loop — an idle connection is
//! dropped after `idle_keepalive`, a request whose bytes have started
//! arriving gets a structured 408 after `request_deadline` — and per-status
//! response counters ([`HttpStats`]). A tier plugs in its route function,
//! which answers each [`Request`] through an [`Exchange`].

use crate::wire;
use serde::Value;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Cap on the request head (request line + headers). Requests whose head
/// exceeds this are malformed or hostile; either way the connection is
/// answered with 400 and closed.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// Request target as sent (no query-string splitting — the API does
    /// not use query parameters).
    pub path: String,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Raw request body (`Content-Length` bytes).
    pub body: Vec<u8>,
    /// The client asked for this to be the connection's last exchange
    /// (`Connection: close`, or HTTP/1.0 without `keep-alive`).
    pub close: bool,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why [`Conn::read_request`] returned without a request.
#[derive(Debug)]
pub enum RecvError {
    /// Clean EOF on a request boundary: the client is done with the
    /// connection.
    Closed,
    /// The read timed out before a full request arrived. The buffered
    /// partial request (if any) is kept; the caller decides whether to
    /// keep waiting or close an idle connection.
    Idle,
    /// Malformed request: answer 400 with the message and close.
    Bad(String),
    /// Declared body exceeds the configured cap: answer 413 and close.
    TooLarge {
        /// The configured body cap in bytes.
        limit: usize,
    },
    /// Socket failure; the connection is unusable.
    Io(io::Error),
}

/// One server-side connection: the stream plus a carry buffer for bytes
/// that belong to the next pipelined request.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

fn find_crlf2(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

impl Conn {
    /// Wraps an accepted stream.
    pub fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            buf: Vec::new(),
        }
    }

    /// The underlying stream (for timeouts and response writing).
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// Whether bytes of a not-yet-complete request are buffered — the
    /// connection is mid-request, not idle.
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Reads one more chunk off the socket into the carry buffer.
    /// `Ok(0)` is EOF; timeouts surface as [`RecvError::Idle`].
    fn fill(&mut self) -> Result<usize, RecvError> {
        let mut tmp = [0u8; 4096];
        match self.stream.read(&mut tmp) {
            Ok(n) => {
                self.buf.extend_from_slice(&tmp[..n]);
                Ok(n)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Err(RecvError::Idle)
            }
            Err(e) => Err(RecvError::Io(e)),
        }
    }

    /// Reads (or finishes reading) one request. Respects the stream's
    /// configured read timeout: a timeout mid-request keeps the partial
    /// bytes buffered and returns [`RecvError::Idle`], so the caller can
    /// poll a shutdown flag between attempts.
    pub fn read_request(&mut self, max_body: usize) -> Result<Request, RecvError> {
        loop {
            if let Some(head_end) = find_crlf2(&self.buf) {
                return self.parse_at(head_end, max_body);
            }
            if self.buf.len() > MAX_HEAD_BYTES {
                return Err(RecvError::Bad(format!(
                    "request head exceeds {MAX_HEAD_BYTES} bytes"
                )));
            }
            match self.fill() {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Err(RecvError::Closed)
                    } else {
                        Err(RecvError::Bad("connection closed mid-request".into()))
                    };
                }
                Ok(_) => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn parse_at(&mut self, head_end: usize, max_body: usize) -> Result<Request, RecvError> {
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or_default();
        let mut parts = request_line.split_ascii_whitespace();
        let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/1.") => {
                (m.to_ascii_uppercase(), p.to_string(), v.to_string())
            }
            _ => {
                return Err(RecvError::Bad(format!(
                    "malformed request line {request_line:?}"
                )))
            }
        };
        let mut headers = Vec::new();
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                return Err(RecvError::Bad(format!("malformed header line {line:?}")));
            };
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        let header = |name: &str| {
            headers
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.as_str())
        };
        if header("transfer-encoding").is_some() {
            return Err(RecvError::Bad(
                "chunked transfer encoding not supported; \
                 send a Content-Length-framed body"
                    .into(),
            ));
        }
        // Exactly one Content-Length (or none): duplicates — even
        // agreeing ones — are rejected like Transfer-Encoding above,
        // because a front proxy honouring a different copy than we do
        // turns disagreement into request smuggling.
        let mut content_lengths = headers.iter().filter(|(k, _)| k == "content-length");
        let (first_cl, second_cl) = (content_lengths.next(), content_lengths.next());
        if second_cl.is_some() {
            return Err(RecvError::Bad("multiple Content-Length headers".into()));
        }
        let body_len = match first_cl {
            None => 0,
            Some((_, v)) => v
                .parse::<usize>()
                .map_err(|_| RecvError::Bad(format!("invalid Content-Length {v:?}")))?,
        };
        if body_len > max_body {
            // Drop the connection state: the client would keep streaming a
            // body nobody reads, so the caller must close after answering.
            return Err(RecvError::TooLarge { limit: max_body });
        }
        let total = head_end + 4 + body_len;
        while self.buf.len() < total {
            match self.fill() {
                Ok(0) => return Err(RecvError::Bad("connection closed mid-body".into())),
                Ok(_) => {}
                Err(e) => return Err(e),
            }
        }
        let connection = header("connection").unwrap_or("").to_ascii_lowercase();
        let close = connection.split(',').any(|t| t.trim() == "close")
            || (version == "HTTP/1.0" && !connection.contains("keep-alive"));
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(Request {
            method,
            path,
            headers,
            body,
            close,
        })
    }

    /// Non-blocking probe for a client disconnect while a response is
    /// being computed. Bytes the client sent ahead (pipelining) are kept
    /// for the next [`Conn::read_request`]; `true` means the peer closed
    /// its end and the in-flight work should be cancelled.
    pub fn peer_closed(&mut self) -> bool {
        if self.stream.set_nonblocking(true).is_err() {
            return true;
        }
        let mut tmp = [0u8; 1024];
        let closed = match self.stream.read(&mut tmp) {
            Ok(0) => true,
            Ok(n) => {
                self.buf.extend_from_slice(&tmp[..n]);
                false
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
            Err(_) => true,
        };
        let _ = self.stream.set_nonblocking(false);
        closed
    }
}

/// Standard reason phrase of the status codes this server emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        401 => "Unauthorized",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "",
    }
}

/// Writes one JSON response. `close` adds `Connection: close` (the caller
/// must then actually close the connection).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &[(&str, String)],
    body: &str,
    close: bool,
) -> io::Result<()> {
    let mut msg = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n",
        status,
        status_reason(status),
        body.len()
    );
    for (name, value) in extra_headers {
        msg.push_str(name);
        msg.push_str(": ");
        msg.push_str(value);
        msg.push_str("\r\n");
    }
    if close {
        msg.push_str("connection: close\r\n");
    }
    msg.push_str("\r\n");
    msg.push_str(body);
    stream.write_all(msg.as_bytes())?;
    stream.flush()
}

/// Locks a mutex, recovering the data from a poisoned one: a handler
/// panic must not wedge every later request on the same state.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Length-leaking but content-constant-time byte comparison: enough to
/// stop a byte-at-a-time timing oracle on the admin token.
fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y)) == 0
}

/// Transport settings of a [`FrontEnd`], taken from the tier's own
/// configuration.
#[derive(Debug, Clone)]
pub struct FrontEndConfig {
    /// Thread-name prefix: `{name}-accept`, `{name}-conn-{i}`.
    pub name: &'static str,
    /// Connection-worker threads (each drives one connection at a time).
    pub conn_workers: usize,
    /// Bound on accepted-but-unclaimed connections; overflow gets a 503.
    pub conn_backlog: usize,
    /// Request bodies above this get a 413 and the connection closes.
    pub max_body_bytes: usize,
    /// A request whose first bytes arrived must be complete within this,
    /// or it gets a 408 and the connection closes.
    pub request_deadline: Duration,
    /// How long an idle keep-alive connection is held open.
    pub idle_keepalive: Duration,
    /// `Retry-After` value on the front end's 503s, seconds.
    pub retry_after_s: u32,
    /// Message of the 503 answered when the backlog is full.
    pub backlog_full: &'static str,
}

/// Transport counters of one [`FrontEnd`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HttpStats {
    /// Connections accepted off the listener.
    pub connections_accepted: u64,
    /// Connections bounced with 503 because the backlog was full.
    pub connections_rejected: u64,
    /// Requests parsed off connections.
    pub requests: u64,
    /// Responses with status 2xx.
    pub responses_2xx: u64,
    /// Responses with status 4xx.
    pub responses_4xx: u64,
    /// Responses with status 5xx.
    pub responses_5xx: u64,
}

#[derive(Default)]
struct Counters {
    connections_accepted: AtomicU64,
    connections_rejected: AtomicU64,
    requests: AtomicU64,
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
}

/// State shared by the accept thread and the connection workers.
struct Shared {
    cfg: FrontEndConfig,
    counters: Counters,
    shutdown: AtomicBool,
    conns: Mutex<VecDeque<TcpStream>>,
    conns_ready: Condvar,
}

impl Shared {
    fn stats(&self) -> HttpStats {
        let c = &self.counters;
        HttpStats {
            connections_accepted: c.connections_accepted.load(Ordering::Relaxed),
            connections_rejected: c.connections_rejected.load(Ordering::Relaxed),
            requests: c.requests.load(Ordering::Relaxed),
            responses_2xx: c.responses_2xx.load(Ordering::Relaxed),
            responses_4xx: c.responses_4xx.load(Ordering::Relaxed),
            responses_5xx: c.responses_5xx.load(Ordering::Relaxed),
        }
    }
}

/// Whether the connection survives the response.
pub enum After {
    /// Read the next request off the connection.
    KeepAlive,
    /// Close the connection.
    Close,
}

/// One request's way back to its client: the connection plus the front
/// end's counters and shutdown state. Every response goes through
/// [`Exchange::respond`], which tallies its status.
pub struct Exchange<'a> {
    conn: &'a mut Conn,
    shared: &'a Shared,
}

impl Exchange<'_> {
    /// The client connection (for the mid-request disconnect probe).
    pub(crate) fn conn(&mut self) -> &mut Conn {
        self.conn
    }

    /// The front end's transport counters.
    pub fn http_stats(&self) -> HttpStats {
        self.shared.stats()
    }

    /// Writes a response and tallies it. `close` is sticky during
    /// shutdown so drained keep-alive clients are told to go away.
    pub fn respond(
        &mut self,
        status: u16,
        extra: &[(&str, String)],
        body: &str,
        close: bool,
    ) -> After {
        let close = close || self.shared.shutdown.load(Ordering::Acquire);
        let c = &self.shared.counters;
        match status {
            200..=299 => &c.responses_2xx,
            400..=499 => &c.responses_4xx,
            _ => &c.responses_5xx,
        }
        .fetch_add(1, Ordering::Relaxed);
        match write_response(self.conn.stream(), status, extra, body, close) {
            Ok(()) if !close => After::KeepAlive,
            _ => After::Close,
        }
    }

    /// A keep-alive response with a JSON body.
    pub fn json(&mut self, status: u16, body: &str) -> After {
        self.respond(status, &[], body, false)
    }

    /// A keep-alive structured error: `{"error": {"code", "message"}}`.
    pub fn error(&mut self, status: u16, code: &str, message: &str) -> After {
        self.json(status, &wire::error_body(code, message))
    }

    /// A structured 503 carrying the configured `Retry-After`.
    pub fn unavailable(&mut self, code: &str, message: &str) -> After {
        let retry_after = [("retry-after", self.shared.cfg.retry_after_s.to_string())];
        self.respond(503, &retry_after, &wire::error_body(code, message), false)
    }

    /// A 405 naming the allowed methods (`"GET, DELETE"` reads "use GET
    /// or DELETE" in the message).
    pub fn method_not_allowed(&mut self, allow: &str) -> After {
        let message = format!("use {}", allow.replace(", ", " or "));
        self.respond(
            405,
            &[("allow", allow.into())],
            &wire::error_body("method_not_allowed", &message),
            false,
        )
    }

    /// The request body as UTF-8, or a structured 400 `bad_json`.
    pub fn body_text<'r>(&mut self, req: &'r Request) -> Result<&'r str, After> {
        std::str::from_utf8(&req.body)
            .map_err(|_| self.error(400, "bad_json", "request body is not UTF-8"))
    }

    /// `text` as a JSON tree, or a structured 400 `bad_json` (malformed
    /// or nested past [`serde_json::MAX_DEPTH`]).
    pub fn parse_json(&mut self, text: &str) -> Result<Value, After> {
        serde_json::parse(text).map_err(|e| self.error(400, "bad_json", &e.to_string()))
    }

    /// The request body as a JSON tree ([`Exchange::body_text`] then
    /// [`Exchange::parse_json`]).
    pub(crate) fn body_json(&mut self, req: &Request) -> Result<Value, After> {
        let text = self.body_text(req)?;
        self.parse_json(text)
    }

    /// The operator gate: with a token configured, the request must carry
    /// a matching `X-Admin-Token` header — missing is a 401, wrong a 403.
    /// `None` leaves the endpoint open.
    pub fn require_admin(&mut self, req: &Request, token: Option<&str>) -> Result<(), After> {
        let Some(expected) = token else {
            return Ok(());
        };
        match req.header("x-admin-token") {
            None => Err(self.error(
                401,
                "unauthorized",
                "this operator endpoint requires the X-Admin-Token header",
            )),
            Some(got) if !constant_time_eq(got.as_bytes(), expected.as_bytes()) => {
                Err(self.error(403, "forbidden", "X-Admin-Token does not match"))
            }
            Some(_) => Ok(()),
        }
    }
}

/// A running HTTP listener: the accept thread and the connection workers.
/// Dropping it (or [`FrontEnd::stop`]) stops accepting, serves every
/// accepted connection to its end, and joins the threads.
pub struct FrontEnd {
    shared: Arc<Shared>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl FrontEnd {
    /// Binds `addr` (port `0` picks an ephemeral port) and starts the
    /// accept thread plus `cfg.conn_workers` connection workers, each
    /// answering requests with `route`.
    pub fn bind<H>(addr: &str, cfg: FrontEndConfig, route: H) -> io::Result<FrontEnd>
    where
        H: Fn(&mut Exchange<'_>, &Request) -> After + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (name, workers) = (cfg.name, cfg.conn_workers.max(1));
        let shared = Arc::new(Shared {
            cfg,
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(VecDeque::new()),
            conns_ready: Condvar::new(),
        });
        let mut threads = Vec::with_capacity(workers + 1);
        let accept = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("{name}-accept"))
                .spawn(move || accept_loop(listener, &accept))
                .expect("spawn accept thread"),
        );
        let route = Arc::new(route);
        for i in 0..workers {
            let (shared, route) = (Arc::clone(&shared), Arc::clone(&route));
            threads.push(
                std::thread::Builder::new()
                    .name(format!("{name}-conn-{i}"))
                    .spawn(move || conn_worker(&shared, &*route))
                    .expect("spawn connection worker"),
            );
        }
        Ok(FrontEnd {
            shared,
            addr,
            threads,
        })
    }

    /// The bound socket address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Transport counters.
    pub fn stats(&self) -> HttpStats {
        self.shared.stats()
    }

    /// Stops accepting, lets the workers finish every accepted connection
    /// (keep-alive clients get `Connection: close` on their next
    /// response), and joins the threads. Idempotent.
    pub fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.conns_ready.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for FrontEnd {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, shared: &Shared) {
    let c = &shared.counters;
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                c.connections_accepted.fetch_add(1, Ordering::Relaxed);
                let _ = stream.set_nodelay(true);
                let mut conns = lock(&shared.conns);
                if conns.len() >= shared.cfg.conn_backlog {
                    drop(conns);
                    c.connections_rejected.fetch_add(1, Ordering::Relaxed);
                    // Answer on the accept thread: every connection worker
                    // is busy, so nobody else will.
                    let mut stream = stream;
                    let _ = write_response(
                        &mut stream,
                        503,
                        &[("retry-after", shared.cfg.retry_after_s.to_string())],
                        &wire::error_body("overloaded", shared.cfg.backlog_full),
                        true,
                    );
                } else {
                    conns.push_back(stream);
                    drop(conns);
                    shared.conns_ready.notify_one();
                }
            }
            // Non-blocking accept: sleep briefly so shutdown stays
            // responsive without spinning a core.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn conn_worker<H>(shared: &Shared, route: &H)
where
    H: Fn(&mut Exchange<'_>, &Request) -> After,
{
    loop {
        let stream = {
            let mut conns = lock(&shared.conns);
            loop {
                if let Some(s) = conns.pop_front() {
                    break Some(s);
                }
                // Drain semantics: accepted connections are served even
                // after shutdown starts; only an *empty* backlog lets a
                // worker exit.
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                conns = shared
                    .conns_ready
                    .wait_timeout(conns, Duration::from_millis(100))
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .0;
            }
        };
        let Some(stream) = stream else { return };
        handle_connection(Conn::new(stream), shared, route);
    }
}

fn handle_connection<H>(mut conn: Conn, shared: &Shared, route: &H)
where
    H: Fn(&mut Exchange<'_>, &Request) -> After,
{
    // Short read timeout so the parse loop can poll the shutdown flag and
    // the idle deadline between reads.
    if conn
        .stream()
        .set_read_timeout(Some(Duration::from_millis(100)))
        .is_err()
    {
        return;
    }
    let cfg = &shared.cfg;
    let mut idle_deadline = Instant::now() + cfg.idle_keepalive;
    // Set once the first bytes of a request are in: a slow upload is
    // bounded by the request deadline (then 408), never by the shorter
    // idle-keep-alive deadline.
    let mut receive_deadline: Option<Instant> = None;
    loop {
        let received = conn.read_request(cfg.max_body_bytes);
        let mut ex = Exchange {
            conn: &mut conn,
            shared,
        };
        match received {
            Ok(req) => {
                receive_deadline = None;
                shared.counters.requests.fetch_add(1, Ordering::Relaxed);
                match route(&mut ex, &req) {
                    After::KeepAlive if !req.close && !shared.shutdown.load(Ordering::Acquire) => {
                        idle_deadline = Instant::now() + cfg.idle_keepalive;
                    }
                    _ => return,
                }
            }
            Err(RecvError::Idle) => {
                if ex.conn.has_partial() {
                    let deadline = *receive_deadline
                        .get_or_insert_with(|| Instant::now() + cfg.request_deadline);
                    if Instant::now() >= deadline {
                        let body = wire::error_body(
                            "request_timeout",
                            "request not received within the deadline",
                        );
                        ex.respond(408, &[], &body, true);
                        return;
                    }
                } else {
                    receive_deadline = None;
                    if shared.shutdown.load(Ordering::Acquire) || Instant::now() >= idle_deadline {
                        return;
                    }
                }
            }
            Err(RecvError::Closed) | Err(RecvError::Io(_)) => return,
            Err(RecvError::Bad(msg)) => {
                ex.respond(400, &[], &wire::error_body("bad_request", &msg), true);
                return;
            }
            Err(RecvError::TooLarge { limit }) => {
                let msg = format!("request body exceeds {limit} bytes");
                ex.respond(413, &[], &wire::error_body("payload_too_large", &msg), true);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pipe() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn parses_two_pipelined_requests() {
        let (mut client, server) = pipe();
        client
            .write_all(
                b"POST /v1/explain HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi\
                  GET /healthz HTTP/1.1\r\n\r\n",
            )
            .unwrap();
        let mut conn = Conn::new(server);
        let first = conn.read_request(1024).unwrap();
        assert_eq!(first.method, "POST");
        assert_eq!(first.path, "/v1/explain");
        assert_eq!(first.body, b"hi");
        assert!(!first.close);
        let second = conn.read_request(1024).unwrap();
        assert_eq!(second.method, "GET");
        assert_eq!(second.path, "/healthz");
        assert!(second.body.is_empty());
    }

    #[test]
    fn rejects_oversized_body_and_garbage() {
        let (mut client, server) = pipe();
        client
            .write_all(b"POST /x HTTP/1.1\r\nContent-Length: 99\r\n\r\n")
            .unwrap();
        let mut conn = Conn::new(server);
        assert!(matches!(
            conn.read_request(10),
            Err(RecvError::TooLarge { limit: 10 })
        ));

        let (mut client, server) = pipe();
        client.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let mut conn = Conn::new(server);
        assert!(matches!(conn.read_request(10), Err(RecvError::Bad(_))));
    }

    /// Ambiguous framing is a request-smuggling vector behind proxies:
    /// duplicate Content-Length headers must be rejected outright.
    #[test]
    fn rejects_duplicate_content_length() {
        let (mut client, server) = pipe();
        client
            .write_all(b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi")
            .unwrap();
        let mut conn = Conn::new(server);
        assert!(matches!(conn.read_request(10), Err(RecvError::Bad(_))));
    }

    #[test]
    fn clean_eof_is_closed_midway_is_bad() {
        let (client, server) = pipe();
        drop(client);
        let mut conn = Conn::new(server);
        assert!(matches!(conn.read_request(10), Err(RecvError::Closed)));

        let (mut client, server) = pipe();
        client.write_all(b"GET /healthz HT").unwrap();
        drop(client);
        let mut conn = Conn::new(server);
        assert!(matches!(conn.read_request(10), Err(RecvError::Bad(_))));
    }

    #[test]
    fn connection_close_header_detected() {
        let (mut client, server) = pipe();
        client
            .write_all(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let req = Conn::new(server).read_request(10).unwrap();
        assert!(req.close);
    }

    #[test]
    fn peer_closed_probe() {
        let (client, server) = pipe();
        let mut conn = Conn::new(server);
        assert!(!conn.peer_closed(), "live peer");
        drop(client);
        assert!(conn.peer_closed(), "dropped peer");
    }
}
