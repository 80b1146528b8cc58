//! A small threaded HTTP/1.1 server on `std::net` only.
//!
//! The offline build environment has no async stack, so the web backend
//! runs on plain blocking sockets: one acceptor thread blocks in
//! `accept()`, so a request is picked up the moment it connects, and each
//! accepted connection is handled on its own short-lived thread —
//! handlers may block for seconds on an engine query without stalling
//! other dashboard clients. To stop, [`HttpServer::stop`] sets a flag and
//! dials the server's own address once (loopback when bound to `0.0.0.0`
//! or `::`); the acceptor wakes, sees the flag and exits. Every response
//! carries `Content-Length` and `Connection: close`, which both browsers
//! and the in-tree [`client`](crate::client) handle.
//!
//! The server is hardened against misbehaving peers and handlers
//! ([`HttpConfig`]): request heads and bodies are size-bounded (`413`),
//! a stalled client trips the per-connection read timeout (`408`), a
//! panicking handler becomes a `500` without killing the server, and
//! dropping the server force-closes live connections so shutdown is
//! bounded even with an idle client attached. At most 64 connection
//! threads live at once; the acceptor answers a connection over that cap
//! itself with `503 {"error":"server busy"}` and spawns nothing. That 503
//! is the transport shedding load; a route answers 503 with the engine's
//! error when its query to the simulation fails.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Transport limits and timeouts for [`HttpServer::serve_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpConfig {
    /// How long a connection may sit idle while we wait for (more of) the
    /// request before answering `408 Request Timeout`.
    pub read_timeout: Duration,
    /// Socket write timeout for the response.
    pub write_timeout: Duration,
    /// Largest accepted request body; a larger `Content-Length` is
    /// answered `413 Payload Too Large` without reading the body.
    pub max_body: usize,
    /// Largest accepted request head (request line + headers combined);
    /// exceeding it is answered `413`.
    pub max_header: usize,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_body: 1024 * 1024,
            max_header: 16 * 1024,
        }
    }
}

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Upper-case method, e.g. `GET`.
    pub method: String,
    /// Percent-decoded path without the query string, e.g. `/api/status`.
    pub path: String,
    /// Percent-decoded query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Raw request body.
    pub body: Vec<u8>,
}

impl Request {
    /// The first query parameter named `name`, if present.
    ///
    /// When a key is repeated (`?a=1&a=2`) the *first* occurrence wins;
    /// later duplicates stay visible in [`Request::query`] for handlers
    /// that want them. A bare key (`?flag`) and an explicit empty value
    /// (`?format=`) both return `Some("")`.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Parses the body as JSON into `T`.
    ///
    /// # Errors
    ///
    /// Propagates UTF-8 and JSON errors as a message suitable for a 400.
    pub fn json_body<T: serde::Deserialize>(&self) -> Result<T, String> {
        let text = std::str::from_utf8(&self.body).map_err(|e| e.to_string())?;
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

/// An HTTP response under construction.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers appended verbatim after the standard set (e.g.
    /// `Allow` on a 405).
    pub headers: Vec<(&'static str, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    ///
    /// Serialization failure does not panic the connection thread: it
    /// degrades to a `500` whose body names the error.
    pub fn json(status: u16, value: &impl serde::Serialize) -> Response {
        match serde_json::to_string(value) {
            Ok(body) => Response {
                status,
                content_type: "application/json",
                headers: Vec::new(),
                body: body.into_bytes(),
            },
            Err(e) => Response::error_500(&format!("response serialization failed: {e}")),
        }
    }

    /// A `500 Internal Server Error` with a JSON error body. The message
    /// is JSON-escaped by hand so this path cannot itself fail.
    pub fn error_500(message: &str) -> Response {
        let escaped = serde_json::to_string(message)
            .unwrap_or_else(|_| "\"internal server error\"".to_owned());
        Response {
            status: 500,
            content_type: "application/json",
            headers: Vec::new(),
            body: format!("{{\"error\":{escaped}}}").into_bytes(),
        }
    }

    /// A `200 OK` HTML response.
    pub fn html(body: &str) -> Response {
        Response {
            status: 200,
            content_type: "text/html; charset=utf-8",
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    /// A plain-text response with the given status (used by the
    /// Prometheus scrape endpoint).
    pub fn text(status: u16, body: &str) -> Response {
        Response {
            status,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    /// Appends an extra header, builder style.
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.headers.push((name, value.into()));
        self
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    fn head(&self) -> String {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        head
    }

    fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        stream.write_all(self.head().as_bytes())?;
        stream.write_all(&self.body)
    }
}

/// Decodes `%XX` escapes in a URL *path* component.
///
/// `+` is left alone: the form-encoding "plus means space" rule applies
/// only to query strings ([`percent_decode_query`]). Decoding it here
/// made any component whose name contains a literal `+` (e.g. the paper's
/// `SA0+SA1.Mux` shared mux) unreachable via `/api/component/<name>`.
#[must_use]
pub fn percent_decode(s: &str) -> String {
    decode_bytes(s, false)
}

/// Decodes `%XX` escapes and `+`-as-space in a query-string component.
#[must_use]
pub fn percent_decode_query(s: &str) -> String {
    decode_bytes(s, true)
}

fn decode_bytes(s: &str, plus_as_space: bool) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    std::str::from_utf8(h)
                        .ok()
                        .and_then(|h| u8::from_str_radix(h, 16).ok())
                });
                if let Some(b) = hex {
                    out.push(b);
                    i += 3;
                } else {
                    out.push(b'%');
                    i += 1;
                }
            }
            b'+' if plus_as_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Splits a raw query string into decoded `(key, value)` pairs.
///
/// Empty pairs (`a&&b`, a trailing `&`) are skipped; a key without `=`
/// (`?flag`) and a key with an empty value (`?format=`) both yield an
/// empty-string value; repeated keys are all kept, in order of
/// appearance, so [`Request::query_param`]'s first-wins rule applies.
fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode_query(k), percent_decode_query(v)),
            None => (percent_decode_query(pair), String::new()),
        })
        .collect()
}

/// Why a request could not be read off the wire, mapped to a response
/// status in [`handle_connection`].
enum ReadError {
    /// Head or declared body exceeds the configured bound → 413.
    TooLarge(String),
    /// The client went quiet mid-request → 408.
    Timeout,
    /// Syntactically broken request line / truncated head → 400.
    Malformed(&'static str),
    /// Transport error (peer reset, etc.); nothing useful to answer.
    Io,
}

fn classify_io(e: &std::io::Error) -> ReadError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ReadError::Timeout,
        _ => ReadError::Io,
    }
}

fn read_request(stream: &mut TcpStream, config: &HttpConfig) -> Result<Request, ReadError> {
    // The head is read through a hard `Take` bound so a peer streaming an
    // endless header (or a request line with no newline) can never grow
    // our buffers past `max_header`.
    let raw = stream.try_clone().map_err(|_| ReadError::Io)?;
    let mut reader = BufReader::new(raw.take(config.max_header as u64));
    let mut consumed = 0usize;

    let mut request_line = String::new();
    let n = reader
        .read_line(&mut request_line)
        .map_err(|e| classify_io(&e))?;
    consumed += n;
    if !request_line.ends_with('\n') {
        return Err(if consumed >= config.max_header {
            ReadError::TooLarge(format!("request head exceeds {} bytes", config.max_header))
        } else {
            ReadError::Malformed("truncated request line")
        });
    }
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or(ReadError::Malformed("missing method"))?
        .to_ascii_uppercase();
    let target = parts.next().ok_or(ReadError::Malformed("missing target"))?;
    let (path_raw, query_raw) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let path = percent_decode(path_raw);
    let query = parse_query(query_raw);

    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).map_err(|e| classify_io(&e))?;
        consumed += n;
        if !line.ends_with('\n') {
            return Err(if consumed >= config.max_header {
                ReadError::TooLarge(format!("request head exceeds {} bytes", config.max_header))
            } else {
                ReadError::Malformed("truncated header section")
            });
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            }
        }
    }

    if content_length > config.max_body {
        return Err(ReadError::TooLarge(format!(
            "request body of {content_length} bytes exceeds the {} byte limit",
            config.max_body
        )));
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        // Widen the remaining `Take` allowance to cover the (validated)
        // body; part of it may already sit in the BufReader's buffer.
        reader.get_mut().set_limit(content_length as u64);
        reader.read_exact(&mut body).map_err(|e| classify_io(&e))?;
    }

    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

/// Most connection threads alive at once; the acceptor sheds the rest
/// with a `503`. A dashboard opens a handful at a time, so only a flood
/// reaches this.
const MAX_CONNECTIONS: usize = 64;

/// The live-connection registry: one stream clone per connection thread,
/// which the server shuts down to unblock that thread at stop time. Its
/// length is the number of live connection threads.
#[derive(Debug, Default)]
struct Connections {
    next_id: AtomicU64,
    streams: Mutex<Vec<(u64, TcpStream)>>,
}

impl Connections {
    /// Registers `stream` for a new connection thread. `None` when
    /// [`MAX_CONNECTIONS`] threads are live or the stream cannot be
    /// cloned: an unregistered thread could outlive `stop()` by a whole
    /// read timeout, so the caller must not spawn one.
    fn admit(&self, stream: &TcpStream) -> Option<u64> {
        let mut streams = self.streams.lock().unwrap_or_else(PoisonError::into_inner);
        if streams.len() >= MAX_CONNECTIONS {
            return None;
        }
        let clone = stream.try_clone().ok()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        streams.push((id, clone));
        Some(id)
    }

    fn deregister(&self, id: u64) {
        self.streams
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|(i, _)| *i != id);
    }

    fn shutdown_all(&self) {
        for (_, s) in self
            .streams
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// A running HTTP server. [`HttpServer::stop`] (also called on drop)
/// force-closes live connections, so shutdown is bounded even while a
/// client is attached and idle.
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    conns: Arc<Connections>,
    thread: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` and serves `handler` on a background acceptor thread
    /// with the default [`HttpConfig`].
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn serve<H>(addr: SocketAddr, handler: H) -> std::io::Result<HttpServer>
    where
        H: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        HttpServer::serve_with(addr, HttpConfig::default(), handler)
    }

    /// Binds `addr` and serves `handler` with explicit transport limits.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn serve_with<H>(
        addr: SocketAddr,
        config: HttpConfig,
        handler: H,
    ) -> std::io::Result<HttpServer>
    where
        H: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(Connections::default());
        let stop_flag = Arc::clone(&stop);
        let conns_flag = Arc::clone(&conns);
        let handler = Arc::new(handler);
        let thread = std::thread::Builder::new()
            .name("rtm-server".into())
            .spawn(move || accept_loop(&listener, &stop_flag, &conns_flag, config, &handler))?;
        Ok(HttpServer {
            addr: local,
            stop,
            conns,
            thread: Some(thread),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals the acceptor to stop, force-closes live connections, wakes
    /// the acceptor with one connection of its own, and joins every
    /// connection thread. Bounded: blocked reads and writes error out
    /// immediately once their sockets are shut down.
    pub fn stop(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        self.conns.shutdown_all();
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        // The acceptor exits on the next connection it accepts, this one
        // or any other; while it backs off from an accept error it checks
        // the flag again before it blocks.
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
        let _ = thread.join();
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop<H>(
    listener: &TcpListener,
    stop: &AtomicBool,
    conns: &Arc<Connections>,
    config: HttpConfig,
    handler: &Arc<H>,
) where
    H: Fn(&Request) -> Response + Send + Sync + 'static,
{
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        let Ok((stream, _)) = listener.accept() else {
            // E.g. `EMFILE`: the pending connection stays queued, so back
            // off instead of spinning on the same error.
            std::thread::sleep(Duration::from_millis(5));
            continue;
        };
        if stop.load(Ordering::SeqCst) {
            break;
        }
        // Registered before the spawn: see the `shutdown_all` below.
        let Some(id) = conns.admit(&stream) else {
            shed(stream);
            continue;
        };
        let handler = Arc::clone(handler);
        let conns2 = Arc::clone(conns);
        // One short-lived thread per connection: handlers may block on the
        // engine's reply without holding up other clients.
        let spawned = std::thread::Builder::new()
            .name("rtm-conn".into())
            .spawn(move || {
                handle_connection(stream, config, &*handler);
                conns2.deregister(id);
            });
        match spawned {
            Ok(h) => workers.push(h),
            Err(_) => conns.deregister(id),
        }
        workers.retain(|h| !h.is_finished());
    }
    // Every admitted stream was registered on this thread, so this reaches
    // all of them, also any admitted after stop()'s own shutdown; reads
    // and writes in flight then fail fast, so the join is bounded.
    conns.shutdown_all();
    for h in workers {
        let _ = h.join();
    }
}

/// Answers a connection over [`MAX_CONNECTIONS`] on the acceptor thread:
/// a `503` under a short write timeout, then a FIN, so the client reads
/// the whole answer even if the request it sent is never read.
fn shed(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let busy = Response::json(503, &serde_json::json!({ "error": "server busy" }));
    let _ = busy.write_to(&mut stream);
    let _ = stream.shutdown(std::net::Shutdown::Write);
}

fn handle_connection<H>(mut stream: TcpStream, config: HttpConfig, handler: &H)
where
    H: Fn(&Request) -> Response,
{
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let _ = stream.set_nodelay(true);
    let response = match read_request(&mut stream, &config) {
        Ok(request) => {
            // A panicking route handler answers 500 and leaves the server
            // (and every other connection) alive.
            match std::panic::catch_unwind(AssertUnwindSafe(|| handler(&request))) {
                Ok(response) => Some(response),
                Err(_) => Some(Response::error_500("handler panicked")),
            }
        }
        Err(ReadError::TooLarge(detail)) => {
            Some(Response::json(413, &serde_json::json!({ "error": detail })))
        }
        Err(ReadError::Timeout) => Some(Response::json(
            408,
            &serde_json::json!({ "error": "timed out reading the request" }),
        )),
        Err(ReadError::Malformed(detail)) => {
            Some(Response::json(400, &serde_json::json!({ "error": detail })))
        }
        Err(ReadError::Io) => None,
    };
    if let Some(response) = response {
        let _ = response.write_to(&mut stream);
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("GPU%5B0%5D.L2%5B1%5D"), "GPU[0].L2[1]");
        // `+` is a literal in paths — only `%20` means space there. The
        // old behavior (`+` → space everywhere) made component names
        // containing `+` unreachable.
        assert_eq!(percent_decode("a+b%20c"), "a+b c");
        assert_eq!(percent_decode("plain"), "plain");
        assert_eq!(percent_decode("bad%zz"), "bad%zz");
    }

    #[test]
    fn plus_in_path_survives_decoding() {
        // Regression: the paper's shared-mux naming (`SA0+SA1.Mux`) must
        // round-trip through a path segment untouched.
        assert_eq!(percent_decode("SA0+SA1.Mux"), "SA0+SA1.Mux");
        assert_eq!(
            percent_decode("/api/component/GPU%5B0%5D.SA0+SA1.Mux"),
            "/api/component/GPU[0].SA0+SA1.Mux"
        );
        // In query strings `+` still means space (form encoding).
        assert_eq!(percent_decode_query("a+b%20c"), "a b c");
        let q = parse_query("name=SA0%2BSA1.Mux&q=a+b");
        assert_eq!(q[0], ("name".to_string(), "SA0+SA1.Mux".to_string()));
        assert_eq!(q[1], ("q".to_string(), "a b".to_string()));
    }

    #[test]
    fn query_parsing() {
        let q = parse_query("name=GPU%5B0%5D&top=5&flag");
        assert_eq!(q[0], ("name".to_string(), "GPU[0]".to_string()));
        assert_eq!(q[1], ("top".to_string(), "5".to_string()));
        assert_eq!(q[2], ("flag".to_string(), String::new()));
    }

    #[test]
    fn query_parsing_edge_cases() {
        // Explicit empty value vs bare key: both decode to "".
        let q = parse_query("format=&x=1");
        assert_eq!(q[0], ("format".to_string(), String::new()));
        assert_eq!(q[1], ("x".to_string(), "1".to_string()));

        // Repeated key: both occurrences kept, in order.
        let q = parse_query("a&a=2");
        assert_eq!(q[0], ("a".to_string(), String::new()));
        assert_eq!(q[1], ("a".to_string(), "2".to_string()));

        // Trailing `&` and doubled `&&` produce no phantom pairs.
        let q = parse_query("a=1&");
        assert_eq!(q, vec![("a".to_string(), "1".to_string())]);
        let q = parse_query("a=1&&b=2");
        assert_eq!(q.len(), 2);
        assert_eq!(parse_query(""), vec![]);
        assert_eq!(parse_query("&"), vec![]);
    }

    #[test]
    fn query_param_is_first_wins() {
        let req = Request {
            method: "GET".into(),
            path: "/api/trace".into(),
            query: parse_query("format=&format=chrome&x=1"),
            body: Vec::new(),
        };
        assert_eq!(req.query_param("format"), Some(""));
        assert_eq!(req.query_param("x"), Some("1"));
        assert_eq!(req.query_param("missing"), None);
    }

    #[test]
    fn extra_headers_serialize_before_the_blank_line() {
        let rsp = Response::json(405, &serde_json::json!({ "error": "nope" }))
            .with_header("Allow", "GET, POST");
        let head = rsp.head();
        assert!(
            head.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"),
            "{head}"
        );
        assert!(head.contains("\r\nAllow: GET, POST\r\n"), "{head}");
        assert!(head.ends_with("\r\n\r\n"), "{head}");
        // Exactly one blank line, at the end of the head.
        assert_eq!(head.matches("\r\n\r\n").count(), 1, "{head}");
    }

    #[test]
    fn wrong_method_on_known_path_is_405_with_allow_end_to_end() {
        // A handler shaped like the real route table's fallback: the server
        // plumbing must carry the Allow header through to the wire.
        let server = HttpServer::serve("127.0.0.1:0".parse().unwrap(), |req: &Request| {
            match (req.method.as_str(), req.path.as_str()) {
                ("GET", "/known") => Response::text(200, "ok"),
                (_, "/known") => Response::json(405, &serde_json::json!({ "error": "method" }))
                    .with_header("Allow", "GET"),
                _ => Response::json(404, &serde_json::json!({ "error": "path" })),
            }
        })
        .expect("bind");
        let addr = server.addr();
        let ok = crate::client::get(addr, "/known").expect("get");
        assert_eq!(ok.status, 200);
        let wrong = crate::client::post(addr, "/known", None).expect("post");
        assert_eq!(wrong.status, 405);
        let missing = crate::client::get(addr, "/nope").expect("get");
        assert_eq!(missing.status, 404);
        let mut server = server;
        server.stop();
    }

    fn echo_server(config: HttpConfig) -> HttpServer {
        HttpServer::serve_with("127.0.0.1:0".parse().unwrap(), config, |req: &Request| {
            Response::text(200, &format!("{} bytes", req.body.len()))
        })
        .expect("bind")
    }

    fn raw_roundtrip(addr: SocketAddr, request: &[u8]) -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(request).expect("write");
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        out
    }

    #[test]
    fn oversized_declared_body_is_413_without_reading_it() {
        let server = echo_server(HttpConfig {
            max_body: 64,
            ..HttpConfig::default()
        });
        // Only the head is sent: the 413 must come from the declaration.
        let rsp = raw_roundtrip(
            server.addr(),
            b"POST /x HTTP/1.1\r\nContent-Length: 100000\r\n\r\n",
        );
        assert!(rsp.starts_with("HTTP/1.1 413 "), "{rsp}");
    }

    #[test]
    fn in_bounds_body_still_round_trips() {
        let server = echo_server(HttpConfig {
            max_body: 64,
            ..HttpConfig::default()
        });
        let rsp = raw_roundtrip(
            server.addr(),
            b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
        );
        assert!(rsp.starts_with("HTTP/1.1 200 "), "{rsp}");
        assert!(rsp.ends_with("5 bytes"), "{rsp}");
    }

    #[test]
    fn oversized_head_is_413_even_without_a_newline() {
        let server = echo_server(HttpConfig {
            max_header: 256,
            ..HttpConfig::default()
        });
        // A request line that never ends: the Take bound must cut it off.
        let mut req = b"GET /".to_vec();
        req.extend(std::iter::repeat_n(b'a', 4096));
        let rsp = raw_roundtrip(server.addr(), &req);
        assert!(rsp.starts_with("HTTP/1.1 413 "), "{rsp}");
    }

    #[test]
    fn silent_client_gets_408_within_the_read_timeout() {
        let server = echo_server(HttpConfig {
            read_timeout: Duration::from_millis(50),
            ..HttpConfig::default()
        });
        let start = Instant::now();
        let rsp = raw_roundtrip(server.addr(), b"GET /never-finished");
        assert!(rsp.starts_with("HTTP/1.1 408 "), "{rsp}");
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn panicking_handler_is_a_500_and_the_server_survives() {
        let server = HttpServer::serve("127.0.0.1:0".parse().unwrap(), |req: &Request| {
            if req.path == "/boom" {
                panic!("handler bug");
            }
            Response::text(200, "fine")
        })
        .expect("bind");
        let addr = server.addr();
        let boom = crate::client::get(addr, "/boom").expect("get");
        assert_eq!(boom.status, 500);
        assert!(boom.body.contains("handler panicked"), "{}", boom.body);
        let after = crate::client::get(addr, "/ok").expect("get");
        assert_eq!(after.status, 200);
    }

    /// Satellite: dropping the server with a live idle client attached
    /// must not wait out the 10 s read timeout — stop() force-closes the
    /// connection and joins its thread.
    #[test]
    fn drop_with_live_idle_client_is_bounded() {
        let server = echo_server(HttpConfig::default());
        let addr = server.addr();
        let idle = TcpStream::connect(addr).expect("connect");
        // Let the acceptor pick the connection up before dropping.
        std::thread::sleep(Duration::from_millis(100));
        let start = Instant::now();
        drop(server);
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "drop took {:?} with an idle client attached",
            start.elapsed()
        );
        drop(idle);
    }

    /// Closes the race where a connection thread registered itself after
    /// stop() had shut the registered sockets down, and then sat out its
    /// whole read timeout on an idle peer.
    #[test]
    fn dropping_right_after_an_idle_client_connects_is_bounded() {
        for round in 0..50 {
            let server = echo_server(HttpConfig::default());
            let idle = TcpStream::connect(server.addr()).expect("connect");
            let start = Instant::now();
            drop(server);
            assert!(
                start.elapsed() < Duration::from_secs(1),
                "round {round}: drop took {:?}",
                start.elapsed()
            );
            drop(idle);
        }
    }

    /// The acceptor wakes on connect: a request is not delayed by a poll.
    #[test]
    fn sequential_round_trips_are_not_paced_by_the_acceptor() {
        let server = echo_server(HttpConfig::default());
        let addr = server.addr();
        let start = Instant::now();
        for _ in 0..100 {
            let rsp = crate::client::get(addr, "/").expect("get");
            assert_eq!(rsp.status, 200);
        }
        assert!(
            start.elapsed() < Duration::from_millis(200),
            "100 round trips took {:?}",
            start.elapsed()
        );
    }

    /// A server bound to `0.0.0.0` or `::` stops promptly with an idle
    /// client attached: stop() wakes its acceptor through loopback.
    fn assert_unspecified_bind_stops_promptly(server: HttpServer, loopback: std::net::IpAddr) {
        let addr = SocketAddr::new(loopback, server.addr().port());
        assert_eq!(crate::client::get(addr, "/").expect("get").status, 200);
        let idle = TcpStream::connect(addr).expect("connect");
        let start = Instant::now();
        drop(server);
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "drop took {:?}",
            start.elapsed()
        );
        drop(idle);
    }

    #[test]
    fn unspecified_ipv4_bind_stops_promptly() {
        let server = HttpServer::serve("0.0.0.0:0".parse().unwrap(), |_: &Request| {
            Response::text(200, "ok")
        })
        .expect("bind");
        assert_unspecified_bind_stops_promptly(server, Ipv4Addr::LOCALHOST.into());
    }

    #[test]
    fn unspecified_ipv6_bind_stops_promptly() {
        let Ok(server) = HttpServer::serve("[::]:0".parse().unwrap(), |_: &Request| {
            Response::text(200, "ok")
        }) else {
            eprintln!("skipped: this host cannot bind [::]");
            return;
        };
        assert_unspecified_bind_stops_promptly(server, Ipv6Addr::LOCALHOST.into());
    }

    /// Over [`MAX_CONNECTIONS`] live connections the acceptor answers 503
    /// itself; once they close, requests are served again.
    #[test]
    fn connections_over_the_cap_are_shed_with_503() {
        let server = echo_server(HttpConfig::default());
        let addr = server.addr();
        // The acceptor takes connections in order, so these 64 are admitted
        // before the request below is.
        let idle: Vec<TcpStream> = (0..MAX_CONNECTIONS)
            .map(|_| TcpStream::connect(addr).expect("connect"))
            .collect();
        let start = Instant::now();
        let busy = crate::client::get(addr, "/").expect("get");
        assert_eq!(busy.status, 503, "{}", busy.body);
        assert_eq!(busy.body, r#"{"error":"server busy"}"#);
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "{:?}",
            start.elapsed()
        );

        drop(idle);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let rsp = crate::client::get(addr, "/").expect("get");
            if rsp.status == 200 {
                break;
            }
            assert_eq!(rsp.status, 503, "{}", rsp.body);
            assert!(
                Instant::now() < deadline,
                "still shedding after the idle clients left"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}
