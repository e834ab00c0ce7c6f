//! A tiny std-only HTTP endpoint: metrics scraping plus caller routes.
//!
//! [`MetricsServer::start`] binds a [`TcpListener`] (bind to port 0 for an
//! ephemeral port) and serves the built-in endpoints from a background
//! thread:
//!
//! - `GET /metrics` — the Prometheus text rendering of the registry
//!   ([`crate::export::render_prometheus`]);
//! - `GET /healthz` — `200 ok`, for liveness probes;
//! - `POST /shutdown` — flags a graceful-shutdown request the hosting
//!   daemon polls via [`MetricsServer::shutdown_requested`] (the server
//!   itself keeps serving until the daemon stops it, so metrics stay
//!   scrapeable while it drains).
//!
//! Given a [`Handler`], the server routes every request the built-ins do
//! not claim through it — how the serve daemon mounts its `/submit`,
//! `/job/{id}` and `/tenants` API without this crate knowing anything
//! about scheduling. The handler receives the parsed [`HttpRequest`]
//! (method, path, body — bodies are read when a `Content-Length` header
//! is present, capped at [`MAX_BODY_BYTES`]) and returns an
//! [`HttpResponse`], or `None` to fall through to the normalized 404.
//!
//! Every error the server produces itself — unknown path, wrong method on
//! a built-in, unreadable request, oversized body, a handler that panics
//! (`500 internal_error`, after which the accept thread keeps serving) —
//! is a **normalized error response**: a flat JSON body
//! `{"error":CODE,"detail":TEXT}` (built with
//! [`crate::json::ObjectWriter`]) served with the same
//! `Content-Type`/`Content-Length`/`Connection: close` header set as
//! every success response, so clients can parse failures uniformly.
//!
//! The server speaks just enough HTTP/1.1 for `curl` and a Prometheus
//! scraper: it reads one request, answers with `Connection: close` and
//! drops the socket. Dropping (or calling [`MetricsServer::stop`]) shuts
//! the accept loop down promptly by flagging it and poking a final
//! connection through it. [`MetricsServer::start`] retries a failed bind
//! with doubling backoff — for daemons restarting into a port still in
//! `TIME_WAIT`.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::export::render_prometheus;
use crate::json::ObjectWriter;
use crate::metrics::{Metrics, MetricsRegistry};

/// Per-connection socket timeout: a stalled client cannot wedge the
/// single-threaded accept loop for longer than this.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// The sleep before [`MetricsServer::start`]'s second bind attempt; it
/// doubles before each later one.
pub const BIND_BACKOFF: Duration = Duration::from_millis(200);

/// Largest request body the server reads; anything bigger is refused
/// with a `413` error response before the body is consumed.
pub const MAX_BODY_BYTES: u64 = 64 * 1024;

/// One parsed HTTP request, as handed to a [`Handler`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// The request method, uppercased by the client (`GET`, `POST`, …).
    pub method: String,
    /// The request path including any query string, e.g. `/job/3`.
    pub path: String,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: String,
}

/// One HTTP response a [`Handler`] (or the server itself) produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// The status code (200, 404, 429, …).
    pub status: u16,
    /// The `Content-Type` header value.
    pub content_type: String,
    /// The response body.
    pub body: String,
}

impl HttpResponse {
    /// A `200` response with a JSON body.
    #[must_use]
    pub fn json(body: String) -> Self {
        Self::ok("application/json", body)
    }

    /// A `200` response with a newline-delimited JSON body.
    #[must_use]
    pub fn ndjson(body: String) -> Self {
        Self::ok("application/x-ndjson", body)
    }

    /// A `200` response with a plain-text body.
    #[must_use]
    pub fn text(body: String) -> Self {
        Self::ok("text/plain; charset=utf-8", body)
    }

    fn ok(content_type: &str, body: String) -> Self {
        HttpResponse {
            status: 200,
            content_type: content_type.to_owned(),
            body,
        }
    }

    /// The normalized error shape: `{"error":CODE,"detail":DETAIL}` under
    /// the given status, `application/json`. Every error the server emits
    /// itself goes through here; handlers are encouraged to do the same.
    #[must_use]
    pub fn error(status: u16, code: &str, detail: &str) -> Self {
        let mut body = ObjectWriter::new();
        body.str_field("error", code);
        body.str_field("detail", detail);
        HttpResponse {
            status,
            content_type: "application/json".to_owned(),
            body: body.finish() + "\n",
        }
    }

    /// The standard reason phrase for this response's status code.
    #[must_use]
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            201 => "Created",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }
}

/// A caller-supplied route table: inspects a request and either claims it
/// with a response or returns `None` to fall through to the normalized
/// 404. Runs on the server thread, one request at a time.
pub type Handler = dyn Fn(&HttpRequest) -> Option<HttpResponse> + Send + Sync;

/// A background HTTP server exposing `/metrics`, `/healthz`, `/shutdown`
/// and any routes its [`Handler`] claims.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use slotsel_obs::http::MetricsServer;
/// use slotsel_obs::metrics::{Metrics, MetricsRegistry};
///
/// let registry = Arc::new(MetricsRegistry::new());
/// registry.counter_add("up_total", &[], 1);
/// let server = MetricsServer::start("127.0.0.1:0", Arc::clone(&registry), None, 1).unwrap();
/// assert_ne!(server.addr().port(), 0);
/// server.stop();
/// ```
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    requested: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving the registry from a background thread. `handler`
    /// gets every request the built-in routes do not claim. A failed bind
    /// is retried, `attempts` binds in all (at least one), sleeping
    /// [`BIND_BACKOFF`] before the second and doubling it each time after:
    /// a restarting daemon may race its predecessor's socket in
    /// `TIME_WAIT`.
    ///
    /// # Errors
    ///
    /// Returns the *last* bind error once the attempts are exhausted.
    pub fn start(
        addr: impl ToSocketAddrs + Clone,
        registry: Arc<MetricsRegistry>,
        handler: Option<Arc<Handler>>,
        attempts: u32,
    ) -> io::Result<Self> {
        let mut backoff = BIND_BACKOFF;
        for _ in 1..attempts {
            match Self::bind(addr.clone(), Arc::clone(&registry), handler.clone()) {
                Ok(server) => return Ok(server),
                Err(_) => std::thread::sleep(backoff),
            }
            backoff = backoff.saturating_mul(2);
        }
        Self::bind(addr, registry, handler)
    }

    fn bind(
        addr: impl ToSocketAddrs,
        registry: Arc<MetricsRegistry>,
        handler: Option<Arc<Handler>>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let requested = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let wanted = Arc::clone(&requested);
        let handle = std::thread::Builder::new()
            .name("slotsel-metrics".to_owned())
            .spawn(move || accept_loop(&listener, &registry, &flag, &wanted, handler.as_deref()))?;
        Ok(MetricsServer {
            addr,
            shutdown,
            requested,
            handle: Some(handle),
        })
    }

    /// The bound address — the actual port when started on port 0.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a client has requested a graceful shutdown via the
    /// `/shutdown` endpoint. The hosting daemon polls this between units
    /// of work; the server keeps serving until stopped or dropped.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.requested.load(Ordering::SeqCst)
    }

    /// Shuts the accept loop down and joins the server thread.
    pub fn stop(mut self) {
        self.shutdown_and_join();
    }

    fn shutdown_and_join(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept call; the loop re-checks the flag first thing.
        drop(TcpStream::connect(self.addr));
        drop(handle.join());
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

fn accept_loop(
    listener: &TcpListener,
    registry: &MetricsRegistry,
    shutdown: &AtomicBool,
    requested: &AtomicBool,
    handler: Option<&Handler>,
) {
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        // One stalled or malformed client must not take the endpoint down.
        drop(handle_connection(stream, registry, requested, handler));
    }
}

/// Reads one request head (and body, when a `Content-Length` is present)
/// from `reader`. Returns `Err(response)` with the normalized error to
/// send when the request cannot be read.
fn read_request<R: BufRead>(reader: &mut R) -> Result<HttpRequest, HttpResponse> {
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() || request_line.trim().is_empty() {
        return Err(HttpResponse::error(
            400,
            "bad_request",
            "unreadable or empty request line",
        ));
    }
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Err(HttpResponse::error(
            400,
            "bad_request",
            "malformed request line",
        ));
    };
    let method = method.to_owned();
    let path = path.to_owned();

    // Drain the header block, capturing Content-Length on the way.
    let mut content_length: u64 = 0;
    let mut header = String::new();
    loop {
        header.clear();
        match reader.read_line(&mut header) {
            Ok(0) => break,
            Ok(_) if header.trim_end().is_empty() => break,
            Ok(_) => {
                if let Some((name, value)) = header.split_once(':') {
                    if name.trim().eq_ignore_ascii_case("content-length") {
                        content_length = value.trim().parse().map_err(|_| {
                            HttpResponse::error(400, "bad_request", "malformed Content-Length")
                        })?;
                    }
                }
            }
            Err(_) => {
                return Err(HttpResponse::error(
                    400,
                    "bad_request",
                    "unreadable header block",
                ))
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpResponse::error(
            413,
            "payload_too_large",
            &format!("body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte cap"),
        ));
    }
    let mut body = vec![0u8; content_length as usize];
    if content_length > 0 && reader.read_exact(&mut body).is_err() {
        return Err(HttpResponse::error(
            400,
            "bad_request",
            "body shorter than Content-Length",
        ));
    }
    let body = String::from_utf8(body)
        .map_err(|_| HttpResponse::error(400, "bad_request", "body is not UTF-8"))?;
    Ok(HttpRequest { method, path, body })
}

/// The `path` label of a request no built-in or handler claimed: one
/// fixed value, so unknown paths cannot grow the series count.
const UNMATCHED_PATH: &str = "{other}";

/// Whether a path segment is an id: non-empty and all ASCII digits.
fn is_id(segment: &str) -> bool {
    !segment.is_empty() && segment.bytes().all(|b| b.is_ascii_digit())
}

/// Reads an id path segment: all ASCII digits (no sign, no space) and
/// within `u32`. Only such segments collapse to `{id}` in the `path`
/// metric label, so a handler that takes its ids through this keeps its
/// series count bounded by its route table.
#[must_use]
pub fn id_segment(segment: &str) -> Option<u32> {
    is_id(segment).then(|| segment.parse().ok()).flatten()
}

/// Collapses all-digit path segments into `{id}` so per-entity URLs
/// share one metric label: `/debug/job/17/timeline` becomes
/// `/debug/job/{id}/timeline`. Any query string is dropped first.
fn normalize_path(path: &str) -> String {
    let path = path.split('?').next().unwrap_or(path);
    path.split('/')
        .map(|segment| if is_id(segment) { "{id}" } else { segment })
        .collect::<Vec<_>>()
        .join("/")
}

/// Routes one parsed request: built-ins first, then the handler. `None`
/// when neither claims it.
fn route(
    request: &HttpRequest,
    registry: &MetricsRegistry,
    requested: &AtomicBool,
    handler: Option<&Handler>,
) -> Option<HttpResponse> {
    Some(match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/metrics") => HttpResponse::ok(
            "text/plain; version=0.0.4; charset=utf-8",
            render_prometheus(registry),
        ),
        ("GET", "/healthz") => HttpResponse::text("ok\n".to_owned()),
        ("POST", "/shutdown") => {
            requested.store(true, Ordering::SeqCst);
            HttpResponse::text("shutting down\n".to_owned())
        }
        (_, "/metrics" | "/healthz" | "/shutdown") => HttpResponse::error(
            405,
            "method_not_allowed",
            &format!("{} does not accept {}", request.path, request.method),
        ),
        _ => return handler.and_then(|h| h(request)),
    })
}

/// Reads the request and answers it on `stream`.
fn handle_connection(
    stream: TcpStream,
    registry: &MetricsRegistry,
    requested: &AtomicBool,
    handler: Option<&Handler>,
) -> io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?).take(MAX_BODY_BYTES + 8 * 1024);
    let response = match read_request(&mut reader) {
        Ok(request) => {
            // Per-endpoint serving metrics: path labels are normalized
            // (digit segments collapsed to `{id}`) and a request no route
            // claims is labelled `{other}`, so the cardinality stays
            // bounded by the route table, not the id or path space.
            let started = Instant::now();
            // A panicking route answers 500 and leaves the accept thread,
            // and with it `/shutdown`, serving. Whatever state the handler
            // shares is its own to keep consistent across a panic.
            let routed = panic::catch_unwind(AssertUnwindSafe(|| {
                route(&request, registry, requested, handler)
            }));
            let (response, path) = match routed {
                Ok(Some(response)) => (response, normalize_path(&request.path)),
                Ok(None) => (
                    HttpResponse::error(
                        404,
                        "not_found",
                        &format!("no route for {} {}", request.method, request.path),
                    ),
                    UNMATCHED_PATH.to_owned(),
                ),
                Err(_) => (
                    HttpResponse::error(
                        500,
                        "internal_error",
                        &format!("{} {} failed in its handler", request.method, request.path),
                    ),
                    normalize_path(&request.path),
                ),
            };
            let status = response.status.to_string();
            registry.counter_add(
                "slotsel_http_requests_total",
                &[("path", path.as_str()), ("status", status.as_str())],
                1,
            );
            registry.observe(
                "slotsel_http_request_seconds",
                &[("path", path.as_str())],
                started.elapsed().as_secs_f64(),
            );
            response
        }
        Err(error_response) => error_response,
    };

    let mut stream = stream;
    write!(
        stream,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        response.status,
        response.reason(),
        response.content_type,
        response.body.len(),
        response.body
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_object, Value};
    use crate::metrics::Metrics;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    fn post(addr: SocketAddr, path: &str, body: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn serves_metrics_and_health() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.counter_add("hits_total", &[], 7);
        let server = MetricsServer::start("127.0.0.1:0", Arc::clone(&registry), None, 1).unwrap();
        let addr = server.addr();

        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"));
        assert!(metrics.contains("hits_total 7"));

        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK"));
        assert!(health.ends_with("ok\n"));

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"));

        server.stop();
    }

    #[test]
    fn unknown_paths_get_a_normalized_json_error() {
        let registry = Arc::new(MetricsRegistry::new());
        let server = MetricsServer::start("127.0.0.1:0", registry, None, 1).unwrap();
        let missing = get(server.addr(), "/nope");
        assert!(missing.starts_with("HTTP/1.1 404 Not Found"), "{missing}");
        assert!(
            missing.contains("Content-Type: application/json"),
            "{missing}"
        );
        assert!(missing.contains("Connection: close"), "{missing}");
        let body = missing.split("\r\n\r\n").nth(1).unwrap().trim_end();
        let parsed = parse_object(body).unwrap();
        let field = |name| parsed.get(name).and_then(Value::as_str).unwrap();
        assert_eq!(field("error"), "not_found");
        assert!(field("detail").contains("/nope"));
        // The advertised Content-Length matches the actual body.
        let advertised: usize = missing
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert_eq!(advertised, body.len() + 1, "body plus trailing newline");
        server.stop();
    }

    #[test]
    fn builtin_routes_enforce_their_methods() {
        let registry = Arc::new(MetricsRegistry::new());
        let server = MetricsServer::start("127.0.0.1:0", registry, None, 1).unwrap();
        let wrong = get(server.addr(), "/shutdown");
        assert!(wrong.starts_with("HTTP/1.1 405"), "{wrong}");
        assert!(wrong.contains("method_not_allowed"), "{wrong}");
        assert!(
            !server.shutdown_requested(),
            "GET must not trigger shutdown"
        );
        let wrong = post(server.addr(), "/metrics", "");
        assert!(wrong.starts_with("HTTP/1.1 405"), "{wrong}");
        server.stop();
    }

    #[test]
    fn handler_claims_routes_and_reads_bodies() {
        let registry = Arc::new(MetricsRegistry::new());
        let handler: Arc<Handler> = Arc::new(|request: &HttpRequest| {
            match (request.method.as_str(), request.path.as_str()) {
                ("POST", "/echo") => Some(HttpResponse::json(format!(
                    "{{\"echo\":{:?}}}",
                    request.body
                ))),
                ("GET", "/teapot") => Some(HttpResponse::error(429, "steeping", "try later")),
                _ => None,
            }
        });
        let server = MetricsServer::start("127.0.0.1:0", registry, Some(handler), 1).unwrap();
        let addr = server.addr();

        let echoed = post(addr, "/echo", "hello body");
        assert!(echoed.starts_with("HTTP/1.1 200 OK"), "{echoed}");
        assert!(echoed.contains("\"echo\":\"hello body\""), "{echoed}");

        let refused = get(addr, "/teapot");
        assert!(refused.starts_with("HTTP/1.1 429"), "{refused}");
        assert!(refused.contains("\"error\":\"steeping\""), "{refused}");

        // Built-ins still win over the handler, and unclaimed paths 404.
        assert!(get(addr, "/healthz").ends_with("ok\n"));
        assert!(get(addr, "/else").starts_with("HTTP/1.1 404"));
        server.stop();
    }

    #[test]
    fn a_panicking_handler_answers_500_and_the_server_keeps_serving() {
        let registry = Arc::new(MetricsRegistry::new());
        let handler: Arc<Handler> = Arc::new(|request: &HttpRequest| {
            if request.path == "/boom" {
                panic!("the route fails");
            }
            None
        });
        let server =
            MetricsServer::start("127.0.0.1:0", Arc::clone(&registry), Some(handler), 1).unwrap();
        let addr = server.addr();

        let failed = get(addr, "/boom");
        assert!(
            failed.starts_with("HTTP/1.1 500 Internal Server Error"),
            "{failed}"
        );
        let body = failed.split("\r\n\r\n").nth(1).unwrap().trim_end();
        let parsed = parse_object(body).unwrap();
        assert_eq!(
            parsed.get("error").and_then(Value::as_str),
            Some("internal_error")
        );

        // The accept thread survived: health answers, the 500 is counted
        // and `/shutdown` still reaches the daemon.
        assert!(get(addr, "/healthz").starts_with("HTTP/1.1 200 OK"));
        assert!(
            get(addr, "/metrics")
                .contains("slotsel_http_requests_total{path=\"/boom\",status=\"500\"} 1"),
            "the 500 is counted"
        );
        assert!(post(addr, "/shutdown", "").starts_with("HTTP/1.1 200 OK"));
        assert!(server.shutdown_requested());
        server.stop();
    }

    #[test]
    fn unknown_paths_share_one_metrics_label() {
        let registry = Arc::new(MetricsRegistry::new());
        // A route table like the live daemon's: `/job/{id}` for ids read
        // through `id_segment`.
        let handler: Arc<Handler> = Arc::new(|request: &HttpRequest| {
            let id = id_segment(request.path.strip_prefix("/job/")?)?;
            Some(HttpResponse::json(format!("{{\"job\":{id}}}")))
        });
        let server =
            MetricsServer::start("127.0.0.1:0", Arc::clone(&registry), Some(handler), 1).unwrap();
        let addr = server.addr();

        assert!(get(addr, "/job/7").starts_with("HTTP/1.1 200 OK"));
        for unknown in (0..40)
            .map(|i| format!("/unknown-{i}"))
            .chain((0..10).map(|i| format!("/job/{i}/x")))
            .chain(
                [
                    "/job/+0",
                    "/job/+00",
                    "/job/-1",
                    "/job/1x",
                    "/job/",
                    "/job/7?x=1",
                ]
                .map(String::from),
            )
            .chain(["/job/99999999999".to_owned(), "/metrics/x".to_owned()])
        {
            let answer = get(addr, &unknown);
            assert!(answer.starts_with("HTTP/1.1 404"), "{unknown}: {answer}");
        }

        let metrics = get(addr, "/metrics");
        let mut paths: Vec<&str> = metrics
            .lines()
            .filter(|line| !line.starts_with('#'))
            .filter_map(|line| line.split("path=\"").nth(1)?.split('"').next())
            .collect();
        paths.sort_unstable();
        paths.dedup();
        assert_eq!(paths, ["/job/{id}", "{other}"], "{metrics}");
        let requests = metrics
            .lines()
            .filter(|line| line.starts_with("slotsel_http_requests_total{"))
            .collect::<Vec<_>>();
        assert_eq!(requests.len(), 2, "{requests:?}");
        assert!(
            requests.contains(&"slotsel_http_requests_total{path=\"{other}\",status=\"404\"} 58"),
            "{requests:?}"
        );
        server.stop();
    }

    #[test]
    fn oversized_bodies_are_refused_with_413() {
        let registry = Arc::new(MetricsRegistry::new());
        let server = MetricsServer::start("127.0.0.1:0", registry, None, 1).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write!(
            stream,
            "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 413"), "{response}");
        assert!(response.contains("payload_too_large"), "{response}");
        server.stop();
    }

    #[test]
    fn shutdown_endpoint_flags_the_request_and_keeps_serving() {
        let registry = Arc::new(MetricsRegistry::new());
        let server = MetricsServer::start("127.0.0.1:0", Arc::clone(&registry), None, 1).unwrap();
        let addr = server.addr();
        assert!(!server.shutdown_requested());

        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "POST /shutdown HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"));
        assert!(response.ends_with("shutting down\n"));
        assert!(server.shutdown_requested());

        // Metrics remain scrapeable while the daemon drains.
        registry.counter_add("draining_total", &[], 1);
        assert!(get(addr, "/metrics").contains("draining_total 1"));
        server.stop();
    }

    #[test]
    fn start_retries_a_busy_port_and_reports_the_bind_error() {
        let registry = Arc::new(MetricsRegistry::new());
        // Occupy a port so every bind attempt fails.
        let occupied = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = occupied.local_addr().unwrap();
        let started = Instant::now();
        let failed = MetricsServer::start(addr, Arc::clone(&registry), None, 3);
        assert!(failed.is_err(), "a held port must exhaust the retries");
        // Two sleeps: the backoff, then twice the backoff.
        assert!(started.elapsed() >= BIND_BACKOFF * 3);
        // Once the port frees up, the same call succeeds.
        drop(occupied);
        let server = MetricsServer::start(addr, registry, None, 3).unwrap();
        assert_eq!(server.addr(), addr);
        server.stop();
    }

    #[test]
    fn stop_terminates_promptly_and_drop_is_idempotent() {
        let registry = Arc::new(MetricsRegistry::new());
        let server = MetricsServer::start("127.0.0.1:0", registry, None, 1).unwrap();
        let addr = server.addr();
        server.stop();
        // The port is released: rebinding it eventually succeeds.
        assert!(TcpListener::bind(addr).is_ok());
    }
}
