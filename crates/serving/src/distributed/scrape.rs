//! The observability scrape plane: a minimal HTTP responder next to the
//! wire-protocol server.
//!
//! [`ScrapeServer`] binds its own TCP listener — it shares no logic with
//! frame serving, and folding an HTTP state machine into
//! [`super::EventServer`]'s readiness loop would make the hot loop branch
//! on protocol — and answers exactly three GET paths:
//!
//! * `/metrics` — the global [`MetricsRegistry`] rendered as OpenMetrics
//!   text exposition (counters, gauges, log₂ histograms as cumulative
//!   `le` buckets);
//! * `/healthz` — `200 ok` while every SLO objective's burn rate is
//!   within budget, `503 degraded` once a guard latches a breach;
//! * `/varz` — the hosting node's full [`NodeHandler::stats`] snapshot as
//!   JSON (identity, transport counters, cumulative query profile,
//!   retained spans).
//!
//! The responder is hand-rolled over `std::net` in the same
//! readiness-loop style as [`super::EventServer`]: one thread, a
//! non-blocking listener waited on through `readiness::wait` (idle costs
//! no wake-ups; shutdown wakes it, never waiting on a blocked `accept`),
//! and short read timeouts on accepted connections, so a stalled scraper
//! cannot wedge the server. Anything that is not a well-formed
//! `GET` of a known path gets a plain `404`/`405` and the connection is
//! closed — this is a scrape endpoint, not a web framework.

use super::node::NodeHandler;
use super::readiness::{self, PollFd, Waker, ACCEPT_RETRY, POLLIN};
use super::TransportError;
use metrics::{MetricsRegistry, SloGuard};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A scraper gets this long to deliver its request head before the
/// connection is dropped.
const READ_TIMEOUT: Duration = Duration::from_millis(500);

/// Request heads larger than this are rejected (no legitimate scrape
/// gets close).
const MAX_REQUEST_HEAD: usize = 8 * 1024;

/// The HTTP scrape endpoint of one serving process.
pub struct ScrapeServer {
    addr: String,
    shutdown: Arc<(AtomicBool, Waker)>,
    handle: Option<JoinHandle<()>>,
}

/// What the responder consults per request.
struct ScrapeState {
    handler: Arc<NodeHandler>,
    guard: Option<Arc<SloGuard>>,
}

impl ScrapeServer {
    /// Binds `addr` (a `host:port`; port 0 resolves at bind time) and
    /// starts answering scrapes about `handler`. When `guard` is given,
    /// `/healthz` reports its latched SLO verdict; without one the
    /// endpoint always answers `200 ok`.
    pub fn bind(
        addr: &str,
        handler: Arc<NodeHandler>,
        guard: Option<Arc<SloGuard>>,
    ) -> Result<Self, TransportError> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| TransportError::Io(format!("bind metrics {addr}: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| TransportError::Io(format!("local_addr metrics {addr}: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| TransportError::Io(format!("set_nonblocking metrics {addr}: {e}")))?;
        let waker = Waker::new()
            .map_err(|e| TransportError::Io(format!("open the shutdown waker {addr}: {e}")))?;
        let shutdown = Arc::new((AtomicBool::new(false), waker));
        let state = ScrapeState { handler, guard };
        let handle = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("scrape-http".into())
                .spawn(move || scrape_loop(listener, &state, &shutdown))
                .expect("failed to spawn scrape thread")
        };
        Ok(Self {
            addr: local.to_string(),
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address (port 0 resolved) — what scrapers dial.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Stops the responder and joins its thread. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shutdown.0.swap(true, Ordering::AcqRel) {
            return;
        }
        self.shutdown.1.wake();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ScrapeServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The accept loop: non-blocking accepts, one request served per
/// connection, then close (scrapes are rare; keeping it sequential keeps
/// it simple and bounded), blocking between them in the readiness wait.
fn scrape_loop(listener: TcpListener, state: &ScrapeState, shutdown: &(AtomicBool, Waker)) {
    while !shutdown.0.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Served synchronously under a short timeout: a stalled
                // scraper costs at most READ_TIMEOUT, never a thread.
                let _ = serve_one(stream, state);
            }
            // Idle: wait for a scraper or shutdown. A failing listener (fd
            // pressure) stays readable: that wait is bounded and leaves it out.
            Err(e) => {
                let idle = e.kind() == ErrorKind::WouldBlock;
                let mut fds = [shutdown.1.pollfd(), PollFd::new(&listener, POLLIN)];
                let timeout = (!idle).then_some(ACCEPT_RETRY);
                readiness::wait(&mut fds[..if idle { 2 } else { 1 }], timeout);
            }
        }
    }
}

/// Reads one request head and writes one response.
fn serve_one(mut stream: TcpStream, state: &ScrapeState) -> std::io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    stream.set_write_timeout(Some(READ_TIMEOUT))?;
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    // Read until the blank line ending the request head; the bodyless
    // GETs a scraper sends never have more.
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() > MAX_REQUEST_HEAD {
            return respond(&mut stream, 400, "text/plain", "request head too large\n");
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Ok(()), // timeout or reset: drop silently
        }
    }
    let request_line = match head.split(|&b| b == b'\r').next() {
        Some(line) => String::from_utf8_lossy(line).into_owned(),
        None => return respond(&mut stream, 400, "text/plain", "empty request\n"),
    };
    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m, p),
        _ => return respond(&mut stream, 400, "text/plain", "malformed request line\n"),
    };
    if method != "GET" {
        return respond(&mut stream, 405, "text/plain", "only GET is served\n");
    }
    match path {
        "/metrics" => {
            let body = MetricsRegistry::global().render_openmetrics();
            respond(
                &mut stream,
                200,
                "application/openmetrics-text; version=1.0.0; charset=utf-8",
                &body,
            )
        }
        "/healthz" => {
            let healthy = state.guard.as_ref().is_none_or(|g| g.healthy());
            if healthy {
                respond(&mut stream, 200, "text/plain", "ok\n")
            } else {
                respond(&mut stream, 503, "text/plain", "degraded\n")
            }
        }
        "/varz" => {
            let mut body = state.handler.stats().to_json().to_pretty_string();
            body.push('\n');
            respond(&mut stream, 200, "application/json", &body)
        }
        _ => respond(&mut stream, 404, "text/plain", "unknown path\n"),
    }
}

/// Writes one `HTTP/1.0`-style response and closes.
fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let head = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::{FlatIndex, SearchRequest};
    use vecstore::VectorSet;

    fn tiny_handler() -> Arc<NodeHandler> {
        let mut base = VectorSet::new(2);
        for i in 0..8 {
            base.push(&[i as f32, 0.0]);
        }
        Arc::new(NodeHandler::new(Arc::new(FlatIndex::new(base))))
    }

    /// One blocking HTTP GET against the responder.
    fn http_get(addr: &str, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let text = String::from_utf8_lossy(&raw).into_owned();
        let status: u16 = text
            .split_whitespace()
            .nth(1)
            .expect("status line")
            .parse()
            .expect("numeric status");
        let body = text
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn serves_metrics_healthz_and_varz() {
        let handler = tiny_handler();
        // Put a profile on the ledger so /varz has something to show.
        let response = handler.handle(super::super::wire::Message::Search(SearchRequest::new(
            vec![2.0, 0.0],
            3,
        )));
        assert!(matches!(response, super::super::wire::Message::SearchOk(_)));
        let server = ScrapeServer::bind("127.0.0.1:0", Arc::clone(&handler), None).unwrap();

        let (status, body) = http_get(server.addr(), "/metrics");
        assert_eq!(status, 200);
        assert!(body.ends_with("# EOF\n"), "OpenMetrics terminator");

        let (status, body) = http_get(server.addr(), "/healthz");
        assert_eq!((status, body.as_str()), (200, "ok\n"));

        let (status, body) = http_get(server.addr(), "/varz");
        assert_eq!(status, 200);
        let varz = metrics::Json::parse(&body).expect("varz is JSON");
        assert!(
            varz.get("profile")
                .and_then(|p| p.get("dist_exact"))
                .and_then(metrics::Json::as_u64)
                .is_some_and(|n| n > 0),
            "cumulative profile visible in /varz"
        );

        let (status, _) = http_get(server.addr(), "/nope");
        assert_eq!(status, 404);
    }

    /// The accept loop neither spins nor hangs: after an idle gap (spent
    /// blocked in the readiness wait) a scrape is answered, and shutdown
    /// wakes the blocked loop instead of waiting for a scraper.
    #[test]
    fn answers_after_an_idle_gap_and_shuts_down_promptly() {
        let mut server = ScrapeServer::bind("127.0.0.1:0", tiny_handler(), None).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(http_get(server.addr(), "/healthz"), (200, "ok\n".into()));
        let (tx, rx) = std::sync::mpsc::channel();
        let stopper = std::thread::spawn(move || {
            server.shutdown();
            tx.send(()).ok();
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("shutdown must wake the idle accept loop");
        stopper.join().unwrap();
    }

    #[test]
    fn healthz_degrades_when_the_guard_breaches() {
        use metrics::{BurnConfig, Objective, SloGuard};
        use std::sync::atomic::AtomicU64;

        let handler = tiny_handler();
        let good = Arc::new(AtomicU64::new(0));
        let bad = Arc::new(AtomicU64::new(0));
        let sampler = {
            let (good, bad) = (Arc::clone(&good), Arc::clone(&bad));
            Box::new(move || (good.load(Ordering::Relaxed), bad.load(Ordering::Relaxed)))
                as metrics::slo::Sampler
        };
        // Coarse ticks so the scrape lands inside the latched tick: the
        // windows only drain after >50ms with no bad observations.
        let guard = Arc::new(SloGuard::new(
            BurnConfig {
                fast_window: 2,
                slow_window: 4,
                fast_burn: 1.0,
                slow_burn: 1.0,
            },
            Duration::from_millis(25),
            vec![(Objective::new("error_fraction", 0.1), sampler)],
        ));
        let server = ScrapeServer::bind(
            "127.0.0.1:0",
            Arc::clone(&handler),
            Some(Arc::clone(&guard)),
        )
        .unwrap();
        assert_eq!(http_get(server.addr(), "/healthz").0, 200);
        // Burn the whole budget: every request bad across several ticks.
        for _ in 0..4 {
            bad.fetch_add(50, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(30));
            let _ = guard.healthy();
        }
        assert_eq!(
            http_get(server.addr(), "/healthz").0,
            503,
            "a latched breach must flip /healthz to degraded"
        );
        let _ = good; // kept alive: the sampler reads it
    }
}
