//! The resident extraction server.
//!
//! ```text
//!         listener ─┐
//!      wake socket ─┼─► poll(2) ─► accept thread ─► bounded work queue ─► workers
//! idle connections ─┘                   ▲                                   │
//!                                       └──── idle_return + a wake byte ◄───┘
//! ```
//!
//! One thread owns the listener and every *idle* connection. It blocks in
//! `poll(2)` on the listener, on the read end of a wake socket pair, and on
//! each idle socket, so it runs only when something happened: a
//! connection arrived, a request byte arrived, or a worker handed a
//! connection back. Readable connections move into a bounded work queue.
//! Workers pull a connection, read exactly one request (plus any
//! pipelined followers already buffered), run it through a warm
//! [`cmr_engine::ServiceWorker`], respond, push the connection onto
//! `idle_return`, and write one byte to the wake socket. Admission
//! control is the queue bound: a readable connection that does not fit
//! answers `429` with `Retry-After` and closes — load sheds at the door,
//! not by queueing without bound.
//!
//! Shutdown (SIGINT/SIGTERM raising the shared flag) drains: the
//! listener closes, idle connections drop (clients see a stale keep-alive
//! close and retry elsewhere), queued and in-flight requests complete
//! with `Connection: close`, workers exit, and [`Server::run`] returns —
//! every byte of every accepted request's response is flushed first. A
//! `poll` wait is bounded by `POLL_TIMEOUT`, so a flag raised without a
//! signal (an in-process server) is seen without any socket activity.
//!
//! `poll` is declared through the C library directly, like the binary's
//! signal handling: [`wait_ready`] is the crate's one `unsafe` item, and
//! the crate is Unix-only.

use crate::http::{write_response, ChunkedWriter, Conn, ReadOutcome, Request};
use crate::ndjson;
use cmr_core::Schema;
use cmr_engine::{
    build_fingerprint, error_line, outcome_line, EngineConfig, EngineError, LatencyKind,
    ServiceHandle, ServiceWorker,
};
use cmr_ontology::Ontology;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::ffi::{c_int, c_short};
use std::io;
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Longest single `poll` wait. Traffic and handed-back connections end a
/// wait at once; this bound only decides how soon a shutdown flag raised
/// while nothing else happens is seen.
const POLL_TIMEOUT: Duration = Duration::from_millis(100);

/// How long a worker waits for the first byte of a request. The accept
/// thread queues a connection only after `peek` saw a byte in the
/// kernel's buffer, so the first read returns at once; this only bounds
/// a worker that would otherwise camp on a connection with nothing to
/// read.
const FIRST_BYTE_WAIT: Duration = Duration::from_millis(10);

/// Per-read deadline once a request has started arriving; a peer that
/// stalls longer mid-request forfeits the connection.
const COMMIT_TIMEOUT: Duration = Duration::from_secs(10);

/// Whole-request deadline once the first byte has arrived. A slowloris
/// client dripping one byte per read resets `COMMIT_TIMEOUT` every time;
/// it cannot reset this.
const REQUEST_DEADLINE: Duration = Duration::from_secs(30);

/// Configuration for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7171` (port `0` picks a free one).
    pub addr: String,
    /// Worker threads; `0` means one per available core.
    pub jobs: usize,
    /// Bound of the ready-request queue; a readable connection beyond
    /// this answers `429`.
    pub queue_depth: usize,
    /// Per-request extraction wall-clock deadline, milliseconds, like
    /// `cmr extract --timeout-ms`: checked between sentences and inside
    /// the link parser's search, so a request past it fails as a timeout.
    pub timeout_ms: Option<u64>,
    /// Per-request sentence budget.
    pub max_sentences: Option<usize>,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7171".to_string(),
            jobs: 0,
            queue_depth: 64,
            timeout_ms: None,
            max_sentences: None,
            max_body_bytes: 8 * 1024 * 1024,
        }
    }
}

/// Why the server could not start or run.
#[derive(Debug)]
pub enum ServeError {
    /// Binding the listen address failed.
    Bind(String, io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind(addr, e) => write!(f, "binding {addr}: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// What a finished [`Server::run`] reports.
#[derive(Debug, Clone, Serialize)]
pub struct ServeSummary {
    /// Requests served (extract + batch + health + metrics).
    pub requests: u64,
    /// Connections refused with `429` at admission.
    pub rejected: u64,
}

/// `GET /health` response body. Serialize *and* Deserialize so
/// orchestrator-side parsing is pinned by the round-trip test below.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct HealthReport {
    status: String,
    jobs: u64,
    uptime_ms: u64,
    requests: u64,
    rejected: u64,
    /// Deadline trips since boot (degradation, not failure).
    timeouts: u64,
    /// The build fingerprint a journal manifest records (hex); `null`
    /// when the executable could not be read.
    assets: Option<String>,
}

/// State shared between the accept thread and every worker.
struct Shared {
    service: Arc<ServiceHandle>,
    queue: ConnQueue,
    idle_return: Mutex<Vec<Conn>>,
    /// Write end of the wake socket pair: one byte after each push onto
    /// `idle_return` ends the accept thread's `poll`.
    wake: UnixStream,
    shutdown: Arc<AtomicBool>,
    cfg: ServeConfig,
    /// All responses written, any endpoint or status (including `429`).
    requests: AtomicU64,
    rejected: AtomicU64,
}

/// A bound, running-but-not-yet-serving server. Splitting bind from run
/// lets callers learn the actual address (port `0`) before the blocking
/// serve loop starts.
pub struct Server {
    listener: TcpListener,
    /// Read end of the wake socket pair, polled by the accept thread.
    wake_rx: UnixStream,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and builds the warm engine state.
    pub fn bind(cfg: ServeConfig, shutdown: Arc<AtomicBool>) -> Result<Server, ServeError> {
        let engine_cfg = EngineConfig {
            jobs: cfg.jobs,
            max_record_millis: cfg.timeout_ms,
            max_record_sentences: cfg.max_sentences,
            ..EngineConfig::default()
        };
        let service = ServiceHandle::new(engine_cfg, Schema::paper(), Ontology::full());
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| ServeError::Bind(cfg.addr.clone(), e))?;
        let queue = ConnQueue::new(cfg.queue_depth.max(1));
        // A socket pair fails only for want of descriptors, which binding
        // the listener runs into just the same.
        let (wake, wake_rx) = UnixStream::pair()
            .and_then(|(tx, rx)| {
                tx.set_nonblocking(true)?;
                rx.set_nonblocking(true)?;
                Ok((tx, rx))
            })
            .map_err(|e| ServeError::Bind(cfg.addr.clone(), e))?;
        Ok(Server {
            listener,
            wake_rx,
            shared: Arc::new(Shared {
                service,
                queue,
                idle_return: Mutex::new(Vec::new()),
                wake,
                shutdown,
                cfg,
                requests: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
            }),
        })
    }

    /// The actual bound address (resolves port `0`).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until the shutdown flag rises, then drains and returns.
    /// Every request accepted into the queue before the drain gets a
    /// complete response. A failing `poll` drains the same way, then
    /// returns its error.
    pub fn run(self) -> io::Result<ServeSummary> {
        let Server {
            listener,
            wake_rx,
            shared,
        } = self;
        listener.set_nonblocking(true)?;
        let jobs = shared.service.jobs();
        std::thread::scope(|scope| {
            let mut workers = Vec::with_capacity(jobs);
            for widx in 0..jobs {
                let shared = Arc::clone(&shared);
                workers.push(
                    std::thread::Builder::new()
                        .name(format!("serve-worker-{widx}"))
                        .spawn_scoped(scope, move || worker_loop(&shared))
                        .expect("spawning worker thread"),
                );
            }

            let served = accept_loop(&listener, &wake_rx, &shared);

            // Drain: no new connections, no revived keep-alives.
            drop(listener);
            shared.queue.close();
            for w in workers {
                let _ = w.join();
            }
            // Connections returned by workers racing the drain.
            shared.idle_return.lock().map(|mut v| v.clear()).ok();
            served
        })?;
        Ok(ServeSummary {
            requests: shared.requests.load(Ordering::Relaxed),
            rejected: shared.rejected.load(Ordering::Relaxed),
        })
    }
}

/// The accept thread's loop: wait in `poll` until the listener, the wake
/// socket or an idle connection is ready, then accept fresh connections,
/// take back the workers' keep-alives, feed the work queue and shed load
/// with `429`. Returns when the shutdown flag rises, or with `poll`'s
/// error.
fn accept_loop(listener: &TcpListener, wake_rx: &UnixStream, shared: &Shared) -> io::Result<()> {
    // `fds[0]` is the listener, `fds[1]` the wake socket, and `fds[i + 2]`
    // is `idle[i]` for every connection that was idle when the wait began.
    let mut fds: Vec<PollFd> = Vec::new();
    let mut idle: Vec<Conn> = Vec::new();
    let mut still_idle: Vec<Conn> = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            // Stale keep-alives just drop: a client that raced a request
            // into one sees EOF before any response bytes and tries again on
            // a fresh connection (which the closed listener refuses).
            idle.clear();
            return Ok(());
        }
        fds.clear();
        fds.push(PollFd::readable(listener.as_raw_fd()));
        fds.push(PollFd::readable(wake_rx.as_raw_fd()));
        fds.extend(idle.iter().map(|c| PollFd::readable(c.stream.as_raw_fd())));
        match wait_ready(&mut fds, POLL_TIMEOUT) {
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
        let polled = idle.len();

        // Wake bytes first, then the connections: a worker pushes onto
        // `idle_return` before it writes its byte, so a byte drained here
        // belongs to a connection the drain below finds.
        if fds[1].is_ready() {
            let mut sink = [0u8; 64];
            while matches!((&*wake_rx).read(&mut sink), Ok(1..)) {}
        }
        if let Ok(mut returned) = shared.idle_return.lock() {
            for conn in returned.drain(..) {
                if conn.stream.set_nonblocking(true).is_ok() {
                    idle.push(conn);
                }
            }
        }

        // Fresh connections enter the idle set; their first request
        // makes them readable like any keep-alive reuse.
        while fds[0].is_ready() {
            if cmr_failpoint::io_inject("serve::accept").is_some() {
                // An injected accept fault is transient: the listener
                // stays readable and the next wait returns at once.
                break;
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_write_timeout(Some(COMMIT_TIMEOUT));
                    if stream.set_nonblocking(true).is_ok() {
                        idle.push(Conn::new(stream));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }

        // Readiness pass: queue the readable connections, drop the closed
        // ones. Connections that joined after the wait were not polled,
        // so they are peeked once.
        for (i, conn) in idle.drain(..).enumerate() {
            let quiet = i < polled && !fds[i + 2].is_ready();
            match readiness(&conn, quiet) {
                Readiness::Quiet => still_idle.push(conn),
                Readiness::Closed => {}
                Readiness::Readable => {
                    if conn.stream.set_nonblocking(false).is_err() {
                        continue;
                    }
                    if let Err(conn) = shared.queue.try_push(conn) {
                        reject_busy(conn, shared);
                    }
                }
            }
        }
        std::mem::swap(&mut idle, &mut still_idle);
    }
}

/// What the readiness pass does with one idle connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Readiness {
    /// A request (or its front) is waiting: queue it.
    Readable,
    /// Nothing to read yet: keep it idle.
    Quiet,
    /// The peer closed or the socket failed: drop it.
    Closed,
}

/// Classifies an idle (non-blocking) connection. `quiet` is set when
/// `poll` watched the socket and reported nothing, which needs no
/// syscall; otherwise a one-byte `peek` tells readable from closed.
fn readiness(conn: &Conn, quiet: bool) -> Readiness {
    if conn.has_buffered() {
        return Readiness::Readable;
    }
    if quiet {
        return Readiness::Quiet;
    }
    let mut peek = [0u8; 1];
    match conn.stream.peek(&mut peek) {
        Ok(0) => Readiness::Closed, // peer closed while idle
        Ok(_) => Readiness::Readable,
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => Readiness::Quiet,
        Err(_) => Readiness::Closed,
    }
}

/// `struct pollfd` from `<poll.h>`, the same layout on every Unix.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

/// `POLLIN`: data to read (or, with `POLLHUP`/`POLLERR` in `revents`, an
/// end of stream or an error a read would report).
const POLLIN: c_short = 0x1;

/// `nfds_t`: `unsigned long` on Linux, `unsigned int` on the BSDs and
/// macOS.
#[cfg(target_os = "linux")]
type Nfds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::ffi::c_uint;

impl PollFd {
    /// Watches `fd` for readability.
    fn readable(fd: RawFd) -> PollFd {
        PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        }
    }

    /// Whether the last wait reported anything for this descriptor.
    fn is_ready(&self) -> bool {
        self.revents != 0
    }
}

/// Blocks in `poll(2)` until a descriptor in `fds` is ready or `timeout`
/// passes, and returns how many are ready (`0` on timeout). Each entry's
/// `revents` is rewritten. An interrupting signal is an `Interrupted`
/// error.
#[allow(unsafe_code)]
fn wait_ready(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }
    let millis = c_int::try_from(timeout.as_millis()).unwrap_or(c_int::MAX);
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // `pollfd`s and `nfds` is its length, so the kernel reads and writes
    // only within it, and `poll` keeps no pointer after it returns. Any
    // `fd` value is sound: one that is not open comes back as `POLLNVAL`.
    let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, millis) };
    usize::try_from(ready).map_err(|_| io::Error::last_os_error())
}

/// Answers `429 Too Many Requests` and closes: the queue is full, so the
/// cheapest honest signal is "come back later".
fn reject_busy(mut conn: Conn, shared: &Shared) {
    shared.rejected.fetch_add(1, Ordering::Relaxed);
    shared.requests.fetch_add(1, Ordering::Relaxed);
    // Drain what the client already sent before answering: closing a
    // socket with unread bytes in the receive buffer turns the close
    // into an RST, which can destroy the 429 before the client reads
    // it. Non-blocking — this runs on the accept thread.
    let mut sink = [0u8; 4096];
    if conn.stream.set_nonblocking(true).is_ok() {
        while matches!(conn.stream.read(&mut sink), Ok(1..)) {}
        let _ = conn.stream.set_nonblocking(false);
    }
    let _ = write_response(
        &mut conn.stream,
        429,
        "application/json",
        b"{\"error\":\"server busy, retry later\"}",
        false,
        &["Retry-After: 1"],
    );
    // FIN, not RST: the client sees response + EOF.
    let _ = conn.stream.shutdown(std::net::Shutdown::Write);
    if conn.stream.set_nonblocking(true).is_ok() {
        while matches!(conn.stream.read(&mut sink), Ok(1..)) {}
    }
}

/// One worker: pull connections, serve requests, hand keep-alives back.
fn worker_loop(shared: &Shared) {
    // The pipeline (and its caches) is built inside the worker thread —
    // it is `!Sync` by design; the shared parse cache and interner behind
    // it are process-wide, so this worker starts warm after the first
    // request anywhere.
    let worker = shared.service.worker();
    while let Some(conn) = shared.queue.pop() {
        serve_conn(shared, &worker, conn);
    }
}

/// Serves every request currently arriving on one connection, then
/// returns it to the idle set (or closes it).
fn serve_conn(shared: &Shared, worker: &ServiceWorker, mut conn: Conn) {
    loop {
        match conn.read_request(
            FIRST_BYTE_WAIT,
            COMMIT_TIMEOUT,
            REQUEST_DEADLINE,
            shared.cfg.max_body_bytes,
        ) {
            ReadOutcome::Request(req) => {
                let draining = shared.shutdown.load(Ordering::Relaxed);
                let keep_alive = req.keep_alive && !draining;
                shared.requests.fetch_add(1, Ordering::Relaxed);
                if dispatch(shared, worker, &mut conn.stream, &req, keep_alive).is_err() {
                    return; // peer went away mid-response
                }
                if !keep_alive {
                    close_gracefully(conn);
                    return;
                }
                if conn.has_buffered() {
                    continue; // pipelined follower already here
                }
                hand_back(shared, conn);
                return;
            }
            ReadOutcome::Idle => {
                // Readable when queued, nothing now (e.g. a spurious
                // wake): back to the idle set rather than camping here.
                if !shared.shutdown.load(Ordering::Relaxed) {
                    hand_back(shared, conn);
                }
                return;
            }
            ReadOutcome::Closed | ReadOutcome::Failed => return,
            ReadOutcome::Malformed(msg) => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                let body = error_body(msg);
                let _ =
                    write_response(&mut conn.stream, 400, "application/json", &body, false, &[]);
                close_gracefully(conn);
                return;
            }
            ReadOutcome::TooLarge => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                let body = error_body("request body exceeds the configured limit");
                let _ =
                    write_response(&mut conn.stream, 413, "application/json", &body, false, &[]);
                close_gracefully(conn);
                return;
            }
        }
    }
}

/// Returns a keep-alive connection to the accept thread and wakes it. The
/// push comes first: the accept thread drains the wake socket before
/// `idle_return`, so it cannot take this byte and miss the connection. A
/// full wake socket (`WouldBlock`) already holds a pending byte, which
/// wakes it just the same.
fn hand_back(shared: &Shared, conn: Conn) {
    if let Ok(mut returned) = shared.idle_return.lock() {
        returned.push(conn);
    }
    let _ = (&shared.wake).write(&[1]);
}

/// Closes a connection FIN-first after its final response: shutting the
/// write side then draining whatever the peer already sent (pipelined
/// bytes we will not serve) keeps the close from degenerating into an
/// RST that could destroy the response in flight. Bounded and
/// non-blocking — only bytes already in the receive buffer are drained.
fn close_gracefully(conn: Conn) {
    let _ = conn.stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 4096];
    if conn.stream.set_nonblocking(true).is_ok() {
        let mut stream = &conn.stream;
        while matches!(io::Read::read(&mut stream, &mut sink), Ok(1..)) {}
    }
}

/// `{"error": "..."}` with proper JSON escaping.
fn error_body(msg: &str) -> Vec<u8> {
    error_line(msg).into_bytes()
}

/// Routes one request.
fn dispatch(
    shared: &Shared,
    worker: &ServiceWorker,
    stream: &mut TcpStream,
    req: &Request,
    keep_alive: bool,
) -> io::Result<()> {
    match (req.method.as_str(), req.target.as_str()) {
        ("GET", "/health") => {
            let metrics = shared.service.metrics();
            let report = HealthReport {
                status: "ready".to_string(),
                jobs: shared.service.jobs() as u64,
                uptime_ms: shared.service.uptime().as_millis() as u64,
                requests: shared.requests.load(Ordering::Relaxed),
                rejected: shared.rejected.load(Ordering::Relaxed),
                timeouts: metrics.errors.timeouts,
                assets: build_fingerprint().ok().map(|f| format!("{f:016x}")),
            };
            json_response(stream, 200, &report, keep_alive)
        }
        ("GET", "/metrics") => {
            let metrics = shared.service.metrics();
            json_response(stream, 200, &metrics, keep_alive)
        }
        ("POST", "/extract") => extract_one(shared, worker, stream, req, keep_alive),
        ("POST", "/extract/batch") => extract_batch(shared, worker, stream, req, keep_alive),
        ("GET" | "HEAD", "/extract" | "/extract/batch") | ("POST", "/health" | "/metrics") => {
            let allow = if req.target.starts_with("/extract") {
                "Allow: POST"
            } else {
                "Allow: GET"
            };
            let body = error_body("method not allowed");
            write_response(stream, 405, "application/json", &body, keep_alive, &[allow])
        }
        _ => {
            let body = error_body("no such endpoint (have: POST /extract, POST /extract/batch, GET /health, GET /metrics)");
            write_response(stream, 404, "application/json", &body, keep_alive, &[])
        }
    }
}

fn json_response<T: Serialize>(
    stream: &mut TcpStream,
    status: u16,
    value: &T,
    keep_alive: bool,
) -> io::Result<()> {
    match serde_json::to_string(value) {
        Ok(json) => write_response(
            stream,
            status,
            "application/json",
            json.as_bytes(),
            keep_alive,
            &[],
        ),
        Err(e) => {
            let body = error_body(&format!("serialization failed: {e}"));
            write_response(stream, 500, "application/json", &body, false, &[])
        }
    }
}

/// `POST /extract`: the body is one note — raw text, a JSON string, or a
/// JSON object with a `text` field (same decoding as `cmr extract -`).
fn extract_one(
    shared: &Shared,
    worker: &ServiceWorker,
    stream: &mut TcpStream,
    req: &Request,
    keep_alive: bool,
) -> io::Result<()> {
    let start = Instant::now();
    let Ok(body) = std::str::from_utf8(&req.body) else {
        let body = error_body("request body is not UTF-8");
        return write_response(stream, 400, "application/json", &body, keep_alive, &[]);
    };
    let text = ndjson::note_text_from_ndjson(body);
    let outcome = worker.extract(&text);
    let result = match &outcome {
        Ok(record) => json_response(stream, 200, record, keep_alive),
        Err(e) => {
            let status = match e {
                EngineError::Panicked { .. } => 500,
                _ => 422,
            };
            let body = error_body(&e.to_string());
            write_response(stream, status, "application/json", &body, keep_alive, &[])
        }
    };
    shared
        .service
        .record_latency(LatencyKind::Extract, start.elapsed().as_nanos() as u64);
    result
}

/// `POST /extract/batch`: NDJSON in, NDJSON out, one result line per
/// note line, blank lines skipped (shared reader with `cmr extract -`).
/// The response streams chunked so early records arrive while later ones
/// still extract; an in-band `{"error": ...}` line marks a failed record
/// without failing the batch.
fn extract_batch(
    shared: &Shared,
    worker: &ServiceWorker,
    stream: &mut TcpStream,
    req: &Request,
    keep_alive: bool,
) -> io::Result<()> {
    let start = Instant::now();
    let process = |note: Result<String, usize>| -> String {
        let line_start = Instant::now();
        let line = match note {
            Ok(text) => outcome_line(&worker.extract(&text)),
            Err(line_no) => error_line(&format!("line {line_no} is not UTF-8")),
        };
        shared.service.record_latency(
            LatencyKind::BatchRecord,
            line_start.elapsed().as_nanos() as u64,
        );
        line
    };

    let result = if req.http11 {
        // Stream each record as its own chunk, as it is produced: the
        // client reads record k while record k+1 is still extracting.
        let mut w = ChunkedWriter::begin(stream, 200, "application/x-ndjson", keep_alive)?;
        for note in ndjson::notes_in_body(&req.body) {
            w.chunk(format!("{}\n", process(note)).as_bytes())?;
        }
        w.finish()
    } else {
        // HTTP/1.0 cannot take chunked: buffer and send with a length.
        let mut body = Vec::new();
        for note in ndjson::notes_in_body(&req.body) {
            body.extend_from_slice(process(note).as_bytes());
            body.push(b'\n');
        }
        write_response(stream, 200, "application/x-ndjson", &body, keep_alive, &[])
    };
    shared
        .service
        .record_latency(LatencyKind::Batch, start.elapsed().as_nanos() as u64);
    result
}

/// The bounded ready-connection queue between the accept thread and the
/// workers. `close` wakes every popper once the remaining items drain —
/// the drain path's "finish what was admitted, take nothing new".
struct ConnQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    cap: usize,
}

struct QueueState {
    items: VecDeque<Conn>,
    closed: bool,
}

impl ConnQueue {
    fn new(cap: usize) -> ConnQueue {
        ConnQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(cap),
                closed: false,
            }),
            ready: Condvar::new(),
            cap,
        }
    }

    /// Admits a connection unless the queue is full or closed (the
    /// connection comes back in `Err` so the caller can answer `429`).
    fn try_push(&self, conn: Conn) -> Result<(), Conn> {
        let Ok(mut state) = self.state.lock() else {
            return Err(conn);
        };
        if state.closed || state.items.len() >= self.cap {
            return Err(conn);
        }
        state.items.push_back(conn);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next connection; `None` once closed and empty.
    fn pop(&self) -> Option<Conn> {
        let mut state = self.state.lock().ok()?;
        loop {
            if let Some(conn) = state.items.pop_front() {
                return Some(conn);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).ok()?;
        }
    }

    fn close(&self) {
        if let Ok(mut state) = self.state.lock() {
            state.closed = true;
        }
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Orchestrators parse `/health`; pin the shape (including the
    /// degradation counters) with a full serde round trip.
    #[test]
    fn health_report_round_trips_through_json() {
        let report = HealthReport {
            status: "ready".to_string(),
            jobs: 2,
            uptime_ms: 1234,
            requests: 56,
            rejected: 7,
            timeouts: 3,
            assets: Some("00000000deadbeef".to_string()),
        };
        let json = serde_json::to_string(&report).expect("serialize");
        for field in [
            "\"timeouts\":3",
            "\"assets\":\"00000000deadbeef\"",
            "\"status\":\"ready\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        let back: HealthReport = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, report);
    }

    /// `wait_ready` reports nothing on a quiet socket, the read end once a
    /// byte is written, and a dropped peer as ready, which the readiness
    /// pass then classifies as closed.
    #[test]
    fn poll_reports_readable_and_closed_peers() {
        let wait = |fds: &mut [PollFd], timeout| wait_ready(fds, timeout).expect("poll");
        let long = Duration::from_secs(5);

        let (mut tx, rx) = UnixStream::pair().expect("socket pair");
        let mut fds = [PollFd::readable(rx.as_raw_fd())];
        assert_eq!(wait(&mut fds, Duration::ZERO), 0);
        assert!(!fds[0].is_ready());
        tx.write_all(&[1]).expect("write");
        assert_eq!(wait(&mut fds, long), 1);
        assert!(fds[0].is_ready());

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("non-blocking");
        let conn = Conn::new(server);
        let mut fds = [PollFd::readable(conn.stream.as_raw_fd())];
        assert_eq!(wait(&mut fds, Duration::ZERO), 0);
        assert_eq!(readiness(&conn, false), Readiness::Quiet);
        (&client).write_all(b"G").expect("write");
        assert_eq!(wait(&mut fds, long), 1);
        assert_eq!(readiness(&conn, false), Readiness::Readable);
        let mut byte = [0u8; 1];
        (&conn.stream).read_exact(&mut byte).expect("read the byte");
        drop(client);
        assert_eq!(wait(&mut fds, long), 1);
        assert_eq!(readiness(&conn, false), Readiness::Closed);
    }
}
