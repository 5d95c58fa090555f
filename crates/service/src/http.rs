//! The HTTP/JSON front-end: an [`AuditDaemon`] on a TCP port.
//!
//! A minimal, dependency-free HTTP/1.1 server over [`std::net::TcpListener`]
//! — the same offline discipline as `vendor/`: no crates.io, just enough
//! protocol for a JSON API. Every request body and response body is the
//! crate's existing hand-rolled serde wire format, so what a tenant `POST`s
//! is exactly a [`JobSpec`] and what they read back is exactly a
//! [`JobReport`] — no second schema to drift.
//!
//! | Method & path      | Body           | Replies                                             |
//! |--------------------|----------------|-----------------------------------------------------|
//! | `POST /jobs`       | [`JobSpec`]    | `201` `{"id", "status"}`; `400` invalid; `429` + `Retry-After` rate-limited |
//! | `GET /jobs`        | —              | `200` `{"jobs": [`[`JobSummary`]`…]}`               |
//! | `GET /jobs/{id}`   | —              | `200` `{"id","name","status","report"}`; `404`      |
//! | `GET /jobs/{id}/watch` | —          | `200` chunked ndjson: live trace events, then a final status line |
//! | `DELETE /jobs/{id}`| —              | `200` `{"id","cancelled"}` (cooperative); `404`     |
//! | `GET /stats`       | —              | `200` [`DaemonStats`]                               |
//! | `GET /metrics`     | —              | `200` Prometheus text exposition (`text/plain`)     |
//! | `GET /trace/{id}`  | —              | `200` `{"id","events"}` timeline; `404` unknown id  |
//! | `GET /events?since=N` | —           | `200` `{"next","events"}` incremental trace drain   |
//! | `GET /store/export` | —             | `200` the whole fact base as one `KnowledgeStore`   |
//! | `POST /store/import`| `KnowledgeStore` | `200` `{"labels","membership","set_verdicts"}`; `400` invalid knowledge store; `503` shutting down |
//! | `POST /fleet/delta`| [`FleetDelta`](crate::fleet::FleetDelta) | `200` `{"from","facts"}` anti-entropy receipt; `400` malformed; `503` shutting down |
//! | `GET /healthz`     | —              | `200` `{"status":"ok"}` — liveness, always           |
//! | `GET /readyz`      | —              | `200`/`503` [`Readiness`](crate::Readiness) body — dispatcher alive, persistence healthy, breaker + fleet-peer states |
//!
//! # Connection engine
//!
//! Connections are served by a **fixed pool of nonblocking event-loop
//! threads** ([`ServiceConfig::event_loop_threads`]), not a thread per
//! connection: the acceptor hands each socket to a loop round-robin, and
//! every loop drives its connections through a per-connection state machine
//! (incremental head/body parsing, bounded write buffering with
//! backpressure). The engine speaks **HTTP/1.1 keep-alive** — a client may
//! send many requests down one connection (`Connection: close` or
//! [`ServiceConfig::keep_alive_max_requests`] ends the reuse) — and
//! **pipelining**: every complete request already in the connection's read
//! buffer is parsed and answered in a single loop iteration, so a burst of
//! pipelined requests costs one round trip.
//!
//! `GET /jobs/{id}/watch` streams **live job progress** as chunked
//! transfer: each of the job's [`TraceEvent`]s is one ndjson chunk, drained
//! incrementally from the telemetry ring, followed by a final
//! `{"id","status"}` chunk and the chunked terminator once the job reaches
//! a terminal state. The connection stays reusable afterwards.
//!
//! A connection that goes quiet mid-request is answered `408` and closed
//! once [`ServiceConfig::keep_alive_idle`] elapses — measured from the
//! first byte of the request, so a slow-loris trickle cannot hold a
//! connection open by pacing single bytes. Idle *between* requests closes
//! silently. Overload (more than the connection cap) and shutdown refusals
//! carry `Retry-After`, as do per-tenant `429`s from the submit rate gate.
//!
//! Errors are **structured bodies**, never bare status lines: a validation
//! failure arrives as `400 {"error": "<JobSpec::validate message>"}`, an
//! unknown id as `404 {"error": …}`, a wrong method as `405`, a malformed
//! body as `400`, an oversized body as `413` (bodies are capped before
//! allocation — `Content-Length` is client input). Budget exhaustion,
//! cancellation and platform failures are
//! *not* transport errors — they are regular [`JobStatus`] data inside the
//! `200` report, exactly as the fallible ask path produced them.
//!
//! [`http_request`] is the one-call `Connection: close` client;
//! [`HttpClient`] is the keep-alive client the tests and the bench use to
//! exercise reuse, pipelining and the chunked watch stream.
//!
//! # Example: the whole API over a real socket
//!
//! ```
//! use coverage_core::prelude::*;
//! use coverage_service::http::{http_request, HttpServer};
//! use coverage_service::{AuditDaemon, AuditKind, JobSpec, ServiceConfig};
//! use std::sync::Arc;
//!
//! let labels: Vec<Labels> = (0..400).map(|i| Labels::single(u8::from(i % 8 == 0))).collect();
//! let truth = Arc::new(VecGroundTruth::new(labels));
//! let daemon = Arc::new(AuditDaemon::start(
//!     ServiceConfig::default(),
//!     SharedTruthSource::new(Arc::clone(&truth)),
//! ));
//! let server = HttpServer::serve("127.0.0.1:0", Arc::clone(&daemon)).unwrap();
//! let addr = server.local_addr();
//!
//! // Submit a spec as raw JSON…
//! let spec = JobSpec::new(
//!     "probe",
//!     truth.all_ids(),
//!     AuditKind::GroupCoverage { target: Target::group(Pattern::parse("1").unwrap()) },
//! )
//! .tau(10)
//! .priority(5);
//! let (code, body) = http_request(addr, "POST", "/jobs", Some(&serde_json::to_string(&spec).unwrap())).unwrap();
//! assert_eq!(code, 201, "{body}");
//!
//! // …poll it, list it, read the stats.
//! daemon.drain();
//! let (code, body) = http_request(addr, "GET", "/jobs/0", None).unwrap();
//! assert_eq!(code, 200);
//! assert!(body.contains("\"Done\""), "{body}");
//! let (code, _) = http_request(addr, "GET", "/stats", None).unwrap();
//! assert_eq!(code, 200);
//! // A bad spec is a structured 400, an unknown id a structured 404.
//! let (code, body) = http_request(addr, "POST", "/jobs", Some("{")).unwrap();
//! assert_eq!(code, 400);
//! assert!(body.contains("error"), "{body}");
//! let (code, _) = http_request(addr, "DELETE", "/jobs/77", None).unwrap();
//! assert_eq!(code, 404);
//!
//! // The telemetry plane rides the same socket: Prometheus text and a
//! // per-job phase timeline.
//! let (code, body) = http_request(addr, "GET", "/metrics", None).unwrap();
//! assert_eq!(code, 200);
//! assert!(body.contains("audit_jobs_submitted_total"), "{body}");
//! let (code, body) = http_request(addr, "GET", "/trace/0", None).unwrap();
//! assert_eq!(code, 200);
//! assert!(body.contains("\"submit\""), "{body}");
//!
//! server.shutdown();
//! daemon.shutdown();
//! ```
//!
//! [`JobStatus`]: crate::JobStatus
//! [`JobReport`]: crate::JobReport
//! [`TraceEvent`]: crate::telemetry::TraceEvent
//! [`ServiceConfig::event_loop_threads`]: crate::ServiceConfig::event_loop_threads
//! [`ServiceConfig::keep_alive_max_requests`]: crate::ServiceConfig::keep_alive_max_requests
//! [`ServiceConfig::keep_alive_idle`]: crate::ServiceConfig::keep_alive_idle

use crate::daemon::{AuditDaemon, DaemonStats, JobSummary, SubmitRefusal};
use crate::job::{JobId, JobSpec, JobStatus};
use crate::telemetry::status_label;
use coverage_core::engine::BatchAnswerSource;
use serde::{Serialize, Value};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Socket timeout for the blocking *clients* ([`http_request`],
/// [`HttpClient`]): a stalled server must not pin a test forever. The
/// server side is nonblocking and uses [`ServiceConfig::keep_alive_idle`]
/// instead.
///
/// [`ServiceConfig::keep_alive_idle`]: crate::ServiceConfig::keep_alive_idle
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Upper bound on an accepted request body. `Content-Length` is
/// client-controlled; without a cap a single request could ask the server
/// to allocate gigabytes before a byte arrives. 16 MiB comfortably holds
/// any real `JobSpec` (pools are `u32` ids) while bounding what one
/// connection can pin.
const MAX_BODY_BYTES: usize = 16 << 20;

/// Upper bound on the request line + header section. Headers are client
/// input too: without a cap, a newline-free flood (or millions of header
/// lines) grows the read buffer without bound before the body cap is ever
/// consulted.
const MAX_HEAD_BYTES: u64 = 64 << 10;

/// Upper bound on concurrently-served connections. Beyond the cap new
/// connections get an immediate `503` + `Retry-After` instead of a slot —
/// a connect burst must not be able to pin unbounded buffers.
const MAX_CONNECTIONS: usize = 256;

/// Write-buffer high-water mark. Once a connection has this many unflushed
/// response bytes, the engine stops reading and parsing for it until the
/// client drains — backpressure, so a client that never reads cannot make
/// the server buffer unboundedly.
const WRITE_BUF_HIGH: usize = 256 << 10;

/// One nonblocking read's scratch size.
const READ_CHUNK: usize = 8 << 10;

/// How long an event loop sleeps when a full pass over its channel and
/// connections made no progress. Small enough that a watch stream feels
/// live; large enough that an idle daemon costs ~no CPU.
const POLL_SLEEP: Duration = Duration::from_micros(500);

/// The daemon's TCP front door. Construct with [`HttpServer::serve`]; stop
/// with [`HttpServer::shutdown`] (stopping the server does **not** stop the
/// daemon — jobs keep running until [`AuditDaemon::shutdown`]).
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// The per-server slice of [`ServiceConfig`] the event loops need.
///
/// [`ServiceConfig`]: crate::ServiceConfig
#[derive(Clone)]
struct Engine {
    keep_alive_max: usize,
    idle: Duration,
}

impl HttpServer {
    /// Binds `addr` (use port `0` for an OS-assigned port, see
    /// [`HttpServer::local_addr`]) and starts serving the daemon's API on
    /// `ServiceConfig::event_loop_threads` nonblocking event loops.
    pub fn serve<S>(addr: impl ToSocketAddrs, daemon: Arc<AuditDaemon<S>>) -> io::Result<Self>
    where
        S: BatchAnswerSource + Send + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let live = Arc::new(AtomicUsize::new(0));
        let engine = Engine {
            keep_alive_max: daemon.config().keep_alive_max_requests,
            idle: daemon.config().keep_alive_idle,
        };

        let mut senders = Vec::new();
        let mut workers = Vec::new();
        for _ in 0..daemon.config().event_loop_threads {
            let (tx, rx) = mpsc::channel::<TcpStream>();
            senders.push(tx);
            let daemon = Arc::clone(&daemon);
            let stop = Arc::clone(&stop);
            let live = Arc::clone(&live);
            let engine = engine.clone();
            workers.push(std::thread::spawn(move || {
                event_loop(daemon, rx, stop, live, engine);
            }));
        }

        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut next = 0usize;
                for stream in listener.incoming() {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // Bound the live-connection count: a connect burst gets
                    // fast 503s with Retry-After, never unbounded buffers.
                    // Refusals are counted under their own route class — a
                    // connect flood must be visible at /metrics, not only
                    // in the clients' error logs.
                    if live.load(Ordering::Acquire) >= MAX_CONNECTIONS {
                        daemon.telemetry().count_http_request("?", "overload", 503);
                        let reply = encode_response(
                            503,
                            error_body("too many connections"),
                            Some(1),
                            false,
                        );
                        let mut stream = stream;
                        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
                        let _ = stream.write_all(&reply);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    live.fetch_add(1, Ordering::AcqRel);
                    if senders[next % senders.len()].send(stream).is_err() {
                        live.fetch_sub(1, Ordering::AcqRel);
                    }
                    next = next.wrapping_add(1);
                }
                // Dropping the senders lets drained event loops retire.
            })
        };
        Ok(Self {
            addr,
            stop,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address — the one to dial after binding port `0`.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections, joins the acceptor and the event
    /// loops. In-flight responses are flushed best-effort.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        // The acceptor sits in `accept`; one throwaway connection wakes it
        // to observe the flag. A wildcard bind (0.0.0.0 / ::) is not
        // directly connectable everywhere, so fall back to loopback on the
        // same port.
        let port = self.addr.port();
        let woke = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT).is_ok()
            || TcpStream::connect(("127.0.0.1", port)).is_ok()
            || TcpStream::connect(("::1", port)).is_ok();
        if let Some(acceptor) = self.acceptor.take() {
            if woke {
                let _ = acceptor.join();
                for worker in self.workers.drain(..) {
                    let _ = worker.join();
                }
            }
            // No wake-up reached the acceptor (firewalled loopback?): it
            // will observe `stop` on the next real connection; joining now
            // would block shutdown indefinitely, so let it retire on its
            // own rather than hang the caller.
        }
    }
}

/// Dropping the server without [`HttpServer::shutdown`] (early return,
/// panic unwind) still stops the engine: best-effort flag + wake-up, no
/// join — so the port is released and the `Arc<AuditDaemon>` is freed
/// instead of leaking for the process lifetime.
impl Drop for HttpServer {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.stop.store(true, Ordering::Release);
            let _ = TcpStream::connect(("127.0.0.1", self.addr.port()));
        }
    }
}

/// One event loop: adopts sockets from its channel, drives every
/// connection's state machine, and sleeps only when a full pass made no
/// progress anywhere. Pipelined requests that arrive in one TCP segment
/// are parsed and answered within a single pass.
fn event_loop<S: BatchAnswerSource + Send + 'static>(
    daemon: Arc<AuditDaemon<S>>,
    rx: mpsc::Receiver<TcpStream>,
    stop: Arc<AtomicBool>,
    live: Arc<AtomicUsize>,
    engine: Engine,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let retire = |conns: &mut Vec<Conn>, daemon: &AuditDaemon<S>, live: &AtomicUsize| {
        for conn in conns.drain(..) {
            drop(conn);
            daemon.telemetry().http_connection_delta(-1);
            live.fetch_sub(1, Ordering::AcqRel);
        }
    };
    loop {
        if stop.load(Ordering::Acquire) {
            retire(&mut conns, &daemon, &live);
            return;
        }
        let mut progress = false;
        while let Ok(stream) = rx.try_recv() {
            conns.push(Conn::new(stream));
            daemon.telemetry().http_connection_delta(1);
            progress = true;
        }
        let mut i = 0;
        while i < conns.len() {
            let (moved, done) = conns[i].drive(&daemon, &engine);
            progress |= moved;
            if done {
                drop(conns.swap_remove(i));
                daemon.telemetry().http_connection_delta(-1);
                live.fetch_sub(1, Ordering::AcqRel);
            } else {
                i += 1;
            }
        }
        if !progress {
            // Nothing moved: block briefly on the channel — this is both
            // the idle sleep and the new-connection wake-up.
            match rx.recv_timeout(POLL_SLEEP) {
                Ok(stream) => {
                    conns.push(Conn::new(stream));
                    daemon.telemetry().http_connection_delta(1);
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    if conns.is_empty() {
                        return;
                    }
                    std::thread::sleep(POLL_SLEEP);
                }
            }
        }
    }
}

/// An in-flight chunked `GET /jobs/{id}/watch` stream: which job, where in
/// the trace ring the stream has read to, and whether the connection may
/// be reused after the final chunk.
struct Watch {
    id: JobId,
    cursor: u64,
    keep: bool,
}

/// One connection's state machine. Lives inside a single event loop, so no
/// locking: the stream is nonblocking, reads accumulate into `read_buf`,
/// responses accumulate into `write_buf` and drain as the socket allows.
struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    written: usize,
    /// Requests fully served on this connection (keep-alive accounting).
    served: usize,
    /// When the first byte of the currently-incomplete request arrived.
    /// `None` between requests. This is what defeats slow-loris pacing:
    /// the deadline runs from the request's first byte, not its last.
    started: Option<Instant>,
    last_activity: Instant,
    watch: Option<Watch>,
    /// No further requests will be parsed; close once `write_buf` drains.
    closing: bool,
    peer_eof: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
            served: 0,
            started: None,
            last_activity: Instant::now(),
            watch: None,
            closing: false,
            peer_eof: false,
        }
    }

    fn pending(&self) -> usize {
        self.write_buf.len() - self.written
    }

    fn enqueue(&mut self, code: u16, body: Body, retry_after: Option<u64>, keep: bool) {
        let reply = encode_response(code, body, retry_after, keep);
        self.write_buf.extend_from_slice(&reply);
    }

    /// One pass of the state machine: read what's there, parse and answer
    /// every complete request (pipelining), pump an active watch stream,
    /// flush, and apply the idle/slow-loris deadlines. Returns
    /// `(made_progress, finished)`.
    fn drive<S: BatchAnswerSource + Send + 'static>(
        &mut self,
        daemon: &AuditDaemon<S>,
        engine: &Engine,
    ) -> (bool, bool) {
        let mut progress = false;

        // 1. Read: greedy until WouldBlock, gated by backpressure.
        if !self.peer_eof && !self.closing && self.pending() < WRITE_BUF_HIGH {
            loop {
                let mut buf = [0u8; READ_CHUNK];
                match self.stream.read(&mut buf) {
                    Ok(0) => {
                        self.peer_eof = true;
                        break;
                    }
                    Ok(n) => {
                        if self.read_buf.is_empty() {
                            self.started = Some(Instant::now());
                        }
                        self.read_buf.extend_from_slice(&buf[..n]);
                        self.last_activity = Instant::now();
                        progress = true;
                        if self.read_buf.len() > MAX_BODY_BYTES + MAX_HEAD_BYTES as usize {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return (true, true),
                }
            }
        }

        // 2. Parse + dispatch every complete request in the buffer.
        while self.watch.is_none()
            && !self.closing
            && self.pending() < WRITE_BUF_HIGH
            && !self.read_buf.is_empty()
        {
            match parse_request(&self.read_buf) {
                Parse::NeedMore => break,
                Parse::Invalid {
                    code,
                    message,
                    method,
                    route,
                } => {
                    // Even an unparseable request is a counted one: floods
                    // of garbage must show up at /metrics.
                    daemon.telemetry().count_http_request(&method, route, code);
                    self.enqueue(code, error_body(&message), None, false);
                    self.closing = true;
                    progress = true;
                }
                Parse::Request(req) => {
                    self.read_buf.drain(..req.consumed);
                    self.started = if self.read_buf.is_empty() {
                        None
                    } else {
                        // The next pipelined request's clock starts now.
                        Some(Instant::now())
                    };
                    if self.served >= 1 {
                        daemon.telemetry().record_keepalive_reuse();
                    }
                    self.served += 1;
                    let keep = !req.close && self.served < engine.keep_alive_max;
                    progress = true;

                    let bare = req.path.split('?').next().unwrap_or(&req.path);
                    if req.method == "GET" {
                        if let Some(id) = watch_job_id(bare) {
                            if daemon.status(id).is_some() {
                                daemon.telemetry().count_http_request(
                                    "GET",
                                    "/jobs/{id}/watch",
                                    200,
                                );
                                self.write_buf
                                    .extend_from_slice(watch_head(keep).as_bytes());
                                self.watch = Some(Watch {
                                    id,
                                    cursor: 0,
                                    keep,
                                });
                                continue;
                            }
                            // Unknown id: fall through, route() serves 404.
                        }
                    }
                    let reply = route(daemon, &req.method, &req.path, &req.body);
                    daemon.telemetry().count_http_request(
                        &req.method,
                        route_class(&req.path),
                        reply.code,
                    );
                    self.enqueue(reply.code, reply.body, reply.retry_after, keep);
                    if !keep {
                        self.closing = true;
                    }
                }
            }
        }

        // 3. Pump an active watch stream from the trace ring. Status is
        // read *before* the event drain: a job's terminal trace events are
        // recorded before its status flips, so this order can observe a
        // terminal status only after its last events are already drained.
        if self.pending() < WRITE_BUF_HIGH {
            if let Some(watch) = &mut self.watch {
                let status = daemon.status(watch.id);
                let (events, next) = daemon.telemetry().events_since(watch.cursor);
                watch.cursor = next;
                for event in events.iter().filter(|e| e.job == Some(watch.id.0)) {
                    let Ok(line) = serde_json::to_string(event) else {
                        daemon.telemetry().record_watch_line_dropped();
                        continue;
                    };
                    push_chunk(&mut self.write_buf, &format!("{line}\n"));
                    progress = true;
                }
                let terminal =
                    !matches!(status, Some(JobStatus::Queued) | Some(JobStatus::Running));
                if terminal {
                    let label = status.map_or("unknown", |s| status_label(&s));
                    push_chunk(
                        &mut self.write_buf,
                        &format!("{{\"id\": {}, \"status\": \"{label}\"}}\n", watch.id.0),
                    );
                    self.write_buf.extend_from_slice(b"0\r\n\r\n");
                    if !watch.keep {
                        self.closing = true;
                    }
                    self.watch = None;
                    progress = true;
                }
            }
        }

        // 4. Flush as much of the write buffer as the socket takes.
        while self.pending() > 0 {
            match self.stream.write(&self.write_buf[self.written..]) {
                Ok(0) => return (true, true),
                Ok(n) => {
                    self.written += n;
                    self.last_activity = Instant::now();
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return (true, true),
            }
        }
        if self.pending() == 0 && self.written > 0 {
            self.write_buf.clear();
            self.written = 0;
        }

        // 5. Terminal states.
        if self.closing && self.watch.is_none() && self.pending() == 0 {
            return (progress, true);
        }
        if self.peer_eof {
            if self.watch.is_some() {
                // The watcher hung up mid-stream.
                return (progress, true);
            }
            if !self.read_buf.is_empty() && !self.closing {
                // Half-closed with a request that can never complete
                // (mid-body disconnect): answer 400 to the half-open
                // reader, then drain and close.
                daemon.telemetry().count_http_request("?", "malformed", 400);
                self.enqueue(400, error_body("incomplete request"), None, false);
                self.closing = true;
                return (true, false);
            }
            if self.pending() == 0 {
                return (progress, true);
            }
        }

        // 6. Deadlines.
        let idle = self.last_activity.elapsed() > engine.idle;
        if self.watch.is_some() {
            // A live stream is exempt from the request deadline, but a
            // watcher that stops draining its chunks is not.
            if idle && self.pending() > 0 {
                return (progress, true);
            }
        } else if let Some(started) = self.started {
            if started.elapsed() > engine.idle && !self.closing {
                // The request started but never completed in time — the
                // slow-loris path gets a clean 408, then a close.
                daemon.telemetry().count_http_request("?", "timeout", 408);
                self.enqueue(408, error_body("request timed out"), None, false);
                self.started = None;
                self.closing = true;
                return (true, false);
            }
        } else if idle {
            // Keep-alive idle expiry between requests: silent close, like
            // every production HTTP server.
            return (progress, true);
        }

        (progress, false)
    }
}

/// The chunked-response head of a watch stream.
fn watch_head(keep: bool) -> String {
    let connection = if keep { "keep-alive" } else { "close" };
    format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\nConnection: {connection}\r\n\r\n"
    )
}

/// Appends `data` as one HTTP/1.1 chunk: hex length, CRLF, data, CRLF.
fn push_chunk(buf: &mut Vec<u8>, data: &str) {
    buf.extend_from_slice(format!("{:x}\r\n", data.len()).as_bytes());
    buf.extend_from_slice(data.as_bytes());
    buf.extend_from_slice(b"\r\n");
}

/// `/jobs/{id}/watch` with a numeric id, or `None`.
fn watch_job_id(path: &str) -> Option<JobId> {
    let rest = path.strip_prefix("/jobs/")?;
    let id = rest.strip_suffix("/watch")?;
    id.parse().ok().map(JobId)
}

/// The outcome of trying to parse one request off the front of a
/// connection's read buffer.
enum Parse {
    /// The buffer holds a prefix of a request; read more.
    NeedMore,
    /// One complete request (and how many buffer bytes it consumed).
    Request(Req),
    /// The buffer can never become a servable request: answer and close.
    Invalid {
        code: u16,
        message: String,
        method: String,
        route: &'static str,
    },
}

struct Req {
    method: String,
    path: String,
    body: String,
    /// The client sent `Connection: close`.
    close: bool,
    consumed: usize,
}

/// Incremental HTTP/1.1 request parser over the raw buffer: finds the head
/// terminator, applies the head/body caps, and only returns `Request` once
/// the full body is buffered. Pure, so the framing tests drive it hard.
fn parse_request(buf: &[u8]) -> Parse {
    let head_end = buf.windows(4).position(|window| window == b"\r\n\r\n");
    let Some(head_end) = head_end else {
        if buf.len() as u64 >= MAX_HEAD_BYTES {
            return Parse::Invalid {
                code: 400,
                message: format!("request head exceeds the {MAX_HEAD_BYTES}-byte limit"),
                method: "?".to_string(),
                route: "malformed",
            };
        }
        return Parse::NeedMore;
    };
    if head_end as u64 + 4 > MAX_HEAD_BYTES {
        return Parse::Invalid {
            code: 400,
            message: format!("request head exceeds the {MAX_HEAD_BYTES}-byte limit"),
            method: "?".to_string(),
            route: "malformed",
        };
    }
    let head = String::from_utf8_lossy(&buf[..head_end]);
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Parse::Invalid {
            code: 400,
            message: "malformed request line".to_string(),
            method: "?".to_string(),
            route: "malformed",
        };
    };
    let (method, path) = (method.to_string(), path.to_string());

    let mut content_length = 0usize;
    let mut close = false;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                match value.parse() {
                    Ok(length) => content_length = length,
                    Err(_) => {
                        return Parse::Invalid {
                            code: 400,
                            message: format!("malformed Content-Length `{value}`"),
                            method,
                            route: route_class(&path),
                        }
                    }
                }
            } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close")
            {
                close = true;
            }
        }
    }
    // The length is client-controlled: refuse before buffering further, or
    // one request could pin (or fail to allocate) gigabytes.
    if content_length > MAX_BODY_BYTES {
        return Parse::Invalid {
            code: 413,
            message: format!(
                "request body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            ),
            method,
            route: route_class(&path),
        };
    }
    let total = head_end + 4 + content_length;
    if buf.len() < total {
        return Parse::NeedMore;
    }
    let body = String::from_utf8_lossy(&buf[head_end + 4..total]).into_owned();
    Parse::Request(Req {
        method,
        path,
        body,
        close,
        consumed: total,
    })
}

/// One-call HTTP/1.1 client for the daemon's API: sends `method path` with
/// an optional JSON body over a fresh `Connection: close` socket, returns
/// `(status code, response body)`. This is deliberately the same
/// plain-socket dialect the server speaks — tests, doctests and the
/// `daemon_audit` example drive the real wire format with it, no HTTP
/// library required. For keep-alive and pipelining, use [`HttpClient`].
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// A keep-alive HTTP/1.1 client: one TCP connection, many requests. Knows
/// `Content-Length` and chunked framing, so it can read a `/watch` stream
/// to the terminator and keep using the same socket. [`HttpClient::send`]
/// and [`HttpClient::read_response`] decouple writing from reading, which
/// is what lets the tests and the bench pipeline several requests into
/// one segment before collecting any reply.
#[derive(Debug)]
pub struct HttpClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// A fully read response: status code, lowercased `(name, value)` header
/// pairs, and the (de-chunked) body.
pub type DecodedResponse = (u16, Vec<(String, String)>, String);

impl HttpClient {
    /// Connects to the daemon's front door.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            writer: stream,
            reader,
        })
    }

    /// Writes one request without reading its response — call
    /// [`HttpClient::read_response`] once per send, in order. Back-to-back
    /// sends pipeline.
    pub fn send(&mut self, method: &str, path: &str, body: Option<&str>) -> io::Result<()> {
        let body = body.unwrap_or("");
        write!(
            self.writer,
            "{method} {path} HTTP/1.1\r\nHost: daemon\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )?;
        self.writer.flush()
    }

    /// One request-response round trip over the persistent connection.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        self.send(method, path, body)?;
        self.read_response()
    }

    /// Reads the next pipelined response: `(status, body)`. A chunked
    /// response (the `/watch` stream) is read through its terminator and
    /// returned de-chunked.
    pub fn read_response(&mut self) -> io::Result<(u16, String)> {
        self.read_response_with_headers()
            .map(|(code, _, body)| (code, body))
    }

    /// Like [`HttpClient::read_response`], also returning the response
    /// headers as lowercased `(name, value)` pairs — the tests assert on
    /// `Retry-After` and `Connection` with this.
    pub fn read_response_with_headers(&mut self) -> io::Result<DecodedResponse> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before a response",
            ));
        }
        let code = line
            .split_whitespace()
            .nth(1)
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
        let mut headers = Vec::new();
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                break;
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
            }
        }
        let header = |name: &str| {
            headers
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.as_str())
        };
        let chunked =
            header("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked"));
        let body = if chunked {
            let mut body = Vec::new();
            loop {
                let mut size = String::new();
                self.reader.read_line(&mut size)?;
                let size = usize::from_str_radix(size.trim(), 16).map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "malformed chunk size")
                })?;
                let mut chunk = vec![0u8; size + 2];
                self.reader.read_exact(&mut chunk)?;
                if size == 0 {
                    break;
                }
                chunk.truncate(size);
                body.extend_from_slice(&chunk);
            }
            body
        } else {
            let length = header("content-length")
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(0);
            let mut body = vec![0u8; length];
            self.reader.read_exact(&mut body)?;
            body
        };
        Ok((code, headers, String::from_utf8_lossy(&body).into_owned()))
    }
}

/// The bounded-cardinality route label of a request path: ids collapse
/// (`/jobs/17` → `/jobs/{id}`), query strings drop, and anything
/// unroutable is `other` — `audit_http_requests_total`'s label set stays
/// small however creative the clients get.
fn route_class(path: &str) -> &'static str {
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/jobs" => "/jobs",
        "/stats" => "/stats",
        "/metrics" => "/metrics",
        "/events" => "/events",
        "/store/export" => "/store/export",
        "/store/import" => "/store/import",
        "/fleet/delta" => "/fleet/delta",
        "/healthz" => "/healthz",
        "/readyz" => "/readyz",
        p if p.starts_with("/jobs/") && p.ends_with("/watch") => "/jobs/{id}/watch",
        p if p.starts_with("/jobs/") => "/jobs/{id}",
        p if p.starts_with("/trace/") => "/trace/{id}",
        // Any other fleet-prefixed path collapses to one label: when a
        // router fronts many nodes, probing or misaddressed fleet
        // traffic must not mint a Prometheus label per path.
        p if p.starts_with("/fleet/") || p == "/fleet" => "/fleet/*",
        _ => "other",
    }
}

/// One routed response: status, payload, and (for `503`/`429` refusals)
/// the `Retry-After` hint.
struct Reply {
    code: u16,
    body: Body,
    retry_after: Option<u64>,
}

impl Reply {
    fn new(code: u16, body: Body) -> Self {
        Self {
            code,
            body,
            retry_after: None,
        }
    }

    fn retry(code: u16, body: Body, secs: u64) -> Self {
        Self {
            code,
            body,
            retry_after: Some(secs),
        }
    }
}

/// Maps one parsed request onto the daemon API. Pure apart from the daemon
/// calls, so unit tests can drive it without a socket. (`GET` on a known
/// `/jobs/{id}/watch` never reaches here — the connection handles the
/// stream itself.)
fn route<S: BatchAnswerSource + Send + 'static>(
    daemon: &AuditDaemon<S>,
    method: &str,
    path: &str,
    body: &str,
) -> Reply {
    // `/events?since=7`: the query string routes with the path.
    let (path, query) = path.split_once('?').unwrap_or((path, ""));
    match (method, path) {
        ("POST", "/jobs") => match serde_json::from_str::<JobSpec>(body) {
            Ok(spec) => match daemon.try_submit(spec) {
                Ok(id) => Reply::new(
                    201,
                    Body::Json(Value::Object(vec![
                        ("id".to_string(), id.to_value()),
                        ("status".to_string(), Value::Str("Queued".to_string())),
                    ])),
                ),
                // A refusal because the daemon is stopping is a *server*
                // condition (retry elsewhere), not a client error; a
                // rate-gate refusal is a 429 with the computed wait.
                Err(refusal @ SubmitRefusal::ShuttingDown) => {
                    Reply::retry(503, error_body(&refusal.to_string()), 1)
                }
                Err(refusal @ SubmitRefusal::RateLimited { .. }) => {
                    let secs = match refusal {
                        SubmitRefusal::RateLimited { retry_after_secs } => retry_after_secs,
                        _ => 1,
                    };
                    Reply::retry(429, error_body(&refusal.to_string()), secs)
                }
                Err(SubmitRefusal::Invalid(message)) => Reply::new(400, error_body(&message)),
            },
            Err(e) => Reply::new(400, error_body(&format!("invalid job spec: {e}"))),
        },
        ("GET", "/jobs") => {
            let jobs: Vec<JobSummary> = daemon.jobs();
            Reply::new(
                200,
                Body::Json(Value::Object(vec![("jobs".to_string(), jobs.to_value())])),
            )
        }
        ("GET", "/stats") => {
            let stats: DaemonStats = daemon.stats();
            Reply::new(200, Body::Json(stats.to_value()))
        }
        // The whole metrics registry in Prometheus text exposition format —
        // counters, gauges, labeled families, histograms. Served as plain
        // text (the scrape format), not JSON.
        ("GET", "/metrics") => Reply::new(200, Body::Text(daemon.telemetry().render_prometheus())),
        // Incremental trace drain: events with `seq >= since`, plus the
        // `next` cursor to resume from. Survives ring wraparound — a
        // consumer that slept through a wrap resumes at the oldest
        // surviving event and sees the gap in the numbering.
        ("GET", "/events") => {
            let since = match query.strip_prefix("since=") {
                Some(raw) => match raw.parse::<u64>() {
                    Ok(since) => since,
                    Err(_) => {
                        return Reply::new(
                            400,
                            error_body(&format!("malformed since cursor `{raw}`")),
                        )
                    }
                },
                None if query.is_empty() => 0,
                None => return Reply::new(400, error_body(&format!("unknown query `{query}`"))),
            };
            let (events, next) = daemon.telemetry().events_since(since);
            Reply::new(
                200,
                Body::Json(Value::Object(vec![
                    ("next".to_string(), next.to_value()),
                    ("events".to_string(), events.to_value()),
                ])),
            )
        }
        // The durable-knowledge doors: export the whole fact base as one
        // JSON document, import a previously exported one. Together they
        // let a fresh daemon inherit a prior run's crowd-bought facts over
        // the wire — the HTTP twin of `data_dir` recovery.
        ("GET", "/store/export") => Reply::new(200, Body::Json(daemon.export_store().to_value())),
        ("POST", "/store/import") => {
            // Same door policy as `POST /jobs`: once shutdown has begun
            // the daemon mutates no more state, and a half-torn-down
            // store must not race a multi-megabyte import. Checked
            // before parsing — refusing is cheaper than deserializing.
            if !daemon.is_accepting() {
                return Reply::retry(503, error_body(AuditDaemon::<S>::SHUTTING_DOWN), 1);
            }
            match serde_json::from_str::<coverage_core::memo::KnowledgeStore>(body) {
                Ok(store) => {
                    let (labels, membership, set_verdicts) = (
                        store.labels_known(),
                        store.membership_facts(),
                        store.set_verdicts_known(),
                    );
                    daemon.import_store(&store);
                    Reply::new(
                        200,
                        Body::Json(Value::Object(vec![
                            ("labels".to_string(), labels.to_value()),
                            ("membership".to_string(), membership.to_value()),
                            ("set_verdicts".to_string(), set_verdicts.to_value()),
                        ])),
                    )
                }
                Err(e) => Reply::new(400, error_body(&format!("invalid knowledge store: {e}"))),
            }
        }
        // The fleet's anti-entropy door: a peer ships the facts it holds
        // that (it believes) this node doesn't. Same semantics as an
        // import — seeded facts bypass reuse stats and the WAL — plus
        // the per-peer delta tally; the receipt echoes the sender and
        // the fact count so the gossip loop can assert delivery.
        ("POST", "/fleet/delta") => {
            if !daemon.is_accepting() {
                return Reply::retry(503, error_body(AuditDaemon::<S>::SHUTTING_DOWN), 1);
            }
            match serde_json::from_str::<crate::fleet::FleetDelta>(body) {
                Ok(delta) => {
                    let facts = delta.store.fact_count();
                    daemon.absorb_fleet_delta(&delta.from, &delta.store);
                    Reply::new(
                        200,
                        Body::Json(Value::Object(vec![
                            ("from".to_string(), Value::Str(delta.from)),
                            ("facts".to_string(), facts.to_value()),
                        ])),
                    )
                }
                Err(e) => Reply::new(400, error_body(&format!("invalid fleet delta: {e}"))),
            }
        }
        // Liveness: the process answers, full stop. Load balancers and
        // process supervisors probe this; it carries no judgement about
        // the daemon's internals (that is `/readyz`).
        ("GET", "/healthz") => Reply::new(
            200,
            Body::Json(Value::Object(vec![(
                "status".to_string(),
                Value::Str("ok".to_string()),
            )])),
        ),
        // Readiness: 200 only while the dispatcher is alive and the
        // durable knowledge plane has swallowed no I/O error; the body
        // carries the verdict's ingredients, including every tenant's
        // circuit-breaker state.
        ("GET", "/readyz") => {
            let readiness = daemon.readiness();
            let code = if readiness.ready { 200 } else { 503 };
            Reply::new(code, Body::Json(readiness.to_value()))
        }
        (_, "/jobs")
        | (_, "/stats")
        | (_, "/metrics")
        | (_, "/events")
        | (_, "/store/export")
        | (_, "/store/import")
        | (_, "/fleet/delta")
        | (_, "/healthz")
        | (_, "/readyz") => Reply::new(405, error_body("method not allowed")),
        (method, path) => {
            // A watch path with a wrong method (or a malformed/unknown id)
            // routes like every id route: unknown job before wrong method.
            if let Some(raw) = path
                .strip_prefix("/jobs/")
                .and_then(|rest| rest.strip_suffix("/watch"))
            {
                return match raw.parse::<u64>() {
                    Ok(id) if daemon.status(JobId(id)).is_none() => {
                        Reply::new(404, error_body(&format!("no such job: {}", JobId(id))))
                    }
                    Ok(_) => Reply::new(405, error_body("method not allowed")),
                    Err(_) => Reply::new(400, error_body(&format!("malformed job id `{raw}`"))),
                };
            }
            if let Some(rest) = path.strip_prefix("/jobs/") {
                return match rest.parse::<u64>() {
                    Ok(id) => job_route(daemon, method, JobId(id)),
                    Err(_) => Reply::new(400, error_body(&format!("malformed job id `{rest}`"))),
                };
            }
            if let Some(rest) = path.strip_prefix("/trace/") {
                return match rest.parse::<u64>() {
                    Ok(id) => trace_route(daemon, method, JobId(id)),
                    Err(_) => Reply::new(400, error_body(&format!("malformed job id `{rest}`"))),
                };
            }
            Reply::new(404, error_body(&format!("no such route: {method} {path}")))
        }
    }
}

/// `GET /trace/{id}`: the job's surviving timeline from the trace ring.
fn trace_route<S: BatchAnswerSource + Send + 'static>(
    daemon: &AuditDaemon<S>,
    method: &str,
    id: JobId,
) -> Reply {
    // Unknown job before wrong method: a timeline for a job the daemon
    // never issued is a 404 whatever the verb.
    if daemon.status(id).is_none() {
        return Reply::new(404, error_body(&format!("no such job: {id}")));
    }
    if method != "GET" {
        return Reply::new(405, error_body("method not allowed"));
    }
    let events = daemon.telemetry().timeline(id.0);
    Reply::new(
        200,
        Body::Json(Value::Object(vec![
            ("id".to_string(), id.to_value()),
            ("events".to_string(), events.to_value()),
        ])),
    )
}

/// `GET`/`DELETE /jobs/{id}`.
fn job_route<S: BatchAnswerSource + Send + 'static>(
    daemon: &AuditDaemon<S>,
    method: &str,
    id: JobId,
) -> Reply {
    match method {
        "GET" => {
            // One consistent snapshot: status and report come from a single
            // lock acquisition, so `Running` is never served next to an
            // already-published report.
            let Some((summary, report)) = daemon.snapshot(id) else {
                return Reply::new(404, error_body(&format!("no such job: {id}")));
            };
            Reply::new(
                200,
                Body::Json(Value::Object(vec![
                    ("id".to_string(), id.to_value()),
                    ("name".to_string(), Value::Str(summary.name)),
                    ("algorithm".to_string(), Value::Str(summary.algorithm)),
                    ("status".to_string(), summary.status.to_value()),
                    (
                        "report".to_string(),
                        match report {
                            Some(report) => report.to_value(),
                            None => Value::Null,
                        },
                    ),
                ])),
            )
        }
        "DELETE" => {
            if !daemon.cancel(id) {
                return Reply::new(404, error_body(&format!("no such job: {id}")));
            }
            Reply::new(
                200,
                Body::Json(Value::Object(vec![
                    ("id".to_string(), id.to_value()),
                    ("cancelled".to_string(), Value::Bool(true)),
                ])),
            )
        }
        _ if daemon.status(id).is_none() => {
            Reply::new(404, error_body(&format!("no such job: {id}")))
        }
        _ => Reply::new(405, error_body("method not allowed")),
    }
}

fn error_body(message: &str) -> Body {
    Body::Json(Value::Object(vec![(
        "error".to_string(),
        Value::Str(message.to_string()),
    )]))
}

/// A response payload: the API's JSON bodies, or plain text for the
/// Prometheus exposition format (`GET /metrics` is scraped by tools that
/// expect `text/plain`, not JSON).
enum Body {
    Json(Value),
    Text(String),
}

/// Serializes one complete response, keep-alive aware. `Retry-After`
/// travels on the refusal statuses so a polite client knows when to come
/// back.
fn encode_response(code: u16, body: Body, retry_after: Option<u64>, keep: bool) -> Vec<u8> {
    let (code, content_type, body) = match body {
        Body::Json(value) => match serde_json::to_string_pretty(&value) {
            Ok(text) => (code, "application/json", text),
            // A body that will not serialize fails this one reply, never
            // the event loop serving every connection.
            Err(_) => (
                500,
                "application/json",
                String::from("{\"error\": \"reply did not serialize\"}"),
            ),
        },
        // The Prometheus text exposition format, version 0.0.4.
        Body::Text(text) => (code, "text/plain; version=0.0.4", text),
    };
    let reason = match code {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let connection = if keep { "keep-alive" } else { "close" };
    let mut head = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        body.len()
    );
    if let Some(secs) = retry_after {
        head.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    head.push_str(&format!("Connection: {connection}\r\n\r\n"));
    let mut reply = head.into_bytes();
    reply.extend_from_slice(body.as_bytes());
    reply
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::AuditKind;
    use crate::service::ServiceConfig;
    use coverage_core::prelude::*;

    fn daemon(
        n: usize,
        minority: usize,
    ) -> (
        Arc<AuditDaemon<SharedTruthSource<VecGroundTruth>>>,
        Vec<ObjectId>,
    ) {
        let truth = Arc::new(VecGroundTruth::new(
            (0..n)
                .map(|i| Labels::single(u8::from(i < minority)))
                .collect(),
        ));
        let pool = truth.all_ids();
        let daemon = AuditDaemon::start(
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
            SharedTruthSource::new(truth),
        );
        (Arc::new(daemon), pool)
    }

    fn spec(name: &str, pool: Vec<ObjectId>) -> JobSpec {
        JobSpec::new(
            name,
            pool,
            AuditKind::GroupCoverage {
                target: Target::group(Pattern::parse("1").unwrap()),
            },
        )
        .tau(5)
    }

    #[test]
    fn full_api_over_a_socket() {
        let (daemon, pool) = daemon(300, 40);
        let server = HttpServer::serve("127.0.0.1:0", Arc::clone(&daemon)).unwrap();
        let addr = server.local_addr();

        let body = serde_json::to_string(&spec("wire", pool)).unwrap();
        let (code, reply) = http_request(addr, "POST", "/jobs", Some(&body)).unwrap();
        assert_eq!(code, 201, "{reply}");
        assert!(reply.contains("\"id\""), "{reply}");

        daemon.drain();
        let (code, reply) = http_request(addr, "GET", "/jobs/0", None).unwrap();
        assert_eq!(code, 200);
        assert!(reply.contains("\"Done\""), "{reply}");
        assert!(reply.contains("\"report\""), "{reply}");

        let (code, reply) = http_request(addr, "GET", "/jobs", None).unwrap();
        assert_eq!(code, 200);
        assert!(reply.contains("wire"), "{reply}");

        let (code, reply) = http_request(addr, "GET", "/stats", None).unwrap();
        assert_eq!(code, 200);
        assert!(reply.contains("\"submitted\": 1"), "{reply}");

        let (code, _) = http_request(addr, "DELETE", "/jobs/0", None).unwrap();
        assert_eq!(
            code, 200,
            "cancel of a terminal job is a no-op, not an error"
        );

        server.shutdown();
        daemon.shutdown().unwrap();
    }

    /// `/healthz` answers whenever the process does; `/readyz` reports the
    /// daemon's actual fitness and flips to 503 once the dispatcher stops.
    #[test]
    fn health_surfaces_over_a_socket() {
        let (daemon, _pool) = daemon(20, 2);
        let server = HttpServer::serve("127.0.0.1:0", Arc::clone(&daemon)).unwrap();
        let addr = server.local_addr();

        let (code, reply) = http_request(addr, "GET", "/healthz", None).unwrap();
        assert_eq!(code, 200);
        assert!(reply.contains("\"ok\""), "{reply}");

        let (code, reply) = http_request(addr, "GET", "/readyz", None).unwrap();
        assert_eq!(code, 200, "{reply}");
        assert!(reply.contains("\"dispatcher_alive\": true"), "{reply}");
        assert!(reply.contains("\"persistence_healthy\": true"), "{reply}");
        assert!(reply.contains("\"breakers\""), "{reply}");

        let (code, _) = http_request(addr, "POST", "/healthz", None).unwrap();
        assert_eq!(code, 405);
        let (code, _) = http_request(addr, "DELETE", "/readyz", None).unwrap();
        assert_eq!(code, 405);

        // Liveness keeps answering after shutdown; readiness flips to 503.
        daemon.drain();
        daemon.shutdown().unwrap();
        let (code, _) = http_request(addr, "GET", "/healthz", None).unwrap();
        assert_eq!(code, 200);
        let (code, reply) = http_request(addr, "GET", "/readyz", None).unwrap();
        assert_eq!(code, 503, "{reply}");
        assert!(reply.contains("\"dispatcher_alive\": false"), "{reply}");

        server.shutdown();
    }

    #[test]
    fn errors_are_structured_bodies() {
        let (daemon, pool) = daemon(100, 10);
        let server = HttpServer::serve("127.0.0.1:0", Arc::clone(&daemon)).unwrap();
        let addr = server.local_addr();

        // Malformed JSON.
        let (code, reply) = http_request(addr, "POST", "/jobs", Some("{nope")).unwrap();
        assert_eq!(code, 400);
        assert!(reply.contains("\"error\""), "{reply}");
        // A spec that fails validation — the message travels to the body.
        let bad = serde_json::to_string(&spec("bad", pool).n(0)).unwrap();
        let (code, reply) = http_request(addr, "POST", "/jobs", Some(&bad)).unwrap();
        assert_eq!(code, 400);
        assert!(reply.contains("positive"), "{reply}");
        // Unknown id, malformed id, unknown route, wrong method.
        let (code, reply) = http_request(addr, "GET", "/jobs/9", None).unwrap();
        assert_eq!(code, 404);
        assert!(reply.contains("no such job"), "{reply}");
        let (code, _) = http_request(addr, "GET", "/jobs/xyz", None).unwrap();
        assert_eq!(code, 400);
        let (code, _) = http_request(addr, "GET", "/nope", None).unwrap();
        assert_eq!(code, 404);
        let (code, _) = http_request(addr, "DELETE", "/jobs", None).unwrap();
        assert_eq!(code, 405);
        // Wrong method on an id that exists (the id check runs first: a
        // missing job is 404 whatever the method).
        let ok = serde_json::to_string(&spec("ok", vec![ObjectId(0)])).unwrap();
        let (code, _) = http_request(addr, "POST", "/jobs", Some(&ok)).unwrap();
        assert_eq!(code, 201);
        let (code, _) = http_request(addr, "POST", "/jobs/0", None).unwrap();
        assert_eq!(code, 405);

        // A valid spec refused because the daemon is stopping is a server
        // condition: 503, not 400 — and it tells the client when to retry.
        daemon.drain();
        daemon.shutdown().unwrap();
        let mut client = HttpClient::connect(addr).unwrap();
        client.send("POST", "/jobs", Some(&ok)).unwrap();
        let (code, headers, reply) = client.read_response_with_headers().unwrap();
        assert_eq!(code, 503, "{reply}");
        assert!(reply.contains("shutting down"), "{reply}");
        assert!(
            headers.iter().any(|(n, v)| n == "retry-after" && v == "1"),
            "503 must carry Retry-After: {headers:?}"
        );

        server.shutdown();
    }

    /// A huge claimed `Content-Length` must be refused before any
    /// allocation happens — one request must not be able to pin gigabytes.
    #[test]
    fn oversized_body_is_refused_with_413() {
        let (daemon, _pool) = daemon(20, 2);
        let server = HttpServer::serve("127.0.0.1:0", Arc::clone(&daemon)).unwrap();
        let addr = server.local_addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(IO_TIMEOUT)).unwrap();
        write!(
            stream,
            "POST /jobs HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: 99999999999\r\n\r\n"
        )
        .unwrap();
        stream.flush().unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 413"), "{response}");
        assert!(response.contains("exceeds"), "{response}");

        // The server is still healthy afterwards.
        let (code, _) = http_request(addr, "GET", "/stats", None).unwrap();
        assert_eq!(code, 200);
        server.shutdown();
        daemon.shutdown().unwrap();
    }

    /// A newline-free flood in the request/header section runs out of the
    /// head byte budget and is answered as malformed — it cannot grow the
    /// read buffer without bound.
    #[test]
    fn header_flood_is_bounded_and_rejected() {
        let (daemon, _pool) = daemon(20, 2);
        let server = HttpServer::serve("127.0.0.1:0", Arc::clone(&daemon)).unwrap();
        let addr = server.local_addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(IO_TIMEOUT)).unwrap();
        let flood = vec![b'A'; MAX_HEAD_BYTES as usize];
        stream.write_all(&flood).unwrap();
        stream.flush().unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");

        let (code, _) = http_request(addr, "GET", "/stats", None).unwrap();
        assert_eq!(code, 200, "server healthy after the flood");
        server.shutdown();
        daemon.shutdown().unwrap();
    }

    /// The telemetry surface: Prometheus text on `/metrics` (including the
    /// per-route request counters this very test generates), per-job
    /// timelines on `/trace/{id}`, and a resumable `/events` cursor.
    #[test]
    fn telemetry_surface_over_a_socket() {
        let (daemon, pool) = daemon(300, 40);
        let server = HttpServer::serve("127.0.0.1:0", Arc::clone(&daemon)).unwrap();
        let addr = server.local_addr();

        let body = serde_json::to_string(&spec("acme/wire", pool)).unwrap();
        let (code, _) = http_request(addr, "POST", "/jobs", Some(&body)).unwrap();
        assert_eq!(code, 201);
        daemon.drain();

        // A few requests with known outcomes so the request counters have
        // something to show: a 200 GET, a 404, a 400.
        let (code, _) = http_request(addr, "GET", "/jobs/0", None).unwrap();
        assert_eq!(code, 200);
        let (code, _) = http_request(addr, "GET", "/jobs/9", None).unwrap();
        assert_eq!(code, 404);
        let (code, _) = http_request(addr, "GET", "/jobs/xyz", None).unwrap();
        assert_eq!(code, 400);

        // /metrics is text exposition, not JSON.
        let (code, metrics) = http_request(addr, "GET", "/metrics", None).unwrap();
        assert_eq!(code, 200);
        assert!(
            metrics.contains("audit_jobs_submitted_total 1"),
            "{metrics}"
        );
        assert!(
            metrics.contains("audit_jobs_finished_total{status=\"done\"} 1"),
            "{metrics}"
        );
        assert!(
            metrics.contains("audit_tenant_crowd_tasks_total{tenant=\"acme\"}"),
            "{metrics}"
        );
        // Requests are counted by (method, route-class, status) — ids are
        // collapsed into a class so cardinality stays bounded.
        assert!(
            metrics.contains(
                "audit_http_requests_total{method=\"GET\",route=\"/jobs/{id}\",status=\"200\"} 1"
            ),
            "{metrics}"
        );
        assert!(
            metrics.contains(
                "audit_http_requests_total{method=\"GET\",route=\"/jobs/{id}\",status=\"404\"} 1"
            ),
            "{metrics}"
        );
        assert!(
            metrics.contains("audit_submit_to_first_result_ms_bucket"),
            "{metrics}"
        );
        // The connection engine's own instruments are exported too.
        assert!(
            metrics.contains("audit_http_active_connections"),
            "{metrics}"
        );
        assert!(
            metrics.contains("audit_tenant_queue_wait_ms_bucket{tenant=\"acme\""),
            "{metrics}"
        );

        // /trace/{id}: a full timeline for a known job, 404 for a ghost.
        let (code, trace) = http_request(addr, "GET", "/trace/0", None).unwrap();
        assert_eq!(code, 200);
        for phase in ["\"submit\"", "\"scheduled\"", "\"done\""] {
            assert!(trace.contains(phase), "missing {phase} in {trace}");
        }
        let (code, reply) = http_request(addr, "GET", "/trace/9", None).unwrap();
        assert_eq!(code, 404);
        assert!(reply.contains("no such job"), "{reply}");

        // /events: drain everything, then resume from the cursor — the
        // second read from `next` sees nothing new.
        let (code, events) = http_request(addr, "GET", "/events", None).unwrap();
        assert_eq!(code, 200);
        assert!(events.contains("\"next\""), "{events}");
        assert!(events.contains("\"submit\""), "{events}");
        let next = {
            let cursor = events.split("\"next\": ").nth(1).unwrap();
            cursor[..cursor.find(',').unwrap()].trim().to_string()
        };
        let (code, tail) =
            http_request(addr, "GET", &format!("/events?since={next}"), None).unwrap();
        assert_eq!(code, 200);
        assert!(tail.contains("\"events\": []"), "{tail}");

        // Regression (ISSUE 7): `GET /events` with no query string at all
        // — and with a bare trailing `?` — must default to cursor 0, not
        // reject. Both shapes drain the full ring, identical to since=0.
        let (code, from_zero) = http_request(addr, "GET", "/events?since=0", None).unwrap();
        assert_eq!(code, 200);
        let (code, bare) = http_request(addr, "GET", "/events", None).unwrap();
        assert_eq!(code, 200, "missing query must mean cursor 0: {bare}");
        assert_eq!(bare, from_zero);
        let (code, trailing) = http_request(addr, "GET", "/events?", None).unwrap();
        assert_eq!(code, 200, "empty query must mean cursor 0: {trailing}");
        assert_eq!(trailing, from_zero);

        // Wrong method and malformed cursor are structured errors.
        let (code, _) = http_request(addr, "POST", "/metrics", None).unwrap();
        assert_eq!(code, 405);
        let (code, _) = http_request(addr, "DELETE", "/events", None).unwrap();
        assert_eq!(code, 405);
        let (code, _) = http_request(addr, "POST", "/trace/0", None).unwrap();
        assert_eq!(code, 405);
        let (code, reply) = http_request(addr, "GET", "/events?since=banana", None).unwrap();
        assert_eq!(code, 400);
        assert!(reply.contains("malformed since"), "{reply}");

        server.shutdown();
        daemon.shutdown().unwrap();
    }

    /// The knowledge plane over the wire: what one daemon exports, a
    /// fresh daemon imports — and its first identical audit then forwards
    /// zero questions to the crowd.
    #[test]
    fn store_export_import_transfers_the_fact_base() {
        let (first, pool) = daemon(300, 40);
        let server = HttpServer::serve("127.0.0.1:0", Arc::clone(&first)).unwrap();
        let addr = server.local_addr();

        let body = serde_json::to_string(&spec("payer", pool.clone())).unwrap();
        let (code, _) = http_request(addr, "POST", "/jobs", Some(&body)).unwrap();
        assert_eq!(code, 201);
        first.drain();
        let (code, exported) = http_request(addr, "GET", "/store/export", None).unwrap();
        assert_eq!(code, 200);
        assert!(exported.contains("\"labels\""), "{exported}");
        let (code, _) = http_request(addr, "DELETE", "/store/export", None).unwrap();
        assert_eq!(code, 405);
        server.shutdown();
        first.shutdown().unwrap();

        let (second, _) = daemon(300, 40);
        let server = HttpServer::serve("127.0.0.1:0", Arc::clone(&second)).unwrap();
        let addr = server.local_addr();
        let (code, reply) = http_request(addr, "POST", "/store/import", Some("{nope")).unwrap();
        assert_eq!(code, 400);
        assert!(reply.contains("invalid knowledge store"), "{reply}");
        let (code, reply) = http_request(addr, "POST", "/store/import", Some(&exported)).unwrap();
        assert_eq!(code, 200, "{reply}");
        assert!(reply.contains("\"set_verdicts\""), "{reply}");

        // The inherited facts answer the twin audit without the crowd.
        let body = serde_json::to_string(&spec("freeloader", pool)).unwrap();
        let (code, _) = http_request(addr, "POST", "/jobs", Some(&body)).unwrap();
        assert_eq!(code, 201);
        second.drain();
        let stats = second.stats();
        assert_eq!(
            stats.reuse.forwarded, 0,
            "imported facts must answer everything: {stats:?}"
        );
        assert_eq!(stats.crowd_tasks, 0, "{stats:?}");
        server.shutdown();
        second.shutdown().unwrap();
    }

    /// Keep-alive: many requests down one connection, each reply marked
    /// `Connection: keep-alive`, and the reuse counter counts all but the
    /// first request on the wire.
    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        let (daemon, _pool) = daemon(50, 5);
        let server = HttpServer::serve("127.0.0.1:0", Arc::clone(&daemon)).unwrap();
        let addr = server.local_addr();

        let mut client = HttpClient::connect(addr).unwrap();
        for _ in 0..5 {
            client.send("GET", "/stats", None).unwrap();
            let (code, headers, body) = client.read_response_with_headers().unwrap();
            assert_eq!(code, 200, "{body}");
            assert!(
                headers
                    .iter()
                    .any(|(n, v)| n == "connection" && v == "keep-alive"),
                "{headers:?}"
            );
        }
        assert_eq!(daemon.telemetry().keepalive_reuses(), 4);

        server.shutdown();
        daemon.shutdown().unwrap();
    }

    /// Pipelining: several requests written before any response is read
    /// come back complete, in order, on the same connection.
    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let (daemon, pool) = daemon(100, 10);
        let server = HttpServer::serve("127.0.0.1:0", Arc::clone(&daemon)).unwrap();
        let addr = server.local_addr();

        let body = serde_json::to_string(&spec("pipe", pool)).unwrap();
        let mut client = HttpClient::connect(addr).unwrap();
        client.send("POST", "/jobs", Some(&body)).unwrap();
        client.send("GET", "/jobs", None).unwrap();
        client.send("GET", "/stats", None).unwrap();
        client.send("GET", "/nope", None).unwrap();

        let (code, reply) = client.read_response().unwrap();
        assert_eq!(code, 201, "{reply}");
        let (code, reply) = client.read_response().unwrap();
        assert_eq!(code, 200);
        assert!(reply.contains("pipe"), "{reply}");
        let (code, reply) = client.read_response().unwrap();
        assert_eq!(code, 200);
        assert!(reply.contains("\"submitted\""), "{reply}");
        let (code, _) = client.read_response().unwrap();
        assert_eq!(code, 404);

        server.shutdown();
        daemon.shutdown().unwrap();
    }

    /// The chunked watch stream: a job's trace events arrive as ndjson
    /// chunks ending in a terminal-status line — and the connection is
    /// still usable for a plain request afterwards.
    #[test]
    fn watch_streams_job_progress_and_keeps_the_connection() {
        let (daemon, pool) = daemon(300, 40);
        let server = HttpServer::serve("127.0.0.1:0", Arc::clone(&daemon)).unwrap();
        let addr = server.local_addr();

        let body = serde_json::to_string(&spec("stream", pool)).unwrap();
        let (code, _) = http_request(addr, "POST", "/jobs", Some(&body)).unwrap();
        assert_eq!(code, 201);

        let mut client = HttpClient::connect(addr).unwrap();
        client.send("GET", "/jobs/0/watch", None).unwrap();
        daemon.drain();
        let (code, headers, stream) = client.read_response_with_headers().unwrap();
        assert_eq!(code, 200, "{stream}");
        assert!(
            headers
                .iter()
                .any(|(n, v)| n == "transfer-encoding" && v == "chunked"),
            "{headers:?}"
        );
        for phase in ["\"submit\"", "\"scheduled\"", "\"done\""] {
            assert!(stream.contains(phase), "missing {phase} in {stream}");
        }
        assert!(
            stream.contains("\"status\": \"done\""),
            "terminal status line missing: {stream}"
        );
        // Keep-alive survives the stream.
        let (code, _) = client.request("GET", "/stats", None).unwrap();
        assert_eq!(code, 200);

        // Unknown and malformed watch targets are plain errors.
        let (code, reply) = client.request("GET", "/jobs/9/watch", None).unwrap();
        assert_eq!(code, 404);
        assert!(reply.contains("no such job"), "{reply}");
        let (code, _) = client.request("GET", "/jobs/x/watch", None).unwrap();
        assert_eq!(code, 400);
        let (code, _) = client.request("DELETE", "/jobs/0/watch", None).unwrap();
        assert_eq!(code, 405);

        server.shutdown();
        daemon.shutdown().unwrap();
    }

    /// `Connection: close` is honored on the last response of a burst.
    #[test]
    fn connection_close_is_honored() {
        let (daemon, _pool) = daemon(20, 2);
        let server = HttpServer::serve("127.0.0.1:0", Arc::clone(&daemon)).unwrap();
        let addr = server.local_addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(IO_TIMEOUT)).unwrap();
        write!(
            stream,
            "GET /stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        stream.flush().unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        assert!(response.contains("Connection: close"), "{response}");

        server.shutdown();
        daemon.shutdown().unwrap();
    }

    /// The ISSUE 10 cardinality regression pin: every id-carrying and
    /// fleet-prefixed path must collapse to a fixed route label, so a
    /// router fronting many nodes (or a creative client) cannot mint
    /// unbounded Prometheus label values.
    #[test]
    fn route_class_collapses_fleet_and_id_routes() {
        assert_eq!(route_class("/fleet/delta"), "/fleet/delta");
        assert_eq!(route_class("/fleet/delta?retry=1"), "/fleet/delta");
        for probe in [
            "/fleet",
            "/fleet/",
            "/fleet/join",
            "/fleet/delta/extra",
            "/fleet/9971",
            "/fleet/node-7/status?verbose=1",
        ] {
            assert_eq!(route_class(probe), "/fleet/*", "{probe}");
        }
        for id in ["0", "17", "123456789", "ghost", "x%2Fy"] {
            assert_eq!(route_class(&format!("/jobs/{id}")), "/jobs/{id}");
            assert_eq!(
                route_class(&format!("/jobs/{id}/watch")),
                "/jobs/{id}/watch"
            );
            assert_eq!(route_class(&format!("/trace/{id}")), "/trace/{id}");
        }
        assert_eq!(route_class("/jobs/42?fields=status"), "/jobs/{id}");
        assert_eq!(route_class("/totally/unknown"), "other");
    }

    /// `POST /fleet/delta` over a live socket: facts are absorbed (and
    /// visible on a later export), the receipt echoes sender and size,
    /// the per-peer delta counter ticks, malformed bodies get a
    /// structured 400, wrong methods 405 — and however many bogus fleet
    /// paths a client probes, the metrics page carries exactly one
    /// `/fleet/*` route label.
    #[test]
    fn fleet_delta_over_a_socket() {
        let (daemon, pool) = daemon(50, 5);
        let server = HttpServer::serve("127.0.0.1:0", Arc::clone(&daemon)).unwrap();
        let addr = server.local_addr();

        let mut store = coverage_core::memo::KnowledgeStore::new();
        store.record_labels(pool[0], Labels::single(1));
        store.record_labels(pool[1], Labels::single(0));
        let delta = crate::fleet::FleetDelta {
            from: "node1".to_string(),
            store,
        };
        let body = serde_json::to_string(&delta).unwrap();
        let (code, reply) = http_request(addr, "POST", "/fleet/delta", Some(&body)).unwrap();
        assert_eq!(code, 200, "{reply}");
        assert!(reply.contains("\"from\": \"node1\""), "{reply}");
        assert!(reply.contains("\"facts\": 2"), "{reply}");
        assert_eq!(
            daemon.export_store().label_of(pool[0]),
            Some(Labels::single(1))
        );
        assert_eq!(
            daemon.stats().crowd_tasks,
            0,
            "absorbed facts are seeded, never charged"
        );

        let (code, reply) = http_request(addr, "POST", "/fleet/delta", Some("{nope")).unwrap();
        assert_eq!(code, 400);
        assert!(reply.contains("invalid fleet delta"), "{reply}");
        let (code, _) = http_request(addr, "GET", "/fleet/delta", None).unwrap();
        assert_eq!(code, 405);

        for probe in ["/fleet/join", "/fleet/node-3/x", "/fleet/9971"] {
            let (code, _) = http_request(addr, "GET", probe, None).unwrap();
            assert_eq!(code, 404);
        }

        let rendered = daemon.telemetry().render_prometheus();
        assert!(
            rendered.contains("audit_fleet_deltas_total{peer=\"node1\"} 1"),
            "{rendered}"
        );
        assert!(
            rendered.contains("route=\"/fleet/*\""),
            "probed paths must collapse: {rendered}"
        );
        assert!(
            !rendered.contains("route=\"/fleet/join\""),
            "raw fleet paths must never become labels: {rendered}"
        );

        // Shutdown closes the anti-entropy door with a retryable 503,
        // exactly like `/jobs` and `/store/import`.
        daemon.drain();
        daemon.shutdown().unwrap();
        let (code, reply) = http_request(addr, "POST", "/fleet/delta", Some(&body)).unwrap();
        assert_eq!(code, 503, "{reply}");

        server.shutdown();
    }
}
