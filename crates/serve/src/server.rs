//! The resident simplification server.
//!
//! Two serving modes share the protocol, queue, and worker pool; they
//! differ only in how connection I/O is driven (see
//! [`ServeMode`]):
//!
//! * **Reactor** (default on Linux): one event-loop thread drives a
//!   nonblocking listener and every connection through epoll — see
//!   [`crate::reactor`]. This is the production-scale mode: ten
//!   thousand connections cost ten thousand slab slots, not ten
//!   thousand stacks.
//! * **Thread-per-connection**: one blocking reader thread per
//!   connection with short read timeouts (the original architecture,
//!   kept as the portable fallback and as a differential oracle — both
//!   modes must produce byte-identical responses).
//!
//! ```text
//!             ┌─────────────┐  accept   ┌─────────────────────┐
//!  clients ──▶│ acceptor /  │──────────▶│ reader thread (1/conn)│
//!             │ reactor loop│           │ or reactor state machine│
//!             └─────────────┘           └────────┬────────────┘
//!                                                │ try_push (never blocks)
//!                                       ┌────────▼─────────┐
//!                                       │  BoundedQueue    │──full──▶ {"error":"overloaded"}
//!                                       └────────┬─────────┘
//!                                                │ pop
//!                                       ┌────────▼─────────┐
//!                                       │   worker pool    │ shares one Arc<SigCache>
//!                                       └────────┬─────────┘
//!                                                │ ResponseSink (write mutex or
//!                                                ▼  reactor pending buffer)
//!                                     responses (any order, matched by id)
//! ```
//!
//! **Backpressure.** Readers enqueue with [`BoundedQueue::try_push`];
//! a full queue is answered immediately with an `overloaded` error —
//! the server sheds load instead of queueing unboundedly, and stays
//! live for later requests.
//!
//! **Deadlines.** A request carrying `deadline_ms` is checked against
//! its arrival time when a worker dequeues it and again after
//! simplification; either way past-deadline work is answered with a
//! `deadline` error, never silently dropped. Simplification itself is
//! not preempted (the simplifier has no cancellation points), so the
//! deadline bounds *useful* work, not worst-case occupancy.
//!
//! **Graceful shutdown.** A `{"control":"shutdown"}` request flips the
//! shutdown flag; the acceptor stops (unblocked by a loopback
//! self-connection), readers wind down at their next read-timeout tick,
//! the queue closes and workers drain the backlog, every in-flight
//! response is flushed, and only then is the shutdown acknowledged and
//! the process free to exit 0.

use std::collections::HashMap;
use std::io::{BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use mba_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use mba_sig::{CacheStats, SigCache};
use mba_solver::{Simplifier, SimplifyConfig};

use crate::protocol::{
    decode_line, render_error, render_ok, render_reply, ClientMessage, Control, ErrorCode,
    ProtocolError, Reply, Request, MAX_LINE_BYTES,
};
use crate::queue::{BoundedQueue, PushError};
use crate::reactor::{self, ResponseSink};

/// How often blocked readers and the acceptor re-check the shutdown
/// flag. Bounds shutdown latency, not request latency.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// How connection I/O is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// One event-loop thread drives all connections through epoll.
    /// Scales to tens of thousands of concurrent connections.
    Reactor,
    /// One blocking reader thread per connection. Portable everywhere
    /// `std::net` works; thread cost caps realistic concurrency.
    ThreadPerConnection,
}

impl Default for ServeMode {
    /// Reactor wherever the epoll backend exists, threads elsewhere.
    fn default() -> Self {
        if mio::backend_available() {
            ServeMode::Reactor
        } else {
            ServeMode::ThreadPerConnection
        }
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (read it back via
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads; `0` means one per available core.
    pub workers: usize,
    /// Bounded request-queue capacity — the backpressure threshold.
    pub queue_capacity: usize,
    /// Maximum accepted line length in bytes.
    pub max_line_bytes: usize,
    /// Test-only throttle: hold each job for this long before
    /// simplifying, to make queue-overflow behaviour deterministic in
    /// tests. Always `None` in production configurations.
    pub worker_delay: Option<Duration>,
    /// Connection I/O mode; defaults to the reactor where available.
    pub mode: ServeMode,
    /// Signature-cache entry budget; `None` disables eviction. The
    /// default bounds resident cache memory so a long-lived server
    /// cannot grow without limit under an adversarial key stream.
    pub cache_budget: Option<usize>,
    /// Signature-cache snapshot path: loaded (if present) at bind for a
    /// warm start, written back when the server drains.
    pub cache_snapshot: Option<PathBuf>,
    /// Test-only cap on bytes per socket `write` in reactor mode, to
    /// deterministically exercise multi-write response flushes. Always
    /// `None` in production configurations.
    pub write_chunk_limit: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            queue_capacity: 256,
            max_line_bytes: MAX_LINE_BYTES,
            worker_delay: None,
            mode: ServeMode::default(),
            cache_budget: Some(DEFAULT_CACHE_BUDGET),
            cache_snapshot: None,
            write_chunk_limit: None,
        }
    }
}

/// Default signature-cache entry budget. At roughly a hundred bytes per
/// cached table this bounds the cache near tens of MiB — far above any
/// working set the benchmarks reach, so eviction is a memory ceiling,
/// not a throughput tax.
pub const DEFAULT_CACHE_BUDGET: usize = 262_144;

/// Monotonic serving counters, pre-resolved `mba-obs` handles so the
/// hot path never touches the registry lock. The same counters are
/// visible under their dotted names in [`ServerState::metrics`]
/// snapshots (`serve.requests.served`, `serve.error.*`).
#[derive(Debug)]
pub struct Counters {
    /// Requests answered with a simplified expression.
    pub served: Arc<Counter>,
    /// Lines rejected at the protocol layer (`parse` / `invalid`).
    pub protocol_errors: Arc<Counter>,
    /// Requests shed by backpressure.
    pub overloaded: Arc<Counter>,
    /// Requests answered with a `deadline` error.
    pub deadline_expired: Arc<Counter>,
    /// Requests answered with an `internal` error because the worker
    /// handling them panicked. Nonzero means a bug, but never a hang.
    pub internal_errors: Arc<Counter>,
}

impl Counters {
    fn resolve(obs: &MetricsRegistry) -> Counters {
        Counters {
            served: obs.counter("serve.requests.served"),
            protocol_errors: obs.counter("serve.error.protocol"),
            overloaded: obs.counter("serve.error.overloaded"),
            deadline_expired: obs.counter("serve.error.deadline"),
            internal_errors: obs.counter("serve.error.internal"),
        }
    }
}

/// State shared by the acceptor, readers, and workers.
pub struct ServerState {
    sig_cache: Arc<SigCache>,
    /// One simplifier per requested width, all sharing `sig_cache`.
    /// Width changes the coefficient ring, so results are width-keyed;
    /// the signature layer underneath is width-generic and shared.
    simplifiers: RwLock<HashMap<u32, Arc<Simplifier>>>,
    shutting_down: AtomicBool,
    /// Process-wide metrics registry; per-width simplifiers record
    /// their stage spans here, so `stats` can break serving time down
    /// by pipeline stage.
    obs: Arc<MetricsRegistry>,
    /// Serving counters.
    pub counters: Counters,
    /// Time from `try_push` acceptance to worker dequeue.
    queue_wait: Arc<Histogram>,
    /// Time from worker dequeue to response written.
    queue_service: Arc<Histogram>,
    /// Instantaneous queue depth, sampled at enqueue/dequeue edges.
    queue_depth: Arc<Gauge>,
    /// Sinks owed a shutdown acknowledgement once draining finishes.
    ackers: Mutex<Vec<(Option<u64>, ResponseSink)>>,
}

impl ServerState {
    fn new(config: &ServerConfig) -> ServerState {
        let obs = Arc::new(MetricsRegistry::new());
        let sig_cache = match config.cache_budget {
            Some(budget) => SigCache::with_budget(budget),
            None => SigCache::new(),
        };
        ServerState {
            sig_cache: Arc::new(sig_cache),
            simplifiers: RwLock::new(HashMap::new()),
            shutting_down: AtomicBool::new(false),
            counters: Counters::resolve(&obs),
            queue_wait: obs.histogram("serve.queue.wait.micros"),
            queue_service: obs.histogram("serve.queue.service.micros"),
            queue_depth: obs.gauge("serve.queue.depth"),
            obs,
            ackers: Mutex::new(Vec::new()),
        }
    }

    /// The shared signature cache (all widths, all connections).
    pub fn sig_cache(&self) -> &Arc<SigCache> {
        &self.sig_cache
    }

    /// The process-wide metrics registry (serving counters, queue
    /// histograms, and the simplifiers' per-stage spans).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.obs
    }

    /// Cumulative signature-cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.sig_cache.stats()
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Flips the shutdown flag (idempotent). The serving loop observes
    /// it and begins draining.
    pub(crate) fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
    }

    /// Sinks owed a shutdown acknowledgement once draining finishes.
    pub(crate) fn ackers(&self) -> &Mutex<Vec<(Option<u64>, ResponseSink)>> {
        &self.ackers
    }

    fn simplifier_for(&self, width: u32) -> Arc<Simplifier> {
        if let Some(s) = self.simplifiers.read().unwrap().get(&width) {
            return Arc::clone(s);
        }
        let mut map = self.simplifiers.write().unwrap();
        Arc::clone(map.entry(width).or_insert_with(|| {
            Arc::new(Simplifier::with_metrics(
                SimplifyConfig {
                    width,
                    ..SimplifyConfig::default()
                },
                Arc::clone(&self.sig_cache),
                Arc::clone(&self.obs),
            ))
        }))
    }
}

/// One unit of queued work.
pub(crate) struct Job {
    pub(crate) request: Request,
    pub(crate) received: Instant,
    pub(crate) writer: ResponseSink,
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    config: ServerConfig,
    state: Arc<ServerState>,
    queue: Arc<BoundedQueue<Job>>,
}

impl Server {
    /// Binds the listener (port 0 picks a free port).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
        let state = Arc::new(ServerState::new(&config));
        // Warm-start: a readable snapshot primes the cache; a missing
        // or malformed one costs nothing but the cold misses.
        if let Some(path) = &config.cache_snapshot {
            match std::fs::read_to_string(path) {
                Ok(doc) => {
                    if let Err(e) = state.sig_cache.load_snapshot(&doc) {
                        eprintln!("mba-serve: ignoring snapshot {}: {e}", path.display());
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => {
                    eprintln!("mba-serve: ignoring snapshot {}: {e}", path.display());
                }
            }
        }
        Ok(Server {
            listener,
            local_addr,
            state,
            config,
            queue,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared state (counters and caches), e.g. for tests.
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Serves until a `shutdown` control request, then drains and
    /// returns. Returning `Ok(())` means every accepted request was
    /// answered and flushed.
    ///
    /// # Errors
    ///
    /// Propagates listener-level I/O failures only; per-connection
    /// errors are contained.
    pub fn run(self) -> std::io::Result<()> {
        let Server {
            listener,
            local_addr,
            config,
            state,
            queue,
        } = self;

        let workers: Vec<_> = (0..effective_workers(config.workers))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let state = Arc::clone(&state);
                let delay = config.worker_delay;
                std::thread::spawn(move || worker_loop(&queue, &state, delay))
            })
            .collect();

        let result = match config.mode {
            ServeMode::Reactor => {
                reactor::run(listener, &config, Arc::clone(&state), queue, workers)
            }
            ServeMode::ThreadPerConnection => {
                run_threaded(listener, local_addr, &config, &state, &queue, workers);
                Ok(())
            }
        };
        // Persist the cache across restarts; the next bind warm-starts
        // from it. Failures cost only the warm start.
        if let Some(path) = &config.cache_snapshot {
            if let Err(e) = std::fs::write(path, state.sig_cache.snapshot_json()) {
                eprintln!("mba-serve: could not write snapshot {}: {e}", path.display());
            }
        }
        result
    }
}

/// The thread-per-connection serving loop: blocking accept, one reader
/// thread per connection, drain-then-ack on shutdown.
fn run_threaded(
    listener: TcpListener,
    local_addr: SocketAddr,
    config: &ServerConfig,
    state: &Arc<ServerState>,
    queue: &Arc<BoundedQueue<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
) {
    let mut connections = Vec::new();
    for stream in listener.incoming() {
        if state.is_shutting_down() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let state = Arc::clone(state);
        let queue = Arc::clone(queue);
        let max_line = config.max_line_bytes;
        connections.push(std::thread::spawn(move || {
            // A failed socket setup just drops the connection.
            let _ = handle_connection(stream, &state, &queue, max_line, local_addr);
        }));
    }

    // Shutdown: readers exit at their next poll tick, the queue
    // closes once no reader can enqueue, and workers drain what was
    // accepted. Join order matters — readers first, so every
    // enqueue happens before close().
    for c in connections {
        let _ = c.join();
    }
    queue.close();
    for w in workers {
        if w.join().is_err() {
            // A worker died outside the per-job catch-unwind guard
            // (pre-pop or post-respond). No job is lost at those
            // points, but count it — a dead worker is still a bug.
            state.counters.internal_errors.inc();
        }
    }
    // Belt-and-braces: if a worker died, its share of the backlog
    // may still be queued. The queue is closed, so pop() cannot
    // block; answer anything left rather than stranding it.
    while let Some((job, _)) = queue.pop() {
        write_line(
            &job.writer,
            &render_error(&ProtocolError::new(
                Some(job.request.id),
                ErrorCode::ShuttingDown,
                "server is draining",
            )),
        );
    }
    // All responses are flushed; acknowledge the shutdown callers.
    let ackers = std::mem::take(&mut *state.ackers().lock().unwrap());
    let drained = state.counters.served.get();
    for (id, writer) in ackers {
        write_line(
            &writer,
            &render_ok("shutdown", id, &[("served".into(), drained.to_string())]),
        );
    }
}

fn effective_workers(configured: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Writes one response line (appending the newline) through the sink.
/// Write errors mean the client is gone; the server does not care.
pub(crate) fn write_line(writer: &ResponseSink, line: &str) {
    writer.send(line);
}

/// Reads newline-delimited requests off one connection until EOF or
/// shutdown. Protocol errors are answered per line; nothing a client
/// sends can take down the reader, let alone the worker pool.
fn handle_connection(
    stream: TcpStream,
    state: &Arc<ServerState>,
    queue: &BoundedQueue<Job>,
    max_line_bytes: usize,
    local_addr: SocketAddr,
) -> std::io::Result<()> {
    // Short read timeouts turn the blocking read into a poll loop on
    // the shutdown flag.
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    let writer = ResponseSink::Blocking(Arc::new(Mutex::new(stream.try_clone()?)));
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    // When a line overflows `max_line_bytes` it is answered once and
    // the remainder (up to the next newline) silently discarded.
    let mut discarding = false;

    loop {
        match read_until_newline(&mut reader, &mut buf) {
            ReadOutcome::WouldBlock => {
                if state.is_shutting_down() {
                    return Ok(());
                }
                if !discarding && buf.len() > max_line_bytes {
                    reject_oversized(state, &writer, max_line_bytes);
                    discarding = true;
                    buf.clear();
                }
                continue;
            }
            ReadOutcome::Eof => {
                if !buf.is_empty() && !discarding {
                    // Final unterminated line: still a request.
                    if handle_line(&buf, state, queue, &writer) {
                        poke_acceptor(local_addr);
                    }
                }
                return Ok(());
            }
            ReadOutcome::Line => {
                if discarding {
                    discarding = false;
                    buf.clear();
                    continue;
                }
                if buf.len() > max_line_bytes {
                    reject_oversized(state, &writer, max_line_bytes);
                    buf.clear();
                    continue;
                }
                let shutdown_received = handle_line(&buf, state, queue, &writer);
                buf.clear();
                if shutdown_received {
                    // No further requests on this connection; the ack
                    // arrives once draining completes. The blocking
                    // acceptor needs a poke to notice the flag.
                    poke_acceptor(local_addr);
                    return Ok(());
                }
            }
            ReadOutcome::Error(e) => return Err(e),
        }
    }
}

enum ReadOutcome {
    /// A complete line (newline stripped) is in the buffer.
    Line,
    /// Timeout tick; the buffer may hold a partial line.
    WouldBlock,
    /// Clean end of stream.
    Eof,
    /// Hard I/O error.
    Error(std::io::Error),
}

/// Appends bytes to `buf` until a newline (consumed, not kept), EOF, or
/// a timeout tick. Partial reads accumulate across ticks.
fn read_until_newline(reader: &mut BufReader<TcpStream>, buf: &mut Vec<u8>) -> ReadOutcome {
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte) {
            Ok(0) => return ReadOutcome::Eof,
            Ok(_) => {
                if byte[0] == b'\n' {
                    return ReadOutcome::Line;
                }
                buf.push(byte[0]);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return ReadOutcome::WouldBlock
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return ReadOutcome::Error(e),
        }
    }
}

fn reject_oversized(state: &ServerState, writer: &ResponseSink, max_line_bytes: usize) {
    state.counters.protocol_errors.inc();
    write_line(
        writer,
        &render_error(&ProtocolError::new(
            None,
            ErrorCode::Invalid,
            format!("line exceeds {max_line_bytes} bytes"),
        )),
    );
}

/// Decodes and dispatches one complete line. Returns `true` when the
/// line was a shutdown request (the shutdown flag is already set; the
/// caller unblocks its accept loop however that loop blocks).
pub(crate) fn handle_line(
    raw: &[u8],
    state: &Arc<ServerState>,
    queue: &BoundedQueue<Job>,
    writer: &ResponseSink,
) -> bool {
    let Ok(line) = std::str::from_utf8(raw) else {
        state.counters.protocol_errors.inc();
        write_line(
            writer,
            &render_error(&ProtocolError::new(
                None,
                ErrorCode::Parse,
                "line is not valid UTF-8",
            )),
        );
        return false;
    };
    if line.trim().is_empty() {
        // Blank keep-alive lines are tolerated silently.
        return false;
    }
    match decode_line(line) {
        Err(e) => {
            state.counters.protocol_errors.inc();
            write_line(writer, &render_error(&e));
            false
        }
        Ok(ClientMessage::Control(Control::Ping, id)) => {
            write_line(writer, &render_ok("ping", id, &[]));
            false
        }
        Ok(ClientMessage::Control(Control::Stats, id)) => {
            write_line(writer, &render_ok("stats", id, &stats_fields(state, queue)));
            false
        }
        Ok(ClientMessage::Control(Control::Shutdown, id)) => {
            state.ackers().lock().unwrap().push((id, writer.clone()));
            state.begin_shutdown();
            true
        }
        Ok(ClientMessage::Simplify(request)) => {
            if state.is_shutting_down() {
                write_line(
                    writer,
                    &render_error(&ProtocolError::new(
                        Some(request.id),
                        ErrorCode::ShuttingDown,
                        "server is draining",
                    )),
                );
                return false;
            }
            let job = Job {
                request,
                received: Instant::now(),
                writer: writer.clone(),
            };
            match queue.try_push(job) {
                // The post-push depth comes back from under the queue
                // lock; a separate `queue.len()` here would race with
                // concurrent pops and publish incoherent gauges.
                Ok(depth) => state.queue_depth.set(depth as i64),
                Err((why, job)) => {
                    let (code, detail) = match why {
                        PushError::Full => {
                            state.counters.overloaded.inc();
                            (
                                ErrorCode::Overloaded,
                                format!("queue full (capacity {})", queue.capacity()),
                            )
                        }
                        PushError::Closed => {
                            (ErrorCode::ShuttingDown, "server is draining".to_string())
                        }
                    };
                    write_line(
                        &job.writer,
                        &render_error(&ProtocolError::new(Some(job.request.id), code, detail)),
                    );
                }
            }
            false
        }
    }
}

/// Unblocks the thread-mode acceptor with a loopback self-connection
/// (idempotent; extra connections are dropped by the accept loop's
/// flag check). The reactor needs no poke — its loop polls the flag.
fn poke_acceptor(local_addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&local_addr, Duration::from_millis(200));
}

fn stats_fields(state: &ServerState, queue: &BoundedQueue<Job>) -> Vec<(String, String)> {
    // Refresh the cache gauges so the snapshot below is current.
    state.sig_cache.publish_metrics(&state.obs);
    let cache = state.cache_stats();
    let c = &state.counters;
    let snapshot = state.obs.snapshot();
    let mut fields = vec![
        ("served".into(), c.served.get().to_string()),
        ("protocol_errors".into(), c.protocol_errors.get().to_string()),
        ("overloaded".into(), c.overloaded.get().to_string()),
        (
            "deadline_expired".into(),
            c.deadline_expired.get().to_string(),
        ),
        ("internal_errors".into(), c.internal_errors.get().to_string()),
        ("queue_depth".into(), queue.len().to_string()),
        ("queue_capacity".into(), queue.capacity().to_string()),
        ("cache_hits".into(), cache.hits.to_string()),
        ("cache_misses".into(), cache.misses.to_string()),
        (
            "cache_hit_rate".into(),
            format!("{:.6}", cache.hit_rate()),
        ),
        (
            "sig_cache_entries".into(),
            state.sig_cache.len().to_string(),
        ),
        (
            "sig_cache_budget".into(),
            state.sig_cache.budget().unwrap_or(0).to_string(),
        ),
        (
            "sig_evictions".into(),
            state.sig_cache.evictions().to_string(),
        ),
    ];
    for (field, metric) in [
        ("queue_wait", "serve.queue.wait.micros"),
        ("queue_service", "serve.queue.service.micros"),
    ] {
        let (total, count, p95) = snapshot
            .histogram(metric)
            .map_or((0, 0, 0), |h| (h.sum, h.count, h.approx_quantile(0.95)));
        fields.push((format!("{field}_micros_total"), total.to_string()));
        fields.push((format!("{field}_count"), count.to_string()));
        fields.push((format!("{field}_p95_micros"), p95.to_string()));
    }
    // Pipeline-stage breakdown across every width-keyed simplifier —
    // same stage set as `mba_bench::report::STAGES`.
    for stage in ["signature", "basis", "poly_reduce", "rewrite", "final_fold"] {
        let (sum, count) = snapshot
            .histogram(&format!("core.stage.{stage}.micros"))
            .map_or((0, 0), |h| (h.sum, h.count));
        fields.push((format!("stage_{stage}_micros"), sum.to_string()));
        fields.push((format!("stage_{stage}_calls"), count.to_string()));
    }
    fields
}

/// The worker loop: drain the queue until it is closed and empty.
///
/// Each job runs under a catch-unwind guard, so a panic inside the
/// simplifier answers *that* request with an `internal` error and the
/// worker lives on — a panicking input can never strand its caller or
/// shrink the pool.
fn worker_loop(queue: &BoundedQueue<Job>, state: &ServerState, delay: Option<Duration>) {
    while let Some((job, depth)) = queue.pop() {
        state.queue_wait.record(job.received.elapsed().as_micros() as u64);
        // Post-pop depth observed under the queue lock (see try_push).
        state.queue_depth.set(depth as i64);
        if let Some(d) = delay {
            std::thread::sleep(d);
        }
        let service = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve_job(&job, state);
        }));
        if outcome.is_err() {
            state.counters.internal_errors.inc();
            write_line(
                &job.writer,
                &render_error(&ProtocolError::new(
                    Some(job.request.id),
                    ErrorCode::Internal,
                    "worker panicked while serving this request",
                )),
            );
        }
        state
            .queue_service
            .record(service.elapsed().as_micros() as u64);
    }
}

/// Answers one dequeued request: deadline check, parse, simplify,
/// deadline re-check, respond.
fn serve_job(job: &Job, state: &ServerState) {
    // `>=` so `deadline_ms: 0` means "already expired", matching the
    // protocol doc: the budget is the half-open interval [0, d).
    let deadline = job.request.deadline_ms.map(Duration::from_millis);
    let expired = |elapsed: Duration| deadline.is_some_and(|d| elapsed >= d);

    if expired(job.received.elapsed()) {
        return reject_deadline(job, state);
    }
    let expr: mba_expr::Expr = match job.request.expr.parse() {
        Ok(e) => e,
        Err(e) => {
            state.counters.protocol_errors.inc();
            write_line(
                &job.writer,
                &render_error(&ProtocolError::new(
                    Some(job.request.id),
                    ErrorCode::Invalid,
                    format!("expr does not parse: {e}"),
                )),
            );
            return;
        }
    };
    let simplifier = state.simplifier_for(job.request.width);
    let result = simplifier.simplify_detailed(&expr);
    let elapsed = job.received.elapsed();
    if expired(elapsed) {
        return reject_deadline(job, state);
    }
    state.counters.served.inc();
    write_line(
        &job.writer,
        &render_reply(&Reply {
            id: job.request.id,
            simplified: result.output.to_string(),
            node_count_in: expr.node_count() as u64,
            node_count_out: result.output.node_count() as u64,
            micros: elapsed.as_micros() as u64,
            cache_hit_rate: state.cache_stats().hit_rate(),
        }),
    );
}

fn reject_deadline(job: &Job, state: &ServerState) {
    state.counters.deadline_expired.inc();
    write_line(
        &job.writer,
        &render_error(&ProtocolError::new(
            Some(job.request.id),
            ErrorCode::Deadline,
            format!(
                "deadline of {}ms exceeded after {}us",
                job.request.deadline_ms.unwrap_or(0),
                job.received.elapsed().as_micros()
            ),
        )),
    );
}

/// The background server thread's join handle; joining yields the
/// result of [`Server::run`].
pub type ServerHandle = std::thread::JoinHandle<std::io::Result<()>>;

/// Binds on `addr`, runs in a background thread, and returns the
/// resolved address plus the join handle — the standard harness for
/// tests and for embedding the server in another process.
///
/// # Errors
///
/// Propagates bind failures.
pub fn spawn<A: ToSocketAddrs>(
    addr: A,
    mut config: ServerConfig,
) -> std::io::Result<(SocketAddr, ServerHandle)> {
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))?;
    config.addr = addr.to_string();
    let server = Server::bind(config)?;
    let local = server.local_addr();
    Ok((local, std::thread::spawn(move || server.run())))
}
