//! The daemon: listener, connection threads, admission, drain.
//!
//! # Threading model
//!
//! One thread accepts connections; each connection gets a reader thread
//! that parses request lines and answers the cheap operations (`ping`,
//! `stats`, `shutdown`) inline. Solver-backed operations are submitted to
//! the shared [`ServicePool`] — the same owner-front/sibling-back
//! work-stealing discipline as the campaign engine, but persistent across
//! requests and bounded: once `queue` jobs are waiting the service
//! answers `overloaded` instead of queueing further (admission control).
//! Responses are written whole-line under a per-connection writer lock,
//! so concurrent jobs of one connection interleave only at line
//! granularity.
//!
//! # Warm sessions
//!
//! Each solver job checks a [`SessionCache`] for a live session under its
//! `(case, topology, certify)` key, builds one on a miss, and returns it
//! afterwards. Sessions own their case data (`Arc<TestSystem>`) and their
//! solver core is `Send`, so a session warmed on one worker freely moves
//! to whichever worker takes the next request for its key.
//!
//! # Deadlines and drain
//!
//! Every solver job gets a cancel token registered in an in-flight table;
//! a request `timeout_ms` additionally arms a wall-clock deadline. Both
//! feed the same [`Budget`] polled in every solver phase. Graceful drain
//! (`shutdown`) stops admitting, waits up to the drain deadline for
//! in-flight work, cancels whatever remains via the tokens, waits one
//! more drain window for the cancellations to surface as
//! `unknown(cancelled)` responses, then stops the listener — in-flight
//! clients always receive a final line.

use crate::cache::{SessionCache, SessionKey};
use crate::metrics::{MetricOp, MetricsRegistry, MetricsSnapshot, ServiceGauges};
use crate::net;
use crate::protocol::{self, ErrorKind, MetricsFormat, Op, Query, Request};
use sta_campaign::report::witness_json;
use sta_campaign::{CampaignSpec, RunOptions, ServicePool, SubmitError};
use sta_core::attack::{AttackModel, AttackOutcome, AttackVerifier, VerifySession};
use sta_core::scenario;
use sta_core::synthesis::{SynthesisConfig, SynthesisOutcome, Synthesizer};
use sta_grid::{caseformat, ieee14, synthetic, TestSystem};
use sta_smt::json::escape_into;
use sta_smt::{Budget, Clock, Interrupt, Phase, SharedSink, TraceEvent, TraceSink};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Locks a mutex, shrugging off poisoning: every guarded structure here
/// (session cache, case table, in-flight table, connection writer) is
/// update-complete at each lock release, so a panicking job cannot leave
/// half-written state behind.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Service tuning, fully explicit so `Debug`-printing a server states its
/// whole contract.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to listen on: a unix socket path (contains `/`) or a TCP
    /// `host:port` (`:0` picks a free port, see [`Server::local_addr`]).
    pub listen: String,
    /// Solver worker threads.
    pub jobs: usize,
    /// Warm-session cache capacity (distinct `(case, topology, certify)`
    /// keys held live).
    pub max_sessions: usize,
    /// Admission bound: queued-but-unstarted jobs beyond which requests
    /// are rejected `overloaded`.
    pub queue: usize,
    /// Default drain deadline for `shutdown`, milliseconds.
    pub drain_ms: u64,
    /// Whether latency/queue-wait histograms record (counters always
    /// do). On by default; the bench suite's overhead pair boots a
    /// server with this off to price the recording itself.
    pub telemetry: bool,
}

impl ServeConfig {
    /// A config with the CLI defaults: 4 workers, 8 sessions, a 32-deep
    /// admission queue, and a 2 s drain window.
    pub fn new(listen: impl Into<String>) -> Self {
        ServeConfig {
            listen: listen.into(),
            jobs: 4,
            max_sessions: 8,
            queue: 32,
            drain_ms: 2000,
            telemetry: true,
        }
    }
}

/// Everything shared between the accept loop, connection threads, and
/// pool workers.
struct ServerState {
    config: ServeConfig,
    /// The resolved listen address (used by drain to unblock `accept`).
    addr: String,
    pool: ServicePool,
    sessions: Mutex<SessionCache>,
    /// Loaded cases by request spelling, so repeated requests share one
    /// [`TestSystem`] allocation (and file-backed cases one read).
    cases: Mutex<BTreeMap<String, Arc<TestSystem>>>,
    /// Cancel tokens of submitted-but-unfinished solver jobs, by ticket.
    inflight: Mutex<BTreeMap<u64, Arc<AtomicBool>>>,
    next_ticket: AtomicU64,
    /// Set by `shutdown`: reject new solver work with `draining`.
    draining: AtomicBool,
    /// Live `watch` subscription loops. Drain waits (bounded) for this
    /// to reach zero so every subscriber gets its final snapshot before
    /// the process exits.
    watchers: AtomicU64,
    /// Set after drain completes: the accept loop exits on its next wake.
    stop: AtomicBool,
    requests: AtomicU64,
    rejected: AtomicU64,
    clock: Clock,
    /// The telemetry plane: per-op counters and latency histograms.
    metrics: MetricsRegistry,
}

impl std::fmt::Debug for ServerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerState")
            .field("addr", &self.addr)
            .field("draining", &self.draining.load(Ordering::SeqCst))
            .field("requests", &self.requests.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}

/// A bound, not-yet-running service. [`Server::run`] blocks the calling
/// thread until a `shutdown` request drains it.
#[derive(Debug)]
pub struct Server {
    state: Arc<ServerState>,
    listener: net::Listener,
}

/// Loads a case by builtin name or case-file path (the CLI grammar).
fn load_case(spec: &str) -> Result<TestSystem, String> {
    match spec {
        "ieee14" => return Ok(ieee14::system()),
        "ieee14-unsecured" => return Ok(ieee14::system_unsecured()),
        "ieee30" => return Ok(synthetic::ieee_case(30)),
        "ieee57" => return Ok(synthetic::ieee_case(57)),
        "ieee118" => return Ok(synthetic::ieee_case(118)),
        "ieee300" => return Ok(synthetic::ieee_case(300)),
        "ieee1354" => return Ok(synthetic::ieee_case(1354)),
        "ieee2000" => return Ok(synthetic::ieee_case(2000)),
        _ => {}
    }
    let text = std::fs::read_to_string(spec)
        .map_err(|e| format!("cannot read case file {spec:?}: {e}"))?;
    caseformat::parse(&text).map_err(|e| e.to_string())
}

impl ServerState {
    /// The shared [`TestSystem`] for `spec`, loading and caching on first
    /// use. Loading happens outside the table lock (file-backed cases can
    /// be slow); a racing duplicate load keeps the first arrival.
    fn case(&self, spec: &str) -> Result<Arc<TestSystem>, String> {
        if let Some(sys) = lock(&self.cases).get(spec) {
            return Ok(Arc::clone(sys));
        }
        let loaded = Arc::new(load_case(spec)?);
        let mut cases = lock(&self.cases);
        Ok(Arc::clone(cases.entry(spec.to_string()).or_insert(loaded)))
    }
}

/// Writes one line (plus newline) under the connection's writer lock and
/// flushes it, so a line is never interleaved with another job's output.
/// Returns whether the line reached the socket — the `watch` loop's only
/// way to notice a departed client. Other callers ignore it: a failed
/// write means the client is gone, and the job's work is done either way.
fn write_line(writer: &Mutex<net::Stream>, line: &str) -> bool {
    net::write_line(&mut *lock(writer), line).is_ok()
}

/// Which solver-backed operation a submitted job runs.
#[derive(Debug, Clone, Copy)]
enum QueryKind {
    Verify,
    Synthesize,
    Campaign,
}

impl QueryKind {
    /// The registry key of this operation.
    fn metric_op(self) -> MetricOp {
        match self {
            QueryKind::Verify => MetricOp::Verify,
            QueryKind::Synthesize => MetricOp::Synthesize,
            QueryKind::Campaign => MetricOp::Campaign,
        }
    }
}

/// Streams campaign trace events straight onto the requesting connection
/// as request-tagged `trace` lines, as jobs finish — the live half of the
/// campaign-progress contract (the final response still arrives last,
/// because the campaign engine emits every event before returning).
struct ForwardSink {
    id: String,
    writer: Arc<Mutex<net::Stream>>,
}

impl TraceSink for ForwardSink {
    fn emit(&mut self, event: &TraceEvent) {
        write_line(&self.writer, &protocol::trace_line(&self.id, event));
    }
}

impl Server {
    /// Binds the listener and builds the shared state. The service is not
    /// accepting until [`Server::run`].
    pub fn bind(config: ServeConfig) -> Result<Server, String> {
        let listener = net::Listener::bind(&config.listen)
            .map_err(|e| format!("cannot listen on {:?}: {e}", config.listen))?;
        let addr = listener.addr().to_string();
        let clock = Clock::monotonic();
        let metrics = MetricsRegistry::new(config.telemetry, clock.now());
        let state = Arc::new(ServerState {
            pool: ServicePool::new(config.jobs.max(1), config.queue.max(1)),
            sessions: Mutex::new(SessionCache::new(config.max_sessions)),
            cases: Mutex::new(BTreeMap::new()),
            inflight: Mutex::new(BTreeMap::new()),
            next_ticket: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            watchers: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            clock,
            metrics,
            addr,
            config,
        });
        Ok(Server { state, listener })
    }

    /// The resolved listen address: the actual port for TCP `:0` binds,
    /// the socket path for unix.
    pub fn local_addr(&self) -> &str {
        self.listener.addr()
    }

    /// Serves until a `shutdown` request completes its drain. Each
    /// connection runs on its own reader thread; this thread only
    /// accepts.
    pub fn run(self) -> Result<(), String> {
        let Server { state, listener } = self;
        loop {
            match listener.accept() {
                Ok(stream) => {
                    if state.stop.load(Ordering::SeqCst) {
                        // Drain already completed; this is either the
                        // self-connection that unblocked accept or a
                        // late client. Dropping the stream closes it.
                        break;
                    }
                    let state = Arc::clone(&state);
                    std::thread::spawn(move || handle_connection(&state, stream));
                }
                Err(e) => {
                    if state.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    return Err(format!("accept failed: {e}"));
                }
            }
        }
        listener.cleanup();
        Ok(())
    }
}

/// Reads request lines off one connection until EOF. Malformed lines get
/// an `error` response and the connection stays open — a client typo
/// never costs the session.
fn handle_connection(state: &Arc<ServerState>, stream: net::Stream) {
    let reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let writer = Arc::new(Mutex::new(stream));
    for line in reader.lines() {
        let Ok(line) = line else { break };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        state.requests.fetch_add(1, Ordering::SeqCst);
        match protocol::parse_request(trimmed) {
            Err(e) => {
                state.metrics.record_protocol_error(e.kind);
                write_line(&writer, &protocol::error_line(e.id.as_deref(), e.kind, &e.message));
            }
            Ok(req) => dispatch(state, &writer, req),
        }
    }
}

fn dispatch(state: &Arc<ServerState>, writer: &Arc<Mutex<net::Stream>>, req: Request) {
    let started = state.clock.now();
    match req.op {
        Op::Ping => {
            state.metrics.record_request(MetricOp::Ping);
            let mut out = protocol::response_head(&req.id, "ping");
            out.push_str(",\"ok\":true}");
            write_line(writer, &out);
            inline_latency(state, MetricOp::Ping, started);
        }
        Op::Stats => {
            state.metrics.record_request(MetricOp::Stats);
            write_line(writer, &stats_line(state, &req.id));
            inline_latency(state, MetricOp::Stats, started);
        }
        Op::Metrics { format } => {
            state.metrics.record_request(MetricOp::Metrics);
            write_line(writer, &metrics_line(state, &req.id, format));
            inline_latency(state, MetricOp::Metrics, started);
        }
        Op::Watch { interval_ms } => {
            state.metrics.record_request(MetricOp::Watch);
            handle_watch(state, writer, &req.id, interval_ms);
            inline_latency(state, MetricOp::Watch, started);
        }
        Op::Shutdown { drain_ms } => {
            state.metrics.record_request(MetricOp::Shutdown);
            handle_shutdown(state, writer, &req.id, drain_ms);
            inline_latency(state, MetricOp::Shutdown, started);
        }
        Op::Verify(q) => submit(state, writer, req.id, QueryKind::Verify, q),
        Op::Synthesize(q) => submit(state, writer, req.id, QueryKind::Synthesize, q),
        Op::Campaign(q) => submit(state, writer, req.id, QueryKind::Campaign, q),
    }
}

/// Records the latency of an op handled inline on the connection thread.
/// (For a `watch` this is the whole subscription lifetime.)
fn inline_latency(state: &ServerState, op: MetricOp, started: Duration) {
    state
        .metrics
        .record_latency(op, state.clock.now().saturating_sub(started));
}

/// Freezes the telemetry plane together with the server's own gauges
/// (pool occupancy, session-cache temperature, admission totals).
fn snapshot(state: &ServerState) -> MetricsSnapshot {
    let (live, capacity, hits, misses, evictions) = {
        let sessions = lock(&state.sessions);
        (
            sessions.live() as u64,
            sessions.capacity() as u64,
            sessions.hits(),
            sessions.misses(),
            sessions.evictions(),
        )
    };
    state.metrics.snapshot(
        state.clock.now(),
        ServiceGauges {
            workers: state.pool.workers() as u64,
            queue_depth: state.pool.pending() as u64,
            queue_capacity: state.config.queue.max(1) as u64,
            draining: state.draining.load(Ordering::SeqCst),
            requests: state.requests.load(Ordering::SeqCst),
            sessions_live: live,
            sessions_capacity: capacity,
            session_hits: hits,
            session_misses: misses,
            session_evictions: evictions,
        },
    )
}

/// The `stats` response: session-cache temperature, admission counters,
/// uptime and a per-op request/latency summary. Everything here is
/// scheduling-dependent, so stats lines are observational only — never
/// part of the determinism contract.
fn stats_line(state: &ServerState, id: &str) -> String {
    let snap = snapshot(state);
    let s = &snap.service;
    let mut out = protocol::response_head(id, "stats");
    let _ = write!(
        out,
        ",\"sessions\":{{\"live\":{},\"capacity\":{},\"hits\":{},\"misses\":{},\
         \"evictions\":{}}}",
        s.sessions_live, s.sessions_capacity, s.session_hits, s.session_misses,
        s.session_evictions,
    );
    let _ = write!(
        out,
        ",\"requests\":{},\"rejected\":{},\"pending\":{},\"workers\":{},\"draining\":{}",
        s.requests,
        state.rejected.load(Ordering::SeqCst),
        s.queue_depth,
        s.workers,
        s.draining,
    );
    let _ = write!(out, ",\"uptime_us\":{},\"busy\":{},\"ops\":{{", snap.uptime_us, snap.busy);
    for (i, op) in snap.ops.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"requests\":{},\"errors\":{},\"p50_us\":{},\"p90_us\":{},\
             \"p99_us\":{}}}",
            op.op,
            op.requests,
            op.errors,
            op.latency.percentile(0.50),
            op.latency.percentile(0.90),
            op.latency.percentile(0.99),
        );
    }
    out.push_str("}}");
    out
}

/// The `metrics` response: the full snapshot in the requested exposition
/// format. Prometheus text rides inside the JSONL line as an escaped
/// `body` string (the client unwraps it back to raw text).
fn metrics_line(state: &ServerState, id: &str, format: MetricsFormat) -> String {
    let snap = snapshot(state);
    let mut out = protocol::response_head(id, "metrics");
    match format {
        MetricsFormat::Json => {
            out.push_str(",\"format\":\"json\",\"metrics\":");
            snap.to_json_into(&mut out);
        }
        MetricsFormat::Prometheus => {
            out.push_str(",\"format\":\"prometheus\",\"body\":");
            escape_into(&snap.to_prometheus(), &mut out);
        }
    }
    out.push('}');
    out
}

/// The `watch` subscription loop, run inline on the connection's reader
/// thread (a watch deliberately monopolizes its connection). Emits one
/// snapshot immediately, then one per interval, until the client
/// disconnects (a failed write) or the server drains — drain ends the
/// subscription honestly with a final `response` line carrying the last
/// snapshot. Watch connections are not in the in-flight table, so a
/// drain never waits on them.
fn handle_watch(
    state: &ServerState,
    writer: &Arc<Mutex<net::Stream>>,
    id: &str,
    interval_ms: u64,
) {
    state.watchers.fetch_add(1, Ordering::SeqCst);
    watch_loop(state, writer, id, interval_ms);
    state.watchers.fetch_sub(1, Ordering::SeqCst);
}

/// The body of [`handle_watch`], split out so the watcher gauge is
/// balanced on every exit path.
fn watch_loop(
    state: &ServerState,
    writer: &Arc<Mutex<net::Stream>>,
    id: &str,
    interval_ms: u64,
) {
    let interval = Duration::from_millis(interval_ms);
    let mut seq = 0u64;
    loop {
        let snap = snapshot(state);
        if state.draining.load(Ordering::SeqCst) {
            let mut out = protocol::response_head(id, "watch");
            let _ = write!(out, ",\"snapshots\":{seq},\"draining\":true,\"final_snapshot\":");
            snap.to_json_into(&mut out);
            out.push('}');
            write_line(writer, &out);
            return;
        }
        if !write_line(writer, &protocol::watch_line(id, seq, &snap.to_json())) {
            return;
        }
        seq += 1;
        // Sleep in short slices so a drain ends the subscription well
        // before a long interval elapses.
        let mut waited = Duration::ZERO;
        while waited < interval && !state.draining.load(Ordering::SeqCst) {
            let slice = Duration::from_millis(25).min(interval - waited);
            std::thread::sleep(slice);
            waited += slice;
        }
    }
}

/// Admission: refuse while draining, register a cancel token, hand the
/// job to the pool, and translate a full queue into an `overloaded`
/// error response.
fn submit(
    state: &Arc<ServerState>,
    writer: &Arc<Mutex<net::Stream>>,
    id: String,
    kind: QueryKind,
    q: Query,
) {
    let op = kind.metric_op();
    state.metrics.record_request(op);
    if state.draining.load(Ordering::SeqCst) {
        state.rejected.fetch_add(1, Ordering::SeqCst);
        state.metrics.record_rejected();
        state.metrics.record_error(op, ErrorKind::Draining);
        write_line(
            writer,
            &protocol::error_line(Some(&id), ErrorKind::Draining, "server is draining"),
        );
        return;
    }
    let token = Arc::new(AtomicBool::new(false));
    let ticket = state.next_ticket.fetch_add(1, Ordering::SeqCst);
    lock(&state.inflight).insert(ticket, Arc::clone(&token));
    let job_state = Arc::clone(state);
    let job_writer = Arc::clone(writer);
    let job_id = id.clone();
    let admitted = state.clock.now();
    let submitted = state.pool.submit(move |worker| {
        // Admission→pickup is the queue wait; everything from admission
        // to the written response is the op's end-to-end latency.
        job_state
            .metrics
            .record_queue_wait(op, job_state.clock.now().saturating_sub(admitted));
        job_state.metrics.job_begin();
        let lines = run_query(&job_state, &job_id, kind, &q, &token, worker, &job_writer);
        for line in &lines {
            write_line(&job_writer, line);
        }
        job_state.metrics.job_end();
        job_state
            .metrics
            .record_latency(op, job_state.clock.now().saturating_sub(admitted));
        lock(&job_state.inflight).remove(&ticket);
    });
    if let Err(err) = submitted {
        lock(&state.inflight).remove(&ticket);
        state.rejected.fetch_add(1, Ordering::SeqCst);
        state.metrics.record_rejected();
        let (kind, message) = match err {
            SubmitError::Overloaded => {
                (ErrorKind::Overloaded, "admission queue is full; retry later")
            }
            SubmitError::Closed => (ErrorKind::Draining, "server is draining"),
        };
        state.metrics.record_error(op, kind);
        write_line(writer, &protocol::error_line(Some(&id), kind, message));
    }
}

/// Graceful drain, run on the requesting connection's thread: stop
/// admissions, wait for in-flight work, cancel stragglers past the
/// deadline, respond, then wake the accept loop so it can exit.
fn handle_shutdown(
    state: &Arc<ServerState>,
    writer: &Arc<Mutex<net::Stream>>,
    id: &str,
    drain_ms: Option<u64>,
) {
    if state.draining.swap(true, Ordering::SeqCst) {
        write_line(
            writer,
            &protocol::error_line(Some(id), ErrorKind::Draining, "already draining"),
        );
        return;
    }
    let window = Duration::from_millis(drain_ms.unwrap_or(state.config.drain_ms));
    let deadline = state.clock.now() + window;
    let mut drained = wait_for_idle(state, deadline);
    if !drained {
        // Past the deadline: cut the stragglers loose. Their budgets
        // observe the token at the next poll site and the jobs still
        // flush an `unknown(cancelled)` response before unregistering.
        for token in lock(&state.inflight).values() {
            token.store(true, Ordering::SeqCst);
        }
        drained = wait_for_idle(state, deadline + window);
    }
    // Give live `watch` subscriptions a moment to observe the drain and
    // close honestly with their final snapshot. Bounded: a subscriber
    // blocked on a dead client write must not wedge the shutdown.
    let watch_deadline = state.clock.now() + Duration::from_millis(500);
    while state.watchers.load(Ordering::SeqCst) > 0 && state.clock.now() < watch_deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    state.stop.store(true, Ordering::SeqCst);
    let mut out = protocol::response_head(id, "shutdown");
    out.push_str(",\"ok\":true,\"drained\":");
    out.push_str(if drained { "true" } else { "false" });
    out.push('}');
    write_line(writer, &out);
    // accept() is blocking; a throwaway self-connection wakes it so the
    // run loop can observe `stop` and exit.
    let _ = net::connect(&state.addr);
}

/// Polls the in-flight table until it empties or `deadline` passes.
fn wait_for_idle(state: &ServerState, deadline: Duration) -> bool {
    loop {
        if lock(&state.inflight).is_empty() {
            return true;
        }
        if state.clock.now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Records a bad-request failure of a solver-backed op and renders its
/// error line.
fn query_error(state: &ServerState, op: MetricOp, id: &str, message: &str) -> Vec<String> {
    state.metrics.record_error(op, ErrorKind::BadRequest);
    vec![protocol::error_line(Some(id), ErrorKind::BadRequest, message)]
}

/// Executes one solver-backed request on a pool worker, returning the
/// lines to write (trace lines first, the response last). Campaign
/// requests with `trace:true` additionally stream per-job events onto
/// `writer` live, before this function returns.
#[allow(clippy::too_many_arguments)]
fn run_query(
    state: &ServerState,
    id: &str,
    kind: QueryKind,
    q: &Query,
    token: &Arc<AtomicBool>,
    worker: usize,
    writer: &Arc<Mutex<net::Stream>>,
) -> Vec<String> {
    let started = state.clock.now();
    let system = match state.case(&q.case) {
        Ok(sys) => sys,
        Err(message) => return query_error(state, kind.metric_op(), id, &message),
    };
    let model = if q.scenario.is_empty() {
        AttackModel::new(system.grid.num_buses())
    } else {
        match scenario::parse(&q.scenario, system.grid.num_buses(), system.grid.num_lines()) {
            Ok(m) => m,
            Err(e) => return query_error(state, kind.metric_op(), id, &e.to_string()),
        }
    };
    match kind {
        QueryKind::Verify => run_verify(state, id, q, &system, model, token, worker, started),
        QueryKind::Synthesize => run_synthesize(state, id, q, &system, model, worker, started),
        QueryKind::Campaign => run_campaign(state, id, q, &system, worker, started, writer),
    }
}

/// Trace lines of one solver phase breakdown, mirroring the one-shot CLI:
/// the scheduling-dependent base-cache counters ride on the encode phase.
fn phase_trace_lines(id: &str, stats: &sta_smt::SolverStats, lines: &mut Vec<String>) {
    let metrics = stats.phase_metrics();
    let timings = stats.phase_timings();
    for (phase, mut counters) in metrics.grouped() {
        if phase == Phase::Encode {
            counters.push(("cache_hits", timings.cache_hits));
            counters.push(("cache_misses", timings.cache_misses));
        }
        let wall_us = timings.wall_of(phase).map(|d| d.as_micros() as u64);
        lines.push(protocol::trace_line(
            id,
            &TraceEvent::Phase { job: 0, phase, counters, wall_us },
        ));
    }
}

/// Appends the `timing` object — always the last key of a response, and
/// only under `"timing":true`, so stripping it is the whole determinism
/// story.
#[allow(clippy::too_many_arguments)]
fn timing_tail(
    out: &mut String,
    wall: Duration,
    encode: Duration,
    search: Duration,
    session: Option<bool>,
    worker: usize,
) {
    let _ = write!(
        out,
        ",\"timing\":{{\"wall_us\":{},\"encode_us\":{},\"search_us\":{}",
        wall.as_micros(),
        encode.as_micros(),
        search.as_micros(),
    );
    if let Some(warm) = session {
        let _ = write!(out, ",\"session\":\"{}\"", if warm { "hit" } else { "miss" });
    }
    let _ = write!(out, ",\"worker\":{worker}}}");
}

#[allow(clippy::too_many_arguments)]
fn run_verify(
    state: &ServerState,
    id: &str,
    q: &Query,
    system: &Arc<TestSystem>,
    model: AttackModel,
    token: &Arc<AtomicBool>,
    worker: usize,
    started: Duration,
) -> Vec<String> {
    // The request deadline overrides the scenario's own `timeout-ms`,
    // like `--timeout-ms` in the CLI; the cancel token rides along either
    // way so drain can always reach this job.
    let budget = match q.timeout_ms.or(model.timeout_ms) {
        Some(ms) => Budget::with_timeout(Duration::from_millis(ms)),
        None => Budget::unlimited(),
    }
    .with_cancel_token(Arc::clone(token));
    let key: SessionKey = (q.case.clone(), model.allow_topology_attack, q.certify);
    let (mut session, warm) = match lock(&state.sessions).take(&key) {
        Some(session) => (session, true),
        None => (
            VerifySession::with_verifier(
                AttackVerifier::shared(Arc::clone(system)).with_certify(q.certify),
                model.allow_topology_attack,
            ),
            false,
        ),
    };
    let report = session.verify_with_budget(&model, &budget);
    // Sessions survive every outcome — a timed-out check leaves the base
    // encoding intact (scenario assertions are popped), so the next
    // request still gets a warm start.
    lock(&state.sessions).put(key, session);
    let wall = state.clock.now().saturating_sub(started);
    let mut lines = Vec::new();
    if q.trace {
        phase_trace_lines(id, &report.stats, &mut lines);
    }
    let mut out = protocol::response_head(id, "verify");
    match &report.outcome {
        AttackOutcome::Feasible(v) => {
            out.push_str(",\"verdict\":\"sat\",\"witness\":");
            witness_json(v, &mut out);
        }
        AttackOutcome::Infeasible => out.push_str(",\"verdict\":\"unsat\""),
        AttackOutcome::Unknown(why) => {
            if matches!(why, Interrupt::Cancelled) {
                state.metrics.record_cancelled();
            }
            let _ = write!(out, ",\"verdict\":\"unknown({why})\"");
        }
    }
    if q.timing {
        let pw = report.stats.phase_timings();
        timing_tail(&mut out, wall, pw.encode, pw.search, Some(warm), worker);
    }
    out.push('}');
    lines.push(out);
    lines
}

#[allow(clippy::too_many_arguments)]
fn run_synthesize(
    state: &ServerState,
    id: &str,
    q: &Query,
    system: &Arc<TestSystem>,
    model: AttackModel,
    worker: usize,
    started: Duration,
) -> Vec<String> {
    let Some(budget) = q.budget else {
        return query_error(
            state,
            MetricOp::Synthesize,
            id,
            "synthesize needs a numeric \"budget\"",
        );
    };
    let mut attacker = model;
    if attacker.timeout_ms.is_none() {
        // The per-request deadline bounds each CEGIS check (the loop
        // re-verifies many times; an expired check ends the job as
        // `inconclusive`), mirroring the campaign engine.
        attacker.timeout_ms = q.timeout_ms;
    }
    let synth = Synthesizer::new(system).with_certify(q.certify);
    let config = SynthesisConfig::with_budget(budget).with_incremental(q.incremental);
    let (outcome, obs) = synth.synthesize_with_metrics(&attacker, &config);
    let wall = state.clock.now().saturating_sub(started);
    let mut out = protocol::response_head(id, "synthesize");
    match outcome {
        SynthesisOutcome::Architecture(arch) => {
            out.push_str(",\"verdict\":\"architecture\",\"architecture\":[");
            for (i, b) in arch.secured_buses.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}", b.0 + 1);
            }
            let _ = write!(out, "],\"iterations\":{}", arch.iterations);
        }
        SynthesisOutcome::NoSolution { iterations } => {
            let _ = write!(out, ",\"verdict\":\"no-solution\",\"iterations\":{iterations}");
        }
        SynthesisOutcome::Inconclusive { iterations } => {
            let _ = write!(out, ",\"verdict\":\"inconclusive\",\"iterations\":{iterations}");
        }
    }
    if q.timing {
        timing_tail(&mut out, wall, obs.timings.encode, obs.timings.search, None, worker);
    }
    out.push('}');
    vec![out]
}

#[allow(clippy::too_many_arguments)]
fn run_campaign(
    state: &ServerState,
    id: &str,
    q: &Query,
    system: &Arc<TestSystem>,
    worker: usize,
    started: Duration,
    writer: &Arc<Mutex<net::Stream>>,
) -> Vec<String> {
    let mut spec = CampaignSpec::standard_sweep(&q.case, (**system).clone())
        .with_certify(q.certify)
        .with_incremental(q.incremental);
    if let Some(ms) = q.timeout_ms {
        spec = spec.with_timeout_ms(ms);
    }
    let report = if q.trace {
        // Stream the engine's per-job events straight onto the connection
        // as they happen (plus periodic heartbeats), instead of holding
        // everything until the end. The report — and therefore the final
        // response line — is byte-identical to the untraced path.
        let sink = SharedSink::new(Box::new(ForwardSink {
            id: id.to_string(),
            writer: Arc::clone(writer),
        }));
        let mut options = RunOptions::with_workers(q.workers.max(1));
        options.clock = state.clock.clone();
        options.heartbeat = Some(Duration::from_millis(500));
        sta_campaign::run_with(&spec, &options, Some(&sink))
    } else {
        sta_campaign::run(&spec, q.workers.max(1))
    };
    let wall = state.clock.now().saturating_sub(started);
    let mut out = protocol::response_head(id, "campaign");
    let _ = write!(out, ",\"jobs\":{},\"summary\":{{", report.results.len());
    for (i, (token, n)) in report.summary().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{token}\":{n}");
    }
    out.push_str("},\"any_unknown\":");
    out.push_str(if report.any_unknown() { "true" } else { "false" });
    if q.timing {
        timing_tail(&mut out, wall, Duration::ZERO, Duration::ZERO, None, worker);
    }
    out.push('}');
    vec![out]
}

/// A running server on a background thread, for in-process harnesses
/// (the serve bench and the integration tests).
#[derive(Debug)]
pub struct ServerHandle {
    addr: String,
    thread: Option<std::thread::JoinHandle<Result<(), String>>>,
}

impl ServerHandle {
    /// The resolved address clients should dial.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Requests a graceful drain and joins the server thread.
    pub fn stop(mut self) -> Result<(), String> {
        let line = "{\"id\":\"__stop\",\"op\":\"shutdown\"}";
        crate::client::request(&self.addr, line)?;
        match self.thread.take() {
            Some(t) => t.join().map_err(|_| "server thread panicked".to_string())?,
            None => Ok(()),
        }
    }
}

/// Binds `config` and runs the server on a background thread.
pub fn spawn(config: ServeConfig) -> Result<ServerHandle, String> {
    let server = Server::bind(config)?;
    let addr = server.local_addr().to_string();
    let thread = std::thread::spawn(move || server.run());
    Ok(ServerHandle { addr, thread: Some(thread) })
}
