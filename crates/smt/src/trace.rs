//! Observability: per-phase solver metrics and a JSONL trace-event sink.
//!
//! The paper's scaling claims (Table IV, Figs. 4–5) are statements about
//! *where* solver time goes as instances grow, so the toolchain needs a
//! first-class answer to "did this job spend its budget in encoding, in
//! the CDCL search, or in the simplex?". This module provides the two
//! halves of that answer, both dependency-free:
//!
//! * [`PhaseMetrics`] / [`PhaseTimings`] — a per-phase breakdown of one
//!   solver check (or an aggregate over many). Counters are strictly
//!   deterministic functions of the problem: aggregating them over a
//!   campaign yields byte-identical JSON at any worker count. Wall-clock
//!   quantities live in the separate [`PhaseTimings`] so they can be
//!   stripped, exactly like the campaign report's `timing` keys.
//! * [`TraceEvent`] + [`TraceSink`] — a line-oriented event stream
//!   (JSONL via [`JsonlSink`]) emitted by the verifier and campaign
//!   layers; [`SharedSink`] makes one sink safe to share across worker
//!   threads.

use std::fmt::Write as _;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::json::escape_into;
use crate::tablefmt::{Align, Table};

/// The solver phases metrics are broken down by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Tseitin / cardinality CNF encoding (including base-cache reuse).
    Encode,
    /// The CDCL search loop (BCP, decisions, conflict analysis).
    Search,
    /// The simplex theory solver (bound asserts, checks, pivots).
    Simplex,
}

impl Phase {
    /// Stable lowercase token used in JSON.
    pub fn token(self) -> &'static str {
        match self {
            Phase::Encode => "encode",
            Phase::Search => "search",
            Phase::Simplex => "simplex",
        }
    }
}

/// Deterministic per-phase counters of one solver check, or the sum over
/// many checks (a synthesis loop, a whole campaign).
///
/// Every field is a pure function of the problem instance — no wall clock,
/// no thread identity — so any aggregation of these values is reproducible
/// byte for byte regardless of scheduling. Timings live in
/// [`PhaseTimings`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PhaseMetrics {
    /// CNF clauses pushed by the encoder.
    pub clauses: u64,
    /// Total literal occurrences over pushed clauses.
    pub clause_lits: u64,
    /// SAT variables after encoding.
    pub sat_vars: u64,
    /// Distinct arithmetic atoms registered.
    pub atoms: u64,
    /// SAT decisions.
    pub decisions: u64,
    /// BCP propagations.
    pub propagations: u64,
    /// Conflicts (Boolean + theory).
    pub conflicts: u64,
    /// Theory conflicts specifically.
    pub theory_conflicts: u64,
    /// Restarts.
    pub restarts: u64,
    /// Learned clauses retained at end of search.
    pub learned_clauses: u64,
    /// Clause-database size (original + learned) at end of search.
    pub clause_db: u64,
    /// Learned clauses carried in from earlier checks on a persistent
    /// incremental core (zero for checks on a throwaway clone of the
    /// template).
    pub retained_clauses: u64,
    /// Clauses hard-deleted by activation-literal retirement (zero for
    /// checks on a throwaway clone).
    pub deleted_clauses: u64,
    /// Simplex pivot operations.
    pub pivots: u64,
    /// Theory bound assertions fed to the simplex.
    pub bound_asserts: u64,
    /// Full simplex consistency checks.
    pub theory_checks: u64,
    /// Simplex pivots already embodied by the warm-started basis at check
    /// entry (zero for checks on a throwaway clone).
    pub warm_pivots_saved: u64,
}

impl PhaseMetrics {
    /// Adds `other` into `self` (campaign/synthesis rollup).
    pub fn merge(&mut self, other: &PhaseMetrics) {
        self.clauses += other.clauses;
        self.clause_lits += other.clause_lits;
        self.sat_vars += other.sat_vars;
        self.atoms += other.atoms;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.conflicts += other.conflicts;
        self.theory_conflicts += other.theory_conflicts;
        self.restarts += other.restarts;
        self.learned_clauses += other.learned_clauses;
        self.clause_db += other.clause_db;
        self.retained_clauses += other.retained_clauses;
        self.deleted_clauses += other.deleted_clauses;
        self.pivots += other.pivots;
        self.bound_asserts += other.bound_asserts;
        self.theory_checks += other.theory_checks;
        self.warm_pivots_saved += other.warm_pivots_saved;
    }

    /// The counters grouped by phase, in the fixed serialization order.
    pub fn grouped(&self) -> Vec<(Phase, Vec<(&'static str, u64)>)> {
        vec![
            (
                Phase::Encode,
                vec![
                    ("clauses", self.clauses),
                    ("clause_lits", self.clause_lits),
                    ("sat_vars", self.sat_vars),
                    ("atoms", self.atoms),
                ],
            ),
            (
                Phase::Search,
                vec![
                    ("decisions", self.decisions),
                    ("propagations", self.propagations),
                    ("conflicts", self.conflicts),
                    ("theory_conflicts", self.theory_conflicts),
                    ("restarts", self.restarts),
                    ("learned_clauses", self.learned_clauses),
                    ("clause_db", self.clause_db),
                    ("retained_clauses", self.retained_clauses),
                    ("deleted_clauses", self.deleted_clauses),
                ],
            ),
            (
                Phase::Simplex,
                vec![
                    ("pivots", self.pivots),
                    ("bound_asserts", self.bound_asserts),
                    ("theory_checks", self.theory_checks),
                    ("warm_pivots_saved", self.warm_pivots_saved),
                ],
            ),
        ]
    }

    /// Serializes the counters as a JSON object grouped by phase, with a
    /// fixed key order (deterministic — safe to byte-compare).
    pub fn to_json_into(&self, out: &mut String) {
        out.push('{');
        for (i, (phase, counters)) in self.grouped().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{{", phase.token());
            for (k, (name, value)) in counters.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{name}\":{value}");
            }
            out.push('}');
        }
        out.push('}');
    }

    /// The JSON form as a fresh string.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        self.to_json_into(&mut out);
        out
    }

    /// Renders the end-of-run phase table (the `--metrics` output).
    pub fn table(&self) -> String {
        let mut table = Table::new(&[
            ("phase", Align::Left),
            ("counter", Align::Left),
            ("total", Align::Right),
        ]);
        for (phase, counters) in self.grouped() {
            for (name, value) in counters {
                table.row(&[phase.token(), name, &value.to_string()]);
            }
        }
        table.render()
    }
}

/// Observational per-phase data — wall clocks and base-cache behavior —
/// kept strictly apart from [`PhaseMetrics`] (the same discipline as the
/// campaign report's `timing` keys: serialize it only where timing is
/// wanted). Cache hits live here rather than in the deterministic
/// counters because session reuse depends on which worker executed which
/// job: the same campaign run at different worker counts legitimately
/// hits the cache a different number of times.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseTimings {
    /// Time spent encoding (Tseitin + cardinality + base-cache extension).
    pub encode: Duration,
    /// Time spent in search (CDCL loop including theory checks).
    pub search: Duration,
    /// Checks that reused a cached base encoding.
    pub cache_hits: u64,
    /// Checks that built their base encoding from scratch.
    pub cache_misses: u64,
    /// Basis refactorizations by the revised simplex engine (zero on the
    /// dense engine). Observational: the refactorization schedule is an
    /// engine implementation detail, so — like cache behavior — it must
    /// never leak into [`PhaseMetrics`], whose aggregates are compared
    /// byte for byte across engine modes.
    pub refactorizations: u64,
}

impl PhaseTimings {
    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &PhaseTimings) {
        self.encode += other.encode;
        self.search += other.search;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.refactorizations += other.refactorizations;
    }

    /// The wall time of `phase`, if this struct tracks it separately
    /// (simplex time is part of search).
    pub fn wall_of(&self, phase: Phase) -> Option<Duration> {
        match phase {
            Phase::Encode => Some(self.encode),
            Phase::Search => Some(self.search),
            Phase::Simplex => None,
        }
    }

    /// Serializes as a JSON fragment
    /// (`"encode_ms":…,"search_ms":…,"cache_hits":…,"cache_misses":…,`
    /// `"refactorizations":…`).
    pub fn to_json_into(&self, out: &mut String) {
        let _ = write!(
            out,
            "\"encode_ms\":{:.3},\"search_ms\":{:.3},\"cache_hits\":{},\"cache_misses\":{},\
             \"refactorizations\":{}",
            self.encode.as_secs_f64() * 1e3,
            self.search.as_secs_f64() * 1e3,
            self.cache_hits,
            self.cache_misses,
            self.refactorizations,
        );
    }
}

/// One observability event. The JSONL trace file is one event per line.
#[derive(Debug, Clone)]
pub enum TraceEvent {
    /// A run (one CLI check or one campaign) begins.
    RunStart {
        /// Run name (campaign name, or `verify:<case>`-style for one-shots).
        name: String,
        /// Number of jobs the run will execute.
        jobs: usize,
    },
    /// A job was picked up.
    JobStart {
        /// Job id within the run.
        job: usize,
        /// Job label.
        label: String,
        /// Case name the job ran against.
        case: String,
    },
    /// Per-phase counters of a finished job. `wall_us` is the phase's wall
    /// clock where tracked separately (trace files are observational and
    /// include timing; only the *report* strips it).
    Phase {
        /// Job id within the run.
        job: usize,
        /// Which phase the counters describe.
        phase: Phase,
        /// `(name, value)` counter pairs in serialization order.
        counters: Vec<(&'static str, u64)>,
        /// Wall clock of the phase in microseconds, when tracked.
        wall_us: Option<u64>,
    },
    /// One node of a job's profiling span tree, flattened to a
    /// `/`-joined path (see [`crate::profile::flatten_spans`]). Span
    /// times are wall clocks, so — like every `wall_us` here — they
    /// appear in trace files but never in timing-stripped reports.
    Span {
        /// Job id within the run.
        job: usize,
        /// `/`-joined span path (e.g. `verify/encode/delta`).
        path: String,
        /// Number of spans merged into this node.
        count: u64,
        /// Inclusive wall time in microseconds.
        incl_us: u64,
        /// Exclusive (self) wall time in microseconds.
        excl_us: u64,
    },
    /// A sampled point of a solver progress timeline, recorded at CDCL
    /// decision boundaries while a check runs (conflict/restart/pivot
    /// rates over time, for watching a long solve converge or thrash).
    Progress {
        /// Job id within the run.
        job: usize,
        /// Time since the check started, in microseconds.
        at_us: u64,
        /// `(name, value)` cumulative counter pairs in serialization
        /// order (`decisions`, `conflicts`, `restarts`, `propagations`,
        /// `pivots`).
        counters: Vec<(&'static str, u64)>,
    },
    /// A periodic campaign-level heartbeat: how far a multi-job run has
    /// progressed. Emitted by the campaign pool while jobs execute so a
    /// client watching the trace channel sees liveness between job
    /// completions. Elapsed time is a wall clock — observational only,
    /// never part of a timing-stripped report.
    Heartbeat {
        /// Jobs finished so far.
        done: usize,
        /// Jobs the run will execute in total.
        total: usize,
        /// Time since the run started, in microseconds.
        elapsed_us: u64,
    },
    /// A job finished.
    JobEnd {
        /// Job id within the run.
        job: usize,
        /// Verdict token (`sat`, `unsat`, `unknown(timeout)`, …).
        verdict: String,
        /// Job wall clock in microseconds.
        wall_us: u64,
    },
    /// The run finished.
    RunEnd {
        /// Run name, matching the `RunStart`.
        name: String,
        /// Total wall clock in microseconds.
        wall_us: u64,
    },
}

impl TraceEvent {
    /// Serializes the event as one JSON object (one JSONL line, no
    /// trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        match self {
            TraceEvent::RunStart { name, jobs } => {
                out.push_str("{\"event\":\"run-start\",\"name\":");
                escape_into(name, &mut out);
                let _ = write!(out, ",\"jobs\":{jobs}}}");
            }
            TraceEvent::JobStart { job, label, case } => {
                let _ = write!(out, "{{\"event\":\"job-start\",\"job\":{job},\"label\":");
                escape_into(label, &mut out);
                out.push_str(",\"case\":");
                escape_into(case, &mut out);
                out.push('}');
            }
            TraceEvent::Phase { job, phase, counters, wall_us } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"phase\",\"job\":{job},\"phase\":\"{}\",\"counters\":{{",
                    phase.token()
                );
                for (i, (name, value)) in counters.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{name}\":{value}");
                }
                out.push('}');
                if let Some(us) = wall_us {
                    let _ = write!(out, ",\"wall_us\":{us}");
                }
                out.push('}');
            }
            TraceEvent::Span { job, path, count, incl_us, excl_us } => {
                let _ = write!(out, "{{\"event\":\"span\",\"job\":{job},\"path\":");
                escape_into(path, &mut out);
                let _ = write!(
                    out,
                    ",\"count\":{count},\"incl_us\":{incl_us},\"excl_us\":{excl_us}}}"
                );
            }
            TraceEvent::Progress { job, at_us, counters } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"progress\",\"job\":{job},\"at_us\":{at_us},\"counters\":{{"
                );
                for (i, (name, value)) in counters.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{name}\":{value}");
                }
                out.push_str("}}");
            }
            TraceEvent::Heartbeat { done, total, elapsed_us } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"heartbeat\",\"done\":{done},\"total\":{total},\
                     \"elapsed_us\":{elapsed_us}}}"
                );
            }
            TraceEvent::JobEnd { job, verdict, wall_us } => {
                let _ = write!(out, "{{\"event\":\"job-end\",\"job\":{job},\"verdict\":");
                escape_into(verdict, &mut out);
                let _ = write!(out, ",\"wall_us\":{wall_us}}}");
            }
            TraceEvent::RunEnd { name, wall_us } => {
                out.push_str("{\"event\":\"run-end\",\"name\":");
                escape_into(name, &mut out);
                let _ = write!(out, ",\"wall_us\":{wall_us}}}");
            }
        }
        out
    }
}

/// A consumer of [`TraceEvent`]s.
///
/// Sinks must be `Send` so a [`SharedSink`] can carry them across the
/// campaign pool's worker threads.
pub trait TraceSink: Send {
    /// Consumes one event. Implementations must not panic on I/O failure
    /// (observability must never abort an analysis run).
    fn emit(&mut self, event: &TraceEvent);
}

/// Writes each event as one JSON line to an [`io::Write`](std::io::Write)
/// (the `--trace <path>` file format). Write errors are swallowed — a full
/// disk degrades the trace, not the run.
pub struct JsonlSink<W: Write + Send> {
    inner: W,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(inner: W) -> Self {
        JsonlSink { inner }
    }
}

impl<W: Write + Send> std::fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn emit(&mut self, event: &TraceEvent) {
        let _ = writeln!(self.inner, "{}", event.to_json());
    }
}

/// Collects events into a shared vector — the in-process sink used by
/// tests and embedders. Clones share the same buffer.
#[derive(Debug, Default, Clone)]
pub struct CollectSink {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl CollectSink {
    /// An empty collector.
    pub fn new() -> Self {
        CollectSink::default()
    }

    /// A snapshot of the events collected so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        lock(&self.events).clone()
    }
}

impl TraceSink for CollectSink {
    fn emit(&mut self, event: &TraceEvent) {
        lock(&self.events).push(event.clone());
    }
}

/// A thread-safe handle around a boxed sink, shared by reference across
/// the campaign pool's workers. Emission order between concurrently
/// finishing jobs is nondeterministic (the trace is observational); each
/// job's own events stay contiguous because they are emitted in one
/// critical section by [`SharedSink::emit_all`].
pub struct SharedSink {
    inner: Mutex<Box<dyn TraceSink>>,
}

impl SharedSink {
    /// Wraps a sink for cross-thread sharing.
    pub fn new(sink: Box<dyn TraceSink>) -> Self {
        SharedSink { inner: Mutex::new(sink) }
    }

    /// Emits one event.
    pub fn emit(&self, event: &TraceEvent) {
        lock(&self.inner).emit(event);
    }

    /// Emits a batch of events without interleaving from other threads.
    pub fn emit_all(&self, events: &[TraceEvent]) {
        let mut sink = lock(&self.inner);
        for event in events {
            sink.emit(event);
        }
    }
}

impl std::fmt::Debug for SharedSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSink").finish_non_exhaustive()
    }
}

/// Locks a mutex, shrugging off poisoning: sinks hold append-only buffers
/// or writers, never half-updated invariants.
fn lock<T: ?Sized>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_every_counter() {
        let mut a = PhaseMetrics::default();
        a.clauses = 1;
        a.decisions = 2;
        a.pivots = 3;
        let mut b = PhaseMetrics::default();
        b.clauses = 10;
        b.decisions = 20;
        b.pivots = 30;
        a.merge(&b);
        assert_eq!(a.clauses, 11);
        assert_eq!(a.decisions, 22);
        assert_eq!(a.pivots, 33);
    }

    #[test]
    fn json_is_deterministic_and_grouped() {
        let mut m = PhaseMetrics::default();
        m.clauses = 7;
        m.theory_checks = 5;
        m.warm_pivots_saved = 2;
        let json = m.to_json();
        assert_eq!(json, m.to_json());
        assert!(json.starts_with("{\"encode\":{\"clauses\":7,"));
        assert!(json.ends_with("\"warm_pivots_saved\":2}}"));
        assert!(json.contains("\"theory_checks\":5"));
        assert!(json.contains("\"retained_clauses\":0"));
        assert!(json.contains("\"search\":{"));
    }

    #[test]
    fn table_lists_all_phases() {
        let table = PhaseMetrics::default().table();
        for phase in ["encode", "search", "simplex"] {
            assert!(table.contains(phase), "{table}");
        }
        assert!(table.contains("propagations"));
    }

    #[test]
    fn events_serialize_with_escaping() {
        let ev = TraceEvent::JobStart {
            job: 3,
            label: "state=4 \"q\"".into(),
            case: "ieee14".into(),
        };
        let json = ev.to_json();
        assert!(json.starts_with("{\"event\":\"job-start\",\"job\":3,"));
        assert!(json.contains("\\\"q\\\""));
        let ph = TraceEvent::Phase {
            job: 0,
            phase: Phase::Simplex,
            counters: vec![("pivots", 4)],
            wall_us: None,
        };
        assert_eq!(
            ph.to_json(),
            "{\"event\":\"phase\",\"job\":0,\"phase\":\"simplex\",\"counters\":{\"pivots\":4}}"
        );
    }

    #[test]
    fn heartbeat_serializes_progress_fraction() {
        let hb = TraceEvent::Heartbeat { done: 3, total: 12, elapsed_us: 4500 };
        assert_eq!(
            hb.to_json(),
            "{\"event\":\"heartbeat\",\"done\":3,\"total\":12,\"elapsed_us\":4500}"
        );
    }

    #[test]
    fn jsonl_sink_writes_lines_and_collect_sink_collects() {
        let mut buf = Vec::new();
        {
            let mut sink = JsonlSink::new(&mut buf);
            sink.emit(&TraceEvent::RunStart { name: "t".into(), jobs: 1 });
            sink.emit(&TraceEvent::RunEnd { name: "t".into(), wall_us: 9 });
        }
        let text = String::from_utf8(buf).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"event\":\"run-start\""));

        let collect = CollectSink::new();
        let shared = SharedSink::new(Box::new(collect.clone()));
        shared.emit(&TraceEvent::RunStart { name: "s".into(), jobs: 2 });
        shared.emit_all(&[TraceEvent::RunEnd { name: "s".into(), wall_us: 1 }]);
        assert_eq!(collect.events().len(), 2);
    }

    #[test]
    fn timings_stay_separate_from_metrics() {
        let mut t = PhaseTimings::default();
        t.encode = Duration::from_millis(2);
        t.cache_misses = 1;
        t.merge(&PhaseTimings {
            encode: Duration::from_millis(1),
            search: Duration::from_millis(4),
            cache_hits: 2,
            cache_misses: 0,
            refactorizations: 3,
        });
        assert_eq!(t.encode, Duration::from_millis(3));
        assert_eq!(t.search, Duration::from_millis(4));
        assert_eq!(t.cache_hits, 2);
        assert_eq!(t.cache_misses, 1);
        assert_eq!(t.refactorizations, 3);
        assert_eq!(t.wall_of(Phase::Simplex), None);
        let mut out = String::new();
        t.to_json_into(&mut out);
        assert!(out.starts_with("\"encode_ms\":3"));
        assert!(out.ends_with("\"cache_misses\":1,\"refactorizations\":3"));
        // Cache behavior and the refactorization schedule are
        // engine/scheduling-dependent, so they must never leak into the
        // deterministic counters.
        assert!(!PhaseMetrics::default().to_json().contains("cache"));
        assert!(!PhaseMetrics::default().to_json().contains("refactor"));
    }
}
