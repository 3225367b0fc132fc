//! Measurement plumbing shared by the workload units: clocks, order
//! statistics, the seeded generator, operation accounting and the
//! span-tree readers that turn the library's profiler output into
//! per-layer numbers.

use sta_smt::profile::SpanNode;
use sta_smt::PhaseMetrics;
use std::time::{Duration, Instant};

/// Seconds elapsed since `t0`.
pub fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks; `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values` (0 for an empty slice, which no caller
/// produces: every pass runs at least one repetition).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: a tiny, fixed, seeded generator for the benchmark's own
/// input choices, independent of any generator inside the library.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Operations attempted and failed in one run, with a note per failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one operation; `why` is `None` when it succeeded and passed
    /// its correctness check.
    pub fn record(&mut self, why: Option<String>) {
        self.attempted += 1;
        if let Some(why) = why {
            self.failed += 1;
            self.notes.push(why);
        }
    }
}

/// What a unit measured over a run, untraced or traced.
#[derive(Debug, Default)]
pub struct Pass {
    /// End-to-end metrics by name.
    pub e2e: Vec<(&'static str, f64)>,
    /// Per-layer metrics by name (from traced steps).
    pub layers: Vec<(&'static str, f64)>,
}

/// Runs `rep` at least once and until `min` has elapsed: one scheduler
/// step of a unit whose single repetition is short.
pub fn repeat_for(min: Duration, mut rep: impl FnMut()) {
    let t0 = Instant::now();
    loop {
        rep();
        if t0.elapsed() >= min {
            return;
        }
    }
}

/// A deterministic-counter ledger: the counters of the first repetition
/// of each operation, against which every later repetition is checked.
#[derive(Debug, Default)]
pub struct Ledger {
    pub entries: Vec<(String, u64)>,
}

/// The counters the ledger keeps for one solver-backed operation.
pub fn ledger_counters(m: &PhaseMetrics) -> [(&'static str, u64); 6] {
    [
        ("pivots", m.pivots),
        ("theory_checks", m.theory_checks),
        ("conflicts", m.conflicts),
        ("decisions", m.decisions),
        ("propagations", m.propagations),
        ("clauses", m.clauses),
    ]
}

impl Ledger {
    /// Records `counters` under `op` on the first call and compares them
    /// on later calls; returns a failure note on any difference.
    pub fn check<S: AsRef<str>>(&mut self, op: &str, counters: &[(S, u64)]) -> Option<String> {
        let mut diffs = Vec::new();
        for (name, value) in counters {
            let (name, value) = (name.as_ref(), *value);
            let key = format!("{op}.{name}");
            match self.entries.iter().find(|(k, _)| *k == key) {
                None => self.entries.push((key, value)),
                Some((_, first)) if *first != value => {
                    diffs.push(format!("{key}: {first} then {value}"))
                }
                Some(_) => {}
            }
        }
        (!diffs.is_empty()).then(|| {
            format!(
                "deterministic counters moved between repetitions: {}",
                diffs.join(", ")
            )
        })
    }
}

/// Inclusive time, self time and call count summed over every span named
/// `name` anywhere in `nodes`.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanSum {
    pub count: u64,
    pub inclusive: Duration,
    pub exclusive: Duration,
}

impl SpanSum {
    pub fn ms(&self) -> f64 {
        self.inclusive.as_secs_f64() * 1e3
    }

    pub fn self_ms(&self) -> f64 {
        self.exclusive.as_secs_f64() * 1e3
    }
}

/// Sums every span named `name` at any depth of `nodes`.
pub fn span_sum(nodes: &[SpanNode], name: &str) -> SpanSum {
    let mut sum = SpanSum::default();
    for node in nodes {
        if node.name == name {
            sum.count += node.count;
            sum.inclusive += node.inclusive;
            sum.exclusive += node.exclusive();
        }
        let below = span_sum(&node.children, name);
        sum.count += below.count;
        sum.inclusive += below.inclusive;
        sum.exclusive += below.exclusive;
    }
    sum
}

/// Sums every span named `name` that sits (at any depth) inside a span
/// named `within`.
pub fn span_sum_within(nodes: &[SpanNode], within: &str, name: &str) -> SpanSum {
    let mut sum = SpanSum::default();
    for node in nodes {
        let part = if node.name == within {
            span_sum(&node.children, name)
        } else {
            span_sum_within(&node.children, within, name)
        };
        sum.count += part.count;
        sum.inclusive += part.inclusive;
        sum.exclusive += part.exclusive;
    }
    sum
}

/// The solver-layer numbers every solver-backed unit reports from one
/// traced operation: span times plus the deterministic counters.
pub fn smt_layers(spans: &[SpanNode], m: &PhaseMetrics) -> Vec<(&'static str, f64)> {
    let simplex = span_sum(spans, "simplex");
    let factor = span_sum(spans, "simplex-factor");
    let search = span_sum(spans, "search");
    let checks = m.theory_checks.max(1) as f64;
    vec![
        ("smt.simplex_ms", simplex.ms()),
        ("smt.simplex_factor_ms", factor.ms()),
        ("smt.simplex_us_per_check", simplex.ms() * 1e3 / checks),
        ("smt.search_self_ms", search.self_ms()),
        (
            "smt.theory_conflict_ratio",
            m.theory_conflicts as f64 / checks,
        ),
        ("smt.propagations", m.propagations as f64),
        ("smt.decisions", m.decisions as f64),
        ("smt.conflicts", m.conflicts as f64),
        ("smt.retained_clauses", m.retained_clauses as f64),
        ("smt.warm_pivots_saved", m.warm_pivots_saved as f64),
        ("smt.pivots", m.pivots as f64),
        ("smt.theory_checks", m.theory_checks as f64),
        ("smt.bound_asserts", m.bound_asserts as f64),
        ("attack.clauses", m.clauses as f64),
    ]
}

/// Element-wise medians of per-repetition layer readings (every
/// repetition reports the same names in the same order).
pub fn median_layers(reps: &[Vec<(&'static str, f64)>]) -> Vec<(&'static str, f64)> {
    let Some(first) = reps.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, &(name, _))| {
            let values: Vec<f64> = reps.iter().map(|r| r[i].1).collect();
            (name, median(&values))
        })
        .collect()
}
