//! End-to-end benchmark of the threat-analytics library, driven through
//! its `pub` API from outside the workspace.
//!
//! ```text
//! sta-perfbench <workload> --seed N --seconds S --trace 0|1
//! ```
//!
//! Four units cover the four things the paper's users ask for: a verdict
//! on one scenario (`verify`), a synthesized security architecture
//! (`synth`), a grid-wide threat assessment (`assess`) and answers from
//! the running service (`serve`). Every run runs all four, so that every
//! run reports every end-to-end metric. The workload picks the unit that
//! gets `--seconds` of the run and, for the two solver units, the size:
//! `verify` runs at 1354 buses and `synth` at 57 buses only in their own
//! workload, and on the 14-bus system otherwise. The other units get a
//! fixed share each. A scheduler hands each step to the unit furthest
//! behind its share, so every unit's samples spread over the whole run.
//!
//! With `--trace 0` the run reports the end-to-end metrics. With
//! `--trace 1` each unit's steps alternate untraced and traced (span
//! profiler attached, trace lines requested from the service), and the
//! run reports the per-layer metrics plus, for each end-to-end metric,
//! traced minus untraced (`overhead.*`).
//!
//! The last line of standard output is one JSON object with the result,
//! the deterministic-counter ledger and the failure notes.

mod assess;
mod measure;
mod serve;
mod synth;
mod verify;

use measure::{median, peak_rss_mb, Ledger, Pass, Tally};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The workloads: name, the unit it runs at full size, and why it is in
/// the benchmark.
const WORKLOADS: [(&str, Kind, &str); 2] = [
    (
        "verify-1354",
        Kind::Verify,
        "Blocked (unsat) and b/2-target (sat, replayed) verifies on the 1354-bus case: the fresh Solver::check path, where simplex and theory glue do nearly all the work.",
    ),
    (
        "cegis-57",
        Kind::Synth,
        "CEGIS synthesis on the 57-bus case, T_CZ = round(0.4 x potential measurements), budget 19: the live check_assuming core, CDCL-heavy.",
    ),
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Verify,
    Synth,
    Assess,
    Serve,
}

const UNITS: [Kind; 4] = [Kind::Verify, Kind::Synth, Kind::Assess, Kind::Serve];

/// Every end-to-end metric with its unit.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("unsat_verdict_s", "s"),
    ("validated_attack_s", "s"),
    ("synthesis_s", "s"),
    ("assessment_s", "s"),
    ("verify_p50_ms", "ms"),
    ("verify_p90_ms", "ms"),
    ("requests_per_s", "1/s"),
];

/// Every per-layer metric with its unit (besides the `overhead.*` twin of
/// each end-to-end metric except `setup_s`).
const PER_LAYER: [(&str, &str); 29] = [
    ("grid.case_build_ms", "ms"),
    ("attack.verifier_new_ms", "ms"),
    ("attack.encode_ms", "ms"),
    ("attack.clauses", "count"),
    ("smt.simplex_ms", "ms"),
    ("smt.simplex_factor_ms", "ms"),
    ("smt.simplex_us_per_check", "us"),
    ("smt.search_self_ms", "ms"),
    ("smt.theory_conflict_ratio", "ratio"),
    ("smt.propagations", "count"),
    ("smt.decisions", "count"),
    ("smt.conflicts", "count"),
    ("smt.retained_clauses", "count"),
    ("smt.warm_pivots_saved", "count"),
    ("smt.pivots", "count"),
    ("smt.theory_checks", "count"),
    ("smt.bound_asserts", "count"),
    ("estimator.replay_ms", "ms"),
    ("synthesis.iterations", "count"),
    ("synthesis.select_ms", "ms"),
    ("synthesis.verify_ms", "ms"),
    ("synthesis.verify_per_iteration", "ratio"),
    ("analytics.state_p50_ms", "ms"),
    ("analytics.state_max_ms", "ms"),
    ("serve.server_wall_ms", "ms"),
    ("serve.client_overhead_ms", "ms"),
    ("serve.session_hit_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("serve.verify_samples", "count"),
];

/// The run time a compact (non-native) unit gets, spread over the run
/// by the scheduler.
fn compact_share(kind: Kind) -> Duration {
    match kind {
        Kind::Verify => Duration::from_millis(1500),
        Kind::Synth => Duration::from_secs(5),
        Kind::Assess => Duration::from_secs(8),
        Kind::Serve => Duration::from_secs(12),
    }
}

/// Set-up repetitions: at least 3, until 1 s has gone, at most 20.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 20;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

struct Args {
    workload: &'static str,
    kind: Kind,
    why: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let name = argv.first().ok_or("missing workload")?;
    let &(workload, kind, why) = WORKLOADS
        .iter()
        .find(|(n, _, _)| n == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let mut args = Args {
        workload,
        kind,
        why,
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut rest = argv[1..].iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The four units of one run.
struct Units {
    verify: verify::VerifyUnit,
    synth: synth::SynthUnit,
    assess: assess::AssessUnit,
    serve: serve::ServeUnit,
    /// Per-layer set-up times of the verify unit.
    verify_setup: Vec<(&'static str, f64)>,
}

/// One complete set-up: builds the four units, the workload's own solver
/// unit at full size, and returns them with the wall time of the timed
/// parts: case builds, verifiers and their operating points, server spawn
/// and warm-up. The service's in-process reference answers (`pool`) are
/// computed once, untimed.
fn set_up(args: &Args, pool: &serve::Pool) -> Result<(Units, f64), String> {
    let buses = if args.kind == Kind::Verify { 1354 } else { 14 };
    let (verify, t) = verify::VerifyUnit::build(buses, args.seed);
    let (synth, synth_s) = synth::SynthUnit::build(args.kind == Kind::Synth);
    let (assess, assess_s) = assess::AssessUnit::build(args.seed);
    let (serve, serve_s) = serve::ServeUnit::start(pool, args.seed)?;
    let setup_s = t.case_build_s + t.verifier_new_s + synth_s + assess_s + serve_s;
    let verify_setup = vec![
        ("grid.case_build_ms", t.case_build_s * 1e3),
        ("attack.verifier_new_ms", t.verifier_new_s * 1e3),
    ];
    let units = Units {
        verify,
        synth,
        assess,
        serve,
        verify_setup,
    };
    Ok((units, setup_s))
}

/// Sets up repeatedly for the set-up budget and returns the last set-up
/// plus the median set-up time.
fn build_units(args: &Args) -> Result<(Units, f64), String> {
    let pool = serve::Pool::build()?;
    let t0 = Instant::now();
    let mut samples = Vec::new();
    let mut last = None;
    while samples.len() < SETUP_MIN_REPS
        || (samples.len() < SETUP_MAX_REPS && t0.elapsed() < SETUP_BUDGET)
    {
        drop(last.take());
        let (units, s) = set_up(args, &pool)?;
        samples.push(s);
        last = Some(units);
    }
    Ok((last.expect("at least one set-up ran"), median(&samples)))
}

/// One unit's share of a run.
struct Slot {
    kind: Kind,
    target: Duration,
    min_steps: usize,
    spent: Duration,
    steps: usize,
    /// Duration of the unit's latest step.
    last: Duration,
}

impl Slot {
    /// Whether another step brings the unit's time closer to its share
    /// (or it has not had its minimum steps yet).
    fn open(&self) -> bool {
        self.steps < self.min_steps || self.spent + self.last / 2 < self.target
    }

    fn progress(&self) -> f64 {
        self.spent.as_secs_f64() / self.target.as_secs_f64()
    }
}

/// Runs every unit until it has had its share of the run: the native
/// unit `seconds`, the others their compact shares. Each step goes to the
/// open unit furthest behind its share, so every unit's samples spread
/// over the whole run and slow phases of a shared machine hit all of them
/// alike. In a traced run a unit's steps alternate untraced and traced.
/// Returns the growth of peak RSS during traced steps.
fn schedule(args: &Args, units: &mut Units, tally: &mut Tally, ledger: &mut Ledger) -> f64 {
    let min_steps = if args.trace { 2 } else { 1 };
    // The workload's own unit first, so it takes the first step.
    let kinds = [args.kind]
        .into_iter()
        .chain(UNITS.into_iter().filter(|&k| k != args.kind));
    let mut slots: Vec<Slot> = kinds
        .map(|kind| Slot {
            kind,
            target: if kind == args.kind {
                Duration::from_secs_f64(args.seconds)
            } else {
                compact_share(kind)
            },
            min_steps,
            spent: Duration::ZERO,
            steps: 0,
            last: Duration::ZERO,
        })
        .collect();
    let mut traced_rss_growth = 0.0;
    while let Some(slot) = slots
        .iter_mut()
        .filter(|s| s.open())
        .min_by(|a, b| a.progress().total_cmp(&b.progress()))
    {
        let traced = args.trace && slot.steps % 2 == 1;
        let rss_before = if traced { peak_rss_mb() } else { 0.0 };
        let t0 = Instant::now();
        match slot.kind {
            Kind::Verify => units.verify.step(traced, tally, ledger),
            Kind::Synth => units.synth.step(traced, tally, ledger),
            Kind::Assess => units.assess.step(traced, tally, ledger),
            Kind::Serve => units.serve.step(traced, tally),
        }
        slot.last = t0.elapsed();
        slot.spent += slot.last;
        slot.steps += 1;
        if traced {
            traced_rss_growth += peak_rss_mb() - rss_before;
        }
    }
    traced_rss_growth
}

/// Every unit's end-to-end metrics (untraced or traced steps), and the
/// per-layer metrics of traced steps: compact units first and the native
/// unit last, so a layer the native unit measures is reported from it;
/// among compact units the verify unit has the last word on the solver
/// layers.
fn collect(
    args: &Args,
    units: &Units,
    traced: bool,
) -> (BTreeMap<&'static str, f64>, BTreeMap<&'static str, f64>) {
    let mut e2e = BTreeMap::new();
    let mut layers = BTreeMap::new();
    for kind in UNITS
        .into_iter()
        .rev()
        .filter(|&k| k != args.kind)
        .chain([args.kind])
    {
        let pass: Pass = match kind {
            Kind::Verify => units.verify.finish(traced),
            Kind::Synth => units.synth.finish(traced),
            Kind::Assess => units.assess.finish(traced),
            Kind::Serve => units.serve.finish(traced),
        };
        e2e.extend(pass.e2e);
        layers.extend(pass.layers);
    }
    (e2e, layers)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sta-perfbench: {e}");
            eprintln!(
                "usage: sta-perfbench <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.map(|w| w.0).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let (mut units, setup_s) = match build_units(&args) {
        Ok(u) => u,
        Err(e) => {
            eprintln!("sta-perfbench: set-up failed: {e}");
            return ExitCode::from(1);
        }
    };
    let mut tally = Tally::default();
    let mut ledger = Ledger::default();
    let traced_rss_growth = schedule(&args, &mut units, &mut tally, &mut ledger);

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let (mut e2e, plain_layers) = collect(&args, &units, false);
    e2e.insert("setup_s", setup_s);
    e2e.insert("peak_rss_mb", peak_rss_mb());
    if !args.trace {
        for (name, unit) in END_TO_END {
            metrics.push((name.to_string(), e2e[name], unit));
        }
    } else {
        let (traced_e2e, mut layers) = collect(&args, &units, true);
        layers.extend(units.verify_setup.iter().copied());
        for (name, unit) in PER_LAYER {
            metrics.push((
                name.to_string(),
                layers.get(name).copied().unwrap_or(0.0),
                unit,
            ));
        }
        for (name, unit) in END_TO_END {
            let delta = match name {
                "setup_s" => continue,
                "peak_rss_mb" => traced_rss_growth,
                _ => traced_e2e[name] - e2e[name],
            };
            metrics.push((format!("overhead.{name}"), delta, unit));
        }
    }
    if let Err(e) = units.serve.stop() {
        tally.record(Some(format!("server shutdown failed: {e}")));
    }
    let p90_samples = plain_layers["serve.verify_samples"];
    println!(
        "{}",
        result_json(&args, &tally, &ledger, &metrics, p90_samples)
    );
    ExitCode::SUCCESS
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`, then
/// the workload, its why, the seed, the untraced verify sample count
/// behind `verify_p90_ms`, the counter ledger and the failure notes.
fn result_json(
    args: &Args,
    tally: &Tally,
    ledger: &Ledger,
    metrics: &[(String, f64, &str)],
    p90_samples: f64,
) -> String {
    use sta_smt::json::{escape_into, f64_into};
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    ));
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_into(name, &mut out);
        out.push_str(":{\"value\":");
        f64_into(*value, &mut out);
        out.push_str(",\"unit\":");
        escape_into(unit, &mut out);
        out.push('}');
    }
    out.push_str("},\"workload\":");
    escape_into(args.workload, &mut out);
    out.push_str(",\"why\":");
    escape_into(args.why, &mut out);
    out.push_str(&format!(
        ",\"seed\":{},\"verify_p90_samples\":{p90_samples},\"ledger\":{{",
        args.seed
    ));
    for (i, (key, value)) in ledger.entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_into(key, &mut out);
        out.push_str(&format!(":{value}"));
    }
    out.push_str("},\"notes\":[");
    for (i, note) in tally.notes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_into(note, &mut out);
    }
    out.push_str("]}");
    out
}
