//! The verify unit: one blocked query (`T_CZ = 0`, unsat) and one
//! `MustChange` query at bus b/2 (sat) whose witness is replayed through
//! the WLS estimator. At 1354 buses this is the `verify-1354` workload.

use crate::measure::{
    ledger_counters, median, median_layers, repeat_for, secs_since, smt_layers, span_sum, Ledger,
    Pass, Tally,
};
use sta_core::attack::{AttackModel, AttackOutcome, AttackVerifier, StateTarget};
use sta_core::validation;
use sta_estimator::dcflow::{self, OperatingPoint};
use sta_grid::{ieee14, synthetic, BusId, TestSystem};
use sta_smt::{PhaseMetrics, Profiler};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A replayed witness counts as stealthy when the residual grows by at
/// most this much (the tolerance the library's own replay tests use).
const STEALTH_TOL: f64 = 1e-6;

/// One scheduler step of the compact (14-bus) unit runs query pairs
/// for at least this long; a 1354-bus pair is one step on its own.
const MIN_STEP: Duration = Duration::from_millis(50);

pub struct VerifyUnit {
    label: String,
    sys: Arc<TestSystem>,
    op: OperatingPoint,
    verifier: AttackVerifier,
    profiler: Profiler,
    /// The same verifier with the span profiler attached.
    traced: AttackVerifier,
    blocked: AttackModel,
    attack: AttackModel,
    target: BusId,
    /// Samples of untraced (`[0]`) and traced (`[1]`) steps.
    reps: [Reps; 2],
}

#[derive(Default)]
struct Reps {
    unsat_s: Vec<f64>,
    validated_s: Vec<f64>,
    layers: Vec<Vec<(&'static str, f64)>>,
}

/// Wall time of one set-up, split by layer.
pub struct VerifySetup {
    pub case_build_s: f64,
    pub verifier_new_s: f64,
}

impl VerifyUnit {
    /// Builds the case (the paper's exact 14-bus system, or a synthetic
    /// one of standard dimensions) and a verifier anchored at the
    /// operating point of `seed`'s injections.
    pub fn build(buses: usize, seed: u64) -> (Self, VerifySetup) {
        let t0 = Instant::now();
        let sys = black_box(if buses == 14 {
            ieee14::system()
        } else {
            synthetic::ieee_case(buses)
        });
        let case_build_s = secs_since(t0);
        let t1 = Instant::now();
        let injections = dcflow::synthetic_injections(buses, seed);
        let op = dcflow::solve(&sys.grid, &sys.topology, &injections, sys.reference_bus)
            .expect("built-in cases have connected topologies");
        let sys = Arc::new(sys);
        let verifier = black_box(AttackVerifier::shared_with_operating_point(
            Arc::clone(&sys),
            &op,
        ));
        let verifier_new_s = secs_since(t1);
        let target = BusId(buses / 2);
        let profiler = Profiler::new();
        let unit = VerifyUnit {
            label: format!("verify-{buses}"),
            blocked: AttackModel::new(buses).max_altered_measurements(0),
            attack: AttackModel::new(buses).target(target, StateTarget::MustChange),
            traced: verifier.clone().with_profiler(profiler.clone()),
            profiler,
            sys,
            op,
            verifier,
            target,
            reps: Default::default(),
        };
        (
            unit,
            VerifySetup {
                case_build_s,
                verifier_new_s,
            },
        )
    }

    /// Runs query pairs for one scheduler step. A traced step uses the
    /// profiled verifier and records per-layer numbers.
    pub fn step(&mut self, traced: bool, tally: &mut Tally, ledger: &mut Ledger) {
        repeat_for(MIN_STEP, || self.pair(traced, tally, ledger));
    }

    /// One blocked query, one attack query and the witness replay.
    fn pair(&mut self, traced: bool, tally: &mut Tally, ledger: &mut Ledger) {
        let verifier = if traced { &self.traced } else { &self.verifier };
        let t0 = Instant::now();
        let blocked = black_box(verifier.verify_with_stats(&self.blocked));
        let unsat_s = secs_since(t0);
        tally.record(match blocked.outcome {
            AttackOutcome::Infeasible => {
                let counters = ledger_counters(&blocked.stats.phase_metrics());
                ledger.check(&format!("{}.blocked", self.label), &counters)
            }
            ref other => Some(format!("{}: blocked query answered {other:?}", self.label)),
        });

        let t1 = Instant::now();
        let report = black_box(verifier.verify_with_stats(&self.attack));
        let mut replay_s = 0.0;
        let why = match &report.outcome {
            AttackOutcome::Feasible(vector) => {
                let t2 = Instant::now();
                let replayed = black_box(validation::replay(&self.sys, &self.op, vector));
                replay_s = secs_since(t2);
                match replayed {
                    Ok(r) if !r.is_stealthy(STEALTH_TOL) => Some(format!(
                        "{}: witness is detected on replay ({r})",
                        self.label
                    )),
                    Ok(r) if r.state_shifts[self.target.0].abs() <= 1e-9 => Some(format!(
                        "{}: replay leaves target bus {} unshifted",
                        self.label,
                        self.target.0 + 1
                    )),
                    Ok(_) => None,
                    Err(e) => Some(format!("{}: replay failed: {e}", self.label)),
                }
            }
            other => Some(format!("{}: attack query answered {other:?}", self.label)),
        };
        let validated_s = secs_since(t1);
        let counters = ledger_counters(&report.stats.phase_metrics());
        tally.record(why.or_else(|| ledger.check(&format!("{}.attack", self.label), &counters)));

        let reps = &mut self.reps[usize::from(traced)];
        reps.unsat_s.push(unsat_s);
        reps.validated_s.push(validated_s);
        if traced {
            let spans = self.profiler.take();
            let mut metrics = PhaseMetrics::default();
            metrics.merge(&blocked.stats.phase_metrics());
            metrics.merge(&report.stats.phase_metrics());
            let mut layers = smt_layers(&spans, &metrics);
            layers.push(("attack.encode_ms", span_sum(&spans, "encode").ms()));
            layers.push(("estimator.replay_ms", replay_s * 1e3));
            reps.layers.push(layers);
        }
    }

    /// Medians over the untraced or traced steps so far.
    pub fn finish(&self, traced: bool) -> Pass {
        let reps = &self.reps[usize::from(traced)];
        Pass {
            e2e: vec![
                ("unsat_verdict_s", median(&reps.unsat_s)),
                ("validated_attack_s", median(&reps.validated_s)),
            ],
            layers: median_layers(&reps.layers),
        }
    }
}
