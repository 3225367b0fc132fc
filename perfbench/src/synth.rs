//! The synthesis unit: Algorithm 1 (CEGIS) to a security architecture.
//! On the synthetic 57-bus case with a `T_CZ = round(0.4 × potential
//! measurements)` attacker and budget 19 this is the `cegis-57` workload;
//! the compact form is the 14-bus request the service mix also sends.

use crate::measure::{
    ledger_counters, median, median_layers, secs_since, smt_layers, span_sum, span_sum_within,
    Ledger, Pass, Tally,
};
use sta_core::attack::{AttackModel, AttackOutcome, AttackVerifier, StateTarget};
use sta_core::synthesis::{SecurityArchitecture, SynthesisConfig, SynthesisOutcome, Synthesizer};
use sta_grid::{ieee14, synthetic, BusId, TestSystem};
use sta_smt::Profiler;
use std::hint::black_box;
use std::time::Instant;

pub struct SynthUnit {
    label: &'static str,
    sys: TestSystem,
    attacker: AttackModel,
    budget: usize,
    /// Architectures already shown to block the attacker (by secured-bus
    /// list); synthesis is deterministic, so the check runs once.
    proven: Vec<Vec<BusId>>,
    /// Samples of untraced (`[0]`) and traced (`[1]`) steps.
    reps: [Reps; 2],
}

#[derive(Default)]
struct Reps {
    synthesis_s: Vec<f64>,
    layers: Vec<Vec<(&'static str, f64)>>,
}

impl SynthUnit {
    /// Builds the `cegis-57` problem (`full`) or the compact one: the
    /// unsecured 14-bus system, state 12 must change with at most 8
    /// altered measurements, budget 3. Returns the unit and the wall time
    /// of building the case and a synthesizer (its verifier's operating
    /// point).
    pub fn build(full: bool) -> (Self, f64) {
        let t0 = Instant::now();
        let sys = black_box(if full {
            synthetic::ieee_case(57)
        } else {
            ieee14::system_unsecured()
        });
        black_box(Synthesizer::new(&sys));
        let setup_s = secs_since(t0);
        let unit = if full {
            let t_cz = (0.4 * sys.grid.num_potential_measurements() as f64).round() as usize;
            SynthUnit {
                label: "cegis-57",
                attacker: AttackModel::new(57).max_altered_measurements(t_cz),
                sys,
                budget: 19,
                proven: Vec::new(),
                reps: Default::default(),
            }
        } else {
            SynthUnit {
                label: "cegis-14",
                attacker: AttackModel::new(14)
                    .target(BusId(11), StateTarget::MustChange)
                    .max_altered_measurements(8),
                sys,
                budget: 3,
                proven: Vec::new(),
                reps: Default::default(),
            }
        };
        (unit, setup_s)
    }

    /// Whether a fresh verifier on the architecture's measurement
    /// configuration finds the attacker infeasible (checked once per
    /// distinct architecture, untimed).
    fn blocks(&mut self, synth: &Synthesizer<'_>, arch: &SecurityArchitecture) -> bool {
        if self.proven.contains(&arch.secured_buses) {
            return true;
        }
        let mut hardened = self.sys.clone();
        hardened.measurements = synth.apply(arch);
        let blocked = matches!(
            AttackVerifier::new(&hardened).verify(&self.attacker),
            AttackOutcome::Infeasible
        );
        if blocked {
            self.proven.push(arch.secured_buses.clone());
        }
        blocked
    }

    /// One synthesis. A traced step attaches a span profiler and records
    /// per-layer numbers; every step checks its architecture.
    pub fn step(&mut self, traced: bool, tally: &mut Tally, ledger: &mut Ledger) {
        let profiler = Profiler::new();
        let sys = self.sys.clone();
        let synth = if traced {
            Synthesizer::new(&sys).with_profiler(profiler.clone())
        } else {
            Synthesizer::new(&sys)
        };
        let config = SynthesisConfig::with_budget(self.budget);
        let t0 = Instant::now();
        let (outcome, obs) = black_box(synth.synthesize_with_metrics(&self.attacker, &config));
        let reps = &mut self.reps[usize::from(traced)];
        reps.synthesis_s.push(secs_since(t0));
        if traced {
            let spans = profiler.take();
            let iterations = span_sum(&spans, "iterate").count.max(1) as f64;
            let verify = span_sum_within(&spans, "iterate", "verify");
            let mut layers = smt_layers(&spans, &obs.metrics);
            layers.push((
                "attack.encode_ms",
                span_sum_within(&spans, "verify", "encode").ms(),
            ));
            layers.push(("synthesis.iterations", iterations));
            layers.push(("synthesis.select_ms", span_sum(&spans, "select").ms()));
            layers.push(("synthesis.verify_ms", verify.ms()));
            layers.push((
                "synthesis.verify_per_iteration",
                verify.count as f64 / iterations,
            ));
            reps.layers.push(layers);
        }
        let why = match outcome {
            SynthesisOutcome::Architecture(arch) => {
                if arch.secured_buses.len() > self.budget {
                    Some(format!(
                        "{}: architecture secures {} buses, over budget {}",
                        self.label,
                        arch.secured_buses.len(),
                        self.budget
                    ))
                } else if !self.blocks(&synth, &arch) {
                    Some(format!(
                        "{}: architecture {arch} does not block the attacker",
                        self.label
                    ))
                } else {
                    let mut counters = ledger_counters(&obs.metrics).to_vec();
                    counters.push(("iterations", arch.iterations as u64));
                    ledger.check(self.label, &counters)
                }
            }
            other => Some(format!("{}: synthesis ended {other:?}", self.label)),
        };
        tally.record(why);
    }

    /// Medians over the untraced or traced steps so far.
    pub fn finish(&self, traced: bool) -> Pass {
        let reps = &self.reps[usize::from(traced)];
        Pass {
            e2e: vec![("synthesis_s", median(&reps.synthesis_s))],
            layers: median_layers(&reps.layers),
        }
    }
}
