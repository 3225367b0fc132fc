//! The assessment unit: `ThreatAnalyzer::assess()` on the paper's exact
//! IEEE 14-bus system, where the analytics layer's binary search
//! dominates and each probe pays a fresh short check. Every per-state
//! minimum must equal the checked-in table in `expected/assess14.tsv`,
//! and every witness must replay stealthily.

use crate::measure::{median, quantile, secs_since, Ledger, Pass, SplitMix64, Tally};
use sta_core::analytics::{StateThreat, ThreatAnalyzer};
use sta_core::validation;
use sta_grid::{ieee14, BusId, TestSystem};
use std::hint::black_box;
use std::time::Instant;

const EXPECTED: &str = include_str!("../expected/assess14.tsv");

/// Expected `(min_measurements, min_buses)` per bus, index = bus − 1.
fn expected_table() -> Vec<(Option<usize>, Option<usize>)> {
    let cell = |s: &str| s.parse::<usize>().ok();
    EXPECTED
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let cols: Vec<&str> = l.split_whitespace().collect();
            (cell(cols[1]), cell(cols[2]))
        })
        .collect()
}

pub struct AssessUnit {
    sys: TestSystem,
    expected: Vec<(Option<usize>, Option<usize>)>,
    /// Non-reference buses in a seeded order, for the traced per-state
    /// probes.
    order: Vec<BusId>,
    /// Whole-assessment times of untraced (`[0]`) and traced (`[1]`)
    /// steps.
    assessment_s: [Vec<f64>; 2],
    /// Per-state call times (ms) of traced steps, in `order`.
    per_state: Vec<Vec<f64>>,
}

impl AssessUnit {
    /// The paper's 14-bus system; `seed` orders the traced per-state
    /// probes. Returns the unit and the wall time of building the case
    /// and an analyzer (its verifier's operating point).
    pub fn build(seed: u64) -> (Self, f64) {
        let t0 = Instant::now();
        let sys = black_box(ieee14::system());
        black_box(ThreatAnalyzer::new(&sys));
        let setup_s = secs_since(t0);
        let mut order: Vec<BusId> = (0..14)
            .map(BusId)
            .filter(|&b| b != sys.reference_bus)
            .collect();
        SplitMix64::new(seed).shuffle(&mut order);
        let per_state = vec![Vec::new(); order.len()];
        let unit = AssessUnit {
            sys,
            expected: expected_table(),
            order,
            assessment_s: Default::default(),
            per_state,
        };
        (unit, setup_s)
    }

    /// Checks one state's minima against the table and replays its
    /// witness.
    fn check_state(&self, s: &StateThreat) -> Option<String> {
        let bus = s.bus.0 + 1;
        let want = self.expected.get(s.bus.0).copied().unwrap_or((None, None));
        if (s.min_measurements, s.min_buses) != want {
            return Some(format!(
                "assess-14: bus {bus} minima {:?}/{:?}, expected {:?}/{:?}",
                s.min_measurements, s.min_buses, want.0, want.1
            ));
        }
        let witness = s.example.as_ref()?;
        match validation::replay_default(&self.sys, witness) {
            Ok(r) if r.is_stealthy(1e-6) => None,
            Ok(r) => Some(format!(
                "assess-14: bus {bus} witness detected on replay ({r})"
            )),
            Err(e) => Some(format!("assess-14: bus {bus} witness replay failed: {e}")),
        }
    }

    /// Untraced: one whole `assess()` call. Traced: one timed
    /// `assess_state` call per state in the seeded order, with the sweep's
    /// total as the assessment time. Every step checks its minima and
    /// witnesses.
    pub fn step(&mut self, traced: bool, tally: &mut Tally, ledger: &mut Ledger) {
        let analyzer = ThreatAnalyzer::new(&self.sys);
        let t0 = Instant::now();
        let states: Vec<StateThreat> = if traced {
            let mut states = Vec::with_capacity(self.order.len());
            for (i, &bus) in self.order.iter().enumerate() {
                let t = Instant::now();
                states.push(black_box(analyzer.assess_state(bus)));
                self.per_state[i].push(secs_since(t) * 1e3);
            }
            states
        } else {
            black_box(analyzer.assess()).states
        };
        self.assessment_s[usize::from(traced)].push(secs_since(t0));
        let mut why = None;
        let mut minima = Vec::new();
        for s in &states {
            why = why.or_else(|| self.check_state(s));
            let bus = s.bus.0 + 1;
            minima.push((
                format!("bus{bus}.min_measurements"),
                s.min_measurements.unwrap_or(0) as u64,
            ));
            minima.push((
                format!("bus{bus}.min_buses"),
                s.min_buses.unwrap_or(0) as u64,
            ));
        }
        tally.record(why.or_else(|| ledger.check("assess-14.minima", &minima)));
    }

    /// Medians over the untraced or traced steps so far.
    pub fn finish(&self, traced: bool) -> Pass {
        let layers = if traced {
            let medians: Vec<f64> = self.per_state.iter().map(|v| median(v)).collect();
            vec![
                ("analytics.state_p50_ms", median(&medians)),
                (
                    "analytics.state_max_ms",
                    quantile(&medians, 1.0).unwrap_or(0.0),
                ),
            ]
        } else {
            Vec::new()
        };
        Pass {
            e2e: vec![(
                "assessment_s",
                median(&self.assessment_s[usize::from(traced)]),
            )],
            layers,
        }
    }
}
