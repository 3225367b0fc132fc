//! # sta — Security Threat Analytics for Power System State Estimation
//!
//! A from-scratch Rust reproduction of *"Security Threat Analytics and
//! Countermeasure Synthesis for Power System State Estimation"* (Rahman,
//! Al-Shaer, Kavasseri — DSN 2014): a formal framework that encodes
//! undetected false-data-injection (UFDI) attacks against DC state
//! estimation — including topology poisoning — as SMT constraint problems,
//! and synthesizes budget-constrained security architectures that resist
//! them.
//!
//! This umbrella crate re-exports the whole stack:
//!
//! | Layer | Crate | What it provides |
//! |---|---|---|
//! | [`smt`] | `sta-smt` | CDCL(T) SMT solver for QF_LRA, exact rationals, cardinality |
//! | [`linalg`] | `sta-linalg` | Dense matrices, LU, Cholesky |
//! | [`grid`] | `sta-grid` | Grid model, topology processor, measurements, IEEE cases |
//! | [`estimator`] | `sta-estimator` | DC power flow, WLS estimation, bad-data detection |
//! | [`core`] | `sta-core` | UFDI attack verification, synthesis, baselines, validation |
//! | [`campaign`] | `sta-campaign` | Parallel campaign engine: sweeps, deadlines, deterministic reports |
//! | [`serve`] | `sta-serve` | Persistent JSONL service: warm session cache, admission control, drain |
//! | [`analysis`] | `sta-analysis` | In-tree invariant analyzer backing `sta lint` and `tests/lint.rs` |
//!
//! # Quickstart
//!
//! ```
//! use sta::core::attack::{AttackModel, AttackVerifier, StateTarget};
//! use sta::grid::{ieee14, BusId};
//!
//! // Can an attacker corrupt the estimate of bus 12's angle without
//! // touching any other state, and stay invisible to bad-data detection?
//! let sys = ieee14::system_unsecured();
//! let verifier = AttackVerifier::new(&sys);
//! let mut model = AttackModel::new(14).target(BusId(11), StateTarget::MustChange);
//! for j in 0..14 {
//!     if j != 11 {
//!         model = model.target(BusId(j), StateTarget::MustNotChange);
//!     }
//! }
//! let attack = verifier.verify(&model).expect_feasible();
//! assert_eq!(attack.num_alterations(), 5); // the paper's five meters
//! ```
//!
//! See the `examples/` directory for runnable end-to-end scenarios and
//! [`campaign::paper`] (the `sta reproduce` subcommand) for the
//! regenerators of every figure and table of the paper's evaluation.

pub use sta_analysis as analysis;
pub use sta_campaign as campaign;
pub use sta_core as core;
pub use sta_estimator as estimator;
pub use sta_grid as grid;
pub use sta_linalg as linalg;
pub use sta_serve as serve;
pub use sta_smt as smt;
