//! # verdict — verified self-driving infrastructure
//!
//! `verdict` is a symbolic model-checking framework for *dynamic service
//! infrastructure control*: the schedulers, load balancers, autoscalers,
//! deschedulers, rollout controllers and traffic engineering loops that
//! run modern "self-driving" infrastructure. It is a complete
//! from-scratch Rust reproduction of the HotNets '20 paper *Towards
//! Verified Self-Driving Infrastructure* (Liu, Kheradmand, Caesar,
//! Godfrey), including the solvers the paper outsourced to NuXMV.
//!
//! Model control components and their environment as a **parametric
//! transition system** ([`ts`]), state safety and liveness properties in
//! **LTL/CTL**, and let the engines ([`mc`]) verify, falsify with
//! counterexample traces (finite or lasso-shaped), or **synthesize safe
//! configuration parameters**:
//!
//! ```
//! use verdict::prelude::*;
//!
//! // A rollout controller on the paper's 5-node "test" topology.
//! let model = RolloutModel::build(&RolloutSpec::paper(Topology::test_topology())).expect("valid topology");
//! // The paper's Fig. 5 setting: p = m = 1, k = 2 — violated.
//! let system = model.pinned(1, 2, 1);
//! let verifier = Verifier::new(&system).options(CheckOptions::with_depth(8));
//! let report = verifier.check(&CompiledProperty::Invariant(model.property.clone())).unwrap();
//! assert!(report.result.violated());
//! println!("{}", report.result); // the counterexample of Fig. 5
//! ```
//!
//! The workspace layers, bottom-up:
//!
//! | crate | contents |
//! |---|---|
//! | [`logic`] | exact rationals, formulas, CNF/Tseitin |
//! | [`sat`] | CDCL SAT solver |
//! | [`bdd`] | hash-consed ROBDDs |
//! | [`smt`] | lazy DPLL(T) with simplex (QF_LRA) |
//! | [`ts`] | the transition-system IR, encoders, traces |
//! | [`mc`] | BMC, k-induction, BDD fixpoints, SMT-BMC, parameter synthesis |
//! | [`models`] | the controller/environment model library |
//! | [`dsl`] | the `.vd` modeling language |
//! | [`ksim`] | a deterministic Kubernetes-cluster simulator |
//! | [`incidents`] | the Table 1 incident study |

/// Exact rationals, propositional formulas, CNF (re-export of
/// `verdict-logic`).
pub use verdict_logic as logic;

/// CDCL SAT solver (re-export of `verdict-sat`).
pub use verdict_sat as sat;

/// Binary decision diagrams (re-export of `verdict-bdd`).
pub use verdict_bdd as bdd;

/// SMT solving for linear real arithmetic (re-export of `verdict-smt`).
pub use verdict_smt as smt;

/// Transition-system IR (re-export of `verdict-ts`).
pub use verdict_ts as ts;

/// Model-checking engines (re-export of `verdict-mc`).
pub use verdict_mc as mc;

/// Controller and environment models (re-export of `verdict-models`).
pub use verdict_models as models;

/// The `.vd` modeling language (re-export of `verdict-dsl`).
pub use verdict_dsl as dsl;

/// Kubernetes cluster simulator (re-export of `verdict-ksim`).
pub use verdict_ksim as ksim;

/// The incident study (re-export of `verdict-incidents`).
pub use verdict_incidents as incidents;

/// The items most programs need.
pub mod prelude {
    pub use verdict_dsl::CompiledProperty;
    pub use verdict_logic::Rational;
    pub use verdict_mc::params::Property;
    pub use verdict_mc::{
        engine, CheckOptions, CheckResult, Engine, EngineKind, Stats, UnknownReason, Verifier,
    };
    pub use verdict_models::lb_ecmp::{LbModel, LbSpec};
    pub use verdict_models::{RolloutModel, RolloutSpec, Topology};
    pub use verdict_ts::{Ctl, Expr, Ltl, Sort, System, Trace, Value, VarKind};
}
