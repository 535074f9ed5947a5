//! Symbolic model-checking engines for infrastructure control models.
//!
//! This crate is the reproduction of the paper's §4 proof of concept: it
//! takes a parametric transition system (`verdict-ts`), a safety or
//! liveness property (LTL or CTL), and answers with a verdict — `Holds`,
//! `Violated` with a concrete counterexample trace (finite for safety,
//! lasso-shaped for liveness), or `Unknown` when a resource limit is hit —
//! and can synthesize safe configuration-parameter values.
//!
//! Engines:
//!
//! * [`bmc`] — SAT-based bounded model checking: invariant falsification
//!   by unrolling, and full LTL falsification by fair-lasso search on the
//!   tableau product.
//! * [`kind`] — k-induction with simple-path strengthening: *proves*
//!   invariants on finite systems.
//! * [`bdd`] — BDD fixpoint engine: forward reachability for invariants,
//!   full CTL (with fairness), and LTL via tableau + Emerson–Lei fair-cycle
//!   detection. Complete for finite systems.
//! * [`smtbmc`] — SMT-based BMC for systems with real-valued variables and
//!   parameters (case study 2): safety and lasso liveness over QF_LRA.
//! * [`explicit_engine`] — explicit-state reference engine (BFS safety,
//!   SCC-based fair-cycle liveness); exponential, used as the differential
//!   oracle in tests and fine for tiny models.
//! * [`tableau`] — the LTL → symbolic-tableau translation shared by the
//!   BMC, BDD, and SMT engines.
//! * [`blast`] — §5's risk-assessment extension: the worst reachable
//!   value of a metric after an operational event ("blast radius"),
//!   found by binary search over bounded reachability queries.
//! * [`params`] — parameter synthesis: enumerate assignments of the frozen
//!   variables and classify each as safe/unsafe (paper: "suggest safe
//!   configuration parameters", e.g. p ∈ {1, 2} in case study 1). The
//!   assignment sweep shards over a worker pool (`CheckOptions::jobs`).
//! * [`incremental`] — assumption-pinned k-induction for the synthesis
//!   sweep: one shared unrolling and one solver pair per worker survive
//!   the whole sweep (learned clauses and heuristic state transfer), with
//!   unsat-core pruning of parameters that don't participate in a proof.
//! * [`portfolio`] — engine racing: run a falsifier (BMC) and the provers
//!   (k-induction, BDD) in parallel threads on the same system, keep the
//!   first definitive verdict, and cancel the losers via a shared stop
//!   flag ([`result::Budget`]).
//! * [`certify`] — verdict certification ([`CheckOptions::certify`]):
//!   counterexample traces replayed through the independent reference
//!   interpreter, k-induction and BDD proofs re-checked by fresh
//!   proof-logged SAT queries; failures demote the verdict to
//!   [`UnknownReason::CertificateRejected`].
//! * [`verifier`] — the [`Verifier`] façade implementing the Fig. 4
//!   workflow: model + property + constraints in, verdict + trace or
//!   suggested parameters out.
//! * [`engine`](mod@engine) — the unified [`Engine`] trait implemented by every
//!   engine above, plus the [`engine()`](engine::engine) registry that the
//!   façade, portfolio, and synthesis layers dispatch through.
//! * [`stats`] — the structured observability sink ([`Stats`]): SAT /
//!   simplex / BDD counters, per-depth timings, phase spans, and an
//!   optional JSONL trace ([`stats::TraceSink`]).
//!
//! Most programs only need the [`prelude`]:
//!
//! ```
//! use verdict_mc::prelude::*;
//! use verdict_ts::{Expr, System};
//!
//! let mut sys = System::new("counter");
//! let n = sys.int_var("n", 0, 7);
//! sys.add_init(Expr::var(n).eq(Expr::int(0)));
//! sys.add_trans(Expr::next(n).eq(Expr::ite(
//!     Expr::var(n).lt(Expr::int(7)),
//!     Expr::var(n).add(Expr::int(1)),
//!     Expr::var(n),
//! )));
//! let mut stats = Stats::default();
//! let verdict = engine(EngineKind::KInduction)
//!     .check_invariant(&sys, &Expr::var(n).le(Expr::int(7)),
//!                      &CheckOptions::default(), &mut stats)
//!     .unwrap();
//! assert!(verdict.holds());
//! assert!(stats.sat.decisions > 0);
//! ```

pub mod bdd;
pub mod blast;
pub mod bmc;
pub mod certify;
pub mod durable;
pub mod engine;
pub mod explicit_engine;
pub mod incremental;
pub mod kind;
pub mod params;
pub mod portfolio;
pub mod result;
pub mod retry;
pub mod smtbmc;
pub mod spec;
pub mod stats;
pub mod tableau;
pub mod verifier;

pub use certify::{CertificateKind, CertificateStatus};
pub use durable::{Durability, ResumeState, SweepRecorder};
pub use engine::{engine, Engine, EngineKind};
pub use portfolio::CheckReport;
pub use result::{
    CheckOptions, CheckOptionsBuilder, CheckResult, McError, Supervision, UnknownReason,
};
pub use retry::RetryPolicy;
pub use spec::{ExecContext, JobKind, JobSpec, SpecError, VerdictRow};
pub use stats::{ServerCounters, Stats, SupervisionCounters, TraceSink, STATS_SCHEMA_VERSION};
pub use verifier::Verifier;

/// One-stop imports for the unified engine API.
///
/// Brings in the [`Engine`] trait, the [`engine()`](engine::engine)
/// registry function, [`EngineKind`], the [`Verifier`] façade with the
/// DSL's [`CompiledProperty`](verdict_dsl::CompiledProperty) it checks,
/// and the types every check touches: [`CheckOptions`], [`CheckResult`],
/// [`CheckReport`], [`Stats`], and [`UnknownReason`].
pub mod prelude {
    pub use crate::engine::{engine, Engine, EngineKind};
    pub use crate::portfolio::CheckReport;
    pub use crate::result::{CheckOptions, CheckResult, UnknownReason};
    pub use crate::stats::Stats;
    pub use crate::verifier::Verifier;
    pub use verdict_dsl::CompiledProperty;
}
