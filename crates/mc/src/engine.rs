//! The unified engine API: one [`Engine`] trait implemented by all six
//! engines, dispatched through the [`engine`] registry.
//!
//! Historically each engine grew a parallel family of free functions
//! (`bmc::check_invariant`, `bdd::check_ctl`, …). Those could not each
//! grow an observability channel, so the trait is the single seam now:
//! every check takes a `&mut` [`Stats`] sink, and the portfolio,
//! synthesis, durable, and retry layers all dispatch through it.
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
//! let r = engine(EngineKind::KInduction)
//!     .check_invariant(&sys, &Expr::var(n).le(Expr::int(7)), &CheckOptions::default(), &mut stats)
//!     .unwrap();
//! assert!(r.holds());
//! assert!(stats.sat.decisions > 0);
//! ```

use verdict_dsl::CompiledProperty;
use verdict_journal::fault;
use verdict_ts::{Ctl, Expr, Ltl, System};

use crate::result::{CheckOptions, CheckResult, McError};
use crate::stats::Stats;

/// Engine selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Choose automatically: SMT-BMC for real-sorted systems; otherwise
    /// k-induction for invariants (falsify + prove) and BDD for LTL/CTL.
    #[default]
    Auto,
    /// SAT bounded model checking (falsification only).
    Bmc,
    /// k-induction (invariants; proves and falsifies).
    KInduction,
    /// BDD fixpoint engine (complete on finite systems).
    Bdd,
    /// Explicit-state reference engine (tiny finite systems).
    Explicit,
    /// SMT bounded model checking (real-valued systems; falsification).
    SmtBmc,
    /// Race a falsifier against the provers in parallel threads and keep
    /// the first definitive verdict (see [`crate::portfolio`]).
    Portfolio,
}

impl EngineKind {
    /// Stable lowercase tag used in CLI flags, JSON output, and stats.
    pub fn tag(self) -> &'static str {
        match self {
            EngineKind::Auto => "auto",
            EngineKind::Bmc => "bmc",
            EngineKind::KInduction => "k-induction",
            EngineKind::Bdd => "bdd",
            EngineKind::Explicit => "explicit",
            EngineKind::SmtBmc => "smt-bmc",
            EngineKind::Portfolio => "portfolio",
        }
    }

    /// Parses an engine tag. Accepts both the canonical [`tag`] spelling
    /// and the historical CLI/wire aliases (`kind`, `smtbmc`), so every
    /// surface — CLI flags, job specs on the wire, WAL records — parses
    /// through this one function.
    ///
    /// [`tag`]: EngineKind::tag
    pub fn from_tag(s: &str) -> Option<EngineKind> {
        match s {
            "auto" => Some(EngineKind::Auto),
            "bmc" => Some(EngineKind::Bmc),
            "kind" | "k-induction" => Some(EngineKind::KInduction),
            "bdd" => Some(EngineKind::Bdd),
            "explicit" => Some(EngineKind::Explicit),
            "smtbmc" | "smt-bmc" => Some(EngineKind::SmtBmc),
            "portfolio" => Some(EngineKind::Portfolio),
            _ => None,
        }
    }

    /// The engine a check on `sys` actually runs: `Auto` resolved against
    /// the system's sorts ([`resolve_auto`]), any other kind as itself.
    pub fn resolve(self, sys: &System) -> EngineKind {
        match self {
            EngineKind::Auto => resolve_auto(sys),
            kind => kind,
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// A model-checking engine. All six engines implement this; obtain one
/// from the [`engine`] registry and dispatch through it.
///
/// Engines are stateless (all run state lives per call), so the trait
/// objects are `'static` zero-sized singletons. Checks record their
/// counters, per-depth timings, and phase spans into `stats`; the sink is
/// written even when the verdict is `Unknown` or the call errors early.
///
/// Panic containment is the *caller's* job (the [`crate::Verifier`]
/// façade, portfolio workers, and synthesis workers all catch unwinds);
/// the raw trait methods propagate engine panics.
pub trait Engine: Sync {
    /// Which engine this is.
    fn kind(&self) -> EngineKind;

    /// Checks a property as the DSL compiles it: an invariant `G p`, an
    /// LTL formula, or a CTL formula (complete engines only; bounded
    /// engines return an error).
    fn check(
        &self,
        sys: &System,
        property: &CompiledProperty,
        opts: &CheckOptions,
        stats: &mut Stats,
    ) -> Result<CheckResult, McError>;

    /// Checks the safety property `G p`.
    fn check_invariant(
        &self,
        sys: &System,
        p: &Expr,
        opts: &CheckOptions,
        stats: &mut Stats,
    ) -> Result<CheckResult, McError> {
        self.check(sys, &CompiledProperty::Invariant(p.clone()), opts, stats)
    }

    /// Checks an LTL property.
    fn check_ltl(
        &self,
        sys: &System,
        phi: &Ltl,
        opts: &CheckOptions,
        stats: &mut Stats,
    ) -> Result<CheckResult, McError> {
        self.check(sys, &CompiledProperty::Ltl(phi.clone()), opts, stats)
    }

    /// Checks a CTL property (complete engines only).
    fn check_ctl(
        &self,
        sys: &System,
        phi: &Ctl,
        opts: &CheckOptions,
        stats: &mut Stats,
    ) -> Result<CheckResult, McError> {
        self.check(sys, &CompiledProperty::Ctl(phi.clone()), opts, stats)
    }
}

/// Labels `stats` with the engine, runs `f`, and charges any
/// fault-injection probes that fired during the run to the sink.
fn instrumented<R>(kind: EngineKind, stats: &mut Stats, f: impl FnOnce(&mut Stats) -> R) -> R {
    if stats.engine.is_none() {
        stats.engine = Some(kind);
    }
    let fired_before = fault::fired_count();
    let r = f(stats);
    stats.faults_injected += fault::fired_count() - fired_before;
    r
}

/// What the bounded engines answer to a CTL property.
fn ctl_needs_complete_engine() -> Result<CheckResult, McError> {
    Err(McError(
        "CTL requires a complete engine (BDD or explicit)".to_string(),
    ))
}

struct BmcEngine;

impl Engine for BmcEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Bmc
    }

    fn check(
        &self,
        sys: &System,
        property: &CompiledProperty,
        opts: &CheckOptions,
        stats: &mut Stats,
    ) -> Result<CheckResult, McError> {
        match property {
            CompiledProperty::Invariant(p) => instrumented(EngineKind::Bmc, stats, |s| {
                crate::bmc::run_invariant(sys, p, opts, s)
            }),
            CompiledProperty::Ltl(phi) => instrumented(EngineKind::Bmc, stats, |s| {
                crate::bmc::run_ltl(sys, phi, opts, s)
            }),
            CompiledProperty::Ctl(_) => ctl_needs_complete_engine(),
        }
    }
}

struct KInductionEngine;

impl Engine for KInductionEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::KInduction
    }

    fn check(
        &self,
        sys: &System,
        property: &CompiledProperty,
        opts: &CheckOptions,
        stats: &mut Stats,
    ) -> Result<CheckResult, McError> {
        match property {
            CompiledProperty::Invariant(p) => instrumented(EngineKind::KInduction, stats, |s| {
                crate::kind::run_invariant(sys, p, opts, s)
            }),
            // k-induction handles neither liveness nor branching time;
            // fall back to the complete finite engine (matches the
            // historical Verifier behavior).
            _ => BddEngine.check(sys, property, opts, stats),
        }
    }
}

struct BddEngine;

impl Engine for BddEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Bdd
    }

    fn check(
        &self,
        sys: &System,
        property: &CompiledProperty,
        opts: &CheckOptions,
        stats: &mut Stats,
    ) -> Result<CheckResult, McError> {
        instrumented(EngineKind::Bdd, stats, |s| match property {
            CompiledProperty::Invariant(p) => crate::bdd::run_invariant(sys, p, opts, s),
            CompiledProperty::Ltl(phi) => crate::bdd::run_ltl(sys, phi, opts, s),
            CompiledProperty::Ctl(phi) => crate::bdd::run_ctl(sys, phi, opts, s),
        })
    }
}

struct ExplicitEngine;

impl Engine for ExplicitEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Explicit
    }

    fn check(
        &self,
        sys: &System,
        property: &CompiledProperty,
        opts: &CheckOptions,
        stats: &mut Stats,
    ) -> Result<CheckResult, McError> {
        instrumented(EngineKind::Explicit, stats, |s| match property {
            CompiledProperty::Invariant(p) => {
                crate::explicit_engine::run_invariant(sys, p, opts, s)
            }
            CompiledProperty::Ltl(phi) => crate::explicit_engine::run_ltl(sys, phi, opts, s),
            CompiledProperty::Ctl(phi) => crate::explicit_engine::run_ctl(sys, phi, opts, s),
        })
    }
}

struct SmtBmcEngine;

impl Engine for SmtBmcEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::SmtBmc
    }

    fn check(
        &self,
        sys: &System,
        property: &CompiledProperty,
        opts: &CheckOptions,
        stats: &mut Stats,
    ) -> Result<CheckResult, McError> {
        match property {
            CompiledProperty::Invariant(p) => instrumented(EngineKind::SmtBmc, stats, |s| {
                crate::smtbmc::run_invariant(sys, p, opts, s)
            }),
            CompiledProperty::Ltl(phi) => instrumented(EngineKind::SmtBmc, stats, |s| {
                crate::smtbmc::run_ltl(sys, phi, opts, s)
            }),
            CompiledProperty::Ctl(_) => ctl_needs_complete_engine(),
        }
    }
}

struct PortfolioEngine;

impl Engine for PortfolioEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Portfolio
    }

    fn check(
        &self,
        sys: &System,
        property: &CompiledProperty,
        opts: &CheckOptions,
        stats: &mut Stats,
    ) -> Result<CheckResult, McError> {
        instrumented(EngineKind::Portfolio, stats, |s| {
            crate::portfolio::run(sys, property, opts, s).map(|r| r.result)
        })
    }
}

struct AutoEngine;

/// The engine `Auto` resolves to for `sys` (reported in CLI/JSON output):
/// SMT-BMC for real-sorted systems, k-induction otherwise.
pub fn resolve_auto(sys: &System) -> EngineKind {
    if sys.has_real_vars() {
        EngineKind::SmtBmc
    } else {
        EngineKind::KInduction
    }
}

impl Engine for AutoEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Auto
    }

    fn check(
        &self,
        sys: &System,
        property: &CompiledProperty,
        opts: &CheckOptions,
        stats: &mut Stats,
    ) -> Result<CheckResult, McError> {
        engine(resolve_auto(sys)).check(sys, property, opts, stats)
    }
}

/// The engine registry: the singleton [`Engine`] implementation for a
/// given [`EngineKind`]. This is the only place the per-engine entry
/// points are wired up; everything else dispatches through the trait.
pub fn engine(kind: EngineKind) -> &'static dyn Engine {
    match kind {
        EngineKind::Auto => &AutoEngine,
        EngineKind::Bmc => &BmcEngine,
        EngineKind::KInduction => &KInductionEngine,
        EngineKind::Bdd => &BddEngine,
        EngineKind::Explicit => &ExplicitEngine,
        EngineKind::SmtBmc => &SmtBmcEngine,
        EngineKind::Portfolio => &PortfolioEngine,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_kinds_line_up() {
        for kind in [
            EngineKind::Auto,
            EngineKind::Bmc,
            EngineKind::KInduction,
            EngineKind::Bdd,
            EngineKind::Explicit,
            EngineKind::SmtBmc,
            EngineKind::Portfolio,
        ] {
            assert_eq!(engine(kind).kind(), kind);
        }
    }

    #[test]
    fn from_tag_round_trips_and_accepts_aliases() {
        for kind in [
            EngineKind::Auto,
            EngineKind::Bmc,
            EngineKind::KInduction,
            EngineKind::Bdd,
            EngineKind::Explicit,
            EngineKind::SmtBmc,
            EngineKind::Portfolio,
        ] {
            assert_eq!(EngineKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(EngineKind::from_tag("kind"), Some(EngineKind::KInduction));
        assert_eq!(EngineKind::from_tag("smtbmc"), Some(EngineKind::SmtBmc));
        assert_eq!(EngineKind::from_tag("nuxmv"), None);
    }

    #[test]
    fn bounded_engines_reject_ctl() {
        let sys = System::new("empty");
        let phi = Ctl::atom(Expr::bool(true));
        let mut stats = Stats::default();
        for kind in [EngineKind::Bmc, EngineKind::SmtBmc] {
            assert!(engine(kind)
                .check_ctl(&sys, &phi, &CheckOptions::default(), &mut stats)
                .is_err());
        }
    }
}
