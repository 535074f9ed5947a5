//! The [`Verifier`] façade — the paper's Fig. 4 workflow as an API.
//!
//! Inputs: a control-component/environment model (a `verdict-ts`
//! [`System`]), a property (invariant, LTL, or CTL), optional parameter
//! constraints. Outputs: verification results, counterexamples, or
//! suggested safe parameters.
//!
//! ```
//! use verdict_dsl::CompiledProperty;
//! use verdict_mc::{EngineKind, Verifier};
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
//! let verifier = Verifier::new(&sys);
//! let ok = verifier.check(&CompiledProperty::Invariant(Expr::var(n).le(Expr::int(7)))).unwrap();
//! assert!(ok.result.holds());
//! let bad = verifier.check(&CompiledProperty::Invariant(Expr::var(n).lt(Expr::int(7)))).unwrap();
//! assert!(bad.result.violated());
//! ```

use std::time::Instant;

use verdict_dsl::CompiledProperty;
use verdict_ts::{System, VarId};

use crate::durable::Durability;
use crate::engine::{engine, EngineKind};
use crate::params::{self, Property, SynthesisResult};
use crate::portfolio::{self, CheckReport};
use crate::result::{CheckOptions, CheckResult, McError, UnknownReason};
use crate::stats::Stats;

/// Runs a solo engine with panic containment: an engine crash becomes
/// `Unknown(EngineFailure)` instead of unwinding into the caller, so a
/// CLI run survives a dying solver the same way portfolio contenders and
/// synthesis workers do.
fn contained(
    engine: EngineKind,
    f: impl FnOnce() -> Result<CheckResult, McError>,
) -> Result<CheckResult, McError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = portfolio::panic_message(payload.as_ref());
        eprintln!("verdict-mc: {engine} engine panicked: {msg}");
        Ok(CheckResult::Unknown(UnknownReason::EngineFailure))
    })
}

/// The verification façade. Borrowing the system keeps the API cheap to
/// use in parameter sweeps; all state lives in the engines per call.
pub struct Verifier<'s> {
    sys: &'s System,
    engine: EngineKind,
    opts: CheckOptions,
}

impl<'s> Verifier<'s> {
    /// A verifier with default options and automatic engine choice.
    pub fn new(sys: &'s System) -> Verifier<'s> {
        Verifier {
            sys,
            engine: EngineKind::Auto,
            opts: CheckOptions::default(),
        }
    }

    /// Selects a specific engine.
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Sets resource options.
    pub fn options(mut self, opts: CheckOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Checks an invariant, LTL or CTL property (CTL on finite engines
    /// only). `Auto` resolves against the system's sorts; the portfolio
    /// races its contenders and reports the winner, while every other
    /// engine runs solo, panic-contained, and reports itself as the
    /// winner with its own stats.
    pub fn check(&self, property: &CompiledProperty) -> Result<CheckReport, McError> {
        let kind = self.engine.resolve(self.sys);
        if kind == EngineKind::Portfolio {
            return portfolio::run(self.sys, property, &self.opts, &mut Stats::default());
        }
        let start = Instant::now();
        let mut stats = Stats::for_engine(kind).with_trace(self.opts.trace.clone());
        let result = contained(kind, || {
            engine(kind).check(self.sys, property, &self.opts, &mut stats)
        })?;
        Ok(CheckReport {
            winner: kind,
            wall: start.elapsed(),
            outcomes: vec![(kind, result.clone())],
            contender_stats: vec![(kind, stats.clone())],
            stats,
            result,
        })
    }

    /// Synthesizes safe values for the given frozen parameters (paper
    /// case study 1's `p ∈ {1, 2}` workflow): every assignment is
    /// checked, none journaled.
    pub fn synthesize_params(
        &self,
        params: &[VarId],
        property: &Property,
    ) -> Result<SynthesisResult, McError> {
        params::synthesize(
            self.sys,
            params,
            property,
            params::synthesis_engine(self.engine, self.sys, property),
            &self.opts,
            false,
            &Durability::none(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verdict_ts::{Ctl, Expr, Value};

    fn counter() -> (System, VarId) {
        let mut sys = System::new("counter");
        let n = sys.int_var("n", 0, 7);
        sys.add_init(Expr::var(n).eq(Expr::int(0)));
        sys.add_trans(Expr::next(n).eq(Expr::ite(
            Expr::var(n).lt(Expr::int(7)),
            Expr::var(n).add(Expr::int(1)),
            Expr::var(n),
        )));
        (sys, n)
    }

    fn inv(p: Expr) -> CompiledProperty {
        CompiledProperty::Invariant(p)
    }

    #[test]
    fn auto_engine_proves_and_falsifies() {
        let (sys, n) = counter();
        let v = Verifier::new(&sys);
        assert!(v
            .check(&inv(Expr::var(n).le(Expr::int(7))))
            .unwrap()
            .result
            .holds());
        assert!(v
            .check(&inv(Expr::var(n).lt(Expr::int(5))))
            .unwrap()
            .result
            .violated());
    }

    #[test]
    fn engine_selection_respected() {
        let (sys, n) = counter();
        let bmc = Verifier::new(&sys).engine(EngineKind::Bmc);
        // BMC can only falsify; a holding invariant gives Unknown.
        let r = bmc
            .options(CheckOptions::with_depth(10))
            .check(&inv(Expr::var(n).le(Expr::int(7))))
            .unwrap();
        assert!(matches!(r.result, CheckResult::Unknown(_)));
        assert_eq!(r.winner, EngineKind::Bmc);
    }

    #[test]
    fn auto_routes_real_systems_to_smt() {
        let mut sys = System::new("real");
        let x = sys.real_var("x");
        sys.add_init(Expr::var(x).eq(Expr::real(verdict_logic::Rational::ZERO)));
        sys.add_trans(Expr::next(x).eq(Expr::var(x).add(Expr::real(verdict_logic::Rational::ONE))));
        let v = Verifier::new(&sys).options(CheckOptions::with_depth(6));
        let r = v
            .check(&inv(
                Expr::var(x).lt(Expr::real(verdict_logic::Rational::integer(3)))
            ))
            .unwrap();
        assert!(r.result.violated(), "{}", r.result);
        assert_eq!(r.winner, EngineKind::SmtBmc);
    }

    #[test]
    fn ctl_requires_complete_engine() {
        let (sys, n) = counter();
        let ef7 = CompiledProperty::Ctl(Ctl::atom(Expr::var(n).eq(Expr::int(7))).ef());
        let v = Verifier::new(&sys).engine(EngineKind::Bmc);
        assert!(v.check(&ef7).is_err());
        let v = Verifier::new(&sys);
        assert!(v.check(&ef7).unwrap().result.holds());
    }

    #[test]
    fn check_reports_solo_counters() {
        let (sys, n) = counter();
        let report = Verifier::new(&sys)
            .check(&inv(Expr::var(n).le(Expr::int(7))))
            .unwrap();
        assert!(report.result.holds());
        assert_eq!(report.winner, EngineKind::KInduction);
        assert_eq!(report.stats.engine, Some(report.winner));
        assert!(!report.stats.counters_are_zero());
        assert!(!report.stats.depths.is_empty());
    }

    #[test]
    fn synthesis_through_facade() {
        let mut sys = System::new("step");
        let n = sys.int_var("n", 0, 10);
        let p = sys.int_param("p", 1, 3);
        sys.add_init(Expr::var(n).eq(Expr::int(0)));
        sys.add_trans(Expr::next(n).eq(Expr::ite(
            Expr::var(n).le(Expr::int(7)),
            Expr::var(n).add(Expr::var(p)),
            Expr::var(n),
        )));
        let v = Verifier::new(&sys);
        let prop = Property::Invariant(Expr::var(n).ne(Expr::int(5)));
        let r = v.synthesize_params(&[p], &prop).unwrap();
        assert_eq!(r.safe().len(), 2);
        let viol = params::find_violating_params(&sys, &prop, &CheckOptions::default()).unwrap();
        assert_eq!(viol.trace().unwrap().value(0, "p"), Some(&Value::Int(1)));
    }
}
