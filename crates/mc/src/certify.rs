//! Verdict certification: independent re-checking of engine answers.
//!
//! The engines share encoding machinery — bit-blasting, unrolling, tableau
//! products — so an encoding bug can produce a wrong verdict *and* survive
//! cross-engine comparison. With [`crate::CheckOptions::certify`] enabled,
//! every definitive verdict must survive an independent check before it is
//! reported:
//!
//! * `Violated` — the counterexample trace is replayed step by step
//!   through the reference interpreter ([`verdict_ts::replay`]), which
//!   shares nothing with the engines beyond the one-page expression
//!   evaluator. Invariant traces must be legal executions ending in a
//!   violating state; liveness traces must be closed fair lassos whose
//!   infinite word falsifies the LTL formula.
//! * `Holds` from k-induction — the proven depth `k` is re-checked with
//!   fresh unrollers and fresh SAT solvers: the base case
//!   (`INIT ∧ ∨_{i≤k} ¬p@i`) and the strengthened step case
//!   (`p@0..k-1 ∧ simple-path ∧ ¬p@k`) must both come back UNSAT, and
//!   each UNSAT answer must carry a DRUP-style clause proof accepted by
//!   [`verdict_sat::check_proof`].
//! * `Holds` from the BDD engine — the reachable-set BDD is converted
//!   back to a boolean expression `R` over the system variables and
//!   verified inductive by three fresh proof-logged SAT queries:
//!   `INIT ∧ ¬R`, `R ∧ TRANS ∧ ¬R'`, and `R ∧ ¬p` all UNSAT.
//!
//! A failed check demotes the verdict to
//! [`UnknownReason::CertificateRejected`]; the diagnostic (which
//! constraint failed, at which step, or which query was refuted) goes to
//! stderr. A wrong answer is withheld, never reported.

use std::fmt;

use verdict_dsl::CompiledProperty;
use verdict_logic::Formula;
use verdict_sat::{check_proof, Solver};
use verdict_ts::{replay, Expr, Ltl, System, Trace, Unroller};

use crate::engine::EngineKind;
use crate::result::{Budget, CheckResult, UnknownReason};

/// What kind of certificate backed a verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CertificateKind {
    /// Counterexample replayed through the reference interpreter.
    TraceReplay,
    /// k-induction base + step re-proved by fresh proof-logged SAT runs.
    Induction,
    /// BDD reachable set re-checked inductive by fresh SAT queries.
    InductiveInvariant,
}

impl fmt::Display for CertificateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateKind::TraceReplay => write!(f, "counterexample replay"),
            CertificateKind::Induction => write!(f, "k-induction re-check"),
            CertificateKind::InductiveInvariant => {
                write!(f, "inductive-invariant re-check")
            }
        }
    }
}

/// Certification outcome of one finished checking run, for reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CertificateStatus {
    /// Certification was not requested.
    NotRequested,
    /// The verdict passed its independent check.
    Verified(CertificateKind),
    /// A certificate failed validation and the verdict was demoted.
    Rejected,
    /// No certificate format applies (Unknown verdicts, CTL results,
    /// explicit-state or liveness proofs).
    Unsupported,
}

impl fmt::Display for CertificateStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateStatus::NotRequested => write!(f, "not requested"),
            CertificateStatus::Verified(k) => write!(f, "verified ({k})"),
            CertificateStatus::Rejected => write!(f, "rejected"),
            CertificateStatus::Unsupported => write!(f, "unsupported"),
        }
    }
}

/// The certificate status implied by a finished run: which engine
/// produced the verdict, on which property shape, with certification on
/// or off. In certify mode a surviving definitive verdict has already
/// passed its check inside the engine, so this is a pure classification.
pub fn status(
    certify: bool,
    engine: EngineKind,
    property: &CompiledProperty,
    result: &CheckResult,
) -> CertificateStatus {
    if !certify {
        return CertificateStatus::NotRequested;
    }
    let invariant = matches!(property, CompiledProperty::Invariant(_));
    match result {
        CheckResult::Unknown(UnknownReason::CertificateRejected) => CertificateStatus::Rejected,
        CheckResult::Unknown(_) => CertificateStatus::Unsupported,
        // CTL has no counterexample format.
        CheckResult::Violated(_) if matches!(property, CompiledProperty::Ctl(_)) => {
            CertificateStatus::Unsupported
        }
        CheckResult::Violated(_) => CertificateStatus::Verified(CertificateKind::TraceReplay),
        CheckResult::Holds => match engine {
            EngineKind::KInduction if invariant => {
                CertificateStatus::Verified(CertificateKind::Induction)
            }
            EngineKind::Bdd if invariant => {
                CertificateStatus::Verified(CertificateKind::InductiveInvariant)
            }
            _ => CertificateStatus::Unsupported,
        },
    }
}

/// Replays an invariant counterexample through the reference interpreter;
/// `Err` carries a human-readable diagnostic.
pub fn validate_invariant_cex(sys: &System, p: &Expr, trace: &Trace) -> Result<(), String> {
    replay::check_invariant_trace(sys, p, trace).map_err(|e| e.to_string())
}

/// Replays an LTL lasso counterexample through the reference interpreter.
pub fn validate_ltl_cex(sys: &System, phi: &Ltl, trace: &Trace) -> Result<(), String> {
    replay::check_ltl_trace(sys, phi, trace).map_err(|e| e.to_string())
}

/// Engine-side gate for `Violated(G p)`: confirms the trace by replay or
/// withholds the verdict as `Unknown(CertificateRejected)`. Public so
/// tests can feed deliberately corrupted traces through the same path the
/// engines use.
pub fn gate_invariant_cex(sys: &System, p: &Expr, trace: Trace) -> CheckResult {
    match validate_invariant_cex(sys, p, &trace) {
        Ok(()) => CheckResult::Violated(trace),
        Err(e) => reject("counterexample replay", &e),
    }
}

/// Engine-side gate for a violated LTL property (see
/// [`gate_invariant_cex`] for why it is public).
pub fn gate_ltl_cex(sys: &System, phi: &Ltl, trace: Trace) -> CheckResult {
    match validate_ltl_cex(sys, phi, &trace) {
        Ok(()) => CheckResult::Violated(trace),
        Err(e) => reject("counterexample replay", &e),
    }
}

/// Engine-side gate for a `Holds` verdict backed by `check`.
pub(crate) fn gate_holds(what: &str, check: Result<(), String>) -> CheckResult {
    match check {
        Ok(()) => CheckResult::Holds,
        Err(e) => reject(what, &e),
    }
}

fn reject(what: &str, diagnostic: &str) -> CheckResult {
    eprintln!("verdict-mc: {what} certificate REJECTED: {diagnostic}");
    CheckResult::Unknown(UnknownReason::CertificateRejected)
}

/// Runs the accumulated clauses of `unr` through a fresh proof-logged SAT
/// solver and demands UNSAT with a DRUP proof that checks.
fn run_unsat_query(unr: &mut Unroller<'_>, budget: &Budget, what: &str) -> Result<(), String> {
    // Fault-injection probe at site `mc.certify`: a panic here models the
    // certifier itself dying mid-re-proof. Callers that contain panics
    // (synthesis workers, portfolio contenders) degrade it to
    // `Unknown(EngineFailure)`.
    verdict_journal::fault::panic_if_armed("mc.certify");
    let mut solver = Solver::new();
    solver.enable_proof();
    for c in unr.drain_clauses() {
        solver.add_clause(c);
    }
    match solver.solve_limited(&[], budget.limits()) {
        verdict_sat::SolveResult::Sat(_) => {
            Err(format!("{what}: query is satisfiable, certificate refuted"))
        }
        verdict_sat::SolveResult::Unknown => {
            Err(format!("{what}: resource limit during certificate check"))
        }
        verdict_sat::SolveResult::Unsat => {
            let proof = solver.take_proof();
            check_proof(&proof).map_err(|e| format!("{what}: UNSAT proof rejected: {e}"))
        }
    }
}

/// Independently re-checks a k-induction proof of `G p` at depth `k`:
/// fresh unrollers, fresh solvers, no incremental state, no assumption
/// literals — and each UNSAT answer carries a checked DRUP proof.
pub fn recheck_induction(sys: &System, p: &Expr, k: usize, budget: &Budget) -> Result<(), String> {
    let bad = p.clone().not();
    // Base: no violation within the first k+1 steps.
    {
        let mut unr = Unroller::new(sys).map_err(|e| e.to_string())?;
        unr.extend_to(k);
        let hits: Vec<Formula> = (0..=k).map(|i| unr.lower_bool(&bad, i)).collect();
        unr.assert_formula(&Formula::or_all(hits));
        run_unsat_query(&mut unr, budget, "k-induction base")?;
    }
    // Step: no simple path of k+1 states satisfying p everywhere but the
    // last. Asserts the full pairwise distinctness the incremental prover
    // accumulated over its rounds.
    {
        let mut unr = Unroller::new_free(sys).map_err(|e| e.to_string())?;
        unr.extend_to(k);
        for i in 0..k {
            unr.assert_expr(p, i);
        }
        for i in 0..=k {
            for j in (i + 1)..=k {
                let diff = unr.states_differ(i, j);
                unr.assert_formula(&diff);
            }
        }
        unr.assert_expr(&bad, k);
        run_unsat_query(&mut unr, budget, "k-induction step")?;
    }
    Ok(())
}

/// Checks that `inv` is an inductive invariant establishing `G p`:
/// initiation (`INIT ⇒ inv`), consecution (`inv ∧ TRANS ⇒ inv'`), and
/// strength (`inv ⇒ p`) — three fresh proof-logged UNSAT queries.
pub fn check_inductive_invariant(
    sys: &System,
    p: &Expr,
    inv: &Expr,
    budget: &Budget,
) -> Result<(), String> {
    let not_inv = inv.clone().not();
    // Initiation: INIT ∧ ¬inv unsatisfiable.
    {
        let mut unr = Unroller::new(sys).map_err(|e| e.to_string())?;
        unr.assert_expr(&not_inv, 0);
        run_unsat_query(&mut unr, budget, "invariant initiation")?;
    }
    // Consecution: inv ∧ TRANS ∧ ¬inv' unsatisfiable.
    {
        let mut unr = Unroller::new_free(sys).map_err(|e| e.to_string())?;
        unr.extend_to(1);
        unr.assert_expr(inv, 0);
        unr.assert_expr(&not_inv, 1);
        run_unsat_query(&mut unr, budget, "invariant consecution")?;
    }
    // Strength: inv ∧ ¬p unsatisfiable.
    {
        let mut unr = Unroller::new_free(sys).map_err(|e| e.to_string())?;
        unr.assert_expr(inv, 0);
        unr.assert_expr(&p.clone().not(), 0);
        run_unsat_query(&mut unr, budget, "invariant strength")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::CheckOptions;

    fn counter(limit: i64) -> (System, verdict_ts::VarId) {
        let mut sys = System::new("counter");
        let n = sys.int_var("n", 0, limit);
        sys.add_init(Expr::var(n).eq(Expr::int(0)));
        sys.add_trans(Expr::next(n).eq(Expr::ite(
            Expr::var(n).lt(Expr::int(limit)),
            Expr::var(n).add(Expr::int(1)),
            Expr::var(n),
        )));
        (sys, n)
    }

    #[test]
    fn induction_recheck_accepts_valid_depth() {
        let (sys, n) = counter(5);
        let budget = Budget::new(&CheckOptions::default());
        // n <= 5 is 1-inductive given the range; any k works.
        assert!(recheck_induction(&sys, &Expr::var(n).le(Expr::int(5)), 1, &budget).is_ok());
    }

    #[test]
    fn induction_recheck_rejects_wrong_claim() {
        let (sys, n) = counter(5);
        let budget = Budget::new(&CheckOptions::default());
        // n < 3 is false — the base case is satisfiable at k = 3.
        let r = recheck_induction(&sys, &Expr::var(n).lt(Expr::int(3)), 3, &budget);
        assert!(r.is_err(), "{r:?}");
        assert!(r.unwrap_err().contains("satisfiable"));
    }

    #[test]
    fn inductive_invariant_accepted_and_refuted() {
        let (sys, n) = counter(5);
        let budget = Budget::new(&CheckOptions::default());
        let p = Expr::var(n).le(Expr::int(5));
        // The full range is an inductive invariant here.
        assert!(check_inductive_invariant(&sys, &p, &p.clone(), &budget).is_ok());
        // n <= 2 is not closed under the transition relation.
        let weak = Expr::var(n).le(Expr::int(2));
        let err = check_inductive_invariant(&sys, &p, &weak, &budget).unwrap_err();
        assert!(err.contains("consecution"), "{err}");
    }

    #[test]
    fn status_classification() {
        use CertificateStatus as S;
        let holds = CheckResult::Holds;
        let inv = CompiledProperty::Invariant(Expr::bool(true));
        assert_eq!(
            status(false, EngineKind::KInduction, &inv, &holds),
            S::NotRequested
        );
        assert_eq!(
            status(true, EngineKind::KInduction, &inv, &holds),
            S::Verified(CertificateKind::Induction)
        );
        assert_eq!(
            status(true, EngineKind::Bdd, &inv, &holds),
            S::Verified(CertificateKind::InductiveInvariant)
        );
        assert_eq!(
            status(true, EngineKind::Explicit, &inv, &holds),
            S::Unsupported
        );
        let rejected = CheckResult::Unknown(UnknownReason::CertificateRejected);
        assert_eq!(status(true, EngineKind::Bmc, &inv, &rejected), S::Rejected);
    }
}
