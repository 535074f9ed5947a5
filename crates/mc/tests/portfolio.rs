//! Integration tests for portfolio racing: losers must observe the stop
//! flag and exit promptly, and the portfolio verdict must agree with each
//! sequential engine.

use std::time::{Duration, Instant};

use verdict_mc::portfolio;
use verdict_mc::prelude::*;
use verdict_mc::{McError, Stats, UnknownReason};
use verdict_ts::{Expr, System, VarId};

/// A counter with a huge range: k-induction proves `c <= top` instantly
/// (the step case is 1-inductive) while BDD forward reachability would
/// need ~`top` iterations to exhaust the state space.
fn slow_for_bdd(top: i64) -> (System, VarId) {
    let mut sys = System::new("bigcounter");
    let c = sys.int_var("c", 0, top);
    sys.add_init(Expr::var(c).eq(Expr::int(0)));
    sys.add_trans(Expr::next(c).eq(Expr::ite(
        Expr::var(c).lt(Expr::int(top)),
        Expr::var(c).add(Expr::int(1)),
        Expr::var(c),
    )));
    (sys, c)
}

#[test]
fn loser_observes_stop_flag_and_exits_promptly() {
    // k-induction wins in milliseconds; BDD reachability on ~2^20 states
    // would take far longer than the asserted wall bound, so the test
    // passing at all means the loser honoured the cancellation flag.
    let (sys, c) = slow_for_bdd(1 << 20);
    let p = Expr::var(c).le(Expr::int(1 << 20));
    let started = Instant::now();
    let report = Verifier::new(&sys)
        .engine(EngineKind::Portfolio)
        .check(&CompiledProperty::Invariant(p.clone()))
        .unwrap();
    let wall = started.elapsed();
    assert!(report.result.holds(), "{}", report.result);
    assert_eq!(report.winner, EngineKind::KInduction);
    assert!(
        wall < Duration::from_secs(20),
        "portfolio took {wall:?}; loser did not cancel"
    );
    // The BDD contender must have been cut short, not run to completion.
    let bdd_outcome = report
        .outcomes
        .iter()
        .find(|(e, _)| *e == EngineKind::Bdd)
        .map(|(_, r)| r.clone());
    assert!(
        matches!(
            bdd_outcome,
            Some(CheckResult::Unknown(UnknownReason::Cancelled))
        ),
        "expected the BDD loser to report Cancelled, got {bdd_outcome:?}"
    );
}

#[test]
fn portfolio_agrees_with_every_sequential_engine() {
    let (sys, c) = slow_for_bdd(7);
    let opts = CheckOptions::default();
    for prop in [
        Expr::var(c).le(Expr::int(7)), // holds
        Expr::var(c).lt(Expr::int(4)), // violated at depth 4
        Expr::var(c).ne(Expr::int(7)), // violated at the fixpoint
    ] {
        let report = Verifier::new(&sys)
            .engine(EngineKind::Portfolio)
            .options(opts.clone())
            .check(&CompiledProperty::Invariant(prop.clone()))
            .unwrap();
        let b = engine(EngineKind::Bdd)
            .check_invariant(&sys, &prop, &opts, &mut Stats::default())
            .unwrap();
        let k = engine(EngineKind::KInduction)
            .check_invariant(&sys, &prop, &opts, &mut Stats::default())
            .unwrap();
        assert_eq!(report.result.holds(), b.holds(), "vs bdd: {prop:?}");
        assert_eq!(report.result.violated(), b.violated(), "vs bdd: {prop:?}");
        assert_eq!(report.result.holds(), k.holds(), "vs kind: {prop:?}");
        assert_eq!(report.result.violated(), k.violated(), "vs kind: {prop:?}");
        // BMC is a falsifier: on violated properties it must agree too.
        let m = engine(EngineKind::Bmc)
            .check_invariant(&sys, &prop, &opts, &mut Stats::default())
            .unwrap();
        if report.result.violated() {
            assert!(m.violated(), "vs bmc: {prop:?}");
        }
    }
}

#[test]
fn injected_panicking_contender_is_contained() {
    // A contender that panics mid-race must be contained by its worker
    // thread and recorded as Unknown(EngineFailure); the sound survivor
    // still delivers the verdict.
    let (sys, c) = slow_for_bdd(7);
    let p = Expr::var(c).le(Expr::int(7));
    let contenders: Vec<(EngineKind, portfolio::Contender)> = vec![
        (
            EngineKind::Bmc,
            Box::new(
                |_o: &CheckOptions, _st: &mut Stats| -> Result<CheckResult, McError> {
                    panic!("injected engine failure")
                },
            ),
        ),
        (
            EngineKind::KInduction,
            Box::new(|o: &CheckOptions, st: &mut Stats| {
                engine(EngineKind::KInduction).check_invariant(&sys, &p, o, st)
            }),
        ),
    ];
    let report = portfolio::race(&CheckOptions::default(), contenders).unwrap();
    assert!(report.result.holds(), "survivor verdict: {}", report.result);
    assert_eq!(report.winner, EngineKind::KInduction);
    let crashed = report
        .outcomes
        .iter()
        .find(|(e, _)| *e == EngineKind::Bmc)
        .map(|(_, r)| r.clone());
    assert!(
        matches!(
            crashed,
            Some(CheckResult::Unknown(UnknownReason::EngineFailure))
        ),
        "expected EngineFailure for the crashed contender, got {crashed:?}"
    );
}

#[test]
fn all_contenders_panicking_degrades_to_engine_failure() {
    // With every contender down the race must still return (no hang, no
    // propagated panic), reporting the failure as an Unknown verdict.
    let contenders: Vec<(EngineKind, portfolio::Contender)> = vec![(
        EngineKind::Bmc,
        Box::new(
            |_o: &CheckOptions, _st: &mut Stats| -> Result<CheckResult, McError> {
                panic!("injected engine failure")
            },
        ),
    )];
    let report = portfolio::race(&CheckOptions::default(), contenders).unwrap();
    assert!(
        matches!(
            report.result,
            CheckResult::Unknown(UnknownReason::EngineFailure)
        ),
        "{}",
        report.result
    );
}

#[test]
fn deadline_still_bounds_a_portfolio_without_winner() {
    // An invariant that holds but is not k-inductive within the depth
    // bound, on a state space too big for BDD within the timeout: no
    // contender is definitive, and the race must end at the deadline
    // with an Unknown rather than hang.
    let (sys, c) = slow_for_bdd(1 << 20);
    // Violated only ~2^19 steps in: BMC/kind see nothing in 4 unrollings
    // and BDD cannot cross half a million frontier iterations in 300 ms.
    let p = Expr::var(c).lt(Expr::int(1 << 19));
    let opts = CheckOptions {
        max_depth: 4,
        ..CheckOptions::default()
    }
    .with_timeout(Duration::from_millis(300));
    let started = Instant::now();
    let report = Verifier::new(&sys)
        .engine(EngineKind::Portfolio)
        .options(opts)
        .check(&CompiledProperty::Invariant(p.clone()))
        .unwrap();
    assert!(
        matches!(report.result, CheckResult::Unknown(_)),
        "{}",
        report.result
    );
    assert!(started.elapsed() < Duration::from_secs(20));
}
