//! The parallel-runtime contract: learned-clause sharing moves clauses
//! between solvers over the same CNF prefix, never changes verdicts,
//! survives `--certify`, and is perfectly silent — all-zero runtime
//! counters — in sequential runs without a hub, so the PR-5 stats
//! baseline is reproduced exactly.

use std::sync::Arc;

use verdict_mc::params::{synthesize, Property, SynthesisEngine};
use verdict_mc::prelude::*;
use verdict_mc::{Durability, Stats};
use verdict_sat::ClauseHub;
use verdict_ts::{Expr, System};

/// Two walkers each stepping +1 or +2 nondeterministically. The
/// nondeterminism forces real search (conflicts, learnt clauses) instead
/// of pure unit propagation, which is what makes the workload worth
/// sharing — and it is fully deterministic for a fixed solver seed.
fn walker_system() -> System {
    let mut sys = System::new("walkers");
    let a = sys.int_var("a", 0, 40);
    let b = sys.int_var("b", 0, 40);
    sys.add_init(Expr::var(a).eq(Expr::int(0)));
    sys.add_init(Expr::var(b).eq(Expr::int(0)));
    for v in [a, b] {
        sys.add_trans(
            Expr::next(v)
                .eq(Expr::var(v).add(Expr::int(1)))
                .or(Expr::next(v).eq(Expr::var(v).add(Expr::int(2)))),
        );
    }
    sys
}

/// Holds at every depth: `b <= 2a` (each step grows `a` by at least 1
/// and `b` by at most 2). BMC grinds through an Unsat proof per depth —
/// a conflict-rich exporter.
fn holds_prop(sys: &System) -> Expr {
    let a = sys.var_by_name("a").unwrap();
    let b = sys.var_by_name("b").unwrap();
    Expr::var(b).le(Expr::var(a).add(Expr::var(a)))
}

/// Violated at depth 5 (five +2 steps on both walkers).
fn deep_violation_prop(sys: &System) -> Expr {
    let a = sys.var_by_name("a").unwrap();
    let b = sys.var_by_name("b").unwrap();
    Expr::var(a)
        .ne(Expr::int(10))
        .or(Expr::var(b).ne(Expr::int(10)))
}

fn run(kind: EngineKind, sys: &System, p: &Expr, opts: &CheckOptions) -> (CheckResult, Stats) {
    let mut stats = Stats::default();
    let result = engine(kind)
        .check_invariant(sys, p, opts, &mut stats)
        .unwrap();
    (result, stats)
}

#[test]
fn sharing_moves_clauses_between_sequential_runs() {
    // Two sequential BMC runs over the same system claim the two
    // endpoints of one hub: the first run's exports sit in the second
    // endpoint's ring, and the second run imports them at solve entry.
    // Sequential runs make the exchange deterministic — no thread
    // timing decides whether clauses arrive in time to be used.
    let sys = walker_system();
    let p = holds_prop(&sys);
    let hub = ClauseHub::new(2);
    let opts = CheckOptions::with_depth(16).with_share_hub(Arc::clone(&hub));

    let (_, first) = run(EngineKind::Bmc, &sys, &p, &opts);
    assert!(
        first.runtime.clauses_exported > 0,
        "first run exported nothing:\n{}",
        first.counters_json()
    );
    let (_, second) = run(EngineKind::Bmc, &sys, &p, &opts);
    assert!(
        second.runtime.clauses_imported > 0,
        "second run imported nothing:\n{}",
        second.counters_json()
    );
    assert!(
        second.runtime.import_hits > 0,
        "imported clauses never propagated or conflicted:\n{}",
        second.counters_json()
    );
}

#[test]
fn sharing_does_not_change_verdicts() {
    // Soundness at the engine level: for both a holds-style and a
    // violated property, a run that imports a peer's clauses reaches
    // the same verdict as an isolated run.
    let sys = walker_system();
    for (prop, name) in [
        (holds_prop(&sys), "holds"),
        (deep_violation_prop(&sys), "violated"),
    ] {
        for kind in [EngineKind::Bmc, EngineKind::KInduction] {
            let isolated = CheckOptions::with_depth(16).with_sharing(false);
            let (base, _) = run(kind, &sys, &prop, &isolated);

            let hub = ClauseHub::new(2);
            let shared = CheckOptions::with_depth(16).with_share_hub(Arc::clone(&hub));
            // Prime the hub with a first run, then check the importer.
            let _ = run(kind, &sys, &prop, &shared);
            let (imported, _) = run(kind, &sys, &prop, &shared);

            assert_eq!(base.holds(), imported.holds(), "{kind}/{name}");
            assert_eq!(base.violated(), imported.violated(), "{kind}/{name}");
        }
    }
}

#[test]
fn certify_passes_with_sharing_enabled() {
    // Certification re-checks verdicts with machinery that never
    // imports (fresh solvers for Unsat re-proofs, trace replay for
    // counterexamples), so it must keep passing when the deciding
    // solver was fed shared clauses.
    let sys = walker_system();
    let hub = ClauseHub::new(4);
    let opts = CheckOptions::with_depth(16)
        .with_certify()
        .with_share_hub(Arc::clone(&hub));

    let violated = deep_violation_prop(&sys);
    let _ = run(EngineKind::Bmc, &sys, &violated, &opts);
    let (result, _) = run(EngineKind::Bmc, &sys, &violated, &opts);
    assert!(
        result.violated(),
        "certified counterexample expected: {result:?}"
    );

    let holds = holds_prop(&sys);
    let (result, _) = run(EngineKind::KInduction, &sys, &holds, &opts);
    assert!(result.holds(), "certified proof expected: {result:?}");
}

#[test]
fn sequential_runs_without_hub_reproduce_baseline_stats() {
    // The determinism half of the contract: with jobs = 1 and no hub
    // installed, the runtime counter group stays all zero and the
    // counter JSON is byte-identical to a sharing-disabled run — the
    // parallel runtime is invisible to the PR-5 observability baseline.
    let sys = walker_system();
    let p = holds_prop(&sys);
    let plain = CheckOptions::with_depth(12).with_jobs(1);
    let disabled = CheckOptions::with_depth(12)
        .with_jobs(1)
        .with_sharing(false);
    for kind in [EngineKind::Bmc, EngineKind::KInduction] {
        let (_, a) = run(kind, &sys, &p, &plain);
        let (_, b) = run(kind, &sys, &p, &disabled);
        assert!(
            a.runtime.is_zero(),
            "{kind}: runtime counters nonzero without a hub:\n{}",
            a.counters_json()
        );
        assert_eq!(
            a.counters_json(),
            b.counters_json(),
            "{kind}: sharing-disabled run drifted from the no-hub baseline"
        );
    }
}

#[test]
fn sequential_sweep_keeps_runtime_counters_silent() {
    // A jobs = 1 synthesis sweep without a pre-installed hub must be
    // reproducible and report an all-zero runtime group, both on the
    // clone path and the incremental path.
    let mut sys = System::new("param-walk");
    let limit = sys.int_var("limit", 0, 3);
    let n = sys.int_var("n", 0, 8);
    sys.add_init(Expr::var(n).eq(Expr::int(0)));
    sys.add_trans(Expr::next(n).eq(Expr::ite(
        Expr::var(n).lt(Expr::int(8)),
        Expr::var(n).add(Expr::int(1)),
        Expr::var(n),
    )));
    sys.add_trans(Expr::next(limit).eq(Expr::var(limit)));
    let prop = Property::Invariant(Expr::var(n).lt(Expr::var(limit).add(Expr::int(5))));

    for incremental in [false, true] {
        let opts = CheckOptions::with_depth(10)
            .with_jobs(1)
            .with_incremental(incremental);
        let a = synthesize(
            &sys,
            &[limit],
            &prop,
            SynthesisEngine::KInduction,
            &opts,
            false,
            &Durability::none(),
        )
        .unwrap();
        let b = synthesize(
            &sys,
            &[limit],
            &prop,
            SynthesisEngine::KInduction,
            &opts,
            false,
            &Durability::none(),
        )
        .unwrap();
        assert!(
            a.runtime.is_zero(),
            "incremental={incremental}: sequential sweep touched the parallel runtime"
        );
        assert_eq!(a.verdicts.len(), 4);
        for (x, y) in a.verdicts.iter().zip(&b.verdicts) {
            assert_eq!(x.values, y.values, "sweep order drifted");
            assert_eq!(x.result.holds(), y.result.holds());
            assert_eq!(x.result.violated(), y.result.violated());
        }
    }
}

#[test]
fn synthesis_sweep_with_hub_reports_sharing_traffic() {
    // An incremental jobs = 1 sweep with a pre-installed hub routes the
    // worker's persistent base solver through an endpoint; a second
    // sweep over the same system imports the first sweep's clauses.
    let mut sys = System::new("shared-sweep");
    let slack = sys.int_var("slack", 0, 1);
    let a = sys.int_var("a", 0, 40);
    let b = sys.int_var("b", 0, 40);
    sys.add_init(Expr::var(a).eq(Expr::int(0)));
    sys.add_init(Expr::var(b).eq(Expr::int(0)));
    for v in [a, b] {
        sys.add_trans(
            Expr::next(v)
                .eq(Expr::var(v).add(Expr::int(1)))
                .or(Expr::next(v).eq(Expr::var(v).add(Expr::int(2)))),
        );
    }
    sys.add_trans(Expr::next(slack).eq(Expr::var(slack)));
    // Holds for both slack values: b <= 2a <= 2a + slack.
    let prop =
        Property::Invariant(Expr::var(b).le(Expr::var(a).add(Expr::var(a)).add(Expr::var(slack))));

    let hub = ClauseHub::new(2);
    let opts = CheckOptions::with_depth(12)
        .with_jobs(1)
        .with_incremental(true)
        .with_share_hub(Arc::clone(&hub));
    let first = synthesize(
        &sys,
        &[slack],
        &prop,
        SynthesisEngine::KInduction,
        &opts,
        false,
        &Durability::none(),
    )
    .unwrap();
    assert!(
        first.runtime.clauses_exported > 0,
        "sweep exported nothing through the installed hub"
    );
    let second = synthesize(
        &sys,
        &[slack],
        &prop,
        SynthesisEngine::KInduction,
        &opts,
        false,
        &Durability::none(),
    )
    .unwrap();
    assert!(
        second.runtime.clauses_imported > 0,
        "second sweep imported nothing"
    );
}
