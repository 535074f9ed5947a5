//! The observability contract: counters are deterministic for a fixed
//! seed and a single worker, every engine actually reports work, and
//! portfolio reports carry the winner's stats plus per-contender
//! summaries.

use verdict_mc::prelude::*;
use verdict_mc::Stats;
use verdict_ts::{Expr, System};

/// A finite saturating counter with a violated bound at depth 4.
fn finite_system() -> (System, Expr) {
    let mut sys = System::new("sat-counter");
    let n = sys.int_var("n", 0, 8);
    sys.add_init(Expr::var(n).eq(Expr::int(0)));
    sys.add_trans(Expr::next(n).eq(Expr::ite(
        Expr::var(n).lt(Expr::int(8)),
        Expr::var(n).add(Expr::int(1)),
        Expr::var(n),
    )));
    (sys, Expr::var(n).lt(Expr::int(4)))
}

/// A real-valued ramp for the SMT engine.
fn real_system() -> (System, Expr) {
    use verdict_logic::Rational;
    let mut sys = System::new("ramp");
    let x = sys.real_var("x");
    sys.add_init(Expr::var(x).eq(Expr::real(Rational::ZERO)));
    sys.add_trans(Expr::next(x).eq(Expr::var(x).add(Expr::real(Rational::ONE))));
    (sys, Expr::var(x).lt(Expr::real(Rational::integer(3))))
}

/// The sequential engines (portfolio excluded: its winner — and hence
/// its counters — depends on thread scheduling).
const SEQUENTIAL: [EngineKind; 5] = [
    EngineKind::Bmc,
    EngineKind::KInduction,
    EngineKind::Bdd,
    EngineKind::Explicit,
    EngineKind::SmtBmc,
];

fn run(kind: EngineKind, sys: &System, p: &Expr, opts: &CheckOptions) -> Stats {
    let mut stats = Stats::default();
    engine(kind)
        .check_invariant(sys, p, opts, &mut stats)
        .unwrap();
    stats
}

#[test]
fn counters_identical_across_runs_with_one_worker() {
    // Two identical single-threaded runs must produce byte-identical
    // counter JSON — timings may differ, counters may not. This is the
    // determinism half of the stats contract.
    let opts = CheckOptions::with_depth(12).with_jobs(1);
    for kind in SEQUENTIAL {
        let (sys, p) = if kind == EngineKind::SmtBmc {
            real_system()
        } else {
            finite_system()
        };
        let a = run(kind, &sys, &p, &opts);
        let b = run(kind, &sys, &p, &opts);
        assert_eq!(
            a.counters_json(),
            b.counters_json(),
            "{kind}: counters drifted between identical runs"
        );
    }
}

#[test]
fn every_engine_reports_nonzero_counters() {
    // A check that decides a verdict did work, and the stats must show
    // it: no engine may return with an all-zero counter block.
    let opts = CheckOptions::with_depth(12);
    for kind in SEQUENTIAL {
        let (sys, p) = if kind == EngineKind::SmtBmc {
            real_system()
        } else {
            finite_system()
        };
        let stats = run(kind, &sys, &p, &opts);
        assert_eq!(stats.engine, Some(kind), "{kind}: engine tag missing");
        assert!(
            !stats.counters_are_zero(),
            "{kind}: all counters zero after a decided check:\n{}",
            stats.counters_json()
        );
    }
}

#[test]
fn depth_oriented_engines_record_per_depth_timings() {
    // Unrolling engines must sample every depth they visited; the
    // violation above is at depth 4, so BMC sees depths 0..=4.
    let opts = CheckOptions::with_depth(12);
    let (sys, p) = finite_system();
    for kind in [EngineKind::Bmc, EngineKind::KInduction] {
        let stats = run(kind, &sys, &p, &opts);
        assert!(
            stats.depths.len() >= 4,
            "{kind}: expected >= 4 depth samples, got {}",
            stats.depths.len()
        );
        let depths: Vec<usize> = stats.depths.iter().map(|d| d.depth).collect();
        assert_eq!(depths[0], 0, "{kind}: first sample is depth 0");
        assert!(
            depths.windows(2).all(|w| w[0] < w[1]),
            "{kind}: depth samples not strictly increasing: {depths:?}"
        );
    }
    let (sys, p) = real_system();
    let stats = run(EngineKind::SmtBmc, &sys, &p, &opts);
    assert!(
        stats.depths.len() >= 3,
        "smt-bmc: expected >= 3 depth samples, got {}",
        stats.depths.len()
    );
}

#[test]
fn portfolio_report_carries_winner_and_contender_stats() {
    let (sys, p) = finite_system();
    let report = Verifier::new(&sys)
        .engine(EngineKind::Portfolio)
        .options(CheckOptions::with_depth(12))
        .check(&CompiledProperty::Invariant(p.clone()))
        .unwrap();
    // The report's stats are the winner's.
    assert_eq!(report.stats.engine, Some(report.winner));
    assert!(
        !report.stats.counters_are_zero(),
        "winner produced no counters"
    );
    // Each contender contributes a per-engine summary aligned with the
    // outcome list, and the winner's summary matches the headline stats
    // modulo the runtime group, which the race collector folds into the
    // headline (ring batches, parks) on top of the winner's own counters.
    assert_eq!(report.contender_stats.len(), report.outcomes.len());
    let winner_summary = report
        .contender_stats
        .iter()
        .find(|(k, _)| *k == report.winner)
        .expect("winner has a contender summary");
    let strip_runtime = |s: &Stats| {
        let mut s = s.clone();
        s.runtime = Default::default();
        s
    };
    assert_eq!(
        strip_runtime(&winner_summary.1).counters_json(),
        strip_runtime(&report.stats).counters_json()
    );
    // The collector saw at least the winner's verdict cross a ring.
    assert!(
        report.stats.runtime.ring_messages >= 1,
        "race collector recorded no ring traffic:\n{}",
        report.stats.counters_json()
    );
}

#[test]
fn schema_and_shape_of_stats_json() {
    // The versioned-JSON contract: `"schema":2` leads both renderings,
    // and the full form carries depths and the four phase timers.
    let (sys, p) = finite_system();
    let stats = run(EngineKind::Bmc, &sys, &p, &CheckOptions::with_depth(12));
    let full = stats.to_json();
    let counters = stats.counters_json();
    for json in [&full, &counters] {
        assert!(
            json.starts_with("{\"schema\":2,"),
            "schema tag missing: {json}"
        );
    }
    for field in [
        "\"depths\":[",
        "\"encode_us\":",
        "\"solve_us\":",
        "\"certify_us\":",
    ] {
        assert!(full.contains(field), "missing {field} in {full}");
    }
    // Counter JSON is the deterministic subset: no timing fields.
    assert!(!counters.contains("_us\""), "timings leaked: {counters}");
}
