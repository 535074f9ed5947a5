//! End-to-end tests of the parallel verification layer on case study 1
//! (the paper's rollout + network partition model): parameter-synthesis
//! sharding must not change verdicts or their order, and the portfolio
//! engine must agree with every sequential engine.

use verdict_mc::params::{synthesize, Property, SynthesisEngine};
use verdict_mc::prelude::*;
use verdict_mc::Durability;
use verdict_mc::Stats;
use verdict_models::{RolloutModel, RolloutSpec, Topology};

/// The case-study-1 model with a 16-assignment (p, k, m) cross product:
/// p ∈ 0..=3, k ∈ 0..=1, m ∈ 0..=1.
fn sweep_model() -> RolloutModel {
    let spec = RolloutSpec {
        k_max: 1,
        m_max: 1,
        ..RolloutSpec::paper(Topology::test_topology())
    };
    RolloutModel::build(&spec).expect("valid topology")
}

#[test]
fn synthesis_verdict_order_is_job_count_invariant() {
    let model = sweep_model();
    let prop = Property::Invariant(model.property.clone());
    let params = [model.p, model.k, model.m];
    let baseline = synthesize(
        &model.system,
        &params,
        &prop,
        SynthesisEngine::KInduction,
        &CheckOptions::with_depth(10).with_jobs(1),
        false,
        &Durability::none(),
    )
    .unwrap();
    assert_eq!(baseline.verdicts.len(), 16, "4 × 2 × 2 assignments");
    for jobs in 2..=4 {
        let r = synthesize(
            &model.system,
            &params,
            &prop,
            SynthesisEngine::KInduction,
            &CheckOptions::with_depth(10).with_jobs(jobs),
            false,
            &Durability::none(),
        )
        .unwrap();
        assert_eq!(r.param_names, baseline.param_names);
        assert_eq!(r.verdicts.len(), baseline.verdicts.len(), "jobs={jobs}");
        for (i, (a, b)) in baseline.verdicts.iter().zip(&r.verdicts).enumerate() {
            assert_eq!(a.values, b.values, "jobs={jobs} index {i}");
            assert_eq!(
                a.result.holds(),
                b.result.holds(),
                "jobs={jobs} index {i} values {:?}",
                a.values
            );
            assert_eq!(
                a.result.violated(),
                b.result.violated(),
                "jobs={jobs} index {i} values {:?}",
                a.values
            );
        }
    }
}

#[test]
fn first_safe_sweep_reports_a_genuinely_safe_assignment() {
    let model = sweep_model();
    let prop = Property::Invariant(model.property.clone());
    let params = [model.p, model.k, model.m];
    let r = synthesize(
        &model.system,
        &params,
        &prop,
        SynthesisEngine::KInduction,
        &CheckOptions::with_depth(10).with_jobs(4),
        true,
        &Durability::none(),
    )
    .unwrap();
    let safe = r.safe();
    assert!(!safe.is_empty(), "{r}");
    // Every value reported SAFE must also be SAFE in the full sweep.
    let full = synthesize(
        &model.system,
        &params,
        &prop,
        SynthesisEngine::KInduction,
        &CheckOptions::with_depth(10).with_jobs(1),
        false,
        &Durability::none(),
    )
    .unwrap();
    for values in safe {
        let matching = full
            .verdicts
            .iter()
            .find(|v| v.values == values)
            .expect("assignment exists in full sweep");
        assert!(matching.result.holds(), "{values:?}");
    }
}

#[test]
fn portfolio_agrees_with_sequential_engines_on_case_study_1() {
    let model = RolloutModel::build(&RolloutSpec::paper(Topology::test_topology()))
        .expect("valid topology");
    // (p, k, m, expected violated) — the paper's Fig. 5 configuration and
    // a safe one.
    for (p, k, m, expect_violated) in [(1, 2, 1, true), (0, 0, 1, false)] {
        let sys = model.pinned(p, k, m);
        let opts = CheckOptions::with_depth(12);
        let report = Verifier::new(&sys)
            .engine(EngineKind::Portfolio)
            .options(opts.clone())
            .check(&CompiledProperty::Invariant(model.property.clone()))
            .unwrap();
        assert_eq!(
            report.result.violated(),
            expect_violated,
            "portfolio on (p={p},k={k},m={m}): {}",
            report.result
        );
        let b = engine(EngineKind::Bdd)
            .check_invariant(&sys, &model.property, &opts, &mut Stats::default())
            .unwrap();
        let ki = engine(EngineKind::KInduction)
            .check_invariant(&sys, &model.property, &opts, &mut Stats::default())
            .unwrap();
        assert_eq!(report.result.violated(), b.violated(), "vs bdd");
        assert_eq!(report.result.holds(), b.holds(), "vs bdd");
        assert_eq!(report.result.violated(), ki.violated(), "vs kind");
        assert_eq!(report.result.holds(), ki.holds(), "vs kind");
        if expect_violated {
            let mres = engine(EngineKind::Bmc)
                .check_invariant(&sys, &model.property, &opts, &mut Stats::default())
                .unwrap();
            assert!(mres.violated(), "vs bmc");
        }
    }
}
