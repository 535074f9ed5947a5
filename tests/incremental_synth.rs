//! Acceptance tests for the incremental (assumption-pinned) synthesis
//! sweep: on both case studies it must be verdict-for-verdict identical
//! to the clone-per-assignment path, across job counts, and its verdicts
//! must survive independent certification (`--certify` re-proves every
//! incremental verdict — core-pruned inherited ones included — with
//! fresh proof-logged solvers).

use verdict::prelude::*;
use verdict_mc::params::{synthesize, Property, SynthesisEngine, SynthesisResult};
use verdict_mc::Durability;

/// The case-study-1 model with a 16-assignment (p, k, m) cross product.
fn sweep_model() -> RolloutModel {
    let spec = RolloutSpec {
        k_max: 1,
        m_max: 1,
        ..RolloutSpec::paper(Topology::test_topology())
    };
    RolloutModel::build(&spec).expect("valid topology")
}

fn assert_same_verdicts(a: &SynthesisResult, b: &SynthesisResult, what: &str) {
    assert_eq!(a.verdicts.len(), b.verdicts.len(), "{what}");
    for (x, y) in a.verdicts.iter().zip(&b.verdicts) {
        assert_eq!(x.values, y.values, "{what}: order changed");
        assert_eq!(
            x.result.holds(),
            y.result.holds(),
            "{what}: verdict mismatch at {:?}",
            x.values
        );
        assert_eq!(
            x.result.violated(),
            y.result.violated(),
            "{what}: verdict mismatch at {:?}",
            x.values
        );
    }
}

#[test]
fn rollout_incremental_matches_clone_path() {
    let model = sweep_model();
    let prop = Property::Invariant(model.property.clone());
    let params = [model.p, model.k, model.m];
    let clone = synthesize(
        &model.system,
        &params,
        &prop,
        SynthesisEngine::KInduction,
        &CheckOptions::with_depth(10)
            .with_jobs(1)
            .with_incremental(false),
        false,
        &Durability::none(),
    )
    .unwrap();
    assert_eq!(clone.verdicts.len(), 16, "4 × 2 × 2 assignments");
    assert!(!clone.safe().is_empty() && !clone.unsafe_values().is_empty());
    for jobs in [1, 2, 4] {
        let inc = synthesize(
            &model.system,
            &params,
            &prop,
            SynthesisEngine::KInduction,
            &CheckOptions::with_depth(10)
                .with_jobs(jobs)
                .with_incremental(true),
            false,
            &Durability::none(),
        )
        .unwrap();
        assert_same_verdicts(&clone, &inc, &format!("rollout jobs={jobs}"));
    }
}

#[test]
fn rollout_incremental_verdicts_survive_certification() {
    let model = sweep_model();
    let prop = Property::Invariant(model.property.clone());
    let params = [model.p, model.k, model.m];
    let clone = synthesize(
        &model.system,
        &params,
        &prop,
        SynthesisEngine::KInduction,
        &CheckOptions::with_depth(10)
            .with_jobs(1)
            .with_incremental(false),
        false,
        &Durability::none(),
    )
    .unwrap();
    let certified = synthesize(
        &model.system,
        &params,
        &prop,
        SynthesisEngine::KInduction,
        &CheckOptions::with_depth(10)
            .with_jobs(2)
            .with_incremental(true)
            .with_certify(),
        false,
        &Durability::none(),
    )
    .unwrap();
    // Certification must not reject anything (no verdict demoted to
    // UNKNOWN) and the partition must still equal the clone path's.
    assert!(!certified.has_unknown(), "{certified}");
    assert_same_verdicts(&clone, &certified, "rollout certified");
}

#[test]
fn step_counter_dsl_incremental_matches_clone_path() {
    let source = include_str!("../examples/models/step_counter.vd");
    let model = verdict_dsl::parse(source).expect("step_counter.vd parses");
    let step = model.system.var_by_name("step").expect("`step` param");
    let (_, verdict_dsl::CompiledProperty::Invariant(p)) = &model.properties[0] else {
        panic!("step_counter.vd's first property is an invariant");
    };
    let prop = Property::Invariant(p.clone());
    let clone = synthesize(
        &model.system,
        &[step],
        &prop,
        SynthesisEngine::KInduction,
        &CheckOptions::default().with_jobs(1).with_incremental(false),
        false,
        &Durability::none(),
    )
    .unwrap();
    assert_eq!(clone.verdicts.len(), 3);
    for jobs in [1, 3] {
        for certify in [false, true] {
            let mut opts = CheckOptions::default()
                .with_jobs(jobs)
                .with_incremental(true);
            if certify {
                opts = opts.with_certify();
            }
            let inc = synthesize(
                &model.system,
                &[step],
                &prop,
                SynthesisEngine::KInduction,
                &opts,
                false,
                &Durability::none(),
            )
            .unwrap();
            assert_same_verdicts(
                &clone,
                &inc,
                &format!("step_counter jobs={jobs} certify={certify}"),
            );
            assert!(!inc.has_unknown(), "{inc}");
        }
    }
}
