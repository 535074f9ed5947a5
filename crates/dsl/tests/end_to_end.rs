//! End-to-end: author models in the DSL, check them with the engines.

use verdict_dsl::{parse, CompiledProperty};
use verdict_mc::{CheckOptions, Verifier};

fn check(model: &verdict_dsl::CompiledModel, name: &str) -> verdict_mc::CheckResult {
    Verifier::new(&model.system)
        .options(CheckOptions::with_depth(24))
        .check(model.property(name).expect("property exists"))
        .unwrap()
        .result
}

#[test]
fn counter_properties_verified() {
    let m = parse(
        "system counter {
            var n : 0..7;
            init n = 0;
            trans next(n) = if n < 7 then n + 1 else n;

            invariant in_range: n <= 7;
            invariant wrong: n <= 5;
            ltl saturates: F (G (n = 7));
            ctl reach_top: EF (n = 7);
            ctl never_nine: AG (n != 7);
        }",
    )
    .unwrap();
    assert!(check(&m, "in_range").holds());
    let r = check(&m, "wrong");
    assert_eq!(
        r.trace().unwrap().len(),
        7,
        "0..=6 then 6 -> violation at 6"
    );
    assert!(check(&m, "saturates").holds());
    assert!(check(&m, "reach_top").holds());
    assert!(check(&m, "never_nine").violated());
}

#[test]
fn parameterized_dsl_model_synthesis() {
    // The DSL version of the step-counter synthesis example.
    let m = parse(
        "system step {
            var n : 0..10;
            param p : 1..3;
            init n = 0;
            trans next(n) = if n <= 7 then n + p else n;
            invariant miss5: n != 5;
        }",
    )
    .unwrap();
    let p = m.system.var_by_name("p").unwrap();
    let CompiledProperty::Invariant(inv) = m.property("miss5").unwrap() else {
        panic!()
    };
    let verifier = Verifier::new(&m.system);
    let result = verifier
        .synthesize_params(&[p], &verdict_mc::params::Property::Invariant(inv.clone()))
        .unwrap();
    // p = 1 hits 5; p = 2 and p = 3 skip it.
    assert_eq!(result.safe().len(), 2, "{result}");
}

#[test]
fn real_valued_dsl_model_via_smt() {
    let m = parse(
        "system bucket {
            var level : real;
            param inflow : real;
            init level = 0;
            init inflow >= 0 & inflow <= 3;
            trans next(level) = level + inflow - 1;
            invariant bounded: level <= 4;
        }",
    )
    .unwrap();
    assert!(m.system.has_real_vars());
    let r = check(&m, "bounded");
    let t = r.trace().expect("inflow can exceed the leak");
    // Inflow is constant along the trace (frozen) and must exceed 1.
    let v0 = t.value(0, "inflow").unwrap();
    assert_eq!(t.value(t.len() - 1, "inflow").unwrap(), v0);
}

#[test]
fn oscillator_liveness_from_dsl() {
    let m = parse(
        "system flip {
            var x : bool;
            init x;
            trans next(x) = !x;
            ltl fg: F (G x);
            ltl gf: G (F x);
        }",
    )
    .unwrap();
    let r = check(&m, "fg");
    assert!(r.trace().unwrap().loop_back.is_some(), "lasso trace");
    assert!(check(&m, "gf").holds());
}

#[test]
fn enum_state_machine_from_dsl() {
    let m = parse(
        "system lifecycle {
            var pod : {none, pending, running};
            var tainted : bool;
            init pod = none & tainted;
            trans next(tainted) = tainted;
            trans pod = none -> next(pod) = pending;
            trans pod = pending -> next(pod) = running;
            trans pod = running ->
                (if tainted then next(pod) = none else next(pod) = running);
            ltl settles: F (G (pod = running));
        }",
    )
    .unwrap();
    let r = check(&m, "settles");
    assert!(r.violated(), "taint loop livelocks: {r}");
}
