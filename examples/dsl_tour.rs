//! A tour of the `.vd` modeling language: author a controller-interaction
//! model as text, compile it, and check its properties with every engine.
//!
//! Run with: `cargo run --example dsl_tour`

use verdict::dsl::parse;
use verdict::prelude::*;

const SOURCE: &str = r#"
// The HPA × rolling-update feedback loop of Kubernetes issue #90461,
// written in the verdict modeling language.
system hpa_ruc {
    var expected : 1..8;          // the deployment's desired replicas
    var current  : 1..8;          // live replicas
    var rolling  : bool;          // a rolling update is in progress

    init expected = 1 & current = 1;

    // Rolling-update controller with maxSurge = 1: while rolling, the
    // live count may surge one above expected.
    trans rolling ->
        (next(current) = (if expected < 8 then expected + 1 else 8)
         | next(current) = expected);
    trans !rolling -> next(current) = expected;

    // The buggy HPA: reads the surged current count back as demand.
    trans next(expected) = current;

    invariant bounded: current <= 4;
    ctl can_run_away: EF (current >= 8);
}
"#;

fn main() {
    let model = parse(SOURCE).expect("the tour model parses");
    println!("compiled `{}`:\n{}", model.system.name(), model.system);

    let verifier = Verifier::new(&model.system).options(CheckOptions::with_depth(24));
    for (name, property) in &model.properties {
        let report = verifier.check(property).unwrap();
        println!("property `{name}`: {}", report.result);
    }
}
