//! Quickstart: model a tiny autoscaler control loop, verify a safety
//! property, read a counterexample, and synthesize a safe configuration.
//!
//! Run with: `cargo run --example quickstart`
//!
//! The system: a service with `replicas ∈ 1..=8`, a load level the
//! environment moves nondeterministically, and an autoscaler that adds a
//! replica under high load and removes one under low load — but never
//! below its configured `min_replicas`. The operator question: which
//! values of `min_replicas` guarantee the serving floor of 2 replicas?

use verdict::prelude::*;

fn main() {
    // ---- model -------------------------------------------------------
    let mut sys = System::new("autoscaler");
    let replicas = sys.int_var("replicas", 1, 8);
    // Environment: load is low (0), normal (1), or high (2); free-moving.
    let load = sys.int_var("load", 0, 2);
    // The configuration parameter under study.
    let min_replicas = sys.int_param("min_replicas", 1, 3);

    sys.add_init(Expr::var(replicas).eq(Expr::int(4)));

    // The autoscaler's law:
    //   load = 2 -> add a replica (up to 8)
    //   load = 0 -> remove one (down to min_replicas)
    //   otherwise hold.
    let up = Expr::ite(
        Expr::var(replicas).lt(Expr::int(8)),
        Expr::var(replicas).add(Expr::int(1)),
        Expr::var(replicas),
    );
    let down = Expr::ite(
        Expr::var(replicas).gt(Expr::var(min_replicas)),
        Expr::var(replicas).sub(Expr::int(1)),
        Expr::var(replicas),
    );
    sys.add_trans(Expr::next(replicas).eq(Expr::ite(
        Expr::var(load).eq(Expr::int(2)),
        up,
        Expr::ite(Expr::var(load).eq(Expr::int(0)), down, Expr::var(replicas)),
    )));

    // ---- verify ------------------------------------------------------
    // Safety: the deployment never drops below the serving floor.
    let property = Expr::var(replicas).ge(Expr::int(2));

    let verifier = Verifier::new(&sys).options(CheckOptions::with_depth(16));
    let result = verifier
        .check(&CompiledProperty::Invariant(property.clone()))
        .unwrap()
        .result;
    println!("G(replicas >= 2):\n{result}");
    // The checker picks min_replicas = 1 and a run of low-load steps:
    // the scaler itself erodes the floor.

    // ---- synthesize --------------------------------------------------
    // Which configurations are safe? Exactly min_replicas ∈ {2, 3}.
    let synth = verifier
        .synthesize_params(&[min_replicas], &Property::Invariant(property))
        .unwrap();
    println!("{synth}");
}
