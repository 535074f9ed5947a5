//! Case study 1 of the paper (§4.2): update rollout + network partition.
//!
//! Run with: `cargo run --release --example rollout_partition`
//!
//! Builds the paper's 5-node "test" topology with a rollout controller
//! (≤ `p` nodes down simultaneously), up to `k` nondeterministic link
//! failures, and the reachability-recomputation loop; then
//!
//! 1. reproduces the Fig. 5 counterexample for `p = m = 1, k = 2`,
//! 2. proves safety for a conservative configuration,
//! 3. reproduces the parameter synthesis result: for `k = 1, m = 1` the
//!    safe non-zero rollout widths are exactly `p ∈ {1, 2}`.

use verdict::prelude::*;

fn main() {
    let model = RolloutModel::build(&RolloutSpec::paper(Topology::test_topology()))
        .expect("valid topology");
    println!(
        "model: {} ({} state vars, {} links, {} service nodes)",
        model.system.name(),
        model.system.num_vars(),
        model.failed.len(),
        model.down.len(),
    );
    println!("property: G(converged -> available >= m)\n");

    // ---- 1. falsification (Fig. 5) ------------------------------------
    let unsafe_sys = model.pinned(1, 2, 1);
    let verifier = Verifier::new(&unsafe_sys)
        .engine(EngineKind::Bmc)
        .options(CheckOptions::with_depth(10));
    let property = CompiledProperty::Invariant(model.property.clone());
    let result = verifier.check(&property).unwrap().result;
    println!("p = 1, k = 2, m = 1 (the paper's Fig. 5 setting):");
    match result.trace() {
        Some(trace) => {
            // Print only the rows that move — the full table is wide.
            println!("VIOLATED; counterexample ({} steps):", trace.len());
            let interesting = trace.changing_vars();
            for &row in &interesting {
                let name = &trace.var_names[row];
                let values: Vec<String> = trace.states.iter().map(|s| s[row].to_string()).collect();
                println!("  {:<14} {}", name, values.join(" -> "));
            }
        }
        None => println!("unexpectedly safe: {result}"),
    }

    // ---- 2. verification ----------------------------------------------
    let safe_sys = model.pinned(1, 0, 1);
    let verifier = Verifier::new(&safe_sys).options(CheckOptions::with_depth(24));
    let result = verifier.check(&property).unwrap().result;
    println!("\np = 1, k = 0, m = 1: {result}");

    // ---- blast radius (§5 risk assessment) -----------------------------
    // Worst-case true availability after any single link failure, with a
    // rollout of width 1 in flight (k = 1 failure budget).
    let sys = model.pinned(1, 1, 0);
    let any_failure = Expr::or_all(model.failed.iter().map(|&f| Expr::var(f)));
    let blast = verdict::mc::blast::worst_case_after(
        &sys,
        &any_failure,
        &model.true_available,
        &CheckOptions::with_depth(6),
    )
    .unwrap()
    .expect("failures are reachable");
    println!(
        "\nblast radius of one link failure (p = 1): worst availability {} of {}",
        blast.worst, blast.range.1
    );

    // ---- 3. parameter synthesis (p ∈ {1, 2}) ---------------------------
    let mut pinned_km = model.system.clone();
    pinned_km.add_invar(Expr::var(model.k).eq(Expr::int(1)));
    pinned_km.add_invar(Expr::var(model.m).eq(Expr::int(1)));
    let verifier = Verifier::new(&pinned_km).options(CheckOptions::with_depth(16));
    let synth = verifier
        .synthesize_params(&[model.p], &Property::Invariant(model.property.clone()))
        .unwrap();
    println!("\nsynthesis for k = 1, m = 1 (paper: safe non-zero p ∈ {{1, 2}}):");
    print!("{synth}");
}
