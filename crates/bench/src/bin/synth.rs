//! Clone-per-assignment vs incremental (assumption-pinned) parameter
//! synthesis, writing `BENCH_synth.json` to the repo root.
//!
//! ```text
//! cargo run -p verdict-bench --release --bin synth -- \
//!     [--jobs N] [--depth D] [--reps R] [--topology test] [--out PATH]
//! ```
//!
//! Both case studies run the same sweep twice — once with the original
//! clone path (`CheckOptions::with_incremental(false)`: re-encode the
//! pinned system and build fresh solvers per assignment) and once with
//! the incremental path (assumption literals over one shared unrolling,
//! one solver pair per worker, unsat-core pruning) — at `jobs = 1` and
//! `jobs = N`, asserting the verdict vectors are identical before
//! reporting the speedup:
//!
//! 1. **Rollout synthesis** (case study 1): the 16-assignment `(p, k, m)`
//!    cross product on `fat_tree(4)` (pass `--topology test` for a smoke
//!    run), verified by k-induction.
//! 2. **`step_counter.vd`** (the README's `verdict synth` example): the
//!    3-assignment `step` sweep, parsed through the DSL front end.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use verdict_bench::{flag_value, fmt_duration, host_provenance_json, sample_cores, timed};
use verdict_dsl::{parse, CompiledProperty};
use verdict_mc::params::{synthesize, Property, SynthesisEngine, SynthesisResult};
use verdict_mc::{CheckOptions, Durability};
use verdict_models::{RolloutModel, RolloutSpec, Topology};
use verdict_ts::{System, VarId};

/// Runs `f` `reps` times and keeps the fastest wall clock (the result is
/// deterministic, so any repetition's output will do).
fn best_of(reps: usize, mut f: impl FnMut() -> SynthesisResult) -> (SynthesisResult, Duration) {
    let (mut out, mut best) = timed(&mut f);
    for _ in 1..reps {
        let (r, wall) = timed(&mut f);
        if wall < best {
            best = wall;
            out = r;
        }
    }
    (out, best)
}

fn assert_same_verdicts(a: &SynthesisResult, b: &SynthesisResult, what: &str) {
    assert_eq!(a.verdicts.len(), b.verdicts.len(), "{what}");
    for (x, y) in a.verdicts.iter().zip(&b.verdicts) {
        assert_eq!(x.values, y.values, "{what}: sweep order changed");
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

struct CaseReport {
    name: String,
    assignments: usize,
    clone_seq: Duration,
    inc_seq: Duration,
    clone_par: Duration,
    inc_par: Duration,
}

#[allow(clippy::too_many_arguments)]
fn run_case(
    name: &str,
    sys: &System,
    params: &[VarId],
    prop: &Property,
    depth: usize,
    jobs: usize,
    reps: usize,
) -> CaseReport {
    let engine = SynthesisEngine::KInduction;
    let opts = |jobs: usize, incremental: bool| {
        CheckOptions::with_depth(depth)
            .with_jobs(jobs)
            .with_incremental(incremental)
    };
    let sweep = |opts: CheckOptions| {
        synthesize(sys, params, prop, engine, &opts, false, &Durability::none()).unwrap()
    };
    let (clone_r, clone_seq) = best_of(reps, || sweep(opts(1, false)));
    let (inc_r, inc_seq) = best_of(reps, || sweep(opts(1, true)));
    assert_same_verdicts(&clone_r, &inc_r, name);
    let (clone_p, clone_par) = best_of(reps, || sweep(opts(jobs, false)));
    let (inc_p, inc_par) = best_of(reps, || sweep(opts(jobs, true)));
    assert_same_verdicts(&clone_r, &clone_p, name);
    assert_same_verdicts(&clone_r, &inc_p, name);

    let seq_speedup = clone_seq.as_secs_f64() / inc_seq.as_secs_f64().max(1e-9);
    let par_speedup = clone_par.as_secs_f64() / inc_par.as_secs_f64().max(1e-9);
    println!(
        "{name} ({} assignments, kind, depth {depth}):",
        clone_r.verdicts.len()
    );
    println!(
        "  jobs 1      clone {:>8}   incremental {:>8}   ({seq_speedup:.2}x)",
        fmt_duration(clone_seq),
        fmt_duration(inc_seq)
    );
    println!(
        "  jobs {jobs}      clone {:>8}   incremental {:>8}   ({par_speedup:.2}x)\n",
        fmt_duration(clone_par),
        fmt_duration(inc_par)
    );
    CaseReport {
        name: name.to_string(),
        assignments: clone_r.verdicts.len(),
        clone_seq,
        inc_seq,
        clone_par,
        inc_par,
    }
}

fn main() {
    let jobs: usize = flag_value("--jobs")
        .and_then(|j| j.parse().ok())
        .unwrap_or(4);
    let depth: usize = flag_value("--depth")
        .and_then(|d| d.parse().ok())
        .unwrap_or(10);
    let reps: usize = flag_value("--reps")
        .and_then(|r| r.parse().ok())
        .unwrap_or(3)
        .max(1);
    let out: PathBuf = flag_value("--out").map_or_else(
        || {
            PathBuf::from(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../BENCH_synth.json"
            ))
        },
        PathBuf::from,
    );
    let cores = sample_cores();

    println!(
        "incremental synthesis benchmark (jobs {jobs}, depth {depth}, best of {reps}, {cores} core(s))\n"
    );

    // ---- Case study 1: rollout (p, k, m) sweep. -----------------------
    let (topo_name, topo) = match flag_value("--topology").as_deref() {
        Some("test") => ("test", Topology::test_topology()),
        _ => ("fattree4", Topology::fat_tree(4)),
    };
    let spec = RolloutSpec {
        k_max: 1,
        m_max: 1,
        ..RolloutSpec::paper(topo)
    };
    let model = RolloutModel::build(&spec).expect("valid topology");
    let rollout_prop = Property::Invariant(model.property.clone());
    let rollout = run_case(
        &format!("rollout_{topo_name}"),
        &model.system,
        &[model.p, model.k, model.m],
        &rollout_prop,
        depth,
        jobs,
        reps,
    );

    // ---- Case study 2: the step_counter.vd DSL example. ---------------
    let source = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/models/step_counter.vd"
    ));
    let dsl = parse(source).expect("step_counter.vd parses");
    let step = dsl
        .system
        .var_by_name("step")
        .expect("step_counter.vd has a `step` param");
    let (_, CompiledProperty::Invariant(p)) = &dsl.properties[0] else {
        panic!("step_counter.vd's first property is an invariant");
    };
    let counter_prop = Property::Invariant(p.clone());
    let counter = run_case(
        "step_counter",
        &dsl.system,
        &[step],
        &counter_prop,
        depth,
        jobs,
        reps,
    );

    let mut cases = String::new();
    for (i, c) in [&rollout, &counter].into_iter().enumerate() {
        let seq_speedup = c.clone_seq.as_secs_f64() / c.inc_seq.as_secs_f64().max(1e-9);
        let par_speedup = c.clone_par.as_secs_f64() / c.inc_par.as_secs_f64().max(1e-9);
        let _ = write!(
            cases,
            "{}    {{\"name\": \"{}\", \"assignments\": {}, \"depth\": {depth}, \
             \"jobs1\": {{\"clone_secs\": {:.6}, \"incremental_secs\": {:.6}, \
             \"speedup\": {seq_speedup:.3}}}, \
             \"jobs{jobs}\": {{\"clone_secs\": {:.6}, \"incremental_secs\": {:.6}, \
             \"speedup\": {par_speedup:.3}}}}}",
            if i == 0 { "" } else { ",\n" },
            c.name,
            c.assignments,
            c.clone_seq.as_secs_f64(),
            c.inc_seq.as_secs_f64(),
            c.clone_par.as_secs_f64(),
            c.inc_par.as_secs_f64(),
        );
    }
    // Re-sample after the measured runs: if the host lost cores mid-run
    // the degraded flag must reflect the worst budget observed.
    let host = host_provenance_json(cores.min(sample_cores()), jobs, reps);
    let json = format!(
        "{{\n  \"host\": {host},\n  \
         \"reps\": {reps},\n  \"cases\": [\n{cases}\n  ]\n}}\n"
    );
    std::fs::write(&out, json).expect("write BENCH_synth.json");
    println!("wrote {}", out.display());
}
