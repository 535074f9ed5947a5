//! Measures the parallel verification layer and writes
//! `BENCH_parallel.json` to the repo root.
//!
//! ```text
//! cargo run -p verdict-bench --release --bin parallel -- \
//!     [--jobs N] [--depth D] [--out PATH]
//! ```
//!
//! Two experiments on case study 1 (rollout + partition, test topology):
//!
//! 1. **Synthesis sweep** — the 16-assignment `(p, k, m)` cross product
//!    (`p ∈ 0..=3`, `k ∈ 0..=1`, `m ∈ 0..=1`), verified by k-induction,
//!    sequentially (`jobs = 1`) vs. sharded over a worker pool
//!    (`jobs = N`), plus the first-safe early-exit mode. Assignments are
//!    independent, so the sharded sweep scales with physical cores; the
//!    early-exit speedup is algorithmic and shows up even on one core.
//! 2. **Portfolio racing** — Fig. 5/6-style configurations checked by the
//!    portfolio engine (BMC vs. k-induction vs. BDD, first definitive
//!    verdict wins), against each engine run alone, with a histogram of
//!    which engine won.
//!
//! The JSON records `available_parallelism` so a reader can tell whether
//! a sweep speedup was even attainable on the measuring host.

use std::fmt::Write as _;
use std::path::PathBuf;

use verdict_bench::{flag_value, fmt_duration, host_provenance_json, sample_cores, timed};
use verdict_mc::params::{synthesize, Property, SynthesisEngine};
use verdict_mc::prelude::*;
use verdict_mc::{Durability, Stats};
use verdict_models::{RolloutModel, RolloutSpec, Topology};

fn verdict_str(r: &CheckResult) -> &'static str {
    match r {
        CheckResult::Holds => "holds",
        CheckResult::Violated(_) => "violated",
        CheckResult::Unknown(_) => "unknown",
    }
}

fn main() {
    let jobs: usize = flag_value("--jobs")
        .and_then(|j| j.parse().ok())
        .unwrap_or(4);
    let depth: usize = flag_value("--depth")
        .and_then(|d| d.parse().ok())
        .unwrap_or(10);
    let out: PathBuf = flag_value("--out").map_or_else(
        || {
            PathBuf::from(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../BENCH_parallel.json"
            ))
        },
        PathBuf::from,
    );
    let cores = sample_cores();

    println!("parallel verification benchmark (jobs {jobs}, depth {depth}, {cores} core(s))\n");

    // ---- Experiment 1: the 16-assignment synthesis sweep. -------------
    // fattree4 (Fig. 6's second data point) makes each k-induction run
    // substantial, so pool overhead is negligible next to the work being
    // sharded; pass --topology test for a quick smoke run.
    let topo = match flag_value("--topology").as_deref() {
        Some("test") => Topology::test_topology(),
        _ => Topology::fat_tree(4),
    };
    let spec = RolloutSpec {
        k_max: 1,
        m_max: 1,
        ..RolloutSpec::paper(topo)
    };
    let model = RolloutModel::build(&spec).expect("valid topology");
    let prop = Property::Invariant(model.property.clone());
    let params = [model.p, model.k, model.m];
    let engine = SynthesisEngine::KInduction;

    let sweep = |opts: &CheckOptions, first_safe: bool| {
        let none = Durability::none();
        synthesize(
            &model.system,
            &params,
            &prop,
            engine,
            opts,
            first_safe,
            &none,
        )
        .unwrap()
    };
    let seq_opts = CheckOptions::with_depth(depth).with_jobs(1);
    let (seq, seq_wall) = timed(|| sweep(&seq_opts, false));
    let par_opts = CheckOptions::with_depth(depth).with_jobs(jobs);
    let (par, par_wall) = timed(|| sweep(&par_opts, false));
    let (first_safe, fs_wall) = timed(|| sweep(&par_opts, true));
    assert_eq!(seq.verdicts.len(), par.verdicts.len());
    for (a, b) in seq.verdicts.iter().zip(&par.verdicts) {
        assert_eq!(a.values, b.values, "sharding must not reorder verdicts");
        assert_eq!(a.result.holds(), b.result.holds());
        assert_eq!(a.result.violated(), b.result.violated());
    }
    let speedup = seq_wall.as_secs_f64() / par_wall.as_secs_f64().max(1e-9);
    let fs_speedup = seq_wall.as_secs_f64() / fs_wall.as_secs_f64().max(1e-9);
    let checked_in_first_safe = first_safe
        .verdicts
        .iter()
        .filter(|v| !matches!(v.result, CheckResult::Unknown(_)))
        .count();

    println!(
        "synthesis sweep ({} assignments, kind, depth {depth}):",
        seq.verdicts.len()
    );
    println!("  jobs 1      {}", fmt_duration(seq_wall));
    println!(
        "  jobs {jobs}      {}   ({speedup:.2}x)",
        fmt_duration(par_wall)
    );
    println!(
        "  first-safe  {}   ({fs_speedup:.2}x, {checked_in_first_safe}/{} assignments checked)\n",
        fmt_duration(fs_wall),
        first_safe.verdicts.len()
    );

    // ---- Experiment 2: portfolio racing on Fig. 5/6 configurations. ---
    let paper_model = RolloutModel::build(&RolloutSpec::paper(Topology::test_topology()))
        .expect("valid topology");
    let configs: [(i64, i64, i64); 6] = [
        (1, 2, 1),
        (0, 0, 1),
        (1, 0, 1),
        (1, 1, 1),
        (2, 0, 3),
        (2, 1, 1),
    ];
    let mut histogram: Vec<(EngineKind, usize)> = Vec::new();
    let mut config_rows = String::new();
    println!("portfolio racing (bmc vs kind vs bdd), per configuration:");
    for (i, &(p, k, m)) in configs.iter().enumerate() {
        let sys = paper_model.pinned(p, k, m);
        let opts = CheckOptions::with_depth(12);
        let report = Verifier::new(&sys)
            .engine(EngineKind::Portfolio)
            .options(opts.clone())
            .check(&CompiledProperty::Invariant(paper_model.property.clone()))
            .unwrap();
        let (b, b_wall) = timed(|| {
            verdict_mc::engine(EngineKind::Bmc)
                .check_invariant(&sys, &paper_model.property, &opts, &mut Stats::default())
                .unwrap()
        });
        let (ki, k_wall) = timed(|| {
            verdict_mc::engine(EngineKind::KInduction)
                .check_invariant(&sys, &paper_model.property, &opts, &mut Stats::default())
                .unwrap()
        });
        let (bd, d_wall) = timed(|| {
            verdict_mc::engine(EngineKind::Bdd)
                .check_invariant(&sys, &paper_model.property, &opts, &mut Stats::default())
                .unwrap()
        });
        // The portfolio verdict must agree with every definitive
        // sequential verdict.
        for (name, r) in [("bmc", &b), ("kind", &ki), ("bdd", &bd)] {
            if r.holds() || r.violated() {
                assert_eq!(
                    report.result.violated(),
                    r.violated(),
                    "portfolio disagrees with {name} on (p={p},k={k},m={m})"
                );
            }
        }
        match histogram.iter_mut().find(|(e, _)| *e == report.winner) {
            Some((_, n)) => *n += 1,
            None => histogram.push((report.winner, 1)),
        }
        println!(
            "  (p={p},k={k},m={m})  {:<9} won by {:<10?} {:>8}  (solo: bmc {}, kind {}, bdd {})",
            verdict_str(&report.result),
            report.winner,
            fmt_duration(report.wall),
            fmt_duration(b_wall),
            fmt_duration(k_wall),
            fmt_duration(d_wall),
        );
        let _ = write!(
            config_rows,
            "{}    {{\"p\": {p}, \"k\": {k}, \"m\": {m}, \"verdict\": \"{}\", \
             \"winner\": \"{:?}\", \"wall_secs\": {:.6}, \"solo_secs\": \
             {{\"bmc\": {:.6}, \"kind\": {:.6}, \"bdd\": {:.6}}}}}",
            if i == 0 { "" } else { ",\n" },
            verdict_str(&report.result),
            report.winner,
            report.wall.as_secs_f64(),
            b_wall.as_secs_f64(),
            k_wall.as_secs_f64(),
            d_wall.as_secs_f64(),
        );
    }
    let mut hist_json = String::new();
    for (i, (e, n)) in histogram.iter().enumerate() {
        let _ = write!(
            hist_json,
            "{}\"{e:?}\": {n}",
            if i == 0 { "" } else { ", " }
        );
    }
    println!("\nwinner histogram: {hist_json}");

    // Re-sample after the measured runs: if the host lost cores mid-run
    // the degraded flag must reflect the worst budget observed.
    let host = host_provenance_json(cores.min(sample_cores()), jobs, 1);
    let json = format!(
        "{{\n  \"host\": {host},\n  \"sweep\": {{\n    \
         \"model\": \"{}\",\n    \"engine\": \"kind\",\n    \"depth\": {depth},\n    \
         \"assignments\": {},\n    \"wall_secs_jobs1\": {:.6},\n    \
         \"wall_secs_jobs{jobs}\": {:.6},\n    \"speedup_jobs{jobs}\": {speedup:.3},\n    \
         \"first_safe_wall_secs\": {:.6},\n    \"first_safe_speedup\": {fs_speedup:.3},\n    \
         \"first_safe_assignments_checked\": {checked_in_first_safe}\n  }},\n  \
         \"portfolio\": {{\n    \"configs\": [\n{config_rows}\n    ],\n    \
         \"winner_histogram\": {{{hist_json}}}\n  }}\n}}\n",
        model.system.name(),
        seq.verdicts.len(),
        seq_wall.as_secs_f64(),
        par_wall.as_secs_f64(),
        fs_wall.as_secs_f64(),
    );
    std::fs::write(&out, json).expect("write BENCH_parallel.json");
    println!("wrote {}", out.display());
}
