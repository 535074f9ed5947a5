//! `fattree`: the paper's corpus at fat-tree scale, a fixed list of
//! jobs with answers taken from the paper, at the `fig6` defaults
//! (p = m = 1, falsification depth 8, verification depth bound 64).
//!
//! The largest instance is fattree4. On the 2-core virtual machine the
//! benchmark was tuned on, the fattree6 jobs take 1–1.5 s each, so a
//! run fits only four to seven passes over them, and the machine's slow
//! phases, which last longer than a pass, then set the fastest pass of
//! every job: over ten runs the workload's times spread by 26–30%
//! between quartiles. At fattree4 a pass takes about 0.3 s and a run
//! makes over a hundred.

use std::time::Instant;

use verdict_mc::params::Property;
use verdict_mc::prelude::*;
use verdict_mc::result::McError;
use verdict_mc::Stats;
use verdict_models::lb_ecmp::{LbModel, LbSpec};
use verdict_models::{RolloutModel, RolloutSpec, Topology};
use verdict_ts::{replay, Expr, Ltl, System, Value, VarId};

use crate::counts::{Counts, Phases};
use crate::metrics::FATTREE;
use crate::stats::{fastest, fastest_per_job, mean};
use crate::trace::{bench_self_ms, Tracer};
use crate::{host, keep_going, Args, Failure, Outcome, Tally};

/// `fig6`'s falsification depth.
const FALSIFY_DEPTH: usize = 8;
/// `fig6`'s verification depth bound (k-induction stops once it proves).
const VERIFY_DEPTH: usize = 64;
/// Times the models are built before the timed phase. They are built
/// once more after each pass, and `setup_s` is the fastest build of
/// the run, as in `grid`.
const SETUP_REPS: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Falsify,
    Verify,
    Synth,
}

enum Work {
    Invariant {
        engine: EngineKind,
        sys: System,
        prop: Expr,
        depth: usize,
        violated: bool,
        /// Replay the counterexample through `verdict_ts::replay`. Off
        /// for fat-tree traces: the reference interpreter evaluates the
        /// reachability expressions as trees, and one fattree4 trace ran
        /// for over 80 s without finishing.
        replay: bool,
    },
    Ltl {
        engine: EngineKind,
        sys: System,
        phi: Ltl,
        depth: usize,
    },
    /// Synthesis over `p` with the other parameters pinned; `safe` lists
    /// the values of `p` the paper's answer says are safe.
    Synth {
        sys: System,
        param: VarId,
        prop: Expr,
        safe: &'static [i64],
    },
}

struct Job {
    name: &'static str,
    class: Class,
    work: Work,
}

/// The corpus. Known answers:
/// * Fig. 5: on the test topology, p = 1, k = 2, m = 1 is violated.
/// * Fig. 6 with footnote 6: the front end is cut off at k_fail = 2 on
///   fattree4 (footnote 6: k = 2 already fails there); k = 0 and 1
///   verify.
/// * §4.2: for k = 1, m = 1 the safe nonzero p are {1, 2} on the test
///   topology; p = 0 (nothing updated) is safe too and p = 3 is not.
/// * §4.2, case study 2: both `F G stable` and `equilibrium -> F G
///   stable` fail with an oscillating lasso.
fn corpus(tracer: &mut Tracer, parent: u64) -> Result<Vec<Job>, String> {
    let mut build = |t: Topology| {
        let spec = RolloutSpec::paper(t);
        let (model, _) = tracer.time("models.rollout_build", Some(parent), None, || {
            RolloutModel::build(&spec)
        });
        model
    };
    let test = build(Topology::test_topology())?;
    let ft4 = build(Topology::fat_tree(4))?;
    let (lb, _) = tracer.time("models.lb_build", Some(parent), None, || {
        LbModel::build(&LbSpec::default())
    });
    let inv = |name, class, engine, m: &RolloutModel, k, depth, violated| Job {
        name,
        class,
        work: Work::Invariant {
            engine,
            sys: m.pinned(1, k, 1),
            prop: m.property.clone(),
            depth,
            violated,
            replay: std::ptr::eq(m, &test),
        },
    };
    let synth = |name, m: &RolloutModel, safe| {
        let mut sys = m.system.clone();
        sys.add_invar(Expr::var(m.k).eq(Expr::int(1)));
        sys.add_invar(Expr::var(m.m).eq(Expr::int(1)));
        Job {
            name,
            class: Class::Synth,
            work: Work::Synth {
                sys,
                param: m.p,
                prop: m.property.clone(),
                safe,
            },
        }
    };
    let lasso = |name, phi: &Ltl| Job {
        name,
        class: Class::Falsify,
        work: Work::Ltl {
            engine: EngineKind::SmtBmc,
            sys: lb.system.clone(),
            phi: phi.clone(),
            depth: FALSIFY_DEPTH,
        },
    };
    use Class::{Falsify, Verify};
    use EngineKind::{Bdd, Bmc, KInduction};
    let jobs = vec![
        inv("fig5.test.k2", Falsify, Bmc, &test, 2, FALSIFY_DEPTH, true),
        inv(
            "fig6.fattree4.falsify.k2",
            Falsify,
            Bmc,
            &ft4,
            2,
            FALSIFY_DEPTH,
            true,
        ),
        lasso("case2.liveness", &lb.liveness),
        lasso("case2.conditional_liveness", &lb.conditional_liveness),
        inv(
            "fig6.fattree4.verify.k0",
            Verify,
            KInduction,
            &ft4,
            0,
            VERIFY_DEPTH,
            false,
        ),
        inv(
            "fig6.fattree4.verify.k1",
            Verify,
            KInduction,
            &ft4,
            1,
            VERIFY_DEPTH,
            false,
        ),
        inv(
            "fig6.fattree4.bdd.k1",
            Verify,
            Bdd,
            &ft4,
            1,
            VERIFY_DEPTH,
            false,
        ),
        synth("sec4.test.synth_p", &test, &[0, 1, 2]),
    ];
    Ok(jobs)
}

/// One job's measurements in one pass.
#[derive(Clone, Copy, Default)]
struct Sample {
    /// The whole job: the call, the verdict checks and replays.
    job_s: f64,
    call_s: f64,
    phases: Phases,
    /// Verdicts the call returned (assignments, for synthesis).
    verdicts: u64,
    /// Whether any verdict was a violation, which the paper's answer
    /// has already confirmed: the job counts toward `unsafe_job_ms`.
    violated: bool,
}

struct Pass {
    traced: bool,
    wall_s: f64,
    span_id: u64,
    samples: Vec<Sample>,
    counts: Counts,
}

impl Tally {
    /// Scores one verdict: unknowns count as failed, a contradiction of
    /// the known answer fails the run.
    fn score(
        &mut self,
        job: &str,
        result: &CheckResult,
        want_violated: bool,
    ) -> Result<(), Failure> {
        self.attempted += 1;
        match result {
            CheckResult::Unknown(r) => {
                eprintln!("perfbench: {job} undecided: {r:?}");
                self.failed += 1;
                Ok(())
            }
            r if r.violated() == want_violated => {
                self.correct += 1;
                Ok(())
            }
            r => Err(Failure::Wrong {
                attempted: self.attempted,
                why: format!(
                    "{job}: got {r}, the paper's answer is {}",
                    if want_violated { "violated" } else { "holds" }
                ),
            }),
        }
    }
}

fn opts(depth: usize) -> CheckOptions {
    CheckOptions::with_depth(depth).with_jobs(1)
}

/// Runs one job, checks its verdicts and replays its counterexamples.
fn run_job(
    job: &Job,
    jid: u64,
    pass: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
    counts: &mut Counts,
) -> Result<Sample, Failure> {
    let open = tracer.begin("bench.job", Some(pass), Some(jid));
    let parent = Some(open.id);
    let mut stats = Stats::default();
    let mut sample = Sample::default();
    let fail = |e: McError| Failure::Broken(format!("{}: {e}", job.name));
    match &job.work {
        Work::Invariant {
            engine: kind,
            sys,
            prop,
            depth,
            violated,
            replay: replayable,
        } => {
            let (r, t) = tracer.time("mc.check_invariant", parent, Some(jid), || {
                engine(*kind).check_invariant(sys, prop, &opts(*depth), &mut stats)
            });
            let r = r.map_err(fail)?;
            tally.score(job.name, &r, *violated)?;
            sample.violated = *violated;
            if let Some(trace) = r.trace().filter(|_| *replayable) {
                replay::check_invariant_trace(sys, prop, trace).map_err(|e| Failure::Wrong {
                    attempted: tally.attempted,
                    why: format!("{}: counterexample does not replay: {e}", job.name),
                })?;
            }
            sample.call_s = t;
            sample.verdicts = 1;
        }
        Work::Ltl {
            engine: kind,
            sys,
            phi,
            depth,
        } => {
            let (r, t) = tracer.time("mc.check_ltl", parent, Some(jid), || {
                engine(*kind).check_ltl(sys, phi, &opts(*depth), &mut stats)
            });
            let r = r.map_err(fail)?;
            tally.score(job.name, &r, true)?;
            sample.violated = true;
            if let Some(trace) = r.trace() {
                if trace.loop_back.is_none() {
                    return Err(Failure::Wrong {
                        attempted: tally.attempted,
                        why: format!("{}: counterexample is not a lasso", job.name),
                    });
                }
                replay::check_ltl_trace(sys, phi, trace).map_err(|e| Failure::Wrong {
                    attempted: tally.attempted,
                    why: format!("{}: lasso does not replay: {e}", job.name),
                })?;
            }
            sample.call_s = t;
            sample.verdicts = 1;
        }
        Work::Synth {
            sys,
            param,
            prop,
            safe,
        } => {
            let verifier = Verifier::new(sys).options(opts(VERIFY_DEPTH).with_incremental(true));
            let property = Property::Invariant(prop.clone());
            let (r, t) = tracer.time("mc.synthesize_params", parent, Some(jid), || {
                verifier.synthesize_params(&[*param], &property)
            });
            let r = r.map_err(fail)?;
            for v in &r.verdicts {
                let [Value::Int(p)] = v.values[..] else {
                    return Err(Failure::Broken(format!(
                        "{}: unexpected assignment {:?}",
                        job.name, v.values
                    )));
                };
                let name = format!("{} p={p}", job.name);
                tally.score(&name, &v.result, !safe.contains(&p))?;
                sample.violated |= !safe.contains(&p);
                if let Some(trace) = v.result.trace() {
                    replay::check_invariant_trace(sys, prop, trace).map_err(|e| {
                        Failure::Wrong {
                            attempted: tally.attempted,
                            why: format!("{name}: counterexample does not replay: {e}"),
                        }
                    })?;
                }
            }
            sample.call_s = t;
            sample.verdicts = r.verdicts.len() as u64;
        }
    }
    sample.phases = Phases::of(&stats);
    counts.add(&stats);
    sample.job_s = tracer.end(open);
    Ok(sample)
}

fn run_pass(jobs: &[Job], tracer: &mut Tracer, tally: &mut Tally) -> Result<Pass, Failure> {
    let pass = tracer.begin("bench.pass", None, None);
    let span_id = pass.id;
    let mut counts = Counts::default();
    let mut samples = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        samples.push(run_job(job, i as u64, span_id, tracer, tally, &mut counts)?);
    }
    let wall_s = tracer.end(pass);
    Ok(Pass {
        traced: tracer.enabled,
        wall_s,
        span_id,
        samples,
        counts,
    })
}

/// Builds the corpus once, adding the build's time to `times`.
fn timed_corpus(tracer: &mut Tracer, times: &mut Vec<f64>) -> Result<Vec<Job>, String> {
    let setup = tracer.begin("bench.setup", None, None);
    let open = tracer.begin("models.build", Some(setup.id), None);
    let built = corpus(tracer, open.id);
    times.push(tracer.end(open));
    tracer.end(setup);
    built
}

pub fn run(args: &Args) -> Result<Outcome, Failure> {
    let mut tracer = Tracer::new(Instant::now(), 0, args.traced);
    eprintln!("perfbench: {}", host::provenance(FATTREE, args.seed, None));
    let mut setup_times = Vec::new();
    let mut jobs = Vec::new();
    for _ in 0..SETUP_REPS {
        jobs = timed_corpus(&mut tracer, &mut setup_times)?;
    }

    let mut tally = Tally::default();
    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    while keep_going(
        args,
        start,
        passes.len(),
        passes.last().map_or(0.0, |p| p.wall_s),
    ) {
        tracer.enabled = args.traced && passes.len().is_multiple_of(2);
        passes.push(run_pass(&jobs, &mut tracer, &mut tally)?);
        timed_corpus(&mut tracer, &mut setup_times)?;
    }
    let wall = start.elapsed().as_secs_f64();
    eprintln!("perfbench: fattree: {} passes in {wall:.2} s", passes.len());

    // Sum over one class of jobs of `f` at each job's fastest pass.
    let per_job = |ps: &[&Pass], class: Class, f: &dyn Fn(&Sample) -> f64| -> f64 {
        let samples: Vec<&[Sample]> = ps.iter().map(|p| p.samples.as_slice()).collect();
        fastest_per_job(&samples, |s| s.job_s)
            .into_iter()
            .zip(&jobs)
            .filter(|(_, j)| j.class == class)
            .map(|(s, _)| f(s))
            .sum()
    };
    let all: Vec<&Pass> = passes.iter().collect();
    let metrics = if args.traced {
        let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
        let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
        if untraced.is_empty() {
            return Err(Failure::Broken(
                "a traced run needs two passes; raise --seconds".into(),
            ));
        }
        let wall_of = |ps: &[&Pass]| fastest(&ps.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        let ids: Vec<u64> = traced.iter().map(|p| p.span_id).collect();
        let synth_calls = per_job(&traced, Class::Synth, &|s| s.call_s);
        let synth_assignments = per_job(&traced, Class::Synth, &|s| s.verdicts as f64);
        let counts: Vec<Counts> = passes.iter().map(|p| p.counts).collect();
        let c = counts[0];
        let t = &traced;
        vec![
            ("models.build_s", fastest(&setup_times)),
            (
                "mc.falsify.encode_s",
                per_job(t, Class::Falsify, &|s| s.phases.encode),
            ),
            (
                "mc.falsify.solve_s",
                per_job(t, Class::Falsify, &|s| s.phases.solve),
            ),
            (
                "mc.falsify.other_s",
                per_job(t, Class::Falsify, &|s| s.call_s - s.phases.total()),
            ),
            (
                "mc.verify.encode_s",
                per_job(t, Class::Verify, &|s| s.phases.encode),
            ),
            (
                "mc.verify.solve_s",
                per_job(t, Class::Verify, &|s| s.phases.solve),
            ),
            (
                "mc.verify.other_s",
                per_job(t, Class::Verify, &|s| s.call_s - s.phases.total()),
            ),
            (
                "mc.synth.assignment_ms",
                synth_calls * 1e3 / synth_assignments.max(1.0),
            ),
            ("sat.conflicts", c.sat_conflicts as f64),
            ("sat.decisions", c.sat_decisions as f64),
            ("sat.propagations", c.sat_propagations as f64),
            ("smt.pivots", c.smt_pivots as f64),
            ("bdd.nodes_allocated", c.bdd_nodes_allocated as f64),
            ("bdd.peak_live_nodes", c.bdd_peak_live_nodes as f64),
            ("bdd.ite_hit_rate", c.ite_hit_rate()),
            ("mc.fixpoint_iterations", c.fixpoint_iterations as f64),
            (
                "trace.overhead_pct",
                (wall_of(&traced) / wall_of(&untraced) - 1.0) * 100.0,
            ),
            ("bench.self_ms", bench_self_ms(&tracer.spans, &ids)),
            (
                "counts.mismatches",
                Counts::mismatches(&counts, FATTREE, args.seed) as f64,
            ),
        ]
    } else {
        let verdicts_per_pass = tally.correct as f64 / passes.len() as f64;
        let samples: Vec<&[Sample]> = all.iter().map(|p| p.samples.as_slice()).collect();
        let best = fastest_per_job(&samples, |s| s.job_s);
        let pass_s: f64 = best.iter().map(|s| s.job_s).sum();
        // Mean job time over the jobs with a violation or without, in ms.
        let of = |violated: bool| -> f64 {
            let times: Vec<f64> = best
                .iter()
                .filter(|s| s.violated == violated)
                .map(|s| s.job_s * 1e3)
                .collect();
            mean(&times).unwrap_or_default()
        };
        vec![
            ("setup_s", fastest(&setup_times)),
            ("verdicts_per_s", verdicts_per_pass / pass_s),
            ("safe_job_ms", of(false)),
            ("unsafe_job_ms", of(true)),
            ("decided_share", tally.decided_share()),
            ("peak_rss_mb", host::peak_rss_mb()?),
        ]
    };
    Ok(Outcome {
        tally,
        metrics,
        spans: std::mem::take(&mut tracer.spans),
    })
}
