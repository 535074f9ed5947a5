//! `grid`: the scenario factory's base grid plus seeded extra draws, one
//! property per job, run certified through `spec::execute` at
//! `jobs = 1` for repeated passes.

use std::collections::HashSet;
use std::time::Instant;

use verdict_mc::spec::{self, ExecContext, JobSpec, VerdictRow};
use verdict_scenarios::{Expectation, GenConfig, Pattern, PropKind, Scenario};

use crate::counts::{Counts, Phases};
use crate::metrics::GRID;
use crate::stats::{fastest, fastest_per_job, mean, percentile};
use crate::trace::{self, Tracer};
use crate::{host, keep_going, Args, Failure, Outcome, Tally};

/// Seeded extra instances per pattern of [`SEEDED`] on top of the fixed
/// 41-instance grid: the seed picks them, so each seed runs a slightly
/// different mix while the fixed grid stays most of the work. Four per
/// pattern make 106 jobs, enough for a p90 over jobs with ten beyond it.
pub const EXTRA_SAMPLES: usize = 4;

/// Patterns the seed draws extras from. Their instances all decide in a
/// few milliseconds; a random cascading-failover or autoscaler point
/// costs anywhere from 2 to 270 ms certified, which would make the
/// seed, not the program, set a run's throughput.
const SEEDED: [Pattern; 3] = [
    Pattern::RolloutLb,
    Pattern::ConfigCanary,
    Pattern::SplitBrain,
];

/// Times `generate` is repeated before the timed phase. Each pass is
/// followed by [`SETUP_REPS_PER_PASS`] more, and `setup_s` is the
/// fastest of them all: the host's speed changes in phases of seconds
/// to minutes, and set-up samples taken across the whole run include
/// some a slow phase did not touch, as each job's fastest pass does.
pub const SETUP_REPS: usize = 51;
const SETUP_REPS_PER_PASS: usize = 5;

/// One property of one scenario as a job, with its ground truth.
pub struct PropJob {
    pub spec: JobSpec,
    pub expected: Expectation,
    pub kind: PropKind,
    pub label: String,
    /// Part of the fixed base grid rather than a seeded draw. The
    /// per-answer job times average over these only, so that how many
    /// safe and unsafe points a seed draws does not move them.
    pub base: bool,
}

/// The grid in two `generate` calls: the seeded patterns with their
/// extra draws, and the other patterns' fixed grid alone.
fn gen_configs(seed: u64) -> [GenConfig; 2] {
    let rest = Pattern::ALL
        .into_iter()
        .filter(|p| !SEEDED.contains(p))
        .collect();
    [
        GenConfig {
            seed,
            samples: EXTRA_SAMPLES,
            patterns: SEEDED.to_vec(),
        },
        GenConfig {
            seed,
            samples: 0,
            patterns: rest,
        },
    ]
}

/// Every property of every scenario, one job each.
pub fn prop_jobs(scenarios: &[Scenario], certify: bool) -> Vec<PropJob> {
    let base: HashSet<String> = verdict_scenarios::generate(&GenConfig::default())
        .into_iter()
        .map(|s| s.id)
        .collect();
    let mut jobs = Vec::new();
    for s in scenarios {
        for p in &s.properties {
            let mut spec = JobSpec::check(&s.source);
            spec.prop = Some(p.name.to_string());
            spec.certify = certify;
            jobs.push(PropJob {
                spec,
                expected: p.expected,
                kind: p.kind,
                label: format!("{}/{}", s.id, p.name),
                base: base.contains(&s.id),
            });
        }
    }
    jobs
}

/// Checks a job's verdict rows against its ground truth: `Ok(true)` for
/// a decided, matching verdict, `Ok(false)` for an unknown, `Err` for a
/// verdict that contradicts the known answer.
pub fn check_rows(job: &PropJob, rows: &[VerdictRow]) -> Result<bool, String> {
    let [row] = rows else {
        return Err(format!(
            "{}: expected one verdict row, got {}",
            job.label,
            rows.len()
        ));
    };
    if !row.decided() {
        eprintln!(
            "perfbench: {} undecided: {} ({})",
            job.label, row.verdict, row.detail
        );
        return Ok(false);
    }
    if row.verdict != job.expected.tag() {
        return Err(format!(
            "{}: got {}, ground truth is {} ({})",
            job.label,
            row.verdict,
            job.expected.tag(),
            row.detail
        ));
    }
    Ok(true)
}

/// Times `generate` `reps` times; returns the scenarios and each
/// repetition's time in seconds.
pub fn timed_generate(seed: u64, reps: usize, tracer: &mut Tracer) -> (Vec<Scenario>, Vec<f64>) {
    let cfgs = gen_configs(seed);
    let setup = tracer.begin("bench.setup", None, None);
    let mut times = Vec::new();
    let mut scenarios = Vec::new();
    for _ in 0..reps {
        let (s, t) = tracer.time("scenarios.generate", Some(setup.id), None, || {
            cfgs.iter().flat_map(verdict_scenarios::generate).collect()
        });
        scenarios = s;
        times.push(t);
    }
    tracer.end(setup);
    (scenarios, times)
}

/// One job's measurements in one pass.
struct JobSample {
    /// The whole job: parse, execute and the verdict check.
    job_s: f64,
    parse_s: f64,
    exec_s: f64,
    phases: Phases,
}

struct Pass {
    traced: bool,
    wall_s: f64,
    span_id: u64,
    jobs: Vec<JobSample>,
    counts: Counts,
}

fn run_pass(
    jobs: &[PropJob],
    ctx: &ExecContext,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<Pass, Failure> {
    let pass = tracer.begin("bench.pass", None, None);
    let span_id = pass.id;
    let mut samples = Vec::with_capacity(jobs.len());
    let mut counts = Counts::default();
    for (i, job) in jobs.iter().enumerate() {
        let jid = Some(i as u64);
        let open = tracer.begin("bench.job", Some(span_id), jid);
        let (parsed, parse_s) = tracer.time("dsl.parse", Some(open.id), jid, || {
            verdict_dsl::parse(&job.spec.source).map(|_| ())
        });
        parsed.map_err(|e| Failure::Broken(format!("{}: model does not parse: {e}", job.label)))?;
        let ((rows, stats), exec_s) = tracer.time("mc.execute", Some(open.id), jid, || {
            spec::execute(&job.spec, ctx)
        });
        let stats = stats.ok_or_else(|| format!("{}: execute returned no stats", job.label))?;
        tally.attempted += 1;
        match check_rows(job, &rows) {
            Ok(true) => tally.correct += 1,
            Ok(false) => tally.failed += 1,
            Err(why) => {
                return Err(Failure::Wrong {
                    attempted: tally.attempted,
                    why,
                })
            }
        }
        counts.add(&stats);
        samples.push(JobSample {
            job_s: tracer.end(open),
            parse_s,
            exec_s,
            phases: Phases::of(&stats),
        });
    }
    let wall_s = tracer.end(pass);
    Ok(Pass {
        traced: tracer.enabled,
        wall_s,
        span_id,
        jobs: samples,
        counts,
    })
}

pub fn run(args: &Args) -> Result<Outcome, Failure> {
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin, 0, args.traced);
    let (scenarios, mut setup_times) = timed_generate(args.seed, SETUP_REPS, &mut tracer);
    let jobs = prop_jobs(&scenarios, true);
    let ctx = ExecContext {
        jobs: 1,
        ..ExecContext::default()
    };
    eprintln!("perfbench: {}", host::provenance(GRID, args.seed, None));
    eprintln!(
        "perfbench: grid: {} scenarios, {} property jobs",
        scenarios.len(),
        jobs.len()
    );

    // One untimed pass first: every verdict is checked before any
    // timing starts, and allocator and page-cache warm-up is paid here.
    run_pass(&jobs, &ctx, &mut tracer, &mut Tally::default())?;
    tracer.spans.clear();

    let mut tally = Tally::default();
    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    while keep_going(
        args,
        start,
        passes.len(),
        passes.last().map_or(0.0, |p| p.wall_s),
    ) {
        // Traced runs alternate traced and untraced passes, so the
        // difference between the two is the tracing overhead.
        tracer.enabled = args.traced && passes.len().is_multiple_of(2);
        passes.push(run_pass(&jobs, &ctx, &mut tracer, &mut tally)?);
        setup_times.extend(timed_generate(args.seed, SETUP_REPS_PER_PASS, &mut tracer).1);
    }
    let wall = start.elapsed().as_secs_f64();
    eprintln!("perfbench: grid: {} passes in {wall:.2} s", passes.len());

    let metrics = if args.traced {
        layer_metrics(args, &jobs, &passes, &setup_times, &tracer.spans)?
    } else {
        let best = fastest_jobs(&passes.iter().collect::<Vec<_>>());
        // Mean job time over the base grid's jobs with answer `want`, in ms.
        let of = |want: Expectation| -> f64 {
            let times: Vec<f64> = best
                .iter()
                .zip(&jobs)
                .filter(|(_, j)| j.base && j.expected == want)
                .map(|(s, _)| s.job_s * 1e3)
                .collect();
            mean(&times).unwrap_or_default()
        };
        let pass_s: f64 = best.iter().map(|j| j.job_s).sum();
        vec![
            ("setup_s", fastest(&setup_times)),
            (
                "verdicts_per_s",
                tally.correct as f64 / passes.len() as f64 / pass_s,
            ),
            ("safe_job_ms", of(Expectation::Safe)),
            ("unsafe_job_ms", of(Expectation::Unsafe)),
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

/// Each job's sample from its fastest pass among `passes`.
fn fastest_jobs<'a>(passes: &[&'a Pass]) -> Vec<&'a JobSample> {
    let samples: Vec<&[JobSample]> = passes.iter().map(|p| p.jobs.as_slice()).collect();
    fastest_per_job(&samples, |j| j.job_s)
}

fn layer_metrics(
    args: &Args,
    jobs: &[PropJob],
    passes: &[Pass],
    setup_times: &[f64],
    spans: &[trace::Span],
) -> Result<Vec<(&'static str, f64)>, Failure> {
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    if traced.is_empty() || untraced.is_empty() {
        return Err(Failure::Broken(
            "a traced run needs two passes; raise --seconds".into(),
        ));
    }
    let exec_ms: Vec<f64> = fastest_jobs(&untraced)
        .iter()
        .map(|j| j.exec_s * 1e3)
        .collect();
    let pct =
        |q: f64| percentile(&exec_ms, q).ok_or_else(|| format!("too few jobs for p{}", q * 100.0));
    let best = fastest_jobs(&traced);
    let of_kind = |kind: PropKind, f: fn(&JobSample) -> f64| -> f64 {
        best.iter()
            .zip(jobs)
            .filter(|(_, j)| j.kind == kind)
            .map(|(s, _)| f(s))
            .sum()
    };
    // Fastest traced pass over fastest untraced pass, as every other
    // local time is taken.
    let wall = |ps: &[&Pass]| fastest(&ps.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let ids: Vec<u64> = traced.iter().map(|p| p.span_id).collect();
    let self_ms = trace::bench_self_ms(spans, &ids);
    let parse_ms = best.iter().map(|j| j.parse_s).sum::<f64>() * 1e3;
    let counts: Vec<Counts> = passes.iter().map(|p| p.counts).collect();
    let c = counts[0];
    let inv = PropKind::Invariant;
    let ltl = PropKind::Ltl;
    Ok(vec![
        ("scenarios.generate_ms", fastest(setup_times) * 1e3),
        ("dsl.parse_ms", parse_ms),
        ("mc.execute_p50_ms", pct(0.5)?),
        ("mc.execute_p90_ms", pct(0.9)?),
        ("mc.inv.encode_s", of_kind(inv, |s| s.phases.encode)),
        ("mc.inv.solve_s", of_kind(inv, |s| s.phases.solve)),
        ("mc.inv.certify_s", of_kind(inv, |s| s.phases.certify)),
        (
            "mc.inv.other_s",
            of_kind(inv, |s| s.exec_s - s.phases.total()),
        ),
        ("mc.ltl.encode_s", of_kind(ltl, |s| s.phases.encode)),
        ("mc.ltl.solve_s", of_kind(ltl, |s| s.phases.solve)),
        ("mc.ltl.certify_s", of_kind(ltl, |s| s.phases.certify)),
        (
            "mc.ltl.other_s",
            of_kind(ltl, |s| s.exec_s - s.phases.total()),
        ),
        ("sat.conflicts", c.sat_conflicts as f64),
        ("sat.decisions", c.sat_decisions as f64),
        ("sat.propagations", c.sat_propagations as f64),
        ("bdd.nodes_allocated", c.bdd_nodes_allocated as f64),
        ("bdd.peak_live_nodes", c.bdd_peak_live_nodes as f64),
        ("bdd.ite_hit_rate", c.ite_hit_rate()),
        ("mc.fixpoint_iterations", c.fixpoint_iterations as f64),
        (
            "trace.overhead_pct",
            (wall(&traced) / wall(&untraced) - 1.0) * 100.0,
        ),
        ("bench.self_ms", self_ms),
        (
            "counts.mismatches",
            Counts::mismatches(&counts, GRID, args.seed) as f64,
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_fixed_base_grid_is_marked_base() {
        let scenarios: Vec<Scenario> = gen_configs(7)
            .iter()
            .flat_map(verdict_scenarios::generate)
            .collect();
        let jobs = prop_jobs(&scenarios, false);
        assert_eq!(jobs.iter().filter(|j| j.base).count(), 82);
        assert_eq!(jobs.len(), 106);
    }
}
