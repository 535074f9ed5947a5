//! `verdict` — the command-line interface.
//!
//! ```text
//! verdict check <model.vd> [--prop NAME] [--engine E] [--depth N] [--timeout SECS]
//! verdict table1
//! verdict fig2 [--minutes N]
//! verdict fig1-dot
//! ```

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use verdict_dsl::parse;
use verdict_journal::json::quote;
use verdict_mc::params::SynthesisResult;
use verdict_mc::spec::{
    verdict_tag, ExecContext, JobKind, JobReport, JobSpec, JournalHook, PropertyOutcome, VerdictRow,
};
use verdict_mc::{CheckResult, EngineKind, TraceSink, STATS_SCHEMA_VERSION};

mod scenarios_cmd;
mod server_cmd;
mod sigint;

const USAGE: &str = "\
verdict — symbolic model checking for self-driving infrastructure control

USAGE:
    verdict check <model.vd> [OPTIONS]   check properties of a .vd model
    verdict synth <model.vd> --params a,b [OPTIONS]
                                         synthesize safe values for frozen params
    verdict blast <model.vd> --event EXPR --metric EXPR [OPTIONS]
                                         worst metric value reachable after event
    verdict serve --socket PATH --wal DIR [--workers N] [--queue N]
                  [--grace SECS] [--segment-bytes N] [--watchdog-grace-ms MS]
                  [--hedge-after-ms MS | --no-hedge] [--quarantine-after N]
                  [--quarantine-ttl SECS] [--fault SPEC | --fault-seed N]
                                         run the verdict daemon: accept jobs over a
                                         Unix-socket JSONL API, journal every
                                         acknowledged job in a group-commit WAL,
                                         recover in-flight jobs on restart, drain
                                         gracefully (exit 0) on SIGTERM/SIGINT.
                                         A watchdog escalates hung workers (stop
                                         flag -> solver poisoning -> abandonment
                                         with a respawned slot), slow jobs get a
                                         hedged second run on a spare worker, and
                                         specs that crash-loop are quarantined
    verdict submit <model.vd> --socket PATH [--synth --params a,b] [--prop NAME]
                  [--engine E] [--depth N] [--deadline SECS] [--certify]
                  [--resilient] [--no-wait] [--events] [--json]
                                         send a job to a running daemon; blocks for
                                         the verdict (check exit codes) unless
                                         --no-wait, which returns once the job is
                                         durably acknowledged. --resilient retries
                                         the submit across reconnects under an
                                         idempotency key (never double-runs)
    verdict unquarantine --socket PATH FINGERPRINT
                                         lift a crash-loop quarantine early (the
                                         fingerprint is printed in the rejection)
    verdict server-stats --socket PATH   print the daemon's stats JSON (schema 2,
                                         including the server and supervision
                                         counter groups)
    verdict scenarios [--pattern P,..] [--seed N] [--samples N] [--list]
                  [--jobs N] [--depth N] [--timeout SECS] [--certify]
                  [--engine E] [--socket PATH] [--json]
                                         generate the incident-driven scenario
                                         matrix (5 control-loop interference
                                         patterns x parameter grid, each instance
                                         with a ground-truth property pack), run
                                         every instance through the engines —
                                         locally on a worker pool, or via a
                                         running daemon with --socket — and score
                                         verdicts against expectations, rolled up
                                         per pattern with the Table 1 incident
                                         ids. --samples N adds seeded random
                                         parameter draws on top of the base grid;
                                         --list only enumerates. Exit codes:
                                         0 all verdicts match, 2 any mismatch,
                                         1 infrastructure failure, 130 interrupted
    verdict schema                       dump the versioned JSON output contract
                                         (field shapes for check/synth/scenarios/
                                         server-stats documents)
    verdict table1                       print the incident-study table (Table 1)
    verdict fig2 [--minutes N]           run the Fig. 2 cluster simulation
    verdict fig1-dot                     print the Fig. 1 interaction graph as DOT

OPTIONS (check/synth):
    --prop NAME        check only the named property (synth: required if
                       the model has several)
    --engine ENGINE    auto | bmc | kind | bdd | explicit | smtbmc | portfolio
                       (portfolio races BMC against the provers in
                       parallel threads and keeps the first verdict)
                                                                    [default: auto]
    --depth N          unrolling depth bound                        [default: 64]
    --timeout SECS     wall-clock budget per property
    --jobs N           worker threads for parallel operations
                       (synth assignment sweep)  [default: all cores]
    --first-safe       synth only: stop at the first SAFE assignment,
                       cancelling the rest of the sweep
    --incremental      synth only: pin assignments with assumption
                       literals over one shared unrolling so each worker
                       keeps one solver for its whole sweep (learned
                       clauses carry over, unsat cores prune parameters
                       that don't matter). Default for invariant
                       properties under the k-induction engine
    --no-incremental   synth only: force the clone-per-assignment sweep
    --no-sharing       disable learnt-clause exchange between portfolio
                       contenders / synthesis workers (verdicts are
                       identical either way; see DESIGN.md §13)
    --bdd-partitioned  symbolic engine: image via per-variable update
                       partitions chained with early quantification
                       (the default; see DESIGN.md §15)
    --bdd-monolithic   symbolic engine: one conjoined transition-relation
                       BDD (baseline; verdicts are identical either way)
    --bdd-no-sift      disable dynamic variable reordering (sifting) in
                       the symbolic engine
    --bdd-sift-threshold N
                       live-node count that triggers the first sift
                       (default: adaptive, 4x the post-encoding size)
    --max-bdd-nodes N  BDD node ceiling: the manager refuses further
                       allocation and the run demotes to UNKNOWN
                       (resource-exhausted) instead of exhausting memory
    --certify          independently validate every verdict: replay
                       counterexamples through the reference interpreter,
                       re-check proofs with fresh proof-logged SAT queries;
                       a failed check demotes the verdict to UNKNOWN
                       (certificate rejected)
    --retries N        re-run assignments/properties that came back
                       unknown for an infrastructure reason
                       (engine-failure, resource-exhausted, timeout) up
                       to N extra times with escalating budgets and
                       jittered backoff                          [default: 0]
    --retry-factor F   budget multiplier between attempts        [default: 2]
    --retry-backoff-ms MS
                       base backoff before a retry               [default: 20]
    --journal PATH     append every decided verdict to a crash-safe
                       (fsync'd, checksummed) journal at PATH; refuses
                       to overwrite an existing journal (resume or
                       delete it)
    --resume PATH      resume from a journal written by --journal:
                       trusted verdicts are skipped, undecided work
                       re-runs, new verdicts append to the same file
    --fault SPEC       deterministic fault injection for testing:
                       site:kind[:hit], comma-separated (kinds: panic,
                       overflow, exhaust; also via env VERDICT_FAULT)
    --fault-seed N     derive a random fault spec from seed N
    --json             machine-readable output on stdout (one JSON
                       document, top-level \"schema\": 2: verdicts,
                       winning engine, certificate status, attempt
                       counts, wall-clock millis)
    --stats            check only: report engine counters (SAT
                       decisions/conflicts, simplex pivots, BDD nodes),
                       per-depth unroll/solve timings, and phase timers
                       per property — as a \"stats\" object under --json,
                       as indented lines otherwise
    --trace FILE       check only: append span/depth/mark events as
                       JSON lines to FILE while solving (one object per
                       line; shared by portfolio contenders)

EXIT CODES (check):
    0   every property holds or is unknown for an honest reason
        (depth-bound, timeout, effort-bound, cancelled)
    2   at least one property is violated
    1   usage, parse, or engine error — including a property left
        unknown by an infrastructure failure (engine-failure,
        resource-exhausted, certificate-rejected, hung-worker)
    130 interrupted (first Ctrl-C drains workers and keeps the
        journal intact; resume with --resume)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => local(JobKind::Check, &args[1..]),
        Some("synth") => local(JobKind::Synth, &args[1..]),
        Some("blast") => blast(&args[1..]),
        Some("serve") => server_cmd::serve(&args[1..]),
        Some("submit") => server_cmd::submit(&args[1..]),
        Some("unquarantine") => server_cmd::unquarantine(&args[1..]),
        Some("server-stats") => server_cmd::server_stats(&args[1..]),
        Some("scenarios") => scenarios_cmd::scenarios(&args[1..]),
        Some("schema") => scenarios_cmd::schema(&args[1..]),
        Some("table1") => {
            print!("{}", verdict_incidents::table1());
            ExitCode::SUCCESS
        }
        Some("fig2") => fig2(&args[1..]),
        Some("fig1-dot") => {
            print!(
                "{}",
                verdict_models::interaction::InteractionGraph::figure1().to_dot()
            );
            ExitCode::SUCCESS
        }
        Some("--help" | "-h") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Installs the deterministic fault-injection plan from `--fault SPEC`,
/// `--fault-seed N`, or the `VERDICT_FAULT` environment variable
/// (testing only; a no-op when none is given).
fn install_faults(args: &[String]) -> Result<(), String> {
    use verdict_journal::fault;
    if let Some(seed) = flag_value(args, "--fault-seed") {
        if flag_value(args, "--fault").is_some() {
            return Err("--fault and --fault-seed are mutually exclusive".to_string());
        }
        let seed: u64 = seed
            .parse()
            .map_err(|_| format!("--fault-seed expects a number, got `{seed}`"))?;
        let plan = fault::FaultPlan::seeded(seed);
        eprintln!("fault injection (seed {seed}): {}", plan.to_spec_string());
        fault::install(&plan);
        return Ok(());
    }
    let spec = flag_value(args, "--fault").or_else(|| std::env::var("VERDICT_FAULT").ok());
    if let Some(spec) = spec {
        let plan = fault::FaultPlan::parse(&spec).map_err(|e| format!("--fault: {e}"))?;
        fault::install(&plan);
    }
    Ok(())
}

/// Journal flags shared by `check` and `synth`: `--resume PATH` implies
/// journaling to the same file.
fn journal_flags(args: &[String]) -> Result<Option<JournalHook>, String> {
    match (flag_value(args, "--journal"), flag_value(args, "--resume")) {
        (Some(_), Some(_)) => Err(
            "--journal and --resume are mutually exclusive (resume appends to the same journal)"
                .to_string(),
        ),
        (Some(path), None) => Ok(Some(JournalHook {
            path: path.into(),
            resume: false,
        })),
        (None, Some(path)) => Ok(Some(JournalHook {
            path: path.into(),
            resume: true,
        })),
        (None, None) => Ok(None),
    }
}

/// What a run concluded, boiled down to the bits the exit-code contract
/// cares about. Shared by `check`, `synth`, `submit` and `scenarios` so
/// the mapping lives in exactly one place.
#[derive(Clone, Copy, Debug, Default)]
struct Outcome {
    /// Ctrl-C arrived (workers drained, journal intact).
    interrupted: bool,
    /// At least one property/assignment is violated (check only).
    violated: bool,
    /// Some verdict is unknown for an infrastructure reason.
    infra_unknown: bool,
}

impl Outcome {
    /// What a job's verdict rows mean for the exit code. A check counts
    /// violations and infrastructure unknowns; a synth sweep's unsafe or
    /// unknown assignments are its answer (it maps the safe region), so
    /// only interruption counts there.
    fn of(kind: JobKind, rows: &[VerdictRow], interrupted: bool) -> Outcome {
        let check = kind == JobKind::Check;
        Outcome {
            interrupted,
            violated: check && rows.iter().any(|r| r.verdict == "unsafe"),
            infra_unknown: check && rows.iter().any(VerdictRow::infra_failure),
        }
    }
}

/// The process exit code for an [`Outcome`]: 130 interrupted, 2
/// violated, 1 infrastructure failure, 0 otherwise (holds or honest
/// unknown). Interruption takes precedence over everything.
fn exit_code(o: &Outcome) -> u8 {
    if o.interrupted {
        130
    } else if o.violated {
        2
    } else if o.infra_unknown {
        1
    } else {
        0
    }
}

/// Pulls `--flag value` out of an argument list (shared
/// `verdict_mc::spec` helper).
use verdict_mc::spec::flag_value;

/// The runtime half of a local `check`/`synth` job: the shared
/// engine-budget flags as base options, plus the `--trace` sink (check
/// only), fault injection, the Ctrl-C stop flag, `--first-safe` and the
/// journal.
fn exec_context(kind: JobKind, args: &[String]) -> Result<ExecContext, String> {
    let mut base = verdict_mc::spec::options_from_args(args)?;
    if kind == JobKind::Check {
        if let Some(p) = flag_value(args, "--trace") {
            let sink = TraceSink::create(Path::new(&p)).map_err(|e| format!("--trace {p}: {e}"))?;
            base = base.with_trace(Arc::new(sink));
        }
    }
    install_faults(args)?;
    let journal = journal_flags(args)?;
    let base = base.with_stop(sigint::install());
    Ok(ExecContext {
        jobs: base.effective_jobs(),
        first_safe: args.iter().any(|a| a == "--first-safe"),
        journal,
        base,
        ..ExecContext::default()
    })
}

/// `verdict check` and `verdict synth`: the flags become a [`JobSpec`]
/// and an [`ExecContext`], the spec is validated and run through the
/// shared spec path, and its report is printed.
fn local(kind: JobKind, args: &[String]) -> ExitCode {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("{}: missing model path\n\n{USAGE}", kind.tag());
        return ExitCode::FAILURE;
    };
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spec = match JobSpec::from_cli_args(kind, &source, args) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = spec.validate() {
        eprintln!("{path}: {e}");
        return ExitCode::FAILURE;
    }
    let ctx = match exec_context(kind, args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let started = std::time::Instant::now();
    let report = match verdict_mc::spec::run(&spec, &ctx) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = Outcome::of(kind, &report.rows(&spec.engine), sigint::interrupted());
    let json = args.iter().any(|a| a == "--json");
    match report {
        JobReport::Check(outcomes) => {
            let stats_on = args.iter().any(|a| a == "--stats");
            print_check(path, &outcomes, &ctx, json, stats_on, exit_code(&outcome))
        }
        JobReport::Synth {
            property,
            resumed,
            result,
            ..
        } => {
            if let (Some(j), true) = (&ctx.journal, resumed > 0) {
                eprintln!(
                    "resumed {resumed} decided assignment(s) from {}",
                    j.path.display()
                );
            }
            match result {
                Ok(result) => {
                    if json {
                        print_synth_json(path, &property, &result, started.elapsed());
                    } else {
                        println!("property `{property}`:");
                        print!("{result}");
                    }
                    ExitCode::from(exit_code(&outcome))
                }
                Err(e) => {
                    eprintln!("synthesis failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}

/// Prints a check report, one line (text) or object (`--json`) per
/// property; a property the engine refused ends the run with exit 1.
fn print_check(
    path: &str,
    outcomes: &[(String, PropertyOutcome)],
    ctx: &ExecContext,
    json: bool,
    stats_on: bool,
    code: u8,
) -> ExitCode {
    let mut rows: Vec<String> = Vec::new();
    for (name, outcome) in outcomes {
        match outcome {
            PropertyOutcome::Failed(e) => {
                eprintln!("property `{name}`: {e}");
                return ExitCode::FAILURE;
            }
            PropertyOutcome::Resumed(prev) if json => rows.push(format!(
                "{{\"name\":{},\"verdict\":{},\"detail\":{},\"engine\":{},\"certificate\":{},\"wall_ms\":0,\"resumed\":true}}",
                quote(name),
                quote(prev.verdict.tag()),
                quote(prev.verdict.tag()),
                quote(&prev.engine),
                quote("skipped"),
            )),
            PropertyOutcome::Resumed(prev) => println!(
                "property `{name}` (resumed from journal, engine {}): {}",
                prev.engine,
                prev.verdict.tag()
            ),
            PropertyOutcome::Checked {
                report,
                certificate,
            } => {
                let (result, engine, wall) = (&report.result, report.winner, report.wall);
                if json {
                    let stats_field = if stats_on {
                        let per_contender: Vec<String> = report
                            .contender_stats
                            .iter()
                            .map(|(_, s)| s.counters_json())
                            .collect();
                        format!(
                            ",\"stats\":{},\"contenders\":[{}]",
                            report.stats.to_json(),
                            per_contender.join(",")
                        )
                    } else {
                        String::new()
                    };
                    rows.push(format!(
                        "{{\"name\":{},\"verdict\":{},\"detail\":{},\"engine\":{},\"certificate\":{},\"wall_ms\":{}{stats_field}}}",
                        quote(name),
                        quote(verdict_tag(result)),
                        quote(&result.to_string()),
                        quote(&engine.to_string()),
                        quote(&certificate.to_string()),
                        wall.as_millis()
                    ));
                } else {
                    let cert_note = if ctx.base.certify {
                        format!("  [certificate: {certificate}]")
                    } else {
                        String::new()
                    };
                    println!("property `{name}` ({wall:.2?}, engine {engine}): {result}{cert_note}");
                    if stats_on {
                        print_stats_text(&report.stats, &report.contender_stats);
                    }
                }
            }
        }
    }
    if let Some(sink) = &ctx.base.trace {
        if let Err(e) = sink.flush() {
            eprintln!("--trace: {e}");
        }
    }
    // The JSON document reports the code the process actually exits with.
    if json {
        println!(
            "{{\"schema\":{STATS_SCHEMA_VERSION},\"command\":\"check\",\"model\":{},\"properties\":[{}],\"exit_code\":{code}}}",
            quote(path),
            rows.join(",")
        );
    }
    ExitCode::from(code)
}

/// Human-readable `--stats` rendering: one indented block per property
/// with the counter groups that actually fired, plus phase timers and —
/// for portfolio runs — a one-line summary per contender.
fn print_stats_text(stats: &verdict_mc::Stats, contenders: &[(EngineKind, verdict_mc::Stats)]) {
    use verdict_mc::stats::Phase;
    if !stats.sat.is_zero() {
        println!(
            "  sat: {} decisions, {} propagations, {} conflicts, {} restarts, {} learnt clauses",
            stats.sat.decisions,
            stats.sat.propagations,
            stats.sat.conflicts,
            stats.sat.restarts,
            stats.sat.learnt_clauses
        );
    }
    if !stats.smt.is_zero() {
        println!(
            "  smt: {} pivots, {} bound flips, {} overflow poisonings",
            stats.smt.pivots, stats.smt.bound_flips, stats.smt.overflow_poisonings
        );
    }
    if !stats.bdd.is_zero() {
        println!(
            "  bdd: {} nodes, {:.1}% ite cache hits, {} peak live, {} partition(s), \
             {} sift(s) ({} -> {} nodes), {} cache clears",
            stats.bdd.nodes_allocated,
            stats.bdd.ite_hit_rate() * 100.0,
            stats.bdd.peak_live_nodes,
            stats.bdd.partitions,
            stats.bdd.sifts,
            stats.bdd.sift_nodes_before,
            stats.bdd.sift_nodes_after,
            stats.bdd.cache_clears
        );
    }
    if stats.fixpoint_iterations > 0 || stats.states_visited > 0 {
        println!(
            "  search: {} fixpoint iterations, {} states visited",
            stats.fixpoint_iterations, stats.states_visited
        );
    }
    println!(
        "  phases: encode {}us, solve {}us, certify {}us, replay {}us; {} depth samples",
        stats.phase_nanos(Phase::Encode) / 1_000,
        stats.phase_nanos(Phase::Solve) / 1_000,
        stats.phase_nanos(Phase::Certify) / 1_000,
        stats.phase_nanos(Phase::Replay) / 1_000,
        stats.depths.len()
    );
    if contenders.len() > 1 {
        for (kind, s) in contenders {
            println!(
                "  contender {kind}: sat {} conflicts, smt {} pivots, bdd {} nodes, {} states",
                s.sat.conflicts, s.smt.pivots, s.bdd.nodes_allocated, s.states_visited
            );
        }
    }
}

/// Prints a synth sweep as one `--json` document.
fn print_synth_json(path: &str, property: &str, result: &SynthesisResult, wall: Duration) {
    let rows: Vec<String> = result
        .verdicts
        .iter()
        .map(|v| {
            let vals: Vec<String> = v.values.iter().map(|x| quote(&x.to_string())).collect();
            let reason = match &v.result {
                CheckResult::Unknown(r) => quote(r.tag()),
                _ => "null".to_string(),
            };
            format!(
                "{{\"values\":[{}],\"verdict\":{},\"detail\":{},\"attempts\":{},\"reason\":{}}}",
                vals.join(","),
                quote(verdict_tag(&v.result)),
                quote(&v.result.to_string()),
                v.attempts,
                reason
            )
        })
        .collect();
    let names: Vec<String> = result.param_names.iter().map(|n| quote(n)).collect();
    println!(
        "{{\"schema\":{STATS_SCHEMA_VERSION},\"command\":\"synth\",\"model\":{},\"property\":{},\"params\":[{}],\"verdicts\":[{}],\"wall_ms\":{}}}",
        quote(path),
        quote(property),
        names.join(","),
        rows.join(","),
        wall.as_millis()
    );
}

fn blast(args: &[String]) -> ExitCode {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("blast: missing model path\n\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let model = match parse(&source) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (Some(event_src), Some(metric_src)) =
        (flag_value(args, "--event"), flag_value(args, "--metric"))
    else {
        eprintln!("blast: --event EXPR and --metric EXPR are required");
        return ExitCode::FAILURE;
    };
    let event = match model.compile_bool_expr(&event_src) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("--event: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metric = match model.compile_int_expr(&metric_src) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("--metric: {e}");
            return ExitCode::FAILURE;
        }
    };
    let opts = match verdict_mc::spec::options_from_args(args) {
        Ok(o) => o.max_depth_defaulted(16),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match verdict_mc::blast::worst_case_after(&model.system, &event, &metric, &opts) {
        Ok(Some(r)) => {
            println!(
                "worst `{metric_src}` at-or-after `{event_src}` within {} steps: {} (range {}..={})",
                opts.max_depth, r.worst, r.range.0, r.range.1
            );
            println!("witness:\n{}", r.witness);
            ExitCode::SUCCESS
        }
        Ok(None) => {
            println!(
                "event `{event_src}` not reachable within {} steps",
                opts.max_depth
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("blast failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn fig2(args: &[String]) -> ExitCode {
    let minutes: u64 = flag_value(args, "--minutes")
        .and_then(|m| m.parse().ok())
        .unwrap_or(30);
    let metrics = verdict_ksim::ClusterSpec::figure2().run(minutes * 60);
    println!("pod placement over {minutes} minutes (descheduler every 2 min):");
    println!("  time   node");
    for (t, node) in metrics.placement_changes("app-") {
        println!("  {t:>5}  {node}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_of_rows() {
        let row = |verdict: &str, reason: Option<&str>| VerdictRow {
            name: "p".into(),
            verdict: verdict.into(),
            reason: reason.map(str::to_string),
            engine: "bmc".into(),
            detail: String::new(),
        };
        let rows = [
            row("safe", None),
            row("unsafe", None),
            row("unknown", Some("engine-failure")),
        ];
        let check = Outcome::of(JobKind::Check, &rows, false);
        assert!(check.violated && check.infra_unknown && !check.interrupted);
        // Honest limits are not infrastructure failures.
        let honest = [
            row("unknown", Some("depth-bound")),
            row("cancelled", Some("cancelled")),
        ];
        assert!(!Outcome::of(JobKind::Check, &honest, false).infra_unknown);
        // A sweep's unsafe and unknown assignments are its answer.
        let synth = Outcome::of(JobKind::Synth, &rows, false);
        assert_eq!(exit_code(&synth), 0);
        assert_eq!(exit_code(&Outcome::of(JobKind::Synth, &rows, true)), 130);
    }

    #[test]
    fn exit_code_table() {
        // (interrupted, violated, infra_unknown) -> code. Interruption
        // beats violation beats infrastructure failure.
        let table: [(bool, bool, bool, u8); 8] = [
            (false, false, false, 0),
            (false, false, true, 1),
            (false, true, false, 2),
            (false, true, true, 2),
            (true, false, false, 130),
            (true, false, true, 130),
            (true, true, false, 130),
            (true, true, true, 130),
        ];
        for (interrupted, violated, infra_unknown, want) in table {
            let got = exit_code(&Outcome {
                interrupted,
                violated,
                infra_unknown,
            });
            assert_eq!(
                got, want,
                "exit_code(interrupted={interrupted}, violated={violated}, infra={infra_unknown})"
            );
        }
    }
}
