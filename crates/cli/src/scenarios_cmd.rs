//! `verdict scenarios` — sweep the incident-driven scenario matrix —
//! and `verdict schema` — dump the machine-readable output contract.
//!
//! The scenario sweep enumerates the `verdict_scenarios` pattern×
//! parameter×property matrix, runs every instance through the unified
//! `verdict_mc::spec::execute` path (locally on a worker pool, or
//! remotely by submitting each instance to a running daemon with
//! `--socket`), and scores each engine verdict against the generator's
//! ground-truth expectation. Because both modes execute the *same*
//! [`JobSpec`] through the same function, local and server sweeps
//! cannot disagree except through infrastructure failures — which is
//! exactly what the exit-code contract surfaces.

use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use verdict_journal::json::quote;
use verdict_mc::spec::{flag_value, ExecContext, JobSpec, VerdictRow};
use verdict_mc::{CheckOptions, EngineKind, STATS_SCHEMA_VERSION};
use verdict_scenarios::{generate, incident_ids, GenConfig, Pattern, Scenario};

use crate::{exit_code, sigint, Outcome};

/// One property of one instance, scored against its expectation.
struct Scored {
    name: &'static str,
    kind: &'static str,
    expected: &'static str,
    row: VerdictRow,
}

impl Scored {
    /// The engine verdict equals the generator's ground truth.
    fn matched(&self) -> bool {
        self.row.verdict == self.expected
    }

    /// Unknown for an infrastructure reason (or the transport to the
    /// daemon failed) — exit code 1, not a model mismatch.
    fn infra(&self) -> bool {
        self.row.infra_failure() || self.row.reason.as_deref() == Some("client-error")
    }
}

/// Per-pattern rollup for the report.
#[derive(Default)]
struct Rollup {
    instances: usize,
    properties: usize,
    matched: usize,
    mismatched: usize,
    infra: usize,
}

/// Sweep configuration parsed from the command line.
struct SweepConfig {
    gen_cfg: GenConfig,
    depth: Option<usize>,
    timeout: Option<Duration>,
    engine: Option<String>,
    certify: bool,
    jobs: usize,
    socket: Option<String>,
    json: bool,
    list: bool,
}

fn parse_args(args: &[String]) -> Result<SweepConfig, String> {
    let mut patterns = Vec::new();
    if let Some(list) = flag_value(args, "--pattern") {
        for tag in list.split(',') {
            let tag = tag.trim();
            match Pattern::from_tag(tag) {
                Some(p) => patterns.push(p),
                None => {
                    let known: Vec<&str> = Pattern::ALL.iter().map(|p| p.tag()).collect();
                    return Err(format!(
                        "unknown pattern `{tag}` (known: {})",
                        known.join(", ")
                    ));
                }
            }
        }
    }
    let seed = match flag_value(args, "--seed") {
        Some(s) => s
            .parse()
            .map_err(|_| format!("--seed expects a number, got `{s}`"))?,
        None => 0,
    };
    let samples = match flag_value(args, "--samples") {
        Some(s) => s
            .parse()
            .map_err(|_| format!("--samples expects a number, got `{s}`"))?,
        None => 0,
    };
    let depth = match flag_value(args, "--depth") {
        Some(d) => Some(
            d.parse()
                .map_err(|_| format!("--depth expects a number, got `{d}`"))?,
        ),
        None => None,
    };
    let timeout = match flag_value(args, "--timeout") {
        Some(t) => {
            let secs: f64 = t
                .parse()
                .map_err(|_| format!("--timeout expects seconds, got `{t}`"))?;
            if !secs.is_finite() || secs <= 0.0 {
                return Err(format!("--timeout expects a positive number, got `{t}`"));
            }
            Some(Duration::from_secs_f64(secs))
        }
        None => None,
    };
    let engine = flag_value(args, "--engine");
    if let Some(e) = &engine {
        if EngineKind::from_tag(e).is_none() {
            return Err(format!("unknown engine `{e}`"));
        }
    }
    let jobs = match flag_value(args, "--jobs") {
        Some(j) => {
            let n: usize = j
                .parse()
                .map_err(|_| format!("--jobs expects a number, got `{j}`"))?;
            if n == 0 {
                return Err("--jobs expects a positive number".to_string());
            }
            n
        }
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    Ok(SweepConfig {
        gen_cfg: GenConfig {
            seed,
            samples,
            patterns,
        },
        depth,
        timeout,
        engine,
        certify: args.iter().any(|a| a == "--certify"),
        jobs,
        socket: flag_value(args, "--socket"),
        json: args.iter().any(|a| a == "--json"),
        list: args.iter().any(|a| a == "--list"),
    })
}

/// The spec one scenario instance runs as — shared verbatim by the
/// local pool and the daemon submission, so the two paths execute the
/// identical job.
fn spec_for(s: &Scenario, cfg: &SweepConfig) -> JobSpec {
    let mut spec = JobSpec::check(&s.source);
    spec.depth = cfg.depth;
    spec.certify = cfg.certify;
    if let Some(e) = &cfg.engine {
        spec.engine = e.clone();
    }
    spec.deadline_ms = cfg.timeout.map(|t| t.as_millis() as u64);
    spec
}

/// Runs every scenario on a local worker pool: workers pull the next
/// undone instance from a shared cursor, so large instances don't
/// convoy behind a static partition. Ctrl-C raises the shared stop
/// flag; engines exit cooperatively and undone slots stay `None`.
fn run_local(scenarios: &[Scenario], cfg: &SweepConfig) -> Vec<Option<Vec<VerdictRow>>> {
    let stop = sigint::install();
    let mut base = CheckOptions::default().with_stop(stop.clone());
    base.timeout = cfg.timeout;
    let ctx = ExecContext {
        base,
        jobs: 1,
        ..ExecContext::default()
    };
    let specs: Vec<JobSpec> = scenarios.iter().map(|s| spec_for(s, cfg)).collect();
    let results: Mutex<Vec<Option<Vec<VerdictRow>>>> =
        Mutex::new((0..specs.len()).map(|_| None).collect());
    let cursor = AtomicUsize::new(0);
    let workers = cfg.jobs.min(specs.len()).max(1);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= specs.len() || stop.load(Ordering::Relaxed) {
                    break;
                }
                let (rows, _) = verdict_mc::spec::execute(&specs[i], &ctx);
                results.lock().expect("results lock")[i] = Some(rows);
            });
        }
    });
    results.into_inner().expect("results lock")
}

/// Runs every scenario through a daemon: submit, then block for the
/// verdict. A transport failure marks that instance's properties as
/// `client-error` infra rows instead of aborting the sweep, so the
/// report stays complete and the exit code still says "infrastructure".
fn run_server(
    scenarios: &[Scenario],
    cfg: &SweepConfig,
    socket: &str,
) -> Result<Vec<Option<Vec<VerdictRow>>>, String> {
    let mut client = verdict_server::Client::connect(socket)
        .map_err(|e| format!("cannot connect to {socket}: {e}"))?;
    sigint::install();
    let mut results = Vec::with_capacity(scenarios.len());
    for s in scenarios {
        if sigint::interrupted() {
            results.push(None);
            continue;
        }
        let spec = spec_for(s, cfg);
        let outcome = client
            .submit(&spec)
            .and_then(|job| client.wait(job, |_| {}));
        match outcome {
            Ok(out) => results.push(Some(out.verdicts)),
            Err(e) => {
                eprintln!("scenarios: {}: {e}", s.id);
                let rows = s
                    .properties
                    .iter()
                    .map(|p| {
                        VerdictRow::unknown(p.name, "client-error", &spec.engine, e.to_string())
                    })
                    .collect();
                results.push(Some(rows));
            }
        }
    }
    Ok(results)
}

/// Scores one scenario's verdict rows against its property pack. A
/// missing row (sweep interrupted before this instance ran) scores as
/// an honest `cancelled`.
fn score(s: &Scenario, rows: Option<&Vec<VerdictRow>>) -> Vec<Scored> {
    s.properties
        .iter()
        .map(|p| {
            let row = rows.and_then(|rows| rows.iter().find(|r| r.name == p.name));
            match row {
                Some(r) => Scored {
                    name: p.name,
                    kind: p.kind.tag(),
                    expected: p.expected.tag(),
                    row: r.clone(),
                },
                None => Scored {
                    name: p.name,
                    kind: p.kind.tag(),
                    expected: p.expected.tag(),
                    row: VerdictRow {
                        name: p.name.to_string(),
                        verdict: "cancelled".to_string(),
                        reason: Some("cancelled".to_string()),
                        engine: String::new(),
                        detail: "not run (sweep interrupted)".to_string(),
                    },
                },
            }
        })
        .collect()
}

/// The `verdict scenarios` entry point.
pub fn scenarios(args: &[String]) -> ExitCode {
    let cfg = match parse_args(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("scenarios: {e}");
            return ExitCode::FAILURE;
        }
    };
    let matrix = generate(&cfg.gen_cfg);
    if matrix.is_empty() {
        eprintln!("scenarios: empty matrix (pattern filter too narrow?)");
        return ExitCode::FAILURE;
    }
    if cfg.list {
        return list(&matrix, &cfg);
    }

    let mode = if cfg.socket.is_some() {
        "server"
    } else {
        "local"
    };
    let results = match &cfg.socket {
        Some(socket) => match run_server(&matrix, &cfg, socket) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("scenarios: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => run_local(&matrix, &cfg),
    };

    // Score and roll up per pattern (Pattern::ALL order, filtered to
    // what actually ran).
    let scored: Vec<Vec<Scored>> = matrix
        .iter()
        .zip(&results)
        .map(|(s, rows)| score(s, rows.as_ref()))
        .collect();
    let mut any_mismatch = false;
    let mut any_infra = false;
    let mut scenario_docs: Vec<String> = Vec::new();
    let mut rollups: Vec<(Pattern, Rollup)> = Vec::new();
    for (s, props) in matrix.iter().zip(&scored) {
        if rollups.last().map(|(p, _)| *p) != Some(s.pattern) {
            rollups.push((s.pattern, Rollup::default()));
        }
        let (_, roll) = rollups.last_mut().expect("rollup for current pattern");
        roll.instances += 1;
        let mut lines: Vec<String> = Vec::new();
        for p in props {
            roll.properties += 1;
            if p.matched() {
                roll.matched += 1;
            } else if p.infra() {
                roll.infra += 1;
                any_infra = true;
            } else {
                roll.mismatched += 1;
                any_mismatch = true;
            }
            if cfg.json {
                let reason = match &p.row.reason {
                    Some(r) => quote(r),
                    None => "null".to_string(),
                };
                lines.push(format!(
                    "{{\"name\":{},\"kind\":{},\"expected\":{},\"verdict\":{},\"match\":{},\"engine\":{},\"reason\":{},\"detail\":{}}}",
                    quote(p.name),
                    quote(p.kind),
                    quote(p.expected),
                    quote(&p.row.verdict),
                    p.matched(),
                    quote(&p.row.engine),
                    reason,
                    quote(&p.row.detail)
                ));
            } else if !p.matched() {
                println!(
                    "  {} / {}: expected {}, got {} ({})",
                    s.id, p.name, p.expected, p.row.verdict, p.row.detail
                );
            }
        }
        if cfg.json {
            let params: Vec<String> = s
                .params
                .iter()
                .map(|(k, v)| format!("{}:{v}", quote(k)))
                .collect();
            scenario_docs.push(format!(
                "{{\"id\":{},\"pattern\":{},\"params\":{{{}}},\"properties\":[{}]}}",
                quote(&s.id),
                quote(s.pattern.tag()),
                params.join(","),
                lines.join(",")
            ));
        } else {
            let ok = props.iter().filter(|p| p.matched()).count();
            println!("{}: {ok}/{} match", s.id, props.len());
        }
    }

    let code = exit_code(&Outcome {
        interrupted: sigint::interrupted(),
        violated: any_mismatch,
        infra_unknown: any_infra,
    });
    if cfg.json {
        let pattern_docs: Vec<String> = rollups
            .iter()
            .map(|(p, r)| {
                let incidents: Vec<String> =
                    incident_ids(*p).into_iter().map(quote).collect();
                format!(
                    "{{\"pattern\":{},\"incidents\":[{}],\"instances\":{},\"properties\":{},\"matched\":{},\"mismatched\":{},\"infra\":{}}}",
                    quote(p.tag()),
                    incidents.join(","),
                    r.instances,
                    r.properties,
                    r.matched,
                    r.mismatched,
                    r.infra
                )
            })
            .collect();
        println!(
            "{{\"schema\":{STATS_SCHEMA_VERSION},\"command\":\"scenarios\",\"mode\":{},\"seed\":{},\"samples\":{},\"certify\":{},\"scenarios\":[{}],\"patterns\":[{}],\"exit_code\":{code}}}",
            quote(mode),
            cfg.gen_cfg.seed,
            cfg.gen_cfg.samples,
            cfg.certify,
            scenario_docs.join(","),
            pattern_docs.join(",")
        );
    } else {
        println!("---");
        for (p, r) in &rollups {
            let ids = incident_ids(*p);
            println!(
                "{}: {} instance(s), {}/{} verdicts match expectation{}{} \
                 (incidents: {})",
                p.tag(),
                r.instances,
                r.matched,
                r.properties,
                if r.mismatched > 0 {
                    format!(", {} MISMATCHED", r.mismatched)
                } else {
                    String::new()
                },
                if r.infra > 0 {
                    format!(", {} infra-failed", r.infra)
                } else {
                    String::new()
                },
                ids.join(", ")
            );
        }
    }
    ExitCode::from(code)
}

/// `--list`: enumerate the matrix without running anything.
fn list(matrix: &[Scenario], cfg: &SweepConfig) -> ExitCode {
    if cfg.json {
        let docs: Vec<String> = matrix
            .iter()
            .map(|s| {
                let params: Vec<String> = s
                    .params
                    .iter()
                    .map(|(k, v)| format!("{}:{v}", quote(k)))
                    .collect();
                let props: Vec<String> = s
                    .properties
                    .iter()
                    .map(|p| {
                        format!(
                            "{{\"name\":{},\"kind\":{},\"expected\":{}}}",
                            quote(p.name),
                            quote(p.kind.tag()),
                            quote(p.expected.tag())
                        )
                    })
                    .collect();
                format!(
                    "{{\"id\":{},\"pattern\":{},\"summary\":{},\"params\":{{{}}},\"properties\":[{}]}}",
                    quote(&s.id),
                    quote(s.pattern.tag()),
                    quote(&s.summary),
                    params.join(","),
                    props.join(",")
                )
            })
            .collect();
        println!(
            "{{\"schema\":{STATS_SCHEMA_VERSION},\"command\":\"scenarios\",\"mode\":\"list\",\"seed\":{},\"samples\":{},\"scenarios\":[{}]}}",
            cfg.gen_cfg.seed,
            cfg.gen_cfg.samples,
            docs.join(",")
        );
    } else {
        for s in matrix {
            let props: Vec<String> = s
                .properties
                .iter()
                .map(|p| format!("{} ({}, expect {})", p.name, p.kind.tag(), p.expected.tag()))
                .collect();
            println!("{}  [{}]", s.id, props.join("; "));
            println!("    {}", s.summary);
        }
        println!("---");
        println!("{} instance(s)", matrix.len());
    }
    ExitCode::SUCCESS
}

/// `verdict schema` — dump the versioned output contract: the JSON
/// shapes of every machine-readable document the CLI and daemon emit,
/// keyed by command. The document is itself schema-versioned; the
/// compat test in `tests/schema_compat.rs` freezes the schema-2 field
/// sets, so removing or retyping a field without bumping
/// `STATS_SCHEMA_VERSION` fails the gate (additions are fine).
pub fn schema(_args: &[String]) -> ExitCode {
    // Field types use a compact notation: scalar type names, `[T]` for
    // arrays, `{K:V}` for maps, `T?` for optional/conditional fields,
    // and `a|b` for closed enums.
    println!(
        "{{\"schema\":{STATS_SCHEMA_VERSION},\"command\":\"schema\",\"commands\":{{\
{},{},{},{}}}}}",
        check_shape(),
        synth_shape(),
        scenarios_shape(),
        server_stats_shape()
    );
    ExitCode::SUCCESS
}

fn check_shape() -> String {
    "\"check\":{\"fields\":{\
\"schema\":\"int\",\
\"command\":\"check\",\
\"model\":\"string\",\
\"properties\":\"[property]\",\
\"exit_code\":\"int\"},\
\"property\":{\
\"name\":\"string\",\
\"verdict\":\"safe|unsafe|cancelled|unknown\",\
\"detail\":\"string\",\
\"engine\":\"string\",\
\"certificate\":\"string\",\
\"wall_ms\":\"int\",\
\"resumed\":\"bool?\",\
\"stats\":\"object?\",\
\"contenders\":\"[object]?\"}}"
        .to_string()
}

fn synth_shape() -> String {
    "\"synth\":{\"fields\":{\
\"schema\":\"int\",\
\"command\":\"synth\",\
\"model\":\"string\",\
\"property\":\"string\",\
\"params\":\"[string]\",\
\"verdicts\":\"[assignment]\",\
\"wall_ms\":\"int\"},\
\"assignment\":{\
\"values\":\"[string]\",\
\"verdict\":\"safe|unsafe|cancelled|unknown\",\
\"detail\":\"string\",\
\"attempts\":\"int\",\
\"reason\":\"string?\"}}"
        .to_string()
}

fn scenarios_shape() -> String {
    "\"scenarios\":{\"fields\":{\
\"schema\":\"int\",\
\"command\":\"scenarios\",\
\"mode\":\"local|server|list\",\
\"seed\":\"int\",\
\"samples\":\"int\",\
\"certify\":\"bool\",\
\"scenarios\":\"[scenario]\",\
\"patterns\":\"[pattern]\",\
\"exit_code\":\"int\"},\
\"scenario\":{\
\"id\":\"string\",\
\"pattern\":\"string\",\
\"params\":\"{string:int}\",\
\"properties\":\"[property]\"},\
\"property\":{\
\"name\":\"string\",\
\"kind\":\"invariant|ltl\",\
\"expected\":\"safe|unsafe\",\
\"verdict\":\"safe|unsafe|cancelled|unknown\",\
\"match\":\"bool\",\
\"engine\":\"string\",\
\"reason\":\"string?\",\
\"detail\":\"string\"},\
\"pattern\":{\
\"pattern\":\"string\",\
\"incidents\":\"[string]\",\
\"instances\":\"int\",\
\"properties\":\"int\",\
\"matched\":\"int\",\
\"mismatched\":\"int\",\
\"infra\":\"int\"}}"
        .to_string()
}

fn server_stats_shape() -> String {
    "\"server-stats\":{\"fields\":{\
\"schema\":\"int\",\
\"engine\":\"string\",\
\"sat\":\"object\",\
\"smt\":\"object\",\
\"bdd\":\"object\",\
\"runtime\":\"object\",\
\"server\":\"object\",\
\"supervision\":\"object\",\
\"fixpoint_iterations\":\"int\",\
\"states_visited\":\"int\",\
\"retries\":\"int\",\
\"faults_injected\":\"int\",\
\"depth_samples\":\"int\",\
\"depths\":\"[object]\",\
\"phases\":\"object\"}}"
        .to_string()
}
