//! `verdict serve` / `verdict submit` / `verdict server-stats` — the
//! CLI face of the verdict-as-a-service daemon.

use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Duration;

use verdict_journal::json::quote;
use verdict_server::{Client, ClientError, JobKind, JobSpec, Server, ServerConfig};

use crate::{exit_code, flag_value, sigint, Outcome};

/// `verdict serve --socket PATH --wal DIR [--workers N] [--queue N]
/// [--grace SECS] [--segment-bytes N] [--watchdog-grace-ms MS]
/// [--hedge-after-ms MS | --no-hedge] [--quarantine-after N]
/// [--quarantine-ttl SECS] [--fault SPEC | --fault-seed N]`: run the
/// daemon until SIGTERM/SIGINT, then drain gracefully and exit 0.
pub fn serve(args: &[String]) -> ExitCode {
    if let Err(e) = crate::install_faults(args) {
        eprintln!("serve: {e}");
        return ExitCode::FAILURE;
    }
    let parsed = (|| -> Result<ServerConfig, String> {
        let socket = flag_value(args, "--socket").ok_or("serve: missing --socket PATH")?;
        let wal = flag_value(args, "--wal").ok_or("serve: missing --wal DIR")?;
        let mut cfg = ServerConfig::new(socket, wal);
        if let Some(w) = flag_value(args, "--workers") {
            cfg.workers = w
                .parse()
                .ok()
                .filter(|&w: &usize| w >= 1)
                .ok_or_else(|| format!("--workers expects a positive number, got `{w}`"))?;
        }
        if let Some(q) = flag_value(args, "--queue") {
            cfg.queue_capacity = q
                .parse()
                .ok()
                .filter(|&q: &usize| q >= 1)
                .ok_or_else(|| format!("--queue expects a positive number, got `{q}`"))?;
        }
        if let Some(g) = flag_value(args, "--grace") {
            let secs: u64 = g
                .parse()
                .map_err(|_| format!("--grace expects seconds, got `{g}`"))?;
            cfg.grace = Duration::from_secs(secs);
        }
        if let Some(s) = flag_value(args, "--segment-bytes") {
            cfg.segment_bytes = s
                .parse()
                .ok()
                .filter(|&b: &u64| b >= 1)
                .ok_or_else(|| format!("--segment-bytes expects bytes, got `{s}`"))?;
        }
        if let Some(ms) = flag_value(args, "--watchdog-grace-ms") {
            let ms: u64 = ms
                .parse()
                .map_err(|_| format!("--watchdog-grace-ms expects millis, got `{ms}`"))?;
            cfg.watchdog_grace = Duration::from_millis(ms.max(1));
        }
        let no_hedge = args.iter().any(|a| a == "--no-hedge");
        if let Some(ms) = flag_value(args, "--hedge-after-ms") {
            if no_hedge {
                return Err("--hedge-after-ms and --no-hedge are mutually exclusive".to_string());
            }
            let ms: u64 = ms
                .parse()
                .map_err(|_| format!("--hedge-after-ms expects millis, got `{ms}`"))?;
            cfg.hedge_after = Some(Duration::from_millis(ms.max(1)));
        } else if no_hedge {
            cfg.hedge_after = None;
        }
        if let Some(n) = flag_value(args, "--quarantine-after") {
            cfg.quarantine_after = n.parse().map_err(|_| {
                format!("--quarantine-after expects a count, got `{n}` (0 disables)")
            })?;
        }
        if let Some(s) = flag_value(args, "--quarantine-ttl") {
            let secs: u64 = s
                .parse()
                .map_err(|_| format!("--quarantine-ttl expects seconds, got `{s}`"))?;
            cfg.quarantine_ttl = Duration::from_secs(secs.max(1));
        }
        Ok(cfg)
    })();
    let cfg = match parsed {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let (server, recovery) = match Server::open(cfg) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    if recovery.wal.tail.truncated {
        let seg = recovery
            .wal
            .truncated_segment
            .clone()
            .unwrap_or_else(|| "wal".to_string());
        eprintln!(
            "warning: {}",
            recovery.wal.tail.describe(std::path::Path::new(&seg))
        );
    }
    eprintln!(
        "verdict serve: recovered {} trusted, {} requeued, {} cancelled job(s) from {} WAL segment(s)",
        recovery.jobs_trusted, recovery.jobs_requeued, recovery.jobs_cancelled,
        recovery.wal.segments.max(1)
    );

    // SIGTERM and SIGINT route into the daemon's stop flag: stop
    // admitting, drain, exit 0.
    let stop = server.stop_flag();
    let sig = sigint::install_with_message(
        "verdict serve: stop signal received, draining (signal again to kill)",
    );
    std::thread::spawn(move || loop {
        if sig.load(Ordering::SeqCst) {
            stop.store(true, Ordering::SeqCst);
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    });

    match server.run() {
        Ok(report) => {
            eprintln!(
                "verdict serve: drained clean ({} completed, {} abandoned-but-journaled, \
                 {} WAL appends in {} group commits)",
                report.jobs_completed,
                report.jobs_abandoned,
                report.wal.appends,
                report.wal.group_commits
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `verdict submit <model.vd> --socket PATH [--synth --params a,b]
/// [--prop NAME] [--engine E] [--depth N] [--deadline SECS]
/// [--certify] [--resilient] [--no-wait] [--events] [--json]`: send a
/// job to a running daemon. By default blocks until the verdict and
/// maps it to the standard check exit codes; `--no-wait` prints the
/// job id and returns as soon as the submit is durably acknowledged.
/// `--resilient` rides out daemon restarts and socket timeouts by
/// reconnecting and resubmitting under an idempotency key.
pub fn submit(args: &[String]) -> ExitCode {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("submit: missing model path");
        return ExitCode::FAILURE;
    };
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("submit: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(socket) = flag_value(args, "--socket") else {
        eprintln!("submit: missing --socket PATH");
        return ExitCode::FAILURE;
    };

    let kind = if args.iter().any(|a| a == "--synth") {
        JobKind::Synth
    } else {
        JobKind::Check
    };
    let spec = match JobSpec::from_cli_args(kind, &source, args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("submit: {e}");
            return ExitCode::FAILURE;
        }
    };
    if kind == JobKind::Synth && spec.params.is_empty() {
        eprintln!("submit: --synth requires --params a,b,\u{2026}");
        return ExitCode::FAILURE;
    }
    let json = args.iter().any(|a| a == "--json");
    let no_wait = args.iter().any(|a| a == "--no-wait");
    let events = args.iter().any(|a| a == "--events");
    let resilient = args.iter().any(|a| a == "--resilient");

    let mut client = match Client::connect(&socket) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("submit: cannot connect to {socket}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let submitted = if resilient {
        client.submit_resilient(&spec, Duration::from_secs(10))
    } else {
        client.submit(&spec)
    };
    let job = match submitted {
        Ok(job) => job,
        Err(ClientError::Rejected(r)) => {
            if json {
                println!("{}", r.to_json());
            } else {
                eprintln!("submit: rejected: {}", r.reason);
                if let Some(d) = &r.detail {
                    eprintln!("  {d}");
                }
                if let (Some(q), Some(c)) = (r.queued, r.capacity) {
                    eprintln!("  queue {q}/{c} full");
                }
                if let Some(fp) = &r.fingerprint {
                    let after = r
                        .retry_after_ms
                        .map(|ms| format!(" (retry in {ms}ms)"))
                        .unwrap_or_default();
                    eprintln!(
                        "  lift early with: verdict unquarantine --socket <PATH> {fp}{after}"
                    );
                }
            }
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("submit: {e}");
            return ExitCode::FAILURE;
        }
    };
    if no_wait {
        if json {
            println!("{{\"schema\":2,\"command\":\"submit\",\"job\":{job},\"acknowledged\":true}}");
        } else {
            println!("job {job} acknowledged (durably journaled)");
        }
        return ExitCode::SUCCESS;
    }

    let outcome = match client.wait(job, |ev| {
        if events {
            eprintln!("{ev}");
        }
    }) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("submit: waiting for job {job} failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let out = Outcome::of(spec.kind, &outcome.verdicts, outcome.state == "cancelled");
    if json {
        let rows: Vec<String> = outcome
            .verdicts
            .iter()
            .map(|r| r.to_json().to_string())
            .collect();
        println!(
            "{{\"schema\":2,\"command\":\"submit\",\"job\":{job},\"state\":{},\"recovered\":{},\"verdicts\":[{}],\"exit_code\":{}}}",
            quote(&outcome.state),
            outcome.recovered,
            rows.join(","),
            exit_code(&out)
        );
    } else {
        for row in &outcome.verdicts {
            let reason = row
                .reason
                .as_ref()
                .map(|r| format!(" ({r})"))
                .unwrap_or_default();
            println!(
                "{}: {}{} [{}]",
                row.name,
                row.verdict.to_uppercase(),
                reason,
                row.engine
            );
        }
        if outcome.state == "cancelled" {
            println!("job {job}: cancelled");
        }
    }
    ExitCode::from(exit_code(&out))
}

/// `verdict unquarantine --socket PATH FINGERPRINT`: lift a crash-loop
/// quarantine early. The fingerprint is the 16-digit hex string printed
/// in `quarantined` rejections.
pub fn unquarantine(args: &[String]) -> ExitCode {
    let Some(socket) = flag_value(args, "--socket") else {
        eprintln!("unquarantine: missing --socket PATH");
        return ExitCode::FAILURE;
    };
    let fp = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            !a.starts_with("--") && args.get(i.wrapping_sub(1)).is_none_or(|p| p != "--socket")
        })
        .map(|(_, a)| a.clone())
        .next();
    let Some(fp) = fp else {
        eprintln!("unquarantine: missing FINGERPRINT (16-digit hex, from the rejection)");
        return ExitCode::FAILURE;
    };
    let mut client = match Client::connect(&socket) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("unquarantine: cannot connect to {socket}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match client.unquarantine(&fp) {
        Ok(true) => {
            println!("quarantine on {fp} lifted");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            println!("no active quarantine on {fp}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("unquarantine: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `verdict server-stats --socket PATH`: print the daemon's schema-2
/// stats document (engine counters plus the `server` and `supervision`
/// groups) to stdout.
pub fn server_stats(args: &[String]) -> ExitCode {
    let Some(socket) = flag_value(args, "--socket") else {
        eprintln!("server-stats: missing --socket PATH");
        return ExitCode::FAILURE;
    };
    let mut client = match Client::connect(&socket) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("server-stats: cannot connect to {socket}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match client.stats() {
        Ok(stats) => {
            println!("{stats}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("server-stats: {e}");
            ExitCode::FAILURE
        }
    }
}
