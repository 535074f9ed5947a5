//! `daemon`: an in-process `verdict_server::Server` at `ServerConfig::new`
//! defaults, a real Unix socket, and the WAL on the checkout's
//! filesystem. Two client threads run a closed loop over the grid's
//! property jobs, uncertified, each submit followed by `Client::wait` as
//! `verdict submit` does. A restart over the resulting WAL follows.
//!
//! Known defect this workload shows rather than hides: `Request::Wait`
//! checks the job's phase under one lock and then waits on the condvar
//! under a second without checking again, so a completion landing in
//! between is missed and the wait sleeps out its 100 ms timeout. Those
//! waits are counted as `server.wait_stalls`; the clients do not poll
//! `status` or shorten timeouts to dodge them.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use verdict_journal::json::Json;
use verdict_journal::wal::{Wal, WalOptions};
use verdict_mc::spec::{self, ExecContext};
use verdict_scenarios::Expectation;
use verdict_server::{Client, ClientError, DrainReport, Server, ServerConfig, ServerError};

use crate::grid::{self, check_rows, PropJob};
use crate::metrics::DAEMON;
use crate::stats::{fastest, mean, median, percentile};
use crate::trace::{bench_self_ms, Span, Tracer};
use crate::{host, Args, Failure, Outcome, Tally};

const CLIENTS: usize = 2;
/// Server start-ups timed before the closed loop, and again after it;
/// `setup_s` is the fastest, as on the local workloads. None is timed
/// during the loop, where the loop's own threads would slow it.
const SETUP_REPS: usize = 31;
/// Reopenings of the WAL timed for `server.restart_s` and `journal.replay_s`;
/// each reports its fastest, as the local workloads do per job.
const RESTART_REPS: usize = 5;
/// Local executions of each spec; their median is the spec's local time.
const LOCAL_REPS: usize = 3;
/// The closed loop runs a fixed number of jobs, `--seconds` times this
/// rate rounded to whole rounds: about half of `--seconds` of work on a
/// 2-core host at this commit, and all of it on a host running at half
/// that speed. Fixed work keeps the WAL, and so `server.restart_s` and
/// memory, the same size when throughput changes.
const JOBS_PER_SECOND: f64 = 200.0;
/// A wait returning this much later than its spec's local execute time
/// slept through a lost wakeup.
const STALL_S: f64 = 0.090;

/// A started server with both clients connected.
struct Running {
    stop: Arc<AtomicBool>,
    runner: JoinHandle<Result<DrainReport, ServerError>>,
    clients: Vec<Client>,
}

impl Running {
    fn stop(self, clients: Vec<Client>) -> Result<DrainReport, String> {
        drop(clients);
        self.stop.store(true, Ordering::Release);
        self.runner
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))
    }
}

fn config(dir: &Path) -> ServerConfig {
    ServerConfig::new(dir.join("s.sock"), dir.join("wal"))
}

/// `Server::open` on `dir`'s (empty) WAL, the serving thread, and two
/// connected clients.
fn start(dir: &Path, tracer: &mut Tracer, parent: u64) -> Result<Running, String> {
    let (opened, _) = tracer.time("server.open", Some(parent), None, || {
        Server::open(config(dir))
    });
    let (server, _) = opened.map_err(|e| format!("Server::open: {e}"))?;
    let stop = server.stop_flag();
    let runner = std::thread::spawn(move || server.run());
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        let (c, _) = tracer.time("server.connect", Some(parent), None, || {
            Client::connect_with_retry(dir.join("s.sock"), Duration::from_secs(10))
        });
        clients.push(c.map_err(|e| format!("connect: {e}"))?);
    }
    Ok(Running {
        stop,
        runner,
        clients,
    })
}

/// Starts [`SETUP_REPS`] servers on fresh WALs in `dir/run<first>`,
/// `dir/run<first + 1>`, …, adding each set-up's time to `times`. Each
/// is stopped at once, except that the last is returned running when
/// `keep_last`.
fn timed_setups(
    dir: &Path,
    first: usize,
    keep_last: bool,
    tracer: &mut Tracer,
    times: &mut Vec<f64>,
) -> Result<Option<(Running, PathBuf)>, String> {
    let setup = tracer.begin("bench.setup", None, None);
    let mut live = None;
    for rep in first..first + SETUP_REPS {
        let sub = dir.join(format!("run{rep}"));
        std::fs::create_dir_all(&sub).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let mut running = start(&sub, tracer, setup.id)?;
        times.push(t.elapsed().as_secs_f64());
        if keep_last && rep + 1 == first + SETUP_REPS {
            live = Some((running, sub));
        } else {
            let clients = std::mem::take(&mut running.clients);
            running.stop(clients)?;
        }
    }
    tracer.end(setup);
    Ok(live)
}

/// Each spec executed locally, as the daemon's workers do, for the
/// per-spec execute time; verdicts are checked here before any timing.
fn local_times(jobs: &[PropJob]) -> Result<Vec<f64>, Failure> {
    let ctx = ExecContext {
        jobs: 1,
        ..ExecContext::default()
    };
    let mut out = Vec::with_capacity(jobs.len());
    for job in jobs {
        let mut times = Vec::new();
        for _ in 0..LOCAL_REPS {
            let t = Instant::now();
            let (rows, _) = spec::execute(&job.spec, &ctx);
            times.push(t.elapsed().as_secs_f64());
            check_rows(job, &rows).map_err(|why| Failure::Wrong { attempted: 1, why })?;
        }
        out.push(median(&times).unwrap_or_default());
    }
    Ok(out)
}

struct Record {
    job: usize,
    ack_s: f64,
    wait_s: f64,
    turnaround_s: f64,
}

struct Round {
    traced: bool,
    wall_s: f64,
    span_id: u64,
}

#[derive(Default)]
struct ClientLog {
    records: Vec<Record>,
    rounds: Vec<Round>,
    spans: Vec<Span>,
    tally: Tally,
}

/// One client's closed loop of `rounds` passes over the job list:
/// submit, wait, check, next. Client `ci` starts its rounds at a
/// different offset into the list.
fn client_loop(
    ci: usize,
    client: &mut Client,
    jobs: &[PropJob],
    origin: Instant,
    rounds: usize,
    traced: bool,
    abort: &AtomicBool,
) -> Result<ClientLog, Failure> {
    let mut tracer = Tracer::new(origin, (ci as u64 + 1) << 40, false);
    let mut log = ClientLog::default();
    let n = jobs.len();
    let offset = ci * n / CLIENTS;
    for round_no in 0..rounds {
        // Traced runs alternate traced and untraced rounds.
        tracer.enabled = traced && round_no.is_multiple_of(2);
        let round = tracer.begin("bench.round", None, None);
        let round_id = round.id;
        for k in 0..n {
            if abort.load(Ordering::Relaxed) {
                // The other client failed; its error is the one reported.
                log.spans = tracer.spans;
                return Ok(log);
            }
            let idx = (offset + k) % n;
            let job = &jobs[idx];
            let mut span = tracer.begin("bench.job", Some(round_id), None);
            let t0 = Instant::now();
            let (submitted, ack_s) = tracer.time("server.submit", Some(span.id), None, || {
                client.submit(&job.spec)
            });
            log.tally.attempted += 1;
            let id = match submitted {
                Ok(id) => id,
                Err(ClientError::Rejected(r)) => {
                    eprintln!("perfbench: {} refused: {r:?}", job.label);
                    log.tally.failed += 1;
                    tracer.end(span);
                    continue;
                }
                Err(e) => return Err(Failure::Broken(format!("submit {}: {e}", job.label))),
            };
            span.set_job(id);
            let (waited, wait_s) = tracer.time("server.wait", Some(span.id), Some(id), || {
                client.wait(id, |_| {})
            });
            let turnaround_s = t0.elapsed().as_secs_f64();
            let outcome =
                waited.map_err(|e| Failure::Broken(format!("wait {}: {e}", job.label)))?;
            let decided = outcome.state == "done"
                && check_rows(job, &outcome.verdicts).map_err(|why| Failure::Wrong {
                    attempted: log.tally.attempted,
                    why,
                })?;
            if decided {
                log.tally.correct += 1;
            } else {
                log.tally.failed += 1;
            }
            log.records.push(Record {
                job: idx,
                ack_s,
                wait_s,
                turnaround_s,
            });
            tracer.end(span);
        }
        let wall_s = tracer.end(round);
        log.rounds.push(Round {
            traced: tracer.enabled,
            wall_s,
            span_id: round_id,
        });
    }
    log.spans = tracer.spans;
    Ok(log)
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for e in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let e = e.map_err(|e| e.to_string())?;
        total += e.metadata().map_err(|e| e.to_string())?.len();
    }
    Ok(total)
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for e in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let e = e.map_err(|e| e.to_string())?;
        std::fs::copy(e.path(), to.join(e.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// A counter from the `server` group of the stats reply.
fn server_counter(stats: &Json, key: &str) -> Result<f64, String> {
    stats
        .get("server")
        .and_then(|s| s.get(key))
        .and_then(Json::as_int)
        .map(|v| v as f64)
        .ok_or_else(|| format!("stats reply has no server.{key}"))
}

/// Removes the run's directory however the run ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn run(args: &Args) -> Result<Outcome, Failure> {
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin, 0, args.traced);
    let (scenarios, gen_times) = grid::timed_generate(args.seed, grid::SETUP_REPS, &mut tracer);
    let jobs = grid::prop_jobs(&scenarios, false);
    let cleanup = RunDir(host::out_dir().join(format!("daemon-{}", std::process::id())));
    let dir = cleanup.0.clone();
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    eprintln!(
        "perfbench: {}",
        host::provenance(DAEMON, args.seed, Some(&dir))
    );
    let local = local_times(&jobs)?;

    let mut setup_times = Vec::new();
    let (mut running, run_dir) = timed_setups(&dir, 0, true, &mut tracer, &mut setup_times)?
        .expect("the last set-up is kept");

    let per_round = (CLIENTS * jobs.len()) as f64;
    let rounds =
        ((args.seconds.as_secs_f64() * JOBS_PER_SECOND / per_round).round() as usize).max(2);
    let abort = AtomicBool::new(false);
    let start = Instant::now();
    let mut clients = std::mem::take(&mut running.clients);
    let logs: Vec<Result<ClientLog, Failure>> = std::thread::scope(|sc| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(ci, c)| {
                let (jobs, abort) = (&jobs, &abort);
                sc.spawn(move || {
                    let log = client_loop(ci, c, jobs, origin, rounds, args.traced, abort);
                    if log.is_err() {
                        abort.store(true, Ordering::Relaxed);
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(Failure::Broken("client thread panicked".into())))
            })
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let logs: Vec<ClientLog> = logs.into_iter().collect::<Result<_, _>>()?;

    let (stats, _) = tracer.time("server.stats", None, None, || clients[0].stats());
    let stats = stats.map_err(|e| format!("stats: {e}"))?;
    running.stop(clients)?;
    timed_setups(&dir, SETUP_REPS, false, &mut tracer, &mut setup_times)?;

    let mut tally = Tally::default();
    let mut records = Vec::new();
    let mut rounds = Vec::new();
    for log in logs {
        tally.add(&log.tally);
        records.extend(log.records);
        rounds.extend(log.rounds);
        tracer.spans.extend(log.spans);
    }
    eprintln!("perfbench: daemon: {} jobs in {wall:.2} s", records.len());

    // Restart over the WAL the loop left, then the WAL alone on a copy.
    let admitted = records.len() as u64;
    let wal_dir = run_dir.join("wal");
    let wal_bytes = dir_bytes(&wal_dir)?;
    let copy = dir.join("wal-copy");
    copy_dir(&wal_dir, &copy)?;
    let restart = tracer.begin("bench.restart", None, None);
    let mut restart_times = Vec::new();
    for _ in 0..RESTART_REPS {
        let (opened, t) = tracer.time("server.open", Some(restart.id), None, || {
            Server::open(config(&run_dir))
        });
        let (server, report) = opened.map_err(|e| format!("reopen: {e}"))?;
        drop(server);
        let recovered = report.jobs_trusted + report.jobs_requeued + report.jobs_cancelled;
        if recovered != admitted {
            return Err(Failure::Wrong {
                attempted: tally.attempted,
                why: format!("restart recovered {recovered} jobs of {admitted} acknowledged"),
            });
        }
        restart_times.push(t);
    }
    let mut replay_times = Vec::new();
    for _ in 0..RESTART_REPS {
        let (opened, t) = tracer.time("journal.wal_open", Some(restart.id), None, || {
            Wal::open(
                &copy,
                WalOptions {
                    segment_bytes: config(&copy).segment_bytes,
                    ..WalOptions::default()
                },
            )
        });
        let (wal, recovery) = opened.map_err(|e| format!("Wal::open: {e}"))?;
        wal.close();
        if recovery.records.is_empty() {
            return Err(Failure::Broken("the WAL copy holds no records".into()));
        }
        replay_times.push(t);
    }
    tracer.end(restart);
    let restart_s = fastest(&restart_times);

    let pct = |xs: &[f64], q: f64| {
        percentile(xs, q).ok_or_else(|| {
            Failure::Broken(format!("too few jobs for p{}; raise --seconds", q * 100.0))
        })
    };
    let ms = |f: fn(&Record) -> f64| records.iter().map(f).map(|s| s * 1e3).collect::<Vec<f64>>();
    let metrics = if args.traced {
        let late: Vec<f64> = records.iter().map(|r| r.wait_s - local[r.job]).collect();
        let overhead: Vec<f64> = records
            .iter()
            .map(|r| (r.turnaround_s - local[r.job]) * 1e3)
            .collect();
        let stalls = late.iter().filter(|&&l| l >= STALL_S).count();
        let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
        let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
        if traced.is_empty() || untraced.is_empty() {
            return Err(Failure::Broken(
                "a traced run needs two client rounds; raise --seconds".into(),
            ));
        }
        let wall_of = |rs: &[&Round]| {
            median(&rs.iter().map(|r| r.wall_s).collect::<Vec<_>>()).unwrap_or_default()
        };
        let ids: Vec<u64> = traced.iter().map(|r| r.span_id).collect();
        let completed = server_counter(&stats, "jobs_completed")?;
        let appends = server_counter(&stats, "wal_appends")?;
        let fsyncs = server_counter(&stats, "wal_fsyncs")?;
        let replay_s = fastest(&replay_times);
        let turnaround = ms(|r| r.turnaround_s);
        let ack = ms(|r| r.ack_s);
        vec![
            ("scenarios.generate_ms", fastest(&gen_times) * 1e3),
            ("server.turnaround_p50_ms", pct(&turnaround, 0.5)?),
            ("server.turnaround_p90_ms", pct(&turnaround, 0.9)?),
            ("server.ack_p50_ms", pct(&ack, 0.5)?),
            ("server.ack_p90_ms", pct(&ack, 0.9)?),
            ("server.wait_p50_ms", pct(&ms(|r| r.wait_s), 0.5)?),
            ("server.overhead_p50_ms", pct(&overhead, 0.5)?),
            ("server.wait_stalls", stalls as f64),
            ("server.turnaround_p99_ms", pct(&turnaround, 0.99)?),
            ("server.restart_s", restart_s),
            ("server.recover_s", restart_s - replay_s),
            ("journal.appends_per_job", appends / completed.max(1.0)),
            ("journal.appends_per_fsync", appends / fsyncs.max(1.0)),
            (
                "journal.wal_bytes_per_job",
                wal_bytes as f64 / completed.max(1.0),
            ),
            ("journal.replay_s", replay_s),
            (
                "trace.overhead_pct",
                (wall_of(&traced) / wall_of(&untraced) - 1.0) * 100.0,
            ),
            ("bench.self_ms", bench_self_ms(&tracer.spans, &ids)),
        ]
    } else {
        // Each job's median turnaround over the loop, averaged by answer
        // over the base grid's jobs.
        let mut per_job = vec![Vec::new(); jobs.len()];
        for r in &records {
            per_job[r.job].push(r.turnaround_s);
        }
        let of = |want: Expectation| -> f64 {
            let times = per_job
                .iter()
                .zip(&jobs)
                .filter(|(_, j)| j.base && j.expected == want)
                .filter_map(|(ts, _)| median(ts))
                .map(|t| t * 1e3)
                .collect::<Vec<f64>>();
            mean(&times).unwrap_or_default()
        };
        vec![
            ("setup_s", fastest(&setup_times)),
            ("verdicts_per_s", tally.correct as f64 / wall),
            ("safe_job_ms", of(Expectation::Safe)),
            ("unsafe_job_ms", of(Expectation::Unsafe)),
            ("decided_share", tally.decided_share()),
            ("peak_rss_mb", host::peak_rss_mb()?),
        ]
    };
    drop(cleanup);
    Ok(Outcome {
        tally,
        metrics,
        spans: std::mem::take(&mut tracer.spans),
    })
}
