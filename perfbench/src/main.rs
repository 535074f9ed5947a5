//! Steady benchmark of the verdict workspace, timed layer by layer from
//! outside the program.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid|fattree|daemon --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Each run checks every verdict against
//! its known answer, measures for `--seconds`, and prints one JSON result
//! line last on stdout: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Spans go to `perfbench/out/`,
//! host provenance to stderr. `--describe` prints every metric with what
//! it measures and, per layer, the end-to-end metric it should move.

mod counts;
mod daemon;
mod fattree;
mod grid;
mod host;
mod metrics;
mod stats;
mod trace;

use std::time::{Duration, Instant};

/// Command-line settings of one run.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub traced: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut traced) = (None, 0, 10, false);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = num()?,
                "--seconds" => seconds = num()?,
                "--trace" => traced = num()? != 0,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !metrics::WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}"));
        }
        Ok(Args {
            workload,
            seed,
            seconds: Duration::from_secs(seconds.max(1)),
            traced,
        })
    }
}

/// What a workload hands back after its timed phase.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<(&'static str, f64)>,
    pub spans: Vec<trace::Span>,
}

/// Verdicts of a run: attempted, decided and correct, and failed
/// (undecided or refused). A contradicted verdict is not counted; it
/// fails the run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub correct: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.correct += other.correct;
        self.failed += other.failed;
    }

    /// Decided and correct verdicts over verdicts attempted.
    pub fn decided_share(&self) -> f64 {
        self.correct as f64 / self.attempted.max(1) as f64
    }
}

/// Why a run reports no numbers.
pub enum Failure {
    /// A verdict contradicted its known answer.
    Wrong { attempted: u64, why: String },
    /// The benchmark could not run (I/O, a refused server, …).
    Broken(String),
}

impl From<String> for Failure {
    fn from(why: String) -> Failure {
        Failure::Broken(why)
    }
}

/// Whether to start another pass of the timed phase: only while one
/// more pass as long as the last one still ends within `seconds`, so a
/// run of long passes does not overshoot its time. A run makes at least
/// one pass, and a traced run two: one traced, one not.
pub fn keep_going(args: &Args, start: Instant, passes: usize, last_s: f64) -> bool {
    let least = if args.traced { 2 } else { 1 };
    passes < least || start.elapsed().as_secs_f64() + last_s <= args.seconds.as_secs_f64()
}

/// Prints the metric table: what each metric measures and, per layer,
/// which end-to-end metric it should move.
fn describe() {
    for (kind, table) in [
        ("end_to_end", metrics::END_TO_END),
        ("per_layer", metrics::PER_LAYER),
    ] {
        for m in table {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            println!(
                "{kind}\t{}\t{}\t{better}\t{}\t{}",
                m.name,
                m.unit,
                m.workloads.join(","),
                m.about
            );
        }
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--describe") {
        describe();
        return;
    }
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload grid|fattree|daemon --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let out = host::out_dir();
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: creating {}: {e}", out.display());
        std::process::exit(1);
    }
    let result = match args.workload.as_str() {
        metrics::GRID => grid::run(&args),
        metrics::FATTREE => fattree::run(&args),
        _ => daemon::run(&args),
    };
    let code = match result {
        Ok(o) => {
            if args.traced {
                let path = out.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
                if let Err(e) = trace::write_jsonl(&path, &o.spans) {
                    eprintln!("perfbench: writing {}: {e}", path.display());
                }
            }
            match metrics::result_line(
                &args.workload,
                args.traced,
                o.tally.attempted,
                o.tally.failed,
                &o.metrics,
            ) {
                Ok(line) => {
                    println!("{line}");
                    0
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    1
                }
            }
        }
        Err(Failure::Wrong { attempted, why }) => {
            eprintln!("perfbench: wrong verdict: {why}");
            println!("{}", metrics::wrong_line(attempted.max(1), 0));
            1
        }
        Err(Failure::Broken(why)) => {
            eprintln!("perfbench: {why}");
            1
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse("--workload daemon --seed 7 --seconds 12 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds.as_secs(), a.traced),
            ("daemon", 7, 12, true)
        );
        assert!(parse("--workload paper --seed 1").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload grid --seed").is_err());
    }
}
