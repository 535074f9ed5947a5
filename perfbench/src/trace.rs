//! Spans recorded around calls into the program's layers.
//!
//! A [`Tracer`] always times the calls it wraps, because the end-to-end
//! metrics need those durations; it keeps a [`Span`] only while it is
//! enabled. Spans stay in memory until [`write_jsonl`] writes them at
//! exit, so recording costs one `Vec` push.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::{self, Interval};

/// One timed call: `name` is `<layer>.<call>` for calls into the program
/// and `bench.<phase>` for the benchmark's own grouping spans.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    pub job: Option<u64>,
}

impl Span {
    pub fn interval(&self) -> Interval {
        Interval {
            start: self.start_ns,
            end: self.end_ns,
        }
    }
}

/// An open span: closed by [`Tracer::end`].
#[derive(Debug)]
pub struct Open {
    pub id: u64,
    name: &'static str,
    start: Instant,
    parent: Option<u64>,
    job: Option<u64>,
}

/// Per-thread span recorder. Threads share one `origin` so their spans
/// line up, and take disjoint id ranges so ids stay unique when merged.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: u64,
    pub enabled: bool,
    pub spans: Vec<Span>,
}

impl Open {
    /// Tags the span with a job id learnt after it opened (the daemon
    /// assigns ids at submit).
    pub fn set_job(&mut self, job: u64) {
        self.job = Some(job);
    }
}

impl Tracer {
    pub fn new(origin: Instant, id_base: u64, enabled: bool) -> Tracer {
        Tracer {
            origin,
            next_id: id_base,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<u64>, job: Option<u64>) -> Open {
        self.next_id += 1;
        Open {
            id: self.next_id,
            name,
            start: Instant::now(),
            parent,
            job,
        }
    }

    /// Closes `open` and returns its length in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if self.enabled {
            let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                id: open.id,
                name: open.name,
                start_ns: ns(open.start),
                end_ns: ns(end),
                parent: open.parent,
                job: open.job,
            });
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// length in seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        job: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.begin(name, parent, job);
        let out = f();
        (out, self.end(open))
    }
}

/// Self time of every span in `spans` (same order): its length minus
/// the part its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: std::collections::HashMap<u64, Vec<Interval>> = Default::default();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s.interval());
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            stats::self_time(s.interval(), kids) as f64 * 1e-9
        })
        .collect()
}

/// Writes `spans` as JSON lines, one span per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut text = String::with_capacity(spans.len() * 96);
    for s in spans {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
        let _ = writeln!(
            text,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"job\":{}}}",
            s.id,
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent),
            opt(s.job)
        );
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(text.as_bytes())?;
    f.flush()
}

/// Median over the given passes of the self time of the benchmark's
/// own spans in each: the pass span and its `bench.job` children.
pub fn bench_self_ms(spans: &[Span], pass_ids: &[u64]) -> f64 {
    let selfs = self_times(spans);
    let per: Vec<f64> = pass_ids
        .iter()
        .map(|&pass| {
            spans
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| s.id == pass || (s.name == "bench.job" && s.parent == Some(pass)))
                .map(|(_, t)| t * 1e3)
                .sum()
        })
        .collect();
    stats::median(&per).unwrap_or_default()
}
