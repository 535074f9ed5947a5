//! Every metric the benchmark prints: name, unit, direction, the
//! workloads that measure it, and — for per-layer metrics — the
//! end-to-end metric it should move. Every run prints every metric of
//! its kind. `BENCHMARK.json` lists the same
//! names and units; the tests below hold the two together.

pub const GRID: &str = "grid";
pub const FATTREE: &str = "fattree";
pub const DAEMON: &str = "daemon";
pub const WORKLOADS: [&str; 3] = [GRID, FATTREE, DAEMON];

#[derive(Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// The workloads that measure it; the others print 0.
    pub workloads: &'static [&'static str],
    /// What the metric measures and, for a per-layer metric, which
    /// end-to-end metric on which workload it should move.
    pub about: &'static str,
}

const ALL: &[&str] = &[GRID, FATTREE, DAEMON];
const LOCAL: &[&str] = &[GRID, FATTREE];
const G: &[&str] = &[GRID];
const F: &[&str] = &[FATTREE];
const D: &[&str] = &[DAEMON];
const GD: &[&str] = &[GRID, DAEMON];

const fn m(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    workloads: &'static [&'static str],
    about: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better,
        workloads,
        about,
    }
}

/// Printed by runs with tracing off. Every workload measures each of
/// them.
pub const END_TO_END: &[MetricSpec] = &[
    m("setup_s", "s", false, ALL, "fastest of the set-ups repeated across the run (before the timed phase and between passes, or before and after the daemon's loop): grid generation, model builds, or Server::open on an empty WAL plus connecting both clients"),
    m("verdicts_per_s", "1/s", true, ALL, "correct verdicts per second: one pass's verdicts over the time of a pass made of each job's fastest run (grid, fattree); verdicts per wall-clock second of the closed loop (daemon)"),
    m("safe_job_ms", "ms", false, ALL, "mean time of a job whose known answer is safe, over the fixed base grid (grid, daemon) or the corpus (fattree), each job at its fastest run (grid, fattree) or its median turnaround (daemon)"),
    m("unsafe_job_ms", "ms", false, ALL, "mean time of a job whose known answer has a violation, over the fixed base grid (grid, daemon) or the corpus (fattree), each job at its fastest run (grid, fattree) or its median turnaround (daemon)"),
    m("decided_share", "ratio", true, ALL, "verdicts both decided and correct over verdicts attempted; unknowns and refused submits count against it"),
    m("peak_rss_mb", "MB", false, ALL, "peak resident memory of the benchmark process"),
];

/// Printed by runs with tracing on. A workload prints 0 for a metric of
/// a layer it does not measure (see each metric's workloads).
pub const PER_LAYER: &[MetricSpec] = &[
    m("scenarios.generate_ms", "ms", false, GD, "verdict_scenarios::generate, fastest of the run's repetitions; moves grid setup_s"),
    m("models.build_s", "s", false, F, "RolloutModel::build and LbModel::build, fastest of the run's set-ups; moves fattree setup_s"),
    m("dsl.parse_ms", "ms", false, G, "verdict_dsl::parse summed over jobs at each job's fastest traced pass; moves grid safe_job_ms and unsafe_job_ms, and daemon server.ack_p50_ms (admission parses each submit)"),
    m("mc.execute_p50_ms", "ms", false, G, "spec::execute per job, median over jobs of each job's fastest untraced pass; moves grid verdicts_per_s"),
    m("mc.execute_p90_ms", "ms", false, G, "spec::execute per job, 90th percentile over the same samples (the certified invariants are the slow tail); moves grid verdicts_per_s"),
    m("mc.inv.encode_s", "s", false, G, "encode phase of certified invariant jobs, at each job's fastest traced pass; moves grid verdicts_per_s and mc.execute_p90_ms"),
    m("mc.inv.solve_s", "s", false, G, "solve phase of certified invariant jobs, at each job's fastest traced pass; moves grid verdicts_per_s and mc.execute_p90_ms"),
    m("mc.inv.certify_s", "s", false, G, "certify and replay phases of invariant jobs, at each job's fastest traced pass; moves grid verdicts_per_s and mc.execute_p90_ms"),
    m("mc.inv.other_s", "s", false, G, "execute time of invariant jobs no phase timer covers, at each job's fastest traced pass; moves grid verdicts_per_s and mc.execute_p90_ms"),
    m("mc.ltl.encode_s", "s", false, G, "encode phase of certified LTL jobs, at each job's fastest traced pass; moves grid mc.execute_p50_ms"),
    m("mc.ltl.solve_s", "s", false, G, "solve phase of certified LTL jobs, at each job's fastest traced pass; moves grid mc.execute_p50_ms"),
    m("mc.ltl.certify_s", "s", false, G, "certify and replay phases of LTL jobs, at each job's fastest traced pass; moves grid mc.execute_p50_ms"),
    m("mc.ltl.other_s", "s", false, G, "execute time of LTL jobs no phase timer covers, at each job's fastest traced pass; moves grid mc.execute_p50_ms"),
    m("mc.falsify.encode_s", "s", false, F, "encode phase of falsification jobs, at each job's fastest traced pass; moves fattree unsafe_job_ms"),
    m("mc.falsify.solve_s", "s", false, F, "solve phase of falsification jobs, at each job's fastest traced pass; moves fattree unsafe_job_ms"),
    m("mc.falsify.other_s", "s", false, F, "falsification call time no phase timer covers, at each job's fastest traced pass; moves fattree unsafe_job_ms"),
    m("mc.verify.encode_s", "s", false, F, "encode phase of verification jobs, at each job's fastest traced pass; moves fattree safe_job_ms"),
    m("mc.verify.solve_s", "s", false, F, "solve phase of verification jobs, at each job's fastest traced pass; moves fattree safe_job_ms"),
    m("mc.verify.other_s", "s", false, F, "verification call time no phase timer covers, at each job's fastest traced pass; moves fattree safe_job_ms"),
    m("mc.synth.assignment_ms", "ms", false, F, "Verifier::synthesize_params call time over assignments checked; moves fattree unsafe_job_ms (the test topology has an unsafe p)"),
    m("sat.conflicts", "count", false, LOCAL, "CDCL conflicts per pass; moves fattree safe_job_ms/unsafe_job_ms and grid verdicts_per_s"),
    m("sat.decisions", "count", false, LOCAL, "CDCL decisions per pass; moves fattree safe_job_ms/unsafe_job_ms and grid verdicts_per_s"),
    m("sat.propagations", "count", false, LOCAL, "unit propagations per pass; moves fattree safe_job_ms/unsafe_job_ms and grid verdicts_per_s"),
    m("smt.pivots", "count", false, F, "simplex pivots per pass (the case study 2 lassos); moves fattree unsafe_job_ms"),
    m("bdd.nodes_allocated", "count", false, LOCAL, "BDD nodes allocated per pass; moves grid mc.execute_p50_ms, fattree safe_job_ms, peak_rss_mb"),
    m("bdd.peak_live_nodes", "count", false, LOCAL, "largest live BDD node count of any job; moves peak_rss_mb"),
    m("bdd.ite_hit_rate", "ratio", true, LOCAL, "ite cache hits over lookups per pass; moves grid mc.execute_p50_ms and fattree safe_job_ms"),
    m("mc.fixpoint_iterations", "count", false, LOCAL, "symbolic fixpoint iterations per pass; moves grid mc.execute_p50_ms and fattree safe_job_ms"),
    m("server.turnaround_p50_ms", "ms", false, D, "submit until its wait returns, median over every request; moves daemon safe_job_ms and unsafe_job_ms"),
    m("server.turnaround_p90_ms", "ms", false, D, "submit until its wait returns, 90th percentile over every request; moves daemon verdicts_per_s"),
    m("server.ack_p50_ms", "ms", false, D, "time until Client::submit returns (admission and the durable WAL ack), median; moves server.turnaround_p50_ms"),
    m("server.ack_p90_ms", "ms", false, D, "time until Client::submit returns, 90th percentile; moves server.turnaround_p90_ms"),
    m("server.wait_p50_ms", "ms", false, D, "Client::wait call time, median; moves daemon verdicts_per_s and server.turnaround_p90_ms"),
    m("server.overhead_p50_ms", "ms", false, D, "turnaround minus the same spec's local execute time, median; moves daemon verdicts_per_s, safe_job_ms and unsafe_job_ms"),
    m("server.wait_stalls", "count", false, D, "wait calls returning at least 90 ms after their spec's local execute time (the Request::Wait lost wakeup, a known defect); moves daemon verdicts_per_s"),
    m("server.turnaround_p99_ms", "ms", false, D, "submit until wait returns, 99th percentile; shows the wait stalls"),
    m("server.restart_s", "s", false, D, "Server::open over the WAL the timed phase left behind, fastest of several reopenings; equals server.recover_s plus journal.replay_s"),
    m("server.recover_s", "s", false, D, "server.restart_s minus journal.replay_s; moves server.restart_s"),
    m("journal.appends_per_job", "ratio", false, D, "WAL appends per completed job; moves server.ack_p50_ms, server.ack_p90_ms and server.restart_s"),
    m("journal.appends_per_fsync", "ratio", true, D, "WAL appends per fsync; moves server.ack_p50_ms and server.ack_p90_ms"),
    m("journal.wal_bytes_per_job", "B", false, D, "WAL bytes on disk per completed job; moves server.restart_s"),
    m("journal.replay_s", "s", false, D, "Wal::open alone on a copy of the run's WAL, fastest of several; moves server.restart_s"),
    m("trace.overhead_pct", "%", false, ALL, "traced over untraced pass time minus one, passes alternating within the run: fastest passes (grid, fattree), median client rounds (daemon)"),
    m("bench.self_ms", "ms", false, ALL, "self time of the benchmark's own spans (pass, job, round) per traced pass: verdict checks, replays, bookkeeping"),
    m("counts.mismatches", "count", false, LOCAL, "deterministic counters that differ between passes of this run or from an earlier run of the same binary and seed; nonzero means nondeterminism, not noise"),
];

/// The metrics a run of `workload` measures.
pub fn expected(workload: &str, traced: bool) -> impl Iterator<Item = &'static MetricSpec> + '_ {
    table(traced)
        .iter()
        .filter(move |s| s.workloads.contains(&workload))
}

fn table(traced: bool) -> &'static [MetricSpec] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Renders the result line: every metric of the trace mode's table, in
/// table order. `metrics` must be exactly the set [`expected`] names for
/// this workload; anything else is a bug in the workload, caught here
/// before a number is printed. A per-layer metric of a layer the
/// workload does not measure is printed as 0.
pub fn result_line(
    workload: &str,
    traced: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64)],
) -> Result<String, String> {
    let mut want: Vec<&str> = expected(workload, traced).map(|s| s.name).collect();
    let mut got: Vec<&str> = metrics.iter().map(|(n, _)| *n).collect();
    got.sort_unstable();
    want.sort_unstable();
    if got != want {
        return Err(format!(
            "workload {workload} produced metrics {got:?}, expected {want:?}"
        ));
    }
    let mut body = Vec::new();
    for spec in table(traced) {
        let value = metrics
            .iter()
            .find(|(n, _)| *n == spec.name)
            .map_or(0.0, |(_, v)| *v);
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", spec.name));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            spec.name, spec.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

/// The line printed when a verdict contradicts its known answer: no
/// timing is reported for a wrong program.
pub fn wrong_line(attempted: u64, failed: u64) -> String {
    format!("{{\"correct\": false, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Just enough JSON to read the manifest and a result line back.
    #[derive(Debug)]
    enum Json {
        Lit,
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
        fn as_arr(&self) -> Option<&[Json]> {
            match self {
                Json::Arr(a) => Some(a),
                _ => None,
            }
        }
        fn as_f64(&self) -> Option<f64> {
            match self {
                Json::Num(x) => Some(*x),
                _ => None,
            }
        }
        fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }
    }

    struct Parser<'a> {
        b: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.b.get(self.i).is_some_and(u8::is_ascii_whitespace) {
                self.i += 1;
            }
        }
        fn eat(&mut self, c: u8) {
            self.ws();
            assert_eq!(self.b[self.i], c, "expected {} at {}", c as char, self.i);
            self.i += 1;
        }
        fn string(&mut self) -> String {
            self.eat(b'"');
            let mut out = String::new();
            while self.b[self.i] != b'"' {
                if self.b[self.i] == b'\\' {
                    self.i += 1;
                }
                out.push(self.b[self.i] as char);
                self.i += 1;
            }
            self.i += 1;
            out
        }
        fn list<T>(&mut self, close: u8, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
            let mut out = Vec::new();
            self.ws();
            while self.b[self.i] != close {
                out.push(item(self));
                self.ws();
                if self.b[self.i] == b',' {
                    self.i += 1;
                    self.ws();
                }
            }
            self.i += 1;
            out
        }
        fn value(&mut self) -> Json {
            self.ws();
            match self.b[self.i] {
                b'{' => {
                    self.i += 1;
                    Json::Obj(self.list(b'}', |p| {
                        let k = p.string();
                        p.eat(b':');
                        (k, p.value())
                    }))
                }
                b'[' => {
                    self.i += 1;
                    Json::Arr(self.list(b']', Self::value))
                }
                b'"' => Json::Str(self.string()),
                b't' | b'f' | b'n' => {
                    while self.b[self.i].is_ascii_alphabetic() {
                        self.i += 1;
                    }
                    Json::Lit
                }
                _ => {
                    let start = self.i;
                    while self
                        .b
                        .get(self.i)
                        .is_some_and(|c| b"+-.eE0123456789".contains(c))
                    {
                        self.i += 1;
                    }
                    let text = std::str::from_utf8(&self.b[start..self.i]).expect("ascii");
                    Json::Num(
                        text.parse()
                            .unwrap_or_else(|e| panic!("number {text}: {e}")),
                    )
                }
            }
        }
    }

    fn parse(text: &str) -> Json {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, text.len(), "trailing input");
        v
    }

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse(&text)
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn table(specs: &[MetricSpec]) -> Vec<(String, String, String)> {
        specs
            .iter()
            .map(|s| {
                let better = if s.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                (s.name.to_string(), s.unit.to_string(), better.to_string())
            })
            .collect()
    }

    #[test]
    fn printed_names_and_units_match_the_manifest() {
        let doc = manifest();
        assert_eq!(listed(&doc, "end_to_end"), table(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), table(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
        // Every bound is at most a quarter, and set-up time has the
        // largest, since it is the noisiest and the least gated.
        let bound = |m: &Json| m.get("bound").and_then(Json::as_f64).expect("bound");
        let e2e = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end");
        let setup = e2e
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"));
        let setup = bound(setup.expect("setup_s"));
        assert!(e2e.iter().all(|m| bound(m) <= setup && bound(m) <= 0.25));
    }

    #[test]
    fn every_workload_measures_every_end_to_end_metric() {
        for s in END_TO_END {
            assert_eq!(s.workloads, ALL, "{}", s.name);
        }
        for s in PER_LAYER {
            assert!(!s.workloads.is_empty(), "{} has no workload", s.name);
            assert!(
                s.workloads.iter().all(|w| WORKLOADS.contains(w)),
                "{}",
                s.name
            );
        }
        for w in WORKLOADS {
            assert!(expected(w, true).count() > 0, "{w}");
        }
    }

    /// The line a run prints, parsed back: metric name to (value, unit).
    fn printed(line: &str) -> Vec<(String, f64, String)> {
        let doc = parse(line);
        let Some(Json::Obj(kv)) = doc.get("metrics") else {
            panic!("no metrics object in {line}");
        };
        kv.iter()
            .map(|(k, v)| {
                let value = v.get("value").and_then(Json::as_f64).expect("value");
                let unit = v.get("unit").and_then(Json::as_str).expect("unit");
                (k.clone(), value, unit.to_string())
            })
            .collect()
    }

    #[test]
    fn every_workload_prints_every_metric_of_the_manifest() {
        let doc = manifest();
        for w in WORKLOADS {
            for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let measured: Vec<(&'static str, f64)> =
                    expected(w, traced).map(|s| (s.name, 1.5)).collect();
                let line = result_line(w, traced, 3, 0, &measured).expect("complete set");
                let got: Vec<(String, String)> =
                    printed(&line).into_iter().map(|(n, _, u)| (n, u)).collect();
                let want: Vec<(String, String)> = listed(&doc, key)
                    .into_iter()
                    .map(|(n, u, _)| (n, u))
                    .collect();
                assert_eq!(got, want, "{w} {key}");
            }
        }
    }

    #[test]
    fn result_line_refuses_missing_or_extra_metrics() {
        let full: Vec<(&'static str, f64)> =
            expected(FATTREE, false).map(|s| (s.name, 1.5)).collect();
        let line = result_line(FATTREE, false, 3, 0, &full).expect("complete set");
        let setup = printed(&line)
            .into_iter()
            .find(|(n, _, _)| n == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.1, setup.2.as_str()), (1.5, "s"));
        assert!(result_line(FATTREE, false, 3, 0, &full[1..]).is_err());
        let mut extra = full.clone();
        extra.push(("server.restart_s", 1.0));
        assert!(result_line(FATTREE, false, 3, 0, &extra).is_err());
        let mut nan = full;
        nan[0].1 = f64::NAN;
        assert!(result_line(FATTREE, false, 3, 0, &nan).is_err());
    }

    #[test]
    fn unmeasured_layers_print_zero() {
        let grid: Vec<(&'static str, f64)> = expected(GRID, true).map(|s| (s.name, 1.5)).collect();
        let line = result_line(GRID, true, 3, 0, &grid).expect("complete set");
        for (name, value, _) in printed(&line) {
            let spec = PER_LAYER.iter().find(|s| s.name == name).expect("listed");
            let measured = spec.workloads.contains(&GRID);
            assert_eq!(value, if measured { 1.5 } else { 0.0 }, "{name}");
        }
    }
}
