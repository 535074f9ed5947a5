//! The deterministic counters the engines return in `Stats`. At
//! `jobs = 1` they repeat exactly from pass to pass and from run to run
//! of the same build, so any difference is nondeterminism, not noise.

use verdict_mc::stats::Phase;
use verdict_mc::Stats;

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub sat_conflicts: u64,
    pub sat_decisions: u64,
    pub sat_propagations: u64,
    pub smt_pivots: u64,
    pub bdd_nodes_allocated: u64,
    pub bdd_ite_lookups: u64,
    pub bdd_ite_hits: u64,
    pub bdd_peak_live_nodes: u64,
    pub fixpoint_iterations: u64,
}

impl Counts {
    pub fn add(&mut self, s: &Stats) {
        self.sat_conflicts += s.sat.conflicts;
        self.sat_decisions += s.sat.decisions;
        self.sat_propagations += s.sat.propagations;
        self.smt_pivots += s.smt.pivots;
        self.bdd_nodes_allocated += s.bdd.nodes_allocated;
        self.bdd_ite_lookups += s.bdd.ite_cache_lookups;
        self.bdd_ite_hits += s.bdd.ite_cache_hits;
        self.bdd_peak_live_nodes = self.bdd_peak_live_nodes.max(s.bdd.peak_live_nodes);
        self.fixpoint_iterations += s.fixpoint_iterations;
    }

    pub fn pairs(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("sat.conflicts", self.sat_conflicts),
            ("sat.decisions", self.sat_decisions),
            ("sat.propagations", self.sat_propagations),
            ("smt.pivots", self.smt_pivots),
            ("bdd.nodes_allocated", self.bdd_nodes_allocated),
            ("bdd.ite_lookups", self.bdd_ite_lookups),
            ("bdd.ite_hits", self.bdd_ite_hits),
            ("bdd.peak_live_nodes", self.bdd_peak_live_nodes),
            ("mc.fixpoint_iterations", self.fixpoint_iterations),
        ]
    }

    pub fn ite_hit_rate(&self) -> f64 {
        if self.bdd_ite_lookups == 0 {
            0.0
        } else {
            self.bdd_ite_hits as f64 / self.bdd_ite_lookups as f64
        }
    }

    /// Counters differing between passes of this run plus those
    /// differing from an earlier run of the same binary and seed.
    pub fn mismatches(passes: &[Counts], workload: &str, seed: u64) -> u64 {
        let first = passes.first().copied().unwrap_or_default();
        let within: u64 = passes
            .iter()
            .map(|c| {
                first
                    .pairs()
                    .iter()
                    .zip(c.pairs())
                    .filter(|(a, b)| a.1 != b.1)
                    .count() as u64
            })
            .sum();
        if within > 0 {
            eprintln!("perfbench: counters differ between passes of one run: {passes:?}");
        }
        within + crate::host::compare_with_earlier_run(workload, seed, &first.pairs())
    }
}

/// Phase times a call returned, in seconds: encode, solve, and
/// certify plus replay.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phases {
    pub encode: f64,
    pub solve: f64,
    pub certify: f64,
}

impl Phases {
    pub fn of(s: &Stats) -> Phases {
        let secs = |p| s.phase_nanos(p) as f64 * 1e-9;
        Phases {
            encode: secs(Phase::Encode),
            solve: secs(Phase::Solve),
            certify: secs(Phase::Certify) + secs(Phase::Replay),
        }
    }

    pub fn total(&self) -> f64 {
        self.encode + self.solve + self.certify
    }
}
