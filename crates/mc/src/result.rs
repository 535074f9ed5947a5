//! Verdicts, options, and errors shared by every engine.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use verdict_journal::fault;
use verdict_ring::Heartbeat;
use verdict_sat::Limits;
use verdict_ts::Trace;

use crate::retry::RetryPolicy;
use crate::stats::TraceSink;

/// Outcome of a model-checking run. `PartialEq` compares verdicts
/// structurally (traces included) — what resume tests use to show a
/// recovered run is identical to an uninterrupted one.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckResult {
    /// The property holds (engine-specific guarantee: complete engines
    /// prove it; BMC reports `Holds` only when an inductive argument or
    /// a completeness threshold applies — otherwise it returns
    /// [`CheckResult::Unknown`]).
    Holds,
    /// The property is violated; the trace is the evidence.
    Violated(Trace),
    /// No verdict within the given resource limits.
    Unknown(UnknownReason),
}

impl CheckResult {
    /// True iff the verdict is `Holds`.
    pub fn holds(&self) -> bool {
        matches!(self, CheckResult::Holds)
    }

    /// True iff the verdict is `Violated`.
    pub fn violated(&self) -> bool {
        matches!(self, CheckResult::Violated(_))
    }

    /// The counterexample trace, if violated.
    pub fn trace(&self) -> Option<&Trace> {
        match self {
            CheckResult::Violated(t) => Some(t),
            _ => None,
        }
    }
}

impl fmt::Display for CheckResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckResult::Holds => write!(f, "property HOLDS"),
            CheckResult::Violated(t) => {
                writeln!(f, "property VIOLATED; counterexample:")?;
                write!(f, "{t}")
            }
            CheckResult::Unknown(r) => write!(f, "UNKNOWN ({r})"),
        }
    }
}

/// Why an engine stopped without a verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnknownReason {
    /// Unrolling reached the depth bound without a violation or proof.
    DepthBound,
    /// Wall-clock timeout.
    Timeout,
    /// Conflict/step budget exhausted.
    EffortBound,
    /// Another worker raised the shared stop flag (portfolio racing or
    /// early-exit synthesis) and this engine exited cooperatively.
    Cancelled,
    /// The engine produced a verdict whose certificate (counterexample
    /// replay, inductive-invariant re-check, or UNSAT proof) failed
    /// independent validation — the verdict is withheld rather than
    /// reported unverified.
    CertificateRejected,
    /// The engine panicked and the panic was contained at the isolation
    /// boundary (portfolio contender thread or synthesis worker).
    EngineFailure,
    /// A memory-shaped resource ceiling was hit: SAT clause count, BDD
    /// node count, or exact-rational overflow in the simplex.
    ResourceExhausted,
    /// A supervision watchdog declared the worker running this check
    /// hung (stopped polling its budget past `deadline + grace`) and
    /// escalated: the verdict is honest-Unknown, not a logical limit.
    HungWorker,
}

impl UnknownReason {
    /// Stable lowercase tag used in JSON output and journal records.
    pub fn tag(self) -> &'static str {
        match self {
            UnknownReason::DepthBound => "depth-bound",
            UnknownReason::Timeout => "timeout",
            UnknownReason::EffortBound => "effort-bound",
            UnknownReason::Cancelled => "cancelled",
            UnknownReason::CertificateRejected => "certificate-rejected",
            UnknownReason::EngineFailure => "engine-failure",
            UnknownReason::ResourceExhausted => "resource-exhausted",
            UnknownReason::HungWorker => "hung-worker",
        }
    }

    /// Parses a tag produced by [`UnknownReason::tag`].
    pub fn from_tag(s: &str) -> Option<UnknownReason> {
        match s {
            "depth-bound" => Some(UnknownReason::DepthBound),
            "timeout" => Some(UnknownReason::Timeout),
            "effort-bound" => Some(UnknownReason::EffortBound),
            "cancelled" => Some(UnknownReason::Cancelled),
            "certificate-rejected" => Some(UnknownReason::CertificateRejected),
            "engine-failure" => Some(UnknownReason::EngineFailure),
            "resource-exhausted" => Some(UnknownReason::ResourceExhausted),
            "hung-worker" => Some(UnknownReason::HungWorker),
            _ => None,
        }
    }

    /// Whether this reason signals an *infrastructure* failure (engine
    /// death, resource ceiling, deadline) rather than an honest logical
    /// limit (depth/effort bound) — infrastructure failures are worth
    /// retrying with a bigger budget, logical limits are not.
    pub fn retryable(self) -> bool {
        matches!(
            self,
            UnknownReason::EngineFailure
                | UnknownReason::ResourceExhausted
                | UnknownReason::Timeout
                | UnknownReason::HungWorker
        )
    }

    /// Whether this reason means the infrastructure failed, not the
    /// model: engine death, a resource ceiling, a rejected certificate
    /// or a hung worker. These make `verdict check` and `submit` exit 1;
    /// honest limits (depth, effort, timeout, cancellation) do not.
    pub fn infrastructure(self) -> bool {
        matches!(
            self,
            UnknownReason::EngineFailure
                | UnknownReason::ResourceExhausted
                | UnknownReason::CertificateRejected
                | UnknownReason::HungWorker
        )
    }
}

impl fmt::Display for UnknownReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnknownReason::DepthBound => write!(f, "depth bound reached"),
            UnknownReason::Timeout => write!(f, "timeout"),
            UnknownReason::EffortBound => write!(f, "effort budget exhausted"),
            UnknownReason::Cancelled => write!(f, "cancelled"),
            UnknownReason::CertificateRejected => {
                write!(f, "certificate rejected by independent check")
            }
            UnknownReason::EngineFailure => {
                write!(f, "engine failure (panic contained)")
            }
            UnknownReason::ResourceExhausted => {
                write!(f, "resource budget exhausted")
            }
            UnknownReason::HungWorker => {
                write!(f, "worker hung (watchdog escalation)")
            }
        }
    }
}

/// The supervision handle a watchdog shares with one engine run: a
/// per-worker [`Heartbeat`] the run stamps on every budget poll (proof
/// of liveness by *change*), and a poison flag the watchdog raises as
/// its second escalation step when raising the stop flag did not get
/// the worker back.
///
/// Poison differs from the stop flag in what the verdict says: a
/// stop-flag exit reports [`UnknownReason::Cancelled`] (someone chose
/// to cancel), a poisoned exit reports [`UnknownReason::HungWorker`]
/// (the watchdog declared the run wedged). Both are cooperative — a
/// thread that never polls its budget responds to neither, which is
/// exactly what the heartbeat exposes.
#[derive(Debug, Default)]
pub struct Supervision {
    heartbeat: Arc<Heartbeat>,
    poison: AtomicBool,
}

impl Supervision {
    /// A handle stamping `heartbeat` — typically the supervised worker
    /// slot's cell, shared across every job that slot runs.
    pub fn new(heartbeat: Arc<Heartbeat>) -> Supervision {
        Supervision {
            heartbeat,
            poison: AtomicBool::new(false),
        }
    }

    /// Stamps one beat on the worker's heartbeat cell.
    #[inline]
    pub fn beat(&self) {
        self.heartbeat.beat();
    }

    /// The heartbeat cell this handle stamps.
    pub fn heartbeat(&self) -> &Arc<Heartbeat> {
        &self.heartbeat
    }

    /// Watchdog escalation step two: make every subsequent budget poll
    /// in this run report [`UnknownReason::HungWorker`].
    pub fn poison(&self) {
        self.poison.store(true, Ordering::SeqCst);
    }

    /// Whether the watchdog has poisoned this run.
    #[inline]
    pub fn poisoned(&self) -> bool {
        self.poison.load(Ordering::Relaxed)
    }
}

/// An error that prevents checking at all (ill-typed model, wrong engine
/// for the model's sorts, …) — as opposed to a resource-limited
/// [`CheckResult::Unknown`].
#[derive(Clone, Debug)]
pub struct McError(pub String);

impl fmt::Display for McError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "model checking error: {}", self.0)
    }
}

impl std::error::Error for McError {}

impl From<verdict_ts::TypeError> for McError {
    fn from(e: verdict_ts::TypeError) -> McError {
        McError(e.to_string())
    }
}

/// Resource limits and knobs for a checking run.
#[derive(Clone, Debug)]
pub struct CheckOptions {
    /// Maximum BMC unrolling depth (transitions).
    pub max_depth: usize,
    /// Wall-clock budget.
    pub timeout: Option<Duration>,
    /// Cooperative cancellation: engines exit with
    /// [`UnknownReason::Cancelled`] soon after this shared flag is raised
    /// by another thread. `None` = never cancelled.
    pub stop: Option<Arc<AtomicBool>>,
    /// Worker threads for parallel operations (portfolio racing already
    /// uses one thread per engine; parameter synthesis shards assignments
    /// over this many workers). `None` = `std::thread::available_parallelism()`.
    pub jobs: Option<usize>,
    /// Certify verdicts before reporting: counterexample traces are
    /// replayed through the independent reference interpreter
    /// (`verdict_ts::replay`) and k-induction/BDD `Holds` verdicts are
    /// re-checked with fresh SAT queries. A failed check demotes the
    /// verdict to [`UnknownReason::CertificateRejected`].
    pub certify: bool,
    /// SAT clause-count ceiling (original + learnt, a memory backstop):
    /// solvers give up `Unknown` ([`UnknownReason::ResourceExhausted`])
    /// once the clause database grows past this. `None` = unbounded.
    pub max_clauses: Option<usize>,
    /// BDD node-count ceiling: symbolic fixpoints give up `Unknown`
    /// ([`UnknownReason::ResourceExhausted`]) once the manager holds more
    /// nodes than this. `None` = unbounded.
    pub max_bdd_nodes: Option<usize>,
    /// Parameter synthesis only: pin assignments with assumption literals
    /// over one shared unrolling (one SAT solver per worker survives the
    /// whole sweep), instead of cloning and re-encoding the system per
    /// assignment. `None` = auto: on where the incremental path exists
    /// (invariant properties under the k-induction synthesis engine),
    /// clone-per-assignment everywhere else. `Some(false)` forces the
    /// clone path even there.
    pub incremental: Option<bool>,
    /// Retry failed checks with escalating budgets: a verdict of
    /// `Unknown` with a [retryable](UnknownReason::retryable) reason is
    /// re-run up to the policy's attempt cap, each time with the
    /// deadline/clause/node ceilings multiplied and a jittered backoff
    /// pause in between. `None` = one attempt, no retries.
    pub retry: Option<RetryPolicy>,
    /// Structured trace sink: engines append JSONL span/depth/mark events
    /// here as they run (see [`TraceSink`]). Shared — clones of the
    /// options write to the same sink. `None` = no tracing.
    pub trace: Option<Arc<TraceSink>>,
    /// Allow learned-clause sharing between parallel solvers. Only takes
    /// effect where a sharing hub gets installed (portfolio races and
    /// incremental synthesis sweeps with ≥ 2 workers); single-solver runs
    /// are unaffected, so jobs = 1 stats stay bit-identical. Soundness
    /// does not depend on this flag: the solver-side prefix guard rejects
    /// any clause not entailed by the importer's own input
    /// (`verdict_sat::share`), and `certify` re-proves with fresh
    /// import-free solvers either way.
    pub sharing: bool,
    /// The clause-sharing hub solvers attach to, installed internally by
    /// the portfolio/synthesis layers when `sharing` is on (callers can
    /// also pre-install one to make sequential runs exchange clauses —
    /// see the clause-sharing tests). Engines that unroll the same CNF
    /// prefix (BMC and the k-induction base case) take one endpoint each;
    /// `None` = no sharing.
    pub share_hub: Option<Arc<verdict_sat::ClauseHub>>,
    /// Symbolic engine: use the partitioned transition relation (one
    /// clustered update BDD per group of state variables, images by
    /// chained `and_exists` with early quantification) instead of one
    /// monolithic `trans` BDD. On by default — the monolithic relation is
    /// kept as a baseline/debugging path (`--bdd-monolithic`).
    pub bdd_partitioned: bool,
    /// Symbolic engine: allow dynamic variable reordering (block sifting)
    /// when the manager's live-node count crosses the growth threshold.
    /// On by default; `--bdd-no-sift` disables it.
    pub bdd_sift: bool,
    /// Symbolic engine: live-node count that triggers the first sift.
    /// `None` = adaptive (a multiple of the post-encoding node count,
    /// doubling after each sift). A fixed value is mostly a test hook for
    /// forcing sifts on small models.
    pub bdd_sift_threshold: Option<usize>,
    /// Watchdog supervision handle: every budget poll stamps its
    /// heartbeat, and a poisoned handle makes polls report
    /// [`UnknownReason::HungWorker`]. `None` = unsupervised (the
    /// default everywhere outside the daemon's worker pool).
    pub supervision: Option<Arc<Supervision>>,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            max_depth: 64,
            timeout: None,
            stop: None,
            jobs: None,
            certify: false,
            max_clauses: None,
            max_bdd_nodes: None,
            incremental: None,
            retry: None,
            trace: None,
            sharing: true,
            share_hub: None,
            bdd_partitioned: true,
            bdd_sift: true,
            bdd_sift_threshold: None,
            supervision: None,
        }
    }
}

impl CheckOptions {
    /// A fluent builder over every knob; finish with
    /// [`CheckOptionsBuilder::build`].
    ///
    /// ```
    /// use std::time::Duration;
    /// use verdict_mc::CheckOptions;
    ///
    /// let opts = CheckOptions::builder()
    ///     .max_depth(32)
    ///     .timeout(Duration::from_secs(5))
    ///     .certify(true)
    ///     .build();
    /// assert_eq!(opts.max_depth, 32);
    /// assert!(opts.certify);
    /// ```
    pub fn builder() -> CheckOptionsBuilder {
        CheckOptionsBuilder {
            opts: CheckOptions::default(),
        }
    }

    /// Options with a depth bound.
    pub fn with_depth(max_depth: usize) -> CheckOptions {
        CheckOptions {
            max_depth,
            ..CheckOptions::default()
        }
    }

    /// Adds a wall-clock budget.
    pub fn with_timeout(mut self, timeout: Duration) -> CheckOptions {
        self.timeout = Some(timeout);
        self
    }

    /// Attaches a shared cancellation flag.
    pub fn with_stop(mut self, stop: Arc<AtomicBool>) -> CheckOptions {
        self.stop = Some(stop);
        self
    }

    /// Sets the worker-thread count for parallel operations.
    pub fn with_jobs(mut self, jobs: usize) -> CheckOptions {
        self.jobs = Some(jobs);
        self
    }

    /// Enables verdict certification (trace replay + proof re-checking).
    pub fn with_certify(mut self) -> CheckOptions {
        self.certify = true;
        self
    }

    /// Caps the SAT clause database (memory backstop).
    pub fn with_max_clauses(mut self, max: usize) -> CheckOptions {
        self.max_clauses = Some(max);
        self
    }

    /// Caps the BDD node count (memory backstop).
    pub fn with_max_bdd_nodes(mut self, max: usize) -> CheckOptions {
        self.max_bdd_nodes = Some(max);
        self
    }

    /// Forces the incremental (assumption-pinned) synthesis sweep on or
    /// off instead of the auto default.
    pub fn with_incremental(mut self, on: bool) -> CheckOptions {
        self.incremental = Some(on);
        self
    }

    /// Attaches a retry policy for infrastructure failures.
    pub fn with_retry(mut self, policy: RetryPolicy) -> CheckOptions {
        self.retry = Some(policy);
        self
    }

    /// Attaches a shared structured-trace sink.
    pub fn with_trace(mut self, sink: Arc<TraceSink>) -> CheckOptions {
        self.trace = Some(sink);
        self
    }

    /// Enables or disables learned-clause sharing between parallel
    /// solvers (on by default; only effective where a hub is installed).
    pub fn with_sharing(mut self, on: bool) -> CheckOptions {
        self.sharing = on;
        self
    }

    /// Installs a clause-sharing hub for the engines this run spawns.
    pub fn with_share_hub(mut self, hub: Arc<verdict_sat::ClauseHub>) -> CheckOptions {
        self.share_hub = Some(hub);
        self
    }

    /// Selects the partitioned (true, default) or monolithic (false)
    /// transition relation in the symbolic engine.
    pub fn with_bdd_partitioned(mut self, on: bool) -> CheckOptions {
        self.bdd_partitioned = on;
        self
    }

    /// Enables or disables dynamic variable reordering (sifting) in the
    /// symbolic engine.
    pub fn with_bdd_sift(mut self, on: bool) -> CheckOptions {
        self.bdd_sift = on;
        self
    }

    /// Fixes the live-node count that triggers sifting instead of the
    /// adaptive default.
    pub fn with_bdd_sift_threshold(mut self, nodes: usize) -> CheckOptions {
        self.bdd_sift_threshold = Some(nodes);
        self
    }

    /// Attaches a watchdog supervision handle (heartbeat + poison flag).
    pub fn with_supervision(mut self, sup: Arc<Supervision>) -> CheckOptions {
        self.supervision = Some(sup);
        self
    }

    /// Attaches a sharing endpoint to `solver` if a hub is installed,
    /// sharing is enabled, and the hub still has endpoints to give out.
    /// Call before the solver sees its first clause — attachment on a
    /// non-empty solver is refused by `verdict_sat`.
    pub(crate) fn attach_sharing(&self, solver: &mut verdict_sat::Solver) {
        if !self.sharing {
            return;
        }
        if let Some(hub) = &self.share_hub {
            if let Some(ep) = hub.endpoint() {
                solver.attach_sharing(ep);
            }
        }
    }

    /// Returns self with `max_depth` replaced by `depth` **iff** it still
    /// holds the default value — used by CLIs whose subcommands have
    /// different depth defaults.
    pub fn max_depth_defaulted(mut self, depth: usize) -> CheckOptions {
        if self.max_depth == CheckOptions::default().max_depth {
            self.max_depth = depth;
        }
        self
    }

    /// The absolute deadline implied by the timeout, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.timeout.map(|t| Instant::now() + t)
    }

    /// The effective worker count for parallel operations.
    pub fn effective_jobs(&self) -> usize {
        self.jobs
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
            .max(1)
    }
}

/// Fluent builder for [`CheckOptions`]; see [`CheckOptions::builder`].
#[derive(Clone, Debug)]
pub struct CheckOptionsBuilder {
    opts: CheckOptions,
}

impl CheckOptionsBuilder {
    /// Sets the maximum unrolling depth.
    pub fn max_depth(mut self, depth: usize) -> Self {
        self.opts.max_depth = depth;
        self
    }

    /// Sets the wall-clock budget.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.opts.timeout = Some(timeout);
        self
    }

    /// Attaches a shared cancellation flag.
    pub fn stop(mut self, stop: Arc<AtomicBool>) -> Self {
        self.opts.stop = Some(stop);
        self
    }

    /// Sets the worker-thread count for parallel operations.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.opts.jobs = Some(jobs);
        self
    }

    /// Enables or disables verdict certification.
    pub fn certify(mut self, on: bool) -> Self {
        self.opts.certify = on;
        self
    }

    /// Caps the SAT clause database (memory backstop).
    pub fn max_clauses(mut self, max: usize) -> Self {
        self.opts.max_clauses = Some(max);
        self
    }

    /// Caps the BDD node count (memory backstop).
    pub fn max_bdd_nodes(mut self, max: usize) -> Self {
        self.opts.max_bdd_nodes = Some(max);
        self
    }

    /// Forces the incremental synthesis sweep on or off.
    pub fn incremental(mut self, on: bool) -> Self {
        self.opts.incremental = Some(on);
        self
    }

    /// Attaches a retry policy for infrastructure failures.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.opts.retry = Some(policy);
        self
    }

    /// Attaches a shared structured-trace sink.
    pub fn trace(mut self, sink: Arc<TraceSink>) -> Self {
        self.opts.trace = Some(sink);
        self
    }

    /// Enables or disables learned-clause sharing between parallel
    /// solvers.
    pub fn sharing(mut self, on: bool) -> Self {
        self.opts.sharing = on;
        self
    }

    /// Selects the partitioned (true, default) or monolithic (false)
    /// symbolic transition relation.
    pub fn bdd_partitioned(mut self, on: bool) -> Self {
        self.opts.bdd_partitioned = on;
        self
    }

    /// Enables or disables BDD variable sifting.
    pub fn bdd_sift(mut self, on: bool) -> Self {
        self.opts.bdd_sift = on;
        self
    }

    /// Fixes the sift trigger threshold (live nodes).
    pub fn bdd_sift_threshold(mut self, nodes: usize) -> Self {
        self.opts.bdd_sift_threshold = Some(nodes);
        self
    }

    /// Attaches a watchdog supervision handle (heartbeat + poison flag).
    pub fn supervision(mut self, sup: Arc<Supervision>) -> Self {
        self.opts.supervision = Some(sup);
        self
    }

    /// Finalizes the options.
    pub fn build(self) -> CheckOptions {
        self.opts
    }
}

/// The wall-clock + cancellation budget of one engine run, snapshotted
/// from [`CheckOptions`] at entry so the deadline is fixed once.
///
/// Engines poll [`Budget::exceeded`] in their outer loops and pass
/// [`Budget::limits`] into SAT/SMT solve calls; when a solver returns
/// `Unknown`, [`Budget::unknown_reason`] distinguishes a raised stop flag
/// ([`UnknownReason::Cancelled`]) from an expired deadline
/// ([`UnknownReason::Timeout`]).
#[derive(Clone, Debug)]
pub struct Budget {
    deadline: Option<Instant>,
    stop: Option<Arc<AtomicBool>>,
    max_clauses: Option<usize>,
    max_bdd_nodes: Option<usize>,
    /// Set by [`Budget::check_nodes`] when the BDD node ceiling is hit,
    /// so [`Budget::unknown_reason`] can report `ResourceExhausted` from
    /// fixpoint helpers that only return `None`. Shared across clones of
    /// the budget.
    node_overflow: Arc<AtomicBool>,
    /// Watchdog handle: every poll stamps its heartbeat; a poisoned
    /// handle turns polls into [`UnknownReason::HungWorker`].
    supervision: Option<Arc<Supervision>>,
}

impl Budget {
    /// Snapshots the budget (deadline + stop flag + resource ceilings)
    /// of `opts`.
    pub fn new(opts: &CheckOptions) -> Budget {
        Budget {
            deadline: opts.deadline(),
            stop: opts.stop.clone(),
            max_clauses: opts.max_clauses,
            max_bdd_nodes: opts.max_bdd_nodes,
            node_overflow: Arc::new(AtomicBool::new(false)),
            supervision: opts.supervision.clone(),
        }
    }

    /// True if the stop flag has been raised.
    pub fn cancelled(&self) -> bool {
        self.stop
            .as_ref()
            .is_some_and(|s| s.load(Ordering::Relaxed))
    }

    /// True if the watchdog has poisoned this run.
    fn poisoned(&self) -> bool {
        self.supervision.as_ref().is_some_and(|s| s.poisoned())
    }

    /// The reason to abort now, if any. Each poll stamps the worker's
    /// heartbeat — liveness is proven by the act of asking. Watchdog
    /// poisoning wins over cancellation (the stop flag was raised by the
    /// same escalation one step earlier, and `HungWorker` is the honest
    /// label); cancellation wins over timeout.
    pub fn exceeded(&self) -> Option<UnknownReason> {
        if let Some(sup) = &self.supervision {
            sup.beat();
            if sup.poisoned() {
                return Some(UnknownReason::HungWorker);
            }
        }
        if self.cancelled() {
            return Some(UnknownReason::Cancelled);
        }
        if matches!(self.deadline, Some(d) if Instant::now() >= d) {
            return Some(UnknownReason::Timeout);
        }
        // Fault-injection probe at site `mc.budget`: `Exhaust` makes the
        // budget report a spent resource ceiling (and marks the overflow
        // flag so solver-level `Unknown`s get the same reason).
        if fault::probe("mc.budget") == Some(fault::FaultKind::Exhaust) {
            self.node_overflow.store(true, Ordering::Relaxed);
            return Some(UnknownReason::ResourceExhausted);
        }
        None
    }

    /// Like [`Budget::exceeded`], additionally enforcing the BDD
    /// node-count ceiling against the manager's current `node_count`.
    pub fn check_nodes(&self, node_count: usize) -> Option<UnknownReason> {
        if let Some(reason) = self.exceeded() {
            return Some(reason);
        }
        if matches!(self.max_bdd_nodes, Some(max) if node_count > max) {
            self.node_overflow.store(true, Ordering::Relaxed);
            return Some(UnknownReason::ResourceExhausted);
        }
        None
    }

    /// Why a solver just gave up `Unknown` under `self.limits()`.
    pub fn unknown_reason(&self) -> UnknownReason {
        if self.poisoned() {
            UnknownReason::HungWorker
        } else if self.cancelled() {
            UnknownReason::Cancelled
        } else if self.node_overflow.load(Ordering::Relaxed) || fault::exhaust_fired() {
            UnknownReason::ResourceExhausted
        } else {
            UnknownReason::Timeout
        }
    }

    /// Why a SAT/SMT solver holding `num_clauses` clauses gave up
    /// `Unknown`: the clause ceiling is distinguished from
    /// cancellation/timeout.
    pub fn unknown_reason_sat(&self, num_clauses: usize) -> UnknownReason {
        if self.poisoned() {
            UnknownReason::HungWorker
        } else if self.cancelled() {
            UnknownReason::Cancelled
        } else if matches!(self.max_clauses, Some(max) if num_clauses >= max)
            || fault::exhaust_fired()
        {
            UnknownReason::ResourceExhausted
        } else {
            UnknownReason::Timeout
        }
    }

    /// Solver limits carrying this budget's deadline, stop flag, and
    /// clause ceiling.
    pub fn limits(&self) -> Limits {
        Limits {
            max_conflicts: None,
            deadline: self.deadline,
            stop: self.stop.clone(),
            max_clauses: self.max_clauses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_accessors() {
        assert!(CheckResult::Holds.holds());
        assert!(!CheckResult::Holds.violated());
        let r = CheckResult::Unknown(UnknownReason::Timeout);
        assert!(!r.holds() && !r.violated());
        assert!(r.trace().is_none());
    }

    #[test]
    fn display() {
        assert_eq!(CheckResult::Holds.to_string(), "property HOLDS");
        assert!(CheckResult::Unknown(UnknownReason::DepthBound)
            .to_string()
            .contains("depth"));
    }

    #[test]
    fn options_builder() {
        let o = CheckOptions::with_depth(10).with_timeout(Duration::from_secs(1));
        assert_eq!(o.max_depth, 10);
        assert!(o.deadline().is_some());
        assert!(o.effective_jobs() >= 1);
        assert_eq!(o.with_jobs(3).effective_jobs(), 3);
    }

    #[test]
    fn fluent_builder_mirrors_with_methods() {
        let built = CheckOptions::builder()
            .max_depth(12)
            .timeout(Duration::from_secs(3))
            .jobs(2)
            .certify(true)
            .max_clauses(1000)
            .max_bdd_nodes(2000)
            .incremental(false)
            .build();
        assert_eq!(built.max_depth, 12);
        assert_eq!(built.timeout, Some(Duration::from_secs(3)));
        assert_eq!(built.jobs, Some(2));
        assert!(built.certify);
        assert_eq!(built.max_clauses, Some(1000));
        assert_eq!(built.max_bdd_nodes, Some(2000));
        assert_eq!(built.incremental, Some(false));
        assert!(built.retry.is_none() && built.trace.is_none());
    }

    #[test]
    fn budget_distinguishes_cancel_from_timeout() {
        let stop = Arc::new(AtomicBool::new(false));
        let opts = CheckOptions::default().with_stop(stop.clone());
        let budget = Budget::new(&opts);
        assert!(budget.exceeded().is_none());
        stop.store(true, Ordering::Relaxed);
        assert_eq!(budget.exceeded(), Some(UnknownReason::Cancelled));
        assert_eq!(budget.unknown_reason(), UnknownReason::Cancelled);
        assert!(budget.limits().interrupted());

        let timed = Budget::new(&CheckOptions::default().with_timeout(Duration::ZERO));
        assert_eq!(timed.exceeded(), Some(UnknownReason::Timeout));
        assert_eq!(timed.unknown_reason(), UnknownReason::Timeout);
    }
}
