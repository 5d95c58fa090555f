//! The orchestrator: N worker threads, one dispatcher, one shared
//! knowledge store.
//!
//! [`AuditService`] collects submitted [`JobSpec`]s and [`AuditService::run`]
//! executes them concurrently against one shared [`BatchAnswerSource`], on
//! the same worker pool an [`AuditDaemon`](crate::AuditDaemon) runs — the
//! scoped batch is a daemon started, fed, drained and shut down within one
//! call, with its dispatcher on the calling thread:
//!
//! ```text
//!  job thread 1 ─ Engine ─ SharedKnowledgeSource ─ GovernedSource ─┐
//!  job thread 2 ─ Engine ─ SharedKnowledgeSource ─ GovernedSource ─┤   one
//!      ...                    (one fact base)        (budget caps) ├─ dispatcher ─ platform
//!  job thread W ─ Engine ─ SharedKnowledgeSource ─ GovernedSource ─┘   (batches HITs)
//! ```
//!
//! Every job meters its own logical [`TaskLedger`] through its engine. The
//! shared knowledge layer then *decomposes* each question: a set query any
//! known fact decides is answered on the spot, one that overlaps known
//! non-members is narrowed to its residual, and only residuals are
//! budget-checked and coalesced by the dispatcher into many-images-per-HIT
//! batches before reaching the platform — so the governor meters exactly
//! the residual crowd spend, and one job's labels shrink every other job's
//! queries. The run returns a serializable [`ServiceReport`] plus the
//! answer source itself (so callers can inspect e.g. `MTurkSim` stats).
//!
//! ```
//! use coverage_core::prelude::*;
//! use coverage_service::{AuditKind, AuditService, JobSpec, JobStatus, ServiceConfig};
//!
//! let truth = VecGroundTruth::new(
//!     (0..800).map(|i| Labels::single(u8::from(i % 10 == 0))).collect(),
//! );
//! let mut service = AuditService::new(ServiceConfig {
//!     workers: 2, // two concurrent job runners
//!     ..ServiceConfig::default()
//! });
//! let target = Target::group(Pattern::parse("1").unwrap());
//! let fast = service.submit(
//!     JobSpec::new("fast", truth.all_ids(), AuditKind::GroupCoverage { target: target.clone() })
//!         .tau(20)
//!         .priority(9), // jumps the queue when workers are contended
//! );
//! let doomed = service.submit(
//!     JobSpec::new("doomed", truth.all_ids(), AuditKind::GroupCoverage { target }).tau(20),
//! );
//! // Cancel the second job before the (blocking) run even starts it.
//! let handle = service.cancel_handle();
//! handle.cancel(doomed);
//! let (report, _source) = service.run(PerfectSource::new(&truth));
//! assert_eq!(report.job(fast).unwrap().status, JobStatus::Done);
//! assert!(report.job(doomed).unwrap().status.is_cancelled());
//! ```

use crate::daemon::{DaemonCore, WorkerContext};
use crate::dispatch::{run_dispatcher, DispatchStats};
use crate::governor::{BudgetPolicy, BudgetScope, GovernedSource, JobBudget};
use crate::job::{AuditKind, AuditOutcome, JobId, JobReport, JobSpec, JobStatus, PhaseDurations};
use crate::telemetry::{tenant_of, Telemetry};
use coverage_core::base_coverage::base_coverage;
use coverage_core::classifier::{classifier_coverage, ClassifierConfig};
use coverage_core::engine::{BatchAnswerSource, CancelToken, Engine, ForkableSource};
use coverage_core::error::{AskError, Interrupted};
use coverage_core::group_coverage::{group_coverage, DncConfig};
use coverage_core::intersectional::intersectional_coverage_par;
use coverage_core::ledger::TaskLedger;
use coverage_core::memo::ReuseStats;
use coverage_core::multiple::{multiple_coverage_par, IntraJobParallelism, MultipleConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Service tuning.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Concurrent job-runner threads.
    pub workers: usize,
    /// Images per coalesced point-query HIT at the dispatcher.
    pub point_batch: usize,
    /// Default budget caps (see [`BudgetPolicy`]).
    pub budget: BudgetPolicy,
    /// Simulated platform round-trip latency per dispatch round; zero for
    /// compute-bound runs (unit tests), nonzero to model a real crowd.
    pub round_latency: Duration,
    /// Lock stripes of the shared knowledge store (facts by object, set
    /// verdicts by query hash). Purely a contention knob: any count yields
    /// identical answers, and identical `ReuseStats` for serial runs.
    pub store_shards: usize,
    /// Default super-group-scan threads per job, for specs that leave
    /// [`JobSpec::intra_parallelism`] unset. `1` keeps every job on its own
    /// single runner thread (the pre-scale-out behaviour).
    pub intra_job_parallelism: usize,
    /// Enables the telemetry plane ([`crate::telemetry`]): the metrics
    /// registry, the trace ring and the daemon's `/metrics`–`/trace`
    /// surface. Strictly read-only — with this on or off every
    /// [`JobReport`] field except `wall_ms`/`phases_ms` is byte-identical
    /// (pinned by the `tests/telemetry.rs` proptest). Off makes every
    /// record call a no-op.
    pub telemetry: bool,
    /// Trace-ring capacity: how many of the most recent [`crate::TraceEvent`]s
    /// survive for `/trace/{id}` and `/events`. Only read when
    /// [`ServiceConfig::telemetry`] is on.
    pub trace_capacity: usize,
    /// Root of the durable knowledge plane ([`crate::persist`]): the WAL,
    /// snapshots and spill segment live here. `None` (the default) keeps
    /// the store purely in-memory — the pre-persistence behaviour. Both
    /// front doors honour it: a scoped [`AuditService::run`] recovers the
    /// facts already there, logs every new one and cuts a final snapshot,
    /// exactly as an [`AuditDaemon`](crate::AuditDaemon) does.
    pub data_dir: Option<std::path::PathBuf>,
    /// The floor of the snapshot cadence, in WAL records. A snapshot is
    /// cut at a job boundary once the WAL holds `max(snapshot_every, F)`
    /// records, where `F` is the fact count of the last snapshot, and once
    /// at shutdown — so compaction costs O(1) amortized per logged fact and
    /// the WAL replayed at restart never outgrows the last snapshot by
    /// more than this floor and one batch of running jobs (see
    /// [`crate::persist`]). Only read when [`ServiceConfig::data_dir`] is
    /// set. Purely a durability/recovery-time knob: like every
    /// persistence setting, it never changes an answer.
    pub snapshot_every: u64,
    /// In-memory cap on per-object label facts before the coldest are
    /// spilled to the on-disk segment (re-promoted on touch). `None`
    /// disables spilling. Requires [`ServiceConfig::data_dir`]. A spilled
    /// fact still counts as known — spilling can never re-ask the crowd.
    pub spill_high_watermark: Option<usize>,
    /// Event-loop threads of the HTTP connection engine
    /// ([`crate::http::HttpServer`]): accepted sockets are spread
    /// round-robin over this many readiness loops, each multiplexing many
    /// nonblocking connections. Purely a front-end concurrency knob — it
    /// never changes a response body.
    pub event_loop_threads: usize,
    /// Requests served on one keep-alive connection before the engine
    /// closes it (`Connection: close` on the final response) — bounds how
    /// long one client can monopolise an event-loop slot.
    pub keep_alive_max_requests: usize,
    /// How long a keep-alive connection may sit idle between requests
    /// before the engine closes it (408 when a request is half-parsed,
    /// silent close when the connection is between requests).
    pub keep_alive_idle: Duration,
    /// Weighted-fair-queueing weights per tenant (tenant = job-name
    /// segment before `/`, the same keying as
    /// `audit_tenant_crowd_tasks_total`). Unlisted tenants weigh 1. While
    /// backlogged, a weight-`w` tenant receives `w` scheduling decisions
    /// per decision of a weight-1 tenant. With every weight at 1 (the
    /// default) cross-tenant WFQ switches off entirely and scheduling is
    /// bit-for-bit the PR 5 priority+aging order — see
    /// [`crate::scheduler`].
    pub tenant_weights: Vec<(String, u64)>,
    /// Delivery attempts per platform question before the dispatcher
    /// dead-letters it: the first ask plus up to `retry_max_attempts - 1`
    /// retries. `1` disables retrying entirely (the pre-resilience
    /// behaviour: every transient failure is terminal). See
    /// [`RetryPolicy`](crate::RetryPolicy).
    pub retry_max_attempts: u32,
    /// Base backoff before the first retry, in milliseconds; attempt `k`
    /// waits `retry_base_ms << (k-1)` plus deterministic seeded jitter.
    pub retry_base_ms: u64,
    /// Consecutive retry-exhausted questions a tenant may accrue before
    /// its circuit breaker opens and the tenant's questions fail fast
    /// without touching the platform. `0` disables circuit breaking. See
    /// [`crate::breaker`].
    pub breaker_threshold: u32,
    /// Token-bucket rate limit + queue quota applied per tenant at the
    /// daemon's submit door. `None` (the default) admits everything — the
    /// pre-QoS behaviour. Over-limit submissions are refused with
    /// [`SubmitRefusal::RateLimited`](crate::SubmitRefusal) (HTTP 429 +
    /// `Retry-After`); over-quota ones likewise. Scoped
    /// [`AuditService::run`] batches ignore this knob (they are one
    /// operator's workload, not a shared front door).
    pub tenant_rate_limit: Option<TenantRateLimit>,
    /// Fleet peers (`host:port` of the other nodes' HTTP front doors)
    /// this daemon's anti-entropy loop ships `KnowledgeStore` deltas to.
    /// Empty (the default) means a solo daemon: no gossip thread, no
    /// peer states on `/readyz` — the pre-fleet behaviour. See
    /// [`crate::fleet`].
    pub fleet_peers: Vec<String>,
    /// Cadence of the anti-entropy loop in milliseconds: how often a
    /// fleet node diffs its fact base against what it last shipped each
    /// peer and POSTs the delta to `/fleet/delta`. Lower spreads facts
    /// faster (less duplicate crowd spend across nodes); higher costs
    /// less background traffic. Never changes a verdict. Only read when
    /// [`ServiceConfig::fleet_peers`] is non-empty.
    pub anti_entropy_ms: u64,
}

/// Per-tenant admission control at the daemon's submit door: a classic
/// token bucket (sustained rate + burst depth) plus an optional cap on
/// jobs simultaneously queued. Applied independently to every tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantRateLimit {
    /// Sustained submissions per second each tenant may make (tokens
    /// refill at this rate, fractionally, up to `burst`).
    pub per_second: u32,
    /// Bucket depth: how many submissions a tenant may burst after an
    /// idle spell. Also the initial fill.
    pub burst: u32,
    /// Jobs one tenant may have queued (not yet running) at once; `None`
    /// leaves the queue unbounded.
    pub max_queued: Option<usize>,
}

impl ServiceConfig {
    /// Asserts the count knobs are in domain — the one gate both front
    /// doors ([`AuditService::new`] and
    /// [`AuditDaemon::start`](crate::AuditDaemon::start)) go through, so a
    /// future constraint cannot be enforced on one and forgotten on the
    /// other. Config is operator input, not tenant input, hence asserts
    /// rather than `Result` (contrast [`JobSpec::validate`]).
    pub(crate) fn assert_valid(&self) {
        assert!(self.workers > 0, "need at least one worker");
        assert!(self.point_batch > 0, "point batch must be positive");
        assert!(self.store_shards > 0, "need at least one store shard");
        assert!(
            self.intra_job_parallelism > 0,
            "intra-job parallelism must be positive"
        );
        assert!(
            !self.telemetry || self.trace_capacity > 0,
            "trace capacity must be positive when telemetry is on"
        );
        assert!(self.snapshot_every > 0, "snapshot cadence must be positive");
        assert!(
            self.spill_high_watermark.is_none() || self.data_dir.is_some(),
            "spill_high_watermark requires data_dir (the spill segment lives there)"
        );
        assert!(
            self.spill_high_watermark != Some(0),
            "spill watermark must be positive"
        );
        assert!(
            self.event_loop_threads > 0,
            "need at least one event-loop thread"
        );
        assert!(
            self.keep_alive_max_requests > 0,
            "keep-alive request cap must be positive"
        );
        assert!(
            self.keep_alive_idle > Duration::ZERO,
            "keep-alive idle timeout must be positive"
        );
        assert!(
            self.tenant_weights.iter().all(|(_, w)| *w >= 1),
            "tenant weights must be >= 1"
        );
        assert!(
            self.retry_max_attempts > 0,
            "need at least one delivery attempt per question"
        );
        assert!(
            self.anti_entropy_ms > 0,
            "the anti-entropy cadence must be positive"
        );
        if let Some(limit) = &self.tenant_rate_limit {
            assert!(limit.per_second > 0, "rate limit must be positive");
            assert!(limit.burst > 0, "rate-limit burst must be positive");
            assert!(
                limit.max_queued != Some(0),
                "tenant queue quota must be positive"
            );
        }
    }

    /// The dispatcher retry policy these knobs describe (the jitter seed
    /// and the 30 s per-HIT deadline are fixed: retries must be
    /// reproducible across runs, not tunable).
    pub(crate) fn retry_policy(&self) -> crate::dispatch::RetryPolicy {
        crate::dispatch::RetryPolicy {
            max_attempts: self.retry_max_attempts,
            base: Duration::from_millis(self.retry_base_ms),
            ..crate::dispatch::RetryPolicy::default()
        }
    }

    /// A fresh per-tenant breaker registry at this config's threshold.
    pub(crate) fn build_breakers(&self) -> crate::breaker::BreakerRegistry {
        crate::breaker::BreakerRegistry::new(
            self.breaker_threshold,
            crate::breaker::BREAKER_COOLDOWN,
        )
    }

    /// The telemetry plane this config asks for: a live registry + trace
    /// ring, or the inert [`Telemetry::disabled`] plane.
    pub(crate) fn build_telemetry(&self) -> Telemetry {
        if self.telemetry {
            Telemetry::new(self.trace_capacity)
        } else {
            Telemetry::disabled()
        }
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            point_batch: coverage_core::engine::DEFAULT_POINT_BATCH,
            budget: BudgetPolicy::unlimited(),
            round_latency: Duration::ZERO,
            store_shards: coverage_core::memo::DEFAULT_STORE_SHARDS,
            intra_job_parallelism: 1,
            telemetry: true,
            trace_capacity: 1024,
            data_dir: None,
            snapshot_every: 10_000,
            spill_high_watermark: None,
            event_loop_threads: 2,
            keep_alive_max_requests: 1024,
            keep_alive_idle: Duration::from_secs(10),
            tenant_weights: Vec::new(),
            retry_max_attempts: 3,
            retry_base_ms: 10,
            breaker_threshold: 8,
            tenant_rate_limit: None,
            fleet_peers: Vec::new(),
            anti_entropy_ms: 200,
        }
    }
}

/// Aggregate result of one service run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceReport {
    /// Per-job reports, in submission (id) order.
    pub jobs: Vec<JobReport>,
    /// Sum of the jobs' logical ledgers — the work the audits *asked for*.
    pub total_logical: TaskLedger,
    /// Crowd tasks actually charged past the shared knowledge store (the
    /// platform bill for the whole run).
    pub crowd_tasks: u64,
    /// Questions answered entirely by the shared knowledge store.
    pub cache_hits: u64,
    /// Questions that had to reach the platform (narrowed ones included).
    pub cache_misses: u64,
    /// Full disposition tally of the shared knowledge store: answered from
    /// facts, narrowed to residuals, forwarded untouched.
    pub reuse: ReuseStats,
    /// Dispatcher activity (rounds, coalesced HITs).
    pub dispatch: DispatchStats,
    /// Wall-clock milliseconds for the whole run.
    pub wall_ms: u64,
}

impl ServiceReport {
    /// The report of one job.
    pub fn job(&self, id: JobId) -> Option<&JobReport> {
        self.jobs.iter().find(|j| j.id == id)
    }

    /// How many jobs ended in the given status.
    pub fn count_status(&self, status: JobStatus) -> usize {
        self.jobs.iter().filter(|j| j.status == status).count()
    }

    /// Renders the report as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

/// Cancels submitted jobs from outside the run — any thread, any time.
///
/// Obtained from [`AuditService::cancel_handle`] **before** the (blocking)
/// [`AuditService::run`]. Cancellation is cooperative: a running job
/// observes it at its next question and reports
/// [`JobStatus::Cancelled`] with the partial result discovered so far; a
/// job still queued reports `Cancelled` without running at all.
#[derive(Debug, Clone)]
pub struct CancelHandle {
    tokens: Arc<Mutex<Vec<CancelToken>>>,
}

impl CancelHandle {
    /// Requests cancellation of one job. Returns `false` when no such job
    /// has been submitted.
    pub fn cancel(&self, id: JobId) -> bool {
        let tokens = lock(&self.tokens);
        match tokens.get(id.0 as usize) {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        }
    }
}

/// A multi-tenant audit orchestrator: submit jobs, then run them all
/// concurrently over one shared answer source.
#[derive(Debug)]
pub struct AuditService {
    config: ServiceConfig,
    jobs: Vec<JobSpec>,
    cancel_tokens: Arc<Mutex<Vec<CancelToken>>>,
}

impl AuditService {
    /// A service with the given tuning.
    pub fn new(config: ServiceConfig) -> Self {
        config.assert_valid();
        Self {
            config,
            jobs: Vec::new(),
            cancel_tokens: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// A service with default tuning (4 workers, 50-image HITs, no budgets).
    pub fn with_defaults() -> Self {
        Self::new(ServiceConfig::default())
    }

    /// Queues a job; its [`JobId`] indexes the eventual report. The spec is
    /// validated by [`JobSpec::validate`] when the job is about to run; an
    /// invalid spec fails only its own job (`JobStatus::Failed`), never the
    /// submission.
    pub fn submit(&mut self, spec: JobSpec) -> JobId {
        let id = JobId(self.jobs.len() as u64);
        self.jobs.push(spec);
        lock(&self.cancel_tokens).push(CancelToken::new());
        id
    }

    /// Number of queued jobs.
    pub fn queued(&self) -> usize {
        self.jobs.len()
    }

    /// A handle for cancelling jobs while [`AuditService::run`] executes
    /// (take it before calling `run`, which consumes the service).
    pub fn cancel_handle(&self) -> CancelHandle {
        CancelHandle {
            tokens: Arc::clone(&self.cancel_tokens),
        }
    }

    /// Runs every queued job to completion and returns the report together
    /// with the answer source (e.g. to read platform statistics
    /// afterwards).
    ///
    /// This is the [`AuditDaemon`](crate::AuditDaemon)'s own machinery run
    /// as one batch: it starts the daemon's source-independent core
    /// (workers, queue, knowledge store, budget, telemetry and — with
    /// [`ServiceConfig::data_dir`] set — persistence), queues every spec
    /// and closes intake, then runs the dispatcher on the calling thread
    /// until the workers run dry, and shuts down exactly as
    /// [`AuditDaemon::shutdown`](crate::AuditDaemon::shutdown) does. The
    /// source never leaves this thread, so it may borrow
    /// (`PerfectSource::new(&truth)`).
    pub fn run<S: BatchAnswerSource>(self, mut source: S) -> (ServiceReport, S) {
        let (core, requests, dispatcher_config) = DaemonCore::start(self.config);
        let cancel_tokens = lock(&self.cancel_tokens).clone();
        core.enqueue_batch(self.jobs.into_iter().zip(cancel_tokens));
        core.close_intake();
        let dispatch = run_dispatcher(&mut source, requests, &dispatcher_config);
        (core.finish(dispatch), source)
    }
}

/// Locks ignoring poison: a job failing with `Err` never unwinds, but a
/// genuine panic elsewhere must not wedge the service's shared state.
/// Shared by this module and the daemon.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs one job end to end on a daemon worker (`context`). Budget
/// exhaustion, cancellation and platform failures arrive as
/// `Err(Interrupted)` values from the algorithm driver — nothing panics
/// and nothing is caught: the partial result and the live engine ledger go
/// straight into the report. Both front doors reach this through the same
/// worker pool, which is what makes daemon reports byte-identical to
/// scoped ones.
pub(crate) fn run_job(
    context: &WorkerContext,
    id: JobId,
    spec: &JobSpec,
    cancel: CancelToken,
    queued_ms: u64,
) -> JobReport {
    let telemetry = &context.telemetry;
    let start = Instant::now();
    telemetry.record_queue_wait_ms(queued_ms);
    telemetry.record_tenant_queue_wait_ms(tenant_of(&spec.name), queued_ms);
    telemetry.trace(Some(id.0), "scheduled", || {
        format!("{} picked up after {queued_ms} ms queued", spec.name)
    });
    // The lifecycle breakdown is plain wall-clock bookkeeping: always
    // computed, telemetry on or off (only the trace/metrics calls are
    // gated). It joins `wall_ms` in the set of fields the byte-identity
    // proptest ignores.
    let phases = |run_ms: u64| {
        let mut phases = PhaseDurations::default();
        phases.push("queued", queued_ms);
        phases.push("run", run_ms);
        phases
    };
    let base = JobReport {
        id,
        name: spec.name.clone(),
        algorithm: spec.kind.name().to_string(),
        status: JobStatus::Failed {
            retries_exhausted: false,
        },
        outcome: None,
        error: None,
        ledger: TaskLedger::new(),
        crowd_tasks: 0,
        reuse: ReuseStats::default(),
        wall_ms: 0,
        phases_ms: PhaseDurations::default(),
    };
    let finish = |report: JobReport| {
        telemetry.trace(Some(id.0), "store", || {
            format!(
                "{} hit(s), {} narrowed, {} forwarded, {} object(s) pruned",
                report.reuse.hits,
                report.reuse.narrowed,
                report.reuse.forwarded,
                report.reuse.objects_pruned
            )
        });
        telemetry.trace(
            Some(id.0),
            crate::telemetry::status_label(&report.status),
            || {
                format!(
                    "{} finished: {} crowd task(s), {} logical",
                    report.name,
                    report.crowd_tasks,
                    report.ledger.total_tasks()
                )
            },
        );
        telemetry.job_finished(&report.status, tenant_of(&report.name), report.crowd_tasks);
        report
    };
    if let Err(message) = spec.validate() {
        let wall_ms = start.elapsed().as_millis() as u64;
        return finish(JobReport {
            error: Some(message),
            wall_ms,
            phases_ms: phases(wall_ms),
            ..base
        });
    }
    if cancel.is_cancelled() {
        // Cancelled while still queued: report without running.
        let wall_ms = start.elapsed().as_millis() as u64;
        return finish(JobReport {
            status: JobStatus::Cancelled,
            wall_ms,
            phases_ms: phases(wall_ms),
            ..base
        });
    }

    // Tag the job's questions with (tenant, job id) so the dispatcher can
    // meter retries per tenant, gate on the tenant's breaker, and land
    // retry/dead-letter events in this job's trace timeline.
    let budget = JobBudget::new(
        spec.budget.or(context.per_job_budget),
        Arc::clone(&context.global_budget),
    );
    let governed = GovernedSource::new(
        context.dispatch.tagged(tenant_of(&spec.name), id.0),
        budget.clone(),
    );
    let source = context.memo_root.with_inner(governed);
    let mut engine = Engine::with_point_batch(source, spec.n).with_cancel_token(cancel);
    if telemetry.is_enabled() {
        // Forward the core engine's phase events ("phase1", "scan_group")
        // into this job's trace timeline. The probe observes only — the
        // engine cannot hear anything back through it.
        engine.set_probe(coverage_core::probe::ProbeHandle::new(Arc::new(JobProbe {
            telemetry: telemetry.clone(),
            job: id.0,
        })));
    }
    let parallelism = IntraJobParallelism(
        spec.intra_parallelism
            .unwrap_or(context.intra_job_parallelism),
    );
    let result = execute_algorithm(spec, &mut engine, parallelism);
    let ledger = *engine.ledger();
    let crowd_tasks = budget.tasks_spent();
    let reuse = engine.source().local_reuse_stats();
    let wall_ms = start.elapsed().as_millis() as u64;
    let base = JobReport {
        ledger,
        crowd_tasks,
        reuse,
        wall_ms,
        phases_ms: phases(wall_ms),
        ..base
    };
    finish(match result {
        Ok(outcome) => JobReport {
            status: JobStatus::Done,
            outcome: Some(outcome),
            ..base
        },
        Err(Interrupted { error, partial }) => match error {
            AskError::BudgetExhausted(snapshot) => JobReport {
                status: JobStatus::Exhausted {
                    scope: BudgetScope::from_snapshot(&snapshot),
                    spent: snapshot.spent,
                    cap: snapshot.cap,
                },
                outcome: Some(partial),
                ..base
            },
            AskError::Cancelled => JobReport {
                status: JobStatus::Cancelled,
                outcome: Some(partial),
                ..base
            },
            AskError::SourceFailed(message) => JobReport {
                status: JobStatus::Failed {
                    retries_exhausted: false,
                },
                error: Some(message),
                ..base
            },
            // A transient error only escapes the dispatcher after the
            // bounded retries (or a breaker refusal) gave up on it — the
            // question was dead-lettered, so the flag lets operators tell
            // "retried and lost" from "never worth retrying".
            AskError::Transient { ref reason, .. } => JobReport {
                status: JobStatus::Failed {
                    retries_exhausted: true,
                },
                error: Some(format!("retries exhausted: {reason}")),
                ..base
            },
            AskError::ConnectionLost => JobReport {
                status: JobStatus::Failed {
                    retries_exhausted: false,
                },
                error: Some(error.to_string()),
                ..base
            },
        },
    })
}

/// The bridge from the core engine's [`EngineProbe`](coverage_core::probe)
/// seam to the service's trace ring: every phase event an algorithm driver
/// emits lands in the job's timeline.
struct JobProbe {
    telemetry: Telemetry,
    job: u64,
}

impl coverage_core::probe::EngineProbe for JobProbe {
    fn on_phase(&self, phase: &str, detail: &str) {
        self.telemetry
            .trace(Some(self.job), phase, || detail.to_string());
    }
}

/// Dispatches to the spec's algorithm driver, wrapping both the complete
/// and the partial (interrupted) result into [`AuditOutcome`]. The
/// multi-group drivers shard their super-group scan across
/// `parallelism` threads *inside* this job, each worker asking through a
/// fork of the job's shared-store handle (outcomes and logical ledgers are
/// parallelism-invariant; see `coverage_core::multiple`).
#[allow(clippy::result_large_err)] // the Err carries the partial outcome by design
fn execute_algorithm<S: ForkableSource>(
    spec: &JobSpec,
    engine: &mut Engine<S>,
    parallelism: IntraJobParallelism,
) -> Result<AuditOutcome, Interrupted<AuditOutcome>> {
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    match &spec.kind {
        AuditKind::BaseCoverage { target } => base_coverage(engine, &spec.pool, target, spec.tau)
            .map(AuditOutcome::Coverage)
            .map_err(|i| i.map_partial(AuditOutcome::Coverage)),
        AuditKind::GroupCoverage { target } => group_coverage(
            engine,
            &spec.pool,
            target,
            spec.tau,
            spec.n,
            &DncConfig::default(),
        )
        .map(AuditOutcome::Coverage)
        .map_err(|i| i.map_partial(AuditOutcome::Coverage)),
        AuditKind::MultipleCoverage { groups } => multiple_coverage_par(
            engine,
            &spec.pool,
            groups,
            &MultipleConfig {
                tau: spec.tau,
                n: spec.n,
                ..MultipleConfig::default()
            },
            &mut rng,
            parallelism,
        )
        .map(AuditOutcome::Multiple)
        .map_err(|i| i.map_partial(AuditOutcome::Multiple)),
        AuditKind::IntersectionalCoverage { schema } => intersectional_coverage_par(
            engine,
            &spec.pool,
            schema,
            &MultipleConfig {
                tau: spec.tau,
                n: spec.n,
                ..MultipleConfig::default()
            },
            &mut rng,
            parallelism,
        )
        .map(AuditOutcome::Intersectional)
        .map_err(|i| i.map_partial(AuditOutcome::Intersectional)),
        AuditKind::ClassifierCoverage { target, predicted } => classifier_coverage(
            engine,
            &spec.pool,
            predicted,
            target,
            &ClassifierConfig {
                tau: spec.tau,
                n: spec.n,
                ..ClassifierConfig::default()
            },
            &mut rng,
        )
        .map(AuditOutcome::Classifier)
        .map_err(|i| i.map_partial(AuditOutcome::Classifier)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::GlobalBudget;
    use coverage_core::engine::{AnswerSource, GroundTruth, ObjectId, PerfectSource};
    use coverage_core::memo::{KnowledgeStore, SharedKnowledgeSource};
    use coverage_core::prelude::*;
    use proptest::prelude::*;

    /// A pass-through that implements only the single-question methods, so
    /// every round the engine asks through it runs the sequential default
    /// bodies of [`AnswerSource`] — the reference the round path must match.
    #[derive(Debug)]
    struct OneAtATime<S>(S);

    impl<S: AnswerSource> AnswerSource for OneAtATime<S> {
        fn try_answer_set(
            &mut self,
            objects: &[ObjectId],
            target: &Target,
        ) -> Result<bool, AskError> {
            self.0.try_answer_set(objects, target)
        }

        fn try_answer_point_labels(&mut self, object: ObjectId) -> Result<Labels, AskError> {
            self.0.try_answer_point_labels(object)
        }

        fn try_answer_membership(
            &mut self,
            object: ObjectId,
            target: &Target,
        ) -> Result<bool, AskError> {
            self.0.try_answer_membership(object, target)
        }
    }

    impl<S: ForkableSource> ForkableSource for OneAtATime<S> {
        fn fork(&self) -> Self {
            Self(self.0.fork())
        }

        fn join(&mut self, forked: Self) {
            self.0.join(forked.0);
        }
    }

    fn synth_truth(n_total: usize, density_pct: u64, seed: u64) -> VecGroundTruth {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        VecGroundTruth::new(
            (0..n_total)
                .map(|_| {
                    let a = u8::from(next() % 100 < density_pct);
                    let b = u8::from(next() % 100 < 50);
                    Labels::new(&[a, b])
                })
                .collect(),
        )
    }

    /// One spec per driver over the whole pool.
    fn five_drivers(truth: &VecGroundTruth, tau: usize, n: usize, seed: u64) -> Vec<JobSpec> {
        let pool = truth.all_ids();
        let female = Target::group(Pattern::parse("1X").unwrap());
        let predicted: Vec<ObjectId> = pool
            .iter()
            .copied()
            .filter(|o| female.matches(&truth.labels_of(*o)))
            .take(3 * tau)
            .collect();
        let schema = AttributeSchema::new(vec![
            Attribute::binary("gender", "male", "female").unwrap(),
            Attribute::binary("skin", "light", "dark").unwrap(),
        ])
        .unwrap();
        let groups = vec![Pattern::parse("0X").unwrap(), Pattern::parse("1X").unwrap()];
        [
            AuditKind::BaseCoverage {
                target: female.clone(),
            },
            AuditKind::GroupCoverage {
                target: female.clone(),
            },
            AuditKind::MultipleCoverage { groups },
            AuditKind::IntersectionalCoverage { schema },
            AuditKind::ClassifierCoverage {
                target: female,
                predicted,
            },
        ]
        .into_iter()
        .map(|kind| {
            JobSpec::new("rounds", pool.clone(), kind)
                .tau(tau)
                .n(n)
                .seed(seed)
        })
        .collect()
    }

    /// Everything a budget cut may not change: the outcome (or partial
    /// outcome and error) as JSON, the logical ledger, the crowd spend and
    /// the reuse tallies.
    type Observed = (String, TaskLedger, u64, ReuseStats, ReuseStats);

    /// Runs `spec` under a per-job cap of `cap` tasks, with the label of
    /// every `known_every`-th object (from object 0) already in the store,
    /// as if bought by an earlier job, so rounds mix known and fresh
    /// objects.
    fn run_capped(
        spec: &JobSpec,
        truth: &VecGroundTruth,
        cap: u64,
        batch: usize,
        known_every: usize,
        sequential: bool,
    ) -> Observed {
        let budget = JobBudget::new(Some(cap), GlobalBudget::new(None, batch));
        let stack = SharedKnowledgeSource::new(GovernedSource::new(
            PerfectSource::new(truth),
            budget.clone(),
        ));
        let mut known = KnowledgeStore::new();
        for object in truth.ids().step_by(known_every) {
            known.record_labels(object, truth.labels_of(object));
        }
        stack.seed_store(&known);
        let render = |result: Result<AuditOutcome, Interrupted<AuditOutcome>>| match result {
            Ok(outcome) => serde_json::to_string(&outcome).unwrap(),
            Err(Interrupted { error, partial }) => {
                format!("{error} | {}", serde_json::to_string(&partial).unwrap())
            }
        };
        let serial = IntraJobParallelism::SERIAL;
        if sequential {
            let mut engine = Engine::with_point_batch(OneAtATime(stack), spec.n);
            let json = render(execute_algorithm(spec, &mut engine, serial));
            let source = &engine.source().0;
            (
                json,
                *engine.ledger(),
                budget.tasks_spent(),
                source.local_reuse_stats(),
                source.reuse_stats(),
            )
        } else {
            let mut engine = Engine::with_point_batch(stack, spec.n);
            let json = render(execute_algorithm(spec, &mut engine, serial));
            let source = engine.source();
            (
                json,
                *engine.ledger(),
                budget.tasks_spent(),
                source.local_reuse_stats(),
                source.reuse_stats(),
            )
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Budget cuts mid-round: under any per-job cap, every driver asked
        /// in rounds ends exactly where asking one question at a time
        /// ends — same outcome JSON, ledger, crowd spend and reuse stats.
        /// Point batches of 1–3 make each label a sizeable share of a task,
        /// so caps land inside Base-Coverage's τ − cnt rounds.
        #[test]
        fn budget_cut_rounds_match_sequential(
            n_total in 20usize..240,
            density_pct in 5u64..60,
            tau in 1usize..30,
            n in 1usize..40,
            batch in 1usize..4,
            cap in 0u64..41,
            known_every in 2usize..12,
            seed in 0u64..1000,
        ) {
            let truth = synth_truth(n_total, density_pct, seed);
            for spec in five_drivers(&truth, tau, n, seed) {
                let rounds = run_capped(&spec, &truth, cap, batch, known_every, false);
                let sequential = run_capped(&spec, &truth, cap, batch, known_every, true);
                prop_assert_eq!(&rounds, &sequential, "driver {}", spec.kind.name());
            }
        }
    }

    #[test]
    fn base_coverage_cut_inside_a_round_matches_sequential() {
        // 100 members in 200 objects at τ = 30: the first round asks
        // objects 0..30, object 0 is already known, and a cap of 17
        // single-label tasks cuts the round after object 17.
        let truth = VecGroundTruth::new(
            (0..200u32)
                .map(|i| Labels::new(&[u8::from(i % 2 == 0), 0]))
                .collect(),
        );
        let spec = five_drivers(&truth, 30, 10, 1).remove(0);
        let rounds = run_capped(&spec, &truth, 17, 1, 50, false);
        assert_eq!(rounds, run_capped(&spec, &truth, 17, 1, 50, true));
        assert_eq!(rounds.2, 17, "spend stops at the cap");
        assert_eq!(rounds.1.point_tasks(), 18, "the known object is free");
        assert!(rounds.0.starts_with("budget exhausted"), "{}", rounds.0);
    }
}
