//! The long-lived audit daemon: submit any time, query live, drain, stop.
//!
//! The paper frames coverage auditing as a standing service a dataset
//! owner consults on demand — which is what an [`AuditDaemon`] is. It owns
//! the worker pool, the batching dispatcher and the sharded platform-wide
//! [`SharedKnowledgeSource`] for its **whole lifetime**, so facts bought
//! by a job today keep shrinking the queries of every job submitted
//! tomorrow:
//!
//! ```text
//!             submit(JobSpec) ──▶ PriorityQueue ──▶ worker 1..W ─┐
//!  any thread  status(JobId)  ◀── job table                     │ run_job
//!  any time    report(JobId)  ◀── (Queued → Running → terminal) │   │
//!             cancel(JobId) ───▶ CancelToken per job            ▼   ▼
//!                       SharedKnowledgeSource ─ GovernedSource ─ dispatcher ─ platform
//! ```
//!
//! The daemon is two halves. A source-independent core holds the job
//! table, the priority queue, the workers, the knowledge store, the
//! budget, telemetry and persistence; the dispatcher thread is the only
//! part that holds the answer source. The *scoped batch*
//! [`AuditService::run`](crate::AuditService::run) is this same core,
//! started, fed one batch, drained and shut down within one call, with
//! the dispatcher on the caller's thread (so its source may borrow). A
//! report produced here is therefore **byte-identical** (up to wall-clock)
//! to the same spec run through `AuditService::run` by construction — the
//! `daemon_service` integration tests still pin it.
//!
//! Scheduling is one priority queue ([`crate::scheduler`]): free workers
//! pick the highest [`JobSpec::priority`] (service default for unset
//! specs), ties go to the earlier submission, and queued jobs age upward
//! so newcomers can delay but never starve them.
//!
//! Lifecycle verbs: [`AuditDaemon::cancel`] flips one job's
//! [`CancelToken`] (a queued job reports `Cancelled` without running, a
//! running one stops at its next question with the partial result);
//! [`AuditDaemon::drain`] blocks until nothing is queued or running;
//! [`AuditDaemon::shutdown`] stops intake, drains, joins every thread and
//! returns the final [`ServiceReport`] plus the answer source. The HTTP
//! front-end over this API lives in [`crate::http`].
//!
//! # Example: submit, poll, cancel
//!
//! ```
//! use coverage_core::prelude::*;
//! use coverage_service::{AuditDaemon, AuditKind, JobSpec, JobStatus, ServiceConfig};
//! use std::sync::Arc;
//!
//! // An owned ('static) source: the daemon's threads outlive this frame.
//! let labels: Vec<Labels> = (0..600).map(|i| Labels::single(u8::from(i % 6 == 0))).collect();
//! let truth = Arc::new(VecGroundTruth::new(labels));
//! let pool = truth.all_ids();
//! let target = Target::group(Pattern::parse("1").unwrap());
//!
//! let daemon = AuditDaemon::start(
//!     ServiceConfig { workers: 2, ..ServiceConfig::default() },
//!     SharedTruthSource::new(Arc::clone(&truth)),
//! );
//!
//! // Submit at any time; invalid specs are refused at the door.
//! let urgent = daemon
//!     .submit(JobSpec::new("urgent", pool.clone(), AuditKind::GroupCoverage { target: target.clone() }).priority(9))
//!     .unwrap();
//! let doomed = daemon
//!     .submit(JobSpec::new("doomed", pool, AuditKind::GroupCoverage { target }).priority(1))
//!     .unwrap();
//! assert!(daemon.submit(JobSpec::new("bad", vec![], AuditKind::MultipleCoverage { groups: vec![] })).is_err());
//!
//! // Live queries: every submitted job has a status right now...
//! assert!(daemon.status(urgent).is_some());
//! daemon.cancel(doomed);
//! daemon.drain(); // ...and a report once it is terminal.
//! assert!(daemon.report(urgent).unwrap().status.is_done());
//! assert!(daemon.report(doomed).unwrap().status.is_cancelled());
//!
//! let (summary, _source) = daemon.shutdown().expect("first shutdown");
//! assert_eq!(summary.jobs.len(), 2);
//! ```

use crate::dispatch::{
    dispatch_channel, run_dispatcher, DispatchHandle, DispatchStats, DispatcherConfig, Request,
};
use crate::governor::GlobalBudget;
use crate::job::{JobId, JobReport, JobSpec, JobStatus};
use crate::persist::{Persistence, SpillFile};
use crate::scheduler::{PriorityQueue, DEFAULT_PRIORITY, PRIORITY_AGING};
use crate::service::{lock, run_job, ServiceConfig, ServiceReport, TenantRateLimit};
use crate::telemetry::{tenant_of, Telemetry};
use coverage_core::engine::{BatchAnswerSource, CancelToken};
use coverage_core::ledger::TaskLedger;
use coverage_core::memo::{FactSink, FactSpill, KnowledgeStore, ReuseStats, SharedKnowledgeSource};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Why the daemon's submit door refused a spec. The HTTP front-end maps
/// each variant to its status line: `Invalid` → 400, `ShuttingDown` → 503,
/// `RateLimited` → 429 with a `Retry-After` header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitRefusal {
    /// The spec failed [`JobSpec::validate`] — tenant error.
    Invalid(String),
    /// [`AuditDaemon::shutdown`] has begun; intake is closed.
    ShuttingDown,
    /// The tenant exhausted its token bucket or queue quota
    /// ([`ServiceConfig::tenant_rate_limit`]). `retry_after_secs` is the
    /// earliest time a retry can succeed (≥ 1, whole seconds — the
    /// `Retry-After` wire granularity).
    RateLimited {
        /// Seconds until the tenant's bucket refills enough for one job.
        retry_after_secs: u64,
    },
}

impl std::fmt::Display for SubmitRefusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitRefusal::Invalid(message) => f.write_str(message),
            SubmitRefusal::ShuttingDown => f.write_str(SHUTTING_DOWN_MSG),
            SubmitRefusal::RateLimited { retry_after_secs } => write!(
                f,
                "tenant rate limit exceeded; retry after {retry_after_secs}s"
            ),
        }
    }
}

/// The refusal message after shutdown began (also
/// [`AuditDaemon::SHUTTING_DOWN`]; a free const so `SubmitRefusal` can
/// print it without naming the generic daemon type).
const SHUTTING_DOWN_MSG: &str = "daemon is shutting down";

/// One tenant's token bucket: `tokens` refill continuously at
/// `per_second`, capped at `burst`; each admitted submission spends one.
#[derive(Debug)]
struct TokenBucket {
    tokens: f64,
    refilled_at: Instant,
}

/// The submit door's admission state when
/// [`ServiceConfig::tenant_rate_limit`] is set.
#[derive(Debug)]
struct RateGate {
    limit: TenantRateLimit,
    buckets: Mutex<HashMap<String, TokenBucket>>,
}

impl RateGate {
    fn new(limit: TenantRateLimit) -> Self {
        Self {
            limit,
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Spends one token from `tenant`'s bucket, or answers how many whole
    /// seconds until one is available.
    fn admit(&self, tenant: &str) -> Result<(), u64> {
        let mut buckets = lock(&self.buckets);
        let now = Instant::now();
        let bucket = buckets.entry(tenant.to_string()).or_insert(TokenBucket {
            tokens: f64::from(self.limit.burst),
            refilled_at: now,
        });
        let elapsed = now.duration_since(bucket.refilled_at).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * f64::from(self.limit.per_second))
            .min(f64::from(self.limit.burst));
        bucket.refilled_at = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - bucket.tokens;
            let secs = (deficit / f64::from(self.limit.per_second)).ceil().max(1.0);
            Err(secs as u64)
        }
    }
}

/// One line of the daemon's job table, as served by `GET /jobs`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobSummary {
    /// The job's id.
    pub id: JobId,
    /// The spec's label.
    pub name: String,
    /// Algorithm short name.
    pub algorithm: String,
    /// Live status — [`JobStatus::Queued`] / [`JobStatus::Running`] while
    /// the job is in flight, the terminal status afterwards.
    pub status: JobStatus,
}

/// A live snapshot of the whole daemon, as served by `GET /stats`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DaemonStats {
    /// Jobs accepted since start (== size of the job table).
    pub submitted: u64,
    /// Jobs waiting for a worker right now.
    pub queued: u64,
    /// Jobs executing right now. A worker cutting the snapshot its job's
    /// boundary triggered still counts here, though the job's report is
    /// already published.
    pub running: u64,
    /// Jobs with a terminal status — always the sum of the four split
    /// counters below, kept as its own field for wire compatibility (the
    /// pre-split `GET /stats` shape had only `finished`).
    pub finished: u64,
    /// Jobs that ran to completion ([`JobStatus::Done`]).
    pub done: u64,
    /// Jobs stopped by a budget cap ([`JobStatus::Exhausted`]).
    pub exhausted: u64,
    /// Jobs cancelled before or during execution ([`JobStatus::Cancelled`]).
    pub cancelled: u64,
    /// Jobs that failed ([`JobStatus::Failed`]).
    pub failed: u64,
    /// Worker threads in the pool.
    pub workers: u64,
    /// Crowd tasks charged past the knowledge store since start.
    pub crowd_tasks: u64,
    /// Lifetime disposition tally of the shared knowledge store.
    pub reuse: ReuseStats,
    /// Milliseconds since the daemon started.
    pub uptime_ms: u64,
}

/// One tenant's circuit-breaker state inside a [`Readiness`] body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BreakerSummary {
    /// The tenant (job-name segment before `/`).
    pub tenant: String,
    /// `"closed"`, `"half_open"` or `"open"` (see
    /// [`BreakerState::label`](crate::BreakerState::label)).
    pub state: String,
}

/// One fleet peer's last-observed state inside a [`Readiness`] body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PeerSummary {
    /// The peer's address as configured ([`ServiceConfig::fleet_peers`])
    /// or joined ([`crate::fleet::FleetNode::join`]).
    pub peer: String,
    /// `"up"` (last anti-entropy exchange succeeded) or `"down"` (the
    /// peer refused the connection or errored).
    pub state: String,
}

/// The daemon's readiness verdict, as served by `GET /readyz` (200 when
/// `ready`, 503 otherwise — liveness is the separate, always-200
/// `GET /healthz`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Readiness {
    /// The overall verdict: the dispatcher is alive **and** the durable
    /// knowledge plane (when configured) has swallowed no I/O error.
    pub ready: bool,
    /// Is the dispatcher thread still serving questions? `false` once it
    /// has exited (shutdown) or died.
    pub dispatcher_alive: bool,
    /// `false` once any persistence write path (WAL append, snapshot,
    /// spill) has swallowed an I/O error — durability is degraded even
    /// though serving continues. `true` when persistence is off.
    pub persistence_healthy: bool,
    /// Every tenant with circuit-breaker history and its current state.
    /// Open breakers don't flip `ready` — they starve one tenant, not the
    /// service — but operators see them here.
    pub breakers: Vec<BreakerSummary>,
    /// Every fleet peer this node gossips with and its last-observed
    /// state, sorted by address. Down peers don't flip `ready` — the
    /// fleet is availability-first (residual questions go to the crowd,
    /// never block on a peer) — but operators see the hole here. Empty
    /// for a solo daemon.
    pub peers: Vec<PeerSummary>,
}

/// What each worker thread needs to run jobs forever — and all that
/// [`run_job`] needs to run one.
#[derive(Debug)]
pub(crate) struct WorkerContext {
    shared: Arc<Shared>,
    pub(crate) dispatch: DispatchHandle,
    pub(crate) memo_root: SharedKnowledgeSource<()>,
    pub(crate) global_budget: Arc<GlobalBudget>,
    pub(crate) per_job_budget: Option<u64>,
    pub(crate) intra_job_parallelism: usize,
    pub(crate) telemetry: Telemetry,
    persist: Option<Arc<Persistence>>,
}

#[derive(Debug)]
struct JobSlot {
    /// The spec's label, kept for [`AuditDaemon::jobs`] and
    /// [`AuditDaemon::snapshot`] after the spec itself is dropped.
    name: String,
    /// The algorithm's name, kept for the same summaries.
    algorithm: &'static str,
    /// Immutable after submission; `Arc` so a worker's pop clones a
    /// refcount, not a pool vector, under the daemon-wide lock. Dropped
    /// when the report is published, so a finished job never pins its
    /// pool.
    spec: Option<Arc<JobSpec>>,
    status: JobStatus,
    report: Option<JobReport>,
    cancel: CancelToken,
    /// When the submission landed — the anchor for the queue-wait and
    /// submit-to-first-result histograms and the `phases_ms` breakdown.
    submitted_at: Instant,
}

#[derive(Debug)]
struct DaemonState {
    jobs: Vec<JobSlot>,
    queue: PriorityQueue,
    running: usize,
    /// Ids in the order their reports landed — the scheduler's observable
    /// output, pinned by the priority-order tests.
    finished_order: Vec<JobId>,
    /// Flipped once when intake closes: no further submissions, workers
    /// exit when the queue runs dry.
    accepting: bool,
}

#[derive(Debug)]
struct Shared {
    state: Mutex<DaemonState>,
    wakeup: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, DaemonState> {
        lock(&self.state)
    }
}

/// The half of a daemon that does not depend on the answer source: job
/// table, priority queue, worker threads, knowledge store, budget,
/// telemetry and persistence. The dispatcher — the only part that holds
/// the source — runs beside it: on its own thread for an [`AuditDaemon`],
/// on the calling thread for a scoped
/// [`AuditService::run`](crate::AuditService::run) batch (which is why
/// that batch can borrow its source). Both front doors therefore run one
/// worker pool and one shutdown path.
#[derive(Debug)]
pub(crate) struct DaemonCore {
    shared: Arc<Shared>,
    config: ServiceConfig,
    memo_root: SharedKnowledgeSource<()>,
    global_budget: Arc<GlobalBudget>,
    /// The core's own dispatcher connection; dropped when intake closes so
    /// the dispatcher (whose other handles die with the workers) can exit.
    dispatch: Mutex<Option<DispatchHandle>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    started: Instant,
    telemetry: Telemetry,
    /// The durable knowledge plane, when [`ServiceConfig::data_dir`] is
    /// set: WAL sink, snapshot cadence, shutdown sync (see
    /// [`crate::persist`]).
    persist: Option<Arc<Persistence>>,
}

impl DaemonCore {
    /// Builds the core and spawns `config.workers` idle worker threads.
    /// Returns the dispatcher's half with it — the request channel and the
    /// loop's config — for the caller to run with the answer source.
    ///
    /// # Panics
    /// Panics on an invalid `config` ([`ServiceConfig::assert_valid`]) or
    /// an unusable [`ServiceConfig::data_dir`].
    pub(crate) fn start(config: ServiceConfig) -> (Self, Receiver<Request>, DispatcherConfig) {
        config.assert_valid();

        let shared = Arc::new(Shared {
            state: Mutex::new(DaemonState {
                jobs: Vec::new(),
                queue: PriorityQueue::with_weights(PRIORITY_AGING, &config.tenant_weights),
                running: 0,
                finished_order: Vec::new(),
                accepting: true,
            }),
            wakeup: Condvar::new(),
        });
        let telemetry = config.build_telemetry();
        let (dispatch_handle, dispatch_rx) = dispatch_channel();
        let dispatcher_config = DispatcherConfig {
            point_batch: config.point_batch,
            round_latency: config.round_latency,
            telemetry: telemetry.clone(),
            retry: config.retry_policy(),
            breakers: config.build_breakers(),
        };
        let global_budget = GlobalBudget::new(config.budget.global, config.point_batch);
        let memo_root: SharedKnowledgeSource<()> =
            SharedKnowledgeSource::with_shards((), config.store_shards);

        // The durable knowledge plane: recover facts from the data dir,
        // seed them into the store (bypassing reuse stats and the sink),
        // then attach the WAL sink — and optionally the disk spill —
        // before the first worker can commit a fact.
        let persist = config.data_dir.as_ref().map(|dir| {
            let (persistence, recovered) =
                Persistence::open(dir, config.snapshot_every, telemetry.clone())
                    .expect("persistence data_dir must be usable");
            // The spill attaches after open (which discards any stale
            // segment) but before seeding, so a recovered store bigger
            // than the watermark spills down right away.
            if let Some(high_watermark) = config.spill_high_watermark {
                let spill = SpillFile::create(dir, telemetry.clone())
                    .expect("persistence data_dir must be usable");
                memo_root.set_fact_spill(Arc::new(spill) as Arc<dyn FactSpill>, high_watermark);
            }
            if !recovered.is_empty() {
                memo_root.seed_store(&recovered);
            }
            let persistence = Arc::new(persistence);
            memo_root.set_fact_sink(Arc::clone(&persistence) as Arc<dyn FactSink>);
            persistence
        });

        let workers = (0..config.workers)
            .map(|_| {
                let context = WorkerContext {
                    shared: Arc::clone(&shared),
                    dispatch: dispatch_handle.clone(),
                    memo_root: memo_root.clone(),
                    global_budget: Arc::clone(&global_budget),
                    per_job_budget: config.budget.per_job,
                    intra_job_parallelism: config.intra_job_parallelism,
                    telemetry: telemetry.clone(),
                    persist: persist.clone(),
                };
                std::thread::spawn(move || worker_loop(context))
            })
            .collect();

        let core = Self {
            shared,
            config,
            memo_root,
            global_budget,
            dispatch: Mutex::new(Some(dispatch_handle)),
            workers: Mutex::new(workers),
            started: Instant::now(),
            telemetry,
            persist,
        };
        (core, dispatch_rx, dispatcher_config)
    }

    /// Queues one spec under the held job-table lock — the submit step
    /// both front doors share.
    fn enqueue(&self, state: &mut DaemonState, spec: JobSpec, cancel: CancelToken) -> JobId {
        let priority = spec.priority.unwrap_or(DEFAULT_PRIORITY);
        let id = JobId(state.jobs.len() as u64);
        state
            .queue
            .push_tenant(id.0 as usize, priority, tenant_of(&spec.name));
        self.telemetry.job_submitted();
        self.telemetry.job_queued_delta(1);
        self.telemetry.trace(Some(id.0), "submit", || {
            format!(
                "{} ({}) queued at priority {priority}",
                spec.name,
                spec.kind.name()
            )
        });
        state.jobs.push(JobSlot {
            name: spec.name.clone(),
            algorithm: spec.kind.name(),
            spec: Some(Arc::new(spec)),
            status: JobStatus::Queued,
            report: None,
            cancel,
            submitted_at: Instant::now(),
        });
        id
    }

    /// The scoped batch's submit: queues every spec with its pre-made
    /// cancel token under **one** lock — so the first pop already sees the
    /// whole batch and scheduling is pure (priority, submission order). It
    /// skips the daemon's tenant door on purpose: an invalid spec fails
    /// only its own job (`run_job` validates it) and
    /// [`ServiceConfig::tenant_rate_limit`] does not apply.
    pub(crate) fn enqueue_batch(&self, batch: impl IntoIterator<Item = (JobSpec, CancelToken)>) {
        {
            let mut state = self.shared.lock();
            for (spec, cancel) in batch {
                self.enqueue(&mut state, spec, cancel);
            }
        }
        self.shared.wakeup.notify_all();
    }

    /// Stops intake: further submissions are refused, the workers exit
    /// once the queue runs dry, and the core's own dispatcher handle is
    /// dropped, so the dispatcher returns when the last worker does.
    /// `false` when intake was already closed.
    pub(crate) fn close_intake(&self) -> bool {
        let was_open = std::mem::replace(&mut self.shared.lock().accepting, false);
        self.shared.wakeup.notify_all();
        drop(lock(&self.dispatch).take());
        was_open
    }

    /// The shutdown both front doors share, called once the dispatcher has
    /// returned with its `dispatch` stats: joins the workers, makes the
    /// store durable and assembles the lifetime [`ServiceReport`].
    pub(crate) fn finish(&self, dispatch: DispatchStats) -> ServiceReport {
        let workers: Vec<_> = std::mem::take(&mut *lock(&self.workers));
        for worker in workers {
            worker.join().expect("daemon worker never panics");
        }
        // Workers are gone, so no fact can commit past this point: fsync
        // the WAL and cut a final compacted snapshot, making shutdown →
        // restart lossless by construction. Best-effort on I/O error —
        // the reports below are returned regardless.
        if let Some(persist) = &self.persist {
            let _ = persist.sync();
            let _ = persist.snapshot(&self.memo_root);
        }
        let state = self.shared.lock();
        let jobs: Vec<JobReport> = state
            .jobs
            .iter()
            .map(|job| job.report.clone().expect("drained daemon job reported"))
            .collect();
        let mut total_logical = TaskLedger::new();
        for job in &jobs {
            total_logical.absorb(&job.ledger);
        }
        let reuse = self.memo_root.reuse_stats();
        ServiceReport {
            total_logical,
            crowd_tasks: self.global_budget.tasks_spent(),
            cache_hits: reuse.hits,
            cache_misses: reuse.forwarded,
            reuse,
            dispatch,
            wall_ms: self.started.elapsed().as_millis() as u64,
            jobs,
        }
    }
}

/// Dropping a core without [`DaemonCore::finish`] (a daemon dropped
/// without [`AuditDaemon::shutdown`], an early return, a panic unwind)
/// must not leak its threads: closing intake wakes the workers (they exit
/// once the queue is dry) and drops the dispatcher handle (the dispatcher
/// exits when the last worker does). Best-effort and non-blocking — no
/// joins in `drop`, the threads retire on their own.
impl Drop for DaemonCore {
    fn drop(&mut self) {
        self.close_intake();
    }
}

/// A long-lived, concurrently-shareable audit service: the worker pool,
/// dispatcher and platform-wide knowledge store live as long as the daemon
/// does. All methods take `&self`, so wrap it in an [`Arc`] to serve many
/// clients (the HTTP front-end in [`crate::http`] does exactly that).
///
/// See the [module docs](self) for the lifecycle and a full example.
#[derive(Debug)]
pub struct AuditDaemon<S> {
    core: DaemonCore,
    /// The dispatcher thread — the only part of the daemon that holds the
    /// answer source, handed back by [`AuditDaemon::shutdown`].
    dispatcher: Mutex<Option<JoinHandle<(DispatchStats, S)>>>,
    /// Per-tenant token buckets, when
    /// [`ServiceConfig::tenant_rate_limit`] is set.
    rate_gate: Option<RateGate>,
    /// Per-tenant circuit breakers, shared with the dispatcher — the
    /// daemon reads states for [`AuditDaemon::readiness`] and `/readyz`.
    breakers: crate::breaker::BreakerRegistry,
    /// Last-observed state of each fleet peer (`true` = up), written by
    /// the anti-entropy loop ([`crate::fleet`]), read by
    /// [`AuditDaemon::readiness`] and `/readyz`. `BTreeMap` so the
    /// readiness body lists peers in a stable order. Empty for a solo
    /// daemon.
    peer_states: Mutex<std::collections::BTreeMap<String, bool>>,
}

impl<S: BatchAnswerSource + Send + 'static> AuditDaemon<S> {
    /// Starts the daemon: spawns `config.workers` worker threads, all idle
    /// until the first [`AuditDaemon::submit`], and the dispatcher thread,
    /// which takes ownership of `source`.
    ///
    /// # Panics
    /// Panics on non-positive `config` counts (workers, point batch, store
    /// shards, intra-job parallelism) — daemon configuration is operator
    /// input, not tenant input.
    pub fn start(config: ServiceConfig, source: S) -> Self {
        let (core, requests, dispatcher_config) = DaemonCore::start(config);
        let breakers = dispatcher_config.breakers.clone();
        let dispatcher = std::thread::spawn(move || {
            let mut source = source;
            let stats = run_dispatcher(&mut source, requests, &dispatcher_config);
            (stats, source)
        });
        let rate_gate = core.config.tenant_rate_limit.clone().map(RateGate::new);
        Self {
            core,
            dispatcher: Mutex::new(Some(dispatcher)),
            rate_gate,
            breakers,
            peer_states: Mutex::new(std::collections::BTreeMap::new()),
        }
    }
}

impl<S> AuditDaemon<S> {
    /// The daemon's configuration — the HTTP front-end reads its
    /// connection-engine knobs (event-loop threads, keep-alive budget)
    /// from here.
    pub(crate) fn config(&self) -> &ServiceConfig {
        &self.core.config
    }

    /// The daemon's telemetry plane: the live metrics registry and trace
    /// ring behind `GET /metrics`, `GET /trace/{id}` and `GET /events`.
    /// The inert [`Telemetry::disabled`] plane when
    /// [`ServiceConfig::telemetry`] is off.
    pub fn telemetry(&self) -> &Telemetry {
        &self.core.telemetry
    }

    /// The refusal message for submissions after [`AuditDaemon::shutdown`]
    /// began — the HTTP layer maps exactly this to `503 Service
    /// Unavailable` (a server condition), keeping `400` for spec errors.
    pub const SHUTTING_DOWN: &'static str = SHUTTING_DOWN_MSG;

    /// Submits a job for execution; callable from any thread at any time.
    /// String-error convenience over [`AuditDaemon::try_submit`] — kept
    /// for callers that don't branch on the refusal kind.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, String> {
        self.try_submit(spec).map_err(|refusal| refusal.to_string())
    }

    /// Submits a job for execution with a typed refusal; callable from any
    /// thread at any time.
    ///
    /// The spec is validated **at the door** ([`JobSpec::validate`]): the
    /// daemon's submission boundary is a tenant API, so an invalid spec is
    /// refused with the reason instead of occupying a queue slot (the HTTP
    /// front-end maps [`SubmitRefusal::Invalid`] to 400). Refused once
    /// [`AuditDaemon::shutdown`] has begun (503), and — when
    /// [`ServiceConfig::tenant_rate_limit`] is set — when the tenant's
    /// token bucket or queue quota is exhausted (429 + `Retry-After`).
    /// A token is only spent on an *admitted* submission.
    pub fn try_submit(&self, spec: JobSpec) -> Result<JobId, SubmitRefusal> {
        spec.validate().map_err(SubmitRefusal::Invalid)?;
        let id = {
            let mut state = self.core.shared.lock();
            if !state.accepting {
                return Err(SubmitRefusal::ShuttingDown);
            }
            if let Some(gate) = &self.rate_gate {
                let tenant = tenant_of(&spec.name);
                if let Some(max_queued) = gate.limit.max_queued {
                    if state.queue.tenant_queued(tenant) >= max_queued {
                        // Quota, not rate: the earliest useful retry is
                        // after a queued job drains — advertise 1s.
                        return Err(SubmitRefusal::RateLimited {
                            retry_after_secs: 1,
                        });
                    }
                }
                gate.admit(tenant)
                    .map_err(|retry_after_secs| SubmitRefusal::RateLimited { retry_after_secs })?;
            }
            self.core.enqueue(&mut state, spec, CancelToken::new())
        };
        self.core.shared.wakeup.notify_all();
        Ok(id)
    }

    /// The job's status **right now** — `Queued`, `Running`, or terminal.
    /// `None` for an id the daemon never issued.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        self.core
            .shared
            .lock()
            .jobs
            .get(id.0 as usize)
            .map(|j| j.status)
    }

    /// The job's terminal report, once it has one (`None` while the job is
    /// still queued or running, or for an unknown id).
    pub fn report(&self, id: JobId) -> Option<JobReport> {
        self.core
            .shared
            .lock()
            .jobs
            .get(id.0 as usize)
            .and_then(|j| j.report.clone())
    }

    /// One summary line per submitted job, in submission order.
    pub fn jobs(&self) -> Vec<JobSummary> {
        self.core
            .shared
            .lock()
            .jobs
            .iter()
            .enumerate()
            .map(|(index, job)| JobSummary {
                id: JobId(index as u64),
                name: job.name.clone(),
                algorithm: job.algorithm.to_string(),
                status: job.status,
            })
            .collect()
    }

    /// One job's summary and report under a **single** lock acquisition —
    /// a consistent snapshot, so a `Running` status can never be paired
    /// with an already-published report (and one status poll costs one
    /// slot clone, not a scan of the whole job table). `None` for an id
    /// the daemon never issued. This is what `GET /jobs/{id}` serves.
    pub fn snapshot(&self, id: JobId) -> Option<(JobSummary, Option<JobReport>)> {
        let state = self.core.shared.lock();
        let job = state.jobs.get(id.0 as usize)?;
        Some((
            JobSummary {
                id,
                name: job.name.clone(),
                algorithm: job.algorithm.to_string(),
                status: job.status,
            },
            job.report.clone(),
        ))
    }

    /// Requests cancellation of one job; `false` for an unknown id.
    ///
    /// Cooperative, exactly as in the scoped run: a queued job reports
    /// [`JobStatus::Cancelled`] without running, a running job observes the
    /// token at its next question and reports `Cancelled` with the partial
    /// result, and a job already terminal is unaffected.
    pub fn cancel(&self, id: JobId) -> bool {
        match self.core.shared.lock().jobs.get(id.0 as usize) {
            Some(job) => {
                job.cancel.cancel();
                true
            }
            None => false,
        }
    }

    /// Ids in the order their reports landed — the scheduler's observable
    /// execution order (priority first, then submission, modulo worker
    /// concurrency).
    pub fn finished_order(&self) -> Vec<JobId> {
        self.core.shared.lock().finished_order.clone()
    }

    /// Blocks until no job is queued or running. Jobs submitted *after*
    /// drain returns are of course not waited for.
    pub fn drain(&self) {
        let shared = &self.core.shared;
        let mut state = shared.lock();
        while !(state.queue.is_empty() && state.running == 0) {
            state = shared
                .wakeup
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// A live snapshot of the daemon's counters.
    pub fn stats(&self) -> DaemonStats {
        let (submitted, queued, running, done, exhausted, cancelled, failed) = {
            let state = self.core.shared.lock();
            let (mut done, mut exhausted, mut cancelled, mut failed) = (0u64, 0u64, 0u64, 0u64);
            for job in &state.jobs {
                match job.status {
                    JobStatus::Done => done += 1,
                    JobStatus::Exhausted { .. } => exhausted += 1,
                    JobStatus::Cancelled => cancelled += 1,
                    JobStatus::Failed { .. } => failed += 1,
                    JobStatus::Queued | JobStatus::Running => {}
                }
            }
            (
                state.jobs.len() as u64,
                state.queue.len() as u64,
                state.running as u64,
                done,
                exhausted,
                cancelled,
                failed,
            )
        };
        DaemonStats {
            submitted,
            queued,
            running,
            // Derived, not independently tracked: the split counters are
            // the source of truth, `finished` keeps the pre-split wire
            // field alive.
            finished: done + exhausted + cancelled + failed,
            done,
            exhausted,
            cancelled,
            failed,
            workers: self.core.config.workers as u64,
            crowd_tasks: self.core.global_budget.tasks_spent(),
            reuse: self.core.memo_root.reuse_stats(),
            uptime_ms: self.core.started.elapsed().as_millis() as u64,
        }
    }

    /// The daemon's readiness verdict: dispatcher liveness, persistence
    /// health, per-tenant breaker states. This is what `GET /readyz`
    /// serves (200 when ready, 503 otherwise).
    pub fn readiness(&self) -> Readiness {
        let dispatcher_alive = lock(&self.dispatcher)
            .as_ref()
            .is_some_and(|handle| !handle.is_finished());
        let persistence_healthy = self
            .core
            .persist
            .as_ref()
            .is_none_or(|persist| !persist.is_degraded())
            && self.core.telemetry.persist_errors_total() == 0;
        let breakers = self
            .breakers
            .states()
            .into_iter()
            .map(|(tenant, state)| BreakerSummary {
                tenant,
                state: state.label().to_string(),
            })
            .collect();
        let peers = lock(&self.peer_states)
            .iter()
            .map(|(peer, up)| PeerSummary {
                peer: peer.clone(),
                state: if *up { "up" } else { "down" }.to_string(),
            })
            .collect();
        Readiness {
            ready: dispatcher_alive && persistence_healthy,
            dispatcher_alive,
            persistence_healthy,
            breakers,
            peers,
        }
    }

    /// Is the daemon still accepting work? `false` once
    /// [`AuditDaemon::shutdown`] has begun — the HTTP layer refuses
    /// state-changing bodies (`/store/import`, `/fleet/delta`) with 503
    /// instead of racing the teardown.
    pub fn is_accepting(&self) -> bool {
        self.core.shared.lock().accepting
    }

    /// Records the last-observed state of fleet peer `peer` (`true` =
    /// up). Written by the anti-entropy loop after every exchange;
    /// surfaced as [`Readiness::peers`] on `/readyz`. A down peer never
    /// flips `ready` — degraded mode is availability-first.
    pub fn set_peer_state(&self, peer: &str, up: bool) {
        lock(&self.peer_states).insert(peer.to_string(), up);
    }

    /// Absorbs one anti-entropy delta from fleet peer `from`: seeds the
    /// facts into the shared store (bypassing [`ReuseStats`] and the WAL
    /// sink, exactly like recovery — a peer's facts are re-derivable
    /// from *its* WAL, so this node doesn't pay to persist them) and
    /// tallies `audit_fleet_deltas_total{peer}`. Backs
    /// `POST /fleet/delta`.
    pub fn absorb_fleet_delta(&self, from: &str, delta: &KnowledgeStore) {
        if !delta.is_empty() {
            self.core.memo_root.seed_store(delta);
            self.core
                .telemetry
                .record_recovered_facts(delta.fact_count() as u64);
        }
        self.core.telemetry.record_fleet_delta(from);
    }

    /// A consistent copy of the platform-wide fact base — everything the
    /// crowd has been paid for so far (labels, membership facts, set
    /// verdicts), merged across store shards and the disk spill. This is
    /// what `GET /store/export` serves: the whole knowledge plane as one
    /// JSON document a fresh daemon can [`import`](Self::import_store).
    pub fn export_store(&self) -> KnowledgeStore {
        self.core.memo_root.store_snapshot()
    }

    /// Seeds a previously exported fact base into this daemon's store and
    /// returns how many facts it now holds. Backs `POST /store/import`.
    ///
    /// Imported facts behave exactly like recovered ones: they bypass
    /// [`ReuseStats`] and the WAL sink (so reports stay comparable to an
    /// uninterrupted run), and — when this daemon persists — are made
    /// durable by an immediate snapshot rather than per-fact WAL frames.
    /// Importing while jobs run is safe; in-flight queries see the new
    /// facts at their next store lookup.
    pub fn import_store(&self, store: &KnowledgeStore) {
        let core = &self.core;
        if !store.is_empty() {
            core.memo_root.seed_store(store);
            core.telemetry
                .record_recovered_facts(store.fact_count() as u64);
        }
        if let Some(persist) = &core.persist {
            let _ = persist.snapshot(&core.memo_root);
        }
    }

    /// Graceful stop: refuses further submissions, lets the workers drain
    /// the queue, joins every thread and returns the lifetime
    /// [`ServiceReport`] together with the answer source (e.g. to read
    /// platform statistics). `None` on any call after the first.
    pub fn shutdown(&self) -> Option<(ServiceReport, S)> {
        if !self.core.close_intake() {
            return None;
        }
        let dispatcher = lock(&self.dispatcher).take()?;
        let (dispatch, source) = dispatcher.join().expect("dispatcher exits cleanly");
        Some((self.core.finish(dispatch), source))
    }
}

/// One worker thread: pop the highest-priority job, run it with
/// [`run_job`], publish the report, repeat — until intake is closed and
/// the queue is empty.
fn worker_loop(context: WorkerContext) {
    loop {
        let (index, spec, cancel, submitted_at) = {
            let mut state = context.shared.lock();
            loop {
                if let Some(index) = state.queue.pop() {
                    // Only a published report drops a job's spec, and a
                    // job is queued once, before it runs.
                    let spec = state.jobs[index]
                        .spec
                        .clone()
                        .expect("queued job holds its spec");
                    // A job cancelled while queued must never be observed
                    // `Running` — the documented contract is that it
                    // reports `Cancelled` without running (`run_job` sees
                    // the pre-flipped token and returns immediately), so
                    // its last live status stays `Queued`.
                    if !state.jobs[index].cancel.is_cancelled() {
                        state.jobs[index].status = JobStatus::Running;
                    }
                    state.running += 1;
                    let job = &state.jobs[index];
                    break (index, spec, job.cancel.clone(), job.submitted_at);
                }
                if !state.accepting {
                    return;
                }
                state = context
                    .shared
                    .wakeup
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // `status` now answers `Running`; the next submission or cancel can
        // land concurrently — the job table lock is free while we work.
        let queued_ms = submitted_at.elapsed().as_millis() as u64;
        context.telemetry.job_queued_delta(-1);
        context.telemetry.job_running_delta(1);
        let report = run_job(&context, JobId(index as u64), &spec, cancel, queued_ms);
        context.telemetry.job_running_delta(-1);
        context
            .telemetry
            .record_submit_to_first_result_ms(submitted_at.elapsed().as_millis() as u64);
        {
            let mut state = context.shared.lock();
            let job = &mut state.jobs[index];
            job.status = report.status;
            job.report = Some(report);
            job.spec = None;
            state.finished_order.push(JobId(index as u64));
        }
        // Job boundaries are the snapshot cadence check: compacting here
        // keeps the rotation off the per-fact hot path, and the report is
        // already out, so only this worker waits for the cut. It still
        // counts as running until the cut ends, so `drain` returns — and
        // `finish` cuts its final snapshot — with no cut in flight.
        if let Some(persist) = &context.persist {
            persist.maybe_snapshot(&context.memo_root);
        }
        context.shared.lock().running -= 1;
        context.shared.wakeup.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::AuditKind;
    use coverage_core::prelude::*;

    fn truth(n: usize, minority: usize) -> Arc<VecGroundTruth> {
        Arc::new(VecGroundTruth::new(
            (0..n)
                .map(|i| Labels::single(u8::from(i < minority)))
                .collect(),
        ))
    }

    fn female() -> Target {
        Target::group(Pattern::parse("1").unwrap())
    }

    fn group_job(name: &str, pool: Vec<ObjectId>) -> JobSpec {
        JobSpec::new(name, pool, AuditKind::GroupCoverage { target: female() }).tau(5)
    }

    #[test]
    fn finished_jobs_drop_their_spec() {
        let truth = truth(400, 60);
        let daemon = AuditDaemon::start(
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
            SharedTruthSource::new(Arc::clone(&truth)),
        );
        let ids: Vec<JobId> = (0..4)
            .map(|i| {
                daemon
                    .submit(group_job(&format!("t{i}/job"), truth.all_ids()))
                    .unwrap()
            })
            .collect();
        daemon.drain();
        {
            let state = daemon.core.shared.lock();
            assert_eq!(state.jobs.len(), 4);
            assert!(
                state.jobs.iter().all(|job| job.spec.is_none()),
                "a drained daemon must hold no finished job's pool"
            );
        }
        // The summaries still name every job.
        for (i, id) in ids.iter().enumerate() {
            let (summary, report) = daemon.snapshot(*id).unwrap();
            assert_eq!(summary.name, format!("t{i}/job"));
            assert_eq!(summary.algorithm, "group_coverage");
            assert!(report.unwrap().status.is_done());
        }
        assert_eq!(daemon.jobs().len(), 4);
        daemon.shutdown().expect("first shutdown");
    }

    /// A job's report is published before its boundary's snapshot cut,
    /// but the worker counts as running until the cut ends — so `drain`
    /// never returns with a cut in flight, round after round.
    #[test]
    fn drain_returns_with_no_cut_in_flight() {
        let truth = truth(600, 90);
        let dir = std::env::temp_dir().join(format!("cvg-daemon-drain-cut-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let daemon = AuditDaemon::start(
            ServiceConfig {
                workers: 2,
                data_dir: Some(dir.clone()),
                snapshot_every: 1,
                ..ServiceConfig::default()
            },
            SharedTruthSource::new(Arc::clone(&truth)),
        );
        let persist = daemon.core.persist.clone().expect("data_dir set");
        for round in 0..4 {
            for i in 0..4 {
                let lo = 100 * ((round + i) % 5);
                let pool = truth.all_ids()[lo..lo + 200].to_vec();
                daemon
                    .submit(group_job(&format!("t{i}/r{round}"), pool))
                    .unwrap();
            }
            daemon.drain();
            assert!(!persist.cut_in_flight(), "round {round}");
        }
        assert!(
            daemon
                .telemetry()
                .render_prometheus()
                .lines()
                .any(|line| line.starts_with("audit_snapshot_cut_ms_count ")
                    && line != "audit_snapshot_cut_ms_count 0"),
            "the cadence must have cut at least once"
        );
        daemon.shutdown().expect("shutdown");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lifecycle_submit_drain_report_shutdown() {
        let truth = truth(400, 60);
        let daemon = AuditDaemon::start(
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
            SharedTruthSource::new(Arc::clone(&truth)),
        );
        let a = daemon.submit(group_job("a", truth.all_ids())).unwrap();
        let b = daemon.submit(group_job("b", truth.all_ids())).unwrap();
        assert!(daemon.status(a).is_some());
        assert_eq!(daemon.status(JobId(99)), None);
        daemon.drain();
        assert!(daemon.report(a).unwrap().status.is_done());
        assert!(daemon.report(b).unwrap().status.is_done());
        // The twin job was answered from the daemon's knowledge store.
        let stats = daemon.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.finished, 2);
        assert!(stats.reuse.hits > 0, "{stats:?}");
        let (summary, _source) = daemon.shutdown().expect("first shutdown");
        assert_eq!(summary.jobs.len(), 2);
        assert!(daemon.shutdown().is_none(), "second shutdown is a no-op");
    }

    /// The `finished` wire field stays the derived sum of the split
    /// status counters, and the daemon's telemetry plane sees the same
    /// lifecycle: counters, per-job timelines and the Prometheus render
    /// all agree with the job table.
    #[test]
    fn stats_split_terminal_statuses_and_telemetry_agrees() {
        let truth = truth(400, 60);
        let daemon = AuditDaemon::start(
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            SharedTruthSource::new(Arc::clone(&truth)),
        );
        // The starved job runs first (single worker, submission order): a
        // zero budget refuses its very first question while the knowledge
        // store is still cold — submitted later it could be answered
        // entirely from the twin job's cached facts and finish `Done`.
        let starved = daemon
            .submit(group_job("t/b", truth.all_ids()).budget(0))
            .unwrap();
        let done = daemon.submit(group_job("t/a", truth.all_ids())).unwrap();
        let doomed = daemon.submit(group_job("u/c", truth.all_ids())).unwrap();
        daemon.cancel(doomed);
        daemon.drain();
        let stats = daemon.stats();
        assert_eq!(stats.done, 1, "{stats:?}");
        assert_eq!(stats.exhausted, 1, "{stats:?}");
        assert_eq!(stats.cancelled, 1, "{stats:?}");
        assert_eq!(stats.failed, 0, "{stats:?}");
        assert_eq!(
            stats.finished,
            stats.done + stats.exhausted + stats.cancelled + stats.failed
        );
        // The split survives the wire.
        let json = serde_json::to_string(&stats).unwrap();
        assert!(json.contains("\"exhausted\":1"), "{json}");

        let telemetry = daemon.telemetry();
        assert!(telemetry.is_enabled(), "daemon default enables telemetry");
        let text = telemetry.render_prometheus();
        assert!(text.contains("audit_jobs_submitted_total 3"), "{text}");
        assert!(
            text.contains(r#"audit_jobs_finished_total{status="done"} 1"#),
            "{text}"
        );
        assert!(
            text.contains(r#"audit_jobs_finished_total{status="exhausted"} 1"#),
            "{text}"
        );
        assert!(
            text.contains(r#"audit_tenant_crowd_tasks_total{tenant="t"}"#),
            "{text}"
        );
        // Each job's timeline starts at submission and ends terminal.
        for (id, terminal) in [
            (done, "done"),
            (starved, "exhausted"),
            (doomed, "cancelled"),
        ] {
            let timeline = telemetry.timeline(id.0);
            assert_eq!(timeline.first().unwrap().phase, "submit", "{timeline:?}");
            assert_eq!(timeline.last().unwrap().phase, terminal, "{timeline:?}");
        }
        // The report's lifecycle breakdown is present alongside wall_ms.
        let report = daemon.report(done).unwrap();
        assert!(report.phases_ms.get("queued").is_some());
        assert!(report.phases_ms.get("run").is_some());
        let (summary, _) = daemon.shutdown().unwrap();
        assert_eq!(summary.jobs.len(), 3);
    }

    #[test]
    fn invalid_spec_is_refused_at_the_door() {
        let truth = truth(50, 5);
        let daemon = AuditDaemon::start(
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            SharedTruthSource::new(Arc::clone(&truth)),
        );
        let err = daemon
            .submit(group_job("zero-n", truth.all_ids()).n(0))
            .unwrap_err();
        assert!(err.contains("positive"), "{err}");
        assert_eq!(daemon.stats().submitted, 0);
        let (summary, _) = daemon.shutdown().unwrap();
        assert!(summary.jobs.is_empty());
        // Submission after shutdown is refused too.
        let err = daemon
            .submit(group_job("late", truth.all_ids()))
            .unwrap_err();
        assert!(err.contains("shutting down"), "{err}");
    }

    /// ISSUE 8: the submit door's QoS gate. A tenant that bursts past its
    /// token bucket is refused with a typed `RateLimited` refusal carrying
    /// a positive `Retry-After`; other tenants are unaffected (buckets are
    /// per tenant); the queue quota caps simultaneous backlog; and no
    /// limit configured means no behaviour change.
    #[test]
    fn tenant_rate_limit_refuses_with_retry_after() {
        let truth = truth(60, 8);
        let daemon = AuditDaemon::start(
            ServiceConfig {
                workers: 1,
                round_latency: std::time::Duration::from_millis(1),
                tenant_rate_limit: Some(TenantRateLimit {
                    per_second: 1,
                    burst: 2,
                    max_queued: Some(8),
                }),
                ..ServiceConfig::default()
            },
            SharedTruthSource::new(Arc::clone(&truth)),
        );
        // Burst of 2 is admitted; the third submission in the same instant
        // is rate-limited.
        daemon
            .try_submit(group_job("a/one", truth.all_ids()))
            .unwrap();
        daemon
            .try_submit(group_job("a/two", truth.all_ids()))
            .unwrap();
        let refusal = daemon
            .try_submit(group_job("a/three", truth.all_ids()))
            .unwrap_err();
        match refusal {
            SubmitRefusal::RateLimited { retry_after_secs } => {
                assert!(retry_after_secs >= 1, "{retry_after_secs}");
            }
            other => panic!("expected RateLimited, got {other:?}"),
        }
        // The string door carries the same information.
        let err = daemon
            .submit(group_job("a/four", truth.all_ids()))
            .unwrap_err();
        assert!(err.contains("rate limit"), "{err}");
        // A different tenant has its own bucket.
        daemon
            .try_submit(group_job("b/one", truth.all_ids()))
            .unwrap();
        daemon.drain();
        let (summary, _) = daemon.shutdown().unwrap();
        assert_eq!(summary.jobs.len(), 3);
    }

    /// The queue quota refuses the (max_queued + 1)-th simultaneous
    /// backlog entry even when the token bucket still has credit.
    #[test]
    fn tenant_queue_quota_caps_backlog() {
        let truth = truth(60, 8);
        let daemon = AuditDaemon::start(
            ServiceConfig {
                workers: 1,
                round_latency: std::time::Duration::from_millis(5),
                tenant_rate_limit: Some(TenantRateLimit {
                    per_second: 1000,
                    burst: 1000,
                    max_queued: Some(2),
                }),
                ..ServiceConfig::default()
            },
            SharedTruthSource::new(Arc::clone(&truth)),
        );
        // Three rapid submissions: the worker may start the first, but
        // with round latency holding it the next two fill the quota.
        let mut refused = 0;
        for i in 0..6 {
            if daemon
                .try_submit(group_job(&format!("t/{i}"), truth.all_ids()))
                .is_err()
            {
                refused += 1;
            }
        }
        assert!(
            refused > 0,
            "quota of 2 must refuse some of 6 instant submissions"
        );
        daemon.drain();
        daemon.shutdown();
    }

    #[test]
    fn queued_job_cancels_without_running() {
        let truth = truth(300, 40);
        let daemon = AuditDaemon::start(
            ServiceConfig {
                workers: 1,
                round_latency: std::time::Duration::from_millis(1),
                ..ServiceConfig::default()
            },
            SharedTruthSource::new(Arc::clone(&truth)),
        );
        // Keep the single worker busy, then cancel a job stuck behind it.
        let blocker = daemon
            .submit(group_job("blocker", truth.all_ids()))
            .unwrap();
        let doomed = daemon.submit(group_job("doomed", truth.all_ids())).unwrap();
        assert!(daemon.cancel(doomed));
        assert!(!daemon.cancel(JobId(42)));
        daemon.drain();
        assert!(daemon.report(blocker).unwrap().status.is_done());
        let report = daemon.report(doomed).unwrap();
        assert!(report.status.is_cancelled());
        let (summary, _) = daemon.shutdown().unwrap();
        assert_eq!(summary.jobs.len(), 2);
    }
}
