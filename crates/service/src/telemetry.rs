//! The telemetry plane: metrics registry + job phase tracing, zero deps.
//!
//! Where the dollars and the milliseconds go. A crowdsourced audit platform
//! is only tunable (and only trustworthy) when it can account for itself:
//! which tenants spend crowd tasks, how long HIT rounds take, how long a
//! submitted job waits for a worker, which HTTP endpoints return errors.
//! This module is that account, hand-rolled under the same offline
//! discipline as the rest of the crate — no crates.io, just atomics,
//! stripes and a ring buffer.
//!
//! Three layers share one cheaply-cloneable [`Telemetry`] handle:
//!
//! * **metrics registry** — [`Counter`]s, [`Gauge`]s, fixed-bucket
//!   log-scale [`Histogram`]s (`record_ms` / [`Histogram::percentile`]),
//!   and lock-striped *labeled* counter families (per-endpoint HTTP
//!   request/status counts, per-tenant crowd spend, per-status job
//!   tallies). Everything renders as Prometheus text exposition via
//!   [`Telemetry::render_prometheus`] — `GET /metrics` serves exactly that
//!   string;
//! * **job phase tracing** — a bounded ring of [`TraceEvent`]s with a
//!   monotone `seq`: submit → scheduled → algorithm phases (via the core
//!   [`EngineProbe`](coverage_core::probe::EngineProbe) hook) → store
//!   reuse summary → terminal status. [`Telemetry::timeline`] assembles a
//!   per-job view on demand (`GET /trace/{id}`);
//!   [`Telemetry::events_since`] drains the ring incrementally
//!   (`GET /events?since=seq`), surviving wraparound because `seq` never
//!   resets;
//! * **the off switch** — [`Telemetry::disabled`] makes every record call
//!   a no-op behind one `Option` check, so un-instrumented runs pay
//!   nothing.
//!
//! The hard invariant, carried from the store/scale-out/daemon PRs:
//! telemetry is **strictly read-only**. With tracing on or off, every
//! [`JobReport`](crate::JobReport) field except the wall-clock ones
//! (`wall_ms`, `phases_ms`) is byte-identical — no record call feeds
//! anything back into scheduling, budgeting or answering. The
//! `tests/telemetry.rs` proptest pins this across all five algorithm
//! drivers.
//!
//! ```
//! use coverage_service::telemetry::Telemetry;
//!
//! let telemetry = Telemetry::new(64);
//! telemetry.job_submitted();
//! telemetry.record_queue_wait_ms(3);
//! telemetry.count_http_request("GET", "/stats", 200);
//! telemetry.trace(Some(0), "submit", || "queued at priority 5".to_string());
//! let text = telemetry.render_prometheus();
//! assert!(text.contains("audit_jobs_submitted_total 1"));
//! assert!(text.contains(r#"audit_http_requests_total{method="GET",route="/stats",status="200"} 1"#));
//! let (events, next) = telemetry.events_since(0);
//! assert_eq!(events.len(), 1);
//! assert_eq!(next, 1);
//! ```

use crate::job::JobStatus;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A monotone event counter (wait-free, relaxed ordering — counts, not
/// synchronization).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed up-and-down level (queue depths, running counts).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Shifts the level by `delta` (negative to decrease).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of finite histogram buckets: powers of two from `le="1"` up to
/// `le="1048576"` (≈ 17.5 minutes when recording milliseconds). One
/// overflow bucket (`le="+Inf"`) follows.
pub const HISTOGRAM_BUCKETS: usize = 21;

/// A fixed-bucket log-scale histogram: bucket `i` counts observations
/// `≤ 2^i`, with one `+Inf` overflow bucket — cheap enough to record on
/// every dispatch round, expressive enough for latency percentiles
/// spanning microseconds to minutes. Lock-free: each bucket is an atomic.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS + 1],
    sum: AtomicU64,
    count: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The inclusive upper bound of finite bucket `i` (`2^i`).
    pub fn bucket_bound(i: usize) -> u64 {
        1u64 << i
    }

    fn bucket_index(value: u64) -> usize {
        // Smallest i with value <= 2^i; 0 and 1 land in bucket 0.
        let needed = 64 - value.saturating_sub(1).leading_zeros() as usize;
        needed.min(HISTOGRAM_BUCKETS)
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a millisecond observation (the dominant use: latencies).
    pub fn record_ms(&self, ms: u64) {
        self.record(ms);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The largest observation recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The `p`-th percentile (0 < p ≤ 100) as the inclusive upper bound of
    /// the bucket holding that rank — an upper estimate no finer than the
    /// bucket resolution (the overflow bucket answers with the exact
    /// maximum). 0 when the histogram is empty.
    pub fn percentile(&self, p: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return if i < HISTOGRAM_BUCKETS {
                    Self::bucket_bound(i)
                } else {
                    self.max()
                };
            }
        }
        self.max()
    }

    /// Cumulative per-bucket counts in Prometheus `le` order: the finite
    /// bounds, then the `+Inf` total.
    pub fn cumulative_buckets(&self) -> Vec<(Option<u64>, u64)> {
        let mut cumulative = 0u64;
        let mut out = Vec::with_capacity(HISTOGRAM_BUCKETS + 1);
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            let bound = (i < HISTOGRAM_BUCKETS).then(|| Self::bucket_bound(i));
            out.push((bound, cumulative));
        }
        out
    }

    fn render(&self, name: &str, help: &str, out: &mut String) {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} histogram");
        for (bound, cumulative) in self.cumulative_buckets() {
            match bound {
                Some(le) => {
                    let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                }
                None => {
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                }
            }
        }
        let _ = writeln!(out, "{name}_sum {}", self.sum());
        let _ = writeln!(out, "{name}_count {}", self.count());
    }
}

/// Number of lock stripes in a labeled counter family. Label cardinality
/// is modest (routes × statuses, tenants), so striping is about update
/// contention from many handler/worker threads, not capacity.
const LABEL_STRIPES: usize = 8;

/// A counter family keyed by label values (e.g. `{method, route, status}`),
/// lock-striped by label hash so concurrent HTTP handlers and workers
/// rarely contend on the same mutex.
#[derive(Debug)]
struct LabeledCounter {
    label_names: &'static [&'static str],
    stripes: Vec<Mutex<HashMap<Vec<String>, u64>>>,
}

impl LabeledCounter {
    fn new(label_names: &'static [&'static str]) -> Self {
        Self {
            label_names,
            stripes: (0..LABEL_STRIPES)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn add(&self, labels: Vec<String>, n: u64) {
        debug_assert_eq!(labels.len(), self.label_names.len());
        let mut hasher = DefaultHasher::new();
        labels.hash(&mut hasher);
        let stripe = (hasher.finish() as usize) % LABEL_STRIPES;
        let mut map = crate::service::lock(&self.stripes[stripe]);
        *map.entry(labels).or_insert(0) += n;
    }

    /// Every `(label values, count)` pair, sorted by label values — a
    /// deterministic order however the stripes filled.
    fn sorted_entries(&self) -> Vec<(Vec<String>, u64)> {
        let mut entries: Vec<(Vec<String>, u64)> = self
            .stripes
            .iter()
            .flat_map(|stripe| {
                crate::service::lock(stripe)
                    .iter()
                    .map(|(k, v)| (k.clone(), *v))
                    .collect::<Vec<_>>()
            })
            .collect();
        entries.sort();
        entries
    }

    /// Overwrites the value of one label combination — gauge semantics on
    /// the same striped storage (used by `audit_breaker_state`, whose
    /// per-tenant value moves both ways).
    fn set(&self, labels: Vec<String>, value: u64) {
        debug_assert_eq!(labels.len(), self.label_names.len());
        let mut hasher = DefaultHasher::new();
        labels.hash(&mut hasher);
        let stripe = (hasher.finish() as usize) % LABEL_STRIPES;
        let mut map = crate::service::lock(&self.stripes[stripe]);
        map.insert(labels, value);
    }

    fn render(&self, name: &str, help: &str, out: &mut String) {
        self.render_as(name, help, "counter", out);
    }

    fn render_as(&self, name: &str, help: &str, kind: &str, out: &mut String) {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
        for (values, count) in self.sorted_entries() {
            let labels: Vec<String> = self
                .label_names
                .iter()
                .zip(&values)
                .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
                .collect();
            let _ = writeln!(out, "{name}{{{}}} {count}", labels.join(","));
        }
    }
}

/// A histogram family keyed by one label value (per-tenant latencies).
/// Tenant cardinality is modest, so one mutex guards the map of handles;
/// the recording hot path only holds it long enough to clone an `Arc` —
/// the bucket updates themselves stay lock-free.
#[derive(Debug)]
struct LabeledHistogram {
    label_name: &'static str,
    series: Mutex<HashMap<String, Arc<Histogram>>>,
}

impl LabeledHistogram {
    fn new(label_name: &'static str) -> Self {
        Self {
            label_name,
            series: Mutex::new(HashMap::new()),
        }
    }

    fn series(&self, label: &str) -> Arc<Histogram> {
        let mut map = crate::service::lock(&self.series);
        Arc::clone(
            map.entry(label.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    fn record(&self, label: &str, value: u64) {
        self.series(label).record(value);
    }

    fn percentile(&self, label: &str, p: f64) -> u64 {
        crate::service::lock(&self.series)
            .get(label)
            .map(|h| h.percentile(p))
            .unwrap_or(0)
    }

    fn render(&self, name: &str, help: &str, out: &mut String) {
        let mut entries: Vec<(String, Arc<Histogram>)> = crate::service::lock(&self.series)
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect();
        if entries.is_empty() {
            return;
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} histogram");
        let key = self.label_name;
        for (label, histogram) in entries {
            let label = escape_label(&label);
            for (bound, cumulative) in histogram.cumulative_buckets() {
                match bound {
                    Some(le) => {
                        let _ = writeln!(
                            out,
                            "{name}_bucket{{{key}=\"{label}\",le=\"{le}\"}} {cumulative}"
                        );
                    }
                    None => {
                        let _ = writeln!(
                            out,
                            "{name}_bucket{{{key}=\"{label}\",le=\"+Inf\"}} {cumulative}"
                        );
                    }
                }
            }
            let _ = writeln!(out, "{name}_sum{{{key}=\"{label}\"}} {}", histogram.sum());
            let _ = writeln!(
                out,
                "{name}_count{{{key}=\"{label}\"}} {}",
                histogram.count()
            );
        }
    }
}

/// Escapes a label value for the Prometheus text format.
fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// One entry of the bounded trace ring: what happened, to which job, when
/// (milliseconds relative to telemetry start), in which global order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Global monotone sequence number. Never resets, so a consumer of
    /// `GET /events?since=seq` can detect both its resume point and how
    /// many events the ring dropped while it was away.
    pub seq: u64,
    /// Milliseconds since the telemetry plane (≈ the daemon) started.
    pub rel_ms: u64,
    /// The job this event belongs to; `None` for platform-wide events
    /// (dispatch rounds).
    pub job: Option<u64>,
    /// Short machine-friendly phase tag (`submit`, `scheduled`,
    /// `scan_group`, `store`, `done`, …).
    pub phase: String,
    /// Human-readable detail line.
    pub detail: String,
}

/// The bounded event log: a ring of the most recent `capacity` events.
/// `next_seq` only ever grows — overwriting an old slot never disturbs the
/// monotone numbering, which is what lets `events_since` resume across
/// wraparound.
#[derive(Debug)]
struct TraceRing {
    buf: Vec<TraceEvent>,
    capacity: usize,
    next_seq: u64,
}

impl TraceRing {
    fn new(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity.min(1024)),
            capacity,
            next_seq: 0,
        }
    }

    fn push(&mut self, rel_ms: u64, job: Option<u64>, phase: &str, detail: String) {
        let event = TraceEvent {
            seq: self.next_seq,
            rel_ms,
            job,
            phase: phase.to_string(),
            detail,
        };
        let slot = (self.next_seq % self.capacity as u64) as usize;
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[slot] = event;
        }
        self.next_seq += 1;
    }

    /// The oldest sequence number still in the ring.
    fn first_seq(&self) -> u64 {
        self.next_seq - self.buf.len() as u64
    }

    /// Events with `seq >= since`, oldest first, plus the next sequence
    /// number (pass it back as `since` to resume where this drain ended).
    fn since(&self, since: u64) -> (Vec<TraceEvent>, u64) {
        let from = since.max(self.first_seq());
        let events = (from..self.next_seq)
            .map(|seq| self.buf[(seq % self.capacity as u64) as usize].clone())
            .collect();
        (events, self.next_seq)
    }

    /// One job's events, oldest first.
    fn timeline(&self, job: u64) -> Vec<TraceEvent> {
        (self.first_seq()..self.next_seq)
            .map(|seq| &self.buf[(seq % self.capacity as u64) as usize])
            .filter(|e| e.job == Some(job))
            .cloned()
            .collect()
    }
}

/// Everything the enabled plane owns. Reached only through [`Telemetry`].
#[derive(Debug)]
struct Inner {
    started: Instant,
    // Counters.
    jobs_submitted: Counter,
    crowd_tasks: Counter,
    dispatch_rounds: Counter,
    // Persistence plane (WAL, snapshots, recovery, spill).
    wal_records: Counter,
    snapshot_writes: Counter,
    recovered_facts: Counter,
    spilled_labels: Counter,
    spill_recalls: Counter,
    // HTTP connection engine.
    keepalive_reuses: Counter,
    watch_lines_dropped: Counter,
    http_active_connections: Gauge,
    // Fleet plane (anti-entropy deltas, degraded-mode forwards).
    fleet_deltas: LabeledCounter,
    fleet_forwarded: Counter,
    // Gauges.
    jobs_queued: Gauge,
    jobs_running: Gauge,
    // Labeled families.
    jobs_finished: LabeledCounter,
    tenant_crowd_tasks: LabeledCounter,
    http_requests: LabeledCounter,
    // Resilience plane (retries, injected faults, persistence errors,
    // breaker states).
    retries: LabeledCounter,
    faults_injected: LabeledCounter,
    persist_errors: LabeledCounter,
    breaker_state: LabeledCounter,
    tenant_queue_wait_ms: LabeledHistogram,
    // Histograms.
    queue_wait_ms: Histogram,
    submit_to_first_result_ms: Histogram,
    hit_round_trip_ms: Histogram,
    dispatch_round_questions: Histogram,
    point_batch_size: Histogram,
    snapshot_cut_ms: Histogram,
    snapshot_cut_facts: Histogram,
    // Tracing.
    trace: Mutex<TraceRing>,
}

/// The telemetry handle threaded through the daemon (and so the scoped
/// batch that runs on it), the dispatcher, the worker pool and the HTTP
/// front-end. Cloning shares
/// the registry (an `Arc` bump); [`Telemetry::disabled`] is the free
/// no-op variant. See the [module docs](self).
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(_) => f.write_str("Telemetry(enabled)"),
            None => f.write_str("Telemetry(disabled)"),
        }
    }
}

/// The per-tenant label of a job name: the segment before the first `/`
/// (job names are conventionally `tenant/audit-label`; a name without a
/// slash is its own tenant).
pub fn tenant_of(name: &str) -> &str {
    name.split('/').next().unwrap_or(name)
}

/// The `status` label of a terminal [`JobStatus`] (detail-free: every
/// `Exhausted` scope tallies under `"exhausted"`).
pub fn status_label(status: &JobStatus) -> &'static str {
    match status {
        JobStatus::Queued => "queued",
        JobStatus::Running => "running",
        JobStatus::Done => "done",
        JobStatus::Exhausted { .. } => "exhausted",
        JobStatus::Cancelled => "cancelled",
        JobStatus::Failed { .. } => "failed",
    }
}

impl Telemetry {
    /// An enabled plane whose trace ring holds the most recent
    /// `trace_capacity` events.
    ///
    /// # Panics
    /// Panics when `trace_capacity == 0` — an enabled plane needs at least
    /// one trace slot (use [`Telemetry::disabled`] to opt out entirely).
    pub fn new(trace_capacity: usize) -> Self {
        assert!(trace_capacity > 0, "trace capacity must be positive");
        Self {
            inner: Some(Arc::new(Inner {
                started: Instant::now(),
                jobs_submitted: Counter::default(),
                crowd_tasks: Counter::default(),
                dispatch_rounds: Counter::default(),
                wal_records: Counter::default(),
                snapshot_writes: Counter::default(),
                recovered_facts: Counter::default(),
                spilled_labels: Counter::default(),
                spill_recalls: Counter::default(),
                keepalive_reuses: Counter::default(),
                watch_lines_dropped: Counter::default(),
                http_active_connections: Gauge::default(),
                fleet_deltas: LabeledCounter::new(&["peer"]),
                fleet_forwarded: Counter::default(),
                jobs_queued: Gauge::default(),
                jobs_running: Gauge::default(),
                jobs_finished: LabeledCounter::new(&["status"]),
                tenant_crowd_tasks: LabeledCounter::new(&["tenant"]),
                http_requests: LabeledCounter::new(&["method", "route", "status"]),
                retries: LabeledCounter::new(&["tenant"]),
                faults_injected: LabeledCounter::new(&["kind"]),
                persist_errors: LabeledCounter::new(&["op"]),
                breaker_state: LabeledCounter::new(&["tenant"]),
                tenant_queue_wait_ms: LabeledHistogram::new("tenant"),
                queue_wait_ms: Histogram::new(),
                submit_to_first_result_ms: Histogram::new(),
                hit_round_trip_ms: Histogram::new(),
                dispatch_round_questions: Histogram::new(),
                point_batch_size: Histogram::new(),
                snapshot_cut_ms: Histogram::new(),
                snapshot_cut_facts: Histogram::new(),
                trace: Mutex::new(TraceRing::new(trace_capacity)),
            })),
        }
    }

    /// The no-op plane: every record call is one `Option` check.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Is this the enabled plane?
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Milliseconds since the plane started (0 when disabled).
    pub fn uptime_ms(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.started.elapsed().as_millis() as u64)
            .unwrap_or(0)
    }

    // ---- job lifecycle --------------------------------------------------

    /// One job accepted (the queued gauge rises separately via
    /// [`Telemetry::job_queued_delta`]).
    pub fn job_submitted(&self) {
        if let Some(inner) = &self.inner {
            inner.jobs_submitted.inc();
        }
    }

    /// Shifts the queued-jobs gauge.
    pub fn job_queued_delta(&self, delta: i64) {
        if let Some(inner) = &self.inner {
            inner.jobs_queued.add(delta);
        }
    }

    /// Shifts the running-jobs gauge.
    pub fn job_running_delta(&self, delta: i64) {
        if let Some(inner) = &self.inner {
            inner.jobs_running.add(delta);
        }
    }

    /// How long a job waited between submission and its first schedule.
    pub fn record_queue_wait_ms(&self, ms: u64) {
        if let Some(inner) = &self.inner {
            inner.queue_wait_ms.record_ms(ms);
        }
    }

    /// The same wait, attributed to the job's tenant — the per-tenant QoS
    /// signal the WFQ weights are judged against.
    pub fn record_tenant_queue_wait_ms(&self, tenant: &str, ms: u64) {
        if let Some(inner) = &self.inner {
            inner.tenant_queue_wait_ms.record(tenant, ms);
        }
    }

    /// The p-th percentile of one tenant's queue wait, in milliseconds
    /// (bucket upper bound; 0 when the tenant never waited).
    pub fn tenant_queue_wait_percentile_ms(&self, tenant: &str, p: f64) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.tenant_queue_wait_ms.percentile(tenant, p))
            .unwrap_or(0)
    }

    /// Submit-to-first-result: the tenant-visible latency from submission
    /// to the terminal report landing.
    pub fn record_submit_to_first_result_ms(&self, ms: u64) {
        if let Some(inner) = &self.inner {
            inner.submit_to_first_result_ms.record_ms(ms);
        }
    }

    /// One job reached a terminal status: tallies the per-status counter
    /// and attributes its crowd spend to its tenant.
    pub fn job_finished(&self, status: &JobStatus, tenant: &str, crowd_tasks: u64) {
        if let Some(inner) = &self.inner {
            inner
                .jobs_finished
                .add(vec![status_label(status).to_string()], 1);
            inner.crowd_tasks.add(crowd_tasks);
            inner
                .tenant_crowd_tasks
                .add(vec![tenant.to_string()], crowd_tasks);
        }
    }

    /// The p-th percentile of submit-to-first-result latency, in
    /// milliseconds (bucket upper bound; 0 when nothing recorded).
    pub fn submit_to_first_result_percentile_ms(&self, p: f64) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.submit_to_first_result_ms.percentile(p))
            .unwrap_or(0)
    }

    /// The p-th percentile of queue wait, in milliseconds.
    pub fn queue_wait_percentile_ms(&self, p: f64) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.queue_wait_ms.percentile(p))
            .unwrap_or(0)
    }

    // ---- dispatcher -----------------------------------------------------

    /// One dispatch round: how many questions it drained and how long the
    /// full round trip took (publish, simulated crowd wait, collect).
    pub fn record_dispatch_round(&self, questions: u64, round_ms: u64) {
        if let Some(inner) = &self.inner {
            inner.dispatch_rounds.inc();
            inner.dispatch_round_questions.record(questions);
            inner.hit_round_trip_ms.record_ms(round_ms);
        }
    }

    /// One coalesced point-label HIT of `size` images.
    pub fn record_point_batch(&self, size: u64) {
        if let Some(inner) = &self.inner {
            inner.point_batch_size.record(size);
        }
    }

    // ---- resilience -----------------------------------------------------

    /// One redelivery of `tenant`'s question(s) after a transient platform
    /// failure (`audit_retries_total{tenant}`).
    pub fn record_retry(&self, tenant: &str) {
        if let Some(inner) = &self.inner {
            inner.retries.add(vec![tenant.to_string()], 1);
        }
    }

    /// One fault observed on the dispatch path, by kind — injected chaos
    /// (`hit_timeout`, `platform_error`, `worker_abandoned`), deadline
    /// misses, breaker refusals (`audit_faults_injected_total{kind}`).
    pub fn record_fault(&self, kind: &str) {
        if let Some(inner) = &self.inner {
            inner.faults_injected.add(vec![kind.to_string()], 1);
        }
    }

    /// One swallowed-no-more persistence error, by operation
    /// (`audit_persist_errors_total{op}`; `op` is `wal_append`,
    /// `snapshot`, `spill_read`, `sync`, ...).
    pub fn record_persist_error(&self, op: &str) {
        if let Some(inner) = &self.inner {
            inner.persist_errors.add(vec![op.to_string()], 1);
        }
    }

    /// Total persistence errors recorded so far (0 when disabled).
    pub fn persist_errors_total(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| {
                i.persist_errors
                    .sorted_entries()
                    .iter()
                    .map(|(_, n)| n)
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Moves `tenant`'s breaker-state gauge
    /// (`audit_breaker_state{tenant}`: 0 = closed, 1 = half-open,
    /// 2 = open).
    pub fn record_breaker_state(&self, tenant: &str, state: u64) {
        if let Some(inner) = &self.inner {
            inner.breaker_state.set(vec![tenant.to_string()], state);
        }
    }

    // ---- fleet ----------------------------------------------------------

    /// One anti-entropy `KnowledgeStore` delta absorbed from `peer`
    /// (`audit_fleet_deltas_total{peer}`; `peer` is the sending node's
    /// name, so cardinality is bounded by fleet size).
    pub fn record_fleet_delta(&self, peer: &str) {
        if let Some(inner) = &self.inner {
            inner.fleet_deltas.add(vec![peer.to_string()], 1);
        }
    }

    /// One job placed away from its ring owner because the owner was
    /// unreachable — the router's degraded-mode tally
    /// (`audit_fleet_forwarded_total`).
    pub fn record_fleet_forwarded(&self) {
        if let Some(inner) = &self.inner {
            inner.fleet_forwarded.inc();
        }
    }

    /// Total degraded-mode forwards so far (0 when disabled).
    pub fn fleet_forwarded_total(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.fleet_forwarded.get())
            .unwrap_or(0)
    }

    // ---- persistence ----------------------------------------------------

    /// `n` fact records appended to the write-ahead log.
    pub fn record_wal_records(&self, n: u64) {
        if let Some(inner) = &self.inner {
            inner.wal_records.add(n);
        }
    }

    /// One compacted snapshot written (rotation included): its wall time
    /// from rotation to the deletion of the old generation, and the facts
    /// it holds.
    pub fn record_snapshot_cut(&self, ms: u64, facts: u64) {
        if let Some(inner) = &self.inner {
            inner.snapshot_writes.inc();
            inner.snapshot_cut_ms.record_ms(ms);
            inner.snapshot_cut_facts.record(facts);
        }
    }

    /// `n` facts recovered at startup (snapshot load + WAL replay) or
    /// imported over HTTP.
    pub fn record_recovered_facts(&self, n: u64) {
        if let Some(inner) = &self.inner {
            inner.recovered_facts.add(n);
        }
    }

    /// `n` cold labels evicted to the on-disk spill segment.
    pub fn record_spilled_labels(&self, n: u64) {
        if let Some(inner) = &self.inner {
            inner.spilled_labels.add(n);
        }
    }

    /// `n` spilled labels recalled (re-promoted) on touch.
    pub fn record_spill_recalls(&self, n: u64) {
        if let Some(inner) = &self.inner {
            inner.spill_recalls.add(n);
        }
    }

    // ---- HTTP -----------------------------------------------------------

    /// One HTTP request, by method, route class (`/jobs/{id}`, not
    /// `/jobs/17`) and response status — including the refused ones (400,
    /// 413, 503), which is the point: error floods must be visible.
    pub fn count_http_request(&self, method: &str, route: &str, status: u16) {
        if let Some(inner) = &self.inner {
            inner.http_requests.add(
                vec![method.to_string(), route.to_string(), status.to_string()],
                1,
            );
        }
    }

    /// Shifts the live-connection gauge (+1 on accept, −1 on close) —
    /// the connection engine's load signal.
    pub fn http_connection_delta(&self, delta: i64) {
        if let Some(inner) = &self.inner {
            inner.http_active_connections.add(delta);
        }
    }

    /// Connections currently open against the HTTP front-end.
    pub fn http_active_connections(&self) -> i64 {
        self.inner
            .as_ref()
            .map(|i| i.http_active_connections.get())
            .unwrap_or(0)
    }

    /// One more request served on an already-open keep-alive connection —
    /// the handshake the engine just saved.
    pub fn record_keepalive_reuse(&self) {
        if let Some(inner) = &self.inner {
            inner.keepalive_reuses.inc();
        }
    }

    /// Keep-alive reuses so far (0 when disabled).
    pub fn keepalive_reuses(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.keepalive_reuses.get())
            .unwrap_or(0)
    }

    /// One trace event left out of a watch stream because it would not
    /// serialize.
    pub fn record_watch_line_dropped(&self) {
        if let Some(inner) = &self.inner {
            inner.watch_lines_dropped.inc();
        }
    }

    // ---- tracing --------------------------------------------------------

    /// Appends one trace event. The `detail` closure is evaluated only
    /// when the plane is enabled.
    pub fn trace(&self, job: Option<u64>, phase: &str, detail: impl FnOnce() -> String) {
        if let Some(inner) = &self.inner {
            let rel_ms = inner.started.elapsed().as_millis() as u64;
            crate::service::lock(&inner.trace).push(rel_ms, job, phase, detail());
        }
    }

    /// One job's surviving trace events, oldest first (empty when the
    /// plane is disabled or the ring has wrapped past the job).
    pub fn timeline(&self, job: u64) -> Vec<TraceEvent> {
        self.inner
            .as_ref()
            .map(|i| crate::service::lock(&i.trace).timeline(job))
            .unwrap_or_default()
    }

    /// Surviving events with `seq >= since`, oldest first, plus the `next`
    /// cursor to resume from. When the ring wrapped past `since`, the
    /// drain restarts at the oldest surviving event — the gap is visible
    /// as a jump in `seq`.
    pub fn events_since(&self, since: u64) -> (Vec<TraceEvent>, u64) {
        self.inner
            .as_ref()
            .map(|i| crate::service::lock(&i.trace).since(since))
            .unwrap_or((Vec::new(), 0))
    }

    // ---- rendering ------------------------------------------------------

    /// The whole registry in Prometheus text exposition format — what
    /// `GET /metrics` serves. Deterministically ordered (label families
    /// sort their entries), so scrapes diff cleanly.
    pub fn render_prometheus(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::from("# telemetry disabled\n");
        };
        let mut out = String::new();
        render_counter(
            &mut out,
            "audit_jobs_submitted_total",
            "Jobs accepted since start.",
            &inner.jobs_submitted,
        );
        inner.jobs_finished.render(
            "audit_jobs_finished_total",
            "Terminal jobs by status.",
            &mut out,
        );
        render_gauge(
            &mut out,
            "audit_jobs_queued",
            "Jobs waiting for a worker right now.",
            &inner.jobs_queued,
        );
        render_gauge(
            &mut out,
            "audit_jobs_running",
            "Jobs executing right now.",
            &inner.jobs_running,
        );
        render_counter(
            &mut out,
            "audit_crowd_tasks_total",
            "Crowd tasks charged past the knowledge store.",
            &inner.crowd_tasks,
        );
        inner.tenant_crowd_tasks.render(
            "audit_tenant_crowd_tasks_total",
            "Crowd tasks charged, by tenant (job-name prefix).",
            &mut out,
        );
        render_counter(
            &mut out,
            "audit_dispatch_rounds_total",
            "Dispatch rounds (each pays one platform round trip).",
            &inner.dispatch_rounds,
        );
        inner.http_requests.render(
            "audit_http_requests_total",
            "HTTP requests by method, route class and status.",
            &mut out,
        );
        render_gauge(
            &mut out,
            "audit_http_active_connections",
            "Connections currently open against the HTTP front-end.",
            &inner.http_active_connections,
        );
        render_counter(
            &mut out,
            "audit_http_keepalive_reuses_total",
            "Requests served on an already-open keep-alive connection.",
            &inner.keepalive_reuses,
        );
        render_counter(
            &mut out,
            "audit_watch_lines_dropped_total",
            "Trace events left out of a watch stream because they would not serialize.",
            &inner.watch_lines_dropped,
        );
        inner.fleet_deltas.render(
            "audit_fleet_deltas_total",
            "Anti-entropy knowledge deltas absorbed, by sending peer.",
            &mut out,
        );
        render_counter(
            &mut out,
            "audit_fleet_forwarded_total",
            "Jobs placed away from their ring owner because the owner was down.",
            &inner.fleet_forwarded,
        );
        inner.retries.render(
            "audit_retries_total",
            "Question redeliveries after transient platform failures, by tenant.",
            &mut out,
        );
        inner.faults_injected.render(
            "audit_faults_injected_total",
            "Faults observed on the dispatch path, by kind.",
            &mut out,
        );
        inner.persist_errors.render(
            "audit_persist_errors_total",
            "Persistence I/O errors absorbed on the hot path, by operation.",
            &mut out,
        );
        inner.breaker_state.render_as(
            "audit_breaker_state",
            "Per-tenant circuit-breaker state (0 closed, 1 half-open, 2 open).",
            "gauge",
            &mut out,
        );
        render_counter(
            &mut out,
            "audit_wal_records_total",
            "Fact records appended to the write-ahead log.",
            &inner.wal_records,
        );
        render_counter(
            &mut out,
            "audit_snapshot_writes_total",
            "Compacted knowledge snapshots written.",
            &inner.snapshot_writes,
        );
        render_counter(
            &mut out,
            "audit_recovered_facts_total",
            "Facts recovered at startup or imported over HTTP.",
            &inner.recovered_facts,
        );
        render_counter(
            &mut out,
            "audit_spilled_labels_total",
            "Cold labels evicted to the on-disk spill segment.",
            &inner.spilled_labels,
        );
        render_counter(
            &mut out,
            "audit_spill_recalls_total",
            "Spilled labels re-promoted on touch.",
            &inner.spill_recalls,
        );
        inner.queue_wait_ms.render(
            "audit_queue_wait_ms",
            "Submission-to-first-schedule wait per job, ms.",
            &mut out,
        );
        inner.tenant_queue_wait_ms.render(
            "audit_tenant_queue_wait_ms",
            "Submission-to-first-schedule wait per job, by tenant, ms.",
            &mut out,
        );
        inner.submit_to_first_result_ms.render(
            "audit_submit_to_first_result_ms",
            "Submission-to-terminal-report latency per job, ms.",
            &mut out,
        );
        inner.hit_round_trip_ms.render(
            "audit_hit_round_trip_ms",
            "Dispatch-round round-trip time, ms.",
            &mut out,
        );
        inner.dispatch_round_questions.render(
            "audit_dispatch_round_questions",
            "Questions drained per dispatch round.",
            &mut out,
        );
        inner.point_batch_size.render(
            "audit_point_batch_size",
            "Images per coalesced point-label HIT.",
            &mut out,
        );
        inner.snapshot_cut_ms.render(
            "audit_snapshot_cut_ms",
            "Wall time per snapshot cut, rotation to old-generation delete, ms.",
            &mut out,
        );
        inner.snapshot_cut_facts.render(
            "audit_snapshot_cut_facts",
            "Facts written per snapshot cut.",
            &mut out,
        );
        out
    }

    /// A compact human-readable snapshot (the `daemon_audit` example's
    /// closing print): headline counters, gauges and latency percentiles.
    pub fn human_summary(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::from("telemetry disabled");
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "jobs: {} submitted | {} queued | {} running",
            inner.jobs_submitted.get(),
            inner.jobs_queued.get(),
            inner.jobs_running.get()
        );
        let finished: Vec<String> = inner
            .jobs_finished
            .sorted_entries()
            .into_iter()
            .map(|(labels, count)| format!("{} {}", count, labels.join("/")))
            .collect();
        if !finished.is_empty() {
            let _ = writeln!(out, "finished: {}", finished.join(" | "));
        }
        let _ = writeln!(
            out,
            "crowd: {} tasks total | {} dispatch rounds",
            inner.crowd_tasks.get(),
            inner.dispatch_rounds.get()
        );
        for (labels, count) in inner.tenant_crowd_tasks.sorted_entries() {
            let _ = writeln!(out, "  tenant {:<12} {} tasks", labels.join("/"), count);
        }
        let _ = writeln!(
            out,
            "submit-to-first-result: p50 ≤ {} ms | p99 ≤ {} ms (of {})",
            inner.submit_to_first_result_ms.percentile(50.0),
            inner.submit_to_first_result_ms.percentile(99.0),
            inner.submit_to_first_result_ms.count()
        );
        let _ = writeln!(
            out,
            "queue wait: p50 ≤ {} ms | p99 ≤ {} ms",
            inner.queue_wait_ms.percentile(50.0),
            inner.queue_wait_ms.percentile(99.0)
        );
        let _ = write!(
            out,
            "trace: {} events recorded",
            crate::service::lock(&inner.trace).next_seq
        );
        out
    }
}

fn render_counter(out: &mut String, name: &str, help: &str, counter: &Counter) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name} {}", counter.get());
}

fn render_gauge(out: &mut String, name: &str, help: &str, gauge: &Gauge) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    let _ = writeln!(out, "{name} {}", gauge.get());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_boundaries_are_powers_of_two() {
        let h = Histogram::new();
        // 0 and 1 share the first bucket; each 2^i lands at le=2^i; 2^i + 1
        // spills into the next bucket.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(5), 3);
        assert_eq!(Histogram::bucket_index(1 << 20), 20);
        assert_eq!(Histogram::bucket_index((1 << 20) + 1), HISTOGRAM_BUCKETS);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS);
        h.record(1);
        h.record(2);
        h.record(1_000_000_000); // overflow bucket
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 1_000_000_000);
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets[0], (Some(1), 1));
        assert_eq!(buckets[1], (Some(2), 2));
        assert_eq!(buckets.last().unwrap(), &(None, 3));
    }

    #[test]
    fn percentile_is_bucket_upper_bound() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50.0), 0, "empty histogram");
        for ms in [1, 2, 3, 10, 100] {
            h.record_ms(ms);
        }
        // Ranks: p50 → 3rd of 5 = value 3 → bucket le=4.
        assert_eq!(h.percentile(50.0), 4);
        // p99 → 5th of 5 = value 100 → bucket le=128.
        assert_eq!(h.percentile(99.0), 128);
        // Everything beyond the finite range answers with the exact max.
        h.record_ms(5_000_000);
        assert_eq!(h.percentile(100.0), 5_000_000);
    }

    /// Regression pin (ISSUE 7 satellite): a histogram with zero recorded
    /// samples answers **0** for every percentile — it must not fall
    /// through to the `+Inf` overflow branch or report a bucket bound.
    #[test]
    fn empty_histogram_percentile_is_zero_at_every_p() {
        let h = Histogram::new();
        for p in [0.001, 1.0, 50.0, 90.0, 99.0, 99.999, 100.0] {
            assert_eq!(h.percentile(p), 0, "p={p} on an empty histogram");
        }
        // The same holds through the public Telemetry accessors.
        let telemetry = Telemetry::new(4);
        assert_eq!(telemetry.submit_to_first_result_percentile_ms(50.0), 0);
        assert_eq!(telemetry.queue_wait_percentile_ms(99.0), 0);
        // One observation flips it to a real bucket bound.
        h.record_ms(3);
        assert_eq!(h.percentile(50.0), 4);
    }

    #[test]
    fn persistence_counters_render() {
        let telemetry = Telemetry::new(4);
        telemetry.record_wal_records(7);
        telemetry.record_snapshot_cut(300, 918);
        telemetry.record_recovered_facts(42);
        telemetry.record_spilled_labels(5);
        telemetry.record_spill_recalls(2);
        let text = telemetry.render_prometheus();
        assert!(text.contains("audit_wal_records_total 7"), "{text}");
        assert!(text.contains("audit_snapshot_writes_total 1"), "{text}");
        assert!(text.contains("audit_snapshot_cut_ms_sum 300"), "{text}");
        assert!(
            text.contains("audit_snapshot_cut_ms_bucket{le=\"512\"} 1"),
            "{text}"
        );
        assert!(text.contains("audit_snapshot_cut_facts_sum 918"), "{text}");
        assert!(text.contains("audit_snapshot_cut_facts_count 1"), "{text}");
        assert!(text.contains("audit_recovered_facts_total 42"), "{text}");
        assert!(text.contains("audit_spilled_labels_total 5"), "{text}");
        assert!(text.contains("audit_spill_recalls_total 2"), "{text}");
        // The disabled plane swallows them silently.
        let disabled = Telemetry::disabled();
        disabled.record_wal_records(1);
        disabled.record_snapshot_cut(1, 1);
        disabled.record_recovered_facts(1);
        disabled.record_spilled_labels(1);
        disabled.record_spill_recalls(1);
        assert_eq!(disabled.render_prometheus(), "# telemetry disabled\n");
    }

    #[test]
    fn ring_wraparound_keeps_seq_monotone() {
        let telemetry = Telemetry::new(4);
        for i in 0..10u64 {
            telemetry.trace(Some(i % 2), "phase", || format!("event {i}"));
        }
        let (events, next) = telemetry.events_since(0);
        assert_eq!(next, 10);
        // Only the last 4 survive, in seq order, numbering intact.
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(events[0].detail, "event 6");
        // Per-job timelines filter the survivors.
        let timeline = telemetry.timeline(0);
        let t_seqs: Vec<u64> = timeline.iter().map(|e| e.seq).collect();
        assert_eq!(t_seqs, vec![6, 8]);
        assert!(telemetry.timeline(7).is_empty());
    }

    #[test]
    fn events_since_resumes_across_wrap() {
        let telemetry = Telemetry::new(4);
        telemetry.trace(None, "a", || "0".into());
        telemetry.trace(None, "a", || "1".into());
        let (first, next) = telemetry.events_since(0);
        assert_eq!(first.len(), 2);
        assert_eq!(next, 2);
        // Six more events wrap the ring well past the cursor.
        for i in 2..8u64 {
            telemetry.trace(None, "a", || format!("{i}"));
        }
        let (resumed, next) = telemetry.events_since(next);
        // Events 2 and 3 were overwritten; the drain restarts at the
        // oldest survivor (4) and the gap is visible in the numbering.
        let seqs: Vec<u64> = resumed.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![4, 5, 6, 7]);
        assert_eq!(next, 8);
        // A fully caught-up consumer drains nothing.
        let (empty, next2) = telemetry.events_since(next);
        assert!(empty.is_empty());
        assert_eq!(next2, 8);
    }

    #[test]
    fn disabled_plane_is_inert() {
        let telemetry = Telemetry::disabled();
        assert!(!telemetry.is_enabled());
        telemetry.job_submitted();
        telemetry.record_queue_wait_ms(5);
        telemetry.count_http_request("GET", "/stats", 200);
        telemetry.trace(Some(0), "x", || panic!("detail must not be evaluated"));
        assert_eq!(telemetry.events_since(0), (Vec::new(), 0));
        assert!(telemetry.timeline(0).is_empty());
        assert_eq!(telemetry.submit_to_first_result_percentile_ms(99.0), 0);
        assert_eq!(telemetry.render_prometheus(), "# telemetry disabled\n");
        assert_eq!(telemetry.human_summary(), "telemetry disabled");
    }

    #[test]
    fn prometheus_rendering_has_all_families() {
        let telemetry = Telemetry::new(16);
        telemetry.job_submitted();
        telemetry.job_queued_delta(1);
        telemetry.job_queued_delta(-1);
        telemetry.job_running_delta(1);
        telemetry.record_queue_wait_ms(2);
        telemetry.record_submit_to_first_result_ms(9);
        telemetry.job_finished(&JobStatus::Done, "press", 40);
        telemetry.job_finished(&JobStatus::Cancelled, "ngo", 3);
        telemetry.record_dispatch_round(12, 4);
        telemetry.record_point_batch(50);
        telemetry.count_http_request("POST", "/jobs", 201);
        telemetry.count_http_request("POST", "/jobs", 201);
        telemetry.count_http_request("GET", "/jobs/{id}", 404);
        let text = telemetry.render_prometheus();
        assert!(text.contains("audit_jobs_submitted_total 1"), "{text}");
        assert!(
            text.contains(r#"audit_jobs_finished_total{status="cancelled"} 1"#),
            "{text}"
        );
        assert!(
            text.contains(r#"audit_jobs_finished_total{status="done"} 1"#),
            "{text}"
        );
        assert!(text.contains("audit_jobs_queued 0"), "{text}");
        assert!(text.contains("audit_jobs_running 1"), "{text}");
        assert!(text.contains("audit_crowd_tasks_total 43"), "{text}");
        assert!(
            text.contains(r#"audit_tenant_crowd_tasks_total{tenant="press"} 40"#),
            "{text}"
        );
        assert!(
            text.contains(
                r#"audit_http_requests_total{method="POST",route="/jobs",status="201"} 2"#
            ),
            "{text}"
        );
        assert!(
            text.contains(
                r#"audit_http_requests_total{method="GET",route="/jobs/{id}",status="404"} 1"#
            ),
            "{text}"
        );
        assert!(
            text.contains(r#"audit_queue_wait_ms_bucket{le="2"} 1"#),
            "{text}"
        );
        assert!(
            text.contains("audit_submit_to_first_result_ms_count 1"),
            "{text}"
        );
        assert!(
            text.contains(r#"audit_hit_round_trip_ms_bucket{le="+Inf"} 1"#),
            "{text}"
        );
        assert!(text.contains("audit_dispatch_rounds_total 1"), "{text}");
        assert!(text.contains("audit_point_batch_size_sum 50"), "{text}");
        // The human snapshot carries the same headline numbers.
        let human = telemetry.human_summary();
        assert!(human.contains("1 submitted"), "{human}");
        assert!(human.contains("43 tasks total"), "{human}");
    }

    /// ISSUE 8: the connection-engine instruments — active-connection
    /// gauge, keep-alive reuse counter, per-tenant queue-wait histograms —
    /// record, read back, and render deterministically.
    #[test]
    fn connection_engine_instruments_record_and_render() {
        let telemetry = Telemetry::new(8);
        telemetry.http_connection_delta(1);
        telemetry.http_connection_delta(1);
        telemetry.http_connection_delta(-1);
        assert_eq!(telemetry.http_active_connections(), 1);
        telemetry.record_keepalive_reuse();
        telemetry.record_keepalive_reuse();
        assert_eq!(telemetry.keepalive_reuses(), 2);
        telemetry.record_tenant_queue_wait_ms("press", 3);
        telemetry.record_tenant_queue_wait_ms("press", 100);
        telemetry.record_tenant_queue_wait_ms("ngo", 1);
        assert_eq!(
            telemetry.tenant_queue_wait_percentile_ms("press", 99.0),
            128
        );
        assert_eq!(telemetry.tenant_queue_wait_percentile_ms("ngo", 50.0), 1);
        assert_eq!(telemetry.tenant_queue_wait_percentile_ms("ghost", 50.0), 0);
        let text = telemetry.render_prometheus();
        assert!(text.contains("audit_http_active_connections 1"), "{text}");
        assert!(
            text.contains("audit_http_keepalive_reuses_total 2"),
            "{text}"
        );
        assert!(
            text.contains(r#"audit_tenant_queue_wait_ms_bucket{tenant="ngo",le="1"} 1"#),
            "{text}"
        );
        assert!(
            text.contains(r#"audit_tenant_queue_wait_ms_count{tenant="press"} 2"#),
            "{text}"
        );
        // Sorted label order: ngo renders before press.
        let ngo = text.find(r#"tenant="ngo""#).unwrap();
        let press = text.find(r#"tenant="press""#).unwrap();
        assert!(ngo < press);
        // Disabled plane swallows everything.
        let disabled = Telemetry::disabled();
        disabled.http_connection_delta(1);
        disabled.record_keepalive_reuse();
        disabled.record_tenant_queue_wait_ms("press", 1);
        assert_eq!(disabled.http_active_connections(), 0);
        assert_eq!(disabled.keepalive_reuses(), 0);
        assert_eq!(disabled.tenant_queue_wait_percentile_ms("press", 99.0), 0);
    }

    #[test]
    fn trace_event_round_trips_through_json() {
        let event = TraceEvent {
            seq: 7,
            rel_ms: 123,
            job: Some(2),
            phase: "scan_group".into(),
            detail: "super-group 1/3".into(),
        };
        let json = serde_json::to_string(&event).unwrap();
        let back: TraceEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, event);
        // Platform-wide events have no job.
        let global = TraceEvent {
            job: None,
            ..event.clone()
        };
        let json = serde_json::to_string(&global).unwrap();
        assert!(json.contains("null"), "{json}");
        let back: TraceEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back.job, None);
    }

    #[test]
    fn tenant_and_status_labels() {
        assert_eq!(tenant_of("press/full-sweep"), "press");
        assert_eq!(tenant_of("probe"), "probe");
        assert_eq!(status_label(&JobStatus::Done), "done");
        assert_eq!(
            status_label(&JobStatus::Exhausted {
                scope: crate::governor::BudgetScope::Job,
                spent: 1,
                cap: 1
            }),
            "exhausted"
        );
    }
}
