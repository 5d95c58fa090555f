//! The batched question dispatcher: one thread owns the platform.
//!
//! Concurrent jobs never touch the answer source directly. Each job holds a
//! `DispatchHandle` (an ordinary [`AnswerSource`]) that ships questions
//! over a channel to the dispatcher thread, which owns the real
//! [`BatchAnswerSource`]. Only two question shapes reach it: rounds of set
//! queries and rounds of point-label queries. Per round the dispatcher
//! drains everything pending, serves each set query as its own HIT in
//! arrival order, coalesces the point queries into `point_batch`-image
//! HITs (the paper's HIT layout), and replies. Point questions from
//! *different* jobs thus share HITs, and — when a simulated platform
//! round-trip latency is configured — every question drained together
//! shares the waiting time: the concurrency win the `concurrent_audits`
//! example reports as its serial-vs-concurrent speedup.
//!
//! ## How a round is assembled
//!
//! A job ships each of its rounds as **one** request: a set round
//! ([`AnswerSource::try_answer_sets`], one level of Group-Coverage's tree)
//! or a point round ([`AnswerSource::try_answer_point_labels_many`]). A
//! single question is the one-set or one-object round, so there is no
//! second path. Each set of a set round is still its own HIT under its own
//! retry loop; when one fails, that job receives the answers of its
//! earlier sets plus the error, its later sets are not served, and every
//! other job's sets are untouched. When the dispatcher drains its channel,
//! every job's point objects join one queue in request order, which is
//! cut into `point_batch`-object HITs — a HIT may carry several jobs'
//! objects and a job's round may span several HITs. Each job gets one
//! reply assembled from its slices. A HIT is all-or-nothing, so when one
//! fails, each job riding in it keeps the labels of its earlier HITs plus
//! the error, and its later objects are dropped from the HITs still to
//! come: the job receives exactly its answered prefix. A round's question
//! count counts sets and objects, not requests.
//!
//! In the full service stack the set queries arriving here are the
//! **residuals** left after the shared knowledge store decided or narrowed
//! each query — the dispatcher publishes exactly the crowd work that no
//! accumulated fact could avoid.
//!
//! The dispatcher is also where the service absorbs a flaky platform.
//! Every platform call runs under a [`RetryPolicy`]: a typed
//! [`AskError::Transient`] failure (or an answer that lands past the
//! per-HIT deadline) is retried with seeded exponential backoff and
//! deterministic jitter, up to `max_attempts` deliveries; permanent
//! errors surface immediately. Because the retry loop sits *below* the
//! budget governor, a retried question is never charged twice. Questions
//! whose retries exhaust become dead letters — typed `Transient` answers
//! that fail only the asking job — and count against the tenant's
//! [circuit breaker](crate::breaker): enough consecutive exhausted
//! questions open the circuit, after which that tenant's questions fail
//! fast until the cooldown's half-open probe succeeds.

use crate::breaker::{BreakerRegistry, BREAKER_COOLDOWN};
use coverage_core::engine::{AnswerSource, BatchAnswerSource, ObjectId};
use coverage_core::error::AskError;
use coverage_core::fingerprint::fnv1a;
use coverage_core::schema::Labels;
use coverage_core::target::Target;
use serde::{Deserialize, Serialize};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the dispatcher retries transient platform failures.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total delivery attempts per platform call (1 = no retries).
    pub max_attempts: u32,
    /// Backoff base: attempt `n` waits roughly `base · 2^(n-1)` plus
    /// deterministic jitter before redelivery.
    pub base: Duration,
    /// Per-HIT deadline: an answer that arrives later than this is
    /// discarded as late and the call is retried (the consistent platform
    /// redelivers the same answer, so correctness cannot drift).
    pub hit_deadline: Duration,
    /// Seed of the jitter stream, so backoff schedules are reproducible.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base: Duration::from_millis(10),
            hit_deadline: Duration::from_secs(30),
            jitter_seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

/// The deterministic backoff schedule: attempt `n` (1-based) sleeps
/// `base · 2^(n-1)` plus a jitter drawn by hashing
/// `(policy.jitter_seed, salt, n)` — a pure function, so two runs with
/// the same seeds back off identically. The exponential part is capped at
/// ten doublings; jitter spans up to half of `base`.
pub fn backoff_delay(policy: &RetryPolicy, attempt: u32, salt: u64) -> Duration {
    let base_ms = policy.base.as_millis() as u64;
    let exp = base_ms.saturating_mul(1 << attempt.saturating_sub(1).min(10));
    let jitter_span = base_ms / 2 + 1;
    let h = fnv1a(
        policy
            .jitter_seed
            .to_le_bytes()
            .into_iter()
            .chain(salt.to_le_bytes())
            .chain(attempt.to_le_bytes()),
    );
    Duration::from_millis(exp + h % jitter_span)
}

/// Maps a transient failure's reason to the stable `kind` label of the
/// `audit_faults_injected_total` counter.
fn fault_kind_label(reason: &str) -> &'static str {
    for kind in [
        "hit timeout",
        "platform error",
        "worker abandoned",
        "late delivery",
        "hit deadline",
        "circuit breaker",
    ] {
        if reason.starts_with(kind) {
            return match kind {
                "hit timeout" => "hit_timeout",
                "platform error" => "platform_error",
                "worker abandoned" => "worker_abandoned",
                "late delivery" => "late_delivery",
                "hit deadline" => "hit_deadline",
                _ => "circuit_open",
            };
        }
    }
    "other"
}

/// Dispatcher tuning.
#[derive(Debug, Clone)]
pub struct DispatcherConfig {
    /// Images per coalesced point-query HIT.
    pub point_batch: usize,
    /// Simulated platform round-trip per dispatch round (publish HITs, wait
    /// for the crowd, collect). Zero disables the simulation.
    pub round_latency: Duration,
    /// The telemetry plane the loop reports into: per-round question
    /// counts, HIT round-trip latency, coalesced batch sizes. The default
    /// [`Telemetry::disabled`](crate::telemetry::Telemetry::disabled) plane
    /// records nothing — telemetry observes the dispatcher, it never
    /// steers it.
    pub telemetry: crate::telemetry::Telemetry,
    /// Retry/backoff/deadline policy for transient platform failures.
    pub retry: RetryPolicy,
    /// The per-tenant circuit breakers consulted on intake and fed with
    /// question outcomes. Share this registry with the daemon to surface
    /// breaker states on `/readyz`.
    pub breakers: BreakerRegistry,
}

impl Default for DispatcherConfig {
    fn default() -> Self {
        Self {
            point_batch: coverage_core::engine::DEFAULT_POINT_BATCH,
            round_latency: Duration::ZERO,
            telemetry: crate::telemetry::Telemetry::disabled(),
            retry: RetryPolicy::default(),
            breakers: BreakerRegistry::new(8, BREAKER_COOLDOWN),
        }
    }
}

/// What the dispatcher did during one service run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DispatchStats {
    /// Dispatch rounds (each pays one simulated platform round trip).
    pub rounds: u64,
    /// Coalesced point-label HITs published.
    pub point_hits: u64,
    /// Individual point labels served through those HITs.
    pub points_served: u64,
    /// Set-query HITs served.
    pub set_queries_served: u64,
    /// Rounds that served more than one set query.
    pub set_batches: u64,
    /// The largest number of questions drained in one round (a point
    /// round counts its objects).
    pub max_round_questions: u64,
    /// Redeliveries after transient failures (each is one extra platform
    /// call that the governed ledger never re-charges).
    pub retries: u64,
    /// Platform calls that exhausted every retry and surfaced a typed
    /// transient failure to the asking job (dead letters).
    pub retry_exhausted: u64,
    /// Answers discarded for arriving past the per-HIT deadline.
    pub deadline_misses: u64,
    /// Questions refused at intake because the tenant's circuit was open.
    pub breaker_rejections: u64,
}

enum Question {
    /// One round of set queries about one target (a single set query is
    /// the one-set case).
    Sets {
        sets: Vec<Vec<ObjectId>>,
        target: Target,
    },
    /// One round of independent point queries (a single point query is the
    /// one-object case).
    Points { objects: Vec<ObjectId> },
}

impl Question {
    /// How many questions this request carries: a round counts its sets
    /// or objects.
    fn count(&self) -> u64 {
        match self {
            Question::Sets { sets, .. } => sets.len() as u64,
            Question::Points { objects } => objects.len() as u64,
        }
    }
}

enum Answer {
    /// The answers of a set round's answered prefix, in request order, and
    /// the error that cut it (`None` when every set was answered).
    Bools {
        answers: Vec<bool>,
        error: Option<AskError>,
    },
    /// The labels of a point round's answered prefix, in request order,
    /// and the error that cut it (`None` when every object was answered).
    Labels {
        labels: Vec<Labels>,
        error: Option<AskError>,
    },
    /// The platform refused or failed this question; the error is relayed
    /// verbatim to the asking job.
    Failed(AskError),
}

/// One job's point round while the dispatcher assembles it: the objects
/// asked, the labels gathered so far from the round's HIT chunks, and the
/// first chunk failure, after which its remaining objects are skipped.
struct PointRound {
    objects: Vec<ObjectId>,
    origin: Origin,
    reply: mpsc::Sender<Answer>,
    labels: Vec<Labels>,
    error: Option<AskError>,
}

/// Who asked a question: the tenant (for circuit breaking and per-tenant
/// retry accounting) and the job (for trace events). Untagged handles —
/// tests, direct users — carry an empty tenant and no job.
#[derive(Debug, Clone)]
pub(crate) struct Origin {
    tenant: Arc<str>,
    job: Option<u64>,
}

impl Origin {
    fn untagged() -> Self {
        Self {
            tenant: Arc::from(""),
            job: None,
        }
    }
}

pub(crate) struct Request {
    question: Question,
    origin: Origin,
    reply: mpsc::Sender<Answer>,
}

/// A job's connection to the dispatcher. Cloning is cheap; every clone
/// multiplexes onto the same dispatcher thread.
#[derive(Debug, Clone)]
pub(crate) struct DispatchHandle {
    tx: mpsc::Sender<Request>,
    origin: Origin,
}

impl DispatchHandle {
    /// A handle whose questions are attributed to `tenant`/`job` — the
    /// dispatcher uses the tags for circuit breaking, per-tenant retry
    /// counters and per-job trace events.
    pub(crate) fn tagged(&self, tenant: &str, job: u64) -> Self {
        Self {
            tx: self.tx.clone(),
            origin: Origin {
                tenant: Arc::from(tenant),
                job: Some(job),
            },
        }
    }

    fn ask(&self, question: Question) -> Result<Answer, AskError> {
        let (reply_tx, reply_rx) = mpsc::channel();
        self.tx
            .send(Request {
                question,
                origin: self.origin.clone(),
                reply: reply_tx,
            })
            // The dispatcher thread hung up: there is nobody left to ask,
            // let alone to retry against. Typed permanent.
            .map_err(|_| AskError::ConnectionLost)?;
        // A dropped reply without an answer means the dispatcher died while
        // serving this question — the same lost connection, observed one
        // step later; the error fails only this job. (A *question* the
        // platform refused arrives as `Answer::Failed`, never through this
        // path, so connection loss and platform failures stay distinct.)
        reply_rx.recv().map_err(|_| AskError::ConnectionLost)
    }
}

impl AnswerSource for DispatchHandle {
    fn try_answer_set(&mut self, objects: &[ObjectId], target: &Target) -> Result<bool, AskError> {
        let mut out = Vec::with_capacity(1);
        self.try_answer_sets(&[objects], target, &mut out)?;
        out.pop().ok_or(AskError::ConnectionLost)
    }

    fn try_answer_point_labels(&mut self, object: ObjectId) -> Result<Labels, AskError> {
        let mut out = Vec::with_capacity(1);
        self.try_answer_point_labels_many(&[object], &mut out)?;
        out.pop().ok_or(AskError::ConnectionLost)
    }

    /// Ships the whole round as one request: the dispatcher serves its
    /// objects inside the round's shared HIT chunks and replies once.
    fn try_answer_point_labels_many(
        &mut self,
        objects: &[ObjectId],
        out: &mut Vec<Labels>,
    ) -> Result<(), AskError> {
        if objects.is_empty() {
            return Ok(());
        }
        match self.ask(Question::Points {
            objects: objects.to_vec(),
        })? {
            Answer::Labels { labels, error } => {
                out.extend(labels);
                error.map_or(Ok(()), Err)
            }
            Answer::Failed(e) => Err(e),
            Answer::Bools { .. } => unreachable!("point query answered with bools"),
        }
    }

    /// Ships the whole set round as one request: the dispatcher serves its
    /// sets in one dispatch round and replies once.
    fn try_answer_sets(
        &mut self,
        sets: &[&[ObjectId]],
        target: &Target,
        out: &mut Vec<bool>,
    ) -> Result<(), AskError> {
        if sets.is_empty() {
            return Ok(());
        }
        match self.ask(Question::Sets {
            sets: sets.iter().map(|objects| objects.to_vec()).collect(),
            target: target.clone(),
        })? {
            Answer::Bools { answers, error } => {
                out.extend(answers);
                error.map_or(Ok(()), Err)
            }
            Answer::Failed(e) => Err(e),
            Answer::Labels { .. } => unreachable!("set query answered with labels"),
        }
    }
}

/// Spawn side: builds the channel pair for a dispatcher.
pub(crate) fn dispatch_channel() -> (DispatchHandle, mpsc::Receiver<Request>) {
    let (tx, rx) = mpsc::channel();
    (
        DispatchHandle {
            tx,
            origin: Origin::untagged(),
        },
        rx,
    )
}

/// Runs one platform call under the retry policy: transient failures (and
/// answers landing past the per-HIT deadline) are redelivered with seeded
/// exponential backoff until `max_attempts` is spent; permanent errors
/// surface immediately. `origins` are the questions riding in this call —
/// their tenants take the retry counters and breaker outcomes, their jobs
/// the trace events. Exhaustion is recorded as a dead letter.
fn serve_with_retry<S, T>(
    source: &mut S,
    cfg: &DispatcherConfig,
    stats: &mut DispatchStats,
    origins: &[&Origin],
    what: &str,
    mut call: impl FnMut(&mut S) -> Result<T, AskError>,
) -> Result<T, AskError> {
    let policy = &cfg.retry;
    let salt = stats.rounds;
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let started = Instant::now();
        let outcome = match call(source) {
            Ok(value) if started.elapsed() <= policy.hit_deadline => Ok(value),
            Ok(_) => {
                // The answer exists but arrived too late to honor: discard
                // it and redeliver. The consistent platform returns the
                // same answer on the retry, so outcomes cannot drift.
                stats.deadline_misses += 1;
                Err(AskError::Transient {
                    reason: format!("hit deadline exceeded serving {what}"),
                    attempt,
                })
            }
            Err(e) => Err(e),
        };
        let error = match outcome {
            Ok(value) => {
                for tenant in distinct_tenants(origins) {
                    cfg.breakers.record_success(tenant);
                    cfg.telemetry.record_breaker_state(tenant, 0);
                }
                return Ok(value);
            }
            Err(error) => error,
        };
        if let AskError::Transient { reason, .. } = &error {
            cfg.telemetry.record_fault(fault_kind_label(reason));
        }
        if !error.is_transient() {
            return Err(error);
        }
        if attempt >= policy.max_attempts {
            stats.retry_exhausted += 1;
            for origin in origins {
                let state = cfg.breakers.record_exhausted(&origin.tenant);
                cfg.telemetry
                    .record_breaker_state(&origin.tenant, state.gauge());
            }
            for job in distinct_jobs(origins) {
                cfg.telemetry.trace(Some(job), "dead_letter", || {
                    format!("{what} exhausted {attempt} delivery attempts: {error}")
                });
            }
            return Err(error);
        }
        stats.retries += 1;
        for origin in origins {
            cfg.telemetry.record_retry(&origin.tenant);
        }
        for job in distinct_jobs(origins) {
            cfg.telemetry.trace(Some(job), "retry", || {
                format!("attempt {attempt} of {what} failed transiently ({error}); backing off")
            });
        }
        std::thread::sleep(backoff_delay(policy, attempt, salt));
    }
}

/// The distinct tenants among `origins`, preserving first-seen order.
fn distinct_tenants<'a>(origins: &[&'a Origin]) -> Vec<&'a str> {
    let mut seen: Vec<&str> = Vec::new();
    for origin in origins {
        if !seen.contains(&&*origin.tenant) {
            seen.push(&origin.tenant);
        }
    }
    seen
}

/// The distinct job ids among `origins`, preserving first-seen order.
fn distinct_jobs(origins: &[&Origin]) -> Vec<u64> {
    let mut seen: Vec<u64> = Vec::new();
    for origin in origins {
        if let Some(job) = origin.job {
            if !seen.contains(&job) {
                seen.push(job);
            }
        }
    }
    seen
}

/// Serves every job's point round of one dispatch round through shared
/// `point_batch`-object HITs. The rounds' objects are laid end to end in
/// request order and cut into chunks, so one HIT can carry several jobs'
/// objects and one job's round can span several HITs. A HIT is
/// all-or-nothing: when one fails, each job riding in it keeps the labels
/// of its earlier chunks and gets the error, and its later objects are
/// dropped from the chunks still to come — that job receives exactly its
/// answered prefix. Each job gets one reply, assembled from its slices.
fn serve_point_rounds<S: BatchAnswerSource>(
    source: &mut S,
    cfg: &DispatcherConfig,
    stats: &mut DispatchStats,
    mut rounds: Vec<PointRound>,
) {
    let queue: Vec<(usize, ObjectId)> = rounds
        .iter()
        .enumerate()
        .flat_map(|(job, round)| round.objects.iter().map(move |o| (job, *o)))
        .collect();
    let mut next = queue.iter();
    loop {
        let chunk: Vec<(usize, ObjectId)> = next
            .by_ref()
            .filter(|(job, _)| rounds[*job].error.is_none())
            .take(cfg.point_batch)
            .copied()
            .collect();
        if chunk.is_empty() {
            break;
        }
        cfg.telemetry.record_point_batch(chunk.len() as u64);
        let objects: Vec<ObjectId> = chunk.iter().map(|(_, o)| *o).collect();
        // One origin per job riding in the chunk: retries and breaker
        // outcomes are counted per question asked, not per object.
        let mut jobs: Vec<usize> = chunk.iter().map(|(job, _)| *job).collect();
        jobs.dedup();
        let origins: Vec<&Origin> = jobs.iter().map(|job| &rounds[*job].origin).collect();
        match serve_with_retry(source, cfg, stats, &origins, "point-label HIT", |s| {
            s.try_answer_point_labels_batch(&objects)
        }) {
            Ok(labels) => {
                stats.point_hits += 1;
                stats.points_served += labels.len() as u64;
                for ((job, _), l) in chunk.iter().zip(labels) {
                    rounds[*job].labels.push(l);
                }
            }
            Err(e) => {
                for job in jobs {
                    rounds[job].error = Some(e.clone());
                }
            }
        }
    }
    for round in rounds {
        let _ = round.reply.send(Answer::Labels {
            labels: round.labels,
            error: round.error,
        });
    }
}

/// Runs the dispatch loop until every [`DispatchHandle`] is dropped.
/// Intended to run on its own thread; returns the accumulated stats.
pub(crate) fn run_dispatcher<S: BatchAnswerSource>(
    source: &mut S,
    rx: mpsc::Receiver<Request>,
    cfg: &DispatcherConfig,
) -> DispatchStats {
    assert!(cfg.point_batch > 0, "point batch must be positive");
    let mut stats = DispatchStats::default();
    while let Ok(first) = rx.recv() {
        let round_start = std::time::Instant::now();
        let mut pending = vec![first];
        while let Ok(more) = rx.try_recv() {
            pending.push(more);
        }
        stats.rounds += 1;
        let round_questions: u64 = pending.iter().map(|r| r.question.count()).sum();
        stats.max_round_questions = stats.max_round_questions.max(round_questions);

        // The crowd answers the whole round's HITs in parallel: one
        // simulated round trip covers everything drained this round.
        if !cfg.round_latency.is_zero() {
            std::thread::sleep(cfg.round_latency);
        }

        // A failing platform (e.g. an out-of-range object id reaching the
        // simulator) must fail only the jobs whose questions it was serving,
        // not the whole run: the fallible source returns `Err`, which is
        // relayed as `Answer::Failed` to exactly those jobs — the job
        // runner turns it into `JobStatus::Failed`.
        let mut point_rounds: Vec<PointRound> = Vec::new();
        let mut set_rounds = Vec::new();
        for request in pending {
            // Intake gate: a tenant whose circuit is open fails fast —
            // its questions never reach the platform until the cooldown's
            // half-open probe closes the circuit again.
            if !cfg.breakers.admit(&request.origin.tenant) {
                stats.breaker_rejections += 1;
                let tenant = request.origin.tenant.clone();
                cfg.telemetry.record_fault("circuit_open");
                if let Some(job) = request.origin.job {
                    cfg.telemetry.trace(Some(job), "dead_letter", || {
                        format!("question refused: circuit breaker open for tenant `{tenant}`")
                    });
                }
                let _ = request.reply.send(Answer::Failed(AskError::Transient {
                    reason: format!("circuit breaker open for tenant `{tenant}`"),
                    attempt: 1,
                }));
                continue;
            }
            match request.question {
                Question::Points { objects } => {
                    point_rounds.push(PointRound {
                        labels: Vec::with_capacity(objects.len()),
                        objects,
                        origin: request.origin,
                        reply: request.reply,
                        error: None,
                    });
                }
                Question::Sets { sets, target } => {
                    set_rounds.push((sets, target, request.origin, request.reply));
                }
            }
        }

        // The round's set queries (post-narrowing residuals) are one HIT
        // each, served in arrival order under their own retry loops. A
        // failure ends only the asking job's set round: that job gets its
        // answered prefix plus the error.
        let served_before = stats.set_queries_served;
        for (sets, target, origin, reply) in set_rounds {
            let mut answers = Vec::with_capacity(sets.len());
            let mut error = None;
            for objects in &sets {
                stats.set_queries_served += 1;
                match serve_with_retry(source, cfg, &mut stats, &[&origin], "set question", |s| {
                    s.try_answer_set(objects, &target)
                }) {
                    Ok(ans) => answers.push(ans),
                    Err(e) => {
                        error = Some(e);
                        break;
                    }
                }
            }
            let _ = reply.send(Answer::Bools { answers, error });
        }
        if stats.set_queries_served - served_before > 1 {
            stats.set_batches += 1;
        }

        serve_point_rounds(source, cfg, &mut stats, point_rounds);

        // Close the round's books after every reply has gone out: the
        // round-trip histogram measures what the asking jobs experienced.
        let round_ms = round_start.elapsed().as_millis() as u64;
        cfg.telemetry
            .record_dispatch_round(round_questions, round_ms);
        cfg.telemetry.trace(None, "dispatch_round", || {
            format!(
                "round {}: {round_questions} question(s) in {round_ms} ms",
                stats.rounds
            )
        });
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverage_core::engine::{GroundTruth, PerfectSource, VecGroundTruth};
    use coverage_core::pattern::Pattern;

    fn truth(n: usize, minority: usize) -> VecGroundTruth {
        VecGroundTruth::new(
            (0..n)
                .map(|i| Labels::single(u8::from(i < minority)))
                .collect(),
        )
    }

    #[test]
    fn dispatcher_answers_match_direct_source() {
        let t = truth(200, 30);
        let target = Target::group(Pattern::parse("1").unwrap());
        let ids = t.all_ids();
        let (handle, rx) = dispatch_channel();
        let stats = std::thread::scope(|scope| {
            let dispatcher = scope.spawn(|| {
                let mut source = PerfectSource::new(&t);
                run_dispatcher(&mut source, rx, &DispatcherConfig::default())
            });
            let mut h = handle; // move the last handle into the scope
            assert!(h.try_answer_set(&ids[..100], &target).unwrap());
            assert!(!h.try_answer_set(&ids[100..], &target).unwrap());
            assert_eq!(
                h.try_answer_point_labels(ObjectId(0)).unwrap(),
                Labels::single(1)
            );
            assert!(h.try_answer_membership(ObjectId(29), &target).unwrap());
            assert!(!h.try_answer_membership(ObjectId(30), &target).unwrap());
            drop(h);
            dispatcher.join().expect("dispatcher exits cleanly")
        });
        assert_eq!(stats.set_queries_served, 2);
        assert_eq!(stats.points_served, 3);
        assert!(stats.rounds >= 1);
    }

    #[test]
    fn concurrent_points_coalesce_into_batches() {
        let t = truth(1000, 100);
        let (handle, rx) = dispatch_channel();
        let cfg = DispatcherConfig {
            point_batch: 50,
            round_latency: Duration::from_millis(2),
            ..DispatcherConfig::default()
        };
        let stats = std::thread::scope(|scope| {
            let dispatcher = scope.spawn(|| {
                let mut source = PerfectSource::new(&t);
                run_dispatcher(&mut source, rx, &cfg)
            });
            let workers: Vec<_> = (0..8)
                .map(|j| {
                    let mut h = handle.clone();
                    scope.spawn(move || {
                        for i in 0..40u32 {
                            h.try_answer_point_labels(ObjectId(j * 40 + i)).unwrap();
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join().expect("worker");
            }
            drop(handle);
            dispatcher.join().expect("dispatcher")
        });
        assert_eq!(stats.points_served, 320);
        // With 8 jobs waiting out each 2 ms round together, far fewer rounds
        // (and HITs) than the 320 a one-question-per-round loop would pay.
        assert!(
            stats.rounds < 200,
            "batching ineffective: {} rounds for 320 points",
            stats.rounds
        );
        assert!(stats.max_round_questions > 1, "no round ever coalesced");
    }

    /// A source that fails the first `faults` calls transiently, then
    /// answers from truth. `permanent` switches the failure to a
    /// non-retryable `SourceFailed`.
    struct Flaky<'a> {
        inner: PerfectSource<'a, VecGroundTruth>,
        faults: u32,
        calls: u32,
        permanent: bool,
    }

    impl Flaky<'_> {
        fn fail(&mut self) -> Option<AskError> {
            self.calls += 1;
            if self.calls <= self.faults {
                Some(if self.permanent {
                    AskError::SourceFailed("bad question".into())
                } else {
                    AskError::Transient {
                        reason: "platform error".into(),
                        attempt: self.calls,
                    }
                })
            } else {
                None
            }
        }
    }

    impl AnswerSource for Flaky<'_> {
        fn try_answer_set(
            &mut self,
            objects: &[ObjectId],
            target: &Target,
        ) -> Result<bool, AskError> {
            match self.fail() {
                Some(e) => Err(e),
                None => self.inner.try_answer_set(objects, target),
            }
        }

        fn try_answer_point_labels(&mut self, object: ObjectId) -> Result<Labels, AskError> {
            match self.fail() {
                Some(e) => Err(e),
                None => self.inner.try_answer_point_labels(object),
            }
        }
    }

    impl BatchAnswerSource for Flaky<'_> {}

    fn fast_retry(max_attempts: u32) -> DispatcherConfig {
        DispatcherConfig {
            retry: RetryPolicy {
                max_attempts,
                base: Duration::from_millis(1),
                ..RetryPolicy::default()
            },
            ..DispatcherConfig::default()
        }
    }

    #[test]
    fn transient_failures_are_retried_to_success() {
        let t = truth(50, 10);
        let target = Target::group(Pattern::parse("1").unwrap());
        let ids = t.all_ids();
        let (handle, rx) = dispatch_channel();
        let cfg = fast_retry(4);
        let stats = std::thread::scope(|scope| {
            let dispatcher = scope.spawn(|| {
                let mut source = Flaky {
                    inner: PerfectSource::new(&t),
                    faults: 3,
                    calls: 0,
                    permanent: false,
                };
                run_dispatcher(&mut source, rx, &cfg)
            });
            let mut h = handle;
            assert!(
                h.try_answer_set(&ids, &target).unwrap(),
                "the answer survives three transient faults"
            );
            drop(h);
            dispatcher.join().expect("dispatcher")
        });
        assert_eq!(stats.retries, 3, "exactly the three faulted deliveries");
        assert_eq!(stats.retry_exhausted, 0);
    }

    #[test]
    fn exhausted_retries_surface_as_typed_transient() {
        let t = truth(50, 10);
        let target = Target::group(Pattern::parse("1").unwrap());
        let ids = t.all_ids();
        let (handle, rx) = dispatch_channel();
        let cfg = fast_retry(2);
        let stats = std::thread::scope(|scope| {
            let dispatcher = scope.spawn(|| {
                let mut source = Flaky {
                    inner: PerfectSource::new(&t),
                    faults: u32::MAX,
                    calls: 0,
                    permanent: false,
                };
                run_dispatcher(&mut source, rx, &cfg)
            });
            let mut h = handle;
            let err = h.try_answer_set(&ids, &target).unwrap_err();
            assert!(err.is_transient(), "dead letters carry the typed error");
            drop(h);
            dispatcher.join().expect("dispatcher")
        });
        assert_eq!(stats.retries, 1, "two attempts = one redelivery");
        assert_eq!(stats.retry_exhausted, 1);
    }

    #[test]
    fn permanent_failures_are_never_retried() {
        let t = truth(50, 10);
        let target = Target::group(Pattern::parse("1").unwrap());
        let ids = t.all_ids();
        let (handle, rx) = dispatch_channel();
        let cfg = fast_retry(5);
        std::thread::scope(|scope| {
            let dispatcher = scope.spawn(|| {
                let mut source = Flaky {
                    inner: PerfectSource::new(&t),
                    faults: u32::MAX,
                    calls: 0,
                    permanent: true,
                };
                let stats = run_dispatcher(&mut source, rx, &cfg);
                (stats, source.calls)
            });
            let mut h = handle;
            let err = h.try_answer_set(&ids, &target).unwrap_err();
            assert!(matches!(err, AskError::SourceFailed(_)));
            drop(h);
            let (stats, calls) = dispatcher.join().expect("dispatcher");
            assert_eq!(calls, 1, "a permanent failure gets exactly one delivery");
            assert_eq!(stats.retries, 0);
        });
    }

    #[test]
    fn dispatcher_gone_is_typed_connection_lost_and_permanent() {
        let (handle, rx) = dispatch_channel();
        drop(rx);
        let mut h = handle;
        let err = h.try_answer_point_labels(ObjectId(0)).unwrap_err();
        assert_eq!(err, AskError::ConnectionLost);
        assert!(
            !err.is_transient(),
            "a lost dispatcher must never be retried"
        );
    }

    #[test]
    fn open_breaker_fails_fast_at_intake() {
        let t = truth(50, 10);
        let target = Target::group(Pattern::parse("1").unwrap());
        let ids = t.all_ids();
        let (handle, rx) = dispatch_channel();
        let cfg = DispatcherConfig {
            retry: RetryPolicy {
                max_attempts: 1,
                base: Duration::from_millis(1),
                ..RetryPolicy::default()
            },
            breakers: BreakerRegistry::new(2, Duration::from_secs(60)),
            ..DispatcherConfig::default()
        };
        let stats = std::thread::scope(|scope| {
            let dispatcher = scope.spawn(|| {
                let mut source = Flaky {
                    inner: PerfectSource::new(&t),
                    faults: u32::MAX,
                    calls: 0,
                    permanent: false,
                };
                run_dispatcher(&mut source, rx, &cfg)
            });
            let mut h = handle.tagged("noisy/job", 1);
            drop(handle); // the tagged clone is the only live connection
                          // Two exhausted questions trip the threshold-2 breaker…
            assert!(h.try_answer_set(&ids, &target).is_err());
            assert!(h.try_answer_set(&ids, &target).is_err());
            // …after which questions are refused at intake, fast.
            let err = h.try_answer_set(&ids, &target).unwrap_err();
            match err {
                AskError::Transient { reason, .. } => {
                    assert!(reason.contains("circuit breaker open"), "{reason}");
                    assert!(reason.contains("noisy"), "{reason}");
                }
                other => panic!("expected breaker refusal, got {other}"),
            }
            drop(h);
            dispatcher.join().expect("dispatcher")
        });
        assert_eq!(stats.breaker_rejections, 1);
        assert_eq!(stats.retry_exhausted, 2);
    }

    /// Queues one question straight onto the dispatcher's channel under
    /// `handle`'s tags, so a test controls exactly which requests one
    /// round drains.
    fn queue(handle: &DispatchHandle, question: Question) -> mpsc::Receiver<Answer> {
        let (reply, rx) = mpsc::channel();
        handle
            .tx
            .send(Request {
                question,
                origin: handle.origin.clone(),
                reply,
            })
            .unwrap();
        rx
    }

    fn queue_round(handle: &DispatchHandle, objects: Vec<ObjectId>) -> mpsc::Receiver<Answer> {
        queue(handle, Question::Points { objects })
    }

    fn queue_sets(
        handle: &DispatchHandle,
        sets: &[&[ObjectId]],
        target: &Target,
    ) -> mpsc::Receiver<Answer> {
        queue(
            handle,
            Question::Sets {
                sets: sets.iter().map(|objects| objects.to_vec()).collect(),
                target: target.clone(),
            },
        )
    }

    fn queue_set(
        handle: &DispatchHandle,
        objects: &[ObjectId],
        target: &Target,
    ) -> mpsc::Receiver<Answer> {
        queue_sets(handle, &[objects], target)
    }

    fn bools_of(answer: Answer) -> (Vec<bool>, Option<AskError>) {
        match answer {
            Answer::Bools { answers, error } => (answers, error),
            Answer::Failed(e) => (Vec::new(), Some(e)),
            Answer::Labels { .. } => panic!("set query answered with labels"),
        }
    }

    fn bool_of(answer: Answer) -> Result<bool, AskError> {
        match bools_of(answer) {
            (answers, None) if answers.len() == 1 => Ok(answers[0]),
            (answers, Some(e)) if answers.is_empty() => Err(e),
            other => panic!("a one-set round answered {other:?}"),
        }
    }

    #[test]
    fn bad_set_query_fails_only_its_job_in_a_shared_round() {
        let t = truth(200, 30);
        let target = Target::group(Pattern::parse("1").unwrap());
        let ids = t.all_ids();
        let (handle, rx) = dispatch_channel();
        // All three are queued before the dispatcher starts, so its first
        // drain takes them together.
        let a = queue_set(&handle.tagged("a", 1), &ids[..50], &target);
        let bad = queue_set(
            &handle.tagged("b", 2),
            &[ObjectId(0), ObjectId(999)],
            &target,
        );
        let c = queue_set(&handle.tagged("c", 3), &ids[100..], &target);
        drop(handle);
        let mut source = crate::tests::CheckedSource { truth: &t };
        let stats = run_dispatcher(&mut source, rx, &DispatcherConfig::default());
        assert_eq!(bool_of(a.recv().unwrap()), Ok(true));
        assert!(matches!(
            bool_of(bad.recv().unwrap()),
            Err(AskError::SourceFailed(_))
        ));
        assert_eq!(bool_of(c.recv().unwrap()), Ok(false));
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.set_queries_served, 3);
        assert_eq!(stats.set_batches, 1);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.retry_exhausted, 0);
    }

    #[test]
    fn one_set_round_is_one_dispatch_round() {
        let t = truth(200, 30);
        let target = Target::group(Pattern::parse("1").unwrap());
        let ids = t.all_ids();
        let sets: Vec<&[ObjectId]> = vec![&ids[..20], &ids[50..100], &ids[20..40]];
        let (handle, rx) = dispatch_channel();
        let stats = std::thread::scope(|scope| {
            let dispatcher = scope.spawn(|| {
                let mut source = PerfectSource::new(&t);
                run_dispatcher(&mut source, rx, &DispatcherConfig::default())
            });
            let mut h = handle;
            let mut out = Vec::new();
            h.try_answer_sets(&sets, &target, &mut out).unwrap();
            assert_eq!(out, vec![true, false, true]);
            drop(h);
            dispatcher.join().expect("dispatcher")
        });
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.set_queries_served, 3);
        assert_eq!(stats.set_batches, 1);
        assert_eq!(stats.max_round_questions, 3, "a round counts its sets");
    }

    #[test]
    fn failed_set_hit_returns_the_answered_prefix_and_spares_other_jobs() {
        let t = truth(200, 30);
        let target = Target::group(Pattern::parse("1").unwrap());
        let ids = t.all_ids();
        let (handle, rx) = dispatch_channel();
        // Job 1's second set holds an out-of-range id, so its HIT fails
        // permanently; job 2's set is drained in the same round.
        let bad: &[ObjectId] = &[ObjectId(0), ObjectId(999)];
        let a = queue_sets(
            &handle.tagged("a", 1),
            &[&ids[..50], bad, &ids[100..150]],
            &target,
        );
        let b = queue_set(&handle.tagged("b", 2), &ids[150..], &target);
        drop(handle);
        let mut source = crate::tests::CheckedSource { truth: &t };
        let stats = run_dispatcher(&mut source, rx, &DispatcherConfig::default());
        let (answers, error) = bools_of(a.recv().unwrap());
        assert_eq!(answers, vec![true], "only the set before the failure");
        assert!(matches!(error, Some(AskError::SourceFailed(_))));
        assert_eq!(bool_of(b.recv().unwrap()), Ok(false));
        assert_eq!(stats.rounds, 1);
        assert_eq!(
            stats.set_queries_served, 3,
            "job 1's third set is never served"
        );
        assert_eq!(stats.set_batches, 1);
        assert_eq!((stats.retries, stats.retry_exhausted), (0, 0));
    }

    /// Records the objects of every set query delivered to `inner`, so a
    /// test can count the delivery attempts each question took.
    struct Attempts<S> {
        inner: S,
        sets: Vec<Vec<ObjectId>>,
    }

    impl<S: AnswerSource> AnswerSource for Attempts<S> {
        fn try_answer_set(
            &mut self,
            objects: &[ObjectId],
            target: &Target,
        ) -> Result<bool, AskError> {
            self.sets.push(objects.to_vec());
            self.inner.try_answer_set(objects, target)
        }

        fn try_answer_point_labels(&mut self, object: ObjectId) -> Result<Labels, AskError> {
            self.inner.try_answer_point_labels(object)
        }
    }

    impl<S: BatchAnswerSource> BatchAnswerSource for Attempts<S> {}

    #[test]
    fn transient_set_fault_redelivers_only_that_question() {
        use crowd_sim::faults::{FaultInjector, FaultPlan};
        let t = truth(200, 30);
        let target = Target::group(Pattern::parse("1").unwrap());
        let ids = t.all_ids();
        let (faulty, clean) = (&ids[..50], &ids[100..]);
        let faults_first_try = |plan: &FaultPlan, objects: &[ObjectId]| {
            FaultInjector::new(PerfectSource::new(&t), plan.clone())
                .try_answer_set(objects, &target)
                .is_err()
        };
        // The first seed whose schedule faults `faulty` and spares `clean`.
        let plan = (0..)
            .map(|seed| FaultPlan::transient(seed, 50, 2))
            .find(|p| faults_first_try(p, faulty) && !faults_first_try(p, clean))
            .unwrap();

        // The clean question rides first, so re-serving the whole round
        // would show up as a second delivery of it.
        let (handle, rx) = dispatch_channel();
        let b = queue_set(&handle.tagged("b", 2), clean, &target);
        let a = queue_set(&handle.tagged("a", 1), faulty, &target);
        drop(handle);
        let mut source = Attempts {
            inner: FaultInjector::new(PerfectSource::new(&t), plan),
            sets: Vec::new(),
        };
        let stats = run_dispatcher(&mut source, rx, &fast_retry(3));
        let injected = source.inner.stats().total();
        assert!(injected >= 1);

        assert_eq!(bool_of(a.recv().unwrap()), Ok(true));
        assert_eq!(
            bool_of(b.recv().unwrap()),
            PerfectSource::new(&t).try_answer_set(clean, &target)
        );
        assert_eq!(stats.retries, injected);
        let attempts = |objects: &[ObjectId]| source.sets.iter().filter(|s| *s == objects).count();
        assert_eq!(attempts(faulty) as u64, injected + 1);
        assert_eq!(
            attempts(clean),
            1,
            "the other question is never redelivered"
        );
        assert_eq!(stats.retry_exhausted, 0, "no dead letters");
        assert_eq!((stats.rounds, stats.set_batches), (1, 1));
    }

    fn labels_of(answer: Answer) -> (Vec<Labels>, Option<AskError>) {
        match answer {
            Answer::Labels { labels, error } => (labels, error),
            Answer::Failed(e) => (Vec::new(), Some(e)),
            Answer::Bools { .. } => panic!("point round answered with bools"),
        }
    }

    /// A platform whose `fail_hit`-th point HIT fails permanently.
    struct FailsHit<'a> {
        inner: PerfectSource<'a, VecGroundTruth>,
        fail_hit: u32,
        hits: u32,
    }

    impl AnswerSource for FailsHit<'_> {
        fn try_answer_set(
            &mut self,
            objects: &[ObjectId],
            target: &Target,
        ) -> Result<bool, AskError> {
            self.inner.try_answer_set(objects, target)
        }

        fn try_answer_point_labels(&mut self, object: ObjectId) -> Result<Labels, AskError> {
            self.inner.try_answer_point_labels(object)
        }
    }

    impl BatchAnswerSource for FailsHit<'_> {
        fn try_answer_point_labels_batch(
            &mut self,
            objects: &[ObjectId],
        ) -> Result<Vec<Labels>, AskError> {
            self.hits += 1;
            if self.hits == self.fail_hit {
                return Err(AskError::SourceFailed("bad hit".into()));
            }
            self.inner.try_answer_point_labels_batch(objects)
        }
    }

    fn batch_of_50() -> DispatcherConfig {
        DispatcherConfig {
            point_batch: 50,
            ..DispatcherConfig::default()
        }
    }

    #[test]
    fn one_point_round_is_one_dispatch_round() {
        let t = truth(200, 30);
        let ids = t.all_ids();
        let (handle, rx) = dispatch_channel();
        let cfg = batch_of_50();
        let stats = std::thread::scope(|scope| {
            let dispatcher = scope.spawn(|| {
                let mut source = PerfectSource::new(&t);
                run_dispatcher(&mut source, rx, &cfg)
            });
            let mut h = handle;
            let mut out = Vec::new();
            h.try_answer_point_labels_many(&ids[..120], &mut out)
                .unwrap();
            let want: Vec<Labels> = ids[..120].iter().map(|o| t.labels_of(*o)).collect();
            assert_eq!(out, want);
            drop(h);
            dispatcher.join().expect("dispatcher")
        });
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.point_hits, 3, "ceil(120 / 50) HITs");
        assert_eq!(stats.points_served, 120);
        assert_eq!(stats.max_round_questions, 120, "a round counts objects");
    }

    #[test]
    fn rounds_drained_together_share_hits() {
        let t = truth(200, 30);
        let ids = t.all_ids();
        let (handle, rx) = dispatch_channel();
        // Both rounds are queued before the dispatcher starts, so its first
        // drain takes them together: 30 + 40 objects fit two 50-object HITs.
        let first = queue_round(&handle, ids[..30].to_vec());
        let second = queue_round(&handle, ids[100..140].to_vec());
        drop(handle);
        let mut source = PerfectSource::new(&t);
        let stats = run_dispatcher(&mut source, rx, &batch_of_50());
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.point_hits, 2, "70 objects from two jobs in 2 HITs");
        let (a, a_err) = labels_of(first.recv().unwrap());
        let (b, b_err) = labels_of(second.recv().unwrap());
        assert!(a_err.is_none() && b_err.is_none());
        assert_eq!(
            a,
            ids[..30]
                .iter()
                .map(|o| t.labels_of(*o))
                .collect::<Vec<_>>()
        );
        assert_eq!(
            b,
            ids[100..140]
                .iter()
                .map(|o| t.labels_of(*o))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn failed_hit_leaves_each_job_its_answered_prefix() {
        let t = truth(200, 30);
        let ids = t.all_ids();
        let (handle, rx) = dispatch_channel();
        // HIT 1 = a[0..50], HIT 2 = a[50..100] fails; a's last 20 objects
        // are dropped, so HIT 3 carries only b's 30 objects.
        let a = queue_round(&handle, ids[..120].to_vec());
        let b = queue_round(&handle, ids[150..180].to_vec());
        drop(handle);
        let mut source = FailsHit {
            inner: PerfectSource::new(&t),
            fail_hit: 2,
            hits: 0,
        };
        let stats = run_dispatcher(&mut source, rx, &batch_of_50());
        assert_eq!(source.hits, 3);
        assert_eq!(stats.point_hits, 2);
        assert_eq!(stats.points_served, 80);
        let (a_labels, a_err) = labels_of(a.recv().unwrap());
        assert_eq!(
            a_labels,
            ids[..50]
                .iter()
                .map(|o| t.labels_of(*o))
                .collect::<Vec<_>>(),
            "only the chunks before the failure"
        );
        assert!(matches!(a_err, Some(AskError::SourceFailed(_))));
        let (b_labels, b_err) = labels_of(b.recv().unwrap());
        assert!(b_err.is_none());
        assert_eq!(b_labels.len(), 30);
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_monotone() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(10),
            jitter_seed: 1234,
            ..RetryPolicy::default()
        };
        let first: Vec<Duration> = (1..6).map(|a| backoff_delay(&policy, a, 7)).collect();
        let second: Vec<Duration> = (1..6).map(|a| backoff_delay(&policy, a, 7)).collect();
        assert_eq!(first, second, "same seeds, same schedule");
        // Pinned from the schedule's original definition: any rewrite of
        // the jitter hash must reproduce these exactly.
        assert_eq!(backoff_delay(&policy, 1, 7), Duration::from_millis(11));
        assert_eq!(backoff_delay(&policy, 4, 7), Duration::from_millis(80));
        for (a, pair) in first.windows(2).enumerate() {
            assert!(
                pair[1] > pair[0],
                "backoff must grow: attempt {} gave {:?} then {:?}",
                a + 1,
                pair[0],
                pair[1]
            );
        }
        let other_seed = RetryPolicy {
            jitter_seed: 99,
            ..policy.clone()
        };
        assert_ne!(
            backoff_delay(&policy, 2, 7),
            backoff_delay(&other_seed, 2, 7),
            "jitter must actually depend on the seed"
        );
    }
}
