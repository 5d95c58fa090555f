//! The query engine: how algorithms talk to the crowd (§2.3).
//!
//! Algorithms never see ground truth. They pose questions through an
//! [`Engine`], which meters every question in a [`TaskLedger`] and forwards
//! it to an [`AnswerSource`] — a perfect oracle for synthetic experiments, or
//! a full crowdsourcing simulation (see the `crowd-sim` crate).
//!
//! Two HIT shapes exist (paper Figures 1 and 2):
//!
//! * **point query** — "what are the attribute values of this object?", or
//!   the yes/no variant "does this object belong to g?";
//! * **set query** — "does this *set* contain at least one object of g?".
//!
//! The ask path is **fallible**: every question can come back as an
//! [`AskError`] — a budget refused it, the run's [`CancelToken`] was
//! flipped, or the source itself failed. Sources that can never fail
//! implement [`InfallibleSource`] and pick up the fallible [`AnswerSource`]
//! interface through a zero-cost blanket adapter.
//!
//! ## Rounds
//!
//! On a live crowd every trip to the platform is one publish-and-collect
//! HIT cycle, so a driver that already knows its next few questions should
//! ask them **together**. [`AnswerSource`] therefore carries round methods
//! beside the single-question ones —
//! [`try_answer_point_labels_many`](AnswerSource::try_answer_point_labels_many)
//! and [`try_answer_memberships`](AnswerSource::try_answer_memberships) for
//! point questions, [`try_answer_sets`](AnswerSource::try_answer_sets) for
//! set queries — and the engine exposes them as [`Engine::ask_memberships`],
//! [`Engine::ask_point_labels_batched`] and [`Engine::ask_sets`]. A round
//! obeys a **prefix contract**: on `Err` the caller receives the answers
//! for the longest answered prefix of the round, exactly what asking one
//! question at a time would have delivered before the failure. The default
//! trait bodies ask one question at a time and are the sequential
//! reference; reuse, budget and dispatch layers override them to forward a
//! round in one trip. A driver only puts questions in one round when it
//! would ask all of them one at a time anyway (Base-Coverage's τ − cnt
//! objects, one level of Group-Coverage's tree), so rounds change how many
//! trips the crowd makes, never which questions it answers. Cancellation
//! is checked once per round, before it is sent: a round in flight
//! completes.
//!
//! The ledger meters **logical** work: every question the algorithm asked
//! and had answered, regardless of how the answer was produced. Answer
//! *reuse* — [`crate::memo::SharedKnowledgeSource`] answering a set query from
//! known facts, or forwarding only its unknown residual — happens inside
//! the source, below the engine, so reports and outcomes are identical
//! with and without reuse while the *crowd-side* spend (metered by
//! whatever budget layer sits inside the reuse wrapper) drops.

use crate::error::{AskError, Interrupted};
use crate::ledger::{batched_tasks, TaskLedger};
use crate::schema::Labels;
use crate::target::Target;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Identifier of an object (image) in a dataset: a dense index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ObjectId(pub u32);

impl ObjectId {
    /// The id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Allocation-free iterator over the dense object ids `t0..tN` of a
/// dataset (see [`GroundTruth::ids`]).
#[derive(Debug, Clone)]
pub struct ObjectIds {
    range: Range<u32>,
}

impl Iterator for ObjectIds {
    type Item = ObjectId;

    fn next(&mut self) -> Option<ObjectId> {
        self.range.next().map(ObjectId)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for ObjectIds {}

impl DoubleEndedIterator for ObjectIds {
    fn next_back(&mut self) -> Option<ObjectId> {
        self.range.next_back().map(ObjectId)
    }
}

/// Access to the latent labels of a dataset. Implemented by dataset
/// substrates; **never handed to algorithms directly** — only to answer
/// sources, which may distort it (worker errors, classifier noise).
pub trait GroundTruth {
    /// Number of objects `N`.
    fn num_objects(&self) -> usize;

    /// Latent labels of one object.
    ///
    /// # Panics
    /// Implementations panic when `id` is out of range.
    fn labels_of(&self, id: ObjectId) -> Labels;

    /// Iterates over the object ids `t0..tN` in dataset order without
    /// allocating. Prefer this over [`GroundTruth::all_ids`] on evaluation
    /// paths that only traverse the ids once.
    fn ids(&self) -> ObjectIds {
        ObjectIds {
            range: 0..self.num_objects() as u32,
        }
    }

    /// All object ids `t0..tN` as a vector, for callers that need a pool
    /// slice. Allocates; use [`GroundTruth::ids`] for pure iteration.
    fn all_ids(&self) -> Vec<ObjectId> {
        self.ids().collect()
    }

    /// Exact number of objects matching a target (evaluation only).
    fn count_matching(&self, target: &Target) -> usize {
        self.ids()
            .filter(|id| target.matches(&self.labels_of(*id)))
            .count()
    }
}

/// The simplest [`GroundTruth`]: a vector of label vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VecGroundTruth {
    labels: Vec<Labels>,
}

impl VecGroundTruth {
    /// Wraps a vector of per-object labels.
    pub fn new(labels: Vec<Labels>) -> Self {
        Self { labels }
    }

    /// The underlying labels.
    pub fn labels(&self) -> &[Labels] {
        &self.labels
    }
}

impl GroundTruth for VecGroundTruth {
    fn num_objects(&self) -> usize {
        self.labels.len()
    }

    fn labels_of(&self, id: ObjectId) -> Labels {
        self.labels[id.index()]
    }
}

/// Something that can answer crowd questions, fallibly. Answers may be
/// wrong — that is the point of the abstraction — and may be *refused*:
/// budget governors return [`AskError::BudgetExhausted`], serving layers
/// return [`AskError::SourceFailed`] when the platform is unreachable.
///
/// Sources that can never fail (a perfect oracle, a pure simulator over
/// in-range ids) should implement [`InfallibleSource`] instead; a blanket
/// adapter lifts them into this trait by wrapping every answer in `Ok`.
pub trait AnswerSource {
    /// Answer a set query: does `objects` contain at least one member of
    /// `target`?
    fn try_answer_set(&mut self, objects: &[ObjectId], target: &Target) -> Result<bool, AskError>;

    /// Answer a point query: the attribute values of `object`.
    fn try_answer_point_labels(&mut self, object: ObjectId) -> Result<Labels, AskError>;

    /// Answer a yes/no point query: does `object` belong to `target`?
    ///
    /// The default derives the answer from a label request; sources with a
    /// distinct yes/no error process should override.
    fn try_answer_membership(
        &mut self,
        object: ObjectId,
        target: &Target,
    ) -> Result<bool, AskError> {
        let labels = self.try_answer_point_labels(object)?;
        Ok(target.matches(&labels))
    }

    /// Answers one **round** of independent point queries: the labels of
    /// every object in `objects`, appended to `out` in input order.
    ///
    /// Prefix contract: on `Err`, `out` has gained the answers for the
    /// longest answered prefix of `objects` — exactly what asking one
    /// object at a time would have delivered before the failure. The
    /// default does just that through
    /// [`try_answer_point_labels`](Self::try_answer_point_labels), so it is
    /// the sequential reference every override must match; layers that can
    /// ship a round in one trip (a knowledge store, a budget governor, a
    /// dispatcher connection) override it.
    fn try_answer_point_labels_many(
        &mut self,
        objects: &[ObjectId],
        out: &mut Vec<Labels>,
    ) -> Result<(), AskError> {
        for object in objects {
            out.push(self.try_answer_point_labels(*object)?);
        }
        Ok(())
    }

    /// Answers one round of yes/no point queries about `target`, appended
    /// to `out` in input order, under the same prefix contract as
    /// [`try_answer_point_labels_many`](Self::try_answer_point_labels_many).
    /// The default asks one object at a time through
    /// [`try_answer_membership`](Self::try_answer_membership).
    fn try_answer_memberships(
        &mut self,
        objects: &[ObjectId],
        target: &Target,
        out: &mut Vec<bool>,
    ) -> Result<(), AskError> {
        for object in objects {
            out.push(self.try_answer_membership(*object, target)?);
        }
        Ok(())
    }

    /// Answers one round of set queries about `target`, one answer per set
    /// appended to `out` in input order, under the same prefix contract as
    /// [`try_answer_point_labels_many`](Self::try_answer_point_labels_many).
    /// The default asks one set at a time through
    /// [`try_answer_set`](Self::try_answer_set) and is the sequential
    /// reference every override must match.
    fn try_answer_sets(
        &mut self,
        sets: &[&[ObjectId]],
        target: &Target,
        out: &mut Vec<bool>,
    ) -> Result<(), AskError> {
        for objects in sets {
            out.push(self.try_answer_set(objects, target)?);
        }
        Ok(())
    }
}

/// An answer source that can never refuse a question.
///
/// Implement this for oracles and simulators whose every answer is a plain
/// value; the blanket `impl<S: InfallibleSource> AnswerSource for S` adapts
/// them to the fallible interface at zero cost (each answer is wrapped in
/// `Ok`, nothing else).
pub trait InfallibleSource {
    /// Answer a set query: does `objects` contain at least one member of
    /// `target`?
    fn answer_set(&mut self, objects: &[ObjectId], target: &Target) -> bool;

    /// Answer a point query: the attribute values of `object`.
    fn answer_point_labels(&mut self, object: ObjectId) -> Labels;

    /// Answer a yes/no point query: does `object` belong to `target`?
    fn answer_membership(&mut self, object: ObjectId, target: &Target) -> bool {
        let labels = self.answer_point_labels(object);
        target.matches(&labels)
    }
}

impl<S: InfallibleSource> AnswerSource for S {
    fn try_answer_set(&mut self, objects: &[ObjectId], target: &Target) -> Result<bool, AskError> {
        Ok(self.answer_set(objects, target))
    }

    fn try_answer_point_labels(&mut self, object: ObjectId) -> Result<Labels, AskError> {
        Ok(self.answer_point_labels(object))
    }

    fn try_answer_membership(
        &mut self,
        object: ObjectId,
        target: &Target,
    ) -> Result<bool, AskError> {
        Ok(self.answer_membership(object, target))
    }
}

/// Extension of [`AnswerSource`] for **platforms** that can serve many
/// questions in one HIT.
///
/// The batch path exists for the `coverage-service` dispatcher: it
/// coalesces the point queries of every job in a round into
/// many-images-per-HIT batches — the paper's actual HIT layout — instead of
/// hitting the platform once per object. The default methods fall back to
/// one-at-a-time answering, so any source is trivially a batch source;
/// platforms with real per-HIT overhead (e.g. `MTurkSim` in the `crowd-sim`
/// crate) override the point-label batch. Unlike the round methods of
/// [`AnswerSource`], a HIT is all-or-nothing: on `Err` no answer of the
/// batch is delivered.
pub trait BatchAnswerSource: AnswerSource {
    /// Labels every object in `objects`, treating the whole slice as one
    /// coalesced request. Answers must line up index-for-index.
    fn try_answer_point_labels_batch(
        &mut self,
        objects: &[ObjectId],
    ) -> Result<Vec<Labels>, AskError> {
        objects
            .iter()
            .map(|o| self.try_answer_point_labels(*o))
            .collect()
    }

    /// Answers a batch of independent set queries, one answer per query,
    /// by asking them one at a time.
    ///
    /// The `coverage-service` dispatcher no longer calls this: it serves
    /// each set query as its own HIT through
    /// [`try_answer_set`](AnswerSource::try_answer_set), which is what the
    /// paper's cost model charges anyway.
    fn try_answer_sets_batch(
        &mut self,
        queries: &[(Vec<ObjectId>, Target)],
    ) -> Result<Vec<bool>, AskError> {
        queries
            .iter()
            .map(|(objects, target)| self.try_answer_set(objects, target))
            .collect()
    }
}

/// A cooperative cancellation flag shared between a running audit and
/// whoever may want to stop it.
///
/// Clone the token, hand one clone to [`Engine::set_cancel_token`], keep
/// the other; [`CancelToken::cancel`] makes the engine's next `ask_*`
/// return [`AskError::Cancelled`], and the interrupted algorithm surfaces
/// its partial result. Cancellation is observed at question (and round)
/// boundaries — no work in flight is torn down.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; every engine holding a clone observes it at
    /// its next question.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// An error-free answer source backed by ground truth. This is the model
/// used by the paper's synthetic experiments (§6.5), which "simulate the
/// behavior of the crowdworkers in answering queries".
#[derive(Debug, Clone)]
pub struct PerfectSource<'a, G: GroundTruth> {
    truth: &'a G,
}

impl<'a, G: GroundTruth> PerfectSource<'a, G> {
    /// Wraps a ground truth.
    pub fn new(truth: &'a G) -> Self {
        Self { truth }
    }
}

impl<G: GroundTruth> InfallibleSource for PerfectSource<'_, G> {
    fn answer_set(&mut self, objects: &[ObjectId], target: &Target) -> bool {
        objects
            .iter()
            .any(|o| target.matches(&self.truth.labels_of(*o)))
    }

    fn answer_point_labels(&mut self, object: ObjectId) -> Labels {
        self.truth.labels_of(object)
    }
}

impl<G: GroundTruth> BatchAnswerSource for PerfectSource<'_, G> {}

/// An answer source that intra-audit parallel drivers can split across
/// worker threads and merge back.
///
/// [`multiple_coverage_par`](crate::multiple::multiple_coverage_par) shards
/// its super-group scan over `std::thread::scope` workers; each worker asks
/// through its own **fork** of the job's source and, when the scan joins,
/// the fork is handed back so per-handle state (e.g. the local
/// [`ReuseStats`](crate::memo::ReuseStats) tally of a
/// [`SharedKnowledgeSource`](crate::memo::SharedKnowledgeSource) handle)
/// is folded into the original. Forks must answer **consistently** with
/// the original — the same fixed labeling behind every handle — which is
/// what makes parallel scans byte-identical to sequential ones.
pub trait ForkableSource: AnswerSource + Send + Sized {
    /// A handle over the same underlying answers for another thread.
    fn fork(&self) -> Self;

    /// Folds a fork's per-handle state back in once its thread is done.
    /// The default drops the fork (nothing to merge).
    fn join(&mut self, forked: Self) {
        drop(forked);
    }
}

impl<G: GroundTruth + Sync> ForkableSource for PerfectSource<'_, G> {
    fn fork(&self) -> Self {
        // Not `clone()`: the derived bound would demand `G: Clone`; a fork
        // only needs another handle on the same borrowed truth.
        Self { truth: self.truth }
    }
}

/// An **owned** error-free answer source: [`PerfectSource`] semantics over
/// an `Arc`-shared ground truth, with no borrowed lifetime.
///
/// `PerfectSource` borrows its truth, which ties every run to the stack
/// frame that owns the dataset — fine for a scoped
/// `AuditService::run`, impossible for a long-lived daemon whose worker
/// and dispatcher threads outlive any caller's frame. `SharedTruthSource`
/// owns an `Arc<G>` instead, so it is `'static` whenever `G` is: the
/// `coverage-service` `AuditDaemon` can hold it (and fork it, see
/// [`ForkableSource`]) across arbitrarily many job runs.
///
/// ```
/// use coverage_core::prelude::*;
/// use std::sync::Arc;
///
/// let truth = VecGroundTruth::new(vec![Labels::single(1), Labels::single(0)]);
/// let mut source = SharedTruthSource::new(Arc::new(truth));
/// let target = Target::group(Pattern::parse("1").unwrap());
/// assert!(source.answer_set(&[ObjectId(0), ObjectId(1)], &target));
/// assert!(!source.answer_membership(ObjectId(1), &target));
/// ```
#[derive(Debug)]
pub struct SharedTruthSource<G> {
    truth: Arc<G>,
}

// Not derived: the derive would demand `G: Clone`, but a clone only needs
// another `Arc` handle on the same truth.
impl<G> Clone for SharedTruthSource<G> {
    fn clone(&self) -> Self {
        Self {
            truth: Arc::clone(&self.truth),
        }
    }
}

impl<G: GroundTruth> SharedTruthSource<G> {
    /// Wraps a shared ground truth.
    pub fn new(truth: Arc<G>) -> Self {
        Self { truth }
    }

    /// The underlying ground truth (evaluation only — never hand it to an
    /// algorithm).
    pub fn truth(&self) -> &G {
        &self.truth
    }
}

impl<G: GroundTruth> InfallibleSource for SharedTruthSource<G> {
    fn answer_set(&mut self, objects: &[ObjectId], target: &Target) -> bool {
        objects
            .iter()
            .any(|o| target.matches(&self.truth.labels_of(*o)))
    }

    fn answer_point_labels(&mut self, object: ObjectId) -> Labels {
        self.truth.labels_of(object)
    }
}

impl<G: GroundTruth> BatchAnswerSource for SharedTruthSource<G> {}

impl<G: GroundTruth + Send + Sync> ForkableSource for SharedTruthSource<G> {
    fn fork(&self) -> Self {
        self.clone()
    }
}

/// Default number of images per point-query HIT, matching the paper's
/// HIT layout (`n = 50` images per HIT).
pub const DEFAULT_POINT_BATCH: usize = 50;

/// Meters questions to an [`AnswerSource`] through a [`TaskLedger`].
///
/// Every `ask_*` method is fallible: it returns `Err` when the run's
/// [`CancelToken`] was flipped, when the source's budget refuses the
/// question, or when the source itself fails. Only *answered* questions
/// are recorded in the ledger — a refused question costs nothing.
#[derive(Debug, Clone)]
pub struct Engine<S> {
    source: S,
    ledger: TaskLedger,
    point_batch: usize,
    cancel: Option<CancelToken>,
    probe: crate::probe::ProbeHandle,
}

impl<S: AnswerSource> Engine<S> {
    /// Wraps an answer source with the default point-query batch size.
    pub fn new(source: S) -> Self {
        Self::with_point_batch(source, DEFAULT_POINT_BATCH)
    }

    /// Wraps an answer source, batching up to `point_batch` point queries
    /// per charged task.
    ///
    /// # Panics
    /// Panics when `point_batch == 0`.
    pub fn with_point_batch(source: S, point_batch: usize) -> Self {
        assert!(point_batch > 0, "point batch size must be positive");
        Self {
            source,
            ledger: TaskLedger::new(),
            point_batch,
            cancel: None,
            probe: crate::probe::ProbeHandle::none(),
        }
    }

    /// Installs a cancellation token: once its [`CancelToken::cancel`] is
    /// called (from any thread holding a clone), every subsequent `ask_*`
    /// returns [`AskError::Cancelled`].
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Builder form of [`Engine::set_cancel_token`].
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.set_cancel_token(token);
        self
    }

    /// The installed cancellation token, if any — so intra-audit parallel
    /// drivers can propagate cancellation into their worker engines.
    pub fn cancel_token(&self) -> Option<CancelToken> {
        self.cancel.clone()
    }

    /// Attaches an observability probe: algorithm drivers emit coarse phase
    /// events through it (see [`crate::probe`]). Strictly read-only — a
    /// probe never changes an answer, a ledger entry or a verdict.
    pub fn set_probe(&mut self, probe: crate::probe::ProbeHandle) {
        self.probe = probe;
    }

    /// Builder form of [`Engine::set_probe`].
    pub fn with_probe(mut self, probe: crate::probe::ProbeHandle) -> Self {
        self.set_probe(probe);
        self
    }

    /// The attached probe handle (the absent handle when none was set) —
    /// drivers emit phase events through this.
    pub fn probe(&self) -> &crate::probe::ProbeHandle {
        &self.probe
    }

    /// `Err(Cancelled)` once the installed token has been flipped.
    fn checkpoint(&self) -> Result<(), AskError> {
        match &self.cancel {
            Some(token) if token.is_cancelled() => Err(AskError::Cancelled),
            _ => Ok(()),
        }
    }

    /// Issues a set query (one logical task — charged here even when a
    /// reuse layer inside the source answers it without crowd contact, so
    /// outcomes stay byte-identical with and without reuse).
    pub fn ask_set(&mut self, objects: &[ObjectId], target: &Target) -> Result<bool, AskError> {
        self.checkpoint()?;
        let ans = self.source.try_answer_set(objects, target)?;
        self.ledger.record_set_query();
        Ok(ans)
    }

    /// Asks one round of set queries in a single
    /// [`AnswerSource::try_answer_sets`] call. Each delivered answer is
    /// recorded as one set query, so a round of `k` answers costs what `k`
    /// [`ask_set`](Self::ask_set) calls would; only the number of dispatch
    /// rounds differs.
    ///
    /// # Errors
    /// On a failure the [`Interrupted`] partial holds the answers for the
    /// longest answered prefix of `sets` (already metered).
    pub fn ask_sets(
        &mut self,
        sets: &[&[ObjectId]],
        target: &Target,
    ) -> Result<Vec<bool>, Interrupted<Vec<bool>>> {
        let mut answers = Vec::with_capacity(sets.len());
        let result = self
            .checkpoint()
            .and_then(|()| self.source.try_answer_sets(sets, target, &mut answers));
        for _ in &answers {
            self.ledger.record_set_query();
        }
        match result {
            Ok(()) => Ok(answers),
            Err(error) => Err(Interrupted {
                error,
                partial: answers,
            }),
        }
    }

    /// Asks one round of yes/no membership questions, one per object, in a
    /// single [`AnswerSource::try_answer_memberships`] call. Each delivered
    /// answer is recorded as its own single-object task (the paper's
    /// `Base-Coverage` HIT shape), so a round of `k` answers costs what `k`
    /// one-object rounds would; only the number of dispatch rounds differs.
    ///
    /// # Errors
    /// On a failure the [`Interrupted`] partial holds the answers for the
    /// longest answered prefix of `objects` (already metered).
    pub fn ask_memberships(
        &mut self,
        objects: &[ObjectId],
        target: &Target,
    ) -> Result<Vec<bool>, Interrupted<Vec<bool>>> {
        let mut answers = Vec::with_capacity(objects.len());
        let result = self.checkpoint().and_then(|()| {
            self.source
                .try_answer_memberships(objects, target, &mut answers)
        });
        let delivered = answers.len() as u64;
        self.ledger.record_point_work(delivered, delivered);
        match result {
            Ok(()) => Ok(answers),
            Err(error) => Err(Interrupted {
                error,
                partial: answers,
            }),
        }
    }

    /// Labels a batch of objects in one round, charged as
    /// `ceil(len / point_batch)` tasks — the paper's many-images-per-HIT
    /// layout.
    ///
    /// Delivery is all-or-nothing: on `Err` no labels are returned. The
    /// labels the source *did* answer before refusing (the round's answered
    /// prefix) are still metered in the ledger — they are real crowd work
    /// (a governor has charged them, and behind a cache they stay
    /// reusable), so the ledger must not understate them.
    pub fn ask_point_labels_batched(
        &mut self,
        objects: &[ObjectId],
    ) -> Result<Vec<Labels>, AskError> {
        self.checkpoint()?;
        let mut labels: Vec<Labels> = Vec::with_capacity(objects.len());
        let result = self
            .source
            .try_answer_point_labels_many(objects, &mut labels);
        self.ledger.record_point_work(
            labels.len() as u64,
            batched_tasks(labels.len(), self.point_batch),
        );
        result.map(|()| labels)
    }

    /// The configured point-query batch size.
    pub fn point_batch(&self) -> usize {
        self.point_batch
    }

    /// Read access to the running ledger.
    pub fn ledger(&self) -> &TaskLedger {
        &self.ledger
    }

    /// Snapshot of the ledger (for `since` deltas around an algorithm call).
    pub fn ledger_snapshot(&self) -> TaskLedger {
        self.ledger
    }

    /// Resets the ledger to zero, e.g. between experiment repetitions.
    pub fn reset_ledger(&mut self) {
        self.ledger = TaskLedger::new();
    }

    /// Folds another ledger's totals into this engine's — how intra-audit
    /// parallel drivers merge their worker engines' metering back into the
    /// job's engine so callers keep reading one authoritative ledger.
    pub fn absorb_ledger(&mut self, other: &TaskLedger) {
        self.ledger.absorb(other);
    }

    /// Read access to the wrapped source.
    pub fn source(&self) -> &S {
        &self.source
    }

    /// Mutable access to the wrapped source (e.g. to reseed a simulator).
    pub fn source_mut(&mut self) -> &mut S {
        &mut self.source
    }

    /// Unwraps the engine into its source.
    pub fn into_source(self) -> S {
        self.source
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pattern;

    fn truth_with_minority(n: usize, minority: usize) -> VecGroundTruth {
        let labels = (0..n)
            .map(|i| Labels::single(u8::from(i < minority)))
            .collect();
        VecGroundTruth::new(labels)
    }

    #[test]
    fn perfect_source_set_query() {
        let truth = truth_with_minority(10, 3);
        let target = Target::group(Pattern::parse("1").unwrap());
        let mut engine = Engine::new(PerfectSource::new(&truth));
        let all: Vec<ObjectId> = truth.all_ids();
        assert!(engine.ask_set(&all[..5], &target).unwrap());
        assert!(!engine.ask_set(&all[5..], &target).unwrap());
        assert_eq!(engine.ledger().set_queries(), 2);
        assert_eq!(engine.ledger().total_tasks(), 2);
    }

    #[test]
    fn perfect_source_point_queries() {
        let truth = truth_with_minority(4, 2);
        let target = Target::group(Pattern::parse("1").unwrap());
        let mut engine = Engine::new(PerfectSource::new(&truth));
        assert_eq!(
            engine.ask_memberships(&[ObjectId(0)], &target).unwrap(),
            vec![true]
        );
        assert_eq!(
            engine.ask_memberships(&[ObjectId(3)], &target).unwrap(),
            vec![false]
        );
        assert_eq!(
            engine.ask_point_labels_batched(&[ObjectId(1)]).unwrap(),
            vec![Labels::single(1)]
        );
        assert_eq!(engine.ledger().point_tasks(), 3);
        assert_eq!(engine.ledger().point_labels(), 3);
    }

    #[test]
    fn batched_labels_charge_ceil() {
        let truth = truth_with_minority(120, 0);
        let mut engine = Engine::with_point_batch(PerfectSource::new(&truth), 50);
        let ids = truth.all_ids();
        let labels = engine.ask_point_labels_batched(&ids).unwrap();
        assert_eq!(labels.len(), 120);
        assert_eq!(engine.ledger().point_tasks(), 3); // ceil(120/50)
        assert_eq!(engine.ledger().point_labels(), 120);
    }

    #[test]
    fn empty_batch_charges_nothing() {
        let truth = truth_with_minority(1, 0);
        let mut engine = Engine::new(PerfectSource::new(&truth));
        let labels = engine.ask_point_labels_batched(&[]).unwrap();
        assert!(labels.is_empty());
        assert_eq!(engine.ledger().total_tasks(), 0);
    }

    #[test]
    fn ledger_snapshot_delta() {
        let truth = truth_with_minority(10, 5);
        let target = Target::group(Pattern::parse("1").unwrap());
        let mut engine = Engine::new(PerfectSource::new(&truth));
        let ids = truth.all_ids();
        engine.ask_set(&ids, &target).unwrap();
        let snap = engine.ledger_snapshot();
        engine.ask_set(&ids, &target).unwrap();
        assert_eq!(engine.ledger().since(&snap).set_queries(), 1);
    }

    #[test]
    fn cancel_token_stops_every_ask() {
        let truth = truth_with_minority(10, 5);
        let target = Target::group(Pattern::parse("1").unwrap());
        let token = CancelToken::new();
        let mut engine = Engine::new(PerfectSource::new(&truth)).with_cancel_token(token.clone());
        let ids = truth.all_ids();
        assert!(engine.ask_set(&ids, &target).is_ok());
        assert!(!token.is_cancelled());
        token.cancel();
        assert_eq!(engine.ask_set(&ids, &target), Err(AskError::Cancelled));
        assert_eq!(
            engine.ask_point_labels_batched(&[ObjectId(0)]),
            Err(AskError::Cancelled)
        );
        assert_eq!(
            engine.ask_memberships(&[ObjectId(0)], &target),
            Err(Interrupted {
                error: AskError::Cancelled,
                partial: Vec::new()
            })
        );
        assert_eq!(
            engine.ask_point_labels_batched(&ids),
            Err(AskError::Cancelled)
        );
        // A round is refused whole, before anything is sent.
        assert_eq!(
            engine.ask_memberships(&ids, &target),
            Err(Interrupted {
                error: AskError::Cancelled,
                partial: Vec::new()
            })
        );
        // The refused questions were never charged.
        assert_eq!(engine.ledger().total_tasks(), 1);
    }

    /// A source that refuses every question after the first `allow` ones.
    struct FlakySource<'a, G: GroundTruth> {
        inner: PerfectSource<'a, G>,
        allow: usize,
    }

    impl<G: GroundTruth> AnswerSource for FlakySource<'_, G> {
        fn try_answer_set(
            &mut self,
            objects: &[ObjectId],
            target: &Target,
        ) -> Result<bool, AskError> {
            if self.allow == 0 {
                return Err(AskError::SourceFailed("flaky".into()));
            }
            self.allow -= 1;
            self.inner.try_answer_set(objects, target)
        }

        fn try_answer_point_labels(&mut self, object: ObjectId) -> Result<Labels, AskError> {
            if self.allow == 0 {
                return Err(AskError::SourceFailed("flaky".into()));
            }
            self.allow -= 1;
            self.inner.try_answer_point_labels(object)
        }
    }

    #[test]
    fn failed_questions_are_not_charged() {
        let truth = truth_with_minority(10, 5);
        let target = Target::group(Pattern::parse("1").unwrap());
        let ids = truth.all_ids();
        let mut engine = Engine::with_point_batch(
            FlakySource {
                inner: PerfectSource::new(&truth),
                allow: 3,
            },
            50,
        );
        assert!(engine.ask_set(&ids, &target).is_ok());
        // The batch needs 10 answers but only 2 remain: no labels are
        // delivered, yet the 2 the source answered (and a governor would
        // have charged) stay metered.
        assert!(matches!(
            engine.ask_point_labels_batched(&ids),
            Err(AskError::SourceFailed(_))
        ));
        assert_eq!(engine.ledger().point_labels(), 2);
        assert_eq!(engine.ledger().point_tasks(), 1); // ceil(2/50)
        assert_eq!(engine.ledger().total_tasks(), 2);
        // The refused question itself was never charged.
        assert!(matches!(
            engine.ask_memberships(&[ObjectId(0)], &target),
            Err(Interrupted {
                error: AskError::SourceFailed(_),
                ..
            })
        ));
        assert_eq!(engine.ledger().total_tasks(), 2);
    }

    #[test]
    fn set_round_meters_the_answered_prefix() {
        let truth = truth_with_minority(40, 5);
        let target = Target::group(Pattern::parse("1").unwrap());
        let ids = truth.all_ids();
        let sets: Vec<&[ObjectId]> = ids.chunks(10).collect();
        let token = CancelToken::new();
        let mut engine = Engine::new(FlakySource {
            inner: PerfectSource::new(&truth),
            allow: 2,
        })
        .with_cancel_token(token.clone());
        let cut = engine.ask_sets(&sets, &target).unwrap_err();
        assert!(matches!(cut.error, AskError::SourceFailed(_)));
        assert_eq!(cut.partial, vec![true, false], "the answered prefix");
        assert_eq!(engine.ledger().set_queries(), 2);
        // A cancelled round is refused whole, before anything is sent.
        token.cancel();
        assert_eq!(
            engine.ask_sets(&sets, &target),
            Err(Interrupted {
                error: AskError::Cancelled,
                partial: Vec::new()
            })
        );
        assert_eq!(engine.ledger().set_queries(), 2);
    }

    #[test]
    fn shared_truth_source_matches_perfect_source() {
        let truth = truth_with_minority(30, 7);
        let target = Target::group(Pattern::parse("1").unwrap());
        let ids = truth.all_ids();
        let shared = Arc::new(truth.clone());
        let mut owned = SharedTruthSource::new(Arc::clone(&shared));
        let mut borrowed = PerfectSource::new(&truth);
        assert_eq!(
            owned.answer_set(&ids, &target),
            borrowed.answer_set(&ids, &target)
        );
        for id in &ids {
            assert_eq!(
                owned.answer_point_labels(*id),
                borrowed.answer_point_labels(*id)
            );
            assert_eq!(
                owned.answer_membership(*id, &target),
                borrowed.answer_membership(*id, &target)
            );
        }
        // A fork answers from the same truth; the handle is 'static-capable.
        let mut fork = owned.fork();
        assert!(fork.answer_set(&ids[..7], &target));
        assert_eq!(owned.truth().num_objects(), 30);
        fn assert_static<T: 'static>(_: &T) {}
        assert_static(&owned);
    }

    #[test]
    fn ids_iterator_matches_all_ids() {
        let truth = truth_with_minority(5, 2);
        let collected: Vec<ObjectId> = truth.ids().collect();
        assert_eq!(collected, truth.all_ids());
        assert_eq!(truth.ids().len(), 5);
        assert_eq!(truth.ids().next_back(), Some(ObjectId(4)));
        assert_eq!(truth.ids().next_back(), Some(ObjectId(4)));
        assert_eq!(truth.ids().rev().next_back(), Some(ObjectId(0)));
    }

    #[test]
    fn default_batch_source_matches_single_answers() {
        let truth = truth_with_minority(20, 6);
        let target = Target::group(Pattern::parse("1").unwrap());
        let ids = truth.all_ids();

        let mut batch = PerfectSource::new(&truth);
        let batched = batch.try_answer_point_labels_batch(&ids).unwrap();
        let mut single = PerfectSource::new(&truth);
        let singles: Vec<Labels> = ids.iter().map(|o| single.answer_point_labels(*o)).collect();
        assert_eq!(batched, singles);

        let queries = vec![
            (ids[..10].to_vec(), target.clone()),
            (ids[10..].to_vec(), target.clone()),
        ];
        assert_eq!(
            batch.try_answer_sets_batch(&queries).unwrap(),
            vec![true, false]
        );
    }

    #[test]
    fn ground_truth_count_matching() {
        let truth = truth_with_minority(10, 4);
        let t1 = Target::group(Pattern::parse("1").unwrap());
        assert_eq!(truth.count_matching(&t1), 4);
        assert_eq!(truth.count_matching(&t1.negated()), 6);
    }

    #[test]
    fn reset_ledger_zeroes() {
        let truth = truth_with_minority(2, 1);
        let mut engine = Engine::new(PerfectSource::new(&truth));
        engine.ask_point_labels_batched(&[ObjectId(0)]).unwrap();
        engine.reset_ledger();
        assert_eq!(engine.ledger().total_tasks(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_point_batch_panics() {
        let truth = truth_with_minority(1, 0);
        Engine::with_point_batch(PerfectSource::new(&truth), 0);
    }
}
