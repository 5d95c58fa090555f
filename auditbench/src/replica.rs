//! The timed answer-source wrapper and the in-process replica of an audit.
//!
//! The daemon is handed `Timed<SharedTruthSource>` in place of the bare
//! source, so every call the dispatcher makes into the crowd is a span.
//! The replica reruns an audit in-process through the same public pieces
//! the daemon's job runner uses — an engine over a shared knowledge store
//! over the truth source — with both sources timed, which splits the
//! audit's time into driver, knowledge-store and truth-source self time.

use crate::trace::{self, NO_ID};
use coverage_core::prelude::*;
use coverage_service::{AuditKind, AuditOutcome, JobSpec};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// An answer source whose every call is a span of layer `layer`, with the
/// number of objects asked as its value.
#[derive(Debug, Clone)]
pub struct Timed<S> {
    inner: S,
    layer: &'static str,
}

impl<S> Timed<S> {
    /// Wraps `inner`, naming its spans' layer.
    pub fn new(inner: S, layer: &'static str) -> Self {
        Self { inner, layer }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn span(&self, name: &'static str, objects: usize) -> trace::Guard {
        let mut guard = trace::enter(self.layer, name, NO_ID);
        guard.set_value(objects as u64);
        guard
    }
}

impl<S: AnswerSource> AnswerSource for Timed<S> {
    fn try_answer_set(&mut self, objects: &[ObjectId], target: &Target) -> Result<bool, AskError> {
        let _span = self.span("set", objects.len());
        self.inner.try_answer_set(objects, target)
    }

    fn try_answer_point_labels(&mut self, object: ObjectId) -> Result<Labels, AskError> {
        let _span = self.span("point", 1);
        self.inner.try_answer_point_labels(object)
    }

    fn try_answer_membership(
        &mut self,
        object: ObjectId,
        target: &Target,
    ) -> Result<bool, AskError> {
        let _span = self.span("membership", 1);
        self.inner.try_answer_membership(object, target)
    }
}

impl<S: BatchAnswerSource> BatchAnswerSource for Timed<S> {
    fn try_answer_point_labels_batch(
        &mut self,
        objects: &[ObjectId],
    ) -> Result<Vec<Labels>, AskError> {
        let _span = self.span("point_batch", objects.len());
        self.inner.try_answer_point_labels_batch(objects)
    }

    fn try_answer_sets_batch(
        &mut self,
        queries: &[(Vec<ObjectId>, Target)],
    ) -> Result<Vec<bool>, AskError> {
        let _span = self.span("sets_batch", queries.iter().map(|(o, _)| o.len()).sum());
        self.inner.try_answer_sets_batch(queries)
    }
}

impl<S: ForkableSource> ForkableSource for Timed<S> {
    fn fork(&self) -> Self {
        Self::new(self.inner.fork(), self.layer)
    }

    fn join(&mut self, forked: Self) {
        self.inner.join(forked.inner);
    }
}

/// The knowledge store the replica asks through: shared across the
/// replicas of one run, in front of the timed truth source.
pub type ReplicaStore<G> = SharedKnowledgeSource<Timed<SharedTruthSource<G>>>;

/// What one replica run asked and answered.
#[derive(Debug)]
pub struct Replica {
    pub ledger: TaskLedger,
    pub reuse: ReuseStats,
    pub outcome: Result<AuditOutcome, AskError>,
}

/// Reruns `spec` in-process the way the daemon's job runner does: the
/// same algorithm, configuration and seed, one scan thread, through a
/// fresh handle on `store`. The whole run is a `core` span with id `id`.
pub fn run<G: GroundTruth + Send + Sync>(
    spec: &JobSpec,
    store: &ReplicaStore<G>,
    id: u64,
) -> Replica {
    let mut engine = Engine::with_point_batch(Timed::new(store.clone(), "memo"), spec.n);
    let _span = trace::enter("core", "audit", id);
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let multi = |tau, n| MultipleConfig {
        tau,
        n,
        ..MultipleConfig::default()
    };
    let one_thread = IntraJobParallelism::SERIAL;
    let outcome = match &spec.kind {
        AuditKind::BaseCoverage { target } => {
            base_coverage(&mut engine, &spec.pool, target, spec.tau)
                .map(AuditOutcome::Coverage)
                .map_err(|i| i.error)
        }
        AuditKind::GroupCoverage { target } => group_coverage(
            &mut engine,
            &spec.pool,
            target,
            spec.tau,
            spec.n,
            &DncConfig::default(),
        )
        .map(AuditOutcome::Coverage)
        .map_err(|i| i.error),
        AuditKind::MultipleCoverage { groups } => multiple_coverage_par(
            &mut engine,
            &spec.pool,
            groups,
            &multi(spec.tau, spec.n),
            &mut rng,
            one_thread,
        )
        .map(AuditOutcome::Multiple)
        .map_err(|i| i.error),
        AuditKind::IntersectionalCoverage { schema } => intersectional_coverage_par(
            &mut engine,
            &spec.pool,
            schema,
            &multi(spec.tau, spec.n),
            &mut rng,
            one_thread,
        )
        .map(AuditOutcome::Intersectional)
        .map_err(|i| i.error),
        AuditKind::ClassifierCoverage { target, predicted } => classifier_coverage(
            &mut engine,
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
        .map_err(|i| i.error),
    };
    Replica {
        ledger: *engine.ledger(),
        reuse: engine.source().inner().local_reuse_stats(),
        outcome,
    }
}
