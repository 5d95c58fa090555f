//! The deterministic chaos plane: seeded fault injection for any answer
//! source.
//!
//! A real crowd platform times out, loses HITs, and returns late or
//! duplicate answers. [`FaultInjector`] wraps any `BatchAnswerSource` and
//! injects exactly those failures according to a [`FaultPlan`] — a pure
//! function of `(plan seed, question content)`, **never** of arrival
//! order, so a concurrent run sees the same fault schedule as a serial
//! one and byte-identity proofs survive chaos. Faults are *delivery*
//! failures only: the wrapped source is not consulted on a faulted
//! attempt, its answers are never altered, and a question whose faults
//! have cleared answers exactly as it would have without the injector.
//!
//! Everything here is zero-dependency and off by default
//! ([`FaultPlan::off`], the `Default`).

use coverage_core::engine::{AnswerSource, BatchAnswerSource, ObjectId};
use coverage_core::error::AskError;
use coverage_core::fingerprint::fnv1a;
use coverage_core::schema::Labels;
use coverage_core::target::Target;
use std::collections::HashMap;
use std::time::Duration;

/// What kind of fault was injected into one delivery attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The HIT never came back: the platform call times out.
    HitTimeout,
    /// The platform itself hiccuped (5xx-style transient error).
    PlatformError,
    /// The assigned worker abandoned the assignment.
    WorkerAbandoned,
    /// The answer arrived, but late (the call blocks for the plan's
    /// `late_delay` before answering).
    LateDelivery,
    /// The answer arrived twice; the duplicate is counted and discarded.
    DuplicateDelivery,
}

impl FaultKind {
    /// Stable label for telemetry (`audit_faults_injected_total{kind=…}`).
    pub fn label(self) -> &'static str {
        match self {
            Self::HitTimeout => "hit_timeout",
            Self::PlatformError => "platform_error",
            Self::WorkerAbandoned => "worker_abandoned",
            Self::LateDelivery => "late_delivery",
            Self::DuplicateDelivery => "duplicate_delivery",
        }
    }

    /// The human-readable reason carried by [`AskError::Transient`].
    fn reason(self) -> &'static str {
        match self {
            Self::HitTimeout => "hit timeout",
            Self::PlatformError => "platform error",
            Self::WorkerAbandoned => "worker abandoned",
            Self::LateDelivery => "late delivery",
            Self::DuplicateDelivery => "duplicate delivery",
        }
    }
}

/// A seeded, deterministic fault schedule.
///
/// Every decision — is this question targeted, how many attempts fail,
/// which [`FaultKind`] each failure is, is a successful delivery late or
/// duplicated — is a pure function of `(seed, question fingerprint)`.
/// The fingerprint hashes the question's *content* (objects + target),
/// so the schedule is independent of arrival order, worker interleaving
/// and batching: the exact property that keeps concurrent runs
/// byte-identical to serial ones under chaos.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the schedule; two plans with the same seed and knobs fault
    /// the same questions the same way.
    pub seed: u64,
    /// Percentage (0–100) of questions targeted for transient failures.
    pub rate_pct: u8,
    /// Upper bound on failed delivery attempts per targeted question;
    /// attempt `max_faults + 1` (at the latest) succeeds. The actual
    /// count is drawn deterministically in `1..=max_faults`. Ignored when
    /// `permanent` is set.
    pub max_faults: u32,
    /// When true, targeted questions fail on *every* attempt — the
    /// schedule never permits success, modeling a platform outage.
    pub permanent: bool,
    /// How long a late delivery blocks before answering; `0` disables
    /// late deliveries.
    pub late_delay: Duration,
    /// Percentage (0–100) of successful deliveries that additionally
    /// arrive twice (the duplicate is counted and discarded here, at the
    /// seam).
    pub duplicate_pct: u8,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::off()
    }
}

impl FaultPlan {
    /// No faults at all — the injector becomes a transparent passthrough.
    pub fn off() -> Self {
        Self {
            seed: 0,
            rate_pct: 0,
            max_faults: 0,
            permanent: false,
            late_delay: Duration::ZERO,
            duplicate_pct: 0,
        }
    }

    /// A transient plan: `rate_pct`% of questions fail between 1 and
    /// `max_faults` times, then succeed — every schedule drawn from this
    /// constructor eventually permits success.
    pub fn transient(seed: u64, rate_pct: u8, max_faults: u32) -> Self {
        Self {
            seed,
            rate_pct,
            max_faults: max_faults.max(1),
            ..Self::off()
        }
    }

    /// A permanent plan: `rate_pct`% of questions never succeed.
    pub fn permanent(seed: u64, rate_pct: u8) -> Self {
        Self {
            seed,
            rate_pct,
            max_faults: u32::MAX,
            permanent: true,
            ..Self::off()
        }
    }

    /// True when this plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.rate_pct > 0 || self.duplicate_pct > 0 || !self.late_delay.is_zero()
    }

    /// Deterministic per-decision stream: mixes the plan seed, a salt
    /// (which decision is being drawn) and the question fingerprint.
    fn draw(&self, key: u64, salt: u64) -> u64 {
        fnv1a(
            self.seed
                .to_le_bytes()
                .into_iter()
                .chain(salt.to_le_bytes())
                .chain(key.to_le_bytes()),
        )
    }

    /// Is this question targeted for transient failures?
    fn targeted(&self, key: u64) -> bool {
        self.rate_pct > 0 && self.draw(key, 0) % 100 < u64::from(self.rate_pct)
    }

    /// How many delivery attempts of this targeted question fail.
    fn fail_attempts(&self, key: u64) -> u32 {
        if self.permanent {
            u32::MAX
        } else {
            1 + (self.draw(key, 1) % u64::from(self.max_faults)) as u32
        }
    }

    /// Which error kind attempt number `attempt` of this question gets.
    fn error_kind(&self, key: u64, attempt: u32) -> FaultKind {
        match self.draw(key, 2 + u64::from(attempt)) % 3 {
            0 => FaultKind::HitTimeout,
            1 => FaultKind::PlatformError,
            _ => FaultKind::WorkerAbandoned,
        }
    }

    /// Is this question's successful delivery late?
    fn late(&self, key: u64) -> bool {
        !self.late_delay.is_zero() && self.draw(key, 3) % 100 < u64::from(self.rate_pct)
    }

    /// Does this question's successful delivery arrive twice?
    fn duplicated(&self, key: u64) -> bool {
        self.duplicate_pct > 0 && self.draw(key, 4) % 100 < u64::from(self.duplicate_pct)
    }
}

/// Running tally of injected faults, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Injected HIT timeouts.
    pub timeouts: u64,
    /// Injected transient platform errors.
    pub platform_errors: u64,
    /// Injected worker abandonments.
    pub abandonments: u64,
    /// Deliveries that were delayed by `late_delay`.
    pub late_deliveries: u64,
    /// Duplicate deliveries counted and discarded.
    pub duplicates: u64,
}

impl FaultStats {
    /// Total injected faults across every kind.
    pub fn total(&self) -> u64 {
        self.timeouts
            + self.platform_errors
            + self.abandonments
            + self.late_deliveries
            + self.duplicates
    }

    fn record(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::HitTimeout => self.timeouts += 1,
            FaultKind::PlatformError => self.platform_errors += 1,
            FaultKind::WorkerAbandoned => self.abandonments += 1,
            FaultKind::LateDelivery => self.late_deliveries += 1,
            FaultKind::DuplicateDelivery => self.duplicates += 1,
        }
    }
}

/// Wraps any answer source and injects the faults a [`FaultPlan`]
/// schedules, as typed [`AskError::Transient`] errors.
///
/// A faulted attempt returns `Err` **without** consulting the wrapped
/// source, so a failed point-label chunk stays all-or-nothing.
/// Per-question attempt counters live here, so the injector observes
/// "attempt `n` of question `q`" regardless of which batch or round the
/// question rides in.
#[derive(Debug)]
pub struct FaultInjector<S> {
    inner: S,
    plan: FaultPlan,
    attempts: HashMap<u64, u32>,
    stats: FaultStats,
}

impl<S> FaultInjector<S> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            attempts: HashMap::new(),
            stats: FaultStats::default(),
        }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The wrapped source, mutably.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Unwraps the injector, returning the inner source.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// What has been injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// One delivery attempt of the question fingerprinted `key`: either
    /// injects the scheduled fault (recording it and advancing the
    /// question's attempt counter) or clears the way for the real answer,
    /// applying the late/duplicate delivery quirks.
    fn attempt(&mut self, key: u64) -> Result<(), AskError> {
        if self.plan.targeted(key) {
            let made = self.attempts.entry(key).or_insert(0);
            if *made < self.plan.fail_attempts(key) {
                *made = made.saturating_add(1);
                let attempt = *made;
                let kind = self.plan.error_kind(key, attempt);
                self.stats.record(kind);
                return Err(AskError::Transient {
                    reason: kind.reason().to_string(),
                    attempt,
                });
            }
        }
        if self.plan.late(key) {
            self.stats.record(FaultKind::LateDelivery);
            std::thread::sleep(self.plan.late_delay);
        }
        if self.plan.duplicated(key) {
            // The duplicate is "delivered": counted here, then discarded —
            // the caller only ever sees one answer.
            self.stats.record(FaultKind::DuplicateDelivery);
        }
        Ok(())
    }

    /// One delivery attempt of a whole batch: if *any* member question is
    /// still scheduled to fault, the batch fails as one (advancing every
    /// faulty member's counter) and the inner source is not consulted.
    fn attempt_batch(&mut self, keys: impl Iterator<Item = u64>) -> Result<(), AskError> {
        let mut failure: Option<(FaultKind, u32)> = None;
        let mut clear = Vec::new();
        for key in keys {
            if self.plan.targeted(key) {
                let made = self.attempts.entry(key).or_insert(0);
                if *made < self.plan.fail_attempts(key) {
                    *made = made.saturating_add(1);
                    let attempt = *made;
                    let kind = self.plan.error_kind(key, attempt);
                    self.stats.record(kind);
                    let worst = failure.map_or(0, |(_, a)| a);
                    if attempt >= worst {
                        failure = Some((kind, attempt));
                    }
                    continue;
                }
            }
            clear.push(key);
        }
        if let Some((kind, attempt)) = failure {
            return Err(AskError::Transient {
                reason: kind.reason().to_string(),
                attempt,
            });
        }
        for key in clear {
            if self.plan.late(key) {
                self.stats.record(FaultKind::LateDelivery);
                std::thread::sleep(self.plan.late_delay);
            }
            if self.plan.duplicated(key) {
                self.stats.record(FaultKind::DuplicateDelivery);
            }
        }
        Ok(())
    }
}

impl<S: AnswerSource> AnswerSource for FaultInjector<S> {
    fn try_answer_set(&mut self, objects: &[ObjectId], target: &Target) -> Result<bool, AskError> {
        self.attempt(set_key(objects, target))?;
        self.inner.try_answer_set(objects, target)
    }

    fn try_answer_point_labels(&mut self, object: ObjectId) -> Result<Labels, AskError> {
        self.attempt(point_key(object))?;
        self.inner.try_answer_point_labels(object)
    }

    fn try_answer_membership(
        &mut self,
        object: ObjectId,
        target: &Target,
    ) -> Result<bool, AskError> {
        self.attempt(membership_key(object, target))?;
        self.inner.try_answer_membership(object, target)
    }
}

impl<S: BatchAnswerSource> BatchAnswerSource for FaultInjector<S> {
    fn try_answer_point_labels_batch(
        &mut self,
        objects: &[ObjectId],
    ) -> Result<Vec<Labels>, AskError> {
        self.attempt_batch(objects.iter().map(|o| point_key(*o)))?;
        self.inner.try_answer_point_labels_batch(objects)
    }
}

// Content fingerprints: FNV-1a over a question-shape tag plus the
// question's objects and target rendering. Stable across runs, identical
// for identical questions, independent of when or in which batch the
// question arrives.

fn set_key(objects: &[ObjectId], target: &Target) -> u64 {
    fnv1a(
        [0x53]
            .into_iter()
            .chain(objects.iter().flat_map(|o| o.0.to_le_bytes()))
            .chain(target.to_string().into_bytes()),
    )
}

/// The fingerprint of a point question about `object`. The simulated
/// platform seeds its per-object crowd labeling from it too
/// (`SeedMode::PerQuestion`).
pub(crate) fn point_key(object: ObjectId) -> u64 {
    fnv1a([0x50].into_iter().chain(object.0.to_le_bytes()))
}

fn membership_key(object: ObjectId, target: &Target) -> u64 {
    fnv1a(
        [0x4d]
            .into_iter()
            .chain(object.0.to_le_bytes())
            .chain(target.to_string().into_bytes()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverage_core::engine::{GroundTruth, PerfectSource, VecGroundTruth};
    use coverage_core::pattern::Pattern;

    fn truth() -> VecGroundTruth {
        VecGroundTruth::new(
            (0..64)
                .map(|i| Labels::single(u8::from(i % 3 == 0)))
                .collect(),
        )
    }

    fn female() -> Target {
        Target::group(Pattern::parse("1").unwrap())
    }

    #[test]
    fn off_plan_is_transparent() {
        let truth = truth();
        let mut injector = FaultInjector::new(PerfectSource::new(&truth), FaultPlan::off());
        let ids = truth.all_ids();
        assert!(injector.try_answer_set(&ids, &female()).unwrap());
        assert_eq!(
            injector.try_answer_point_labels(ids[0]).unwrap(),
            truth.labels_of(ids[0])
        );
        assert_eq!(injector.stats().total(), 0);
    }

    #[test]
    fn transient_faults_clear_and_answers_are_unchanged() {
        let truth = truth();
        let ids = truth.all_ids();
        let plan = FaultPlan::transient(7, 100, 2);
        let mut injector = FaultInjector::new(PerfectSource::new(&truth), plan);
        let mut clean = PerfectSource::new(&truth);
        for &id in &ids {
            let mut attempts = 0;
            let labels = loop {
                attempts += 1;
                match injector.try_answer_point_labels(id) {
                    Ok(labels) => break labels,
                    Err(e) => assert!(e.is_transient(), "only transient faults: {e}"),
                }
            };
            assert!(attempts <= 3, "at most max_faults failed attempts");
            assert_eq!(labels, clean.try_answer_point_labels(id).unwrap());
        }
        assert!(injector.stats().total() > 0);
    }

    #[test]
    fn schedule_is_a_pure_function_of_content_not_order() {
        let truth = truth();
        let ids = truth.all_ids();
        let plan = FaultPlan::transient(42, 50, 3);
        let outcome = |order: Vec<ObjectId>| -> Vec<(ObjectId, Result<Labels, AskError>)> {
            let mut injector = FaultInjector::new(PerfectSource::new(&truth), plan.clone());
            let mut got: Vec<_> = order
                .iter()
                .map(|&id| (id, injector.try_answer_point_labels(id)))
                .collect();
            got.sort_by_key(|(id, _)| id.0);
            got
        };
        let forward = outcome(ids.clone());
        let backward = outcome(ids.iter().rev().copied().collect());
        assert_eq!(forward, backward, "first-attempt fate is order-independent");
    }

    #[test]
    fn permanent_plan_never_clears() {
        let truth = truth();
        let ids = truth.all_ids();
        let mut injector =
            FaultInjector::new(PerfectSource::new(&truth), FaultPlan::permanent(9, 100));
        for attempt in 1..50u32 {
            let err = injector.try_answer_point_labels(ids[0]).unwrap_err();
            match err {
                AskError::Transient { attempt: a, .. } => assert_eq!(a, attempt),
                other => panic!("expected transient, got {other}"),
            }
        }
    }

    #[test]
    fn failed_batch_consults_nothing_and_clears_as_one() {
        let truth = truth();
        let ids = truth.all_ids();
        let plan = FaultPlan::transient(11, 100, 1);
        let mut injector = FaultInjector::new(PerfectSource::new(&truth), plan);
        let err = injector.try_answer_point_labels_batch(&ids).unwrap_err();
        assert!(err.is_transient());
        // Every question faulted exactly once; the retry serves the batch.
        let labels = injector.try_answer_point_labels_batch(&ids).unwrap();
        assert_eq!(labels.len(), ids.len());
    }

    #[test]
    fn duplicates_are_counted_and_discarded() {
        let truth = truth();
        let ids = truth.all_ids();
        let plan = FaultPlan {
            duplicate_pct: 100,
            ..FaultPlan::off()
        };
        let mut injector = FaultInjector::new(PerfectSource::new(&truth), plan);
        let mut clean = PerfectSource::new(&truth);
        for &id in &ids {
            assert_eq!(
                injector.try_answer_point_labels(id).unwrap(),
                clean.try_answer_point_labels(id).unwrap()
            );
        }
        assert_eq!(injector.stats().duplicates, ids.len() as u64);
    }
}
