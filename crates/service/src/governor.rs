//! The budget governor: per-job and platform-wide crowd-spend caps.
//!
//! Budgets meter **crowd spend** — the residual questions that actually
//! reach the platform after the shared knowledge store has answered what it
//! can and narrowed what it half-knows — in HIT-equivalents: a set query is
//! one task (narrowed or not), point labels amortize to `1/batch` of a task
//! each (the dispatcher really does coalesce them into `batch`-image HITs).
//! Questions the store decides from facts never get here and are free; a
//! job can only exhaust its budget with genuinely fresh crowd work.
//!
//! Coverage algorithms ask questions through the fallible [`AnswerSource`]
//! interface, so exhaustion is *data*, not control flow: `GovernedSource`
//! refuses an over-budget question with
//! [`AskError::BudgetExhausted`] carrying a [`BudgetSnapshot`] of the spend
//! at that moment, the algorithm driver surfaces its partial result, and
//! the job runner reports the job
//! [`Exhausted`](crate::job::JobStatus::Exhausted). Nothing panics and no
//! unwinding crosses any layer.

use coverage_core::engine::{AnswerSource, ObjectId};
use coverage_core::error::{AskError, BudgetSnapshot};
use coverage_core::ledger::batched_tasks;
#[cfg(test)]
use coverage_core::ledger::TaskLedger;
use coverage_core::schema::Labels;
use coverage_core::target::Target;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex, PoisonError};

/// Budget caps, in crowd tasks (HIT-equivalents).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BudgetPolicy {
    /// Default cap per job; a job's own [`crate::job::JobSpec::budget`]
    /// overrides it. `None` means unlimited.
    pub per_job: Option<u64>,
    /// Cap on the whole service run's crowd spend. `None` means unlimited.
    pub global: Option<u64>,
}

impl BudgetPolicy {
    /// No caps.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Caps every job at `tasks` (unless its spec overrides).
    pub fn per_job(tasks: u64) -> Self {
        Self {
            per_job: Some(tasks),
            ..Self::default()
        }
    }

    /// Caps the whole run at `tasks`.
    pub fn global(tasks: u64) -> Self {
        Self {
            global: Some(tasks),
            ..Self::default()
        }
    }
}

/// Which cap an exhausted job ran into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BudgetScope {
    /// The job's own cap.
    Job,
    /// The service-wide cap.
    Global,
}

impl BudgetScope {
    /// Maps a core-level [`BudgetSnapshot`] back to the cap it describes:
    /// the governor marks the shared (service-wide) ledger as `shared`.
    pub(crate) fn from_snapshot(snapshot: &BudgetSnapshot) -> Self {
        if snapshot.shared {
            BudgetScope::Global
        } else {
            BudgetScope::Job
        }
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct Spend {
    set_queries: u64,
    point_labels: u64,
}

impl Spend {
    /// HIT-equivalents at the given point-batch size.
    fn tasks(&self, batch: usize) -> u64 {
        self.set_queries + batched_tasks(self.point_labels as usize, batch)
    }
}

/// Spend shared by every job of one service run.
#[derive(Debug)]
pub(crate) struct GlobalBudget {
    cap: Option<u64>,
    batch: usize,
    spend: Mutex<Spend>,
}

impl GlobalBudget {
    pub(crate) fn new(cap: Option<u64>, batch: usize) -> Arc<Self> {
        assert!(batch > 0, "point batch must be positive");
        Arc::new(Self {
            cap,
            batch,
            spend: Mutex::new(Spend::default()),
        })
    }

    /// Total crowd tasks charged so far across all jobs.
    pub(crate) fn tasks_spent(&self) -> u64 {
        self.lock().tasks(self.batch)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Spend> {
        // A job failing with `Err` never unwinds here, but a genuine panic
        // elsewhere must still not poison the shared ledger.
        self.spend.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Charges the global ledger; `Err` carries the shared-spend snapshot
    /// when the cap would be crossed.
    fn charge(&self, sets: u64, points: u64) -> Result<(), BudgetSnapshot> {
        let mut spend = self.lock();
        let mut next = *spend;
        next.set_queries += sets;
        next.point_labels += points;
        if let Some(cap) = self.cap {
            if next.tasks(self.batch) > cap {
                return Err(BudgetSnapshot {
                    spent: spend.tasks(self.batch),
                    cap,
                    shared: true,
                });
            }
        }
        *spend = next;
        Ok(())
    }

    /// Returns charged questions that were never delivered.
    fn refund(&self, sets: u64, points: u64) {
        let mut spend = self.lock();
        spend.set_queries = spend.set_queries.saturating_sub(sets);
        spend.point_labels = spend.point_labels.saturating_sub(points);
    }
}

/// One job's view of the budget: its own cap plus the shared global ledger.
#[derive(Debug, Clone)]
pub(crate) struct JobBudget {
    cap: Option<u64>,
    global: Arc<GlobalBudget>,
    spend: Arc<Mutex<Spend>>,
}

impl JobBudget {
    pub(crate) fn new(cap: Option<u64>, global: Arc<GlobalBudget>) -> Self {
        Self {
            cap,
            global,
            spend: Arc::new(Mutex::new(Spend::default())),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Spend> {
        self.spend.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Crowd tasks this job has charged.
    pub(crate) fn tasks_spent(&self) -> u64 {
        self.lock().tasks(self.global.batch)
    }

    /// The job's crowd spend as a [`TaskLedger`] (point tasks amortized at
    /// the dispatcher's batch size). The job runner reports the engine's
    /// live logical ledger instead (the fallible ask path keeps the engine
    /// alive through exhaustion), so this view is for inspection only.
    #[cfg(test)]
    pub(crate) fn ledger(&self) -> TaskLedger {
        let spend = *self.lock();
        let mut ledger = TaskLedger::new();
        for _ in 0..spend.set_queries {
            ledger.record_set_query();
        }
        ledger.record_point_work(
            spend.point_labels,
            batched_tasks(spend.point_labels as usize, self.global.batch),
        );
        ledger
    }

    /// Charges this job (and the global ledger); `Err` with
    /// [`AskError::BudgetExhausted`] when a cap would be crossed.
    fn charge(&self, sets: u64, points: u64) -> Result<(), AskError> {
        // A rejected question must not count toward the job's spend on
        // either refusal path, so the local commit happens only after both
        // caps admit it. Lock order is job → global; nothing takes them in
        // reverse, and the job lock is effectively uncontended (one thread
        // runs a job).
        let mut spend = self.lock();
        let mut next = *spend;
        next.set_queries += sets;
        next.point_labels += points;
        if let Some(cap) = self.cap {
            if next.tasks(self.global.batch) > cap {
                let snapshot = BudgetSnapshot {
                    spent: spend.tasks(self.global.batch),
                    cap,
                    shared: false,
                };
                return Err(AskError::BudgetExhausted(snapshot));
            }
        }
        if let Err(snapshot) = self.global.charge(sets, points) {
            return Err(AskError::BudgetExhausted(snapshot));
        }
        *spend = next;
        Ok(())
    }

    /// Charges `count` questions of `sets` set queries and `points` labels
    /// each, one at a time, in order, until a cap refuses one: the number
    /// admitted, and the refusal if there was one.
    fn charge_each(&self, count: usize, sets: u64, points: u64) -> (usize, Option<AskError>) {
        for admitted in 0..count {
            if let Err(refusal) = self.charge(sets, points) {
                return (admitted, Some(refusal));
            }
        }
        (count, None)
    }

    /// Returns charged questions that were never delivered, on both
    /// ledgers.
    fn refund(&self, sets: u64, points: u64) {
        if sets == 0 && points == 0 {
            return;
        }
        let mut spend = self.lock();
        spend.set_queries = spend.set_queries.saturating_sub(sets);
        spend.point_labels = spend.point_labels.saturating_sub(points);
        self.global.refund(sets, points);
    }
}

/// Wraps a job's connection to the platform with budget enforcement. Sits
/// **below** the shared knowledge store, so only the residual questions the
/// store could not answer are charged.
#[derive(Debug, Clone)]
pub(crate) struct GovernedSource<S> {
    inner: S,
    budget: JobBudget,
}

impl<S> GovernedSource<S> {
    pub(crate) fn new(inner: S, budget: JobBudget) -> Self {
        Self { inner, budget }
    }
}

impl<S: AnswerSource> AnswerSource for GovernedSource<S> {
    fn try_answer_set(&mut self, objects: &[ObjectId], target: &Target) -> Result<bool, AskError> {
        self.budget.charge(1, 0)?;
        self.inner.try_answer_set(objects, target)
    }

    fn try_answer_point_labels(&mut self, object: ObjectId) -> Result<Labels, AskError> {
        self.budget.charge(0, 1)?;
        self.inner.try_answer_point_labels(object)
    }

    /// Charges the round object by object, in order, forwards the admitted
    /// prefix in one inner round and then returns the refusal — so at any
    /// cap the spend and the delivered prefix equal one-at-a-time asking.
    /// When the inner source fails partway, the objects behind the failed
    /// one were never delivered and their charge is returned; the failed
    /// question itself stays charged, as on the one-at-a-time path.
    ///
    /// Membership questions and rounds keep the default bodies, which ask
    /// (and charge) one point label per object; the shared knowledge store
    /// above this layer answers them through this labels round.
    fn try_answer_point_labels_many(
        &mut self,
        objects: &[ObjectId],
        out: &mut Vec<Labels>,
    ) -> Result<(), AskError> {
        let (admitted, refusal) = self.budget.charge_each(objects.len(), 0, 1);
        let before = out.len();
        let result = self
            .inner
            .try_answer_point_labels_many(&objects[..admitted], out);
        let undelivered = undelivered(admitted, out.len() - before, &result);
        self.budget.refund(0, undelivered);
        result.and(refusal.map_or(Ok(()), Err))
    }

    /// Charges the round set by set, in order, exactly as the point round
    /// is charged object by object: the admitted prefix is forwarded in one
    /// inner round, and sets that were never delivered are refunded.
    fn try_answer_sets(
        &mut self,
        sets: &[&[ObjectId]],
        target: &Target,
        out: &mut Vec<bool>,
    ) -> Result<(), AskError> {
        let (admitted, refusal) = self.budget.charge_each(sets.len(), 1, 0);
        let before = out.len();
        let result = self.inner.try_answer_sets(&sets[..admitted], target, out);
        let undelivered = undelivered(admitted, out.len() - before, &result);
        self.budget.refund(undelivered, 0);
        result.and(refusal.map_or(Ok(()), Err))
    }
}

/// How many of `admitted` charged questions were never delivered by an
/// inner round that answered `answered` of them: none on success; on a
/// failure, the ones behind the failed question (which stays charged, as
/// on the one-at-a-time path).
fn undelivered(admitted: usize, answered: usize, result: &Result<(), AskError>) -> u64 {
    match result {
        Ok(()) => 0,
        Err(_) => admitted.saturating_sub(answered + 1) as u64,
    }
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

    fn female() -> Target {
        Target::group(Pattern::parse("1").unwrap())
    }

    #[test]
    fn spend_amortizes_points() {
        let s = Spend {
            set_queries: 3,
            point_labels: 120,
        };
        assert_eq!(s.tasks(50), 3 + 3); // ceil(120/50) = 3
    }

    #[test]
    fn under_budget_passes_through() {
        let t = truth(100, 10);
        let global = GlobalBudget::new(Some(100), 50);
        let budget = JobBudget::new(Some(10), Arc::clone(&global));
        let mut src = GovernedSource::new(PerfectSource::new(&t), budget.clone());
        let ids = t.all_ids();
        assert!(src.try_answer_set(&ids, &female()).unwrap());
        for id in &ids[..50] {
            src.try_answer_point_labels(*id).unwrap();
        }
        assert_eq!(budget.tasks_spent(), 2); // 1 set + ceil(50/50)
        assert_eq!(global.tasks_spent(), 2);
        let ledger = budget.ledger();
        assert_eq!(ledger.set_queries(), 1);
        assert_eq!(ledger.point_labels(), 50);
        assert_eq!(ledger.total_tasks(), 2);
    }

    #[test]
    fn job_cap_refuses_with_snapshot() {
        let t = truth(10, 2);
        let global = GlobalBudget::new(None, 50);
        let budget = JobBudget::new(Some(2), global);
        let mut src = GovernedSource::new(PerfectSource::new(&t), budget.clone());
        let ids = t.all_ids();
        src.try_answer_set(&ids, &female()).unwrap();
        src.try_answer_set(&ids[..5], &female()).unwrap();
        let err = src.try_answer_set(&ids[5..], &female()).unwrap_err();
        match err {
            AskError::BudgetExhausted(snapshot) => {
                assert_eq!(snapshot.spent, 2);
                assert_eq!(snapshot.cap, 2);
                assert!(!snapshot.shared);
                assert_eq!(BudgetScope::from_snapshot(&snapshot), BudgetScope::Job);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        // The refused question was not charged.
        assert_eq!(budget.tasks_spent(), 2);
    }

    #[test]
    fn round_under_any_cap_matches_one_at_a_time() {
        let t = truth(200, 40);
        let ids = t.all_ids();
        for cap in 0..5u64 {
            let round_budget = JobBudget::new(Some(cap), GlobalBudget::new(None, 50));
            let mut round = GovernedSource::new(PerfectSource::new(&t), round_budget.clone());
            let mut got = Vec::new();
            let round_result = round.try_answer_point_labels_many(&ids, &mut got);

            let single_budget = JobBudget::new(Some(cap), GlobalBudget::new(None, 50));
            let mut single = GovernedSource::new(PerfectSource::new(&t), single_budget.clone());
            let mut want = Vec::new();
            let mut single_result = Ok(());
            for id in &ids {
                match single.try_answer_point_labels(*id) {
                    Ok(l) => want.push(l),
                    Err(e) => {
                        single_result = Err(e);
                        break;
                    }
                }
            }
            assert_eq!(got, want, "cap {cap}");
            assert_eq!(round_result, single_result, "cap {cap}");
            assert_eq!(round_budget.ledger(), single_budget.ledger(), "cap {cap}");
            assert_eq!(got.len() as u64, (cap * 50).min(200));
        }
    }

    /// Refuses point questions from the `fail_at`-th on.
    struct FailsAt<'a> {
        inner: PerfectSource<'a, VecGroundTruth>,
        fail_at: usize,
        asked: usize,
    }

    impl AnswerSource for FailsAt<'_> {
        fn try_answer_set(&mut self, o: &[ObjectId], t: &Target) -> Result<bool, AskError> {
            self.inner.try_answer_set(o, t)
        }

        fn try_answer_point_labels(&mut self, object: ObjectId) -> Result<Labels, AskError> {
            self.asked += 1;
            if self.asked > self.fail_at {
                return Err(AskError::SourceFailed("down".into()));
            }
            self.inner.try_answer_point_labels(object)
        }
    }

    #[test]
    fn failed_round_keeps_only_the_one_at_a_time_charge() {
        let t = truth(100, 10);
        let ids = t.all_ids();
        let global = GlobalBudget::new(None, 1);
        let budget = JobBudget::new(None, Arc::clone(&global));
        let mut src = GovernedSource::new(
            FailsAt {
                inner: PerfectSource::new(&t),
                fail_at: 6,
                asked: 0,
            },
            budget.clone(),
        );
        let mut out = Vec::new();
        let err = src
            .try_answer_point_labels_many(&ids[..40], &mut out)
            .unwrap_err();
        assert!(matches!(err, AskError::SourceFailed(_)));
        assert_eq!(out, vec![Labels::single(1); 6]);
        // Six answered plus the failed seventh, as asking one at a time
        // would have charged; the 33 never asked are refunded.
        assert_eq!(budget.tasks_spent(), 7);
        assert_eq!(global.tasks_spent(), 7);
    }

    /// Records every set round it is asked and fails set queries from the
    /// `fail_at`-th on.
    struct SetRounds<'a> {
        inner: PerfectSource<'a, VecGroundTruth>,
        rounds: Vec<usize>,
        fail_at: usize,
        asked: usize,
    }

    impl AnswerSource for SetRounds<'_> {
        fn try_answer_set(&mut self, o: &[ObjectId], t: &Target) -> Result<bool, AskError> {
            self.asked += 1;
            if self.asked > self.fail_at {
                return Err(AskError::SourceFailed("down".into()));
            }
            self.inner.try_answer_set(o, t)
        }

        fn try_answer_point_labels(&mut self, object: ObjectId) -> Result<Labels, AskError> {
            self.inner.try_answer_point_labels(object)
        }

        fn try_answer_sets(
            &mut self,
            sets: &[&[ObjectId]],
            target: &Target,
            out: &mut Vec<bool>,
        ) -> Result<(), AskError> {
            self.rounds.push(sets.len());
            for objects in sets {
                out.push(self.try_answer_set(objects, target)?);
            }
            Ok(())
        }
    }

    #[test]
    fn cap_inside_a_set_round_charges_and_forwards_only_the_prefix() {
        let t = truth(100, 30);
        let ids = t.all_ids();
        let sets: Vec<&[ObjectId]> = ids.chunks(10).collect();
        for cap in 0..12u64 {
            let budget = JobBudget::new(Some(cap), GlobalBudget::new(None, 50));
            let mut round = GovernedSource::new(
                SetRounds {
                    inner: PerfectSource::new(&t),
                    rounds: Vec::new(),
                    fail_at: usize::MAX,
                    asked: 0,
                },
                budget.clone(),
            );
            let mut got = Vec::new();
            let result = round.try_answer_sets(&sets, &female(), &mut got);

            let single_budget = JobBudget::new(Some(cap), GlobalBudget::new(None, 50));
            let mut single = GovernedSource::new(PerfectSource::new(&t), single_budget.clone());
            let mut want = Vec::new();
            let mut single_result = Ok(());
            for objects in &sets {
                match single.try_answer_set(objects, &female()) {
                    Ok(ans) => want.push(ans),
                    Err(e) => {
                        single_result = Err(e);
                        break;
                    }
                }
            }
            let admitted = (cap as usize).min(sets.len());
            assert_eq!(got, want, "cap {cap}");
            assert_eq!(result, single_result, "cap {cap}");
            assert_eq!(budget.ledger(), single_budget.ledger(), "cap {cap}");
            assert_eq!(budget.tasks_spent(), admitted as u64);
            // Only the admitted prefix reached the inner source, in one round.
            assert_eq!(round.inner.rounds, vec![admitted], "cap {cap}");
        }
    }

    #[test]
    fn failed_set_round_keeps_only_the_one_at_a_time_charge() {
        let t = truth(100, 30);
        let ids = t.all_ids();
        let sets: Vec<&[ObjectId]> = ids.chunks(10).collect();
        let global = GlobalBudget::new(None, 50);
        let budget = JobBudget::new(None, Arc::clone(&global));
        let mut src = GovernedSource::new(
            SetRounds {
                inner: PerfectSource::new(&t),
                rounds: Vec::new(),
                fail_at: 4,
                asked: 0,
            },
            budget.clone(),
        );
        let mut out = Vec::new();
        let err = src.try_answer_sets(&sets, &female(), &mut out).unwrap_err();
        assert!(matches!(err, AskError::SourceFailed(_)));
        assert_eq!(out, vec![true, true, true, false]);
        // Four answered plus the failed fifth; the five never asked are
        // refunded on both ledgers.
        assert_eq!(budget.tasks_spent(), 5);
        assert_eq!(global.tasks_spent(), 5);
    }

    #[test]
    fn global_cap_spans_jobs() {
        let t = truth(10, 2);
        let global = GlobalBudget::new(Some(3), 50);
        let mut a = GovernedSource::new(
            PerfectSource::new(&t),
            JobBudget::new(None, Arc::clone(&global)),
        );
        let mut b = GovernedSource::new(
            PerfectSource::new(&t),
            JobBudget::new(None, Arc::clone(&global)),
        );
        let ids = t.all_ids();
        a.try_answer_set(&ids, &female()).unwrap();
        b.try_answer_set(&ids, &female()).unwrap();
        a.try_answer_set(&ids, &female()).unwrap();
        let err = b.try_answer_set(&ids, &female()).unwrap_err();
        match err {
            AskError::BudgetExhausted(snapshot) => {
                assert!(snapshot.shared);
                assert_eq!(snapshot.cap, 3);
                assert_eq!(BudgetScope::from_snapshot(&snapshot), BudgetScope::Global);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        assert_eq!(global.tasks_spent(), 3);
        // The rejected question is charged on neither ledger: per-job spend
        // sums to the global bill.
        let spent_a = a.budget.tasks_spent();
        let spent_b = b.budget.tasks_spent();
        assert_eq!(spent_a, 2);
        assert_eq!(spent_b, 1, "global refusal must not charge the job");
        assert_eq!(spent_a + spent_b, global.tasks_spent());
    }
}
