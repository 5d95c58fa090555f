//! The simulated crowdsourcing platform.
//!
//! [`MTurkSim`] wires everything together: it screens the worker pool with
//! the configured quality controls, and for every question publishes a HIT,
//! collects `k` assignments from distinct eligible workers, and aggregates
//! them by majority vote — exactly the paper's §6.3.1 pipeline. It
//! implements `coverage-core`'s `AnswerSource`, so an
//! `Engine<MTurkSim<_>>` runs any coverage algorithm against the simulated
//! crowd while the engine's ledger meters HITs.

use crate::faults::point_key;
use crate::pool::WorkerPool;
use crate::quality::QualityControl;
use crate::truth::{majority_label, majority_vote};
use coverage_core::engine::{AnswerSource, BatchAnswerSource, GroundTruth, ObjectId};
use coverage_core::error::AskError;
use coverage_core::ledger::batched_tasks;
use coverage_core::schema::{AttributeSchema, Labels};
use coverage_core::target::Target;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// How the platform draws per-answer randomness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SeedMode {
    /// One sequential stream (the default): each answer consumes the next
    /// values of the platform RNG, so answers depend on the order in which
    /// questions arrive.
    #[default]
    Stream,
    /// Every answer derives from one **latent crowd labeling**: for each
    /// object, the `k` assigned workers and their (possibly wrong) label
    /// votes are a pure function of `(platform seed, object)`, and every
    /// question type answers from the aggregated latent label — a point
    /// query returns it, a membership question matches the target against
    /// it, and a set query reports whether *any* image's latent label
    /// matches. The platform thus behaves as a **consistent noisy oracle**:
    /// answers are order-independent *and* mutually consistent, which is
    /// what lets `coverage-service` both reproduce concurrent audits
    /// exactly and decompose set queries through the shared
    /// `KnowledgeStore` (a pruned known-non-member can never change the
    /// answer). The trade-off versus [`SeedMode::Stream`]: worker rotation
    /// and the per-scan `set_miss`/`set_false_alarm` error channels are
    /// given up for that consistency.
    PerQuestion,
}

/// Counters the platform keeps while serving HITs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlatformStats {
    /// HITs physically published (one per question, or one per coalesced
    /// point batch). Compare across runs of the *same* path only; for
    /// path-independent dollar accounting use [`PlatformStats::wage_tasks`].
    pub hits_published: u64,
    /// Assignments collected (HITs × assignments each).
    pub assignments_collected: u64,
    /// Individual answers disagreeing with ground truth (the paper
    /// observed 1.36 % of 660 answers).
    pub wrong_individual_answers: u64,
    /// Aggregated (post-majority-vote) answers disagreeing with ground truth.
    pub wrong_aggregated_answers: u64,
    /// Set-query and membership HITs published (always one question each).
    pub query_hits: u64,
    /// Individual images labeled through point HITs, whether they arrived
    /// one per HIT or coalesced into a batch.
    pub point_images: u64,
}

impl PlatformStats {
    /// The run's wage bill in HIT-equivalents at the canonical batch size:
    /// one task per set/membership query plus `⌈images / point_batch⌉`
    /// point tasks. Unlike [`PlatformStats::hits_published`], this is
    /// **independent of how point questions were grouped into calls**, so
    /// the coalesced-batch path and one-question-at-a-time serving price
    /// the same answered questions identically (feed it to
    /// [`coverage_core::ledger::PricingModel::total_cost_for_tasks`]).
    pub fn wage_tasks(&self, point_batch: usize) -> u64 {
        self.query_hits + batched_tasks(self.point_images as usize, point_batch)
    }

    /// Fraction of individual answers that were wrong.
    pub fn individual_error_rate(&self) -> f64 {
        if self.assignments_collected == 0 {
            0.0
        } else {
            self.wrong_individual_answers as f64 / self.assignments_collected as f64
        }
    }

    /// Fraction of aggregated answers that were wrong.
    pub fn aggregated_error_rate(&self) -> f64 {
        if self.hits_published == 0 {
            0.0
        } else {
            self.wrong_aggregated_answers as f64 / self.hits_published as f64
        }
    }
}

/// A simulated Amazon-Mechanical-Turk-style platform over a ground truth.
#[derive(Debug, Clone)]
pub struct MTurkSim<'a, G: GroundTruth> {
    truth: &'a G,
    schema: AttributeSchema,
    pool: WorkerPool,
    qc: QualityControl,
    eligible: Vec<usize>,
    rng: SmallRng,
    seed: u64,
    mode: SeedMode,
    stats: PlatformStats,
    // Memo of the latent per-object votes and their aggregated label under
    // `SeedMode::PerQuestion`: both are pure functions of (seed, object),
    // and set queries revisit the same objects many times as group_coverage
    // halves its sets.
    vote_cache: HashMap<ObjectId, (Vec<Labels>, Labels)>,
}

impl<'a, G: GroundTruth> MTurkSim<'a, G> {
    /// Builds a platform: screens `pool` through the quality controls and
    /// seeds the answer randomness.
    ///
    /// # Panics
    /// Panics when fewer eligible workers remain than assignments per HIT.
    pub fn new(
        truth: &'a G,
        schema: AttributeSchema,
        pool: WorkerPool,
        qc: QualityControl,
        seed: u64,
    ) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut eligible: Vec<usize> = Vec::with_capacity(pool.len());
        for (i, w) in pool.workers().iter().enumerate() {
            if let Some(rating) = &qc.rating {
                if !rating.admits(w) {
                    continue;
                }
            }
            if let Some(test) = &qc.qualification {
                if !test.passes(w, &mut rng) {
                    continue;
                }
            }
            eligible.push(i);
        }
        assert!(
            eligible.len() >= qc.assignments_per_hit.get(),
            "only {} eligible workers for {} assignments per HIT",
            eligible.len(),
            qc.assignments_per_hit.get()
        );
        Self {
            truth,
            schema,
            pool,
            qc,
            eligible,
            rng,
            seed,
            mode: SeedMode::default(),
            stats: PlatformStats::default(),
            vote_cache: HashMap::new(),
        }
    }

    /// Builds a platform in [`SeedMode::PerQuestion`]: every answer derives
    /// from one latent crowd labeling that is a pure function of
    /// `(seed, object)`, so any interleaving of questions — including
    /// concurrent audits multiplexed through `coverage-service` — reproduces
    /// the same answers, and set/membership/point answers about the same
    /// objects never contradict each other (the consistency the
    /// `KnowledgeStore` reuse layer relies on to narrow set queries).
    /// Worker assignment is drawn per object from the derived stream
    /// (rather than rotating through one sequential stream), which trades a
    /// little assignment realism for reproducibility.
    pub fn new_deterministic(
        truth: &'a G,
        schema: AttributeSchema,
        pool: WorkerPool,
        qc: QualityControl,
        seed: u64,
    ) -> Self {
        let mut sim = Self::new(truth, schema, pool, qc, seed);
        sim.mode = SeedMode::PerQuestion;
        sim
    }

    /// The configured seed mode.
    pub fn seed_mode(&self) -> SeedMode {
        self.mode
    }

    /// How many workers survived screening.
    pub fn eligible_workers(&self) -> usize {
        self.eligible.len()
    }

    /// Running statistics.
    pub fn stats(&self) -> &PlatformStats {
        &self.stats
    }

    /// Resets the statistics (e.g. between experiment arms).
    pub fn reset_stats(&mut self) {
        self.stats = PlatformStats::default();
    }

    /// The RNG for one question under [`SeedMode::PerQuestion`].
    fn question_rng(&self, question_hash: u64) -> SmallRng {
        SmallRng::seed_from_u64(self.seed ^ question_hash)
    }

    /// The `k` individual label votes for one object and their
    /// majority-aggregated label under [`SeedMode::PerQuestion`] — the
    /// latent crowd labeling from which every deterministic answer (point,
    /// membership, set) is derived. Worker assignment and their errors are
    /// a pure function of `(seed, object)`, so both are computed once per
    /// object, memoized, and handed out by reference (set queries revisit
    /// the same objects on every halving).
    fn latent(&mut self, object: ObjectId) -> &(Vec<Labels>, Labels) {
        if !self.vote_cache.contains_key(&object) {
            let truth_labels = self.truth.labels_of(object);
            let k = self.qc.assignments_per_hit.get();
            // Seeded by the object's point-question fingerprint: all
            // randomness derives from the *object* (not the question
            // shape), which is what keeps set, membership and point
            // answers mutually consistent.
            let rng = &mut self.question_rng(point_key(object));
            let workers = self.pool.assign(&self.eligible, k, rng);
            let votes: Vec<Labels> = workers
                .iter()
                .map(|&w| {
                    self.pool
                        .worker(w)
                        .answer_point(&truth_labels, &self.schema, rng)
                })
                .collect();
            let agg = majority_label(&votes);
            self.vote_cache.insert(object, (votes, agg));
        }
        &self.vote_cache[&object]
    }

    /// Rejects questions about objects the dataset does not contain. A bad
    /// id is a data-dependent failure of the *question*, not a platform
    /// bug, so it surfaces as [`AskError::SourceFailed`] and fails only the
    /// asking job — never a panic unwinding through a serving layer.
    fn check_ids(&self, objects: &[ObjectId]) -> Result<(), AskError> {
        let n = self.truth.num_objects();
        match objects.iter().find(|o| o.index() >= n) {
            Some(bad) => Err(AskError::SourceFailed(format!(
                "the platform failed to answer this question: object {bad} is out of range for a {n}-object dataset"
            ))),
            None => Ok(()),
        }
    }
}

/// One HIT round: assigns `k` workers with `rng`, collects one answer each
/// via `answer`, and majority-votes. Returns the aggregate and how many
/// individual votes disagreed with `truth_answer`. Free function so callers
/// can pass the platform's own stream RNG while borrowing its other fields.
fn vote_round<A: PartialEq>(
    pool: &WorkerPool,
    eligible: &[usize],
    k: usize,
    rng: &mut SmallRng,
    truth_answer: &A,
    aggregate: impl Fn(&[A]) -> A,
    mut answer: impl FnMut(&WorkerPool, usize, &mut SmallRng) -> A,
) -> (A, u64) {
    let workers = pool.assign(eligible, k, rng);
    let mut votes = Vec::with_capacity(workers.len());
    let mut wrong = 0u64;
    for w in workers {
        let ans = answer(pool, w, rng);
        if ans != *truth_answer {
            wrong += 1;
        }
        votes.push(ans);
    }
    (aggregate(&votes), wrong)
}

impl<G: GroundTruth> AnswerSource for MTurkSim<'_, G> {
    fn try_answer_set(&mut self, objects: &[ObjectId], target: &Target) -> Result<bool, AskError> {
        self.check_ids(objects)?;
        Ok(self.serve_set(objects, target))
    }

    fn try_answer_point_labels(&mut self, object: ObjectId) -> Result<Labels, AskError> {
        self.check_ids(&[object])?;
        Ok(self.serve_point_labels(object))
    }

    fn try_answer_membership(
        &mut self,
        object: ObjectId,
        target: &Target,
    ) -> Result<bool, AskError> {
        self.check_ids(&[object])?;
        Ok(self.serve_membership(object, target))
    }
}

/// The simulation itself, over validated ids (these would panic on an
/// out-of-range id; the `AnswerSource` impl screens ids first).
impl<G: GroundTruth> MTurkSim<'_, G> {
    fn serve_set(&mut self, objects: &[ObjectId], target: &Target) -> bool {
        let members_present = objects
            .iter()
            .filter(|o| target.matches(&self.truth.labels_of(**o)))
            .count();
        let truth_answer = members_present > 0;
        let k = self.qc.assignments_per_hit.get();
        let (agg, wrong) = match self.mode {
            SeedMode::Stream => vote_round(
                &self.pool,
                &self.eligible,
                k,
                &mut self.rng,
                &truth_answer,
                majority_vote,
                |pool, w, rng| pool.worker(w).answer_set(members_present, rng),
            ),
            SeedMode::PerQuestion => {
                // The consistent-crowd model: the set holds a member iff
                // some image's latent label matches the target. Each
                // assignment slot's own scan (slot j spotting a member iff
                // its vote on some image matches) is reconstructed for the
                // per-worker error statistics.
                let mut slot_yes = vec![false; k];
                let mut agg = false;
                for &object in objects {
                    let (votes, latent_label) = self.latent(object);
                    for (slot, vote) in votes.iter().enumerate() {
                        slot_yes[slot] |= target.matches(vote);
                    }
                    agg |= target.matches(latent_label);
                }
                let wrong = slot_yes.iter().filter(|y| **y != truth_answer).count() as u64;
                (agg, wrong)
            }
        };
        self.stats.assignments_collected += k as u64;
        self.stats.wrong_individual_answers += wrong;
        self.stats.hits_published += 1;
        self.stats.query_hits += 1;
        if agg != truth_answer {
            self.stats.wrong_aggregated_answers += 1;
        }
        agg
    }

    fn serve_point_labels(&mut self, object: ObjectId) -> Labels {
        let truth_labels = self.truth.labels_of(object);
        let k = self.qc.assignments_per_hit.get();
        let (agg, wrong) = match self.mode {
            SeedMode::Stream => vote_round(
                &self.pool,
                &self.eligible,
                k,
                &mut self.rng,
                &truth_labels,
                majority_label,
                |pool, w, rng| {
                    pool.worker(w)
                        .answer_point(&truth_labels, &self.schema, rng)
                },
            ),
            SeedMode::PerQuestion => {
                let (votes, latent_label) = self.latent(object);
                let wrong = votes.iter().filter(|v| **v != truth_labels).count() as u64;
                (*latent_label, wrong)
            }
        };
        self.stats.assignments_collected += k as u64;
        self.stats.wrong_individual_answers += wrong;
        self.stats.hits_published += 1;
        self.stats.point_images += 1;
        if agg != truth_labels {
            self.stats.wrong_aggregated_answers += 1;
        }
        agg
    }

    fn serve_membership(&mut self, object: ObjectId, target: &Target) -> bool {
        let truth_labels = self.truth.labels_of(object);
        let truth_answer = target.matches(&truth_labels);
        let k = self.qc.assignments_per_hit.get();
        let (agg, wrong) = match self.mode {
            SeedMode::Stream => vote_round(
                &self.pool,
                &self.eligible,
                k,
                &mut self.rng,
                &truth_answer,
                majority_vote,
                |pool, w, rng| {
                    pool.worker(w)
                        .answer_membership(&truth_labels, target, &self.schema, rng)
                },
            ),
            SeedMode::PerQuestion => {
                // Derived from the same latent labeling as a point query,
                // so a membership answer can never contradict a label.
                let (votes, latent_label) = self.latent(object);
                let wrong = votes
                    .iter()
                    .filter(|v| target.matches(v) != truth_answer)
                    .count() as u64;
                (target.matches(latent_label), wrong)
            }
        };
        self.stats.assignments_collected += k as u64;
        self.stats.wrong_individual_answers += wrong;
        self.stats.hits_published += 1;
        self.stats.query_hits += 1;
        if agg != truth_answer {
            self.stats.wrong_aggregated_answers += 1;
        }
        agg
    }
}

impl<G: GroundTruth> BatchAnswerSource for MTurkSim<'_, G> {
    /// The paper's actual HIT layout: one published HIT carries the whole
    /// coalesced batch of images, and each of the `k` assigned workers
    /// labels every image in it. The batch is charged as **one** published
    /// HIT with `k` assignments — this is what the `coverage-service`
    /// dispatcher amortizes across concurrent audits.
    ///
    /// Accounting: `wrong_individual_answers` counts assignment slots whose
    /// worker mislabeled at least one image of the HIT, and
    /// `wrong_aggregated_answers` counts HITs where at least one aggregated
    /// label was wrong, keeping both counters per-HIT like the rest of the
    /// stats. In [`SeedMode::PerQuestion`] each image's votes derive from
    /// its own question seed (so batch grouping never changes an answer);
    /// in [`SeedMode::Stream`] one worker set serves the whole HIT.
    ///
    /// All-or-nothing: a single out-of-range id fails the whole batch (no
    /// HIT is published) with [`AskError::SourceFailed`].
    fn try_answer_point_labels_batch(
        &mut self,
        objects: &[ObjectId],
    ) -> Result<Vec<Labels>, AskError> {
        self.check_ids(objects)?;
        if objects.is_empty() {
            return Ok(Vec::new());
        }
        let k = self.qc.assignments_per_hit.get();
        let mut out = Vec::with_capacity(objects.len());
        let mut wrong_slots = vec![false; k];
        let mut any_agg_wrong = false;
        match self.mode {
            SeedMode::Stream => {
                let workers = self.pool.assign(&self.eligible, k, &mut self.rng);
                for &object in objects {
                    let truth_labels = self.truth.labels_of(object);
                    let mut votes = Vec::with_capacity(k);
                    for (slot, &w) in workers.iter().enumerate() {
                        let ans = self.pool.worker(w).answer_point(
                            &truth_labels,
                            &self.schema,
                            &mut self.rng,
                        );
                        wrong_slots[slot] |= ans != truth_labels;
                        votes.push(ans);
                    }
                    let agg = majority_label(&votes);
                    any_agg_wrong |= agg != truth_labels;
                    out.push(agg);
                }
            }
            SeedMode::PerQuestion => {
                for &object in objects {
                    let truth_labels = self.truth.labels_of(object);
                    let (votes, latent_label) = self.latent(object);
                    for (slot, ans) in votes.iter().enumerate() {
                        wrong_slots[slot] |= *ans != truth_labels;
                    }
                    any_agg_wrong |= *latent_label != truth_labels;
                    out.push(*latent_label);
                }
            }
        }
        self.stats.hits_published += 1;
        self.stats.point_images += objects.len() as u64;
        self.stats.assignments_collected += k as u64;
        self.stats.wrong_individual_answers += wrong_slots.iter().filter(|w| **w).count() as u64;
        self.stats.wrong_aggregated_answers += u64::from(any_agg_wrong);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;
    use coverage_core::engine::{Engine, VecGroundTruth};
    use coverage_core::group_coverage::{group_coverage, DncConfig};
    use coverage_core::pattern::Pattern;

    fn truth_with_minority(n: usize, minority: usize) -> VecGroundTruth {
        VecGroundTruth::new(
            (0..n)
                .map(|i| Labels::single(u8::from(i < minority)))
                .collect(),
        )
    }

    fn gender_schema() -> AttributeSchema {
        AttributeSchema::single_binary("gender", "male", "female")
    }

    fn female() -> Target {
        Target::group(Pattern::parse("1").unwrap())
    }

    fn platform<'a>(
        truth: &'a VecGroundTruth,
        qc: QualityControl,
        seed: u64,
    ) -> MTurkSim<'a, VecGroundTruth> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pool = WorkerPool::generate(&PoolConfig::default(), &mut rng);
        MTurkSim::new(truth, gender_schema(), pool, qc, seed)
    }

    #[test]
    fn set_queries_are_mostly_right_after_aggregation() {
        let truth = truth_with_minority(1000, 100);
        let mut sim = platform(&truth, QualityControl::with_rating(), 7);
        let ids = truth.all_ids();
        let mut wrong = 0;
        for chunk in ids.chunks(50) {
            let want = chunk
                .iter()
                .any(|o| truth.labels_of(*o) == Labels::single(1));
            if sim.try_answer_set(chunk, &female()).unwrap() != want {
                wrong += 1;
            }
        }
        assert!(wrong <= 1, "{wrong} aggregated set answers wrong");
        assert_eq!(sim.stats().hits_published, 20);
        assert_eq!(sim.stats().assignments_collected, 60);
    }

    #[test]
    fn rating_filter_reduces_individual_error() {
        let truth = truth_with_minority(2000, 300);
        let run = |qc: QualityControl| {
            let mut sim = platform(&truth, qc, 11);
            let ids = truth.all_ids();
            for chunk in ids.chunks(50) {
                sim.try_answer_set(chunk, &female()).unwrap();
            }
            sim.stats().individual_error_rate()
        };
        let plain = run(QualityControl::majority_vote_only());
        let rated = run(QualityControl::with_rating());
        assert!(
            rated <= plain + 0.005,
            "rating filter should not raise error: {rated} vs {plain}"
        );
    }

    #[test]
    fn individual_error_rate_is_paper_scale() {
        // With the default pool and rating QC, individual errors should be
        // small single-digit percent (the paper saw 1.36%).
        let truth = truth_with_minority(3000, 400);
        let mut sim = platform(&truth, QualityControl::with_rating(), 3);
        let ids = truth.all_ids();
        for chunk in ids.chunks(50) {
            sim.try_answer_set(chunk, &female()).unwrap();
        }
        let rate = sim.stats().individual_error_rate();
        assert!(rate < 0.05, "individual error rate {rate}");
    }

    #[test]
    fn point_labels_aggregate_correctly() {
        let truth = truth_with_minority(50, 25);
        let mut sim = platform(&truth, QualityControl::with_rating(), 5);
        let mut wrong = 0;
        for id in truth.ids() {
            if sim.try_answer_point_labels(id).unwrap() != truth.labels_of(id) {
                wrong += 1;
            }
        }
        assert!(wrong <= 1, "{wrong} aggregated labels wrong");
    }

    #[test]
    fn membership_answers_work() {
        let truth = truth_with_minority(10, 5);
        let mut sim = platform(&truth, QualityControl::majority_vote_only(), 9);
        let yes = sim.try_answer_membership(ObjectId(0), &female()).unwrap();
        let no = sim.try_answer_membership(ObjectId(9), &female()).unwrap();
        assert!(yes);
        assert!(!no);
    }

    #[test]
    fn group_coverage_runs_end_to_end_on_the_crowd() {
        // The full stack: algorithm → engine → platform → workers.
        let truth = truth_with_minority(1522, 215);
        let sim = platform(&truth, QualityControl::with_rating(), 13);
        let mut engine = Engine::with_point_batch(sim, 50);
        let out = group_coverage(
            &mut engine,
            &truth.all_ids(),
            &female(),
            50,
            50,
            &DncConfig::default(),
        )
        .unwrap();
        assert!(out.covered, "215 ≥ 50 females must be detected");
        let tasks = engine.ledger().total_tasks();
        // Table 1 scale: ≈71–75 HITs, far below the 1522-point scan.
        assert!(
            (40..=160).contains(&tasks),
            "Group-Coverage used {tasks} HITs"
        );
    }

    #[test]
    fn hostile_pool_still_screened_by_qualification() {
        let truth = truth_with_minority(100, 10);
        let mut rng = SmallRng::seed_from_u64(1);
        let pool = WorkerPool::generate(&PoolConfig::hostile(200), &mut rng);
        let sim = MTurkSim::new(
            &truth,
            gender_schema(),
            pool,
            QualityControl::with_qualification(),
            1,
        );
        // Mostly spammers fail the test; survivors are largely reliable.
        assert!(sim.eligible_workers() < 120);
        assert!(sim.eligible_workers() >= 3);
    }

    #[test]
    #[should_panic(expected = "eligible workers")]
    fn too_small_pool_panics() {
        let truth = truth_with_minority(10, 2);
        let pool = WorkerPool::from_profiles(vec![crate::worker::WorkerProfile::reliable(
            crate::worker::WorkerId(0),
        )]);
        MTurkSim::new(
            &truth,
            gender_schema(),
            pool,
            QualityControl::majority_vote_only(),
            0,
        );
    }

    fn deterministic_platform<'a>(
        truth: &'a VecGroundTruth,
        seed: u64,
    ) -> MTurkSim<'a, VecGroundTruth> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pool = WorkerPool::generate(&PoolConfig::default(), &mut rng);
        MTurkSim::new_deterministic(
            truth,
            gender_schema(),
            pool,
            QualityControl::with_rating(),
            seed,
        )
    }

    /// Per-question seeding: answers are a pure function of the question, so
    /// two platforms asked the same questions in *different orders* agree on
    /// every answer.
    #[test]
    fn per_question_answers_are_order_independent() {
        let truth = truth_with_minority(400, 60);
        let ids = truth.all_ids();
        let questions: Vec<&[ObjectId]> = ids.chunks(25).collect();

        let mut forward = deterministic_platform(&truth, 99);
        let answers_fwd: Vec<bool> = questions
            .iter()
            .map(|q| forward.try_answer_set(q, &female()).unwrap())
            .collect();

        let mut backward = deterministic_platform(&truth, 99);
        let mut answers_bwd: Vec<bool> = questions
            .iter()
            .rev()
            .map(|q| backward.try_answer_set(q, &female()).unwrap())
            .collect();
        answers_bwd.reverse();
        assert_eq!(answers_fwd, answers_bwd);

        // Repeats re-derive the identical answer (no stream drift), and
        // point/membership questions behave the same way.
        let again = forward.try_answer_set(questions[0], &female()).unwrap();
        assert_eq!(again, answers_fwd[0]);
        let a = forward.try_answer_point_labels(ObjectId(7)).unwrap();
        let b = forward.try_answer_point_labels(ObjectId(7)).unwrap();
        assert_eq!(a, b);
        let m1 = forward
            .try_answer_membership(ObjectId(9), &female())
            .unwrap();
        let m2 = forward
            .try_answer_membership(ObjectId(9), &female())
            .unwrap();
        assert_eq!(m1, m2);
    }

    /// In stream mode the same platform state answers depend on order — the
    /// pre-existing behavior stays the default.
    #[test]
    fn stream_mode_stays_default() {
        let truth = truth_with_minority(10, 2);
        let sim = platform(&truth, QualityControl::with_rating(), 5);
        assert_eq!(sim.seed_mode(), SeedMode::Stream);
    }

    /// The batch path charges one HIT (k assignments) for a whole batch and
    /// aggregates each image correctly.
    #[test]
    fn batched_point_labels_charge_one_hit() {
        let truth = truth_with_minority(120, 40);
        let ids = truth.all_ids();
        for deterministic in [false, true] {
            let mut sim = if deterministic {
                deterministic_platform(&truth, 21)
            } else {
                platform(&truth, QualityControl::with_rating(), 21)
            };
            let labels = sim.try_answer_point_labels_batch(&ids[..50]).unwrap();
            assert_eq!(labels.len(), 50);
            assert_eq!(sim.stats().hits_published, 1, "det={deterministic}");
            assert_eq!(sim.stats().assignments_collected, 3);
            let wrong = labels
                .iter()
                .zip(&ids[..50])
                .filter(|(l, id)| **l != truth.labels_of(**id))
                .count();
            assert!(wrong <= 2, "batch mislabeled {wrong}/50");
            assert!(sim.try_answer_point_labels_batch(&[]).unwrap().is_empty());
            assert_eq!(sim.stats().hits_published, 1, "empty batch is free");
        }
    }

    /// Under per-question seeding, batch grouping never changes an answer:
    /// the batch path and the singleton path agree image by image.
    #[test]
    fn per_question_batch_matches_singletons() {
        let truth = truth_with_minority(200, 30);
        let ids = truth.all_ids();
        let mut batched = deterministic_platform(&truth, 77);
        let batch_answers = batched.try_answer_point_labels_batch(&ids[..60]).unwrap();
        let mut single = deterministic_platform(&truth, 77);
        let single_answers: Vec<Labels> = ids[..60]
            .iter()
            .map(|id| single.try_answer_point_labels(*id).unwrap())
            .collect();
        assert_eq!(batch_answers, single_answers);
    }

    /// Consistent-crowd model: under per-question seeding, a set query is
    /// exactly the OR of the latent per-object labels — so singleton sets,
    /// membership questions and point labels can never contradict each
    /// other, and pruning a known non-member can never change a set answer.
    #[test]
    fn per_question_set_answers_derive_from_latent_labels() {
        let truth = truth_with_minority(300, 40);
        let ids = truth.all_ids();
        let mut sim = deterministic_platform(&truth, 5);
        let latent: Vec<Labels> = ids
            .iter()
            .map(|id| sim.try_answer_point_labels(*id).unwrap())
            .collect();
        for chunk in ids.chunks(30) {
            let want = chunk.iter().any(|id| female().matches(&latent[id.index()]));
            assert_eq!(sim.try_answer_set(chunk, &female()).unwrap(), want);
        }
        for id in &ids[..50] {
            assert_eq!(
                sim.try_answer_membership(*id, &female()).unwrap(),
                female().matches(&latent[id.index()]),
            );
            assert_eq!(
                sim.try_answer_set(&[*id], &female()).unwrap(),
                female().matches(&latent[id.index()]),
            );
        }
        // Narrowing transparency: dropping latent non-members from a set
        // leaves the answer unchanged.
        let full = &ids[..60];
        let residual: Vec<ObjectId> = full
            .iter()
            .copied()
            .filter(|id| female().matches(&latent[id.index()]))
            .collect();
        if !residual.is_empty() {
            assert_eq!(
                sim.try_answer_set(full, &female()).unwrap(),
                sim.try_answer_set(&residual, &female()).unwrap(),
            );
        }
    }

    /// The wage-accounting satellite: the same answered questions cost the
    /// same dollars whether they were served one per HIT or coalesced into
    /// many-images-per-HIT batches — `wage_tasks` normalizes both paths to
    /// the canonical batch size even though the physical HIT counts differ.
    #[test]
    fn wage_accounting_is_consistent_across_hit_paths() {
        let truth = truth_with_minority(120, 30);
        let ids = truth.all_ids();
        let target = female();

        let mut singles = deterministic_platform(&truth, 21);
        for id in &ids[..60] {
            singles.try_answer_point_labels(*id).unwrap();
        }
        singles.try_answer_set(&ids[..50], &target).unwrap();
        singles.try_answer_membership(ObjectId(3), &target).unwrap();

        let mut batched = deterministic_platform(&truth, 21);
        batched.try_answer_point_labels_batch(&ids[..50]).unwrap();
        batched.try_answer_point_labels_batch(&ids[50..60]).unwrap();
        batched.try_answer_set(&ids[..50], &target).unwrap();
        batched.try_answer_membership(ObjectId(3), &target).unwrap();

        // Physically very different HIT counts...
        assert_eq!(singles.stats().hits_published, 62);
        assert_eq!(batched.stats().hits_published, 4);
        // ...but identical canonical wage accounting: 2 queries +
        // ceil(60/50) point tasks.
        let single_tasks = singles.stats().wage_tasks(50);
        let batch_tasks = batched.stats().wage_tasks(50);
        assert_eq!(single_tasks, 2 + 2);
        assert_eq!(single_tasks, batch_tasks);
        let pricing = coverage_core::ledger::PricingModel::amt_ten_cents();
        let single_cost = pricing.total_cost_for_tasks(single_tasks);
        let batch_cost = pricing.total_cost_for_tasks(batch_tasks);
        assert!((single_cost - batch_cost).abs() < 1e-12);
        assert!((single_cost - 4.0 * 0.10 * 3.0 * 1.2).abs() < 1e-9);
    }

    #[test]
    fn stats_reset() {
        let truth = truth_with_minority(10, 2);
        let mut sim = platform(&truth, QualityControl::majority_vote_only(), 2);
        sim.try_answer_membership(ObjectId(0), &female()).unwrap();
        assert_eq!(sim.stats().hits_published, 1);
        sim.reset_stats();
        assert_eq!(sim.stats().hits_published, 0);
    }
}
