//! **Base-Coverage** — the brute-force baseline (Algorithm 7).
//!
//! One yes/no point query per object ("does this image show a member of
//! g?"), scanning the pool until `τ` members are found or the pool is
//! exhausted. Every task contains a single object *by definition* — this is
//! the two-step baseline the paper argues is too expensive.
//!
//! Tasks stay single-object, but they are **published in rounds**: with
//! `cnt` members found so far, the scan cannot stop before it has looked at
//! `τ − cnt` more objects, so it asks the next `min(τ − cnt, remaining)`
//! objects together in one [`Engine::ask_memberships`] round. It therefore
//! never asks an object the one-at-a-time scan would not have asked: the
//! rounds joined together are exactly that scan's prefix, and the ledger,
//! witnesses and verdict are identical — only the number of dispatch rounds
//! falls.

use crate::engine::{AnswerSource, Engine, ObjectId};
use crate::error::Interrupted;
use crate::group_coverage::GroupCoverageOutcome;
use crate::target::Target;

/// Runs **Base-Coverage** over `pool` for `target` with threshold `tau`.
///
/// Returns the same outcome type as
/// [`group_coverage`](crate::group_coverage::group_coverage); the
/// `set_queries` field is zero — the cost shows up in the engine ledger's
/// point tasks (one per object scanned).
///
/// # Errors
/// When the ask path fails (budget exhausted, cancelled, source failure)
/// the returned [`Interrupted`] carries the partial outcome: the witnesses
/// found and the member count proven before the cut.
pub fn base_coverage<S: AnswerSource>(
    engine: &mut Engine<S>,
    pool: &[ObjectId],
    target: &Target,
    tau: usize,
) -> Result<GroupCoverageOutcome, Interrupted<GroupCoverageOutcome>> {
    let mut witnesses = Vec::new();
    let mut scanned = 0usize;
    while witnesses.len() < tau && scanned < pool.len() {
        let round = &pool[scanned..(scanned + tau - witnesses.len()).min(pool.len())];
        let (answers, error) = match engine.ask_memberships(round, target) {
            Ok(answers) => (answers, None),
            Err(Interrupted { error, partial }) => (partial, Some(error)),
        };
        witnesses.extend(
            round
                .iter()
                .zip(&answers)
                .filter(|(_, is_member)| **is_member)
                .map(|(t, _)| *t),
        );
        if let Some(error) = error {
            // A cut round delivers fewer than τ − cnt answers, so the
            // witnesses can never reach τ here.
            return Err(Interrupted {
                error,
                partial: outcome(witnesses, tau),
            });
        }
        scanned += round.len();
    }
    Ok(outcome(witnesses, tau))
}

fn outcome(witnesses: Vec<ObjectId>, tau: usize) -> GroupCoverageOutcome {
    GroupCoverageOutcome {
        covered: witnesses.len() >= tau,
        count: witnesses.len(),
        set_queries: 0,
        witnesses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GroundTruth;
    use crate::engine::{PerfectSource, VecGroundTruth};
    use crate::pattern::Pattern;
    use crate::schema::Labels;

    fn truth_with_minority(n: usize, minority: usize) -> VecGroundTruth {
        VecGroundTruth::new(
            (0..n)
                .map(|i| Labels::single(u8::from(i < minority)))
                .collect(),
        )
    }

    fn minority() -> Target {
        Target::group(Pattern::parse("1").unwrap())
    }

    #[test]
    fn covered_stops_at_tau() {
        let truth = truth_with_minority(1000, 100);
        let mut engine = Engine::new(PerfectSource::new(&truth));
        let out = base_coverage(&mut engine, &truth.all_ids(), &minority(), 50).unwrap();
        assert!(out.covered);
        assert_eq!(out.count, 50);
        // Minority is at the front: exactly 50 point tasks.
        assert_eq!(engine.ledger().point_tasks(), 50);
        assert_eq!(out.witnesses.len(), 50);
    }

    #[test]
    fn uncovered_scans_everything() {
        let truth = truth_with_minority(200, 10);
        let mut engine = Engine::new(PerfectSource::new(&truth));
        let out = base_coverage(&mut engine, &truth.all_ids(), &minority(), 50).unwrap();
        assert!(!out.covered);
        assert_eq!(out.count, 10);
        assert_eq!(engine.ledger().point_tasks(), 200);
        assert_eq!(engine.ledger().total_tasks(), 200);
    }

    #[test]
    fn each_object_is_one_task_never_batched() {
        // Even with a large engine batch configured, Base-Coverage charges
        // one task per object — the paper defines it that way.
        let truth = truth_with_minority(30, 0);
        let mut engine = Engine::with_point_batch(PerfectSource::new(&truth), 50);
        base_coverage(&mut engine, &truth.all_ids(), &minority(), 5).unwrap();
        assert_eq!(engine.ledger().point_tasks(), 30);
    }

    #[test]
    fn tau_zero_trivially_covered() {
        let truth = truth_with_minority(5, 0);
        let mut engine = Engine::new(PerfectSource::new(&truth));
        let out = base_coverage(&mut engine, &truth.all_ids(), &minority(), 0).unwrap();
        assert!(out.covered);
        assert_eq!(engine.ledger().total_tasks(), 0);
    }

    #[test]
    fn empty_pool() {
        let truth = truth_with_minority(0, 0);
        let mut engine = Engine::new(PerfectSource::new(&truth));
        let out = base_coverage(&mut engine, &[], &minority(), 3).unwrap();
        assert!(!out.covered);
        assert_eq!(out.count, 0);
    }

    /// Records the objects of every membership round it serves.
    struct RoundSpy<'a> {
        inner: PerfectSource<'a, VecGroundTruth>,
        rounds: Vec<Vec<ObjectId>>,
    }

    impl AnswerSource for RoundSpy<'_> {
        fn try_answer_set(
            &mut self,
            objects: &[ObjectId],
            target: &Target,
        ) -> Result<bool, crate::error::AskError> {
            self.inner.try_answer_set(objects, target)
        }

        fn try_answer_point_labels(
            &mut self,
            object: ObjectId,
        ) -> Result<Labels, crate::error::AskError> {
            self.inner.try_answer_point_labels(object)
        }

        fn try_answer_memberships(
            &mut self,
            objects: &[ObjectId],
            target: &Target,
            out: &mut Vec<bool>,
        ) -> Result<(), crate::error::AskError> {
            self.rounds.push(objects.to_vec());
            for object in objects {
                out.push(self.inner.try_answer_membership(*object, target)?);
            }
            Ok(())
        }
    }

    #[test]
    fn rounds_never_overshoot_the_sequential_scan() {
        let target = minority();
        for (n, stride, tau) in [
            (300, 7, 20),
            (300, 3, 1),
            (50, 1, 10),
            (90, 11, 40),
            (0, 1, 3),
        ] {
            let truth = VecGroundTruth::new(
                (0..n)
                    .map(|i| Labels::single(u8::from(i % stride == stride / 2)))
                    .collect(),
            );
            let pool = truth.all_ids();
            // The one-at-a-time reference: scan until τ members are seen.
            let mut seen = 0usize;
            let sequential: Vec<ObjectId> = pool
                .iter()
                .copied()
                .take_while(|o| {
                    let go = seen < tau;
                    seen += usize::from(target.matches(&truth.labels_of(*o)));
                    go
                })
                .collect();

            let mut engine = Engine::new(RoundSpy {
                inner: PerfectSource::new(&truth),
                rounds: Vec::new(),
            });
            let out = base_coverage(&mut engine, &pool, &target, tau).unwrap();
            let rounds = engine.source().rounds.clone();
            let mut cnt = 0usize;
            for round in &rounds {
                assert!(
                    !round.is_empty() && round.len() <= tau - cnt,
                    "round of {} asked with {cnt} of {tau} members found",
                    round.len()
                );
                cnt += round
                    .iter()
                    .filter(|o| target.matches(&truth.labels_of(**o)))
                    .count();
            }
            assert_eq!(
                rounds.concat(),
                sequential,
                "n={n} stride={stride} tau={tau}"
            );
            assert_eq!(engine.ledger().point_tasks(), sequential.len() as u64);
            assert_eq!(out.count, cnt);
            assert!(rounds.len() <= sequential.len().max(1));
        }
    }

    /// Refuses every question after the first `allow` ones.
    struct Limited<'a> {
        inner: PerfectSource<'a, VecGroundTruth>,
        allow: usize,
    }

    impl AnswerSource for Limited<'_> {
        fn try_answer_set(
            &mut self,
            objects: &[ObjectId],
            target: &Target,
        ) -> Result<bool, crate::error::AskError> {
            self.inner.try_answer_set(objects, target)
        }

        fn try_answer_point_labels(
            &mut self,
            object: ObjectId,
        ) -> Result<Labels, crate::error::AskError> {
            if self.allow == 0 {
                return Err(crate::error::AskError::SourceFailed("spent".into()));
            }
            self.allow -= 1;
            self.inner.try_answer_point_labels(object)
        }
    }

    #[test]
    fn cut_round_keeps_the_answered_prefix() {
        // Seven answers cut the first round (τ = 10) after its seventh object.
        let truth = truth_with_minority(100, 100);
        let mut engine = Engine::new(Limited {
            inner: PerfectSource::new(&truth),
            allow: 7,
        });
        let err = base_coverage(&mut engine, &truth.all_ids(), &minority(), 10).unwrap_err();
        assert_eq!(err.partial.count, 7);
        assert_eq!(err.partial.witnesses, truth.all_ids()[..7].to_vec());
        assert!(!err.partial.covered);
        assert_eq!(engine.ledger().point_tasks(), 7);
    }

    #[test]
    fn expected_cost_shape_matches_paper() {
        // Table 1 shape: 215 females in 1522 images, τ = 50 — roughly
        // 50·(N+1)/(f+1) ≈ 352 tasks when shuffled. With the females at
        // uniform positions the deterministic scan gives the same order.
        let n = 1522usize;
        let f = 215usize;
        let labels: Vec<Labels> = (0..n)
            .map(|i| Labels::single(u8::from(i % (n / f) == 0 && i / (n / f) < f)))
            .collect();
        let truth = VecGroundTruth::new(labels);
        let mut engine = Engine::new(PerfectSource::new(&truth));
        let out = base_coverage(&mut engine, &truth.all_ids(), &minority(), 50).unwrap();
        assert!(out.covered);
        let tasks = engine.ledger().total_tasks();
        assert!(
            (250..=450).contains(&tasks),
            "expected ≈350 tasks, got {tasks}"
        );
    }
}
