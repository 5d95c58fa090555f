//! **Classifier-Coverage** — using a (possibly unreliable) pre-trained
//! predictor to cut the crowd bill (Algorithms 4 & 5, §5).
//!
//! A classifier splits the pool into a *predicted-positive* set `G` and the
//! rest. The crowd's job shrinks to (1) removing false positives from `G`
//! and (2), if fewer than `τ` verified members remain, hunting for false
//! negatives in `D − G` with plain Group-Coverage.
//!
//! False positives are removed by one of two strategies, chosen from an
//! estimated sample precision:
//!
//! * **Partition** — divide-and-conquer with *reverse* set queries ("is
//!   there any individual NOT in g?"); cheap when precision is high because
//!   almost every chunk answers *no* and is verified wholesale;
//! * **Label** — plain point labeling of `G`, better when precision is so
//!   low that the d&c would split down to fragments anyway.
//!
//! The decision threshold: Table 2 of the paper is only consistent with
//! *partition when sample precision ≥ 0.75*. The paper states no threshold;
//! this one is read off Table 2's strategy column.

use crate::engine::{AnswerSource, Engine, ObjectId};
use crate::error::{require_positive_n, try_ask, Interrupted};
use crate::group_coverage::{group_coverage, DncConfig, GroupCoverageOutcome};
use crate::ledger::TaskLedger;
use crate::target::Target;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::{HashSet, VecDeque};

/// False-positive elimination strategy (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FpElimination {
    /// Divide-and-conquer with reverse set queries (Algorithm 5, `Partition`).
    Partition,
    /// Point-label the predicted set (Algorithm 5, `Label`).
    Label,
}

/// Parameters for [`classifier_coverage`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassifierConfig {
    /// Coverage threshold `τ`.
    pub tau: usize,
    /// Subset-size upper bound `n`.
    pub n: usize,
    /// Fraction of the predicted set sampled to estimate precision
    /// (the paper found 10% a good choice).
    pub sample_fraction: f64,
    /// Minimum estimated precision for choosing [`FpElimination::Partition`].
    pub precision_threshold: f64,
    /// Stop the partition pass as soon as `τ` members are verified
    /// (optimization; off by default, matching the paper's pseudo-code,
    /// which cleans the whole predicted set).
    pub partition_early_stop: bool,
    /// Knobs for the final Group-Coverage pass over `D − G`.
    pub dnc: DncConfig,
}

impl Default for ClassifierConfig {
    fn default() -> Self {
        Self {
            tau: 50,
            n: 50,
            sample_fraction: 0.10,
            precision_threshold: 0.75,
            partition_early_stop: false,
            dnc: DncConfig::default(),
        }
    }
}

/// Output of [`classifier_coverage`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassifierOutcome {
    /// Is the target covered in the whole pool?
    pub covered: bool,
    /// The strategy the precision estimate selected.
    pub strategy: FpElimination,
    /// Estimated precision of the classifier on the sampled subset of `G`.
    pub estimated_precision: f64,
    /// Members verified inside the predicted set (`c'` in the paper).
    pub verified_in_predicted: usize,
    /// Known member count overall (exact when `covered == false` and the
    /// label pass was exhaustive — see `count_exact`).
    pub count: usize,
    /// True when `count` is the exact population of the target in the pool.
    pub count_exact: bool,
    /// Crowd work consumed by this call.
    pub tasks: TaskLedger,
}

/// Runs **Classifier-Coverage** (Algorithm 4).
///
/// * `pool` — the whole dataset `D` (presentation order).
/// * `predicted` — the subset of `pool` the classifier labels as `target`
///   (`G` in the paper). Must be a subset of `pool`.
///
/// # Panics
/// Panics when `cfg.n == 0`, when `sample_fraction` is outside `(0, 1]`,
/// or when `predicted` contains ids missing from `pool`.
///
/// # Errors
/// When the ask path fails, the [`Interrupted`] error carries a partial
/// [`ClassifierOutcome`] with the members verified before the cut (`count`
/// a lower bound, `covered == false`) — unless those members already reach
/// `τ`, in which case the answers in hand prove coverage and the run
/// finishes `Ok` with a covered verdict despite the refusal. A failure
/// during the precision sample reports the conservative `Label` strategy
/// with zero estimated precision.
///
/// # Example
///
/// ```
/// use coverage_core::prelude::*;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// // 200 female images at the front of a 1 000-image pool; a classifier
/// // with perfect precision predicted 150 of them (and nothing else).
/// let labels: Vec<Labels> = (0..1000)
///     .map(|i| Labels::single(u8::from(i < 200)))
///     .collect();
/// let truth = VecGroundTruth::new(labels);
/// let predicted: Vec<ObjectId> = (0..150).map(ObjectId).collect();
/// let female = Target::group(Pattern::parse("1").unwrap());
///
/// let mut engine = Engine::with_point_batch(PerfectSource::new(&truth), 50);
/// let mut rng = SmallRng::seed_from_u64(4);
/// let out = classifier_coverage(
///     &mut engine, &truth.all_ids(), &predicted, &female,
///     &ClassifierConfig::default(), &mut rng,
/// ).unwrap();
/// assert!(out.covered);
/// assert_eq!(out.strategy, FpElimination::Partition); // precision ≈ 1.0
/// // Verifying via the classifier is far cheaper than a fresh search.
/// assert!(out.tasks.total_tasks() < 10);
/// ```
pub fn classifier_coverage<S: AnswerSource, R: Rng + ?Sized>(
    engine: &mut Engine<S>,
    pool: &[ObjectId],
    predicted: &[ObjectId],
    target: &Target,
    cfg: &ClassifierConfig,
    rng: &mut R,
) -> Result<ClassifierOutcome, Interrupted<ClassifierOutcome>> {
    require_positive_n(cfg.n);
    assert!(
        cfg.sample_fraction > 0.0 && cfg.sample_fraction <= 1.0,
        "sample_fraction must be in (0, 1]"
    );
    let before = engine.ledger_snapshot();
    let pool_set: HashSet<ObjectId> = pool.iter().copied().collect();
    assert!(
        predicted.iter().all(|id| pool_set.contains(id)),
        "predicted set must be a subset of the pool"
    );

    /// Partial outcome shared by every interruption site.
    fn partial_outcome(
        strategy: FpElimination,
        estimated_precision: f64,
        verified: usize,
        tasks: TaskLedger,
    ) -> ClassifierOutcome {
        ClassifierOutcome {
            covered: false,
            strategy,
            estimated_precision,
            verified_in_predicted: verified,
            count: verified,
            count_exact: false,
            tasks,
        }
    }

    // Lines 2-3: sample G, label it, estimate precision.
    let mut predicted: Vec<ObjectId> = predicted.to_vec();
    let sample_size = ((predicted.len() as f64 * cfg.sample_fraction).ceil() as usize)
        .min(predicted.len())
        .max(usize::from(!predicted.is_empty()));
    let len = predicted.len();
    for i in 0..sample_size {
        let j = rng.gen_range(0..len - i);
        predicted.swap(j, len - 1 - i);
    }
    let sample: Vec<ObjectId> = predicted.split_off(len - sample_size);
    let sample_labels = try_ask!(
        engine.ask_point_labels_batched(&sample),
        partial_outcome(FpElimination::Label, 0.0, 0, engine.ledger().since(&before))
    );
    let sample_true: Vec<ObjectId> = sample
        .iter()
        .zip(&sample_labels)
        .filter(|(_, l)| target.matches(l))
        .map(|(id, _)| *id)
        .collect();
    let estimated_precision = if sample.is_empty() {
        0.0
    } else {
        sample_true.len() as f64 / sample.len() as f64
    };

    // Line 4: pick the elimination strategy.
    let strategy = if estimated_precision >= cfg.precision_threshold {
        FpElimination::Partition
    } else {
        FpElimination::Label
    };

    // Remove false positives from the (unsampled remainder of the)
    // predicted set. Sampled true members are already verified.
    let mut verified = sample_true.len();
    let early_stop = cfg
        .partition_early_stop
        .then(|| cfg.tau.saturating_sub(verified));
    let mut label_exhaustive = true;
    match strategy {
        FpElimination::Partition => {
            let found = match partition(engine, &predicted, target, cfg.n, early_stop) {
                Ok(found) => found,
                Err(i) => {
                    // Count the members the partition pass had verified. If
                    // they already reach τ the answers in hand *prove*
                    // coverage — finish Ok exactly as the post-elimination
                    // check below would, instead of reporting a cut.
                    let total = verified + i.partial.len();
                    if total >= cfg.tau {
                        return Ok(ClassifierOutcome {
                            covered: true,
                            strategy,
                            estimated_precision,
                            verified_in_predicted: total,
                            count: total,
                            count_exact: false,
                            tasks: engine.ledger().since(&before),
                        });
                    }
                    return Err(Interrupted {
                        partial: partial_outcome(
                            strategy,
                            estimated_precision,
                            total,
                            engine.ledger().since(&before),
                        ),
                        error: i.error,
                    });
                }
            };
            verified += found.len();
        }
        FpElimination::Label => {
            // Label in batches; stop once τ members are verified (Alg. 5
            // line 25). Exhaustive only when the whole set was labeled.
            let mut i = 0usize;
            while i < predicted.len() && verified < cfg.tau {
                let end = (i + engine.point_batch()).min(predicted.len());
                let labels = try_ask!(
                    engine.ask_point_labels_batched(&predicted[i..end]),
                    partial_outcome(
                        strategy,
                        estimated_precision,
                        verified,
                        engine.ledger().since(&before)
                    )
                );
                verified += labels.iter().filter(|l| target.matches(l)).count();
                i = end;
            }
            label_exhaustive = i >= predicted.len();
        }
    }

    // Line 6: enough verified members already?
    if verified >= cfg.tau {
        return Ok(ClassifierOutcome {
            covered: true,
            strategy,
            estimated_precision,
            verified_in_predicted: verified,
            count: verified,
            count_exact: false,
            tasks: engine.ledger().since(&before),
        });
    }

    // Line 7: hunt for false negatives in D − G.
    let predicted_set: HashSet<ObjectId> = predicted.iter().chain(sample.iter()).copied().collect();
    let rest: Vec<ObjectId> = pool
        .iter()
        .filter(|id| !predicted_set.contains(id))
        .copied()
        .collect();
    let out: GroupCoverageOutcome =
        match group_coverage(engine, &rest, target, cfg.tau - verified, cfg.n, &cfg.dnc) {
            Ok(out) => out,
            Err(i) => {
                // Fold the interrupted hunt's lower bound into the partial.
                return Err(Interrupted {
                    partial: ClassifierOutcome {
                        covered: false,
                        strategy,
                        estimated_precision,
                        verified_in_predicted: verified,
                        count: verified + i.partial.count,
                        count_exact: false,
                        tasks: engine.ledger().since(&before),
                    },
                    error: i.error,
                });
            }
        };

    Ok(ClassifierOutcome {
        covered: out.covered,
        strategy,
        estimated_precision,
        verified_in_predicted: verified,
        count: verified + out.count,
        count_exact: !out.covered && label_exhaustive,
        tasks: engine.ledger().since(&before),
    })
}

/// `Partition` (Algorithm 5): divide-and-conquer removal of false positives
/// from `objects` using reverse set queries. Returns the verified members.
///
/// `early_stop`: when `Some(k)`, stop as soon as `k` members are verified.
///
/// # Errors
/// On an ask-path failure the [`Interrupted`] error carries the members
/// verified before the cut.
pub fn partition<S: AnswerSource>(
    engine: &mut Engine<S>,
    objects: &[ObjectId],
    target: &Target,
    n: usize,
    early_stop: Option<usize>,
) -> Result<Vec<ObjectId>, Interrupted<Vec<ObjectId>>> {
    require_positive_n(n);
    let reverse = target.negated();
    let mut verified = Vec::new();
    let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
    let mut start = 0usize;
    while start < objects.len() {
        let end = (start + n).min(objects.len());
        queue.push_back((start, end));
        start = end;
    }
    while let Some((b, e)) = queue.pop_front() {
        if let Some(k) = early_stop {
            if verified.len() >= k {
                break;
            }
        }
        let any_not = try_ask!(engine.ask_set(&objects[b..e], &reverse), verified);
        if !any_not {
            // No outsider in this chunk: every object verified at once.
            verified.extend_from_slice(&objects[b..e]);
        } else if e - b > 1 {
            let mid = b + (e - b).div_ceil(2);
            queue.push_back((b, mid));
            queue.push_back((mid, e));
        }
        // A singleton answering "yes, not in g" is a false positive: drop.
    }
    Ok(verified)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GroundTruth;
    use crate::engine::{PerfectSource, VecGroundTruth};
    use crate::pattern::Pattern;
    use crate::schema::Labels;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn minority() -> Target {
        Target::group(Pattern::parse("1").unwrap())
    }

    /// Pool with `pos` positives spread through `total`, plus a classifier
    /// prediction with the given true/false positive id lists.
    fn truth_spread(total: usize, positives: &[usize]) -> VecGroundTruth {
        VecGroundTruth::new(
            (0..total)
                .map(|i| Labels::single(u8::from(positives.contains(&i))))
                .collect(),
        )
    }

    fn ids(v: &[usize]) -> Vec<ObjectId> {
        v.iter().map(|i| ObjectId(*i as u32)).collect()
    }

    #[test]
    fn partition_verifies_pure_chunks_cheaply() {
        // 100 predicted, 1 false positive: most chunks answer "no outsider".
        let positives: Vec<usize> = (0..99).collect();
        let truth = truth_spread(100, &positives);
        let mut engine = Engine::new(PerfectSource::new(&truth));
        let all = truth.all_ids();
        let verified = partition(&mut engine, &all, &minority(), 50, None).unwrap();
        assert_eq!(verified.len(), 99);
        assert!(!verified.contains(&ObjectId(99)));
        // 2 roots + the d&c path isolating the single FP: ≲ 2 + 2·log2(50).
        let tasks = engine.ledger().set_queries();
        assert!(tasks <= 16, "partition used {tasks} tasks");
    }

    #[test]
    fn partition_with_zero_false_positives_costs_roots_only() {
        let positives: Vec<usize> = (0..100).collect();
        let truth = truth_spread(100, &positives);
        let mut engine = Engine::new(PerfectSource::new(&truth));
        let verified = partition(&mut engine, &truth.all_ids(), &minority(), 50, None).unwrap();
        assert_eq!(verified.len(), 100);
        assert_eq!(engine.ledger().set_queries(), 2);
    }

    #[test]
    fn partition_early_stop_halts_at_k() {
        let positives: Vec<usize> = (0..200).collect();
        let truth = truth_spread(200, &positives);
        let mut engine = Engine::new(PerfectSource::new(&truth));
        let verified = partition(&mut engine, &truth.all_ids(), &minority(), 50, Some(50)).unwrap();
        assert!(verified.len() >= 50);
        assert_eq!(engine.ledger().set_queries(), 1);
    }

    #[test]
    fn partition_all_false_positives_drops_everything() {
        let truth = truth_spread(60, &[]);
        let mut engine = Engine::new(PerfectSource::new(&truth));
        let verified = partition(&mut engine, &truth.all_ids(), &minority(), 50, None).unwrap();
        assert!(verified.is_empty());
    }

    #[test]
    fn high_precision_chooses_partition_and_covers() {
        // 202 predicted: 201 true + 1 FP; 403 females total in 994.
        let females: Vec<usize> = (0..403).collect();
        let truth = truth_spread(994, &females);
        let mut predicted: Vec<usize> = (0..201).collect();
        predicted.push(500); // the false positive (a male)
        let mut engine = Engine::with_point_batch(PerfectSource::new(&truth), 50);
        let mut rng = SmallRng::seed_from_u64(3);
        let out = classifier_coverage(
            &mut engine,
            &truth.all_ids(),
            &ids(&predicted),
            &minority(),
            &ClassifierConfig::default(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(out.strategy, FpElimination::Partition);
        assert!(out.covered);
        assert!(out.estimated_precision >= 0.9);
        assert!(out.verified_in_predicted >= 50);
        // Far cheaper than a standalone Group-Coverage scan (≈ 80 tasks).
        assert!(
            out.tasks.total_tasks() < 40,
            "used {} tasks",
            out.tasks.total_tasks()
        );
    }

    #[test]
    fn low_precision_chooses_label() {
        // Predicted set of 100 with only 8 true members (8% precision).
        let females: Vec<usize> = (0..20).collect();
        let truth = truth_spread(3000, &females);
        let mut predicted: Vec<usize> = (0..8).collect(); // true positives
        predicted.extend(1000..1092); // 92 false positives
        let mut engine = Engine::with_point_batch(PerfectSource::new(&truth), 50);
        let mut rng = SmallRng::seed_from_u64(1);
        let out = classifier_coverage(
            &mut engine,
            &truth.all_ids(),
            &ids(&predicted),
            &minority(),
            &ClassifierConfig::default(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(out.strategy, FpElimination::Label);
        assert!(!out.covered, "only 20 females in 3000 with τ=50");
        assert_eq!(out.count, 20, "exact count expected, got {}", out.count);
        assert!(out.count_exact);
    }

    #[test]
    fn perfect_classifier_with_enough_members_is_nearly_free() {
        let females: Vec<usize> = (0..200).collect();
        let truth = truth_spread(1000, &females);
        let predicted: Vec<usize> = (0..200).collect();
        let mut engine = Engine::with_point_batch(PerfectSource::new(&truth), 50);
        let mut rng = SmallRng::seed_from_u64(9);
        let out = classifier_coverage(
            &mut engine,
            &truth.all_ids(),
            &ids(&predicted),
            &minority(),
            &ClassifierConfig::default(),
            &mut rng,
        )
        .unwrap();
        assert!(out.covered);
        assert_eq!(out.strategy, FpElimination::Partition);
        // 1 sample batch + 4 partition roots.
        assert!(out.tasks.total_tasks() <= 6, "{}", out.tasks.total_tasks());
    }

    #[test]
    fn empty_prediction_falls_back_to_group_coverage() {
        let females: Vec<usize> = (0..60).collect();
        let truth = truth_spread(500, &females);
        let mut engine = Engine::with_point_batch(PerfectSource::new(&truth), 50);
        let mut rng = SmallRng::seed_from_u64(2);
        let out = classifier_coverage(
            &mut engine,
            &truth.all_ids(),
            &[],
            &minority(),
            &ClassifierConfig::default(),
            &mut rng,
        )
        .unwrap();
        assert!(out.covered);
        assert_eq!(out.verified_in_predicted, 0);
    }

    #[test]
    fn uncovered_hunt_in_rest_finds_false_negatives() {
        // Classifier finds 10 of 45 females; τ=50 ⇒ uncovered overall, and
        // the exact count must combine verified + rest-pool members.
        let females: Vec<usize> = (0..45).collect();
        let truth = truth_spread(2000, &females);
        let predicted: Vec<usize> = (0..10).collect();
        let mut engine = Engine::with_point_batch(PerfectSource::new(&truth), 50);
        let mut rng = SmallRng::seed_from_u64(4);
        let out = classifier_coverage(
            &mut engine,
            &truth.all_ids(),
            &ids(&predicted),
            &minority(),
            &ClassifierConfig::default(),
            &mut rng,
        )
        .unwrap();
        assert!(!out.covered);
        assert_eq!(out.count, 45);
    }

    #[test]
    #[should_panic(expected = "subset of the pool")]
    fn predicted_outside_pool_panics() {
        let truth = truth_spread(10, &[]);
        let mut engine = Engine::new(PerfectSource::new(&truth));
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = classifier_coverage(
            &mut engine,
            &truth.all_ids(),
            &[ObjectId(99)],
            &minority(),
            &ClassifierConfig::default(),
            &mut rng,
        );
    }

    #[test]
    #[should_panic(expected = "sample_fraction")]
    fn bad_sample_fraction_panics() {
        let truth = truth_spread(10, &[]);
        let mut engine = Engine::new(PerfectSource::new(&truth));
        let mut rng = SmallRng::seed_from_u64(0);
        let cfg = ClassifierConfig {
            sample_fraction: 0.0,
            ..ClassifierConfig::default()
        };
        let _ = classifier_coverage(
            &mut engine,
            &truth.all_ids(),
            &[],
            &minority(),
            &cfg,
            &mut rng,
        );
    }
}
