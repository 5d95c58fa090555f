//! Reuse equivalence: the object-level `KnowledgeStore` must never change
//! an audit verdict — only reduce crowd spend.
//!
//! The contract under test: for a consistent answer source, a full audit
//! run behind a [`SharedKnowledgeSource`] produces verdicts, counts,
//! witnesses and engine ledgers **byte-identical** to the same audit behind
//! the exact-match [`MemoizedSource`], while the number of questions that
//! reach the source only ever drops. A second battery checks concurrent
//! use: jobs multiplexed over one [`SharedKnowledgeSource`] stay
//! byte-identical to their serial runs under any interleaving.

use coverage_core::classifier::{classifier_coverage, ClassifierConfig};
use coverage_core::multiple::{multiple_coverage, MultipleConfig};
use coverage_core::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Deterministic pseudo-random two-attribute labeling (gender × skin).
fn synth_truth(n_total: usize, density_pct: u64, seed: u64) -> VecGroundTruth {
    let mut labels = Vec::with_capacity(n_total);
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345);
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for _ in 0..n_total {
        let a = u8::from(next() % 100 < density_pct);
        let b = u8::from(next() % 100 < 50);
        labels.push(Labels::new(&[a, b]));
    }
    VecGroundTruth::new(labels)
}

fn schema() -> AttributeSchema {
    AttributeSchema::new(vec![
        Attribute::binary("gender", "male", "female").unwrap(),
        Attribute::binary("skin", "light", "dark").unwrap(),
    ])
    .unwrap()
}

fn female() -> Target {
    Target::group(Pattern::parse("1X").unwrap())
}

/// Runs the paper's five drivers back to back on ONE engine (so knowledge
/// accumulated by one algorithm flows into the next) and returns every
/// outcome serialized, ready for byte comparison.
fn full_audit<S: AnswerSource>(
    engine: &mut Engine<S>,
    truth: &VecGroundTruth,
    tau: usize,
    n: usize,
    seed: u64,
) -> Vec<String> {
    let pool = truth.all_ids();
    let target = female();
    let predicted: Vec<ObjectId> = pool
        .iter()
        .copied()
        .filter(|id| target.matches(&truth.labels_of(*id)))
        .take(3 * tau)
        .collect();
    let groups = vec![Pattern::parse("0X").unwrap(), Pattern::parse("1X").unwrap()];
    let multiple_cfg = MultipleConfig {
        tau,
        n,
        ..MultipleConfig::default()
    };
    let classifier_cfg = ClassifierConfig {
        tau,
        n,
        ..ClassifierConfig::default()
    };

    let mut outcomes = Vec::new();
    outcomes
        .push(serde_json::to_string(&base_coverage(engine, &pool, &target, tau).unwrap()).unwrap());
    outcomes.push(
        serde_json::to_string(
            &group_coverage(engine, &pool, &target, tau, n, &DncConfig::with_witnesses()).unwrap(),
        )
        .unwrap(),
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    outcomes.push(
        serde_json::to_string(
            &multiple_coverage(engine, &pool, &groups, &multiple_cfg, &mut rng).unwrap(),
        )
        .unwrap(),
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    outcomes.push(
        serde_json::to_string(
            &intersectional_coverage(engine, &pool, &schema(), &multiple_cfg, &mut rng).unwrap(),
        )
        .unwrap(),
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    outcomes.push(
        serde_json::to_string(
            &classifier_coverage(
                engine,
                &pool,
                &predicted,
                &target,
                &classifier_cfg,
                &mut rng,
            )
            .unwrap(),
        )
        .unwrap(),
    );
    outcomes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All five drivers, cross-pollinating one store: verdicts, witnesses
    /// and logical ledgers identical to the exact-match baseline, with
    /// crowd contact only ever lower.
    #[test]
    fn knowledge_store_preserves_all_verdicts(
        n_total in 1usize..350,
        density_pct in 0u64..40,
        tau in 1usize..60,
        n in 1usize..80,
        seed in 0u64..1000,
    ) {
        let truth = synth_truth(n_total, density_pct, seed);

        let mut memo = Engine::with_point_batch(
            MemoizedSource::new(PerfectSource::new(&truth)), n);
        let memo_outcomes = full_audit(&mut memo, &truth, tau, n, seed);

        let mut know = Engine::with_point_batch(
            SharedKnowledgeSource::new(PerfectSource::new(&truth)), n);
        let know_outcomes = full_audit(&mut know, &truth, tau, n, seed);

        // Byte-identical verdicts for every driver...
        prop_assert_eq!(&memo_outcomes, &know_outcomes);
        // ...and identical logical ledgers (the engine meters what the
        // algorithms asked, not what the crowd answered).
        prop_assert_eq!(memo.ledger(), know.ledger());
        // Crowd-side spend can only shrink.
        let memo_spend = memo.source().cache_misses();
        let know_stats = know.source().reuse_stats();
        prop_assert!(
            know_stats.forwarded <= memo_spend,
            "knowledge forwarded {} > exact-match {}",
            know_stats.forwarded, memo_spend
        );
        // Consistency of the tally itself.
        prop_assert_eq!(
            know_stats.questions(),
            know.source().reuse_stats().hits + know_stats.forwarded
        );
    }

    /// Two jobs sharing one store, concurrently: each stays byte-identical
    /// to its own serial run against a raw source — no matter which job's
    /// facts arrive first.
    #[test]
    fn shared_store_jobs_match_their_serial_runs(
        n_total in 2usize..300,
        density_pct in 0u64..40,
        tau_a in 1usize..50,
        tau_b in 1usize..50,
        n in 1usize..60,
        seed in 0u64..500,
    ) {
        let truth = synth_truth(n_total, density_pct, seed);
        let pool = truth.all_ids();
        let target = female();

        // Serial baselines on raw (uncached) engines.
        let mut raw_a = Engine::with_point_batch(PerfectSource::new(&truth), n);
        let base_a = serde_json::to_string(&group_coverage(
            &mut raw_a, &pool, &target, tau_a, n, &DncConfig::with_witnesses(),
        ).unwrap()).unwrap();
        let mut raw_b = Engine::with_point_batch(PerfectSource::new(&truth), n);
        let base_b = serde_json::to_string(&base_coverage(
            &mut raw_b, &pool, &target, tau_b,
        ).unwrap()).unwrap();

        let root = SharedKnowledgeSource::new(PerfectSource::new(&truth));
        let (got_a, got_b) = std::thread::scope(|scope| {
            let job_a = {
                let src = root.clone();
                let pool = &pool;
                let target = &target;
                scope.spawn(move || {
                    let mut engine = Engine::with_point_batch(src, n);
                    serde_json::to_string(&group_coverage(
                        &mut engine, pool, target, tau_a, n, &DncConfig::with_witnesses(),
                    ).unwrap()).unwrap()
                })
            };
            let job_b = {
                let src = root.clone();
                let pool = &pool;
                let target = &target;
                scope.spawn(move || {
                    let mut engine = Engine::with_point_batch(src, n);
                    serde_json::to_string(&base_coverage(
                        &mut engine, pool, target, tau_b,
                    ).unwrap()).unwrap()
                })
            };
            (job_a.join().unwrap(), job_b.join().unwrap())
        });
        prop_assert_eq!(got_a, base_a);
        prop_assert_eq!(got_b, base_b);
    }
}

/// The headline saving, pinned deterministically: a base-coverage job's
/// labels let a sibling group-coverage job over the same pool finish with
/// strictly fewer crowd questions than the exact-match cache allows.
#[test]
fn labels_strictly_reduce_sibling_set_queries() {
    let truth = synth_truth(600, 20, 7);
    let pool = truth.all_ids();
    let target = female();

    let run = |shared_knowledge: bool| -> (String, u64) {
        // Job 1: base coverage labels a prefix of the pool.
        // Job 2: group coverage over the full pool.
        if shared_knowledge {
            let root = SharedKnowledgeSource::new(PerfectSource::new(&truth));
            let mut e1 = Engine::with_point_batch(root.clone(), 50);
            base_coverage(&mut e1, &pool[..300], &target, 40).unwrap();
            let mut e2 = Engine::with_point_batch(root.clone(), 50);
            let out =
                group_coverage(&mut e2, &pool, &target, 50, 50, &DncConfig::default()).unwrap();
            (
                serde_json::to_string(&out).unwrap(),
                root.reuse_stats().forwarded,
            )
        } else {
            // One engine, two back-to-back jobs over the same exact-match
            // cache (the ledger is irrelevant here; only the outcome and
            // the crowd-side spend are compared).
            let mut engine =
                Engine::with_point_batch(MemoizedSource::new(PerfectSource::new(&truth)), 50);
            base_coverage(&mut engine, &pool[..300], &target, 40).unwrap();
            let out =
                group_coverage(&mut engine, &pool, &target, 50, 50, &DncConfig::default()).unwrap();
            (
                serde_json::to_string(&out).unwrap(),
                engine.source().cache_misses(),
            )
        }
    };

    let (memo_outcome, memo_spend) = run(false);
    let (know_outcome, know_spend) = run(true);
    assert_eq!(memo_outcome, know_outcome, "verdicts must not move");
    assert!(
        know_spend < memo_spend,
        "knowledge reuse must strictly beat exact-match: {know_spend} vs {memo_spend}"
    );
}
