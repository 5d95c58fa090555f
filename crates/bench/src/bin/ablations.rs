//! Ablations over the reproduction's own design choices:
//!
//! 1. **Traversal order** — the paper's BFS queue vs a DFS stack: task
//!    counts on covered and uncovered compositions.
//! 2. **Partition early stop** — cleaning the whole predicted set (the
//!    pseudo-code) vs stopping at τ verified members.
//! 3. **Witness resolution** — the extra batched point pass that gives
//!    intersectional propagation exact member counts: what it costs.
//! 4. **Variable pricing** — the future-work §8 extension: the optimal
//!    subset size `n` under per-image reward surcharges.
//!
//! Usage: `ablations` (runs all four).

use classifier_sim::{BinaryRates, NoisyBinaryPredictor};
use coverage_core::prelude::*;
use cvg_bench::TablePrinter;
use dataset_sim::{binary_dataset, multi_group_dataset, Placement};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const REPS: u64 = 10;

fn ablation_traversal() {
    let mut t = TablePrinter::new(
        "Ablation 1: BFS (paper) vs DFS frontier — avg set queries",
        &["composition", "BFS", "DFS"],
    );
    let female = Target::group(Pattern::parse("1").unwrap());
    for (name, n_total, f, tau) in [
        ("covered early (f=10·tau)", 50_000usize, 500usize, 50usize),
        ("borderline (f=tau)", 50_000, 50, 50),
        ("uncovered (f=tau-1)", 50_000, 49, 50),
        ("absent (f=0)", 50_000, 0, 50),
    ] {
        let mut totals = [0u64; 2];
        for seed in 0..REPS {
            let mut rng = SmallRng::seed_from_u64(31 + seed);
            let data = binary_dataset(n_total, f, Placement::Shuffled, &mut rng);
            for (i, traversal) in [Traversal::Bfs, Traversal::Dfs].into_iter().enumerate() {
                let cfg = DncConfig {
                    traversal,
                    collect_witnesses: false,
                };
                let mut engine = Engine::with_point_batch(PerfectSource::new(&data), 50);
                group_coverage(&mut engine, &data.all_ids(), &female, tau, 50, &cfg).unwrap();
                totals[i] += engine.ledger().total_tasks();
            }
        }
        t.row(vec![
            name.to_owned(),
            format!("{:.1}", totals[0] as f64 / REPS as f64),
            format!("{:.1}", totals[1] as f64 / REPS as f64),
        ]);
    }
    t.print();
    let _ = t.write_csv("ablation_traversal");
}

fn ablation_partition_early_stop() {
    let mut t = TablePrinter::new(
        "Ablation 2: Partition early stop at tau verified members — avg HITs",
        &["predicted-set shape", "full clean (paper)", "early stop"],
    );
    let female = Target::group(Pattern::parse("1").unwrap());
    for (name, females, males, prec) in [
        ("FERET opencv (prec .995)", 403usize, 591usize, 0.995f64),
        ("FERET retinaface (prec 1.0)", 403, 591, 1.0),
    ] {
        let rates = BinaryRates::from_accuracy_precision(
            if prec == 1.0 { 0.841 } else { 0.7957 },
            prec,
            females,
            males,
        )
        .expect("feasible");
        let mut totals = [0u64; 2];
        for seed in 0..REPS {
            let mut rng = SmallRng::seed_from_u64(77 + seed);
            let data = binary_dataset(females + males, females, Placement::Shuffled, &mut rng);
            let predictor = NoisyBinaryPredictor::new(female.clone(), rates);
            let predicted = predictor.predict_pool_exact(&data, &data.all_ids(), &mut rng);
            for (i, early) in [false, true].into_iter().enumerate() {
                let cfg = ClassifierConfig {
                    partition_early_stop: early,
                    ..ClassifierConfig::default()
                };
                let mut engine = Engine::with_point_batch(PerfectSource::new(&data), 50);
                let out = classifier_coverage(
                    &mut engine,
                    &data.all_ids(),
                    &predicted,
                    &female,
                    &cfg,
                    &mut rng,
                )
                .unwrap();
                assert!(out.covered);
                totals[i] += out.tasks.total_tasks();
            }
        }
        t.row(vec![
            name.to_owned(),
            format!("{:.1}", totals[0] as f64 / REPS as f64),
            format!("{:.1}", totals[1] as f64 / REPS as f64),
        ]);
    }
    t.print();
    let _ = t.write_csv("ablation_partition_early_stop");
}

fn ablation_witness_resolution() {
    let mut t = TablePrinter::new(
        "Ablation 3: witness resolution for uncovered super-groups — avg HITs",
        &["setting", "without (lower bounds)", "with (exact counts)"],
    );
    let counts = [9955usize, 15, 15, 15];
    let groups: Vec<Pattern> = (0..4).map(|v| Pattern::single(1, 0, v as u8)).collect();
    let mut totals = [0u64; 2];
    for seed in 0..REPS {
        let mut rng = SmallRng::seed_from_u64(123 + seed);
        let data = multi_group_dataset(&counts, &mut rng);
        for (i, resolve) in [false, true].into_iter().enumerate() {
            let cfg = MultipleConfig {
                resolve_supergroup_members: resolve,
                ..MultipleConfig::default()
            };
            let mut engine = Engine::with_point_batch(PerfectSource::new(&data), 50);
            multiple_coverage(&mut engine, &data.all_ids(), &groups, &cfg, &mut rng).unwrap();
            totals[i] += engine.ledger().total_tasks();
        }
    }
    t.row(vec![
        "effective 1 (3 tiny minorities)".to_owned(),
        format!("{:.1}", totals[0] as f64 / REPS as f64),
        format!("{:.1}", totals[1] as f64 / REPS as f64),
    ]);
    t.print();
    let _ = t.write_csv("ablation_witness_resolution");
}

fn ablation_variable_pricing() {
    let mut t = TablePrinter::new(
        "Ablation 4: optimal subset size n under variable pricing (N=100K, tau=50)",
        &["scheme", "optimal n", "bound cost at optimum ($)"],
    );
    for (name, scheme) in [
        ("fixed $0.10/HIT", CostScheme::fixed(0.10)),
        (
            "per-image $0.02 + $0.0005/img",
            CostScheme::per_image(0.02, 0.0005),
        ),
        (
            "per-image $0.02 + $0.002/img",
            CostScheme::per_image(0.02, 0.002),
        ),
        (
            "per-image $0.02 + $0.01/img",
            CostScheme::per_image(0.02, 0.01),
        ),
    ] {
        let best = optimal_subset_size(&scheme, 100_000, 50, 400);
        t.row(vec![
            name.to_owned(),
            best.to_string(),
            format!("{:.2}", scheme.bound_cost(100_000, best, 50)),
        ]);
    }
    t.print();
    let _ = t.write_csv("ablation_variable_pricing");
}

fn main() {
    ablation_traversal();
    ablation_partition_early_stop();
    ablation_witness_resolution();
    ablation_variable_pricing();
}
