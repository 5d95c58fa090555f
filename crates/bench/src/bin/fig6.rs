//! **Figure 6** — effect of lack of coverage on downstream tasks (§6.4).
//!
//! * 6a: drowsiness detection on the MRL-eye simulacrum — spectacled
//!   subjects are the uncovered region; accuracy/loss disparity vs number
//!   of spectacled samples added back per class.
//! * 6b: gender detection on the UTKFace simulacrum — training data is
//!   Caucasian-only; disparity vs number of Black samples added per class.
//!
//! Paper shape: visible disparity at 0 added samples (≈10 % accuracy for
//! MRL, ≈1 % for UTKFace), monotonically shrinking toward zero by 100.
//! The printed shape check reports both halves of that claim for each
//! series: whether the disparity at 100 is below the one at 0, and every
//! step at which it rises instead. The simulacra are noisy: the 6b series
//! ends lower than it starts but is not monotone.

use classifier_sim::{run_disparity_experiment, DisparityPoint};
use cvg_bench::TablePrinter;
use dataset_sim::catalogs;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const ADDITIONS: [usize; 6] = [0, 20, 40, 60, 80, 100];
const REPETITIONS: usize = 10;

fn main() {
    let mut rng = SmallRng::seed_from_u64(64);

    // 6a: drowsiness detection. The paper trains a CNN on the full
    // 26 480-image set; a CNN recovers subgroup accuracy from small
    // *absolute* sample counts because it learns subgroup-specific
    // features. The linear stand-in responds to the *fraction* of shifted
    // samples instead, so the training base is scaled to 500 per class to
    // keep the paper's x-axis (0..100 added) in the regime where the
    // disparity visibly closes. Mechanism and shape are preserved; see
    // EXPERIMENTS.md.
    let points_a = run_disparity_experiment(
        |k, rng| catalogs::mrl_eye_train_sampled(500, k, rng),
        catalogs::mrl_eye_test,
        0,
        &ADDITIONS,
        REPETITIONS,
        &mut rng,
    );
    let mut table_a = TablePrinter::new(
        "Figure 6a: drowsiness detection — disparity vs #spectacled samples (per class)",
        &[
            "#spectacled",
            "overall acc",
            "spectacled acc",
            "acc disparity",
            "loss disparity",
        ],
    );
    for p in &points_a {
        table_a.row(vec![
            p.added_per_class.to_string(),
            format!("{:.4}", p.overall_accuracy),
            format!("{:.4}", p.uncovered_accuracy),
            format!("{:.4}", p.accuracy_disparity),
            format!("{:.4}", p.loss_disparity),
        ]);
    }
    table_a.print();
    if let Ok(path) = table_a.write_csv("fig6a") {
        println!("wrote {}", path.display());
    }

    // 6b: gender detection with Caucasian-only training (same fractional
    // rescaling: 800 per class ≈ the paper's 7 055-image set shrunk so 100
    // added Black faces matter to a linear learner).
    let points_b = run_disparity_experiment(
        |k, rng| catalogs::utkface_gender_train_sampled(800, k, rng),
        catalogs::utkface_gender_test,
        0,
        &ADDITIONS,
        REPETITIONS,
        &mut rng,
    );
    let mut table_b = TablePrinter::new(
        "Figure 6b: gender detection — disparity vs #Black samples (per class)",
        &[
            "#black",
            "overall acc",
            "black acc",
            "acc disparity",
            "loss disparity",
        ],
    );
    for p in &points_b {
        table_b.row(vec![
            p.added_per_class.to_string(),
            format!("{:.4}", p.overall_accuracy),
            format!("{:.4}", p.uncovered_accuracy),
            format!("{:.4}", p.accuracy_disparity),
            format!("{:.4}", p.loss_disparity),
        ]);
    }
    table_b.print();
    if let Ok(path) = table_b.write_csv("fig6b") {
        println!("wrote {}", path.display());
    }

    // Shape checks mirroring the paper's conclusions.
    println!();
    report_shape("6a", &points_a);
    report_shape("6b", &points_b);
}

/// Prints whether a disparity series ends below where it started and
/// every step at which it rises, so a non-monotone series is never called
/// monotone.
fn report_shape(name: &str, points: &[DisparityPoint]) {
    let first = points.first().expect("points");
    let last = points.last().expect("points");
    let rises: Vec<String> = points
        .windows(2)
        .filter(|w| w[1].accuracy_disparity > w[0].accuracy_disparity)
        .map(|w| {
            format!(
                "{} -> {} samples: {:.4} -> {:.4}",
                w[0].added_per_class,
                w[1].added_per_class,
                w[0].accuracy_disparity,
                w[1].accuracy_disparity
            )
        })
        .collect();
    println!(
        "{name} shape: disparity {:.4} -> {:.4} ({}); {}",
        first.accuracy_disparity,
        last.accuracy_disparity,
        if last.accuracy_disparity < first.accuracy_disparity {
            "shrinks overall ✓"
        } else {
            "DID NOT SHRINK ✗"
        },
        if rises.is_empty() {
            "monotone ✓".to_string()
        } else {
            format!("NOT monotone, rises at {}", rises.join(", "))
        }
    );
}
