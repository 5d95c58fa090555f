//! **Figures 7a–7d** — Group-Coverage performance sweeps (§6.5.1).
//!
//! * 7a: #tasks vs number of females `f ∈ [0, 2τ]` (N = 100 K, τ = 50):
//!   cost peaks near `f = τ`.
//! * 7b: #tasks vs threshold `τ ∈ [1, 100]` with `f = τ`: linear in τ.
//! * 7c: #tasks vs subset size `n ∈ [1, 400]`: a jump around n ≈ 10–20,
//!   then flat (the logarithmic regime).
//! * 7d: #tasks vs dataset size `N ∈ [1 K, 1 M]`: linear. The paper
//!   reports ≤ 6 % of N; here that holds from N = 10 K on, while at
//!   N = 1 K the `τ·log n` term dominates (about 30 % of N).
//!
//! Every point averages several shuffled datasets; series printed:
//! Group-Coverage, Base-Coverage, the paper's bound formula
//! `N/n + τ·log10 n` and the proven envelope
//! `⌈N/n⌉ + 2·min(f,τ)·(log2 n + 1)`. The paper's formula is an
//! asymptotic expression without its constants, not an upper bound:
//! Group-Coverage exceeds it in 7a for `0 < f < τ`, in 7b at τ = 100, in
//! 7c at n = 200 and 400 and in 7d at N = 1 K and 10 K. The envelope
//! holds for every run (the `prop_cost_within_envelope` property pins it);
//! the binary exits non-zero if any Group-Coverage mean exceeds it.
//!
//! Usage: `fig7 [a|b|c|d]...` (default: all).

use coverage_core::prelude::*;
use cvg_bench::TablePrinter;
use dataset_sim::{binary_dataset, Placement};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const REPETITIONS: u64 = 5;

/// One sweep point: the two algorithms' mean task counts and the two
/// reference formulas.
struct Point {
    gc: f64,
    base: f64,
    paper: f64,
    envelope: f64,
}

fn run_point(n_total: usize, females: usize, tau: usize, n: usize, seed0: u64) -> Point {
    let female = Target::group(Pattern::parse("1").unwrap());
    let mut gc = 0u64;
    let mut base = 0u64;
    for seed in 0..REPETITIONS {
        let mut rng = SmallRng::seed_from_u64(seed0 + seed);
        let data = binary_dataset(n_total, females, Placement::Shuffled, &mut rng);
        let pool = data.all_ids();
        let mut engine = Engine::with_point_batch(PerfectSource::new(&data), n.max(1));
        group_coverage(&mut engine, &pool, &female, tau, n, &DncConfig::default()).unwrap();
        gc += engine.ledger().total_tasks();
        let mut engine = Engine::with_point_batch(PerfectSource::new(&data), n.max(1));
        base_coverage(&mut engine, &pool, &female, tau).unwrap();
        base += engine.ledger().total_tasks();
    }
    Point {
        gc: gc as f64 / REPETITIONS as f64,
        base: base as f64 / REPETITIONS as f64,
        paper: group_coverage_upper_bound(n_total, n, tau, LogBase::Ten),
        envelope: group_coverage_envelope(n_total, n, females, tau),
    }
}

fn headers() -> [&'static str; 5] {
    [
        "x",
        "Group-Coverage",
        "Base-Coverage",
        "Paper N/n+tau*log10(n)",
        "Envelope",
    ]
}

/// The row for one point; a Group-Coverage mean above the envelope is
/// recorded in `breaches`.
fn row(figure: &str, x: String, point: &Point, breaches: &mut Vec<String>) -> Vec<String> {
    if point.gc > point.envelope {
        breaches.push(format!(
            "{figure} x={x}: Group-Coverage {:.1} > envelope {:.1}",
            point.gc, point.envelope
        ));
    }
    vec![
        x,
        format!("{:.1}", point.gc),
        format!("{:.1}", point.base),
        format!("{:.0}", point.paper),
        format!("{:.0}", point.envelope),
    ]
}

fn fig7a(breaches: &mut Vec<String>) {
    let (n_total, tau, n) = (100_000usize, 50usize, 50usize);
    let mut t = TablePrinter::new(
        "Figure 7a: avg #tasks vs number of females f in [0, 2*tau] (N=100K, tau=50, n=50)",
        &headers(),
    );
    for f in (0..=2 * tau).step_by(10) {
        let point = run_point(n_total, f, tau, n, 70_001);
        t.row(row("7a", f.to_string(), &point, breaches));
    }
    t.print();
    let _ = t.write_csv("fig7a");
}

fn fig7b(breaches: &mut Vec<String>) {
    let (n_total, n) = (100_000usize, 50usize);
    let mut t = TablePrinter::new(
        "Figure 7b: avg #tasks vs coverage threshold tau (f = tau, N=100K, n=50)",
        &headers(),
    );
    for tau in [1usize, 10, 25, 50, 75, 100] {
        let point = run_point(n_total, tau, tau, n, 70_101);
        t.row(row("7b", tau.to_string(), &point, breaches));
    }
    t.print();
    let _ = t.write_csv("fig7b");
}

fn fig7c(breaches: &mut Vec<String>) {
    let (n_total, tau) = (100_000usize, 50usize);
    let mut t = TablePrinter::new(
        "Figure 7c: avg #tasks vs subset size upper bound n (N=100K, tau=f=50)",
        &headers(),
    );
    for n in [1usize, 5, 10, 20, 50, 100, 200, 400] {
        let point = run_point(n_total, tau, tau, n, 70_201);
        t.row(row("7c", n.to_string(), &point, breaches));
    }
    t.print();
    let _ = t.write_csv("fig7c");
}

fn fig7d(breaches: &mut Vec<String>) {
    let (tau, n) = (50usize, 50usize);
    let mut headers = headers().to_vec();
    headers[0] = "N";
    headers.push("GC % of N");
    let mut t = TablePrinter::new(
        "Figure 7d: avg #tasks vs dataset size N (tau=f=50, n=50)",
        &headers,
    );
    for n_total in [1_000usize, 10_000, 100_000, 400_000, 1_000_000] {
        let point = run_point(n_total, tau, tau, n, 70_301);
        let mut cells = row("7d", n_total.to_string(), &point, breaches);
        cells.push(format!("{:.2}%", 100.0 * point.gc / n_total as f64));
        t.row(cells);
    }
    t.print();
    let _ = t.write_csv("fig7d");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty();
    let want = |k: &str| all || args.iter().any(|a| a == k);
    let mut breaches = Vec::new();
    if want("a") {
        fig7a(&mut breaches);
    }
    if want("b") {
        fig7b(&mut breaches);
    }
    if want("c") {
        fig7c(&mut breaches);
    }
    if want("d") {
        fig7d(&mut breaches);
    }
    if !breaches.is_empty() {
        for breach in &breaches {
            eprintln!("envelope exceeded: {breach}");
        }
        std::process::exit(1);
    }
    println!("\nevery Group-Coverage mean is within the proven envelope ✓");
}
