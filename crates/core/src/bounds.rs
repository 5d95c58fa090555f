//! Theoretical task bounds from §3.2 of the paper.
//!
//! * Theorem 3.2: with `N = n` (a single tree) the maximum number of tasks
//!   is `Θ(τ·log n)`, and the bound is tight.
//! * Lemma 3.3: with the pool partitioned into `⌈N/n⌉` trees the maximum is
//!   `Θ(N/n + τ·log n)`.
//! * The scan lower bound: any algorithm needs `N/n` set queries just to
//!   touch every object once, so Group-Coverage is within an additive
//!   `Θ(τ·log n)` of optimal.
//!
//! The paper's Table 1 reports the bound with a base-10 logarithm
//! (`1522/50 + 50·log10(50) ≈ 115`); the asymptotic analysis uses base 2.
//! Both are provided.

use crate::error::require_positive_n;
use serde::{Deserialize, Serialize};

/// Logarithm base used when evaluating the bound formulas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum LogBase {
    /// Base 2 — the asymptotic analysis (binary splitting).
    #[default]
    Two,
    /// Base 10 — the constant the paper reports in Table 1.
    Ten,
    /// Natural log.
    E,
}

impl LogBase {
    fn log(self, x: f64) -> f64 {
        match self {
            Self::Two => x.log2(),
            Self::Ten => x.log10(),
            Self::E => x.ln(),
        }
    }
}

/// The paper's bound formula for Group-Coverage tasks: `N/n + τ·log(n)`
/// (Lemma 3.3). It is an asymptotic `Θ` expression evaluated without its
/// constants, so a run can exceed it; [`group_coverage_envelope`] is the
/// bound every run respects.
///
/// # Panics
/// Panics when `n == 0`.
pub fn group_coverage_upper_bound(n_total: usize, n: usize, tau: usize, base: LogBase) -> f64 {
    require_positive_n(n);
    let roots = n_total as f64 / n as f64;
    let split_cost = tau as f64 * base.log((n.max(2)) as f64);
    roots + split_cost
}

/// The proven worst-case envelope on Group-Coverage tasks over a pool of
/// `n_total` objects holding `members` members of the target:
/// `⌈N/n⌉ + 2·min(f, τ)·(log2 n + 1)`. Every root costs one query, and
/// each of at most `min(f, τ)` *yes* leaves costs at most two queries per
/// tree level. Unlike [`group_coverage_upper_bound`], which evaluates the
/// paper's asymptotic formula, this holds for every run (it is what the
/// `prop_cost_within_envelope` property pins).
///
/// # Panics
/// Panics when `n == 0`.
pub fn group_coverage_envelope(n_total: usize, n: usize, members: usize, tau: usize) -> f64 {
    require_positive_n(n);
    let roots = n_total.div_ceil(n) as f64;
    roots + 2.0 * members.min(tau) as f64 * ((n as f64).log2() + 1.0)
}

/// Lower bound for any algorithm that must certify an uncovered group:
/// `N/n` set queries (every object must appear in at least one query).
pub fn scan_lower_bound(n_total: usize, n: usize) -> f64 {
    require_positive_n(n);
    n_total as f64 / n as f64
}

/// The adversarial-instance cost of the tightness proof of Theorem 3.2:
/// `Θ(τ·log(n/τ))` — τ−1 members uniformly spread over a single tree.
pub fn tightness_adversarial_cost(n: usize, tau: usize, base: LogBase) -> f64 {
    require_positive_n(n);
    assert!(tau > 0, "tau must be positive");
    let ratio = (n as f64 / tau as f64).max(2.0);
    tau as f64 * base.log(ratio)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table1_bound_is_115() {
        // FERET slice: N = 215 + 1307 = 1522, n = 50, τ = 50.
        let b = group_coverage_upper_bound(1522, 50, 50, LogBase::Ten);
        assert!((b - 115.39).abs() < 0.1, "got {b}");
    }

    #[test]
    fn base2_bound_dominates_base10() {
        let b2 = group_coverage_upper_bound(1000, 50, 50, LogBase::Two);
        let b10 = group_coverage_upper_bound(1000, 50, 50, LogBase::Ten);
        assert!(b2 > b10);
    }

    #[test]
    fn envelope_counts_roots_and_two_queries_per_level_per_leaf() {
        // Figure 4: one 16-object tree, 5 members, τ = 3 → 1 + 2·3·(4 + 1).
        assert_eq!(group_coverage_envelope(16, 16, 5, 3), 31.0);
        // No members: the roots alone.
        assert_eq!(group_coverage_envelope(1000, 50, 0, 50), 20.0);
    }

    #[test]
    fn lower_bound_is_scan() {
        assert_eq!(scan_lower_bound(100_000, 50), 2000.0);
        assert_eq!(scan_lower_bound(10, 50), 0.2);
    }

    #[test]
    fn upper_bound_monotone_in_tau_and_n_total() {
        let base = LogBase::Two;
        assert!(
            group_coverage_upper_bound(1000, 50, 60, base)
                > group_coverage_upper_bound(1000, 50, 50, base)
        );
        assert!(
            group_coverage_upper_bound(2000, 50, 50, base)
                > group_coverage_upper_bound(1000, 50, 50, base)
        );
    }

    #[test]
    fn adversarial_cost_shrinks_with_tau_ratio() {
        // For fixed n, the per-member path gets shorter as τ grows.
        let a = tightness_adversarial_cost(4096, 4, LogBase::Two) / 4.0;
        let b = tightness_adversarial_cost(4096, 64, LogBase::Two) / 64.0;
        assert!(a > b);
    }

    #[test]
    fn small_n_does_not_produce_negative_bounds() {
        for base in [LogBase::Two, LogBase::Ten, LogBase::E] {
            assert!(group_coverage_upper_bound(10, 1, 5, base) >= 10.0);
            assert!(tightness_adversarial_cost(1, 1, base) >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_n_panics() {
        group_coverage_upper_bound(10, 0, 5, LogBase::Two);
    }
}
