//! Maximal Uncovered Patterns (MUPs) — the coverage machinery the paper
//! inherits from Asudeh et al. (ICDE 2019), reference \[4\].
//!
//! A pattern `P` is **uncovered** when fewer than `τ` objects match it, and
//! a **MUP** when it is uncovered while every parent is covered. The set of
//! MUPs is a compact certificate of everything that is uncovered: a pattern
//! is uncovered iff some MUP generalizes it... — precisely the other way
//! around: iff it is *specialized by no covered ancestor*, i.e. iff some MUP
//! generalizes it or it lies below a MUP. Concretely: every uncovered
//! pattern has a MUP ancestor-or-self.
//!
//! Two entry points:
//!
//! * [`mups_from_labels`] — the classic fully-labeled-data case (the
//!   baseline's second step: label everything, then detect).
//! * [`mups_from_counts`] — from exact counts of the fully-specified
//!   subgroups, as produced by the crowd algorithms.
//!
//! Detection runs on the **dense lattice index** (see
//! [`PatternGraph`]): one bottom-up prime-child pass aggregates every
//! pattern's population in O(edges), and one forward pass over dense ids
//! folds the coverage flags and the parent check together — no pattern is
//! ever hashed. The historical `HashMap`-keyed implementation survives as
//! [`mups_from_counts_baseline`], the reference the dense path is verified
//! against (equivalence proptest below) and timed against (the
//! `giant_audit` example).

use crate::pattern::Pattern;
use crate::pattern_graph::PatternGraph;
use crate::schema::{AttributeSchema, Labels};
use std::collections::HashMap;

/// Exact population counts for fully-specified subgroups.
pub type FullGroupCounts = HashMap<Pattern, usize>;

/// Tallies fully-specified subgroup counts from labeled data.
pub fn count_full_groups(labels: &[Labels], schema: &AttributeSchema) -> FullGroupCounts {
    let mut counts: FullGroupCounts = HashMap::with_capacity(schema.num_full_groups());
    for l in labels {
        debug_assert!(schema.validate_labels(l).is_ok());
        *counts.entry(Pattern::fully_specified(l)).or_insert(0) += 1;
    }
    counts
}

/// Population of an arbitrary pattern = sum over its fully-specified
/// descendants' counts (served from the graph's precomputed descendant
/// slice — no allocation).
pub fn pattern_count(graph: &PatternGraph, counts: &FullGroupCounts, p: &Pattern) -> usize {
    graph
        .full_descendants(p)
        .iter()
        .map(|fg| counts.get(fg).copied().unwrap_or(0))
        .sum()
}

/// Finds all MUPs given exact fully-specified subgroup counts.
///
/// Dense-lattice formulation: every pattern's population comes from one
/// bottom-up prime-child sum ([`PatternGraph::pattern_counts`], O(edges)),
/// then a single forward pass over dense ids folds each pattern's coverage
/// flag and its parents' (parents always carry smaller ids, so the flag
/// vector is already filled where the parent check reads it). A pattern is
/// a MUP when its own count is below `tau` and every parent's count reaches
/// `tau`; the root (all-`X`) pattern has no parents and is a MUP when the
/// whole dataset is smaller than `tau`. Output order is id order — the same
/// root-first, level-major order the `HashMap` formulation produced, so
/// verdicts are byte-identical to [`mups_from_counts_baseline`].
pub fn mups_from_counts(
    schema: &AttributeSchema,
    counts: &FullGroupCounts,
    tau: usize,
) -> Vec<Pattern> {
    let graph = PatternGraph::new(schema);
    let pattern_counts = graph.pattern_counts(counts);
    let mut covered = vec![false; graph.len()];
    let mut mups = Vec::new();
    for (id, p) in graph.iter().enumerate() {
        let is_covered = pattern_counts[id] >= tau;
        covered[id] = is_covered;
        if !is_covered
            && graph
                .parents_of(id as u32)
                .iter()
                .all(|parent| covered[*parent as usize])
        {
            mups.push(*p);
        }
    }
    mups
}

/// The historical `HashMap`-keyed MUP detector: per-pattern descendant
/// scans (O(patterns × full groups)) with patterns re-hashed as map keys.
///
/// Kept as the reference implementation the dense path is proptested
/// against, and as the timing baseline of the `giant_audit` example, which
/// asserts that the dense path agrees with it and beats it.
pub fn mups_from_counts_baseline(
    schema: &AttributeSchema,
    counts: &FullGroupCounts,
    tau: usize,
) -> Vec<Pattern> {
    let graph = PatternGraph::new(schema);
    let mut covered: HashMap<Pattern, bool> = HashMap::with_capacity(graph.len());
    for p in graph.iter() {
        covered.insert(*p, pattern_count(&graph, counts, p) >= tau);
    }
    let mut mups = Vec::new();
    for p in graph.iter() {
        if covered[p] {
            continue;
        }
        if p.parents().iter().all(|parent| covered[parent]) {
            mups.push(*p);
        }
    }
    mups
}

/// Finds all MUPs of fully-labeled data — the off-the-shelf technique the
/// paper's baseline would apply after labeling the whole dataset.
pub fn mups_from_labels(labels: &[Labels], schema: &AttributeSchema, tau: usize) -> Vec<Pattern> {
    let counts = count_full_groups(labels, schema);
    mups_from_counts(schema, &counts, tau)
}

/// True when `p` is uncovered according to a MUP set: some MUP
/// generalizes `p` (then `p` is the MUP itself or one of its descendants).
pub fn uncovered_by_mups(mups: &[Pattern], p: &Pattern) -> bool {
    mups.iter().any(|m| m.generalizes(p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;
    use proptest::prelude::*;

    fn schema_gender_race() -> AttributeSchema {
        AttributeSchema::new(vec![
            Attribute::binary("gender", "male", "female").unwrap(),
            Attribute::new("race", ["white", "black", "hispanic", "asian"]).unwrap(),
        ])
        .unwrap()
    }

    fn labels_from_counts(
        schema: &AttributeSchema,
        counts: &[(&str, &str, &str, &str, usize)],
    ) -> Vec<Labels> {
        let mut out = Vec::new();
        for (a1, v1, a2, v2, c) in counts {
            let l = schema.labels(&[(*a1, *v1), (*a2, *v2)]).unwrap();
            out.extend(std::iter::repeat_n(l, *c));
        }
        out
    }

    /// The paper's §4 example: 15 Asian-Female + 20 Asian-Male < τ = 50 ⇒
    /// X-asian is uncovered too; with 28 + 32 it is covered.
    #[test]
    fn paper_asian_example() {
        let schema = schema_gender_race();
        let mut base = labels_from_counts(
            &schema,
            &[
                ("gender", "male", "race", "white", 500),
                ("gender", "female", "race", "white", 500),
                ("gender", "male", "race", "black", 100),
                ("gender", "female", "race", "black", 100),
                ("gender", "male", "race", "hispanic", 100),
                ("gender", "female", "race", "hispanic", 100),
            ],
        );
        let uncovered_case = {
            let mut l = base.clone();
            l.extend(labels_from_counts(
                &schema,
                &[
                    ("gender", "female", "race", "asian", 15),
                    ("gender", "male", "race", "asian", 20),
                ],
            ));
            mups_from_labels(&l, &schema, 50)
        };
        let x_asian = schema.pattern(&[("race", "asian")]).unwrap();
        assert!(
            uncovered_case.contains(&x_asian),
            "X-asian should be the MUP, got {uncovered_case:?}"
        );
        // Its children are uncovered but NOT maximal.
        let fem_asian = schema
            .pattern(&[("gender", "female"), ("race", "asian")])
            .unwrap();
        assert!(!uncovered_case.contains(&fem_asian));
        assert!(uncovered_by_mups(&uncovered_case, &fem_asian));

        base.extend(labels_from_counts(
            &schema,
            &[
                ("gender", "female", "race", "asian", 28),
                ("gender", "male", "race", "asian", 32),
            ],
        ));
        let covered_case = mups_from_labels(&base, &schema, 50);
        assert!(!covered_case.contains(&x_asian));
        // The children stay individually uncovered: they are the MUPs now.
        assert!(covered_case.contains(&fem_asian));
    }

    #[test]
    fn empty_dataset_root_is_the_only_mup() {
        let schema = schema_gender_race();
        let mups = mups_from_labels(&[], &schema, 1);
        assert_eq!(mups, vec![Pattern::all_unspecified(2)]);
    }

    #[test]
    fn fully_covered_dataset_has_no_mups() {
        let schema = schema_gender_race();
        let mut labels = Vec::new();
        for g in schema.full_groups() {
            let l = Labels::new(&[g.get(0).unwrap(), g.get(1).unwrap()]);
            labels.extend(std::iter::repeat_n(l, 60));
        }
        assert!(mups_from_labels(&labels, &schema, 50).is_empty());
    }

    #[test]
    fn tau_zero_means_everything_covered() {
        let schema = schema_gender_race();
        assert!(mups_from_labels(&[], &schema, 0).is_empty());
    }

    #[test]
    fn pattern_count_sums_descendants() {
        let schema = schema_gender_race();
        let graph = PatternGraph::new(&schema);
        let labels = labels_from_counts(
            &schema,
            &[
                ("gender", "female", "race", "asian", 3),
                ("gender", "male", "race", "asian", 5),
                ("gender", "female", "race", "white", 7),
            ],
        );
        let counts = count_full_groups(&labels, &schema);
        let x_asian = schema.pattern(&[("race", "asian")]).unwrap();
        assert_eq!(pattern_count(&graph, &counts, &x_asian), 8);
        let female_x = schema.pattern(&[("gender", "female")]).unwrap();
        assert_eq!(pattern_count(&graph, &counts, &female_x), 10);
        let root = Pattern::all_unspecified(2);
        assert_eq!(pattern_count(&graph, &counts, &root), 15);
    }

    /// Dense ids and the HashMap baseline agree on a wider lattice than
    /// the proptest below draws: 5×5×5 values, 216 patterns, with every
    /// seventh full group under τ so the MUP list is not empty.
    #[test]
    fn dense_equals_baseline_on_5x5x5() {
        let schema = AttributeSchema::new(vec![
            Attribute::new("a", ["0", "1", "2", "3", "4"]).unwrap(),
            Attribute::new("b", ["0", "1", "2", "3", "4"]).unwrap(),
            Attribute::new("c", ["0", "1", "2", "3", "4"]).unwrap(),
        ])
        .unwrap();
        let graph = PatternGraph::new(&schema);
        let counts: FullGroupCounts = graph
            .full_groups()
            .iter()
            .enumerate()
            .map(|(i, p)| (*p, if i % 7 == 0 { 12 } else { 80 + i % 40 }))
            .collect();
        let dense = mups_from_counts(&schema, &counts, 50);
        assert!(!dense.is_empty());
        assert_eq!(dense, mups_from_counts_baseline(&schema, &counts, 50));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The dense-id detector and the HashMap baseline return the
        /// byte-identical MUP list (content *and* order) on random
        /// compositions over a 2×4×3 schema.
        #[test]
        fn prop_dense_equals_baseline(
            cells in proptest::collection::vec(0usize..120, 24),
            tau in 1usize..80,
        ) {
            let schema = AttributeSchema::new(vec![
                Attribute::binary("gender", "m", "f").unwrap(),
                Attribute::new("race", ["w", "b", "h", "a"]).unwrap(),
                Attribute::new("age", ["c", "ad", "s"]).unwrap(),
            ]).unwrap();
            let graph = PatternGraph::new(&schema);
            let counts: FullGroupCounts = graph
                .full_groups()
                .iter()
                .zip(&cells)
                .map(|(p, c)| (*p, *c))
                .collect();
            prop_assert_eq!(
                mups_from_counts(&schema, &counts, tau),
                mups_from_counts_baseline(&schema, &counts, tau)
            );
        }

        /// MUP soundness & completeness on random datasets over a 2×3 schema:
        /// 1. every MUP is uncovered with all parents covered;
        /// 2. the MUP set is an antichain;
        /// 3. every uncovered pattern has a MUP ancestor-or-self.
        #[test]
        fn prop_mup_invariants(
            raw in proptest::collection::vec((0u8..2, 0u8..3), 0..300),
            tau in 1usize..40,
        ) {
            let schema = AttributeSchema::new(vec![
                Attribute::binary("a", "a0", "a1").unwrap(),
                Attribute::new("b", ["b0", "b1", "b2"]).unwrap(),
            ]).unwrap();
            let labels: Vec<Labels> = raw.iter().map(|(a, b)| Labels::new(&[*a, *b])).collect();
            let graph = PatternGraph::new(&schema);
            let counts = count_full_groups(&labels, &schema);
            let mups = mups_from_labels(&labels, &schema, tau);

            for m in &mups {
                prop_assert!(pattern_count(&graph, &counts, m) < tau);
                for parent in m.parents() {
                    prop_assert!(pattern_count(&graph, &counts, &parent) >= tau);
                }
            }
            for (i, a) in mups.iter().enumerate() {
                for (j, b) in mups.iter().enumerate() {
                    if i != j {
                        prop_assert!(!a.generalizes(b), "{a} generalizes {b}");
                    }
                }
            }
            for p in graph.iter() {
                let uncovered = pattern_count(&graph, &counts, p) < tau;
                prop_assert_eq!(
                    uncovered,
                    uncovered_by_mups(&mups, p),
                    "pattern {} misclassified", p
                );
            }
        }
    }
}
