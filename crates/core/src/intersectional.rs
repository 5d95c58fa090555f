//! **Intersectional-Coverage** — MUP discovery over multiple attributes
//! (Algorithm 3, §4).
//!
//! The problem reduces to the fully-specified subgroups at the bottom of the
//! pattern graph (Figure 5): run [`multiple_coverage`] over them (with the
//! sibling-only aggregation mode), then propagate coverage *up* the lattice
//! — a parent's population is the sum of its children's, so exact counts
//! for uncovered subgroups plus "covered" flags for the rest decide every
//! ancestor without further crowd work. The uncovered region is reported as
//! maximal uncovered patterns (MUPs).

use crate::engine::{AnswerSource, Engine, ForkableSource, ObjectId};
use crate::error::Interrupted;
use crate::ledger::TaskLedger;
use crate::multiple::{
    multiple_coverage, multiple_coverage_par, GroupResult, IntraJobParallelism, MultipleConfig,
};
use crate::pattern::Pattern;
use crate::pattern_graph::PatternGraph;
use crate::schema::AttributeSchema;
use rand::Rng;
use serde::{Deserialize, Error, Serialize, Value};
use std::collections::HashMap;

/// Coverage verdict for one pattern of the lattice.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PatternCoverage {
    /// The pattern.
    pub pattern: Pattern,
    /// Is the pattern covered?
    pub covered: bool,
    /// Known population: exact when `exact`, otherwise a lower bound.
    pub count: usize,
    /// True when `count` is exact.
    pub exact: bool,
}

/// Output of [`intersectional_coverage`].
#[derive(Debug, Clone)]
pub struct IntersectionalReport {
    /// Verdicts for the fully-specified subgroups (the crowd-searched level).
    pub full_groups: Vec<GroupResult>,
    /// Verdicts for every pattern of the lattice, root first.
    pub patterns: Vec<PatternCoverage>,
    /// The maximal uncovered patterns.
    pub mups: Vec<Pattern>,
    /// Crowd work consumed.
    pub tasks: TaskLedger,
    /// Pattern → slot in `patterns`, built once at assembly so repeated
    /// [`IntersectionalReport::coverage_of`] lookups are O(1) instead of a
    /// linear lattice scan. Rebuilt on deserialization; not serialized.
    slots: HashMap<Pattern, u32>,
}

impl IntersectionalReport {
    /// Assembles a report, indexing the verdicts for O(1) lookup. The slot
    /// index mirrors `patterns`; callers mutating `patterns` afterwards
    /// should rebuild via `IntersectionalReport::new`.
    pub fn new(
        full_groups: Vec<GroupResult>,
        patterns: Vec<PatternCoverage>,
        mups: Vec<Pattern>,
        tasks: TaskLedger,
    ) -> Self {
        let slots = patterns
            .iter()
            .enumerate()
            .map(|(i, c)| (c.pattern, i as u32))
            .collect();
        Self {
            full_groups,
            patterns,
            mups,
            tasks,
            slots,
        }
    }

    /// The verdict for one pattern, if present — one indexed lookup, O(1)
    /// however often it is called (partial reports omit undecided patterns,
    /// which return `None`).
    pub fn coverage_of(&self, p: &Pattern) -> Option<&PatternCoverage> {
        self.slots.get(p).map(|slot| &self.patterns[*slot as usize])
    }
}

// The slot index is derived data: serialize only the four payload fields
// (the vendored serde derive cannot skip a field) and rebuild the index on
// the way back in.
impl Serialize for IntersectionalReport {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("full_groups".to_string(), self.full_groups.to_value()),
            ("patterns".to_string(), self.patterns.to_value()),
            ("mups".to_string(), self.mups.to_value()),
            ("tasks".to_string(), self.tasks.to_value()),
        ])
    }
}

impl Deserialize for IntersectionalReport {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(Self::new(
            Vec::from_value(value.get_field("full_groups")?)?,
            Vec::from_value(value.get_field("patterns")?)?,
            Vec::from_value(value.get_field("mups")?)?,
            TaskLedger::from_value(value.get_field("tasks")?)?,
        ))
    }
}

/// Runs **Intersectional-Coverage** (Algorithm 3) over `pool` for every
/// individual and intersectional subgroup of `schema`.
///
/// `cfg.multi` is forced on (the aggregation must only merge sibling
/// subgroups). For sound upward propagation the default also forces
/// `resolve_supergroup_members` on: without it, members of an uncovered
/// super-group only carry lower-bound counts and an ancestor built from
/// them could be misjudged. The paper's Algorithm 3 glosses over this: it
/// propagates counts upward without saying how exact they must be.
///
/// # Panics
/// Panics when `cfg.n == 0`.
///
/// # Errors
/// When the ask path fails, the [`Interrupted`] error carries a partial
/// [`IntersectionalReport`] built from the fully-specified subgroups that
/// *were* decided: the lattice is propagated over partial knowledge — a
/// pattern is reported covered as soon as any decided descendant is
/// covered, uncovered only when **all** its descendants are decided — and
/// MUPs are emitted only where the pattern and all its parents are
/// decidable. Every MUP in the partial report is therefore a true MUP of
/// the complete run (anytime semantics).
///
/// # Example
///
/// ```
/// use coverage_core::prelude::*;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let schema = AttributeSchema::new(vec![
///     Attribute::binary("gender", "male", "female").unwrap(),
///     Attribute::binary("skin", "light", "dark").unwrap(),
/// ]).unwrap();
/// // Plenty of light-skinned faces of both genders; 40 dark-skinned males,
/// // 5 dark-skinned females.
/// let mut labels = Vec::new();
/// for i in 0..1600u32 {
///     labels.push(Labels::new(&[(i % 2) as u8, 0]));
/// }
/// labels.extend(std::iter::repeat(Labels::new(&[0, 1])).take(40));
/// labels.extend(std::iter::repeat(Labels::new(&[1, 1])).take(5));
/// let truth = VecGroundTruth::new(labels);
///
/// let mut engine = Engine::with_point_batch(PerfectSource::new(&truth), 50);
/// let mut rng = SmallRng::seed_from_u64(9);
/// let report = intersectional_coverage(
///     &mut engine, &truth.all_ids(), &schema,
///     &MultipleConfig { tau: 50, ..MultipleConfig::default() }, &mut rng,
/// ).unwrap();
/// // 40 + 5 = 45 < 50: the whole dark-skinned group is the MUP.
/// let x_dark = schema.pattern(&[("skin", "dark")]).unwrap();
/// assert_eq!(report.mups, vec![x_dark]);
/// ```
// The Err variant deliberately carries the full partial report — the size
// is the feature, not an accident.
#[allow(clippy::result_large_err)]
pub fn intersectional_coverage<S: AnswerSource, R: Rng + ?Sized>(
    engine: &mut Engine<S>,
    pool: &[ObjectId],
    schema: &AttributeSchema,
    cfg: &MultipleConfig,
    rng: &mut R,
) -> Result<IntersectionalReport, Interrupted<IntersectionalReport>> {
    let mut cfg = cfg.clone();
    cfg.multi = true;
    cfg.resolve_supergroup_members = true;

    let graph = PatternGraph::new(schema);
    let full_groups: Vec<Pattern> = graph.full_groups().to_vec();
    match multiple_coverage(engine, pool, &full_groups, &cfg, rng) {
        Ok(report) => Ok(propagate(&graph, report, cfg.tau)),
        Err(interrupted) => {
            Err(interrupted.map_partial(|partial| propagate(&graph, partial, cfg.tau)))
        }
    }
}

/// [`intersectional_coverage`] with the fully-specified-subgroup scan
/// sharded across `parallelism` threads inside this one audit (via
/// [`multiple_coverage_par`]); verdicts, counts, MUPs and the logical
/// ledger are byte-identical to the sequential run for any worker count.
///
/// # Panics
/// Panics when `cfg.n == 0`.
///
/// # Errors
/// As [`intersectional_coverage`].
#[allow(clippy::result_large_err)]
pub fn intersectional_coverage_par<S: ForkableSource, R: Rng + ?Sized>(
    engine: &mut Engine<S>,
    pool: &[ObjectId],
    schema: &AttributeSchema,
    cfg: &MultipleConfig,
    rng: &mut R,
    parallelism: IntraJobParallelism,
) -> Result<IntersectionalReport, Interrupted<IntersectionalReport>> {
    let mut cfg = cfg.clone();
    cfg.multi = true;
    cfg.resolve_supergroup_members = true;

    let graph = PatternGraph::new(schema);
    let full_groups: Vec<Pattern> = graph.full_groups().to_vec();
    match multiple_coverage_par(engine, pool, &full_groups, &cfg, rng, parallelism) {
        Ok(report) => Ok(propagate(&graph, report, cfg.tau)),
        Err(interrupted) => {
            Err(interrupted.map_partial(|partial| propagate(&graph, partial, cfg.tau)))
        }
    }
}

/// Per-pattern aggregate over fully-specified descendants, composed
/// bottom-up: AND/OR/sum are associative and commutative with the right
/// neutral elements, so combining prime children reproduces the flat
/// descendant fold exactly — in O(edges) instead of O(patterns × cells).
#[derive(Clone, Copy)]
struct Fold {
    any_covered: bool,
    all_exact: bool,
    all_decided: bool,
    sum: usize,
}

impl Fold {
    /// The neutral element — also exactly what an *undecided* cell
    /// contributes (it only clears `all_decided`).
    const UNDECIDED: Fold = Fold {
        any_covered: false,
        all_exact: true,
        all_decided: false,
        sum: 0,
    };

    fn of_leaf(r: &GroupResult) -> Fold {
        Fold {
            any_covered: r.covered,
            all_exact: r.count_exact,
            all_decided: true,
            sum: r.count,
        }
    }

    fn absorb(&mut self, other: &Fold) {
        self.any_covered |= other.any_covered;
        self.all_exact &= other.all_exact;
        self.all_decided &= other.all_decided;
        self.sum += other.sum;
    }
}

/// Upward propagation over (possibly partial) full-group verdicts: a
/// pattern's population is the disjoint sum of its fully-specified
/// descendants'. With every group decided this is the paper's Algorithm 3
/// propagation; with a partial verdict set it reports only what is sound —
/// covered as soon as one decided descendant is covered, uncovered only
/// when all descendants are decided, undecided patterns omitted.
///
/// Everything runs on dense [`PatternGraph`] ids: leaves initialize from
/// the group verdicts, one reverse pass over prime-child edges folds the
/// aggregates for every pattern, and the MUP check reads parents through
/// the id-indexed CSR — no `HashMap<Pattern, _>` anywhere.
fn propagate(
    graph: &PatternGraph,
    report: crate::multiple::MultipleReport,
    tau: usize,
) -> IntersectionalReport {
    let n = graph.len();
    let full_start = n - graph.full_groups().len();
    let mut folds = vec![Fold::UNDECIDED; n];
    for r in &report.results {
        if let Some(id) = graph.pattern_id(&r.group) {
            folds[id as usize] = Fold::of_leaf(r);
        }
    }
    // `all_decided` starts true for interior patterns (it is an AND).
    for fold in folds.iter_mut().take(full_start) {
        fold.all_decided = true;
    }
    for id in (0..full_start).rev() {
        let mut fold = folds[id];
        for child in graph.prime_children_ids(id as u32) {
            fold.absorb(&folds[*child as usize]);
        }
        folds[id] = fold;
    }

    let mut patterns = Vec::with_capacity(n);
    let mut pattern_ids = Vec::with_capacity(n);
    // Dense verdict map: `None` = undecided/omitted (keeps children out of
    // the MUP set on partial knowledge).
    let mut covered_by_id: Vec<Option<bool>> = vec![None; n];
    for (id, p) in graph.iter().enumerate() {
        let fold = &folds[id];
        if !fold.all_decided && !fold.any_covered && fold.sum < tau {
            // Cannot be proven covered or uncovered from what was decided.
            continue;
        }
        let covered = fold.any_covered || fold.sum >= tau;
        covered_by_id[id] = Some(covered);
        pattern_ids.push(id as u32);
        patterns.push(PatternCoverage {
            pattern: *p,
            covered,
            count: fold.sum,
            // A covered descendant's count is a stopped lower bound; an
            // undecided descendant leaves the sum a lower bound too.
            exact: fold.all_exact && !fold.any_covered && fold.all_decided,
        });
    }

    // MUPs: uncovered with every parent covered (the root qualifies when
    // the dataset itself is below τ).
    let mups: Vec<Pattern> = patterns
        .iter()
        .zip(&pattern_ids)
        .filter(|(c, id)| {
            !c.covered
                && graph
                    .parents_of(**id)
                    .iter()
                    .all(|p| covered_by_id[*p as usize].unwrap_or(false))
        })
        .map(|(c, _)| c.pattern)
        .collect();

    IntersectionalReport::new(report.results, patterns, mups, report.tasks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GroundTruth;
    use crate::engine::{PerfectSource, VecGroundTruth};
    use crate::mup::mups_from_labels;
    use crate::schema::{Attribute, Labels};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn schema_2x2() -> AttributeSchema {
        AttributeSchema::new(vec![
            Attribute::binary("gender", "male", "female").unwrap(),
            Attribute::binary("skin", "light", "dark").unwrap(),
        ])
        .unwrap()
    }

    /// Interleaved dataset over 2 attributes from (labels, count) specs.
    fn truth_2d(spec: &[([u8; 2], usize)]) -> VecGroundTruth {
        let mut remaining: Vec<([u8; 2], usize)> =
            spec.iter().copied().filter(|(_, c)| *c > 0).collect();
        let mut labels = Vec::new();
        while !remaining.is_empty() {
            for (vals, c) in &mut remaining {
                labels.push(Labels::new(vals));
                *c -= 1;
            }
            remaining.retain(|(_, c)| *c > 0);
        }
        VecGroundTruth::new(labels)
    }

    fn run(
        truth: &VecGroundTruth,
        schema: &AttributeSchema,
        tau: usize,
        seed: u64,
    ) -> IntersectionalReport {
        let mut engine = Engine::with_point_batch(PerfectSource::new(truth), 50);
        let mut rng = SmallRng::seed_from_u64(seed);
        let cfg = MultipleConfig {
            tau,
            ..MultipleConfig::default()
        };
        intersectional_coverage(&mut engine, &truth.all_ids(), schema, &cfg, &mut rng).unwrap()
    }

    #[test]
    fn mups_match_offline_ground_truth() {
        // dark females nearly absent; dark males small; light plentiful.
        let schema = schema_2x2();
        let truth = truth_2d(&[([0, 0], 800), ([1, 0], 700), ([0, 1], 30), ([1, 1], 5)]);
        for seed in 0..5 {
            let report = run(&truth, &schema, 50, seed);
            let mut got = report.mups.clone();
            let mut want = mups_from_labels(truth.labels(), &schema, 50);
            got.sort_by_key(|p| p.to_string());
            want.sort_by_key(|p| p.to_string());
            assert_eq!(got, want, "seed {seed}");
            // X-dark has 35 < 50 members and covered parents ⇒ the MUP.
            let x_dark = schema.pattern(&[("skin", "dark")]).unwrap();
            assert!(report.mups.contains(&x_dark));
        }
    }

    #[test]
    fn paper_asian_style_propagation() {
        // Two uncovered children summing past τ ⇒ parent covered without
        // extra crowd work (the paper's 28+32 Asian example, on skin=dark).
        let schema = schema_2x2();
        let truth = truth_2d(&[([0, 0], 800), ([1, 0], 700), ([0, 1], 32), ([1, 1], 28)]);
        let report = run(&truth, &schema, 50, 3);
        let x_dark = schema.pattern(&[("skin", "dark")]).unwrap();
        let cov = report.coverage_of(&x_dark).unwrap();
        assert!(cov.covered, "28+32 = 60 ≥ 50 must cover X-dark");
        assert_eq!(cov.count, 60);
        assert!(cov.exact);
        // The children themselves are the MUPs.
        let male_dark = schema
            .pattern(&[("gender", "male"), ("skin", "dark")])
            .unwrap();
        assert!(report.mups.contains(&male_dark));
    }

    #[test]
    fn fully_covered_dataset_yields_no_mups() {
        let schema = schema_2x2();
        let truth = truth_2d(&[([0, 0], 100), ([1, 0], 100), ([0, 1], 100), ([1, 1], 100)]);
        let report = run(&truth, &schema, 50, 1);
        assert!(report.mups.is_empty());
        for p in &report.patterns {
            assert!(p.covered, "{} should be covered", p.pattern);
        }
    }

    #[test]
    fn root_is_mup_for_tiny_dataset() {
        let schema = schema_2x2();
        let truth = truth_2d(&[([0, 0], 3), ([1, 1], 4)]);
        let report = run(&truth, &schema, 50, 1);
        assert_eq!(report.mups, vec![Pattern::all_unspecified(2)]);
    }

    #[test]
    fn three_binary_attributes_match_offline() {
        let schema = AttributeSchema::new(vec![
            Attribute::binary("a", "0", "1").unwrap(),
            Attribute::binary("b", "0", "1").unwrap(),
            Attribute::binary("c", "0", "1").unwrap(),
        ])
        .unwrap();
        // Mixed composition: some cells huge, some tiny, some empty.
        let spec: Vec<([u8; 3], usize)> = vec![
            ([0, 0, 0], 300),
            ([0, 0, 1], 280),
            ([0, 1, 0], 260),
            ([0, 1, 1], 10),
            ([1, 0, 0], 240),
            ([1, 0, 1], 8),
            ([1, 1, 0], 0),
            ([1, 1, 1], 30),
        ];
        let mut remaining: Vec<([u8; 3], usize)> =
            spec.iter().copied().filter(|(_, c)| *c > 0).collect();
        let mut labels = Vec::new();
        while !remaining.is_empty() {
            for (vals, c) in &mut remaining {
                labels.push(Labels::new(vals));
                *c -= 1;
            }
            remaining.retain(|(_, c)| *c > 0);
        }
        let truth = VecGroundTruth::new(labels);
        for seed in 0..3 {
            let mut engine = Engine::with_point_batch(PerfectSource::new(&truth), 50);
            let mut rng = SmallRng::seed_from_u64(seed);
            let cfg = MultipleConfig {
                tau: 50,
                ..MultipleConfig::default()
            };
            let report =
                intersectional_coverage(&mut engine, &truth.all_ids(), &schema, &cfg, &mut rng)
                    .unwrap();
            let mut got = report.mups.clone();
            let mut want = mups_from_labels(truth.labels(), &schema, 50);
            got.sort_by_key(|p| p.to_string());
            want.sort_by_key(|p| p.to_string());
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn counts_for_uncovered_patterns_are_exact() {
        let schema = schema_2x2();
        let truth = truth_2d(&[([0, 0], 900), ([1, 0], 900), ([0, 1], 12), ([1, 1], 7)]);
        let report = run(&truth, &schema, 50, 7);
        let x_dark = schema.pattern(&[("skin", "dark")]).unwrap();
        let cov = report.coverage_of(&x_dark).unwrap();
        assert!(!cov.covered);
        assert!(cov.exact);
        assert_eq!(cov.count, 19);
    }
}
