//! **Group-Coverage** — the paper's core divide-and-conquer algorithm
//! (Algorithm 1, §3.1).
//!
//! Given an unlabeled pool and a target group `g`, decide whether the pool
//! contains at least `τ` members of `g`, using *set queries* ("does this set
//! contain at least one member of g?"). The algorithm belongs to the group
//! testing family:
//!
//! * a **no** answer prunes the whole set — for uncovered groups, large
//!   chunks of the dataset disappear after one task;
//! * a **yes** answer forces a split, but because explored sets are
//!   disjoint, the number of *yes* leaves lower-bounds `|g ∩ pool|`; the run
//!   stops as soon as that lower bound reaches `τ`.
//!
//! Cost: `Θ(N/n + τ·log n)` tasks in the worst case, which is only an
//! additive `Θ(τ·log n)` above the trivial `N/n` lower bound (§3.2).
//!
//! ## Rounds
//!
//! The breadth-first loop asks its set queries in **rounds**, one
//! [`Engine::ask_sets`] call (one dispatch round on a live crowd) per batch
//! instead of one per question. A round is the longest prefix of the FIFO
//! queue whose asks are already decided: roots, left children, and right
//! children whose left sibling already answered *yes*. A right child whose
//! left sibling is still unanswered ends the round, because a *no* on the
//! left substitutes the right child for free (line 12). A round holds at
//! most `τ − cnt` questions. The answers are processed in queue order by
//! the one-at-a-time loop body, and each answer raises `cnt` by at most
//! one, so the run cannot stop before a round's last answer. Every round is
//! therefore a prefix of the one-at-a-time question sequence: the
//! questions, the ledger, the witnesses and the verdict are identical, and
//! only the number of dispatch rounds falls — the argument behind
//! Base-Coverage's τ − cnt rounds, applied level by level to the tree (the
//! level-wise traversal of Asudeh et al.). Under a cut the answered prefix
//! is processed before the error surfaces, so the partial outcome is the
//! one-at-a-time one too. The paper's Figure 4 example asks its 7
//! questions in 6 rounds. The depth-first ablation asks one question per
//! round.

use crate::engine::{AnswerSource, Engine, ObjectId};
use crate::error::{require_positive_n, Interrupted};
use crate::target::Target;
use crate::tree::{Arena, Frontier, Node, NO_NODE};
use serde::{Deserialize, Serialize};

/// Frontier discipline for the execution tree.
///
/// The paper processes nodes breadth-first. The depth-first variant is kept
/// for the ablation study (`cvg-bench`): it reaches singletons sooner, which
/// changes *which* witnesses are found first but not correctness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Traversal {
    /// Breadth-first (the paper's FIFO queue).
    #[default]
    Bfs,
    /// Depth-first (LIFO stack) — ablation only.
    Dfs,
}

/// Tuning knobs for [`group_coverage`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DncConfig {
    /// Frontier discipline; the paper uses BFS.
    pub traversal: Traversal,
    /// When true, record every *yes* singleton in
    /// [`GroupCoverageOutcome::witnesses`]. For a run that ends *uncovered*
    /// the witnesses are exactly the members of `g` in the pool — the
    /// intersectional algorithm uses this to resolve super-group counts.
    pub collect_witnesses: bool,
}

impl DncConfig {
    /// Config that records witnesses.
    pub fn with_witnesses() -> Self {
        Self {
            collect_witnesses: true,
            ..Self::default()
        }
    }
}

/// Result of one [`group_coverage`] run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupCoverageOutcome {
    /// True when the pool contains at least `τ` members of the target.
    pub covered: bool,
    /// The lower bound `cnt` maintained by the algorithm. When
    /// `covered == false` this is the **exact** member count (Lemma 3.1 /
    /// §3.3.2); when covered it equals `τ` (the stop threshold).
    pub count: usize,
    /// Set queries issued by this run.
    pub set_queries: u64,
    /// *Yes* singletons observed (only filled when
    /// [`DncConfig::collect_witnesses`] is set). For uncovered runs these
    /// are all members of the target in the pool.
    pub witnesses: Vec<ObjectId>,
}

/// Runs **Group-Coverage** (Algorithm 1) over `pool` for `target`.
///
/// * `tau` — coverage threshold; `tau == 0` trivially returns covered.
/// * `n` — subset-size upper bound for set queries (the paper's default: 50).
///
/// # Panics
/// Panics when `n == 0`.
///
/// # Errors
/// When the ask path fails mid-run, the [`Interrupted`] error carries the
/// partial outcome: the lower bound `cnt` proven so far, the set queries
/// already spent and the witnesses already isolated.
///
/// # Example
///
/// The paper's running example (Figure 4): sixteen images, five of which are
/// triangles (positions 4, 7, 12, 13, 15), `τ = 3`, a single tree `n = 16`.
/// The algorithm stops after exactly seven queries.
///
/// ```
/// use coverage_core::prelude::*;
///
/// let tri = [4u32, 7, 12, 13, 15];
/// let labels: Vec<Labels> = (0..16)
///     .map(|i| Labels::single(u8::from(tri.contains(&i))))
///     .collect();
/// let truth = VecGroundTruth::new(labels);
/// let mut engine = Engine::new(PerfectSource::new(&truth));
/// let out = group_coverage(
///     &mut engine,
///     &truth.all_ids(),
///     &Target::group(Pattern::parse("1").unwrap()),
///     3,
///     16,
///     &DncConfig::default(),
/// ).unwrap();
/// assert!(out.covered);
/// assert_eq!(out.set_queries, 7);
/// ```
pub fn group_coverage<S: AnswerSource>(
    engine: &mut Engine<S>,
    pool: &[ObjectId],
    target: &Target,
    tau: usize,
    n: usize,
    config: &DncConfig,
) -> Result<GroupCoverageOutcome, Interrupted<GroupCoverageOutcome>> {
    require_positive_n(n);
    let before = engine.ledger_snapshot();
    let mut witnesses = Vec::new();

    if tau == 0 {
        return Ok(GroupCoverageOutcome {
            covered: true,
            count: 0,
            set_queries: 0,
            witnesses,
        });
    }
    if pool.is_empty() {
        return Ok(GroupCoverageOutcome {
            covered: false,
            count: 0,
            set_queries: 0,
            witnesses,
        });
    }

    let mut arena = Arena::with_capacity(2 * pool.len().div_ceil(n));
    let mut frontier = match config.traversal {
        Traversal::Bfs => Frontier::fifo(),
        Traversal::Dfs => Frontier::lifo(),
    };

    // Line 2-3: partition the pool into ⌈N/n⌉ root sets.
    let mut start = 0usize;
    while start < pool.len() {
        let end = (start + n).min(pool.len());
        let id = arena.push(Node::root(start as u32, end as u32));
        frontier.push(id);
        start = end;
    }

    let mut cnt = 0usize;
    let mut round: Vec<u32> = Vec::new();
    let mut sets: Vec<&[ObjectId]> = Vec::new();

    // Line 4: main loop, one round of set queries per pass.
    loop {
        let width = match config.traversal {
            Traversal::Bfs => tau - cnt,
            Traversal::Dfs => 1,
        };
        round.clear();
        while round.len() < width {
            let Some(id) = frontier.peek(&arena.removed) else {
                break;
            };
            // The front of the queue is asked next in any order; anything
            // behind it joins only if its ask is already decided.
            if !round.is_empty() && !ask_is_decided(&arena, id) {
                break;
            }
            frontier.pop(&arena.removed);
            round.push(id);
        }
        if round.is_empty() {
            break;
        }
        sets.clear();
        sets.extend(round.iter().map(|id| {
            let node = arena.nodes[*id as usize];
            &pool[node.b as usize..node.e as usize]
        }));
        let (answers, error) = match engine.ask_sets(&sets, target) {
            Ok(answers) => (answers, None),
            Err(Interrupted { error, partial }) => (partial, Some(error)),
        };

        for (&asked, &answer) in round.iter().zip(&answers) {
            let (mut id, mut ans) = (asked, answer);
            loop {
                let node = arena.nodes[id as usize];
                arena.nodes[id as usize].done = true;

                if node.is_root() {
                    if !ans {
                        break; // line 9: prune the whole root set
                    }
                    cnt += 1;
                } else if !ans {
                    // Lines 11-13.
                    let sib = node.sibling;
                    debug_assert_ne!(sib, NO_NODE);
                    if arena.nodes[sib as usize].done {
                        // The sibling already answered yes earlier; nothing new.
                        break;
                    }
                    // Substitute the sibling, consuming it from the frontier
                    // without issuing a task (its answer is implied).
                    arena.removed[sib as usize] = true;
                    id = sib;
                    ans = true;
                    continue;
                } else {
                    // Lines 14-15: both-children-yes raises the lower bound.
                    let parent = node.parent as usize;
                    if arena.nodes[parent].checked {
                        cnt += 1;
                    } else {
                        arena.nodes[parent].checked = true;
                    }
                }

                if config.collect_witnesses && node.len() == 1 {
                    witnesses.push(pool[node.b as usize]);
                }

                // Line 16: stop as soon as the lower bound proves coverage.
                if cnt >= tau {
                    let used = engine.ledger().since(&before).set_queries();
                    return Ok(GroupCoverageOutcome {
                        covered: true,
                        count: cnt,
                        set_queries: used,
                        witnesses,
                    });
                }

                // Lines 17-20: split yes-sets larger than one.
                if node.len() > 1 {
                    let (left, right) = arena.split(id);
                    frontier.push(left);
                    frontier.push(right);
                }
                break;
            }
        }

        if let Some(error) = error {
            // A cut round delivered fewer than τ − cnt answers, so `cnt`
            // is still below τ: the partial is the one-at-a-time one.
            return Err(Interrupted {
                error,
                partial: GroupCoverageOutcome {
                    covered: false,
                    count: cnt,
                    set_queries: engine.ledger().since(&before).set_queries(),
                    witnesses,
                },
            });
        }
    }

    // Line 21: frontier exhausted below threshold — uncovered, `cnt` exact.
    let used = engine.ledger().since(&before).set_queries();
    Ok(GroupCoverageOutcome {
        covered: false,
        count: cnt,
        set_queries: used,
        witnesses,
    })
}

/// Does the one-at-a-time loop certainly ask `id` when it reaches it?
/// Roots and left children are always asked. A right child is asked only
/// after its left sibling answered *yes*; after a *no* it is substituted
/// for free (line 12), so while the left sibling is unanswered its ask is
/// undecided. (A right child whose left sibling said *no* is tombstoned
/// and never reaches this check.)
fn ask_is_decided(arena: &Arena, id: u32) -> bool {
    let node = arena.nodes[id as usize];
    node.is_root() || node.sibling > id || arena.nodes[node.sibling as usize].done
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GroundTruth;
    use crate::engine::{PerfectSource, VecGroundTruth};
    use crate::pattern::Pattern;
    use crate::schema::Labels;
    use proptest::prelude::*;

    fn truth_from_positions(n: usize, positives: &[usize]) -> VecGroundTruth {
        let labels = (0..n)
            .map(|i| Labels::single(u8::from(positives.contains(&i))))
            .collect();
        VecGroundTruth::new(labels)
    }

    fn minority() -> Target {
        Target::group(Pattern::parse("1").unwrap())
    }

    fn run(
        truth: &VecGroundTruth,
        tau: usize,
        n: usize,
        config: &DncConfig,
    ) -> GroupCoverageOutcome {
        let mut engine = Engine::new(PerfectSource::new(truth));
        group_coverage(&mut engine, &truth.all_ids(), &minority(), tau, n, config).unwrap()
    }

    /// The paper's running example, Figure 4: 7 queries, covered at τ = 3.
    #[test]
    fn paper_running_example() {
        let truth = truth_from_positions(16, &[4, 7, 12, 13, 15]);
        let out = run(&truth, 3, 16, &DncConfig::default());
        assert!(out.covered);
        assert_eq!(out.count, 3);
        assert_eq!(out.set_queries, 7);
    }

    /// §3.2 Case I: every set query answers yes ⇒ exactly 2τ − 1 tasks.
    #[test]
    fn case_one_all_yes_costs_two_tau_minus_one() {
        for tau in [1usize, 2, 3, 5, 8] {
            let truth = truth_from_positions(64, &(0..64).collect::<Vec<_>>());
            let out = run(&truth, tau, 64, &DncConfig::default());
            assert!(out.covered);
            assert_eq!(
                out.set_queries,
                (2 * tau - 1) as u64,
                "tau={tau}: dense positives should cost 2τ−1 tasks"
            );
        }
    }

    /// §3.2 Case II: exactly one member ⇒ Θ(log n) tasks
    /// (2·log2(n) + 1 with the sibling substitution saving none on this
    /// adversarial placement at index 0).
    #[test]
    fn case_two_single_member_costs_logarithmic() {
        let n = 1024usize;
        let truth = truth_from_positions(n, &[0]);
        let out = run(&truth, 2, n, &DncConfig::default());
        assert!(!out.covered);
        assert_eq!(out.count, 1);
        let log = (n as f64).log2();
        assert!(
            (out.set_queries as f64) <= 2.0 * log + 1.0,
            "{} tasks exceeds 2·log2({n})+1",
            out.set_queries
        );
        assert!((out.set_queries as f64) >= log);
    }

    #[test]
    fn covered_stops_early() {
        // 500 positives at the front; τ = 5 must not scan the whole pool.
        let truth = truth_from_positions(10_000, &(0..500).collect::<Vec<_>>());
        let out = run(&truth, 5, 50, &DncConfig::default());
        assert!(out.covered);
        assert_eq!(out.count, 5);
        assert!(out.set_queries < 50);
    }

    #[test]
    fn uncovered_returns_exact_count() {
        let positives = [3usize, 77, 131, 255, 256, 400, 999];
        let truth = truth_from_positions(1000, &positives);
        let out = run(&truth, 50, 50, &DncConfig::default());
        assert!(!out.covered);
        assert_eq!(out.count, positives.len());
    }

    #[test]
    fn exact_threshold_boundary() {
        // Exactly τ members ⇒ covered; τ−1 members ⇒ uncovered.
        let positives: Vec<usize> = (0..50).map(|i| i * 17).collect();
        let truth = truth_from_positions(1000, &positives);
        let covered = run(&truth, 50, 50, &DncConfig::default());
        assert!(covered.covered);
        let uncovered = run(&truth, 51, 50, &DncConfig::default());
        assert!(!uncovered.covered);
        assert_eq!(uncovered.count, 50);
    }

    #[test]
    fn empty_pool_uncovered_unless_tau_zero() {
        let truth = truth_from_positions(0, &[]);
        let out = run(&truth, 1, 50, &DncConfig::default());
        assert!(!out.covered);
        assert_eq!(out.set_queries, 0);
        let out = run(&truth, 0, 50, &DncConfig::default());
        assert!(out.covered);
    }

    #[test]
    fn tau_zero_is_free() {
        let truth = truth_from_positions(100, &[1]);
        let out = run(&truth, 0, 50, &DncConfig::default());
        assert!(out.covered);
        assert_eq!(out.set_queries, 0);
    }

    #[test]
    fn n_one_degenerates_to_point_scan() {
        let truth = truth_from_positions(20, &[4, 9]);
        let out = run(&truth, 5, 1, &DncConfig::default());
        assert!(!out.covered);
        assert_eq!(out.count, 2);
        assert_eq!(out.set_queries, 20); // every root is a singleton
    }

    #[test]
    fn n_larger_than_pool_is_one_tree() {
        let truth = truth_from_positions(10, &[0, 5]);
        let out = run(&truth, 3, 1_000, &DncConfig::default());
        assert!(!out.covered);
        assert_eq!(out.count, 2);
    }

    #[test]
    fn no_members_costs_only_roots() {
        let truth = truth_from_positions(500, &[]);
        let out = run(&truth, 50, 50, &DncConfig::default());
        assert!(!out.covered);
        assert_eq!(out.count, 0);
        assert_eq!(out.set_queries, 10); // 500/50 root queries, all pruned
    }

    #[test]
    fn witnesses_are_exact_members_when_uncovered() {
        let positives = [3usize, 77, 131, 255];
        let truth = truth_from_positions(400, &positives);
        let mut engine = Engine::new(PerfectSource::new(&truth));
        let out = group_coverage(
            &mut engine,
            &truth.all_ids(),
            &minority(),
            50,
            50,
            &DncConfig::with_witnesses(),
        )
        .unwrap();
        assert!(!out.covered);
        let mut got: Vec<usize> = out.witnesses.iter().map(|o| o.index()).collect();
        got.sort_unstable();
        assert_eq!(got, positives);
    }

    #[test]
    fn dfs_traversal_is_correct_too() {
        let positives: Vec<usize> = (0..30).map(|i| i * 31).collect();
        let truth = truth_from_positions(1000, &positives);
        let cfg = DncConfig {
            traversal: Traversal::Dfs,
            collect_witnesses: false,
        };
        let covered = run(&truth, 30, 50, &cfg);
        assert!(covered.covered);
        let uncovered = run(&truth, 31, 50, &cfg);
        assert!(!uncovered.covered);
        assert_eq!(uncovered.count, 30);
    }

    #[test]
    fn works_on_sub_pool() {
        // The algorithm must respect an arbitrary pool, not the whole truth.
        let truth = truth_from_positions(100, &(0..50).collect::<Vec<_>>());
        let mut engine = Engine::new(PerfectSource::new(&truth));
        let pool: Vec<_> = (50u32..100).map(crate::engine::ObjectId).collect();
        let out = group_coverage(
            &mut engine,
            &pool,
            &minority(),
            1,
            10,
            &DncConfig::default(),
        )
        .unwrap();
        assert!(!out.covered); // no positives in the second half
        assert_eq!(out.count, 0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_n_panics() {
        let truth = truth_from_positions(4, &[]);
        run(&truth, 1, 0, &DncConfig::default());
    }

    /// The paper's tightness argument (§3.2): with τ−1 members uniformly
    /// spread, cost approaches the Θ(τ·log(n/τ)) adversarial bound but
    /// never exceeds the N/n + 2·τ·log2(n) envelope.
    #[test]
    fn adversarial_spread_stays_within_bound() {
        let n_total = 4096usize;
        let tau = 32usize;
        let positives: Vec<usize> = (0..tau - 1).map(|i| i * (n_total / tau)).collect();
        let truth = truth_from_positions(n_total, &positives);
        let out = run(&truth, tau, n_total, &DncConfig::default());
        assert!(!out.covered);
        assert_eq!(out.count, tau - 1);
        let bound = 1.0 + 2.0 * (tau as f64) * (n_total as f64).log2();
        assert!(
            (out.set_queries as f64) <= bound,
            "{} > {bound}",
            out.set_queries
        );
    }

    /// Records the object range `[b, e)` of every set in every
    /// `try_answer_sets` call, one entry per round, over a pool of ids
    /// `t0..tN` in order.
    struct RoundSpy<'a> {
        inner: PerfectSource<'a, VecGroundTruth>,
        rounds: Vec<Vec<(u32, u32)>>,
    }

    impl<'a> RoundSpy<'a> {
        fn new(truth: &'a VecGroundTruth) -> Self {
            Self {
                inner: PerfectSource::new(truth),
                rounds: Vec::new(),
            }
        }
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

        fn try_answer_sets(
            &mut self,
            sets: &[&[ObjectId]],
            target: &Target,
            out: &mut Vec<bool>,
        ) -> Result<(), crate::error::AskError> {
            self.rounds.push(
                sets.iter()
                    .map(|s| (s[0].0, s[s.len() - 1].0 + 1))
                    .collect(),
            );
            for objects in sets {
                out.push(self.inner.try_answer_set(objects, target)?);
            }
            Ok(())
        }
    }

    /// The rounds `group_coverage` asks over `truth` and its outcome.
    fn schedule(
        truth: &VecGroundTruth,
        tau: usize,
        n: usize,
        traversal: Traversal,
    ) -> (Vec<Vec<(u32, u32)>>, GroupCoverageOutcome) {
        let mut engine = Engine::new(RoundSpy::new(truth));
        let config = DncConfig {
            traversal,
            collect_witnesses: true,
        };
        let out =
            group_coverage(&mut engine, &truth.all_ids(), &minority(), tau, n, &config).unwrap();
        assert_eq!(engine.ledger().set_queries(), out.set_queries);
        (engine.into_source().rounds, out)
    }

    /// One question of the one-at-a-time BFS reference.
    #[derive(Debug)]
    struct Asked {
        range: (u32, u32),
        /// For a right child, its left sibling's range.
        left_sibling: Option<(u32, u32)>,
        /// `cnt` just before the question was asked.
        cnt_before: usize,
    }

    /// Algorithm 1 with a FIFO queue, asking strictly one question at a
    /// time: the reference every round schedule must reproduce.
    fn one_at_a_time(truth: &VecGroundTruth, tau: usize, n: usize) -> Vec<Asked> {
        let target = minority();
        let member =
            |node: Node| (node.b..node.e).any(|i| target.matches(&truth.labels_of(ObjectId(i))));
        let mut arena = Arena::default();
        let mut frontier = Frontier::fifo();
        for b in (0..truth.num_objects()).step_by(n) {
            let e = (b + n).min(truth.num_objects());
            frontier.push(arena.push(Node::root(b as u32, e as u32)));
        }
        let (mut asked, mut cnt) = (Vec::new(), 0usize);
        while let Some(first) = frontier.pop(&arena.removed) {
            let (mut id, mut substituted) = (first, false);
            loop {
                let node = arena.nodes[id as usize];
                let yes = substituted || {
                    let left = arena.nodes.get(node.sibling as usize);
                    asked.push(Asked {
                        range: (node.b, node.e),
                        left_sibling: left.filter(|_| node.sibling < id).map(|l| (l.b, l.e)),
                        cnt_before: cnt,
                    });
                    member(node)
                };
                arena.nodes[id as usize].done = true;
                if node.is_root() {
                    if !yes {
                        break;
                    }
                    cnt += 1;
                } else if !yes {
                    let sib = node.sibling;
                    if arena.nodes[sib as usize].done {
                        break;
                    }
                    arena.removed[sib as usize] = true;
                    (id, substituted) = (sib, true);
                    continue;
                } else if arena.nodes[node.parent as usize].checked {
                    cnt += 1;
                } else {
                    arena.nodes[node.parent as usize].checked = true;
                }
                if cnt >= tau {
                    return asked;
                }
                if node.len() > 1 {
                    let (left, right) = arena.split(id);
                    frontier.push(left);
                    frontier.push(right);
                }
                break;
            }
        }
        asked
    }

    /// Figure 4 asks its 7 questions in 6 rounds: the root, its left
    /// child, then the right child with the left child's left child, and
    /// one question per round once `τ − cnt` is down to one.
    #[test]
    fn paper_running_example_rounds() {
        let truth = truth_from_positions(16, &[4, 7, 12, 13, 15]);
        let (rounds, out) = schedule(&truth, 3, 16, Traversal::Bfs);
        assert!(out.covered);
        assert_eq!(
            rounds,
            vec![
                vec![(0, 16)],
                vec![(0, 8)],
                vec![(8, 16), (0, 4)],
                vec![(8, 12)],
                vec![(4, 6)],
                vec![(6, 8)],
            ]
        );
    }

    /// Positives of `prop_correct_decision`'s deterministic placement.
    fn placed_positives(n_total: usize, density: f64, seed: u64) -> Vec<usize> {
        let mut positives = Vec::new();
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345);
        for i in 0..n_total {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if ((state >> 33) as f64 / (1u64 << 31) as f64) < density {
                positives.push(i);
            }
        }
        positives
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On `prop_correct_decision`'s inputs the BFS rounds, joined, are
        /// exactly the one-at-a-time question sequence; each round holds at
        /// most `τ − cnt` questions (cnt at the round's start) and never a
        /// right child together with its undecided left sibling.
        #[test]
        fn prop_rounds_are_prefixes_of_the_sequential_schedule(
            n_total in 1usize..600,
            density in 0.0f64..0.3,
            tau in 1usize..60,
            n in 1usize..100,
            seed in 0u64..1000,
        ) {
            let truth = truth_from_positions(n_total, &placed_positives(n_total, density, seed));
            let (rounds, out) = schedule(&truth, tau, n, Traversal::Bfs);
            let reference = one_at_a_time(&truth, tau, n);
            let joined: Vec<(u32, u32)> = rounds.iter().flatten().copied().collect();
            let want: Vec<(u32, u32)> = reference.iter().map(|a| a.range).collect();
            prop_assert_eq!(&joined, &want);
            prop_assert_eq!(out.set_queries, want.len() as u64);
            let mut start = 0;
            for round in &rounds {
                prop_assert!(!round.is_empty());
                prop_assert!(round.len() <= tau - reference[start].cnt_before);
                for asked in &reference[start..start + round.len()] {
                    if let Some(left) = asked.left_sibling {
                        prop_assert!(!round.contains(&left), "{:?} with its left sibling", asked);
                    }
                }
                start += round.len();
            }
        }

        /// The depth-first ablation asks one question per round.
        #[test]
        fn prop_dfs_rounds_are_single_questions(
            n_total in 1usize..600,
            density in 0.0f64..0.3,
            tau in 1usize..60,
            n in 1usize..100,
            seed in 0u64..1000,
        ) {
            let truth = truth_from_positions(n_total, &placed_positives(n_total, density, seed));
            let (rounds, out) = schedule(&truth, tau, n, Traversal::Dfs);
            prop_assert!(rounds.iter().all(|r| r.len() == 1));
            prop_assert_eq!(rounds.len() as u64, out.set_queries);
        }

        /// Correctness (Lemma 3.1) on arbitrary compositions, both orders.
        #[test]
        fn prop_correct_decision(
            n_total in 1usize..600,
            density in 0.0f64..0.3,
            tau in 1usize..60,
            n in 1usize..100,
            seed in 0u64..1000,
            dfs in proptest::bool::ANY,
        ) {
            // Deterministic pseudo-random positive placement.
            let mut positives = Vec::new();
            let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345);
            for i in 0..n_total {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if ((state >> 33) as f64 / (1u64 << 31) as f64) < density {
                    positives.push(i);
                }
            }
            let truth = truth_from_positions(n_total, &positives);
            let cfg = DncConfig {
                traversal: if dfs { Traversal::Dfs } else { Traversal::Bfs },
                collect_witnesses: true,
            };
            let out = run(&truth, tau, n, &cfg);
            prop_assert_eq!(out.covered, positives.len() >= tau);
            if !out.covered {
                prop_assert_eq!(out.count, positives.len());
                let mut got: Vec<usize> = out.witnesses.iter().map(|o| o.index()).collect();
                got.sort_unstable();
                prop_assert_eq!(got, positives);
            } else {
                prop_assert!(out.count >= tau);
            }
        }

        /// Task count never exceeds the explicit worst-case envelope
        /// ⌈N/n⌉ + 2·τ·(log2(n)+1).
        #[test]
        fn prop_cost_within_envelope(
            n_total in 1usize..2000,
            positives_every in 1usize..50,
            tau in 1usize..40,
            n in 2usize..128,
        ) {
            let positives: Vec<usize> = (0..n_total).step_by(positives_every).collect();
            let truth = truth_from_positions(n_total, &positives);
            let out = run(&truth, tau, n, &DncConfig::default());
            let roots = n_total.div_ceil(n) as f64;
            let yes_leaves = (positives.len().min(tau)) as f64;
            let envelope = roots + 2.0 * yes_leaves * ((n as f64).log2() + 1.0);
            prop_assert!(
                (out.set_queries as f64) <= envelope,
                "tasks {} exceed envelope {envelope} (N={n_total}, n={n}, tau={tau})",
                out.set_queries
            );
        }
    }
}
