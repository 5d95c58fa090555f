//! Answer reuse: never pay for knowledge the platform already holds.
//!
//! §4 of the paper motivates its heuristics by noting that independent
//! Group-Coverage runs "miss the opportunity to reuse the information
//! collected during each run", and §7 names deeper reuse as an open
//! direction. This module implements that direction as an **object-level
//! fact base** shared across algorithms and across concurrent jobs:
//!
//! * [`KnowledgeStore`] — the fact base itself: per-object labels, per-target
//!   membership verdicts (learned from *no* set answers and *yes*
//!   singletons), and whole set-query verdicts. Facts only accumulate; the
//!   store never forgets.
//! * [`SharedKnowledgeSource`] — the [`AnswerSource`] wrapper that
//!   consults the store before every question. A set query is
//!   **decomposed**: any known member answers it `true` outright; if every
//!   object is a known non-member it is `false`; otherwise the query is
//!   **narrowed** to the residual unknown objects and only that residual is
//!   forwarded to the wrapped source. One job's point labels thereby shrink
//!   every other job's set queries — the platform-wide generalization of the
//!   paper's within-run label reuse.
//! * [`MemoizedSource`] — the historical exact-match cache, kept as the
//!   baseline the knowledge layer is tested against: reuse must never change
//!   a verdict, only reduce crowd spend (see the `reuse_equivalence`
//!   integration tests).
//!
//! ## Soundness
//!
//! Decomposition is exactly answer-preserving for **consistent** sources:
//! sources whose every answer derives from one fixed labeling of the
//! objects. [`PerfectSource`](crate::engine::PerfectSource) is consistent by
//! construction, and `crowd-sim`'s `MTurkSim` in its `PerQuestion` seed mode
//! answers from one latent (noisy but fixed) crowd labeling for the same
//! reason. For such sources a narrowed query returns exactly what the full
//! query would have — the pruned objects are non-members under the source's
//! own labeling — so audit verdicts are byte-identical to an exact-match
//! cache run while strictly fewer questions reach the crowd.
//!
//! ## Metering
//!
//! Reuse sits *below* the [`Engine`](crate::engine::Engine): the engine's
//! [`TaskLedger`](crate::ledger::TaskLedger) still meters every *logical*
//! question an algorithm asked (so reports and outcomes are unchanged by
//! reuse), while budget governors wrapped *inside* the knowledge layer are
//! charged only for the residual questions that actually reach the crowd.
//! [`ReuseStats`] counts how questions were disposed of — answered from
//! facts, narrowed, or forwarded untouched.

use crate::engine::{AnswerSource, BatchAnswerSource, ForkableSource, ObjectId};
use crate::error::AskError;
use crate::schema::Labels;
use crate::target::Target;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// How a reuse layer disposed of the questions it saw.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReuseStats {
    /// Questions answered entirely from the store — an exact verdict, a
    /// known member/non-member fact, or a cached label. Free.
    pub hits: u64,
    /// Set queries forwarded with a *smaller* object set than asked.
    pub narrowed: u64,
    /// Questions that reached the wrapped source (narrowed ones included).
    pub forwarded: u64,
    /// Objects pruned from narrowed set queries, summed over all of them.
    pub objects_pruned: u64,
}

impl ReuseStats {
    /// Total questions the layer has seen.
    pub fn questions(&self) -> u64 {
        self.hits + self.forwarded
    }

    /// Adds another tally into this one (e.g. folding a forked handle's
    /// local stats back into its parent when an intra-audit parallel scan
    /// joins).
    pub fn absorb(&mut self, other: &ReuseStats) {
        self.hits += other.hits;
        self.narrowed += other.narrowed;
        self.forwarded += other.forwarded;
        self.objects_pruned += other.objects_pruned;
    }
}

/// What the store can say about a set query before any crowd contact.
#[derive(Debug)]
enum SetResolution {
    /// The verdict is already implied by known facts.
    Known(bool),
    /// The query must be asked, but only for the residual unknown objects.
    Ask {
        /// The objects whose membership is still unknown (in query order).
        residual: Vec<ObjectId>,
        /// How many objects were pruned as known non-members.
        pruned: usize,
    },
}

/// An object-level fact base of crowd answers.
///
/// Three kinds of facts accumulate:
///
/// * **labels** — full attribute vectors from point queries; a label decides
///   membership in *every* target, so it narrows any future set query;
/// * **membership verdicts** per target — `false` set answers mark every
///   asked object a known non-member; `true` answers on singletons mark a
///   known member;
/// * **set verdicts** — whole `(objects, target) → bool` answers, kept so a
///   repeated query is free even when its objects are individually unknown.
///
/// The store is plain data (no interior mutability); [`SharedKnowledgeSource`]
/// is the platform-wide, thread-safe wrapper that consults and fills it.
///
/// It is also the serialization surface of the persistence layer:
/// snapshots, the `/store/export` response body and the `/store/import`
/// request body all carry one `KnowledgeStore`. Maps serialize as pair
/// arrays and membership sets as sorted id arrays, so the text is stable
/// for a fixed fact base.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct KnowledgeStore {
    labels: HashMap<ObjectId, Labels>,
    members: HashMap<Target, HashSet<ObjectId>>,
    non_members: HashMap<Target, HashSet<ObjectId>>,
    // Nested per-target so the hot exact-verdict lookup borrows the query
    // slice instead of allocating a (Vec, Target) key.
    set_verdicts: HashMap<Target, HashMap<Vec<ObjectId>, bool>>,
    stats: ReuseStats,
}

impl KnowledgeStore {
    /// An empty fact base.
    pub fn new() -> Self {
        Self::default()
    }

    /// The label of `object`, if a point query has answered it.
    pub fn label_of(&self, object: ObjectId) -> Option<Labels> {
        self.labels.get(&object).copied()
    }

    /// Is `object` known to belong to `target`?
    pub fn is_known_member(&self, object: ObjectId, target: &Target) -> bool {
        if let Some(labels) = self.labels.get(&object) {
            if target.matches(labels) {
                return true;
            }
        }
        self.members
            .get(target)
            .is_some_and(|s| s.contains(&object))
    }

    /// Is `object` known to *not* belong to `target`?
    pub fn is_known_non_member(&self, object: ObjectId, target: &Target) -> bool {
        if let Some(labels) = self.labels.get(&object) {
            if !target.matches(labels) {
                return true;
            }
        }
        self.non_members
            .get(target)
            .is_some_and(|s| s.contains(&object))
    }

    /// The whole-query verdict cached for exactly `(objects, target)`.
    fn set_verdict(&self, objects: &[ObjectId], target: &Target) -> Option<bool> {
        self.set_verdicts
            .get(target)
            .and_then(|m| m.get(objects))
            .copied()
    }

    /// Caches a whole-query verdict under its original key.
    fn record_set_verdict(&mut self, objects: Vec<ObjectId>, target: &Target, answer: bool) {
        self.set_verdicts
            .entry(target.clone())
            .or_default()
            .insert(objects, answer);
    }

    /// Records a delivered set answer: the verdict is cached under the
    /// *original* query key, and the per-object consequences are absorbed —
    /// a `false` marks every asked residual object a non-member, a `true`
    /// on a singleton marks it a member.
    pub fn record_set_answer(
        &mut self,
        objects: &[ObjectId],
        residual: &[ObjectId],
        target: &Target,
        answer: bool,
    ) {
        self.record_set_verdict(objects.to_vec(), target, answer);
        if answer {
            if let [only] = residual {
                self.members
                    .entry(target.clone())
                    .or_default()
                    .insert(*only);
            }
        } else {
            self.non_members
                .entry(target.clone())
                .or_default()
                .extend(residual.iter().copied());
        }
    }

    /// Records a delivered point-query answer.
    pub fn record_labels(&mut self, object: ObjectId, labels: Labels) {
        self.labels.insert(object, labels);
    }

    /// Objects with a known full label vector.
    pub fn labels_known(&self) -> usize {
        self.labels.len()
    }

    /// Per-target membership facts held (members + non-members), counting
    /// only facts not already implied by a stored label.
    pub fn membership_facts(&self) -> usize {
        self.members.values().map(HashSet::len).sum::<usize>()
            + self.non_members.values().map(HashSet::len).sum::<usize>()
    }

    /// Whole set-query verdicts held.
    pub fn set_verdicts_known(&self) -> usize {
        self.set_verdicts.values().map(HashMap::len).sum()
    }

    /// The running reuse tally (updated by the wrapping sources).
    pub fn stats(&self) -> ReuseStats {
        self.stats
    }

    /// True when the store holds no facts of any kind.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
            && self.members.is_empty()
            && self.non_members.is_empty()
            && self.set_verdicts.is_empty()
    }

    /// Total facts of all three kinds (labels + memberships + set
    /// verdicts) — the size a `/fleet/delta` receipt reports.
    pub fn fact_count(&self) -> usize {
        self.labels_known() + self.membership_facts() + self.set_verdicts_known()
    }

    /// Unions `other`'s facts into `self` — the fleet's anti-entropy
    /// merge. An already-held fact is never rewritten, so for stores
    /// drawn from the same ground truth the merge is **commutative**,
    /// **associative** and **idempotent** (the convergence invariant
    /// pinned by `tests/store_merge.rs`). [`ReuseStats`] are untouched:
    /// merging knowledge never rewrites who paid for it.
    pub fn merge(&mut self, other: &KnowledgeStore) {
        for (object, labels) in &other.labels {
            self.labels.entry(*object).or_insert(*labels);
        }
        for (target, objects) in &other.members {
            self.members
                .entry(target.clone())
                .or_default()
                .extend(objects.iter().copied());
        }
        for (target, objects) in &other.non_members {
            self.non_members
                .entry(target.clone())
                .or_default()
                .extend(objects.iter().copied());
        }
        for (target, verdicts) in &other.set_verdicts {
            let held = self.set_verdicts.entry(target.clone()).or_default();
            for (objects, answer) in verdicts {
                held.entry(objects.clone()).or_insert(*answer);
            }
        }
    }

    /// The facts `self` holds that `baseline` does not — what one
    /// anti-entropy round actually ships, so a steady-state fleet
    /// exchanges deltas, not whole stores. `merge(baseline, delta)`
    /// equals `merge(baseline, self)` by construction. The result
    /// carries default [`ReuseStats`] (a delta is knowledge in transit,
    /// not an accounting record).
    pub fn delta_since(&self, baseline: &KnowledgeStore) -> KnowledgeStore {
        let mut delta = KnowledgeStore::new();
        for (object, labels) in &self.labels {
            if !baseline.labels.contains_key(object) {
                delta.labels.insert(*object, *labels);
            }
        }
        for (target, objects) in &self.members {
            let held = baseline.members.get(target);
            let fresh: HashSet<ObjectId> = objects
                .iter()
                .copied()
                .filter(|o| !held.is_some_and(|h| h.contains(o)))
                .collect();
            if !fresh.is_empty() {
                delta.members.insert(target.clone(), fresh);
            }
        }
        for (target, objects) in &self.non_members {
            let held = baseline.non_members.get(target);
            let fresh: HashSet<ObjectId> = objects
                .iter()
                .copied()
                .filter(|o| !held.is_some_and(|h| h.contains(o)))
                .collect();
            if !fresh.is_empty() {
                delta.non_members.insert(target.clone(), fresh);
            }
        }
        for (target, verdicts) in &self.set_verdicts {
            let held = baseline.set_verdicts.get(target);
            let fresh: HashMap<Vec<ObjectId>, bool> = verdicts
                .iter()
                .filter(|(objects, _)| !held.is_some_and(|h| h.contains_key(*objects)))
                .map(|(objects, answer)| (objects.clone(), *answer))
                .collect();
            if !fresh.is_empty() {
                delta.set_verdicts.insert(target.clone(), fresh);
            }
        }
        delta
    }

    /// The object ids this store's facts carry: 1 per label and per
    /// membership fact, 1 plus the key length per set verdict — the
    /// measure [`for_each_chunk`](Self::for_each_chunk) bounds.
    pub fn id_weight(&self) -> usize {
        self.labels_known()
            + self.membership_facts()
            + self
                .set_verdicts
                .values()
                .flat_map(HashMap::keys)
                .map(|key| 1 + key.len())
                .sum::<usize>()
    }

    /// Hands `self` to `f` in disjoint pieces of at most `max_ids`
    /// [`id_weight`](Self::id_weight) each, whose
    /// [`merge`](Self::merge) fold from the first piece equals `self`:
    /// the first piece carries the [`ReuseStats`], and at least one piece
    /// is always yielded. A single fact heavier than `max_ids` (a set
    /// verdict with a longer key) travels alone in its own piece. Only one
    /// piece exists at a time, so a caller can serialize a store of any
    /// size in bounded memory.
    ///
    /// # Panics
    /// Panics when `max_ids == 0`.
    pub fn for_each_chunk(&self, max_ids: usize, f: impl FnMut(&KnowledgeStore)) {
        assert!(max_ids > 0, "chunk bound must be positive");
        let mut chunker = Chunker {
            chunk: KnowledgeStore {
                stats: self.stats,
                ..KnowledgeStore::default()
            },
            weight: 0,
            max_ids,
            yielded: false,
            f,
        };
        for (object, labels) in &self.labels {
            chunker.make_room(1).labels.insert(*object, *labels);
        }
        for (facts, pick) in [(&self.members, true), (&self.non_members, false)] {
            for (target, objects) in facts {
                for object in objects {
                    let chunk = chunker.make_room(1);
                    let sets = if pick {
                        &mut chunk.members
                    } else {
                        &mut chunk.non_members
                    };
                    match sets.get_mut(target) {
                        Some(set) => {
                            set.insert(*object);
                        }
                        None => {
                            sets.insert(target.clone(), HashSet::from([*object]));
                        }
                    }
                }
            }
        }
        for (target, verdicts) in &self.set_verdicts {
            for (objects, answer) in verdicts {
                let chunk = chunker.make_room(1 + objects.len());
                match chunk.set_verdicts.get_mut(target) {
                    Some(held) => {
                        held.insert(objects.clone(), *answer);
                    }
                    None => {
                        chunk
                            .set_verdicts
                            .insert(target.clone(), HashMap::from([(objects.clone(), *answer)]));
                    }
                }
            }
        }
        chunker.finish();
    }
}

/// The running piece of [`KnowledgeStore::for_each_chunk`].
struct Chunker<F> {
    chunk: KnowledgeStore,
    weight: usize,
    max_ids: usize,
    yielded: bool,
    f: F,
}

impl<F: FnMut(&KnowledgeStore)> Chunker<F> {
    /// Yields the running piece first if a fact of `weight` would push a
    /// non-empty piece past the bound, then returns the piece to add the
    /// fact to.
    fn make_room(&mut self, weight: usize) -> &mut KnowledgeStore {
        if self.weight > 0 && self.weight + weight > self.max_ids {
            (self.f)(&self.chunk);
            self.chunk = KnowledgeStore::default();
            self.weight = 0;
            self.yielded = true;
        }
        self.weight += weight;
        &mut self.chunk
    }

    /// Yields the last piece — or the only one, for an empty store.
    fn finish(mut self) {
        if self.weight > 0 || !self.yielded {
            (self.f)(&self.chunk);
        }
    }
}

/// An observer of **committed** facts, attached to a
/// [`SharedKnowledgeSource`] via [`SharedKnowledgeSource::set_fact_sink`].
///
/// The shared store invokes the sink once per freshly delivered crowd
/// answer — after the fact is visible in the store and after every stripe
/// lock is released, so a sink may block (e.g. on a WAL write) without
/// stalling readers. Facts arriving through
/// [`SharedKnowledgeSource::seed_store`] (recovery, import) are **not**
/// replayed into the sink: they are already durable wherever they came
/// from.
pub trait FactSink: Send + Sync + std::fmt::Debug {
    /// A point-query label was delivered and committed.
    fn on_labels(&self, object: ObjectId, labels: Labels);

    /// A set-query verdict was delivered and committed, together with the
    /// residual actually asked (whose per-object consequences were
    /// absorbed).
    fn on_set_verdict(
        &self,
        objects: &[ObjectId],
        residual: &[ObjectId],
        target: &Target,
        answer: bool,
    );
}

/// A disk home for **cold label facts**, attached via
/// [`SharedKnowledgeSource::set_fact_spill`].
///
/// When a fact shard outgrows its share of the configured high watermark,
/// its least-recently-touched labels are handed to [`FactSpill::spill`];
/// lookups that miss the in-memory shard consult [`FactSpill::recall`],
/// which removes the entry so the caller can re-promote it. Spill calls run
/// under the owning shard's lock, so a label is always in exactly one of
/// the two places — a spilled fact can never be missed and re-bought.
pub trait FactSpill: Send + Sync + std::fmt::Debug {
    /// Takes ownership of evicted cold labels.
    fn spill(&self, victims: Vec<(ObjectId, Labels)>);

    /// Looks up (and removes) a previously spilled label, if present.
    fn recall(&self, object: ObjectId) -> Option<Labels>;

    /// Every spilled label whose object satisfies `keep`, for snapshots
    /// and exports. The store asks for one fact shard's share at a time,
    /// under that shard's lock, so no label can move between memory and
    /// the spill while it is being read.
    fn contents(&self, keep: &dyn Fn(ObjectId) -> bool) -> Vec<(ObjectId, Labels)>;
}

/// A spill implementation plus the per-shard eviction threshold derived
/// from the configured store-wide high watermark.
#[derive(Debug)]
struct SpillHook {
    spill: Arc<dyn FactSpill>,
    per_shard_high: usize,
}

/// A caching wrapper around an answer source — the **exact-match baseline**.
///
/// Caches set-query and point-query results keyed by the literal question
/// `(objects, target)` and answers repeats from the cache; it never
/// decomposes or narrows a query. [`SharedKnowledgeSource`] strictly subsumes
/// it; this type is kept as the reference the knowledge layer is verified
/// against (reuse must change crowd spend, never verdicts) and as the
/// simplest possible answer cache for single-audit runs.
#[derive(Debug, Clone)]
pub struct MemoizedSource<S> {
    inner: S,
    set_cache: HashMap<(Vec<ObjectId>, Target), bool>,
    label_cache: HashMap<ObjectId, Labels>,
    hits: u64,
    misses: u64,
}

impl<S> MemoizedSource<S> {
    /// Wraps a source with empty caches.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            set_cache: HashMap::new(),
            label_cache: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Questions answered from cache.
    pub fn cache_hits(&self) -> u64 {
        self.hits
    }

    /// Questions forwarded to the inner source.
    pub fn cache_misses(&self) -> u64 {
        self.misses
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps into the inner source.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: AnswerSource> AnswerSource for MemoizedSource<S> {
    fn try_answer_set(&mut self, objects: &[ObjectId], target: &Target) -> Result<bool, AskError> {
        let key = (objects.to_vec(), target.clone());
        if let Some(ans) = self.set_cache.get(&key) {
            self.hits += 1;
            return Ok(*ans);
        }
        self.misses += 1;
        // Only delivered answers are cached: a refused question stays
        // askable (e.g. once a budget is raised).
        let ans = self.inner.try_answer_set(objects, target)?;
        self.set_cache.insert(key, ans);
        Ok(ans)
    }

    fn try_answer_point_labels(&mut self, object: ObjectId) -> Result<Labels, AskError> {
        if let Some(l) = self.label_cache.get(&object) {
            self.hits += 1;
            return Ok(*l);
        }
        self.misses += 1;
        let l = self.inner.try_answer_point_labels(object)?;
        self.label_cache.insert(object, l);
        Ok(l)
    }

    fn try_answer_membership(
        &mut self,
        object: ObjectId,
        target: &Target,
    ) -> Result<bool, AskError> {
        // Route through the label cache: a cached label answers any
        // membership question about the object for free.
        let labels = self.try_answer_point_labels(object)?;
        Ok(target.matches(&labels))
    }
}

impl<S: AnswerSource> BatchAnswerSource for MemoizedSource<S> {}

/// How many lock stripes a [`SharedKnowledgeSource`] uses by default for
/// its object-keyed facts and its set-verdict/coalescing maps.
pub const DEFAULT_STORE_SHARDS: usize = 8;

/// A mutex + condvar pair guarding one stripe of shared state.
#[derive(Debug, Default)]
struct Stripe<T> {
    state: Mutex<T>,
    ready: Condvar,
}

impl<T> Stripe<T> {
    fn lock(&self) -> MutexGuard<'_, T> {
        // A genuinely panicking job (a bug) must not poison the
        // platform-wide store for every other job; expected failures
        // (budget, cancellation) travel as `Err` and never unwind here.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One shard of the object-keyed facts: labels and per-target membership
/// verdicts for the objects hashing here, plus the in-flight set for label
/// claims on those objects. The embedded [`KnowledgeStore`] uses only its
/// object-level maps (set verdicts live in the set stripes).
#[derive(Debug, Default)]
struct FactShardState {
    facts: KnowledgeStore,
    label_in_flight: HashSet<ObjectId>,
    /// Monotone per-shard clock driving the LRU spill policy: bumped on
    /// every label commit, re-promotion and point lookup while a spill is
    /// attached.
    label_clock: u64,
    /// Last touch time per in-memory label (spilled labels have no entry).
    label_touch: HashMap<ObjectId, u64>,
}

/// One stripe of the whole-query state: exact `(objects, target)` verdicts
/// and the in-flight set coalescing concurrent identical set queries. The
/// embedded [`KnowledgeStore`] uses only its set-verdict map (object facts
/// live in the fact shards).
#[derive(Debug, Default)]
struct SetStripeState {
    verdicts: KnowledgeStore,
    in_flight: HashSet<(Vec<ObjectId>, Target)>,
}

/// The platform-wide reuse tally, updated lock-free so no stripe becomes a
/// metering bottleneck. Counters are monotone; `snapshot` is exact once the
/// handles reading it have quiesced (which is when reports read it).
#[derive(Debug, Default)]
struct SharedStats {
    hits: AtomicU64,
    narrowed: AtomicU64,
    forwarded: AtomicU64,
    objects_pruned: AtomicU64,
}

impl SharedStats {
    fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    fn record_forwarded(&self, count: u64, pruned: u64) {
        self.forwarded.fetch_add(count, Ordering::Relaxed);
        if pruned > 0 {
            self.narrowed.fetch_add(1, Ordering::Relaxed);
            self.objects_pruned.fetch_add(pruned, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> ReuseStats {
        ReuseStats {
            hits: self.hits.load(Ordering::Relaxed),
            narrowed: self.narrowed.load(Ordering::Relaxed),
            forwarded: self.forwarded.load(Ordering::Relaxed),
            objects_pruned: self.objects_pruned.load(Ordering::Relaxed),
        }
    }
}

/// The sharded platform-wide knowledge state behind every
/// [`SharedKnowledgeSource`] handle: object facts striped by `ObjectId`,
/// whole-query verdicts and in-flight coalescing striped by query hash,
/// and one atomic stats tally. No operation ever holds two stripe locks at
/// once (per-object scans take shard locks one at a time), so there is no
/// lock ordering to get wrong and no global serialization point.
#[derive(Debug)]
struct ShardedKnowledge {
    fact_shards: Vec<Stripe<FactShardState>>,
    set_stripes: Vec<Stripe<SetStripeState>>,
    stats: SharedStats,
    /// Observer of committed facts (WAL append), set at most once.
    sink: OnceLock<Arc<dyn FactSink>>,
    /// Disk home for cold labels, set at most once.
    spill: OnceLock<SpillHook>,
}

impl ShardedKnowledge {
    fn new(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        Self {
            fact_shards: (0..shards).map(|_| Stripe::default()).collect(),
            set_stripes: (0..shards).map(|_| Stripe::default()).collect(),
            stats: SharedStats::default(),
            sink: OnceLock::new(),
            spill: OnceLock::new(),
        }
    }

    /// Consults the spill for `object` and, on a find, re-promotes the
    /// label into the in-memory shard. Runs under the shard lock so the
    /// label is in exactly one place at every instant.
    fn recall_spilled(&self, state: &mut FactShardState, object: ObjectId) -> Option<Labels> {
        let hook = self.spill.get()?;
        let labels = hook.spill.recall(object)?;
        state.facts.labels.insert(object, labels);
        self.touch(state, object);
        Some(labels)
    }

    /// Marks `object`'s label as freshly used for the LRU spill policy.
    /// Only eviction reads the clock, so without a spill this is a no-op.
    fn touch(&self, state: &mut FactShardState, object: ObjectId) {
        if self.spill.get().is_some() {
            state.label_clock += 1;
            state.label_touch.insert(object, state.label_clock);
        }
    }

    /// Evicts the coldest labels of one shard to the spill once the shard
    /// outgrows its share of the high watermark. Called after label
    /// commits, under the shard lock.
    fn enforce_watermark(&self, state: &mut FactShardState) {
        let Some(hook) = self.spill.get() else {
            return;
        };
        if state.facts.labels.len() <= hook.per_shard_high {
            return;
        }
        let mut by_age: Vec<(u64, ObjectId)> = state
            .facts
            .labels
            .keys()
            .map(|o| (state.label_touch.get(o).copied().unwrap_or(0), *o))
            .collect();
        by_age.sort_unstable();
        let excess = state.facts.labels.len() - hook.per_shard_high;
        let victims: Vec<(ObjectId, Labels)> = by_age[..excess]
            .iter()
            .map(|(_, object)| {
                state.label_touch.remove(object);
                let labels = state
                    .facts
                    .labels
                    .remove(object)
                    .expect("victim key came from the label map");
                (*object, labels)
            })
            .collect();
        hook.spill.spill(victims);
    }

    fn fact_shard(&self, object: ObjectId) -> &Stripe<FactShardState> {
        &self.fact_shards[object.index() % self.fact_shards.len()]
    }

    fn set_stripe(&self, objects: &[ObjectId], target: &Target) -> &Stripe<SetStripeState> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        objects.hash(&mut hasher);
        target.hash(&mut hasher);
        &self.set_stripes[(hasher.finish() as usize) % self.set_stripes.len()]
    }

    /// Resolves a set query against the *object-level* facts (the exact
    /// whole-query verdict is checked separately against its set stripe).
    /// Scans shard by shard, taking one shard lock at a time; facts only
    /// accumulate, so the non-atomic scan can only under-report knowledge —
    /// never invent any — and a consistent source answers the (possibly
    /// slightly stale) residual exactly like the full query.
    fn resolve_objects(&self, objects: &[ObjectId], target: &Target) -> SetResolution {
        let shards = self.fact_shards.len();
        let mut non_member = vec![false; objects.len()];
        for (shard_index, shard) in self.fact_shards.iter().enumerate() {
            if objects.iter().all(|o| o.index() % shards != shard_index) {
                continue;
            }
            let mut state = shard.lock();
            for (slot, object) in objects.iter().enumerate() {
                if object.index() % shards != shard_index {
                    continue;
                }
                // A spilled label is still paid-for knowledge: recall it so
                // narrowing never regresses when the store spills to disk.
                if state.facts.label_of(*object).is_none() {
                    self.recall_spilled(&mut state, *object);
                }
                if state.facts.is_known_member(*object, target) {
                    return SetResolution::Known(true);
                }
                if state.facts.is_known_non_member(*object, target) {
                    non_member[slot] = true;
                }
            }
        }
        let residual: Vec<ObjectId> = objects
            .iter()
            .zip(&non_member)
            .filter(|(_, pruned)| !**pruned)
            .map(|(o, _)| *o)
            .collect();
        if residual.is_empty() {
            return SetResolution::Known(false);
        }
        let pruned = objects.len() - residual.len();
        SetResolution::Ask { residual, pruned }
    }

    /// Absorbs the per-object consequences of a delivered set answer into
    /// the fact shards (the whole-query verdict is recorded by the caller
    /// under its set stripe): `false` marks every residual object a
    /// non-member, `true` on a singleton residual marks it a member.
    fn absorb_set_consequences(&self, residual: &[ObjectId], target: &Target, answer: bool) {
        if answer {
            if let [only] = residual {
                let mut state = self.fact_shard(*only).lock();
                state
                    .facts
                    .members
                    .entry(target.clone())
                    .or_default()
                    .insert(*only);
            }
            return;
        }
        let shards = self.fact_shards.len();
        for (shard_index, shard) in self.fact_shards.iter().enumerate() {
            let mut pending = residual
                .iter()
                .filter(|o| o.index() % shards == shard_index)
                .peekable();
            if pending.peek().is_none() {
                continue;
            }
            let mut state = shard.lock();
            state
                .facts
                .non_members
                .entry(target.clone())
                .or_default()
                .extend(pending);
        }
    }

    /// Commits a delivered answer to the claimed set query `key` whose
    /// residual was asked: records the whole-query verdict, releases the
    /// claim and wakes its waiters, then absorbs the per-object
    /// consequences.
    fn commit_set_answer(&self, key: (Vec<ObjectId>, Target), residual: &[ObjectId], answer: bool) {
        let stripe = self.set_stripe(&key.0, &key.1);
        let mut state = stripe.lock();
        state.in_flight.remove(&key);
        let (objects, target) = key;
        state.verdicts.record_set_verdict(objects, &target, answer);
        drop(state);
        stripe.ready.notify_all();
        self.absorb_set_consequences(residual, &target, answer);
    }

    /// Hands the fact base to `f` one part at a time: first a head part
    /// holding only the [`ReuseStats`], then one part per fact shard and
    /// one per set stripe. Each part is cloned under its own lock and
    /// handed over after the lock is released, so at most one shard is
    /// copied at once. A fact shard's part includes its spilled cold
    /// labels, read under the same lock: a label moves between memory and
    /// the spill only under its shard's lock, so it is seen exactly once.
    fn for_each_part(&self, mut f: impl FnMut(&KnowledgeStore)) {
        f(&KnowledgeStore {
            stats: self.stats.snapshot(),
            ..KnowledgeStore::default()
        });
        let shards = self.fact_shards.len();
        for (shard_index, shard) in self.fact_shards.iter().enumerate() {
            let part = {
                let state = shard.lock();
                let mut part = state.facts.clone();
                if let Some(hook) = self.spill.get() {
                    let in_shard = |object: ObjectId| object.index() % shards == shard_index;
                    for (object, labels) in hook.spill.contents(&in_shard) {
                        part.labels.entry(object).or_insert(labels);
                    }
                }
                part
            };
            f(&part);
        }
        for stripe in &self.set_stripes {
            let part = stripe.lock().verdicts.clone();
            f(&part);
        }
    }

    /// Merges every part into one plain [`KnowledgeStore`]. Parts hold
    /// disjoint facts, so the fold loses nothing, and folding from the
    /// head part keeps its stats ([`KnowledgeStore::merge`] never touches
    /// them).
    fn snapshot(&self) -> KnowledgeStore {
        let mut store: Option<KnowledgeStore> = None;
        self.for_each_part(|part| match &mut store {
            Some(store) => store.merge(part),
            None => store = Some(part.clone()),
        });
        store.expect("the head part is always yielded")
    }
}

/// Removes every claimed set-query key still held and wakes its stripe if
/// the claiming handle exits without committing an answer — an `Err` from
/// the inner source or a genuine panic; a waiter then re-claims the
/// question instead of blocking forever.
struct SetFlightGuard<'a> {
    shared: &'a ShardedKnowledge,
    keys: Vec<(Vec<ObjectId>, Target)>,
}

impl Drop for SetFlightGuard<'_> {
    fn drop(&mut self) {
        for key in self.keys.drain(..) {
            let stripe = self.shared.set_stripe(&key.0, &key.1);
            let mut state = stripe.lock();
            state.in_flight.remove(&key);
            drop(state);
            stripe.ready.notify_all();
        }
    }
}

/// The label-claim analogue of [`SetFlightGuard`]: releases every claimed
/// object in its own fact shard and wakes that shard's waiters.
struct LabelFlightGuard<'a> {
    shared: &'a ShardedKnowledge,
    keys: Vec<ObjectId>,
}

impl LabelFlightGuard<'_> {
    fn disarm(&mut self) {
        self.keys.clear();
    }
}

impl Drop for LabelFlightGuard<'_> {
    fn drop(&mut self) {
        for key in self.keys.drain(..) {
            let shard = self.shared.fact_shard(key);
            let mut state = shard.lock();
            state.label_in_flight.remove(&key);
            drop(state);
            shard.ready.notify_all();
        }
    }
}

/// The thread-safe, platform-wide knowledge layer: every clone consults and
/// fills one shared, **sharded** fact base.
///
/// Each clone carries its **own** inner source (so per-handle state such as
/// a dispatcher connection stays private) but all clones share one fact
/// base. This is the reuse layer the `coverage-service` crate threads
/// through concurrent audit jobs: once any job has paid for a label or a
/// set verdict, it answers or narrows every other job's questions for free.
///
/// ## Sharding
///
/// The shared state is **lock-striped** ([`SharedKnowledgeSource::with_shards`],
/// default [`DEFAULT_STORE_SHARDS`]): object-level facts (labels, per-target
/// membership verdicts) and label coalescing live in shards keyed by
/// `ObjectId`; whole-query set verdicts and set-query coalescing live in a
/// separate stripe map keyed by the query hash; the [`ReuseStats`] tally is
/// atomic. Handles touching different objects or different queries
/// therefore never contend on a lock, where the former design funneled
/// every question of every worker through one global mutex. Facts only
/// accumulate, so cross-shard scans need no global lock to stay sound, and
/// the shard count never changes any answer — for a single-threaded run it
/// does not even change the metered [`ReuseStats`].
///
/// Concurrent misses on the same question are still **coalesced**: the
/// first asker claims it in its stripe and forwards the residual to its
/// inner source (no lock held across that call); every other asker waits on
/// that stripe's condvar and re-resolves against the committed facts. If
/// the claiming handle *fails* — its budget refuses the question, its job
/// is cancelled, its connection drops — the failure stays its own: waiters
/// are woken, re-claim the question and pay for it with their own budget
/// instead of inheriting the error or blocking forever.
#[derive(Debug)]
pub struct SharedKnowledgeSource<S> {
    inner: S,
    local: ReuseStats,
    shared: Arc<ShardedKnowledge>,
}

impl<S: Clone> Clone for SharedKnowledgeSource<S> {
    /// The clone shares the fact base but starts a fresh per-handle tally.
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
            local: ReuseStats::default(),
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<S> SharedKnowledgeSource<S> {
    /// Wraps a source with a fresh shared store striped over
    /// [`DEFAULT_STORE_SHARDS`] locks.
    pub fn new(inner: S) -> Self {
        Self::with_shards(inner, DEFAULT_STORE_SHARDS)
    }

    /// Wraps a source with a fresh shared store striped over `shards`
    /// locks (facts by object, set verdicts by query hash). One shard
    /// reproduces the former single-mutex behaviour; more shards reduce
    /// contention under concurrent workers without changing any answer.
    ///
    /// # Panics
    /// Panics when `shards == 0`.
    pub fn with_shards(inner: S, shards: usize) -> Self {
        Self {
            inner,
            local: ReuseStats::default(),
            shared: Arc::new(ShardedKnowledge::new(shards)),
        }
    }

    /// How many lock stripes the shared store uses.
    pub fn shard_count(&self) -> usize {
        self.shared.fact_shards.len()
    }

    /// A handle over the **same** shared store but a different inner source
    /// — how a serving layer gives each tenant its own connection while all
    /// tenants share one fact base. The new handle's local tally starts at
    /// zero.
    pub fn with_inner<T>(&self, inner: T) -> SharedKnowledgeSource<T> {
        SharedKnowledgeSource {
            inner,
            local: ReuseStats::default(),
            shared: Arc::clone(&self.shared),
        }
    }

    /// The shared store's reuse tally across all handles.
    pub fn reuse_stats(&self) -> ReuseStats {
        self.shared.stats.snapshot()
    }

    /// This handle's own reuse tally (since creation).
    pub fn local_reuse_stats(&self) -> ReuseStats {
        self.local
    }

    /// A snapshot of the shared fact base, merged across every shard
    /// (spilled cold labels included).
    pub fn store_snapshot(&self) -> KnowledgeStore {
        self.shared.snapshot()
    }

    /// Hands the shared fact base to `f` in disjoint parts whose
    /// [`KnowledgeStore::merge`] fold, started from the first part, equals
    /// [`store_snapshot`](Self::store_snapshot): a head part holding the
    /// [`ReuseStats`], then one part per fact shard (spilled cold labels
    /// included) and one per set stripe. Each part is cloned under its own
    /// stripe lock and handed to `f` after that lock is released, so a
    /// caller can persist a store of any size while holding only one
    /// shard's copy in memory.
    pub fn for_each_store_part(&self, f: impl FnMut(&KnowledgeStore)) {
        self.shared.for_each_part(f);
    }

    /// Attaches an observer of committed facts (e.g. a write-ahead log).
    /// The sink fires once per freshly delivered crowd answer, outside all
    /// stripe locks; seeded facts are never replayed into it.
    ///
    /// # Panics
    /// Panics when a sink is already attached.
    pub fn set_fact_sink(&self, sink: Arc<dyn FactSink>) {
        self.shared
            .sink
            .set(sink)
            .expect("fact sink already attached");
    }

    /// Attaches a disk home for cold labels and arms LRU eviction: once the
    /// in-memory label count passes `high_watermark` (split evenly across
    /// shards), the least-recently-touched labels move to `spill` and are
    /// re-promoted on their next touch. Spilling never changes an answer
    /// and never increases crowd spend — a spilled label still answers and
    /// narrows queries, at the price of a disk read.
    ///
    /// # Panics
    /// Panics when `high_watermark == 0` or a spill is already attached.
    pub fn set_fact_spill(&self, spill: Arc<dyn FactSpill>, high_watermark: usize) {
        assert!(high_watermark > 0, "spill watermark must be positive");
        let per_shard_high = high_watermark
            .div_ceil(self.shared.fact_shards.len())
            .max(1);
        self.shared
            .spill
            .set(SpillHook {
                spill,
                per_shard_high,
            })
            .expect("fact spill already attached");
    }

    /// Seeds the shared store with recovered or imported facts. Seeded
    /// facts behave exactly like facts bought in this lifetime — they
    /// answer and narrow queries — but bypass both the [`ReuseStats`]
    /// tally and any attached [`FactSink`] (they are already durable
    /// wherever they came from). The seed's own `stats` field is ignored.
    pub fn seed_store(&self, store: &KnowledgeStore) {
        for (object, labels) in &store.labels {
            let mut state = self.shared.fact_shard(*object).lock();
            state.facts.labels.insert(*object, *labels);
        }
        for (map, pick) in [(&store.members, true), (&store.non_members, false)] {
            for (target, objects) in map {
                for object in objects {
                    let mut state = self.shared.fact_shard(*object).lock();
                    let sets = if pick {
                        &mut state.facts.members
                    } else {
                        &mut state.facts.non_members
                    };
                    sets.entry(target.clone()).or_default().insert(*object);
                }
            }
        }
        for (target, verdicts) in &store.set_verdicts {
            for (objects, answer) in verdicts {
                let stripe = self.shared.set_stripe(objects, target);
                stripe
                    .lock()
                    .verdicts
                    .record_set_verdict(objects.clone(), target, *answer);
            }
        }
        // A seed can land an over-watermark label population in one go.
        self.enforce_spill_watermark();
    }

    /// Applies the attached spill's high watermark to every shard at once
    /// (no-op without a spill). Called automatically after seeding.
    pub fn enforce_spill_watermark(&self) {
        for shard in &self.shared.fact_shards {
            let mut state = shard.lock();
            self.shared.enforce_watermark(&mut state);
        }
    }

    /// Questions answered from shared knowledge (including coalesced waits
    /// on another handle's in-flight question), across all handles.
    pub fn cache_hits(&self) -> u64 {
        self.reuse_stats().hits
    }

    /// Questions forwarded to an inner source, across all handles.
    pub fn cache_misses(&self) -> u64 {
        self.reuse_stats().forwarded
    }

    /// This handle's inner source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps this handle into its inner source (the store lives on in
    /// other handles).
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn record_hit(&mut self) {
        self.shared.stats.record_hit();
        self.local.hits += 1;
    }

    fn record_hits(&mut self, count: u64) {
        self.shared.stats.hits.fetch_add(count, Ordering::Relaxed);
        self.local.hits += count;
    }

    fn record_forwarded(&mut self, count: u64, pruned: u64) {
        self.shared.stats.record_forwarded(count, pruned);
        self.local.forwarded += count;
        if pruned > 0 {
            self.local.narrowed += 1;
            self.local.objects_pruned += pruned;
        }
    }
}

/// Intra-audit parallel scans fork a handle per worker (sharing the fact
/// base) and fold each worker's local tally back in at the join, so
/// per-job reuse accounting stays complete.
impl<S: AnswerSource + Clone + Send> ForkableSource for SharedKnowledgeSource<S> {
    fn fork(&self) -> Self {
        self.clone()
    }

    fn join(&mut self, forked: Self) {
        self.local.absorb(&forked.local);
    }
}

impl<S: AnswerSource> AnswerSource for SharedKnowledgeSource<S> {
    fn try_answer_set(&mut self, objects: &[ObjectId], target: &Target) -> Result<bool, AskError> {
        let shared = Arc::clone(&self.shared);
        let stripe = shared.set_stripe(objects, target);
        let key = (objects.to_vec(), target.clone());
        let (residual, pruned) = loop {
            // Exact whole-query verdict first (one stripe lock)...
            {
                let state = stripe.lock();
                if let Some(ans) = state.verdicts.set_verdict(objects, target) {
                    self.record_hit();
                    return Ok(ans);
                }
            }
            // ...then the object-level facts (shard locks, one at a time).
            let resolution = shared.resolve_objects(objects, target);
            match resolution {
                SetResolution::Known(ans) => {
                    self.record_hit();
                    return Ok(ans);
                }
                SetResolution::Ask { residual, pruned } => {
                    let mut state = stripe.lock();
                    // A verdict may have been committed between the fact
                    // scan and this claim; re-check before claiming.
                    if let Some(ans) = state.verdicts.set_verdict(objects, target) {
                        self.record_hit();
                        return Ok(ans);
                    }
                    if !state.in_flight.contains(&key) {
                        // Claim the question; the residual is frozen at
                        // claim time (facts arriving mid-flight cannot
                        // change a consistent source's answer).
                        state.in_flight.insert(key.clone());
                        break (residual, pruned);
                    }
                    // Coalesce behind the claimer, then re-resolve from
                    // scratch against whatever it committed.
                    drop(
                        stripe
                            .ready
                            .wait(state)
                            .unwrap_or_else(PoisonError::into_inner),
                    );
                }
            }
        };
        // Failed questions are not recorded: the guard releases the claim,
        // a coalesced waiter wakes, re-claims the question and pays for it
        // itself — one handle's budget abort must not poison another
        // handle's identical ask.
        let mut guard = SetFlightGuard {
            shared: &shared,
            keys: vec![key],
        };
        let ans = self.inner.try_answer_set(&residual, target)?;
        let key = guard.keys.pop().expect("the claim is still held");
        shared.commit_set_answer(key, &residual, ans);
        self.record_forwarded(1, pruned as u64);
        if let Some(sink) = shared.sink.get() {
            sink.on_set_verdict(objects, &residual, target, ans);
        }
        Ok(ans)
    }

    fn try_answer_point_labels(&mut self, object: ObjectId) -> Result<Labels, AskError> {
        let shared = Arc::clone(&self.shared);
        let shard = shared.fact_shard(object);
        let mut state = shard.lock();
        loop {
            if let Some(l) = state.facts.label_of(object) {
                shared.touch(&mut state, object);
                drop(state);
                self.record_hit();
                return Ok(l);
            }
            if let Some(l) = shared.recall_spilled(&mut state, object) {
                drop(state);
                self.record_hit();
                return Ok(l);
            }
            if !state.label_in_flight.contains(&object) {
                state.label_in_flight.insert(object);
                break;
            }
            state = shard
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(state);
        let mut guard = LabelFlightGuard {
            shared: &shared,
            keys: vec![object],
        };
        let result = self.inner.try_answer_point_labels(object);
        let mut state = shard.lock();
        state.label_in_flight.remove(&object);
        if let Ok(l) = &result {
            state.facts.record_labels(object, *l);
            shared.touch(&mut state, object);
            shared.enforce_watermark(&mut state);
        }
        drop(state);
        guard.disarm();
        shard.ready.notify_all();
        if let Ok(l) = &result {
            self.record_forwarded(1, 0);
            if let Some(sink) = shared.sink.get() {
                sink.on_labels(object, *l);
            }
        }
        result
    }

    fn try_answer_membership(
        &mut self,
        object: ObjectId,
        target: &Target,
    ) -> Result<bool, AskError> {
        // Route through the label facts: a known label answers any
        // membership question about the object for free, and a fresh label
        // bought here narrows every future set query.
        let labels = self.try_answer_point_labels(object)?;
        Ok(target.matches(&labels))
    }

    /// Answers the round in runs. Each run sorts the objects, in input
    /// order, into objects the store knows and objects this handle claims,
    /// up to the first object another handle has in flight; forwards the
    /// claimed objects to the inner source in **one** round, commits the
    /// answered ones, releases the rest (waking their waiters) and delivers
    /// the answered prefix. The in-flight object is then waited out through
    /// the single path before anything behind it is claimed, so when that
    /// other flight fails this handle re-asks the object before it pays for
    /// the objects behind it, as asking one object at a time would.
    ///
    /// Hits are counted only for delivered objects, and a repeated object
    /// is forwarded once and then a hit — so a round leaves the same
    /// answers, spend and [`ReuseStats`] as asking one object at a time.
    /// Classification takes each object's shard lock in input order, so
    /// the forwarded order is the same whatever the shard count.
    fn try_answer_point_labels_many(
        &mut self,
        objects: &[ObjectId],
        out: &mut Vec<Labels>,
    ) -> Result<(), AskError> {
        let mut start = 0;
        while start < objects.len() {
            start += self.forward_run(&objects[start..], out)?;
            if let Some(&object) = objects.get(start) {
                out.push(self.try_answer_point_labels(object)?);
                start += 1;
            }
        }
        Ok(())
    }

    fn try_answer_memberships(
        &mut self,
        objects: &[ObjectId],
        target: &Target,
        out: &mut Vec<bool>,
    ) -> Result<(), AskError> {
        // Through the label facts, as the single membership path goes.
        let mut labels = Vec::with_capacity(objects.len());
        let result = self.try_answer_point_labels_many(objects, &mut labels);
        out.extend(labels.iter().map(|l| target.matches(l)));
        result
    }

    /// Answers the round in runs, as
    /// [`try_answer_point_labels_many`](AnswerSource::try_answer_point_labels_many)
    /// does. Each run resolves the sets in input order — the exact verdict
    /// first, then the object facts — and claims the unknown ones, up to
    /// the first set another handle has in flight; forwards the claimed
    /// residuals to the inner source in **one** round, commits the
    /// answered ones in order, releases the rest and delivers the answered
    /// prefix. The in-flight set is then waited out through the single
    /// path before anything behind it is claimed.
    ///
    /// A run resolves all its sets before any of its answers commit, which
    /// gives the residuals one-at-a-time asking gives only when no set
    /// shares an object with a set claimed earlier in the run; a run
    /// therefore also ends at such a set (never the case for
    /// Group-Coverage, whose rounds hold pairwise disjoint sets), and the
    /// next run resolves it against the committed answers. Hits are
    /// counted only for delivered sets, so a round leaves the same answers,
    /// spend and [`ReuseStats`] as asking one set at a time.
    fn try_answer_sets(
        &mut self,
        sets: &[&[ObjectId]],
        target: &Target,
        out: &mut Vec<bool>,
    ) -> Result<(), AskError> {
        let mut start = 0;
        while start < sets.len() {
            start += self.forward_set_run(&sets[start..], target, out)?;
            if let Some(objects) = sets.get(start) {
                out.push(self.try_answer_set(objects, target)?);
                start += 1;
            }
        }
        Ok(())
    }
}

impl<S: AnswerSource> SharedKnowledgeSource<S> {
    /// One run of [`AnswerSource::try_answer_point_labels_many`]: answers
    /// `objects` up to the first one another handle has in flight, with
    /// every claimed object forwarded in one inner round, and returns how
    /// many input positions it delivered.
    fn forward_run(
        &mut self,
        objects: &[ObjectId],
        out: &mut Vec<Labels>,
    ) -> Result<usize, AskError> {
        /// Where one input position's answer comes from.
        enum Slot {
            Known(Labels),
            /// Index into the claimed objects; `true` for a repeat.
            Claimed(usize, bool),
        }
        let shared = Arc::clone(&self.shared);
        let mut slots = Vec::with_capacity(objects.len());
        let mut claimed: Vec<ObjectId> = Vec::new();
        for object in objects {
            let mut state = shared.fact_shard(*object).lock();
            let slot = if let Some(l) = state.facts.label_of(*object) {
                shared.touch(&mut state, *object);
                Slot::Known(l)
            } else if let Some(l) = shared.recall_spilled(&mut state, *object) {
                Slot::Known(l)
            } else if state.label_in_flight.contains(object) {
                match claimed.iter().position(|c| c == object) {
                    Some(k) => Slot::Claimed(k, true),
                    // In flight elsewhere: the run ends here.
                    None => break,
                }
            } else {
                state.label_in_flight.insert(*object);
                claimed.push(*object);
                Slot::Claimed(claimed.len() - 1, false)
            };
            slots.push(slot);
        }

        let mut fresh = Vec::with_capacity(claimed.len());
        let forwarded = if claimed.is_empty() {
            Ok(())
        } else {
            // On Err the guard's Drop releases every claim left unanswered
            // and wakes the waiters, who then re-claim those objects.
            let mut guard = LabelFlightGuard {
                shared: &shared,
                keys: claimed.clone(),
            };
            let forwarded = self
                .inner
                .try_answer_point_labels_many(&claimed, &mut fresh);
            fresh.truncate(claimed.len());
            for (object, labels) in claimed.iter().zip(&fresh) {
                let shard = shared.fact_shard(*object);
                let mut state = shard.lock();
                state.label_in_flight.remove(object);
                state.facts.record_labels(*object, *labels);
                shared.touch(&mut state, *object);
                shared.enforce_watermark(&mut state);
                drop(state);
                shard.ready.notify_all();
            }
            guard.keys.drain(..fresh.len());
            drop(guard);
            self.record_forwarded(fresh.len() as u64, 0);
            if let Some(sink) = shared.sink.get() {
                for (object, labels) in claimed.iter().zip(&fresh) {
                    sink.on_labels(*object, *labels);
                }
            }
            forwarded
        };

        let mut hits = 0u64;
        let mut result = Ok(slots.len());
        for slot in slots {
            let labels = match slot {
                Slot::Known(l) => {
                    hits += 1;
                    l
                }
                Slot::Claimed(k, repeat) => match fresh.get(k) {
                    Some(l) => {
                        hits += u64::from(repeat);
                        *l
                    }
                    None => {
                        result = Err(forwarded.clone().err().unwrap_or_else(|| {
                            AskError::SourceFailed("inner source answered a short round".into())
                        }));
                        break;
                    }
                },
            };
            out.push(labels);
        }
        self.record_hits(hits);
        result
    }

    /// One run of [`AnswerSource::try_answer_sets`]: answers `sets` up to
    /// the first one another handle has in flight (or that shares an
    /// object with a set claimed earlier in the run), with every claimed
    /// residual forwarded in one inner round, and returns how many input
    /// positions it delivered.
    fn forward_set_run(
        &mut self,
        sets: &[&[ObjectId]],
        target: &Target,
        out: &mut Vec<bool>,
    ) -> Result<usize, AskError> {
        /// Where one input position's answer comes from.
        enum Slot {
            Known(bool),
            /// Index into the claims.
            Claimed(usize),
        }
        /// A claimed set query: its input position, the residual forwarded
        /// and how many objects were pruned from it.
        struct Claim {
            position: usize,
            residual: Vec<ObjectId>,
            pruned: usize,
        }
        let shared = Arc::clone(&self.shared);
        let mut slots = Vec::with_capacity(sets.len());
        let mut claims: Vec<Claim> = Vec::new();
        // On Err the guard's Drop releases every claim left unanswered and
        // wakes the waiters, who then re-claim those sets.
        let mut guard = SetFlightGuard {
            shared: &shared,
            keys: Vec::new(),
        };
        let mut claimed_objects: HashSet<ObjectId> = HashSet::new();
        for (position, objects) in sets.iter().enumerate() {
            if objects.iter().any(|o| claimed_objects.contains(o)) {
                break;
            }
            let stripe = shared.set_stripe(objects, target);
            // Exact whole-query verdict first, then the object facts.
            let verdict = stripe.lock().verdicts.set_verdict(objects, target);
            let resolution = match verdict {
                Some(ans) => SetResolution::Known(ans),
                None => shared.resolve_objects(objects, target),
            };
            let (residual, pruned) = match resolution {
                SetResolution::Known(ans) => {
                    slots.push(Slot::Known(ans));
                    continue;
                }
                SetResolution::Ask { residual, pruned } => (residual, pruned),
            };
            let mut state = stripe.lock();
            // A verdict may have been committed between the fact scan and
            // this claim; re-check before claiming.
            if let Some(ans) = state.verdicts.set_verdict(objects, target) {
                slots.push(Slot::Known(ans));
                continue;
            }
            let key = (objects.to_vec(), target.clone());
            if state.in_flight.contains(&key) {
                // In flight elsewhere: the run ends here.
                break;
            }
            state.in_flight.insert(key.clone());
            drop(state);
            guard.keys.push(key);
            claimed_objects.extend(&residual);
            slots.push(Slot::Claimed(claims.len()));
            claims.push(Claim {
                position,
                residual,
                pruned,
            });
        }

        let mut fresh = Vec::with_capacity(claims.len());
        let forwarded = if claims.is_empty() {
            Ok(())
        } else {
            let residuals: Vec<&[ObjectId]> = claims.iter().map(|c| &c.residual[..]).collect();
            let forwarded = self.inner.try_answer_sets(&residuals, target, &mut fresh);
            fresh.truncate(claims.len());
            let answered: Vec<_> = guard.keys.drain(..fresh.len()).collect();
            for ((key, claim), ans) in answered.into_iter().zip(&claims).zip(&fresh) {
                shared.commit_set_answer(key, &claim.residual, *ans);
            }
            drop(guard);
            for (claim, ans) in claims.iter().zip(&fresh) {
                self.record_forwarded(1, claim.pruned as u64);
                if let Some(sink) = shared.sink.get() {
                    sink.on_set_verdict(sets[claim.position], &claim.residual, target, *ans);
                }
            }
            forwarded
        };

        let mut hits = 0u64;
        let mut result = Ok(slots.len());
        for slot in slots {
            let ans = match slot {
                Slot::Known(ans) => {
                    hits += 1;
                    ans
                }
                Slot::Claimed(k) => match fresh.get(k) {
                    Some(ans) => *ans,
                    None => {
                        result = Err(forwarded.clone().err().unwrap_or_else(|| {
                            AskError::SourceFailed("inner source answered a short round".into())
                        }));
                        break;
                    }
                },
            };
            out.push(ans);
        }
        self.record_hits(hits);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, GroundTruth, PerfectSource, VecGroundTruth};
    use crate::group_coverage::{group_coverage, DncConfig};
    use crate::pattern::Pattern;

    /// One round of point labels through the round method, as a `Result`.
    fn many<S: AnswerSource>(src: &mut S, objects: &[ObjectId]) -> Result<Vec<Labels>, AskError> {
        let mut out = Vec::new();
        src.try_answer_point_labels_many(objects, &mut out)
            .map(|()| out)
    }

    fn truth(n: usize, minority: usize) -> VecGroundTruth {
        VecGroundTruth::new(
            (0..n)
                .map(|i| Labels::single(u8::from(i < minority)))
                .collect(),
        )
    }

    /// A source that records the object set of every set query it serves.
    #[derive(Debug, Clone)]
    struct SpySource<'a> {
        inner: PerfectSource<'a, VecGroundTruth>,
        asked_sets: Vec<Vec<ObjectId>>,
    }

    impl<'a> SpySource<'a> {
        fn new(t: &'a VecGroundTruth) -> Self {
            Self {
                inner: PerfectSource::new(t),
                asked_sets: Vec::new(),
            }
        }
    }

    impl AnswerSource for SpySource<'_> {
        fn try_answer_set(
            &mut self,
            objects: &[ObjectId],
            target: &Target,
        ) -> Result<bool, AskError> {
            self.asked_sets.push(objects.to_vec());
            self.inner.try_answer_set(objects, target)
        }

        fn try_answer_point_labels(&mut self, object: ObjectId) -> Result<Labels, AskError> {
            self.inner.try_answer_point_labels(object)
        }
    }

    #[test]
    fn repeated_set_queries_hit_cache() {
        let t = truth(100, 10);
        let mut src = MemoizedSource::new(PerfectSource::new(&t));
        let ids = t.all_ids();
        let target = Target::group(Pattern::parse("1").unwrap());
        let a = src.try_answer_set(&ids[..50], &target).unwrap();
        let b = src.try_answer_set(&ids[..50], &target).unwrap();
        assert_eq!(a, b);
        assert_eq!(src.cache_hits(), 1);
        assert_eq!(src.cache_misses(), 1);
        // Different range or different target: miss.
        src.try_answer_set(&ids[50..], &target).unwrap();
        src.try_answer_set(&ids[..50], &target.negated()).unwrap();
        assert_eq!(src.cache_misses(), 3);
    }

    #[test]
    fn labels_cached_across_membership_questions() {
        let t = truth(10, 5);
        let mut src = MemoizedSource::new(PerfectSource::new(&t));
        let female = Target::group(Pattern::parse("1").unwrap());
        let male = female.negated();
        assert!(src.try_answer_membership(ObjectId(0), &female).unwrap());
        // The second question about the same object is free.
        assert!(!src.try_answer_membership(ObjectId(0), &male).unwrap());
        assert_eq!(src.cache_hits(), 1);
        assert_eq!(src.cache_misses(), 1);
    }

    /// Running the identical Group-Coverage twice: the second run is fully
    /// answered from cache — quantifying what a requester saves by storing
    /// crowd answers.
    #[test]
    fn memoization_savings() {
        let t = truth(2000, 30);
        let target = Target::group(Pattern::parse("1").unwrap());
        let mut engine = Engine::with_point_batch(MemoizedSource::new(PerfectSource::new(&t)), 50);
        let pool = t.all_ids();
        let first =
            group_coverage(&mut engine, &pool, &target, 50, 50, &DncConfig::default()).unwrap();
        let after_first = engine.source().cache_misses();
        let second =
            group_coverage(&mut engine, &pool, &target, 50, 50, &DncConfig::default()).unwrap();
        assert_eq!(first.covered, second.covered);
        assert_eq!(first.count, second.count);
        assert_eq!(
            engine.source().cache_misses(),
            after_first,
            "the repeat run must not reach the crowd at all"
        );
        assert!(engine.source().cache_hits() >= after_first);
    }

    /// A known member answers any containing set query outright; known
    /// non-members narrow the query to the residual the source then sees.
    #[test]
    fn labels_decompose_set_queries() {
        let t = truth(20, 3); // members: 0, 1, 2
        let female = Target::group(Pattern::parse("1").unwrap());
        let ids = t.all_ids();
        let mut src = SharedKnowledgeSource::new(SpySource::new(&t));

        // Learn two labels via point queries: one member, one non-member.
        assert!(src.try_answer_membership(ObjectId(0), &female).unwrap());
        assert!(!src.try_answer_membership(ObjectId(5), &female).unwrap());

        // A set containing the known member is free.
        assert!(src.try_answer_set(&ids[..10], &female).unwrap());
        assert!(src.inner().asked_sets.is_empty(), "no crowd contact");

        // A set containing only the known non-member is narrowed.
        assert!(!src.try_answer_set(&ids[4..8], &female).unwrap());
        assert_eq!(
            src.inner().asked_sets,
            vec![vec![ObjectId(4), ObjectId(6), ObjectId(7)]],
            "object 5 must be pruned from the forwarded query"
        );
        let stats = src.reuse_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.narrowed, 1);
        assert_eq!(stats.objects_pruned, 1);
    }

    /// A `false` set answer marks every asked object a non-member; a later
    /// query over a subset is answered without any crowd contact.
    #[test]
    fn negative_set_answers_become_object_facts() {
        let t = truth(20, 3);
        let female = Target::group(Pattern::parse("1").unwrap());
        let ids = t.all_ids();
        let mut src = SharedKnowledgeSource::new(SpySource::new(&t));

        assert!(!src.try_answer_set(&ids[10..20], &female).unwrap());
        assert_eq!(src.inner().asked_sets.len(), 1);

        // Any subset — or any overlapping set whose unknowns all fall in
        // the certified range — resolves from facts.
        assert!(!src.try_answer_set(&ids[12..17], &female).unwrap());
        assert_eq!(src.inner().asked_sets.len(), 1, "subset was free");

        // An overlapping query is narrowed to its genuinely unknown part.
        assert!(!src.try_answer_set(&ids[8..12], &female).unwrap());
        assert_eq!(
            src.inner().asked_sets[1],
            vec![ObjectId(8), ObjectId(9)],
            "known non-members 10, 11 must be pruned"
        );
        assert_eq!(src.store_snapshot().membership_facts(), 12);
    }

    /// A `true` answer on a singleton set is a membership fact.
    #[test]
    fn positive_singleton_becomes_member_fact() {
        let t = truth(10, 2);
        let female = Target::group(Pattern::parse("1").unwrap());
        let mut src = SharedKnowledgeSource::new(SpySource::new(&t));
        assert!(src.try_answer_set(&[ObjectId(1)], &female).unwrap());
        // Every future set containing object 1 is free.
        let ids = t.all_ids();
        assert!(src.try_answer_set(&ids, &female).unwrap());
        assert_eq!(src.inner().asked_sets.len(), 1);
        assert!(src.store_snapshot().is_known_member(ObjectId(1), &female));
    }

    /// Facts are per-target: knowledge about `female` must not leak into
    /// queries about an unrelated predicate (labels, which decide every
    /// predicate, are exempt by design).
    #[test]
    fn membership_facts_are_target_scoped() {
        let t = truth(10, 2);
        let female = Target::group(Pattern::parse("1").unwrap());
        let male = female.negated();
        let ids = t.all_ids();
        let mut src = SharedKnowledgeSource::new(SpySource::new(&t));
        // "no females in 5..10" says nothing about males there.
        assert!(!src.try_answer_set(&ids[5..], &female).unwrap());
        assert!(src.try_answer_set(&ids[5..], &male).unwrap());
        assert_eq!(src.inner().asked_sets.len(), 2, "male query not narrowed");
    }

    /// Knowledge-wrapped and raw sources agree on every answer.
    #[test]
    fn transparent_semantics() {
        let t = truth(500, 77);
        let target = Target::group(Pattern::parse("1").unwrap());
        let pool = t.all_ids();
        let mut raw = Engine::with_point_batch(PerfectSource::new(&t), 50);
        let mut memo = Engine::with_point_batch(MemoizedSource::new(PerfectSource::new(&t)), 50);
        let mut know =
            Engine::with_point_batch(SharedKnowledgeSource::new(PerfectSource::new(&t)), 50);
        let a = group_coverage(&mut raw, &pool, &target, 50, 50, &DncConfig::default()).unwrap();
        let b = group_coverage(&mut memo, &pool, &target, 50, 50, &DncConfig::default()).unwrap();
        let c = group_coverage(&mut know, &pool, &target, 50, 50, &DncConfig::default()).unwrap();
        assert_eq!(a.covered, b.covered);
        assert_eq!(a.count, b.count);
        assert_eq!(a.set_queries, b.set_queries);
        assert_eq!(a.covered, c.covered);
        assert_eq!(a.count, c.count);
        assert_eq!(a.set_queries, c.set_queries);
        // The knowledge layer reaches the crowd at most as often as the
        // exact-match cache.
        assert!(know.source().reuse_stats().forwarded <= memo.source().cache_misses());
    }

    #[test]
    fn shared_store_spans_clones() {
        let t = truth(100, 10);
        let target = Target::group(Pattern::parse("1").unwrap());
        let ids = t.all_ids();
        let root = SharedKnowledgeSource::new(PerfectSource::new(&t));
        let mut a = root.clone();
        let mut b = root.clone();
        let first = a.try_answer_set(&ids[..50], &target).unwrap();
        let second = b.try_answer_set(&ids[..50], &target).unwrap();
        assert_eq!(first, second);
        assert_eq!(
            root.cache_misses(),
            1,
            "clone b must reuse clone a's answer"
        );
        assert_eq!(root.cache_hits(), 1);
        a.try_answer_membership(ObjectId(3), &target).unwrap();
        b.try_answer_membership(ObjectId(3), &target.negated())
            .unwrap();
        assert_eq!(root.cache_misses(), 2);
        assert_eq!(root.cache_hits(), 2);
        // Per-handle tallies split the same traffic.
        assert_eq!(a.local_reuse_stats().forwarded, 2);
        assert_eq!(b.local_reuse_stats().hits, 2);
    }

    /// Cross-handle narrowing: one handle's labels shrink another handle's
    /// set queries.
    #[test]
    fn knowledge_flows_between_handles() {
        let t = truth(30, 2);
        let female = Target::group(Pattern::parse("1").unwrap());
        let ids = t.all_ids();
        let root = SharedKnowledgeSource::new(SpySource::new(&t));
        let mut labeler = root.clone();
        let mut auditor = root.clone();
        // The labeler pays for two labels...
        labeler.try_answer_point_labels(ObjectId(0)).unwrap();
        labeler.try_answer_point_labels(ObjectId(10)).unwrap();
        // ...which answer (known member) and narrow (known non-member) the
        // auditor's set queries.
        assert!(auditor.try_answer_set(&ids[..5], &female).unwrap());
        assert!(!auditor.try_answer_set(&ids[8..12], &female).unwrap());
        let stats = root.reuse_stats();
        assert_eq!(stats.hits, 1, "member fact answered the first set");
        assert_eq!(stats.narrowed, 1, "label pruned the second set");
        assert_eq!(stats.objects_pruned, 1);
    }

    #[test]
    fn shared_batch_path_serves_known_labels_locally() {
        let t = truth(60, 20);
        let ids = t.all_ids();
        let mut src = SharedKnowledgeSource::new(PerfectSource::new(&t));
        src.try_answer_point_labels(ObjectId(0)).unwrap();
        src.try_answer_point_labels(ObjectId(1)).unwrap();
        let batched = many(&mut src, &ids[..10]).unwrap();
        for (i, l) in batched.iter().enumerate() {
            assert_eq!(*l, t.labels_of(ids[i]));
        }
        // 2 singles + 8 fresh batch members forwarded; 2 batch members hit.
        assert_eq!(src.cache_misses(), 10);
        assert_eq!(src.cache_hits(), 2);
        // The whole batch is now known.
        many(&mut src, &ids[..10]).unwrap();
        assert_eq!(src.cache_misses(), 10);
        assert_eq!(src.cache_hits(), 12);
    }

    #[test]
    fn shared_store_is_thread_safe() {
        let t = truth(500, 50);
        let target = Target::group(Pattern::parse("1").unwrap());
        let pool = t.all_ids();
        let root = SharedKnowledgeSource::new(PerfectSource::new(&t));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let mut handle = root.clone();
                let pool = &pool;
                let target = &target;
                scope.spawn(move || {
                    for chunk in pool.chunks(50) {
                        handle.try_answer_set(chunk, target).unwrap();
                    }
                    for id in &pool[..40] {
                        handle.try_answer_membership(*id, target).unwrap();
                    }
                });
            }
        });
        // 10 distinct set queries + 40 distinct labels: in-flight coalescing
        // guarantees each unique question reaches the source at most once
        // (fact short-circuits can only reduce the count further).
        let stats = root.reuse_stats();
        assert!(stats.forwarded <= 50, "forwarded {}", stats.forwarded);
        assert_eq!(stats.questions(), 4 * (10 + 40));
    }

    /// Whatever the interleaving, shared-store answers equal the raw
    /// source's answers — the store is transparent for consistent sources.
    #[test]
    fn concurrent_answers_match_raw_source() {
        let t = truth(400, 37);
        let target = Target::group(Pattern::parse("1").unwrap());
        let pool = t.all_ids();
        let mut raw = PerfectSource::new(&t);
        let expected_sets: Vec<bool> = pool
            .chunks(25)
            .map(|c| raw.try_answer_set(c, &target).unwrap())
            .collect();
        for _ in 0..4 {
            let root = SharedKnowledgeSource::new(PerfectSource::new(&t));
            let answers: Vec<Vec<bool>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..3)
                    .map(|j| {
                        let mut handle = root.clone();
                        let pool = &pool;
                        let target = &target;
                        scope.spawn(move || {
                            // Each thread mixes labels and set queries in a
                            // different order to vary the fact arrivals.
                            for id in &pool[(j * 40)..(j * 40 + 30)] {
                                handle.try_answer_point_labels(*id).unwrap();
                            }
                            pool.chunks(25)
                                .map(|c| handle.try_answer_set(c, target).unwrap())
                                .collect::<Vec<bool>>()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for per_thread in answers {
                assert_eq!(per_thread, expected_sets);
            }
        }
    }

    /// A source that (optionally after a delay) refuses every question.
    struct DownSource {
        delay_ms: u64,
    }

    impl AnswerSource for DownSource {
        fn try_answer_set(&mut self, _: &[ObjectId], _: &Target) -> Result<bool, AskError> {
            if self.delay_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(self.delay_ms));
            }
            Err(AskError::SourceFailed("down".into()))
        }

        fn try_answer_point_labels(&mut self, _: ObjectId) -> Result<Labels, AskError> {
            if self.delay_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(self.delay_ms));
            }
            Err(AskError::SourceFailed("down".into()))
        }
    }

    /// One handle's failure releases the in-flight claim: the next asker
    /// re-claims the question and gets a real answer — failures are never
    /// recorded and never poison the shared state.
    #[test]
    fn failed_claim_releases_question_for_others() {
        let t = truth(20, 5);
        let target = Target::group(Pattern::parse("1").unwrap());
        let ids = t.all_ids();
        let root = SharedKnowledgeSource::new(PerfectSource::new(&t));
        let mut broken = root.with_inner(DownSource { delay_ms: 0 });
        let mut healthy = root.clone();

        assert!(matches!(
            broken.try_answer_set(&ids, &target),
            Err(AskError::SourceFailed(_))
        ));
        // The failure was not recorded; the healthy handle pays and succeeds.
        assert_eq!(healthy.try_answer_set(&ids, &target), Ok(true));
        assert_eq!(root.cache_misses(), 1, "only the delivered answer counts");

        // Same for the round path: a failed round releases every claim.
        assert!(many(&mut broken, &ids[..6]).is_err());
        let labels = many(&mut healthy, &ids[..6]).unwrap();
        assert_eq!(labels.len(), 6);
    }

    /// Answers the first `allow` point questions, then refuses.
    #[derive(Debug, Clone)]
    struct Capped<'a> {
        inner: PerfectSource<'a, VecGroundTruth>,
        allow: usize,
    }

    impl AnswerSource for Capped<'_> {
        fn try_answer_set(
            &mut self,
            objects: &[ObjectId],
            target: &Target,
        ) -> Result<bool, AskError> {
            self.inner.try_answer_set(objects, target)
        }

        fn try_answer_point_labels(&mut self, object: ObjectId) -> Result<Labels, AskError> {
            if self.allow == 0 {
                return Err(AskError::SourceFailed("cap".into()));
            }
            self.allow -= 1;
            self.inner.try_answer_point_labels(object)
        }
    }

    /// The round path under a cut delivers what one-at-a-time asking
    /// delivers — the same prefix, spend, stats and stored facts — with
    /// known objects, repeats and unknown objects mixed in one round.
    #[test]
    fn round_matches_one_at_a_time_under_any_cut() {
        let t = truth(40, 12);
        let ids = t.all_ids();
        let mut round: Vec<ObjectId> = ids[..20].to_vec();
        round.extend_from_slice(&ids[5..9]); // repeats of earlier objects
        round.extend_from_slice(&ids[30..36]);
        for allow in 0..=25 {
            let fresh = || {
                let src = SharedKnowledgeSource::with_shards(
                    Capped {
                        inner: PerfectSource::new(&t),
                        allow,
                    },
                    3,
                );
                // Some objects are known before the round starts.
                for id in [ids[2], ids[11], ids[31]] {
                    let mut seeded = KnowledgeStore::new();
                    seeded.record_labels(id, t.labels_of(id));
                    src.seed_store(&seeded);
                }
                src
            };
            let mut batched = fresh();
            let mut got = Vec::new();
            let batched_result = batched.try_answer_point_labels_many(&round, &mut got);
            let mut single = fresh();
            let mut want = Vec::new();
            let mut single_result = Ok(());
            for id in &round {
                match single.try_answer_point_labels(*id) {
                    Ok(l) => want.push(l),
                    Err(e) => {
                        single_result = Err(e);
                        break;
                    }
                }
            }
            assert_eq!(got, want, "allow={allow}");
            assert_eq!(batched_result, single_result, "allow={allow}");
            assert_eq!(batched.reuse_stats(), single.reuse_stats(), "allow={allow}");
            assert_eq!(batched.local_reuse_stats(), single.local_reuse_stats());
            assert_eq!(batched.inner().allow, single.inner().allow, "spend");
            assert_eq!(batched.store_snapshot(), single.store_snapshot());
            // Every claim was committed or released: nothing stays in flight.
            for shard in &batched.shared.fact_shards {
                assert!(shard.lock().label_in_flight.is_empty());
            }
        }
    }

    /// An object another handle has in flight is waited out before anything
    /// behind it is claimed: when that flight fails, the round re-asks the
    /// object ahead of the later ones, so at a spend cap it delivers the
    /// prefix one-at-a-time asking delivers and pays for nothing else.
    #[test]
    fn round_reasks_a_failed_flight_elsewhere_before_later_objects() {
        let t = truth(10, 3);
        let ids = t.all_ids();
        let mut src = SharedKnowledgeSource::new(Capped {
            inner: PerfectSource::new(&t),
            allow: 2,
        });
        let held = ids[1];
        let shared = Arc::clone(&src.shared);
        shared.fact_shard(held).lock().label_in_flight.insert(held);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // The other handle's flight for `held` fails and releases it.
                std::thread::sleep(std::time::Duration::from_millis(40));
                let shard = shared.fact_shard(held);
                shard.lock().label_in_flight.remove(&held);
                shard.ready.notify_all();
            });
            let mut out = Vec::new();
            let result = src.try_answer_point_labels_many(&ids[..3], &mut out);
            assert!(matches!(result, Err(AskError::SourceFailed(_))));
            // ids[0] and the re-asked ids[1] spend the cap; ids[2] is refused.
            assert_eq!(out, vec![t.labels_of(ids[0]), t.labels_of(ids[1])]);
        });
        assert_eq!(src.inner().allow, 0);
        assert_eq!(src.local_reuse_stats().forwarded, 2);
        for shard in &shared.fact_shards {
            assert!(shard.lock().label_in_flight.is_empty());
        }
    }

    /// Answers the first `allow` set queries, then refuses.
    #[derive(Debug, Clone)]
    struct CappedSets<'a> {
        inner: PerfectSource<'a, VecGroundTruth>,
        allow: usize,
    }

    impl AnswerSource for CappedSets<'_> {
        fn try_answer_set(
            &mut self,
            objects: &[ObjectId],
            target: &Target,
        ) -> Result<bool, AskError> {
            if self.allow == 0 {
                return Err(AskError::SourceFailed("cap".into()));
            }
            self.allow -= 1;
            self.inner.try_answer_set(objects, target)
        }

        fn try_answer_point_labels(&mut self, object: ObjectId) -> Result<Labels, AskError> {
            self.inner.try_answer_point_labels(object)
        }
    }

    /// One committed set verdict: `(objects, residual, answer)`.
    type SetRecord = (Vec<ObjectId>, Vec<ObjectId>, bool);

    /// Logs every committed set verdict in commit order.
    #[derive(Debug, Default)]
    struct SetLog(Mutex<Vec<SetRecord>>);

    impl FactSink for SetLog {
        fn on_labels(&self, _: ObjectId, _: Labels) {}

        fn on_set_verdict(
            &self,
            objects: &[ObjectId],
            residual: &[ObjectId],
            _: &Target,
            ans: bool,
        ) {
            let entry = (objects.to_vec(), residual.to_vec(), ans);
            self.0.lock().unwrap().push(entry);
        }
    }

    /// A set round under a cut delivers what one-at-a-time asking
    /// delivers — the same prefix, spend, stats, stored facts and sink
    /// records — with exact-verdict hits, fact hits, narrowed sets, fresh
    /// sets and sets overlapping an earlier set of the round mixed in.
    #[test]
    fn round_of_sets_matches_one_at_a_time_under_any_cut() {
        let t = truth(60, 12);
        let female = Target::group(Pattern::parse("1").unwrap());
        let ids = t.all_ids();
        let round: Vec<&[ObjectId]> = vec![
            &ids[0..5],   // holds a known member: hit
            &ids[20..30], // fresh: no
            &ids[30..34], // one known non-member: narrowed
            &ids[40..45], // exact verdict known: hit
            &ids[8..12],  // fresh: yes
            &ids[25..28], // inside the earlier no: hit once that commits
            &ids[50..55], // fresh: no
            &ids[10..11], // inside the earlier yes: fresh singleton
            &ids[45..50], // fresh: no
        ];
        for allow in 0..=7 {
            let fresh = || {
                let src = SharedKnowledgeSource::with_shards(
                    CappedSets {
                        inner: PerfectSource::new(&t),
                        allow,
                    },
                    3,
                );
                let mut seeded = KnowledgeStore::new();
                for id in [ids[2], ids[31]] {
                    seeded.record_labels(id, t.labels_of(id));
                }
                seeded.record_set_answer(&ids[40..45], &ids[40..45], &female, false);
                src.seed_store(&seeded);
                let log = Arc::new(SetLog::default());
                src.set_fact_sink(Arc::clone(&log) as Arc<dyn FactSink>);
                (src, log)
            };
            let (mut batched, batched_log) = fresh();
            let mut got = Vec::new();
            let batched_result = batched.try_answer_sets(&round, &female, &mut got);
            let (mut single, single_log) = fresh();
            let mut want = Vec::new();
            let mut single_result = Ok(());
            for objects in &round {
                match single.try_answer_set(objects, &female) {
                    Ok(ans) => want.push(ans),
                    Err(e) => {
                        single_result = Err(e);
                        break;
                    }
                }
            }
            assert_eq!(got, want, "allow={allow}");
            assert_eq!(batched_result, single_result, "allow={allow}");
            assert_eq!(batched.reuse_stats(), single.reuse_stats(), "allow={allow}");
            assert_eq!(batched.local_reuse_stats(), single.local_reuse_stats());
            assert_eq!(batched.inner().allow, single.inner().allow, "spend");
            assert_eq!(batched.store_snapshot(), single.store_snapshot());
            assert_eq!(
                *batched_log.0.lock().unwrap(),
                *single_log.0.lock().unwrap()
            );
            for stripe in &batched.shared.set_stripes {
                assert!(stripe.lock().in_flight.is_empty(), "allow={allow}");
            }
        }
    }

    /// Records every set query it forwards and, at the first one, signals
    /// `opened` once.
    struct Gate<'a> {
        inner: CappedSets<'a>,
        asked: Vec<Vec<ObjectId>>,
        opened: Option<std::sync::mpsc::Sender<()>>,
    }

    impl AnswerSource for Gate<'_> {
        fn try_answer_set(
            &mut self,
            objects: &[ObjectId],
            target: &Target,
        ) -> Result<bool, AskError> {
            self.asked.push(objects.to_vec());
            if let Some(opened) = self.opened.take() {
                opened.send(()).unwrap();
            }
            self.inner.try_answer_set(objects, target)
        }

        fn try_answer_point_labels(&mut self, object: ObjectId) -> Result<Labels, AskError> {
            self.inner.try_answer_point_labels(object)
        }
    }

    /// A set another handle has in flight is waited out before anything
    /// behind it is claimed. When that flight delivers, the round takes its
    /// verdict for free; when it fails, the round re-asks the set ahead of
    /// the later ones, so at a spend cap it delivers the prefix
    /// one-at-a-time asking delivers and pays for nothing else.
    #[test]
    fn round_waits_out_a_set_in_flight_elsewhere_and_reasks_a_failed_flight() {
        let t = truth(30, 12);
        let female = Target::group(Pattern::parse("1").unwrap());
        let ids = t.all_ids();
        let round: Vec<&[ObjectId]> = vec![&ids[0..10], &ids[10..20], &ids[20..30]];
        for other_delivers in [false, true] {
            let (opened, first_forward) = std::sync::mpsc::channel();
            let mut src = SharedKnowledgeSource::new(Gate {
                inner: CappedSets {
                    inner: PerfectSource::new(&t),
                    allow: 2,
                },
                asked: Vec::new(),
                opened: Some(opened),
            });
            let held = (round[1].to_vec(), female.clone());
            let shared = Arc::clone(&src.shared);
            let stripe = shared.set_stripe(&held.0, &held.1);
            stripe.lock().in_flight.insert(held.clone());
            let mut out = Vec::new();
            let result = std::thread::scope(|scope| {
                scope.spawn(move || {
                    // Once the round has forwarded its first set, the other
                    // handle's flight ends. (The timeout only keeps a broken
                    // round from hanging the test; the checks below then
                    // fail.)
                    let _ = first_forward.recv_timeout(std::time::Duration::from_secs(10));
                    let mut state = stripe.lock();
                    state.in_flight.remove(&held);
                    if other_delivers {
                        state.verdicts.record_set_verdict(held.0, &held.1, true);
                    }
                    drop(state);
                    stripe.ready.notify_all();
                });
                src.try_answer_sets(&round, &female, &mut out)
            });
            let asked: Vec<&[ObjectId]> = src.inner().asked.iter().map(|s| &s[..]).collect();
            let stats = src.local_reuse_stats();
            if other_delivers {
                assert_eq!(result, Ok(()));
                assert_eq!(out, vec![true, true, false]);
                assert_eq!(
                    asked,
                    vec![round[0], round[2]],
                    "the held set is never asked"
                );
                assert_eq!((stats.forwarded, stats.hits), (2, 1));
            } else {
                assert!(matches!(result, Err(AskError::SourceFailed(_))));
                // The first set and the re-asked second spend the cap; the
                // third is refused.
                assert_eq!(out, vec![true, true]);
                assert_eq!(
                    asked, round,
                    "the held set is asked before the one behind it"
                );
                assert_eq!((stats.forwarded, stats.hits), (2, 0));
            }
            assert_eq!(src.inner().inner.allow, 0);
            for stripe in &shared.set_stripes {
                assert!(stripe.lock().in_flight.is_empty());
            }
        }
    }

    /// A waiter coalesced behind a failing claim is woken, re-claims, and
    /// answers with its own (working) inner source instead of hanging or
    /// inheriting the error.
    #[test]
    fn waiter_survives_claimants_failure() {
        let t = truth(50, 10);
        let target = Target::group(Pattern::parse("1").unwrap());
        let ids = t.all_ids();
        let root = SharedKnowledgeSource::new(PerfectSource::new(&t));
        let mut broken = root.with_inner(DownSource { delay_ms: 40 });
        let mut healthy = root.clone();

        std::thread::scope(|scope| {
            let claim_ids = ids.clone();
            let claim_target = target.clone();
            let claimer = scope.spawn(move || broken.try_answer_set(&claim_ids, &claim_target));
            // Give the broken handle time to claim, then pile up behind it.
            std::thread::sleep(std::time::Duration::from_millis(10));
            let waited = healthy.try_answer_set(&ids, &target);
            assert_eq!(waited, Ok(true), "waiter must re-claim and succeed");
            assert!(claimer.join().unwrap().is_err());
        });
    }

    /// Single-threaded determinism: the shard count is a pure contention
    /// knob — answers *and* the metered `ReuseStats` are identical for any
    /// striping of the same question sequence.
    #[test]
    fn shard_count_never_changes_answers_or_stats() {
        let t = truth(300, 40);
        let female = Target::group(Pattern::parse("1").unwrap());
        let ids = t.all_ids();
        let run = |shards: usize| -> (Vec<bool>, Vec<Labels>, ReuseStats) {
            let mut src = SharedKnowledgeSource::with_shards(PerfectSource::new(&t), shards);
            assert_eq!(src.shard_count(), shards);
            let mut sets = Vec::new();
            let mut labels = Vec::new();
            for chunk in ids.chunks(37) {
                sets.push(src.try_answer_set(chunk, &female).unwrap());
            }
            for id in &ids[..90] {
                labels.push(src.try_answer_point_labels(*id).unwrap());
            }
            for chunk in ids.chunks(23) {
                sets.push(src.try_answer_set(chunk, &female.negated()).unwrap());
            }
            labels.extend(many(&mut src, &ids[50..150]).unwrap());
            (sets, labels, src.reuse_stats())
        };
        let baseline = run(1);
        for shards in [2, 3, 8, 64] {
            assert_eq!(run(shards), baseline, "{shards} shards diverged");
        }
    }

    /// Forked handles share the fact base; joining folds the fork's local
    /// tally back so per-job accounting stays complete.
    #[test]
    fn fork_and_join_merge_local_tallies() {
        use crate::engine::ForkableSource;
        let t = truth(40, 10);
        let female = Target::group(Pattern::parse("1").unwrap());
        let ids = t.all_ids();
        let mut root = SharedKnowledgeSource::new(PerfectSource::new(&t));
        root.try_answer_set(&ids[..10], &female).unwrap();
        let mut fork = root.fork();
        assert_eq!(fork.local_reuse_stats(), ReuseStats::default());
        fork.try_answer_set(&ids[..10], &female).unwrap(); // hit via shared facts
        fork.try_answer_set(&ids[10..], &female).unwrap(); // fresh forward
        root.join(fork);
        let local = root.local_reuse_stats();
        assert_eq!(local.hits, 1);
        assert_eq!(local.forwarded, 2);
        assert_eq!(root.reuse_stats(), local, "one handle saw all traffic");
    }

    /// The serde surface round-trips every kind of fact exactly.
    #[test]
    fn store_serde_round_trips() {
        let t = truth(40, 8);
        let female = Target::group(Pattern::parse("1").unwrap());
        let ids = t.all_ids();
        let mut src = SharedKnowledgeSource::new(PerfectSource::new(&t));
        src.try_answer_point_labels(ObjectId(0)).unwrap();
        src.try_answer_point_labels(ObjectId(20)).unwrap();
        src.try_answer_set(&[ObjectId(3)], &female).unwrap();
        src.try_answer_set(&ids[10..30], &female).unwrap();
        src.try_answer_set(&ids[30..], &female.negated()).unwrap();
        let store = src.store_snapshot();
        assert!(!store.is_empty());
        let json = serde_json::to_string(&store).unwrap();
        let back: KnowledgeStore = serde_json::from_str(&json).unwrap();
        assert_eq!(back, store);
        // And the round-tripped store answers queries identically: a source
        // seeded from each gives the same answers, with zero forwards, to
        // every question the original store can decide...
        let seeded = |facts: &KnowledgeStore| {
            let src = SharedKnowledgeSource::new(SpySource::new(&t));
            src.seed_store(facts);
            src
        };
        let (mut from_back, mut from_store) = (seeded(&back), seeded(&store));
        for object in [ObjectId(0), ObjectId(20)] {
            assert_eq!(
                from_back.try_answer_point_labels(object).unwrap(),
                from_store.try_answer_point_labels(object).unwrap()
            );
        }
        let decided: [(&[ObjectId], Target); 5] = [
            (&[ObjectId(3)], female.clone()),
            (&ids[10..30], female.clone()),
            (&ids[30..], female.negated()),
            (&ids[..7], female.clone()),
            (&ids[12..19], female.clone()),
        ];
        for (objects, target) in &decided {
            assert_eq!(
                from_back.try_answer_set(objects, target).unwrap(),
                from_store.try_answer_set(objects, target).unwrap()
            );
        }
        assert_eq!(from_back.reuse_stats().forwarded, 0);
        assert_eq!(from_store.reuse_stats().forwarded, 0);
        // ...and narrows every other question to the same residual.
        for chunk in ids.chunks(7) {
            assert_eq!(
                from_back.try_answer_set(chunk, &female).unwrap(),
                from_store.try_answer_set(chunk, &female).unwrap()
            );
        }
        assert_eq!(from_back.inner().asked_sets, from_store.inner().asked_sets);
        assert_eq!(from_back.reuse_stats(), from_store.reuse_stats());
    }

    /// A sink observing an in-memory store that replays every observed
    /// fact into a second store via the public record methods — the
    /// WAL-replay contract, minus the file.
    #[derive(Debug, Default)]
    struct ReplaySink {
        replayed: Mutex<KnowledgeStore>,
    }

    impl FactSink for ReplaySink {
        fn on_labels(&self, object: ObjectId, labels: Labels) {
            let mut store = self.replayed.lock().unwrap();
            store.record_labels(object, labels);
        }

        fn on_set_verdict(
            &self,
            objects: &[ObjectId],
            residual: &[ObjectId],
            target: &Target,
            answer: bool,
        ) {
            let mut store = self.replayed.lock().unwrap();
            store.record_set_answer(objects, residual, target, answer);
        }
    }

    /// Every committed fact reaches the sink; replaying the sink's log
    /// rebuilds the exact fact base (modulo stats, which are not facts).
    #[test]
    fn sink_sees_every_committed_fact() {
        let t = truth(60, 9);
        let female = Target::group(Pattern::parse("1").unwrap());
        let ids = t.all_ids();
        let root = SharedKnowledgeSource::new(PerfectSource::new(&t));
        let sink = Arc::new(ReplaySink::default());
        root.set_fact_sink(Arc::clone(&sink) as Arc<dyn FactSink>);
        let mut handle = root.clone();
        handle.try_answer_point_labels(ObjectId(2)).unwrap();
        many(&mut handle, &ids[10..20]).unwrap();
        for chunk in ids.chunks(13) {
            handle.try_answer_set(chunk, &female).unwrap();
        }
        let mut live = root.store_snapshot();
        let mut replayed = sink.replayed.lock().unwrap().clone();
        live.stats = ReuseStats::default();
        replayed.stats = ReuseStats::default();
        assert_eq!(replayed, live);
        // Repeating the questions adds no sink traffic: hits don't commit.
        let before = serde_json::to_string(&replayed).unwrap();
        handle.try_answer_point_labels(ObjectId(2)).unwrap();
        handle.try_answer_set(&ids[..13], &female).unwrap();
        assert_eq!(
            serde_json::to_string(&*sink.replayed.lock().unwrap()).unwrap(),
            before
        );
    }

    /// Seeded facts answer questions but reach neither stats-as-spend nor
    /// the sink — recovery must never re-log or re-bill recovered facts.
    #[test]
    fn seeding_bypasses_sink_and_spend() {
        let t = truth(30, 6);
        let female = Target::group(Pattern::parse("1").unwrap());
        let ids = t.all_ids();
        let mut donor = SharedKnowledgeSource::new(PerfectSource::new(&t));
        for id in &ids {
            donor.try_answer_point_labels(*id).unwrap();
        }
        let root = SharedKnowledgeSource::new(PerfectSource::new(&t));
        let sink = Arc::new(ReplaySink::default());
        root.set_fact_sink(Arc::clone(&sink) as Arc<dyn FactSink>);
        root.seed_store(&donor.store_snapshot());
        assert!(sink.replayed.lock().unwrap().is_empty());
        let mut handle = root.clone();
        for chunk in ids.chunks(11) {
            handle.try_answer_set(chunk, &female).unwrap();
        }
        for id in &ids {
            handle.try_answer_point_labels(*id).unwrap();
        }
        let stats = root.reuse_stats();
        assert_eq!(stats.forwarded, 0, "everything answered from the seed");
        assert!(sink.replayed.lock().unwrap().is_empty());
    }

    /// An in-memory spill with call counters, for watermark tests.
    #[derive(Debug, Default)]
    struct MapSpill {
        cold: Mutex<HashMap<ObjectId, Labels>>,
        spills: AtomicU64,
        recalls: AtomicU64,
    }

    impl FactSpill for MapSpill {
        fn spill(&self, victims: Vec<(ObjectId, Labels)>) {
            self.spills
                .fetch_add(victims.len() as u64, Ordering::Relaxed);
            self.cold.lock().unwrap().extend(victims);
        }

        fn recall(&self, object: ObjectId) -> Option<Labels> {
            let found = self.cold.lock().unwrap().remove(&object);
            if found.is_some() {
                self.recalls.fetch_add(1, Ordering::Relaxed);
            }
            found
        }

        fn contents(&self, keep: &dyn Fn(ObjectId) -> bool) -> Vec<(ObjectId, Labels)> {
            self.cold
                .lock()
                .unwrap()
                .iter()
                .filter(|(o, _)| keep(**o))
                .map(|(o, l)| (*o, *l))
                .collect()
        }
    }

    /// Over-watermark labels spill to disk and come back on touch; answers,
    /// crowd spend and snapshots are identical to the spill-less run.
    #[test]
    fn spill_bounds_memory_without_changing_answers_or_spend() {
        let t = truth(200, 25);
        let female = Target::group(Pattern::parse("1").unwrap());
        let ids = t.all_ids();

        let run = |watermark: Option<usize>| {
            let src = SharedKnowledgeSource::with_shards(PerfectSource::new(&t), 4);
            let spill = Arc::new(MapSpill::default());
            if let Some(w) = watermark {
                src.set_fact_spill(Arc::clone(&spill) as Arc<dyn FactSpill>, w);
            }
            let mut handle = src.clone();
            let mut answers = Vec::new();
            for id in &ids {
                handle.try_answer_point_labels(*id).unwrap();
            }
            for chunk in ids.chunks(17) {
                answers.push(handle.try_answer_set(chunk, &female).unwrap());
            }
            // Touch every label again: recalls re-promote.
            for id in &ids {
                handle.try_answer_point_labels(*id).unwrap();
            }
            let mut snapshot = src.store_snapshot();
            snapshot.stats = ReuseStats::default();
            (answers, src.reuse_stats(), snapshot, spill)
        };

        let (answers_off, stats_off, snapshot_off, _) = run(None);
        let (answers_on, stats_on, snapshot_on, spill) = run(Some(40));
        assert_eq!(answers_on, answers_off);
        assert_eq!(stats_on, stats_off, "spill must not change crowd spend");
        assert_eq!(
            snapshot_on, snapshot_off,
            "snapshots must include cold labels"
        );
        assert!(
            spill.spills.load(Ordering::Relaxed) > 0,
            "the watermark must actually evict"
        );
        assert!(
            spill.recalls.load(Ordering::Relaxed) > 0,
            "touched cold labels must be recalled"
        );
        // The in-memory population respects the watermark bound right
        // after an eviction pass.
        let src = SharedKnowledgeSource::with_shards(PerfectSource::new(&t), 4);
        let spill = Arc::new(MapSpill::default());
        src.set_fact_spill(Arc::clone(&spill) as Arc<dyn FactSpill>, 40);
        let mut handle = src.clone();
        for id in &ids {
            handle.try_answer_point_labels(*id).unwrap();
        }
        let in_memory = ids.len() - spill.cold.lock().unwrap().len();
        assert!(in_memory <= 40 + 4, "in-memory labels: {in_memory}");
    }

    /// The parts a snapshot writer streams fold back to the whole store:
    /// with labels spilled and non-zero stats, merging every part into the
    /// first equals `store_snapshot()` and the spill-less twin's store,
    /// and the parts hold disjoint facts.
    #[test]
    fn store_parts_fold_to_the_snapshot() {
        let t = truth(200, 25);
        let female = Target::group(Pattern::parse("1").unwrap());
        let ids = t.all_ids();
        let run = |spill: Option<Arc<MapSpill>>| {
            let src = SharedKnowledgeSource::with_shards(PerfectSource::new(&t), 4);
            if let Some(spill) = spill {
                src.set_fact_spill(spill as Arc<dyn FactSpill>, 40);
            }
            let mut handle = src.clone();
            for id in &ids[..120] {
                handle.try_answer_point_labels(*id).unwrap();
            }
            // Asked twice: the second pass is all hits.
            for _ in 0..2 {
                for chunk in ids[100..].chunks(9) {
                    handle.try_answer_set(chunk, &female).unwrap();
                }
            }
            src
        };
        let spill = Arc::new(MapSpill::default());
        let src = run(Some(Arc::clone(&spill)));
        assert!(!spill.cold.lock().unwrap().is_empty(), "labels must spill");

        let mut parts = Vec::new();
        src.for_each_store_part(|part| parts.push(part.clone()));
        assert_eq!(parts.len(), 1 + 2 * src.shard_count());
        assert!(parts[0].is_empty(), "the head part carries only stats");
        let mut folded = parts[0].clone();
        for part in &parts[1..] {
            folded.merge(part);
        }
        assert!(folded.stats().hits > 0 && folded.stats().forwarded > 0);
        assert_eq!(folded, src.store_snapshot());
        assert_eq!(folded, run(None).store_snapshot());
        assert_eq!(folded.labels_known(), 120);
        let summed: usize = parts.iter().map(KnowledgeStore::fact_count).sum();
        assert_eq!(summed, folded.fact_count(), "parts are disjoint");
    }

    /// Without a spill nothing reads the LRU clock, so label traffic must
    /// not grow the per-label touch map.
    #[test]
    fn spill_less_store_keeps_no_touch_map() {
        let t = truth(60, 10);
        let female = Target::group(Pattern::parse("1").unwrap());
        let ids = t.all_ids();
        let mut src = SharedKnowledgeSource::with_shards(PerfectSource::new(&t), 4);
        for id in &ids[..20] {
            src.try_answer_point_labels(*id).unwrap();
        }
        many(&mut src, &ids[10..40]).unwrap();
        for id in &ids[..40] {
            src.try_answer_membership(*id, &female).unwrap();
        }
        assert_eq!(src.store_snapshot().labels_known(), 40);
        for shard in &src.shared.fact_shards {
            let state = shard.lock();
            assert!(state.label_touch.is_empty());
            assert_eq!(state.label_clock, 0);
        }
    }

    #[test]
    fn store_counts_facts() {
        let t = truth(12, 2);
        let female = Target::group(Pattern::parse("1").unwrap());
        let ids = t.all_ids();
        let mut src = SharedKnowledgeSource::new(PerfectSource::new(&t));
        src.try_answer_point_labels(ObjectId(0)).unwrap();
        src.try_answer_set(&ids[6..], &female).unwrap();
        let store = src.store_snapshot();
        assert_eq!(store.labels_known(), 1);
        assert_eq!(store.membership_facts(), 6);
        assert_eq!(store.set_verdicts_known(), 1);
        assert!(store.is_known_member(ObjectId(0), &female));
        assert!(store.is_known_non_member(ObjectId(0), &female.negated()));
        assert!(!store.is_known_member(ObjectId(1), &female));
    }

    /// The wire shape of a persisted or exported store, pinned byte for
    /// byte: maps are pair arrays and every membership set is a sorted id
    /// array, whatever order its ids were inserted in. One entry per map,
    /// so the text does not depend on per-process hash order.
    #[test]
    fn store_json_shape_is_pinned() {
        let female = Target::group(Pattern::parse("1").unwrap());
        let store = KnowledgeStore {
            labels: HashMap::from([(ObjectId(4), Labels::single(1))]),
            members: HashMap::from([(
                female.clone(),
                HashSet::from([ObjectId(9), ObjectId(2), ObjectId(7), ObjectId(5)]),
            )]),
            non_members: HashMap::from([(
                female.negated(),
                HashSet::from([ObjectId(8), ObjectId(1), ObjectId(3)]),
            )]),
            set_verdicts: HashMap::from([(
                female,
                HashMap::from([(vec![ObjectId(6), ObjectId(0)], false)]),
            )]),
            stats: ReuseStats {
                hits: 3,
                narrowed: 1,
                forwarded: 2,
                objects_pruned: 5,
            },
        };
        let json = serde_json::to_string(&store).unwrap();
        assert_eq!(
            json,
            concat!(
                r#"{"labels":[[4,{"len":1,"vals":[1,0,0,0,0,0,0,0]}]],"#,
                r#""members":[[{"patterns":[{"len":1,"cells":[1,255,255,255,255,255,255,255]}],"negated":false},[2,5,7,9]]],"#,
                r#""non_members":[[{"patterns":[{"len":1,"cells":[1,255,255,255,255,255,255,255]}],"negated":true},[1,3,8]]],"#,
                r#""set_verdicts":[[{"patterns":[{"len":1,"cells":[1,255,255,255,255,255,255,255]}],"negated":false},[[[6,0],false]]]],"#,
                r#""stats":{"hits":3,"narrowed":1,"forwarded":2,"objects_pruned":5}}"#,
            )
        );
        let back: KnowledgeStore = serde_json::from_str(&json).unwrap();
        assert_eq!(back, store);
    }

    /// Chunking keeps every piece within the id bound (a lone heavier
    /// verdict aside), puts the stats in the first piece, and folds back
    /// to exactly the store it cut.
    #[test]
    fn chunks_stay_within_the_id_bound_and_fold_back() {
        let female = Target::group(Pattern::parse("1").unwrap());
        let mut store = KnowledgeStore::default();
        for i in 0..23 {
            store.record_labels(ObjectId(i), Labels::single((i % 2) as u8));
        }
        for i in 0..9u32 {
            let key: Vec<ObjectId> = (100 + 10 * i..100 + 10 * i + i).map(ObjectId).collect();
            store.record_set_answer(&key, &key, &female, i % 3 == 0);
        }
        let long: Vec<ObjectId> = (500..520).map(ObjectId).collect();
        store.record_set_answer(&long, &long, &female.negated(), true);
        store.stats = ReuseStats {
            hits: 4,
            ..ReuseStats::default()
        };

        let mut pieces: Vec<KnowledgeStore> = Vec::new();
        store.for_each_chunk(8, |piece| pieces.push(piece.clone()));
        assert!(pieces.len() > 5, "{} pieces", pieces.len());
        for piece in &pieces {
            assert!(
                piece.id_weight() <= 8 || piece.fact_count() == 1,
                "piece of weight {}",
                piece.id_weight()
            );
        }
        assert_eq!(pieces[0].stats, store.stats);
        let total: usize = pieces.iter().map(KnowledgeStore::id_weight).sum();
        assert_eq!(total, store.id_weight());
        let mut folded = pieces[0].clone();
        for piece in &pieces[1..] {
            folded.merge(piece);
        }
        assert_eq!(folded, store);

        let mut empty = Vec::new();
        KnowledgeStore::default().for_each_chunk(8, |piece| empty.push(piece.clone()));
        assert_eq!(empty, vec![KnowledgeStore::default()]);
    }
}
