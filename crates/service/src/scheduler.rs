//! Scheduling for the worker pool: who runs next.
//!
//! The workers of the one pool behind both entry points of the service —
//! the long-lived [`AuditDaemon`] and the scoped [`AuditService::run`]
//! batch, which runs on the daemon's pool — pull jobs from one
//! `PriorityQueue` (crate-internal). Scheduling happens on two levels:
//!
//! 1. **Within a tenant** (tenant = the job-name segment before `/`, the
//!    same keying as the `audit_tenant_crowd_tasks_total` metric), a job's
//!    base priority comes from [`JobSpec::priority`] (higher runs first),
//!    defaulting to `DEFAULT_PRIORITY` (0); ties break by
//!    **submission order**, so equal-priority scheduling degenerates to
//!    exactly the FIFO dispatch the service shipped with.
//!
//!    Starvation-freedom comes from **aging**: every pop advances a logical
//!    clock, and a queued job's *effective* priority is
//!
//!    ```text
//!    effective = base + aging × pops_waited
//!    ```
//!
//!    Jobs already queued all age at the same rate, so aging never reorders
//!    *them* — it only protects an old low-priority job from a perpetual
//!    stream of **newly submitted** high-priority work (each newcomer
//!    starts at age zero). The pool ages by `PRIORITY_AGING` (1) per pop,
//!    so a job whose base priority trails the newcomers' by `Δ` waits at
//!    most `Δ` further pops; the queue itself takes any `aging = a`
//!    (`⌈Δ / a⌉` pops; `a = 0` restores strict priority order).
//!
//! 2. **Across tenants**, the queue runs **weighted fair queueing** (WFQ,
//!    start-time fair queueing flavour) driven by
//!    [`ServiceConfig::tenant_weights`]: every tenant carries a virtual
//!    *finish tag* that advances by `1/weight` (in fixed-point
//!    `VT_SCALE` units) each time one of its jobs is dispatched, and the
//!    pop picks the backlogged tenant with the smallest *start tag*
//!    `max(finish_tag, v_sys)` — so a tenant with weight `w` receives a
//!    `w : 1` share of scheduling decisions against a weight-1 tenant
//!    while both are backlogged, and an idle tenant can never hoard
//!    credit (its start tag is clamped to the system virtual time).
//!    Ties on the start tag break by effective priority, then submission
//!    order — fully deterministic.
//!
//!    **Equal weights are the identity**: when no tenant weight differs
//!    from the default `1`, the cross-tenant level switches itself off and
//!    the queue is *bit-for-bit* the PR 5 priority+aging scan — the same
//!    pop order for every workload, pinned by the
//!    `equal_weights_reproduce_priority_aging_exactly` test below and the
//!    single-tenant byte-identity proptest in `tests/http_plane.rs`. WFQ
//!    only reorders runs when an operator has actually configured
//!    asymmetric weights.
//!
//! The queue is deliberately a scan-on-pop `Vec` (O(queued) per pop, zero
//! allocation churn): service queues hold jobs, not questions, and a pop
//! is followed by an entire audit run — the scan is noise. Everything here
//! is deterministic: no clocks, no randomness, so scheduling order is a
//! pure function of (specs, submission order, pop interleaving, weights),
//! which the byte-identity tests rely on. Token-bucket **rate limits** are
//! enforced at the submission door (see
//! [`AuditDaemon::try_submit`](crate::AuditDaemon::try_submit)), not here —
//! the queue never consults a wall clock.
//!
//! [`AuditService::run`]: crate::AuditService::run
//! [`AuditDaemon`]: crate::AuditDaemon
//! [`JobSpec::priority`]: crate::JobSpec::priority
//! [`ServiceConfig::tenant_weights`]: crate::ServiceConfig::tenant_weights

use std::collections::HashMap;

/// Base priority of a job whose spec leaves [`JobSpec::priority`] unset.
///
/// [`JobSpec::priority`]: crate::JobSpec::priority
pub(crate) const DEFAULT_PRIORITY: u32 = 0;

/// Effective-priority boost a queued job gains per pop it waits through:
/// a job out-prioritized by `Δ` waits at most `Δ` further pops.
pub(crate) const PRIORITY_AGING: u64 = 1;

/// Fixed-point scale of the virtual-time axis: one scheduling decision of
/// a weight-`w` tenant advances its finish tag by `VT_SCALE / w`. Large
/// enough that integer truncation is far below one decision's worth of
/// credit for any sane weight.
const VT_SCALE: u64 = 1 << 32;

/// One queued job: its slot index plus the scheduling inputs.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Index of the job in the service's job table (== `JobId` value).
    job: usize,
    /// Base priority from the spec (or the service default).
    priority: u32,
    /// Submission sequence number — the FIFO tiebreak.
    seq: u64,
    /// Value of the pop clock when this job was enqueued.
    enqueued_at: u64,
    /// Index into the tenant table ([`PriorityQueue::tenants`]).
    tenant: usize,
}

/// Per-tenant WFQ state. Tenants are registered on first sight and never
/// removed — the finish tag is exactly the tenant's scheduling history,
/// which is what keeps a long-lived daemon's shares honest across jobs.
#[derive(Debug)]
struct TenantState {
    weight: u64,
    /// Virtual time at which this tenant's last dispatched job "finishes".
    finish_tag: u64,
}

/// A deterministic, starvation-free two-level queue of job indices:
/// weighted fair queueing across tenants, priority+aging within one.
#[derive(Debug)]
pub(crate) struct PriorityQueue {
    entries: Vec<Entry>,
    aging: u64,
    pops: u64,
    next_seq: u64,
    /// Tenant table in first-seen order (stable iteration ⇒ deterministic
    /// tie-breaking), plus the name → index map.
    tenants: Vec<TenantState>,
    tenant_index: HashMap<String, usize>,
    /// Operator-configured weights; unlisted tenants weigh `1`.
    weights: HashMap<String, u64>,
    /// `true` while every weight in play is the default `1` — the WFQ
    /// level is then the identity and pops run the exact PR 5 scan.
    uniform: bool,
    /// System virtual time: the start tag of the most recent dispatch.
    v_sys: u64,
}

impl PriorityQueue {
    /// An empty queue with every tenant at the default weight; `aging` is
    /// the per-pop effective-priority boost for waiting jobs (0 disables
    /// aging).
    #[cfg(test)]
    pub(crate) fn new(aging: u64) -> Self {
        Self::with_weights(aging, &[])
    }

    /// An empty queue with operator-configured per-tenant weights
    /// (unlisted tenants weigh 1; weights must be ≥ 1, enforced by
    /// [`ServiceConfig::assert_valid`](crate::ServiceConfig)).
    pub(crate) fn with_weights(aging: u64, weights: &[(String, u64)]) -> Self {
        let weights: HashMap<String, u64> = weights.iter().cloned().collect();
        let uniform = weights.values().all(|w| *w == 1);
        Self {
            entries: Vec::new(),
            aging,
            pops: 0,
            next_seq: 0,
            tenants: Vec::new(),
            tenant_index: HashMap::new(),
            weights,
            uniform,
            v_sys: 0,
        }
    }

    /// Registers (or finds) the tenant and returns its table index.
    fn tenant_id(&mut self, tenant: &str) -> usize {
        if let Some(&id) = self.tenant_index.get(tenant) {
            return id;
        }
        let id = self.tenants.len();
        let weight = self.tenant_weight(tenant);
        self.tenants.push(TenantState {
            weight,
            finish_tag: 0,
        });
        self.tenant_index.insert(tenant.to_string(), id);
        id
    }

    /// Enqueues a job slot at the given base priority under the anonymous
    /// tenant — the single-tenant degenerate case (unit tests, callers
    /// that don't partition by tenant).
    #[cfg(test)]
    pub(crate) fn push(&mut self, job: usize, priority: u32) {
        self.push_tenant(job, priority, "");
    }

    /// Enqueues a job slot at the given base priority for `tenant`.
    pub(crate) fn push_tenant(&mut self, job: usize, priority: u32, tenant: &str) {
        let tenant = self.tenant_id(tenant);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push(Entry {
            job,
            priority,
            seq,
            enqueued_at: self.pops,
            tenant,
        });
    }

    /// Jobs queued for `tenant` right now — the submission door's quota
    /// check reads this.
    pub(crate) fn tenant_queued(&self, tenant: &str) -> usize {
        match self.tenant_index.get(tenant) {
            Some(&id) => self.entries.iter().filter(|e| e.tenant == id).count(),
            None => 0,
        }
    }

    /// Dequeues the next job. With uniform weights: the job with the
    /// highest effective priority (base + aging boost), ties by submission
    /// order — exactly the PR 5 scan. With asymmetric weights: the
    /// backlogged tenant with the smallest virtual start tag (ties by
    /// effective priority, then submission order), then that tenant's
    /// highest-effective-priority job. Advances the aging clock either
    /// way.
    pub(crate) fn pop(&mut self) -> Option<usize> {
        let pops = self.pops;
        let aging = self.aging;
        let effective = |e: &Entry| {
            u64::from(e.priority).saturating_add(aging.saturating_mul(pops - e.enqueued_at))
        };
        let best = if self.uniform {
            // max_by prefers later elements on ties, so compare the reversed
            // seq to make the *earliest* submission win.
            self.entries
                .iter()
                .enumerate()
                .max_by_key(|(_, e)| (effective(e), std::cmp::Reverse(e.seq)))?
                .0
        } else {
            // Head job per backlogged tenant: the within-tenant winner.
            let mut heads: Vec<Option<usize>> = vec![None; self.tenants.len()];
            for (at, entry) in self.entries.iter().enumerate() {
                let slot = &mut heads[entry.tenant];
                *slot = Some(match *slot {
                    None => at,
                    Some(head) => {
                        let (h, e) = (&self.entries[head], entry);
                        if (effective(e), std::cmp::Reverse(e.seq))
                            > (effective(h), std::cmp::Reverse(h.seq))
                        {
                            at
                        } else {
                            head
                        }
                    }
                });
            }
            // WFQ across tenants: smallest start tag wins; an idle spell
            // never accrues credit because the tag is clamped to v_sys.
            let (at, start) = heads
                .iter()
                .enumerate()
                .filter_map(|(tenant, head)| head.map(|at| (tenant, at)))
                .map(|(tenant, at)| {
                    let start = self.tenants[tenant].finish_tag.max(self.v_sys);
                    let e = &self.entries[at];
                    (at, start, std::cmp::Reverse(effective(e)), e.seq)
                })
                .min_by_key(|&(_, start, rev_eff, seq)| (start, rev_eff, seq))
                .map(|(at, start, _, _)| (at, start))?;
            let tenant = &mut self.tenants[self.entries[at].tenant];
            self.v_sys = start;
            tenant.finish_tag = start + VT_SCALE / tenant.weight;
            at
        };
        self.pops += 1;
        Some(self.entries.swap_remove(best).job)
    }

    /// Number of jobs still queued.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the queue empty?
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured weight of `tenant` (1 when unlisted).
    fn tenant_weight(&self, tenant: &str) -> u64 {
        self.weights.get(tenant).copied().unwrap_or(1).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut PriorityQueue) -> Vec<usize> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn equal_priorities_are_fifo() {
        let mut q = PriorityQueue::new(1);
        for i in 0..5 {
            q.push(i, 7);
        }
        assert_eq!(drain(&mut q), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn higher_priority_runs_first_ties_by_submission() {
        let mut q = PriorityQueue::new(0);
        q.push(0, 1);
        q.push(1, 9);
        q.push(2, 5);
        q.push(3, 9);
        assert_eq!(drain(&mut q), vec![1, 3, 2, 0]);
    }

    #[test]
    fn aging_prevents_starvation_by_newcomers() {
        // A background job at priority 0, then a stream of priority-10
        // newcomers. Without aging the background job would wait forever;
        // with aging 2 its effective priority passes 10 after 6 pops.
        let mut q = PriorityQueue::new(2);
        q.push(0, 0);
        let mut order = Vec::new();
        for i in 1..=8 {
            q.push(i, 10);
            order.push(q.pop().unwrap());
        }
        assert!(order.contains(&0), "job 0 starved by newcomers: {order:?}");
        // And the no-aging control really does starve it.
        let mut q = PriorityQueue::new(0);
        q.push(0, 0);
        let mut order = Vec::new();
        for i in 1..=8 {
            q.push(i, 10);
            order.push(q.pop().unwrap());
        }
        assert!(!order.contains(&0), "aging 0 must be strict priority");
    }

    #[test]
    fn aging_never_reorders_already_queued_jobs() {
        // Jobs queued together age together: relative order is pure
        // (priority, submission) however many pops pass.
        let mut q = PriorityQueue::new(5);
        q.push(0, 3);
        q.push(1, 8);
        q.push(2, 3);
        q.push(3, 0);
        assert_eq!(drain(&mut q), vec![1, 0, 2, 3]);
    }

    #[test]
    fn len_and_empty_track_contents() {
        let mut q = PriorityQueue::new(1);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        q.push(4, 1);
        q.push(9, 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(9));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some(4));
        assert!(q.is_empty());
    }

    /// ISSUE 8 regression pin: with every weight at the default (or no
    /// weights configured at all) the WFQ level is the identity — any
    /// multi-tenant workload pops in **exactly** the PR 5 priority+aging
    /// order, interleaved pushes and all. (The tests above pin the
    /// single-tenant shape; this one pins that *tenant boundaries alone*
    /// change nothing.)
    #[test]
    fn equal_weights_reproduce_priority_aging_exactly() {
        // Reference: the old single-level queue (anonymous tenant).
        let mut reference = PriorityQueue::new(2);
        // Candidate: same jobs, spread over four named tenants, with an
        // explicitly configured all-ones weight table.
        let weights = vec![("a".to_string(), 1), ("b".to_string(), 1)];
        let mut wfq = PriorityQueue::with_weights(2, &weights);
        let jobs: &[(usize, u32, &str)] = &[
            (0, 3, "a"),
            (1, 9, "b"),
            (2, 3, "a"),
            (3, 0, "c"),
            (4, 9, "d"),
            (5, 1, "a"),
        ];
        let mut order_ref = Vec::new();
        let mut order_wfq = Vec::new();
        // Interleave pushes and pops to exercise aging clocks too.
        for (round, &(job, priority, tenant)) in jobs.iter().enumerate() {
            reference.push(job, priority);
            wfq.push_tenant(job, priority, tenant);
            if round % 2 == 1 {
                order_ref.push(reference.pop().unwrap());
                order_wfq.push(wfq.pop().unwrap());
            }
        }
        order_ref.extend(drain(&mut reference));
        order_wfq.extend(drain(&mut wfq));
        assert_eq!(
            order_wfq, order_ref,
            "equal weights must be bit-for-bit priority+aging"
        );
    }

    /// A weight-3 tenant gets three scheduling decisions for every one of
    /// a weight-1 tenant while both are backlogged — and the light tenant
    /// is never starved.
    #[test]
    fn weighted_tenant_gets_proportional_share() {
        let weights = vec![("heavy".to_string(), 3)];
        let mut q = PriorityQueue::with_weights(0, &weights);
        for i in 0..8 {
            q.push_tenant(i, 0, "heavy");
        }
        for i in 8..16 {
            q.push_tenant(i, 0, "light");
        }
        let order = drain(&mut q);
        // In any window covering the first 8 decisions, heavy holds a 3:1
        // share (6 of the first 8).
        let heavy_in_first_8 = order[..8].iter().filter(|&&j| j < 8).count();
        assert_eq!(heavy_in_first_8, 6, "order: {order:?}");
        // Light still runs regularly — no starvation.
        assert!(order[..4].iter().any(|&j| j >= 8), "order: {order:?}");
        // Everything eventually drains.
        assert_eq!(order.len(), 16);
    }

    /// An idle tenant accrues no credit: arriving late, it competes from
    /// the current system virtual time, not from zero — it cannot seize
    /// the scheduler for a burst proportional to its idle time.
    #[test]
    fn idle_tenant_cannot_hoard_credit() {
        let weights = vec![("busy".to_string(), 2)];
        let mut q = PriorityQueue::with_weights(0, &weights);
        for i in 0..6 {
            q.push_tenant(i, 0, "busy");
        }
        // Drain half the busy backlog first: v_sys advances.
        let mut order = Vec::new();
        for _ in 0..3 {
            order.push(q.pop().unwrap());
        }
        // A newcomer tenant with a large backlog joins now.
        for i in 6..12 {
            q.push_tenant(i, 0, "late");
        }
        order.extend(drain(&mut q));
        // The newcomer must not run its whole backlog back-to-back: busy
        // (weight 2) keeps at least its share in the next 6 decisions.
        let busy_after_join = order[3..9].iter().filter(|&&j| j < 6).count();
        assert!(
            busy_after_join >= 2,
            "late tenant seized the scheduler: {order:?}"
        );
        assert_eq!(order.len(), 12);
    }

    /// Deterministic tie-breaking across tenants: equal start tags fall
    /// back to effective priority, then submission order.
    #[test]
    fn wfq_ties_break_by_priority_then_submission() {
        let weights = vec![("x".to_string(), 2), ("y".to_string(), 2)];
        let mut q = PriorityQueue::with_weights(0, &weights);
        q.push_tenant(0, 1, "x");
        q.push_tenant(1, 9, "y");
        q.push_tenant(2, 9, "z");
        // All three tenants start at tag 0: priority 9 wins, earliest
        // submission first.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(0));
    }

    /// ISSUE 10 satellite pin: a weight table naming a tenant that never
    /// submits is inert, and a tenant the table doesn't know — whether it
    /// was present at config load or appears only later — competes at
    /// weight 1. Pops are compared against a queue configured without
    /// the ghost entry, so the fallback is pinned as an exact identity,
    /// not just "didn't crash".
    #[test]
    fn unknown_and_late_tenants_fall_back_to_weight_one() {
        let with_ghost = vec![("ghost".to_string(), 9), ("vip".to_string(), 2)];
        let without_ghost = vec![("vip".to_string(), 2)];
        let mut haunted = PriorityQueue::with_weights(0, &with_ghost);
        let mut plain = PriorityQueue::with_weights(0, &without_ghost);
        assert_eq!(haunted.tenant_weight("ghost"), 9);
        assert_eq!(haunted.tenant_weight("vip"), 2);
        assert_eq!(haunted.tenant_weight("never-configured"), 1);

        // vip is configured; "late" first appears after config load and
        // must run at weight 1 — a 2:1 share while both are backlogged.
        for q in [&mut haunted, &mut plain] {
            for i in 0..6 {
                q.push_tenant(i, 0, "vip");
            }
            for i in 6..12 {
                q.push_tenant(i, 0, "late");
            }
        }
        let order = drain(&mut haunted);
        let vip_in_first_6 = order[..6].iter().filter(|&&j| j < 6).count();
        assert_eq!(
            vip_in_first_6, 4,
            "vip (weight 2) vs late (fallback 1) must split 2:1: {order:?}"
        );
        assert_eq!(
            order,
            drain(&mut plain),
            "a ghost weight entry must change nothing"
        );
        assert_eq!(order.len(), 12, "late tenant fully drains");
    }

    #[test]
    fn tenant_queued_counts_only_that_tenant() {
        let mut q = PriorityQueue::new(1);
        q.push_tenant(0, 0, "a");
        q.push_tenant(1, 0, "a");
        q.push_tenant(2, 0, "b");
        assert_eq!(q.tenant_queued("a"), 2);
        assert_eq!(q.tenant_queued("b"), 1);
        assert_eq!(q.tenant_queued("ghost"), 0);
        q.pop();
        assert_eq!(q.tenant_queued("a") + q.tenant_queued("b"), 2);
    }
}
