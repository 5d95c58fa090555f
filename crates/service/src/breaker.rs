//! Per-tenant circuit breakers for the resilient dispatch path.
//!
//! A tenant whose questions keep failing *after* the dispatcher's bounded
//! retries is burning platform capacity (and money) on a flow that is not
//! recovering. The breaker cuts that flow off early: it counts
//! **consecutive retry-exhausted questions** per tenant — a question that
//! eventually succeeds, however many retries it took, resets the count to
//! zero — and once the count crosses the configured threshold the tenant's
//! circuit opens. While open, the tenant's questions fail fast without
//! touching the platform; after a cooldown the breaker admits one
//! half-open probe, and that probe's outcome decides between closing the
//! circuit and re-opening it for another cooldown.
//!
//! Because only *exhausted* questions count, a transient-fault schedule
//! that eventually permits every question to succeed never moves a breaker
//! off `Closed` — which is exactly what keeps fault-injected runs
//! byte-identical to fault-free ones.

use crate::service::lock;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Where one tenant's circuit stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: questions flow to the platform.
    Closed,
    /// Tripped: questions fail fast until the cooldown elapses.
    Open,
    /// Cooling down: one probe question is allowed through; its outcome
    /// closes or re-opens the circuit.
    HalfOpen,
}

impl BreakerState {
    /// Stable label for telemetry and the `/readyz` body.
    pub fn label(self) -> &'static str {
        match self {
            Self::Closed => "closed",
            Self::Open => "open",
            Self::HalfOpen => "half_open",
        }
    }

    /// Numeric encoding for the `audit_breaker_state` gauge
    /// (0 = closed, 1 = half-open, 2 = open).
    pub fn gauge(self) -> u64 {
        match self {
            Self::Closed => 0,
            Self::HalfOpen => 1,
            Self::Open => 2,
        }
    }
}

/// One tenant's circuit breaker. Deterministic and clock-injectable: every
/// transition method takes `now`, so tests drive time explicitly.
#[derive(Debug)]
pub struct Breaker {
    threshold: u32,
    cooldown: Duration,
    state: BreakerState,
    consecutive_exhausted: u32,
    opened_at: Option<Instant>,
}

impl Breaker {
    /// A closed breaker that opens after `threshold` consecutive
    /// retry-exhausted questions and cools down for `cooldown` before the
    /// half-open probe. `threshold == 0` disables the breaker entirely —
    /// it never leaves `Closed`.
    pub fn new(threshold: u32, cooldown: Duration) -> Self {
        Self {
            threshold,
            cooldown,
            state: BreakerState::Closed,
            consecutive_exhausted: 0,
            opened_at: None,
        }
    }

    /// The current state, advancing `Open → HalfOpen` if the cooldown has
    /// elapsed by `now`.
    pub fn state_at(&mut self, now: Instant) -> BreakerState {
        if self.state == BreakerState::Open {
            if let Some(opened) = self.opened_at {
                if now.duration_since(opened) >= self.cooldown {
                    self.state = BreakerState::HalfOpen;
                }
            }
        }
        self.state
    }

    /// May a question from this tenant reach the platform at `now`?
    /// `Closed` always admits; `Open` refuses until the cooldown elapses;
    /// `HalfOpen` admits the probe.
    pub fn admit_at(&mut self, now: Instant) -> bool {
        self.state_at(now) != BreakerState::Open
    }

    /// A question (including a half-open probe) ultimately succeeded:
    /// the circuit closes and the failure streak resets.
    pub fn record_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_exhausted = 0;
        self.opened_at = None;
    }

    /// A question exhausted its retries at `now`. A failed half-open probe
    /// re-opens immediately; a closed breaker opens once the streak
    /// reaches the threshold.
    pub fn record_exhausted_at(&mut self, now: Instant) {
        if self.threshold == 0 {
            return;
        }
        self.consecutive_exhausted = self.consecutive_exhausted.saturating_add(1);
        match self.state {
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open;
                self.opened_at = Some(now);
            }
            BreakerState::Closed => {
                if self.consecutive_exhausted >= self.threshold {
                    self.state = BreakerState::Open;
                    self.opened_at = Some(now);
                }
            }
            BreakerState::Open => {}
        }
    }
}

/// How long an open breaker fails its tenant's questions fast before it
/// admits a half-open probe.
pub(crate) const BREAKER_COOLDOWN: Duration = Duration::from_millis(500);

/// The shared per-tenant breaker map: the dispatcher records outcomes,
/// the daemon reads states for `/readyz` and the breaker-state gauges.
/// Cloning shares the registry.
#[derive(Debug, Clone)]
pub struct BreakerRegistry {
    inner: Arc<Mutex<Registry>>,
}

#[derive(Debug)]
struct Registry {
    threshold: u32,
    cooldown: Duration,
    tenants: HashMap<String, Breaker>,
}

impl BreakerRegistry {
    /// A registry whose breakers open after `threshold` consecutive
    /// exhausted questions and cool down for `cooldown`. `threshold == 0`
    /// disables circuit breaking for every tenant.
    pub fn new(threshold: u32, cooldown: Duration) -> Self {
        Self {
            inner: Arc::new(Mutex::new(Registry {
                threshold,
                cooldown,
                tenants: HashMap::new(),
            })),
        }
    }

    /// May `tenant` send a question right now? Tenants without history are
    /// always admitted (their breaker is created closed on first record).
    pub fn admit(&self, tenant: &str) -> bool {
        let mut reg = lock(&self.inner);
        if reg.threshold == 0 {
            return true;
        }
        let now = Instant::now();
        match reg.tenants.get_mut(tenant) {
            Some(breaker) => breaker.admit_at(now),
            None => true,
        }
    }

    /// Records that one of `tenant`'s questions ultimately succeeded.
    pub fn record_success(&self, tenant: &str) {
        let mut reg = lock(&self.inner);
        if reg.threshold == 0 {
            return;
        }
        if let Some(breaker) = reg.tenants.get_mut(tenant) {
            breaker.record_success();
        }
    }

    /// Records that one of `tenant`'s questions exhausted its retries;
    /// returns the tenant's state after the record.
    pub fn record_exhausted(&self, tenant: &str) -> BreakerState {
        let mut reg = lock(&self.inner);
        let (threshold, cooldown) = (reg.threshold, reg.cooldown);
        let now = Instant::now();
        let breaker = reg
            .tenants
            .entry(tenant.to_string())
            .or_insert_with(|| Breaker::new(threshold, cooldown));
        breaker.record_exhausted_at(now);
        breaker.state_at(now)
    }

    /// Every tenant with breaker history and its current state, sorted by
    /// tenant for stable rendering.
    pub fn states(&self) -> Vec<(String, BreakerState)> {
        let mut reg = lock(&self.inner);
        let now = Instant::now();
        let mut out: Vec<(String, BreakerState)> = reg
            .tenants
            .iter_mut()
            .map(|(tenant, breaker)| (tenant.clone(), breaker.state_at(now)))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The tenants whose circuit is currently open (not half-open).
    pub fn open_tenants(&self) -> Vec<String> {
        self.states()
            .into_iter()
            .filter(|(_, state)| *state == BreakerState::Open)
            .map(|(tenant, _)| tenant)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_until_threshold_consecutive_failures() {
        let mut b = Breaker::new(3, Duration::from_millis(50));
        let now = Instant::now();
        b.record_exhausted_at(now);
        b.record_exhausted_at(now);
        assert_eq!(b.state_at(now), BreakerState::Closed);
        assert!(b.admit_at(now));
        b.record_exhausted_at(now);
        assert_eq!(b.state_at(now), BreakerState::Open);
        assert!(!b.admit_at(now));
    }

    #[test]
    fn a_success_resets_the_streak() {
        let mut b = Breaker::new(2, Duration::from_millis(50));
        let now = Instant::now();
        b.record_exhausted_at(now);
        b.record_success();
        b.record_exhausted_at(now);
        assert_eq!(
            b.state_at(now),
            BreakerState::Closed,
            "interleaved successes keep the circuit closed"
        );
    }

    #[test]
    fn half_open_probe_closes_or_reopens() {
        let cooldown = Duration::from_millis(40);
        let mut b = Breaker::new(1, cooldown);
        let t0 = Instant::now();
        b.record_exhausted_at(t0);
        assert!(!b.admit_at(t0), "freshly opened refuses");
        assert!(!b.admit_at(t0 + cooldown / 2), "still cooling down");
        let t1 = t0 + cooldown;
        assert!(b.admit_at(t1), "cooldown elapsed: one probe admitted");
        assert_eq!(b.state_at(t1), BreakerState::HalfOpen);
        // Probe fails: straight back to Open with a fresh cooldown.
        b.record_exhausted_at(t1);
        assert_eq!(b.state_at(t1), BreakerState::Open);
        assert!(!b.admit_at(t1 + cooldown / 2));
        // Next probe succeeds: fully closed again.
        let t2 = t1 + cooldown;
        assert!(b.admit_at(t2));
        b.record_success();
        assert_eq!(b.state_at(t2), BreakerState::Closed);
        assert!(b.admit_at(t2));
    }

    #[test]
    fn zero_threshold_disables_the_breaker() {
        let mut b = Breaker::new(0, Duration::ZERO);
        let now = Instant::now();
        for _ in 0..100 {
            b.record_exhausted_at(now);
        }
        assert_eq!(b.state_at(now), BreakerState::Closed);
    }

    #[test]
    fn registry_isolates_tenants() {
        let reg = BreakerRegistry::new(2, Duration::from_secs(60));
        reg.record_exhausted("noisy");
        reg.record_exhausted("noisy");
        assert!(!reg.admit("noisy"), "noisy tenant tripped its breaker");
        assert!(reg.admit("quiet"), "other tenants are unaffected");
        assert_eq!(reg.open_tenants(), vec!["noisy".to_string()]);
        let states = reg.states();
        assert_eq!(states.len(), 1);
        assert_eq!(states[0].1, BreakerState::Open);
    }
}
