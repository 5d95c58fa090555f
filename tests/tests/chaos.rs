//! The chaos plane's hard invariant: under any transient fault schedule
//! that eventually permits success, the service's reports are
//! byte-identical (modulo wall-clock fields) to a fault-free run, and the
//! platform is consulted — and therefore charges — exactly as often.
//! Permanent faults must surface as typed dead letters
//! (`Failed { retries_exhausted: true }`) in bounded time, and an open
//! circuit breaker must be visible on the readiness surface without
//! taking the whole daemon out of rotation.

use coverage_core::prelude::*;
use coverage_service::{AuditDaemon, AuditKind, AuditService, JobSpec, JobStatus, ServiceConfig};
use crowd_sim::{
    FaultInjector, FaultPlan, FaultStats, MTurkSim, PlatformStats, PoolConfig, QualityControl,
    WorkerPool,
};
use dataset_sim::{binary_dataset, Placement};
use integration_tests::female;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Serialize, Value};
use std::time::{Duration, Instant};

fn dataset(seed: u64) -> dataset_sim::Dataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    binary_dataset(400, 40, Placement::Shuffled, &mut rng)
}

/// The platform under test is seeded `PerQuestion`, so a retried question
/// returns exactly the answer it would have returned the first time —
/// the property that makes byte-identity under chaos provable at all.
fn platform(data: &dataset_sim::Dataset, seed: u64) -> MTurkSim<'_, dataset_sim::Dataset> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let workers = WorkerPool::generate(&PoolConfig::default(), &mut rng);
    MTurkSim::new_deterministic(
        data,
        AttributeSchema::single_binary("attr", "majority", "minority"),
        workers,
        QualityControl::with_rating(),
        seed,
    )
}

/// One job per audit driver, so the equivalence claim covers every
/// algorithm (names carry distinct tenants to exercise per-tenant
/// breaker and retry accounting).
fn workload(data: &dataset_sim::Dataset, tau: usize) -> Vec<JobSpec> {
    let pool = data.all_ids();
    let schema = AttributeSchema::single_binary("attr", "majority", "minority");
    let male = female().negated();
    vec![
        JobSpec::new(
            "t/group",
            pool.clone(),
            AuditKind::GroupCoverage { target: female() },
        )
        .tau(tau)
        .seed(1),
        JobSpec::new(
            "t/base",
            pool[..150].to_vec(),
            AuditKind::BaseCoverage { target: female() },
        )
        .tau(tau.min(15))
        .seed(2),
        JobSpec::new(
            "u/multiple",
            pool.clone(),
            AuditKind::MultipleCoverage {
                groups: vec![male.patterns()[0], female().patterns()[0]],
            },
        )
        .tau(tau)
        .seed(3),
        JobSpec::new(
            "u/intersectional",
            pool.clone(),
            AuditKind::IntersectionalCoverage { schema },
        )
        .tau(tau)
        .seed(4),
        JobSpec::new(
            "v/classifier",
            pool.clone(),
            AuditKind::ClassifierCoverage {
                target: female(),
                predicted: pool[..80].to_vec(),
            },
        )
        .tau(tau)
        .seed(5),
    ]
}

/// Fast-retry service config; `max_faults` in the plans below stays at
/// `retry_max_attempts - 1`, the injector's convergence guarantee.
fn config(workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        retry_max_attempts: 3,
        retry_base_ms: 1,
        ..ServiceConfig::default()
    }
}

/// Serializes a report with the fields chaos is *allowed* to differ on
/// dropped: `wall_ms`/`phases_ms` always (retries burn real time), and
/// under real concurrency additionally `crowd_tasks`/`reuse`, which are
/// schedule-dependent (see `telemetry.rs` for the same carve-out).
fn normalized(report: &coverage_service::JobReport, workers: usize) -> String {
    let Value::Object(fields) = report.to_value() else {
        panic!("JobReport must serialize to an object");
    };
    let stripped: Vec<(String, Value)> = fields
        .into_iter()
        .filter(|(key, _)| {
            key != "wall_ms"
                && key != "phases_ms"
                && (workers == 1 || (key != "crowd_tasks" && key != "reuse"))
        })
        .collect();
    serde_json::to_string(&Value::Object(stripped)).unwrap()
}

fn run(
    seed: u64,
    tau: usize,
    workers: usize,
    plan: FaultPlan,
) -> (Vec<String>, PlatformStats, FaultStats) {
    let data = dataset(seed);
    let mut service = AuditService::new(config(workers));
    for spec in workload(&data, tau) {
        service.submit(spec);
    }
    let injector = FaultInjector::new(platform(&data, seed), plan);
    let (report, injector) = service.run(injector);
    let platform_stats = *injector.inner().stats();
    let fault_stats = injector.stats();
    (
        report
            .jobs
            .iter()
            .map(|job| normalized(job, workers))
            .collect(),
        platform_stats,
        fault_stats,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The headline invariant, pinned as a property: for any seed, τ and
    /// transient fault schedule (30 % of questions fail up to twice, some
    /// deliveries duplicated), the single-worker reports are byte-identical
    /// to the fault-free run — including the ledger and reuse accounting —
    /// and the *platform* counters match exactly: a faulted attempt never
    /// reaches the platform, a retried question is charged once.
    #[test]
    fn transient_chaos_never_changes_reports(
        seed in 0u64..1000,
        fault_seed in 1u64..1000,
        tau in 5usize..40,
    ) {
        let plan = FaultPlan {
            duplicate_pct: 20,
            ..FaultPlan::transient(fault_seed, 30, 2)
        };
        let (chaotic, platform_chaotic, faults) = run(seed, tau, 1, plan);
        let (clean, platform_clean, none) = run(seed, tau, 1, FaultPlan::off());
        prop_assert_eq!(none.total(), 0);
        prop_assert_eq!(chaotic.len(), clean.len());
        for (with, without) in chaotic.iter().zip(&clean) {
            prop_assert_eq!(with, without);
        }
        // Transient faults never dead-letter a job: every one converges.
        for job in &chaotic {
            prop_assert!(job.contains("\"status\":\"Done\""), "{}", job);
        }
        prop_assert_eq!(
            platform_chaotic, platform_clean,
            "faulted attempts must not consult (or charge) the platform; got {faults:?}"
        );
    }

    /// Under real concurrency the schedule-independent fields (status,
    /// outcome, ledger, error) still cannot feel the chaos plane.
    #[test]
    fn transient_chaos_never_changes_outcomes_concurrently(
        seed in 0u64..1000,
        fault_seed in 1u64..1000,
        tau in 5usize..40,
        workers in 2usize..4,
    ) {
        let plan = FaultPlan::transient(fault_seed, 30, 2);
        let (chaotic, _, _) = run(seed, tau, workers, plan);
        let (clean, _, _) = run(seed, tau, workers, FaultPlan::off());
        prop_assert_eq!(chaotic.len(), clean.len());
        for (with, without) in chaotic.iter().zip(&clean) {
            prop_assert_eq!(with, without);
        }
    }
}

/// A plan that targets every question does inject (the equivalence
/// properties above would pass vacuously if the injector were inert).
#[test]
fn transient_plan_actually_injects() {
    let (_, _, faults) = run(3, 10, 1, FaultPlan::transient(7, 100, 2));
    assert!(faults.total() > 0, "full-rate plan must inject: {faults:?}");
    assert!(
        faults.timeouts + faults.platform_errors + faults.abandonments > 0,
        "transient kinds expected: {faults:?}"
    );
}

/// A platform outage (permanent faults on every question) dead-letters
/// every job as a *typed* terminal status in bounded time — no hangs, no
/// stringly-typed guesswork, and the error names the exhaustion.
#[test]
fn permanent_faults_dead_letter_every_job_in_bounded_time() {
    let data = dataset(11);
    let mut service = AuditService::new(config(2));
    for spec in workload(&data, 10) {
        service.submit(spec);
    }
    let started = Instant::now();
    let injector = FaultInjector::new(platform(&data, 11), FaultPlan::permanent(13, 100));
    let (report, injector) = service.run(injector);
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "dead-lettering must be bounded, took {:?}",
        started.elapsed()
    );
    assert_eq!(report.jobs.len(), 5);
    for job in &report.jobs {
        assert_eq!(
            job.status,
            JobStatus::Failed {
                retries_exhausted: true
            },
            "job `{}` must dead-letter: {:?}",
            job.name,
            job.error
        );
        let error = job.error.as_deref().unwrap_or_default();
        assert!(
            error.contains("retries exhausted"),
            "job `{}`: error must name the exhaustion, got {error:?}",
            job.name
        );
    }
    assert_eq!(
        injector.inner().stats().hits_published,
        0,
        "a permanent outage serves nothing, so nothing may be charged"
    );
}

/// The breaker integration, end to end through the daemon: a permanently
/// failing tenant trips its breaker, the readiness surface reports the
/// open state (without flipping `ready` — one starved tenant is not a
/// dead service), and the telemetry plane carries the retry/fault/breaker
/// counter families.
#[test]
fn open_breaker_is_visible_on_readiness_and_metrics() {
    let truth = std::sync::Arc::new(VecGroundTruth::new(
        (0..120)
            .map(|i| Labels::single(u8::from(i % 4 == 0)))
            .collect(),
    ));
    let source = FaultInjector::new(
        SharedTruthSource::new(std::sync::Arc::clone(&truth)),
        FaultPlan::permanent(5, 100),
    );
    let daemon = AuditDaemon::start(
        ServiceConfig {
            workers: 1,
            retry_max_attempts: 2,
            retry_base_ms: 1,
            breaker_threshold: 1,
            ..ServiceConfig::default()
        },
        source,
    );
    let id = daemon
        .submit(
            JobSpec::new(
                "noisy/outage",
                truth.all_ids(),
                AuditKind::GroupCoverage {
                    target: Target::group(Pattern::parse("1").unwrap()),
                },
            )
            .tau(5),
        )
        .unwrap();
    daemon.drain();

    assert_eq!(
        daemon.status(id).unwrap(),
        JobStatus::Failed {
            retries_exhausted: true
        }
    );
    let readiness = daemon.readiness();
    assert!(
        readiness.ready,
        "an open breaker starves one tenant, not the daemon: {readiness:?}"
    );
    assert!(readiness.dispatcher_alive);
    assert!(readiness.persistence_healthy);
    assert!(
        readiness
            .breakers
            .iter()
            .any(|b| b.tenant == "noisy" && b.state == "open"),
        "tripped breaker must be visible: {:?}",
        readiness.breakers
    );

    let rendered = daemon.telemetry().render_prometheus();
    assert!(
        rendered.contains("audit_faults_injected_total{kind="),
        "{rendered}"
    );
    assert!(
        rendered.contains("audit_breaker_state{tenant=\"noisy\"} 2"),
        "{rendered}"
    );
    assert!(
        rendered.contains("audit_retries_total{tenant=\"noisy\"}"),
        "{rendered}"
    );
    daemon.shutdown().unwrap();
}

/// Low fault rates, pinned deterministically: at 0, 1, 5 and 20 % transient
/// faults on one worker every job converges, and the platform is consulted
/// exactly as often as in the fault-free run — chaos never buys extra
/// crowd work.
#[test]
fn crowd_spend_is_flat_across_fault_rates() {
    let (clean, platform_clean, _) = run(11, 20, 1, FaultPlan::off());
    for rate in [1, 5, 20] {
        let (chaotic, platform_chaotic, faults) = run(11, 20, 1, FaultPlan::transient(7, rate, 2));
        assert!(faults.total() > 0, "no fault injected at {rate}%");
        for job in &chaotic {
            assert!(job.contains("\"status\":\"Done\""), "at {rate}%: {job}");
        }
        assert_eq!(chaotic, clean, "reports changed at {rate}% faults");
        assert_eq!(
            platform_chaotic, platform_clean,
            "platform spend changed at {rate}% faults"
        );
    }
}
