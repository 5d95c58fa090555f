//! Concurrency correctness for `coverage-service`: N jobs multiplexed
//! through the shared cache and batching dispatcher must produce
//! byte-identical outcomes and identical per-job ledgers no matter how many
//! worker threads run them — the `MTurkSim` per-question seed mode makes
//! crowd answers a pure function of the question, so scheduling order can
//! not leak into results.

use coverage_core::prelude::*;
use coverage_service::{
    AuditKind, AuditOutcome, AuditService, BudgetScope, JobSpec, JobStatus, ServiceConfig,
    ServiceReport,
};
use crowd_sim::{MTurkSim, PoolConfig, QualityControl, WorkerPool};
use dataset_sim::{binary_dataset, Placement};
use integration_tests::female;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Duration;

const SEED: u64 = 424_242;

fn dataset() -> dataset_sim::Dataset {
    let mut rng = SmallRng::seed_from_u64(SEED);
    binary_dataset(2_500, 180, Placement::Shuffled, &mut rng)
}

fn platform(data: &dataset_sim::Dataset) -> MTurkSim<'_, dataset_sim::Dataset> {
    let mut rng = SmallRng::seed_from_u64(SEED);
    let workers = WorkerPool::generate(&PoolConfig::default(), &mut rng);
    MTurkSim::new_deterministic(
        data,
        AttributeSchema::single_binary("attr", "majority", "minority"),
        workers,
        QualityControl::with_rating(),
        SEED,
    )
}

fn workload(data: &dataset_sim::Dataset) -> Vec<JobSpec> {
    let pool = data.all_ids();
    let schema = AttributeSchema::single_binary("attr", "majority", "minority");
    let male = female().negated();
    let mut jobs = vec![
        JobSpec::new(
            "group-50",
            pool.clone(),
            AuditKind::GroupCoverage { target: female() },
        )
        .seed(1),
        JobSpec::new(
            "group-120",
            pool.clone(),
            AuditKind::GroupCoverage { target: female() },
        )
        .tau(120)
        .seed(2),
        JobSpec::new(
            "base-20",
            pool[..300].to_vec(),
            AuditKind::BaseCoverage { target: female() },
        )
        .tau(20)
        .seed(3),
        JobSpec::new(
            "multiple",
            pool.clone(),
            AuditKind::MultipleCoverage {
                groups: vec![male.patterns()[0], female().patterns()[0]],
            },
        )
        .seed(4),
        JobSpec::new(
            "intersectional",
            pool.clone(),
            AuditKind::IntersectionalCoverage { schema },
        )
        .seed(5),
        JobSpec::new(
            "classifier",
            pool.clone(),
            AuditKind::ClassifierCoverage {
                target: female(),
                predicted: pool[..150].to_vec(),
            },
        )
        .seed(6),
    ];
    // Two more tenants re-asking earlier questions: pure cache work.
    jobs.push(
        JobSpec::new(
            "group-50-again",
            pool.clone(),
            AuditKind::GroupCoverage { target: female() },
        )
        .seed(7),
    );
    jobs.push(
        JobSpec::new(
            "base-20-again",
            pool[..300].to_vec(),
            AuditKind::BaseCoverage { target: female() },
        )
        .tau(20)
        .seed(8),
    );
    jobs
}

fn run(workers: usize) -> (ServiceReport, u64) {
    let data = dataset();
    let mut service = AuditService::new(ServiceConfig {
        workers,
        ..ServiceConfig::default()
    });
    for spec in workload(&data) {
        service.submit(spec);
    }
    let (report, platform) = service.run(platform(&data));
    (report, platform.stats().hits_published)
}

/// The core correctness claim: concurrent == serial, byte for byte.
#[test]
fn concurrent_equals_serial() {
    let (serial, _) = run(1);
    let (concurrent, _) = run(8);
    assert_eq!(serial.jobs.len(), concurrent.jobs.len());
    for (s, c) in serial.jobs.iter().zip(&concurrent.jobs) {
        assert_eq!(s.status, JobStatus::Done, "{}", s.name);
        assert_eq!(c.status, JobStatus::Done, "{}", c.name);
        // Outcomes must be byte-identical once serialized.
        let s_outcome = serde_json::to_string(s.outcome.as_ref().unwrap()).unwrap();
        let c_outcome = serde_json::to_string(c.outcome.as_ref().unwrap()).unwrap();
        assert_eq!(s_outcome, c_outcome, "outcome of {} diverged", s.name);
        // Each job's logical ledger is schedule-independent.
        assert_eq!(s.ledger, c.ledger, "ledger of {} diverged", s.name);
    }
    // Therefore the summed ledgers agree too.
    assert_eq!(serial.total_logical, concurrent.total_logical);
    // *Which* questions the shared knowledge store could answer from facts
    // depends on arrival order, so the platform-side counts may differ
    // between schedules — but never the answers (asserted byte-for-byte
    // above). In store units (one question per set query, one per label),
    // every logical question is either answered from facts or forwarded,
    // and forwarding can only shrink relative to what was asked.
    for report in [&serial, &concurrent] {
        let logical_questions =
            report.total_logical.set_queries() + report.total_logical.point_labels();
        assert_eq!(
            report.reuse.questions(),
            logical_questions,
            "every logical question is disposed of exactly once"
        );
        assert_eq!(report.reuse.hits, report.cache_hits);
        assert_eq!(report.reuse.forwarded, report.cache_misses);
        assert!(report.cache_misses <= logical_questions);
        assert!(
            report.reuse.hits > 0,
            "the twin jobs must be served from shared knowledge"
        );
    }
}

/// The twin jobs exercise the shared cache: the platform publishes far
/// fewer HITs than the same workload run as isolated single-job services.
#[test]
fn shared_platform_publishes_fewer_hits() {
    let (report, shared_hits) = run(4);
    assert_eq!(report.count_status(JobStatus::Done), report.jobs.len());

    let data = dataset();
    let mut isolated_hits = 0u64;
    for spec in workload(&data) {
        let mut service = AuditService::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        service.submit(spec);
        let (_r, p) = service.run(platform(&data));
        isolated_hits += p.stats().hits_published;
    }
    assert!(
        shared_hits < isolated_hits,
        "shared platform published {shared_hits} HITs, isolated runs {isolated_hits}"
    );
    // The twin jobs alone guarantee a sizeable saving.
    assert!(
        shared_hits as f64 <= 0.9 * isolated_hits as f64,
        "saving too small: {shared_hits} vs {isolated_hits}"
    );
}

/// Serial single-job baseline: the job's outcome JSON when run alone.
fn solo_outcome(data: &dataset_sim::Dataset, spec: JobSpec) -> String {
    let mut service = AuditService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let id = service.submit(spec);
    let (report, _) = service.run(platform(data));
    let job = report.job(id).unwrap();
    assert_eq!(job.status, JobStatus::Done, "baseline must complete");
    serde_json::to_string(job.outcome.as_ref().unwrap()).unwrap()
}

/// Mid-run cancellation: the cancelled job reports `Cancelled` with a
/// partial report, while its sibling finishes byte-identical to a serial
/// run — a cancellation never leaks into other tenants' answers.
#[test]
fn mid_run_cancel_spares_siblings() {
    let data = dataset();
    let pool = data.all_ids();
    let victim_spec = JobSpec::new(
        "victim",
        pool.clone(),
        AuditKind::GroupCoverage { target: female() },
    )
    .tau(120)
    .seed(2);
    let sibling_spec = JobSpec::new(
        "sibling",
        pool[..1200].to_vec(),
        AuditKind::GroupCoverage { target: female() },
    )
    .tau(40)
    .seed(3);
    let sibling_baseline = solo_outcome(&data, sibling_spec.clone());

    // ~150 set queries through a 4 ms-per-round dispatcher give the victim
    // a wall time far past the 40 ms cancellation point.
    let mut service = AuditService::new(ServiceConfig {
        workers: 2,
        round_latency: Duration::from_millis(4),
        ..ServiceConfig::default()
    });
    let victim = service.submit(victim_spec);
    let sibling = service.submit(sibling_spec);
    let handle = service.cancel_handle();

    let report = std::thread::scope(|scope| {
        let runner = scope.spawn(|| {
            let (report, _) = service.run(platform(&data));
            report
        });
        std::thread::sleep(Duration::from_millis(40));
        assert!(handle.cancel(victim));
        runner.join().expect("service run panicked")
    });

    let cancelled = report.job(victim).unwrap();
    assert!(
        cancelled.status.is_cancelled(),
        "victim ended {:?}",
        cancelled.status
    );
    if let Some(AuditOutcome::Coverage(partial)) = cancelled.outcome.as_ref() {
        assert!(!partial.covered, "a cut run can never certify coverage");
        assert!(partial.count < 120);
    }

    let kept = report.job(sibling).unwrap();
    assert_eq!(kept.status, JobStatus::Done);
    let kept_json = serde_json::to_string(kept.outcome.as_ref().unwrap()).unwrap();
    assert_eq!(
        kept_json, sibling_baseline,
        "sibling outcome must be byte-identical to its serial run"
    );
}

/// Coalesced-waiter isolation: a budget-starved job failing its claimed
/// in-flight question must not poison a sibling asking the *identical*
/// question — the waiter re-claims, pays with its own (unlimited) budget
/// and finishes byte-identical to a serial run.
#[test]
fn exhausted_job_does_not_poison_identical_in_flight_question() {
    let data = dataset();
    let pool = data.all_ids();
    let make_spec = |name: &str| {
        JobSpec::new(
            name,
            pool.clone(),
            AuditKind::GroupCoverage { target: female() },
        )
        .tau(120)
        .seed(5)
    };
    let baseline = solo_outcome(&data, make_spec("baseline"));

    let mut service = AuditService::new(ServiceConfig {
        workers: 2,
        round_latency: Duration::from_millis(1),
        ..ServiceConfig::default()
    });
    let starved = service.submit(make_spec("starved").budget(5));
    let healthy = service.submit(make_spec("healthy"));
    let (report, _) = service.run(platform(&data));

    let starved_job = report.job(starved).unwrap();
    match starved_job.status {
        JobStatus::Exhausted { scope, cap, .. } => {
            assert_eq!(scope, BudgetScope::Job);
            assert_eq!(cap, 5);
        }
        other => panic!("starved job ended {other:?}"),
    }
    assert!(starved_job.crowd_tasks <= 5);

    let healthy_job = report.job(healthy).unwrap();
    assert_eq!(healthy_job.status, JobStatus::Done, "{}", report.to_json());
    let healthy_json = serde_json::to_string(healthy_job.outcome.as_ref().unwrap()).unwrap();
    assert_eq!(
        healthy_json, baseline,
        "healthy twin must match its serial run despite the sibling's failures"
    );
}

/// Cancelling one of two identical jobs: the survivor still completes with
/// serial-identical output even when the cancelled twin had questions in
/// flight that both jobs coalesced on.
#[test]
fn cancelled_twin_leaves_survivor_byte_identical() {
    let data = dataset();
    let pool = data.all_ids();
    let make_spec = |name: &str| {
        JobSpec::new(
            name,
            pool.clone(),
            AuditKind::GroupCoverage { target: female() },
        )
        .tau(120)
        .seed(7)
    };
    let baseline = solo_outcome(&data, make_spec("baseline"));

    let mut service = AuditService::new(ServiceConfig {
        workers: 2,
        round_latency: Duration::from_millis(2),
        ..ServiceConfig::default()
    });
    let doomed = service.submit(make_spec("doomed"));
    let survivor = service.submit(make_spec("survivor"));
    let handle = service.cancel_handle();

    let report = std::thread::scope(|scope| {
        let runner = scope.spawn(|| {
            let (report, _) = service.run(platform(&data));
            report
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(handle.cancel(doomed));
        runner.join().expect("service run panicked")
    });

    assert!(report.job(doomed).unwrap().status.is_cancelled());
    let survivor_job = report.job(survivor).unwrap();
    assert_eq!(survivor_job.status, JobStatus::Done);
    let survivor_json = serde_json::to_string(survivor_job.outcome.as_ref().unwrap()).unwrap();
    assert_eq!(survivor_json, baseline);
}

/// Outcomes routed through the service agree with auditing the ground truth
/// directly.
#[test]
fn service_verdicts_match_ground_truth() {
    let data = dataset();
    let (report, _) = run(6);
    let true_count = data.count(&female());
    for job in &report.jobs {
        match (job.name.as_str(), job.outcome.as_ref().unwrap().covered()) {
            ("group-50" | "group-50-again", Some(covered)) => {
                assert_eq!(covered, true_count >= 50, "{}", job.name)
            }
            ("group-120", Some(covered)) => assert_eq!(covered, true_count >= 120),
            ("base-20", Some(covered)) => {
                let slice_count = data.all_ids()[..300]
                    .iter()
                    .filter(|id| female().matches(&data.labels_of(**id)))
                    .count();
                assert_eq!(covered, slice_count >= 20);
            }
            _ => {}
        }
    }
}

/// Eight audits over disjoint slices of one pool share dispatch rounds but
/// no facts, so nothing a schedule decides can reach a job: run serially
/// and on eight workers, every job finishes with the same outcome, ledger
/// and crowd spend.
#[test]
fn disjoint_audits_match_across_worker_counts() {
    const JOBS: usize = 8;
    const SLICE: usize = 300;
    let mut rng = SmallRng::seed_from_u64(23);
    let data = binary_dataset(JOBS * SLICE, JOBS * 45, Placement::Shuffled, &mut rng);
    let pool = data.all_ids();
    let run = |workers: usize| -> ServiceReport {
        let mut service = AuditService::new(ServiceConfig {
            workers,
            ..ServiceConfig::default()
        });
        for (i, slice) in pool.chunks(SLICE).enumerate() {
            service.submit(
                JobSpec::new(
                    format!("slice-{i}"),
                    slice.to_vec(),
                    AuditKind::GroupCoverage { target: female() },
                )
                .tau(30)
                .n(25)
                .seed(i as u64),
            );
        }
        service.run(platform(&data)).0
    };
    let serial = run(1);
    let concurrent = run(JOBS);
    assert_eq!(serial.jobs.len(), JOBS);
    assert_eq!(concurrent.jobs.len(), JOBS);
    for (s, c) in serial.jobs.iter().zip(&concurrent.jobs) {
        assert_eq!(s.status, JobStatus::Done, "{}", s.name);
        assert_eq!(c.status, JobStatus::Done, "{}", c.name);
        assert_eq!(
            serde_json::to_string(s.outcome.as_ref().unwrap()).unwrap(),
            serde_json::to_string(c.outcome.as_ref().unwrap()).unwrap(),
            "outcome of {} diverged",
            s.name
        );
        assert_eq!(s.ledger, c.ledger, "ledger of {} diverged", s.name);
        assert!(s.crowd_tasks > 0, "{} asked the crowd nothing", s.name);
        assert_eq!(s.crowd_tasks, c.crowd_tasks, "spend of {} diverged", s.name);
    }
}
