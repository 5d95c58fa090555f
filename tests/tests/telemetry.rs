//! The telemetry plane's hard invariant: observing an audit must not
//! change it. With telemetry on or off, every field of every [`JobReport`]
//! except the wall-clock measurements (`wall_ms`, `phases_ms`) is
//! byte-identical — across all five audit drivers. Plus the plane's own
//! mechanics: log-scale histogram bucket boundaries, trace-ring wraparound
//! with monotone sequence numbers, and `/events?since=` resumption across
//! a wrap over a real socket.

use coverage_core::prelude::*;
use coverage_service::http::{http_request, HttpServer};
use coverage_service::{
    AuditDaemon, AuditKind, AuditService, JobSpec, JobStatus, ServiceConfig, Telemetry,
};
use crowd_sim::{MTurkSim, PoolConfig, QualityControl, WorkerPool};
use dataset_sim::{binary_dataset, Placement};
use integration_tests::female;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Serialize, Value};

fn dataset(seed: u64) -> dataset_sim::Dataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    binary_dataset(900, 70, Placement::Shuffled, &mut rng)
}

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

/// One job per audit driver, so the identity claim covers every algorithm.
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
            pool[..250].to_vec(),
            AuditKind::BaseCoverage { target: female() },
        )
        .tau(tau.min(20))
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
                predicted: pool[..120].to_vec(),
            },
        )
        .tau(tau)
        .seed(5),
    ]
}

/// Serializes a report with the fields that telemetry is *allowed* to
/// differ on dropped. `wall_ms`/`phases_ms` are wall-clock measurements
/// and always excluded. With more than one worker, `crowd_tasks` and
/// `reuse` are additionally schedule-dependent (which questions the shared
/// store answers from facts depends on arrival order — see
/// `service_concurrency`), so the single-worker property pins them and the
/// multi-worker property does not.
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

fn run(seed: u64, tau: usize, workers: usize, telemetry: bool) -> Vec<String> {
    let data = dataset(seed);
    let mut service = AuditService::new(ServiceConfig {
        workers,
        telemetry,
        ..ServiceConfig::default()
    });
    for spec in workload(&data, tau) {
        service.submit(spec);
    }
    let (report, _) = service.run(platform(&data, seed));
    report
        .jobs
        .iter()
        .map(|job| normalized(job, workers))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The read-only invariant, pinned as a property: for any seed and τ,
    /// running the five-driver workload with telemetry on yields
    /// byte-identical reports (modulo wall-clock fields) to running it
    /// with telemetry off. Single worker, so *every* remaining field —
    /// including the shared-store reuse accounting — must match.
    #[test]
    fn telemetry_never_changes_reports(
        seed in 0u64..1000,
        tau in 5usize..60,
    ) {
        let with = run(seed, tau, 1, true);
        let without = run(seed, tau, 1, false);
        prop_assert_eq!(with.len(), without.len());
        for (on, off) in with.iter().zip(&without) {
            prop_assert_eq!(on, off);
        }
    }

    /// Under real concurrency the schedule-independent fields (status,
    /// outcome, ledger, error) still cannot feel the telemetry plane.
    #[test]
    fn telemetry_never_changes_outcomes_concurrently(
        seed in 0u64..1000,
        tau in 5usize..60,
        workers in 2usize..4,
    ) {
        let with = run(seed, tau, workers, true);
        let without = run(seed, tau, workers, false);
        prop_assert_eq!(with.len(), without.len());
        for (on, off) in with.iter().zip(&without) {
            prop_assert_eq!(on, off);
        }
    }
}

/// Histogram boundaries are powers of two: a value of exactly 2^k lands in
/// the `le=2^k` bucket, and the percentile reports that bucket's upper
/// bound (exact max for the overflow bucket).
#[test]
fn histogram_boundaries_via_public_surface() {
    let telemetry = Telemetry::new(16);
    for v in [1, 2, 3, 4, 5, 1024, 1025] {
        telemetry.record_queue_wait_ms(v);
    }
    let rendered = telemetry.render_prometheus();
    // 1 → le=1; 2 → le=2; 3,4 → le=4; 5 → le=8 (cumulative counts).
    assert!(
        rendered.contains("audit_queue_wait_ms_bucket{le=\"1\"} 1"),
        "{rendered}"
    );
    assert!(
        rendered.contains("audit_queue_wait_ms_bucket{le=\"2\"} 2"),
        "{rendered}"
    );
    assert!(
        rendered.contains("audit_queue_wait_ms_bucket{le=\"4\"} 4"),
        "{rendered}"
    );
    assert!(
        rendered.contains("audit_queue_wait_ms_bucket{le=\"8\"} 5"),
        "{rendered}"
    );
    assert!(
        rendered.contains("audit_queue_wait_ms_bucket{le=\"1024\"} 6"),
        "{rendered}"
    );
    assert!(
        rendered.contains("audit_queue_wait_ms_bucket{le=\"2048\"} 7"),
        "{rendered}"
    );
    // p50 of the seven samples sits in the le=4 bucket; p100 in le=2048.
    assert_eq!(telemetry.queue_wait_percentile_ms(50.0), 4);
    assert_eq!(telemetry.queue_wait_percentile_ms(100.0), 2048);
}

/// Overflowing the trace ring keeps sequence numbers monotone and evicts
/// strictly oldest-first.
#[test]
fn ring_wraparound_is_monotone_and_oldest_first() {
    let telemetry = Telemetry::new(8);
    for i in 0..30u64 {
        telemetry.trace(Some(i), "tick", || format!("event {i}"));
    }
    let (events, next) = telemetry.events_since(0);
    assert_eq!(events.len(), 8, "ring holds exactly its capacity");
    assert_eq!(next, 30);
    let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, (22..30).collect::<Vec<u64>>());
    // A cursor inside the surviving window resumes exactly there.
    let (tail, _) = telemetry.events_since(27);
    assert_eq!(tail.len(), 3);
    assert_eq!(tail[0].seq, 27);
}

/// `/events?since=` resumption across a wrap, over a real socket: a slow
/// consumer that slept through a wrap resumes at the oldest surviving
/// event — a visible gap in `seq`, never a duplicate or an out-of-order
/// delivery.
#[test]
fn events_endpoint_resumes_across_wrap() {
    let data = dataset(7);
    let truth = std::sync::Arc::new(VecGroundTruth::new(
        (0..200)
            .map(|i| Labels::single(u8::from(i % 5 == 0)))
            .collect(),
    ));
    drop(data);
    let daemon = std::sync::Arc::new(AuditDaemon::start(
        ServiceConfig {
            workers: 1,
            trace_capacity: 16,
            ..ServiceConfig::default()
        },
        SharedTruthSource::new(std::sync::Arc::clone(&truth)),
    ));
    let server = HttpServer::serve("127.0.0.1:0", std::sync::Arc::clone(&daemon)).unwrap();
    let addr = server.local_addr();

    // Take the cursor while the ring is young…
    let (_, first) = http_request(addr, "GET", "/events?since=0", None).unwrap();
    let stale: u64 = cursor_of(&first);

    // …then push enough jobs through to wrap the 16-slot ring many times.
    for i in 0..12 {
        let spec = JobSpec::new(
            format!("wrap/{i}"),
            truth.all_ids(),
            AuditKind::GroupCoverage {
                target: Target::group(Pattern::parse("1").unwrap()),
            },
        )
        .tau(5);
        let body = serde_json::to_string(&spec).unwrap();
        let (code, reply) = http_request(addr, "POST", "/jobs", Some(&body)).unwrap();
        assert_eq!(code, 201, "{reply}");
    }
    daemon.drain();

    // Resuming from the stale cursor is clamped to the oldest survivor:
    // exactly the ring's capacity worth of events, monotone seq.
    let (code, reply) = http_request(addr, "GET", &format!("/events?since={stale}"), None).unwrap();
    assert_eq!(code, 200);
    let events = daemon.telemetry().events_since(stale).0;
    assert_eq!(events.len(), 16, "only the surviving window is served");
    assert!(
        events.windows(2).all(|w| w[1].seq == w[0].seq + 1),
        "seq must be strictly monotone after the wrap"
    );
    assert!(events[0].seq >= stale, "no pre-cursor replays");
    let next = cursor_of(&reply);
    // The cursor converges: reading from `next` returns nothing new.
    let (_, tail) = http_request(addr, "GET", &format!("/events?since={next}"), None).unwrap();
    assert!(tail.contains("\"events\": []"), "{tail}");

    // Every job that ran still has a terminal status; tracing never
    // interfered with execution.
    for i in 0..12u64 {
        let status = daemon.status(coverage_service::JobId(i)).unwrap();
        assert_eq!(status, JobStatus::Done, "job {i}");
    }

    server.shutdown();
    daemon.shutdown().unwrap();
}

/// Pulls the `"next"` cursor out of a pretty-printed `/events` reply.
fn cursor_of(reply: &str) -> u64 {
    let tail = reply.split("\"next\": ").nth(1).unwrap();
    tail[..tail.find(',').unwrap()].trim().parse().unwrap()
}
