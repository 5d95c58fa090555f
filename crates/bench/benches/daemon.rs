//! Daemon serving latency: how long does a newly submitted job wait for
//! its first result when the pool is already loaded?
//!
//! A long-lived [`AuditDaemon`] is saturated with background audits, then a
//! probe job is submitted and the **submit-to-first-result** interval is
//! measured — once at the background jobs' own priority (the probe queues
//! behind everything already waiting) and once at a higher priority (the
//! probe jumps the queue and waits only for a worker to free up). The gap
//! between the two numbers is what priority scheduling buys a paying
//! tenant, and the bench fails unless the queue-jumping probe wins.
//!
//! ```sh
//! cargo bench -q -p cvg-bench --bench daemon
//! ```
//!
//! [`AuditDaemon`]: coverage_service::AuditDaemon

use coverage_core::prelude::*;
use coverage_service::{AuditDaemon, AuditKind, JobId, JobSpec, ServiceConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 77;
const ROUND_LATENCY: Duration = Duration::from_micros(300);
const BACKGROUND_JOBS: usize = 12;
const WORKERS: usize = 2;

/// Deterministic single-attribute truth: ~6% minority.
fn truth() -> Arc<VecGroundTruth> {
    let mut state = SEED;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    Arc::new(VecGroundTruth::new(
        (0..24_000)
            .map(|_| Labels::single(u8::from(next() % 100 < 6)))
            .collect(),
    ))
}

fn female() -> Target {
    Target::group(Pattern::parse("1").unwrap())
}

/// A fresh daemon pre-loaded with `BACKGROUND_JOBS` disjoint audits.
fn loaded_daemon(
    truth: &Arc<VecGroundTruth>,
) -> (
    AuditDaemon<SharedTruthSource<VecGroundTruth>>,
    Vec<ObjectId>,
) {
    let pool = truth.all_ids();
    let daemon = AuditDaemon::start(
        ServiceConfig {
            workers: WORKERS,
            round_latency: ROUND_LATENCY,
            ..ServiceConfig::default()
        },
        SharedTruthSource::new(Arc::clone(truth)),
    );
    let slice = 20_000 / BACKGROUND_JOBS;
    for i in 0..BACKGROUND_JOBS {
        daemon
            .submit(
                JobSpec::new(
                    format!("background-{i}"),
                    pool[i * slice..(i + 1) * slice].to_vec(),
                    AuditKind::GroupCoverage { target: female() },
                )
                .tau(30)
                .seed(i as u64)
                .priority(5),
            )
            .expect("background spec is valid");
    }
    (daemon, pool)
}

/// Submits the probe at `priority` into a loaded daemon and returns the
/// submit-to-first-result latency in microseconds, plus the daemon's own
/// telemetry view of that distribution across *all* jobs of the run
/// (p50/p99 in milliseconds, from the `/metrics` histogram).
fn probe_latency_us(truth: &Arc<VecGroundTruth>, priority: u32) -> (u64, u64, u64) {
    let (daemon, pool) = loaded_daemon(truth);
    let spec = JobSpec::new(
        "probe",
        pool[20_000..].to_vec(),
        AuditKind::GroupCoverage { target: female() },
    )
    .tau(20)
    .priority(priority);
    let started = Instant::now();
    let id: JobId = daemon.submit(spec).expect("probe spec is valid");
    while daemon.report(id).is_none() {
        std::thread::sleep(Duration::from_micros(200));
    }
    let latency = started.elapsed().as_micros() as u64;
    assert!(
        daemon.report(id).unwrap().status.is_done(),
        "probe must complete"
    );
    daemon.drain();
    let p50_ms = daemon
        .telemetry()
        .submit_to_first_result_percentile_ms(50.0);
    let p99_ms = daemon
        .telemetry()
        .submit_to_first_result_percentile_ms(99.0);
    daemon.shutdown().expect("first shutdown");
    (latency, p50_ms, p99_ms)
}

/// Times only the submit-to-first-result interval, once per priority; the
/// daemon lifecycle around it is the same for both and would bury the
/// signal. Asserts the priority win, so a scheduling regression fails.
fn main() {
    let truth = truth();
    let (in_line_us, p50_ms, p99_ms) = probe_latency_us(&truth, 5);
    let (jump_us, _, _) = probe_latency_us(&truth, 9);
    assert!(
        jump_us < in_line_us,
        "a queue-jumping probe ({jump_us} µs) must beat one waiting in line ({in_line_us} µs)"
    );
    // p50/p99 are the daemon's own histogram over every job in the loaded
    // run (12 background + probe); bucketed, so upper bounds.
    println!(
        "daemon submit-to-first-result under load ({WORKERS} workers, {BACKGROUND_JOBS} \
         background jobs, {} µs rounds): in line {in_line_us} µs, priority {jump_us} µs \
         ({:.1}x); all-jobs p50 {p50_ms} ms / p99 {p99_ms} ms",
        ROUND_LATENCY.as_micros(),
        in_line_us as f64 / jump_us.max(1) as f64,
    );
}
