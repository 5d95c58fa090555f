//! Daemon mode: the audit service as a standing HTTP/JSON platform.
//!
//! Everything a dataset-owner-facing deployment does, in one process:
//!
//! 1. start an [`AuditDaemon`] (worker pool + dispatcher + platform-wide
//!    knowledge store, alive until shutdown) and put the [`HttpServer`]
//!    in front of it;
//! 2. submit three audit jobs **with distinct priorities over raw HTTP**
//!    (`POST /jobs`, body = a `JobSpec` JSON);
//! 3. watch live statuses (`GET /jobs/{id}`): `Running` for the job on the
//!    worker, `Queued` for the ones behind it;
//! 4. cancel the running job mid-flight (`DELETE /jobs/{id}`) — it reports
//!    `Cancelled` with its partial result — then stream a finished job's
//!    full life story over one keep-alive connection
//!    (`GET /jobs/{id}/watch`, chunked ndjson) and reuse the same
//!    connection for a plain request via the [`HttpClient`] helper;
//! 5. drain, and check the surviving reports are **byte-identical** (up to
//!    wall-clock and id) to the same specs run through the scoped
//!    `AuditService::run` path;
//! 6. measure submit-to-first-result latency of a priority-9 probe under
//!    load;
//! 7. read the run back through the telemetry plane — the human summary,
//!    the Prometheus `/metrics` scrape and the cancelled job's `/trace`
//!    timeline — then shut everything down cleanly;
//! 8. prove durability: a second daemon with a `data_dir` pays for an
//!    audit, shuts down, restarts from its snapshot + WAL and answers the
//!    same audit with **zero** crowd tasks, serving the recovered fact
//!    base over `GET /store/export`.
//!
//! ```sh
//! cargo run --release -p cvg-examples --bin daemon_audit
//! ```

use coverage_core::prelude::*;
use coverage_service::http::{http_request, HttpClient, HttpServer};
use coverage_service::{
    AuditDaemon, AuditKind, AuditService, JobId, JobReport, JobSpec, ServiceConfig,
};
use dataset_sim::{binary_dataset, Placement};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Value;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 2024;
const ROUND_LATENCY: Duration = Duration::from_millis(2);

fn female(data: &dataset_sim::Dataset) -> Target {
    Target::group(
        data.schema()
            .pattern(&[("gender", "female")])
            .expect("schema has gender"),
    )
}

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: 1, // one worker makes the schedule (and the demo) legible
        round_latency: ROUND_LATENCY,
        ..ServiceConfig::default()
    }
}

/// POSTs a spec and returns the id the daemon assigned.
fn submit(addr: SocketAddr, spec: &JobSpec) -> u64 {
    let body = serde_json::to_string(spec).expect("spec serializes");
    let (code, reply) = http_request(addr, "POST", "/jobs", Some(&body)).expect("POST /jobs");
    assert_eq!(code, 201, "submission must be accepted: {reply}");
    let value: Value = serde_json::from_str(&reply).expect("reply parses");
    match value.get("id") {
        Some(Value::UInt(id)) => *id,
        other => panic!("no id in submission reply: {other:?}"),
    }
}

/// Polls `GET /jobs/{id}` until the body satisfies `done`.
fn poll_job(addr: SocketAddr, id: u64, what: &str, done: impl Fn(&str) -> bool) -> String {
    for _ in 0..30_000 {
        let (code, body) =
            http_request(addr, "GET", &format!("/jobs/{id}"), None).expect("GET /jobs/{id}");
        assert_eq!(code, 200, "{body}");
        if done(&body) {
            return body;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("job {id} never reached the {what} state");
}

/// Wall-clock-and-id-normalized report JSON: the byte-identity surface.
fn normalized(report: &JobReport) -> String {
    let mut report = report.clone();
    report.id = JobId(0);
    report.wall_ms = 0;
    report.phases_ms = coverage_service::PhaseDurations::default();
    report.to_json()
}

fn main() {
    let mut rng = SmallRng::seed_from_u64(SEED);
    let data = Arc::new(binary_dataset(9_000, 400, Placement::Shuffled, &mut rng));
    let target = female(&data);
    let pool = data.all_ids();

    println!("=== daemon mode: start the service, put HTTP in front ===");
    let daemon = Arc::new(AuditDaemon::start(
        config(),
        SharedTruthSource::new(Arc::clone(&data)),
    ));
    let server = HttpServer::serve("127.0.0.1:0", Arc::clone(&daemon)).expect("bind");
    let addr = server.local_addr();
    println!("listening on http://{addr}");

    // Three tenants, three priorities. The long low-priority audit goes
    // first and will be cancelled mid-run; the two survivors share nothing
    // with it or each other (disjoint pools), so their reports are
    // schedule-independent — comparable byte-for-byte with the scoped path.
    let doomed_spec = JobSpec::new(
        "press/full-sweep",
        pool[..6_000].to_vec(),
        AuditKind::GroupCoverage {
            target: target.clone(),
        },
    )
    .tau(300)
    .priority(0);
    let low_spec = JobSpec::new(
        "ngo/slice-audit",
        pool[6_000..7_500].to_vec(),
        AuditKind::GroupCoverage {
            target: target.clone(),
        },
    )
    .tau(25)
    .seed(1)
    .priority(3);
    let high_spec = JobSpec::new(
        "lab/urgent-audit",
        pool[7_500..].to_vec(),
        AuditKind::GroupCoverage {
            target: target.clone(),
        },
    )
    .tau(25)
    .seed(2)
    .priority(8);

    println!("\n=== submit three jobs over raw HTTP, distinct priorities ===");
    let doomed = submit(addr, &doomed_spec);
    // Live status: the first job reaches `Running` on the single worker.
    poll_job(addr, doomed, "Running", |body| body.contains("\"Running\""));
    println!("job {doomed} (priority 0): Running");
    let low = submit(addr, &low_spec);
    let high = submit(addr, &high_spec);
    let queued = poll_job(addr, high, "Queued", |body| body.contains("\"Queued\""));
    assert!(
        queued.contains("\"report\": null"),
        "no report while queued"
    );
    println!("job {low} (priority 3): Queued | job {high} (priority 8): Queued");

    println!("\n=== cancel the running job mid-flight ===");
    let (code, reply) = http_request(addr, "DELETE", &format!("/jobs/{doomed}"), None).unwrap();
    assert_eq!(code, 200, "{reply}");
    let cancelled_body = poll_job(addr, doomed, "Cancelled", |body| {
        body.contains("\"Cancelled\"")
    });
    assert!(
        cancelled_body.contains("\"outcome\""),
        "a mid-run cancel keeps the partial result: {cancelled_body}"
    );
    let cancelled = daemon.report(JobId(doomed)).expect("terminal report");
    assert!(
        cancelled.ledger.total_tasks() > 0,
        "the job was genuinely mid-run when cancelled"
    );
    println!(
        "job {doomed}: Cancelled after {} logical tasks (partial result kept)",
        cancelled.ledger.total_tasks()
    );

    println!("\n=== survivors complete in priority order ===");
    poll_job(addr, high, "Done", |body| body.contains("\"Done\""));
    poll_job(addr, low, "Done", |body| body.contains("\"Done\""));
    daemon.drain();
    assert_eq!(
        daemon.finished_order(),
        vec![JobId(doomed), JobId(high), JobId(low)],
        "priority 8 must run before priority 3"
    );
    println!("finished order: {:?} (8 before 3)", daemon.finished_order());

    println!("\n=== watch: stream job {high}'s life story, keep the socket ===");
    // One keep-alive connection: the chunked ndjson replay of the job's
    // trace (submit → scheduled → done), the terminal status line, and
    // then a plain request on the very same socket — the stream ends, the
    // connection survives.
    let mut client = HttpClient::connect(addr).expect("connect");
    let (code, stream) = client
        .request("GET", &format!("/jobs/{high}/watch"), None)
        .expect("GET /jobs/{id}/watch");
    assert_eq!(code, 200, "{stream}");
    for phase in ["\"submit\"", "\"scheduled\"", "\"done\""] {
        assert!(
            stream.contains(phase),
            "the watch replays the {phase} trace event: {stream}"
        );
    }
    assert!(
        stream
            .lines()
            .last()
            .is_some_and(|l| l == format!("{{\"id\": {high}, \"status\": \"done\"}}")),
        "the stream ends with the terminal status line: {stream}"
    );
    let (code, _) = client.request("GET", "/stats", None).expect("reuse");
    assert_eq!(code, 200, "the connection must be reusable after a watch");
    println!(
        "job {high}: {} ndjson lines streamed, terminal status delivered, socket reused",
        stream.lines().count()
    );

    println!("\n=== byte-identity: daemon reports == scoped run() reports ===");
    let mut scoped = AuditService::new(config());
    scoped.submit(low_spec);
    scoped.submit(high_spec);
    let (scoped_report, _source) = scoped.run(SharedTruthSource::new(Arc::clone(&data)));
    for (daemon_id, scoped_id, name) in [
        (low, 0u64, "ngo/slice-audit"),
        (high, 1, "lab/urgent-audit"),
    ] {
        let from_daemon = daemon.report(JobId(daemon_id)).unwrap();
        let from_scoped = scoped_report.job(JobId(scoped_id)).unwrap();
        assert_eq!(
            normalized(&from_daemon),
            normalized(from_scoped),
            "{name}: daemon and scoped reports must be byte-identical"
        );
        println!(
            "{name:<18} covered={:?}  tasks={}  — identical via daemon and scoped run",
            from_daemon.outcome.as_ref().unwrap().covered(),
            from_daemon.ledger.total_tasks()
        );
    }

    println!("\n=== submit-to-first-result latency under load ===");
    // Load the daemon with four more audits, then race a priority-9 probe
    // past them.
    let slice = 1_500;
    for i in 0..4 {
        submit(
            addr,
            &JobSpec::new(
                format!("background-{i}"),
                pool[i * slice..(i + 1) * slice].to_vec(),
                AuditKind::GroupCoverage {
                    target: target.clone(),
                },
            )
            .tau(30)
            .seed(10 + i as u64)
            .priority(5),
        );
    }
    let probe_spec = JobSpec::new(
        "probe",
        pool[7_500..].to_vec(),
        AuditKind::GroupCoverage {
            target: target.clone(),
        },
    )
    .tau(25)
    .seed(2)
    .priority(9);
    let started = Instant::now();
    let probe = submit(addr, &probe_spec);
    poll_job(addr, probe, "Done", |body| body.contains("\"Done\""));
    let probe_ms = started.elapsed().as_millis() as u64;
    println!("priority-9 probe: first result after {probe_ms} ms under 4-job load");

    println!("\n=== telemetry: human summary, /metrics, /trace ===");
    let (code, _stats_body) = http_request(addr, "GET", "/stats", None).unwrap();
    assert_eq!(code, 200);
    // The raw DaemonStats JSON is still on /stats; what a human wants is
    // the telemetry plane's digest of the same run.
    println!("{}", daemon.telemetry().human_summary());
    let (code, metrics) = http_request(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(code, 200);
    assert!(metrics.contains("audit_jobs_submitted_total"), "{metrics}");
    let prom_lines = metrics
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .count();
    println!("GET /metrics: {prom_lines} Prometheus samples");
    let (code, trace) = http_request(addr, "GET", &format!("/trace/{doomed}"), None).unwrap();
    assert_eq!(code, 200);
    assert!(trace.contains("\"cancelled\""), "{trace}");
    println!("GET /trace/{doomed}: cancelled job's phase timeline served");

    println!("\n=== clean shutdown ===");
    daemon.drain();
    server.shutdown();
    let (summary, _source) = daemon.shutdown().expect("first shutdown succeeds");
    assert_eq!(summary.jobs.len(), 8, "3 demo + 4 background + 1 probe");
    assert!(
        daemon.shutdown().is_none(),
        "shutdown is idempotent: the daemon is gone"
    );
    assert!(
        daemon.submit(probe_spec).is_err(),
        "submissions after shutdown are refused"
    );
    println!(
        "shutdown clean: {} jobs, {} crowd tasks, {} store hits",
        summary.jobs.len(),
        summary.crowd_tasks,
        summary.reuse.hits
    );

    println!("\n=== durability: restart from disk, re-ask nothing ===");
    let data_dir = std::env::temp_dir().join(format!("daemon_audit_store_{}", std::process::id()));
    std::fs::remove_dir_all(&data_dir).ok();
    let durable_config = || ServiceConfig {
        data_dir: Some(data_dir.clone()),
        ..config()
    };
    let durable_spec = || {
        JobSpec::new(
            "durable/slice-audit",
            pool[6_000..7_500].to_vec(),
            AuditKind::GroupCoverage {
                target: target.clone(),
            },
        )
        .tau(25)
        .seed(1)
    };
    let payer = AuditDaemon::start(durable_config(), SharedTruthSource::new(Arc::clone(&data)));
    let paid_id = payer.submit(durable_spec()).expect("valid spec");
    payer.drain();
    let paid = payer.report(paid_id).expect("terminal report");
    assert!(paid.crowd_tasks > 0, "the first run pays the crowd");
    payer
        .shutdown()
        .expect("durable shutdown cuts a final snapshot");

    let restarted = Arc::new(AuditDaemon::start(
        durable_config(),
        SharedTruthSource::new(Arc::clone(&data)),
    ));
    let export_server = HttpServer::serve("127.0.0.1:0", Arc::clone(&restarted)).expect("bind");
    let replay_id = restarted.submit(durable_spec()).expect("valid spec");
    restarted.drain();
    let replayed = restarted.report(replay_id).expect("terminal report");
    assert_eq!(
        replayed.crowd_tasks, 0,
        "a recovered daemon re-asks nothing for committed facts"
    );
    assert_eq!(
        replayed.outcome.as_ref().map(|o| o.covered()),
        paid.outcome.as_ref().map(|o| o.covered()),
        "recovery never changes a verdict"
    );
    let (code, export) =
        http_request(export_server.local_addr(), "GET", "/store/export", None).unwrap();
    assert_eq!(code, 200);
    assert!(export.contains("\"labels\""), "{export}");
    println!(
        "restart: {} crowd tasks paid once, 0 re-asked; /store/export served {} bytes",
        paid.crowd_tasks,
        export.len()
    );
    export_server.shutdown();
    restarted.shutdown().expect("restarted daemon shuts down");
    std::fs::remove_dir_all(&data_dir).ok();
}
