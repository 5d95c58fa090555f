//! The durable knowledge plane must never change an answer — it only
//! changes who pays for it.
//!
//! The contract under test (ISSUE 7):
//!
//! * a daemon **killed at an arbitrary WAL prefix** and restarted produces
//!   `JobReport`s byte-identical (modulo `wall_ms`/`phases_ms`, and the
//!   reuse/spend tally, which by design can only improve) to an
//!   uninterrupted run, across **all five drivers** — with crowd spend
//!   never higher (proptested over the cut point);
//! * running *with* persistence is byte-identical (including spend) to
//!   running without it — the WAL sink is a pure observer;
//! * `shutdown()` fsyncs the WAL and cuts a final snapshot, so a
//!   restarted daemon **forwards zero** already-answered questions;
//! * the `KnowledgeStore` serde surface round-trips: snapshot JSON and
//!   WAL replay both reconstruct the exact fact base;
//! * (ISSUE 10) the `POST /store/import` door under damage — a torn
//!   body, truncated JSON, or a daemon already shutting down — answers a
//!   structured `400`/`503` and leaves the fact base untouched.

use coverage_core::prelude::*;
use coverage_service::{
    AuditDaemon, AuditKind, AuditService, JobId, JobReport, JobSpec, ServiceConfig,
};
use integration_tests::female;
use proptest::prelude::*;
use serde::{Serialize, Value};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Deterministic pseudo-random single-attribute labeling (the
/// `daemon_service` fixture).
fn synth_truth(n_total: usize, density_pct: u64, seed: u64) -> VecGroundTruth {
    let mut labels = Vec::with_capacity(n_total);
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345);
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for _ in 0..n_total {
        labels.push(Labels::single(u8::from(next() % 100 < density_pct)));
    }
    VecGroundTruth::new(labels)
}

/// A fresh scratch directory under the system temp dir; unique per call so
/// concurrent tests (and proptest cases) never share state.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cvg-persistence-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// One job per driver — the full five-algorithm matrix, with fixed seeds
/// so any two runs over the same store state are deterministic.
fn five_driver_workload(truth: &VecGroundTruth) -> Vec<JobSpec> {
    let pool = truth.all_ids();
    let schema = AttributeSchema::single_binary("gender", "male", "female");
    vec![
        JobSpec::new(
            "base",
            pool[..pool.len() / 4].to_vec(),
            AuditKind::BaseCoverage { target: female() },
        )
        .tau(10)
        .seed(1),
        JobSpec::new(
            "group",
            pool.clone(),
            AuditKind::GroupCoverage { target: female() },
        )
        .tau(20)
        .seed(2),
        JobSpec::new(
            "multiple",
            pool.clone(),
            AuditKind::MultipleCoverage {
                groups: vec![Pattern::parse("0").unwrap(), Pattern::parse("1").unwrap()],
            },
        )
        .tau(20)
        .seed(3),
        JobSpec::new(
            "intersectional",
            pool.clone(),
            AuditKind::IntersectionalCoverage { schema },
        )
        .tau(20)
        .seed(4),
        JobSpec::new(
            "classifier",
            pool.clone(),
            AuditKind::ClassifierCoverage {
                target: female(),
                predicted: pool[..pool.len() / 8].to_vec(),
            },
        )
        .tau(20)
        .seed(5),
    ]
}

/// The verdict surface of a report: everything except wall-clock, the
/// daemon's id sequence, and the reuse/spend tally (which recovery is
/// *supposed* to improve). Status, outcome, error and the logical ledger
/// must match byte for byte.
fn verdict_surface(report: &JobReport) -> String {
    let mut report = report.clone();
    report.id = JobId(0);
    report.wall_ms = 0;
    report.phases_ms = coverage_service::PhaseDurations::default();
    report.crowd_tasks = 0;
    report.reuse = ReuseStats::default();
    report.to_json()
}

/// The *full* normalized report — only wall-clock and id removed. Used
/// where spend itself must be identical (persistence as a pure observer).
fn full_surface(report: &JobReport) -> String {
    let mut report = report.clone();
    report.id = JobId(0);
    report.wall_ms = 0;
    report.phases_ms = coverage_service::PhaseDurations::default();
    report.to_json()
}

/// Serializes a store canonically, with its (run-dependent) reuse tally
/// stripped: two stores holding the same fact base fingerprint
/// identically. Hash maps serialize as `[key, value]` pair arrays in
/// iteration order, so every all-pairs array level is sorted; genuinely
/// ordered arrays (label vectors, object lists) contain no pairs and are
/// left alone.
fn store_fingerprint(store: &KnowledgeStore) -> String {
    fn canonical(value: Value) -> Value {
        match value {
            Value::Object(pairs) => {
                Value::Object(pairs.into_iter().map(|(k, v)| (k, canonical(v))).collect())
            }
            Value::Array(items) => {
                let mut items: Vec<Value> = items.into_iter().map(canonical).collect();
                let all_pairs = !items.is_empty()
                    && items
                        .iter()
                        .all(|item| matches!(item, Value::Array(pair) if pair.len() == 2));
                if all_pairs {
                    items.sort_by_key(|item| serde_json::to_string(item).unwrap());
                }
                Value::Array(items)
            }
            other => other,
        }
    }
    let Value::Object(pairs) = store.to_value() else {
        panic!("a store serializes as an object");
    };
    let facts: Vec<(String, Value)> = pairs
        .into_iter()
        .filter(|(k, _)| k != "stats")
        .map(|(k, v)| (k, canonical(v)))
        .collect();
    serde_json::to_string(&Value::Object(facts)).unwrap()
}

/// Runs the workload on a fresh daemon over `truth` and returns the
/// reports plus the lifetime crowd spend. `data_dir` opts into
/// persistence; `spill` opts into the disk spill.
fn run_workload(
    truth: &Arc<VecGroundTruth>,
    workload: &[JobSpec],
    data_dir: Option<&Path>,
    spill: Option<usize>,
) -> (Vec<JobReport>, u64) {
    let daemon = start_daemon(truth, data_dir, spill);
    let reports = run_on(&daemon, workload);
    let spend = daemon.stats().crowd_tasks;
    drop(daemon); // a crash, not a shutdown: no final snapshot
    (reports, spend)
}

fn start_daemon(
    truth: &Arc<VecGroundTruth>,
    data_dir: Option<&Path>,
    spill: Option<usize>,
) -> AuditDaemon<SharedTruthSource<VecGroundTruth>> {
    AuditDaemon::start(
        ServiceConfig {
            workers: 1, // deterministic scheduling: submission order
            data_dir: data_dir.map(Path::to_path_buf),
            spill_high_watermark: spill,
            ..ServiceConfig::default()
        },
        SharedTruthSource::new(Arc::clone(truth)),
    )
}

fn run_on(
    daemon: &AuditDaemon<SharedTruthSource<VecGroundTruth>>,
    workload: &[JobSpec],
) -> Vec<JobReport> {
    let ids: Vec<JobId> = workload
        .iter()
        .map(|spec| daemon.submit(spec.clone()).unwrap())
        .collect();
    daemon.drain();
    ids.iter().map(|id| daemon.report(*id).unwrap()).collect()
}

/// Reads one counter off the daemon's Prometheus surface.
fn counter(daemon: &AuditDaemon<SharedTruthSource<VecGroundTruth>>, name: &str) -> u64 {
    daemon
        .telemetry()
        .render_prometheus()
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("`{name}` is not exported"))
}

/// Truncates the current-generation WAL to `permille`/1000 of its length —
/// the crash injection. A mid-frame cut leaves a torn tail the next open
/// must discard cleanly. The newest WAL is the highest parsed generation
/// (`wal-10.log` is newer than `wal-9.log`, though it sorts first as text).
fn cut_wal(dir: &Path, permille: u64) -> (u64, u64) {
    let (_, wal) = fs::read_dir(dir)
        .unwrap()
        .filter_map(|entry| {
            let path = entry.unwrap().path();
            let generation: u64 = path
                .file_name()?
                .to_str()?
                .strip_prefix("wal-")?
                .strip_suffix(".log")?
                .parse()
                .ok()?;
            Some((generation, path))
        })
        .max()
        .expect("a persisting daemon leaves a WAL");
    let full = fs::metadata(&wal).unwrap().len();
    let keep = full * permille / 1000;
    let file = fs::OpenOptions::new().write(true).open(&wal).unwrap();
    file.set_len(keep).unwrap();
    (full, keep)
}

/// Persistence is a pure observer: with a `data_dir` (and even with the
/// disk spill squeezing the store), every report — spend and reuse tally
/// included — is byte-identical to a plain in-memory run.
#[test]
fn persistence_and_spill_never_change_a_report() {
    let truth = Arc::new(synth_truth(2_000, 9, 41));
    let workload = five_driver_workload(&truth);
    let (plain, plain_spend) = run_workload(&truth, &workload, None, None);

    let dir = scratch_dir("observer");
    let (persisted, persisted_spend) = run_workload(&truth, &workload, Some(&dir), None);
    let spill_dir = scratch_dir("observer-spill");
    let spiller = start_daemon(&truth, Some(&spill_dir), Some(64));
    let spilled = run_on(&spiller, &workload);
    let spilled_spend = spiller.stats().crowd_tasks;
    let spilled_labels = counter(&spiller, "audit_spilled_labels_total");
    drop(spiller);
    // Without an eviction the spill run is a plain persisted run, and the
    // equalities below would hold vacuously.
    assert!(
        spilled_labels > 0,
        "a 64-label watermark must evict at least one label"
    );

    for ((a, b), c) in plain.iter().zip(&persisted).zip(&spilled) {
        assert_eq!(full_surface(a), full_surface(b), "WAL changed a report");
        assert_eq!(full_surface(a), full_surface(c), "spill changed a report");
    }
    assert_eq!(plain_spend, persisted_spend);
    assert_eq!(plain_spend, spilled_spend, "spill must never re-buy a fact");
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&spill_dir);
}

/// The spill counter counts evictions, not writes: a persisted daemon
/// with no watermark pays the crowd yet spills nothing, so the `> 0` in
/// the spill run above is the watermark's doing.
#[test]
fn no_watermark_spills_no_label() {
    let truth = Arc::new(synth_truth(2_000, 9, 41));
    let workload = five_driver_workload(&truth);
    let dir = scratch_dir("no-spill");
    let daemon = start_daemon(&truth, Some(&dir), None);
    run_on(&daemon, &workload);
    assert!(daemon.stats().crowd_tasks > 0, "the run must pay the crowd");
    assert_eq!(counter(&daemon, "audit_spilled_labels_total"), 0);
    drop(daemon);
    let _ = fs::remove_dir_all(&dir);
}

/// Satellite 3: `shutdown()` fsyncs the WAL and writes a final snapshot,
/// so a restarted daemon re-asks **zero** crowd questions — every fact
/// survives the restart, and the fact base round-trips exactly.
#[test]
fn shutdown_then_restart_forwards_zero_questions() {
    let truth = Arc::new(synth_truth(2_500, 7, 13));
    let workload = five_driver_workload(&truth);
    let dir = scratch_dir("shutdown");

    let first = start_daemon(&truth, Some(&dir), None);
    let first_reports = run_on(&first, &workload);
    // A first run that paid nothing would make the zero re-spend below vacuous.
    assert!(
        first.stats().crowd_tasks > 0,
        "the first run must pay the crowd"
    );
    let exported = first.export_store();
    first.shutdown().expect("first shutdown");
    assert!(
        fs::read_dir(&dir).unwrap().any(|e| {
            e.unwrap()
                .file_name()
                .to_string_lossy()
                .starts_with("snapshot-")
        }),
        "shutdown must leave a final snapshot"
    );

    let second = start_daemon(&truth, Some(&dir), None);
    assert!(
        counter(&second, "audit_recovered_facts_total") > 0,
        "recovery must load the fact base"
    );
    assert_eq!(
        store_fingerprint(&second.export_store()),
        store_fingerprint(&exported),
        "the recovered fact base must equal the one shut down"
    );
    let second_reports = run_on(&second, &workload);
    let stats = second.stats();
    assert_eq!(
        stats.reuse.forwarded, 0,
        "every question was already answered before the restart: {stats:?}"
    );
    assert_eq!(stats.crowd_tasks, 0, "{stats:?}");
    for (a, b) in first_reports.iter().zip(&second_reports) {
        assert_eq!(verdict_surface(a), verdict_surface(b));
    }
    second.shutdown().expect("second shutdown");
    let _ = fs::remove_dir_all(&dir);
}

/// A scoped `AuditService::run` runs on the daemon's core, so it honours
/// `data_dir` too: the facts a batch bought (here over a *borrowed*
/// source) survive it, and a daemon started on the same directory re-runs
/// the same specs without asking the crowd anything.
#[test]
fn scoped_run_with_data_dir_is_durable_for_a_daemon() {
    let truth = Arc::new(synth_truth(2_500, 7, 17));
    let workload = five_driver_workload(&truth);
    let dir = scratch_dir("scoped");

    let mut service = AuditService::new(ServiceConfig {
        workers: 1,
        data_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    });
    for spec in &workload {
        service.submit(spec.clone());
    }
    let (scoped, _) = service.run(PerfectSource::new(&*truth));
    assert!(
        scoped.crowd_tasks > 0,
        "the batch must buy facts to persist"
    );

    let daemon = start_daemon(&truth, Some(&dir), None);
    let rerun = run_on(&daemon, &workload);
    let stats = daemon.stats();
    assert_eq!(stats.crowd_tasks, 0, "{stats:?}");
    assert_eq!(stats.reuse.forwarded, 0, "{stats:?}");
    for (a, b) in scoped.jobs.iter().zip(&rerun) {
        assert_eq!(verdict_surface(a), verdict_surface(b));
    }
    daemon.shutdown().expect("shutdown");
    let _ = fs::remove_dir_all(&dir);
}

/// The snapshot cadence compacts and rotates without losing a fact: a tiny
/// `snapshot_every` leaves only the geometric rule (cut once the WAL holds
/// as many records as the last snapshot held facts), which still rotates
/// several times over the workload, and a daemon crash-dropped right after
/// still recovers the full fact base.
#[test]
fn snapshot_rotation_loses_nothing() {
    let truth = Arc::new(synth_truth(1_500, 11, 29));
    let workload = five_driver_workload(&truth);
    let dir = scratch_dir("rotation");

    let first = AuditDaemon::start(
        ServiceConfig {
            workers: 1,
            data_dir: Some(dir.clone()),
            snapshot_every: 1, // a floor of one: the geometric rule sets the cadence
            ..ServiceConfig::default()
        },
        SharedTruthSource::new(Arc::clone(&truth)),
    );
    run_on(&first, &workload);
    let snapshot_writes = counter(&first, "audit_snapshot_writes_total");
    assert!(
        snapshot_writes >= 2,
        "rotation must be exercised: {snapshot_writes} snapshots"
    );
    let exported = first.export_store();
    drop(first); // crash: the last snapshot + its WAL must suffice

    let second = start_daemon(&truth, Some(&dir), None);
    assert_eq!(
        store_fingerprint(&second.export_store()),
        store_fingerprint(&exported),
    );
    run_on(&second, &workload);
    let stats = second.stats();
    assert_eq!(stats.reuse.forwarded, 0, "{stats:?}");
    let _ = fs::remove_dir_all(&dir);
}

/// `KnowledgeStore` serde round-trips through real JSON — the same path
/// `GET /store/export`, snapshots and the import door all share.
#[test]
fn knowledge_store_serde_round_trips() {
    let truth = Arc::new(synth_truth(1_200, 12, 3));
    let daemon = start_daemon(&truth, None, None);
    run_on(&daemon, &five_driver_workload(&truth));
    let store = daemon.export_store();
    assert!(!store.is_empty());
    let json = serde_json::to_string(&store).unwrap();
    let back: KnowledgeStore = serde_json::from_str(&json).unwrap();
    assert_eq!(back, store);
    assert_eq!(store_fingerprint(&back), store_fingerprint(&store));
    daemon.shutdown().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole invariant: a daemon killed at an **arbitrary WAL
    /// prefix** — any cut point, torn frames included — and restarted
    /// produces, for every one of the five drivers, a report verdict-
    /// identical to the uninterrupted run, and never spends more than it.
    /// A full prefix (nothing lost) re-asks nothing at all.
    #[test]
    fn killed_at_any_wal_prefix_recovers_equivalent_reports(
        cut_permille in 0u64..1001,
        n_total in 900usize..1_800,
        density_pct in 3u64..25,
        seed in 0u64..1_000,
    ) {
        let truth = Arc::new(synth_truth(n_total, density_pct, seed));
        let workload = five_driver_workload(&truth);
        let dir = scratch_dir("crash");

        // The uninterrupted run, persisting as it goes… then the crash:
        // the WAL keeps only an arbitrary prefix.
        let (uninterrupted, full_spend) = run_workload(&truth, &workload, Some(&dir), None);
        let (wal_len, kept) = cut_wal(&dir, cut_permille);

        let restarted = start_daemon(&truth, Some(&dir), None);
        let recovered = run_on(&restarted, &workload);
        let stats = restarted.stats();

        for (before, after) in uninterrupted.iter().zip(&recovered) {
            prop_assert_eq!(
                verdict_surface(before),
                verdict_surface(after),
                "driver {} drifted after crash recovery (wal {} -> {} bytes)",
                before.name, wal_len, kept
            );
        }
        prop_assert!(
            stats.crowd_tasks <= full_spend,
            "recovery re-bought knowledge: {} > {} (wal {} -> {} bytes)",
            stats.crowd_tasks, full_spend, wal_len, kept
        );
        if cut_permille == 1000 {
            prop_assert_eq!(
                stats.reuse.forwarded, 0,
                "a full WAL prefix answers everything: {:?}", stats
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// ISSUE 10 satellite: every way a `/store/import` can go wrong —
/// truncated JSON, a body torn mid-transfer, a daemon already shutting
/// down — must answer a structured `400`/`503` and leave the fact base
/// fingerprint-identical, with the daemon healthy for the next client.
#[test]
fn damaged_imports_leave_the_fact_base_untouched() {
    use coverage_service::http::{http_request, HttpServer};
    use std::io::{Read, Write};

    let truth = Arc::new(synth_truth(500, 15, 9));
    let daemon = Arc::new(start_daemon(&truth, None, None));
    // Buy some facts first, so "unchanged" is a non-trivial claim.
    let report = &run_on(&daemon, &five_driver_workload(&truth)[1..2])[0];
    assert!(report.crowd_tasks > 0, "{}", report.to_json());
    let fingerprint = store_fingerprint(&daemon.export_store());

    let server = HttpServer::serve("127.0.0.1:0", Arc::clone(&daemon)).unwrap();
    let addr = server.local_addr();
    let (code, full) = http_request(addr, "GET", "/store/export", None).unwrap();
    assert_eq!(code, 200);

    // Truncated JSON inside intact HTTP framing: a structured 400.
    let (code, reply) =
        http_request(addr, "POST", "/store/import", Some(&full[..full.len() / 2])).unwrap();
    assert_eq!(code, 400, "{reply}");
    assert!(reply.contains("\"error\""), "{reply}");
    assert!(reply.contains("invalid knowledge store"), "{reply}");

    // A torn body: the head promises the full export but the connection
    // dies halfway through it. The engine's contract is a clean `400`
    // close, a `408` deadline, or a silent close — never a wedged loop
    // and never a partial import.
    let mut torn = std::net::TcpStream::connect(addr).unwrap();
    torn.write_all(
        format!(
            "POST /store/import HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            full.len()
        )
        .as_bytes(),
    )
    .unwrap();
    torn.write_all(&full.as_bytes()[..full.len() / 2]).unwrap();
    torn.shutdown(std::net::Shutdown::Write).unwrap();
    let mut leftovers = String::new();
    let _ = torn.read_to_string(&mut leftovers);
    assert!(
        leftovers.is_empty()
            || leftovers.starts_with("HTTP/1.1 400")
            || leftovers.starts_with("HTTP/1.1 408"),
        "a torn import must close cleanly, got: {leftovers}"
    );

    // Neither damaged import moved a fact, and the daemon still serves.
    let (code, exported) = http_request(addr, "GET", "/store/export", None).unwrap();
    assert_eq!(code, 200);
    let after = serde_json::from_str::<KnowledgeStore>(&exported).unwrap();
    assert_eq!(
        store_fingerprint(&after),
        fingerprint,
        "a damaged import moved the fact base"
    );
    let (code, _) = http_request(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(code, 200);

    // Once shutdown has begun, even a pristine import is refused with a
    // structured 503 — the door policy that keeps an import from racing
    // the teardown.
    daemon.drain();
    daemon.shutdown().unwrap();
    let (code, reply) = http_request(addr, "POST", "/store/import", Some(&full)).unwrap();
    assert_eq!(code, 503, "{reply}");
    assert!(reply.contains("\"error\""), "{reply}");

    server.shutdown();
}
