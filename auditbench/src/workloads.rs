//! The three workloads: their datasets, daemon configurations, set-up and
//! closed loops. Every audit goes through the HTTP API and every verdict
//! is checked against the dataset's own labels.

use crate::client::{self, Client};
use crate::oracle;
use crate::replica::Timed;
use coverage_core::prelude::*;
use coverage_service::http::HttpServer;
use coverage_service::{AuditDaemon, AuditKind, JobReport, JobSpec, ServiceConfig, ServiceReport};
use cvg_bench::scenarios::{giant_audit_counts, giant_audit_schema, service_mixed_workload};
use dataset_sim::{DatasetBuilder, Placement};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Deserialize;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Coverage threshold of the census audits.
const CENSUS_TAU: usize = 50;
/// Shuffled layouts of the census composition; audit `i` runs on layout
/// `i mod CENSUS_LAYOUTS`. One layout's rounds and crowd tasks differ from
/// another's by a few percent, so a run averages over several to keep
/// its per-audit counts close from seed to seed.
const CENSUS_LAYOUTS: u64 = 32;
/// Objects of the mixed workloads' binary dataset, and its minority (3%).
const MIXED_OBJECTS: usize = 60_000;
const MIXED_MINORITY: usize = 1_800;
/// Each mixed audit's pool: a window of this many ids, starting at
/// `WINDOW_STEP · i` for audit `i`, so consecutive audits share most of
/// their objects. Ids wrap around the dataset's labels but never repeat,
/// so every audit brings new objects and the knowledge store does not
/// saturate however long the run.
const WINDOW: u64 = 10_000;
const WINDOW_STEP: u64 = 500;
/// Mixed audits cycle through this many tenants.
const TENANTS: u64 = 7;
/// Finished audits `status_reads` serves.
pub const PRELOADED: usize = 20;
/// Audits whose facts the restart probe of `persist.recovery_ms` recovers.
const RECOVERY_AUDITS: u64 = 10;
/// `GET /stats` is every `STATS_EVERY`-th request of `status_reads`.
const STATS_EVERY: u64 = 4;

/// Labels of a dataset. Ids past its end wrap around: the census workload
/// gives every audit a disjoint slice of ids over one of its layouts, and
/// the mixed workloads slide their windows over an unbounded id range.
#[derive(Debug)]
pub struct Truth(Vec<Labels>);

impl GroundTruth for Truth {
    fn num_objects(&self) -> usize {
        self.0.len()
    }

    fn labels_of(&self, id: ObjectId) -> Labels {
        self.0[id.index() % self.0.len()]
    }
}

/// The daemon under test: its answer source is timed for the `crowd` layer.
type Daemon = AuditDaemon<Timed<SharedTruthSource<Truth>>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One client runs Intersectional-Coverage audits over the census
    /// schema, each on a fresh slice of ids, against a one-worker daemon.
    Census,
    /// Two clients run mixed audits over overlapping windows of one
    /// dataset against a two-worker daemon with a write-ahead log.
    TenantMix,
    /// Two clients read finished reports and stats; no audit runs.
    StatusReads,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Census, Workload::TenantMix, Workload::StatusReads];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Census => "census_audit",
            Workload::TenantMix => "tenant_mix",
            Workload::StatusReads => "status_reads",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn clients(self) -> usize {
        match self {
            Workload::Census => 1,
            Workload::TenantMix | Workload::StatusReads => 2,
        }
    }

    /// The daemon runs one job at a time, so each job's question stream,
    /// reuse included, is the same as a sequential replica's.
    pub fn sequential(self) -> bool {
        self.config(None).workers == 1
    }

    fn config(self, data_dir: Option<PathBuf>) -> ServiceConfig {
        // No simulated round latency: wall time is system time, and the
        // crowd wait is counted as dispatch rounds instead.
        let config = ServiceConfig {
            round_latency: Duration::ZERO,
            intra_job_parallelism: 1,
            ..ServiceConfig::default()
        };
        match self {
            Workload::Census | Workload::StatusReads => ServiceConfig {
                workers: 1,
                ..config
            },
            Workload::TenantMix => ServiceConfig {
                workers: 2,
                data_dir,
                ..config
            },
        }
    }

    /// Audits a run completes a whole number of, so that per-audit counts
    /// average every census layout equally.
    fn cycle(self) -> u64 {
        match self {
            Workload::Census => CENSUS_LAYOUTS,
            Workload::TenantMix | Workload::StatusReads => 1,
        }
    }

    fn truth(self, seed: u64) -> Truth {
        let mut rng = SmallRng::seed_from_u64(seed);
        match self {
            Workload::Census => {
                let builder =
                    DatasetBuilder::new(giant_audit_schema()).counts(&giant_audit_counts());
                Truth(
                    (0..CENSUS_LAYOUTS)
                        .flat_map(|_| builder.build(&mut rng).labels().to_vec())
                        .collect(),
                )
            }
            Workload::TenantMix | Workload::StatusReads => Truth(
                dataset_sim::binary_dataset(
                    MIXED_OBJECTS,
                    MIXED_MINORITY,
                    Placement::Shuffled,
                    &mut rng,
                )
                .labels()
                .to_vec(),
            ),
        }
    }
}

fn object_id(i: u64) -> ObjectId {
    ObjectId(u32::try_from(i).expect("a run stays below 2^32 object ids"))
}

/// A finished audit: the benchmark's number for it and the daemon's report.
#[derive(Debug, Clone)]
pub struct Audit {
    pub seq: u64,
    pub report: JobReport,
}

/// A daemon serving HTTP, ready for a workload.
pub struct Env {
    workload: Workload,
    seed: u64,
    pub truth: Arc<Truth>,
    daemon: Arc<Daemon>,
    server: HttpServer,
    addr: SocketAddr,
    data_dir: Option<PathBuf>,
    /// Milliseconds `AuditDaemon::start` took.
    pub start_ms: f64,
    /// Audits run during set-up: the warm-up audit, or the pre-load.
    pub setup_audits: Vec<Audit>,
    /// `(job id, GET /jobs/{id} body)` of each pre-loaded audit.
    preloaded: Vec<(u64, String)>,
}

/// Where the benchmark writes: data dirs and spans, inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

impl Env {
    /// Generates the dataset, starts the daemon and its HTTP server, and
    /// runs the set-up audits: one warm-up audit, or for `status_reads`
    /// the pre-load. `instance` keeps data dirs of repeated set-ups apart.
    pub fn setup(workload: Workload, seed: u64, instance: usize) -> Result<Env, String> {
        let truth = Arc::new(workload.truth(seed));
        let data_dir = (workload == Workload::TenantMix)
            .then(|| out_dir().join(format!("data-{}-{instance}", std::process::id())));
        if let Some(dir) = &data_dir {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let started = Instant::now();
        let daemon = Arc::new(AuditDaemon::start(
            workload.config(data_dir.clone()),
            Timed::new(SharedTruthSource::new(Arc::clone(&truth)), "crowd"),
        ));
        let start_ms = started.elapsed().as_secs_f64() * 1e3;
        let server = HttpServer::serve("127.0.0.1:0", Arc::clone(&daemon))
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        let mut env = Env {
            workload,
            seed,
            truth,
            daemon,
            server,
            addr,
            data_dir,
            start_ms,
            setup_audits: Vec::new(),
            preloaded: Vec::new(),
        };
        let audits = match workload {
            Workload::Census | Workload::TenantMix => 1,
            Workload::StatusReads => PRELOADED as u64,
        };
        let mut client = Client::new(addr);
        for seq in 0..audits {
            let report = env.audit(&mut client, seq)?;
            if workload == Workload::StatusReads {
                let id = report.id.0;
                env.preloaded.push((id, client.get_report(id)?));
            }
            env.setup_audits.push(Audit { seq, report });
        }
        Ok(env)
    }

    /// The spec of audit `seq`.
    pub fn spec(&self, seq: u64) -> JobSpec {
        match self.workload {
            Workload::Census => {
                let len = self.truth.0.len() as u64 / CENSUS_LAYOUTS;
                let ids = (seq * len..(seq + 1) * len).map(object_id).collect();
                JobSpec::new(
                    format!("census/audit-{seq}"),
                    ids,
                    AuditKind::IntersectionalCoverage {
                        schema: giant_audit_schema(),
                    },
                )
                .tau(CENSUS_TAU)
                .seed(self.seed)
            }
            Workload::TenantMix | Workload::StatusReads => {
                let start = WINDOW_STEP * seq;
                let window: Vec<ObjectId> = (start..start + WINDOW).map(object_id).collect();
                let kinds = service_mixed_workload(&window, 5, 50);
                let mut spec = kinds[(seq % 5) as usize].clone();
                spec.name = format!("tenant-{}/audit-{seq}", seq % TENANTS);
                spec
            }
        }
    }

    /// Runs audit `seq` through the API and checks its verdict.
    fn audit(&self, client: &mut Client, seq: u64) -> Result<JobReport, String> {
        let spec = self.spec(seq);
        let report = client.audit(seq, &spec)?;
        oracle::check(&oracle::expected(&spec, &*self.truth), &report)?;
        Ok(report)
    }

    /// Audits the daemon has run: set-up and timed ones.
    pub fn audits_run(&self, timed: usize) -> u64 {
        (self.setup_audits.len() + timed) as u64
    }

    /// Drives the workload's closed loop for `seconds`: each client sends
    /// its next request when the previous one returns. Requests begun
    /// before the deadline run to completion, and the census client runs
    /// on to the end of its cycle of layouts.
    pub fn measure(&self, seconds: f64) -> Measured {
        let deadline = Duration::from_secs_f64(seconds);
        let next = AtomicU64::new(self.setup_audits.len() as u64);
        let out = Mutex::new(Measured::default());
        let started = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..self.workload.clients() {
                scope.spawn(|| {
                    let mut client = Client::new(self.addr);
                    let mut local = Measured::default();
                    loop {
                        // Past the deadline, finish the current cycle.
                        let seq = next.fetch_add(1, Ordering::Relaxed);
                        if started.elapsed() >= deadline
                            && seq.is_multiple_of(self.workload.cycle())
                        {
                            break;
                        }
                        local.attempted += 1;
                        match self.op(&mut client, seq) {
                            Ok((latency_ms, report)) => {
                                local.latencies_ms.push(latency_ms);
                                if let Some(report) = report {
                                    local.audits.push(Audit { seq, report });
                                }
                            }
                            Err(e) => local.failures.push(e),
                        }
                    }
                    local.connections = client.connections;
                    out.lock().expect("no client panicked").absorb(local);
                });
            }
        });
        let mut measured = out.into_inner().expect("no client panicked");
        measured.elapsed_s = started.elapsed().as_secs_f64();
        measured.latencies_ms.sort_by(f64::total_cmp);
        measured.audits.sort_by_key(|a| a.seq);
        measured
    }

    /// One operation of the loop: its latency and, for an audit, the
    /// report.
    fn op(&self, client: &mut Client, seq: u64) -> Result<(f64, Option<JobReport>), String> {
        match self.workload {
            Workload::Census | Workload::TenantMix => {
                let spec = self.spec(seq);
                let expected = oracle::expected(&spec, &*self.truth);
                let started = Instant::now();
                let report = client.audit(seq, &spec)?;
                let latency_ms = started.elapsed().as_secs_f64() * 1e3;
                oracle::check(&expected, &report)?;
                Ok((latency_ms, Some(report)))
            }
            Workload::StatusReads => {
                let started = Instant::now();
                if seq % STATS_EVERY == STATS_EVERY - 1 {
                    let (code, body) = client
                        .request("get_stats", seq, "GET", "/stats", None)
                        .map_err(|e| format!("GET /stats: {e}"))?;
                    let latency_ms = started.elapsed().as_secs_f64() * 1e3;
                    let done = u64::from_value(&client::field(&body, "done")?)
                        .map_err(|e| e.to_string())?;
                    if code != 200 || done != PRELOADED as u64 {
                        return Err(format!("GET /stats: {code} {body}"));
                    }
                    Ok((latency_ms, None))
                } else {
                    let (id, want) = &self.preloaded[seq as usize % PRELOADED];
                    let body = client.get_report(*id)?;
                    let latency_ms = started.elapsed().as_secs_f64() * 1e3;
                    if &body != want {
                        return Err(format!("GET /jobs/{id} changed: {body}"));
                    }
                    Ok((latency_ms, None))
                }
            }
        }
    }

    /// Stops the server and the daemon, returning the daemon's lifetime
    /// report and the layer readings only a live daemon gives.
    pub fn close(self, readings: bool) -> Closed {
        let store = readings.then(|| self.daemon.export_store());
        let wal_records = prometheus_counter(
            &self.daemon.telemetry().render_prometheus(),
            "audit_wal_records_total",
        );
        let recovery_ms = match &self.data_dir {
            Some(dir) if readings => Some(self.recovery_ms(&dir.with_extension("recovery"))),
            _ => None,
        };
        self.server.shutdown();
        let (service, _source) = self.daemon.shutdown().expect("first shutdown");
        if let Some(dir) = &self.data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        Closed {
            service,
            store,
            wal_records,
            recovery_ms,
        }
    }

    /// Milliseconds `AuditDaemon::start` takes to recover the data dir of
    /// a daemon that ran the workload's first [`RECOVERY_AUDITS`] audits
    /// and shut down. The store is kept to that fixed size because
    /// recovery time grows faster than the store: on the whole run's data
    /// dir it would outlast the run.
    fn recovery_ms(&self, dir: &Path) -> f64 {
        let _ = std::fs::remove_dir_all(dir);
        let config = self.workload.config(Some(dir.to_path_buf()));
        let source = || SharedTruthSource::new(Arc::clone(&self.truth));
        let daemon = AuditDaemon::start(config.clone(), source());
        for seq in 0..RECOVERY_AUDITS {
            daemon
                .submit(self.spec(seq))
                .expect("workload specs are valid");
        }
        daemon.shutdown();
        let started = Instant::now();
        let restarted = AuditDaemon::start(config, source());
        let recovery_ms = started.elapsed().as_secs_f64() * 1e3;
        restarted.shutdown();
        let _ = std::fs::remove_dir_all(dir);
        recovery_ms
    }
}

/// What one closed loop did.
#[derive(Debug, Default)]
pub struct Measured {
    /// Latency of each completed operation, ascending.
    pub latencies_ms: Vec<f64>,
    pub elapsed_s: f64,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Audits the loop ran, by sequence number.
    pub audits: Vec<Audit>,
    /// Connections the clients opened, reconnects included.
    pub connections: u64,
}

impl Measured {
    fn absorb(&mut self, other: Measured) {
        self.latencies_ms.extend(other.latencies_ms);
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
        self.audits.extend(other.audits);
        self.connections += other.connections;
    }
}

/// A stopped daemon's report and readings.
pub struct Closed {
    pub service: ServiceReport,
    /// The fact base at the end of the run, when readings were asked for.
    pub store: Option<KnowledgeStore>,
    /// WAL records appended over the daemon's life.
    pub wal_records: u64,
    /// Milliseconds a restart on the run's data dir took, when asked for
    /// and the workload has a data dir.
    pub recovery_ms: Option<f64>,
}

/// The value of an unlabelled counter in a Prometheus exposition; 0 when
/// absent.
fn prometheus_counter(text: &str, name: &str) -> u64 {
    text.lines()
        .filter_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .find_map(|value| value.trim().parse().ok())
        .unwrap_or(0)
}
