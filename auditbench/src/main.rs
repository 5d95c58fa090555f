//! End-to-end and per-layer benchmark of the audit daemon.
//!
//! ```sh
//! cargo run --release --manifest-path auditbench/Cargo.toml -- \
//!     --workload census_audit --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Starts an `AuditDaemon` and its `HttpServer` in-process, drives one
//! workload through the HTTP API in a closed loop for `--seconds`, checks
//! every verdict against the dataset's labels, and prints the metrics by
//! name with their units; the last line of standard output is one JSON
//! object. `--trace 0` reports the end-to-end metrics. `--trace 1` runs
//! the workload once untraced and once traced, replays its audits
//! in-process, writes the spans to `.bench_out/`, and reports the
//! per-layer metrics. The exit code is non-zero on any failed operation.
//! `README.md` describes the workloads and metrics.

mod client;
mod oracle;
mod replica;
mod stats;
mod trace;
mod workloads;

use coverage_core::prelude::*;
use replica::Timed;
use stats::{median, percentile, ratio};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{out_dir, Audit, Env, Measured, Workload};

/// The workload seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Audits the traced run replays in-process, at most.
const MAX_REPLICAS: usize = 100;
/// The tail percentile reported. A higher one would have enough samples
/// beyond it on `status_reads`, but its run-to-run spread on a shared
/// machine is far wider than any useful bound; the printout gives it.
const TAIL: f64 = 90.0;
/// Repetitions of each fleet delta timing.
const DELTA_REPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Census,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Metrics in the order they are printed.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str, String)>);

impl Metrics {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.note(name, value, unit, String::new());
    }

    fn note(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name, value, unit, note));
    }

    fn print(&self) {
        for (name, value, unit, note) in &self.0 {
            println!("  {name:<34} {value:>14.4} {unit:<12} {note}");
        }
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit, _)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A run's result: what was attempted, what failed, and the metrics.
struct Outcome {
    attempted: u64,
    failures: Vec<String>,
    metrics: Metrics,
}

/// The process's peak resident set, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn run(args: &Args) -> Result<Outcome, String> {
    let workload = args.workload;
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    let mut setup_s = Vec::new();
    let mut start_ms = Vec::new();
    let mut env: Option<Env> = None;
    for instance in 0..SETUPS {
        if let Some(previous) = env.take() {
            previous.close(false);
        }
        let started = Instant::now();
        let fresh = Env::setup(workload, args.seed, instance)?;
        setup_s.push(started.elapsed().as_secs_f64());
        start_ms.push(fresh.start_ms);
        env = Some(fresh);
    }
    let env = env.expect("at least one set-up");
    let untraced = env.measure(args.seconds);
    let audits_run = env.audits_run(untraced.audits.len());
    let job_crowd_tasks: u64 = env
        .setup_audits
        .iter()
        .chain(&untraced.audits)
        .map(|a| a.report.crowd_tasks)
        .sum();
    // Before shutdown: the final snapshot a persistent daemon cuts on the
    // way down is teardown, not serving.
    let peak_rss = peak_rss_mb();
    let closed = env.close(false);

    let mut metrics = Metrics::default();
    let mut attempted = untraced.attempted;
    let mut failures = untraced.failures.clone();
    if !args.trace {
        let lat = &untraced.latencies_ms;
        let (op, alias, rate) = match workload {
            Workload::StatusReads => ("request", "http", "http_rps"),
            _ => ("audit", "audit", "audits_per_s"),
        };
        metrics.note(
            "setup_s",
            median(&setup_s),
            "s",
            format!("median of {SETUPS} set-ups"),
        );
        metrics.note(
            "ops_per_s",
            ratio(lat.len() as f64, untraced.elapsed_s),
            "1/s",
            format!("{rate}: {op}s completed per second"),
        );
        metrics.note(
            "op_p50_ms",
            percentile(lat, 50.0),
            "ms",
            format!("{alias}_p50 over {} {op}s", lat.len()),
        );
        let highest = stats::highest_supported(lat.len()).unwrap_or(50.0);
        metrics.note(
            "op_tail_ms",
            percentile(lat, TAIL),
            "ms",
            format!(
                "{alias}_p90 with {} samples beyond; {alias}_p{highest} {:.4} ms",
                stats::beyond(lat.len(), TAIL),
                percentile(lat, highest),
            ),
        );
        metrics.note(
            "crowd_tasks_per_audit",
            ratio(job_crowd_tasks as f64, audits_run as f64),
            "count",
            format!("summed over the reports of {audits_run} audits"),
        );
        metrics.add(
            "rounds_per_audit",
            ratio(closed.service.dispatch.rounds as f64, audits_run as f64),
            "count",
        );
        metrics.add("peak_rss_mb", peak_rss, "MiB");
        return Ok(Outcome {
            attempted,
            failures,
            metrics,
        });
    }

    // The traced run: a fresh daemon, spans on, then the in-process
    // replicas of its audits.
    let env = Env::setup(workload, args.seed, SETUPS)?;
    start_ms.push(env.start_ms);
    trace::set_enabled(true);
    let traced = env.measure(args.seconds);
    attempted += traced.attempted;
    failures.extend(traced.failures.iter().cloned());
    let mut records: Vec<Audit> = env
        .setup_audits
        .iter()
        .chain(&traced.audits)
        .cloned()
        .collect();
    records.sort_by_key(|a| a.report.id);
    records.truncate(MAX_REPLICAS);
    let replica_store = SharedKnowledgeSource::new(Timed::new(
        SharedTruthSource::new(std::sync::Arc::clone(&env.truth)),
        "truth",
    ));
    for audit in &records {
        let spec = env.spec(audit.seq);
        let replica = replica::run(&spec, &replica_store, audit.seq);
        attempted += 1;
        if let Err(e) = replica_guard(workload, &spec, &audit.report, &replica, &*env.truth) {
            failures.push(format!("replica guard, audit {}: {e}", audit.seq));
        }
    }
    trace::set_enabled(false);
    let audits_run = env.audits_run(traced.audits.len());
    let timed_audits = traced.audits.len() as f64;
    let closed = env.close(true);
    let spans = trace::take();
    let spans_path = out_dir().join(format!("spans-{}.tsv", workload.name()));
    trace::write(&spans_path, &spans).map_err(|e| format!("{}: {e}", spans_path.display()))?;

    layer_metrics(
        &mut metrics,
        LayerInputs {
            workload,
            untraced: &untraced,
            traced: &traced,
            records: &records,
            spans: &spans,
            closed: &closed,
            start_ms: &start_ms,
            audits_run: audits_run as f64,
            timed_audits,
        },
    );
    Ok(Outcome {
        attempted,
        failures,
        metrics,
    })
}

/// The replica must have asked exactly the daemon job's questions: the
/// same logical ledger and question count, and — where the daemon runs
/// one job at a time, so both saw the same store — the same number
/// forwarded past the store. Its verdict must match ground truth.
fn replica_guard(
    workload: Workload,
    spec: &coverage_service::JobSpec,
    report: &coverage_service::JobReport,
    replica: &replica::Replica,
    truth: &impl GroundTruth,
) -> Result<(), String> {
    if replica.ledger != report.ledger {
        return Err(format!(
            "ledger {:?} vs daemon {:?}",
            replica.ledger, report.ledger
        ));
    }
    if replica.reuse.questions() != report.reuse.questions()
        || (workload.sequential() && replica.reuse.forwarded != report.reuse.forwarded)
    {
        return Err(format!(
            "reuse {:?} vs daemon {:?}",
            replica.reuse, report.reuse
        ));
    }
    match &replica.outcome {
        Ok(outcome) => {
            let (got, want) = (oracle::observed(outcome), oracle::expected(spec, truth));
            if got == want {
                Ok(())
            } else {
                Err(format!("verdict {got:?}, ground truth {want:?}"))
            }
        }
        Err(e) => Err(format!("replica stopped: {e}")),
    }
}

struct LayerInputs<'a> {
    workload: Workload,
    untraced: &'a Measured,
    traced: &'a Measured,
    /// The audits replayed in-process, in job-id order.
    records: &'a [Audit],
    spans: &'a [trace::Span],
    closed: &'a workloads::Closed,
    start_ms: &'a [f64],
    /// Audits the traced daemon ran, set-up ones included.
    audits_run: f64,
    /// Audits of the traced loop.
    timed_audits: f64,
}

fn layer_metrics(m: &mut Metrics, input: LayerInputs<'_>) {
    let LayerInputs {
        workload,
        untraced,
        traced,
        records,
        spans,
        closed,
        start_ms,
        audits_run,
        timed_audits,
    } = input;
    let self_ns = trace::self_times(spans);
    let mut http: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    let mut report_bytes = Vec::new();
    let mut crowd_calls: std::collections::BTreeMap<&str, u64> = Default::default();
    let (mut crowd_objects, mut crowd_busy_ns) = (0u64, 0u64);
    let (mut replicas, mut replica_ns, mut driver_self_ns, mut memo_self_ns) = (0u64, 0, 0, 0);
    for (span, &own) in spans.iter().zip(&self_ns) {
        match span.layer {
            "http" => {
                http.entry(span.name)
                    .or_default()
                    .push(span.duration_ns() as f64 / 1e3);
                if span.name == "get_report" {
                    report_bytes.push(span.value as f64);
                }
            }
            "crowd" => {
                *crowd_calls.entry(span.name).or_default() += 1;
                crowd_objects += span.value;
                crowd_busy_ns += span.duration_ns();
            }
            "core" => {
                replicas += 1;
                replica_ns += span.duration_ns();
                driver_self_ns += own;
            }
            "memo" => memo_self_ns += own,
            _ => {}
        }
    }
    let p50_us = |name: &str| {
        let mut v = http.get(name).cloned().unwrap_or_default();
        v.sort_by(f64::total_cmp);
        percentile(&v, 50.0)
    };
    let phase_p50 = |phase: &str| {
        let v: Vec<f64> = records
            .iter()
            .filter_map(|a| a.report.phases_ms.get(phase))
            .map(|ms| ms as f64)
            .collect();
        median(&v)
    };
    let service = &closed.service;
    let per_audit = |count: u64| ratio(count as f64, audits_run);
    let per_timed_audit = |count: u64| ratio(count as f64, timed_audits);
    let rounds_per_audit = per_audit(service.dispatch.rounds);
    let replicas_f = replicas as f64;

    m.add("http.post_jobs_us", p50_us("post_jobs"), "us");
    m.add("http.get_report_us", p50_us("get_report"), "us");
    m.add("http.get_stats_us", p50_us("get_stats"), "us");
    m.add(
        "http.response_bytes",
        ratio(report_bytes.iter().sum(), report_bytes.len() as f64),
        "bytes",
    );
    m.add(
        "http.connections_opened",
        traced.connections as f64,
        "count",
    );

    m.add("scheduler.queue_wait_p50_ms", phase_p50("queued"), "ms");
    m.add("service.run_p50_ms", phase_p50("run"), "ms");
    m.add("daemon.start_ms", median(start_ms), "ms");

    m.add("dispatch.rounds", rounds_per_audit, "count/audit");
    m.add(
        "dispatch.questions_per_round",
        ratio(
            service.reuse.forwarded as f64,
            service.dispatch.rounds as f64,
        ),
        "count",
    );
    m.add(
        "dispatch.max_round_questions",
        service.dispatch.max_round_questions as f64,
        "count",
    );
    m.add(
        "dispatch.point_hits",
        per_audit(service.dispatch.point_hits),
        "count/audit",
    );
    m.add(
        "dispatch.set_batches",
        per_audit(service.dispatch.set_batches),
        "count/audit",
    );
    m.add("dispatch.retries", service.dispatch.retries as f64, "count");
    // The daemon's run time of the replayed audits beyond the replicas'
    // own, spread over the dispatch rounds each audit paid.
    let daemon_run_ms = ratio(
        records
            .iter()
            .filter_map(|a| a.report.phases_ms.get("run"))
            .sum::<u64>() as f64,
        records.len() as f64,
    );
    let replica_run_ms = ratio(ms(replica_ns), replicas_f);
    m.add(
        "dispatch.round_overhead_us",
        ratio((daemon_run_ms - replica_run_ms) * 1e3, rounds_per_audit),
        "us",
    );

    let reuse = &service.reuse;
    m.add("memo.hits", per_audit(reuse.hits), "count/audit");
    m.add("memo.narrowed", per_audit(reuse.narrowed), "count/audit");
    m.add("memo.forwarded", per_audit(reuse.forwarded), "count/audit");
    m.add(
        "memo.objects_pruned",
        per_audit(reuse.objects_pruned),
        "count/audit",
    );
    m.add(
        "memo.hit_ratio",
        ratio(reuse.hits as f64, (reuse.hits + reuse.forwarded) as f64),
        "ratio",
    );
    m.add(
        "memo.self_ms",
        ratio(ms(memo_self_ns), replicas_f),
        "ms/audit",
    );
    m.add(
        "memo.store_facts",
        closed.store.as_ref().map_or(0, KnowledgeStore::fact_count) as f64,
        "count",
    );
    m.add(
        "core.driver_self_ms",
        ratio(ms(driver_self_ns), replicas_f),
        "ms/audit",
    );
    m.add(
        "governor.billed_over_logical",
        ratio(
            service.crowd_tasks as f64,
            service.total_logical.total_tasks() as f64,
        ),
        "ratio",
    );

    let calls = |kind: &str| per_timed_audit(crowd_calls.get(kind).copied().unwrap_or(0));
    m.add("crowd.set_calls", calls("set"), "count/audit");
    m.add("crowd.sets_batch_calls", calls("sets_batch"), "count/audit");
    m.add("crowd.point_calls", calls("point"), "count/audit");
    m.add(
        "crowd.point_batch_calls",
        calls("point_batch"),
        "count/audit",
    );
    m.add("crowd.membership_calls", calls("membership"), "count/audit");
    m.add(
        "crowd.objects_asked",
        per_timed_audit(crowd_objects),
        "count/audit",
    );
    m.add(
        "crowd.busy_ms",
        ratio(ms(crowd_busy_ns), timed_audits),
        "ms/audit",
    );

    m.add(
        "persist.wal_records",
        per_audit(closed.wal_records),
        "count/audit",
    );
    m.add(
        "persist.recovery_ms",
        closed.recovery_ms.unwrap_or(0.0),
        "ms",
    );

    let (full_ms, noop_ms) = closed.store.as_ref().map_or((0.0, 0.0), delta_timings);
    m.add("fleet.delta_full_ms", full_ms, "ms");
    m.add("fleet.delta_noop_ms", noop_ms, "ms");

    let p50 = |measured: &Measured| percentile(&measured.latencies_ms, 50.0);
    m.note(
        "telemetry.trace_overhead_pct",
        ratio(p50(traced) - p50(untraced), p50(untraced)) * 100.0,
        "%",
        format!(
            "{} p50 traced {:.4} ms vs untraced {:.4} ms",
            workload.name(),
            p50(traced),
            p50(untraced)
        ),
    );
}

/// Median milliseconds of `delta_since` against an empty store (a full
/// transfer) and against an identical copy (a gossip tick with nothing new).
fn delta_timings(store: &KnowledgeStore) -> (f64, f64) {
    let empty = KnowledgeStore::new();
    let copy = store.clone();
    let time = |baseline: &KnowledgeStore| {
        let runs: Vec<f64> = (0..DELTA_REPS)
            .map(|_| {
                let started = Instant::now();
                black_box(black_box(store).delta_since(black_box(baseline)));
                started.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&runs)
    };
    (time(&empty), time(&copy))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "auditbench: {e}\nusage: auditbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("auditbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    outcome.metrics.print();
    println!(
        "  {:<34} {:>14.4} {:<12} {} of {} operations",
        "failed_ratio",
        ratio(outcome.failures.len() as f64, outcome.attempted as f64),
        "ratio",
        outcome.failures.len(),
        outcome.attempted
    );
    for failure in outcome.failures.iter().take(5) {
        eprintln!("failed: {failure}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failures.is_empty(),
        outcome.attempted,
        outcome.failures.len(),
        outcome.metrics.json()
    );
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
