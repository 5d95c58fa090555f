//! One giant audit, sharded inside: the scale-out tour.
//!
//! A single high-arity tenant — Intersectional-Coverage over gender × race
//! × age (24 cells, 60 lattice patterns) on one simulated crowd platform —
//! is run at intra-job shard counts 1, 2, 4 and 8: the store is lock-striped
//! `s` ways and the super-group scan fans out over `s` worker threads
//! *inside the one job*. The audit's verdicts, MUPs and logical ledger are
//! asserted byte-identical across all four runs; only the wall-clock moves,
//! and it must improve monotonically from 1 shard through 4.
//!
//! The tour closes with the dense-lattice `mups_from_counts` against the
//! historical `HashMap`-keyed baseline on a 3-attribute schema — the dense
//! path must win.
//!
//! ```sh
//! cargo run --release -p cvg-examples --bin giant_audit
//! ```

use coverage_core::mup::FullGroupCounts;
use coverage_core::prelude::*;
use coverage_service::{AuditKind, AuditService, JobId, JobSpec, JobStatus, ServiceConfig};
use crowd_sim::{MTurkSim, PoolConfig, QualityControl, WorkerPool};
use cvg_bench::scenarios::{giant_audit_counts, giant_audit_schema};
use dataset_sim::{Dataset, DatasetBuilder};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const SEED: u64 = 33;
const TAU: usize = 50;
// Sleep-dominated rounds: the shard-scaling gaps grow with this latency
// while scheduler noise does not, which is what keeps the monotonicity
// asserts below stable on slow or loaded CI runners.
const ROUND_LATENCY: Duration = Duration::from_micros(2500);
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn platform(data: &Dataset) -> MTurkSim<'_, Dataset> {
    let mut rng = SmallRng::seed_from_u64(SEED);
    let workers = WorkerPool::generate(&PoolConfig::default(), &mut rng);
    MTurkSim::new_deterministic(
        data,
        giant_audit_schema(),
        workers,
        QualityControl::with_rating(),
        SEED,
    )
}

/// Runs the one giant audit with `shards` store stripes and `shards`
/// intra-job scan threads; returns (outcome JSON, ledger, wall ms, reuse).
fn run_sharded(
    data: &Dataset,
    shards: usize,
) -> (
    String,
    coverage_core::ledger::TaskLedger,
    u64,
    coverage_core::memo::ReuseStats,
) {
    let mut service = AuditService::new(ServiceConfig {
        workers: 1, // one runner: all parallelism is *inside* the job
        round_latency: ROUND_LATENCY,
        store_shards: shards,
        ..ServiceConfig::default()
    });
    service.submit(
        JobSpec::new(
            "census/intersectional",
            data.all_ids(),
            AuditKind::IntersectionalCoverage {
                schema: giant_audit_schema(),
            },
        )
        .tau(TAU)
        .seed(5)
        .intra_parallelism(shards),
    );
    let (report, _platform) = service.run(platform(data));
    let job = report.job(JobId(0)).expect("job reported");
    assert_eq!(job.status, JobStatus::Done, "{}", report.to_json());
    let outcome =
        serde_json::to_string(job.outcome.as_ref().expect("outcome")).expect("outcome serializes");
    (outcome, job.ledger, report.wall_ms, job.reuse)
}

fn main() {
    let mut rng = SmallRng::seed_from_u64(SEED);
    let data = DatasetBuilder::new(giant_audit_schema())
        .counts(&giant_audit_counts())
        .build(&mut rng);
    println!(
        "=== one giant audit: {} objects, {} cells, tau {} ===",
        data.len(),
        giant_audit_counts().len(),
        TAU
    );

    let mut walls: Vec<(usize, u64)> = Vec::new();
    let mut baseline: Option<(String, coverage_core::ledger::TaskLedger)> = None;
    println!(
        "{:<8} {:>9} {:>9} {:>10} {:>10}",
        "shards", "wall ms", "tasks", "reuse hits", "forwarded"
    );
    for shards in SHARD_COUNTS {
        let (outcome, ledger, wall_ms, reuse) = run_sharded(&data, shards);
        println!(
            "{:<8} {:>9} {:>9} {:>10} {:>10}",
            shards,
            wall_ms,
            ledger.total_tasks(),
            reuse.hits,
            reuse.forwarded
        );
        match &baseline {
            None => baseline = Some((outcome, ledger)),
            Some((base_outcome, base_ledger)) => {
                assert_eq!(
                    &outcome, base_outcome,
                    "{shards} shards changed the audit outcome"
                );
                assert_eq!(
                    &ledger, base_ledger,
                    "{shards} shards changed the logical ledger"
                );
            }
        }
        walls.push((shards, wall_ms));
    }

    // The acceptance bar: wall-clock improves monotonically 1 → 2 → 4
    // shards (8 may plateau once items run out; it must at least not
    // regress past the 2-shard mark).
    assert!(
        walls[1].1 < walls[0].1,
        "2 shards ({} ms) must beat 1 shard ({} ms)",
        walls[1].1,
        walls[0].1
    );
    assert!(
        walls[2].1 < walls[1].1,
        "4 shards ({} ms) must beat 2 shards ({} ms)",
        walls[2].1,
        walls[1].1
    );
    assert!(
        walls[3].1 <= walls[1].1,
        "8 shards ({} ms) must not regress past 2 shards ({} ms)",
        walls[3].1,
        walls[1].1
    );
    let speedup = walls[0].1 as f64 / walls[2].1.max(1) as f64;
    println!("single-audit speedup at 4 shards: {speedup:.1}x");

    // Dense lattice vs the HashMap baseline on a 3-attribute schema: same
    // MUPs, and the dense path must be measurably faster.
    let schema = AttributeSchema::new(vec![
        Attribute::new("a", ["0", "1", "2", "3", "4"]).expect("attribute"),
        Attribute::new("b", ["0", "1", "2", "3", "4"]).expect("attribute"),
        Attribute::new("c", ["0", "1", "2", "3", "4"]).expect("attribute"),
    ])
    .expect("schema");
    let graph = PatternGraph::new(&schema);
    let counts: FullGroupCounts = graph
        .full_groups()
        .iter()
        .enumerate()
        .map(|(i, p)| (*p, if i % 7 == 0 { 12 } else { 80 + i % 40 }))
        .collect();
    const ITERS: u32 = 200;
    let started = Instant::now();
    let mut dense_mups = Vec::new();
    for _ in 0..ITERS {
        dense_mups = mups_from_counts(&schema, &counts, TAU);
    }
    let dense_ns = started.elapsed().as_nanos() as u64;
    let started = Instant::now();
    let mut baseline_mups = Vec::new();
    for _ in 0..ITERS {
        baseline_mups = mups_from_counts_baseline(&schema, &counts, TAU);
    }
    let hashmap_ns = started.elapsed().as_nanos() as u64;
    assert_eq!(dense_mups, baseline_mups, "detectors must agree");
    assert!(
        dense_ns < hashmap_ns,
        "dense mups_from_counts ({dense_ns} ns) must beat the HashMap baseline ({hashmap_ns} ns)"
    );
    println!(
        "mups_from_counts on 5x5x5 ({} patterns): dense {:.2} ms vs hashmap {:.2} ms ({:.1}x) over {ITERS} iters",
        graph.len(),
        dense_ns as f64 / 1e6,
        hashmap_ns as f64 / 1e6,
        hashmap_ns as f64 / dense_ns.max(1) as f64,
    );
}
