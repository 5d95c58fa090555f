//! Concurrent audits: nine tenants share one crowd platform.
//!
//! A FERET-scale face dataset (gender × skin) is audited by nine jobs at
//! once — group, base, multiple, intersectional and classifier-assisted
//! coverage at several thresholds — through the `coverage-service`
//! orchestrator: one deterministic `MTurkSim`, one shared answer cache, one
//! batching dispatcher, eight worker threads.
//!
//! The tour then re-runs the same workload (a) serially on one worker and
//! (b) as nine *isolated* one-job runs against fresh platforms, to show the
//! two wins of serving audits as a platform:
//!
//! * wall-clock speedup from overlapping the crowd's round-trip latency;
//! * fewer HITs published, because the shared cache pays for each repeated
//!   question once platform-wide.
//!
//! ```sh
//! cargo run -p cvg-examples --bin concurrent_audits
//! ```

use coverage_core::prelude::*;
use coverage_service::{AuditKind, AuditService, JobSpec, ServiceConfig};
use crowd_sim::{MTurkSim, PoolConfig, QualityControl, WorkerPool};
use dataset_sim::{Dataset, DatasetBuilder};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Duration;

const SEED: u64 = 2024;
const ROUND_LATENCY: Duration = Duration::from_micros(500);
/// HITs the shared platform published for this workload under PR 1's
/// exact-match answer cache — the baseline the object-level
/// `KnowledgeStore` has to beat.
const PR1_EXACT_MATCH_HITS: u64 = 1306;

fn schema() -> AttributeSchema {
    AttributeSchema::new(vec![
        Attribute::binary("gender", "male", "female").expect("attribute"),
        Attribute::binary("skin", "light", "dark").expect("attribute"),
    ])
    .expect("schema")
}

fn platform(data: &Dataset) -> MTurkSim<'_, Dataset> {
    let mut rng = SmallRng::seed_from_u64(SEED);
    let workers = WorkerPool::generate(&PoolConfig::default(), &mut rng);
    MTurkSim::new_deterministic(data, schema(), workers, QualityControl::with_rating(), SEED)
}

fn workload(data: &Dataset) -> Vec<JobSpec> {
    let schema = schema();
    let pool = data.all_ids();
    let female = Target::group(schema.pattern(&[("gender", "female")]).expect("pattern"));
    let dark = Target::group(schema.pattern(&[("skin", "dark")]).expect("pattern"));
    // A simulated high-precision gender classifier: its predicted set is the
    // true female population minus a tail (precision 1.0, recall < 1).
    let predicted: Vec<ObjectId> = data
        .ids()
        .filter(|id| female.matches(&data.labels_of(*id)))
        .take(170)
        .collect();
    vec![
        JobSpec::new(
            "press/female-50",
            pool.clone(),
            AuditKind::GroupCoverage {
                target: female.clone(),
            },
        )
        .seed(1),
        JobSpec::new(
            "press/dark-50",
            pool.clone(),
            AuditKind::GroupCoverage {
                target: dark.clone(),
            },
        )
        .seed(2),
        JobSpec::new(
            "ngo/base-female",
            pool[..400].to_vec(),
            AuditKind::BaseCoverage {
                target: female.clone(),
            },
        )
        .tau(20)
        .seed(3),
        JobSpec::new(
            "lab/genders",
            pool.clone(),
            AuditKind::MultipleCoverage {
                groups: vec![
                    schema.pattern(&[("gender", "male")]).expect("pattern"),
                    schema.pattern(&[("gender", "female")]).expect("pattern"),
                ],
            },
        )
        .seed(4),
        JobSpec::new(
            "lab/intersections",
            pool.clone(),
            AuditKind::IntersectionalCoverage {
                schema: schema.clone(),
            },
        )
        .seed(5),
        JobSpec::new(
            "vendor/classifier",
            pool.clone(),
            AuditKind::ClassifierCoverage {
                target: female.clone(),
                predicted,
            },
        )
        .seed(6),
        JobSpec::new(
            "press/female-30",
            pool.clone(),
            AuditKind::GroupCoverage {
                target: female.clone(),
            },
        )
        .tau(30)
        .seed(7),
        JobSpec::new(
            "lab/skins",
            pool.clone(),
            AuditKind::MultipleCoverage {
                groups: vec![
                    schema.pattern(&[("skin", "light")]).expect("pattern"),
                    schema.pattern(&[("skin", "dark")]).expect("pattern"),
                ],
            },
        )
        .seed(8),
        JobSpec::new(
            "press/dark-80",
            pool,
            AuditKind::GroupCoverage { target: dark },
        )
        .tau(80)
        .seed(9),
    ]
}

fn run(
    data: &Dataset,
    workers: usize,
) -> (coverage_service::ServiceReport, crowd_sim::PlatformStats) {
    let mut service = AuditService::new(ServiceConfig {
        workers,
        round_latency: ROUND_LATENCY,
        ..ServiceConfig::default()
    });
    for spec in workload(data) {
        service.submit(spec);
    }
    let (report, platform) = service.run(platform(data));
    (report, *platform.stats())
}

fn main() {
    let mut rng = SmallRng::seed_from_u64(SEED);
    // male-light, male-dark, female-light, female-dark: 215 females and 48
    // dark-skinned members in 1 600 images (FERET-flavoured imbalance).
    let data = DatasetBuilder::new(schema())
        .counts(&[1337, 28, 195, 20])
        .build(&mut rng);

    println!("=== nine tenants, one platform (8 workers) ===");
    let (shared, shared_stats) = run(&data, 8);
    println!(
        "{:<22} {:<24} {:<10} {:>7} {:>12} {:>9}",
        "job", "algorithm", "status", "tasks", "crowd tasks", "wall ms"
    );
    for job in &shared.jobs {
        println!(
            "{:<22} {:<24} {:<10} {:>7} {:>12} {:>9}",
            job.name,
            job.algorithm,
            format!("{:?}", job.status),
            job.ledger.total_tasks(),
            job.crowd_tasks,
            job.wall_ms,
        );
    }
    println!(
        "\nlogical work asked: {} | crowd tasks billed: {} | cache hits: {} ({} misses)",
        shared.total_logical.total_tasks(),
        shared.crowd_tasks,
        shared.cache_hits,
        shared.cache_misses,
    );
    println!(
        "knowledge store: {} answered from facts, {} narrowed ({} objects pruned), {} forwarded",
        shared.reuse.hits,
        shared.reuse.narrowed,
        shared.reuse.objects_pruned,
        shared.reuse.forwarded,
    );
    println!(
        "dispatcher: {} rounds, {} coalesced point HITs ({} labels), max {} questions/round",
        shared.dispatch.rounds,
        shared.dispatch.point_hits,
        shared.dispatch.points_served,
        shared.dispatch.max_round_questions,
    );

    println!("\n=== the same nine jobs, serially (1 worker) ===");
    let (serial, _) = run(&data, 1);
    let speedup = serial.wall_ms as f64 / shared.wall_ms.max(1) as f64;
    println!(
        "concurrent: {} ms | serial: {} ms | speedup: {speedup:.1}x",
        shared.wall_ms, serial.wall_ms
    );

    println!("\n=== the same nine jobs, isolated (no shared platform) ===");
    let mut isolated_hits = 0u64;
    for spec in workload(&data) {
        let mut service = AuditService::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        service.submit(spec);
        let (_report, platform) = service.run(platform(&data));
        isolated_hits += platform.stats().hits_published;
    }
    println!(
        "HITs published — shared platform: {} | isolated runs: {} | saved: {}",
        shared_stats.hits_published,
        isolated_hits,
        isolated_hits.saturating_sub(shared_stats.hits_published),
    );
    assert!(
        shared_stats.hits_published < isolated_hits,
        "the shared cache must reduce published HITs"
    );
    println!(
        "vs PR 1 exact-match cache ({PR1_EXACT_MATCH_HITS} HITs): {} HITs, {} fewer ({:.1}% reduction)",
        shared_stats.hits_published,
        PR1_EXACT_MATCH_HITS.saturating_sub(shared_stats.hits_published),
        100.0 * (PR1_EXACT_MATCH_HITS.saturating_sub(shared_stats.hits_published)) as f64
            / PR1_EXACT_MATCH_HITS as f64,
    );
    // `hits_published` is mildly schedule-dependent (narrowing and point
    // coalescing vary with thread timing), but the assert cannot realistically
    // flake: even with point coalescing fully degraded (every one of the ~440
    // labels its own HIT instead of ~190 coalesced ones) the total stays
    // under the baseline, and observed run-to-run variance is single-digit.
    assert!(
        shared_stats.hits_published < PR1_EXACT_MATCH_HITS,
        "the knowledge store must beat the exact-match baseline ({} vs {PR1_EXACT_MATCH_HITS})",
        shared_stats.hits_published,
    );
}
