//! Fleet scale-out of the census giant audit: the consistent-hash ring
//! partitions the high-arity census pool into M disjoint shards, one
//! Intersectional-Coverage job each, and an M-node fleet runs the shards
//! in parallel where a single node runs them back to back.
//!
//! Both arms use the *same* per-job configuration (one worker per node,
//! 8 store shards, the same simulated platform round-trip), so the only
//! measured variable is fleet parallelism. The shards are disjoint, so
//! the crowd bill may grow by at most one pool-independent question per
//! extra node — pinned as an assertion — and the M=4 fleet must beat the
//! single node on wall-clock. The `{m, wall_ms, crowd_tasks}` curve goes
//! to stdout.
//!
//! ```sh
//! cargo bench -q -p cvg-bench --bench fleet
//! ```

use coverage_core::prelude::*;
use coverage_service::fleet::{FleetJobId, FleetNode, FleetRouter, HashRing};
use coverage_service::{AuditKind, JobSpec, JobStatus, ServiceConfig};
use cvg_bench::scenarios::{giant_audit_counts, giant_audit_schema};
use dataset_sim::Dataset;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 77;
const TAU: usize = 50;
const RING_REPLICAS: usize = 32;
const ROUND_LATENCY: Duration = Duration::from_micros(300);
/// Fleet sizes measured; the last one is the headline M=4 arm.
const FLEETS: [usize; 3] = [1, 2, 4];
/// The ring every arm shards the pool with — the M=4 fleet's own ring,
/// so in that arm every job lands on the node that owns its entire pool.
const SHARDS: usize = 4;

fn dataset() -> Dataset {
    let mut rng = SmallRng::seed_from_u64(SEED);
    dataset_sim::DatasetBuilder::new(giant_audit_schema())
        .counts(&giant_audit_counts())
        .build(&mut rng)
}

/// The census pool cut into [`SHARDS`] disjoint sub-pools by ring
/// ownership, one Intersectional-Coverage job per shard.
fn shard_specs(data: &Dataset) -> Vec<JobSpec> {
    let ring = HashRing::new(SHARDS, RING_REPLICAS);
    let mut pools: Vec<Vec<ObjectId>> = vec![Vec::new(); SHARDS];
    for object in data.all_ids() {
        pools[ring.owner_of(object)].push(object);
    }
    pools
        .into_iter()
        .enumerate()
        .map(|(shard, pool)| {
            assert!(!pool.is_empty(), "ring left shard {shard} empty");
            JobSpec::new(
                format!("census/shard-{shard}"),
                pool,
                AuditKind::IntersectionalCoverage {
                    schema: giant_audit_schema(),
                },
            )
            .tau(TAU)
            .seed(shard as u64)
        })
        .collect()
}

/// One measured arm: the four shard jobs routed over an `m`-node fleet.
/// Returns `(wall_ms, crowd_tasks)` — wall-clock around submit→drain
/// only, node startup and teardown excluded.
fn run_fleet(data: &Arc<Dataset>, m: usize) -> (u64, u64) {
    let nodes: Vec<FleetNode<SharedTruthSource<Dataset>>> = (0..m)
        .map(|i| {
            FleetNode::start(
                format!("node{i}"),
                "127.0.0.1:0",
                ServiceConfig {
                    workers: 1,
                    store_shards: 8,
                    round_latency: ROUND_LATENCY,
                    anti_entropy_ms: 500,
                    ..ServiceConfig::default()
                },
                SharedTruthSource::new(Arc::clone(data)),
            )
            .expect("fleet node binds")
        })
        .collect();
    let addrs: Vec<SocketAddr> = nodes.iter().map(FleetNode::addr).collect();
    if m > 1 {
        for (i, node) in nodes.iter().enumerate() {
            node.join(
                (0..m)
                    .filter(|j| *j != i)
                    .map(|j| addrs[j])
                    .collect::<Vec<_>>(),
            );
        }
    }
    let router = FleetRouter::new(addrs, RING_REPLICAS);

    let started = Instant::now();
    let placed: Vec<FleetJobId> = shard_specs(data)
        .iter()
        .map(|spec| router.submit(spec).expect("fleet accepts the shard job"))
        .collect();
    router.drain();
    for id in &placed {
        let report = router
            .report(*id)
            .expect("owning node reachable")
            .expect("drained fleet has terminal reports");
        assert_eq!(report.status, JobStatus::Done, "{}", report.to_json());
    }
    let wall_ms = started.elapsed().as_millis() as u64;

    let spend = nodes
        .into_iter()
        .map(|node| node.shutdown().expect("first shutdown").0.crowd_tasks)
        .sum();
    (wall_ms, spend)
}

/// One run per fleet size, each timed around its submit→drain window
/// only, with the spend and wall-clock invariants asserted.
fn main() {
    let data = Arc::new(dataset());
    let mut walls = Vec::new();
    let mut spends = Vec::new();
    for m in FLEETS {
        let (wall_ms, crowd_tasks) = run_fleet(&data, m);
        println!("fleet m={m}: wall {wall_ms} ms, {crowd_tasks} crowd tasks");
        walls.push(wall_ms);
        spends.push(crowd_tasks);
    }
    // Disjoint shards share no object, so the only reuse the partition
    // can lose is on pool-independent questions — and the census audit
    // asks exactly one, which the single shared store answers once while
    // every extra node re-buys it. The bill is pinned to that bound: at
    // most m-1 extra tasks on a five-figure spend, never more.
    for (m, spend) in FLEETS.iter().zip(&spends) {
        assert!(
            *spend <= spends[0] + (*m as u64 - 1),
            "an {m}-node fleet outspent the single node by more than its \
             one pool-independent question per node: {spend} vs {}",
            spends[0]
        );
    }
    // The headline: the M=4 fleet beats the single 8-shard node on
    // wall-clock for the same giant audit.
    assert!(
        walls[FLEETS.len() - 1] < walls[0],
        "the 4-node fleet must beat the single node: {walls:?}"
    );
    println!(
        "fleet: census giant audit ({} objects, tau {TAU}, {SHARDS} shards) wall {walls:?} ms \
         at M={FLEETS:?}, spend {spends:?}",
        data.all_ids().len(),
    );
}
