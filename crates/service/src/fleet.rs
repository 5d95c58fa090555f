//! The daemon fleet: N cooperating [`AuditDaemon`]s behind one router.
//!
//! One process is a ceiling; facts are keyed by [`ObjectId`] and verdicts
//! compose, so coverage audits distribute. This module turns independent
//! daemons into a fleet with three pieces:
//!
//! * [`HashRing`] — a consistent-hash ring over `ObjectId`s. Each node is
//!   *authoritative* for the objects that hash to it, which gives the
//!   router a data-locality signal and the bench a way to partition a
//!   giant pool into per-node shards. More virtual points per node
//!   (the `replicas` argument of [`HashRing::new`]) smooth the shard sizes.
//! * [`FleetNode`] — one daemon + its HTTP front door + an **anti-entropy
//!   loop**: every [`ServiceConfig::anti_entropy_ms`] the node diffs its
//!   fact base against what it last shipped each peer
//!   ([`KnowledgeStore::delta_since`]) and `POST`s the fresh facts to the
//!   peer's `/fleet/delta`. Facts a peer already paid the crowd for are
//!   never bought twice; periodically the loop re-ships everything
//!   (a full-sync round), so a peer that restarted — and therefore lost
//!   the *seeded* facts its own WAL never held — reconverges without any
//!   coordination.
//! * [`FleetRouter`] — a thin client-side front door: places each
//!   [`JobSpec`] on the node owning most of its pool (ties broken by
//!   tenant load, then total load), proxies status/report/watch to the
//!   owning node, and — when the owner is down — **forwards** the job to
//!   the next-best node instead of blocking (counted as
//!   `audit_fleet_forwarded_total`).
//!
//! Degraded mode is availability-first throughout: a down peer means the
//! survivors answer residual questions from the crowd (duplicate spend,
//! bounded by the full-sync cadence — never a stall), `/readyz` shows the
//! hole as [`PeerSummary`](crate::PeerSummary) rows without flipping
//! `ready`, and a restarted node recovers its shard from its own
//! WAL/snapshot ([`ServiceConfig::data_dir`]) before rejoining the
//! exchange. The fleet-equivalence test plane
//! (`tests/tests/fleet_equivalence.rs`) pins the contract: any fleet
//! topology is verdict-identical to a single node, and fleet crowd spend
//! never exceeds the same nodes run in isolation.

use crate::daemon::AuditDaemon;
use crate::http::{http_request, HttpClient, HttpServer};
use crate::job::{JobId, JobReport, JobSpec};
use crate::service::{lock, ServiceConfig, ServiceReport};
use crate::telemetry::{tenant_of, Telemetry};
use coverage_core::engine::{BatchAnswerSource, ObjectId};
use coverage_core::fingerprint::fnv1a;
use coverage_core::memo::KnowledgeStore;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Anti-entropy rounds between **full-sync** rounds, where the loop
/// forgets what it shipped and re-sends its whole fact base. Deltas alone
/// converge only while every peer keeps what it was sent; a peer that
/// crashed and recovered from its own WAL has silently lost the *seeded*
/// facts (they bypass its WAL by design), and the periodic full ship
/// repairs exactly that hole. Between crashes full syncs are cheap: a
/// re-imported fact is a no-op on the receiver.
const FULL_SYNC_EVERY: u64 = 8;

/// How long the router sleeps between `/stats` polls while draining.
const DRAIN_POLL: Duration = Duration::from_millis(5);

/// Ring placement hash: FNV-1a over the little-endian bytes, fixed by its
/// definition, so every process and release computes the same ring —
/// nodes and router agree on ownership without exchanging it.
fn hash_one(value: u64) -> u64 {
    fnv1a(value.to_le_bytes())
}

/// A consistent-hash ring over [`ObjectId`]s: `replicas` virtual points
/// per node, ownership by successor point. Placement is deterministic
/// (FNV-1a), so every fleet participant computes the same ring
/// from `(nodes, replicas)` alone.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, node)` sorted by point — binary-searched per lookup.
    points: Vec<(u64, usize)>,
    nodes: usize,
}

impl HashRing {
    /// A ring of `nodes` members with `replicas` virtual points each.
    ///
    /// # Panics
    /// Panics when either count is zero — an empty ring owns nothing.
    pub fn new(nodes: usize, replicas: usize) -> Self {
        assert!(nodes > 0, "a ring needs at least one node");
        assert!(replicas > 0, "a ring needs at least one point per node");
        let mut points = Vec::with_capacity(nodes * replicas);
        for node in 0..nodes {
            for replica in 0..replicas {
                points.push((hash_one(((node as u64) << 32) | replica as u64), node));
            }
        }
        points.sort_unstable();
        Self { points, nodes }
    }

    /// How many nodes the ring places over.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The node authoritative for `object`: the first ring point at or
    /// after the object's hash, wrapping at the top.
    pub fn owner_of(&self, object: ObjectId) -> usize {
        let point = hash_one(u64::from(object.0));
        let index = self
            .points
            .partition_point(|(p, _)| *p < point)
            .checked_rem(self.points.len())
            .unwrap_or(0);
        self.points[index].1
    }
}

/// The `POST /fleet/delta` wire body: one anti-entropy shipment — the
/// facts `from` holds that it believes the receiver doesn't.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetDelta {
    /// The sending node's name — the `peer` label of
    /// `audit_fleet_deltas_total` on the receiver.
    pub from: String,
    /// The shipped facts. Seeded into the receiver's store exactly like
    /// recovered ones: no reuse-stats movement, no WAL frames (the facts
    /// are re-derivable from the *sender's* WAL).
    pub store: KnowledgeStore,
}

/// One fleet member: an [`AuditDaemon`], its [`HttpServer`] front door,
/// and (once [`FleetNode::join`]ed) the anti-entropy thread shipping
/// [`KnowledgeStore`] deltas to its peers.
///
/// ```no_run
/// use coverage_core::prelude::*;
/// use coverage_service::fleet::FleetNode;
/// use coverage_service::ServiceConfig;
/// use std::sync::Arc;
///
/// let truth = Arc::new(VecGroundTruth::new(vec![Labels::single(1); 10]));
/// let node = FleetNode::start(
///     "node0",
///     "127.0.0.1:0",
///     ServiceConfig::default(),
///     SharedTruthSource::new(truth),
/// )
/// .unwrap();
/// println!("serving on {}", node.addr());
/// node.shutdown();
/// ```
#[derive(Debug)]
pub struct FleetNode<S> {
    name: String,
    daemon: Arc<AuditDaemon<S>>,
    server: HttpServer,
    cadence: Duration,
    stop: Arc<AtomicBool>,
    gossip: Mutex<Option<JoinHandle<()>>>,
}

impl<S: BatchAnswerSource + Send + 'static> FleetNode<S> {
    /// Starts one fleet member: the daemon, its HTTP front door on
    /// `addr` (port `0` for an OS-assigned one — see [`FleetNode::addr`])
    /// and, when [`ServiceConfig::fleet_peers`] is non-empty, the
    /// anti-entropy loop toward those peers. With no configured peers the
    /// node serves solo until [`FleetNode::join`] — the two-phase start
    /// that port-`0` topologies need (peer addresses don't exist until
    /// every node has bound).
    pub fn start(
        name: impl Into<String>,
        addr: impl ToSocketAddrs,
        config: ServiceConfig,
        source: S,
    ) -> io::Result<Self> {
        let name = name.into();
        let peers = config.fleet_peers.clone();
        let cadence = Duration::from_millis(config.anti_entropy_ms);
        let daemon = Arc::new(AuditDaemon::start(config, source));
        let server = HttpServer::serve(addr, Arc::clone(&daemon))?;
        let node = Self {
            name,
            daemon,
            server,
            cadence,
            stop: Arc::new(AtomicBool::new(false)),
            gossip: Mutex::new(None),
        };
        if !peers.is_empty() {
            let mut resolved = Vec::with_capacity(peers.len());
            for peer in &peers {
                resolved.push(peer.to_socket_addrs()?.next().ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("fleet peer `{peer}` resolves to no address"),
                    )
                })?);
            }
            node.join(resolved);
        }
        Ok(node)
    }

    /// The bound address of this node's HTTP front door.
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// This node's name — the `from` it stamps on outgoing deltas.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The wrapped daemon, for direct (in-process) inspection: stats,
    /// store export, telemetry. Remote callers go through the HTTP door.
    pub fn daemon(&self) -> &Arc<AuditDaemon<S>> {
        &self.daemon
    }

    /// Starts the anti-entropy loop toward `peers` (each the HTTP front
    /// door of another fleet node). Idempotent join is not supported —
    /// the peer set is fixed for the node's lifetime.
    ///
    /// # Panics
    /// Panics when the node already gossips (started with configured
    /// peers, or `join` called twice).
    pub fn join(&self, peers: Vec<SocketAddr>) {
        let mut slot = lock(&self.gossip);
        assert!(slot.is_none(), "fleet node `{}` already joined", self.name);
        let daemon = Arc::clone(&self.daemon);
        let name = self.name.clone();
        let cadence = self.cadence;
        let stop = Arc::clone(&self.stop);
        *slot = Some(std::thread::spawn(move || {
            anti_entropy_loop(&daemon, &name, &peers, cadence, &stop);
        }));
    }

    /// Graceful stop: ends the anti-entropy loop, closes the HTTP door,
    /// then drains and joins the daemon (returning its lifetime report
    /// and the answer source, as [`AuditDaemon::shutdown`] does).
    pub fn shutdown(self) -> Option<(ServiceReport, S)> {
        self.stop.store(true, Ordering::Release);
        if let Some(gossip) = lock(&self.gossip).take() {
            let _ = gossip.join();
        }
        self.server.shutdown();
        self.daemon.shutdown()
    }

    /// Abrupt stop, for chaos tests: cancels every job, ends the gossip
    /// loop and the HTTP door, and drops the daemon **without** a
    /// graceful shutdown — like a crash, no final snapshot is cut, so a
    /// restart exercises the WAL-replay recovery path. In-flight workers
    /// retire on their own once their cancelled jobs notice.
    pub fn kill(self) {
        self.stop.store(true, Ordering::Release);
        for job in self.daemon.jobs() {
            self.daemon.cancel(job.id);
        }
        if let Some(gossip) = lock(&self.gossip).take() {
            let _ = gossip.join();
        }
        self.server.shutdown();
        // Dropping the last daemon Arc flags the workers down without
        // joining them — the crash analogue (see `AuditDaemon`'s `Drop`).
    }
}

/// The per-peer anti-entropy exchange. For each peer the loop remembers
/// the last store it successfully shipped; each round ships only
/// [`KnowledgeStore::delta_since`] that baseline (empty delta ⇒ a cheap
/// `/healthz` probe keeps the peer state fresh). Every
/// [`FULL_SYNC_EVERY`] rounds the baseline resets, re-shipping everything
/// — the repair path for peers that restarted and lost seeded facts.
fn anti_entropy_loop<S: BatchAnswerSource + Send + 'static>(
    daemon: &Arc<AuditDaemon<S>>,
    name: &str,
    peers: &[SocketAddr],
    cadence: Duration,
    stop: &AtomicBool,
) {
    let mut shipped: Vec<KnowledgeStore> = vec![KnowledgeStore::new(); peers.len()];
    let mut round: u64 = 0;
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(cadence);
        if stop.load(Ordering::Acquire) {
            break;
        }
        round += 1;
        let snapshot = daemon.export_store();
        for (index, peer) in peers.iter().enumerate() {
            if round.is_multiple_of(FULL_SYNC_EVERY) {
                shipped[index] = KnowledgeStore::new();
            }
            let delta = snapshot.delta_since(&shipped[index]);
            let outcome = if delta.is_empty() {
                http_request(*peer, "GET", "/healthz", None).map(|(code, _)| code == 200)
            } else {
                let body = serde_json::to_string(&FleetDelta {
                    from: name.to_string(),
                    store: delta,
                })
                .expect("a knowledge store always serializes");
                http_request(*peer, "POST", "/fleet/delta", Some(&body)).map(|(code, _)| {
                    if code == 200 {
                        shipped[index] = snapshot.clone();
                    }
                    code == 200
                })
            };
            daemon.set_peer_state(&peer.to_string(), outcome.unwrap_or(false));
        }
    }
}

/// One job as the router tracks it: which node it landed on, and the
/// node-local [`JobId`] there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetJobId {
    /// Index of the node (into the router's node list) running the job.
    pub node: usize,
    /// The node-local job id.
    pub id: JobId,
}

/// The fleet's thin front door: places jobs by data locality and tenant
/// load, proxies per-job reads to the owning node, and forwards around
/// down nodes instead of blocking on them. Purely a client — it owns no
/// socket and no thread, so anything that can reach the nodes can run
/// one.
#[derive(Debug)]
pub struct FleetRouter {
    nodes: Vec<SocketAddr>,
    ring: HashRing,
    /// Jobs placed so far, per node (outer) and tenant (inner) — the
    /// load half of the placement key.
    placed: Mutex<Vec<HashMap<String, u64>>>,
    telemetry: Telemetry,
}

impl FleetRouter {
    /// A router over `nodes` (each a fleet node's HTTP front door), with
    /// `ring_replicas` virtual points per node — use the same value
    /// wherever a [`HashRing`] partitions the pool, so router and shards
    /// agree on ownership.
    ///
    /// # Panics
    /// Panics on an empty node list or zero replicas.
    pub fn new(nodes: Vec<SocketAddr>, ring_replicas: usize) -> Self {
        let ring = HashRing::new(nodes.len(), ring_replicas);
        let placed = Mutex::new(vec![HashMap::new(); nodes.len()]);
        Self {
            nodes,
            ring,
            placed,
            telemetry: Telemetry::new(16),
        }
    }

    /// The router's own telemetry plane — carries
    /// `audit_fleet_forwarded_total`, the degraded-mode placement tally.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The ring the router places with.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Node indices best-first for `spec`: most pool objects owned
    /// (data locality), then fewest jobs of this tenant already placed
    /// (tenant load), then fewest jobs overall, then lowest index —
    /// a total, deterministic order, which is what makes fleet runs
    /// reproducible enough to compare against single-node runs.
    pub fn placement(&self, spec: &JobSpec) -> Vec<usize> {
        let mut locality = vec![0u64; self.nodes.len()];
        for object in &spec.pool {
            locality[self.ring.owner_of(*object)] += 1;
        }
        let tenant = tenant_of(&spec.name);
        let placed = lock(&self.placed);
        let mut order: Vec<usize> = (0..self.nodes.len()).collect();
        order.sort_by_key(|&node| {
            let by_tenant = placed[node].get(tenant).copied().unwrap_or(0);
            let total: u64 = placed[node].values().sum();
            (Reverse(locality[node]), by_tenant, total, node)
        });
        order
    }

    /// Submits `spec` to its best-placed node, falling back down the
    /// placement order when a node is unreachable or shutting down (the
    /// availability-first contract: a down peer costs locality, never
    /// progress). Every fallback hop is one `audit_fleet_forwarded_total`
    /// tick. Errors only when every node refuses.
    pub fn submit(&self, spec: &JobSpec) -> io::Result<FleetJobId> {
        let body = serde_json::to_string(spec).map_err(io::Error::other)?;
        let tenant = tenant_of(&spec.name).to_string();
        let mut last_error = None;
        for (attempt, node) in self.placement(spec).into_iter().enumerate() {
            match http_request(self.nodes[node], "POST", "/jobs", Some(&body)) {
                Ok((201, reply)) => {
                    if attempt > 0 {
                        self.telemetry.record_fleet_forwarded();
                    }
                    *lock(&self.placed)[node].entry(tenant.clone()).or_insert(0) += 1;
                    let id = parse_submit_id(&reply)?;
                    return Ok(FleetJobId { node, id });
                }
                // A node mid-shutdown is as unavailable as a dead one —
                // degrade to the next candidate.
                Ok((503, _)) => last_error = Some(io::Error::other("node shutting down")),
                Ok((code, reply)) => {
                    return Err(io::Error::other(format!(
                        "fleet node {node} refused the spec: {code} {reply}"
                    )))
                }
                Err(e) => last_error = Some(e),
            }
        }
        Err(last_error
            .unwrap_or_else(|| io::Error::other("every fleet node refused the submission")))
    }

    /// Proxies `GET /jobs/{id}` to the owning node: the raw
    /// `(status code, body)`. `Err` when that node is unreachable — the
    /// caller decides whether to resubmit elsewhere (see the chaos half
    /// of `tests/tests/fleet_equivalence.rs`).
    pub fn job(&self, job: FleetJobId) -> io::Result<(u16, String)> {
        http_request(
            self.nodes[job.node],
            "GET",
            &format!("/jobs/{}", job.id.0),
            None,
        )
    }

    /// The job's terminal [`JobReport`], proxied from the owning node;
    /// `Ok(None)` while it is still queued or running.
    pub fn report(&self, job: FleetJobId) -> io::Result<Option<JobReport>> {
        let (code, body) = self.job(job)?;
        if code != 200 {
            return Err(io::Error::other(format!(
                "node {} answered {code} for job {}: {body}",
                job.node, job.id
            )));
        }
        serde_json::from_str::<JobSnapshot>(&body)
            .map(|snapshot| snapshot.report)
            .map_err(io::Error::other)
    }

    /// Proxies the chunked `GET /jobs/{id}/watch` stream from the owning
    /// node, returning the de-chunked ndjson once the job reaches a
    /// terminal state.
    pub fn watch(&self, job: FleetJobId) -> io::Result<String> {
        let mut client = HttpClient::connect(self.nodes[job.node])?;
        let (code, body) = client.request("GET", &format!("/jobs/{}/watch", job.id.0), None)?;
        if code != 200 {
            return Err(io::Error::other(format!(
                "node {} answered {code} for the watch stream",
                job.node
            )));
        }
        Ok(body)
    }

    /// Blocks until no **reachable** node has a job queued or running.
    /// Unreachable nodes are skipped — waiting on a dead peer would
    /// violate the availability-first contract (their lost jobs are the
    /// caller's to resubmit).
    pub fn drain(&self) {
        loop {
            let busy =
                self.nodes
                    .iter()
                    .any(|addr| match http_request(*addr, "GET", "/stats", None) {
                        Ok((200, body)) => serde_json::from_str::<QueueDepth>(&body)
                            .is_ok_and(|depth| depth.queued + depth.running > 0),
                        _ => false,
                    });
            if !busy {
                return;
            }
            std::thread::sleep(DRAIN_POLL);
        }
    }
}

/// The slice of a `201 {"id", "status"}` submit receipt the router needs.
#[derive(Deserialize)]
struct SubmitReceipt {
    id: JobId,
}

/// The slice of a `GET /jobs/{id}` body the router proxies.
#[derive(Deserialize)]
struct JobSnapshot {
    report: Option<JobReport>,
}

/// The slice of a `GET /stats` body the drain loop polls.
#[derive(Deserialize)]
struct QueueDepth {
    queued: u64,
    running: u64,
}

/// Pulls the [`JobId`] out of a `201 {"id", "status"}` submit receipt.
fn parse_submit_id(reply: &str) -> io::Result<JobId> {
    serde_json::from_str::<SubmitReceipt>(reply)
        .map(|receipt| receipt.id)
        .map_err(io::Error::other)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_ownership_is_total_and_stable() {
        let ring = HashRing::new(4, 32);
        for raw in 0..10_000u32 {
            let owner = ring.owner_of(ObjectId(raw));
            assert!(owner < 4);
            assert_eq!(owner, ring.owner_of(ObjectId(raw)), "stable per object");
            assert_eq!(
                owner,
                HashRing::new(4, 32).owner_of(ObjectId(raw)),
                "stable across ring instances"
            );
        }
    }

    #[test]
    fn ring_spreads_objects_roughly_evenly() {
        let ring = HashRing::new(4, 64);
        let mut counts = [0usize; 4];
        for raw in 0..40_000u32 {
            counts[ring.owner_of(ObjectId(raw))] += 1;
        }
        for (node, count) in counts.iter().enumerate() {
            assert!(
                (2_000..=25_000).contains(count),
                "node {node} owns a degenerate shard: {counts:?}"
            );
        }
    }

    #[test]
    fn adding_a_node_moves_a_bounded_slice_of_the_keyspace() {
        let before = HashRing::new(3, 64);
        let after = HashRing::new(4, 64);
        let total = 30_000u32;
        let moved = (0..total)
            .filter(|raw| {
                let old = before.owner_of(ObjectId(*raw));
                let new = after.owner_of(ObjectId(*raw));
                old != new
            })
            .count();
        // Consistent hashing's point: growing 3 → 4 nodes should move
        // about a quarter of the keys, not rehash the world.
        assert!(
            moved < (total as usize) / 2,
            "adding one node moved {moved}/{total} keys"
        );
    }

    /// Ring placement is part of the fleet's wire contract: nodes and
    /// routers built from different releases must agree on every owner.
    /// Pinned values come from an independent FNV-1a model of the ring.
    #[test]
    fn ring_placement_golden_vectors() {
        let ring = HashRing::new(4, 32);
        let owners: Vec<(u32, usize)> = [0u32, 32, 33, 34, 42, 500, 1000, 65_535, u32::MAX]
            .into_iter()
            .map(|raw| (raw, ring.owner_of(ObjectId(raw))))
            .collect();
        assert_eq!(
            owners,
            vec![
                (0, 0),
                (32, 2),
                (33, 3),
                (34, 1),
                (42, 1),
                (500, 3),
                (1000, 1),
                (65_535, 3),
                (u32::MAX, 1),
            ]
        );
    }

    #[test]
    fn single_node_ring_owns_everything() {
        let ring = HashRing::new(1, 8);
        for raw in [0u32, 1, 17, 9999, u32::MAX] {
            assert_eq!(ring.owner_of(ObjectId(raw)), 0);
        }
    }
}
