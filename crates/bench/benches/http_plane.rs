//! HTTP connection-engine throughput.
//!
//! The same `GET /stats` request stream is pushed through the daemon's
//! front door three ways at the same worker count: a fresh
//! `Connection: close` socket per request, one keep-alive connection
//! served serially, and one keep-alive connection with pipelined batches.
//! The keep-alive+pipelining mode must clear **2×** the close-per-request
//! rate — that multiple is the whole point of the nonblocking engine, and
//! a regression fails the bench. Both keep-alive modes must also actually
//! reuse their connection.
//!
//! ```sh
//! cargo bench -q -p cvg-bench --bench http_plane
//! ```

use coverage_core::prelude::*;
use coverage_service::http::{http_request, HttpClient, HttpServer};
use coverage_service::{AuditDaemon, ServiceConfig};
use std::sync::Arc;
use std::time::Instant;

/// Requests per throughput mode. Small enough for the CI smoke, large
/// enough that per-connection setup dominates the close-per-request mode.
const REQUESTS: usize = 600;
/// Pipelined requests written before any response is read.
const PIPELINE_DEPTH: usize = 24;

/// Requests per second over `REQUESTS` iterations of `run`.
fn rate(requests: usize, run: impl FnOnce()) -> f64 {
    let started = Instant::now();
    run();
    requests as f64 / started.elapsed().as_secs_f64()
}

/// The three connection modes against one live daemon.
fn main() {
    // `GET /stats` never reads the truth, so any small pool serves.
    let truth = Arc::new(VecGroundTruth::new(vec![Labels::single(0); 200]));
    let daemon = Arc::new(AuditDaemon::start(
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        SharedTruthSource::new(truth),
    ));
    let server = HttpServer::serve("127.0.0.1:0", Arc::clone(&daemon)).expect("bind");
    let addr = server.local_addr();

    // Mode 1: a fresh TCP connection per request (the PR 7 engine's only
    // mode) — connect, one request, close.
    let close_per_request = rate(REQUESTS, || {
        for _ in 0..REQUESTS {
            let (code, _) = http_request(addr, "GET", "/stats", None).expect("request");
            assert_eq!(code, 200);
        }
    });

    // Mode 2: one keep-alive connection, strictly serial request-response.
    let keep_alive = rate(REQUESTS, || {
        let mut client = HttpClient::connect(addr).expect("connect");
        for _ in 0..REQUESTS {
            let (code, _) = client.request("GET", "/stats", None).expect("request");
            assert_eq!(code, 200);
        }
    });

    // Mode 3: one keep-alive connection, requests pipelined in batches —
    // many requests per TCP segment, many responses per engine pass.
    let pipelined = rate(REQUESTS, || {
        let mut client = HttpClient::connect(addr).expect("connect");
        let mut sent = 0;
        while sent < REQUESTS {
            let batch = PIPELINE_DEPTH.min(REQUESTS - sent);
            for _ in 0..batch {
                client.send("GET", "/stats", None).expect("send");
            }
            for _ in 0..batch {
                let (code, _) = client.read_response().expect("response");
                assert_eq!(code, 200);
            }
            sent += batch;
        }
    });

    let reuses = daemon.telemetry().keepalive_reuses();
    server.shutdown();
    daemon.shutdown().expect("shutdown");

    let speedup = pipelined / close_per_request;
    assert!(
        speedup >= 2.0,
        "keep-alive + pipelining must clear 2x close-per-request: \
         {pipelined:.0} vs {close_per_request:.0} req/s ({speedup:.2}x)"
    );
    assert!(
        reuses >= (REQUESTS as u64 - 1) * 2,
        "both keep-alive modes must actually reuse the connection: {reuses}"
    );
    println!(
        "http throughput (1 worker): close-per-request {close_per_request:.0} req/s, \
         keep-alive {keep_alive:.0} req/s, pipelined x{PIPELINE_DEPTH} {pipelined:.0} req/s \
         ({speedup:.1}x)"
    );
}
