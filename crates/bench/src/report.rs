//! Machine-readable benchmark reports: small JSON files under `results/`
//! that record the perf trajectory across PRs (e.g. `BENCH_reuse.json`,
//! written by both the `service_throughput` bench and the
//! `concurrent_audits` example, each under its own top-level key).

use crate::table::results_dir;
use serde::Value;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The canonical reuse-metrics report file: `results/BENCH_reuse.json` in
/// the repository (resolved via [`results_dir`], so benches — which run
/// with the package directory as CWD — and examples agree on one file).
pub fn bench_reuse_path() -> PathBuf {
    results_dir().join("BENCH_reuse.json")
}

/// The canonical scale-out report file: `results/BENCH_scaleout.json`,
/// written by the `giant_audit` bench and example — intra-audit shard
/// scaling of one high-arity tenant plus the dense-vs-HashMap
/// `mups_from_counts` comparison.
pub fn bench_scaleout_path() -> PathBuf {
    results_dir().join("BENCH_scaleout.json")
}

/// The canonical daemon report file: `results/BENCH_daemon.json`, written
/// by the `daemon` bench and the `daemon_audit` example —
/// submit-to-first-result latency of a prioritized probe job under
/// background load, high- vs low-priority.
pub fn bench_daemon_path() -> PathBuf {
    results_dir().join("BENCH_daemon.json")
}

/// The canonical HTTP-plane report file: `results/BENCH_http.json`,
/// written by the `http_plane` bench — requests/s of the connection
/// engine under close-per-request vs keep-alive vs keep-alive+pipelining
/// at the same worker count, plus the per-tenant WFQ queue-wait split
/// under a 10-tenant load with one 10×-weighted tenant.
pub fn bench_http_path() -> PathBuf {
    results_dir().join("BENCH_http.json")
}

/// The canonical persistence report file: `results/BENCH_persistence.json`,
/// written by the `persistence` bench — cold-start recovery time from a
/// populated data directory and spill-on vs spill-off crowd spend (the two
/// must be equal; persistence is an observer, never an oracle).
pub fn bench_persistence_path() -> PathBuf {
    results_dir().join("BENCH_persistence.json")
}

/// The canonical chaos report file: `results/BENCH_chaos.json`, written by
/// the `chaos` bench — wall-clock and retry overhead of the resilient
/// dispatch path at increasing transient-fault rates, with the byte-equal
/// crowd spend across every rate pinned as a correctness assertion.
pub fn bench_chaos_path() -> PathBuf {
    results_dir().join("BENCH_chaos.json")
}

/// The canonical fleet report file: `results/BENCH_fleet.json`, written by
/// the `fleet` bench — wall-clock of the census giant audit partitioned by
/// the consistent-hash ring over an M-node fleet vs a single 8-shard node,
/// with the fleet-never-outspends invariant pinned as an assertion.
pub fn bench_fleet_path() -> PathBuf {
    results_dir().join("BENCH_fleet.json")
}

/// Upserts `key` in the JSON object stored at `path`, creating the file
/// (and its parent directory) if needed. Other writers' keys are preserved,
/// so several harnesses can share one report file; a corrupt or non-object
/// file is replaced rather than appended to.
pub fn update_json_report(path: impl AsRef<Path>, key: &str, value: Value) -> io::Result<()> {
    let path = path.as_ref();
    let mut pairs: Vec<(String, Value)> = match fs::read_to_string(path) {
        Ok(text) => match serde_json::from_str::<Value>(&text) {
            Ok(Value::Object(pairs)) => pairs,
            _ => Vec::new(),
        },
        Err(_) => Vec::new(),
    };
    match pairs.iter_mut().find(|(k, _)| k == key) {
        Some((_, slot)) => *slot = value,
        None => pairs.push((key.to_string(), value)),
    }
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let rendered = serde_json::to_string_pretty(&Value::Object(pairs)).expect("report serializes");
    fs::write(path, rendered + "\n")
}

/// Builds a JSON object from `(key, value)` pairs — a small convenience so
/// call sites stay readable without a macro.
pub fn json_object(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upsert_preserves_other_keys() {
        let dir = std::env::temp_dir().join(format!("bench_report_{}", std::process::id()));
        let path = dir.join("report.json");
        update_json_report(&path, "a", json_object(vec![("x", Value::UInt(1))])).unwrap();
        update_json_report(&path, "b", Value::UInt(2)).unwrap();
        update_json_report(&path, "a", json_object(vec![("x", Value::UInt(9))])).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"b\""), "{text}");
        assert!(text.contains("9"), "{text}");
        assert!(!text.contains(": 1"), "old value must be replaced: {text}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_file_is_replaced() {
        let dir = std::env::temp_dir().join(format!("bench_report_bad_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        fs::write(&path, "not json at all").unwrap();
        update_json_report(&path, "fresh", Value::Bool(true)).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"fresh\""), "{text}");
        fs::remove_dir_all(&dir).ok();
    }
}
