//! The durable knowledge plane: WAL + snapshots + crash recovery + spill.
//!
//! Every fact in the shared [`KnowledgeStore`] cost real crowd money, yet
//! without this module the store dies with the daemon process. Persistence
//! makes the fact base a durable asset — and it does so **without ever
//! changing an answer**: the write path observes commits through the
//! [`FactSink`] seam *after* they land in the in-memory store, and the
//! recovery path seeds facts back through the same entry points a live
//! commit uses, bypassing [`ReuseStats`](coverage_core::memo::ReuseStats)
//! so a restored daemon's reports stay byte-identical to an uninterrupted
//! run's (modulo wall-clock).
//!
//! Three cooperating pieces, all rooted in one `data_dir`:
//!
//! * **Write-ahead log** (`wal-<gen>.log`) — every committed fact (object
//!   labels, set verdicts with their membership consequences) is appended
//!   as one length-prefixed, CRC-checksummed frame and written to the OS
//!   page cache. A torn tail — the daemon was killed mid-write — fails the
//!   checksum and is truncated cleanly on the next open; every frame
//!   before it replays.
//! * **Snapshots** (`snapshot-<gen>.json`) — on the cadence below, the
//!   WAL rotates to a fresh generation and the store is compacted to a
//!   snapshot of that generation, written tmp-then-rename. Startup
//!   recovery = newest readable snapshot + replay of every WAL at or
//!   above its generation, oldest first; older generations are deleted.
//! * **Spill segment** (`spill.seg`) — cold per-object label facts evicted
//!   by the store's LRU watermark land here (same frame format) and are
//!   re-promoted on touch. The segment is scratch, not a recovery source:
//!   every spilled fact is already in the snapshot/WAL, so a stale segment
//!   is discarded on open.
//!
//! **Cadence.** A snapshot is cut at a job boundary once the WAL holds
//! `max(snapshot_every, F)` records, where `F` is the fact count of the
//! last snapshot (at open: of the recovered store), plus once at
//! shutdown. [`snapshot_every`](crate::ServiceConfig::snapshot_every) is
//! only the floor. This is the rule Redis uses to rewrite its append-only
//! file: each cut costs O(store), but the next one waits until the log
//! has grown by as much again, so total compaction work is O(1) amortized
//! per logged fact instead of growing with the square of the store.
//! It also bounds recovery: the WAL replayed at open holds at most
//! `max(snapshot_every, F)` records plus the commits of the jobs running
//! when it crossed that line, so restart time stays O(store).
//!
//! **Rotate first.** A cut holds the WAL writer lock only to swap in the
//! next generation's WAL; it reads and writes the store with the lock
//! released, so commits keep appending (to the new WAL) while it runs.
//! This is safe because a fact reaches the store before its WAL append:
//! every record of the old WAL is already in the parts read after the
//! swap. A crash between the swap and the rename leaves the old snapshot
//! plus both WALs, which recovery replays in order. Cuts never overlap.
//!
//! **Snapshot format.** A snapshot is a sequence of frames in the WAL's
//! own format, each carrying a piece of the store as [`KnowledgeStore`]
//! JSON: a head piece with the reuse stats, then each fact shard and set
//! stripe ([`SharedKnowledgeSource::for_each_store_part`]) cut into
//! pieces of at most [`SNAPSHOT_FRAME_IDS`] object ids
//! ([`KnowledgeStore::for_each_chunk`]). A cut therefore holds one
//! shard's copy plus one bounded frame's JSON in memory at a time, never
//! a whole shard as one JSON tree. Recovery accepts a framed snapshot only
//! when the whole file is valid frames, at least one, and folds
//! [`KnowledgeStore::merge`] over the pieces from the head — the same
//! reader older builds have, so they still read these snapshots. A file
//! that is not framed but starts with `{` is a whole-store JSON snapshot
//! from an older build and is read as one, so existing data directories
//! keep their paid facts. Frames are tried first: a framed file starts
//! with a payload length, whose low byte can happen to be `{`.
//!
//! The durability boundary: a fact is crash-safe once its WAL frame is
//! written (OS page cache); it is power-loss-safe once the next snapshot
//! or [`Persistence::sync`] fsyncs.
//! [`AuditDaemon::shutdown`](crate::AuditDaemon::shutdown) does both, so
//! shutdown → restart is lossless by construction. I/O errors on the hot
//! path are swallowed (an audit must never fail because a disk did) —
//! durability degrades, answers do not.

use crate::telemetry::Telemetry;
use coverage_core::memo::{FactSink, FactSpill, KnowledgeStore, SharedKnowledgeSource};
use coverage_core::prelude::{Labels, ObjectId, Target};
use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::Instant;

/// The reflected IEEE 802.3 polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// `CRC32_TABLE[b]` is the CRC register after shifting byte `b` through
/// eight bit steps — one lookup replaces the inner bit loop.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[byte] = crc;
        byte += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the frame checksum.
fn crc32(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(0xFFFF_FFFF_u32, |crc, &byte| {
        (crc >> 8) ^ CRC32_TABLE[usize::from(crc as u8 ^ byte)]
    })
}

/// Frames `payload` as `[u32 le len][u32 le crc32][payload]`.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Splits `bytes` into valid frame payloads. Returns the payloads and the
/// byte length of the valid prefix: the first short or checksum-failing
/// frame (a torn tail) ends the scan, and everything from its start on is
/// garbage to be truncated.
fn read_frames(bytes: &[u8]) -> (Vec<&[u8]>, usize) {
    let mut payloads = Vec::new();
    let mut at = 0usize;
    while bytes.len() - at >= 8 {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let sum = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
        let Some(end) = at.checked_add(8 + len) else {
            break;
        };
        if end > bytes.len() {
            break;
        }
        let payload = &bytes[at + 8..end];
        if crc32(payload) != sum {
            break;
        }
        payloads.push(payload);
        at = end;
    }
    (payloads, at)
}

/// One committed fact, as logged. The two variants mirror the two
/// [`FactSink`] callbacks; replay applies them through the same
/// [`KnowledgeStore`] entry points a live commit uses
/// ([`record_labels`](KnowledgeStore::record_labels),
/// [`record_set_answer`](KnowledgeStore::record_set_answer)), so a
/// replayed store is indistinguishable from one that never died.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A delivered point query: the object's full label vector.
    Labels {
        /// The labeled object.
        object: ObjectId,
        /// Its full label vector.
        labels: Labels,
    },
    /// A delivered set query: the verdict plus the residual that was
    /// actually asked (whose membership consequences replay derives).
    SetVerdict {
        /// The original query key.
        objects: Vec<ObjectId>,
        /// The subset actually forwarded to the crowd.
        residual: Vec<ObjectId>,
        /// The membership predicate asked about.
        target: Target,
        /// The crowd's verdict.
        answer: bool,
    },
}

impl WalRecord {
    /// Applies this record to a store, exactly as the live commit did.
    pub fn apply(&self, store: &mut KnowledgeStore) {
        match self {
            WalRecord::Labels { object, labels } => store.record_labels(*object, *labels),
            WalRecord::SetVerdict {
                objects,
                residual,
                target,
                answer,
            } => store.record_set_answer(objects, residual, target, *answer),
        }
    }
}

impl Serialize for WalRecord {
    fn to_value(&self) -> Value {
        match self {
            WalRecord::Labels { object, labels } => Value::Object(vec![
                ("fact".to_string(), Value::Str("labels".to_string())),
                ("object".to_string(), object.to_value()),
                ("labels".to_string(), labels.to_value()),
            ]),
            WalRecord::SetVerdict {
                objects,
                residual,
                target,
                answer,
            } => Value::Object(vec![
                ("fact".to_string(), Value::Str("set_verdict".to_string())),
                ("objects".to_string(), objects.to_value()),
                ("residual".to_string(), residual.to_value()),
                ("target".to_string(), target.to_value()),
                ("answer".to_string(), answer.to_value()),
            ]),
        }
    }
}

impl Deserialize for WalRecord {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let tag = String::from_value(value.get_field("fact")?)?;
        match tag.as_str() {
            "labels" => Ok(WalRecord::Labels {
                object: ObjectId::from_value(value.get_field("object")?)?,
                labels: Labels::from_value(value.get_field("labels")?)?,
            }),
            "set_verdict" => Ok(WalRecord::SetVerdict {
                objects: Vec::from_value(value.get_field("objects")?)?,
                residual: Vec::from_value(value.get_field("residual")?)?,
                target: Target::from_value(value.get_field("target")?)?,
                answer: bool::from_value(value.get_field("answer")?)?,
            }),
            other => Err(SerdeError::unknown_variant("WalRecord", other)),
        }
    }
}

/// Reads one snapshot file: a framed snapshot when the whole file is valid
/// frames, else a whole-store JSON snapshot from an older build (see the
/// [module docs](self)). `None` when it is neither, so recovery falls back
/// to the next older generation.
fn read_snapshot(path: &Path) -> Option<KnowledgeStore> {
    let bytes = fs::read(path).ok()?;
    let (payloads, valid_len) = read_frames(&bytes);
    if !payloads.is_empty() && valid_len == bytes.len() {
        let mut parts = payloads.into_iter().map(|payload| {
            serde_json::from_str::<KnowledgeStore>(std::str::from_utf8(payload).ok()?).ok()
        });
        let mut store = parts.next()??;
        for part in parts {
            store.merge(&part?);
        }
        return Some(store);
    }
    if bytes.first() == Some(&b'{') {
        return serde_json::from_str(std::str::from_utf8(&bytes).ok()?).ok();
    }
    None
}

fn snapshot_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snapshot-{generation}.json"))
}

fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal-{generation}.log"))
}

/// `Some(generation)` when `name` is `<prefix><gen><suffix>`.
fn parse_generation(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Deterministic disk-fault injection for the durable knowledge plane —
/// the chaos seam of the write paths. Each knob arms a *budget* of faults
/// for one operation kind; an armed operation consumes one budget unit and
/// fails exactly as the real disk would (ENOSPC refusal, a torn
/// half-written frame, a failing fsync). All budgets start at zero, so a
/// default `DiskFaults` injects nothing. Cloning shares the budgets:
/// arm the clone returned by [`Persistence::disk_faults`] /
/// [`SpillFile::disk_faults`] and the live write path sees it.
///
/// Injected failures exercise precisely the swallowed-error policy the
/// module docs promise: durability degrades (`is_degraded`, the
/// `audit_persist_errors_total` counters, a 503 `/readyz`) but answers
/// never change and nothing panics.
#[derive(Debug, Clone, Default)]
pub struct DiskFaults {
    inner: Arc<FaultBudgets>,
}

#[derive(Debug, Default)]
struct FaultBudgets {
    enospc: AtomicU32,
    short_writes: AtomicU32,
    fsync_failures: AtomicU32,
    snapshot_failures: AtomicU32,
    spill_failures: AtomicU32,
    injected: AtomicU64,
}

impl DiskFaults {
    /// A handle with every budget at zero — injects nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Arms the next `n` WAL appends to fail as if the disk were full
    /// (nothing reaches the file).
    pub fn fail_wal_enospc(&self, n: u32) {
        self.inner.enospc.fetch_add(n, Ordering::Relaxed);
    }

    /// Arms the next `n` WAL appends to tear mid-frame: half the frame
    /// lands on disk — exactly what a crash mid-write leaves — and the
    /// append reports failure. Recovery must truncate the torn tail.
    pub fn tear_wal_writes(&self, n: u32) {
        self.inner.short_writes.fetch_add(n, Ordering::Relaxed);
    }

    /// Arms the next `n` [`Persistence::sync`] calls to fail.
    pub fn fail_fsyncs(&self, n: u32) {
        self.inner.fsync_failures.fetch_add(n, Ordering::Relaxed);
    }

    /// Arms the next `n` snapshot cuts to fail creating their snapshot
    /// file. The WAL has already rotated by then, so the failed cut leaves
    /// two WAL generations behind its snapshot for recovery to replay.
    pub fn fail_snapshots(&self, n: u32) {
        self.inner.snapshot_failures.fetch_add(n, Ordering::Relaxed);
    }

    /// Arms the next `n` spill batches to fail before writing anything
    /// (the victims stay only in memory; recall finds nothing new).
    pub fn fail_spills(&self, n: u32) {
        self.inner.spill_failures.fetch_add(n, Ordering::Relaxed);
    }

    /// Total faults actually fired so far.
    pub fn injected(&self) -> u64 {
        self.inner.injected.load(Ordering::Relaxed)
    }

    /// Consumes one unit of `counter`'s budget if any remains.
    fn take(&self, counter: &AtomicU32) -> bool {
        let armed = counter
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok();
        if armed {
            self.inner.injected.fetch_add(1, Ordering::Relaxed);
        }
        armed
    }

    fn injected_error(what: &str) -> io::Error {
        io::Error::other(format!("injected disk fault: {what}"))
    }
}

/// The most object ids one snapshot frame carries (see
/// [`KnowledgeStore::for_each_chunk`] for the weights) — what bounds a
/// cut's memory, whatever the store's size.
pub const SNAPSHOT_FRAME_IDS: usize = 4096;

/// The open WAL of the current generation.
#[derive(Debug)]
struct WalWriter {
    file: File,
    generation: u64,
}

/// The daemon's handle on its `data_dir`: the open WAL, the current
/// generation, and the snapshot cadence (see the [module docs](self)).
/// Doubles as the [`FactSink`] the daemon attaches to its knowledge store,
/// so every committed fact is framed and appended before the next
/// question is asked.
///
/// All methods take `&self`; the WAL writer is internally locked. See the
/// [module docs](self) for the file layout and the durability boundary.
#[derive(Debug)]
pub struct Persistence {
    data_dir: PathBuf,
    snapshot_every: u64,
    /// WAL records appended since the last rotation — read lock-free by
    /// [`Persistence::snapshot_due`] on the worker hot path.
    records_since_snapshot: AtomicU64,
    /// Facts in the last snapshot cut (at open: in the recovered store) —
    /// the geometric part of the cadence.
    facts_in_last_snapshot: AtomicU64,
    writer: Mutex<WalWriter>,
    /// Held for a whole cut, so cuts never overlap.
    cut: Mutex<()>,
    telemetry: Telemetry,
    /// Flipped (never cleared) by the first swallowed I/O error on any
    /// write path — the `/readyz` degraded signal.
    degraded: AtomicBool,
    faults: DiskFaults,
}

impl Persistence {
    /// Opens (creating if needed) a data directory and recovers its fact
    /// base: newest parseable snapshot + replay of every WAL at or above
    /// its generation, oldest first, with any torn WAL tail truncated.
    /// Older generations and any stale spill segment are deleted. Returns
    /// the handle (now appending to the newest WAL) and the recovered
    /// store.
    pub fn open(
        data_dir: &Path,
        snapshot_every: u64,
        telemetry: Telemetry,
    ) -> io::Result<(Self, KnowledgeStore)> {
        assert!(snapshot_every > 0, "snapshot cadence must be positive");
        fs::create_dir_all(data_dir)?;

        // Newest parseable snapshot wins; an unparseable one (torn rename
        // cannot happen, but a corrupt disk can) falls back to the next.
        let mut snapshot_gens: Vec<u64> = Vec::new();
        let mut wal_gens: Vec<u64> = Vec::new();
        for entry in fs::read_dir(data_dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(generation) = parse_generation(&name, "snapshot-", ".json") {
                snapshot_gens.push(generation);
            } else if let Some(generation) = parse_generation(&name, "wal-", ".log") {
                wal_gens.push(generation);
            }
        }
        snapshot_gens.sort_unstable_by(|a, b| b.cmp(a));
        let mut generation = 0;
        let mut store = KnowledgeStore::default();
        for candidate in snapshot_gens {
            if let Some(snapshot) = read_snapshot(&snapshot_path(data_dir, candidate)) {
                generation = candidate;
                store = snapshot;
                break;
            }
        }

        // Replay every WAL from the snapshot's generation on, oldest
        // first: a cut that rotated but never renamed its snapshot leaves
        // two. Truncate each torn tail so the append path continues from
        // a valid frame.
        wal_gens.retain(|&wal| wal >= generation);
        wal_gens.sort_unstable();
        let mut replayed = 0u64;
        for &wal in &wal_gens {
            let path = wal_path(data_dir, wal);
            let bytes = fs::read(&path)?;
            let (payloads, valid_len) = read_frames(&bytes);
            for payload in &payloads {
                if let Ok(record) = serde_json::from_str::<WalRecord>(
                    std::str::from_utf8(payload).unwrap_or_default(),
                ) {
                    record.apply(&mut store);
                    replayed += 1;
                }
            }
            if valid_len < bytes.len() {
                let file = OpenOptions::new().write(true).open(&path)?;
                file.set_len(valid_len as u64)?;
                file.sync_all()?;
            }
        }
        let current = wal_gens.last().copied().unwrap_or(generation);

        // Every other snapshot and every WAL below the snapshot is dead
        // weight — and the spill segment never survives a restart: every
        // spilled fact is already in the snapshot/WAL we just replayed.
        for entry in fs::read_dir(data_dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy().to_string();
            let stale_snapshot = parse_generation(&name, "snapshot-", ".json")
                .is_some_and(|other| other != generation);
            let stale_wal =
                parse_generation(&name, "wal-", ".log").is_some_and(|other| other < generation);
            if stale_snapshot || stale_wal || name == "spill.seg" || name.ends_with(".tmp") {
                let _ = fs::remove_file(entry.path());
            }
        }

        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(wal_path(data_dir, current))?;
        let recovered = fact_count(&store);
        telemetry.record_recovered_facts(recovered);
        let persistence = Self {
            data_dir: data_dir.to_path_buf(),
            snapshot_every,
            records_since_snapshot: AtomicU64::new(replayed),
            facts_in_last_snapshot: AtomicU64::new(recovered),
            writer: Mutex::new(WalWriter {
                file,
                generation: current,
            }),
            cut: Mutex::new(()),
            telemetry,
            degraded: AtomicBool::new(false),
            faults: DiskFaults::none(),
        };
        Ok((persistence, store))
    }

    /// The fault-injection handle for this plane's write paths (shared:
    /// arming the returned clone arms the live paths). All budgets start
    /// at zero — production pays nothing for the seam.
    pub fn disk_faults(&self) -> DiskFaults {
        self.faults.clone()
    }

    /// Has any write path swallowed an I/O error since open? Durability is
    /// then degraded (facts may be lost on crash) even though serving
    /// continues — `GET /readyz` reports 503 on this flag.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// The swallowed-error bookkeeping every best-effort path funnels
    /// through: flip the degraded flag, count the op in
    /// `audit_persist_errors_total`.
    fn note_io_error(&self, op: &str) {
        self.degraded.store(true, Ordering::Relaxed);
        self.telemetry.record_persist_error(op);
    }

    /// Appends one record to the WAL, written to the OS page cache (no
    /// fsync). Best-effort: an I/O failure degrades durability, never the
    /// audit (see module docs) — but it is *accounted*: the degraded flag
    /// flips and `audit_persist_errors_total{op="wal_append"}` increments.
    fn append(&self, record: &WalRecord) {
        let Ok(payload) = serde_json::to_string(record) else {
            return;
        };
        let framed = frame(payload.as_bytes());
        let mut writer = lock(&self.writer);
        let written = if self.faults.take(&self.faults.inner.enospc) {
            Err(DiskFaults::injected_error("ENOSPC on WAL append"))
        } else if self.faults.take(&self.faults.inner.short_writes) {
            // A torn frame: half lands on disk, as a crash mid-write would
            // leave it. The next open's checksum scan truncates it.
            let _ = writer.file.write_all(&framed[..framed.len() / 2]);
            Err(DiskFaults::injected_error("short write on WAL append"))
        } else {
            writer.file.write_all(&framed)
        };
        // Counted under the lock, so a rotation's reset never races a
        // record of the generation it retired.
        if written.is_ok() {
            self.records_since_snapshot.fetch_add(1, Ordering::Relaxed);
        }
        drop(writer);
        match written {
            Ok(()) => self.telemetry.record_wal_records(1),
            Err(_) => self.note_io_error("wal_append"),
        }
    }

    /// Has the WAL grown past the snapshot cadence, i.e. does it hold at
    /// least `max(snapshot_every, facts in the last snapshot)` records?
    /// Lock-free — the workers poll this at every job boundary.
    pub fn snapshot_due(&self) -> bool {
        let threshold = self
            .snapshot_every
            .max(self.facts_in_last_snapshot.load(Ordering::Relaxed));
        self.records_since_snapshot.load(Ordering::Relaxed) >= threshold
    }

    /// Cuts a snapshot if the cadence says so and no other cut is running
    /// (the running cut already covers every fact the cadence counted).
    pub fn maybe_snapshot(&self, memo_root: &SharedKnowledgeSource<()>) {
        if !self.snapshot_due() {
            return;
        }
        let _cut = match self.cut.try_lock() {
            Ok(cut) => cut,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => return,
        };
        // Another cut may have ended between the check and the lock.
        if self.snapshot_due() {
            let _ = self.snapshot_locked(memo_root);
        }
    }

    /// Rotates the WAL to a fresh generation and cuts a compacted snapshot
    /// of the store as that generation, then deletes every older
    /// generation. Waits for a cut already running, then cuts anew, so
    /// the new snapshot holds every fact committed before the call.
    ///
    /// Ordering is what makes this safe (see the [module docs](self)):
    /// 1. under the WAL writer lock, open WAL `g+1`, swap it in and reset
    ///    the record counter — nothing else holds the lock;
    /// 2. read the store part by part and write it as bounded frames to
    ///    `snapshot-<g+1>.json.tmp`; commits racing this append to WAL
    ///    `g+1`, and every record of WAL `g` is already in the parts,
    ///    because a fact reaches the store before its WAL append;
    /// 3. fsync the tmp file and rename it to `snapshot-<g+1>.json`;
    /// 4. delete every snapshot and WAL below `g+1`.
    ///
    /// A crash or failure anywhere before step 4 leaves the previous
    /// snapshot and every WAL from its generation on, which
    /// [`Persistence::open`] replays in order — no fact is lost and
    /// replay stays idempotent.
    ///
    /// Each completed cut records its wall time and fact count
    /// (`audit_snapshot_cut_ms`, `audit_snapshot_cut_facts`). Failures are
    /// returned **and** accounted (`audit_persist_errors_total{op="snapshot"}`,
    /// the degraded flag) — callers on the hot path swallow the `Err`,
    /// not the evidence.
    pub fn snapshot(&self, memo_root: &SharedKnowledgeSource<()>) -> io::Result<()> {
        let _cut = lock(&self.cut);
        self.snapshot_locked(memo_root)
    }

    /// One cut, with the `cut` lock held by the caller.
    fn snapshot_locked(&self, memo_root: &SharedKnowledgeSource<()>) -> io::Result<()> {
        let started = Instant::now();
        let result = self.cut_snapshot(memo_root);
        match result {
            Ok(facts) => self
                .telemetry
                .record_snapshot_cut(started.elapsed().as_millis() as u64, facts),
            Err(_) => self.note_io_error("snapshot"),
        }
        result.map(drop)
    }

    /// The four steps of [`Persistence::snapshot`]; returns the facts cut.
    fn cut_snapshot(&self, memo_root: &SharedKnowledgeSource<()>) -> io::Result<u64> {
        let next = {
            let mut writer = lock(&self.writer);
            let next = writer.generation + 1;
            writer.file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(wal_path(&self.data_dir, next))?;
            writer.generation = next;
            self.records_since_snapshot.store(0, Ordering::Relaxed);
            next
        };

        let final_path = snapshot_path(&self.data_dir, next);
        let tmp_path = final_path.with_extension("json.tmp");
        let written = self
            .write_snapshot(memo_root, &tmp_path)
            .and_then(|facts| fs::rename(&tmp_path, &final_path).map(|()| facts));
        let facts = match written {
            Ok(facts) => facts,
            Err(error) => {
                let _ = fs::remove_file(&tmp_path);
                return Err(error);
            }
        };
        self.facts_in_last_snapshot.store(facts, Ordering::Relaxed);

        // Best-effort: a generation left behind is deleted by the next cut
        // or the next open.
        for entry in fs::read_dir(&self.data_dir).into_iter().flatten().flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let older = parse_generation(&name, "snapshot-", ".json")
                .or_else(|| parse_generation(&name, "wal-", ".log"))
                .is_some_and(|generation| generation < next);
            if older {
                let _ = fs::remove_file(entry.path());
            }
        }
        Ok(facts)
    }

    /// Writes the store to `tmp_path` as bounded frames and fsyncs it;
    /// returns the facts written.
    fn write_snapshot(
        &self,
        memo_root: &SharedKnowledgeSource<()>,
        tmp_path: &Path,
    ) -> io::Result<u64> {
        if self.faults.take(&self.faults.inner.snapshot_failures) {
            return Err(DiskFaults::injected_error("snapshot write"));
        }
        let mut tmp = BufWriter::new(File::create(tmp_path)?);
        let mut facts = 0;
        let mut written = Ok(());
        memo_root.for_each_store_part(|part| {
            facts += fact_count(part);
            part.for_each_chunk(SNAPSHOT_FRAME_IDS, |chunk| {
                if written.is_ok() {
                    written = serde_json::to_string(chunk)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
                        .and_then(|text| tmp.write_all(&frame(text.as_bytes())));
                }
            });
        });
        written?;
        let tmp = tmp.into_inner().map_err(io::IntoInnerError::into_error)?;
        tmp.sync_all()?;
        Ok(facts)
    }

    /// Fsyncs the current WAL — upgrades written records from crash-safe
    /// to power-loss-safe. Called by daemon shutdown before the final
    /// snapshot. Failures are returned and accounted
    /// (`audit_persist_errors_total{op="sync"}`, the degraded flag).
    pub fn sync(&self) -> io::Result<()> {
        let result = if self.faults.take(&self.faults.inner.fsync_failures) {
            Err(DiskFaults::injected_error("fsync"))
        } else {
            lock(&self.writer).file.sync_all()
        };
        if result.is_err() {
            self.note_io_error("sync");
        }
        result
    }

    /// Is a snapshot cut running right now?
    #[cfg(test)]
    pub(crate) fn cut_in_flight(&self) -> bool {
        matches!(self.cut.try_lock(), Err(TryLockError::WouldBlock))
    }

    /// The directory this plane persists into.
    pub fn data_dir(&self) -> &Path {
        &self.data_dir
    }
}

/// Total facts in a store — the `audit_recovered_facts_total` increment.
fn fact_count(store: &KnowledgeStore) -> u64 {
    (store.labels_known() + store.membership_facts() + store.set_verdicts_known()) as u64
}

impl FactSink for Persistence {
    fn on_labels(&self, object: ObjectId, labels: Labels) {
        self.append(&WalRecord::Labels { object, labels });
    }

    fn on_set_verdict(
        &self,
        objects: &[ObjectId],
        residual: &[ObjectId],
        target: &Target,
        answer: bool,
    ) {
        self.append(&WalRecord::SetVerdict {
            objects: objects.to_vec(),
            residual: residual.to_vec(),
            target: target.clone(),
            answer,
        });
    }
}

/// Where a spilled label lives inside `spill.seg`.
#[derive(Debug, Clone, Copy)]
struct SpillSlot {
    offset: u64,
    len: u32,
}

#[derive(Debug)]
struct SpillState {
    file: File,
    index: HashMap<ObjectId, SpillSlot>,
    end: u64,
}

/// The on-disk segment behind the store's LRU spill: cold `(object,
/// labels)` facts are appended as CRC-framed JSON and re-read on touch.
///
/// The segment is **scratch**: every spilled fact is also in the WAL or a
/// snapshot, so [`Persistence::open`] deletes any stale segment rather
/// than recovering from it. Recalled or re-spilled entries leave dead
/// frames behind; the segment compacts by being discarded at the next
/// restart. A read or parse failure on recall returns `None` — the store
/// then treats the fact as unknown, which can cost a re-ask but can never
/// corrupt an answer.
#[derive(Debug)]
pub struct SpillFile {
    state: Mutex<SpillState>,
    telemetry: Telemetry,
    faults: DiskFaults,
}

impl SpillFile {
    /// Creates (truncating) the spill segment at `dir/spill.seg`.
    pub fn create(dir: &Path, telemetry: Telemetry) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .read(true)
            .truncate(true)
            .open(dir.join("spill.seg"))?;
        Ok(Self {
            state: Mutex::new(SpillState {
                file,
                index: HashMap::new(),
                end: 0,
            }),
            telemetry,
            faults: DiskFaults::none(),
        })
    }

    /// The fault-injection handle for this segment's write path (shared:
    /// arming the returned clone arms the live path).
    pub fn disk_faults(&self) -> DiskFaults {
        self.faults.clone()
    }

    fn read_slot(state: &mut SpillState, slot: SpillSlot) -> Option<(ObjectId, Labels)> {
        let mut buf = vec![0u8; slot.len as usize];
        state.file.seek(SeekFrom::Start(slot.offset)).ok()?;
        state.file.read_exact(&mut buf).ok()?;
        let (payloads, _) = read_frames(&buf);
        let payload = payloads.first()?;
        serde_json::from_str::<(ObjectId, Labels)>(std::str::from_utf8(payload).ok()?).ok()
    }
}

impl FactSpill for SpillFile {
    fn spill(&self, victims: Vec<(ObjectId, Labels)>) {
        let count = victims.len() as u64;
        if self.faults.take(&self.faults.inner.spill_failures) {
            // The victims stay in memory only; a crash before the next
            // snapshot would lose nothing (spill is scratch), but the
            // degradation is accounted.
            self.telemetry.record_persist_error("spill_write");
            return;
        }
        let mut state = lock(&self.state);
        let mut end = state.end;
        if state.file.seek(SeekFrom::Start(end)).is_err() {
            drop(state);
            self.telemetry.record_persist_error("spill_write");
            return;
        }
        for (object, labels) in victims {
            let Ok(payload) = serde_json::to_string(&(object, labels)) else {
                continue;
            };
            let framed = frame(payload.as_bytes());
            if state.file.write_all(&framed).is_err() {
                drop(state);
                self.telemetry.record_persist_error("spill_write");
                return;
            }
            let slot = SpillSlot {
                offset: end,
                len: framed.len() as u32,
            };
            state.index.insert(object, slot);
            end += framed.len() as u64;
            state.end = end;
        }
        drop(state);
        self.telemetry.record_spilled_labels(count);
    }

    fn recall(&self, object: ObjectId) -> Option<Labels> {
        let mut state = lock(&self.state);
        let slot = state.index.remove(&object)?;
        let fact = Self::read_slot(&mut state, slot);
        drop(state);
        self.telemetry.record_spill_recalls(1);
        if fact.is_none() {
            // The slot existed but its frame would not read back — a real
            // read error, not a cache miss. The store re-asks the crowd;
            // the degradation is accounted.
            self.telemetry.record_persist_error("spill_read");
        }
        fact.map(|(_, labels)| labels)
    }

    fn contents(&self, keep: &dyn Fn(ObjectId) -> bool) -> Vec<(ObjectId, Labels)> {
        let mut state = lock(&self.state);
        let slots: Vec<SpillSlot> = state
            .index
            .iter()
            .filter(|(object, _)| keep(**object))
            .map(|(_, slot)| *slot)
            .collect();
        slots
            .into_iter()
            .filter_map(|slot| Self::read_slot(&mut state, slot))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverage_core::prelude::Pattern;
    use std::sync::Arc;

    fn dir(tag: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "cvg-persist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&path);
        path
    }

    fn female() -> Target {
        Target::group(Pattern::parse("1").unwrap())
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bit-at-a-time definition the table is derived from.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFF_u32;
        for &byte in bytes {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The table-driven CRC equals the bitwise reference on any bytes.
        #[test]
        fn crc32_table_matches_bitwise_reference(
            words in proptest::collection::vec(0u16..256, 0..512),
        ) {
            let bytes: Vec<u8> = words.iter().map(|&word| word as u8).collect();
            proptest::prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        }
    }

    #[test]
    fn frames_round_trip_and_torn_tail_is_cut() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&frame(b"alpha"));
        bytes.extend_from_slice(&frame(b"beta"));
        let whole = bytes.len();
        // A torn write: half a frame of garbage at the tail.
        bytes.extend_from_slice(&frame(b"gamma")[..7]);
        let (payloads, valid) = read_frames(&bytes);
        assert_eq!(payloads, vec![b"alpha".as_slice(), b"beta".as_slice()]);
        assert_eq!(valid, whole);
        // A bit flip inside a payload fails that frame and ends the scan.
        let mut flipped = frame(b"alpha");
        flipped[10] ^= 1;
        assert_eq!(read_frames(&flipped).0.len(), 0);
    }

    #[test]
    fn wal_record_serde_round_trips() {
        let records = vec![
            WalRecord::Labels {
                object: ObjectId(7),
                labels: Labels::single(1),
            },
            WalRecord::SetVerdict {
                objects: vec![ObjectId(1), ObjectId(2)],
                residual: vec![ObjectId(2)],
                target: female(),
                answer: false,
            },
        ];
        for record in records {
            let json = serde_json::to_string(&record).unwrap();
            let back: WalRecord = serde_json::from_str(&json).unwrap();
            assert_eq!(back, record);
        }
    }

    #[test]
    fn open_recovers_snapshot_plus_wal_and_truncates_torn_tail() {
        let dir = dir("recover");
        // Generation 0, no snapshot: three live frames + a torn tail.
        {
            let (persistence, store) =
                Persistence::open(&dir, 1000, Telemetry::disabled()).unwrap();
            assert!(store.is_empty());
            persistence.on_labels(ObjectId(0), Labels::single(1));
            persistence.on_labels(ObjectId(1), Labels::single(0));
            persistence.on_set_verdict(
                &[ObjectId(2), ObjectId(3)],
                &[ObjectId(2), ObjectId(3)],
                &female(),
                false,
            );
        }
        let wal = wal_path(&dir, 0);
        let clean_len = fs::metadata(&wal).unwrap().len();
        let mut file = OpenOptions::new().append(true).open(&wal).unwrap();
        file.write_all(&frame(b"{\"fact\":\"labels\"}")[..9])
            .unwrap();
        drop(file);

        let (_persistence, store) = Persistence::open(&dir, 1000, Telemetry::disabled()).unwrap();
        assert_eq!(store.labels_known(), 2);
        assert_eq!(store.label_of(ObjectId(0)), Some(Labels::single(1)));
        assert!(store.is_known_non_member(ObjectId(3), &female()));
        assert_eq!(
            fs::metadata(&wal).unwrap().len(),
            clean_len,
            "the torn tail must be truncated"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_rotates_the_wal_and_survives_reopen() {
        let dir = dir("rotate");
        let memo_root: SharedKnowledgeSource<()> = SharedKnowledgeSource::with_shards((), 4);
        {
            let (persistence, _) = Persistence::open(&dir, 2, Telemetry::disabled()).unwrap();
            let persistence = Arc::new(persistence);
            memo_root.set_fact_sink(Arc::clone(&persistence) as Arc<dyn FactSink>);
            let mut seed = KnowledgeStore::default();
            for i in 0..5 {
                seed.record_labels(ObjectId(i), Labels::single((i % 2) as u8));
            }
            memo_root.seed_store(&seed);
            // Seeding bypasses the sink; log two facts the live way.
            persistence.on_labels(ObjectId(10), Labels::single(1));
            persistence.on_labels(ObjectId(11), Labels::single(0));
            assert!(persistence.snapshot_due());
            persistence.on_labels(ObjectId(10), Labels::single(1)); // sink path only
            let mut seed2 = KnowledgeStore::default();
            seed2.record_labels(ObjectId(10), Labels::single(1));
            seed2.record_labels(ObjectId(11), Labels::single(0));
            memo_root.seed_store(&seed2);
            persistence.maybe_snapshot(&memo_root);
            assert!(!persistence.snapshot_due());
            assert!(snapshot_path(&dir, 1).exists());
            assert!(!wal_path(&dir, 0).exists(), "old generation deleted");
            // Post-rotation commits land in the new WAL.
            persistence.on_labels(ObjectId(20), Labels::single(1));
        }
        let (_persistence, store) = Persistence::open(&dir, 2, Telemetry::disabled()).unwrap();
        assert_eq!(
            store.labels_known(),
            8,
            "5 seeded + 2 logged + 1 post-rotation"
        );
        assert_eq!(store.label_of(ObjectId(20)), Some(Labels::single(1)));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Logs `n` label facts the live way (through the sink), for cadence
    /// tests that only count records.
    fn log_labels(persistence: &Persistence, first: u32, n: u32) {
        for i in first..first + n {
            persistence.on_labels(ObjectId(i), Labels::single(0));
        }
    }

    /// The geometric cadence: after a cut of F facts, no snapshot is due
    /// until the WAL holds `max(snapshot_every, F)` records — and a reopen
    /// takes F from the recovered store.
    #[test]
    fn cadence_waits_for_as_many_records_as_the_last_snapshot_held_facts() {
        let dir = dir("cadence");
        let memo_root: SharedKnowledgeSource<()> = SharedKnowledgeSource::with_shards((), 4);
        {
            let (persistence, _) = Persistence::open(&dir, 4, Telemetry::disabled()).unwrap();
            // An empty store: the floor binds.
            log_labels(&persistence, 100, 3);
            assert!(!persistence.snapshot_due());
            log_labels(&persistence, 103, 1);
            assert!(persistence.snapshot_due());

            let mut seed = KnowledgeStore::default();
            for i in 0..10 {
                seed.record_labels(ObjectId(i), Labels::single(1));
            }
            memo_root.seed_store(&seed);
            persistence.snapshot(&memo_root).unwrap();
            // F = 10 > floor: ten records, not four.
            log_labels(&persistence, 200, 9);
            assert!(!persistence.snapshot_due());
            log_labels(&persistence, 209, 1);
            assert!(persistence.snapshot_due());
        }
        // Reopen: 10 snapshot facts + 10 replayed = F of 20, with the 10
        // replayed records already counted.
        let (persistence, store) = Persistence::open(&dir, 4, Telemetry::disabled()).unwrap();
        assert_eq!(store.labels_known(), 20);
        assert!(!persistence.snapshot_due());
        log_labels(&persistence, 300, 9);
        assert!(!persistence.snapshot_due());
        log_labels(&persistence, 309, 1);
        assert!(persistence.snapshot_due());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A whole-store JSON snapshot written by an older build, next to an
    /// empty WAL, still recovers exactly the store it holds.
    #[test]
    fn legacy_whole_store_snapshot_still_recovers() {
        let dir = dir("legacy");
        fs::create_dir_all(&dir).unwrap();
        let mut store = KnowledgeStore::default();
        store.record_labels(ObjectId(3), Labels::single(1));
        let pair = [ObjectId(4), ObjectId(5)];
        store.record_set_answer(&pair, &pair, &female(), false);
        store.record_set_answer(&[ObjectId(6)], &[ObjectId(6)], &female(), true);
        fs::write(
            snapshot_path(&dir, 1),
            serde_json::to_string(&store).unwrap(),
        )
        .unwrap();
        fs::write(wal_path(&dir, 1), b"").unwrap();

        let (persistence, recovered) =
            Persistence::open(&dir, 1000, Telemetry::disabled()).unwrap();
        assert_eq!(recovered, store);
        // The legacy generation stays live: new commits append to its WAL.
        persistence.on_labels(ObjectId(7), Labels::single(0));
        drop(persistence);
        let (_persistence, reopened) =
            Persistence::open(&dir, 1000, Telemetry::disabled()).unwrap();
        assert_eq!(reopened.labels_known(), 2);
        assert!(snapshot_path(&dir, 1).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A framed snapshot whose first payload length has `{` as its low
    /// byte is still read as frames, not mistaken for legacy JSON.
    #[test]
    fn framed_snapshot_starting_with_a_brace_byte_is_read_as_frames() {
        let dir = dir("brace");
        fs::create_dir_all(&dir).unwrap();
        let mut store = KnowledgeStore::default();
        store.record_labels(ObjectId(4), Labels::single(1));
        let mut payload = serde_json::to_string(&store).unwrap();
        let padded = payload.len().next_multiple_of(256) + usize::from(b'{');
        payload.extend(std::iter::repeat_n(' ', padded - payload.len()));
        let framed = frame(payload.as_bytes());
        assert_eq!(framed[0], b'{');
        fs::write(snapshot_path(&dir, 1), framed).unwrap();

        let (_persistence, recovered) =
            Persistence::open(&dir, 1000, Telemetry::disabled()).unwrap();
        assert_eq!(recovered, store);
        let _ = fs::remove_dir_all(&dir);
    }

    /// One flipped byte in a framed snapshot rejects the whole
    /// file, and recovery falls back to the previous generation exactly
    /// as it does for any unreadable snapshot.
    #[test]
    fn corrupt_framed_snapshot_falls_back_to_the_previous_generation() {
        let dir = dir("corrupt");
        let memo_root: SharedKnowledgeSource<()> = SharedKnowledgeSource::with_shards((), 4);
        let seed_labels = |range: std::ops::Range<u32>| {
            let mut seed = KnowledgeStore::default();
            for i in range {
                seed.record_labels(ObjectId(i), Labels::single(1));
            }
            memo_root.seed_store(&seed);
        };
        let (persistence, _) = Persistence::open(&dir, 1000, Telemetry::disabled()).unwrap();
        seed_labels(0..6);
        persistence.snapshot(&memo_root).unwrap();
        persistence.on_labels(ObjectId(50), Labels::single(0));
        let kept_snapshot = fs::read(snapshot_path(&dir, 1)).unwrap();
        let kept_wal = fs::read(wal_path(&dir, 1)).unwrap();

        seed_labels(6..12);
        persistence.snapshot(&memo_root).unwrap();
        drop(persistence);
        assert!(!snapshot_path(&dir, 1).exists(), "rotation deleted gen 1");
        fs::write(snapshot_path(&dir, 1), kept_snapshot).unwrap();
        fs::write(wal_path(&dir, 1), kept_wal).unwrap();

        let newest = snapshot_path(&dir, 2);
        let mut bytes = fs::read(&newest).unwrap();
        assert!(read_snapshot(&newest).is_some_and(|store| store.labels_known() == 12));
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0x40;
        fs::write(&newest, bytes).unwrap();
        assert!(
            read_snapshot(&newest).is_none(),
            "a flipped byte rejects the file"
        );

        let (_persistence, store) = Persistence::open(&dir, 1000, Telemetry::disabled()).unwrap();
        assert_eq!(
            store.labels_known(),
            7,
            "gen 1's 6 snapshot facts + 1 WAL fact"
        );
        assert_eq!(store.label_of(ObjectId(50)), Some(Labels::single(0)));
        assert!(!newest.exists(), "the rejected generation is deleted");
        let _ = fs::remove_dir_all(&dir);
    }

    /// The chaos seam of the disk paths: every injected failure is
    /// swallowed (no panic, no lost *recovered* fact beyond what the
    /// fault itself destroyed), flips the degraded flag and lands in
    /// `audit_persist_errors_total{op}` — the evidence `/readyz` serves.
    #[test]
    fn injected_disk_faults_flip_degraded_and_are_counted() {
        let dir = dir("faults");
        let telemetry = Telemetry::new(16);
        let (persistence, _) = Persistence::open(&dir, 1000, telemetry.clone()).unwrap();
        assert!(!persistence.is_degraded());
        let faults = persistence.disk_faults();

        faults.fail_wal_enospc(1);
        persistence.on_labels(ObjectId(0), Labels::single(1)); // refused: full disk
        assert!(persistence.is_degraded(), "one swallowed error degrades");
        persistence.on_labels(ObjectId(1), Labels::single(0)); // budget spent: lands

        faults.fail_fsyncs(1);
        assert!(persistence.sync().is_err());
        assert!(persistence.sync().is_ok(), "budget of one is consumed");

        let memo_root: SharedKnowledgeSource<()> = SharedKnowledgeSource::with_shards((), 2);
        faults.fail_snapshots(1);
        assert!(persistence.snapshot(&memo_root).is_err());

        // The torn write last: everything after garbage is unreachable on
        // replay, exactly as a real crash mid-append would leave it.
        faults.tear_wal_writes(1);
        persistence.on_labels(ObjectId(2), Labels::single(1));
        assert_eq!(faults.injected(), 4);
        drop(persistence);

        // Reopen: the torn tail truncates; the clean append survives.
        let (_persistence, store) = Persistence::open(&dir, 1000, Telemetry::disabled()).unwrap();
        assert_eq!(store.labels_known(), 1);
        assert_eq!(store.label_of(ObjectId(1)), Some(Labels::single(0)));

        let text = telemetry.render_prometheus();
        assert!(
            text.contains(r#"audit_persist_errors_total{op="wal_append"} 2"#),
            "{text}"
        );
        assert!(
            text.contains(r#"audit_persist_errors_total{op="sync"} 1"#),
            "{text}"
        );
        assert!(
            text.contains(r#"audit_persist_errors_total{op="snapshot"} 1"#),
            "{text}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Labels `0..n` in the store *and* the WAL, the way a live commit
    /// lands them (store first, then the sink).
    fn commit_labels(
        memo_root: &SharedKnowledgeSource<()>,
        persistence: &Persistence,
        ids: std::ops::Range<u32>,
    ) {
        let mut seed = KnowledgeStore::default();
        for i in ids.clone() {
            seed.record_labels(ObjectId(i), Labels::single((i % 2) as u8));
        }
        memo_root.seed_store(&seed);
        for i in ids {
            persistence.on_labels(ObjectId(i), Labels::single((i % 2) as u8));
        }
    }

    /// A crash after the WAL rotated but before the snapshot was renamed
    /// (here: the write fails, more facts land in the new WAL, and a torn
    /// tmp file is left behind) leaves `snapshot-1`, `wal-1` and `wal-2`
    /// on disk — and recovery replays both WALs, losing nothing.
    #[test]
    fn crash_between_rotation_and_rename_recovers_every_fact() {
        let dir = dir("mid-cut");
        let memo_root: SharedKnowledgeSource<()> = SharedKnowledgeSource::with_shards((), 4);
        let (persistence, _) = Persistence::open(&dir, 1000, Telemetry::disabled()).unwrap();
        commit_labels(&memo_root, &persistence, 0..5);
        persistence.snapshot(&memo_root).unwrap();
        commit_labels(&memo_root, &persistence, 5..9);
        persistence.disk_faults().fail_snapshots(1);
        assert!(persistence.snapshot(&memo_root).is_err());
        commit_labels(&memo_root, &persistence, 9..12);
        drop(persistence);
        fs::write(
            snapshot_path(&dir, 2).with_extension("json.tmp"),
            &frame(b"{\"labels\":")[..6],
        )
        .unwrap();
        for path in [snapshot_path(&dir, 1), wal_path(&dir, 1), wal_path(&dir, 2)] {
            assert!(path.exists(), "{} must survive the crash", path.display());
        }
        assert!(!snapshot_path(&dir, 2).exists());

        let (persistence, store) = Persistence::open(&dir, 1000, Telemetry::disabled()).unwrap();
        assert_eq!(store.labels_known(), 12, "5 snapshot + 4 wal-1 + 3 wal-2");
        assert!(!snapshot_path(&dir, 2).with_extension("json.tmp").exists());
        assert!(
            wal_path(&dir, 1).exists(),
            "a WAL above the snapshot is kept"
        );
        // The recovered plane's next cut retires every older generation.
        let memo_root: SharedKnowledgeSource<()> = SharedKnowledgeSource::with_shards((), 4);
        memo_root.seed_store(&store);
        persistence.snapshot(&memo_root).unwrap();
        assert!(snapshot_path(&dir, 3).exists());
        for path in [snapshot_path(&dir, 1), wal_path(&dir, 1), wal_path(&dir, 2)] {
            assert!(!path.exists(), "{} must be retired", path.display());
        }
        drop(persistence);
        let (_persistence, reopened) =
            Persistence::open(&dir, 1000, Telemetry::disabled()).unwrap();
        assert_eq!(reopened, store);
        let _ = fs::remove_dir_all(&dir);
    }

    /// An injected snapshot-write failure strikes after the rotation: the
    /// cut is counted and degrades the plane, but a reopen recovers every
    /// fact from the old snapshot and both WALs.
    #[test]
    fn failed_snapshot_write_after_rotation_loses_nothing() {
        let dir = dir("cut-fault");
        let telemetry = Telemetry::new(16);
        let memo_root: SharedKnowledgeSource<()> = SharedKnowledgeSource::with_shards((), 2);
        let (persistence, _) = Persistence::open(&dir, 1000, telemetry.clone()).unwrap();
        commit_labels(&memo_root, &persistence, 0..6);
        persistence.disk_faults().fail_snapshots(1);
        assert!(persistence.snapshot(&memo_root).is_err());
        assert!(persistence.is_degraded());
        assert!(
            wal_path(&dir, 1).exists(),
            "the WAL rotated before the fault"
        );
        assert!(!snapshot_path(&dir, 1).exists());
        assert!(!snapshot_path(&dir, 1).with_extension("json.tmp").exists());
        commit_labels(&memo_root, &persistence, 6..10);
        drop(persistence);

        let (_persistence, store) = Persistence::open(&dir, 1000, Telemetry::disabled()).unwrap();
        assert_eq!(store, memo_root.store_snapshot());
        assert!(telemetry
            .render_prometheus()
            .contains(r#"audit_persist_errors_total{op="snapshot"} 1"#));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A cut of a store with many facts and long set keys writes no frame
    /// heavier than [`SNAPSHOT_FRAME_IDS`] ids (a lone heavier verdict
    /// aside, which this store has none of), and reads back equal.
    #[test]
    fn snapshot_frames_stay_within_the_id_bound() {
        let dir = dir("frames");
        let telemetry = Telemetry::new(16);
        let memo_root: SharedKnowledgeSource<()> = SharedKnowledgeSource::with_shards((), 2);
        let mut seed = KnowledgeStore::default();
        for i in 0..30_000 {
            seed.record_labels(ObjectId(i), Labels::single((i % 3 == 0) as u8));
        }
        for i in 0..200u32 {
            let start = 100_000 + 700 * i;
            let key: Vec<ObjectId> = (start..start + 600).map(ObjectId).collect();
            seed.record_set_answer(&key, &key, &female(), false);
        }
        memo_root.seed_store(&seed);
        let (persistence, _) = Persistence::open(&dir, 1000, telemetry.clone()).unwrap();
        persistence.snapshot(&memo_root).unwrap();

        let bytes = fs::read(snapshot_path(&dir, 1)).unwrap();
        let (payloads, valid) = read_frames(&bytes);
        assert_eq!(valid, bytes.len());
        let mut total = 0;
        for payload in &payloads {
            let piece: KnowledgeStore =
                serde_json::from_str(std::str::from_utf8(payload).unwrap()).unwrap();
            assert!(
                piece.id_weight() <= SNAPSHOT_FRAME_IDS,
                "a frame of {} ids",
                piece.id_weight()
            );
            total += piece.id_weight();
        }
        assert_eq!(total, seed.id_weight());
        assert!(payloads.len() > seed.id_weight() / SNAPSHOT_FRAME_IDS);
        let recovered = read_snapshot(&snapshot_path(&dir, 1)).unwrap();
        assert_eq!(recovered, memo_root.store_snapshot());
        let text = telemetry.render_prometheus();
        assert!(text.contains("audit_snapshot_cut_ms_count 1"), "{text}");
        let facts = seed.fact_count();
        assert!(
            text.contains(&format!("audit_snapshot_cut_facts_sum {facts}")),
            "{text}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A failing spill batch is dropped silently (the facts stay in
    /// memory; spill is scratch) but the degradation is counted.
    #[test]
    fn spill_write_fault_is_swallowed_and_counted() {
        let dir = dir("spill-fault");
        let telemetry = Telemetry::new(16);
        let spill = SpillFile::create(&dir, telemetry.clone()).unwrap();
        spill.disk_faults().fail_spills(1);
        spill.spill(vec![(ObjectId(1), Labels::single(1))]); // dropped
        assert_eq!(spill.recall(ObjectId(1)), None);
        spill.spill(vec![(ObjectId(2), Labels::single(0))]); // budget spent: lands
        assert_eq!(spill.recall(ObjectId(2)), Some(Labels::single(0)));
        let text = telemetry.render_prometheus();
        assert!(
            text.contains(r#"audit_persist_errors_total{op="spill_write"} 1"#),
            "{text}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_file_round_trips_and_recall_consumes() {
        let dir = dir("spill");
        let spill = SpillFile::create(&dir, Telemetry::disabled()).unwrap();
        spill.spill(vec![
            (ObjectId(1), Labels::single(1)),
            (ObjectId(2), Labels::single(0)),
        ]);
        let mut contents = spill.contents(&|_| true);
        contents.sort_by_key(|(object, _)| *object);
        assert_eq!(
            contents,
            vec![
                (ObjectId(1), Labels::single(1)),
                (ObjectId(2), Labels::single(0))
            ]
        );
        assert_eq!(spill.recall(ObjectId(1)), Some(Labels::single(1)));
        assert_eq!(spill.recall(ObjectId(1)), None, "recall consumes the slot");
        // Re-spill after recall: the index points at the newest frame.
        spill.spill(vec![(ObjectId(1), Labels::single(0))]);
        assert_eq!(spill.recall(ObjectId(1)), Some(Labels::single(0)));
        let _ = fs::remove_dir_all(&dir);
    }
}
