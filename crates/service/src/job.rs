//! Audit jobs: what a tenant submits and what the service reports back.
//!
//! A [`JobSpec`] names a pool of objects (indices into the platform's shared
//! dataset), the audit to run over it — any of the paper's five algorithms,
//! chosen by [`AuditKind`] — and the job's `τ`, set-query size `n`, RNG seed,
//! optional task budget and optional scheduling priority. The service
//! answers with a [`JobReport`]: the terminal [`JobStatus`], the algorithm's
//! outcome, per-job [`TaskLedger`] accounting and the job's actual
//! (post-cache) crowd spend. Every type here serializes; the daemon's HTTP
//! front-end ([`crate::http`]) accepts specs and publishes statuses and
//! reports as exactly these shapes.
//!
//! ```
//! use coverage_core::prelude::*;
//! use coverage_service::{AuditKind, JobSpec};
//!
//! let spec = JobSpec::new(
//!     "press/female-50",
//!     vec![ObjectId(0), ObjectId(1), ObjectId(2)],
//!     AuditKind::GroupCoverage {
//!         target: Target::group(Pattern::parse("1").unwrap()),
//!     },
//! )
//! .tau(25)
//! .budget(500)
//! .priority(7);
//! assert!(spec.validate().is_ok());
//! // The spec is wire-ready: what `POST /jobs` accepts is this JSON.
//! let json = serde_json::to_string(&spec).unwrap();
//! let back: JobSpec = serde_json::from_str(&json).unwrap();
//! assert_eq!(back, spec);
//! ```

use crate::governor::BudgetScope;
use coverage_core::classifier::ClassifierOutcome;
use coverage_core::engine::ObjectId;
use coverage_core::group_coverage::GroupCoverageOutcome;
use coverage_core::intersectional::IntersectionalReport;
use coverage_core::ledger::TaskLedger;
use coverage_core::memo::ReuseStats;
use coverage_core::multiple::MultipleReport;
use coverage_core::pattern::Pattern;
use coverage_core::schema::AttributeSchema;
use coverage_core::target::Target;
use serde::{Deserialize, Error, Serialize, Value};
use std::collections::HashSet;

/// Identifier of a submitted job (dense, in submission order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// Which audit algorithm a job runs, with the algorithm-specific inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditKind {
    /// `Base-Coverage` (Alg. 7): one point query per object.
    BaseCoverage {
        /// The group under audit.
        target: Target,
    },
    /// `Group-Coverage` (Alg. 1): divide-and-conquer set queries.
    GroupCoverage {
        /// The group under audit.
        target: Target,
    },
    /// `Multiple-Coverage` (Alg. 2) over a list of groups.
    MultipleCoverage {
        /// The groups under audit.
        groups: Vec<Pattern>,
    },
    /// Intersectional MUP discovery (Alg. 3) over a whole schema lattice.
    IntersectionalCoverage {
        /// The attribute schema spanning the lattice.
        schema: AttributeSchema,
    },
    /// Classifier-assisted verification (Alg. 4/5).
    ClassifierCoverage {
        /// The group under audit.
        target: Target,
        /// The classifier's predicted member set (must be ⊆ the pool).
        predicted: Vec<ObjectId>,
    },
}

impl AuditKind {
    /// Short algorithm name, e.g. for tables and logs.
    pub fn name(&self) -> &'static str {
        match self {
            AuditKind::BaseCoverage { .. } => "base_coverage",
            AuditKind::GroupCoverage { .. } => "group_coverage",
            AuditKind::MultipleCoverage { .. } => "multiple_coverage",
            AuditKind::IntersectionalCoverage { .. } => "intersectional_coverage",
            AuditKind::ClassifierCoverage { .. } => "classifier_coverage",
        }
    }
}

// AuditKind carries data per variant, which the vendored serde derive does
// not support — serialize as a tagged object by hand.
impl Serialize for AuditKind {
    fn to_value(&self) -> Value {
        let (tag, fields) = match self {
            AuditKind::BaseCoverage { target } => (
                "base_coverage",
                vec![("target".to_string(), target.to_value())],
            ),
            AuditKind::GroupCoverage { target } => (
                "group_coverage",
                vec![("target".to_string(), target.to_value())],
            ),
            AuditKind::MultipleCoverage { groups } => (
                "multiple_coverage",
                vec![("groups".to_string(), groups.to_value())],
            ),
            AuditKind::IntersectionalCoverage { schema } => (
                "intersectional_coverage",
                vec![("schema".to_string(), schema.to_value())],
            ),
            AuditKind::ClassifierCoverage { target, predicted } => (
                "classifier_coverage",
                vec![
                    ("target".to_string(), target.to_value()),
                    ("predicted".to_string(), predicted.to_value()),
                ],
            ),
        };
        let mut pairs = vec![("algorithm".to_string(), Value::Str(tag.to_string()))];
        pairs.extend(fields);
        Value::Object(pairs)
    }
}

impl Deserialize for AuditKind {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let tag = String::from_value(value.get_field("algorithm")?)?;
        match tag.as_str() {
            "base_coverage" => Ok(AuditKind::BaseCoverage {
                target: Target::from_value(value.get_field("target")?)?,
            }),
            "group_coverage" => Ok(AuditKind::GroupCoverage {
                target: Target::from_value(value.get_field("target")?)?,
            }),
            "multiple_coverage" => Ok(AuditKind::MultipleCoverage {
                groups: Vec::from_value(value.get_field("groups")?)?,
            }),
            "intersectional_coverage" => Ok(AuditKind::IntersectionalCoverage {
                schema: AttributeSchema::from_value(value.get_field("schema")?)?,
            }),
            "classifier_coverage" => Ok(AuditKind::ClassifierCoverage {
                target: Target::from_value(value.get_field("target")?)?,
                predicted: Vec::from_value(value.get_field("predicted")?)?,
            }),
            other => Err(Error::unknown_variant("AuditKind", other)),
        }
    }
}

/// One audit job: dataset slice + algorithm + parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Human-readable label for reports.
    pub name: String,
    /// Pool of object ids the audit ranges over (indices into the service's
    /// shared answer source / dataset).
    pub pool: Vec<ObjectId>,
    /// The algorithm and its inputs.
    pub kind: AuditKind,
    /// Coverage threshold `τ`.
    pub tau: usize,
    /// Subset-size upper bound `n` for set queries, and the job's
    /// point-query batch size.
    pub n: usize,
    /// Seed for the job-local RNG (sampling, aggregation, classifier
    /// sampling). Jobs are deterministic given their spec when the platform
    /// answers per-question (see `crowd-sim`'s `SeedMode::PerQuestion`).
    pub seed: u64,
    /// Optional per-job crowd-task budget; `None` defers to the service's
    /// default policy.
    pub budget: Option<u64>,
    /// Worker threads this one job may use for its super-group scan
    /// (`multiple_coverage` / `intersectional_coverage` only — the other
    /// algorithms are single scans). `None` defers to the service's
    /// [`ServiceConfig::intra_job_parallelism`](crate::ServiceConfig)
    /// default; outcomes and logical ledgers are identical whatever the
    /// value, only the job's wall-clock changes.
    pub intra_parallelism: Option<usize>,
    /// Scheduling priority: a higher value runs earlier when workers are
    /// contended. `None` means priority 0, the least urgent class;
    /// `Some(0)` is equally **valid** (unlike
    /// [`JobSpec::intra_parallelism`], where zero workers is meaningless,
    /// every `u32` names a legitimate priority, so [`JobSpec::validate`]
    /// accepts the full range). Ties run in submission order, and waiting
    /// jobs age upward by one per scheduling decision, so a low priority
    /// delays a job but never starves it (see [`crate::scheduler`]).
    /// Priority never changes a job's outcome — only when it runs.
    pub priority: Option<u32>,
}

impl JobSpec {
    /// A spec with the paper's default `τ = 50`, `n = 50`, seed 0 and no
    /// job-specific budget.
    pub fn new(name: impl Into<String>, pool: Vec<ObjectId>, kind: AuditKind) -> Self {
        Self {
            name: name.into(),
            pool,
            kind,
            tau: 50,
            n: 50,
            seed: 0,
            budget: None,
            intra_parallelism: None,
            priority: None,
        }
    }

    /// Sets `τ`.
    pub fn tau(mut self, tau: usize) -> Self {
        self.tau = tau;
        self
    }

    /// Sets the set-query / point-batch size `n`. Zero is representable (a
    /// spec is tenant *input*, not a programmer contract) and rejected by
    /// [`JobSpec::validate`] when the job is about to run.
    pub fn n(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    /// Sets the job RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps this job's crowd tasks.
    pub fn budget(mut self, tasks: u64) -> Self {
        self.budget = Some(tasks);
        self
    }

    /// Lets this job shard its super-group scan across `workers` threads
    /// (see [`JobSpec::intra_parallelism`]). Zero is representable and
    /// rejected by [`JobSpec::validate`] when the job is about to run.
    pub fn intra_parallelism(mut self, workers: usize) -> Self {
        self.intra_parallelism = Some(workers);
        self
    }

    /// Sets the scheduling priority (higher runs earlier; zero is the
    /// valid least-urgent class — see [`JobSpec::priority`]).
    pub fn priority(mut self, priority: u32) -> Self {
        self.priority = Some(priority);
        self
    }

    /// The one place a spec is validated — used by the service before a job
    /// runs (and callable by drivers or front-ends before submission; the
    /// daemon's HTTP boundary maps an `Err` to a `400` body). Rejects
    /// anything that would trip a `coverage-core` programmer-error assert:
    /// at the service boundary a spec is tenant input and must fail only
    /// the offending job, as an `Err`, never a panic.
    ///
    /// Optional knobs validate uniformly: an **absent** (`None`) knob is
    /// always fine (the service default applies), and a **present** value
    /// is checked only against that knob's own domain —
    /// [`JobSpec::intra_parallelism`] via [`require_positive_knob`] (zero
    /// threads cannot run anything), while [`JobSpec::priority`] and
    /// [`JobSpec::budget`] accept their full ranges (priority `0` is the
    /// least-urgent class; budget `0` is an immediately-exhausted cap —
    /// both are meaningful tenant choices, not spec errors).
    pub fn validate(&self) -> Result<(), String> {
        if self.n == 0 {
            return Err("subset size n must be positive".to_string());
        }
        require_positive_knob("intra-job parallelism", self.intra_parallelism)?;
        match &self.kind {
            AuditKind::MultipleCoverage { groups } if groups.is_empty() => {
                Err("multiple_coverage needs at least one group".to_string())
            }
            AuditKind::ClassifierCoverage { predicted, .. } => {
                let pool: HashSet<_> = self.pool.iter().copied().collect();
                if predicted.iter().all(|id| pool.contains(id)) {
                    Ok(())
                } else {
                    Err("classifier predicted set must be a subset of the pool".to_string())
                }
            }
            _ => Ok(()),
        }
    }
}

/// The uniform gate for optional positive-count knobs on a [`JobSpec`]:
/// `None` (knob unset, service default applies) passes, `Some(0)` is
/// rejected with a consistent message, any positive value passes. Knobs
/// whose whole range is meaningful (priority, budget) don't go through
/// this — see [`JobSpec::validate`] for the per-knob domains.
pub fn require_positive_knob(name: &str, value: Option<usize>) -> Result<(), String> {
    match value {
        Some(0) => Err(format!("{name} must be positive when set")),
        _ => Ok(()),
    }
}

/// Lifecycle of a job inside the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, waiting for a worker.
    Queued,
    /// Executing on a worker thread.
    Running,
    /// Finished with a complete outcome.
    Done,
    /// Stopped by the budget governor before finishing; the report's
    /// `outcome` holds the partial result proven before the cut.
    Exhausted {
        /// Which cap refused the next question.
        scope: BudgetScope,
        /// Crowd tasks charged on that cap's ledger at the refusal.
        spent: u64,
        /// The cap itself.
        cap: u64,
    },
    /// Cancelled via [`CancelHandle`](crate::service::CancelHandle); the
    /// report's `outcome` holds the partial result proven before the stop.
    Cancelled,
    /// The job failed: an invalid spec, or the platform could not answer
    /// one of its questions (the report's `error` has the message).
    Failed {
        /// `true` when the failure was a dead-lettered question — the
        /// dispatcher retried it up to the configured budget (or the
        /// tenant's circuit breaker refused it) and gave up. `false` for
        /// permanent failures that were never worth retrying: invalid
        /// specs, typed permanent platform errors, a vanished dispatcher.
        retries_exhausted: bool,
    },
}

impl JobStatus {
    /// Did the job run to completion?
    pub fn is_done(&self) -> bool {
        matches!(self, JobStatus::Done)
    }

    /// Was the job stopped by a budget cap (any scope)?
    pub fn is_exhausted(&self) -> bool {
        matches!(self, JobStatus::Exhausted { .. })
    }

    /// Was the job cancelled?
    pub fn is_cancelled(&self) -> bool {
        matches!(self, JobStatus::Cancelled)
    }

    /// Did the job fail?
    pub fn is_failed(&self) -> bool {
        matches!(self, JobStatus::Failed { .. })
    }

    /// Same lifecycle stage, ignoring any per-variant detail (an
    /// `Exhausted` matches any other `Exhausted` regardless of scope).
    pub fn same_kind(&self, other: &JobStatus) -> bool {
        std::mem::discriminant(self) == std::mem::discriminant(other)
    }
}

// `Exhausted` carries data, which the vendored serde derive does not
// support — serialize by hand: unit variants as plain strings (the
// pre-existing wire shape), `Exhausted` as a tagged object.
impl Serialize for JobStatus {
    fn to_value(&self) -> Value {
        match self {
            JobStatus::Queued => Value::Str("Queued".to_string()),
            JobStatus::Running => Value::Str("Running".to_string()),
            JobStatus::Done => Value::Str("Done".to_string()),
            JobStatus::Cancelled => Value::Str("Cancelled".to_string()),
            // A plain failure keeps the original wire shape (a bare string)
            // so pre-resilience snapshots and clients round-trip unchanged;
            // only the dead-letter flag needs the tagged-object form.
            JobStatus::Failed {
                retries_exhausted: false,
            } => Value::Str("Failed".to_string()),
            JobStatus::Failed {
                retries_exhausted: true,
            } => Value::Object(vec![
                ("status".to_string(), Value::Str("Failed".to_string())),
                ("retries_exhausted".to_string(), Value::Bool(true)),
            ]),
            JobStatus::Exhausted { scope, spent, cap } => Value::Object(vec![
                ("status".to_string(), Value::Str("Exhausted".to_string())),
                ("scope".to_string(), scope.to_value()),
                ("spent".to_string(), spent.to_value()),
                ("cap".to_string(), cap.to_value()),
            ]),
        }
    }
}

impl Deserialize for JobStatus {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) => match s.as_str() {
                "Queued" => Ok(JobStatus::Queued),
                "Running" => Ok(JobStatus::Running),
                "Done" => Ok(JobStatus::Done),
                "Cancelled" => Ok(JobStatus::Cancelled),
                "Failed" => Ok(JobStatus::Failed {
                    retries_exhausted: false,
                }),
                other => Err(Error::unknown_variant("JobStatus", other)),
            },
            Value::Object(_) => {
                let tag = String::from_value(value.get_field("status")?)?;
                match tag.as_str() {
                    "Exhausted" => Ok(JobStatus::Exhausted {
                        scope: BudgetScope::from_value(value.get_field("scope")?)?,
                        spent: u64::from_value(value.get_field("spent")?)?,
                        cap: u64::from_value(value.get_field("cap")?)?,
                    }),
                    "Failed" => Ok(JobStatus::Failed {
                        retries_exhausted: bool::from_value(value.get_field("retries_exhausted")?)?,
                    }),
                    other => Err(Error::unknown_variant("JobStatus", other)),
                }
            }
            other => Err(Error::new(format!(
                "expected JobStatus string or object, found {other:?}"
            ))),
        }
    }
}

/// The algorithm result carried by a finished job.
#[derive(Debug, Clone)]
pub enum AuditOutcome {
    /// Outcome of `base_coverage`, `group_coverage` — a single-group verdict.
    Coverage(GroupCoverageOutcome),
    /// Outcome of `multiple_coverage`.
    Multiple(MultipleReport),
    /// Outcome of `intersectional_coverage`.
    Intersectional(IntersectionalReport),
    /// Outcome of `classifier_coverage`.
    Classifier(ClassifierOutcome),
}

impl AuditOutcome {
    /// The single-group covered/uncovered verdict, when this outcome has one.
    pub fn covered(&self) -> Option<bool> {
        match self {
            AuditOutcome::Coverage(o) => Some(o.covered),
            AuditOutcome::Classifier(o) => Some(o.covered),
            _ => None,
        }
    }
}

impl Serialize for AuditOutcome {
    fn to_value(&self) -> Value {
        let (tag, inner) = match self {
            AuditOutcome::Coverage(o) => ("coverage", o.to_value()),
            AuditOutcome::Multiple(o) => ("multiple", o.to_value()),
            AuditOutcome::Intersectional(o) => ("intersectional", o.to_value()),
            AuditOutcome::Classifier(o) => ("classifier", o.to_value()),
        };
        Value::Object(vec![
            ("kind".to_string(), Value::Str(tag.to_string())),
            ("result".to_string(), inner),
        ])
    }
}

impl Deserialize for AuditOutcome {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let tag = String::from_value(value.get_field("kind")?)?;
        let inner = value.get_field("result")?;
        match tag.as_str() {
            "coverage" => Ok(AuditOutcome::Coverage(Deserialize::from_value(inner)?)),
            "multiple" => Ok(AuditOutcome::Multiple(Deserialize::from_value(inner)?)),
            "intersectional" => Ok(AuditOutcome::Intersectional(Deserialize::from_value(
                inner,
            )?)),
            "classifier" => Ok(AuditOutcome::Classifier(Deserialize::from_value(inner)?)),
            other => Err(Error::unknown_variant("AuditOutcome", other)),
        }
    }
}

/// An ordered phase → duration breakdown of a job's wall-clock: how long
/// it waited in the queue, how long it executed. Serialized as a JSON
/// object whose key order is the phase order (`{"queued": 3, "run": 41}`),
/// so reports diff cleanly and a second round trip is byte-identical.
///
/// Like [`JobReport::wall_ms`], this is *wall-clock observability*, not
/// part of the audit verdict: the telemetry byte-identity proptest
/// (`tests/telemetry.rs`) compares reports modulo `wall_ms` and
/// `phases_ms` only.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PhaseDurations(pub Vec<(String, u64)>);

impl PhaseDurations {
    /// The duration recorded for `phase`, if any.
    pub fn get(&self, phase: &str) -> Option<u64> {
        self.0.iter().find(|(p, _)| p == phase).map(|(_, ms)| *ms)
    }

    /// Appends one phase duration (phases are recorded in lifecycle order).
    pub fn push(&mut self, phase: impl Into<String>, ms: u64) {
        self.0.push((phase.into(), ms));
    }
}

// A map with meaningful key *order* — the vendored derive only handles
// named-field structs, so serialize the object shape by hand.
impl Serialize for PhaseDurations {
    fn to_value(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|(phase, ms)| (phase.clone(), ms.to_value()))
                .collect(),
        )
    }
}

impl Deserialize for PhaseDurations {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Object(pairs) => {
                let mut out = Vec::with_capacity(pairs.len());
                for (phase, ms) in pairs {
                    out.push((phase.clone(), u64::from_value(ms)?));
                }
                Ok(Self(out))
            }
            other => Err(Error::new(format!(
                "expected phases_ms object, found {other:?}"
            ))),
        }
    }
}

/// Terminal report for one job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobReport {
    /// The job's id.
    pub id: JobId,
    /// The spec's label.
    pub name: String,
    /// Algorithm short name.
    pub algorithm: String,
    /// Terminal status: [`JobStatus::Done`], [`JobStatus::Exhausted`],
    /// [`JobStatus::Cancelled`] or [`JobStatus::Failed`].
    pub status: JobStatus,
    /// The algorithm's result: the complete outcome when `Done`, the
    /// **partial** outcome proven before the stop when `Exhausted` or
    /// `Cancelled`, absent when `Failed`.
    pub outcome: Option<AuditOutcome>,
    /// Failure message (present iff `status == Failed`).
    pub error: Option<String>,
    /// The job's *logical* crowd work, metered by its engine: every question
    /// the algorithm asked and got answered, whether or not the shared cache
    /// absorbed it. For exhausted and cancelled jobs this covers exactly the
    /// partial run (the refused question is never counted).
    pub ledger: TaskLedger,
    /// Crowd tasks this job actually charged past the shared knowledge
    /// store, as metered by the budget governor (residual set queries +
    /// batched point labels).
    pub crowd_tasks: u64,
    /// How the shared knowledge store disposed of this job's questions:
    /// answered from facts, narrowed to a residual, or forwarded untouched.
    pub reuse: ReuseStats,
    /// Wall-clock milliseconds from first schedule to completion.
    pub wall_ms: u64,
    /// Ordered phase → duration breakdown of the job's lifecycle
    /// (`queued` wait, `run` execution). Wall-clock observability like
    /// [`JobReport::wall_ms`] — never part of the audit verdict.
    pub phases_ms: PhaseDurations,
}

impl JobReport {
    /// Renders the report as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverage_core::group_coverage::GroupCoverageOutcome;

    fn target() -> Target {
        Target::group(Pattern::parse("1X").unwrap())
    }

    #[test]
    fn audit_kind_round_trips() {
        let kinds = vec![
            AuditKind::BaseCoverage { target: target() },
            AuditKind::GroupCoverage { target: target() },
            AuditKind::MultipleCoverage {
                groups: vec![Pattern::parse("1X").unwrap(), Pattern::parse("X0").unwrap()],
            },
            AuditKind::IntersectionalCoverage {
                schema: AttributeSchema::single_binary("gender", "m", "f"),
            },
            AuditKind::ClassifierCoverage {
                target: target(),
                predicted: vec![ObjectId(1), ObjectId(5)],
            },
        ];
        for kind in kinds {
            let json = serde_json::to_string(&kind).unwrap();
            let back: AuditKind = serde_json::from_str(&json).unwrap();
            assert_eq!(back, kind, "via {json}");
        }
    }

    #[test]
    fn job_spec_builder_and_round_trip() {
        let spec = JobSpec::new(
            "feret-f",
            vec![ObjectId(0), ObjectId(1)],
            AuditKind::GroupCoverage { target: target() },
        )
        .tau(25)
        .n(10)
        .seed(9)
        .budget(500)
        .priority(3);
        assert_eq!(spec.tau, 25);
        assert_eq!(spec.budget, Some(500));
        assert_eq!(spec.priority, Some(3));
        let json = serde_json::to_string(&spec).unwrap();
        let back: JobSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    /// Regression: optional knobs validate uniformly. A present-but-zero
    /// value is rejected only where zero is outside the knob's domain
    /// (`intra_parallelism` — zero threads run nothing); `priority: 0` and
    /// `budget: 0` are legitimate tenant choices and must pass, and every
    /// absent knob passes.
    #[test]
    fn optional_knob_validation_is_uniform() {
        let base = || {
            JobSpec::new(
                "k",
                vec![ObjectId(0)],
                AuditKind::BaseCoverage { target: target() },
            )
        };
        assert!(base().validate().is_ok(), "all knobs absent");
        assert!(
            base().priority(0).validate().is_ok(),
            "zero priority is the valid least-urgent class"
        );
        assert!(
            base().budget(0).validate().is_ok(),
            "zero budget is a valid immediately-exhausted cap"
        );
        let err = base().intra_parallelism(0).validate().unwrap_err();
        assert_eq!(err, "intra-job parallelism must be positive when set");
        assert!(base().intra_parallelism(1).validate().is_ok());
        assert!(base().priority(u32::MAX).validate().is_ok());
        // The shared gate itself.
        assert!(require_positive_knob("x", None).is_ok());
        assert!(require_positive_knob("x", Some(2)).is_ok());
        assert_eq!(
            require_positive_knob("x", Some(0)).unwrap_err(),
            "x must be positive when set"
        );
    }

    #[test]
    fn job_report_serializes_with_outcome() {
        let report = JobReport {
            id: JobId(3),
            name: "audit".into(),
            algorithm: "group_coverage".into(),
            status: JobStatus::Done,
            outcome: Some(AuditOutcome::Coverage(GroupCoverageOutcome {
                covered: true,
                count: 50,
                set_queries: 71,
                witnesses: vec![],
            })),
            error: None,
            ledger: TaskLedger::new(),
            crowd_tasks: 71,
            reuse: ReuseStats::default(),
            wall_ms: 12,
            phases_ms: PhaseDurations(vec![("queued".into(), 1), ("run".into(), 11)]),
        };
        let json = report.to_json();
        assert!(json.contains("\"status\": \"Done\""), "{json}");
        assert!(json.contains("\"queued\": 1"), "{json}");
        let back: JobReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.status, JobStatus::Done);
        assert_eq!(back.outcome.unwrap().covered(), Some(true));
    }

    #[test]
    fn validate_is_the_single_gate() {
        let zero_n = JobSpec::new("x", vec![], AuditKind::BaseCoverage { target: target() }).n(0);
        assert!(zero_n.validate().unwrap_err().contains("positive"));

        let no_groups = JobSpec::new("y", vec![], AuditKind::MultipleCoverage { groups: vec![] });
        assert!(no_groups.validate().unwrap_err().contains("at least one"));

        let stray = JobSpec::new(
            "z",
            vec![ObjectId(0)],
            AuditKind::ClassifierCoverage {
                target: target(),
                predicted: vec![ObjectId(9)],
            },
        );
        assert!(stray.validate().unwrap_err().contains("subset"));

        let fine = JobSpec::new(
            "ok",
            vec![ObjectId(0), ObjectId(9)],
            AuditKind::ClassifierCoverage {
                target: target(),
                predicted: vec![ObjectId(9)],
            },
        );
        assert!(fine.validate().is_ok());
    }

    fn partial_coverage_outcome() -> AuditOutcome {
        AuditOutcome::Coverage(GroupCoverageOutcome {
            covered: false,
            count: 17,
            set_queries: 23,
            witnesses: vec![ObjectId(4), ObjectId(9)],
        })
    }

    /// Golden round-trip: an `Exhausted` report — status detail, partial
    /// outcome, ledger — survives JSON serialization losslessly.
    #[test]
    fn exhausted_report_round_trips_losslessly() {
        for scope in [BudgetScope::Job, BudgetScope::Global] {
            let mut ledger = TaskLedger::new();
            ledger.record_set_query();
            ledger.record_point_work(30, 1);
            let report = JobReport {
                id: JobId(11),
                name: "starved".into(),
                algorithm: "group_coverage".into(),
                status: JobStatus::Exhausted {
                    scope,
                    spent: 40,
                    cap: 40,
                },
                outcome: Some(partial_coverage_outcome()),
                error: None,
                ledger,
                crowd_tasks: 40,
                reuse: ReuseStats {
                    hits: 3,
                    narrowed: 1,
                    forwarded: 40,
                    objects_pruned: 12,
                },
                wall_ms: 7,
                phases_ms: PhaseDurations(vec![("queued".into(), 0), ("run".into(), 7)]),
            };
            let json = report.to_json();
            let back: JobReport = serde_json::from_str(&json).unwrap();
            assert_eq!(back.status, report.status, "via {json}");
            assert!(back.status.is_exhausted());
            assert_eq!(back.ledger, report.ledger);
            assert_eq!(back.crowd_tasks, 40);
            match &back.outcome {
                Some(AuditOutcome::Coverage(o)) => {
                    assert!(!o.covered);
                    assert_eq!(o.count, 17);
                    assert_eq!(o.witnesses, vec![ObjectId(4), ObjectId(9)]);
                }
                other => panic!("partial outcome lost: {other:?}"),
            }
            // Second round trip is byte-identical (canonical form).
            let json2 = serde_json::to_string_pretty(&back).unwrap();
            assert_eq!(json, json2);
        }
    }

    /// Golden round-trip: a `Cancelled` report with its partial outcome.
    #[test]
    fn cancelled_report_round_trips_losslessly() {
        let report = JobReport {
            id: JobId(3),
            name: "stopped".into(),
            algorithm: "base_coverage".into(),
            status: JobStatus::Cancelled,
            outcome: Some(partial_coverage_outcome()),
            error: None,
            ledger: TaskLedger::new(),
            crowd_tasks: 9,
            reuse: ReuseStats::default(),
            wall_ms: 2,
            phases_ms: PhaseDurations::default(),
        };
        let json = report.to_json();
        assert!(json.contains("\"status\": \"Cancelled\""), "{json}");
        let back: JobReport = serde_json::from_str(&json).unwrap();
        assert!(back.status.is_cancelled());
        assert_eq!(back.status, report.status);
        assert!(back.outcome.is_some());
        let json2 = serde_json::to_string_pretty(&back).unwrap();
        assert_eq!(json, json2);
    }

    /// `phases_ms` serializes as an order-preserving JSON object and
    /// round-trips losslessly — including the empty breakdown.
    #[test]
    fn phase_durations_round_trip_in_order() {
        let mut phases = PhaseDurations::default();
        assert_eq!(phases.get("queued"), None);
        phases.push("queued", 3);
        phases.push("run", 41);
        assert_eq!(phases.get("queued"), Some(3));
        assert_eq!(phases.get("run"), Some(41));
        let json = serde_json::to_string(&phases).unwrap();
        assert_eq!(json, r#"{"queued":3,"run":41}"#);
        let back: PhaseDurations = serde_json::from_str(&json).unwrap();
        assert_eq!(back, phases);
        let empty: PhaseDurations = serde_json::from_str("{}").unwrap();
        assert_eq!(empty, PhaseDurations::default());
        assert!(PhaseDurations::from_value(&Value::Int(3)).is_err());
    }

    #[test]
    fn status_kind_comparison_ignores_detail() {
        let a = JobStatus::Exhausted {
            scope: BudgetScope::Job,
            spent: 1,
            cap: 2,
        };
        let b = JobStatus::Exhausted {
            scope: BudgetScope::Global,
            spent: 9,
            cap: 9,
        };
        assert!(a.same_kind(&b));
        assert_ne!(a, b);
        assert!(!a.same_kind(&JobStatus::Done));
        assert!(JobStatus::Done.is_done());
        assert!(JobStatus::Failed {
            retries_exhausted: false
        }
        .is_failed());
        assert!(JobStatus::Failed {
            retries_exhausted: true
        }
        .is_failed());
        assert!(JobStatus::Failed {
            retries_exhausted: true
        }
        .same_kind(&JobStatus::Failed {
            retries_exhausted: false
        }));
    }
}
