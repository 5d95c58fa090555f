//! # coverage-service
//!
//! Concurrent multi-audit orchestration for the EDBT 2024 coverage stack —
//! the serving layer that turns the single-audit library into a platform.
//!
//! Real deployments audit many datasets, groups and thresholds at once
//! against one shared, expensive answer source (a crowd). This crate runs
//! audit **jobs** — any of the paper's five algorithms
//! (`base_coverage`, `group_coverage`, `multiple_coverage`,
//! `intersectional_coverage`, `classifier_coverage`) — on a pool of worker
//! threads, multiplexed onto one platform through three shared layers:
//!
//! * a **platform-wide knowledge store**
//!   ([`SharedKnowledgeSource`](coverage_core::memo::SharedKnowledgeSource)):
//!   an object-level fact base of labels, membership verdicts and set
//!   verdicts. Questions are *decomposed* against it — a set query with a
//!   known member is answered outright, known non-members are pruned and
//!   only the residual is forwarded — so a label any job has paid for
//!   shrinks every other job's queries, across algorithms and targets;
//! * a **batched dispatcher** ([`dispatch`]): one thread owns the platform,
//!   coalescing concurrent point queries into many-images-per-HIT batches
//!   (the paper's HIT layout), serving each residual set query as its own
//!   HIT, and sharing simulated round-trip latency across jobs;
//! * a **budget governor** ([`governor`]): per-job and global crowd-task
//!   caps with graceful [`JobStatus::Exhausted`] outcomes carrying the
//!   partial result discovered before the cut.
//!
//! Scale-out works along both axes: the worker pool runs many jobs at
//! once, and a single giant job can shard its own super-group scan across
//! [`JobSpec::intra_parallelism`] threads (service default:
//! [`ServiceConfig::intra_job_parallelism`]) while the shared store is
//! lock-striped over [`ServiceConfig::store_shards`] shards — neither knob
//! changes any verdict or logical ledger, only wall-clock.
//!
//! The pool dispatches by **priority** ([`JobSpec::priority`], default
//! 0): higher runs first, ties in submission order, and queued jobs age
//! upward so nothing starves (see [`scheduler`]). Priority moves *when* a
//! job runs, never what it reports.
//!
//! The whole ask path is **fallible**: budget exhaustion, cancellation
//! (see [`AuditService::cancel_handle`]) and platform failures travel as
//! `Err(AskError)` values from the answer source up through the algorithm
//! drivers — never as panics — so every terminal [`JobStatus`] is ordinary
//! data and exhausted/cancelled jobs still report partial progress.
//!
//! All of the above machinery is one daemon, reached through two front
//! doors:
//!
//! * **daemon** — [`AuditDaemon`](daemon) keeps the pool, dispatcher and
//!   knowledge store alive indefinitely: submit at any time, query live
//!   [`JobStatus`]es, cancel, drain, shut down — and serve it all over
//!   HTTP/JSON via [`HttpServer`](http) (`POST /jobs`, `GET /jobs/{id}`,
//!   …), since specs, statuses and reports already serialize
//!   (`serde` + `serde_json`);
//! * **scoped batch** — [`AuditService::run`] starts the same daemon
//!   core, queues the collected specs, runs the dispatcher on the calling
//!   thread until they finish and returns one [`ServiceReport`] through
//!   the daemon's own shutdown. Its answer source may therefore borrow.
//!
//! Both honour every [`ServiceConfig`] knob, [`ServiceConfig::data_dir`]
//! included, except the daemon-only submit door
//! ([`ServiceConfig::tenant_rate_limit`]).
//!
//! ## Quick example
//!
//! ```
//! use coverage_core::prelude::*;
//! use coverage_service::{AuditKind, AuditService, JobSpec, JobStatus};
//!
//! // A 2 000-object dataset, 80 members of the minority group.
//! let labels: Vec<Labels> = (0..2000)
//!     .map(|i| Labels::single(u8::from(i % 25 == 0)))
//!     .collect();
//! let truth = VecGroundTruth::new(labels);
//! let target = Target::group(Pattern::parse("1").unwrap());
//!
//! let mut service = AuditService::with_defaults();
//! let pool = truth.all_ids();
//! let a = service.submit(JobSpec::new(
//!     "dnc",
//!     pool.clone(),
//!     AuditKind::GroupCoverage { target: target.clone() },
//! ));
//! let b = service.submit(JobSpec::new(
//!     "dnc-again",
//!     pool,
//!     AuditKind::GroupCoverage { target },
//! ));
//!
//! let (report, _source) = service.run(PerfectSource::new(&truth));
//! assert_eq!(report.count_status(JobStatus::Done), 2);
//! // The twin job was answered from the shared cache: the platform was
//! // charged for one audit, not two.
//! assert_eq!(report.job(a).unwrap().ledger, report.job(b).unwrap().ledger);
//! assert!(report.crowd_tasks <= report.total_logical.total_tasks() / 2 + 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod daemon;
pub mod dispatch;
pub mod fleet;
pub mod governor;
pub mod http;
pub mod job;
pub mod persist;
pub mod scheduler;
pub mod service;
pub mod telemetry;

pub use breaker::{BreakerRegistry, BreakerState};
pub use daemon::{
    AuditDaemon, BreakerSummary, DaemonStats, JobSummary, PeerSummary, Readiness, SubmitRefusal,
};
pub use dispatch::{DispatchStats, DispatcherConfig, RetryPolicy};
pub use fleet::{FleetDelta, FleetJobId, FleetNode, FleetRouter, HashRing};
pub use governor::{BudgetPolicy, BudgetScope};
pub use http::{HttpClient, HttpServer};
pub use job::{AuditKind, AuditOutcome, JobId, JobReport, JobSpec, JobStatus, PhaseDurations};
pub use persist::{DiskFaults, Persistence, SpillFile, WalRecord};
pub use service::{AuditService, CancelHandle, ServiceConfig, ServiceReport, TenantRateLimit};
pub use telemetry::{Telemetry, TraceEvent};

#[cfg(test)]
mod tests {
    use super::*;
    use coverage_core::prelude::*;
    use std::time::Duration;

    fn minority_truth(n: usize, minority: usize) -> VecGroundTruth {
        VecGroundTruth::new(
            (0..n)
                .map(|i| Labels::single(u8::from(i < minority)))
                .collect(),
        )
    }

    fn female() -> Target {
        Target::group(Pattern::parse("1").unwrap())
    }

    #[test]
    fn mixed_algorithms_run_concurrently() {
        let truth = minority_truth(3000, 120);
        let pool = truth.all_ids();
        let schema = AttributeSchema::single_binary("gender", "male", "female");
        let mut service = AuditService::new(ServiceConfig {
            workers: 6,
            ..ServiceConfig::default()
        });
        service.submit(
            JobSpec::new(
                "group",
                pool.clone(),
                AuditKind::GroupCoverage { target: female() },
            )
            .tau(100),
        );
        service.submit(
            JobSpec::new(
                "base",
                pool[..300].to_vec(),
                AuditKind::BaseCoverage { target: female() },
            )
            .tau(100),
        );
        service.submit(
            JobSpec::new(
                "multiple",
                pool.clone(),
                AuditKind::MultipleCoverage {
                    groups: vec![Pattern::parse("0").unwrap(), Pattern::parse("1").unwrap()],
                },
            )
            .tau(100)
            .seed(5),
        );
        service.submit(
            JobSpec::new(
                "intersectional",
                pool.clone(),
                AuditKind::IntersectionalCoverage { schema },
            )
            .tau(100)
            .seed(6),
        );
        service.submit(
            JobSpec::new(
                "classifier",
                pool.clone(),
                AuditKind::ClassifierCoverage {
                    target: female(),
                    predicted: pool[..100].to_vec(),
                },
            )
            .tau(100)
            .seed(7),
        );
        let (report, _) = service.run(PerfectSource::new(&truth));
        assert_eq!(report.jobs.len(), 5);
        assert_eq!(
            report.count_status(JobStatus::Done),
            5,
            "{}",
            report.to_json()
        );
        // Single-group verdicts agree with ground truth (120 >= 100).
        assert_eq!(
            report.jobs[0].outcome.as_ref().unwrap().covered(),
            Some(true)
        );
        assert_eq!(
            report.jobs[1].outcome.as_ref().unwrap().covered(),
            Some(true)
        );
        assert_eq!(
            report.jobs[4].outcome.as_ref().unwrap().covered(),
            Some(true)
        );
        // The report is fully serializable.
        let json = report.to_json();
        let back: ServiceReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.jobs.len(), 5);
    }

    #[test]
    fn budget_exhaustion_is_graceful() {
        let truth = minority_truth(5000, 10);
        let pool = truth.all_ids();
        let mut service = AuditService::new(ServiceConfig {
            workers: 2,
            budget: BudgetPolicy::unlimited(),
            ..ServiceConfig::default()
        });
        // Base coverage over 5 000 objects needs ~5 000 point HITs; a budget
        // of 40 exhausts quickly. The sibling group-coverage job proceeds.
        service.submit(
            JobSpec::new(
                "starved",
                pool.clone(),
                AuditKind::BaseCoverage { target: female() },
            )
            .tau(50)
            .budget(40),
        );
        service.submit(
            JobSpec::new(
                "fine",
                pool.clone(),
                AuditKind::GroupCoverage { target: female() },
            )
            .tau(5),
        );
        let (report, _) = service.run(PerfectSource::new(&truth));
        let starved = report.job(JobId(0)).unwrap();
        match starved.status {
            JobStatus::Exhausted { scope, spent, cap } => {
                assert_eq!(scope, BudgetScope::Job);
                assert_eq!(cap, 40);
                assert!(spent <= 40);
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
        // Exhaustion now carries the partial scan: witnesses found so far.
        match starved.outcome.as_ref() {
            Some(AuditOutcome::Coverage(partial)) => {
                assert!(!partial.covered);
                assert!(partial.count < 50);
            }
            other => panic!("expected partial coverage outcome, got {other:?}"),
        }
        assert!(starved.crowd_tasks <= 40, "spent {}", starved.crowd_tasks);
        // The logical ledger now survives exhaustion (the engine is never
        // unwound): it counts every *answered* membership question, whose
        // crowd spend amortizes at the 50-image dispatcher batch.
        assert!(starved.ledger.point_labels() > 0);
        assert_eq!(
            starved.crowd_tasks,
            starved.ledger.point_labels().div_ceil(50),
            "crowd spend is the amortized view of the answered questions"
        );
        let fine = report.job(JobId(1)).unwrap();
        assert_eq!(fine.status, JobStatus::Done);
    }

    #[test]
    fn global_budget_spans_jobs() {
        let truth = minority_truth(4000, 20);
        let pool = truth.all_ids();
        // Each base job labels 1 000 objects; past the memo layer that is
        // ceil(1000/50) = 20 crowd-task equivalents. A global cap of 30
        // funds the first job and cuts the second off mid-scan.
        let mut service = AuditService::new(ServiceConfig {
            workers: 1, // deterministic scheduling: jobs run in order
            budget: BudgetPolicy::global(30),
            ..ServiceConfig::default()
        });
        for i in 0..4 {
            service.submit(
                JobSpec::new(
                    format!("base-{i}"),
                    pool[(i * 1000)..(i + 1) * 1000].to_vec(),
                    AuditKind::BaseCoverage { target: female() },
                )
                .tau(50),
            );
        }
        let (report, _) = service.run(PerfectSource::new(&truth));
        assert!(report.crowd_tasks <= 30, "spent {}", report.crowd_tasks);
        assert_eq!(report.job(JobId(0)).unwrap().status, JobStatus::Done);
        let exhausted: Vec<_> = report
            .jobs
            .iter()
            .filter(|j| j.status.is_exhausted())
            .collect();
        assert!(
            exhausted.len() >= 2,
            "global cap must starve later jobs: {}",
            report.to_json()
        );
        for job in exhausted {
            match job.status {
                JobStatus::Exhausted { scope, cap, .. } => {
                    assert_eq!(scope, BudgetScope::Global);
                    assert_eq!(cap, 30);
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn invalid_spec_fails_only_its_own_job() {
        let truth = minority_truth(100, 10);
        let pool = truth.all_ids();
        let mut service = AuditService::with_defaults();
        // predicted set not a subset of the pool: the algorithm asserts.
        service.submit(JobSpec::new(
            "bad",
            pool[..10].to_vec(),
            AuditKind::ClassifierCoverage {
                target: female(),
                predicted: vec![ObjectId(99)],
            },
        ));
        service.submit(
            JobSpec::new(
                "good",
                pool.clone(),
                AuditKind::GroupCoverage { target: female() },
            )
            .tau(5),
        );
        let (report, _) = service.run(PerfectSource::new(&truth));
        let bad = report.job(JobId(0)).unwrap();
        assert_eq!(
            bad.status,
            JobStatus::Failed {
                retries_exhausted: false
            }
        );
        assert!(
            bad.error.as_ref().unwrap().contains("subset"),
            "panic message surfaced: {:?}",
            bad.error
        );
        assert_eq!(report.job(JobId(1)).unwrap().status, JobStatus::Done);
    }

    /// A source whose answers validate object ids — the fallible analogue
    /// of a platform that rejects malformed HITs instead of crashing.
    pub(crate) struct CheckedSource<'a> {
        pub(crate) truth: &'a VecGroundTruth,
    }

    impl CheckedSource<'_> {
        fn check(&self, objects: &[ObjectId]) -> Result<(), coverage_core::AskError> {
            let n = self.truth.num_objects();
            match objects.iter().find(|o| o.index() >= n) {
                Some(bad) => Err(coverage_core::AskError::SourceFailed(format!(
                    "the platform failed to answer this question: {bad} out of range"
                ))),
                None => Ok(()),
            }
        }
    }

    impl AnswerSource for CheckedSource<'_> {
        fn try_answer_set(
            &mut self,
            objects: &[ObjectId],
            target: &Target,
        ) -> Result<bool, coverage_core::AskError> {
            self.check(objects)?;
            Ok(PerfectSource::new(self.truth).answer_set(objects, target))
        }

        fn try_answer_point_labels(
            &mut self,
            object: ObjectId,
        ) -> Result<Labels, coverage_core::AskError> {
            self.check(&[object])?;
            Ok(self.truth.labels_of(object))
        }
    }

    impl BatchAnswerSource for CheckedSource<'_> {}

    /// A question the platform cannot answer (here: an out-of-range object
    /// id) must fail only the job that asked it — the error travels as
    /// `Err(SourceFailed)` through the dispatcher while everyone else keeps
    /// being served.
    #[test]
    fn platform_failure_fails_only_the_asking_job() {
        let truth = minority_truth(100, 10);
        let pool = truth.all_ids();
        let mut service = AuditService::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        service.submit(
            JobSpec::new(
                "poisoned",
                vec![ObjectId(500)], // out of range for a 100-object dataset
                AuditKind::BaseCoverage { target: female() },
            )
            .tau(1),
        );
        service.submit(
            JobSpec::new(
                "healthy",
                pool.clone(),
                AuditKind::GroupCoverage { target: female() },
            )
            .tau(5),
        );
        let (report, _) = service.run(CheckedSource { truth: &truth });
        let poisoned = report.job(JobId(0)).unwrap();
        assert_eq!(
            poisoned.status,
            JobStatus::Failed {
                retries_exhausted: false
            }
        );
        assert!(
            poisoned
                .error
                .as_ref()
                .unwrap()
                .contains("failed to answer"),
            "error: {:?}",
            poisoned.error
        );
        assert_eq!(report.job(JobId(1)).unwrap().status, JobStatus::Done);
    }

    /// Cancelling via the handle: a queued job reports `Cancelled` without
    /// running; the others are untouched.
    #[test]
    fn cancel_before_run_reports_cancelled() {
        let truth = minority_truth(500, 60);
        let pool = truth.all_ids();
        let mut service = AuditService::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        service.submit(
            JobSpec::new(
                "doomed",
                pool.clone(),
                AuditKind::GroupCoverage { target: female() },
            )
            .tau(5),
        );
        let keep = service.submit(
            JobSpec::new(
                "kept",
                pool.clone(),
                AuditKind::GroupCoverage { target: female() },
            )
            .tau(5),
        );
        let handle = service.cancel_handle();
        assert!(handle.cancel(JobId(0)));
        assert!(!handle.cancel(JobId(99)), "unknown job is a no-op");
        let (report, _) = service.run(PerfectSource::new(&truth));
        let doomed = report.job(JobId(0)).unwrap();
        assert!(doomed.status.is_cancelled());
        assert_eq!(doomed.ledger.total_tasks(), 0, "never ran");
        assert_eq!(report.job(keep).unwrap().status, JobStatus::Done);
    }

    /// Priority steers the scoped pool too: with one worker and a global
    /// budget that funds exactly one audit, the job that completes is the
    /// highest-priority one — even though it was submitted last.
    #[test]
    fn priority_orders_the_scoped_pool() {
        let truth = minority_truth(4000, 20);
        let pool = truth.all_ids();
        // Each base job labels 1 000 objects = 20 crowd tasks; a global cap
        // of 25 funds one job and cuts off whichever runs second.
        let mut service = AuditService::new(ServiceConfig {
            workers: 1,
            budget: BudgetPolicy::global(25),
            ..ServiceConfig::default()
        });
        for i in 0..4 {
            service.submit(
                JobSpec::new(
                    format!("base-{i}"),
                    pool[(i * 1000)..(i + 1) * 1000].to_vec(),
                    AuditKind::BaseCoverage {
                        target: Target::group(Pattern::parse("1").unwrap()),
                    },
                )
                .tau(50)
                .priority(if i == 3 { 9 } else { 1 }),
            );
        }
        let (report, _) = service.run(PerfectSource::new(&truth));
        assert_eq!(
            report.job(JobId(3)).unwrap().status,
            JobStatus::Done,
            "the high-priority job must run first: {}",
            report.to_json()
        );
        assert!(
            report.jobs[..3].iter().all(|j| j.status.is_exhausted()),
            "the low-priority jobs hit the drained global cap: {}",
            report.to_json()
        );
    }

    #[test]
    fn round_latency_is_shared_across_jobs() {
        // Six *disjoint* audits (no cache overlap): serially each question
        // pays its own simulated platform round trip; concurrently the jobs
        // wait out each round together.
        let truth = minority_truth(3000, 500);
        let pool = truth.all_ids();
        let run = |workers: usize| {
            let mut service = AuditService::new(ServiceConfig {
                workers,
                round_latency: Duration::from_millis(1),
                ..ServiceConfig::default()
            });
            for i in 0..6 {
                service.submit(
                    JobSpec::new(
                        format!("job-{i}"),
                        pool[i * 500..(i + 1) * 500].to_vec(),
                        AuditKind::GroupCoverage { target: female() },
                    )
                    .tau(30)
                    .n(25),
                );
            }
            let (report, _) = service.run(PerfectSource::new(&truth));
            assert_eq!(report.count_status(JobStatus::Done), 6);
            report.wall_ms
        };
        let serial_ms = run(1);
        let concurrent_ms = run(6);
        assert!(
            concurrent_ms < serial_ms,
            "6 workers ({concurrent_ms} ms) should beat 1 worker ({serial_ms} ms)"
        );
    }
}
