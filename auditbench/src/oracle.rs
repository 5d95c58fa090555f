//! Ground truth for every audit: the verdict the dataset's own labels
//! imply, compared with the verdict the daemon reported.

use coverage_core::prelude::*;
use coverage_service::{AuditKind, AuditOutcome, JobReport, JobSpec, JobStatus};

/// The part of an audit's outcome that ground truth fixes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Single-group drivers (base, group, classifier): covered or not.
    Covered(bool),
    /// Multiple coverage: one covered flag per group, in spec order.
    Groups(Vec<bool>),
    /// Intersectional coverage: the maximal uncovered patterns, sorted.
    Mups(Vec<String>),
}

fn sorted_mups(mups: &[Pattern]) -> Vec<String> {
    let mut mups: Vec<String> = mups.iter().map(Pattern::to_string).collect();
    mups.sort();
    mups
}

/// The verdict implied by the true labels of the spec's pool.
pub fn expected(spec: &JobSpec, truth: &impl GroundTruth) -> Verdict {
    let labels: Vec<Labels> = spec.pool.iter().map(|&o| truth.labels_of(o)).collect();
    let covered = |target: &Target| labels.iter().filter(|l| target.matches(l)).count() >= spec.tau;
    match &spec.kind {
        AuditKind::BaseCoverage { target }
        | AuditKind::GroupCoverage { target }
        | AuditKind::ClassifierCoverage { target, .. } => Verdict::Covered(covered(target)),
        AuditKind::MultipleCoverage { groups } => {
            Verdict::Groups(groups.iter().map(|g| covered(&Target::group(*g))).collect())
        }
        AuditKind::IntersectionalCoverage { schema } => {
            Verdict::Mups(sorted_mups(&mups_from_labels(&labels, schema, spec.tau)))
        }
    }
}

/// The verdict an outcome reports.
pub fn observed(outcome: &AuditOutcome) -> Verdict {
    match outcome {
        AuditOutcome::Coverage(o) => Verdict::Covered(o.covered),
        AuditOutcome::Classifier(o) => Verdict::Covered(o.covered),
        AuditOutcome::Multiple(r) => Verdict::Groups(r.results.iter().map(|g| g.covered).collect()),
        AuditOutcome::Intersectional(r) => Verdict::Mups(sorted_mups(&r.mups)),
    }
}

/// `Ok` when the report is `Done` and its verdict matches ground truth.
pub fn check(expected: &Verdict, report: &JobReport) -> Result<(), String> {
    if report.status != JobStatus::Done {
        return Err(format!("job {} ended {:?}", report.id, report.status));
    }
    let Some(outcome) = &report.outcome else {
        return Err(format!("job {} reported no outcome", report.id));
    };
    let got = observed(outcome);
    if &got == expected {
        Ok(())
    } else {
        Err(format!(
            "job {} verdict {got:?}, ground truth {expected:?}",
            report.id
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverage_core::intersectional::IntersectionalReport;
    use coverage_service::{JobId, PhaseDurations};

    /// Two binary attributes with cells 00:5, 01:5, 10:5, 11:0. At τ = 3
    /// every one-attribute pattern is covered and `11` is empty, so `11`
    /// is the only maximal uncovered pattern.
    fn tiny() -> (VecGroundTruth, AttributeSchema) {
        let mut labels = Vec::new();
        for cell in [[0, 0], [0, 1], [1, 0]] {
            labels.extend(std::iter::repeat_n(Labels::new(&cell), 5));
        }
        let schema = AttributeSchema::new(vec![
            Attribute::binary("a", "a0", "a1").unwrap(),
            Attribute::binary("b", "b0", "b1").unwrap(),
        ])
        .unwrap();
        (VecGroundTruth::new(labels), schema)
    }

    fn report(outcome: AuditOutcome) -> JobReport {
        JobReport {
            id: JobId(0),
            name: "t".into(),
            algorithm: "t".into(),
            status: JobStatus::Done,
            outcome: Some(outcome),
            error: None,
            ledger: TaskLedger::new(),
            crowd_tasks: 0,
            reuse: ReuseStats::default(),
            wall_ms: 0,
            phases_ms: PhaseDurations::default(),
        }
    }

    fn intersectional(mups: &[&str]) -> AuditOutcome {
        AuditOutcome::Intersectional(IntersectionalReport::new(
            Vec::new(),
            Vec::new(),
            mups.iter().map(|m| Pattern::parse(m).unwrap()).collect(),
            TaskLedger::new(),
        ))
    }

    #[test]
    fn intersectional_oracle_finds_the_hand_known_mup() {
        let (truth, schema) = tiny();
        let spec = JobSpec::new(
            "tiny",
            truth.all_ids(),
            AuditKind::IntersectionalCoverage { schema },
        )
        .tau(3);
        let want = expected(&spec, &truth);
        assert_eq!(want, Verdict::Mups(vec!["11".to_string()]));
        assert!(check(&want, &report(intersectional(&["11"]))).is_ok());
        assert!(check(&want, &report(intersectional(&["10"]))).is_err());
        assert!(check(&want, &report(intersectional(&["11", "10"]))).is_err());
    }

    #[test]
    fn single_group_oracle_compares_the_true_count_with_tau() {
        let (truth, _) = tiny();
        let target = Target::group(Pattern::parse("1X").unwrap());
        let spec = |tau| {
            JobSpec::new(
                "tiny",
                truth.all_ids(),
                AuditKind::GroupCoverage {
                    target: target.clone(),
                },
            )
            .tau(tau)
        };
        assert_eq!(expected(&spec(5), &truth), Verdict::Covered(true));
        assert_eq!(expected(&spec(6), &truth), Verdict::Covered(false));
    }

    #[test]
    fn a_job_that_did_not_finish_fails_the_check() {
        let mut failed = report(intersectional(&["11"]));
        failed.status = JobStatus::Cancelled;
        let want = Verdict::Mups(vec!["11".to_string()]);
        assert!(check(&want, &failed).is_err());
    }
}
