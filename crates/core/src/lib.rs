//! # coverage-core
//!
//! Crowdsourced **data-coverage identification** for datasets without explicit
//! attribute values — a reproduction of *"Data Coverage for Detecting
//! Representation Bias in Image Datasets: A Crowdsourcing Approach"*
//! (EDBT 2024).
//!
//! A dataset *covers* a demographic group `g` if it contains at least `τ`
//! objects belonging to `g`. When objects carry no explicit attribute values
//! (e.g. a pile of unlabeled face images), group membership can only be
//! obtained by asking an external *answer source* — typically a crowd of
//! human workers. Every question costs money, so the goal is to decide
//! coverage with as few tasks as possible.
//!
//! ## What lives here
//!
//! * [`schema`] — attributes of interest, their values, and object labels.
//! * [`pattern`] — patterns over the attributes (`X01`-style subgroup
//!   descriptions) and the pattern lattice.
//! * [`target`] — the query target: a group, a super-group (OR of groups),
//!   or a negated group (used by the classifier-assisted algorithm).
//! * [`engine`] — the [`engine::AnswerSource`] abstraction and
//!   the [`engine::Engine`] wrapper that meters every question
//!   through a [`ledger::TaskLedger`].
//! * algorithms —
//!   [`group_coverage::group_coverage`] (the divide-and-conquer
//!   core, Alg. 1 of the paper), [`base_coverage::base_coverage`]
//!   (the point-query baseline, Alg. 7),
//!   [`multiple::multiple_coverage`] (super-group
//!   aggregation, Alg. 2),
//!   [`intersectional::intersectional_coverage`]
//!   (MUP discovery over the pattern lattice, Alg. 3) and
//!   [`classifier::classifier_coverage`]
//!   (classifier-assisted verification, Alg. 4/5).
//! * [`mup`] — maximal-uncovered-pattern discovery for *labeled* data
//!   (the Pattern-Combiner dependency of the paper) and for coverage results.
//! * [`bounds`] — the paper's theoretical task bounds.
//!
//! ## Quick example
//!
//! ```
//! use coverage_core::prelude::*;
//!
//! // A dataset of 1 000 objects: the minority group occupies indices 0..30.
//! let schema = AttributeSchema::new(vec![
//!     Attribute::binary("gender", "male", "female").unwrap(),
//! ]).unwrap();
//! let labels: Vec<Labels> = (0..1000)
//!     .map(|i| Labels::new(&[u8::from(i < 30)]))
//!     .collect();
//! let truth = VecGroundTruth::new(labels);
//!
//! // Ask a perfect oracle (unit tests / synthetic experiments).
//! let mut engine = Engine::new(PerfectSource::new(&truth));
//! let female = schema.pattern(&[("gender", "female")]).unwrap();
//! let pool: Vec<ObjectId> = truth.all_ids();
//! let out = group_coverage(&mut engine, &pool, &Target::group(female), 50, 50,
//!                          &DncConfig::default()).unwrap();
//! assert!(!out.covered);       // only 30 females < τ = 50
//! assert_eq!(out.count, 30);   // exact count when uncovered
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acquisition;
pub mod aggregate;
pub mod base_coverage;
pub mod bounds;
pub mod classifier;
pub mod engine;
pub mod error;
pub mod fingerprint;
pub mod group_coverage;
pub mod intersectional;
pub mod ledger;
pub mod memo;
pub mod multiple;
pub mod mup;
pub mod pattern;
pub mod pattern_graph;
pub mod probe;
pub mod report;
pub mod sampling;
pub mod schema;
pub mod target;
mod tree;
pub mod variable_pricing;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::acquisition::{acquisition_plan, AcquisitionPlan};
    pub use crate::aggregate::{aggregate, SuperGroup};
    pub use crate::base_coverage::base_coverage;
    pub use crate::bounds::{
        group_coverage_envelope, group_coverage_upper_bound, scan_lower_bound, LogBase,
    };
    pub use crate::classifier::{
        classifier_coverage, ClassifierConfig, ClassifierOutcome, FpElimination,
    };
    pub use crate::engine::{
        AnswerSource, BatchAnswerSource, CancelToken, Engine, ForkableSource, GroundTruth,
        InfallibleSource, ObjectId, ObjectIds, PerfectSource, SharedTruthSource, VecGroundTruth,
    };
    pub use crate::error::{AskError, BudgetSnapshot, CoverageError, Interrupted};
    pub use crate::group_coverage::{group_coverage, DncConfig, GroupCoverageOutcome, Traversal};
    pub use crate::intersectional::{
        intersectional_coverage, intersectional_coverage_par, IntersectionalReport,
    };
    pub use crate::ledger::{PricingModel, TaskLedger};
    pub use crate::memo::{
        FactSink, FactSpill, KnowledgeStore, MemoizedSource, ReuseStats, SharedKnowledgeSource,
    };
    pub use crate::multiple::{
        multiple_coverage, multiple_coverage_par, GroupResult, IntraJobParallelism, MultipleConfig,
        MultipleReport,
    };
    pub use crate::mup::{mups_from_counts, mups_from_counts_baseline, mups_from_labels};
    pub use crate::pattern::Pattern;
    pub use crate::pattern_graph::{PatternGraph, PatternId};
    pub use crate::probe::{EngineProbe, ProbeHandle};
    pub use crate::report::CoverageReport;
    pub use crate::sampling::{label_samples, LabeledStore};
    pub use crate::schema::{Attribute, AttributeSchema, Labels, MAX_ATTRS};
    pub use crate::target::Target;
    pub use crate::variable_pricing::{optimal_subset_size, CostScheme};
}

pub use prelude::*;
