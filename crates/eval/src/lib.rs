//! # gbkmv-eval
//!
//! Evaluation harness for containment similarity search methods.
//!
//! The crate reproduces the measurement protocol of Section V of the GB-KMV
//! paper:
//!
//! * [`metrics`] — precision, recall and the Fα score (Equation 35; the
//!   paper reports F1 and F0.5);
//! * [`ground_truth`] — exact result sets per query, computed with the
//!   brute-force oracle from `gbkmv-exact`;
//! * [`experiment`] — end-to-end experiment runner: build an index, run a
//!   query workload, aggregate accuracy and timing into a
//!   [`experiment::MethodReport`];
//! * [`report`] — plain-text table and JSON output helpers used by the
//!   benchmark binaries that regenerate each figure/table.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod experiment;
pub mod ground_truth;
pub mod metrics;
pub mod report;

pub use experiment::{
    evaluate_index, ConstructionReport, ExperimentConfig, MethodReport, QueryEvaluation,
};
pub use ground_truth::GroundTruth;
pub use metrics::{f_score, precision_recall, AccuracySummary, ConfusionCounts};
pub use report::{format_table, write_json_report};
