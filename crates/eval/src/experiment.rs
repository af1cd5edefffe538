//! End-to-end experiment running.
//!
//! The paper's experiments all follow the same protocol: build an index under
//! some space budget, run a workload of queries sampled from the dataset,
//! compare the answers against the exact ground truth, and report accuracy
//! (precision, recall, F1, F0.5), per-query latency, construction time and
//! space usage. [`evaluate_index`] packages that protocol so every benchmark
//! binary (one per figure/table) reduces to composing datasets, methods and
//! parameter sweeps.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use gbkmv_core::dataset::Record;
use gbkmv_core::index::ContainmentIndex;

use crate::ground_truth::GroundTruth;
use crate::metrics::{AccuracySummary, ConfusionCounts};

/// Workload-level knobs of an experiment run, shared by the benchmark
/// binaries: the containment threshold, the number of sampled queries, the
/// thread count used for the exact ground-truth scans (the dominant setup
/// cost). Index-build threading is configured separately on the index's own config
/// (e.g. `GbKmvConfig::threads`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Containment similarity threshold `t*`.
    pub threshold: f64,
    /// Number of queries sampled from the dataset.
    pub num_queries: usize,
    /// Threads for the exact ground-truth scans (`0` = all cores).
    pub threads: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            threshold: 0.5,
            num_queries: 60,
            threads: 0,
        }
    }
}

impl ExperimentConfig {
    /// Overrides the containment threshold.
    pub fn threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold;
        self
    }

    /// Overrides the workload size.
    pub fn num_queries(mut self, num_queries: usize) -> Self {
        self.num_queries = num_queries;
        self
    }

    /// Overrides the thread count (`0` = all available cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Accuracy and timing of one query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueryEvaluation {
    /// Confusion counts against the ground truth.
    pub counts: ConfusionCounts,
    /// Wall-clock query latency.
    pub latency: Duration,
    /// Number of records returned.
    pub answer_size: usize,
    /// Number of records in the ground truth.
    pub truth_size: usize,
}

/// Aggregated report of one method on one workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodReport {
    /// The method's display name (from [`ContainmentIndex::name`]).
    pub method: String,
    /// Containment threshold used.
    pub threshold: f64,
    /// Macro-averaged accuracy.
    pub accuracy: AccuracySummary,
    /// Mean query latency in seconds.
    pub avg_query_seconds: f64,
    /// Total query time in seconds.
    pub total_query_seconds: f64,
    /// Space used by the index, in elements (32-bit words).
    pub space_elements: f64,
    /// Space used relative to the dataset size (the paper's "SpaceUsed").
    pub space_fraction: f64,
    /// Per-query evaluations (kept so figures needing distributions, e.g.
    /// Figure 14, can be derived without re-running).
    pub per_query: Vec<QueryEvaluation>,
}

impl MethodReport {
    /// Mean F1 across queries (convenience accessor used by the benches).
    pub fn f1(&self) -> f64 {
        self.accuracy.f1
    }
}

/// Construction-time report (Figure 18 / Table III).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConstructionReport {
    /// Method name.
    pub method: String,
    /// Wall-clock construction time in seconds.
    pub build_seconds: f64,
    /// Space used in elements.
    pub space_elements: f64,
    /// Space used as a fraction of the dataset size.
    pub space_fraction: f64,
}

/// Runs a query workload against an index and aggregates accuracy and timing
/// against the precomputed ground truth.
///
/// `dataset_total_elements` is the dataset size `N` used to express the
/// index's space as a fraction (the paper's "SpaceUsed" axis).
pub fn evaluate_index(
    index: &dyn ContainmentIndex,
    queries: &[Record],
    ground_truth: &GroundTruth,
    threshold: f64,
    dataset_total_elements: usize,
) -> MethodReport {
    assert_eq!(
        queries.len(),
        ground_truth.len(),
        "workload and ground truth must cover the same queries"
    );
    let mut answers = Vec::with_capacity(queries.len());
    let mut latencies = Vec::with_capacity(queries.len());
    let mut total_time = Duration::ZERO;
    for query in queries {
        let start = Instant::now();
        answers.push(index.search(query.elements(), threshold));
        let latency = start.elapsed();
        total_time += latency;
        latencies.push(latency);
    }
    aggregate_report(
        index,
        ground_truth,
        threshold,
        dataset_total_elements,
        &answers,
        &latencies,
        total_time,
    )
}

/// Accuracy/timing aggregation of the per-query answer lists.
fn aggregate_report(
    index: &dyn ContainmentIndex,
    ground_truth: &GroundTruth,
    threshold: f64,
    dataset_total_elements: usize,
    answers: &[Vec<gbkmv_core::index::SearchHit>],
    latencies: &[Duration],
    total_time: Duration,
) -> MethodReport {
    let mut per_query = Vec::with_capacity(answers.len());
    let mut counts_per_query = Vec::with_capacity(answers.len());
    for (i, (hits, &latency)) in answers.iter().zip(latencies).enumerate() {
        let answer: Vec<usize> = hits.iter().map(|h| h.record_id).collect();
        let truth = ground_truth.for_query(i);
        let counts = ConfusionCounts::from_sets(truth, &answer);
        counts_per_query.push(counts);
        per_query.push(QueryEvaluation {
            counts,
            latency,
            answer_size: answer.len(),
            truth_size: truth.len(),
        });
    }
    let accuracy = AccuracySummary::from_counts(&counts_per_query);
    let space_elements = index.space_elements();
    MethodReport {
        method: index.name().to_string(),
        threshold,
        accuracy,
        avg_query_seconds: if answers.is_empty() {
            0.0
        } else {
            total_time.as_secs_f64() / answers.len() as f64
        },
        total_query_seconds: total_time.as_secs_f64(),
        space_elements,
        space_fraction: if dataset_total_elements == 0 {
            0.0
        } else {
            space_elements / dataset_total_elements as f64
        },
        per_query,
    }
}

/// Measures the wall-clock time of an index-construction closure and wraps
/// it in a [`ConstructionReport`].
pub fn measure_construction<I, F>(
    name: &str,
    dataset_total_elements: usize,
    build: F,
) -> (I, ConstructionReport)
where
    I: ContainmentIndex,
    F: FnOnce() -> I,
{
    let start = Instant::now();
    let index = build();
    let build_seconds = start.elapsed().as_secs_f64();
    let space_elements = index.space_elements();
    let report = ConstructionReport {
        method: name.to_string(),
        build_seconds,
        space_elements,
        space_fraction: if dataset_total_elements == 0 {
            0.0
        } else {
            space_elements / dataset_total_elements as f64
        },
    };
    (index, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbkmv_core::dataset::Dataset;
    use gbkmv_core::index::{GbKmvConfig, GbKmvIndex};
    use gbkmv_datagen::queries::QueryWorkload;
    use gbkmv_datagen::synthetic::{SyntheticConfig, SyntheticDataset};
    use gbkmv_exact::brute::BruteForceIndex;

    fn dataset() -> Dataset {
        SyntheticDataset::generate(SyntheticConfig {
            num_records: 250,
            universe_size: 8_000,
            alpha_element_freq: 1.1,
            alpha_record_size: 3.0,
            min_record_len: 10,
            max_record_len: 200,
            seed: 21,
        })
        .dataset
    }

    #[test]
    fn exact_oracle_scores_perfectly_against_itself() {
        let d = dataset();
        let workload = QueryWorkload::sample_from_dataset(&d, 20, 1);
        let truth = GroundTruth::compute(&d, &workload.queries, 0.5);
        let oracle = BruteForceIndex::build(&d);
        let report = evaluate_index(&oracle, &workload.queries, &truth, 0.5, d.total_elements());
        assert!((report.accuracy.f1 - 1.0).abs() < 1e-12);
        assert!((report.accuracy.precision - 1.0).abs() < 1e-12);
        assert!((report.accuracy.recall - 1.0).abs() < 1e-12);
        assert_eq!(report.per_query.len(), 20);
    }

    #[test]
    fn gbkmv_report_is_sensible() {
        let d = dataset();
        let workload = QueryWorkload::sample_from_dataset(&d, 25, 2);
        let truth = GroundTruth::compute(&d, &workload.queries, 0.5);
        let index = GbKmvIndex::build(&d, GbKmvConfig::with_space_fraction(0.2));
        let report = evaluate_index(&index, &workload.queries, &truth, 0.5, d.total_elements());
        assert_eq!(report.method, "GB-KMV");
        assert!(
            report.accuracy.f1 > 0.3,
            "F1 {} too low",
            report.accuracy.f1
        );
        assert!(report.space_fraction > 0.0 && report.space_fraction < 0.5);
        assert!(report.avg_query_seconds >= 0.0);
        assert!(report.accuracy.f1_max >= report.accuracy.f1_min);
    }

    #[test]
    fn construction_measurement_reports_space() {
        let d = dataset();
        let (_index, report) = measure_construction("GB-KMV", d.total_elements(), || {
            GbKmvIndex::build(&d, GbKmvConfig::with_space_fraction(0.1))
        });
        assert_eq!(report.method, "GB-KMV");
        assert!(report.build_seconds >= 0.0);
        assert!(report.space_fraction > 0.0);
    }

    #[test]
    #[should_panic(expected = "same queries")]
    fn mismatched_truth_panics() {
        let d = dataset();
        let workload = QueryWorkload::sample_from_dataset(&d, 5, 3);
        let truth = GroundTruth::compute(&d, &workload.queries[..3], 0.5);
        let oracle = BruteForceIndex::build(&d);
        let _ = evaluate_index(&oracle, &workload.queries, &truth, 0.5, d.total_elements());
    }

    #[test]
    fn service_evaluation_matches_direct_index() {
        use gbkmv_core::service::ContainmentService;
        let d = dataset();
        let workload = QueryWorkload::sample_from_dataset(&d, 10, 9);
        let truth = GroundTruth::compute(&d, &workload.queries, 0.5);
        let config = GbKmvConfig::with_space_fraction(0.2);
        let index = GbKmvIndex::build(&d, config);
        let direct = evaluate_index(&index, &workload.queries, &truth, 0.5, d.total_elements());
        let service = ContainmentService::new(index);
        let served = evaluate_index(&service, &workload.queries, &truth, 0.5, d.total_elements());
        // A quiescent service snapshot is the wrapped index: identical
        // answers, identical accuracy; only the method label differs.
        assert_eq!(served.method, "GB-KMV/service");
        assert_eq!(direct.accuracy, served.accuracy);
        for (a, b) in direct.per_query.iter().zip(&served.per_query) {
            assert_eq!(a.counts, b.counts);
            assert_eq!(a.answer_size, b.answer_size);
        }
    }

    #[test]
    fn empty_workload_report() {
        let d = dataset();
        let truth = GroundTruth::compute(&d, &[], 0.5);
        let oracle = BruteForceIndex::build(&d);
        let report = evaluate_index(&oracle, &[], &truth, 0.5, d.total_elements());
        assert_eq!(report.per_query.len(), 0);
        assert_eq!(report.avg_query_seconds, 0.0);
    }
}
