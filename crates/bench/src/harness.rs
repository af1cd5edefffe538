//! Shared plumbing for the per-figure benchmark binaries.
//!
//! Every binary follows the same skeleton: pick dataset profiles, generate
//! the (scaled) datasets, sample a query workload, compute ground truth, run
//! one or more methods and print a table. [`ExperimentEnv`] caches the
//! per-profile artefacts so a binary sweeping a parameter (space budget,
//! threshold, buffer size, …) only pays for dataset generation and ground
//! truth once per profile/threshold combination.

use gbkmv_core::dataset::{Dataset, Record};
use gbkmv_core::index::{ContainmentIndex, GbKmvConfig, GbKmvIndex};
use gbkmv_core::stats::DatasetStats;
use gbkmv_core::variants::{KmvConfig, KmvIndex};
use gbkmv_datagen::profiles::DatasetProfile;
use gbkmv_datagen::queries::QueryWorkload;
use gbkmv_eval::experiment::{evaluate_index, ExperimentConfig, MethodReport};
use gbkmv_eval::ground_truth::GroundTruth;
use gbkmv_lsh::ensemble::{LshEnsembleConfig, LshEnsembleIndex};

/// Number of queries per workload. The paper uses 200; the scaled datasets
/// use 60 to keep every binary within a few seconds while still averaging
/// over a meaningful number of queries.
pub const DEFAULT_NUM_QUERIES: usize = 60;

/// Default containment similarity threshold (the paper's default).
pub const DEFAULT_THRESHOLD: f64 = 0.5;

/// The methods the experiments compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodUnderTest {
    /// GB-KMV with the cost-model buffer (the paper's method).
    GbKmv,
    /// G-KMV (GB-KMV with the buffer disabled).
    GKmv,
    /// Plain KMV with uniform allocation.
    Kmv,
    /// The LSH Ensemble baseline.
    LshE,
}

impl MethodUnderTest {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            MethodUnderTest::GbKmv => "GB-KMV",
            MethodUnderTest::GKmv => "GKMV",
            MethodUnderTest::Kmv => "KMV",
            MethodUnderTest::LshE => "LSH-E",
        }
    }
}

/// Value of a space-separated `--name value` CLI flag, shared by the
/// flag-taking bench binaries (`query_throughput`, `bench_check`).
pub fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Reads the dataset scale factor for the experiment binaries.
///
/// The first CLI argument (or the `GBKMV_BENCH_SCALE` environment variable)
/// divides every profile's record count; `1` reproduces the full scaled
/// profiles from `DESIGN.md`, larger values give quicker smoke runs. The
/// default is 2, which keeps each binary within a few seconds in debug
/// builds.
pub fn cli_scale() -> usize {
    std::env::args()
        .nth(1)
        .or_else(|| std::env::var("GBKMV_BENCH_SCALE").ok())
        .and_then(|s| s.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(2)
}

/// The full set of Table II profiles (used by the figure sweeps).
pub fn default_profiles() -> Vec<DatasetProfile> {
    DatasetProfile::table2_profiles()
}

/// A reduced profile set for quick smoke runs (NETFLIX and ENRON, the two
/// datasets the paper uses for its tuning figure).
pub fn quick_profiles() -> Vec<DatasetProfile> {
    vec![DatasetProfile::Netflix, DatasetProfile::Enron]
}

/// Cached per-profile experiment environment: dataset, statistics, query
/// workload and ground truth at one threshold.
pub struct ExperimentEnv {
    /// The profile this environment was generated from.
    pub profile: DatasetProfile,
    /// The generated dataset.
    pub dataset: Dataset,
    /// Dataset statistics (element frequencies, exponents, …).
    pub stats: DatasetStats,
    /// The sampled queries.
    pub queries: Vec<Record>,
    /// Exact results of each query at [`ExperimentEnv::threshold`].
    pub ground_truth: GroundTruth,
    /// The containment threshold of the cached ground truth.
    pub threshold: f64,
}

impl ExperimentEnv {
    /// Generates the environment for a profile, optionally scaling the
    /// record count down by `scale` for quicker runs.
    pub fn new(profile: DatasetProfile, scale: usize, threshold: f64, num_queries: usize) -> Self {
        Self::with_config(
            profile,
            scale,
            ExperimentConfig::default()
                .threshold(threshold)
                .num_queries(num_queries),
        )
    }

    /// Generates the environment from an [`ExperimentConfig`]: the workload
    /// knobs plus the thread count used for the exact ground-truth scans
    /// (the dominant setup cost on the larger profiles).
    pub fn with_config(profile: DatasetProfile, scale: usize, config: ExperimentConfig) -> Self {
        let dataset = profile.generate_scaled(scale);
        let stats = DatasetStats::compute(&dataset);
        let workload =
            QueryWorkload::sample_from_dataset(&dataset, config.num_queries, 0xBEEF ^ scale as u64);
        let ground_truth = GroundTruth::compute_with_threads(
            &dataset,
            &workload.queries,
            config.threshold,
            config.threads,
        );
        ExperimentEnv {
            profile,
            dataset,
            stats,
            queries: workload.queries,
            ground_truth,
            threshold: config.threshold,
        }
    }

    /// Default-size environment at the default threshold.
    pub fn standard(profile: DatasetProfile) -> Self {
        Self::new(profile, 1, DEFAULT_THRESHOLD, DEFAULT_NUM_QUERIES)
    }

    /// Recomputes the ground truth at a different threshold (used by the
    /// threshold-sweep figure), reusing all available cores.
    pub fn with_threshold(&self, threshold: f64) -> GroundTruth {
        GroundTruth::compute_with_threads(&self.dataset, &self.queries, threshold, 0)
    }

    /// Total number of element occurrences `N` of the dataset.
    pub fn total_elements(&self) -> usize {
        self.stats.total_elements
    }

    /// Evaluates an already-built index against the cached workload, one
    /// query at a time.
    pub fn evaluate(&self, index: &dyn ContainmentIndex) -> MethodReport {
        evaluate_index(
            index,
            &self.queries,
            &self.ground_truth,
            self.threshold,
            self.total_elements(),
        )
    }

    /// Evaluates an index against a different threshold (ground truth is
    /// recomputed).
    pub fn evaluate_at(&self, index: &dyn ContainmentIndex, threshold: f64) -> MethodReport {
        let truth = self.with_threshold(threshold);
        evaluate_index(
            index,
            &self.queries,
            &truth,
            threshold,
            self.total_elements(),
        )
    }
}

/// Builds a GB-KMV index at the given space fraction (cost-model buffer).
pub fn build_gbkmv(dataset: &Dataset, space_fraction: f64) -> GbKmvIndex {
    GbKmvIndex::build(dataset, GbKmvConfig::with_space_fraction(space_fraction))
}

/// Builds an LSH Ensemble index with the given number of MinHash functions
/// (the paper varies the hash count to change LSH-E's space usage).
pub fn build_lshe(dataset: &Dataset, num_hashes: usize) -> LshEnsembleIndex {
    LshEnsembleIndex::build(
        dataset,
        LshEnsembleConfig::with_num_hashes(num_hashes)
            .partitions(16)
            .bands(num_hashes.min(32)),
    )
}

/// Builds one of the four compared methods on a dataset.
///
/// `space_fraction` controls the KMV-family budget; `lshe_hashes` controls
/// the LSH Ensemble signature size (its space knob).
pub fn build_method(
    method: MethodUnderTest,
    dataset: &Dataset,
    space_fraction: f64,
    lshe_hashes: usize,
) -> Box<dyn ContainmentIndex> {
    match method {
        MethodUnderTest::GbKmv => Box::new(build_gbkmv(dataset, space_fraction)),
        MethodUnderTest::GKmv => Box::new(GbKmvIndex::build(
            dataset,
            GbKmvConfig::with_space_fraction(space_fraction).buffer_size(0),
        )),
        MethodUnderTest::Kmv => Box::new(KmvIndex::build(
            dataset,
            KmvConfig::with_space_fraction(space_fraction),
        )),
        MethodUnderTest::LshE => Box::new(build_lshe(dataset, lshe_hashes)),
    }
}

/// Convenience wrapper: builds a method on the environment's dataset and
/// evaluates it against the cached workload.
pub fn evaluate_on_profile(
    env: &ExperimentEnv,
    method: MethodUnderTest,
    space_fraction: f64,
    lshe_hashes: usize,
) -> MethodReport {
    let index = build_method(method, &env.dataset, space_fraction, lshe_hashes);
    env.evaluate(index.as_ref())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn environment_builds_and_evaluates() {
        let env = ExperimentEnv::new(DatasetProfile::Netflix, 16, 0.5, 10);
        assert_eq!(env.queries.len(), 10);
        assert_eq!(env.ground_truth.len(), 10);
        let report = evaluate_on_profile(&env, MethodUnderTest::GbKmv, 0.2, 32);
        assert_eq!(report.method, "GB-KMV");
        assert!(report.accuracy.f1 > 0.0);
    }

    #[test]
    fn all_methods_build_on_a_small_profile() {
        let env = ExperimentEnv::new(DatasetProfile::Enron, 20, 0.5, 6);
        for method in [
            MethodUnderTest::GbKmv,
            MethodUnderTest::GKmv,
            MethodUnderTest::Kmv,
            MethodUnderTest::LshE,
        ] {
            let report = evaluate_on_profile(&env, method, 0.15, 32);
            assert!(!report.method.is_empty(), "{:?} produced no report", method);
            assert!(report.space_elements > 0.0);
            assert!(report.accuracy.recall >= 0.0 && report.accuracy.recall <= 1.0);
        }
    }

    #[test]
    fn profile_lists() {
        assert_eq!(default_profiles().len(), 7);
        assert_eq!(quick_profiles().len(), 2);
    }
}
