//! # gbkmv
//!
//! Umbrella crate for the GB-KMV reproduction: re-exports the core sketch
//! library and the supporting crates so examples and downstream users can
//! depend on a single crate.
//!
//! * [`core`] — the GB-KMV sketches, cost model and search index
//!   (the paper's contribution);
//! * [`lsh`] — MinHash, LSH Forest and the LSH Ensemble baseline;
//! * [`exact`] — exact containment search (brute force, FrequentSet, PPjoin);
//! * [`datagen`] — synthetic dataset generation and the Table II profiles;
//! * [`eval`] — metrics, ground truth and the experiment harness.
//!
//! ```
//! use gbkmv::prelude::*;
//!
//! let dataset = Dataset::from_records(vec![
//!     vec![1, 2, 3, 4, 7],
//!     vec![2, 3, 5],
//!     vec![2, 4, 5],
//!     vec![1, 2, 6, 10],
//! ]);
//! let index = GbKmvIndex::build(&dataset, GbKmvConfig::with_space_fraction(1.0));
//! let hits = index.search(&[1, 2, 3, 5, 7, 9], 0.5);
//! assert!(hits.iter().any(|h| h.record_id == 0));
//! ```

#![deny(missing_docs)]

pub use gbkmv_core as core;
pub use gbkmv_datagen as datagen;
pub use gbkmv_eval as eval;
pub use gbkmv_exact as exact;
pub use gbkmv_lsh as lsh;

/// Commonly used items, re-exported for `use gbkmv::prelude::*`.
pub mod prelude {
    pub use gbkmv_core::dataset::{Dataset, DatasetBuilder, Record};
    pub use gbkmv_core::index::{
        ContainmentIndex, GbKmvConfig, GbKmvIndex, QueryPipeline, SearchHit, ShardedIndex,
    };
    pub use gbkmv_core::sim::{containment, jaccard};
    pub use gbkmv_core::stats::DatasetStats;
    pub use gbkmv_core::store::{QueryScratch, SketchStore, SketchView};
    pub use gbkmv_datagen::profiles::DatasetProfile;
    pub use gbkmv_datagen::queries::QueryWorkload;
    pub use gbkmv_datagen::synthetic::{SyntheticConfig, SyntheticDataset};
    pub use gbkmv_eval::experiment::{evaluate_index, evaluate_index_auto, evaluate_index_batch};
    pub use gbkmv_eval::ground_truth::GroundTruth;
    pub use gbkmv_exact::brute::BruteForceIndex;
    pub use gbkmv_lsh::ensemble::{LshEnsembleConfig, LshEnsembleIndex};
}
