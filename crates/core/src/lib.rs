//! # gbkmv-core
//!
//! A from-scratch Rust implementation of **GB-KMV**, the augmented KMV sketch
//! for approximate *containment similarity search* described in
//!
//! > Yang Yang, Ying Zhang, Wenjie Zhang, Zengfeng Huang.
//! > *GB-KMV: An Augmented KMV Sketch for Approximate Containment Similarity
//! > Search.* ICDE 2019 (arXiv:1809.00458).
//!
//! Given a collection of set-valued records `S = {X_1, …, X_m}` over an
//! element universe `E`, and a query record `Q`, the *containment similarity*
//! of `Q` in `X` is `C(Q, X) = |Q ∩ X| / |Q|`. Containment similarity search
//! returns every record whose containment similarity with respect to the query
//! is at least a threshold `t*`.
//!
//! The crate provides three sketch families of increasing sophistication:
//!
//! * [`kmv::KmvSketch`] — the classic *k minimum values* sketch of Beyer et
//!   al., with the union/intersection estimators the paper builds on
//!   (Equations 8–11).
//! * [`gkmv::GKmvSketch`] — the *G-KMV* sketch: instead of a fixed per-record
//!   `k`, every hash value below a single **global threshold** `τ` is kept,
//!   which lets a record pair use `k = |L_Q ∪ L_X|` during estimation
//!   (Theorem 2) and strictly reduces variance under realistic skew
//!   (Theorem 3).
//! * [`gbkmv::GbKmvRecordSketch`] — the full *GB-KMV* sketch: a bitmap **buffer**
//!   stores the top-`r` most frequent elements exactly, and a G-KMV sketch
//!   covers the remaining elements (Algorithm 1, Equation 27). The buffer size
//!   is chosen by the cost model in [`cost`].
//!
//! [`index::GbKmvIndex`] assembles the per-record sketches into a queryable
//! index implementing the paper's Algorithm 2, with a size-partitioned
//! inverted-signature candidate filter in the spirit of the PPjoin*
//! acceleration the authors employ.
//!
//! ## Quick example
//!
//! ```
//! use gbkmv_core::dataset::Dataset;
//! use gbkmv_core::index::{ContainmentIndex, GbKmvConfig, GbKmvIndex};
//!
//! // Four records over a small universe (element ids are plain u32s);
//! // this is Example 1 of the paper.
//! let dataset = Dataset::from_records(vec![
//!     vec![1, 2, 3, 4, 7],
//!     vec![2, 3, 5],
//!     vec![2, 4, 5],
//!     vec![1, 2, 6, 10],
//! ]);
//!
//! // Budget: store the whole dataset (tiny toy data); the buffer size is
//! // chosen automatically by the cost model.
//! let index = GbKmvIndex::build(&dataset, GbKmvConfig::with_space_fraction(1.0));
//!
//! let query = vec![1, 2, 3, 5, 7, 9];
//! let result = index.search(&query, 0.5);
//! // X1 has containment 4/6 ≥ 0.5 with respect to Q and must be returned.
//! assert!(result.iter().any(|r| r.record_id == 0));
//! ```
//!
//! All randomness is deterministic given explicit seeds; no global state is
//! used. The crate has no dependencies beyond `serde` (for experiment
//! serialisation in downstream crates).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod arena;
pub mod buffer;
pub mod cost;
pub mod dataset;
pub mod error;
pub mod gbkmv;
pub mod gkmv;
pub mod hash;
pub mod index;
pub mod kmv;
pub mod mem;
pub mod parallel;
pub mod partition;
pub mod persist;
pub mod powerlaw;
pub mod scratch;
pub mod service;
pub mod sim;
pub mod stats;
pub mod store;
pub mod variants;

pub use arena::ArenaVec;
pub use buffer::{BufferLayout, ElementBuffer};
pub use dataset::{Dataset, DatasetBuilder, ElementId, Record, RecordId};
/// The error type under the name the serving layer's documentation uses.
pub use error::Error as GbKmvError;
pub use error::{Error, Result};
pub use gbkmv::{GbKmvRecordSketch, GbKmvSketcher};
pub use gkmv::{GKmvSketch, GlobalThreshold};
pub use hash::{unit_hash, HashFamily, Hasher64};
pub use index::{
    ContainmentIndex, GbKmvConfig, GbKmvIndex, QueryPipeline, SearchHit, ShardedIndex,
};
pub use kmv::KmvSketch;
pub use mem::MemUsage;
pub use service::ContainmentService;
pub use sim::{containment, jaccard, overlap, SimilarityTransform};
pub use stats::DatasetStats;
pub use store::{QueryScratch, RecordMeta, SketchStore, SketchView};
