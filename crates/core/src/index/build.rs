//! Index construction (Algorithm 1) and dynamic maintenance.
//!
//! [`GbKmvIndex::build`] computes the dataset statistics, chooses the buffer
//! size `r` with the cost model (unless fixed by the caller), selects the
//! global threshold `τ` from the remaining budget, sketches every record —
//! fanning the sketching out over `threads` scoped threads — and hands the
//! sketches to the sharded storage layer (`ShardedIndex::build`), which splits them into
//! contiguous shards of size-ordered stores with size-sorted posting lists.
//! A dataset under `PARALLEL_BUILD_MIN_RECORDS` (10,000) records builds on
//! one thread whatever `threads` says.
//! [`GbKmvIndex::insert`] appends through the same sharded path.

use crate::cost::{bitmap_budget_cap, BufferCostModel};
use crate::dataset::{Dataset, Record, RecordId};
use crate::gbkmv::GbKmvSketcher;
use crate::hash::Hasher64;
use crate::index::config::{BufferSizing, GbKmvConfig, IndexSummary};
use crate::index::sharded::ShardedIndex;
use crate::index::GbKmvIndex;
use crate::stats::DatasetStats;

/// The smallest dataset whose build fans out over `GbKmvConfig::threads`;
/// a smaller one builds on one thread. Each fan-out (the sketching, then
/// the posting construction) spawns scoped threads at a fixed cost of about
/// 0.15 ms, which a build of a few milliseconds does not earn back. The
/// index is identical either way.
///
/// Measured with 61 alternating pairs of one-thread and two-thread builds
/// per size on `query_throughput`'s Zipf data (10% budget, `r = 0`), 2-core
/// shared x86-64 host: the median speedup of the fan-out was 0.84x at 1k
/// records, 0.89x at 2.5k, 0.92x at 5k and 0.93x at 7.5k, with the upper
/// quartile below 1.0; from 10k (0.94x, upper quartile 1.00) to 20k the
/// interquartile range holds 1.0.
pub(crate) const PARALLEL_BUILD_MIN_RECORDS: usize = 10_000;

impl GbKmvIndex {
    /// Builds the index over a dataset (Algorithm 1).
    pub fn build(dataset: &Dataset, config: GbKmvConfig) -> Self {
        let stats = DatasetStats::compute(dataset);
        Self::build_with_stats(dataset, &stats, config)
    }

    /// Builds the index when the dataset statistics are already available
    /// (avoids a second pass when the caller needs the stats anyway).
    pub fn build_with_stats(dataset: &Dataset, stats: &DatasetStats, config: GbKmvConfig) -> Self {
        let total_elements = stats.total_elements;
        let budget = config.resolve_budget(total_elements);
        let buffer_size = match config.buffer {
            BufferSizing::Fixed(r) => r
                .min(stats.num_distinct_elements)
                .min(bitmap_budget_cap(stats.num_records, budget)),
            BufferSizing::Auto => {
                BufferCostModel::evaluate(stats, budget, config.cost_model).optimal_buffer_size
            }
        };

        let threads = if dataset.len() < PARALLEL_BUILD_MIN_RECORDS {
            1
        } else {
            config.threads
        };
        let hasher = Hasher64::new(config.hash_seed);
        let sketcher = GbKmvSketcher::build(dataset, stats, hasher, buffer_size, budget);
        let sketches = sketcher.sketch_dataset_threads(dataset, threads);
        let sharded =
            ShardedIndex::build(&sketches, config.shards, sketcher.layout().words(), threads);

        let space_used_elements = sketcher.layout().cost_per_record() * sharded.len() as f64
            + sharded.total_hashes() as f64;

        let summary = IndexSummary {
            budget_elements: budget,
            buffer_size,
            tau: sketcher.threshold().unit(),
            space_used_elements,
            space_used_fraction: if total_elements == 0 {
                0.0
            } else {
                space_used_elements / total_elements as f64
            },
            num_records: dataset.len(),
        };

        GbKmvIndex {
            sketcher: std::sync::Arc::new(sketcher),
            sharded,
            summary,
            config,
            total_elements,
        }
    }

    /// Appends a new record to the index, reusing the existing layout and
    /// global threshold (the dynamic-data maintenance path described in the
    /// paper; a full rebuild re-optimises `τ` and `r`).
    ///
    /// The record goes through the same sharded path as the bulk build: it
    /// is appended to the tail shard, spliced into the slot that keeps the
    /// shard's store size-ordered, and its signature postings are inserted
    /// at their sorted positions — so the pruned query pipeline sees a
    /// structure indistinguishable from a from-scratch build (with matching
    /// sketcher parameters, *identical* to one; the tests pin this).
    pub fn insert(&mut self, record: &Record) -> RecordId {
        let sketch = self.sketcher.sketch_record(record);
        let id = self.sharded.insert(&sketch);
        self.summary.space_used_elements += self.sketcher.sketch_cost_elements(&sketch);
        self.total_elements += record.len();
        self.summary.space_used_fraction =
            self.summary.space_used_elements / self.total_elements.max(1) as f64;
        self.summary.num_records += 1;
        id
    }
}
