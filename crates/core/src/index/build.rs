//! Index construction (Algorithm 1) and dynamic maintenance.
//!
//! [`GbKmvIndex::build`] computes the dataset statistics, chooses the buffer
//! size `r` with the cost model (unless fixed by the caller), selects the
//! global threshold `τ` from the remaining budget, sketches every record —
//! fanning the sketching out over `threads` scoped threads — and hands the
//! sketches to the sharded storage layer (`ShardedIndex::build`), which
//! splits them into contiguous shards of size-ordered stores with
//! size-sorted posting lists. Each store is laid out by the one layout
//! function, [`SketchStore::merge`](crate::store::SketchStore::merge), here
//! the merge of the empty store with the shard's records.
//! A dataset under `PARALLEL_BUILD_MIN_RECORDS` (10,000) records builds on
//! one thread whatever `threads` says.
//! [`GbKmvIndex::insert_batch`] grows the index through the same layout
//! code: the tail shard's store is merged with the sketched batch until it
//! holds `TAIL_SHARD_CAP` records, the rest opens new shards, and every
//! grown or new shard's postings are built as a bulk build builds them
//! ([`crate::index::sharded`]); [`GbKmvIndex::insert`] is its one-record
//! case.

use std::ops::Range;

use crate::cost::{bitmap_budget_cap, BufferCostModel};
use crate::dataset::{Dataset, Record, RecordId};
use crate::gbkmv::GbKmvSketcher;
use crate::hash::Hasher64;
use crate::index::config::{BufferSizing, GbKmvConfig, IndexSummary};
use crate::index::sharded::{ShardedIndex, TAIL_SHARD_CAP};
use crate::index::GbKmvIndex;
use crate::stats::DatasetStats;

/// The smallest dataset whose build fans out over `GbKmvConfig::threads`;
/// a smaller one builds on one thread. Each fan-out (the sketching, then
/// the shards when there are several) spawns scoped threads at a fixed cost
/// of about 0.15 ms, which a build of a few milliseconds does not earn
/// back. The index is identical either way.
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

    /// Appends a batch of records, reusing the existing layout and global
    /// threshold (the paper's dynamic-data maintenance; a full rebuild
    /// re-optimises `τ` and `r`), and returns the ids they took, in order.
    /// The batch fills the tail shard up to
    /// [`TAIL_SHARD_CAP`](crate::index::sharded) records and opens new
    /// shards of at most that many for the rest, each laid out by the bulk
    /// build's code, so with matching sketcher parameters the grown index
    /// is *identical* to a from-scratch build at the same shard boundaries,
    /// at any batch size (the boundaries depend only on the record count).
    pub fn insert_batch(&mut self, records: &[Record]) -> Range<RecordId> {
        self.insert_batch_capped(records, TAIL_SHARD_CAP)
    }

    /// [`GbKmvIndex::insert_batch`] with grown shards capped at `cap`
    /// records; tests cross the cap through it with small indexes.
    pub(crate) fn insert_batch_capped(
        &mut self,
        records: &[Record],
        cap: usize,
    ) -> Range<RecordId> {
        let mut sketches = Vec::with_capacity(records.len());
        for record in records {
            let sketch = self.sketcher.sketch_record(record);
            self.summary.space_used_elements += self.sketcher.sketch_cost_elements(&sketch);
            self.total_elements += record.len();
            sketches.push(sketch);
        }
        self.summary.space_used_fraction =
            self.summary.space_used_elements / self.total_elements.max(1) as f64;
        self.summary.num_records += records.len();
        self.sharded.insert_batch(&sketches, cap)
    }

    /// Appends one record: [`GbKmvIndex::insert_batch`] of a one-record
    /// batch.
    pub fn insert(&mut self, record: &Record) -> RecordId {
        self.insert_batch(std::slice::from_ref(record)).start
    }
}
