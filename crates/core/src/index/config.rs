//! Build-time configuration and summary of a [`crate::index::GbKmvIndex`].

use serde::{Deserialize, Serialize};

use crate::cost::CostModelConfig;

/// How the buffer size is chosen at build time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum BufferSizing {
    /// Choose `r` with the cost model of Section IV-C6 (the default).
    #[default]
    Auto,
    /// Use a fixed buffer size (0 disables the buffer, i.e. G-KMV), clamped
    /// to the budget (see [`GbKmvConfig::buffer_size`]).
    Fixed(usize),
}

/// Configuration of a [`crate::index::GbKmvIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GbKmvConfig {
    /// Space budget as a fraction of the dataset size `N` (the paper's
    /// "SpaceUsed"; its default is 10%). Ignored if `budget_elements` is set.
    pub space_fraction: f64,
    /// Absolute space budget in elements; overrides `space_fraction`.
    pub budget_elements: Option<usize>,
    /// Buffer sizing strategy.
    pub buffer: BufferSizing,
    /// Seed of the sketch hash function.
    pub hash_seed: u64,
    /// Number of threads used for sketching and posting construction at build
    /// time (`0` = all available cores). The built index is identical for
    /// every thread count.
    pub threads: usize,
    /// Number of storage shards (`0` and `1` both mean a single shard). The
    /// sketcher (hash function, buffer layout, global threshold `τ`) is
    /// always chosen globally, so the answers are identical for every shard
    /// count; sharding bounds per-shard arena sizes and gives the batch path
    /// independent units of work.
    pub shards: usize,
    /// Cost model configuration used when `buffer` is [`BufferSizing::Auto`].
    pub cost_model: CostModelConfig,
    /// Queue length at which a [`crate::service::ContainmentService`]
    /// wrapping an index built with this configuration publishes a new
    /// generation automatically (`0` is clamped to 1: publish every
    /// record). A flush costs O(touched shard + batch), not O(index) (see
    /// [`crate::service`]): larger batches amortise the per-flush copy of
    /// the touched shard and the publication over more inserts; smaller
    /// ones shorten the ingest-to-visible latency.
    pub ingest_batch: usize,
}

impl Default for GbKmvConfig {
    fn default() -> Self {
        GbKmvConfig {
            space_fraction: 0.10,
            budget_elements: None,
            buffer: BufferSizing::Auto,
            hash_seed: 0x6bb7_9e4b_1f2d_3c58,
            threads: 0,
            shards: 1,
            cost_model: CostModelConfig::default(),
            ingest_batch: 64,
        }
    }
}

impl GbKmvConfig {
    /// A configuration with the given space fraction and defaults elsewhere.
    pub fn with_space_fraction(fraction: f64) -> Self {
        GbKmvConfig {
            space_fraction: fraction,
            ..Default::default()
        }
    }

    /// A configuration with an absolute element budget.
    pub fn with_budget_elements(budget: usize) -> Self {
        GbKmvConfig {
            budget_elements: Some(budget),
            ..Default::default()
        }
    }

    /// Fixes the buffer size (0 turns GB-KMV into plain G-KMV).
    ///
    /// The build clamps `r` to the number of distinct elements and to the
    /// budget: the bitmaps cost `r/32` elements per record, and they must
    /// leave the G-KMV signatures a positive share of the resolved budget,
    /// so `r ≤ ⌈32·b/m⌉ − 1` for a budget of `b` elements over `m` records
    /// (the cap the cost model's grid stops at). The clamped size is
    /// [`IndexSummary::buffer_size`].
    pub fn buffer_size(mut self, r: usize) -> Self {
        self.buffer = BufferSizing::Fixed(r);
        self
    }

    /// Overrides the sketch hash seed.
    pub fn hash_seed(mut self, seed: u64) -> Self {
        self.hash_seed = seed;
        self
    }

    /// Sets the build-time thread count (`0` = all available cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the number of storage shards (`0`/`1` = unsharded).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the serving-layer ingest batch size: how many queued records a
    /// [`crate::service::ContainmentService`] accumulates before publishing
    /// a new generation.
    pub fn ingest_batch(mut self, batch: usize) -> Self {
        self.ingest_batch = batch;
        self
    }

    /// Resolves the element budget for a dataset with `total_elements`
    /// occurrences.
    pub fn resolve_budget(&self, total_elements: usize) -> usize {
        self.budget_elements
            .unwrap_or_else(|| (self.space_fraction * total_elements as f64).round() as usize)
            .max(1)
    }
}

/// Build-time summary of a [`crate::index::GbKmvIndex`], reported by the
/// experiments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IndexSummary {
    /// The element budget the index was built with.
    pub budget_elements: usize,
    /// The buffer size `r` actually used.
    pub buffer_size: usize,
    /// The global threshold `τ` on the unit interval.
    pub tau: f64,
    /// Space actually consumed, in elements.
    pub space_used_elements: f64,
    /// Space consumed as a fraction of the dataset size `N`.
    pub space_used_fraction: f64,
    /// Number of indexed records.
    pub num_records: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_budget_resolution() {
        let c = GbKmvConfig::with_space_fraction(0.05);
        assert_eq!(c.resolve_budget(1000), 50);
        let c2 = GbKmvConfig::with_budget_elements(123);
        assert_eq!(c2.resolve_budget(1000), 123);
        // Budgets never resolve to zero.
        let c3 = GbKmvConfig::with_space_fraction(0.0);
        assert_eq!(c3.resolve_budget(1000), 1);
    }

    #[test]
    fn builder_knobs_compose() {
        let c = GbKmvConfig::with_space_fraction(0.2)
            .buffer_size(8)
            .hash_seed(7)
            .threads(2)
            .shards(4)
            .ingest_batch(16);
        assert_eq!(c.buffer, BufferSizing::Fixed(8));
        assert_eq!(c.hash_seed, 7);
        assert_eq!(c.threads, 2);
        assert_eq!(c.shards, 4);
        assert_eq!(c.ingest_batch, 16);
        assert_eq!(GbKmvConfig::default().ingest_batch, 64);
    }
}
