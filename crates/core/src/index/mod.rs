//! The GB-KMV containment similarity search index (Algorithms 1 and 2).
//!
//! [`GbKmvIndex::build`] runs Algorithm 1 (see [`crate::index::build`]);
//! [`GbKmvIndex::search`] runs Algorithm 2: the containment threshold is
//! converted to an overlap threshold `θ = t*·|Q|`, the intersection of the
//! query with each candidate record is estimated with Equation 27, and
//! records whose estimate reaches `θ` are returned.
//!
//! # The staged query pipeline
//!
//! The query engine is an explicit four-stage pipeline over a sharded,
//! size-ordered storage layer; every search variant is a composition of the
//! stage modules rather than a hand-fused loop:
//!
//! ```text
//!                 ┌────────────────────────────── per shard ──────────────────────────────┐
//! query ─ sketch ─┤ prune ─────────► candidates ─────────► finish ──────────► rank        ├─► hits
//!                 │ (live prefix +   (df-ordered minting   (O(1) Equation-27  (threshold  │
//!                 │  sig. minting     prefix, buffer        estimate)          collect /  │
//!                 │  prefix + b_min)  popcount sweep,                          top-k)     │
//!                 │                   lookup-only suffix)                                 │
//!                 └────────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! * [`prune`] — two structural cuts, both answer-preserving by
//!   construction. **Size:** records are stored in *size-descending slot
//!   order*, so the records that can reach the overlap threshold are a slot
//!   **prefix**, found with one binary search; posting-list suffixes below
//!   the cutoff are never traversed. **Signature prefix:** of the query's
//!   signature hashes, only the `|L_Q| − θ_sig + 1` rarest can mint a
//!   qualifying candidate (the `u_Q`-corrected pigeonhole bound of the
//!   module docs); the frequent rest — which own the longest posting
//!   lists — need only score already-minted candidates.
//! * [`candidates`] — term-at-a-time walk of the query's signature-hash
//!   postings, accumulating `K∩` and candidate membership into an
//!   epoch-stamped [`QueryScratch`](crate::scratch::QueryScratch): minting
//!   hashes are ordered by ascending **document frequency** (maintained in the
//!   [`SketchStore`](crate::store::SketchStore) through build and insert)
//!   and walked first, then the frequent hashes accumulate lookup-only,
//!   then a popcount sweep over the store's buffer words (the buffer is
//!   stored once, as those words; there are no buffer postings) finds the
//!   buffered candidates. It reads only the 64-slot blocks whose OR
//!   summary can reach the buffer bound, and emits every buffered
//!   candidate the signature walk did not touch straight to the rank stage.
//! * [`finish`] — O(1) per-candidate estimate
//!   ([`GKmvPairEstimate::from_parts`](crate::gkmv::GKmvPairEstimate::from_parts))
//!   from the store's packed scalars plus a 1–2 word popcount; a swept slot
//!   is finished in place by the sweep's sink.
//! * [`rank`] — one final radix sort by ascending record id, or a bounded
//!   binary heap for top-k.
//!
//! [`QueryPipeline`] owns the per-stage state and is the reusable executor;
//! [`ShardedIndex`] is the storage layer of N independent shards covering
//! contiguous record-id ranges. Two parallel schedules run over it:
//! [`GbKmvIndex::search_batch`] fans a query *slab* over scoped threads
//! (throughput — one pipeline per worker), and
//! [`GbKmvIndex::search_parallel`] fans a *single* query's live slot ranges
//! over scoped threads (latency — per-worker scratches, merged by one
//! record-id sort). The unaccelerated [`GbKmvIndex::search_scan`] in
//! [`mod@reference`] is the one oracle: every path returns bit-identical
//! hits to it, which the agreement tests and the `query_agreement` property
//! suite enforce for all shard counts, thread counts and both walks of the
//! signature prefix filter (prefixed and unfiltered, which the filter picks
//! per query).
//!
//! # Entry points
//!
//! * [`GbKmvIndex::search_record`] / [`GbKmvIndex::search_elements`] — one
//!   thresholded query through a thread-local [`QueryPipeline`];
//! * [`GbKmvIndex::search_topk`] — the `k` best-scoring records;
//! * [`GbKmvIndex::search_batch`], [`GbKmvIndex::search_parallel`] and
//!   [`GbKmvIndex::search_auto`] — the parallel schedules (plus the
//!   `*_threads` variants with an explicit thread count);
//! * [`GbKmvIndex::search_scan`] — the reference.
//!
//! Query loops that manage their own per-thread state use
//! [`QueryPipeline`] directly.

pub mod build;
pub mod candidates;
pub mod config;
pub mod finish;
pub mod pipeline;
pub mod postings;
pub mod prune;
pub mod rank;
pub mod reference;
pub mod sharded;

#[cfg(test)]
mod tests;

use std::cell::RefCell;

use serde::{Deserialize, Serialize};

pub use config::{BufferSizing, GbKmvConfig, IndexSummary};
pub use pipeline::QueryPipeline;
pub use postings::PostingList;
pub use sharded::{Shard, ShardedIndex};

use crate::dataset::{ElementId, Record, RecordId};
use crate::gbkmv::{GbKmvRecordSketch, GbKmvSketcher};
use crate::parallel;
use crate::store::SketchView;

/// A single search result.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchHit {
    /// Identifier of the matching record.
    pub record_id: RecordId,
    /// Estimated intersection size `|Q ∩ X|^`.
    pub estimated_overlap: f64,
    /// Estimated containment similarity `Ĉ(Q, X)`.
    pub estimated_containment: f64,
}

/// Common interface implemented by every (approximate or exact) containment
/// similarity search structure in this repository, so the evaluation harness
/// can treat GB-KMV, its ablations, LSH-E and the exact baselines uniformly.
pub trait ContainmentIndex {
    /// Returns the records whose (estimated) containment similarity with
    /// respect to `query` is at least `t_star`.
    ///
    /// **Contract:** hits are returned sorted by ascending `record_id`, so
    /// result sets from different methods (and from the same method's
    /// accelerated and reference paths) compare positionally.
    fn search(&self, query: &[ElementId], t_star: f64) -> Vec<SearchHit>;

    /// Answers a batch of queries; `result[i]` is exactly what
    /// [`ContainmentIndex::search`] would return for `queries[i]`.
    ///
    /// The default implementation is the sequential loop; indexes with a
    /// parallel batch engine (e.g. [`GbKmvIndex::search_batch`]) override it.
    fn search_batch(&self, queries: &[Record], t_star: f64) -> Vec<Vec<SearchHit>> {
        queries
            .iter()
            .map(|q| self.search(q.elements(), t_star))
            .collect()
    }

    /// Answers one query with the work of that *single* query fanned over
    /// all available cores, returning exactly what
    /// [`ContainmentIndex::search`] would return.
    ///
    /// The default implementation is the sequential search; indexes with an
    /// intra-query parallel engine (e.g. [`GbKmvIndex::search_parallel`])
    /// override it. Use this for latency-bound workloads (one expensive
    /// query at a time); use [`ContainmentIndex::search_batch`] for
    /// throughput-bound ones (many queries, one per core).
    fn search_parallel(&self, query: &[ElementId], t_star: f64) -> Vec<SearchHit> {
        self.search(query, t_star)
    }

    /// Answers a workload with the execution schedule — sequential,
    /// parallel batch, or intra-query parallel — chosen by the index from
    /// the workload shape and the machine, returning exactly what
    /// [`ContainmentIndex::search`] would return per query.
    ///
    /// The default implementation delegates to
    /// [`ContainmentIndex::search_batch`] (whose own default is the
    /// sequential loop); indexes with several engines (e.g.
    /// [`GbKmvIndex::search_auto`]) override it with a cost-based choice.
    fn search_auto(&self, queries: &[Record], t_star: f64) -> Vec<Vec<SearchHit>> {
        self.search_batch(queries, t_star)
    }

    /// Space consumed by the index, measured in elements (32-bit words), the
    /// unit the paper's space budget uses.
    fn space_elements(&self) -> f64;

    /// Human-readable name used in experiment reports.
    fn name(&self) -> &'static str;
}

thread_local! {
    /// Per-thread pipeline reused by the convenience search entry points, so
    /// callers that don't manage a [`QueryPipeline`] still pay zero
    /// allocation per query after the first.
    ///
    /// The pipeline's scratch grows to the largest shard searched on the
    /// thread (8 bytes per record) and stays resident for the thread's
    /// lifetime — even after the index is dropped. Query loops that care
    /// about retained memory should run their own [`QueryPipeline`] and
    /// drop it when done.
    static QUERY_PIPELINE: RefCell<QueryPipeline> = RefCell::new(QueryPipeline::new());
}

/// Runs `f` on a canonical (strictly ascending, deduplicated) form of
/// `query`: the borrowed slice itself when it already qualifies (every
/// [`Record`]'s invariant — zero copies), otherwise one canonicalising copy.
/// The single home of the policy every element-slice entry point shares.
pub(crate) fn with_canonical_query<R>(query: &[ElementId], f: impl FnOnce(&[ElementId]) -> R) -> R {
    if query.windows(2).all(|w| w[0] < w[1]) {
        f(query)
    } else {
        let owned = Record::new(query.to_vec());
        f(owned.elements())
    }
}

/// The GB-KMV containment similarity search index.
///
/// Cloning is **copy-on-write cheap**: the shards (via
/// [`ShardedIndex`]) and the sketcher live behind [`Arc`](std::sync::Arc)s,
/// so a clone is a handful of pointer bumps and storage is duplicated only
/// when a shared shard is actually mutated (see `ShardedIndex::insert`).
/// The serving layer's per-generation publish depends on this.
#[derive(Debug, Clone)]
pub struct GbKmvIndex {
    pub(crate) sketcher: std::sync::Arc<GbKmvSketcher>,
    pub(crate) sharded: ShardedIndex,
    pub(crate) summary: IndexSummary,
    pub(crate) config: GbKmvConfig,
    pub(crate) total_elements: usize,
}

impl GbKmvIndex {
    /// The shared sketching state (hash function, layout, threshold).
    pub fn sketcher(&self) -> &GbKmvSketcher {
        &self.sketcher
    }

    /// A clone that duplicates every shard's storage up front instead of
    /// sharing it copy-on-write — exactly what `Clone` did before the
    /// serving layer went COW. Kept as the measured baseline of the ingest
    /// bench's flush-cost comparison; nothing on the serving path uses it.
    #[must_use]
    pub fn deep_clone(&self) -> Self {
        GbKmvIndex {
            sketcher: std::sync::Arc::new(GbKmvSketcher::clone(&self.sketcher)),
            sharded: self.sharded.deep_clone(),
            summary: self.summary,
            config: self.config,
            total_elements: self.total_elements,
        }
    }

    /// Build-time summary (budget, buffer size, τ, space used).
    pub fn summary(&self) -> IndexSummary {
        self.summary
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> GbKmvConfig {
        self.config
    }

    /// Number of indexed records.
    pub fn num_records(&self) -> usize {
        self.sharded.len()
    }

    /// The sharded storage layer (exposed for diagnostics and benchmarks).
    pub fn sharded(&self) -> &ShardedIndex {
        &self.sharded
    }

    /// Per-component memory breakdown of the index's storage layer: every
    /// arena (hash values, CSR offsets, buffer bitmaps, record metadata,
    /// permutations) and posting structure reports its owned heap bytes,
    /// and zero-copy loaded sections (see [`crate::persist`]) report under
    /// [`MemUsage::borrowed_bytes`](crate::mem::MemUsage::borrowed_bytes)
    /// instead.
    pub fn mem_usage(&self) -> crate::mem::MemUsage {
        self.sharded.mem_usage()
    }

    /// Combined memory breakdown of several indexes that may share shards
    /// behind `Arc`s — e.g. the snapshot pair around a copy-on-write flush.
    ///
    /// Each distinct shard (by `Arc` identity) contributes its component
    /// bytes exactly once; every further sighting of the same shard lands
    /// in [`MemUsage::shared_bytes`](crate::mem::MemUsage::shared_bytes)
    /// instead, so [`MemUsage::total_bytes`](crate::mem::MemUsage::total_bytes)
    /// reports what the set actually holds in memory and `shared_bytes`
    /// reports the copying the COW publish avoided.
    pub fn mem_usage_shared<'a>(
        indexes: impl IntoIterator<Item = &'a GbKmvIndex>,
    ) -> crate::mem::MemUsage {
        let mut seen: std::collections::HashSet<*const Shard> = std::collections::HashSet::new();
        let mut usage = crate::mem::MemUsage::default();
        for index in indexes {
            for shard in index.sharded.shards() {
                let contribution = shard.mem_usage();
                if seen.insert(std::sync::Arc::as_ptr(shard)) {
                    usage.add(&contribution);
                } else {
                    usage.add(&contribution.into_shared());
                }
            }
        }
        usage
    }

    /// Heap bytes held by the index's inverted posting lists, summed over
    /// shards — the posting-memory number the `query_throughput` bench
    /// reports.
    pub fn posting_bytes(&self) -> usize {
        self.sharded.posting_bytes()
    }

    /// Always 0: posting lists have one format, with no bitmap blocks. The
    /// method stays because the frozen `perfbench` harness reports it.
    pub fn bitmap_blocks(&self) -> usize {
        0
    }

    /// Borrowed view of one record's stored sketch — the non-allocating
    /// accessor the internal paths use.
    pub fn sketch_view(&self, record_id: RecordId) -> SketchView<'_> {
        self.sharded.view_of_record(record_id)
    }

    /// Materialises the sketch of one record (diagnostics; internal callers
    /// use the borrowed [`GbKmvIndex::sketch_view`]).
    pub fn record_sketch(&self, record_id: RecordId) -> GbKmvRecordSketch {
        let (shard, local) = self.sharded.locate(record_id);
        shard.store().record_sketch(local)
    }

    /// Sketches an ad-hoc query with the index's hash function, layout and
    /// threshold.
    pub fn sketch_query(&self, query: &Record) -> GbKmvRecordSketch {
        self.sketcher.sketch_record(query)
    }

    /// Estimated containment of `query` in the record `record_id`.
    pub fn estimate_containment(&self, query: &Record, record_id: RecordId) -> f64 {
        if query.is_empty() {
            return 0.0;
        }
        let q_sketch = self.sketch_query(query);
        let view = candidates::QuerySketchView::new(&q_sketch);
        let (shard, local) = self.sharded.locate(record_id);
        let slot = shard.store().slot_of(local);
        finish::merge_overlap(shard.store(), &view, slot) / query.len() as f64
    }

    /// Containment similarity search (Algorithm 2) through the staged
    /// pipeline (prune → candidates → finish → rank).
    pub fn search_record(&self, query: &Record, t_star: f64) -> Vec<SearchHit> {
        self.search_sorted(query.elements(), t_star)
    }

    /// Containment similarity search over a borrowed element slice.
    ///
    /// If the slice is already sorted and deduplicated (every [`Record`]'s
    /// invariant, so e.g. `record.elements()` qualifies) the query runs with
    /// **zero** copies of the input; otherwise one canonicalising copy is
    /// made.
    pub fn search_elements(&self, query: &[ElementId], t_star: f64) -> Vec<SearchHit> {
        with_canonical_query(query, |q| self.search_sorted(q, t_star))
    }

    fn search_sorted(&self, query: &[ElementId], t_star: f64) -> Vec<SearchHit> {
        QUERY_PIPELINE.with(|p| p.borrow_mut().search_sorted(self, query, t_star))
    }

    /// Reference implementation: estimates the intersection with every
    /// record (subject to the size filter) without candidate pruning, via a
    /// sorted merge per record over the flat store.
    pub fn search_scan(&self, query: &Record, t_star: f64) -> Vec<SearchHit> {
        reference::scan_sorted(self, query.elements(), t_star)
    }

    /// Top-k containment search: the `k` records with the highest estimated
    /// containment similarity with respect to the query.
    ///
    /// This is the ranking variant of Algorithm 2 used by applications such
    /// as domain search, where the analyst wants the best-covering datasets
    /// rather than everything above a threshold. Candidates are generated
    /// exactly as in the thresholded search (every record sharing a buffered
    /// element or a signature hash with the query — the prune stage is
    /// skipped, since ranking has no overlap threshold) and ranked through a
    /// bounded binary heap; ties are broken by ascending record id for
    /// determinism. Only records with a positive estimated overlap are
    /// ranked, so a `k` above their count returns fewer than `k` hits.
    pub fn search_topk(&self, query: &Record, k: usize) -> Vec<SearchHit> {
        QUERY_PIPELINE.with(|p| p.borrow_mut().topk(self, query.elements(), k))
    }

    /// Intra-query parallel search: answers one query with its posting and
    /// finish work partitioned into contiguous live-slot sub-ranges fanned
    /// over all available cores (each worker owns a private scratch), then
    /// merged with one record-id sort. Bit-identical to
    /// [`GbKmvIndex::search_elements`] for every thread count; queries too
    /// small to amortise the thread spawns (live range under
    /// [`pipeline::PARALLEL_MIN_LIVE_SLOTS`]) run sequentially.
    ///
    /// This is the latency lever for very large shards; for many small
    /// queries prefer [`GbKmvIndex::search_batch`], which parallelises
    /// *across* queries instead.
    pub fn search_parallel(&self, query: &[ElementId], t_star: f64) -> Vec<SearchHit> {
        self.search_parallel_threads(query, t_star, 0)
    }

    /// [`GbKmvIndex::search_parallel`] with an explicit thread count
    /// (`0` = all available cores).
    pub fn search_parallel_threads(
        &self,
        query: &[ElementId],
        t_star: f64,
        threads: usize,
    ) -> Vec<SearchHit> {
        QUERY_PIPELINE.with(|p| p.borrow_mut().search_parallel(self, query, t_star, threads))
    }

    /// Parallel batch search: answers every query of the slab, fanning
    /// contiguous query chunks out over all available cores (one
    /// [`QueryPipeline`] per worker) across the index's shards, and returns
    /// the per-query hit lists in input order. `result[i]` is bit-identical
    /// to `search_record(&queries[i], t_star)` for every thread count.
    pub fn search_batch(&self, queries: &[Record], t_star: f64) -> Vec<Vec<SearchHit>> {
        self.search_batch_threads(queries, t_star, 0)
    }

    /// Cost-based automatic schedule selection: answers the workload
    /// through whichever engine the workload shape and the (cached) core
    /// count favour, bit-identical to a per-query
    /// [`GbKmvIndex::search_record`] loop.
    ///
    /// * several queries on a multi-core machine — the parallel **batch**
    ///   path (one pipeline per core; parallelising *across* queries beats
    ///   splitting any single one),
    /// * a single query on a multi-core machine — the **intra-query
    ///   parallel** path, which itself degrades to the sequential engine
    ///   when the query's live-slot count is below
    ///   [`pipeline::PARALLEL_MIN_LIVE_SLOTS`] (the same live-slot cost
    ///   model, applied after the per-shard prune cutoffs are known),
    /// * a single core — the plain **sequential** loop; no schedule can
    ///   win without parallel hardware, so none pays spawn overhead.
    ///
    /// The core count comes from the process-wide cache of
    /// [`parallel::resolve_threads`], so the choice itself costs
    /// nanoseconds. `ExperimentConfig::auto(true)` routes the evaluation
    /// harness through this entry point.
    pub fn search_auto(&self, queries: &[Record], t_star: f64) -> Vec<Vec<SearchHit>> {
        let cores = parallel::resolve_threads(0);
        if cores > 1 && queries.len() > 1 {
            return self.search_batch(queries, t_star);
        }
        if cores > 1 {
            return queries
                .iter()
                .map(|q| self.search_parallel(q.elements(), t_star))
                .collect();
        }
        queries
            .iter()
            .map(|q| self.search_record(q, t_star))
            .collect()
    }

    /// [`GbKmvIndex::search_batch`] with an explicit thread count
    /// (`0` = all available cores).
    pub fn search_batch_threads(
        &self,
        queries: &[Record],
        t_star: f64,
        threads: usize,
    ) -> Vec<Vec<SearchHit>> {
        parallel::map_chunks(queries, threads, |_, chunk| {
            let mut pipeline = QueryPipeline::new();
            chunk
                .iter()
                .map(|q| pipeline.search_sorted(self, q.elements(), t_star))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

impl ContainmentIndex for GbKmvIndex {
    fn search(&self, query: &[ElementId], t_star: f64) -> Vec<SearchHit> {
        self.search_elements(query, t_star)
    }

    fn search_batch(&self, queries: &[Record], t_star: f64) -> Vec<Vec<SearchHit>> {
        GbKmvIndex::search_batch(self, queries, t_star)
    }

    fn search_parallel(&self, query: &[ElementId], t_star: f64) -> Vec<SearchHit> {
        GbKmvIndex::search_parallel(self, query, t_star)
    }

    fn search_auto(&self, queries: &[Record], t_star: f64) -> Vec<Vec<SearchHit>> {
        GbKmvIndex::search_auto(self, queries, t_star)
    }

    fn space_elements(&self) -> f64 {
        self.summary.space_used_elements
    }

    fn name(&self) -> &'static str {
        "GB-KMV"
    }
}
