//! The staged query pipeline: **candidates → prune → finish → rank**.
//!
//! [`QueryPipeline`] owns the per-stage state (the epoch-stamped
//! [`QueryScratch`] of the candidate stage plus the prefix-filter toggle)
//! and composes the stage modules into the search variants; the batch path
//! runs one pipeline per worker thread over its query slab, and the
//! intra-query parallel path ([`QueryPipeline::search_parallel`]) fans the
//! posting work of a *single* query over scoped threads.
//!
//! Stage composition for a thresholded search, per shard:
//!
//! 1. **prune** ([`crate::index::prune`]) — one binary search over the
//!    size-ordered slots gives the live prefix `0..live`; smaller records
//!    cannot reach the overlap threshold. The same stage derives the
//!    minting bounds for step 2: the signature minting prefix and the
//!    buffer pass's minimum buffered overlap `b_min`.
//! 2. **candidates** ([`crate::index::candidates`]) — walk the query's
//!    signature postings, each truncated at `live`: the rarest `minting`
//!    hashes (df-ordered) mint candidates, the frequent hashes' remainder
//!    accumulates lookup-only. Between the two, the buffer pass mints the
//!    buffered candidates (none when `b_min > B_q`): a sweep over the
//!    buffer words mints the slots of `0..live` whose buffer-word popcount
//!    against the query reaches `b_min`, and records the overlap of each
//!    slot it mints.
//! 3. **finish** ([`crate::index::finish`]) — O(1) Equation-27 estimate per
//!    surviving candidate. A swept slot takes its buffered overlap from the
//!    sweep's record; when no signature hash reached it (`K∩ = 0`), that
//!    overlap is its whole estimate and the threshold test needs no store
//!    read. Every other candidate recounts its overlap from the buffer
//!    words.
//! 4. **rank** ([`crate::index::rank`]) — collect qualifying hits and order
//!    them by ascending global record id, by a radix sort linear in the
//!    answer (or keep the best `k` in a bounded heap).
//!
//! # Intra-query parallelism
//!
//! [`search_parallel`](QueryPipeline::search_parallel) partitions the live
//! slot ranges of all shards into contiguous sub-ranges and runs the
//! candidates + finish stages of each sub-range on its own scoped thread
//! with a private [`QueryScratch`] (posting lists are sliced to the
//! sub-range by binary search, so no slot is ever touched by two workers).
//! Because each slot's accumulation and finish are independent of every
//! other slot, and the rank stage's final sort is over globally unique
//! record ids, the merged result is **bit-identical** to the sequential
//! pipeline for every thread count and every work split. Queries whose
//! live range is below [`PARALLEL_MIN_LIVE_SLOTS`] (or a resolved thread
//! count of one) run sequentially on the pipeline's own scratch — thread
//! spawns cost tens of microseconds, which would dominate the
//! microsecond-scale queries of a small index.

use crate::dataset::ElementId;
use crate::index::candidates::{self, QuerySketchView};
use crate::index::finish;
use crate::index::prune::{Minting, PruneStage};
use crate::index::rank::{ThresholdCollector, TopK};
use crate::index::reference;
use crate::index::sharded::Shard;
use crate::index::{GbKmvIndex, SearchHit};
use crate::parallel;
use crate::scratch::QueryScratch;
use crate::sim::OverlapThreshold;

/// Minimum total live slots before [`QueryPipeline::search_parallel`]
/// actually spawns workers: below this, per-query thread-spawn overhead
/// (tens of microseconds per worker) exceeds the traversal work itself and
/// the query runs sequentially instead. The answers are identical either
/// way; only the schedule changes.
pub const PARALLEL_MIN_LIVE_SLOTS: usize = 4096;

/// A reusable query executor: the staged pipeline plus its per-stage state.
///
/// Query loops create one pipeline (per thread) and reuse it, paying zero
/// allocation per query after the first; the convenience entry points on
/// [`GbKmvIndex`] use a thread-local pipeline instead.
#[derive(Debug, Default)]
pub struct QueryPipeline {
    scratch: QueryScratch,
    /// Per-worker scratches of [`QueryPipeline::search_parallel`], kept
    /// across queries for the same reason `scratch` is: a worker scratch is
    /// sized to the largest shard, and reallocating (and zero-filling) it
    /// per query would cost O(shard len × workers) on exactly the
    /// large-shard path the parallel schedule exists for.
    worker_scratches: Vec<QueryScratch>,
    prefix: bool,
}

impl QueryPipeline {
    /// A pipeline with the signature prefix filter enabled (the default
    /// engine).
    pub fn new() -> Self {
        QueryPipeline {
            scratch: QueryScratch::new(),
            worker_scratches: Vec::new(),
            prefix: true,
        }
    }

    /// Enables or disables the signature prefix filter of the candidates
    /// stage. Disabling never changes any answer — every signature hash
    /// then mints candidates, as the pre-prefix engine did — and exists for
    /// the ablation benchmark. The buffer pass's bound stays on either way
    /// (see [`crate::index::prune`]).
    pub fn prefix_filter(mut self, enabled: bool) -> Self {
        self.prefix = enabled;
        self
    }

    /// Bytes of reusable per-query scratch this pipeline has grown so far:
    /// the sequential scratch plus every parallel worker scratch. A scratch
    /// is sized to the largest shard it has queried and then reused, so
    /// after one warm pass this is the pipeline's steady-state footprint —
    /// the throughput bench reports it alongside the index's
    /// [`mem_usage`](GbKmvIndex::mem_usage) breakdown.
    #[must_use]
    pub fn scratch_bytes(&self) -> usize {
        self.scratch.mem_bytes()
            + self
                .worker_scratches
                .iter()
                .map(QueryScratch::mem_bytes)
                .sum::<usize>()
    }

    /// Sets the prefix-filter knob in place (used by the convenience entry
    /// points of [`GbKmvIndex`], which honour the index's config on a
    /// shared thread-local pipeline).
    pub(crate) fn set_stages(&mut self, prefix: bool) {
        self.prefix = prefix;
    }

    fn stages(&self) -> PruneStage {
        PruneStage::new(self.prefix)
    }

    /// Thresholded containment search over a borrowed element slice
    /// (canonicalised if not sorted/deduplicated), equivalent to
    /// [`GbKmvIndex::search_elements`].
    pub fn search(
        &mut self,
        index: &GbKmvIndex,
        query: &[ElementId],
        t_star: f64,
    ) -> Vec<SearchHit> {
        crate::index::with_canonical_query(query, |q| self.search_sorted(index, q, t_star))
    }

    /// [`QueryPipeline::search`] for a slice known to be sorted and
    /// deduplicated (every [`crate::dataset::Record`]'s invariant).
    pub fn search_sorted(
        &mut self,
        index: &GbKmvIndex,
        query: &[ElementId],
        t_star: f64,
    ) -> Vec<SearchHit> {
        filtered_sorted(index, query, t_star, self.stages(), &mut self.scratch)
    }

    /// Thresholded search with the candidates + finish stages of one query
    /// fanned over `threads` scoped threads (`0` = all available cores),
    /// bit-identical to [`QueryPipeline::search`] for every thread count.
    ///
    /// Worthwhile for large shards: each worker owns a contiguous slice of
    /// the live (size-ordered) slot range and a private scratch, and the
    /// hits are merged with one final sort. Small queries (live range under
    /// [`PARALLEL_MIN_LIVE_SLOTS`]) run sequentially on the pipeline's own
    /// scratch instead — spawning threads per query would cost more than
    /// the query itself.
    pub fn search_parallel(
        &mut self,
        index: &GbKmvIndex,
        query: &[ElementId],
        t_star: f64,
        threads: usize,
    ) -> Vec<SearchHit> {
        let stages = self.stages();
        crate::index::with_canonical_query(query, |q| {
            parallel_sorted(
                index,
                q,
                t_star,
                stages,
                threads,
                &mut self.scratch,
                &mut self.worker_scratches,
            )
        })
    }

    /// Top-k containment search, equivalent to [`GbKmvIndex::search_topk`].
    pub fn topk(&mut self, index: &GbKmvIndex, query: &[ElementId], k: usize) -> Vec<SearchHit> {
        crate::index::with_canonical_query(query, |q| topk_sorted(index, q, k, &mut self.scratch))
    }
}

/// Query-level context shared by every (shard, slot-range) unit of work:
/// the sketch view plus the per-query stage decisions.
struct StageContext<'a> {
    view: QuerySketchView<'a>,
    threshold: OverlapThreshold,
    /// The prune stage's minting bounds: the signature minting prefix and
    /// the buffer pass's `b_min`.
    minting: Minting,
    query_len: usize,
}

/// Runs the candidates → finish stages for the slot range `lo..hi` of one
/// shard, pushing qualifying hits into `out`: the candidates the sweep
/// minted are finished from the overlaps it recorded, the rest from the
/// store's buffer words. The shared inner loop of the
/// sequential and intra-query-parallel paths; `order` is the shard's
/// precomputed df-ordering when the caller shares one across sub-range
/// tasks (the parallel path), `None` to let the candidates stage derive it
/// in the scratch (the sequential path, one call per shard anyway).
fn finish_range(
    shard: &Shard,
    ctx: &StageContext<'_>,
    order: Option<&[(u32, u64)]>,
    lo: usize,
    hi: usize,
    scratch: &mut QueryScratch,
    out: &mut ThresholdCollector,
) {
    match order {
        Some(order) => {
            candidates::accumulate_ordered(shard, &ctx.view, lo, hi, ctx.minting, order, scratch)
        }
        None => candidates::accumulate(shard, &ctx.view, lo, hi, ctx.minting, scratch),
    }
    let store = shard.store();
    let mut emit = |slot: u32, overlap: f64| {
        if let Some(hit) = finish::hit_if_qualifies(
            shard.global_id(slot as usize),
            overlap,
            ctx.query_len,
            ctx.threshold.raw,
        ) {
            out.push(hit);
        }
    };
    for unswept in scratch.unswept() {
        for &slot in unswept {
            let overlap = finish::accumulated_overlap(store, &ctx.view, scratch, slot);
            emit(slot, overlap);
        }
    }
    let (swept, counts) = scratch.swept();
    for (&slot, &buffered) in swept.iter().zip(counts) {
        let overlap = finish::swept_overlap(store, &ctx.view, scratch, slot, buffered);
        emit(slot, overlap);
    }
}

/// Thresholded search, composed from the four stages (sorted query slice).
///
/// Falls back to the reference scan when the threshold is (effectively)
/// zero: every record then qualifies, including ones sharing no posting
/// or buffered element with the query.
pub(crate) fn filtered_sorted(
    index: &GbKmvIndex,
    query: &[ElementId],
    t_star: f64,
    prune: PruneStage,
    scratch: &mut QueryScratch,
) -> Vec<SearchHit> {
    let q = query.len();
    let threshold = OverlapThreshold::new(q, t_star);
    if threshold.raw <= 1e-9 {
        return reference::scan_sorted(index, query, t_star);
    }
    let q_sketch = index.sketcher.sketch_elements(query);
    let view = QuerySketchView::new(&q_sketch);
    let ctx = StageContext {
        minting: prune.minting(&view, threshold),
        view,
        threshold,
        query_len: q,
    };

    let mut collector = ThresholdCollector::default();
    for shard in index.sharded.shards() {
        let live = prune.live_slots(shard, threshold);
        if live == 0 {
            // Every record in the shard is smaller than the required
            // overlap; nothing to traverse.
            continue;
        }
        finish_range(shard, &ctx, None, 0, live, scratch, &mut collector);
    }
    collector.into_sorted()
}

/// [`filtered_sorted`] with the per-shard live ranges partitioned over
/// scoped worker threads (each with a private scratch), merged by one final
/// record-id sort. Degrades to the sequential path — on `scratch`, so the
/// caller's pipeline keeps its zero-allocation property — when only one
/// thread resolves or the live range is too small to amortise the spawns.
pub(crate) fn parallel_sorted(
    index: &GbKmvIndex,
    query: &[ElementId],
    t_star: f64,
    prune: PruneStage,
    threads: usize,
    scratch: &mut QueryScratch,
    worker_scratches: &mut Vec<QueryScratch>,
) -> Vec<SearchHit> {
    let q = query.len();
    let threshold = OverlapThreshold::new(q, t_star);
    if threshold.raw <= 1e-9 {
        return reference::scan_sorted(index, query, t_star);
    }
    let shards = index.sharded.shards();
    let live: Vec<usize> = shards
        .iter()
        .map(|s| prune.live_slots(s, threshold))
        .collect();
    let total_live: usize = live.iter().sum();
    let threads = parallel::resolve_threads(threads);
    if threads <= 1 || total_live < PARALLEL_MIN_LIVE_SLOTS {
        return filtered_sorted(index, query, t_star, prune, scratch);
    }

    let q_sketch = index.sketcher.sketch_elements(query);
    let view = QuerySketchView::new(&q_sketch);
    let ctx = StageContext {
        minting: prune.minting(&view, threshold),
        view,
        threshold,
        query_len: q,
    };

    // One task per contiguous slot sub-range, ~`threads` tasks in total,
    // each covering an equal share of the live slots. The split never
    // affects the answer — only the schedule — because slots are finished
    // independently and merged by unique record id.
    let per_task = total_live.div_ceil(threads).max(1);
    let mut tasks: Vec<(usize, usize, usize)> = Vec::new();
    for (si, &shard_live) in live.iter().enumerate() {
        let mut lo = 0;
        while lo < shard_live {
            let hi = (lo + per_task).min(shard_live);
            tasks.push((si, lo, hi));
            lo = hi;
        }
    }

    // The df-ordering depends only on (query, shard): compute it once per
    // shard here and share it (read-only) across all of a shard's sub-range
    // tasks, instead of re-sorting inside every task. Fully size-pruned
    // shards appear in no task, so their slot stays an empty Vec.
    let prefixed = ctx.minting.hashes < ctx.view.hashes.len();
    let orders: Option<Vec<Vec<(u32, u64)>>> = prefixed.then(|| {
        shards
            .iter()
            .zip(&live)
            .map(|(shard, &shard_live)| {
                let mut order = Vec::new();
                if shard_live > 0 {
                    candidates::df_order(shard.store(), &ctx.view, &mut order);
                }
                order
            })
            .collect()
    });

    // One scratch per worker, drawn from the pipeline's pool so repeated
    // queries pay zero allocation (the pool grows to the worker count once;
    // each scratch grows to the largest shard once — the same epoch-reuse
    // contract as the sequential scratch). `map_chunks` cannot hand workers
    // distinct mutable state, so the fan-out is a scope over
    // (task-chunk, scratch) pairs.
    let workers = threads.min(tasks.len()).max(1);
    if worker_scratches.len() < workers {
        worker_scratches.resize_with(workers, QueryScratch::new);
    }
    let chunk_size = tasks.len().div_ceil(workers);
    let per_worker: Vec<ThresholdCollector> = std::thread::scope(|scope| {
        let handles: Vec<_> = tasks
            .chunks(chunk_size)
            .zip(worker_scratches.iter_mut())
            .map(|(chunk, scratch)| {
                let ctx = &ctx;
                let orders = &orders;
                scope.spawn(move || {
                    let mut collector = ThresholdCollector::default();
                    for &(si, lo, hi) in chunk {
                        let order = orders.as_ref().map(|o| o[si].as_slice());
                        finish_range(&shards[si], ctx, order, lo, hi, scratch, &mut collector);
                    }
                    collector
                })
            })
            .collect();
        handles
            .into_iter()
            // Deliberate panic propagation (see `parallel::map_chunks`):
            // `join` only errs when the worker panicked.
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    let mut merged = ThresholdCollector::default();
    for collector in per_worker {
        merged.extend(collector);
    }
    merged.into_sorted()
}

/// Top-k search: candidates (no pruning, prefix filtering or buffer bound
/// — ranking has no overlap threshold, so every touched candidate competes:
/// every signature hash mints, and the sweep mints every slot sharing a
/// buffered element) → finish → bounded-heap rank. Only positive-score
/// records are ranked (see `TopK::consider`), and those are exactly the
/// candidates, so the answer equals the ranked scan's.
pub(crate) fn topk_sorted(
    index: &GbKmvIndex,
    query: &[ElementId],
    k: usize,
    scratch: &mut QueryScratch,
) -> Vec<SearchHit> {
    if k == 0 || query.is_empty() {
        return Vec::new();
    }
    let q = query.len();
    let q_sketch = index.sketcher.sketch_elements(query);
    let view = QuerySketchView::new(&q_sketch);

    let mint_all = Minting::all(&view);
    let mut topk = TopK::new(k);
    for shard in index.sharded.shards() {
        candidates::accumulate(shard, &view, 0, shard.len(), mint_all, scratch);
        for &slot in scratch.candidates() {
            let overlap = finish::accumulated_overlap(shard.store(), &view, scratch, slot);
            topk.consider(shard.global_id(slot as usize), overlap, q);
        }
    }
    topk.into_hits()
}
