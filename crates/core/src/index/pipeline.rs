//! The staged query pipeline: **candidates → prune → finish → rank**.
//!
//! [`QueryPipeline`] owns the per-stage state (the epoch-stamped
//! [`QueryScratch`] of the candidate stage) and composes the stage modules
//! into the search variants. A query runs as one sequential pass, the
//! paper's Algorithm 2; the batch path
//! ([`GbKmvIndex::search_batch`]) spreads whole queries over threads, one
//! pipeline per worker.
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
//!    accumulates lookup-only. The buffer sweep (none when `b_min > B_q`)
//!    reads the buffer words of the 64-slot blocks of `0..live` whose
//!    summary can reach `b_min`, and finds the slots whose buffer-word
//!    popcount against the query reaches `b_min`. When every hash mints it
//!    runs last and emits each such slot outside the signature candidates
//!    straight to the rank stage's sink; a prefix-filtered walk mints them
//!    before its lookup-only pass.
//! 3. **finish** ([`crate::index::finish`]) — O(1) Equation-27 estimate per
//!    candidate, from its `K∩` and a popcount of its buffer words. A slot
//!    the sweep emits is finished in place by the sink: every hash minted,
//!    so its estimate is its buffered overlap.
//! 4. **rank** ([`crate::index::rank`]) — collect qualifying hits (a swept
//!    hit whose estimate is its count as one compact key) and order them by
//!    ascending global record id, by a radix sort linear in the answer (or
//!    keep the best `k` in a bounded heap).

use crate::dataset::ElementId;
use crate::index::candidates::{self, QuerySketchView, SweptSink};
use crate::index::finish;
use crate::index::prune::{self, Minting};
use crate::index::rank::{ThresholdCollector, TopK};
use crate::index::reference;
use crate::index::sharded::Shard;
use crate::index::{GbKmvIndex, SearchHit};
use crate::scratch::QueryScratch;
use crate::sim::OverlapThreshold;

/// A reusable query executor: the staged pipeline plus its per-stage state.
///
/// Query loops create one pipeline (per thread) and reuse it, paying zero
/// allocation per query after the first; the convenience entry points on
/// [`GbKmvIndex`] use a thread-local pipeline instead.
#[derive(Debug, Default)]
pub struct QueryPipeline {
    scratch: QueryScratch,
}

impl QueryPipeline {
    /// A pipeline with empty scratch. The signature prefix filter decides
    /// per query whether it engages (see [`crate::index::prune`]).
    pub fn new() -> Self {
        QueryPipeline::default()
    }

    /// Bytes of reusable per-query scratch this pipeline has grown so far.
    /// The scratch is sized to the largest shard it has queried and then
    /// reused, so after one warm pass this is the pipeline's steady-state
    /// footprint — the throughput bench reports it alongside the index's
    /// [`mem_usage`](GbKmvIndex::mem_usage) breakdown.
    #[must_use]
    pub fn scratch_bytes(&self) -> usize {
        self.scratch.mem_bytes()
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
        filtered_sorted(index, query, t_star, &mut self.scratch)
    }

    /// Top-k containment search, equivalent to [`GbKmvIndex::search_topk`].
    pub fn topk(&mut self, index: &GbKmvIndex, query: &[ElementId], k: usize) -> Vec<SearchHit> {
        crate::index::with_canonical_query(query, |q| topk_sorted(index, q, k, &mut self.scratch))
    }
}

/// Query-level context shared by every shard's pass: the sketch view plus
/// the per-query stage decisions.
struct StageContext<'a> {
    view: QuerySketchView<'a>,
    threshold: OverlapThreshold,
    /// The prune stage's minting bounds: the signature minting prefix and
    /// the buffer pass's `b_min`.
    minting: Minting,
    query_len: usize,
}

/// The threshold query's sink for the slots the buffer sweep emits of one
/// shard. Only the unfiltered walk emits, and there every query hash
/// mints, so an emitted slot shares none (`K∩ = 0`) and its estimate is
/// exactly its buffered count (finish module docs): the sink tests that
/// count and collects it as a count key.
struct ThresholdSink<'a> {
    shard: &'a Shard,
    ctx: &'a StageContext<'a>,
    out: &'a mut ThresholdCollector,
}

impl SweptSink for ThresholdSink<'_> {
    #[inline]
    fn take(&mut self, slot: u32, buffered: u32) {
        if finish::qualifies(f64::from(buffered), self.ctx.threshold.raw) {
            let id = self.shard.global_id(slot as usize);
            self.out.push_count(id, buffered, self.ctx.query_len);
        }
    }
}

/// Runs the candidates → finish stages for the live prefix `0..live` of
/// one shard, pushing qualifying hits into `out`: the buffer sweep finishes
/// the slots it emits in place, and the signature candidates are finished
/// from their `K∩` and the store's buffer words.
fn finish_shard(
    shard: &Shard,
    ctx: &StageContext<'_>,
    live: usize,
    scratch: &mut QueryScratch,
    out: &mut ThresholdCollector,
) {
    let mut sink = ThresholdSink { shard, ctx, out };
    candidates::accumulate(shard, &ctx.view, live, ctx.minting, scratch, &mut sink);
    let store = shard.store();
    for &slot in scratch.candidates() {
        let overlap = finish::accumulated_overlap(store, &ctx.view, scratch, slot);
        if let Some(hit) = finish::hit_if_qualifies(
            shard.global_id(slot as usize),
            overlap,
            ctx.query_len,
            ctx.threshold.raw,
        ) {
            sink.out.push(hit);
        }
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
        minting: prune::minting(&view, threshold),
        view,
        threshold,
        query_len: q,
    };

    let mut collector = std::mem::take(&mut scratch.collector);
    collector.clear();
    for shard in index.sharded.shards() {
        let live = prune::live_slots(shard, threshold);
        if live == 0 {
            // Every record in the shard is smaller than the required
            // overlap; nothing to traverse.
            continue;
        }
        finish_shard(shard, &ctx, live, scratch, &mut collector);
    }
    let hits = collector.sorted_hits(q);
    scratch.collector = collector;
    hits
}

/// The top-k query's sink for the slots the buffer sweep emits of one
/// shard: every query hash mints, so each slot's estimate is its buffered
/// overlap, offered to the heap.
struct TopKSink<'a> {
    shard: &'a Shard,
    topk: &'a mut TopK,
    query_len: usize,
}

impl SweptSink for TopKSink<'_> {
    #[inline]
    fn take(&mut self, slot: u32, buffered: u32) {
        self.topk.consider(
            self.shard.global_id(slot as usize),
            f64::from(buffered),
            self.query_len,
        );
    }
}

/// Top-k search: candidates (no pruning, prefix filtering or buffer bound
/// — ranking has no overlap threshold, so every touched slot competes:
/// every signature hash mints, and the sweep emits every other slot sharing
/// a buffered element) → finish → bounded-heap rank. Only positive-score
/// records are ranked (see `TopK::consider`), and those are exactly the
/// signature candidates and the swept slots, so the answer equals the
/// ranked scan's.
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
        let mut sink = TopKSink {
            shard,
            topk: &mut topk,
            query_len: q,
        };
        candidates::accumulate(shard, &view, shard.len(), mint_all, scratch, &mut sink);
        for &slot in scratch.candidates() {
            let overlap = finish::accumulated_overlap(shard.store(), &view, scratch, slot);
            topk.consider(shard.global_id(slot as usize), overlap, q);
        }
    }
    topk.into_hits()
}
