//! **Candidates** stage of the query pipeline: posting traversal plus
//! signature accumulation, with prefix-filtered minting.
//!
//! Given a query sketch and one [`Shard`], the stage walks the query's
//! signature-hash postings (accumulating `K∩` per touched slot) and mints
//! its buffered candidates — by walking buffer-bit postings or by a
//! popcount sweep over the store's buffer words — into a [`QueryScratch`].
//! Each posting list is truncated to the stage's slot range *before*
//! traversal — the prune stage's live-prefix cutoff, and in the intra-query
//! parallel path additionally the worker's slot sub-range — and the sweep
//! reads exactly that range, so a candidate outside the range is never
//! touched, let alone finished.
//! Truncation goes through the posting layer's batched walk,
//! [`PostingList::for_each_chunk_in_range`](crate::index::postings::PostingList::for_each_chunk_in_range):
//! each surviving block arrives as one ascending [`PostingChunk`] — a
//! decoded slot run (4-lane unrolled gap prefix sum, or a copy-free slice
//! cut on the raw format) consumed by the scratch's batched slice methods,
//! or an undecoded bitmap mask consumed by the mask-form methods — notably
//! the branch-free lookup-only passes
//! ([`QueryScratch::add_signature_hits_if_candidate`] and its mask form's
//! linear window sweep).
//!
//! # Prefix-filtered minting
//!
//! When the prune stage grants fewer minting hashes than the query has
//! (`minting < |L_Q|`, see [`crate::index::prune`] for the bound), the walk
//! orders the query's signature hashes by **ascending document frequency**
//! (rarest first — the df is maintained by the [`SketchStore`], where it
//! equals the posting-list length) and runs in three passes:
//!
//! 1. the `minting` rarest hashes insert new candidates and accumulate,
//! 2. the buffer pass mints the buffered candidates, and none when
//!    `b_min > B_q`: a record no minting hash reached qualifies only with
//!    an exact buffered overlap of at least `b_min` (the joint bound of
//!    [`crate::index::prune`]). It mints in one of two ways
//!    (`buffer_mint`):
//!    - at `b_min ≤ 1`, the **posting walk** mints every slot on any of the
//!      query's `B_q` buffer-bit postings;
//!    - at `2 ≤ b_min ≤ B_q`, the **popcount sweep** (`sweep_buffer`) reads
//!      the range's fixed-stride buffer words in one pass and mints only
//!      the slots whose overlap `popcount(record_words & query_words)`
//!      reaches `b_min`, so no record the bound rules out reaches the
//!      finish,
//! 3. the remaining frequent hashes accumulate **lookup-only**: they score
//!    candidates already minted but never insert — which is where the
//!    filter wins, because the frequent hashes own the longest posting
//!    lists and minting from them dominates the unfiltered walk.
//!
//! The per-slot results are independent of the pass structure: `K∩` counts
//! every query hash shared with the slot either way, so surviving
//! candidates score bit-identically to the unfiltered walk; the bounds
//! guarantee the skipped ones could never qualify. The unfiltered walk
//! (every hash mints) cuts its buffer pass by the same `b_min`, with
//! `S_max = 0`; top-k passes `b_min = 1` and walks every buffer posting.
//!
//! [`SketchStore`]: crate::store::SketchStore

use crate::buffer::ElementBuffer;
use crate::gbkmv::GbKmvRecordSketch;
use crate::index::postings::{PostingChunk, PostingList};
use crate::index::prune::Minting;
use crate::index::sharded::Shard;
use crate::scratch::QueryScratch;
use crate::store::SketchStore;

/// Borrowed scalar view of a query sketch, so the inner loops never touch
/// the `GbKmvRecordSketch` struct.
pub(crate) struct QuerySketchView<'a> {
    pub(crate) hashes: &'a [u64],
    pub(crate) max_hash: u64,
    pub(crate) saturated: bool,
    pub(crate) buffer: &'a ElementBuffer,
}

impl<'a> QuerySketchView<'a> {
    pub(crate) fn new(sketch: &'a GbKmvRecordSketch) -> Self {
        let hashes = sketch.gkmv.hashes();
        QuerySketchView {
            hashes,
            max_hash: hashes.last().copied().unwrap_or(0),
            saturated: sketch.gkmv.is_saturated(),
            buffer: &sketch.buffer,
        }
    }

    #[inline]
    pub(crate) fn buffer_words(&self) -> &'a [u64] {
        self.buffer.words()
    }
}

/// Walks the query's signature and buffer postings over the slot range
/// `lo..hi` of one shard, accumulating into `scratch` (begins a fresh epoch
/// for the shard). `hi` is the prune stage's cutoff (pass `shard.len()` to
/// disable pruning — the top-k path, which ranks every candidate); `lo` is
/// non-zero only for the intra-query parallel workers, which partition the
/// live range. `minting` holds the prune stage's bounds: how many
/// df-ordered signature hashes may mint new candidates, and the buffer
/// walk's `b_min`; pass [`Minting::all`] to disable both filters.
pub(crate) fn accumulate(
    shard: &Shard,
    view: &QuerySketchView<'_>,
    lo: usize,
    hi: usize,
    minting: Minting,
    scratch: &mut QueryScratch,
) {
    scratch.begin(shard.len());
    if minting.hashes >= view.hashes.len() {
        walk_unfiltered(shard, view, lo, hi, minting.b_min, scratch);
        return;
    }
    // The ordering buffer lives in the scratch and is only moved out while
    // borrowed alongside it.
    let mut order = std::mem::take(&mut scratch.hash_order);
    df_order(shard.store(), view, &mut order);
    walk_prefixed(shard, view, lo, hi, minting, &order, scratch);
    scratch.hash_order = order;
}

/// [`accumulate`] with a caller-provided df-ordering for the shard. The
/// ordering depends only on (query, shard), so the intra-query parallel
/// path computes it once per shard ([`df_order`]) and shares it across the
/// shard's slot-sub-range tasks instead of re-sorting per task.
pub(crate) fn accumulate_ordered(
    shard: &Shard,
    view: &QuerySketchView<'_>,
    lo: usize,
    hi: usize,
    minting: Minting,
    order: &[(u32, u64)],
    scratch: &mut QueryScratch,
) {
    scratch.begin(shard.len());
    if minting.hashes >= view.hashes.len() {
        walk_unfiltered(shard, view, lo, hi, minting.b_min, scratch);
    } else {
        walk_prefixed(shard, view, lo, hi, minting, order, scratch);
    }
}

/// Fills `order` with the query's signature hashes keyed by ascending
/// `(document frequency, hash)` — the rarest-first minting order for one
/// shard's store. The key is unique (per-query hashes are deduplicated),
/// so the order — and with it every downstream artefact — is
/// deterministic.
pub(crate) fn df_order(
    store: &SketchStore,
    view: &QuerySketchView<'_>,
    order: &mut Vec<(u32, u64)>,
) {
    order.clear();
    order.extend(view.hashes.iter().map(|&h| (store.hash_df(h) as u32, h)));
    order.sort_unstable();
}

/// Minting walk of one signature posting list: every slot in range
/// accumulates and becomes a candidate.
#[inline]
fn mint_signature(
    postings: &PostingList,
    lo: usize,
    hi: usize,
    decode: &mut Vec<u32>,
    scratch: &mut QueryScratch,
) {
    postings.for_each_chunk_in_range(lo, hi, decode, |chunk| match chunk {
        PostingChunk::Slots(slots) => scratch.add_signature_hits(slots),
        PostingChunk::Bitmap { base, words } => scratch.add_signature_hits_mask(base, words),
    });
}

/// Minting walk of one buffer posting list: every slot in range becomes a
/// candidate.
#[inline]
fn mint_buffer(
    postings: &PostingList,
    lo: usize,
    hi: usize,
    decode: &mut Vec<u32>,
    scratch: &mut QueryScratch,
) {
    postings.for_each_chunk_in_range(lo, hi, decode, |chunk| match chunk {
        PostingChunk::Slots(slots) => scratch.add_candidates(slots),
        PostingChunk::Bitmap { base, words } => scratch.add_candidates_mask(base, words),
    });
}

/// The unfiltered walk: every signature hash mints.
fn walk_unfiltered(
    shard: &Shard,
    view: &QuerySketchView<'_>,
    lo: usize,
    hi: usize,
    b_min: usize,
    scratch: &mut QueryScratch,
) {
    let mut decode = std::mem::take(&mut scratch.block_decode);
    for &h in view.hashes {
        if let Some(postings) = shard.signature_postings(h) {
            mint_signature(postings, lo, hi, &mut decode, scratch);
        }
    }
    walk_buffer(shard, view, lo, hi, b_min, &mut decode, scratch);
    scratch.block_decode = decode;
}

/// The prefix-filtered three-pass walk over a df-ordered hash list.
fn walk_prefixed(
    shard: &Shard,
    view: &QuerySketchView<'_>,
    lo: usize,
    hi: usize,
    minting: Minting,
    order: &[(u32, u64)],
    scratch: &mut QueryScratch,
) {
    let mut decode = std::mem::take(&mut scratch.block_decode);
    let (mint, lookup) = order.split_at(minting.hashes);
    for &(_, h) in mint {
        if let Some(postings) = shard.signature_postings(h) {
            mint_signature(postings, lo, hi, &mut decode, scratch);
        }
    }
    // Buffer candidates must be minted BEFORE the lookup-only pass, or a
    // buffer-only candidate would miss its frequent-hash accumulations.
    walk_buffer(shard, view, lo, hi, minting.b_min, &mut decode, scratch);
    // The lookup-only pass owns the longest posting lists, which is where
    // the branch-free batched accumulate pays off.
    for &(_, h) in lookup {
        if let Some(postings) = shard.signature_postings(h) {
            postings.for_each_chunk_in_range(lo, hi, &mut decode, |chunk| match chunk {
                PostingChunk::Slots(slots) => scratch.add_signature_hits_if_candidate(slots),
                PostingChunk::Bitmap { base, words } => {
                    scratch.add_signature_hits_if_candidate_mask(base, words)
                }
            });
        }
    }
    scratch.block_decode = decode;
}

/// How the buffer pass of one query mints its candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BufferMint {
    /// Nothing to mint: the query buffers nothing, or `b_min > B_q`.
    Skip,
    /// Walk all `B_q` buffer postings (`b_min ≤ 1`).
    Postings,
    /// Sweep the range's buffer words ([`sweep_buffer`]), minting the slots
    /// whose buffered overlap reaches `b_min` (`2 ≤ b_min ≤ B_q`).
    Sweep,
}

/// Decides how the buffer pass mints for a query with minimum buffered
/// overlap `b_min` (the joint bound of [`crate::index::prune`]).
///
/// At `b_min ≤ 1` every record on any of the query's buffer postings is a
/// candidate, and the posting walk mints exactly those. Above it the sweep
/// mints only the records whose exact buffered overlap reaches `b_min`;
/// the pigeonhole walk over the `B_q − b_min + 1` shortest postings would
/// also mint every record sharing a single position, only for the finish
/// stage to discard it. A query that buffers nothing never sweeps, and so
/// neither does a zero-width buffer.
///
/// A per-query cost rule that walked the shortest postings when 16× their
/// entries undercut the swept words was measured and not kept. On
/// perfbench (seed 1, 12 s, 2-core shared x86-64 host, 10 alternating
/// pairs) it was not better by more than its own interquartile range:
/// `query_p99_us` medians 1,451 (rule) vs 1,489 µs (sweep) on
/// `zipf_threshold` and 844 vs 873 µs on `ingest_mixed`, `query_qps`
/// 4,724 vs 4,958 and 8,146 vs 7,939.
pub(crate) fn buffer_mint(view: &QuerySketchView<'_>, b_min: usize) -> BufferMint {
    let positions = view.buffer.count_ones();
    if positions == 0 || b_min > positions {
        BufferMint::Skip
    } else if b_min <= 1 {
        BufferMint::Postings
    } else {
        BufferMint::Sweep
    }
}

/// The buffer pass, shared by both signature minting modes: mints buffered
/// candidates by the posting walk or the popcount sweep, as
/// [`buffer_mint`] decides. Either way it only mints; the finish stage
/// reads each candidate's buffered overlap as a popcount over the store's
/// fixed-stride words.
#[inline]
fn walk_buffer(
    shard: &Shard,
    view: &QuerySketchView<'_>,
    lo: usize,
    hi: usize,
    b_min: usize,
    decode: &mut Vec<u32>,
    scratch: &mut QueryScratch,
) {
    match buffer_mint(view, b_min) {
        BufferMint::Skip => {}
        BufferMint::Postings => {
            for pos in view.buffer.set_positions() {
                mint_buffer(shard.buffer_postings(pos), lo, hi, decode, scratch);
            }
        }
        BufferMint::Sweep => {
            sweep_buffer(shard.store(), view.buffer_words(), lo, hi, b_min, scratch);
        }
    }
}

/// The popcount sweep: mints every slot of `lo..hi` whose buffered overlap
/// with `query_words`, `popcount(record_words & query_words)`, reaches
/// `b_min` (at least 1), reading the store's buffer words for the range as
/// one contiguous slice. Slots already minted keep their `K∩`. A
/// zero-width buffer mints nothing.
pub(crate) fn sweep_buffer(
    store: &SketchStore,
    query_words: &[u64],
    lo: usize,
    hi: usize,
    b_min: usize,
    scratch: &mut QueryScratch,
) {
    let stride = store.words_per_record();
    if stride == 0 {
        return;
    }
    let words = store.buffer_words_range(lo, hi);
    let min = u32::try_from(b_min.max(1)).unwrap_or(u32::MAX);
    // One-word strides (buffers of up to 64 elements) get a loop without
    // the per-slot inner zip. Against the generic loop alone (perfbench,
    // 10 alternating pairs, settings and host as in the `buffer_mint`
    // docs) it won every pair, by more than the generic loop's quartile
    // spread: median `query_p99_us` 1,701 → 1,489 µs and `query_qps`
    // 3,813 → 4,958 on `zipf_threshold`, 989 → 873 µs and 6,302 → 7,939
    // on `ingest_mixed`.
    if let (1, Some(&q)) = (stride, query_words.first()) {
        for (slot, &w) in (lo as u32..).zip(words) {
            if (w & q).count_ones() >= min {
                scratch.add_candidate(slot);
            }
        }
        return;
    }
    for (slot, record) in (lo as u32..).zip(words.chunks_exact(stride)) {
        let overlap: u32 = record
            .iter()
            .zip(query_words)
            .map(|(a, b)| (a & b).count_ones())
            .sum();
        if overlap >= min {
            scratch.add_candidate(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferLayout;
    use crate::dataset::Record;
    use crate::gkmv::{GKmvSketch, GlobalThreshold};
    use crate::hash::Hasher64;

    /// A store of 40 records over a buffer of `buffered` elements
    /// (`0..buffered`), each record holding a pseudo-random subset of them
    /// plus two unbuffered elements, and a query buffer over every third
    /// buffered element.
    fn store_and_query(buffered: u32) -> (SketchStore, Vec<u64>) {
        let layout = BufferLayout::new((0..buffered).collect());
        let hasher = Hasher64::new(5);
        let sketch = |elements: Vec<u32>| {
            let record = Record::new(elements);
            GbKmvRecordSketch {
                buffer: layout.build_buffer(&record),
                gkmv: GKmvSketch::from_record_excluding(
                    &record,
                    &hasher,
                    GlobalThreshold::keep_all(),
                    |e| layout.contains(e),
                ),
                record_size: record.len(),
            }
        };
        let sketches: Vec<GbKmvRecordSketch> = (0..40u32)
            .map(|i| {
                let mut v: Vec<u32> = (0..buffered).filter(|e| (e * 7 + i * 13) % 5 < 2).collect();
                v.extend([1_000 + i, 2_000 + i % 3]);
                sketch(v)
            })
            .collect();
        let store = SketchStore::from_sketches(layout.words(), &sketches);
        let query = sketch((0..buffered).step_by(3).collect());
        (store, query.buffer.words().to_vec())
    }

    #[test]
    fn sweep_mints_exactly_the_slots_reaching_the_threshold() {
        for (buffered, stride) in [(40u32, 1usize), (100, 2), (150, 3)] {
            let (store, query) = store_and_query(buffered);
            assert_eq!(store.words_per_record(), stride);
            let b_q: usize = query.iter().map(|w| w.count_ones() as usize).sum();
            let n = store.len();
            let mut scratch = QueryScratch::new();
            for (lo, hi) in [(0, n), (5, n), (7, 23), (n, n)] {
                for b_min in 1..=b_q + 1 {
                    // Slots 6 and 30 were minted by a signature pass first.
                    scratch.begin(n);
                    scratch.add_signature_hits(&[6, 30, 30]);
                    sweep_buffer(&store, &query, lo, hi, b_min, &mut scratch);
                    let mut minted = scratch.candidates().to_vec();
                    minted.sort_unstable();
                    let mut expected: Vec<u32> = (lo..hi)
                        .filter(|&s| store.buffer_intersection_count(&query, s) >= b_min)
                        .map(|s| s as u32)
                        .chain([6, 30])
                        .collect();
                    expected.sort_unstable();
                    expected.dedup();
                    let label = format!("stride {stride}, slots {lo}..{hi}, b_min {b_min}");
                    assert_eq!(minted, expected, "{label}");
                    assert_eq!(scratch.k_intersection(6), 1, "{label}: K∩ of slot 6");
                    assert_eq!(scratch.k_intersection(30), 2, "{label}: K∩ of slot 30");
                    for &s in &minted {
                        if s != 6 && s != 30 {
                            assert_eq!(scratch.k_intersection(s), 0, "{label}: slot {s}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sweep_over_a_zero_width_buffer_mints_nothing() {
        let (store, query) = store_and_query(0);
        assert_eq!((store.words_per_record(), query.len()), (0, 0));
        let mut scratch = QueryScratch::new();
        scratch.begin(store.len());
        sweep_buffer(&store, &query, 0, store.len(), 1, &mut scratch);
        assert!(scratch.candidates().is_empty());
    }
}
