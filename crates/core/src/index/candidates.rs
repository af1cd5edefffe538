//! **Candidates** stage of the query pipeline: posting traversal plus
//! signature accumulation, with prefix-filtered minting.
//!
//! Given a query sketch and one [`Shard`], the stage walks the query's
//! signature-hash postings (accumulating `K∩` per touched slot) and its
//! buffer-bit postings (registering the remaining candidates) into a
//! [`QueryScratch`]. Each posting list is truncated to the stage's slot
//! range *before* traversal — the prune stage's live-prefix cutoff, and in
//! the intra-query parallel path additionally the worker's slot sub-range —
//! so a candidate outside the range is never touched, let alone finished.
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
//! 2. the shortest `B_q − b_min + 1` of the query's `B_q` buffer-bit
//!    postings mint their candidates, and none when `b_min > B_q`: a record
//!    no minting hash reached qualifies only with an exact buffered overlap
//!    of at least `b_min`, so by pigeonhole it sits on at least one of any
//!    `B_q − b_min + 1` of its query's buffer postings (the joint bound of
//!    [`crate::index::prune`]),
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
//! `S_max = 0`.
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

/// The buffer-posting walk, shared by both minting modes. It mints from
/// the `B_q − b_min + 1` shortest of the query's `B_q` buffer postings
/// (see [`crate::index::prune`] for the bound), from all of
/// them when `b_min ≤ 1` and from none when `b_min > B_q`; only the middle
/// case sorts, into the scratch's reusable `buffer_order`. It only
/// contributes candidate *membership*: the overlap itself is recomputed at
/// finish time as a popcount over the store's fixed-stride words, which is
/// cheaper than one counter increment per posting entry.
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
    if b_min <= 1 {
        for pos in view.buffer.set_positions() {
            mint_buffer(shard.buffer_postings(pos), lo, hi, decode, scratch);
        }
        return;
    }
    let positions = view.buffer.count_ones();
    if b_min > positions {
        return;
    }
    let mut order = std::mem::take(&mut scratch.buffer_order);
    order.clear();
    order.extend(
        view.buffer
            .set_positions()
            .map(|pos| (shard.buffer_postings(pos).len() as u32, pos)),
    );
    order.sort_unstable();
    for &(_, pos) in &order[..=positions - b_min] {
        mint_buffer(shard.buffer_postings(pos), lo, hi, decode, scratch);
    }
    scratch.buffer_order = order;
}
