//! **Finish** stage of the query pipeline: containment estimation per
//! surviving candidate.
//!
//! Every finish computes Equation 27 — the exact buffered overlap plus the
//! G-KMV estimate — through the single shared
//! [`GKmvPairEstimate::from_parts`] arithmetic, so the accumulator and
//! reference paths are bit-identical by construction:
//!
//! * `accumulated_overlap` — O(1) finish from the candidate stage's `K∩`
//!   counter, the store's per-slot scalars and a 1–2 word popcount over the
//!   store's buffer words (the pipeline path for every candidate the
//!   popcount sweep did not mint, and top-k),
//! * `swept_overlap` — the swept finish: the same estimate for a candidate
//!   the popcount sweep minted, from the buffered overlap the sweep
//!   recorded in the scratch. A swept slot that no signature hash reached
//!   (`K∩ = 0`) is finished with no store read: its estimate is its
//!   buffered overlap,
//! * `merge_overlap` — O(|L_Q| + |L_X|) sorted-merge finish straight off
//!   the arenas (the scan reference path, single-record estimates, and
//!   top-k on an index without postings).
//!
//! # The `K∩ = 0` finish is bit-identical
//!
//! With `K∩ = 0`, `from_parts` yields an intersection estimate of exactly
//! `+0.0` in every branch: `0 as f64` when both sketches are saturated or
//! `k = 1`, `0.0` when `k = 0`, and `(0 / k) · union` when `k ≥ 2`, where
//! `union = (k − 1) / u_k` is finite because `unit_hash(·) > 0`. Adding
//! `+0.0` to a non-negative count changes no bit, so the estimate is the
//! buffered overlap itself. On `zipf_threshold` this covers almost every
//! candidate of a swept query: about 2,590 of its 2,690.

use crate::gkmv::GKmvPairEstimate;
use crate::index::candidates::QuerySketchView;
use crate::index::SearchHit;
use crate::scratch::QueryScratch;
use crate::store::SketchStore;

/// O(1) finish of an accumulated candidate: Equation 27 from the scratch
/// counters, the store's scalar arrays and the popcount over its buffer
/// words.
#[inline]
pub(crate) fn accumulated_overlap(
    store: &SketchStore,
    view: &QuerySketchView<'_>,
    scratch: &QueryScratch,
    slot: u32,
) -> f64 {
    let s = slot as usize;
    let buffered = store.buffer_intersection_count(view.buffer_words(), s);
    overlap_from_parts(store, view, scratch.k_intersection(slot), s, buffered)
}

/// Finish of a candidate the popcount sweep minted, with the buffered
/// overlap `buffered` the sweep recorded for it. Bit-identical to
/// [`accumulated_overlap`]; with `K∩ = 0` the estimate is `buffered` itself
/// (see the module docs), so no store array is read.
#[inline]
pub(crate) fn swept_overlap(
    store: &SketchStore,
    view: &QuerySketchView<'_>,
    scratch: &QueryScratch,
    slot: u32,
    buffered: u32,
) -> f64 {
    match scratch.k_intersection(slot) {
        0 => f64::from(buffered),
        k => overlap_from_parts(store, view, k, slot as usize, buffered as usize),
    }
}

/// Equation 27 for `slot` from its buffered overlap and `K∩`.
#[inline]
fn overlap_from_parts(
    store: &SketchStore,
    view: &QuerySketchView<'_>,
    k_intersection: usize,
    slot: usize,
    buffered: usize,
) -> f64 {
    let gkmv = GKmvPairEstimate::from_parts(
        view.hashes.len(),
        store.gkmv_len(slot),
        k_intersection,
        view.max_hash.max(store.max_hash(slot)),
        view.saturated && store.is_saturated(slot),
    );
    buffered as f64 + gkmv.intersection_estimate
}

/// Sorted-merge finish over the arenas (the reference paths).
#[inline]
pub(crate) fn merge_overlap(store: &SketchStore, view: &QuerySketchView<'_>, slot: usize) -> f64 {
    let gkmv = store.gkmv_pair_estimate(view.hashes, view.max_hash, view.saturated, slot);
    store.buffer_intersection_count(view.buffer_words(), slot) as f64 + gkmv.intersection_estimate
}

/// Emits a [`SearchHit`] if the estimated overlap reaches the raw threshold
/// `t*·|Q|`. `record_id` is the *global* record id (shard base applied).
#[inline]
pub(crate) fn hit_if_qualifies(
    record_id: usize,
    overlap: f64,
    query_size: usize,
    threshold_raw: f64,
) -> Option<SearchHit> {
    if overlap + 1e-9 >= threshold_raw {
        Some(SearchHit {
            record_id,
            estimated_overlap: overlap,
            estimated_containment: if query_size == 0 {
                0.0
            } else {
                overlap / query_size as f64
            },
        })
    } else {
        None
    }
}
