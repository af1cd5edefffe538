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
//!   store's buffer words (the pipeline path for every candidate,
//!   threshold and top-k alike; a candidate with `K∩ = 0` skips the
//!   scalars),
//! * the finish in place of a slot the buffer sweep emits (not a
//!   candidate; the unfiltered walk only): every query hash mints there,
//!   so such a slot shares none (`K∩ = 0`) and its estimate is its
//!   buffered overlap, counted by the sweep, with no store read,
//! * `merge_overlap` — O(|L_Q| + |L_X|) sorted-merge finish straight off
//!   the arenas (the scan reference path and single-record estimates).
//!
//! # The `K∩ = 0` finish is bit-identical
//!
//! With `K∩ = 0`, `from_parts` yields an intersection estimate of exactly
//! `+0.0` in every branch: `0 as f64` when both sketches are saturated or
//! `k = 1`, `0.0` when `k = 0`, and `(0 / k) · union` when `k ≥ 2`, where
//! `union = (k − 1) / u_k` is finite because `unit_hash(·) > 0`. Adding
//! `+0.0` to a non-negative count changes no bit, so the estimate is the
//! buffered overlap itself. On `zipf_threshold` this covers almost every
//! hit of a swept query: about 2,580 of its 2,680 touched slots.

use crate::gkmv::GKmvPairEstimate;
use crate::index::candidates::QuerySketchView;
use crate::index::SearchHit;
use crate::scratch::QueryScratch;
use crate::store::SketchStore;

/// O(1) finish of an accumulated candidate: Equation 27 from the scratch
/// counters, the store's scalar arrays and the popcount over its buffer
/// words. A candidate with `K∩ = 0` (one a prefix-filtered sweep minted
/// that no lookup-only hash reached) reads no scalar array.
#[inline]
pub(crate) fn accumulated_overlap(
    store: &SketchStore,
    view: &QuerySketchView<'_>,
    scratch: &QueryScratch,
    slot: u32,
) -> f64 {
    let s = slot as usize;
    let buffered = store.buffer_intersection_count(view.buffer_words(), s);
    match scratch.k_intersection(slot) {
        // The G-KMV term is exactly `+0.0` (module docs).
        0 => buffered as f64,
        k => overlap_from_parts(store, view, k, s, buffered),
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

/// Whether an estimated overlap reaches the raw threshold `t*·|Q|`, up to
/// the 1e-9 tolerance every path shares.
#[inline]
pub(crate) fn qualifies(overlap: f64, threshold_raw: f64) -> bool {
    overlap + 1e-9 >= threshold_raw
}

/// The [`SearchHit`] of `record_id` (the *global* record id, shard base
/// applied) with estimated overlap `overlap`, for a query of `query_size`
/// elements.
#[inline]
pub(crate) fn hit(record_id: usize, overlap: f64, query_size: usize) -> SearchHit {
    SearchHit {
        record_id,
        estimated_overlap: overlap,
        estimated_containment: if query_size == 0 {
            0.0
        } else {
            overlap / query_size as f64
        },
    }
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
    qualifies(overlap, threshold_raw).then(|| hit(record_id, overlap, query_size))
}
