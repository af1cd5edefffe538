//! **Finish** stage of the query pipeline: containment estimation per
//! surviving candidate.
//!
//! Both finishes compute Equation 27 — the exact buffered overlap (a 1–2
//! word popcount over the store's buffer words) plus the G-KMV estimate — through the
//! single shared [`GKmvPairEstimate::from_parts`] arithmetic, so the
//! accumulator and reference paths are bit-identical by construction:
//!
//! * `accumulated_overlap` — O(1) finish from the candidate stage's `K∩`
//!   counter and the store's per-slot scalars (the pipeline path),
//! * `merge_overlap` — O(|L_Q| + |L_X|) sorted-merge finish straight off
//!   the arenas (the scan reference path, single-record estimates, and
//!   top-k on an index without postings).

use crate::gkmv::GKmvPairEstimate;
use crate::index::candidates::QuerySketchView;
use crate::index::SearchHit;
use crate::scratch::QueryScratch;
use crate::store::SketchStore;

/// O(1) finish of an accumulated candidate: Equation 27 from the scratch
/// counters and the store's scalar arrays.
#[inline]
pub(crate) fn accumulated_overlap(
    store: &SketchStore,
    view: &QuerySketchView<'_>,
    scratch: &QueryScratch,
    slot: u32,
) -> f64 {
    let s = slot as usize;
    let gkmv = GKmvPairEstimate::from_parts(
        view.hashes.len(),
        store.gkmv_len(s),
        scratch.k_intersection(slot),
        view.max_hash.max(store.max_hash(s)),
        view.saturated && store.is_saturated(s),
    );
    store.buffer_intersection_count(view.buffer_words(), s) as f64 + gkmv.intersection_estimate
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
