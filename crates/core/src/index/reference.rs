//! The reference implementation the pipeline is pinned against.
//!
//! `scan_sorted` estimates every record (subject to the size filter) with a
//! per-record sorted merge; no postings, no accumulation. This is the
//! ground truth of the agreement tests: every accelerated path must return
//! **bit-identical** hits. It orders them by a plain comparison sort, not
//! by the rank stage's collector.

use crate::dataset::ElementId;
use crate::index::candidates::QuerySketchView;
use crate::index::finish;
use crate::index::{GbKmvIndex, SearchHit};
use crate::sim::OverlapThreshold;

/// Full-scan reference search over a sorted query slice.
pub(crate) fn scan_sorted(index: &GbKmvIndex, query: &[ElementId], t_star: f64) -> Vec<SearchHit> {
    let q = query.len();
    let threshold = OverlapThreshold::new(q, t_star);
    let q_sketch = index.sketcher.sketch_elements(query);
    let view = QuerySketchView::new(&q_sketch);
    let mut hits = Vec::new();
    for shard in index.sharded.shards() {
        let store = shard.store();
        for slot in 0..store.len() {
            if store.record_size(slot) < threshold.exact {
                continue;
            }
            let overlap = finish::merge_overlap(store, &view, slot);
            if let Some(hit) =
                finish::hit_if_qualifies(shard.global_id(slot), overlap, q, threshold.raw)
            {
                hits.push(hit);
            }
        }
    }
    hits.sort_unstable_by_key(|h: &SearchHit| h.record_id);
    hits
}
