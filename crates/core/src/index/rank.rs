//! **Rank** stage of the query pipeline: result collection and ordering.
//!
//! Two collectors close a query:
//!
//! * `ThresholdCollector` — gathers every qualifying hit and sorts once by
//!   ascending global record id (the [`crate::index::ContainmentIndex`]
//!   contract). The qualifying hits are a small subset of the touched
//!   candidates, so one final sort beats pre-sorting the candidate list.
//! * `TopK` — a bounded binary min-heap keeping the best `k` hits
//!   (O(n log k)); ties broken by ascending record id for determinism.
//!   Records with a zero estimated overlap are never ranked: they share
//!   nothing with the query, and dropping them here is what makes top-k
//!   answers identical with and without the candidate filter (the filtered
//!   walk never touches them, the scan fallback offers every slot).

use std::collections::BinaryHeap;

use crate::index::SearchHit;

/// Collects threshold-search hits and establishes the output order.
#[derive(Debug, Default)]
pub(crate) struct ThresholdCollector {
    hits: Vec<SearchHit>,
}

impl ThresholdCollector {
    #[inline]
    pub(crate) fn push(&mut self, hit: SearchHit) {
        self.hits.push(hit);
    }

    /// Merges another collector's hits (the intra-query parallel path
    /// concatenates its workers' collectors before the final sort).
    #[inline]
    pub(crate) fn extend(&mut self, other: ThresholdCollector) {
        self.hits.extend(other.hits);
    }

    /// The hits sorted by ascending global record id.
    pub(crate) fn into_sorted(mut self) -> Vec<SearchHit> {
        self.hits.sort_unstable_by_key(|h| h.record_id);
        self.hits
    }
}

/// Bounded top-k collector: the heap root is the currently worst kept hit,
/// so a new candidate only displaces it when it ranks strictly better
/// (higher score, then lower record id).
#[derive(Debug)]
pub(crate) struct TopK {
    k: usize,
    heap: BinaryHeap<TopKEntry>,
}

impl TopK {
    pub(crate) fn new(k: usize) -> Self {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// Offers one candidate (global record id, estimated overlap) for a
    /// query of `query_size` elements. Candidates without a positive
    /// overlap are ignored.
    #[inline]
    pub(crate) fn consider(&mut self, record_id: usize, overlap: f64, query_size: usize) {
        if self.k == 0 || overlap <= 0.0 {
            return;
        }
        let entry = TopKEntry::new(record_id, overlap, query_size);
        if self.heap.len() < self.k {
            self.heap.push(entry);
        } else if
        // Infallible: this branch requires `heap.len() >= self.k` with
        // `self.k > 0` (checked on entry), so the heap has a top element.
        entry < *self.heap.peek().expect("heap is non-empty when full") {
            self.heap.pop();
            self.heap.push(entry);
        }
    }

    /// The kept hits, best-first.
    pub(crate) fn into_hits(self) -> Vec<SearchHit> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|e| SearchHit {
                record_id: e.record_id,
                estimated_overlap: e.overlap,
                estimated_containment: e.score,
            })
            .collect()
    }
}

/// Heap entry of the bounded top-k search. The `Ord` instance ranks *worse*
/// hits greater (lower score first, then higher record id), so the max-heap
/// root is the weakest kept hit and `into_sorted_vec` yields best-first.
#[derive(Debug, Clone, Copy)]
struct TopKEntry {
    score: f64,
    overlap: f64,
    record_id: usize,
}

impl TopKEntry {
    fn new(record_id: usize, overlap: f64, query_size: usize) -> Self {
        TopKEntry {
            score: overlap / query_size as f64,
            overlap,
            record_id,
        }
    }
}

impl PartialEq for TopKEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for TopKEntry {}

impl PartialOrd for TopKEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TopKEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .score
            .total_cmp(&self.score)
            .then_with(|| self.record_id.cmp(&other.record_id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topk_keeps_best_with_id_tiebreak() {
        let mut topk = TopK::new(3);
        for (rid, overlap) in [(5, 2.0), (1, 4.0), (9, 4.0), (3, 1.0), (7, 3.0)] {
            topk.consider(rid, overlap, 4);
        }
        let ids: Vec<usize> = topk.into_hits().iter().map(|h| h.record_id).collect();
        // 4.0 ties broken by ascending id; 3.0 fills the last slot.
        assert_eq!(ids, vec![1, 9, 7]);
    }

    #[test]
    fn zero_overlap_is_never_ranked() {
        let mut topk = TopK::new(5);
        for (rid, overlap) in [(0, 0.0), (1, 2.0), (2, 0.0), (3, 1.0)] {
            topk.consider(rid, overlap, 4);
        }
        let ids: Vec<usize> = topk.into_hits().iter().map(|h| h.record_id).collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn zero_k_keeps_nothing() {
        let mut topk = TopK::new(0);
        topk.consider(1, 5.0, 2);
        assert!(topk.into_hits().is_empty());
    }

    #[test]
    fn threshold_collector_sorts_by_record_id() {
        let mut collector = ThresholdCollector::default();
        for rid in [4usize, 0, 2] {
            collector.push(SearchHit {
                record_id: rid,
                estimated_overlap: 1.0,
                estimated_containment: 0.5,
            });
        }
        let ids: Vec<usize> = collector
            .into_sorted()
            .iter()
            .map(|h| h.record_id)
            .collect();
        assert_eq!(ids, vec![0, 2, 4]);
    }
}
