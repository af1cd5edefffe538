//! **Rank** stage of the query pipeline: result collection and ordering.
//!
//! Two collectors close a query:
//!
//! * `ThresholdCollector` — gathers every qualifying hit and orders them
//!   once by ascending global record id (the
//!   [`crate::index::ContainmentIndex`] contract). The answer can be most
//!   of the touched candidates: a swept `zipf_threshold` query qualifies
//!   about 2,590 of its 2,690. So the collector emits by an LSD radix sort
//!   of packed `(record id, hit index)` keys and one gather, linear in the
//!   answer, instead of comparison-sorting the 24-byte hits.
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
    ///
    /// Each hit becomes one `record_id << 32 | index` key; an LSD radix
    /// sort over the id half orders the keys, and the hits are gathered in
    /// key order. Up to [`RADIX_MIN_HITS`] hits, or with an id that does
    /// not fit in 32 bits, the hits are comparison-sorted instead.
    pub(crate) fn into_sorted(mut self) -> Vec<SearchHit> {
        let max_id = (self.hits.len() > RADIX_MIN_HITS)
            .then(|| self.hits.iter().map(|h| h.record_id).max())
            .flatten()
            .and_then(|id| u32::try_from(id).ok());
        let Some(max_id) = max_id else {
            self.hits.sort_unstable_by_key(|h| h.record_id);
            return self.hits;
        };
        let id_bits = u32::BITS - max_id.leading_zeros();
        let mut keys: Vec<u64> = self
            .hits
            .iter()
            .zip(0u64..)
            .map(|(h, i)| ((h.record_id as u64) << 32) | i)
            .collect();
        radix_sort_high_half(&mut keys, id_bits);
        keys.iter().map(|&k| self.hits[k as u32 as usize]).collect()
    }
}

/// Hit counts up to which [`ThresholdCollector::into_sorted`]
/// comparison-sorts: there, the radix sort's per-pass histograms cost as
/// much as the sort they replace. Measured on 200 sets of distinct random
/// ids below 200,000 (2-core x86-64 host): at 64 hits both took 1.3 µs, at
/// 32 the comparison sort took 0.5–0.6 µs and the radix sort 0.8–1.6 µs,
/// at 128 the comparison sort took 3.1 µs and the radix sort 1.7–2.2 µs.
pub(crate) const RADIX_MIN_HITS: usize = 64;

/// Widest radix digit, in bits: a 2,048-entry histogram stays in L1.
const RADIX_DIGIT_BITS: u32 = 11;

/// Stable LSD radix sort of `keys` by their high 32 bits, of which only
/// the low `bits` may be set. The bits split into as few passes of at most
/// [`RADIX_DIGIT_BITS`] as they need (ids below 2^11, 2^22 and 2^32 take 1,
/// 2 and 3 passes), with equal digit widths.
fn radix_sort_high_half(keys: &mut Vec<u64>, bits: u32) {
    let passes = bits.div_ceil(RADIX_DIGIT_BITS).max(1);
    let width = bits.div_ceil(passes);
    let digit_mask = (1u64 << width) - 1;
    let mut buckets = [0u32; 1 << RADIX_DIGIT_BITS];
    let buckets = &mut buckets[..1 << width];
    let mut sorted = vec![0u64; keys.len()];
    for pass in 0..passes {
        let shift = 32 + pass * width;
        let digit = |key: u64| ((key >> shift) & digit_mask) as usize;
        buckets.fill(0);
        for &key in keys.iter() {
            buckets[digit(key)] += 1;
        }
        let mut start = 0;
        for bucket in buckets.iter_mut() {
            let len = *bucket;
            *bucket = start;
            start += len;
        }
        for &key in keys.iter() {
            let bucket = &mut buckets[digit(key)];
            sorted[*bucket as usize] = key;
            *bucket += 1;
        }
        std::mem::swap(keys, &mut sorted);
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
    use proptest::prelude::*;

    /// `len` hits with distinct record ids spread over `0..2^bits`, the
    /// largest, `2^bits − 1`, always among them: `id_i = (2^bits − 1 + i ·
    /// odd) mod 2^bits` is injective for `i < 2^bits`. Each hit's overlap
    /// is its push index, so a misplaced gather shows.
    fn hits_with_ids(len: usize, bits: u32, odd: u64) -> Vec<SearchHit> {
        let modulus_mask = (1u64 << bits) - 1;
        (0..len as u64)
            .map(|i| SearchHit {
                record_id: (modulus_mask.wrapping_add(i.wrapping_mul(odd)) & modulus_mask) as usize,
                estimated_overlap: i as f64,
                estimated_containment: 0.5,
            })
            .collect()
    }

    proptest! {
        /// `into_sorted` equals a comparison sort by record id: at 0 and 1
        /// hits, on both sides of `RADIX_MIN_HITS`, at a few hundred and at
        /// 3,000 or more hits, with the largest id needing 1, 2 or 3 radix
        /// passes of 11 bits or not fitting in 32 bits.
        #[test]
        fn into_sorted_matches_a_comparison_sort_by_record_id(
            len_class in 0..6usize,
            bits_class in 0..4usize,
            spread in 1..401usize,
            odd in any::<u64>(),
        ) {
            let bits = [11u32, 22, 32, 40][bits_class];
            let len = [0, 1, RADIX_MIN_HITS, RADIX_MIN_HITS + 1, 1 + spread, 3_000 + spread][len_class];
            // 2^11 ids cannot hold 3,000 distinct ones.
            let len = len.min(1 << bits);
            let hits = hits_with_ids(len, bits, odd | 1);
            let mut collector = ThresholdCollector::default();
            for &hit in &hits {
                collector.push(hit);
            }
            let mut expected = hits;
            expected.sort_unstable_by_key(|h| h.record_id);
            prop_assert_eq!(collector.into_sorted(), expected);
        }
    }

    #[test]
    fn radix_sort_orders_by_the_high_half_stably() {
        // Equal ids keep their low halves' input order; ids need 1, 2 and
        // 3 passes.
        for bits in [1u32, 11, 12, 22, 23, 32] {
            let top = (1u64 << bits) - 1;
            let mut keys: Vec<u64> = [top, 0, top, 1, top >> 1, 0]
                .iter()
                .zip(0u64..)
                .map(|(&id, i)| (id << 32) | i)
                .collect();
            let mut expected = keys.clone();
            expected.sort_by_key(|k| k >> 32);
            radix_sort_high_half(&mut keys, bits);
            assert_eq!(keys, expected, "{bits} bits");
        }
    }

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
