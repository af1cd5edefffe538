//! **Rank** stage of the query pipeline: result collection and ordering.
//!
//! Two collectors close a query:
//!
//! * `ThresholdCollector` — gathers every qualifying hit and orders them
//!   once by ascending global record id (the
//!   [`crate::index::ContainmentIndex`] contract). The answer can be most
//!   of the touched slots: a swept `zipf_threshold` query qualifies about
//!   2,600. Most of them are emitted by the buffer sweep with an estimate
//!   that is exactly their buffered overlap, so such a hit is pushed as one
//!   compact `record_id << 32 | count` key, with no `SearchHit` built; every
//!   other hit is pushed in full and keyed by a tagged index. One LSD radix
//!   sort of the keys, linear in the answer, orders both, and the output is
//!   built in key order. Its buffers live in the
//!   [`QueryScratch`](crate::scratch::QueryScratch) and are reused across
//!   queries.
//! * `TopK` — a bounded binary min-heap keeping the best `k` hits
//!   (O(n log k)); ties broken by ascending record id for determinism.
//!   Records with a zero estimated overlap are never ranked: they share
//!   nothing with the query, so the candidates stage never touches them,
//!   and dropping them here keeps top-k equal to the ranked reference scan,
//!   which offers every slot.

use std::collections::BinaryHeap;

use crate::index::finish;
use crate::index::SearchHit;

/// Low-half tag of a key that indexes a full hit rather than holding a
/// buffered-overlap count.
const HIT_TAG: u64 = 1 << 31;

/// Collects threshold-search hits and establishes the output order.
///
/// Each hit whose record id fits in 32 bits is one key, `record_id << 32 |
/// low`: `low` is either a buffered-overlap count (a hit whose estimate is
/// that count) or [`HIT_TAG`] plus an index into `hits`. Hits with wider
/// ids go to `wide` and are comparison-sorted with the rest.
#[derive(Debug, Clone, Default)]
pub(crate) struct ThresholdCollector {
    keys: Vec<u64>,
    hits: Vec<SearchHit>,
    wide: Vec<SearchHit>,
    /// The radix sort's second buffer.
    sorted: Vec<u64>,
}

impl ThresholdCollector {
    /// Empties the collector, keeping its buffers.
    pub(crate) fn clear(&mut self) {
        self.keys.clear();
        self.hits.clear();
        self.wide.clear();
    }

    /// Collects a full hit.
    #[inline]
    pub(crate) fn push(&mut self, hit: SearchHit) {
        match u32::try_from(hit.record_id) {
            Ok(id) => {
                debug_assert!((self.hits.len() as u64) < HIT_TAG);
                self.keys
                    .push((u64::from(id) << 32) | HIT_TAG | self.hits.len() as u64);
                self.hits.push(hit);
            }
            Err(_) => self.wide.push(hit),
        }
    }

    /// Collects the hit of `record_id` whose estimated overlap is exactly
    /// its buffered overlap `count` (`count < 2^31`); the `SearchHit` is
    /// built at emission, for a query of `query_size` elements.
    #[inline]
    pub(crate) fn push_count(&mut self, record_id: usize, count: u32, query_size: usize) {
        debug_assert!(u64::from(count) < HIT_TAG);
        match u32::try_from(record_id) {
            Ok(id) => self.keys.push((u64::from(id) << 32) | u64::from(count)),
            Err(_) => self
                .wide
                .push(finish::hit(record_id, f64::from(count), query_size)),
        }
    }

    /// Heap bytes held by the collector's buffers.
    pub(crate) fn mem_bytes(&self) -> usize {
        (self.keys.capacity() + self.sorted.capacity()) * std::mem::size_of::<u64>()
            + (self.hits.capacity() + self.wide.capacity()) * std::mem::size_of::<SearchHit>()
    }

    /// The hit a key stands for, for a query of `query_size` elements.
    #[inline]
    fn hit_of(&self, key: u64, query_size: usize) -> SearchHit {
        let low = key & 0xFFFF_FFFF;
        if low & HIT_TAG == 0 {
            finish::hit((key >> 32) as usize, low as f64, query_size)
        } else {
            self.hits[(low & (HIT_TAG - 1)) as usize]
        }
    }

    /// The hits, for a query of `query_size` elements, sorted by ascending
    /// global record id (unique per hit).
    ///
    /// The keys are sorted by an LSD radix sort over their id half, or by a
    /// comparison sort up to [`RADIX_MIN_HITS`] keys, and the hits are
    /// built in key order. With a hit whose id does not fit in 32 bits,
    /// every hit is built first and comparison-sorted instead.
    pub(crate) fn sorted_hits(&mut self, query_size: usize) -> Vec<SearchHit> {
        if !self.wide.is_empty() {
            let mut out = self.wide.clone();
            out.extend(self.keys.iter().map(|&k| self.hit_of(k, query_size)));
            out.sort_unstable_by_key(|h| h.record_id);
            return out;
        }
        if self.keys.len() > RADIX_MIN_HITS {
            let max_id = self
                .keys
                .iter()
                .map(|&k| (k >> 32) as u32)
                .max()
                .unwrap_or(0);
            radix_sort_high_half(
                &mut self.keys,
                &mut self.sorted,
                u32::BITS - max_id.leading_zeros(),
            );
        } else {
            self.keys.sort_unstable();
        }
        self.keys
            .iter()
            .map(|&k| self.hit_of(k, query_size))
            .collect()
    }
}

/// Hit counts up to which [`ThresholdCollector::sorted_hits`]
/// comparison-sorts: there, the radix sort's per-pass histograms cost as
/// much as the sort they replace. Measured on 200 sets of distinct random
/// ids below 200,000 (2-core x86-64 host): at 64 hits both took 1.3 µs, at
/// 32 the comparison sort took 0.5–0.6 µs and the radix sort 0.8–1.6 µs,
/// at 128 the comparison sort took 3.1 µs and the radix sort 1.7–2.2 µs.
pub(crate) const RADIX_MIN_HITS: usize = 64;

/// Widest radix digit, in bits: a 2,048-entry histogram stays in L1.
const RADIX_DIGIT_BITS: u32 = 11;

/// Stable LSD radix sort of `keys` by their high 32 bits, of which only
/// the low `bits` may be set, using `sorted` as the second buffer. The bits
/// split into as few passes of at most [`RADIX_DIGIT_BITS`] as they need
/// (ids below 2^11, 2^22 and 2^32 take 1, 2 and 3 passes), with equal
/// digit widths.
fn radix_sort_high_half(keys: &mut Vec<u64>, sorted: &mut Vec<u64>, bits: u32) {
    let passes = bits.div_ceil(RADIX_DIGIT_BITS).max(1);
    let width = bits.div_ceil(passes);
    let digit_mask = (1u64 << width) - 1;
    let mut buckets = [0u32; 1 << RADIX_DIGIT_BITS];
    let buckets = &mut buckets[..1 << width];
    sorted.clear();
    sorted.resize(keys.len(), 0);
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
        std::mem::swap(keys, sorted);
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

    /// Collects `hits`, every third one as a count key (its overlap is
    /// then the count, and its expected hit is built as the finish builds
    /// one), and returns the hits the collector must emit, unsorted.
    fn collect_mixed(
        collector: &mut ThresholdCollector,
        hits: &[SearchHit],
        query_size: usize,
    ) -> Vec<SearchHit> {
        hits.iter()
            .zip(0u32..)
            .map(|(&hit, i)| {
                if i % 3 == 0 {
                    collector.push_count(hit.record_id, i, query_size);
                    finish::hit(hit.record_id, f64::from(i), query_size)
                } else {
                    collector.push(hit);
                    hit
                }
            })
            .collect()
    }

    proptest! {
        /// The collector's sorted emission equals a comparison sort by
        /// record id of the hits it was given, full and count keys alike:
        /// at 0 and 1 hits, on both sides of `RADIX_MIN_HITS`, at a few
        /// hundred and at 3,000 or more hits, with the largest id needing
        /// 1, 2 or 3 radix passes of 11 bits or not fitting in 32 bits.
        /// Emptying the collector and reusing it gives the same answer.
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
            collect_mixed(&mut collector, &hits_with_ids(9, 8, 3), 7);
            collector.clear();
            let mut expected = collect_mixed(&mut collector, &hits, 7);
            expected.sort_unstable_by_key(|h| h.record_id);
            prop_assert_eq!(collector.sorted_hits(7), expected);
        }
    }

    #[test]
    fn radix_sort_orders_by_the_high_half_stably() {
        // Equal ids keep their low halves' input order; ids need 1, 2 and
        // 3 passes.
        let mut sorted = Vec::new();
        for bits in [1u32, 11, 12, 22, 23, 32] {
            let top = (1u64 << bits) - 1;
            let mut keys: Vec<u64> = [top, 0, top, 1, top >> 1, 0]
                .iter()
                .zip(0u64..)
                .map(|(&id, i)| (id << 32) | i)
                .collect();
            let mut expected = keys.clone();
            expected.sort_by_key(|k| k >> 32);
            radix_sort_high_half(&mut keys, &mut sorted, bits);
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
            .sorted_hits(2)
            .iter()
            .map(|h| h.record_id)
            .collect();
        assert_eq!(ids, vec![0, 2, 4]);
    }
}
