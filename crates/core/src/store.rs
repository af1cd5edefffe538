//! Flattened, cache-dense, **size-ordered** storage for the per-record
//! GB-KMV sketches.
//!
//! The first version of the index kept a `Vec<GbKmvRecordSketch>`: every
//! record owned two heap allocations (its G-KMV hash vector and its buffer
//! bitmap), so a query touching thousands of candidates chased thousands of
//! pointers. [`SketchStore`] replaces that with a CSR-style layout:
//!
//! * one contiguous arena of sorted `u64` hash values with per-slot offsets
//!   (`hashes(slot)` is a plain subslice),
//! * one contiguous arena of buffer bitmap words with a fixed per-slot
//!   stride (the buffer layout is shared by the whole index),
//! * a parallel array of per-slot scalars (`record_size` / `gkmv_len` /
//!   `max_hash` / `saturated`, packed into one [`RecordMeta`] per slot) so
//!   the O(1) per-candidate estimate of the accumulator query engine reads
//!   one cache line and never touches the arenas at all.
//!
//! # Slots vs. record ids
//!
//! Internally, records occupy **slots** ordered by *descending record size*
//! (ties broken by ascending record id), not by record id. Because the
//! inverted posting lists of the query engine store ascending slot numbers,
//! every posting list is automatically size-sorted, and the prune stage of
//! the query pipeline ([`crate::index`]) can cut a whole posting-list suffix
//! with one binary search: a containment query at threshold `t*` can only be
//! matched by records of size at least `⌈t*·|Q|⌉`, i.e. by a *prefix* of the
//! slots ([`SketchStore::live_prefix`]).
//!
//! The old↔new id permutation is kept right here in the store:
//! [`SketchStore::record_id`] maps a slot back to the record id it holds and
//! [`SketchStore::slot_of`] maps a record id to its slot. Record ids are
//! *local* to the store — a sharded index adds its shard's base offset.
//!
//! # Document frequencies
//!
//! The store also tracks, for every signature hash value, the number of its
//! records containing it ([`SketchStore::hash_df`]) — the *document
//! frequency*. When the index builds inverted postings over the slots, a
//! hash's df is by construction the length of its posting list, so the
//! prefix-filter stage of the query pipeline ([`crate::index::candidates`])
//! can order a query's hashes from rarest to most frequent without touching
//! the posting lists themselves. The counts are maintained through every
//! build path (bulk [`SketchStore::from_sketches`] and the dynamic
//! [`SketchStore::insert`] splice), so the ordering stays exact under
//! dynamic maintenance.
//!
//! [`SketchView`] is the borrowed, non-allocating view of one stored sketch
//! (arena subslices plus the [`RecordMeta`] scalars); materialising a
//! [`GbKmvRecordSketch`] via [`SketchStore::record_sketch`] clones both
//! arenas' slices and is only meant for diagnostics and serialisation.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::arena::ArenaVec;
use crate::buffer::ElementBuffer;
use crate::gbkmv::GbKmvRecordSketch;
use crate::gkmv::{GKmvPairEstimate, GKmvSketch};
use crate::kmv::sorted_intersection_count;
use crate::mem::MemUsage;

pub use crate::scratch::QueryScratch;

/// Per-slot scalar summary: everything the accumulator's O(1) finish needs.
///
/// `#[repr(C)]` pins the field layout (8-byte `max_hash`, two `u32`s, one
/// `bool` byte, 7 padding bytes — 24 bytes total) so the persistence layer
/// can borrow a saved meta section zero-copy as `&[RecordMeta]`.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecordMeta {
    /// Largest stored hash value (0 for an empty signature).
    pub max_hash: u64,
    /// True record size `|X|` (the search size filter needs it).
    pub record_size: u32,
    /// Number of stored hash values, `|L_X|`.
    pub gkmv_len: u32,
    /// Whether the global threshold admitted every element of the record.
    pub saturated: bool,
}

/// Borrowed, non-allocating view of one stored sketch: the two arena
/// subslices plus the per-slot scalars. This is what internal callers use
/// instead of the allocating [`SketchStore::record_sketch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SketchView<'a> {
    /// The slot's sorted G-KMV hash values (borrowed from the hash arena).
    pub hashes: &'a [u64],
    /// The slot's buffer bitmap words (borrowed from the buffer arena).
    pub buffer_words: &'a [u64],
    /// The slot's scalar summary.
    pub meta: RecordMeta,
}

/// CSR-style flattened sketch storage, one slot per record, slots ordered by
/// descending record size (see the module docs for the slot/record-id
/// distinction).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SketchStore {
    /// Concatenated, per-slot-sorted G-KMV hash values.
    hash_arena: ArenaVec<u64>,
    /// `hash_offsets[s]..hash_offsets[s + 1]` is slot `s`'s hash range
    /// (`u64` rather than `usize` so the on-disk arena layout is
    /// platform-independent and borrows zero-copy).
    hash_offsets: ArenaVec<u64>,
    /// Concatenated buffer bitmap words, `words_per_record` per slot.
    buffer_arena: ArenaVec<u64>,
    /// Fixed per-slot stride of `buffer_arena` (the shared layout's word
    /// count; 0 when the buffer is disabled).
    words_per_record: usize,
    /// Per-slot scalar summaries. `meta[s].record_size` is non-increasing in
    /// `s` — the invariant behind [`SketchStore::live_prefix`].
    meta: ArenaVec<RecordMeta>,
    /// Slot → the (store-local) record id held in that slot.
    record_ids: ArenaVec<u32>,
    /// (Store-local) record id → the slot holding it.
    slots: ArenaVec<u32>,
    /// Signature hash value → number of records containing it (document
    /// frequency). Equals the posting-list length when postings are built.
    hash_df: HashMap<u64, u32>,
}

impl Default for SketchStore {
    /// An empty store with a zero-width buffer stride. A derived `Default`
    /// would leave `hash_offsets` empty, violating the invariant that it
    /// always starts with a leading 0.
    fn default() -> Self {
        Self::new(0)
    }
}

impl SketchStore {
    /// An empty store whose buffers have `words_per_record` 64-bit words.
    pub fn new(words_per_record: usize) -> Self {
        SketchStore {
            hash_arena: ArenaVec::default(),
            hash_offsets: vec![0].into(),
            buffer_arena: ArenaVec::default(),
            words_per_record,
            meta: ArenaVec::default(),
            record_ids: ArenaVec::default(),
            slots: ArenaVec::default(),
            hash_df: HashMap::new(),
        }
    }

    /// Reassembles a store from its flat parts — the persistence layer's
    /// constructor. The arenas are typically `ArenaVec::Borrowed` views into
    /// a loaded arena file; callers guarantee the CSR invariants (validated
    /// structurally by `crate::persist` before this is reached).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_arena_parts(
        hash_arena: ArenaVec<u64>,
        hash_offsets: ArenaVec<u64>,
        buffer_arena: ArenaVec<u64>,
        words_per_record: usize,
        meta: ArenaVec<RecordMeta>,
        record_ids: ArenaVec<u32>,
        slots: ArenaVec<u32>,
        hash_df: HashMap<u64, u32>,
    ) -> Self {
        SketchStore {
            hash_arena,
            hash_offsets,
            buffer_arena,
            words_per_record,
            meta,
            record_ids,
            slots,
            hash_df,
        }
    }

    /// The raw hash arena (persistence and accounting).
    pub(crate) fn hash_arena_slice(&self) -> &[u64] {
        &self.hash_arena
    }

    /// The raw CSR offset array (persistence and accounting).
    pub(crate) fn hash_offsets_slice(&self) -> &[u64] {
        &self.hash_offsets
    }

    /// The raw buffer bitmap arena (persistence and accounting).
    pub(crate) fn buffer_arena_slice(&self) -> &[u64] {
        &self.buffer_arena
    }

    /// The raw per-slot metadata array (persistence and accounting).
    pub(crate) fn meta_slice(&self) -> &[RecordMeta] {
        &self.meta
    }

    /// The slot → record-id permutation (persistence and accounting).
    pub(crate) fn record_ids_slice(&self) -> &[u32] {
        &self.record_ids
    }

    /// The record-id → slot permutation (persistence and accounting).
    pub(crate) fn slots_slice(&self) -> &[u32] {
        &self.slots
    }

    /// The full document-frequency map (persistence).
    pub(crate) fn hash_df_map(&self) -> &HashMap<u64, u32> {
        &self.hash_df
    }

    /// Per-component content bytes of this store, including how much is
    /// borrowed zero-copy from a loaded arena file (see [`MemUsage`]).
    #[must_use]
    pub fn mem_usage(&self) -> MemUsage {
        MemUsage {
            hash_arena_bytes: std::mem::size_of_val(self.hash_arena.as_slice()),
            hash_offsets_bytes: std::mem::size_of_val(self.hash_offsets.as_slice()),
            buffer_arena_bytes: std::mem::size_of_val(self.buffer_arena.as_slice()),
            meta_bytes: std::mem::size_of_val(self.meta.as_slice()),
            permutation_bytes: std::mem::size_of_val(self.record_ids.as_slice())
                + std::mem::size_of_val(self.slots.as_slice()),
            hash_df_bytes: self.hash_df.len()
                * (std::mem::size_of::<u64>() + std::mem::size_of::<u32>()),
            borrowed_bytes: self.hash_arena.borrowed_bytes()
                + self.hash_offsets.borrowed_bytes()
                + self.buffer_arena.borrowed_bytes()
                + self.meta.borrowed_bytes()
                + self.record_ids.borrowed_bytes()
                + self.slots.borrowed_bytes(),
            ..MemUsage::default()
        }
    }

    /// Builds the store from materialised per-record sketches in record-id
    /// order; slot `0` receives the largest record. The parallel build
    /// produces sketches in chunks; appending here is a memcpy per arena, so
    /// it is not worth parallelising.
    pub fn from_sketches<'a, I>(words_per_record: usize, sketches: I) -> Self
    where
        I: IntoIterator<Item = &'a GbKmvRecordSketch>,
    {
        let sketches: Vec<&GbKmvRecordSketch> = sketches.into_iter().collect();
        let mut order: Vec<u32> = (0..sketches.len() as u32).collect();
        // Stable sort by descending size keeps ascending record id within a
        // size class, so the slot order is deterministic.
        order.sort_by_key(|&i| std::cmp::Reverse(sketches[i as usize].record_size));

        let mut store = SketchStore::new(words_per_record);
        store.slots = vec![0; sketches.len()].into();
        for &rid in &order {
            let slot = store.meta.len() as u32;
            store.append_slot(sketches[rid as usize], rid);
            store.slots[rid as usize] = slot;
        }
        store
    }

    /// Appends one sketch as the next slot, recording the record id it
    /// holds. Callers maintain the size-order invariant and the `slots`
    /// reverse map.
    fn append_slot(&mut self, sketch: &GbKmvRecordSketch, record_id: u32) {
        let hashes = sketch.gkmv.hashes();
        // Per-record hashes are deduplicated (the GKmvSketch invariant), so
        // each occurrence is one more containing record.
        for &h in hashes {
            *self.hash_df.entry(h).or_insert(0) += 1;
        }
        self.hash_arena.to_mut().extend_from_slice(hashes);
        self.hash_offsets
            .to_mut()
            .push(self.hash_arena.len() as u64);
        let words = self.padded_words(sketch);
        let pad = self.pad_len(sketch);
        self.buffer_arena.to_mut().extend_from_slice(words);
        self.buffer_arena
            .to_mut()
            .extend(std::iter::repeat_n(0, pad));
        self.meta.to_mut().push(Self::meta_of(sketch));
        self.record_ids.to_mut().push(record_id);
    }

    /// The prefix of the sketch's buffer words that fits the stride.
    ///
    /// A real assert, not debug_assert: this is a build-time path, and
    /// silently dropping set bits would make every later search undercount
    /// the buffer overlap.
    fn padded_words<'a>(&self, sketch: &'a GbKmvRecordSketch) -> &'a [u64] {
        let words = sketch.buffer.words();
        let copied = words.len().min(self.words_per_record);
        assert!(
            words[copied..].iter().all(|&w| w == 0),
            "sketch buffer has set bits beyond the store's {} word stride \
             (was it built under a wider BufferLayout?)",
            self.words_per_record
        );
        &words[..copied]
    }

    fn pad_len(&self, sketch: &GbKmvRecordSketch) -> usize {
        self.words_per_record - sketch.buffer.words().len().min(self.words_per_record)
    }

    fn meta_of(sketch: &GbKmvRecordSketch) -> RecordMeta {
        let hashes = sketch.gkmv.hashes();
        RecordMeta {
            max_hash: hashes.last().copied().unwrap_or(0),
            record_size: sketch.record_size as u32,
            gkmv_len: hashes.len() as u32,
            saturated: sketch.gkmv.is_saturated(),
        }
    }

    /// Inserts one record's sketch with the next record id, splicing it into
    /// the slot that keeps the size-order invariant, and returns
    /// `(record_id, slot)`.
    ///
    /// This is the dynamic-maintenance path: the new record carries the
    /// largest record id, so inserting *after* every slot of equal size
    /// reproduces exactly the slot order a from-scratch
    /// [`SketchStore::from_sketches`] build over the grown dataset would
    /// choose. Arena splicing is O(store size); callers that bulk-load should
    /// use `from_sketches`.
    pub fn insert(&mut self, sketch: &GbKmvRecordSketch) -> (usize, usize) {
        let record_id = self.len() as u32;
        let size = sketch.record_size as u32;
        let slot = self.meta.partition_point(|m| m.record_size >= size);

        let hashes = sketch.gkmv.hashes();
        for &h in hashes {
            *self.hash_df.entry(h).or_insert(0) += 1;
        }
        let pos = self.hash_offsets[slot] as usize;
        self.hash_arena
            .to_mut()
            .splice(pos..pos, hashes.iter().copied());
        self.hash_offsets
            .to_mut()
            .insert(slot + 1, (pos + hashes.len()) as u64);
        for offset in &mut self.hash_offsets.to_mut()[slot + 2..] {
            *offset += hashes.len() as u64;
        }

        let wpos = slot * self.words_per_record;
        let pad = self.pad_len(sketch);
        let words: Vec<u64> = self
            .padded_words(sketch)
            .iter()
            .copied()
            .chain(std::iter::repeat_n(0, pad))
            .collect();
        self.buffer_arena.to_mut().splice(wpos..wpos, words);

        self.meta.to_mut().insert(slot, Self::meta_of(sketch));
        self.record_ids.to_mut().insert(slot, record_id);
        for s in self.slots.to_mut().iter_mut() {
            if *s >= slot as u32 {
                *s += 1;
            }
        }
        self.slots.to_mut().push(slot as u32);
        (record_id as usize, slot)
    }

    /// Number of stored records.
    #[inline]
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Whether the store holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// The (store-local) record id held in `slot`.
    #[inline]
    pub fn record_id(&self, slot: usize) -> usize {
        self.record_ids[slot] as usize
    }

    /// The slot holding (store-local) `record_id`.
    #[inline]
    pub fn slot_of(&self, record_id: usize) -> usize {
        self.slots[record_id] as usize
    }

    /// Document frequency of a signature hash value: the number of stored
    /// records whose signature contains `hash` (0 for an unseen hash). When
    /// the index builds inverted postings this is exactly the posting-list
    /// length, so the query pipeline's prefix filter orders a query's hashes
    /// by rarity without touching the lists.
    #[inline]
    pub fn hash_df(&self, hash: u64) -> usize {
        self.hash_df.get(&hash).map_or(0, |&df| df as usize)
    }

    /// Number of leading slots whose record size is at least `min_size` —
    /// the prune stage's cutoff. Slots `live_prefix(s)..` all hold records
    /// strictly smaller than `min_size` (the size-order invariant), so the
    /// candidate stage truncates every posting list at this slot number.
    #[inline]
    pub fn live_prefix(&self, min_size: usize) -> usize {
        let min = min_size.min(u32::MAX as usize) as u32;
        self.meta.partition_point(|m| m.record_size >= min)
    }

    /// Slot `slot`'s sorted G-KMV hash values.
    #[inline]
    pub fn hashes(&self, slot: usize) -> &[u64] {
        &self.hash_arena[self.hash_offsets[slot] as usize..self.hash_offsets[slot + 1] as usize]
    }

    /// Slot `slot`'s buffer bitmap words (`words_per_record` of them).
    #[inline]
    pub fn buffer_words(&self, slot: usize) -> &[u64] {
        let start = slot * self.words_per_record;
        &self.buffer_arena[start..start + self.words_per_record]
    }

    /// The buffer bitmap words of slots `lo..hi`, contiguous in slot order
    /// (`words_per_record` per slot): the concatenation of
    /// [`SketchStore::buffer_words`] over the range, as one slice.
    #[inline]
    pub(crate) fn buffer_words_range(&self, lo: usize, hi: usize) -> &[u64] {
        &self.buffer_arena[lo * self.words_per_record..hi * self.words_per_record]
    }

    /// The true record size `|X|` of the record in `slot`.
    #[inline]
    pub fn record_size(&self, slot: usize) -> usize {
        self.meta[slot].record_size as usize
    }

    /// Number of hash values in slot `slot`'s signature, `|L_X|`.
    #[inline]
    pub fn gkmv_len(&self, slot: usize) -> usize {
        self.meta[slot].gkmv_len as usize
    }

    /// Largest hash value of slot `slot`'s signature (0 when empty).
    #[inline]
    pub fn max_hash(&self, slot: usize) -> u64 {
        self.meta[slot].max_hash
    }

    /// Whether slot `slot`'s signature kept every non-buffered element.
    #[inline]
    pub fn is_saturated(&self, slot: usize) -> bool {
        self.meta[slot].saturated
    }

    /// Borrowed view of the sketch in `slot` — the non-allocating
    /// counterpart of [`SketchStore::record_sketch`].
    #[inline]
    pub fn view(&self, slot: usize) -> SketchView<'_> {
        SketchView {
            hashes: self.hashes(slot),
            buffer_words: self.buffer_words(slot),
            meta: self.meta[slot],
        }
    }

    /// Borrowed view of the sketch of (store-local) `record_id`.
    #[inline]
    pub fn view_of_record(&self, record_id: usize) -> SketchView<'_> {
        self.view(self.slot_of(record_id))
    }

    /// Total number of hash values across all records (space accounting).
    #[inline]
    pub fn total_hashes(&self) -> usize {
        self.hash_arena.len()
    }

    /// The fixed buffer stride in 64-bit words.
    #[inline]
    pub fn words_per_record(&self) -> usize {
        self.words_per_record
    }

    /// `|H_Q ∩ H_X|` for a query bitmap against the record in `slot`:
    /// popcount of the word-wise AND, entirely over the flat arena.
    #[inline]
    pub fn buffer_intersection_count(&self, query_words: &[u64], slot: usize) -> usize {
        self.buffer_words(slot)
            .iter()
            .zip(query_words.iter())
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Full pairwise estimate of a query signature against the record in
    /// `slot` via a sorted merge over the hash arena (the scan/reference
    /// query paths).
    ///
    /// `query_max_hash` is the query signature's largest hash value (0 when
    /// empty) and `query_saturated` whether its threshold admitted every
    /// element — the same scalars the store keeps per slot.
    pub fn gkmv_pair_estimate(
        &self,
        query_hashes: &[u64],
        query_max_hash: u64,
        query_saturated: bool,
        slot: usize,
    ) -> GKmvPairEstimate {
        let record_hashes = self.hashes(slot);
        let k_intersection = sorted_intersection_count(query_hashes, record_hashes);
        GKmvPairEstimate::from_parts(
            query_hashes.len(),
            record_hashes.len(),
            k_intersection,
            query_max_hash.max(self.meta[slot].max_hash),
            query_saturated && self.meta[slot].saturated,
        )
    }

    /// Materialises the sketch of (store-local) `record_id` (diagnostics and
    /// serialisation; the query paths use [`SketchStore::view`] and never
    /// allocate).
    pub fn record_sketch(&self, record_id: usize) -> GbKmvRecordSketch {
        let view = self.view_of_record(record_id);
        GbKmvRecordSketch {
            buffer: ElementBuffer::from_words(view.buffer_words.to_vec()),
            gkmv: GKmvSketch::from_hashes(view.hashes.to_vec(), view.meta.saturated),
            record_size: view.meta.record_size as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferLayout;
    use crate::dataset::Record;
    use crate::gkmv::GlobalThreshold;
    use crate::hash::Hasher64;

    fn sketch(elements: &[u32], layout: &BufferLayout) -> GbKmvRecordSketch {
        let record = Record::new(elements.to_vec());
        let hasher = Hasher64::new(9);
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
    }

    #[test]
    fn store_round_trips_sketches() {
        let layout = BufferLayout::new(vec![1, 2, 3]);
        let sketches = vec![
            sketch(&[1, 2, 10, 20], &layout),
            sketch(&[3, 30], &layout),
            sketch(&[40, 50, 60], &layout),
        ];
        let store = SketchStore::from_sketches(layout.words(), &sketches);
        assert_eq!(store.len(), 3);
        for (rid, s) in sketches.iter().enumerate() {
            assert_eq!(
                &store.record_sketch(rid),
                s,
                "record {rid} did not round-trip"
            );
            let slot = store.slot_of(rid);
            assert_eq!(store.record_id(slot), rid, "permutation is not inverse");
            assert_eq!(store.hashes(slot), s.gkmv.hashes());
            assert_eq!(store.gkmv_len(slot), s.gkmv.len());
            assert_eq!(store.record_size(slot), s.record_size);
            assert_eq!(
                store.max_hash(slot),
                s.gkmv.hashes().last().copied().unwrap_or(0)
            );
            assert_eq!(store.is_saturated(slot), s.gkmv.is_saturated());
            let view = store.view_of_record(rid);
            assert_eq!(view.hashes, s.gkmv.hashes());
            assert_eq!(view.buffer_words, store.buffer_words(slot));
            assert_eq!(view.meta.record_size as usize, s.record_size);
        }
        assert_eq!(
            store.total_hashes(),
            sketches.iter().map(|s| s.gkmv.len()).sum::<usize>()
        );
    }

    #[test]
    fn slots_are_ordered_by_descending_size_with_id_tiebreak() {
        let layout = BufferLayout::empty();
        let sketches = vec![
            sketch(&[1, 2], &layout),           // record 0, size 2
            sketch(&[10, 11, 12, 13], &layout), // record 1, size 4
            sketch(&[20, 21], &layout),         // record 2, size 2 (ties record 0)
            sketch(&[30, 31, 32], &layout),     // record 3, size 3
        ];
        let store = SketchStore::from_sketches(0, &sketches);
        let slot_order: Vec<usize> = (0..store.len()).map(|s| store.record_id(s)).collect();
        assert_eq!(slot_order, vec![1, 3, 0, 2]);
        let sizes: Vec<usize> = (0..store.len()).map(|s| store.record_size(s)).collect();
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn live_prefix_matches_linear_scan() {
        let layout = BufferLayout::empty();
        let sketches: Vec<GbKmvRecordSketch> = (0..20u32)
            .map(|i| {
                let elems: Vec<u32> = (0..=(i * 7) % 13).map(|j| 100 + i * 50 + j).collect();
                sketch(&elems, &layout)
            })
            .collect();
        let store = SketchStore::from_sketches(0, &sketches);
        for min_size in 0..16 {
            let expected = (0..store.len())
                .filter(|&s| store.record_size(s) >= min_size)
                .count();
            assert_eq!(store.live_prefix(min_size), expected, "min_size {min_size}");
            // All live slots form a prefix.
            assert!((0..store.live_prefix(min_size)).all(|s| store.record_size(s) >= min_size));
        }
        assert_eq!(store.live_prefix(usize::MAX), 0);
    }

    #[test]
    fn hash_df_counts_containing_records_through_build_and_insert() {
        let layout = BufferLayout::empty();
        let sketches: Vec<GbKmvRecordSketch> =
            [&[1u32, 2, 3][..], &[2, 3, 4], &[3, 4, 5, 6], &[7, 8]]
                .iter()
                .map(|els| sketch(els, &layout))
                .collect();
        let mut store = SketchStore::from_sketches(0, &sketches[..3]);
        store.insert(&sketches[3]);

        // Reference: count containing records straight off the sketches.
        let mut expected: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for s in &sketches {
            for &h in s.gkmv.hashes() {
                *expected.entry(h).or_insert(0) += 1;
            }
        }
        for (&h, &df) in &expected {
            assert_eq!(store.hash_df(h), df, "df mismatch for hash {h:#x}");
        }
        assert_eq!(store.hash_df(0xDEAD_BEEF), 0, "unseen hash must have df 0");
    }

    #[test]
    fn insert_matches_from_scratch_build() {
        let layout = BufferLayout::new(vec![1, 2, 3]);
        let sketches: Vec<GbKmvRecordSketch> = [
            &[1u32, 2, 10, 20][..],
            &[3, 30],
            &[40, 50, 60, 70, 80],
            &[2, 3],
            &[5, 6, 7],
        ]
        .iter()
        .map(|els| sketch(els, &layout))
        .collect();

        let from_scratch = SketchStore::from_sketches(layout.words(), &sketches);
        let mut incremental = SketchStore::from_sketches(layout.words(), &sketches[..2]);
        for (expected_id, s) in sketches.iter().enumerate().skip(2) {
            let (rid, slot) = incremental.insert(s);
            assert_eq!(rid, expected_id);
            assert_eq!(incremental.record_id(slot), expected_id);
        }
        assert_eq!(
            incremental, from_scratch,
            "incremental inserts diverged from the from-scratch build"
        );
    }

    #[test]
    fn pair_estimate_matches_sketch_pair_estimate() {
        let layout = BufferLayout::new(vec![1, 2]);
        let a = sketch(&[1, 2, 10, 20, 30], &layout);
        let b = sketch(&[2, 20, 30, 40], &layout);
        let store = SketchStore::from_sketches(layout.words(), [&a, &b]);
        let b_slot = store.slot_of(1);
        let via_store = store.gkmv_pair_estimate(
            a.gkmv.hashes(),
            a.gkmv.hashes().last().copied().unwrap_or(0),
            a.gkmv.is_saturated(),
            b_slot,
        );
        let direct = a.gkmv.pair_estimate(&b.gkmv);
        assert_eq!(via_store, direct);
        assert_eq!(
            store.buffer_intersection_count(a.buffer.words(), b_slot),
            a.buffer.intersection_count(&b.buffer)
        );
    }

    #[test]
    fn default_store_upholds_offset_invariant() {
        let layout = BufferLayout::empty();
        let mut store = SketchStore::default();
        let (rid, slot) = store.insert(&sketch(&[5, 6, 7], &layout));
        assert_eq!(rid, 0);
        assert_eq!(store.hashes(slot).len(), 3);
        assert_eq!(store.gkmv_len(slot), 3);
    }

    #[test]
    fn mem_usage_reports_content_sizes_and_no_borrows_for_built_stores() {
        let layout = BufferLayout::new(vec![1, 2, 3]);
        let sketches = vec![sketch(&[1, 2, 10, 20], &layout), sketch(&[3, 30], &layout)];
        let store = SketchStore::from_sketches(layout.words(), &sketches);
        let usage = store.mem_usage();
        assert_eq!(usage.hash_arena_bytes, store.total_hashes() * 8);
        assert_eq!(usage.hash_offsets_bytes, (store.len() + 1) * 8);
        assert_eq!(
            usage.buffer_arena_bytes,
            store.len() * store.words_per_record() * 8
        );
        assert_eq!(
            usage.meta_bytes,
            store.len() * std::mem::size_of::<RecordMeta>()
        );
        assert_eq!(usage.permutation_bytes, store.len() * 2 * 4);
        assert_eq!(usage.borrowed_bytes, 0, "built stores own every arena");
        assert!(usage.total_bytes() > 0);
    }

    #[test]
    fn zero_width_buffer_store() {
        let layout = BufferLayout::empty();
        let a = sketch(&[5, 6], &layout);
        let store = SketchStore::from_sketches(0, [&a]);
        assert_eq!(store.buffer_words(0), &[] as &[u64]);
        assert_eq!(store.buffer_intersection_count(&[], 0), 0);
    }

    /// `buffer_words_range(lo, hi)` is the per-slot words of `lo..hi`,
    /// concatenated, for every range of the store.
    fn assert_buffer_words_range_concatenates(store: &SketchStore) {
        for lo in 0..=store.len() {
            for hi in lo..=store.len() {
                let expected: Vec<u64> = (lo..hi)
                    .flat_map(|slot| store.buffer_words(slot).iter().copied())
                    .collect();
                assert_eq!(
                    store.buffer_words_range(lo, hi),
                    expected,
                    "slots {lo}..{hi}"
                );
            }
        }
    }

    #[test]
    fn buffer_words_range_concatenates_per_slot_words() {
        // Two-word stride: bits on both sides of the word boundary.
        let layout = BufferLayout::new((0..70).collect());
        let sketches = vec![
            sketch(&[1, 65, 100], &layout),
            sketch(&[0, 2, 3, 66, 69, 200, 201], &layout),
            sketch(&[64, 300], &layout),
            sketch(&[5, 6, 7, 8], &layout),
        ];
        let store = SketchStore::from_sketches(layout.words(), &sketches);
        assert_eq!(store.words_per_record(), 2);
        assert_buffer_words_range_concatenates(&store);

        let empty = BufferLayout::empty();
        let zero = [sketch(&[5, 6], &empty), sketch(&[7], &empty)];
        assert_buffer_words_range_concatenates(&SketchStore::from_sketches(0, &zero));
    }
}
