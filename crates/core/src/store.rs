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
//! Internally, records occupy **slots** ordered by *descending record size*,
//! not by record id. Because the inverted posting lists of the query engine
//! store ascending slot numbers, every posting list is automatically
//! size-sorted, and the prune stage of the query pipeline ([`crate::index`])
//! can cut a whole posting-list suffix with one binary search: a containment
//! query at threshold `t*` can only be matched by records of size at least
//! `⌈t*·|Q|⌉`, i.e. by a *prefix* of the slots
//! ([`SketchStore::live_prefix`]). Size order is the only invariant pruning
//! and correctness rely on.
//!
//! Within a size class, slots are **clustered by buffer words**: records
//! sort by their buffer words in *hot-first* order, descending (the
//! bit-reversed words compared from word 0 upward, so the record holding
//! the most frequent buffered element — bit 0 of the
//! [`crate::buffer::BufferLayout`] — comes first), and then by ascending
//! record id. Records sharing their hot elements thus sit in neighbouring
//! slots. With a zero-width buffer every key is equal and the order is
//! size, then id.
//!
//! The old↔new id permutation is kept right here in the store:
//! [`SketchStore::record_id`] maps a slot back to the record id it holds and
//! [`SketchStore::slot_of`] maps a record id to its slot. Record ids are
//! *local* to the store — a sharded index adds its shard's base offset.
//!
//! # One layout function
//!
//! Every store is laid out by [`SketchStore::merge`]: a linear merge of an
//! already ordered slot run (an existing store) with a batch sorted by the
//! slot key. The bulk build ([`SketchStore::from_sketches`]) is the merge of
//! the empty store with the whole dataset; growing an index merges its tail
//! shard's store with the new records. The new records carry the next
//! record ids, larger than every stored one, so on equal size and buffer
//! words the stored slots go first — exactly the order a build over the
//! grown dataset gives. A merge reads the old store and builds a new one:
//! stored arenas are never written (a loaded store keeps borrowing its file
//! buffer), and readers of the old store are never disturbed.
//!
//! # Block summaries
//!
//! For every aligned block of 64 slots (`SWEEP_BLOCK`) the store keeps the OR
//! of the block's buffer words, one word per word of stride
//! (`SketchStore::block_summary`). No record of a block shares more
//! buffered elements with a query than the block's OR does, so the buffer
//! sweep of [`crate::index::candidates`] skips every block whose summary
//! cannot reach the query's minimum buffered overlap `b_min`. The
//! clustered order is what makes such blocks common. The summary is
//! derived data, computed once per layout: by every merge, and when a
//! loaded store is reassembled (the arena format does not hold it).
//!
//! # Document frequencies
//!
//! The store also tracks, for every signature hash value, the number of its
//! records containing it ([`SketchStore::hash_df`]) — the *document
//! frequency*. When the index builds inverted postings over the slots, a
//! hash's df is by construction the length of its posting list, so the
//! prefix-filter stage of the query pipeline ([`crate::index::candidates`])
//! can order a query's hashes from rarest to most frequent without touching
//! the posting lists themselves. Each merge derives the counts once (the
//! old store's counts plus the batch's), so they stay exact as the index
//! grows.
//!
//! [`SketchView`] is the borrowed, non-allocating view of one stored sketch
//! (arena subslices plus the [`RecordMeta`] scalars); materialising a
//! [`GbKmvRecordSketch`] via [`SketchStore::record_sketch`] clones both
//! arenas' slices and is only meant for diagnostics and serialisation.

use std::cmp::Ordering;

use serde::{Deserialize, Serialize};

use crate::arena::ArenaVec;
use crate::buffer::ElementBuffer;
use crate::gbkmv::GbKmvRecordSketch;
use crate::gkmv::{GKmvPairEstimate, GKmvSketch};
use crate::hash::HashValueMap;
use crate::kmv::sorted_intersection_count;
use crate::mem::MemUsage;

pub use crate::scratch::QueryScratch;

/// Slots per block of the per-block buffer summary (see the module docs):
/// one block is one 64-bit hit mask of the buffer sweep.
pub(crate) const SWEEP_BLOCK: usize = 64;

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
/// descending record size, then hot-first buffer words, then record id (see
/// the module docs for the slot/record-id distinction).
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
    hash_df: HashValueMap<u32>,
    /// OR of the buffer words of each aligned [`SWEEP_BLOCK`]-slot block,
    /// `words_per_record` words per block (derived from `buffer_arena`).
    block_summary: Vec<u64>,
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
            hash_df: HashValueMap::default(),
            block_summary: Vec::new(),
        }
    }

    /// Reassembles a store from its flat parts — the persistence layer's
    /// constructor. The arenas are typically `ArenaVec::Borrowed` views into
    /// a loaded arena file; callers guarantee the CSR invariants (validated
    /// structurally by `crate::persist` before this is reached). The block
    /// summary is rebuilt here, in one pass over the buffer words. Any
    /// size-ordered slot order opens; images written before the buffer-word
    /// clustering answer identically, they are just not clustered.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_arena_parts(
        hash_arena: ArenaVec<u64>,
        hash_offsets: ArenaVec<u64>,
        buffer_arena: ArenaVec<u64>,
        words_per_record: usize,
        meta: ArenaVec<RecordMeta>,
        record_ids: ArenaVec<u32>,
        slots: ArenaVec<u32>,
        hash_df: HashValueMap<u32>,
    ) -> Self {
        SketchStore {
            block_summary: summarize(&buffer_arena, words_per_record),
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
    pub(crate) fn hash_df_map(&self) -> &HashValueMap<u32> {
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
            block_summary_bytes: std::mem::size_of_val(self.block_summary.as_slice()),
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
    /// order: the merge of the empty store with the whole dataset, so slot
    /// `0` receives the largest record and each size class is clustered by
    /// hot-first buffer words (module docs).
    pub fn from_sketches<'a, I>(words_per_record: usize, sketches: I) -> Self
    where
        I: IntoIterator<Item = &'a GbKmvRecordSketch>,
    {
        let sketches: Vec<&GbKmvRecordSketch> = sketches.into_iter().collect();
        SketchStore::new(words_per_record).merge(&sketches)
    }

    /// The one layout function (module docs): a new store holding this
    /// store's records plus `batch`, whose records take the next
    /// store-local ids `len()..len() + batch.len()` in batch order. The
    /// sorted batch is merged with the stored slots in one pass, and the
    /// document frequencies, the id → slot map and the block summary are
    /// derived once: O(store + batch · log store).
    pub fn merge(&self, batch: &[&GbKmvRecordSketch]) -> Self {
        let stride = self.words_per_record;
        let base = self.len() as u32;
        // Every batch record's buffer words, padded to the stride.
        let mut words = Vec::with_capacity(batch.len() * stride);
        for sketch in batch {
            let start = words.len();
            words.extend_from_slice(self.padded_words(sketch));
            words.resize(start + stride, 0);
        }
        let words_of = |i: usize| &words[i * stride..(i + 1) * stride];

        // One packed key per batch record, sorted ascending: descending size
        // in the top 32 bits, the descending hot-first first buffer word in
        // the middle 64, the ascending batch index (hence record id) in the
        // low 32. The keys are unique, so the unstable sort is
        // deterministic. Keys are built up front: reading the words inside
        // the comparator is far slower.
        let mut order: Vec<u128> = batch
            .iter()
            .zip(0u32..)
            .map(|(sketch, i)| {
                let first = words_of(i as usize).first().copied().unwrap_or(0);
                (u128::from(u32::MAX - sketch.record_size as u32) << 96)
                    | (u128::from(!first.reverse_bits()) << 32)
                    | u128::from(i)
            })
            .collect();
        order.sort_unstable();
        if stride > 1 {
            // Records tied on size and first word order by their remaining
            // words, then by id.
            let rest = |i: u128| &words_of(i as u32 as usize)[1..];
            for run in order.chunk_by_mut(|a, b| a >> 32 == b >> 32) {
                run.sort_unstable_by(|&a, &b| {
                    hot_first_cmp(rest(b), rest(a)).then((a as u32).cmp(&(b as u32)))
                });
            }
        }

        let len = self.len() + batch.len();
        let batch_hashes: usize = batch.iter().map(|s| s.gkmv.len()).sum();
        let mut hash_arena = Vec::with_capacity(self.total_hashes() + batch_hashes);
        let mut hash_offsets = Vec::with_capacity(len + 1);
        hash_offsets.push(0);
        let mut buffer_arena = Vec::with_capacity(len * stride);
        let mut meta = Vec::with_capacity(len);
        let mut record_ids = Vec::with_capacity(len);
        // Each batch record in key order, then the end of the store: copy
        // the stored slots up to the landing slot, one run per arena, then
        // append the record.
        let mut from = 0;
        for next in order
            .iter()
            .map(|&key| Some(key as u32 as usize))
            .chain([None])
        {
            let to = next.map_or(self.len(), |i| {
                self.landing(from, batch[i].record_size as u32, words_of(i))
            });
            let (start, end) = (self.hash_offsets[from], self.hash_offsets[to]);
            let shift = hash_arena.len() as u64 - start;
            hash_arena.extend_from_slice(&self.hash_arena[start as usize..end as usize]);
            hash_offsets.extend(self.hash_offsets[from + 1..=to].iter().map(|&o| o + shift));
            buffer_arena.extend_from_slice(&self.buffer_arena[from * stride..to * stride]);
            meta.extend_from_slice(&self.meta[from..to]);
            record_ids.extend_from_slice(&self.record_ids[from..to]);
            from = to;
            if let Some(i) = next {
                hash_arena.extend_from_slice(batch[i].gkmv.hashes());
                hash_offsets.push(hash_arena.len() as u64);
                buffer_arena.extend_from_slice(words_of(i));
                meta.push(Self::meta_of(batch[i]));
                record_ids.push(base + i as u32);
            }
        }

        let mut slots = vec![0; len];
        for (slot, &rid) in (0u32..).zip(&record_ids) {
            slots[rid as usize] = slot;
        }
        let mut hash_df = self.hash_df.clone();
        // Per-record hashes are deduplicated (the GKmvSketch invariant), so
        // each occurrence is one more containing record.
        for sketch in batch {
            for &h in sketch.gkmv.hashes() {
                *hash_df.entry(h).or_insert(0) += 1;
            }
        }
        SketchStore {
            block_summary: summarize(&buffer_arena, stride),
            hash_arena: hash_arena.into(),
            hash_offsets: hash_offsets.into(),
            buffer_arena: buffer_arena.into(),
            words_per_record: stride,
            meta: meta.into(),
            record_ids: record_ids.into(),
            slots: slots.into(),
            hash_df,
        }
    }

    /// The slot a new record of `size` with the padded buffer `words` lands
    /// in, searching from slot `from`: past every stored slot of larger
    /// size, and of equal size with equal or hotter words (the stored slot
    /// holds the smaller record id, so it wins the tie).
    fn landing(&self, from: usize, size: u32, words: &[u64]) -> usize {
        let meta = &self.meta[from..];
        let (mut lo, mut hi) = (
            from + meta.partition_point(|m| m.record_size > size),
            from + meta.partition_point(|m| m.record_size >= size),
        );
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if hot_first_cmp(self.buffer_words(mid), words) == Ordering::Less {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
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

    fn meta_of(sketch: &GbKmvRecordSketch) -> RecordMeta {
        let hashes = sketch.gkmv.hashes();
        RecordMeta {
            max_hash: hashes.last().copied().unwrap_or(0),
            record_size: sketch.record_size as u32,
            gkmv_len: hashes.len() as u32,
            saturated: sketch.gkmv.is_saturated(),
        }
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

    /// The buffer bitmap words of slots `0..hi`, contiguous in slot order
    /// (`words_per_record` per slot): the concatenation of
    /// [`SketchStore::buffer_words`] over the prefix, as one slice.
    #[inline]
    pub(crate) fn buffer_words_prefix(&self, hi: usize) -> &[u64] {
        &self.buffer_arena[..hi * self.words_per_record]
    }

    /// The per-block buffer summary: for block `b` (slots `64·b..64·b + 64`,
    /// see [`SWEEP_BLOCK`]), words `b·stride..(b + 1)·stride` hold the OR of
    /// the block's buffer words.
    #[inline]
    pub(crate) fn block_summary(&self) -> &[u64] {
        &self.block_summary
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

/// The block summary of a buffer arena of `stride` words per slot: the OR
/// of each aligned [`SWEEP_BLOCK`]-slot block's words, `stride` words per
/// block.
fn summarize(buffer_arena: &[u64], stride: usize) -> Vec<u64> {
    if stride == 0 {
        return Vec::new();
    }
    // One-word strides (the cost model's usual `r ≤ 64`) fold each block in
    // one vectorised pass. Every build and every merge summarises its whole
    // arena, so each flush into a 200k-record shard runs this over 200k
    // words; the general loop below made `ingest_visible_p50_ms` measurably
    // slower when it ran on that path.
    if stride == 1 {
        return buffer_arena
            .chunks(SWEEP_BLOCK)
            .map(|block| block.iter().fold(0, |or, &w| or | w))
            .collect();
    }
    let mut summary =
        Vec::with_capacity(buffer_arena.len().div_ceil(SWEEP_BLOCK * stride) * stride);
    for block in buffer_arena.chunks(SWEEP_BLOCK * stride) {
        let (first, rest) = block.split_at(stride);
        let start = summary.len();
        summary.extend_from_slice(first);
        for record in rest.chunks_exact(stride) {
            for (or, &w) in summary[start..].iter_mut().zip(record) {
                *or |= w;
            }
        }
    }
    summary
}

/// Orders two records' buffer words hot-first: by the bit-reversed words,
/// compared from word 0 upward, so the record holding the lower (more
/// frequent) buffered position is `Greater`. The slot order sorts each size
/// class by this key, descending.
#[inline]
fn hot_first_cmp(a: &[u64], b: &[u64]) -> Ordering {
    a.iter()
        .map(|w| w.reverse_bits())
        .cmp(b.iter().map(|w| w.reverse_bits()))
}

#[cfg(test)]
impl SketchStore {
    /// The block summary recomputed slot by slot, for comparison with the
    /// maintained one.
    pub(crate) fn block_summary_recomputed(&self) -> Vec<u64> {
        let stride = self.words_per_record;
        let mut summary = vec![0; self.len().div_ceil(SWEEP_BLOCK) * stride];
        for slot in 0..self.len() {
            let block = slot / SWEEP_BLOCK;
            for (or, &w) in summary[block * stride..]
                .iter_mut()
                .zip(self.buffer_words(slot))
            {
                *or |= w;
            }
        }
        summary
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
    fn slots_are_ordered_by_size_then_hot_first_buffer_words_then_id() {
        // Buffered elements 1 (bit 0, the hottest) to 3 (bit 2).
        let layout = BufferLayout::new(vec![1, 2, 3]);
        let sketches = vec![
            sketch(&[2, 50], &layout),          // record 0, size 2, bits {1}
            sketch(&[10, 11, 12, 13], &layout), // record 1, size 4, no bits
            sketch(&[1, 51], &layout),          // record 2, size 2, bits {0}
            sketch(&[30, 31, 32], &layout),     // record 3, size 3, no bits
            sketch(&[2, 3], &layout),           // record 4, size 2, bits {1, 2}
            sketch(&[52, 53], &layout),         // record 5, size 2, no bits
            sketch(&[2, 54], &layout),          // record 6, size 2, bits {1}
            sketch(&[1, 2, 3], &layout),        // record 7, size 3, bits {0, 1, 2}
        ];
        let store = SketchStore::from_sketches(layout.words(), &sketches);
        let slot_order: Vec<usize> = (0..store.len()).map(|s| store.record_id(s)).collect();
        // Size 4, then size 3 (hot bit 0 first), then size 2: bit 0, then
        // bits {1, 2} before {1} (ids 0 and 6 tied), then no bits.
        assert_eq!(slot_order, vec![1, 7, 3, 2, 4, 0, 6, 5]);
        let sizes: Vec<usize> = (0..store.len()).map(|s| store.record_size(s)).collect();
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]));

        // A zero-width buffer keys every record alike: size, then id.
        let empty = BufferLayout::empty();
        let plain: Vec<GbKmvRecordSketch> = [&[1u32, 2][..], &[10, 11, 12, 13], &[20, 21]]
            .iter()
            .map(|els| sketch(els, &empty))
            .collect();
        let store = SketchStore::from_sketches(0, &plain);
        let slot_order: Vec<usize> = (0..store.len()).map(|s| store.record_id(s)).collect();
        assert_eq!(slot_order, vec![1, 0, 2]);
    }

    /// Wide strides order by every word: records tied on size and word 0
    /// fall back to word 1, then to the id, through build and merge alike.
    #[test]
    fn slot_order_compares_every_buffer_word() {
        let layout = BufferLayout::new((0..130).collect());
        let sketches: Vec<GbKmvRecordSketch> = [
            &[0u32, 70, 500][..],
            &[0, 65, 501],
            &[0, 70, 502],
            &[1, 128, 503],
            &[0, 129, 504],
            &[0, 65, 505],
        ]
        .iter()
        .map(|els| sketch(els, &layout))
        .collect();
        let store = SketchStore::from_sketches(layout.words(), &sketches);
        assert_eq!(store.words_per_record(), 3);
        let slot_order: Vec<usize> = (0..store.len()).map(|s| store.record_id(s)).collect();
        assert_eq!(slot_order, vec![1, 5, 0, 2, 4, 3]);
        for batch in [1, 2, 5] {
            let built = SketchStore::from_sketches(layout.words(), &sketches[..1]);
            assert_eq!(grow(built, &sketches[1..], batch), store, "batch {batch}");
        }
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

    /// Batch sizes the grow tests merge in: one record, a few, one and just
    /// over one 64-slot block, and more than the store holds.
    const BATCHES: [usize; 5] = [1, 7, 64, 65, 1_000];

    /// `store` grown by `sketches` in merges of `batch` records, checking
    /// the ids each merge hands out.
    fn grow(mut store: SketchStore, sketches: &[GbKmvRecordSketch], batch: usize) -> SketchStore {
        for chunk in sketches.chunks(batch) {
            let first = store.len();
            let refs: Vec<&GbKmvRecordSketch> = chunk.iter().collect();
            store = store.merge(&refs);
            for (rid, s) in (first..).zip(chunk) {
                assert_eq!(store.view_of_record(rid).hashes, s.gkmv.hashes());
                assert_eq!(store.record_id(store.slot_of(rid)), rid);
            }
        }
        store
    }

    /// Records for the grow tests over a 40-element buffer (one word):
    /// `0..n` varied, then records larger than any of those (they sort
    /// before every stored slot), then copies of earlier records (tied on
    /// size and buffer words with stored slots).
    fn grow_records(layout: &BufferLayout, n: u32) -> Vec<GbKmvRecordSketch> {
        let record = |i: u32| {
            let mut elements: Vec<u32> = (0..40).filter(|&e| (e * 7 + i * 13) % 23 < 3).collect();
            elements.extend((0..(1 + i % 9)).map(|j| 1_000 + i * 10 + j));
            elements
        };
        let mut sketches: Vec<GbKmvRecordSketch> =
            (0..n).map(|i| sketch(&record(i), layout)).collect();
        sketches.extend((0..70).map(|i| {
            let mut elements = record(i);
            elements.extend((0..40 + i % 5).map(|j| 50_000 + i * 100 + j));
            sketch(&elements, layout)
        }));
        sketches.extend((0..70).map(|i| sketch(&record(i * 3 % n), layout)));
        sketches
    }

    #[test]
    fn hash_df_counts_containing_records_through_build_and_insert() {
        let layout = BufferLayout::new((0..40).collect());
        let sketches = grow_records(&layout, 60);
        // Reference: count containing records straight off the sketches.
        let mut expected: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for s in &sketches {
            for &h in s.gkmv.hashes() {
                *expected.entry(h).or_insert(0) += 1;
            }
        }
        for batch in BATCHES {
            let built = SketchStore::from_sketches(layout.words(), &sketches[..60]);
            let store = grow(built, &sketches[60..], batch);
            for (&h, &df) in &expected {
                assert_eq!(store.hash_df(h), df, "df of {h:#x}, batch {batch}");
            }
            assert_eq!(store.hash_df_map().len(), expected.len());
            assert_eq!(store.hash_df(0xDEAD_BEEF), 0, "unseen hash must have df 0");
        }
    }

    /// Growing a store by merges equals the from-scratch build over every
    /// record, at every batch size, from a built or an empty store; the
    /// grown records include a run sorting before every stored slot and
    /// copies tied with stored slots on size and buffer words.
    #[test]
    fn insert_matches_from_scratch_build() {
        let layout = BufferLayout::new((0..40).collect());
        let sketches = grow_records(&layout, 60);
        let from_scratch = SketchStore::from_sketches(layout.words(), &sketches);
        assert!(
            (60..130).contains(&from_scratch.record_id(0)),
            "a larger record leads the slot order"
        );
        let tied = |slot: usize| {
            from_scratch.record_id(slot - 1) < 60
                && from_scratch.record_id(slot) >= 130
                && from_scratch.view(slot - 1).meta.record_size
                    == from_scratch.view(slot).meta.record_size
                && from_scratch.buffer_words(slot - 1) == from_scratch.buffer_words(slot)
        };
        assert!(
            (1..from_scratch.len()).any(tied),
            "no copy ties with a stored slot"
        );
        for batch in BATCHES {
            let built = SketchStore::from_sketches(layout.words(), &sketches[..60]);
            assert_eq!(
                grow(built, &sketches[60..], batch),
                from_scratch,
                "merges of {batch} diverged from the from-scratch build"
            );
            let empty = SketchStore::new(layout.words());
            assert_eq!(
                grow(empty, &sketches, batch),
                from_scratch,
                "batch {batch} from empty"
            );
        }
    }

    /// The block summary equals a slot-by-slot recomputation after the
    /// build and after every merge, at every batch size: merges land in
    /// the first block, a middle one, or past the last full block.
    #[test]
    fn block_summary_tracks_build_and_every_insert() {
        for (buffered, stride) in [(40u32, 1usize), (100, 2)] {
            let layout = BufferLayout::new((0..buffered).collect());
            let record = |i: u32| {
                let mut elements: Vec<u32> = (0..buffered)
                    .filter(|&e| (e * 7 + i * 13) % 23 < 3)
                    .collect();
                elements.extend((0..(1 + i % 9)).map(|j| 1_000 + i * 10 + j));
                sketch(&elements, &layout)
            };
            let grown: Vec<GbKmvRecordSketch> = (150..400).map(record).collect();
            for batch in BATCHES {
                let mut store = SketchStore::from_sketches(
                    layout.words(),
                    &(0..150).map(record).collect::<Vec<_>>(),
                );
                assert_eq!(store.words_per_record(), stride);
                assert_eq!(store.block_summary(), store.block_summary_recomputed());
                for chunk in grown.chunks(batch) {
                    store = grow(store, chunk, batch);
                    assert_eq!(
                        store.block_summary(),
                        store.block_summary_recomputed(),
                        "after growing to {} records in merges of {batch}",
                        store.len()
                    );
                }
            }
        }
        assert!(SketchStore::new(1).block_summary().is_empty());
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
        let store = SketchStore::default().merge(&[&sketch(&[5, 6, 7], &layout)]);
        let slot = store.slot_of(0);
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
        assert_eq!(
            usage.block_summary_bytes,
            store.len().div_ceil(SWEEP_BLOCK) * store.words_per_record() * 8
        );
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

    /// `buffer_words_prefix(hi)` is the per-slot words of `0..hi`,
    /// concatenated, for every prefix of the store.
    fn assert_buffer_words_range_concatenates(store: &SketchStore) {
        for hi in 0..=store.len() {
            let expected: Vec<u64> = (0..hi)
                .flat_map(|slot| store.buffer_words(slot).iter().copied())
                .collect();
            assert_eq!(store.buffer_words_prefix(hi), expected, "slots 0..{hi}");
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
