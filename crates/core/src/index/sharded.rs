//! The sharded storage layer behind [`crate::index::GbKmvIndex`].
//!
//! A [`Shard`] bundles one size-ordered [`SketchStore`] with the inverted
//! signature posting lists over its slots; a [`ShardedIndex`] is an ordered
//! sequence of shards covering contiguous, ascending record-id ranges. Every
//! [`crate::index::GbKmvIndex`] owns a `ShardedIndex` — an unsharded index is
//! simply the one-shard case — so the single-query, batch and dynamic-insert
//! paths all go through the same storage code.
//!
//! **Why shards?** The sketcher (hash function, buffer layout, global
//! threshold `τ`) is always chosen over the whole dataset, so shard
//! boundaries never change any estimate: a query's hits are the concatenation
//! of its per-shard hits, and because the ranges are contiguous and
//! ascending, concatenating per-shard results (each sorted by record id)
//! yields the globally sorted result with no merge. Shards therefore give
//! the engine independent units of work — for parallel builds, for the batch
//! query path, and for bounding the O(shard) cost of a dynamic insert — at
//! zero accuracy cost.
//!
//! **Posting storage.** Every posting list is a
//! [`crate::index::postings::PostingList`] in the shard's
//! build-time [`PostingFormat`] — block-compressed delta/bit-packed by
//! default, raw `Vec<u32>` for the ablation — so the format decision is
//! made once here and every query path inherits it transparently.
//!
//! **The buffer is stored once.** A record's buffer lives only in the
//! store's fixed-stride buffer words: the candidates stage mints buffered
//! candidates by a popcount sweep over those words at every `b_min ≥ 1`,
//! so there are no inverted buffer-bit postings to build, splice on insert
//! or checkpoint.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::gbkmv::GbKmvRecordSketch;
use crate::hash::mix64;
use crate::index::postings::{PostingFormat, PostingList};
use crate::mem::MemUsage;
use crate::parallel;
use crate::store::{SketchStore, SketchView};

/// Issues process-unique 64-bit stamps for shard epochs and index lineages.
///
/// The counter starts at a mixed seed of the process id and the wall clock,
/// so stamps issued by different processes (which may each load, mutate and
/// re-checkpoint the *same* arena file) occupy effectively disjoint ranges:
/// a delta checkpoint only reuses a shard's bytes when both the lineage and
/// the shard epoch match, and a cross-process stamp collision is the one
/// event that could make that reuse unsound. Within a process the counter
/// is strictly increasing, so two distinct mutations never share an epoch.
pub(crate) fn next_stamp() -> u64 {
    static COUNTER: OnceLock<AtomicU64> = OnceLock::new();
    COUNTER
        .get_or_init(|| {
            let pid = u64::from(std::process::id());
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0);
            AtomicU64::new(mix64(pid ^ nanos.rotate_left(32)))
        })
        .fetch_add(1, Ordering::Relaxed)
}

/// One storage shard: a size-ordered sketch store plus the inverted
/// signature posting lists over its slots.
///
/// Posting lists hold ascending **slot** numbers. Because slots are ordered
/// by descending record size (the [`SketchStore`] invariant), every posting
/// list is simultaneously size-sorted: the prune stage truncates each list
/// at the query's live-prefix cutoff — one binary search on the raw format,
/// whole-block skips plus one in-block search on the packed format.
#[derive(Debug, Clone, PartialEq)]
pub struct Shard {
    /// First global record id owned by this shard.
    base: usize,
    /// The shard's flattened sketch storage.
    store: SketchStore,
    /// The storage format every posting list of this shard uses.
    format: PostingFormat,
    /// Inverted postings from G-KMV signature hash value to slots
    /// (ascending within each list).
    signature_postings: HashMap<u64, PostingList>,
}

impl Shard {
    /// Builds a shard over `sketches` (the records `base..base +
    /// sketches.len()`), fanning posting construction over `threads` scoped
    /// threads. The shard is identical for every thread count: slots are
    /// chunked contiguously and the per-chunk posting fragments are merged
    /// in chunk order, so every list stays ascending; the merged lists are
    /// then sealed into their [`PostingFormat`] in one encoding pass.
    pub(crate) fn build(
        base: usize,
        sketches: &[GbKmvRecordSketch],
        words_per_record: usize,
        format: PostingFormat,
        threads: usize,
    ) -> Self {
        let store = SketchStore::from_sketches(words_per_record, sketches);
        let slots: Vec<u32> = (0..store.len() as u32).collect();
        let chunked = parallel::map_chunks(&slots, threads, |_, chunk| {
            let mut sig: HashMap<u64, Vec<u32>> = HashMap::new();
            for &slot in chunk {
                for &h in store.view(slot as usize).hashes {
                    sig.entry(h).or_default().push(slot);
                }
            }
            sig
        });
        let mut merged: HashMap<u64, Vec<u32>> = HashMap::new();
        for sig in chunked {
            for (h, slots) in sig {
                merged.entry(h).or_default().extend(slots);
            }
        }
        let signature_postings = merged
            .into_iter()
            .map(|(h, list)| (h, PostingList::from_sorted(format, list)))
            .collect();
        Shard {
            base,
            store,
            format,
            signature_postings,
        }
    }

    /// Appends one record to the shard, keeping the store size-ordered and
    /// every posting list sorted. Returns the record's **global** id.
    ///
    /// The store splice renumbers every slot at or above the insertion
    /// point, so the existing posting entries are renumbered to match before
    /// the new record's own postings are spliced in at their sorted
    /// positions. This is O(shard postings) in general — the price of
    /// keeping the pruned query path exact under dynamic inserts; bulk
    /// loads go through [`Shard::build`].
    ///
    /// **Fast path:** when the new record sorts last (smallest size, and
    /// among the smallest the lowest hot-first buffer words; see
    /// [`SketchStore`]), its slot lands at the tail of the slot order, so no
    /// existing entry is at or above it — the whole renumber pass is
    /// skipped and every posting splice is a tail append (an O(1) push on
    /// the raw format, a one-block rewrite on the packed one). Loading
    /// records in slot order therefore inserts in O(record postings)
    /// instead of O(shard).
    pub(crate) fn insert(&mut self, sketch: &GbKmvRecordSketch) -> usize {
        let (local_id, slot) = self.store.insert(sketch);
        let slot = slot as u32;
        // The tail slot (store.len() grew by one, so the old tail index is
        // len − 1) has no slots above it to renumber.
        if (slot as usize) < self.store.len() - 1 {
            for list in self.signature_postings.values_mut() {
                list.renumber_from(slot);
            }
        }
        let format = self.format;
        for &h in self.store.view(slot as usize).hashes {
            self.signature_postings
                .entry(h)
                .or_insert_with(|| PostingList::new(format))
                .insert_sorted(slot);
        }
        self.base + local_id
    }

    /// First global record id owned by this shard.
    #[inline]
    pub fn base(&self) -> usize {
        self.base
    }

    /// Number of records in this shard.
    #[inline]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the shard holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The shard's sketch store.
    #[inline]
    pub fn store(&self) -> &SketchStore {
        &self.store
    }

    /// The posting-list storage format this shard was built with.
    #[inline]
    pub fn posting_format(&self) -> PostingFormat {
        self.format
    }

    /// The global record id held in `slot`.
    #[inline]
    pub fn global_id(&self, slot: usize) -> usize {
        self.base + self.store.record_id(slot)
    }

    /// The signature posting list (ascending slots) of a hash value, if any.
    #[inline]
    pub(crate) fn signature_postings(&self, hash: u64) -> Option<&PostingList> {
        self.signature_postings.get(&hash)
    }

    /// Heap bytes held by the shard's posting lists (payload arenas plus
    /// per-block metadata; excludes the `HashMap` table itself, which is
    /// format-independent). The memory-footprint number the
    /// `query_throughput` bench reports per format.
    pub fn posting_bytes(&self) -> usize {
        self.signature_postings
            .values()
            .map(PostingList::heap_bytes)
            .sum()
    }

    /// Number of bitmap-encoded blocks across the shard's posting lists
    /// (always 0 on the raw format) — the diagnostic the dense-profile
    /// bench gates on to prove the hybrid encoding actually engages.
    pub fn bitmap_blocks(&self) -> usize {
        self.signature_postings
            .values()
            .map(PostingList::bitmap_blocks)
            .sum()
    }

    /// Reassembles a shard from its parts — the persistence layer's
    /// constructor. Callers guarantee the store/posting invariants
    /// (structurally validated by `crate::persist` before this is reached).
    pub(crate) fn from_parts(
        base: usize,
        store: SketchStore,
        format: PostingFormat,
        signature_postings: HashMap<u64, PostingList>,
    ) -> Self {
        Shard {
            base,
            store,
            format,
            signature_postings,
        }
    }

    /// The full signature posting map (persistence and accounting).
    pub(crate) fn signature_posting_map(&self) -> &HashMap<u64, PostingList> {
        &self.signature_postings
    }

    /// Per-component content bytes of this shard — store arenas plus
    /// posting lists — including how much is borrowed zero-copy from a
    /// loaded arena file (see [`MemUsage`]).
    #[must_use]
    pub fn mem_usage(&self) -> MemUsage {
        let mut usage = self.store.mem_usage();
        for list in self.signature_postings.values() {
            list.mem_contrib(&mut usage);
        }
        usage
    }
}

/// An ordered sequence of [`Shard`]s covering contiguous, ascending record-id
/// ranges (shard `i + 1`'s base is shard `i`'s base plus its length).
///
/// Shards are held behind [`Arc`]s, so **cloning an index is N pointer
/// bumps**, not a storage copy: the serving layer's per-generation publish
/// clones the current index, splices the batch into the tail shard through
/// [`Arc::make_mut`] (copy-on-write — only the touched shard's storage is
/// duplicated, and only when a previous generation still shares it), and
/// publishes. Untouched shards stay pointer-equal across generations, which
/// both the race tests and the `mem_usage_shared` accounting rely on.
///
/// Each shard carries a **dirty epoch** and the index a **lineage** stamp
/// (see `next_stamp`): every mutation of shard `i` replaces `epochs[i]`,
/// while clones (and the arena save/load round trip) preserve both. A
/// matching `(lineage, epoch)` pair is therefore proof that a shard's
/// storage is bit-identical to the one a previous checkpoint serialised —
/// the delta-checkpoint reuse criterion in `crate::persist`.
#[derive(Debug, Clone)]
pub struct ShardedIndex {
    shards: Vec<Arc<Shard>>,
    /// Stamp identifying the mutation history these epochs belong to.
    lineage: u64,
    /// Per-shard dirty epoch, replaced on every mutation of that shard.
    epochs: Vec<u64>,
}

/// Equality is *storage* equality: the lineage and epoch stamps are
/// process-unique bookkeeping, so a grown index and a from-scratch rebuild
/// with identical shard contents must still compare equal (the
/// insert-equals-rebuild tests depend on this).
impl PartialEq for ShardedIndex {
    fn eq(&self, other: &Self) -> bool {
        self.shards.len() == other.shards.len()
            && self
                .shards
                .iter()
                .zip(&other.shards)
                .all(|(a, b)| **a == **b)
    }
}

impl ShardedIndex {
    /// Builds `num_shards` shards (`0` is clamped to 1) over the dataset's
    /// sketches. The sketches are split into contiguous chunks, so the
    /// record-id ranges are ascending by construction.
    ///
    /// With one shard, posting construction fans out over `threads` inside
    /// the shard; with several, whole shards build in parallel. Either way
    /// the result is identical for every thread count.
    pub(crate) fn build(
        sketches: &[GbKmvRecordSketch],
        num_shards: usize,
        words_per_record: usize,
        format: PostingFormat,
        threads: usize,
    ) -> Self {
        let num_shards = num_shards.max(1);
        let shards = if num_shards == 1 || sketches.len() <= 1 {
            vec![Shard::build(0, sketches, words_per_record, format, threads)]
        } else {
            let chunk = sketches.len().div_ceil(num_shards);
            let bounds: Vec<usize> = (0..sketches.len()).step_by(chunk).collect();
            parallel::par_map(&bounds, threads, |&lo| {
                let hi = (lo + chunk).min(sketches.len());
                Shard::build(lo, &sketches[lo..hi], words_per_record, format, 1)
            })
        };
        let epochs = shards.iter().map(|_| next_stamp()).collect();
        ShardedIndex {
            shards: shards.into_iter().map(Arc::new).collect(),
            lineage: next_stamp(),
            epochs,
        }
    }

    /// The shards, in ascending record-id order. Exposing the [`Arc`]s lets
    /// callers observe sharing across snapshots (`Arc::ptr_eq`), which the
    /// COW race tests and the shared-memory accounting use.
    #[inline]
    pub fn shards(&self) -> &[Arc<Shard>] {
        &self.shards
    }

    /// The lineage stamp these shard epochs belong to (see the type docs).
    #[inline]
    pub fn lineage(&self) -> u64 {
        self.lineage
    }

    /// Per-shard dirty epochs, parallel to [`ShardedIndex::shards`].
    #[inline]
    pub fn epochs(&self) -> &[u64] {
        &self.epochs
    }

    /// Total number of records across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Whether the index holds no records.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// Total number of stored hash values (space accounting).
    pub fn total_hashes(&self) -> usize {
        self.shards.iter().map(|s| s.store.total_hashes()).sum()
    }

    /// Total heap bytes held by all shards' posting lists (the per-format
    /// memory number of the bench report).
    pub fn posting_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.posting_bytes()).sum()
    }

    /// Total bitmap-encoded posting blocks across all shards (the
    /// dense-profile bench's evidence that hybrid blocks engage).
    pub fn bitmap_blocks(&self) -> usize {
        self.shards.iter().map(|s| s.bitmap_blocks()).sum()
    }

    /// Reassembles an index from already-reconstructed shards plus the
    /// persisted lineage/epoch stamps (the persistence layer's
    /// constructor). Callers guarantee the shards' record-id ranges are
    /// contiguous and ascending and that `epochs` parallels `shards`.
    pub(crate) fn from_parts(shards: Vec<Shard>, lineage: u64, epochs: Vec<u64>) -> Self {
        debug_assert!(!shards.is_empty());
        debug_assert_eq!(shards.len(), epochs.len());
        ShardedIndex {
            shards: shards.into_iter().map(Arc::new).collect(),
            lineage,
            epochs,
        }
    }

    /// A clone that duplicates every shard's storage instead of sharing it
    /// — the pre-COW whole-index copy. Kept as the baseline the ingest
    /// bench measures the copy-on-write [`Clone`] against; nothing on the
    /// serving path uses it.
    #[must_use]
    pub fn deep_clone(&self) -> Self {
        ShardedIndex {
            shards: self
                .shards
                .iter()
                .map(|s| Arc::new(Shard::clone(s)))
                .collect(),
            lineage: self.lineage,
            epochs: self.epochs.clone(),
        }
    }

    /// Summed per-component content bytes across all shards, including the
    /// subset borrowed zero-copy from a loaded arena file.
    #[must_use]
    pub fn mem_usage(&self) -> MemUsage {
        let mut usage = MemUsage::default();
        for shard in &self.shards {
            usage.add(&shard.mem_usage());
        }
        usage
    }

    /// The shard owning a global record id, plus the id local to its store.
    pub fn locate(&self, record_id: usize) -> (&Shard, usize) {
        let i = self
            .shards
            .partition_point(|s| s.base <= record_id)
            .saturating_sub(1);
        let shard = &self.shards[i];
        (shard, record_id - shard.base)
    }

    /// Borrowed view of a global record's sketch.
    pub fn view_of_record(&self, record_id: usize) -> SketchView<'_> {
        let (shard, local) = self.locate(record_id);
        shard.store.view_of_record(local)
    }

    /// Appends one record to the tail shard (the one owning the highest id
    /// range, keeping the ranges contiguous) and returns its global id.
    ///
    /// Copy-on-write: if the tail shard is shared with another index clone
    /// (a published reader snapshot), [`Arc::make_mut`] duplicates that one
    /// shard's storage first — every other shard stays shared untouched, so
    /// growing a cloned index costs O(tail shard + record), not O(index).
    /// The tail shard's epoch is restamped; clean shards keep theirs.
    pub(crate) fn insert(&mut self, sketch: &GbKmvRecordSketch) -> usize {
        // Infallible: `ShardedIndex::build` always creates at least one
        // shard (the empty dataset builds one empty shard) and shards are
        // never removed.
        let tail = self
            .shards
            .len()
            .checked_sub(1)
            .expect("a ShardedIndex always has at least one shard");
        let id = Arc::make_mut(&mut self.shards[tail]).insert(sketch);
        self.epochs[tail] = next_stamp();
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferLayout;
    use crate::dataset::Record;
    use crate::gkmv::{GKmvSketch, GlobalThreshold};
    use crate::hash::Hasher64;

    const FORMATS: [PostingFormat; 2] = [PostingFormat::Packed, PostingFormat::Raw];

    fn sketches(n: usize) -> Vec<GbKmvRecordSketch> {
        let layout = BufferLayout::new(vec![0, 1]);
        let hasher = Hasher64::new(3);
        (0..n)
            .map(|i| {
                let record =
                    Record::new((0..(2 + i as u32 % 5)).map(|j| j * 7 + i as u32).collect());
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
            })
            .collect()
    }

    #[test]
    fn shard_ranges_are_contiguous_and_cover_all_records() {
        let sk = sketches(23);
        for num_shards in [1, 2, 3, 5, 40] {
            let index = ShardedIndex::build(&sk, num_shards, 1, PostingFormat::default(), 1);
            assert_eq!(index.len(), 23, "{num_shards} shards lost records");
            let mut next = 0usize;
            for shard in index.shards() {
                assert_eq!(shard.base(), next, "ranges must be contiguous");
                next += shard.len();
            }
            for (rid, sketch) in sk.iter().enumerate() {
                let (shard, local) = index.locate(rid);
                assert_eq!(shard.base() + local, rid);
                assert_eq!(
                    index.view_of_record(rid).meta.record_size as usize,
                    sketch.record_size
                );
            }
        }
    }

    #[test]
    fn posting_lists_are_ascending_and_size_sorted() {
        let sk = sketches(30);
        for format in FORMATS {
            let index = ShardedIndex::build(&sk, 3, 1, format, 2);
            for shard in index.shards() {
                for list in shard.signature_postings.values() {
                    let slots = list.to_vec();
                    assert!(slots.windows(2).all(|w| w[0] < w[1]), "list not ascending");
                    assert!(
                        slots.windows(2).all(|w| {
                            shard.store.record_size(w[0] as usize)
                                >= shard.store.record_size(w[1] as usize)
                        }),
                        "list not size-sorted"
                    );
                }
            }
        }
    }

    #[test]
    fn posting_formats_hold_identical_slot_sequences() {
        let sk = sketches(40);
        let packed = ShardedIndex::build(&sk, 2, 1, PostingFormat::Packed, 1);
        let raw = ShardedIndex::build(&sk, 2, 1, PostingFormat::Raw, 1);
        for (ps, rs) in packed.shards().iter().zip(raw.shards()) {
            assert_eq!(
                ps.signature_postings.len(),
                rs.signature_postings.len(),
                "formats disagree on the posting vocabulary"
            );
            for (h, list) in &ps.signature_postings {
                assert_eq!(
                    list.to_vec(),
                    rs.signature_postings[h].to_vec(),
                    "hash {h:#x} decodes differently across formats"
                );
            }
        }
    }

    #[test]
    fn store_df_equals_posting_list_length() {
        // The invariant the prefix filter's df-ordering relies on: the
        // store-maintained document frequency is exactly the posting-list
        // length, through bulk build and dynamic insert alike.
        let sk = sketches(30);
        for format in FORMATS {
            let mut index = ShardedIndex::build(&sk, 3, 1, format, 2);
            index.insert(&sketches(31)[30]);
            for shard in index.shards() {
                for (&h, list) in &shard.signature_postings {
                    assert_eq!(
                        shard.store().hash_df(h),
                        list.len(),
                        "store df diverged from posting length for hash {h:#x}"
                    );
                }
                assert_eq!(shard.store().hash_df(0xABAD_1DEA), 0);
            }
        }
    }

    #[test]
    fn build_is_thread_count_invariant() {
        let sk = sketches(37);
        for format in FORMATS {
            for num_shards in [1, 4] {
                let a = ShardedIndex::build(&sk, num_shards, 1, format, 1);
                let b = ShardedIndex::build(&sk, num_shards, 1, format, 4);
                assert_eq!(a, b, "{num_shards}-shard build varies with threads");
            }
        }
    }

    #[test]
    fn insert_appends_to_tail_shard_and_matches_rebuild() {
        let sk = sketches(12);
        for format in FORMATS {
            let mut grown = ShardedIndex::build(&sk[..9], 1, 1, format, 1);
            for (i, s) in sk[9..].iter().enumerate() {
                assert_eq!(grown.insert(s), 9 + i);
            }
            let scratch_built = ShardedIndex::build(&sk, 1, 1, format, 1);
            assert_eq!(grown, scratch_built, "insert diverged from rebuild");
        }
    }

    #[test]
    fn descending_size_inserts_take_the_append_fast_path_and_match_rebuild() {
        // Records inserted in slot-key order (descending size, then
        // descending hot-first buffer words) always land at the tail of the
        // slot order, so every insert takes the renumber-free fast path —
        // and the result must still be bit-identical to a bulk build over
        // the same sequence.
        let mut sk = sketches(20);
        let hot_first =
            |s: &GbKmvRecordSketch| s.buffer.words().first().map_or(0, |w| w.reverse_bits());
        sk.sort_by_key(|s| std::cmp::Reverse((s.record_size, hot_first(s))));
        assert!(
            sk.windows(2).any(
                |w| w[0].record_size == w[1].record_size && hot_first(&w[0]) > hot_first(&w[1])
            ),
            "no size class orders by its buffer words"
        );
        for format in FORMATS {
            let mut grown = ShardedIndex::build(&sk[..1], 1, 1, format, 1);
            for s in &sk[1..] {
                let tail = grown.len();
                grown.insert(s);
                assert_eq!(
                    grown.shards()[0].store().slot_of(tail),
                    tail,
                    "not a tail append"
                );
            }
            let bulk = ShardedIndex::build(&sk, 1, 1, format, 1);
            assert_eq!(grown, bulk, "fast-path inserts diverged from rebuild");
        }
    }

    #[test]
    fn packed_postings_use_no_more_bytes_than_raw() {
        let sk = sketches(200);
        let packed = ShardedIndex::build(&sk, 1, 1, PostingFormat::Packed, 1);
        let raw = ShardedIndex::build(&sk, 1, 1, PostingFormat::Raw, 1);
        assert!(
            packed.posting_bytes() <= raw.posting_bytes(),
            "packed {} bytes vs raw {}",
            packed.posting_bytes(),
            raw.posting_bytes()
        );
        assert!(raw.posting_bytes() > 0);
    }

    #[test]
    fn empty_dataset_builds_one_empty_shard() {
        let index = ShardedIndex::build(&[], 4, 0, PostingFormat::default(), 0);
        assert_eq!(index.shards().len(), 1);
        assert!(index.is_empty());
        assert_eq!(index.len(), 0);
    }
}
