//! The sharded storage layer behind [`crate::index::GbKmvIndex`].
//!
//! A [`Shard`] bundles one size-ordered [`SketchStore`] with the inverted
//! signature posting lists over its slots; a [`ShardedIndex`] is an ordered
//! sequence of shards covering contiguous, ascending record-id ranges. Every
//! [`crate::index::GbKmvIndex`] owns a `ShardedIndex` — an unsharded index is
//! simply the one-shard case — so the single-query, batch and grow paths
//! all go through the same storage code.
//!
//! **Why shards?** The sketcher (hash function, buffer layout, global
//! threshold `τ`) is always chosen over the whole dataset, so shard
//! boundaries never change any estimate: a query's hits are the concatenation
//! of its per-shard hits, and because the ranges are contiguous and
//! ascending, concatenating per-shard results (each sorted by record id)
//! yields the globally sorted result with no merge. Shards therefore give
//! the engine independent units of work — for parallel builds, for the batch
//! query path, and for bounding the O(shard) cost of growing the index —
//! at zero accuracy cost.
//!
//! **Growing.** New records join the tail shard, which owns the highest
//! ids, until it holds `TAIL_SHARD_CAP` records; the rest of a batch
//! opens new shards of at most `TAIL_SHARD_CAP` records each. A shard that
//! is full (or was built over the cap) is never merged into again.
//! `ShardedIndex::insert_batch` merges the tail's store with the part of
//! the batch that fits ([`SketchStore::merge`], the same layout function
//! the bulk build runs over the empty store), builds the grown shard's
//! postings from the merged store with the bulk build's code, and swaps
//! the new shard in; every new shard is built by `Shard::build`. One
//! flush is at most one merge of an under-cap shard, whatever its batch
//! size, so growing costs O(`TAIL_SHARD_CAP` + batch), not O(tail shard).
//! Shard boundaries depend only on the record count, not on how the
//! records were batched, and every grown shard is bit-identical to a
//! shard built over its records with the same sketcher.
//!
//! **Posting storage.** Every posting list is a
//! [`crate::index::postings::PostingList`]: the ascending slot numbers of
//! the records holding one signature hash, as a plain `u32` list.
//!
//! **The buffer is stored once.** A record's buffer lives only in the
//! store's fixed-stride buffer words: the candidates stage mints buffered
//! candidates by a popcount sweep over those words at every `b_min ≥ 1`,
//! so there are no inverted buffer-bit postings to build, merge or
//! checkpoint.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::gbkmv::GbKmvRecordSketch;
use crate::hash::{mix64, HashValueMap};
use crate::index::postings::PostingList;
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

/// Most records a shard reaches by growing: `ShardedIndex::insert_batch`
/// merges records into the tail shard until it holds this many, then
/// opens a new shard. Shards a build lays out may be larger; they are
/// never merged into once over the cap.
///
/// The shard is the unit of a merge and of a delta checkpoint, so the cap
/// bounds both: a flush merges at most `TAIL_SHARD_CAP` stored records
/// with its batch, and a checkpoint rewrites only shards that changed
/// since the last one. A smaller cap makes both cheaper and adds shards,
/// each of which costs every query a few posting lookups. Chosen from an
/// in-process measurement of both sides (one 64-record merge against the
/// per-query cost of one more small shard, caps 2^13 to 2^16), recorded
/// in the repository's change log.
pub(crate) const TAIL_SHARD_CAP: usize = 1 << 14;

/// One storage shard: a size-ordered sketch store plus the inverted
/// signature posting lists over its slots.
///
/// Posting lists hold ascending **slot** numbers. Because slots are ordered
/// by descending record size (the [`SketchStore`] invariant), every posting
/// list is simultaneously size-sorted: the prune stage truncates each list
/// at the query's live-prefix cutoff with one binary search.
#[derive(Debug, Clone, PartialEq)]
pub struct Shard {
    /// First global record id owned by this shard.
    base: usize,
    /// The shard's flattened sketch storage.
    store: SketchStore,
    /// Inverted postings from G-KMV signature hash value to slots
    /// (ascending within each list).
    signature_postings: HashValueMap<PostingList>,
}

impl Shard {
    /// Builds a shard over `sketches` (the records `base..base +
    /// sketches.len()`): its store is the merge of the empty store with
    /// every sketch ([`SketchStore::from_sketches`]).
    pub(crate) fn build(
        base: usize,
        sketches: &[GbKmvRecordSketch],
        words_per_record: usize,
    ) -> Self {
        Self::from_store(base, SketchStore::from_sketches(words_per_record, sketches))
    }

    /// Builds the signature postings over a laid-out store, visiting the
    /// slots in ascending order so every list comes out ascending.
    fn from_store(base: usize, store: SketchStore) -> Self {
        // The store's document frequencies are the final list lengths, so
        // the table and every list are allocated once, at full size.
        let df = store.hash_df_map();
        let mut lists: HashValueMap<Vec<u32>> =
            HashValueMap::with_capacity_and_hasher(df.len(), Default::default());
        for slot in 0..store.len() {
            for &h in store.hashes(slot) {
                lists
                    .entry(h)
                    .or_insert_with(|| Vec::with_capacity(df[&h] as usize))
                    .push(slot as u32);
            }
        }
        let signature_postings = lists
            .into_iter()
            .map(|(h, list)| (h, PostingList::from_sorted(list)))
            .collect();
        Shard {
            base,
            store,
            signature_postings,
        }
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

    /// Heap bytes held by the shard's posting lists (excludes the
    /// `HashMap` table itself). The posting-memory number the
    /// `query_throughput` bench reports.
    pub fn posting_bytes(&self) -> usize {
        self.signature_postings
            .values()
            .map(PostingList::heap_bytes)
            .sum()
    }

    /// Reassembles a shard from its parts — the persistence layer's
    /// constructor. Callers guarantee the store/posting invariants
    /// (structurally validated by `crate::persist` before this is reached).
    pub(crate) fn from_parts(
        base: usize,
        store: SketchStore,
        signature_postings: HashValueMap<PostingList>,
    ) -> Self {
        Shard {
            base,
            store,
            signature_postings,
        }
    }

    /// The full signature posting map (persistence and accounting).
    pub(crate) fn signature_posting_map(&self) -> &HashValueMap<PostingList> {
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
/// clones the current index, replaces the tail shard's `Arc` with the
/// shard grown by the batch (built new; the old tail is never written) or
/// appends the shards the batch opens, and publishes. Untouched shards
/// stay pointer-equal across generations, which both the race tests and
/// the `mem_usage_shared` accounting rely on.
///
/// Each shard carries a **dirty epoch** and the index a **lineage** stamp
/// (see `next_stamp`): every replacement of shard `i` restamps `epochs[i]`,
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
    /// Several shards build in parallel over `threads`; the result is
    /// identical for every thread count.
    pub(crate) fn build(
        sketches: &[GbKmvRecordSketch],
        num_shards: usize,
        words_per_record: usize,
        threads: usize,
    ) -> Self {
        let num_shards = num_shards.max(1);
        let shards = if num_shards == 1 || sketches.len() <= 1 {
            vec![Shard::build(0, sketches, words_per_record)]
        } else {
            let chunk = sketches.len().div_ceil(num_shards);
            let bounds: Vec<usize> = (0..sketches.len()).step_by(chunk).collect();
            parallel::par_map(&bounds, threads, |&lo| {
                let hi = (lo + chunk).min(sketches.len());
                Shard::build(lo, &sketches[lo..hi], words_per_record)
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

    /// Total heap bytes held by all shards' posting lists (the posting
    /// memory number of the bench report).
    pub fn posting_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.posting_bytes()).sum()
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

    /// Appends `batch` after the highest record id and returns the global
    /// ids it took, in batch order.
    ///
    /// The tail shard takes records until it holds `cap` (at least 1;
    /// [`TAIL_SHARD_CAP`] outside tests, which cross the cap with small
    /// indexes); the rest of the batch opens new shards of at most `cap`
    /// records each, so the shard boundaries are the same whether the
    /// records come one by one or in batches of any size. A grown tail is
    /// a new shard: the old tail's store merged with its part of the batch
    /// ([`SketchStore::merge`]), with postings built afresh over it. It
    /// replaces the old tail's [`Arc`] and gets a new epoch, and every new
    /// shard gets an epoch of its own. No shard is written in place: a
    /// clone holding the old tail (a published reader snapshot) keeps it
    /// unchanged, and every other shard stays shared, so growing a cloned
    /// index costs O(`cap` + batch), not O(index). An empty batch changes
    /// nothing.
    pub(crate) fn insert_batch(&mut self, batch: &[GbKmvRecordSketch], cap: usize) -> Range<usize> {
        let start = self.len();
        // Infallible: `ShardedIndex::build` always creates at least one
        // shard (the empty dataset builds one empty shard) and shards are
        // never removed.
        let tail = self
            .shards
            .last_mut()
            .expect("a ShardedIndex always has at least one shard");
        let words_per_record = tail.store.words_per_record();
        let room = cap.saturating_sub(tail.len()).min(batch.len());
        let (fill, rest) = batch.split_at(room);
        if !fill.is_empty() {
            let fill: Vec<&GbKmvRecordSketch> = fill.iter().collect();
            *tail = Arc::new(Shard::from_store(tail.base, tail.store.merge(&fill)));
            *self.epochs.last_mut().expect("one epoch per shard") = next_stamp();
        }
        let mut base = start + room;
        for chunk in rest.chunks(cap.max(1)) {
            self.shards
                .push(Arc::new(Shard::build(base, chunk, words_per_record)));
            self.epochs.push(next_stamp());
            base += chunk.len();
        }
        start..start + batch.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferLayout;
    use crate::dataset::Record;
    use crate::gkmv::{GKmvSketch, GlobalThreshold};
    use crate::hash::Hasher64;

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
            let index = ShardedIndex::build(&sk, num_shards, 1, 1);
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
        let index = ShardedIndex::build(&sk, 3, 1, 2);
        for shard in index.shards() {
            for list in shard.signature_postings.values() {
                let slots = list.as_slice();
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

    #[test]
    fn store_df_equals_posting_list_length() {
        // The invariant the prefix filter's df-ordering relies on: the
        // store-maintained document frequency is exactly the posting-list
        // length, through bulk build and merge alike.
        let sk = sketches(40);
        let mut index = ShardedIndex::build(&sk[..30], 3, 1, 2);
        index.insert_batch(&sk[30..], TAIL_SHARD_CAP);
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

    #[test]
    fn build_is_thread_count_invariant() {
        let sk = sketches(37);
        for num_shards in [1, 4] {
            let a = ShardedIndex::build(&sk, num_shards, 1, 1);
            let b = ShardedIndex::build(&sk, num_shards, 1, 4);
            assert_eq!(a, b, "{num_shards}-shard build varies with threads");
        }
    }

    /// Growing by batches of every size {1, 7, 64, 65, more than the tail
    /// holds}, over one and three shards, appends to the tail shard only
    /// and leaves it equal to a shard built from scratch over its records
    /// (with one shard, to the whole from-scratch build). The records come
    /// in id order and, to cover a batch landing wholly after the stored
    /// slots, in slot-key order (descending size, then hot-first buffer
    /// word).
    #[test]
    fn insert_appends_to_tail_shard_and_matches_rebuild() {
        let hot_first =
            |s: &GbKmvRecordSketch| s.buffer.words().first().map_or(0, |w| w.reverse_bits());
        let mut in_slot_order = sketches(300);
        in_slot_order.sort_by_key(|s| std::cmp::Reverse((s.record_size, hot_first(s))));
        for sk in [sketches(300), in_slot_order] {
            for num_shards in [1, 3] {
                let built = ShardedIndex::build(&sk[..100], num_shards, 1, 1);
                for batch in [1, 7, 64, 65, 250] {
                    let mut grown = built.clone();
                    for chunk in sk[100..].chunks(batch) {
                        let start = grown.len();
                        assert_eq!(
                            grown.insert_batch(chunk, TAIL_SHARD_CAP),
                            start..start + chunk.len()
                        );
                    }
                    let n = grown.shards().len();
                    assert_eq!(n, built.shards().len());
                    for i in 0..n - 1 {
                        assert!(Arc::ptr_eq(&grown.shards()[i], &built.shards()[i]));
                        assert_eq!(grown.epochs()[i], built.epochs()[i]);
                    }
                    let tail = &grown.shards()[n - 1];
                    let rebuilt = Shard::build(tail.base(), &sk[tail.base()..], 1);
                    assert_eq!(**tail, rebuilt, "{num_shards} shards, batch {batch}");
                    if num_shards == 1 {
                        assert_eq!(grown, ShardedIndex::build(&sk, 1, 1, 1));
                    }
                }
            }
        }
    }

    /// The shard bases growth must produce: the built shards, the built
    /// tail filled up to `cap`, then a new shard every `cap` records.
    fn capped_bases(built: &ShardedIndex, total: usize, cap: usize) -> Vec<usize> {
        let mut bases: Vec<usize> = built.shards().iter().map(|s| s.base()).collect();
        let tail = built.shards().last().expect("one shard at least");
        let mut next = tail.base() + tail.len().max(cap);
        while next < total {
            bases.push(next);
            next += cap;
        }
        bases
    }

    /// Grows `built` (over `sk[..n0]`) to all of `sk` in chunks of `batch`
    /// at shard cap `cap`, checking every step: the ids taken, the shards
    /// the chunk did not touch still shared with unchanged epochs, and at
    /// the end the shard bases and every shard equal to a shard built from
    /// scratch over its records.
    fn grow_and_check(built: &ShardedIndex, sk: &[GbKmvRecordSketch], batch: usize, cap: usize) {
        let label = format!("{} built records, batch {batch}, cap {cap}", built.len());
        let mut grown = built.clone();
        for chunk in sk[built.len()..].chunks(batch) {
            let before = grown.clone();
            let start = grown.len();
            assert_eq!(grown.insert_batch(chunk, cap), start..start + chunk.len());
            // A full tail is never merged into again, so it stays clean too.
            let n = before.shards().len();
            let clean = if before.shards()[n - 1].len() >= cap {
                n
            } else {
                n - 1
            };
            for i in 0..clean {
                assert!(
                    Arc::ptr_eq(&grown.shards()[i], &before.shards()[i]),
                    "{label}"
                );
                assert_eq!(grown.epochs()[i], before.epochs()[i], "{label}");
            }
            for i in clean..grown.shards().len() {
                assert!(!before.epochs().contains(&grown.epochs()[i]), "{label}");
            }
        }
        let bases: Vec<usize> = grown.shards().iter().map(|s| s.base()).collect();
        assert_eq!(bases, capped_bases(built, sk.len(), cap), "{label}");
        for (i, shard) in grown.shards().iter().enumerate() {
            let records = &sk[shard.base()..shard.base() + shard.len()];
            assert_eq!(**shard, Shard::build(shard.base(), records, 1), "{label}");
            if i >= built.shards().len() {
                assert!(shard.len() <= cap, "{label}: a new shard over the cap");
            }
        }
    }

    /// Growing across the shard cap, from an empty build, from builds whose
    /// tail is under the cap and from builds whose tail is already over it,
    /// in batches of {1, 7, 64, cap − 1, cap, cap + 1, 2·cap + 3}: the
    /// batch fills the tail to the cap and opens shards of at most `cap`
    /// records for the rest, so record-by-record and batched growth give
    /// the same shard bases, and every shard equals a shard built from
    /// scratch over its records.
    #[test]
    fn insert_across_the_tail_cap_matches_rebuild() {
        const CAP: usize = 16;
        let sk = sketches(160);
        for (n0, shards) in [(0, 1), (10, 1), (40, 1), (30, 3), (60, 2)] {
            let built = ShardedIndex::build(&sk[..n0], shards, 1, 1);
            for batch in [1, 7, 64, CAP - 1, CAP, CAP + 1, 2 * CAP + 3] {
                grow_and_check(&built, &sk, batch, CAP);
            }
        }
    }

    /// The same at the shipped [`TAIL_SHARD_CAP`]: batches of cap − 1,
    /// cap, cap + 1 and 2·cap + 3 from a small build, and single records
    /// across the boundary from a build just under the cap.
    #[test]
    fn insert_across_the_shipped_tail_cap_matches_rebuild() {
        let sk = sketches(2 * TAIL_SHARD_CAP + 103);
        let built = ShardedIndex::build(&sk[..100], 1, 1, 1);
        for batch in [
            TAIL_SHARD_CAP - 1,
            TAIL_SHARD_CAP,
            TAIL_SHARD_CAP + 1,
            2 * TAIL_SHARD_CAP + 3,
        ] {
            grow_and_check(&built, &sk, batch, TAIL_SHARD_CAP);
        }
        let near = &sk[..TAIL_SHARD_CAP + 3];
        let built = ShardedIndex::build(&near[..TAIL_SHARD_CAP - 3], 1, 1, 1);
        grow_and_check(&built, near, 1, TAIL_SHARD_CAP);
    }

    #[test]
    fn empty_batch_changes_nothing() {
        let sk = sketches(10);
        let mut index = ShardedIndex::build(&sk, 2, 1, 1);
        let before = index.clone();
        assert_eq!(index.insert_batch(&[], TAIL_SHARD_CAP), 10..10);
        assert_eq!(index.epochs(), before.epochs());
        assert!(Arc::ptr_eq(&index.shards()[1], &before.shards()[1]));
    }

    #[test]
    fn empty_dataset_builds_one_empty_shard() {
        let index = ShardedIndex::build(&[], 4, 0, 0);
        assert_eq!(index.shards().len(), 1);
        assert!(index.is_empty());
        assert_eq!(index.len(), 0);
    }
}
