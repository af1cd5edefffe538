//! **Candidates** stage of the query pipeline: posting traversal plus
//! signature accumulation, with prefix-filtered minting, and the buffer
//! sweep.
//!
//! Given a query sketch and one [`Shard`], the stage walks the query's
//! signature-hash postings (accumulating `K∩` per touched slot into a
//! [`QueryScratch`]) and sweeps the store's buffer words for the buffered
//! candidates. In the unfiltered walk the sweep comes last and hands each
//! buffered candidate the signature walk did not touch to a `SweptSink` of
//! the caller, which finishes it in place.
//! Each posting list is truncated to the stage's slot range *before*
//! traversal — the prune stage's live-prefix cutoff, and in the intra-query
//! parallel path additionally the worker's slot sub-range — and the sweep
//! reads exactly that range, so a candidate outside the range is never
//! touched, let alone finished.
//! Truncation is one cut of the raw slot list,
//! [`PostingList::range`](crate::index::postings::PostingList::range), whose
//! sub-slice the scratch's batched methods consume in place — notably the
//! branch-free lookup-only pass
//! ([`QueryScratch::add_signature_hits_if_candidate`]).
//!
//! # Prefix-filtered minting
//!
//! When the prune stage grants fewer minting hashes than the query has
//! (`minting < |L_Q|`, see [`crate::index::prune`] for the bound), the walk
//! orders the query's signature hashes by **ascending document frequency**
//! (rarest first — the df is maintained by the [`SketchStore`], where it
//! equals the posting-list length) and runs in three passes:
//!
//! 1. the `minting` rarest hashes insert new candidates and accumulate,
//! 2. the buffer sweep mints the buffered candidates into the scratch,
//! 3. the remaining frequent hashes accumulate **lookup-only**: they score
//!    candidates already minted, the swept ones included, but never insert
//!    — which is where the filter wins, because the frequent hashes own
//!    the longest posting lists and minting from them dominates the
//!    unfiltered walk.
//!
//! The unfiltered walk (every hash mints) is pass 1, then the sweep, which
//! emits instead of minting. Which walk a threshold query takes is the
//! prune stage's decision for that query alone: a signature of at most
//! `SHORT_SIGNATURE_LEN` hashes, or a bound of `θ_sig ≤ 1`, walks
//! unfiltered, any other query prefixed. Top-k always walks unfiltered.
//! There is no switch that forces either walk.
//!
//! # The buffer sweep
//!
//! The buffer pass mints nothing when `b_min > B_q` (`buffer_mint`): a
//! record no minting hash reached qualifies only with an exact buffered
//! overlap of at least `b_min` (the joint bound of [`crate::index::prune`];
//! the unfiltered walk has `S_max = 0`, and top-k passes `b_min = 1`, so
//! every slot sharing a buffered element). The **popcount sweep**
//! (`sweep_buffer`) reads the range's fixed-stride buffer words and finds
//! the slots whose overlap `popcount(record_words & query_words)` reaches
//! `b_min`, so no record the bound rules out reaches the finish:
//!
//! * **block skip** — it reads only the aligned 64-slot blocks whose OR
//!   summary (`SketchStore::block_summary`) reaches `b_min` against the
//!   query; no record of another block can. Because each size class is
//!   clustered by hot-first buffer words, a heavy `zipf_threshold` query
//!   reads about 36% of its blocks (93% would pass in size-then-id order);
//! * **emission** — a qualifying slot the signature walk already touched is
//!   left to the finish stage, which has its `K∩`. In the unfiltered walk
//!   every other qualifying slot goes to the sink with its overlap, and is
//!   never stamped or accumulated: every query hash minted, so it shares
//!   none and its estimate is its overlap. A prefix-filtered walk mints
//!   those slots instead, so that its lookup-only pass counts their `K∩`
//!   from the postings it walks anyway: finishing each in place would
//!   need a sorted merge of its signature per slot, which measured
//!   406–488 µs against 32–56 µs per query on the agreement tests'
//!   prefix-filtered sweeping queries (in process, 2-core x86-64 host).
//!
//! Its kernel (`sweep_body`) builds branch-free 64-entry hit masks, first
//! over the block summaries and then over each marked block's records. It
//! is compiled for AVX-512 (with VPOPCNTDQ), for AVX2 and as portable code,
//! and each sweep runs the fastest one the host supports (`SweepTier`,
//! chosen at run time by feature detection).
//!
//! The per-slot results are independent of the pass structure: `K∩` counts
//! every query hash shared with the slot either way, so every slot scores
//! bit-identically to the reference scan; the bounds guarantee the skipped
//! ones could never qualify.
//!
//! [`SketchStore`]: crate::store::SketchStore

use crate::buffer::ElementBuffer;
use crate::gbkmv::GbKmvRecordSketch;
use crate::index::prune::Minting;
use crate::index::sharded::Shard;
use crate::scratch::QueryScratch;
use crate::store::{SketchStore, SWEEP_BLOCK};

/// Borrowed scalar view of a query sketch, so the inner loops never touch
/// the `GbKmvRecordSketch` struct.
pub(crate) struct QuerySketchView<'a> {
    pub(crate) hashes: &'a [u64],
    pub(crate) max_hash: u64,
    pub(crate) saturated: bool,
    pub(crate) buffer: &'a ElementBuffer,
}

impl<'a> QuerySketchView<'a> {
    pub(crate) fn new(sketch: &'a GbKmvRecordSketch) -> Self {
        let hashes = sketch.gkmv.hashes();
        QuerySketchView {
            hashes,
            max_hash: hashes.last().copied().unwrap_or(0),
            saturated: sketch.gkmv.is_saturated(),
            buffer: &sketch.buffer,
        }
    }

    #[inline]
    pub(crate) fn buffer_words(&self) -> &'a [u64] {
        self.buffer.words()
    }
}

/// Takes the slots the buffer sweep emits: each is outside the signature
/// passes' candidates and its buffered overlap reaches `b_min`, so the
/// sweep hands it over for its finish in place instead of minting it.
pub(crate) trait SweptSink {
    /// Takes `slot`, whose buffered overlap with the query is `buffered`.
    fn take(&mut self, slot: u32, buffered: u32);
}

/// Walks the query's signature postings and sweeps its buffer over the
/// slot range `lo..hi` of one shard, accumulating into `scratch` (begins a
/// fresh epoch for the shard). In the unfiltered walk every swept slot
/// that is not a signature candidate goes to `sink`; a prefix-filtered
/// walk mints its swept slots instead and `sink` receives nothing (see the
/// module docs). `hi` is the prune stage's cutoff (pass `shard.len()` to
/// disable pruning — the top-k path, which ranks every candidate); `lo` is
/// non-zero only for the intra-query parallel workers, which partition the
/// live range. `minting` holds the prune stage's bounds: how many
/// df-ordered signature hashes may mint new candidates, and the buffer
/// sweep's `b_min`; pass [`Minting::all`] to disable both filters.
pub(crate) fn accumulate(
    shard: &Shard,
    view: &QuerySketchView<'_>,
    lo: usize,
    hi: usize,
    minting: Minting,
    scratch: &mut QueryScratch,
    sink: &mut impl SweptSink,
) {
    if minting.hashes >= view.hashes.len() {
        accumulate_ordered(shard, view, lo, hi, minting, &[], scratch, sink);
        return;
    }
    // The ordering buffer lives in the scratch and is only moved out while
    // borrowed alongside it.
    let mut order = std::mem::take(&mut scratch.hash_order);
    df_order(shard.store(), view, &mut order);
    accumulate_ordered(shard, view, lo, hi, minting, &order, scratch, sink);
    scratch.hash_order = order;
}

/// [`accumulate`] with a caller-provided df-ordering for the shard (unused
/// when every hash mints). The ordering depends only on (query, shard), so
/// the intra-query parallel path computes it once per shard
/// ([`df_order`]) and shares it across the shard's slot-sub-range tasks
/// instead of re-sorting per task.
#[allow(clippy::too_many_arguments)]
pub(crate) fn accumulate_ordered(
    shard: &Shard,
    view: &QuerySketchView<'_>,
    lo: usize,
    hi: usize,
    minting: Minting,
    order: &[(u32, u64)],
    scratch: &mut QueryScratch,
    sink: &mut impl SweptSink,
) {
    scratch.begin(shard.len());
    if minting.hashes >= view.hashes.len() {
        walk_unfiltered(shard, view, lo, hi, scratch);
        buffer_pass(shard, view, lo, hi, minting.b_min, scratch, Some(sink));
    } else {
        walk_prefixed(shard, view, lo, hi, minting, order, scratch);
    }
}

/// Fills `order` with the query's signature hashes keyed by ascending
/// `(document frequency, hash)` — the rarest-first minting order for one
/// shard's store. The key is unique (per-query hashes are deduplicated),
/// so the order — and with it every downstream artefact — is
/// deterministic.
pub(crate) fn df_order(
    store: &SketchStore,
    view: &QuerySketchView<'_>,
    order: &mut Vec<(u32, u64)>,
) {
    order.clear();
    order.extend(view.hashes.iter().map(|&h| (store.hash_df(h) as u32, h)));
    order.sort_unstable();
}

/// The unfiltered signature walk: every signature hash mints.
fn walk_unfiltered(
    shard: &Shard,
    view: &QuerySketchView<'_>,
    lo: usize,
    hi: usize,
    scratch: &mut QueryScratch,
) {
    for &h in view.hashes {
        if let Some(postings) = shard.signature_postings(h) {
            scratch.add_signature_hits(postings.range(lo, hi));
        }
    }
}

/// The prefix-filtered walk over a df-ordered hash list: the minting
/// pass, the buffer sweep minting its slots, then the lookup-only pass.
fn walk_prefixed(
    shard: &Shard,
    view: &QuerySketchView<'_>,
    lo: usize,
    hi: usize,
    minting: Minting,
    order: &[(u32, u64)],
    scratch: &mut QueryScratch,
) {
    let (mint, lookup) = order.split_at(minting.hashes);
    for &(_, h) in mint {
        if let Some(postings) = shard.signature_postings(h) {
            scratch.add_signature_hits(postings.range(lo, hi));
        }
    }
    // The swept slots must be minted BEFORE the lookup-only pass, which
    // then counts their `K∩` from the postings it walks anyway.
    buffer_pass(
        shard,
        view,
        lo,
        hi,
        minting.b_min,
        scratch,
        None::<&mut QueryScratch>,
    );
    // The lookup-only pass owns the longest posting lists, which is where
    // the branch-free batched accumulate pays off.
    for &(_, h) in lookup {
        if let Some(postings) = shard.signature_postings(h) {
            scratch.add_signature_hits_if_candidate(postings.range(lo, hi));
        }
    }
}

/// How the buffer pass of one query mints its candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BufferMint {
    /// Nothing to mint: the query buffers nothing, or `b_min > B_q`.
    Skip,
    /// Sweep the range's buffer words ([`sweep_buffer`]), emitting the slots
    /// whose buffered overlap reaches `b_min` (`1 ≤ b_min ≤ B_q`; `0` sweeps
    /// as `1`).
    Sweep,
}

/// Decides how the buffer pass mints for a query with minimum buffered
/// overlap `b_min` (the joint bound of [`crate::index::prune`]).
///
/// The sweep emits only the records whose exact buffered overlap reaches
/// `b_min`; a walk over inverted buffer-bit postings would also mint every
/// record sharing a single position, only for the finish stage to discard
/// it. A query that buffers nothing never sweeps, and so neither does a
/// zero-width buffer.
///
/// At `b_min = 1` (top-k and low thresholds) the sweep replaced a walk over
/// per-position buffer postings, which the index no longer stores. On
/// perfbench (seed 1, 12 s, 2-core shared x86-64 host) that walk ran in
/// none of the timed shard passes of `zipf_threshold` and `ingest_mixed`,
/// and dropping the postings cut `index_bytes` by about 9%.
///
/// A per-query cost rule that walked the shortest buffer postings when 16×
/// their entries undercut the swept words was measured and not kept. On
/// perfbench (seed 1, 12 s, 2-core shared x86-64 host, 10 alternating
/// pairs) it was not better by more than its own interquartile range:
/// `query_p99_us` medians 1,451 (rule) vs 1,489 µs (sweep) on
/// `zipf_threshold` and 844 vs 873 µs on `ingest_mixed`, `query_qps`
/// 4,724 vs 4,958 and 8,146 vs 7,939.
pub(crate) fn buffer_mint(view: &QuerySketchView<'_>, b_min: usize) -> BufferMint {
    let positions = view.buffer.count_ones();
    if positions == 0 || b_min > positions {
        BufferMint::Skip
    } else {
        BufferMint::Sweep
    }
}

/// The buffer pass: sweeps for the buffered candidates unless
/// [`buffer_mint`] says there is nothing to mint, passing the signature
/// candidates (sorted) so that the sweep hands over only the slots outside
/// them: to `sink`, or with `None` to the scratch itself, which mints them
/// (the prefix-filtered walk).
#[inline]
fn buffer_pass<S: SweptSink>(
    shard: &Shard,
    view: &QuerySketchView<'_>,
    lo: usize,
    hi: usize,
    b_min: usize,
    scratch: &mut QueryScratch,
    sink: Option<&mut S>,
) {
    if buffer_mint(view, b_min) != BufferMint::Sweep {
        return;
    }
    let candidates = scratch.take_sorted_candidates();
    let (store, query_words) = (shard.store(), view.buffer_words());
    match sink {
        Some(sink) => sweep_buffer(store, query_words, lo, hi, b_min, &candidates, sink),
        None => sweep_buffer(store, query_words, lo, hi, b_min, &candidates, scratch),
    }
    scratch.sorted = candidates;
}

/// The popcount sweep: hands `sink` every slot of `lo..hi` that is not in
/// `candidates` (ascending) and whose buffered overlap with `query_words`,
/// `popcount(record_words & query_words)`, reaches `b_min` (at least 1),
/// with that overlap, in ascending slot order. It reads the store's buffer
/// words only in the 64-slot blocks whose summary
/// ([`SketchStore::block_summary`]) can reach `b_min`. A zero-width buffer
/// emits nothing.
///
/// It runs the fastest [`SweepTier`] the host supports: one body
/// ([`sweep_body`]) compiled three times. Measured on perfbench
/// `zipf_threshold` (seed 1, 12 s, 2-core shared x86-64 host with AVX-512
/// VPOPCNTDQ) against the branchy slot-at-a-time loop it replaced:
/// - AVX-512: median `query_qps` 4,968 → 9,921 and `query_p99_us` 1,460
///   → 1,000 µs over 10 alternating pairs, every pair won;
/// - AVX2, forced: 7,819–8,114 q/s over 3 rounds, beside 4,799–4,990 for
///   the replaced loop;
/// - portable, forced: 4,912–5,208 q/s in the same rounds. Keeping one
///   body for every tier cost the portable build nothing measurable here.
pub(crate) fn sweep_buffer(
    store: &SketchStore,
    query_words: &[u64],
    lo: usize,
    hi: usize,
    b_min: usize,
    candidates: &[u32],
    sink: &mut impl SweptSink,
) {
    let Some(sweep) = Sweep::new(store, query_words, lo, hi, b_min, candidates) else {
        return;
    };
    sweep.run(SweepTier::detect(), sink);
}

/// The compilations of the sweep body, fastest first. Each SIMD tier is
/// the portable body compiled with more target features, so every tier
/// emits the same slots in the same order.
#[derive(Debug, Clone, Copy)]
enum SweepTier {
    /// AVX-512F with VPOPCNTDQ: eight records' popcounts per instruction.
    Avx512,
    /// AVX2 with POPCNT.
    Avx2,
    /// Baseline code for the build target; the only tier off x86-64.
    Portable,
}

impl SweepTier {
    const FASTEST_FIRST: [SweepTier; 3] = [Self::Avx512, Self::Avx2, Self::Portable];

    /// Whether the host has every target feature the tier is compiled with.
    fn supported(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => {
                is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vpopcntdq")
            }
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("popcnt"),
            #[cfg(not(target_arch = "x86_64"))]
            Self::Avx512 | Self::Avx2 => false,
            Self::Portable => true,
        }
    }

    /// The fastest tier the host supports.
    fn detect() -> Self {
        Self::FASTEST_FIRST
            .into_iter()
            .find(|tier| tier.supported())
            .unwrap_or(Self::Portable)
    }
}

/// One sweep's inputs: the buffer words of the slot range `lo..hi` and the
/// store's block summary, `stride` words per record (per block), the
/// query's words, the sorted signature candidates, and the minimum overlap
/// `min` a slot must reach to be emitted.
struct Sweep<'a> {
    words: &'a [u64],
    summary: &'a [u64],
    query_words: &'a [u64],
    stride: usize,
    lo: usize,
    hi: usize,
    min: u32,
    candidates: &'a [u32],
}

impl<'a> Sweep<'a> {
    /// The sweep of `lo..hi` over `store`; `None` for a zero-width buffer.
    fn new(
        store: &'a SketchStore,
        query_words: &'a [u64],
        lo: usize,
        hi: usize,
        b_min: usize,
        candidates: &'a [u32],
    ) -> Option<Self> {
        let stride = store.words_per_record();
        (stride > 0).then(|| Sweep {
            words: store.buffer_words_range(lo, hi),
            summary: store.block_summary(),
            query_words,
            stride,
            lo,
            hi,
            min: u32::try_from(b_min.max(1)).unwrap_or(u32::MAX),
            candidates,
        })
    }

    /// Runs the sweep in `tier`, or in the portable body when the host
    /// lacks one of the tier's features.
    fn run(&self, tier: SweepTier, sink: &mut impl SweptSink) {
        match tier {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the guard just detected avx512f and avx512vpopcntdq,
            // every feature `run_avx512` is compiled with.
            SweepTier::Avx512 if tier.supported() => unsafe { self.run_avx512(sink) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the guard just detected avx2 and popcnt, every feature
            // `run_avx2` is compiled with.
            SweepTier::Avx2 if tier.supported() => unsafe { self.run_avx2(sink) },
            _ => sweep_body(self, sink),
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    fn run_avx512(&self, sink: &mut impl SweptSink) {
        sweep_body(self, sink);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,popcnt")]
    fn run_avx2(&self, sink: &mut impl SweptSink) {
        sweep_body(self, sink);
    }
}

/// Buffered overlap of one record's (or one block summary's) `stride`
/// words with the query's.
#[inline(always)]
fn overlap(record: &[u64], query_words: &[u64]) -> u32 {
    record
        .iter()
        .zip(query_words)
        .map(|(a, b)| (a & b).count_ones())
        .sum()
}

/// The hit mask of up to 64 consecutive entries of `stride` words each
/// (records, or block summaries): bit `j` is set when entry `j`'s overlap
/// with the query reaches `min`, and `counts[j]` holds that overlap.
///
/// A per-entry branch on a hit rate of about 5% is one the predictor cannot
/// learn; the mask loop has no branch, so the compiler vectorises it across
/// entries. One-word strides (buffers of up to 64 elements) get their own
/// loop, which sees a full run of 64 as a fixed 64-word array. With the
/// stride a runtime value, the compiler vectorises the per-entry sum
/// instead of the loop across entries.
#[inline(always)]
fn hit_mask(
    entries: &[u64],
    query_words: &[u64],
    stride: usize,
    min: u32,
    counts: &mut [u32; 64],
) -> u64 {
    if let (1, Some(&q)) = (stride, query_words.first()) {
        let one_word = |entries: &[u64], counts: &mut [u32; 64]| {
            let mut mask = 0u64;
            for (j, (&w, count)) in entries.iter().zip(counts.iter_mut()).enumerate() {
                *count = (w & q).count_ones();
                mask |= u64::from(*count >= min) << j;
            }
            mask
        };
        return match entries.as_array::<64>() {
            Some(full) => one_word(full, counts),
            None => one_word(entries, counts),
        };
    }
    let mut mask = 0u64;
    for (j, (entry, count)) in entries
        .chunks_exact(stride)
        .zip(counts.iter_mut())
        .enumerate()
    {
        *count = overlap(entry, query_words);
        mask |= u64::from(*count >= min) << j;
    }
    mask
}

/// The sweep body, over the aligned 64-slot blocks that `lo..hi` touches:
///
/// 1. per run of 64 blocks, the hit mask of their summaries marks the
///    blocks whose summary overlap with the query reaches `min`; every
///    other block is skipped unread, since no record in it can reach
///    `min`. A range that starts or ends inside a block still uses the
///    block's summary, which bounds every record of the block;
/// 2. per marked block, the hit mask of its records in range, keeping
///    each record's overlap;
/// 3. the bits of the signature candidates in the block are cleared (a
///    cursor over the sorted candidates folds them into a mask, with no
///    stamp reads) and each remaining slot goes to the sink, in ascending
///    order.
#[inline(always)]
fn sweep_body(sweep: &Sweep<'_>, sink: &mut impl SweptSink) {
    let &Sweep {
        words,
        summary,
        query_words,
        stride,
        lo,
        hi,
        min,
        candidates,
    } = sweep;
    let mut counts = [0u32; 64];
    let mut next_candidate = 0;
    let blocks = lo / SWEEP_BLOCK..hi.div_ceil(SWEEP_BLOCK);
    for group in blocks.clone().step_by(64) {
        let group_end = (group + 64).min(blocks.end);
        let summaries = &summary[group * stride..group_end * stride];
        let mut reach = hit_mask(summaries, query_words, stride, min, &mut counts);
        while reach != 0 {
            let block = group + reach.trailing_zeros() as usize;
            reach &= reach - 1;
            let start = lo.max(block * SWEEP_BLOCK);
            let end = hi.min((block + 1) * SWEEP_BLOCK);
            let records = &words[(start - lo) * stride..(end - lo) * stride];
            let mut mask = hit_mask(records, query_words, stride, min, &mut counts);
            if mask == 0 {
                continue;
            }
            while let Some(&slot) = candidates.get(next_candidate) {
                let slot = slot as usize;
                if slot >= end {
                    break;
                }
                if slot >= start {
                    mask &= !(1u64 << (slot - start));
                }
                next_candidate += 1;
            }
            while mask != 0 {
                let j = mask.trailing_zeros() as usize;
                sink.take((start + j) as u32, counts[j]);
                mask &= mask - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferLayout;
    use crate::dataset::Record;
    use crate::gkmv::{GKmvSketch, GlobalThreshold};
    use crate::hash::Hasher64;

    /// A store of 300 records over a buffer of `buffered` elements
    /// (`0..buffered`), and a query buffer over every other buffered
    /// element. Record `i` holds a pseudo-random share `(i % 11) / 10` of
    /// the buffered elements, so buffered overlaps spread from none to the
    /// whole query, plus two unbuffered elements.
    fn store_and_query(buffered: u32) -> (SketchStore, Vec<u64>) {
        let layout = BufferLayout::new((0..buffered).collect());
        let hasher = Hasher64::new(5);
        let sketch = |elements: Vec<u32>| {
            let record = Record::new(elements);
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
        };
        let mix = |e: u32, i: u32| {
            (e.wrapping_mul(0x9E37_79B9) ^ i.wrapping_mul(0x85EB_CA6B)).wrapping_mul(0xC2B2_AE35)
                >> 16
        };
        let sketches: Vec<GbKmvRecordSketch> = (0..300u32)
            .map(|i| {
                let mut v: Vec<u32> = (0..buffered).filter(|&e| mix(e, i) % 10 < i % 11).collect();
                v.extend([1_000 + i, 2_000 + i % 3]);
                sketch(v)
            })
            .collect();
        let store = SketchStore::from_sketches(layout.words(), &sketches);
        let query = sketch((0..buffered).step_by(2).collect());
        (store, query.buffer.words().to_vec())
    }

    /// Records every slot a sweep emits, with its buffered overlap.
    impl SweptSink for Vec<(u32, u32)> {
        fn take(&mut self, slot: u32, buffered: u32) {
            self.push((slot, buffered));
        }
    }

    /// Runs `sweep` over strides 1, 2 and 3, slot ranges that start and end
    /// inside 64-slot blocks, span them, or are empty, and every `b_min`
    /// from 1 to `B_q + 1` plus some past 64, with slots 6 and 130 as the
    /// signature candidates. The emitted slots must be, in ascending order,
    /// the range's slots outside the candidates whose buffered overlap
    /// reaches `b_min`, each with that overlap. A sweep over a summary of
    /// all ones, which never skips a block, must emit the same; the grid
    /// must reach blocks the real summary skips.
    fn check_sweep(tier: &str, sweep: impl Fn(&Sweep<'_>, &mut Vec<(u32, u32)>)) {
        let (mut emitted_past_64, mut skippable) = (false, false);
        for (buffered, stride) in [(40u32, 1usize), (64, 1), (100, 2), (190, 3)] {
            let (store, query) = store_and_query(buffered);
            assert_eq!(store.words_per_record(), stride);
            let b_q: usize = query.iter().map(|w| w.count_ones() as usize).sum();
            let n = store.len();
            let no_skip = vec![u64::MAX; store.block_summary().len()];
            let ranges = [
                (0, n),
                (5, n),
                (7, 23),
                (1, 64),
                (63, 65),
                (64, 128),
                (70, 200),
                (0, 256),
                (250, n),
                (100, 100),
                (n, n),
            ];
            for (lo, hi) in ranges {
                for b_min in (1..=b_q + 1).chain([65, 96, usize::MAX]) {
                    let label = format!("{tier}: stride {stride}, slots {lo}..{hi}, b_min {b_min}");
                    let expected: Vec<(u32, u32)> = (lo..hi)
                        .filter(|&s| s != 6 && s != 130)
                        .map(|s| (s as u32, store.buffer_intersection_count(&query, s) as u32))
                        .filter(|&(_, count)| count as usize >= b_min)
                        .collect();
                    emitted_past_64 |= b_min > 64 && !expected.is_empty();
                    skippable |= (lo / 64..hi.div_ceil(64)).any(|block| {
                        let summary = &store.block_summary()[block * stride..(block + 1) * stride];
                        (overlap(summary, &query) as usize) < b_min
                    });
                    let mut sweep_in =
                        Sweep::new(&store, &query, lo, hi, b_min, &[6, 130]).expect("stride > 0");
                    let mut emitted = Vec::new();
                    sweep(&sweep_in, &mut emitted);
                    assert_eq!(emitted, expected, "{label}");
                    sweep_in.summary = &no_skip;
                    let mut unskipped = Vec::new();
                    sweep(&sweep_in, &mut unskipped);
                    assert_eq!(unskipped, expected, "{label}: without skipping");
                }
            }
        }
        assert!(emitted_past_64, "{tier}: no b_min above 64 emitted a slot");
        assert!(skippable, "{tier}: no block could be skipped");
    }

    #[test]
    fn sweep_mints_exactly_the_slots_reaching_the_threshold() {
        check_sweep("detected tier", |sweep, sink| {
            sweep.run(SweepTier::detect(), sink)
        });
    }

    #[test]
    fn every_supported_sweep_tier_mints_the_same_candidates() {
        let tiers: Vec<SweepTier> = SweepTier::FASTEST_FIRST
            .into_iter()
            .filter(|tier| tier.supported())
            .collect();
        println!(
            "sweep tiers run: {tiers:?} (detected: {:?})",
            SweepTier::detect()
        );
        for tier in tiers {
            check_sweep(&format!("{tier:?}"), |sweep, sink| sweep.run(tier, sink));
        }
    }

    #[test]
    fn sweep_over_a_zero_width_buffer_mints_nothing() {
        let (store, query) = store_and_query(0);
        assert_eq!((store.words_per_record(), query.len()), (0, 0));
        let mut emitted: Vec<(u32, u32)> = Vec::new();
        sweep_buffer(&store, &query, 0, store.len(), 1, &[], &mut emitted);
        assert!(emitted.is_empty());
    }
}
