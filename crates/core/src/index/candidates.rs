//! **Candidates** stage of the query pipeline: posting traversal plus
//! signature accumulation, with prefix-filtered minting.
//!
//! Given a query sketch and one [`Shard`], the stage walks the query's
//! signature-hash postings (accumulating `K∩` per touched slot) and mints
//! its buffered candidates by a popcount sweep over the store's buffer
//! words, into a [`QueryScratch`].
//! Each posting list is truncated to the stage's slot range *before*
//! traversal — the prune stage's live-prefix cutoff, and in the intra-query
//! parallel path additionally the worker's slot sub-range — and the sweep
//! reads exactly that range, so a candidate outside the range is never
//! touched, let alone finished.
//! Truncation goes through the posting layer's batched walk,
//! [`PostingList::for_each_chunk_in_range`](crate::index::postings::PostingList::for_each_chunk_in_range):
//! each surviving block arrives as one ascending [`PostingChunk`] — a
//! decoded slot run (4-lane unrolled gap prefix sum, or a copy-free slice
//! cut on the raw format) consumed by the scratch's batched slice methods,
//! or an undecoded bitmap mask consumed by the mask-form methods — notably
//! the branch-free lookup-only passes
//! ([`QueryScratch::add_signature_hits_if_candidate`] and its mask form's
//! linear window sweep).
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
//! 2. the buffer pass mints the buffered candidates, and none when
//!    `b_min > B_q` (`buffer_mint`): a record no minting hash reached
//!    qualifies only with an exact buffered overlap of at least `b_min`
//!    (the joint bound of [`crate::index::prune`]). The **popcount sweep**
//!    (`sweep_buffer`) reads the range's fixed-stride buffer words in one
//!    pass and mints only the slots whose overlap
//!    `popcount(record_words & query_words)` reaches `b_min`, so no record
//!    the bound rules out reaches the finish; at `b_min = 1` that is every
//!    slot sharing a buffered element with the query. Its kernel
//!    (`sweep_body`) builds a branch-free 64-slot hit mask per chunk of
//!    records, then mints the mask's set bits in ascending order and hands
//!    the scratch each newly minted slot's overlap, which the finish stage
//!    then reuses. The kernel is compiled for AVX-512 (with VPOPCNTDQ), for
//!    AVX2 and as portable code, and each sweep runs the fastest one the
//!    host supports (`SweepTier`, chosen at run time by feature
//!    detection),
//! 3. the remaining frequent hashes accumulate **lookup-only**: they score
//!    candidates already minted but never insert — which is where the
//!    filter wins, because the frequent hashes own the longest posting
//!    lists and minting from them dominates the unfiltered walk.
//!
//! The per-slot results are independent of the pass structure: `K∩` counts
//! every query hash shared with the slot either way, so surviving
//! candidates score bit-identically to the unfiltered walk; the bounds
//! guarantee the skipped ones could never qualify. The unfiltered walk
//! (every hash mints) cuts its buffer pass by the same `b_min`, with
//! `S_max = 0`; top-k passes `b_min = 1` and sweeps for every slot sharing
//! a buffered element.
//!
//! [`SketchStore`]: crate::store::SketchStore

use crate::buffer::ElementBuffer;
use crate::gbkmv::GbKmvRecordSketch;
use crate::index::postings::{PostingChunk, PostingList};
use crate::index::prune::Minting;
use crate::index::sharded::Shard;
use crate::scratch::QueryScratch;
use crate::store::SketchStore;

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

/// Walks the query's signature postings and sweeps its buffer over the
/// slot range `lo..hi` of one shard, accumulating into `scratch` (begins a
/// fresh epoch for the shard). `hi` is the prune stage's cutoff (pass
/// `shard.len()` to disable pruning — the top-k path, which ranks every
/// candidate); `lo` is non-zero only for the intra-query parallel workers,
/// which partition the live range. `minting` holds the prune stage's
/// bounds: how many df-ordered signature hashes may mint new candidates,
/// and the buffer sweep's `b_min`; pass [`Minting::all`] to disable both
/// filters.
pub(crate) fn accumulate(
    shard: &Shard,
    view: &QuerySketchView<'_>,
    lo: usize,
    hi: usize,
    minting: Minting,
    scratch: &mut QueryScratch,
) {
    scratch.begin(shard.len());
    if minting.hashes >= view.hashes.len() {
        walk_unfiltered(shard, view, lo, hi, minting.b_min, scratch);
        return;
    }
    // The ordering buffer lives in the scratch and is only moved out while
    // borrowed alongside it.
    let mut order = std::mem::take(&mut scratch.hash_order);
    df_order(shard.store(), view, &mut order);
    walk_prefixed(shard, view, lo, hi, minting, &order, scratch);
    scratch.hash_order = order;
}

/// [`accumulate`] with a caller-provided df-ordering for the shard. The
/// ordering depends only on (query, shard), so the intra-query parallel
/// path computes it once per shard ([`df_order`]) and shares it across the
/// shard's slot-sub-range tasks instead of re-sorting per task.
pub(crate) fn accumulate_ordered(
    shard: &Shard,
    view: &QuerySketchView<'_>,
    lo: usize,
    hi: usize,
    minting: Minting,
    order: &[(u32, u64)],
    scratch: &mut QueryScratch,
) {
    scratch.begin(shard.len());
    if minting.hashes >= view.hashes.len() {
        walk_unfiltered(shard, view, lo, hi, minting.b_min, scratch);
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

/// Minting walk of one signature posting list: every slot in range
/// accumulates and becomes a candidate.
#[inline]
fn mint_signature(
    postings: &PostingList,
    lo: usize,
    hi: usize,
    decode: &mut Vec<u32>,
    scratch: &mut QueryScratch,
) {
    postings.for_each_chunk_in_range(lo, hi, decode, |chunk| match chunk {
        PostingChunk::Slots(slots) => scratch.add_signature_hits(slots),
        PostingChunk::Bitmap { base, words } => scratch.add_signature_hits_mask(base, words),
    });
}

/// The unfiltered walk: every signature hash mints.
fn walk_unfiltered(
    shard: &Shard,
    view: &QuerySketchView<'_>,
    lo: usize,
    hi: usize,
    b_min: usize,
    scratch: &mut QueryScratch,
) {
    let mut decode = std::mem::take(&mut scratch.block_decode);
    for &h in view.hashes {
        if let Some(postings) = shard.signature_postings(h) {
            mint_signature(postings, lo, hi, &mut decode, scratch);
        }
    }
    scratch.block_decode = decode;
    buffer_pass(shard, view, lo, hi, b_min, scratch);
}

/// The prefix-filtered three-pass walk over a df-ordered hash list.
fn walk_prefixed(
    shard: &Shard,
    view: &QuerySketchView<'_>,
    lo: usize,
    hi: usize,
    minting: Minting,
    order: &[(u32, u64)],
    scratch: &mut QueryScratch,
) {
    let mut decode = std::mem::take(&mut scratch.block_decode);
    let (mint, lookup) = order.split_at(minting.hashes);
    for &(_, h) in mint {
        if let Some(postings) = shard.signature_postings(h) {
            mint_signature(postings, lo, hi, &mut decode, scratch);
        }
    }
    // Buffer candidates must be minted BEFORE the lookup-only pass, or a
    // buffer-only candidate would miss its frequent-hash accumulations.
    buffer_pass(shard, view, lo, hi, minting.b_min, scratch);
    // The lookup-only pass owns the longest posting lists, which is where
    // the branch-free batched accumulate pays off.
    for &(_, h) in lookup {
        if let Some(postings) = shard.signature_postings(h) {
            postings.for_each_chunk_in_range(lo, hi, &mut decode, |chunk| match chunk {
                PostingChunk::Slots(slots) => scratch.add_signature_hits_if_candidate(slots),
                PostingChunk::Bitmap { base, words } => {
                    scratch.add_signature_hits_if_candidate_mask(base, words)
                }
            });
        }
    }
    scratch.block_decode = decode;
}

/// How the buffer pass of one query mints its candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BufferMint {
    /// Nothing to mint: the query buffers nothing, or `b_min > B_q`.
    Skip,
    /// Sweep the range's buffer words ([`sweep_buffer`]), minting the slots
    /// whose buffered overlap reaches `b_min` (`1 ≤ b_min ≤ B_q`; `0` sweeps
    /// as `1`).
    Sweep,
}

/// Decides how the buffer pass mints for a query with minimum buffered
/// overlap `b_min` (the joint bound of [`crate::index::prune`]).
///
/// The sweep mints only the records whose exact buffered overlap reaches
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

/// The buffer pass, shared by both signature minting modes: sweeps for
/// the buffered candidates unless [`buffer_mint`] says there is nothing to
/// mint. It accumulates no `K∩`; it records the buffered overlap of each
/// slot it mints, and the finish stage reads every other candidate's as a
/// popcount over the store's fixed-stride words.
#[inline]
fn buffer_pass(
    shard: &Shard,
    view: &QuerySketchView<'_>,
    lo: usize,
    hi: usize,
    b_min: usize,
    scratch: &mut QueryScratch,
) {
    if buffer_mint(view, b_min) == BufferMint::Sweep {
        sweep_buffer(shard.store(), view.buffer_words(), lo, hi, b_min, scratch);
    }
}

/// The popcount sweep: mints every slot of `lo..hi` whose buffered overlap
/// with `query_words`, `popcount(record_words & query_words)`, reaches
/// `b_min` (at least 1), reading the store's buffer words for the range as
/// one contiguous slice. Slots are minted in ascending order, each newly
/// minted one with its buffered overlap recorded in the scratch
/// ([`QueryScratch::swept`]); slots already minted keep their `K∩` and
/// record nothing. A zero-width buffer mints nothing.
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
    scratch: &mut QueryScratch,
) {
    sweep_buffer_in(
        SweepTier::detect(),
        store,
        query_words,
        lo,
        hi,
        b_min,
        scratch,
    );
}

/// The compilations of the sweep body, fastest first. Each SIMD tier is
/// the portable body compiled with more target features, so every tier
/// mints the same slots in the same order.
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

/// [`sweep_buffer`] in the given tier, or in the portable body when the
/// host lacks one of the tier's features.
fn sweep_buffer_in(
    tier: SweepTier,
    store: &SketchStore,
    query_words: &[u64],
    lo: usize,
    hi: usize,
    b_min: usize,
    scratch: &mut QueryScratch,
) {
    scratch.begin_sweep();
    let stride = store.words_per_record();
    if stride == 0 {
        return;
    }
    let sweep = Sweep {
        words: store.buffer_words_range(lo, hi),
        query_words,
        stride,
        lo: lo as u32,
        min: u32::try_from(b_min.max(1)).unwrap_or(u32::MAX),
    };
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard just detected avx512f and avx512vpopcntdq,
        // every feature `run_avx512` is compiled with.
        SweepTier::Avx512 if tier.supported() => unsafe { sweep.run_avx512(scratch) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard just detected avx2 and popcnt, every feature
        // `run_avx2` is compiled with.
        SweepTier::Avx2 if tier.supported() => unsafe { sweep.run_avx2(scratch) },
        _ => sweep_body(&sweep, scratch),
    }
}

/// One sweep's inputs: the range's buffer words, `stride` words per record
/// with the first record in slot `lo`, and the query's words; records
/// whose overlap reaches `min` are minted.
struct Sweep<'a> {
    words: &'a [u64],
    query_words: &'a [u64],
    stride: usize,
    lo: u32,
    min: u32,
}

#[cfg(target_arch = "x86_64")]
impl Sweep<'_> {
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    fn run_avx512(&self, scratch: &mut QueryScratch) {
        sweep_body(self, scratch);
    }

    #[target_feature(enable = "avx2,popcnt")]
    fn run_avx2(&self, scratch: &mut QueryScratch) {
        sweep_body(self, scratch);
    }
}

/// The sweep body, in two phases per 64-slot chunk: build the chunk's hit
/// mask without branches (bit `j` set when the chunk's record `j` reaches
/// `min`), keeping each record's overlap, then mint the mask's set bits in
/// ascending order, handing the scratch the overlap of each slot it newly
/// mints, so the finish stage need not recount it. A per-slot branch on a
/// hit rate of about 5% is one the predictor cannot learn; the mask loop
/// has no branch, so the compiler vectorises it across records.
///
/// One-word strides (buffers of up to 64 elements) get their own loop
/// over fixed 64-word chunks. With the stride a runtime value, the
/// compiler vectorises the per-record sum instead of the loop across
/// records.
#[inline(always)]
fn sweep_body(sweep: &Sweep<'_>, scratch: &mut QueryScratch) {
    let &Sweep {
        words,
        query_words,
        stride,
        lo,
        min,
    } = sweep;
    let mut counts = [0u32; 64];
    if let (1, Some(&q)) = (stride, query_words.first()) {
        let hits = |chunk: &[u64], counts: &mut [u32; 64]| {
            let mut mask = 0u64;
            for (j, (&w, count)) in chunk.iter().zip(counts.iter_mut()).enumerate() {
                *count = (w & q).count_ones();
                mask |= u64::from(*count >= min) << j;
            }
            mask
        };
        let (full, tail) = words.as_chunks::<64>();
        for (chunk, base) in full.iter().zip((lo..).step_by(64)) {
            let mask = hits(chunk, &mut counts);
            scratch.add_swept_word(base, mask, &counts);
        }
        let mask = hits(tail, &mut counts);
        scratch.add_swept_word(lo + 64 * full.len() as u32, mask, &counts);
        return;
    }
    for (chunk, base) in words.chunks(64 * stride).zip((lo..).step_by(64)) {
        let mut mask = 0u64;
        for (j, (record, count)) in chunk
            .chunks_exact(stride)
            .zip(counts.iter_mut())
            .enumerate()
        {
            *count = record
                .iter()
                .zip(query_words)
                .map(|(a, b)| (a & b).count_ones())
                .sum();
            mask |= u64::from(*count >= min) << j;
        }
        scratch.add_swept_word(base, mask, &counts);
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

    /// Runs `sweep` over strides 1, 2 and 3, slot ranges that start and end
    /// inside 64-slot chunks, span them, or are empty, and every `b_min`
    /// from 1 to `B_q + 1` plus some past 64, each after a signature pass
    /// minted slots 6 and 130. The minted list must equal, in order, those
    /// two followed by the range's slots whose buffered overlap reaches
    /// `b_min`, and the sweep must leave every `K∩` as it was.
    fn check_sweep(
        tier: &str,
        sweep: impl Fn(&SketchStore, &[u64], usize, usize, usize, &mut QueryScratch),
    ) {
        let mut minted_past_64 = false;
        for (buffered, stride) in [(40u32, 1usize), (64, 1), (100, 2), (190, 3)] {
            let (store, query) = store_and_query(buffered);
            assert_eq!(store.words_per_record(), stride);
            let b_q: usize = query.iter().map(|w| w.count_ones() as usize).sum();
            let n = store.len();
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
            let mut scratch = QueryScratch::new();
            for (lo, hi) in ranges {
                for b_min in (1..=b_q + 1).chain([65, 96, usize::MAX]) {
                    scratch.begin(n);
                    scratch.add_signature_hits(&[6, 130, 130]);
                    sweep(&store, &query, lo, hi, b_min, &mut scratch);
                    let swept: Vec<u32> = (lo..hi)
                        .filter(|&s| store.buffer_intersection_count(&query, s) >= b_min)
                        .map(|s| s as u32)
                        .collect();
                    minted_past_64 |= b_min > 64 && !swept.is_empty();
                    let expected: Vec<u32> = [6, 130]
                        .into_iter()
                        .chain(swept.into_iter().filter(|&s| s != 6 && s != 130))
                        .collect();
                    let label = format!("{tier}: stride {stride}, slots {lo}..{hi}, b_min {b_min}");
                    assert_eq!(scratch.candidates(), expected, "{label}");
                    // The sweep's own mints are the run after the signature
                    // pass's, each with its buffered overlap, in order.
                    let (swept, counts) = scratch.swept();
                    assert_eq!(swept, &expected[2..], "{label}: swept run");
                    for (&s, &count) in swept.iter().zip(counts) {
                        assert_eq!(
                            count as usize,
                            store.buffer_intersection_count(&query, s as usize),
                            "{label}: recorded overlap of slot {s}"
                        );
                    }
                    assert_eq!(
                        scratch.unswept().concat(),
                        [6, 130],
                        "{label}: unswept candidates"
                    );
                    for &s in &expected {
                        let k = match s {
                            6 => 1,
                            130 => 2,
                            _ => 0,
                        };
                        assert_eq!(scratch.k_intersection(s), k, "{label}: K∩ of slot {s}");
                    }
                }
            }
        }
        assert!(minted_past_64, "{tier}: no b_min above 64 minted a slot");
    }

    #[test]
    fn sweep_mints_exactly_the_slots_reaching_the_threshold() {
        check_sweep("detected tier", sweep_buffer);
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
            check_sweep(
                &format!("{tier:?}"),
                |store, query, lo, hi, b_min, scratch| {
                    sweep_buffer_in(tier, store, query, lo, hi, b_min, scratch)
                },
            );
        }
    }

    #[test]
    fn sweep_over_a_zero_width_buffer_mints_nothing() {
        let (store, query) = store_and_query(0);
        assert_eq!((store.words_per_record(), query.len()), (0, 0));
        let mut scratch = QueryScratch::new();
        scratch.begin(store.len());
        sweep_buffer(&store, &query, 0, store.len(), 1, &mut scratch);
        assert!(scratch.candidates().is_empty());
    }
}
