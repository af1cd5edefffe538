//! Property tests of the block-compressed posting subsystem
//! (`gbkmv_core::index::postings`), pinning the packed representation to
//! the raw `Vec<u32>` oracle over adversarial slot distributions: dense
//! consecutive runs (width-0 blocks), single-element lists, maximal
//! `u32` gaps, and everything in between, across block boundaries.
//!
//! Three families of properties:
//!
//! * **round trip** — `encode → decode` is the identity for every
//!   ascending deduplicated slot sequence;
//! * **range walks** — `for_each_in_range` and the chunked
//!   `for_each_chunk_in_range` it wraps visit exactly the input slots of
//!   `lo..hi`, in order, for both formats (the contract the candidates
//!   stage and the prune-stage truncation rely on);
//! * **mutations** — `insert_sorted` and `renumber_from` (the dynamic
//!   insert path) commute with encoding: mutating the packed list equals
//!   mutating the raw oracle and re-encoding.
//!
//! Every family runs over two slot distributions: the general adversarial
//! mix below, and a dense-but-gappy one engineered so the hybrid encoder's
//! per-block size rule actually chooses **bitmap** blocks (mostly gap-1
//! runs broken by occasional gaps of 2–4: enough entries per 128-slot
//! window that the 2-word presence mask beats the packed gap chain). The
//! range-walk oracle is always the sorted input filtered to `lo..hi`,
//! independent of the packed code.

use proptest::collection::vec;
use proptest::prelude::*;

use gbkmv_core::index::postings::{PostingList, BLOCK_LEN};
use gbkmv_core::index::PostingFormat;

/// Adversarial ascending slot sequences: a mix of dense runs (which
/// collapse to width-0 blocks), small gaps, medium gaps and huge jumps —
/// with lengths crossing several block boundaries and values reaching the
/// top of the `u32` range. Each raw code picks the gap class from its low
/// bits and the magnitude from the rest.
fn slots_strategy() -> impl Strategy<Value = Vec<u32>> {
    vec(any::<u32>(), 0..(3 * BLOCK_LEN + 17)).prop_map(|codes| {
        let mut slots = Vec::with_capacity(codes.len());
        let mut cur = (codes.first().copied().unwrap_or(0) % 1_000_000) as u64;
        for code in codes {
            slots.push(cur as u32);
            let magnitude = (code / 4) as u64;
            cur += match code % 4 {
                0 => 1,                                  // dense run
                1 => 1 + magnitude % 7,                  // small gaps
                2 => 1 + magnitude % 10_000,             // medium gaps
                _ => 1_000_000 + magnitude % 50_000_000, // huge jumps
            };
            if cur > u32::MAX as u64 {
                break;
            }
        }
        slots
    })
}

/// Dense-but-gappy ascending sequences: mostly consecutive slots with
/// occasional gaps of 2–4, so many 128-slot windows hold ≥ 66 width-2
/// entries — exactly where the hybrid encoder's size rule flips a block
/// from gap-packed to a 128-bit presence mask.
fn dense_slots_strategy() -> impl Strategy<Value = Vec<u32>> {
    vec(any::<u32>(), 0..(6 * BLOCK_LEN + 13)).prop_map(|codes| {
        let mut slots = Vec::with_capacity(codes.len());
        let mut cur = (codes.first().copied().unwrap_or(0) % 1_000_000) as u64;
        for code in codes {
            slots.push(cur as u32);
            cur += match code % 8 {
                0..=5 => 1,              // dense run
                6 => 2,                  // small hole
                _ => 2 + (code / 8) % 3, // gap of 2..=4
            } as u64;
        }
        slots
    })
}

fn decode_range(list: &PostingList, lo: usize, hi: usize) -> Vec<u32> {
    let mut out = Vec::new();
    let mut buf = Vec::new();
    list.for_each_in_range(lo, hi, &mut buf, |slot| out.push(slot));
    out
}

/// The range-walk oracle: the sorted input slots inside `lo..hi`.
fn expected_range(slots: &[u32], lo: usize, hi: usize) -> Vec<u32> {
    slots
        .iter()
        .copied()
        .filter(|&s| (s as usize) >= lo && (s as usize) < hi)
        .collect()
}

fn decode_chunked_range(list: &PostingList, lo: usize, hi: usize) -> Vec<u32> {
    let mut out = Vec::new();
    let mut buf = Vec::new();
    list.for_each_chunk_in_range(lo, hi, &mut buf, |chunk| {
        chunk.for_each_slot(|slot| out.push(slot))
    });
    out
}

/// Exact byte cost of the pre-hybrid format: fixed 128-entry chunks, every
/// block gap-packed at its own width (⌊64/width⌋ lanes per word), 12-byte
/// metadata per block. The independent yardstick the hybrid memory bound
/// is measured against.
fn gap_only_bytes(slots: &[u32]) -> usize {
    let mut words = 0usize;
    let mut blocks = 0usize;
    for chunk in slots.chunks(BLOCK_LEN) {
        blocks += 1;
        let width = chunk
            .windows(2)
            .map(|w| 32 - (w[1] - w[0] - 1).leading_zeros())
            .max()
            .unwrap_or(0) as usize;
        if let Some(per_word) = 64usize.checked_div(width) {
            words += (chunk.len() - 1).div_ceil(per_word);
        }
    }
    8 * words + 12 * blocks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn packed_round_trips_to_identity(slots in slots_strategy()) {
        let packed = PostingList::from_sorted(PostingFormat::Packed, slots.clone());
        prop_assert_eq!(packed.to_vec(), slots.clone(), "encode→decode is not the identity");
        prop_assert_eq!(packed.len(), slots.len());
        let raw = PostingList::from_sorted(PostingFormat::Raw, slots.clone());
        prop_assert_eq!(raw.to_vec(), slots, "the raw oracle must be transparent");
    }

    #[test]
    fn range_walks_agree_with_the_raw_oracle(
        slots in slots_strategy(),
        lo_pick in 0usize..1_000,
        span_pick in 0usize..1_000,
    ) {
        let raw = PostingList::from_sorted(PostingFormat::Raw, slots.clone());
        let packed = PostingList::from_sorted(PostingFormat::Packed, slots.clone());
        let max = slots.last().copied().unwrap_or(0) as usize;
        // Ranges anchored around the actual slot values, plus degenerate
        // and unbounded ones.
        let lo = lo_pick * (max + 2) / 1_000;
        let hi = lo + span_pick * (max + 2 - lo.min(max + 1)) / 1_000;
        for (lo, hi) in [(lo, hi), (0, max + 1), (0, usize::MAX), (max, max), (lo, lo)] {
            let expected = expected_range(&slots, lo, hi);
            prop_assert_eq!(
                decode_range(&raw, lo, hi),
                expected.clone(),
                "raw walk broke on {}..{}", lo, hi
            );
            prop_assert_eq!(
                decode_range(&packed, lo, hi),
                expected,
                "packed walk broke on {}..{}", lo, hi
            );
        }
    }

    #[test]
    fn insert_and_renumber_commute_with_encoding(
        slots in slots_strategy(),
        splice_pick in 0usize..1_000,
    ) {
        // Model the exact mutation sequence of a dynamic index insert:
        // renumber everything at or above the splice slot, then splice the
        // (now free) slot in. The packed list must track the raw oracle.
        let max = slots.last().copied().unwrap_or(0);
        let slot = (splice_pick as u64 * (max as u64 + 2) / 1_000) as u32;
        let mut raw = PostingList::from_sorted(PostingFormat::Raw, slots.clone());
        let mut packed = PostingList::from_sorted(PostingFormat::Packed, slots);
        raw.renumber_from(slot);
        packed.renumber_from(slot);
        prop_assert_eq!(raw.to_vec(), packed.to_vec(), "renumber_from({}) diverged", slot);
        raw.insert_sorted(slot);
        packed.insert_sorted(slot);
        prop_assert_eq!(raw.to_vec(), packed.to_vec(), "insert_sorted({}) diverged", slot);
        prop_assert_eq!(raw.len(), packed.len());
        // The grown packed list must also be *structurally* equal (derived
        // PartialEq, not just decoded contents) to a fresh encoding of the
        // grown raw list — incremental growth leaves no layout drift and
        // no stale inline metadata.
        let reencoded = PostingList::from_sorted(PostingFormat::Packed, raw.to_vec());
        prop_assert_eq!(&packed, &reencoded, "incremental growth drifted from a fresh encoding");
    }

    #[test]
    fn packed_never_outweighs_raw_beyond_per_block_slack(slots in slots_strategy()) {
        // Memory sanity: even on adversarial all-huge-gap lists (where the
        // deltas are as wide as the slots themselves and compression cannot
        // win), a packed list costs at most the raw bytes plus bounded
        // per-block slack — block metadata (12 B) and the tail padding of
        // the non-straddling word layout (≤ 8 B per block) — so the packed
        // default can never blow up memory on a pathological distribution.
        let raw = PostingList::from_sorted(PostingFormat::Raw, slots.clone());
        let packed = PostingList::from_sorted(PostingFormat::Packed, slots.clone());
        let slack = 24 * slots.len().div_ceil(BLOCK_LEN) + 16;
        prop_assert!(
            packed.heap_bytes() <= raw.heap_bytes() + slack,
            "packed {} bytes vs raw {} (+{} slack) on {} slots",
            packed.heap_bytes(), raw.heap_bytes(), slack, slots.len()
        );
        if slots.len() <= 1 {
            prop_assert_eq!(packed.heap_bytes(), 0, "tiny lists must be inline");
        }
    }

    #[test]
    fn hybrid_round_trips_and_walks_on_dense_shapes(
        slots in dense_slots_strategy(),
        lo_pick in 0usize..1_000,
        span_pick in 0usize..1_000,
    ) {
        // The dense strategy is where bitmap blocks actually appear; the
        // encode→decode identity and the range-walk agreement must hold
        // across mixed gap/bitmap block sequences exactly as on the
        // general mix.
        let raw = PostingList::from_sorted(PostingFormat::Raw, slots.clone());
        let packed = PostingList::from_sorted(PostingFormat::Packed, slots.clone());
        prop_assert_eq!(packed.to_vec(), slots.clone(), "hybrid encode→decode is not the identity");
        let max = slots.last().copied().unwrap_or(0) as usize;
        let lo = lo_pick * (max + 2) / 1_000;
        let hi = lo + span_pick * (max + 2 - lo.min(max + 1)) / 1_000;
        for (lo, hi) in [(lo, hi), (0, max + 1), (0, usize::MAX), (lo, lo)] {
            let expected = expected_range(&slots, lo, hi);
            prop_assert_eq!(
                decode_range(&raw, lo, hi),
                expected.clone(),
                "raw walk broke on {}..{}", lo, hi
            );
            prop_assert_eq!(
                decode_range(&packed, lo, hi),
                expected,
                "hybrid walk broke on {}..{}", lo, hi
            );
        }
    }

    #[test]
    fn chunked_walk_matches_the_range_filtered_input(
        general in slots_strategy(),
        dense in dense_slots_strategy(),
        lo_pick in 0usize..1_000,
        span_pick in 0usize..1_000,
    ) {
        // The candidates stage consumes `for_each_chunk_in_range`; its
        // chunks must concatenate to exactly the input slots of the range,
        // for both formats and every range.
        for slots in [general, dense] {
            let max = slots.last().copied().unwrap_or(0) as usize;
            let lo = lo_pick * (max + 2) / 1_000;
            let hi = lo + span_pick * (max + 2 - lo.min(max + 1)) / 1_000;
            for format in [PostingFormat::Raw, PostingFormat::Packed] {
                let list = PostingList::from_sorted(format, slots.clone());
                for (lo, hi) in [(lo, hi), (0, max + 1), (0, usize::MAX), (lo, lo)] {
                    prop_assert_eq!(
                        decode_chunked_range(&list, lo, hi),
                        expected_range(&slots, lo, hi),
                        "chunked walk diverged on {}..{} ({:?})", lo, hi, format
                    );
                }
            }
        }
    }

    #[test]
    fn hybrid_mutations_commute_with_encoding_on_dense_shapes(
        slots in dense_slots_strategy(),
        splice_pick in 0usize..1_000,
    ) {
        // The dynamic-insert mutation sequence over lists with bitmap
        // blocks: renumber + splice must track the raw oracle *and* leave
        // the packed list structurally identical to a fresh encoding — the
        // re-chunking after a mutation lands on the very same gap/bitmap
        // block decisions as a bulk build.
        let max = slots.last().copied().unwrap_or(0);
        let slot = (splice_pick as u64 * (max as u64 + 2) / 1_000) as u32;
        let mut raw = PostingList::from_sorted(PostingFormat::Raw, slots.clone());
        let mut packed = PostingList::from_sorted(PostingFormat::Packed, slots);
        raw.renumber_from(slot);
        packed.renumber_from(slot);
        prop_assert_eq!(raw.to_vec(), packed.to_vec(), "renumber_from({}) diverged", slot);
        let renumbered = PostingList::from_sorted(PostingFormat::Packed, raw.to_vec());
        prop_assert_eq!(&packed, &renumbered, "renumber drifted from a fresh encoding");
        raw.insert_sorted(slot);
        packed.insert_sorted(slot);
        prop_assert_eq!(raw.to_vec(), packed.to_vec(), "insert_sorted({}) diverged", slot);
        let reencoded = PostingList::from_sorted(PostingFormat::Packed, raw.to_vec());
        prop_assert_eq!(&packed, &reencoded, "incremental growth drifted from a fresh encoding");
    }

    #[test]
    fn hybrid_never_outweighs_the_gap_only_encoding(slots in dense_slots_strategy()) {
        // The hybrid memory bound: a bitmap block is chosen *only* when the
        // same entries gap-encoded would cost more than the 2-word mask, so
        // the hybrid list must not exceed the pre-hybrid fixed-chunk
        // gap-only encoding beyond bounded per-block slack (block metadata
        // for the extra blocks adaptive chunking can produce — a bitmap
        // block consumes its 128-slot window rather than 128 entries — and
        // one word of boundary drift per block), plus the one 16-byte mask
        // of a trailing partial block.
        let packed = PostingList::from_sorted(PostingFormat::Packed, slots.clone());
        let budget = gap_only_bytes(&slots) + 40 * slots.len().div_ceil(BLOCK_LEN) + 32;
        prop_assert!(
            packed.heap_bytes() <= budget,
            "hybrid {} bytes vs gap-only budget {} on {} slots",
            packed.heap_bytes(), budget, slots.len()
        );
    }
}
