//! Property tests of the posting lists (`gbkmv_core::index::postings`)
//! against a `Vec<u32>` model, over adversarial ascending slot sequences:
//! dense consecutive runs, single-element lists, gaps up to the top of the
//! `u32` range, and everything in between.
//!
//! * **range cuts** — `PostingList::range(lo, hi)` is exactly the model's
//!   slots inside `lo..hi`, in order, for every range, including the
//!   `lo == 0` fast path and the ranges whose `hi` lies past, at or just
//!   above the last slot (the search-free cut); this is the contract the
//!   candidates stage and the prune-stage truncation rely on;
//! * **mutations** — `renumber_from` then `insert_sorted` (the dynamic
//!   insert path) leave the list equal to the same edit of the model.

use proptest::collection::vec;
use proptest::prelude::*;

use gbkmv_core::index::postings::PostingList;

/// Adversarial ascending slot sequences: a mix of dense runs, small gaps,
/// medium gaps and huge jumps, with values reaching the top of the `u32`
/// range. Each raw code picks the gap class from its low bits and the
/// magnitude from the rest.
fn slots_strategy() -> impl Strategy<Value = Vec<u32>> {
    vec(any::<u32>(), 0..400).prop_map(|codes| {
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
            if cur >= u32::MAX as u64 {
                break;
            }
        }
        slots
    })
}

/// The model's range cut: the sorted input slots inside `lo..hi`.
fn expected_range(slots: &[u32], lo: usize, hi: usize) -> Vec<u32> {
    slots
        .iter()
        .copied()
        .filter(|&s| (s as usize) >= lo && (s as usize) < hi)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn range_walks_agree_with_the_raw_oracle(
        slots in slots_strategy(),
        lo_pick in 0usize..1_000,
        span_pick in 0usize..1_000,
    ) {
        let list = PostingList::from_sorted(slots.clone());
        prop_assert_eq!(list.as_slice(), &slots[..]);
        prop_assert_eq!(list.len(), slots.len());
        let max = slots.last().copied().unwrap_or(0) as usize;
        // Ranges anchored around the actual slot values, plus degenerate
        // and unbounded ones.
        let lo = lo_pick * (max + 2) / 1_000;
        let hi = lo + span_pick * (max + 2 - lo.min(max + 1)) / 1_000;
        for (lo, hi) in [(lo, hi), (0, max + 1), (0, usize::MAX), (max, max), (lo, lo), (hi, lo)] {
            prop_assert_eq!(
                list.range(lo, hi),
                &expected_range(&slots, lo, hi)[..],
                "range cut broke on {}..{}", lo, hi
            );
        }
    }

    #[test]
    fn range_fast_paths_match_the_vec_model(
        slots in slots_strategy(),
        pick in 0usize..1_000,
    ) {
        // `lo == 0` skips the lower search; a `hi` past the last slot skips
        // the upper one. Cut at, just above and just below every boundary
        // of both fast paths, from a slot of the list and from zero.
        let list = PostingList::from_sorted(slots.clone());
        let Some(&last) = slots.last() else {
            prop_assert_eq!(list.range(0, usize::MAX), &[] as &[u32]);
            return Ok(());
        };
        let last = last as usize;
        let at = slots[pick % slots.len()] as usize;
        for lo in [0, at, at + 1, last, last + 1] {
            for hi in [last.saturating_sub(1), last, last + 1, last + 2, usize::MAX, at, at + 1] {
                prop_assert_eq!(
                    list.range(lo, hi),
                    &expected_range(&slots, lo, hi)[..],
                    "range cut broke on {}..{}", lo, hi
                );
            }
        }
    }

    #[test]
    fn insert_and_renumber_commute_with_encoding(
        slots in slots_strategy(),
        splice_pick in 0usize..1_000,
    ) {
        // The exact mutation sequence of a dynamic index insert: renumber
        // everything at or above the splice slot, then splice the (now
        // free) slot in. Mutating the list must equal building it from the
        // mutated model.
        let max = slots.last().copied().unwrap_or(0);
        let slot = (splice_pick as u64 * (max as u64 + 1) / 1_000) as u32;
        let mut list = PostingList::from_sorted(slots.clone());
        let mut model = slots;
        list.renumber_from(slot);
        for s in model.iter_mut().filter(|s| **s >= slot) {
            *s += 1;
        }
        prop_assert_eq!(list.as_slice(), &model[..], "renumber_from({}) diverged", slot);
        list.insert_sorted(slot);
        let at = model.partition_point(|&s| s < slot);
        model.insert(at, slot);
        prop_assert_eq!(list.as_slice(), &model[..], "insert_sorted({}) diverged", slot);
        prop_assert_eq!(&list, &PostingList::from_sorted(model), "grown list differs from a fresh build");
    }
}
