//! Property tests of the posting lists (`gbkmv_core::index::postings`)
//! against a `Vec<u32>` model, over adversarial ascending slot sequences:
//! dense consecutive runs, single-element lists, gaps up to the top of the
//! `u32` range, and everything in between.
//!
//! **Prefix cuts:** `PostingList::prefix(hi)` is exactly the model's slots
//! below `hi`, in order, for every cutoff, including those past, at or just
//! above the last slot (the search-free cut); this is the contract the
//! candidates stage and the prune-stage truncation rely on.
//!
//! Lists are never edited once built: growing an index rebuilds the grown
//! shard's lists from its merged store (see `gbkmv_core::index::sharded`).

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

/// The model's prefix cut: the sorted input slots below `hi`.
fn expected_prefix(slots: &[u32], hi: usize) -> Vec<u32> {
    slots
        .iter()
        .copied()
        .filter(|&s| (s as usize) < hi)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn range_walks_agree_with_the_raw_oracle(
        slots in slots_strategy(),
        hi_pick in 0usize..1_000,
    ) {
        let list = PostingList::from_sorted(slots.clone());
        prop_assert_eq!(list.as_slice(), &slots[..]);
        prop_assert_eq!(list.len(), slots.len());
        let max = slots.last().copied().unwrap_or(0) as usize;
        // Cutoffs anchored around the actual slot values, plus empty and
        // unbounded ones.
        let hi = hi_pick * (max + 2) / 1_000;
        for hi in [hi, 0, max, max + 1, usize::MAX] {
            prop_assert_eq!(
                list.prefix(hi),
                &expected_prefix(&slots, hi)[..],
                "prefix cut broke below {}", hi
            );
        }
    }

    #[test]
    fn range_fast_paths_match_the_vec_model(
        slots in slots_strategy(),
        pick in 0usize..1_000,
    ) {
        // A cutoff past the last slot skips the search. Cut at, just above
        // and just below that boundary, and at a slot of the list.
        let list = PostingList::from_sorted(slots.clone());
        let Some(&last) = slots.last() else {
            prop_assert_eq!(list.prefix(usize::MAX), &[] as &[u32]);
            return Ok(());
        };
        let last = last as usize;
        let at = slots[pick % slots.len()] as usize;
        for hi in [last.saturating_sub(1), last, last + 1, last + 2, usize::MAX, at, at + 1] {
            prop_assert_eq!(
                list.prefix(hi),
                &expected_prefix(&slots, hi)[..],
                "prefix cut broke below {}", hi
            );
        }
    }
}
