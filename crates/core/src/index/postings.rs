//! Inverted posting lists: the storage substrate of the inverted index.
//!
//! Every posting list of the query engine is a strictly ascending sequence
//! of **slot** numbers (see [`crate::store::SketchStore`] for the slot
//! order), stored as one plain `u32` arena: owned when built, borrowed
//! zero-copy when loaded from an arena file. The candidates stage cuts a
//! list to the live prefix `0..hi` it walks with [`PostingList::prefix`] —
//! one binary search at most, none for a list whose last slot is already
//! below `hi` — and consumes the sub-slice in place.
//!
//! There is one format. Earlier builds also offered block-compressed
//! gap/bitmap lists behind a configuration knob; on the shipped engine
//! (cost-model buffer) the postings are under 1% of the index, the
//! compressed format saved about 0.9% of it and was never faster, so it was
//! deleted. Arena images that store compressed lists still open:
//! [`crate::persist`] decodes them into plain lists at load.
//!
//! # Dynamic maintenance
//!
//! Posting lists mutate on [`crate::index::GbKmvIndex::insert`] in two
//! ways: [`PostingList::renumber_from`] shifts the suffix of slots at or
//! past a store splice point up by one, and [`PostingList::insert_sorted`]
//! splices the new record's slot in (an append in the common case, see the
//! fast path in [`crate::index::sharded`]). A list whose slots all lie
//! below the splice point is left untouched, so a list borrowed from a
//! loaded file stays borrowed.

use crate::arena::ArenaVec;
use crate::mem::MemUsage;

/// One inverted posting list: an ascending, deduplicated sequence of slot
/// numbers. See the module docs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PostingList {
    slots: ArenaVec<u32>,
}

impl PostingList {
    /// Builds a list from an ascending, deduplicated slot vector, keeping
    /// the vector (and its capacity) as-is.
    pub fn from_sorted(slots: Vec<u32>) -> Self {
        debug_assert!(slots.windows(2).all(|w| w[0] < w[1]));
        PostingList {
            slots: slots.into(),
        }
    }

    /// Wraps a slot arena, typically borrowed from a loaded arena file,
    /// whose ascending order the caller has checked (persistence).
    pub(crate) fn from_arena(slots: ArenaVec<u32>) -> Self {
        PostingList { slots }
    }

    /// Number of stored slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the list holds no slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Every stored slot, ascending.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.slots
    }

    /// The stored slots below `hi`, ascending: the prefix the candidates
    /// stage walks, `hi` being the prune stage's cutoff.
    #[inline]
    pub fn prefix(&self, hi: usize) -> &[u32] {
        let slots = self.slots.as_slice();
        match slots.last() {
            // Only search for the cutoff when the list actually extends
            // past it; otherwise (a low threshold, or top-k) the whole list
            // survives search-free.
            Some(&last) if (last as usize) >= hi => {
                &slots[..slots.partition_point(|&slot| (slot as usize) < hi)]
            }
            _ => slots,
        }
    }

    /// Adds one to every stored slot ≥ `slot` (the posting half of a store
    /// splice: every store slot at or above the insertion point was
    /// renumbered up by one).
    pub fn renumber_from(&mut self, slot: u32) {
        let at = self.slots.partition_point(|&s| s < slot);
        if at < self.slots.len() {
            for s in &mut self.slots.to_mut()[at..] {
                *s += 1;
            }
        }
    }

    /// Splices `slot` into sorted position. The slot must not already be
    /// present (posting lists are deduplicated by construction: a record
    /// contributes each hash at most once).
    pub fn insert_sorted(&mut self, slot: u32) {
        let at = self.slots.partition_point(|&s| s < slot);
        self.slots.to_mut().insert(at, slot);
    }

    /// Heap bytes held by the list (its `Vec` capacity, i.e. what the
    /// allocator handed out, not just the live length). A list borrowed
    /// from a loaded file counts zero.
    pub fn heap_bytes(&self) -> usize {
        self.slots.owned_capacity_bytes()
    }

    /// Accumulates this list's content bytes, and its borrowed-from-file
    /// subset, into `usage`.
    pub(crate) fn mem_contrib(&self, usage: &mut MemUsage) {
        usage.postings_raw_bytes += std::mem::size_of_val(self.slots.as_slice());
        usage.borrowed_bytes += self.slots.borrowed_bytes();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list(slots: &[u32]) -> PostingList {
        PostingList::from_sorted(slots.to_vec())
    }

    #[test]
    fn round_trips_representative_shapes() {
        let shapes: [&[u32]; 6] = [
            &[],
            &[0],
            &[u32::MAX],
            &[0, 1, 2, 3, 4, 5, 6, 7],
            &[0, u32::MAX],
            &[3, 9, 10, 11, 500, 501, 70_000],
        ];
        for slots in shapes {
            let list = list(slots);
            assert_eq!(list.as_slice(), slots);
            assert_eq!(list.len(), slots.len());
            assert_eq!(list.is_empty(), slots.is_empty());
        }
    }

    #[test]
    fn in_range_truncates_by_slot_number() {
        let list = list(&[0, 2, 5, 9]);
        assert_eq!(list.prefix(6), &[0, 2, 5]);
        assert_eq!(list.prefix(10), &[0, 2, 5, 9]);
        assert_eq!(list.prefix(0), &[] as &[u32]);
        assert_eq!(list.prefix(usize::MAX), &[0, 2, 5, 9]);
        assert_eq!(list.prefix(9), &[0, 2, 5]);
        assert_eq!(list.prefix(1), &[0]);
        assert_eq!(PostingList::default().prefix(3), &[] as &[u32]);
    }

    #[test]
    fn renumber_matches_raw_oracle() {
        let slots: Vec<u32> = (0..300u32).map(|i| i * 2).collect();
        for boundary in [0u32, 1, 5, 127, 128, 256, 598, 599, 10_000] {
            let mut grown = list(&slots);
            grown.renumber_from(boundary);
            let expected: Vec<u32> = slots
                .iter()
                .map(|&s| if s >= boundary { s + 1 } else { s })
                .collect();
            assert_eq!(grown.as_slice(), expected, "boundary {boundary}");
        }
    }

    #[test]
    fn renumber_below_every_slot_leaves_a_borrowed_list_borrowed() {
        let leaked: &'static [u32] = Box::leak(vec![1u32, 4, 6].into_boxed_slice());
        let mut borrowed = PostingList::from_arena(ArenaVec::Borrowed(leaked));
        borrowed.renumber_from(7);
        assert!(borrowed.slots.is_borrowed());
        borrowed.renumber_from(4);
        assert_eq!(borrowed.as_slice(), &[1, 5, 7]);
        assert!(!borrowed.slots.is_borrowed());
    }

    #[test]
    fn insert_matches_raw_oracle_everywhere() {
        let base: Vec<u32> = (0..260u32).map(|i| i * 4 + 2).collect();
        // Head, interior and append positions (none of these values is in
        // `base`, which holds `4i + 2`).
        for slot in [0u32, 3, 500, 511, 1037, 1039, 2_000] {
            let mut grown = list(&base);
            grown.insert_sorted(slot);
            let mut expected = base.clone();
            expected.push(slot);
            expected.sort_unstable();
            assert_eq!(grown.as_slice(), expected, "insert {slot}");
        }
        let mut empty = PostingList::default();
        empty.insert_sorted(9);
        assert_eq!(empty.as_slice(), &[9]);
    }
}
