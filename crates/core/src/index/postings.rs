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
//! # Growing
//!
//! A list is never edited once built. Growing an index merges the tail
//! shard's store with the new records, which renumbers that shard's slots,
//! and then builds every posting list of the grown shard afresh from the
//! merged store, with the same code as a bulk build (see
//! [`crate::index::sharded`]). The lists of every other shard, owned or
//! borrowed from a loaded file, are shared untouched.

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
}
