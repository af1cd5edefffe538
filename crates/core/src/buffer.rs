//! The high-frequency element buffer of GB-KMV.
//!
//! KMV-style sketches treat every element identically: the hash of an element
//! is independent of how often it occurs. The paper's second technique
//! (Section IV-A(3)) exploits frequency skew by tracking the top-`r` most
//! frequent elements `E_H` **exactly**, one bit per element per record.
//! For a record pair the buffered part of the intersection,
//! `|H_Q ∩ H_X|`, is a popcount over the bitwise AND of the two bitmaps;
//! the remaining elements are covered by a G-KMV sketch and the two parts are
//! summed (Equation 27).
//!
//! Space accounting follows the paper: a buffer of `r` bits costs `r/32`
//! "elements" of budget per record (an element being a 32-bit word).
//!
//! [`BufferLayout`] fixes which element occupies which bit position (shared by
//! the whole index); [`ElementBuffer`] is the per-record bitmap.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::dataset::{ElementId, Record};

/// The shared assignment of buffered elements to bit positions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct BufferLayout {
    /// Maps each buffered element to its bit position `0..r`.
    positions: HashMap<ElementId, u32>,
    /// The buffered elements in bit-position order (so position `i` holds
    /// `elements[i]`).
    elements: Vec<ElementId>,
}

impl BufferLayout {
    /// Creates a layout from the buffered element set, assigning bit
    /// positions in the given order (callers pass the elements sorted by
    /// decreasing frequency, so position 0 is the most frequent element).
    pub fn new(elements: Vec<ElementId>) -> Self {
        let positions = elements
            .iter()
            .enumerate()
            .map(|(i, &e)| (e, i as u32))
            .collect();
        BufferLayout {
            positions,
            elements,
        }
    }

    /// An empty layout (buffer disabled; GB-KMV degenerates to G-KMV).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Buffer size `r` in bits (= number of buffered elements).
    #[inline]
    pub fn size(&self) -> usize {
        self.elements.len()
    }

    /// Whether the buffer holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Number of 64-bit words each per-record bitmap occupies.
    #[inline]
    pub fn words(&self) -> usize {
        self.size().div_ceil(64)
    }

    /// The bit position of an element, if it is buffered.
    #[inline]
    pub fn position(&self, element: ElementId) -> Option<u32> {
        self.positions.get(&element).copied()
    }

    /// Whether an element belongs to the buffered set `E_H`.
    #[inline]
    pub fn contains(&self, element: ElementId) -> bool {
        self.positions.contains_key(&element)
    }

    /// The buffered elements in bit-position order.
    #[inline]
    pub fn elements(&self) -> &[ElementId] {
        &self.elements
    }

    /// Per-record space cost of the buffer, measured in "elements"
    /// (32-bit words) as in the paper's budget accounting: `r / 32`.
    pub fn cost_per_record(&self) -> f64 {
        self.size() as f64 / 32.0
    }

    /// Builds the bitmap of a record under this layout.
    pub fn build_buffer(&self, record: &Record) -> ElementBuffer {
        self.build_buffer_from(record.elements())
    }

    /// Builds the bitmap of a borrowed element slice under this layout
    /// (duplicates are harmless — a bit is simply set twice).
    pub fn build_buffer_from(&self, elements: &[ElementId]) -> ElementBuffer {
        let mut buffer = ElementBuffer::zeroed(self.words());
        for e in elements.iter().copied() {
            if let Some(pos) = self.position(e) {
                buffer.set(pos);
            }
        }
        buffer
    }
}

/// A per-record bitmap over the buffered element set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct ElementBuffer {
    words: Vec<u64>,
}

impl ElementBuffer {
    /// A bitmap of `words` zeroed 64-bit words.
    pub fn zeroed(words: usize) -> Self {
        ElementBuffer {
            words: vec![0; words],
        }
    }

    /// A bitmap over pre-computed words (the flattened
    /// [`crate::store::SketchStore`] materialising a record sketch).
    pub fn from_words(words: Vec<u64>) -> Self {
        ElementBuffer { words }
    }

    /// Sets the bit at `position`.
    #[inline]
    pub fn set(&mut self, position: u32) {
        let word = (position / 64) as usize;
        let bit = position % 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1u64 << bit;
    }

    /// Whether the bit at `position` is set.
    #[inline]
    pub fn is_set(&self, position: u32) -> bool {
        let word = (position / 64) as usize;
        let bit = position % 64;
        self.words
            .get(word)
            .map(|w| (w >> bit) & 1 == 1)
            .unwrap_or(false)
    }

    /// Number of set bits (buffered elements present in the record).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `|H_Q ∩ H_X|`: popcount of the bitwise AND with another bitmap.
    pub fn intersection_count(&self, other: &ElementBuffer) -> usize {
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// The underlying words (for size accounting and serialisation).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Record;

    #[test]
    fn layout_assigns_positions_in_order() {
        let layout = BufferLayout::new(vec![10, 20, 30]);
        assert_eq!(layout.size(), 3);
        assert_eq!(layout.position(10), Some(0));
        assert_eq!(layout.position(30), Some(2));
        assert_eq!(layout.position(99), None);
        assert!(layout.contains(20));
        assert_eq!(layout.words(), 1);
    }

    #[test]
    fn layout_cost_matches_paper_accounting() {
        let layout = BufferLayout::new((0..64u32).collect());
        assert!((layout.cost_per_record() - 2.0).abs() < 1e-12);
        assert!(BufferLayout::empty().cost_per_record() == 0.0);
    }

    #[test]
    fn words_round_up() {
        assert_eq!(BufferLayout::new((0..1u32).collect()).words(), 1);
        assert_eq!(BufferLayout::new((0..64u32).collect()).words(), 1);
        assert_eq!(BufferLayout::new((0..65u32).collect()).words(), 2);
        assert_eq!(BufferLayout::empty().words(), 0);
    }

    #[test]
    fn build_buffer_marks_only_buffered_elements() {
        let layout = BufferLayout::new(vec![1, 2]);
        let record = Record::new(vec![1, 5, 9]);
        let buffer = layout.build_buffer(&record);
        assert!(buffer.is_set(0)); // element 1
        assert!(!buffer.is_set(1)); // element 2 absent from record
        assert_eq!(buffer.count_ones(), 1);
    }

    #[test]
    fn intersection_count_is_popcount_of_and() {
        let layout = BufferLayout::new((0..130u32).collect());
        let a = layout.build_buffer(&Record::new((0..100).collect()));
        let b = layout.build_buffer(&Record::new((50..130).collect()));
        assert_eq!(a.intersection_count(&b), 50);
        assert_eq!(b.intersection_count(&a), 50);
    }

    #[test]
    fn intersection_with_mismatched_word_counts() {
        let mut a = ElementBuffer::zeroed(1);
        a.set(3);
        let mut b = ElementBuffer::zeroed(3);
        b.set(3);
        b.set(100);
        assert_eq!(a.intersection_count(&b), 1);
        assert_eq!(b.intersection_count(&a), 1);
    }

    #[test]
    fn set_beyond_capacity_grows() {
        let mut buf = ElementBuffer::zeroed(0);
        buf.set(200);
        assert!(buf.is_set(200));
        assert!(!buf.is_set(199));
    }

    #[test]
    fn paper_figure_4_buffer_example() {
        // Figure 4: E_H = {e1, e2}; Q = {e1,e2,e3,e5,e7,e9}, X1 = {e1,..,e7}.
        // |H_Q ∩ H_X1| = 2.
        let layout = BufferLayout::new(vec![1, 2]);
        let q = layout.build_buffer(&Record::new(vec![1, 2, 3, 5, 7, 9]));
        let x1 = layout.build_buffer(&Record::new(vec![1, 2, 3, 4, 7]));
        let x2 = layout.build_buffer(&Record::new(vec![2, 3, 5]));
        assert_eq!(q.intersection_count(&x1), 2);
        assert_eq!(q.intersection_count(&x2), 1);
    }
}
