//! Owner-backed storage for index arenas.
//!
//! Every flat buffer inside the index (`SketchStore` arenas, posting slot
//! lists) is stored as an [`ArenaVec<T>`]: either an owned `Vec<T>` built
//! in memory, or a borrowed `&'static [T]` pointing straight into a loaded
//! arena file (see the [`persist`](crate::persist) module). The borrowed
//! form is what makes loading zero-copy — no per-record decode, no posting
//! rebuild — while the owned form is what every build path produces.
//!
//! The enum behaves like a slice for reads (`Deref<Target = [T]>`) and
//! promotes itself to an owned `Vec` on first mutation ([`ArenaVec::to_mut`]
//! or `DerefMut`), so insert-after-load takes one bulk copy of the touched
//! arena and is bit-identical to insert-after-build from then on. Equality
//! is by content, not by owner, so a loaded index compares equal to the
//! index that was saved.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Deref, DerefMut};

/// A flat buffer that is either owned (`Vec<T>`) or borrowed zero-copy from
/// a leaked arena-file buffer (`&'static [T]`).
pub enum ArenaVec<T: 'static> {
    /// Heap-owned storage; what every build and mutation path produces.
    Owned(Vec<T>),
    /// Zero-copy view into a loaded arena file. The referent is a buffer
    /// intentionally leaked for the process lifetime by the load path, so
    /// the `'static` borrow is sound and costs no per-element work.
    Borrowed(&'static [T]),
}

impl<T: 'static> ArenaVec<T> {
    /// The stored elements as a slice, whichever variant backs them.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match self {
            ArenaVec::Owned(vec) => vec.as_slice(),
            ArenaVec::Borrowed(slice) => slice,
        }
    }

    /// Heap bytes reserved by the owned variant (capacity-based); zero for
    /// borrowed storage, whose bytes belong to the arena file buffer.
    #[inline]
    pub fn owned_capacity_bytes(&self) -> usize {
        match self {
            ArenaVec::Owned(vec) => vec.capacity() * std::mem::size_of::<T>(),
            ArenaVec::Borrowed(_) => 0,
        }
    }

    /// Content bytes served zero-copy from a loaded arena file; zero for
    /// owned storage. For a freshly loaded index this equals the exact
    /// byte length of the corresponding file section.
    #[inline]
    pub fn borrowed_bytes(&self) -> usize {
        match self {
            ArenaVec::Owned(_) => 0,
            ArenaVec::Borrowed(slice) => std::mem::size_of_val(*slice),
        }
    }

    /// Whether the storage still borrows from a loaded arena file.
    #[inline]
    pub fn is_borrowed(&self) -> bool {
        matches!(self, ArenaVec::Borrowed(_))
    }
}

impl<T: Clone + 'static> ArenaVec<T> {
    /// Mutable access, promoting borrowed storage to an owned copy first.
    ///
    /// The promotion is a single bulk copy of this arena only; other arenas
    /// of a loaded index keep borrowing from the file buffer.
    #[inline]
    pub fn to_mut(&mut self) -> &mut Vec<T> {
        if let ArenaVec::Borrowed(slice) = self {
            *self = ArenaVec::Owned(slice.to_vec());
        }
        match self {
            ArenaVec::Owned(vec) => vec,
            ArenaVec::Borrowed(_) => unreachable!("promoted above"),
        }
    }
}

impl<T: 'static> Deref for ArenaVec<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Clone + 'static> DerefMut for ArenaVec<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.to_mut().as_mut_slice()
    }
}

impl<T: 'static> From<Vec<T>> for ArenaVec<T> {
    #[inline]
    fn from(vec: Vec<T>) -> Self {
        ArenaVec::Owned(vec)
    }
}

impl<T: 'static> Default for ArenaVec<T> {
    fn default() -> Self {
        ArenaVec::Owned(Vec::new())
    }
}

impl<T: Clone + 'static> Clone for ArenaVec<T> {
    fn clone(&self) -> Self {
        match self {
            ArenaVec::Owned(vec) => ArenaVec::Owned(vec.clone()),
            // Cloning a borrow is free: the file buffer lives for the
            // process lifetime, so both clones can keep borrowing it.
            ArenaVec::Borrowed(slice) => ArenaVec::Borrowed(slice),
        }
    }
}

impl<T: fmt::Debug + 'static> fmt::Debug for ArenaVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// Content equality: a loaded (borrowed) arena compares equal to the owned
/// arena it was saved from.
impl<T: PartialEq + 'static> PartialEq for ArenaVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq + 'static> Eq for ArenaVec<T> {}

impl<T: Serialize + 'static> Serialize for ArenaVec<T> {
    fn to_json_value(&self) -> serde::json::Value {
        self.as_slice().to_json_value()
    }
}

impl<T: 'static> Deserialize for ArenaVec<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn borrowed_equals_owned_with_same_content() {
        let owned: ArenaVec<u32> = vec![1, 2, 3].into();
        let leaked: &'static [u32] = Box::leak(vec![1, 2, 3].into_boxed_slice());
        let borrowed = ArenaVec::Borrowed(leaked);
        assert_eq!(owned, borrowed);
        assert_ne!(owned, ArenaVec::Owned(vec![1, 2]));
    }

    #[test]
    fn to_mut_promotes_borrowed_storage_once() {
        let leaked: &'static [u32] = Box::leak(vec![7, 8].into_boxed_slice());
        let mut arena = ArenaVec::Borrowed(leaked);
        assert!(arena.is_borrowed());
        assert_eq!(arena.borrowed_bytes(), 8);
        assert_eq!(arena.owned_capacity_bytes(), 0);

        arena.to_mut().push(9);
        assert!(!arena.is_borrowed());
        assert_eq!(&arena[..], &[7, 8, 9]);
        assert_eq!(arena.borrowed_bytes(), 0);
        assert!(arena.owned_capacity_bytes() >= 3 * 4);
        // The leaked original is untouched.
        assert_eq!(leaked, &[7, 8]);
    }

    #[test]
    fn deref_mut_also_promotes() {
        let leaked: &'static [u32] = Box::leak(vec![3, 1].into_boxed_slice());
        let mut arena = ArenaVec::Borrowed(leaked);
        arena.sort_unstable();
        assert_eq!(&arena[..], &[1, 3]);
        assert!(!arena.is_borrowed());
    }
}
