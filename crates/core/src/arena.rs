//! Owner-backed storage for index arenas.
//!
//! Every flat buffer inside the index (`SketchStore` arenas, posting slot
//! lists) is stored as an [`ArenaVec<T>`]: either an owned `Vec<T>` built
//! in memory, or a borrowed `&'static [T]` pointing straight into a loaded
//! arena file (see the [`persist`](crate::persist) module). The borrowed
//! form is what makes loading zero-copy — no per-record decode, no posting
//! rebuild — while the owned form is what every build and merge produces.
//!
//! Either way an arena is read-only once built: the enum derefs to a slice
//! and offers no mutable access. Growing an index builds a new tail shard
//! (see [`crate::store::SketchStore::merge`]) rather than writing into the
//! old one, so the clean shards of a loaded index keep borrowing the file
//! buffer and a published snapshot is never written under its readers.
//! Equality is by content, not by owner, so a loaded index compares equal
//! to the index that was saved.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Deref;

/// A flat buffer that is either owned (`Vec<T>`) or borrowed zero-copy from
/// a leaked arena-file buffer (`&'static [T]`).
pub enum ArenaVec<T: 'static> {
    /// Heap-owned storage; what every build and merge produces.
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
}

impl<T: 'static> Deref for ArenaVec<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
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
        // Only the owned arena counts heap bytes; only the borrowed one
        // counts file bytes.
        assert_eq!(borrowed.borrowed_bytes(), 12);
        assert_eq!(borrowed.owned_capacity_bytes(), 0);
        assert_eq!(owned.borrowed_bytes(), 0);
        assert!(owned.owned_capacity_bytes() >= 12);
    }
}
