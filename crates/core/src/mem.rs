//! Per-component memory accounting for built and loaded indexes.
//!
//! Every storage component reports a [`MemUsage`] breakdown: content bytes
//! per arena plus how much of that content is served zero-copy from a
//! loaded arena file ([`MemUsage::borrowed_bytes`]). For a freshly loaded
//! index the borrowed total equals the summed byte length of the file's
//! arena sections exactly — the bench and the persistence tests use that
//! equality to verify the load path really borrows instead of decoding.
//!
//! All figures are content sizes (`len * size_of::<T>()`), not heap
//! capacities, so built and loaded indexes are directly comparable.

use serde::Serialize;

/// Byte-level breakdown of an index component's storage.
///
/// Component figures measure content; [`borrowed_bytes`](Self::borrowed_bytes)
/// measures, across all components, the subset backed zero-copy by a loaded
/// arena file (zero for a built index; growing a loaded index replaces
/// only its tail shard with an owned one, so the clean shards keep theirs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct MemUsage {
    /// Concatenated G-KMV hash values (CSR data array), in bytes.
    pub hash_arena_bytes: usize,
    /// CSR offsets delimiting each slot's hash run, in bytes.
    pub hash_offsets_bytes: usize,
    /// Fixed-stride per-record element-buffer bitmaps, in bytes.
    pub buffer_arena_bytes: usize,
    /// Per-record metadata (max hash, sizes, saturation flags), in bytes.
    pub meta_bytes: usize,
    /// Record-id ↔ slot permutations, in bytes.
    pub permutation_bytes: usize,
    /// Estimated `hash_df` document-frequency map content (key + value
    /// bytes per entry; hashing overhead excluded), in bytes.
    pub hash_df_bytes: usize,
    /// Per-block OR summaries of the buffer bitmaps (one word per word of
    /// stride for every 64 records), in bytes. Rebuilt at load, like
    /// `hash_df`, so never borrowed.
    pub block_summary_bytes: usize,
    /// Posting-list content (`u32` slot lists), in bytes.
    pub postings_raw_bytes: usize,
    /// Always 0: posting lists have one format, with no packed payload.
    /// The field stays because the frozen `perfbench` harness reports it.
    pub postings_packed_bytes: usize,
    /// Always 0: posting lists have no block descriptors. The field stays
    /// because the frozen `perfbench` harness reports it.
    pub posting_block_meta_bytes: usize,
    /// Subset of all the above served zero-copy from a loaded arena file.
    pub borrowed_bytes: usize,
    /// Bytes belonging to shards that several accounted indexes share
    /// behind one `Arc` — counted **once** in the component fields and
    /// recorded here for every additional sighting, so summing
    /// [`MemUsage::total_bytes`] over a snapshot pair never double-counts
    /// copy-on-write storage. Zero when accounting a single index; see
    /// `GbKmvIndex::mem_usage_shared`.
    pub shared_bytes: usize,
}

impl MemUsage {
    /// Total content bytes across every component.
    #[must_use]
    pub fn total_bytes(&self) -> usize {
        self.hash_arena_bytes
            + self.hash_offsets_bytes
            + self.buffer_arena_bytes
            + self.meta_bytes
            + self.permutation_bytes
            + self.hash_df_bytes
            + self.block_summary_bytes
            + self.postings_raw_bytes
            + self.postings_packed_bytes
            + self.posting_block_meta_bytes
    }

    /// Content bytes that live in (or, after a load, are borrowed from) the
    /// persisted arena sections: everything except the `hash_df` map and the
    /// block summaries, the structures the loader rebuilds rather than
    /// borrows. On a
    /// freshly loaded index this equals
    /// [`borrowed_bytes`](Self::borrowed_bytes) exactly — the zero-copy
    /// equality the persistence bench and tests assert.
    #[must_use]
    pub fn arena_content_bytes(&self) -> usize {
        self.total_bytes() - self.hash_df_bytes - self.block_summary_bytes
    }

    /// Accumulates another breakdown into this one, field by field.
    pub(crate) fn add(&mut self, other: &MemUsage) {
        self.hash_arena_bytes += other.hash_arena_bytes;
        self.hash_offsets_bytes += other.hash_offsets_bytes;
        self.buffer_arena_bytes += other.buffer_arena_bytes;
        self.meta_bytes += other.meta_bytes;
        self.permutation_bytes += other.permutation_bytes;
        self.hash_df_bytes += other.hash_df_bytes;
        self.block_summary_bytes += other.block_summary_bytes;
        self.postings_raw_bytes += other.postings_raw_bytes;
        self.postings_packed_bytes += other.postings_packed_bytes;
        self.posting_block_meta_bytes += other.posting_block_meta_bytes;
        self.borrowed_bytes += other.borrowed_bytes;
        self.shared_bytes += other.shared_bytes;
    }

    /// Moves this breakdown's component content into
    /// [`shared_bytes`](Self::shared_bytes): the accounting applied to a
    /// shard that an earlier index in a `mem_usage_shared` walk already
    /// counted in full.
    pub(crate) fn into_shared(self) -> MemUsage {
        MemUsage {
            shared_bytes: self.total_bytes(),
            ..MemUsage::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_every_component_except_borrowed() {
        let usage = MemUsage {
            hash_arena_bytes: 1,
            hash_offsets_bytes: 2,
            buffer_arena_bytes: 4,
            meta_bytes: 8,
            permutation_bytes: 16,
            hash_df_bytes: 32,
            block_summary_bytes: 512,
            postings_raw_bytes: 64,
            postings_packed_bytes: 128,
            posting_block_meta_bytes: 256,
            borrowed_bytes: 10_000,
            shared_bytes: 20_000,
        };
        // Neither informational field (borrowed, shared) joins the total.
        assert_eq!(usage.total_bytes(), 1023);
        // Arena content excludes the rebuilt hash_df map and summaries.
        assert_eq!(usage.arena_content_bytes(), 1023 - 32 - 512);
    }

    #[test]
    fn into_shared_moves_the_total_and_drops_components() {
        let usage = MemUsage {
            hash_arena_bytes: 100,
            hash_df_bytes: 11,
            borrowed_bytes: 100,
            ..MemUsage::default()
        };
        let shared = usage.into_shared();
        assert_eq!(shared.shared_bytes, 111);
        assert_eq!(shared.total_bytes(), 0);
        assert_eq!(shared.borrowed_bytes, 0);
    }

    #[test]
    fn add_accumulates_field_by_field() {
        let unit = MemUsage {
            hash_arena_bytes: 1,
            hash_offsets_bytes: 1,
            buffer_arena_bytes: 1,
            meta_bytes: 1,
            permutation_bytes: 1,
            hash_df_bytes: 1,
            block_summary_bytes: 1,
            postings_raw_bytes: 1,
            postings_packed_bytes: 1,
            posting_block_meta_bytes: 1,
            borrowed_bytes: 1,
            shared_bytes: 1,
        };
        let mut acc = MemUsage::default();
        acc.add(&unit);
        acc.add(&unit);
        assert_eq!(acc.total_bytes(), 20);
        assert_eq!(acc.borrowed_bytes, 2);
        assert_eq!(acc.shared_bytes, 2);
    }
}
