//! Reusable per-query accumulator state for the staged query pipeline.
//!
//! [`QueryScratch`] holds the dense, epoch-stamped arrays the candidate stage
//! accumulates into, and the buffers the rank stage collects a threshold
//! query's hits in. It lived in [`crate::store`] when the accumulator engine
//! was introduced and is re-exported from there for compatibility; it now has
//! its own module because the pipeline treats it as the *per-stage state* of
//! a [`crate::index::QueryPipeline`] rather than part of the storage layer.

use crate::index::candidates::SweptSink;
use crate::index::rank::ThresholdCollector;

/// Reusable per-query accumulator state for the term-at-a-time query engine.
///
/// The dense arrays (`stamp`, `k_int`) are indexed by sketch-store slot. A
/// candidate is "live" for the current query iff its stamp equals the current
/// epoch, so starting a new query is one epoch increment — no O(m) clear, no
/// per-query hash map. Slots touched by the current query are tracked in
/// `touched` (insertion order; callers sort as their output contract
/// requires). `K∩` is accumulated per slot by the signature passes. The
/// buffer sweep (see [`crate::index::candidates`]) reads a sorted copy of
/// the candidates (`QueryScratch::take_sorted_candidates`). In the unfiltered
/// walk it writes nothing here and finishes every other slot it emits in
/// place, so only the signature candidates go through the stamp and `K∩`
/// arrays; a prefix-filtered walk mints its swept slots here, before its
/// lookup-only pass. The prune stage picks the walk per query; the same
/// scratch serves both.
///
/// When an index is sharded, the same scratch is reused across the shards of
/// one query: each shard's candidate stage calls [`QueryScratch::begin`]
/// before accumulating, and the arrays grow to the largest shard.
#[derive(Debug, Clone, Default)]
pub struct QueryScratch {
    pub(crate) epoch: u32,
    pub(crate) stamp: Vec<u32>,
    pub(crate) k_int: Vec<u32>,
    touched: Vec<u32>,
    /// `touched` sorted ascending, for the buffer sweep (moved out while
    /// the sweep reads it; see [`QueryScratch::take_sorted_candidates`]).
    pub(crate) sorted: Vec<u32>,
    /// Reusable `(document frequency, hash)` buffer the prefixed walk sorts
    /// the query's signature hashes into (rarest first); lives here so the
    /// per-query ordering allocates nothing after the first query. The
    /// unfiltered walk never fills it.
    pub(crate) hash_order: Vec<(u32, u64)>,
    /// The hit buffers of a threshold query, reused across queries.
    pub(crate) collector: ThresholdCollector,
}

impl QueryScratch {
    /// An empty scratch; it grows to the index size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts accumulation for a new query (or a new shard of the current
    /// query) over `num_records` slots: bumps the epoch (handling
    /// wrap-around) and grows the arrays if the store has grown since the
    /// last query.
    pub fn begin(&mut self, num_records: usize) {
        if self.stamp.len() < num_records {
            self.stamp.resize(num_records, 0);
            self.k_int.resize(num_records, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // The 32-bit epoch wrapped: stale stamps could collide with the
            // new epoch, so wipe them once every 2^32 queries.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.touched.clear();
    }

    /// Registers `slot` as touched by the current query, zeroing its
    /// accumulators on first touch. Returns whether this was the first
    /// touch.
    #[inline]
    fn activate(&mut self, slot: u32) -> bool {
        let i = slot as usize;
        let first = self.stamp[i] != self.epoch;
        if first {
            self.stamp[i] = self.epoch;
            self.k_int[i] = 0;
            self.touched.push(slot);
        }
        first
    }

    /// Accumulates one shared G-KMV signature hash for `slot` (one posting).
    #[inline]
    pub fn add_signature_hit(&mut self, slot: u32) {
        self.activate(slot);
        self.k_int[slot as usize] += 1;
    }

    /// Lookup-only accumulation: counts one shared signature hash for `slot`
    /// **only if** the slot is already a candidate of the current query.
    ///
    /// This is the non-minting walk of the prefix-filter stage: a query's
    /// frequent hashes may score candidates the rare (prefix) hashes or the
    /// buffer sweep already minted, but can never introduce new ones — a
    /// record reachable *only* through non-prefix hashes cannot reach the
    /// overlap threshold (see [`crate::index::prune`]), so skipping the
    /// insert changes no answer while avoiding the dominant cost of touching
    /// the long posting lists' cold slots.
    #[inline]
    pub fn add_signature_hit_if_candidate(&mut self, slot: u32) {
        let i = slot as usize;
        if self.stamp[i] == self.epoch {
            self.k_int[i] += 1;
        }
    }

    /// Batched [`QueryScratch::add_signature_hit`]: accumulates one shared
    /// signature hash for every slot of one posting-list range.
    ///
    /// Four slots are processed per iteration so the independent per-slot
    /// loads can issue in parallel instead of serialising behind one
    /// branchy chain; the epoch/stamp semantics are identical to the
    /// per-slot call, including first-touch order of `touched`.
    #[inline]
    pub fn add_signature_hits(&mut self, slots: &[u32]) {
        let mut it = slots.chunks_exact(4);
        for quad in &mut it {
            self.add_signature_hit(quad[0]);
            self.add_signature_hit(quad[1]);
            self.add_signature_hit(quad[2]);
            self.add_signature_hit(quad[3]);
        }
        for &slot in it.remainder() {
            self.add_signature_hit(slot);
        }
    }

    /// Batched [`QueryScratch::add_signature_hit_if_candidate`], the hot
    /// pass of the vectorized kernel: the lookup-only accumulate is
    /// **branch-free** per slot — `K∩[i] += (stamp[i] == epoch)` adds zero
    /// to non-candidates instead of branching around them — so the four
    /// lanes per iteration carry no data-dependent branches at all and
    /// their loads stay in flight together.
    #[inline]
    pub fn add_signature_hits_if_candidate(&mut self, slots: &[u32]) {
        let epoch = self.epoch;
        let mut it = slots.chunks_exact(4);
        for quad in &mut it {
            let (a, b, c, d) = (
                quad[0] as usize,
                quad[1] as usize,
                quad[2] as usize,
                quad[3] as usize,
            );
            let ha = u32::from(self.stamp[a] == epoch);
            let hb = u32::from(self.stamp[b] == epoch);
            let hc = u32::from(self.stamp[c] == epoch);
            let hd = u32::from(self.stamp[d] == epoch);
            self.k_int[a] += ha;
            self.k_int[b] += hb;
            self.k_int[c] += hc;
            self.k_int[d] += hd;
        }
        for &slot in it.remainder() {
            let i = slot as usize;
            self.k_int[i] += u32::from(self.stamp[i] == epoch);
        }
    }

    /// Heap bytes currently held by the scratch's accumulator arrays — the
    /// per-pipeline retained-memory number the `query_throughput` bench
    /// reports alongside the index's
    /// [`mem_usage`](crate::index::GbKmvIndex::mem_usage) breakdown.
    pub fn mem_bytes(&self) -> usize {
        self.stamp.capacity() * std::mem::size_of::<u32>()
            + self.k_int.capacity() * std::mem::size_of::<u32>()
            + self.touched.capacity() * std::mem::size_of::<u32>()
            + self.sorted.capacity() * std::mem::size_of::<u32>()
            + self.hash_order.capacity() * std::mem::size_of::<(u32, u64)>()
            + self.collector.mem_bytes()
    }

    /// The slots touched by the current query, in first-touch order.
    #[inline]
    pub fn candidates(&self) -> &[u32] {
        &self.touched
    }

    /// The slots touched by the current query, sorted ascending, in the
    /// scratch's reusable buffer, moved out so that the sweep can read it
    /// while it mints into the scratch; callers put it back in `sorted`.
    #[inline]
    pub(crate) fn take_sorted_candidates(&mut self) -> Vec<u32> {
        let mut sorted = std::mem::take(&mut self.sorted);
        sorted.clear();
        sorted.extend_from_slice(&self.touched);
        sorted.sort_unstable();
        sorted
    }

    /// `K∩` accumulated for `slot` in the current query.
    #[inline]
    pub fn k_intersection(&self, slot: u32) -> usize {
        self.k_int[slot as usize] as usize
    }
}

/// A prefix-filtered walk's buffer sweep mints its slots here, without
/// accumulating any overlap, for the lookup-only pass to score.
impl SweptSink for QueryScratch {
    #[inline]
    fn take(&mut self, slot: u32, _buffered: u32) {
        self.activate(slot);
    }
}

#[cfg(test)]
impl QueryScratch {
    /// Registers `slot` as a candidate without accumulating any overlap.
    fn mint(&mut self, slot: u32) {
        self.activate(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_accumulates_and_resets_by_epoch() {
        let mut scratch = QueryScratch::new();
        scratch.begin(5);
        scratch.add_signature_hit(3);
        scratch.add_signature_hit(3);
        scratch.mint(3);
        scratch.mint(1);
        assert_eq!(scratch.candidates(), &[3, 1]);
        assert_eq!(scratch.k_intersection(3), 2);
        assert_eq!(scratch.k_intersection(1), 0);

        // Next query: previous accumulations must be invisible.
        scratch.begin(5);
        assert!(scratch.candidates().is_empty());
        scratch.add_signature_hit(3);
        assert_eq!(
            scratch.k_intersection(3),
            1,
            "stale K∩ leaked across epochs"
        );
    }

    #[test]
    fn lookup_only_hit_never_mints_a_candidate() {
        let mut scratch = QueryScratch::new();
        scratch.begin(6);
        scratch.mint(2);
        // Slot 2 is a candidate: the lookup-only hit accumulates.
        scratch.add_signature_hit_if_candidate(2);
        scratch.add_signature_hit_if_candidate(2);
        // Slot 4 is not: the lookup-only hit must be a no-op.
        scratch.add_signature_hit_if_candidate(4);
        assert_eq!(scratch.candidates(), &[2]);
        assert_eq!(scratch.k_intersection(2), 2);
        assert_eq!(scratch.k_intersection(4), 0);

        // Next epoch: slot 2's stale stamp no longer admits lookups, and
        // re-activating it starts from a zeroed accumulator.
        scratch.begin(6);
        scratch.add_signature_hit_if_candidate(2);
        assert!(scratch.candidates().is_empty(), "stale-epoch lookup minted");
        scratch.mint(2);
        assert_eq!(scratch.k_intersection(2), 0, "stale-epoch lookup leaked");
    }

    #[test]
    fn scratch_epoch_wraparound_does_not_leak() {
        let mut scratch = QueryScratch::new();
        scratch.begin(4);
        scratch.add_signature_hit(2);
        // Force the epoch to the wrap point: the next begin() overflows to 0
        // and must wipe the stamps instead of treating stale ones as live.
        scratch.epoch = u32::MAX;
        scratch.stamp[2] = u32::MAX; // make slot 2's stamp look "current"
        scratch.k_int[2] = 99;
        scratch.begin(4);
        assert_eq!(scratch.epoch, 1);
        assert!(scratch.candidates().is_empty());
        scratch.add_signature_hit(2);
        assert_eq!(
            scratch.k_intersection(2),
            1,
            "epoch wrap leaked a stale accumulator"
        );
    }

    #[test]
    fn batched_accumulates_match_per_slot_calls() {
        // The batched methods must leave the scratch in exactly the state
        // the per-slot calls produce — including
        // first-touch order and remainder handling (lengths not ≡ 0 mod 4).
        let chunks: [&[u32]; 3] = [&[9, 1, 4, 7, 2], &[1, 4, 11, 0], &[2]];
        let mut scalar = QueryScratch::new();
        let mut batched = QueryScratch::new();
        scalar.begin(12);
        batched.begin(12);
        for chunk in chunks {
            for &s in chunk {
                scalar.add_signature_hit(s);
            }
            batched.add_signature_hits(chunk);
        }
        for &s in [6u32, 9, 1].iter() {
            scalar.mint(s);
            batched.mint(s);
        }
        for chunk in chunks {
            for &s in chunk {
                scalar.add_signature_hit_if_candidate(s);
            }
            batched.add_signature_hits_if_candidate(chunk);
        }
        // Slot 3 was never touched: the lookup-only batch must not mint it.
        batched.add_signature_hits_if_candidate(&[3, 3, 3, 3, 3]);
        assert_eq!(scalar.candidates(), batched.candidates());
        for s in 0..12 {
            assert_eq!(
                scalar.k_intersection(s),
                batched.k_intersection(s),
                "slot {s} diverged"
            );
        }
        assert!(!batched.candidates().contains(&3));
    }

    #[test]
    fn scratch_grows_with_index() {
        let mut scratch = QueryScratch::new();
        scratch.begin(2);
        scratch.mint(1);
        scratch.begin(10);
        scratch.add_signature_hit(9);
        assert_eq!(scratch.candidates(), &[9]);
        assert_eq!(scratch.k_intersection(9), 1);
    }
}
