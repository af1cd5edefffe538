//! Block-compressed posting lists: the storage substrate of the inverted
//! index.
//!
//! Every posting list of the query engine is a strictly ascending sequence
//! of **slot** numbers (see [`crate::store::SketchStore`] for the slot
//! order). Until this module existed they were raw `Vec<u32>`s — 4 bytes
//! per entry plus `Vec` growth slack — which made the posting layer, not
//! the sketches the paper carefully budgets, the dominant memory consumer
//! of the index. [`PostingList`] replaces that with a format chosen at
//! build time by [`PostingFormat`] (a [`crate::index::GbKmvConfig`] knob):
//!
//! * [`PostingFormat::Packed`] (the default) — [`PackedList`]: a **hybrid**
//!   of two per-block encodings, chosen block by block by encoded size:
//!   - **Gap-packed** blocks of up to [`BLOCK_LEN`] slots store the block's
//!     first slot in its `BlockMeta` and the remaining `len − 1` entries as
//!     `(gap − 1)` values (gaps are ≥ 1 because slots are strictly
//!     ascending) **bit-packed** at the block's own width — the minimum
//!     number of bits that fits the block's largest gap. A block of
//!     consecutive slots (a dense run) has width 0 and *no payload at
//!     all*; a block over a 10k-slot shard rarely needs more than a byte
//!     per entry.
//!   - **Bitmap** blocks (roaring-style) store a 128-bit presence mask —
//!     two `u64` words — over the base slot `first`, covering every slot
//!     in `[first, first + BLOCK_LEN)`. The deterministic chunker (see
//!     `next_chunk`) picks the bitmap exactly when the same slots
//!     gap-encoded would need more than the mask's two words, so dense
//!     (but not consecutive) runs cost a flat 16 bytes and decode by bit
//!     iteration instead of a serial gap chain.
//!
//!   Each block's payload starts on a fresh `u64` word so blocks decode
//!   independently.
//! * [`PostingFormat::Raw`] — the plain ascending `Vec<u32>`, kept as the
//!   ablation benchmark (`query_throughput` reports both formats' bytes
//!   and throughput) and as the correctness oracle the packed round-trip
//!   and equivalence proptests pin against.
//!
//! # Traversal and block skipping
//!
//! The candidate stage never materialises a whole list: it walks a slot
//! range `lo..hi` via [`PostingList::for_each_chunk_in_range`], which — on
//! the packed representation — **skips whole blocks on their `first` slot**
//! (blocks are ascending, so every block whose `first` is at or past the
//! prune stage's `hi` cutoff dies with one comparison, and the first
//! relevant block is found with one binary search over the metas) and hands
//! each surviving block out as one [`PostingChunk`]: the raw format hands
//! out its cut sub-slice in one piece copy-free, gap blocks decode into a
//! caller-provided reusable buffer (the [`crate::scratch::QueryScratch`]
//! owns one per pipeline) with a 4-lane unrolled prefix sum over the
//! non-straddling per-word layout, dense runs materialise arithmetically —
//! and fully-in-range bitmap blocks are handed out **undecoded**, as their
//! 16-byte mask, so the accumulator consumes the set bits without a
//! decode-buffer round trip. Boundary blocks are cut to the range by one
//! in-block binary search (or mask trim) — bit-identical to the
//! binary-search truncation the raw representation performs, which is what
//! keeps every query path's answers independent of the format. The
//! per-slot visitors ([`PostingList::for_each_in_range`],
//! [`PostingList::for_each`], [`PostingList::to_vec`]) are thin wrappers
//! over the same chunk walk.
//!
//! # Dynamic maintenance
//!
//! Posting lists mutate on [`crate::index::GbKmvIndex::insert`] in two
//! ways, both of which touch as few blocks as possible:
//!
//! * [`PostingList::renumber_from`] (every slot ≥ the splice point shifts
//!   up by one): both encodings are *shift-invariant* — gaps and mask bits
//!   are relative to `first` — so blocks entirely at or past the splice
//!   point just bump their `first`; only the single block the splice point
//!   lands inside is re-encoded, falling back to a suffix re-chunk in the
//!   rare case the grown gap changes the block's kind or extent.
//! * [`PostingList::insert_sorted`]: appending past the current tail (the
//!   common case — see the fast path in [`crate::index::sharded`])
//!   re-encodes only the final block; a mid-list splice re-chunks the
//!   decoded suffix from the affected block on.
//!
//! Every mutation routes its re-encoding through the same deterministic
//! chunker as the bulk build, so an incrementally grown list stays
//! **structurally identical** to a fresh encoding of its contents — the
//! invariant the insert-equals-rebuild tests pin.

use serde::{Deserialize, Serialize};

use crate::arena::ArenaVec;
use crate::mem::MemUsage;

/// Maximum number of slots per packed block, and the exact slot-range span
/// of a bitmap block's presence mask. 128 keeps a fully decoded block
/// (512 bytes) inside a handful of cache lines — the chunk granularity the
/// batched accumulate kernel consumes per call.
pub const BLOCK_LEN: usize = 128;

/// Sentinel `BlockMeta::width` marking a bitmap block (a real gap width
/// never exceeds 32 bits).
const BITMAP_WIDTH: u8 = u8::MAX;

/// Payload words of a bitmap block: a 128-bit mask over the base slot.
const BITMAP_WORDS: usize = 2;

/// The posting-list storage format of an index, chosen at build time via
/// [`crate::index::GbKmvConfig::posting_format`]. The format never changes
/// any answer — every query path decodes to the identical ascending slot
/// sequence — only the memory footprint and traversal cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PostingFormat {
    /// Block-compressed hybrid gap-packed/bitmap lists ([`PackedList`]).
    #[default]
    Packed,
    /// Plain ascending `Vec<u32>` lists (the ablation and oracle).
    Raw,
}

/// One batch of a chunked posting walk
/// ([`PostingList::for_each_chunk_in_range`]): either a borrowed run of
/// decoded ascending slot ids, or the undecoded presence mask of one
/// bitmap block that lies fully inside the walked range.
#[derive(Debug, Clone, Copy)]
pub enum PostingChunk<'a> {
    /// Decoded ascending slot ids (a raw-list sub-slice, a decoded gap
    /// block, a materialised dense run, or a range-cut boundary block).
    Slots(&'a [u32]),
    /// A bitmap block fully inside the walked range: the chunk's slots are
    /// `base + 64·w + b` for every set bit `b` of `words[w]`, ascending.
    Bitmap {
        /// Slot of the mask's bit 0 (always set).
        base: u32,
        /// The 128-bit presence mask.
        words: [u64; 2],
    },
}

impl PostingChunk<'_> {
    /// Visits every slot of the chunk in ascending order (bitmap chunks
    /// expand their set bits).
    pub fn for_each_slot<F: FnMut(u32)>(&self, mut f: F) {
        match *self {
            PostingChunk::Slots(slots) => {
                for &slot in slots {
                    f(slot);
                }
            }
            PostingChunk::Bitmap { base, words } => {
                for (wi, mut w) in words.into_iter().enumerate() {
                    let word_base = base + (wi as u32) * 64;
                    while w != 0 {
                        f(word_base + w.trailing_zeros());
                        w &= w - 1;
                    }
                }
            }
        }
    }
}

/// Per-block metadata of a [`PackedList`].
///
/// A **gap block**'s payload is `len − 1` bit-packed `(gap − 1)` values of
/// `width` bits each, starting at bit 0 of `words[word_offset]`. Values
/// never straddle a word boundary: each `u64` holds `⌊64 / width⌋` values
/// and the remaining high bits stay zero — a few wasted bits per word buys
/// a branch-light decode loop (shift, mask, add — no straddle handling).
///
/// A **bitmap block** (`width == BITMAP_WIDTH`) has a fixed two-word
/// payload: bit `i` of the 128-bit mask is set iff slot `first + i` is
/// present (bit 0 — `first` itself — is always set).
///
/// `#[repr(C)]` pins the field layout (two `u32`s, two `u8`s, 2 padding
/// bytes — 12 bytes total) so the persistence layer can borrow a saved
/// block-metadata section zero-copy as `&[BlockMeta]`. Every field is a
/// plain integer, so any bit pattern is a valid (if possibly nonsensical)
/// value — the structural checks live in
/// [`PackedList::validate_loaded`].
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockMeta {
    /// The block's first slot (not part of the payload).
    pub(crate) first: u32,
    /// Index of the block's first payload word in [`PackedList::words`].
    pub(crate) word_offset: u32,
    /// Number of slots in the block, `1..=BLOCK_LEN`.
    pub(crate) len: u8,
    /// Bits per stored `(gap − 1)` value; 0 iff the block is a consecutive
    /// run (every gap is exactly 1), in which case there is no payload;
    /// `BITMAP_WIDTH` iff the block is a bitmap.
    pub(crate) width: u8,
}

impl BlockMeta {
    /// Number of `u64` payload words the block occupies.
    #[inline]
    pub(crate) fn word_span(&self) -> usize {
        if self.width == BITMAP_WIDTH {
            BITMAP_WORDS
        } else if self.width == 0 {
            0
        } else {
            (self.len as usize - 1).div_ceil(64 / self.width as usize)
        }
    }
}

/// Minimum bits needed to store `v` (0 for `v == 0`).
#[inline]
fn bits_for(v: u32) -> u8 {
    (32 - v.leading_zeros()) as u8
}

/// Payload words a gap encoding of `slots` would occupy (0 for a dense
/// run) — the encoded-size half of the per-block kind decision.
fn gap_word_span(slots: &[u32]) -> usize {
    let width = slots
        .windows(2)
        .map(|w| bits_for(w[1] - w[0] - 1))
        .max()
        .unwrap_or(0);
    if width == 0 {
        0
    } else {
        (slots.len() - 1).div_ceil(64 / width as usize)
    }
}

/// The kind-and-extent decision for the next block of an ascending,
/// non-empty `suffix`: returns `(entries consumed, is_bitmap)`.
///
/// The rule is a pure function of the next `min(BLOCK_LEN, len)` entries,
/// which makes chunking **deterministic and local**: a mutation can
/// re-chunk from the affected block on and land on exactly the blocks a
/// bulk encode of the same contents would produce. The bitmap is chosen —
/// consuming every entry within `[first, first + BLOCK_LEN)` — exactly
/// when gap-encoding those same entries would cost more than the mask's
/// two words (ties go to the gap encoding, which decodes a width ≤ 2
/// block faster than it could win bytes).
fn next_chunk(suffix: &[u32]) -> (usize, bool) {
    let first = suffix[0];
    let lookahead = &suffix[..suffix.len().min(BLOCK_LEN)];
    // Entries within the bitmap window. A 128-slot window holds at most
    // 128 distinct slots, so the window never reaches past `lookahead`.
    let count = lookahead.partition_point(|&s| ((s - first) as usize) < BLOCK_LEN);
    if gap_word_span(&lookahead[..count]) > BITMAP_WORDS {
        (count, true)
    } else {
        (lookahead.len(), false)
    }
}

/// A block-compressed ascending slot list; see the module docs for the
/// layout.
///
/// Lists that fit a **single block** (the vast majority under any
/// realistic document-frequency distribution) keep their block metadata
/// *inline* in this struct (`first` / `width`) and use `blocks` not at
/// all: a one-slot list owns **zero heap bytes**, and a short list only
/// its payload words. Multi-block lists carry one `BlockMeta` per block.
/// Block boundaries come from the deterministic chunker (`next_chunk`):
/// every interior block starts at least [`BLOCK_LEN`] slots after the
/// previous block's `first` (a bitmap block owns its whole window; a
/// 128-entry gap block spans ≥ 127 slots), which is the invariant that
/// keeps incrementally grown lists bit-identical to bulk-encoded ones.
/// Block `first`s are strictly ascending and every slot of block `i` is
/// strictly below block `i + 1`'s `first`; `last` is the final slot when
/// `len > 0`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PackedList {
    /// Per-block metadata — **empty** for single-block lists, whose one
    /// block is described by the inline `first` / `width` fields. Owned
    /// when built, borrowed zero-copy when loaded from an arena file.
    blocks: ArenaVec<BlockMeta>,
    /// Concatenated block payloads; each block starts on a word boundary.
    words: ArenaVec<u64>,
    /// Total number of slots across all blocks.
    len: u32,
    /// The first (smallest) slot; meaningless when `len == 0`. Kept
    /// coherent with `blocks[0].first` in the multi-block form too (every
    /// mutation maintains it), so the derived `PartialEq` — and with it
    /// the insert-equals-rebuild tests — compare list contents, not
    /// representation history.
    first: u32,
    /// The final (largest) slot; meaningless when `len == 0`.
    last: u32,
    /// Width of the single inline block (`BITMAP_WIDTH` for a bitmap);
    /// unused (0) when `blocks` is non-empty.
    width: u8,
}

/// Encodes one ascending chunk (`1..=BLOCK_LEN` slots, kind already chosen
/// by `next_chunk`) as a block appended to `words`, returning its
/// metadata.
fn encode_block(slots: &[u32], bitmap: bool, words: &mut Vec<u64>) -> BlockMeta {
    debug_assert!(!slots.is_empty() && slots.len() <= BLOCK_LEN);
    debug_assert!(slots.windows(2).all(|w| w[0] < w[1]));
    let first = slots[0];
    let word_offset = words.len() as u32;
    if bitmap {
        debug_assert!(((slots[slots.len() - 1] - first) as usize) < BLOCK_LEN);
        let base = words.len();
        words.resize(base + BITMAP_WORDS, 0);
        for &s in slots {
            let off = (s - first) as usize;
            words[base + (off >> 6)] |= 1u64 << (off & 63);
        }
        return BlockMeta {
            first,
            word_offset,
            len: slots.len() as u8,
            width: BITMAP_WIDTH,
        };
    }
    let width = slots
        .windows(2)
        .map(|w| bits_for(w[1] - w[0] - 1))
        .max()
        .unwrap_or(0);
    if width > 0 {
        let per_word = 64 / width as usize;
        words.resize(words.len() + (slots.len() - 1).div_ceil(per_word), 0);
        for (i, w) in slots.windows(2).enumerate() {
            let v = (w[1] - w[0] - 1) as u64;
            let word = word_offset as usize + i / per_word;
            words[word] |= v << ((i % per_word) * width as usize);
        }
    }
    BlockMeta {
        first,
        word_offset,
        len: slots.len() as u8,
        width,
    }
}

/// Chunks `slots` with `next_chunk` and appends one encoded block per
/// chunk to `words` / `metas`.
fn encode_chunks(slots: &[u32], words: &mut Vec<u64>, metas: &mut Vec<BlockMeta>) {
    let mut i = 0;
    while i < slots.len() {
        let (take, bitmap) = next_chunk(&slots[i..]);
        metas.push(encode_block(&slots[i..i + take], bitmap, words));
        i += take;
    }
}

impl PackedList {
    /// Builds a packed list from an ascending, deduplicated slot slice.
    /// Both backing vectors are allocated exactly (no growth slack): the
    /// bulk build is where nearly all lists come from, and the point of the
    /// format is the footprint.
    pub fn from_sorted(slots: &[u32]) -> Self {
        let mut list = PackedList {
            len: slots.len() as u32,
            first: slots.first().copied().unwrap_or(0),
            last: slots.last().copied().unwrap_or(0),
            ..PackedList::default()
        };
        if slots.is_empty() {
            return list;
        }
        let mut metas = Vec::new();
        encode_chunks(slots, list.words.to_mut(), &mut metas);
        if metas.len() == 1 {
            list.width = metas[0].width;
        } else {
            metas.shrink_to_fit();
            list.blocks = metas.into();
        }
        list.words.to_mut().shrink_to_fit();
        list
    }

    /// Number of blocks (a non-empty single-block list counts as one).
    #[inline]
    fn num_blocks(&self) -> usize {
        if self.blocks.is_empty() {
            usize::from(self.len > 0)
        } else {
            self.blocks.len()
        }
    }

    /// Number of bitmap-encoded blocks (diagnostics: the dense-profile
    /// bench asserts the hybrid format actually engages).
    pub(crate) fn bitmap_blocks(&self) -> usize {
        if self.blocks.is_empty() {
            usize::from(self.len > 0 && self.width == BITMAP_WIDTH)
        } else {
            self.blocks
                .iter()
                .filter(|b| b.width == BITMAP_WIDTH)
                .count()
        }
    }

    /// Metadata of block `idx`, synthesised from the inline fields for a
    /// single-block list.
    #[inline]
    fn meta(&self, idx: usize) -> BlockMeta {
        if self.blocks.is_empty() {
            debug_assert!(idx == 0 && self.len > 0);
            BlockMeta {
                first: self.first,
                word_offset: 0,
                len: self.len as u8,
                width: self.width,
            }
        } else {
            self.blocks[idx]
        }
    }

    /// `first` of block `idx + 1`, if any.
    #[inline]
    fn next_first(&self, idx: usize) -> Option<u32> {
        if self.blocks.is_empty() {
            None
        } else {
            self.blocks.get(idx + 1).map(|b| b.first)
        }
    }

    /// Decodes block `idx` by appending its slots to `out`.
    fn decode_block_into(&self, idx: usize, out: &mut Vec<u32>) {
        self.decode_block(self.meta(idx), out);
    }

    /// Re-encodes block `idx` from `slots` with the given kind (same or
    /// one-longer length), splicing the payload words and shifting later
    /// blocks' offsets if the payload span changed. The caller has already
    /// checked the replacement is chunking-consistent ([`PackedList::replace_block`])
    /// and maintains the list-level `len` / `last` fields.
    fn rewrite_block(&mut self, idx: usize, slots: &[u32], bitmap: bool) {
        let old = self.meta(idx);
        let old_span = old.word_span();
        let mut fresh = Vec::new();
        let mut meta = encode_block(slots, bitmap, &mut fresh);
        meta.word_offset = old.word_offset;
        let new_span = fresh.len();
        let start = old.word_offset as usize;
        self.words.to_mut().splice(start..start + old_span, fresh);
        if self.blocks.is_empty() {
            self.first = meta.first;
            self.width = meta.width;
        } else {
            let blocks = self.blocks.to_mut();
            blocks[idx] = meta;
            if new_span != old_span {
                let diff = new_span as isize - old_span as isize;
                for b in &mut blocks[idx + 1..] {
                    b.word_offset = (b.word_offset as isize + diff) as u32;
                }
            }
            if idx == 0 {
                self.first = meta.first;
            }
        }
    }

    /// Replaces blocks `idx..` with a fresh chunking of `decoded` (their
    /// mutated contents). Maintains the inline/multi-block form and the
    /// `first` mirror; the caller maintains `len` / `last`.
    fn rechunk_from(&mut self, idx: usize, decoded: &[u32]) {
        debug_assert!(!decoded.is_empty());
        let word_start = if self.blocks.is_empty() {
            debug_assert_eq!(idx, 0);
            0
        } else {
            self.blocks[idx].word_offset as usize
        };
        self.words.to_mut().truncate(word_start);
        self.blocks.to_mut().truncate(idx);
        encode_chunks(decoded, self.words.to_mut(), self.blocks.to_mut());
        if self.blocks.len() == 1 {
            // Single block: fold back into the inline form, exactly as a
            // bulk encode of the same contents would.
            let m = self.blocks[0];
            self.blocks.to_mut().clear();
            self.first = m.first;
            self.width = m.width;
        } else {
            self.width = 0;
            self.first = self.blocks[0].first;
        }
    }

    /// Replaces block `idx`'s contents with `decoded` (the same entries
    /// mutated, or one extra), keeping the chunking bit-identical to a bulk
    /// re-encode of the whole list. The common case rewrites this one
    /// block in place: that is valid exactly when the fresh chunking of
    /// `decoded` is a single block that a bulk encode — which also sees
    /// the *following* blocks' entries — would cut at the same boundary.
    /// Otherwise the suffix from `idx` on is decoded and re-chunked.
    fn replace_block(&mut self, idx: usize, decoded: Vec<u32>) {
        let (take, bitmap) = next_chunk(&decoded);
        let local_ok = take == decoded.len()
            && match self.next_first(idx) {
                None => true,
                // Interior block: the bulk chunker's window must not reach
                // the next block (it never does when the next block starts
                // a full window later — always true for untouched
                // neighbours), and a short gap block would be extended
                // with the next block's entries, so only a full one stands.
                Some(next_first) => {
                    (next_first - decoded[0]) as usize >= BLOCK_LEN
                        && (bitmap || decoded.len() == BLOCK_LEN)
                }
            };
        if local_ok {
            self.rewrite_block(idx, &decoded, bitmap);
        } else {
            let mut suffix = decoded;
            for i in idx + 1..self.num_blocks() {
                self.decode_block_into(i, &mut suffix);
            }
            self.rechunk_from(idx, &suffix);
        }
    }

    /// Index of the first block that can hold a slot ≥ `lo` (blocks before
    /// it end strictly below the *following* block's `first` ≤ `lo`).
    #[inline]
    fn first_block_reaching(&self, lo: usize) -> usize {
        if lo == 0 || self.blocks.is_empty() {
            return 0;
        }
        self.blocks
            .partition_point(|b| (b.first as usize) <= lo)
            .saturating_sub(1)
    }

    /// The walk behind [`PostingList::for_each_chunk_in_range`]: whole
    /// blocks are skipped on `first` alone, and each surviving block is
    /// handed to `f` as one ascending [`PostingChunk`]. Bitmap blocks pass
    /// their 16-byte mask through undecoded (range-cut boundary blocks
    /// with out-of-range bits cleared); gap blocks and dense runs
    /// materialise into `buf` first via the 4-lane unrolled prefix sum.
    fn for_each_chunk_in_range<F: FnMut(PostingChunk)>(
        &self,
        lo: usize,
        hi: usize,
        buf: &mut Vec<u32>,
        mut f: F,
    ) {
        if self.len == 0 || lo >= hi || (self.last as usize) < lo {
            return;
        }
        if self.blocks.is_empty() {
            // Single inline block — the common case under any realistic df
            // distribution; no metadata vector is touched at all.
            if (self.first as usize) < hi {
                let below_hi = (self.last as usize) < hi;
                let b = self.meta(0);
                self.chunk_block(b, below_hi, lo, hi, buf, &mut f);
            }
            return;
        }
        let nblocks = self.blocks.len();
        for idx in self.first_block_reaching(lo)..nblocks {
            let b = self.blocks[idx];
            if (b.first as usize) >= hi {
                // Every later block starts even higher: done.
                break;
            }
            // All of this block's slots are below `hi` iff the *next*
            // block's first is (slots are strictly below it); the final
            // block compares its exact `last`.
            let below_hi = match self.blocks.get(idx + 1) {
                Some(next) => (next.first as usize) <= hi,
                None => (self.last as usize) < hi,
            };
            self.chunk_block(b, below_hi, lo, hi, buf, &mut f);
        }
    }

    /// Emits one surviving block of a chunked walk. `below_hi` asserts
    /// that every slot of the block is below `hi` (the caller derives it
    /// from the next block's `first`). Bitmap blocks always hand off
    /// undecoded — a boundary block just clears the out-of-range bits of
    /// the mask first. Gap blocks always decode in full with the unrolled
    /// prefix sum and trim to the range by binary search, which beats a
    /// fused per-slot decode that range-checks every slot.
    #[inline]
    fn chunk_block<F: FnMut(PostingChunk)>(
        &self,
        b: BlockMeta,
        below_hi: bool,
        lo: usize,
        hi: usize,
        buf: &mut Vec<u32>,
        f: &mut F,
    ) {
        let first = b.first as usize;
        let n = b.len as usize;
        if b.width == BITMAP_WIDTH {
            let w = b.word_offset as usize;
            let mut words = [self.words[w], self.words[w + 1]];
            if first < lo || !below_hi {
                let lo_rel = lo.saturating_sub(first);
                let hi_rel = if below_hi {
                    BLOCK_LEN
                } else {
                    (hi - first).min(BLOCK_LEN)
                };
                for (wi, word) in words.iter_mut().enumerate() {
                    let start = wi * 64;
                    let lo_w = lo_rel.saturating_sub(start).min(64) as u32;
                    let hi_w = hi_rel.saturating_sub(start).min(64) as u32;
                    // Bits [lo_w, hi_w) survive; `upper & !lower` is empty
                    // on its own whenever `hi_w <= lo_w`.
                    let upper = if hi_w == 64 {
                        u64::MAX
                    } else {
                        (1u64 << hi_w) - 1
                    };
                    let lower = if lo_w == 64 {
                        u64::MAX
                    } else {
                        (1u64 << lo_w) - 1
                    };
                    *word &= upper & !lower;
                }
            }
            if words != [0; BITMAP_WORDS] {
                f(PostingChunk::Bitmap {
                    base: b.first,
                    words,
                });
            }
            return;
        }
        if b.width == 0 {
            // Consecutive run `first..first + n`: the sub-range is pure
            // arithmetic, no decode.
            let s = lo.saturating_sub(first).min(n);
            let e = n.min(hi - first);
            if s < e {
                buf.clear();
                buf.extend((first + s..first + e).map(|slot| slot as u32));
                f(PostingChunk::Slots(buf));
            }
            return;
        }
        buf.clear();
        self.decode_payload_unrolled(b, buf);
        let s = if first >= lo {
            0
        } else {
            buf.partition_point(|&p| (p as usize) < lo)
        };
        let e = if below_hi {
            buf.len()
        } else {
            buf.partition_point(|&p| (p as usize) < hi)
        };
        if s < e {
            f(PostingChunk::Slots(&buf[s..e]));
        }
    }

    /// Batched decode of one gap block's payload into `out`: extracts four
    /// gap lanes per iteration from the non-straddling word layout and
    /// resolves them with a short explicit prefix sum, so the four loads
    /// and adds issue in parallel instead of serialising on one
    /// shift-mask-add chain (portable unrolling — no SIMD intrinsics).
    fn decode_payload_unrolled(&self, b: BlockMeta, out: &mut Vec<u32>) {
        debug_assert!(b.width > 0 && b.width != BITMAP_WIDTH);
        let width = b.width as usize;
        let mask = (1u64 << width) - 1;
        let per_word = 64 / width;
        let words = &self.words[b.word_offset as usize..];
        let mut prev = b.first;
        out.reserve(b.len as usize);
        out.push(prev);
        let mut remaining = b.len as usize - 1;
        let mut widx = 0usize;
        while remaining > 0 {
            let mut v = words[widx];
            widx += 1;
            let take = remaining.min(per_word);
            let mut k = take;
            while k >= 4 {
                let g0 = (v & mask) as u32 + 1;
                let g1 = ((v >> width) & mask) as u32 + 1;
                let g2 = ((v >> (2 * width)) & mask) as u32 + 1;
                let g3 = ((v >> (3 * width)) & mask) as u32 + 1;
                let p1 = prev + g0;
                let p2 = p1 + g1;
                let p3 = p2 + g2;
                prev = p3 + g3;
                out.push(p1);
                out.push(p2);
                out.push(p3);
                out.push(prev);
                k -= 4;
                if k > 0 {
                    // Four more lanes exist, so `per_word ≥ 5` and the
                    // shift stays below 64 bits (`width ≤ 12`).
                    v >>= 4 * width;
                }
            }
            while k > 0 {
                prev += (v & mask) as u32 + 1;
                out.push(prev);
                v >>= width;
                k -= 1;
            }
            remaining -= take;
        }
    }

    /// Decodes one block (by metadata) into `out` — backs
    /// [`PackedList::decode_block_into`].
    fn decode_block(&self, b: BlockMeta, out: &mut Vec<u32>) {
        let n = b.len as usize;
        if b.width == 0 {
            // Consecutive run: no payload to read.
            out.reserve(n);
            let mut prev = b.first;
            out.push(prev);
            for _ in 1..n {
                prev += 1;
                out.push(prev);
            }
            return;
        }
        if b.width == BITMAP_WIDTH {
            let w = b.word_offset as usize;
            out.reserve(n);
            PostingChunk::Bitmap {
                base: b.first,
                words: [self.words[w], self.words[w + 1]],
            }
            .for_each_slot(|slot| out.push(slot));
            return;
        }
        self.decode_payload_unrolled(b, out);
    }

    /// Adds one to every stored slot ≥ `slot`. Both block encodings are
    /// shift-invariant, so blocks entirely at or past the boundary only
    /// bump their `first`; at most one block (the one the boundary lands
    /// inside) is re-encoded.
    fn renumber_from(&mut self, slot: u32) {
        if self.len == 0 || self.last < slot {
            return;
        }
        self.last += 1;
        if self.blocks.is_empty() {
            // Single inline block.
            if self.first >= slot {
                // Wholesale shift: the relative encoding is unchanged,
                // only `first` moves.
                self.first += 1;
                return;
            }
            return self.renumber_straddling_block(0, slot);
        }
        let idx = self.blocks.partition_point(|b| b.first < slot);
        for b in &mut self.blocks[idx..] {
            b.first += 1;
        }
        if idx == 0 {
            // Every block shifted wholesale, including the head: keep the
            // list-level `first` mirror coherent (the derived `PartialEq`
            // and the insert-equals-rebuild contract compare it).
            self.first += 1;
            return;
        }
        // The block before the wholesale-shifted suffix straddles the
        // boundary iff its last slot reaches `slot`.
        self.renumber_straddling_block(idx - 1, slot);
    }

    /// Decodes block `idx`, bumps its entries ≥ `slot` by one and
    /// re-encodes it — the one block a renumber actually rewrites (a
    /// suffix re-chunk only happens if the grown gap changes the block's
    /// kind or extent).
    fn renumber_straddling_block(&mut self, idx: usize, slot: u32) {
        let mut decoded = Vec::with_capacity(self.meta(idx).len as usize);
        self.decode_block_into(idx, &mut decoded);
        let at = decoded.partition_point(|&s| s < slot);
        if at == decoded.len() {
            return;
        }
        for s in &mut decoded[at..] {
            *s += 1;
        }
        self.replace_block(idx, decoded);
    }

    /// Splices `slot` (not currently present) into sorted position.
    fn insert_sorted(&mut self, slot: u32) {
        if self.len == 0 {
            // A one-slot list is pure inline state: no heap at all.
            self.first = slot;
            self.last = slot;
            self.width = 0;
            self.len = 1;
            return;
        }
        if slot > self.last {
            // Append fast path: only the final block is touched (the
            // replacement re-chunks if the grown block must split).
            let tail = self.num_blocks() - 1;
            let tail_len = self.meta(tail).len as usize;
            let mut decoded = Vec::with_capacity(tail_len + 1);
            self.decode_block_into(tail, &mut decoded);
            decoded.push(slot);
            self.replace_block(tail, decoded);
            self.len += 1;
            self.last = slot;
            return;
        }
        // Splice into the block whose range holds `slot` (the head block
        // for a new smallest slot); the replacement re-chunks the suffix
        // when the grown block no longer matches a bulk cut.
        let idx = if self.blocks.is_empty() {
            0
        } else {
            self.blocks
                .partition_point(|b| b.first <= slot)
                .saturating_sub(1)
        };
        let mut decoded = Vec::with_capacity(self.meta(idx).len as usize + 1);
        self.decode_block_into(idx, &mut decoded);
        let at = decoded.partition_point(|&s| s < slot);
        decoded.insert(at, slot);
        self.replace_block(idx, decoded);
        self.len += 1;
    }

    /// Heap bytes held by the list (payload words + block metadata);
    /// arenas borrowed from a loaded file count zero, as their bytes
    /// belong to the file buffer.
    fn heap_bytes(&self) -> usize {
        self.words.owned_capacity_bytes() + self.blocks.owned_capacity_bytes()
    }

    /// The list's flat parts, in the order the persistence layer writes
    /// them: `(blocks, words, len, first, last, width)`.
    pub(crate) fn persist_parts(&self) -> (&[BlockMeta], &[u64], u32, u32, u32, u8) {
        (
            &self.blocks,
            &self.words,
            self.len,
            self.first,
            self.last,
            self.width,
        )
    }

    /// Reassembles a list from its flat parts (typically borrowed
    /// zero-copy from a loaded arena file). The caller runs
    /// [`PackedList::validate_loaded`] before the list is queried.
    pub(crate) fn from_persist_parts(
        blocks: ArenaVec<BlockMeta>,
        words: ArenaVec<u64>,
        len: u32,
        first: u32,
        last: u32,
        width: u8,
    ) -> Self {
        PackedList {
            blocks,
            words,
            len,
            first,
            last,
            width,
        }
    }

    /// Structural validity of a list deserialized from an arena file:
    /// every block's payload range must lie inside `words`, widths must be
    /// decodable, block `first`s must ascend, and every slot must stay
    /// below `slot_bound` (the store's slot count). The checks bound every
    /// slice index the walk paths ever compute, without decoding any
    /// payload, so a corrupt-but-checksummed file can be rejected with a
    /// typed error instead of a panic.
    pub(crate) fn validate_loaded(&self, slot_bound: usize) -> bool {
        fn valid_width(w: u8) -> bool {
            w <= 32 || w == BITMAP_WIDTH
        }
        if self.len == 0 {
            return self.blocks.is_empty() && self.words.is_empty();
        }
        if (self.last as usize) >= slot_bound || self.first > self.last {
            return false;
        }
        if self.blocks.is_empty() {
            // Single inline block.
            return self.len as usize <= BLOCK_LEN
                && valid_width(self.width)
                && self.meta(0).word_span() <= self.words.len();
        }
        if self.width != 0
            || self.blocks.len() < 2
            || (self.len as usize) < self.blocks.len()
            || self.blocks[0].first != self.first
        {
            return false;
        }
        let mut prev_first: Option<u32> = None;
        for b in self.blocks.iter() {
            if b.len == 0 || b.len as usize > BLOCK_LEN || !valid_width(b.width) {
                return false;
            }
            if prev_first.is_some_and(|p| b.first <= p) {
                return false;
            }
            prev_first = Some(b.first);
            let off = b.word_offset as usize;
            if off > self.words.len() || b.word_span() > self.words.len() - off {
                return false;
            }
        }
        true
    }
}

/// One inverted posting list: an ascending, deduplicated sequence of slot
/// numbers behind a build-time [`PostingFormat`]. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub enum PostingList {
    /// Plain ascending slot list (the ablation and correctness oracle) —
    /// owned when built, borrowed zero-copy when loaded from an arena
    /// file.
    Raw(ArenaVec<u32>),
    /// Block-compressed hybrid gap-packed/bitmap representation.
    Packed(PackedList),
}

impl PostingList {
    /// An empty list of the given format.
    pub fn new(format: PostingFormat) -> Self {
        match format {
            PostingFormat::Raw => PostingList::Raw(ArenaVec::default()),
            PostingFormat::Packed => PostingList::Packed(PackedList::default()),
        }
    }

    /// Builds a list of the given format from an ascending, deduplicated
    /// slot vector. The raw format takes the vector as-is (keeping its
    /// capacity, exactly as the pre-subsystem build did); the packed format
    /// encodes and drops it.
    pub fn from_sorted(format: PostingFormat, slots: Vec<u32>) -> Self {
        debug_assert!(slots.windows(2).all(|w| w[0] < w[1]));
        match format {
            PostingFormat::Raw => PostingList::Raw(slots.into()),
            PostingFormat::Packed => PostingList::Packed(PackedList::from_sorted(&slots)),
        }
    }

    /// Number of stored slots.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            PostingList::Raw(list) => list.len(),
            PostingList::Packed(packed) => packed.len as usize,
        }
    }

    /// Whether the list holds no slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of bitmap-encoded blocks (0 on the raw format) — the
    /// diagnostic the dense-profile bench gates on.
    pub fn bitmap_blocks(&self) -> usize {
        match self {
            PostingList::Raw(_) => 0,
            PostingList::Packed(packed) => packed.bitmap_blocks(),
        }
    }

    /// Calls `f` on every stored slot in `lo..hi`, in ascending order — the
    /// per-slot view of [`PostingList::for_each_chunk_in_range`].
    ///
    /// `buf` is the caller's reusable block-decode scratch (unused by the
    /// raw representation); its contents are clobbered.
    #[inline]
    pub fn for_each_in_range<F: FnMut(u32)>(
        &self,
        lo: usize,
        hi: usize,
        buf: &mut Vec<u32>,
        mut f: F,
    ) {
        self.for_each_chunk_in_range(lo, hi, buf, |chunk| chunk.for_each_slot(&mut f));
    }

    /// Calls `f` on every stored slot in `lo..hi`, in ascending order,
    /// **one [`PostingChunk`] at a time** — the walk the candidates
    /// stage's batched accumulate consumes. The raw representation hands
    /// out its cut sub-slice in a single copy-free chunk; the packed
    /// representation hands out each surviving block — fully-in-range
    /// bitmap blocks as their undecoded mask, everything else materialised
    /// into `buf`. Raw lists are cut with binary searches (plus `lo == 0` /
    /// short-list fast paths); packed lists skip whole blocks on `first`
    /// and cut the boundary blocks — same slots, same order, either way.
    #[inline]
    pub fn for_each_chunk_in_range<F: FnMut(PostingChunk)>(
        &self,
        lo: usize,
        hi: usize,
        buf: &mut Vec<u32>,
        mut f: F,
    ) {
        match self {
            PostingList::Raw(list) => {
                let (start, end) = raw_range_bounds(list, lo, hi);
                if start < end {
                    f(PostingChunk::Slots(&list[start..end]));
                }
            }
            PostingList::Packed(packed) => packed.for_each_chunk_in_range(lo, hi, buf, f),
        }
    }

    /// Calls `f` on every stored slot in ascending order (the whole-list
    /// walk).
    #[inline]
    pub fn for_each<F: FnMut(u32)>(&self, buf: &mut Vec<u32>, f: F) {
        self.for_each_in_range(0, usize::MAX, buf, f);
    }

    /// Adds one to every stored slot ≥ `slot` (the posting half of a store
    /// splice: every store slot at or above the insertion point was
    /// renumbered up by one).
    pub fn renumber_from(&mut self, slot: u32) {
        match self {
            PostingList::Raw(list) => {
                for s in list.iter_mut() {
                    if *s >= slot {
                        *s += 1;
                    }
                }
            }
            PostingList::Packed(packed) => packed.renumber_from(slot),
        }
    }

    /// Splices `slot` into sorted position. The slot must not already be
    /// present (posting lists are deduplicated by construction: a record
    /// contributes each hash/bit at most once).
    pub fn insert_sorted(&mut self, slot: u32) {
        match self {
            PostingList::Raw(list) => {
                let at = list.partition_point(|&s| s < slot);
                list.to_mut().insert(at, slot);
            }
            PostingList::Packed(packed) => packed.insert_sorted(slot),
        }
    }

    /// Heap bytes held by the list — the per-list contribution to the
    /// index's posting-arena footprint (`Vec` capacities, i.e. what the
    /// allocator actually handed out, not just the live length). Arenas
    /// borrowed from a loaded file count zero.
    pub fn heap_bytes(&self) -> usize {
        match self {
            PostingList::Raw(list) => list.owned_capacity_bytes(),
            PostingList::Packed(packed) => packed.heap_bytes(),
        }
    }

    /// The raw variant's slot slice, if this is one (persistence).
    pub(crate) fn raw_slots(&self) -> Option<&[u32]> {
        match self {
            PostingList::Raw(list) => Some(list),
            PostingList::Packed(_) => None,
        }
    }

    /// The packed variant, if this is one (persistence).
    pub(crate) fn packed(&self) -> Option<&PackedList> {
        match self {
            PostingList::Raw(_) => None,
            PostingList::Packed(packed) => Some(packed),
        }
    }

    /// Wraps a (typically borrowed) slot arena as a raw list (persistence).
    pub(crate) fn from_raw_arena(slots: ArenaVec<u32>) -> Self {
        PostingList::Raw(slots)
    }

    /// Accumulates this list's content bytes — raw slots vs packed payload
    /// vs block metadata — and its borrowed-from-file subset into `usage`.
    pub(crate) fn mem_contrib(&self, usage: &mut MemUsage) {
        match self {
            PostingList::Raw(list) => {
                usage.postings_raw_bytes += std::mem::size_of_val(list.as_slice());
                usage.borrowed_bytes += list.borrowed_bytes();
            }
            PostingList::Packed(packed) => {
                usage.postings_packed_bytes += std::mem::size_of_val(packed.words.as_slice());
                usage.posting_block_meta_bytes += std::mem::size_of_val(packed.blocks.as_slice());
                usage.borrowed_bytes +=
                    packed.words.borrowed_bytes() + packed.blocks.borrowed_bytes();
            }
        }
    }

    /// Decodes the full list (tests and diagnostics; query paths stream
    /// through [`PostingList::for_each_chunk_in_range`] instead).
    pub fn to_vec(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len());
        let mut buf = Vec::new();
        self.for_each(&mut buf, |slot| out.push(slot));
        out
    }
}

/// The `[start, end)` index range of a raw list's slots within the slot
/// range `lo..hi`: the same binary searches (and the same `lo == 0` /
/// short-list fast paths) the candidates stage used before the posting
/// subsystem existed.
#[inline]
fn raw_range_bounds(list: &[u32], lo: usize, hi: usize) -> (usize, usize) {
    let start = if lo == 0 {
        // Common case (sequential path): skip the binary search.
        0
    } else {
        list.partition_point(|&slot| (slot as usize) < lo)
    };
    let end = match list.last() {
        // Only search for the cutoff when the list actually extends past
        // it; otherwise (pruning disabled, or a low threshold) the whole
        // list survives search-free.
        Some(&last) if (last as usize) >= hi => list.partition_point(|&slot| (slot as usize) < hi),
        _ => list.len(),
    };
    (start, end.max(start))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both(slots: &[u32]) -> [PostingList; 2] {
        [
            PostingList::from_sorted(PostingFormat::Raw, slots.to_vec()),
            PostingList::from_sorted(PostingFormat::Packed, slots.to_vec()),
        ]
    }

    fn range_of(list: &PostingList, lo: usize, hi: usize) -> Vec<u32> {
        let mut out = Vec::new();
        let mut buf = Vec::new();
        list.for_each_in_range(lo, hi, &mut buf, |s| out.push(s));
        out
    }

    fn chunk_range_of(list: &PostingList, lo: usize, hi: usize) -> Vec<u32> {
        let mut out = Vec::new();
        let mut buf = Vec::new();
        list.for_each_chunk_in_range(lo, hi, &mut buf, |chunk| {
            let before = out.len();
            chunk.for_each_slot(|slot| out.push(slot));
            assert!(out.len() > before, "empty chunk handed out");
        });
        out
    }

    /// A shape whose interior windows are dense but not consecutive, so
    /// the chunker picks bitmap blocks: 112 of each 128-slot window, with
    /// an occasional gap of 3 forcing width 2 — gap-encoding a window
    /// needs ⌈111/32⌉ = 4 words, twice the 2-word mask.
    fn bitmap_heavy_slots(n: usize) -> Vec<u32> {
        (0..n as u32).filter(|i| !matches!(i % 16, 5 | 6)).collect()
    }

    #[test]
    fn round_trips_representative_shapes() {
        let shapes: [&[u32]; 8] = [
            &[],
            &[0],
            &[7],
            &[u32::MAX],
            &[0, 1, 2, 3, 4, 5, 6, 7],         // dense run, width 0
            &[0, u32::MAX],                    // maximal gap, width 32
            &[3, 9, 10, 11, 500, 501, 70_000], // mixed gaps
            &[0, 2, 4, 1_000_000, 1_000_001, u32::MAX], // mixed extremes
        ];
        for slots in shapes {
            for list in both(slots) {
                assert_eq!(list.to_vec(), slots, "{list:?} did not round-trip");
                assert_eq!(list.len(), slots.len());
                assert_eq!(list.is_empty(), slots.is_empty());
            }
        }
    }

    #[test]
    fn round_trips_across_block_boundaries() {
        for n in [BLOCK_LEN - 1, BLOCK_LEN, BLOCK_LEN + 1, 3 * BLOCK_LEN + 5] {
            let slots: Vec<u32> = (0..n as u32).map(|i| i * 37 + (i % 3)).collect();
            let list = PostingList::from_sorted(PostingFormat::Packed, slots.clone());
            assert_eq!(list.to_vec(), slots, "n = {n}");
        }
    }

    #[test]
    fn bitmap_blocks_round_trip_and_walk_in_range() {
        // Dense-but-gappy windows: gap-encoding a 128-slot window of 112
        // width-2 entries needs 4 words, so the chunker must pick the
        // 2-word mask.
        let slots = bitmap_heavy_slots(1000);
        let [raw, packed] = both(&slots);
        assert!(
            packed.bitmap_blocks() > 0,
            "dense windows did not engage the bitmap encoding"
        );
        assert_eq!(raw.bitmap_blocks(), 0);
        assert_eq!(packed.to_vec(), slots);
        for lo in [0usize, 1, 63, 64, 127, 128, 129, 500, 999] {
            for hi in [0usize, 1, 64, 128, 200, 500, 999, 1000, usize::MAX] {
                assert_eq!(
                    range_of(&raw, lo, hi),
                    range_of(&packed, lo, hi),
                    "formats disagree on {lo}..{hi}"
                );
            }
        }
    }

    #[test]
    fn bitmap_blocks_never_beat_by_dense_runs() {
        // Fully consecutive runs must stay width-0 gap blocks (zero
        // payload beats any mask), not bitmaps.
        let dense: Vec<u32> = (0..1000u32).collect();
        let list = PostingList::from_sorted(PostingFormat::Packed, dense);
        assert_eq!(list.bitmap_blocks(), 0);
    }

    #[test]
    fn in_range_truncates_by_slot_number() {
        // The contract the candidates stage relied on when it truncated raw
        // slices directly, now pinned for both formats.
        for list in both(&[0, 2, 5, 9]) {
            assert_eq!(range_of(&list, 0, 6), &[0, 2, 5]);
            assert_eq!(range_of(&list, 0, 10), &[0, 2, 5, 9]);
            assert_eq!(range_of(&list, 0, 0), &[] as &[u32]);
            assert_eq!(range_of(&list, 0, usize::MAX), &[0, 2, 5, 9]);
            // Sub-ranges of the parallel path.
            assert_eq!(range_of(&list, 2, 6), &[2, 5]);
            assert_eq!(range_of(&list, 3, 9), &[5]);
            assert_eq!(range_of(&list, 9, 10), &[9]);
            assert_eq!(range_of(&list, 10, 12), &[] as &[u32]);
            // Degenerate range (lo ≥ hi) must stay empty, not panic.
            assert_eq!(range_of(&list, 6, 2), &[] as &[u32]);
        }
        for list in both(&[]) {
            assert_eq!(range_of(&list, 0, 3), &[] as &[u32]);
        }
    }

    #[test]
    fn range_walks_agree_across_formats_and_block_boundaries() {
        // Strictly ascending with mixed gap widths (1 and 4).
        let slots: Vec<u32> = (0..400u32).map(|i| i * 3 + (i % 3)).collect();
        let [raw, packed] = both(&slots);
        let max = *slots.last().unwrap() as usize;
        for lo in [0, 1, 127, 128, 129, 500, max, max + 1] {
            for hi in [0, 1, 128, 384, 385, max, max + 1, usize::MAX] {
                assert_eq!(
                    range_of(&raw, lo, hi),
                    range_of(&packed, lo, hi),
                    "formats disagree on {lo}..{hi}"
                );
            }
        }
    }

    #[test]
    fn chunked_walks_match_the_range_filtered_input() {
        // The chunk walk must visit exactly the input slots inside `lo..hi`,
        // in order, for every range and both formats — including
        // bitmap-heavy, gap-heavy and dense-run shapes. The oracle is the
        // sorted input itself, independent of any walk.
        let shapes: [Vec<u32>; 4] = [
            (0..400u32).map(|i| i * 3 + (i % 3)).collect(),
            bitmap_heavy_slots(900),
            (0..300u32).collect(),
            vec![5, 9, 1_000_000],
        ];
        for slots in &shapes {
            let max = slots.last().copied().unwrap_or(0) as usize;
            for list in both(slots) {
                for lo in [0, 1, 64, 127, 128, 129, max / 2, max, max + 1] {
                    for hi in [0, 1, 65, 128, 256, max / 2 + 1, max, max + 1, usize::MAX] {
                        let expected: Vec<u32> = slots
                            .iter()
                            .copied()
                            .filter(|&s| (s as usize) >= lo && (s as usize) < hi)
                            .collect();
                        assert_eq!(
                            chunk_range_of(&list, lo, hi),
                            expected,
                            "chunked walk diverged on {lo}..{hi}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn renumber_matches_raw_oracle() {
        let slots: Vec<u32> = (0..300u32).map(|i| i * 2).collect();
        for boundary in [0u32, 1, 5, 127, 128, 256, 598, 599, 10_000] {
            let [mut raw, mut packed] = both(&slots);
            raw.renumber_from(boundary);
            packed.renumber_from(boundary);
            assert_eq!(raw.to_vec(), packed.to_vec(), "boundary {boundary}");
        }
    }

    #[test]
    fn renumber_rewrites_only_the_straddling_block_width() {
        // A renumber whose boundary gap growth forces a wider bit width:
        // the straddling block re-encodes, later blocks only shift `first`.
        let mut slots: Vec<u32> = (0..200u32).collect(); // width-0 runs
        let mut list = PackedList::from_sorted(&slots);
        list.renumber_from(100);
        for s in &mut slots {
            if *s >= 100 {
                *s += 1;
            }
        }
        let as_list = PostingList::Packed(list);
        assert_eq!(as_list.to_vec(), slots);
    }

    #[test]
    fn mutations_on_bitmap_blocks_match_raw_oracle_and_rebuild() {
        let base = bitmap_heavy_slots(700);
        // Renumber across head / bitmap-interior / tail boundaries.
        for boundary in [0u32, 1, 64, 127, 128, 300, 699, 700, 5_000] {
            let [mut raw, mut packed] = both(&base);
            raw.renumber_from(boundary);
            packed.renumber_from(boundary);
            assert_eq!(raw.to_vec(), packed.to_vec(), "boundary {boundary}");
            let rebuilt = PostingList::from_sorted(PostingFormat::Packed, raw.to_vec());
            assert_eq!(packed, rebuilt, "renumber {boundary} diverged structurally");
        }
        // Splices into mask holes, block boundaries and past the tail
        // (base holds every value except those ≡ 5 or 6 mod 16).
        for slot in [5u32, 22, 117, 133, 325, 693, 703, 10_000] {
            let [mut raw, mut packed] = both(&base);
            raw.insert_sorted(slot);
            packed.insert_sorted(slot);
            assert_eq!(raw.to_vec(), packed.to_vec(), "insert {slot}");
            let rebuilt = PostingList::from_sorted(PostingFormat::Packed, raw.to_vec());
            assert_eq!(packed, rebuilt, "insert {slot} diverged structurally");
        }
    }

    #[test]
    fn insert_matches_raw_oracle_everywhere() {
        let base: Vec<u32> = (0..260u32).map(|i| i * 4 + 2).collect();
        // Head, in-block, block-boundary, tail-block and append positions
        // (none of these values is in `base`, which holds `4i + 2`).
        for slot in [0u32, 3, 500, 511, 512, 513, 700, 1037, 1039, 2_000] {
            let [mut raw, mut packed] = both(&base);
            raw.insert_sorted(slot);
            packed.insert_sorted(slot);
            assert_eq!(raw.to_vec(), packed.to_vec(), "insert {slot}");
            assert_eq!(raw.len(), base.len() + 1);
            assert_eq!(packed.len(), base.len() + 1);
        }
        // Insert into an empty list.
        for mut list in both(&[]) {
            list.insert_sorted(9);
            assert_eq!(list.to_vec(), &[9]);
        }
    }

    #[test]
    fn multi_block_mutations_keep_structural_equality_with_rebuild() {
        // Regression: a renumber or head splice on a multi-block list must
        // leave the list *structurally* equal (derived PartialEq, which
        // the shard insert-equals-rebuild tests rely on) to a fresh
        // encoding of the mutated contents — including the inline `first`
        // mirror, which earlier went stale when every block shifted.
        let slots: Vec<u32> = (0..400u32).map(|i| i * 2 + 2).collect();
        let mut renumbered = PackedList::from_sorted(&slots);
        renumbered.renumber_from(0); // idx == 0: every block shifts
        let expected: Vec<u32> = slots.iter().map(|&s| s + 1).collect();
        assert_eq!(renumbered, PackedList::from_sorted(&expected));

        let mut spliced = PackedList::from_sorted(&slots);
        spliced.insert_sorted(0); // head splice re-chunks from block 0
        let mut expected = slots.clone();
        expected.insert(0, 0);
        assert_eq!(spliced, PackedList::from_sorted(&expected));
    }

    #[test]
    fn append_grows_one_block_at_a_time() {
        let mut list = PostingList::new(PostingFormat::Packed);
        let mut oracle = Vec::new();
        for i in 0..(2 * BLOCK_LEN as u32 + 7) {
            let slot = i * 3;
            list.insert_sorted(slot);
            oracle.push(slot);
        }
        assert_eq!(list.to_vec(), oracle);
    }

    #[test]
    fn incremental_growth_matches_bulk_encoding_structurally() {
        // Appending one slot at a time must route every intermediate list
        // through the same chunker decisions as a bulk encode — across
        // gap, dense-run and bitmap shapes.
        let shapes: [Vec<u32>; 3] = [
            (0..300u32).map(|i| i * 3).collect(),
            bitmap_heavy_slots(400),
            (0..300u32).collect(),
        ];
        for slots in &shapes {
            let mut grown = PackedList::default();
            for (i, &s) in slots.iter().enumerate() {
                grown.insert_sorted(s);
                assert_eq!(
                    grown,
                    PackedList::from_sorted(&slots[..=i]),
                    "growth diverged from bulk at entry {i}"
                );
            }
        }
    }

    #[test]
    fn packed_is_smaller_than_raw_on_long_lists() {
        // A long list over a realistically sized slot space: the packed
        // representation must be well under half the raw bytes.
        let slots: Vec<u32> = (0..2_000u32).map(|i| i * 5 + (i % 4)).collect();
        let [raw, packed] = both(&slots);
        assert!(
            packed.heap_bytes() * 2 <= raw.heap_bytes(),
            "packed {} bytes vs raw {} bytes",
            packed.heap_bytes(),
            raw.heap_bytes()
        );
        // Dense runs compress to (almost) nothing but block metadata.
        let dense: Vec<u32> = (0..2_000u32).collect();
        let dense_packed = PostingList::from_sorted(PostingFormat::Packed, dense);
        assert!(dense_packed.heap_bytes() <= 16 * (2_000usize).div_ceil(BLOCK_LEN) + 64);
    }

    #[test]
    fn bitmap_blocks_cost_the_flat_mask() {
        // A bitmap-heavy list costs ~16 payload bytes per 128-slot window
        // plus metadata, far below the gap encoding it displaced (which
        // needs ≥ 24 bytes per window by the chunker's own rule).
        let slots = bitmap_heavy_slots(1280); // 10 windows, 112 slots each
        let packed = PostingList::from_sorted(PostingFormat::Packed, slots.clone());
        let windows = 1280 / BLOCK_LEN;
        assert!(packed.bitmap_blocks() >= windows - 1);
        let mask_bytes = 16 * windows;
        let meta_bytes = 12 * (windows + 1);
        assert!(
            packed.heap_bytes() <= mask_bytes + meta_bytes + 64,
            "bitmap-heavy list holds {} bytes",
            packed.heap_bytes()
        );
    }
}
