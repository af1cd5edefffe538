//! Single-file zero-copy index arena: save a built [`GbKmvIndex`] to one
//! file and load it back by **borrowing** the heavy sections instead of
//! rebuilding — no re-hashing, no per-record decode, no posting-list
//! rebuild.
//!
//! # File layout (format version 2)
//!
//! ```text
//! offset 0   ┌────────────────────────────────────────────────┐
//!            │ header: 6 little-endian u64 words (48 bytes)   │
//!            │   magic | version | endian probe | file length │
//!            │   | header checksum | section count            │
//! offset 48  ├────────────────────────────────────────────────┤
//!            │ section table: (offset u64, length u64,        │
//!            │ checksum u64) per section; offsets 8-aligned   │
//!            ├────────────────────────────────────────────────┤
//!            │ section 0: global meta head (config, summary,  │
//!            │ sketcher, shard count — cursor-parsed)         │
//!            ├────────────────────────────────────────────────┤
//!            │ section 1: shard directory (lineage stamp +    │
//!            │ one dirty epoch per shard)                     │
//!            ├────────────────────────────────────────────────┤
//!            │ sections 2…: 13 per shard — the shard's meta   │
//!            │ stream (counts, df pairs, posting descriptors) │
//!            │ then its 12 arena sections, each padded to the │
//!            │ next 8-byte boundary                           │
//!            └────────────────────────────────────────────────┘
//! ```
//!
//! Per shard, the arena sections are, in order: hash arena (`u64`), CSR
//! hash offsets (`u64`), buffer bitmap arena (`u64`), record metadata
//! ([`RecordMeta`], 24 bytes each), slot→record-id permutation (`u32`),
//! record-id→slot permutation (`u32`), then the signature postings' three
//! sections — block-compressed payload words (`u64`) and block descriptors
//! (12 bytes each), both empty in the images this build writes, and the
//! slot arena (`u32`) — and three reserved buffer-posting sections.
//! Individual posting lists are carved out of the three shared arenas
//! sequentially, in the order their descriptors appear in the shard's meta
//! section (sorted by hash value), so the format needs no per-list offsets
//! and a save→load→save round trip is byte-identical.
//!
//! # Compatibility within version 2
//!
//! The index stores a record's buffer once, as its bitmap words; earlier
//! writers of this version also stored inverted buffer-bit postings. The
//! layout is kept, so both kinds of image open:
//!
//! * This build writes a buffer-posting count of 0 in every shard's meta
//!   stream, and the three buffer-posting sections are empty. An image
//!   that stores buffer postings (one list per buffered element) still
//!   opens: its sections are checksum-validated and length-checked against
//!   their descriptors like any other, then dropped. Each such shard gets
//!   a fresh dirty epoch on load, so a delta checkpoint against the old
//!   image rewrites it instead of copying its stale bytes, and the result
//!   stays byte-identical to a full save.
//! * The config byte that held the candidate-filter flag is always written
//!   as 1. An image with 0 there was built without signature postings and
//!   cannot be queried through the pipeline, so it is rejected with
//!   [`Error::PersistCorrupt`].
//! * The next config byte held the removed prefix-filter off switch (the
//!   filter now decides per query): written as 1, which every
//!   default-config image already held, read as 0 or 1 and dropped. Any
//!   other value is rejected with [`Error::PersistCorrupt`].
//! * The byte after it held the tag of a removed accumulate-kernel knob:
//!   written as 0, read as 0 or 1.
//! * Posting lists have one format, a plain ascending slot list. Earlier
//!   builds could store them block-compressed, tagged 0 in the config byte
//!   before the kernel byte and in each shard's meta stream. This build
//!   writes tag 1 in both places and leaves the two block-compressed
//!   sections empty. The config tag is read as 0 or 1 and dropped. A shard
//!   tagged 0 still opens: its lists are decoded into owned slot lists at
//!   load, and a block with a gap width above 32, a payload shorter than
//!   its descriptor claims, a bitmap whose base bit is clear, or slots that
//!   are not strictly ascending or reach past the shard is rejected with
//!   [`Error::PersistCorrupt`]. Such a shard gets a fresh dirty epoch on
//!   load, like a shard with buffer postings.
//!
//! # Zero-copy loading
//!
//! [`GbKmvIndex::from_arena_bytes`] validates everything it can on the raw
//! bytes first — header fields, the header checksum, every per-section
//! checksum, the section table, the full meta streams, every section
//! length, and the `bool` byte of every [`RecordMeta`] entry (the one
//! field where a stray bit pattern would be undefined behaviour rather
//! than merely wrong). Only then does it copy the file once into an
//! 8-byte-aligned buffer that is intentionally leaked for the process
//! lifetime, and reconstructs the index by casting each section to its
//! element type in place: every store arena and posting payload becomes an
//! [`ArenaVec::Borrowed`](crate::arena::ArenaVec) pointing into the buffer.
//! A handful of cheap structural checks (CSR offsets monotonic,
//! permutations in range, every posting list strictly ascending and inside
//! its shard) run on the typed views; if any fails the buffer is
//! reclaimed, so corrupt loads leak nothing. Truncated files, wrong magic or version, flipped
//! bits and misaligned section offsets all surface as typed
//! [`Error`] variants — never a panic.
//!
//! # Integrity is two-level (and that is what makes deltas cheap)
//!
//! The header checksum covers bytes `[40, end of section table)` — the
//! section count plus every `(offset, length, checksum)` entry — and each
//! section's own checksum covers that section's padded extent. Every byte
//! of the file is therefore protected (header fields by direct validation,
//! the table by the header checksum, payloads by the per-section sums),
//! and any single-bit flip is caught, but re-stamping a file whose
//! sections are partially reused costs O(reused table entries), not
//! O(reused bytes).
//!
//! # Delta checkpoints
//!
//! [`GbKmvIndex::to_arena_bytes_delta`] serialises against a previous
//! arena image: shards whose `(lineage, epoch)` stamps (see
//! [`ShardedIndex`]) match the previous file's shard directory have their
//! 13 sections — meta stream included — **copied byte-for-byte with their
//! stored checksums**, and only dirty shards (plus the small head,
//! directory and table) are re-serialised and re-summed, so a checkpoint
//! costs O(dirty shards), not O(index). The output is byte-identical to a
//! full [`GbKmvIndex::to_arena_bytes`] of the same index. The previous
//! image's skeleton (header words, header checksum, table bounds,
//! directory) is validated first and any mismatch — including a foreign
//! lineage — falls back to a full rewrite ([`DeltaStats::fallback`]);
//! reused payload bytes are deliberately *not* re-verified, so latent
//! corruption in the previous file is inherited together with its
//! now-mismatching stored checksum and still surfaces as a typed error
//! when the new file is opened.

use std::collections::HashMap;
use std::path::Path;

use crate::arena::ArenaVec;
use crate::buffer::BufferLayout;
use crate::cost::CostModelConfig;
use crate::error::{Error, Result};
use crate::gbkmv::GbKmvSketcher;
use crate::gkmv::GlobalThreshold;
use crate::hash::{mix64, Hasher64};
use crate::index::postings::PostingList;
use crate::index::sharded::{next_stamp, Shard};
use crate::index::{BufferSizing, GbKmvConfig, GbKmvIndex, IndexSummary, ShardedIndex};
use crate::store::{RecordMeta, SketchStore};

/// First eight bytes of every index arena file (`"GBKMVAR1"` as a
/// little-endian integer).
pub const ARENA_MAGIC: u64 = u64::from_le_bytes(*b"GBKMVAR1");

/// Format version this build writes and reads.
pub const ARENA_VERSION: u64 = 2;

/// Header word whose *native* byte interpretation must match: a file
/// written on a little-endian machine refuses to load where the zero-copy
/// casts would silently byte-swap.
const ENDIAN_PROBE: u64 = 0x0102_0304_0506_0708;

/// Bytes occupied by the six-word header.
const HEADER_LEN: usize = 48;

/// Byte offset the header checksum covers from (the section count and the
/// section table — everything after the checksum field itself up to the
/// end of the table; section payloads carry their own checksums).
const CHECKSUM_COVER_FROM: usize = 40;

/// Bytes per section-table entry: offset, length, checksum.
const TABLE_ENTRY_LEN: usize = 24;

/// Sections before the per-shard groups: the global meta head and the
/// shard directory.
const FIXED_SECTIONS: usize = 2;

/// Sections per shard: the shard's meta stream plus its 12 arena sections
/// (see the module docs for the order).
const SECTIONS_PER_SHARD: usize = 13;

// The zero-copy casts below are sound only if these `#[repr(C)]` layouts
// hold; a platform where they do not fails to compile instead of
// corrupting loads.
const _: () = assert!(std::mem::size_of::<RecordMeta>() == 24);
const _: () = assert!(std::mem::align_of::<RecordMeta>() == 8);

/// Offset of `RecordMeta::saturated` inside its 24-byte layout — the one
/// byte per entry that must be pre-validated (a `bool` backed by anything
/// but 0 or 1 is undefined behaviour).
const META_BOOL_OFFSET: usize = 16;

/// The posting-format tag of plain slot lists, written in the config and
/// in every shard's meta stream. Tag 0 marks the block-compressed lists of
/// earlier builds (see the module docs).
const RAW_POSTINGS: u8 = 1;

/// Most slots in one block of a block-compressed list, and the slot span of
/// a bitmap block's two-word mask.
const LEGACY_BLOCK_LEN: usize = 128;

/// Bytes per block descriptor of a block-compressed list: `first` (`u32`),
/// payload word offset (`u32`), `len` (`u8`), `width` (`u8`), 2 padding
/// bytes.
const LEGACY_BLOCK_META_LEN: usize = 12;

/// The descriptor `width` that marks a bitmap block.
const LEGACY_BITMAP_WIDTH: u8 = u8::MAX;

/// Checksum of a body that is a whole number of little-endian `u64` words:
/// a [`mix64`] fold, one word at a time.
fn checksum_of(body: &[u8]) -> u64 {
    debug_assert_eq!(body.len() % 8, 0);
    let mut acc = ARENA_MAGIC ^ ARENA_VERSION;
    for chunk in body.chunks_exact(8) {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact yields 8-byte chunks"));
        acc = mix64(acc ^ word);
    }
    acc
}

/// Recomputes every checksum of a serialized arena — each section's sum
/// over its padded extent, then the header sum over the section table —
/// and writes them back. This is the helper corruption tests use to craft
/// files whose checksums are valid but whose structure is not, so it is
/// deliberately lenient: table entries whose extents fall outside the
/// image keep their stored checksum (the loader rejects them
/// structurally), and an implausible section count leaves the header sum
/// covering whatever tail fits.
///
/// # Panics
///
/// Panics if `bytes` is shorter than the 48-byte header or not a multiple
/// of 8 bytes long (i.e. not even the shape of an arena image).
pub fn rewrite_checksum(bytes: &mut [u8]) {
    assert!(
        bytes.len() >= HEADER_LEN && bytes.len().is_multiple_of(8),
        "not an arena image: {} bytes",
        bytes.len()
    );
    let count = usize::try_from(read_header_word(bytes, 40)).unwrap_or(usize::MAX);
    let table_end = count
        .checked_mul(TABLE_ENTRY_LEN)
        .and_then(|t| t.checked_add(HEADER_LEN))
        .filter(|&end| end <= bytes.len())
        .unwrap_or(bytes.len());
    let entries = (table_end - HEADER_LEN) / TABLE_ENTRY_LEN;
    for i in 0..entries {
        let t = HEADER_LEN + i * TABLE_ENTRY_LEN;
        let off = read_header_word(bytes, t);
        let len = read_header_word(bytes, t + 8);
        let extent = usize::try_from(off).ok().and_then(|o| {
            usize::try_from(len)
                .ok()
                .and_then(|l| l.checked_next_multiple_of(8))
                .and_then(|p| p.checked_add(o))
                .filter(|&end| end <= bytes.len())
                .map(|end| (o, end))
        });
        if let Some((off, end)) = extent {
            let sum = checksum_of(&bytes[off..end]);
            bytes[t + 16..t + 24].copy_from_slice(&sum.to_le_bytes());
        }
    }
    let sum = checksum_of(&bytes[CHECKSUM_COVER_FROM..table_end]);
    bytes[32..40].copy_from_slice(&sum.to_le_bytes());
}

// ---------------------------------------------------------------------------
// Byte-level writers (save side)
// ---------------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn u64_section(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for &v in values {
        put_u64(&mut out, v);
    }
    out
}

fn u32_section(values: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for &v in values {
        put_u32(&mut out, v);
    }
    out
}

/// [`RecordMeta`] entries written field by field with explicit zero
/// padding, so the bytes are deterministic (a struct memcpy would leak
/// whatever the padding bytes held) and save→load→save is byte-identical.
fn meta_section(metas: &[RecordMeta]) -> Vec<u8> {
    let mut out = Vec::with_capacity(std::mem::size_of_val(metas));
    for m in metas {
        put_u64(&mut out, m.max_hash);
        put_u32(&mut out, m.record_size);
        put_u32(&mut out, m.gkmv_len);
        put_u8(&mut out, u8::from(m.saturated));
        out.extend_from_slice(&[0u8; 7]);
    }
    out
}

fn write_config(out: &mut Vec<u8>, c: &GbKmvConfig) {
    put_f64(out, c.space_fraction);
    match c.budget_elements {
        None => {
            put_u8(out, 0);
            put_u64(out, 0);
        }
        Some(b) => {
            put_u8(out, 1);
            put_u64(out, b as u64);
        }
    }
    match c.buffer {
        BufferSizing::Auto => {
            put_u8(out, 0);
            put_u64(out, 0);
        }
        BufferSizing::Fixed(r) => {
            put_u8(out, 1);
            put_u64(out, r as u64);
        }
    }
    put_u64(out, c.hash_seed);
    // The former candidate-filter flag: every index has signature
    // postings, so it is always 1 (see the module docs).
    put_u8(out, 1);
    // The former prefix-filter flag: the filter is always on (it decides
    // per query), so it is always 1 (see the module docs).
    put_u8(out, 1);
    put_u64(out, c.threads as u64);
    put_u64(out, c.shards as u64);
    put_u8(out, RAW_POSTINGS);
    // Reserved byte: it held the tag of a since-removed accumulate-kernel
    // knob. Always written as 0 so the layout (and version) stay put.
    put_u8(out, 0);
    put_u64(out, c.cost_model.grid_step as u64);
    put_u64(out, c.cost_model.max_buffer_size as u64);
    put_u64(out, c.cost_model.pair_sample_size as u64);
    put_u64(out, c.ingest_batch as u64);
}

fn write_summary(out: &mut Vec<u8>, s: &IndexSummary) {
    put_u64(out, s.budget_elements as u64);
    put_u64(out, s.buffer_size as u64);
    put_f64(out, s.tau);
    put_f64(out, s.space_used_elements);
    put_f64(out, s.space_used_fraction);
    put_u64(out, s.num_records as u64);
}

/// Writes one posting list: a descriptor (tag 0, slot count) into the meta
/// stream and its slots appended to the shard's slot arena.
fn write_posting(meta: &mut Vec<u8>, list: &PostingList, raw: &mut Vec<u8>) {
    put_u8(meta, 0);
    put_u32(meta, list.len() as u32);
    for &s in list.as_slice() {
        put_u32(raw, s);
    }
}

/// One section destined for an assembled arena image: freshly serialized
/// bytes (checksum computed here), or an extent reused verbatim from a
/// previous image together with its already-stored checksum.
enum SectionSrc<'a> {
    Fresh(Vec<u8>),
    Reused { bytes: &'a [u8], checksum: u64 },
}

impl SectionSrc<'_> {
    fn bytes(&self) -> &[u8] {
        match self {
            SectionSrc::Fresh(v) => v,
            SectionSrc::Reused { bytes, .. } => bytes,
        }
    }
}

/// Lays the sections out in `out` (emptied first, its capacity reused)
/// after the header and table (each starting on an 8-byte boundary),
/// fills in the header, and stamps the per-section and header checksums.
/// Reused sections keep their stored checksum — that is what makes a
/// delta O(dirty): clean payloads are copied, never re-summed.
fn assemble_into(sections: Vec<SectionSrc>, out: &mut Vec<u8>) {
    let table_end = HEADER_LEN + sections.len() * TABLE_ENTRY_LEN;
    let mut offset = table_end;
    let mut table: Vec<(usize, usize)> = Vec::with_capacity(sections.len());
    for s in &sections {
        table.push((offset, s.bytes().len()));
        offset += s.bytes().len().next_multiple_of(8);
    }
    let file_len = offset;
    make_room(out, file_len);
    out.resize(file_len, 0);
    out[0..8].copy_from_slice(&ARENA_MAGIC.to_le_bytes());
    out[8..16].copy_from_slice(&ARENA_VERSION.to_le_bytes());
    out[16..24].copy_from_slice(&ENDIAN_PROBE.to_ne_bytes());
    out[24..32].copy_from_slice(&(file_len as u64).to_le_bytes());
    out[40..48].copy_from_slice(&(sections.len() as u64).to_le_bytes());
    for (i, (&(off, len), s)) in table.iter().zip(&sections).enumerate() {
        out[off..off + len].copy_from_slice(s.bytes());
        let sum = match s {
            SectionSrc::Fresh(_) => checksum_of(&out[off..off + len.next_multiple_of(8)]),
            SectionSrc::Reused { checksum, .. } => {
                debug_assert_eq!(
                    checksum_of(&out[off..off + len.next_multiple_of(8)]),
                    *checksum,
                    "a reused section's stored checksum does not match its bytes"
                );
                *checksum
            }
        };
        let t = HEADER_LEN + i * TABLE_ENTRY_LEN;
        out[t..t + 8].copy_from_slice(&(off as u64).to_le_bytes());
        out[t + 8..t + 16].copy_from_slice(&(len as u64).to_le_bytes());
        out[t + 16..t + 24].copy_from_slice(&sum.to_le_bytes());
    }
    let sum = checksum_of(&out[CHECKSUM_COVER_FROM..table_end]);
    out[32..40].copy_from_slice(&sum.to_le_bytes());
}

/// Empties `buf` and makes room for `len` bytes. A buffer that already
/// held an image and must grow gets an eighth more, so the image of a
/// growing index is reallocated only every few checkpoints.
fn make_room(buf: &mut Vec<u8>, len: usize) {
    let headroom = if buf.capacity() == 0 { 0 } else { len / 8 };
    buf.clear();
    if buf.capacity() < len {
        buf.reserve_exact(len + headroom);
    }
}

/// Reads the file at `path` into `buf`, reusing its capacity.
fn read_into(path: &Path, buf: &mut Vec<u8>) -> std::io::Result<()> {
    use std::io::Read;
    let mut file = std::fs::File::open(path)?;
    let len = usize::try_from(file.metadata()?.len()).unwrap_or(0);
    make_room(buf, len);
    file.read_to_end(buf)?;
    Ok(())
}

/// The two image-sized buffers of a delta save: the previous image as read
/// from disk and the new image. A caller that checkpoints repeatedly keeps
/// them, so each checkpoint after the first writes into memory the process
/// already has mapped. Allocated afresh every time, these megabyte-sized
/// buffers come straight from `mmap` and page-fault on first touch until
/// the allocator's adaptive mmap threshold happens to grow past their
/// size; that doubled a checkpoint's cost for a number of checkpoints that
/// varied from run to run.
#[derive(Default)]
pub(crate) struct DeltaBuffers {
    prev: Vec<u8>,
    image: Vec<u8>,
}

impl std::fmt::Debug for DeltaBuffers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeltaBuffers")
            .field("prev_capacity", &self.prev.capacity())
            .field("image_capacity", &self.image.capacity())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Byte-level reader (load side)
// ---------------------------------------------------------------------------

fn corrupt(what: &'static str) -> Error {
    Error::PersistCorrupt { what }
}

fn to_usize(v: u64) -> Result<usize> {
    usize::try_from(v).map_err(|_| corrupt("a stored count does not fit in usize"))
}

/// Sequential reader over the meta-stream section.
struct MetaCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> MetaCursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        MetaCursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.bytes.len() - self.pos < n {
            return Err(corrupt("meta stream ends early"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("take returns 4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("take returns 8 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn count(&mut self) -> Result<usize> {
        to_usize(self.u64()?)
    }

    fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(corrupt("invalid boolean byte in the meta stream")),
        }
    }

    fn finished(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn read_header_word(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(
        bytes[off..off + 8]
            .try_into()
            .expect("caller slices 8 bytes"),
    )
}

fn read_config(cur: &mut MetaCursor) -> Result<GbKmvConfig> {
    let space_fraction = cur.f64()?;
    let budget_elements = match cur.u8()? {
        0 => {
            cur.u64()?;
            None
        }
        1 => Some(to_usize(cur.u64()?)?),
        _ => return Err(corrupt("invalid budget tag")),
    };
    let buffer = match cur.u8()? {
        0 => {
            cur.u64()?;
            BufferSizing::Auto
        }
        1 => BufferSizing::Fixed(to_usize(cur.u64()?)?),
        _ => return Err(corrupt("invalid buffer-sizing tag")),
    };
    let hash_seed = cur.u64()?;
    if !cur.bool()? {
        return Err(corrupt(
            "the image was built without the candidate filter and holds no signature postings",
        ));
    }
    // The former prefix-filter flag: 0 or 1 (the filter never changed an
    // answer), dropped on load.
    cur.bool()?;
    let threads = to_usize(cur.u64()?)?;
    let shards = to_usize(cur.u64()?)?;
    // The posting-format tag: 0 (block-compressed) or 1, dropped; each
    // shard's own tag decides how its lists load.
    if cur.u8()? > RAW_POSTINGS {
        return Err(corrupt("invalid posting-format tag"));
    }
    // The reserved former kernel byte: images written before the knob was
    // removed carry 0 or 1 (kernels never changed an answer), so both load.
    if cur.u8()? > 1 {
        return Err(corrupt("invalid finish-kernel tag"));
    }
    let cost_model = CostModelConfig {
        grid_step: to_usize(cur.u64()?)?,
        max_buffer_size: to_usize(cur.u64()?)?,
        pair_sample_size: to_usize(cur.u64()?)?,
    };
    let ingest_batch = to_usize(cur.u64()?)?;
    Ok(GbKmvConfig {
        space_fraction,
        budget_elements,
        buffer,
        hash_seed,
        threads,
        shards,
        cost_model,
        ingest_batch,
    })
}

/// Reads a shard's posting-format tag: whether its lists are stored
/// block-compressed.
fn read_packed_tag(cur: &mut MetaCursor) -> Result<bool> {
    match cur.u8()? {
        0 => Ok(true),
        RAW_POSTINGS => Ok(false),
        _ => Err(corrupt("invalid posting-format tag")),
    }
}

fn read_summary(cur: &mut MetaCursor) -> Result<IndexSummary> {
    Ok(IndexSummary {
        budget_elements: cur.count()?,
        buffer_size: cur.count()?,
        tau: cur.f64()?,
        space_used_elements: cur.f64()?,
        space_used_fraction: cur.f64()?,
        num_records: cur.count()?,
    })
}

/// Parsed descriptor of one posting list: how many entries to carve out of
/// the shard's shared posting arenas. `Packed` describes a block-compressed
/// list of an earlier build.
enum PostingDesc {
    Raw {
        count: usize,
    },
    Packed {
        len: u32,
        first: u32,
        last: u32,
        width: u8,
        nblocks: usize,
        nwords: usize,
    },
}

impl PostingDesc {
    fn read(cur: &mut MetaCursor, packed: bool) -> Result<Self> {
        let tag = cur.u8()?;
        match (tag, packed) {
            (0, false) => Ok(PostingDesc::Raw {
                count: cur.u32()? as usize,
            }),
            (1, true) => Ok(PostingDesc::Packed {
                len: cur.u32()?,
                first: cur.u32()?,
                last: cur.u32()?,
                width: cur.u8()?,
                nblocks: cur.u32()? as usize,
                nwords: cur.u32()? as usize,
            }),
            _ => Err(corrupt(
                "posting descriptor disagrees with the shard format",
            )),
        }
    }
}

/// One shard's meta-stream record.
struct ShardPre {
    base: usize,
    words_per_record: usize,
    /// Whether the shard's lists are stored block-compressed (decoded at
    /// load).
    packed: bool,
    n: usize,
    hash_df: Vec<(u64, u32)>,
    sig: Vec<(u64, PostingDesc)>,
    /// Descriptors of the buffer postings earlier writers stored: none, or
    /// one per buffered element. Their sections are length-checked, then
    /// dropped.
    buf: Vec<PostingDesc>,
}

/// Everything validated and parsed from the raw bytes *before* the aligned
/// copy is made — if construction fails past this point the failure is in
/// the typed structural checks, and the copy is reclaimed.
struct PreParsed {
    config: GbKmvConfig,
    summary: IndexSummary,
    total_elements: usize,
    hasher_seed: u64,
    threshold_raw: u64,
    layout_elements: Vec<u32>,
    lineage: u64,
    epochs: Vec<u64>,
    shards: Vec<ShardPre>,
    /// Byte `(offset, length)` of every section, header-validated.
    sections: Vec<(usize, usize)>,
}

impl PreParsed {
    fn parse(bytes: &[u8]) -> Result<Self> {
        let sections = validate_header(bytes)?;
        let (hoff, hlen) = sections[0];
        let mut cur = MetaCursor::new(&bytes[hoff..hoff + hlen]);
        let config = read_config(&mut cur)?;
        let summary = read_summary(&mut cur)?;
        let total_elements = cur.count()?;
        let hasher_seed = cur.u64()?;
        let threshold_raw = cur.u64()?;
        let nelems = cur.count()?;
        let mut layout_elements = Vec::new();
        for _ in 0..nelems {
            layout_elements.push(cur.u32()?);
        }
        let layout_words = layout_elements.len().div_ceil(64);
        let num_shards = cur.count()?;
        if num_shards == 0 {
            return Err(corrupt("an index arena holds at least one shard"));
        }
        if !cur.finished() {
            return Err(corrupt("trailing bytes in the meta head"));
        }
        let expected_sections = num_shards
            .checked_mul(SECTIONS_PER_SHARD)
            .and_then(|s| s.checked_add(FIXED_SECTIONS))
            .ok_or_else(|| corrupt("shard count overflows"))?;
        if sections.len() != expected_sections {
            return Err(corrupt("section count does not match the shard count"));
        }
        let (doff, dlen) = sections[1];
        let (lineage, epochs) = parse_directory(&bytes[doff..doff + dlen])?;
        if epochs.len() != num_shards {
            return Err(corrupt("shard directory disagrees with the shard count"));
        }
        let mut shards = Vec::with_capacity(num_shards);
        let mut next_base = 0usize;
        for si in 0..num_shards {
            let (moff, mlen) = sections[FIXED_SECTIONS + si * SECTIONS_PER_SHARD];
            let mut cur = MetaCursor::new(&bytes[moff..moff + mlen]);
            let shard = Self::parse_shard(&mut cur)?;
            if !cur.finished() {
                return Err(corrupt("trailing bytes in a shard meta stream"));
            }
            if shard.base != next_base {
                return Err(corrupt("shard record-id ranges are not contiguous"));
            }
            if shard.words_per_record != layout_words {
                return Err(corrupt(
                    "shard buffer stride disagrees with the buffer layout",
                ));
            }
            if !shard.buf.is_empty() && shard.buf.len() != layout_elements.len() {
                return Err(corrupt(
                    "buffer posting count disagrees with the buffer layout",
                ));
            }
            next_base = next_base
                .checked_add(shard.n)
                .ok_or_else(|| corrupt("record count overflows"))?;
            let arena_sections = &sections[FIXED_SECTIONS + si * SECTIONS_PER_SHARD + 1..];
            check_shard_sections(bytes, arena_sections, &shard)?;
            shards.push(shard);
        }
        if summary.num_records != next_base {
            return Err(corrupt("summary record count disagrees with the shards"));
        }
        Ok(PreParsed {
            config,
            summary,
            total_elements,
            hasher_seed,
            threshold_raw,
            layout_elements,
            lineage,
            epochs,
            shards,
            sections,
        })
    }

    fn parse_shard(cur: &mut MetaCursor) -> Result<ShardPre> {
        let base = cur.count()?;
        let words_per_record = cur.count()?;
        let packed = read_packed_tag(cur)?;
        let n = cur.count()?;
        let ndf = cur.count()?;
        let mut hash_df = Vec::new();
        let mut prev_hash: Option<u64> = None;
        for _ in 0..ndf {
            let h = cur.u64()?;
            if prev_hash.is_some_and(|p| h <= p) {
                return Err(corrupt("document-frequency pairs are not sorted by hash"));
            }
            prev_hash = Some(h);
            hash_df.push((h, cur.u32()?));
        }
        let nsig = cur.count()?;
        let mut sig = Vec::new();
        let mut prev_sig: Option<u64> = None;
        for _ in 0..nsig {
            let h = cur.u64()?;
            if prev_sig.is_some_and(|p| h <= p) {
                return Err(corrupt("signature postings are not sorted by hash"));
            }
            prev_sig = Some(h);
            sig.push((h, PostingDesc::read(cur, packed)?));
        }
        let nbuf = cur.count()?;
        let mut buf = Vec::new();
        for _ in 0..nbuf {
            buf.push(PostingDesc::read(cur, packed)?);
        }
        Ok(ShardPre {
            base,
            words_per_record,
            packed,
            n,
            hash_df,
            sig,
            buf,
        })
    }
}

/// Header and section-table validation *without* touching section
/// payloads — header words, the header checksum (which covers the table),
/// and every entry's alignment and bounds. O(header + table). Returns the
/// `(offset, length, stored checksum)` of every section.
///
/// This is the "skeleton" a delta serialisation trusts: it proves the
/// table itself is intact, so stored per-section checksums can be carried
/// into the new image without re-reading the payloads they cover.
fn parse_table(bytes: &[u8]) -> Result<Vec<(usize, usize, u64)>> {
    let actual = bytes.len() as u64;
    if bytes.len() < HEADER_LEN {
        return Err(Error::PersistTruncated {
            expected: HEADER_LEN as u64,
            actual,
        });
    }
    let magic = read_header_word(bytes, 0);
    if magic != ARENA_MAGIC {
        return Err(Error::PersistMagic { found: magic });
    }
    let version = read_header_word(bytes, 8);
    if version != ARENA_VERSION {
        return Err(Error::PersistVersion {
            found: version,
            supported: ARENA_VERSION,
        });
    }
    let probe = u64::from_ne_bytes(bytes[16..24].try_into().expect("header slice is 8 bytes"));
    if probe != ENDIAN_PROBE {
        return Err(corrupt(
            "endianness probe mismatch (arena written on a different byte order)",
        ));
    }
    let file_len = read_header_word(bytes, 24);
    if file_len != actual {
        return Err(Error::PersistTruncated {
            expected: file_len,
            actual,
        });
    }
    if !bytes.len().is_multiple_of(8) {
        return Err(corrupt("file length is not a multiple of 8"));
    }
    let count = to_usize(read_header_word(bytes, 40))?;
    if count == 0 {
        return Err(corrupt("no sections (missing meta streams)"));
    }
    let table_end = count
        .checked_mul(TABLE_ENTRY_LEN)
        .and_then(|t| t.checked_add(HEADER_LEN))
        .filter(|&end| end <= bytes.len())
        .ok_or_else(|| corrupt("section table reaches past the end of the file"))?;
    let stored_sum = read_header_word(bytes, 32);
    let computed = checksum_of(&bytes[CHECKSUM_COVER_FROM..table_end]);
    if computed != stored_sum {
        return Err(Error::PersistChecksum {
            expected: stored_sum,
            actual: computed,
        });
    }
    let mut sections = Vec::with_capacity(count);
    for i in 0..count {
        let t = HEADER_LEN + i * TABLE_ENTRY_LEN;
        let off = read_header_word(bytes, t);
        let len = read_header_word(bytes, t + 8);
        let sum = read_header_word(bytes, t + 16);
        if !off.is_multiple_of(8) {
            return Err(Error::PersistMisaligned {
                section: i,
                offset: off,
            });
        }
        let off = to_usize(off)?;
        let len = to_usize(len)?;
        if off < table_end {
            return Err(corrupt("a section overlaps the header or section table"));
        }
        let padded_end = len
            .checked_next_multiple_of(8)
            .and_then(|p| p.checked_add(off))
            .ok_or_else(|| corrupt("a section's extent overflows"))?;
        if padded_end > bytes.len() {
            return Err(corrupt("a section reaches past the end of the file"));
        }
        sections.push((off, len, sum));
    }
    Ok(sections)
}

/// Full header validation for a load: the table checks of [`parse_table`]
/// plus every section's payload checksum. Returns the byte
/// `(offset, length)` of every section.
fn validate_header(bytes: &[u8]) -> Result<Vec<(usize, usize)>> {
    let table = parse_table(bytes)?;
    let mut sections = Vec::with_capacity(table.len());
    for (off, len, stored) in table {
        let actual = checksum_of(&bytes[off..off + len.next_multiple_of(8)]);
        if actual != stored {
            return Err(Error::PersistChecksum {
                expected: stored,
                actual,
            });
        }
        sections.push((off, len));
    }
    Ok(sections)
}

/// Parses the shard directory (section 1): lineage stamp plus one dirty
/// epoch per shard.
fn parse_directory(bytes: &[u8]) -> Result<(u64, Vec<u64>)> {
    let mut cur = MetaCursor::new(bytes);
    let lineage = cur.u64()?;
    let n = cur.count()?;
    if n == 0 {
        return Err(corrupt("an index arena holds at least one shard"));
    }
    let mut epochs = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        epochs.push(cur.u64()?);
    }
    if !cur.finished() {
        return Err(corrupt("trailing bytes in the shard directory"));
    }
    Ok((lineage, epochs))
}

/// Pre-leak length (and `bool`-byte) checks of one shard's 12 arena
/// sections against its meta-stream record.
fn check_shard_sections(bytes: &[u8], sections: &[(usize, usize)], shard: &ShardPre) -> Result<()> {
    let n = shard.n;
    let expect = |idx: usize, want: Option<usize>, what: &'static str| -> Result<()> {
        let (_, len) = sections[idx];
        match want {
            Some(w) if w == len => Ok(()),
            Some(_) => Err(corrupt(what)),
            None => Err(corrupt("a section size computation overflows")),
        }
    };
    let (hash_off, hash_len) = sections[0];
    let _ = hash_off;
    if hash_len % 8 != 0 {
        return Err(corrupt("hash arena length is not a multiple of 8"));
    }
    expect(
        1,
        n.checked_add(1).and_then(|c| c.checked_mul(8)),
        "hash offset section does not hold n + 1 offsets",
    )?;
    expect(
        2,
        n.checked_mul(shard.words_per_record)
            .and_then(|c| c.checked_mul(8)),
        "buffer arena does not hold n records of the stride",
    )?;
    expect(
        3,
        n.checked_mul(std::mem::size_of::<RecordMeta>()),
        "record metadata section does not hold n entries",
    )?;
    expect(
        4,
        n.checked_mul(4),
        "record-id permutation does not hold n entries",
    )?;
    expect(
        5,
        n.checked_mul(4),
        "slot permutation does not hold n entries",
    )?;

    // The one byte per RecordMeta entry whose bit pattern matters for
    // soundness: reject anything but 0/1 before the typed view exists.
    let (moff, _) = sections[3];
    for i in 0..n {
        if bytes[moff + i * std::mem::size_of::<RecordMeta>() + META_BOOL_OFFSET] > 1 {
            return Err(corrupt("record metadata contains an invalid boolean"));
        }
    }

    let sig_descs: Vec<&PostingDesc> = shard.sig.iter().map(|(_, d)| d).collect();
    let buf_descs: Vec<&PostingDesc> = shard.buf.iter().collect();
    for (group, descs) in [(6usize, sig_descs), (9usize, buf_descs)] {
        let mut words = 0usize;
        let mut blocks = 0usize;
        let mut raw = 0usize;
        for d in &descs {
            match d {
                PostingDesc::Raw { count } => {
                    raw = raw
                        .checked_add(*count)
                        .ok_or_else(|| corrupt("raw posting counts overflow"))?;
                }
                PostingDesc::Packed {
                    nblocks, nwords, ..
                } => {
                    blocks = blocks
                        .checked_add(*nblocks)
                        .ok_or_else(|| corrupt("posting block counts overflow"))?;
                    words = words
                        .checked_add(*nwords)
                        .ok_or_else(|| corrupt("posting word counts overflow"))?;
                }
            }
        }
        expect(
            group,
            words.checked_mul(8),
            "posting payload section disagrees with its descriptors",
        )?;
        expect(
            group + 1,
            blocks.checked_mul(LEGACY_BLOCK_META_LEN),
            "posting block-metadata section disagrees with its descriptors",
        )?;
        expect(
            group + 2,
            raw.checked_mul(4),
            "raw posting section disagrees with its descriptors",
        )?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Typed zero-copy views (post-leak)
// ---------------------------------------------------------------------------

/// Casts an 8-aligned byte section to `&[u64]`. Length divisibility and
/// offset alignment were validated by [`validate_header`] /
/// [`check_shard_sections`].
fn u64_view(bytes: &'static [u8]) -> &'static [u64] {
    debug_assert_eq!(bytes.len() % 8, 0);
    debug_assert_eq!(bytes.as_ptr() as usize % 8, 0);
    // SAFETY: the pointer is 8-aligned (sections start on 8-byte
    // boundaries of an 8-aligned buffer), the length is a multiple of 8,
    // and every bit pattern is a valid u64.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<u64>(), bytes.len() / 8) }
}

fn u32_view(bytes: &'static [u8]) -> &'static [u32] {
    debug_assert_eq!(bytes.len() % 4, 0);
    // SAFETY: 8-aligned exceeds u32's alignment; every bit pattern is a
    // valid u32.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<u32>(), bytes.len() / 4) }
}

fn record_meta_view(bytes: &'static [u8]) -> &'static [RecordMeta] {
    let size = std::mem::size_of::<RecordMeta>();
    debug_assert_eq!(bytes.len() % size, 0);
    // SAFETY: `RecordMeta` is `#[repr(C)]` with the size/alignment pinned
    // by the const asserts above; the only field with restricted bit
    // patterns (the `bool`) was validated byte-wise before this view is
    // created, and 8-aligned sections satisfy its alignment.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<RecordMeta>(), bytes.len() / size) }
}

/// Splits `n` leading elements off a borrowed arena.
fn take<T>(slice: &mut &'static [T], n: usize) -> Result<&'static [T]> {
    if n > slice.len() {
        return Err(corrupt("a posting arena ends early"));
    }
    let (head, tail) = slice.split_at(n);
    *slice = tail;
    Ok(head)
}

/// Carves one posting list out of the shard's shared posting arenas and
/// structurally validates it: a plain list is borrowed, a block-compressed
/// one is decoded into an owned list.
fn take_posting(
    desc: &PostingDesc,
    words: &mut &'static [u64],
    blocks: &mut &'static [u8],
    raw: &mut &'static [u32],
    slot_bound: usize,
) -> Result<PostingList> {
    match *desc {
        PostingDesc::Raw { count } => {
            let slots = take(raw, count)?;
            if !slots.windows(2).all(|w| w[0] < w[1]) {
                return Err(corrupt("a raw posting list is not strictly ascending"));
            }
            if slots.last().is_some_and(|&s| (s as usize) >= slot_bound) {
                return Err(corrupt("a raw posting slot is out of range"));
            }
            Ok(PostingList::from_arena(ArenaVec::Borrowed(slots)))
        }
        PostingDesc::Packed {
            len,
            first,
            last,
            width,
            nblocks,
            nwords,
        } => {
            let block_bytes = nblocks
                .checked_mul(LEGACY_BLOCK_META_LEN)
                .ok_or_else(|| corrupt("posting block counts overflow"))?;
            let descriptors = take(blocks, block_bytes)?;
            let payload = take(words, nwords)?;
            let inline = LegacyBlock {
                first,
                word_offset: 0,
                len: usize::try_from(len).unwrap_or(usize::MAX),
                width,
            };
            let slots = decode_legacy_list(inline, descriptors, payload, slot_bound)?;
            if slots.len() != inline.len
                || slots.first().is_some_and(|&s| s != first)
                || slots.last().is_some_and(|&s| s != last)
            {
                return Err(corrupt(
                    "a block-compressed posting list disagrees with its descriptor",
                ));
            }
            Ok(PostingList::from_sorted(slots))
        }
    }
}

/// One block of a block-compressed posting list (see [`decode_legacy_list`]).
#[derive(Clone, Copy)]
struct LegacyBlock {
    first: u32,
    word_offset: usize,
    len: usize,
    width: u8,
}

/// Decodes a block-compressed posting list of an earlier build into its
/// slots, checking every bound on the way, so a hostile image yields
/// [`Error::PersistCorrupt`] and never a panic.
///
/// A list of one block stores no block descriptor: `inline` (from the
/// list's own descriptor, payload at word 0) describes it. A longer list
/// stores one 12-byte descriptor per block in `descriptors`. A **gap block**
/// of `len` slots stores its first slot in the descriptor and the `len − 1`
/// values `gap − 1` of `width` bits each (at most 32), ⌊64 / width⌋ to a
/// payload word from the low bits up; width 0 is a run of consecutive
/// slots with no payload. A **bitmap block** (`width` 255) stores a 128-bit
/// mask in two payload words: bit `i` marks slot `first + i`, and bit 0 is
/// `first` itself. Slots must ascend strictly across all blocks and stay
/// below `slot_bound`.
fn decode_legacy_list(
    inline: LegacyBlock,
    descriptors: &[u8],
    payload: &[u64],
    slot_bound: usize,
) -> Result<Vec<u32>> {
    let blocks: Vec<LegacyBlock> = if descriptors.is_empty() {
        if inline.len == 0 {
            return if payload.is_empty() {
                Ok(Vec::new())
            } else {
                Err(corrupt("an empty posting list owns payload words"))
            };
        }
        vec![inline]
    } else {
        let word = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4-byte descriptor field"));
        descriptors
            .chunks_exact(LEGACY_BLOCK_META_LEN)
            .map(|d| LegacyBlock {
                first: word(&d[0..4]),
                word_offset: word(&d[4..8]) as usize,
                len: usize::from(d[8]),
                width: d[9],
            })
            .collect()
    };
    let bound = slot_bound.min(u32::MAX as usize + 1) as u64;
    let capacity = blocks.iter().map(|b| b.len.min(LEGACY_BLOCK_LEN)).sum();
    let mut slots: Vec<u32> = Vec::with_capacity(capacity);
    let mut push = |slot: u64| -> Result<()> {
        if slot >= bound {
            return Err(corrupt("a block-compressed posting slot is out of range"));
        }
        if slots.last().is_some_and(|&prev| u64::from(prev) >= slot) {
            return Err(corrupt(
                "a block-compressed posting list is not strictly ascending",
            ));
        }
        slots.push(slot as u32);
        Ok(())
    };
    for b in blocks {
        if b.len == 0 || b.len > LEGACY_BLOCK_LEN {
            return Err(corrupt("a posting block holds no slots or more than 128"));
        }
        let span = match b.width {
            0 => 0,
            LEGACY_BITMAP_WIDTH => 2,
            1..=32 => (b.len - 1).div_ceil(64 / usize::from(b.width)),
            _ => return Err(corrupt("a posting block's gap width is above 32")),
        };
        let words = payload
            .get(b.word_offset..)
            .and_then(|w| w.get(..span))
            .ok_or_else(|| corrupt("a posting block's payload is shorter than it claims"))?;
        let first = u64::from(b.first);
        match b.width {
            0 => {
                for i in 0..b.len as u64 {
                    push(first + i)?;
                }
            }
            LEGACY_BITMAP_WIDTH => {
                if words[0] & 1 == 0 {
                    return Err(corrupt("a bitmap posting block's base bit is clear"));
                }
                let set: u32 = words.iter().map(|w| w.count_ones()).sum();
                if set as usize != b.len {
                    return Err(corrupt("a bitmap posting block disagrees with its length"));
                }
                for (wi, &word) in words.iter().enumerate() {
                    let mut w = word;
                    while w != 0 {
                        push(first + 64 * wi as u64 + u64::from(w.trailing_zeros()))?;
                        w &= w - 1;
                    }
                }
            }
            width => {
                let width = usize::from(width);
                let per_word = 64 / width;
                let mask = (1u64 << width) - 1;
                let mut slot = first;
                push(slot)?;
                for i in 0..b.len - 1 {
                    let gap = (words[i / per_word] >> ((i % per_word) * width)) & mask;
                    slot += gap + 1;
                    push(slot)?;
                }
            }
        }
    }
    Ok(slots)
}

/// Reconstructs the index over the leaked aligned buffer. Every check in
/// here is a *structural* one on typed views; on failure the caller
/// reclaims the buffer, so nothing leaks.
fn assemble_index(buf: &'static [u64], pre: &PreParsed) -> Result<GbKmvIndex> {
    let base_ptr: *const u8 = buf.as_ptr().cast();
    let section_bytes = |i: usize| -> &'static [u8] {
        let (off, len) = pre.sections[i];
        // SAFETY: `validate_header` bounded every section inside the file,
        // and `buf` is a bit-exact copy of it.
        unsafe { std::slice::from_raw_parts(base_ptr.add(off), len) }
    };

    let mut shards = Vec::with_capacity(pre.shards.len());
    for (si, sp) in pre.shards.iter().enumerate() {
        let s = FIXED_SECTIONS + si * SECTIONS_PER_SHARD + 1;
        let hash_arena = u64_view(section_bytes(s));
        let hash_offsets = u64_view(section_bytes(s + 1));
        let buffer_arena = u64_view(section_bytes(s + 2));
        let meta = record_meta_view(section_bytes(s + 3));
        let record_ids = u32_view(section_bytes(s + 4));
        let slots = u32_view(section_bytes(s + 5));

        if hash_offsets.first() != Some(&0) {
            return Err(corrupt("hash offsets do not start at zero"));
        }
        if !hash_offsets.windows(2).all(|w| w[0] <= w[1]) {
            return Err(corrupt("hash offsets are not monotonic"));
        }
        if hash_offsets.last() != Some(&(hash_arena.len() as u64)) {
            return Err(corrupt("hash offsets do not cover the hash arena"));
        }
        let n = sp.n;
        if record_ids.iter().any(|&v| (v as usize) >= n) {
            return Err(corrupt("record-id permutation entry out of range"));
        }
        if slots.iter().any(|&v| (v as usize) >= n) {
            return Err(corrupt("slot permutation entry out of range"));
        }
        if !meta
            .windows(2)
            .all(|w| w[0].record_size >= w[1].record_size)
        {
            return Err(corrupt("record metadata is not size-ordered"));
        }

        let hash_df: HashMap<u64, u32> = sp.hash_df.iter().copied().collect();
        let store = SketchStore::from_arena_parts(
            ArenaVec::Borrowed(hash_arena),
            ArenaVec::Borrowed(hash_offsets),
            ArenaVec::Borrowed(buffer_arena),
            sp.words_per_record,
            ArenaVec::Borrowed(meta),
            ArenaVec::Borrowed(record_ids),
            ArenaVec::Borrowed(slots),
            hash_df,
        );

        let mut sig_words = u64_view(section_bytes(s + 6));
        let mut sig_blocks = section_bytes(s + 7);
        let mut sig_raw = u32_view(section_bytes(s + 8));
        let mut signature_postings = HashMap::with_capacity(sp.sig.len());
        for (h, desc) in &sp.sig {
            let list = take_posting(desc, &mut sig_words, &mut sig_blocks, &mut sig_raw, n)?;
            signature_postings.insert(*h, list);
        }

        shards.push(Shard::from_parts(sp.base, store, signature_postings));
    }
    // A shard whose image still stores buffer postings or block-compressed
    // lists is not what `shard_sections` writes, so a delta must not reuse
    // its bytes.
    let epochs = pre
        .shards
        .iter()
        .zip(&pre.epochs)
        .map(|(sp, &epoch)| {
            if sp.buf.is_empty() && !sp.packed {
                epoch
            } else {
                next_stamp()
            }
        })
        .collect();

    let layout = BufferLayout::new(pre.layout_elements.clone());
    let sketcher = GbKmvSketcher::new(
        Hasher64::from_mixed_seed(pre.hasher_seed),
        layout,
        GlobalThreshold {
            raw: pre.threshold_raw,
        },
    );
    Ok(GbKmvIndex {
        sketcher: std::sync::Arc::new(sketcher),
        sharded: ShardedIndex::from_parts(shards, pre.lineage, epochs),
        summary: pre.summary,
        config: pre.config,
        total_elements: pre.total_elements,
    })
}

fn io_error(e: &std::io::Error) -> Error {
    Error::PersistIo {
        message: e.to_string(),
    }
}

/// Serializes one shard into its 13 sections: the shard's meta stream
/// followed by the 12 arena sections, in the fixed order the module docs
/// describe. Deterministic — sorted orders make the bytes canonical — so
/// an unchanged shard re-serializes byte-identically, which is what lets a
/// delta checkpoint skip it entirely.
fn shard_sections(shard: &Shard) -> Vec<Vec<u8>> {
    let store = shard.store();
    let mut meta = Vec::new();
    put_u64(&mut meta, shard.base() as u64);
    put_u64(&mut meta, store.words_per_record() as u64);
    put_u8(&mut meta, RAW_POSTINGS);
    put_u64(&mut meta, store.len() as u64);

    // HashMap iteration order is nondeterministic: sort so the bytes —
    // and the load-side carve order — are canonical.
    let mut df: Vec<(u64, u32)> = store.hash_df_map().iter().map(|(&h, &d)| (h, d)).collect();
    df.sort_unstable_by_key(|&(h, _)| h);
    put_u64(&mut meta, df.len() as u64);
    for (h, d) in df {
        put_u64(&mut meta, h);
        put_u32(&mut meta, d);
    }

    let mut arenas: Vec<Vec<u8>> = Vec::with_capacity(SECTIONS_PER_SHARD - 1);
    arenas.push(u64_section(store.hash_arena_slice()));
    arenas.push(u64_section(store.hash_offsets_slice()));
    arenas.push(u64_section(store.buffer_arena_slice()));
    arenas.push(meta_section(store.meta_slice()));
    arenas.push(u32_section(store.record_ids_slice()));
    arenas.push(u32_section(store.slots_slice()));

    let mut sig: Vec<(&u64, &PostingList)> = shard.signature_posting_map().iter().collect();
    sig.sort_unstable_by_key(|&(h, _)| *h);
    let mut sig_raw = Vec::new();
    put_u64(&mut meta, sig.len() as u64);
    for (&h, list) in sig {
        put_u64(&mut meta, h);
        write_posting(&mut meta, list, &mut sig_raw);
    }
    // The two block-compressed sections stay empty (see the module docs).
    arenas.extend([Vec::new(), Vec::new(), sig_raw]);

    // The reserved buffer-posting group: a count of 0 and three empty
    // sections (see the module docs).
    put_u64(&mut meta, 0);
    arenas.extend([Vec::new(), Vec::new(), Vec::new()]);

    let mut sections = Vec::with_capacity(SECTIONS_PER_SHARD);
    sections.push(meta);
    sections.extend(arenas);
    sections
}

/// Section 1: the shard directory — lineage stamp, shard count, one dirty
/// epoch per shard.
fn directory_section(sharded: &ShardedIndex) -> Vec<u8> {
    let epochs = sharded.epochs();
    let mut out = Vec::with_capacity((2 + epochs.len()) * 8);
    put_u64(&mut out, sharded.lineage());
    put_u64(&mut out, epochs.len() as u64);
    for &e in epochs {
        put_u64(&mut out, e);
    }
    out
}

/// Outcome accounting for one delta serialisation (see
/// [`GbKmvIndex::to_arena_bytes_delta`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct DeltaStats {
    /// Shards whose 13 sections were copied verbatim — stored checksums
    /// included — from the previous image.
    pub reused_shards: usize,
    /// Shards re-serialised because their dirty epoch changed (or all of
    /// them, on fallback).
    pub rewritten_shards: usize,
    /// True when the previous image was unusable (missing, foreign
    /// lineage, structural mismatch) and the delta degenerated to a full
    /// rewrite.
    pub fallback: bool,
}

impl GbKmvIndex {
    /// Serializes the index into a single in-memory arena image — the byte
    /// form [`GbKmvIndex::save`] writes to disk. Deterministic: the same
    /// index always produces the same bytes, and a loaded index re-saves
    /// byte-identically.
    pub fn to_arena_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.arena_into(&mut out);
        out
    }

    /// [`GbKmvIndex::to_arena_bytes`] into `out`, reusing its capacity.
    fn arena_into(&self, out: &mut Vec<u8>) {
        let shards = self.sharded.shards();
        let mut sections = Vec::with_capacity(FIXED_SECTIONS + shards.len() * SECTIONS_PER_SHARD);
        sections.push(SectionSrc::Fresh(self.head_section()));
        sections.push(SectionSrc::Fresh(directory_section(&self.sharded)));
        for shard in shards {
            sections.extend(shard_sections(shard).into_iter().map(SectionSrc::Fresh));
        }
        assemble_into(sections, out);
    }

    /// Section 0: the global meta head — config, summary, sketcher
    /// parameters and the shard count.
    fn head_section(&self) -> Vec<u8> {
        let mut meta = Vec::new();
        write_config(&mut meta, &self.config);
        write_summary(&mut meta, &self.summary);
        put_u64(&mut meta, self.total_elements as u64);
        put_u64(&mut meta, self.sketcher.hasher().seed());
        put_u64(&mut meta, self.sketcher.threshold().raw);
        let elements = self.sketcher.layout().elements();
        put_u64(&mut meta, elements.len() as u64);
        for &e in elements {
            put_u32(&mut meta, e);
        }
        put_u64(&mut meta, self.sharded.shards().len() as u64);
        meta
    }

    /// Serializes against a previous arena image of the same index
    /// lineage: shards whose dirty epoch matches the previous file's shard
    /// directory are copied byte-for-byte (stored checksums carried over,
    /// payloads neither re-serialised nor re-summed), so the cost is
    /// O(dirty shards + table). The output is byte-identical to
    /// [`GbKmvIndex::to_arena_bytes`]. Any structural mismatch in the
    /// previous image — wrong magic/version, damaged table, foreign
    /// lineage, different shard count — falls back to a full rewrite,
    /// reported via [`DeltaStats::fallback`].
    pub fn to_arena_bytes_delta(&self, prev: &[u8]) -> (Vec<u8>, DeltaStats) {
        let mut out = Vec::new();
        let stats = self.delta_into(prev, &mut out);
        (out, stats)
    }

    /// [`GbKmvIndex::to_arena_bytes_delta`] into `out`, reusing its
    /// capacity.
    fn delta_into(&self, prev: &[u8], out: &mut Vec<u8>) -> DeltaStats {
        self.try_delta(prev, out)
            .unwrap_or_else(|| self.full_into(out))
    }

    /// A full image into `out`, reported as a delta that fell back.
    fn full_into(&self, out: &mut Vec<u8>) -> DeltaStats {
        self.arena_into(out);
        DeltaStats {
            reused_shards: 0,
            rewritten_shards: self.sharded.shards().len(),
            fallback: true,
        }
    }

    fn try_delta(&self, prev: &[u8], out: &mut Vec<u8>) -> Option<DeltaStats> {
        let table = parse_table(prev).ok()?;
        let (lineage, prev_epochs) = {
            let &(off, len, _) = table.get(1)?;
            parse_directory(&prev[off..off + len]).ok()?
        };
        let shards = self.sharded.shards();
        let epochs = self.sharded.epochs();
        if lineage != self.sharded.lineage()
            || prev_epochs.len() != shards.len()
            || table.len() != FIXED_SECTIONS + prev_epochs.len() * SECTIONS_PER_SHARD
        {
            return None;
        }
        let mut sections = Vec::with_capacity(FIXED_SECTIONS + shards.len() * SECTIONS_PER_SHARD);
        sections.push(SectionSrc::Fresh(self.head_section()));
        sections.push(SectionSrc::Fresh(directory_section(&self.sharded)));
        let mut reused_shards = 0;
        let mut rewritten_shards = 0;
        for (si, shard) in shards.iter().enumerate() {
            if prev_epochs[si] == epochs[si] {
                reused_shards += 1;
                for j in 0..SECTIONS_PER_SHARD {
                    let (off, len, checksum) = table[FIXED_SECTIONS + si * SECTIONS_PER_SHARD + j];
                    sections.push(SectionSrc::Reused {
                        bytes: &prev[off..off + len],
                        checksum,
                    });
                }
            } else {
                rewritten_shards += 1;
                sections.extend(shard_sections(shard).into_iter().map(SectionSrc::Fresh));
            }
        }
        assemble_into(sections, out);
        Some(DeltaStats {
            reused_shards,
            rewritten_shards,
            fallback: false,
        })
    }

    /// Loads an index from an arena image, borrowing the heavy sections
    /// zero-copy (see the module docs). The image is fully validated
    /// first; every corruption class returns a typed error and a failed
    /// load reclaims every byte it allocated.
    pub fn from_arena_bytes(bytes: &[u8]) -> Result<Self> {
        let pre = PreParsed::parse(bytes)?;
        // One bulk copy into an 8-aligned buffer (a Vec<u64> is the
        // cheapest aligned allocation std offers); on little-endian
        // targets — enforced by the probe — this is semantically memcpy.
        let words: Vec<u64> = bytes
            .chunks_exact(8)
            .map(|c| u64::from_ne_bytes(c.try_into().expect("chunks_exact yields 8-byte chunks")))
            .collect();
        let leaked: &'static [u64] = Box::leak(words.into_boxed_slice());
        match assemble_index(leaked, &pre) {
            Ok(index) => Ok(index),
            Err(e) => {
                let ptr =
                    std::ptr::slice_from_raw_parts_mut(leaked.as_ptr().cast_mut(), leaked.len());
                // SAFETY: `leaked` came from Box::leak above and no
                // borrowed view of it escaped the failed assembly, so
                // reclaiming it is sound — corrupt loads leak nothing.
                drop(unsafe { Box::from_raw(ptr) });
                Err(e)
            }
        }
    }

    /// Writes the index to `path` as a single arena file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        std::fs::write(path, self.to_arena_bytes()).map_err(|e| io_error(&e))
    }

    /// Writes the index to `path`, reusing clean shard sections from the
    /// arena previously saved at `prev_path` (see
    /// [`GbKmvIndex::to_arena_bytes_delta`]). The two paths may be the
    /// same file — the previous image is read in full before the new one
    /// is written — and checkpointing in place like that additionally
    /// patches only the byte ranges that changed (the header, table and
    /// directory up front plus the dirty shards' sections) instead of
    /// rewriting the whole file, so repeated checkpoints of a growing
    /// index cost O(dirty) in I/O as well as in serialization. A missing
    /// or unusable previous file degrades to a full rewrite, never an
    /// error.
    pub fn save_delta(
        &self,
        path: impl AsRef<Path>,
        prev_path: impl AsRef<Path>,
    ) -> Result<DeltaStats> {
        self.save_delta_with(
            path.as_ref(),
            prev_path.as_ref(),
            &mut DeltaBuffers::default(),
        )
    }

    /// [`GbKmvIndex::save_delta`] through buffers the caller keeps between
    /// checkpoints (see [`DeltaBuffers`]).
    pub(crate) fn save_delta_with(
        &self,
        path: &Path,
        prev_path: &Path,
        buffers: &mut DeltaBuffers,
    ) -> Result<DeltaStats> {
        let DeltaBuffers { prev, image } = buffers;
        let have_prev = read_into(prev_path, prev).is_ok();
        let stats = if have_prev {
            self.delta_into(prev, image)
        } else {
            self.full_into(image)
        };
        if have_prev && path == prev_path && patch_in_place(path, prev, image).is_ok() {
            return Ok(stats);
        }
        std::fs::write(path, &image[..]).map_err(|e| io_error(&e))?;
        Ok(stats)
    }

    /// Loads an index previously written by [`GbKmvIndex::save`],
    /// borrowing the file's sections zero-copy instead of rebuilding.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let bytes = std::fs::read(path).map_err(|e| io_error(&e))?;
        Self::from_arena_bytes(&bytes)
    }
}

/// Overwrites `path` — whose current on-disk content is `prev` — with
/// `new`, writing only the 4 KiB block runs where the two images differ
/// plus any tail growth, then truncating to the new length. The resulting
/// file is byte-identical to what `fs::write(path, new)` would produce;
/// only the I/O volume differs. For a delta image that reused most shard
/// sections, the clean middle of the file is never written: an in-place
/// checkpoint of a 4-shard index with one dirty shard touches the few-KiB
/// header/table/directory prefix and roughly a quarter of the payload.
fn patch_in_place(path: &Path, prev: &[u8], new: &[u8]) -> std::io::Result<()> {
    use std::io::{Seek, SeekFrom, Write};
    const BLOCK: usize = 4096;
    let mut file = std::fs::OpenOptions::new().write(true).open(path)?;
    let common = prev.len().min(new.len());
    let mut off = 0usize;
    while off < common {
        let end = (off + BLOCK).min(common);
        if prev[off..end] == new[off..end] {
            off = end;
            continue;
        }
        // Extend the run across every consecutive differing block so one
        // seek+write covers it.
        let mut run = end;
        while run < common {
            let next = (run + BLOCK).min(common);
            if prev[run..next] == new[run..next] {
                break;
            }
            run = next;
        }
        file.seek(SeekFrom::Start(off as u64))?;
        file.write_all(&new[off..run])?;
        off = run;
    }
    if new.len() > common {
        file.seek(SeekFrom::Start(common as u64))?;
        file.write_all(&new[common..])?;
    }
    file.set_len(new.len() as u64)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;

    fn dataset() -> Dataset {
        Dataset::from_records((0..60u32).map(|i| {
            (0..(3 + i % 17))
                .map(|j| (j * 13 + i * 7) % 400)
                .collect::<Vec<_>>()
        }))
    }

    fn build(config: GbKmvConfig) -> GbKmvIndex {
        GbKmvIndex::build(&dataset(), config)
    }

    fn configs() -> Vec<GbKmvConfig> {
        vec![
            GbKmvConfig::with_space_fraction(0.6),
            GbKmvConfig::with_space_fraction(0.6).shards(3),
            GbKmvConfig::with_space_fraction(0.6).buffer_size(0),
        ]
    }

    #[test]
    fn round_trip_preserves_every_component() {
        for config in configs() {
            let built = build(config);
            let bytes = built.to_arena_bytes();
            let loaded = GbKmvIndex::from_arena_bytes(&bytes).expect("round trip");
            assert_eq!(loaded.sharded, built.sharded, "storage diverged");
            assert_eq!(loaded.sketcher, built.sketcher);
            assert_eq!(loaded.summary, built.summary);
            assert_eq!(loaded.config, built.config);
            assert_eq!(loaded.total_elements, built.total_elements);
        }
    }

    #[test]
    fn save_load_save_is_byte_identical() {
        for config in configs() {
            let built = build(config);
            let bytes = built.to_arena_bytes();
            let loaded = GbKmvIndex::from_arena_bytes(&bytes).expect("load");
            assert_eq!(loaded.to_arena_bytes(), bytes, "re-save diverged");
        }
    }

    #[test]
    fn loaded_index_borrows_every_arena() {
        let built = build(GbKmvConfig::with_space_fraction(0.6).shards(2));
        let loaded = GbKmvIndex::from_arena_bytes(&built.to_arena_bytes()).expect("load");
        let usage = loaded.mem_usage();
        assert_eq!(
            usage.borrowed_bytes,
            usage.arena_content_bytes(),
            "a freshly loaded index must borrow every arena zero-copy"
        );
        assert!(usage.borrowed_bytes > 0);
        assert_eq!(built.mem_usage().borrowed_bytes, 0);
    }

    #[test]
    fn loaded_buffer_words_range_concatenates_per_slot_words() {
        // The popcount sweep reads a loaded store's buffer words as one
        // borrowed slice per slot range.
        let dir = std::env::temp_dir().join("gbkmv_persist_buffer_range");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("range.arena");
        let built = build(
            GbKmvConfig::with_space_fraction(0.6)
                .buffer_size(70)
                .shards(2),
        );
        built.save(&path).expect("save");
        let loaded = GbKmvIndex::open(&path).expect("open");
        std::fs::remove_file(&path).ok();
        assert!(loaded.mem_usage().borrowed_bytes > 0);
        for shard in loaded.sharded.shards() {
            let store = shard.store();
            assert_eq!(store.words_per_record(), 2);
            let n = store.len();
            for (lo, hi) in [(0, n), (1, n), (3, n / 2), (n, n)] {
                let expected: Vec<u64> = (lo..hi)
                    .flat_map(|slot| store.buffer_words(slot).iter().copied())
                    .collect();
                assert_eq!(
                    store.buffer_words_range(lo, hi),
                    expected,
                    "slots {lo}..{hi}"
                );
            }
        }
    }

    #[test]
    fn loaded_index_answers_identically() {
        let built = build(GbKmvConfig::with_space_fraction(0.6).shards(2));
        let loaded = GbKmvIndex::from_arena_bytes(&built.to_arena_bytes()).expect("load");
        for q in dataset().records() {
            for t in [0.3, 0.7] {
                assert_eq!(
                    loaded.search_record(q, t),
                    built.search_record(q, t),
                    "answers diverged at t={t}"
                );
            }
        }
    }

    #[test]
    fn empty_index_round_trips() {
        let built = GbKmvIndex::build(
            &Dataset::from_records(vec![vec![1, 2, 3]]),
            GbKmvConfig::with_space_fraction(1.0),
        );
        let loaded = GbKmvIndex::from_arena_bytes(&built.to_arena_bytes()).expect("load");
        assert_eq!(loaded.sharded, built.sharded);
    }

    #[test]
    fn wrong_magic_is_typed() {
        let mut bytes = build(GbKmvConfig::with_space_fraction(0.5)).to_arena_bytes();
        bytes[0] ^= 0xFF;
        match GbKmvIndex::from_arena_bytes(&bytes) {
            Err(Error::PersistMagic { .. }) => {}
            other => panic!("expected PersistMagic, got {other:?}"),
        }
    }

    #[test]
    fn wrong_version_is_typed() {
        let mut bytes = build(GbKmvConfig::with_space_fraction(0.5)).to_arena_bytes();
        bytes[8] = 99;
        match GbKmvIndex::from_arena_bytes(&bytes) {
            Err(Error::PersistVersion {
                found: 99,
                supported,
            }) => {
                assert_eq!(supported, ARENA_VERSION);
            }
            other => panic!("expected PersistVersion, got {other:?}"),
        }
    }

    #[test]
    fn flipped_body_bit_is_a_checksum_error() {
        let mut bytes = build(GbKmvConfig::with_space_fraction(0.5)).to_arena_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        match GbKmvIndex::from_arena_bytes(&bytes) {
            Err(Error::PersistChecksum { .. }) => {}
            other => panic!("expected PersistChecksum, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = build(GbKmvConfig::with_space_fraction(0.5)).to_arena_bytes();
        match GbKmvIndex::from_arena_bytes(&bytes[..bytes.len() - 8]) {
            Err(Error::PersistTruncated { .. }) => {}
            other => panic!("expected PersistTruncated, got {other:?}"),
        }
        match GbKmvIndex::from_arena_bytes(&bytes[..16]) {
            Err(Error::PersistTruncated { .. }) => {}
            other => panic!("expected PersistTruncated, got {other:?}"),
        }
    }

    #[test]
    fn misaligned_section_offset_is_typed() {
        let mut bytes = build(GbKmvConfig::with_space_fraction(0.5)).to_arena_bytes();
        // Knock section 0's offset off alignment, then re-stamp the
        // checksum so only the alignment check can reject it.
        let off = u64::from_le_bytes(bytes[48..56].try_into().unwrap());
        bytes[48..56].copy_from_slice(&(off + 4).to_le_bytes());
        rewrite_checksum(&mut bytes);
        match GbKmvIndex::from_arena_bytes(&bytes) {
            Err(Error::PersistMisaligned { section: 0, .. }) => {}
            other => panic!("expected PersistMisaligned, got {other:?}"),
        }
    }

    #[test]
    fn delta_reuses_clean_shards_and_matches_full_bytes() {
        let ds = dataset();
        let mut index = build(GbKmvConfig::with_space_fraction(0.6).shards(3));
        let prev = index.to_arena_bytes();
        for r in &ds.records()[..5] {
            index.insert(r);
        }
        let (delta, stats) = index.to_arena_bytes_delta(&prev);
        assert_eq!(delta, index.to_arena_bytes(), "delta image diverged");
        assert_eq!(stats.reused_shards, 2, "only the tail shard was touched");
        assert_eq!(stats.rewritten_shards, 1);
        assert!(!stats.fallback);
        let loaded = GbKmvIndex::from_arena_bytes(&delta).expect("delta image loads");
        assert_eq!(loaded.sharded, index.sharded);
    }

    #[test]
    fn unchanged_index_delta_reuses_every_shard() {
        let index = build(GbKmvConfig::with_space_fraction(0.6).shards(3));
        let prev = index.to_arena_bytes();
        let (delta, stats) = index.to_arena_bytes_delta(&prev);
        assert_eq!(delta, prev);
        assert_eq!(
            stats,
            DeltaStats {
                reused_shards: 3,
                rewritten_shards: 0,
                fallback: false
            }
        );
    }

    #[test]
    fn loaded_index_delta_against_its_own_file_reuses_every_shard() {
        let built = build(GbKmvConfig::with_space_fraction(0.6).shards(2));
        let bytes = built.to_arena_bytes();
        let loaded = GbKmvIndex::from_arena_bytes(&bytes).expect("load");
        let (delta, stats) = loaded.to_arena_bytes_delta(&bytes);
        assert_eq!(stats.reused_shards, 2);
        assert_eq!(delta, bytes);
    }

    #[test]
    fn foreign_lineage_falls_back_to_a_full_rewrite() {
        // Same data, same config: the images differ only in their stamps,
        // which is exactly what must stop cross-index section reuse.
        let a = build(GbKmvConfig::with_space_fraction(0.6).shards(3));
        let b = build(GbKmvConfig::with_space_fraction(0.6).shards(3));
        let (delta, stats) = b.to_arena_bytes_delta(&a.to_arena_bytes());
        assert_eq!(
            stats,
            DeltaStats {
                reused_shards: 0,
                rewritten_shards: 3,
                fallback: true
            }
        );
        assert_eq!(delta, b.to_arena_bytes());
    }

    #[test]
    fn garbage_previous_image_falls_back() {
        let index = build(GbKmvConfig::with_space_fraction(0.5));
        let (delta, stats) = index.to_arena_bytes_delta(b"not an arena");
        assert!(stats.fallback);
        assert_eq!(delta, index.to_arena_bytes());
    }

    #[test]
    fn save_delta_updates_a_checkpoint_file_in_place() {
        let dir = std::env::temp_dir().join("gbkmv_persist_delta_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inplace.arena");
        let ds = dataset();
        let mut index = build(GbKmvConfig::with_space_fraction(0.6).shards(2));
        index.save(&path).expect("full save");
        for r in &ds.records()[..3] {
            index.insert(r);
        }
        let stats = index.save_delta(&path, &path).expect("delta save");
        assert_eq!(stats.reused_shards, 1);
        assert!(!stats.fallback);
        // The in-place patch writes only changed block runs; the file must
        // nonetheless be byte-identical to a from-scratch serialization —
        // across repeated grow-then-checkpoint rounds.
        assert_eq!(
            std::fs::read(&path).unwrap(),
            index.to_arena_bytes(),
            "patched checkpoint diverged from the full serialization"
        );
        for r in &ds.records()[3..6] {
            index.insert(r);
        }
        let stats = index.save_delta(&path, &path).expect("second delta save");
        assert!(!stats.fallback);
        assert_eq!(std::fs::read(&path).unwrap(), index.to_arena_bytes());
        let loaded = GbKmvIndex::open(&path).expect("open");
        assert_eq!(loaded.sharded, index.sharded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn in_place_fallback_over_a_larger_foreign_file_truncates() {
        // Overwriting a checkpoint of a *different* (bigger) index in
        // place falls back to a full rewrite, and the patch path's
        // truncation must shed the old file's surplus bytes.
        let dir = std::env::temp_dir().join("gbkmv_persist_delta_shrink");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shrink.arena");
        let big = build(GbKmvConfig::with_space_fraction(0.6).shards(3));
        big.save(&path).expect("seed save");
        let small = GbKmvIndex::build(
            &Dataset::from_records((0..10u32).map(|i| vec![i, i + 40, i + 81])),
            GbKmvConfig::with_space_fraction(0.6),
        );
        let stats = small.save_delta(&path, &path).expect("fallback save");
        assert!(stats.fallback, "foreign lineage must not delta");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            small.to_arena_bytes(),
            "fallback over a larger file left stale bytes behind"
        );
        let loaded = GbKmvIndex::open(&path).expect("open");
        assert_eq!(loaded.sharded, small.sharded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_delta_without_a_previous_file_falls_back() {
        let dir = std::env::temp_dir().join("gbkmv_persist_delta_missing");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fresh.arena");
        std::fs::remove_file(&path).ok();
        let index = build(GbKmvConfig::with_space_fraction(0.6));
        let stats = index
            .save_delta(&path, dir.join("never_written.arena"))
            .expect("fallback save");
        assert!(stats.fallback);
        let loaded = GbKmvIndex::open(&path).expect("open");
        assert_eq!(loaded.sharded, index.sharded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_and_open_round_trip_through_a_file() {
        let dir = std::env::temp_dir().join("gbkmv_persist_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.arena");
        let built = build(GbKmvConfig::with_space_fraction(0.6));
        built.save(&path).expect("save");
        let loaded = GbKmvIndex::open(&path).expect("open");
        assert_eq!(loaded.sharded, built.sharded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_missing_file_is_an_io_error() {
        match GbKmvIndex::open("/nonexistent/gbkmv.arena") {
            Err(Error::PersistIo { .. }) => {}
            other => panic!("expected PersistIo, got {other:?}"),
        }
    }
}
