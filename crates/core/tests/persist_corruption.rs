//! Corruption robustness of the single-file index arena: truncated files,
//! wrong magic, wrong version, flipped bits, and structurally inconsistent
//! (but checksum-valid) images must all surface as typed
//! [`GbKmvError`](gbkmv_core::GbKmvError) variants — **never** a panic,
//! never undefined behaviour. The sweep tests re-stamp the per-section and
//! header checksums after each mutation (via
//! [`gbkmv_core::persist::rewrite_checksum`]) so the structural validators
//! — not just the checksums — are what's exercised. The `footer_` tests
//! aim at the section table that ends a version-3 image: cut, moved by a
//! wrong section count, overlapped by a section, bit-flipped, or read
//! under the other version's layout. The hostile legacy
//! image tests do the same to the block-compressed posting lists of the
//! committed `fixtures/arena_v2_d4b4a26.bin`, which the loader decodes.

use gbkmv_core::dataset::Dataset;
use gbkmv_core::index::{GbKmvConfig, GbKmvIndex};
use gbkmv_core::persist::{rewrite_checksum, ARENA_MAGIC, ARENA_VERSION};
use gbkmv_core::Error;

fn records(n: u32) -> Vec<Vec<u32>> {
    (0..n)
        .map(|i| (0..(4 + i % 19)).map(|j| (j * 17 + i * 13) % 900).collect())
        .collect()
}

fn arena(config: GbKmvConfig) -> Vec<u8> {
    let dataset = Dataset::from_records(records(80));
    GbKmvIndex::build(&dataset, config).to_arena_bytes()
}

/// An image produced by the *delta* writer (clean shards kept in place in
/// a previous checkpoint file, dirty ones re-serialized over it) rather
/// than the full one.
fn delta_arena(config: GbKmvConfig) -> Vec<u8> {
    let all = records(80);
    let mut index = GbKmvIndex::build(&Dataset::from_records(all[..70].to_vec()), config);
    let dir = std::env::temp_dir().join(format!("gbkmv_persist_corruption_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("delta.arena");
    index.save(&path).expect("full save");
    let tail = Dataset::from_records(all[70..].to_vec());
    for r in tail.records() {
        index.insert(r);
    }
    let stats = index.save_delta(&path, &path).expect("delta save");
    let bytes = std::fs::read(&path).expect("read the checkpoint");
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        stats.reused_shards > 0 && !stats.fallback,
        "the delta test arena must actually reuse sections"
    );
    bytes
}

#[test]
fn every_truncation_length_is_a_typed_error() {
    let bytes = arena(GbKmvConfig::with_space_fraction(0.4));
    // Every prefix length across the header and into the body (sampled past
    // the first kilobyte — the interesting cliffs are all early).
    let lengths: Vec<usize> = (0..bytes.len())
        .filter(|&l| l < 1_024 || l % 257 == 0)
        .collect();
    for len in lengths {
        match GbKmvIndex::from_arena_bytes(&bytes[..len]) {
            Err(Error::PersistTruncated { .. }) => {}
            Err(other) => panic!("prefix of {len} bytes: expected PersistTruncated, got {other}"),
            Ok(_) => panic!("prefix of {len} bytes loaded successfully"),
        }
    }
}

#[test]
fn wrong_magic_and_version_are_typed_errors() {
    let bytes = arena(GbKmvConfig::with_space_fraction(0.4));

    let mut not_an_arena = bytes.clone();
    not_an_arena[..8].copy_from_slice(b"NOTGBKMV");
    match GbKmvIndex::from_arena_bytes(&not_an_arena) {
        Err(Error::PersistMagic { found }) => {
            assert_ne!(found, ARENA_MAGIC);
        }
        other => panic!("expected PersistMagic, got {other:?}"),
    }

    let mut future_version = bytes;
    future_version[8..16].copy_from_slice(&(ARENA_VERSION + 7).to_le_bytes());
    match GbKmvIndex::from_arena_bytes(&future_version) {
        Err(Error::PersistVersion { found, supported }) => {
            assert_eq!(found, ARENA_VERSION + 7);
            assert_eq!(supported, ARENA_VERSION);
        }
        other => panic!("expected PersistVersion, got {other:?}"),
    }
}

#[test]
fn single_bit_flips_never_panic_and_never_load() {
    // Flip one bit at a sampled set of positions across the whole image.
    // Section flips must be caught by that section's checksum, table flips
    // by the header checksum, header flips by the header checks. Either
    // way: a typed error, never a panic, never Ok with silently different
    // bytes.
    for config in [
        GbKmvConfig::with_space_fraction(0.4),
        GbKmvConfig::with_space_fraction(0.4).shards(3),
    ] {
        let bytes = arena(config);
        let positions: Vec<usize> = (0..bytes.len()).step_by(97).collect();
        for pos in positions {
            for bit in [0u8, 5] {
                let mut corrupted = bytes.clone();
                corrupted[pos] ^= 1 << bit;
                match GbKmvIndex::from_arena_bytes(&corrupted) {
                    Err(_) => {}
                    Ok(_) => panic!("bit {bit} of byte {pos} flipped and the arena still loaded"),
                }
            }
        }
    }
}

/// Byte offset of an image's section table: right after the 48-byte
/// header in version 2, at the end of the file (24 bytes per section)
/// since version 3.
fn table_at(image: &[u8]) -> usize {
    match word_at(image, 8) {
        2 => 48,
        _ => image.len() - 24 * word_at(image, 40) as usize,
    }
}

/// Offset of the config's reserved byte (it held the tag of the removed
/// accumulate-kernel knob) in a serialized arena. Section 0 — the meta
/// head, whose offset is the first section-table entry — opens with the
/// config; the fields before the reserved byte take 53 bytes (`f64`, two
/// `u8`+`u64` tagged options, seed `u64`, two filter `u8`s, threads and
/// shards `u64`s, the posting-format `u8`).
fn reserved_config_byte(bytes: &[u8]) -> usize {
    let head = word_at(bytes, table_at(bytes));
    usize::try_from(head).expect("section offset fits in usize") + 53
}

#[test]
fn checksum_valid_structural_corruption_is_still_rejected() {
    // Mutate body bytes and re-stamp the checksum, so only the structural
    // validators stand between the corrupt image and undefined behaviour.
    // Sampled across the whole body: meta-stream counts, section contents,
    // posting descriptors, permutation entries — everything gets hit.
    let bytes = arena(GbKmvConfig::with_space_fraction(0.4).shards(2));
    let positions: Vec<usize> = (48..bytes.len()).step_by(61).collect();
    let mut rejected = 0usize;
    for pos in positions {
        let mut corrupted = bytes.clone();
        corrupted[pos] = corrupted[pos].wrapping_add(1);
        rewrite_checksum(&mut corrupted);
        match GbKmvIndex::from_arena_bytes(&corrupted) {
            Err(_) => rejected += 1,
            Ok(loaded) => {
                // A mutation the validators accept hit pure *content* (a
                // hash value, a bitmap word, a summary float): wrong data,
                // but structurally sound — the index must still serialize
                // and answer queries without panicking.
                let _ = loaded.to_arena_bytes();
                let _ = loaded.search_elements(&[1, 2, 3, 50, 700], 0.3);
            }
        }
    }
    assert!(
        rejected > 0,
        "no checksum-valid mutation tripped the structural validators"
    );

    // The reserved config byte: writers emit 0, images written while the
    // byte still tagged a kernel may carry 1 and must keep loading (with
    // identical answers — kernels never changed one); any other value is a
    // typed error.
    let at = reserved_config_byte(&bytes);
    assert_eq!(bytes[at], 0, "writers must emit the reserved byte as 0");
    assert_eq!(
        bytes[at - 1],
        1,
        "the byte before the reserved one is the posting-format tag, written as 1"
    );
    // That tag is 0 in images of builds that stored block-compressed lists
    // (the legacy fixture below opens with it); anything above 1 is a typed
    // error.
    for value in [2u8, 0xff] {
        let mut corrupted = bytes.clone();
        corrupted[at - 1] = value;
        rewrite_checksum(&mut corrupted);
        match GbKmvIndex::from_arena_bytes(&corrupted) {
            Err(Error::PersistCorrupt { .. }) => {}
            Err(other) => {
                panic!("posting-format tag {value}: expected PersistCorrupt, got {other}")
            }
            Ok(_) => panic!("posting-format tag {value} loaded"),
        }
    }
    let original = GbKmvIndex::from_arena_bytes(&bytes).expect("pristine image loads");
    let query = [1u32, 2, 3, 50, 700];
    let mut old_kernel = bytes.clone();
    old_kernel[at] = 1;
    rewrite_checksum(&mut old_kernel);
    let loaded = GbKmvIndex::from_arena_bytes(&old_kernel)
        .expect("an image with the old scalar-kernel tag must still load");
    assert_eq!(
        loaded.search_elements(&query, 0.3),
        original.search_elements(&query, 0.3)
    );
    assert_eq!(
        loaded.to_arena_bytes(),
        bytes,
        "re-saving writes the byte as 0"
    );
    for value in [2u8, 0xff] {
        let mut corrupted = bytes.clone();
        corrupted[at] = value;
        rewrite_checksum(&mut corrupted);
        match GbKmvIndex::from_arena_bytes(&corrupted) {
            Err(Error::PersistCorrupt { .. }) => {}
            Err(other) => panic!("reserved byte {value}: expected PersistCorrupt, got {other}"),
            Ok(_) => panic!("reserved byte {value} loaded"),
        }
    }
}

/// Offset of the config byte that held the candidate-filter flag: it
/// follows the seed, 19 bytes before the reserved byte (the former
/// prefix-filter `u8`, threads and shards `u64`s and the posting-format
/// `u8` lie between).
fn candidate_filter_byte(bytes: &[u8]) -> usize {
    reserved_config_byte(bytes) - 19
}

#[test]
fn image_without_signature_postings_is_a_typed_error() {
    // Writers emit the former candidate-filter byte as 1. An image with 0
    // there was built without signature postings, which the pipeline
    // cannot answer from: even with valid checksums, opening it must be a
    // typed error, never a panic.
    let bytes = arena(GbKmvConfig::with_space_fraction(0.4));
    let at = candidate_filter_byte(&bytes);
    assert_eq!(bytes[at], 1, "writers must emit the filter byte as 1");
    for value in [0u8, 2, 0xff] {
        let mut image = bytes.clone();
        image[at] = value;
        rewrite_checksum(&mut image);
        match GbKmvIndex::from_arena_bytes(&image) {
            Err(Error::PersistCorrupt { .. }) => {}
            Err(other) => panic!("filter byte {value}: expected PersistCorrupt, got {other}"),
            Ok(_) => panic!("filter byte {value} loaded"),
        }
    }
}

#[test]
fn former_prefix_filter_byte_loads_as_zero_or_one() {
    // The byte after the candidate-filter byte held the removed
    // prefix-filter off switch. Writers emit it as 1, as every default
    // config did. An image written with the switch off carries 0 there; it
    // must open and answer exactly like the unmodified image (the filter
    // never changed an answer), and re-save with the byte as 1. Any other
    // value is a typed error.
    let bytes = arena(GbKmvConfig::with_space_fraction(0.4).shards(2));
    let at = candidate_filter_byte(&bytes) + 1;
    assert_eq!(
        bytes[at], 1,
        "writers must emit the former prefix-filter byte as 1"
    );
    let original = GbKmvIndex::from_arena_bytes(&bytes).expect("pristine image loads");
    let mut switched_off = bytes.clone();
    switched_off[at] = 0;
    rewrite_checksum(&mut switched_off);
    let loaded = GbKmvIndex::from_arena_bytes(&switched_off)
        .expect("an image written with the prefix filter off must still load");
    assert_eq!(loaded.sharded(), original.sharded());
    let dataset = Dataset::from_records(records(80));
    for query in dataset.records().iter().step_by(7) {
        for t_star in [0.1, 0.3, 0.6, 0.9] {
            assert_eq!(
                loaded.search_record(query, t_star),
                original.search_record(query, t_star)
            );
        }
        assert_eq!(loaded.search_topk(query, 5), original.search_topk(query, 5));
    }
    assert_eq!(
        loaded.to_arena_bytes(),
        bytes,
        "re-saving writes the byte as 1"
    );
    for value in [2u8, 0xff] {
        let mut corrupted = bytes.clone();
        corrupted[at] = value;
        rewrite_checksum(&mut corrupted);
        match GbKmvIndex::from_arena_bytes(&corrupted) {
            Err(Error::PersistCorrupt { .. }) => {}
            Err(other) => {
                panic!("prefix-filter byte {value}: expected PersistCorrupt, got {other}")
            }
            Ok(_) => panic!("prefix-filter byte {value} loaded"),
        }
    }
}

#[test]
fn misaligned_section_offsets_are_typed_errors() {
    let bytes = arena(GbKmvConfig::with_space_fraction(0.4));
    // Knock each of the first few section offsets off 8-byte alignment and
    // re-stamp the checksum: the alignment guard (which protects the
    // zero-copy casts) must fire, not a crash inside them.
    for section in 0..4usize {
        let t = table_at(&bytes) + section * 24;
        let mut corrupted = bytes.clone();
        let off = u64::from_le_bytes(corrupted[t..t + 8].try_into().unwrap());
        corrupted[t..t + 8].copy_from_slice(&(off + 2).to_le_bytes());
        rewrite_checksum(&mut corrupted);
        match GbKmvIndex::from_arena_bytes(&corrupted) {
            Err(Error::PersistMisaligned { section: s, offset }) => {
                assert_eq!(s, section);
                assert_eq!(offset, off + 2);
            }
            other => panic!("section {section}: expected PersistMisaligned, got {other:?}"),
        }
    }
}

#[test]
fn delta_produced_images_reject_corruption_like_full_ones() {
    // Reused sections carry checksums stamped by an *earlier* save; the
    // corruption guarantees must hold on such images all the same.
    let bytes = delta_arena(GbKmvConfig::with_space_fraction(0.4).shards(3));
    for pos in (0..bytes.len()).step_by(131) {
        let mut corrupted = bytes.clone();
        corrupted[pos] ^= 1 << 3;
        assert!(
            GbKmvIndex::from_arena_bytes(&corrupted).is_err(),
            "bit 3 of byte {pos} flipped and the delta-produced arena still loaded"
        );
    }
    for pos in (48..bytes.len()).step_by(89) {
        let mut corrupted = bytes.clone();
        corrupted[pos] = corrupted[pos].wrapping_add(1);
        rewrite_checksum(&mut corrupted);
        match GbKmvIndex::from_arena_bytes(&corrupted) {
            Err(_) => {}
            Ok(loaded) => {
                // Content-only mutation: must stay structurally usable.
                let _ = loaded.to_arena_bytes();
                let _ = loaded.search_elements(&[1, 2, 3, 50, 700], 0.3);
            }
        }
    }

    // Truncations of a delta-produced image are typed, like full ones.
    for len in [0, 16, 47, 48, bytes.len() - 8] {
        match GbKmvIndex::from_arena_bytes(&bytes[..len]) {
            Err(_) => {}
            Ok(_) => panic!("prefix of {len} bytes of a delta-produced arena loaded"),
        }
    }
}

#[test]
fn oversized_counts_do_not_allocate_or_panic() {
    // A crafted section count of u64::MAX (checksum re-stamped) must be
    // rejected by checked arithmetic — not overflow a multiplication or
    // attempt a huge allocation.
    let bytes = arena(GbKmvConfig::with_space_fraction(0.4));
    let mut corrupted = bytes.clone();
    corrupted[40..48].copy_from_slice(&u64::MAX.to_le_bytes());
    rewrite_checksum(&mut corrupted);
    match GbKmvIndex::from_arena_bytes(&corrupted) {
        Err(Error::PersistCorrupt { .. }) => {}
        other => panic!("expected PersistCorrupt, got {other:?}"),
    }

    // Same for a section whose extent wraps the address space.
    let mut wrapping = bytes;
    let t = table_at(&wrapping);
    wrapping[t..t + 8].copy_from_slice(&(u64::MAX - 7).to_le_bytes());
    rewrite_checksum(&mut wrapping);
    match GbKmvIndex::from_arena_bytes(&wrapping) {
        Err(
            Error::PersistCorrupt { .. }
            | Error::PersistMisaligned { .. }
            | Error::PersistTruncated { .. },
        ) => {}
        other => panic!("expected a typed persist error, got {other:?}"),
    }
}

#[test]
fn empty_and_tiny_inputs_are_typed_errors() {
    for input in [&[][..], &[0u8; 8][..], &[0u8; 47][..]] {
        match GbKmvIndex::from_arena_bytes(input) {
            Err(Error::PersistTruncated { .. }) => {}
            other => panic!(
                "{}-byte input: expected PersistTruncated, got {other:?}",
                input.len()
            ),
        }
    }
    // 48 zero bytes: long enough for a header, but the magic is wrong.
    match GbKmvIndex::from_arena_bytes(&[0u8; 48]) {
        Err(Error::PersistMagic { found: 0 }) => {}
        other => panic!("expected PersistMagic, got {other:?}"),
    }
}

/// Opening `image` must fail with a typed persistence error (which is
/// returned); a panic or a successful load fails `case`.
fn assert_typed(image: &[u8], case: &str) -> Error {
    match GbKmvIndex::from_arena_bytes(image) {
        Err(
            e @ (Error::PersistCorrupt { .. }
            | Error::PersistChecksum { .. }
            | Error::PersistTruncated { .. }
            | Error::PersistMisaligned { .. }),
        ) => e,
        Err(other) => panic!("{case}: expected a typed persistence error, got {other}"),
        Ok(_) => panic!("{case}: the image loaded"),
    }
}

#[test]
fn footer_truncated_is_a_typed_error() {
    let bytes = arena(GbKmvConfig::with_space_fraction(0.4).shards(3));
    let table = bytes.len() - table_at(&bytes);
    for cut in [8, 24, table - 8, table] {
        let short = &bytes[..bytes.len() - cut];
        match GbKmvIndex::from_arena_bytes(short) {
            Err(Error::PersistTruncated { .. }) => {}
            other => panic!("footer cut by {cut} bytes: expected PersistTruncated, got {other:?}"),
        }
        // With the stored length patched to match, the table is read from
        // the wrong bytes: the header checksum rejects them, and with the
        // checksums re-stamped the structural checks do.
        let mut patched = short.to_vec();
        let len = patched.len() as u64;
        patched[24..32].copy_from_slice(&len.to_le_bytes());
        match GbKmvIndex::from_arena_bytes(&patched) {
            Err(Error::PersistChecksum { .. }) => {}
            other => panic!("footer cut by {cut} bytes: expected PersistChecksum, got {other:?}"),
        }
        rewrite_checksum(&mut patched);
        assert_typed(&patched, &format!("footer cut by {cut} bytes, re-stamped"));
    }
}

#[test]
fn footer_count_before_the_header_or_over_a_section_is_a_typed_error() {
    let bytes = arena(GbKmvConfig::with_space_fraction(0.4).shards(2));
    let count = word_at(&bytes, 40);
    let before_the_header = (bytes.len() as u64 - 48) / 24 + 1;
    let cases = [
        ("a table starting before byte 48", before_the_header),
        ("a table over the shard directory", count + 1),
        ("a table over the shards", count + 40),
        ("a table missing its first entry", count - 1),
    ];
    for (case, c) in cases {
        let mut image = bytes.clone();
        image[40..48].copy_from_slice(&c.to_le_bytes());
        rewrite_checksum(&mut image);
        let e = assert_typed(&image, case);
        if c == before_the_header {
            assert!(
                matches!(e, Error::PersistCorrupt { what } if what.contains("section table")),
                "{case}: {e}"
            );
        }
    }
}

#[test]
fn footer_overlapped_by_a_section_is_a_typed_error() {
    let bytes = arena(GbKmvConfig::with_space_fraction(0.4).shards(2));
    let t = table_at(&bytes);
    let into_the_table = |entry: usize, field: usize, value: u64, case: &str| {
        let mut image = bytes.clone();
        let at = t + 24 * entry + field;
        image[at..at + 8].copy_from_slice(&value.to_le_bytes());
        rewrite_checksum(&mut image);
        match assert_typed(&image, case) {
            Error::PersistCorrupt { what } if what.contains("section table") => {}
            other => panic!("{case}: rejected for {other}"),
        }
    };
    // The shard directory (section 1) ends where the table starts: one
    // more word reaches into it.
    let dir_len = word_at(&bytes, t + 24 + 8);
    into_the_table(
        1,
        8,
        dir_len.next_multiple_of(8) + 8,
        "directory one word longer",
    );
    // Shard 0's meta stream (section 2) moved onto the table.
    into_the_table(2, 0, t as u64, "shard meta stream at the table");
}

#[test]
fn footer_bit_flip_is_a_checksum_error() {
    let bytes = arena(GbKmvConfig::with_space_fraction(0.4).shards(3));
    for pos in (table_at(&bytes)..bytes.len()).step_by(5) {
        for bit in [0u8, 3, 7] {
            let mut image = bytes.clone();
            image[pos] ^= 1 << bit;
            match GbKmvIndex::from_arena_bytes(&image) {
                Err(Error::PersistChecksum { .. }) => {}
                other => {
                    panic!("bit {bit} of table byte {pos}: expected PersistChecksum, got {other:?}")
                }
            }
        }
    }
}

#[test]
fn footer_image_stamped_version_2_is_a_typed_error() {
    // Read as version 2, a version-3 image's table is looked for at byte
    // 48, where the first shard's meta stream is.
    let bytes = arena(GbKmvConfig::with_space_fraction(0.4).shards(2));
    let mut image = bytes.clone();
    image[8..16].copy_from_slice(&2u64.to_le_bytes());
    assert_typed(&image, "version-3 body stamped version 2");
    rewrite_checksum(&mut image);
    assert_typed(&image, "version-3 body stamped version 2, re-stamped");
    // And the other way round: a version-2 image stamped version 3.
    let mut image = LEGACY.to_vec();
    image[8..16].copy_from_slice(&3u64.to_le_bytes());
    assert_typed(&image, "version-2 body stamped version 3");
    rewrite_checksum(&mut image);
    assert_typed(&image, "version-2 body stamped version 3, re-stamped");
}

/// An image written by a build that stored block-compressed posting lists
/// (see `persist_compat.rs`): 3 shards of 100 records, every signature list
/// short enough to be a single block described inline.
const LEGACY: &[u8] = include_bytes!("fixtures/arena_v2_d4b4a26.bin");

/// Sections before the first shard (see `gbkmv_core::persist`); shard 0's
/// 13 sections follow.
const FIXED_SECTIONS: usize = 2;

fn word_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte word"))
}

/// The sections of an arena image, in table order.
fn sections_of(image: &[u8]) -> Vec<Vec<u8>> {
    (0..word_at(image, 40) as usize)
        .map(|i| {
            let t = table_at(image) + 24 * i;
            let (off, len) = (word_at(image, t) as usize, word_at(image, t + 8) as usize);
            image[off..off + len].to_vec()
        })
        .collect()
}

/// Lays `sections` out in the version-2 layout (the table right after the
/// header) after the header of the version-2 image `template` (magic,
/// version, endian probe), each on an 8-byte boundary as that writer did,
/// and seals the checksums.
fn image_of(template: &[u8], sections: &[Vec<u8>]) -> Vec<u8> {
    let mut out = template[..48].to_vec();
    out.resize(48 + 24 * sections.len(), 0);
    for (i, section) in sections.iter().enumerate() {
        let t = 48 + 24 * i;
        let off = out.len() as u64;
        out[t..t + 8].copy_from_slice(&off.to_le_bytes());
        out[t + 8..t + 16].copy_from_slice(&(section.len() as u64).to_le_bytes());
        out.extend_from_slice(section);
        out.resize(out.len().next_multiple_of(8), 0);
    }
    let len = out.len() as u64;
    out[24..32].copy_from_slice(&len.to_le_bytes());
    out[40..48].copy_from_slice(&(sections.len() as u64).to_le_bytes());
    rewrite_checksum(&mut out);
    out
}

/// One block-compressed signature list of a shard's meta stream: `at` is
/// the offset of its descriptor's fields (after the tag byte: `len`,
/// `first`, `last` as `u32`, `width` `u8`, block and word counts as `u32`),
/// and `word_start` / `block_start` count the payload words and block
/// descriptors of the lists before it in the shard's shared sections.
#[derive(Debug, Clone, Copy)]
struct PackedDesc {
    at: usize,
    len: u32,
    width: u8,
    nblocks: u32,
    nwords: u32,
    word_start: usize,
    block_start: usize,
}

const LEN: usize = 0;
const FIRST: usize = 4;
const LAST: usize = 8;
const WIDTH: usize = 12;
const NBLOCKS: usize = 13;
const NWORDS: usize = 17;

/// The shard's record count and its signature lists' descriptors.
fn packed_descs(meta: &[u8]) -> (u32, Vec<PackedDesc>) {
    let u32_at = |at: usize| u32::from_le_bytes(meta[at..at + 4].try_into().expect("4 bytes"));
    assert_eq!(meta[16], 0, "the shard must store block-compressed lists");
    let n = word_at(meta, 17) as u32;
    let ndf = word_at(meta, 25) as usize;
    let mut pos = 33 + 12 * ndf;
    let nsig = word_at(meta, pos) as usize;
    pos += 8;
    let (mut words, mut blocks) = (0usize, 0usize);
    let mut descs = Vec::with_capacity(nsig);
    for _ in 0..nsig {
        pos += 8; // hash
        assert_eq!(meta[pos], 1, "a block-compressed descriptor");
        let at = pos + 1;
        let desc = PackedDesc {
            at,
            len: u32_at(at + LEN),
            width: meta[at + WIDTH],
            nblocks: u32_at(at + NBLOCKS),
            nwords: u32_at(at + NWORDS),
            word_start: words,
            block_start: blocks,
        };
        words += desc.nwords as usize;
        blocks += desc.nblocks as usize;
        descs.push(desc);
        pos = at + 21;
    }
    (n, descs)
}

/// A mutation of shard 0's sections: its meta stream, payload words and
/// block descriptors, the latter two as raw bytes.
struct Shard0 {
    sections: Vec<Vec<u8>>,
}

impl Shard0 {
    const META: usize = FIXED_SECTIONS;
    const WORDS: usize = FIXED_SECTIONS + 7;
    const BLOCKS: usize = FIXED_SECTIONS + 8;

    fn new() -> Self {
        Shard0 {
            sections: sections_of(LEGACY),
        }
    }

    fn put_u32(&mut self, at: usize, v: u32) {
        self.sections[Self::META][at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Rewrites one list's descriptor fields.
    fn set(&mut self, d: PackedDesc, len: u32, first: u32, last: u32, width: u8) -> &mut Self {
        self.put_u32(d.at + LEN, len);
        self.put_u32(d.at + FIRST, first);
        self.put_u32(d.at + LAST, last);
        self.sections[Self::META][d.at + WIDTH] = width;
        self
    }

    /// Gives a list of no blocks and no words `blocks` block descriptors
    /// (`first`, word offset, `len`, `width`) and `words` payload words.
    fn attach(&mut self, d: PackedDesc, blocks: &[(u32, u32, u8, u8)], words: &[u64]) -> &mut Self {
        assert_eq!((d.nblocks, d.nwords), (0, 0));
        self.put_u32(d.at + NBLOCKS, blocks.len() as u32);
        self.put_u32(d.at + NWORDS, words.len() as u32);
        let bytes: Vec<u8> = blocks
            .iter()
            .flat_map(|&(first, offset, len, width)| {
                let mut b = first.to_le_bytes().to_vec();
                b.extend(offset.to_le_bytes());
                b.extend([len, width, 0, 0]);
                b
            })
            .collect();
        let at = 12 * d.block_start;
        self.sections[Self::BLOCKS].splice(at..at, bytes);
        let at = 8 * d.word_start;
        self.sections[Self::WORDS].splice(at..at, words.iter().flat_map(|w| w.to_le_bytes()));
        self
    }

    fn image(&self) -> Vec<u8> {
        image_of(LEGACY, &self.sections)
    }
}

/// Opening `image` must fail with a `PersistCorrupt` naming `what`.
fn assert_corrupt(image: &[u8], case: &str, what: &str) {
    match GbKmvIndex::from_arena_bytes(image) {
        Err(Error::PersistCorrupt { what: found }) => {
            assert!(found.contains(what), "{case}: rejected for `{found}`");
        }
        Err(other) => panic!("{case}: expected PersistCorrupt, got {other}"),
        Ok(_) => panic!("{case}: the hostile image loaded"),
    }
}

/// Shard 0's record count, its descriptors, and the first list holding a
/// single slot (an inline block of width 0 with no payload).
fn legacy_shard0() -> (u32, Vec<PackedDesc>, PackedDesc) {
    let (n, descs) = packed_descs(&sections_of(LEGACY)[Shard0::META]);
    let single = *descs
        .iter()
        .find(|d| d.len == 1 && d.nblocks == 0 && d.nwords == 0)
        .expect("the fixture has a single-slot list");
    (n, descs, single)
}

#[test]
fn legacy_image_relays_byte_for_byte() {
    // The mutation helpers below re-lay images; unmutated, they must
    // reproduce the fixture exactly, or a rejection could be theirs.
    assert_eq!(image_of(LEGACY, &sections_of(LEGACY)), LEGACY);
    assert_eq!(Shard0::new().image(), LEGACY);
    GbKmvIndex::from_arena_bytes(LEGACY).expect("the legacy fixture opens");
}

#[test]
fn legacy_gap_width_above_32_is_a_typed_error() {
    let (_, descs, _) = legacy_shard0();
    let gap = *descs
        .iter()
        .find(|d| d.nblocks == 0 && (1..=32).contains(&d.width) && d.len >= 2)
        .expect("the fixture has a gap-coded list");
    for width in [33u8, 64, 254] {
        let mut shard = Shard0::new();
        shard.sections[Shard0::META][gap.at + WIDTH] = width;
        assert_corrupt(&shard.image(), &format!("gap width {width}"), "gap width");
    }
}

#[test]
fn legacy_payload_shorter_than_its_blocks_claim_is_a_typed_error() {
    // One word moves from a gap-coded list to the list after it, so the
    // section still matches the descriptors' total while the first list's
    // block claims a word its payload no longer has.
    let (_, descs, _) = legacy_shard0();
    let i = descs
        .iter()
        .position(|d| d.nblocks == 0 && (1..=32).contains(&d.width) && d.nwords >= 1)
        .expect("the fixture has a gap-coded list with payload");
    assert!(i + 1 < descs.len(), "a list follows it");
    let (short, next) = (descs[i], descs[i + 1]);
    let mut shard = Shard0::new();
    shard.put_u32(short.at + NWORDS, short.nwords - 1);
    shard.put_u32(next.at + NWORDS, next.nwords + 1);
    assert_corrupt(&shard.image(), "payload one word short", "payload");
}

#[test]
fn legacy_slots_that_do_not_ascend_are_a_typed_error() {
    // Two consecutive-run blocks: the second restarts inside the first.
    let (_, _, single) = legacy_shard0();
    let mut overlapping = Shard0::new();
    overlapping
        .set(single, 5, 0, 2, 0)
        .attach(single, &[(0, 0, 3, 0), (1, 0, 2, 0)], &[]);
    assert_corrupt(&overlapping.image(), "overlapping blocks", "ascending");
    // The same blocks placed one after the other load.
    let mut ascending = Shard0::new();
    ascending
        .set(single, 5, 0, 4, 0)
        .attach(single, &[(0, 0, 3, 0), (3, 0, 2, 0)], &[]);
    GbKmvIndex::from_arena_bytes(&ascending.image()).expect("ascending blocks load");
}

#[test]
fn legacy_slot_past_the_shard_is_a_typed_error() {
    let (n, _, single) = legacy_shard0();
    let mut past = Shard0::new();
    past.set(single, 1, n, n, 0);
    assert_corrupt(&past.image(), "slot at the shard length", "out of range");
    let mut far = Shard0::new();
    far.set(single, 1, u32::MAX, u32::MAX, 0);
    assert_corrupt(&far.image(), "slot u32::MAX", "out of range");
    let mut last = Shard0::new();
    last.set(single, 1, n - 1, n - 1, 0);
    GbKmvIndex::from_arena_bytes(&last.image()).expect("the shard's last slot loads");
}

#[test]
fn legacy_bitmap_without_its_base_bit_is_a_typed_error() {
    // An inline bitmap block over slots 0..128: its mask's bit 0 is the
    // block's first slot and must be set.
    let (_, _, single) = legacy_shard0();
    let mut clear = Shard0::new();
    clear
        .set(single, 2, 0, 2, u8::MAX)
        .attach(single, &[], &[0b110, 0]);
    assert_corrupt(&clear.image(), "bitmap base bit clear", "base bit");
    let mut set = Shard0::new();
    set.set(single, 2, 0, 2, u8::MAX)
        .attach(single, &[], &[0b101, 0]);
    GbKmvIndex::from_arena_bytes(&set.image()).expect("a bitmap with its base bit loads");
}
