//! Corruption robustness of the single-file index arena: truncated files,
//! wrong magic, wrong version, flipped bits, and structurally inconsistent
//! (but checksum-valid) images must all surface as typed
//! [`GbKmvError`](gbkmv_core::GbKmvError) variants — **never** a panic,
//! never undefined behaviour. The sweep tests re-stamp the per-section and
//! header checksums after each mutation (via
//! [`gbkmv_core::persist::rewrite_checksum`]) so the structural validators
//! — not just the checksums — are what's exercised.

use gbkmv_core::dataset::Dataset;
use gbkmv_core::index::{GbKmvConfig, GbKmvIndex, PostingFormat};
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

/// An image produced by the *delta* writer (clean shards copied from a
/// previous image, dirty ones re-serialized) rather than the full one.
fn delta_arena(config: GbKmvConfig) -> Vec<u8> {
    let all = records(80);
    let mut index = GbKmvIndex::build(&Dataset::from_records(all[..70].to_vec()), config);
    let prev = index.to_arena_bytes();
    let tail = Dataset::from_records(all[70..].to_vec());
    for r in tail.records() {
        index.insert(r);
    }
    let (bytes, stats) = index.to_arena_bytes_delta(&prev);
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
        GbKmvConfig::with_space_fraction(0.4)
            .shards(3)
            .posting_format(PostingFormat::Raw),
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

/// Offset of the config's reserved byte (it held the tag of the removed
/// accumulate-kernel knob) in a serialized arena. Section 0 — the meta
/// head, whose offset is the first section-table entry at byte 48 — opens
/// with the config; the fields before the reserved byte take 53 bytes
/// (`f64`, two `u8`+`u64` tagged options, seed `u64`, two filter `u8`s,
/// threads and shards `u64`s, the posting-format `u8`).
fn reserved_config_byte(bytes: &[u8]) -> usize {
    let head = u64::from_le_bytes(bytes[48..56].try_into().expect("8-byte table word"));
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
    let raw = arena(GbKmvConfig::with_space_fraction(0.4).posting_format(PostingFormat::Raw));
    assert_eq!(
        raw[reserved_config_byte(&raw) - 1],
        1,
        "the byte before the reserved one must be the posting-format tag"
    );
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
        let t = 48 + section * 24;
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
    wrapping[48..56].copy_from_slice(&(u64::MAX - 7).to_le_bytes());
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
