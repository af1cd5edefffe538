//! Arena images written by earlier builds, in format version 2.
//!
//! `fixtures/arena_v2_d4b4a26.bin` was written by commit `d4b4a26`, the
//! last writer of arena version 2 that kept an inverted posting list per
//! buffered element beside the buffer words, from [`fixture_dataset`] and
//! [`fixture_config`] below (300 records, a buffer of 12 elements, 3
//! shards, 52 KB). Its posting lists are block-compressed, the default of
//! that build. The index now stores the buffer once, as its words, and its
//! postings as plain slot lists, and still opens such an image: the
//! buffer-posting sections are checksum-validated and dropped, the
//! signature lists are decoded, and what remains must hold, record for
//! record, what a fresh build of the same data holds, and answer exactly
//! like the reference scan. That writer ordered each size class by record
//! id; a fresh build clusters it by buffer words, so the slot order of the
//! image is not the fresh build's, and only the size order both keep is
//! required.
//!
//! `fixtures/arena_v2_9821968.bin` was written by commit `9821968`, the
//! last writer of version 2, from the same data and config (42 KB). It
//! stores plain slot lists and no buffer postings, so it must open as
//! exactly a fresh build. Version 3 moved the section table from after the
//! header to the end of the file; a version-2 image re-saves as version 3,
//! and a delta checkpoint over a version-2 file falls back to a full save.

use gbkmv_core::dataset::{Dataset, Record};
use gbkmv_core::index::{GbKmvConfig, GbKmvIndex, SearchHit, ShardedIndex};

const FIXTURE: &[u8] = include_bytes!("fixtures/arena_v2_d4b4a26.bin");

/// The plain version-2 image of the last version-2 writer.
const PLAIN_V2: &[u8] = include_bytes!("fixtures/arena_v2_9821968.bin");

/// Sections per shard and before the first shard (see `gbkmv_core::persist`).
const SECTIONS_PER_SHARD: usize = 13;
const FIXED_SECTIONS: usize = 2;

/// Twelve hot elements (`0..12`, element `e` in about `85 − 6e` percent of
/// the records, so a buffer of 12 holds exactly them) beside a tail of 4 to
/// 26 elements drawn from `100..1_600`.
fn fixture_dataset() -> Dataset {
    Dataset::from_records((0..300u32).map(|i| {
        let mix = |e: u32| {
            (e.wrapping_mul(0x9E37_79B9) ^ i.wrapping_mul(0x85EB_CA6B)).wrapping_mul(0xC2B2_AE35)
                >> 16
        };
        let mut v: Vec<u32> = (0..12u32).filter(|&e| mix(e) % 100 < 85 - 6 * e).collect();
        v.extend((0..(4 + i % 23)).map(|j| 100 + (j * 37 + i * 11) % 1_500));
        v
    }))
}

fn fixture_config() -> GbKmvConfig {
    GbKmvConfig::with_space_fraction(0.15)
        .buffer_size(12)
        .shards(3)
        .threads(1)
}

/// Bytes in the three buffer-posting sections of shard `shard`.
fn buffer_posting_bytes(image: &[u8], shard: usize) -> u64 {
    section_bytes(image, shard, 10..13)
}

/// Bytes in the block-compressed signature-posting sections (payload words
/// and block descriptors) of shard `shard`.
fn packed_posting_bytes(image: &[u8], shard: usize) -> u64 {
    section_bytes(image, shard, 7..9)
}

fn word_at(image: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(image[at..at + 8].try_into().expect("8-byte word"))
}

/// The format version in an image's header.
fn version(image: &[u8]) -> u64 {
    word_at(image, 8)
}

/// Bytes in the sections `range` of shard `shard`, read from the section
/// table (entries of offset, length, checksum): right after the 48-byte
/// header in version 2, at the end of the file in version 3.
fn section_bytes(image: &[u8], shard: usize, range: std::ops::Range<usize>) -> u64 {
    let count = word_at(image, 40) as usize;
    let table = match version(image) {
        2 => 48,
        _ => image.len() - 24 * count,
    };
    let first = FIXED_SECTIONS + shard * SECTIONS_PER_SHARD;
    range
        .map(|k| word_at(image, table + (first + k) * 24 + 8))
        .sum()
}

/// Every record of `index` with a positive estimate, best first, ties by
/// ascending record id: the reference top-k ranking.
fn ranked_scan(index: &GbKmvIndex, query: &Record, k: usize) -> Vec<SearchHit> {
    let mut ranked = index.search_scan(query, 0.0);
    ranked.retain(|h| h.estimated_overlap > 0.0);
    ranked.sort_by(|a, b| {
        b.estimated_containment
            .total_cmp(&a.estimated_containment)
            .then_with(|| a.record_id.cmp(&b.record_id))
    });
    ranked.truncate(k);
    ranked
}

/// Records of the dataset, hot-element-only queries (which share a
/// buffered element with most records) and a query of one hot element
/// plus a record's tail.
fn queries(dataset: &Dataset) -> Vec<Record> {
    let mut queries: Vec<Record> = [0usize, 17, 150, 299]
        .iter()
        .map(|&rid| dataset.record(rid).clone())
        .collect();
    queries.push(Record::new((0..12).collect()));
    queries.push(Record::new(vec![2, 9]));
    let mut mixed = vec![11u32];
    mixed.extend(dataset.record(42).elements().iter().filter(|&&e| e >= 100));
    queries.push(Record::new(mixed));
    queries
}

/// Whether `image` holds what `fresh` holds, record for record: the same
/// shards over the same record ranges, every record's sketch equal, and
/// every shard's slots in descending size order.
fn assert_same_records(image: &ShardedIndex, fresh: &ShardedIndex) {
    assert_eq!(image.shards().len(), fresh.shards().len());
    for (a, b) in image.shards().iter().zip(fresh.shards()) {
        assert_eq!((a.base(), a.len()), (b.base(), b.len()), "shard ranges");
        let (sa, sb) = (a.store(), b.store());
        for rid in 0..sa.len() {
            assert_eq!(sa.record_sketch(rid), sb.record_sketch(rid), "record {rid}");
        }
        assert!((1..sa.len()).all(|s| sa.record_size(s - 1) >= sa.record_size(s)));
        assert_eq!(sa.total_hashes(), sb.total_hashes());
    }
}

/// Thresholded search and top-k of `index` must equal the reference scan.
fn assert_answers_like_the_scan(index: &GbKmvIndex, label: &str) {
    let dataset = fixture_dataset();
    for (qi, query) in queries(&dataset).iter().enumerate() {
        for t_star in [0.0, 0.05, 0.1, 0.2, 0.5, 0.9] {
            let scan = index.search_scan(query, t_star);
            assert_eq!(
                index.search_record(query, t_star),
                scan,
                "{label}: query {qi} at t*={t_star}"
            );
            assert_eq!(
                index.search_batch_threads(std::slice::from_ref(query), t_star, 2)[0],
                scan,
                "{label}: query {qi} at t*={t_star}, batch"
            );
        }
        for k in [1, 10, 400] {
            assert_eq!(
                index.search_topk(query, k),
                ranked_scan(index, query, k),
                "{label}: query {qi} top-{k}"
            );
        }
    }
}

#[test]
fn parent_image_opens_and_equals_a_fresh_build() {
    for shard in 0..3 {
        assert!(
            buffer_posting_bytes(FIXTURE, shard) > 0,
            "the fixture must store buffer postings in shard {shard}"
        );
        assert!(
            packed_posting_bytes(FIXTURE, shard) > 0,
            "the fixture must store block-compressed lists in shard {shard}"
        );
    }
    let loaded = GbKmvIndex::from_arena_bytes(FIXTURE).expect("a parent-written image opens");
    let fresh = GbKmvIndex::build(&fixture_dataset(), fixture_config());
    assert_eq!(fresh.summary().buffer_size, 12, "fixture shape drifted");
    assert_eq!(fresh.sharded().shards().len(), 3, "fixture shape drifted");
    assert_same_records(loaded.sharded(), fresh.sharded());
    assert_eq!(loaded.sketcher(), fresh.sketcher());
    assert_eq!(loaded.summary(), fresh.summary());
    assert_eq!(loaded.config(), fresh.config());

    // Re-saving drops the buffer postings, writes plain slot lists, and
    // the smaller image round-trips byte for byte like any image this build
    // writes.
    let resaved = loaded.to_arena_bytes();
    assert!(resaved.len() < FIXTURE.len());
    for shard in 0..3 {
        assert_eq!(buffer_posting_bytes(&resaved, shard), 0);
        assert_eq!(packed_posting_bytes(&resaved, shard), 0);
    }
    let reopened = GbKmvIndex::from_arena_bytes(&resaved).expect("re-saved image opens");
    assert_eq!(reopened.sharded(), loaded.sharded());
    assert_eq!(reopened.to_arena_bytes(), resaved);
}

#[test]
fn parent_image_answers_like_the_scan() {
    let loaded = GbKmvIndex::from_arena_bytes(FIXTURE).expect("a parent-written image opens");
    assert_answers_like_the_scan(&loaded, "parent image");
    let fresh = GbKmvIndex::build(&fixture_dataset(), fixture_config());
    for query in queries(&fixture_dataset()) {
        assert_eq!(
            loaded.search_record(&query, 0.1),
            fresh.search_scan(&query, 0.1)
        );
    }
}

/// Checkpoints `index` by `save_delta` to `path` against a fresh copy of
/// `prev` at `prev_path` (the two paths may be one file); returns the
/// written bytes and the stats.
fn delta_file(
    index: &GbKmvIndex,
    prev: &[u8],
    path: &std::path::Path,
    prev_path: &std::path::Path,
) -> (Vec<u8>, gbkmv_core::persist::DeltaStats) {
    std::fs::write(prev_path, prev).expect("write the previous image");
    let stats = index.save_delta(path, prev_path).expect("delta checkpoint");
    (std::fs::read(path).expect("read the checkpoint"), stats)
}

/// A delta checkpoint over a version-2 image falls back to a full save,
/// which writes version 3 and drops the buffer postings: the result is
/// byte-identical to a full save, reopens, and answers like the scan. The
/// next delta, against the new image, keeps the clean shards again.
#[test]
fn delta_checkpoint_against_a_parent_image_rewrites_its_shards() {
    let dir =
        std::env::temp_dir().join(format!("gbkmv_persist_compat_delta_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (path, parent) = (dir.join("index.arena"), dir.join("parent.arena"));
    let dataset = fixture_dataset();
    let mut index = GbKmvIndex::from_arena_bytes(FIXTURE).expect("a parent-written image opens");

    let (unchanged, stats) = delta_file(&index, FIXTURE, &path, &path);
    assert!(stats.fallback, "a version-2 file is rewritten whole");
    assert_eq!((stats.reused_shards, stats.rewritten_shards), (0, 3));
    assert_eq!(unchanged, index.to_arena_bytes());
    assert_eq!(version(&unchanged), 3);

    // One merge of three records into the unclustered tail shard.
    let grown: Vec<Record> = [3usize, 77, 210]
        .iter()
        .map(|&rid| {
            let mut elements = dataset.record(rid).elements().to_vec();
            elements.push(5_000 + rid as u32);
            Record::new(elements)
        })
        .collect();
    index.insert_batch(&grown);
    let (bytes, stats) = delta_file(&index, FIXTURE, &path, &parent);
    assert!(stats.fallback, "a version-2 file is rewritten whole");
    assert_eq!((stats.reused_shards, stats.rewritten_shards), (0, 3));
    assert_eq!(
        bytes,
        index.to_arena_bytes(),
        "delta diverged from a full save"
    );
    let reopened = GbKmvIndex::from_arena_bytes(&bytes).expect("the delta image opens");
    assert_eq!(reopened.sharded(), index.sharded());
    assert_answers_like_the_scan(&reopened, "delta over a parent image");

    let (again, stats) = delta_file(&index, &bytes, &path, &path);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!((stats.reused_shards, stats.rewritten_shards), (3, 0));
    assert!(!stats.fallback);
    assert_eq!(again, bytes);
}

#[test]
fn in_place_checkpoint_over_a_parent_image_file_reopens() {
    let dir = std::env::temp_dir().join(format!("gbkmv_persist_compat_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("index.arena");
    std::fs::write(&path, FIXTURE).expect("write fixture copy");
    let mut index = GbKmvIndex::open(&path).expect("a parent-written file opens");
    index.insert(&Record::new(vec![0, 1, 2, 700, 9_000]));
    let stats = index.save_delta(&path, &path).expect("checkpoint in place");
    assert_eq!((stats.reused_shards, stats.rewritten_shards), (0, 3));
    let reopened = GbKmvIndex::open(&path).expect("the checkpoint opens");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(reopened.sharded(), index.sharded());
    assert_answers_like_the_scan(&reopened, "in-place checkpoint");
}

#[test]
fn plain_v2_image_opens_and_equals_a_fresh_build() {
    assert_eq!(
        version(PLAIN_V2),
        2,
        "the fixture must be a version-2 image"
    );
    for shard in 0..3 {
        assert_eq!(buffer_posting_bytes(PLAIN_V2, shard), 0);
        assert_eq!(packed_posting_bytes(PLAIN_V2, shard), 0);
    }
    let loaded = GbKmvIndex::from_arena_bytes(PLAIN_V2).expect("a version-2 image opens");
    let fresh = GbKmvIndex::build(&fixture_dataset(), fixture_config());
    assert!(fresh.summary().buffer_size > 0);
    assert_eq!(loaded.sharded(), fresh.sharded());
    assert_eq!(loaded.sketcher(), fresh.sketcher());
    assert_eq!(loaded.summary(), fresh.summary());
    assert_eq!(loaded.config(), fresh.config());
}

#[test]
fn plain_v2_image_answers_like_the_scan() {
    let loaded = GbKmvIndex::from_arena_bytes(PLAIN_V2).expect("a version-2 image opens");
    assert_answers_like_the_scan(&loaded, "plain version-2 image");
}

/// A version-2 image re-saves as version 3 with the same sections, and a
/// delta over the version-2 file falls back to that full save once; the
/// next delta after a flush keeps the clean shards.
#[test]
fn plain_v2_image_resaves_as_v3() {
    let loaded = GbKmvIndex::from_arena_bytes(PLAIN_V2).expect("a version-2 image opens");
    let resaved = loaded.to_arena_bytes();
    assert_eq!(version(&resaved), 3);
    assert_eq!(resaved.len(), PLAIN_V2.len(), "only the table moved");
    let reopened = GbKmvIndex::from_arena_bytes(&resaved).expect("the version-3 image opens");
    assert_eq!(reopened.sharded(), loaded.sharded());
    assert_eq!(reopened.to_arena_bytes(), resaved);

    let dir = std::env::temp_dir().join(format!("gbkmv_persist_compat_v3_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("index.arena");
    let mut index = loaded;
    let (bytes, stats) = delta_file(&index, PLAIN_V2, &path, &path);
    assert!(stats.fallback, "a version-2 file is rewritten whole");
    assert_eq!(bytes, resaved);
    index.insert(&Record::new(vec![0, 1, 2, 700, 9_000]));
    let stats = index.save_delta(&path, &path).expect("delta checkpoint");
    let bytes = std::fs::read(&path).expect("read the checkpoint");
    std::fs::remove_dir_all(&dir).ok();
    assert!(!stats.fallback);
    assert_eq!((stats.reused_shards, stats.rewritten_shards), (2, 1));
    assert_eq!(bytes, index.to_arena_bytes());
    let reopened = GbKmvIndex::from_arena_bytes(&bytes).expect("the delta image opens");
    assert_answers_like_the_scan(&reopened, "delta over a re-saved version-2 image");
}
