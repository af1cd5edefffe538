//! Arena images written while the index still stored buffer postings and
//! block-compressed posting lists.
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

use gbkmv_core::dataset::{Dataset, Record};
use gbkmv_core::index::{GbKmvConfig, GbKmvIndex, SearchHit, ShardedIndex};

const FIXTURE: &[u8] = include_bytes!("fixtures/arena_v2_d4b4a26.bin");

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

/// Bytes in the sections `range` of shard `shard`, read from the section
/// table (entries of offset, length, checksum after the 48-byte header).
fn section_bytes(image: &[u8], shard: usize, range: std::ops::Range<usize>) -> u64 {
    let first = FIXED_SECTIONS + shard * SECTIONS_PER_SHARD;
    range
        .map(|k| first + k)
        .map(|section| {
            let at = 48 + section * 24 + 8;
            u64::from_le_bytes(image[at..at + 8].try_into().expect("8-byte table word"))
        })
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
                index.search_parallel_threads(query.elements(), t_star, 2),
                scan,
                "{label}: query {qi} at t*={t_star}, parallel"
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

/// A delta checkpoint never copies a shard whose old bytes still hold
/// buffer postings: every such shard is re-serialised (no fallback to a
/// whole-image rewrite is needed), so the result is byte-identical to a
/// full save, reopens, and answers like the scan. The next delta, against
/// the new image, reuses the clean shards again.
#[test]
fn delta_checkpoint_against_a_parent_image_rewrites_its_shards() {
    let dataset = fixture_dataset();
    let mut index = GbKmvIndex::from_arena_bytes(FIXTURE).expect("a parent-written image opens");

    let (unchanged, stats) = index.to_arena_bytes_delta(FIXTURE);
    assert!(!stats.fallback);
    assert_eq!((stats.reused_shards, stats.rewritten_shards), (0, 3));
    assert_eq!(unchanged, index.to_arena_bytes());

    for rid in [3usize, 77, 210] {
        let mut grown = dataset.record(rid).elements().to_vec();
        grown.push(5_000 + rid as u32);
        index.insert(&Record::new(grown));
    }
    let (bytes, stats) = index.to_arena_bytes_delta(FIXTURE);
    assert!(!stats.fallback);
    assert_eq!((stats.reused_shards, stats.rewritten_shards), (0, 3));
    assert_eq!(
        bytes,
        index.to_arena_bytes(),
        "delta diverged from a full save"
    );
    let reopened = GbKmvIndex::from_arena_bytes(&bytes).expect("the delta image opens");
    assert_eq!(reopened.sharded(), index.sharded());
    assert_answers_like_the_scan(&reopened, "delta over a parent image");

    let (again, stats) = index.to_arena_bytes_delta(&bytes);
    assert_eq!((stats.reused_shards, stats.rewritten_shards), (3, 0));
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
