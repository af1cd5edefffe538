//! Round-trip suite for the single-file index arena (`crate::persist`):
//! save→load→save byte identity, storage and answer identity of loaded
//! indexes, zero-copy accounting (`mem_usage` reports every loaded arena as
//! borrowed), and growth after a load — inserting into a loaded index (which
//! promotes borrowed arenas to owned on first write) must leave it
//! bit-identical to the same inserts applied to the built index.

use gbkmv_core::dataset::{Dataset, Record};
use gbkmv_core::index::{GbKmvConfig, GbKmvIndex};
use gbkmv_core::service::ContainmentService;

fn dataset(n: usize) -> Dataset {
    Dataset::from_records((0..n as u32).map(|i| {
        (0..(3 + i % 23))
            .map(|j| (j * 29 + i * 11) % 1_500)
            .collect::<Vec<_>>()
    }))
}

fn configs() -> Vec<(&'static str, GbKmvConfig)> {
    vec![
        ("default", GbKmvConfig::with_space_fraction(0.4)),
        ("sharded", GbKmvConfig::with_space_fraction(0.4).shards(4)),
        ("3-sharded", GbKmvConfig::with_space_fraction(0.4).shards(3)),
        (
            "no-buffer",
            GbKmvConfig::with_space_fraction(0.4).buffer_size(0),
        ),
        ("saturated", GbKmvConfig::with_space_fraction(2.0)),
    ]
}

#[test]
fn save_load_save_is_byte_identical_across_configs() {
    let data = dataset(150);
    for (label, config) in configs() {
        let built = GbKmvIndex::build(&data, config);
        let bytes = built.to_arena_bytes();
        let loaded = GbKmvIndex::from_arena_bytes(&bytes)
            .unwrap_or_else(|e| panic!("{label}: load failed: {e}"));
        assert_eq!(
            loaded.to_arena_bytes(),
            bytes,
            "{label}: re-saved arena bytes diverged"
        );
    }
}

#[test]
fn loaded_index_matches_built_index_in_storage_and_answers() {
    let data = dataset(150);
    for (label, config) in configs() {
        let built = GbKmvIndex::build(&data, config);
        let loaded = GbKmvIndex::from_arena_bytes(&built.to_arena_bytes())
            .unwrap_or_else(|e| panic!("{label}: load failed: {e}"));
        assert_eq!(
            loaded.sharded(),
            built.sharded(),
            "{label}: loaded storage diverged"
        );
        assert_eq!(
            loaded.summary(),
            built.summary(),
            "{label}: summary diverged"
        );
        assert_eq!(loaded.config(), built.config(), "{label}: config diverged");
        for qid in [0usize, 7, 63, 149] {
            let query = data.record(qid);
            for t_star in [0.1, 0.5, 0.9] {
                assert_eq!(
                    loaded.search_record(query, t_star),
                    built.search_record(query, t_star),
                    "{label}: answers diverged (query {qid}, t*={t_star})"
                );
            }
        }
    }
}

#[test]
fn loaded_index_reports_every_arena_as_borrowed() {
    let data = dataset(200);
    for (label, config) in [
        ("unsharded", GbKmvConfig::with_space_fraction(0.4)),
        ("sharded", GbKmvConfig::with_space_fraction(0.4).shards(2)),
    ] {
        let built = GbKmvIndex::build(&data, config);
        let loaded = GbKmvIndex::from_arena_bytes(&built.to_arena_bytes()).expect("load");
        let usage = loaded.mem_usage();
        // Every content-bearing component of the loaded index lives in the
        // leaked arena: the borrowed total is exactly the arena-content sum
        // (total minus the rebuilt hash_df map), and the owned total
        // excludes all of it.
        assert_eq!(
            usage.borrowed_bytes,
            usage.arena_content_bytes(),
            "{label}: a loaded component is not borrowed zero-copy"
        );
        assert!(usage.borrowed_bytes > 0, "{label}: nothing was borrowed");
        // The built index owns everything; nothing is borrowed there.
        let built_usage = built.mem_usage();
        assert_eq!(built_usage.borrowed_bytes, 0);
        assert!(built_usage.total_bytes() > 0);
    }
}

#[test]
fn insert_after_load_matches_insert_after_build() {
    let data = dataset(120);
    let extra: Vec<Record> = (0..9u32)
        .map(|i| Record::new((0..20).map(|j| (i * 37 + j * 13) % 1_500).collect()))
        .collect();
    for (label, config) in [
        ("sharded", GbKmvConfig::with_space_fraction(0.4).shards(2)),
        ("unsharded", GbKmvConfig::with_space_fraction(0.4)),
    ] {
        let mut built = GbKmvIndex::build(&data, config);
        let mut loaded = GbKmvIndex::from_arena_bytes(&built.to_arena_bytes()).expect("load");
        // Growing a loaded index promotes its borrowed arenas to owned
        // (one bulk copy each, on first write) and must land in exactly
        // the state the same inserts produce on the built index.
        for record in &extra {
            built.insert(record);
            loaded.insert(record);
        }
        assert_eq!(
            loaded.sharded(),
            built.sharded(),
            "{label}: grown loaded index diverged from grown built index"
        );
        let query = &extra[3];
        assert_eq!(
            loaded.search_record(query, 0.4),
            built.search_record(query, 0.4),
            "{label}: grown answers diverged"
        );
        // And the grown loaded index persists like any other.
        let regrown = GbKmvIndex::from_arena_bytes(&loaded.to_arena_bytes()).expect("re-load");
        assert_eq!(
            regrown.sharded(),
            loaded.sharded(),
            "{label}: regrown reload diverged"
        );
    }
}

#[test]
fn file_round_trip_through_service_checkpoint() {
    let dir = std::env::temp_dir().join("gbkmv_persist_roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("service.arena");

    let data = dataset(100);
    let service = ContainmentService::build(&data, GbKmvConfig::with_space_fraction(0.4).shards(2));
    let report = service.checkpoint(&path, false).expect("checkpoint");
    assert_eq!(report.records, 100);
    assert_eq!(report.pending, 0);

    let reopened = ContainmentService::open(&path).expect("open");
    let before = service.snapshot();
    let after = reopened.snapshot();
    assert_eq!(after.sharded(), before.sharded());
    let query = data.record(42);
    assert_eq!(
        after.search_record(query, 0.3),
        before.search_record(query, 0.3)
    );
    std::fs::remove_file(&path).ok();
}
