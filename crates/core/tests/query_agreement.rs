//! Property tests pinning the staged query pipeline to the one reference
//! path: across random datasets, space budgets, buffer sizes, shard counts
//! and thresholds, the pipeline (`search_record`, whose signature prefix
//! filter decides per query whether it engages), the sharded index,
//! the parallel batch path, the intra-query parallel path
//! (`search_parallel`) and the auto-scheduled path (`search_auto`) must all
//! return **bit-identical** hits — same record ids, same `f64` estimates,
//! same order — as the full-scan reference `search_scan`; and the
//! bounded-heap top-k must match a sort-everything reference of the
//! positive-score records. Saturated sketches (budgets above 100%), empty
//! queries, (near-)zero thresholds (where no prefix exists and every hash
//! mints) and queries whose signature is entirely absent from the index
//! are exercised explicitly. Sharding is crossed with insert-then-search,
//! the parallel paths, top-k, persistence and the serving layer.

use proptest::collection::vec;
use proptest::prelude::*;

use gbkmv_core::dataset::{Dataset, Record};
use gbkmv_core::index::{BufferSizing, GbKmvConfig, GbKmvIndex, QueryPipeline, SearchHit};
use gbkmv_core::service::ContainmentService;

fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    vec(vec(0u32..3_000, 1..120), 4..48).prop_map(Dataset::from_records)
}

/// Maps a raw generated buffer knob onto the sizing modes: plain G-KMV, a
/// one-word buffer, the cost model's choice, or a multi-word buffer of
/// `wide` bits (drawn from 64..=130, past the one-word boundary — REUTERS
/// picks r = 120).
fn buffer_sizing(knob: usize, wide: usize) -> BufferSizing {
    match knob {
        0 => BufferSizing::Fixed(0), // plain G-KMV
        k if k < 20 => BufferSizing::Fixed(k),
        k if k < 24 => BufferSizing::Auto,
        _ => BufferSizing::Fixed(wide),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_engine_paths_are_bit_identical_to_scan(
        dataset in dataset_strategy(),
        budget_fraction in 0.03f64..1.2,
        t_star in 0.0f64..1.0,
        buffer_knob in 0usize..32,
        wide_buffer in 64usize..131,
        shards in 1usize..5,
        seed in 0u64..1_000_000,
        query_pick in 0usize..1_000,
    ) {
        let mut config = GbKmvConfig::with_space_fraction(budget_fraction)
            .hash_seed(seed | 1);
        config.buffer = buffer_sizing(buffer_knob, wide_buffer);
        let index = GbKmvIndex::build(&dataset, config);
        let sharded = GbKmvIndex::build(&dataset, config.shards(shards));
        let query = dataset.record(query_pick % dataset.len()).clone();

        let scan = index.search_scan(&query, t_star);
        let filtered = index.search_record(&query, t_star);

        // Bit-identical: SearchHit's PartialEq compares the f64 estimates
        // exactly, not approximately.
        prop_assert_eq!(&scan, &filtered,
            "pruned pipeline diverged from scan (t*={}, budget={})", t_star, budget_fraction);

        // Sharding never changes an answer either, on the single-query, the
        // parallel batch or the intra-query parallel path, for any thread
        // count.
        prop_assert_eq!(&scan, &sharded.search_record(&query, t_star),
            "{}-shard pipeline diverged from scan (t*={})", shards, t_star);
        let batch_queries = [query.clone(), query.clone()];
        for threads in [1usize, 3] {
            let batch = sharded.search_batch_threads(&batch_queries, t_star, threads);
            prop_assert_eq!(batch.len(), 2);
            for hits in batch {
                prop_assert_eq!(&scan, &hits,
                    "batch on {} shards / {} threads diverged (t*={})", shards, threads, t_star);
            }
            prop_assert_eq!(
                &scan,
                &sharded.search_parallel_threads(query.elements(), t_star, threads),
                "intra-query parallel on {} shards / {} threads diverged (t*={})",
                shards, threads, t_star);
        }

        // The auto-scheduled path picks its own engine but never its own
        // answers — single-query and multi-query workloads alike.
        let auto = sharded.search_auto(std::slice::from_ref(&query), t_star);
        prop_assert_eq!(auto.len(), 1);
        prop_assert_eq!(&scan, &auto[0], "single-query search_auto diverged (t*={})", t_star);
        let auto2 = sharded.search_auto(&[query.clone(), query.clone()], t_star);
        for hits in auto2 {
            prop_assert_eq!(&scan, &hits, "multi-query search_auto diverged (t*={})", t_star);
        }

        // The ContainmentIndex ordering contract: ascending record id.
        prop_assert!(scan.windows(2).all(|w| w[0].record_id < w[1].record_id));

        // Reusing one pipeline for a second pass over the same query changes
        // nothing (epoch reset works under arbitrary configurations).
        let mut pipeline = QueryPipeline::new();
        let first = pipeline.search_sorted(&index, query.elements(), t_star);
        let second = pipeline.search_sorted(&index, query.elements(), t_star);
        prop_assert_eq!(&first, &second, "scratch reuse leaked state");
        prop_assert_eq!(&first, &scan, "reused pipeline diverged from scan");
    }

    #[test]
    fn saturated_sketches_and_empty_queries_agree(
        dataset in dataset_strategy(),
        t_star in 0.0f64..1.0,
        shards in 1usize..4,
        seed in 0u64..1_000_000,
        query_pick in 0usize..1_000,
    ) {
        // A budget above the dataset size saturates every sketch (τ admits
        // everything), the edge where the estimator switches to exact
        // counts — pruning and sharding must stay invisible there too.
        let config = GbKmvConfig::with_space_fraction(2.0)
            .hash_seed(seed | 1)
            .shards(shards);
        let index = GbKmvIndex::build(&dataset, config);
        let query = dataset.record(query_pick % dataset.len()).clone();

        let scan = index.search_scan(&query, t_star);
        prop_assert_eq!(&scan, &index.search_record(&query, t_star),
            "saturated: pruned pipeline diverged from scan (t*={})", t_star);

        // Empty query: θ = t*·0 = 0, so every path must degenerate to the
        // all-records answer with zero estimates, identically.
        let empty_scan = index.search_scan(&Record::default(), t_star);
        prop_assert_eq!(empty_scan.len(), dataset.len());
        prop_assert!(empty_scan.iter().all(|h| h.estimated_containment == 0.0));
        prop_assert_eq!(&empty_scan, &index.search_elements(&[], t_star));
        prop_assert_eq!(&empty_scan, &index.search_record(&Record::default(), t_star));
        let batch = index.search_batch(&[Record::default()], t_star);
        prop_assert_eq!(&empty_scan, &batch[0],
            "empty-query batch diverged (t*={})", t_star);
    }

    #[test]
    fn prefix_filter_degenerate_cases_agree(
        dataset in dataset_strategy(),
        budget_fraction in 0.05f64..1.1,
        tiny_t in 0.0005f64..0.05,
        shards in 1usize..4,
        seed in 0u64..1_000_000,
        query_pick in 0usize..1_000,
        absent_base in 5_000u32..50_000,
    ) {
        // The two degenerate regimes of the prefix filter, crossed with
        // sharding, batching and the thread counts of both parallel paths:
        //
        // * t* = 0 (and tiny t* where θ_sig ≤ 1): no prefix exists — every
        //   signature hash mints, and the walk must degrade to the plain
        //   accumulator (t* = 0 itself short-circuits to the scan);
        // * a query whose signature shares nothing with the index: every
        //   hash has df 0, no posting exists, and every path must agree on
        //   the (at positive thresholds, empty) answer.
        let config = GbKmvConfig::with_space_fraction(budget_fraction)
            .hash_seed(seed | 1)
            .shards(shards);
        let index = GbKmvIndex::build(&dataset, config);
        let in_dataset = dataset.record(query_pick % dataset.len()).clone();
        // Dataset elements live in 0..3_000; this query shares none.
        let absent = Record::new((absent_base..absent_base + 30).collect());

        for (label, query) in [("sampled", &in_dataset), ("absent", &absent)] {
            for &t_star in &[0.0, tiny_t, 0.6] {
                let scan = index.search_scan(query, t_star);
                prop_assert_eq!(&scan, &index.search_record(query, t_star),
                    "{} query: pipeline diverged (t*={})", label, t_star);
                prop_assert_eq!(
                    &scan,
                    &index.search_parallel_threads(query.elements(), t_star, 3),
                    "{} query: intra-query parallel diverged (t*={})", label, t_star);
                let batch = index.search_batch_threads(
                    std::slice::from_ref(query), t_star, 2);
                prop_assert_eq!(&scan, &batch[0],
                    "{} query: batch diverged (t*={})", label, t_star);
            }
        }
        let positive_absent = index.search_record(&absent, 0.6);
        prop_assert!(positive_absent.is_empty(),
            "absent-signature query matched records at a positive threshold");
    }

    #[test]
    fn filtered_topk_matches_positive_score_reference(
        dataset in dataset_strategy(),
        budget_fraction in 0.05f64..1.0,
        k in 1usize..20,
        shards in 1usize..4,
        seed in 0u64..1_000_000,
        query_pick in 0usize..1_000,
    ) {
        // Candidate-filtered top-k ranks exactly the records sharing a
        // posting with the query, which are exactly the records with a
        // strictly positive estimate. The reference is therefore the
        // sort-everything ranking of `search_scan` restricted to
        // positive-score hits.
        let config = GbKmvConfig::with_space_fraction(budget_fraction)
            .hash_seed(seed | 1)
            .shards(shards);
        let index = GbKmvIndex::build(&dataset, config);
        let query = dataset.record(query_pick % dataset.len()).clone();

        let top = index.search_topk(&query, k);

        let mut reference: Vec<SearchHit> = index.search_scan(&query, 0.0);
        reference.sort_by(|a, b| {
            b.estimated_containment
                .total_cmp(&a.estimated_containment)
                .then_with(|| a.record_id.cmp(&b.record_id))
        });
        reference.retain(|h| h.estimated_overlap > 0.0);
        reference.truncate(k);
        prop_assert_eq!(top, reference, "filtered heap top-k diverged from reference");
    }

    #[test]
    fn heap_topk_matches_sort_everything_reference(
        dataset in dataset_strategy(),
        budget_fraction in 0.05f64..1.0,
        k in 1usize..20,
        seed in 0u64..1_000_000,
        query_pick in 0usize..1_000,
    ) {
        // The reference scan offers *every* record to the ranking, which
        // keeps the positive-score ones, so it is unambiguous and shares no
        // code with the candidates stage the heap ranks.
        let config = GbKmvConfig::with_space_fraction(budget_fraction)
            .hash_seed(seed | 1);
        let index = GbKmvIndex::build(&dataset, config);
        let qid = query_pick % dataset.len();
        let query = dataset.record(qid).clone();

        let top = index.search_topk(&query, k);

        // Reference: estimate every record (threshold 0 returns all), sort by
        // (containment desc, record id asc), keep the positive scores,
        // truncate.
        let mut reference: Vec<SearchHit> = index.search_scan(&query, 0.0);
        reference.sort_by(|a, b| {
            b.estimated_containment
                .total_cmp(&a.estimated_containment)
                .then_with(|| a.record_id.cmp(&b.record_id))
        });
        reference.retain(|h| h.estimated_overlap > 0.0);
        reference.truncate(k);
        prop_assert_eq!(top, reference, "heap top-k diverged from sort reference");
    }

    #[test]
    fn insert_then_search_matches_scan_on_grown_index(
        dataset in dataset_strategy(),
        extra in vec(vec(0u32..3_000, 1..80), 1..6),
        budget_fraction in 0.05f64..1.1,
        t_star in 0.0f64..1.0,
        shards in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        // Dynamic inserts go through the same sharded, size-ordered path as
        // the bulk build; the pruned pipeline must stay exact on the grown
        // index (the scan recomputes from the stored sketches, so this
        // cross-checks the posting renumbering and splices).
        let inserted: Vec<Record> = extra.into_iter().map(Record::new).collect();
        let config = GbKmvConfig::with_space_fraction(budget_fraction)
            .hash_seed(seed | 1)
            .shards(shards);
        let mut index = GbKmvIndex::build(&dataset, config);
        for record in &inserted {
            index.insert(record);
        }
        for query in inserted.iter().chain(std::iter::once(dataset.record(0))) {
            let scan = index.search_scan(query, t_star);
            prop_assert_eq!(&scan, &index.search_record(query, t_star),
                "grown {}-shard index: pipeline diverged from scan (t*={})",
                shards, t_star);
        }
    }

    #[test]
    fn engine_variants_agree_with_scan(
        dataset in dataset_strategy(),
        budget_fraction in 0.05f64..1.1,
        t_star in 0.0f64..1.0,
        shards in 1usize..5,
        seed in 0u64..1_000_000,
        query_pick in 0usize..1_000,
        k in 1usize..12,
        extra in vec(vec(0u32..3_000, 1..60), 1..3),
    ) {
        // The engine-variant sweep: each shard count over the sequential,
        // intra-query-parallel, batch and top-k paths, persistence and the
        // serving layer (insert-then-search) — every combination pinned
        // bit-identical to the scan reference.
        let base = GbKmvConfig::with_space_fraction(budget_fraction)
            .hash_seed(seed | 1)
            .shards(shards);
        let query = dataset.record(query_pick % dataset.len()).clone();
        let reference = GbKmvIndex::build(&dataset, base);
        let scan = reference.search_scan(&query, t_star);
        let topk_reference = reference.search_topk(&query, k);
        let inserted: Vec<Record> = extra.into_iter().map(Record::new).collect();

        // The persistence dimension: a save→load round trip through the
        // arena format (in memory — same bytes `save`/`open` move through
        // a file) is pure storage. The loaded index borrows its arenas
        // zero-copy yet must be bit-identical in storage and in answers,
        // and a re-save must reproduce the bytes exactly.
        let arena = reference.to_arena_bytes();
        let loaded = GbKmvIndex::from_arena_bytes(&arena).expect("arena round trip failed");
        prop_assert_eq!(loaded.sharded(), reference.sharded(),
            "loaded storage diverged from the built index ({} shards)", shards);
        prop_assert_eq!(&scan, &loaded.search_record(&query, t_star),
            "loaded index answers diverged (t*={})", t_star);
        prop_assert_eq!(&topk_reference, &loaded.search_topk(&query, k),
            "loaded index top-k diverged (k={})", k);
        prop_assert_eq!(loaded.to_arena_bytes(), arena, "re-saved arena bytes diverged");

        prop_assert_eq!(&scan, &reference.search_record(&query, t_star),
            "sequential pipeline diverged (t*={})", t_star);
        prop_assert_eq!(
            &scan,
            &reference.search_parallel_threads(query.elements(), t_star, 3),
            "intra-query parallel diverged (t*={})", t_star);
        let batch = reference.search_batch_threads(std::slice::from_ref(&query), t_star, 2);
        prop_assert_eq!(&scan, &batch[0], "batch diverged (t*={})", t_star);

        // The service dimension: a grown snapshot answers like the directly
        // grown index and like its own scan.
        let service = ContainmentService::new(reference.clone());
        let mut grown = reference;
        for record in &inserted {
            service.submit(record.clone()).unwrap();
            grown.insert(record);
        }
        service.flush();
        let snapshot = service.snapshot();
        prop_assert_eq!(
            &snapshot.search_record(&query, t_star),
            &grown.search_record(&query, t_star),
            "service snapshot diverged from the grown index (t*={})", t_star);
        prop_assert_eq!(
            &snapshot.search_record(&query, t_star),
            &snapshot.search_scan(&query, t_star),
            "grown service snapshot diverged from its own scan (t*={})", t_star);
    }

    #[test]
    fn service_generations_match_sequentially_grown_index(
        dataset in dataset_strategy(),
        extra in vec(vec(0u32..3_000, 1..80), 1..9),
        budget_fraction in 0.05f64..1.1,
        t_star in 0.0f64..1.0,
        shards in 1usize..4,
        seed in 0u64..1_000_000,
        batch in 1usize..4,
    ) {
        // The service dimension of the agreement suite: every generation a
        // `ContainmentService` publishes must be bit-identical — storage and
        // answers — to an index grown by the same `insert` calls applied
        // directly, for any shard count and ingest batch size. (A *rebuild*
        // from the grown dataset is deliberately not the reference: it
        // would re-derive τ and r from the new statistics, while both the
        // service and direct inserts keep the build-time sketcher.)
        let config = GbKmvConfig::with_space_fraction(budget_fraction)
            .hash_seed(seed | 1)
            .shards(shards)
            .ingest_batch(batch);
        let service = ContainmentService::new(GbKmvIndex::build(&dataset, config));
        let mut reference = GbKmvIndex::build(&dataset, config);
        let inserted: Vec<Record> = extra.into_iter().map(Record::new).collect();
        for record in &inserted {
            // `submit` may auto-publish mid-stream (batch size 1 always
            // does); the explicit flush then drains whatever is left, so
            // the published snapshot covers exactly the records so far.
            service.submit(record.clone()).unwrap();
            reference.insert(record);
            service.flush();
            let snapshot = service.snapshot();
            prop_assert_eq!(snapshot.sharded(), reference.sharded(),
                "published generation {} diverged from the sequentially grown \
                 index ({} shards, batch {})",
                service.generation(), shards, batch);
            prop_assert_eq!(
                &snapshot.search_record(record, t_star),
                &reference.search_record(record, t_star),
                "service snapshot answers diverged (t*={})", t_star);
        }
        prop_assert_eq!(service.pending(), 0);
    }

    #[test]
    fn cow_publication_keeps_every_held_snapshot_bit_identical(
        dataset in dataset_strategy(),
        extra in vec(vec(0u32..3_000, 1..80), 2..7),
        budget_fraction in 0.05f64..1.1,
        t_star in 0.0f64..1.0,
        shards in 2usize..5,
        seed in 0u64..1_000_000,
    ) {
        // The copy-on-write dimension of the agreement suite: generations
        // share untouched shards behind `Arc`s, so this pins (a) that a *held* snapshot
        // stays bit-identical to its sequentially grown reference prefix
        // while later flushes mutate the index underneath it, and (b) that
        // the sharing is real — non-tail shards of consecutive generations
        // are pointer-equal, the lineage stamp is stable, and only the
        // tail shard's dirty epoch moves.
        let config = GbKmvConfig::with_space_fraction(budget_fraction)
            .hash_seed(seed | 1)
            .shards(shards)
            .ingest_batch(1_000_000); // flushes are explicit below
        let service = ContainmentService::new(GbKmvIndex::build(&dataset, config));
        let mut reference = GbKmvIndex::build(&dataset, config);
        let inserted: Vec<Record> = extra.into_iter().map(Record::new).collect();
        let query = dataset.record(0).clone();

        // Held snapshots and the reference state they must keep matching
        // (the reference clone is itself a COW clone — mutating `reference`
        // afterwards must not disturb it).
        let mut held = vec![(service.snapshot(), reference.clone())];
        for record in &inserted {
            let before = service.snapshot();
            service.submit(record.clone()).unwrap();
            reference.insert(record);
            service.flush();
            let after = service.snapshot();

            // (b) structural sharing across the publication.
            let (prev, next) = (before.sharded(), after.sharded());
            prop_assert_eq!(prev.lineage(), next.lineage(), "lineage changed across a flush");
            let n = prev.shards().len();
            prop_assert_eq!(n, next.shards().len());
            for i in 0..n - 1 {
                prop_assert!(
                    std::sync::Arc::ptr_eq(&prev.shards()[i], &next.shards()[i]),
                    "untouched shard {} was copied by a tail-only flush ({} shards)", i, n);
                prop_assert_eq!(prev.epochs()[i], next.epochs()[i],
                    "untouched shard {}'s epoch moved", i);
            }
            prop_assert!(
                !std::sync::Arc::ptr_eq(&prev.shards()[n - 1], &next.shards()[n - 1]),
                "the tail shard must be copied, not mutated in place");
            prop_assert!(prev.epochs()[n - 1] != next.epochs()[n - 1],
                "the tail shard's epoch must move");

            held.push((after, reference.clone()));
        }

        // (a) every held snapshot still equals its reference prefix.
        for (generation, (snapshot, prefix)) in held.iter().enumerate() {
            prop_assert_eq!(snapshot.sharded(), prefix.sharded(),
                "held snapshot of generation {} diverged", generation);
            prop_assert_eq!(
                &snapshot.search_record(&query, t_star),
                &prefix.search_record(&query, t_star),
                "held snapshot answers diverged at generation {} (t*={})",
                generation, t_star);
        }
    }
}

/// Readers racing a publishing writer must only ever observe fully
/// published generations: every result set seen by any reader is the answer
/// of *some* batch prefix, and the final state equals the sequentially
/// grown reference.
#[test]
fn concurrent_readers_observe_only_published_generations() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let base: Vec<Vec<u32>> = (0..24u32)
        .map(|i| (i * 7..i * 7 + 30).map(|x| x % 900).collect())
        .collect();
    let dataset = Dataset::from_records(base);
    let config = GbKmvConfig::with_space_fraction(0.4)
        .hash_seed(11)
        .shards(2);
    let service = ContainmentService::new(GbKmvIndex::build(&dataset, config));

    let batches: Vec<Vec<Record>> = (0..6u32)
        .map(|b| {
            (0..4u32)
                .map(|j| {
                    let start = b * 31 + j * 13;
                    Record::new((start..start + 25).map(|x| x % 900).collect())
                })
                .collect()
        })
        .collect();
    let query = Record::new((0..40u32).map(|x| x * 3 % 900).collect());
    let t_star = 0.25;

    // Expected answer per published generation, from a sequentially grown
    // reference (generation g = base index + the first g batches).
    let mut reference = GbKmvIndex::build(&dataset, config);
    let mut expected: Vec<Vec<SearchHit>> = vec![reference.search_record(&query, t_star)];
    for batch in &batches {
        for record in batch {
            reference.insert(record);
        }
        expected.push(reference.search_record(&query, t_star));
    }

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let (service, expected, done, query) = (&service, &expected, &done, &query);
            scope.spawn(move || {
                let mut last_generation = 0u64;
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let snapshot = service.snapshot();
                    let hits = snapshot.search_record(query, t_star);
                    assert!(
                        expected.iter().any(|e| e == &hits),
                        "reader observed a result set matching no published generation"
                    );
                    let generation = service.generation();
                    assert!(
                        generation >= last_generation,
                        "generation counter went backwards: {last_generation} -> {generation}"
                    );
                    last_generation = generation;
                    if finished {
                        break;
                    }
                    std::thread::yield_now();
                }
            });
        }
        for batch in &batches {
            service
                .submit_batch(batch.clone())
                .expect("batch records are non-empty");
            service.flush();
            std::thread::yield_now();
        }
        done.store(true, Ordering::Release);
    });

    assert_eq!(service.generation(), batches.len() as u64);
    assert_eq!(service.pending(), 0);
    let final_snapshot = service.snapshot();
    assert_eq!(final_snapshot.sharded(), reference.sharded());
    assert_eq!(
        final_snapshot.search_record(&query, t_star),
        *expected.last().unwrap()
    );
}

/// Copy-on-write publication under a racing reader: tail-only flushes must
/// share every non-tail shard pointer-identically across generations, for
/// every pair of snapshots a reader happens to grab, and shared-aware
/// memory accounting must never double-count what is behind one `Arc`.
#[test]
fn concurrent_publication_shares_untouched_shards_pointer_identically() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let dataset = Dataset::from_records(
        (0..32u32).map(|i| (i * 5..i * 5 + 24).map(|x| x % 700).collect::<Vec<_>>()),
    );
    let config = GbKmvConfig::with_space_fraction(0.5)
        .hash_seed(23)
        .shards(4)
        .ingest_batch(1_000_000);
    let service = ContainmentService::new(GbKmvIndex::build(&dataset, config));
    let num_shards = service.snapshot().sharded().shards().len();
    assert!(
        num_shards >= 2,
        "the sharing assertion needs non-tail shards"
    );

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let (service, done) = (&service, &done);
            scope.spawn(move || {
                let mut prev = service.snapshot();
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let next = service.snapshot();
                    // Inserts only ever touch the tail shard, so between
                    // ANY two snapshots — however many generations apart —
                    // the non-tail shards are the same allocations.
                    assert_eq!(prev.sharded().lineage(), next.sharded().lineage());
                    for i in 0..num_shards - 1 {
                        assert!(
                            Arc::ptr_eq(&prev.sharded().shards()[i], &next.sharded().shards()[i]),
                            "shard {i} was copied by a tail-only publication"
                        );
                    }
                    // Shared-aware accounting: the pair never costs more
                    // than the sum, and the invariant
                    // total + shared == sum of solo totals holds exactly.
                    let solo = prev.mem_usage().total_bytes() + next.mem_usage().total_bytes();
                    let pair = GbKmvIndex::mem_usage_shared([&*prev, &*next]);
                    assert_eq!(pair.total_bytes() + pair.shared_bytes, solo);
                    assert!(
                        pair.shared_bytes > 0,
                        "snapshots sharing non-tail shards must report shared bytes"
                    );
                    prev = next;
                    if finished {
                        break;
                    }
                    std::thread::yield_now();
                }
            });
        }
        for b in 0..8u32 {
            let record = Record::new((b * 11..b * 11 + 20).map(|x| x % 700).collect());
            service.submit(record).expect("non-empty record");
            service.flush();
            std::thread::yield_now();
        }
        done.store(true, Ordering::Release);
    });
    assert_eq!(service.generation(), 8);
}
