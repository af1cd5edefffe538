//! Unit tests of the staged query pipeline, the sharded storage layer and
//! the public index API.

use super::*;
use crate::dataset::Dataset;
use crate::sim::containment;

fn paper_dataset() -> Dataset {
    Dataset::from_records(vec![
        vec![1, 2, 3, 4, 7],
        vec![2, 3, 5],
        vec![2, 4, 5],
        vec![1, 2, 6, 10],
    ])
}

/// Synthetic skewed dataset large enough for approximate behaviour.
fn skewed_dataset(records: usize) -> Dataset {
    let recs: Vec<Vec<u32>> = (0..records)
        .map(|i| {
            let mut v: Vec<u32> = (0..8).collect();
            let start = (i as u32 * 37) % 4000;
            v.extend((0..80u32).map(|j| 8 + (start + j * 5) % 4000));
            v
        })
        .collect();
    Dataset::from_records(recs)
}

/// Skewed dataset with *varying* record sizes, so size-ordered slots differ
/// from record-id order and pruning actually cuts.
fn varied_dataset(records: usize) -> Dataset {
    let recs: Vec<Vec<u32>> = (0..records)
        .map(|i| {
            let len = 4 + (i * 13) % 90;
            let mut v: Vec<u32> = (0..4).collect();
            let start = (i as u32 * 37) % 3000;
            v.extend((0..len as u32).map(|j| 4 + (start + j * 5) % 3000));
            v
        })
        .collect();
    Dataset::from_records(recs)
}

/// The top-k reference: the scan's positive-score hits ranked by
/// descending containment (ties by ascending record id), cut at `k`.
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

#[test]
fn full_budget_reproduces_exact_answers_on_paper_example() {
    let dataset = paper_dataset();
    let index = GbKmvIndex::build(&dataset, GbKmvConfig::with_space_fraction(2.0));
    let query = vec![1u32, 2, 3, 5, 7, 9];
    let hits = index.search(&query, 0.5);
    let ids: Vec<usize> = hits.iter().map(|h| h.record_id).collect();
    // Example 1: X1 (0.67) and X2 (0.5) qualify at t* = 0.5.
    assert!(ids.contains(&0));
    assert!(ids.contains(&1));
    assert!(!ids.contains(&2));
    assert!(!ids.contains(&3));
}

#[test]
fn summary_reports_space_within_budget() {
    let dataset = skewed_dataset(150);
    let config = GbKmvConfig::with_space_fraction(0.10);
    let index = GbKmvIndex::build(&dataset, config);
    let summary = index.summary();
    assert!(summary.space_used_elements > 0.0);
    // The G-KMV threshold is chosen so the hash-value part respects the
    // budget; the bitmap part is included in the budget split, so total
    // space stays within a small tolerance of the budget.
    assert!(
        summary.space_used_elements <= summary.budget_elements as f64 * 1.05 + 8.0,
        "space {} exceeds budget {}",
        summary.space_used_elements,
        summary.budget_elements
    );
    assert_eq!(summary.num_records, 150);
    assert!(summary.tau > 0.0 && summary.tau <= 1.0);
}

/// 2,000 records of 20 to 59 elements drawn from a Zipf(1) law over 5,000
/// elements (a fixed LCG stream, inverse-CDF sampling, duplicates merged).
fn zipf_dataset() -> Dataset {
    let universe = 5_000usize;
    let mut cdf: Vec<f64> = (1..=universe).map(|rank| 1.0 / rank as f64).collect();
    for i in 1..universe {
        cdf[i] += cdf[i - 1];
    }
    let total = cdf[universe - 1];
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut uniform = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    Dataset::from_records((0..2_000).map(|i| {
        (0..20 + i % 40)
            .map(|_| {
                let u = uniform() * total;
                cdf.partition_point(|&c| c < u).min(universe - 1) as u32
            })
            .collect::<Vec<u32>>()
    }))
}

#[test]
fn fixed_buffer_sizes_are_clamped_to_the_budget() {
    let dataset = zipf_dataset();
    let stats = crate::stats::DatasetStats::compute(&dataset);
    let budget = (stats.total_elements as f64 * 0.1).round();
    // ⌈32·b/m⌉ − 1: the largest buffer leaving the signatures a positive
    // budget.
    let cap = (32.0 * budget / stats.num_records as f64).ceil() as usize - 1;
    assert!(cap < 128, "test shape drifted: cap {cap}");
    for r in [0, 16, 128, 256, 512, 1024] {
        let index = GbKmvIndex::build(
            &dataset,
            GbKmvConfig::with_space_fraction(0.1).buffer_size(r),
        );
        let summary = index.summary();
        assert_eq!(summary.buffer_size, r.min(cap), "r = {r}");
        assert_eq!(index.sketcher().layout().size(), r.min(cap), "r = {r}");
        assert!(
            summary.space_used_fraction <= 0.1 + 0.005,
            "r = {r} used {} of N",
            summary.space_used_fraction
        );
    }
}

#[test]
fn every_entry_point_agrees_with_scan_bitwise() {
    // Ordinary thresholds plus adversarial ones (NaN, ±∞, out of [0, 1]):
    // no path may panic, and every path — single query, batch, intra-query
    // parallel, a service snapshot — returns the scan's exact answer.
    let dataset = varied_dataset(120);
    let index = GbKmvIndex::build(&dataset, GbKmvConfig::with_space_fraction(0.25).shards(2));
    let service = crate::service::ContainmentService::new(index.clone());
    let snapshot = service.snapshot();
    let adversarial = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5, 1.5];
    for qid in [0usize, 17, 63, 99] {
        let query = dataset.record(qid).clone();
        for t_star in [0.0, 0.2, 0.4, 0.8].into_iter().chain(adversarial) {
            let scan = index.search_scan(&query, t_star);
            let label = format!("query {qid} at t*={t_star}");
            assert_eq!(
                index.search_record(&query, t_star),
                scan,
                "{label}: pipeline"
            );
            assert_eq!(
                index.search_batch_threads(&[query.clone(), query.clone()], t_star, 2),
                vec![scan.clone(), scan.clone()],
                "{label}: batch"
            );
            assert_eq!(
                index.search_parallel_threads(query.elements(), t_star, 3),
                scan,
                "{label}: intra-query parallel"
            );
            assert_eq!(
                snapshot.search_record(&query, t_star),
                scan,
                "{label}: service snapshot"
            );
        }
        // NaN and +∞ admit nothing; a negative threshold admits everything.
        assert!(index.search_record(&query, f64::NAN).is_empty());
        assert!(index.search_record(&query, f64::INFINITY).is_empty());
        assert_eq!(index.search_record(&query, -0.5).len(), dataset.len());
    }
}

/// The signature prefix filter has no off switch: the engine decides per
/// query between the prefixed walk (only the rarest hashes mint) and the
/// unfiltered walk (every hash mints: a signature of at most
/// `SHORT_SIGNATURE_LEN` hashes, or `θ_sig ≤ 1`). A default-config index
/// must take both walks, each on the spawning intra-query parallel path
/// too, and answer like the scan on every path.
#[test]
fn default_engine_takes_both_walks_bit_identical_to_scan() {
    use crate::index::candidates::QuerySketchView;
    use crate::sim::OverlapThreshold;

    let dataset = varied_dataset(6_000);
    let config = GbKmvConfig::with_space_fraction(0.25).buffer_size(0);
    let index = GbKmvIndex::build(&dataset, config);
    let sharded = GbKmvIndex::build(&dataset, config.shards(3));
    let service = crate::service::ContainmentService::new(index.clone());
    let snapshot = service.snapshot();
    let mut pipeline = QueryPipeline::new();
    // Queries per walk, and those of them whose live range is large enough
    // for the intra-query parallel path to spawn workers.
    let (mut prefixed, mut unfiltered) = ((0usize, 0usize), (0usize, 0usize));
    for qid in [4usize, 38, 85, 1_234, 2_771, 5_003] {
        let query = dataset.record(qid);
        let sketch = index.sketch_query(query);
        let view = QuerySketchView::new(&sketch);
        for t_star in [0.2, 0.3, 0.6, 0.9] {
            let threshold = OverlapThreshold::new(query.len(), t_star);
            let live: usize = index
                .sharded
                .shards()
                .iter()
                .map(|shard| prune::live_slots(shard, threshold))
                .sum();
            let walk = if prune::minting(&view, threshold).hashes < view.hashes.len() {
                &mut prefixed
            } else {
                &mut unfiltered
            };
            walk.0 += 1;
            walk.1 += usize::from(live >= pipeline::PARALLEL_MIN_LIVE_SLOTS);

            let scan = index.search_scan(query, t_star);
            let label = format!("query {qid} at t*={t_star}");
            let q = query.elements();
            assert_eq!(
                pipeline.search(&index, q, t_star),
                scan,
                "{label}: sequential"
            );
            assert_eq!(
                index.search_record(query, t_star),
                scan,
                "{label}: pipeline"
            );
            assert_eq!(
                pipeline.search_parallel(&index, q, t_star, 3),
                scan,
                "{label}: intra-query parallel"
            );
            assert_eq!(
                index.search_batch_threads(&[query.clone(), query.clone()], t_star, 2),
                vec![scan.clone(), scan.clone()],
                "{label}: batch"
            );
            assert_eq!(
                sharded.search_record(query, t_star),
                scan,
                "{label}: 3 shards"
            );
            assert_eq!(
                snapshot.search_record(query, t_star),
                scan,
                "{label}: service snapshot"
            );
        }
    }
    assert!(
        prefixed.1 > 0 && unfiltered.1 > 0,
        "(queries, spawning parallel queries) per walk: prefixed {prefixed:?}, \
         unfiltered {unfiltered:?}"
    );
}

#[test]
fn prefix_filter_agrees_when_query_signature_is_absent_from_index() {
    // A query sharing no element with the dataset: every signature hash has
    // df 0 and no posting exists. All paths must agree (typically on an
    // empty answer at a positive threshold).
    let dataset = varied_dataset(100); // elements live in 0..3004
    let index = GbKmvIndex::build(&dataset, GbKmvConfig::with_space_fraction(0.3).shards(2));
    let absent = Record::new((10_000u32..10_040).collect());
    let mut pipeline = QueryPipeline::new();
    for t_star in [0.0, 0.1, 0.5, 1.0] {
        let scan = index.search_scan(&absent, t_star);
        assert_eq!(
            pipeline.search(&index, absent.elements(), t_star),
            scan,
            "absent query at t*={t_star}: prefix pipeline diverged from scan"
        );
        assert_eq!(
            index.search_parallel(absent.elements(), t_star),
            scan,
            "absent query at t*={t_star}: parallel path diverged from scan"
        );
        if t_star > 0.0 {
            assert!(
                scan.is_empty(),
                "absent query matched records at t*={t_star}"
            );
        }
    }
}

#[test]
fn search_parallel_matches_sequential_for_any_thread_count() {
    // Large enough that the live range exceeds PARALLEL_MIN_LIVE_SLOTS and
    // the worker-spawning path genuinely runs (also exercised at small
    // scale below, where the sequential degrade kicks in).
    let big = varied_dataset(6000);
    let small = varied_dataset(80);
    for (dataset, shards) in [(&big, 1usize), (&big, 3), (&small, 2)] {
        let index = GbKmvIndex::build(
            dataset,
            GbKmvConfig::with_space_fraction(0.2).shards(shards),
        );
        for qid in (0..dataset.len()).step_by(dataset.len() / 4 + 1) {
            let query = dataset.record(qid);
            for t_star in [0.0, 0.1, 0.5, 0.9] {
                let expected = index.search_record(query, t_star);
                for threads in [1usize, 2, 5] {
                    assert_eq!(
                        index.search_parallel_threads(query.elements(), t_star, threads),
                        expected,
                        "parallel search with {threads} threads / {shards} shards diverged \
                         (query {qid}, t*={t_star}, {} records)",
                        dataset.len()
                    );
                }
            }
        }
        // The trait route (default-overriding impl) answers identically.
        let boxed: &dyn ContainmentIndex = &index;
        let query = dataset.record(1);
        assert_eq!(
            boxed.search_parallel(query.elements(), 0.5),
            index.search_record(query, 0.5)
        );
    }
}

#[test]
fn sharded_index_answers_are_bit_identical_to_unsharded() {
    let dataset = varied_dataset(130);
    let unsharded = GbKmvIndex::build(&dataset, GbKmvConfig::with_space_fraction(0.25));
    for shards in [2usize, 3, 7] {
        let sharded = GbKmvIndex::build(
            &dataset,
            GbKmvConfig::with_space_fraction(0.25).shards(shards),
        );
        assert_eq!(sharded.sharded().shards().len(), shards);
        for qid in (0..130).step_by(17) {
            let query = dataset.record(qid);
            for t_star in [0.0, 0.4, 0.8] {
                assert_eq!(
                    unsharded.search_record(query, t_star),
                    sharded.search_record(query, t_star),
                    "query {qid} at t*={t_star}: {shards}-shard answer diverged"
                );
            }
            assert_eq!(
                unsharded.search_topk(query, 7),
                sharded.search_topk(query, 7),
                "query {qid}: {shards}-shard top-k diverged"
            );
        }
    }
}

#[test]
fn batch_search_matches_single_queries_for_any_thread_count() {
    let dataset = varied_dataset(90);
    for shards in [1usize, 3] {
        let index = GbKmvIndex::build(
            &dataset,
            GbKmvConfig::with_space_fraction(0.25).shards(shards),
        );
        let queries: Vec<Record> = (0..40).map(|i| dataset.record(i * 2).clone()).collect();
        let expected: Vec<Vec<SearchHit>> = queries
            .iter()
            .map(|q| index.search_record(q, 0.5))
            .collect();
        for threads in [1usize, 2, 5] {
            assert_eq!(
                index.search_batch_threads(&queries, 0.5, threads),
                expected,
                "batch with {threads} threads / {shards} shards diverged"
            );
        }
        // The trait route (default-overriding impl) answers identically.
        let boxed: &dyn ContainmentIndex = &index;
        assert_eq!(boxed.search_batch(&queries, 0.5), expected);
    }
}

#[test]
fn results_are_sorted_by_record_id() {
    let dataset = varied_dataset(100);
    let index = GbKmvIndex::build(&dataset, GbKmvConfig::with_space_fraction(0.25).shards(3));
    for qid in [3usize, 42, 77] {
        let query = dataset.record(qid);
        for hits in [
            index.search_scan(query, 0.3),
            index.search_record(query, 0.3),
        ] {
            assert!(
                hits.windows(2).all(|w| w[0].record_id < w[1].record_id),
                "hits not sorted by ascending record id"
            );
        }
    }
}

#[test]
fn parallel_build_is_identical_to_sequential() {
    let dataset = varied_dataset(90);
    for shards in [1usize, 4] {
        let config = GbKmvConfig::with_space_fraction(0.2).shards(shards);
        let seq = GbKmvIndex::build(&dataset, config.threads(1));
        let par = GbKmvIndex::build(&dataset, config.threads(4));
        assert_eq!(seq.sharded, par.sharded, "{shards}-shard build varies");
        assert_eq!(seq.summary, par.summary);
        let query = dataset.record(11);
        assert_eq!(seq.search_record(query, 0.4), par.search_record(query, 0.4));
    }
}

#[test]
fn pipeline_reuse_across_queries_matches_fresh_pipeline() {
    let dataset = varied_dataset(100);
    let index = GbKmvIndex::build(&dataset, GbKmvConfig::with_space_fraction(0.25));
    let mut reused = QueryPipeline::new();
    for qid in 0..100 {
        let query = dataset.record(qid);
        let with_reuse = reused.search_sorted(&index, query.elements(), 0.4);
        let with_fresh = QueryPipeline::new().search_sorted(&index, query.elements(), 0.4);
        assert_eq!(
            with_reuse, with_fresh,
            "query {qid}: reused scratch leaked state from earlier queries"
        );
    }
}

#[test]
fn search_elements_handles_unsorted_and_duplicated_input() {
    let dataset = skewed_dataset(60);
    let index = GbKmvIndex::build(&dataset, GbKmvConfig::with_space_fraction(0.3));
    let sorted: Vec<u32> = dataset.record(5).elements().to_vec();
    let mut shuffled = sorted.clone();
    shuffled.reverse();
    shuffled.push(sorted[0]); // duplicate
    assert_eq!(
        index.search_elements(&sorted, 0.5),
        index.search_elements(&shuffled, 0.5)
    );
}

#[test]
fn self_query_is_always_found() {
    let dataset = skewed_dataset(100);
    let index = GbKmvIndex::build(&dataset, GbKmvConfig::with_space_fraction(0.25));
    for qid in (0..100).step_by(13) {
        let hits = index.search_record(dataset.record(qid), 0.5);
        assert!(
            hits.iter().any(|h| h.record_id == qid),
            "record {qid} should match itself at t*=0.5 (true containment is 1.0)"
        );
    }
}

#[test]
fn zero_threshold_returns_everything() {
    let dataset = skewed_dataset(40);
    let index = GbKmvIndex::build(&dataset, GbKmvConfig::with_space_fraction(0.2));
    let hits = index.search_record(dataset.record(0), 0.0);
    assert_eq!(hits.len(), 40);
}

#[test]
fn estimates_track_exact_containment() {
    let dataset = skewed_dataset(100);
    let index = GbKmvIndex::build(&dataset, GbKmvConfig::with_space_fraction(0.3));
    let mut total_err = 0.0;
    let mut count = 0;
    for qid in (0..100).step_by(9) {
        let query = dataset.record(qid);
        for rid in (0..100).step_by(11) {
            let est = index.estimate_containment(query, rid);
            let exact = containment(query, dataset.record(rid));
            total_err += (est - exact).abs();
            count += 1;
        }
    }
    let mae = total_err / count as f64;
    assert!(mae < 0.12, "mean absolute error {mae} too large");
}

#[test]
fn fixed_buffer_config_is_respected() {
    let dataset = skewed_dataset(80);
    let index = GbKmvIndex::build(
        &dataset,
        GbKmvConfig::with_space_fraction(0.2).buffer_size(16),
    );
    assert_eq!(index.summary().buffer_size, 16);
    assert_eq!(index.sketcher().layout().size(), 16);
    let gkmv_only = GbKmvIndex::build(
        &dataset,
        GbKmvConfig::with_space_fraction(0.2).buffer_size(0),
    );
    assert_eq!(gkmv_only.summary().buffer_size, 0);
}

#[test]
fn insert_extends_index_and_is_searchable() {
    let dataset = skewed_dataset(60);
    let mut index = GbKmvIndex::build(&dataset, GbKmvConfig::with_space_fraction(0.3));
    let new_record = Record::new((0..50u32).map(|i| i * 3).collect());
    let id = index.insert(&new_record);
    assert_eq!(id, 60);
    assert_eq!(index.num_records(), 61);
    let hits = index.search_record(&new_record, 0.8);
    assert!(hits.iter().any(|h| h.record_id == id));
}

#[test]
fn insert_then_search_equals_build_from_scratch() {
    // With a saturating budget and no buffer, the sketcher parameters
    // (hash function, empty layout, τ = keep-all) are independent of the
    // dataset, so the grown index must be *identical* — storage layer and
    // all — to a from-scratch build over the grown dataset.
    let base = varied_dataset(70);
    let extra: Vec<Record> = (0..12)
        .map(|i| {
            Record::new(
                (0..(5 + (i * 19) % 60))
                    .map(|j| ((i * 211 + j * 7) % 3100) as u32)
                    .collect(),
            )
        })
        .collect();
    let mut grown_records: Vec<Vec<u32>> = base
        .records()
        .iter()
        .map(|r| r.elements().to_vec())
        .collect();
    grown_records.extend(extra.iter().map(|r| r.elements().to_vec()));
    let grown_dataset = Dataset::from_records(grown_records);

    let config = GbKmvConfig::with_budget_elements(1_000_000).buffer_size(0);
    let mut grown = GbKmvIndex::build(&base, config);
    for record in &extra {
        grown.insert(record);
    }
    let from_scratch = GbKmvIndex::build(&grown_dataset, config);

    assert_eq!(
        grown.sharded, from_scratch.sharded,
        "insert path built a different storage layer than a rebuild"
    );
    for qid in (0..grown_dataset.len()).step_by(7) {
        let query = grown_dataset.record(qid);
        for t_star in [0.2, 0.5, 0.9] {
            assert_eq!(
                grown.search_record(query, t_star),
                from_scratch.search_record(query, t_star),
                "query {qid} at t*={t_star}: insert-then-search != build-from-scratch"
            );
        }
        assert_eq!(
            grown.search_topk(query, 5),
            from_scratch.search_topk(query, 5)
        );
    }
}

#[test]
fn insert_keeps_sharded_answers_consistent() {
    // Under a *constrained* budget the sketcher differs between the grown
    // and rebuilt datasets, so exact equality is not expected — but the
    // grown index must stay internally consistent: pipeline == scan on the
    // grown index, across shard counts.
    let base = varied_dataset(80);
    let extra: Vec<Record> = (0..10)
        .map(|i| {
            Record::new(
                (0..(8 + i * 9))
                    .map(|j| ((i * 97 + j * 5) % 2900) as u32)
                    .collect(),
            )
        })
        .collect();
    for shards in [1usize, 3] {
        let mut index =
            GbKmvIndex::build(&base, GbKmvConfig::with_space_fraction(0.25).shards(shards));
        for record in &extra {
            index.insert(record);
        }
        assert_eq!(index.num_records(), 90);
        for qid in (0..80).step_by(13) {
            let query = base.record(qid);
            for t_star in [0.3, 0.7] {
                assert_eq!(
                    index.search_record(query, t_star),
                    index.search_scan(query, t_star),
                    "{shards}-shard grown index: pipeline diverged from scan"
                );
            }
        }
        for record in &extra {
            assert_eq!(
                index.search_record(record, 0.6),
                index.search_scan(record, 0.6),
                "{shards}-shard grown index: inserted-record query diverged"
            );
        }
    }
}

#[test]
fn sketch_view_matches_materialised_sketch() {
    let dataset = varied_dataset(50);
    let index = GbKmvIndex::build(&dataset, GbKmvConfig::with_space_fraction(0.3).shards(2));
    for rid in (0..50).step_by(7) {
        let view = index.sketch_view(rid);
        let materialised = index.record_sketch(rid);
        assert_eq!(view.hashes, materialised.gkmv.hashes());
        assert_eq!(view.buffer_words, materialised.buffer.words());
        assert_eq!(view.meta.record_size as usize, materialised.record_size);
        assert_eq!(view.meta.saturated, materialised.gkmv.is_saturated());
        assert_eq!(view.meta.record_size as usize, dataset.record(rid).len());
    }
}

#[test]
fn topk_returns_best_records_in_order() {
    let dataset = skewed_dataset(100);
    let index = GbKmvIndex::build(&dataset, GbKmvConfig::with_space_fraction(0.3));
    let query = dataset.record(10);
    let top = index.search_topk(query, 5);
    assert_eq!(top.len(), 5);
    // The query's own record has true containment 1.0 and must rank first.
    assert_eq!(top[0].record_id, 10);
    // Scores are non-increasing.
    assert!(top
        .windows(2)
        .all(|w| w[0].estimated_containment >= w[1].estimated_containment));
    // Equal scores are tie-broken by ascending record id.
    assert!(top.windows(2).all(|w| {
        w[0].estimated_containment != w[1].estimated_containment || w[0].record_id < w[1].record_id
    }));
    // k larger than the candidate set is clamped, k = 0 is empty.
    assert!(index.search_topk(query, 10_000).len() <= 100);
    assert!(index.search_topk(query, 0).is_empty());
}

#[test]
fn topk_matches_between_filtered_and_scan_modes() {
    let dataset = skewed_dataset(80);
    let filtered = GbKmvIndex::build(&dataset, GbKmvConfig::with_space_fraction(0.4));
    let query = dataset.record(7);
    assert_eq!(
        filtered.search_topk(query, 10),
        ranked_scan(&filtered, query, 10)
    );
}

#[test]
fn topk_never_ranks_zero_overlap_records() {
    // Two element-disjoint halves: a query drawn from one half shares
    // nothing with the other, whose records score exactly zero. With k above
    // the positive-score count, top-k must return exactly the ranked
    // positive-score scan.
    let recs: Vec<Vec<u32>> = (0..80u32)
        .map(|i| {
            let base = if i % 2 == 0 { 0 } else { 50_000 };
            (0..40u32).map(|j| base + (i * 7 + j * 3) % 2_000).collect()
        })
        .collect();
    let dataset = Dataset::from_records(recs);
    let query = dataset.record(0);
    let index = GbKmvIndex::build(&dataset, GbKmvConfig::with_space_fraction(0.3));
    let expected = ranked_scan(&index, query, usize::MAX);
    assert!(!expected.is_empty() && expected.len() < dataset.len());
    assert_eq!(
        index.search_topk(query, 1_000),
        expected,
        "top-k ranked a zero-overlap record"
    );
}

#[test]
fn trait_object_usage() {
    let dataset = paper_dataset();
    let index = GbKmvIndex::build(&dataset, GbKmvConfig::with_space_fraction(1.0));
    let boxed: Box<dyn ContainmentIndex> = Box::new(index);
    assert_eq!(boxed.name(), "GB-KMV");
    assert!(boxed.space_elements() > 0.0);
    assert!(!boxed.search(&[1, 2, 3, 5, 7, 9], 0.5).is_empty());
}

#[test]
fn search_auto_matches_search_for_every_workload_shape() {
    let dataset = varied_dataset(150);
    let index = GbKmvIndex::build(&dataset, GbKmvConfig::with_space_fraction(0.3).shards(3));
    let queries: Vec<Record> = (0..5).map(|i| dataset.record(i * 29).clone()).collect();
    for t_star in [0.0, 0.4, 0.8] {
        let expected: Vec<Vec<SearchHit>> = queries
            .iter()
            .map(|q| index.search_record(q, t_star))
            .collect();
        // Multi-query, single-query and empty workloads all agree with the
        // per-query reference, whatever schedule the cost model picks.
        assert_eq!(index.search_auto(&queries, t_star), expected);
        assert_eq!(
            index.search_auto(std::slice::from_ref(&queries[0]), t_star),
            expected[..1]
        );
        assert!(index.search_auto(&[], t_star).is_empty());
        // And through the trait, including its default implementation.
        let boxed: &dyn ContainmentIndex = &index;
        assert_eq!(boxed.search_auto(&queries, t_star), expected);
    }
}

/// Hot-element dataset for the buffer pass's bound: the eight elements
/// `0..8` each sit in 80% of the records (so a buffer of eight holds
/// exactly them), beside a 40-element tail drawn from a wide range. Large
/// enough (4,500 records) that the intra-query parallel path really spawns
/// workers at low thresholds.
fn hot_buffer_dataset() -> Dataset {
    let recs: Vec<Vec<u32>> = (0..4_500u32)
        .map(|i| {
            let mut v: Vec<u32> = (0..8u32).filter(|h| (i * 7 + h * 3) % 10 < 8).collect();
            v.extend((0..40u32).map(|j| 100 + (i * 37 + j * 11) % 20_000));
            v
        })
        .collect();
    Dataset::from_records(recs)
}

#[test]
fn buffer_bound_branches_are_bit_identical_to_scan() {
    use crate::index::candidates::QuerySketchView;
    use crate::index::prune::min_buffer_overlap;
    use crate::sim::OverlapThreshold;

    let dataset = hot_buffer_dataset();
    let config = GbKmvConfig::with_space_fraction(0.1).buffer_size(8);
    let index = GbKmvIndex::build(&dataset, config);
    let sharded = GbKmvIndex::build(&dataset, config.shards(4));
    let service = crate::service::ContainmentService::new(index.clone());
    let snapshot = service.snapshot();
    let mut pipeline = QueryPipeline::new();

    // Each query joins the first `hot` buffered elements to up to `tail`
    // tail elements of one record.
    let queries: Vec<Record> = [(8u32, 0usize, 40usize), (2, 97, 30), (5, 291, 20)]
        .into_iter()
        .map(|(hot, rid, tail)| {
            let mut q: Vec<u32> = (0..hot).collect();
            let elements = dataset.record(rid).elements().iter();
            q.extend(elements.copied().filter(|&e| e >= 100).take(tail));
            Record::new(q)
        })
        .collect();
    // Which branches of the bound the grid reached: b_min > B_q (nothing
    // minted from the buffer), b_min == B_q (every buffered element must be
    // shared), and a signature prefix (S_max > 0) lowering b_min to 2..B_q.
    let (mut skip, mut single, mut lowered) = (false, false, false);
    for (qi, query) in queries.iter().enumerate() {
        let sketch = index.sketch_query(query);
        let view = QuerySketchView::new(&sketch);
        let b_q = view.buffer.count_ones();
        for t_star in [0.05, 0.15, 0.2, 0.25, 0.5, 0.9] {
            let threshold = OverlapThreshold::new(query.len(), t_star);
            let m = prune::minting(&view, threshold);
            let b_min = m.b_min;
            skip |= b_min > b_q;
            single |= b_min == b_q;
            lowered |= m.hashes < view.hashes.len()
                && (2..b_q).contains(&b_min)
                && b_min < min_buffer_overlap(threshold.raw, 0, 1.0);
            let scan = index.search_scan(query, t_star);
            let label = format!("query {qi} at t*={t_star}");
            assert_eq!(
                index.search_record(query, t_star),
                scan,
                "{label}: pipeline"
            );
            assert_eq!(
                index.search_batch_threads(&[query.clone(), query.clone()], t_star, 2),
                vec![scan.clone(), scan.clone()],
                "{label}: batch"
            );
            assert_eq!(
                snapshot.search_record(query, t_star),
                scan,
                "{label}: service snapshot"
            );
            let q = query.elements();
            assert_eq!(
                pipeline.search(&index, q, t_star),
                scan,
                "{label}: sequential"
            );
            assert_eq!(
                pipeline.search_parallel(&index, q, t_star, 3),
                scan,
                "{label}: intra-query parallel"
            );
            assert_eq!(
                pipeline.search(&sharded, q, t_star),
                scan,
                "{label}: 4 shards"
            );
        }
    }
    assert!(
        skip && single && lowered,
        "branches reached: skip {skip}, single {single}, lowered {lowered}"
    );
    // The buffer ordering reuses scratch memory: a second pass over the
    // same queries grows nothing.
    let warm = pipeline.scratch_bytes();
    for query in &queries {
        for t_star in [0.15, 0.25] {
            pipeline.search(&index, query.elements(), t_star);
        }
    }
    assert_eq!(pipeline.scratch_bytes(), warm);
}

#[test]
fn buffer_sweep_is_bit_identical_to_scan() {
    use crate::index::candidates::{buffer_mint, BufferMint, QuerySketchView};
    use crate::index::rank::RADIX_MIN_HITS;
    use crate::scratch::QueryScratch;
    use crate::sim::OverlapThreshold;

    // A buffer of 16 holds the eight hot elements (each in ~3,600 records)
    // and eight tail elements (each in ~10 records): the hot queries reach
    // b_min ≥ 2, the short tail queries b_min = 1, and both sweep.
    let dataset = hot_buffer_dataset();
    let config = GbKmvConfig::with_space_fraction(0.1).buffer_size(16);
    let index = GbKmvIndex::build(&dataset, config);
    let sharded = GbKmvIndex::build(&dataset, config.shards(4));
    let dir = std::env::temp_dir().join("gbkmv_buffer_sweep_branches");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("index.arena");
    index.save(&path).expect("save");
    let reopened = GbKmvIndex::open(&path).expect("open");
    std::fs::remove_file(&path).ok();
    let service = crate::service::ContainmentService::new(index.clone());
    let snapshot = service.snapshot();
    let mut pipeline = QueryPipeline::new();

    let buffered_tail: Vec<u32> = index
        .sketcher()
        .layout()
        .elements()
        .iter()
        .copied()
        .filter(|&e| e >= 100)
        .collect();
    assert_eq!(buffered_tail.len(), 8, "test shape drifted");
    // Hot queries: the first `hot` hot elements plus up to 40 tail
    // elements of one record. Tail queries: buffered tail elements only,
    // plus one record's unbuffered tail.
    let mut queries: Vec<Record> = [(8u32, 0usize), (5, 291), (3, 1_234)]
        .into_iter()
        .map(|(hot, rid)| {
            let mut q: Vec<u32> = (0..hot).collect();
            q.extend(dataset.record(rid).elements().iter().filter(|&&e| e >= 100));
            Record::new(q)
        })
        .collect();
    for (take, rid) in [(8usize, 7usize), (3, 2_000)] {
        let mut q = buffered_tail[..take].to_vec();
        q.extend(
            dataset
                .record(rid)
                .elements()
                .iter()
                .filter(|&&e| e >= 100)
                .take(10),
        );
        queries.push(Record::new(q));
    }

    // Which sweeps the threshold grid reached, as the candidates stage
    // decides them: one at b_min = 1 (every slot sharing a buffered
    // element, as top-k also sweeps) and one at b_min ≥ 2. Also whether a
    // prefix-filtered sweep minted a slot no minting hash reached that holds
    // a lookup-only hash (so its `K∩ > 0` comes from the lookup-only pass),
    // and whether an answer was long enough for the rank stage's radix
    // emission.
    let (mut sweep_any, mut sweep_min) = (false, false);
    let (mut swept_reached, mut radix) = (false, false);
    let mut scratch = QueryScratch::new();
    for (qi, query) in queries.iter().enumerate() {
        let sketch = index.sketch_query(query);
        let view = QuerySketchView::new(&sketch);
        assert_eq!(buffer_mint(&view, 1), BufferMint::Sweep);
        let label = format!("query {qi} top-k");
        let ranked = ranked_scan(&index, query, 25);
        for engine in [&index, &sharded, &reopened] {
            assert_eq!(engine.search_topk(query, 25), ranked, "{label}");
        }
        assert_eq!(
            pipeline.topk(&index, query.elements(), 25),
            ranked,
            "{label}"
        );

        for t_star in [0.05, 0.15, 0.25, 0.5, 0.9] {
            let threshold = OverlapThreshold::new(query.len(), t_star);
            let minting = prune::minting(&view, threshold);
            if buffer_mint(&view, minting.b_min) == BufferMint::Sweep {
                match minting.b_min {
                    0 | 1 => sweep_any = true,
                    _ => sweep_min = true,
                }
            }
            if minting.hashes < view.hashes.len() {
                for shard in index.sharded.shards() {
                    let live = prune::live_slots(shard, threshold);
                    swept_reached |=
                        !swept_slots_with_lookup_hashes(shard, &view, live, minting, &mut scratch)
                            .is_empty();
                }
            }
            let scan = index.search_scan(query, t_star);
            radix |= scan.len() > RADIX_MIN_HITS;
            let label = format!("query {qi} at t*={t_star}");
            assert_eq!(
                index.search_record(query, t_star),
                scan,
                "{label}: pipeline"
            );
            assert_eq!(
                index.search_batch_threads(&[query.clone(), query.clone()], t_star, 2),
                vec![scan.clone(), scan.clone()],
                "{label}: batch"
            );
            assert_eq!(
                snapshot.search_record(query, t_star),
                scan,
                "{label}: service"
            );
            assert_eq!(
                reopened.search_record(query, t_star),
                scan,
                "{label}: reopened"
            );
            let q = query.elements();
            assert_eq!(
                pipeline.search(&index, q, t_star),
                scan,
                "{label}: sequential"
            );
            assert_eq!(
                pipeline.search_parallel(&index, q, t_star, 3),
                scan,
                "{label}: intra-query parallel"
            );
            assert_eq!(
                pipeline.search(&sharded, q, t_star),
                scan,
                "{label}: 4 shards"
            );
            assert_eq!(
                pipeline.search(&reopened, q, t_star),
                scan,
                "{label}: reopened"
            );
        }
    }
    assert!(
        sweep_any && sweep_min && swept_reached && radix,
        "reached: sweep at b_min = 1 {sweep_any}, sweep at b_min ≥ 2 {sweep_min}, \
         swept-and-minted slot with K∩ > 0 {swept_reached}, radix emission {radix}"
    );
    // Neither sweep grows scratch memory on a warm rerun.
    let warm = pipeline.scratch_bytes();
    for query in &queries {
        for t_star in [0.05, 0.25] {
            pipeline.search(&index, query.elements(), t_star);
            pipeline.search_parallel(&index, query.elements(), t_star, 3);
        }
        pipeline.topk(&index, query.elements(), 25);
    }
    assert_eq!(pipeline.scratch_bytes(), warm);
}

/// Runs the candidates stage of the prefix-filtered `minting` over slots
/// `0..live` of `shard` and returns the candidates the buffer sweep minted
/// (no minting hash reached them) that the lookup-only pass then scored
/// (`K∩ > 0`). Such a walk emits nothing to the sink.
fn swept_slots_with_lookup_hashes(
    shard: &Shard,
    view: &candidates::QuerySketchView<'_>,
    live: usize,
    minting: prune::Minting,
    scratch: &mut crate::scratch::QueryScratch,
) -> Vec<u32> {
    assert!(
        minting.hashes < view.hashes.len(),
        "not a prefix-filtered walk"
    );
    let mut emitted: Vec<(u32, u32)> = Vec::new();
    candidates::accumulate(shard, view, 0, live, minting, scratch, &mut emitted);
    assert!(
        emitted.is_empty(),
        "a prefix-filtered walk emitted {emitted:?}"
    );
    let mut order = Vec::new();
    candidates::df_order(shard.store(), view, &mut order);
    let mut minting_hashes: Vec<u64> = order[..minting.hashes].iter().map(|&(_, h)| h).collect();
    minting_hashes.sort_unstable();
    let store = shard.store();
    scratch
        .candidates()
        .iter()
        .copied()
        .filter(|&s| {
            crate::kmv::sorted_intersection_count(&minting_hashes, store.hashes(s as usize)) == 0
                && scratch.k_intersection(s) > 0
        })
        .collect()
}

#[test]
fn swept_emission_is_bit_identical_to_the_merge_finish() {
    use crate::hash::unit_hash;
    use crate::index::candidates::{self, buffer_mint, BufferMint, QuerySketchView};
    use crate::index::finish;
    use crate::index::prune::{min_buffer_overlap, Minting};
    use crate::kmv::sorted_intersection_count;
    use crate::scratch::QueryScratch;
    use crate::sim::OverlapThreshold;

    let dataset = hot_buffer_dataset();
    let config = GbKmvConfig::with_space_fraction(0.1).buffer_size(16);
    let index = GbKmvIndex::build(&dataset, config.shards(2));
    let mut scratch = QueryScratch::new();
    // Slots the unfiltered sweep emitted (K∩ = 0), and slots a
    // prefix-filtered sweep minted that a lookup-only hash reached.
    let (mut emitted, mut reached) = (0usize, 0usize);
    for rid in [0usize, 7, 291, 1_234, 2_000] {
        let query = dataset.record(rid);
        let sketch = index.sketch_query(query);
        let view = QuerySketchView::new(&sketch);
        // The prune stage's minting at a few thresholds, the unfiltered
        // walk's (every hash mints) at each, and a sweep at b_min = 2 with
        // every signature hash lookup-only, so that those hashes reach
        // swept slots.
        let mut mintings = vec![Minting {
            hashes: 0,
            b_min: 2,
        }];
        for t_star in [0.1, 0.25, 0.5] {
            let threshold = OverlapThreshold::new(query.len(), t_star);
            mintings.push(prune::minting(&view, threshold));
            mintings.push(Minting {
                hashes: view.hashes.len(),
                b_min: min_buffer_overlap(threshold.raw, 0, unit_hash(view.max_hash)),
            });
        }
        for minting in mintings {
            if buffer_mint(&view, minting.b_min) != BufferMint::Sweep {
                continue;
            }
            let prefixed = minting.hashes < view.hashes.len();
            for shard in index.sharded.shards() {
                let store = shard.store();
                let mut swept: Vec<(u32, u32)> = Vec::new();
                candidates::accumulate(
                    shard,
                    &view,
                    0,
                    shard.len(),
                    minting,
                    &mut scratch,
                    &mut swept,
                );
                let label = format!("record {rid}, {minting:?}");
                // Every slot whose buffered overlap reaches b_min is a
                // candidate or emitted, never both: the sweep emits, in
                // ascending order and with its overlap, exactly the ones
                // outside the candidates (none in a prefix-filtered walk,
                // which mints them).
                let expected: Vec<(u32, u32)> = (0..store.len())
                    .filter(|&s| !scratch.candidates().contains(&(s as u32)))
                    .map(|s| {
                        let count = store.buffer_intersection_count(view.buffer_words(), s);
                        (s as u32, count as u32)
                    })
                    .filter(|&(_, count)| count as usize >= minting.b_min)
                    .collect();
                assert_eq!(swept, expected, "{label}");
                assert!(!prefixed || swept.is_empty(), "{label}");
                // An emitted slot shares no hash, so its estimate is its
                // count; every candidate's finish matches the scan's.
                for &(slot, buffered) in &swept {
                    assert_eq!(
                        sorted_intersection_count(view.hashes, store.hashes(slot as usize)),
                        0,
                        "{label}: slot {slot} holds a query hash"
                    );
                    assert_eq!(
                        f64::from(buffered).to_bits(),
                        finish::merge_overlap(store, &view, slot as usize).to_bits(),
                        "{label}: slot {slot}"
                    );
                    emitted += 1;
                }
                for &slot in scratch.candidates() {
                    assert_eq!(
                        finish::accumulated_overlap(store, &view, &scratch, slot).to_bits(),
                        finish::merge_overlap(store, &view, slot as usize).to_bits(),
                        "{label}: candidate {slot}"
                    );
                }
                if prefixed {
                    reached += swept_slots_with_lookup_hashes(
                        shard,
                        &view,
                        shard.len(),
                        minting,
                        &mut scratch,
                    )
                    .len();
                }
            }
        }
    }
    assert!(
        emitted > 0 && reached > 0,
        "emitted slots {emitted}, swept-and-minted slots with K∩ > 0 {reached}"
    );
}

/// The walk no benchmark query takes: a prefix-filtered walk (fewer
/// minting hashes than the query has) that also sweeps, where a slot the
/// sweep mints holds a lookup-only hash, so its `K∩ > 0` comes from the
/// lookup-only pass. Every path must answer like the scan, and every
/// store's block summary must survive a reopen.
#[test]
fn prefixed_sweep_is_bit_identical_to_scan() {
    use crate::index::candidates::{buffer_mint, BufferMint, QuerySketchView};
    use crate::scratch::QueryScratch;
    use crate::sim::OverlapThreshold;

    let dataset = hot_buffer_dataset();
    let config = GbKmvConfig::with_space_fraction(0.1).buffer_size(16);
    let index = GbKmvIndex::build(&dataset, config);
    let sharded = GbKmvIndex::build(&dataset, config.shards(4));
    let dir = std::env::temp_dir().join(format!("gbkmv_prefixed_sweep_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("index.arena");
    sharded.save(&path).expect("save");
    let reopened = GbKmvIndex::open(&path).expect("open");
    std::fs::remove_file(&path).ok();
    for shard in reopened.sharded.shards() {
        let store = shard.store();
        assert_eq!(store.block_summary(), store.block_summary_recomputed());
    }
    assert_eq!(reopened.sharded, sharded.sharded);
    let service = crate::service::ContainmentService::new(index.clone());
    let snapshot = service.snapshot();
    let mut pipeline = QueryPipeline::new();

    let mut scratch = QueryScratch::new();
    let mut reached = 0usize;
    for rid in [0usize, 7, 291, 1_234, 2_000, 3_333] {
        let query = dataset.record(rid);
        let sketch = index.sketch_query(query);
        let view = QuerySketchView::new(&sketch);
        for t_star in [0.1, 0.2, 0.3, 0.5] {
            let threshold = OverlapThreshold::new(query.len(), t_star);
            let minting = prune::minting(&view, threshold);
            let prefixed_sweep = minting.hashes < view.hashes.len()
                && buffer_mint(&view, minting.b_min) == BufferMint::Sweep;
            if !prefixed_sweep {
                continue;
            }
            for shard in index.sharded.shards() {
                let live = shard.store().live_prefix(threshold.exact);
                reached +=
                    swept_slots_with_lookup_hashes(shard, &view, live, minting, &mut scratch).len();
            }
            let scan = index.search_scan(query, t_star);
            let label = format!("record {rid} at t*={t_star}");
            let q = query.elements();
            assert_eq!(
                pipeline.search(&index, q, t_star),
                scan,
                "{label}: sequential"
            );
            assert_eq!(
                pipeline.search_parallel(&index, q, t_star, 3),
                scan,
                "{label}: intra-query parallel"
            );
            assert_eq!(
                pipeline.search(&sharded, q, t_star),
                scan,
                "{label}: 4 shards"
            );
            assert_eq!(
                pipeline.search(&reopened, q, t_star),
                scan,
                "{label}: reopened"
            );
            assert_eq!(
                snapshot.search_record(query, t_star),
                scan,
                "{label}: service"
            );
            assert_eq!(
                index.search_topk(query, 25),
                ranked_scan(&index, query, 25),
                "{label}: top-k"
            );
        }
    }
    assert!(
        reached > 0,
        "no prefix-filtered sweep minted a slot holding a lookup-only hash"
    );
}

#[test]
fn zero_width_buffer_never_sweeps() {
    use crate::index::candidates::{buffer_mint, BufferMint, QuerySketchView};

    let dataset = hot_buffer_dataset();
    let index = GbKmvIndex::build(
        &dataset,
        GbKmvConfig::with_space_fraction(0.1).buffer_size(0),
    );
    let query = dataset.record(11);
    let sketch = index.sketch_query(query);
    let view = QuerySketchView::new(&sketch);
    for shard in index.sharded.shards() {
        assert_eq!(shard.store().words_per_record(), 0);
    }
    for b_min in 0..=3 {
        assert_eq!(buffer_mint(&view, b_min), BufferMint::Skip);
    }
    for t_star in [0.1, 0.5] {
        assert_eq!(
            index.search_record(query, t_star),
            index.search_scan(query, t_star)
        );
    }
    assert_eq!(index.search_topk(query, 10), ranked_scan(&index, query, 10));
}
