//! Dynamic data maintenance: append new records to an existing GB-KMV index
//! without rebuilding it (the "Processing Dynamic Data" remark in the paper).
//!
//! New records reuse the index's buffer layout and global threshold; the
//! example shows that freshly inserted records are immediately searchable and
//! that accuracy stays close to a full rebuild until the data distribution
//! drifts, at which point a rebuild re-optimises τ and the buffer.
//!
//! Run with `cargo run --release --example dynamic_maintenance`.

use gbkmv::prelude::*;

fn main() {
    // Start from an initial batch of records.
    let initial = SyntheticDataset::generate(SyntheticConfig {
        num_records: 1_500,
        universe_size: 25_000,
        alpha_element_freq: 1.1,
        alpha_record_size: 2.5,
        min_record_len: 40,
        max_record_len: 500,
        seed: 3,
    })
    .dataset;
    // A second batch arriving later (same distribution, different seed).
    let arriving = SyntheticDataset::generate(SyntheticConfig {
        num_records: 500,
        universe_size: 25_000,
        alpha_element_freq: 1.1,
        alpha_record_size: 2.5,
        min_record_len: 40,
        max_record_len: 500,
        seed: 4,
    })
    .dataset;

    let mut index = GbKmvIndex::build(&initial, GbKmvConfig::with_space_fraction(0.10));
    println!(
        "initial index: {} records, buffer r = {}, τ = {:.4}",
        index.num_records(),
        index.summary().buffer_size,
        index.summary().tau
    );

    // Append the new batch in one merge into the index's tail shard, and
    // keep a combined dataset for ground-truth comparison.
    let ids = index.insert_batch(arriving.records());
    assert_eq!(ids, initial.len()..initial.len() + arriving.len());
    let mut combined = initial.clone();
    for record in arriving.records() {
        combined.push(record.clone());
    }
    println!(
        "after inserts: {} records, space now {:.1}% of the (grown) dataset",
        index.num_records(),
        100.0 * index.summary().space_used_fraction
    );

    // Freshly inserted records are searchable. Use a moderate threshold for
    // the self-query: the new record's true containment is 1.0, but at a 10%
    // budget the per-record sketch is small and the estimate is noisy.
    let new_record_id = initial.len() + 42;
    let hits = index.search(combined.record(new_record_id).elements(), 0.4);
    assert!(
        hits.iter().any(|h| h.record_id == new_record_id),
        "the freshly inserted record should be retrieved by its own query"
    );
    println!("inserted record {new_record_id} is found by its own query.");

    // Accuracy of the incrementally-maintained index vs a full rebuild.
    let workload = QueryWorkload::sample_from_dataset(&combined, 40, 9);
    let truth = GroundTruth::compute(&combined, &workload.queries, 0.5);
    let incremental = evaluate_index(
        &index,
        &workload.queries,
        &truth,
        0.5,
        combined.total_elements(),
    );
    let rebuilt_index = GbKmvIndex::build(&combined, GbKmvConfig::with_space_fraction(0.10));
    let rebuilt = evaluate_index(
        &rebuilt_index,
        &workload.queries,
        &truth,
        0.5,
        combined.total_elements(),
    );
    println!(
        "incremental index F1 = {:.3}, full rebuild F1 = {:.3}",
        incremental.accuracy.f1, rebuilt.accuracy.f1
    );
    println!("(a rebuild re-optimises τ and the buffer; incremental maintenance trades a little accuracy for no rebuild cost)");
}
