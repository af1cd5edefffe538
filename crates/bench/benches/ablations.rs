//! Criterion ablation benchmarks for the design choices called out in
//! DESIGN.md §6:
//!
//! * buffer on/off (GB-KMV with the cost-model buffer vs G-KMV),
//! * inverted-signature candidate filter on/off in the GB-KMV search (off
//!   is the reference scan, `search_scan`, over the same index),
//! * uniform vs frequency-partitioned KMV allocation (the design Theorem 4
//!   rejects).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use gbkmv_core::dataset::Record;
use gbkmv_core::index::{ContainmentIndex, GbKmvConfig, GbKmvIndex};
use gbkmv_core::variants::{KmvConfig, KmvIndex, PartitionedKmvIndex};
use gbkmv_datagen::profiles::DatasetProfile;

fn ablation_buffer_and_filter(c: &mut Criterion) {
    let dataset = DatasetProfile::Netflix.generate_scaled(4);
    let queries: Vec<Record> = (0..8)
        .map(|i| dataset.record(i * 29 % dataset.len()).clone())
        .collect();

    let with_buffer = GbKmvIndex::build(&dataset, GbKmvConfig::with_space_fraction(0.10));
    let without_buffer = GbKmvIndex::build(
        &dataset,
        GbKmvConfig::with_space_fraction(0.10).buffer_size(0),
    );

    let mut group = c.benchmark_group("ablation_query");
    let run = |index: &GbKmvIndex, queries: &[Record]| {
        for q in queries {
            black_box(index.search(q.elements(), 0.5));
        }
    };
    group.bench_function("gbkmv_auto_buffer", |b| {
        b.iter(|| run(&with_buffer, &queries))
    });
    group.bench_function("gbkmv_no_buffer_gkmv", |b| {
        b.iter(|| run(&without_buffer, &queries))
    });
    group.bench_function("gbkmv_no_candidate_filter", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(with_buffer.search_scan(q, 0.5));
            }
        })
    });
    group.finish();
}

fn ablation_allocation(c: &mut Criterion) {
    let dataset = DatasetProfile::Enron.generate_scaled(8);
    let queries: Vec<Vec<u32>> = (0..8)
        .map(|i| dataset.record(i * 13 % dataset.len()).elements().to_vec())
        .collect();

    let plain = KmvIndex::build(&dataset, KmvConfig::with_space_fraction(0.10));
    let partitioned = PartitionedKmvIndex::build(&dataset, KmvConfig::with_space_fraction(0.10));

    let mut group = c.benchmark_group("ablation_allocation");
    group.bench_function("kmv_uniform_allocation", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(plain.search(q, 0.5));
            }
        })
    });
    group.bench_function("kmv_frequency_partitioned", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(partitioned.search(q, 0.5));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, ablation_buffer_and_filter, ablation_allocation);
criterion_main!(benches);
