//! Criterion micro-benchmarks: end-to-end query latency of the containment
//! search indexes (the per-query cost Figure 17 aggregates).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use gbkmv_core::dataset::Record;
use gbkmv_core::index::{ContainmentIndex, GbKmvConfig, GbKmvIndex};
use gbkmv_core::variants::{KmvConfig, KmvIndex};
use gbkmv_datagen::profiles::DatasetProfile;
use gbkmv_exact::freqset::FrequentSetIndex;
use gbkmv_exact::ppjoin::PpJoinIndex;
use gbkmv_lsh::ensemble::{LshEnsembleConfig, LshEnsembleIndex};

fn query_latency(c: &mut Criterion) {
    let dataset = DatasetProfile::Enron.generate_scaled(4);
    let queries: Vec<Vec<u32>> = (0..10)
        .map(|i| dataset.record(i * 17 % dataset.len()).elements().to_vec())
        .collect();
    let t_star = 0.5;

    let gbkmv = GbKmvIndex::build(&dataset, GbKmvConfig::with_space_fraction(0.10));
    let scan_queries: Vec<Record> = queries.iter().cloned().map(Record::new).collect();
    let kmv = KmvIndex::build(&dataset, KmvConfig::with_space_fraction(0.10));
    let lshe = LshEnsembleIndex::build(
        &dataset,
        LshEnsembleConfig::with_num_hashes(128).partitions(16),
    );
    let ppjoin = PpJoinIndex::build(&dataset);
    let freqset = FrequentSetIndex::build(&dataset);

    let mut group = c.benchmark_group("query_latency");
    let run = |index: &dyn ContainmentIndex, queries: &[Vec<u32>]| {
        for q in queries {
            black_box(index.search(q, t_star));
        }
    };
    group.bench_function("gbkmv_filtered", |b| b.iter(|| run(&gbkmv, &queries)));
    group.bench_function("gbkmv_scan", |b| {
        b.iter(|| {
            for q in &scan_queries {
                black_box(gbkmv.search_scan(q, t_star));
            }
        })
    });
    group.bench_function("kmv", |b| b.iter(|| run(&kmv, &queries)));
    group.bench_function("lshe_128", |b| b.iter(|| run(&lshe, &queries)));
    group.bench_function("ppjoin_exact", |b| b.iter(|| run(&ppjoin, &queries)));
    group.bench_function("freqset_exact", |b| b.iter(|| run(&freqset, &queries)));
    group.finish();
}

criterion_group!(benches, query_latency);
criterion_main!(benches);
