//! Query-engine throughput benchmark: the machine-readable performance
//! trajectory of the query engine (`BENCH_query_throughput.json`).
//!
//! Builds a GB-KMV index over a synthetic Zipf dataset (10k records, 10%
//! space budget by default) and measures, for the same workload:
//!
//! * `scan` — the full-scan reference path (sorted merge per record),
//! * `prefix_pruned` — the engine: size-ordered posting pruning plus the
//!   signature prefix filter (a query past the filter's own per-query rule
//!   lets only the rarest df-ordered hashes mint candidates; the frequent
//!   ones accumulate lookup-only); the report also records its posting
//!   lists' bytes,
//! * `sharded_pruned` — the same engine over an `--shards`-way sharded
//!   index (single queries),
//! * `batch_parallel` — `search_batch` fanning the whole workload across
//!   scoped threads over the sharded index; latency columns report the
//!   amortised per-query time.
//!
//! All paths are asserted to return bit-identical hits while measuring, so
//! the numbers can never drift from a correctness regression silently.
//!
//! The main profile (the bench lib's `zipf_profile`) and the
//! `dense_profile` section are two rows of one profile table, measured by
//! one function. The dense row is a near-uniform element distribution over
//! a small universe, so the hottest signature postings cover most of the
//! slot space and most queries take the prefix filter's prefixed walk; it
//! measures `scan` and `prefix_pruned` only. Every index is built with the
//! bench lib's `pinned_engine` (the sketch-only operating point, `r = 0`).
//!
//! The `build` section times sequential against parallel index builds in
//! alternating pairs and reports the median of the per-pair speedups.
//!
//! A `persistence` section measures the single-file index arena: the
//! engine's index is saved (`--save PATH`, default
//! `<out>.arena`), reopened zero-copy (`--load PATH` to read an arena
//! written by an earlier process instead — the synthetic seeds are pinned,
//! so a cross-process load answers the same workload), and timed against a
//! from-scratch rebuild of the same index. The loaded index must answer
//! the workload with exactly the built index's hits and must report every
//! content arena as borrowed (`mem_usage`), both asserted here and gated
//! by `bench_check` (which also floors the load-vs-rebuild speedup at
//! full scale).
//!
//! A separate `concurrent` section measures the serving layer: `--readers`
//! threads query `ContainmentService` snapshots while a writer ingests
//! `--ingest` fresh records in `--ingest-batches` published generations;
//! the quiesced service must answer the workload with exactly the hits of
//! a direct index grown by the same inserts (asserted here and gated by
//! `bench_check`).
//!
//! An `ingest` section measures the cost side of that publication model on
//! a deliberately wide (16-shard) index: the latency of a 1-record
//! copy-on-write flush against the pre-COW baseline it replaced (a
//! whole-index deep clone plus the same insert, re-run in the same
//! process so the speedup is measured, not assumed), flush latency and
//! records/s at several batch sizes, the bytes a snapshot pair shares
//! behind `Arc`s (`mem_usage_shared` — the copying the COW publish
//! avoided), and a delta checkpoint of the `--shards`-way index with one
//! dirty shard against a full arena rewrite of the same state. The delta
//! image is asserted byte-identical to the full serialization and left on
//! disk at `<out>.delta.arena` for the CI artifact; `bench_check` floors
//! the two speedups and the 128-record over 1-record flush records/s at
//! full scale, and the structural fields always.
//!
//! Usage: `query_throughput [--records N] [--queries N] [--budget F]
//! [--threshold F] [--threads N] [--shards N] [--reps N] [--readers N]
//! [--ingest N] [--ingest-batches N] [--save PATH] [--load PATH]
//! [--out PATH]`

use std::time::Instant;

use serde::Serialize;

use gbkmv_bench::harness::arg_value;
use gbkmv_bench::report::{
    latency_stats, measure, parsed_arg, percentile, pinned_engine, zipf_profile,
};
use gbkmv_core::dataset::{Dataset, Record};
use gbkmv_core::index::{GbKmvIndex, QueryPipeline, SearchHit};
use gbkmv_core::mem::MemUsage;
use gbkmv_core::parallel::resolve_threads;
use gbkmv_core::persist::DeltaStats;
use gbkmv_core::service::ContainmentService;
use gbkmv_datagen::queries::QueryWorkload;
use gbkmv_datagen::synthetic::{SyntheticConfig, SyntheticDataset};
use gbkmv_eval::report::{format_table, write_json_report};

#[derive(Debug, Serialize)]
struct DatasetSection {
    num_records: usize,
    universe_size: usize,
    alpha_element_freq: f64,
    alpha_record_size: f64,
    total_elements: usize,
    num_queries: usize,
    space_budget_fraction: f64,
    containment_threshold: f64,
}

/// Sequential vs parallel index builds, timed in alternating pairs.
#[derive(Debug, Serialize)]
struct BuildSection {
    /// Fastest sequential build, seconds.
    seconds_single_thread: f64,
    /// Fastest parallel build, seconds.
    seconds_parallel: f64,
    parallel_threads: usize,
    /// Sequential over parallel build time of each pair, in run order.
    pair_speedups: Vec<f64>,
    /// Median of `pair_speedups` — the figure `bench_check` floors.
    parallel_speedup: f64,
}

#[derive(Debug, Serialize)]
struct PathSection {
    name: String,
    queries_per_sec: f64,
    p50_latency_us: f64,
    p99_latency_us: f64,
    total_hits: usize,
}

/// The concurrent serving-layer measurement: N reader threads querying
/// [`ContainmentService`] snapshots while one writer ingests and publishes
/// new generations. On a single-core host the throughput numbers degrade to
/// time-slicing — the load-bearing fields are the hit-identity pair
/// (`total_hits_service` must equal `total_hits_direct`, asserted here and
/// floored again by `bench_check`) and `generations_published` (readers ran
/// against an index that was genuinely republished under them).
#[derive(Debug, Serialize)]
struct ConcurrentSection {
    /// Number of reader threads querying snapshots during ingest.
    readers: usize,
    /// Records ingested by the writer during the measured phase.
    ingested_records: usize,
    /// Batches the writer submitted (one explicit flush each).
    writer_batches: usize,
    /// Generations the service published while readers were querying.
    generations_published: u64,
    /// Total queries answered by all readers during the ingest phase.
    reader_queries_total: usize,
    /// Reader queries/s summed over all readers (concurrent phase).
    reader_queries_per_sec: f64,
    /// Writer ingest throughput over the same phase.
    ingest_records_per_sec: f64,
    /// Workload hits via the quiesced service snapshot (all generations
    /// published, queue empty).
    total_hits_service: usize,
    /// Workload hits via a direct index grown by the same inserts.
    total_hits_direct: usize,
}

/// One flush-latency point of the ingest section: `batch_size` queued
/// records published in a single copy-on-write flush.
#[derive(Debug, Serialize)]
struct IngestBatchPoint {
    batch_size: usize,
    flush_ms: f64,
    records_per_sec: f64,
}

/// The ingest-cost measurement: what publishing a new generation costs
/// under copy-on-write, against the pre-COW whole-index clone it replaced,
/// plus the delta-vs-full checkpoint comparison on an index with exactly
/// one dirty shard. The speedups are gated at full scale by `bench_check`;
/// the structural fields (`delta.fallback`, `delta.reused_shards`,
/// `shared_bytes`, the hit-identity pair) are gated at every scale.
#[derive(Debug, Serialize)]
struct IngestSection {
    /// Shard count of the ingest index — deliberately wide (16) so the
    /// O(dirty) flush has room to beat the O(index) clone it replaced.
    ingest_shards: usize,
    /// Records in the ingest index before any measured flush.
    base_records: usize,
    /// Flush latency / throughput at several batch sizes.
    batches: Vec<IngestBatchPoint>,
    /// Best-of-reps latency of a 1-record copy-on-write flush.
    cow_flush_ms: f64,
    /// Best-of-reps latency of the pre-COW publication path: deep-clone
    /// the whole index, then apply the same 1-record insert.
    deep_clone_flush_ms: f64,
    /// `deep_clone_flush_ms / cow_flush_ms` — floored at full scale.
    flush_speedup_vs_deep_clone: f64,
    /// Bytes the post-flush snapshot shares with the pre-flush one behind
    /// `Arc`s (`mem_usage_shared`): the copying the COW publish avoided.
    shared_bytes: usize,
    /// Shard count of the checkpointed (`--shards`-way) index.
    checkpoint_shards: usize,
    /// Best-of-reps full arena rewrite of the 1-dirty-shard index, ms.
    full_checkpoint_ms: f64,
    /// Best-of-reps delta checkpoint of the same state against the
    /// pre-insert arena file, ms.
    delta_checkpoint_ms: f64,
    /// `full_checkpoint_ms / delta_checkpoint_ms` — floored at full scale.
    delta_speedup_vs_full: f64,
    /// Section-reuse accounting of the measured delta checkpoint.
    delta: DeltaStats,
    /// Where the delta-produced arena was left for the CI artifact.
    delta_arena_path: String,
    /// Workload hits via the quiesced ingest service.
    total_hits_service: usize,
    /// Workload hits via a direct index grown by the same inserts; must
    /// equal `total_hits_service`.
    total_hits_direct: usize,
}

/// Posting-list memory (heap bytes allocated for the inverted lists,
/// summed over shards).
#[derive(Debug, Serialize)]
struct PostingMemorySection {
    posting_bytes: usize,
}

/// One measured row of the profile table: its dataset, the posting bytes
/// of its unsharded index, and its measured paths. The main row's fields
/// sit at the top level of the report, the dense row's under
/// `dense_profile`.
#[derive(Debug, Serialize)]
struct ProfileSection {
    dataset: DatasetSection,
    posting_memory: PostingMemorySection,
    paths: Vec<PathSection>,
}

/// A row of the profile table: the dataset family, the workload's sampling
/// seed, and the shard count of the `sharded_pruned` / `batch_parallel`
/// paths (`None` measures `scan` and `prefix_pruned` only).
struct Profile {
    config: SyntheticConfig,
    query_seed: u64,
    shards: Option<usize>,
}

/// What measuring a [`Profile`] leaves behind for the main row's further
/// sections.
struct ProfileRun {
    section: ProfileSection,
    dataset: Dataset,
    queries: Vec<Record>,
    index: GbKmvIndex,
    sharded: Option<GbKmvIndex>,
}

/// The single-file index-arena measurement: save the engine's index, reopen it zero-copy, and time both against rebuilding
/// the same index from records. The hit-identity pair and the borrowed
/// accounting are the load-bearing fields (gated by `bench_check`); the
/// speedup is the point of the arena format — loading validates and copies
/// one image instead of re-sketching every record.
#[derive(Debug, Serialize)]
struct PersistenceSection {
    /// Arena file written by this run (`--save`, default `<out>.arena`).
    arena_path: String,
    /// Arena file the measured load read — differs from `arena_path` only
    /// under `--load` (the two-process CI smoke).
    loaded_from: String,
    /// Size of the written arena file in bytes.
    arena_file_bytes: u64,
    /// Best-of-reps wall time of [`GbKmvIndex::save`], milliseconds.
    save_ms: f64,
    /// Best-of-reps wall time of [`GbKmvIndex::open`], milliseconds.
    load_ms: f64,
    /// Best-of-reps wall time of rebuilding the same index from the
    /// dataset (same config and thread count), milliseconds.
    rebuild_ms: f64,
    /// `rebuild_ms / load_ms` — floored at full scale by `bench_check`.
    load_speedup_vs_rebuild: f64,
    /// Workload hits via the built index (the `prefix_pruned` engine).
    total_hits_built: usize,
    /// Workload hits via the loaded index; must equal `total_hits_built`.
    total_hits_loaded: usize,
    /// Per-component memory breakdown of the built index (nothing
    /// borrowed: every arena is owned).
    mem_built: MemUsage,
    /// Per-component breakdown of the loaded index. Its `borrowed_bytes`
    /// equals the summed content of every arena-backed component — the
    /// zero-copy evidence, asserted before this section is written.
    mem_loaded: MemUsage,
    /// Reusable per-query scratch the workload pipeline grew (steady-state
    /// query-time footprint on top of the index itself).
    scratch_bytes: usize,
}

#[derive(Debug, Serialize)]
struct ThroughputReport {
    bench: String,
    dataset: DatasetSection,
    build: BuildSection,
    /// Shard count of the `sharded_pruned` / `batch_parallel` paths.
    batch_shards: usize,
    /// Posting-list bytes of the unsharded index.
    posting_memory: PostingMemorySection,
    /// Single-file arena save/load/rebuild measurement plus the
    /// per-component memory accounting of the built and loaded indexes.
    persistence: PersistenceSection,
    /// Serving-layer readers-vs-writer measurement.
    concurrent: ConcurrentSection,
    /// Ingest-cost measurement: COW flush vs the pre-COW whole-index
    /// clone, batch flush throughput, snapshot sharing, and the
    /// delta-vs-full checkpoint comparison.
    ingest: IngestSection,
    /// The dense-postings companion row of the profile table.
    dense_profile: ProfileSection,
    paths: Vec<PathSection>,
    /// Speedup of the engine (`prefix_pruned`) over the scan.
    speedup_prefix_vs_scan: f64,
}

/// Queries/s of a named path (the speedup fields reference paths by name so
/// reordering the table can never silently skew the trajectory record).
fn qps(paths: &[PathSection], name: &str) -> f64 {
    paths
        .iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("no path named {name}"))
        .queries_per_sec
}

/// Runs `f` `reps` times (at least once): the fastest run's seconds and the
/// last run's value, dropped outside the timed runs.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut value = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let v = f();
        best = best.min(start.elapsed().as_secs_f64());
        value = Some(v);
    }
    (best, value.expect("at least one rep"))
}

/// `a / b`, or 0 when `b` is not positive.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The workload's hits summed over its queries, answered one by one.
fn workload_hits(index: &GbKmvIndex, queries: &[Record], threshold: f64) -> usize {
    queries
        .iter()
        .map(|q| index.search_record(q, threshold).len())
        .sum()
}

/// A [`PathSection`] from a measured loop's latencies and hit count.
fn path(name: &str, (latencies, total_hits): (Vec<f64>, usize)) -> PathSection {
    let stats = latency_stats(latencies);
    PathSection {
        name: name.to_string(),
        queries_per_sec: stats.queries_per_sec,
        p50_latency_us: stats.p50_latency_us,
        p99_latency_us: stats.p99_latency_us,
        total_hits,
    }
}

/// Times `search_batch` over the whole workload: one warm-up pass, then the
/// best of `reps` timed passes. Only the amortised per-query time is
/// observable, so it fills both latency columns.
fn batch_section(
    index: &GbKmvIndex,
    queries: &[Record],
    threshold: f64,
    reps: usize,
) -> PathSection {
    let run = || -> usize {
        index
            .search_batch(queries, threshold)
            .iter()
            .map(Vec::len)
            .sum()
    };
    let total_hits = run();
    let mut best_seconds = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let check_hits = run();
        best_seconds = best_seconds.min(start.elapsed().as_secs_f64());
        assert_eq!(total_hits, check_hits, "non-deterministic batch path");
    }
    let amortised_us = if queries.is_empty() {
        0.0
    } else {
        best_seconds * 1e6 / queries.len() as f64
    };
    PathSection {
        name: "batch_parallel".to_string(),
        queries_per_sec: ratio(queries.len() as f64, best_seconds),
        p50_latency_us: amortised_us,
        p99_latency_us: amortised_us,
        total_hits,
    }
}

/// Measures one row of the profile table. Generates its dataset and
/// workload, builds the engine's index (and the sharded one when the row
/// asks for it), asserts — per query, before anything is timed — that
/// every path answers bit-identically to the `search_scan` reference, so a
/// path that loses a hit on one query and gains one on another can't slip
/// through a workload-wide total, then times each path.
fn run_profile(
    profile: &Profile,
    num_queries: usize,
    budget: f64,
    threshold: f64,
    threads: usize,
    reps: usize,
) -> ProfileRun {
    let config = profile.config;
    let dataset = SyntheticDataset::generate(config).dataset;
    let queries =
        QueryWorkload::sample_from_dataset(&dataset, num_queries, profile.query_seed).queries;
    let index = GbKmvIndex::build(&dataset, pinned_engine(budget).threads(threads));
    let sharded = profile
        .shards
        .map(|n| GbKmvIndex::build(&dataset, pinned_engine(budget).threads(threads).shards(n)));

    let reference: Vec<Vec<SearchHit>> = queries
        .iter()
        .map(|q| index.search_scan(q, threshold))
        .collect();
    let assert_agrees = |name: &str, answers: Vec<Vec<SearchHit>>| {
        for (qi, (got, expected)) in answers.iter().zip(&reference).enumerate() {
            assert_eq!(got, expected, "{name} diverged from scan on query {qi}");
        }
    };
    let one_by_one = |index: &GbKmvIndex| -> Vec<Vec<SearchHit>> {
        queries
            .iter()
            .map(|q| index.search_record(q, threshold))
            .collect()
    };
    assert_agrees("prefix_pruned", one_by_one(&index));
    if let Some(sharded) = &sharded {
        assert_agrees("sharded_pruned", one_by_one(sharded));
        assert_agrees("batch_parallel", sharded.search_batch(&queries, threshold));
    }

    let engine = |index: &GbKmvIndex| {
        let mut pipeline = QueryPipeline::new();
        measure(&queries, reps, |q| {
            pipeline.search_sorted(index, q.elements(), threshold).len()
        })
    };
    let mut paths = vec![
        path(
            "scan",
            measure(&queries, reps, |q| index.search_scan(q, threshold).len()),
        ),
        path("prefix_pruned", engine(&index)),
    ];
    if let Some(sharded) = &sharded {
        paths.push(path("sharded_pruned", engine(sharded)));
        paths.push(batch_section(sharded, &queries, threshold, reps));
    }
    // Belt-and-braces on top of the per-query agreement check above: the
    // measured loops must reproduce the scan's workload-wide hit count.
    for path in &paths {
        assert_eq!(
            path.total_hits, paths[0].total_hits,
            "{} diverged from scan",
            path.name
        );
    }

    let section = ProfileSection {
        dataset: DatasetSection {
            num_records: dataset.len(),
            universe_size: config.universe_size,
            alpha_element_freq: config.alpha_element_freq,
            alpha_record_size: config.alpha_record_size,
            total_elements: dataset.total_elements(),
            num_queries: queries.len(),
            space_budget_fraction: budget,
            containment_threshold: threshold,
        },
        posting_memory: PostingMemorySection {
            posting_bytes: index.posting_bytes(),
        },
        paths,
    };
    ProfileRun {
        section,
        dataset,
        queries,
        index,
        sharded,
    }
}

/// Times sequential against parallel builds of `dataset`. An untimed
/// warm-up build runs first so allocator/page-cache warm-up is not recorded
/// as parallel speedup. The timed builds then run in alternating pairs, the
/// order flipping every pair, and the reported speedup is the median of the
/// per-pair ratios: host noise that slows one build cannot move it the way
/// it moved a ratio of two best-of runs (0.75x against a 0.8x floor on one
/// 800-record smoke run, with the build code unchanged).
fn measure_build(dataset: &Dataset, budget: f64, threads: usize, reps: usize) -> BuildSection {
    std::hint::black_box(GbKmvIndex::build(dataset, pinned_engine(budget)));
    let timed_build = |t: usize| {
        let start = Instant::now();
        std::hint::black_box(GbKmvIndex::build(dataset, pinned_engine(budget).threads(t)));
        start.elapsed().as_secs_f64()
    };
    let mut pair_speedups = Vec::new();
    let (mut seconds_single, mut seconds_parallel) = (f64::INFINITY, f64::INFINITY);
    for pair in 0..2 * reps.max(1) + 1 {
        let (single, parallel) = if pair % 2 == 0 {
            let single = timed_build(1);
            (single, timed_build(threads))
        } else {
            let parallel = timed_build(threads);
            (timed_build(1), parallel)
        };
        seconds_single = seconds_single.min(single);
        seconds_parallel = seconds_parallel.min(parallel);
        pair_speedups.push(ratio(single, parallel));
    }
    let mut sorted_speedups = pair_speedups.clone();
    sorted_speedups.sort_by(f64::total_cmp);
    BuildSection {
        seconds_single_thread: seconds_single,
        seconds_parallel,
        parallel_threads: resolve_threads(threads),
        parallel_speedup: percentile(&sorted_speedups, 0.5),
        pair_speedups,
    }
}

/// Runs the persistence phase: saves `built` to `save_path`, reopens an
/// index from `load_path` (the same file unless `--load` pointed at one
/// written by an earlier process), and times a from-scratch `rebuild()` of
/// the same index. Asserts — before anything is serialised — that the
/// loaded index answers the workload with exactly the built index's hits
/// and that its memory accounting reports every content arena as borrowed.
fn measure_persistence(
    built: &GbKmvIndex,
    rebuild: impl Fn() -> GbKmvIndex,
    queries: &[Record],
    threshold: f64,
    reps: usize,
    save_path: &std::path::Path,
    load_path: &std::path::Path,
) -> PersistenceSection {
    let (save_secs, ()) = best_of(reps, || {
        built
            .save(save_path)
            .expect("saving the index arena failed")
    });
    let arena_file_bytes = std::fs::metadata(save_path)
        .expect("stat on the written arena failed")
        .len();

    // `open` validates the header and checksum, copies the image once into
    // an aligned arena, and reconstructs every component by borrowing into
    // it — no per-record work, which is what the speedup below records.
    let (load_secs, loaded) = best_of(reps, || {
        GbKmvIndex::open(load_path).expect("loading the index arena failed")
    });

    let (rebuild_secs, ()) = best_of(reps, || drop(std::hint::black_box(rebuild())));

    // The loaded index must answer the workload exactly as the built one
    // (under `--load` the built index comes from the same pinned seeds, so
    // the comparison holds across processes too). Run the loaded side
    // through its own pipeline so the scratch figure reflects exactly this
    // workload's steady state.
    let total_hits_built: usize = workload_hits(built, queries, threshold);
    let mut pipeline = QueryPipeline::new();
    let total_hits_loaded: usize = queries
        .iter()
        .map(|q| {
            pipeline
                .search_sorted(&loaded, q.elements(), threshold)
                .len()
        })
        .sum();
    assert_eq!(
        total_hits_built, total_hits_loaded,
        "loaded index diverged from the built index"
    );

    // Zero-copy proof: every arena-backed component of the loaded index is
    // served from the leaked file image (the `hash_df` map is the one
    // rebuilt structure and is deliberately absent from the sum).
    let mem_built = built.mem_usage();
    let mem_loaded = loaded.mem_usage();
    assert_eq!(
        mem_loaded.borrowed_bytes,
        mem_loaded.arena_content_bytes(),
        "a loaded component is not borrowed zero-copy from the arena"
    );
    assert_eq!(mem_built.borrowed_bytes, 0, "a built index borrowed bytes");

    PersistenceSection {
        arena_path: save_path.display().to_string(),
        loaded_from: load_path.display().to_string(),
        arena_file_bytes,
        save_ms: save_secs * 1e3,
        load_ms: load_secs * 1e3,
        rebuild_ms: rebuild_secs * 1e3,
        load_speedup_vs_rebuild: ratio(rebuild_secs, load_secs),
        total_hits_built,
        total_hits_loaded,
        mem_built,
        mem_loaded,
        scratch_bytes: pipeline.scratch_bytes(),
    }
}

/// Runs the serving-layer phase: `readers` threads query service snapshots
/// continuously while the writer ingests `ingest_stream` in `batches`
/// batches (one explicit publication each); then asserts the quiesced
/// service answers the workload with exactly the hits of a direct index
/// grown by the same inserts.
fn measure_concurrent(
    base_index: &GbKmvIndex,
    queries: &[Record],
    threshold: f64,
    readers: usize,
    ingest_stream: &[Record],
    batches: usize,
) -> ConcurrentSection {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    let service = ContainmentService::new(base_index.clone());
    let mut direct = base_index.clone();
    direct.insert_batch(ingest_stream);

    let batches = batches.clamp(1, ingest_stream.len().max(1));
    let chunk = ingest_stream.len().div_ceil(batches);
    let done = AtomicBool::new(false);
    let reader_queries = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..readers {
            let (service, done, reader_queries) = (&service, &done, &reader_queries);
            scope.spawn(move || {
                let mut served = 0usize;
                while !done.load(Ordering::Acquire) {
                    for q in queries {
                        let snapshot = service.snapshot();
                        std::hint::black_box(snapshot.search_record(q, threshold));
                        served += 1;
                        if done.load(Ordering::Acquire) {
                            break;
                        }
                    }
                }
                reader_queries.fetch_add(served, Ordering::AcqRel);
            });
        }
        for batch in ingest_stream.chunks(chunk.max(1)) {
            service
                .submit_batch(batch.to_vec())
                .expect("synthetic ingest records are non-empty");
            service.flush();
            // On a single core, give the readers a slice between
            // publications so they observe more than one generation.
            std::thread::yield_now();
        }
        done.store(true, Ordering::Release);
    });
    let elapsed = start.elapsed().as_secs_f64();

    let generations_published = service.generation();
    let snapshot = service.snapshot();
    let total_hits_service: usize = workload_hits(&snapshot, queries, threshold);
    let total_hits_direct: usize = workload_hits(&direct, queries, threshold);
    assert_eq!(
        total_hits_service, total_hits_direct,
        "service snapshot diverged from the directly grown index"
    );
    let reader_queries_total = reader_queries.load(Ordering::Acquire);
    ConcurrentSection {
        readers,
        ingested_records: ingest_stream.len(),
        writer_batches: ingest_stream.len().div_ceil(chunk.max(1)),
        generations_published,
        reader_queries_total,
        reader_queries_per_sec: ratio(reader_queries_total as f64, elapsed),
        ingest_records_per_sec: ratio(ingest_stream.len() as f64, elapsed),
        total_hits_service,
        total_hits_direct,
    }
}

/// Where the checkpoint comparison writes its two arena files: the full
/// baseline re-saves to `full`, the delta path rewrites `delta` in place.
struct CheckpointPaths<'a> {
    full: &'a std::path::Path,
    delta: &'a std::path::Path,
}

/// Runs the ingest-cost phase. `base` is the wide (16-shard) ingest index;
/// `checkpoint_index` is the `--shards`-way index the delta-vs-full
/// checkpoint comparison runs on. Asserts, while measuring:
///
/// * the quiesced ingest service answers the workload with exactly the
///   hits of a direct index grown by the same inserts,
/// * consecutive snapshots actually share shard storage (`shared_bytes`),
/// * the delta checkpoint reused sections without falling back, and its
///   file is byte-identical to the full serialization of the same index.
fn measure_ingest(
    base: &GbKmvIndex,
    checkpoint_index: &GbKmvIndex,
    stream: &[Record],
    queries: &[Record],
    threshold: f64,
    reps: usize,
    paths: CheckpointPaths<'_>,
) -> IngestSection {
    let CheckpointPaths {
        full: full_path,
        delta: delta_path,
    } = paths;
    let service = ContainmentService::new(base.clone());
    let mut submitted: Vec<Record> = Vec::new();
    let mut cursor = 0usize;
    let mut draw = |n: usize| -> Vec<Record> {
        (0..n)
            .map(|_| {
                let record = stream[cursor % stream.len()].clone();
                cursor += 1;
                record
            })
            .collect()
    };

    // 1-record COW flush: clone is O(shards) `Arc` bumps, the merge builds
    // a new tail shard and shares the rest. Each rep submits one record so
    // `flush` always publishes (an empty flush short-circuits).
    let flush_reps = (reps.max(1) * 5).max(10);
    let mut cow_secs = f64::INFINITY;
    for record in draw(flush_reps) {
        submitted.push(record.clone());
        service
            .submit(record)
            .expect("synthetic ingest records are non-empty");
        let start = Instant::now();
        let flushed = service.flush();
        cow_secs = cow_secs.min(start.elapsed().as_secs_f64());
        assert_eq!(flushed, 1, "the 1-record flush published a wrong count");
    }

    // The pre-COW baseline, re-run in the same process: publication used
    // to deep-clone every shard before applying the batch. Same insert,
    // same index size — only the clone strategy differs.
    let probe = draw(1).remove(0);
    let snapshot = service.snapshot();
    let (deep_secs, cloned) = best_of(flush_reps, || {
        let mut cloned = snapshot.deep_clone();
        cloned.insert(&probe);
        cloned
    });
    std::hint::black_box(&cloned);

    // Flush latency and records/s at growing batch sizes. A flush is one
    // merge of its whole batch, so records/s grows with the batch;
    // `bench_check` floors the 128-record rate over the 1-record one.
    let mut batches = Vec::new();
    for batch_size in [1usize, 16, 128] {
        let batch = draw(batch_size);
        submitted.extend(batch.iter().cloned());
        service
            .submit_batch(batch)
            .expect("synthetic ingest records are non-empty");
        let start = Instant::now();
        let flushed = service.flush();
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(flushed, batch_size, "a batch flush published a wrong count");
        batches.push(IngestBatchPoint {
            batch_size,
            flush_ms: secs * 1e3,
            records_per_sec: ratio(batch_size as f64, secs),
        });
    }

    // The sharing a COW publish leaves behind: everything but the tail
    // shard of the pre-flush snapshot is the same `Arc` in the post-flush
    // one, and `mem_usage_shared` reports those bytes exactly once.
    let prev = service.snapshot();
    let record = draw(1).remove(0);
    submitted.push(record.clone());
    service
        .submit(record)
        .expect("synthetic ingest records are non-empty");
    service.flush();
    let next = service.snapshot();
    let pair = GbKmvIndex::mem_usage_shared([&*prev, &*next]);
    assert!(
        pair.shared_bytes > 0,
        "consecutive COW generations share no shard storage"
    );

    // Hit identity: the quiesced service vs a direct index grown by the
    // same inserts in the same order.
    let mut direct = base.clone();
    direct.insert_batch(&submitted);
    let quiesced = service.snapshot();
    let total_hits_service: usize = workload_hits(&quiesced, queries, threshold);
    let total_hits_direct: usize = workload_hits(&direct, queries, threshold);
    assert_eq!(
        total_hits_service, total_hits_direct,
        "ingest service snapshot diverged from the directly grown index"
    );

    // Delta vs full checkpoint at the serving cadence: grow the
    // `--shards`-way index by one record (dirtying the tail shard only),
    // checkpoint, repeat. The full baseline re-serializes and rewrites the
    // whole arena each round; the delta path re-serializes the tail shard
    // and rewrites it in place, leaving the clean shards untouched on disk.
    let ckpt_reps = (reps.max(1) * 3).max(5);
    let mut full_ckpt = checkpoint_index.clone();
    let mut full_secs = f64::INFINITY;
    for record in draw(ckpt_reps) {
        full_ckpt.insert(&record);
        let start = Instant::now();
        full_ckpt.save(full_path).expect("full checkpoint failed");
        full_secs = full_secs.min(start.elapsed().as_secs_f64());
    }
    let mut delta_ckpt = checkpoint_index.clone();
    delta_ckpt
        .save(delta_path)
        .expect("seeding the delta checkpoint file failed");
    let mut delta_secs = f64::INFINITY;
    let mut delta = DeltaStats::default();
    for record in draw(ckpt_reps) {
        delta_ckpt.insert(&record);
        let start = Instant::now();
        delta = delta_ckpt
            .save_delta(delta_path, delta_path)
            .expect("delta checkpoint failed");
        delta_secs = delta_secs.min(start.elapsed().as_secs_f64());
    }
    assert!(
        !delta.fallback && delta.reused_shards >= 1,
        "the delta checkpoint fell back or reused nothing ({delta:?})"
    );
    assert_eq!(
        std::fs::read(delta_path).expect("reading the delta arena back failed"),
        delta_ckpt.to_arena_bytes(),
        "the delta-produced arena diverged from the full serialization"
    );

    IngestSection {
        ingest_shards: base.sharded().shards().len(),
        base_records: base.num_records(),
        batches,
        cow_flush_ms: cow_secs * 1e3,
        deep_clone_flush_ms: deep_secs * 1e3,
        flush_speedup_vs_deep_clone: ratio(deep_secs, cow_secs),
        shared_bytes: pair.shared_bytes,
        checkpoint_shards: checkpoint_index.sharded().shards().len(),
        full_checkpoint_ms: full_secs * 1e3,
        delta_checkpoint_ms: delta_secs * 1e3,
        delta_speedup_vs_full: ratio(full_secs, delta_secs),
        delta,
        delta_arena_path: delta_path.display().to_string(),
        total_hits_service,
        total_hits_direct,
    }
}

fn main() {
    let num_records: usize = parsed_arg("--records", 10_000);
    let num_queries: usize = parsed_arg("--queries", 200);
    let budget: f64 = parsed_arg("--budget", 0.10);
    let threshold: f64 = parsed_arg("--threshold", 0.5);
    let threads: usize = parsed_arg("--threads", 0);
    let shards: usize = parsed_arg("--shards", 4);
    let reps: usize = parsed_arg("--reps", 5);
    let readers: usize = parsed_arg("--readers", 2);
    let ingest: usize = parsed_arg("--ingest", 400);
    let ingest_batches: usize = parsed_arg("--ingest-batches", 8);
    let out = arg_value("--out").unwrap_or_else(|| "BENCH_query_throughput.json".to_string());
    // `--save` places the arena file this run writes (default: next to the
    // JSON report); `--load` reads the measured load from an arena written
    // by an earlier process instead — the pinned dataset seeds make the
    // cross-process hit-identity assertion valid.
    let arena_out = arg_value("--save").unwrap_or_else(|| format!("{out}.arena"));
    let arena_in = arg_value("--load").unwrap_or_else(|| arena_out.clone());
    // The ingest section's checkpoint files: the pre-insert image the delta
    // reuses sections from, and the delta-produced arena CI uploads.
    let full_out = format!("{out}.full.arena");
    let delta_out = format!("{out}.delta.arena");

    // The profile table. The main row is the Zipf family the scale sweep
    // also measures; the dense row is near-uniform (`α1 = 1.01`) over a
    // 160-element universe with records covering most of it, so the
    // globally smallest signature hashes survive sketching in well over half
    // of all records and most queries take the prefix filter's prefixed walk.
    let profiles = [
        Profile {
            config: zipf_profile(num_records, 0xBE7C_4A11),
            query_seed: 0x0051_EED5,
            shards: Some(shards),
        },
        Profile {
            config: SyntheticConfig {
                num_records,
                universe_size: 160,
                alpha_element_freq: 1.01,
                alpha_record_size: 3.0,
                min_record_len: 96,
                max_record_len: 160,
                seed: 0xDE5E_0001,
            },
            query_seed: 0x0DE5_E002,
            shards: None,
        },
    ];
    let [main_run, dense_run] =
        profiles.map(|p| run_profile(&p, num_queries, budget, threshold, threads, reps));
    let ProfileRun {
        section: main_section,
        dataset,
        queries,
        index,
        sharded: sharded_index,
    } = main_run;
    let sharded_index = sharded_index.expect("the main row measures the sharded paths");
    let queries = &queries;

    // Single-thread vs parallel builds (the two must agree bit-for-bit,
    // which the core test suite already asserts).
    let build = measure_build(&dataset, budget, threads, reps);

    // Persistence: save the engine's index, reopen it zero-copy, and time
    // both against rebuilding it from the records.
    let persistence = measure_persistence(
        &index,
        || GbKmvIndex::build(&dataset, pinned_engine(budget).threads(threads)),
        queries,
        threshold,
        reps,
        std::path::Path::new(&arena_out),
        std::path::Path::new(&arena_in),
    );

    // Serving layer: readers on snapshots race a publishing writer. The
    // ingest stream is fresh synthetic data from a different seed, so the
    // merges exercise real new postings rather than duplicates.
    // It keeps the main profile's universe.
    let ingest_stream: Vec<Record> = SyntheticDataset::generate(SyntheticConfig {
        num_records: ingest.max(1),
        ..zipf_profile(num_records, 0x1463_E57A)
    })
    .dataset
    .records()
    .to_vec();
    let concurrent = measure_concurrent(
        &index,
        queries,
        threshold,
        readers.max(1),
        &ingest_stream,
        ingest_batches,
    );

    // Ingest cost: a deliberately wide (16-shard) index so the O(dirty)
    // COW flush has room against the O(index) deep clone it replaced, and
    // the `--shards`-way index for the delta-vs-full checkpoint pair. The
    // delta arena is left at `<out>.delta.arena` for the CI artifact.
    // `ingest_batch` is pinned high so publication happens only at the
    // measured explicit `flush()` calls, never inline in `submit_batch`.
    let ingest_index = GbKmvIndex::build(
        &dataset,
        pinned_engine(budget)
            .threads(threads)
            .shards(16)
            .ingest_batch(1_000_000),
    );
    let ingest_section = measure_ingest(
        &ingest_index,
        &sharded_index,
        &ingest_stream,
        queries,
        threshold,
        reps,
        CheckpointPaths {
            full: std::path::Path::new(&full_out),
            delta: std::path::Path::new(&delta_out),
        },
    );

    let report = ThroughputReport {
        bench: "query_throughput".to_string(),
        dataset: main_section.dataset,
        build,
        batch_shards: sharded_index.sharded().shards().len(),
        posting_memory: main_section.posting_memory,
        persistence,
        concurrent,
        ingest: ingest_section,
        dense_profile: dense_run.section,
        speedup_prefix_vs_scan: qps(&main_section.paths, "prefix_pruned")
            / qps(&main_section.paths, "scan"),
        paths: main_section.paths,
    };

    for (label, dataset, posting_memory, paths) in [
        (
            "main",
            &report.dataset,
            &report.posting_memory,
            &report.paths,
        ),
        (
            "dense",
            &report.dense_profile.dataset,
            &report.dense_profile.posting_memory,
            &report.dense_profile.paths,
        ),
    ] {
        let rows: Vec<Vec<String>> = paths
            .iter()
            .map(|p| {
                vec![
                    p.name.clone(),
                    format!("{:.0}", p.queries_per_sec),
                    format!("{:.1}", p.p50_latency_us),
                    format!("{:.1}", p.p99_latency_us),
                    p.total_hits.to_string(),
                ]
            })
            .collect();
        println!(
            "{label} profile: {} records, {} occurrences, {} queries, α1 = {}, universe {}, \
             {:.0}% budget, t* = {}; posting lists {} bytes",
            dataset.num_records,
            dataset.total_elements,
            dataset.num_queries,
            dataset.alpha_element_freq,
            dataset.universe_size,
            dataset.space_budget_fraction * 100.0,
            dataset.containment_threshold,
            posting_memory.posting_bytes
        );
        println!(
            "{}",
            format_table(&["path", "queries/s", "p50 µs", "p99 µs", "hits"], &rows)
        );
    }
    println!(
        "engine: {:.2}x vs scan ({} shards for batch)",
        report.speedup_prefix_vs_scan, report.batch_shards
    );
    // The other sections print as the JSON the report file records.
    for (name, section) in [
        ("build", serde_json::to_string(&report.build)),
        ("persistence", serde_json::to_string(&report.persistence)),
        ("concurrent", serde_json::to_string(&report.concurrent)),
        ("ingest", serde_json::to_string(&report.ingest)),
    ] {
        println!("{name}: {}", section.expect("a report section serialises"));
    }

    write_json_report(std::path::Path::new(&out), &report).expect("failed to write report");
    println!("wrote {out}");
}
