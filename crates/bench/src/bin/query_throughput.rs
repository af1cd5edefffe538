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
//! * `single_query_parallel` — `search_parallel` fanning each individual
//!   query's live slot ranges across scoped threads over the sharded index
//!   (on a single-core host this degrades to the sequential engine),
//! * `batch_parallel` — `search_batch` fanning the whole workload across
//!   scoped threads over the sharded index; latency columns report the
//!   amortised per-query time.
//!
//! All paths are asserted to return bit-identical hits while measuring, so
//! the numbers can never drift from a correctness regression silently.
//!
//! A `dense_profile` section repeats `scan` and `prefix_pruned` on a second
//! dataset: a near-uniform element distribution over a small universe, so
//! the hottest signature postings cover most of the slot space and most
//! queries take the prefix filter's prefixed walk. The section records the
//! posting bytes of that index.
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
//! the two speedups at full scale and the structural fields always.
//!
//! Usage: `query_throughput [--records N] [--queries N] [--budget F]
//! [--threshold F] [--threads N] [--shards N] [--reps N] [--readers N]
//! [--ingest N] [--ingest-batches N] [--save PATH] [--load PATH]
//! [--out PATH]`

use std::time::Instant;

use serde::Serialize;

use gbkmv_bench::harness::arg_value;
use gbkmv_bench::report::{latency_stats, measure, parsed_arg, percentile};
use gbkmv_core::dataset::Record;
use gbkmv_core::index::{GbKmvConfig, GbKmvIndex, QueryPipeline, SearchHit};
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

/// The dense-postings companion profile: a near-uniform element
/// distribution (`alpha_element_freq` ≈ 1.01) over a small universe, so
/// frequent signatures land in most records' sketches and their posting
/// lists cover well over half of the slot space. Most of its queries take
/// the prefix filter's prefixed walk, which the sparse default profile
/// above rarely does.
#[derive(Debug, Serialize)]
struct DenseProfileSection {
    dataset: DatasetSection,
    /// Posting-list bytes on the dense data.
    posting_memory: PostingMemorySection,
    /// `scan` reference plus the engine.
    paths: Vec<PathSection>,
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
    /// The dense-postings companion profile.
    dense_profile: DenseProfileSection,
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

fn path_section(name: &str, latencies: Vec<f64>, total_hits: usize) -> PathSection {
    let stats = latency_stats(latencies);
    PathSection {
        name: name.to_string(),
        queries_per_sec: stats.queries_per_sec,
        p50_latency_us: stats.p50_latency_us,
        p99_latency_us: stats.p99_latency_us,
        total_hits,
    }
}

/// Measures the batch path over `reps` timed passes of the whole workload
/// and returns (best pass seconds, per-pass hit count).
fn measure_batch<F>(queries: &[Record], reps: usize, run: F) -> (f64, usize)
where
    F: Fn(&[Record]) -> usize,
{
    let total_hits = run(queries); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let check_hits = run(queries);
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(total_hits, check_hits, "non-deterministic batch path");
        best = best.min(secs);
    }
    (best, total_hits)
}

/// A [`PathSection`] for a batch pass, where only the amortised per-query
/// time is observable (reported in both latency columns).
fn batch_section(name: &str, best_seconds: f64, num_queries: usize, hits: usize) -> PathSection {
    let amortised_us = if num_queries > 0 {
        best_seconds * 1e6 / num_queries as f64
    } else {
        0.0
    };
    PathSection {
        name: name.to_string(),
        queries_per_sec: if best_seconds > 0.0 {
            num_queries as f64 / best_seconds
        } else {
            0.0
        },
        p50_latency_us: amortised_us,
        p99_latency_us: amortised_us,
        total_hits: hits,
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
    let mut save_secs = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        built
            .save(save_path)
            .expect("saving the index arena failed");
        save_secs = save_secs.min(start.elapsed().as_secs_f64());
    }
    let arena_file_bytes = std::fs::metadata(save_path)
        .expect("stat on the written arena failed")
        .len();

    // `open` validates the header and checksum, copies the image once into
    // an aligned arena, and reconstructs every component by borrowing into
    // it — no per-record work, which is what the speedup below records.
    let mut load_secs = f64::INFINITY;
    let mut loaded: Option<GbKmvIndex> = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let reopened = GbKmvIndex::open(load_path).expect("loading the index arena failed");
        load_secs = load_secs.min(start.elapsed().as_secs_f64());
        loaded = Some(reopened);
    }
    let loaded = loaded.expect("at least one load rep");

    let mut rebuild_secs = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        std::hint::black_box(rebuild());
        rebuild_secs = rebuild_secs.min(start.elapsed().as_secs_f64());
    }

    // The loaded index must answer the workload exactly as the built one
    // (under `--load` the built index comes from the same pinned seeds, so
    // the comparison holds across processes too). Run the loaded side
    // through its own pipeline so the scratch figure reflects exactly this
    // workload's steady state.
    let total_hits_built: usize = queries
        .iter()
        .map(|q| built.search_record(q, threshold).len())
        .sum();
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
        load_speedup_vs_rebuild: if load_secs > 0.0 {
            rebuild_secs / load_secs
        } else {
            0.0
        },
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
    for record in ingest_stream {
        direct.insert(record);
    }

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
    let total_hits_service: usize = queries
        .iter()
        .map(|q| snapshot.search_record(q, threshold).len())
        .sum();
    let total_hits_direct: usize = queries
        .iter()
        .map(|q| direct.search_record(q, threshold).len())
        .sum();
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
        reader_queries_per_sec: if elapsed > 0.0 {
            reader_queries_total as f64 / elapsed
        } else {
            0.0
        },
        ingest_records_per_sec: if elapsed > 0.0 {
            ingest_stream.len() as f64 / elapsed
        } else {
            0.0
        },
        total_hits_service,
        total_hits_direct,
    }
}

/// Where the checkpoint comparison writes its two arena files: the full
/// baseline re-saves to `full`, the delta path patches `delta` in place.
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

    // 1-record COW flush: clone is O(shards) `Arc` bumps, the insert
    // copy-on-writes the tail shard only. Each rep submits one record so
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
    let mut deep_secs = f64::INFINITY;
    for _ in 0..flush_reps {
        let start = Instant::now();
        let mut cloned = snapshot.deep_clone();
        cloned.insert(&probe);
        let secs = start.elapsed().as_secs_f64();
        std::hint::black_box(&cloned);
        deep_secs = deep_secs.min(secs);
    }

    // Flush latency and records/s at growing batch sizes (informational —
    // the gated number is the 1-record speedup above).
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
            records_per_sec: if secs > 0.0 {
                batch_size as f64 / secs
            } else {
                0.0
            },
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
    for record in &submitted {
        direct.insert(record);
    }
    let quiesced = service.snapshot();
    let total_hits_service: usize = queries
        .iter()
        .map(|q| quiesced.search_record(q, threshold).len())
        .sum();
    let total_hits_direct: usize = queries
        .iter()
        .map(|q| direct.search_record(q, threshold).len())
        .sum();
    assert_eq!(
        total_hits_service, total_hits_direct,
        "ingest service snapshot diverged from the directly grown index"
    );

    // Delta vs full checkpoint at the serving cadence: grow the
    // `--shards`-way index by one record (dirtying the tail shard only),
    // checkpoint, repeat. The full baseline re-serializes and rewrites the
    // whole arena each round; the delta path re-serializes one shard and
    // patches the file in place, leaving the clean sections untouched on
    // disk.
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
        flush_speedup_vs_deep_clone: if cow_secs > 0.0 {
            deep_secs / cow_secs
        } else {
            0.0
        },
        shared_bytes: pair.shared_bytes,
        checkpoint_shards: checkpoint_index.sharded().shards().len(),
        full_checkpoint_ms: full_secs * 1e3,
        delta_checkpoint_ms: delta_secs * 1e3,
        delta_speedup_vs_full: if delta_secs > 0.0 {
            full_secs / delta_secs
        } else {
            0.0
        },
        delta,
        delta_arena_path: delta_path.display().to_string(),
        total_hits_service,
        total_hits_direct,
    }
}

/// Builds and measures the dense-postings companion profile: near-uniform
/// element frequencies (`α1 = 1.01`) over a 160-element universe with
/// records covering most of it, so the globally smallest signature hashes
/// survive sketching in well over half of all records. Asserts the engine
/// stays bit-identical to the scan reference before timing anything.
fn measure_dense_profile(
    num_records: usize,
    num_queries: usize,
    budget: f64,
    threshold: f64,
    threads: usize,
    reps: usize,
) -> DenseProfileSection {
    let config = SyntheticConfig {
        num_records,
        universe_size: 160,
        alpha_element_freq: 1.01,
        alpha_record_size: 3.0,
        min_record_len: 96,
        max_record_len: 160,
        seed: 0xDE5E_0001,
    };
    let dataset = SyntheticDataset::generate(config).dataset;
    let workload = QueryWorkload::sample_from_dataset(&dataset, num_queries, 0x0DE5_E002);
    let queries = &workload.queries;

    // Same operating point as the main profile (sketch-only, pinned buffer)
    // so the two sections differ only in the data shape.
    let index = GbKmvIndex::build(
        &dataset,
        GbKmvConfig::with_space_fraction(budget)
            .buffer_size(0)
            .threads(threads),
    );
    for (qi, q) in queries.iter().enumerate() {
        assert_eq!(
            index.search_record(q, threshold),
            index.search_scan(q, threshold),
            "dense prefix_pruned diverged from scan on query {qi}"
        );
    }

    let (scan_lat, scan_hits) = measure(queries, reps, |q| index.search_scan(q, threshold).len());
    let mut pipeline = QueryPipeline::new();
    let (prefix_lat, prefix_hits) = measure(queries, reps, |q| {
        pipeline
            .search_sorted(&index, q.elements(), threshold)
            .len()
    });
    assert_eq!(scan_hits, prefix_hits, "dense prefix_pruned diverged");

    DenseProfileSection {
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
        paths: vec![
            path_section("scan", scan_lat, scan_hits),
            path_section("prefix_pruned", prefix_lat, prefix_hits),
        ],
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

    let config = SyntheticConfig {
        num_records,
        universe_size: (num_records * 2).max(1_000),
        alpha_element_freq: 1.1,
        alpha_record_size: 3.0,
        min_record_len: 10,
        max_record_len: 500,
        seed: 0xBE7C_4A11,
    };
    let dataset = SyntheticDataset::generate(config).dataset;
    let workload = QueryWorkload::sample_from_dataset(&dataset, num_queries, 0x0051_EED5);
    println!(
        "dataset: {} records, {} occurrences, {} queries, {:.0}% budget, t* = {}",
        dataset.len(),
        dataset.total_elements(),
        workload.queries.len(),
        budget * 100.0,
        threshold
    );

    // Build: single-thread vs. parallel (the two must agree bit-for-bit,
    // which the core test suite already asserts). An untimed warm-up build
    // runs first so allocator/page-cache warm-up is not recorded as parallel
    // speedup. The timed builds then run in alternating pairs, the order
    // flipping every pair, and the reported speedup is the median of the
    // per-pair ratios: host noise that slows one build cannot move it the
    // way it moved a ratio of two best-of runs (0.75x against a 0.8x floor
    // on one 800-record smoke run, with the build code unchanged).
    //
    // Every index here pins the buffer to the sketch-only operating point
    // (`buffer_size(0)`) rather than letting the cost model pick: this
    // binary tracks query-engine mechanics across PRs, so the measured
    // index shape must not move when the accuracy-side cost model does.
    // (The starvation-floor/dominance fix changed Auto's pick on this
    // deliberately starved 10% Zipf profile from r = 0 to a
    // buffer-dominant r, which empties the sketches and would have
    // silently swapped the workload under the historical entries. Whether
    // Auto picks well is the eval suite's question, not this bench's.)
    let engine_config = || GbKmvConfig::with_space_fraction(budget).buffer_size(0);
    let _warmup = GbKmvIndex::build(&dataset, engine_config());
    let timed_build = |t: usize| {
        let start = Instant::now();
        let built = GbKmvIndex::build(&dataset, engine_config().threads(t));
        (start.elapsed().as_secs_f64(), built)
    };
    let mut pair_speedups = Vec::new();
    let (mut seconds_single, mut seconds_parallel) = (f64::INFINITY, f64::INFINITY);
    let mut index = None;
    for pair in 0..2 * reps.max(1) + 1 {
        let ((single, _), (parallel, built)) = if pair % 2 == 0 {
            let single = timed_build(1);
            (single, timed_build(threads))
        } else {
            let parallel = timed_build(threads);
            (timed_build(1), parallel)
        };
        seconds_single = seconds_single.min(single);
        seconds_parallel = seconds_parallel.min(parallel);
        pair_speedups.push(if parallel > 0.0 {
            single / parallel
        } else {
            0.0
        });
        index = Some(built);
    }
    let index = index.expect("at least one build pair");
    let mut sorted_speedups = pair_speedups.clone();
    sorted_speedups.sort_by(f64::total_cmp);
    let parallel_speedup = percentile(&sorted_speedups, 0.5);
    let sharded_index =
        GbKmvIndex::build(&dataset, engine_config().threads(threads).shards(shards));
    let posting_memory = PostingMemorySection {
        posting_bytes: index.posting_bytes(),
    };

    let queries = &workload.queries;

    // Per-query, bit-identical agreement of every path against the scan
    // reference, checked up front (outside the measured loops) so a path
    // that loses a hit on one query and gains one on another can't slip
    // through a workload-wide total.
    let reference: Vec<Vec<SearchHit>> = queries
        .iter()
        .map(|q| index.search_scan(q, threshold))
        .collect();
    let assert_agrees = |name: &str, f: &dyn Fn(&Record) -> Vec<SearchHit>| {
        for (qi, (q, expected)) in queries.iter().zip(&reference).enumerate() {
            assert_eq!(&f(q), expected, "{name} diverged from scan on query {qi}");
        }
    };
    assert_agrees("prefix_pruned", &|q| index.search_record(q, threshold));
    assert_agrees("sharded_pruned", &|q| {
        sharded_index.search_record(q, threshold)
    });
    assert_agrees("single_query_parallel", &|q| {
        sharded_index.search_parallel(q.elements(), threshold)
    });
    assert_eq!(
        sharded_index.search_batch(queries, threshold),
        reference,
        "batch_parallel diverged from scan"
    );

    let (scan_lat, scan_hits) = measure(queries, reps, |q| index.search_scan(q, threshold).len());
    let mut prefix = QueryPipeline::new();
    let (prefix_lat, prefix_hits) = measure(queries, reps, |q| {
        prefix.search_sorted(&index, q.elements(), threshold).len()
    });
    let mut sharded_pipeline = QueryPipeline::new();
    let (sharded_lat, sharded_hits) = measure(queries, reps, |q| {
        sharded_pipeline
            .search_sorted(&sharded_index, q.elements(), threshold)
            .len()
    });
    let mut parallel_pipeline = QueryPipeline::new();
    let (par_lat, par_hits) = measure(queries, reps, |q| {
        parallel_pipeline
            .search_parallel(&sharded_index, q.elements(), threshold, threads)
            .len()
    });
    let (batch_secs, batch_hits) = measure_batch(queries, reps, |qs| {
        sharded_index
            .search_batch(qs, threshold)
            .iter()
            .map(Vec::len)
            .sum()
    });

    // Persistence: save the engine's index, reopen it zero-copy, and time
    // both against rebuilding it from the records.
    let persistence = measure_persistence(
        &index,
        || GbKmvIndex::build(&dataset, engine_config().threads(threads)),
        queries,
        threshold,
        reps,
        std::path::Path::new(&arena_out),
        std::path::Path::new(&arena_in),
    );

    // Serving layer: readers on snapshots race a publishing writer. The
    // ingest stream is fresh synthetic data from a different seed, so the
    // inserts exercise real posting splices rather than duplicates.
    let ingest_stream: Vec<Record> = SyntheticDataset::generate(SyntheticConfig {
        num_records: ingest.max(1),
        seed: 0x1463_E57A,
        ..config
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
        engine_config()
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

    // The dense-postings companion profile.
    let dense_profile =
        measure_dense_profile(num_records, num_queries, budget, threshold, threads, reps);

    // Belt-and-braces on top of the per-query agreement check above: the
    // measured loops must reproduce the same workload-wide hit count.
    for (name, hits) in [
        ("prefix_pruned", prefix_hits),
        ("sharded_pruned", sharded_hits),
        ("single_query_parallel", par_hits),
        ("batch_parallel", batch_hits),
    ] {
        assert_eq!(scan_hits, hits, "{name} diverged from scan");
    }

    let paths = vec![
        path_section("scan", scan_lat, scan_hits),
        path_section("prefix_pruned", prefix_lat, prefix_hits),
        path_section("sharded_pruned", sharded_lat, sharded_hits),
        path_section("single_query_parallel", par_lat, par_hits),
        batch_section("batch_parallel", batch_secs, queries.len(), batch_hits),
    ];
    let report = ThroughputReport {
        bench: "query_throughput".to_string(),
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
        build: BuildSection {
            seconds_single_thread: seconds_single,
            seconds_parallel,
            parallel_threads: resolve_threads(threads),
            pair_speedups,
            parallel_speedup,
        },
        batch_shards: sharded_index.sharded().shards().len(),
        posting_memory,
        persistence,
        concurrent,
        ingest: ingest_section,
        dense_profile,
        speedup_prefix_vs_scan: qps(&paths, "prefix_pruned") / qps(&paths, "scan"),
        paths,
    };

    let rows: Vec<Vec<String>> = report
        .paths
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
        "{}",
        format_table(&["path", "queries/s", "p50 µs", "p99 µs", "hits"], &rows)
    );
    println!(
        "build: {:.3}s single-thread, {:.3}s on {} threads (median {:.2}x over {} pairs{})",
        report.build.seconds_single_thread,
        report.build.seconds_parallel,
        report.build.parallel_threads,
        report.build.parallel_speedup,
        report.build.pair_speedups.len(),
        // A "speedup" measured on one core is pure scheduler noise and reads
        // like a regression; flag it so nobody chases a 0.98x ghost (the
        // bench_check gate skips its speedup assertion in this case too).
        if report.build.parallel_threads <= 1 {
            "; single core — speedup not meaningful"
        } else {
            ""
        }
    );
    println!(
        "engine: {:.2}x vs scan ({} shards for batch); posting lists {} bytes",
        report.speedup_prefix_vs_scan, report.batch_shards, report.posting_memory.posting_bytes
    );
    let dense = &report.dense_profile;
    let dense_rows: Vec<Vec<String>> = dense
        .paths
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
        "dense profile ({} records, α1 = {}, universe {}):",
        dense.dataset.num_records, dense.dataset.alpha_element_freq, dense.dataset.universe_size
    );
    println!(
        "{}",
        format_table(
            &["path", "queries/s", "p50 µs", "p99 µs", "hits"],
            &dense_rows
        )
    );
    println!(
        "dense posting lists: {} bytes",
        dense.posting_memory.posting_bytes
    );
    let persist = &report.persistence;
    println!(
        "persistence: arena {} bytes at {}; save {:.2} ms, load {:.2} ms, \
         rebuild {:.2} ms ({:.1}x load speedup); loaded hits {} == built hits {}; \
         {} of {} loaded content bytes borrowed zero-copy; query scratch {} bytes",
        persist.arena_file_bytes,
        persist.arena_path,
        persist.save_ms,
        persist.load_ms,
        persist.rebuild_ms,
        persist.load_speedup_vs_rebuild,
        persist.total_hits_loaded,
        persist.total_hits_built,
        persist.mem_loaded.borrowed_bytes,
        persist.mem_loaded.total_bytes(),
        persist.scratch_bytes
    );
    println!(
        "concurrent serving: {} readers served {} queries ({:.0}/s) while the \
         writer published {} generations ({} records in {} batches, {:.0}/s); \
         quiesced hits {} == direct hits {}",
        report.concurrent.readers,
        report.concurrent.reader_queries_total,
        report.concurrent.reader_queries_per_sec,
        report.concurrent.generations_published,
        report.concurrent.ingested_records,
        report.concurrent.writer_batches,
        report.concurrent.ingest_records_per_sec,
        report.concurrent.total_hits_service,
        report.concurrent.total_hits_direct
    );
    let ingest = &report.ingest;
    println!(
        "ingest ({} shards, {} base records): 1-record COW flush {:.3} ms vs \
         {:.3} ms whole-index clone ({:.1}x); snapshot pair shares {} bytes; \
         service hits {} == direct hits {}",
        ingest.ingest_shards,
        ingest.base_records,
        ingest.cow_flush_ms,
        ingest.deep_clone_flush_ms,
        ingest.flush_speedup_vs_deep_clone,
        ingest.shared_bytes,
        ingest.total_hits_service,
        ingest.total_hits_direct
    );
    let batch_cols: Vec<String> = ingest
        .batches
        .iter()
        .map(|b| {
            format!(
                "{} rec {:.3} ms ({:.0}/s)",
                b.batch_size, b.flush_ms, b.records_per_sec
            )
        })
        .collect();
    println!("ingest flush batches: {}", batch_cols.join(", "));
    println!(
        "ingest checkpoint ({} shards, 1 dirty): delta {:.2} ms vs full {:.2} ms \
         ({:.1}x, {} reused / {} rewritten shard sections, fallback {}) at {}",
        ingest.checkpoint_shards,
        ingest.delta_checkpoint_ms,
        ingest.full_checkpoint_ms,
        ingest.delta_speedup_vs_full,
        ingest.delta.reused_shards,
        ingest.delta.rewritten_shards,
        ingest.delta.fallback,
        ingest.delta_arena_path
    );

    write_json_report(std::path::Path::new(&out), &report).expect("failed to write report");
    println!("wrote {out}");
}
