//! Scale-sweep Pareto harness: the space-vs-throughput trajectory of the
//! query engine across dataset scales (`BENCH_scale_sweep.json`).
//!
//! For each scale on the `--scales` axis (default `1000,100000,1000000`;
//! CI runs only the smallest as its smoke cell) the sweep generates a
//! synthetic Zipf dataset through the streaming generator
//! ([`SyntheticStream`] — records flow straight into the `Dataset` without
//! an intermediate full materialisation, which is what lets the 1M profile
//! build in a small container), then builds and measures one index per
//! engine variant:
//!
//! | variant    | shards |
//! |------------|--------|
//! | `raw`      | 1      |
//! | `sharded4` | 4      |
//!
//! (`raw` keeps the name it had when the sweep also measured a
//! block-compressed posting format.)
//!
//! Every variant is built with the bench lib's [`pinned_engine`] (the
//! sketch-only operating point, `r = 0`) over its [`zipf_profile`] family,
//! so the cells differ only in shard count, never in sketch shape.
//! Each cell records build time, the per-component [`mem_usage`]
//! breakdown, the serialized arena image size, q/s with p50/p99 latency,
//! and the workload hit count — and every variant's hits are asserted
//! bit-identical per query against the scale's first variant before any
//! timing starts (the variants are different *layouts* of one index, so a
//! hit delta is a bug, not a trade-off).
//!
//! Per scale the sweep then computes the space-vs-throughput Pareto
//! frontier over `(mem_total_bytes, queries_per_sec)` with the same
//! [`pareto_frontier`] function `bench_check` re-runs when gating the
//! committed report — producer and gate share one definition of
//! "dominated", so they cannot disagree.
//!
//! [`mem_usage`]: GbKmvIndex::mem_usage
//!
//! Usage: `scale_sweep [--scales N,N,...] [--queries N] [--budget F]
//! [--threshold F] [--threads N] [--reps N] [--out PATH]`

use std::time::Instant;

use serde::Serialize;

use gbkmv_bench::harness::arg_value;
use gbkmv_bench::report::{
    latency_stats, measure, pareto_frontier, parsed_arg, pinned_engine, zipf_profile,
};
use gbkmv_core::dataset::Dataset;
use gbkmv_core::index::{GbKmvIndex, QueryPipeline, SearchHit};
use gbkmv_core::mem::MemUsage;
use gbkmv_datagen::queries::QueryWorkload;
use gbkmv_datagen::synthetic::SyntheticStream;
use gbkmv_eval::report::{format_table, write_json_report};

/// The fixed variant grid: (name, shard count) of each engine
/// configuration measured at every scale.
const VARIANTS: [(&str, usize); 2] = [("raw", 1), ("sharded4", 4)];

/// One (scale × variant) measurement cell.
#[derive(Debug, Serialize)]
struct Cell {
    /// Variant name (the row key `bench_check` gates on).
    variant: String,
    /// Shard count of this cell's index.
    shards: usize,
    /// Wall time of the single measured `GbKmvIndex::build`, seconds.
    build_seconds: f64,
    /// Queries/s of the best timed pass.
    queries_per_sec: f64,
    /// Median per-query latency, microseconds.
    p50_latency_us: f64,
    /// 99th-percentile per-query latency, microseconds.
    p99_latency_us: f64,
    /// Workload hit count — identical across every variant at a scale.
    total_hits: usize,
    /// Posting-list heap bytes, summed over shards.
    posting_bytes: usize,
    /// Per-component memory breakdown of the built index.
    mem: MemUsage,
    /// `mem.total_bytes()` — the frontier's memory axis.
    mem_total_bytes: usize,
    /// Size of the single-file arena image (`to_arena_bytes().len()`).
    arena_bytes: usize,
    /// Whether this cell sits on the scale's Pareto frontier.
    on_frontier: bool,
}

/// A frontier entry: the cells no other cell at the scale dominates,
/// ordered by ascending memory.
#[derive(Debug, Serialize)]
struct FrontierPoint {
    variant: String,
    mem_total_bytes: usize,
    queries_per_sec: f64,
}

/// All cells measured at one dataset scale.
#[derive(Debug, Serialize)]
struct ScaleSection {
    /// Number of records generated at this scale.
    num_records: usize,
    /// Universe size of the synthetic profile at this scale.
    universe_size: usize,
    /// Total element occurrences across the generated records.
    total_elements: usize,
    /// Wall time of the streaming dataset generation, seconds.
    gen_seconds: f64,
    /// Queries sampled from the dataset at this scale.
    num_queries: usize,
    /// One cell per engine variant.
    cells: Vec<Cell>,
    /// The space-vs-throughput Pareto frontier over the cells above,
    /// ascending in memory (recomputed and re-checked by `bench_check`).
    frontier: Vec<FrontierPoint>,
}

#[derive(Debug, Serialize)]
struct SweepReport {
    bench: String,
    space_budget_fraction: f64,
    containment_threshold: f64,
    reps: usize,
    scales: Vec<ScaleSection>,
}

/// Builds, verifies and measures every variant at one scale. The first
/// variant's per-query hits become the reference; every later variant must
/// reproduce them bit-for-bit before its timed passes run. Indexes are
/// dropped as soon as their cell is measured so the peak footprint stays
/// one index, not two.
fn measure_scale(
    num_records: usize,
    num_queries: usize,
    budget: f64,
    threshold: f64,
    threads: usize,
    reps: usize,
) -> ScaleSection {
    // Re-seeded per scale so the scales are independent draws rather than
    // prefixes of each other.
    let config = zipf_profile(num_records, 0xBE7C_4A11 ^ num_records as u64);
    let gen_start = Instant::now();
    let dataset = Dataset::from_records(SyntheticStream::new(config));
    let gen_seconds = gen_start.elapsed().as_secs_f64();
    let workload =
        QueryWorkload::sample_from_dataset(&dataset, num_queries, 0x0051_EED5 ^ num_records as u64);
    let queries = &workload.queries;
    println!(
        "scale {num_records}: {} occurrences generated in {gen_seconds:.2}s, {} queries",
        dataset.total_elements(),
        queries.len()
    );

    let mut reference: Option<Vec<Vec<SearchHit>>> = None;
    let mut cells = Vec::new();
    for (name, shards) in VARIANTS {
        let build_start = Instant::now();
        let index = GbKmvIndex::build(
            &dataset,
            pinned_engine(budget).threads(threads).shards(shards),
        );
        let build_seconds = build_start.elapsed().as_secs_f64();

        // Hit identity across the whole grid, per query, before timing.
        let hits: Vec<Vec<SearchHit>> = queries
            .iter()
            .map(|q| index.search_record(q, threshold))
            .collect();
        match &reference {
            None => reference = Some(hits),
            Some(expected) => {
                for (qi, (got, want)) in hits.iter().zip(expected).enumerate() {
                    assert_eq!(
                        got, want,
                        "variant {name} diverged from the reference variant on query {qi} \
                         at scale {num_records}"
                    );
                }
            }
        }

        let mut pipeline = QueryPipeline::new();
        let (latencies, total_hits) = measure(queries, reps, |q| {
            pipeline
                .search_sorted(&index, q.elements(), threshold)
                .len()
        });
        let stats = latency_stats(latencies);

        let mem = index.mem_usage();
        cells.push(Cell {
            variant: name.to_string(),
            shards,
            build_seconds,
            queries_per_sec: stats.queries_per_sec,
            p50_latency_us: stats.p50_latency_us,
            p99_latency_us: stats.p99_latency_us,
            total_hits,
            posting_bytes: index.posting_bytes(),
            mem,
            mem_total_bytes: mem.total_bytes(),
            arena_bytes: index.to_arena_bytes().len(),
            on_frontier: false,
        });
    }

    let points: Vec<(f64, f64)> = cells
        .iter()
        .map(|c| (c.mem_total_bytes as f64, c.queries_per_sec))
        .collect();
    let frontier_idx = pareto_frontier(&points);
    for &i in &frontier_idx {
        cells[i].on_frontier = true;
    }
    let frontier = frontier_idx
        .iter()
        .map(|&i| FrontierPoint {
            variant: cells[i].variant.clone(),
            mem_total_bytes: cells[i].mem_total_bytes,
            queries_per_sec: cells[i].queries_per_sec,
        })
        .collect();

    ScaleSection {
        num_records,
        universe_size: config.universe_size,
        total_elements: dataset.total_elements(),
        gen_seconds,
        num_queries: queries.len(),
        cells,
        frontier,
    }
}

fn main() {
    let scales: Vec<usize> = arg_value("--scales")
        .unwrap_or_else(|| "1000,100000,1000000".to_string())
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .unwrap_or_else(|_| panic!("invalid scale {s:?} in --scales"))
        })
        .collect();
    assert!(!scales.is_empty(), "--scales must name at least one scale");
    let num_queries: usize = parsed_arg("--queries", 200);
    let budget: f64 = parsed_arg("--budget", 0.10);
    let threshold: f64 = parsed_arg("--threshold", 0.5);
    let threads: usize = parsed_arg("--threads", 0);
    let reps: usize = parsed_arg("--reps", 3);
    let out = arg_value("--out").unwrap_or_else(|| "BENCH_scale_sweep.json".to_string());

    let mut sections = Vec::new();
    for &scale in &scales {
        let section = measure_scale(scale, num_queries, budget, threshold, threads, reps);

        let rows: Vec<Vec<String>> = section
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.variant.clone(),
                    format!("{:.3}", c.build_seconds),
                    c.mem_total_bytes.to_string(),
                    c.arena_bytes.to_string(),
                    format!("{:.0}", c.queries_per_sec),
                    format!("{:.1}", c.p50_latency_us),
                    format!("{:.1}", c.p99_latency_us),
                    c.total_hits.to_string(),
                    if c.on_frontier { "*" } else { "" }.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            format_table(
                &[
                    "variant",
                    "build s",
                    "mem B",
                    "arena B",
                    "queries/s",
                    "p50 µs",
                    "p99 µs",
                    "hits",
                    "front",
                ],
                &rows
            )
        );
        println!(
            "scale {}: frontier = {}",
            section.num_records,
            section
                .frontier
                .iter()
                .map(|f| {
                    format!(
                        "{} ({} B, {:.0} q/s)",
                        f.variant, f.mem_total_bytes, f.queries_per_sec
                    )
                })
                .collect::<Vec<_>>()
                .join(" -> ")
        );
        sections.push(section);
    }

    let report = SweepReport {
        bench: "scale_sweep".to_string(),
        space_budget_fraction: budget,
        containment_threshold: threshold,
        reps,
        scales: sections,
    };
    write_json_report(std::path::Path::new(&out), &report).expect("failed to write report");
    println!("wrote {out}");
}
