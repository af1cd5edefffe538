//! CI bench-regression gate over `BENCH_query_throughput*.json`.
//!
//! The throughput bench already asserts cross-path *agreement* while it
//! runs; what nothing guarded until now is the report itself — a refactor
//! could silently drop a measured path, or land an "accelerated" path that
//! is slower than the scan it is supposed to beat. This binary re-reads the
//! report (by default the smoke-scale one CI produces) and fails the build
//! unless:
//!
//! * every required path entry is present (the grep in the workflow catches
//!   a renamed key, this catches a *dropped* one),
//! * all paths report the identical `total_hits` (agreement survived into
//!   the serialised record),
//! * every indexed path is at least as fast as the `scan` reference (with a
//!   small tolerance for CI timer noise) — asserted only when the measured
//!   dataset is large enough for indexing to plausibly win
//!   ([`MIN_RECORDS_FOR_SPEED_GATE`]): on the few-hundred-record smoke
//!   workload a warm full scan is near-free and routinely outruns every
//!   filtered path on a fast host, which is physics, not a regression,
//! * the posting-memory section is present with a positive byte count,
//! * the `dense_profile` companion section is present with its `scan` and
//!   `prefix_pruned` entries and identical hits across them,
//! * the `persistence` section is present, the loaded index answered the
//!   workload with exactly the built index's hits
//!   (`total_hits_loaded == total_hits_built`), the written arena and the
//!   zero-copy borrowed accounting are non-trivial, and — at full scale
//!   ([`MIN_RECORDS_FOR_SPEED_GATE`] again) — reopening the arena is at
//!   least [`MIN_LOAD_SPEEDUP`] times faster than rebuilding the index
//!   from records: the point of the single-file format,
//! * the parallel build speedup is sane: the median of the alternating
//!   sequential/parallel build pairs, recomputed here from the pairs and
//!   required to equal the reported one, clears
//!   [`MIN_PARALLEL_BUILD_SPEEDUP`] — asserted only when more than one core
//!   was available, because a single-core "speedup" is scheduler noise (it
//!   reads 0.98x on the CI container and is *not* a regression). A build
//!   under `PARALLEL_BUILD_MIN_RECORDS` records runs on one thread at any
//!   thread count, so the smoke's pairs time the same build twice and read
//!   about 1.0x; the committed 10k-record report times a real fan-out,
//! * the `concurrent` serving-layer section is present, its readers raced
//!   at least one published generation, and the quiesced service answered
//!   the workload with exactly the hits of the directly grown index
//!   (`total_hits_service == total_hits_direct` — snapshot consistency
//!   survived into the serialised record). Reader/writer throughput is
//!   deliberately *not* floored: the CI container is single-core, so the
//!   concurrent numbers only document time-slicing there,
//! * the `ingest` section is present with service hits equal to the
//!   directly grown index's, a positive `shared_bytes` (consecutive COW
//!   generations genuinely share shard storage), and a measured delta
//!   checkpoint that reused at least one clean shard section without
//!   falling back to a full rewrite; at full scale the 1-record COW flush
//!   must beat the pre-COW whole-index clone by
//!   [`MIN_FLUSH_SPEEDUP_VS_CLONE`], a 128-record flush must ingest
//!   [`MIN_FLUSH_BATCH_AMORTISATION`] times the records/s of a 1-record one
//!   (one merge per flush), and the 1-dirty-shard delta checkpoint must beat
//!   the full rewrite by [`MIN_DELTA_CHECKPOINT_SPEEDUP`].
//!
//! The gate also re-reads the scale-sweep report (`--sweep`, by default the
//! smoke-scale one CI produces with `scale_sweep --scales 1000`) and fails
//! unless, at every swept scale:
//!
//! * every required variant cell is present ([`REQUIRED_SWEEP_VARIANTS`]),
//! * all cells report the identical `total_hits` — the variants lay out one
//!   index, so a hit delta is a correctness regression at that scale,
//! * the committed Pareto frontier is non-empty and exactly matches the
//!   frontier recomputed here (with the same shared [`pareto_frontier`]
//!   function the sweep used) over the cells' `(mem_total_bytes,
//!   queries_per_sec)` points — no dominated cell on it, no non-dominated
//!   cell missing from it,
//!
//! and, across scales, that every variant's `mem_total_bytes` grows
//! strictly with the record count — memory monotone in scale, the basic
//! sanity a space-accounting refactor would break first.
//!
//! If a report file does not exist, the corresponding smoke-scale bench is
//! run first via the sibling `query_throughput` / `scale_sweep` binary, so
//! `bench_check` is usable as a one-command local gate too.
//!
//! Usage: `bench_check [--report PATH] [--sweep PATH]`

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use gbkmv_bench::harness::arg_value;
use gbkmv_bench::report::{
    find_named, json_array, json_f64, json_i64, pareto_frontier, percentile,
};
use serde_json::Value;

/// Every path the throughput report must contain. Extending the bench with
/// a new path means extending this list — that is the point: the gate, not
/// just the bench, documents the measured surface.
const REQUIRED_PATHS: [&str; 4] = ["scan", "prefix_pruned", "sharded_pruned", "batch_parallel"];

/// Entries the `dense_profile` companion section must contain: the scan
/// reference plus the engine.
const DENSE_REQUIRED_PATHS: [&str; 2] = ["scan", "prefix_pruned"];

/// Every engine variant the scale-sweep report must measure at every
/// scale. Extending the sweep grid means extending this list.
const REQUIRED_SWEEP_VARIANTS: [&str; 2] = ["raw", "sharded4"];

/// Multiplicative slack on the "indexed ≥ scan" comparison: CI runners
/// time-share, and the smoke workload is microseconds per query, so a hard
/// equality would flake. 10% is far below any real regression this gate
/// exists to catch (the slowest indexed path is ~3x scan).
const NOISE_TOLERANCE: f64 = 0.90;

/// Smallest dataset (records) on which the "indexed ≥ scan" comparison is
/// asserted. Below this, a warm linear scan is microseconds per query and
/// beats every filtered path on a fast machine — the committed full-scale
/// report (10k records) is where the comparison is load-bearing. A report
/// without a dataset section is treated as full-scale (assert).
const MIN_RECORDS_FOR_SPEED_GATE: i64 = 5_000;

/// Minimum acceptable parallel build speedup (the median over the build
/// pairs) when more than one core is available. Deliberately lenient — it
/// catches "parallel build became serial", not scheduling jitter.
const MIN_PARALLEL_BUILD_SPEEDUP: f64 = 0.8;

/// Minimum acceptable `rebuild_ms / load_ms` ratio of the persistence
/// section at full scale. Reopening the single-file arena is one
/// validate-and-copy pass over the image with zero per-record work; on the
/// committed full-scale report it runs orders of magnitude faster than
/// re-sketching 10k records, so 5x is a regression floor, not a target.
/// Below [`MIN_RECORDS_FOR_SPEED_GATE`] the gate is skipped: a few-hundred
///-record rebuild is itself sub-millisecond and the ratio of two timer-
/// noise-scale numbers proves nothing.
const MIN_LOAD_SPEEDUP: f64 = 5.0;

/// Minimum acceptable `deep_clone_flush_ms / cow_flush_ms` ratio of the
/// ingest section at full scale: publishing a 1-record generation on the
/// 16-shard ingest index must beat the pre-COW whole-index-clone baseline
/// (measured in the same run) by at least this much, or copy-on-write
/// publication has regressed back toward O(index) flushes. The committed
/// full-scale report holds well above this.
const MIN_FLUSH_SPEEDUP_VS_CLONE: f64 = 5.0;

/// Minimum acceptable ratio of the ingest section's `records_per_sec` at a
/// 128-record flush over a 1-record flush, at full scale. A flush merges its
/// whole batch into the tail shard once, so records/s grows almost with the
/// batch size; splicing record by record, as earlier builds did, read 7.8x
/// (42,195 over 5,416 records/s).
const MIN_FLUSH_BATCH_AMORTISATION: f64 = 20.0;

/// Minimum acceptable `full_checkpoint_ms / delta_checkpoint_ms` ratio at
/// full scale: a delta checkpoint of an index with 1 dirty shard out of
/// `--shards` must beat the full arena rewrite of the same state by at
/// least this much — the point of copying clean sections byte-for-byte
/// instead of re-serializing them. Skipped at smoke scale, where reading
/// the previous image back dominates both sides of a sub-millisecond
/// ratio.
const MIN_DELTA_CHECKPOINT_SPEEDUP: f64 = 2.0;

/// Runs the smoke-scale throughput bench via the sibling binary, writing
/// its report to `report`.
fn run_smoke_bench(report: &Path) -> Result<(), String> {
    let sibling = std::env::current_exe()
        .map_err(|e| format!("cannot locate current executable: {e}"))?
        .with_file_name("query_throughput");
    if !sibling.exists() {
        return Err(format!(
            "report {} does not exist and sibling bench binary {} was not found \
             (build with `cargo build --release -p gbkmv-bench`)",
            report.display(),
            sibling.display()
        ));
    }
    eprintln!(
        "bench_check: {} missing — running smoke bench via {}",
        report.display(),
        sibling.display()
    );
    let status = Command::new(&sibling)
        .args([
            "--records",
            "800",
            "--queries",
            "30",
            "--shards",
            "3",
            "--out",
        ])
        .arg(report)
        .status()
        .map_err(|e| format!("failed to spawn {}: {e}", sibling.display()))?;
    if !status.success() {
        return Err(format!("smoke bench exited with {status}"));
    }
    Ok(())
}

/// Runs the smoke-scale sweep (the smallest scale only) via the sibling
/// `scale_sweep` binary, writing its report to `report`.
fn run_smoke_sweep(report: &Path) -> Result<(), String> {
    let sibling = std::env::current_exe()
        .map_err(|e| format!("cannot locate current executable: {e}"))?
        .with_file_name("scale_sweep");
    if !sibling.exists() {
        return Err(format!(
            "sweep report {} does not exist and sibling bench binary {} was not found \
             (build with `cargo build --release -p gbkmv-bench`)",
            report.display(),
            sibling.display()
        ));
    }
    eprintln!(
        "bench_check: {} missing — running smoke sweep via {}",
        report.display(),
        sibling.display()
    );
    let status = Command::new(&sibling)
        .args([
            "--scales",
            "1000",
            "--queries",
            "50",
            "--reps",
            "2",
            "--out",
        ])
        .arg(report)
        .status()
        .map_err(|e| format!("failed to spawn {}: {e}", sibling.display()))?;
    if !status.success() {
        return Err(format!("smoke sweep exited with {status}"));
    }
    Ok(())
}

fn check(report_path: &Path) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(report_path)
        .map_err(|e| format!("cannot read {}: {e}", report_path.display()))?;
    let report = serde_json::from_str(&text)
        .map_err(|e| format!("cannot parse {}: {e}", report_path.display()))?;
    let mut summary = Vec::new();

    let paths = json_array(&report, "report", "paths")?;
    let lookup = |name: &str| find_named(paths, "name", name);

    // 1. Required entries.
    for name in REQUIRED_PATHS {
        if lookup(name).is_none() {
            return Err(format!("required path entry `{name}` is missing"));
        }
    }
    summary.push(format!(
        "all {} required paths present",
        REQUIRED_PATHS.len()
    ));

    // 2. Identical total_hits across every path (not just the required
    // ones): a path that loses answers is a correctness regression no
    // matter how fast it got.
    let mut hits: Option<(i64, String)> = None;
    for path in paths {
        let name = path
            .get("name")
            .and_then(Value::as_str)
            .ok_or("path entry without a name")?;
        let h = json_i64(path, &format!("path `{name}`"), "total_hits")?;
        match &hits {
            None => hits = Some((h, name.to_string())),
            Some((expected, first)) if *expected != h => {
                return Err(format!(
                    "total_hits disagree: `{first}` reports {expected}, `{name}` reports {h}"
                ));
            }
            Some(_) => {}
        }
    }
    if let Some((h, _)) = hits {
        summary.push(format!("total_hits identical across paths ({h})"));
    }

    // 3. Every indexed path at least as fast as the scan reference — on
    // workloads big enough for indexing to win at all.
    let qps = |name: &str| -> Result<f64, String> {
        json_f64(
            lookup(name).ok_or_else(|| format!("no path named `{name}`"))?,
            &format!("path `{name}`"),
            "queries_per_sec",
        )
    };
    let scan_qps = qps("scan")?;
    if scan_qps <= 0.0 {
        return Err(format!("scan queries_per_sec is not positive ({scan_qps})"));
    }
    let num_records = report
        .get("dataset")
        .and_then(|d| d.get("num_records"))
        .and_then(Value::as_i64)
        .unwrap_or(i64::MAX);
    if num_records >= MIN_RECORDS_FOR_SPEED_GATE {
        for name in REQUIRED_PATHS.iter().filter(|&&n| n != "scan") {
            let path_qps = qps(name)?;
            if path_qps < scan_qps * NOISE_TOLERANCE {
                return Err(format!(
                    "indexed path `{name}` is slower than the scan reference: \
                     {path_qps:.0} q/s vs {scan_qps:.0} q/s (tolerance {NOISE_TOLERANCE})"
                ));
            }
        }
        summary.push(format!(
            "all indexed paths ≥ scan ({scan_qps:.0} q/s, tolerance {NOISE_TOLERANCE})"
        ));
    } else {
        summary.push(format!(
            "throughput comparisons skipped ({num_records} records is below the \
             {MIN_RECORDS_FOR_SPEED_GATE}-record floor where they are meaningful)"
        ));
    }

    // 4. Posting-memory accounting: present and positive.
    let memory = report
        .get("posting_memory")
        .ok_or("report has no `posting_memory` section")?;
    let posting_bytes = json_i64(memory, "posting_memory", "posting_bytes")?;
    if posting_bytes <= 0 {
        return Err(format!(
            "posting byte count must be positive ({posting_bytes})"
        ));
    }
    summary.push(format!("posting lists {posting_bytes} bytes"));

    // 5. The dense-postings companion profile: entries present and
    // identical hits within the section.
    let dense = report
        .get("dense_profile")
        .ok_or("report has no `dense_profile` section")?;
    let dense_paths = json_array(dense, "dense_profile", "paths")?;
    for name in DENSE_REQUIRED_PATHS {
        if find_named(dense_paths, "name", name).is_none() {
            return Err(format!("dense_profile path entry `{name}` is missing"));
        }
    }
    let mut dense_hits: Option<i64> = None;
    for path in dense_paths {
        let name = path
            .get("name")
            .and_then(Value::as_str)
            .ok_or("dense_profile path entry without a name")?;
        let h = json_i64(path, &format!("dense_profile path `{name}`"), "total_hits")?;
        match dense_hits {
            None => dense_hits = Some(h),
            Some(expected) if expected != h => {
                return Err(format!(
                    "dense_profile total_hits disagree: {expected} vs `{name}`'s {h}"
                ));
            }
            Some(_) => {}
        }
    }
    summary.push(format!(
        "dense profile: identical total_hits ({})",
        dense_hits.unwrap_or(0)
    ));

    // 6. Persistence: the loaded index answered identically, the arena file
    // and the zero-copy accounting are non-trivial, and at full scale the
    // load beats the rebuild by the floor.
    let persistence = report
        .get("persistence")
        .ok_or("report has no `persistence` section")?;
    let persist_int = |key: &str| json_i64(persistence, "persistence section", key);
    let hits_built = persist_int("total_hits_built")?;
    let hits_loaded = persist_int("total_hits_loaded")?;
    if hits_loaded != hits_built {
        return Err(format!(
            "persistence diverged: loaded index answered {hits_loaded} hits, \
             the built index {hits_built}"
        ));
    }
    let arena_bytes = persist_int("arena_file_bytes")?;
    if arena_bytes <= 0 {
        return Err(format!(
            "persistence arena_file_bytes must be positive ({arena_bytes})"
        ));
    }
    let borrowed = persistence
        .get("mem_loaded")
        .and_then(|m| m.get("borrowed_bytes"))
        .and_then(Value::as_i64)
        .ok_or("persistence mem_loaded has no integral `borrowed_bytes`")?;
    if borrowed <= 0 {
        return Err(format!(
            "loaded index borrowed {borrowed} bytes — the arena load is not zero-copy"
        ));
    }
    let load_speedup = persistence
        .get("load_speedup_vs_rebuild")
        .and_then(Value::as_f64)
        .ok_or("persistence section has no `load_speedup_vs_rebuild`")?;
    if num_records >= MIN_RECORDS_FOR_SPEED_GATE {
        if load_speedup < MIN_LOAD_SPEEDUP {
            return Err(format!(
                "arena load is only {load_speedup:.1}x faster than a rebuild, below \
                 the {MIN_LOAD_SPEEDUP}x floor — the zero-copy load path has regressed"
            ));
        }
        summary.push(format!(
            "persistence: {arena_bytes}-byte arena, load {load_speedup:.1}x faster than \
             rebuild (floor {MIN_LOAD_SPEEDUP}x), loaded hits == built hits ({hits_built}), \
             {borrowed} bytes borrowed zero-copy"
        ));
    } else {
        summary.push(format!(
            "persistence: {arena_bytes}-byte arena, loaded hits == built hits \
             ({hits_built}), {borrowed} bytes borrowed zero-copy (speedup gate skipped \
             at {num_records} records; measured {load_speedup:.1}x)"
        ));
    }

    // 7. The concurrent serving-layer section: the readers must have raced
    // genuine republications, and the quiesced service must agree with the
    // directly grown index hit for hit.
    let concurrent = report
        .get("concurrent")
        .ok_or("report has no `concurrent` serving-layer section")?;
    let concurrent_int = |key: &str| json_i64(concurrent, "concurrent section", key);
    let readers = concurrent_int("readers")?;
    let generations = concurrent_int("generations_published")?;
    if readers < 1 || generations < 1 {
        return Err(format!(
            "concurrent section must record at least one reader racing one \
             published generation (readers {readers}, generations {generations})"
        ));
    }
    let service_hits = concurrent_int("total_hits_service")?;
    let direct_hits = concurrent_int("total_hits_direct")?;
    if service_hits != direct_hits {
        return Err(format!(
            "serving layer diverged: service snapshot answered {service_hits} hits, \
             the directly grown index {direct_hits}"
        ));
    }
    summary.push(format!(
        "serving layer: {readers} readers over {generations} published generations, \
         service hits == direct hits ({service_hits})"
    ));

    // 8. The ingest section: structural gates at every scale (service hit
    // identity, genuine `Arc` sharing across the snapshot pair, a delta
    // checkpoint that reused sections without falling back), plus the two
    // speedup floors at full scale.
    let ingest = report
        .get("ingest")
        .ok_or("report has no `ingest` section")?;
    let ingest_int = |key: &str| json_i64(ingest, "ingest section", key);
    let ingest_service = ingest_int("total_hits_service")?;
    let ingest_direct = ingest_int("total_hits_direct")?;
    if ingest_service != ingest_direct {
        return Err(format!(
            "ingest service diverged: the quiesced snapshot answered {ingest_service} hits, \
             the directly grown index {ingest_direct}"
        ));
    }
    let shared_bytes = ingest_int("shared_bytes")?;
    if shared_bytes <= 0 {
        return Err(format!(
            "consecutive COW generations share {shared_bytes} bytes — copy-on-write \
             publication has regressed into full copies"
        ));
    }
    let delta = ingest
        .get("delta")
        .ok_or("ingest section has no `delta` checkpoint stats")?;
    let fallback = delta
        .get("fallback")
        .and_then(Value::as_bool)
        .ok_or("ingest delta stats have no boolean `fallback`")?;
    if fallback {
        return Err(
            "the measured delta checkpoint fell back to a full rewrite — section reuse \
             never engaged"
                .to_string(),
        );
    }
    let reused = json_i64(delta, "ingest delta stats", "reused_shards")?;
    if reused < 1 {
        return Err(format!(
            "the delta checkpoint reused {reused} clean shard sections — dirty-shard \
             tracking has regressed"
        ));
    }
    let flush_speedup = ingest
        .get("flush_speedup_vs_deep_clone")
        .and_then(Value::as_f64)
        .ok_or("ingest section has no `flush_speedup_vs_deep_clone`")?;
    let delta_speedup = ingest
        .get("delta_speedup_vs_full")
        .and_then(Value::as_f64)
        .ok_or("ingest section has no `delta_speedup_vs_full`")?;
    let batches = json_array(ingest, "ingest section", "batches")?;
    let rate_at = |size: i64| {
        batches
            .iter()
            .find(|b| b.get("batch_size").and_then(Value::as_i64) == Some(size))
            .ok_or_else(|| format!("ingest section has no {size}-record flush batch"))
            .and_then(|b| json_f64(b, "ingest flush batch", "records_per_sec"))
    };
    let (rate_1, rate_128) = (rate_at(1)?, rate_at(128)?);
    let amortisation = if rate_1 > 0.0 { rate_128 / rate_1 } else { 0.0 };
    if num_records >= MIN_RECORDS_FOR_SPEED_GATE {
        if amortisation < MIN_FLUSH_BATCH_AMORTISATION {
            return Err(format!(
                "a 128-record flush ingests only {amortisation:.1}x the records/s of a \
                 1-record flush, below the {MIN_FLUSH_BATCH_AMORTISATION}x floor — the \
                 flush no longer merges its batch once"
            ));
        }
        if flush_speedup < MIN_FLUSH_SPEEDUP_VS_CLONE {
            return Err(format!(
                "a 1-record COW flush is only {flush_speedup:.1}x faster than the pre-COW \
                 whole-index clone, below the {MIN_FLUSH_SPEEDUP_VS_CLONE}x floor — \
                 O(dirty) ingest has regressed"
            ));
        }
        if delta_speedup < MIN_DELTA_CHECKPOINT_SPEEDUP {
            return Err(format!(
                "a 1-dirty-shard delta checkpoint is only {delta_speedup:.1}x faster than \
                 the full arena rewrite, below the {MIN_DELTA_CHECKPOINT_SPEEDUP}x floor — \
                 clean-section reuse has regressed"
            ));
        }
        summary.push(format!(
            "ingest: COW flush {flush_speedup:.1}x vs whole-index clone (floor \
             {MIN_FLUSH_SPEEDUP_VS_CLONE}x), 128-record flush {amortisation:.1}x the \
             records/s of a 1-record one (floor {MIN_FLUSH_BATCH_AMORTISATION}x), delta \
             checkpoint {delta_speedup:.1}x vs full (floor {MIN_DELTA_CHECKPOINT_SPEEDUP}x, \
             {reused} sections reused), {shared_bytes} bytes shared, service hits == \
             direct hits ({ingest_service})"
        ));
    } else {
        summary.push(format!(
            "ingest: {reused} delta sections reused, {shared_bytes} bytes shared, service \
             hits == direct hits ({ingest_service}) (speedup gates skipped at \
             {num_records} records; measured flush {flush_speedup:.1}x, batch \
             {amortisation:.1}x, delta {delta_speedup:.1}x)"
        ));
    }

    // 9. Parallel build speedup — only meaningful with real parallelism.
    // The gated figure is the median of the alternating build pairs,
    // recomputed here so a report cannot gate on a figure its pairs do not
    // support.
    let build = report.get("build").ok_or("report has no `build` section")?;
    let threads = build
        .get("parallel_threads")
        .and_then(Value::as_i64)
        .ok_or("build section has no parallel_threads")?;
    let speedup = build
        .get("parallel_speedup")
        .and_then(Value::as_f64)
        .ok_or("build section has no parallel_speedup")?;
    let mut pairs = json_array(build, "build section", "pair_speedups")?
        .iter()
        .map(|v| v.as_f64().ok_or("build pair_speedups holds a non-number"))
        .collect::<Result<Vec<f64>, _>>()?;
    if pairs.is_empty() {
        return Err("build section has no build pairs".to_string());
    }
    pairs.sort_by(f64::total_cmp);
    let median = percentile(&pairs, 0.5);
    if (median - speedup).abs() > 1e-9 * median.abs().max(1.0) {
        return Err(format!(
            "build parallel_speedup {speedup:.3}x is not the median {median:.3}x of its \
             {} pairs",
            pairs.len()
        ));
    }
    if threads > 1 {
        if speedup < MIN_PARALLEL_BUILD_SPEEDUP {
            return Err(format!(
                "parallel build speedup {speedup:.2}x (median of {} pairs) on {threads} \
                 threads is below the {MIN_PARALLEL_BUILD_SPEEDUP}x floor",
                pairs.len()
            ));
        }
        summary.push(format!(
            "parallel build speedup {speedup:.2}x (median of {} pairs) on {threads} threads",
            pairs.len()
        ));
    } else {
        summary.push(format!(
            "parallel build speedup assertion skipped (single core; measured \
             {speedup:.2}x is scheduler noise, not a regression)"
        ));
    }

    Ok(summary)
}

/// Gates the scale-sweep report: required cells, identical hits per scale,
/// a committed frontier that exactly
/// matches the recomputed one, and memory monotone in scale per variant.
fn check_sweep(sweep_path: &Path) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(sweep_path)
        .map_err(|e| format!("cannot read {}: {e}", sweep_path.display()))?;
    let report = serde_json::from_str(&text)
        .map_err(|e| format!("cannot parse {}: {e}", sweep_path.display()))?;
    let mut summary = Vec::new();

    let scales = json_array(&report, "sweep report", "scales")?;
    if scales.is_empty() {
        return Err("sweep report has an empty `scales` array".to_string());
    }

    // Per-variant (num_records, mem_total_bytes) trail for the cross-scale
    // monotonicity gate below.
    let mut mem_trail: HashMap<String, Vec<(i64, i64)>> = HashMap::new();

    for scale in scales {
        let records = json_i64(scale, "sweep scale entry", "num_records")?;
        let ctx = format!("sweep scale {records}");
        let cells = json_array(scale, &ctx, "cells")?;

        // 1. Required variant cells.
        for name in REQUIRED_SWEEP_VARIANTS {
            if find_named(cells, "variant", name).is_none() {
                return Err(format!("{ctx}: required cell `{name}` is missing"));
            }
        }

        // 2. Identical total_hits across every cell: the variants are
        // different encodings of one index at this scale.
        let mut hits: Option<(i64, String)> = None;
        for cell in cells {
            let name = cell
                .get("variant")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("{ctx}: cell without a variant name"))?;
            let h = json_i64(cell, &format!("{ctx} cell `{name}`"), "total_hits")?;
            match &hits {
                None => hits = Some((h, name.to_string())),
                Some((expected, first)) if *expected != h => {
                    return Err(format!(
                        "{ctx}: total_hits disagree: `{first}` reports {expected}, \
                         `{name}` reports {h}"
                    ));
                }
                Some(_) => {}
            }
            let mem = json_i64(cell, &format!("{ctx} cell `{name}`"), "mem_total_bytes")?;
            mem_trail
                .entry(name.to_string())
                .or_default()
                .push((records, mem));
        }
        let scale_hits = hits.map(|(h, _)| h).unwrap_or(0);

        // 3. The committed frontier must be non-empty and exactly the one
        // this gate recomputes with the shared `pareto_frontier` over the
        // cells' (memory, throughput) points.
        let points: Vec<(f64, f64)> = cells
            .iter()
            .map(|cell| {
                let name = cell.get("variant").and_then(Value::as_str).unwrap_or("?");
                let cell_ctx = format!("{ctx} cell `{name}`");
                Ok((
                    json_i64(cell, &cell_ctx, "mem_total_bytes")? as f64,
                    json_f64(cell, &cell_ctx, "queries_per_sec")?,
                ))
            })
            .collect::<Result<_, String>>()?;
        let recomputed: Vec<&str> = pareto_frontier(&points)
            .iter()
            .map(|&i| {
                cells[i]
                    .get("variant")
                    .and_then(Value::as_str)
                    .unwrap_or("?")
            })
            .collect();
        let stored: Vec<&str> = json_array(scale, &ctx, "frontier")?
            .iter()
            .map(|f| {
                f.get("variant")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("{ctx}: frontier entry without a variant name"))
            })
            .collect::<Result<_, String>>()?;
        if stored.is_empty() {
            return Err(format!("{ctx}: the committed Pareto frontier is empty"));
        }
        if stored != recomputed {
            return Err(format!(
                "{ctx}: committed frontier [{}] disagrees with the recomputed frontier [{}] \
                 — a dominated cell sits on it or a non-dominated cell is missing",
                stored.join(", "),
                recomputed.join(", ")
            ));
        }

        summary.push(format!(
            "scale {records}: {} cells, identical total_hits ({scale_hits}), frontier [{}]",
            cells.len(),
            stored.join(", ")
        ));
    }

    // 4. Memory monotone in scale, per variant: more records must never
    // cost less index memory — the first casualty of a broken accounting
    // or a sweep that silently reused a dataset across scales.
    if scales.len() > 1 {
        for name in REQUIRED_SWEEP_VARIANTS {
            let mut trail = mem_trail.remove(name).unwrap_or_default();
            trail.sort_by_key(|&(records, _)| records);
            for pair in trail.windows(2) {
                let ((r1, m1), (r2, m2)) = (pair[0], pair[1]);
                if m2 <= m1 {
                    return Err(format!(
                        "sweep memory is not monotone in scale: variant `{name}` reports \
                         {m2} bytes at {r2} records but {m1} bytes at {r1} records"
                    ));
                }
            }
        }
        summary.push(format!(
            "memory strictly monotone in scale across {} scales for every variant",
            scales.len()
        ));
    } else {
        summary.push("memory monotonicity skipped (single swept scale)".to_string());
    }

    Ok(summary)
}

fn main() {
    let report = PathBuf::from(
        arg_value("--report")
            .unwrap_or_else(|| "target/BENCH_query_throughput.smoke.json".to_string()),
    );
    let sweep = PathBuf::from(
        arg_value("--sweep").unwrap_or_else(|| "target/BENCH_scale_sweep.smoke.json".to_string()),
    );
    if !report.exists() {
        if let Err(message) = run_smoke_bench(&report) {
            eprintln!("bench_check: FAIL: {message}");
            std::process::exit(1);
        }
    }
    if !sweep.exists() {
        if let Err(message) = run_smoke_sweep(&sweep) {
            eprintln!("bench_check: FAIL: {message}");
            std::process::exit(1);
        }
    }
    for (label, path, result) in [
        ("throughput", &report, check(&report)),
        ("sweep", &sweep, check_sweep(&sweep)),
    ] {
        match result {
            Ok(summary) => {
                println!("bench_check: PASS {label} ({})", path.display());
                for line in summary {
                    println!("  - {line}");
                }
            }
            Err(message) => {
                eprintln!("bench_check: FAIL {label} ({}): {message}", path.display());
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal well-formed report with the given per-path (name, qps,
    /// hits) triples, build pair speedups (the reported speedup is their
    /// median) and posting byte count.
    fn report_json_with_memory(
        paths: &[(&str, f64, i64)],
        threads: i64,
        pairs: &[f64],
        posting_bytes: i64,
    ) -> String {
        let entries: Vec<String> = paths
            .iter()
            .map(|(name, qps, hits)| {
                format!(
                    "{{\"name\": \"{name}\", \"queries_per_sec\": {qps}, \
                     \"p50_latency_us\": 1.0, \"p99_latency_us\": 2.0, \
                     \"total_hits\": {hits}}}"
                )
            })
            .collect();
        let mut sorted = pairs.to_vec();
        sorted.sort_by(f64::total_cmp);
        let pair_list: Vec<String> = pairs.iter().map(f64::to_string).collect();
        format!(
            "{{\"bench\": \"query_throughput\", \"build\": {{\"parallel_threads\": {threads}, \
             \"pair_speedups\": [{}], \"parallel_speedup\": {}}}, \"posting_memory\": \
             {{\"posting_bytes\": {posting_bytes}}}, \"persistence\": {}, \"concurrent\": {}, \
             \"ingest\": {}, \"dense_profile\": {}, \"paths\": [{}]}}",
            pair_list.join(", "),
            percentile(&sorted, 0.5),
            persistence_json(42, 42, 25.0, 5_000),
            concurrent_json(2, 4, 42, 42),
            ingest_json(12.0, 3.0, 3, false, 40_000, 42, 42),
            dense_json(42),
            entries.join(", ")
        )
    }

    /// A `persistence` section with the given built/loaded hit counts,
    /// load-vs-rebuild speedup and borrowed-byte total.
    fn persistence_json(built: i64, loaded: i64, speedup: f64, borrowed: i64) -> String {
        format!(
            "{{\"arena_path\": \"x.arena\", \"loaded_from\": \"x.arena\", \
             \"arena_file_bytes\": 65536, \"save_ms\": 1.0, \"load_ms\": 0.2, \
             \"rebuild_ms\": 5.0, \"load_speedup_vs_rebuild\": {speedup}, \
             \"total_hits_built\": {built}, \"total_hits_loaded\": {loaded}, \
             \"mem_built\": {{\"borrowed_bytes\": 0}}, \
             \"mem_loaded\": {{\"borrowed_bytes\": {borrowed}}}, \
             \"scratch_bytes\": 4096}}"
        )
    }

    /// A healthy report with the persistence section replaced (or dropped,
    /// when `persistence` is `None`).
    fn report_with_persistence(persistence: Option<String>) -> String {
        let healthy = report_json(&full_paths(100.0, 500.0, 42), 1, 1.0);
        let default = persistence_json(42, 42, 25.0, 5_000);
        match persistence {
            Some(section) => healthy.replace(&default, &section),
            None => healthy.replace(&format!("\"persistence\": {default}, "), ""),
        }
    }

    /// A `dense_profile` section whose engine reports `hits` (the scan
    /// reports 42).
    fn dense_json(hits: i64) -> String {
        format!(
            "{{\"dataset\": {{\"num_records\": 10000}}, \"posting_memory\": \
             {{\"posting_bytes\": 10000}}, \"paths\": [{{\"name\": \"scan\", \
             \"queries_per_sec\": 50.0, \"total_hits\": 42}}, {{\"name\": \
             \"prefix_pruned\", \"queries_per_sec\": 500.0, \"total_hits\": {hits}}}]}}"
        )
    }

    /// A healthy report with the dense section replaced (or dropped, when
    /// `dense` is `None`).
    fn report_with_dense(dense: Option<String>) -> String {
        let healthy = report_json(&full_paths(100.0, 500.0, 42), 1, 1.0);
        let default = dense_json(42);
        match dense {
            Some(section) => healthy.replace(&default, &section),
            None => healthy.replace(&format!("\"dense_profile\": {default}, "), ""),
        }
    }

    /// An `ingest` section with the given COW-flush and delta-checkpoint
    /// speedups, delta reuse/fallback stats, shared-byte total and
    /// service/direct hit counts.
    #[allow(clippy::too_many_arguments)]
    fn ingest_json(
        flush_speedup: f64,
        delta_speedup: f64,
        reused: i64,
        fallback: bool,
        shared: i64,
        service: i64,
        direct: i64,
    ) -> String {
        format!(
            "{{\"ingest_shards\": 16, \"base_records\": 10000, \"batches\": \
             [{{\"batch_size\": 1, \"flush_ms\": 0.1, \"records_per_sec\": 10000.0}}, \
             {{\"batch_size\": 128, \"flush_ms\": 0.2, \"records_per_sec\": 640000.0}}], \
             \"cow_flush_ms\": 0.1, \"deep_clone_flush_ms\": 1.2, \
             \"flush_speedup_vs_deep_clone\": {flush_speedup}, \"shared_bytes\": {shared}, \
             \"checkpoint_shards\": 4, \"full_checkpoint_ms\": 3.0, \
             \"delta_checkpoint_ms\": 1.0, \"delta_speedup_vs_full\": {delta_speedup}, \
             \"delta\": {{\"reused_shards\": {reused}, \"rewritten_shards\": 1, \
             \"fallback\": {fallback}}}, \"delta_arena_path\": \"x.delta.arena\", \
             \"total_hits_service\": {service}, \"total_hits_direct\": {direct}}}"
        )
    }

    /// A healthy report with the ingest section replaced (or dropped, when
    /// `ingest` is `None`).
    fn report_with_ingest(ingest: Option<String>) -> String {
        let healthy = report_json(&full_paths(100.0, 500.0, 42), 1, 1.0);
        let default = ingest_json(12.0, 3.0, 3, false, 40_000, 42, 42);
        match ingest {
            Some(section) => healthy.replace(&default, &section),
            None => healthy.replace(&format!("\"ingest\": {default}, "), ""),
        }
    }

    fn concurrent_json(readers: i64, generations: i64, service: i64, direct: i64) -> String {
        format!(
            "{{\"readers\": {readers}, \"ingested_records\": 100, \
             \"writer_batches\": {generations}, \"generations_published\": {generations}, \
             \"reader_queries_total\": 500, \"reader_queries_per_sec\": 1000.0, \
             \"ingest_records_per_sec\": 200.0, \"total_hits_service\": {service}, \
             \"total_hits_direct\": {direct}}}"
        )
    }

    fn report_json(paths: &[(&str, f64, i64)], threads: i64, speedup: f64) -> String {
        report_json_with_memory(paths, threads, &[speedup], 10_000)
    }

    /// A healthy report with the concurrent section replaced (or dropped,
    /// when `concurrent` is `None`).
    fn report_with_concurrent(concurrent: Option<String>) -> String {
        let healthy = report_json(&full_paths(100.0, 500.0, 42), 1, 1.0);
        match concurrent {
            Some(section) => healthy.replace(&concurrent_json(2, 4, 42, 42), &section),
            None => healthy.replace(
                &format!("\"concurrent\": {}, ", concurrent_json(2, 4, 42, 42)),
                "",
            ),
        }
    }

    fn write_report(content: &str) -> PathBuf {
        // Tests run concurrently in one process: a per-call counter keeps
        // the temp paths unique even for equal-length report bodies.
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("bench_check_test_{}_{n}.json", std::process::id()));
        std::fs::write(&path, content).unwrap();
        path
    }

    fn full_paths(scan_qps: f64, indexed_qps: f64, hits: i64) -> Vec<(&'static str, f64, i64)> {
        REQUIRED_PATHS
            .iter()
            .map(|&n| (n, if n == "scan" { scan_qps } else { indexed_qps }, hits))
            .collect()
    }

    #[test]
    fn accepts_a_healthy_report() {
        let path = write_report(&report_json(&full_paths(100.0, 500.0, 42), 1, 0.98));
        let summary = check(&path).unwrap();
        assert!(summary.iter().any(|l| l.contains("skipped")));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn rejects_missing_entry_mismatched_hits_and_slow_paths() {
        // Missing entry.
        let mut paths = full_paths(100.0, 500.0, 42);
        paths.retain(|(n, _, _)| *n != "prefix_pruned");
        let p = write_report(&report_json(&paths, 1, 1.0));
        assert!(check(&p).unwrap_err().contains("prefix_pruned"));
        std::fs::remove_file(p).unwrap();

        // Hit disagreement.
        let mut paths = full_paths(100.0, 500.0, 42);
        paths.last_mut().unwrap().2 = 41;
        let p = write_report(&report_json(&paths, 1, 1.0));
        assert!(check(&p).unwrap_err().contains("total_hits disagree"));
        std::fs::remove_file(p).unwrap();

        // An indexed path slower than scan.
        let p = write_report(&report_json(&full_paths(100.0, 50.0, 42), 1, 1.0));
        assert!(check(&p).unwrap_err().contains("slower than the scan"));
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn rejects_missing_or_regressed_posting_memory() {
        // Non-positive byte count.
        let p = write_report(&report_json_with_memory(
            &full_paths(100.0, 500.0, 42),
            1,
            &[1.0],
            0,
        ));
        assert!(check(&p).unwrap_err().contains("positive"));
        std::fs::remove_file(p).unwrap();

        // Section missing entirely.
        let entries: Vec<String> = full_paths(100.0, 500.0, 42)
            .iter()
            .map(|(name, qps, hits)| {
                format!(
                    "{{\"name\": \"{name}\", \"queries_per_sec\": {qps}, \"total_hits\": {hits}}}"
                )
            })
            .collect();
        let p = write_report(&format!(
            "{{\"build\": {{\"parallel_threads\": 1, \"parallel_speedup\": 1.0, \
             \"pair_speedups\": [1.0]}}, \"paths\": [{}]}}",
            entries.join(", ")
        ));
        assert!(check(&p).unwrap_err().contains("posting_memory"));
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn speed_gate_skipped_below_the_record_floor() {
        // Smoke-scale report (800 records): indexed paths slower than scan
        // must NOT fail — a warm scan over a few hundred records beats any
        // filtered path on a fast host.
        let smoke = report_json(&full_paths(100_000.0, 20_000.0, 42), 1, 1.0).replace(
            "\"bench\": \"query_throughput\",",
            "\"bench\": \"query_throughput\", \"dataset\": {\"num_records\": 800},",
        );
        let p = write_report(&smoke);
        let summary = check(&p).unwrap();
        assert!(summary
            .iter()
            .any(|l| l.contains("throughput comparisons skipped")));
        std::fs::remove_file(p).unwrap();

        // The same slow paths at full scale still fail (and a report with
        // no dataset section at all is treated as full-scale — covered by
        // `rejects_missing_entry_mismatched_hits_and_slow_paths`).
        let full = report_json(&full_paths(100_000.0, 20_000.0, 42), 1, 1.0).replace(
            "\"bench\": \"query_throughput\",",
            "\"bench\": \"query_throughput\", \"dataset\": {\"num_records\": 10000},",
        );
        let p = write_report(&full);
        assert!(check(&p).unwrap_err().contains("slower than the scan"));
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn rejects_missing_or_regressed_dense_profile() {
        // Section missing entirely.
        let p = write_report(&report_with_dense(None));
        assert!(check(&p).unwrap_err().contains("dense_profile"));
        std::fs::remove_file(p).unwrap();

        // The engine entry missing.
        let p = write_report(&report_with_dense(Some(
            dense_json(42).replace("prefix_pruned", "prefix_pruned_gone"),
        )));
        assert!(check(&p)
            .unwrap_err()
            .contains("dense_profile path entry `prefix_pruned` is missing"));
        std::fs::remove_file(p).unwrap();

        // Hits disagree within the section.
        let p = write_report(&report_with_dense(Some(dense_json(41))));
        assert!(check(&p)
            .unwrap_err()
            .contains("dense_profile total_hits disagree"));
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn rejects_missing_or_regressed_persistence() {
        // Section missing entirely.
        let p = write_report(&report_with_persistence(None));
        assert!(check(&p).unwrap_err().contains("persistence"));
        std::fs::remove_file(p).unwrap();

        // The loaded index lost answers.
        let p = write_report(&report_with_persistence(Some(persistence_json(
            42, 41, 25.0, 5_000,
        ))));
        assert!(check(&p).unwrap_err().contains("persistence diverged"));
        std::fs::remove_file(p).unwrap();

        // Nothing borrowed: the load silently stopped being zero-copy.
        let p = write_report(&report_with_persistence(Some(persistence_json(
            42, 42, 25.0, 0,
        ))));
        assert!(check(&p).unwrap_err().contains("not zero-copy"));
        std::fs::remove_file(p).unwrap();

        // Load barely faster than a rebuild at full scale (no dataset
        // section means full scale): the speedup floor must catch it.
        let p = write_report(&report_with_persistence(Some(persistence_json(
            42, 42, 1.2, 5_000,
        ))));
        assert!(check(&p).unwrap_err().contains("zero-copy load path"));
        std::fs::remove_file(p).unwrap();

        // The same slow load at smoke scale is accepted (and summarised as
        // skipped) — but the hit identity still applies there.
        let slow_smoke = report_with_persistence(Some(persistence_json(42, 42, 1.2, 5_000)))
            .replace(
                "\"bench\": \"query_throughput\",",
                "\"bench\": \"query_throughput\", \"dataset\": {\"num_records\": 800},",
            );
        let p = write_report(&slow_smoke);
        let summary = check(&p).unwrap();
        assert!(summary.iter().any(|l| l.contains("speedup gate skipped")));
        std::fs::remove_file(p).unwrap();
        let diverged_smoke = report_with_persistence(Some(persistence_json(42, 40, 25.0, 5_000)))
            .replace(
                "\"bench\": \"query_throughput\",",
                "\"bench\": \"query_throughput\", \"dataset\": {\"num_records\": 800},",
            );
        let p = write_report(&diverged_smoke);
        assert!(check(&p).unwrap_err().contains("persistence diverged"));
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn rejects_missing_or_diverged_concurrent_section() {
        // Section missing entirely.
        let p = write_report(&report_with_concurrent(None));
        assert!(check(&p).unwrap_err().contains("concurrent"));
        std::fs::remove_file(p).unwrap();

        // Service hits diverge from the directly grown index.
        let p = write_report(&report_with_concurrent(Some(concurrent_json(2, 4, 42, 40))));
        assert!(check(&p).unwrap_err().contains("serving layer diverged"));
        std::fs::remove_file(p).unwrap();

        // No generation was published under the readers.
        let p = write_report(&report_with_concurrent(Some(concurrent_json(2, 0, 42, 42))));
        assert!(check(&p).unwrap_err().contains("published generation"));
        std::fs::remove_file(p).unwrap();

        // Healthy section passes and is summarised.
        let p = write_report(&report_with_concurrent(Some(concurrent_json(3, 6, 42, 42))));
        let summary = check(&p).unwrap();
        assert!(summary.iter().any(|l| l.contains("serving layer")));
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn rejects_missing_or_regressed_ingest_section() {
        // Section missing entirely.
        let p = write_report(&report_with_ingest(None));
        assert!(check(&p).unwrap_err().contains("ingest"));
        std::fs::remove_file(p).unwrap();

        // The quiesced ingest service lost answers.
        let p = write_report(&report_with_ingest(Some(ingest_json(
            12.0, 3.0, 3, false, 40_000, 42, 41,
        ))));
        assert!(check(&p).unwrap_err().contains("ingest service diverged"));
        std::fs::remove_file(p).unwrap();

        // Consecutive generations share nothing: COW regressed to copies.
        let p = write_report(&report_with_ingest(Some(ingest_json(
            12.0, 3.0, 3, false, 0, 42, 42,
        ))));
        assert!(check(&p)
            .unwrap_err()
            .contains("regressed into full copies"));
        std::fs::remove_file(p).unwrap();

        // The delta checkpoint fell back to a full rewrite.
        let p = write_report(&report_with_ingest(Some(ingest_json(
            12.0, 3.0, 0, true, 40_000, 42, 42,
        ))));
        assert!(check(&p).unwrap_err().contains("fell back"));
        std::fs::remove_file(p).unwrap();

        // No fallback, but nothing reused either.
        let p = write_report(&report_with_ingest(Some(ingest_json(
            12.0, 3.0, 0, false, 40_000, 42, 42,
        ))));
        assert!(check(&p)
            .unwrap_err()
            .contains("dirty-shard tracking has regressed"));
        std::fs::remove_file(p).unwrap();

        // Full scale (no dataset section): a slow COW flush fails…
        let p = write_report(&report_with_ingest(Some(ingest_json(
            2.0, 3.0, 3, false, 40_000, 42, 42,
        ))));
        assert!(check(&p)
            .unwrap_err()
            .contains("O(dirty) ingest has regressed"));
        std::fs::remove_file(p).unwrap();

        // …and so does a slow delta checkpoint.
        let p = write_report(&report_with_ingest(Some(ingest_json(
            12.0, 1.1, 3, false, 40_000, 42, 42,
        ))));
        assert!(check(&p)
            .unwrap_err()
            .contains("clean-section reuse has regressed"));
        std::fs::remove_file(p).unwrap();

        // At smoke scale the two speedup floors are skipped, but the
        // structural gates still apply.
        let slow_smoke = report_with_ingest(Some(ingest_json(2.0, 0.7, 3, false, 40_000, 42, 42)))
            .replace(
                "\"bench\": \"query_throughput\",",
                "\"bench\": \"query_throughput\", \"dataset\": {\"num_records\": 800},",
            );
        let p = write_report(&slow_smoke);
        let summary = check(&p).unwrap();
        assert!(summary.iter().any(|l| l.contains("speedup gates skipped")));
        std::fs::remove_file(p).unwrap();
        let fallback_smoke =
            report_with_ingest(Some(ingest_json(2.0, 0.7, 0, true, 40_000, 42, 42))).replace(
                "\"bench\": \"query_throughput\",",
                "\"bench\": \"query_throughput\", \"dataset\": {\"num_records\": 800},",
            );
        let p = write_report(&fallback_smoke);
        assert!(check(&p).unwrap_err().contains("fell back"));
        std::fs::remove_file(p).unwrap();
    }

    /// At full scale a 128-record flush that ingests only 7.8x the records/s
    /// of a 1-record flush (what splicing one record at a time read) fails
    /// the amortisation floor; at smoke scale the floor is skipped.
    #[test]
    fn rejects_a_flush_that_does_not_amortise_its_batch() {
        let per_record =
            ingest_json(12.0, 3.0, 3, false, 40_000, 42, 42).replace("640000.0", "78000.0");
        let p = write_report(&report_with_ingest(Some(per_record.clone())));
        assert!(check(&p)
            .unwrap_err()
            .contains("no longer merges its batch once"));
        std::fs::remove_file(p).unwrap();

        let smoke = report_with_ingest(Some(per_record)).replace(
            "\"bench\": \"query_throughput\",",
            "\"bench\": \"query_throughput\", \"dataset\": {\"num_records\": 800},",
        );
        let p = write_report(&smoke);
        assert!(check(&p).is_ok());
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn parallel_speedup_gate_only_applies_on_multicore() {
        // 0.5x on one core: skipped (scheduler noise, not a regression).
        let p = write_report(&report_json(&full_paths(100.0, 500.0, 7), 1, 0.5));
        assert!(check(&p).is_ok());
        std::fs::remove_file(p).unwrap();

        // 0.5x on four cores: a real regression.
        let p = write_report(&report_json(&full_paths(100.0, 500.0, 7), 4, 0.5));
        assert!(check(&p).unwrap_err().contains("below"));
        std::fs::remove_file(p).unwrap();

        // 1.9x on four cores: fine.
        let p = write_report(&report_json(&full_paths(100.0, 500.0, 7), 4, 1.9));
        assert!(check(&p).is_ok());
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn parallel_build_gate_reads_the_median_of_the_pairs() {
        let paths = full_paths(100.0, 500.0, 7);
        // One noisy pair at 0.75x beside healthy ones: the median passes.
        let p = write_report(&report_json_with_memory(
            &paths,
            2,
            &[0.95, 0.75, 1.02, 0.9, 0.88],
            10_000,
        ));
        assert!(check(&p).is_ok());
        std::fs::remove_file(p).unwrap();

        // Most pairs below the floor: the median fails.
        let p = write_report(&report_json_with_memory(
            &paths,
            2,
            &[0.75, 0.78, 0.9, 0.7, 0.95],
            10_000,
        ));
        assert!(check(&p).unwrap_err().contains("below the 0.8x floor"));
        std::fs::remove_file(p).unwrap();

        // A reported speedup its pairs do not support.
        let inflated = report_json_with_memory(&paths, 2, &[0.7, 0.75, 0.78], 10_000)
            .replace("\"parallel_speedup\": 0.75", "\"parallel_speedup\": 1.5");
        let p = write_report(&inflated);
        assert!(check(&p).unwrap_err().contains("is not the median"));
        std::fs::remove_file(p).unwrap();

        // No pairs at all.
        let empty = report_json_with_memory(&paths, 2, &[0.9], 10_000)
            .replace("\"pair_speedups\": [0.9]", "\"pair_speedups\": []");
        let p = write_report(&empty);
        assert!(check(&p).unwrap_err().contains("no build pairs"));
        std::fs::remove_file(p).unwrap();
    }

    /// One sweep cell carrying exactly the fields the sweep gates read.
    fn sweep_cell(variant: &str, hits: i64, posting: i64, mem: i64, qps: f64) -> String {
        format!(
            "{{\"variant\": \"{variant}\", \"total_hits\": {hits}, \
             \"posting_bytes\": {posting}, \"mem_total_bytes\": {mem}, \
             \"queries_per_sec\": {qps}}}"
        )
    }

    /// The frontier of the cells [`sweep_scale`] constructs: `raw`
    /// (cheapest) then `sharded4` (fastest).
    fn sweep_frontier(unit: i64) -> String {
        format!(
            "[{{\"variant\": \"raw\", \"mem_total_bytes\": {}, \
             \"queries_per_sec\": 1000}}, {{\"variant\": \"sharded4\", \
             \"mem_total_bytes\": {}, \"queries_per_sec\": 1200}}]",
            100_000 * unit,
            110_000 * unit
        )
    }

    /// A healthy scale section at `records` with every required variant;
    /// all byte figures scale with `unit` so stacked sections grow
    /// monotonically. Neither cell dominates the other.
    fn sweep_scale(records: i64, unit: i64) -> String {
        let cells = [
            sweep_cell("raw", 42, 10_000 * unit, 100_000 * unit, 1_000.0),
            sweep_cell("sharded4", 42, 10_400 * unit, 110_000 * unit, 1_200.0),
        ];
        format!(
            "{{\"num_records\": {records}, \"cells\": [{}], \"frontier\": {}}}",
            cells.join(", "),
            sweep_frontier(unit)
        )
    }

    fn sweep_json(scales: &[String]) -> String {
        format!(
            "{{\"bench\": \"scale_sweep\", \"scales\": [{}]}}",
            scales.join(", ")
        )
    }

    #[test]
    fn sweep_accepts_a_healthy_two_scale_report() {
        let p = write_report(&sweep_json(&[
            sweep_scale(1_000, 1),
            sweep_scale(100_000, 10),
        ]));
        let summary = check_sweep(&p).unwrap();
        assert!(summary.iter().any(|l| l.contains("strictly monotone")));
        assert!(summary
            .iter()
            .any(|l| l.contains("frontier [raw, sharded4]")));
        std::fs::remove_file(p).unwrap();

        // A single-scale report (the CI smoke) passes too, with the
        // monotonicity gate explicitly reported as skipped.
        let p = write_report(&sweep_json(&[sweep_scale(1_000, 1)]));
        let summary = check_sweep(&p).unwrap();
        assert!(summary.iter().any(|l| l.contains("monotonicity skipped")));
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn sweep_rejects_a_missing_cell() {
        // Renaming a cell out of the grid drops the required variant.
        let broken = sweep_json(&[sweep_scale(1_000, 1)]).replace(
            "\"variant\": \"sharded4\"",
            "\"variant\": \"sharded4_gone\"",
        );
        let p = write_report(&broken);
        assert_eq!(
            check_sweep(&p).unwrap_err(),
            "sweep scale 1000: required cell `sharded4` is missing"
        );
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn sweep_rejects_a_hit_mismatch() {
        let broken = sweep_json(&[sweep_scale(1_000, 1)]).replace(
            &sweep_cell("sharded4", 42, 10_400, 110_000, 1_200.0),
            &sweep_cell("sharded4", 41, 10_400, 110_000, 1_200.0),
        );
        let p = write_report(&broken);
        let err = check_sweep(&p).unwrap_err();
        assert!(
            err.contains("total_hits disagree") && err.contains("`sharded4` reports 41"),
            "unexpected error: {err}"
        );
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn sweep_rejects_non_monotone_memory() {
        // Same sizes at 1k and 100k records: memory failed to grow.
        let p = write_report(&sweep_json(&[
            sweep_scale(1_000, 1),
            sweep_scale(100_000, 1),
        ]));
        let err = check_sweep(&p).unwrap_err();
        assert!(
            err.contains("not monotone in scale"),
            "unexpected error: {err}"
        );
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn sweep_rejects_a_dominated_or_empty_frontier() {
        // A dominated cell on the committed frontier: `sharded4` slower
        // than `raw` at more memory.
        let broken = sweep_json(&[sweep_scale(1_000, 1)]).replace(
            &sweep_cell("sharded4", 42, 10_400, 110_000, 1_200.0),
            &sweep_cell("sharded4", 42, 10_400, 110_000, 800.0),
        );
        let p = write_report(&broken);
        let err = check_sweep(&p).unwrap_err();
        assert!(
            err.contains("disagrees with the recomputed frontier"),
            "unexpected error: {err}"
        );
        std::fs::remove_file(p).unwrap();

        // An empty committed frontier.
        let broken = sweep_json(&[sweep_scale(1_000, 1)]).replace(&sweep_frontier(1), "[]");
        let p = write_report(&broken);
        assert_eq!(
            check_sweep(&p).unwrap_err(),
            "sweep scale 1000: the committed Pareto frontier is empty"
        );
        std::fs::remove_file(p).unwrap();
    }
}
