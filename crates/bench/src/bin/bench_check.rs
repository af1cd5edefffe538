//! CI bench-regression gate over the `query_throughput` and `scale_sweep`
//! reports.
//!
//! The benches assert cross-path agreement while they run; this binary
//! re-reads the reports they wrote and fails the build unless every gate of
//! [`THROUGHPUT_GATES`] passes on the throughput report (`--report`, by
//! default the smoke-scale one CI produces) and every gate of
//! [`SWEEP_GATES`] on the scale-sweep report (`--sweep`). A gate is one row:
//! a name, a predicate over report fields named by dotted paths (read
//! through the bench lib's accessor), and the regression its failure
//! means. The two tables and the floor constants above them are the list of
//! what is gated; the tests give every gate a failing fixture.
//!
//! Speed floors apply only at full scale ([`MIN_RECORDS_FOR_SPEED_GATE`]):
//! on the few-hundred-record smoke workload a warm full scan is near-free
//! and routinely outruns every filtered path, and ratios of sub-millisecond
//! timings are noise. Below that scale a floor gate still reads its figures
//! (they are part of the report's schema) but only reports them. The
//! parallel-build floor likewise applies only when more than one core was
//! available, because a single-core "speedup" is scheduler noise.
//!
//! If a report file does not exist, the smoke-scale bench is run first via
//! its sibling binary, so `bench_check` is usable as a one-command local
//! gate too.
//!
//! Usage: `bench_check [--report PATH] [--sweep PATH]`

use std::path::{Path, PathBuf};
use std::process::Command;

use gbkmv_bench::harness::arg_value;
use gbkmv_bench::report::{at, int, list, num, pareto_frontier, percentile};
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

/// Smallest dataset (records) on which the speed floors are asserted.
/// Below this, a warm linear scan is microseconds per query and beats every
/// filtered path on a fast machine — the committed full-scale report (10k
/// records) is where the comparisons are load-bearing. A report without a
/// dataset section is treated as full-scale (assert).
const MIN_RECORDS_FOR_SPEED_GATE: i64 = 5_000;

/// Minimum acceptable parallel build speedup (the median over the build
/// pairs) when more than one core is available. Deliberately lenient — it
/// catches "parallel build became serial", not scheduling jitter.
const MIN_PARALLEL_BUILD_SPEEDUP: f64 = 0.8;

/// Minimum acceptable `rebuild_ms / load_ms` ratio of the persistence
/// section at full scale. Reopening the single-file arena is one
/// validate-and-copy pass over the image with zero per-record work; on the
/// committed full-scale report it runs far faster than re-sketching 10k
/// records, so 5x is a regression floor, not a target.
const MIN_LOAD_SPEEDUP: f64 = 5.0;

/// Minimum acceptable `deep_clone_flush_ms / cow_flush_ms` ratio of the
/// ingest section at full scale: publishing a 1-record generation on the
/// 16-shard ingest index must beat the pre-COW whole-index-clone baseline
/// (measured in the same run) by at least this much, or copy-on-write
/// publication has regressed back toward O(index) flushes.
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
/// instead of re-serializing them.
const MIN_DELTA_CHECKPOINT_SPEEDUP: f64 = 2.0;

/// What a gate checks.
enum Check {
    /// The integers at the two paths are equal.
    Same(&'static str, &'static str),
    /// The integer at the path is positive.
    Positive(&'static str),
    /// At full scale, the speed ratio at the path is at least the floor.
    Floor(&'static str, f64),
    /// Any other predicate: returns the PASS line or the failure.
    Custom(fn(&Value) -> Result<String, String>),
}
use Check::{Custom, Floor, Positive, Same};

/// One declared gate: its name, its predicate, and the regression its
/// failure means.
struct Gate {
    name: &'static str,
    check: Check,
    message: &'static str,
}

impl Gate {
    /// The text of the gate's PASS line, or its failure message.
    fn run(&self, r: &Value) -> Result<String, String> {
        match self.check {
            Same(a, b) => {
                let (x, y) = (int(r, a)?, int(r, b)?);
                if x == y {
                    Ok(format!("`{a}` == `{b}` ({x})"))
                } else {
                    Err(format!("`{a}` is {x}, `{b}` is {y}"))
                }
            }
            Positive(path) => match int(r, path)? {
                v if v > 0 => Ok(format!("`{path}` = {v}")),
                v => Err(format!("`{path}` is {v}, not positive")),
            },
            Floor(path, min) => floor(r, num(r, path)?, min),
            Custom(check) => check(r),
        }
        .map_err(|e| format!("{e} — {}", self.message))
    }
}

/// The gates of the throughput report, in the order they print.
const THROUGHPUT_GATES: &[Gate] = &[
    Gate {
        name: "required_paths",
        message: "a measured path was dropped",
        check: Custom(|r| {
            for name in REQUIRED_PATHS {
                at(r, &format!("paths[name={name}]"))?;
            }
            let scan = num(r, "paths[name=scan].queries_per_sec")?;
            if scan <= 0.0 {
                return Err(format!("scan queries_per_sec is not positive ({scan})"));
            }
            Ok(format!("{REQUIRED_PATHS:?} present, scan at {scan:.0} q/s"))
        }),
    },
    Gate {
        name: "path_hits_agree",
        message: "a path lost answers",
        check: Custom(|r| same_hits(r, "paths", "name")),
    },
    Gate {
        name: "indexed_paths_beat_scan",
        message: "an indexed path fell behind the scan it exists to beat",
        check: Custom(|r| {
            let scan = num(r, "paths[name=scan].queries_per_sec")?;
            if !full_scale(r) {
                return Ok(skipped_below_full_scale());
            }
            for path in list(r, "paths")? {
                let name = name_of(path, "name");
                let qps = num(r, &format!("paths[name={name}].queries_per_sec"))?;
                if qps < scan * NOISE_TOLERANCE {
                    return Err(format!(
                        "indexed path `{name}` is slower than the scan reference: \
                         {qps:.0} q/s vs {scan:.0} q/s (tolerance {NOISE_TOLERANCE})"
                    ));
                }
            }
            Ok(format!(
                "every path ≥ scan ({scan:.0} q/s, tolerance {NOISE_TOLERANCE})"
            ))
        }),
    },
    Gate {
        name: "posting_memory",
        check: Positive("posting_memory.posting_bytes"),
        message: "no posting bytes counted",
    },
    Gate {
        name: "dense_profile",
        message: "the dense profile lost a path or an answer",
        check: Custom(|r| {
            for name in DENSE_REQUIRED_PATHS {
                at(r, &format!("dense_profile.paths[name={name}]"))?;
            }
            same_hits(r, "dense_profile.paths", "name")
        }),
    },
    Gate {
        name: "persistence_hits",
        check: Same(
            "persistence.total_hits_built",
            "persistence.total_hits_loaded",
        ),
        message: "persistence diverged",
    },
    Gate {
        name: "arena_written",
        check: Positive("persistence.arena_file_bytes"),
        message: "no arena was written",
    },
    Gate {
        name: "zero_copy_load",
        check: Positive("persistence.mem_loaded.borrowed_bytes"),
        message: "the arena load is not zero-copy",
    },
    Gate {
        name: "load_beats_rebuild",
        check: Floor("persistence.load_speedup_vs_rebuild", MIN_LOAD_SPEEDUP),
        message: "the zero-copy load path has regressed",
    },
    Gate {
        name: "concurrent_generations",
        message: "readers never raced a published generation",
        check: Custom(|r| {
            let readers = int(r, "concurrent.readers")?;
            let generations = int(r, "concurrent.generations_published")?;
            if readers < 1 || generations < 1 {
                return Err(format!(
                    "concurrent section must record at least one reader racing one \
                     published generation (readers {readers}, generations {generations})"
                ));
            }
            Ok(format!(
                "{readers} readers over {generations} published generations"
            ))
        }),
    },
    Gate {
        name: "concurrent_hits",
        check: Same(
            "concurrent.total_hits_service",
            "concurrent.total_hits_direct",
        ),
        message: "serving layer diverged",
    },
    Gate {
        name: "ingest_hits",
        check: Same("ingest.total_hits_service", "ingest.total_hits_direct"),
        message: "ingest service diverged",
    },
    Gate {
        name: "cow_shares_storage",
        check: Positive("ingest.shared_bytes"),
        message: "copy-on-write publication has regressed into full copies",
    },
    Gate {
        name: "delta_fell_back",
        message: "the measured delta checkpoint fell back to a full rewrite",
        check: Custom(|r| match at(r, "ingest.delta.fallback")?.as_bool() {
            Some(false) => Ok("no fallback".to_string()),
            other => Err(format!("`ingest.delta.fallback` is {other:?}")),
        }),
    },
    Gate {
        name: "delta_reuses_sections",
        check: Positive("ingest.delta.reused_shards"),
        message: "dirty-shard tracking has regressed",
    },
    Gate {
        name: "cow_flush_beats_clone",
        check: Floor(
            "ingest.flush_speedup_vs_deep_clone",
            MIN_FLUSH_SPEEDUP_VS_CLONE,
        ),
        message: "O(dirty) ingest has regressed",
    },
    Gate {
        name: "flush_amortises_batch",
        message: "the flush no longer merges its batch once",
        check: Custom(|r| {
            let rate_1 = num(r, "ingest.batches[batch_size=1].records_per_sec")?;
            let rate_128 = num(r, "ingest.batches[batch_size=128].records_per_sec")?;
            let amortisation = if rate_1 > 0.0 { rate_128 / rate_1 } else { 0.0 };
            floor(r, amortisation, MIN_FLUSH_BATCH_AMORTISATION)
        }),
    },
    Gate {
        name: "delta_beats_full_checkpoint",
        check: Floor("ingest.delta_speedup_vs_full", MIN_DELTA_CHECKPOINT_SPEEDUP),
        message: "clean-section reuse has regressed",
    },
    Gate {
        name: "parallel_build",
        message: "the parallel build regressed or its figure is not its pairs' median",
        check: Custom(|r| {
            let threads = int(r, "build.parallel_threads")?;
            let speedup = num(r, "build.parallel_speedup")?;
            let mut pairs = list(r, "build.pair_speedups")?
                .iter()
                .map(|v| v.as_f64().ok_or("build pair_speedups holds a non-number"))
                .collect::<Result<Vec<f64>, _>>()?;
            if pairs.is_empty() {
                return Err("build section has no build pairs".to_string());
            }
            // The gated figure is recomputed from the pairs, so a report
            // cannot gate on a figure its pairs do not support.
            pairs.sort_by(f64::total_cmp);
            let median = percentile(&pairs, 0.5);
            let n = pairs.len();
            if (median - speedup).abs() > 1e-9 * median.abs().max(1.0) {
                return Err(format!(
                    "build parallel_speedup {speedup:.3}x is not the median {median:.3}x \
                     of its {n} pairs"
                ));
            }
            if threads <= 1 {
                return Ok(format!(
                    "skipped on a single core (measured {speedup:.2}x is scheduler noise)"
                ));
            }
            if speedup < MIN_PARALLEL_BUILD_SPEEDUP {
                return Err(format!(
                    "parallel build speedup {speedup:.2}x (median of {n} pairs) on {threads} \
                     threads is below the {MIN_PARALLEL_BUILD_SPEEDUP}x floor"
                ));
            }
            Ok(format!(
                "{speedup:.2}x (median of {n} pairs) on {threads} threads"
            ))
        }),
    },
];

/// The gates of the scale-sweep report, in the order they print.
const SWEEP_GATES: &[Gate] = &[
    Gate {
        name: "sweep_cells",
        message: "a variant cell was dropped from the grid",
        check: Custom(|r| {
            per_scale(r, |scale| {
                for name in REQUIRED_SWEEP_VARIANTS {
                    if at(scale, &format!("cells[variant={name}]")).is_err() {
                        return Err(format!("required cell `{name}` is missing"));
                    }
                }
                Ok(format!("{} cells", list(scale, "cells")?.len()))
            })
        }),
    },
    Gate {
        name: "sweep_hits_agree",
        message: "a variant lost answers",
        check: Custom(|r| per_scale(r, |scale| same_hits(scale, "cells", "variant"))),
    },
    Gate {
        name: "sweep_frontier",
        message: "the committed frontier is not the Pareto frontier of its cells",
        check: Custom(|r| {
            per_scale(r, |scale| {
                // The committed frontier must be non-empty and exactly the
                // one recomputed with the shared `pareto_frontier` over the
                // cells' (memory, throughput) points.
                let cells = list(scale, "cells")?;
                let points = cells
                    .iter()
                    .map(|cell| {
                        Ok((
                            int(cell, "mem_total_bytes")? as f64,
                            num(cell, "queries_per_sec")?,
                        ))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                let recomputed: Vec<&str> = pareto_frontier(&points)
                    .iter()
                    .map(|&i| name_of(&cells[i], "variant"))
                    .collect();
                let stored: Vec<&str> = list(scale, "frontier")?
                    .iter()
                    .map(|point| name_of(point, "variant"))
                    .collect();
                if stored.is_empty() {
                    return Err("the committed Pareto frontier is empty".to_string());
                }
                if stored != recomputed {
                    return Err(format!(
                        "committed frontier {stored:?} disagrees with the recomputed frontier \
                         {recomputed:?}"
                    ));
                }
                Ok(format!("frontier {stored:?}"))
            })
        }),
    },
    Gate {
        name: "sweep_memory_monotone",
        message: "memory accounting or the per-scale datasets broke",
        check: Custom(|r| {
            // More records must never cost less index memory — the first
            // casualty of a broken accounting or a sweep that silently
            // reused a dataset across scales.
            let scales = scales(r)?;
            if scales.len() < 2 {
                return Ok("skipped (single swept scale)".to_string());
            }
            for name in REQUIRED_SWEEP_VARIANTS {
                let mut trail = Vec::new();
                for scale in scales {
                    if let Ok(cell) = at(scale, &format!("cells[variant={name}]")) {
                        trail.push((int(scale, "num_records")?, int(cell, "mem_total_bytes")?));
                    }
                }
                trail.sort_unstable();
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
            Ok(format!(
                "strictly monotone across {} scales for every variant",
                scales.len()
            ))
        }),
    },
];

/// The string field `key` that names a table entry (`"?"` when absent, which
/// no dotted-path selector matches).
fn name_of<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry.get(key).and_then(Value::as_str).unwrap_or("?")
}

/// Whether the report measured a dataset large enough for speed floors.
fn full_scale(r: &Value) -> bool {
    int(r, "dataset.num_records").unwrap_or(i64::MAX) >= MIN_RECORDS_FOR_SPEED_GATE
}

fn skipped_below_full_scale() -> String {
    format!("floor skipped below {MIN_RECORDS_FOR_SPEED_GATE} records")
}

/// A measured speed ratio against its floor: fails below it at full scale,
/// and only reports the figure below full scale (it must still be there).
fn floor(r: &Value, measured: f64, min: f64) -> Result<String, String> {
    if !full_scale(r) {
        Ok(format!("{measured:.1}x, {}", skipped_below_full_scale()))
    } else if measured < min {
        Err(format!("{measured:.1}x is below the {min}x floor"))
    } else {
        Ok(format!("{measured:.1}x (floor {min}x)"))
    }
}

/// Passes when every entry of the array at `entries` (each named by its
/// `key` field) reports the same `total_hits`: a path or cell that loses
/// answers is a correctness regression no matter how fast it got.
fn same_hits(r: &Value, entries: &str, key: &str) -> Result<String, String> {
    let mut first: Option<(i64, &str)> = None;
    for entry in list(r, entries)? {
        let name = name_of(entry, key);
        let hits = int(r, &format!("{entries}[{key}={name}].total_hits"))?;
        match first {
            None => first = Some((hits, name)),
            Some((expected, first)) if expected != hits => {
                return Err(format!(
                    "total_hits disagree in `{entries}`: `{first}` reports {expected}, \
                     `{name}` reports {hits}"
                ));
            }
            Some(_) => {}
        }
    }
    Ok(format!(
        "identical total_hits ({})",
        first.map_or(0, |(hits, _)| hits)
    ))
}

/// The sweep report's scale sections; an empty axis is an error.
fn scales(r: &Value) -> Result<&[Value], String> {
    match list(r, "scales")? {
        [] => Err("sweep report has an empty `scales` array".to_string()),
        scales => Ok(scales),
    }
}

/// Runs `check` on every scale section, naming the scale in its line.
fn per_scale(
    r: &Value,
    check: impl Fn(&Value) -> Result<String, String>,
) -> Result<String, String> {
    let mut lines = Vec::new();
    for scale in scales(r)? {
        let records = int(scale, "num_records")?;
        match check(scale) {
            Ok(line) => lines.push(format!("scale {records}: {line}")),
            Err(e) => return Err(format!("sweep scale {records}: {e}")),
        }
    }
    Ok(lines.join("; "))
}

/// Runs the smoke-scale bench via the sibling binary `bench` with `args`,
/// writing its report to `report`.
fn run_smoke(bench: &str, args: &[&str], report: &Path) -> Result<(), String> {
    let sibling = std::env::current_exe()
        .map_err(|e| format!("cannot locate current executable: {e}"))?
        .with_file_name(bench);
    if !sibling.exists() {
        return Err(format!(
            "report {} does not exist and sibling bench binary {} was not found \
             (build with `cargo build --release -p gbkmv-bench`)",
            report.display(),
            sibling.display()
        ));
    }
    eprintln!(
        "bench_check: {} missing — running the smoke bench via {}",
        report.display(),
        sibling.display()
    );
    let status = Command::new(&sibling)
        .args(args)
        .arg("--out")
        .arg(report)
        .status()
        .map_err(|e| format!("failed to spawn {}: {e}", sibling.display()))?;
    if !status.success() {
        return Err(format!("smoke bench {bench} exited with {status}"));
    }
    Ok(())
}

/// Runs every gate of `gates` on the report at `path`, printing one PASS or
/// FAIL line per gate; whether every gate passed.
fn run_gates(path: &Path, gates: &[Gate]) -> bool {
    let report = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read it: {e}"))
        .and_then(|text| serde_json::from_str(&text).map_err(|e| format!("cannot parse it: {e}")));
    let report = match report {
        Ok(report) => report,
        Err(message) => {
            eprintln!("bench_check: FAIL {}: {message}", path.display());
            return false;
        }
    };
    println!("bench_check: {}", path.display());
    let mut passed = true;
    for gate in gates {
        match gate.run(&report) {
            Ok(line) => println!("  PASS {}: {line}", gate.name),
            Err(message) => {
                eprintln!("  FAIL {}: {message}", gate.name);
                passed = false;
            }
        }
    }
    passed
}

fn main() {
    let mut passed = true;
    for (flag, default, gates, bench, smoke_args) in [
        (
            "--report",
            "target/BENCH_query_throughput.smoke.json",
            THROUGHPUT_GATES,
            "query_throughput",
            &["--records", "800", "--queries", "30", "--shards", "3"][..],
        ),
        (
            "--sweep",
            "target/BENCH_scale_sweep.smoke.json",
            SWEEP_GATES,
            "scale_sweep",
            &["--scales", "1000", "--queries", "50", "--reps", "2"][..],
        ),
    ] {
        let report = PathBuf::from(arg_value(flag).unwrap_or_else(|| default.to_string()));
        if !report.exists() {
            if let Err(message) = run_smoke(bench, smoke_args, &report) {
                eprintln!("bench_check: FAIL: {message}");
                std::process::exit(1);
            }
        }
        passed &= run_gates(&report, gates);
    }
    if !passed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbkmv_bench::report::at_mut;

    /// The one healthy fixture of each table: the committed full-scale
    /// reports.
    const THROUGHPUT: &str = include_str!("../../../../BENCH_query_throughput.json");
    const SWEEP: &str = include_str!("../../../../BENCH_scale_sweep.json");

    /// The mutation table: (gate, dotted path, bad JSON value, message
    /// fragment). Setting the path to the bad value in the healthy fixture
    /// must fail exactly that gate, with the fragment in its message.
    const MUTATIONS: &[(&str, &str, &str, &str)] = &[
        (
            "required_paths",
            "paths[name=prefix_pruned].name",
            "\"gone\"",
            "prefix_pruned",
        ),
        (
            "required_paths",
            "paths[name=scan].queries_per_sec",
            "0",
            "not positive",
        ),
        (
            "path_hits_agree",
            "paths[name=batch_parallel].total_hits",
            "41",
            "total_hits disagree",
        ),
        (
            "indexed_paths_beat_scan",
            "paths[name=sharded_pruned].queries_per_sec",
            "50.0",
            "slower than the scan",
        ),
        (
            "posting_memory",
            "posting_memory.posting_bytes",
            "0",
            "not positive",
        ),
        ("posting_memory", "posting_memory", "null", "posting_memory"),
        ("dense_profile", "dense_profile", "null", "dense_profile"),
        (
            "dense_profile",
            "dense_profile.paths[name=prefix_pruned].name",
            "\"gone\"",
            "dense_profile.paths[name=prefix_pruned]",
        ),
        (
            "dense_profile",
            "dense_profile.paths[name=prefix_pruned].total_hits",
            "41",
            "total_hits disagree",
        ),
        (
            "persistence_hits",
            "persistence.total_hits_loaded",
            "41",
            "persistence diverged",
        ),
        (
            "persistence_hits",
            "persistence.total_hits_built",
            "null",
            "persistence.total_hits_built",
        ),
        (
            "arena_written",
            "persistence.arena_file_bytes",
            "0",
            "no arena was written",
        ),
        (
            "zero_copy_load",
            "persistence.mem_loaded.borrowed_bytes",
            "0",
            "not zero-copy",
        ),
        (
            "load_beats_rebuild",
            "persistence.load_speedup_vs_rebuild",
            "1.2",
            "zero-copy load path",
        ),
        (
            "load_beats_rebuild",
            "persistence.load_speedup_vs_rebuild",
            "null",
            "load_speedup_vs_rebuild",
        ),
        (
            "concurrent_generations",
            "concurrent.generations_published",
            "0",
            "published generation",
        ),
        (
            "concurrent_hits",
            "concurrent.total_hits_direct",
            "40",
            "serving layer diverged",
        ),
        (
            "ingest_hits",
            "ingest.total_hits_direct",
            "41",
            "ingest service diverged",
        ),
        (
            "cow_shares_storage",
            "ingest.shared_bytes",
            "0",
            "regressed into full copies",
        ),
        (
            "delta_fell_back",
            "ingest.delta.fallback",
            "true",
            "fell back",
        ),
        (
            "delta_reuses_sections",
            "ingest.delta.reused_shards",
            "0",
            "dirty-shard tracking has regressed",
        ),
        (
            "cow_flush_beats_clone",
            "ingest.flush_speedup_vs_deep_clone",
            "2.0",
            "O(dirty) ingest has regressed",
        ),
        (
            "flush_amortises_batch",
            "ingest.batches[batch_size=128].records_per_sec",
            "78000.0",
            "no longer merges its batch once",
        ),
        (
            "delta_beats_full_checkpoint",
            "ingest.delta_speedup_vs_full",
            "1.1",
            "clean-section reuse has regressed",
        ),
        (
            "parallel_build",
            "build",
            r#"{"parallel_threads": 4, "pair_speedups": [0.5], "parallel_speedup": 0.5}"#,
            "below",
        ),
        (
            "parallel_build",
            "build",
            r#"{"parallel_threads": 2, "pair_speedups": [0.75, 0.78, 0.9, 0.7, 0.95], "parallel_speedup": 0.78}"#,
            "below the 0.8x floor",
        ),
        (
            "parallel_build",
            "build.parallel_speedup",
            "1.5",
            "is not the median",
        ),
        (
            "parallel_build",
            "build.pair_speedups",
            "[]",
            "no build pairs",
        ),
        (
            "sweep_cells",
            "scales[num_records=1000].cells[variant=sharded4].variant",
            "\"sharded4_gone\"",
            "sweep scale 1000: required cell `sharded4` is missing",
        ),
        (
            "sweep_hits_agree",
            "scales[num_records=1000].cells[variant=sharded4].total_hits",
            "41",
            "`sharded4` reports 41",
        ),
        (
            "sweep_memory_monotone",
            "scales[num_records=100000].cells[variant=raw].mem_total_bytes",
            "1000",
            "not monotone in scale",
        ),
        (
            "sweep_frontier",
            "scales[num_records=100000].cells[variant=sharded4].queries_per_sec",
            "1.0",
            "disagrees with the recomputed frontier",
        ),
        (
            "sweep_frontier",
            "scales[num_records=1000].frontier",
            "[]",
            "sweep scale 1000: the committed Pareto frontier is empty",
        ),
    ];

    fn parse(json: &str) -> Value {
        serde_json::from_str(json).unwrap()
    }

    /// The healthy fixture a gate belongs to, and that fixture's table.
    fn fixture(gate: &str) -> (Value, &'static [Gate]) {
        if SWEEP_GATES.iter().any(|g| g.name == gate) {
            (parse(SWEEP), SWEEP_GATES)
        } else {
            (parse(THROUGHPUT), THROUGHPUT_GATES)
        }
    }

    fn set(report: &mut Value, path: &str, value: &str) {
        *at_mut(report, path).unwrap_or_else(|| panic!("fixture has no `{path}`")) = parse(value);
    }

    /// The (gate, message) of every failing gate.
    fn failures(report: &Value, gates: &[Gate]) -> Vec<(&'static str, String)> {
        gates
            .iter()
            .filter_map(|g| g.run(report).err().map(|e| (g.name, e)))
            .collect()
    }

    /// `report` at smoke scale (800 records).
    fn smoke(mut report: Value) -> Value {
        set(&mut report, "dataset.num_records", "800");
        report
    }

    /// Runs every mutation row of the named gates: exactly that gate fails,
    /// with its message.
    fn assert_rows(gates: &[&str]) {
        for &(gate, path, bad, message) in MUTATIONS.iter().filter(|m| gates.contains(&m.0)) {
            let (mut report, table) = fixture(gate);
            set(&mut report, path, bad);
            let failed = failures(&report, table);
            assert!(
                failed.len() == 1 && failed[0].0 == gate && failed[0].1.contains(message),
                "`{path}` = {bad}: expected only `{gate}` to fail with {message:?}, got {failed:?}"
            );
        }
    }

    /// The same mutations at smoke scale: the speed floors only report, the
    /// structural rows still fail.
    fn assert_smoke_rows(passing: &[&str], failing: &[&str]) {
        for &(gate, path, bad, _) in MUTATIONS {
            if !passing.contains(&gate) && !failing.contains(&gate) || bad == "null" {
                continue;
            }
            let mut report = smoke(parse(THROUGHPUT));
            set(&mut report, path, bad);
            let failed = failures(&report, THROUGHPUT_GATES);
            let expected: Vec<&str> = if failing.contains(&gate) {
                vec![gate]
            } else {
                vec![]
            };
            let names: Vec<&str> = failed.iter().map(|f| f.0).collect();
            assert_eq!(
                names, expected,
                "`{path}` = {bad} at smoke scale: {failed:?}"
            );
        }
    }

    #[test]
    fn every_gate_has_a_failing_row() {
        for gate in THROUGHPUT_GATES.iter().chain(SWEEP_GATES) {
            assert!(
                MUTATIONS.iter().any(|m| m.0 == gate.name),
                "gate `{}` has no failing fixture row",
                gate.name
            );
        }
    }

    #[test]
    fn accepts_a_healthy_report() {
        assert!(failures(&parse(THROUGHPUT), THROUGHPUT_GATES).is_empty());
        assert!(failures(&smoke(parse(THROUGHPUT)), THROUGHPUT_GATES).is_empty());
        let mut single_core = parse(THROUGHPUT);
        set(
            &mut single_core,
            "build",
            r#"{"parallel_threads": 1, "pair_speedups": [0.98], "parallel_speedup": 0.98}"#,
        );
        let line = THROUGHPUT_GATES.last().unwrap().run(&single_core).unwrap();
        assert!(line.contains("skipped"), "{line}");
    }

    #[test]
    fn rejects_missing_entry_mismatched_hits_and_slow_paths() {
        assert_rows(&[
            "required_paths",
            "path_hits_agree",
            "indexed_paths_beat_scan",
        ]);
    }

    #[test]
    fn rejects_missing_or_regressed_posting_memory() {
        assert_rows(&["posting_memory"]);
    }

    #[test]
    fn speed_gate_skipped_below_the_record_floor() {
        assert_smoke_rows(
            &["indexed_paths_beat_scan"],
            &["required_paths", "path_hits_agree"],
        );
    }

    #[test]
    fn rejects_missing_or_regressed_dense_profile() {
        assert_rows(&["dense_profile"]);
    }

    #[test]
    fn rejects_missing_or_regressed_persistence() {
        assert_rows(&[
            "persistence_hits",
            "arena_written",
            "zero_copy_load",
            "load_beats_rebuild",
        ]);
        assert_smoke_rows(
            &["load_beats_rebuild"],
            &["persistence_hits", "zero_copy_load"],
        );
        // A floor still reads its figure at smoke scale: it is part of the
        // report's schema.
        let mut report = smoke(parse(THROUGHPUT));
        set(&mut report, "persistence.load_speedup_vs_rebuild", "null");
        assert_eq!(failures(&report, THROUGHPUT_GATES).len(), 1);
    }

    #[test]
    fn rejects_missing_or_diverged_concurrent_section() {
        assert_rows(&["concurrent_generations", "concurrent_hits"]);
    }

    #[test]
    fn rejects_missing_or_regressed_ingest_section() {
        let gates = [
            "ingest_hits",
            "cow_shares_storage",
            "delta_fell_back",
            "delta_reuses_sections",
        ];
        let floors = ["cow_flush_beats_clone", "delta_beats_full_checkpoint"];
        assert_rows(&gates);
        assert_rows(&floors);
        assert_smoke_rows(&floors, &gates);
    }

    #[test]
    fn rejects_a_flush_that_does_not_amortise_its_batch() {
        assert_rows(&["flush_amortises_batch"]);
        assert_smoke_rows(&["flush_amortises_batch"], &[]);
    }

    #[test]
    fn parallel_speedup_gate_only_applies_on_multicore() {
        for build in [
            r#"{"parallel_threads": 1, "pair_speedups": [0.5], "parallel_speedup": 0.5}"#,
            r#"{"parallel_threads": 4, "pair_speedups": [1.9], "parallel_speedup": 1.9}"#,
        ] {
            let mut report = parse(THROUGHPUT);
            set(&mut report, "build", build);
            assert!(failures(&report, THROUGHPUT_GATES).is_empty(), "{build}");
        }
        assert_rows(&["parallel_build"]);
    }

    #[test]
    fn parallel_build_gate_reads_the_median_of_the_pairs() {
        // One noisy pair at 0.75x beside healthy ones: the median passes.
        let mut report = parse(THROUGHPUT);
        set(
            &mut report,
            "build",
            r#"{"parallel_threads": 2, "pair_speedups": [0.95, 0.75, 1.02, 0.9, 0.88], "parallel_speedup": 0.9}"#,
        );
        assert!(failures(&report, THROUGHPUT_GATES).is_empty());
        assert_rows(&["parallel_build"]);
    }

    #[test]
    fn sweep_accepts_a_healthy_two_scale_report() {
        let healthy = parse(SWEEP);
        assert!(failures(&healthy, SWEEP_GATES).is_empty());
        let frontier = SWEEP_GATES[2].run(&healthy).unwrap();
        assert!(
            frontier.contains(r#"frontier ["raw", "sharded4"]"#),
            "{frontier}"
        );
        // A single-scale report (the CI smoke) passes too, with the
        // monotonicity gate reported as skipped.
        let mut single = healthy.clone();
        let first = at(&healthy, "scales").unwrap().as_array().unwrap()[0].to_json();
        set(&mut single, "scales", &format!("[{first}]"));
        assert!(failures(&single, SWEEP_GATES).is_empty());
        assert!(SWEEP_GATES[3].run(&single).unwrap().contains("skipped"));
    }

    #[test]
    fn sweep_rejects_a_missing_cell() {
        assert_rows(&["sweep_cells"]);
    }

    #[test]
    fn sweep_rejects_a_hit_mismatch() {
        assert_rows(&["sweep_hits_agree"]);
    }

    #[test]
    fn sweep_rejects_non_monotone_memory() {
        assert_rows(&["sweep_memory_monotone"]);
    }

    #[test]
    fn sweep_rejects_a_dominated_or_empty_frontier() {
        assert_rows(&["sweep_frontier"]);
    }
}
