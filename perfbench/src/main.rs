//! End-to-end and per-layer benchmark of the shipped GB-KMV engine.
//!
//! ```text
//! perfbench --workload <zipf_threshold|uniform_topk|ingest_mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload from the seed, runs it (see `workload.rs`),
//! prints one line per metric with its unit, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the workload runs
//! three times in the same process, untraced, traced and untraced again,
//! and the metrics are the per-layer ones plus the tracing overhead of
//! every end-to-end metric. The first run only warms the process: the
//! first run in a process pays for fresh heap pages, the later two do not,
//! so the overhead compares the traced run with the last one.
//! The spans of the traced run are written to
//! `.perfbench/trace-<workload>-seed<n>.jsonl`. Any wrong answer or failed
//! call makes the exit code 1. See README.md for every metric.

mod oracle;
mod reference;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use reference::NOMINAL_TICK_US;
use stats::{interquartile_mean, median, windowed_tail, Quantile};
use trace::{durations, self_times, Tracer};
use workload::{specs, Run, Spec, ACCURACY_QUERIES, OPEN_REPS, SETUP_REPS};

/// Where runs keep their scratch arena and span dumps, relative to the
/// working directory.
const OUT_DIR: &str = ".perfbench";

/// Span names whose median self time per call is reported.
const SELF_TIMED: [&str; 14] = [
    "setup",
    "stats.compute",
    "index.build",
    "cold_open",
    "persist.open",
    "persist.first_answer",
    "read.query",
    "service.snapshot",
    "pipeline.search",
    "ingest.record",
    "service.submit",
    "service.flush",
    "service.checkpoint",
    "gbkmv.sketch_query",
];

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 15.0f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad value {value:?} for {flag}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = specs()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or(format!("unknown workload {name:?}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        note: note.into(),
    }
}

fn tail_note(q: Quantile) -> String {
    format!(
        "median over {} windows of p{}, {} samples",
        q.windows,
        q.percentile * 100.0,
        q.samples
    )
}

fn window_note(rates: &[f64], queries: usize) -> String {
    let lo = rates.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = rates.iter().copied().fold(0.0, f64::max);
    format!(
        "median of {} windows ({lo:.0}..{hi:.0}), {queries} queries",
        rates.len()
    )
}

/// The end-to-end metrics of one run.
fn end_to_end(run: &Run) -> Vec<Metric> {
    let queries = run.query_us.len();
    let q99 = windowed_tail(&run.query_us, 0.99);
    let v = &run.visibility.latencies_ms();
    let v99 = windowed_tail(v, 0.99);
    vec![
        metric(
            "setup_s",
            median(&run.setup_s),
            "s",
            format!("median of {SETUP_REPS} builds"),
        ),
        metric(
            "query_qps",
            median(&run.window_qps),
            "1/s",
            window_note(&run.window_qps, queries),
        ),
        metric(
            "query_p50_us",
            median(&run.query_us),
            "us",
            format!(
                "p50 of {queries} samples (raw {:.1})",
                median(&run.query_raw_us)
            ),
        ),
        metric("query_p99_us", q99.value, "us", tail_note(q99)),
        metric(
            "f1",
            run.f1,
            "ratio",
            format!("mean over {ACCURACY_QUERIES} queries"),
        ),
        metric(
            "recall_at_k",
            run.recall_at_k,
            "ratio",
            format!("mean over {ACCURACY_QUERIES} queries"),
        ),
        metric("index_bytes", run.mem.total_bytes() as f64, "bytes", ""),
        metric(
            "open_ms",
            median(&run.open_ms),
            "ms",
            format!("median of {OPEN_REPS} opens"),
        ),
        metric(
            "ingest_visible_p50_ms",
            median(v),
            "ms",
            format!("p50 of {} samples", v.len()),
        ),
        metric("ingest_visible_p99_ms", v99.value, "ms", tail_note(v99)),
        metric("ingest_rps", run.visibility.achieved_rate(), "1/s", ""),
        metric(
            "checkpoint_ms",
            interquartile_mean(&run.checkpoint_ms),
            "ms",
            format!("interquartile mean of {}", run.checkpoint_ms.len()),
        ),
    ]
}

/// The per-layer metrics of a traced run, plus the tracing overhead of
/// every end-to-end metric: the traced value minus the untraced one.
fn per_layer(traced: &Run, untraced: &Run, tracer: &Tracer) -> Vec<Metric> {
    let spans = tracer.spans();
    let med = |name: &str| median(&durations(&spans, name));
    let counts = traced.counts.unwrap_or_default();
    let hits_per_query = traced.hits as f64 / traced.query_us.len().max(1) as f64;
    let entries = counts.buffer_entries + counts.signature_entries;
    let batches = &traced.visibility.batch_sizes;
    let mem = traced.mem;
    let mut out = vec![
        metric("stats.compute_s", med("stats.compute"), "s", ""),
        metric("index.build_s", med("index.build"), "s", ""),
        metric("cost.buffer_size", traced.buffer_size as f64, "count", ""),
        metric(
            "gbkmv.sketch_query_us",
            med("gbkmv.sketch_query") * 1e6,
            "us",
            "",
        ),
        metric("pipeline.search_us", med("pipeline.search") * 1e6, "us", ""),
        metric("prune.live_fraction", counts.live_fraction, "ratio", ""),
        metric(
            "candidates.buffer_entries_per_query",
            counts.buffer_entries,
            "count",
            "upper bound",
        ),
        metric(
            "candidates.signature_entries_per_query",
            counts.signature_entries,
            "count",
            "",
        ),
        metric("rank.hits_per_query", hits_per_query, "count", ""),
        metric(
            "candidates.hit_yield",
            if entries > 0.0 {
                hits_per_query / entries
            } else {
                0.0
            },
            "ratio",
            "",
        ),
        metric(
            "index.posting_bytes",
            traced.posting_bytes as f64,
            "bytes",
            "",
        ),
        metric(
            "index.bitmap_blocks",
            traced.bitmap_blocks as f64,
            "count",
            "",
        ),
    ];
    for (field, bytes) in [
        ("hash_arena_bytes", mem.hash_arena_bytes),
        ("hash_offsets_bytes", mem.hash_offsets_bytes),
        ("buffer_arena_bytes", mem.buffer_arena_bytes),
        ("meta_bytes", mem.meta_bytes),
        ("permutation_bytes", mem.permutation_bytes),
        ("hash_df_bytes", mem.hash_df_bytes),
        ("postings_raw_bytes", mem.postings_raw_bytes),
        ("postings_packed_bytes", mem.postings_packed_bytes),
        ("posting_block_meta_bytes", mem.posting_block_meta_bytes),
        ("borrowed_bytes", mem.borrowed_bytes),
        ("shared_bytes", mem.shared_bytes),
    ] {
        out.push(metric(
            &format!("index.mem.{field}"),
            bytes as f64,
            "bytes",
            "",
        ));
    }
    out.extend([
        metric(
            "host.tick_us",
            median(&traced.ticks_us),
            "us",
            format!(
                "median of {} reference ticks (nominal {NOMINAL_TICK_US})",
                traced.ticks_us.len()
            ),
        ),
        metric("persist.open_ms", med("persist.open") * 1e3, "ms", ""),
        metric(
            "persist.first_answer_us",
            med("persist.first_answer") * 1e6,
            "us",
            "",
        ),
        metric(
            "persist.arena_bytes",
            traced.arena_bytes as f64,
            "bytes",
            "",
        ),
        metric(
            "service.submit_us",
            med("service.submit") * 1e6,
            "us",
            "submits that did not publish",
        ),
        metric(
            "service.flush_ms",
            med("service.flush") * 1e3,
            "ms",
            "submits that published",
        ),
        metric(
            "service.records_per_flush",
            batches.iter().sum::<usize>() as f64 / batches.len().max(1) as f64,
            "count",
            "",
        ),
        metric(
            "service.pending_max",
            traced.pending_max as f64,
            "count",
            "",
        ),
        metric(
            "service.snapshot_us",
            med("service.snapshot") * 1e6,
            "us",
            "",
        ),
        metric(
            "persist.reused_shards",
            traced.delta.reused as f64,
            "count",
            "",
        ),
        metric(
            "persist.rewritten_shards",
            traced.delta.rewritten as f64,
            "count",
            "",
        ),
        metric(
            "persist.fallbacks",
            traced.delta.fallbacks as f64,
            "count",
            "",
        ),
        metric(
            "loadgen.late_max_ms",
            traced.visibility.late_max_ms,
            "ms",
            "",
        ),
    ]);
    let self_time = self_times(&spans);
    for name in SELF_TIMED {
        let per_call = self_time.get(name).map_or(&[][..], Vec::as_slice);
        out.push(metric(
            &format!("self.{name}_us"),
            median(per_call) * 1e6,
            "us",
            format!("median self time of {} calls", per_call.len()),
        ));
    }
    for (t, u) in end_to_end(traced).into_iter().zip(end_to_end(untraced)) {
        out.push(metric(
            &format!("overhead.{}", t.name),
            t.value - u.value,
            t.unit,
            "traced minus untraced",
        ));
    }
    out
}

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args, work: &Path) -> ExitCode {
    let spec = &args.spec;
    let inputs = spec.inputs(args.seed, args.seconds);
    println!(
        "workload {} seed {}: {} records, {} element occurrences, {} queries, {} fresh records at {}/s",
        spec.name,
        args.seed,
        inputs.dataset.len(),
        inputs.dataset.total_elements(),
        inputs.queries.len(),
        inputs.fresh.len(),
        spec.ingest_rate
    );
    let untraced = spec.run(&inputs, args.seconds, work, &Tracer::new(false));
    println!(
        "host: median reference tick {:.1} us over {} ticks; timings are put at {NOMINAL_TICK_US} us",
        median(&untraced.ticks_us),
        untraced.ticks_us.len()
    );
    let mut failures = untraced.failures.clone();
    let mut attempted = untraced.attempted;
    let metrics = if args.trace {
        let tracer = Tracer::new(true);
        let traced = spec.run(&inputs, args.seconds, work, &tracer);
        let after = spec.run(&inputs, args.seconds, work, &Tracer::new(false));
        for r in [&traced, &after] {
            failures.extend(r.failures.iter().cloned());
            attempted += r.attempted;
        }
        let path = Path::new(OUT_DIR).join(format!("trace-{}-seed{}.jsonl", spec.name, args.seed));
        match trace::write_jsonl(&tracer.spans(), &path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => failures.push(format!("writing {}: {e}", path.display())),
        }
        per_layer(&traced, &after, &tracer)
    } else {
        end_to_end(&untraced)
    };
    for m in &metrics {
        println!(
            "metric {:<42} {:>16.4} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        failures.push(format!("metric {} is not a finite number", m.name));
    }
    for f in &failures {
        println!("FAILED: {f}");
    }
    let failed = failures.len();
    println!(
        "error_rate {} ({failed} failed of {attempted} attempted)",
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "{}",
        json_line(failed == 0, attempted.max(1), failed, &metrics)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work: PathBuf =
        Path::new(OUT_DIR).join(format!("work-{}-{}", args.spec.name, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let code = run(&args, &work);
    // Best effort: a leftover scratch arena is harmless.
    let _ = std::fs::remove_dir_all(&work);
    code
}
