//! Shared plumbing for the flag-taking bench binaries (`query_throughput`,
//! `scale_sweep`, `bench_check`): the Zipf profile family and the engine
//! configuration the two producers measure, typed CLI flag parsing, latency
//! statistics over measured query loops, the dotted-path accessor that
//! re-reads committed reports, and the space-vs-throughput Pareto-frontier
//! arithmetic.
//!
//! The producers and the gate read reports through one vocabulary: a gate
//! failure message always names the path it was probing, and the frontier a
//! sweep writes is recomputed by the gate with the very same
//! [`pareto_frontier`] function — the two cannot disagree about what
//! "dominated" means.

use std::time::Instant;

use gbkmv_core::dataset::Record;
use gbkmv_core::index::GbKmvConfig;
use gbkmv_datagen::synthetic::SyntheticConfig;
use serde_json::Value;

use crate::harness::arg_value;

/// The synthetic Zipf profile family `query_throughput` and `scale_sweep`
/// measure: `num_records` records over a universe of twice as many elements
/// (at least 1,000), element popularity Zipf with `α1 = 1.1`, record sizes a
/// power law with `α2 = 3.0` between 10 and 500 elements.
pub fn zipf_profile(num_records: usize, seed: u64) -> SyntheticConfig {
    SyntheticConfig {
        num_records,
        universe_size: (num_records * 2).max(1_000),
        alpha_element_freq: 1.1,
        alpha_record_size: 3.0,
        min_record_len: 10,
        max_record_len: 500,
        seed,
    }
}

/// The engine every index of `query_throughput` and `scale_sweep` is built
/// with: the `budget` space fraction at the sketch-only operating point,
/// the buffer pinned to `r = 0` instead of the cost model's pick. The
/// committed reports and every `bench_check` floor were measured at that
/// shape, and it must not move when the accuracy-side cost model does:
/// whether the model picks a good `r` is the eval suite's question.
pub fn pinned_engine(budget: f64) -> GbKmvConfig {
    GbKmvConfig::with_space_fraction(budget).buffer_size(0)
}

/// Typed value of a space-separated `--name value` CLI flag, falling back
/// to `default` when the flag is absent.
///
/// # Panics
///
/// Panics on a present-but-unparseable value: the bench binaries record the
/// perf trajectory, so silently benchmarking the default config under a
/// mistyped flag would corrupt the record.
pub fn parsed_arg<T: std::str::FromStr>(name: &str, default: T) -> T {
    match arg_value(name) {
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("invalid value {v:?} for {name}")),
        None => default,
    }
}

/// Value at percentile `p` (0.0–1.0) of an ascending-sorted slice, using
/// nearest-rank interpolation; 0.0 on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Throughput and tail-latency summary of one measured query loop.
#[derive(Debug, Clone, Copy)]
pub struct LatencyStats {
    /// Queries per second over the whole pass.
    pub queries_per_sec: f64,
    /// Median per-query latency, microseconds.
    pub p50_latency_us: f64,
    /// 99th-percentile per-query latency, microseconds.
    pub p99_latency_us: f64,
}

/// Summarises per-query latencies (microseconds) into q/s and percentiles.
pub fn latency_stats(latencies: Vec<f64>) -> LatencyStats {
    let total_us: f64 = latencies.iter().sum();
    let mut sorted = latencies;
    sorted.sort_by(f64::total_cmp);
    LatencyStats {
        queries_per_sec: if total_us > 0.0 {
            sorted.len() as f64 / (total_us * 1e-6)
        } else {
            0.0
        },
        p50_latency_us: percentile(&sorted, 0.50),
        p99_latency_us: percentile(&sorted, 0.99),
    }
}

/// Measures a query path over `reps` timed passes and returns the per-query
/// latencies (µs) of the fastest pass (best-of-N suppresses scheduler noise
/// on the microsecond-scale passes) plus the per-pass hit count.
///
/// One untimed warm-up pass populates caches (and any reusable scratch)
/// first; every timed pass must reproduce the warm-up pass's hit count.
pub fn measure<F>(queries: &[Record], reps: usize, mut run: F) -> (Vec<f64>, usize)
where
    F: FnMut(&Record) -> usize,
{
    let mut total_hits = 0usize;
    for q in queries {
        total_hits += run(q);
    }
    let mut best: Option<Vec<f64>> = None;
    for _ in 0..reps.max(1) {
        let mut latencies = Vec::with_capacity(queries.len());
        let mut check_hits = 0usize;
        for q in queries {
            let start = Instant::now();
            check_hits += run(q);
            latencies.push(start.elapsed().as_secs_f64() * 1e6);
        }
        assert_eq!(total_hits, check_hits, "non-deterministic query path");
        let faster = match &best {
            None => true,
            Some(b) => latencies.iter().sum::<f64>() < b.iter().sum::<f64>(),
        };
        if faster {
            best = Some(latencies);
        }
    }
    (best.expect("at least one rep"), total_hits)
}

/// The value at dotted `path` inside a report, or an error naming the path.
///
/// Each segment is an object key, optionally followed by `[field=value]`,
/// which picks the first entry of that array whose `field` reads `value`
/// (how the reports key their per-path, per-variant and per-batch tables):
/// `paths[name=scan].total_hits`, `ingest.batches[batch_size=128].flush_ms`.
pub fn at<'a>(report: &'a Value, path: &str) -> Result<&'a Value, String> {
    path.split('.')
        .try_fold(report, |v, segment| {
            let (key, pick) = parse_segment(segment);
            let v = v.get(key)?;
            match pick {
                None => Some(v),
                Some((field, want)) => v.as_array()?.iter().find(|e| picks(e, field, want)),
            }
        })
        .ok_or_else(|| format!("the report has no `{path}`"))
}

/// [`at`] for writing: the value at `path`, if present.
pub fn at_mut<'a>(report: &'a mut Value, path: &str) -> Option<&'a mut Value> {
    path.split('.').try_fold(report, |v, segment| {
        let (key, pick) = parse_segment(segment);
        let Value::Object(entries) = v else {
            return None;
        };
        let (_, v) = entries.iter_mut().find(|(k, _)| k == key)?;
        match (pick, v) {
            (None, v) => Some(v),
            (Some((field, want)), Value::Array(items)) => {
                items.iter_mut().find(|e| picks(e, field, want))
            }
            _ => None,
        }
    })
}

/// The number at `path` (integers widen).
pub fn num(report: &Value, path: &str) -> Result<f64, String> {
    at(report, path)?
        .as_f64()
        .ok_or_else(|| format!("`{path}` is not a number"))
}

/// The integer at `path`.
pub fn int(report: &Value, path: &str) -> Result<i64, String> {
    at(report, path)?
        .as_i64()
        .ok_or_else(|| format!("`{path}` is not an integer"))
}

/// The array at `path`.
pub fn list<'a>(report: &'a Value, path: &str) -> Result<&'a [Value], String> {
    at(report, path)?
        .as_array()
        .ok_or_else(|| format!("`{path}` is not an array"))
}

/// Splits `key[field=value]` into the key and the optional selector.
fn parse_segment(segment: &str) -> (&str, Option<(&str, &str)>) {
    match segment.split_once('[') {
        Some((key, selector)) => (
            key,
            selector.strip_suffix(']').and_then(|s| s.split_once('=')),
        ),
        None => (segment, None),
    }
}

/// Whether `entry[field]` reads `want`: a string field compares its text,
/// any other field its JSON rendering.
fn picks(entry: &Value, field: &str, want: &str) -> bool {
    entry.get(field).is_some_and(|f| {
        f.as_str()
            .map_or_else(|| f.to_json() == want, |s| s == want)
    })
}

/// Whether cell `a` dominates cell `b` on the space-vs-throughput plane:
/// no more memory, no less throughput, and strictly better on at least one
/// axis. Ties on both axes dominate in neither direction, so duplicated
/// measurements both stay on the frontier.
pub fn dominates(a: (f64, f64), b: (f64, f64)) -> bool {
    let (mem_a, qps_a) = a;
    let (mem_b, qps_b) = b;
    mem_a <= mem_b && qps_a >= qps_b && (mem_a < mem_b || qps_a > qps_b)
}

/// Indices of the Pareto-optimal `(memory_bytes, queries_per_sec)` points —
/// the cells no other cell dominates — ordered by ascending memory (ties by
/// descending throughput, then input order).
pub fn pareto_frontier(points: &[(f64, f64)]) -> Vec<usize> {
    let mut frontier: Vec<usize> = (0..points.len())
        .filter(|&i| {
            points
                .iter()
                .enumerate()
                .all(|(j, &other)| j == i || !dominates(other, points[i]))
        })
        .collect();
    frontier.sort_by(|&a, &b| {
        points[a]
            .0
            .total_cmp(&points[b].0)
            .then(points[b].1.total_cmp(&points[a].1))
            .then(a.cmp(&b))
    });
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    #[test]
    fn latency_stats_summarise_a_pass() {
        let stats = latency_stats(vec![4.0, 1.0, 2.0, 3.0]);
        // 4 queries over 10 µs total.
        assert!((stats.queries_per_sec - 400_000.0).abs() < 1e-6);
        assert_eq!(stats.p50_latency_us, 3.0);
        assert_eq!(stats.p99_latency_us, 4.0);
        assert_eq!(latency_stats(Vec::new()).queries_per_sec, 0.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 0.5), 3.0);
        assert_eq!(percentile(&sorted, 1.0), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn json_accessors_name_context_and_key() {
        let v: Value =
            serde_json::from_str(r#"{"a": 3, "b": {"c": 1.5, "d": [1], "e": "x"}}"#).unwrap();
        assert_eq!(int(&v, "a").unwrap(), 3);
        assert_eq!(num(&v, "a").unwrap(), 3.0);
        assert_eq!(num(&v, "b.c").unwrap(), 1.5);
        assert_eq!(list(&v, "b.d").unwrap().len(), 1);
        assert!(at(&v, "b.e").is_ok());
        assert_eq!(
            int(&v, "b.missing").unwrap_err(),
            "the report has no `b.missing`"
        );
        assert_eq!(int(&v, "b.c").unwrap_err(), "`b.c` is not an integer");
        assert_eq!(num(&v, "b.e").unwrap_err(), "`b.e` is not a number");
        assert_eq!(list(&v, "a").unwrap_err(), "`a` is not an array");
        assert_eq!(at(&v, "a.b").unwrap_err(), "the report has no `a.b`");
    }

    #[test]
    fn find_named_matches_on_the_given_field() {
        let mut v: Value = serde_json::from_str(
            r#"{"t": [{"name": "a", "x": 1}, {"variant": "b", "x": 2}, {"size": 128, "x": 3}]}"#,
        )
        .unwrap();
        assert_eq!(int(&v, "t[name=a].x").unwrap(), 1);
        assert_eq!(int(&v, "t[variant=b].x").unwrap(), 2);
        assert_eq!(int(&v, "t[size=128].x").unwrap(), 3);
        assert!(at(&v, "t[name=b].x").is_err());
        assert!(at(&v, "t[size=12].x").is_err());
        *at_mut(&mut v, "t[variant=b].x").unwrap() = Value::Int(7);
        assert_eq!(int(&v, "t[variant=b].x").unwrap(), 7);
        assert!(at_mut(&mut v, "t[name=c].x").is_none());
    }

    #[test]
    fn domination_is_strict_somewhere() {
        assert!(dominates((10.0, 5.0), (20.0, 5.0)));
        assert!(dominates((10.0, 6.0), (10.0, 5.0)));
        assert!(
            !dominates((10.0, 5.0), (10.0, 5.0)),
            "ties dominate nothing"
        );
        assert!(
            !dominates((20.0, 6.0), (10.0, 5.0)),
            "more memory never dominates less"
        );
    }

    #[test]
    fn frontier_drops_dominated_points_and_sorts_by_memory() {
        // (mem, qps): b dominates c (less memory, more qps); a and d trade off.
        let points = [
            (100.0, 50.0), // a: frontier (cheapest)
            (200.0, 80.0), // b: frontier
            (250.0, 70.0), // c: dominated by b
            (300.0, 90.0), // d: frontier (fastest)
        ];
        assert_eq!(pareto_frontier(&points), vec![0, 1, 3]);
        // A single point is always its own frontier; an empty input has none.
        assert_eq!(pareto_frontier(&[(1.0, 1.0)]), vec![0]);
        assert!(pareto_frontier(&[]).is_empty());
        // Exact duplicates both survive (neither dominates the other).
        assert_eq!(pareto_frontier(&[(5.0, 5.0), (5.0, 5.0)]), vec![0, 1]);
    }
}
