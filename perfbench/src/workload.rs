//! The workloads, their seeded inputs, and one measured run.
//!
//! Every workload runs the same phases against the default engine
//! (`GbKmvConfig` at a 10% space budget, so the cost model picks the buffer
//! size `r`):
//!
//! 1. **setup** — build the index, [`SETUP_REPS`] times;
//! 2. **cold open** — save it as an arena, then open it and answer one
//!    query, [`OPEN_REPS`] times;
//! 3. **serve** — wrap it in a `ContainmentService`; one closed-loop reader
//!    answers the sampled queries against `snapshot()`, and one open-loop
//!    writer submits fresh records, running `checkpoint_delta` in place
//!    every [`Spec::checkpoint_every`] records. In `ingest_mixed` the writer
//!    runs beside the reader for `--seconds`; elsewhere the reader runs for
//!    `--seconds` and then the writer as long again, so their read figures
//!    see no writes;
//! 4. **verify** — quiesced and untimed: sampled timed answers against the
//!    reference scan, the last checkpoint reopened against the live
//!    service, and (`ingest_mixed`) the service against an index grown
//!    directly from the same records;
//! 5. **accuracy** — untimed: F1 at `t* = 0.5` and recall@10 over
//!    [`ACCURACY_QUERIES`] queries against exact answers.
//!
//! The records are fixed per workload; `--seed` picks the reader's query
//! sample.

use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use gbkmv_core::index::GbKmvConfig;
use gbkmv_core::sim::OverlapThreshold;
use gbkmv_core::{
    ContainmentService, Dataset, DatasetStats, GbKmvIndex, MemUsage, QueryPipeline, Record,
    RecordId, SearchHit,
};
use gbkmv_datagen::queries::QueryWorkload;
use gbkmv_datagen::synthetic::{SyntheticConfig, SyntheticStream};

use crate::oracle::{threshold_truth, ExactOracle};
use crate::reference::{factor, local_factors, Reference};
use crate::stats::{mean_f1, recall_at_k, topk_with_ties, OpenLoop, Visibility};
use crate::trace::Tracer;

/// Containment threshold of every threshold search and of `f1`.
pub const THRESHOLD: f64 = 0.5;
/// `k` of every top-k search and of `recall_at_k`.
pub const K: usize = 10;
/// Queries sampled from the records per workload (the paper's protocol).
/// A run cycles through them. With 2,000, which records `--seed` happened
/// to draw moved a run's p50 and p99 latency by up to 15%.
pub const QUERIES: usize = 10_000;
/// Queries the accuracy metrics are taken over (the paper's protocol).
pub const ACCURACY_QUERIES: usize = 200;
/// Untimed reader queries before the read phase, so caches and the
/// pipeline's scratch are warm when timing starts.
const WARMUP_QUERIES: usize = 200;
/// Every this-many-th query is checked against the reference scan: its
/// timed answer in the first pass, up to [`MAX_CHECKED`] of them, and its
/// answer on the recovered and the regrown index.
pub const CHECK_EVERY: usize = 100;
/// At most this many timed answers are kept for checking (each keeps its
/// generation alive until the check).
pub const MAX_CHECKED: usize = 64;
/// Index builds per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Arena opens per run; `open_ms` is their median.
pub const OPEN_REPS: usize = 15;
/// Reference ticks on each side of a build, on each of its two threads'
/// vCPUs.
const SETUP_TICKS: usize = 8;
/// Reference ticks on each side of an open.
const OPEN_TICKS: usize = 2;
/// Build threads (the reader and writer are one thread each).
pub const BUILD_THREADS: usize = 2;
/// Space budget as a fraction of the dataset size.
pub const SPACE_FRACTION: f64 = 0.1;

/// What the reader asks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Every record with estimated containment ≥ the threshold.
    Threshold(f64),
    /// The `k` records with the highest estimated containment.
    TopK(usize),
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Generator of the indexed records and of the writer's fresh records
    /// (its seed field is unused: see [`DATA_SEED`] and [`FRESH_SEED`]).
    pub family: SyntheticConfig,
    /// Reader query type.
    pub mode: Mode,
    /// Storage shards of the engine.
    pub shards: usize,
    /// Records per second the open-loop writer offers.
    pub ingest_rate: f64,
    /// Records between two in-place delta checkpoints; every checkpoint
    /// follows at least one publication, so none of them is a no-op.
    pub checkpoint_every: usize,
    /// Whether the writer runs beside the reader (otherwise after it).
    pub concurrent: bool,
}

/// The scale-sweep Zipf family (α1 = 1.1, α2 = 3.0, universe = 2 × records,
/// lengths 10–500).
fn zipf_family(records: usize) -> SyntheticConfig {
    SyntheticConfig {
        num_records: records,
        universe_size: 2 * records,
        alpha_element_freq: 1.1,
        alpha_record_size: 3.0,
        min_record_len: 10,
        max_record_len: 500,
        seed: 0,
    }
}

/// Every workload, in `BENCHMARK.json` order.
pub fn specs() -> [Spec; 3] {
    [
        Spec {
            name: "zipf_threshold",
            family: zipf_family(200_000),
            mode: Mode::Threshold(THRESHOLD),
            shards: 1,
            // One 200k-record shard absorbs a 64-record batch in 160 ms on
            // a quiet host and twice that on a loaded one; 100/s keeps the
            // writer under half load on both.
            ingest_rate: 100.0,
            // One batch (`ingest_batch` 64) per checkpoint.
            checkpoint_every: 64,
            concurrent: false,
        },
        Spec {
            name: "uniform_topk",
            // The paper's Fig. 19a uniform profile (α1 = α2 = 0).
            family: SyntheticConfig {
                num_records: 20_000,
                universe_size: 100_000,
                alpha_element_freq: 0.0,
                alpha_record_size: 0.0,
                min_record_len: 10,
                max_record_len: 2_000,
                seed: 0,
            },
            mode: Mode::TopK(K),
            shards: 1,
            // Records average ~1,000 elements; a batch costs about 1 s.
            ingest_rate: 32.0,
            // One batch (`ingest_batch` 64) per checkpoint.
            checkpoint_every: 64,
            concurrent: false,
        },
        Spec {
            name: "ingest_mixed",
            family: zipf_family(100_000),
            mode: Mode::Threshold(THRESHOLD),
            shards: 4,
            ingest_rate: 1_000.0,
            checkpoint_every: 250,
            concurrent: true,
        },
    ]
}

/// The generated inputs of one run.
pub struct Inputs {
    /// The indexed records (fixed per workload).
    pub dataset: Dataset,
    /// The reader's queries, sampled from the records with the run's seed.
    pub queries: Vec<Record>,
    /// The accuracy queries, sampled from the records once per workload.
    pub accuracy_queries: Vec<Record>,
    /// The writer's records, from a generator seed disjoint from the
    /// dataset's (fixed per workload).
    pub fresh: Vec<Record>,
}

/// Generator seed of every workload's records. The data is part of the
/// workload's definition: the accuracy metrics, `index_bytes` and the
/// chosen `r` then repeat exactly across runs, and `--seed` varies what
/// the timed reader asks.
const DATA_SEED: u64 = 0x6B4D_5600_0001;
/// Generator seed of the writer's records.
const FRESH_SEED: u64 = 0x6B4D_5600_0002;
/// Sampling seed of the accuracy queries.
const ACCURACY_SEED: u64 = 0x6B4D_5600_0003;

/// Delta checkpoint outcomes summed over a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct DeltaTotals {
    /// Shards copied from the previous image.
    pub reused: usize,
    /// Shards serialised again.
    pub rewritten: usize,
    /// Checkpoints that fell back to a full rewrite.
    pub fallbacks: usize,
}

/// Per-query work counts, taken through public calls outside the timed
/// loop (traced runs only).
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Mean share of records left live by size pruning (1 for top-k, which
    /// does not prune).
    pub live_fraction: f64,
    /// Mean summed record frequency of the query's buffered elements (an
    /// upper bound on the buffer posting entries walked).
    pub buffer_entries: f64,
    /// Mean summed document frequency of the query's signature hashes.
    pub signature_entries: f64,
}

/// Everything one run measured. Timings are adjusted to the nominal host
/// speed (see `reference.rs`) unless named raw.
#[derive(Debug, Default)]
pub struct Run {
    /// Seconds per build.
    pub setup_s: Vec<f64>,
    /// Milliseconds from `open` to the first answer, per open.
    pub open_ms: Vec<f64>,
    /// Reader latency of every timed query, microseconds, in order.
    pub query_us: Vec<f64>,
    /// The same, raw.
    pub query_raw_us: Vec<f64>,
    /// Reader queries per second of reader time in each tenth of the
    /// timed queries.
    pub window_qps: Vec<f64>,
    /// Every reference tick of the run, microseconds.
    pub ticks_us: Vec<f64>,
    /// Hits returned over the timed queries.
    pub hits: usize,
    /// Writer accounting.
    pub visibility: Visibility,
    /// Milliseconds per timed checkpoint.
    pub checkpoint_ms: Vec<f64>,
    /// Highest `pending()` the writer saw.
    pub pending_max: usize,
    /// Delta checkpoint outcomes.
    pub delta: DeltaTotals,
    /// Mean F1 at [`THRESHOLD`].
    pub f1: f64,
    /// Mean recall@[`K`].
    pub recall_at_k: f64,
    /// Memory of the index the accuracy was taken on.
    pub mem: MemUsage,
    /// Posting bytes of that index.
    pub posting_bytes: usize,
    /// Bitmap posting blocks of that index.
    pub bitmap_blocks: usize,
    /// Size of the saved arena file.
    pub arena_bytes: u64,
    /// Buffer size the cost model chose.
    pub buffer_size: usize,
    /// Work counts (traced runs only).
    pub counts: Option<Counts>,
    /// Operations attempted: opens, queries, submits, checkpoints and
    /// answer comparisons.
    pub attempted: usize,
    /// What failed, one line each.
    pub failures: Vec<String>,
}

impl Run {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// What the reader collected.
#[derive(Default)]
struct ReadLog {
    latencies_us: Vec<f64>,
    /// The reference tick taken after each query.
    ticks_us: Vec<f64>,
    hits: usize,
    /// `(query, generation answered, answer)` for the checked queries.
    samples: Vec<(usize, Arc<GbKmvIndex>, Vec<SearchHit>)>,
}

/// Sets the flag when dropped, so a panicking writer still stops the reader.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

fn ids(hits: &[SearchHit]) -> Vec<RecordId> {
    hits.iter().map(|h| h.record_id).collect()
}

/// Indices of the queries whose answers are compared.
fn checked_queries(queries: &[Record]) -> impl Iterator<Item = usize> {
    (0..queries.len()).step_by(CHECK_EVERY)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Spec {
    /// The engine configuration: the default at a 10% budget, with the
    /// build thread count pinned and this workload's shard count.
    pub fn config(&self) -> GbKmvConfig {
        GbKmvConfig::with_space_fraction(SPACE_FRACTION)
            .threads(BUILD_THREADS)
            .shards(self.shards)
    }

    /// Records the writer submits in a run of `seconds`, beside the reader
    /// or after it.
    pub fn fresh_records(&self, seconds: f64) -> usize {
        ((self.ingest_rate * seconds).round() as usize).max(1)
    }

    /// Generates the inputs of a run from `seed`.
    pub fn inputs(&self, seed: u64, seconds: f64) -> Inputs {
        let dataset = Dataset::from_records(SyntheticStream::new(SyntheticConfig {
            seed: DATA_SEED,
            ..self.family
        }));
        let sample =
            |count, seed| QueryWorkload::sample_from_dataset(&dataset, count, seed).queries;
        let queries = sample(QUERIES, seed);
        let accuracy_queries = sample(ACCURACY_QUERIES, ACCURACY_SEED);
        let fresh = SyntheticStream::new(SyntheticConfig {
            num_records: self.fresh_records(seconds),
            seed: FRESH_SEED,
            ..self.family
        })
        .collect();
        Inputs {
            dataset,
            queries,
            accuracy_queries,
            fresh,
        }
    }

    /// The timed call: one reader query.
    fn answer(
        &self,
        index: &GbKmvIndex,
        pipeline: &mut QueryPipeline,
        q: &Record,
    ) -> Vec<SearchHit> {
        match self.mode {
            Mode::Threshold(t) => pipeline.search_sorted(index, q.elements(), t),
            Mode::TopK(k) => index.search_topk(q, k),
        }
    }

    /// What [`Spec::answer`] must return, from the reference scan. For
    /// top-k: the scan's positive scores ranked by (containment desc,
    /// record id asc), cut at `k`.
    fn reference(&self, index: &GbKmvIndex, q: &Record) -> Vec<SearchHit> {
        match self.mode {
            Mode::Threshold(t) => index.search_scan(q, t),
            Mode::TopK(k) => {
                let mut all: Vec<SearchHit> = index
                    .search_scan(q, 0.0)
                    .into_iter()
                    .filter(|h| h.estimated_containment > 0.0)
                    .collect();
                all.sort_by(|a, b| {
                    b.estimated_containment
                        .total_cmp(&a.estimated_containment)
                        .then(a.record_id.cmp(&b.record_id))
                });
                all.truncate(k);
                all
            }
        }
    }

    /// Runs every phase once.
    pub fn run(&self, inputs: &Inputs, seconds: f64, work: &Path, trace: &Tracer) -> Run {
        let mut run = Run::default();
        let config = self.config();

        let mut reference = Reference::new();
        let mut index = None;
        let mut before = None;
        for rep in 0..SETUP_REPS {
            // Free the previous build before the next one starts.
            drop(index.take());
            let before_us = before.unwrap_or_else(|| reference.ticks_on_two(SETUP_TICKS));
            let (built, secs) = self.setup(&inputs.dataset, config, trace, rep);
            let after_us = reference.ticks_on_two(SETUP_TICKS);
            run.setup_s.push(secs * factor(before_us, after_us));
            before = Some(after_us);
            index = Some(built);
        }
        let index = index.expect("SETUP_REPS is positive");
        run.buffer_size = index.summary().buffer_size;

        let arena = work.join("index.arena");
        self.cold_open(
            &index,
            &arena,
            &inputs.queries[0],
            trace,
            &mut reference,
            &mut run,
        );
        run.ticks_us.append(&mut reference.ticks_us);

        let service = ContainmentService::new(index);
        let base = service.snapshot();
        let mut warm = QueryPipeline::new();
        for q in &inputs.queries[..WARMUP_QUERIES] {
            black_box(self.answer(&base, &mut warm, q));
        }

        let read = if self.concurrent {
            let done = AtomicBool::new(false);
            thread::scope(|s| {
                let writer = s.spawn(|| {
                    let _stop = SetOnDrop(&done);
                    self.ingest(&service, &inputs.fresh, &arena, trace, &mut run);
                });
                let read = self.read_loop(&service, &inputs.queries, trace, &|_| {
                    done.load(Ordering::Acquire)
                });
                writer.join().expect("the writer thread does not panic");
                read
            })
        } else {
            let read_for = Duration::from_secs_f64(seconds);
            let read = self.read_loop(&service, &inputs.queries, trace, &|t| t >= read_for);
            self.ingest(&service, &inputs.fresh, &arena, trace, &mut run);
            read
        };
        run.attempted += read.latencies_us.len();
        run.query_us = read
            .latencies_us
            .iter()
            .zip(local_factors(&read.ticks_us))
            .map(|(us, f)| us * f)
            .collect();
        run.query_raw_us = read.latencies_us;
        run.window_qps = chunk_rates(&run.query_us, 10);
        run.ticks_us.extend(read.ticks_us);
        run.hits = read.hits;

        for (qi, generation, hits) in &read.samples {
            let q = &inputs.queries[*qi];
            let ok = self.reference(generation, q) == *hits;
            run.check(ok, || {
                format!("query {qi}: timed answer differs from the reference scan")
            });
        }
        self.verify_recovery(&service, &arena, &inputs.queries, &mut run);
        if self.concurrent {
            self.verify_regrow(&service, inputs, &mut run);
        }

        // Accuracy and the index figures come from the index the reads
        // started on, except under concurrent ingest, where they come from
        // the final generation over every record it holds.
        let grown;
        let (measured, dataset) = if self.concurrent {
            grown = Dataset::from_records(
                inputs
                    .dataset
                    .records()
                    .iter()
                    .chain(&inputs.fresh)
                    .cloned(),
            );
            (service.snapshot(), &grown)
        } else {
            (base.clone(), &inputs.dataset)
        };
        let (f1, recall) = self.accuracy(&measured, dataset, &inputs.accuracy_queries);
        run.f1 = f1;
        run.recall_at_k = recall;
        run.mem = measured.mem_usage();
        run.posting_bytes = measured.posting_bytes();
        run.bitmap_blocks = measured.bitmap_blocks();
        if trace.enabled() {
            run.counts = Some(self.counts(&base, &inputs.dataset, &inputs.queries, trace));
        }
        run
    }

    fn setup(
        &self,
        dataset: &Dataset,
        config: GbKmvConfig,
        trace: &Tracer,
        rep: usize,
    ) -> (GbKmvIndex, f64) {
        let outer = trace.open();
        let start = Instant::now();
        // `GbKmvIndex::build` is exactly these two calls.
        let s = trace.open();
        let stats = DatasetStats::compute(dataset);
        trace.close(s, "stats.compute", outer.id(), rep);
        let b = trace.open();
        let index = GbKmvIndex::build_with_stats(dataset, &stats, config);
        trace.close(b, "index.build", outer.id(), rep);
        let secs = start.elapsed().as_secs_f64();
        trace.close(outer, "setup", None, rep);
        (index, secs)
    }

    fn cold_open(
        &self,
        index: &GbKmvIndex,
        arena: &Path,
        q: &Record,
        trace: &Tracer,
        reference: &mut Reference,
        run: &mut Run,
    ) {
        let saved = index.save(arena);
        run.check(saved.is_ok(), || format!("save: {saved:?}"));
        run.arena_bytes = std::fs::metadata(arena).map_or(0, |m| m.len());
        let expected = self.answer(index, &mut QueryPipeline::new(), q);
        // Every open reads the arena into a buffer it never frees. Touch as
        // much memory as the opens will take and free it first, so that the
        // opens reuse pages the host has already backed instead of a
        // varying share of pages it must first provide.
        let arena_len = usize::try_from(run.arena_bytes).unwrap_or(0);
        drop(black_box(vec![1u8; OPEN_REPS * arena_len]));
        let mut before_us = reference.ticks(OPEN_TICKS);
        for rep in 0..OPEN_REPS {
            let outer = trace.open();
            let start = Instant::now();
            let o = trace.open();
            let opened = GbKmvIndex::open(arena);
            trace.close(o, "persist.open", outer.id(), rep);
            let opened = match opened {
                Ok(opened) => opened,
                Err(e) => {
                    run.check(false, || format!("open: {e}"));
                    continue;
                }
            };
            let a = trace.open();
            let got = self.answer(&opened, &mut QueryPipeline::new(), q);
            trace.close(a, "persist.first_answer", outer.id(), rep);
            let took = ms(start.elapsed());
            trace.close(outer, "cold_open", None, rep);
            drop(opened);
            let after_us = reference.ticks(OPEN_TICKS);
            run.open_ms.push(took * factor(before_us, after_us));
            before_us = after_us;
            run.check(got == expected, || {
                "first answer of the opened arena differs from the built index".to_string()
            });
        }
    }

    /// Closed loop, one client: each query takes a fresh snapshot, answers,
    /// and the next starts when it returns. The timed window ends after the
    /// snapshot is dropped, so freeing a superseded generation is charged to
    /// the query that released it. A reference tick follows each query,
    /// outside its timed window.
    fn read_loop(
        &self,
        service: &ContainmentService,
        queries: &[Record],
        trace: &Tracer,
        stop: &dyn Fn(Duration) -> bool,
    ) -> ReadLog {
        let mut log = ReadLog::default();
        let mut pipeline = QueryPipeline::new();
        let mut reference = Reference::new();
        let start = Instant::now();
        for i in 0.. {
            let qi = i % queries.len();
            let q = &queries[qi];
            let outer = trace.open();
            let t0 = Instant::now();
            let s = trace.open();
            let generation = service.snapshot();
            trace.close(s, "service.snapshot", outer.id(), qi);
            let p = trace.open();
            let hits = self.answer(&generation, &mut pipeline, q);
            trace.close(p, "pipeline.search", outer.id(), qi);
            // A checked answer keeps its generation for verification.
            let kept = if i < queries.len()
                && qi.is_multiple_of(CHECK_EVERY)
                && log.samples.len() < MAX_CHECKED
            {
                Some(generation)
            } else {
                drop(generation);
                None
            };
            let took = t0.elapsed();
            trace.close(outer, "read.query", None, qi);
            log.latencies_us.push(took.as_secs_f64() * 1e6);
            log.hits += hits.len();
            if let Some(generation) = kept {
                log.samples.push((qi, generation, hits));
            }
            log.ticks_us.push(reference.tick());
            if stop(start.elapsed()) {
                break;
            }
        }
        log
    }

    /// Open loop: record `i` is due `i / rate` after the start; a late
    /// generator submits at once and the lateness is charged to the record.
    /// A record whose submit will flush, or that a checkpoint follows, is
    /// preceded and followed by a reference tick; the flush and the
    /// checkpoint are adjusted by those two ticks, and so is their share of
    /// each record's visibility latency.
    fn ingest(
        &self,
        service: &ContainmentService,
        fresh: &[Record],
        arena: &Path,
        trace: &Tracer,
        log: &mut Run,
    ) {
        let schedule = OpenLoop::new(self.ingest_rate);
        let base = service.snapshot().num_records();
        let mut accepted = 0;
        let mut reference = Reference::new();
        let start = Instant::now();
        for (i, record) in fresh.iter().enumerate() {
            let record = record.clone();
            let due = schedule.due(i);
            if let Some(wait) = due.checked_sub(start.elapsed()) {
                thread::sleep(wait);
            }
            let checkpoints = (i + 1).is_multiple_of(self.checkpoint_every);
            let long = checkpoints || service.pending() + 1 >= service.ingest_batch();
            let before_us = long.then(|| reference.tick());
            let outer = trace.open();
            log.visibility.submitted(due, start.elapsed());
            let generation = service.generation();
            let s = trace.open();
            let t0 = Instant::now();
            let submitted = service.submit(record);
            let submit_took = t0.elapsed();
            let published = service.generation() != generation;
            let name = if published {
                "service.flush"
            } else {
                "service.submit"
            };
            trace.close(s, name, outer.id(), i);
            if submitted.is_ok() {
                accepted += 1;
            }
            log.check(submitted.is_ok(), || format!("submit {i}: {submitted:?}"));
            // Raw engine time of this record's flush and checkpoint.
            let mut engine = Vec::new();
            if published {
                let s = trace.open();
                let visible = service.snapshot().num_records();
                trace.close(s, "service.snapshot", outer.id(), i);
                let at = start.elapsed();
                engine.push((at, submit_took));
                log.visibility.published(at);
                log.check(visible == base + accepted, || {
                    format!(
                        "after submit {i}: {visible} records visible, expected {}",
                        base + accepted
                    )
                });
            }
            log.pending_max = log.pending_max.max(service.pending());
            let mut checkpoint = None;
            if checkpoints {
                let s = trace.open();
                let t0 = Instant::now();
                let report = service.checkpoint_delta(arena, arena, false);
                let took = t0.elapsed();
                checkpoint = Some(took);
                engine.push((start.elapsed(), took));
                trace.close(s, "service.checkpoint", outer.id(), i);
                match report.map(|r| r.delta) {
                    Ok(Some(d)) => {
                        log.delta.reused += d.reused_shards;
                        log.delta.rewritten += d.rewritten_shards;
                        log.delta.fallbacks += usize::from(d.fallback);
                        log.attempted += 1;
                    }
                    other => log.check(false, || format!("checkpoint after {i}: {other:?}")),
                }
            }
            trace.close(outer, "ingest.record", None, i);
            if engine.is_empty() {
                continue;
            }
            // A flush the queue length did not predict has only the tick
            // after it.
            let after_us = reference.tick();
            let f = factor(before_us.unwrap_or(after_us), after_us);
            for (end, took) in engine {
                log.visibility
                    .engine(end, took.as_secs_f64() * 1e3 * (1.0 - f));
            }
            if let Some(took) = checkpoint {
                log.checkpoint_ms.push(ms(took) * f);
            }
        }
        log.ticks_us.append(&mut reference.ticks_us);
        // Quiesce: publish the partial last batch.
        let tail = log.visibility.pending();
        let flushed = service.flush();
        if flushed > 0 {
            log.visibility.published(start.elapsed());
        }
        log.check(flushed == tail, || {
            format!("final flush took {flushed} of {tail} queued records")
        });
    }

    /// Writes a last in-place checkpoint, reopens it, and compares it with
    /// the live service.
    fn verify_recovery(
        &self,
        service: &ContainmentService,
        arena: &Path,
        queries: &[Record],
        run: &mut Run,
    ) {
        let live = service.snapshot();
        let report = service.checkpoint_delta(arena, arena, false);
        run.check(matches!(report, Ok(r) if r.pending == 0), || {
            format!("final checkpoint: {report:?}")
        });
        let recovered = match GbKmvIndex::open(arena) {
            Ok(index) => index,
            Err(e) => return run.check(false, || format!("reopen: {e}")),
        };
        run.check(recovered.num_records() == live.num_records(), || {
            "reopened checkpoint holds a different record count".to_string()
        });
        let mut pipeline = QueryPipeline::new();
        for qi in checked_queries(queries) {
            let q = &queries[qi];
            let ok =
                self.answer(&recovered, &mut pipeline, q) == self.answer(&live, &mut pipeline, q);
            run.check(ok, || {
                format!("query {qi}: reopened checkpoint answers differently")
            });
        }
    }

    /// Compares the service with an index grown by direct inserts of the
    /// same records in the same order.
    fn verify_regrow(&self, service: &ContainmentService, inputs: &Inputs, run: &mut Run) {
        let live = service.snapshot();
        let mut direct = GbKmvIndex::build(&inputs.dataset, self.config());
        for record in &inputs.fresh {
            direct.insert(record);
        }
        run.check(direct.num_records() == live.num_records(), || {
            "service and directly grown index differ in record count".to_string()
        });
        let mut pipeline = QueryPipeline::new();
        for qi in checked_queries(&inputs.queries) {
            let q = &inputs.queries[qi];
            let ok = self.answer(&direct, &mut pipeline, q) == self.answer(&live, &mut pipeline, q);
            run.check(ok, || {
                format!("query {qi}: service and directly grown index disagree")
            });
        }
    }

    /// Mean F1 at [`THRESHOLD`] and mean recall@[`K`] against exact answers.
    fn accuracy(&self, index: &GbKmvIndex, dataset: &Dataset, queries: &[Record]) -> (f64, f64) {
        let mut oracle = ExactOracle::new(dataset);
        let mut pipeline = QueryPipeline::new();
        let (mut truths, mut answers, mut recall) = (Vec::new(), Vec::new(), 0.0);
        for q in queries {
            let overlaps = oracle.overlaps(q);
            truths.push(threshold_truth(q, &overlaps, THRESHOLD));
            answers.push(ids(&pipeline.search_sorted(index, q.elements(), THRESHOLD)));
            let exact = topk_with_ties(&overlaps, K);
            recall += recall_at_k(&exact, &ids(&index.search_topk(q, K)), K);
        }
        (mean_f1(&truths, &answers), recall / queries.len() as f64)
    }

    /// Per-query work counts, and a traced pass of `sketch_query` over the
    /// same queries.
    fn counts(
        &self,
        index: &GbKmvIndex,
        dataset: &Dataset,
        queries: &[Record],
        trace: &Tracer,
    ) -> Counts {
        let stats = DatasetStats::compute(dataset);
        let mut frequency = vec![0usize; dataset.universe_size()];
        for f in &stats.element_frequencies {
            frequency[f.element as usize] = f.frequency;
        }
        let layout = index.sketcher().layout();
        let shards = index.sharded().shards();
        let records = index.num_records() as f64;
        let mut c = Counts::default();
        for (qi, q) in queries.iter().enumerate() {
            let s = trace.open();
            let sketch = index.sketch_query(q);
            trace.close(s, "gbkmv.sketch_query", None, qi);
            c.buffer_entries += q
                .iter()
                .filter(|&e| layout.contains(e))
                .map(|e| frequency[e as usize])
                .sum::<usize>() as f64;
            for shard in shards {
                let store = shard.store();
                c.signature_entries += sketch
                    .gkmv
                    .hashes()
                    .iter()
                    .map(|&h| store.hash_df(h))
                    .sum::<usize>() as f64;
            }
            c.live_fraction += match self.mode {
                Mode::Threshold(t) => {
                    let min_size = OverlapThreshold::new(q.len(), t).exact;
                    shards
                        .iter()
                        .map(|s| s.store().live_prefix(min_size))
                        .sum::<usize>() as f64
                        / records
                }
                Mode::TopK(_) => 1.0,
            };
        }
        let n = queries.len() as f64;
        Counts {
            live_fraction: c.live_fraction / n,
            buffer_entries: c.buffer_entries / n,
            signature_entries: c.signature_entries / n,
        }
    }
}

/// Queries per second of reader time in each of `chunks` consecutive,
/// equal-count slices of the latencies (microseconds): the slice's count
/// over the sum of its latencies.
fn chunk_rates(latencies_us: &[f64], chunks: usize) -> Vec<f64> {
    let n = latencies_us.len();
    if n < chunks {
        return Vec::new();
    }
    (0..chunks)
        .map(|c| {
            let slice = &latencies_us[c * n / chunks..(c + 1) * n / chunks];
            slice.len() as f64 / (slice.iter().sum::<f64>() / 1e6)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_rates_split_the_samples_evenly() {
        // 100 queries of 10 ms: 100 per second in every slice.
        let rates = chunk_rates(&[10_000.0; 100], 10);
        assert_eq!(rates.len(), 10);
        assert!(rates.iter().all(|&r| (r - 100.0).abs() < 1e-9));
        // A slice of slower queries reads a lower rate.
        let mut lat = vec![1_000.0; 20];
        lat[10..].fill(2_000.0);
        assert_eq!(chunk_rates(&lat, 2), vec![1_000.0, 500.0]);
        assert!(chunk_rates(&[1.0; 3], 10).is_empty());
    }
}
