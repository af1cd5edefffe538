//! The concurrent serving layer: snapshot reads over a batched ingest queue.
//!
//! A [`ContainmentService`] wraps a [`GbKmvIndex`] behind a *generation*
//! publication protocol so the index can serve queries **while** it absorbs
//! new records:
//!
//! * **Readers** take an [`Arc`] snapshot of the current generation
//!   ([`ContainmentService::snapshot`]) — one mutex-protected `Arc` clone,
//!   a few nanoseconds — and run any number of queries against it. A
//!   published generation is immutable, so a reader never observes a
//!   half-applied insert, never blocks on a writer, and its whole result
//!   set is attributable to exactly one generation.
//! * **Writers** submit records into a batched ingest queue
//!   ([`ContainmentService::submit`]). When the queue reaches the
//!   configured batch size (or on an explicit
//!   [`ContainmentService::flush`]) the next generation is built *outside*
//!   the publication lock — the current index is cloned and the whole queue
//!   is appended by one [`GbKmvIndex::insert_batch`], which merges it into
//!   the tail shard up to the shard cap and opens new shards past it — and
//!   then published with one atomic `Arc` swap.
//!
//! Because the generation build is the same sorted merge a bulk build
//! runs, the load-bearing invariant of the sequential engine carries over
//! verbatim:
//! **every published generation is bit-identical, shard for shard, to
//! shards built from scratch over the same record sequence at the same
//! shard boundaries** (which depend only on the record count, not on the
//! batching), so snapshot queries agree with build-from-scratch queries
//! under concurrent publication (the
//! `query_agreement` property suite and the `concurrent` bench section pin
//! this).
//!
//! Publication is copy-on-write at shard granularity: a generation "clone"
//! is a handful of `Arc` pointer bumps (the shards themselves are shared),
//! and the merge builds a new tail shard in place of the old one's `Arc`
//! (or new shards after it), so a flush costs at most one merge of an
//! under-cap shard with the batch rather than O(index) work, while readers still get wait-free immutable snapshots with zero
//! coordination on the hot query path. Untouched shards are pointer-equal
//! across generations — the property suite asserts this, and
//! [`ContainmentService::checkpoint_delta`] exploits it to rewrite only
//! the dirty tail of the file on disk. Writers are serialised by a
//! dedicated mutex, so concurrent flushes cannot lose queued records or
//! publish out of order; checkpoints are serialised by another, so two
//! checkpoints of one file never interleave their writes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::dataset::{ElementId, Record};
use crate::error::{Error, Result};
use crate::index::{ContainmentIndex, GbKmvIndex, SearchHit};
use crate::persist::DeltaStats;

/// What a [`ContainmentService::checkpoint`] (or
/// [`checkpoint_delta`](ContainmentService::checkpoint_delta)) wrote.
///
/// `pending` is the field that keeps a checkpoint honest: records sitting
/// in the ingest queue are *not* part of the written image unless the
/// caller asked for `flush_first`, and the report says exactly how many
/// were left out instead of silently dropping them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Records in the generation the checkpoint wrote.
    pub records: u64,
    /// Queued records flushed into that generation first (always 0 when
    /// `flush_first` was false).
    pub flushed: usize,
    /// Queued records **not** covered by the written image (0 when
    /// `flush_first` was true, barring concurrent submissions).
    pub pending: usize,
    /// Delta accounting when the checkpoint was written against a previous
    /// image; `None` for a plain full checkpoint.
    pub delta: Option<DeltaStats>,
}

/// Recovers the guard from a poisoned mutex.
///
/// Every critical section in this module leaves its protected value valid at
/// every intermediate point (an `Arc` store, a `Vec` push/drain), so a panic
/// inside one cannot corrupt state and the poison flag is safely ignored —
/// a serving layer must keep answering queries even if one worker died.
fn relock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A concurrent containment-search service: wait-free snapshot reads over a
/// [`GbKmvIndex`], with writes absorbed through a batched ingest queue and
/// published as immutable generations (see the module docs for the
/// protocol).
#[derive(Debug)]
pub struct ContainmentService {
    /// The publication slot holding the current generation. Readers clone
    /// the `Arc` under the lock (nanoseconds); the writer swaps in the next
    /// generation under the same lock. Never held during a generation
    /// build.
    current: Mutex<Arc<GbKmvIndex>>,
    /// Records submitted but not yet part of any published generation.
    queue: Mutex<Vec<Record>>,
    /// Serialises generation builds: a flush holds this for the whole
    /// clone-insert-publish cycle, so publications are totally ordered and
    /// racing flushes cannot drop queued records.
    writer: Mutex<()>,
    /// Number of generations published on top of the seed index.
    generation: AtomicU64,
    /// Queue length at which [`ContainmentService::submit`] flushes
    /// automatically (from [`crate::index::GbKmvConfig::ingest_batch`]).
    ingest_batch: usize,
    /// Serialises checkpoints: every [`ContainmentService::checkpoint`] and
    /// [`ContainmentService::checkpoint_delta`] holds it while it writes,
    /// so a full and a delta checkpoint of one file cannot tear it. Apart
    /// from `writer`, so flushes never wait on checkpoint I/O.
    checkpoint: Mutex<()>,
}

impl ContainmentService {
    /// Wraps an existing index as generation 0 of a service. The auto-flush
    /// batch size comes from the index's
    /// [`ingest_batch`](crate::index::GbKmvConfig::ingest_batch)
    /// configuration.
    pub fn new(index: GbKmvIndex) -> Self {
        let ingest_batch = index.config().ingest_batch.max(1);
        ContainmentService {
            current: Mutex::new(Arc::new(index)),
            queue: Mutex::new(Vec::new()),
            writer: Mutex::new(()),
            generation: AtomicU64::new(0),
            ingest_batch,
            checkpoint: Mutex::new(()),
        }
    }

    /// Builds an index over `dataset` and wraps it as a service (a
    /// convenience composition of [`GbKmvIndex::build`] and
    /// [`ContainmentService::new`]).
    pub fn build(dataset: &crate::dataset::Dataset, config: crate::index::GbKmvConfig) -> Self {
        ContainmentService::new(GbKmvIndex::build(dataset, config))
    }

    /// Opens a service over an index arena file previously written by
    /// [`ContainmentService::checkpoint`] (or [`GbKmvIndex::save`]): the
    /// index is loaded zero-copy (see [`crate::persist`]) instead of being
    /// rebuilt, and becomes generation 0 of the new service.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self> {
        Ok(ContainmentService::new(GbKmvIndex::open(path)?))
    }

    /// Writes a generation to `path` as a single arena file.
    ///
    /// With `flush_first` the ingest queue is drained into a new generation
    /// before the write, so every record submitted so far is covered.
    /// Without it the **current published generation** is serialized
    /// directly — no clone, no extra generation, readers and writers
    /// completely unaffected — and any queued-but-unflushed records are
    /// reported in [`CheckpointReport::pending`] rather than silently left
    /// out. Concurrent checkpoints, full or delta, take turns, so each
    /// leaves a whole image.
    pub fn checkpoint(
        &self,
        path: impl AsRef<std::path::Path>,
        flush_first: bool,
    ) -> Result<CheckpointReport> {
        self.write_checkpoint(flush_first, |index| index.save(path).map(|()| None))
    }

    /// [`ContainmentService::checkpoint`], but written as a **delta**
    /// against the arena previously saved at `prev_path` (see
    /// [`GbKmvIndex::save_delta`]): the file is rewritten in place from its
    /// first dirty shard on, so a checkpoint under steady ingest writes only
    /// the shards the flushes since the last one touched, each at most the
    /// shard cap. When the paths differ,
    /// `prev_path` is copied to `path` first. A missing or unusable
    /// previous image degrades to a full rewrite
    /// ([`DeltaStats::fallback`]), never an error.
    pub fn checkpoint_delta(
        &self,
        path: impl AsRef<std::path::Path>,
        prev_path: impl AsRef<std::path::Path>,
        flush_first: bool,
    ) -> Result<CheckpointReport> {
        self.write_checkpoint(flush_first, |index| {
            index.save_delta(path, prev_path).map(Some)
        })
    }

    /// Both checkpoints: flushes first if asked, then writes the current
    /// generation under the checkpoint lock.
    fn write_checkpoint(
        &self,
        flush_first: bool,
        write: impl FnOnce(&GbKmvIndex) -> Result<Option<DeltaStats>>,
    ) -> Result<CheckpointReport> {
        let flushed = if flush_first { self.flush() } else { 0 };
        let _checkpoint = relock(&self.checkpoint);
        let snapshot = self.snapshot();
        Ok(CheckpointReport {
            records: snapshot.num_records() as u64,
            flushed,
            pending: self.pending(),
            delta: write(&snapshot)?,
        })
    }

    /// The current generation: an immutable snapshot every query method of
    /// [`GbKmvIndex`] can run against without further coordination.
    ///
    /// The snapshot stays valid (and unchanged) for as long as the caller
    /// holds the `Arc`, regardless of how many generations are published
    /// meanwhile.
    pub fn snapshot(&self) -> Arc<GbKmvIndex> {
        relock(&self.current).clone()
    }

    /// How many generations have been published on top of the seed index.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Number of submitted records not yet part of a published generation.
    pub fn pending(&self) -> usize {
        relock(&self.queue).len()
    }

    /// The auto-flush batch size this service was configured with.
    pub fn ingest_batch(&self) -> usize {
        self.ingest_batch
    }

    /// Queues one record for ingestion. The record becomes visible to
    /// readers at the next publication; records are assigned ascending
    /// record ids in submission order at that point.
    ///
    /// Returns [`Error::EmptyRecord`] for a record with no elements (the
    /// sketcher cannot represent one) instead of letting it panic a flush
    /// later — a serving layer rejects bad input at the door.
    ///
    /// When the queue reaches the configured batch size the calling thread
    /// flushes it inline; readers are unaffected (they keep answering from
    /// the previous generation until the swap).
    pub fn submit(&self, record: Record) -> Result<()> {
        if record.is_empty() {
            let record_id = self.snapshot().num_records() + self.pending();
            return Err(Error::EmptyRecord { record_id });
        }
        let should_flush = {
            let mut queue = relock(&self.queue);
            queue.push(record);
            queue.len() >= self.ingest_batch
        };
        if should_flush {
            self.flush();
        }
        Ok(())
    }

    /// Queues a batch of records ([`ContainmentService::submit`] semantics,
    /// one validation pass, at most one flush). Returns the number queued;
    /// on the first invalid record the whole batch is rejected and nothing
    /// is queued.
    pub fn submit_batch(&self, records: Vec<Record>) -> Result<usize> {
        let base = self.snapshot().num_records() + self.pending();
        if let Some(offset) = records.iter().position(Record::is_empty) {
            return Err(Error::EmptyRecord {
                record_id: base + offset,
            });
        }
        let count = records.len();
        let should_flush = {
            let mut queue = relock(&self.queue);
            queue.extend(records);
            queue.len() >= self.ingest_batch
        };
        if should_flush {
            self.flush();
        }
        Ok(count)
    }

    /// Drains the ingest queue into the next generation and publishes it;
    /// returns how many records the new generation absorbed (0 when the
    /// queue was empty — nothing is published then).
    ///
    /// The generation build runs outside the publication lock: readers keep
    /// snapshotting the previous generation until the single `Arc` swap at
    /// the end. Concurrent flushes serialise on the writer lock, so every
    /// submitted record lands in exactly one generation, in submission
    /// order.
    pub fn flush(&self) -> usize {
        let _writer = relock(&self.writer);
        let pending = std::mem::take(&mut *relock(&self.queue));
        if pending.is_empty() {
            return 0;
        }
        // Clone-and-grow outside the publication lock. The clone is
        // O(shards) Arc bumps, no shard data copied, and the insert below
        // builds a new tail shard from the old one and the queue (opening
        // new shards past the shard cap), so this build is O(shard cap +
        // batch) once per flush, not once per record. The writer lock is held, so `current`
        // cannot change underneath us.
        let mut next = GbKmvIndex::clone(&self.snapshot());
        next.insert_batch(&pending);
        *relock(&self.current) = Arc::new(next);
        self.generation.fetch_add(1, Ordering::AcqRel);
        pending.len()
    }

    /// [`GbKmvIndex::search_elements`] against the current snapshot.
    pub fn search(&self, query: &[ElementId], t_star: f64) -> Vec<SearchHit> {
        self.snapshot().search_elements(query, t_star)
    }

    /// [`GbKmvIndex::search_batch`] against one consistent snapshot: the
    /// whole batch is answered by a single generation even if publications
    /// happen mid-batch.
    pub fn search_batch(&self, queries: &[Record], t_star: f64) -> Vec<Vec<SearchHit>> {
        self.snapshot().search_batch(queries, t_star)
    }
}

impl ContainmentIndex for ContainmentService {
    fn search(&self, query: &[ElementId], t_star: f64) -> Vec<SearchHit> {
        ContainmentService::search(self, query, t_star)
    }

    fn search_batch(&self, queries: &[Record], t_star: f64) -> Vec<Vec<SearchHit>> {
        ContainmentService::search_batch(self, queries, t_star)
    }

    fn space_elements(&self) -> f64 {
        self.snapshot().space_elements()
    }

    fn name(&self) -> &'static str {
        "GB-KMV/service"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::index::GbKmvConfig;

    fn dataset(n: usize) -> Dataset {
        Dataset::from_records(
            (0..n)
                .map(|i| {
                    (0..(4 + i as u32 % 7))
                        .map(|j| (i as u32 * 13 + j * 5) % 97)
                        .collect()
                })
                .collect::<Vec<Vec<u32>>>(),
        )
    }

    fn config() -> GbKmvConfig {
        GbKmvConfig::with_space_fraction(1.0).ingest_batch(4)
    }

    #[test]
    fn snapshot_is_stable_across_publications() {
        let base = dataset(10);
        let service = ContainmentService::build(&base, config());
        let before = service.snapshot();
        let records: Vec<Record> = dataset(14).records()[10..].to_vec();
        service.submit_batch(records).unwrap();
        service.flush();
        assert_eq!(before.num_records(), 10, "held snapshot must not move");
        assert_eq!(service.snapshot().num_records(), 14);
    }

    #[test]
    fn generations_match_build_from_scratch() {
        let all = dataset(20);
        let base =
            Dataset::from_records(all.records().iter().take(12).map(|r| r.elements().to_vec()));
        let service = ContainmentService::build(&base, config());
        for record in all.records().iter().skip(12) {
            service.submit(record.clone()).unwrap();
        }
        service.flush();
        assert!(service.generation() >= 1);
        assert_eq!(service.pending(), 0);

        let scratch = GbKmvIndex::build(&all, config());
        let snap = service.snapshot();
        let query: Vec<u32> = all.records()[3].elements().to_vec();
        assert_eq!(
            snap.search_elements(&query, 0.3),
            scratch.search_elements(&query, 0.3),
            "service generation diverged from build-from-scratch"
        );
        assert_eq!(snap.num_records(), scratch.num_records());
    }

    #[test]
    fn auto_flush_publishes_at_the_batch_size() {
        let service = ContainmentService::build(&dataset(6), config());
        let extra: Vec<Record> = dataset(12).records()[6..].to_vec();
        for (i, r) in extra.into_iter().enumerate() {
            service.submit(r).unwrap();
            if i < 3 {
                assert_eq!(service.generation(), 0, "flushed before the batch filled");
            }
        }
        // 6 submissions at batch size 4: one auto-flush, 2 still pending.
        assert_eq!(service.generation(), 1);
        assert_eq!(service.pending(), 2);
        assert_eq!(service.snapshot().num_records(), 10);
    }

    #[test]
    fn empty_records_are_rejected_at_the_door() {
        let service = ContainmentService::build(&dataset(5), config());
        let err = service.submit(Record::new(Vec::new())).unwrap_err();
        assert_eq!(err, Error::EmptyRecord { record_id: 5 });
        // A rejected batch queues nothing.
        let batch = vec![Record::new(vec![1, 2]), Record::new(Vec::new())];
        let err = service.submit_batch(batch).unwrap_err();
        assert_eq!(err, Error::EmptyRecord { record_id: 6 });
        assert_eq!(service.pending(), 0);
        assert_eq!(service.generation(), 0);
    }

    #[test]
    fn flush_on_empty_queue_publishes_nothing() {
        let service = ContainmentService::build(&dataset(5), config());
        assert_eq!(service.flush(), 0);
        assert_eq!(service.generation(), 0);
    }

    #[test]
    fn checkpoint_and_open_round_trip_the_published_generation() {
        let dir = std::env::temp_dir().join("gbkmv_service_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.arena");

        let service = ContainmentService::build(&dataset(10), config());
        // Pending (unflushed) records are not part of the checkpoint —
        // and the report says so instead of hiding it.
        let extra: Vec<Record> = dataset(12).records()[10..].to_vec();
        for r in &extra[..2.min(extra.len())] {
            service.submit(r.clone()).unwrap();
        }
        let report = service.checkpoint(&path, false).unwrap();
        assert_eq!(
            report,
            CheckpointReport {
                records: 10,
                flushed: 0,
                pending: 2,
                delta: None,
            },
            "checkpoint covers the published generation only and reports the rest"
        );

        let reopened = ContainmentService::open(&path).unwrap();
        assert_eq!(reopened.generation(), 0);
        assert_eq!(reopened.snapshot().num_records(), 10);
        let query: Vec<u32> = dataset(10).records()[2].elements().to_vec();
        assert_eq!(
            reopened.search(&query, 0.3),
            GbKmvIndex::build(&dataset(10), config()).search_elements(&query, 0.3),
            "reopened service diverged from build-from-scratch"
        );
        // The reopened service keeps ingesting through the same path.
        for r in extra {
            reopened.submit(r).unwrap();
        }
        reopened.flush();
        assert_eq!(reopened.snapshot().num_records(), 12);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_flush_first_covers_queued_records() {
        let dir = std::env::temp_dir().join("gbkmv_service_flush_first");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.arena");

        let service = ContainmentService::build(&dataset(10), config());
        let extra: Vec<Record> = dataset(12).records()[10..].to_vec();
        for r in &extra {
            service.submit(r.clone()).unwrap();
        }
        assert_eq!(service.pending(), 2);
        let report = service.checkpoint(&path, true).unwrap();
        assert_eq!(
            report,
            CheckpointReport {
                records: 12,
                flushed: 2,
                pending: 0,
                delta: None,
            }
        );
        let reopened = ContainmentService::open(&path).unwrap();
        assert_eq!(reopened.snapshot().num_records(), 12);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn delta_checkpoints_reuse_clean_shards_across_flushes() {
        let dir = std::env::temp_dir().join("gbkmv_service_delta");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("delta.arena");
        std::fs::remove_file(&path).ok();

        let service = ContainmentService::build(&dataset(12), config().shards(3).ingest_batch(100));
        // First delta has no previous image: full rewrite, reported as such.
        let report = service.checkpoint_delta(&path, &path, false).unwrap();
        let first = report.delta.expect("delta checkpoint reports stats");
        assert!(first.fallback);
        assert_eq!(first.rewritten_shards, 3);

        // Grow only the tail shard, then checkpoint in place: the two
        // clean shards must be reused, and the file must equal a full save.
        let extra: Vec<Record> = dataset(15).records()[12..].to_vec();
        for r in extra {
            service.submit(r).unwrap();
        }
        let report = service.checkpoint_delta(&path, &path, true).unwrap();
        assert_eq!(report.records, 15);
        assert_eq!(report.flushed, 3);
        let stats = report.delta.expect("delta stats");
        assert_eq!(stats.reused_shards, 2);
        assert_eq!(stats.rewritten_shards, 1);
        assert!(!stats.fallback);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            service.snapshot().to_arena_bytes(),
            "delta checkpoint file diverged from a full serialization"
        );
        let reopened = ContainmentService::open(&path).unwrap();
        assert_eq!(reopened.snapshot().num_records(), 15);
        std::fs::remove_file(&path).ok();
    }

    /// Flushes that fill the tail shard to `TAIL_SHARD_CAP` and open the
    /// next: each delta checkpoint keeps the shards before the first one
    /// the flushes touched and leaves the file equal to a full save.
    #[test]
    fn delta_checkpoints_keep_full_shards_as_flushes_open_new_ones() {
        use crate::index::sharded::TAIL_SHARD_CAP;
        let dir = std::env::temp_dir().join(format!("gbkmv_service_cap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("delta.arena");
        let all = dataset(TAIL_SHARD_CAP + 10);
        let built = TAIL_SHARD_CAP - 2;
        let base =
            Dataset::from_records(all.records()[..built].iter().map(|r| r.elements().to_vec()));
        let service = ContainmentService::build(&base, config());
        let first = service.checkpoint_delta(&path, &path, false).unwrap();
        assert!(first.delta.expect("delta stats").fallback);
        // (records submitted, shards after the flush, expected stats)
        let steps = [
            (4, 2, (0, 2)), // the tail fills to the cap and a shard opens
            (4, 2, (1, 1)), // the full shard is kept
            (4, 2, (1, 1)),
        ];
        let mut next = built;
        for (step, (records, shards, (reused, rewritten))) in steps.into_iter().enumerate() {
            service
                .submit_batch(all.records()[next..next + records].to_vec())
                .unwrap();
            next += records;
            let report = service.checkpoint_delta(&path, &path, true).unwrap();
            let snap = service.snapshot();
            assert_eq!(snap.sharded().shards().len(), shards, "step {step}");
            assert_eq!(snap.sharded().shards()[0].len(), TAIL_SHARD_CAP);
            assert_eq!(
                report.delta,
                Some(DeltaStats {
                    reused_shards: reused,
                    rewritten_shards: rewritten,
                    fallback: false
                }),
                "step {step}"
            );
            assert_eq!(std::fs::read(&path).unwrap(), snap.to_arena_bytes());
        }
        let reopened = GbKmvIndex::open(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(reopened.sharded(), service.snapshot().sharded());
    }

    #[test]
    fn delta_checkpoints_through_kept_buffers_equal_full_saves() {
        let dir = std::env::temp_dir().join("gbkmv_service_delta_buffers");
        std::fs::create_dir_all(&dir).unwrap();
        let [live, copy, small, missing] =
            ["live", "copy", "small", "missing"].map(|name| dir.join(format!("{name}.arena")));
        for path in [&live, &copy, &small, &missing] {
            std::fs::remove_file(path).ok();
        }
        // A smaller, foreign image: copied over the longer copy, it must
        // fall back and leave no stale tail behind.
        GbKmvIndex::build(&dataset(4), config())
            .save(&small)
            .unwrap();

        let service = ContainmentService::build(&dataset(12), config().shards(3).ingest_batch(100));
        let records = dataset(40).records().to_vec();
        let mut next = 12;
        // (target, previous image, expected fallback)
        let steps = [
            (&live, &live, true),
            (&live, &live, false),
            (&copy, &live, false),
            (&copy, &small, true),
            (&live, &live, false),
            (&copy, &missing, true),
            (&live, &live, false),
        ];
        for (step, (path, prev, fallback)) in steps.into_iter().enumerate() {
            for r in records[next..next + 3].iter().cloned() {
                service.submit(r).unwrap();
            }
            next += 3;
            let report = service.checkpoint_delta(path, prev, true).unwrap();
            let stats = report.delta.expect("delta stats");
            assert_eq!(stats.fallback, fallback, "step {step}: {stats:?}");
            assert_eq!(
                std::fs::read(path).unwrap(),
                service.snapshot().to_arena_bytes(),
                "step {step}: checkpoint file diverged from a full serialization"
            );
        }
        for path in [&live, &copy, &small] {
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn mixed_checkpoints_beside_a_flushing_writer_leave_the_last_generation() {
        let dir = std::env::temp_dir().join("gbkmv_service_checkpoint_lock");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("mixed_{}.arena", std::process::id()));
        let records = dataset(360).records().to_vec();
        // A torn or stale final file needs an unlucky interleaving, so the
        // race runs several times.
        for trial in 0..10 {
            std::fs::remove_file(&path).ok();
            let base = Dataset::from_records(records[..300].iter().map(|r| r.elements().to_vec()));
            let service = ContainmentService::build(&base, config().shards(3).ingest_batch(100));
            let done = std::sync::atomic::AtomicBool::new(false);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    for batch in records[300..].chunks(6) {
                        service.submit_batch(batch.to_vec()).unwrap();
                        service.flush();
                    }
                    done.store(true, Ordering::Release);
                });
                for thread in 0..3 {
                    let (service, path, done) = (&service, &path, &done);
                    scope.spawn(move || {
                        // Full and delta checkpoints alternate, out of
                        // phase across threads. Thread 0 writes one more
                        // after the writer finished, while the others may
                        // still be writing older generations.
                        for round in thread.. {
                            let finished = done.load(Ordering::Acquire);
                            if finished && thread != 0 {
                                break;
                            }
                            let report = if round % 2 == 0 {
                                service.checkpoint(path, false)
                            } else {
                                service.checkpoint_delta(path, path, false)
                            };
                            report.unwrap();
                            if finished {
                                break;
                            }
                        }
                    });
                }
            });
            let last = service.snapshot();
            assert_eq!(last.num_records(), 360);
            let reopened = GbKmvIndex::open(&path).expect("the final checkpoint opens");
            assert_eq!(reopened.sharded(), last.sharded(), "trial {trial}");
            assert_eq!(std::fs::read(&path).unwrap(), last.to_arena_bytes());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shared_accounting_never_double_counts_cow_generations() {
        let service = ContainmentService::build(&dataset(12), config().shards(3).ingest_batch(100));
        let before = service.snapshot();
        let solo = before.mem_usage();
        assert_eq!(solo.shared_bytes, 0, "a single index owns everything");

        // Pre-flush: two handles to the same generation share every shard,
        // so the pair's deduplicated total is exactly one index.
        let same = GbKmvIndex::mem_usage_shared([&*before, &*service.snapshot()]);
        assert_eq!(same.total_bytes(), solo.total_bytes());
        assert_eq!(same.shared_bytes, solo.total_bytes());

        // Post-flush: only the tail shard was copied; the two untouched
        // shards are counted once and reported as shared on the second
        // sighting. Invariant: total + shared == sum of solo totals.
        let extra: Vec<Record> = dataset(15).records()[12..].to_vec();
        for r in extra {
            service.submit(r).unwrap();
        }
        service.flush();
        let after = service.snapshot();
        let pair = GbKmvIndex::mem_usage_shared([&*before, &*after]);
        assert_eq!(
            pair.total_bytes() + pair.shared_bytes,
            solo.total_bytes() + after.mem_usage().total_bytes(),
        );
        assert!(pair.shared_bytes > 0, "untouched shards must be shared");
        assert!(
            pair.total_bytes() < solo.total_bytes() + after.mem_usage().total_bytes(),
            "naive summation would double-count the shared shards"
        );
        // The tail shard was copied, so the pair holds strictly more than
        // one generation's worth of content.
        assert!(pair.total_bytes() > solo.total_bytes());
    }

    #[test]
    fn containment_index_impl_answers_from_the_snapshot() {
        let all = dataset(8);
        let service = ContainmentService::build(&all, config());
        let direct = GbKmvIndex::build(&all, config());
        let query = all.records()[1].clone();
        let via_trait: &dyn ContainmentIndex = &service;
        assert_eq!(
            via_trait.search(query.elements(), 0.4),
            direct.search_elements(query.elements(), 0.4)
        );
        assert_eq!(via_trait.name(), "GB-KMV/service");
        assert!(via_trait.space_elements() > 0.0);
    }
}
