//! The benchmark's own arithmetic: medians and tail percentiles, the
//! accuracy scores, and open-loop due-time accounting. Nothing here touches
//! the engine, so the unit tests pin every rule on hand-built fixtures.

use std::time::Duration;

use gbkmv_core::RecordId;
use gbkmv_eval::metrics::{AccuracySummary, ConfusionCounts};

/// How many samples must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Samples per window of [`windowed_tail`]: enough for p99 to have
/// [`TAIL_BEYOND`] samples beyond it.
pub const TAIL_WINDOW: usize = 1_000;

/// A percentile read from a sample set, with where it was read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The sample value.
    pub value: f64,
    /// The percentile actually read, as a fraction (0.99 for p99).
    pub percentile: f64,
    /// Number of samples it was read from.
    pub samples: usize,
    /// Number of windows whose tails it is the median of.
    pub windows: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of the samples (mean of the middle two for an even count, 0 for
/// none).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean of the middle half of the samples: the lowest and the highest
/// quarter are dropped (all samples are kept when there are fewer than 4).
/// For latencies that fall into two modes in near-equal shares, where the
/// median jumps from one mode to the other between runs, while the extremes
/// are still ignored.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let v = sorted(values);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    if middle.is_empty() {
        0.0
    } else {
        middle.iter().sum::<f64>() / middle.len() as f64
    }
}

/// The tail percentile rule: the nearest-rank `target` percentile if at
/// least [`TAIL_BEYOND`] samples lie beyond it, otherwise the highest
/// percentile that still has that many beyond it. With too few samples for
/// any tail (at most `TAIL_BEYOND`) the median is returned, read at 0.5.
pub fn tail(values: &[f64], target: f64) -> Quantile {
    let v = sorted(values);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return Quantile {
            value: median(values),
            percentile: 0.5,
            samples: n,
            windows: 1,
        };
    }
    // The epsilon keeps 0.99 × 1000 from ceiling to 991.
    let nearest_rank = ((target * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1;
    let idx = nearest_rank.min(n - 1 - TAIL_BEYOND);
    Quantile {
        value: v[idx],
        percentile: if idx == nearest_rank {
            target
        } else {
            (idx + 1) as f64 / n as f64
        },
        samples: n,
        windows: 1,
    }
}

/// The tail of a long run, steadied against transient stalls of the
/// machine: the samples, in the order they were taken, are cut into
/// consecutive windows of at least [`TAIL_WINDOW`] samples, [`tail`] is read
/// in each, and the median of the window tails is returned. Fewer samples
/// than two windows' worth make one window, i.e. plain [`tail`].
pub fn windowed_tail(samples: &[f64], target: f64) -> Quantile {
    let n = samples.len();
    let windows = (n / TAIL_WINDOW).max(1);
    let tails: Vec<Quantile> = (0..windows)
        .map(|w| tail(&samples[w * n / windows..(w + 1) * n / windows], target))
        .collect();
    let values: Vec<f64> = tails.iter().map(|q| q.value).collect();
    Quantile {
        value: median(&values),
        percentile: tails.iter().map(|q| q.percentile).fold(1.0, f64::min),
        samples: n,
        windows,
    }
}

/// The paper's accuracy measure: F1 of each query's answer against its
/// exact result set, averaged over the queries.
pub fn mean_f1(truths: &[Vec<RecordId>], answers: &[Vec<RecordId>]) -> f64 {
    assert_eq!(truths.len(), answers.len(), "one answer per truth");
    let counts: Vec<ConfusionCounts> = truths
        .iter()
        .zip(answers)
        .map(|(t, a)| ConfusionCounts::from_sets(t, a))
        .collect();
    AccuracySummary::from_counts(&counts).f1
}

/// The exact top-`k` of a query with ties at the `k`-th score included:
/// every record whose exact overlap is at least the `k`-th largest. Input
/// is `(record, overlap)` for every record with a positive overlap.
pub fn topk_with_ties(overlaps: &[(RecordId, usize)], k: usize) -> Vec<RecordId> {
    let mut by_score: Vec<usize> = overlaps.iter().map(|&(_, o)| o).collect();
    by_score.sort_unstable_by(|a, b| b.cmp(a));
    let Some(&kth) = by_score.get(k.min(by_score.len()).saturating_sub(1)) else {
        return Vec::new();
    };
    overlaps
        .iter()
        .filter(|&&(_, o)| o >= kth)
        .map(|&(id, _)| id)
        .collect()
}

/// Returned ids that belong to the exact top-`k` (ties included), divided
/// by `k` — or by the number of records with a positive exact score when
/// fewer than `k` have one, so a perfect answer always scores 1.
pub fn recall_at_k(exact_topk: &[RecordId], answer: &[RecordId], k: usize) -> f64 {
    let denominator = k.min(exact_topk.len());
    if denominator == 0 {
        return 1.0;
    }
    let mut found: Vec<RecordId> = answer
        .iter()
        .copied()
        .filter(|id| exact_topk.contains(id))
        .collect();
    found.sort_unstable();
    found.dedup();
    found.len() as f64 / denominator as f64
}

/// Records per second of an open-loop generator: record `i` is due
/// `i / rate` seconds after the start, whatever happened before it.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    rate: f64,
}

impl OpenLoop {
    /// A schedule offering `rate` records per second.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0, "an open loop needs a positive rate");
        OpenLoop { rate }
    }

    /// When record `i` is due, relative to the start.
    pub fn due(&self, i: usize) -> Duration {
        Duration::from_secs_f64(i as f64 / self.rate)
    }
}

/// Ingest-to-visible accounting of an open-loop writer. Every latency runs
/// from the record's *due* time, not from when the generator got round to
/// submitting it, so a stalled submit charges its wait to every record
/// scheduled behind it. Engine calls reported through
/// [`Visibility::engine`] are put at the nominal host speed inside each
/// latency; waiting for the schedule is not.
#[derive(Debug, Default)]
pub struct Visibility {
    pending: Vec<Duration>,
    /// `(due, visible)` of each published record, in publication order.
    visible: Vec<(Duration, Duration)>,
    /// `(end, excess so far)`: the engine calls in the order they ended,
    /// with the running sum of their excess over the nominal host speed,
    /// in milliseconds.
    excess: Vec<(Duration, f64)>,
    /// Records per publication, in publication order.
    pub batch_sizes: Vec<usize>,
    /// How late the generator ran at worst, in milliseconds.
    pub late_max_ms: f64,
    submitted: usize,
    last_visible: Duration,
}

impl Visibility {
    /// Record due at `due` was handed to the engine at `started`.
    pub fn submitted(&mut self, due: Duration, started: Duration) {
        self.late_max_ms = self
            .late_max_ms
            .max(started.saturating_sub(due).as_secs_f64() * 1e3);
        self.pending.push(due);
        self.submitted += 1;
    }

    /// Every record submitted so far became visible at `at`.
    pub fn published(&mut self, at: Duration) {
        if self.pending.is_empty() {
            return;
        }
        self.batch_sizes.push(self.pending.len());
        self.visible
            .extend(self.pending.drain(..).map(|due| (due, at)));
        self.last_visible = at;
    }

    /// An engine call that ended at `end` took `excess_ms` longer than it
    /// would at the nominal host speed (negative: shorter). Calls are
    /// reported in the order they ended.
    pub fn engine(&mut self, end: Duration, excess_ms: f64) {
        let sum = self.excess.last().map_or(0.0, |e| e.1) + excess_ms;
        self.excess.push((end, sum));
    }

    /// Excess of the engine calls that ended by `t`.
    fn excess_by(&self, t: Duration) -> f64 {
        let n = self.excess.partition_point(|e| e.0 <= t);
        if n == 0 {
            0.0
        } else {
            self.excess[n - 1].1
        }
    }

    /// Due-to-visible latency of each published record, in milliseconds,
    /// less the excess of the engine calls that ended between the two.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.visible
            .iter()
            .map(|&(due, at)| {
                at.saturating_sub(due).as_secs_f64() * 1e3
                    - (self.excess_by(at) - self.excess_by(due))
            })
            .collect()
    }

    /// Records not yet visible.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Visible records per second over the phase: everything submitted,
    /// divided by the time the last of it became visible.
    pub fn achieved_rate(&self) -> f64 {
        let secs = self.last_visible.as_secs_f64();
        if secs > 0.0 {
            (self.submitted - self.pending.len()) as f64 / secs
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Deliberately unsorted: the rules must sort for themselves.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn interquartile_mean_follows_the_share_of_each_mode() {
        // 15 fast and 15 slow samples: the median sits between the modes
        // and one more slow sample would move it all the way to 12.
        let mut bimodal = [vec![7.0; 15], vec![12.0; 15]].concat();
        assert_eq!(median(&bimodal), 9.5);
        assert!((interquartile_mean(&bimodal) - (7.0 * 8.0 + 12.0 * 8.0) / 16.0).abs() < 1e-12);
        bimodal[0] = 12.0;
        assert_eq!(median(&bimodal), 12.0);
        assert!((interquartile_mean(&bimodal) - (7.0 * 7.0 + 12.0 * 9.0) / 16.0).abs() < 1e-12);
        // The extreme quarters are dropped: a stall does not move it.
        assert_eq!(interquartile_mean(&[1.0, 2.0, 3.0, 400.0]), 2.5);
        assert_eq!(interquartile_mean(&[5.0, 1.0]), 3.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn p99_is_read_where_ten_samples_lie_beyond() {
        // 2000 samples: nearest rank 1980 holds 1980, with 20 beyond it.
        let q = tail(&ramp(2000), 0.99);
        assert_eq!(q.value, 1980.0);
        assert_eq!(q.percentile, 0.99);
        assert_eq!(q.samples, 2000);
        // Exactly ten beyond at 1000 samples: p99 still qualifies.
        let q = tail(&ramp(1000), 0.99);
        assert_eq!((q.value, q.percentile), (990.0, 0.99));
    }

    #[test]
    fn tail_falls_back_to_the_highest_percentile_with_ten_beyond() {
        // 500 samples: p99 would leave only 5 beyond; p98 leaves 10.
        let q = tail(&ramp(500), 0.99);
        assert_eq!(q.value, 490.0);
        assert_eq!(q.percentile, 0.98);
        assert_eq!(q.samples, 500);
        // Eleven samples: only the minimum has ten beyond it.
        let q = tail(&ramp(11), 0.99);
        assert_eq!(q.value, 1.0);
        assert_eq!(q.samples, 11);
    }

    #[test]
    fn tail_of_too_few_samples_is_the_median() {
        let q = tail(&ramp(5), 0.99);
        assert_eq!(
            (q.value, q.percentile, q.samples, q.windows),
            (3.0, 0.5, 5, 1)
        );
    }

    #[test]
    fn windowed_tail_is_the_median_of_window_tails() {
        // 5,000 samples of 1.0 with one 100-sample stall of 50.0: the stall
        // is 2% of the run, so the whole-run p99 reads it, but it sits in
        // one of five windows, so the median window p99 does not.
        let mut samples = vec![1.0; 5_000];
        samples[2_100..2_200].fill(50.0);
        assert_eq!(tail(&samples, 0.99).value, 50.0);
        let q = windowed_tail(&samples, 0.99);
        assert_eq!(
            (q.value, q.percentile, q.samples, q.windows),
            (1.0, 0.99, 5_000, 5)
        );
        // A stall in every window is reported.
        for w in 0..5 {
            samples[w * 1_000..w * 1_000 + 20].fill(50.0);
        }
        assert_eq!(windowed_tail(&samples, 0.99).value, 50.0);
        // Under two windows' worth it is the plain tail rule.
        let short = ramp(1_999);
        assert_eq!(windowed_tail(&short, 0.99), tail(&short, 0.99));
        assert_eq!(windowed_tail(&ramp(500), 0.99).percentile, 0.98);
    }

    #[test]
    fn f1_on_a_hand_built_fixture() {
        // Query 0: perfect. Query 1: 1 of 2 right plus 1 wrong → P = R =
        // 1/2, F1 = 1/2. Query 2: empty truth and empty answer → perfect.
        let truths = vec![vec![1, 2], vec![3, 4], vec![]];
        let answers = vec![vec![2, 1], vec![3, 9], vec![]];
        let f1 = mean_f1(&truths, &answers);
        assert!((f1 - (1.0 + 0.5 + 1.0) / 3.0).abs() < 1e-12, "{f1}");
        // Everything missed scores 0.
        assert_eq!(mean_f1(&[vec![1]], &[vec![2]]), 0.0);
    }

    #[test]
    fn topk_ties_at_the_kth_score_are_all_admitted() {
        // Scores 5, 4, 4, 4, 1 with k = 2: the 2nd score is 4, so all three
        // records scoring 4 tie into the exact top-2.
        let overlaps = vec![(10, 5), (11, 4), (12, 4), (13, 4), (14, 1)];
        let mut exact = topk_with_ties(&overlaps, 2);
        exact.sort_unstable();
        assert_eq!(exact, vec![10, 11, 12, 13]);
        // Any two of them make a perfect answer...
        assert_eq!(recall_at_k(&exact, &[10, 13], 2), 1.0);
        assert_eq!(recall_at_k(&exact, &[12, 11], 2), 1.0);
        // ...a record below the tie does not count...
        assert_eq!(recall_at_k(&exact, &[10, 14], 2), 0.5);
        // ...and neither does a duplicate.
        assert_eq!(recall_at_k(&exact, &[10, 10], 2), 0.5);
    }

    #[test]
    fn recall_with_fewer_positive_records_than_k() {
        let exact = topk_with_ties(&[(1, 3), (2, 1)], 10);
        assert_eq!(exact, vec![1, 2]);
        assert_eq!(recall_at_k(&exact, &[2, 1], 10), 1.0);
        assert_eq!(recall_at_k(&exact, &[1], 10), 0.5);
        assert_eq!(topk_with_ties(&[], 10), Vec::<RecordId>::new());
        assert_eq!(recall_at_k(&[], &[], 10), 1.0);
    }

    #[test]
    fn open_loop_schedule_is_fixed_by_the_rate() {
        let lg = OpenLoop::new(1000.0);
        assert_eq!(lg.due(0), Duration::ZERO);
        assert_eq!(lg.due(250), Duration::from_millis(250));
    }

    #[test]
    fn a_stalled_submit_charges_the_records_scheduled_behind_it() {
        let ms = Duration::from_millis;
        let lg = OpenLoop::new(1000.0);
        let mut v = Visibility::default();
        // Records 0..3 go out on time; record 3's submit publishes the
        // batch but stalls for 100 ms, so it is visible at 103 ms.
        for i in 0..4 {
            v.submitted(lg.due(i), lg.due(i));
        }
        v.published(ms(103));
        assert_eq!(v.latencies_ms(), vec![103.0, 102.0, 101.0, 100.0]);
        // Records 4..7 were due at 4..7 ms, but the generator only reached
        // them after the stall: their latency still runs from the due time.
        for i in 4..8 {
            v.submitted(lg.due(i), ms(103) + ms(i as u64 - 4));
        }
        assert_eq!(v.late_max_ms, 99.0);
        assert_eq!(v.pending(), 4);
        v.published(ms(110));
        assert_eq!(&v.latencies_ms()[4..], &[106.0, 105.0, 104.0, 103.0]);
        assert_eq!(v.batch_sizes, vec![4, 4]);
        // 8 records visible by 110 ms.
        assert!((v.achieved_rate() - 8.0 / 0.110).abs() < 1e-9);
        // Publishing with nothing pending records nothing.
        v.published(ms(200));
        assert_eq!(v.batch_sizes.len(), 2);
    }

    #[test]
    fn engine_excess_is_taken_out_of_the_latencies_it_falls_in() {
        let ms = Duration::from_millis;
        let mut v = Visibility::default();
        // Records due at 0 and 10 ms; a flush from 10 to 40 ms, at a host
        // half the nominal speed, so 15 ms of it is excess.
        v.submitted(ms(0), ms(0));
        v.submitted(ms(10), ms(10));
        v.engine(ms(40), 15.0);
        v.published(ms(40));
        assert_eq!(v.latencies_ms(), vec![25.0, 15.0]);
        // A record due after that flush is not charged for it; a faster
        // host (negative excess) lengthens to the nominal time.
        v.submitted(ms(50), ms(50));
        v.engine(ms(60), -5.0);
        v.published(ms(60));
        assert_eq!(v.latencies_ms()[2], 15.0);
    }
}
