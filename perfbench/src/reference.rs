//! Host-speed reference: a fixed kernel timed between engine calls, so a
//! timing can be put at one nominal host speed.
//!
//! The benchmark runs on vCPUs of a shared host. Other tenants on the same
//! physical cores slow this engine by up to 2× for seconds to minutes at a
//! time, independently on each vCPU, so a raw latency says as much about
//! the neighbours as about the engine. The reference kernel here mixes the
//! kinds of work a query does (hashing and sorting 64-bit keys, scattered
//! counter updates, merging sorted id lists) on fixed data of its own. It
//! never calls the engine, so an engine change cannot move it. A *tick*
//! runs the kernel once untimed, to bring its data back into cache after
//! whatever the engine evicted, and once timed.
//!
//! Every timed engine call is followed by a tick on the same thread. An
//! adjusted time is the raw time × [`NOMINAL_TICK_US`] ÷ the mean of the
//! ticks taken next to it (see [`local_factors`]): the time the call would
//! take on a host where one tick takes [`NOMINAL_TICK_US`].

use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

/// The tick time the adjusted timings are expressed at, in microseconds:
/// a round figure inside the 85–210 µs the tick read on the 2-vCPU Xeon
/// host the benchmark was tuned on.
pub const NOMINAL_TICK_US: f64 = 150.0;

/// Ticks on each side of a sample that its speed factor averages over.
pub const HALF_WINDOW: usize = 32;

const KEYS: usize = 2_048;
const COUNTERS: usize = 1 << 18;
const SCATTERED: usize = 4_000;
const LISTS: usize = 12;
const LIST_LEN: usize = 1_500;
const LIST_UNIVERSE: u64 = 100_000;

fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// The reference kernel, its fixed data, and the ticks taken so far.
pub struct Reference {
    keys: Vec<u64>,
    counters: Vec<u16>,
    scattered: Vec<u32>,
    lists: Vec<Vec<u32>>,
    repeated: Vec<u32>,
    round: u64,
    /// Every tick's timed pass, in microseconds, in order.
    pub ticks_us: Vec<f64>,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// The kernel's data: the same on every run and every host.
    pub fn new() -> Self {
        let lists = (0..LISTS as u64)
            .map(|l| {
                let mut v: Vec<u32> = (0..LIST_LEN as u64)
                    .map(|i| (mix64(l * 1_000_003 + i) % LIST_UNIVERSE) as u32)
                    .collect();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        Reference {
            keys: vec![0; KEYS],
            counters: vec![0; COUNTERS],
            scattered: (0..SCATTERED as u64)
                .map(|i| (mix64(i + 99) % COUNTERS as u64) as u32)
                .collect(),
            lists,
            repeated: Vec::with_capacity(SCATTERED),
            round: 0,
            ticks_us: Vec::new(),
        }
    }

    /// One pass of the kernel; returns a checksum so no part is optimised
    /// away.
    fn pass(&mut self) -> u64 {
        // Hash and sort 64-bit keys.
        self.round += 1;
        let round = self.round;
        for (i, k) in self.keys.iter_mut().enumerate() {
            *k = mix64(i as u64 ^ round);
        }
        self.keys.sort_unstable();
        let mut sum = self.keys[KEYS / 2];
        // Count scattered ids, keep the repeated ones, reset the counters.
        for &e in &self.scattered {
            self.counters[e as usize] += 1;
        }
        self.repeated.clear();
        for &e in &self.scattered {
            let c = &mut self.counters[e as usize];
            if *c >= 2 {
                self.repeated.push(e);
            }
            *c = 0;
        }
        sum += self.repeated.len() as u64;
        // Merge-intersect pairs of sorted id lists.
        for pair in 0..LISTS / 2 {
            let (a, b) = (&self.lists[pair], &self.lists[pair + LISTS / 2]);
            let (mut x, mut y) = (0, 0);
            while x < a.len() && y < b.len() {
                match a[x].cmp(&b[y]) {
                    std::cmp::Ordering::Less => x += 1,
                    std::cmp::Ordering::Greater => y += 1,
                    std::cmp::Ordering::Equal => {
                        sum += 1;
                        x += 1;
                        y += 1;
                    }
                }
            }
        }
        sum
    }

    /// Runs the kernel untimed, then timed; records and returns the timed
    /// pass in microseconds.
    pub fn tick(&mut self) -> f64 {
        black_box(self.pass());
        let start = Instant::now();
        black_box(self.pass());
        let us = start.elapsed().as_secs_f64() * 1e6;
        self.ticks_us.push(us);
        us
    }

    /// Mean of `n` ticks, in microseconds.
    pub fn ticks(&mut self, n: usize) -> f64 {
        (0..n).map(|_| self.tick()).sum::<f64>() / n.max(1) as f64
    }

    /// Mean of `n` ticks here and `n` ticks taken at the same time on a
    /// second thread, for a call that runs on both vCPUs. Both threads
    /// start ticking together, so each sees the other as the call's two
    /// threads see each other. Only this thread's ticks are recorded.
    pub fn ticks_on_two(&mut self, n: usize) -> f64 {
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            let other = s.spawn(|| {
                let mut reference = Reference::new();
                start.wait();
                reference.ticks(n)
            });
            start.wait();
            let here = self.ticks(n);
            let there = other.join().expect("a reference tick does not panic");
            (here + there) / 2.0
        })
    }
}

/// Speed factor of each of a run of samples, where `ticks[i]` was taken
/// right after sample `i`: [`NOMINAL_TICK_US`] ÷ the mean of the ticks
/// within [`HALF_WINDOW`] of `i`. Multiplying a sample by its factor puts
/// it at the nominal host speed.
pub fn local_factors(ticks: &[f64]) -> Vec<f64> {
    let mut prefix = Vec::with_capacity(ticks.len() + 1);
    prefix.push(0.0);
    for t in ticks {
        prefix.push(prefix.last().copied().unwrap_or(0.0) + t);
    }
    (0..ticks.len())
        .map(|i| {
            let lo = i.saturating_sub(HALF_WINDOW);
            let hi = (i + HALF_WINDOW + 1).min(ticks.len());
            let mean = (prefix[hi] - prefix[lo]) / (hi - lo) as f64;
            NOMINAL_TICK_US / mean
        })
        .collect()
}

/// Speed factor from the ticks taken just before and just after one call.
pub fn factor(before_us: f64, after_us: f64) -> f64 {
    NOMINAL_TICK_US / ((before_us + after_us) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic() {
        let (mut a, mut b) = (Reference::new(), Reference::new());
        for _ in 0..3 {
            assert_eq!(a.pass(), b.pass());
        }
        assert!(a.tick() > 0.0);
        assert_eq!(a.ticks_us.len(), 1);
    }

    #[test]
    fn factors_average_the_neighbouring_ticks() {
        // A host at the nominal speed leaves samples as they are.
        let f = local_factors(&[NOMINAL_TICK_US; 100]);
        assert!(f.iter().all(|&x| (x - 1.0).abs() < 1e-12));
        // A host at half speed for the whole window halves every sample.
        let f = local_factors(&[2.0 * NOMINAL_TICK_US; 10]);
        assert!(f.iter().all(|&x| (x - 0.5).abs() < 1e-12));
        // A sample far from a slow stretch is not affected by it.
        let mut ticks = vec![NOMINAL_TICK_US; 200];
        for t in &mut ticks[150..] {
            *t = 2.0 * NOMINAL_TICK_US;
        }
        let f = local_factors(&ticks);
        assert!((f[10] - 1.0).abs() < 1e-12);
        assert!((f[199] - 0.5).abs() < 1e-12);
        assert!(f[150] < 1.0 && f[150] > 0.5);
        assert!(local_factors(&[]).is_empty());
        assert!((factor(100.0, 200.0) - 1.0).abs() < 1e-12);
    }
}
