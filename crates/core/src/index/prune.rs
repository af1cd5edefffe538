//! **Prune** stage of the query pipeline: size-threshold pruning over the
//! size-ordered slots, plus the minting bounds of the signature prefix
//! filter and of the buffer sweep.
//!
//! # Size pruning
//!
//! A containment query `(Q, t*)` can only be matched by records holding at
//! least `θ = ⌈t*·|Q|⌉` of the query's elements — and a record can never
//! hold more elements than it has, so any record with `|X| < θ` is out
//! regardless of its sketch. This is exactly the size filter the reference
//! scan applies per record (making the pruned pipeline bit-identical to it
//! by construction); the prune stage turns it from a per-candidate check
//! into a *structural* cutoff: slots are ordered by descending record size,
//! so the qualifying records are precisely the slots `0..live`, computed
//! with one binary search per shard, and the candidate stage truncates every
//! posting list at that slot number. Pruned candidates are never
//! accumulated, never finished — they die before the finish, not after.
//!
//! # Prefix filtering
//!
//! The second structural cut works on the *query* side: of the query's
//! `|L_Q|` signature hashes, only a prefix of the rarest ones needs to be
//! allowed to **mint** new candidates; the remaining (frequent) hashes only
//! have to score candidates already minted (lookup-only accumulation in
//! [`crate::index::candidates`]). The classical pigeonhole argument of
//! prefix-filtered set-similarity joins — a record missed by the first
//! `|L_Q| − θ_sig + 1` hashes shares at most `θ_sig − 1` hashes with the
//! query — carries over, but the minimum qualifying signature overlap
//! `θ_sig` must be derived from the Equation-25 estimator rather than from
//! set semantics, because the estimator *scales* the raw overlap count:
//!
//! ```text
//! est = (K∩ / k) · (k − 1) / U(k)   with   k = |L_Q| + |L_X| − K∩
//! ```
//!
//! Since `U(k) ≥ u_Q` (the unit value of the query signature's largest
//! hash — the union's maximum is at least the query's maximum) and
//! `(k − 1)/k < 1`, every candidate satisfies `est ≤ K∩ / u_Q`; the exact
//! (both-saturated) finish `est = K∩` obeys the same bound because
//! `u_Q ≤ 1`. A buffer-free candidate can therefore only reach the overlap
//! threshold `t*·|Q|` with
//!
//! ```text
//! K∩ ≥ θ_sig = ⌈u_Q · t*·|Q|⌉
//! ```
//!
//! Note the naive `⌈t*·|L_Q|⌉` of the set-semantics pigeonhole is **not**
//! sound here: a query whose elements happen to hash low has
//! `|L_Q| > u_Q·|Q|`, and the `1/U(k)` scaling then lets a candidate
//! qualify with fewer shared hashes than the naive bound assumes. The
//! `u_Q`-corrected bound above is what the bit-identity proptests pin.
//!
//! The filter has no off switch; it decides per query. A signature of at
//! most `SHORT_SIGNATURE_LEN` hashes, or a bound of `θ_sig ≤ 1`, lets
//! every hash mint (the unfiltered walk, with no df-ordering sort); any
//! other query takes the prefixed walk. Both walks give the scan's answers.
//!
//! # The joint bound on buffered candidates
//!
//! Equation 27 adds the exact buffered overlap `b = |H_Q ∩ H_X|` to the
//! signature estimate, so the signature bound alone does not cover a
//! record that shares buffered elements with the query. The buffer pass
//! gets its own cut instead, derived from the same `est ≤ K∩ / u_Q`.
//!
//! Take a record that no minting hash reached. The only hashes it can share
//! with the query are the `|L_Q| − minting` lookup-only ones, so its
//! signature estimate is at most
//!
//! ```text
//! S_max = (|L_Q| − minting) / u_Q
//! ```
//!
//! and exactly `0` when every hash mints (`K∩ = 0` makes every branch of
//! the estimator return `0`). It qualifies only if
//! `b + S_max ≥ t*·|Q|` (up to the finish stage's 1e-9 tolerance), and `b`
//! is an integer, so
//!
//! ```text
//! b ≥ b_min = max(1, ⌈t*·|Q| − S_max − ε⌉)
//! ```
//!
//! with the slop `ε` covering that tolerance plus floating-point rounding.
//! (The `max(1, ·)` only records that a record sharing no buffered element
//! has nothing to mint from the buffer side; such a record is covered by
//! the signature bound above.)
//! So only records with `b ≥ b_min` need to mint from the buffer side, and
//! none when `b_min > B_q`: the candidates stage sweeps the buffer words
//! and emits exactly those records (at `b_min = 1`, every record sharing a
//! buffered element). A record the cut skips has `b < b_min` and no
//! minting hash, so it can never qualify; every record that is emitted or
//! minted is finished with the same `K∩` and the same popcount as the
//! scan, so answers stay bit-identical. A NaN or infinite input, or `u_Q = 0`,
//! falls back to `b_min = 1` — every record sharing a buffered element
//! mints, which is always sound.

use crate::hash::unit_hash;
use crate::index::candidates::QuerySketchView;
use crate::index::sharded::Shard;
use crate::sim::OverlapThreshold;

/// Signature lengths at or below this skip the prefix filter entirely (every
/// hash mints). The filter's win scales with the length of the posting lists
/// it avoids minting from, but its cost — one df-keyed sort of all `|L_Q|`
/// query hashes per (query, shard) — is paid up front; for a handful of
/// hashes the sort is pure overhead over the plain accumulator walk, and the
/// bound would rarely cut more than a hash or two anyway. Answers are
/// identical either way (the filter is structural, not semantic).
pub(crate) const SHORT_SIGNATURE_LEN: usize = 8;

/// The prune stage's minting decisions for one query, shared by every shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Minting {
    /// Number of df-ordered signature hashes allowed to mint candidates.
    pub(crate) hashes: usize,
    /// `b_min` of the joint bound (module docs): the buffer pass mints the
    /// records whose buffered overlap with the query reaches `b_min`, and
    /// nothing when `b_min > B_q`. `1` mints every record sharing a
    /// buffered element.
    pub(crate) b_min: usize,
}

impl Minting {
    /// Everything mints: every signature hash, and the buffer sweep at
    /// `b_min = 1` (every record sharing a buffered element) — the top-k
    /// path, which has no threshold to bound against.
    pub(crate) fn all(view: &QuerySketchView<'_>) -> Self {
        Minting {
            hashes: view.hashes.len(),
            b_min: 1,
        }
    }
}

/// `b_min = max(1, ⌈raw − S_max − ε⌉)` of the joint bound (module docs),
/// with `S_max = unminted / u_Q` (`0` when `unminted == 0`) for a query
/// whose signature has `unminted` lookup-only hashes and unit maximum
/// `u_Q`. The slop `ε` is the finish stage's 1e-9 tolerance plus a
/// rounding margin of 1e-6 per unit of `raw` (at least 1e-6);
/// understating `b_min` only mints more candidates — always sound. A NaN or
/// infinite input, or `u_Q ≤ 0`, gives `1`.
pub(crate) fn min_buffer_overlap(raw: f64, unminted: usize, u_q: f64) -> usize {
    if !raw.is_finite() || !u_q.is_finite() || u_q <= 0.0 {
        return 1;
    }
    let s_max = if unminted == 0 {
        0.0
    } else {
        unminted as f64 / u_q
    };
    let b_min = (raw - s_max - 1e-9 - 1e-6 * raw.abs().max(1.0)).ceil();
    // Saturating cast: a `b_min` beyond `usize` exceeds every `B_q` anyway.
    if b_min > 1.0 {
        b_min as usize
    } else {
        1
    }
}

/// The number of leading slots of `shard` that survive the overlap
/// threshold — the candidate stage's posting-list cutoff.
#[inline]
pub(crate) fn live_slots(shard: &Shard, threshold: OverlapThreshold) -> usize {
    shard.store().live_prefix(threshold.exact)
}

/// The query's minting decisions: the signature minting prefix of
/// [`minting_hashes`] and the buffer sweep's `b_min`
/// ([`min_buffer_overlap`]) given that prefix. When every hash mints,
/// `S_max = 0` and `b_min = ⌈t*·|Q|⌉` (up to the slop).
pub(crate) fn minting(view: &QuerySketchView<'_>, threshold: OverlapThreshold) -> Minting {
    let hashes = minting_hashes(view, threshold);
    Minting {
        hashes,
        b_min: min_buffer_overlap(
            threshold.raw,
            view.hashes.len() - hashes,
            unit_hash(view.max_hash),
        ),
    }
}

/// Number of the query's (df-ordered) signature hashes allowed to mint
/// new candidates: `|L_Q| − θ_sig + 1` for the `u_Q`-corrected pigeonhole
/// bound `θ_sig` of the module docs, clamped to `[0, |L_Q|]`. Returns
/// `|L_Q|` (all hashes mint — the unfiltered walk, and the candidates
/// stage skips the df-ordering sort entirely) when the signature is at
/// most [`SHORT_SIGNATURE_LEN`] hashes (the sort costs more than the
/// filter saves there), or when the bound cannot cut anything
/// (`θ_sig ≤ 1`).
fn minting_hashes(view: &QuerySketchView<'_>, threshold: OverlapThreshold) -> usize {
    let n = view.hashes.len();
    if n <= SHORT_SIGNATURE_LEN {
        return n;
    }
    let u_q = unit_hash(view.max_hash);
    // θ_sig = ⌈u_Q·(t*·|Q| − 1e-9)⌉ with an absolute 1e-6 slop against
    // the estimator's own floating-point rounding (the 1e-9 matches the
    // tolerance of the finish stage's qualification test). Understating
    // θ_sig only lengthens the prefix — always sound.
    let theta = (u_q * (threshold.raw - 1e-9) - 1e-6).ceil();
    if theta <= 1.0 {
        // Every hash may mint a qualifying candidate: no filter.
        return n;
    }
    // A finite prefix: `n + 1 − θ_sig` hashes mint; a θ_sig beyond the
    // signature length means no hash can mint a qualifying candidate on
    // its own (the buffer sweep still does).
    (n + 1).saturating_sub(theta as usize).min(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::ElementBuffer;
    use crate::gkmv::GKmvPairEstimate;

    fn view_with<'a>(hashes: &'a [u64], buffer: &'a ElementBuffer) -> QuerySketchView<'a> {
        QuerySketchView {
            hashes,
            max_hash: hashes.last().copied().unwrap_or(0),
            saturated: false,
            buffer,
        }
    }

    /// Twelve hashes (past the short-signature skip) whose maximum is `top`.
    fn twelve_hashes(top: u64) -> [u64; 12] {
        let mut hashes = [0u64; 12];
        for (i, h) in hashes.iter_mut().enumerate() {
            *h = i as u64 + 1;
        }
        hashes[11] = top;
        hashes
    }

    #[test]
    fn minting_prefix_bounds() {
        let buffer = ElementBuffer::zeroed(0);
        // u_Q = 1.0 (max hash saturates the unit interval): θ_sig = ⌈t*·|Q|⌉.
        let hashes = twelve_hashes(u64::MAX);
        let view = view_with(&hashes, &buffer);
        // θ = 0 ⇒ everything mints.
        assert_eq!(minting_hashes(&view, OverlapThreshold::new(10, 0.0)), 12);
        // θ_sig = 5 ⇒ prefix of 12 + 1 − 5 = 8.
        assert_eq!(minting_hashes(&view, OverlapThreshold::new(10, 0.5)), 8);
        // θ_sig = 2 ⇒ prefix of 11.
        assert_eq!(minting_hashes(&view, OverlapThreshold::new(10, 0.2)), 11);
        // θ_sig = 14 exceeds the 12-hash signature ⇒ nothing mints.
        assert_eq!(minting_hashes(&view, OverlapThreshold::new(20, 0.7)), 0);
        // Empty signature ⇒ nothing to order.
        let empty = view_with(&[], &buffer);
        assert_eq!(minting_hashes(&empty, OverlapThreshold::new(10, 0.5)), 0);
    }

    #[test]
    fn short_signatures_skip_the_filter_and_its_sort() {
        let buffer = ElementBuffer::zeroed(0);
        // At ≤ SHORT_SIGNATURE_LEN hashes every hash mints even where the
        // bound could cut (θ_sig = 5 would leave a prefix of 0 on 4
        // hashes): the df sort costs more than the filter saves, and
        // returning `n` is what makes the candidates stage skip the sort.
        let hashes = [1u64, 2, 3, u64::MAX];
        let view = view_with(&hashes, &buffer);
        assert_eq!(minting_hashes(&view, OverlapThreshold::new(10, 0.5)), 4);
        // One past the constant, the filter engages again.
        let mut nine = [0u64; 9];
        for (i, h) in nine.iter_mut().enumerate() {
            *h = i as u64 + 1;
        }
        nine[8] = u64::MAX;
        let view = view_with(&nine, &buffer);
        assert!(
            minting_hashes(&view, OverlapThreshold::new(10, 0.5)) < 9,
            "a 9-hash signature must engage the prefix filter"
        );
        assert_eq!(SHORT_SIGNATURE_LEN, 8, "test constants track the knob");
    }

    /// Every record the buffer bound lets the sweep skip — buffered overlap
    /// `1 ≤ b < b_min`, reached by no minting hash, so sharing at most the
    /// `|L_Q| − minting` lookup-only hashes — fails the finish stage's
    /// qualification test, for every record signature length and
    /// saturation (the union maximum is at least the query's, and the
    /// query's is the worst case).
    fn assert_buffer_bound_sound(view: &QuerySketchView<'_>, raw: f64, minting: Minting) {
        let n = view.hashes.len();
        let unminted = n - minting.hashes;
        for b in 1..minting.b_min.min(64) {
            for len_x in 0..24 {
                for k_int in 0..=unminted.min(len_x) {
                    for both_saturated in [false, true] {
                        let est = GKmvPairEstimate::from_parts(
                            n,
                            len_x,
                            k_int,
                            view.max_hash,
                            both_saturated,
                        )
                        .intersection_estimate;
                        assert!(
                            b as f64 + est + 1e-9 < raw,
                            "b={b} K∩={k_int} |L_X|={len_x} reaches raw={raw} \
                             past b_min={}",
                            minting.b_min
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn buffer_bound_edges() {
        let buffer = ElementBuffer::zeroed(0);
        // Empty signature: K∩ = 0 for every record, so S_max = 0 and the
        // buffered overlap alone must reach ⌈t*·|Q|⌉.
        let empty = view_with(&[], &buffer);
        let threshold = OverlapThreshold::new(10, 0.5);
        let m = minting(&empty, threshold);
        assert_eq!(
            m,
            Minting {
                hashes: 0,
                b_min: 5
            }
        );
        assert_buffer_bound_sound(&empty, threshold.raw, m);

        // Saturated twelve-element query with u_Q = 1/4: θ_sig = ⌈1.5⌉ = 2,
        // so 11 hashes mint, S_max = 1 / (1/4) = 4 and b_min = ⌈6 − 4⌉ = 2.
        let hashes = twelve_hashes(u64::MAX / 4);
        let saturated = QuerySketchView {
            saturated: true,
            ..view_with(&hashes, &buffer)
        };
        let threshold = OverlapThreshold::new(12, 0.5);
        let m = minting(&saturated, threshold);
        assert_eq!(
            m,
            Minting {
                hashes: 11,
                b_min: 2
            }
        );
        assert_buffer_bound_sound(&saturated, threshold.raw, m);
        // Every hash minting leaves S_max = 0.
        assert_eq!(
            min_buffer_overlap(threshold.raw, 0, unit_hash(saturated.max_hash)),
            6
        );

        // u_Q → 0 lets a few shared hashes reach any threshold: b_min = 1,
        // and u_Q = 0 falls back to 1 even with nothing unminted.
        assert_eq!(min_buffer_overlap(50.0, 1, 1e-300), 1);
        assert_eq!(min_buffer_overlap(50.0, 3, 0.0), 1);
        assert_eq!(min_buffer_overlap(50.0, 0, 0.0), 1);
        assert_eq!(min_buffer_overlap(50.0, 0, -1.0), 1);
        assert_eq!(min_buffer_overlap(50.0, 2, f64::NAN), 1);
        assert_eq!(min_buffer_overlap(50.0, 2, f64::INFINITY), 1);

        // Adversarial thresholds never panic and stay sound: non-finite
        // ones fall back to 1, out-of-range finite ones bound as usual.
        let view = view_with(&hashes, &buffer);
        for t_star in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5, 1.5, 40.0] {
            let threshold = OverlapThreshold::new(12, t_star);
            let m = minting(&view, threshold);
            if !threshold.raw.is_finite() || threshold.raw <= 0.0 {
                assert_eq!(m.b_min, 1, "t*={t_star}");
            }
            assert_buffer_bound_sound(&view, threshold.raw, m);
        }
    }

    #[test]
    fn buffer_bound_is_sound_across_signatures_and_thresholds() {
        let buffer = ElementBuffer::zeroed(0);
        for top in [u64::MAX, u64::MAX / 3, u64::MAX / 10, u64::MAX / 1000] {
            let hashes = twelve_hashes(top);
            for len in [0, 1, 9, 12] {
                let view = view_with(&hashes[12 - len..], &buffer);
                for q in [12, 20, 60] {
                    for t_star in [0.05, 0.2, 0.35, 0.5, 0.8, 1.0] {
                        let threshold = OverlapThreshold::new(q, t_star);
                        assert_buffer_bound_sound(&view, threshold.raw, minting(&view, threshold));
                        // The unfiltered walk's bound (every hash mints,
                        // as when θ_sig ≤ 1) on the same signature.
                        let every_hash = Minting {
                            hashes: len,
                            b_min: min_buffer_overlap(threshold.raw, 0, unit_hash(view.max_hash)),
                        };
                        assert_buffer_bound_sound(&view, threshold.raw, every_hash);
                    }
                }
            }
        }
    }

    #[test]
    fn low_hash_query_lengthens_the_prefix() {
        let buffer = ElementBuffer::zeroed(0);
        // All hashes in the lowest ~3% of the hash space: u_Q ≈ 0.03, so the
        // estimator can qualify a candidate from very few shared hashes and
        // θ_sig must collapse — here to ≤ 1, i.e. every hash mints, even
        // though the naive ⌈t*·|L_Q|⌉ = 6 bound would have cut the prefix.
        let hashes = twelve_hashes(u64::MAX / 32);
        let view = view_with(&hashes, &buffer);
        assert_eq!(minting_hashes(&view, OverlapThreshold::new(8, 0.5)), 12);
    }
}
