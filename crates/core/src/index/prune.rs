//! **Prune** stage of the query pipeline: size-threshold pruning over the
//! size-ordered slots, plus the signature prefix-filter bound.
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
//! (candidates sharing a buffered element are minted by the buffer-posting
//! walk regardless, so the bound never has to cover them). Note the naive
//! `⌈t*·|L_Q|⌉` of the set-semantics pigeonhole is **not** sound here: a
//! query whose elements happen to hash low has `|L_Q| > u_Q·|Q|`, and the
//! `1/U(k)` scaling then lets a candidate qualify with fewer shared hashes
//! than the naive bound assumes. The `u_Q`-corrected bound above is what
//! the bit-identity proptests pin.

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

/// The per-query pruning decisions (size cutoff and prefix filter), applied
/// per shard.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PruneStage {
    /// Whether the signature prefix filter is enabled (disabled for the
    /// ablation benchmark; every signature hash then mints candidates).
    prefix: bool,
}

impl PruneStage {
    pub(crate) fn new(prefix: bool) -> Self {
        PruneStage { prefix }
    }

    /// The number of leading slots of `shard` that survive the overlap
    /// threshold — the candidate stage's posting-list cutoff.
    #[inline]
    pub(crate) fn live_slots(&self, shard: &Shard, threshold: OverlapThreshold) -> usize {
        shard.store().live_prefix(threshold.exact)
    }

    /// Number of the query's (df-ordered) signature hashes allowed to mint
    /// new candidates: `|L_Q| − θ_sig + 1` for the `u_Q`-corrected pigeonhole
    /// bound `θ_sig` of the module docs, clamped to `[0, |L_Q|]`. Returns
    /// `|L_Q|` (all hashes mint — plain accumulation, and the candidates
    /// stage skips the df-ordering sort entirely) when the filter is
    /// disabled, when the signature is at most [`SHORT_SIGNATURE_LEN`]
    /// hashes (the sort costs more than the filter saves there), or when
    /// the bound cannot cut anything (`θ_sig ≤ 1`).
    pub(crate) fn minting_hashes(
        &self,
        view: &QuerySketchView<'_>,
        threshold: OverlapThreshold,
    ) -> usize {
        let n = view.hashes.len();
        if !self.prefix || n <= SHORT_SIGNATURE_LEN {
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
        // its own (buffer postings still do).
        (n + 1).saturating_sub(theta as usize).min(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::ElementBuffer;

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
        let stage = PruneStage::new(true);
        // θ = 0 ⇒ everything mints.
        assert_eq!(
            stage.minting_hashes(&view, OverlapThreshold::new(10, 0.0)),
            12
        );
        // θ_sig = 5 ⇒ prefix of 12 + 1 − 5 = 8.
        assert_eq!(
            stage.minting_hashes(&view, OverlapThreshold::new(10, 0.5)),
            8
        );
        // θ_sig = 2 ⇒ prefix of 11.
        assert_eq!(
            stage.minting_hashes(&view, OverlapThreshold::new(10, 0.2)),
            11
        );
        // θ_sig = 14 exceeds the 12-hash signature ⇒ nothing mints.
        assert_eq!(
            stage.minting_hashes(&view, OverlapThreshold::new(20, 0.7)),
            0
        );
        // Filter disabled ⇒ everything mints regardless.
        assert_eq!(
            PruneStage::new(false).minting_hashes(&view, OverlapThreshold::new(10, 0.5)),
            12
        );
        // Empty signature ⇒ nothing to order.
        let empty = view_with(&[], &buffer);
        assert_eq!(
            stage.minting_hashes(&empty, OverlapThreshold::new(10, 0.5)),
            0
        );
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
        let stage = PruneStage::new(true);
        assert_eq!(
            stage.minting_hashes(&view, OverlapThreshold::new(10, 0.5)),
            4
        );
        // One past the constant, the filter engages again.
        let mut nine = [0u64; 9];
        for (i, h) in nine.iter_mut().enumerate() {
            *h = i as u64 + 1;
        }
        nine[8] = u64::MAX;
        let view = view_with(&nine, &buffer);
        assert!(
            stage.minting_hashes(&view, OverlapThreshold::new(10, 0.5)) < 9,
            "a 9-hash signature must engage the prefix filter"
        );
        assert_eq!(SHORT_SIGNATURE_LEN, 8, "test constants track the knob");
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
        let stage = PruneStage::new(true);
        assert_eq!(
            stage.minting_hashes(&view, OverlapThreshold::new(8, 0.5)),
            12
        );
    }
}
