//! Hashing substrate for the KMV-family sketches.
//!
//! Every sketch in this library assumes a hash function `h : E → [0, 1)` that
//! behaves like a uniform random draw per element and is collision-free for
//! practical purposes (the paper's "no-collision hash function"). We realise
//! it with a 64-bit integer mixer ([`Hasher64`], a SplitMix64/Murmur-style
//! finaliser) and map the 64-bit output onto the unit interval with
//! [`unit_hash`]. Collisions over 64 bits are negligible at the dataset sizes
//! the evaluation uses.
//!
//! MinHash-based baselines (the LSH Ensemble) need *k independent* hash
//! functions; [`HashFamily`] derives them from a base seed using the same
//! mixer, which keeps the whole library free of external hashing crates.

use serde::{Deserialize, Serialize};

use crate::dataset::ElementId;

/// Golden-ratio increment used by SplitMix64.
const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A deterministic, seeded 64-bit hash function over element identifiers.
///
/// The construction is the SplitMix64 output function applied to
/// `seed ⊕ (element + γ)`; it passes the usual avalanche criteria and is
/// extremely cheap (a handful of multiplications and shifts), which matters
/// because sketch construction hashes every element occurrence in the
/// dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hasher64 {
    seed: u64,
}

impl Hasher64 {
    /// Creates a hash function from an explicit seed. Two hashers with the
    /// same seed are identical; different seeds give (empirically)
    /// independent functions.
    pub fn new(seed: u64) -> Self {
        Hasher64 {
            // Pre-mix the seed so that small consecutive seeds (0, 1, 2, …)
            // still produce unrelated functions.
            seed: mix64(seed ^ SPLITMIX_GAMMA),
        }
    }

    /// The default hash function used by the GB-KMV index when the caller
    /// does not specify a seed.
    pub fn default_sketch_hasher() -> Self {
        Hasher64::new(0x5bd1_e995_9e37_79b9)
    }

    /// Hashes an element to a 64-bit value.
    #[inline]
    pub fn hash(&self, element: ElementId) -> u64 {
        mix64(self.seed ^ (u64::from(element).wrapping_add(SPLITMIX_GAMMA)))
    }

    /// Hashes an element to the unit interval `(0, 1]`.
    ///
    /// The estimators divide by the k-th smallest hash value, so mapping to a
    /// half-open interval that excludes zero avoids a division by zero in the
    /// (astronomically unlikely) event an element hashes to 0.
    #[inline]
    pub fn hash_unit(&self, element: ElementId) -> f64 {
        unit_hash(self.hash(element))
    }

    /// The raw seed after pre-mixing (useful for diagnostics and serde
    /// round-trips).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Reconstructs a hasher from an already pre-mixed seed, i.e. the value
    /// [`Hasher64::seed`] reports — the persistence layer's round-trip
    /// counterpart of [`Hasher64::new`], which would mix the seed a second
    /// time.
    pub(crate) fn from_mixed_seed(seed: u64) -> Self {
        Hasher64 { seed }
    }
}

impl Default for Hasher64 {
    fn default() -> Self {
        Hasher64::default_sketch_hasher()
    }
}

/// Maps a 64-bit hash value onto the unit interval `(0, 1]`.
///
/// The mapping is `(h + 1) / 2^64`, i.e. order preserving: comparing raw
/// `u64` hash values is equivalent to comparing unit-interval values, so the
/// sketches store the compact `u64` form and only convert when an estimator
/// needs `U(k)`.
#[inline]
pub fn unit_hash(raw: u64) -> f64 {
    // 2^64 as f64; (raw + 1) cannot overflow to 0 in the numerator because we
    // compute in f64 after converting.
    (raw as f64 + 1.0) / 1.844_674_407_370_955_2e19
}

/// SplitMix64 / Stafford variant 13 finaliser. Statistically strong 64-bit
/// mixer used by both [`Hasher64`] and [`HashFamily`].
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The hasher of the maps keyed by signature hash values (a shard's posting
/// lists and document frequencies): one [`mix64`] of the key xor a random
/// seed. Every flush hashes each posting of the grown tail shard, and
/// SipHash made a 1-record flush into a 625-record shard about twice as
/// slow. The seed comes from the standard library's random keys, per map,
/// so keys crafted to collide need it, as with `hashbrown`'s randomly seeded
/// default hasher. One value is both the hasher builder and the hasher.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HashValueState(u64);

impl Default for HashValueState {
    fn default() -> Self {
        use std::hash::BuildHasher;
        HashValueState(std::collections::hash_map::RandomState::new().hash_one(0))
    }
}

impl std::hash::BuildHasher for HashValueState {
    type Hasher = Self;

    fn build_hasher(&self) -> Self {
        *self
    }
}

impl std::hash::Hasher for HashValueState {
    fn finish(&self) -> u64 {
        mix64(self.0)
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the keys are u64 hash values, hashed by write_u64")
    }

    fn write_u64(&mut self, value: u64) {
        self.0 ^= value;
    }
}

/// A map keyed by signature hash values (see [`HashValueState`]).
pub(crate) type HashValueMap<V> = std::collections::HashMap<u64, V, HashValueState>;

/// Combines a band index and a slice of hash values into a single 64-bit
/// bucket key (a simple multiply–xor fold finished with the same
/// `mix64` finaliser the hashers use).
///
/// Used by the MinHash LSH banding index and the LSH Forest to address their
/// per-band hash buckets; exposed here so every crate hashes bands the same
/// way.
pub fn mix_band(band: u64, values: &[u64]) -> u64 {
    let mut acc = mix64(band ^ SPLITMIX_GAMMA);
    for &v in values {
        acc = mix64(acc ^ v.wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    }
    acc
}

/// A family of `k` independent hash functions derived from one seed.
///
/// MinHash signatures (Section II-B of the paper) keep, for each record, the
/// minimum value of each of `k` independent hash functions. The family is
/// deterministic: `HashFamily::new(seed, k)` always produces the same
/// functions, which makes experiments reproducible.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HashFamily {
    seeds: Vec<u64>,
}

impl HashFamily {
    /// Derives `k` hash functions from `base_seed`.
    pub fn new(base_seed: u64, k: usize) -> Self {
        let mut seeds = Vec::with_capacity(k);
        let mut state = base_seed;
        for _ in 0..k {
            state = state.wrapping_add(SPLITMIX_GAMMA);
            seeds.push(mix64(state));
        }
        HashFamily { seeds }
    }

    /// Number of hash functions in the family.
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// Whether the family is empty.
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }

    /// Hashes `element` with the `i`-th function of the family.
    #[inline]
    pub fn hash(&self, i: usize, element: ElementId) -> u64 {
        mix64(self.seeds[i] ^ (u64::from(element).wrapping_add(SPLITMIX_GAMMA)))
    }

    /// Returns the `i`-th function as a standalone [`Hasher64`]-compatible
    /// closure-free hasher (same output as [`HashFamily::hash`]).
    pub fn hasher(&self, i: usize) -> Hasher64 {
        // Hasher64::new pre-mixes, so reconstruct an equivalent hasher by
        // storing the already-mixed seed directly.
        Hasher64 {
            seed: self.seeds[i],
        }
    }

    /// Iterates over the per-function seeds.
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hasher_is_deterministic() {
        let h1 = Hasher64::new(42);
        let h2 = Hasher64::new(42);
        for e in 0..100u32 {
            assert_eq!(h1.hash(e), h2.hash(e));
        }
    }

    #[test]
    fn different_seeds_give_different_functions() {
        let h1 = Hasher64::new(1);
        let h2 = Hasher64::new(2);
        let same = (0..1000u32).filter(|&e| h1.hash(e) == h2.hash(e)).count();
        assert_eq!(same, 0, "independent seeds should not collide on 1000 keys");
    }

    #[test]
    fn unit_hash_is_in_half_open_interval() {
        assert!(unit_hash(0) > 0.0);
        assert!(unit_hash(u64::MAX) <= 1.0);
        let h = Hasher64::new(7);
        for e in 0..10_000u32 {
            let u = h.hash_unit(e);
            assert!(u > 0.0 && u <= 1.0, "unit hash {u} out of range");
        }
    }

    #[test]
    fn unit_hash_preserves_order() {
        let mut raw: Vec<u64> = (0..1000u32).map(|e| Hasher64::new(3).hash(e)).collect();
        raw.sort_unstable();
        let units: Vec<f64> = raw.iter().map(|&r| unit_hash(r)).collect();
        assert!(units.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn unit_hash_is_roughly_uniform() {
        // Mean of uniform(0,1] draws should be close to 0.5.
        let h = Hasher64::new(11);
        let n = 100_000u32;
        let mean: f64 = (0..n).map(|e| h.hash_unit(e)).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn hash_family_functions_are_pairwise_distinct() {
        let fam = HashFamily::new(123, 16);
        assert_eq!(fam.len(), 16);
        for i in 0..fam.len() {
            for j in (i + 1)..fam.len() {
                let collisions = (0..500u32)
                    .filter(|&e| fam.hash(i, e) == fam.hash(j, e))
                    .count();
                assert_eq!(collisions, 0, "functions {i} and {j} collide");
            }
        }
    }

    #[test]
    fn hash_family_hasher_matches_direct_hash() {
        let fam = HashFamily::new(9, 4);
        for i in 0..4 {
            let hasher = fam.hasher(i);
            for e in 0..50u32 {
                assert_eq!(hasher.hash(e), fam.hash(i, e));
            }
        }
    }

    #[test]
    fn mix_band_depends_on_band_and_values() {
        let values = [1u64, 2, 3];
        assert_eq!(mix_band(0, &values), mix_band(0, &values));
        assert_ne!(mix_band(0, &values), mix_band(1, &values));
        assert_ne!(mix_band(0, &values), mix_band(0, &[1, 2, 4]));
        assert_ne!(mix_band(0, &[]), mix_band(1, &[]));
    }

    #[test]
    fn min_hash_collision_probability_approximates_jaccard() {
        // Statistical sanity check of the MinHash property the LSH baseline
        // relies on: Pr[argmin h(X) == argmin h(Y)] == J(X, Y).
        let x: Vec<ElementId> = (0..100).collect();
        let y: Vec<ElementId> = (50..150).collect();
        // True Jaccard = 50 / 150 = 1/3.
        let fam = HashFamily::new(77, 600);
        let mut matches = 0usize;
        for i in 0..fam.len() {
            let min_x = x.iter().map(|&e| fam.hash(i, e)).min().unwrap();
            let min_y = y.iter().map(|&e| fam.hash(i, e)).min().unwrap();
            if min_x == min_y {
                matches += 1;
            }
        }
        let estimate = matches as f64 / fam.len() as f64;
        assert!(
            (estimate - 1.0 / 3.0).abs() < 0.07,
            "MinHash estimate {estimate} too far from 1/3"
        );
    }
}
