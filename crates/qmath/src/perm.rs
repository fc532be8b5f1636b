//! Permutations of qubit (index-bit) positions.
//!
//! A stage transition in Atlas remaps logical qubits to different physical
//! qubits; on the state vector this is a permutation of index bits. This
//! module provides the permutation algebra; the data movement it induces is
//! implemented in `atlas-statevec` / `atlas-machine`.

/// A permutation over `n` bit positions.
///
/// `map[src] = dst` means bit `src` of a source index moves to bit `dst` of
/// the destination index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QubitPermutation {
    map: Vec<u32>,
}

impl QubitPermutation {
    /// The identity permutation on `n` positions.
    pub fn identity(n: usize) -> Self {
        QubitPermutation {
            map: (0..n as u32).collect(),
        }
    }

    /// Builds a permutation from `map[src] = dst`. Panics if `map` is not a
    /// permutation of `0..map.len()`.
    pub fn from_map(map: Vec<u32>) -> Self {
        let n = map.len();
        let mut seen = vec![false; n];
        for &d in &map {
            assert!((d as usize) < n, "permutation target {d} out of range");
            assert!(!seen[d as usize], "duplicate permutation target {d}");
            seen[d as usize] = true;
        }
        QubitPermutation { map }
    }

    /// Number of positions.
    #[inline]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` for the empty permutation.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Destination of bit `src`.
    #[inline(always)]
    pub fn dst(&self, src: u32) -> u32 {
        self.map[src as usize]
    }

    /// `true` if this is the identity.
    pub fn is_identity(&self) -> bool {
        self.map.iter().enumerate().all(|(i, &d)| i as u32 == d)
    }

    /// The inverse permutation (`dst → src`).
    pub fn inverse(&self) -> QubitPermutation {
        let mut inv = vec![0u32; self.map.len()];
        for (src, &dst) in self.map.iter().enumerate() {
            inv[dst as usize] = src as u32;
        }
        QubitPermutation { map: inv }
    }

    /// Composition `other ∘ self`: apply `self` first, then `other`.
    pub fn then(&self, other: &QubitPermutation) -> QubitPermutation {
        assert_eq!(self.len(), other.len());
        QubitPermutation {
            map: self.map.iter().map(|&m| other.map[m as usize]).collect(),
        }
    }

    /// Applies the permutation to an amplitude index, one bit at a time
    /// (`O(n)`). The per-amplitude scatter oracle of the relayout calls
    /// this once per amplitude.
    ///
    /// Branch-free on purpose: with a data-dependent branch per index bit
    /// the cost of a per-amplitude loop follows the branch predictor's luck
    /// at whatever address the linker places it (the same machine code
    /// measured 10 % apart in two builds that differed only elsewhere).
    #[inline]
    pub fn apply_index(&self, idx: u64) -> u64 {
        let mut out = 0u64;
        for (src, &dst) in self.map.iter().enumerate() {
            out |= ((idx >> src) & 1) << dst;
        }
        out
    }

    /// Raw `src → dst` map.
    pub fn as_map(&self) -> &[u32] {
        &self.map
    }

    /// The set of positions moved by the permutation (src != dst).
    pub fn moved_positions(&self) -> Vec<u32> {
        self.map
            .iter()
            .enumerate()
            .filter(|(i, &d)| *i as u32 != d)
            .map(|(i, _)| i as u32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_fixes_indices() {
        let p = QubitPermutation::identity(6);
        assert!(p.is_identity());
        for idx in 0..64u64 {
            assert_eq!(p.apply_index(idx), idx);
        }
    }

    #[test]
    fn inverse_roundtrip() {
        let p = QubitPermutation::from_map(vec![2, 0, 3, 1]);
        let inv = p.inverse();
        for idx in 0..16u64 {
            assert_eq!(inv.apply_index(p.apply_index(idx)), idx);
        }
        assert!(p.then(&inv).is_identity());
    }

    #[test]
    fn composition_order() {
        // self: 0->1, 1->0, 2->2 ; other: 0->2, 1->1, 2->0
        let a = QubitPermutation::from_map(vec![1, 0, 2]);
        let b = QubitPermutation::from_map(vec![2, 1, 0]);
        let ab = a.then(&b); // apply a, then b: 0 -> 1 -> 1; 1 -> 0 -> 2; 2 -> 2 -> 0
        assert_eq!(ab.as_map(), &[1, 2, 0]);
        for idx in 0..8u64 {
            assert_eq!(ab.apply_index(idx), b.apply_index(a.apply_index(idx)));
        }
    }

    #[test]
    fn swap_permutation_on_indices() {
        // Swap bits 0 and 2 of a 3-bit index.
        let p = QubitPermutation::from_map(vec![2, 1, 0]);
        assert_eq!(p.apply_index(0b001), 0b100);
        assert_eq!(p.apply_index(0b100), 0b001);
        assert_eq!(p.apply_index(0b010), 0b010);
        assert_eq!(p.apply_index(0b101), 0b101);
    }

    /// Deterministic Fisher–Yates from an LCG seed.
    fn random_perm(n: usize, seed: u64) -> QubitPermutation {
        let mut map: Vec<u32> = (0..n as u32).collect();
        let mut s = seed | 1;
        for i in (1..n).rev() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            map.swap(i, (s >> 33) as usize % (i + 1));
        }
        QubitPermutation::from_map(map)
    }

    #[test]
    fn random_inverse_roundtrips() {
        for seed in 0..32u64 {
            let p = random_perm(10, seed);
            let inv = p.inverse();
            assert!(p.then(&inv).is_identity(), "p∘p⁻¹ ≠ id at seed {seed}");
            assert!(inv.then(&p).is_identity(), "p⁻¹∘p ≠ id at seed {seed}");
            assert_eq!(inv.inverse(), p, "(p⁻¹)⁻¹ ≠ p at seed {seed}");
            for idx in [0u64, 1, 37, 511, 1023] {
                assert_eq!(inv.apply_index(p.apply_index(idx)), idx);
            }
        }
    }

    #[test]
    fn composition_is_associative_on_indices() {
        for seed in 0..16u64 {
            let a = random_perm(8, seed);
            let b = random_perm(8, seed + 1000);
            let c = random_perm(8, seed + 2000);
            let left = a.then(&b).then(&c);
            let right = a.then(&b.then(&c));
            assert_eq!(left, right, "associativity broke at seed {seed}");
            for idx in 0..256u64 {
                assert_eq!(
                    left.apply_index(idx),
                    c.apply_index(b.apply_index(a.apply_index(idx)))
                );
            }
        }
    }

    #[test]
    fn apply_index_is_a_bijection() {
        let p = random_perm(8, 7);
        let mut seen = vec![false; 256];
        for idx in 0..256u64 {
            let out = p.apply_index(idx) as usize;
            assert!(!seen[out], "index {out} hit twice");
            seen[out] = true;
        }
    }

    #[test]
    fn moved_positions() {
        let p = QubitPermutation::from_map(vec![0, 2, 1, 3]);
        assert_eq!(p.moved_positions(), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn rejects_non_permutation() {
        let _ = QubitPermutation::from_map(vec![0, 0, 1]);
    }
}
