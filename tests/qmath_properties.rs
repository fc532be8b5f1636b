//! Property tests for `atlas_qmath::perm` and `atlas_qmath::bits` — the
//! index-space algebra the relayout and the kernels lean on: stage
//! transitions go through `apply_index`, and strided amplitude
//! addressing through `extract_bits` and `deposit_bits`, so their
//! round-trip laws (compose / invert / apply) are load-bearing.

use atlas::qmath::{deposit_bits, extract_bits, insert_bits, QubitPermutation};
use proptest::prelude::*;

/// Deterministic Fisher–Yates permutation of `0..n` from a seed.
fn perm_from_seed(n: usize, seed: u64) -> QubitPermutation {
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

/// Strategy: a random permutation over 1..=24 bit positions.
fn arb_perm() -> impl Strategy<Value = QubitPermutation> {
    (1usize..25, any::<u64>()).prop_map(|(n, seed)| perm_from_seed(n, seed))
}

/// Strategy: a sorted set of distinct bit positions below `n`.
fn arb_bit_set(n: u32) -> impl Strategy<Value = Vec<u32>> {
    any::<u64>().prop_map(move |mask| {
        let mask = mask & ((1u64 << n) - 1);
        (0..n).filter(|b| (mask >> b) & 1 == 1).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `p ∘ p⁻¹ = p⁻¹ ∘ p = id`, and `(p⁻¹)⁻¹ = p`.
    #[test]
    fn inverse_composes_to_identity(p in arb_perm()) {
        let inv = p.inverse();
        prop_assert!(p.then(&inv).is_identity());
        prop_assert!(inv.then(&p).is_identity());
        prop_assert_eq!(inv.inverse(), p);
    }

    /// `apply_index` respects composition: `(a then b)(x) = b(a(x))`,
    /// and inversion round-trips every index.
    #[test]
    fn apply_index_respects_compose_and_invert(
        seeds in (any::<u64>(), any::<u64>()),
        n in 2usize..16,
        idx in any::<u64>(),
    ) {
        let idx = idx & ((1u64 << n) - 1);
        let a = perm_from_seed(n, seeds.0);
        let b = perm_from_seed(n, seeds.1);
        prop_assert_eq!(
            a.then(&b).apply_index(idx),
            b.apply_index(a.apply_index(idx))
        );
        prop_assert_eq!(a.inverse().apply_index(a.apply_index(idx)), idx);
        // apply preserves popcount (it is a bit permutation).
        prop_assert_eq!(a.apply_index(idx).count_ones(), idx.count_ones());
    }

    /// `extract_bits` inverts `deposit_bits` on its range, and
    /// `deposit_bits ∘ extract_bits` masks to the selected positions.
    #[test]
    fn extract_deposit_roundtrip(
        bits in arb_bit_set(20),
        raw in any::<u64>(),
    ) {
        let k = bits.len() as u32;
        let packed = raw & ((1u64 << k) - 1);
        prop_assert_eq!(extract_bits(deposit_bits(packed, &bits), &bits), packed);
        let idx = raw & ((1u64 << 20) - 1);
        let mask: u64 = bits.iter().fold(0, |m, &b| m | (1 << b));
        prop_assert_eq!(deposit_bits(extract_bits(idx, &bits), &bits), idx & mask);
    }

    /// `insert_bits` (base) + `deposit_bits` (offset) tile the index
    /// space: extracting the complement of the inserted positions
    /// recovers the base enumeration.
    #[test]
    fn insert_bits_complement_recovers_base(
        bits in arb_bit_set(12),
        raw in any::<u64>(),
    ) {
        let n = 12u32;
        let k = bits.len() as u32;
        let base = raw & ((1u64 << (n - k)) - 1);
        let rest: Vec<u32> = (0..n).filter(|b| !bits.contains(b)).collect();
        prop_assert_eq!(extract_bits(insert_bits(base, &bits), &rest), base);
        // Inserted positions read back as zero.
        prop_assert_eq!(extract_bits(insert_bits(base, &bits), &bits), 0);
    }

    /// A permutation applied to a single-bit index lands exactly on the
    /// mapped destination — the law that moving relabel flips through a
    /// transition depends on.
    #[test]
    fn single_bits_map_to_dst(p in arb_perm(), bit in 0u32..24) {
        let n = p.len() as u32;
        let bit = bit % n;
        prop_assert_eq!(p.apply_index(1u64 << bit), 1u64 << p.dst(bit));
    }
}
