//! Exact all-to-all traffic analysis for stage transitions.
//!
//! A stage transition remaps physical qubits: a bit permutation `π` of the
//! global amplitude index, optionally composed with a XOR `flip` (from
//! anti-diagonal insular gates relabeling shard bits). Because the map is
//! affine over GF(2), the traffic between any source and destination shard
//! is either zero or exactly `2^{L-f}` amplitudes, where `f` is the number
//! of destination shard bits that are sourced from *local* bits of the
//! origin shard. This module computes that matrix exactly — it is what the
//! clock model charges, and in functional mode it doubles as the routing
//! table's sanity check.

use atlas_qmath::QubitPermutation;

/// Amplitude flow from one shard to another.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrafficEntry {
    /// Source shard index (old layout).
    pub src: usize,
    /// Destination shard index (new layout).
    pub dst: usize,
    /// Number of amplitudes moving along this edge.
    pub amps: u64,
}

/// Computes the exact shard-to-shard traffic matrix for the transition
/// `new_index = perm(old_index) ^ flip` on an `n`-qubit state with `2^L`
/// amplitudes per shard.
///
/// Self-edges (`src == dst`) are included — callers decide whether local
/// rearrangement is charged.
pub fn traffic_matrix(
    perm: &QubitPermutation,
    flip: u64,
    n: u32,
    local_qubits: u32,
) -> Vec<TrafficEntry> {
    assert_eq!(perm.len() as u32, n);
    let l = local_qubits;
    let shard_bits = n - l;
    let num_shards = 1usize << shard_bits;

    // For each destination shard bit j (global bit l + j), find its source.
    // inverse: src bit i maps to dst bit perm.dst(i).
    let inv = perm.inverse();
    // dst-shard bit j ← src bit inv(l + j); record whether that source is a
    // shard bit (deterministic given src shard) or a local bit (free).
    let mut from_shard: Vec<(u32, u32)> = Vec::new(); // (dst_bit_j, src_shard_bit)
    let mut free_bits: Vec<u32> = Vec::new(); // dst_bit_j positions fed by local bits
    for j in 0..shard_bits {
        let src = inv.dst(l + j);
        if src >= l {
            from_shard.push((j, src - l));
        } else {
            free_bits.push(j);
        }
    }
    let f = free_bits.len() as u32;
    let amps_per_edge = 1u64 << (l - f.min(l));
    let flip_shard = (flip >> l) & ((1u64 << shard_bits) - 1);

    // Bits are deposited with shifts, not tests: the inner loop runs once
    // per edge (millions per all-to-all) and a branch per bit would tie its
    // speed to the predictor's luck at the address the linker gives it.
    let mut entries = Vec::with_capacity(num_shards << f);
    for s in 0..num_shards {
        let mut base = 0usize;
        for &(j, sb) in &from_shard {
            base |= ((s >> sb) & 1) << j;
        }
        base ^= flip_shard as usize;
        for combo in 0..1usize << f {
            let mut dst = base;
            for (t, &j) in free_bits.iter().enumerate() {
                dst ^= ((combo >> t) & 1) << j;
            }
            entries.push(TrafficEntry {
                src: s,
                dst,
                amps: amps_per_edge,
            });
        }
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_permutation_is_all_self_edges() {
        let perm = QubitPermutation::identity(6);
        let entries = traffic_matrix(&perm, 0, 6, 4);
        assert_eq!(entries.len(), 4);
        for e in &entries {
            assert_eq!(e.src, e.dst);
            assert_eq!(e.amps, 16);
        }
    }

    #[test]
    fn total_amplitudes_conserved() {
        // Swap a local bit with a shard bit: every shard splits in half.
        let mut map: Vec<u32> = (0..6).collect();
        map.swap(0, 5); // local bit 0 ↔ shard bit (L=4: bit 5 = shard bit 1)
        let perm = QubitPermutation::from_map(map);
        let entries = traffic_matrix(&perm, 0, 6, 4);
        let total: u64 = entries.iter().map(|e| e.amps).sum();
        assert_eq!(total, 1 << 6);
        // Each shard has one free destination bit → 2 edges of 8 amps each.
        assert_eq!(entries.len(), 8);
        assert!(entries.iter().all(|e| e.amps == 8));
    }

    #[test]
    fn flip_relabels_destinations() {
        let perm = QubitPermutation::identity(5);
        // flip shard bit 0 (global bit 3 with L=3).
        let entries = traffic_matrix(&perm, 1 << 3, 5, 3);
        for e in &entries {
            assert_eq!(e.dst, e.src ^ 1, "flip must XOR the shard index");
        }
    }

    #[test]
    fn matrix_matches_exhaustive_index_walk() {
        // Cross-check against brute-force enumeration of every amplitude.
        use std::collections::HashMap;
        let n = 7u32;
        let l = 3u32;
        let perm = QubitPermutation::from_map(vec![4, 1, 6, 3, 0, 5, 2]);
        let flip = 0b1010010u64;
        let entries = traffic_matrix(&perm, flip, n, l);
        let mut expect: HashMap<(usize, usize), u64> = HashMap::new();
        for old in 0..1u64 << n {
            let new = perm.apply_index(old) ^ flip;
            let src = (old >> l) as usize;
            let dst = (new >> l) as usize;
            *expect.entry((src, dst)).or_insert(0) += 1;
        }
        let mut got: HashMap<(usize, usize), u64> = HashMap::new();
        for e in &entries {
            *got.entry((e.src, e.dst)).or_insert(0) += e.amps;
        }
        assert_eq!(expect, got);
    }
}
