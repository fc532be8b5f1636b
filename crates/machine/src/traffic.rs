//! The interconnect charge of a stage transition, in closed form.
//!
//! A stage transition remaps physical qubits: a bit permutation `π` of the
//! global amplitude index, optionally composed with a XOR `flip` (from
//! anti-diagonal insular gates relabeling shard bits). Because the map is
//! affine over GF(2), the traffic between any source and destination shard
//! is either zero or exactly `2^{L-f}` amplitudes, where `f` is the number
//! of destination shard bits that are sourced from *local* bits of the
//! origin shard (the *free* bits). Source shard `s` therefore sends equal
//! blocks to the `2^f` destinations `base(s) ^ c`, `c` ranging over the
//! subsets of the free bits, and how many of them share its node or its
//! GPU is a count of which bits of `base(s) ^ s` the free bits can cancel.
//! The charge is built from those per-source counts — `O(shards)` integer
//! work and no edge list, so a paper-scale dry run (2^16 shards, 2^15
//! destinations each) costs what its shard count costs.

use crate::cost::AMP_BYTES;
use crate::topology::MachineSpec;
use atlas_qmath::QubitPermutation;

/// What the clock model charges for one transition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Traffic {
    /// Whether any amplitude changes shard.
    pub moved: bool,
    /// Bytes moved between GPUs of one node, over the whole cluster.
    pub bytes_intra: u64,
    /// Bytes moved between nodes, over the whole cluster.
    pub bytes_inter: u64,
    /// The largest intra-node byte count one GPU sends.
    pub max_gpu_intra: u64,
    /// The largest inter-node byte count one node sends.
    pub max_node_inter: u64,
}

/// The traffic of the transition `new_index = perm(old_index) ^ flip` on
/// an `n`-qubit state sharded by `spec`.
///
/// Bytes are attributed to the sending GPU (intra-node) and node
/// (inter-node); blocks that stay on their GPU — the shard itself, or an
/// offloaded sibling in the same host memory — cost no link time.
/// `link_bytes` is scratch for those per-sender sums and must hold
/// `spec.num_gpus() + spec.nodes` entries.
pub(crate) fn transition_traffic(
    spec: &MachineSpec,
    n: u32,
    perm: &QubitPermutation,
    flip: u64,
    link_bytes: &mut [u64],
) -> Traffic {
    assert_eq!(perm.len() as u32, n);
    let l = spec.local_qubits;
    let shard_bits = n - l;
    let num_shards = 1usize << shard_bits;
    let all = num_shards - 1;

    // Destination shard bit of every source shard bit that stays a shard
    // bit; the destination shard bits none of them reach are free.
    let mut lands = [(0u32, 0u32); 64];
    let mut num_lands = 0;
    let mut fixed = 0usize;
    for i in 0..shard_bits {
        let d = perm.dst(l + i);
        if d >= l {
            lands[num_lands] = (i, d - l);
            num_lands += 1;
            fixed |= 1 << (d - l);
        }
    }
    let lands = &lands[..num_lands];
    let free = all & !fixed;
    let fanout = 1u64 << free.count_ones();
    let edge_bytes = ((1u64 << (l - free.count_ones())) as f64 * AMP_BYTES) as u64;

    // Shard bits that name the node, and those that name the GPU (the node
    // plus the low regional bits a GPU index keeps).
    let regional = spec.regional_qubits(n);
    let node_bits = all & !((1usize << regional) - 1);
    let gpu_bits = node_bits | ((spec.gpus_per_node - 1) & !node_bits & all);
    // Destinations on the sender's node (GPU), when its offset allows any:
    // the free bits outside the node (GPU) bits still range freely.
    let node_fanout = 1u64 << (free & !node_bits).count_ones();
    let gpu_fanout = 1u64 << (free & !gpu_bits).count_ones();
    let flip_shard = (flip >> l) as usize & all;

    let (per_gpu, per_node) = link_bytes.split_at_mut(spec.num_gpus());
    per_gpu.fill(0);
    per_node.fill(0);
    let mut out = Traffic::default();
    for s in 0..num_shards {
        let mut base = flip_shard;
        for &(i, d) in lands {
            base ^= ((s >> i) & 1) << d;
        }
        // The part of `base ^ s` no free bit can cancel.
        let stuck = (base ^ s) & !free;
        let on_node = if stuck & node_bits == 0 {
            node_fanout
        } else {
            0
        };
        let on_gpu = if stuck & gpu_bits == 0 { gpu_fanout } else { 0 };
        out.moved |= fanout > 1 || stuck != 0;
        let intra = (on_node - on_gpu) * edge_bytes;
        let inter = (fanout - on_node) * edge_bytes;
        per_gpu[spec.gpu_of_shard(n, s)] += intra;
        per_node[spec.node_of_shard(n, s)] += inter;
        out.bytes_intra += intra;
        out.bytes_inter += inter;
    }
    out.max_gpu_intra = per_gpu.iter().copied().max().unwrap_or(0);
    out.max_node_inter = per_node.iter().copied().max().unwrap_or(0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traffic(spec: MachineSpec, n: u32, perm: &QubitPermutation, flip: u64) -> Traffic {
        let mut scratch = vec![0; spec.num_gpus() + spec.nodes];
        transition_traffic(&spec, n, perm, flip, &mut scratch)
    }

    fn spec(nodes: usize, gpus_per_node: usize, local_qubits: u32) -> MachineSpec {
        MachineSpec {
            nodes,
            gpus_per_node,
            local_qubits,
        }
    }

    #[test]
    fn identity_permutation_moves_nothing() {
        let t = traffic(spec(2, 2, 4), 6, &QubitPermutation::identity(6), 0);
        assert_eq!(t, Traffic::default());
    }

    #[test]
    fn local_bit_swapped_with_node_bit_sends_half_of_every_shard() {
        // n = 6, L = 4, 2 nodes × 2 GPUs: shard bit 1 (global 5) is the
        // node bit. Swapping it with local bit 0 sends half of every shard
        // (8 amplitudes) to the other node and keeps half at home.
        let mut map: Vec<u32> = (0..6).collect();
        map.swap(0, 5);
        let t = traffic(spec(2, 2, 4), 6, &QubitPermutation::from_map(map), 0);
        assert!(t.moved);
        assert_eq!(t.bytes_intra, 0);
        assert_eq!(t.bytes_inter, 4 * 8 * 16);
        assert_eq!(t.max_node_inter, 2 * 8 * 16);
    }

    #[test]
    fn flip_of_a_gpu_bit_moves_whole_shards_within_the_node() {
        // Flip shard bit 0 (global 3, L = 3): every shard swaps with its
        // same-node neighbour on the other GPU.
        let t = traffic(spec(2, 2, 3), 5, &QubitPermutation::identity(5), 1 << 3);
        assert!(t.moved);
        assert_eq!(t.bytes_inter, 0);
        assert_eq!(t.bytes_intra, 4 * 8 * 16);
        assert_eq!(t.max_gpu_intra, 8 * 16);
    }

    #[test]
    fn offloaded_siblings_exchange_for_free() {
        // One GPU holds all four shards: a shard-bit flip relocates every
        // amplitude, but through host memory, not a link.
        let t = traffic(spec(1, 1, 3), 5, &QubitPermutation::identity(5), 0b11 << 3);
        assert!(t.moved);
        assert_eq!((t.bytes_intra, t.bytes_inter), (0, 0));
    }
}
