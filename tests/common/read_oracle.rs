//! The permuted-layout oracle of the measurement read path.
//!
//! A functional run ends in the logical layout, so `Measurements` reads
//! logical indices straight from the shards. This module restates the
//! read path the other way round: on a machine left in a stage's layout
//! (logical qubit `q` at physical bit `mapping[q]`), every logical index
//! is translated one at a time through `QubitPermutation::apply_index`:
//!
//! * chunk norms of the sampling CDF, summed per chunk from `0.0` in
//!   logical index order;
//! * inverse-CDF resolution, one shot at a time: the hit chunk, then an
//!   in-chunk scan in logical order, clamped to the chunk's last index of
//!   nonzero probability;
//! * top-k, each candidate remapped to its logical index before selection;
//! * `probability`.
//!
//! `tests/sampling_measurements.rs` pins `Measurements::sample`, `top`,
//! `probability` and `Machine::logical_chunk_norms` to it bit for bit.

use atlas_machine::{Machine, MachineSpec};
use atlas_qmath::{QubitPermutation, EPS};
use atlas_sampler::{CounterRng, SAMPLE_CHUNK_BITS};
use atlas_statevec::StateVector;

/// A state held in a permuted layout, read through per-index translation.
pub struct PermutedLayout {
    machine: Machine,
    /// Logical index → physical index.
    to_physical: QubitPermutation,
    /// Physical index → logical index.
    to_logical: QubitPermutation,
}

impl PermutedLayout {
    /// Lays `state` (given in the logical layout) out on `spec`'s shards
    /// with logical qubit `q` at physical bit `mapping[q]`, by the
    /// per-amplitude scatter.
    pub fn new(spec: MachineSpec, state: &StateVector, mapping: &[u32]) -> Self {
        let to_physical = QubitPermutation::from_map(mapping.to_vec());
        let mut machine = Machine::with_state(spec, state);
        machine.permute_state_scatter(&to_physical, 0);
        let to_logical = to_physical.inverse();
        PermutedLayout {
            machine,
            to_physical,
            to_logical,
        }
    }

    fn num_qubits(&self) -> u32 {
        self.machine.num_qubits()
    }

    /// Probability of the logical basis state `index`.
    pub fn probability(&self, index: u64) -> f64 {
        self.machine
            .amp_at_physical(self.to_physical.apply_index(index))
            .norm_sqr()
    }

    /// Masses of the logical `2^chunk_bits`-index chunks, each summed
    /// from `0.0` in logical index order.
    pub fn chunk_norms(&self, chunk_bits: u32) -> Vec<f64> {
        let c = chunk_bits.min(self.num_qubits());
        (0..1u64 << (self.num_qubits() - c))
            .map(|j| {
                let mut acc = 0.0;
                for t in 0..1u64 << c {
                    acc += self.probability(j << c | t);
                }
                acc
            })
            .collect()
    }

    /// The logical index the cumulative `target` lands on, over the CDF
    /// of `chunk_norms` (from [`PermutedLayout::chunk_norms`] with the
    /// same `chunk_bits`).
    pub fn resolve(&self, chunk_bits: u32, chunk_norms: &[f64], target: f64) -> u64 {
        let c = chunk_bits.min(self.num_qubits());
        let mut prefix = vec![0.0];
        for &m in chunk_norms {
            prefix.push(prefix.last().unwrap() + m);
        }
        // The hit chunk, never past the last chunk of nonzero mass.
        let last_chunk = chunk_norms.iter().rposition(|&m| m > 0.0).unwrap_or(0);
        let mut j = 0;
        while j < last_chunk && prefix[j + 1] <= target {
            j += 1;
        }
        let base = (j as u64) << c;
        let mut acc = prefix[j];
        let mut last = (1u64 << c) - 1;
        for t in 0..1u64 << c {
            let p = self.probability(base | t);
            if p > 0.0 {
                last = t;
            }
            acc += p;
            if target < acc {
                return base | t;
            }
        }
        base | last
    }

    /// `shots` seeded samples, in shot order.
    pub fn sample(&self, shots: usize, seed: u64) -> Vec<u64> {
        let norms = self.chunk_norms(SAMPLE_CHUNK_BITS);
        let total: f64 = norms.iter().sum();
        let rng = CounterRng::new(seed);
        (0..shots as u64)
            .map(|i| self.resolve(SAMPLE_CHUNK_BITS, &norms, rng.f64_at(i) * total))
            .collect()
    }

    /// The `k` most probable outcomes above `EPS`, descending with ties by
    /// ascending logical index: every physical index is remapped before
    /// the selection.
    pub fn top(&self, k: usize) -> Vec<(u64, f64)> {
        let mut all: Vec<(u64, f64)> = (0..1u64 << self.num_qubits())
            .map(|x| {
                let p = self.machine.amp_at_physical(x).norm_sqr();
                (self.to_logical.apply_index(x), p)
            })
            .filter(|&(_, p)| p > EPS)
            .collect();
        all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }
}
