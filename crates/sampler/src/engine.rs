//! The [`Measurements`] handle: post-execution workloads on the sharded,
//! still-permuted state.

use crate::pauli::PauliString;
use crate::rng::CounterRng;
use atlas_machine::Machine;
use atlas_qmath::{IndexPermuter, QubitPermutation};
use atlas_statevec::with_pool;

/// Logical chunk granularity of the sampling CDF (`2^12` basis states
/// per chunk).
///
/// The coarse CDF then has `2^{n-12}` entries (4096 at `n = 24` — a few
/// KB next to the 2^28-byte state), while a per-shot chunk scan touches
/// at most 4096 amplitudes. The constant depends on nothing but itself:
/// not on the thread count, not on the shard count — which is what makes
/// a seeded sample reproducible across every machine shape.
pub const SAMPLE_CHUNK_BITS: u32 = 12;

/// Measurement engine over a finished functional run.
///
/// Owns the [`Machine`] with its sharded amplitude buffers and the final
/// stage's logical→physical qubit mapping, and evaluates the
/// post-execution workload family — shot samples, marginal
/// distributions, Pauli-string expectations, top outcomes — **directly
/// on the shards**. The final qubit permutation is undone in index space
/// (a byte-LUT [`IndexPermuter`] per accessed index), never by
/// materializing the unpermuted `2^n` vector: there is no
/// `gather_state` on any path through this type.
///
/// ## Determinism
///
/// All results are bit-identical for every thread count (reductions
/// combine fixed-size chunks in a fixed order — see
/// [`atlas_statevec::measure`]), and a seeded [`Measurements::sample`]
/// additionally orders its CDF in *logical* index space, so the sampled
/// bitstrings do not depend on the shard layout either.
pub struct Measurements {
    machine: Machine,
    /// Logical qubit `q` lives at physical bit `mapping[q]`.
    mapping: Vec<u32>,
    /// Logical index → physical index.
    l2p: IndexPermuter,
    /// Physical index → logical index.
    p2l: IndexPermuter,
    /// Host threads measurement reductions may use.
    threads: usize,
}

impl std::fmt::Debug for Measurements {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Measurements")
            .field("num_qubits", &self.machine.num_qubits())
            .field("num_shards", &self.machine.num_shards())
            .field("mapping", &self.mapping)
            .field("threads", &self.threads)
            .finish()
    }
}

impl Measurements {
    /// Wraps a finished functional run. `mapping[q]` is the physical bit
    /// holding logical qubit `q` in the machine's final layout (the last
    /// stage's mapping, or the identity after a final unpermute); any
    /// pending X/Y relabel flips must already be applied.
    pub fn new(machine: Machine, mapping: Vec<u32>, threads: usize) -> Self {
        assert!(!machine.is_dry(), "measurements need amplitudes");
        assert_eq!(mapping.len() as u32, machine.num_qubits());
        let perm = QubitPermutation::from_map(mapping.clone());
        let l2p = IndexPermuter::new(&perm);
        let p2l = IndexPermuter::new(&perm.inverse());
        Measurements {
            machine,
            mapping,
            l2p,
            p2l,
            threads: threads.max(1),
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> u32 {
        self.machine.num_qubits()
    }

    /// Read access to the underlying machine (shards stay borrowed).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The final logical→physical qubit mapping.
    pub fn mapping(&self) -> &[u32] {
        &self.mapping
    }

    /// Probability of the **logical** basis state `index` (one index-space
    /// unpermutation, one shard read).
    pub fn probability(&self, index: u64) -> f64 {
        // The byte LUT would silently drop bits ≥ n and alias the index
        // into range; fail loudly instead, like a dense state would.
        assert!(
            index < 1u64 << self.num_qubits(),
            "basis state {index} out of range for {} qubits",
            self.num_qubits()
        );
        self.machine
            .amp_at_physical(self.l2p.apply(index))
            .norm_sqr()
    }

    /// Total probability mass `Σ|α|²` (≈ 1 for a physical state).
    pub fn total_norm(&self) -> f64 {
        with_pool(self.threads, |pool| self.machine.total_norm(pool))
    }

    /// Draws `shots` basis-state samples from the measurement
    /// distribution, returned as **logical** bitstrings in shot order.
    ///
    /// Inverse-CDF over logical chunks: shot `i`'s variate is the pure
    /// function [`CounterRng::f64_at`]`(i)` of the seed, the coarse CDF
    /// comes from [`Machine::logical_chunk_norms`], and each shot scans
    /// only its hit chunk ([`Machine::resolve_targets`]). With a fixed
    /// seed the output is byte-identical across thread counts and shard
    /// layouts; the cost is `O(2^n + shots·(log(2^{n-c}) + 2^c))` with no
    /// `2^n` allocation.
    pub fn sample(&self, shots: usize, seed: u64) -> Vec<u64> {
        if shots == 0 {
            return Vec::new();
        }
        with_pool(self.threads, |pool| {
            let chunk_norms = self
                .machine
                .logical_chunk_norms(&self.l2p, SAMPLE_CHUNK_BITS, pool);
            let total: f64 = chunk_norms.iter().sum();
            let rng = CounterRng::new(seed);
            let targets: Vec<f64> = (0..shots).map(|i| rng.f64_at(i as u64) * total).collect();
            // Resolve in ascending-target order (one monotone CDF walk),
            // then restore shot order.
            let mut order: Vec<usize> = (0..shots).collect();
            order.sort_by(|&a, &b| targets[a].total_cmp(&targets[b]).then(a.cmp(&b)));
            let sorted: Vec<f64> = order.iter().map(|&i| targets[i]).collect();
            let resolved = self.machine.resolve_targets(
                &self.l2p,
                SAMPLE_CHUNK_BITS,
                &chunk_norms,
                &sorted,
                pool,
            );
            let mut out = vec![0u64; shots];
            for (pos, &shot) in order.iter().enumerate() {
                out[shot] = resolved[pos];
            }
            out
        })
    }

    /// [`Measurements::sample`] aggregated into `(bitstring, count)`
    /// pairs, most frequent first (ties by ascending bitstring).
    pub fn sample_counts(&self, shots: usize, seed: u64) -> Vec<(u64, u64)> {
        count_samples(self.sample(shots, seed))
    }

    /// The expectation value `⟨ψ|P|ψ⟩` of a Pauli string over **logical**
    /// qubits, reduced per shard on the permuted state (the string's
    /// masks are pushed through the qubit mapping; no amplitude moves,
    /// no matrix is built). Exact up to floating-point rounding.
    pub fn expectation(&self, p: &PauliString) -> f64 {
        assert_eq!(
            p.num_qubits(),
            self.num_qubits(),
            "Pauli string width must match the circuit"
        );
        let flip = self.phys_mask(p.x_mask() | p.y_mask());
        let sign = self.phys_mask(p.z_mask() | p.y_mask());
        with_pool(self.threads, |pool| {
            if flip == 0 {
                // Diagonal string (I/Z only): a real signed norm.
                self.machine.signed_norm_sum(sign, pool)
            } else {
                let sum = self.machine.signed_pair_sum(flip, sign, pool);
                // i^{#Y} prefactor restores Hermiticity.
                let z = p.phase_prefactor() * sum;
                debug_assert!(
                    z.im.abs() < 1e-9,
                    "Pauli expectation must be real, got {z:?}"
                );
                z.re
            }
        })
    }

    /// Marginal probability distribution over the given **logical**
    /// qubits: entry `v` is the probability that measuring `qubits[t]`
    /// yields bit `t` of `v`. Qubits must be distinct; order defines the
    /// result's bit order.
    pub fn marginal(&self, qubits: &[u32]) -> Vec<f64> {
        let n = self.num_qubits();
        let mut seen = 0u64;
        let phys: Vec<u32> = qubits
            .iter()
            .map(|&q| {
                assert!(q < n, "qubit {q} out of range");
                assert!(seen & (1 << q) == 0, "duplicate qubit {q}");
                seen |= 1 << q;
                self.mapping[q as usize]
            })
            .collect();
        with_pool(self.threads, |pool| {
            self.machine.marginal_distribution(&phys, pool)
        })
    }

    /// The `k` most probable outcomes as `(logical bitstring,
    /// probability)`, descending with ties by ascending bitstring,
    /// computed with per-shard bounded heaps; each candidate's index is
    /// unpermuted before selection, so the result matches
    /// `StateVector::top_probabilities` on the unpermuted state exactly.
    pub fn top(&self, k: usize) -> Vec<(u64, f64)> {
        with_pool(self.threads, |pool| {
            self.machine.top_outcomes(k, &self.p2l, pool)
        })
    }

    /// Deposits a logical qubit mask onto physical bits.
    fn phys_mask(&self, logical: u64) -> u64 {
        let mut out = 0u64;
        let mut m = logical;
        while m != 0 {
            let q = m.trailing_zeros();
            m &= m - 1;
            out |= 1u64 << self.mapping[q as usize];
        }
        out
    }
}

/// Aggregates raw shot samples into `(bitstring, count)` pairs, most
/// frequent first (ties by ascending bitstring).
pub fn count_samples(mut samples: Vec<u64>) -> Vec<(u64, u64)> {
    samples.sort_unstable();
    let mut counts: Vec<(u64, u64)> = Vec::new();
    for s in samples {
        match counts.last_mut() {
            Some((v, c)) if *v == s => *c += 1,
            _ => counts.push((s, 1)),
        }
    }
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    counts
}
