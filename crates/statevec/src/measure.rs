//! Measurement reduction kernels: probability prefix sums, partial
//! norms, signed (Pauli-diagonal) norms, and off-diagonal Pauli pair
//! sums — the per-shard building blocks of the `atlas-sampler`
//! measurement engine.
//!
//! ## Determinism contract
//!
//! Every reduction here is **chunked**: the input is cut into fixed
//! [`MEASURE_CHUNK`]-amplitude chunks, each chunk is summed serially in
//! index order, and the per-chunk partials are combined serially in chunk
//! order. The chunks run as items of the [`Pool`] passed in
//! ([`Pool::map`]); their boundaries depend only on the slice length —
//! never on the pool — so every reduction is **bit-identical** for every
//! pool (the same floating-point additions in the same order;
//! [`Pool::SERIAL`] is the serial form, as for the kernels of
//! [`crate::apply`]). The chunked partials are also exposed directly
//! ([`chunk_norms`]) because they double as the coarse CDF ("probability
//! prefix sum") that inverse-transform shot sampling binary-searches
//! before scanning a single chunk.

use crate::pool::Pool;
use atlas_qmath::Complex64;

/// Fixed reduction granularity (amplitudes per chunk).
///
/// Small enough that a chunk-level CDF over a `2^28`-amplitude shard
/// stays tiny (`2^16` entries), large enough that the serial per-chunk
/// scan dominates the per-chunk bookkeeping. Changing this constant
/// changes floating-point association (and therefore last-ulp results);
/// it is deliberately a single global knob so serial and parallel paths
/// can never disagree.
pub const MEASURE_CHUNK: usize = 1 << 12;

/// Computes per-chunk values `eval(chunk_index, chunk_slice)` for every
/// [`MEASURE_CHUNK`]-sized chunk of `amps` (one empty chunk for an empty
/// slice), one pool item per chunk when there are at least two. The
/// output order, and each value for a deterministic `eval`, is
/// independent of the pool.
fn map_chunks<T: Send>(
    amps: &[Complex64],
    pool: &Pool,
    eval: &(dyn Fn(usize, &[Complex64]) -> T + Sync),
) -> Vec<T> {
    let n = amps.len().div_ceil(MEASURE_CHUNK).max(1);
    let pool = if n < 2 { &Pool::SERIAL } else { pool };
    pool.map(n, &|i| {
        let start = i * MEASURE_CHUNK;
        eval(i, &amps[start..(start + MEASURE_CHUNK).min(amps.len())])
    })
}

/// Per-chunk probability masses `Σ|aᵢ|²` over fixed
/// [`MEASURE_CHUNK`]-sized chunks — the coarse row of a probability
/// prefix sum (its running total is the chunk-level CDF).
pub fn chunk_norms(amps: &[Complex64], pool: &Pool) -> Vec<f64> {
    map_chunks(amps, pool, &|_, c| {
        c.iter().map(|a| a.norm_sqr()).sum::<f64>()
    })
}

/// Partial norm `Σ|aᵢ|²` of a slice, chunk-combined in index order.
pub fn norm_sqr_slice(amps: &[Complex64], pool: &Pool) -> f64 {
    chunk_norms(amps, pool).iter().sum()
}

/// Sign of `(-1)^{popcount(x & mask)}` as `+1.0` / `-1.0`.
#[inline(always)]
fn sign(x: u64, mask: u64) -> f64 {
    if (x & mask).count_ones() & 1 == 0 {
        1.0
    } else {
        -1.0
    }
}

/// Diagonal Pauli reduction over one shard:
/// `Σᵢ (-1)^{popcount((base|i) & sign_mask)} · |aᵢ|²`, where `base` is
/// the shard's global index offset. With `sign_mask = 0` this degrades to
/// the partial norm.
pub fn signed_norm(amps: &[Complex64], base: u64, sign_mask: u64, pool: &Pool) -> f64 {
    map_chunks(amps, pool, &|ci, c| {
        let chunk_base = base | (ci * MEASURE_CHUNK) as u64;
        c.iter()
            .enumerate()
            .map(|(i, a)| sign(chunk_base | i as u64, sign_mask) * a.norm_sqr())
            .sum::<f64>()
    })
    .iter()
    .sum()
}

/// Off-diagonal Pauli reduction over one shard:
/// `Σᵢ conj(b[i ^ local_flip]) · (-1)^{popcount((base|i) & sign_mask)} · a[i]`
/// where `a` is the shard's amplitudes, `b` the partner shard holding the
/// flipped-index amplitudes (equal to `a` when the flip stays local), and
/// `base` the shard's global index offset.
pub fn signed_pair_sum(
    a: &[Complex64],
    b: &[Complex64],
    local_flip: usize,
    base: u64,
    sign_mask: u64,
    pool: &Pool,
) -> Complex64 {
    assert_eq!(a.len(), b.len());
    // `i ^ local_flip` only stays in range on power-of-two shards, which
    // is the only shape `atlas-machine` allocates.
    assert!(a.len().is_power_of_two(), "shard length must be 2^L");
    assert!(local_flip < a.len(), "flip must stay in the shard");
    map_chunks(a, pool, &|ci, c| {
        let start = ci * MEASURE_CHUNK;
        let chunk_base = base | start as u64;
        let mut acc = Complex64::ZERO;
        for (i, &ai) in c.iter().enumerate() {
            let s = sign(chunk_base | i as u64, sign_mask);
            let partner = b[(start + i) ^ local_flip];
            acc += partner.conj() * ai * s;
        }
        acc
    })
    .iter()
    .fold(Complex64::ZERO, |acc, &v| acc + v)
}

/// A bounded top-`k` selector over `(index, probability)` outcomes.
///
/// Keeps the `k` most probable entries seen so far in a min-heap —
/// `O(log k)` per push, `O(N log k)` for a full `N`-outcome stream —
/// with a pinned total order: descending probability, ties broken by
/// ascending index. Feeding outcomes in any order yields the same final
/// set *except* for ties straddling the `k` boundary, so callers that
/// need exact tie stability feed indices in ascending order.
#[derive(Clone, Debug)]
pub struct TopK {
    k: usize,
    /// Min-heap (via `Reverse`): the root is the current worst keeper.
    heap: std::collections::BinaryHeap<std::cmp::Reverse<TopEntry>>,
}

/// Heap entry ordered "better = greater": higher probability wins, equal
/// probabilities prefer the smaller index.
#[derive(Clone, Debug, PartialEq)]
struct TopEntry {
    p: f64,
    idx: u64,
}

impl Eq for TopEntry {}

impl Ord for TopEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.p
            .total_cmp(&other.p)
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

impl PartialOrd for TopEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl TopK {
    /// An empty selector keeping at most `k` outcomes.
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            heap: std::collections::BinaryHeap::with_capacity(k + 1),
        }
    }

    /// Offers one outcome.
    pub fn push(&mut self, idx: u64, p: f64) {
        if self.k == 0 {
            return;
        }
        let entry = TopEntry { p, idx };
        if self.heap.len() < self.k {
            self.heap.push(std::cmp::Reverse(entry));
        } else if self.heap.peek().is_some_and(|worst| entry > worst.0) {
            self.heap.pop();
            self.heap.push(std::cmp::Reverse(entry));
        }
    }

    /// Merges another selector's keepers into this one.
    pub fn merge(&mut self, other: TopK) {
        for std::cmp::Reverse(e) in other.heap {
            self.push(e.idx, e.p);
        }
    }

    /// The kept outcomes, best first (descending probability, ascending
    /// index on ties).
    pub fn into_sorted_vec(self) -> Vec<(u64, f64)> {
        let mut v: Vec<TopEntry> = self.heap.into_iter().map(|r| r.0).collect();
        v.sort_by(|a, b| b.cmp(a));
        v.into_iter().map(|e| (e.idx, e.p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(len: usize) -> Vec<Complex64> {
        (0..len)
            .map(|i| Complex64::new(0.01 * i as f64, -0.003 * i as f64))
            .collect()
    }

    #[test]
    fn parallel_reductions_are_bit_identical() {
        // Longer than one chunk so the parallel split is real.
        let amps = ramp(MEASURE_CHUNK * 3 + 17);
        // Pair sums require a power-of-two (shard-shaped) slice.
        let pow2 = ramp(MEASURE_CHUNK * 4);
        let b = ramp(pow2.len());
        let bits = |pool: &Pool| {
            let pair = signed_pair_sum(&pow2, &b, 3, 0, 0b110, pool);
            let mut bits: Vec<u64> = chunk_norms(&amps, pool)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            bits.extend([
                norm_sqr_slice(&amps, pool).to_bits(),
                signed_norm(&amps, 1 << 20, 0b1011, pool).to_bits(),
                pair.re.to_bits(),
                pair.im.to_bits(),
            ]);
            bits
        };
        let serial = bits(&Pool::SERIAL);
        for threads in [2usize, 5, 8] {
            crate::pool::with_pool(threads, |pool| assert_eq!(bits(pool), serial));
        }
    }

    #[test]
    fn chunk_norms_sum_to_norm() {
        let amps = ramp(MEASURE_CHUNK + 100);
        let direct: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        let chunked: f64 = chunk_norms(&amps, &Pool::SERIAL).iter().sum();
        assert!((direct - chunked).abs() < 1e-9);
        assert_eq!(chunk_norms(&amps, &Pool::SERIAL).len(), 2);
    }

    #[test]
    fn signed_norm_flips_sign_on_masked_bits() {
        // Two amplitudes: |0⟩ weight 0.25, |1⟩ weight 0.75.
        let amps = vec![Complex64::real(0.5), Complex64::real(0.75f64.sqrt())];
        // Z on bit 0: 0.25 - 0.75 = -0.5.
        assert!((signed_norm(&amps, 0, 1, &Pool::SERIAL) + 0.5).abs() < 1e-12);
        // Base offset with a masked high bit flips everything.
        assert!((signed_norm(&amps, 0b100, 0b100, &Pool::SERIAL) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pair_sum_matches_manual_x_expectation() {
        // |ψ⟩ = α|0⟩ + β|1⟩ ; ⟨X⟩ = 2·Re(α* β).
        let (alpha, beta) = (Complex64::new(0.6, 0.1), Complex64::new(0.2, -0.7));
        let amps = vec![alpha, beta];
        let got = signed_pair_sum(&amps, &amps, 1, 0, 0, &Pool::SERIAL);
        let want = alpha.conj() * beta + beta.conj() * alpha;
        assert!((got - want).norm() < 1e-12);
    }

    #[test]
    fn topk_orders_and_breaks_ties_by_index() {
        let mut t = TopK::new(3);
        // Feed out of order, with a tie at p = 0.2 and more entries than k.
        for (idx, p) in [(5u64, 0.2), (1, 0.5), (9, 0.2), (2, 0.05), (0, 0.2)] {
            t.push(idx, p);
        }
        // Keepers: 0.5@1, then the tie 0.2 kept at the two smallest
        // indices (0 and 5), 9 evicted, 0.05 never admitted.
        assert_eq!(t.into_sorted_vec(), vec![(1, 0.5), (0, 0.2), (5, 0.2)]);
    }

    #[test]
    fn topk_merge_equals_single_stream() {
        let outcomes: Vec<(u64, f64)> = (0..100u64).map(|i| (i, ((i * 37) % 101) as f64)).collect();
        let mut whole = TopK::new(7);
        for &(i, p) in &outcomes {
            whole.push(i, p);
        }
        let mut left = TopK::new(7);
        let mut right = TopK::new(7);
        for &(i, p) in &outcomes[..50] {
            left.push(i, p);
        }
        for &(i, p) in &outcomes[50..] {
            right.push(i, p);
        }
        left.merge(right);
        assert_eq!(whole.into_sorted_vec(), left.into_sorted_vec());
    }
}
