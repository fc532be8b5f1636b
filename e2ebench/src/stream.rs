//! Seeded input generation, kept out of the program under test: the
//! engine only ever sees finished `Circuit`s and `JobRequest`s.
//!
//! Everything here is a pure function of `(seed, index)`, so the same
//! `--seed` reproduces the same inputs on any host, and two client
//! threads can draw jobs from one shared counter without sharing state.

/// SplitMix64 finalizer: a bijective 64-bit mixer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Draw `k` of stream `(seed, index)` as a 64-bit word.
pub fn word(seed: u64, index: u64, k: u64) -> u64 {
    mix(mix(mix(seed) ^ index) ^ k)
}

/// Draw `k` of stream `(seed, index)` as a uniform `f64` in `[0, 1)`.
pub fn unit(seed: u64, index: u64, k: u64) -> f64 {
    (word(seed, index, k) >> 11) as f64 / (1u64 << 53) as f64
}

/// Draw `k` of stream `(seed, index)` as the shift added to every
/// rotation angle of a circuit: in `[0.05, 0.45)`, so two draws give
/// different angles but the same gate graph (`Circuit::map_params`).
pub fn param_shift(seed: u64, index: u64, k: u64) -> f64 {
    0.05 + 0.4 * unit(seed, index, k)
}

/// What a serve job asks for (mirrors `atlas_serve::JobRequest` without
/// the payloads, so the stream stays a plain value).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Full EXECUTE, top outcomes back.
    Execute,
    /// EXECUTE + 4096 seeded shots.
    Sample,
    /// EXECUTE + one Pauli expectation.
    Expect,
}

/// One drawn serve job.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobDraw {
    /// Index into the workload's structure table, by popularity rank.
    pub structure: usize,
    /// Requested operation.
    pub op: Op,
    /// Parameter shift applied to the structure's base circuit.
    pub shift: f64,
    /// Shot seed (used by `Op::Sample`).
    pub shot_seed: u64,
}

/// Jobs per block of the stream. Every block holds each structure a
/// fixed number of times ([`quotas`]).
pub const BLOCK: u64 = 72;

/// The constant that orders the structures inside each block.
const ORDER_SEED: u64 = 0x0a71_a5be;

/// How often each of `structures` popularity ranks occurs in one block:
/// Zipf(1) shares (rank r weighs 1/(r+1)) of [`BLOCK`], rounded by
/// largest remainder so the counts sum to the block exactly.
pub fn quotas(structures: usize) -> Vec<u64> {
    let total: f64 = (1..=structures).map(|r| 1.0 / r as f64).sum();
    let share = |r: usize| BLOCK as f64 / ((r + 1) as f64 * total);
    let mut counts: Vec<u64> = (0..structures).map(|r| share(r) as u64).collect();
    let mut by_remainder: Vec<usize> = (0..structures).collect();
    by_remainder.sort_by(|&a, &b| {
        share(b)
            .fract()
            .total_cmp(&share(a).fract())
            .then(a.cmp(&b))
    });
    let missing = BLOCK - counts.iter().sum::<u64>();
    for &r in by_remainder.iter().take(missing as usize) {
        counts[r] += 1;
    }
    counts
}

/// Job `index` of the stream `seed` over `structures` circuit structures.
///
/// Popularity is Zipf(1) over the fixed rank order of the structure
/// table, and *stratified*: the stream is a sequence of blocks of
/// [`BLOCK`] jobs, each a shuffle of the same multiset. The order of
/// structures is part of the workload's definition, like the ranks: it
/// is shuffled by a constant (differently in every block), not by the
/// seed. The cheapest and the dearest job differ 60× in cost and a miss
/// plans under the cache lock, so a seeded order would give every seed
/// its own hit/miss sequence and make two seeds two different workloads.
/// What the seed draws per job: the operation (40 % execute, 40 %
/// sample, 20 % expect), the parameter shift and the shot seed.
pub fn job(seed: u64, index: u64, structures: usize) -> JobDraw {
    let (block, pos) = (index / BLOCK, (index % BLOCK) as usize);
    let mut order: Vec<usize> = quotas(structures)
        .iter()
        .enumerate()
        .flat_map(|(rank, &count)| std::iter::repeat_n(rank, count as usize))
        .collect();
    // Fisher–Yates, driven by the block's own words.
    for i in (1..order.len()).rev() {
        let j = (word(ORDER_SEED, block, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let op = match unit(seed, index, 1) {
        x if x < 0.4 => Op::Execute,
        x if x < 0.8 => Op::Sample,
        _ => Op::Expect,
    };
    JobDraw {
        structure: order[pos],
        op,
        shift: param_shift(seed, index, 2),
        shot_seed: word(seed, index, 3),
    }
}

/// FNV-1a over 64-bit words — the digest used for job streams and for
/// "same seed ⇒ byte-identical output" checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word into the digest.
    pub fn push(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of the first `count` jobs of stream `seed`.
pub fn stream_digest(seed: u64, count: u64, structures: usize) -> Digest {
    let mut d = Digest::default();
    for i in 0..count {
        let j = job(seed, i, structures);
        d.push(j.structure as u64);
        d.push(j.op as u64);
        d.push(j.shift.to_bits());
        d.push(j.shot_seed);
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(stream_digest(7, 500, 18), stream_digest(7, 500, 18));
        assert_ne!(stream_digest(7, 500, 18), stream_digest(8, 500, 18));
        assert_eq!(job(7, 123, 18), job(7, 123, 18));
    }

    #[test]
    fn every_block_holds_the_zipf_quotas_in_its_own_fixed_order() {
        let q = quotas(18);
        assert_eq!(q.iter().sum::<u64>(), BLOCK);
        assert_eq!(&q[..4], [21, 10, 7, 5]);
        assert!(q.windows(2).all(|w| w[0] >= w[1]) && q[17] == 1);
        let block = |seed: u64, b: u64| -> Vec<usize> {
            (b * BLOCK..(b + 1) * BLOCK)
                .map(|i| job(seed, i, 18).structure)
                .collect()
        };
        for (seed, b) in [(1, 0), (1, 5), (9, 2)] {
            let mut counts = vec![0u64; 18];
            block(seed, b).iter().for_each(|&s| counts[s] += 1);
            assert_eq!(counts, q);
        }
        assert_ne!(block(1, 0), block(1, 1));
        assert_eq!(block(1, 0), block(2, 0));
    }

    #[test]
    fn operation_mix_is_40_40_20() {
        let n = 20_000u64;
        let mut ops = [0u32; 3];
        for i in 0..n {
            let j = job(1, i, 18);
            ops[j.op as usize] += 1;
            assert!((0.05..0.45).contains(&j.shift));
        }
        let share = |c: u32| f64::from(c) / n as f64;
        assert!((share(ops[0]) - 0.4).abs() < 0.02);
        assert!((share(ops[1]) - 0.4).abs() < 0.02);
        assert!((share(ops[2]) - 0.2).abs() < 0.02);
    }
}
