//! Effect typing for shard instructions.
//!
//! Every [`ShardOp`] reads and writes a set of amplitude indices. This
//! module computes those sets symbolically — as [`WriteSet`]s of the form
//! `{ base | x : x ⊆ mask }` — so disjointness between concurrently
//! executing shards is decidable with two words per operation instead of
//! an enumeration.
//!
//! ## The footprint model
//!
//! The machine stores shard `s` as the amplitude range
//! `[s·2^L, (s+1)·2^L)`: physical bits `0..L` index within the shard and
//! bits `L..n` are the shard index. A kernel over local qubit positions
//! `Q` (each `< L`) partitions its shard into `2^(L-|Q|)` groups and
//! touches every amplitude of the shard exactly once — so its footprint
//! is `{ (s << L) | x : x ⊆ 2^L - 1 }`. If a corrupt plan smuggles a
//! qubit position `p ≥ L` into an op, the op's index arithmetic escapes
//! its shard: the footprint mask gains bit `p`, the symbolic set now
//! intersects the neighbouring shard `s ⊕ 2^(p-L)`, and the race checker
//! reports exactly which pair of concurrent shards would alias.
//!
//! Within a shard, group disjointness (the `AmpCell` argument in
//! `atlas_statevec`'s split-by-group primitive) requires the op's qubit
//! list to be
//! duplicate-free: distinct groups then differ in a non-gate bit and can
//! never collide. [`effect_of`] checks that too.

use atlas_machine::ShardOp;

/// A symbolic amplitude index set: `{ base | x : x ⊆ mask }`.
///
/// `base` carries the fixed bits (the shard index, for shard programs);
/// `mask` the free bits the operation may address. The representation is
/// closed under the questions the race checker asks — membership bounds
/// and pairwise intersection — without enumerating `2^|mask|` indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteSet {
    /// Fixed index bits, present in every member.
    pub base: u64,
    /// Free index bits; any subset may be OR-ed onto `base`.
    pub mask: u64,
}

impl WriteSet {
    /// The set of every index of shard `s` (shards hold `2^l` amplitudes).
    pub fn shard(s: u64, l: u32) -> Self {
        WriteSet {
            base: s << l,
            mask: (1u64 << l) - 1,
        }
    }

    /// Whether two symbolic sets share at least one concrete index.
    ///
    /// Per bit: a member of `self` has value `base-bit OR x` with `x`
    /// free iff the bit is in `mask`, so the achievable values are
    /// `{1}` when the base bit is set, `{0,1}` when only the mask bit
    /// is, and `{0}` when neither. The sets are disjoint iff some bit
    /// position has achievable values `{0}` vs `{1}`.
    pub fn intersects(&self, other: &WriteSet) -> bool {
        let self_must_one = self.base;
        let other_must_one = other.base;
        let forced_apart = (self_must_one & !other_must_one & !other.mask)
            | (other_must_one & !self_must_one & !self.mask);
        forced_apart == 0
    }
}

/// The effect of one shard instruction: which amplitude indices it reads
/// and writes, which shard-index bits it consumed at specialization time,
/// and how much scratch it needs.
#[derive(Clone, Debug)]
pub struct OpEffect {
    /// Amplitude indices the op may read.
    pub reads: WriteSet,
    /// Amplitude indices the op may write. Every kernel here is
    /// read-modify-write over its whole shard, so `writes == reads`.
    pub writes: WriteSet,
    /// Physical bits `< L` the op addresses (its qubit mask); `0` for a
    /// pure scale pass.
    pub qubit_mask: u64,
    /// Scratch amplitudes the executor's gather/scatter buffers need
    /// (`2·2^k` for a dense `k`-qubit kernel, in/out pairs).
    pub scratch_amps: u64,
}

/// Why an op could not be effect-typed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EffectError {
    /// An op's qubit list contains a duplicate position: the group
    /// decomposition behind the intra-shard `AmpCell` safety argument
    /// collapses (distinct groups would share indices).
    DuplicateQubit(u32),
    /// A shared-memory part's matrix dimension does not match its qubit
    /// count (`rows != 2^k`).
    MatrixShape {
        /// Qubits the part claims to act on.
        qubits: usize,
        /// Rows the part's matrix actually has.
        rows: usize,
    },
    /// A scalar factor or per-amplitude cost is not a finite number.
    NonFinite,
}

impl std::fmt::Display for EffectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EffectError::DuplicateQubit(q) => {
                write!(f, "duplicate qubit position {q} breaks group disjointness")
            }
            EffectError::MatrixShape { qubits, rows } => {
                write!(f, "matrix has {rows} rows for {qubits} qubit(s)")
            }
            EffectError::NonFinite => write!(f, "non-finite scalar or cost"),
        }
    }
}

/// Computes the effect of `op` executing on shard `shard` of a machine
/// with `2^l`-amplitude shards.
///
/// Never rejects an out-of-shard qubit position directly: the escaped
/// bit lands in the returned footprint, and the caller's pairwise
/// disjointness check reports it as the data race it would be.
pub fn effect_of(op: &ShardOp, shard: u64, l: u32) -> Result<OpEffect, EffectError> {
    let base = shard << l;
    let whole_shard = (1u64 << l) - 1;
    let (qubit_mask, scratch) = match op {
        ShardOp::Fusion { qubits, scale, .. } => {
            if !scale.re.is_finite() || !scale.im.is_finite() {
                return Err(EffectError::NonFinite);
            }
            (collect_mask(qubits)?, 2u64 << qubits.len())
        }
        ShardOp::ShmParts { parts, scale } => {
            if !scale.re.is_finite() || !scale.im.is_finite() {
                return Err(EffectError::NonFinite);
            }
            let mut mask = 0u64;
            let mut scratch = 0u64;
            for (qs, m) in parts.iter() {
                if m.rows() != 1 << qs.len() {
                    return Err(EffectError::MatrixShape {
                        qubits: qs.len(),
                        rows: m.rows(),
                    });
                }
                mask |= collect_mask(qs)?;
                scratch = scratch.max(2u64 << qs.len());
            }
            (mask, scratch)
        }
        ShardOp::Scale(f) => {
            if !f.re.is_finite() || !f.im.is_finite() {
                return Err(EffectError::NonFinite);
            }
            (0u64, 0)
        }
    };
    // Every kernel form touches all of its shard's groups, so the
    // in-shard footprint is the whole shard; qubit bits ≥ l (corruption)
    // extend the mask past the shard boundary and surface in the
    // cross-shard disjointness check.
    let set = WriteSet {
        base,
        mask: whole_shard | qubit_mask,
    };
    Ok(OpEffect {
        reads: set,
        writes: set,
        qubit_mask,
        scratch_amps: scratch,
    })
}

/// ORs qubit positions into a mask, rejecting duplicates.
fn collect_mask(qubits: &[u32]) -> Result<u64, EffectError> {
    let mut mask = 0u64;
    for &q in qubits {
        let bit = 1u64 << q;
        if mask & bit != 0 {
            return Err(EffectError::DuplicateQubit(q));
        }
        mask |= bit;
    }
    Ok(mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_machine::ShardOp;
    use atlas_qmath::Complex64;

    #[test]
    fn shard_write_sets_are_pairwise_disjoint() {
        let l = 5;
        for a in 0..8u64 {
            for b in 0..8u64 {
                let wa = WriteSet::shard(a, l);
                let wb = WriteSet::shard(b, l);
                assert_eq!(wa.intersects(&wb), a == b, "shards {a} vs {b}");
            }
        }
    }

    #[test]
    fn escaped_qubit_bit_aliases_the_neighbour_shard() {
        let l = 5;
        // An op on shard 0 addressing bit 5 (= l) reaches into shard 1.
        let escaped = WriteSet {
            base: 0,
            mask: ((1u64 << l) - 1) | (1 << l),
        };
        assert!(escaped.intersects(&WriteSet::shard(1, l)));
        assert!(!escaped.intersects(&WriteSet::shard(2, l)));
    }

    #[test]
    fn scale_effect_stays_inside_its_shard() {
        let eff = effect_of(&ShardOp::Scale(Complex64::ONE), 3, 4).unwrap();
        assert_eq!(eff.writes, WriteSet::shard(3, 4));
        assert_eq!(eff.qubit_mask, 0);
    }

    #[test]
    fn duplicate_qubits_are_rejected() {
        let op = ShardOp::ShmParts {
            parts: std::sync::Arc::new(vec![(vec![2, 2], atlas_qmath::Matrix::identity(4))]),
            scale: Complex64::ONE,
        };
        assert_eq!(
            effect_of(&op, 0, 5).unwrap_err(),
            EffectError::DuplicateQubit(2)
        );
    }
}
