//! Tableau → statevector conversion: dense amplitudes of a stabilizer
//! state, for reading outcomes and for checking against the reference.
//!
//! A stabilizer state on `n` qubits is an equal-magnitude superposition
//! over an affine subspace of basis states: `|ψ⟩ = 2^{-k/2} Σ_{v ∈ V}
//! φ(v) |v0 ⊕ v⟩` where `V` is spanned by the X-parts of the `k`
//! stabilizer generators with nonzero X-part and `φ(v) ∈ {±1, ±i}`.
//! The conversion finds `v0` from the Z-only generators (a GF(2) linear
//! solve), then walks the `2^k` coset in Gray-code order so each
//! amplitude is one generator application away from an already-known
//! one — `O(2^k)` work total rather than `O(2^k · k)`.

use crate::tableau::Tableau;
use atlas_error::AtlasError;
use atlas_qmath::Complex64;
use atlas_statevec::StateVector;

/// `i^m` for `m mod 4`.
#[inline]
fn i_pow(m: u32) -> Complex64 {
    match m % 4 {
        0 => Complex64::ONE,
        1 => Complex64::I,
        2 => -Complex64::ONE,
        _ => -Complex64::I,
    }
}

impl Tableau {
    /// Expands the stabilizer state into its exact `2^n` amplitude
    /// vector (`n ≤ 30`), with a canonical global phase: the first
    /// nonzero amplitude in basis order is real and positive. That
    /// makes the output directly comparable to
    /// [`atlas_statevec::simulate_reference`] up to the reference's own
    /// global phase. The vector is `16·2^n` bytes: a caller gates it on
    /// a memory budget first (the CLI's `--top` admits it as a state).
    pub fn to_statevector(&self) -> Result<StateVector, AtlasError> {
        let n = self.num_qubits();
        if n > 30 {
            return Err(AtlasError::invalid_plan(format!(
                "statevector conversion needs n ≤ 30, got {n}"
            )));
        }
        // n ≤ 30 ⇒ one word per row: masks fit in a single u64.
        let rows = self.canonical_stabilizers();
        let pivots: Vec<(u64, u64, bool)> = rows
            .iter()
            .filter(|(x, _, _)| x[0] != 0)
            .map(|(x, z, r)| (x[0], z[0], *r))
            .collect();
        let k = pivots.len();

        // The Z-only generators pin the support: basis state b is in
        // the support iff popcount(z & b) ≡ r (mod 2) for each. Reduce
        // to echelon form (pivot = lowest set bit) and back-substitute
        // with free variables 0 to get one support point v0.
        let mut zrows: Vec<(usize, u64, bool)> = Vec::with_capacity(n - k);
        for (x, z, r) in rows.iter().filter(|(x, _, _)| x[0] == 0) {
            debug_assert_eq!(x[0], 0);
            let (mut z, mut r) = (z[0], *r);
            for &(c, pz, pr) in &zrows {
                if z >> c & 1 == 1 {
                    z ^= pz;
                    r ^= pr;
                }
            }
            debug_assert!(z != 0, "stabilizer generators are independent");
            zrows.push((z.trailing_zeros() as usize, z, r));
        }
        // Descending pivot order: every non-pivot column of a row is
        // higher than its pivot, hence already assigned (or free = 0).
        zrows.sort_by_key(|&(c, _, _)| std::cmp::Reverse(c));
        let mut v0 = 0u64;
        for &(c, z, r) in &zrows {
            let parity = (z & !(1u64 << c) & v0).count_ones() & 1;
            v0 |= (((r as u32) ^ parity) as u64 & 1) << c;
        }

        // Gray-code coset walk: step s flips generator g = trailing
        // zeros of s. Applying stabilizer P = (-1)^r · ΠW to |b⟩ gives
        // coef(b)·|b ⊕ x⟩ with coef(b) = (-1)^r · i^|x∧z| · (-1)^|z∧b|,
        // and P|ψ⟩ = |ψ⟩ forces a(b ⊕ x) = coef(b) · a(b).
        let mut amps = vec![Complex64::ZERO; 1usize << n];
        let scale = 0.5f64.powi(k as i32 / 2) * if k % 2 == 1 { 0.5f64.sqrt() } else { 1.0 };
        let mut b = v0;
        let mut cur = Complex64::real(scale);
        amps[b as usize] = cur;
        for s in 1u64..(1u64 << k) {
            let (x, z, r) = pivots[s.trailing_zeros() as usize];
            let mut coef = i_pow((x & z).count_ones());
            if (r as u32 + (z & b).count_ones()) & 1 == 1 {
                coef = -coef;
            }
            cur *= coef;
            b ^= x;
            debug_assert!(
                amps[b as usize] == Complex64::ZERO,
                "coset walk revisited a state"
            );
            amps[b as usize] = cur;
        }

        // Canonical global phase: rotate so the first nonzero amplitude
        // is real positive.
        let lead = amps[v0 as usize..]
            .iter()
            .find(|a| a.norm_sqr() > 0.0)
            .copied()
            .unwrap_or(Complex64::ONE);
        let rot = lead.conj().scale(1.0 / lead.norm());
        for a in &mut amps {
            *a *= rot;
        }
        Ok(StateVector::from_amplitudes(amps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_circuit::{generators, Circuit};
    use atlas_statevec::simulate_reference;

    /// Asserts `sv` equals the reference simulation of `c` up to a
    /// global phase, with tolerance 1e-12.
    fn assert_matches_reference(c: &Circuit, sv: &StateVector) {
        let reference = simulate_reference(c);
        let aref = reference.amplitudes();
        let amps = sv.amplitudes();
        assert_eq!(amps.len(), aref.len());
        let lead = aref
            .iter()
            .zip(amps)
            .find(|(r, _)| r.norm_sqr() > 1e-20)
            .expect("reference state is nonzero");
        let rot = *lead.0 / *lead.1;
        assert!(
            (rot.norm() - 1.0).abs() < 1e-9,
            "magnitudes differ: |rot| = {}",
            rot.norm()
        );
        for (i, (a, r)) in amps.iter().zip(aref).enumerate() {
            assert!(
                (*a * rot).approx_eq(*r, 1e-9),
                "amplitude {i} differs for {}: {} vs {}",
                c.name(),
                *a * rot,
                r
            );
        }
    }

    #[test]
    fn zero_state_converts_exactly() {
        let sv = Tableau::new(3).to_statevector().unwrap();
        assert_eq!(sv.amplitudes()[0], Complex64::ONE);
        assert!(sv.amplitudes()[1..].iter().all(|a| *a == Complex64::ZERO));
    }

    #[test]
    fn bell_and_phase_states_convert() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).add(atlas_circuit::GateKind::S, &[1]);
        let t = Tableau::from_circuit(&c).unwrap();
        assert_matches_reference(&c, &t.to_statevector().unwrap());
    }

    #[test]
    fn ghz_family_converts() {
        for n in [2u32, 3, 6, 10] {
            let c = generators::ghz(n);
            let t = Tableau::from_circuit(&c).unwrap();
            assert_matches_reference(&c, &t.to_statevector().unwrap());
        }
    }

    #[test]
    fn random_clifford_circuits_convert() {
        for n in [2u32, 4, 7, 10] {
            let c = generators::clifford(n);
            let t = Tableau::from_circuit(&c).unwrap();
            assert_matches_reference(&c, &t.to_statevector().unwrap());
        }
    }

    #[test]
    fn conversion_norm_is_one() {
        for n in [3u32, 8] {
            let t = Tableau::from_circuit(&generators::clifford(n)).unwrap();
            let sv = t.to_statevector().unwrap();
            assert!((sv.norm_sqr() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn conversion_beyond_30_qubits_is_typed_error() {
        let t = Tableau::new(31);
        assert!(matches!(
            t.to_statevector(),
            Err(AtlasError::InvalidPlan { .. })
        ));
    }
}
