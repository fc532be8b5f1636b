//! The swap-based distributed simulator family (cuQuantum's cusvaer,
//! Qiskit Aer's distributed state vector).
//!
//! These systems keep a logical→physical qubit map and, whenever the next
//! gate (or fused gate group) touches a qubit that is not device-local,
//! *swap* the offending index bits with local ones via an all-to-all —
//! then apply the group as a dense fused matrix. There is no lookahead
//! across groups and no insular-qubit specialization, which is exactly
//! what Atlas' staging ILP adds; running both on one machine model
//! isolates that difference (§VII-B).

use crate::BaselineOutput;
use atlas_circuit::{Circuit, Gate};
use atlas_error::AtlasError;
use atlas_machine::{Clock, CostModel, Machine, MachineSpec};
use atlas_qmath::QubitPermutation;
use atlas_statevec::{fuse_gates, Pool};

/// Knobs distinguishing the family members.
pub struct SwapSimConfig {
    /// Greedy fusion width (1 = no fusion, Qiskit-like).
    pub fusion_max_qubits: u32,
    /// Host-side dispatch overhead charged per kernel launch round.
    pub dispatch_overhead_s: f64,
    /// Name for reports.
    pub name: &'static str,
}

/// Greedy contiguous fusion groups of at most `max_qubits` distinct qubits.
fn fusion_groups(circuit: &Circuit, max_qubits: u32) -> Vec<Vec<usize>> {
    let mut groups = Vec::new();
    let mut cur: Vec<usize> = Vec::new();
    let mut mask = 0u64;
    for (j, g) in circuit.gates().iter().enumerate() {
        let gm = g.qubit_mask();
        if !cur.is_empty() && (mask | gm).count_ones() > max_qubits {
            groups.push(std::mem::take(&mut cur));
            mask = 0;
        }
        mask |= gm;
        cur.push(j);
    }
    if !cur.is_empty() {
        groups.push(cur);
    }
    groups
}

/// Charges the all-to-all `perm` and, on a functional run, moves the
/// amplitudes.
fn swap_bits(clock: &mut Clock, machine: Option<&mut Machine>, perm: &QubitPermutation) {
    let step = clock.num_steps();
    clock.charge_permute(perm, 0);
    if let Some(machine) = machine {
        machine.permute_state(perm, 0, step, &Pool::SERIAL);
    }
}

/// Runs the swap-based simulator: a clock, plus a machine holding the
/// amplitudes unless `dry`.
pub fn run(
    circuit: &Circuit,
    spec: MachineSpec,
    cost: CostModel,
    dry: bool,
    cfg: &SwapSimConfig,
) -> Result<BaselineOutput, AtlasError> {
    let n = circuit.num_qubits();
    let l = spec.local_qubits;
    if n < l + spec.global_qubits() {
        return Err(AtlasError::CircuitTooSmall {
            qubits: n,
            local: l,
            global: spec.global_qubits(),
        });
    }
    let mut clock = Clock::new(spec, cost, n);
    let mut machine = (!dry).then(|| Machine::new(spec, n));
    let num_shards = clock.num_shards();
    // mapping[q] = physical bit of logical qubit q.
    let mut mapping: Vec<u32> = (0..n).collect();
    let groups = fusion_groups(circuit, cfg.fusion_max_qubits);

    for group in &groups {
        // Which logical qubits does the group need?
        let mut need: Vec<u32> = Vec::new();
        for &gi in group {
            for q in circuit.gates()[gi].qubits.iter() {
                if !need.contains(&q) {
                    need.push(q);
                }
            }
        }
        // Swap any non-local needed qubit with a local victim that is not
        // itself needed (lowest victims first) — one all-to-all per group
        // at most, exactly like cusvaer's index-bit swap API.
        let nonlocal: Vec<u32> = need
            .iter()
            .copied()
            .filter(|&q| mapping[q as usize] >= l)
            .collect();
        if !nonlocal.is_empty() {
            let needed_phys: Vec<bool> = {
                let mut v = vec![false; n as usize];
                for &q in &need {
                    v[mapping[q as usize] as usize] = true;
                }
                v
            };
            let mut victims: Vec<u32> = (0..l).filter(|&p| !needed_phys[p as usize]).collect();
            victims.truncate(nonlocal.len());
            if victims.len() < nonlocal.len() {
                return Err(AtlasError::invalid_plan(format!(
                    "{}: group needs more than L local qubits",
                    cfg.name
                )));
            }
            let mut perm_map: Vec<u32> = (0..n).collect();
            for (&q, &v) in nonlocal.iter().zip(&victims) {
                let p = mapping[q as usize];
                perm_map.swap(p as usize, v as usize);
                // Update the logical map: whoever held `v` goes to `p`.
                if let Some(other) = (0..n).find(|&x| mapping[x as usize] == v) {
                    mapping[other as usize] = p;
                }
                mapping[q as usize] = v;
            }
            let perm = QubitPermutation::from_map(perm_map);
            swap_bits(&mut clock, machine.as_mut(), &perm);
        }
        // Apply the group as one fused kernel on every shard.
        let phys_qubits: Vec<u32> = need.iter().map(|&q| mapping[q as usize]).collect();
        debug_assert!(phys_qubits.iter().all(|&p| p < l));
        for s in 0..num_shards {
            clock.charge_fusion(s, phys_qubits.len() as u32);
        }
        if let Some(machine) = machine.as_mut() {
            let gates: Vec<Gate> = group
                .iter()
                .map(|&gi| {
                    let g = circuit.gates()[gi];
                    let remapped: Vec<u32> = g.qubits.iter().map(|q| mapping[q as usize]).collect();
                    Gate::new(g.kind, &remapped)
                })
                .collect();
            let fused = fuse_gates(&phys_qubits, &gates);
            for s in 0..num_shards {
                machine.run_fusion_kernel(s, &phys_qubits, &fused);
            }
        }
        // Host dispatch overhead: serializes the launch round.
        clock.charge_comm(cfg.dispatch_overhead_s, 0, 0);
    }
    clock.stage_barrier();

    // Restore the identity layout for functional comparison.
    let state = machine.map(|mut machine| {
        if mapping.iter().enumerate().any(|(q, &p)| q as u32 != p) {
            let mut perm_map = vec![0u32; n as usize];
            for q in 0..n as usize {
                perm_map[mapping[q] as usize] = q as u32;
            }
            let perm = QubitPermutation::from_map(perm_map);
            swap_bits(&mut clock, Some(&mut machine), &perm);
        }
        machine.gather_state()
    });
    Ok(BaselineOutput {
        report: clock.report(),
        state,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_circuit::generators::Family;
    use atlas_statevec::simulate_reference;

    #[test]
    fn swap_based_matches_reference() {
        let spec = MachineSpec {
            nodes: 2,
            gpus_per_node: 2,
            local_qubits: 6,
        };
        for fam in [Family::Qft, Family::Ghz, Family::Su2Random, Family::WState] {
            let c = fam.generate(9);
            let out = crate::cuquantum(&c, spec, CostModel::default(), false).unwrap();
            let got = out.state.unwrap();
            let want = simulate_reference(&c);
            let diff = got.max_abs_diff(&want);
            assert!(diff < 1e-9, "{fam:?}: diverged by {diff}");
        }
    }

    #[test]
    fn qiskit_like_matches_reference_and_is_slower() {
        let spec = MachineSpec {
            nodes: 1,
            gpus_per_node: 4,
            local_qubits: 7,
        };
        let c = Family::Qft.generate(9);
        let q = crate::qiskit(&c, spec, CostModel::default(), false).unwrap();
        let cu = crate::cuquantum(&c, spec, CostModel::default(), false).unwrap();
        let want = simulate_reference(&c);
        assert!(q.state.unwrap().max_abs_diff(&want) < 1e-9);
        assert!(
            q.report.total_secs > cu.report.total_secs,
            "per-gate dispatch must dominate"
        );
    }

    #[test]
    fn fusion_groups_partition_gates() {
        let c = Family::Vqc.generate(8);
        let groups = fusion_groups(&c, 5);
        let total: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(total, c.num_gates());
        for g in &groups {
            let mask = g.iter().fold(0u64, |m, &gi| m | c.gates()[gi].qubit_mask());
            assert!(mask.count_ones() <= 5);
        }
    }
}
