//! Plan data types shared by staging, kernelization and execution.

use atlas_circuit::Circuit;
use atlas_error::AtlasError;

/// A stage's partition of *logical* qubits into local / regional / global
/// classes (Definition 1). `|local| = L`, `|global| = G`, the rest are
/// regional.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QubitPartition {
    /// Logical qubits mapped to local physical qubits (bits `0..L`).
    pub local: Vec<u32>,
    /// Logical qubits mapped to regional physical qubits (bits `L..L+R`).
    pub regional: Vec<u32>,
    /// Logical qubits mapped to global physical qubits (bits `L+R..n`).
    pub global: Vec<u32>,
}

impl QubitPartition {
    /// Total number of qubits across all classes.
    pub fn num_qubits(&self) -> usize {
        self.local.len() + self.regional.len() + self.global.len()
    }

    /// Bitmask of local qubits.
    pub fn local_mask(&self) -> u64 {
        self.local.iter().fold(0u64, |m, &q| m | (1 << q))
    }

    /// Checks the partition covers `0..n` exactly once with the required
    /// class sizes.
    pub fn validate(&self, n: u32, l: u32, g: u32) -> Result<(), AtlasError> {
        if self.local.len() != l as usize {
            return Err(AtlasError::invalid_plan(format!(
                "|local| = {} ≠ L = {l}",
                self.local.len()
            )));
        }
        if self.global.len() != g as usize {
            return Err(AtlasError::invalid_plan(format!(
                "|global| = {} ≠ G = {g}",
                self.global.len()
            )));
        }
        if self.num_qubits() != n as usize {
            return Err(AtlasError::invalid_plan(format!(
                "partition covers {} ≠ n = {n}",
                self.num_qubits()
            )));
        }
        let mut seen = vec![false; n as usize];
        for &q in self.local.iter().chain(&self.regional).chain(&self.global) {
            if q >= n || seen[q as usize] {
                return Err(AtlasError::invalid_plan(format!(
                    "qubit {q} out of range or duplicated"
                )));
            }
            seen[q as usize] = true;
        }
        Ok(())
    }
}

/// One stage: the indices (into the circuit's gate sequence) of the gates
/// it executes, and its qubit partition.
#[derive(Clone, Debug, PartialEq)]
pub struct Stage {
    /// Gate indices in program order.
    pub gates: Vec<usize>,
    /// The stage's qubit partition.
    pub partition: QubitPartition,
}

/// The kind of GPU kernel a gate group compiles to (§VI-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Gates pre-multiplied into one dense matrix (cuQuantum-style apply).
    Fusion,
    /// Gates executed one-by-one inside GPU shared memory (HyQuas
    /// SHM-GROUPING style).
    SharedMemory,
}

/// A kernel: an ordered group of stage gates executed as one GPU launch.
#[derive(Clone, Debug, PartialEq)]
pub struct Kernel {
    /// Indices into the *stage's* gate list, in execution order.
    pub gates: Vec<usize>,
    /// Fusion or shared-memory.
    pub kind: KernelKind,
    /// The kernel's qubit set (local physical bit positions at execution
    /// time; logical ids during planning), ascending.
    pub qubits: Vec<u32>,
}

/// Validates a staging result against the staging problem's constraints:
/// every gate appears exactly once, in an order consistent with
/// dependencies, and each gate's non-insular qubits are local in its stage.
pub fn validate_stages(
    circuit: &Circuit,
    stages: &[Stage],
    l: u32,
    g: u32,
) -> Result<(), AtlasError> {
    let n = circuit.num_qubits();
    let masks = circuit.staging_masks();
    let mut assigned = vec![usize::MAX; circuit.num_gates()];
    for (k, stage) in stages.iter().enumerate() {
        stage.partition.validate(n, l, g)?;
        let local_mask = stage.partition.local_mask();
        for &gi in &stage.gates {
            if gi >= circuit.num_gates() {
                return Err(AtlasError::invalid_plan(format!(
                    "stage {k}: gate index {gi} out of range"
                )));
            }
            if assigned[gi] != usize::MAX {
                return Err(AtlasError::invalid_plan(format!(
                    "gate {gi} assigned to two stages"
                )));
            }
            assigned[gi] = k;
            if masks[gi] & !local_mask != 0 {
                return Err(AtlasError::invalid_plan(format!(
                    "stage {k}: gate {gi} has non-insular qubits {:#b} outside local set {:#b}",
                    masks[gi], local_mask
                )));
            }
        }
    }
    if let Some(gi) = assigned.iter().position(|&s| s == usize::MAX) {
        return Err(AtlasError::invalid_plan(format!(
            "gate {gi} not assigned to any stage"
        )));
    }
    // Dependency order: for every dependency (a, b), stage(a) ≤ stage(b),
    // and within a stage, program order is preserved by construction
    // (stage gate lists are ascending).
    for (a, b) in circuit.dependencies() {
        if assigned[a] > assigned[b] {
            return Err(AtlasError::invalid_plan(format!(
                "dependency violated: gate {a} (stage {}) must precede gate {b} (stage {})",
                assigned[a], assigned[b]
            )));
        }
    }
    for stage in stages {
        if stage.gates.windows(2).any(|w| w[0] >= w[1]) {
            return Err(AtlasError::invalid_plan(
                "stage gate list not in program order",
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_validation() {
        let p = QubitPartition {
            local: vec![0, 2],
            regional: vec![1],
            global: vec![3],
        };
        assert!(p.validate(4, 2, 1).is_ok());
        assert!(p.validate(4, 3, 1).is_err());
        let dup = QubitPartition {
            local: vec![0, 0],
            regional: vec![1],
            global: vec![3],
        };
        assert!(dup.validate(4, 2, 1).is_err());
    }

    #[test]
    fn stage_validation_catches_nonlocal_gate() {
        let mut c = Circuit::new(3);
        c.h(0).h(2);
        let p_ok = QubitPartition {
            local: vec![0, 2],
            regional: vec![1],
            global: vec![],
        };
        let stage = Stage {
            gates: vec![0, 1],
            partition: p_ok,
        };
        assert!(validate_stages(&c, std::slice::from_ref(&stage), 2, 0).is_ok());
        let p_bad = QubitPartition {
            local: vec![0, 1],
            regional: vec![2],
            global: vec![],
        };
        let bad = Stage {
            gates: vec![0, 1],
            partition: p_bad,
        };
        assert!(validate_stages(&c, &[bad], 2, 0).is_err());
    }

    #[test]
    fn stage_validation_catches_missing_gate() {
        let mut c = Circuit::new(2);
        c.h(0).h(1);
        let p = QubitPartition {
            local: vec![0, 1],
            regional: vec![],
            global: vec![],
        };
        let stage = Stage {
            gates: vec![0],
            partition: p,
        };
        assert!(validate_stages(&c, &[stage], 2, 0).is_err());
    }
}
