//! Property tests on the planner's invariants: staging constraints
//! (§IV), kernelization constraints (§V, Constraint 1 / Theorems 3 & 6),
//! and the paper's comparative guarantees, on arbitrary circuits.

mod common;

use atlas::core::config::AtlasConfig;
use atlas::core::kernelize::{self, KGate, KernelCost};
use atlas::core::plan::validate_stages;
use atlas::core::staging;
use atlas::prelude::*;
use proptest::prelude::*;

fn kgates(circuit: &Circuit) -> Vec<KGate> {
    let cm = CostModel::default();
    circuit
        .gates()
        .iter()
        .map(|g| KGate {
            mask: g.qubit_mask(),
            shm_ns: cm.shm_gate_unit_ns(g),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Staging always yields a valid plan: full cover, dependency order,
    /// non-insular qubits local, exact class sizes.
    #[test]
    fn staging_is_always_valid(
        circuit in common::arb_circuit(8, 60),
        l in 3u32..8,
        g in 0u32..2,
    ) {
        let g = g.min(8 - l);
        let cfg = AtlasConfig::default();
        let out = staging::stage_circuit(&circuit, l, g, &cfg).unwrap();
        prop_assert!(validate_stages(&circuit, &out.stages, l, g).is_ok());
    }

    /// Atlas staging never needs more stages than SnuQS (§VII-D).
    #[test]
    fn atlas_staging_never_worse_than_snuqs(
        circuit in common::arb_circuit(8, 60),
        l in 3u32..8,
    ) {
        let cfg = AtlasConfig::default();
        let snuqs_cfg = AtlasConfig { staging: StagingAlgo::Snuqs, ..AtlasConfig::default() };
        let atlas = staging::stage_circuit(&circuit, l, 1.min(8 - l), &cfg).unwrap();
        let snuqs = staging::stage_circuit(&circuit, l, 1.min(8 - l), &snuqs_cfg).unwrap();
        prop_assert!(atlas.num_stages() <= snuqs.num_stages());
    }

    /// KERNELIZE output always covers the gate sequence with valid
    /// kernels and never costs more than ORDERED KERNELIZE (Theorem 6)
    /// or the greedy baseline.
    #[test]
    fn kernelize_invariants(circuit in common::arb_circuit(8, 50)) {
        let kc = KernelCost::from_machine(&CostModel::default());
        let gates = kgates(&circuit);
        let dp = kernelize::kernelize(&gates, &kc, 500);
        kernelize::validate_cover(&gates, &dp.kernels).unwrap();
        let ordered = kernelize::kernelize_ordered(&gates, &kc);
        prop_assert!(dp.cost <= ordered.cost + 1e-9,
            "Theorem 6 violated: dp {} > ordered {}", dp.cost, ordered.cost);
    }

    /// The kernel sequence is topologically equivalent to the stage
    /// sequence (Theorem 2): replaying kernels in emitted order must
    /// reproduce the circuit's amplitudes.
    #[test]
    fn kernel_order_is_topologically_valid(circuit in common::arb_circuit(7, 40)) {
        let kc = KernelCost::from_machine(&CostModel::default());
        let gates = kgates(&circuit);
        let dp = kernelize::kernelize(&gates, &kc, 500);
        // Replay: apply kernels in order, gates within each kernel in
        // stored order, and compare with program order.
        let mut replay = Circuit::new(circuit.num_qubits());
        for k in &dp.kernels {
            for &gi in &k.gates {
                replay.push(circuit.gates()[gi]);
            }
        }
        prop_assert!(circuit.topologically_equivalent(&replay),
            "kernel replay is not a valid reordering");
        let a = simulate_reference(&circuit);
        let b = simulate_reference(&replay);
        prop_assert!(a.max_abs_diff(&b) < 1e-9);
    }
}

#[test]
fn stage_count_monotone_in_l_on_families() {
    // The anomaly SnuQS shows at Fig. 9 (L=23→24) must not happen.
    let cfg = AtlasConfig::default();
    for fam in Family::table1() {
        let c = fam.generate(11);
        let mut prev = usize::MAX;
        for l in 4..=11u32 {
            let out = staging::stage_circuit(&c, l, 1.min(11 - l), &cfg).unwrap();
            assert!(
                out.num_stages() <= prev,
                "{fam:?}: stages increased at L={l}"
            );
            prev = out.num_stages();
        }
    }
}

#[test]
fn kernel_cost_improves_with_threshold() {
    // Fig. 13's trend: larger pruning thresholds never hurt.
    let kc = KernelCost::from_machine(&CostModel::default());
    for fam in [Family::Qft, Family::Vqc, Family::Ae] {
        let gates = kgates(&fam.generate(12));
        let mut prev = f64::INFINITY;
        for t in [4usize, 20, 100, 500] {
            let out = kernelize::kernelize(&gates, &kc, t);
            assert!(
                out.cost <= prev + 1e-9,
                "{fam:?}: cost went up from T sweep at T={t}"
            );
            prev = out.cost.min(prev);
        }
    }
}
