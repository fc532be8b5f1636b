//! Mutation tests for the `atlas-analyze` plan verifier: take a plan the
//! planner produced (which verifies cleanly), corrupt it in a targeted
//! way, and assert the verifier rejects it with a typed [`Violation`]
//! naming the exact invariant the mutation broke. Plus the effect-freedom
//! differential: running the verifier between two executions of the same
//! compiled plan must leave the output byte-identical.

use atlas::analyze::{verify_plan, verify_stage_programs, Invariant, Violation};
use atlas::core::config::AtlasConfig;
use atlas::core::exec::{build_stage_programs, FullPlan};
use atlas::machine::ShardOp;
use atlas::prelude::*;
use std::sync::Arc;

/// An 8-qubit QAOA circuit on a 2×2 machine with L=5: multi-stage,
/// multi-shard, with reshuffles and non-local qubits — every verifier
/// check path is exercised.
fn compiled() -> (Circuit, CompiledPlan) {
    let circuit = atlas::circuit::generators::qaoa(8);
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 5,
    };
    let compiled = Planner::new(spec, CostModel::default(), AtlasConfig::for_validation())
        .plan(&circuit)
        .unwrap();
    (circuit, compiled)
}

fn plan_and_cost() -> (Circuit, FullPlan, CostModel) {
    let (circuit, compiled) = compiled();
    (circuit, compiled.plan().clone(), compiled.cost().clone())
}

/// Every mutation must produce a typed rejection, and the rejection must
/// survive the conversion into the public error type with its invariant
/// name intact (that is what `atlas-sim --analyze` and the serve
/// admission gate print).
fn assert_rejected(result: Result<(), Violation>, expect: Invariant) {
    let violation = result.expect_err("mutated plan must be rejected");
    assert_eq!(
        violation.invariant,
        expect,
        "wrong invariant: {violation} (expected {})",
        expect.name()
    );
    let err = AtlasError::from(violation.clone());
    assert_eq!(err.kind(), "invalid-plan");
    assert!(
        err.to_string().contains(expect.name()),
        "diagnostic must name the violated invariant '{}': {err}",
        expect.name()
    );
}

#[test]
fn pristine_plan_verifies() {
    let (circuit, plan, cost) = plan_and_cost();
    let report = verify_plan(&circuit, &plan, &cost).unwrap();
    assert!(plan.stages.len() > 1, "want a multi-stage plan");
    assert_eq!(report.stages, plan.stages.len());
    assert!(report.reshuffles > 0, "want at least one reshuffle");
    assert!(report.effects_materialized, "8 shards must be materialized");
}

#[test]
fn dropping_a_gate_from_a_kernel_breaks_kernel_cover() {
    let (circuit, mut plan, cost) = plan_and_cost();
    plan.stages[0].kernels[0].gates.remove(0);
    assert_rejected(
        verify_plan(&circuit, &plan, &cost).map(drop),
        Invariant::KernelCover,
    );
}

#[test]
fn unassigning_a_gate_breaks_stage_cover() {
    let (circuit, mut plan, cost) = plan_and_cost();
    plan.stages[0].stage.gates.remove(0);
    assert_rejected(
        verify_plan(&circuit, &plan, &cost).map(drop),
        Invariant::StageCover,
    );
}

#[test]
fn swapping_local_and_nonlocal_mapping_breaks_mapping_class() {
    let (circuit, mut plan, cost) = plan_and_cost();
    // Find a stage with a non-local qubit and swap its physical slot with
    // a local one: still a bijection, but both land outside their class
    // ranges.
    let k = plan
        .stages
        .iter()
        .position(|sp| {
            !sp.stage.partition.global.is_empty() || !sp.stage.partition.regional.is_empty()
        })
        .expect("L=5 on 8 qubits forces non-local qubits");
    let part = &plan.stages[k].stage.partition;
    let lq = part.local[0] as usize;
    let nq = *part.global.first().unwrap_or_else(|| &part.regional[0]) as usize;
    plan.stages[k].mapping.swap(lq, nq);
    assert_rejected(
        verify_plan(&circuit, &plan, &cost).map(drop),
        Invariant::MappingClass,
    );
}

#[test]
fn corrupting_a_mapping_entry_breaks_bijection() {
    let (circuit, mut plan, cost) = plan_and_cost();
    plan.stages[0].mapping[1] = plan.stages[0].mapping[0];
    assert_rejected(
        verify_plan(&circuit, &plan, &cost).map(drop),
        Invariant::MappingBijection,
    );
}

#[test]
fn perturbing_a_template_cost_breaks_template_consistency() {
    let (circuit, mut plan, cost) = plan_and_cost();
    plan.stages[0].templates[0].shm_ns += 1.0;
    assert_rejected(
        verify_plan(&circuit, &plan, &cost).map(drop),
        Invariant::TemplateConsistency,
    );
}

#[test]
fn discounting_the_kernel_cost_breaks_clock_conservation() {
    let (circuit, mut plan, cost) = plan_and_cost();
    assert!(plan.stages[0].kernel_cost > 0.0);
    plan.stages[0].kernel_cost *= 0.5;
    assert_rejected(
        verify_plan(&circuit, &plan, &cost).map(drop),
        Invariant::ClockConservation,
    );
}

#[test]
fn escaping_qubit_in_a_shard_op_breaks_write_disjointness() {
    let (circuit, plan, _cost) = plan_and_cost();
    let l = plan.l;
    let num_shards = 1usize << (plan.n - l);
    let mut programs = build_stage_programs(&circuit, &plan.stages[0], l, num_shards);
    // Rewrite one fusion op's first qubit to physical position `l`: the
    // op's write set now reaches into the neighbour shard `s ^ (1 << 0)`.
    let mut corrupted = false;
    'outer: for program in programs.iter_mut() {
        for op in program.iter_mut() {
            if let ShardOp::Fusion { qubits, .. } = op {
                if !qubits.is_empty() {
                    Arc::make_mut(qubits)[0] = l;
                    corrupted = true;
                    break 'outer;
                }
            }
        }
    }
    assert!(corrupted, "stage 0 must contain a fusion op to corrupt");
    let violation = verify_stage_programs(&programs, l, 0)
        .map(drop)
        .expect_err("escaping write set must be rejected");
    assert_eq!(violation.invariant, Invariant::WriteDisjointness);
    assert!(
        violation.shard.is_some() && violation.op.is_some(),
        "effect violations must carry shard/op coordinates: {violation}"
    );
    assert_eq!(AtlasError::from(violation).kind(), "invalid-plan");
}

#[test]
fn pristine_stage_programs_have_disjoint_writes() {
    let (circuit, plan, _cost) = plan_and_cost();
    let l = plan.l;
    let num_shards = 1usize << (plan.n - l);
    for (k, sp) in plan.stages.iter().enumerate() {
        let programs = build_stage_programs(&circuit, sp, l, num_shards);
        verify_stage_programs(&programs, l, k).unwrap();
    }
}

/// The verifier is observation-only: running it between two executions of
/// the same compiled plan changes nothing, down to the amplitude bits.
#[test]
fn verifier_run_leaves_execution_byte_identical() {
    let (circuit, compiled) = compiled();
    let before = compiled.execute(&circuit).unwrap().state.unwrap();
    verify_plan(&circuit, compiled.plan(), compiled.cost()).unwrap();
    let after = compiled.execute(&circuit).unwrap().state.unwrap();
    assert_eq!(before.amplitudes().len(), after.amplitudes().len());
    for (x, y) in before.amplitudes().iter().zip(after.amplitudes()) {
        assert_eq!(
            (x.re.to_bits(), x.im.to_bits()),
            (y.re.to_bits(), y.im.to_bits()),
            "verifier must not perturb execution"
        );
    }
}
