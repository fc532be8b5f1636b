//! Integration tests of the typed session API
//! (`Planner` → `CompiledPlan` → `Execution`): plan reuse across
//! re-parameterized circuits, misuse rejection, and a sweep
//! differential check over the full `StagingAlgo × KernelAlgo` grid.
//!
//! The plan-*once* property itself (the staging-invocation counter) is
//! enforced in `tests/plan_once.rs`, which runs as its own process so
//! the global counter is not shared with unrelated tests.

mod common;

use atlas::prelude::*;
use common::{all_kernel_algos, all_staging_algos, machine_shapes, shape_label};

/// Deterministic sweep point `i` of a circuit: every gate parameter
/// shifted by `0.17 · i` (structure unchanged; generic angles stay
/// generic, so the structural fingerprint is preserved).
fn sweep_point(circuit: &Circuit, i: usize) -> Circuit {
    circuit.map_params(|_, _, p| p + 0.17 * i as f64)
}

/// The sweep differential: plan once per `(staging, kernelizer, shape)`
/// combination, execute three re-parameterized points against the one
/// `CompiledPlan`, and require amplitude-level agreement with the dense
/// reference simulator on every point, plus matching Pauli expectations
/// through the sharded measurement engine.
#[test]
fn sweep_points_match_reference_across_algorithm_grid() {
    let base = atlas::circuit::generators::qaoa(8);
    let zz: PauliString = "IIIIIIZZ".parse().unwrap();
    for staging in all_staging_algos() {
        for kernelizer in all_kernel_algos() {
            // The inter-node shape of the ladder: communication on every
            // class of physical link.
            let spec = machine_shapes(8)[2];
            let cfg = AtlasConfig {
                staging,
                kernelizer,
                final_unpermute: true,
                ..AtlasConfig::default()
            };
            let planner = Planner::new(spec, CostModel::default(), cfg);
            let compiled = planner
                .plan(&base)
                .unwrap_or_else(|e| panic!("{staging:?} x {kernelizer:?}: plan failed: {e}"));
            for i in 0..3 {
                let point = sweep_point(&base, i);
                assert!(
                    compiled.accepts(&point),
                    "{staging:?} x {kernelizer:?}: point {i} changed the fingerprint"
                );
                let run = compiled.execute(&point).unwrap_or_else(|e| {
                    panic!("{staging:?} x {kernelizer:?} point {i}: execute failed: {e}")
                });
                let want = simulate_reference(&point);
                let got = run.state.as_ref().expect("final_unpermute gathers state");
                let diff = got.max_abs_diff(&want);
                assert!(
                    diff < 1e-9,
                    "{staging:?} x {kernelizer:?} on {} point {i}: diverged by {diff:e}",
                    shape_label(&spec),
                );
                // Expectation through the sharded engine vs the dense
                // state (⟨ψ|Z₁Z₀|ψ⟩ = Σ ±|α_x|²).
                let dense_zz: f64 = want
                    .amplitudes()
                    .iter()
                    .enumerate()
                    .map(|(x, a)| {
                        let sign = if (x & 0b11).count_ones() % 2 == 0 {
                            1.0
                        } else {
                            -1.0
                        };
                        sign * a.norm_sqr()
                    })
                    .sum();
                let got_zz = run.measurements.expectation(&zz);
                assert!(
                    (got_zz - dense_zz).abs() < 1e-9,
                    "{staging:?} x {kernelizer:?} point {i}: <ZZ> {got_zz} vs {dense_zz}"
                );
            }
        }
    }
}

/// Sweep points differ from each other (the re-parameterization is
/// real), yet every point reuses the same plan object.
#[test]
fn sweep_points_produce_distinct_states() {
    let base = atlas::circuit::generators::qaoa(8);
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 5,
    };
    let cfg = AtlasConfig::for_validation();
    let compiled = Planner::new(spec, CostModel::default(), cfg)
        .plan(&base)
        .unwrap();
    let s0 = compiled
        .execute(&sweep_point(&base, 0))
        .unwrap()
        .state
        .unwrap();
    let s1 = compiled
        .execute(&sweep_point(&base, 1))
        .unwrap()
        .state
        .unwrap();
    assert!(
        s0.max_abs_diff(&s1) > 1e-3,
        "shifted parameters must change the state"
    );
}

#[test]
fn compiled_plan_rejects_structurally_different_circuits() {
    let base = atlas::circuit::generators::qaoa(8);
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 5,
    };
    let compiled = Planner::new(spec, CostModel::default(), AtlasConfig::default())
        .plan(&base)
        .unwrap();

    // Extra gate.
    let mut extra = base.clone();
    extra.h(0);
    // Different wiring, same gate multiset.
    let rewired = {
        let mut c = Circuit::named(8, base.name());
        for (i, g) in base.gates().iter().enumerate() {
            if i == 0 {
                // First gate is an H on qubit 0; move it to qubit 1.
                c.push(Gate::new(g.kind, &[1]));
            } else {
                c.push(*g);
            }
        }
        c
    };
    // Different qubit count.
    let narrower = atlas::circuit::generators::qaoa(7);

    for (label, bad) in [
        ("extra gate", &extra),
        ("rewired", &rewired),
        ("narrower", &narrower),
    ] {
        assert!(!compiled.accepts(bad), "{label}: fingerprint should differ");
        match compiled.execute(bad) {
            Err(AtlasError::PlanMismatch { reason }) => assert!(
                reason.contains("re-plan"),
                "{label}: reason should point at re-planning, got: {reason}"
            ),
            other => panic!("{label}: expected PlanMismatch, got {other:?}"),
        }
    }

    // The original still executes fine after all the rejections.
    assert!(compiled.execute(&base).is_ok());
}

#[test]
fn planner_surfaces_typed_errors() {
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 6,
    };
    // 6 qubits < L + G = 7.
    let small = atlas::circuit::generators::ghz(6);
    match Planner::new(spec, CostModel::default(), AtlasConfig::default()).plan(&small) {
        Err(AtlasError::CircuitTooSmall {
            qubits: 6,
            local: 6,
            global: 1,
        }) => {}
        other => panic!("expected CircuitTooSmall, got {other:?}"),
    }
    // Shards split into node and GPU bits: a machine with 3 nodes or 3
    // GPUs per node has no such split.
    for (nodes, gpus_per_node) in [(3, 2), (2, 3)] {
        let odd = MachineSpec {
            nodes,
            gpus_per_node,
            local_qubits: 4,
        };
        match Planner::new(odd, CostModel::default(), AtlasConfig::default()).plan(&small) {
            Err(AtlasError::InvalidConfig { .. }) => {}
            other => panic!("expected InvalidConfig for {odd:?}, got {other:?}"),
        }
    }
    // An invalid config is caught by plan() even when built by hand.
    let bad = AtlasConfig {
        kernelizer: KernelAlgo::Dp,
        pruning_threshold: 0,
        ..AtlasConfig::default()
    };
    let ok_circuit = atlas::circuit::generators::ghz(8);
    match Planner::new(MachineSpec::single_gpu(8), CostModel::default(), bad).plan(&ok_circuit) {
        Err(AtlasError::InvalidConfig { .. }) => {}
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

/// A config is a plain struct literal, so every door into the engine
/// must run `AtlasConfig::validate()` itself: the same bad literal is
/// turned away with `InvalidConfig` at each of the three.
#[test]
fn every_door_rejects_an_invalid_config_literal() {
    use atlas::serve::{ServeConfig, SessionPool};
    let bad = AtlasConfig {
        threads: 0,
        ..AtlasConfig::default()
    };
    let spec = MachineSpec::single_gpu(8);
    let circuit = atlas::circuit::generators::ghz(8);
    let planner = Planner::new(spec, CostModel::default(), bad.clone());
    let doors: [(&str, Option<AtlasError>); 3] = [
        ("Planner::plan", planner.plan(&circuit).err()),
        (
            "Planner::plan_backend",
            planner.plan_backend(&circuit).err(),
        ),
        (
            "SessionPool::new",
            SessionPool::new(spec, CostModel::default(), bad, ServeConfig::default()).err(),
        ),
    ];
    for (door, err) in doors {
        match err {
            Some(AtlasError::InvalidConfig { reason }) => {
                assert!(reason.contains("threads"), "{door}: {reason}")
            }
            other => panic!("{door}: expected InvalidConfig, got {other:?}"),
        }
    }
}

/// Every functional run ends in the identity layout, whatever
/// `final_unpermute` says: the shards both runs leave behind hold, bit
/// for bit, the state the `true` run gathers. The knob selects only the
/// charge of that last move (the `false` run still reports exactly its
/// dry run) and the gather.
#[test]
fn execution_ends_in_the_identity_layout() {
    let circuit = atlas::circuit::generators::qaoa(8);
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 5,
    };
    let compile = |final_unpermute| {
        let cfg = AtlasConfig {
            final_unpermute,
            ..AtlasConfig::default()
        };
        Planner::new(spec, CostModel::default(), cfg)
            .plan(&circuit)
            .unwrap()
    };
    let charged = compile(true);
    let last = &charged.plan().stages.last().unwrap().mapping;
    assert!(
        last.iter().enumerate().any(|(q, &p)| q as u32 != p),
        "the last stage must permute the layout"
    );
    let want = charged.execute(&circuit).unwrap().state.unwrap();
    for final_unpermute in [false, true] {
        let compiled = compile(final_unpermute);
        let run = compiled.execute(&circuit).unwrap();
        assert_eq!(run.state.is_some(), final_unpermute);
        let got = run.measurements.machine().gather_state();
        assert!(
            got.amplitudes()
                .iter()
                .zip(want.amplitudes())
                .all(|(a, b)| a.bit_eq(*b)),
            "final_unpermute={final_unpermute}: the shards are not in the identity layout"
        );
        if !final_unpermute {
            // `{:?}` prints every f64 in its round-trip form.
            assert_eq!(
                format!("{:?}", run.report),
                format!("{:?}", compiled.dry_run()),
                "an uncharged run reports its dry run"
            );
        }
    }
}

/// The library-layer admission gate: a [`CompiledPlan`] whose EXECUTE
/// would allocate past [`AtlasConfig::memory_budget`] returns the typed
/// [`AtlasError::ResourceExhausted`] *before* touching any amplitude
/// memory. Planning itself (PARTITION) is never gated — plans are
/// cheap and reusable under a later, larger budget.
#[test]
fn over_budget_execute_is_rejected_typed() {
    let circuit = atlas::circuit::generators::qaoa(8);
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 5,
    };
    let cfg = AtlasConfig {
        memory_budget: MemoryBudget::bytes(1 << 10),
        ..AtlasConfig::default()
    };
    let compiled = Planner::new(spec, CostModel::default(), cfg)
        .plan(&circuit)
        .expect("planning is not gated by the budget");
    match compiled.execute(&circuit) {
        Err(AtlasError::ResourceExhausted { needed, budget }) => {
            assert_eq!(needed, MemoryBudget::peak_bytes(8, 5));
            assert_eq!(budget, 1 << 10);
        }
        other => panic!("expected ResourceExhausted, got: {other:?}"),
    }
}

/// A run that gathers its state (`final_unpermute`) holds it twice at
/// its end — the machine's shards live on inside `Measurements` — so
/// admission counts both copies. A budget of exactly one copy plus one
/// scratch shard refuses the gathering run at the session's one door,
/// `execute`, and still admits the same plan without the gather.
#[test]
fn a_gathering_run_is_admitted_at_its_full_footprint() {
    let (n, l) = (8, 5);
    let circuit = atlas::circuit::generators::qaoa(n);
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: l,
    };
    let one_copy = MemoryBudget::peak_bytes(n, l);
    let plan = |final_unpermute| {
        let cfg = AtlasConfig {
            final_unpermute,
            memory_budget: MemoryBudget::bytes(one_copy),
            ..AtlasConfig::default()
        };
        Planner::new(spec, CostModel::default(), cfg)
            .plan(&circuit)
            .expect("planning is not gated by the budget")
    };
    match plan(true).execute(&circuit) {
        Err(AtlasError::ResourceExhausted { needed, budget }) => {
            assert_eq!(
                needed,
                one_copy + (16 << n),
                "state + shard + gathered copy"
            );
            assert_eq!(budget, one_copy);
        }
        other => panic!("expected ResourceExhausted, got: {other:?}"),
    }
    let run = plan(false).execute(&circuit).expect("one copy fits");
    assert!(run.state.is_none());
}

/// The cooperative-interruption contract of
/// [`CompiledPlan::execute_with`]: a probe that never fires leaves the
/// run byte-identical to plain [`CompiledPlan::execute`]; a probe that
/// fires immediately stops at the first stage barrier with `Ok(None)`
/// (no error, no partial result).
#[test]
fn execute_with_probe_interrupts_or_is_invisible() {
    let circuit = atlas::circuit::generators::qaoa(8);
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 5,
    };
    let cfg = AtlasConfig {
        final_unpermute: true,
        ..AtlasConfig::default()
    };
    let compiled = Planner::new(spec, CostModel::default(), cfg)
        .plan(&circuit)
        .unwrap();

    let plain = compiled.execute(&circuit).unwrap();
    let probed = compiled
        .execute_with(&circuit, &|| false)
        .unwrap()
        .expect("a never-firing probe cannot interrupt");
    assert_eq!(plain.report.total_secs, probed.report.total_secs);
    assert_eq!(plain.report.kernels, probed.report.kernels);
    assert_eq!(
        plain.state.as_ref().unwrap().amplitudes(),
        probed.state.as_ref().unwrap().amplitudes(),
        "an unfired probe must not perturb a single amplitude"
    );

    // An always-true probe stops EXECUTE at the first barrier.
    assert!(compiled.execute_with(&circuit, &|| true).unwrap().is_none());
}
