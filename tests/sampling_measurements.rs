//! Differential tests for the sharded measurement engine
//! (`atlas-sampler`): Pauli expectations against the dense reference
//! across the full `StagingAlgo` × `KernelAlgo` × machine-shape sweep,
//! byte-identical seeded sampling across thread counts and shard
//! layouts, and marginals / top outcomes without any state gather.
//!
//! Everything here runs with `final_unpermute = false`: the state stays
//! sharded and is never gathered. EXECUTE still ends every run in the
//! logical layout, and [`measurements_match_the_permuted_layout_oracle_bitwise`]
//! pins the engine to the read path that translated every index out of
//! the last stage's layout instead (`common/read_oracle.rs`).

mod common;
#[path = "common/read_oracle.rs"]
mod read_oracle;

use atlas::machine::Machine;
use atlas::prelude::*;
use atlas::sampler::{PauliOp, SAMPLE_CHUNK_BITS};
use atlas::statevec::Pool;
use common::*;
use read_oracle::PermutedLayout;

/// A measurement-oriented config: no final unpermute (the engine works
/// on the sharded state, uncharged and ungathered).
fn measurement_cfg(staging: StagingAlgo, kernelizer: KernelAlgo, threads: usize) -> AtlasConfig {
    AtlasConfig {
        staging,
        kernelizer,
        threads,
        final_unpermute: false,
        ..AtlasConfig::default()
    }
}

fn run_measurements(circuit: &Circuit, spec: MachineSpec, cfg: &AtlasConfig) -> Measurements {
    let run = run_session(circuit, spec, cfg);
    assert!(
        run.state.is_none(),
        "measurement path must not gather the state"
    );
    run.measurements
}

/// Dense-reference Pauli expectation by direct basis-state algebra.
fn dense_expectation(sv: &StateVector, p: &PauliString) -> f64 {
    let flip = (p.x_mask() | p.y_mask()) as usize;
    let sign = p.z_mask() | p.y_mask();
    let pref = match p.y_mask().count_ones() % 4 {
        0 => Complex64::ONE,
        1 => Complex64::I,
        2 => -Complex64::ONE,
        _ => -Complex64::I,
    };
    let amps = sv.amplitudes();
    let mut acc = Complex64::ZERO;
    for (x, &a) in amps.iter().enumerate() {
        let s = if (x as u64 & sign).count_ones().is_multiple_of(2) {
            1.0
        } else {
            -1.0
        };
        acc += amps[x ^ flip].conj() * a * s;
    }
    let z = pref * acc;
    assert!(z.im.abs() < 1e-10, "Pauli expectation must be real");
    z.re
}

/// A fixed suite of Pauli strings covering diagonal, purely off-diagonal
/// and mixed cases (with odd and even Y counts).
fn pauli_suite(n: u32) -> Vec<PauliString> {
    let all = |op: PauliOp| PauliString::from_ops(n, &(0..n).map(|q| (q, op)).collect::<Vec<_>>());
    vec![
        all(PauliOp::Z),
        all(PauliOp::X),
        PauliString::from_ops(n, &[(0, PauliOp::Z), (n - 1, PauliOp::Z)]),
        PauliString::from_ops(n, &[(1, PauliOp::X), (n - 2, PauliOp::Y)]),
        PauliString::from_ops(n, &[(0, PauliOp::Y), (2, PauliOp::Z), (n - 1, PauliOp::X)]),
        PauliString::from_ops(n, &[(n / 2, PauliOp::Y)]),
    ]
}

/// Acceptance criterion: Pauli expectations match the dense reference
/// within 1e-9 across every staging algorithm, kernelization algorithm
/// and machine shape — on the sharded state.
#[test]
fn expectations_match_dense_across_algos_and_shapes() {
    let circuit = atlas::circuit::generators::qaoa(8);
    let reference = simulate_reference(&circuit);
    let suite = pauli_suite(8);
    let want: Vec<f64> = suite
        .iter()
        .map(|p| dense_expectation(&reference, p))
        .collect();
    for staging in all_staging_algos() {
        for kernelizer in all_kernel_algos() {
            for spec in machine_shapes(8) {
                let cfg = measurement_cfg(staging, kernelizer, 1);
                let m = run_measurements(&circuit, spec, &cfg);
                for (p, &w) in suite.iter().zip(&want) {
                    let got = m.expectation(p);
                    assert!(
                        (got - w).abs() < 1e-9,
                        "<{p}> under {staging:?} x {kernelizer:?} on {}: got {got}, want {w}",
                        shape_label(&spec),
                    );
                }
            }
        }
    }
}

/// Acceptance criterion: with a fixed seed, sampled bitstrings are
/// byte-identical across thread counts and across shard counts (machine
/// shapes with 1, 4, 8 and 16 shards).
#[test]
fn seeded_samples_identical_across_threads_and_shapes() {
    let circuit = atlas::circuit::generators::qaoa(8);
    let mut baseline: Option<Vec<u64>> = None;
    for spec in machine_shapes(8) {
        for threads in [1usize, 2, 8] {
            let cfg = measurement_cfg(StagingAlgo::IlpSearch, KernelAlgo::Dp, threads);
            let m = run_measurements(&circuit, spec, &cfg);
            let samples = m.sample(128, 42);
            assert_eq!(samples.len(), 128);
            match &baseline {
                None => baseline = Some(samples),
                Some(b) => assert_eq!(
                    &samples,
                    b,
                    "samples diverged on {} with {threads} thread(s)",
                    shape_label(&spec)
                ),
            }
        }
    }
}

/// Sampling draws from the right distribution: a GHZ state only ever
/// measures all-zeros or all-ones, in roughly equal proportion.
#[test]
fn ghz_shots_hit_only_the_two_branches() {
    let circuit = atlas::circuit::generators::ghz(10);
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 7,
    };
    let cfg = measurement_cfg(StagingAlgo::IlpSearch, KernelAlgo::Dp, 1);
    let m = run_measurements(&circuit, spec, &cfg);
    let counts = m.sample_counts(2048, 9);
    assert_eq!(counts.len(), 2, "GHZ has exactly two outcomes: {counts:?}");
    let all_ones = (1u64 << 10) - 1;
    for &(bits, c) in &counts {
        assert!(bits == 0 || bits == all_ones, "impossible outcome {bits:b}");
        // Binomial(2048, 1/2): 6σ ≈ 136.
        assert!(
            (c as i64 - 1024).abs() < 160,
            "branch {bits:b} count {c} too far from 1024"
        );
    }
}

/// Marginals and per-outcome probabilities agree with the dense
/// reference after a multi-stage run whose stages permute the layout.
#[test]
fn marginals_and_probabilities_match_reference() {
    let circuit = Family::Qft.generate(9);
    let reference = simulate_reference(&circuit);
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 6,
    };
    let cfg = measurement_cfg(StagingAlgo::IlpSearch, KernelAlgo::Dp, 1);
    let m = run_measurements(&circuit, spec, &cfg);
    for qubits in [vec![0u32], vec![8, 0], vec![3, 1, 7]] {
        let dist = m.marginal(&qubits);
        assert_eq!(dist.len(), 1 << qubits.len());
        for (v, &got) in dist.iter().enumerate() {
            let want: f64 = (0..512u64)
                .filter(|x| {
                    qubits
                        .iter()
                        .enumerate()
                        .all(|(t, &q)| (x >> q) & 1 == (v as u64 >> t) & 1)
                })
                .map(|x| reference.probability(x))
                .sum();
            assert!(
                (got - want).abs() < 1e-9,
                "marginal {qubits:?} bin {v}: got {got}, want {want}"
            );
        }
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
    for x in [0u64, 1, 255, 256, 511] {
        assert!((m.probability(x) - reference.probability(x)).abs() < 1e-9);
    }
}

/// `top` matches the dense selector exactly (indices and order) on a
/// state with many exact probability ties — without gathering.
#[test]
fn top_outcomes_match_dense_selector_with_ties() {
    let circuit = atlas::circuit::generators::grover(6);
    let reference = simulate_reference(&circuit);
    let spec = MachineSpec {
        nodes: 1,
        gpus_per_node: 4,
        local_qubits: 4,
    };
    let cfg = measurement_cfg(StagingAlgo::IlpSearch, KernelAlgo::Dp, 2);
    let m = run_measurements(&circuit, spec, &cfg);
    // The unambiguous winner (Grover's marked state) matches the dense
    // reference; the remaining outcomes tie up to floating-point noise,
    // so the selector is validated against this run's own probabilities
    // with the pinned order (descending p, ascending index).
    assert_eq!(m.top(1)[0].0, reference.top_probabilities(1)[0].0);
    let mut own: Vec<(u64, f64)> = (0..64u64)
        .map(|x| (x, m.probability(x)))
        .filter(|&(_, p)| p > atlas::qmath::EPS)
        .collect();
    own.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    for k in [1usize, 5, 20] {
        let got = m.top(k);
        assert_eq!(
            got.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            own[..k.min(own.len())]
                .iter()
                .map(|&(i, _)| i)
                .collect::<Vec<_>>(),
            "top-{k} selection diverged from the pinned order"
        );
        for ((_, gp), (_, wp)) in got.iter().zip(&own) {
            assert_eq!(gp.to_bits(), wp.to_bits(), "top-{k} probability drifted");
        }
    }
}

/// Expectations and samples are identical whether or not the run charged
/// its final move to the identity layout: the move happens either way.
#[test]
fn permuted_and_unpermuted_runs_agree() {
    let circuit = Family::Su2Random.generate(8);
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 5,
    };
    let uncharged = run_measurements(
        &circuit,
        spec,
        &measurement_cfg(StagingAlgo::IlpSearch, KernelAlgo::Dp, 1),
    );
    let mut cfg = measurement_cfg(StagingAlgo::IlpSearch, KernelAlgo::Dp, 1);
    cfg.final_unpermute = true;
    let charged = run_session(&circuit, spec, &cfg).measurements;
    for p in pauli_suite(8) {
        assert_eq!(
            uncharged.expectation(&p).to_bits(),
            charged.expectation(&p).to_bits()
        );
    }
    assert_eq!(uncharged.sample(64, 5), charged.sample(64, 5));
}

/// A Grover circuit followed by a CZ ring and an X layer: the trailing
/// X gates land on shard bits of the last stage, so that stage ends with
/// pending relabel flips.
fn grover_with_final_flips(n: u32) -> Circuit {
    let mut c = atlas::circuit::generators::grover(n);
    for q in 0..n {
        c.cz(q, (q + 1) % n);
    }
    for q in 0..n {
        c.x(q);
    }
    c
}

fn spec(nodes: usize, gpus_per_node: usize, local_qubits: u32) -> MachineSpec {
    MachineSpec {
        nodes,
        gpus_per_node,
        local_qubits,
    }
}

/// Acceptance criterion: reading the logical layout straight from the
/// shards gives, bit for bit, what the per-index translation out of the
/// last stage's layout gave — chunk norms, seeded samples, top-k and
/// per-outcome probabilities. With `L` < 12 a sampling chunk spans
/// several shards (`L` = 4, 5, 10, 11), so each chunk's mass must be one
/// sequential sum across shard boundaries; `L` = 12 and 13 keep a chunk
/// inside one shard. The Grover cases end with relabel flips pending.
/// Every case runs on pools of 1, 2 and 3 threads.
#[test]
fn measurements_match_the_permuted_layout_oracle_bitwise() {
    let cases = [
        (Family::WState.generate(14), spec(4, 4, 4)),
        (grover_with_final_flips(13), spec(2, 2, 5)),
        (Family::Su2Random.generate(14), spec(2, 2, 10)),
        (grover_with_final_flips(13), spec(2, 2, 11)),
        (Family::Su2Random.generate(14), spec(2, 2, 11)),
        (Family::Qft.generate(14), spec(2, 2, 12)),
        (Family::Su2Random.generate(15), spec(2, 2, 13)),
    ];
    let mut flipped = 0;
    for (circuit, spec) in &cases {
        let n = circuit.num_qubits();
        let label = format!("{} on {}", circuit.name(), shape_label(spec));
        let mut oracle: Option<PermutedLayout> = None;
        for threads in [1usize, 2, 3] {
            let cfg = measurement_cfg(StagingAlgo::IlpSearch, KernelAlgo::Dp, threads);
            let compiled = Planner::new(*spec, CostModel::default(), cfg)
                .plan(circuit)
                .unwrap();
            let last = compiled.plan().stages.last().unwrap();
            assert!(
                last.mapping.iter().enumerate().any(|(q, &p)| q as u32 != p),
                "{label}: the last stage must permute the layout"
            );
            flipped += usize::from(threads == 1 && last.flips != 0);
            let m = compiled.execute(circuit).unwrap().measurements;
            let oracle = oracle.get_or_insert_with(|| {
                // The shards hold the logical layout: re-permuting them
                // to the last stage's mapping restores that stage's
                // machine bit for bit.
                let state = m.machine().gather_state();
                assert!(
                    state.approx_eq(&simulate_reference(circuit), 1e-9),
                    "{label}: the run does not end in the logical layout"
                );
                PermutedLayout::new(*spec, &state, &last.mapping)
            });
            let label = format!("{label}, {threads} thread(s)");

            let norms = atlas::statevec::with_pool(threads, |pool| {
                m.machine().logical_chunk_norms(SAMPLE_CHUNK_BITS, pool)
            });
            let want = oracle.chunk_norms(SAMPLE_CHUNK_BITS);
            assert_eq!(bits(&norms), bits(&want), "{label}: chunk norms");
            for seed in [7u64, 8] {
                assert_eq!(
                    m.sample(256, seed),
                    oracle.sample(256, seed),
                    "{label}: samples at seed {seed}"
                );
            }
            for k in [1usize, 8, 64] {
                let (got, want) = (m.top(k), oracle.top(k));
                assert_eq!(pairs_bits(&got), pairs_bits(&want), "{label}: top-{k}");
            }
            for x in 0..1u64 << n {
                assert_eq!(
                    m.probability(x).to_bits(),
                    oracle.probability(x).to_bits(),
                    "{label}: probability of {x}"
                );
            }
        }
    }
    assert_eq!(flipped, 2, "both Grover cases must end with pending flips");
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn pairs_bits(v: &[(u64, f64)]) -> Vec<(u64, u64)> {
    v.iter().map(|&(i, p)| (i, p.to_bits())).collect()
}

/// Bugfix: a target in the float slack between a chunk's running sum and
/// the next chunk's prefix used to clamp to the chunk's last index,
/// whatever its probability. It now clamps to the chunk's last index of
/// nonzero probability; past the total mass it stays in the last chunk of
/// nonzero mass.
#[test]
fn sampler_clamp_never_draws_an_outcome_of_probability_zero() {
    // 8 amplitudes in chunks of 4 over two shards; index 7, chunk 1's
    // last, is zero. Search a seeded stream of chunk-1 magnitudes for one
    // whose in-chunk scan, started at chunk 0's mass, ends strictly below
    // the chunk-level prefix.
    let spec = spec(1, 2, 2);
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 11) as f64 / (1u64 << 53) as f64) * 0.5 + 0.05
    };
    let (machine, norms, scan_end) = (0..1000)
        .find_map(|_| {
            let mut amps: Vec<Complex64> = (0..8).map(|_| Complex64::new(next(), 0.0)).collect();
            amps[7] = Complex64::ZERO;
            let machine = Machine::with_state(spec, &StateVector::from_amplitudes(amps));
            let norms = machine.logical_chunk_norms(2, &Pool::SERIAL);
            let scan_end = (4..8).fold(norms[0], |acc, x| {
                acc + machine.amp_at_physical(x).norm_sqr()
            });
            (scan_end < norms[0] + norms[1]).then_some((machine, norms, scan_end))
        })
        .expect("a chunk whose scan ends below the next prefix");
    let oracle = PermutedLayout::new(spec, &machine.gather_state(), &[0, 1, 2]);
    let got = machine.resolve_targets(2, &norms, &[scan_end], &Pool::SERIAL);
    assert_eq!(
        got,
        vec![6],
        "the slack target clamps to chunk 1's last nonzero index"
    );
    assert_eq!(oracle.resolve(2, &norms, scan_end), 6);

    // Chunk 1 all zero: a target at the total mass resolves inside chunk
    // 0, at its last nonzero index (2; index 3 is zero too).
    let amps: Vec<Complex64> = [0.5, 0.6, 0.4, 0.0, 0.0, 0.0, 0.0, 0.0]
        .iter()
        .map(|&re| Complex64::new(re, 0.0))
        .collect();
    let machine = Machine::with_state(spec, &StateVector::from_amplitudes(amps));
    let norms = machine.logical_chunk_norms(2, &Pool::SERIAL);
    let total = norms[0] + norms[1];
    let got = machine.resolve_targets(2, &norms, &[total], &Pool::SERIAL);
    assert_eq!(
        got,
        vec![2],
        "a target at the total mass stays in the last nonzero chunk"
    );
    let oracle = PermutedLayout::new(spec, &machine.gather_state(), &[0, 1, 2]);
    assert_eq!(oracle.resolve(2, &norms, total), 2);
}
