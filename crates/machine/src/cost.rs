//! The calibrated cost model.
//!
//! Constants approximate an NVIDIA A100-SXM4-40GB (1.3 TB/s HBM, ~9.7
//! TFLOP/s fp64), NVLink3 intra-node links, a 200 Gb/s Slingshot NIC per
//! node, and PCIe 4.0 ×16 host links — the paper's testbed (§VII-A). The
//! paper derives the same constants by microbenchmarking (§VI-B /
//! §VII-A); here they are first-principles estimates, and the `hotpath`
//! bench in `atlas-bench` (the dense `k*_strided` rows of
//! `BENCH_hotpath.json`) measures this host's CPU analogues to show the
//! *structure* (memory-bound below ~5 fused qubits, compute-bound above)
//! is preserved.
//!
//! All kernel constants are **per amplitude, in nanoseconds**; multiply by
//! the shard's amplitude count for wall time. The kernelization DP uses the
//! same per-amplitude units, so DP cost ordering and wall-time ordering
//! agree by construction.
//!
//! [`Clock`] is the ledger that charges the model: every simulated second
//! of a run — kernels, stage barriers, all-to-alls, a baseline's own
//! exchanges — is added through it, and it needs no amplitudes.

use crate::topology::MachineSpec;
use crate::traffic::transition_traffic;
use atlas_circuit::{Gate, GateKind};
use atlas_qmath::QubitPermutation;
use atlas_telemetry::{secs_to_ns, Recorder};

/// Calibrated machine constants. See module docs for provenance.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Full read+write pass over device memory, per amplitude (ns).
    pub mem_pass_ns: f64,
    /// One complex multiply-add per amplitude (ns) in a fusion kernel.
    pub fuse_mac_ns: f64,
    /// Fixed kernel-launch overhead (µs).
    pub kernel_launch_us: f64,
    /// Shared-memory kernel load/store + sync per amplitude (ns) — the
    /// paper's `α`.
    pub shm_alpha_ns: f64,
    /// Per-gate shared-memory costs by shape (ns per amplitude).
    pub shm_gate_diag_ns: f64,
    /// Non-diagonal single-qubit gate cost in shared memory.
    pub shm_gate_1q_ns: f64,
    /// Two-qubit / controlled gate cost in shared memory.
    pub shm_gate_2q_ns: f64,
    /// Three-qubit gate cost in shared memory.
    pub shm_gate_3q_ns: f64,
    /// Effective per-GPU NVLink bandwidth (bytes/s).
    pub intra_node_bw: f64,
    /// Per-node NIC bandwidth, shared by the node's GPUs (bytes/s).
    pub inter_node_bw: f64,
    /// Per-GPU host↔device bandwidth for DRAM offloading (bytes/s).
    pub pcie_bw: f64,
    /// Collective-step latency (µs) added to every all-to-all.
    pub comm_latency_us: f64,
    /// Largest fusion-kernel qubit count the device supports.
    pub max_fusion_qubits: u32,
    /// Largest shared-memory kernel active-qubit count (shared-memory
    /// capacity: 2^k amplitudes must fit in 164 KB).
    pub max_shm_qubits: u32,
    /// The three least significant qubits must be active in every
    /// shared-memory kernel (128-byte coalesced loads, §VI-B footnote).
    pub shm_required_low_qubits: u32,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            mem_pass_ns: 0.025,
            fuse_mac_ns: 0.0008,
            kernel_launch_us: 8.0,
            shm_alpha_ns: 0.030,
            shm_gate_diag_ns: 0.002,
            shm_gate_1q_ns: 0.004,
            shm_gate_2q_ns: 0.006,
            shm_gate_3q_ns: 0.010,
            intra_node_bw: 250.0e9,
            inter_node_bw: 22.0e9,
            pcie_bw: 24.0e9,
            comm_latency_us: 20.0,
            max_fusion_qubits: 7,
            max_shm_qubits: 10,
            shm_required_low_qubits: 3,
        }
    }
}

/// Complex-amplitude size in bytes (2 × f64).
pub const AMP_BYTES: f64 = 16.0;

impl CostModel {
    /// Per-amplitude cost (ns) of a fusion kernel over `k` qubits: the
    /// larger of the memory-bound pass and the `2^k` MACs per amplitude.
    /// This is the paper's "constant per kernel qubit count" (§VI-B(1)).
    pub fn fusion_unit_ns(&self, k: u32) -> f64 {
        let macs = (1u64 << k) as f64;
        self.mem_pass_ns.max(macs * self.fuse_mac_ns)
    }

    /// Per-amplitude cost (ns) of one gate inside a shared-memory kernel.
    pub fn shm_gate_unit_ns(&self, gate: &Gate) -> f64 {
        use GateKind::*;
        match gate.kind {
            Z | S | Sdg | T | Tdg | RZ(_) | P(_) | CZ | CP(_) | CRZ(_) | RZZ(_) | CCZ => {
                self.shm_gate_diag_ns
            }
            H | X | Y | SX | RX(_) | RY(_) | U3(..) | PauliNoise(_) => self.shm_gate_1q_ns,
            CX | CY | CH | CRX(_) | CRY(_) | Swap | RXX(_) => self.shm_gate_2q_ns,
            CCX | CSwap => self.shm_gate_3q_ns,
        }
    }

    /// Wall-clock seconds of a fusion kernel over `k` qubits on a shard of
    /// `amps` amplitudes.
    pub fn fusion_kernel_secs(&self, k: u32, amps: usize) -> f64 {
        self.kernel_launch_us * 1e-6 + amps as f64 * self.fusion_unit_ns(k) * 1e-9
    }

    /// Wall-clock seconds of a shared-memory kernel on a shard of `amps`
    /// amplitudes, whose gates cost `per_amp_ns` per amplitude in sum
    /// ([`CostModel::shm_gate_unit_ns`] over the kernel's gates).
    pub fn shm_kernel_secs(&self, per_amp_ns: f64, amps: usize) -> f64 {
        self.kernel_launch_us * 1e-6 + amps as f64 * (self.shm_alpha_ns + per_amp_ns) * 1e-9
    }

    /// Host↔device transfer seconds for one shard of `amps` amplitudes
    /// (one direction).
    pub fn pcie_transfer_secs(&self, amps: usize) -> f64 {
        amps as f64 * AMP_BYTES / self.pcie_bw
    }

    /// The most cost-efficient fusion kernel size: qubit count that
    /// minimizes per-amplitude cost *per gate packed*, assuming a kernel of
    /// `k` qubits absorbs ~`k` gates. With the default constants this is 5,
    /// matching §VII-E's greedy baseline.
    pub fn best_fusion_size(&self) -> u32 {
        (1..=self.max_fusion_qubits)
            .min_by(|&a, &b| {
                let ca = self.fusion_unit_ns(a) / a as f64;
                let cb = self.fusion_unit_ns(b) / b as f64;
                ca.partial_cmp(&cb).unwrap()
            })
            .unwrap()
    }
}

/// `machine.step` event `kind` argument: a compute step (stage barrier).
pub const STEP_COMPUTE: u64 = 0;
/// `machine.step` event `kind` argument: a communication step
/// (all-to-all reshuffle or a baseline's modeled exchange).
pub const STEP_COMM: u64 = 1;

/// Simulated time spent in one bulk-synchronous step.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageTiming {
    /// Max-over-devices kernel time (s).
    pub compute: f64,
    /// All-to-all communication time (s).
    pub comm: f64,
    /// DRAM-offload swap time (s), zero when every shard is GPU-resident.
    pub swap: f64,
    /// Bytes this step moved between GPUs within a node.
    pub bytes_intra: u64,
    /// Bytes this step moved between nodes.
    pub bytes_inter: u64,
}

/// Aggregate clock and traffic report.
#[derive(Clone, Debug, Default)]
pub struct MachineReport {
    /// End-to-end simulated seconds.
    pub total_secs: f64,
    /// Kernel-execution seconds.
    pub compute_secs: f64,
    /// Communication seconds (intra- + inter-node collectives).
    pub comm_secs: f64,
    /// Host↔device offload seconds.
    pub swap_secs: f64,
    /// Per bulk-synchronous step breakdown.
    pub per_step: Vec<StageTiming>,
    /// Bytes moved between GPUs within a node.
    pub bytes_intra: u64,
    /// Bytes moved between nodes.
    pub bytes_inter: u64,
    /// Kernels launched.
    pub kernels: u64,
}

impl MachineReport {
    /// Fraction of total time spent communicating (the paper's Fig. 6).
    pub fn comm_fraction(&self) -> f64 {
        if self.total_secs == 0.0 {
            0.0
        } else {
            self.comm_secs / self.total_secs
        }
    }
}

/// The bulk-synchronous model clock of one run on an `n`-qubit state
/// sharded by a [`MachineSpec`].
///
/// Kernel charges accumulate per GPU and fold into one compute step at
/// each [`Clock::stage_barrier`] (the slowest device, plus DRAM-offload
/// swaps); stage transitions and a baseline's modeled exchanges push
/// communication steps. The clock reads no amplitudes: a dry run is a
/// clock alone, and a functional run charges the same clock by the same
/// walk while a [`Machine`](crate::Machine) moves the amplitudes, so both
/// report the same numbers.
pub struct Clock {
    spec: MachineSpec,
    cost: CostModel,
    n: u32,
    /// Per-GPU then per-node outgoing bytes of the transition being
    /// charged (scratch of [`transition_traffic`]); the stage barrier
    /// reuses its per-GPU part to count shards.
    link_bytes: Vec<u64>,
    /// Per-GPU compute seconds accumulated since the last barrier.
    pending: Vec<f64>,
    steps: Vec<StageTiming>,
    bytes_intra: u64,
    bytes_inter: u64,
    kernels: u64,
    /// Whether offload swaps overlap with compute (Atlas overlaps via
    /// Legion; naive baselines set this to `false`).
    pub overlap_io: bool,
    /// Telemetry handle: disabled by default (every recording call is a
    /// single-branch no-op); [`Clock::set_recorder`] attaches one.
    recorder: Recorder,
}

impl Clock {
    /// A clock at zero for an `n`-qubit state on `spec`, priced by `cost`.
    pub fn new(spec: MachineSpec, cost: CostModel, n: u32) -> Self {
        let spec = spec.checked();
        Clock {
            spec,
            cost,
            n,
            link_bytes: vec![0; spec.num_gpus() + spec.nodes],
            pending: vec![0.0; spec.num_gpus()],
            steps: Vec::new(),
            bytes_intra: 0,
            bytes_inter: 0,
            kernels: 0,
            overlap_io: true,
            recorder: Recorder::default(),
        }
    }

    /// Attaches a telemetry recorder: every step is recorded as a
    /// `machine.step` counter and every barrier as a `stage.barrier` span.
    /// The charged values are byte-identical with or without one.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Number of shards the state is split into.
    pub fn num_shards(&self) -> usize {
        self.spec.num_shards(self.n)
    }

    /// Steps recorded so far — the index the next step will take.
    pub fn num_steps(&self) -> u32 {
        self.steps.len() as u32
    }

    fn shard_len(&self) -> usize {
        1usize << self.spec.local_qubits
    }

    /// Charges shard `s`'s GPU for a `k`-qubit fusion kernel.
    pub fn charge_fusion(&mut self, s: usize, k: u32) {
        let secs = self.cost.fusion_kernel_secs(k, self.shard_len());
        self.charge_shard_compute(s, secs);
    }

    /// Charges shard `s`'s GPU for a shared-memory kernel whose gates cost
    /// `per_amp_ns` per amplitude in sum — the plan-level cost, whatever
    /// shapes the parts take after per-shard insular specialization
    /// (§VI-B).
    pub fn charge_shm(&mut self, s: usize, per_amp_ns: f64) {
        let secs = self.cost.shm_kernel_secs(per_amp_ns, self.shard_len());
        self.charge_shard_compute(s, secs);
    }

    /// Charges one kernel of `secs` seconds to the GPU owning shard `s`
    /// (baseline simulators charge their own kernel models through this).
    pub fn charge_shard_compute(&mut self, s: usize, secs: f64) {
        let gpu = self.spec.gpu_of_shard(self.n, s);
        self.pending[gpu] += secs;
        self.kernels += 1;
    }

    /// Ends a bulk-synchronous compute step: stage time is the max over
    /// devices, plus DRAM-offload swap charges when shards outnumber GPUs.
    pub fn stage_barrier(&mut self) {
        let barrier_t = self.recorder.start();
        let compute = self.pending.iter().copied().fold(0.0, f64::max);
        let mut swap = 0.0;
        if self.spec.offloading(self.n) {
            // Every shard crosses PCIe twice per stage (in + out),
            // serialized per owning GPU. Shards are counted per GPU in the
            // charge's scratch, so a warm barrier allocates nothing.
            let per_gpu = &mut self.link_bytes[..self.spec.num_gpus()];
            per_gpu.fill(0);
            for s in 0..self.spec.num_shards(self.n) {
                per_gpu[self.spec.gpu_of_shard(self.n, s)] += 1;
            }
            let max_shards = per_gpu.iter().copied().max().unwrap_or(0) as f64;
            swap = max_shards * 2.0 * self.cost.pcie_transfer_secs(self.shard_len());
        }
        let step = if self.overlap_io {
            StageTiming {
                compute: compute.max(swap),
                swap: if swap > compute { swap - compute } else { 0.0 },
                ..Default::default()
            }
        } else {
            StageTiming {
                compute,
                swap,
                ..Default::default()
            }
        };
        let stage = self.num_steps();
        self.recorder.counter(
            "machine.step",
            true,
            stage,
            0,
            0,
            &[
                ("kind", STEP_COMPUTE),
                ("compute_ns", secs_to_ns(step.compute)),
                ("swap_ns", secs_to_ns(step.swap)),
            ],
        );
        self.recorder
            .span("stage.barrier", barrier_t, true, stage, 0, 0, &[]);
        self.steps.push(step);
        self.pending.iter_mut().for_each(|p| *p = 0.0);
        // Stage barriers are the main thread's drain point.
        self.recorder.flush();
    }

    /// Charges the interconnect model for the transition
    /// `new_index = perm(old_index) ^ flip` and returns the step it
    /// recorded. The traffic comes in closed form, from per-source-shard
    /// counts of how many of its equal-sized destination blocks stay on
    /// its GPU, stay on its node, or leave it.
    pub fn charge_permute(&mut self, perm: &QubitPermutation, flip: u64) -> StageTiming {
        let l = self.spec.local_qubits;
        let traffic = transition_traffic(&self.spec, self.n, perm, flip, &mut self.link_bytes);
        self.bytes_intra += traffic.bytes_intra;
        self.bytes_inter += traffic.bytes_inter;
        // Overlapped collectives: the busiest sender sets each link class's
        // time (bytes to seconds is monotone, so the slowest GPU or node is
        // the one sending the most). Same-GPU blocks (offloaded siblings)
        // are a host-memory shuffle, folded into the repack pass below.
        let t_intra = traffic.max_gpu_intra as f64 / self.cost.intra_node_bw;
        let t_inter = traffic.max_node_inter as f64 / self.cost.inter_node_bw;
        // Local repack pass (gather/scatter through device memory) whenever
        // the permutation moves anything, including purely-local bits.
        let local_change = !perm.is_identity() || flip & ((1 << l) - 1) != 0;
        let t_local = if local_change {
            2.0 * self.shard_len() as f64 * self.cost.mem_pass_ns * 1e-9
        } else {
            0.0
        };
        let comm = if traffic.moved {
            t_intra.max(t_inter) + self.cost.comm_latency_us * 1e-6 + t_local
        } else {
            t_local
        };
        self.push_comm(comm, traffic.bytes_intra, traffic.bytes_inter)
    }

    /// Charges communication without data movement (baseline simulators
    /// that model other exchange schemes).
    pub fn charge_comm(&mut self, secs: f64, bytes_intra: u64, bytes_inter: u64) {
        self.bytes_intra += bytes_intra;
        self.bytes_inter += bytes_inter;
        self.push_comm(secs, bytes_intra, bytes_inter);
    }

    /// Records and pushes one communication step.
    fn push_comm(&mut self, comm: f64, bytes_intra: u64, bytes_inter: u64) -> StageTiming {
        self.recorder.counter(
            "machine.step",
            true,
            self.num_steps(),
            0,
            0,
            &[
                ("kind", STEP_COMM),
                ("comm_ns", secs_to_ns(comm)),
                ("bytes_intra", bytes_intra),
                ("bytes_inter", bytes_inter),
            ],
        );
        let step = StageTiming {
            comm,
            bytes_intra,
            bytes_inter,
            ..Default::default()
        };
        self.steps.push(step);
        step
    }

    /// Finalizes the clock and returns the report. Any pending compute is
    /// folded with a final barrier.
    pub fn report(&mut self) -> MachineReport {
        if self.pending.iter().any(|&p| p > 0.0) {
            self.stage_barrier();
        }
        let mut r = MachineReport {
            per_step: self.steps.clone(),
            bytes_intra: self.bytes_intra,
            bytes_inter: self.bytes_inter,
            kernels: self.kernels,
            ..Default::default()
        };
        for s in &self.steps {
            r.compute_secs += s.compute;
            r.comm_secs += s.comm;
            r.swap_secs += s.swap;
        }
        r.total_secs = r.compute_secs + r.comm_secs + r.swap_secs;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_circuit::Gate;

    #[test]
    fn fusion_cost_memory_bound_then_compute_bound() {
        let c = CostModel::default();
        // Small kernels are memory-bound (flat cost)…
        assert_eq!(c.fusion_unit_ns(1), c.mem_pass_ns);
        assert_eq!(c.fusion_unit_ns(3), c.mem_pass_ns);
        // …large kernels are compute-bound (exponential).
        assert!(c.fusion_unit_ns(7) > 2.0 * c.fusion_unit_ns(5));
    }

    #[test]
    fn best_fusion_size_is_five() {
        // §VII-E: "the most cost-efficient kernel size in the cost
        // function" is 5 qubits.
        assert_eq!(CostModel::default().best_fusion_size(), 5);
    }

    #[test]
    fn shm_kernel_amortizes_memory_traffic() {
        let c = CostModel::default();
        let gates: Vec<Gate> = (0..6).map(|i| Gate::new(GateKind::H, &[i])).collect();
        let amps = 1 << 20;
        let per_amp: f64 = gates.iter().map(|g| c.shm_gate_unit_ns(g)).sum();
        let shm = c.shm_kernel_secs(per_amp, amps);
        let separate: f64 = gates.iter().map(|_| c.fusion_kernel_secs(1, amps)).sum();
        assert!(
            shm < separate,
            "6 gates in one SHM kernel ({shm:.6}s) must beat 6 passes ({separate:.6}s)"
        );
    }

    #[test]
    fn single_gpu_28q_sim_magnitude() {
        // ~70 fusion kernels of 5 qubits at 2^28 amplitudes should land in
        // the paper's single-GPU ballpark (≈0.5–2 s for qft-28).
        let c = CostModel::default();
        let t = 70.0 * c.fusion_kernel_secs(5, 1 << 28);
        assert!(t > 0.2 && t < 3.0, "t = {t}");
    }

    fn small_spec() -> MachineSpec {
        MachineSpec {
            nodes: 2,
            gpus_per_node: 2,
            local_qubits: 3,
        }
    }

    #[test]
    fn identity_permutation_charges_nothing() {
        let mut clock = Clock::new(small_spec(), CostModel::default(), 5);
        clock.charge_permute(&QubitPermutation::identity(5), 0);
        let r = clock.report();
        assert_eq!(r.bytes_inter, 0);
        assert_eq!(r.bytes_intra, 0);
        assert_eq!(r.comm_secs, 0.0);
    }

    #[test]
    fn local_global_swap_charges_inter_node_traffic() {
        // Swap qubit 1 (local) with qubit 4 (global, the node bit).
        let mut map: Vec<u32> = (0..5).collect();
        map.swap(1, 4);
        let mut clock = Clock::new(small_spec(), CostModel::default(), 5);
        let step = clock.charge_permute(&QubitPermutation::from_map(map), 0);
        let r = clock.report();
        assert!(r.bytes_inter > 0);
        assert!(r.comm_secs > 0.0);
        assert_eq!(r.per_step, vec![step]);
    }

    #[test]
    fn kernels_fold_into_the_slowest_device() {
        // n = 32 on 16 GPUs: 16 shards of 2^28 amplitudes, never allocated.
        let spec = MachineSpec::perlmutter(4);
        let mut clock = Clock::new(spec, CostModel::default(), 32);
        for s in 0..clock.num_shards() {
            clock.charge_fusion(s, 5);
        }
        clock.stage_barrier();
        let r = clock.report();
        // One kernel per GPU → one kernel of wall time.
        let expect = CostModel::default().fusion_kernel_secs(5, 1 << 28);
        assert!((r.compute_secs - expect).abs() < 1e-9);
        assert_eq!(r.kernels, 16);
    }

    #[test]
    fn paper_scale_field_swap_charges_the_closed_form() {
        // n = 31, L = 15 on 64 nodes × 4 GPUs: 2^16 shards, 1024 per node
        // (offloaded). Swapping local bits 0..15 with shard bits 0..15
        // sends every shard's 2^15 amplitudes one each to the 2^15 shards
        // that agree with it on shard bit 15 — 2^31 edges, which an edge
        // list cannot hold. Of those destinations, 2^10 share the sender's
        // node (shard bits 10..15 agree) and 2^8 of them its GPU (bits 0–1
        // too).
        let spec = MachineSpec {
            nodes: 64,
            gpus_per_node: 4,
            local_qubits: 15,
        };
        let mut map: Vec<u32> = (0..31).collect();
        for b in 0..15 {
            map.swap(b, b + 15);
        }
        let mut clock = Clock::new(spec, CostModel::default(), 31);
        clock.charge_permute(&QubitPermutation::from_map(map), 0);
        let r = clock.report();
        let edge = 16u64;
        assert_eq!(r.bytes_intra, (1 << 16) * (1024 - 256) * edge);
        assert_eq!(r.bytes_inter, (1 << 16) * ((1 << 15) - 1024) * edge);
        // 256 shards per GPU and 1024 per node send in parallel.
        let c = CostModel::default();
        let busiest = f64::max(
            (256 * (1024 - 256) * edge) as f64 / c.intra_node_bw,
            (1024 * ((1 << 15) - 1024) * edge) as f64 / c.inter_node_bw,
        );
        let repack = 2.0 * (1u64 << 15) as f64 * c.mem_pass_ns * 1e-9;
        assert_eq!(r.comm_secs, busiest + c.comm_latency_us * 1e-6 + repack);
    }

    #[test]
    fn offload_swap_charged_at_barrier() {
        // 1 GPU, L=3, n=5 → 4 shards through one GPU: offloading.
        let mut clock = Clock::new(MachineSpec::single_gpu(3), CostModel::default(), 5);
        clock.overlap_io = false;
        for s in 0..clock.num_shards() {
            clock.charge_fusion(s, 2);
        }
        clock.stage_barrier();
        let r = clock.report();
        assert!(r.swap_secs > 0.0, "offload must charge swap time");
        let expect_swap = 4.0 * 2.0 * CostModel::default().pcie_transfer_secs(8);
        assert!((r.swap_secs - expect_swap).abs() < 1e-12);
    }

    #[test]
    fn diagonal_gates_cheapest_in_shm() {
        let c = CostModel::default();
        let cz = Gate::new(GateKind::CZ, &[0, 1]);
        let cx = Gate::new(GateKind::CX, &[0, 1]);
        assert!(c.shm_gate_unit_ns(&cz) < c.shm_gate_unit_ns(&cx));
    }
}
