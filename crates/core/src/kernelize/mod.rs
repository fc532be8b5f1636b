//! Circuit kernelization (§V): partition a stage's gate sequence into
//! fusion / shared-memory kernels minimizing total execution cost
//! (Problem 1, Eq. 12).
//!
//! Three algorithms, as in the paper's evaluation:
//!
//! * [`kernelize`] — the KERNELIZE dynamic program (Algorithms 3–4) under
//!   Constraint 1 (weak convexity + monotonicity), with the Appendix-B
//!   optimizations: single-qubit gate attachment, subsumption fast path,
//!   deferred merging of unrestricted kernels, greedy post-processing
//!   packing, and the pruning threshold `T`;
//! * [`kernelize_ordered`] — ORDERED KERNELIZE (Algorithm 5), the `O(|C|²)`
//!   contiguous-segment DP ("Atlas-Naive" in the appendix figures);
//! * [`kernelize_greedy`] — the §VII-E baseline greedily packing gates
//!   into fusion kernels of up to 5 qubits.

pub mod dp;
pub mod greedy;
pub mod ordered;

use crate::plan::{Kernel, KernelKind};
use atlas_error::AtlasError;
use atlas_machine::CostModel;

/// Kernelizer view of one stage gate: its qubit mask (over whatever qubit
/// space the stage uses — logical ids at planning time) and its
/// shared-memory per-amplitude cost.
#[derive(Clone, Copy, Debug)]
pub struct KGate {
    /// Qubit mask of the (insular-reduced) gate.
    pub mask: u64,
    /// Per-amplitude shared-memory cost (ns) from the cost model.
    pub shm_ns: f64,
}

/// Result of a kernelization.
#[derive(Clone, Debug)]
pub struct Kernelization {
    /// Kernels in a dependency-valid execution order.
    pub kernels: Vec<Kernel>,
    /// Total cost (Eq. 12) in per-amplitude nanoseconds.
    pub cost: f64,
    /// What the search spent to get here (all zero off the DP and
    /// ORDERED KERNELIZE).
    pub search: SearchEffort,
}

/// Search effort of one or more KERNELIZE DP runs, as exact counts.
///
/// Every field is a pure function of the gate sequence, the cost model
/// and the pruning threshold — never of the host or the clock — so two
/// implementations that explore the same search report the same numbers,
/// and "same search, less time" can be shown as a count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchEffort {
    /// DP items processed (multi-qubit hosts with their attachments).
    pub items: u64,
    /// Child states generated, i.e. keys offered to the next population;
    /// under ORDERED KERNELIZE, the segments examined.
    pub children: u64,
    /// States alive after pruning, summed over items.
    pub kept: u64,
    /// Items at whose end the population reached `T` and was halved.
    pub prunes: u64,
}

impl std::ops::AddAssign for SearchEffort {
    fn add_assign(&mut self, rhs: Self) {
        self.items += rhs.items;
        self.children += rhs.children;
        self.kept += rhs.kept;
        self.prunes += rhs.prunes;
    }
}

/// Cost parameters the kernelizer needs, extracted from the machine model.
#[derive(Clone, Debug)]
pub struct KernelCost {
    /// Fusion kernel cost by qubit count (index = qubit count).
    pub fusion_ns: Vec<f64>,
    /// Shared-memory kernel fixed cost α.
    pub shm_alpha_ns: f64,
    /// Max fusion kernel qubits.
    pub max_fusion: u32,
    /// Max shared-memory kernel qubits (conservatively excludes the three
    /// reserved low qubits the executor always adds to the active set).
    pub max_shm: u32,
}

impl KernelCost {
    /// Derives the kernelizer constants from the machine cost model.
    pub fn from_machine(cm: &CostModel) -> Self {
        let max_fusion = cm.max_fusion_qubits;
        let fusion_ns = (0..=max_fusion).map(|k| cm.fusion_unit_ns(k)).collect();
        KernelCost {
            fusion_ns,
            shm_alpha_ns: cm.shm_alpha_ns,
            max_fusion,
            max_shm: cm.max_shm_qubits - cm.shm_required_low_qubits,
        }
    }

    /// Cost of a fusion kernel over `k` qubits.
    #[inline]
    pub fn fusion(&self, k: u32) -> f64 {
        self.fusion_ns[k as usize]
    }

    /// Cost of a shared-memory kernel with accumulated gate cost `sum`.
    #[inline]
    pub fn shm(&self, sum: f64) -> f64 {
        self.shm_alpha_ns + sum
    }

    /// Cost of a kernel of the given kind.
    #[inline]
    pub fn of_kind(&self, kind: KernelKind, qubits: u32, shm_sum: f64) -> f64 {
        match kind {
            KernelKind::Fusion => self.fusion(qubits),
            KernelKind::SharedMemory => self.shm(shm_sum),
        }
    }

    /// Capacity of a kernel kind in qubits.
    #[inline]
    pub fn capacity(&self, kind: KernelKind) -> u32 {
        match kind {
            KernelKind::Fusion => self.max_fusion,
            KernelKind::SharedMemory => self.max_shm,
        }
    }
}

/// A DP item: a multi-qubit host gate plus attached single-qubit gates
/// (Appendix B-d), or a standalone gate.
#[derive(Clone, Debug)]
pub struct DpItem {
    /// Union mask of the host and attachments.
    pub mask: u64,
    /// Stage-gate indices in program order.
    pub gates: Vec<usize>,
    /// Summed shared-memory cost of all member gates.
    pub shm_ns: f64,
}

/// Attaches single-qubit gates to adjacent multi-qubit gates (Appendix
/// B-d), producing the DP item sequence.
///
/// `max_item_qubits` bounds each item's mask (the largest kernel any
/// algorithm can build): an attachment that would push a host past the
/// bound leaves the gate as its own standalone item instead. Without the
/// bound, a stage whose single-qubit gates sit on qubits no host touches
/// (e.g. Grover's data register between V-chain sweeps) inflates one
/// host beyond every kernel capacity and the DP has no legal placement.
pub fn attach_single_qubit_gates(gates: &[KGate], max_item_qubits: u32) -> Vec<DpItem> {
    let mut items: Vec<DpItem> = Vec::new();
    let mut host_positions: Vec<usize> = Vec::new(); // stage index per item
    for (j, g) in gates.iter().enumerate() {
        if g.mask.count_ones() >= 2 {
            host_positions.push(j);
            items.push(DpItem {
                mask: g.mask,
                gates: vec![j],
                shm_ns: g.shm_ns,
            });
        }
    }
    if items.is_empty() {
        // No multi-qubit gates: every gate is its own item.
        return gates
            .iter()
            .enumerate()
            .map(|(j, g)| DpItem {
                mask: g.mask,
                gates: vec![j],
                shm_ns: g.shm_ns,
            })
            .collect();
    }
    let mut appended_fallback = false;
    // For each qubit, the items (hosts) touching it, in sequence order.
    let mut hosts_on_qubit: crate::detmap::DetMap<u32, Vec<usize>> = Default::default();
    for (it, &pos) in host_positions.iter().enumerate() {
        let mut m = gates[pos].mask;
        while m != 0 {
            let q = m.trailing_zeros();
            m &= m - 1;
            hosts_on_qubit.entry(q).or_default().push(it);
        }
    }
    for (j, g) in gates.iter().enumerate() {
        if g.mask.count_ones() >= 2 {
            continue;
        }
        let q = g.mask.trailing_zeros();
        let target = match hosts_on_qubit.get(&q) {
            // Closest host on the same qubit (before or after).
            Some(hs) => *hs
                .iter()
                .min_by_key(|&&it| host_positions[it].abs_diff(j))
                .expect("non-empty host list"),
            // Isolated chain: nearest host overall.
            None => (0..items.len())
                .min_by_key(|&it| host_positions[it].abs_diff(j))
                .expect("items non-empty"),
        };
        if (items[target].mask | g.mask).count_ones() > max_item_qubits {
            // Attachment would overflow every kernel capacity; keep the
            // gate standalone.
            host_positions.push(j);
            items.push(DpItem {
                mask: g.mask,
                gates: vec![j],
                shm_ns: g.shm_ns,
            });
            appended_fallback = true;
            continue;
        }
        items[target].mask |= g.mask;
        items[target].gates.push(j);
        items[target].shm_ns += g.shm_ns;
    }
    if appended_fallback {
        // Standalone fallbacks were appended out of order; restore
        // program order (hosts were already ascending).
        let mut keyed: Vec<(usize, DpItem)> = host_positions.into_iter().zip(items).collect();
        keyed.sort_by_key(|&(pos, _)| pos);
        items = keyed.into_iter().map(|(_, it)| it).collect();
    }
    for item in &mut items {
        item.gates.sort_unstable();
    }
    items
}

/// Orders kernels into a dependency-valid sequence: kernel A precedes B
/// when some gate of A precedes a qubit-sharing gate of B. Constraint 1
/// guarantees acyclicity (Theorem 2); a cycle panics (it would indicate a
/// kernelizer bug, and the functional-equivalence tests would catch it).
pub fn toposort_kernels(gates: &[KGate], mut kernels: Vec<Kernel>) -> Vec<Kernel> {
    let nk = kernels.len();
    let mut kernel_of_gate = vec![usize::MAX; gates.len()];
    for (ki, k) in kernels.iter().enumerate() {
        for &g in &k.gates {
            kernel_of_gate[g] = ki;
        }
    }
    let mut edges: crate::detmap::DetSet<(usize, usize)> = Default::default();
    let mut last_on_qubit: crate::detmap::DetMap<u32, usize> = Default::default();
    for (j, g) in gates.iter().enumerate() {
        let kj = kernel_of_gate[j];
        debug_assert_ne!(kj, usize::MAX, "gate {j} not covered by any kernel");
        let mut m = g.mask;
        while m != 0 {
            let q = m.trailing_zeros();
            m &= m - 1;
            if let Some(&prev) = last_on_qubit.get(&q) {
                let kp = kernel_of_gate[prev];
                if kp != kj {
                    edges.insert((kp, kj));
                }
            }
            last_on_qubit.insert(q, j);
        }
    }
    let mut indeg = vec![0usize; nk];
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); nk];
    for &(a, b) in &edges {
        succ[a].push(b);
        indeg[b] += 1;
    }
    // Kahn's algorithm; ready kernels emitted by first-gate position.
    let first_gate: Vec<usize> = kernels
        .iter()
        .map(|k| k.gates.first().copied().unwrap_or(usize::MAX))
        .collect();
    let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<(usize, usize)>> = (0..nk)
        .filter(|&k| indeg[k] == 0)
        .map(|k| std::cmp::Reverse((first_gate[k], k)))
        .collect();
    let mut order = Vec::with_capacity(nk);
    while let Some(std::cmp::Reverse((_, k))) = ready.pop() {
        order.push(k);
        for &s in &succ[k] {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                ready.push(std::cmp::Reverse((first_gate[s], s)));
            }
        }
    }
    assert_eq!(
        order.len(),
        nk,
        "kernel dependency cycle — Constraint 1 violated"
    );
    let mut taken: Vec<Option<Kernel>> = kernels.drain(..).map(Some).collect();
    order
        .into_iter()
        .map(|k| taken[k].take().expect("kernel emitted twice"))
        .collect()
}

/// Converts a qubit mask to an ascending qubit list.
pub fn mask_to_qubits(mask: u64) -> Vec<u32> {
    let mut v = Vec::with_capacity(mask.count_ones() as usize);
    let mut m = mask;
    while m != 0 {
        v.push(m.trailing_zeros());
        m &= m - 1;
    }
    v
}

/// KERNELIZE (Algorithms 3–4 + Appendix B). `threshold` is the pruning
/// parameter `T` (paper default 500).
///
/// Theorem 6 (KERNELIZE ≤ ORDERED KERNELIZE) holds for the pure DP, but
/// the Appendix B-d single-qubit *attachment* heuristic — which the paper
/// also employs to bound the DP state population — can occasionally glue a
/// gate to a host that excludes the optimal contiguous segmentation
/// (property testing found 6-gate counterexamples; see the regression test
/// in `dp.rs`). KERNELIZE therefore also computes the Algorithm-5
/// certificate and returns whichever is cheaper, restoring the theorem
/// unconditionally at a small preprocessing cost (Algorithm 5's inner loop
/// exits early once a segment overflows every kernel capacity).
pub fn kernelize(gates: &[KGate], cost: &KernelCost, threshold: usize) -> Kernelization {
    let dp = dp::run(gates, cost, threshold);
    let certificate = ordered::run(gates, cost);
    if certificate.cost + 1e-12 < dp.cost {
        Kernelization {
            search: dp.search,
            ..certificate
        }
    } else {
        dp
    }
}

/// ORDERED KERNELIZE (Algorithm 5) — contiguous segments only.
pub fn kernelize_ordered(gates: &[KGate], cost: &KernelCost) -> Kernelization {
    ordered::run(gates, cost)
}

/// Greedy §VII-E baseline: pack gates into fusion kernels of up to
/// `max_qubits` (5 = the most cost-efficient size under the default model).
pub fn kernelize_greedy(gates: &[KGate], cost: &KernelCost, max_qubits: u32) -> Kernelization {
    greedy::run(gates, cost, max_qubits)
}

/// Dispatches to a kernelization algorithm per the config enum.
pub fn kernelize_with(
    algo: crate::config::KernelAlgo,
    threshold: usize,
    gates: &[KGate],
    cost: &KernelCost,
) -> Kernelization {
    use crate::config::KernelAlgo::*;
    match algo {
        Dp => kernelize(gates, cost, threshold),
        Ordered => kernelize_ordered(gates, cost),
        Greedy(m) => kernelize_greedy(gates, cost, m),
        GreedyHybrid(m) => greedy::run_hybrid(gates, cost, m),
    }
}

/// Validates that a kernelization covers every gate exactly once and that
/// every gate fits inside its kernel's qubit set.
pub fn validate_cover(gates: &[KGate], kernels: &[Kernel]) -> Result<(), AtlasError> {
    let mut seen = vec![false; gates.len()];
    for k in kernels {
        let kmask = k.qubits.iter().fold(0u64, |m, &q| m | (1 << q));
        for &g in &k.gates {
            if g >= gates.len() {
                return Err(AtlasError::invalid_plan(format!(
                    "gate index {g} out of range"
                )));
            }
            if seen[g] {
                return Err(AtlasError::invalid_plan(format!("gate {g} in two kernels")));
            }
            seen[g] = true;
            if gates[g].mask & !kmask != 0 {
                return Err(AtlasError::invalid_plan(format!(
                    "gate {g} outside kernel qubit set"
                )));
            }
        }
    }
    if let Some(g) = seen.iter().position(|&s| !s) {
        return Err(AtlasError::invalid_plan(format!("gate {g} not covered")));
    }
    Ok(())
}
