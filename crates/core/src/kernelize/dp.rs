//! The KERNELIZE dynamic program (Algorithms 3–4) with the DP-state
//! representation of §VI-A and the Appendix-B optimizations.
//!
//! DP states hold the set of *open* kernels, each summarized by its kind
//! (fusion / shared-memory, §VI-B), qubit set, extensible qubit set
//! (Definition 3, maintained per Algorithm 4), and accumulated
//! shared-memory gate cost. Closed kernels live in a shared persistent
//! arena, so a state is its open kernels plus one index.
//!
//! Per item, placements follow Algorithm 3 refined by Appendix B:
//! * **subsumption fast path** (B-b): when the gate subsumes or is
//!   subsumed by an open kernel, it is added there and no other placement
//!   is considered;
//! * otherwise the gate may join any open kernel whose extensible set
//!   covers it (line 11), or start a fresh kernel of either kind (line 13
//!   + §VI-B's kind branching);
//! * when the current gate *restricts* a previously unrestricted kernel
//!   (Algorithm 4 line 9), that kernel may first be merged with any other
//!   unrestricted kernel (B-c's deferred merging);
//! * kernels whose extensible set empties are closed immediately and pay
//!   their cost (the "remove from κ" of §VI-A);
//! * when the state population reaches the threshold `T`, states are
//!   ranked by post-processed cost and halved (B-f);
//! * at the end, remaining open kernels are greedily packed — fusion
//!   kernels toward the most cost-efficient size, shared-memory kernels
//!   toward capacity (B-e) — and the cheapest state wins.
//!
//! # The order contract
//!
//! Equal-cost ties — which state wins a key, which states survive the
//! `T/2` cut, which minimum is returned — are decided by the iteration
//! order of the per-item map `next`, and that order is a function of the
//! key bytes, the hasher, the capacity history and the insert sequence,
//! nothing else. So these **may not change** without re-recording
//! `tests/plan_digest.rs`: the key type `Vec<u64>` and its contents, the
//! fixed-key SipHash of `DetMap`, `with_capacity_and_hasher(parents *
//! 2, …)` with no further `reserve`, and the insert sequence (parents in
//! iteration order × placements × kinds × merge alternatives; insert when
//! the key is absent, overwrite the value only when strictly cheaper).
//! Everything else **may**: the map's value type, where states are
//! stored, how children are built. (Measured: a multiply-rotate hasher
//! instead of SipHash gained nothing and changed 43 of 61 plans of the
//! benchmark corpus — hashing is not the cost, and the order is
//! load-bearing. An explicit tie-break would retire this contract; that
//! is a plan-changing change of its own.)
//!
//! # Where the time goes
//!
//! The loop allocates nothing in steady state (`docs/PERFORMANCE.md`,
//! "The planner's hot loop"): populations are flat arenas, children are
//! built in reusable buffers and copied into the arena only when their
//! key is new or they are strictly cheaper, key vectors are recycled
//! from item to item, and pruning ranks positions instead of cloned keys.

use super::{
    attach_single_qubit_gates, mask_to_qubits, toposort_kernels, DpItem, KGate, KernelCost,
    Kernelization, SearchEffort,
};
use crate::plan::{Kernel, KernelKind};

// Deterministically-seeded hash map for the DP state population.
//
// The std `RandomState` hasher randomizes iteration order per map
// instance, and this DP breaks cost *ties* by iteration order (see "The
// order contract" above) — with random seeds, two identical `kernelize`
// calls could return different equally-optimal kernelizations, making
// end-to-end amplitudes differ at the ulp level between runs. A
// fixed-key hasher makes tie-breaking reproducible, which the executor's
// bit-identical-across-thread-counts guarantee relies on.
use crate::detmap::DetMap;

/// Sentinel for "extensible set = all qubits".
const ALL: u64 = u64::MAX;

const NONE: u32 = u32::MAX;

#[derive(Clone, Copy)]
enum Link {
    /// One item appended to a chain.
    Gate { item: u32, prev: u32 },
    /// Two chains merged.
    Join { a: u32, b: u32 },
}

#[derive(Clone, Copy)]
struct OpenKernel {
    kind: KernelKind,
    qubits: u64,
    extq: u64,
    shm: f64,
    chain: u32,
}

#[derive(Clone, Copy)]
struct ClosedKernel {
    kind: KernelKind,
    qubits: u64,
    chain: u32,
    prev: u32,
}

/// What a state holds beside its open kernels.
#[derive(Clone, Copy)]
struct Tail {
    /// Head of the state's closed-kernel list in `Dp::closed`.
    closed_head: u32,
    /// Cost of the closed kernels.
    cost: f64,
}

/// A state population in two flat vectors: state `s` owns
/// `open[spans[s].0..][..spans[s].1]`. Clearing keeps both buffers, so a
/// warm population takes states in without allocating.
#[derive(Default)]
struct Population {
    spans: Vec<(u32, u32, Tail)>,
    open: Vec<OpenKernel>,
}

impl Population {
    fn len(&self) -> usize {
        self.spans.len()
    }

    fn clear(&mut self) {
        self.spans.clear();
        self.open.clear();
    }

    fn get(&self, slot: usize) -> (&[OpenKernel], Tail) {
        let (start, len, tail) = self.spans[slot];
        (&self.open[start as usize..][..len as usize], tail)
    }

    fn push(&mut self, open: &[OpenKernel], tail: Tail) -> u32 {
        self.spans
            .push((self.open.len() as u32, open.len() as u32, tail));
        self.open.extend_from_slice(open);
        (self.spans.len() - 1) as u32
    }

    /// Replaces state `slot` by one with equally many open kernels.
    fn overwrite(&mut self, slot: usize, open: &[OpenKernel], tail: Tail) {
        let (start, len, old) = &mut self.spans[slot];
        debug_assert_eq!(*len as usize, open.len(), "same key, same kernel count");
        *old = tail;
        self.open[*start as usize..][..open.len()].copy_from_slice(open);
    }
}

/// One packed kernel of the post-processing step.
struct Bin {
    kind: KernelKind,
    qubits: u64,
    extq: u64,
    shm: f64,
}

/// One level of the merge walk: the open kernels after the merges chosen
/// so far, and where each kernel of the base child sits among them.
#[derive(Default)]
struct Frame {
    open: Vec<OpenKernel>,
    remap: Vec<u32>,
}

/// Where the current item goes in the parent state.
#[derive(Clone, Copy)]
enum Placement {
    Into(usize),
    New(KernelKind),
}

/// The search: inputs, the persistent link/closed arenas, the population
/// under construction, and every buffer the hot loop reuses.
struct Dp<'a> {
    items: &'a [DpItem],
    cost: &'a KernelCost,
    /// Most cost-efficient fusion packing size (cost/qubit minimizer).
    fusion_pack_size: u32,
    links: Vec<Link>,
    closed: Vec<ClosedKernel>,
    /// Canonical key → slot in `children`. Built afresh per item: its
    /// iteration order is the tie-break (module docs).
    next: DetMap<Vec<u64>, u32>,
    children: Population,
    effort: SearchEffort,
    // --- the child being expanded ---
    /// Qubit mask of the current item.
    m: u64,
    /// Closed list and cost the parent hands down.
    parent: Tail,
    /// Base-child position of the kernel that received the item.
    receiver: usize,
    /// Base-child positions of the kernels the item restricts for the
    /// first time (Algorithm 4's merge events), ascending.
    events: Vec<u32>,
    /// Merge-walk stack; `frames[0]` is the base child.
    frames: Vec<Frame>,
    // --- reused buffers ---
    child: Vec<OpenKernel>,
    key: Vec<u64>,
    /// Key vectors of past items, handed out again on insert.
    spare_keys: Vec<Vec<u64>>,
    bins: Vec<Bin>,
    /// Slots of `next` in iteration order; after pruning, the survivors'.
    order: Vec<u32>,
    /// (post-processed cost, position in `order`) per state, for pruning.
    scored: Vec<(f64, u32)>,
}

#[inline]
fn ext_contains(extq: u64, m: u64) -> bool {
    extq == ALL || m & !extq == 0
}

#[inline]
fn ext_and(a: u64, b: u64) -> u64 {
    match (a == ALL, b == ALL) {
        (true, true) => ALL,
        (true, false) => b,
        (false, true) => a,
        (false, false) => a & b,
    }
}

fn push_link(links: &mut Vec<Link>, link: Link) -> u32 {
    links.push(link);
    (links.len() - 1) as u32
}

/// Greedy post-processing packing (Appendix B-e): first-fit merge of
/// compatible open kernels into `bins`; `placed(kernel, bin)` is told
/// where each kernel went. Allocates only while `bins` is growing.
fn pack_open(
    cost: &KernelCost,
    fusion_pack_size: u32,
    open: &[OpenKernel],
    bins: &mut Vec<Bin>,
    mut placed: impl FnMut(usize, usize),
) {
    bins.clear();
    for (j, k) in open.iter().enumerate() {
        let cap = match k.kind {
            KernelKind::Fusion => fusion_pack_size,
            KernelKind::SharedMemory => cost.max_shm,
        };
        // Mutual extensibility: each side's qubits inside the other's
        // extensible set.
        let fit = bins.iter().position(|bin| {
            bin.kind == k.kind
                && (bin.qubits | k.qubits).count_ones() <= cap
                && ext_contains(bin.extq, k.qubits)
                && ext_contains(k.extq, bin.qubits)
        });
        match fit {
            Some(b) => {
                let bin = &mut bins[b];
                bin.qubits |= k.qubits;
                bin.extq = ext_and(bin.extq, k.extq);
                bin.shm += k.shm;
                placed(j, b);
            }
            None => {
                bins.push(Bin {
                    kind: k.kind,
                    qubits: k.qubits,
                    extq: k.extq,
                    shm: k.shm,
                });
                placed(j, bins.len() - 1);
            }
        }
    }
}

/// Post-processed cost of a state (used for pruning and final selection).
fn finalized_cost(
    cost: &KernelCost,
    fusion_pack_size: u32,
    open: &[OpenKernel],
    tail: Tail,
    bins: &mut Vec<Bin>,
) -> f64 {
    pack_open(cost, fusion_pack_size, open, bins, |_, _| {});
    tail.cost
        + bins
            .iter()
            .map(|b| cost.of_kind(b.kind, b.qubits.count_ones(), b.shm))
            .sum::<f64>()
}

impl<'a> Dp<'a> {
    fn new(items: &'a [DpItem], cost: &'a KernelCost) -> Self {
        let fusion_pack_size = (1..=cost.max_fusion)
            .min_by(|&a, &b| {
                (cost.fusion(a) / a as f64)
                    .partial_cmp(&(cost.fusion(b) / b as f64))
                    .unwrap()
            })
            .unwrap();
        Dp {
            items,
            cost,
            fusion_pack_size,
            links: Vec::new(),
            closed: Vec::new(),
            next: DetMap::default(),
            children: Population::default(),
            effort: SearchEffort {
                items: items.len() as u64,
                ..SearchEffort::default()
            },
            m: 0,
            parent: Tail {
                closed_head: NONE,
                cost: 0.0,
            },
            receiver: 0,
            events: Vec::new(),
            frames: vec![Frame::default()],
            child: Vec::new(),
            key: Vec::new(),
            spare_keys: Vec::new(),
            bins: Vec::new(),
            order: Vec::new(),
            scored: Vec::new(),
        }
    }

    /// Offers every child of one parent state under item `i` to `next`.
    fn expand(&mut self, i: u32, open: &[OpenKernel], tail: Tail) {
        let (m, cost) = (self.items[i as usize].mask, self.cost);
        self.m = m;
        self.parent = tail;
        let joinable = |k: &OpenKernel| {
            ext_contains(k.extq, m) && (k.qubits | m).count_ones() <= cost.capacity(k.kind)
        };
        let subsume = open
            .iter()
            .position(|k| (m & !k.qubits == 0 || k.qubits & !m == 0) && joinable(k));
        if let Some(idx) = subsume {
            return self.place(i, open, Placement::Into(idx));
        }
        for (idx, k) in open.iter().enumerate() {
            if joinable(k) {
                self.place(i, open, Placement::Into(idx));
            }
        }
        for kind in [KernelKind::Fusion, KernelKind::SharedMemory] {
            if m.count_ones() <= cost.capacity(kind) {
                self.place(i, open, Placement::New(kind));
            }
        }
    }

    /// Builds the base child (receiver updated, the others pending) and
    /// offers it under every combination of deferred merges.
    fn place(&mut self, i: u32, open: &[OpenKernel], placement: Placement) {
        let (m, shm_ns) = (self.m, self.items[i as usize].shm_ns);
        let base = &mut self.frames[0];
        base.open.clear();
        base.open.extend_from_slice(open);
        self.receiver = match placement {
            Placement::Into(idx) => {
                let k = &mut base.open[idx];
                k.qubits |= m;
                k.shm += shm_ns;
                k.chain = push_link(
                    &mut self.links,
                    Link::Gate {
                        item: i,
                        prev: k.chain,
                    },
                );
                idx
            }
            Placement::New(kind) => {
                let chain = push_link(
                    &mut self.links,
                    Link::Gate {
                        item: i,
                        prev: NONE,
                    },
                );
                base.open.push(OpenKernel {
                    kind,
                    qubits: m,
                    extq: ALL,
                    shm: shm_ns,
                    chain,
                });
                base.open.len() - 1
            }
        };
        // Restriction events (Algorithm 4): unrestricted kernels hit by
        // m; restricted kernels just shrink.
        self.events.clear();
        for (idx, k) in base.open.iter().enumerate() {
            if idx != self.receiver && k.extq == ALL && k.qubits & m != 0 {
                self.events.push(idx as u32);
            }
        }
        if self.events.is_empty() {
            return self.finish(0, self.receiver);
        }
        base.remap.clear();
        base.remap.extend(0..base.open.len() as u32);
        self.walk(0, 0);
    }

    /// Merge branching per event: leave the kernel to be restricted, or
    /// merge it into any still-unrestricted kernel of the same kind.
    /// Depth-first over `frames`, which yields the alternatives in
    /// lexicographic order of (choice at event 1, choice at event 2, …),
    /// leave first, then targets ascending — the insert sequence of the
    /// order contract. `frames[at]` holds the merges chosen so far.
    fn walk(&mut self, depth: usize, at: usize) {
        let Some(&ev) = self.events.get(depth) else {
            // The receiver (the kernel holding C[i]) is exempt from
            // restriction this round; merges tracked it through `remap`.
            let receiver = self.frames[at].remap[self.receiver] as usize;
            return self.finish(at, receiver);
        };
        self.walk(depth + 1, at);
        if self.frames.len() == at + 1 {
            self.frames.push(Frame::default());
        }
        let ev_idx = self.frames[at].remap[ev as usize] as usize;
        let a = self.frames[at].open[ev_idx];
        for tgt in 0..self.frames[at].open.len() {
            let b = self.frames[at].open[tgt];
            let union = a.qubits | b.qubits;
            if tgt == ev_idx
                || b.extq != ALL
                || b.kind != a.kind
                || union.count_ones() > self.cost.capacity(a.kind)
            {
                continue;
            }
            let merged = OpenKernel {
                kind: a.kind,
                qubits: union,
                extq: ALL,
                shm: a.shm + b.shm,
                chain: push_link(
                    &mut self.links,
                    Link::Join {
                        a: a.chain,
                        b: b.chain,
                    },
                ),
            };
            let (upper, lower) = self.frames.split_at_mut(at + 1);
            let (from, to) = (&upper[at], &mut lower[0]);
            to.open.clear();
            to.open.extend_from_slice(&from.open);
            to.open[tgt] = merged;
            to.open.remove(ev_idx);
            let (ev_idx, tgt) = (ev_idx as u32, tgt as u32);
            to.remap.clear();
            to.remap.extend(from.remap.iter().map(|&r| {
                let r = if r == ev_idx { tgt } else { r };
                r - u32::from(r > ev_idx)
            }));
            self.walk(depth + 1, at + 1);
        }
    }

    /// Applies restrictions and closures to `frames[at]`, canonicalizes
    /// the result and offers it to `next`.
    fn finish(&mut self, at: usize, receiver: usize) {
        let m = self.m;
        let mut tail = self.parent;
        let mark = self.closed.len();
        self.child.clear();
        for (idx, &k) in self.frames[at].open.iter().enumerate() {
            if idx == receiver {
                self.child.push(k);
                continue;
            }
            let extq = if k.extq != ALL {
                k.extq & !m
            } else if k.qubits & m != 0 {
                k.qubits & !m
            } else {
                ALL
            };
            if extq == 0 {
                // Nothing can extend it any more: close it and pay.
                tail.cost += self.cost.of_kind(k.kind, k.qubits.count_ones(), k.shm);
                self.closed.push(ClosedKernel {
                    kind: k.kind,
                    qubits: k.qubits,
                    chain: k.chain,
                    prev: tail.closed_head,
                });
                tail.closed_head = (self.closed.len() - 1) as u32;
            } else {
                self.child.push(OpenKernel { extq, ..k });
            }
        }
        if !self.offer(tail) {
            // Nobody holds the kernels this child closed.
            self.closed.truncate(mark);
        }
    }

    /// Inserts `child` under its canonical key (the sorted multiset of
    /// its open kernels) unless an equal-or-cheaper state holds the key;
    /// `false` if it was dropped.
    fn offer(&mut self, tail: Tail) -> bool {
        self.effort.children += 1;
        self.key.clear();
        self.key.extend(self.child.iter().flat_map(|k| {
            let kind = match k.kind {
                KernelKind::Fusion => 0u64,
                KernelKind::SharedMemory => 1u64,
            };
            [kind, k.qubits, k.extq, k.shm.to_bits()]
        }));
        self.key.as_chunks_mut::<4>().0.sort_unstable();
        match self.next.get(self.key.as_slice()) {
            Some(&slot) => {
                let slot = slot as usize;
                let cheaper = tail.cost < self.children.get(slot).1.cost;
                if cheaper {
                    self.children.overwrite(slot, &self.child, tail);
                }
                cheaper
            }
            None => {
                let mut key = self.spare_keys.pop().unwrap_or_default();
                key.clear();
                key.extend_from_slice(&self.key);
                let slot = self.children.push(&self.child, tail);
                self.next.insert(key, slot);
                true
            }
        }
    }

    /// Ends an item: prunes `next` if it reached `threshold` (Appendix
    /// B-f), moves the survivors into `parents` in `next`'s iteration
    /// order and recycles the map's keys.
    fn settle(&mut self, parents: &mut Population, threshold: usize) {
        self.order.clear();
        self.order.extend(self.next.values());
        if self.order.len() >= threshold {
            self.effort.prunes += 1;
            self.scored.clear();
            for (pos, &slot) in self.order.iter().enumerate() {
                let (open, tail) = self.children.get(slot as usize);
                let cost =
                    finalized_cost(self.cost, self.fusion_pack_size, open, tail, &mut self.bins);
                self.scored.push((cost, pos as u32));
            }
            // A stable sort by cost orders by (cost, position); only the
            // set of the `keep` smallest matters, back in position order.
            let keep = (threshold / 2).max(1).min(self.scored.len());
            if keep < self.scored.len() {
                self.scored.select_nth_unstable_by(keep - 1, |a, b| {
                    a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1))
                });
            }
            let kept = &mut self.scored[..keep];
            kept.sort_unstable_by_key(|&(_, pos)| pos);
            for (i, &(_, pos)) in kept.iter().enumerate() {
                self.order[i] = self.order[pos as usize]; // pos >= i
            }
            self.order.truncate(keep);
        }
        parents.clear();
        for &slot in &self.order {
            let (open, tail) = self.children.get(slot as usize);
            parents.push(open, tail);
        }
        self.effort.kept += parents.len() as u64;
        self.spare_keys
            .extend(self.next.drain().map(|(key, _)| key));
        self.children.clear();
    }

    fn chain_items(&self, mut head: u32, out: &mut Vec<u32>) {
        let mut stack = vec![];
        loop {
            if head == NONE {
                match stack.pop() {
                    Some(h) => {
                        head = h;
                        continue;
                    }
                    None => break,
                }
            }
            match self.links[head as usize] {
                Link::Gate { item, prev } => {
                    out.push(item);
                    head = prev;
                }
                Link::Join { a, b } => {
                    stack.push(a);
                    head = b;
                }
            }
        }
    }

    /// The kernel over `qubits` made of the items on `chains`.
    fn kernel(&self, kind: KernelKind, qubits: u64, chains: &[u32]) -> Kernel {
        let mut item_ids: Vec<u32> = Vec::new();
        for &c in chains {
            self.chain_items(c, &mut item_ids);
        }
        let mut gates: Vec<usize> = item_ids
            .iter()
            .flat_map(|&it| self.items[it as usize].gates.iter().copied())
            .collect();
        gates.sort_unstable();
        Kernel {
            gates,
            kind,
            qubits: mask_to_qubits(qubits),
        }
    }
}

/// Runs the DP. See module docs.
pub fn run(gates: &[KGate], cost: &KernelCost, threshold: usize) -> Kernelization {
    if gates.is_empty() {
        return Kernelization {
            kernels: Vec::new(),
            cost: 0.0,
            search: SearchEffort::default(),
        };
    }
    let items = attach_single_qubit_gates(gates, cost.max_fusion.max(cost.max_shm));
    let mut dp = Dp::new(&items, cost);

    let mut parents = Population::default();
    parents.push(
        &[],
        Tail {
            closed_head: NONE,
            cost: 0.0,
        },
    );
    for i in 0..items.len() {
        dp.next = DetMap::with_capacity_and_hasher(parents.len() * 2, Default::default());
        for slot in 0..parents.len() {
            let (open, tail) = parents.get(slot);
            dp.expand(i as u32, open, tail);
        }
        dp.settle(&mut parents, threshold);
    }

    // Final selection: the first minimum in iteration order.
    let mut best: Option<(f64, usize)> = None;
    for slot in 0..parents.len() {
        let (open, tail) = parents.get(slot);
        let total = finalized_cost(cost, dp.fusion_pack_size, open, tail, &mut dp.bins);
        if best.is_none_or(|(least, _)| total < least) {
            best = Some((total, slot));
        }
    }
    let (total, slot) = best.expect("at least one DP state must survive");
    let (open, tail) = parents.get(slot);

    // Reconstruction: closed kernels, then the packed open ones.
    let mut kernels: Vec<Kernel> = Vec::new();
    let mut head = tail.closed_head;
    while head != NONE {
        let ck = dp.closed[head as usize];
        kernels.push(dp.kernel(ck.kind, ck.qubits, &[ck.chain]));
        head = ck.prev;
    }
    let mut chains: Vec<Vec<u32>> = Vec::new();
    let mut bins = Vec::new();
    pack_open(cost, dp.fusion_pack_size, open, &mut bins, |k, bin| {
        if bin == chains.len() {
            chains.push(Vec::new());
        }
        chains[bin].push(open[k].chain);
    });
    for (bin, chains) in bins.iter().zip(&chains) {
        kernels.push(dp.kernel(bin.kind, bin.qubits, chains));
    }
    Kernelization {
        kernels: toposort_kernels(gates, kernels),
        cost: total,
        search: dp.effort,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernelize::{kernelize_greedy, kernelize_ordered, validate_cover};
    use atlas_machine::CostModel;

    fn kc() -> KernelCost {
        KernelCost::from_machine(&CostModel::default())
    }

    fn circuit_kgates(fam: atlas_circuit::generators::Family, n: u32) -> Vec<KGate> {
        let cm = CostModel::default();
        fam.generate(n)
            .gates()
            .iter()
            .map(|g| KGate {
                mask: g.qubit_mask(),
                shm_ns: cm.shm_gate_unit_ns(g),
            })
            .collect()
    }

    /// Regression: a Grover-style stage whose single-qubit gates sit on
    /// qubits no multi-qubit host touches. Unbounded attachment inflated
    /// one host item past every kernel capacity and the DP panicked with
    /// "at least one DP state must survive" (seen via
    /// `atlas-sim --family grover -n 20 --dry -L 16`).
    #[test]
    fn isolated_single_qubit_chains_do_not_overflow_attachment() {
        let masks: [u64; 22] = [
            0x1, 0x2, 0x4, 0x8, 0x10, 0x20, 0x40, 0x80, 0x100, 0x200, 0x400, 0x1, 0x2, 0x4, 0x8,
            0x100, 0x400, 0x803, 0x1804, 0x3008, 0x6010, 0xc020,
        ];
        let gates: Vec<KGate> = masks
            .iter()
            .map(|&mask| KGate { mask, shm_ns: 1.0 })
            .collect();
        let out = run(&gates, &kc(), 500);
        validate_cover(&gates, &out.kernels).unwrap();
        let cap = kc().max_fusion.max(kc().max_shm);
        for k in &out.kernels {
            assert!(
                k.qubits.len() as u32 <= cap,
                "kernel exceeds capacity: {:?}",
                k.qubits
            );
        }
    }

    #[test]
    fn dp_covers_and_orders_all_families() {
        for fam in atlas_circuit::generators::Family::table1() {
            let gates = circuit_kgates(fam, 8);
            let out = run(&gates, &kc(), 500);
            validate_cover(&gates, &out.kernels).unwrap_or_else(|e| panic!("{fam:?}: {e}"));
            assert!(out.cost > 0.0);
        }
    }

    #[test]
    fn theorem6_dp_never_worse_than_ordered() {
        // Theorem 6: KERNELIZE ≤ ORDERED KERNELIZE on every circuit.
        for fam in atlas_circuit::generators::Family::table1() {
            for n in [6u32, 9, 12] {
                let gates = circuit_kgates(fam, n);
                let dp = run(&gates, &kc(), 500);
                let ordered = kernelize_ordered(&gates, &kc());
                assert!(
                    dp.cost <= ordered.cost + 1e-9,
                    "{fam:?} n={n}: DP {} > ordered {}",
                    dp.cost,
                    ordered.cost
                );
            }
        }
    }

    #[test]
    fn dp_beats_greedy_on_structured_circuits() {
        // Fig. 10's qualitative claim: the DP finds strictly cheaper
        // kernelizations than greedy 5-qubit packing on structured
        // circuits like qft/ae/su2random.
        use atlas_circuit::generators::Family;
        for fam in [Family::Qft, Family::Ae, Family::Su2Random] {
            let gates = circuit_kgates(fam, 12);
            let dp = run(&gates, &kc(), 500);
            let greedy = kernelize_greedy(&gates, &kc(), 5);
            assert!(
                dp.cost <= greedy.cost + 1e-12,
                "{fam:?}: DP {} vs greedy {}",
                dp.cost,
                greedy.cost
            );
        }
    }

    #[test]
    fn pruning_degrades_gracefully() {
        // Smaller T can only worsen (or keep) the cost, never break
        // validity.
        let gates = circuit_kgates(atlas_circuit::generators::Family::Qft, 10);
        let full = run(&gates, &kc(), 2000);
        let tiny = run(&gates, &kc(), 4);
        validate_cover(&gates, &tiny.kernels).unwrap();
        assert!(tiny.cost + 1e-12 >= full.cost);
    }

    #[test]
    fn empty_input() {
        let out = run(&[], &kc(), 500);
        assert!(out.kernels.is_empty());
        assert_eq!(out.cost, 0.0);
        assert_eq!(out.search, SearchEffort::default());
    }

    #[test]
    fn two_runs_agree_on_kernels_and_on_search_effort() {
        // Both cases prune: that tie-break is the part of the order
        // contract most easily broken.
        use atlas_circuit::generators::Family;
        for (fam, threshold) in [(Family::Su2Random, 500), (Family::Qft, 40)] {
            let gates = circuit_kgates(fam, 12);
            let (a, b) = (run(&gates, &kc(), threshold), run(&gates, &kc(), threshold));
            assert_eq!(a.kernels, b.kernels, "{fam:?}");
            assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "{fam:?}");
            assert_eq!(a.search, b.search, "{fam:?}");
            let s = a.search;
            assert!(s.children >= s.items && s.kept >= s.items, "{fam:?}: {s:?}");
            assert!(s.items > 0 && s.prunes > 0, "{fam:?}: {s:?}");
        }
    }

    #[test]
    fn single_gate() {
        let gates = vec![KGate {
            mask: 0b11,
            shm_ns: 0.006,
        }];
        let out = run(&gates, &kc(), 500);
        assert_eq!(out.kernels.len(), 1);
        assert_eq!(out.kernels[0].gates, vec![0]);
    }
}

#[cfg(test)]
mod regression_tests {
    use super::*;
    use crate::kernelize::kernelize;
    use atlas_machine::CostModel;

    /// Proptest-discovered counterexample: the B-d attachment heuristic
    /// glues the lone Y(5) to the RZZ host, forcing qubit 5 into the first
    /// kernel and excluding the optimal contiguous split
    /// [cx,cx,rzz | y,swap,swap] = 2 × fusion(4). The pure DP lands at
    /// fusion(5) + fusion(3); `kernelize`'s Algorithm-5 certificate must
    /// recover the optimum.
    #[test]
    fn attachment_counterexample_is_caught_by_certificate() {
        let shm = 0.006;
        let gates = vec![
            KGate {
                mask: (1 << 4) | (1 << 6),
                shm_ns: shm,
            }, // cx(4,6)
            KGate {
                mask: (1 << 3) | (1 << 6),
                shm_ns: shm,
            }, // cx(3,6)
            KGate {
                mask: (1 << 6) | 1,
                shm_ns: 0.002,
            }, // rzz(6,0)
            KGate {
                mask: 1 << 5,
                shm_ns: 0.004,
            }, // y(5)
            KGate {
                mask: 1 | (1 << 3),
                shm_ns: shm,
            }, // swap(0,3)
            KGate {
                mask: (1 << 3) | (1 << 2),
                shm_ns: shm,
            }, // swap(3,2)
        ];
        let kc = KernelCost::from_machine(&CostModel::default());
        let out = kernelize(&gates, &kc, 500);
        let ordered = crate::kernelize::kernelize_ordered(&gates, &kc);
        assert!(
            out.cost <= ordered.cost + 1e-12,
            "Theorem 6: kernelize {} > ordered {}",
            out.cost,
            ordered.cost
        );
        // The optimum here is two 4-qubit fusion kernels.
        assert!((out.cost - 2.0 * kc.fusion(4)).abs() < 1e-12);
    }
}
