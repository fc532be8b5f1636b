//! The SnuQS staging heuristic (the paper's §VII-D baseline).
//!
//! "Greedily selects the qubits with more gates operating on non-local
//! gates to form a stage and uses the number of total gates as a
//! tiebreaker" (Park et al., ICS'22, as characterized by the Atlas paper).
//! One deviation for termination: the earliest dependency-ready gate's
//! non-insular qubits are always included in the local set, guaranteeing
//! progress every stage (the greedy count ranking alone can livelock on
//! adversarial circuits).

use super::prep::{bit, zero_bits, StagingProblem};
use super::search::{choose_global, transition_cost};
use super::RawStaging;

/// Runs the SnuQS-style greedy staging.
pub fn solve_snuqs(p: &StagingProblem) -> RawStaging {
    let nitems = p.items.len();
    let succs = p.successors();
    let mut done = zero_bits(nitems);
    let mut indeg = p.indegrees();
    let mut finished = 0usize;
    let mut partitions: Vec<(u64, u64)> = Vec::new();
    let mut item_stage = vec![0usize; nitems];
    let mut cost = 0i64;
    let mut prev: Option<(u64, u64)> = None;

    // Total gate count per qubit — the tiebreaker.
    let mut total_on_qubit = vec![0u64; p.n as usize];
    for item in &p.items {
        let mut m = item.mask;
        while m != 0 {
            let q = m.trailing_zeros() as usize;
            total_on_qubit[q] += item.orig.len() as u64;
            m &= m - 1;
        }
    }

    while finished < nitems || partitions.is_empty() {
        // Rank qubits: # remaining non-insular gates desc, total gates desc.
        let mut counts = vec![0u64; p.n as usize];
        for (i, item) in p.items.iter().enumerate() {
            if bit(&done, i) {
                continue;
            }
            let mut m = item.mask;
            while m != 0 {
                let q = m.trailing_zeros() as usize;
                counts[q] += item.orig.len() as u64;
                m &= m - 1;
            }
        }
        let mut ranked: Vec<u32> = (0..p.n).collect();
        ranked.sort_by_key(|&q| {
            (
                std::cmp::Reverse(counts[q as usize]),
                std::cmp::Reverse(total_on_qubit[q as usize]),
                q,
            )
        });
        // Progress guarantee: force the earliest ready gate's qubits.
        let forced = (0..nitems)
            .find(|&i| !bit(&done, i) && indeg[i] == 0)
            .map(|i| p.items[i].mask)
            .unwrap_or(0);
        let mut lmask = forced;
        for &q in &ranked {
            if lmask.count_ones() >= p.l {
                break;
            }
            lmask |= 1 << q;
        }
        let fin = p.closure(&mut done, &mut indeg, &succs, lmask);
        let k = partitions.len();
        for &i in &fin {
            item_stage[i] = k;
        }
        finished += fin.len();
        // Global choice: same policy as the Atlas executor (keep old
        // globals, then furthest-need) so the comparison isolates the
        // *local-set* selection strategy.
        let gmask = choose_global(p, &done, lmask, prev.map_or(0, |x| x.1));
        if let Some((ol, og)) = prev {
            cost += transition_cost(ol, og, lmask, gmask, p.c_factor);
        }
        partitions.push((lmask, gmask));
        prev = Some((lmask, gmask));
        if fin.is_empty() && finished < nitems {
            unreachable!("forced inclusion guarantees progress");
        }
        if nitems == 0 {
            break;
        }
    }
    RawStaging {
        partitions,
        item_stage,
        cost,
    }
}
