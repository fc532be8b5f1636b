//! The structure-exploiting staging solver.
//!
//! This solver searches the same space as the paper's ILP (Eqs. 3–11) but
//! branches only on the per-stage qubit partition and derives the gate
//! variables `F` by *maximal-closure propagation*, which is without loss of
//! generality: enlarging `F` (finishing more gates in an earlier stage)
//! never violates constraints (6)–(9) and never increases the objective,
//! since `F` does not appear in it. `S`/`T` are likewise determined by the
//! partitions.
//!
//! The stage count is minimized first (Algorithm 2's outer loop emerges
//! from breadth-first deepening: the first depth at which a state finishes
//! all items is the fewest stages *the candidate set can reach*), then
//! the transition cost of Eq. 2 among plans at that depth.
//!
//! Exactness caveat: per state the solver expands a *candidate set* of
//! partitions (need-ordered, SnuQS-ranked, keep-previous variants) and
//! keeps a beam of the best states. The SnuQS trajectory is always among
//! the candidates, so the result is never worse than the SnuQS heuristic
//! (§VII-D) — but it is not always the ILP's optimum. The exact
//! formulation (`ilp_model` over `atlas-ilp`, compiled for tests only)
//! is the oracle the search is checked against, and it proves one stage
//! fewer on four small instances (e.g. `ae` n=8 L=4 G=2: 3 stages at
//! cost 20 against the search's 4 at cost 30). No beam width from 1 to
//! 16 384 closes any of them, so the loss is in the candidate set. The
//! staging tests pin exactly those rows (`KNOWN_GAPS`) and fail on any
//! other.

use super::prep::{bit, zero_bits, StagingProblem};
use super::RawStaging;

#[derive(Clone)]
struct State {
    done: Vec<u64>,
    indeg: Vec<u32>,
    finished: usize,
    lmask: u64,
    gmask: u64,
    cost: i64,
    /// Per stage: (local mask, global mask, items finished in the stage).
    trace: Vec<(u64, u64, Vec<usize>)>,
}

/// Ranks qubits for locality: first-need position ascending (qubits needed
/// by earlier unfinished items come first), with `prefer` (e.g. previously
/// local) breaking ties, then index.
fn rank_by_need(p: &StagingProblem, done: &[u64], prefer: u64) -> Vec<u32> {
    let inf = usize::MAX;
    let mut first_need = vec![inf; p.n as usize];
    for (i, item) in p.items.iter().enumerate() {
        if bit(done, i) {
            continue;
        }
        let mut m = item.mask;
        while m != 0 {
            let q = m.trailing_zeros() as usize;
            if first_need[q] == inf {
                first_need[q] = i;
            }
            m &= m - 1;
        }
    }
    let mut qs: Vec<u32> = (0..p.n).collect();
    qs.sort_by_key(|&q| {
        (
            first_need[q as usize],
            if prefer >> q & 1 == 1 { 0u8 } else { 1u8 },
            q,
        )
    });
    qs
}

/// Ranks qubits SnuQS-style: by the number of unfinished items that need
/// them (descending), tiebroken by total item count then index.
fn rank_by_count(p: &StagingProblem, done: &[u64]) -> Vec<u32> {
    let mut counts = vec![0u32; p.n as usize];
    for (i, item) in p.items.iter().enumerate() {
        if bit(done, i) {
            continue;
        }
        let mut m = item.mask;
        while m != 0 {
            let q = m.trailing_zeros() as usize;
            counts[q] += 1;
            m &= m - 1;
        }
    }
    let mut qs: Vec<u32> = (0..p.n).collect();
    qs.sort_by_key(|&q| (std::cmp::Reverse(counts[q as usize]), q));
    qs
}

/// Earliest unfinished item whose dependencies are all satisfied.
fn earliest_ready(p: &StagingProblem, done: &[u64], indeg: &[u32]) -> Option<usize> {
    (0..p.items.len()).find(|&i| !bit(done, i) && indeg[i] == 0)
}

/// Builds a local mask of exactly `L` qubits: forced qubits first, then the
/// ranked list.
fn build_local(p: &StagingProblem, forced: u64, ranked: &[u32]) -> u64 {
    let l = p.l;
    let mut mask = forced;
    debug_assert!(forced.count_ones() <= l);
    for &q in ranked {
        if mask.count_ones() >= l {
            break;
        }
        mask |= 1 << q;
    }
    mask
}

/// Chooses the global set among non-local qubits: previously global qubits
/// stay global (zero transition cost), remaining slots go to the qubits
/// whose next non-insular use is furthest away.
///
/// Shared with the SnuQS baseline so that Fig. 9's comparison isolates
/// local-set selection.
pub(super) fn choose_global(p: &StagingProblem, done: &[u64], lmask: u64, prev_gmask: u64) -> u64 {
    let g = p.g;
    if g == 0 {
        return 0;
    }
    let inf = usize::MAX;
    let mut first_need = vec![inf; p.n as usize];
    for (i, item) in p.items.iter().enumerate() {
        if bit(done, i) {
            continue;
        }
        let mut m = item.mask;
        while m != 0 {
            let q = m.trailing_zeros() as usize;
            if first_need[q] == inf {
                first_need[q] = i;
            }
            m &= m - 1;
        }
    }
    let mut candidates: Vec<u32> = (0..p.n).filter(|&q| lmask >> q & 1 == 0).collect();
    // Old globals first (free), then furthest-need.
    candidates.sort_by_key(|&q| {
        (
            if prev_gmask >> q & 1 == 1 { 0u8 } else { 1u8 },
            std::cmp::Reverse(first_need[q as usize]),
            q,
        )
    });
    candidates
        .iter()
        .take(g as usize)
        .fold(0u64, |m, &q| m | (1 << q))
}

/// Transition cost of Eq. 2 for one stage boundary.
pub fn transition_cost(old_l: u64, old_g: u64, new_l: u64, new_g: u64, c_factor: i64) -> i64 {
    let became_local = (new_l & !old_l).count_ones() as i64;
    let became_global = (new_g & !old_g).count_ones() as i64;
    became_local + c_factor * became_global
}

/// Runs the staging search. Returns `None` only if `max_stages` is
/// exhausted (which indicates a malformed instance, since `L ≥` any gate's
/// non-insular arity guarantees progress per stage).
pub fn solve_search(
    p: &StagingProblem,
    beam_width: usize,
    max_stages: usize,
) -> Option<RawStaging> {
    let nitems = p.items.len();
    let succs = p.successors();
    if nitems == 0 {
        // No locality constraints at all: one stage, identity-ish layout.
        let ranked: Vec<u32> = (0..p.n).collect();
        let lmask = build_local(p, 0, &ranked);
        let gmask = choose_global(p, &[], lmask, 0);
        return Some(RawStaging {
            partitions: vec![(lmask, gmask)],
            item_stage: Vec::new(),
            cost: 0,
        });
    }

    let init = State {
        done: zero_bits(nitems),
        indeg: p.indegrees(),
        finished: 0,
        lmask: 0,
        gmask: 0,
        cost: 0,
        trace: Vec::new(),
    };
    let mut frontier = vec![init];

    for depth in 0..max_stages {
        let mut children: Vec<State> = Vec::new();
        let mut completed: Vec<State> = Vec::new();
        for state in &frontier {
            // Candidate local sets for the next stage.
            let forced = earliest_ready(p, &state.done, &state.indeg)
                .map(|i| p.items[i].mask)
                .unwrap_or(0);
            let by_need = rank_by_need(p, &state.done, 0);
            let by_need_keep = rank_by_need(p, &state.done, state.lmask);
            let by_count = rank_by_count(p, &state.done);
            let mut cand_masks = vec![
                build_local(p, forced, &by_need),
                build_local(p, forced, &by_need_keep),
                build_local(p, forced, &by_count),
            ];
            if depth > 0 {
                cand_masks.push(state.lmask); // keep layout, zero cost
            }
            cand_masks.sort_unstable();
            cand_masks.dedup();
            for lmask in cand_masks {
                if lmask.count_ones() != p.l {
                    continue;
                }
                let mut done = state.done.clone();
                let mut indeg = state.indeg.clone();
                let fin = p.closure(&mut done, &mut indeg, &succs, lmask);
                if fin.is_empty() {
                    continue; // no progress with this layout
                }
                let gmask = choose_global(p, &done, lmask, state.gmask);
                let cost = state.cost
                    + if depth == 0 {
                        0
                    } else {
                        transition_cost(state.lmask, state.gmask, lmask, gmask, p.c_factor)
                    };
                let mut trace = state.trace.clone();
                let finished = state.finished + fin.len();
                trace.push((lmask, gmask, fin));
                let child = State {
                    done,
                    indeg,
                    finished,
                    lmask,
                    gmask,
                    cost,
                    trace,
                };
                if finished == nitems {
                    completed.push(child);
                } else {
                    children.push(child);
                }
            }
        }
        if !completed.is_empty() {
            // Minimum stage count reached at this depth; take cheapest.
            let best = completed
                .into_iter()
                .min_by_key(|s| s.cost)
                .expect("non-empty");
            let mut item_stage = vec![0usize; nitems];
            let mut partitions = Vec::new();
            for (k, (lm, gm, fin)) in best.trace.iter().enumerate() {
                partitions.push((*lm, *gm));
                for &i in fin {
                    item_stage[i] = k;
                }
            }
            return Some(RawStaging {
                partitions,
                item_stage,
                cost: best.cost,
            });
        }
        // Beam selection: half by progress, half by cost.
        children.sort_by_key(|s| (std::cmp::Reverse(s.finished), s.cost));
        let mut kept: Vec<State> = Vec::with_capacity(beam_width);
        let mut taken = vec![false; children.len()];
        for (i, s) in children.iter().enumerate().take(beam_width.div_ceil(2)) {
            kept.push(s.clone());
            taken[i] = true;
        }
        let mut by_cost: Vec<usize> = (0..children.len()).filter(|&i| !taken[i]).collect();
        by_cost.sort_by_key(|&i| (children[i].cost, std::cmp::Reverse(children[i].finished)));
        for &i in by_cost.iter().take(beam_width - kept.len().min(beam_width)) {
            kept.push(children[i].clone());
        }
        if kept.is_empty() {
            return None;
        }
        frontier = kept;
    }
    None
}
