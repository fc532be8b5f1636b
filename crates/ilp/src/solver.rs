//! Branch-and-bound search with pseudo-Boolean propagation.

use crate::model::{CmpOp, Model, VarId};
use std::collections::VecDeque;

/// Search budget and reporting knobs.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// Maximum number of branch nodes explored before giving up. The
    /// sole budget: node counts are a pure function of the model, so
    /// two runs on any two machines stop at the same node and return
    /// the same incumbent.
    pub node_limit: u64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            node_limit: 20_000_000,
        }
    }
}

/// Outcome classification of a solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveStatus {
    /// The returned assignment is provably optimal.
    Optimal,
    /// A feasible assignment was found but the budget expired before the
    /// search space was exhausted.
    Feasible,
    /// The model is provably infeasible.
    Infeasible,
    /// Budget expired with no feasible assignment found (and no
    /// infeasibility proof).
    Unknown,
}

/// Result of [`solve`].
#[derive(Clone, Debug)]
pub struct Solution {
    /// Status of the search.
    pub status: SolveStatus,
    /// Best assignment found, if any (indexed by `VarId`).
    pub assignment: Option<Vec<bool>>,
    /// Objective of `assignment`.
    pub objective: Option<i64>,
    /// Number of branch nodes explored.
    pub nodes: u64,
}

impl Solution {
    /// Value of variable `v` in the best assignment. Panics without one.
    pub fn value(&self, v: VarId) -> bool {
        self.assignment.as_ref().expect("no assignment")[v.0 as usize]
    }
}

/// One normalized constraint `Σ aᵢxᵢ ≤ rhs`.
struct NormCon {
    terms: Vec<(u32, i64)>,
    rhs: i64,
}

struct Search<'m> {
    model: &'m Model,
    cons: Vec<NormCon>,
    /// var → (constraint index, coefficient) occurrences.
    occurs: Vec<Vec<(u32, i64)>>,
    /// Per-constraint minimum possible LHS under the current partial
    /// assignment.
    cur_min: Vec<i64>,
    /// -1 unassigned, 0, 1.
    values: Vec<i8>,
    trail: Vec<u32>,
    num_assigned: usize,
    /// Minimum possible objective under the current partial assignment.
    obj_min: i64,
    best: Option<(i64, Vec<bool>)>,
    queue: VecDeque<u32>,
    in_queue: Vec<bool>,
    /// Static branch order (priority desc, then id).
    order: Vec<u32>,
    nodes: u64,
}

enum PropResult {
    Ok,
    Conflict,
}

impl<'m> Search<'m> {
    fn new(model: &'m Model) -> Self {
        let nv = model.num_vars() as usize;
        let mut cons = Vec::new();
        for c in &model.constraints {
            let terms: Vec<(u32, i64)> = c.expr.terms.iter().map(|&(v, a)| (v.0, a)).collect();
            match c.op {
                CmpOp::Le => cons.push(NormCon { terms, rhs: c.rhs }),
                CmpOp::Ge => cons.push(NormCon {
                    terms: terms.iter().map(|&(v, a)| (v, -a)).collect(),
                    rhs: -c.rhs,
                }),
                CmpOp::Eq => {
                    cons.push(NormCon {
                        terms: terms.clone(),
                        rhs: c.rhs,
                    });
                    cons.push(NormCon {
                        terms: terms.iter().map(|&(v, a)| (v, -a)).collect(),
                        rhs: -c.rhs,
                    });
                }
            }
        }
        let mut occurs = vec![Vec::new(); nv];
        let mut cur_min = vec![0i64; cons.len()];
        for (ci, c) in cons.iter().enumerate() {
            for &(v, a) in &c.terms {
                occurs[v as usize].push((ci as u32, a));
                if a < 0 {
                    cur_min[ci] += a;
                }
            }
        }
        let obj_min = model.objective.iter().filter(|&&c| c < 0).sum();
        let mut order: Vec<u32> = (0..nv as u32).collect();
        order.sort_by_key(|&v| (-model.priority[v as usize], v));
        Search {
            model,
            cons,
            occurs,
            cur_min,
            values: vec![-1; nv],
            trail: Vec::with_capacity(nv),
            num_assigned: 0,
            obj_min,
            best: None,
            queue: VecDeque::new(),
            in_queue: vec![false; 0],
            order,
            nodes: 0,
        }
    }

    /// Upper bound the objective must beat (strictly) to be useful.
    #[inline]
    fn bound(&self) -> i64 {
        match &self.best {
            Some((b, _)) => *b,
            None => i64::MAX,
        }
    }

    /// Assigns `var := val`, updating activities. Returns false on conflict
    /// (already assigned the opposite value).
    fn assign(&mut self, var: u32, val: bool) -> bool {
        match self.values[var as usize] {
            -1 => {}
            v => return (v == 1) == val,
        }
        self.values[var as usize] = i8::from(val);
        self.trail.push(var);
        self.num_assigned += 1;
        // obj_min counted min(c,0) while unassigned; settle the true
        // contribution: c for val=1 (delta c - min(c,0) = max(c,0)),
        // 0 for val=0 (delta -min(c,0)).
        let c = self.model.objective[var as usize];
        self.obj_min += if val { c.max(0) } else { -c.min(0) };
        for k in 0..self.occurs[var as usize].len() {
            let (ci, a) = self.occurs[var as usize][k];
            let delta = if val { a.max(0) } else { -a.min(0) };
            if delta != 0 {
                self.cur_min[ci as usize] += delta;
                if !self.in_queue[ci as usize] {
                    self.in_queue[ci as usize] = true;
                    self.queue.push_back(ci);
                }
            }
        }
        true
    }

    /// Propagates to fixpoint. On return the queue is drained.
    fn propagate(&mut self) -> PropResult {
        while let Some(ci) = self.queue.pop_front() {
            self.in_queue[ci as usize] = false;
            let slack = self.cons[ci as usize].rhs - self.cur_min[ci as usize];
            if slack < 0 {
                self.queue.clear();
                self.in_queue.iter_mut().for_each(|b| *b = false);
                return PropResult::Conflict;
            }
            // Force variables whose wrong polarity would overflow the slack.
            let nterms = self.cons[ci as usize].terms.len();
            for t in 0..nterms {
                let (v, a) = self.cons[ci as usize].terms[t];
                if self.values[v as usize] != -1 {
                    continue;
                }
                if a > slack {
                    // x=1 would add `a` beyond the slack → force 0.
                    if !self.assign(v, false) {
                        return PropResult::Conflict;
                    }
                } else if -a > slack {
                    // x=0 would add `-a` (losing the optimistic negative) → force 1.
                    if !self.assign(v, true) {
                        return PropResult::Conflict;
                    }
                }
            }
            // Objective-driven conflict.
            if self.obj_min >= self.bound() {
                self.queue.clear();
                self.in_queue.iter_mut().for_each(|b| *b = false);
                return PropResult::Conflict;
            }
        }
        if self.obj_min >= self.bound() {
            return PropResult::Conflict;
        }
        PropResult::Ok
    }

    fn backtrack_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let var = self.trail.pop().unwrap();
            let val = self.values[var as usize] == 1;
            self.values[var as usize] = -1;
            self.num_assigned -= 1;
            let c = self.model.objective[var as usize];
            self.obj_min -= if val { c.max(0) } else { -c.min(0) };
            for k in 0..self.occurs[var as usize].len() {
                let (ci, a) = self.occurs[var as usize][k];
                let delta = if val { a.max(0) } else { -a.min(0) };
                self.cur_min[ci as usize] -= delta;
            }
        }
    }

    fn pick_branch_var(&self) -> Option<u32> {
        self.order
            .iter()
            .copied()
            .find(|&v| self.values[v as usize] == -1)
    }

    fn preferred_value(&self, var: u32) -> bool {
        // Try the cheaper polarity first.
        self.model.objective[var as usize] < 0
    }

    fn record_incumbent(&mut self) {
        let assignment: Vec<bool> = self.values.iter().map(|&v| v == 1).collect();
        let obj = self.model.objective_value(&assignment);
        debug_assert_eq!(obj, self.obj_min, "objective bookkeeping drifted");
        match &self.best {
            Some((b, _)) if *b <= obj => {}
            _ => self.best = Some((obj, assignment)),
        }
    }
}

/// Solves a binary ILP by branch-and-bound.
pub fn solve(model: &Model, config: &SolverConfig) -> Solution {
    let mut s = Search::new(model);
    s.in_queue = vec![false; s.cons.len()];

    // Root propagation: seed every constraint once.
    for ci in 0..s.cons.len() as u32 {
        s.in_queue[ci as usize] = true;
        s.queue.push_back(ci);
    }
    let mut budget_hit = false;
    let root_conflict = matches!(s.propagate(), PropResult::Conflict);

    // Decision stack: (branched var, first value, trail length before the
    // decision, whether the second polarity was already tried).
    struct Frame {
        var: u32,
        first: bool,
        mark: usize,
        flipped: bool,
    }
    let mut stack: Vec<Frame> = Vec::new();

    if !root_conflict {
        'search: loop {
            // Complete assignment?
            if s.num_assigned == s.values.len() {
                s.record_incumbent();
                // Forced backtrack to look for better solutions.
            } else {
                s.nodes += 1;
                if s.nodes >= config.node_limit {
                    budget_hit = true;
                    break 'search;
                }
                let var = s.pick_branch_var().expect("unassigned var must exist");
                let val = s.preferred_value(var);
                let mark = s.trail.len();
                let ok = s.assign(var, val);
                if ok && matches!(s.propagate(), PropResult::Ok) {
                    stack.push(Frame {
                        var,
                        first: val,
                        mark,
                        flipped: false,
                    });
                    continue 'search;
                }
                // Immediate conflict on first polarity: undo and flip in place.
                s.backtrack_to(mark);
                let ok = s.assign(var, !val);
                if ok && matches!(s.propagate(), PropResult::Ok) {
                    stack.push(Frame {
                        var,
                        first: !val,
                        mark,
                        flipped: true,
                    });
                    continue 'search;
                }
                s.backtrack_to(mark);
                // Both polarities fail → fall through to backtracking.
            }
            // Backtrack: find the deepest frame with an untried polarity.
            loop {
                match stack.pop() {
                    None => break 'search, // exhausted
                    Some(f) => {
                        s.backtrack_to(f.mark);
                        if !f.flipped {
                            let ok = s.assign(f.var, !f.first);
                            if ok && matches!(s.propagate(), PropResult::Ok) {
                                stack.push(Frame {
                                    var: f.var,
                                    first: !f.first,
                                    mark: f.mark,
                                    flipped: true,
                                });
                                continue 'search;
                            }
                            s.backtrack_to(f.mark);
                        }
                    }
                }
            }
        }
    }

    let nodes = s.nodes;
    match (s.best, budget_hit) {
        (Some((obj, assignment)), false) => Solution {
            status: SolveStatus::Optimal,
            assignment: Some(assignment),
            objective: Some(obj),
            nodes,
        },
        (Some((obj, assignment)), true) => Solution {
            status: SolveStatus::Feasible,
            assignment: Some(assignment),
            objective: Some(obj),
            nodes,
        },
        (None, false) => Solution {
            status: SolveStatus::Infeasible,
            assignment: None,
            objective: None,
            nodes,
        },
        (None, true) => Solution {
            status: SolveStatus::Unknown,
            assignment: None,
            objective: None,
            nodes,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinExpr, Model};

    fn brute_force(model: &Model) -> Option<i64> {
        let n = model.num_vars();
        assert!(n <= 22);
        let mut best: Option<i64> = None;
        for bits in 0..1u64 << n {
            let assignment: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
            if model.check(&assignment).is_ok() {
                let obj = model.objective_value(&assignment);
                best = Some(best.map_or(obj, |b: i64| b.min(obj)));
            }
        }
        best
    }

    #[test]
    fn knapsack_style() {
        // maximize 4x+5y+3z s.t. 2x+3y+z <= 4  → minimize negated.
        let mut m = Model::new();
        let x = m.add_var("x");
        let y = m.add_var("y");
        let z = m.add_var("z");
        m.set_objective(x, -4);
        m.set_objective(y, -5);
        m.set_objective(z, -3);
        m.le([(x, 2), (y, 3), (z, 1)], 4);
        let sol = solve(&m, &SolverConfig::default());
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert_eq!(sol.objective, Some(-8)); // y + z = 5+3
        assert!(sol.value(y) && sol.value(z) && !sol.value(x));
    }

    #[test]
    fn infeasible_cardinality() {
        let mut m = Model::new();
        let vs = m.add_vars("v", 3);
        m.ge(vs.iter().map(|&v| (v, 1)), 4); // need 4 ones from 3 vars
        let sol = solve(&m, &SolverConfig::default());
        assert_eq!(sol.status, SolveStatus::Infeasible);
    }

    #[test]
    fn equality_and_implication_chain() {
        // x0 = 1; x_{i+1} >= x_i  → all ones; objective = sum → 5.
        let mut m = Model::new();
        let vs = m.add_vars("x", 5);
        for &v in &vs {
            m.set_objective(v, 1);
        }
        m.fix(vs[0], true);
        for w in vs.windows(2) {
            m.ge([(w[1], 1), (w[0], -1)], 0);
        }
        let sol = solve(&m, &SolverConfig::default());
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert_eq!(sol.objective, Some(5));
    }

    #[test]
    fn vertex_cover_on_cycle() {
        // Minimum vertex cover of a 5-cycle = 3.
        let mut m = Model::new();
        let vs = m.add_vars("v", 5);
        for &v in &vs {
            m.set_objective(v, 1);
        }
        for i in 0..5 {
            m.ge([(vs[i], 1), (vs[(i + 1) % 5], 1)], 1);
        }
        let sol = solve(&m, &SolverConfig::default());
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert_eq!(sol.objective, Some(3));
    }

    #[test]
    fn exactly_k_constraint() {
        let mut m = Model::new();
        let vs = m.add_vars("v", 8);
        m.eq(vs.iter().map(|&v| (v, 1)), 3);
        // prefer high-index vars via negative costs
        for (i, &v) in vs.iter().enumerate() {
            m.set_objective(v, -(i as i64));
        }
        let sol = solve(&m, &SolverConfig::default());
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert_eq!(sol.objective, Some(-(7 + 6 + 5)));
        let count = vs.iter().filter(|&&v| sol.value(v)).count();
        assert_eq!(count, 3);
    }

    #[test]
    fn negative_coefficients() {
        // x - y <= 0 means x implies y.
        let mut m = Model::new();
        let x = m.add_var("x");
        let y = m.add_var("y");
        m.le([(x, 1), (y, -1)], 0);
        m.fix(x, true);
        m.set_objective(y, 1);
        let sol = solve(&m, &SolverConfig::default());
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!(sol.value(y));
        assert_eq!(sol.objective, Some(1));
    }

    #[test]
    fn tiny_assignment_problem_unique_optimum() {
        // 2×2 assignment: minimize 3·x00 + 1·x01 + 2·x10 + 4·x11 with one
        // pick per row and per column. Unique optimum x01 = x10 = 1,
        // objective 3.
        let mut m = Model::new();
        let x = m.add_vars("x", 4); // row-major [x00, x01, x10, x11]
        for (v, c) in x.iter().zip([3i64, 1, 2, 4]) {
            m.set_objective(*v, c);
        }
        m.eq([(x[0], 1), (x[1], 1)], 1); // row 0
        m.eq([(x[2], 1), (x[3], 1)], 1); // row 1
        m.eq([(x[0], 1), (x[2], 1)], 1); // col 0
        m.eq([(x[1], 1), (x[3], 1)], 1); // col 1
        let sol = solve(&m, &SolverConfig::default());
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert_eq!(sol.objective, Some(3));
        let a = sol.assignment.as_ref().unwrap();
        assert_eq!(
            (a[0], a[1], a[2], a[3]),
            (false, true, true, false),
            "unique optimum has x01 = x10 = 1"
        );
    }

    #[test]
    fn infeasible_through_propagation_chain() {
        // x0 = 1 forces the whole implication chain to 1, which then
        // violates the cardinality cap — infeasibility only provable by
        // propagating through every link.
        let mut m = Model::new();
        let vs = m.add_vars("x", 6);
        m.fix(vs[0], true);
        for w in vs.windows(2) {
            m.ge([(w[1], 1), (w[0], -1)], 0); // x_{i+1} ≥ x_i
        }
        m.le(vs.iter().map(|&v| (v, 1)), 2); // Σx ≤ 2 < 6
        let sol = solve(&m, &SolverConfig::default());
        assert_eq!(sol.status, SolveStatus::Infeasible);
        assert!(sol.assignment.is_none());
    }

    #[test]
    fn optimal_on_fixed_instance_checked_exhaustively() {
        // A fixed mixed-sign model, verified against inline enumeration of
        // all 2^6 assignments (independent of the brute_force helper).
        let mut m = Model::new();
        let vs = m.add_vars("v", 6);
        let costs = [4i64, -7, 2, -3, 5, -1];
        for (&v, &c) in vs.iter().zip(&costs) {
            m.set_objective(v, c);
        }
        m.le([(vs[0], 2), (vs[1], 3), (vs[2], -1)], 3);
        m.ge([(vs[3], 1), (vs[4], 1), (vs[5], 1)], 1);
        m.eq([(vs[1], 1), (vs[4], 1)], 1);
        let mut best: Option<i64> = None;
        for bits in 0..1u64 << 6 {
            let a: Vec<bool> = (0..6).map(|i| bits >> i & 1 == 1).collect();
            if m.check(&a).is_ok() {
                let obj = m.objective_value(&a);
                best = Some(best.map_or(obj, |b: i64| b.min(obj)));
            }
        }
        let sol = solve(&m, &SolverConfig::default());
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert_eq!(sol.objective, best);
        assert!(m.check(sol.assignment.as_ref().unwrap()).is_ok());
    }

    #[test]
    fn matches_brute_force_on_random_models() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.random_range(4..12);
            let mut m = Model::new();
            let vs = m.add_vars("v", n);
            for &v in &vs {
                m.set_objective(v, rng.random_range(-5..6));
            }
            for _ in 0..rng.random_range(2..8) {
                let mut e = LinExpr::new();
                for &v in &vs {
                    if rng.random_bool(0.5) {
                        e.add(v, rng.random_range(-4..5));
                    }
                }
                let rhs = rng.random_range(-4..8);
                let op = match rng.random_range(0..3) {
                    0 => crate::model::CmpOp::Le,
                    1 => crate::model::CmpOp::Ge,
                    _ => crate::model::CmpOp::Eq,
                };
                m.add_constraint(e, op, rhs);
            }
            let sol = solve(&m, &SolverConfig::default());
            let expect = brute_force(&m);
            match expect {
                Some(obj) => {
                    assert_eq!(sol.status, SolveStatus::Optimal, "seed {seed}");
                    assert_eq!(sol.objective, Some(obj), "seed {seed}");
                    // Returned assignment must actually satisfy the model.
                    assert!(m.check(sol.assignment.as_ref().unwrap()).is_ok());
                }
                None => {
                    assert_eq!(sol.status, SolveStatus::Infeasible, "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn default_budget_is_node_only() {
        // The node limit is deterministic (a pure function of the model)
        // and the only budget there is: exhaustive destructuring fails
        // to compile if a second (e.g. wall-clock) budget is ever added.
        let SolverConfig { node_limit } = SolverConfig::default();
        assert_eq!(node_limit, 20_000_000);
    }

    #[test]
    fn budget_exhaustion_reports_unknown_or_feasible() {
        // A big open model with a tiny node budget.
        let mut m = Model::new();
        let vs = m.add_vars("v", 64);
        m.eq(vs.iter().map(|&v| (v, 1)), 32);
        for (i, &v) in vs.iter().enumerate() {
            m.set_objective(v, ((i * 7) % 13) as i64 - 6);
        }
        let sol = solve(&m, &SolverConfig { node_limit: 4 });
        assert!(matches!(
            sol.status,
            SolveStatus::Feasible | SolveStatus::Unknown
        ));
    }
}
