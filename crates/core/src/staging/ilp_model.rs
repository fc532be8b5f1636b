//! The paper's staging ILP (Eqs. 3–11), built verbatim on the reduced
//! problem and solved with the generic `atlas-ilp` branch-and-bound.
//!
//! This is the reference implementation of §IV-b: exact and faithful, used
//! for validation and small circuits. The default pipeline uses the
//! structure-exploiting search in [`super::search`], which explores the
//! same model with the `F`/`S`/`T` variables eliminated by propagation.

use super::prep::StagingProblem;
use super::RawStaging;
use atlas_ilp::{Model, Solution, SolveStatus, SolverConfig, VarId};

/// Variable handles of the built model.
struct IlpVars {
    /// `a[k][q]`: logical qubit `q` is local in stage `k`.
    pub a: Vec<Vec<VarId>>,
    /// `b[k][q]`: logical qubit `q` is global in stage `k`.
    pub b: Vec<Vec<VarId>>,
    /// `f[k][g]`: item `g` finished by end of stage `k`.
    pub f: Vec<Vec<VarId>>,
    /// `s_up[k][q]`: qubit `q` became local between stages `k` and `k+1`.
    pub s_up: Vec<Vec<VarId>>,
    /// `t_up[k][q]`: qubit `q` became global between stages `k` and `k+1`.
    pub t_up: Vec<Vec<VarId>>,
}

/// Builds the ILP for exactly `s` stages.
fn build_ilp(p: &StagingProblem, s: usize) -> (Model, IlpVars) {
    let n = p.n as usize;
    let ng = p.items.len();
    let mut m = Model::new();
    let a: Vec<Vec<VarId>> = (0..s)
        .map(|k| (0..n).map(|q| m.add_var(format!("A_{q}_{k}"))).collect())
        .collect();
    let b: Vec<Vec<VarId>> = (0..s)
        .map(|k| (0..n).map(|q| m.add_var(format!("B_{q}_{k}"))).collect())
        .collect();
    let f: Vec<Vec<VarId>> = (0..s)
        .map(|k| (0..ng).map(|g| m.add_var(format!("F_{g}_{k}"))).collect())
        .collect();
    let s_up: Vec<Vec<VarId>> = (0..s.saturating_sub(1))
        .map(|k| (0..n).map(|q| m.add_var(format!("S_{q}_{k}"))).collect())
        .collect();
    let t_up: Vec<Vec<VarId>> = (0..s.saturating_sub(1))
        .map(|k| (0..n).map(|q| m.add_var(format!("T_{q}_{k}"))).collect())
        .collect();

    // Objective (3): min Σ_k Σ_q S + c·T.
    for k in 0..s.saturating_sub(1) {
        for q in 0..n {
            m.set_objective(s_up[k][q], 1);
            m.set_objective(t_up[k][q], p.c_factor);
        }
    }
    // Branch on the partition variables, earliest stages first.
    for k in 0..s {
        let prio = (s - k) as i32;
        for q in 0..n {
            m.set_priority(a[k][q], prio * 2 + 1);
            m.set_priority(b[k][q], prio * 2);
        }
    }

    for q in 0..n {
        for k in 0..s - 1 {
            // (4): A[q,k+1] ≤ A[q,k] + S[q,k]
            m.le([(a[k + 1][q], 1), (a[k][q], -1), (s_up[k][q], -1)], 0);
            // (5): B[q,k+1] ≤ B[q,k] + T[q,k]
            m.le([(b[k + 1][q], 1), (b[k][q], -1), (t_up[k][q], -1)], 0);
        }
        for k in 0..s {
            // (10): A + B ≤ 1
            m.le([(a[k][q], 1), (b[k][q], 1)], 1);
        }
    }
    for g in 0..ng {
        for fk in f.windows(2) {
            // (6): F[g,k] ≤ F[g,k+1]
            m.le([(fk[0][g], 1), (fk[1][g], -1)], 0);
        }
        // (7): F[g,k] ≤ F[g,k-1] + A[q,k] per non-insular qubit q.
        let mut mask = p.items[g].mask;
        while mask != 0 {
            let q = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            for k in 0..s {
                if k == 0 {
                    m.le([(f[0][g], 1), (a[0][q], -1)], 0);
                } else {
                    m.le([(f[k][g], 1), (f[k - 1][g], -1), (a[k][q], -1)], 0);
                }
            }
        }
        // (9): F[g,s-1] = 1
        m.fix(f[s - 1][g], true);
    }
    // (8): F[g1,k] ≥ F[g2,k] for dependencies (g1 before g2).
    for &(g1, g2) in &p.deps {
        for fk in f.iter() {
            m.ge([(fk[g1], 1), (fk[g2], -1)], 0);
        }
    }
    // (11): Σ_q A = L, Σ_q B = G per stage.
    for k in 0..s {
        m.eq((0..n).map(|q| (a[k][q], 1)), p.l as i64);
        m.eq((0..n).map(|q| (b[k][q], 1)), p.g as i64);
    }
    (
        m,
        IlpVars {
            a,
            b,
            f,
            s_up,
            t_up,
        },
    )
}

/// Extracts a staging from an ILP solution.
fn extract_raw(p: &StagingProblem, s: usize, vars: &IlpVars, sol: &Solution) -> RawStaging {
    let n = p.n as usize;
    let mut partitions = Vec::with_capacity(s);
    for k in 0..s {
        let mut lm = 0u64;
        let mut gm = 0u64;
        for q in 0..n {
            if sol.value(vars.a[k][q]) {
                lm |= 1 << q;
            }
            if sol.value(vars.b[k][q]) {
                gm |= 1 << q;
            }
        }
        partitions.push((lm, gm));
    }
    let item_stage: Vec<usize> = (0..p.items.len())
        .map(|g| {
            (0..s)
                .find(|&k| sol.value(vars.f[k][g]))
                .expect("item never finishes")
        })
        .collect();
    RawStaging {
        partitions,
        item_stage,
        cost: sol.objective.unwrap_or(0),
    }
}

/// Solves the `s`-stage model. Returns the status plus the staging when
/// feasible.
pub(super) fn solve_ilp(
    p: &StagingProblem,
    s: usize,
    cfg: &SolverConfig,
) -> (SolveStatus, Option<RawStaging>) {
    let (model, vars) = build_ilp(p, s);
    let sol = atlas_ilp::solve(&model, cfg);
    let raw = sol
        .assignment
        .as_ref()
        .map(|_| extract_raw(p, s, &vars, &sol));
    (sol.status, raw)
}
