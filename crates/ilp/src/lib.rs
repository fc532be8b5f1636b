//! # atlas-ilp
//!
//! A from-scratch binary (0-1) integer linear programming solver — the
//! substrate that replaces PuLP + HiGHS in the paper's circuit-staging
//! pipeline (§IV-b).
//!
//! The solver is a branch-and-bound over pseudo-Boolean constraints with:
//!
//! * incremental activity bounds per constraint and queue-driven
//!   propagation to fixpoint (forcing variables whose assignment would
//!   violate a constraint's remaining slack),
//! * objective-based pruning against the incumbent,
//! * caller-supplied branching priorities (the staging model branches on
//!   the qubit-partition variables `A`/`B` first and lets propagation fix
//!   the derived `F`/`S`/`T` variables),
//! * a deterministic node budget with a faithful status report
//!   ([`SolveStatus::Optimal`] / [`Feasible`](SolveStatus::Feasible) /
//!   [`Infeasible`](SolveStatus::Infeasible) /
//!   [`Unknown`](SolveStatus::Unknown)).

#![forbid(unsafe_code)]

pub mod model;
pub mod solver;

pub use model::{CmpOp, Constraint, LinExpr, Model, VarId};
pub use solver::{solve, Solution, SolveStatus, SolverConfig};
