//! `blasys-sat`: a self-contained CDCL SAT engine for exact equivalence
//! checking and certified worst-case error bounds.
//!
//! The BLASYS reproduction estimates accuracy by Monte-Carlo sampling
//! and checks equivalence by exhaustive or sampled simulation, which
//! silently degrades to "probably equal" beyond
//! [`MAX_EXHAUSTIVE_INPUTS`](blasys_logic::truth::MAX_EXHAUSTIVE_INPUTS)
//! inputs. This crate supplies the missing formal story:
//!
//! * [`Solver`] — a MiniSat-style CDCL solver (two-watched-literal
//!   propagation, first-UIP clause learning, VSIDS activity decay,
//!   phase saving, Luby restarts), no external dependencies;
//! * [`tseitin`] — linear-size CNF encoding of any
//!   [`Netlist`](blasys_logic::Netlist);
//! * [`miter`] — the pairwise equivalence miter and the arithmetic
//!   comparator miter deciding `∃ input: |R − R'| ≥ T`;
//! * [`check_equiv_sat`] — exact equivalence at any input width;
//! * [`certify_worst_absolute`] — binary search over the comparator
//!   miter yielding the *exact* worst-case absolute error of an
//!   approximate design, with a witness input and an UNSAT certificate.
//!
//! # Example
//!
//! ```
//! use blasys_logic::builder::{add, input_bus, mark_output_bus};
//! use blasys_logic::Netlist;
//! use blasys_sat::{certify_worst_absolute, check_equiv_sat};
//!
//! // A 20-input adder: beyond the default exhaustive-check limit.
//! let build = || {
//!     let mut nl = Netlist::new("add10");
//!     let a = input_bus(&mut nl, "a", 10);
//!     let b = input_bus(&mut nl, "b", 10);
//!     let s = add(&mut nl, &a, &b);
//!     mark_output_bus(&mut nl, "s", &s);
//!     nl
//! };
//! let nl = build();
//! assert!(check_equiv_sat(&nl, &build()).is_equal());
//! let cert = certify_worst_absolute(&nl, &build());
//! assert_eq!(cert.worst_absolute, 0);
//! ```

#![warn(missing_docs)]

pub mod certify;
pub mod check;
pub mod cnf;
pub mod miter;
pub mod solver;
pub mod tseitin;

pub use certify::{
    brute_force_worst_absolute, certify_worst_absolute, certify_worst_absolute_observed,
    witness_error, ErrorCertificate,
};
pub use check::check_equiv_sat;
pub use cnf::{Cnf, Lit, Var};
pub use miter::{equivalence_miter, error_ge_miter};
pub use solver::{SolveResult, Solver, SolverStats};
