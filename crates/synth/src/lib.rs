//! Logic synthesis substrate: two-level minimization, technology
//! mapping and design-metric estimation.
//!
//! This crate stands in for the industrial flow the BLASYS paper uses
//! (Synopsys Design Compiler with a 65 nm library): truth tables are
//! minimized by an espresso-style heuristic ([`espresso`]), mapped onto
//! 2-input cells ([`techmap`]) from a 65 nm-flavoured [`CellLibrary`],
//! and measured by the [`mod@estimate`] area / power / delay models.
//!
//! The minimizer is *exact-by-construction*: covers always agree with
//! the specification outside the don't-care set. All approximation in
//! BLASYS comes from Boolean matrix factorization upstream.
//!
//! # Example
//!
//! ```
//! use blasys_logic::TruthTable;
//! use blasys_synth::{estimate, synthesize_tt, CellLibrary};
//!
//! // A 4-input, 2-output function.
//! let tt = TruthTable::from_fn(4, 2, |row| (row % 3) as u64);
//! let netlist = synthesize_tt(&tt, "demo");
//! let metrics = estimate(&netlist, &CellLibrary::typical_65nm());
//! assert!(metrics.area_um2 > 0.0);
//! ```

pub mod cube;
pub mod espresso;
pub mod estimate;
pub mod exact;
pub mod library;
pub mod memo;
pub mod shannon;
pub mod techmap;

pub use cube::{Cube, Sop};
pub use espresso::{minimize, minimize_column, MinimizeSpec};
pub use estimate::{estimate, DesignMetrics, MetricSavings};
pub use library::{Cell, CellLibrary};
pub use memo::MinimizeMemo;
pub use shannon::shannon_columns;
pub use techmap::{
    gate_cost, map_sop, or_tree, synthesize_columns, synthesize_tt, synthesize_tt_memo, xor_tree,
};
