//! Umbrella crate re-exporting the BLASYS reproduction workspace.
//!
//! Each member crate is re-exported under a short alias so examples
//! and downstream users need a single dependency:
//!
//! | alias | crate | role |
//! |---|---|---|
//! | [`logic`] | `blasys-logic` | netlists, simulation, truth tables, BLIF/Verilog I/O |
//! | [`bmf`] | `blasys-bmf` | Boolean matrix factorization (ASSO, GreConD, GF(2)) |
//! | [`decomp`] | `blasys-decomp` | k×m-cut decomposition and substitution |
//! | [`synth`] | `blasys-synth` | two-level minimization, techmap, area/power/delay |
//! | [`lint`] | `blasys-lint` | static netlist analysis + flow-invariant verifiers |
//! | [`blasys`] | `blasys-core` | the flow: profile → explore → synthesize → certify |
//! | [`sat`] | `blasys-sat` | CDCL solver, miters, certified error bounds |
//! | [`circuits`] | `blasys-circuits` | the paper's benchmark generators |
//! | [`salsa`] | `blasys-salsa` | SALSA comparison baseline |
//! | [`par`] | `blasys-par` | persistent self-scheduling thread pool |
//! | [`obs`] | `blasys-obs` | spans, metrics registry, flight recorder |
//! | [`serve`] | `blasys-serve` | HTTP service with a content-addressed session cache |
//!
//! The `blasys` command-line driver lives in `crates/cli` (binary
//! only, not re-exported); the experiment harness regenerating the
//! paper's tables lives in `crates/bench`. See the repository README
//! and `docs/USAGE.md` for the end-to-end story.
pub use blasys_bmf as bmf;
pub use blasys_circuits as circuits;
pub use blasys_core as blasys;
pub use blasys_decomp as decomp;
pub use blasys_lint as lint;
pub use blasys_logic as logic;
pub use blasys_obs as obs;
pub use blasys_par as par;
pub use blasys_salsa as salsa;
pub use blasys_sat as sat;
pub use blasys_serve as serve;
pub use blasys_synth as synth;
