//! # repro-bench — figure/table harnesses
//!
//! One binary per table/figure of the paper (README "Running
//! experiments" is the index). This library holds the shared machinery: the distributed
//! experiment runner, result summaries, and TSV output helpers.
//!
//! Every harness prints:
//! 1. `#`-prefixed provenance comments (what the paper reported),
//! 2. machine-readable TSV rows (the figure's series), and
//! 3. `SHAPE-CHECK` lines verifying the qualitative claims the
//!    reproduction targets (who wins, by roughly what factor).
//!
//! Scale knobs: `--quick` shrinks runs for smoke tests; `--time-scale X`
//! maps the paper's injected milliseconds onto wall-clock milliseconds
//! (default 0.1; speedup *ratios* are scale-invariant because every
//! variant waits on identically scaled skew).

pub mod args;
pub mod harness;
pub mod report;

pub use args::{HarnessArgs, TransportChoice};
pub use harness::{run_distributed, run_distributed_on, ExperimentSpec, VariantSummary};
