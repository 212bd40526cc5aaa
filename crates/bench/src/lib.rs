//! # repro-bench — figure/table harnesses
//!
//! One `repro <figure>` binary reproduces every table/figure of the paper
//! from the static table in [`figures`] (README "Running experiments" is
//! the index); the other binaries are the scale, smoke and sweep tools.
//! This library holds the shared machinery: the distributed experiment
//! runner, result summaries, shape checks, TSV output helpers and the
//! WAN scenario the simulation harnesses share.
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
pub mod figures;
pub mod harness;
pub mod report;
pub mod wan;

pub use args::{HarnessArgs, TransportChoice};
pub use harness::{train_variant, Task, TrainSetup};
