//! # repro-bench — figure/table harnesses
//!
//! One `repro <figure>` binary reproduces every table/figure of the paper
//! from the static table in [`figures`] (README "Running experiments" is
//! the index); the other binaries are the scale, smoke and sweep tools.
//! This library holds the shared machinery: the training experiment
//! runner, result summaries, shape checks, TSV output helpers and the
//! WAN scenario the simulation harnesses share.
//!
//! Every harness prints:
//! 1. `#`-prefixed provenance comments (what the paper reported),
//! 2. machine-readable TSV rows (the figure's series), and
//! 3. `SHAPE-CHECK` lines verifying the qualitative claims the
//!    reproduction targets (who wins, by roughly what factor).
//!
//! `--quick` shrinks runs for smoke tests. The training figures run on
//! the simulator's virtual clock, so their injected and modelled delays
//! are the paper's milliseconds and cost no wall time.

pub mod args;
pub mod figures;
pub mod harness;
pub mod report;
pub mod wan;

pub use args::{HarnessArgs, TransportChoice};
pub use harness::{train_variant, Task, TrainSetup};
