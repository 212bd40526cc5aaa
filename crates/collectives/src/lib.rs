//! # pcoll — synchronous and partial collective operations (§4)
//!
//! This crate turns the schedule engine (`pcoll-sched`) into user-facing
//! collectives:
//!
//! - [`PartialAllreduce`]: the one allreduce frontend, parameterised by a
//!   [`QuorumPolicy`]. With [`QuorumPolicy::Solo`] any rank that arrives
//!   first becomes the initiator and broadcasts an activation along a
//!   binomial tree rooted at itself; every other rank is dragged in by its
//!   engine and contributes whatever its send buffer holds (fresh, stale,
//!   or null). With [`QuorumPolicy::Majority`] a pseudo-randomly
//!   designated per-round initiator (same seed on all ranks ⇒ no
//!   communication needed for consensus) delays the start so that, in
//!   expectation, half the ranks arrive before it (§4.2).
//!   [`QuorumPolicy::FirstOf`]/[`QuorumPolicy::Chain`] generalize this to
//!   the solo–majority–full *spectrum* named in §8, and
//!   [`QuorumPolicy::Full`] is its synchronous endpoint: the
//!   `MPI_Allreduce` stand-in that "cannot terminate before the slowest
//!   process joins it" ([`RankCtx::sync_allreduce`]). Every policy runs
//!   the same data phase, chosen by [`AlgoSelector`] from message size
//!   and world size: recursive doubling for small messages on
//!   power-of-two worlds, the segmented reduce-scatter + allgather ring
//!   otherwise.
//! - [`SyncBarrier`]: dissemination barrier; [`SyncBcast`] and
//!   [`SyncReduce`]: binomial-tree broadcast and reduce (used by the
//!   Horovod-style negotiation baseline).
//! - [`algos`]: the blocking ring allreduce over the plain matcher — the
//!   engine's ceiling in the benchmarks and the reference its results are
//!   tested against.
//!
//! [`RankCtx`] packages the per-rank engine plus collective constructors;
//! collectives must be created in the same order on every rank (SPMD), as
//! with MPI communicator construction. [`QuorumTuner`] is the closed-loop
//! policy protocol the trainer and [`SimHarness`] both run.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod algos;
pub mod builders;
pub mod ctx;
pub mod partial;
pub mod select;
pub mod sim;
pub mod sync;
pub mod topology;
pub mod tuner;

pub use ctx::RankCtx;
pub use partial::{
    AllreduceOutcome, PartialAllreduce, PartialOpts, QuorumPolicy, RoundCounters, RoundEvent,
    RoundLog, RoundObserver, RoundRules, StaleMode,
};
pub use select::{AlgoSelector, AllreduceAlgo};
pub use sim::{Hiccup, Outcome, Pacing, RankStep, SimHarness, SimReport, SimSpec, StepSetup};
pub use sync::{SyncBarrier, SyncBcast, SyncReduce};
pub use tuner::{QuorumDecision, QuorumTuner, Setup, TunerSetup};
