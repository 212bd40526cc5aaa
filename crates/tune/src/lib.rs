//! # pcoll-tune — closed-loop adaptive quorum control
//!
//! The paper fixes the quorum policy (solo or majority) for a whole run
//! and §8 only sketches the `FirstOf(m)`/`Chain(m)` spectrum without
//! saying how to pick `m`. This crate closes the loop from measurement to
//! policy so the runtime re-tunes itself as the skew regime shifts:
//!
//! ```text
//!  comm / collectives / trainer          pcoll_tune                    pcoll
//!  ──────────────────────────────   ───────────────────────   ──────────────────────
//!  arrival offsets (injector    →   EWMA of each step's mean and
//!  view, every step)                max−min offset ──► NapModel
//!                                   (E[NAP], round latency, utility)
//!                                      │
//!  RoundCounters, CommStats     →   window = delta of two
//!  snapshots (every K steps)        cumulative snapshots
//!                                      │
//!                                      ▼
//!                                   Controller (static / hill-  →  PartialAllreduce
//!                                   climb / UCB bandit)            ::set_policy_from(round, policy)
//! ```
//!
//! The loop is [`pcoll::QuorumTuner`]'s protocol, and two runners run it
//! every K rounds with one tuner per rank on the rank's clock. The trainer
//! (`eager_sgd::run_rank`, wall time) sums each rank's stats vector with a
//! blocking allreduce, lets the deterministic controller decide from the
//! identical global view, appends the new policy to the collective's
//! round-rules timeline ([`pcoll::PartialAllreduce::set_policy_from`]),
//! and fences with a barrier so no rank can enter a re-policied round
//! before every rank has agreed — the same shared-knowledge trick the
//! majority collective uses for initiator consensus (§4.2). The simulator
//! ([`pcoll::SimHarness`] with a `SimSpec::tuner`, virtual time) runs the
//! same steps in one event and checks that every rank decided alike.
//!
//! The reward being maximized is `fresh_fraction^β × rounds_per_sec`:
//! statistically-weighted update throughput, measurable online and
//! predictable offline via [`eager_sgd::NapModel`] (which reproduces the
//! paper's E\[NAP\] closed forms under uniform skew). The model is also
//! in the loop: at the first decision window the rank-averaged mean and
//! spread EWMAs are converted into per-arm utility priors that seed every
//! untried arm (`Controller::seed_values`), so exploration starts from
//! the theory's best guess and is then refined by measured rewards.

pub mod controller;
pub mod tuner;

pub use controller::{spectrum, Controller, ControllerKind};
pub use tuner::{adaptive_setup, static_setup, AdaptiveTuner, AdaptiveTunerCfg};
