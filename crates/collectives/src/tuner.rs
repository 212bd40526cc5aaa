//! The closed-loop quorum-tuner protocol, shared by the trainer
//! (`eager_sgd::run_rank`, wall clock) and the simulator
//! ([`crate::SimHarness`], virtual clock). Implementations live in
//! `pcoll_tune` (static, hill-climb, UCB bandit).

use crate::partial::{QuorumPolicy, RoundCounters};
use pcoll_comm::{Clock, CommStatsSnapshot, Recorder};
use pcoll_obs::{EventKind, LEVEL_SPANS};
use std::fmt;
use std::sync::Arc;

/// What a [`QuorumTuner::decide`] call returns: the policy to apply from
/// the next round on, plus the window measurements behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct QuorumDecision {
    /// The policy every rank applies from the decision's round on.
    pub policy: QuorumPolicy,
    /// The window's reward, the quantity the controller maximises.
    pub reward: f64,
    /// Fraction of the window's completions that carried a fresh deposit.
    pub fresh_fraction: f64,
    /// Completed rounds per second (on the rank's clock) over the window.
    pub rounds_per_s: f64,
    /// Mean per-rank spread of the arrival offsets (ms).
    pub spread_ms: f64,
    /// Mean per-rank time spent stalled on full transport queues during
    /// the window (ms) — the congestion signal from `CommStats`.
    pub queue_stall_ms: f64,
}

impl QuorumDecision {
    /// Put the decision on a rank's flight-recorder track: the decision
    /// at `step`, and the policy segment it appends from `from_round`.
    /// Every rank decides the same thing, so every track shows the same
    /// timeline.
    pub fn record(&self, recorder: &Recorder, step: u64, from_round: u64) {
        let policy = || format!("{:?}", self.policy);
        recorder.record(LEVEL_SPANS, || EventKind::TunerDecision {
            step,
            policy: policy(),
        });
        recorder.record(LEVEL_SPANS, || EventKind::PolicySwitch {
            from_round,
            policy: policy(),
        });
    }
}

/// A closed-loop quorum controller. One instance lives per rank; its
/// runner (the trainer, or the simulator) runs the measure → agree →
/// decide → apply loop every [`QuorumTuner::period`] steps:
///
/// 1. each step, [`QuorumTuner::record_step`] feeds the per-rank arrival
///    offsets;
/// 2. at a decision boundary, the runner hands
///    [`QuorumTuner::local_stats`] the gradient collective's cumulative
///    [`RoundCounters`] and the rank's transport counters; the tuner
///    windows them by diffing against the previous boundary's, and every
///    rank's stats vector is summed elementwise, so all ranks see the
///    identical global view;
/// 3. [`QuorumTuner::decide`] must be a *deterministic* function of that
///    summed vector (plus internal state updated only from such vectors) —
///    this is what keeps the SPMD ranks choosing the same policy with no
///    extra coordination, the same shared-seed trick the majority
///    collective uses for initiator consensus (§4.2). The simulator
///    checks it: ranks that disagree panic the run;
/// 4. the runner applies the policy from the next round and fences, so
///    every rank has appended the new policy segment before any rank can
///    enter a round governed by it.
pub trait QuorumTuner: Send {
    /// Decide every this-many steps.
    fn period(&self) -> u64;

    /// Overrides the runner's construction-time policy (so one trainer
    /// variant can start anywhere on the spectrum, including `Full`).
    fn initial_policy(&self) -> Option<QuorumPolicy> {
        None
    }

    /// Per-step arrival offsets of *all* ranks (ms), from the workload's
    /// shared-seed global view.
    fn record_step(&mut self, _step: u64, _offsets_ms: &[f64]) {}

    /// Length of the stats vector (must match on every rank).
    fn stats_len(&self) -> usize;

    /// This rank's contribution to the decision, summed elementwise
    /// across ranks. `rounds` and `comm` are cumulative totals since the
    /// runner started; the window is what moved since the previous call.
    fn local_stats(&mut self, rounds: RoundCounters, comm: CommStatsSnapshot) -> Vec<f32>;

    /// Deterministic decision from the rank-summed stats. `None` means
    /// "keep the current policy and record nothing".
    fn decide(&mut self, from_round: u64, summed: &[f32]) -> Option<QuorumDecision>;
}

/// Cloneable per-rank factory of a rank's plug-in — its [`QuorumTuner`]
/// ([`TunerSetup`]) or the simulator's [`crate::RankStep`]
/// ([`crate::StepSetup`]): called once per rank with (rank, world size, the
/// rank's clock) when its runner starts, so every rank owns its instance
/// and times it on the clock the rest of the rank reads.
pub struct Setup<T: ?Sized>(Arc<dyn Fn(usize, usize, Clock) -> Box<T> + Send + Sync>);

/// The per-rank [`QuorumTuner`] factory (telemetry is rank-local; only the
/// decision inputs are globally reduced).
pub type TunerSetup = Setup<dyn QuorumTuner>;

impl<T: ?Sized> Setup<T> {
    /// Wrap a factory.
    pub fn new<F>(f: F) -> Self
    where
        F: Fn(usize, usize, Clock) -> Box<T> + Send + Sync + 'static,
    {
        Setup(Arc::new(f))
    }

    /// Build the instance for `rank` of `p`, timing on `clock`.
    pub fn build(&self, rank: usize, p: usize, clock: Clock) -> Box<T> {
        (self.0)(rank, p, clock)
    }
}

impl<T: ?Sized> Clone for Setup<T> {
    fn clone(&self) -> Self {
        Setup(Arc::clone(&self.0))
    }
}

impl<T: ?Sized> fmt::Debug for Setup<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Setup(..)")
    }
}
