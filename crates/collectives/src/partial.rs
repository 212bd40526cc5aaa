//! Partial allreduce: solo, majority, and the quorum spectrum (§4, §8).
//!
//! The application-facing object is [`PartialAllreduce`]; one lives on each
//! rank and successive [`PartialAllreduce::allreduce`] calls map to
//! successive rounds of the same persistent schedule. The Fig. 7 buffer
//! protocol is implemented here:
//!
//! - **send buffer**: deposits *accumulate* (`G' = G_stale + G_fresh`).
//!   The engine snapshots-and-resets it at instance creation, so a rank
//!   dragged in externally contributes stale-or-null data, and a gradient
//!   that missed its own round rides along with the next one.
//! - **receive buffer**: completion overwrites it latest-wins; a slow rank
//!   that finds its round already completed returns immediately with the
//!   newest available result (possibly from a later round — the documented
//!   divergence source that periodic model synchronization repairs, §5).
//!
//! A round is planned once. What governs round `r` — quorum policy and
//! live set — is one append-only round → [`RoundRules`] timeline that a
//! policy switch, an eviction and an admission all extend the same way,
//! and `plan(r)` is the single derivation every rank runs from it and the
//! shared seed: virtual world, candidate draw, activation mode, data-phase
//! algorithm. The engine-side template builds round `r`'s schedule from
//! that plan (the builder stamps the snapshot timing on the schedule),
//! candidate queries read the same plan, and the plan's policy rides with
//! the round's in-flight record to its completion event.
//!
//! A round's facts are emitted once, at completion, from the engine-side
//! template's `complete`: it bumps the always-on [`RoundCounters`] and, if
//! a [`RoundObserver`] is wired, hands it one [`RoundEvent`]. The event's
//! `fresh` bit — did this rank's snapshot carry fresh data — is exactly
//! the paper's "active process" definition used for the NAP (number of
//! active processes) measurements of Fig. 9.

use crate::builders::{allreduce_schedule, segmented_allreduce_schedule, ActivationMode};
use crate::select::{AlgoSelector, AllreduceAlgo};
use crate::topology::round_candidates;
use parking_lot::{Condvar, Mutex};
use pcoll_comm::{CollId, DType, Payload, Rank, ReduceOp, TypedBuf};
use pcoll_sched::{CollectiveTemplate, RoundStats, Schedule, TemplateHost};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which processes may trigger a round, i.e. where on the
/// solo–majority–full spectrum this collective sits (§8's proposed
/// extension, with the paper's two variants as the named points).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuorumPolicy {
    /// Wait-free: every rank is an initiator candidate; the first to
    /// arrive triggers the round. Expected active processes ≈ 1 under
    /// full skew (§4.1).
    Solo,
    /// One pseudo-random initiator per round; in expectation half the
    /// ranks arrive before it, so E\[NAP\] = P/2 (§4.2).
    Majority,
    /// First of `m` random candidates to arrive initiates:
    /// E\[NAP\] ≈ P/(m+1). `FirstOf(P)` degenerates to solo.
    FirstOf(usize),
    /// All of `m` random candidates must arrive (token chain in candidate
    /// order); the last one initiates: E\[NAP\] ≈ P·m/(m+1).
    /// `Chain(1)` is exactly majority.
    Chain(usize),
    /// Every rank must arrive (blocking semantics with latest-wins
    /// result delivery): the spectrum's synchronous endpoint.
    Full,
}

impl QuorumPolicy {
    /// The initiator-candidate ranks of `round` under this policy (all
    /// ranks for solo/full, the chain/race set otherwise). Deterministic:
    /// every rank computes the identical list from the shared seed.
    pub fn round_candidates(self, seed: u64, coll: CollId, round: u64, p: usize) -> Vec<Rank> {
        match self {
            QuorumPolicy::Solo | QuorumPolicy::Full => (0..p).collect(),
            QuorumPolicy::Majority => round_candidates(seed, coll, round, p, 1),
            QuorumPolicy::FirstOf(m) | QuorumPolicy::Chain(m) => {
                round_candidates(seed, coll, round, p, m.max(1))
            }
        }
    }

    /// The quorum-size lower bound `Q` of Lemma 5.1 this policy enforces
    /// deterministically (solo/first-of guarantee only the initiator; a
    /// chain guarantees its candidates; full guarantees everyone).
    pub fn guaranteed_quorum(self, p: usize) -> usize {
        match self {
            QuorumPolicy::Solo | QuorumPolicy::FirstOf(_) => 1,
            QuorumPolicy::Majority => 1,
            QuorumPolicy::Chain(m) => m.min(p),
            QuorumPolicy::Full => p,
        }
    }

    /// The *expected* number of active processes under full skew.
    pub fn expected_active(self, p: usize) -> f64 {
        let p = p as f64;
        match self {
            QuorumPolicy::Solo => p / (p + 1.0),
            QuorumPolicy::Majority => p / 2.0,
            QuorumPolicy::FirstOf(m) => p / (m.min(p as usize) as f64 + 1.0),
            QuorumPolicy::Chain(m) => {
                let m = m.min(p as usize) as f64;
                p * m / (m + 1.0)
            }
            QuorumPolicy::Full => p,
        }
    }
}

impl fmt::Display for QuorumPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuorumPolicy::Solo => write!(f, "solo"),
            QuorumPolicy::Majority => write!(f, "majority"),
            QuorumPolicy::FirstOf(m) => write!(f, "first-of-{m}"),
            QuorumPolicy::Chain(m) => write!(f, "chain-{m}"),
            QuorumPolicy::Full => write!(f, "full"),
        }
    }
}

/// What governs a span of rounds. A collective keeps one append-only
/// `(from_round, RoundRules)` segment list — a policy switch, an eviction
/// and an admission are the same operation, *append rules at an agreed
/// fence* — and ships it whole to a re-admitted rank
/// ([`PartialAllreduce::rule_segments`] → [`PartialAllreduce::import_state`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundRules {
    /// Which ranks may trigger a round.
    pub policy: QuorumPolicy,
    /// The sorted global ranks that participate. A partial world builds
    /// its schedules over `live.len()` virtual ranks: candidates are live
    /// ranks, nothing is addressed to an absent rank, and a population
    /// that is not a power of two takes the any-P segmented ring.
    pub live: Vec<Rank>,
    /// Evictions and admissions that changed `live`, up to and including
    /// this segment. Events, not segments — two events agreed at one
    /// fence share a segment — so the fences' consensus ids never repeat.
    pub events: usize,
}

impl RoundRules {
    fn evict(&mut self, dead: &[Rank]) {
        let before = self.live.len();
        self.live.retain(|r| !dead.contains(r));
        assert!(!self.live.is_empty(), "cannot evict the last live rank");
        self.events += usize::from(self.live.len() != before);
    }

    /// Rank ids are stable across evictions: growth re-admits previously
    /// evicted ranks of the original world `p`, it does not mint new ids.
    fn admit(&mut self, joiners: &[Rank], p: usize) {
        let before = self.live.len();
        for &j in joiners {
            assert!(j < p, "joiner {j} outside the original world {p}");
            if !self.live.contains(&j) {
                self.live.push(j);
            }
        }
        self.live.sort_unstable();
        self.events += usize::from(self.live.len() != before);
    }
}

/// What [`RuleTimeline::plan`] derives for one round: identical on every
/// rank of the round (bar `vrank`) without any communication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RoundPlan {
    pub policy: QuorumPolicy,
    /// `live[virtual] = global` for a round over a partial world; `None`
    /// when all `p` ranks participate (nothing to clone or remap).
    pub live: Option<Vec<Rank>>,
    /// This rank in the round's virtual world (`None`: evicted from it).
    pub vrank: Option<Rank>,
    /// Size of the round's virtual world.
    pub p_live: usize,
    /// How the round starts; candidates are virtual ranks.
    pub mode: ActivationMode,
    pub algo: AllreduceAlgo,
}

impl RoundPlan {
    /// The round's initiator candidates as global ranks (every live rank
    /// under solo/full).
    fn candidates(self) -> Vec<Rank> {
        let virt = match self.mode {
            ActivationMode::Race(c) | ActivationMode::Chain(c) => c,
            ActivationMode::Full => (0..self.p_live).collect(),
        };
        match self.live {
            None => virt,
            Some(live) => virt.into_iter().map(|v| live[v]).collect(),
        }
    }
}

/// The collective's append-only round → [`RoundRules`] timeline plus the
/// constants every per-round derivation needs, shared by the application
/// handle (candidate queries, rule changes) and the engine-side template
/// (schedule building on internal *or external* activation). Policy and
/// membership are per-round properties: both threads resolve any round
/// through [`RuleTimeline::plan`], under the SPMD contract stated on
/// [`PartialAllreduce::set_policy_from`].
#[derive(Debug)]
pub(crate) struct RuleTimeline {
    /// Strictly increasing in `from_round`, starting at round 0.
    segments: Mutex<Vec<(u64, RoundRules)>>,
    coll: CollId,
    rank: Rank,
    /// Initial world size (the `p` every global rank id lives in).
    p: usize,
    seed: u64,
    /// Data-phase selection inputs: the override knob and message size.
    algo: AlgoSelector,
    bytes: usize,
}

impl RuleTimeline {
    pub(crate) fn new(
        coll: CollId,
        rank: Rank,
        p: usize,
        seed: u64,
        initial: RoundRules,
        algo: AlgoSelector,
        bytes: usize,
    ) -> Self {
        let segments = vec![(0, initial)];
        check_segments(p, &segments).unwrap_or_else(|e| panic!("{e}"));
        RuleTimeline {
            segments: Mutex::new(segments),
            coll,
            rank,
            p,
            seed,
            algo,
            bytes,
        }
    }

    /// Read the rules governing `round` (`u64::MAX` = the tail).
    fn with_rules<T>(&self, round: u64, read: impl FnOnce(&RoundRules) -> T) -> T {
        let segs = self.segments.lock();
        let (_, rules) = segs
            .iter()
            .rev()
            .find(|(from, _)| *from <= round)
            .expect("timeline starts at round 0");
        read(rules)
    }

    /// The one derivation of a round: rules → virtual world → candidate
    /// draw from the shared seed (§4.2's consensus without communication)
    /// → data-phase algorithm. Deterministic in `(seed, coll, round)` and
    /// the agreed rules, so a rank dragged into the round plans exactly
    /// what its initiator did.
    pub(crate) fn plan(&self, round: u64) -> RoundPlan {
        let (policy, live) = self.with_rules(round, |r| {
            (r.policy, (r.live.len() != self.p).then(|| r.live.clone()))
        });
        let (vrank, p_live) = match &live {
            None => (Some(self.rank), self.p),
            Some(live) => (live.iter().position(|&r| r == self.rank), live.len()),
        };
        let draw = || policy.round_candidates(self.seed, self.coll, round, p_live);
        let mode = match policy {
            QuorumPolicy::Full => ActivationMode::Full,
            QuorumPolicy::Solo | QuorumPolicy::FirstOf(_) => ActivationMode::Race(draw()),
            QuorumPolicy::Majority | QuorumPolicy::Chain(_) => ActivationMode::Chain(draw()),
        };
        // Recursive doubling's data phase needs a power of two; the
        // ring does not.
        let algo = if p_live.is_power_of_two() {
            self.algo.choose(self.bytes, p_live)
        } else {
            AllreduceAlgo::SegmentedRing
        };
        RoundPlan {
            policy,
            live,
            vrank,
            p_live,
            mode,
            algo,
        }
    }

    /// The one mutation: apply `change` to the tail rules for every round
    /// ≥ `from_round`. No-op if nothing changes; a change at the tail's
    /// own fence rewrites it, merging it away if that restores its
    /// predecessor's rules. Panics if `from_round` precedes the tail or
    /// `next_round` (the caller's next unrequested round): an in-flight
    /// instance may have been built from the rules already agreed.
    fn amend(&self, next_round: u64, from_round: u64, change: impl FnOnce(&mut RoundRules)) {
        let mut segs = self.segments.lock();
        let (tail_from, tail) = segs.last().cloned().expect("timeline never empty");
        assert!(
            from_round >= next_round.max(tail_from),
            "round rules are append-only: cannot re-plan round {from_round} \
             (rounds < {next_round} were requested, rules are agreed up to {tail_from})"
        );
        let mut rules = tail.clone();
        change(&mut rules);
        if rules == tail {
            return;
        }
        if from_round > tail_from {
            segs.push((from_round, rules));
        } else if segs.len() >= 2 && segs[segs.len() - 2].1 == rules {
            segs.pop();
        } else {
            segs.last_mut().expect("timeline never empty").1 = rules;
        }
    }

    fn segments(&self) -> Vec<(u64, RoundRules)> {
        self.segments.lock().clone()
    }

    /// Replace a pristine timeline with the survivors' `segments` (two
    /// histories cannot be merged), or leave it untouched and say why
    /// `segments` is malformed.
    fn import(&self, segments: Vec<(u64, RoundRules)>) -> Result<(), String> {
        let mut segs = self.segments.lock();
        assert!(
            segs.len() == 1,
            "import requires a pristine timeline (has {} changes)",
            segs.len() - 1
        );
        check_segments(self.p, &segments)?;
        *segs = segments;
        Ok(())
    }
}

/// Segments start at round 0 with strictly increasing boundaries, and
/// every live set is a non-empty sorted subset of the world `p`; the
/// error names the first rule `segments` breaks.
fn check_segments(p: usize, segments: &[(u64, RoundRules)]) -> Result<(), String> {
    if segments.first().is_none_or(|(from, _)| *from != 0) {
        return Err(format!("round rules must start at round 0: {segments:?}"));
    }
    if let Some(w) = segments.windows(2).find(|w| w[0].0 >= w[1].0) {
        let (a, b) = (w[0].0, w[1].0);
        return Err(format!(
            "round-rule boundaries must strictly increase: {a} then {b}"
        ));
    }
    let sorted_in_world =
        |live: &[Rank]| live.windows(2).all(|w| w[0] < w[1]) && live.last().is_some_and(|&r| r < p);
    match segments.iter().find(|(_, r)| !sorted_in_world(&r.live)) {
        Some((from, r)) => Err(format!(
            "live set {:?} from round {from} is not a non-empty sorted subset of a world of {p}",
            r.live
        )),
        None => Ok(()),
    }
}

/// One completed round as seen by this rank — the unit of telemetry the
/// partial collective hands to a [`RoundObserver`]. `fresh` is the
/// paper's "active process" bit (the NAP numerator of Fig. 9);
/// `latency_ms` and `external` come from the engine's [`RoundStats`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RoundEvent {
    /// Collective id (raw).
    pub coll: u32,
    /// Round number within this collective.
    pub round: u64,
    /// The policy that governed this round.
    pub policy: QuorumPolicy,
    /// Did this rank's snapshot carry a fresh deposit?
    pub fresh: bool,
    /// Was the snapshot all zeros (pure G_null)?
    pub null: bool,
    /// Was this rank dragged in by a peer (external activation)?
    pub external: bool,
    /// Instance-creation → completion wall time on this rank.
    pub latency_ms: f64,
}

/// The one per-round push tap: completion events and staleness misses.
/// Called from the engine thread (`on_round`) and the application thread
/// (`on_miss`); implementations must be cheap and non-blocking
/// ([`RoundLog`] is a mutex push). Windowed totals need no observer —
/// diff two [`PartialAllreduce::counters`] snapshots instead.
pub trait RoundObserver: Send + Sync {
    /// A round completed on this rank. Delivered before the round's
    /// result (and its [`RoundCounters`] bump) becomes visible to the
    /// application thread.
    fn on_round(&self, ev: &RoundEvent);

    /// An `allreduce` call found its requested round already superseded
    /// (§5's staleness effect): the caller got `result_round`'s data.
    fn on_miss(&self, _requested_round: u64, _result_round: u64) {}
}

/// A [`RoundObserver`] that keeps every [`RoundEvent`] it is handed — the
/// per-round detail behind NAP plots and tests. Unbounded: wire it for
/// measurement runs, not for long training.
#[derive(Debug, Default)]
pub struct RoundLog {
    events: Mutex<Vec<RoundEvent>>,
}

impl RoundLog {
    /// The events collected so far, sorted by round.
    pub fn events(&self) -> Vec<RoundEvent> {
        let mut events = self.events.lock().clone();
        events.sort_by_key(|e| e.round);
        events
    }
}

impl RoundObserver for RoundLog {
    fn on_round(&self, ev: &RoundEvent) {
        self.events.lock().push(ev.clone());
    }
}

/// Cumulative per-collective round counters on one rank: always on,
/// lossless, and mutually consistent (all four move under one lock). A
/// window is the delta of two snapshots, [`RoundCounters::since`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundCounters {
    /// Rounds completed on this rank.
    pub completions: u64,
    /// Completed rounds whose snapshot carried this rank's fresh deposit
    /// (Σ [`RoundEvent::fresh`]; `fresh ≤ completions` in every window).
    pub fresh: u64,
    /// `allreduce` calls whose requested round had been superseded
    /// (`result_round > requested_round`, §5's staleness effect).
    pub missed: u64,
    /// Completed rounds this rank was dragged into by a peer
    /// (Σ [`RoundEvent::external`]).
    pub external: u64,
}

impl RoundCounters {
    /// Counter deltas since `earlier`.
    pub fn since(&self, earlier: &RoundCounters) -> RoundCounters {
        RoundCounters {
            completions: self.completions.saturating_sub(earlier.completions),
            fresh: self.fresh.saturating_sub(earlier.fresh),
            missed: self.missed.saturating_sub(earlier.missed),
            external: self.external.saturating_sub(earlier.external),
        }
    }
}

/// How a deposit that missed its round is treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StaleMode {
    /// Accumulate into the next contribution (the paper's Fig. 7 protocol).
    #[default]
    Accumulate,
    /// Overwrite: only the newest gradient survives (ablation).
    Replace,
}

/// Options for [`PartialAllreduce`].
#[derive(Clone)]
pub struct PartialOpts {
    /// Multiply the reduced result by this factor (Algorithm 2 line 6
    /// passes `1/P`) — as a step of the round's schedule: the ring scales
    /// each rank's own reduced chunk before broadcasting it.
    pub scale: Option<f64>,
    /// Stale-gradient handling (ablation hook; default = paper behavior).
    pub stale_mode: StaleMode,
    /// How long a blocked `allreduce` call waits before panicking with a
    /// diagnostic (deadlocks should fail loudly, not hang CI).
    pub wait_timeout: Duration,
    /// Per-round telemetry sink (completion events, staleness misses).
    pub observer: Option<Arc<dyn RoundObserver>>,
    /// Data-phase algorithm policy: adaptive by size/P, or pinned (the
    /// explicit override knob). The activation/quorum semantics are
    /// identical on every algorithm; only the data movement differs.
    pub algo: AlgoSelector,
}

impl fmt::Debug for PartialOpts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PartialOpts")
            .field("scale", &self.scale)
            .field("stale_mode", &self.stale_mode)
            .field("wait_timeout", &self.wait_timeout)
            .field("observer", &self.observer.as_ref().map(|_| ".."))
            .field("algo", &self.algo)
            .finish()
    }
}

impl Default for PartialOpts {
    fn default() -> Self {
        PartialOpts {
            scale: None,
            stale_mode: StaleMode::Accumulate,
            wait_timeout: Duration::from_secs(60),
            observer: None,
            algo: AlgoSelector::default(),
        }
    }
}

/// What an [`PartialAllreduce::allreduce`] call returns.
#[derive(Debug, Clone)]
pub struct AllreduceOutcome {
    /// The reduced (and optionally scaled) buffer, delivered zero-copy: a
    /// shared clone of the latest-wins receive buffer. Read it in place
    /// (`as_f32()` & co), or call [`pcoll_comm::Payload::into_buf`] for
    /// an owned `TypedBuf` (which copies only while the receive buffer
    /// still aliases it — exactly the price the old by-value API paid on
    /// every call).
    pub data: Payload,
    /// The round this call asked for.
    pub requested_round: u64,
    /// The round whose result `data` actually is (≥ `requested_round`;
    /// strictly greater when this rank lagged far enough that its round's
    /// result was already overwritten — §5's staleness effect).
    pub result_round: u64,
}

struct SendBuf {
    /// The pending contribution. Held as a [`Payload`] so an owned
    /// deposit ([`PartialAllreduce::deposit_owned`]) moves straight in
    /// and the engine's snapshot takes it back out without ever copying;
    /// the in-place deposit ([`PartialAllreduce::deposit_fill`]) writes
    /// through copy-on-write (in place in the steady state, where this
    /// handle is the sole owner).
    data: Payload,
    /// Whether `data` holds any deposit since the last snapshot. When
    /// false the buffer is *logically* G_null and its bytes may be stale
    /// garbage (snapshots hand buffers back dirty to skip a zeroing pass
    /// per round); the first deposit overwrites it wholesale and a
    /// snapshot taken while still false zeroes it lazily — the only case
    /// whose bytes anyone observes.
    filled: bool,
    /// Round number of the most recent deposit. A snapshot for round `r`
    /// is *fresh* iff the buffer holds a deposit made for round `r`
    /// itself — this rank "arrived before the initiator" (§4.2's active
    /// process definition, the NAP numerator of Fig. 9). A leftover
    /// deposit from an earlier round still gets *contributed* (stale
    /// data), but does not count as fresh.
    last_deposit_round: Option<u64>,
    /// Recycled buffer for the next snapshot swap (dirty; see `filled`).
    /// Fed by completed rounds whose superseded receive buffer came back
    /// uniquely owned — steady state runs with zero payload-sized
    /// allocations in the deposit/snapshot cycle.
    spare: Option<TypedBuf>,
}

struct RecvBuf {
    latest_round: Option<u64>,
    data: Payload,
    /// Bumped under this lock — at completion beside the result it
    /// publishes, on a miss beside the read that detects it — so a
    /// caller that has seen round `r`'s result also sees `r` counted.
    counters: RoundCounters,
}

struct Shared {
    dtype: DType,
    len: usize,
    opts: PartialOpts,
    rules: RuleTimeline,
    send: Mutex<SendBuf>,
    recv: Mutex<RecvBuf>,
    cv: Condvar,
    /// One past the highest round whose schedule this rank has built —
    /// internal *or external* activation. This is the rank's message
    /// horizon: every message it has ever received is for a round below
    /// it, which makes it the safe fence proposal for the eviction
    /// consensus (a dead peer's last messages all precede its EOF, so by
    /// detection time they are all reflected here).
    built_horizon: AtomicU64,
}

/// The engine-side template: builds each round's schedule from its plan
/// and implements snapshot/complete against the shared buffers.
struct PartialTemplate {
    shared: Arc<Shared>,
    /// `(policy, fresh, null)` of each in-flight round — the plan's
    /// policy from `build`, the snapshot's flags from `snapshot` —
    /// consumed by `complete`. Engine-thread state, bounded by the rounds
    /// in flight.
    in_flight: RefCell<HashMap<u64, (QuorumPolicy, bool, bool)>>,
    op: ReduceOp,
}

impl CollectiveTemplate for PartialTemplate {
    /// Plan, call the builder, remap peers. The builder's activation
    /// phase also fixes the schedule's snapshot timing.
    fn build(&self, round: u64) -> Schedule {
        let shared = &self.shared;
        shared.built_horizon.fetch_max(round + 1, Ordering::Relaxed);
        let rules = &shared.rules;
        let plan = rules.plan(round);
        let vrank = plan.vrank.unwrap_or_else(|| {
            panic!(
                "rank {} builds round {round} of {:?} but is evicted from it",
                rules.rank, rules.coll
            )
        });
        // A round that completes without ever snapshotting contributed
        // nothing of this rank's.
        self.in_flight
            .borrow_mut()
            .insert(round, (plan.policy, false, true));
        let mut sched = match plan.algo {
            AllreduceAlgo::RecursiveDoubling => {
                allreduce_schedule(vrank, plan.p_live, self.op, shared.opts.scale, &plan.mode)
            }
            AllreduceAlgo::SegmentedRing => segmented_allreduce_schedule(
                vrank,
                plan.p_live,
                self.op,
                shared.opts.scale,
                &plan.mode,
                shared.len,
                shared.opts.algo.segment_elems(shared.dtype),
                shared.opts.algo.pipeline_depth,
            ),
        };
        if let Some(live) = &plan.live {
            sched.remap_peers(live);
        }
        sched
    }

    fn snapshot(&self, round: u64) -> Option<Payload> {
        let mut send = self.shared.send.lock();
        if !send.filled {
            // Lazy G_null: the swapped-in buffer is dirty; its bytes are
            // only observable when contributed without a deposit, so the
            // zeroing pass runs exactly then.
            send.data.to_mut().clear();
        }
        let replacement =
            send.spare.take().map(Payload::new).unwrap_or_else(|| {
                Payload::new(TypedBuf::zeros(self.shared.dtype, self.shared.len))
            });
        let data = std::mem::replace(&mut send.data, replacement);
        let fresh = send.last_deposit_round == Some(round);
        send.filled = false;
        send.last_deposit_round = None;
        drop(send);
        if let Some(flags) = self.in_flight.borrow_mut().get_mut(&round) {
            (flags.1, flags.2) = (fresh, data.is_null());
        }
        Some(data)
    }

    /// The one place a round's facts are emitted: the observer's event,
    /// then — under the lock that publishes the result — the counters.
    fn complete(&self, stats: &RoundStats, result: Option<TypedBuf>) {
        let round = stats.round;
        let data = result.expect("allreduce completion carries data");
        let (policy, fresh, null) = self
            .in_flight
            .borrow_mut()
            .remove(&round)
            .expect("a completing round was built");
        if let Some(obs) = &self.shared.opts.observer {
            obs.on_round(&RoundEvent {
                coll: self.shared.rules.coll.0,
                round,
                policy,
                fresh,
                null,
                external: stats.external,
                latency_ms: stats.elapsed.as_secs_f64() * 1e3,
            });
        }
        let mut recv = self.shared.recv.lock();
        recv.counters.completions += 1;
        recv.counters.fresh += u64::from(fresh);
        recv.counters.external += u64::from(stats.external);
        // Latest-wins: never let an out-of-order old round overwrite a
        // newer result.
        let superseded = if recv.latest_round.is_none_or(|l| round > l) {
            recv.latest_round = Some(round);
            Some(std::mem::replace(&mut recv.data, Payload::new(data)))
        } else {
            None
        };
        drop(recv);
        // Recycle the superseded receive buffer into the deposit/snapshot
        // cycle when no outcome clone aliases it any more: the steady
        // state then runs without payload-sized allocations here.
        if let Some(old) = superseded {
            if old.ref_count() == 1
                && !old.is_wire()
                && !old.is_view()
                && old.dtype() == self.shared.dtype
                && old.len() == self.shared.len
            {
                let mut send = self.shared.send.lock();
                if send.spare.is_none() {
                    send.spare = Some(old.into_buf());
                }
            }
        }
        self.shared.cv.notify_all();
    }
}

/// Application handle for one partial allreduce collective on one rank.
///
/// Not `Sync`: one owner (the training thread) advances rounds.
///
/// Three deposit forms, one protocol (claim the round, write into the
/// send buffer — over a logically null one, onto a stale one — activate):
/// [`PartialAllreduce::deposit_fill`] hands out the send buffer itself,
/// [`PartialAllreduce::deposit`] copies a borrowed buffer into it,
/// [`PartialAllreduce::deposit_owned`] moves a uniquely owned payload in.
/// Results are read in place from the [`AllreduceOutcome`]. Filled in
/// place, a rank's tensor-sized buffers form one closed cycle — send →
/// slot 0 → engine pool → assembly/result → receive → spare → send — and
/// the caller holds none. An outcome may be held for any length of time;
/// one still held when the *next* round completes costs that cycle the
/// superseded receive buffer (one allocation to replace it), nothing else.
///
/// Under [`QuorumPolicy::Full`] this is the blocking allreduce the paper
/// baselines against (`MPI_Allreduce`: quorum = P, no rank returns before
/// the slowest arrives, `result_round == requested_round` always). **One
/// round in flight per handle under Full**: the contribution is captured
/// when the deposit activates the round, so a second deposit before the
/// first round's snapshot would fold into it. Overlap comes from several
/// handles (one per tensor: deposit on all, then
/// [`PartialAllreduce::wait_for`] each), not from several rounds of one.
///
/// The handle talks to its engine through the [`TemplateHost`] trait, so
/// the identical frontend drives the threaded [`pcoll_sched::Engine`]
/// (in-process and TCP worlds) and the simulator's staged
/// [`pcoll_sched::CmdQueue`] alike.
pub struct PartialAllreduce {
    shared: Arc<Shared>,
    host: Arc<dyn TemplateHost>,
    next_round: u64,
}

impl PartialAllreduce {
    /// Register a partial allreduce with the given template host, run
    /// from round 0 under `policy` by the sorted `live` ranks of a world
    /// of `p` (a partial set for the fences' consensus collectives, which
    /// are born over the survivors, so even a round built from a
    /// pre-registration message sees them). Must be called in the same
    /// order on all ranks (SPMD); prefer
    /// [`crate::RankCtx::partial_allreduce`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn register(
        host: Arc<dyn TemplateHost>,
        coll: CollId,
        rank: Rank,
        p: usize,
        live: Vec<Rank>,
        seed: u64,
        dtype: DType,
        len: usize,
        op: ReduceOp,
        policy: QuorumPolicy,
        opts: PartialOpts,
    ) -> Self {
        // Any initial world size is legal: non-power-of-two worlds (and
        // non-power-of-two post-eviction live sets) always take the
        // segmented-ring data path, whose structure works for any P.
        let bytes = len * dtype.size_of();
        let initial = RoundRules {
            policy,
            live,
            events: 0,
        };
        let shared = Arc::new(Shared {
            dtype,
            len,
            rules: RuleTimeline::new(coll, rank, p, seed, initial, opts.algo, bytes),
            opts,
            send: Mutex::new(SendBuf {
                data: Payload::new(TypedBuf::zeros(dtype, len)),
                filled: false,
                last_deposit_round: None,
                spare: None,
            }),
            recv: Mutex::new(RecvBuf {
                latest_round: None,
                data: Payload::new(TypedBuf::zeros(dtype, len)),
                counters: RoundCounters::default(),
            }),
            cv: Condvar::new(),
            built_horizon: AtomicU64::new(0),
        });
        host.register_template(
            coll,
            Box::new(PartialTemplate {
                shared: Arc::clone(&shared),
                in_flight: RefCell::new(HashMap::new()),
                op,
            }),
        );
        PartialAllreduce {
            shared,
            host,
            next_round: 0,
        }
    }

    /// The initiator-candidate ranks of `round` under the rules governing
    /// that round (all live ranks for solo/full, the chain/race set
    /// otherwise), as **global** rank ids — evicted ranks are never
    /// candidates.
    pub fn candidates(&self, round: u64) -> Vec<Rank> {
        self.shared.rules.plan(round).candidates()
    }

    /// The policy that will govern the next `allreduce` call.
    pub fn current_policy(&self) -> QuorumPolicy {
        self.shared.rules.with_rules(self.next_round, |r| r.policy)
    }

    /// Switch the quorum policy for every round ≥ `from_round`
    /// (`from_round` must be ≥ [`PartialAllreduce::rounds`] — rounds
    /// already requested keep their agreed schedule shape).
    ///
    /// SPMD + consensus contract, shared by every rule change: all
    /// participants of round `from_round` must apply the identical
    /// change, and none may *enter* that round before all have applied it
    /// (otherwise a fast peer could drag a slow rank into a round whose
    /// schedule the slow rank would still build from the old rules). A
    /// barrier between the change and the next `allreduce` call provides
    /// exactly this ordering — the adaptive trainer does allreduce(stats)
    /// → decide → `set_policy_from` → barrier, the simulation harness
    /// applies changes at one virtual instant.
    pub fn set_policy_from(&self, from_round: u64, policy: QuorumPolicy) {
        self.amend(from_round, |r| r.policy = policy);
    }

    /// Mark `dead` as evicted for every round ≥ `from_round`: those
    /// rounds build their schedules over the surviving live set only
    /// (candidates included), while earlier in-flight rounds complete
    /// through the engine's peer-down null synthesis. Same contract as
    /// [`PartialAllreduce::set_policy_from`] among the survivors;
    /// [`crate::RankCtx::evict`] packages the fence protocol that
    /// provides the ordering.
    pub fn evict_from(&self, from_round: u64, dead: &[Rank]) {
        self.amend(from_round, |r| r.evict(dead));
    }

    /// Re-admit `joiners` for every round ≥ `from_round`: those rounds
    /// build their schedules over the grown live set — the reverse of
    /// [`PartialAllreduce::evict_from`], under the same contract among
    /// survivors and joiners alike; [`crate::RankCtx::admit`] packages
    /// the admission-fence protocol.
    pub fn admit_from(&self, from_round: u64, joiners: &[Rank]) {
        let p = self.shared.rules.p;
        self.amend(from_round, |r| r.admit(joiners, p));
    }

    fn amend(&self, from_round: u64, change: impl FnOnce(&mut RoundRules)) {
        self.shared.rules.amend(self.next_round, from_round, change);
    }

    /// The ranks live in the current tail segment (i.e. not currently
    /// evicted).
    pub fn live_ranks(&self) -> Vec<Rank> {
        self.shared.rules.with_rules(u64::MAX, |r| r.live.clone())
    }

    /// All ranks currently evicted (the complement of
    /// [`PartialAllreduce::live_ranks`]).
    pub fn evicted_ranks(&self) -> Vec<Rank> {
        let live = self.live_ranks();
        (0..self.shared.rules.p)
            .filter(|r| !live.contains(r))
            .collect()
    }

    /// Number of membership events (evictions + admissions) applied so
    /// far — events, not segments, so two events agreed at one fence
    /// count twice.
    pub fn eviction_epoch(&self) -> usize {
        self.shared.rules.with_rules(u64::MAX, |r| r.events)
    }

    /// Snapshot of the `(from_round, rules)` segments — what a joiner's
    /// state transfer ships (see [`PartialAllreduce::import_state`]).
    pub fn rule_segments(&self) -> Vec<(u64, RoundRules)> {
        self.shared.rules.segments()
    }

    /// Install the survivors' segments on a freshly registered handle —
    /// the joiner side of the admission protocol. A re-admitted rank
    /// missed every rule change since it died, so it registers its
    /// collectives in SPMD order like a newborn rank, installs the
    /// survivors' history wholesale, then fast-forwards to the admission
    /// fence ([`PartialAllreduce::fast_forward_to`]). The segments come
    /// from peers, so malformed ones are an `Err` that fails the admission
    /// and leaves the timeline untouched; importing into a handle that
    /// already made local progress is a caller bug and panics.
    pub fn import_state(&self, segments: Vec<(u64, RoundRules)>) -> Result<(), String> {
        assert_eq!(
            self.next_round, 0,
            "import_state on a handle that already ran rounds"
        );
        self.shared.rules.import(segments)
    }

    /// Advance this handle's round counter to `round` without running
    /// the skipped rounds — the joiner's final admission step: its first
    /// deposit after re-admission must be for the admission fence `F`,
    /// the first round whose schedule includes it again. Rounds < `F`
    /// happened while it was dead; their results are gone. No-op when
    /// `round` is already reached.
    pub fn fast_forward_to(&mut self, round: u64) {
        self.next_round = self.next_round.max(round);
    }

    /// One past the highest round this rank has *seen* — deposited
    /// locally or built on external activation. Every message this rank
    /// has ever received is for a round below the horizon, which makes it
    /// the safe per-rank fence proposal for the eviction consensus: a
    /// dead peer's messages all precede its connection teardown, so by
    /// detection time they are all reflected here.
    pub fn horizon(&self) -> u64 {
        self.next_round
            .max(self.shared.built_horizon.load(Ordering::Relaxed))
    }

    /// Perform one eager round: deposit `contrib`, trigger (or join) the
    /// round, and return as soon as a result for this round *or any newer
    /// round* is available.
    ///
    /// Fig. 7 in one method: if this rank is fast it initiates (or waits
    /// for the designated initiator, per policy) and its fresh gradient is
    /// included; if it is slow, the round already completed with its
    /// stale/null contribution, the call returns immediately with the
    /// latest result, and `contrib` stays in the send buffer for the next
    /// round.
    pub fn allreduce(&mut self, contrib: &TypedBuf) -> AllreduceOutcome {
        let round = self.deposit(contrib);
        self.wait_for(round)
    }

    /// The non-blocking half of [`PartialAllreduce::allreduce`]: deposit
    /// `contrib` and trigger (or join) the next round, without waiting for
    /// its result. Returns the round number to poll with
    /// [`PartialAllreduce::try_outcome`]. Event-driven callers — the
    /// discrete-event simulator, whose single thread must never block —
    /// use this split; `allreduce` is exactly `deposit` + a blocking wait.
    pub fn deposit(&mut self, contrib: &TypedBuf) -> u64 {
        self.deposit_fill(|dst| {
            assert_eq!(contrib.len(), dst.len(), "contribution length");
            let copied = dst.copy_from_at(0, contrib, 0, contrib.len());
            copied.expect("contribution dtype")
        })
    }

    /// Deposit by writing the contribution where the round reads it
    /// (Fig. 7's one send buffer): `fill` must overwrite every element of
    /// the buffer it is handed, whose contents are unspecified. On pace
    /// that is the resident send buffer; onto a stale deposit
    /// ([`StaleMode::Accumulate`]) it is the spare, folded in afterwards.
    /// `fill` runs under the send lock: no calls back into this handle.
    pub fn deposit_fill(&mut self, fill: impl FnOnce(&mut TypedBuf)) -> u64 {
        self.deposit_with(|send, overwrite| {
            if overwrite {
                fill(send.data.to_mut());
                return Ok(());
            }
            let spare = send.spare.take();
            let mut fresh = spare.unwrap_or_else(|| send.data.to_mut().zeros_like());
            fill(&mut fresh);
            let folded = send.data.to_mut().combine(&fresh, ReduceOp::Sum);
            send.spare = Some(fresh);
            folded
        })
    }

    /// The one deposit protocol, around `fill(send buffer, overwrite)`:
    /// claim the next round, write the contribution in — wholesale when
    /// the buffer is logically null (or under [`StaleMode::Replace`]),
    /// accumulating otherwise — and activate the round.
    fn deposit_with(
        &mut self,
        fill: impl FnOnce(&mut SendBuf, bool) -> Result<(), pcoll_comm::BufError>,
    ) -> u64 {
        let round = self.next_round;
        self.next_round += 1;
        {
            let mut send = self.shared.send.lock();
            let overwrite = match self.shared.opts.stale_mode {
                // Accumulating into a logically-null buffer is a plain
                // overwrite — the fast path every on-pace round takes
                // (and what makes the dirty-buffer recycling sound).
                StaleMode::Accumulate => !send.filled,
                StaleMode::Replace => true,
            };
            fill(&mut send, overwrite).expect("contribution shape matches the collective's");
            send.filled = true;
            send.last_deposit_round = Some(round);
        }
        self.host.activate_round(self.shared.rules.coll, round);
        round
    }

    /// [`PartialAllreduce::allreduce`] with an owned contribution: the
    /// on-pace deposit is a move of the caller's buffer into the send
    /// slot (plus a refcount bump at snapshot), not an element copy.
    pub fn allreduce_owned(&mut self, contrib: Payload) -> AllreduceOutcome {
        let round = self.deposit_owned(contrib);
        self.wait_for(round)
    }

    /// The owned counterpart of [`PartialAllreduce::deposit`]: when
    /// `contrib` is a uniquely-owned full-range typed payload — the
    /// common case of a freshly computed gradient — the overwrite path
    /// *moves* it into the send slot and recycles the displaced buffer
    /// as the next snapshot's spare, so the deposit/snapshot cycle does
    /// no element copies at all. A shared or view/wire payload falls
    /// back to copying into the resident buffer (moving a still-aliased
    /// payload in would let the caller's clone pin the snapshot buffer
    /// and starve the engine's scratch pool). The accumulate path folds
    /// with [`Payload::reduce_assign`].
    pub fn deposit_owned(&mut self, contrib: Payload) -> u64 {
        assert_eq!(contrib.dtype(), self.shared.dtype, "contribution dtype");
        assert_eq!(contrib.len(), self.shared.len, "contribution length");
        self.deposit_with(|send, overwrite| {
            if !overwrite {
                return send.data.reduce_assign(&contrib, ReduceOp::Sum);
            }
            if contrib.ref_count() > 1 || contrib.is_view() || contrib.is_wire() {
                return contrib.copy_into_at(send.data.to_mut(), 0);
            }
            let old = std::mem::replace(&mut send.data, contrib);
            if send.spare.is_none() {
                send.spare = old.try_into_buf().ok();
            }
            Ok(())
        })
    }

    /// Non-blocking poll for a result for `round` or newer: `Some` with
    /// the latest-wins outcome once available, `None` while the round is
    /// still in flight. Miss accounting matches the blocking path.
    pub fn try_outcome(&self, round: u64) -> Option<AllreduceOutcome> {
        self.outcome_if_ready(&mut self.shared.recv.lock(), round)
    }

    /// The latest-wins outcome for `round` if a result for it or a newer
    /// round has landed in `recv`, with miss accounting.
    fn outcome_if_ready(&self, recv: &mut RecvBuf, round: u64) -> Option<AllreduceOutcome> {
        let latest = recv.latest_round.filter(|l| *l >= round)?;
        if latest > round {
            recv.counters.missed += 1;
            if let Some(obs) = &self.shared.opts.observer {
                obs.on_miss(round, latest);
            }
        }
        Some(AllreduceOutcome {
            data: recv.data.clone(),
            requested_round: round,
            result_round: latest,
        })
    }

    /// Block until a result for `round` (as returned by
    /// [`PartialAllreduce::deposit`] / [`PartialAllreduce::deposit_owned`])
    /// or newer is available — the blocking half of
    /// [`PartialAllreduce::allreduce`].
    pub fn wait_for(&self, round: u64) -> AllreduceOutcome {
        let deadline = std::time::Instant::now() + self.shared.opts.wait_timeout;
        let mut recv = self.shared.recv.lock();
        loop {
            if let Some(outcome) = self.outcome_if_ready(&mut recv, round) {
                return outcome;
            }
            let timeout = deadline.saturating_duration_since(std::time::Instant::now());
            if timeout.is_zero() {
                panic!(
                    "partial allreduce {:?} round {round} timed out after {:?} \
                     (latest completed: {:?})",
                    self.shared.rules.coll, self.shared.opts.wait_timeout, recv.latest_round
                );
            }
            self.shared.cv.wait_for(&mut recv, timeout);
        }
    }

    /// Rounds executed so far on this rank.
    pub fn rounds(&self) -> u64 {
        self.next_round
    }

    /// Snapshot of this collective's cumulative round counters.
    pub fn counters(&self) -> RoundCounters {
        self.shared.recv.lock().counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::RankCtx;
    use crate::select::{AlgoSelector, AllreduceAlgo};
    use pcoll_comm::{World, WorldConfig};

    fn f32s(v: &[f32]) -> TypedBuf {
        TypedBuf::from(v.to_vec())
    }

    #[test]
    fn chain_of_all_ranks_gives_deterministic_full_sum() {
        // With every rank on the initiator chain, the round starts only
        // after everyone arrived, so every contribution is provably fresh
        // and the sums are exact — this pins down the data-phase math.
        let p = 8;
        let out = World::launch(WorldConfig::instant(p), move |c| {
            let ctx = RankCtx::new(c);
            let mut ar = ctx.partial_allreduce(
                DType::F32,
                4,
                ReduceOp::Sum,
                QuorumPolicy::Chain(p),
                PartialOpts::default(),
            );
            let me = ctx.rank() as f32;
            let mut sums = Vec::new();
            for r in 0..5u64 {
                let out = ar.allreduce(&f32s(&[me + r as f32; 4]));
                sums.push(out.data.as_f32().unwrap()[0]);
            }
            ctx.finalize();
            sums
        });
        // Σ over ranks of (rank + r): 28 + 8r for p=8.
        for sums in out {
            for (r, s) in sums.iter().enumerate() {
                assert_eq!(*s, 28.0 + 8.0 * r as f32, "round {r}");
            }
        }
    }

    #[test]
    fn segmented_ring_chain_of_all_gives_deterministic_full_sum() {
        // Same pin-down as the recursive-doubling test above, on the
        // segmented data path: chain-of-all makes every contribution
        // provably fresh, so sums are exact. Segment size is forced tiny
        // (16 elements over a 50-element tensor → 4 segments, chunk
        // tails, and degenerate chunks) to cover the ragged shapes.
        let p = 8;
        let out = World::launch(WorldConfig::instant(p), move |c| {
            let ctx = RankCtx::new(c);
            let mut ar = ctx.partial_allreduce(
                DType::F32,
                50,
                ReduceOp::Sum,
                QuorumPolicy::Chain(p),
                PartialOpts {
                    algo: AlgoSelector {
                        pin: Some(AllreduceAlgo::SegmentedRing),
                        segment_bytes: 16 * 4,
                        pipeline_depth: 2,
                        ..AlgoSelector::default()
                    },
                    ..PartialOpts::default()
                },
            );
            let me = ctx.rank() as f32;
            let mut sums = Vec::new();
            for r in 0..5u64 {
                let out = ar.allreduce(&f32s(&[me + r as f32; 50]));
                let v = out.data.as_f32().unwrap();
                assert!(v.iter().all(|x| *x == v[0]), "uniform tensor stays uniform");
                sums.push(v[0]);
            }
            ctx.finalize();
            sums
        });
        for sums in out {
            for (r, s) in sums.iter().enumerate() {
                assert_eq!(*s, 28.0 + 8.0 * r as f32, "round {r}");
            }
        }
    }

    #[test]
    fn segmented_ring_solo_conserves_mass_under_skew() {
        // Fig. 7 conservation on the segmented path: every deposit lands
        // in exactly one round's sum even when slow ranks are dragged in
        // externally with stale/null chunks.
        let p = 4;
        let out = World::launch(WorldConfig::instant(p), move |c| {
            let ctx = RankCtx::new(c);
            let mut ar = ctx.partial_allreduce(
                DType::F32,
                24,
                ReduceOp::Sum,
                QuorumPolicy::Solo,
                PartialOpts {
                    algo: AlgoSelector::segmented(8 * 4),
                    ..PartialOpts::default()
                },
            );
            let mut total = 0.0f64;
            for round in 0..6u64 {
                std::thread::sleep(Duration::from_micros(
                    (ctx.rank() as u64 * 900 + round * 170) % 3000,
                ));
                let got = ar.allreduce(&f32s(&[1.0; 24]));
                total += f64::from(got.data.as_f32().unwrap()[0]);
                ctx.barrier();
            }
            total += f64::from(ar.allreduce(&f32s(&[0.0; 24])).data.as_f32().unwrap()[0]);
            ctx.barrier();
            ctx.finalize();
            total
        });
        for (rank, total) in out.iter().enumerate() {
            assert!(
                (total - 24.0).abs() < 1e-6,
                "rank {rank} accounted {total}, deposited 24"
            );
        }
    }

    #[test]
    fn solo_slow_ranks_contribute_null_then_stale() {
        // Rank 0 is the only prompt rank in round 0; ranks 1..3 sleep.
        // Round 0 therefore completes with only rank 0's gradient, and the
        // sleepers' deposits ride into round 1 as stale data (Fig. 7).
        let p = 4;
        let out = World::launch(WorldConfig::instant(p), move |c| {
            let ctx = RankCtx::new(c);
            let log = Arc::new(RoundLog::default());
            let mut ar = ctx.partial_allreduce(
                DType::F32,
                1,
                ReduceOp::Sum,
                QuorumPolicy::Solo,
                PartialOpts {
                    observer: Some(log.clone()),
                    ..PartialOpts::default()
                },
            );
            if ctx.rank() != 0 {
                std::thread::sleep(Duration::from_millis(300));
            }
            let r0 = ar.allreduce(&f32s(&[1.0]));
            // Message barrier: all round-0 business settles.
            ctx.barrier();
            let r1 = ar.allreduce(&f32s(&[1.0]));
            ctx.barrier();
            ctx.finalize();
            (
                r0.data.as_f32().unwrap()[0],
                r1.data.as_f32().unwrap()[0],
                log.events(),
            )
        });
        for (r, o) in out.iter().enumerate() {
            // Round 0: only rank 0 was awake.
            assert_eq!(o.0, 1.0, "rank {r} round 0 sum");
            // Round 1: three stale + at least the initiator's fresh
            // deposit; at most all four fresh ⇒ sum in [4, 7].
            assert!(
                (4.0..=7.0).contains(&o.1),
                "rank {r} round 1 sum {} outside [4,7]",
                o.1
            );
        }
        // Sleepers' round-0 snapshots were null; rank 0's was fresh.
        for (r, o) in out.iter().enumerate().skip(1) {
            let t = &o.2;
            assert!(
                t.iter().any(|t| t.round == 0 && t.null),
                "rank {r} round-0 contribution must be G_null, events {t:?}"
            );
        }
        assert!(out[0].2.iter().any(|t| t.round == 0 && t.fresh));
    }

    #[test]
    fn majority_waits_for_designated_initiator() {
        // With the initiator forced slow, majority completes only after it
        // arrives, so everyone's fresh gradient is included.
        let p = 4;
        let seed = 11;
        let out = World::launch(WorldConfig::instant(p).with_seed(seed), move |c| {
            let ctx = RankCtx::new(c);
            let mut ar = ctx.partial_allreduce(
                DType::F32,
                1,
                ReduceOp::Sum,
                QuorumPolicy::Majority,
                PartialOpts::default(),
            );
            // The designated initiator of round 0 sleeps; all other
            // ranks deposit fresh data before it arrives.
            let init = ar.candidates(0)[0];
            if ctx.rank() == init {
                std::thread::sleep(Duration::from_millis(200));
            }
            let r0 = ar.allreduce(&f32s(&[1.0]));
            ctx.barrier();
            ctx.finalize();
            r0.data.as_f32().unwrap()[0]
        });
        for (r, v) in out.iter().enumerate() {
            assert_eq!(
                *v, 4.0,
                "rank {r}: majority must include every fresh deposit"
            );
        }
    }

    #[test]
    fn results_are_bitwise_identical_across_ranks() {
        // Recursive doubling's pairwise exchanges make the reduction order
        // commute identically on every rank — results must match bitwise.
        let p = 16;
        let n = 257;
        let out = World::launch(WorldConfig::instant(p), move |c| {
            let ctx = RankCtx::new(c);
            let mut ar = ctx.partial_allreduce(
                DType::F32,
                n,
                ReduceOp::Sum,
                QuorumPolicy::Full,
                PartialOpts::default(),
            );
            let me = ctx.rank();
            let contrib: Vec<f32> = (0..n).map(|i| ((me * 31 + i) as f32 * 0.1).sin()).collect();
            let out = ar.allreduce(&TypedBuf::from(contrib));
            ctx.finalize();
            out.data.as_f32().unwrap().to_vec()
        });
        for r in 1..p {
            assert_eq!(out[0], out[r], "rank {r} differs from rank 0");
        }
    }

    #[test]
    fn policy_switch_mid_run_changes_round_semantics() {
        // Start solo, run a couple of rounds, then switch every rank to
        // Chain(p) with the consensus ordering the trainer uses
        // (set_policy_from on all ranks, then a barrier, then the next
        // round). Chain-of-all rounds are deterministic full sums, which
        // proves the engine rebuilt schedules from the new segment.
        let p = 4;
        let out = World::launch(WorldConfig::instant(p), move |c| {
            let ctx = RankCtx::new(c);
            let mut ar = ctx.partial_allreduce(
                DType::F32,
                1,
                ReduceOp::Sum,
                QuorumPolicy::Solo,
                PartialOpts::default(),
            );
            for _ in 0..2 {
                let _ = ar.allreduce(&f32s(&[1.0]));
                ctx.barrier();
            }
            assert_eq!(ar.current_policy(), QuorumPolicy::Solo);
            ar.set_policy_from(ar.rounds(), QuorumPolicy::Chain(p));
            ctx.barrier();
            assert_eq!(ar.current_policy(), QuorumPolicy::Chain(p));
            let me = ctx.rank() as f32;
            let mut sums = Vec::new();
            for _ in 0..3 {
                sums.push(ar.allreduce(&f32s(&[me])).data.as_f32().unwrap()[0]);
            }
            let switches = ar.rule_segments().into_iter().map(|(f, r)| (f, r.policy));
            assert_eq!(
                switches.collect::<Vec<_>>(),
                [(0, QuorumPolicy::Solo), (2, QuorumPolicy::Chain(p))]
            );
            ctx.finalize();
            sums
        });
        // Σ rank = 6 for p = 4. The first chain round may additionally
        // carry stale solo-phase deposits (Fig. 7 accumulation), so only
        // the settled rounds are exact.
        for sums in out {
            assert!(sums[0] >= 6.0, "first chain round at least the full sum");
            assert_eq!(sums[1..], [6.0, 6.0]);
        }
    }

    // --- The one timeline: what governs round r, derived once. ---

    fn whole(p: usize, policy: QuorumPolicy) -> RoundRules {
        RoundRules {
            policy,
            live: (0..p).collect(),
            events: 0,
        }
    }

    fn timeline(p: usize, policy: QuorumPolicy) -> RuleTimeline {
        RuleTimeline::new(
            CollId(1),
            0,
            p,
            7,
            whole(p, policy),
            AlgoSelector::default(),
            16,
        )
    }

    #[test]
    #[should_panic(expected = "append-only")]
    fn timeline_rejects_rewrites() {
        let t = timeline(4, QuorumPolicy::Solo);
        t.amend(0, 10, |r| r.policy = QuorumPolicy::Majority);
        t.amend(0, 5, |r| r.policy = QuorumPolicy::Full);
    }

    #[test]
    #[should_panic(expected = "append-only")]
    fn timeline_rejects_rounds_already_requested() {
        timeline(4, QuorumPolicy::Solo).amend(3, 2, |r| r.policy = QuorumPolicy::Full);
    }

    #[test]
    fn timeline_lookup_follows_segments() {
        let t = timeline(4, QuorumPolicy::Solo);
        t.amend(0, 4, |r| r.policy = QuorumPolicy::Chain(2));
        t.amend(0, 4, |r| r.policy = QuorumPolicy::Majority); // same boundary: replace
        t.amend(0, 9, |r| r.policy = QuorumPolicy::Majority); // no-op: tail already holds it
        assert_eq!(t.plan(0).policy, QuorumPolicy::Solo);
        assert_eq!(t.plan(3).policy, QuorumPolicy::Solo);
        assert_eq!(t.plan(4).policy, QuorumPolicy::Majority);
        assert_eq!(t.plan(100).policy, QuorumPolicy::Majority);
        assert_eq!(t.segments().len(), 2, "one switch");
        // A rewrite back to the predecessor's rules never governed a
        // round: it leaves no segment behind.
        t.amend(0, 4, |r| r.policy = QuorumPolicy::Solo);
        assert_eq!(t.segments(), [(0, whole(4, QuorumPolicy::Solo))]);
    }

    #[test]
    fn the_epoch_counts_events_not_segments() {
        // Two events agreed at one fence share a segment; the count that
        // allocates the fences' consensus ids must still move twice.
        let epoch = |t: &RuleTimeline| t.with_rules(u64::MAX, |r| r.events);
        let t = timeline(8, QuorumPolicy::Full);
        t.amend(0, 5, |r| r.evict(&[3]));
        t.amend(0, 5, |r| r.evict(&[2]));
        t.amend(0, 5, |r| r.evict(&[2])); // already gone: not an event
        assert_eq!((epoch(&t), t.segments().len()), (2, 2));
        assert_eq!(t.plan(4).live, None);
        assert_eq!(t.plan(5).live, Some(vec![0, 1, 4, 5, 6, 7]));
        let t = timeline(8, QuorumPolicy::Full);
        t.amend(0, 5, |r| r.evict(&[3]));
        t.amend(0, 5, |r| r.admit(&[3], 8));
        assert_eq!((epoch(&t), t.plan(5).live), (2, None), "whole again");
    }

    #[test]
    fn import_state_rejects_malformed_segments_and_keeps_the_timeline() {
        use QuorumPolicy::{Full, Solo};
        let ar = PartialAllreduce::register(
            Arc::new(pcoll_sched::CmdQueue::new()),
            CollId(1),
            0,
            4,
            (0..4).collect(),
            11,
            DType::F32,
            4,
            ReduceOp::Sum,
            Solo,
            PartialOpts::default(),
        );
        let pristine = ar.rule_segments();
        let over = |live: Vec<Rank>| RoundRules {
            live,
            ..whole(4, Full)
        };
        let malformed = [
            (vec![], "start at round 0"),
            (vec![(3, whole(4, Full))], "start at round 0"),
            (
                vec![
                    (0, whole(4, Solo)),
                    (5, over(vec![0, 1])),
                    (5, over(vec![0])),
                ],
                "increase",
            ),
            (
                vec![(0, whole(4, Solo)), (4, over(vec![]))],
                "sorted subset",
            ),
            (
                vec![(0, whole(4, Solo)), (4, over(vec![2, 1]))],
                "sorted subset",
            ),
            (
                vec![(0, whole(4, Solo)), (4, over(vec![0, 4]))],
                "sorted subset",
            ),
        ];
        for (segments, why) in malformed {
            let err = ar.import_state(segments.clone()).expect_err("malformed");
            assert!(err.contains(why), "{segments:?}: {err}");
            assert_eq!(ar.rule_segments(), pristine, "{segments:?} touched it");
        }
        let good = vec![(0, whole(4, Solo)), (6, over(vec![0, 1, 3]))];
        ar.import_state(good.clone())
            .expect("well-formed segments import");
        assert_eq!(ar.rule_segments(), good);
    }

    #[test]
    fn schedules_timing_and_candidates_all_follow_the_plan() {
        // Every policy × world size × rank × round, the second half of
        // the rounds over a live set with a hole: the built schedules
        // pair up, snapshot at activation exactly where the rank's own
        // arrival gates the round, and candidate queries agree.
        use pcoll_sched::{CmdQueue, OpKind, ScheduleBuilder, SnapshotTiming};
        use QuorumPolicy::*;
        const FENCE: u64 = 8;
        for p in 2..=9usize {
            let mut policies = vec![Solo, Majority, Full];
            policies.extend((1..=p).flat_map(|m| [FirstOf(m), Chain(m)]));
            for policy in policies {
                let world: Vec<_> = (0..p)
                    .map(|rank| {
                        let ar = PartialAllreduce::register(
                            Arc::new(CmdQueue::new()),
                            CollId(1),
                            rank,
                            p,
                            (0..p).collect(),
                            11,
                            DType::F32,
                            4,
                            ReduceOp::Sum,
                            policy,
                            PartialOpts::default(),
                        );
                        ar.evict_from(FENCE, &[1]);
                        let template = PartialTemplate {
                            shared: Arc::clone(&ar.shared),
                            in_flight: RefCell::default(),
                            op: ReduceOp::Sum,
                        };
                        (ar, template)
                    })
                    .collect();
                for round in 0..2 * FENCE {
                    let live: Vec<Rank> = (0..p).filter(|&r| round < FENCE || r != 1).collect();
                    let build = |rank: Rank| {
                        let (ar, template) = &world[rank];
                        let Some(vrank) = live.iter().position(|&r| r == rank) else {
                            // Not in the round: nothing may address it.
                            let mut idle = ScheduleBuilder::new();
                            let nop = idle.op(OpKind::Nop, vec![]);
                            idle.completion(nop);
                            return idle.build();
                        };
                        let (gated, virt) = match ar.shared.rules.plan(round).mode {
                            ActivationMode::Full => (true, (0..live.len()).collect()),
                            ActivationMode::Chain(c) => (c.contains(&vrank), c),
                            ActivationMode::Race(c) => (false, c),
                        };
                        let cands: Vec<Rank> = virt.iter().map(|&v| live[v]).collect();
                        assert_eq!(ar.candidates(round), cands, "{policy} p={p} round {round}");
                        let sched = template.build(round);
                        let at_activation = sched.snapshot_at == SnapshotTiming::Activation;
                        // (A one-rank world is its own gate under any mode.)
                        let gated = gated || live.len() == 1;
                        assert_eq!(
                            at_activation, gated,
                            "{policy} p={p} rank {rank} round {round}"
                        );
                        sched
                    };
                    let scheds: Vec<Schedule> = (0..p).map(build).collect();
                    crate::builders::tests::check_send_recv_pairing(&scheds);
                }
            }
        }
    }

    mod proptests {
        use super::QuorumPolicy::*;
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// The timeline answers every round like a naive replay of
            /// the event list, survives a state transfer, counts the
            /// events that changed the live set, and is append-only.
            /// An event is `(round advance, kind, policy pick, rank mask)`.
            #[test]
            fn timeline_equals_a_naive_replay(
                p in 1usize..10,
                events in proptest::collection::vec(
                    (0u64..4, 0usize..3, 0usize..12, any::<u16>()), 0..24),
            ) {
                let t = timeline(p, Solo);
                // (from_round, policy, live) after each applied event.
                let mut replay = vec![(0u64, Solo, (0..p).collect::<Vec<Rank>>())];
                let mut changes = 0;
                for (advance, kind, m, mask) in events {
                    let (last, mut policy, before) = replay.last().cloned().unwrap();
                    let from = last + advance;
                    let picked = |r: &Rank| mask >> r & 1 == 1;
                    let ranks: Vec<Rank> = (0..p).filter(picked).collect();
                    let mut live = before.clone();
                    match kind {
                        0 => {
                            policy = [Solo, Majority, FirstOf(m), Chain(m), Full][m % 5];
                            t.amend(0, from, |r| r.policy = policy);
                        }
                        1 if before.iter().all(picked) => continue, // the last live rank stays
                        1 => {
                            live.retain(|r| !picked(r));
                            t.amend(0, from, |r| r.evict(&ranks));
                        }
                        _ => {
                            live = (0..p).filter(|r| picked(r) || before.contains(r)).collect();
                            t.amend(0, from, |r| r.admit(&ranks, p));
                        }
                    }
                    changes += usize::from(live != before);
                    replay.push((from, policy, live));
                }
                prop_assert_eq!(t.with_rules(u64::MAX, |r| r.events), changes);
                let copy = timeline(p, Full);
                prop_assert_eq!(copy.import(t.segments()), Ok(()));
                for round in 0..replay.last().unwrap().0 + 2 {
                    let (_, policy, live) = replay.iter().rev().find(|e| e.0 <= round).unwrap();
                    let plan = t.plan(round);
                    prop_assert_eq!(plan.policy, *policy);
                    prop_assert_eq!(&plan.live, &(live.len() != p).then(|| live.clone()));
                    prop_assert_eq!(copy.plan(round), plan);
                }
                let tail = t.segments().last().unwrap().0;
                let below = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    t.amend(0, tail.wrapping_sub(1), |r| r.policy = Chain(77));
                }));
                prop_assert_eq!(below.is_err(), tail > 0, "appending below the tail panics");
            }
        }
    }

    #[test]
    fn observer_receives_round_events_and_misses() {
        #[derive(Default)]
        struct Collect {
            rounds: Mutex<Vec<RoundEvent>>,
            misses: Mutex<Vec<(u64, u64)>>,
        }
        impl RoundObserver for Collect {
            fn on_round(&self, ev: &RoundEvent) {
                self.rounds.lock().push(ev.clone());
            }
            fn on_miss(&self, requested: u64, got: u64) {
                self.misses.lock().push((requested, got));
            }
        }
        let p = 4;
        let out = World::launch(WorldConfig::instant(p), move |c| {
            let ctx = RankCtx::new(c);
            let obs = Arc::new(Collect::default());
            let mut ar = ctx.partial_allreduce(
                DType::F32,
                1,
                ReduceOp::Sum,
                QuorumPolicy::Solo,
                PartialOpts {
                    observer: Some(Arc::clone(&obs) as Arc<dyn RoundObserver>),
                    ..PartialOpts::default()
                },
            );
            // Rank 0 races ahead; sleepers get dragged in externally.
            if ctx.rank() != 0 {
                std::thread::sleep(Duration::from_millis(200));
            }
            let _ = ar.allreduce(&f32s(&[1.0]));
            ctx.barrier();
            let _ = ar.allreduce(&f32s(&[1.0]));
            ctx.barrier();
            ctx.finalize();
            let rounds = obs.rounds.lock().clone();
            let misses = obs.misses.lock().len();
            (rounds, misses)
        });
        for (rank, (rounds, _)) in out.iter().enumerate() {
            assert!(
                rounds.iter().any(|e| e.round == 0),
                "rank {rank}: round-0 event missing, got {rounds:?}"
            );
            for e in rounds {
                assert!(e.latency_ms >= 0.0);
                assert_eq!(e.policy, QuorumPolicy::Solo);
            }
        }
        // Rank 0 ran round 0 alone, so every sleeper's round-0 instance
        // was created externally with a null snapshot.
        for (rank, (rounds, _)) in out.iter().enumerate().skip(1) {
            let r0 = rounds.iter().find(|e| e.round == 0).unwrap();
            assert!(r0.external, "rank {rank} must be dragged in externally");
            assert!(r0.null, "rank {rank} round-0 snapshot must be G_null");
        }
        let r0 = out[0].0.iter().find(|e| e.round == 0).unwrap();
        assert!(r0.fresh && !r0.external);
    }

    #[test]
    fn round_log_totals_equal_the_counters() {
        // Every per-round fact is emitted once, from one place: under a
        // skewed Solo run (null, stale, fresh and dragged-in rounds all
        // occur) the observer's events and the counters agree exactly.
        const ROUNDS: u64 = 40;
        let p = 4;
        let out = World::launch(WorldConfig::instant(p), move |c| {
            let ctx = RankCtx::new(c);
            let log = Arc::new(RoundLog::default());
            let mut ar = ctx.partial_allreduce(
                DType::F32,
                2,
                ReduceOp::Sum,
                QuorumPolicy::Solo,
                PartialOpts {
                    observer: Some(log.clone()),
                    ..PartialOpts::default()
                },
            );
            let mut before = RoundCounters::default();
            for round in 0..ROUNDS {
                std::thread::sleep(Duration::from_micros(
                    (ctx.rank() as u64 * 700 + round * 130) % 2500,
                ));
                let _ = ar.allreduce(&f32s(&[1.0; 2]));
                let now = ar.counters();
                let window = now.since(&before);
                assert!(window.fresh <= window.completions, "{window:?}");
                before = now;
            }
            ctx.barrier();
            ctx.finalize();
            (log.events(), ar.counters())
        });
        let mut dragged = 0;
        for (rank, (events, c)) in out.iter().enumerate() {
            assert_eq!(events.len() as u64, c.completions, "rank {rank}");
            assert_eq!(c.completions, ROUNDS, "rank {rank}: every round completes");
            let fresh = events.iter().filter(|e| e.fresh).count() as u64;
            let external = events.iter().filter(|e| e.external).count() as u64;
            assert_eq!((fresh, external), (c.fresh, c.external), "rank {rank}");
            assert!(events.windows(2).all(|w| w[0].round < w[1].round));
            dragged += c.external;
        }
        assert!(dragged > 0, "the skew never dragged anyone in");
    }

    #[test]
    fn round_event_and_policy_serialize_to_json() {
        let e = RoundEvent {
            coll: 1,
            round: 3,
            policy: QuorumPolicy::Chain(2),
            fresh: true,
            null: false,
            external: true,
            latency_ms: 1.5,
        };
        let s = serde_json::to_string(&e).unwrap();
        assert!(s.contains("\"round\":3"), "{s}");
        for policy in [
            QuorumPolicy::Solo,
            QuorumPolicy::FirstOf(3),
            QuorumPolicy::Chain(2),
            QuorumPolicy::Majority,
            QuorumPolicy::Full,
        ] {
            let s = serde_json::to_string(&policy).unwrap();
            let back: QuorumPolicy = serde_json::from_str(&s).unwrap();
            assert_eq!(back, policy, "{s}");
        }
    }

    // --- The blocking contract of the synchronous baseline
    // (`RankCtx::sync_allreduce` = this frontend at `Full`). ---

    #[test]
    fn full_sums_any_world_size() {
        // Non-powers of two must route to the segmented ring: recursive
        // doubling's builder rejects them outright, so these sizes
        // completing *is* the routing check.
        for p in [1usize, 2, 3, 5, 8, 12] {
            let out = World::launch(WorldConfig::instant(p), move |c| {
                let ctx = RankCtx::new(c);
                let mut ar = ctx.sync_allreduce(DType::F64, 3, ReduceOp::Sum, None);
                let me = ctx.rank() as f64;
                let r = ar.allreduce(&TypedBuf::from(vec![me, 1.0, -me]));
                ctx.finalize();
                r.data.as_f64().unwrap().to_vec()
            });
            let total: f64 = (0..p).map(|r| r as f64).sum();
            for (r, v) in out.iter().enumerate() {
                assert_eq!(v, &[total, p as f64, -total], "p={p} rank {r}");
            }
        }
    }

    #[test]
    fn full_waits_for_slowest() {
        // The straggler delays everyone: no rank's call returns before
        // it arrives.
        let delay = Duration::from_millis(150);
        let out = World::launch(WorldConfig::instant(4), move |c| {
            let ctx = RankCtx::new(c);
            let mut ar = ctx.sync_allreduce(DType::F32, 1, ReduceOp::Sum, None);
            ctx.host_barrier();
            let t0 = std::time::Instant::now();
            if ctx.rank() == 2 {
                std::thread::sleep(delay);
            }
            let _ = ar.allreduce(&f32s(&[1.0]));
            let dt = t0.elapsed();
            ctx.finalize();
            dt
        });
        for (r, dt) in out.iter().enumerate() {
            assert!(*dt >= delay, "rank {r} returned after {dt:?} < {delay:?}");
        }
    }

    #[test]
    fn full_reduces_every_dtype_and_op_and_scales() {
        // Ranks 0..4 contribute (me, -me): sum (6, -6), max (3, 0), min
        // (0, -3); `scale` 0.5 halves the float results.
        let cases = [
            (ReduceOp::Sum, [6i32, -6]),
            (ReduceOp::Max, [3, 0]),
            (ReduceOp::Min, [0, -3]),
        ];
        let out = World::launch(WorldConfig::instant(4), move |c| {
            let ctx = RankCtx::new(c);
            let me = ctx.rank() as i32;
            let mut got = Vec::new();
            for (op, _) in cases {
                for contrib in [
                    TypedBuf::from(vec![me as f32, -me as f32]),
                    TypedBuf::from(vec![f64::from(me), f64::from(-me)]),
                    TypedBuf::from(vec![me, -me]),
                    TypedBuf::from(vec![i64::from(me), i64::from(-me)]),
                ] {
                    let scale = (contrib.dtype() == DType::F64).then_some(0.5);
                    let mut ar = ctx.sync_allreduce(contrib.dtype(), 2, op, scale);
                    got.push(ar.allreduce(&contrib).data.to_buf());
                }
            }
            ctx.finalize();
            got
        });
        for got in out {
            let mut it = got.into_iter();
            for (_, [a, b]) in cases {
                assert_eq!(it.next(), Some(TypedBuf::from(vec![a as f32, b as f32])));
                let half = vec![f64::from(a) / 2.0, f64::from(b) / 2.0];
                assert_eq!(it.next(), Some(TypedBuf::from(half)));
                assert_eq!(it.next(), Some(TypedBuf::from(vec![a, b])));
                assert_eq!(
                    it.next(),
                    Some(TypedBuf::from(vec![i64::from(a), i64::from(b)]))
                );
            }
        }
    }

    #[test]
    fn two_full_collectives_in_flight_do_not_cross_talk() {
        // One round in flight per handle, several handles at once: deposit
        // on both, then wait on both in reverse order (the per-tensor
        // trainer's shape).
        let out = World::launch(WorldConfig::instant(4), move |c| {
            let ctx = RankCtx::new(c);
            let mut a = ctx.sync_allreduce(DType::F32, 3, ReduceOp::Sum, None);
            let mut b = ctx.sync_allreduce(DType::F32, 5, ReduceOp::Max, None);
            let me = ctx.rank() as f32;
            let ha = a.deposit(&f32s(&[me; 3]));
            let hb = b.deposit(&f32s(&[me; 5]));
            let rb = b.wait_for(hb).data.as_f32().unwrap().to_vec();
            let ra = a.wait_for(ha).data.as_f32().unwrap().to_vec();
            ctx.finalize();
            (ra, rb)
        });
        for (ra, rb) in out {
            assert_eq!(ra, vec![6.0; 3]); // sum of ranks
            assert_eq!(rb, vec![3.0; 5]); // max rank
        }
    }

    #[test]
    fn full_rounds_never_miss_under_a_rotating_straggler() {
        // 200 blocking rounds on 4 ranks with a different rank 5 ms late
        // each time: every call returns its own round's result (never a
        // newer one), every contribution is fresh, and the data — the
        // exact sum of all four, whatever the skew — is bit-identical
        // on every rank.
        const ROUNDS: u64 = 200;
        let (p, n) = (4usize, 33usize);
        // Integer-valued, so the f32 sum is exact in any order.
        let val =
            |rank: usize, i: usize, round: u64| ((rank * 31 + i * 7 + round as usize) % 17) as f32;
        let out = World::launch(WorldConfig::instant(p), move |c| {
            let ctx = RankCtx::new(c);
            let mut ar = ctx.sync_allreduce(DType::F32, n, ReduceOp::Sum, None);
            let me = ctx.rank();
            for round in 0..ROUNDS {
                if round as usize % p == me {
                    std::thread::sleep(Duration::from_millis(5));
                }
                let contrib: Vec<f32> = (0..n).map(|i| val(me, i, round)).collect();
                let got = ar.allreduce(&TypedBuf::from(contrib));
                assert_eq!((got.requested_round, got.result_round), (round, round));
                let want: Vec<f32> = (0..n)
                    .map(|i| (0..p).map(|r| val(r, i, round)).sum())
                    .collect();
                assert_eq!(
                    got.data.as_f32().unwrap(),
                    &want[..],
                    "rank {me} round {round}"
                );
            }
            let counters = ar.counters();
            ctx.finalize();
            counters
        });
        for (rank, c) in out.iter().enumerate() {
            assert_eq!(
                (c.completions, c.fresh, c.missed),
                (ROUNDS, ROUNDS, 0),
                "rank {rank}"
            );
        }
    }
}
