//! Single-process simulation harness for the partial collectives.
//!
//! [`SimHarness`] instantiates P ranks of the *real* stack — one
//! thread-less [`Engine`] per rank, activated by the real
//! [`PartialAllreduce`] frontend through the rank's inbox exactly as on
//! the threaded transports — and drives all of them from a
//! [`SimWorld`]'s discrete-event loop over a virtual clock, calling
//! [`Engine::progress`] after every delivery and every deposit. No rank
//! threads, no sleeps: workload skew is expressed as *timer events*
//! (rank r deposits round k at a virtual instant), message delivery
//! comes from the simulator's region/latency composition, and the whole
//! run is a pure function of `(spec, seed)` — bit-identical on repeat.
//!
//! Two pacing models cover the paper's two experimental regimes:
//!
//! - [`Pacing::Global`] — open-loop: rank `r` deposits round `k` at
//!   `k·step + offset[r]`, regardless of results. This isolates the
//!   activation protocol and is what the NAP measurements (Fig. 9) and
//!   the `eager_sgd::NapModel` closed forms assume (compute
//!   time dominates; the collective never back-pressures the app). It is
//!   the paper's Fig. 8 microbenchmark loop: `offset[r]` is the
//!   `usleep`, a `step` longer than the largest offset plus the
//!   collective is the aligning barrier, and
//!   [`SimReport::call_latency`] is `latency[pid]`.
//! - [`Pacing::SelfPaced`] — closed-loop eager SGD: a rank's [`RankStep`]
//!   deposits, waits (in virtual time) for its round's latest-wins
//!   outcome, then computes for its delay before the next deposit — the
//!   trainer loop, where slow ranks get dragged along by forced joins.
//!   [`StepSetup::fixed`] is the model-free step; `eager_sgd::run_sim`
//!   runs the trainer's.
//!
//! Every rank registers `RankCtx`'s and `eager_sgd::run_rank`'s
//! collectives at their SPMD ids: the barrier (0), the gradient (1) and
//! the weight sync (2). A closed-loop rank waits on a fence as on a
//! gradient round, over the modelled network ([`RankStep::outcome`]).

use crate::partial::{
    AllreduceOutcome, PartialAllreduce, PartialOpts, QuorumPolicy, RoundCounters, RoundEvent,
    RoundLog,
};
use pcoll_comm::{
    Clock, CollId, DType, Inbox, Payload, Rank, ReduceOp, SimEvent, SimOpts, SimWorld, TimePoint,
    TypedBuf, WorldConfig,
};
use pcoll_obs::{perfetto_trace, EventKind, TraceEvent, LEVEL_SPANS};
use pcoll_sched::Engine;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// How simulated ranks decide *when* to deposit each round.
#[derive(Debug, Clone)]
pub enum Pacing {
    /// Open-loop: rank `r` deposits round `k` at `k * step + offsets[r]`.
    /// `offsets.len()` must equal P; `step` should exceed the largest
    /// offset so successive rounds do not pile up unboundedly.
    Global {
        /// Virtual period between successive deposits of one rank.
        step: Duration,
        /// Per-rank arrival offset within each period (the workload skew).
        offsets: Vec<Duration>,
    },
    /// Closed-loop: each rank runs the [`RankStep`] this factory builds for
    /// it — deposit, wait for the round's outcome, compute for the step's
    /// delay, deposit again.
    SelfPaced(StepSetup),
}

/// One simulated rank's training step, driven by the harness on the
/// virtual clock (the threaded trainer blocks where this returns).
pub trait RankStep: Send {
    /// How long `rank` computes before depositing `round` (its open-loop
    /// offset under [`Pacing::Global`]).
    fn delay(&self, rank: Rank, round: u64) -> Duration;

    /// Write this rank's contribution to `round` into the send buffer, at
    /// the deposit instant ([`PartialAllreduce::deposit_fill`]).
    fn fill(&mut self, round: u64, send: &mut TypedBuf);

    /// What the rank's wait ended on. `Some(buffer)` enters a fence: the
    /// weight sync with a non-empty buffer, the barrier with an empty one;
    /// the allreduce's result comes back as [`Outcome::Fence`]. `None`:
    /// compute, then deposit the next round.
    fn outcome(&mut self, outcome: Outcome<'_>) -> Option<TypedBuf>;
}

/// What a closed-loop rank's wait ended on (see [`RankStep::outcome`]).
pub enum Outcome<'a> {
    /// The latest-wins outcome of the gradient round the rank deposited.
    Round(&'a AllreduceOutcome),
    /// The fence the rank entered completed: the weight sync's average, or
    /// the barrier's empty result.
    Fence(&'a AllreduceOutcome),
}

/// The per-rank [`RankStep`] factory, [`Pacing::SelfPaced`]'s payload:
/// called once per rank with (rank, world size, the rank's clock) when the
/// harness starts, so every rank owns its step and times it on the clock
/// the rest of the rank reads.
#[derive(Clone)]
pub struct StepSetup(Arc<dyn Fn(usize, usize, Clock) -> Box<dyn RankStep> + Send + Sync>);

impl StepSetup {
    /// Wrap a factory.
    pub fn new<F>(f: F) -> Self
    where
        F: Fn(usize, usize, Clock) -> Box<dyn RankStep> + Send + Sync + 'static,
    {
        StepSetup(Arc::new(f))
    }

    /// Build the step for `rank` of `p`, timing on `clock`.
    pub fn build(&self, rank: usize, p: usize, clock: Clock) -> Box<dyn RankStep> {
        (self.0)(rank, p, clock)
    }

    /// The model-free step: rank `r` computes for `compute[r]`, plus the
    /// hiccup's extra on the rounds it hits, and deposits all-ones. It
    /// also paces [`Pacing::Global`], with the offsets as `compute`.
    pub fn fixed(compute: Vec<Duration>, hiccup: Hiccup) -> Self {
        let fixed = Arc::new(Fixed { compute, hiccup });
        StepSetup::new(move |_, p, _| {
            assert_eq!(fixed.compute.len(), p, "one compute time per rank");
            assert!(fixed.hiccup.k <= p, "hiccup cannot stall more than P ranks");
            Box::new(Arc::clone(&fixed))
        })
    }
}

impl fmt::Debug for StepSetup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("StepSetup(..)")
    }
}

/// [`StepSetup::fixed`]'s step, shared by every rank.
struct Fixed {
    compute: Vec<Duration>,
    hiccup: Hiccup,
}

impl RankStep for Arc<Fixed> {
    fn delay(&self, rank: Rank, round: u64) -> Duration {
        let hit = self.hiccup.hits(rank, round, self.compute.len());
        self.compute[rank] + self.hiccup.extra * u32::from(hit)
    }

    fn fill(&mut self, _: u64, send: &mut TypedBuf) {
        send.as_f32_mut().expect("f32 contribution").fill(1.0);
    }

    fn outcome(&mut self, _: Outcome<'_>) -> Option<TypedBuf> {
        None
    }
}

/// Rotating per-round compute hiccup — the dynamic-imbalance workload of
/// Figs. 10–11, where a *different* subset of ranks stalls every round.
/// Persistent skew gates every policy at the slowest rank's rate;
/// rotation is what lets partial collectives overlap the stalls, so this
/// is the knob that reproduces the paper's speedups in the simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Hiccup {
    /// How many ranks stall each round (0 = no dynamic imbalance).
    pub k: usize,
    /// Extra compute a stalled rank pays that round.
    pub extra: Duration,
}

impl Hiccup {
    /// Whether `rank` of `p` is stalled on `round`: a deterministic
    /// round-robin block of `k` ranks starting at `round·k mod p`.
    pub fn hits(&self, rank: usize, round: u64, p: usize) -> bool {
        if self.k == 0 || self.extra.is_zero() {
            return false;
        }
        let start = (round as usize * self.k) % p;
        (rank + p - start) % p < self.k
    }
}

/// Full description of one simulated experiment.
#[derive(Debug, Clone)]
pub struct SimSpec {
    /// World shape: P and the seed every deterministic choice derives
    /// from.
    pub world: WorldConfig,
    /// What every delivery costs — the byte-latency
    /// [`pcoll_comm::NetworkModel`] and the region topology — and the
    /// chaos script.
    pub opts: SimOpts,
    /// The gradient collective's quorum policy.
    pub policy: QuorumPolicy,
    /// Rounds each rank deposits.
    pub rounds: u64,
    /// Elements per contribution (f32 sum).
    pub len: usize,
    /// When ranks deposit.
    pub pacing: Pacing,
    /// Frontend options (algorithm selector, stale mode, …). The observer
    /// slot is the harness's: it wires a [`RoundLog`] per rank to build
    /// [`SimReport::traces`], so `partial.observer` must be `None`.
    pub partial: PartialOpts,
}

impl SimSpec {
    /// A compact spec: P ranks, `rounds` rounds, open-loop linear skew of
    /// `skew_unit` per rank, everything else default.
    pub fn linear_skew(p: usize, rounds: u64, skew_unit: Duration, policy: QuorumPolicy) -> Self {
        SimSpec {
            world: WorldConfig::instant(p),
            opts: SimOpts::default(),
            policy,
            rounds,
            len: 8,
            pacing: Pacing::Global {
                step: skew_unit * (p as u32 + 1) * 2,
                offsets: (0..p).map(|r| skew_unit * r as u32).collect(),
            },
            partial: PartialOpts::default(),
        }
    }
}

/// What a finished simulation reports.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Total events processed (timers + deliveries).
    pub events: u64,
    /// Message deliveries among them.
    pub delivered: u64,
    /// Virtual time at the last event.
    pub virtual_time: Duration,
    /// Per-rank completed rounds (sorted by round).
    pub traces: Vec<Vec<RoundEvent>>,
    /// Number of fresh contributors per round — the measured NAP stream,
    /// counted over the rounds each rank completed.
    pub nap_per_round: Vec<u32>,
    /// Mean of `nap_per_round`.
    pub mean_nap: f64,
    /// Evictions the harness applied, as `(fence_round, ranks evicted at
    /// that fence)` — empty unless the spec scripts
    /// [`pcoll_comm::Fault::Kill`]s.
    pub evictions: Vec<(u64, Vec<Rank>)>,
    /// Admissions the harness applied, as `(fence_round, ranks
    /// re-admitted at that fence)` — empty unless the spec scripts
    /// [`pcoll_comm::Fault::Rejoin`]s.
    pub rejoins: Vec<(u64, Vec<Rank>)>,
    /// Ranks still alive at the end of the run.
    pub live: Vec<Rank>,
    /// Head element of each rank's latest result buffer.
    pub finals: Vec<f32>,
    /// `[rank][round]`: how long the rank's allreduce call for that
    /// round took in virtual time — from its deposit to the instant the
    /// round's latest-wins outcome was visible to it (Fig. 8's
    /// `Wtime() − begin`). `None` where the rank saw no outcome for the
    /// round before its next deposit: it was dead, it skipped the round
    /// when it rejoined, or an open-loop `step` was shorter than the
    /// collective. Not part of [`SimReport::digest`].
    pub call_latency: Vec<Vec<Option<Duration>>>,
    /// Each rank's cumulative [`PartialAllreduce::counters`] at the end.
    pub counters: Vec<RoundCounters>,
}

impl SimReport {
    /// FNV-1a digest over the serialized trace stream, NAP stream, and
    /// final results: two runs of the same `(spec, seed)` must agree on
    /// this byte-for-byte (the determinism regression handle).
    pub fn digest(&self) -> u64 {
        let blob = serde_json::to_string(&(&self.traces, &self.nap_per_round, &self.finals))
            .expect("report serializes");
        let mut h: u64 = 0xcbf29ce484222325;
        for b in blob.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }
}

/// Mean NAP over the rounds in `[from, to)` of a per-round NAP stream.
pub fn mean_nap(nap_per_round: &[u32], from: usize, to: usize) -> f64 {
    let to = to.min(nap_per_round.len());
    if from >= to {
        return 0.0;
    }
    let s: u64 = nap_per_round[from..to].iter().map(|n| u64::from(*n)).sum();
    s as f64 / (to - from) as f64
}

/// A simulated rank's collectives, indexed by the SPMD id `RankCtx` and
/// `eager_sgd::run_rank` give them.
const BARRIER: usize = 0;
const GRADIENT: usize = 1;
const WEIGHT_SYNC: usize = 2;

struct SimRank {
    engine: Engine,
    inbox: Inbox,
    /// Indexed by [`BARRIER`], [`GRADIENT`], [`WEIGHT_SYNC`].
    colls: Vec<PartialAllreduce>,
    log: Arc<RoundLog>,
    /// The collective and round this rank deposited and has not yet seen
    /// an outcome for (a self-paced rank is blocked on it).
    waiting: Option<(usize, u64)>,
    /// When the gradient round it waits on was deposited.
    deposited_at: TimePoint,
    /// Head of the latest outcome seen.
    last_result: f32,
    /// See [`SimReport::call_latency`].
    call_latency: Vec<Option<Duration>>,
}

/// The driver: owns the [`SimWorld`] plus P simulated ranks and replays
/// the experiment event by event. See the module docs for the shape.
pub struct SimHarness {
    spec: SimSpec,
    sim: SimWorld,
    ranks: Vec<SimRank>,
    /// One step per rank.
    steps: Vec<Box<dyn RankStep>>,
    /// Whether the fault plan is non-empty: every fault changes membership
    /// (gates the per-event death scan so fault-free runs pay nothing).
    chaos: bool,
    /// Ranks this harness has already evicted from every timeline.
    evicted: Vec<bool>,
    /// `(fence_round, ranks evicted)` in application order.
    evictions: Vec<(u64, Vec<Rank>)>,
    /// `(fence_round, ranks re-admitted)` in application order.
    rejoins: Vec<(u64, Vec<Rank>)>,
}

impl SimHarness {
    /// Build the world and register every rank's collectives.
    pub fn new(spec: SimSpec) -> SimHarness {
        let p = spec.world.nranks;
        assert!(
            spec.partial.observer.is_none(),
            "the harness wires its own observer"
        );
        let seed = spec.world.seed;
        let mut sim = SimWorld::new(spec.world.clone(), spec.opts.clone());
        let mut ranks = Vec::with_capacity(p);
        let clock = |rank| sim.comm(rank).clock().clone();
        // Open-loop offsets are the model-free step's delays.
        let setup = match &spec.pacing {
            Pacing::Global { offsets, .. } => StepSetup::fixed(offsets.clone(), Hiccup::default()),
            Pacing::SelfPaced(setup) => setup.clone(),
        };
        let steps: Vec<Box<dyn RankStep>> = (0..p)
            .map(|rank| setup.build(rank, p, clock(rank)))
            .collect();
        for rank in 0..p {
            let engine = Engine::new(sim.comm(rank));
            let log = Arc::new(RoundLog::default());
            let register = |coll: usize, len, policy, opts| {
                let (id, f32, sum) = (CollId(coll as u32), DType::F32, ReduceOp::Sum);
                let e = engine.clone();
                let whole = Vec::new();
                PartialAllreduce::register(e, id, rank, p, whole, seed, f32, len, sum, policy, opts)
            };
            let mut gradient = spec.partial.clone();
            gradient.observer = Some(log.clone());
            let scale = Some(1.0 / p as f64);
            let average = PartialOpts {
                scale,
                ..PartialOpts::default()
            };
            let full = QuorumPolicy::Full;
            let colls = vec![
                register(BARRIER, 0, full, PartialOpts::default()),
                register(GRADIENT, spec.len, spec.policy, gradient),
                register(WEIGHT_SYNC, spec.len, full, average),
            ];
            ranks.push(SimRank {
                engine,
                inbox: sim.take_inbox(rank),
                colls,
                log,
                waiting: None,
                deposited_at: TimePoint::ZERO,
                last_result: 0.0,
                call_latency: vec![None; spec.rounds as usize],
            });
        }
        let chaos = !spec.opts.faults.is_empty();
        SimHarness {
            spec,
            sim,
            ranks,
            steps,
            chaos,
            evicted: vec![false; p],
            evictions: Vec::new(),
            rejoins: Vec::new(),
        }
    }

    /// Run to completion.
    pub fn run(spec: SimSpec) -> SimReport {
        let mut h = SimHarness::new(spec);
        h.execute()
    }

    /// Drain every rank's flight recorder into one merged, `(ts, rank)`
    /// sorted event stream. Under the virtual clock this stream is a pure
    /// function of `(spec, seed)` — the byte-identical-trace guarantee.
    /// Draining consumes: a second call returns only newer events.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        let mut events: Vec<TraceEvent> = (0..self.ranks.len())
            .flat_map(|r| self.sim.comm_stats(r).recorder().drain())
            .collect();
        events.sort_by_key(|e| (e.ts_ns, e.rank));
        events
    }

    /// [`SimHarness::trace_events`] exported as Chrome/Perfetto
    /// trace-event JSON (load at `ui.perfetto.dev`).
    pub fn perfetto_json(&self) -> String {
        perfetto_trace(&self.trace_events())
    }

    /// Every rank's transport and engine counters as point-in-time
    /// snapshots, in rank order (the engine's in
    /// [`pcoll_sched::EngineStats::snapshot`] order).
    pub fn counter_snapshots(&self) -> Vec<(pcoll_comm::CommStatsSnapshot, [u64; 8])> {
        (self.ranks.iter().enumerate())
            .map(|(rank, r)| {
                (
                    self.sim.comm_stats(rank).snapshot(),
                    r.engine.stats().snapshot(),
                )
            })
            .collect()
    }

    /// Like [`SimHarness::run`], but on an owned harness — the harness
    /// survives the run, so the flight-recorder stream is still
    /// drainable afterwards ([`SimHarness::trace_events`]).
    pub fn execute(&mut self) -> SimReport {
        for rank in 0..self.ranks.len() {
            self.schedule_deposit(rank, 0);
        }

        while let Some(ev) = self.sim.step() {
            match ev {
                SimEvent::Timer { rank, token } => {
                    self.deposit(rank, token);
                }
                SimEvent::Deliver { dst } => {
                    // Feed everything the event delivered, then see
                    // whether that completed what `dst` awaits.
                    let r = &self.ranks[dst];
                    r.engine.progress(&r.inbox);
                    self.poll_outcome(dst);
                }
                SimEvent::Rejoin { rank } => {
                    self.apply_rejoin(rank);
                }
            }
            if self.chaos {
                self.apply_evictions();
            }
        }

        let p = self.ranks.len();
        for (rank, r) in self.ranks.iter().enumerate() {
            if self.sim.is_dead(rank) {
                continue; // a killed rank legitimately stops mid-run
            }
            let deposited = r.colls[GRADIENT].rounds().min(self.spec.rounds);
            assert!(
                deposited == self.spec.rounds && r.waiting.is_none(),
                "rank {rank} deposited {deposited} of {} rounds and waits on (collective, \
                 round) {:?} with the event schedule empty — the virtual world deadlocked",
                self.spec.rounds,
                r.waiting,
            );
        }

        let traces: Vec<Vec<RoundEvent>> = self.ranks.iter().map(|r| r.log.events()).collect();
        let mut nap = vec![0u32; self.spec.rounds as usize];
        for per_rank in &traces {
            for t in per_rank {
                if t.fresh && (t.round as usize) < nap.len() {
                    nap[t.round as usize] += 1;
                }
            }
        }
        let mean = mean_nap(&nap, 0, nap.len());
        debug_assert!(mean <= p as f64);
        SimReport {
            events: self.sim.events_processed(),
            delivered: self.sim.messages_delivered(),
            virtual_time: self.sim.now().duration_since(TimePoint::ZERO),
            traces,
            nap_per_round: nap,
            mean_nap: mean,
            evictions: std::mem::take(&mut self.evictions),
            rejoins: std::mem::take(&mut self.rejoins),
            live: self.sim.live_ranks(),
            finals: self.ranks.iter().map(|r| r.last_result).collect(),
            call_latency: (self.ranks.iter_mut())
                .map(|r| std::mem::take(&mut r.call_latency))
                .collect(),
            counters: (self.ranks.iter())
                .map(|r| r.colls[GRADIENT].counters())
                .collect(),
        }
    }

    /// Evict freshly-dead ranks from every collective of every surviving
    /// timeline, each at a fence no rank has built past. The harness owns
    /// *every* rank's frontend — the dead ones included — so unlike the
    /// TCP path it reads the fence directly (`max` of all horizons)
    /// instead of running the survivors' Max-allreduce consensus; the
    /// schedules that result are identical. Applied between events, i.e.
    /// at a single virtual instant, which is the sim's stand-in for the
    /// decide → fence → barrier protocol of [`crate::ctx::RankCtx::evict`].
    /// A fence a survivor waits on completes through the engine's
    /// peer-down null synthesis, as on the threaded transports.
    fn apply_evictions(&mut self) {
        let newly: Vec<Rank> = (0..self.ranks.len())
            .filter(|&r| self.sim.is_dead(r) && !self.evicted[r])
            .collect();
        if newly.is_empty() {
            return;
        }
        let fences = self.fences();
        // Applied on *every* frontend, the dead ones included: a corpse's
        // timeline is inert (its timers are skipped), but keeping its
        // membership log in lockstep is what lets a later scripted
        // [`Fault::Rejoin`] re-admit it with matching epochs — the sim's
        // stand-in for the admission state transfer a relaunched TCP
        // worker receives over the rendezvous connection.
        for r in &self.ranks {
            for (coll, fence) in r.colls.iter().zip(&fences) {
                coll.evict_from(*fence, &newly);
            }
        }
        for &r in &newly {
            self.evicted[r] = true;
        }
        let fence = fences[GRADIENT];
        for survivor in (0..self.ranks.len()).filter(|&r| !self.evicted[r]) {
            let stats = self.sim.comm_stats(survivor);
            for peer in newly.iter().map(|&r| r as u32) {
                let from_round = fence;
                stats
                    .recorder()
                    .record(LEVEL_SPANS, || EventKind::Eviction { peer, from_round });
            }
        }
        self.evictions.push((fence, newly));
    }

    /// Reverse an eviction for `joiner` at admission fences no rank has
    /// built past — the eviction fence run backwards, on every collective.
    /// The harness owns every frontend, so (exactly as in
    /// [`SimHarness::apply_evictions`]) it reads each fence directly as
    /// the `max` of all horizons instead of running the live set's
    /// Max-allreduce; the schedules that result are identical to
    /// [`crate::ctx::RankCtx::admit`]'s. The joiner fast-forwards to the
    /// fences (the rounds it missed are gone — they ran over the shrunken
    /// world) and its deposit timer is re-seeded so its first
    /// post-rejoin contribution is exactly the gradient's fence round.
    fn apply_rejoin(&mut self, joiner: usize) {
        self.ranks[joiner].waiting = None;
        if !self.evicted[joiner] {
            // Back before anyone evicted it: nothing to reverse — just
            // resume its deposit schedule where it stopped.
            let round = self.ranks[joiner].colls[GRADIENT].rounds();
            self.schedule_deposit(joiner, round);
            return;
        }
        let fences = self.fences();
        let joiners = vec![joiner];
        for (coll, fence) in self.ranks[joiner].colls.iter_mut().zip(&fences) {
            coll.fast_forward_to(*fence);
        }
        for r in &self.ranks {
            for (coll, fence) in r.colls.iter().zip(&fences) {
                coll.admit_from(*fence, &joiners);
            }
        }
        self.evicted[joiner] = false;
        let fence = fences[GRADIENT];
        self.schedule_deposit(joiner, fence);
        self.rejoins.push((fence, joiners));
    }

    /// Per collective, a round no rank has built past.
    fn fences(&self) -> Vec<u64> {
        (0..self.ranks[0].colls.len())
            .map(|c| self.ranks.iter().map(|r| r.colls[c].horizon()).max())
            .map(|h| h.unwrap_or(0))
            .collect()
    }

    /// Schedule `rank`'s deposit of `round` (the timer's token), if the
    /// run has that round: at the round's slot under open-loop pacing
    /// (the sim clamps a slot already in the past to "now"), one step
    /// delay from now under closed-loop pacing.
    fn schedule_deposit(&mut self, rank: usize, round: u64) {
        if round >= self.spec.rounds {
            return;
        }
        let start = match &self.spec.pacing {
            Pacing::Global { step, .. } => TimePoint::ZERO + *step * (round as u32),
            Pacing::SelfPaced(_) => self.sim.now(),
        };
        let at = start + self.steps[rank].delay(rank, round);
        self.sim.schedule_timer(at, rank, round);
    }

    /// Deposit `round` on `rank` and schedule what follows.
    fn deposit(&mut self, rank: usize, round: u64) {
        let r = &mut self.ranks[rank];
        let step = &mut self.steps[rank];
        let got = r.colls[GRADIENT].deposit_fill(|send| step.fill(round, send));
        debug_assert_eq!(got, round, "timers fire in round order");
        r.deposited_at = self.sim.now();
        // Open loop: the next deposit is due at its slot whatever happens
        // to this one. (Closed loop: the outcome schedules it.)
        if matches!(self.spec.pacing, Pacing::Global { .. }) {
            self.schedule_deposit(rank, round + 1);
        }
        self.wait_on(rank, GRADIENT, round);
    }

    /// Enter `coll` with `contrib` on `rank` and wait on its outcome.
    fn enter(&mut self, rank: usize, coll: usize, contrib: TypedBuf) {
        let round = self.ranks[rank].colls[coll].deposit_owned(Payload::new(contrib));
        self.wait_on(rank, coll, round);
    }

    /// Block `rank` on `round` of `coll`, which it just deposited. The
    /// deposit posted its activation to the rank's own inbox, and the
    /// outcome may already be there (latest-wins: a newer round completed
    /// while this rank computed).
    fn wait_on(&mut self, rank: usize, coll: usize, round: u64) {
        let r = &mut self.ranks[rank];
        r.engine.progress(&r.inbox);
        r.waiting = Some((coll, round));
        self.poll_outcome(rank);
    }

    /// If the outcome `rank` awaits is available, hand it to the rank's
    /// step and enter the fence or schedule the deposit the step asks for.
    fn poll_outcome(&mut self, rank: usize) {
        let r = &mut self.ranks[rank];
        let Some((coll, round)) = r.waiting else {
            return;
        };
        let Some(out) = r.colls[coll].try_outcome(round) else {
            return;
        };
        r.waiting = None;
        let step = &mut self.steps[rank];
        let next = if coll == GRADIENT {
            r.last_result = out.data.as_f32().map_or(0.0, |v| v[0]);
            r.call_latency[round as usize] = Some(self.sim.now().duration_since(r.deposited_at));
            if matches!(self.spec.pacing, Pacing::Global { .. }) {
                return;
            }
            step.outcome(Outcome::Round(&out))
        } else {
            step.outcome(Outcome::Fence(&out))
        };
        match next {
            Some(buf) if buf.is_empty() => self.enter(rank, BARRIER, buf),
            Some(buf) => self.enter(rank, WEIGHT_SYNC, buf),
            None => {
                let round = self.ranks[rank].colls[GRADIENT].rounds();
                self.schedule_deposit(rank, round);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcoll_comm::Fault;

    #[test]
    fn global_pacing_full_policy_counts_everyone() {
        let p = 8;
        let spec = SimSpec::linear_skew(p, 10, Duration::from_millis(1), QuorumPolicy::Full);
        let rep = SimHarness::run(spec);
        // Full quorum: every rank's deposit is fresh in every round.
        assert_eq!(rep.nap_per_round, vec![p as u32; 10]);
        assert!((rep.mean_nap - p as f64).abs() < 1e-9);
        assert!(rep.delivered > 0);
        assert!(rep.virtual_time > Duration::ZERO);
        // On an instant network a Full call returns the moment the last
        // rank (offset 7 ms) deposits: rank r waited exactly 7 − r ms.
        for (r, per_round) in rep.call_latency.iter().enumerate() {
            let waited = Some(Duration::from_millis(7 - r as u64));
            assert_eq!(per_round, &vec![waited; 10], "rank {r}");
        }
    }

    #[test]
    fn global_pacing_solo_under_skew_is_nearly_alone() {
        let p = 16;
        let spec = SimSpec::linear_skew(p, 30, Duration::from_millis(2), QuorumPolicy::Solo);
        let rep = SimHarness::run(spec);
        // Rank 0 (offset 0) initiates; with zero network latency nobody
        // else has deposited when dragged in, so NAP = 1 every round.
        assert!(
            rep.mean_nap < 2.0,
            "solo under heavy skew should be nearly alone, got {}",
            rep.mean_nap
        );
        // ... and the traces confirm rank 0 is the fresh one.
        assert!(rep.traces[0].iter().all(|t| t.fresh));
        // Nobody waits for anybody: the initiator's round completes at the
        // instant it deposits, and every later rank finds it complete.
        let zero = vec![Some(Duration::ZERO); 30];
        assert!(rep.call_latency.iter().all(|per_round| per_round == &zero));
    }

    #[test]
    fn global_pacing_solo_skew_raises_the_initiators_latency() {
        // §6.2.2 (the `ablate_activation` figure's claim): when the others
        // have not arrived, the initiator's call carries the activation
        // broadcast on top of the data exchange.
        let p = 8;
        let initiator_latency = |skew_unit: Duration| {
            let mut spec = SimSpec::linear_skew(p, 10, skew_unit, QuorumPolicy::Solo);
            spec.opts.network = pcoll_comm::NetworkModel::hpc();
            spec.pacing = Pacing::Global {
                step: Duration::from_millis(20),
                offsets: (0..p).map(|r| skew_unit * r as u32).collect(),
            };
            let rep = SimHarness::run(spec);
            let calls = rep.call_latency[0].iter();
            calls
                .map(|l| l.expect("every call returns"))
                .sum::<Duration>()
        };
        let (aligned, skewed) = (
            initiator_latency(Duration::ZERO),
            initiator_latency(Duration::from_millis(1)),
        );
        assert!(aligned > Duration::ZERO, "hpc latency is modelled");
        assert!(
            skewed > aligned,
            "initiator: {skewed:?} under skew vs {aligned:?} aligned"
        );
    }

    #[test]
    fn self_paced_ranks_complete_all_rounds() {
        let p = 4;
        let mut spec =
            SimSpec::linear_skew(p, 12, Duration::from_millis(1), QuorumPolicy::Majority);
        let compute = (0..p).map(|r| Duration::from_millis(3 + r as u64));
        spec.pacing = Pacing::SelfPaced(StepSetup::fixed(compute.collect(), Hiccup::default()));
        let rep = SimHarness::run(spec);
        assert_eq!(rep.traces.len(), p);
        assert!(rep.mean_nap >= 1.0);
        assert!(rep.finals.iter().all(|f| *f > 0.0));
    }

    #[test]
    fn hiccup_rotation_covers_every_rank_once_per_cycle() {
        let h = Hiccup {
            k: 2,
            extra: Duration::from_millis(1),
        };
        let p = 8;
        for round in 0..8 {
            let hit = (0..p).filter(|r| h.hits(*r, round, p)).count();
            assert_eq!(hit, 2, "exactly k ranks stall each round");
        }
        // Over p/k consecutive rounds the rotation covers every rank.
        let mut seen = vec![false; p];
        for round in 0..(p / 2) as u64 {
            for (r, s) in seen.iter_mut().enumerate() {
                *s |= h.hits(r, round, p);
            }
        }
        assert!(seen.iter().all(|s| *s));
        assert!(!Hiccup::default().hits(0, 0, p), "default is inert");
    }

    #[test]
    fn rotating_hiccup_outpaces_full_under_solo() {
        // The paper's core claim in miniature: with a *rotating* stall,
        // an asynchronous policy overlaps the stalls while full pays
        // every one of them on the critical path.
        let p = 4;
        let run = |policy| {
            let mut spec = SimSpec::linear_skew(p, 16, Duration::from_millis(1), policy);
            let hiccup = Hiccup {
                k: 1,
                extra: Duration::from_millis(40),
            };
            let compute = vec![Duration::from_millis(2); p];
            spec.pacing = Pacing::SelfPaced(StepSetup::fixed(compute, hiccup));
            SimHarness::run(spec)
        };
        let solo = run(QuorumPolicy::Solo);
        let full = run(QuorumPolicy::Full);
        assert!(
            solo.virtual_time < full.virtual_time / 2,
            "solo {:?} should finish far ahead of full {:?}",
            solo.virtual_time,
            full.virtual_time
        );
    }

    #[test]
    fn repeat_runs_are_bit_identical() {
        let spec = SimSpec::linear_skew(8, 20, Duration::from_millis(1), QuorumPolicy::Majority);
        let a = SimHarness::run(spec.clone());
        let b = SimHarness::run(spec);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.nap_per_round, b.nap_per_round);
        assert_eq!(a.events, b.events);
        assert_eq!(a.virtual_time, b.virtual_time);
    }

    #[test]
    fn scripted_kills_evict_and_survivors_finish() {
        use pcoll_comm::FaultPlan;
        let p = 8;
        let mut spec =
            SimSpec::linear_skew(p, 30, Duration::from_millis(1), QuorumPolicy::Majority);
        spec.opts.faults = FaultPlan::none()
            .with(Fault::Kill {
                rank: 3,
                at: TimePoint::ZERO + Duration::from_millis(200),
            })
            .with(Fault::Kill {
                rank: 6,
                at: TimePoint::ZERO + Duration::from_millis(500),
            });
        spec.world = spec.world.with_trace(LEVEL_SPANS, 1 << 14);
        let mut h = SimHarness::new(spec);
        let rep = h.execute();
        assert_eq!(rep.live, vec![0, 1, 2, 4, 5, 7]);
        let evicted: Vec<Rank> = rep
            .evictions
            .iter()
            .flat_map(|(_, dead)| dead.clone())
            .collect();
        assert_eq!(evicted, vec![3, 6]);
        // Fences are nondecreasing (the eviction log is append-only).
        for w in rep.evictions.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        // Post-eviction rounds run over the live set: NAP can never
        // exceed the surviving population.
        let last_fence = rep.evictions.last().unwrap().0 as usize;
        for (r, n) in rep.nap_per_round.iter().enumerate().skip(last_fence) {
            assert!(*n <= 6, "round {r}: NAP {n} exceeds the 6 survivors");
        }
        // The drive loop's own end-state asserts already checked every
        // survivor deposited all 30 rounds; the traces confirm it.
        for &r in &rep.live {
            assert_eq!(rep.traces[r].last().unwrap().round, 29, "rank {r}");
        }
        // Every survivor's track shows the fence that changed its
        // schedules, not just the local PeerDown verdict.
        let trace = h.trace_events();
        for (fence, dead) in &rep.evictions {
            let (peer, from_round) = (dead[0] as u32, *fence);
            let want = EventKind::Eviction { peer, from_round };
            for r in rep.live.iter().map(|&r| r as u32) {
                let seen = trace.iter().any(|e| e.rank == r && e.kind == want);
                assert!(seen, "rank {r}: no {want:?} on its track");
            }
        }
    }

    #[test]
    fn chaos_runs_are_bit_identical() {
        use pcoll_comm::FaultPlan;
        let mut spec =
            SimSpec::linear_skew(8, 25, Duration::from_millis(1), QuorumPolicy::Majority);
        spec.opts.faults = FaultPlan::none().with(Fault::Kill {
            rank: 5,
            at: TimePoint::ZERO + Duration::from_millis(300),
        });
        let a = SimHarness::run(spec.clone());
        let b = SimHarness::run(spec);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.evictions, b.evictions);
        assert_eq!(a.live, b.live);
        assert_eq!(a.events, b.events);
        assert!(!a.evictions.is_empty());
    }

    #[test]
    fn self_paced_chaos_survivors_keep_pacing() {
        use pcoll_comm::FaultPlan;
        let p = 4;
        let mut spec =
            SimSpec::linear_skew(p, 12, Duration::from_millis(1), QuorumPolicy::Majority);
        let compute = vec![Duration::from_millis(3); p];
        spec.pacing = Pacing::SelfPaced(StepSetup::fixed(compute, Hiccup::default()));
        spec.opts.faults = FaultPlan::none().with(Fault::Kill {
            rank: 2,
            at: TimePoint::ZERO + Duration::from_millis(20),
        });
        let rep = SimHarness::run(spec);
        assert_eq!(rep.live, vec![0, 1, 3]);
        assert_eq!(rep.evictions.len(), 1);
        // Survivors (closed-loop!) still complete every round: the null
        // synthesis unblocks pre-fence rounds, the rebuilt schedules
        // carry the post-fence ones.
        for &r in &rep.live {
            assert_eq!(rep.traces[r].last().unwrap().round, 11, "rank {r}");
        }
    }

    #[test]
    fn scripted_rejoin_grows_the_world_back_and_nap_recovers() {
        use pcoll_comm::FaultPlan;
        let p = 8;
        let mut spec = SimSpec::linear_skew(p, 40, Duration::from_millis(1), QuorumPolicy::Full);
        spec.opts.faults = FaultPlan::none()
            .with(Fault::Kill {
                rank: 3,
                at: TimePoint::ZERO + Duration::from_millis(200),
            })
            .with(Fault::Rejoin {
                rank: 3,
                at: TimePoint::ZERO + Duration::from_millis(500),
            });
        let rep = SimHarness::run(spec);
        assert_eq!(rep.live, (0..p).collect::<Vec<_>>());
        assert_eq!(rep.evictions.len(), 1);
        assert_eq!(rep.rejoins.len(), 1);
        let (evict_fence, ref dead) = rep.evictions[0];
        let (admit_fence, ref joined) = rep.rejoins[0];
        assert_eq!(dead, &vec![3]);
        assert_eq!(joined, &vec![3]);
        assert!(
            admit_fence > evict_fence,
            "admission fence {admit_fence} must follow eviction fence {evict_fence}"
        );
        // Shrunken steady state: exactly the 7 survivors are fresh.
        // (Rounds right at the eviction fence may be stuck pre-fence Full
        // rounds missing the victim — skip a small margin.)
        let (lo, hi) = (evict_fence as usize + 2, admit_fence as usize - 2);
        assert!(lo < hi, "fences too close to observe the shrunken phase");
        for r in lo..hi {
            assert_eq!(rep.nap_per_round[r], 7, "shrunken round {r}");
        }
        // Grown back: from the admission fence on, all 8 are fresh again
        // — the Fig. 7 full-world NAP recovers.
        for r in admit_fence as usize..40 {
            assert_eq!(rep.nap_per_round[r], 8, "post-admission round {r}");
        }
        // Everyone (the rejoiner included) finishes the final round.
        for r in 0..p {
            assert_eq!(rep.traces[r].last().unwrap().round, 39, "rank {r}");
        }
    }

    #[test]
    fn a_joiner_hears_of_peers_readmitted_while_it_was_dead() {
        // Rank 5 dies after rank 1 and is still dead when rank 1 comes
        // back, so it never saw that PeerUp. If its engine kept rank 1 in
        // its down set it would null-synthesize the activation messages
        // rank 1 forwards it and fork those rounds, which then never
        // complete on the other ranks. Every round past the last admission
        // fence must complete on every rank.
        use pcoll_comm::FaultPlan;
        let (p, rounds) = (8, 100);
        let unit = Duration::from_millis(1);
        let mut spec = SimSpec::linear_skew(p, rounds, unit, QuorumPolicy::Majority);
        let at_round = |r: u32| TimePoint::ZERO + unit * (p as u32 + 1) * 2 * r;
        spec.opts.faults = FaultPlan::none()
            .with(Fault::Kill {
                rank: 1,
                at: at_round(5),
            })
            .with(Fault::Kill {
                rank: 5,
                at: at_round(10),
            })
            .with(Fault::Rejoin {
                rank: 1,
                at: at_round(20),
            })
            .with(Fault::Rejoin {
                rank: 5,
                at: at_round(25),
            });
        let rep = SimHarness::run(spec);
        assert_eq!(rep.live, (0..p).collect::<Vec<_>>());
        let fence = rep.rejoins.last().expect("two admissions").0;
        for (rank, events) in rep.traces.iter().enumerate() {
            let done: Vec<u64> = events
                .iter()
                .map(|e| e.round)
                .filter(|r| *r >= fence)
                .collect();
            assert_eq!(done, (fence..rounds).collect::<Vec<_>>(), "rank {rank}");
        }
    }

    #[test]
    fn kill_evict_rejoin_replays_bit_identically() {
        use pcoll_comm::FaultPlan;
        let mut spec =
            SimSpec::linear_skew(8, 30, Duration::from_millis(1), QuorumPolicy::Majority);
        spec.opts.faults = FaultPlan::none()
            .with(Fault::Kill {
                rank: 5,
                at: TimePoint::ZERO + Duration::from_millis(150),
            })
            .with(Fault::Rejoin {
                rank: 5,
                at: TimePoint::ZERO + Duration::from_millis(400),
            });
        let a = SimHarness::run(spec.clone());
        let b = SimHarness::run(spec);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.evictions, b.evictions);
        assert_eq!(a.rejoins, b.rejoins);
        assert_eq!(a.live, b.live);
        assert_eq!(a.events, b.events);
        assert!(!a.evictions.is_empty() && !a.rejoins.is_empty());
    }

    #[test]
    fn a_fence_costs_modelled_network_time() {
        // Every rank enters the weight sync once, after round 0, with its
        // rank number: on the hpc network the average reaches each rank
        // strictly after the last rank entered the fence.
        type Log = Arc<std::sync::Mutex<Vec<(TimePoint, TimePoint, f32)>>>;
        struct ParkOnce {
            rank: Rank,
            clock: pcoll_comm::Clock,
            parked: Option<TimePoint>,
            log: Log,
        }
        impl RankStep for ParkOnce {
            fn delay(&self, rank: Rank, _: u64) -> Duration {
                Duration::from_micros(10 * rank as u64)
            }
            fn fill(&mut self, _: u64, send: &mut TypedBuf) {
                send.as_f32_mut().expect("f32").fill(1.0);
            }
            fn outcome(&mut self, outcome: Outcome<'_>) -> Option<TypedBuf> {
                let now = self.clock.now();
                match outcome {
                    Outcome::Round(_) if self.parked.is_none() => {
                        self.parked = Some(now);
                        Some(TypedBuf::from(vec![self.rank as f32; 8]))
                    }
                    Outcome::Round(_) => None,
                    Outcome::Fence(avg) => {
                        let parked = self.parked.expect("parked before the fence");
                        let head = avg.data.as_f32().expect("f32 average")[0];
                        self.log.lock().unwrap().push((parked, now, head));
                        None
                    }
                }
            }
        }
        let p = 4;
        let log = Log::default();
        let mut spec = SimSpec::linear_skew(p, 2, Duration::from_millis(1), QuorumPolicy::Full);
        spec.opts.network = pcoll_comm::NetworkModel::hpc();
        let shared = Arc::clone(&log);
        spec.pacing = Pacing::SelfPaced(StepSetup::new(move |rank, _, clock| {
            let log = Arc::clone(&shared);
            Box::new(ParkOnce {
                rank,
                clock,
                parked: None,
                log,
            })
        }));
        SimHarness::run(spec);
        let log = log.lock().unwrap();
        assert_eq!(log.len(), p, "every rank's fence opened");
        let last_park = log.iter().map(|(parked, _, _)| *parked).max().unwrap();
        for (opened, avg) in log.iter().map(|(_, opened, avg)| (*opened, *avg)) {
            assert!(
                opened > last_park,
                "the fence opened at {opened:?}, the last rank entered at {last_park:?}"
            );
            assert_eq!(avg, 1.5, "the mean of ranks 0..4");
        }
    }
}
