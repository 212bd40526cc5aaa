//! Single-process simulation harness for the partial collectives.
//!
//! [`SimHarness`] instantiates P ranks of the *real* stack — one
//! [`pcoll_sched::EngineCore`] per rank, fed by the real
//! [`PartialAllreduce`] frontend through a staged
//! [`pcoll_sched::CmdQueue`] — and drives all of them from a
//! [`SimWorld`]'s discrete-event loop over a virtual clock. No rank
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
//! With [`SimSpec::tuner`] set, every rank runs the trainer's
//! [`QuorumTuner`] protocol on the virtual clock. Every `period()` rounds
//! on the slowest live rank, the live ranks' stats are summed, every live
//! rank decides, the decisions must agree, and the policy is applied on
//! every timeline at one safe round (one virtual event, `from_round =
//! max` over ranks of the next round) — the simulator's version of the
//! trainer's decide→fence consensus protocol. The trainer's weight sync
//! is one virtual event too: see [`RankStep::outcome`].

use crate::partial::{
    AllreduceOutcome, PartialAllreduce, PartialOpts, QuorumPolicy, RoundCounters, RoundEvent,
    RoundLog,
};
use crate::tuner::{QuorumDecision, QuorumTuner, Setup, TunerSetup};
use pcoll_comm::{
    DType, Fault, Inbox, Rank, ReduceOp, SimEvent, SimOpts, SimWorld, TimePoint, TypedBuf,
    WorldConfig,
};
use pcoll_obs::{perfetto_trace, EventKind, TraceEvent, LEVEL_SPANS};
use pcoll_sched::{CmdQueue, EngineCore};
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
    /// offset under [`Pacing::Global`]). A pure function, so a rank can
    /// evaluate every rank's: its tuner's `record_step` offsets, in ms.
    fn delay(&self, rank: Rank, round: u64) -> Duration;

    /// Write this rank's contribution to `round` into the send buffer, at
    /// the deposit instant ([`PartialAllreduce::deposit_fill`]).
    fn fill(&mut self, round: u64, send: &mut TypedBuf);

    /// What the rank's wait ended on. `Some(buffer)` parks it at a fence
    /// (an empty buffer: a bare barrier). Once every live rank has parked,
    /// the harness averages their buffers in rank order and releases each
    /// with [`Outcome::Fence`] at that instant — the stand-in for the
    /// trainer's blocking weight sync. `None`: compute, then deposit.
    fn outcome(&mut self, outcome: Outcome<'_>) -> Option<TypedBuf>;
}

/// What a closed-loop rank's wait ended on (see [`RankStep::outcome`]).
pub enum Outcome<'a> {
    /// The latest-wins outcome of the round the rank deposited.
    Round(&'a AllreduceOutcome),
    /// The fence the rank parked at opened, with the parked buffers' average.
    Fence(&'a TypedBuf),
}

/// The per-rank [`RankStep`] factory, [`Pacing::SelfPaced`]'s payload.
pub type StepSetup = Setup<dyn RankStep>;

impl StepSetup {
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
    /// Initial quorum policy (the tuner's `initial_policy` overrides it).
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
    /// Closed-loop quorum tuner, one per rank on the virtual clock (see
    /// the module docs). `None`: the harness does no tuner work.
    pub tuner: Option<TunerSetup>,
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
            tuner: None,
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
    /// Policy changes the tuner applied, as `(from_round, to)`.
    pub switches: Vec<(u64, QuorumPolicy)>,
    /// Every tuner boundary's agreed decision, as `(step, from_round,
    /// decision)`: the last round of the window it closes, the first round
    /// it governs. Empty without [`SimSpec::tuner`].
    pub decisions: Vec<(u64, u64, QuorumDecision)>,
    /// Evictions the harness applied, as `(fence_round, ranks evicted at
    /// that fence)` — empty unless the spec scripts [`Fault::Kill`]s.
    pub evictions: Vec<(u64, Vec<Rank>)>,
    /// Admissions the harness applied, as `(fence_round, ranks
    /// re-admitted at that fence)` — empty unless the spec scripts
    /// [`Fault::Rejoin`]s.
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

struct SimRank {
    core: EngineCore,
    queue: CmdQueue,
    inbox: Inbox,
    ar: PartialAllreduce,
    log: Arc<RoundLog>,
    /// Rounds deposited so far (== `ar.rounds()`).
    deposited: u64,
    /// The round this rank has deposited and not yet seen an outcome for
    /// (a self-paced rank is blocked on it).
    waiting: Option<u64>,
    /// When `waiting`'s deposit happened.
    deposited_at: TimePoint,
    /// The buffer a closed-loop rank parked at a fence with.
    parked: Option<TypedBuf>,
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
    /// One tuner per rank, or none (see [`SimSpec::tuner`]).
    tuners: Vec<Box<dyn QuorumTuner>>,
    /// One step per rank.
    steps: Vec<Box<dyn RankStep>>,
    switches: Vec<(u64, QuorumPolicy)>,
    decisions: Vec<(u64, u64, QuorumDecision)>,
    /// The policy in force (changed only by the tuner).
    policy: QuorumPolicy,
    /// The last tuner boundary, in rounds.
    boundary: u64,
    /// Whether the fault plan can change membership (gates the per-event
    /// death scan so fault-free runs pay nothing).
    chaos: bool,
    /// Ranks this harness has already evicted from every timeline.
    evicted: Vec<bool>,
    /// `(fence_round, ranks evicted)` in application order.
    evictions: Vec<(u64, Vec<Rank>)>,
    /// `(fence_round, ranks re-admitted)` in application order.
    rejoins: Vec<(u64, Vec<Rank>)>,
}

impl SimHarness {
    /// Build the world and register one partial allreduce per rank.
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
        let tuners: Vec<Box<dyn QuorumTuner>> = (spec.tuner.iter())
            .flat_map(|t| (0..p).map(|rank| t.build(rank, p, clock(rank))))
            .collect();
        // One setup builds every rank's tuner: all start alike.
        let policy = (tuners.first())
            .and_then(|t| t.initial_policy())
            .unwrap_or(spec.policy);
        // Open-loop offsets are the model-free step's delays.
        let setup = match &spec.pacing {
            Pacing::Global { offsets, .. } => StepSetup::fixed(offsets.clone(), Hiccup::default()),
            Pacing::SelfPaced(setup) => setup.clone(),
        };
        let steps: Vec<Box<dyn RankStep>> = (0..p)
            .map(|rank| setup.build(rank, p, clock(rank)))
            .collect();
        for rank in 0..p {
            let queue = CmdQueue::new();
            let mut core = EngineCore::new(sim.comm(rank));
            let log = Arc::new(RoundLog::default());
            let ar = PartialAllreduce::register(
                Arc::new(queue.clone()),
                pcoll_comm::CollId(1),
                rank,
                p,
                (0..p).collect(),
                seed,
                DType::F32,
                spec.len,
                ReduceOp::Sum,
                policy,
                PartialOpts {
                    observer: Some(log.clone()),
                    ..spec.partial.clone()
                },
            );
            core.drain_cmds(&queue);
            ranks.push(SimRank {
                core,
                queue,
                inbox: sim.take_inbox(rank),
                ar,
                log,
                deposited: 0,
                waiting: None,
                deposited_at: TimePoint::ZERO,
                parked: None,
                last_result: 0.0,
                call_latency: vec![None; spec.rounds as usize],
            });
        }
        let chaos = spec
            .opts
            .faults
            .faults
            .iter()
            .any(|f| matches!(f, Fault::Kill { .. } | Fault::Rejoin { .. }));
        SimHarness {
            spec,
            sim,
            ranks,
            tuners,
            steps,
            switches: Vec::new(),
            decisions: Vec::new(),
            policy,
            boundary: 0,
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
                    r.core.stats().snapshot(),
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
                    self.maybe_decide();
                }
                SimEvent::Deliver { dst } => {
                    // Drain everything the event delivered, then see
                    // whether that completed the round `dst` awaits.
                    while let Some(env) = self.ranks[dst].inbox.try_recv() {
                        self.ranks[dst].core.on_envelope(env);
                    }
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
            assert_eq!(
                r.deposited, self.spec.rounds,
                "rank {rank} finished {} of {} rounds with the event schedule \
                 empty — the virtual world deadlocked",
                r.deposited, self.spec.rounds,
            );
            assert!(
                r.waiting.is_none() && r.parked.is_none(),
                "rank {rank} still waits on round {:?} (parked: {}) with the \
                 event schedule empty — the virtual world deadlocked",
                r.waiting,
                r.parked.is_some(),
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
            switches: std::mem::take(&mut self.switches),
            decisions: std::mem::take(&mut self.decisions),
            evictions: std::mem::take(&mut self.evictions),
            rejoins: std::mem::take(&mut self.rejoins),
            live: self.sim.live_ranks(),
            finals: self.ranks.iter().map(|r| r.last_result).collect(),
            call_latency: (self.ranks.iter_mut())
                .map(|r| std::mem::take(&mut r.call_latency))
                .collect(),
            counters: self.ranks.iter().map(|r| r.ar.counters()).collect(),
        }
    }

    /// Evict freshly-dead ranks from every surviving timeline, at a fence
    /// no rank has built past. The harness owns *every* rank's frontend —
    /// the dead ones included — so unlike the TCP path it reads the fence
    /// directly (`max` of all horizons) instead of running the survivors'
    /// Max-allreduce consensus; the schedules that result are identical.
    /// Applied between events, i.e. at a single virtual instant, which is
    /// the sim's stand-in for the decide → fence → barrier protocol of
    /// [`crate::ctx::RankCtx::evict`].
    fn apply_evictions(&mut self) {
        let newly: Vec<Rank> = (0..self.ranks.len())
            .filter(|&r| self.sim.is_dead(r) && !self.evicted[r])
            .collect();
        if newly.is_empty() {
            return;
        }
        let fence = self.ranks.iter().map(|r| r.ar.horizon()).max().unwrap_or(0);
        // Applied on *every* frontend, the dead ones included: a corpse's
        // timeline is inert (its timers are skipped), but keeping its
        // membership log in lockstep is what lets a later scripted
        // [`Fault::Rejoin`] re-admit it with matching epochs — the sim's
        // stand-in for the admission state transfer a relaunched TCP
        // worker receives over the rendezvous connection.
        for r in &self.ranks {
            r.ar.evict_from(fence, &newly);
        }
        for &r in &newly {
            self.evicted[r] = true;
        }
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
        // A fence the dead were holding up opens without them.
        self.maybe_release();
    }

    /// Reverse an eviction for `joiner` at an admission fence no rank has
    /// built past — the eviction fence run backwards. The harness owns
    /// every frontend, so (exactly as in [`SimHarness::apply_evictions`])
    /// it reads the fence directly as the `max` of all horizons instead
    /// of running the live set's Max-allreduce; the schedules that result
    /// are identical to [`crate::ctx::RankCtx::admit`]'s. The joiner
    /// fast-forwards to the fence (the rounds it missed are gone — they
    /// ran over the shrunken world) and its deposit timer is re-seeded so
    /// its first post-rejoin contribution is exactly round `fence`.
    fn apply_rejoin(&mut self, joiner: usize) {
        self.ranks[joiner].waiting = None;
        self.ranks[joiner].parked = None;
        if !self.evicted[joiner] {
            // Back before anyone evicted it: nothing to reverse — just
            // resume its deposit schedule where it stopped.
            let round = self.ranks[joiner].deposited;
            self.schedule_deposit(joiner, round);
            return;
        }
        let fence = self.ranks.iter().map(|r| r.ar.horizon()).max().unwrap_or(0);
        let joiners = vec![joiner];
        self.ranks[joiner].ar.fast_forward_to(fence);
        self.ranks[joiner].deposited = fence.min(self.spec.rounds);
        for r in &self.ranks {
            r.ar.admit_from(fence, &joiners);
        }
        self.evicted[joiner] = false;
        self.schedule_deposit(joiner, fence);
        self.rejoins.push((fence, joiners));
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

    /// Deposit `round` on `rank` and schedule what follows. A tuned rank
    /// first records every rank's arrival offset for the round (ms), the
    /// global view the trainer's injector gives its tuner.
    fn deposit(&mut self, rank: usize, round: u64) {
        if !self.tuners.is_empty() {
            let offsets: Vec<f64> = (0..self.ranks.len())
                .map(|r| self.steps[rank].delay(r, round).as_secs_f64() * 1e3)
                .collect();
            self.tuners[rank].record_step(round, &offsets);
        }
        let r = &mut self.ranks[rank];
        debug_assert_eq!(round, r.deposited, "timers fire in round order");
        let step = &mut self.steps[rank];
        let got = r.ar.deposit_fill(|send| step.fill(round, send));
        debug_assert_eq!(got, round);
        r.deposited = round + 1;
        r.core.drain_cmds(&r.queue);
        r.waiting = Some(round);
        r.deposited_at = self.sim.now();
        // Open loop: the next deposit is due at its slot whatever happens
        // to this one. (Closed loop: `poll_outcome` schedules it.)
        if matches!(self.spec.pacing, Pacing::Global { .. }) {
            self.schedule_deposit(rank, round + 1);
        }
        // The outcome may already be there (latest-wins: a newer round
        // completed while this rank computed).
        self.poll_outcome(rank);
    }

    /// If the outcome `rank` awaits is available, record it and the call's
    /// latency; a self-paced rank then hands it to its step.
    fn poll_outcome(&mut self, rank: usize) {
        let r = &mut self.ranks[rank];
        let Some(round) = r.waiting else {
            return;
        };
        let Some(out) = r.ar.try_outcome(round) else {
            return;
        };
        r.waiting = None;
        r.last_result = out.data.as_f32().map_or(0.0, |v| v[0]);
        r.call_latency[round as usize] = Some(self.sim.now().duration_since(r.deposited_at));
        if matches!(self.spec.pacing, Pacing::SelfPaced(_)) {
            let park = self.steps[rank].outcome(Outcome::Round(&out));
            self.resume(rank, park);
        }
    }

    /// A self-paced rank's next move after an outcome: park with the
    /// buffer its step returned, or compute toward its next deposit.
    fn resume(&mut self, rank: usize, park: Option<TypedBuf>) {
        if park.is_some() {
            self.ranks[rank].parked = park;
            return self.maybe_release();
        }
        let next = self.ranks[rank].deposited;
        self.schedule_deposit(rank, next);
    }

    /// Once every live rank is parked, open the fence: average the parked
    /// buffers in rank order, release every rank with it at this instant.
    fn maybe_release(&mut self) {
        let live = self.sim.live_ranks();
        if live.iter().any(|&r| self.ranks[r].parked.is_none()) {
            return;
        }
        let mut parked = (live.iter()).filter_map(|&r| self.ranks[r].parked.take());
        let Some(mut avg) = parked.next() else {
            return;
        };
        for buf in parked {
            avg.combine(&buf, ReduceOp::Sum).expect("same shapes");
        }
        avg.scale(1.0 / live.len() as f64);
        for &r in &live {
            let park = self.steps[r].outcome(Outcome::Fence(&avg));
            self.resume(r, park);
        }
    }

    /// At a tuner boundary — every `period()` rounds, once the slowest
    /// live rank has deposited them — run the trainer's measure → agree →
    /// decide → apply step: sum the live ranks' stats, let each decide,
    /// require one answer, and apply it on every timeline.
    fn maybe_decide(&mut self) {
        let Some(period) = self.tuners.first().map(|t| t.period().max(1)) else {
            return;
        };
        let boundary = self.boundary + period;
        if boundary >= self.spec.rounds {
            return;
        }
        let live = self.sim.live_ranks();
        if live.iter().any(|&r| self.ranks[r].deposited < boundary) {
            return;
        }
        self.boundary = boundary;
        let mut summed = Vec::new();
        for &r in &live {
            let comm = self.sim.comm_stats(r).snapshot();
            let local = self.tuners[r].local_stats(self.ranks[r].ar.counters(), comm);
            summed.resize(local.len(), 0.0f32);
            summed.iter_mut().zip(local).for_each(|(s, l)| *s += l);
        }
        // A round no rank has deposited (and hence no message exists
        // for): the simulator's one-event stand-in for the fence.
        let from = self.ranks.iter().map(|r| r.ar.rounds()).max().unwrap_or(0);
        let decided: Vec<Option<QuorumDecision>> = (live.iter())
            .map(|&r| self.tuners[r].decide(from, &summed))
            .collect();
        if let Some(i) = decided.iter().position(|d| d != &decided[0]) {
            panic!(
                "tuners disagree at the round-{boundary} boundary: rank {} decided {:?}, \
                 rank {} decided {:?}",
                live[0], decided[0], live[i], decided[i]
            );
        }
        let Some(d) = decided.into_iter().next().flatten() else {
            return;
        };
        // Every timeline, the dead ones included, so a scripted rejoin
        // finds its rules in lockstep (as in `apply_evictions`).
        for r in &self.ranks {
            r.ar.set_policy_from(from, d.policy);
        }
        for &r in &live {
            d.record(self.sim.comm_stats(r).recorder(), boundary - 1, from);
        }
        if d.policy != self.policy {
            self.switches.push((from, d.policy));
            self.policy = d.policy;
        }
        self.decisions.push((boundary - 1, from, d));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// A trainer-style tuner that starts at Solo and decides `to` at
    /// every boundary.
    struct Fixed {
        to: QuorumPolicy,
    }

    impl QuorumTuner for Fixed {
        fn period(&self) -> u64 {
            10
        }
        fn initial_policy(&self) -> Option<QuorumPolicy> {
            Some(QuorumPolicy::Solo)
        }
        fn stats_len(&self) -> usize {
            1
        }
        fn local_stats(
            &mut self,
            _: crate::RoundCounters,
            _: pcoll_comm::CommStatsSnapshot,
        ) -> Vec<f32> {
            vec![1.0]
        }
        fn decide(&mut self, _from_round: u64, summed: &[f32]) -> Option<QuorumDecision> {
            assert_eq!(summed, [8.0], "every live rank contributes once");
            Some(QuorumDecision {
                policy: self.to,
                reward: 1.0,
                fresh_fraction: 1.0,
                rounds_per_s: 1.0,
                spread_ms: 0.0,
                queue_stall_ms: 0.0,
            })
        }
    }

    fn tuned_spec(setup: TunerSetup) -> SimSpec {
        let mut spec = SimSpec::linear_skew(8, 40, Duration::from_millis(1), QuorumPolicy::Full);
        spec.tuner = Some(setup);
        spec
    }

    #[test]
    fn tuner_switches_policy_mid_run() {
        let to = QuorumPolicy::Full;
        let rep = SimHarness::run(tuned_spec(TunerSetup::new(move |_, _, _| {
            Box::new(Fixed { to })
        })));
        // Boundaries at rounds 10, 20, 30; the first one switches.
        assert_eq!(rep.decisions.len(), 3, "one decision per boundary");
        assert_eq!(rep.switches.len(), 1, "one switch: solo → full");
        let from = rep.switches[0].0 as usize;
        // Before the switch solo runs nearly alone; after it, everyone is
        // fresh — visible in the NAP stream. Skip the boundary round
        // itself (in-flight deposits straddle it).
        assert!(mean_nap(&rep.nap_per_round, 0, from) < 2.0);
        assert_eq!(
            &rep.nap_per_round[from + 1..],
            vec![8; rep.nap_per_round.len() - from - 1].as_slice()
        );
    }

    #[test]
    #[should_panic(expected = "tuners disagree at the round-10 boundary: rank 0")]
    fn rank_dependent_decisions_trip_the_agreement_check() {
        SimHarness::run(tuned_spec(TunerSetup::new(|rank, _, _| {
            let to = [QuorumPolicy::Majority, QuorumPolicy::Full][rank.min(1)];
            Box::new(Fixed { to })
        })));
    }
}
