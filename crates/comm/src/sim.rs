//! [`SimWorld`]: a single-process discrete-event network simulator.
//!
//! The third transport. Where the in-process backend runs ranks as
//! threads and the TCP backend runs them as processes, the simulator runs
//! *no* rank concurrency at all: a [`SimWorld`] owns a virtual
//! [`Clock`], a priority-queue event schedule, and every
//! rank's mailbox, and a single driver thread replays the whole world
//! event by event. Sends issued through the unchanged [`CommHandle`] API
//! are staged by the transport's simulation route and scheduled for
//! delivery at
//!
//! ```text
//! now + planet.one_way(region(src), region(dst))   // geography
//!     + model.base_latency(wire_bytes)             // alpha-beta transfer
//!     + jitter                                     // deterministic PRNG
//! ```
//!
//! clamped to be no earlier than the previous message on the same
//! `(src, dst)` pair — the MPI non-overtaking rule the other two
//! transports get from their channels and sockets. Delivery pushes the
//! envelope into the destination's ordinary bounded mailbox channel, so
//! consumers drain a real [`Inbox`] exactly as they would on the other
//! two transports.
//!
//! Because the heap is ordered by `(due, seq)` with sequence numbers
//! assigned in (deterministic, single-threaded) staging order and all
//! randomness comes from a seeded xorshift, a simulation is a pure
//! function of `(config, seed)`: repeat runs are bit-identical. That is
//! what lets `P = 1024+` rank experiments with millions of messages run
//! on one box and regress byte-for-byte in CI.
//!
//! The region topology is a [`Planet`]: a named region set plus a
//! one-way-latency matrix (in the spirit of fantoch's `Planet`/`Region`
//! planet-scale simulator). Ranks map onto regions in contiguous blocks.

use crate::membership::Membership;
use crate::stats::CommStats;
use crate::tag::Rank;
use crate::time::{Clock, TimePoint};
use crate::transport::Route;
use crate::world::{CommHandle, Envelope, Inbox, WorldConfig};
use crate::NetworkModel;
use crossbeam::channel::{bounded, Receiver, Sender};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Planet: regions and the one-way latency matrix
// ---------------------------------------------------------------------------

/// A region index into a [`Planet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region(pub usize);

/// A set of named regions with a one-way inter-region latency matrix.
#[derive(Debug, Clone)]
pub struct Planet {
    names: Vec<String>,
    /// Row-major `[from][to]` one-way latency in nanoseconds.
    latency_ns: Vec<u64>,
}

impl Planet {
    /// Build from names and a row-major one-way latency matrix.
    pub fn new(names: Vec<String>, one_way: Vec<Vec<Duration>>) -> Planet {
        let n = names.len();
        assert!(n > 0, "planet needs at least one region");
        assert_eq!(one_way.len(), n, "latency matrix must be {n}x{n}");
        let mut latency_ns = Vec::with_capacity(n * n);
        for row in &one_way {
            assert_eq!(row.len(), n, "latency matrix must be {n}x{n}");
            latency_ns.extend(row.iter().map(|d| d.as_nanos() as u64));
        }
        Planet { names, latency_ns }
    }

    /// One region, zero inter-rank geography (the latency model alone
    /// governs delivery) — the single-cluster default.
    pub fn single() -> Planet {
        Planet::new(vec!["local".into()], vec![vec![Duration::ZERO]])
    }

    /// `n` regions, `one_way` between any two distinct regions, zero
    /// within a region — the symmetric multi-cluster shape.
    pub fn uniform(n: usize, one_way: Duration) -> Planet {
        let names = (0..n).map(|i| format!("region-{i}")).collect();
        let m = (0..n)
            .map(|a| {
                (0..n)
                    .map(|b| if a == b { Duration::ZERO } else { one_way })
                    .collect()
            })
            .collect();
        Planet::new(names, m)
    }

    /// A four-region WAN with ms-scale one-way latencies (eu-west,
    /// us-east, us-west, ap-south) — the planet-scale demo topology.
    pub fn wan() -> Planet {
        let ms = Duration::from_micros;
        let intra = ms(250);
        let names = vec![
            "eu-west".into(),
            "us-east".into(),
            "us-west".into(),
            "ap-south".into(),
        ];
        let m = vec![
            vec![intra, ms(40_000), ms(70_000), ms(60_000)],
            vec![ms(40_000), intra, ms(35_000), ms(90_000)],
            vec![ms(70_000), ms(35_000), intra, ms(110_000)],
            vec![ms(60_000), ms(90_000), ms(110_000), intra],
        ];
        Planet::new(names, m)
    }

    /// Number of regions.
    pub fn nregions(&self) -> usize {
        self.names.len()
    }

    /// One-way latency from `a` to `b`.
    pub fn one_way(&self, a: Region, b: Region) -> Duration {
        Duration::from_nanos(self.latency_ns[a.0 * self.names.len() + b.0])
    }

    /// The region hosting `rank` of `p`: contiguous blocks of ranks, so
    /// rank locality mirrors how clusters are actually carved up.
    pub fn rank_region(&self, rank: Rank, p: usize) -> Region {
        Region(rank * self.nregions() / p.max(1))
    }
}

/// Options for the simulated transport.
#[derive(Debug, Clone)]
pub struct SimOpts {
    /// Byte-latency curve and jitter charged to every message (default
    /// [`NetworkModel::Instant`]). Only a simulated world has one.
    pub network: NetworkModel,
    /// Region topology composed with `network`.
    pub planet: Planet,
    /// Chaos script applied natively in event delivery (empty = none).
    pub faults: FaultPlan,
}

impl Default for SimOpts {
    fn default() -> Self {
        SimOpts {
            network: NetworkModel::Instant,
            planet: Planet::single(),
            faults: FaultPlan::default(),
        }
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// One scripted fault in a simulated run. All instants are virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// `rank` dies at `at`: everything it had in flight still lands, but
    /// from `at` on it neither sends nor receives, and every live rank
    /// gets an [`Envelope::PeerDown`] at that instant (the sim's
    /// omniscient stand-in for per-link detection).
    Kill {
        /// The rank that dies.
        rank: Rank,
        /// When it dies.
        at: TimePoint,
    },
    /// A previously killed `rank` comes back at `at`: its dead flag
    /// clears, every live rank's membership view re-admits it, and the
    /// driver is handed a [`SimEvent::Rejoin`] so it can run the
    /// admission-fence protocol (state import, fence agreement, schedule
    /// rebuild) at that exact virtual instant. Paired with
    /// [`Fault::Kill`], this makes a full kill → evict → rejoin cycle a
    /// pure function of `(config, seed)` — it replays bit-identically.
    Rejoin {
        /// The rank that comes back.
        rank: Rank,
        /// When it rejoins (must be after its kill to have any effect).
        at: TimePoint,
    },
}

/// A scripted set of [`Fault`]s for one simulated run. Because the sim is
/// a pure function of `(config, seed)`, the same plan replays
/// bit-identically — chaos runs regress in CI like any other.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The faults, in no particular order.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan with no faults (the default).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Append a fault (builder-style).
    pub fn with(mut self, fault: Fault) -> FaultPlan {
        self.faults.push(fault);
        self
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

// ---------------------------------------------------------------------------
// The event schedule
// ---------------------------------------------------------------------------

enum EventKind {
    Deliver {
        src: Rank,
        dst: Rank,
        env: Envelope,
        /// Total modeled delay this message spent "on the wire" (for the
        /// destination's `NetRelease` trace event).
        delay_ns: u64,
        /// Of `delay_ns`, the part imposed by the non-overtaking clamp —
        /// recorded at delivery as a `QueueStall` span on the sender.
        held_ns: u64,
        /// Messages ahead on the same wire when this one was staged.
        held_behind: u64,
    },
    Timer {
        rank: Rank,
        token: u64,
    },
    /// A scripted [`Fault::Kill`] coming due (internal — never surfaced).
    Kill {
        rank: Rank,
    },
    /// A scripted [`Fault::Rejoin`] coming due (surfaced as
    /// [`SimEvent::Rejoin`] so the driver can run admission).
    Rejoin {
        rank: Rank,
    },
}

struct SimEntry {
    due: TimePoint,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for SimEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.due, self.seq) == (other.due, other.seq)
    }
}
impl Eq for SimEntry {}
impl PartialOrd for SimEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for SimEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// What [`SimWorld::step`] just made happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// An envelope was pushed into `dst`'s mailbox; the driver should
    /// drain that rank's [`Inbox`] now.
    Deliver {
        /// Destination rank.
        dst: Rank,
    },
    /// A timer scheduled with [`SimWorld::schedule_timer`] fired.
    Timer {
        /// The rank the timer belongs to.
        rank: Rank,
        /// The caller's opaque token.
        token: u64,
    },
    /// A scripted [`Fault::Rejoin`] came due: `rank`'s dead flag is
    /// cleared and every live membership view has re-admitted it. The
    /// driver must now run the admission-fence protocol before the
    /// joiner participates in any round.
    Rejoin {
        /// The rank that just came back.
        rank: Rank,
    },
}

/// Sends staged by [`Route::Sim`] during event handling, flushed into the
/// schedule by the driver. Shared between every rank's `CommHandle` and
/// the world.
#[derive(Clone, Default)]
pub(crate) struct SimStage {
    pub(crate) queue: Arc<Mutex<Vec<(Rank, Rank, Envelope)>>>,
}

/// Per-rank sending side of the staged route.
#[derive(Clone)]
pub(crate) struct SimRoute {
    pub(crate) src: Rank,
    pub(crate) stage: SimStage,
    /// `src`'s own mailbox: local control skips the stage and the model.
    pub(crate) local: Sender<Envelope>,
}

impl SimRoute {
    pub(crate) fn deliver(&self, dst: Rank, env: Envelope, stats: &CommStats) {
        stats.sends.fetch_add(1, Ordering::Relaxed);
        let mut q = self.stage.queue.lock().expect("sim stage lock");
        q.push((self.src, dst, env));
        stats.record_depth(q.len());
    }
}

// ---------------------------------------------------------------------------
// SimWorld
// ---------------------------------------------------------------------------

/// The simulated world: virtual clock, event heap, mailboxes, and the
/// latency composition (see module docs). Drive it with
/// [`SimWorld::step`] in a loop; after each event, drain the affected
/// rank's inbox and let it react (its sends are staged and picked up by
/// the next `step`).
pub struct SimWorld {
    cfg: WorldConfig,
    network: NetworkModel,
    planet: Planet,
    regions: Vec<Region>,
    clock: Clock,
    heap: BinaryHeap<Reverse<SimEntry>>,
    seq: u64,
    stage: SimStage,
    last_due: HashMap<(Rank, Rank), TimePoint>,
    /// Undelivered messages per (src, dst) pair — the "wire queue" depth
    /// a clamped send was stuck behind (see [`SimWorld::flush_sends`]).
    in_flight: HashMap<(Rank, Rank), u64>,
    rng_state: u64,
    mb_txs: Vec<Sender<Envelope>>,
    mb_rxs: Vec<Option<Receiver<Envelope>>>,
    stats: Vec<Arc<CommStats>>,
    memberships: Vec<Arc<Membership>>,
    dead: Vec<bool>,
    events: u64,
    delivered: u64,
    dropped_by_fault: u64,
}

impl SimWorld {
    /// Build a simulated world for `cfg.nranks` ranks over `opts.planet`.
    pub fn new(cfg: WorldConfig, opts: SimOpts) -> SimWorld {
        assert!(cfg.nranks > 0, "world must have at least one rank");
        let (mb_txs, mb_rxs): (Vec<_>, Vec<_>) =
            (0..cfg.nranks).map(|_| bounded(cfg.queue_capacity)).unzip();
        let regions = (0..cfg.nranks)
            .map(|r| opts.planet.rank_region(r, cfg.nranks))
            .collect();
        // Every rank's flight recorder timestamps on the *virtual* clock,
        // so same-seed runs emit byte-identical traces (a tested
        // invariant — see `tests/sim_determinism.rs`).
        let clock = Clock::virtual_clock();
        let stats: Vec<Arc<CommStats>> = (0..cfg.nranks)
            .map(|rank| {
                let rec = cfg.trace.recorder(rank as u32, clock.clone());
                Arc::new(CommStats::with_recorder(rec))
            })
            .collect();
        let memberships = (0..cfg.nranks)
            .map(|rank| Arc::new(Membership::new(rank, cfg.nranks)))
            .collect();
        let mut w = SimWorld {
            rng_state: (cfg.seed ^ 0x5EED) | 1,
            network: opts.network,
            planet: opts.planet,
            regions,
            clock,
            heap: BinaryHeap::new(),
            seq: 0,
            stage: SimStage::default(),
            last_due: HashMap::new(),
            in_flight: HashMap::new(),
            mb_txs,
            mb_rxs: mb_rxs.into_iter().map(Some).collect(),
            stats,
            memberships,
            dead: vec![false; cfg.nranks],
            events: 0,
            delivered: 0,
            dropped_by_fault: 0,
            cfg,
        };
        // Scripted kills and rejoins become schedule entries so they
        // interleave with deliveries in deterministic (due, seq) order.
        for f in opts.faults.faults {
            let (at, kind) = match f {
                Fault::Kill { rank, at } => (at, EventKind::Kill { rank }),
                Fault::Rejoin { rank, at } => (at, EventKind::Rejoin { rank }),
            };
            w.heap.push(Reverse(SimEntry {
                due: at,
                seq: w.seq,
                kind,
            }));
            w.seq += 1;
        }
        w
    }

    /// World size (P).
    pub fn nranks(&self) -> usize {
        self.cfg.nranks
    }

    /// Current virtual time.
    pub fn now(&self) -> TimePoint {
        self.clock.now()
    }

    /// The region hosting `rank`.
    pub fn region(&self, rank: Rank) -> Region {
        self.regions[rank]
    }

    /// The planet this world runs on.
    pub fn planet(&self) -> &Planet {
        &self.planet
    }

    /// A sending handle for `rank` — the unchanged [`CommHandle`] API;
    /// sends are staged for the event schedule instead of delivered.
    /// Local control ([`CommHandle::post_local`]) is not a send: it lands
    /// in `rank`'s own mailbox at once, with no event and no latency.
    pub fn comm(&self, rank: Rank) -> CommHandle {
        assert!(rank < self.cfg.nranks, "rank {rank} out of range");
        CommHandle {
            rank,
            size: self.cfg.nranks,
            seed: self.cfg.seed,
            route: Route::Sim(SimRoute {
                src: rank,
                stage: self.stage.clone(),
                local: self.mb_txs[rank].clone(),
            }),
            stats: Arc::clone(&self.stats[rank]),
            queue_deadline: self.cfg.queue_deadline,
            membership: Arc::clone(&self.memberships[rank]),
            clock: self.clock.clone(),
        }
    }

    /// `rank`'s per-peer liveness view (shared with its [`CommHandle`]s).
    pub fn membership(&self, rank: Rank) -> Arc<Membership> {
        Arc::clone(&self.memberships[rank])
    }

    /// Whether `rank` is dead (scripted kill or [`SimWorld::kill`]).
    pub fn is_dead(&self, rank: Rank) -> bool {
        self.dead[rank]
    }

    /// The live ranks, sorted.
    pub fn live_ranks(&self) -> Vec<Rank> {
        (0..self.cfg.nranks).filter(|&r| !self.dead[r]).collect()
    }

    /// Kill `rank` *now*: from this instant it neither sends nor
    /// receives, and every live rank gets an [`Envelope::PeerDown`]
    /// delivery at the current virtual time (drained through the normal
    /// mailbox path, so harnesses see the death in deterministic event
    /// order). Messages the victim already had in flight still land —
    /// exactly the TCP semantics, where buffered bytes survive the
    /// sender's death. Idempotent.
    pub fn kill(&mut self, rank: Rank) {
        assert!(rank < self.cfg.nranks, "rank {rank} out of range");
        if self.dead[rank] {
            return;
        }
        self.dead[rank] = true;
        for dst in 0..self.cfg.nranks {
            if dst == rank || self.dead[dst] {
                continue;
            }
            self.notify_now(rank, dst, Envelope::PeerDown { peer: rank });
        }
    }

    /// Deliver a membership notice about `src` to `dst` at the current
    /// virtual time, through the normal mailbox path.
    fn notify_now(&mut self, src: Rank, dst: Rank, env: Envelope) {
        self.heap.push(Reverse(SimEntry {
            due: self.clock.now(),
            seq: self.seq,
            kind: EventKind::Deliver {
                src,
                dst,
                env,
                delay_ns: 0,
                held_ns: 0,
                held_behind: 0,
            },
        }));
        self.seq += 1;
    }

    /// Bring a killed `rank` back *now*: clears its dead flag, re-admits
    /// it in every live rank's membership view, and resets the joiner's
    /// own view to the current world (live peers alive with fresh timing
    /// state, dead peers down) — the simulator's stand-in for a freshly
    /// relaunched process that learned the membership from the admission
    /// state transfer. The joiner is also sent a `PeerUp` for every live
    /// peer: drivers keep a corpse's engine, whose down set froze when it
    /// died, so a peer readmitted meanwhile would stay null-synthesized on
    /// the joiner forever and the rounds that peer feeds it would fork.
    /// The *collective* side of admission (fence agreement, schedule
    /// rebuild) is the driver's job, triggered by the
    /// [`SimEvent::Rejoin`] this surfaces through [`SimWorld::step`] when
    /// scripted. Idempotent: rejoining a live rank is a no-op.
    pub fn rejoin(&mut self, rank: Rank) {
        assert!(rank < self.cfg.nranks, "rank {rank} out of range");
        if !self.dead[rank] {
            return;
        }
        self.dead[rank] = false;
        for r in 0..self.cfg.nranks {
            if r == rank || self.dead[r] {
                continue;
            }
            self.memberships[r].readmit(rank);
            // Mirror [`SimWorld::kill`]'s PeerDown fan-out: every
            // survivor's engine must drop its null-synthesis verdict for
            // the joiner before rounds past the admission fence are
            // built, or the joiner's contributions stay nulled forever.
            // Pushed after the Rejoin event that surfaced this call, so
            // drivers run the admission protocol first, then the engines
            // learn of the comeback — still before any post-fence
            // deposit timer can fire.
            self.notify_now(rank, r, Envelope::PeerUp { peer: rank });
        }
        for q in 0..self.cfg.nranks {
            if self.dead[q] {
                self.memberships[rank].report_down(q);
            } else {
                self.memberships[rank].readmit(q);
                if q != rank {
                    self.notify_now(q, rank, Envelope::PeerUp { peer: q });
                }
            }
        }
    }

    /// Take `rank`'s receive half (once).
    pub fn take_inbox(&mut self, rank: Rank) -> Inbox {
        Inbox {
            rx: self.mb_rxs[rank]
                .take()
                .expect("inbox already taken for this rank"),
        }
    }

    /// `rank`'s queue-pressure counters.
    pub fn comm_stats(&self, rank: Rank) -> Arc<CommStats> {
        Arc::clone(&self.stats[rank])
    }

    /// Schedule an application event (an arrival, a deadline) at `at`;
    /// `token` is returned verbatim in [`SimEvent::Timer`].
    pub fn schedule_timer(&mut self, at: TimePoint, rank: Rank, token: u64) {
        let due = at.max(self.clock.now());
        self.heap.push(Reverse(SimEntry {
            due,
            seq: self.seq,
            kind: EventKind::Timer { rank, token },
        }));
        self.seq += 1;
    }

    /// xorshift64*: the deterministic jitter stream.
    fn next_jitter(&mut self, max: Duration) -> Duration {
        self.rng_state ^= self.rng_state >> 12;
        self.rng_state ^= self.rng_state << 25;
        self.rng_state ^= self.rng_state >> 27;
        let r = self.rng_state.wrapping_mul(0x2545F4914F6CDD1D);
        let nanos = max.as_nanos() as u64;
        if nanos == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos(r % nanos)
        }
    }

    /// Move staged sends into the event heap with composed latencies and
    /// the per-pair non-overtaking clamp.
    ///
    /// When the clamp fires — the message would have arrived at its
    /// modeled time but an earlier message on the same `(src, dst)` wire
    /// is still in flight — the held interval is recorded as a
    /// [`pcoll_obs::EventKind::QueueStall`] on the *sender*: it is the
    /// virtual-time analogue of a bounded send queue exerting
    /// backpressure (the message sat serialized behind its predecessors),
    /// with `depth` = messages ahead of it on that wire.
    fn flush_sends(&mut self) {
        let staged: Vec<(Rank, Rank, Envelope)> = {
            let mut q = self.stage.queue.lock().expect("sim stage lock");
            std::mem::take(&mut *q)
        };
        let now = self.clock.now();
        for (src, dst, env) in staged {
            // Dead ends: a corpse neither sends nor receives. (Messages
            // already *in the heap* when a rank dies are handled at pop.)
            if self.dead[src] || self.dead[dst] {
                self.dropped_by_fault += 1;
                continue;
            }
            let bytes = match &env {
                Envelope::Data(m) => m.wire_bytes(),
                Envelope::Shutdown
                | Envelope::PeerDown { .. }
                | Envelope::PeerUp { .. }
                | Envelope::Activate { .. } => 0,
            };
            let latency = self.planet.one_way(self.regions[src], self.regions[dst])
                + self.network.base_latency(bytes)
                + self.next_jitter(self.network.jitter());
            let natural = now + latency;
            let mut due = natural;
            if let Some(prev) = self.last_due.get(&(src, dst)) {
                due = due.max(*prev);
            }
            let held_ns = due.duration_since(natural).as_nanos() as u64;
            let held_behind = self.in_flight.get(&(src, dst)).copied().unwrap_or(0);
            self.last_due.insert((src, dst), due);
            *self.in_flight.entry((src, dst)).or_insert(0) += 1;
            self.heap.push(Reverse(SimEntry {
                due,
                seq: self.seq,
                kind: EventKind::Deliver {
                    src,
                    dst,
                    env,
                    delay_ns: due.duration_since(now).as_nanos() as u64,
                    held_ns,
                    held_behind,
                },
            }));
            self.seq += 1;
        }
    }

    /// Advance the world by one event: flush staged sends, pop the
    /// earliest entry, move the clock to its due time, and either push a
    /// delivery into the destination mailbox or surface a timer. `None`
    /// when the schedule is empty (and nothing was staged).
    pub fn step(&mut self) -> Option<SimEvent> {
        loop {
            self.flush_sends();
            let Reverse(entry) = self.heap.pop()?;
            self.clock.advance_to(entry.due);
            self.events += 1;
            match entry.kind {
                EventKind::Kill { rank } => {
                    // Scripted death coming due: mark and fan the
                    // PeerDown notifications out, then keep stepping —
                    // the notifications themselves surface as ordinary
                    // deliveries.
                    self.kill(rank);
                    continue;
                }
                EventKind::Rejoin { rank } => {
                    // Scripted comeback: only meaningful for a rank that
                    // is actually dead; surfaced so the driver runs the
                    // admission protocol at this exact instant.
                    if !self.dead[rank] {
                        continue;
                    }
                    self.rejoin(rank);
                    return Some(SimEvent::Rejoin { rank });
                }
                EventKind::Deliver {
                    src,
                    dst,
                    env,
                    delay_ns,
                    held_ns,
                    held_behind,
                } => {
                    if self.dead[dst] {
                        // The destination died while this was on the wire.
                        self.dropped_by_fault += 1;
                        if let Some(n) = self.in_flight.get_mut(&(src, dst)) {
                            *n = n.saturating_sub(1);
                        }
                        continue;
                    }
                    return Some(self.deliver(src, dst, env, delay_ns, held_ns, held_behind));
                }
                EventKind::Timer { rank, token } => {
                    if self.dead[rank] {
                        continue;
                    }
                    return Some(SimEvent::Timer { rank, token });
                }
            }
        }
    }

    /// Land one due message in `dst`'s mailbox (the tail of
    /// [`SimWorld::step`]'s Deliver arm).
    fn deliver(
        &mut self,
        src: Rank,
        dst: Rank,
        env: Envelope,
        delay_ns: u64,
        held_ns: u64,
        held_behind: u64,
    ) -> SimEvent {
        self.delivered += 1;
        if let Some(n) = self.in_flight.get_mut(&(src, dst)) {
            *n = n.saturating_sub(1);
        }
        // The wire released the message: a verbose instant on the
        // receiver, and — when the non-overtaking clamp held it —
        // a stall span on the sender ending now (the sim's
        // backpressure signal; see `flush_sends`).
        self.stats[dst]
            .recorder()
            .record(pcoll_obs::LEVEL_VERBOSE, || {
                pcoll_obs::EventKind::NetRelease {
                    dst: dst as u32,
                    delay_ns,
                }
            });
        if held_ns > 0 {
            self.stats[src]
                .recorder()
                .record(pcoll_obs::LEVEL_SPANS, || {
                    pcoll_obs::EventKind::QueueStall {
                        depth: held_behind,
                        dur_ns: held_ns,
                    }
                });
        }
        // Keep the receiver's membership view current: a PeerDown
        // notification is a local verdict.
        match &env {
            Envelope::PeerDown { peer } => {
                if self.memberships[dst].report_down(*peer) {
                    self.stats[dst]
                        .recorder()
                        .record(pcoll_obs::LEVEL_SPANS, || pcoll_obs::EventKind::PeerDown {
                            peer: *peer as u32,
                        });
                }
            }
            // Membership was already flipped by [`SimWorld::rejoin`];
            // record the event on the receiving rank's timeline so the
            // flight recorder shows when each survivor learned of it.
            Envelope::PeerUp { peer } => {
                self.stats[dst]
                    .recorder()
                    .record(pcoll_obs::LEVEL_SPANS, || pcoll_obs::EventKind::PeerUp {
                        peer: *peer as u32,
                    });
            }
            Envelope::Data(_) | Envelope::Shutdown | Envelope::Activate { .. } => {}
        }
        if self.mb_txs[dst].try_send(env).is_err() {
            // A full mailbox here means the driver is not draining
            // after deliveries — a bug in the harness, not a
            // backpressure scenario the single-threaded sim can
            // resolve by blocking.
            panic!(
                "sim mailbox for rank {dst} rejected a delivery \
                 (capacity {}): drain the inbox after every event",
                self.cfg.queue_capacity
            );
        }
        SimEvent::Deliver { dst }
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Message deliveries so far.
    pub fn messages_delivered(&self) -> u64 {
        self.delivered
    }

    /// Messages destroyed by faults so far (sent from or to a dead rank).
    pub fn messages_dropped_by_fault(&self) -> u64 {
        self.dropped_by_fault
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::{CollId, WireTag};
    use crate::TypedBuf;

    fn world(p: usize, network: NetworkModel, planet: Planet) -> SimWorld {
        SimWorld::new(
            WorldConfig::instant(p),
            SimOpts {
                network,
                planet,
                ..SimOpts::default()
            },
        )
    }

    fn tag(sem: u32) -> WireTag {
        WireTag::new(CollId(1), 0, sem)
    }

    #[test]
    fn planet_wan_is_symmetric_with_cheap_intra_region() {
        let p = Planet::wan();
        for a in 0..p.nregions() {
            for b in 0..p.nregions() {
                assert_eq!(
                    p.one_way(Region(a), Region(b)),
                    p.one_way(Region(b), Region(a))
                );
                if a != b {
                    assert!(p.one_way(Region(a), Region(b)) > p.one_way(Region(a), Region(a)));
                }
            }
        }
    }

    #[test]
    fn rank_region_blocks_cover_all_regions() {
        let p = Planet::wan();
        let counts = (0..64).fold(vec![0usize; 4], |mut acc, r| {
            acc[p.rank_region(r, 64).0] += 1;
            acc
        });
        assert_eq!(counts, vec![16; 4], "contiguous equal blocks");
    }

    /// Local control is not a network send: it is in the rank's own inbox
    /// before any `step`, moves no send counter and schedules no event.
    #[test]
    fn post_local_lands_at_once_without_the_network_model() {
        let mut w = world(
            4,
            NetworkModel::cloud(),
            Planet::uniform(2, Duration::from_millis(50)),
        );
        let inbox = w.take_inbox(3);
        w.comm(3).post_local(Envelope::Activate {
            coll: CollId(1),
            round: 7,
        });
        assert!(matches!(
            inbox.try_recv(),
            Some(Envelope::Activate { round: 7, .. })
        ));
        assert_eq!(w.comm_stats(3).sends.load(Ordering::Relaxed), 0);
        assert_eq!(w.messages_delivered(), 0);
        assert_eq!(w.step(), None);
        assert_eq!(w.now(), TimePoint::ZERO);
    }

    #[test]
    fn delivery_advances_virtual_time_by_composed_latency() {
        let mut w = world(
            8,
            NetworkModel::AlphaBeta {
                alpha: Duration::from_micros(100),
                beta_ns_per_byte: 0.0,
                jitter: Duration::ZERO,
            },
            Planet::uniform(2, Duration::from_millis(50)),
        );
        // Rank 0 (region 0) → rank 7 (region 1): 50ms + 100µs.
        let mut inbox7 = w.take_inbox(7);
        w.comm(0)
            .send(7, tag(0), Some(TypedBuf::from(vec![1.0f32])));
        assert_eq!(w.step(), Some(SimEvent::Deliver { dst: 7 }));
        assert_eq!(w.now().as_nanos(), 50_000_000 + 100_000);
        assert!(matches!(inbox7.try_recv(), Some(Envelope::Data(_))));
        // Intra-region pair pays only the model latency.
        let mut inbox1 = w.take_inbox(1);
        w.comm(0)
            .send(1, tag(1), Some(TypedBuf::from(vec![2.0f32])));
        let before = w.now();
        w.step().unwrap();
        assert_eq!(w.now().duration_since(before), Duration::from_micros(100));
        assert!(inbox1.try_recv().is_some());
        let _ = &mut inbox7;
        let _ = &mut inbox1;
    }

    #[test]
    fn same_pair_messages_do_not_overtake_under_jitter() {
        let mut w = world(
            2,
            NetworkModel::AlphaBeta {
                alpha: Duration::from_micros(10),
                beta_ns_per_byte: 0.0,
                jitter: Duration::from_millis(2),
            },
            Planet::single(),
        );
        let inbox = w.take_inbox(1);
        let c = w.comm(0);
        for i in 0..64 {
            c.send(1, tag(i), Some(TypedBuf::from(vec![i as f32])));
        }
        let mut got = Vec::new();
        while let Some(SimEvent::Deliver { dst }) = w.step() {
            assert_eq!(dst, 1);
            match inbox.try_recv() {
                Some(Envelope::Data(m)) => got.push(m.tag.sem),
                other => panic!("unexpected {other:?}"),
            }
        }
        let want: Vec<u32> = (0..64).collect();
        assert_eq!(got, want, "per-pair FIFO under jitter");
    }

    #[test]
    fn event_order_is_bit_identical_across_runs() {
        let run = || {
            let mut w = world(
                4,
                NetworkModel::cloud(),
                Planet::uniform(2, Duration::from_millis(10)),
            );
            let inboxes: Vec<Inbox> = (0..4).map(|r| w.take_inbox(r)).collect();
            for src in 0..4usize {
                let c = w.comm(src);
                for dst in 0..4usize {
                    if dst != src {
                        c.send(dst, tag(src as u32), Some(TypedBuf::from(vec![src as f32])));
                    }
                }
            }
            let mut log = Vec::new();
            while let Some(ev) = w.step() {
                if let SimEvent::Deliver { dst } = ev {
                    if let Some(Envelope::Data(m)) = inboxes[dst].try_recv() {
                        log.push((w.now().as_nanos(), m.src, dst));
                    }
                }
            }
            log
        };
        assert_eq!(run(), run(), "same seed, same schedule, same log");
    }

    #[test]
    fn scripted_rejoin_clears_death_and_readmits_in_every_view() {
        let ms = |n: u64| TimePoint::from_nanos(n * 1_000_000);
        let faults = FaultPlan::none()
            .with(Fault::Kill {
                rank: 1,
                at: ms(10),
            })
            .with(Fault::Rejoin {
                rank: 1,
                at: ms(30),
            });
        let mut w = SimWorld::new(
            WorldConfig::instant(3),
            SimOpts {
                faults,
                ..SimOpts::default()
            },
        );
        let inboxes: Vec<Inbox> = (0..3).map(|r| w.take_inbox(r)).collect();
        let mut saw_down = false;
        let mut rejoined_at = None;
        while let Some(ev) = w.step() {
            match ev {
                SimEvent::Deliver { dst } => {
                    if let Some(Envelope::PeerDown { peer }) = inboxes[dst].try_recv() {
                        assert_eq!(peer, 1);
                        saw_down = true;
                        assert!(w.is_dead(1), "PeerDown precedes the comeback");
                    }
                }
                SimEvent::Rejoin { rank } => {
                    assert_eq!(rank, 1);
                    rejoined_at = Some(w.now());
                }
                SimEvent::Timer { .. } => {}
            }
        }
        assert!(saw_down, "kill must fan PeerDown to the survivors");
        assert_eq!(rejoined_at, Some(ms(30)));
        assert!(!w.is_dead(1));
        assert_eq!(w.live_ranks(), vec![0, 1, 2]);
        for r in 0..3 {
            assert_eq!(w.membership(r).live(), vec![0, 1, 2], "rank {r} view");
        }
    }

    #[test]
    fn timers_interleave_with_deliveries_in_due_order() {
        let mut w = world(2, NetworkModel::Instant, Planet::single());
        let _inbox = w.take_inbox(1);
        w.schedule_timer(TimePoint::from_nanos(500), 0, 7);
        w.schedule_timer(TimePoint::from_nanos(100), 1, 8);
        let events: Vec<SimEvent> = std::iter::from_fn(|| w.step()).collect();
        assert_eq!(
            events,
            vec![
                SimEvent::Timer { rank: 1, token: 8 },
                SimEvent::Timer { rank: 0, token: 7 },
            ]
        );
        assert_eq!(w.now().as_nanos(), 500);
    }
}
