//! The per-rank progress engine ("library offloading", §4.3).
//!
//! One `Engine` runs per rank on a dedicated communication thread. The
//! application registers persistent [`CollectiveTemplate`]s, then simply
//! activates rounds; the engine:
//!
//! 1. instantiates the template's schedule for a round on **internal
//!    activation** (the app arrived) or **external activation** (the first
//!    message for that round arrived from a faster rank — §4.1's forced
//!    join);
//! 2. snapshots the rank's contribution into slot 0 when the schedule it
//!    just built says to ([`Schedule::snapshot_at`]): at instance creation
//!    (fresh gradient if the app already deposited one, otherwise the
//!    stale/null content of the send buffer — Fig. 7 semantics, enforced by
//!    the template's `snapshot`), or at internal activation for schedules
//!    whose sends wait on the rank's own arrival;
//! 3. executes operations as their dependencies are satisfied, exactly once
//!    each (consumable ops);
//! 4. on completion, hands the result to the template (`complete`), which
//!    typically overwrites a latest-wins receive buffer.
//!
//! A completed instance is dropped **at completion** — all of its ops have
//! fired, so it can never forward anything again; retaining its buffers
//! would only pin tensors. What survives is a lightweight completion
//! record (just the round number, kept for a `GC_LAG` window) so a late
//! straggler message for a dropped round is counted and ignored exactly
//! once instead of resurrecting the instance — a resurrection would steal
//! the *next* round's deposit as this round's contribution. The dropped
//! instance's uniquely-owned buffers are harvested into one engine-wide
//! scratch pool that feeds the copy-on-write combines and result assembly
//! of later rounds — of *any* collective of the same `(dtype, len)`, so a
//! collective registered after another went idle starts on a primed pool.
//! Retention is bounded per shape, so other shapes cannot crowd out the
//! tensor-sized contribution a round frees and the next draws to assemble
//! in: the steady state pins one round of tensors and allocates none.
//! Messages addressed below the GC floor are dropped (they can only be
//! duplicate activations or stragglers of rounds whose result has long
//! been superseded).
//!
//! The progress logic itself is transport-agnostic and lives in
//! [`EngineCore`], a plain single-threaded state machine. [`Engine`] wraps
//! a core in a dedicated thread selecting over commands and the inbox (the
//! in-process and TCP deployments); the discrete-event simulator instead
//! drives one core per rank from its event loop, feeding it the very same
//! `register`/`activate`/`on_message` calls — same engine code on every
//! transport. All timing reads go through the clock the rank's
//! [`CommHandle`] carries (wall on the threaded engine, virtual under the
//! simulator), so per-round latency telemetry is deterministic whenever
//! time itself is.

use crate::dag::DagState;
use crate::op::{OpId, OpKind, Schedule, SnapshotTiming, CONTRIB_SLOT};
use crossbeam::channel::{unbounded, Receiver, Sender};
use pcoll_comm::payload::pooled_buffer;
use pcoll_comm::{
    CollId, CommHandle, CommStats, Envelope, Inbox, Message, Payload, Rank, TimePoint, TypedBuf,
    WireTag,
};
use pcoll_obs::{EventKind as Ev, LEVEL_SPANS, LEVEL_VERBOSE};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How many rounds behind the latest completion a round's *completion
/// record* is retained. Completed instances themselves are dropped at
/// completion (their ops have all fired; they forward nothing); the
/// record is what lets a late straggler message for such a round be
/// recognized and dropped instead of force-joining a ghost instance.
const GC_LAG: u64 = 8;

/// Upper bound on pooled buffers of any one `(dtype, len)` shape; excess
/// harvests are freed. Per shape: a bound on the whole pool fills with
/// whatever shapes arrived first and from then on turns away every buffer
/// a later collective frees — its contribution included, which is the
/// assembly buffer its next round draws (a ring round: `p − 1` chunks too).
const SHAPE_CAP: usize = 8;

/// Upper bound on still-shared payloads parked for one more round before
/// harvesting (see `harvest_instance`).
const LIMBO_CAP: usize = 32;

/// Per-round completion statistics handed to
/// [`CollectiveTemplate::complete`]: the engine-side half of a round's
/// facts (the app-side half — freshness, staleness — lives with the
/// template's buffers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundStats {
    /// The completed round.
    pub round: u64,
    /// Whether this rank was dragged in by a peer's message (external
    /// activation, §4.1) rather than arriving on its own.
    pub external: bool,
    /// Wall time from instance creation on this rank to completion.
    pub elapsed: std::time::Duration,
}

/// A persistent collective: the engine re-instantiates it for every round
/// (§4.1.1 "Persistent schedules").
///
/// Implementations live in the `pcoll` crate; they own the send/receive
/// buffers and the schedule construction for their algorithm.
pub trait CollectiveTemplate: Send {
    /// Build this rank's schedule for `round` (SPMD: every rank builds a
    /// structurally matching schedule).
    fn build(&self, round: u64) -> Schedule;

    /// Capture this rank's contribution for `round`. For partial
    /// collectives this takes whatever the send buffer holds *right now* —
    /// fresh, stale, or null. `None` for data-free collectives (barriers).
    ///
    /// Returns a [`Payload`] so an owned deposit flows through as a move
    /// (or a refcount bump when the application keeps a handle) — the
    /// engine never copies the contribution on the way in; its
    /// copy-on-write combines handle any remaining sharing.
    fn snapshot(&self, round: u64) -> Option<Payload>;

    /// Deliver the completed result for round `stats.round`, with the
    /// engine-side facts of that round. The one call the engine makes per
    /// completion, on the engine thread; implementations should only
    /// update state and notify.
    fn complete(&self, stats: &RoundStats, result: Option<TypedBuf>);
}

/// Monotonic counters exposed for tests, ablations and diagnostics.
#[derive(Debug, Default)]
pub struct EngineStats {
    /// Instances created because the local app activated first.
    pub internal_activations: AtomicU64,
    /// Instances created by an incoming message (forced join).
    pub external_activations: AtomicU64,
    /// Completed instances.
    pub completions: AtomicU64,
    /// Messages dropped because their round was below the GC floor.
    pub dropped_gc: AtomicU64,
    /// Messages for a round that already completed on this rank (its
    /// instance was dropped at completion); each is counted and ignored
    /// exactly once — never resurrects the instance.
    pub dropped_late: AtomicU64,
    /// Duplicate messages absorbed by consumable receives.
    pub dropped_dup: AtomicU64,
    /// Messages with no matching receive op in the schedule.
    pub dropped_unmatched: AtomicU64,
    /// Messages buffered before their collective was registered.
    pub pre_registered: AtomicU64,
}

impl EngineStats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot all counters (test convenience).
    pub fn snapshot(&self) -> [u64; 8] {
        [
            self.internal_activations.load(Ordering::Relaxed),
            self.external_activations.load(Ordering::Relaxed),
            self.completions.load(Ordering::Relaxed),
            self.dropped_gc.load(Ordering::Relaxed),
            self.dropped_late.load(Ordering::Relaxed),
            self.dropped_dup.load(Ordering::Relaxed),
            self.dropped_unmatched.load(Ordering::Relaxed),
            self.pre_registered.load(Ordering::Relaxed),
        ]
    }
}

enum Cmd {
    Register {
        coll: CollId,
        template: Box<dyn CollectiveTemplate>,
    },
    Activate {
        coll: CollId,
        round: u64,
    },
    PeerUp {
        peer: Rank,
    },
    Shutdown,
}

/// Something that can host persistent collectives: accept template
/// registrations and round activations. Two implementations:
///
/// - [`Engine`] — forwards to its progress thread (inproc/TCP);
/// - [`CmdQueue`] — stages the calls for a single-threaded driver to
///   drain into an [`EngineCore`] (the simulator).
///
/// Collective frontends (e.g. `pcoll`'s partial allreduce) hold an
/// `Arc<dyn TemplateHost>` so the *same* frontend code runs on every
/// transport.
pub trait TemplateHost: Send + Sync {
    /// Register a persistent collective under `coll` (must precede its
    /// first activation on this rank).
    fn register_template(&self, coll: CollId, template: Box<dyn CollectiveTemplate>);

    /// Internally activate `round` of `coll`.
    fn activate_round(&self, coll: CollId, round: u64);
}

impl TemplateHost for Engine {
    fn register_template(&self, coll: CollId, template: Box<dyn CollectiveTemplate>) {
        self.register(coll, template);
    }

    fn activate_round(&self, coll: CollId, round: u64) {
        self.activate(coll, round);
    }
}

/// A staged command queue: the [`TemplateHost`] for event-driven
/// deployments. Registrations and activations accumulate here (cheap,
/// lock-guarded pushes) until the driver calls [`EngineCore::drain_cmds`]
/// — which keeps the engine core single-threaded while letting frontends
/// hold a cloneable, `Send + Sync` host handle.
#[derive(Clone, Default)]
pub struct CmdQueue {
    staged: Arc<Mutex<Vec<(CollId, HostCmd)>>>,
}

enum HostCmd {
    Register(Box<dyn CollectiveTemplate>),
    Activate(u64),
}

impl CmdQueue {
    /// An empty queue.
    pub fn new() -> CmdQueue {
        CmdQueue::default()
    }

    /// Whether any staged commands are pending.
    pub fn is_empty(&self) -> bool {
        self.staged.lock().expect("cmd queue lock").is_empty()
    }
}

impl TemplateHost for CmdQueue {
    fn register_template(&self, coll: CollId, template: Box<dyn CollectiveTemplate>) {
        self.staged
            .lock()
            .expect("cmd queue lock")
            .push((coll, HostCmd::Register(template)));
    }

    fn activate_round(&self, coll: CollId, round: u64) {
        self.staged
            .lock()
            .expect("cmd queue lock")
            .push((coll, HostCmd::Activate(round)));
    }
}

/// Application-side handle to the progress engine. Cloneable; dropping the
/// last handle does **not** stop the thread — call [`Engine::shutdown`]
/// (done by `pcoll`'s finalize) after synchronizing ranks.
#[derive(Clone)]
pub struct Engine {
    cmd_tx: Sender<Cmd>,
    stats: Arc<EngineStats>,
    join: Arc<parking_lot::Mutex<Option<std::thread::JoinHandle<()>>>>,
}

impl Engine {
    /// Spawn the progress thread for this rank.
    pub fn spawn(comm: CommHandle, inbox: Inbox) -> Engine {
        let (cmd_tx, cmd_rx) = unbounded();
        let stats = Arc::new(EngineStats::default());
        let st = Arc::clone(&stats);
        let rank = comm.rank();
        let join = std::thread::Builder::new()
            .name(format!("pcoll-engine-{rank}"))
            .spawn(move || {
                let mut p = EngineCore::with_stats(comm, st);
                p.run(cmd_rx, inbox);
            })
            .expect("spawn engine thread");
        Engine {
            cmd_tx,
            stats,
            join: Arc::new(parking_lot::Mutex::new(Some(join))),
        }
    }

    /// Register a persistent collective under `coll`. Must precede
    /// activation of that collective on this rank; messages arriving
    /// before registration are buffered.
    pub fn register(&self, coll: CollId, template: Box<dyn CollectiveTemplate>) {
        let _ = self.cmd_tx.send(Cmd::Register { coll, template });
    }

    /// Internally activate `round` of `coll` (the app reached the
    /// collective call). Creates the instance if no message beat us to it.
    pub fn activate(&self, coll: CollId, round: u64) {
        let _ = self.cmd_tx.send(Cmd::Activate { coll, round });
    }

    /// Reverse a peer-death verdict: the admission fence readmitted
    /// `peer`, so instances created from now on must wait for its real
    /// contributions instead of synthesizing nulls. Ordered on the
    /// command channel, so it takes effect before any activation staged
    /// after it — the caller sends this before activating the fence
    /// collectives, guaranteeing no post-fence round is born with the
    /// joiner nulled out.
    pub fn peer_up(&self, peer: Rank) {
        let _ = self.cmd_tx.send(Cmd::PeerUp { peer });
    }

    /// Engine counters.
    pub fn stats(&self) -> &Arc<EngineStats> {
        &self.stats
    }

    /// Stop the progress thread. Callers must ensure no peer still needs
    /// this rank's participation (e.g. via a final barrier) — this is the
    /// `MPI_Finalize` contract.
    pub fn shutdown(&self) {
        let _ = self.cmd_tx.send(Cmd::Shutdown);
        if let Some(j) = self.join.lock().take() {
            let _ = j.join();
        }
    }
}

struct Instance {
    sched: Schedule,
    dag: DagState,
    /// Slot buffers hold shared payloads: a `SendData` is an `Arc` bump,
    /// a `Combine` mutates copy-on-write (in place once any in-flight
    /// sharers have drained).
    bufs: Vec<Option<Payload>>,
    /// (peer, sem) → receive op routing table.
    recv_route: HashMap<(Rank, u32), OpId>,
    /// Payloads that arrived but whose receive op has not fired yet.
    pending_payloads: HashMap<OpId, Option<Payload>>,
    /// Whether the contribution snapshot has been taken (see
    /// [`SnapshotTiming`]).
    snapshotted: bool,
    /// Instance creation time on the engine's clock (for
    /// [`RoundStats::elapsed`]).
    created: TimePoint,
    /// Created by an incoming message rather than local activation.
    external: bool,
}

struct CollState {
    template: Box<dyn CollectiveTemplate>,
    /// In-flight instances only: an instance is removed the moment it
    /// completes (all ops fired — it can never forward anything again).
    instances: HashMap<u64, Instance>,
    /// Lightweight completion records for the `GC_LAG` window: rounds
    /// whose instance was dropped at completion. Late straggler messages
    /// for these are counted (`dropped_late`) and ignored — never allowed
    /// to resurrect an instance (which would consume a fresh deposit).
    completed_rounds: HashSet<u64>,
    /// Highest completed round, if any.
    latest_completed: Option<u64>,
    /// Messages for rounds below this are dropped.
    gc_floor: u64,
}

/// The transport-agnostic progress state machine: one per rank, strictly
/// single-threaded, timed on its communicator's clock. [`Engine::spawn`]
/// runs one on a dedicated thread; the discrete-event simulator owns one
/// per simulated rank and calls [`EngineCore::drain_cmds`] /
/// [`EngineCore::on_envelope`] from its event loop. Either way the progress
/// semantics — forced joins, snapshot timing, consumable ops, GC — are
/// this exact code.
pub struct EngineCore {
    comm: CommHandle,
    colls: HashMap<CollId, CollState>,
    pre_register: HashMap<CollId, Vec<Message>>,
    stats: Arc<EngineStats>,
    /// The rank's communication stats block: receive accounting happens
    /// here (the engine is the inbox's consumer on engine-driven ranks),
    /// and its flight recorder is where every engine event lands.
    comm_stats: Arc<CommStats>,
    /// Peers this rank has been told are dead ([`Envelope::PeerDown`]).
    /// Every receive expected from a down peer — in-flight instances and
    /// instances created later — is satisfied with a null payload, so a
    /// round never hangs on a corpse: its contribution is simply absent
    /// (the Fig. 7 null-contribution semantics). Empty in a healthy run,
    /// so the liveness machinery costs one `is_empty` check per event.
    down: HashSet<Rank>,
    /// Recycle pool fed by completed instances' uniquely-owned buffers
    /// (of every collective on this engine); drained by fused
    /// copy-on-write combines and `CopyAt` assembly of later rounds.
    /// Exact dtype+len matching, `SHAPE_CAP` retained of each. One pool
    /// per engine rather than per collective: collectives are never
    /// deregistered, so a per-collective pool would pin an idle
    /// collective's buffers until shutdown while its successor allocates
    /// the same shapes afresh.
    scratch: Vec<TypedBuf>,
    /// Harvest candidates that were still shared at completion (their
    /// sender's handle had not drained yet). Retried once, at the next
    /// completion; a buffer still shared then is dropped.
    limbo: Vec<Payload>,
}

impl EngineCore {
    /// A fresh core sending through `comm` and timing on its clock.
    pub fn new(comm: CommHandle) -> EngineCore {
        EngineCore::with_stats(comm, Arc::new(EngineStats::default()))
    }

    /// Like [`EngineCore::new`] but sharing an existing stats block (used
    /// by [`Engine::spawn`] so its handle observes the core's counters).
    pub fn with_stats(comm: CommHandle, stats: Arc<EngineStats>) -> EngineCore {
        let comm_stats = comm.comm_stats();
        EngineCore {
            comm,
            colls: HashMap::new(),
            pre_register: HashMap::new(),
            stats,
            comm_stats,
            down: HashSet::new(),
            scratch: Vec::new(),
            limbo: Vec::new(),
        }
    }

    /// Engine counters.
    pub fn stats(&self) -> &Arc<EngineStats> {
        &self.stats
    }

    /// Apply every command staged on `queue` (registrations before the
    /// activations that follow them, in staging order).
    pub fn drain_cmds(&mut self, queue: &CmdQueue) {
        let staged = std::mem::take(&mut *queue.staged.lock().expect("cmd queue lock"));
        for (coll, cmd) in staged {
            match cmd {
                HostCmd::Register(template) => self.register(coll, template),
                HostCmd::Activate(round) => self.activate(coll, round),
            }
        }
    }

    /// Feed one delivered envelope into the core. Returns `false` on
    /// shutdown (the caller should stop driving this core).
    ///
    /// This is the engine's single wire-intake point, so receive
    /// accounting lives here: a message is tallied exactly once, even if
    /// [`EngineCore::on_message`] later re-runs it from the
    /// pre-registration buffer.
    pub fn on_envelope(&mut self, env: Envelope) -> bool {
        match env {
            Envelope::Data(msg) => {
                let bytes = msg.payload.as_ref().map_or(0, |p| p.byte_len());
                self.comm_stats.record_recv(bytes);
                self.comm_stats
                    .recorder()
                    .record(LEVEL_VERBOSE, || Ev::MsgRecv {
                        coll: u64::from(msg.tag.coll.0),
                        round: msg.tag.round,
                        sem: msg.tag.sem,
                        src: msg.src as u32,
                        bytes: bytes as u64,
                    });
                self.on_message(msg);
                true
            }
            Envelope::Shutdown => false,
            Envelope::PeerDown { peer } => {
                self.on_peer_down(peer);
                true
            }
            Envelope::PeerUp { peer } => {
                self.on_peer_up(peer);
                true
            }
        }
    }

    /// Mark `peer` dead. Every unfired receive from it — across all
    /// in-flight instances of all collectives — fires with a null
    /// payload, and instances created from now on are born with those
    /// nulls pre-filled, so progress never waits on the corpse.
    pub fn on_peer_down(&mut self, peer: Rank) {
        if !self.down.insert(peer) {
            return;
        }
        let colls: Vec<CollId> = self.colls.keys().copied().collect();
        for coll in colls {
            let rounds: Vec<u64> = self
                .colls
                .get(&coll)
                .map(|cs| cs.instances.keys().copied().collect())
                .unwrap_or_default();
            for round in rounds {
                let mut to_fire = Vec::new();
                {
                    let Some(cs) = self.colls.get_mut(&coll) else {
                        continue;
                    };
                    let Some(inst) = cs.instances.get_mut(&round) else {
                        continue;
                    };
                    synthesize_peer_down(inst, &self.down, &mut to_fire);
                }
                self.drive(coll, round, to_fire);
            }
        }
    }

    /// Reverse the death verdict for `peer` (see [`Engine::peer_up`]).
    /// In-flight instances keep any nulls already synthesized — those
    /// rounds predate the admission fence, where the joiner's
    /// contribution is legitimately absent. Instances created from now
    /// on (rounds at or past the fence) wait for its real messages.
    pub fn on_peer_up(&mut self, peer: Rank) {
        self.down.remove(&peer);
    }

    /// Ranks declared dead so far (see [`EngineCore::on_peer_down`]).
    pub fn down(&self) -> &HashSet<Rank> {
        &self.down
    }

    fn run(&mut self, cmd_rx: Receiver<Cmd>, inbox: Inbox) {
        loop {
            crossbeam::channel::select! {
                recv(cmd_rx) -> cmd => match cmd {
                    Ok(Cmd::Register { coll, template }) => self.register(coll, template),
                    Ok(Cmd::Activate { coll, round }) => self.activate(coll, round),
                    Ok(Cmd::PeerUp { peer }) => self.on_peer_up(peer),
                    Ok(Cmd::Shutdown) | Err(_) => return,
                },
                recv(inbox.receiver()) -> env => match env {
                    Ok(env) => {
                        if !self.on_envelope(env) {
                            return;
                        }
                    }
                    Err(_) => return,
                },
            }
        }
    }

    /// Register a persistent collective, replaying any messages that
    /// arrived for it before registration.
    pub fn register(&mut self, coll: CollId, template: Box<dyn CollectiveTemplate>) {
        self.colls.insert(
            coll,
            CollState {
                template,
                instances: HashMap::new(),
                completed_rounds: HashSet::new(),
                latest_completed: None,
                gc_floor: 0,
            },
        );
        if let Some(buffered) = self.pre_register.remove(&coll) {
            for msg in buffered {
                self.on_message(msg);
            }
        }
    }

    /// Internally activate `round` of `coll` (the app arrived).
    pub fn activate(&mut self, coll: CollId, round: u64) {
        let Some(cs) = self.colls.get_mut(&coll) else {
            // Activation of an unregistered collective is a programming
            // error on this rank (registration is a local, ordered call).
            panic!("activate on unregistered collective {coll:?}");
        };
        if round < cs.gc_floor {
            // The world has long moved past this round; the app will see
            // the latest result through the receive buffer.
            return;
        }
        if cs.completed_rounds.contains(&round) {
            // The round already completed here (a faster peer dragged us
            // through it) and its instance was dropped. Re-creating it
            // would snapshot *now* — stealing the next round's deposit as
            // this round's contribution. The app sees the result through
            // the receive buffer; its deposit stays for the next round.
            return;
        }
        let now = self.comm.clock().now();
        let recorder = self.comm_stats.recorder();
        let cid = u64::from(coll.0);
        recorder.record(LEVEL_SPANS, || Ev::RoundDeposit { coll: cid, round });
        let mut to_fire = Vec::new();
        let inst = cs.instances.entry(round).or_insert_with(|| {
            EngineStats::bump(&self.stats.internal_activations);
            recorder.record(LEVEL_SPANS, || Ev::RoundOpen { coll: cid, round });
            recorder.record(LEVEL_SPANS, || Ev::RoundActivate {
                coll: cid,
                round,
                external: false,
            });
            new_instance(&*cs.template, round, false, now, &mut to_fire)
        });
        // Activation-timed snapshot: fill the contribution now, before any
        // gate-dependent send can fire.
        if !inst.snapshotted {
            if inst.sched.nslots > CONTRIB_SLOT {
                inst.bufs[CONTRIB_SLOT] = cs.template.snapshot(round);
            }
            inst.snapshotted = true;
        }
        to_fire.extend(inst.dag.on_activate(&inst.sched));
        synthesize_peer_down(inst, &self.down, &mut to_fire);
        self.drive(coll, round, to_fire);
    }

    /// Deliver one matched message to the core (external activation if the
    /// round has no instance yet — the forced join).
    pub fn on_message(&mut self, msg: Message) {
        let coll = msg.tag.coll;
        let round = msg.tag.round;
        let Some(cs) = self.colls.get_mut(&coll) else {
            EngineStats::bump(&self.stats.pre_registered);
            self.pre_register.entry(coll).or_default().push(msg);
            return;
        };
        if round < cs.gc_floor {
            EngineStats::bump(&self.stats.dropped_gc);
            return;
        }
        if cs.completed_rounds.contains(&round) {
            // Late straggler for a round whose instance was dropped at
            // completion: every op of that instance has fired, so the
            // message can contribute nothing. Count it once and ignore it
            // — an external activation here would resurrect the round and
            // wrongly consume a fresh snapshot.
            EngineStats::bump(&self.stats.dropped_late);
            return;
        }
        let now = self.comm.clock().now();
        let recorder = self.comm_stats.recorder();
        let mut to_fire = Vec::new();
        let inst = cs.instances.entry(round).or_insert_with(|| {
            EngineStats::bump(&self.stats.external_activations);
            let cid = u64::from(coll.0);
            recorder.record(LEVEL_SPANS, || Ev::RoundOpen { coll: cid, round });
            recorder.record(LEVEL_SPANS, || Ev::RoundActivate {
                coll: cid,
                round,
                external: true,
            });
            new_instance(&*cs.template, round, true, now, &mut to_fire)
        });
        match inst.recv_route.get(&(msg.src, msg.tag.sem)) {
            Some(&op) => {
                if inst.dag.is_fired(op) || inst.pending_payloads.contains_key(&op) {
                    EngineStats::bump(&self.stats.dropped_dup);
                } else {
                    inst.pending_payloads.insert(op, msg.payload);
                    if inst.dag.on_message(&inst.sched, op) {
                        to_fire.push(op);
                    }
                }
            }
            None => EngineStats::bump(&self.stats.dropped_unmatched),
        }
        synthesize_peer_down(inst, &self.down, &mut to_fire);
        self.drive(coll, round, to_fire);
    }

    /// Execute fireable ops to quiescence, then handle completion/GC.
    fn drive(&mut self, coll: CollId, round: u64, mut queue: Vec<OpId>) {
        let cs = self.colls.get_mut(&coll).expect("driven coll exists");
        let CollState {
            instances,
            completed_rounds,
            template,
            latest_completed,
            gc_floor,
        } = cs;
        // Disjoint field borrows: the op loop mutates the driven instance
        // *and* draws recycled buffers from the engine's pool.
        let scratch = &mut self.scratch;
        let inst = instances.get_mut(&round).expect("driven instance exists");
        while let Some(id) = queue.pop() {
            let kind = inst.sched.ops[id].kind.clone();
            // Span start is read only when spans are being recorded: the
            // disabled path through here costs one level check per op.
            let op_label = kind.label();
            let op_t0 = self
                .comm_stats
                .recorder()
                .enabled(LEVEL_SPANS)
                .then(|| self.comm.clock().now());
            match kind {
                OpKind::SendData { peer, sem, src } => {
                    // Zero-copy fan-out: cloning the slot's payload is a
                    // reference-count bump, so a tree/ring schedule that
                    // sends one buffer to k peers shares one allocation.
                    // An empty slot (a null contribution inherited from a
                    // dead upstream peer) forwards as a payload-less
                    // message, so nulls propagate instead of stalling.
                    self.comm.send_payload(
                        peer,
                        WireTag::new(coll, round, sem),
                        inst.bufs[src].clone(),
                    );
                }
                OpKind::SendCtl { peer, sem } => {
                    self.comm.send(peer, WireTag::new(coll, round, sem), None);
                }
                OpKind::Recv { into, .. } => {
                    let payload = inst
                        .pending_payloads
                        .remove(&id)
                        .expect("recv fired without payload");
                    if let (Some(slot), Some(buf)) = (into, payload) {
                        inst.bufs[slot] = Some(buf);
                    }
                }
                OpKind::Combine { op, src, dst } => {
                    // Null tolerance: an empty source (a dead peer's
                    // never-sent contribution) folds in as the identity —
                    // skip; an empty accumulator adopts the source.
                    match (inst.bufs[src].take(), inst.bufs[dst].is_some()) {
                        (None, _) => {}
                        (Some(s), false) => {
                            inst.bufs[dst] = Some(s.clone());
                            inst.bufs[src] = Some(s);
                        }
                        (Some(s), true) => {
                            let d = inst.bufs[dst].as_mut().expect("Combine dst filled");
                            // Copy-on-write: a uniquely-owned accumulator
                            // mutates in place; one cloned onto the wire
                            // gets a *fused* single-pass `out = dst ⊕ src`
                            // into a buffer drawn from the scratch pool
                            // (harvested from completed rounds), so the
                            // steady state allocates nothing. A wire-borne
                            // source (a TCP frame's raw bytes) folds in
                            // while decoding — no intermediate buffer.
                            d.reduce_assign_pooled(&s, op, scratch)
                                .expect("Combine dtype/len mismatch");
                            inst.bufs[src] = Some(s);
                        }
                    }
                }
                OpKind::Copy { src, dst } => {
                    inst.bufs[dst] = inst.bufs[src].clone();
                }
                OpKind::SliceView {
                    src,
                    dst,
                    start,
                    len,
                } => {
                    // Zero-copy extraction: the first Combine into the
                    // viewed chunk materializes it with one fused pass.
                    // A null source slices to a null chunk.
                    inst.bufs[dst] = inst.bufs[src].as_ref().map(|s| s.view(start, len));
                }
                OpKind::CopyAt {
                    src,
                    dst,
                    dst_start,
                    dst_len,
                } => {
                    // A null source leaves its tile of the assembly
                    // buffer untouched (the dead peer's chunk is simply
                    // absent; eviction rebuilds schedules over the live
                    // set within a bounded number of rounds).
                    let Some(s) = inst.bufs[src].take() else {
                        queue.extend(inst.dag.mark_fired(&inst.sched, id));
                        continue;
                    };
                    if inst.bufs[dst].is_none() {
                        // Dirty pooled buffer: the schedule contract is
                        // that CopyAt writes tile all of `dst` before it
                        // is observed, so no zeroing pass is needed.
                        inst.bufs[dst] =
                            Some(Payload::new(pooled_buffer(scratch, s.dtype(), dst_len)));
                    }
                    let d = inst.bufs[dst].as_mut().expect("CopyAt dst filled");
                    // The assembly buffer is never sent, so it stays
                    // uniquely owned and this writes in place.
                    s.copy_into_at(d.to_mut(), dst_start)
                        .expect("CopyAt shape mismatch");
                    inst.bufs[src] = Some(s);
                }
                OpKind::Scale { slot, factor } => {
                    if let Some(d) = inst.bufs[slot].as_mut() {
                        d.to_mut().scale(factor);
                    }
                }
                OpKind::Nop | OpKind::InternalGate => {}
            }
            if let Some(t0) = op_t0 {
                let dur_ns = self.comm.clock().now().duration_since(t0).as_nanos() as u64;
                self.comm_stats
                    .recorder()
                    .record(LEVEL_SPANS, || Ev::OpExec {
                        coll: u64::from(coll.0),
                        round,
                        op: op_label.to_string(),
                        dur_ns,
                    });
            }
            queue.extend(inst.dag.mark_fired(&inst.sched, id));
        }

        if inst.dag.is_fired(inst.sched.completion) {
            // Completion drops the instance *now*: every op has fired, so
            // it can never forward anything again — retaining it would
            // only pin a round's worth of tensors. Only the completion
            // record (the round number) survives, for straggler dedup.
            let mut inst = instances
                .remove(&round)
                .expect("completed instance present");
            EngineStats::bump(&self.stats.completions);
            // `into_buf` is free when the result slot is the last owner
            // (the common case once the round's sends have drained).
            let result = inst
                .sched
                .result_slot
                .and_then(|s| inst.bufs[s].take())
                .map(Payload::into_buf);
            let stats = RoundStats {
                round,
                external: inst.external,
                elapsed: self.comm.clock().now().duration_since(inst.created),
            };
            self.comm_stats
                .recorder()
                .record(LEVEL_SPANS, || Ev::RoundComplete {
                    coll: u64::from(coll.0),
                    round,
                    external: stats.external,
                    dur_ns: stats.elapsed.as_nanos() as u64,
                });
            template.complete(&stats, result);
            completed_rounds.insert(round);
            *latest_completed = Some(latest_completed.map_or(round, |l| l.max(round)));
            harvest_instance(inst, scratch, &mut self.limbo);
            collect_garbage(instances, completed_rounds, *latest_completed, gc_floor);
        }
    }
}

/// Recycle a completed instance's buffers into the pool, `SHAPE_CAP` a shape.
///
/// A buffer is harvestable once it is uniquely owned (no in-flight send
/// or peer still shares it). Buffers still shared at completion — the
/// contribution while a peer still views its chunks, a chunk the
/// allgather forwarded — are parked in `limbo` and retried once, at the
/// next completion; one shared even then is let go (its last holder
/// harvests it), so two ranks' limbos never pin each other's buffers.
/// This closes the loop: a round draws one buffer per copy-on-write
/// combine plus the assembly buffer and returns as many here, so steady
/// state allocates zero tensor-sized buffers.
fn harvest_instance(inst: Instance, scratch: &mut Vec<TypedBuf>, limbo: &mut Vec<Payload>) {
    let mut retain = |buf: TypedBuf| {
        let same_shape = |b: &&TypedBuf| b.dtype() == buf.dtype() && b.len() == buf.len();
        if scratch.iter().filter(same_shape).count() < SHAPE_CAP {
            scratch.push(buf);
        }
    };
    for p in std::mem::take(limbo) {
        if let Ok(buf) = p.try_into_buf() {
            retain(buf);
        }
    }
    let bufs = inst.bufs.into_iter().flatten();
    for p in bufs.chain(inst.pending_payloads.into_values().flatten()) {
        match p.try_into_buf() {
            Ok(buf) => retain(buf),
            Err(p) => {
                if !p.is_wire() && !p.is_view() && limbo.len() < LIMBO_CAP {
                    limbo.push(p);
                }
            }
        }
    }
}

/// Advance the GC floor to `GC_LAG` behind the newest completion and
/// prune completion records below it. The floor never jumps over an
/// in-flight instance: its messages must keep flowing so it can still
/// finish (every retained instance is in flight — completed ones were
/// dropped on the spot).
fn collect_garbage(
    instances: &HashMap<u64, Instance>,
    completed_rounds: &mut HashSet<u64>,
    latest_completed: Option<u64>,
    gc_floor: &mut u64,
) {
    let Some(latest) = latest_completed else {
        return;
    };
    let target = latest.saturating_sub(GC_LAG);
    let mut floor = target;
    for &round in instances.keys() {
        if round < target {
            floor = floor.min(round);
        }
    }
    *gc_floor = (*gc_floor).max(floor);
    let f = *gc_floor;
    completed_rounds.retain(|&r| r >= f);
}

/// Fire every still-pending receive from a dead peer with a null payload
/// (the message that will never come). Idempotent: already-fired and
/// already-pending receives are left alone, so calling this on every
/// activation/message is safe; with an empty down set it costs one check.
fn synthesize_peer_down(inst: &mut Instance, down: &HashSet<Rank>, to_fire: &mut Vec<OpId>) {
    if down.is_empty() {
        return;
    }
    let Instance {
        sched,
        dag,
        recv_route,
        pending_payloads,
        ..
    } = inst;
    for (&(peer, _sem), &op) in recv_route.iter() {
        if down.contains(&peer) && !dag.is_fired(op) && !pending_payloads.contains_key(&op) {
            pending_payloads.insert(op, None);
            if dag.on_message(sched, op) {
                to_fire.push(op);
            }
        }
    }
}

fn new_instance(
    template: &dyn CollectiveTemplate,
    round: u64,
    external: bool,
    now: TimePoint,
    to_fire: &mut Vec<OpId>,
) -> Instance {
    let sched = template.build(round);
    let (dag, ready) = DagState::new(&sched);
    let mut bufs = vec![None; sched.nslots];
    let snapshotted = sched.snapshot_at == SnapshotTiming::Creation;
    if snapshotted && sched.nslots > CONTRIB_SLOT {
        bufs[CONTRIB_SLOT] = template.snapshot(round);
    }
    let recv_route = sched.recv_index().collect();
    to_fire.extend(ready);
    Instance {
        sched,
        dag,
        bufs,
        recv_route,
        pending_payloads: HashMap::new(),
        snapshotted,
        created: now,
        external,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::ScheduleBuilder;
    use parking_lot::{Condvar, Mutex};
    use pcoll_comm::{ReduceOp, World, WorldConfig};
    use std::time::{Duration, Instant};

    /// Shared completion sink for test templates.
    #[derive(Default)]
    struct Sink {
        results: Mutex<Vec<(u64, Option<TypedBuf>)>>,
        cv: Condvar,
    }

    impl Sink {
        fn push(&self, round: u64, result: Option<TypedBuf>) {
            self.results.lock().push((round, result));
            self.cv.notify_all();
        }

        fn wait_for(&self, n: usize) -> Vec<(u64, Option<TypedBuf>)> {
            let mut g = self.results.lock();
            while g.len() < n {
                if self
                    .cv
                    .wait_for(&mut g, Duration::from_secs(10))
                    .timed_out()
                {
                    panic!("timed out waiting for {n} completions, got {}", g.len());
                }
            }
            g.clone()
        }
    }

    const DATA: u32 = 0;

    /// Two-rank sum template: exchange contribution with the peer and add.
    /// The data send is gated on an OR of (internal gate, data receive) so
    /// a rank can be dragged in externally — a miniature solo collective.
    struct PairSum {
        me: Rank,
        contrib: f32,
        sink: Arc<Sink>,
    }

    impl CollectiveTemplate for PairSum {
        fn build(&self, _round: u64) -> Schedule {
            let peer = 1 - self.me;
            let mut b = ScheduleBuilder::new();
            b.slots(2);
            let gate = b.op(OpKind::InternalGate, vec![]);
            let recv = b.op(
                OpKind::Recv {
                    peer,
                    sem: DATA,
                    into: Some(1),
                },
                vec![],
            );
            let send = b.op_or(
                OpKind::SendData {
                    peer,
                    sem: DATA,
                    src: CONTRIB_SLOT,
                },
                vec![gate, recv],
            );
            let comb = b.op(
                OpKind::Combine {
                    op: ReduceOp::Sum,
                    src: 1,
                    dst: CONTRIB_SLOT,
                },
                vec![recv, send],
            );
            b.completion(comb).result_slot(CONTRIB_SLOT);
            b.build()
        }

        fn snapshot(&self, round: u64) -> Option<Payload> {
            Some(Payload::new(TypedBuf::from(vec![
                self.contrib + round as f32,
            ])))
        }

        fn complete(&self, stats: &RoundStats, result: Option<TypedBuf>) {
            self.sink.push(stats.round, result);
        }
    }

    #[test]
    fn pair_sum_both_activate() {
        let out = World::launch(WorldConfig::instant(2), |c| {
            let sink = Arc::new(Sink::default());
            let rank = c.rank();
            let (h, inbox) = c.split();
            let eng = Engine::spawn(h.clone(), inbox);
            eng.register(
                CollId(1),
                Box::new(PairSum {
                    me: rank,
                    contrib: (rank as f32 + 1.0) * 10.0,
                    sink: Arc::clone(&sink),
                }),
            );
            eng.activate(CollId(1), 0);
            let got = sink.wait_for(1);
            // Let the peer finish before tearing down our engine.
            // (finalize contract; the host barrier stands in for it here)
            let v = got[0].1.as_ref().unwrap().as_f32().unwrap()[0];
            eng_barrier_and_shutdown(&eng);
            v
        });
        assert_eq!(out, vec![30.0, 30.0]);
    }

    /// Park the thread briefly so in-flight sends drain, then stop.
    /// Tests only — real code uses pcoll's message-based barrier.
    fn eng_barrier_and_shutdown(eng: &Engine) {
        std::thread::sleep(Duration::from_millis(50));
        eng.shutdown();
    }

    #[test]
    fn pair_sum_external_activation_forces_join() {
        // Rank 1 never activates; rank 0's data message drags it in.
        let out = World::launch(WorldConfig::instant(2), |c| {
            let sink = Arc::new(Sink::default());
            let rank = c.rank();
            let (h, inbox) = c.split();
            let eng = Engine::spawn(h.clone(), inbox);
            eng.register(
                CollId(1),
                Box::new(PairSum {
                    me: rank,
                    contrib: (rank as f32 + 1.0) * 10.0,
                    sink: Arc::clone(&sink),
                }),
            );
            if rank == 0 {
                eng.activate(CollId(1), 0);
            }
            let got = sink.wait_for(1);
            let v = got[0].1.as_ref().unwrap().as_f32().unwrap()[0];
            let externals = eng.stats().external_activations.load(Ordering::Relaxed);
            eng_barrier_and_shutdown(&eng);
            (v, externals)
        });
        assert_eq!(out[0].0, 30.0);
        assert_eq!(out[1].0, 30.0);
        assert_eq!(out[0].1, 0, "rank 0 activated internally");
        assert_eq!(out[1].1, 1, "rank 1 must have been dragged in");
    }

    #[test]
    fn persistent_schedule_runs_many_rounds() {
        const ROUNDS: u64 = 20;
        let out = World::launch(WorldConfig::instant(2), |c| {
            let sink = Arc::new(Sink::default());
            let rank = c.rank();
            let (h, inbox) = c.split();
            let eng = Engine::spawn(h.clone(), inbox);
            eng.register(
                CollId(1),
                Box::new(PairSum {
                    me: rank,
                    contrib: 1.0,
                    sink: Arc::clone(&sink),
                }),
            );
            for r in 0..ROUNDS {
                eng.activate(CollId(1), r);
            }
            let got = sink.wait_for(ROUNDS as usize);
            eng_barrier_and_shutdown(&eng);
            got.iter()
                .map(|(r, b)| (*r, b.as_ref().unwrap().as_f32().unwrap()[0]))
                .collect::<Vec<_>>()
        });
        for ranks in out {
            let mut sorted = ranks.clone();
            sorted.sort_by_key(|(r, _)| *r);
            for (r, v) in sorted {
                // contribution = 1 + round on each rank; sum = 2 + 2*round
                assert_eq!(v, 2.0 + 2.0 * r as f32, "round {r}");
            }
        }
    }

    #[test]
    fn message_before_registration_is_buffered() {
        let out = World::launch(WorldConfig::instant(2), |c| {
            let sink = Arc::new(Sink::default());
            let rank = c.rank();
            let (h, inbox) = c.split();
            let eng = Engine::spawn(h.clone(), inbox);
            if rank == 1 {
                // Let rank 0's messages land before we register.
                std::thread::sleep(Duration::from_millis(100));
            }
            eng.register(
                CollId(1),
                Box::new(PairSum {
                    me: rank,
                    contrib: 5.0,
                    sink: Arc::clone(&sink),
                }),
            );
            if rank == 0 {
                eng.activate(CollId(1), 0);
            }
            let got = sink.wait_for(1);
            let v = got[0].1.as_ref().unwrap().as_f32().unwrap()[0];
            let pre = eng.stats().pre_registered.load(Ordering::Relaxed);
            eng_barrier_and_shutdown(&eng);
            (v, pre)
        });
        assert_eq!(out[0].0, 10.0);
        assert_eq!(out[1].0, 10.0);
        assert!(out[1].1 >= 1, "rank 1 must have buffered pre-registration");
    }

    #[test]
    fn duplicate_activation_is_absorbed() {
        let out = World::launch(WorldConfig::instant(2), |c| {
            let sink = Arc::new(Sink::default());
            let rank = c.rank();
            let (h, inbox) = c.split();
            let eng = Engine::spawn(h.clone(), inbox);
            eng.register(
                CollId(1),
                Box::new(PairSum {
                    me: rank,
                    contrib: 2.0,
                    sink: Arc::clone(&sink),
                }),
            );
            // Both activate the same round twice: consumable ops must make
            // the double activation harmless.
            eng.activate(CollId(1), 0);
            eng.activate(CollId(1), 0);
            let got = sink.wait_for(1);
            let v = got[0].1.as_ref().unwrap().as_f32().unwrap()[0];
            eng_barrier_and_shutdown(&eng);
            v
        });
        assert_eq!(out, vec![4.0, 4.0]);
    }

    /// The same PairSum template, driven single-threaded by the
    /// discrete-event simulator over a **virtual** clock: no threads, no
    /// sleeps, and `RoundStats::elapsed` is an exact function of the
    /// latency matrix rather than a wall-time measurement.
    #[test]
    fn engine_core_runs_under_virtual_clock_with_exact_elapsed() {
        use pcoll_comm::{SimOpts, SimWorld, WorldConfig};

        let run = || {
            let cfg = WorldConfig::instant(2);
            let opts = SimOpts {
                planet: pcoll_comm::Planet::uniform(2, Duration::from_millis(5)),
                ..SimOpts::default()
            };
            let mut sim = SimWorld::new(cfg, opts);
            let elapsed = Arc::new(Mutex::new(Vec::new()));

            /// Template that records completion latency into a shared log.
            struct Timed {
                inner: PairSum,
                log: Arc<Mutex<Vec<(Rank, Duration)>>>,
            }
            impl CollectiveTemplate for Timed {
                fn build(&self, round: u64) -> Schedule {
                    self.inner.build(round)
                }
                fn snapshot(&self, round: u64) -> Option<Payload> {
                    self.inner.snapshot(round)
                }
                fn complete(&self, stats: &RoundStats, result: Option<TypedBuf>) {
                    self.inner.complete(stats, result);
                    self.log.lock().push((self.inner.me, stats.elapsed));
                }
            }

            let sinks: Vec<_> = (0..2).map(|_| Arc::new(Sink::default())).collect();
            let mut cores: Vec<EngineCore> = (0..2)
                .map(|rank| {
                    let mut core = EngineCore::new(sim.comm(rank));
                    core.register(
                        CollId(1),
                        Box::new(Timed {
                            inner: PairSum {
                                me: rank,
                                contrib: (rank as f32 + 1.0) * 10.0,
                                sink: Arc::clone(&sinks[rank]),
                            },
                            log: Arc::clone(&elapsed),
                        }),
                    );
                    core.activate(CollId(1), 0);
                    core
                })
                .collect();
            let inboxes: Vec<_> = (0..2).map(|r| sim.take_inbox(r)).collect();

            while let Some(ev) = sim.step() {
                if let pcoll_comm::SimEvent::Deliver { dst } = ev {
                    while let Some(env) = inboxes[dst].try_recv() {
                        cores[dst].on_envelope(env);
                    }
                }
            }

            let results: Vec<f32> = sinks
                .iter()
                .map(|s| s.results.lock()[0].1.as_ref().unwrap().as_f32().unwrap()[0])
                .collect();
            let mut log = elapsed.lock().clone();
            log.sort_by_key(|(r, _)| *r);
            (results, log, sim.now())
        };

        let (results, log, end) = run();
        assert_eq!(results, vec![30.0, 30.0]);
        // Both ranks activate at t=0; each needs the peer's 5ms one-way
        // message to combine, so both complete at exactly t=5ms.
        assert_eq!(
            log,
            vec![(0, Duration::from_millis(5)), (1, Duration::from_millis(5))]
        );
        assert_eq!(end, TimePoint::from_nanos(5_000_000));
        // And it is bit-identical on a re-run: same events, same times.
        let again = run();
        assert_eq!(again, (results, log, end));
    }

    /// A one-segment ring allreduce-average over `n` elements, hand-built
    /// from the ops the segmented schedule uses: chunk views of the
    /// contribution, fused reduce-scatter, the scale of the chunk this
    /// rank ends up owning, allgather assembly into a pooled buffer.
    /// Slots: 0 contribution, `1 + c` chunk `c`, then `p − 1` scratch
    /// slots per phase, the result last.
    struct RingAverage {
        me: Rank,
        p: usize,
        n: usize,
        sink: Arc<Sink>,
    }

    impl CollectiveTemplate for RingAverage {
        fn build(&self, _round: u64) -> Schedule {
            let (me, p, n) = (self.me, self.p, self.n);
            let (next, prev) = ((me + 1) % p, (me + p - 1) % p);
            let start = |c: usize| c * (n / p);
            let len = |c: usize| if c + 1 == p { n - start(c) } else { n / p };
            let (rs_scratch, ag_scratch, result) = (1 + p, 2 * p, 3 * p - 1);
            let mut b = ScheduleBuilder::new();
            b.slots(result + 1).snapshot_at(SnapshotTiming::Activation);
            let gate = b.op(OpKind::InternalGate, vec![]);
            let views: Vec<OpId> = (0..p)
                .map(|c| {
                    let view = OpKind::SliceView {
                        src: CONTRIB_SLOT,
                        dst: 1 + c,
                        start: start(c),
                        len: len(c),
                    };
                    b.op(view, vec![gate])
                })
                .collect();
            let mut folded = None;
            for s in 0..p - 1 {
                let (out, inc) = ((me + p - s) % p, (me + p - s - 1) % p);
                let sem = s as u32;
                let send = OpKind::SendData {
                    peer: next,
                    sem,
                    src: 1 + out,
                };
                let send = b.op(send, vec![folded.unwrap_or(views[out])]);
                let into = Some(rs_scratch + s);
                let recv = b.op(
                    OpKind::Recv {
                        peer: prev,
                        sem,
                        into,
                    },
                    vec![],
                );
                let fold = OpKind::Combine {
                    op: ReduceOp::Sum,
                    src: rs_scratch + s,
                    dst: 1 + inc,
                };
                folded = Some(b.op(fold, vec![recv, send, views[inc]]));
            }
            let own = (me + 1) % p;
            let scale = OpKind::Scale {
                slot: 1 + own,
                factor: 1.0 / p as f64,
            };
            let reduced = b.op(scale, vec![folded.expect("p > 1")]);
            let place = |src, c| OpKind::CopyAt {
                src,
                dst: result,
                dst_start: start(c),
                dst_len: n,
            };
            let mut placed = vec![b.op(place(1 + own, own), vec![reduced])];
            let mut forward = (1 + own, reduced);
            for s in 0..p - 1 {
                let sem = (p - 1 + s) as u32;
                let send = OpKind::SendData {
                    peer: next,
                    sem,
                    src: forward.0,
                };
                let send = b.op(send, vec![forward.1]);
                let into = Some(ag_scratch + s);
                let recv = b.op(
                    OpKind::Recv {
                        peer: prev,
                        sem,
                        into,
                    },
                    vec![],
                );
                placed.push(b.op(place(ag_scratch + s, (me + p - s) % p), vec![recv, send]));
                forward = (ag_scratch + s, recv);
            }
            let done = b.op(OpKind::Nop, placed);
            b.completion(done).result_slot(result);
            b.build()
        }

        fn snapshot(&self, round: u64) -> Option<Payload> {
            let x = (self.me as u64 + round) as f32;
            Some(Payload::new(TypedBuf::from(vec![x; self.n])))
        }

        fn complete(&self, stats: &RoundStats, result: Option<TypedBuf>) {
            self.sink.push(stats.round, result);
        }
    }

    /// Retention is per shape. After 500 ring rounds every pool still
    /// holds a tensor-sized buffer — the contribution one round frees is
    /// the assembly buffer a later one draws — and no shape has outgrown
    /// its bound.
    #[test]
    fn pool_retains_every_shape_within_its_bound_over_500_ring_rounds() {
        use pcoll_comm::{SimEvent, SimOpts, SimWorld, WorldConfig};
        const ROUNDS: u64 = 500;
        // 66 elements over 4 ranks: chunks of 16, 16, 16 and 18.
        let (p, n) = (4usize, 66usize);
        let mut sim = SimWorld::new(WorldConfig::instant(p), SimOpts::default());
        let sinks: Vec<_> = (0..p).map(|_| Arc::new(Sink::default())).collect();
        let mut cores: Vec<EngineCore> = (0..p)
            .map(|me| {
                let mut core = EngineCore::new(sim.comm(me));
                let sink = Arc::clone(&sinks[me]);
                core.register(CollId(1), Box::new(RingAverage { me, p, n, sink }));
                core
            })
            .collect();
        let inboxes: Vec<_> = (0..p).map(|r| sim.take_inbox(r)).collect();
        for round in 0..ROUNDS {
            for core in cores.iter_mut() {
                core.activate(CollId(1), round);
            }
            while let Some(ev) = sim.step() {
                if let SimEvent::Deliver { dst } = ev {
                    while let Some(env) = inboxes[dst].try_recv() {
                        cores[dst].on_envelope(env);
                    }
                }
            }
        }
        // Contributions `rank + round`: the average is `round + 1.5`.
        for (rank, sink) in sinks.iter().enumerate() {
            let results = sink.results.lock();
            assert_eq!(results.len() as u64, ROUNDS, "rank {rank}");
            for (round, result) in results.iter() {
                let want = TypedBuf::from(vec![*round as f32 + 1.5; n]);
                assert_eq!(result.as_ref(), Some(&want), "rank {rank} round {round}");
            }
        }
        for (rank, core) in cores.iter().enumerate() {
            let mut census: HashMap<usize, usize> = HashMap::new();
            for buf in &core.scratch {
                *census.entry(buf.len()).or_default() += 1;
            }
            assert!(census.contains_key(&n), "rank {rank}: {census:?}");
            assert!(
                census.values().all(|&held| held <= SHAPE_CAP),
                "rank {rank}: {census:?}"
            );
            assert!(core.limbo.len() <= LIMBO_CAP, "rank {rank}");
        }
    }

    /// A slot that never received anything (no contribution, a dead
    /// peer's chunk) passes the averaging step untouched.
    #[test]
    fn scaling_an_empty_slot_is_a_no_op() {
        struct Nothing(Arc<Sink>);
        impl CollectiveTemplate for Nothing {
            fn build(&self, _round: u64) -> Schedule {
                let mut b = ScheduleBuilder::new();
                b.slots(1);
                let gate = b.op(OpKind::InternalGate, vec![]);
                let factor = 0.5;
                let scaled = b.op(OpKind::Scale { slot: 0, factor }, vec![gate]);
                b.completion(scaled).result_slot(0);
                b.build()
            }
            fn snapshot(&self, _round: u64) -> Option<Payload> {
                None
            }
            fn complete(&self, stats: &RoundStats, result: Option<TypedBuf>) {
                self.0.push(stats.round, result);
            }
        }
        let sim = pcoll_comm::SimWorld::new(WorldConfig::instant(1), Default::default());
        let sink = Arc::new(Sink::default());
        let mut core = EngineCore::new(sim.comm(0));
        core.register(CollId(1), Box::new(Nothing(Arc::clone(&sink))));
        core.activate(CollId(1), 0);
        assert_eq!(*sink.results.lock(), [(0, None)]);
    }

    #[test]
    fn rounds_activated_in_reverse_keep_latest_wins_liveness() {
        // Rank 0 activates rounds in reverse order. Rounds that fall below
        // the GC floor once a much newer round completed may legitimately
        // be dropped (latest-wins semantics, §5: "only the latest data in
        // the receive buffer can be seen"); the invariants are that the
        // newest round always completes, nothing hangs, and at least the
        // GC window's worth of rounds completes.
        const ROUNDS: u64 = 12;
        let out = World::launch(WorldConfig::instant(2), |c| {
            let sink = Arc::new(Sink::default());
            let rank = c.rank();
            let (h, inbox) = c.split();
            let eng = Engine::spawn(h.clone(), inbox);
            eng.register(
                CollId(1),
                Box::new(PairSum {
                    me: rank,
                    contrib: 0.0,
                    sink: Arc::clone(&sink),
                }),
            );
            if rank == 0 {
                for r in (0..ROUNDS).rev() {
                    eng.activate(CollId(1), r);
                }
            }
            // The newest round must always complete.
            let _ = sink.wait_for(1);
            // Give stragglers a moment, then collect what completed.
            std::thread::sleep(Duration::from_millis(200));
            let rounds: Vec<u64> = sink.results.lock().iter().map(|(r, _)| *r).collect();
            eng.shutdown();
            rounds
        });
        for rounds in &out {
            assert!(
                rounds.contains(&(ROUNDS - 1)),
                "newest round must complete, got {rounds:?}"
            );
            assert!(
                rounds.len() as u64 >= ROUNDS - GC_LAG,
                "at least the GC window completes, got {rounds:?}"
            );
        }
    }

    /// Completion-drop regression (inproc): a straggler message for a
    /// round whose instance was already dropped at completion is counted
    /// (`dropped_late`) and ignored exactly once — it must not externally
    /// re-activate the round (which would steal the next round's
    /// snapshot) and must not contaminate the next round's result.
    #[test]
    fn late_message_after_completion_drop_is_counted_once_inproc() {
        let out = World::launch(WorldConfig::instant(2), |c| {
            let sink = Arc::new(Sink::default());
            let rank = c.rank();
            let host_barrier = c.host_barrier_arc();
            let (h, inbox) = c.split();
            let eng = Engine::spawn(h.clone(), inbox);
            eng.register(
                CollId(1),
                Box::new(PairSum {
                    me: rank,
                    contrib: 1.0,
                    sink: Arc::clone(&sink),
                }),
            );
            eng.activate(CollId(1), 0);
            let _ = sink.wait_for(1);
            // Round 0 may have been externally activated here (the peer's
            // data message can race our own Activate command through the
            // engine's select loop — a benign, legal ordering). What the
            // straggler below must never do is *add* an external
            // activation, so assert on the delta.
            let externals_before = eng.stats().external_activations.load(Ordering::Relaxed);
            // Round 0 is complete (its instance dropped) on both ranks
            // before the straggler is sent; same-channel FIFO then
            // guarantees the duplicate arrives after the original did.
            host_barrier.wait();
            if rank == 0 {
                // A poison-valued duplicate of round 0's data message: if
                // it ever reached a live instance, round 1's sum below
                // would be wrong.
                h.send(
                    1,
                    WireTag::new(CollId(1), 0, DATA),
                    Some(TypedBuf::from(vec![99.0f32])),
                );
            }
            // Both ranks look only once rank 1's engine has seen it.
            let seen_by = Instant::now() + Duration::from_secs(10);
            while rank == 1 && eng.stats().dropped_late.load(Ordering::Relaxed) == 0 {
                assert!(Instant::now() < seen_by, "the straggler never arrived");
                std::thread::sleep(Duration::from_millis(1));
            }
            host_barrier.wait();
            let [_, externals, completions, _, late, ..] = eng.stats().snapshot();
            let results_after_straggler = sink.results.lock().len();
            // ... and before the peer's round 1 can reach this engine.
            host_barrier.wait();

            // The next round must still run clean on both ranks.
            eng.activate(CollId(1), 1);
            let got = sink.wait_for(2);
            let round1 = got
                .iter()
                .find(|(r, _)| *r == 1)
                .map(|(_, b)| b.as_ref().unwrap().as_f32().unwrap()[0])
                .unwrap();
            eng_barrier_and_shutdown(&eng);
            (
                late,
                externals - externals_before,
                completions,
                results_after_straggler,
                round1,
            )
        });
        for (rank, (late, externals, completions, results, round1)) in out.iter().enumerate() {
            assert_eq!(
                *late,
                if rank == 1 { 1 } else { 0 },
                "rank {rank}: the straggler is counted exactly once"
            );
            assert_eq!(*externals, 0, "rank {rank}: no resurrection");
            assert_eq!(*completions, 1, "rank {rank}: round 0 completed once");
            assert_eq!(*results, 1, "rank {rank}: no duplicate delivery");
            // contribution = 1 + round on each rank; sum = 2 + 2*round.
            assert_eq!(*round1, 4.0, "rank {rank}: round 1 unpolluted");
        }
    }

    /// The same completion-drop regression on the simulator backend:
    /// replay round 0's data envelope into a core that already completed
    /// (and dropped) the round, deterministically and in virtual time.
    #[test]
    fn late_message_after_completion_drop_is_counted_once_sim() {
        use pcoll_comm::{SimOpts, SimWorld, WorldConfig};

        let cfg = WorldConfig::instant(2);
        let opts = SimOpts {
            planet: pcoll_comm::Planet::uniform(2, Duration::from_millis(5)),
            ..SimOpts::default()
        };
        let mut sim = SimWorld::new(cfg, opts);
        let sinks: Vec<_> = (0..2).map(|_| Arc::new(Sink::default())).collect();
        let mut cores: Vec<EngineCore> = (0..2)
            .map(|rank| {
                let mut core = EngineCore::new(sim.comm(rank));
                core.register(
                    CollId(1),
                    Box::new(PairSum {
                        me: rank,
                        contrib: 1.0,
                        sink: Arc::clone(&sinks[rank]),
                    }),
                );
                core.activate(CollId(1), 0);
                core
            })
            .collect();
        let inboxes: Vec<_> = (0..2).map(|r| sim.take_inbox(r)).collect();
        let drain = |sim: &mut SimWorld, cores: &mut Vec<EngineCore>| {
            while let Some(ev) = sim.step() {
                if let pcoll_comm::SimEvent::Deliver { dst } = ev {
                    while let Some(env) = inboxes[dst].try_recv() {
                        cores[dst].on_envelope(env);
                    }
                }
            }
        };
        drain(&mut sim, &mut cores);
        assert_eq!(sinks[1].results.lock().len(), 1, "round 0 completed");

        // Replay rank 0's round-0 data message into core 1, whose
        // instance was dropped at completion.
        let replay = || {
            Envelope::Data(Message {
                src: 0,
                tag: WireTag::new(CollId(1), 0, DATA),
                payload: Some(Payload::new(TypedBuf::from(vec![99.0f32]))),
            })
        };
        assert!(cores[1].on_envelope(replay()));
        assert_eq!(cores[1].stats().snapshot()[4], 1, "dropped_late bumped");
        // A second replay is *also* just counted — still no resurrection.
        assert!(cores[1].on_envelope(replay()));
        let [_, externals, completions, _, late, ..] = cores[1].stats().snapshot();
        assert_eq!(late, 2);
        assert_eq!(externals, 0, "no external re-activation");
        assert_eq!(completions, 1);
        assert_eq!(sinks[1].results.lock().len(), 1, "no duplicate delivery");

        // Round 1 still runs clean in virtual time.
        for core in cores.iter_mut() {
            core.activate(CollId(1), 1);
        }
        drain(&mut sim, &mut cores);
        for sink in &sinks {
            let g = sink.results.lock();
            let round1 = g
                .iter()
                .find(|(r, _)| *r == 1)
                .map(|(_, b)| b.as_ref().unwrap().as_f32().unwrap()[0])
                .unwrap();
            assert_eq!(round1, 4.0, "round 1 unpolluted by the straggler");
        }
    }
}
