//! The rank world: rank launchers and per-rank communicators.
//!
//! [`World::launch`] stands in for `mpirun`: it spawns `P` rank threads,
//! hands each a [`Communicator`], runs the given closure SPMD-style, and
//! joins all ranks, returning their results. A shared seed gives all
//! ranks a common source of pseudo-randomness (the paper's majority
//! collective relies on all ranks drawing the same per-round initiator,
//! §4.2). Messages cross as fast as the host moves them; modelled latency
//! exists only under the simulator ([`crate::SimOpts::network`]).
//!
//! [`World::launch_with`] selects a [`Transport`]: the same closure can
//! run ranks as threads (above) or as one OS process per rank over
//! loopback TCP ([`World::launch_tcp`], see the `transport` module).
//!
//! Every send route is a **bounded queue** ([`WorldConfig::queue_capacity`]
//! messages): a sender that outruns a slow consumer blocks for space
//! instead of ballooning memory, which propagates backpressure up the
//! pipeline exactly as a full socket buffer would. A send that stays
//! blocked past [`WorldConfig::queue_deadline`] panics with a diagnostic —
//! the symptom of a backpressure cycle (see the README's "data path"
//! section), which must fail loudly rather than hang. Queue pressure is
//! counted per rank in [`CommStats`].

use crate::membership::Membership;
use crate::payload::Payload;
use crate::stats::CommStats;
use crate::tag::{CollId, Message, Rank, WireTag};
use crate::transport::{launch_tcp, Route, TcpOpts, Transport};
use crate::TypedBuf;
use crossbeam::channel::{bounded, Receiver};
use pcoll_obs::{Clock, EventKind, Recorder, TraceConfig, LEVEL_VERBOSE};
use std::sync::Arc;
use std::time::Duration;

/// Default bound on every send queue, in messages. Deep enough that the
/// collectives' bounded round window (engine GC lag × fan-out) never
/// brushes it in healthy runs; shallow enough that a stuck consumer
/// exerts backpressure long before memory becomes the limit.
pub const DEFAULT_QUEUE_CAPACITY: usize = 1024;

/// Default deadline a full-queue send blocks for before panicking.
pub const DEFAULT_QUEUE_DEADLINE: Duration = Duration::from_secs(30);

/// What a rank's mailbox receives.
#[derive(Debug)]
pub enum Envelope {
    /// A delivered message.
    Data(Message),
    /// Orderly teardown request for whoever drains this mailbox.
    Shutdown,
    /// Hard evidence declared `peer` dead: whoever drains this
    /// mailbox (the schedule engine) must stop waiting for that rank —
    /// synthesize its missing contributions and carry on with the
    /// survivors. Injected by the TCP reader on socket death, by
    /// [`crate::sim::SimWorld::kill`] under virtual time, and by chaos
    /// harnesses directly.
    PeerDown {
        /// The rank that died.
        peer: Rank,
    },
    /// The admission fence readmitted `peer`: whoever drains this mailbox
    /// (the schedule engine) must stop synthesizing null contributions
    /// for that rank — rounds at or past the fence expect its real data
    /// again. The eviction verdict in reverse; only the SPMD-fenced
    /// admission protocol may send it (local evidence can never
    /// resurrect a peer). Injected by [`crate::sim::SimWorld::rejoin`]
    /// under virtual time and by the admission fence on live transports.
    PeerUp {
        /// The rank that was readmitted.
        peer: Rank,
    },
    /// The local application reached round `round` of collective `coll`
    /// (internal activation): whoever drains this mailbox (the schedule
    /// engine) creates or gates that round's instance. Local control, like
    /// the liveness verdicts: posted by the rank to itself, behind every
    /// message already queued, and never sent over the wire.
    Activate {
        /// The activated collective.
        coll: CollId,
        /// The activated round.
        round: u64,
    },
}

/// Configuration for [`World::launch`].
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Number of ranks (P).
    pub nranks: usize,
    /// Seed shared by all ranks (consensus randomness, §4.2).
    pub seed: u64,
    /// Message-count bound on every send queue: rank mailboxes and the
    /// TCP per-peer writer queues.
    pub queue_capacity: usize,
    /// How long a full-queue send blocks before panicking (the deadlock
    /// tripwire; see module docs).
    pub queue_deadline: Duration,
    /// Flight-recorder setting for every rank of the launch. Defaults to
    /// the `PCOLL_TRACE`/`PCOLL_TRACE_CAP` environment (off when unset);
    /// override programmatically with [`WorldConfig::with_trace`].
    pub trace: TraceConfig,
}

impl WorldConfig {
    /// `P` ranks, seed 0, default queue bounds — the one constructor.
    pub fn instant(nranks: usize) -> Self {
        WorldConfig {
            nranks,
            seed: 0,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            queue_deadline: DEFAULT_QUEUE_DEADLINE,
            trace: TraceConfig::from_env(),
        }
    }

    /// Override the shared seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the per-queue message bound.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        self.queue_capacity = capacity;
        self
    }

    /// Override the full-queue blocking deadline.
    pub fn with_queue_deadline(mut self, deadline: Duration) -> Self {
        self.queue_deadline = deadline;
        self
    }

    /// Enable the flight recorder for every rank of the launch:
    /// `level` 1 records spans and instants, 2 adds per-message events;
    /// `capacity` is the per-rank ring size in events. Note the TCP
    /// transport's worker *processes* read the `PCOLL_TRACE` environment
    /// instead (inherited from the parent), since the config does not
    /// cross the `exec` boundary.
    pub fn with_trace(mut self, level: u8, capacity: usize) -> Self {
        self.trace = TraceConfig { level, capacity };
        self
    }
}

/// Cloneable sending half of a rank's communicator.
///
/// Sends are non-blocking while the destination queue has space: the
/// payload is handed to the transport's route (a mailbox, a socket
/// writer's queue, or the simulator's stage) and the call returns. When
/// the queue is full the send blocks for space — bounded-memory
/// backpressure — and panics after [`WorldConfig::queue_deadline`].
/// Buffer ownership moves with the message — there is no `MPI_Request`
/// to wait on because there is no shared user buffer.
#[derive(Clone)]
pub struct CommHandle {
    pub(crate) rank: Rank,
    pub(crate) size: usize,
    pub(crate) seed: u64,
    pub(crate) route: Route,
    pub(crate) stats: Arc<CommStats>,
    pub(crate) queue_deadline: Duration,
    pub(crate) membership: Arc<Membership>,
    pub(crate) clock: Clock,
}

impl CommHandle {
    /// This rank's index.
    #[inline]
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// World size (P).
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// The world-shared seed.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// This rank's queue-pressure counters.
    pub fn comm_stats(&self) -> Arc<CommStats> {
        Arc::clone(&self.stats)
    }

    /// This rank's flight-recorder handle (disabled unless the launch
    /// was configured with [`WorldConfig::with_trace`] or `PCOLL_TRACE`).
    pub fn recorder(&self) -> &Recorder {
        self.stats.recorder()
    }

    /// This rank's per-peer liveness view (see [`Membership`]).
    pub fn membership(&self) -> &Arc<Membership> {
        &self.membership
    }

    /// The rank's one clock: wall time shared by the launch's ranks on the
    /// in-process backend, one wall clock per TCP worker, virtual time
    /// under the simulator. The recorder, the engine and the trainer's
    /// timers all read it.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Send `payload` to `dst` under `tag`. `None` payload = control
    /// message (activation). Sending to a finished rank is silently
    /// dropped, like a packet to a dead host.
    pub fn send(&self, dst: Rank, tag: WireTag, payload: Option<TypedBuf>) {
        self.send_payload(dst, tag, payload.map(Payload::new))
    }

    /// Zero-copy send: hand over a shared [`Payload`] clone. This is the
    /// fan-out primitive — sending the same payload to `k` destinations
    /// costs `k` reference-count bumps and zero element copies.
    pub fn send_payload(&self, dst: Rank, tag: WireTag, payload: Option<Payload>) {
        assert!(dst < self.size, "dst {dst} out of range (P={})", self.size);
        let bytes = payload.as_ref().map_or(0, |p| p.byte_len());
        if payload.is_some() {
            self.stats
                .bytes_sent
                .fetch_add(bytes as u64, std::sync::atomic::Ordering::Relaxed);
        }
        self.stats
            .recorder()
            .record(LEVEL_VERBOSE, || EventKind::MsgSend {
                coll: u64::from(tag.coll.0),
                round: tag.round,
                sem: tag.sem,
                dst: dst as u32,
                bytes: bytes as u64,
            });
        let msg = Message {
            src: self.rank,
            tag,
            payload,
        };
        self.route
            .deliver(dst, Envelope::Data(msg), &self.stats, self.queue_deadline);
    }

    /// Queue a local-control envelope ([`Envelope::Activate`],
    /// [`Envelope::PeerUp`], [`Envelope::Shutdown`]) on this rank's own
    /// mailbox, behind everything already queued there. It never crosses
    /// the wire and is not a send (no counter moves), but a full mailbox
    /// blocks it, and past [`WorldConfig::queue_deadline`] panics, like
    /// one.
    pub fn post_local(&self, env: Envelope) {
        self.route.post_local(self.rank, env, self.queue_deadline);
    }

    /// Tell whoever drains `dst`'s mailbox that `peer` is dead — local
    /// control, like [`CommHandle::post_local`]. Chaos harnesses use
    /// it to inject deaths on the in-process backend; the TCP reader
    /// threads use the equivalent path on socket death.
    pub fn send_peer_down(&self, dst: Rank, peer: Rank) {
        self.route.deliver(
            dst,
            Envelope::PeerDown { peer },
            &self.stats,
            self.queue_deadline,
        );
    }
}

/// Receiving half of a rank's communicator: the raw mailbox.
pub struct Inbox {
    pub(crate) rx: Receiver<Envelope>,
}

impl Inbox {
    /// Block until the next envelope arrives (or all senders are gone).
    pub fn recv(&self) -> Option<Envelope> {
        self.rx.recv().ok()
    }

    /// Non-blocking poll.
    pub fn try_recv(&self) -> Option<Envelope> {
        self.rx.try_recv().ok()
    }

    /// Block with a timeout.
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Option<Envelope> {
        self.rx.recv_timeout(timeout).ok()
    }
}

/// A rank's full communicator: cloneable send half and exclusive receive
/// half. Cross-rank alignment is a collective: `pcoll::RankCtx::barrier`.
pub struct Communicator {
    pub(crate) handle: CommHandle,
    pub(crate) inbox: Inbox,
    pub(crate) rendezvous: Option<crate::transport::RendezvousClient>,
}

impl Communicator {
    /// This rank's index.
    #[inline]
    pub fn rank(&self) -> Rank {
        self.handle.rank
    }

    /// World size (P).
    #[inline]
    pub fn size(&self) -> usize {
        self.handle.size
    }

    /// The world-shared seed.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.handle.seed
    }

    /// This rank's queue-pressure counters.
    pub fn comm_stats(&self) -> Arc<CommStats> {
        self.handle.comm_stats()
    }

    /// This rank's flight-recorder handle (see [`CommHandle::recorder`]).
    pub fn recorder(&self) -> &Recorder {
        self.handle.recorder()
    }

    /// This rank's per-peer liveness view (see [`Membership`]).
    pub fn membership(&self) -> &Arc<Membership> {
        self.handle.membership()
    }

    /// Clone the send half.
    pub fn handle(&self) -> CommHandle {
        self.handle.clone()
    }

    /// Send helper (see [`CommHandle::send`]).
    pub fn send(&self, dst: Rank, tag: WireTag, payload: Option<TypedBuf>) {
        self.handle.send(dst, tag, payload)
    }

    /// Zero-copy send helper (see [`CommHandle::send_payload`]).
    pub fn send_payload(&self, dst: Rank, tag: WireTag, payload: Option<Payload>) {
        self.handle.send_payload(dst, tag, payload)
    }

    /// Split into send and receive halves. The receive half is exclusive:
    /// after this, matching/draining is the caller's job (typically the
    /// schedule engine's).
    pub fn split(self) -> (CommHandle, Inbox) {
        (self.handle, self.inbox)
    }

    /// Borrow the inbox without splitting.
    pub fn inbox(&self) -> &Inbox {
        &self.inbox
    }

    /// The rendezvous blackboard client — TCP transport only. A tiny
    /// key-value side channel through the launch parent, used by the
    /// admission-fence protocol to hand a rejoining rank the
    /// policy/membership history it missed (see
    /// [`crate::transport::RendezvousClient`]). `None` on the
    /// in-process and sim backends, where the harness can share state
    /// in memory. Grab a clone *before* handing the communicator to an
    /// engine — the client outlives [`Communicator::split`].
    pub fn rendezvous(&self) -> Option<crate::transport::RendezvousClient> {
        self.rendezvous.clone()
    }
}

/// The world launcher (see module docs).
pub struct World;

impl World {
    /// Spawn `cfg.nranks` rank threads, run `f` on each, join, and return
    /// all results indexed by rank. Panics in any rank propagate (after all
    /// other ranks are joined) so tests fail loudly.
    ///
    /// ```
    /// use pcoll_comm::{World, WorldConfig};
    ///
    /// let out = World::launch(WorldConfig::instant(4), |c| c.rank() * 10);
    /// assert_eq!(out, vec![0, 10, 20, 30]);
    /// ```
    pub fn launch<T, F>(cfg: WorldConfig, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(Communicator) -> T + Send + Sync + 'static,
    {
        assert!(cfg.nranks > 0, "world must have at least one rank");
        let (mb_txs, mb_rxs): (Vec<_>, Vec<_>) =
            (0..cfg.nranks).map(|_| bounded(cfg.queue_capacity)).unzip();
        let route = Route::mailboxes(mb_txs);

        // One wall clock shared by every rank, so trace timestamps are
        // comparable across tracks (flow arrows between ranks would
        // otherwise connect unrelated epochs).
        let clock = Clock::wall();

        let f = Arc::new(f);
        let mut joins = Vec::with_capacity(cfg.nranks);
        for (rank, rx) in mb_rxs.into_iter().enumerate() {
            let recorder = cfg.trace.recorder(rank as u32, clock.clone());
            let comm = Communicator {
                handle: CommHandle {
                    rank,
                    size: cfg.nranks,
                    seed: cfg.seed,
                    route: route.clone(),
                    stats: Arc::new(CommStats::with_recorder(recorder)),
                    queue_deadline: cfg.queue_deadline,
                    membership: Arc::new(Membership::new(rank, cfg.nranks)),
                    clock: clock.clone(),
                },
                inbox: Inbox { rx },
                rendezvous: None,
            };
            let f = Arc::clone(&f);
            joins.push(
                std::thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .spawn(move || f(comm))
                    .expect("spawn rank thread"),
            );
        }

        let mut results = Vec::with_capacity(cfg.nranks);
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for j in joins {
            match j.join() {
                Ok(v) => results.push(v),
                Err(e) => panic = Some(e),
            }
        }
        if let Some(e) = panic {
            std::panic::resume_unwind(e);
        }
        results
    }

    /// Launch over an explicit [`Transport`]: the same SPMD closure runs
    /// thread-per-rank ([`World::launch`]) or process-per-rank over
    /// loopback TCP ([`World::launch_tcp`]).
    ///
    /// Returns `None` only in a TCP worker process that serves a
    /// *different* launch label (skip that call site and fall through);
    /// see the `transport` module docs.
    ///
    /// ```
    /// use pcoll_comm::{Transport, World, WorldConfig};
    ///
    /// let out = World::launch_with(WorldConfig::instant(2), Transport::InProcess, |c| {
    ///     c.size() as u32
    /// });
    /// assert_eq!(out, Some(vec![2, 2]));
    /// ```
    pub fn launch_with<T, F>(cfg: WorldConfig, transport: Transport, f: F) -> Option<Vec<T>>
    where
        T: Send + 'static + serde::Serialize + serde::Deserialize,
        F: Fn(Communicator) -> T + Send + Sync + 'static,
    {
        match transport {
            Transport::InProcess => Some(Self::launch(cfg, f)),
            Transport::Tcp(opts) => launch_tcp(cfg, opts, f),
        }
    }

    /// Launch `cfg.nranks` rank *processes* over loopback TCP (the
    /// `mpirun` stand-in: this process re-`exec`s itself once per rank
    /// and acts as the rendezvous server). See the `transport` module.
    ///
    /// ```no_run
    /// use pcoll_comm::{TcpOpts, World, WorldConfig};
    ///
    /// // Re-execs this binary once per rank; `None` in workers serving a
    /// // different launch label.
    /// let out: Option<Vec<usize>> =
    ///     World::launch_tcp(WorldConfig::instant(2), TcpOpts::labeled("demo"), |c| c.rank());
    /// ```
    pub fn launch_tcp<T, F>(cfg: WorldConfig, opts: TcpOpts, f: F) -> Option<Vec<T>>
    where
        T: serde::Serialize + serde::Deserialize + Send + 'static,
        F: FnOnce(Communicator) -> T,
    {
        launch_tcp(cfg, opts, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::CollId;

    fn tag(sem: u32) -> WireTag {
        WireTag::new(CollId(7), 0, sem)
    }

    #[test]
    fn launch_returns_per_rank_results() {
        let out = World::launch(WorldConfig::instant(4), |c| c.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn ring_pass_instant() {
        // Each rank sends its rank to the next; everyone receives prev.
        let out = World::launch(WorldConfig::instant(4), |c| {
            let next = (c.rank() + 1) % c.size();
            c.send(next, tag(0), Some(TypedBuf::from(vec![c.rank() as i64])));
            match c.inbox().recv() {
                Some(Envelope::Data(m)) => m.payload.unwrap().as_i64().unwrap()[0],
                _ => panic!("expected data"),
            }
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn seed_is_shared() {
        let out = World::launch(WorldConfig::instant(3).with_seed(99), |c| c.seed());
        assert_eq!(out, vec![99, 99, 99]);
    }

    #[test]
    fn send_payload_fan_out_shares_one_allocation() {
        // Rank 0 fans the same payload to every peer: each delivered copy
        // must alias the sender's allocation (refcount > 1 while the
        // sender still holds its clone).
        let out = World::launch(WorldConfig::instant(4), |c| {
            if c.rank() == 0 {
                let payload = Payload::new(TypedBuf::from(vec![5.0f32; 256]));
                for dst in 1..c.size() {
                    c.send_payload(dst, tag(0), Some(payload.clone()));
                }
                payload.ref_count() > 1
            } else {
                match c.inbox().recv() {
                    Some(Envelope::Data(m)) => {
                        m.payload.unwrap().as_f32().unwrap() == [5.0f32; 256]
                    }
                    _ => panic!("expected data"),
                }
            }
        });
        assert_eq!(out, vec![true; 4]);
    }

    #[test]
    fn full_mailbox_stalls_the_sender_and_bounds_depth() {
        // Capacity 4, reader drains late: the sender must block (stall
        // counters tick) and the backlog must never exceed the bound.
        let cfg = WorldConfig::instant(2).with_queue_capacity(4);
        let out = World::launch(cfg, |c| {
            if c.rank() == 0 {
                for i in 0..32 {
                    c.send(1, tag(i), Some(TypedBuf::from(vec![i as i32])));
                }
                let s = c.comm_stats().snapshot();
                (s.send_stalls > 0, s.peak_queue_depth <= 4, 0u32)
            } else {
                std::thread::sleep(Duration::from_millis(30));
                let mut got = 0;
                while got < 32 {
                    match c.inbox().recv() {
                        Some(Envelope::Data(m)) => {
                            assert_eq!(m.tag.sem, got, "FIFO under backpressure");
                            got += 1;
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
                (true, true, got)
            }
        });
        assert!(out[0].0, "sender must have stalled on the full queue");
        assert!(out[0].1, "queue depth must respect the bound");
        assert_eq!(out[1].2, 32, "all messages delivered");
    }

    #[test]
    #[should_panic]
    fn rank_panic_propagates() {
        World::launch(WorldConfig::instant(2), |c| {
            if c.rank() == 1 {
                panic!("boom");
            }
        });
    }
}
