//! Transport backends: in-process mailboxes vs. process-per-rank TCP.
//!
//! The in-process backend (the [`crate::World::launch`] default) moves
//! [`Envelope`]s over crossbeam channels between rank threads. The TCP
//! backend runs every rank as its own OS process over loopback sockets:
//!
//! - **Framing.** Messages travel as length-prefixed binary frames
//!   (`encode_data` / `decode_frame`): a fixed header (src rank,
//!   collective id, round, semantic tag) followed by the payload's dtype
//!   and raw little-endian element bytes. Large tensor frames are written
//!   in bounded chunks so one multi-MiB gradient cannot monopolize a
//!   writer's syscall.
//! - **Ordering.** Each unordered rank pair shares exactly one duplex
//!   connection, so TCP's byte-stream ordering *is* the MPI
//!   non-overtaking rule (the in-process mailboxes get it from their
//!   channels, the simulator from its per-pair clamp).
//! - **Shutdown handshake.** The in-memory world could simply drop
//!   mailboxes; over sockets, a finishing rank first drains its writer
//!   queues, then sends a `GOODBYE` frame on every
//!   connection and half-closes it. Peer readers stop at `GOODBYE`, which
//!   replaces the in-memory [`Envelope::Shutdown`] drop semantics with an
//!   orderly drain: everything sent before a rank finished is delivered.
//! - **Rendezvous.** [`launch_tcp`] in a parent process binds a
//!   listener, then re-`exec`s the current binary once per rank (the
//!   `mpirun` stand-in). Workers report their own advertised mesh
//!   address to the parent, receive the full address map, and build the
//!   pairwise mesh: each rank dials the ranks below it, and the ranks
//!   above dial it. Each rank's closure result returns to the parent as
//!   JSON over its rendezvous connection, so `launch_tcp` has the same
//!   `Vec<T>` shape as `World::launch` — and because results travel over
//!   that connection (never through shared memory or the exit status),
//!   collection works identically when the workers run on other hosts.
//! - **External launch / multi-host.** [`TcpOpts::listen`] (or
//!   `PCOLL_TCP_LISTEN`) switches the parent to externally launched
//!   workers: it binds the given address — possibly on a routable
//!   interface — and spawns nothing; the operator starts one worker per
//!   rank anywhere, with `PCOLL_TCP_RANK` / `PCOLL_TCP_NRANKS` /
//!   `PCOLL_TCP_PARENT` / `PCOLL_TCP_LABEL` in the environment. Workers
//!   split their mesh bind address (`PCOLL_TCP_BIND`, default loopback)
//!   from the address they advertise to peers (`PCOLL_TCP_ADVERTISE`),
//!   so a rank behind NAT or on a multi-NIC box can bind the wildcard
//!   interface yet hand out its routable name.
//! - **Rejoin.** The rendezvous listener and every rank's mesh listener
//!   stay alive for the whole run. A relaunched worker (env
//!   `PCOLL_TCP_REJOIN=1`, or automatic under [`TcpOpts::respawn`])
//!   re-registers with the parent, dials every live peer — which splice
//!   the fresh connection into the dead rank's slot and acknowledge it,
//!   so the worker's closure starts only once every survivor routes to
//!   the new connection — and fetches the state it missed through the
//!   parent's blackboard ([`RendezvousClient`]); the app layer then runs
//!   the admission fence (`RankCtx::admit` in the `pcoll` crate) to bring
//!   it back into the collectives.
//!
//! The world is built one way: each listener has exactly one accept path
//! (the parent's rendezvous service, each worker's mesh accept loop),
//! dialing is one function, and every byte a peer controls ends in a
//! dropped connection or `Membership::report_down`, never a panic — see
//! ARCHITECTURE.md's transport section. Modules: `codec` (bytes ↔
//! frames, no sockets, no threads), `rendezvous`, `mesh`, `launch`.
//!
//! A binary may contain several `launch_tcp` call sites; each is named by
//! [`TcpOpts::label`], and a worker process only serves the call site
//! whose label matches its environment — other call sites return `None`
//! so the caller can skip the work that belongs to a different launch
//! (see `examples/quickstart.rs`).

mod codec;
mod launch;
mod mesh;
mod rendezvous;

pub use launch::{is_tcp_rejoiner, is_tcp_worker, launch_tcp, launch_tcp_tolerant, TcpOpts};
pub use rendezvous::RendezvousClient;

use crate::sim::SimRoute;
use crate::stats::CommStats;
use crate::tag::Rank;
use crate::world::Envelope;
use crossbeam::channel::{SendTimeoutError, Sender, TrySendError};
use mesh::TcpPeers;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Transport selection
// ---------------------------------------------------------------------------

/// Which backend a world runs on (see module docs).
#[derive(Debug, Clone)]
pub enum Transport {
    /// Ranks as threads in this process (the [`crate::World::launch`]
    /// semantics, unchanged).
    InProcess,
    /// One OS process per rank over loopback TCP.
    Tcp(TcpOpts),
}

impl Transport {
    /// Parse a `--transport` flag value (`inproc` / `tcp`); the
    /// TCP variant gets `label` as its launch-site label.
    pub fn parse(s: &str, label: &str) -> Option<Transport> {
        match s {
            "inproc" | "in-process" | "thread" => Some(Transport::InProcess),
            "tcp" => Some(Transport::Tcp(TcpOpts::labeled(label))),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Routing: where a sent envelope goes
// ---------------------------------------------------------------------------

/// Shortest blocked-send worth a [`pcoll_obs::EventKind::QueueStall`]
/// trace event (wall transports only). Genuine congestion blocks for
/// far longer; sub-threshold blocking is ordinary bounded-queue handoff.
const STALL_RECORD_MIN_NS: u64 = 10_000;

/// Push into a bounded queue with full-queue accounting: the fast path is
/// one `try_send`; a full queue ticks the stall counters and blocks with
/// a deadline, and blowing the deadline panics — a queue that stays full
/// that long is a backpressure cycle (see the README's "data path"
/// section), which must fail loudly rather than hang the world.
pub(crate) fn bounded_send<T>(
    tx: &Sender<T>,
    value: T,
    stats: &CommStats,
    deadline: Duration,
    what: &str,
) {
    stats.sends.fetch_add(1, Ordering::Relaxed);
    match tx.try_send(value) {
        Ok(()) => stats.record_depth(tx.len()),
        Err(TrySendError::Disconnected(_)) => {
            // Destination already finished: drop, like a packet to a
            // dead host.
            stats.dropped_closed.fetch_add(1, Ordering::Relaxed);
        }
        Err(TrySendError::Full(value)) => {
            stats.send_stalls.fetch_add(1, Ordering::Relaxed);
            let depth = tx.len();
            stats.record_depth(depth);
            let t0 = Instant::now();
            let res = tx.send_timeout(value, deadline);
            let blocked_ns = t0.elapsed().as_nanos() as u64;
            stats.stall_ns.fetch_add(blocked_ns, Ordering::Relaxed);
            // Only stalls long enough to matter become trace events: a
            // saturated producer/consumer handoff blocks for sub-µs on
            // *every* send, and recording each of those would flood the
            // ring and put a measurable ring-write on the hot path the
            // recorder promises to stay off. The counters above still
            // account every stall; the sim transport records its own
            // (virtual-time) stalls on a different path.
            if blocked_ns >= STALL_RECORD_MIN_NS {
                stats.recorder().record(pcoll_obs::LEVEL_SPANS, || {
                    pcoll_obs::EventKind::QueueStall {
                        depth: depth as u64,
                        dur_ns: blocked_ns,
                    }
                });
            }
            match res {
                Ok(()) => {}
                Err(SendTimeoutError::Disconnected(_)) => {
                    stats.dropped_closed.fetch_add(1, Ordering::Relaxed);
                }
                Err(SendTimeoutError::Timeout(_)) => panic!(
                    "send queue to {what} stayed full for {deadline:?} — \
                     the consumer is stuck or a backpressure cycle formed \
                     (raise WorldConfig::queue_capacity or fix the stall; \
                     see README 'data path')"
                ),
            }
        }
    }
}

/// Where a [`CommHandle`]'s sends go: the in-process mailbox table, the
/// TCP peer writers or the simulator's stage. Cheap to clone.
#[derive(Clone)]
pub(crate) enum Route {
    Mailboxes(Arc<Vec<Sender<Envelope>>>),
    Tcp(Arc<TcpPeers>),
    /// Simulated transport: sends are staged for the event scheduler.
    Sim(SimRoute),
}

impl Route {
    pub(crate) fn mailboxes(txs: Vec<Sender<Envelope>>) -> Route {
        Route::Mailboxes(Arc::new(txs))
    }

    /// Hand `env` to `dst`, blocking (bounded, with `deadline`) when the
    /// destination queue is full. A closed destination (rank already
    /// finished) silently drops, like a packet to a dead host.
    pub(crate) fn deliver(&self, dst: Rank, env: Envelope, stats: &CommStats, deadline: Duration) {
        match self {
            Route::Mailboxes(mbs) => {
                bounded_send(&mbs[dst], env, stats, deadline, "rank mailbox");
            }
            Route::Tcp(peers) => peers.deliver(dst, env, stats, deadline),
            Route::Sim(sim) => sim.deliver(dst, env, stats),
        }
    }

    /// Queue local control on `rank`'s own mailbox (see
    /// [`crate::CommHandle::post_local`]): no send counter moves and, on
    /// the simulator, no network model applies, but a full mailbox still
    /// blocks, and past `deadline` panics.
    pub(crate) fn post_local(&self, rank: Rank, env: Envelope, deadline: Duration) {
        let tx = match self {
            Route::Mailboxes(mbs) => &mbs[rank],
            Route::Tcp(peers) => peers.local(),
            Route::Sim(sim) => &sim.local,
        };
        let Err(TrySendError::Full(env)) = tx.try_send(env) else {
            return;
        };
        if let Err(SendTimeoutError::Timeout(_)) = tx.send_timeout(env, deadline) {
            panic!("rank {rank}'s own mailbox stayed full for {deadline:?}: its engine is stuck");
        }
    }
}

/// Time left until `deadline`, at least 1 ms (a zero socket timeout
/// means "block forever").
fn remaining(deadline: Instant) -> Duration {
    deadline
        .saturating_duration_since(Instant::now())
        .max(Duration::from_millis(1))
}

/// Dial a peer with exponential backoff plus jitter. Racing workers can
/// reach `connect` before the peer's listener backlog is ready, and a
/// refused connection during mesh construction deserves a few attempts
/// before it fails the rank. Jitter decorrelates the retry storms of
/// many workers dialing the same listener.
fn connect_with_retries(
    addr: &str,
    deadline: Instant,
    seed: u64,
    what: &str,
) -> std::io::Result<TcpStream> {
    let mut backoff = Duration::from_millis(10);
    let mut rng = seed | 1;
    let mut attempts = 0u32;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                attempts += 1;
                if Instant::now() >= deadline {
                    return Err(std::io::Error::new(
                        e.kind(),
                        format!("{what}: gave up after {attempts} attempts: {e}"),
                    ));
                }
                // xorshift64* jitter in [0, backoff): full jitter keeps
                // simultaneous retriers from re-colliding in lockstep.
                rng ^= rng >> 12;
                rng ^= rng << 25;
                rng ^= rng >> 27;
                let r = rng.wrapping_mul(0x2545F4914F6CDD1D);
                let jitter = Duration::from_nanos(r % backoff.as_nanos().max(1) as u64);
                std::thread::sleep((backoff + jitter).min(remaining(deadline)));
                backoff = (backoff * 2).min(Duration::from_secs(1));
            }
        }
    }
}

/// How long an accept path waits for a new connection's first bytes (a
/// mesh id or a hello). A healthy dialer writes them at once; a silent
/// one is dropped instead of stalling the listener.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// Stop a thread parked in a blocking `accept` on `addr`: raise its
/// `stop` flag, then dial the listener once so the pending `accept`
/// returns and the loop sees the flag. A wildcard bind is dialed on
/// loopback.
fn stop_accepting(stop: &AtomicBool, mut addr: SocketAddr) {
    stop.store(true, Ordering::Release);
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_parse_recognizes_backends() {
        assert!(matches!(
            Transport::parse("inproc", "x"),
            Some(Transport::InProcess)
        ));
        match Transport::parse("tcp", "smoke") {
            Some(Transport::Tcp(opts)) => assert_eq!(opts.label, "smoke"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(Transport::parse("carrier-pigeon", "x").is_none());
    }
}
