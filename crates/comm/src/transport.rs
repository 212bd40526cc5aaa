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
//!   pairwise mesh (each rank dials the listeners of all lower ranks
//!   and accepts from all higher ones). Each rank's closure result
//!   returns to the parent as JSON over its rendezvous connection, so
//!   `launch_tcp` has the same `Vec<T>` shape as `World::launch` — and
//!   because results travel over that connection (never through shared
//!   memory or the exit status), collection works identically when the
//!   workers run on other hosts.
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
//!   re-registers with the parent, dials every live peer — whose accept
//!   threads splice a fresh connection into the dead rank's slot and
//!   acknowledge it, so the worker's closure starts only once every
//!   survivor routes to the new connection — and fetches the state it
//!   missed through the parent's blackboard
//!   ([`RendezvousClient`]); the app layer then runs the admission
//!   fence (`RankCtx::admit` in the `pcoll` crate) to bring it back
//!   into the collectives.
//!
//! A binary may contain several `launch_tcp` call sites; each is named by
//! [`TcpOpts::label`], and a worker process only serves the call site
//! whose label matches its environment — other call sites return `None`
//! so the caller can skip the work that belongs to a different launch
//! (see `examples/quickstart.rs`).

use crate::membership::Membership;
use crate::pool::FRAME_POOL;
use crate::sim::SimRoute;
use crate::stats::CommStats;
use crate::tag::{CollId, Message, Rank, WireTag};
use crate::world::{CommHandle, Communicator, Envelope, Inbox, WorldConfig};
use crate::DType;
use crossbeam::channel::{
    bounded, unbounded, Receiver, RecvTimeoutError, SendTimeoutError, Sender, TrySendError,
};
use serde::json::Value;
use std::collections::{BTreeSet, HashMap};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
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

/// Options for a TCP (process-per-rank) launch.
#[derive(Debug, Clone)]
pub struct TcpOpts {
    /// Name of this launch call site. A worker process only serves the
    /// matching site; unrelated sites return `None` from [`launch_tcp`].
    pub label: String,
    /// Argv (minus program name) for the re-`exec`ed workers. Defaults to
    /// this process's own arguments, which is right whenever the worker
    /// reaches the launch call the same way the parent did. Test
    /// harnesses instead pass `[test_name, "--exact"]` so a worker runs
    /// exactly one test.
    pub child_args: Option<Vec<String>>,
    /// Inherit the parent's stdout in workers (default: silenced, so a
    /// bench's report lines are printed once, by the parent).
    pub inherit_stdout: bool,
    /// Watchdog for rendezvous and per-rank results: a worker that takes
    /// longer than this to connect or to report its result fails the
    /// launch (and all workers are killed). Overridable via the
    /// `PCOLL_TCP_TIMEOUT_SECS` environment variable.
    pub timeout: Duration,
    /// Parent rendezvous listen address (`"host:port"`). `None` — the
    /// default — binds an ephemeral loopback port and self-`exec`s one
    /// worker process per rank. `Some` switches to *externally launched*
    /// workers: the parent binds here, spawns nothing, and waits for
    /// `nranks` workers started by the operator with the `PCOLL_TCP_*`
    /// environment pointing back at this address. Settable via
    /// `PCOLL_TCP_LISTEN`.
    pub listen: Option<String>,
    /// Relaunch a worker whose process dies mid-run (once per rank),
    /// with `PCOLL_TCP_REJOIN=1` in its environment so it comes back
    /// asking for re-admission instead of an initial mesh slot. Only
    /// meaningful in self-`exec` mode (externally launched workers are
    /// the operator's to relaunch), and only useful with a closure that
    /// takes the rejoin path (see [`is_tcp_rejoiner`] and the `pcoll`
    /// crate's `RankCtx::admit`).
    pub respawn: bool,
}

impl TcpOpts {
    /// Default options for a launch site named `label`.
    pub fn labeled(label: impl Into<String>) -> Self {
        let timeout = std::env::var(ENV_TIMEOUT)
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .map_or(Duration::from_secs(120), Duration::from_secs);
        TcpOpts {
            label: label.into(),
            child_args: None,
            inherit_stdout: false,
            timeout,
            listen: std::env::var(ENV_LISTEN).ok(),
            respawn: false,
        }
    }

    /// Builder: explicit worker argv.
    pub fn with_child_args(mut self, args: Vec<String>) -> Self {
        self.child_args = Some(args);
        self
    }

    /// Builder: externally launched workers — the parent binds `addr`
    /// and spawns nothing (see [`TcpOpts::listen`]).
    pub fn with_listen(mut self, addr: impl Into<String>) -> Self {
        self.listen = Some(addr.into());
        self
    }

    /// Builder: relaunch dead workers once for rejoin (see
    /// [`TcpOpts::respawn`]).
    pub fn with_respawn(mut self) -> Self {
        self.respawn = true;
        self
    }
}

const ENV_RANK: &str = "PCOLL_TCP_RANK";
const ENV_NRANKS: &str = "PCOLL_TCP_NRANKS";
const ENV_PARENT: &str = "PCOLL_TCP_PARENT";
const ENV_LABEL: &str = "PCOLL_TCP_LABEL";
const ENV_TIMEOUT: &str = "PCOLL_TCP_TIMEOUT_SECS";
const ENV_LISTEN: &str = "PCOLL_TCP_LISTEN";
const ENV_BIND: &str = "PCOLL_TCP_BIND";
const ENV_ADVERTISE: &str = "PCOLL_TCP_ADVERTISE";
const ENV_REJOIN: &str = "PCOLL_TCP_REJOIN";

/// True when this process is a re-`exec`ed TCP rank worker. Callers use
/// this to skip work that only the parent should do (e.g. the in-process
/// half of a both-backends comparison).
pub fn is_tcp_worker() -> bool {
    std::env::var_os(ENV_RANK).is_some()
}

/// True when this process is a relaunched worker that must *rejoin* a
/// running world: its previous incarnation was evicted, so instead of
/// taking an initial mesh slot it dials every live peer and the SPMD
/// closure must take the rejoin path — import the policy/membership
/// history from the blackboard ([`RendezvousClient`]) and enter the
/// admission fence rather than computing from round 0.
pub fn is_tcp_rejoiner() -> bool {
    std::env::var_os(ENV_REJOIN).is_some()
}

// ---------------------------------------------------------------------------
// Routing: where a sent envelope goes
// ---------------------------------------------------------------------------

/// Push into a bounded queue with full-queue accounting: the fast path is
/// one `try_send`; a full queue ticks the stall counters and blocks with
/// a deadline, and blowing the deadline panics — a queue that stays full
/// that long is a backpressure cycle (see the README's "data path"
/// section), which must fail loudly rather than hang the world.
/// Shortest blocked-send worth a [`pcoll_obs::EventKind::QueueStall`]
/// trace event (wall transports only). Genuine congestion blocks for
/// far longer; sub-threshold blocking is ordinary bounded-queue handoff.
const STALL_RECORD_MIN_NS: u64 = 10_000;

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
}

/// Per-peer outbound queues plus the local inbox (self-sends short-circuit
/// the sockets; a rank is always FIFO with itself). Each slot is
/// lock-wrapped so a mid-run mesh reconnect — a rejoining rank dialing
/// back in — can splice a fresh writer in place of the dead one; the
/// steady-state cost is one uncontended lock plus a sender refcount bump
/// per remote send, and no allocation.
pub(crate) struct TcpPeers {
    rank: Rank,
    txs: Vec<Mutex<Option<Sender<PeerCmd>>>>,
    local: Sender<Envelope>,
    membership: Arc<Membership>,
}

impl TcpPeers {
    fn deliver(&self, dst: Rank, env: Envelope, stats: &CommStats, deadline: Duration) {
        if dst == self.rank {
            bounded_send(&self.local, env, stats, deadline, "local inbox");
        } else if self.membership.is_down(dst) {
            // A send to a declared-dead peer drops immediately instead of
            // queueing behind a writer that can only fail (or, worse,
            // blocking a full queue out to the deadline panic). This is
            // also what gates a rejoiner's spliced-in connection: it goes
            // unused until the admission fence readmits the rank.
            stats.dropped_peer_down.fetch_add(1, Ordering::Relaxed);
        } else if let Some(tx) = self.peer_tx(dst) {
            bounded_send(&tx, PeerCmd::Deliver(env), stats, deadline, "peer writer");
        }
    }

    /// Install a fresh writer queue for `peer` (mesh reconnect).
    fn swap_peer(&self, peer: Rank, tx: Sender<PeerCmd>) {
        *self.txs[peer].lock().expect("peer slot") = Some(tx);
    }

    /// The current writer queue for `peer`, if any.
    fn peer_tx(&self, peer: Rank) -> Option<Sender<PeerCmd>> {
        self.txs[peer].lock().expect("peer slot").clone()
    }
}

enum PeerCmd {
    Deliver(Envelope),
    /// Flush, send `GOODBYE`, half-close. Queued behind all prior
    /// deliveries on the same channel, so it cannot overtake them.
    Finish,
}

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

const FRAME_DATA: u8 = 0;
const FRAME_SHUTDOWN: u8 = 1;
const FRAME_GOODBYE: u8 = 2;
/// Keep-alive on an otherwise idle connection: consumed by the peer's
/// reader as a liveness observation, never delivered upward.
const FRAME_HEARTBEAT: u8 = 3;

/// How long a writer sits idle before sending a [`FRAME_HEARTBEAT`]. Long
/// enough that busy links never emit one (data traffic is its own
/// heartbeat); short enough that the phi-accrual detector keeps a fresh
/// inter-arrival estimate on quiet links.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(250);

/// Bound on how long teardown waits to enqueue one peer's goodbye when
/// that peer's writer queue is full. Healthy peers drain in microseconds;
/// anything slower than this is a stuck link that teardown skips (the
/// skip is counted in [`CommStats::drain_skips`]).
const GOODBYE_DRAIN_WAIT: Duration = Duration::from_secs(5);

/// Upper bound on one frame body; a frame claiming more is corrupt.
const MAX_FRAME: usize = 1 << 30;
/// Socket writes are split into chunks of this size (see module docs).
const WRITE_CHUNK: usize = 256 * 1024;

/// A decoded frame body.
#[derive(Debug)]
pub(crate) enum WireFrame {
    Data(Message),
    Shutdown,
    Goodbye,
    Heartbeat,
}

fn dtype_code(d: DType) -> u8 {
    match d {
        DType::F32 => 1,
        DType::F64 => 2,
        DType::I32 => 3,
        DType::I64 => 4,
    }
}

fn dtype_from_code(c: u8) -> Option<DType> {
    match c {
        1 => Some(DType::F32),
        2 => Some(DType::F64),
        3 => Some(DType::I32),
        4 => Some(DType::I64),
        _ => None,
    }
}

/// Encode a data message into `out` (header + raw LE elements). `out` is
/// cleared first; callers on the hot path reuse one scratch buffer across
/// messages so steady-state encoding allocates nothing.
pub(crate) fn encode_data_into(msg: &Message, out: &mut Vec<u8>) {
    out.clear();
    let payload_bytes = msg.payload.as_ref().map_or(0, |p| p.byte_len());
    out.reserve(32 + payload_bytes);
    out.push(FRAME_DATA);
    out.extend_from_slice(&(msg.src as u32).to_le_bytes());
    out.extend_from_slice(&msg.tag.coll.0.to_le_bytes());
    out.extend_from_slice(&msg.tag.round.to_le_bytes());
    out.extend_from_slice(&msg.tag.sem.to_le_bytes());
    match &msg.payload {
        None => out.push(0),
        Some(buf) => {
            out.push(dtype_code(buf.dtype()));
            out.extend_from_slice(&(buf.len() as u64).to_le_bytes());
            // Range-aware: a sub-range view encodes only its slice, and a
            // wire-borne payload being forwarded is a straight byte copy.
            buf.extend_wire_bytes(out);
        }
    }
}

/// Allocating convenience wrapper over [`encode_data_into`] (tests and
/// one-shot callers).
#[cfg(test)]
pub(crate) fn encode_data(msg: &Message) -> Vec<u8> {
    let mut out = Vec::new();
    encode_data_into(msg, &mut out);
    out
}

/// Decode a frame body produced by [`encode_data`] (or the one-byte
/// control frames).
pub(crate) fn decode_frame(body: &[u8]) -> Result<WireFrame, String> {
    let mut cur = Cursor { body, pos: 0 };
    match cur.u8()? {
        FRAME_SHUTDOWN => Ok(WireFrame::Shutdown),
        FRAME_GOODBYE => Ok(WireFrame::Goodbye),
        FRAME_HEARTBEAT => Ok(WireFrame::Heartbeat),
        FRAME_DATA => {
            let src = cur.u32()? as Rank;
            let coll = CollId(cur.u32()?);
            let round = cur.u64()?;
            let sem = cur.u32()?;
            let payload = match cur.u8()? {
                0 => None,
                code => {
                    let dtype =
                        dtype_from_code(code).ok_or_else(|| format!("bad dtype code {code}"))?;
                    let nelems = cur.u64()? as usize;
                    let nbytes = nelems
                        .checked_mul(dtype.size_of())
                        .filter(|&n| n <= MAX_FRAME)
                        .ok_or("payload length overflow")?;
                    let raw = cur.bytes(nbytes)?;
                    // One allocation: the (pooled) frame body's payload
                    // range is copied out as raw bytes and *not* decoded —
                    // a reduction consumer decodes it while folding it
                    // into its accumulator (`Payload::reduce_assign`), so
                    // the hot path never materializes an intermediate buffer.
                    Some(
                        crate::Payload::from_wire(dtype, raw.to_vec())
                            .ok_or("ragged payload bytes")?,
                    )
                }
            };
            if cur.pos != body.len() {
                return Err(format!("{} trailing bytes in frame", body.len() - cur.pos));
            }
            Ok(WireFrame::Data(Message {
                src,
                tag: WireTag::new(coll, round, sem),
                payload,
            }))
        }
        k => Err(format!("unknown frame kind {k}")),
    }
}

struct Cursor<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.body.len())
            .ok_or("truncated frame")?;
        let s = &self.body[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8")))
    }
}

/// Write one length-prefixed frame, chunking the body. Enforces the same
/// [`MAX_FRAME`] bound the reader does, so an oversized message fails
/// loudly at the sender instead of silently severing the receiver.
pub(crate) fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> std::io::Result<()> {
    if body.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME}-byte limit",
                body.len()
            ),
        ));
    }
    let len = body.len() as u32;
    w.write_all(&len.to_le_bytes())?;
    for chunk in body.chunks(WRITE_CHUNK) {
        w.write_all(chunk)?;
    }
    Ok(())
}

/// Read one length-prefixed frame body into `body` (cleared and resized
/// in place, so a reused scratch buffer makes steady-state reads
/// allocation-free once it has grown to the largest frame seen).
/// `Ok(false)` on clean EOF at a frame boundary, `Ok(true)` when `body`
/// holds a frame.
pub(crate) fn read_frame_into<R: Read>(r: &mut R, body: &mut Vec<u8>) -> std::io::Result<bool> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let n = r.read(&mut len_buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(false);
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "eof inside frame length",
            ));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame length exceeds limit",
        ));
    }
    body.clear();
    body.resize(len, 0);
    r.read_exact(body)?;
    Ok(true)
}

/// Allocating convenience wrapper over [`read_frame_into`] (rendezvous
/// JSON and tests). `Ok(None)` on clean EOF at a frame boundary.
pub(crate) fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Option<Vec<u8>>> {
    let mut body = Vec::new();
    Ok(read_frame_into(r, &mut body)?.then_some(body))
}

// ---------------------------------------------------------------------------
// Per-peer socket threads
// ---------------------------------------------------------------------------

/// Route a local "peer is dead" verdict: mark membership (exactly once),
/// record the trace instant, and push an [`Envelope::PeerDown`] into the
/// local inbox so the engine stops waiting for the corpse. Safe to call
/// from both halves of a connection — only the first verdict propagates.
fn declare_peer_down(
    peer: Rank,
    membership: &Membership,
    inbox: &Sender<Envelope>,
    stats: &CommStats,
) {
    if membership.report_down(peer) {
        stats
            .recorder()
            .record(pcoll_obs::LEVEL_SPANS, || pcoll_obs::EventKind::PeerDown {
                peer: peer as u32,
            });
        // Best-effort: a closed inbox just means this rank is already in
        // teardown and nobody is left to care.
        let _ = inbox.send_timeout(Envelope::PeerDown { peer }, Duration::from_secs(5));
    }
}

fn writer_loop(
    stream: TcpStream,
    rx: Receiver<PeerCmd>,
    peer: Rank,
    membership: Arc<Membership>,
    inbox: Sender<Envelope>,
    stats: Arc<CommStats>,
) {
    let mut w = BufWriter::with_capacity(WRITE_CHUNK, stream);
    // One pooled scratch buffer per writer: every frame encodes into it,
    // so the steady state performs zero allocations per message.
    let mut scratch = FRAME_POOL.get();
    let write_env = |w: &mut BufWriter<TcpStream>, scratch: &mut Vec<u8>, env: Envelope| -> bool {
        let body: &[u8] = match env {
            Envelope::Data(msg) => {
                encode_data_into(&msg, scratch);
                scratch
            }
            Envelope::Shutdown => &[FRAME_SHUTDOWN],
            // Never crosses the wire: liveness verdicts are local.
            Envelope::PeerDown { .. } | Envelope::PeerUp { .. } => return true,
        };
        match write_frame(w, body) {
            Ok(()) => true,
            // A message the protocol can never carry (an oversized frame)
            // is reported and the connection declared dead — one broken
            // message must not abort an otherwise healthy rank.
            Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => {
                eprintln!("pcoll-comm: unsendable message to rank {peer}, dropping link: {e}");
                false
            }
            // Transport errors mean the peer is gone.
            Err(_) => false,
        }
    };
    'outer: loop {
        let mut cmd = match rx.recv_timeout(HEARTBEAT_INTERVAL) {
            Ok(c) => c,
            Err(RecvTimeoutError::Timeout) => {
                // Idle link: keep the peer's failure detector fed. A
                // failed heartbeat is *not* a death verdict by itself —
                // an orderly-finished peer also stops reading; the reader
                // half (EOF without goodbye) is the authoritative signal.
                if write_frame(&mut w, &[FRAME_HEARTBEAT]).is_err() || w.flush().is_err() {
                    FRAME_POOL.put(scratch);
                    return;
                }
                stats.heartbeats.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => break 'outer, // orderly finish
        };
        // Drain the queue before flushing so bursts coalesce into one
        // syscall batch, then flush when idle to bound latency.
        loop {
            match cmd {
                PeerCmd::Deliver(env) => {
                    if !write_env(&mut w, &mut scratch, env) {
                        declare_peer_down(peer, &membership, &inbox, &stats);
                        FRAME_POOL.put(scratch);
                        return; // peer gone: nothing left to do
                    }
                }
                PeerCmd::Finish => break 'outer,
            }
            match rx.try_recv() {
                Ok(next) => cmd = next,
                Err(_) => break,
            }
        }
        if w.flush().is_err() {
            declare_peer_down(peer, &membership, &inbox, &stats);
            FRAME_POOL.put(scratch);
            return;
        }
    }
    FRAME_POOL.put(scratch);
    // Shutdown handshake: everything queued before Finish has been
    // written; append GOODBYE, flush, and half-close so the peer's reader
    // sees an orderly end after draining our bytes.
    let _ = write_frame(&mut w, &[FRAME_GOODBYE]);
    let _ = w.flush();
    let _ = w.get_ref().shutdown(std::net::Shutdown::Write);
}

/// Reader half of one mesh connection. Delivery into the (bounded) local
/// inbox blocks when the application falls behind, which stops the read
/// loop, fills the kernel socket buffers, and stalls the sender's writer
/// — end-to-end backpressure over real sockets.
fn reader_loop(
    stream: TcpStream,
    peer: Rank,
    inbox: Sender<Envelope>,
    stats: Arc<CommStats>,
    membership: Arc<Membership>,
    deadline: Duration,
) {
    let mut r = BufReader::with_capacity(WRITE_CHUNK, stream);
    // One pooled scratch buffer per reader: every frame body lands in it,
    // so the steady state allocates only the decoded payload itself.
    let mut body = FRAME_POOL.get();
    // Did the peer end the connection with an orderly GOODBYE? Anything
    // else — EOF mid-stream, a reset, a corrupt frame — is a death.
    let mut orderly = false;
    loop {
        match read_frame_into(&mut r, &mut body) {
            Ok(true) => match decode_frame(&body) {
                Ok(WireFrame::Data(msg)) => {
                    // Every frame is a liveness observation for the
                    // failure detector (a couple of relaxed atomics).
                    membership.observe(peer);
                    // Receive accounting happens at *consumption* (the
                    // matcher / the engine's envelope intake), uniformly
                    // across transports — counting here too would tally
                    // TCP receives twice.
                    bounded_send(&inbox, Envelope::Data(msg), &stats, deadline, "local inbox");
                }
                Ok(WireFrame::Shutdown) => {
                    membership.observe(peer);
                    bounded_send(&inbox, Envelope::Shutdown, &stats, deadline, "local inbox");
                }
                Ok(WireFrame::Heartbeat) => {
                    // Keep-alive: feed the detector, deliver nothing.
                    membership.observe(peer);
                }
                Ok(WireFrame::Goodbye) => {
                    orderly = true;
                    break;
                }
                Err(e) => {
                    // Corrupt stream: unlike an orderly goodbye, say so —
                    // every later message from this pair is lost.
                    eprintln!("pcoll-comm: dropping corrupt connection: {e}");
                    break;
                }
            },
            // EOF without a goodbye: the peer *process* died (kill -9, a
            // crash) rather than finishing — a goodbye always precedes an
            // orderly close.
            Ok(false) => break,
            Err(e) => {
                eprintln!("pcoll-comm: mesh read error, dropping connection: {e}");
                break;
            }
        }
    }
    if !orderly {
        declare_peer_down(peer, &membership, &inbox, &stats);
    }
    FRAME_POOL.put(body);
}

// ---------------------------------------------------------------------------
// Rendezvous plumbing (length-prefixed JSON over the parent connection)
// ---------------------------------------------------------------------------

fn write_json(stream: &TcpStream, v: &Value) -> std::io::Result<()> {
    let mut s = stream;
    write_frame(&mut s, v.to_json().as_bytes())?;
    s.flush()
}

fn read_json(stream: &TcpStream) -> std::io::Result<Value> {
    let mut s = stream;
    let body = read_frame(&mut s)?.ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "peer closed rendezvous")
    })?;
    let text = std::str::from_utf8(&body)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-utf8 json"))?;
    Value::parse(text)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn remaining(deadline: Instant) -> Duration {
    deadline
        .saturating_duration_since(Instant::now())
        .max(Duration::from_millis(1))
}

fn bad_frame(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_owned())
}

// ---------------------------------------------------------------------------
// Rendezvous blackboard (state transfer for rejoin)
// ---------------------------------------------------------------------------

/// Key-value side channel on a worker's rendezvous connection. The
/// parent keeps a blackboard that any worker can write
/// ([`RendezvousClient::put`]) and any worker — including one that
/// joined mid-run — can read ([`RendezvousClient::get`], blocking until
/// the key exists). The admission-fence protocol uses it to hand a
/// rejoining rank the policy/membership history it missed; the API is
/// deliberately JSON-text-in / JSON-text-out so app crates stay
/// decoupled from this crate's wire codec. Cloneable; clones share the
/// one underlying parent connection (an internal lock serializes use).
#[derive(Clone)]
pub struct RendezvousClient {
    link: Arc<Mutex<TcpStream>>,
}

impl RendezvousClient {
    /// Publish `json` (must parse as JSON) under `key` on the parent's
    /// blackboard, overwriting any previous value.
    pub fn put(&self, key: &str, json: &str) {
        let value = Value::parse(json).expect("RendezvousClient::put: invalid json");
        let stream = self.link.lock().expect("rendezvous link");
        write_json(
            &stream,
            &obj(vec![
                ("kind", Value::Str("put".into())),
                ("key", Value::Str(key.into())),
                ("value", value),
            ]),
        )
        .expect("rendezvous put");
    }

    /// Fetch `key` from the parent's blackboard as JSON text, blocking
    /// until some worker has `put` it (bounded by the launch watchdog —
    /// a key that never appears panics rather than deadlocking).
    pub fn get(&self, key: &str) -> String {
        let stream = self.link.lock().expect("rendezvous link");
        write_json(
            &stream,
            &obj(vec![
                ("kind", Value::Str("get".into())),
                ("key", Value::Str(key.into())),
            ]),
        )
        .expect("rendezvous get");
        let reply = read_json(&stream).expect("rendezvous get reply");
        match reply.field("found") {
            Ok(Value::Bool(true)) => reply.field("value").expect("get value").to_json(),
            _ => panic!("rendezvous get: key {key:?} never appeared before the watchdog"),
        }
    }
}

/// Parent-side shared rendezvous state: the worker address book, the
/// set of ranks whose connection died (and has not reconnected), and
/// the blackboard.
struct RendezvousState {
    addrs: Mutex<Vec<String>>,
    down: Mutex<BTreeSet<Rank>>,
    board: Mutex<HashMap<String, Value>>,
    board_cv: Condvar,
}

impl RendezvousState {
    fn new(addrs: Vec<String>) -> Self {
        RendezvousState {
            addrs: Mutex::new(addrs),
            down: Mutex::new(BTreeSet::new()),
            board: Mutex::new(HashMap::new()),
            board_cv: Condvar::new(),
        }
    }

    fn board_put(&self, key: String, value: Value) {
        self.board.lock().expect("board").insert(key, value);
        self.board_cv.notify_all();
    }

    /// Blocking lookup: waits up to `timeout` for the key to appear.
    fn board_get(&self, key: &str, timeout: Duration) -> Option<Value> {
        let deadline = Instant::now() + timeout;
        let mut board = self.board.lock().expect("board");
        loop {
            if let Some(v) = board.get(key) {
                return Some(v.clone());
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            let (b, _) = self.board_cv.wait_timeout(board, left).expect("board");
            board = b;
        }
    }

    fn mark_down(&self, rank: Rank) {
        self.down.lock().expect("down").insert(rank);
    }

    /// The address map + down set as one port-map JSON message.
    fn port_map(&self, nranks: usize, seed: u64) -> Value {
        let addrs = self.addrs.lock().expect("addrs");
        let down = self.down.lock().expect("down");
        obj(vec![
            ("nranks", Value::Int(nranks as i128)),
            ("seed", Value::Int(seed as i128)),
            (
                "addrs",
                Value::Arr(addrs.iter().map(|a| Value::Str(a.clone())).collect()),
            ),
            (
                "down",
                Value::Arr(down.iter().map(|&r| Value::Int(r as i128)).collect()),
            ),
        ])
    }
}

/// Serve one worker's rendezvous connection until its final report (or
/// its death): `put`/`get` frames hit the shared blackboard; the first
/// frame *without* a `kind` field is the worker's result. On a read
/// error the rank is recorded in [`RendezvousState::down`], so a later
/// rejoin hello learns which peers are gone.
fn serve_worker_conn(
    rank: Rank,
    s: TcpStream,
    state: Arc<RendezvousState>,
    tx: Sender<(Rank, std::io::Result<Value>)>,
    timeout: Duration,
) {
    let _ = s.set_read_timeout(Some(timeout));
    loop {
        match read_json(&s) {
            Ok(v) => match v.field("kind") {
                Ok(Value::Str(kind)) if kind == "put" => {
                    let (Ok(Value::Str(key)), Ok(value)) = (v.field("key"), v.field("value"))
                    else {
                        let _ = tx.send((rank, Err(bad_frame("malformed put"))));
                        return;
                    };
                    state.board_put(key.clone(), value.clone());
                }
                Ok(Value::Str(kind)) if kind == "get" => {
                    let Ok(Value::Str(key)) = v.field("key") else {
                        let _ = tx.send((rank, Err(bad_frame("malformed get"))));
                        return;
                    };
                    let reply = match state.board_get(key, timeout) {
                        Some(value) => obj(vec![("found", Value::Bool(true)), ("value", value)]),
                        None => obj(vec![("found", Value::Bool(false))]),
                    };
                    if write_json(&s, &reply).is_err() {
                        state.mark_down(rank);
                        let _ = tx.send((rank, Err(bad_frame("get reply failed"))));
                        return;
                    }
                }
                _ => {
                    let _ = tx.send((rank, Ok(v)));
                    return;
                }
            },
            Err(e) => {
                state.mark_down(rank);
                let _ = tx.send((rank, Err(e)));
                return;
            }
        }
    }
}

/// Mid-run rendezvous service: keeps accepting connections after the
/// initial world is up so an evicted-and-relaunched rank can come back.
/// Each late hello (which must carry `rejoin: true`) gets the current
/// address book + down set, then its connection is served like any
/// other worker's (blackboard traffic + final report).
fn rendezvous_service(
    listener: TcpListener,
    state: Arc<RendezvousState>,
    res_tx: Sender<(Rank, std::io::Result<Value>)>,
    stop: Arc<AtomicBool>,
    nranks: usize,
    seed: u64,
    timeout: Duration,
) {
    let _ = listener.set_nonblocking(true);
    let mut served = Vec::new();
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((s, _)) => {
                let _ = s.set_nonblocking(false);
                let _ = s.set_nodelay(true);
                let _ = s.set_read_timeout(Some(timeout));
                let Ok(hello) = read_json(&s) else { continue };
                let Ok(rank) = hello.field("rank").and_then(Value::as_int) else {
                    continue;
                };
                let rank = rank as usize;
                if rank >= nranks || !matches!(hello.field("rejoin"), Ok(Value::Bool(true))) {
                    eprintln!("pcoll-comm: ignoring stray rendezvous connection (rank {rank})");
                    continue;
                }
                if let Ok(Value::Str(a)) = hello.field("addr") {
                    state.addrs.lock().expect("addrs")[rank] = a.clone();
                }
                state.down.lock().expect("down").remove(&rank);
                if write_json(&s, &state.port_map(nranks, seed)).is_err() {
                    continue;
                }
                let state2 = Arc::clone(&state);
                let tx = res_tx.clone();
                served.push(
                    std::thread::Builder::new()
                        .name(format!("pcoll-tcp-rejoin-{rank}"))
                        .spawn(move || serve_worker_conn(rank, s, state2, tx, timeout))
                        .expect("spawn rejoin server"),
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }
    for h in served {
        let _ = h.join();
    }
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

/// Accept with a deadline (std has no native accept timeout). `poll` is
/// invoked on every idle iteration; returning an error aborts the wait —
/// the parent uses it to fail fast when a worker process dies instead of
/// blocking out the whole watchdog window.
fn accept_with_deadline(
    listener: &TcpListener,
    deadline: Instant,
    what: &str,
    poll: &mut dyn FnMut() -> std::io::Result<()>,
) -> std::io::Result<TcpStream> {
    listener.set_nonblocking(true)?;
    loop {
        match listener.accept() {
            Ok((s, _)) => {
                s.set_nonblocking(false)?;
                s.set_nodelay(true)?;
                return Ok(s);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                poll()?;
                if Instant::now() >= deadline {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        format!("timed out accepting {what}"),
                    ));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(e),
        }
    }
}

// ---------------------------------------------------------------------------
// launch_tcp: parent and worker
// ---------------------------------------------------------------------------

/// Launch `cfg.nranks` rank *processes* over loopback TCP and run `f` on
/// each (see module docs for the full protocol).
///
/// Returns `Some(results)` in the parent; in a worker process serving a
/// *different* launch label it returns `None` immediately (skip the work
/// and fall through to the matching call site); in the worker serving
/// *this* label it never returns — the worker runs `f` for its rank,
/// reports the result to the parent, and exits.
pub fn launch_tcp<T, F>(cfg: WorldConfig, opts: TcpOpts, f: F) -> Option<Vec<T>>
where
    T: serde::Serialize + serde::Deserialize + Send + 'static,
    F: FnOnce(Communicator) -> T,
{
    assert!(cfg.nranks > 0, "world must have at least one rank");
    if is_tcp_worker() {
        let label = std::env::var(ENV_LABEL).unwrap_or_default();
        if label != opts.label {
            return None;
        }
        run_worker(cfg, &opts, f)
    } else {
        Some(run_parent::<T>(&cfg, &opts))
    }
}

/// Fault-tolerant variant of [`launch_tcp`]: the parent survives worker
/// deaths that the remaining ranks detected and reported as evictions.
///
/// Returns `Some((results, evicted))` in the parent, where `results[r]`
/// is `None` exactly for the ranks in `evicted` (sorted). A worker that
/// dies *without* any survivor declaring it down — or any worker that
/// panics — still fails the launch, so genuine bugs cannot hide behind
/// the tolerance.
pub fn launch_tcp_tolerant<T, F>(
    cfg: WorldConfig,
    opts: TcpOpts,
    f: F,
) -> Option<(Vec<Option<T>>, Vec<Rank>)>
where
    T: serde::Serialize + serde::Deserialize + Send + 'static,
    F: FnOnce(Communicator) -> T,
{
    assert!(cfg.nranks > 0, "world must have at least one rank");
    if is_tcp_worker() {
        let label = std::env::var(ENV_LABEL).unwrap_or_default();
        if label != opts.label {
            return None;
        }
        run_worker(cfg, &opts, f)
    } else {
        Some(run_parent_impl::<T>(&cfg, &opts, true))
    }
}

/// Kills (and reaps) still-running workers when the parent unwinds.
struct ChildGuard {
    children: Vec<(Rank, Child)>,
}

impl ChildGuard {
    fn kill_all(&mut self) {
        for (_, c) in &mut self.children {
            let _ = c.kill();
            let _ = c.wait();
        }
        self.children.clear();
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        self.kill_all();
    }
}

fn run_parent<T: serde::Deserialize>(cfg: &WorldConfig, opts: &TcpOpts) -> Vec<T> {
    let (results, _evicted) = run_parent_impl::<T>(cfg, opts, false);
    results
        .into_iter()
        .map(|r| r.expect("all ranks reported"))
        .collect()
}

/// Parent side of the rendezvous. With `tolerant == false` any worker
/// failure is fatal. With `tolerant == true` the watchdog distinguishes
/// "worker evicted" from "run failed": a worker that dies without a
/// report is forgiven *iff* at least one survivor's report lists it as
/// down, its non-zero exit status is tolerated, and it comes back as a
/// `None` slot plus an entry in the returned eviction list. Worker
/// *panics* (an explicit failure report) stay fatal in both modes.
fn run_parent_impl<T: serde::Deserialize>(
    cfg: &WorldConfig,
    opts: &TcpOpts,
    tolerant: bool,
) -> (Vec<Option<T>>, Vec<Rank>) {
    let nranks = cfg.nranks;
    // An explicit listen address switches the parent to *externally
    // launched* workers: bind where told (possibly a routable
    // interface), spawn nothing, and wait for the operator's workers.
    let external = opts.listen.is_some();
    let bind_addr = opts.listen.clone().unwrap_or_else(|| "127.0.0.1:0".into());
    let listener = TcpListener::bind(&bind_addr)
        .unwrap_or_else(|e| panic!("bind rendezvous listener on {bind_addr}: {e}"));
    let addr = listener.local_addr().expect("rendezvous addr");
    let exe = std::env::current_exe().expect("current_exe for self-exec");
    let args: Vec<String> = opts
        .child_args
        .clone()
        .unwrap_or_else(|| std::env::args().skip(1).collect());

    let mut guard = ChildGuard {
        children: Vec::new(),
    };
    if external {
        eprintln!(
            "pcoll-comm: rendezvous on {addr}: waiting for {nranks} externally \
             launched workers (label {:?})",
            opts.label
        );
    } else {
        for rank in 0..nranks {
            let child =
                spawn_worker_process(&exe, &args, rank, cfg, opts, &addr.to_string(), false);
            guard.children.push((rank, child));
        }
    }

    // Phase 1: collect hellos (worker rank + its advertised mesh
    // address). Any spawned worker's exit during rendezvous — even a
    // clean one — means it will never connect (bad argv, a `--exact`
    // filter matching no test, a panic before the launch call): fail
    // fast with the real cause instead of blocking out the whole
    // watchdog window. (In external mode there are no children to poll.)
    let deadline = Instant::now() + opts.timeout;
    let mut conns: Vec<Option<TcpStream>> = (0..nranks).map(|_| None).collect();
    let mut addrs: Vec<String> = vec![String::new(); nranks];
    for _ in 0..nranks {
        let mut check_children = || {
            for (rank, child) in &mut guard.children {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(std::io::Error::other(format!(
                        "tcp worker for rank {rank} exited during rendezvous ({status}) — \
                         it never reached the launch call (check the worker argv/label)"
                    )));
                }
            }
            Ok(())
        };
        let s = accept_with_deadline(
            &listener,
            deadline,
            "worker rendezvous",
            &mut check_children,
        )
        .expect("rendezvous accept");
        s.set_read_timeout(Some(remaining(deadline)))
            .expect("set rendezvous timeout");
        let hello = read_json(&s).expect("worker hello");
        let rank = hello
            .field("rank")
            .and_then(Value::as_int)
            .expect("hello.rank") as usize;
        let worker_addr = match hello.field("addr") {
            Ok(Value::Str(a)) => a.clone(),
            _ => panic!("hello missing mesh addr"),
        };
        assert!(rank < nranks && conns[rank].is_none(), "duplicate hello");
        addrs[rank] = worker_addr;
        conns[rank] = Some(s);
    }

    // Phase 2: broadcast the address map (and the world parameters the
    // workers must agree on — catches parent/worker config drift).
    let state = Arc::new(RendezvousState::new(addrs));
    let pm = state.port_map(nranks, cfg.seed);
    for s in conns.iter().flatten() {
        write_json(s, &pm).expect("send address map");
    }

    // Phase 3: serve every worker connection concurrently (results can
    // arrive in any order; a panic report must not hide behind a slower
    // rank's read; blackboard put/get frames ride the same streams),
    // and keep the rendezvous listener alive so an evicted-and-
    // relaunched rank can dial back in for rejoin.
    let (res_tx, res_rx) = unbounded();
    let mut readers = Vec::new();
    for (rank, conn) in conns.into_iter().enumerate() {
        let s = conn.expect("all conns collected");
        let tx = res_tx.clone();
        let state2 = Arc::clone(&state);
        let timeout = opts.timeout;
        readers.push(
            std::thread::Builder::new()
                .name(format!("pcoll-tcp-result-{rank}"))
                .spawn(move || serve_worker_conn(rank, s, state2, tx, timeout))
                .expect("spawn result reader"),
        );
    }
    let stop = Arc::new(AtomicBool::new(false));
    let service = {
        let state2 = Arc::clone(&state);
        let tx = res_tx.clone();
        let stop2 = Arc::clone(&stop);
        let (seed, timeout) = (cfg.seed, opts.timeout);
        std::thread::Builder::new()
            .name("pcoll-tcp-rendezvous".into())
            .spawn(move || rendezvous_service(listener, state2, tx, stop2, nranks, seed, timeout))
            .expect("spawn rendezvous service")
    };
    drop(res_tx);

    let mut results: Vec<Option<T>> = (0..nranks).map(|_| None).collect();
    let mut missing: Vec<Rank> = Vec::new();
    let mut evicted: BTreeSet<Rank> = BTreeSet::new();
    // Ranks whose *connection* died at some point, even if a relaunched
    // incarnation later reported: their first process may have exited
    // with any status (kill -9 is a signal, not an exit code).
    let mut ever_down: BTreeSet<Rank> = BTreeSet::new();
    let mut respawned = vec![false; nranks];
    let mut done = 0usize;
    while done < nranks {
        let (rank, report) = res_rx
            .recv_timeout(opts.timeout + Duration::from_secs(5))
            .expect("result readers stalled");
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                ever_down.insert(rank as Rank);
                if opts.respawn && !external && !respawned[rank] {
                    // Elastic mode: give the dead rank's slot a second
                    // process. It comes back through the rendezvous with
                    // `rejoin: true`, and must be re-admitted by the
                    // app's admission fence before it contributes; its
                    // eventual report (or second death) settles the slot.
                    eprintln!("pcoll-comm: tcp rank {rank} died ({e}); relaunching for rejoin");
                    respawned[rank] = true;
                    let child =
                        spawn_worker_process(&exe, &args, rank, cfg, opts, &addr.to_string(), true);
                    guard.children.push((rank, child));
                    continue;
                }
                if tolerant {
                    // Dead worker: its socket closed without a report.
                    // Whether that is an eviction or a run failure is
                    // decided below, once the survivors' reports are in.
                    eprintln!("pcoll-comm: tcp rank {rank}: no result from worker: {e}");
                    missing.push(rank as Rank);
                    done += 1;
                    continue;
                }
                panic!("tcp rank {rank}: no result from worker: {e}");
            }
        };
        if let Ok(Value::Arr(down)) = report.field("evicted") {
            for v in down {
                if let Ok(r) = v.as_int() {
                    evicted.insert(r as Rank);
                }
            }
        }
        let ok = matches!(report.field("ok"), Ok(Value::Bool(true)));
        if !ok {
            let msg = report
                .field("panic")
                .ok()
                .and_then(|v| match v {
                    Value::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .unwrap_or_else(|| "worker failed without a message".into());
            panic!("tcp rank {rank} panicked: {msg}");
        }
        let value = report.field("value").expect("result value");
        if results[rank].is_none() {
            done += 1;
        }
        results[rank] = Some(
            T::from_value(value)
                .unwrap_or_else(|e| panic!("tcp rank {rank}: result deserialization failed: {e}")),
        );
    }
    for j in readers {
        let _ = j.join();
    }
    stop.store(true, Ordering::Release);
    let _ = service.join();
    // A silent death only counts as an eviction if a survivor noticed it;
    // a rank nobody declared down means the run itself is broken.
    for &rank in &missing {
        assert!(
            evicted.contains(&rank),
            "tcp rank {rank} died without a report and no survivor declared it down"
        );
    }

    // Phase 4: reap workers. Evicted workers — and the first incarnation
    // of a rank that was relaunched for rejoin — are allowed to die with
    // any status (kill -9 shows up as a signal, not an exit code).
    for (rank, child) in &mut guard.children {
        let status = child.wait().expect("wait tcp worker");
        assert!(
            status.success() || ever_down.contains(rank) || (tolerant && evicted.contains(rank)),
            "tcp worker for rank {rank} exited with {status}"
        );
    }
    guard.children.clear();

    (results, evicted.into_iter().collect())
}

/// Spawn one rank worker (the self-`exec` path). `rejoin` marks the
/// relaunch of a dead rank: the fresh process comes up knowing it must
/// ask the running world for re-admission instead of taking an initial
/// mesh slot.
fn spawn_worker_process(
    exe: &std::path::Path,
    args: &[String],
    rank: Rank,
    cfg: &WorldConfig,
    opts: &TcpOpts,
    parent_addr: &str,
    rejoin: bool,
) -> Child {
    let mut cmd = Command::new(exe);
    cmd.args(args)
        .env(ENV_RANK, rank.to_string())
        .env(ENV_NRANKS, cfg.nranks.to_string())
        .env(ENV_PARENT, parent_addr)
        .env(ENV_LABEL, &opts.label)
        // Trace settings cross the exec boundary as environment:
        // a programmatic `with_trace` reaches every worker.
        .env(pcoll_obs::ENV_TRACE, cfg.trace.level.to_string())
        .env(pcoll_obs::ENV_TRACE_CAP, cfg.trace.capacity.to_string())
        // Children must not re-enter parent (listen) mode or inherit a
        // stale rejoin marker from this process's own environment.
        .env_remove(ENV_LISTEN)
        .stdin(Stdio::null());
    if rejoin {
        cmd.env(ENV_REJOIN, "1");
    } else {
        cmd.env_remove(ENV_REJOIN);
    }
    if !opts.inherit_stdout {
        cmd.stdout(Stdio::null());
    }
    cmd.spawn()
        .unwrap_or_else(|e| panic!("spawn tcp rank worker {rank}: {e}"))
}

/// Spawn the writer/reader thread pair for one mesh connection; returns
/// the writer's command queue plus both join handles.
#[allow(clippy::too_many_arguments)]
fn spawn_peer_threads(
    stream: TcpStream,
    rx: Receiver<PeerCmd>,
    rank: Rank,
    peer: Rank,
    membership: &Arc<Membership>,
    inbox_tx: &Sender<Envelope>,
    stats: &Arc<CommStats>,
    queue_deadline: Duration,
) -> (std::thread::JoinHandle<()>, std::thread::JoinHandle<()>) {
    let read_half = stream.try_clone().expect("clone mesh stream");
    let writer_membership = Arc::clone(membership);
    let writer_inbox = inbox_tx.clone();
    let writer_stats = Arc::clone(stats);
    let w = std::thread::Builder::new()
        .name(format!("pcoll-tcpw-{rank}-{peer}"))
        .spawn(move || {
            writer_loop(
                stream,
                rx,
                peer,
                writer_membership,
                writer_inbox,
                writer_stats,
            )
        })
        .expect("spawn writer");
    let inbox = inbox_tx.clone();
    let reader_stats = Arc::clone(stats);
    let reader_membership = Arc::clone(membership);
    let r = std::thread::Builder::new()
        .name(format!("pcoll-tcpr-{rank}-{peer}"))
        .spawn(move || {
            reader_loop(
                read_half,
                peer,
                inbox,
                reader_stats,
                reader_membership,
                queue_deadline,
            )
        })
        .expect("spawn reader");
    (w, r)
}

/// Mid-run mesh accept loop: the mesh listener outlives initial setup so
/// an evicted-and-relaunched rank can dial back in. Each accepted
/// connection identifies itself with the usual 4-byte rank id and gets a
/// fresh writer/reader pair spliced into its slot, then a heartbeat
/// frame back as the splice acknowledgement the dialer blocks on (see
/// the rejoin branch of `run_worker`). The rank's `Down` mark stays
/// until the app-level admission fence calls [`Membership::readmit`] —
/// sends stay suppressed until the world has actually agreed to take the
/// rank back.
#[allow(clippy::too_many_arguments)]
fn mesh_accept_loop(
    listener: TcpListener,
    rank: Rank,
    nranks: usize,
    peers: Arc<TcpPeers>,
    membership: Arc<Membership>,
    inbox_tx: Sender<Envelope>,
    stats: Arc<CommStats>,
    queue_capacity: usize,
    queue_deadline: Duration,
    stop: Arc<AtomicBool>,
) {
    let _ = listener.set_nonblocking(true);
    let mut spliced = Vec::new();
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((s, _)) => {
                let _ = s.set_nonblocking(false);
                let _ = s.set_nodelay(true);
                // Bound the id read so a wedged dialer cannot stall the
                // accept loop; a healthy rejoiner writes it immediately.
                let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
                let mut id = [0u8; 4];
                if (&s).read_exact(&mut id).is_err() {
                    continue;
                }
                let _ = s.set_read_timeout(None);
                let peer = u32::from_le_bytes(id) as usize;
                if peer >= nranks || peer == rank {
                    eprintln!("pcoll-comm: ignoring stray mesh connection (id {peer})");
                    continue;
                }
                let (tx, rx) = bounded(queue_capacity);
                peers.swap_peer(peer, tx);
                // Acknowledge only now that this rank routes to the new
                // connection, and before the writer thread owns the
                // stream (so the ack cannot interleave with a frame).
                if write_frame(&mut &s, &[FRAME_HEARTBEAT]).is_err() {
                    continue;
                }
                let (w, r) = spawn_peer_threads(
                    s,
                    rx,
                    rank,
                    peer,
                    &membership,
                    &inbox_tx,
                    &stats,
                    queue_deadline,
                );
                spliced.push(w);
                spliced.push(r);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }
    for h in spliced {
        let _ = h.join();
    }
}

fn run_worker<T, F>(cfg: WorldConfig, opts: &TcpOpts, f: F) -> !
where
    T: serde::Serialize,
    F: FnOnce(Communicator) -> T,
{
    let rank: Rank = std::env::var(ENV_RANK)
        .expect("worker rank env")
        .parse()
        .expect("numeric rank");
    let env_nranks: usize = std::env::var(ENV_NRANKS)
        .expect("worker nranks env")
        .parse()
        .expect("numeric nranks");
    assert_eq!(
        env_nranks, cfg.nranks,
        "worker reconstructed a different world size than the parent \
         (launch arguments must be deterministic)"
    );
    let parent_addr = std::env::var(ENV_PARENT).expect("parent addr env");
    let rejoiner = is_tcp_rejoiner();
    let deadline = Instant::now() + opts.timeout;

    // Mesh listener first, so its address rides along in the hello.
    // `PCOLL_TCP_BIND` picks the interface (default: loopback, ephemeral
    // port); `PCOLL_TCP_ADVERTISE` overrides what the *peers* are told
    // to dial — the NAT / multi-NIC split: bind the wildcard interface,
    // advertise the routable name.
    let mesh_bind = std::env::var(ENV_BIND).unwrap_or_else(|_| "127.0.0.1:0".into());
    let mesh_listener = TcpListener::bind(&mesh_bind)
        .unwrap_or_else(|e| panic!("bind mesh listener on {mesh_bind}: {e}"));
    let mesh_port = mesh_listener.local_addr().expect("mesh addr").port();
    let advertise = match std::env::var(ENV_ADVERTISE) {
        // A full host:port with a real port is taken verbatim; a bare
        // host (or host:0) gets the actually-bound port appended.
        Ok(a)
            if a.rsplit_once(':')
                .is_some_and(|(_, p)| p.parse::<u16>().is_ok_and(|p| p != 0)) =>
        {
            a
        }
        Ok(host) => format!("{}:{mesh_port}", host.trim_end_matches(":0")),
        Err(_) => {
            // Derive from the bind address, falling back to loopback for
            // the wildcard interface.
            let host = match mesh_bind.rsplit_once(':') {
                Some((h, _)) if !h.is_empty() && h != "0.0.0.0" && h != "[::]" => h,
                _ => "127.0.0.1",
            };
            format!("{host}:{mesh_port}")
        }
    };

    // Rendezvous dial retries: an externally launched worker may
    // legitimately start before the parent's listener is up.
    let parent = connect_with_retries(
        &parent_addr,
        deadline,
        cfg.seed ^ 0xBEEF ^ rank as u64,
        "connect rendezvous",
    )
    .expect("connect rendezvous");
    parent.set_nodelay(true).expect("nodelay");
    write_json(
        &parent,
        &obj(vec![
            ("rank", Value::Int(rank as i128)),
            ("addr", Value::Str(advertise)),
            ("rejoin", Value::Bool(rejoiner)),
        ]),
    )
    .expect("send hello");
    parent
        .set_read_timeout(Some(remaining(deadline)))
        .expect("set rendezvous timeout");
    let pm = read_json(&parent).expect("address map");
    let pm_seed = pm.field("seed").and_then(Value::as_int).expect("pm.seed") as u64;
    assert_eq!(pm_seed, cfg.seed, "worker/parent seed drift");
    let addrs: Vec<String> = pm
        .field("addrs")
        .and_then(Value::as_arr)
        .expect("pm.addrs")
        .iter()
        .map(|v| match v {
            Value::Str(s) => s.clone(),
            other => panic!("non-string mesh addr {other:?}"),
        })
        .collect();
    assert_eq!(addrs.len(), cfg.nranks, "worker/parent world-size drift");
    let down: BTreeSet<Rank> = match pm.field("down") {
        Ok(Value::Arr(d)) => d
            .iter()
            .filter_map(|v| v.as_int().ok())
            .map(|r| r as Rank)
            .collect(),
        _ => BTreeSet::new(),
    };

    // Pairwise mesh. Initial launch: connect down, accept up; a 4-byte
    // rank id identifies each accepted stream. Rejoin: dial *every*
    // live peer — their mid-run accept threads splice us back in —
    // and accept nobody.
    let mut streams: Vec<Option<TcpStream>> = (0..cfg.nranks).map(|_| None).collect();
    if rejoiner {
        for (peer, peer_addr) in addrs.iter().enumerate() {
            if peer == rank || down.contains(&peer) {
                continue;
            }
            let retry_seed = cfg.seed ^ ((rank as u64) << 32) ^ peer as u64;
            let s = connect_with_retries(peer_addr, deadline, retry_seed, "redial mesh peer")
                .expect("redial mesh peer");
            s.set_nodelay(true).expect("nodelay");
            (&s).write_all(&(rank as u32).to_le_bytes())
                .expect("send mesh id");
            streams[peer] = Some(s);
        }
        // `connect` returns once the peer's *kernel* has queued the
        // connection; its accept thread splices it in some milliseconds
        // later. Until then the peer still routes to the dead
        // incarnation's writer, and a message sent there is lost without
        // a trace (the write into the dead socket's buffer succeeds). So
        // wait for every peer's splice acknowledgement before this rank
        // can announce itself ready: readiness then implies every
        // survivor's first message reaches the new connection.
        for s in streams.iter().flatten() {
            s.set_read_timeout(Some(remaining(deadline)))
                .expect("set splice-ack timeout");
            let ack = read_frame(&mut &*s).expect("mesh splice ack");
            assert_eq!(
                ack.as_deref(),
                Some(&[FRAME_HEARTBEAT][..]),
                "mesh peer closed before acknowledging the splice"
            );
            s.set_read_timeout(None).expect("clear splice-ack timeout");
        }
    } else {
        for (peer, peer_addr) in addrs.iter().enumerate().take(rank) {
            let retry_seed = cfg.seed ^ ((rank as u64) << 32) ^ peer as u64;
            let s = connect_with_retries(peer_addr, deadline, retry_seed, "connect mesh peer")
                .expect("connect mesh peer");
            s.set_nodelay(true).expect("nodelay");
            (&s).write_all(&(rank as u32).to_le_bytes())
                .expect("send mesh id");
            streams[peer] = Some(s);
        }
        for _ in rank + 1..cfg.nranks {
            let s = accept_with_deadline(&mesh_listener, deadline, "mesh peer", &mut || Ok(()))
                .expect("mesh accept");
            let mut id = [0u8; 4];
            (&s).read_exact(&mut id).expect("read mesh id");
            let peer = u32::from_le_bytes(id) as usize;
            assert!(
                peer > rank && peer < cfg.nranks && streams[peer].is_none(),
                "bad mesh id {peer}"
            );
            streams[peer] = Some(s);
        }
    }

    // Socket threads + routing. All queues are bounded: the writer
    // queues exert backpressure on senders, the inbox backpressures the
    // socket readers (and transitively the remote writers).
    //
    // The worker's flight recorder comes from the environment the parent
    // process passed down (`WorldConfig::trace` does not cross the exec
    // boundary). Each process has its own wall-clock epoch, so TCP trace
    // timestamps are comparable within a rank but not across ranks.
    let recorder =
        pcoll_obs::TraceConfig::from_env().recorder(rank as u32, pcoll_obs::Clock::wall());
    let stats = Arc::new(CommStats::with_recorder(recorder));
    let membership = Arc::new(Membership::with_grace(
        rank,
        cfg.nranks,
        pcoll_obs::Clock::wall(),
        cfg.suspicion_grace(),
    ));
    // A rejoiner starts life already knowing who is gone.
    for &d in &down {
        if d != rank {
            membership.report_down(d);
        }
    }
    let (inbox_tx, inbox_rx) = bounded(cfg.queue_capacity);
    let peers = Arc::new(TcpPeers {
        rank,
        txs: (0..cfg.nranks).map(|_| Mutex::new(None)).collect(),
        local: inbox_tx.clone(),
        membership: Arc::clone(&membership),
    });
    let mut writers = Vec::new();
    let mut readers = Vec::new();
    for (peer, slot) in streams.into_iter().enumerate() {
        let Some(stream) = slot else { continue };
        let (tx, rx) = bounded(cfg.queue_capacity);
        let (w, r) = spawn_peer_threads(
            stream,
            rx,
            rank,
            peer,
            &membership,
            &inbox_tx,
            &stats,
            cfg.queue_deadline,
        );
        peers.swap_peer(peer, tx);
        writers.push(w);
        readers.push(r);
    }
    // The mesh listener stays alive for the whole run so a relaunched
    // rank can dial back in (see `mesh_accept_loop`).
    let accept_stop = Arc::new(AtomicBool::new(false));
    let accept_thread = {
        let peers2 = Arc::clone(&peers);
        let membership2 = Arc::clone(&membership);
        let inbox2 = inbox_tx.clone();
        let stats2 = Arc::clone(&stats);
        let stop2 = Arc::clone(&accept_stop);
        let (capacity, q_deadline, nranks) = (cfg.queue_capacity, cfg.queue_deadline, cfg.nranks);
        std::thread::Builder::new()
            .name(format!("pcoll-tcpa-{rank}"))
            .spawn(move || {
                mesh_accept_loop(
                    mesh_listener,
                    rank,
                    nranks,
                    peers2,
                    membership2,
                    inbox2,
                    stats2,
                    capacity,
                    q_deadline,
                    stop2,
                )
            })
            .expect("spawn mesh accept thread")
    };
    let route = Route::Tcp(Arc::clone(&peers));

    // The rendezvous connection doubles as the blackboard link; the app
    // gets a cloneable client and the final report goes over the same
    // (lock-serialized) stream.
    let rendezvous = RendezvousClient {
        link: Arc::new(Mutex::new(parent)),
    };
    let comm = Communicator {
        handle: CommHandle {
            rank,
            size: cfg.nranks,
            seed: cfg.seed,
            route,
            stats: Arc::clone(&stats),
            queue_deadline: cfg.queue_deadline,
            membership: Arc::clone(&membership),
        },
        inbox: Inbox { rx: inbox_rx },
        // One rank per process: the host barrier (thread-scaffolding, not
        // a modeled collective) degenerates to a no-op. Cross-rank
        // alignment over TCP must use the message-based `RankCtx::barrier`.
        host_barrier: Arc::new(Barrier::new(1)),
        rendezvous: Some(rendezvous.clone()),
    };

    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || f(comm)));

    // Teardown: flush + goodbye every connection, then report. Reader
    // joins come last — they return when the peers goodbye in their own
    // teardown.
    for peer in 0..cfg.nranks {
        // `Finish` must queue behind all prior deliveries — but never
        // behind a corpse: draining toward a dead peer is skipped
        // outright, and a full queue gets a *bounded* wait (not the full
        // backpressure deadline) before the skip is recorded and teardown
        // moves on. A writer wedged past that is the parent watchdog's
        // problem, not a reason to hang every healthy goodbye. The
        // *current* slot contents matter: a peer that died and rejoined
        // drains through its spliced-in writer, not the dead original.
        if peer == rank {
            continue;
        }
        if membership.is_down(peer) {
            stats.drain_skips.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        let Some(tx) = peers.peer_tx(peer) else {
            continue;
        };
        let wait = GOODBYE_DRAIN_WAIT.min(cfg.queue_deadline);
        if matches!(
            tx.send_timeout(PeerCmd::Finish, wait),
            Err(SendTimeoutError::Timeout(_))
        ) {
            stats.drain_skips.fetch_add(1, Ordering::Relaxed);
        }
    }
    accept_stop.store(true, Ordering::Release);
    for w in writers {
        let _ = w.join();
    }

    // Every report carries the ranks this worker locally declared dead,
    // so a tolerant parent can tell "worker evicted" from "run failed".
    let down_list = Value::Arr(
        membership
            .down()
            .into_iter()
            .map(|r| Value::Int(r as i128))
            .collect(),
    );
    let (report, code) = match &result {
        Ok(v) => (
            obj(vec![
                ("ok", Value::Bool(true)),
                ("value", v.to_value()),
                ("evicted", down_list),
            ]),
            0,
        ),
        Err(e) => {
            let msg = e
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_else(|| "non-string panic payload".into());
            (
                obj(vec![
                    ("ok", Value::Bool(false)),
                    ("panic", Value::Str(msg)),
                    ("evicted", down_list),
                ]),
                101,
            )
        }
    };
    {
        let stream = rendezvous.link.lock().expect("rendezvous link");
        let _ = write_json(&stream, &report);
    }

    for r in readers {
        let _ = r.join();
    }
    // The accept thread joins any spliced-in connection threads before
    // returning (their peers goodbye in their own teardown, like the
    // original mesh readers above).
    let _ = accept_thread.join();
    drop(rendezvous);
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::{Payload, TypedBuf};

    fn data_msg(src: Rank, payload: Option<TypedBuf>) -> Message {
        Message {
            src,
            tag: WireTag::new(CollId(7), 3, 11),
            payload: payload.map(Payload::new),
        }
    }

    fn round_trip(msg: &Message) -> Message {
        let body = encode_data(msg);
        match decode_frame(&body).unwrap() {
            WireFrame::Data(m) => m,
            other => panic!("expected data frame, got {other:?}"),
        }
    }

    #[test]
    fn codec_round_trips_every_dtype() {
        for payload in [
            Some(TypedBuf::from(vec![1.5f32, -2.25, 0.0])),
            Some(TypedBuf::from(vec![std::f64::consts::E; 9])),
            Some(TypedBuf::from(vec![i32::MIN, i32::MAX])),
            Some(TypedBuf::from(vec![-1i64, 1 << 60])),
        ] {
            let msg = data_msg(5, payload.clone());
            let back = round_trip(&msg);
            assert_eq!(back.src, 5);
            assert_eq!(back.tag, msg.tag);
            assert_eq!(back.payload.map(Payload::into_buf), payload);
        }
    }

    #[test]
    fn codec_round_trips_control_and_empty_payloads() {
        let ctl = round_trip(&data_msg(0, None));
        assert!(ctl.payload.is_none());
        let empty = round_trip(&data_msg(1, Some(TypedBuf::zeros(DType::F64, 0))));
        assert_eq!(empty.payload.unwrap().len(), 0);
    }

    #[test]
    fn codec_round_trips_multi_mib_payload() {
        let n = (4 << 20) / 4; // 4 MiB of f32
        let big: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
        let msg = data_msg(2, Some(TypedBuf::from(big.clone())));
        let back = round_trip(&msg);
        assert_eq!(back.payload.unwrap().into_buf().as_f32().unwrap(), &big[..]);
    }

    #[test]
    fn control_frames_decode() {
        assert!(matches!(
            decode_frame(&[FRAME_SHUTDOWN]).unwrap(),
            WireFrame::Shutdown
        ));
        assert!(matches!(
            decode_frame(&[FRAME_GOODBYE]).unwrap(),
            WireFrame::Goodbye
        ));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_frame(&[]).is_err());
        assert!(decode_frame(&[99]).is_err());
        let mut body = encode_data(&data_msg(0, Some(TypedBuf::from(vec![1.0f32; 8]))));
        body.truncate(body.len() - 3); // ragged payload
        assert!(decode_frame(&body).is_err());
        body.push(0); // trailing byte after truncation boundary shift
        assert!(decode_frame(&body).is_err());
    }

    #[test]
    fn frames_round_trip_through_a_stream() {
        let bodies: Vec<Vec<u8>> = vec![
            encode_data(&data_msg(1, Some(TypedBuf::from(vec![9i64; 4])))),
            vec![FRAME_SHUTDOWN],
            // Bigger than one write chunk, to exercise chunked writes.
            encode_data(&data_msg(
                3,
                Some(TypedBuf::from(vec![0.5f32; WRITE_CHUNK / 2])),
            )),
            vec![FRAME_GOODBYE],
        ];
        let mut wire = Vec::new();
        for b in &bodies {
            write_frame(&mut wire, b).unwrap();
        }
        let mut r = &wire[..];
        for b in &bodies {
            assert_eq!(read_frame(&mut r).unwrap().unwrap(), *b);
        }
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    /// Full self-exec round trip: 3 rank processes pass a token around a
    /// ring over loopback. The worker re-runs exactly this test via
    /// `--exact` and exits inside `launch_tcp`.
    #[test]
    fn tcp_ring_pass_end_to_end() {
        let cfg = WorldConfig::instant(3).with_seed(5);
        let opts = TcpOpts::labeled("comm-ring").with_child_args(vec![
            "transport::tests::tcp_ring_pass_end_to_end".into(),
            "--exact".into(),
        ]);
        let out = launch_tcp(cfg, opts, |c| {
            let next = (c.rank() + 1) % c.size();
            c.send(
                next,
                WireTag::new(CollId(9), 0, 0),
                Some(TypedBuf::from(vec![c.rank() as i64])),
            );
            match c.inbox().recv() {
                Some(Envelope::Data(m)) => m.payload.unwrap().into_buf().as_i64().unwrap()[0],
                other => panic!("expected data, got {other:?}"),
            }
        });
        // Only the parent gets here (matching workers exit inside).
        assert_eq!(out.expect("parent results"), vec![2, 0, 1]);
    }

    /// A worker's panic must surface in the parent with its message.
    #[test]
    fn tcp_worker_panic_propagates() {
        let opts = TcpOpts::labeled("comm-panic").with_child_args(vec![
            "transport::tests::tcp_worker_panic_propagates".into(),
            "--exact".into(),
        ]);
        let result = std::panic::catch_unwind(|| {
            launch_tcp::<u32, _>(WorldConfig::instant(2), opts, |c| {
                if c.rank() == 1 {
                    panic!("boom from rank 1");
                }
                c.rank() as u32
            })
        });
        if is_tcp_worker() {
            // Rank 0's worker: its launch call returned through
            // catch_unwind only if it was the panicking rank (which
            // exits) — unreachable either way.
            unreachable!("workers exit inside launch_tcp");
        }
        let err = result.expect_err("parent must observe the worker panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("boom from rank 1"),
            "panic message lost: {msg}"
        );
    }

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
