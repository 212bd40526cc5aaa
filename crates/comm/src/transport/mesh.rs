//! The pairwise mesh: one duplex connection per rank pair, each behind a
//! bounded writer queue and a writer/reader thread pair, made the same
//! way for the initial mesh and a rejoiner ([`TcpPeers::dial`] on one
//! end, [`accept_loop`] on the other).

use super::codec::{
    decode_frame, encode_data_into, read_frame, read_frame_into, write_frame, WireFrame, FRAME_ACK,
    FRAME_GOODBYE, FRAME_SHUTDOWN, WRITE_CHUNK,
};
use super::{bounded_send, connect_with_retries, remaining, HANDSHAKE_TIMEOUT};
use crate::membership::Membership;
use crate::stats::CommStats;
use crate::tag::Rank;
use crate::world::Envelope;
use crossbeam::channel::{bounded, Receiver, Sender};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The writer and reader threads of one installed connection.
pub(super) type PeerThreads = (JoinHandle<()>, JoinHandle<()>);

/// Per-peer outbound queues plus the local inbox (self-sends short-circuit
/// the sockets; a rank is always FIFO with itself). Each slot is
/// lock-wrapped so a mid-run mesh reconnect — a rejoining rank dialing
/// back in — can splice a fresh writer in place of the dead one; the
/// steady-state cost is one uncontended lock plus a sender refcount bump
/// per remote send, and no allocation. Also what installing a connection
/// needs — the rank's membership view, counters and queue bounds — and
/// the threads of every connection installed so far.
pub(crate) struct TcpPeers {
    rank: Rank,
    txs: Vec<Mutex<Option<Sender<PeerCmd>>>>,
    local: Sender<Envelope>,
    membership: Arc<Membership>,
    stats: Arc<CommStats>,
    queue_capacity: usize,
    queue_deadline: Duration,
    links: Mutex<Vec<PeerThreads>>,
}

impl TcpPeers {
    /// A mesh for `membership`'s rank with no connection installed yet.
    pub(super) fn new(
        local: Sender<Envelope>,
        membership: Arc<Membership>,
        stats: Arc<CommStats>,
        queue_capacity: usize,
        queue_deadline: Duration,
    ) -> Arc<TcpPeers> {
        Arc::new(TcpPeers {
            rank: membership.rank(),
            txs: (0..membership.size()).map(|_| Mutex::new(None)).collect(),
            local,
            membership,
            stats,
            queue_capacity,
            queue_deadline,
            links: Mutex::new(Vec::new()),
        })
    }

    /// This rank's own inbox (local control and self-sends).
    pub(super) fn local(&self) -> &Sender<Envelope> {
        &self.local
    }

    pub(super) fn deliver(&self, dst: Rank, env: Envelope, stats: &CommStats, deadline: Duration) {
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
        } else {
            // No connection to a live peer: counted, never silent.
            stats.dropped_closed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Put `tx` in `peer`'s slot, returning what was there.
    fn swap_peer(&self, peer: Rank, tx: Option<Sender<PeerCmd>>) -> Option<Sender<PeerCmd>> {
        std::mem::replace(&mut *self.txs[peer].lock().expect("peer slot"), tx)
    }

    /// The current writer queue for `peer`, if any.
    pub(super) fn peer_tx(&self, peer: Rank) -> Option<Sender<PeerCmd>> {
        self.txs[peer].lock().expect("peer slot").clone()
    }

    /// The threads of every connection installed so far, for teardown.
    /// Closes every route first: a writer ends only when its queue
    /// closes (or its socket fails), so joining one whose queue is still
    /// open — a dead peer's, which teardown sends no `Finish` — would
    /// hang.
    pub(super) fn take_links(&self) -> Vec<PeerThreads> {
        for peer in 0..self.txs.len() {
            self.swap_peer(peer, None);
        }
        std::mem::take(&mut *self.links.lock().expect("mesh links"))
    }

    /// Route `peer` to `stream` and start the connection's writer and
    /// reader. The accepting end (`ack`) acknowledges in between: after
    /// the swap, so the acknowledgement implies this rank routes to the
    /// new connection, and before the writer owns the stream, so it
    /// cannot interleave with a frame. A failed acknowledgement puts the
    /// previous route back.
    fn install(&self, peer: Rank, stream: TcpStream, ack: bool) -> std::io::Result<()> {
        let read_half = stream.try_clone()?;
        let (tx, rx) = bounded(self.queue_capacity);
        let previous = self.swap_peer(peer, Some(tx));
        if ack {
            if let Err(e) = write_frame(&mut &stream, &[FRAME_ACK]) {
                self.swap_peer(peer, previous);
                return Err(e);
            }
        }
        let shared = || {
            let (m, s) = (Arc::clone(&self.membership), Arc::clone(&self.stats));
            (m, self.local.clone(), s)
        };
        let (membership, inbox, stats) = shared();
        let w = std::thread::Builder::new()
            .name(format!("pcoll-tcpw-{}-{peer}", self.rank))
            .spawn(move || writer_loop(stream, rx, peer, membership, inbox, stats))
            .expect("spawn writer");
        let ((membership, inbox, stats), deadline) = (shared(), self.queue_deadline);
        let r = std::thread::Builder::new()
            .name(format!("pcoll-tcpr-{}-{peer}", self.rank))
            .spawn(move || reader_loop(read_half, peer, inbox, stats, membership, deadline))
            .expect("spawn reader");
        self.links.lock().expect("mesh links").push((w, r));
        Ok(())
    }

    /// Install an accepted connection: read the dialer's rank id
    /// (bounded, so a silent dialer cannot stall the accept loop),
    /// validate it, and acknowledge. The peer's `Down` mark, if any,
    /// stays until the admission fence calls [`Membership::readmit`], so
    /// a rejoiner's connection carries nothing until the world has agreed
    /// to take it back.
    fn accept(&self, s: TcpStream) -> std::io::Result<()> {
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
        let mut id = [0u8; 4];
        (&s).read_exact(&mut id)?;
        s.set_read_timeout(None)?;
        let peer = u32::from_le_bytes(id) as usize;
        if peer >= self.txs.len() || peer == self.rank {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("stray mesh id {peer}"),
            ));
        }
        self.install(peer, s, true)
    }

    /// Dial `peer` at `addr` (retrying until `deadline`), identify as this
    /// rank, and wait for the acknowledgement before installing the
    /// connection here — so once this returns, both ends route to it. A
    /// newborn rank dials the ranks below it, a rejoiner every live peer.
    /// Any failure declares the peer down.
    pub(super) fn dial(&self, peer: Rank, addr: &str, deadline: Instant, seed: u64) {
        let link = || -> std::io::Result<()> {
            let s = connect_with_retries(addr, deadline, seed, "dial mesh peer")?;
            s.set_nodelay(true)?;
            (&s).write_all(&(self.rank as u32).to_le_bytes())?;
            s.set_read_timeout(Some(remaining(deadline)))?;
            if read_frame(&mut &s)?.as_deref() != Some(&[FRAME_ACK][..]) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "peer closed or answered without acknowledging the splice",
                ));
            }
            s.set_read_timeout(None)?;
            self.install(peer, s, false)
        };
        if let Err(e) = link() {
            eprintln!(
                "pcoll-comm: rank {} cannot reach rank {peer}: {e}",
                self.rank
            );
            declare_peer_down(peer, &self.membership, &self.local, &self.stats);
        }
    }

    /// Block until every peer not known down has a connection installed,
    /// or until `deadline`; a peer still missing then never connected,
    /// and is declared down.
    pub(super) fn await_mesh(&self, deadline: Instant) {
        let missing = |peer: &Rank| {
            *peer != self.rank && !self.membership.is_down(*peer) && self.peer_tx(*peer).is_none()
        };
        let all = 0..self.txs.len();
        while all.clone().any(|p| missing(&p)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        for peer in all.filter(missing) {
            eprintln!("pcoll-comm: rank {peer} never linked to rank {}", self.rank);
            declare_peer_down(peer, &self.membership, &self.local, &self.stats);
        }
    }
}

pub(super) enum PeerCmd {
    Deliver(Envelope),
    /// Flush, send `GOODBYE`, half-close. Queued behind all prior
    /// deliveries on the same channel, so it cannot overtake them.
    Finish,
}

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
    // One scratch buffer for the writer's lifetime, which is the
    // connection's: every frame encodes into it, so once it has grown to
    // the largest frame the steady state allocates nothing per message.
    let mut scratch = Vec::new();
    let write_env = |w: &mut BufWriter<TcpStream>, scratch: &mut Vec<u8>, env: Envelope| -> bool {
        let body: &[u8] = match env {
            Envelope::Data(msg) => {
                encode_data_into(&msg, scratch);
                scratch
            }
            Envelope::Shutdown => &[FRAME_SHUTDOWN],
            // Never crosses the wire: liveness verdicts and activations
            // are local control.
            Envelope::PeerDown { .. } | Envelope::PeerUp { .. } | Envelope::Activate { .. } => {
                return true
            }
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
        let Ok(mut cmd) = rx.recv() else {
            break 'outer; // queue closed: orderly finish
        };
        // Drain the queue before flushing so bursts coalesce into one
        // syscall batch, then flush when idle to bound latency.
        loop {
            match cmd {
                PeerCmd::Deliver(env) => {
                    if !write_env(&mut w, &mut scratch, env) {
                        declare_peer_down(peer, &membership, &inbox, &stats);
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
            return;
        }
    }
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
    // One scratch buffer for the reader's lifetime: every frame body
    // lands in it, so the steady state allocates only the decoded payload.
    let mut body = Vec::new();
    // Did the peer end the connection with an orderly GOODBYE? Anything
    // else — EOF mid-stream, a reset, a corrupt frame — is a death.
    let mut orderly = false;
    loop {
        match read_frame_into(&mut r, &mut body) {
            Ok(true) => match decode_frame(&body) {
                Ok(WireFrame::Data(msg)) => {
                    // Receive accounting happens at *consumption* (the
                    // matcher / the engine's envelope intake), uniformly
                    // across transports — counting here too would tally
                    // TCP receives twice.
                    bounded_send(&inbox, Envelope::Data(msg), &stats, deadline, "local inbox");
                }
                Ok(WireFrame::Shutdown) => {
                    bounded_send(&inbox, Envelope::Shutdown, &stats, deadline, "local inbox");
                }
                // The handshake consumed the one ack a connection
                // carries; a late one delivers nothing.
                Ok(WireFrame::Ack) => {}
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
}

/// The rank's one accept path, for the initial mesh and a rejoiner
/// alike: every connection on the mesh listener goes through
/// [`TcpPeers::accept`], and one that fails any step is dropped with a
/// log line. Runs from before this rank dials anyone until teardown
/// raises `stop` (see `stop_accepting`).
pub(super) fn accept_loop(listener: TcpListener, peers: Arc<TcpPeers>, stop: Arc<AtomicBool>) {
    loop {
        let conn = listener.accept();
        if stop.load(Ordering::Acquire) {
            return;
        }
        match conn {
            Ok((s, from)) => {
                if let Err(e) = peers.accept(s) {
                    eprintln!("pcoll-comm: dropping mesh connection from {from}: {e}");
                }
            }
            Err(e) => {
                eprintln!("pcoll-comm: mesh listener failed, no more connections: {e}");
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::codec::{encode_data, MAX_FRAME};
    use super::super::stop_accepting;
    use super::*;
    use crate::tag::{CollId, Message, WireTag};
    use crate::{Payload, TypedBuf};
    use std::thread::JoinHandle;

    /// A loopback connection: `(near, far)`.
    fn loopback() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let far = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let near = listener.incoming().next().unwrap().unwrap();
        (near, far)
    }

    fn framed(body: &[u8]) -> Vec<u8> {
        let mut w = Vec::new();
        write_frame(&mut w, body).unwrap();
        w
    }

    /// Rank 0's reader for peer 1 on a real socket, the far end a raw
    /// stream that sends `bytes` (then hangs up if `hang_up`): the victim
    /// delivers exactly one `PeerDown`, marks the peer down and its reader
    /// thread exits.
    fn assert_marked_down(what: &str, bytes: &[u8], hang_up: bool) {
        let (near, mut far) = loopback();
        let membership = Arc::new(Membership::new(0, 2));
        let (inbox, rx) = bounded(16);
        let stats = Arc::new(CommStats::default());
        let m = Arc::clone(&membership);
        let reader: JoinHandle<()> = std::thread::spawn(move || {
            reader_loop(near, 1, inbox, stats, m, Duration::from_secs(5))
        });
        far.write_all(bytes).unwrap();
        if hang_up {
            drop(far);
            reader.join().expect(what);
        } else {
            reader.join().expect(what);
            drop(far);
        }
        assert!(
            matches!(rx.try_recv(), Ok(Envelope::PeerDown { peer: 1 })),
            "{what}"
        );
        assert!(rx.try_recv().is_err(), "{what}: exactly one verdict");
        assert!(membership.is_down(1), "{what}");
    }

    #[test]
    fn a_misbehaving_peer_is_marked_down_never_a_panic() {
        let data = encode_data(&Message {
            src: 1,
            tag: WireTag::new(CollId(3), 1, 0),
            payload: Some(Payload::new(TypedBuf::from(vec![1.0f32; 8]))),
        });
        // kind, src, coll, round, sem: the dtype code is byte 21.
        let mut bad_dtype = data.clone();
        bad_dtype[21] = 9;
        let over = (MAX_FRAME as u32 + 1).to_le_bytes();
        assert_marked_down("truncated frame then EOF", &framed(&data)[..10], true);
        assert_marked_down("header over MAX_FRAME", &over, false);
        assert_marked_down("unknown frame kind", &framed(&[99]), false);
        assert_marked_down("bad dtype code", &framed(&bad_dtype), false);
        assert_marked_down("ragged payload", &framed(&data[..data.len() - 3]), false);
    }

    #[test]
    fn a_dead_peers_writer_joins_once_teardown_closes_its_route() {
        // Peer 1's process dies: its end of the connection closes, rank
        // 0's reader marks it down, and teardown sends it no `Finish`.
        // The writer still sits on an open, idle queue; closing the
        // route, as teardown's `take_links` does, must end it.
        let (near, far) = loopback();
        let (inbox, rx) = bounded(16);
        let membership = Arc::new(Membership::new(0, 2));
        let stats = Arc::new(CommStats::default());
        let peers = TcpPeers::new(
            inbox,
            Arc::clone(&membership),
            stats,
            16,
            Duration::from_secs(5),
        );
        peers.install(1, near, false).unwrap();
        drop(far);
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(5)),
            Ok(Envelope::PeerDown { peer: 1 })
        ));
        assert!(membership.is_down(1));
        let (joined, done) = bounded(2);
        for (w, r) in peers.take_links() {
            let joined = joined.clone();
            std::thread::spawn(move || {
                w.join().unwrap();
                r.join().unwrap();
                joined.send(()).unwrap();
            });
        }
        done.recv_timeout(Duration::from_secs(5))
            .expect("the dead peer's writer and reader join once the route is closed");
        assert!(peers.peer_tx(1).is_none(), "teardown closes every route");
    }

    #[test]
    fn the_accept_path_drops_strays_and_installs_the_next_valid_dial() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (inbox, _rx) = bounded(16);
        let membership = Arc::new(Membership::new(0, 3));
        let stats = Arc::new(CommStats::default());
        let peers = TcpPeers::new(inbox, membership, stats, 16, Duration::from_secs(5));
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let (peers, stop) = (Arc::clone(&peers), Arc::clone(&stop));
            std::thread::spawn(move || accept_loop(listener, peers, stop))
        };
        let dial = |id: Option<u32>| {
            let s = TcpStream::connect(addr).unwrap();
            if let Some(id) = id {
                (&s).write_all(&id.to_le_bytes()).unwrap();
            }
            s
        };
        // A silent dialer, an id ≥ P and the victim's own id: each closed
        // without an acknowledgement.
        for stray in [None, Some(3), Some(0)] {
            let s = dial(stray);
            assert!(!matches!(read_frame(&mut &s), Ok(Some(_))), "{stray:?}");
        }
        let good = dial(Some(2));
        assert_eq!(
            read_frame(&mut &good).unwrap().as_deref(),
            Some(&[FRAME_ACK][..])
        );
        assert!(peers.peer_tx(2).is_some() && peers.peer_tx(1).is_none());

        stop_accepting(&stop, addr);
        acceptor.join().unwrap();
        peers.peer_tx(2).unwrap().send(PeerCmd::Finish).unwrap();
        drop(good);
        for (w, r) in peers.take_links() {
            w.join().unwrap();
            r.join().unwrap();
        }
    }
}
