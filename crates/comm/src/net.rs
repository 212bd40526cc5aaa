//! Network latency model and the delivery thread.
//!
//! Messages optionally pass through a "network" thread that holds them
//! until their modeled delivery time: `alpha + wire_bytes * beta +
//! jitter`. Delivery preserves FIFO per (src, dst) pair — the MPI
//! non-overtaking rule — by clamping each message's delivery time to be no
//! earlier than the previous message on the same pair.
//!
//! Delivery is transport-agnostic: due messages are released through a
//! `Route`, which is either the in-process mailbox table or the TCP
//! backend's per-peer socket writers (see `transport`). Under the
//! in-process backend one shared thread shapes all traffic; under TCP
//! each rank process runs its own sender-side shaper, which preserves the
//! same per-pair ordering guarantee because a pair's messages all pass
//! through the source rank's thread and then one ordered connection.
//!
//! With [`NetworkModel::Instant`] the delivery thread is bypassed entirely
//! and senders push straight into the route (lowest overhead; the default
//! for unit tests).

use crate::stats::CommStats;
use crate::tag::{Message, Rank};
use crate::transport::{bounded_send, Route};
use crate::world::Envelope;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Latency model applied to every message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetworkModel {
    /// Zero modeled latency; direct handoff to the destination mailbox.
    Instant,
    /// First-order alpha-beta (LogP-flavoured) model with uniform jitter.
    AlphaBeta {
        /// Per-message base latency.
        alpha: Duration,
        /// Transfer cost in nanoseconds per wire byte (1/bandwidth).
        beta_ns_per_byte: f64,
        /// Uniform random extra delay in `[0, jitter]` (system noise, §1).
        jitter: Duration,
    },
}

impl NetworkModel {
    /// An HPC-interconnect-flavoured model (µs-scale alpha, ~10 GiB/s).
    pub fn hpc() -> Self {
        NetworkModel::AlphaBeta {
            alpha: Duration::from_micros(25),
            beta_ns_per_byte: 0.1,
            jitter: Duration::from_micros(5),
        }
    }

    /// A cloud-Ethernet-flavoured model (higher alpha, ~1 GiB/s, jittery).
    pub fn cloud() -> Self {
        NetworkModel::AlphaBeta {
            alpha: Duration::from_micros(150),
            beta_ns_per_byte: 1.0,
            jitter: Duration::from_micros(100),
        }
    }

    /// Latency charged to a message of `bytes` wire bytes, excluding jitter.
    pub fn base_latency(&self, bytes: usize) -> Duration {
        match self {
            NetworkModel::Instant => Duration::ZERO,
            NetworkModel::AlphaBeta {
                alpha,
                beta_ns_per_byte,
                ..
            } => *alpha + Duration::from_nanos((bytes as f64 * beta_ns_per_byte) as u64),
        }
    }

    fn jitter(&self) -> Duration {
        match self {
            NetworkModel::Instant => Duration::ZERO,
            NetworkModel::AlphaBeta { jitter, .. } => *jitter,
        }
    }
}

/// A message in flight, ordered by delivery deadline (then by sequence
/// number so the heap is a stable queue).
struct InFlight {
    due: Instant,
    seq: u64,
    dst: Rank,
    msg: Message,
    /// When the shaper accepted the message — `due - sent` is the full
    /// modeled hold (latency plus any non-overtaking clamp), reported in
    /// the shaper's `NetRelease` trace events.
    sent: Instant,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

pub(crate) enum NetCmd {
    Send { dst: Rank, msg: Message },
    Shutdown,
}

/// Runs the delivery loop: accept sends, hold them until due, release
/// through the route. A deterministic xorshift PRNG provides jitter
/// (avoids pulling `rand` into the lowest layer).
///
/// On [`NetCmd::Shutdown`] (or sender disconnect) every still-held message
/// is released immediately — teardown drains in-flight traffic rather than
/// dropping it, which is what lets a finishing rank's last sends reach
/// slower peers (the orderly-shutdown contract the TCP backend's goodbye
/// handshake builds on).
pub(crate) fn delivery_loop(
    model: NetworkModel,
    rx: Receiver<NetCmd>,
    route: Route,
    seed: u64,
    stats: Arc<CommStats>,
    queue_deadline: Duration,
) {
    let mut heap: BinaryHeap<Reverse<InFlight>> = BinaryHeap::new();
    let mut seq: u64 = 0;
    // Last scheduled delivery per (src, dst) to enforce non-overtaking.
    let mut last_due: HashMap<(Rank, Rank), Instant> = HashMap::new();
    let mut rng_state = seed | 1;
    let mut next_jitter = |max: Duration| -> Duration {
        // xorshift64*
        rng_state ^= rng_state >> 12;
        rng_state ^= rng_state << 25;
        rng_state ^= rng_state >> 27;
        let r = rng_state.wrapping_mul(0x2545F4914F6CDD1D);
        let nanos = max.as_nanos() as u64;
        if nanos == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos(r % nanos)
        }
    };

    // Drain the heap in due-order (which is also per-pair FIFO order),
    // *honoring* each message's modeled delivery time — used at teardown.
    // Sleeping out the residual delay keeps the two transports
    // comparable: a TCP rank that finishes early must not release its
    // shaped messages ahead of schedule, or peers would see them sooner
    // than the same seeded run delivers them in-process. The wait is
    // bounded by the model's alpha + jitter.
    let flush = |heap: &mut BinaryHeap<Reverse<InFlight>>| {
        let mut rest: Vec<InFlight> = heap.drain().map(|Reverse(f)| f).collect();
        rest.sort_by_key(|f| (f.due, f.seq));
        for inflight in rest {
            let wait = inflight.due.saturating_duration_since(Instant::now());
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
            stats.recorder().record(pcoll_obs::LEVEL_VERBOSE, || {
                pcoll_obs::EventKind::NetRelease {
                    dst: inflight.dst as u32,
                    delay_ns: inflight.due.duration_since(inflight.sent).as_nanos() as u64,
                }
            });
            route.deliver(
                inflight.dst,
                Envelope::Data(inflight.msg),
                &stats,
                queue_deadline,
            );
        }
    };

    loop {
        // Release everything that is due.
        let now = Instant::now();
        while let Some(Reverse(top)) = heap.peek() {
            if top.due > now {
                break;
            }
            let Reverse(inflight) = heap.pop().expect("peeked");
            // A closed route means the rank already finished; the message
            // is dropped, as a real network drops packets to dead hosts.
            // A *full* route blocks here — the shaper is the backpressure
            // relay between a fast sender and a slow destination queue.
            stats.recorder().record(pcoll_obs::LEVEL_VERBOSE, || {
                pcoll_obs::EventKind::NetRelease {
                    dst: inflight.dst as u32,
                    delay_ns: inflight.due.duration_since(inflight.sent).as_nanos() as u64,
                }
            });
            route.deliver(
                inflight.dst,
                Envelope::Data(inflight.msg),
                &stats,
                queue_deadline,
            );
        }

        // Wait for new work until the next deadline (or indefinitely).
        let cmd = match heap.peek() {
            Some(Reverse(top)) => {
                let timeout = top.due.saturating_duration_since(Instant::now());
                match rx.recv_timeout(timeout) {
                    Ok(c) => Some(c),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => return flush(&mut heap),
                }
            }
            None => match rx.recv() {
                Ok(c) => Some(c),
                Err(_) => return,
            },
        };

        match cmd {
            Some(NetCmd::Send { dst, msg }) => {
                let latency = model.base_latency(msg.wire_bytes()) + next_jitter(model.jitter());
                let sent = Instant::now();
                let mut due = sent + latency;
                let key = (msg.src, dst);
                if let Some(prev) = last_due.get(&key) {
                    if *prev > due {
                        due = *prev;
                    }
                }
                last_due.insert(key, due);
                heap.push(Reverse(InFlight {
                    due,
                    seq,
                    dst,
                    msg,
                    sent,
                }));
                seq += 1;
            }
            Some(NetCmd::Shutdown) => return flush(&mut heap),
            None => {} // timeout: loop back and release due messages
        }
    }
}

/// Handle for pushing messages into the delivery thread. The shaper's
/// inbox is itself a bounded queue: senders that outrun it block, so
/// backpressure propagates through the modeled network rather than
/// pooling behind it.
#[derive(Clone)]
pub(crate) struct NetHandle {
    pub(crate) tx: Sender<NetCmd>,
}

impl NetHandle {
    /// Queue a message for shaping, accounting queue pressure to the
    /// sending rank's `stats`.
    pub(crate) fn send(&self, dst: Rank, msg: Message, stats: &CommStats, deadline: Duration) {
        bounded_send(
            &self.tx,
            NetCmd::Send { dst, msg },
            stats,
            deadline,
            "network shaper",
        );
    }

    /// Request an orderly drain (blocking; teardown control traffic).
    pub(crate) fn shutdown(&self) {
        let _ = self.tx.send(NetCmd::Shutdown);
    }
}

pub(crate) fn spawn_network(
    model: NetworkModel,
    route: Route,
    seed: u64,
    queue_capacity: usize,
    queue_deadline: Duration,
    stats: Arc<CommStats>,
) -> (NetHandle, std::thread::JoinHandle<()>) {
    let (tx, rx) = bounded(queue_capacity);
    let join = std::thread::Builder::new()
        .name("pcoll-net".into())
        .spawn(move || delivery_loop(model, rx, route, seed, stats, queue_deadline))
        .expect("spawn network thread");
    (NetHandle { tx }, join)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::{CollId, WireTag};
    use crate::TypedBuf;

    fn msg(src: Rank, sem: u32, val: f32) -> Message {
        Message {
            src,
            tag: WireTag::new(CollId(0), 0, sem),
            payload: Some(TypedBuf::from(vec![val]).into()),
        }
    }

    fn test_network(
        model: NetworkModel,
        seed: u64,
    ) -> (
        NetHandle,
        std::thread::JoinHandle<()>,
        Receiver<Envelope>,
        Arc<CommStats>,
    ) {
        let (mb_tx, mb_rx) = bounded(1024);
        let stats = Arc::new(CommStats::default());
        let (net, join) = spawn_network(
            model,
            Route::mailboxes(vec![mb_tx]),
            seed,
            1024,
            Duration::from_secs(10),
            Arc::clone(&stats),
        );
        (net, join, mb_rx, stats)
    }

    #[test]
    fn instant_model_has_zero_latency() {
        assert_eq!(NetworkModel::Instant.base_latency(1 << 20), Duration::ZERO);
    }

    #[test]
    fn alpha_beta_latency_grows_with_size() {
        let m = NetworkModel::hpc();
        assert!(m.base_latency(1 << 22) > m.base_latency(64));
    }

    #[test]
    fn delivery_preserves_pairwise_fifo() {
        // High jitter would reorder without the non-overtaking clamp.
        let model = NetworkModel::AlphaBeta {
            alpha: Duration::from_micros(10),
            beta_ns_per_byte: 0.0,
            jitter: Duration::from_millis(2),
        };
        let (net, join, mb_rx, stats) = test_network(model, 42);
        for i in 0..64 {
            net.send(0, msg(0, i, i as f32), &stats, Duration::from_secs(5));
        }
        let mut got = Vec::new();
        for _ in 0..64 {
            match mb_rx.recv_timeout(Duration::from_secs(5)).unwrap() {
                Envelope::Data(m) => got.push(m.tag.sem),
                _ => panic!("unexpected envelope"),
            }
        }
        let want: Vec<u32> = (0..64).collect();
        assert_eq!(got, want, "same-pair messages must not overtake");
        net.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn delivery_delays_at_least_alpha() {
        let model = NetworkModel::AlphaBeta {
            alpha: Duration::from_millis(5),
            beta_ns_per_byte: 0.0,
            jitter: Duration::ZERO,
        };
        let (net, join, mb_rx, stats) = test_network(model, 1);
        let t0 = Instant::now();
        net.send(0, msg(0, 0, 1.0), &stats, Duration::from_secs(5));
        let _ = mb_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(5));
        net.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn shutdown_drains_held_messages_in_order_and_on_time() {
        // Alpha holds everything in the heap at shutdown; the drain must
        // deliver all of it, in per-pair order, and no earlier than the
        // modeled delivery time.
        let model = NetworkModel::AlphaBeta {
            alpha: Duration::from_millis(30),
            beta_ns_per_byte: 0.0,
            jitter: Duration::ZERO,
        };
        let (net, join, mb_rx, stats) = test_network(model, 9);
        let t0 = Instant::now();
        for i in 0..16 {
            net.send(0, msg(0, i, i as f32), &stats, Duration::from_secs(5));
        }
        net.shutdown();
        join.join().unwrap();
        assert!(
            t0.elapsed() >= Duration::from_millis(30),
            "drain must honor modeled latency, not release early"
        );
        let mut got = Vec::new();
        while let Ok(Envelope::Data(m)) = mb_rx.try_recv() {
            got.push(m.tag.sem);
        }
        let want: Vec<u32> = (0..16).collect();
        assert_eq!(got, want, "teardown must drain, not drop");
    }
}
