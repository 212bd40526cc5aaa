//! Queue-pressure counters for the bounded send routes.
//!
//! Every bounded queue push (rank mailboxes, the TCP per-peer writer
//! queues) is accounted here: how many sends went
//! through, how many found the queue full and had to block, how long they
//! blocked, and the deepest backlog observed. One [`CommStats`] lives per
//! rank (shared by its `CommHandle` clones and, under TCP, its socket
//! threads). The counters are cumulative and lossless; a window is the
//! delta of two snapshots ([`CommStatsSnapshot::since`]), which is how
//! the adaptive-quorum layer reads congestion at each decision boundary
//! and how the benches bracket a loop.

use pcoll_obs::Recorder;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic queue-pressure counters (lock-free; hot-path updates are
/// relaxed atomics). Also carries the rank's flight-[`Recorder`] handle,
/// since every bounded-queue hot path already threads `&CommStats` —
/// the recorder rides along for free.
#[derive(Debug, Default)]
pub struct CommStats {
    /// Messages pushed into any bounded send queue.
    pub sends: AtomicU64,
    /// Payload bytes handed to the transport by this rank's sends
    /// (control messages count zero). Telemetry consumers (the
    /// `coll_micro` bench, `stepbench`) divide deltas of this by wall
    /// time to report *achieved* wire bandwidth per algorithm instead of
    /// inferring it from message counts.
    pub bytes_sent: AtomicU64,
    /// Data messages this rank's receive paths consumed (the matcher's
    /// `recv_*` family, the engine's envelope intake, the TCP reader).
    pub recvs: AtomicU64,
    /// Payload bytes received (mirror of `bytes_sent`; control messages
    /// count zero). Together with `recvs` this makes congestion visible
    /// from the *receiver*, not just the sender.
    pub bytes_received: AtomicU64,
    /// Sends that found their queue full and blocked for space.
    pub send_stalls: AtomicU64,
    /// Total nanoseconds spent blocked on full queues.
    pub stall_ns: AtomicU64,
    /// Deepest queue backlog observed immediately after a push.
    pub peak_queue_depth: AtomicU64,
    /// Sends dropped because the destination had already finished, or
    /// (TCP) because no connection to it was ever installed.
    pub dropped_closed: AtomicU64,
    /// Sends dropped because the destination was declared down on hard
    /// evidence (distinct from `dropped_closed`: the peer did not
    /// finish, it died — these drops feed the eviction story, not the
    /// orderly-teardown one).
    pub dropped_peer_down: AtomicU64,
    /// Goodbye-handshake drains skipped because the peer was already dead
    /// (teardown must not block on a corpse; each skip is one peer whose
    /// in-flight traffic we gave up waiting for).
    pub drain_skips: AtomicU64,
    /// The rank's flight recorder (disabled by default: recording into
    /// it is a no-op costing one `Option` check).
    recorder: Recorder,
}

impl CommStats {
    /// Counters at zero with an attached flight recorder.
    pub fn with_recorder(recorder: Recorder) -> CommStats {
        CommStats {
            recorder,
            ..CommStats::default()
        }
    }

    /// The rank's flight-recorder handle.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Record the backlog seen after a push (monotonic max).
    pub(crate) fn record_depth(&self, depth: usize) {
        self.peak_queue_depth
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// Account one consumed data message of `bytes` payload. Public so
    /// the scheduler's envelope intake (a different crate) can count the
    /// receives it consumes without going through a matcher.
    pub fn record_recv(&self, bytes: usize) {
        self.recvs.fetch_add(1, Ordering::Relaxed);
        self.bytes_received
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Read every counter at once. `peak_queue_depth` is the all-time
    /// high-water mark of the depth gauge, not a per-window figure.
    pub fn snapshot(&self) -> CommStatsSnapshot {
        CommStatsSnapshot {
            sends: self.sends.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            recvs: self.recvs.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            send_stalls: self.send_stalls.load(Ordering::Relaxed),
            stall_ms: self.stall_ns.load(Ordering::Relaxed) as f64 / 1e6,
            peak_queue_depth: self.peak_queue_depth.load(Ordering::Relaxed),
            dropped_closed: self.dropped_closed.load(Ordering::Relaxed),
            dropped_peer_down: self.dropped_peer_down.load(Ordering::Relaxed),
            drain_skips: self.drain_skips.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`CommStats`], serializable for telemetry and
/// bench artifacts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommStatsSnapshot {
    /// Messages handed to a send route.
    pub sends: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Data messages consumed by a receive path.
    pub recvs: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
    /// Sends that found their queue full and had to block.
    pub send_stalls: u64,
    /// Total time spent blocked on full queues.
    pub stall_ms: f64,
    /// The depth gauge as read at snapshot time: the deepest backlog seen
    /// so far (see [`CommStatsSnapshot::since`] for why deltas zero this).
    pub peak_queue_depth: u64,
    /// Messages dropped because the destination had already finished
    /// or had no connection.
    pub dropped_closed: u64,
    /// Messages dropped because the destination was declared down.
    pub dropped_peer_down: u64,
    /// Goodbye drains skipped against already-dead peers.
    pub drain_skips: u64,
}

impl CommStatsSnapshot {
    /// Counter deltas since `earlier`. The peak-depth gauge is a running
    /// maximum, not a monotonic counter, so no "peak within this window"
    /// can be derived from two snapshots: deltas zero it.
    pub fn since(&self, earlier: &CommStatsSnapshot) -> CommStatsSnapshot {
        CommStatsSnapshot {
            sends: self.sends.saturating_sub(earlier.sends),
            bytes_sent: self.bytes_sent.saturating_sub(earlier.bytes_sent),
            recvs: self.recvs.saturating_sub(earlier.recvs),
            bytes_received: self.bytes_received.saturating_sub(earlier.bytes_received),
            send_stalls: self.send_stalls.saturating_sub(earlier.send_stalls),
            stall_ms: (self.stall_ms - earlier.stall_ms).max(0.0),
            peak_queue_depth: 0,
            dropped_closed: self.dropped_closed.saturating_sub(earlier.dropped_closed),
            dropped_peer_down: self
                .dropped_peer_down
                .saturating_sub(earlier.dropped_peer_down),
            drain_skips: self.drain_skips.saturating_sub(earlier.drain_skips),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_all_counters() {
        let s = CommStats::default();
        s.sends.store(10, Ordering::Relaxed);
        s.send_stalls.store(2, Ordering::Relaxed);
        s.stall_ns.store(3_000_000, Ordering::Relaxed);
        s.record_depth(7);
        s.record_depth(4); // max, not last
        let snap = s.snapshot();
        assert_eq!(snap.sends, 10);
        assert_eq!(snap.send_stalls, 2);
        assert!((snap.stall_ms - 3.0).abs() < 1e-9);
        assert_eq!(snap.peak_queue_depth, 7);
    }

    #[test]
    fn since_subtracts_monotonic_counters() {
        let a = CommStatsSnapshot {
            sends: 5,
            bytes_sent: 100,
            recvs: 2,
            bytes_received: 40,
            send_stalls: 1,
            stall_ms: 1.0,
            peak_queue_depth: 3,
            dropped_closed: 0,
            dropped_peer_down: 0,
            drain_skips: 0,
        };
        let b = CommStatsSnapshot {
            sends: 9,
            bytes_sent: 260,
            recvs: 7,
            bytes_received: 240,
            send_stalls: 4,
            stall_ms: 2.5,
            peak_queue_depth: 6,
            dropped_closed: 1,
            dropped_peer_down: 2,
            drain_skips: 1,
        };
        let d = b.since(&a);
        assert_eq!(d.sends, 4);
        assert_eq!(d.bytes_sent, 160);
        assert_eq!(d.recvs, 5);
        assert_eq!(d.bytes_received, 200);
        assert_eq!(d.send_stalls, 3);
        assert!((d.stall_ms - 1.5).abs() < 1e-9);
        assert_eq!(d.peak_queue_depth, 0, "deltas never report the gauge");
        assert_eq!(d.dropped_closed, 1);
        assert_eq!(d.dropped_peer_down, 2);
        assert_eq!(d.drain_skips, 1);
    }

    #[test]
    fn record_recv_mirrors_the_send_side() {
        let s = CommStats::default();
        s.record_recv(128);
        s.record_recv(64);
        let snap = s.snapshot();
        assert_eq!(snap.recvs, 2);
        assert_eq!(snap.bytes_received, 192);
    }
}
