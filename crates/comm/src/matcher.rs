//! Blocking point-to-point matching on top of an [`Inbox`].
//!
//! The schedule engine does its own matching; `Matcher` exists for direct
//! point-to-point use — unit tests, simple coordination protocols, and
//! examples that want MPI-flavoured `recv(src, tag)` semantics without
//! standing up the engine.

use crate::stats::CommStats;
use crate::tag::{Message, Rank, WireTag};
use crate::world::{Envelope, Inbox};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// Wraps an [`Inbox`] with an unexpected-message queue so receives can be
/// posted in any order relative to arrivals.
pub struct Matcher {
    inbox: Inbox,
    /// Messages that arrived before a matching receive was posted.
    unexpected: HashMap<(Rank, WireTag), VecDeque<Message>>,
    shutdown_seen: bool,
    /// Receive-side accounting sink, when the caller wants consumed
    /// messages counted (see [`Matcher::with_stats`]).
    stats: Option<Arc<CommStats>>,
}

impl Matcher {
    /// Wrap an inbox for tag-matched receiving.
    pub fn new(inbox: Inbox) -> Self {
        Matcher {
            inbox,
            unexpected: HashMap::new(),
            shutdown_seen: false,
            stats: None,
        }
    }

    /// Like [`Matcher::new`], but every data message drained from the
    /// inbox bumps the rank's receive counters (`recvs`,
    /// `bytes_received`) and — at verbose trace level — records a
    /// [`pcoll_obs::EventKind::MsgRecv`] event. Pass the rank's own
    /// [`CommStats`] (from `Communicator::comm_stats` before splitting).
    pub fn with_stats(inbox: Inbox, stats: Arc<CommStats>) -> Self {
        Matcher {
            stats: Some(stats),
            ..Matcher::new(inbox)
        }
    }

    /// Account one data message drained from the inbox. Matching out of
    /// the unexpected queue never re-counts: a message is tallied exactly
    /// once, when consumed off the wire.
    fn note_recv(&self, m: &Message) {
        let Some(stats) = &self.stats else { return };
        let bytes = m.payload.as_ref().map_or(0, |p| p.byte_len());
        stats.record_recv(bytes);
        stats
            .recorder()
            .record(pcoll_obs::LEVEL_VERBOSE, || pcoll_obs::EventKind::MsgRecv {
                coll: u64::from(m.tag.coll.0),
                round: m.tag.round,
                sem: m.tag.sem,
                src: m.src as u32,
                bytes: bytes as u64,
            });
    }

    /// True once a shutdown envelope has been drained.
    pub fn shutdown_seen(&self) -> bool {
        self.shutdown_seen
    }

    /// Blocking receive of the message matching `(src, tag)` exactly.
    /// Returns `None` if the world is tearing down instead.
    pub fn recv(&mut self, src: Rank, tag: WireTag) -> Option<Message> {
        if let Some(q) = self.unexpected.get_mut(&(src, tag)) {
            if let Some(m) = q.pop_front() {
                return Some(m);
            }
        }
        loop {
            match self.inbox.recv()? {
                Envelope::Data(m) => {
                    self.note_recv(&m);
                    if m.src == src && m.tag == tag {
                        return Some(m);
                    }
                    self.unexpected
                        .entry((m.src, m.tag))
                        .or_default()
                        .push_back(m);
                }
                Envelope::Shutdown => {
                    self.shutdown_seen = true;
                    return None;
                }
                // Matcher callers do their own liveness handling (or none);
                // local control is consumed so matching keeps draining.
                _ => {}
            }
        }
    }

    /// Like [`Matcher::recv`] but gives up after `timeout`.
    pub fn recv_timeout(&mut self, src: Rank, tag: WireTag, timeout: Duration) -> Option<Message> {
        if let Some(q) = self.unexpected.get_mut(&(src, tag)) {
            if let Some(m) = q.pop_front() {
                return Some(m);
            }
        }
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return None;
            }
            match self.inbox.recv_timeout(left)? {
                Envelope::Data(m) => {
                    self.note_recv(&m);
                    if m.src == src && m.tag == tag {
                        return Some(m);
                    }
                    self.unexpected
                        .entry((m.src, m.tag))
                        .or_default()
                        .push_back(m);
                }
                Envelope::Shutdown => {
                    self.shutdown_seen = true;
                    return None;
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::CollId;
    use crate::world::{World, WorldConfig};
    use crate::TypedBuf;

    fn tag(sem: u32) -> WireTag {
        WireTag::new(CollId(1), 0, sem)
    }

    #[test]
    fn out_of_order_receive_matches() {
        World::launch(WorldConfig::instant(2), |c| {
            let me = c.rank();
            let peer = 1 - me;
            let (h, inbox) = c.split();
            let mut m = Matcher::new(inbox);
            // Both send two differently-tagged messages, then receive in
            // the opposite order from how they will likely arrive.
            h.send(peer, tag(0), Some(TypedBuf::from(vec![0i32])));
            h.send(peer, tag(1), Some(TypedBuf::from(vec![1i32])));
            let b = m.recv(peer, tag(1)).unwrap();
            let a = m.recv(peer, tag(0)).unwrap();
            assert_eq!(a.payload.unwrap().as_i32().unwrap(), &[0]);
            assert_eq!(b.payload.unwrap().as_i32().unwrap(), &[1]);
        });
    }

    #[test]
    fn with_stats_counts_each_message_once_at_consumption() {
        World::launch(WorldConfig::instant(2), |c| {
            let me = c.rank();
            let peer = 1 - me;
            let stats = c.comm_stats();
            let (h, inbox) = c.split();
            let mut m = Matcher::with_stats(inbox, Arc::clone(&stats));
            // Two data messages received in the opposite order from
            // arrival (one transits the unexpected queue) plus one
            // payload-less control message. Each must be tallied exactly
            // once — when drained off the inbox, not when rematched.
            h.send(peer, tag(0), Some(TypedBuf::from(vec![0i32])));
            h.send(peer, tag(1), Some(TypedBuf::from(vec![1i32, 2i32])));
            h.send(peer, tag(2), None);
            assert!(m.recv(peer, tag(1)).is_some());
            assert!(m.recv(peer, tag(0)).is_some());
            assert!(m.recv(peer, tag(2)).is_some());
            let snap = stats.snapshot();
            assert_eq!(snap.recvs, 3, "one tally per consumed message");
            assert_eq!(snap.bytes_received, 12, "4 + 8 + 0 payload bytes");
        });
    }

    #[test]
    fn recv_timeout_expires() {
        World::launch(WorldConfig::instant(2), |c| {
            let me = c.rank();
            let peer = 1 - me;
            let (_h, inbox) = c.split();
            let mut m = Matcher::new(inbox);
            // Nothing was sent on tag 9: must time out quickly.
            assert!(m
                .recv_timeout(peer, tag(9), Duration::from_millis(30))
                .is_none());
        });
    }
}
