//! Per-peer liveness verdicts: the failure-detection half of elastic
//! membership.
//!
//! One [`Membership`] lives on each rank, shared by its transport threads
//! (TCP readers/writers, the engine's envelope intake) through an `Arc`.
//! It records verdicts, never guesses: only hard evidence — a connection
//! reset, a read EOF without a goodbye, a failed dial, a scripted kill —
//! calls [`Membership::report_down`]. A peer that is merely slow is load,
//! not a fault, and stays `Alive`; a hung-but-connected peer is therefore
//! not detected.
//!
//! Status is monotonic per peer: `Alive → Down → Evicted` — with one
//! sanctioned reverse edge. `Down` is a *local* verdict; `Evicted`
//! records the SPMD-fenced agreement (see `pcoll`'s eviction protocol)
//! that every survivor treats the rank as absent. When the survivors
//! later run the *admission* fence in reverse, [`Membership::readmit`]
//! moves the peer straight back to `Alive`: no local evidence may
//! resurrect a down peer, but a consensus decision can.

use crate::tag::Rank;
use std::sync::atomic::{AtomicU8, Ordering};

const ST_ALIVE: u8 = 0;
const ST_DOWN: u8 = 1;
const ST_EVICTED: u8 = 2;

/// Per-peer verdict table (see module docs). Cheap to share: one atomic
/// per peer; no locks anywhere.
pub struct Membership {
    rank: Rank,
    status: Vec<AtomicU8>,
}

impl std::fmt::Debug for Membership {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Membership")
            .field("rank", &self.rank)
            .field("size", &self.status.len())
            .field("live", &self.live())
            .finish()
    }
}

impl Membership {
    /// A membership view for `rank` of `size`, every peer `Alive`.
    pub fn new(rank: Rank, size: usize) -> Membership {
        Membership {
            rank,
            status: (0..size).map(|_| AtomicU8::new(ST_ALIVE)).collect(),
        }
    }

    /// The local rank this view belongs to.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// World size (P), counting every rank dead or alive.
    pub fn size(&self) -> usize {
        self.status.len()
    }

    /// Hard evidence that `peer` is gone (socket reset, read EOF, failed
    /// dial, scripted kill). Returns `true` exactly once — the first
    /// caller to move the peer to `Down` — so exactly one `PeerDown`
    /// envelope gets routed per peer.
    pub fn report_down(&self, peer: Rank) -> bool {
        peer != self.rank
            && self.status.get(peer).is_some_and(|s| {
                s.compare_exchange(ST_ALIVE, ST_DOWN, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            })
    }

    /// Record the SPMD-fenced eviction agreement for `peer` (implies
    /// down).
    pub fn evict(&self, peer: Rank) {
        if let Some(s) = self.status.get(peer) {
            s.store(ST_EVICTED, Ordering::Release);
        }
    }

    /// Record the SPMD-fenced *re-admission* agreement for `peer`: the
    /// one sanctioned reverse transition in the otherwise monotonic
    /// status ladder, back to `Alive`. Local evidence can never resurrect
    /// a down or evicted peer — only the consensus admission fence may,
    /// because it proves every live rank switches its schedules in the
    /// same round.
    pub fn readmit(&self, peer: Rank) {
        if let Some(s) = self.status.get(peer) {
            s.store(ST_ALIVE, Ordering::Release);
        }
    }

    /// Whether `peer` is locally down or evicted.
    #[inline]
    pub fn is_down(&self, peer: Rank) -> bool {
        self.status
            .get(peer)
            .is_some_and(|s| s.load(Ordering::Relaxed) >= ST_DOWN)
    }

    /// Whether `peer` was evicted by consensus.
    pub fn is_evicted(&self, peer: Rank) -> bool {
        self.status
            .get(peer)
            .is_some_and(|s| s.load(Ordering::Relaxed) == ST_EVICTED)
    }

    /// The live ranks (not down, not evicted), sorted; always contains
    /// the local rank.
    pub fn live(&self) -> Vec<Rank> {
        (0..self.size()).filter(|&r| !self.is_down(r)).collect()
    }

    /// The ranks locally declared down or evicted, sorted.
    pub fn down(&self) -> Vec<Rank> {
        (0..self.size()).filter(|&r| self.is_down(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    #[test]
    fn fresh_peers_are_alive() {
        let m = Membership::new(0, 4);
        assert_eq!(m.live(), vec![0, 1, 2, 3]);
        assert!(m.down().is_empty());
        assert!((0..4).all(|r| !m.is_down(r) && !m.is_evicted(r)));
    }

    #[test]
    fn report_down_fires_exactly_once() {
        let m = Membership::new(0, 3);
        assert!(m.report_down(2));
        assert!(!m.report_down(2), "second report must be a no-op");
        assert!(m.is_down(2) && !m.is_evicted(2));
        assert_eq!(m.live(), vec![0, 1]);
        assert_eq!(m.down(), vec![2]);
    }

    #[test]
    fn report_down_is_true_exactly_once_across_racing_threads() {
        // A dead TCP link has two reporters (its reader and its writer);
        // however many race, exactly one `PeerDown` may be routed.
        const THREADS: usize = 8;
        for _ in 0..50 {
            let m = Arc::new(Membership::new(0, 2));
            let start = Arc::new(Barrier::new(THREADS));
            let wins: usize = (0..THREADS)
                .map(|_| {
                    let (m, start) = (Arc::clone(&m), Arc::clone(&start));
                    std::thread::spawn(move || {
                        start.wait();
                        m.report_down(1)
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| usize::from(h.join().unwrap()))
                .sum();
            assert_eq!(wins, 1);
            assert!(m.is_down(1));
        }
    }

    #[test]
    fn eviction_is_sticky_and_implies_down() {
        let m = Membership::new(0, 4);
        m.report_down(3);
        m.evict(3);
        assert!(m.is_down(3) && m.is_evicted(3));
        assert!(!m.report_down(3), "an evicted peer is not reported again");
        m.evict(3);
        assert!(m.is_evicted(3));
        assert_eq!(m.down(), vec![3]);
    }

    #[test]
    fn readmit_reverses_eviction() {
        let m = Membership::new(0, 4);
        m.report_down(3);
        m.evict(3);
        m.readmit(3);
        assert!(!m.is_down(3) && !m.is_evicted(3));
        assert_eq!(m.live(), vec![0, 1, 2, 3]);
        // A readmitted peer can die again, reported exactly once.
        assert!(m.report_down(3));
        assert!(!m.report_down(3));
    }

    #[test]
    fn self_is_never_downed() {
        let m = Membership::new(0, 2);
        assert!(!m.report_down(0));
        assert!(!m.report_down(7), "an out-of-range peer is ignored");
        assert_eq!(m.live(), vec![0, 1]);
    }
}
