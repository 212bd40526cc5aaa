//! The blocking barrier: the `MPI_Barrier` stand-in behind
//! [`crate::RankCtx::barrier`], `finalize`, the evaluation fences and the
//! eviction and admission gates. It "implicitly synchronizes the
//! participants: the operation cannot terminate before the slowest
//! process joins it" (§4).
//!
//! The blocking *allreduce* is not here: it is
//! [`crate::PartialAllreduce`] at [`crate::QuorumPolicy::Full`]
//! ([`crate::RankCtx::sync_allreduce`]), so the baseline and the eager
//! collective share one frontend, one schedule selection and one data
//! path, and the benchmarks compare semantics rather than machinery.

use crate::builders::barrier_schedule;
use parking_lot::{Condvar, Mutex};
use pcoll_comm::{CollId, Payload, Rank, TypedBuf};
use pcoll_sched::{CollectiveTemplate, Engine, RoundStats, Schedule};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// How long a blocking collective waits before panicking with a
/// diagnostic.
pub const SYNC_WAIT_TIMEOUT: Duration = Duration::from_secs(120);

/// The rounds the engine has finished and not yet handed to a waiter.
#[derive(Default)]
struct Finished {
    rounds: Mutex<HashSet<u64>>,
    cv: Condvar,
}

/// The barrier's template: its place `vrank` in a virtual world of `live`
/// ranks, and where finished rounds are reported.
struct BarrierTemplate {
    vrank: usize,
    live: Vec<Rank>,
    finished: Arc<Finished>,
}

impl CollectiveTemplate for BarrierTemplate {
    fn build(&self, _round: u64) -> Schedule {
        let mut s = barrier_schedule(self.vrank, self.live.len());
        s.remap_peers(&self.live);
        s
    }

    fn snapshot(&self, _round: u64) -> Option<Payload> {
        None
    }

    fn complete(&self, stats: &RoundStats, _result: Option<TypedBuf>) {
        self.finished.rounds.lock().insert(stats.round);
        self.finished.cv.notify_all();
    }
}

/// Blocking dissemination barrier (any world size).
pub struct SyncBarrier {
    finished: Arc<Finished>,
    engine: Engine,
    coll: CollId,
    next_round: std::cell::Cell<u64>,
}

impl SyncBarrier {
    /// A barrier over the `live` ranks (sorted, must contain `rank`): the
    /// whole world for the built-in barrier, the surviving or grown live
    /// set for the gate the eviction and admission fences close on. The
    /// schedule is built in a virtual world of `live.len()` ranks and
    /// remapped to global ids.
    pub(crate) fn register_over(engine: &Engine, coll: CollId, live: &[Rank], rank: Rank) -> Self {
        let vrank = live
            .iter()
            .position(|&r| r == rank)
            .expect("register_over: rank must be in the live set");
        let finished = Arc::new(Finished::default());
        engine.register(
            coll,
            Box::new(BarrierTemplate {
                vrank,
                live: live.to_vec(),
                finished: Arc::clone(&finished),
            }),
        );
        SyncBarrier {
            finished,
            engine: engine.clone(),
            coll,
            next_round: std::cell::Cell::new(0),
        }
    }

    /// Block until every rank has entered this barrier round.
    pub fn wait(&self) {
        let round = self.next_round.get();
        self.next_round.set(round + 1);
        self.engine.activate(self.coll, round);
        let deadline = std::time::Instant::now() + SYNC_WAIT_TIMEOUT;
        let mut rounds = self.finished.rounds.lock();
        while !rounds.remove(&round) {
            let timeout = deadline.saturating_duration_since(std::time::Instant::now());
            if timeout.is_zero() {
                panic!("barrier round {round} timed out after {SYNC_WAIT_TIMEOUT:?}");
            }
            self.finished.cv.wait_for(&mut rounds, timeout);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::RankCtx;
    use pcoll_comm::{World, WorldConfig};

    #[test]
    fn barrier_aligns_ranks() {
        let p = 6;
        let out = World::launch(WorldConfig::instant(p), move |c| {
            let ctx = RankCtx::new(c);
            // Stagger the arrivals; nobody may leave the barrier before
            // the last rank has reached it.
            std::thread::sleep(Duration::from_millis(20 * ctx.rank() as u64));
            let arrived = std::time::Instant::now();
            ctx.barrier();
            let left = std::time::Instant::now();
            ctx.finalize();
            (arrived, left)
        });
        let last_arrival = out.iter().map(|(arrived, _)| *arrived).max().unwrap();
        for (r, (_, left)) in out.iter().enumerate() {
            assert!(
                *left >= last_arrival,
                "rank {r} left the barrier {:?} before the last rank arrived",
                last_arrival - *left
            );
        }
    }

    #[test]
    fn barrier_over_a_non_contiguous_live_set_aligns_its_members() {
        // The gate shape of the eviction and admission fences: ranks
        // {1, 3, 4} of six register a barrier over their live set, whose
        // schedule is built in a virtual world of three and remapped to
        // global ids. Ranks 0, 2 and 5 never enter it.
        let live = [1, 3, 4];
        let out = World::launch(WorldConfig::instant(6), move |c| {
            let ctx = RankCtx::new(c);
            let pos = live.iter().position(|&r| r == ctx.rank());
            let times = pos.map(|i| {
                let gate =
                    SyncBarrier::register_over(ctx.engine(), CollId(0x100), &live, ctx.rank());
                std::thread::sleep(Duration::from_millis(20 * i as u64));
                let arrived = std::time::Instant::now();
                gate.wait();
                (arrived, std::time::Instant::now())
            });
            ctx.finalize();
            times
        });
        let members: Vec<_> = out
            .iter()
            .enumerate()
            .filter_map(|(r, t)| t.map(|t| (r, t)))
            .collect();
        assert_eq!(members.iter().map(|(r, _)| *r).collect::<Vec<_>>(), live);
        let last_arrival = members
            .iter()
            .map(|(_, (arrived, _))| *arrived)
            .max()
            .unwrap();
        for (r, (_, left)) in &members {
            assert!(
                *left >= last_arrival,
                "rank {r} left the barrier {:?} before the last member arrived",
                last_arrival - *left
            );
        }
    }
}
