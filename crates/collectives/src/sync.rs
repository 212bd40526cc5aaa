//! Synchronous (blocking) collectives without a reduction result on
//! every rank: barrier, broadcast, reduce. These are the `MPI_*` stand-ins
//! the trainer's baselines and the membership fences use — the operation
//! "implicitly synchronizes the participants: the operation cannot
//! terminate before the slowest process joins it" (§4).
//!
//! The blocking *allreduce* is not here: it is
//! [`crate::PartialAllreduce`] at [`crate::QuorumPolicy::Full`]
//! ([`crate::RankCtx::sync_allreduce`]), so the baseline and the eager
//! collective share one frontend, one schedule selection and one data
//! path, and the benchmarks compare semantics rather than machinery.

use crate::builders::{barrier_schedule, bcast_schedule, reduce_schedule};
use parking_lot::{Condvar, Mutex};
use pcoll_comm::{CollId, Payload, Rank, ReduceOp, TypedBuf};
use pcoll_sched::{CollectiveTemplate, Engine, RoundStats, Schedule};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// How long a blocking collective waits before panicking with a
/// diagnostic.
pub const SYNC_WAIT_TIMEOUT: Duration = Duration::from_secs(120);

/// Shared state for round-indexed blocking collectives: per-round deposit
/// slots and per-round results.
struct SyncShared {
    deposits: Mutex<HashMap<u64, TypedBuf>>,
    results: Mutex<HashMap<u64, Option<TypedBuf>>>,
    cv: Condvar,
}

impl SyncShared {
    fn new() -> Arc<Self> {
        Arc::new(SyncShared {
            deposits: Mutex::new(HashMap::new()),
            results: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
        })
    }

    fn put_deposit(&self, round: u64, data: TypedBuf) {
        let prev = self.deposits.lock().insert(round, data);
        debug_assert!(prev.is_none(), "round {round} deposited twice");
    }

    fn take_deposit(&self, round: u64) -> TypedBuf {
        self.deposits
            .lock()
            .remove(&round)
            .unwrap_or_else(|| panic!("sync snapshot found no deposit for round {round}"))
    }

    fn complete(&self, round: u64, result: Option<TypedBuf>) {
        self.results.lock().insert(round, result);
        self.cv.notify_all();
    }

    fn wait(&self, round: u64, what: &str) -> Option<TypedBuf> {
        let deadline = std::time::Instant::now() + SYNC_WAIT_TIMEOUT;
        let mut res = self.results.lock();
        loop {
            if let Some(r) = res.remove(&round) {
                return r;
            }
            let timeout = deadline.saturating_duration_since(std::time::Instant::now());
            if timeout.is_zero() {
                panic!("{what} round {round} timed out after {SYNC_WAIT_TIMEOUT:?}");
            }
            self.cv.wait_for(&mut res, timeout);
        }
    }
}

/// Template adapter: a schedule builder closure plus the shared sync state.
struct SyncTemplate<F: Fn(u64) -> Schedule + Send> {
    build: F,
    shared: Arc<SyncShared>,
    /// Whether this rank contributes data (false e.g. for non-root bcast
    /// ranks and for barriers).
    contributes: bool,
}

impl<F: Fn(u64) -> Schedule + Send> CollectiveTemplate for SyncTemplate<F> {
    fn build(&self, round: u64) -> Schedule {
        (self.build)(round)
    }

    fn snapshot(&self, round: u64) -> Option<Payload> {
        self.contributes
            .then(|| Payload::new(self.shared.take_deposit(round)))
    }

    fn complete(&self, stats: &RoundStats, result: Option<TypedBuf>) {
        self.shared.complete(stats.round, result);
    }
}

/// Blocking dissemination barrier (any world size).
pub struct SyncBarrier {
    shared: Arc<SyncShared>,
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
        let live = live.to_vec();
        let vrank = live
            .iter()
            .position(|&r| r == rank)
            .expect("register_over: rank must be in the live set");
        let p = live.len();
        let shared = SyncShared::new();
        engine.register(
            coll,
            Box::new(SyncTemplate {
                build: move |_round| {
                    let mut s = barrier_schedule(vrank, p);
                    s.remap_peers(&live);
                    s
                },
                shared: Arc::clone(&shared),
                contributes: false,
            }),
        );
        SyncBarrier {
            shared,
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
        self.shared.wait(round, "barrier");
    }
}

/// Blocking binomial-tree broadcast from a fixed root.
pub struct SyncBcast {
    shared: Arc<SyncShared>,
    engine: Engine,
    coll: CollId,
    next_round: u64,
    root: Rank,
    rank: Rank,
}

impl SyncBcast {
    pub(crate) fn register(
        engine: &Engine,
        coll: CollId,
        rank: Rank,
        p: usize,
        root: Rank,
    ) -> Self {
        let shared = SyncShared::new();
        engine.register(
            coll,
            Box::new(SyncTemplate {
                build: move |_round| bcast_schedule(rank, p, root),
                shared: Arc::clone(&shared),
                contributes: rank == root,
            }),
        );
        SyncBcast {
            shared,
            engine: engine.clone(),
            coll,
            next_round: 0,
            root,
            rank,
        }
    }

    /// Root passes `Some(payload)`; everyone receives the root's payload.
    pub fn bcast(&mut self, data: Option<&TypedBuf>) -> TypedBuf {
        let round = self.next_round;
        self.next_round += 1;
        if self.rank == self.root {
            let data = data.expect("root must provide the broadcast payload");
            self.shared.put_deposit(round, data.clone());
        }
        self.engine.activate(self.coll, round);
        self.shared
            .wait(round, "bcast")
            .expect("bcast carries data")
    }
}

/// Blocking binomial-tree reduce to a fixed root. Only the root receives
/// the reduced result (`Some`); other ranks get `None`.
pub struct SyncReduce {
    shared: Arc<SyncShared>,
    engine: Engine,
    coll: CollId,
    next_round: u64,
}

impl SyncReduce {
    pub(crate) fn register(
        engine: &Engine,
        coll: CollId,
        rank: Rank,
        p: usize,
        root: Rank,
        op: ReduceOp,
    ) -> Self {
        let shared = SyncShared::new();
        engine.register(
            coll,
            Box::new(SyncTemplate {
                build: move |_round| reduce_schedule(rank, p, root, op),
                shared: Arc::clone(&shared),
                contributes: true,
            }),
        );
        SyncReduce {
            shared,
            engine: engine.clone(),
            coll,
            next_round: 0,
        }
    }

    /// Contribute `data`; block until this rank's part is done. Returns
    /// the reduction at the root, `None` elsewhere.
    pub fn reduce(&mut self, data: &TypedBuf) -> Option<TypedBuf> {
        let round = self.next_round;
        self.next_round += 1;
        self.shared.put_deposit(round, data.clone());
        self.engine.activate(self.coll, round);
        self.shared.wait(round, "reduce")
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
    fn bcast_delivers_root_payload() {
        for p in [2usize, 3, 7, 8] {
            let out = World::launch(WorldConfig::instant(p), move |c| {
                let ctx = RankCtx::new(c);
                let mut bc = ctx.bcast(2 % p);
                let payload = TypedBuf::from(vec![42i32, 7]);
                let r = bc.bcast((ctx.rank() == 2 % p).then_some(&payload));
                ctx.finalize();
                r.as_i32().unwrap().to_vec()
            });
            for v in out {
                assert_eq!(v, vec![42, 7], "p={p}");
            }
        }
    }

    #[test]
    fn reduce_collects_at_root() {
        for p in [2usize, 3, 8, 11] {
            let root = p - 1;
            let out = World::launch(WorldConfig::instant(p), move |c| {
                let ctx = RankCtx::new(c);
                let mut red = ctx.reduce(root, ReduceOp::Max);
                let me = ctx.rank() as i64;
                let r = red.reduce(&TypedBuf::from(vec![me * me]));
                ctx.finalize();
                r.map(|b| b.as_i64().unwrap().to_vec())
            });
            for (r, v) in out.iter().enumerate() {
                if r == root {
                    let want = ((p - 1) * (p - 1)) as i64;
                    assert_eq!(v.as_ref().unwrap()[0], want, "p={p}");
                } else {
                    assert!(v.is_none(), "non-root rank {r} must get None");
                }
            }
        }
    }
}
