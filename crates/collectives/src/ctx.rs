//! Per-rank context: the engine plus SPMD collective constructors.
//!
//! [`RankCtx`] is the `MPI_COMM_WORLD` of this library: it owns the rank's
//! progress engine and hands out collective handles. **Collectives must be
//! constructed in the same order on every rank** — construction allocates
//! consecutive collective ids, and ranks agree on which id means what only
//! if they allocate in lockstep (the usual SPMD contract for communicator
//! construction).
//!
//! Everything here is transport-agnostic: a `RankCtx` built from a
//! thread-world communicator behaves identically to one built in a TCP
//! rank process — all cross-rank coordination (barriers, consensus
//! randomness, membership fences) goes through messages or the shared seed,
//! never through shared memory.
//!
//! The one blocking collective is the allreduce at [`QuorumPolicy::Full`]:
//! [`RankCtx::sync_allreduce`] is the synchronous baseline, and a barrier
//! (the built-in one, and the gate each eviction and admission fence
//! closes on) is that allreduce over zero elements. It "cannot terminate
//! before the slowest process joins it" (§4) and carries nothing else.

use crate::partial::{PartialAllreduce, PartialOpts, QuorumPolicy};
use pcoll_comm::{
    Clock, CollId, CommStats, Communicator, DType, Membership, Rank, ReduceOp, TypedBuf,
};
use pcoll_obs::{EventKind, LEVEL_SPANS};
use pcoll_sched::Engine;
use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::Duration;

/// Base of the collective-id range reserved for the eviction protocol's
/// consensus collectives (fence allreduce + barrier, two ids per
/// eviction epoch). Far above anything `RankCtx::alloc` hands out, and
/// derived identically on every survivor, so lazily registering them
/// mid-run keeps the SPMD id agreement without any up-front reservation.
const EVICTION_COLL_BASE: u32 = 0x4000_0000;

/// A barrier over the ranks of a world of `p` not in the sorted
/// `evicted`: a `Full` allreduce of zero elements, passed with [`cross`].
fn barrier_over(
    engine: &Engine,
    coll: CollId,
    rank: Rank,
    p: usize,
    seed: u64,
    evicted: Vec<Rank>,
) -> PartialAllreduce {
    let opts = PartialOpts {
        // How long a barrier waits for the slowest rank before panicking.
        wait_timeout: Duration::from_secs(120),
        ..PartialOpts::default()
    };
    PartialAllreduce::register(
        engine.clone(),
        coll,
        rank,
        p,
        evicted,
        seed,
        DType::F32,
        0,
        ReduceOp::Sum,
        QuorumPolicy::Full,
        opts,
    )
}

/// Block until every rank of `barrier` has entered this round of it.
fn cross(barrier: &mut PartialAllreduce) {
    barrier.allreduce(&TypedBuf::zeros(DType::F32, 0));
}

/// Per-rank context (one per rank thread, not shareable across threads).
pub struct RankCtx {
    rank: Rank,
    size: usize,
    seed: u64,
    engine: Engine,
    next_coll: Cell<u32>,
    barrier: RefCell<PartialAllreduce>,
    comm_stats: Arc<CommStats>,
    membership: Arc<Membership>,
    clock: Clock,
}

impl RankCtx {
    /// Stand up the engine for this rank. Registers the built-in barrier
    /// as collective 0; user collectives start at id 1.
    pub fn new(comm: Communicator) -> Self {
        let rank = comm.rank();
        let size = comm.size();
        let seed = comm.seed();
        let comm_stats = comm.comm_stats();
        let membership = Arc::clone(comm.membership());
        let (handle, inbox) = comm.split();
        let clock = handle.clock().clone();
        let engine = Engine::spawn(handle, inbox);
        let barrier = barrier_over(&engine, CollId(0), rank, size, seed, Vec::new());
        RankCtx {
            rank,
            size,
            seed,
            engine,
            next_coll: Cell::new(1),
            barrier: RefCell::new(barrier),
            comm_stats,
            membership,
            clock,
        }
    }

    /// This rank's verdicts on its peers, down on hard evidence only.
    /// Pass its [`Membership::down`] ranks to [`RankCtx::evict`] to
    /// remove them for good.
    pub fn membership(&self) -> &Arc<Membership> {
        &self.membership
    }

    /// This rank's index.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// World size (P).
    pub fn size(&self) -> usize {
        self.size
    }

    /// The world-shared seed (consensus randomness).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// This rank's transport queue-pressure counters (stalls, depths) —
    /// the congestion half of the closed-loop telemetry.
    pub fn comm_stats(&self) -> Arc<CommStats> {
        Arc::clone(&self.comm_stats)
    }

    /// This rank's flight-recorder handle (disabled unless the launch
    /// enabled tracing — see `pcoll_comm::WorldConfig::with_trace`).
    pub fn recorder(&self) -> &pcoll_comm::Recorder {
        self.comm_stats.recorder()
    }

    /// This rank's clock, the one its engine and recorder read (see
    /// `pcoll_comm::CommHandle::clock`).
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    fn alloc(&self) -> CollId {
        let id = self.next_coll.get();
        self.next_coll.set(id + 1);
        CollId(id)
    }

    /// Create a partial allreduce (§4): the eager collective of the paper.
    /// Any world size: powers of two pick recursive doubling or the
    /// segmented ring by message size, other sizes always take the ring.
    pub fn partial_allreduce(
        &self,
        dtype: DType,
        len: usize,
        op: ReduceOp,
        policy: QuorumPolicy,
        opts: PartialOpts,
    ) -> PartialAllreduce {
        self.register_allreduce(self.alloc(), Vec::new(), dtype, len, op, policy, opts)
    }

    #[allow(clippy::too_many_arguments)]
    fn register_allreduce(
        &self,
        coll: CollId,
        evicted: Vec<Rank>,
        dtype: DType,
        len: usize,
        op: ReduceOp,
        policy: QuorumPolicy,
        opts: PartialOpts,
    ) -> PartialAllreduce {
        PartialAllreduce::register(
            self.engine.clone(),
            coll,
            self.rank,
            self.size,
            evicted,
            self.seed,
            dtype,
            len,
            op,
            policy,
            opts,
        )
    }

    /// Create a blocking allreduce (any world size): the synchronous
    /// baseline, i.e. [`RankCtx::partial_allreduce`] at
    /// [`QuorumPolicy::Full`] with the default algorithm selection.
    /// `scale` multiplies the result (pass `Some(1.0 / P)` for averaging).
    pub fn sync_allreduce(
        &self,
        dtype: DType,
        len: usize,
        op: ReduceOp,
        scale: Option<f64>,
    ) -> PartialAllreduce {
        let opts = PartialOpts {
            scale,
            ..PartialOpts::default()
        };
        self.partial_allreduce(dtype, len, op, QuorumPolicy::Full, opts)
    }

    /// Message-based barrier across all ranks (the built-in collective 0).
    pub fn barrier(&self) {
        cross(&mut self.barrier.borrow_mut());
    }

    /// The consensus half of [`RankCtx::evict`] and [`RankCtx::admit`]:
    /// Max-allreduce the build horizons over the ranks not in `evicted`
    /// (sorted) and return the agreed fence round, plus the barrier over
    /// the same ranks that the caller enters once it has applied the
    /// membership change. Both collectives are registered lazily at the
    /// id pair reserved for `ar`'s next
    /// membership event — the epoch counts evictions *and* admissions as
    /// they are applied, so neither mixed sequences nor several events
    /// that agree on one fence ever reuse a pair.
    fn agree_fence(&self, ar: &PartialAllreduce, evicted: &[Rank]) -> (u64, PartialAllreduce) {
        let base = EVICTION_COLL_BASE + 2 * ar.eviction_epoch() as u32;
        let mut fence = self.register_allreduce(
            CollId(base),
            evicted.to_vec(),
            DType::I64,
            1,
            ReduceOp::Max,
            QuorumPolicy::Full,
            PartialOpts::default(),
        );
        let gate = barrier_over(
            &self.engine,
            CollId(base + 1),
            self.rank,
            self.size,
            self.seed,
            evicted.to_vec(),
        );
        let agreed = fence.allreduce(&TypedBuf::from(vec![ar.horizon() as i64]));
        let fence_round = agreed.data.as_i64().expect("i64 fence")[0] as u64;
        (fence_round, gate)
    }

    /// Evict `dead` ranks from a partial allreduce: every survivor must
    /// call this with the same `dead` set (SPMD), after which rounds from
    /// the agreed fence onward are scheduled over the surviving ranks
    /// only. Returns the fence round.
    ///
    /// Protocol: survivors Max-allreduce their build horizons over the
    /// live set to agree on a fence `F` no rank has built past, apply
    /// `evict_from(F, dead)` locally, then barrier over the live set.
    ///
    /// Why this is race-free: the fence must exceed every round for which
    /// a *dead* rank's message might still arrive, or a survivor would
    /// mix full-world and live-set schedules for one round. Under TCP the
    /// per-peer stream is FIFO and death is observed as reader EOF, so by
    /// the time a peer is reported down every message it ever sent has
    /// already been delivered — any round it touched is already counted
    /// in some survivor's [`PartialAllreduce::horizon`], and the max over
    /// survivors covers it. Applying `evict_from` *before* the barrier
    /// meets the ordering contract stated on
    /// [`PartialAllreduce::evict_from`].
    ///
    /// The consensus collectives themselves are registered lazily at a
    /// reserved id (`EVICTION_COLL_BASE + 2*epoch`); the engine buffers
    /// messages for not-yet-registered collectives, so survivors need not
    /// reach this call simultaneously.
    pub fn evict(&self, ar: &PartialAllreduce, dead: &[Rank]) -> u64 {
        let mut evicted = ar.evicted_ranks();
        evicted.extend_from_slice(dead);
        evicted.sort_unstable();
        evicted.dedup();
        assert!(
            !evicted.contains(&self.rank),
            "rank {} cannot evict itself",
            self.rank
        );
        let (fence_round, mut gate) = self.agree_fence(ar, &evicted);
        ar.evict_from(fence_round, dead);
        for &d in dead {
            // Promote the local verdict to a consensus fact in the
            // liveness view: the rank is gone for good.
            self.membership.evict(d);
            self.recorder().record(LEVEL_SPANS, || EventKind::Eviction {
                peer: d as u32,
                from_round: fence_round,
            });
        }
        cross(&mut gate);
        fence_round
    }

    /// Re-admit `joiners` into a partial allreduce — the eviction fence
    /// run in reverse. Every participant of the *expanded* world
    /// (survivors **and** joiners) must call this with the same
    /// `joiners` set (SPMD). Returns the admission fence round `F`:
    /// rounds ≥ `F` are scheduled over the grown live set.
    ///
    /// Protocol: all participants Max-allreduce their build horizons
    /// over the expanded live set to agree on an admission fence `F` no
    /// rank has built past, apply `admit_from(F, joiners)` locally
    /// (joiners additionally fast-forward their round counter to `F` —
    /// rounds < `F` ran while they were absent), then barrier over the
    /// expanded live set.
    ///
    /// Joiner precondition: before calling this, a joiner must have
    /// registered its collectives in SPMD order and installed the
    /// survivors' segment state with
    /// [`PartialAllreduce::import_state`] — its membership-event epoch
    /// must match the survivors' so the consensus collective ids line
    /// up, and its membership log must already know which rounds it was
    /// absent from.
    ///
    /// Why a joiner cannot pollute rounds < `F`: the fence is the max
    /// horizon over every participant, so every round any survivor has
    /// started (or seen a message for) lies below `F`; the joiner's
    /// first deposit after fast-forward is for round `F` itself, and it
    /// sends nothing before the fence consensus completes. Survivors
    /// apply `admit_from` *before* entering the barrier, so barrier
    /// completion implies every participant builds rounds ≥ `F` over
    /// the identical grown live set — no round mixes shrunken and grown
    /// schedules.
    pub fn admit(&self, ar: &mut PartialAllreduce, joiners: &[Rank]) -> u64 {
        let mut evicted = ar.evicted_ranks();
        evicted.retain(|r| !joiners.contains(r));
        assert!(
            !evicted.contains(&self.rank),
            "rank {} is neither a survivor nor a joiner",
            self.rank
        );
        for &j in joiners {
            // Reverse the liveness verdict *before* the fence consensus:
            // the transport drops sends to Down peers, so a survivor's
            // fence contribution toward the joiner would never leave the
            // building otherwise. Entering this SPMD call *is* the
            // admission decision; the allreduce below only computes the
            // fence round. The one sanctioned Evicted → Alive transition.
            self.membership.readmit(j);
            // The engine's null-synthesis verdict reverses too, and it
            // must land before the fence activations posted below (both
            // queue on this rank's inbox, in order) — otherwise every
            // instance this engine builds from here on, fence included,
            // would keep nulling the joiner's contributions.
            self.engine.peer_up(j);
        }
        let (fence_round, mut gate) = self.agree_fence(ar, &evicted);
        if joiners.contains(&self.rank) {
            ar.fast_forward_to(fence_round);
        }
        ar.admit_from(fence_round, joiners);
        cross(&mut gate);
        fence_round
    }

    /// `MPI_Finalize` equivalent: barrier so no peer still needs us, then
    /// stop the engine. Call exactly once per rank at the end of the SPMD
    /// program.
    pub fn finalize(self) {
        self.barrier();
        self.engine.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcoll_comm::{TypedBuf, World, WorldConfig};

    #[test]
    fn multiple_collectives_coexist() {
        // Two allreduces and the built-in barrier (id 0), interleaved
        // across rounds: the ids allocated SPMD-style keep their traffic
        // separate.
        let p = 4;
        let out = World::launch(WorldConfig::instant(p), move |c| {
            let ctx = RankCtx::new(c);
            let mut a = ctx.sync_allreduce(DType::I64, 1, ReduceOp::Sum, None);
            let mut b = ctx.sync_allreduce(DType::I64, 1, ReduceOp::Max, None);
            let me = ctx.rank() as i64;
            let mut got = Vec::new();
            for round in 0..4 {
                let s = a.allreduce(&TypedBuf::from(vec![me + round]));
                let m = b.allreduce(&TypedBuf::from(vec![me * round]));
                ctx.barrier();
                got.push((s.data.as_i64().unwrap()[0], m.data.as_i64().unwrap()[0]));
            }
            ctx.finalize();
            got
        });
        for ranks in out {
            for (round, (s, m)) in ranks.iter().enumerate() {
                let round = round as i64;
                assert_eq!(*s, 6 + 4 * round); // Σ(rank) + P*round
                assert_eq!(*m, 3 * round); // max(rank*round)
            }
        }
    }

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
                let coll = CollId(0x100);
                let evicted = vec![0, 2, 5];
                let mut gate = barrier_over(&ctx.engine, coll, ctx.rank, 6, ctx.seed, evicted);
                std::thread::sleep(Duration::from_millis(20 * i as u64));
                let arrived = std::time::Instant::now();
                cross(&mut gate);
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

    #[test]
    fn back_to_back_evictions_agree_on_one_fence_and_survivors_continue() {
        // Eight ranks run three Full rounds in lockstep, then the
        // survivors evict 7, 6 and 5 one call at a time with no round in
        // between: nobody has built past round 3, so all three fences
        // are 3 and share one segment — yet each must run its consensus
        // on a fresh collective-id pair (a reused pair finds its round 0
        // already completed and hangs). The five survivors keep going
        // (a non-power-of-two live set: the segmented-ring fallback);
        // the evicted head straight for finalize.
        let p = 8;
        let out = World::launch(WorldConfig::instant(p), move |c| {
            let ctx = RankCtx::new(c);
            let mut ar = ctx.sync_allreduce(DType::F32, 8, ReduceOp::Sum, None);
            let me = ctx.rank() as f32 + 1.0; // contributions 1..=8
            let mut sums = Vec::new();
            for _ in 0..3 {
                let out = ar.allreduce(&TypedBuf::from(vec![me; 8]));
                sums.push(out.data.as_f32().unwrap()[0]);
            }
            let fences: Vec<u64> = [7, 6, 5]
                .into_iter()
                .filter(|victim| ctx.rank() < *victim)
                .map(|victim| ctx.evict(&ar, &[victim]))
                .collect();
            if ctx.rank() < 5 {
                assert_eq!(ar.evicted_ranks(), vec![5, 6, 7]);
                assert_eq!(ar.eviction_epoch(), 3);
                for _ in 0..3 {
                    let out = ar.allreduce(&TypedBuf::from(vec![me; 8]));
                    sums.push(out.data.as_f32().unwrap()[0]);
                }
            }
            ctx.finalize();
            (fences, sums)
        });
        for (rank, (fences, sums)) in out.iter().enumerate() {
            let calls = 7usize.saturating_sub(rank).min(3);
            assert_eq!(fences, &vec![3; calls], "rank {rank}");
            let want: &[f32] = if rank < 5 {
                &[36.0, 36.0, 36.0, 15.0, 15.0, 15.0]
            } else {
                &[36.0; 3]
            };
            assert_eq!(sums, want, "rank {rank}"); // 1+…+8, then 1+…+5
        }
    }

    #[test]
    fn admit_reverses_eviction_and_the_world_grows_back() {
        // Four ranks in lockstep; ranks 0-2 evict rank 3, run three
        // shrunken rounds, then all four run the admission fence and the
        // full-world sums come back. The evictee applies the eviction
        // segment locally (it cannot join the survivors' consensus, but
        // under Full-quorum lockstep the fence is deterministic) so its
        // membership epoch lines up for the admission collective ids.
        let p = 4;
        let out = World::launch(WorldConfig::instant(p), move |c| {
            let ctx = RankCtx::new(c);
            let mut ar = ctx.partial_allreduce(
                DType::F32,
                8,
                ReduceOp::Sum,
                QuorumPolicy::Full,
                PartialOpts::default(),
            );
            let me = ctx.rank() as f32 + 1.0; // contributions 1..=4
            let mut sums = Vec::new();
            for _ in 0..5 {
                let out = ar.allreduce(&TypedBuf::from(vec![me; 8]));
                sums.push(out.data.as_f32().unwrap()[0]);
            }
            // Full quorum leaves every rank at next_round = 5: the fence
            // the survivors will agree on is exactly 5.
            if ctx.rank() == 3 {
                ar.evict_from(5, &[3]);
            } else {
                let fence = ctx.evict(&ar, &[3]);
                assert_eq!(fence, 5);
                for _ in 0..3 {
                    let out = ar.allreduce(&TypedBuf::from(vec![me; 8]));
                    sums.push(out.data.as_f32().unwrap()[0]);
                }
            }
            // Shrunken Full-quorum lockstep again: survivors sit at
            // next_round = 8, the evictee still at 5 — the admission
            // fence must be the max, 8.
            let fence = ctx.admit(&mut ar, &[3]);
            assert_eq!(fence, 8, "rank {}", ctx.rank());
            assert_eq!(ar.evicted_ranks(), Vec::<usize>::new());
            assert_eq!(ar.eviction_epoch(), 2);
            assert!(ctx.membership().live().contains(&3));
            for _ in 0..5 {
                let out = ar.allreduce(&TypedBuf::from(vec![me; 8]));
                sums.push(out.data.as_f32().unwrap()[0]);
            }
            ctx.finalize();
            sums
        });
        for (rank, sums) in out.iter().enumerate() {
            if rank == 3 {
                // 5 full rounds, then 5 post-admission full rounds.
                assert_eq!(sums.len(), 10, "rank {rank}");
                for (r, s) in sums.iter().enumerate() {
                    assert_eq!(*s, 10.0, "rank {rank} round {r}");
                }
            } else {
                // 5 full, 3 shrunken (1+2+3 = 6), 5 grown-back full.
                assert_eq!(sums.len(), 13, "rank {rank}");
                for (r, s) in sums.iter().enumerate() {
                    let want = if (5..8).contains(&r) { 6.0 } else { 10.0 };
                    assert_eq!(*s, want, "rank {rank} round {r}");
                }
            }
        }
    }

    #[test]
    fn finalize_is_clean_under_skew() {
        // Heavily skewed ranks finalize without deadlock or panic.
        let p = 8;
        World::launch(WorldConfig::instant(p), move |c| {
            let ctx = RankCtx::new(c);
            let mut ar = ctx.sync_allreduce(DType::F32, 16, ReduceOp::Sum, None);
            std::thread::sleep(std::time::Duration::from_millis(
                (ctx.rank() as u64 * 13) % 50,
            ));
            let _ = ar.allreduce(&TypedBuf::zeros(DType::F32, 16));
            ctx.finalize();
        });
    }
}
