//! Cross-crate integration: partial + synchronous collectives,
//! concurrent collectives, determinism, and the gradient-conservation
//! property of the Fig. 7 protocol.

use eager_sgd_repro::prelude::*;
use std::time::Duration;

/// The Fig. 7 protocol conserves gradient mass: across barrier-aligned
/// rounds plus one flush round, every deposit lands in exactly one
/// round's sum (fresh or stale) — nothing is dropped, nothing is
/// double-counted.
#[test]
fn partial_allreduce_conserves_deposits() {
    const P: usize = 8;
    const ROUNDS: u64 = 12;
    let sums = World::launch(WorldConfig::instant(P).with_seed(3), |c| {
        let ctx = RankCtx::new(c);
        let mut ar = ctx.partial_allreduce(
            DType::F64,
            1,
            ReduceOp::Sum,
            QuorumPolicy::Solo,
            PartialOpts::default(),
        );
        let mut rng = TensorRng::new(100 + ctx.rank() as u64);
        let mut seen = Vec::new();
        for _ in 0..ROUNDS {
            // Random skew per rank per round.
            std::thread::sleep(Duration::from_micros(rng.index(8000) as u64));
            let out = ar.allreduce(&TypedBuf::from(vec![1.0f64]));
            seen.push(out);
            // Barrier so every round completes everywhere before the next
            // begins — each round's result is then observed exactly once.
            ctx.barrier();
        }
        // Flush round: contribute zero; any still-pending stale deposits
        // ride along.
        let flush = ar.allreduce(&TypedBuf::from(vec![0.0f64]));
        ctx.barrier();
        ctx.finalize();
        let total: f64 = seen
            .iter()
            .map(|o| o.data.as_f64().unwrap()[0])
            .sum::<f64>()
            + flush.data.as_f64().unwrap()[0];
        total
    });
    // Every rank observed every round (barrier-aligned), so each must
    // account for exactly P × ROUNDS deposited units.
    let expected = (P as f64) * (ROUNDS as f64);
    for (r, &total) in sums.iter().enumerate() {
        assert!(
            (total - expected).abs() < 1e-9,
            "rank {r}: accounted {total}, deposited {expected}"
        );
    }
}

#[test]
fn sync_allreduce_matches_direct_ring() {
    // Two independent allreduce implementations agree.
    const P: usize = 8;
    const N: usize = 131;
    let engine_result = World::launch(WorldConfig::instant(P), |c| {
        let ctx = RankCtx::new(c);
        let mut ar = ctx.sync_allreduce(DType::F32, N, ReduceOp::Sum, None);
        let me = ctx.rank();
        let data: Vec<f32> = (0..N).map(|i| ((me * N + i) as f32).sin()).collect();
        let out = ar.allreduce(&TypedBuf::from(data));
        ctx.finalize();
        out.data.as_f32().unwrap().to_vec()
    });
    let ring_result = World::launch(WorldConfig::instant(P), |c| {
        let me = c.rank();
        let (h, inbox) = c.split();
        let mut m = comm::Matcher::new(inbox);
        let mut dc = pcoll::algos::DirectCollectives::new(&h, &mut m, comm::CollId(5000));
        let mut data: Vec<f32> = (0..N).map(|i| ((me * N + i) as f32).sin()).collect();
        dc.ring_allreduce_f32(&mut data, ReduceOp::Sum);
        data
    });
    for r in 0..P {
        for i in 0..N {
            assert!(
                (engine_result[r][i] - ring_result[r][i]).abs() < 1e-4,
                "engine vs ring at rank {r} idx {i}"
            );
        }
    }
}

use eager_sgd_repro::comm;

#[test]
fn many_concurrent_collectives_do_not_cross_talk() {
    const P: usize = 4;
    let out = World::launch(WorldConfig::instant(P), |c| {
        let ctx = RankCtx::new(c);
        // Five collectives of three kinds, interleaved over ten rounds.
        let mut p1 = ctx.partial_allreduce(
            DType::I64,
            1,
            ReduceOp::Sum,
            QuorumPolicy::Full,
            PartialOpts::default(),
        );
        let mut p2 = ctx.partial_allreduce(
            DType::I64,
            1,
            ReduceOp::Max,
            QuorumPolicy::Chain(P),
            PartialOpts::default(),
        );
        let mut s1 = ctx.sync_allreduce(DType::I64, 1, ReduceOp::Sum, None);
        let mut bc = ctx.bcast(1);
        let mut rd = ctx.reduce(2, ReduceOp::Min);
        let me = ctx.rank() as i64;
        let mut acc = Vec::new();
        for round in 0..10i64 {
            let a = p1.allreduce(&TypedBuf::from(vec![me + round]));
            let b = p2.allreduce(&TypedBuf::from(vec![me * round]));
            let c_ = s1.allreduce(&TypedBuf::from(vec![round]));
            let payload = TypedBuf::from(vec![round * 7]);
            let d = bc.bcast((ctx.rank() == 1).then_some(&payload));
            let e = rd.reduce(&TypedBuf::from(vec![me - round]));
            acc.push((
                a.data.as_i64().unwrap()[0],
                b.data.as_i64().unwrap()[0],
                c_.data.as_i64().unwrap()[0],
                d.as_i64().unwrap()[0],
                e.map(|x| x.as_i64().unwrap()[0]),
            ));
        }
        ctx.finalize();
        acc
    });
    for (rank, rows) in out.iter().enumerate() {
        for (round, (a, b, c, d, e)) in rows.iter().enumerate() {
            let round = round as i64;
            assert_eq!(*a, 6 + 4 * round, "p1 rank {rank} round {round}");
            assert_eq!(*b, 3 * round, "p2 rank {rank} round {round}");
            assert_eq!(*c, 4 * round, "s1 rank {rank} round {round}");
            assert_eq!(*d, 7 * round, "bcast rank {rank} round {round}");
            if rank == 2 {
                assert_eq!(e.unwrap(), -round, "reduce root round {round}");
            } else {
                assert!(e.is_none());
            }
        }
    }
}

#[test]
fn majority_initiators_agree_across_ranks() {
    // All ranks must compute identical per-round candidates without
    // communication (the shared-seed consensus of §4.2).
    const P: usize = 16;
    let out = World::launch(WorldConfig::instant(P).with_seed(77), |c| {
        let ctx = RankCtx::new(c);
        let ar = ctx.partial_allreduce(
            DType::F32,
            1,
            ReduceOp::Sum,
            QuorumPolicy::Majority,
            PartialOpts::default(),
        );
        let cands: Vec<Vec<usize>> = (0..32).map(|r| ar.candidates(r)).collect();
        ctx.finalize();
        cands
    });
    for r in 1..P {
        assert_eq!(out[0], out[r], "rank {r} disagrees on initiators");
    }
    // And the selection varies across rounds.
    assert!(
        (1..32).any(|r| out[0][r] != out[0][0]),
        "initiator should rotate across rounds"
    );
}
