//! Deep semantic tests of the partial-collective protocol (Fig. 7 and
//! §4): degenerate worlds, extreme lag, stale-mode contrast, policy
//! spectrum behavior, and long-run garbage-collection stress.

use eager_sgd_repro::prelude::*;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn single_rank_world_is_identity() {
    for policy in [
        QuorumPolicy::Solo,
        QuorumPolicy::Majority,
        QuorumPolicy::Chain(1),
        QuorumPolicy::Full,
    ] {
        let out = World::launch(WorldConfig::instant(1), move |c| {
            let ctx = RankCtx::new(c);
            let mut ar =
                ctx.partial_allreduce(DType::F32, 3, ReduceOp::Sum, policy, PartialOpts::default());
            let r = ar.allreduce(&TypedBuf::from(vec![1.0f32, 2.0, 3.0]));
            ctx.finalize();
            r.data.as_f32().unwrap().to_vec()
        });
        assert_eq!(out[0], vec![1.0, 2.0, 3.0], "{policy:?}");
    }
}

#[test]
fn sync_collectives_work_in_single_rank_world() {
    World::launch(WorldConfig::instant(1), |c| {
        let ctx = RankCtx::new(c);
        let mut ar = ctx.sync_allreduce(DType::I64, 2, ReduceOp::Max, None);
        let r = ar.allreduce(&TypedBuf::from(vec![5i64, -5]));
        assert_eq!(r.data.as_i64().unwrap(), &[5, -5]);
        ctx.barrier();
        ctx.finalize();
    });
}

#[test]
fn replace_mode_drops_stale_mass_accumulate_keeps_it() {
    // One rank sleeps through round 0. Under Accumulate its round-0
    // deposit shows up in round 1 (sum 5); under Replace it is
    // overwritten by the round-1 deposit (sum 4).
    let run = |mode: StaleMode| {
        World::launch(WorldConfig::instant(4).with_seed(9), move |c| {
            let ctx = RankCtx::new(c);
            let mut ar = ctx.partial_allreduce(
                DType::F32,
                1,
                ReduceOp::Sum,
                QuorumPolicy::Solo,
                PartialOpts {
                    stale_mode: mode,
                    ..PartialOpts::default()
                },
            );
            if ctx.rank() == 3 {
                // Wait until the other ranks' round 0 has been dragged
                // through this rank's engine by external activation, so the
                // deposit below is genuinely stale. (A fixed sleep here is
                // racy under parallel-test machine load.)
                let deadline = std::time::Instant::now() + Duration::from_secs(10);
                while ar.counters().completions == 0 {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "round 0 never completed externally"
                    );
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            let _r0 = ar.allreduce(&TypedBuf::from(vec![1.0f32]));
            ctx.barrier();
            let r1 = ar.allreduce(&TypedBuf::from(vec![1.0f32]));
            ctx.barrier();
            ctx.finalize();
            r1.data.as_f32().unwrap()[0]
        })
    };
    // Round 1 is still eager: any rank whose fresh deposit loses the race
    // to the initiator's activation message contributes stale/null data —
    // that is the semantics under test, but it means the canonical
    // interleaving (everyone fresh) is likely, not guaranteed. Retry until
    // it occurs; per-run invariants hold unconditionally.
    // Each mode retries independently: the two runs are unrelated worlds,
    // so requiring both to hit the canonical interleaving in the same
    // iteration would square the residual flake probability.
    let mut accumulate = None;
    let mut replace = None;
    for _ in 0..25 {
        if accumulate != Some(5.0) {
            let a = run(StaleMode::Accumulate)[0];
            // Invariant: sums only come from 1.0 deposits; accumulate can
            // carry rank 3's stale+fresh mass (max 5).
            assert!((1.0..=5.0).contains(&a), "accumulate sum out of range: {a}");
            accumulate = Some(a);
        }
        if replace != Some(4.0) {
            let r = run(StaleMode::Replace)[0];
            // Invariant: replace never exceeds one unit per rank (max 4).
            assert!((1.0..=4.0).contains(&r), "replace sum out of range: {r}");
            replace = Some(r);
        }
        if accumulate == Some(5.0) && replace == Some(4.0) {
            break;
        }
    }
    assert_eq!(accumulate, Some(5.0), "stale deposit must ride along");
    assert_eq!(
        replace,
        Some(4.0),
        "replace mode must drop the stale deposit"
    );
}

#[test]
fn extreme_lag_returns_newer_round_results() {
    // A rank that sleeps through many rounds must observe
    // result_round > requested_round on wake-up (the §5 overwrite
    // effect) — and never deadlock.
    let p = 4;
    let out = World::launch(WorldConfig::instant(p).with_seed(5), move |c| {
        let ctx = RankCtx::new(c);
        let mut ar = ctx.partial_allreduce(
            DType::F32,
            1,
            ReduceOp::Sum,
            QuorumPolicy::Solo,
            PartialOpts::default(),
        );
        let mut skipped = 0u64;
        for round in 0..30u64 {
            if ctx.rank() == 0 && round == 2 {
                // Sleep while the others race ahead many rounds.
                std::thread::sleep(Duration::from_millis(400));
            }
            let out = ar.allreduce(&TypedBuf::from(vec![1.0f32]));
            if out.result_round > out.requested_round {
                skipped += 1;
            }
        }
        ctx.barrier();
        ctx.finalize();
        skipped
    });
    assert!(
        out[0] > 0,
        "the sleeper must have seen superseded rounds (got {})",
        out[0]
    );
}

#[test]
fn first_of_m_policy_races_candidates() {
    // FirstOf(2): if both candidates are slow, the round waits for the
    // first of them — everyone else's fresh data is then included.
    let p = 8;
    let out = World::launch(WorldConfig::instant(p).with_seed(123), move |c| {
        let ctx = RankCtx::new(c);
        let mut ar = ctx.partial_allreduce(
            DType::F32,
            1,
            ReduceOp::Sum,
            QuorumPolicy::FirstOf(2),
            PartialOpts::default(),
        );
        let candidates = ar.candidates(0);
        assert_eq!(candidates.len(), 2);
        // Both candidates sleep 120 ms; everyone else deposits promptly.
        if candidates.contains(&ctx.rank()) {
            std::thread::sleep(Duration::from_millis(120));
        }
        let r = ar.allreduce(&TypedBuf::from(vec![1.0f32]));
        ctx.barrier();
        ctx.finalize();
        r.data.as_f32().unwrap()[0]
    });
    // 6 non-candidates fresh + at least the initiating candidate = 7+.
    for (rank, &v) in out.iter().enumerate() {
        assert!(
            (7.0..=8.0).contains(&v),
            "rank {rank}: sum {v} should include all prompt ranks + initiator"
        );
    }
}

#[test]
fn gc_survives_a_thousand_rounds() {
    // Long-run stress: persistent schedules re-instantiate for 1000
    // rounds with random per-rank jitter; memory is bounded by GC and
    // everything completes.
    let p = 4;
    let out = World::launch(WorldConfig::instant(p).with_seed(77), move |c| {
        let ctx = RankCtx::new(c);
        let mut ar = ctx.partial_allreduce(
            DType::F32,
            8,
            ReduceOp::Sum,
            QuorumPolicy::Solo,
            PartialOpts::default(),
        );
        let mut rng = TensorRng::new(ctx.rank() as u64);
        let mut last = 0.0;
        for _ in 0..1000u64 {
            if rng.uniform() < 0.05 {
                std::thread::sleep(Duration::from_micros(rng.index(2000) as u64));
            }
            let r = ar.allreduce(&TypedBuf::from(vec![0.001f32; 8]));
            last = r.data.as_f32().unwrap()[0];
        }
        ctx.barrier();
        ctx.finalize();
        last
    });
    for v in out {
        assert!(v.is_finite());
    }
}

#[test]
fn trace_rounds_are_consistent_with_calls() {
    let p = 4;
    let rounds = 10u64;
    let out = World::launch(WorldConfig::instant(p), move |c| {
        let ctx = RankCtx::new(c);
        let log = Arc::new(RoundLog::default());
        let mut ar = ctx.partial_allreduce(
            DType::F32,
            1,
            ReduceOp::Sum,
            QuorumPolicy::Chain(p), // deterministic: everyone fresh
            PartialOpts {
                observer: Some(log.clone()),
                ..PartialOpts::default()
            },
        );
        for _ in 0..rounds {
            let _ = ar.allreduce(&TypedBuf::from(vec![1.0f32]));
        }
        ctx.barrier();
        ctx.finalize();
        log.events()
    });
    for (rank, events) in out.iter().enumerate() {
        assert_eq!(events.len(), rounds as usize, "rank {rank}");
        for t in events {
            assert!(
                t.fresh,
                "rank {rank} round {}: chain-P is always fresh",
                t.round
            );
            assert!(!t.null, "rank {rank} round {}", t.round);
        }
    }
}

#[test]
fn zero_length_buffers_are_legal() {
    let out = World::launch(WorldConfig::instant(2), |c| {
        let ctx = RankCtx::new(c);
        let mut ar = ctx.partial_allreduce(
            DType::F32,
            0,
            ReduceOp::Sum,
            QuorumPolicy::Full,
            PartialOpts::default(),
        );
        let r = ar.allreduce(&TypedBuf::from(Vec::<f32>::new()));
        ctx.finalize();
        r.data.len()
    });
    assert_eq!(out, vec![0, 0]);
}
