//! Transport conformance: the same SPMD programs must behave identically
//! on the in-process backend (ranks as threads) and the TCP backend
//! (ranks as loopback processes).
//!
//! Each test runs its closure through [`both_backends`], which executes
//! it under `World::launch` and then under `World::launch_tcp`. For the
//! TCP half the test binary re-`exec`s itself with `--exact <test name>`,
//! so a worker process runs exactly one test, reaches the same launch
//! call, and becomes its rank (exiting inside `launch_tcp`); only the
//! parent reaches the assertions.

use eager_sgd_repro::comm::{
    is_tcp_worker, CollId, Communicator, DType, Envelope, ReduceOp, TcpOpts, TypedBuf, WireTag,
    World, WorldConfig,
};
use eager_sgd_repro::prelude::{AlgoSelector, AllreduceAlgo, PartialOpts, QuorumPolicy, RankCtx};
use std::time::Duration;

/// Run `f` on the in-process backend and on the TCP backend, returning
/// one per-rank result vector per backend (labeled for assertion
/// messages). In a TCP worker process the in-process half is skipped —
/// it belongs to the parent — and the TCP call never returns.
fn both_backends<T, F>(test_name: &str, cfg: WorldConfig, f: F) -> Vec<(&'static str, Vec<T>)>
where
    T: Send + 'static + serde::Serialize + serde::Deserialize,
    F: Fn(Communicator) -> T + Send + Sync + Clone + 'static,
{
    let mut out = Vec::new();
    if !is_tcp_worker() {
        out.push(("inproc", World::launch(cfg.clone(), f.clone())));
    }
    let opts =
        TcpOpts::labeled(test_name).with_child_args(vec![test_name.to_string(), "--exact".into()]);
    if let Some(results) = World::launch_tcp(cfg, opts, f) {
        out.push(("tcp", results));
    }
    // Workers never get here (they exit inside launch_tcp); the parent
    // must have exercised both backends, or the test proves nothing.
    assert_eq!(out.len(), 2, "expected inproc + tcp runs");
    out
}

fn tag(sem: u32) -> WireTag {
    WireTag::new(CollId(40), 0, sem)
}

/// Same-pair messages must never overtake: a 64-message burst to the
/// next rank arrives in send order through a mailbox and across a real
/// socket. (The simulator's jitter-proof clamp has its own test,
/// `comm::sim::tests::same_pair_messages_do_not_overtake_under_jitter`.)
#[test]
fn fifo_per_pair() {
    const N: u32 = 64;
    let cfg = WorldConfig::instant(4).with_seed(11);
    for (backend, per_rank) in both_backends("fifo_per_pair", cfg, |c| {
        let next = (c.rank() + 1) % c.size();
        for i in 0..N {
            c.send(next, tag(i), Some(TypedBuf::from(vec![i as i32])));
        }
        let mut seen = Vec::new();
        while seen.len() < N as usize {
            match c.inbox().recv() {
                Some(Envelope::Data(m)) => seen.push(m.tag.sem),
                other => panic!("unexpected envelope {other:?}"),
            }
        }
        seen
    }) {
        let want: Vec<u32> = (0..N).collect();
        for (rank, seen) in per_rank.iter().enumerate() {
            assert_eq!(seen, &want, "{backend}: rank {rank} saw reordered messages");
        }
    }
}

/// Zero-length buffers, payload-free control messages, every dtype, and a
/// multi-MiB tensor all round-trip bit-exactly. Per-pair FIFO makes the
/// arrival order deterministic, so the receiver checks contents in order.
#[test]
fn payload_round_trips_zero_len_and_multi_mib() {
    const BIG: usize = 1 << 19; // 2 MiB of f32
    let cfg = WorldConfig::instant(2).with_seed(3);
    for (backend, per_rank) in both_backends(
        "payload_round_trips_zero_len_and_multi_mib",
        cfg,
        |c| -> bool {
            let big: Vec<f32> = (0..BIG).map(|i| (i as f32).sin()).collect();
            if c.rank() == 0 {
                c.send(1, tag(0), Some(TypedBuf::zeros(DType::F32, 0)));
                c.send(1, tag(1), None);
                c.send(1, tag(2), Some(TypedBuf::from(big)));
                c.send(
                    1,
                    tag(3),
                    Some(TypedBuf::from(vec![f64::MIN_POSITIVE, -0.0])),
                );
                c.send(1, tag(4), Some(TypedBuf::from(vec![i32::MIN, i32::MAX])));
                c.send(1, tag(5), Some(TypedBuf::from(vec![i64::MIN, i64::MAX])));
                return true;
            }
            let recv = || match c.inbox().recv() {
                Some(Envelope::Data(m)) => m,
                other => panic!("unexpected envelope {other:?}"),
            };
            let zero = recv();
            let ctl = recv();
            let tensor = recv();
            let floats = recv();
            let ints = recv();
            let longs = recv();
            // Received payloads may carry undecoded wire bytes on the TCP
            // backend; `into_buf` materializes either representation.
            let buf = |m: eager_sgd_repro::comm::Message| m.payload.map(|p| p.into_buf());
            zero.payload.as_ref().is_some_and(|p| p.is_empty())
                && zero.tag.sem == 0
                && ctl.payload.is_none()
                && buf(tensor)
                    .as_ref()
                    .and_then(|b| b.as_f32())
                    .is_some_and(|p| p.len() == BIG && p == &big[..])
                && buf(floats).as_ref().and_then(|b| b.as_f64())
                    == Some(&[f64::MIN_POSITIVE, -0.0][..])
                && buf(ints).as_ref().and_then(|b| b.as_i32()) == Some(&[i32::MIN, i32::MAX][..])
                && buf(longs).as_ref().and_then(|b| b.as_i64()) == Some(&[i64::MIN, i64::MAX][..])
        },
    ) {
        assert_eq!(per_rank, vec![true, true], "{backend}: payload mismatch");
    }
}

/// A rank that finishes immediately after a burst of sends must not lose
/// them: teardown drains the socket writers' queues before the goodbye
/// handshake, so a sender that exits its process right after a
/// 256-message burst still delivers all of it.
#[test]
fn shutdown_drains_in_flight_messages() {
    const N: u32 = 256;
    let cfg = WorldConfig::instant(2).with_seed(4);
    for (backend, per_rank) in both_backends("shutdown_drains_in_flight_messages", cfg, |c| {
        if c.rank() == 0 {
            for i in 0..N {
                c.send(1, tag(i), Some(TypedBuf::from(vec![i as i64; 32])));
            }
            // Return (and, on TCP, exit the whole process) right away.
            return N;
        }
        let mut got = 0u32;
        while got < N {
            match c.inbox().recv() {
                Some(Envelope::Data(m)) => {
                    assert_eq!(m.tag.sem, got, "drained messages must stay FIFO");
                    got += 1;
                }
                Some(Envelope::Shutdown | Envelope::PeerDown { .. } | Envelope::PeerUp { .. }) => {
                    continue
                }
                None => break,
            }
        }
        got
    }) {
        assert_eq!(
            per_rank,
            vec![N, N],
            "{backend}: in-flight messages were dropped at shutdown"
        );
    }
}

/// Bounded-backpressure conformance: a deliberately slow reader must
/// stall the sender at the configured queue bound instead of letting it
/// buffer the whole flood, and the stall must not cost ordering — FIFO
/// and complete delivery still hold. On the in-process backend the
/// sender's wall clock is pinned to the reader's drain rate (the direct
/// proof of blocking backpressure); on TCP the kernel socket buffers add
/// slack, so there the assertions are the bounded queue depth plus
/// lossless FIFO delivery.
#[test]
fn slow_reader_exerts_bounded_backpressure() {
    const N: u32 = 96;
    const CAP: usize = 8;
    const ELEMS: usize = 16 << 10; // 64 KiB payloads: too big to hide in slack
    let cfg = WorldConfig::instant(2)
        .with_seed(6)
        .with_queue_capacity(CAP);
    for (backend, per_rank) in both_backends("slow_reader_exerts_bounded_backpressure", cfg, |c| {
        if c.rank() == 0 {
            let t0 = std::time::Instant::now();
            for i in 0..N {
                c.send(1, tag(i), Some(TypedBuf::from(vec![i as f32; ELEMS])));
            }
            let elapsed_ms = t0.elapsed().as_millis() as u64;
            let s = c.comm_stats().snapshot();
            (s.peak_queue_depth <= CAP as u64, s.send_stalls, elapsed_ms)
        } else {
            let mut got = 0u32;
            while got < N {
                // The slow consumer: drain far slower than the sender
                // can produce.
                std::thread::sleep(Duration::from_millis(2));
                match c.inbox().recv() {
                    Some(Envelope::Data(m)) => {
                        assert_eq!(m.tag.sem, got, "FIFO must survive backpressure");
                        let p = m.payload.expect("flood payload");
                        assert_eq!(p.len(), ELEMS);
                        assert_eq!(p.to_buf().as_f32().unwrap()[0], got as f32);
                        got += 1;
                    }
                    Some(
                        Envelope::Shutdown | Envelope::PeerDown { .. } | Envelope::PeerUp { .. },
                    ) => continue,
                    None => break,
                }
            }
            (true, 0, got as u64)
        }
    }) {
        let (depth_ok, stalls, sender_ms) = per_rank[0];
        assert!(depth_ok, "{backend}: queue depth exceeded the bound");
        assert_eq!(per_rank[1].2, N as u64, "{backend}: messages lost");
        if backend == "inproc" {
            assert!(stalls > 0, "{backend}: sender never stalled");
            assert!(
                sender_ms >= 100,
                "{backend}: sender finished in {sender_ms} ms — it outran \
                 the reader instead of being backpressured"
            );
        }
    }
}

/// The full collectives stack (engine + sync/partial collectives +
/// message barrier) produces identical deterministic results on both
/// backends — the acceptance bar for the transport swap.
#[test]
fn collectives_results_identical_on_both_backends() {
    const P: usize = 4;
    const ROUNDS: i64 = 6;
    let cfg = WorldConfig::instant(P).with_seed(21);
    let runs = both_backends("collectives_results_identical_on_both_backends", cfg, |c| {
        let ctx = RankCtx::new(c);
        let mut sum = ctx.sync_allreduce(DType::I64, 1, ReduceOp::Sum, None);
        let mut chain = ctx.partial_allreduce(
            DType::I64,
            1,
            ReduceOp::Sum,
            QuorumPolicy::Chain(P),
            PartialOpts::default(),
        );
        let mut bc = ctx.bcast(1);
        let me = ctx.rank() as i64;
        let mut acc = Vec::new();
        for round in 0..ROUNDS {
            let s = sum.allreduce(&TypedBuf::from(vec![me + round]));
            let p = chain.allreduce(&TypedBuf::from(vec![me * round]));
            let payload = TypedBuf::from(vec![round * 7]);
            let b = bc.bcast((ctx.rank() == 1).then_some(&payload));
            acc.push((
                s.data.as_i64().unwrap()[0],
                p.data.as_i64().unwrap()[0],
                b.as_i64().unwrap()[0],
            ));
        }
        ctx.finalize();
        acc
    });
    for (backend, per_rank) in &runs {
        for (rank, rows) in per_rank.iter().enumerate() {
            for (round, &(s, p, b)) in rows.iter().enumerate() {
                let round = round as i64;
                assert_eq!(s, 6 + P as i64 * round, "{backend} rank {rank} sync");
                assert_eq!(p, 6 * round, "{backend} rank {rank} chain partial");
                assert_eq!(b, 7 * round, "{backend} rank {rank} bcast");
            }
        }
    }
    // Cross-backend identity, not just per-backend correctness.
    if runs.len() == 2 {
        assert_eq!(runs[0].1, runs[1].1, "backends disagree");
    }
}

/// The segmented reduce-scatter + allgather allreduce produces identical
/// deterministic results on both backends. The tensor length and forced
/// segment size give ragged chunks (tails and degenerate empties), so
/// the wire carries sub-range payload views and zero-length chunks; over
/// TCP the reduce side folds them straight from frame bytes
/// (`combine_le_bytes` is live on this path).
#[test]
fn segmented_allreduce_identical_on_both_backends() {
    const P: usize = 4;
    const N: usize = 45; // 3 segments of 16 elems + ragged tail
    const ROUNDS: u64 = 5;
    let cfg = WorldConfig::instant(P).with_seed(17);
    let runs = both_backends("segmented_allreduce_identical_on_both_backends", cfg, |c| {
        let ctx = RankCtx::new(c);
        let mut ar = ctx.partial_allreduce(
            DType::F32,
            N,
            ReduceOp::Sum,
            QuorumPolicy::Chain(P),
            PartialOpts {
                algo: AlgoSelector {
                    pin: Some(AllreduceAlgo::SegmentedRing),
                    segment_bytes: 16 * 4,
                    pipeline_depth: 2,
                    ..AlgoSelector::default()
                },
                ..PartialOpts::default()
            },
        );
        let me = ctx.rank();
        let mut acc = Vec::new();
        for round in 0..ROUNDS {
            let contrib: Vec<f32> = (0..N)
                .map(|i| (me * 7 + i + round as usize) as f32)
                .collect();
            let out = ar.allreduce(&TypedBuf::from(contrib));
            acc.push(out.data.as_f32().expect("f32 result").to_vec());
        }
        ctx.finalize();
        acc
    });
    for (backend, per_rank) in &runs {
        for (rank, rounds) in per_rank.iter().enumerate() {
            for (round, v) in rounds.iter().enumerate() {
                // Chain-of-all: every contribution is provably fresh, so
                // Σ_r (r·7 + i + round) is exact (small integers in f32).
                for (i, &x) in v.iter().enumerate() {
                    let want = (0..P).map(|r| (r * 7 + i + round) as f32).sum::<f32>();
                    assert_eq!(x, want, "{backend} rank {rank} round {round} elem {i}");
                }
            }
        }
    }
    if runs.len() == 2 {
        assert_eq!(runs[0].1, runs[1].1, "backends disagree");
    }
}

/// Segment pipelining must respect the bounded-queue backpressure: with
/// a deliberately slow rank and a queue bound far below the number of
/// in-flight chunks a free-running pipeline would generate, the
/// per-rank `CommStats` peak depth stays within the configured bound on
/// both backends (no unbounded queue growth) and the results stay exact.
#[test]
fn segmented_pipelining_respects_bounded_backpressure() {
    const P: usize = 4;
    const N: usize = 32 * 1024; // 32 segments of 1024 elems
    const CAP: usize = 8;
    const ROUNDS: u64 = 3;
    let cfg = WorldConfig::instant(P)
        .with_seed(23)
        .with_queue_capacity(CAP);
    for (backend, per_rank) in both_backends(
        "segmented_pipelining_respects_bounded_backpressure",
        cfg,
        |c| {
            let stats = c.comm_stats();
            let ctx = RankCtx::new(c);
            let mut ar = ctx.partial_allreduce(
                DType::F32,
                N,
                ReduceOp::Sum,
                QuorumPolicy::Full,
                PartialOpts {
                    algo: AlgoSelector {
                        pin: Some(AllreduceAlgo::SegmentedRing),
                        segment_bytes: 1024 * 4,
                        pipeline_depth: 2,
                        ..AlgoSelector::default()
                    },
                    ..PartialOpts::default()
                },
            );
            let me = ctx.rank();
            let mut ok = true;
            for _ in 0..ROUNDS {
                if me == P - 1 {
                    // The slow rank: everyone else's pipeline pushes
                    // ahead and must be throttled by the bounded queues,
                    // not buffer an unbounded chunk backlog.
                    std::thread::sleep(Duration::from_millis(40));
                }
                let out = ar.allreduce(&TypedBuf::from(vec![1.0f32; N]));
                ok &= out
                    .data
                    .as_f32()
                    .expect("f32")
                    .iter()
                    .all(|x| *x == P as f32);
            }
            ctx.barrier();
            let peak = stats.snapshot().peak_queue_depth;
            ctx.finalize();
            (ok, peak)
        },
    ) {
        for (rank, &(ok, peak)) in per_rank.iter().enumerate() {
            assert!(ok, "{backend}: rank {rank} saw a wrong sum");
            assert!(
                peak <= CAP as u64,
                "{backend}: rank {rank} queue depth {peak} exceeded the bound {CAP}"
            );
        }
    }
}

/// The Fig. 7 gradient-conservation property (every deposit lands in
/// exactly one round's sum) holds over real sockets: the timing of fresh
/// vs. stale differs per backend, but the conservation total must not.
#[test]
fn partial_allreduce_conserves_deposits_on_both_backends() {
    const P: usize = 4;
    const ROUNDS: u64 = 8;
    let cfg = WorldConfig::instant(P).with_seed(9);
    for (backend, per_rank) in both_backends(
        "partial_allreduce_conserves_deposits_on_both_backends",
        cfg,
        |c| {
            let ctx = RankCtx::new(c);
            let mut ar = ctx.partial_allreduce(
                DType::F64,
                1,
                ReduceOp::Sum,
                QuorumPolicy::Solo,
                PartialOpts::default(),
            );
            let mut total = 0.0f64;
            for round in 0..ROUNDS {
                // Deterministic per-rank skew so backends face the same
                // protocol, whatever the wall-clock details.
                std::thread::sleep(Duration::from_micros(
                    (ctx.rank() as u64 * 700 + round * 130) % 4000,
                ));
                total += ar
                    .allreduce(&TypedBuf::from(vec![1.0f64]))
                    .data
                    .as_f64()
                    .unwrap()[0];
                ctx.barrier();
            }
            total += ar
                .allreduce(&TypedBuf::from(vec![0.0f64]))
                .data
                .as_f64()
                .unwrap()[0];
            ctx.barrier();
            ctx.finalize();
            total
        },
    ) {
        let expected = (P as f64) * (ROUNDS as f64);
        for (rank, &total) in per_rank.iter().enumerate() {
            assert!(
                (total - expected).abs() < 1e-9,
                "{backend}: rank {rank} accounted {total}, deposited {expected}"
            );
        }
    }
}
