//! Fig. 9: average latency of MPI_Allreduce vs. majority vs. solo
//! allreduce under full linear skew, plus the number of active processes
//! (NAP) — the paper's Fig. 8 microbenchmark, verbatim:
//!
//! ```c
//! usleep(pid * 1000);                    // linearly skewed (1..32 ms)
//! begin = MPI_Wtime();
//! {MPI,Solo,Majority}_Allreduce(...);
//! latency[pid] = MPI_Wtime() - begin;
//! MPI_Barrier();                         // align before next iteration
//! ```
//!
//! Paper (32 ranks, 64 iterations, 64 B – 4 MB): solo cuts mean latency
//! ≈53×, majority ≈2.5×; NAP(solo) ≈ 1, NAP(majority) ≈ P/2 ± σ.
//! This harness runs at the paper's full millisecond scale (the skew is
//! the signal; `--time-scale` is ignored here).

use imbalance::OnlineStats;
use pcoll::{PartialOpts, QuorumPolicy, RankCtx, RoundLog};
use pcoll_comm::{DType, ReduceOp, TypedBuf, World, WorldConfig};
use repro_bench::report::{comment, row, shape_check};
use repro_bench::HarnessArgs;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq)]
enum Algo {
    Sync,
    Majority,
    Solo,
}

struct RunResult {
    mean_latency_ms: f64,
    /// Per-iteration NAP samples (partial algos only).
    nap: Vec<f64>,
}

fn bench(algo: Algo, p: usize, len: usize, iters: u64, seed: u64) -> RunResult {
    let per_rank = World::launch(WorldConfig::instant(p).with_seed(seed), move |c| {
        let ctx = RankCtx::new(c);
        let rank = ctx.rank();
        // One frontend for all three: the synchronous baseline is the
        // Full endpoint of the same collective.
        let policy = match algo {
            Algo::Sync => QuorumPolicy::Full,
            Algo::Majority => QuorumPolicy::Majority,
            Algo::Solo => QuorumPolicy::Solo,
        };
        let log = Arc::new(RoundLog::default());
        let mut ar = ctx.partial_allreduce(
            DType::F32,
            len,
            ReduceOp::Sum,
            policy,
            PartialOpts {
                observer: Some(log.clone()),
                ..PartialOpts::default()
            },
        );
        let mut lat = OnlineStats::new();
        for _it in 0..iters {
            ctx.host_barrier(); // exact alignment before the skew
                                // Fig. 8 line 4: linear skew, 1 ms .. P ms.
            std::thread::sleep(Duration::from_millis(rank as u64 + 1));
            let sendbuf = TypedBuf::from(vec![1.0f32; len]);
            let t0 = Instant::now();
            let _ = ar.allreduce(&sendbuf);
            lat.push(t0.elapsed().as_secs_f64() * 1e3);
            ctx.barrier(); // Fig. 8 line 12
        }
        ctx.finalize();
        (lat.mean(), log.events())
    });

    let mean_latency_ms = per_rank.iter().map(|(m, _)| *m).sum::<f64>() / per_rank.len() as f64;
    // NAP per round: how many ranks' snapshots carried fresh data.
    let mut nap = Vec::new();
    if algo != Algo::Sync {
        for round in 0..iters {
            let fresh = per_rank
                .iter()
                .filter(|(_, t)| t.iter().any(|tr| tr.round == round && tr.fresh))
                .count();
            nap.push(fresh as f64);
        }
    }
    RunResult {
        mean_latency_ms,
        nap,
    }
}

fn main() {
    let args = HarnessArgs::parse();
    let p = if args.quick { 8 } else { 32 };
    let iters = if args.quick { 16 } else { 64 };
    // Message sizes 64 B .. 4 MB (f32 element counts).
    let sizes: &[usize] = if args.quick {
        &[16, 1024, 65_536]
    } else {
        &[16, 128, 1024, 8192, 65_536, 1_048_576]
    };

    comment(&format!(
        "Fig 9: allreduce latency under linear skew 1..{p} ms, {p} ranks, {iters} iterations"
    ));
    comment("paper: solo ~53x and majority ~2.46x latency reduction vs MPI_Allreduce;");
    comment("       NAP(solo) ~= 1, NAP(majority) ~= P/2 with +-sigma band");
    row(&["bytes", "algo", "mean_latency_ms", "nap_mean", "nap_std"]);

    // Aggregate statistics over the latency-bound regime (collective
    // time ≪ injected skew), which is what the paper's 53x/2.46x/NAP
    // claims describe. Above ~1 MB our in-process transport becomes
    // memcpy-bandwidth-bound and recursive doubling moves ~2.5x more
    // bytes per rank than the sync reduce+bcast tree, so the partial
    // variants lose their latency edge there — reported, not hidden.
    const LATENCY_BOUND_MAX_BYTES: usize = 1 << 20;
    let mut ratios_solo = Vec::new();
    let mut ratios_major = Vec::new();
    let mut nap_solo = OnlineStats::new();
    let mut nap_major = OnlineStats::new();

    for &len in sizes {
        let bytes = len * 4;
        let sync = bench(Algo::Sync, p, len, iters, args.seed);
        let major = bench(Algo::Majority, p, len, iters, args.seed);
        let solo = bench(Algo::Solo, p, len, iters, args.seed);

        for (algo, res) in [
            ("MPI_Allreduce", &sync),
            ("Majority_Allreduce", &major),
            ("Solo_Allreduce", &solo),
        ] {
            let (nm, ns) = if res.nap.is_empty() {
                (p as f64, 0.0)
            } else {
                let mut s = OnlineStats::new();
                res.nap.iter().for_each(|&x| s.push(x));
                (s.mean(), s.std())
            };
            row(&[
                bytes.to_string(),
                algo.to_string(),
                format!("{:.3}", res.mean_latency_ms),
                format!("{nm:.2}"),
                format!("{ns:.2}"),
            ]);
        }
        if bytes <= LATENCY_BOUND_MAX_BYTES {
            ratios_solo.push(sync.mean_latency_ms / solo.mean_latency_ms);
            ratios_major.push(sync.mean_latency_ms / major.mean_latency_ms);
            major.nap.iter().for_each(|&x| nap_major.push(x));
            solo.nap.iter().for_each(|&x| nap_solo.push(x));
        }
    }
    comment(&format!(
        "(aggregates below cover the latency-bound regime, sizes <= {LATENCY_BOUND_MAX_BYTES} B)"
    ));

    let gm = |xs: &[f64]| (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp();
    let solo_ratio = gm(&ratios_solo);
    let major_ratio = gm(&ratios_major);
    comment(&format!(
        "mean latency reduction: solo {solo_ratio:.1}x, majority {major_ratio:.2}x \
         (paper: 53.32x, 2.46x)"
    ));
    comment(&format!(
        "NAP: solo {:.2}±{:.2}, majority {:.2}±{:.2} (paper: ~1 and ~{})",
        nap_solo.mean(),
        nap_solo.std(),
        nap_major.mean(),
        nap_major.std(),
        p / 2
    ));

    let mut ok = true;
    ok &= shape_check(
        "solo-much-faster-than-sync",
        solo_ratio > 8.0,
        &format!("{solo_ratio:.1}x"),
    );
    ok &= shape_check(
        "majority-moderately-faster",
        major_ratio > 1.3 && major_ratio < solo_ratio,
        &format!("{major_ratio:.2}x"),
    );
    ok &= shape_check(
        "nap-solo-near-1",
        nap_solo.mean() < 2.5,
        &format!("{:.2}", nap_solo.mean()),
    );
    ok &= shape_check(
        "nap-majority-near-half",
        (nap_major.mean() - p as f64 / 2.0).abs() < p as f64 / 5.0,
        &format!("{:.2} vs {}", nap_major.mean(), p / 2),
    );
    std::process::exit(i32::from(!ok));
}
