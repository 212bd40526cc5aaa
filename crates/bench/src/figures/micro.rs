//! Fig. 9 and the activation-phase ablation: the paper's Fig. 8
//! microbenchmark loop,
//!
//! ```c
//! usleep(pid * 1000);                    // linearly skewed (1..32 ms)
//! begin = MPI_Wtime();
//! {MPI,Solo,Majority}_Allreduce(...);
//! latency[pid] = MPI_Wtime() - begin;
//! MPI_Barrier();                         // align before next iteration
//! ```
//!
//! run on the simulator at the paper's full millisecond scale (the skew
//! is the signal; `--time-scale` is ignored here). The loop is a
//! process-arrival pattern — which rank arrives when, and how many
//! protocol hops follow — so it is measured on virtual time, where the
//! result is a pure function of `--seed` and no host thread's wake-up
//! latency is in it: `Pacing::Global`'s `offsets` are the `usleep`s, its
//! `step` is the barrier, and `SimReport::call_latency` is `latency[pid]`.

use crate::report::{comment, row, Checks};
use crate::HarnessArgs;
use imbalance::OnlineStats;
use pcoll::{Pacing, PartialOpts, QuorumPolicy, SimHarness, SimReport, SimSpec};
use pcoll_comm::{NetworkModel, SimOpts, WorldConfig};
use std::time::Duration;

/// How far past the latest arrival the next iteration starts: longer than
/// any collective here takes on any of the models (the slowest, 4 MB on
/// 32 ranks under `cloud`, is tens of virtual milliseconds).
const BARRIER: Duration = Duration::from_secs(1);

/// The Fig. 8 loop over `pauses.len()` ranks: `iters` aligned iterations
/// in which rank r arrives `pauses[r]` late at one `len`-element
/// allreduce under `policy`, on `network`.
fn skewed_allreduce(
    network: NetworkModel,
    seed: u64,
    policy: QuorumPolicy,
    len: usize,
    iters: u64,
    pauses: Vec<Duration>,
) -> SimReport {
    let latest = pauses.iter().max().copied().unwrap_or_default();
    SimHarness::run(SimSpec {
        world: WorldConfig::instant(pauses.len()).with_seed(seed),
        opts: SimOpts {
            network,
            ..SimOpts::default()
        },
        policy,
        rounds: iters,
        len,
        pacing: Pacing::Global {
            step: latest + BARRIER,
            offsets: pauses,
        },
        partial: PartialOpts::default(),
        tuner: None,
    })
}

/// Each rank's mean call latency over the run, in ms.
fn mean_latency_ms(rep: &SimReport) -> Vec<f64> {
    let mean = |calls: &Vec<Option<Duration>>| {
        let returned = calls
            .iter()
            .map(|l| l.expect("the barrier outlasts every call"));
        returned.sum::<Duration>().as_secs_f64() * 1e3 / calls.len() as f64
    };
    rep.call_latency.iter().map(mean).collect()
}

fn stats_of(xs: &[f64]) -> OnlineStats {
    let mut s = OnlineStats::new();
    xs.iter().for_each(|&x| s.push(x));
    s
}

/// Paper (32 ranks, 64 iterations, 64 B – 4 MB): solo cuts mean latency
/// ≈53×, majority ≈2.5×; NAP(solo) ≈ 1, NAP(majority) ≈ P/2 ± σ.
///
/// Pinned to the `hpc` network model: under `Instant` every virtual
/// latency that is not a wait for a late rank is zero, solo's included,
/// and the reduction factors would divide by it.
pub(super) fn fig9(args: &HarnessArgs, c: &mut Checks) {
    let (p, iters) = if args.quick { (8, 16) } else { (32, 64) };
    // Message sizes 64 B .. 4 MB (f32 element counts).
    let sizes: &[usize] = if args.quick {
        &[16, 1024, 65_536]
    } else {
        &[16, 128, 1024, 8192, 65_536, 1_048_576]
    };
    comment(&format!(
        "Fig 9: allreduce latency under linear skew 1..{p} ms, {p} ranks, {iters} iterations, \
         virtual time on the hpc network model"
    ));
    comment("paper: solo ~53x and majority ~2.46x latency reduction vs MPI_Allreduce;");
    comment("       NAP(solo) ~= 1, NAP(majority) ~= P/2 with +-sigma band");
    row(&["bytes", "algo", "mean_latency_ms", "nap_mean", "nap_std"]);

    // Aggregate statistics over the latency-bound regime (collective
    // time ≪ injected skew), which is what the paper's 53x/2.46x/NAP
    // claims describe. Above ~1 MB the modelled transfer (beta × bytes on
    // every hop) reaches milliseconds and is no longer small against the
    // skew — those rows are reported, and kept out of the aggregates.
    const LATENCY_BOUND_MAX_BYTES: usize = 1 << 20;
    // Per algo: (mean latency per latency-bound size, NAP samples there).
    let mut agg: [(Vec<f64>, Vec<f64>); 3] = Default::default();
    for &len in sizes {
        // One frontend for all three: the synchronous baseline is the
        // Full endpoint of the same collective.
        let algos = [
            ("MPI_Allreduce", QuorumPolicy::Full),
            ("Majority_Allreduce", QuorumPolicy::Majority),
            ("Solo_Allreduce", QuorumPolicy::Solo),
        ];
        for (i, (algo, policy)) in algos.into_iter().enumerate() {
            let linear = (1..=p as u64).map(Duration::from_millis).collect();
            let hpc = NetworkModel::hpc();
            let rep = skewed_allreduce(hpc, args.seed, policy, len, iters, linear);
            let latency = mean_latency_ms(&rep).iter().sum::<f64>() / p as f64;
            // NAP per round: how many ranks' snapshots carried fresh data.
            let nap: Vec<f64> = rep.nap_per_round.iter().map(|&n| f64::from(n)).collect();
            let nap_stats = stats_of(&nap);
            row(&[
                (len * 4).to_string(),
                algo.to_string(),
                format!("{latency:.3}"),
                format!("{:.2}", nap_stats.mean()),
                format!("{:.2}", nap_stats.std()),
            ]);
            if len * 4 <= LATENCY_BOUND_MAX_BYTES {
                agg[i].0.push(latency);
                agg[i].1.extend(nap);
            }
        }
    }
    comment(&format!(
        "(aggregates below cover the latency-bound regime, sizes <= {LATENCY_BOUND_MAX_BYTES} B)"
    ));

    let [(sync_lat, _), (major_lat, major_nap), (solo_lat, solo_nap)] = agg;
    // Geometric mean over sizes of sync's latency over `lat`'s.
    let reduction = |lat: &[f64]| {
        let logs = sync_lat.iter().zip(lat).map(|(s, l)| (s / l).ln());
        (logs.sum::<f64>() / lat.len() as f64).exp()
    };
    let (solo_ratio, major_ratio) = (reduction(&solo_lat), reduction(&major_lat));
    let (nap_solo, nap_major) = (stats_of(&solo_nap), stats_of(&major_nap));
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

    c.check(
        "solo-much-faster-than-sync",
        solo_ratio > 8.0,
        &format!("{solo_ratio:.1}x"),
    );
    c.check(
        "majority-moderately-faster",
        major_ratio > 1.3 && major_ratio < solo_ratio,
        &format!("{major_ratio:.2}x"),
    );
    c.check(
        "nap-solo-near-1",
        nap_solo.mean() < 2.5,
        &format!("{:.2}", nap_solo.mean()),
    );
    c.check(
        "nap-majority-near-half",
        (nap_major.mean() - p as f64 / 2.0).abs() < p as f64 / 5.0,
        &format!("{:.2} vs {}", nap_major.mean(), p / 2),
    );
}

/// §6.2.2: "severe load imbalance leads to higher overhead in the
/// activation phase of solo allreduce". Solo latency as a function of the
/// transport's base latency alpha and the skew severity — separating
/// activation overhead (O(log P) control hops) from synchronization delay.
pub(super) fn ablate_activation(args: &HarnessArgs, c: &mut Checks) {
    let (p, iters) = if args.quick { (8, 10) } else { (16, 32) };
    comment("Activation-phase ablation: solo allreduce latency vs transport alpha and skew");
    comment("initiator latency = rank 0 (fastest): where the activation overhead lands");
    row(&[
        "network",
        "skew_ms",
        "mean_latency_ms",
        "initiator_latency_ms",
    ]);

    // (mean latency across ranks, initiator latency). The initiator (rank
    // 0, the fastest under skew) is where activation overhead shows: it
    // must drive the whole broadcast and wait for every engine's
    // stale/null response, while late ranks find the round already
    // complete and return instantly (which *lowers* the cross-rank mean
    // as skew grows).
    let nets = [
        ("instant", NetworkModel::Instant),
        ("hpc", NetworkModel::hpc()),
        ("cloud", NetworkModel::cloud()),
    ];
    let mut grid = Vec::new();
    for (name, network) in nets {
        for skew_ms in [0u64, 8, 32] {
            // Ranks 1.. spread over the skew; rank 0 never waits.
            let spread = (0..p as u64).map(|rank| match rank * skew_ms {
                0 => Duration::ZERO,
                scaled => Duration::from_millis(scaled / p as u64 + 1),
            });
            let (solo, pauses) = (QuorumPolicy::Solo, spread.collect());
            let rep = skewed_allreduce(network, args.seed, solo, 1024, iters, pauses);
            let per_rank = mean_latency_ms(&rep);
            let mean = per_rank.iter().sum::<f64>() / p as f64;
            let init = per_rank[0];
            row(&[
                name.to_string(),
                skew_ms.to_string(),
                format!("{mean:.3}"),
                format!("{init:.3}"),
            ]);
            grid.push(((name, skew_ms), (mean, init)));
        }
    }
    let get = |name: &str, skew: u64| {
        let cell = grid.iter().find(|((n, s), _)| *n == name && *s == skew);
        cell.expect("the grid covers every (network, skew)").1
    };

    let ((cloud0, cloud0_init), (_, cloud32_init)) = (get("cloud", 0), get("cloud", 32));
    let ((hpc0, _), (hpc32, _), (instant0, _)) = (get("hpc", 0), get("hpc", 32), get("instant", 0));
    c.check(
        "higher-alpha-costs-more",
        cloud0 > instant0,
        &format!("cloud {cloud0:.3} ms vs instant {instant0:.3} ms mean at zero skew"),
    );
    // §6.2.2: the activation phase costs the *initiator* more as skew
    // grows — it alone drives the broadcast and waits for every engine:
    // once the others have not arrived, its call is the activation
    // broadcast *plus* the data exchange, about twice the aligned call on
    // either alpha-beta model. Judged where alpha is largest (cloud).
    c.check(
        "skew-raises-initiator-latency",
        cloud32_init > cloud0_init * 1.2,
        &format!("cloud initiator: {cloud32_init:.3} ms at skew 32 vs {cloud0_init:.3} ms at 0"),
    );
    // ... while the cross-rank mean *drops* (late ranks return instantly):
    c.check(
        "skew-lowers-mean-latency",
        hpc32 < hpc0 + 0.5,
        &format!("hpc mean: {hpc32:.3} ms at skew 32 vs {hpc0:.3} ms at 0"),
    );
    c.check(
        "solo-latency-stays-far-below-skew",
        hpc32 < 16.0,
        &format!("{hpc32:.3} ms ≪ 32 ms skew"),
    );
}
