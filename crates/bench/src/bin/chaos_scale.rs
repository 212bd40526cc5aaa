//! `chaos_scale`: failure detection, eviction, and recovery under load.
//!
//! Two parts (select with `--part sim|tcp`, default both):
//!
//! - **sim** — P = 64 ranks on the discrete-event backend with four
//!   scripted, staggered `kill`s followed by four staggered rejoins. The
//!   harness evicts each victim at a deterministic fence; in the
//!   shrunken window the surviving 60-rank Majority collective must
//!   deliver a mean NAP within 10% of [`eager_sgd::NapModel`]'s closed
//!   form *for the surviving population*. Then the victims come back
//!   (`Fault::Rejoin` → admission fences), and the tail NAP must return
//!   to within 10% of the *full-world* closed form — the grown-back
//!   system behaves like one that never lost a rank.
//! - **tcp** — P = 8 real processes over loopback; one rank `kill -9`s
//!   itself mid-run. The survivors detect the EOF, run the eviction
//!   consensus (fence Max-allreduce + live-set barrier), finish their
//!   remaining rounds over the 7-rank world, and the *parent exits 0*:
//!   `launch_tcp_tolerant` forgives the death exactly because the
//!   survivors' reports declared it.
//!
//! ```sh
//! cargo run --release -p repro_bench --bin chaos_scale -- --quick --seed 42
//! ```

use eager_sgd::NapModel;
use pcoll::sim::mean_nap;
use pcoll::{PartialOpts, QuorumPolicy, RankCtx, SimHarness, SimSpec, StaleMode};
use pcoll_comm::{
    is_tcp_worker, launch_tcp_tolerant, DType, Fault, FaultPlan, ReduceOp, TcpOpts, TimePoint,
    TypedBuf, WorldConfig,
};
use repro_bench::report::{comment, row, Checks};
use repro_bench::HarnessArgs;
use std::time::Duration;

/// Per-rank skew unit of the open-loop sim experiment (mirrors
/// `sim_scale`'s NAP part).
const SKEW_UNIT: Duration = Duration::from_micros(50);

/// The mean NAP over a window of rounds against the closed form for the
/// population live in it.
struct NapWindow {
    measured_nap: f64,
    predicted_nap: f64,
    rel_err: f64,
}

fn run_sim_part(args: &HarnessArgs, c: &mut Checks) {
    let p = 64;
    let rounds: u64 = if args.quick { 220 } else { 440 };
    // Four staggered victims, spread across the rank space; each dies a
    // few rounds after the previous eviction settled, and each comes
    // back (staggered again) once the shrunken world has had a window
    // to show its steady state.
    let victims = [5usize, 13, 21, 37];
    let step = SKEW_UNIT * (p as u32 + 1) * 2; // linear_skew's round period
    comment(&format!(
        "part sim: P={p}, Majority, {rounds} rounds, kills at rounds ~10/20/30/40, \
         rejoins at ~60/65/70/75 (ranks {victims:?}), linear skew {}us/rank",
        SKEW_UNIT.as_micros()
    ));
    let mut spec = SimSpec::linear_skew(p, rounds, SKEW_UNIT, QuorumPolicy::Majority);
    spec.world = WorldConfig::instant(p).with_seed(args.seed);
    let mut plan = FaultPlan::none();
    for (i, &v) in victims.iter().enumerate() {
        plan = plan.with(Fault::Kill {
            rank: v,
            at: TimePoint::ZERO + step * (10 * (i as u32 + 1)),
        });
        plan = plan.with(Fault::Rejoin {
            rank: v,
            at: TimePoint::ZERO + step * (60 + 5 * (i as u32)),
        });
    }
    spec.opts.faults = plan;
    let rep = SimHarness::run(spec);

    let everyone: Vec<usize> = (0..p).collect();
    let survivors: Vec<usize> = (0..p).filter(|r| !victims.contains(r)).collect();
    c.check(
        "all-victims-evicted",
        rep.evictions.iter().flat_map(|(_, d)| d).count() == victims.len(),
        &format!("evictions {:?}", rep.evictions),
    );
    c.check(
        "all-victims-readmitted",
        rep.live == everyone && rep.rejoins.iter().flat_map(|(_, j)| j).count() == victims.len(),
        &format!("rejoins {:?}, live {} ranks", rep.rejoins, rep.live.len()),
    );
    let fences: Vec<u64> = rep.evictions.iter().map(|(f, _)| *f).collect();
    let admit_fences: Vec<u64> = rep.rejoins.iter().map(|(f, _)| *f).collect();
    c.check(
        "fences-nondecreasing",
        fences.windows(2).all(|w| w[0] <= w[1])
            && admit_fences.windows(2).all(|w| w[0] <= w[1])
            && fences.last() <= admit_fences.first(),
        &format!("evict {fences:?}, admit {admit_fences:?}"),
    );

    row(&[
        "window",
        "population",
        "rounds",
        "measured_nap",
        "predicted_nap",
        "rel_err",
    ]);
    // One table row: rounds `[from, to)`; the model sees `population`'s
    // exact injector offsets.
    let window = |name: &str, population: &[usize], from: usize, to: usize| {
        let offsets_ms = population.iter().map(|&r| r as f64 * 0.05).collect();
        let model = NapModel::new(offsets_ms, 0.0, 0.0);
        let predicted_nap = model.predict(QuorumPolicy::Majority).e_nap;
        let measured_nap = mean_nap(&rep.nap_per_round, from, to);
        let rel_err = (measured_nap - predicted_nap).abs() / predicted_nap;
        row(&[
            name.to_string(),
            population.len().to_string(),
            to.saturating_sub(from).to_string(),
            format!("{measured_nap:.2}"),
            format!("{predicted_nap:.2}"),
            format!("{:.1}%", 100.0 * rel_err),
        ]);
        NapWindow {
            measured_nap,
            predicted_nap,
            rel_err,
        }
    };
    // Shrunken window: between the last eviction fence and the first
    // admission fence the closed form for the *surviving* population
    // must hold.
    let shrunk_from = (*fences.last().unwrap_or(&0) + 1) as usize;
    let shrunk_to = *admit_fences.first().unwrap_or(&rounds) as usize;
    let shrunk = window("shrunken", &survivors, shrunk_from, shrunk_to);
    // Grown-back tail: after the last admission fence the *full-world*
    // closed form must hold again — Fig. 7's NAP recovers.
    let grown_from = (*admit_fences.last().unwrap_or(&0) + 1) as usize;
    let grown = window("grown", &everyone, grown_from, rounds as usize);
    let evidence = |w: &NapWindow, who: &str| {
        let (measured, predicted) = (w.measured_nap, w.predicted_nap);
        format!("measured {measured:.2} vs closed form {predicted:.2} for {who}")
    };
    c.check(
        "post-eviction-nap-within-10pct",
        shrunk.rel_err <= 0.10,
        &evidence(&shrunk, &format!("{} survivors", survivors.len())),
    );
    c.check(
        "post-rejoin-nap-within-10pct-of-full-world",
        grown.rel_err <= 0.10,
        &evidence(&grown, &format!("{p} ranks")),
    );
}

fn run_tcp_part(args: &HarnessArgs, c: &mut Checks) {
    const P: usize = 8;
    const VICTIM: usize = P - 1;
    let pre: u64 = if args.quick { 6 } else { 24 };
    let post: u64 = if args.quick { 6 } else { 24 };
    if !is_tcp_worker() {
        comment(&format!(
            "part tcp: P={P} processes over loopback, rank {VICTIM} kill -9s itself \
             after {pre} rounds; survivors evict and run {post} more"
        ));
    }
    let cfg = WorldConfig::instant(P).with_seed(args.seed);
    let opts = TcpOpts::labeled("chaos_scale-tcp");
    let launched = launch_tcp_tolerant(cfg, opts, move |c| {
        let ctx = RankCtx::new(c);
        let mut ar = ctx.partial_allreduce(
            DType::F64,
            32,
            ReduceOp::Sum,
            QuorumPolicy::Majority,
            PartialOpts {
                stale_mode: StaleMode::Replace,
                ..PartialOpts::default()
            },
        );
        let mut ok = true;
        for _ in 0..pre {
            let out = ar.allreduce(&TypedBuf::from(vec![1.0f64; 32]));
            let s = out.data.as_f64().unwrap()[0];
            ok &= (s.round() - s).abs() < 1e-9 && (1.0..=P as f64).contains(&s);
        }
        if ctx.rank() == VICTIM {
            let _ = std::process::Command::new("sh")
                .arg("-c")
                .arg(format!("kill -9 {}", std::process::id()))
                .status();
            unreachable!("kill -9 did not take");
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while !ctx.membership().is_down(VICTIM) {
            assert!(
                std::time::Instant::now() < deadline,
                "victim death never detected"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        let fence = ctx.evict(&ar, &[VICTIM]);
        ok &= fence >= pre && ar.evicted_ranks() == vec![VICTIM];
        for _ in 0..post {
            let out = ar.allreduce(&TypedBuf::from(vec![1.0f64; 32]));
            let s = out.data.as_f64().unwrap()[0];
            ok &= (s.round() - s).abs() < 1e-9 && (1.0..=(P - 1) as f64).contains(&s);
        }
        ctx.finalize();
        ok
    });
    let Some((results, evicted)) = launched else {
        // A worker for some other label — impossible in this binary.
        return;
    };
    let survivors_ok = results
        .iter()
        .enumerate()
        .all(|(r, slot)| r == VICTIM || slot == &Some(true));
    c.check(
        "tcp-survivors-verified-every-round",
        survivors_ok,
        &format!("{} survivors", P - 1),
    );
    let evicted_ok = evicted == vec![VICTIM] && results[VICTIM].is_none();
    c.check(
        "tcp-victim-evicted-parent-survives",
        evicted_ok,
        &format!("evicted {evicted:?}"),
    );
}

fn main() {
    let args = HarnessArgs::parse();
    let part = args.part.clone().unwrap_or_else(|| "all".into());
    if !is_tcp_worker() {
        comment(&format!(
            "chaos_scale: failure detection + eviction under load (quick={}, seed={})",
            args.quick, args.seed
        ));
    }

    let mut c = Checks::new(args.quick);
    // A re-exec'ed TCP worker must not replay the sim part: it exists
    // only to become one rank of the tcp part's world.
    if !is_tcp_worker() && (part == "all" || part.contains("sim")) {
        run_sim_part(&args, &mut c);
    }
    if part == "all" || part.contains("tcp") {
        run_tcp_part(&args, &mut c);
    }
    std::process::exit(c.exit_code());
}
