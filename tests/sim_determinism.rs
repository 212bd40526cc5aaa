//! Determinism and conformance of the discrete-event simulation backend.
//!
//! Two properties make `SimWorld` trustworthy as an experiment vehicle:
//!
//! 1. **Determinism**: a run is a pure function of `(spec, seed)`. Same
//!    seed ⇒ byte-identical trace stream (`SimReport::digest`), different
//!    seed ⇒ a different execution. Checked under the most stateful
//!    configuration the harness offers — a four-region WAN matrix, a
//!    jittery byte-latency curve, self-paced closed-loop pacing, and
//!    rotating `Hiccup` stragglers — because that is where hidden
//!    wall-clock or hash-order nondeterminism would leak in first.
//!    Two digests are pinned to constants, so a change of behaviour shows across
//!    commits, not only between two runs of one binary.
//! 2. **Conformance**: the virtual-time stack (P thread-less `Engine`s
//!    fed from one event heap) computes the same collective results as the
//!    in-process backend (P real threads), because it runs the *same*
//!    engine and schedule code behind the same `CommHandle`/`Inbox` API.
//! 3. **Training**: `run_sim` drives the trainer's own step on the
//!    harness, so a whole training run — logs and final weights — replays bit for bit, and a synchronous run trains to the
//!    same bits as `run_rank` on real threads.
//!
//! Companion to `tests/transport_conformance.rs`, which pins the
//! in-process and TCP backends to each other the same way.

use eager_sgd_repro::comm::{Fault, FaultPlan, TimePoint};
use eager_sgd_repro::nn::zoo::hyperplane_mlp;
use eager_sgd_repro::prelude::{
    run_rank, run_sim, DType, Hiccup, HyperplaneTask, HyperplaneWorkload, Injector, Model,
    NetworkModel, Optimizer, Pacing, PartialOpts, Planet, QuorumPolicy, RankCtx, ReduceOp, Sgd,
    SgdVariant, SimHarness, SimOpts, SimReport, SimSpec, StepSetup, TensorRng, TrainLog,
    TrainerConfig, TypedBuf, World, WorldConfig,
};
use std::sync::Arc;
use std::time::Duration;

/// A deliberately stateful spec: WAN regions, cloud jitter, self-paced
/// pacing with per-rank skew and rotating stragglers.
fn wan_spec(p: usize, rounds: u64, seed: u64, policy: QuorumPolicy) -> SimSpec {
    SimSpec {
        world: WorldConfig::instant(p).with_seed(seed),
        opts: SimOpts {
            network: NetworkModel::cloud(),
            planet: Planet::wan(),
            ..SimOpts::default()
        },
        policy,
        rounds,
        len: 8,
        pacing: Pacing::SelfPaced(StepSetup::fixed(
            (0..p)
                .map(|r| Duration::from_millis(5) + Duration::from_micros(37) * r as u32)
                .collect(),
            Hiccup {
                k: p / 8,
                extra: Duration::from_millis(60),
            },
        )),
        partial: PartialOpts::default(),
    }
}

fn run(seed: u64) -> SimReport {
    SimHarness::run(wan_spec(64, 12, seed, QuorumPolicy::Majority))
}

/// Same seed ⇒ byte-identical run at P=64: digest, event count, final
/// virtual time and every (rank, round) call latency all match. A
/// different seed must change the digest and the latencies (the seed
/// actually reaches the jitter and initiator choices).
#[test]
fn same_seed_is_bit_identical_at_p64() {
    let a = run(42);
    let b = run(42);
    assert_eq!(
        a.digest(),
        b.digest(),
        "same seed must replay bit-identically"
    );
    assert_eq!(a.events, b.events, "event counts diverged");
    assert_eq!(a.virtual_time, b.virtual_time, "virtual clocks diverged");
    assert_eq!(a.nap_per_round, b.nap_per_round, "NAP streams diverged");
    assert_eq!(a.call_latency, b.call_latency, "call latencies diverged");
    let calls = a.call_latency.iter().flatten();
    assert_eq!(calls.flatten().count(), 64 * 12, "every call returned");

    let c = run(43);
    assert_ne!(a.digest(), c.digest(), "seed must influence the execution");
    assert_ne!(a.call_latency, c.call_latency, "seed must reach the jitter");
}

/// The simulator's behaviour pinned across commits, not only within one
/// binary: the seed-42 digests of the P=64 WAN run above and of a
/// kill → evict → rejoin chaos run. A change that moves either changed
/// what the simulated protocol does; re-pin only a change meant to, and
/// say so.
#[test]
fn sim_digests_match_their_pinned_values() {
    let at = |ms| TimePoint::ZERO + Duration::from_millis(ms);
    let mut chaos = SimSpec::linear_skew(12, 36, Duration::from_millis(1), QuorumPolicy::Majority);
    chaos.world = chaos.world.with_seed(42);
    chaos.opts.faults = FaultPlan::none()
        .with(Fault::Kill {
            rank: 4,
            at: at(150),
        })
        .with(Fault::Rejoin {
            rank: 4,
            at: at(450),
        });
    let chaos = SimHarness::run(chaos);
    assert_eq!((chaos.evictions.len(), chaos.rejoins.len()), (1, 1));
    let got = (run(42).digest(), chaos.digest());
    assert_eq!(
        got,
        (WAN_P64_DIGEST, CHAOS_DIGEST),
        "digests now {:#x} and {:#x}",
        got.0,
        got.1
    );
}

const WAN_P64_DIGEST: u64 = 0xf22bc5683c0e5263;
const CHAOS_DIGEST: u64 = 0xcc0da791f113f5f0;

/// Under `QuorumPolicy::Full` every deposit is provably fresh, so the
/// reduced value each round is exactly P on every backend. Run the same
/// program (P ranks, all-ones deposits, R rounds) through the simulation
/// harness and through real threads, and require both to agree with the
/// closed-form answer — and therefore with each other.
#[test]
fn sim_and_inproc_agree_on_full_quorum_results() {
    const P: usize = 8;
    const ROUNDS: u64 = 6;

    // Virtual-time run. Skewed self-paced compute exercises the real
    // protocol (forced joins, snapshot exchange), not a lockstep replay.
    let spec = wan_spec(P, ROUNDS, 7, QuorumPolicy::Full);
    let rep = SimHarness::run(spec);
    assert_eq!(rep.finals.len(), P);
    for (rank, &f) in rep.finals.iter().enumerate() {
        assert_eq!(f, P as f32, "sim: rank {rank} final sum");
    }
    for (rank, traces) in rep.traces.iter().enumerate() {
        assert_eq!(traces.len(), ROUNDS as usize);
        assert!(
            traces.iter().all(|t| t.fresh && !t.null),
            "sim: rank {rank} must be fresh every round under Full"
        );
    }
    assert!(
        rep.nap_per_round.iter().all(|&n| n == P as u32),
        "sim: full quorum NAP must be exactly P each round"
    );

    // Wall-time run of the same program on the in-process backend.
    let finals = World::launch(WorldConfig::instant(P).with_seed(7), |c| {
        let ctx = RankCtx::new(c);
        let mut ar = ctx.partial_allreduce(
            DType::F32,
            8,
            ReduceOp::Sum,
            QuorumPolicy::Full,
            PartialOpts::default(),
        );
        let mut last = 0.0f32;
        for round in 0..ROUNDS {
            // Deterministic skew, same shape as the sim spec's pacing.
            std::thread::sleep(Duration::from_micros(ctx.rank() as u64 * 37 + round * 11));
            let out = ar.allreduce(&TypedBuf::from(vec![1.0f32; 8]));
            last = out.data.as_f32().unwrap()[0];
        }
        ctx.finalize();
        last
    });
    assert_eq!(finals, rep.finals, "backends disagree on the final sums");
}

/// Gradient conservation (Fig. 7) holds in virtual time: across a solo
/// run plus its flush round, every deposit lands in exactly one round's
/// sum — the per-round NAP stream sums to the number of deposits that
/// were consumed, never more.
#[test]
fn solo_conserves_deposits_in_virtual_time() {
    const P: usize = 16;
    const ROUNDS: u64 = 10;
    let rep = SimHarness::run(wan_spec(P, ROUNDS, 5, QuorumPolicy::Solo));
    let fresh_total: u64 = rep.nap_per_round.iter().map(|&n| n as u64).sum();
    let deposits = P as u64 * ROUNDS;
    assert!(
        fresh_total <= deposits,
        "a deposit was counted fresh twice ({fresh_total} > {deposits})"
    );
    // Solo keeps the cadence of the fastest rank; the run must still
    // consume the overwhelming majority of deposits as fresh.
    assert!(
        fresh_total >= deposits / 2,
        "too few deposits consumed ({fresh_total} of {deposits})"
    );
}

/// The flight recorder inherits the simulator's determinism: a traced
/// run's Perfetto export is a pure function of `(spec, seed)` — two
/// same-seed runs under the stateful WAN spec write *byte-identical*
/// JSON — and the export passes the trace-event schema validator. A
/// different seed must reach the recorded event stream.
#[test]
fn same_seed_traces_are_byte_identical() {
    use eager_sgd_repro::obs::{fnv1a, validate_perfetto, LEVEL_VERBOSE};

    const P: usize = 16;
    let traced = |seed: u64| {
        let base = wan_spec(P, 8, seed, QuorumPolicy::Majority);
        let mut h = SimHarness::new(SimSpec {
            world: base.world.with_trace(LEVEL_VERBOSE, 1 << 14),
            ..base
        });
        h.execute();
        h.perfetto_json()
    };

    let a = traced(42);
    let b = traced(42);
    assert_eq!(
        fnv1a(a.as_bytes()),
        fnv1a(b.as_bytes()),
        "same-seed trace digests diverged"
    );
    assert_eq!(a, b, "same seed must emit a byte-identical trace file");

    let summary = validate_perfetto(&a).expect("trace must be schema-valid");
    assert!(summary.entries > 0, "traced run produced no events");
    assert!(
        summary.ranks >= P,
        "every rank must own a track ({} of {P})",
        summary.ranks
    );

    let c = traced(43);
    assert_ne!(a, c, "seed must influence the recorded event stream");
}

/// P = 8 ranks training a 64-wide `hyperplane_mlp`.
const TRAIN_P: usize = 8;
const DIM: usize = 64;

/// Two random ranks a step are 30 ms late on top of 10 ms of compute;
/// weights sync and rank 0 evaluates every two epochs.
fn trainer_cfg(variant: SgdVariant, seed: u64) -> TrainerConfig {
    let mut cfg = TrainerConfig::new(variant, 4, 8, 0.05);
    cfg.seed = seed;
    cfg.injector = Injector::RandomRanks {
        k: 2,
        amount_ms: 30.0,
        seed: 0,
    };
    cfg.base_compute_ms = 10.0;
    cfg.model_sync_every = Some(2);
    cfg.eval_every = 2;
    cfg
}

fn train_workload() -> HyperplaneWorkload {
    HyperplaneWorkload {
        task: Arc::new(HyperplaneTask::new(DIM, 2048, 0.1, 128, 3)),
        local_batch: 16,
    }
}

fn train_sim(cfg: &TrainerConfig, opts: SimOpts) -> Vec<(TrainLog, Vec<f32>)> {
    let build = |_| -> (Box<dyn Model>, Box<dyn Optimizer>) {
        let model = hyperplane_mlp(DIM, &mut TensorRng::new(7));
        (Box::new(model), Box::new(Sgd::new(0.05)))
    };
    let world = WorldConfig::instant(TRAIN_P).with_seed(cfg.seed);
    run_sim(cfg, build, Arc::new(train_workload()), world, opts)
}

fn bits(weights: &[f32]) -> Vec<u32> {
    weights.iter().map(|w| w.to_bits()).collect()
}

/// Every field of a log, floats as their bit patterns.
fn log_bits(log: &TrainLog) -> Vec<u64> {
    let mut v = vec![
        log.rank as u64,
        log.fresh_rounds,
        log.missed_rounds,
        log.steps,
    ];
    v.push(log.total_train_s.to_bits());
    for e in &log.epochs {
        v.extend([
            e.epoch as u64,
            e.train_time_s.to_bits(),
            e.throughput.to_bits(),
        ]);
        v.push(e.mean_loss.to_bits().into());
        for r in [e.test, e.train] {
            let r = r.map_or([u32::MAX; 3], |r| {
                [r.loss, r.top1, r.top5].map(f32::to_bits)
            });
            v.extend(r.map(u64::from));
        }
    }
    v
}

/// Eager-majority training under random skew, periodic weight sync and
/// evaluation, on a jittery network: two same-seed runs give identical
/// logs and final weights, bit for bit; the next seed does not.
#[test]
fn sim_trainer_replays_bit_identically() {
    let cloud = || SimOpts {
        network: NetworkModel::cloud(),
        ..SimOpts::default()
    };
    let cfg = trainer_cfg(SgdVariant::EagerMajority, 42);
    let (a, b) = (train_sim(&cfg, cloud()), train_sim(&cfg, cloud()));
    for ((log_a, w_a), (log_b, w_b)) in a.iter().zip(&b) {
        assert_eq!(log_bits(log_a), log_bits(log_b), "rank {}", log_a.rank);
        assert_eq!(bits(w_a), bits(w_b), "rank {} weights", log_a.rank);
    }
    let first = &a[0].0;
    assert_eq!(first.epochs.len(), 4);
    assert!(first.epochs[1].test.is_some() && first.epochs[3].test.is_some());
    assert!(first.missed_rounds > 0, "the skew makes some rounds stale");
    // The run ends on a weight sync: every rank holds the average.
    assert!(a.iter().all(|(_, w)| bits(w) == bits(&a[0].1)));

    let c = train_sim(&trainer_cfg(SgdVariant::EagerMajority, 43), cloud());
    assert_ne!(bits(&a[0].1), bits(&c[0].1), "seed must reach the run");
}

/// Synchronous SGD with no skew runs every round `Full`, where each rank's
/// result is the same sum in the same schedule order on every transport:
/// the simulator and real rank threads train to identical bits — every
/// epoch's mean loss and the final weights, on every rank.
#[test]
fn sim_and_threads_train_sync_sgd_to_the_same_bits() {
    let mut cfg = TrainerConfig::new(SgdVariant::SynchDeep500, 3, 8, 0.05);
    cfg.eval_every = 3;
    let sim = train_sim(&cfg, SimOpts::default());
    let wl = train_workload();
    let threads = World::launch(
        WorldConfig::instant(TRAIN_P).with_seed(cfg.seed),
        move |c| {
            let ctx = RankCtx::new(c);
            let mut model = hyperplane_mlp(DIM, &mut TensorRng::new(7));
            let log = run_rank(&ctx, &mut model, &mut Sgd::new(0.05), &wl, &cfg);
            let mut weights = vec![0.0; Model::num_params(&model)];
            model.write_params(&mut weights);
            ctx.finalize();
            (log, weights)
        },
    );
    let losses =
        |l: &TrainLog| -> Vec<u32> { l.epochs.iter().map(|e| e.mean_loss.to_bits()).collect() };
    for ((sim_log, sim_w), (log, w)) in sim.iter().zip(&threads) {
        assert_eq!(losses(sim_log), losses(log), "rank {} losses", log.rank);
        assert_eq!(bits(sim_w), bits(w), "rank {} weights", log.rank);
    }
}

/// An eager chain-of-all-P quorum holds every gradient round at full
/// quorum, weights sync every epoch and rank 0 evaluates every two: the
/// simulator and real rank threads run the same collectives — gradient,
/// weight sync, evaluation barriers — so they train to identical bits on
/// every rank. P = 8 takes recursive doubling, whose reduction order is
/// not rank order; P = 6 takes the ring.
#[test]
fn sim_and_threads_agree_through_every_fence() {
    for p in [8, 6] {
        let variant = SgdVariant::EagerQuorum {
            chain: p,
            race: false,
        };
        let mut cfg = TrainerConfig::new(variant, 4, 8, 0.05);
        cfg.model_sync_every = Some(1);
        cfg.eval_every = 2;
        let build = |_| -> (Box<dyn Model>, Box<dyn Optimizer>) {
            let model = hyperplane_mlp(DIM, &mut TensorRng::new(7));
            (Box::new(model), Box::new(Sgd::new(0.05)))
        };
        let world = WorldConfig::instant(p).with_seed(cfg.seed);
        let wl = Arc::new(train_workload());
        let sim = run_sim(&cfg, build, wl.clone(), world.clone(), SimOpts::default());
        let threads = World::launch(world, move |c| {
            let ctx = RankCtx::new(c);
            let mut model = hyperplane_mlp(DIM, &mut TensorRng::new(7));
            let log = run_rank(&ctx, &mut model, &mut Sgd::new(0.05), &*wl, &cfg);
            let mut weights = vec![0.0; Model::num_params(&model)];
            model.write_params(&mut weights);
            ctx.finalize();
            (log, weights)
        });
        let losses =
            |l: &TrainLog| -> Vec<u32> { l.epochs.iter().map(|e| e.mean_loss.to_bits()).collect() };
        for ((sim_log, sim_w), (log, w)) in sim.iter().zip(&threads) {
            let rank = log.rank;
            assert_eq!(losses(sim_log), losses(log), "P={p} rank {rank} losses");
            assert_eq!(bits(sim_w), bits(w), "P={p} rank {rank} weights");
        }
    }
}
