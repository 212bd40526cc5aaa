//! Chaos: dead ranks are detected, evicted by consensus, and survived —
//! on the TCP backend with a real `kill -9` mid-run, and on the
//! simulation backend with scripted kills replayed bit-identically.
//!
//! The TCP half uses the self-exec idiom of `transport_conformance`: the
//! test binary re-`exec`s itself with `--exact <test name>`, each worker
//! process becomes one rank, and only the parent reaches the assertions.
//! The launch goes through `launch_tcp_tolerant`, which forgives a
//! worker's death exactly when the survivors' reports declare it down.

use eager_sgd_repro::comm::{
    is_tcp_rejoiner, is_tcp_worker, launch_tcp_tolerant, Communicator, DType, Fault, FaultPlan,
    ReduceOp, TcpOpts, TimePoint, TypedBuf, World, WorldConfig,
};
use eager_sgd_repro::pcoll::{PartialOpts, QuorumPolicy, RankCtx, SimHarness, SimSpec, StaleMode};
use std::time::Duration;

const P: usize = 8;
const VICTIM: usize = P - 1;
const PRE: u64 = 6;
const POST: u64 = 6;

/// A rank `kill -9`s itself mid-run; the seven survivors detect the
/// death, agree on an eviction fence, and keep the collective running
/// over the live set. Mass conservation (Fig. 7's invariant) holds
/// throughout: with every rank contributing 1.0 under
/// [`StaleMode::Replace`], a completed round's sum is an integral count
/// of joined contributions — at most one unit per rank — never exceeding
/// the population the round was scheduled over.
#[test]
fn tcp_kill_dash_nine_mid_run_is_evicted_and_mass_is_conserved() {
    let cfg = WorldConfig::instant(P);
    let name = "tcp_kill_dash_nine_mid_run_is_evicted_and_mass_is_conserved";
    let opts =
        TcpOpts::labeled(name).with_child_args(vec![name.to_string(), "--exact".to_string()]);
    let Some((results, evicted)) = launch_tcp_tolerant(cfg, opts, |c| {
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
        let mut sums = Vec::new();
        for _ in 0..PRE {
            let out = ar.allreduce(&TypedBuf::from(vec![1.0f64; 32]));
            sums.push(out.data.as_f64().unwrap()[0]);
        }
        if ctx.rank() == VICTIM {
            // Die without a goodbye — the real failure mode, not a clean
            // shutdown. SIGKILL cannot be caught, so nothing below runs.
            let _ = std::process::Command::new("sh")
                .arg("-c")
                .arg(format!("kill -9 {}", std::process::id()))
                .status();
            unreachable!("kill -9 did not take");
        }
        // Survivors: the victim's sockets EOF almost immediately; wait
        // for the local liveness view to notice, then evict by consensus.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while !ctx.membership().is_down(VICTIM) {
            assert!(
                std::time::Instant::now() < deadline,
                "victim death never detected"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        let fence = ctx.evict(&ar, &[VICTIM]);
        assert!(fence >= PRE, "fence {fence} precedes requested rounds");
        assert_eq!(ar.evicted_ranks(), vec![VICTIM]);
        assert!(ctx.membership().is_evicted(VICTIM));
        for _ in 0..POST {
            let out = ar.allreduce(&TypedBuf::from(vec![1.0f64; 32]));
            sums.push(out.data.as_f64().unwrap()[0]);
        }
        ctx.finalize();
        sums
    }) else {
        return; // worker for another label (never happens in this binary)
    };
    assert_eq!(evicted, vec![VICTIM]);
    assert!(results[VICTIM].is_none(), "the victim reports nothing");
    for (rank, slot) in results.iter().enumerate() {
        if rank == VICTIM {
            continue;
        }
        let sums = slot.as_ref().expect("survivor reported");
        assert_eq!(sums.len(), (PRE + POST) as usize, "rank {rank}");
        for (round, s) in sums.iter().enumerate() {
            let cap = if round < PRE as usize { P } else { P - 1 } as f64;
            assert!(
                (s.round() - s).abs() < 1e-9 && *s >= 1.0 && *s <= cap,
                "rank {rank} round {round}: sum {s} breaks mass conservation (cap {cap})"
            );
        }
    }
}

/// The sim backend's scripted kills: staggered deaths are evicted at
/// deterministic fences, survivors finish every round, and the whole
/// chaos run — fences included — replays bit-identically from the seed.
#[test]
fn sim_scripted_kills_replay_bit_identically() {
    if is_tcp_worker() {
        return; // a TCP worker re-exec'ed for the other test
    }
    let mut spec = SimSpec::linear_skew(16, 40, Duration::from_millis(1), QuorumPolicy::Majority);
    spec.opts.faults = FaultPlan::none()
        .with(Fault::Kill {
            rank: 2,
            at: TimePoint::ZERO + Duration::from_millis(120),
        })
        .with(Fault::Kill {
            rank: 9,
            at: TimePoint::ZERO + Duration::from_millis(400),
        });
    let a = SimHarness::run(spec.clone());
    let b = SimHarness::run(spec);
    assert_eq!(
        a.digest(),
        b.digest(),
        "chaos run must replay bit-identically"
    );
    assert_eq!(a.evictions, b.evictions);
    assert_eq!(
        a.live,
        (0..16).filter(|r| *r != 2 && *r != 9).collect::<Vec<_>>()
    );
    let evicted: Vec<usize> = a.evictions.iter().flat_map(|(_, d)| d.clone()).collect();
    assert_eq!(evicted, vec![2, 9]);
    for &r in &a.live {
        assert_eq!(
            a.traces[r].last().unwrap().round,
            39,
            "survivor {r} must finish every round"
        );
    }
}

/// The full membership round trip on the sim backend: a scripted kill
/// shrinks the world at an eviction fence, a scripted [`Fault::Rejoin`]
/// grows it back at an admission fence, and the whole sequence — both
/// fences included — replays bit-identically from the seed. Fig. 7's
/// mass conservation holds across both fences: a round's fresh
/// contributions never exceed the population it was scheduled over.
#[test]
fn sim_kill_evict_rejoin_round_trip_replays_bit_identically() {
    if is_tcp_worker() {
        return; // a TCP worker re-exec'ed for another test
    }
    let p = 12;
    let rounds = 36;
    let mut spec =
        SimSpec::linear_skew(p, rounds, Duration::from_millis(1), QuorumPolicy::Majority);
    spec.opts.faults = FaultPlan::none()
        .with(Fault::Kill {
            rank: 4,
            at: TimePoint::ZERO + Duration::from_millis(150),
        })
        .with(Fault::Rejoin {
            rank: 4,
            at: TimePoint::ZERO + Duration::from_millis(450),
        });
    let a = SimHarness::run(spec.clone());
    let b = SimHarness::run(spec);
    assert_eq!(
        a.digest(),
        b.digest(),
        "kill -> evict -> rejoin must replay bit-identically"
    );
    assert_eq!(a.evictions, b.evictions);
    assert_eq!(a.rejoins, b.rejoins);
    // The world grew back: every rank — the round-tripped one included —
    // is live at the end and finishes the final round.
    assert_eq!(a.live, (0..p).collect::<Vec<_>>());
    let (evict_fence, ref dead) = a.evictions[0];
    let (admit_fence, ref joined) = a.rejoins[0];
    assert_eq!(dead, &vec![4]);
    assert_eq!(joined, &vec![4]);
    assert!(
        admit_fence > evict_fence,
        "admission fence {admit_fence} must follow eviction fence {evict_fence}"
    );
    for (round, &nap) in a.nap_per_round.iter().enumerate() {
        let r = round as u64;
        let cap = if r >= evict_fence && r < admit_fence {
            p - 1
        } else {
            p
        };
        assert!(
            nap >= 1 && nap as usize <= cap,
            "round {round}: {nap} fresh contributions break mass conservation (cap {cap})"
        );
    }
    for r in 0..p {
        // Under Majority's eager semantics a slow rank's last completed
        // round may trail the final round by one; what must hold is
        // that everyone — the rejoiner included — makes it well past
        // the admission fence into the grown-back world.
        assert!(
            a.traces[r].last().unwrap().round >= admit_fence,
            "rank {r} never reached the grown-back world"
        );
    }
}

const RJ_P: usize = 4;
const RJ_VICTIM: usize = RJ_P - 1;
const RJ_PRE: u64 = 4;
const RJ_MID: u64 = 4;
const RJ_POST: u64 = 6;

/// Membership round trip over real processes: a rank `kill -9`s itself,
/// the survivors evict it at a fence and keep training over the shrunken
/// world, the parent relaunches it (`TcpOpts::with_respawn`), and the
/// relaunched process is re-admitted at an admission fence — after which
/// the *full* world finishes `RJ_POST` more rounds together. The
/// rendezvous blackboard carries the policy/membership history the
/// joiner missed; mass conservation holds across both fences.
#[test]
fn tcp_killed_rank_is_relaunched_and_readmitted_at_the_admission_fence() {
    let cfg = WorldConfig::instant(RJ_P);
    let name = "tcp_killed_rank_is_relaunched_and_readmitted_at_the_admission_fence";
    let opts = TcpOpts::labeled(name)
        .with_child_args(vec![name.to_string(), "--exact".to_string()])
        .with_respawn();
    let Some((results, evicted)) = launch_tcp_tolerant(cfg, opts, |c| {
        // Grab the blackboard handle before the communicator is consumed.
        let rz = c.rendezvous().expect("TCP workers carry a rendezvous link");
        let rejoiner = is_tcp_rejoiner();
        let ctx = RankCtx::new(c);
        let mut ar = ctx.partial_allreduce(
            DType::F64,
            16,
            ReduceOp::Sum,
            QuorumPolicy::Majority,
            PartialOpts {
                stale_mode: StaleMode::Replace,
                ..PartialOpts::default()
            },
        );
        let mut sums = Vec::new();
        if rejoiner {
            // Second incarnation of the victim: a pristine process that
            // missed the eviction. Install the survivors' segment
            // history, signal readiness, and enter the admission fence.
            let blob = rz.get("admit-state");
            (ar.import_state(serde_json::from_str(&blob).expect("admit-state parses")))
                .expect("survivors ship well-formed segments");
            rz.put("joiner-ready", "true");
            let fence = ctx.admit(&mut ar, &[RJ_VICTIM]);
            assert!(fence >= RJ_PRE, "admission fence {fence} precedes eviction");
            for _ in 0..RJ_POST {
                let out = ar.allreduce(&TypedBuf::from(vec![1.0f64; 16]));
                sums.push(out.data.as_f64().unwrap()[0]);
            }
            ctx.finalize();
            return sums;
        }
        for _ in 0..RJ_PRE {
            let out = ar.allreduce(&TypedBuf::from(vec![1.0f64; 16]));
            sums.push(out.data.as_f64().unwrap()[0]);
        }
        if ctx.rank() == RJ_VICTIM {
            // First incarnation: die without a goodbye. SIGKILL cannot
            // be caught, so nothing below runs in this process.
            let _ = std::process::Command::new("sh")
                .arg("-c")
                .arg(format!("kill -9 {}", std::process::id()))
                .status();
            unreachable!("kill -9 did not take");
        }
        // Survivors: detect the death, evict by consensus, keep going
        // over the shrunken world.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while !ctx.membership().is_down(RJ_VICTIM) {
            assert!(
                std::time::Instant::now() < deadline,
                "victim death never detected"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        let evict_fence = ctx.evict(&ar, &[RJ_VICTIM]);
        for _ in 0..RJ_MID {
            let out = ar.allreduce(&TypedBuf::from(vec![1.0f64; 16]));
            sums.push(out.data.as_f64().unwrap()[0]);
        }
        // Ship the history the relaunched victim needs, wait for it to
        // confirm the import, then run the fence in reverse.
        if ctx.rank() == 0 {
            let state = serde_json::to_string(&ar.rule_segments()).unwrap();
            rz.put("admit-state", &state);
        }
        let _ = rz.get("joiner-ready");
        let admit_fence = ctx.admit(&mut ar, &[RJ_VICTIM]);
        assert!(
            admit_fence > evict_fence,
            "admission fence {admit_fence} must follow eviction fence {evict_fence}"
        );
        assert!(!ar.evicted_ranks().contains(&RJ_VICTIM));
        assert!(!ctx.membership().is_down(RJ_VICTIM));
        for _ in 0..RJ_POST {
            let out = ar.allreduce(&TypedBuf::from(vec![1.0f64; 16]));
            sums.push(out.data.as_f64().unwrap()[0]);
        }
        ctx.finalize();
        sums
    }) else {
        return; // worker for another label (never happens in this binary)
    };
    assert!(
        evicted.is_empty(),
        "a readmitted rank must not be reported evicted: {evicted:?}"
    );
    for (rank, slot) in results.iter().enumerate() {
        let sums = slot
            .as_ref()
            .unwrap_or_else(|| panic!("rank {rank} must report (rejoin included)"));
        if rank == RJ_VICTIM {
            // The victim's report comes from its second incarnation,
            // which only saw the post-admission rounds.
            assert_eq!(sums.len(), RJ_POST as usize, "rejoiner rounds");
            for (i, s) in sums.iter().enumerate() {
                let cap = RJ_P as f64;
                assert!(
                    (s.round() - s).abs() < 1e-9 && *s >= 1.0 && *s <= cap,
                    "rejoiner round {i}: sum {s} breaks mass conservation (cap {cap})"
                );
            }
            continue;
        }
        assert_eq!(
            sums.len(),
            (RJ_PRE + RJ_MID + RJ_POST) as usize,
            "rank {rank}"
        );
        for (i, s) in sums.iter().enumerate() {
            // Full world, shrunken world, grown-back world — in order.
            let cap = if (i as u64) < RJ_PRE {
                RJ_P
            } else if (i as u64) < RJ_PRE + RJ_MID {
                RJ_P - 1
            } else {
                RJ_P
            } as f64;
            assert!(
                (s.round() - s).abs() < 1e-9 && *s >= 1.0 && *s <= cap,
                "rank {rank} round {i}: sum {s} breaks mass conservation (cap {cap})"
            );
        }
    }
}

/// SPMD body for the externally launched smoke test: one synchronous
/// allreduce so the assertion pins exact cross-process arithmetic.
fn external_body(c: Communicator) -> f64 {
    let ctx = RankCtx::new(c);
    let mut ar = ctx.sync_allreduce(DType::F64, 4, ReduceOp::Sum, None);
    let out = ar.allreduce(&TypedBuf::from(vec![(ctx.rank() + 1) as f64; 4]));
    let sum = out.data.as_f64().unwrap()[0];
    ctx.finalize();
    sum
}

/// Reaps manually spawned worker processes even when the test panics.
struct Reaper(Vec<std::process::Child>);

impl Drop for Reaper {
    fn drop(&mut self) {
        for c in &mut self.0 {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// Multi-host rendezvous, single-host edition: the parent binds a fixed
/// listen address and spawns *nothing*; the workers are launched by the
/// test the way an operator (or a job scheduler) would launch them on
/// other machines — binary + `PCOLL_TCP_*` environment, no self-`exec`.
/// One worker exercises the bind/advertise split (an explicit bind plus
/// a bare-host advertise address).
#[test]
fn tcp_externally_launched_workers_join_via_env_only() {
    const N: usize = 2;
    let name = "tcp_externally_launched_workers_join_via_env_only";
    let cfg = WorldConfig::instant(N);
    if is_tcp_worker() {
        // This process was launched with the PCOLL_TCP_* environment
        // set: become a rank (exits inside on a label match).
        let _ = World::launch_tcp(cfg, TcpOpts::labeled(name), external_body);
        return;
    }
    // Pick a free loopback port for the rendezvous, the way an operator
    // picks a port for a job file. (Bind-then-drop has a benign race;
    // the ephemeral range makes collisions vanishingly rare.)
    let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
    let addr = probe.local_addr().expect("probe addr").to_string();
    drop(probe);
    let exe = std::env::current_exe().expect("test binary path");
    let mut workers = Reaper(Vec::new());
    for rank in 0..N {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args([name, "--exact"])
            .env("PCOLL_TCP_RANK", rank.to_string())
            .env("PCOLL_TCP_NRANKS", N.to_string())
            .env("PCOLL_TCP_PARENT", &addr)
            .env("PCOLL_TCP_LABEL", name)
            .env_remove("PCOLL_TCP_LISTEN")
            .env_remove("PCOLL_TCP_REJOIN")
            .stdin(std::process::Stdio::null());
        if rank == 0 {
            // The NAT/multi-NIC split: bind one address, advertise
            // another (here both loopback; the advertise port is filled
            // in from the mesh bind because the host form is bare).
            cmd.env("PCOLL_TCP_BIND", "127.0.0.1:0")
                .env("PCOLL_TCP_ADVERTISE", "127.0.0.1");
        }
        workers.0.push(cmd.spawn().expect("spawn worker"));
    }
    // The workers dial the rendezvous with retries, so spawning them
    // before the parent binds is fine — exactly the operator's reality.
    let results = World::launch_tcp(
        cfg,
        TcpOpts::labeled(name).with_listen(&addr),
        external_body,
    )
    .expect("parent path");
    let want = (N * (N + 1) / 2) as f64;
    assert_eq!(results, vec![want; N]);
    for c in &mut workers.0 {
        let status = c.wait().expect("worker exit");
        assert!(status.success(), "worker exited with {status}");
    }
}
