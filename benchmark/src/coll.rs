//! Traced-run phase (b): the benchmark's own `allreduce_owned` loops on
//! the workload's world, tensor and injection, observed from outside — a
//! `RoundObserver` on the collective, `CommStats` snapshots around the
//! loop, and a clock around each call — plus the hand-written blocking
//! ring as the engine's ceiling.

use crate::spans::{Kind, Span};
use crate::spec::Spec;
use crate::train::fnv1a;
use crate::world::{launch_world, Job, JobKind};
use pcoll::algos::DirectCollectives;
use pcoll::{PartialOpts, QuorumPolicy, RankCtx, RoundEvent, RoundObserver};
use pcoll_comm::{CollId, Communicator, DType, Matcher, Payload, ReduceOp, TypedBuf};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Rounds of the conservation sub-phase.
const MASS_ROUNDS: u64 = 16;
/// Pause between a barrier and a read of the transport counters.
const COUNTER_SETTLE: Duration = Duration::from_millis(5);
/// Rounds run before a loop is timed.
const WARM_ROUNDS: u64 = 3;

/// How many rounds each loop of a launch runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollPlan {
    /// Majority under the workload's sleeps and injected delays.
    pub injected_rounds: u64,
    /// Majority, every rank arriving as fast as it can.
    pub majority_rounds: u64,
    /// Full quorum, every rank arriving as fast as it can.
    pub full_rounds: u64,
}

/// Transport counters over the Full loop, one rank.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct WireCounts {
    pub sends: u64,
    pub bytes_sent: u64,
    pub send_stalls: u64,
    pub stall_ms: f64,
    pub dropped: u64,
}

/// One rank's measurements from the engine loops.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CollOut {
    pub injected_call_ns: Vec<u64>,
    /// `RoundEvent::latency_ms` of the injected loop's rounds.
    pub round_latency_ms: Vec<f64>,
    /// Injected-loop rounds this rank saw complete, and in how many its
    /// contribution was fresh / it was activated by a peer.
    pub rounds_seen: u64,
    pub fresh: u64,
    pub external: u64,
    pub majority_call_ns: Vec<u64>,
    pub full_call_ns: Vec<u64>,
    pub full_elapsed_s: f64,
    pub full_wire: WireCounts,
    /// Every Full result equalled the sum of the ranks' contributions.
    pub full_exact: bool,
    pub full_digest: u64,
    /// Fig. 7 identity: results accounted over the conservation rounds,
    /// and what was deposited.
    pub mass_accounted: f64,
    pub mass_deposited: f64,
    /// `pcoll.round` spans of the injected loop, encoded.
    pub round_spans: Vec<u64>,
}

/// Collects the rounds a collective reports (engine thread).
struct RoundLog {
    epoch: Instant,
    rounds: Mutex<Vec<(RoundEvent, u64)>>,
}

impl RoundObserver for RoundLog {
    fn on_round(&self, ev: &RoundEvent) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.rounds
            .lock()
            .expect("round log poisoned")
            .push((ev.clone(), end_ns));
    }
}

/// Rank `rank`'s contribution: small integers, so every sum over ranks is
/// exact in f32 whatever the reduction order.
fn contribution(rank: usize, n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| (rank + 1) as f32 * ((i % 7) + 1) as f32)
        .collect()
}

fn expected_sum(p: usize, i: usize) -> f32 {
    (p * (p + 1) / 2) as f32 * ((i % 7) + 1) as f32
}

fn rank_engine_loops(
    comm: Communicator,
    spec: &Spec,
    n: usize,
    plan: CollPlan,
    epoch: Instant,
) -> CollOut {
    let stats = comm.comm_stats();
    let ctx = RankCtx::new(comm);
    let (rank, p) = (ctx.rank(), ctx.size());
    let log = Arc::new(RoundLog {
        epoch,
        rounds: Mutex::new(Vec::new()),
    });
    let partial = |policy, observer: Option<Arc<dyn RoundObserver>>| {
        ctx.partial_allreduce(
            DType::F32,
            n,
            ReduceOp::Sum,
            policy,
            PartialOpts {
                observer,
                ..PartialOpts::default()
            },
        )
    };
    // SPMD construction order.
    let mut injected = partial(QuorumPolicy::Majority, Some(log.clone()));
    let mut majority = partial(QuorumPolicy::Majority, None);
    let mut full = partial(QuorumPolicy::Full, None);
    let mut mass = partial(QuorumPolicy::Majority, None);

    let mine = contribution(rank, n);
    let fresh_payload = || Payload::new(TypedBuf::from(mine.clone()));
    let injector = spec.injector.clone().with_seed(spec.schedule_seed);
    let mut out = CollOut::default();

    // Majority under the workload's arrival pattern.
    for round in 0..plan.injected_rounds + WARM_ROUNDS {
        if spec.base_compute_ms > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(spec.base_compute_ms / 1e3));
        }
        injector.inject(rank, p, round, 1.0);
        let contrib = fresh_payload();
        let t0 = Instant::now();
        let result = injected.allreduce_owned(contrib);
        if round >= WARM_ROUNDS {
            out.injected_call_ns.push(t0.elapsed().as_nanos() as u64);
        }
        drop(result);
    }
    ctx.barrier();

    // Majority and Full with balanced arrivals.
    let timed_loop = |ar: &mut pcoll::PartialAllreduce, rounds: u64, check: bool| {
        let mut calls = Vec::with_capacity(rounds as usize);
        let mut exact = true;
        let mut last_digest = 0;
        for _ in 0..WARM_ROUNDS {
            let _ = ar.allreduce_owned(fresh_payload());
        }
        ctx.barrier();
        // On TCP a frame is counted again when its writer thread takes
        // it; let the barrier's frames drain so the window holds only
        // the loop's own traffic and the counts repeat exactly.
        std::thread::sleep(COUNTER_SETTLE);
        let before = stats.snapshot();
        let t_loop = Instant::now();
        for _ in 0..rounds {
            let contrib = fresh_payload();
            let t0 = Instant::now();
            let result = ar.allreduce_owned(contrib);
            calls.push(t0.elapsed().as_nanos() as u64);
            if check {
                let data = result.data.as_f32().expect("f32 result");
                exact &= data
                    .iter()
                    .enumerate()
                    .all(|(i, &x)| x == expected_sum(p, i));
                last_digest = fnv1a(data);
            }
        }
        let elapsed_s = t_loop.elapsed().as_secs_f64();
        std::thread::sleep(COUNTER_SETTLE);
        let delta = stats.snapshot().since(&before);
        ctx.barrier();
        (calls, elapsed_s, delta, exact, last_digest)
    };
    if plan.majority_rounds > 0 {
        out.majority_call_ns = timed_loop(&mut majority, plan.majority_rounds, false).0;
    }
    let (calls, elapsed_s, delta, exact, last_digest) =
        timed_loop(&mut full, plan.full_rounds, true);
    out.full_call_ns = calls;
    out.full_elapsed_s = elapsed_s;
    out.full_wire = WireCounts {
        sends: delta.sends,
        bytes_sent: delta.bytes_sent,
        send_stalls: delta.send_stalls,
        stall_ms: delta.stall_ms,
        dropped: delta.dropped_closed + delta.dropped_peer_down,
    };
    out.full_exact = exact;
    out.full_digest = last_digest;

    // Fig. 7: every deposit lands in exactly one round's sum. Ranks
    // arrive deterministically skewed, so some deposits go stale and
    // ride along with a later round; one closing round of zeros flushes
    // what is still pending. The barrier per round keeps every rank
    // reading every round's result exactly once.
    let ones = || Payload::new(TypedBuf::from(vec![1.0f32; n]));
    for round in 0..MASS_ROUNDS {
        std::thread::sleep(Duration::from_micros(
            (rank as u64 * 700 + round * 130) % 4000,
        ));
        out.mass_accounted +=
            f64::from(mass.allreduce_owned(ones()).data.as_f32().expect("f32")[0]);
        ctx.barrier();
    }
    let zeros = Payload::new(TypedBuf::from(vec![0.0f32; n]));
    out.mass_accounted += f64::from(mass.allreduce_owned(zeros).data.as_f32().expect("f32")[0]);
    out.mass_deposited = (p as u64 * MASS_ROUNDS) as f64;
    ctx.barrier();

    let rounds = std::mem::take(&mut *log.rounds.lock().expect("round log poisoned"));
    let timed: Vec<&(RoundEvent, u64)> = rounds
        .iter()
        .filter(|(ev, _)| ev.round >= WARM_ROUNDS)
        .collect();
    out.rounds_seen = timed.len() as u64;
    out.fresh = timed.iter().filter(|(ev, _)| ev.fresh).count() as u64;
    out.external = timed.iter().filter(|(ev, _)| ev.external).count() as u64;
    out.round_latency_ms = timed.iter().map(|(ev, _)| ev.latency_ms).collect();
    let spans: Vec<Span> = timed
        .iter()
        .map(|(ev, end_ns)| Span {
            kind: Kind::Round,
            start_ns: end_ns.saturating_sub((ev.latency_ms * 1e6) as u64),
            end_ns: *end_ns,
            parent: None,
            step: ev.round,
        })
        .collect();
    out.round_spans = crate::spans::encode(&spans);
    ctx.finalize();
    out
}

impl CollPlan {
    fn job(&self, label: &str) -> Job {
        Job::new(
            JobKind::Coll,
            label,
            &[self.injected_rounds, self.majority_rounds, self.full_rounds],
        )
    }

    pub fn from_job(job: &Job) -> Option<CollPlan> {
        match job.counts[..] {
            [injected_rounds, majority_rounds, full_rounds] => Some(CollPlan {
                injected_rounds,
                majority_rounds,
                full_rounds,
            }),
            _ => None,
        }
    }
}

/// Launch the workload's world and run the engine loops on every rank.
pub fn launch_engine_loops(
    spec: &Spec,
    seed: u64,
    n: usize,
    plan: CollPlan,
    label: &str,
    epoch: Instant,
) -> Option<Vec<CollOut>> {
    let rank_spec = spec.clone();
    launch_world(spec, seed, spec.p, spec.tcp, &plan.job(label), move |c| {
        rank_engine_loops(c, &rank_spec, n, plan, epoch)
    })
}

/// One rank's measurement of the hand-written ring.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RingOut {
    pub elapsed_s: f64,
    pub exact: bool,
    pub digest: u64,
}

/// `DirectCollectives::ring_allreduce_f32` on the raw communicator: the
/// same reduce-scatter/allgather with no schedule engine in the way.
pub fn launch_direct_ring(
    spec: &Spec,
    seed: u64,
    n: usize,
    rounds: u64,
    label: &str,
) -> Option<Vec<RingOut>> {
    let job = Job::new(JobKind::Ring, label, &[rounds]);
    launch_world(spec, seed, spec.p, spec.tcp, &job, move |c| {
        let (rank, p) = (c.rank(), c.size());
        let (handle, inbox) = c.split();
        let mut matcher = Matcher::new(inbox);
        let mut ring = DirectCollectives::new(&handle, &mut matcher, CollId(7000));
        let mine = contribution(rank, n);
        let mut data = mine.clone();
        for _ in 0..WARM_ROUNDS {
            data.copy_from_slice(&mine);
            ring.ring_allreduce_f32(&mut data, ReduceOp::Sum);
        }
        let mut elapsed_s = 0.0;
        for _ in 0..rounds {
            data.copy_from_slice(&mine);
            let t0 = Instant::now();
            ring.ring_allreduce_f32(&mut data, ReduceOp::Sum);
            elapsed_s += t0.elapsed().as_secs_f64();
        }
        RingOut {
            elapsed_s,
            exact: data
                .iter()
                .enumerate()
                .all(|(i, &x)| x == expected_sum(p, i)),
            digest: fnv1a(&data),
        }
    })
}
