//! The distributed trainer: Algorithm 2 plus the synchronous baseline.
//!
//! One rank's training step is written once, cut at its blocking point
//! (the gradient round's outcome), and driven two ways: [`run_rank`]
//! runs the whole loop on a rank thread or process (inside a
//! `World::launch` closure), and [`run_sim`] runs every rank on
//! `pcoll::SimHarness`'s virtual clock. The variant decides how gradients
//! are accumulated:
//!
//! - **Deep500-style synch-SGD** (§3): one blocking allreduce per step,
//!   communication ordered by construction (our engine's per-collective
//!   rounds provide the ordering the Deep500 DSGD optimizer gets from
//!   control dependencies in the DAG).
//! - **eager-SGD** (§5): partial allreduce (solo, majority, or any
//!   quorum policy); stale gradients accumulate in the send buffer
//!   (Fig. 7 protocol, implemented in `pcoll::PartialAllreduce`), and the
//!   models are re-synchronized every `model_sync_every` epochs by a
//!   blocking average of the weights (§5: "we periodically synchronize
//!   the models across all processes to eliminate the side effect").
//!
//! Time accounting: the x-axes of Figs. 10–13 are *training* time, so
//! epoch-boundary evaluation (rank 0, inside barriers) is excluded from
//! the reported clock.

use crate::metrics::{rate, EpochRecord, EvalRecord, TrainLog};
use crate::workloads::Workload;
use dnn::optim::LrSchedule;
use dnn::{Batch, EvalMetrics, Model, Optimizer};
use imbalance::Injector;
use minitensor::TensorRng;
use pcoll::{
    Outcome, Pacing, PartialOpts, QuorumPolicy, RankCtx, RankStep, RoundCounters, SimHarness,
    SimSpec, StaleMode, StepSetup,
};
use pcoll_comm::{Clock, DType, ReduceOp, SimOpts, TimePoint, TypedBuf, WorldConfig};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Which SGD the rank runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SgdVariant {
    /// Blocking allreduce per step (Deep500-style ordered execution).
    SynchDeep500,
    /// eager-SGD with solo allreduce (§4.1).
    EagerSolo,
    /// eager-SGD with majority allreduce (§4.2).
    EagerMajority,
    /// eager-SGD with an explicit quorum policy (§8's spectrum).
    EagerQuorum { chain: usize, race: bool },
}

impl SgdVariant {
    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            SgdVariant::SynchDeep500 => "synch-SGD (Deep500)".into(),
            SgdVariant::EagerSolo => "eager-SGD (solo)".into(),
            SgdVariant::EagerMajority => "eager-SGD (majority)".into(),
            SgdVariant::EagerQuorum { chain, race } => {
                if *race {
                    format!("eager-SGD (first-of-{chain})")
                } else {
                    format!("eager-SGD (chain-{chain})")
                }
            }
        }
    }

    /// Where on the quorum spectrum the gradient allreduce sits: the
    /// synchronous baseline is its `Full` endpoint (§4).
    fn quorum_policy(&self) -> QuorumPolicy {
        match self {
            SgdVariant::SynchDeep500 => QuorumPolicy::Full,
            SgdVariant::EagerSolo => QuorumPolicy::Solo,
            SgdVariant::EagerMajority => QuorumPolicy::Majority,
            SgdVariant::EagerQuorum { chain, race: true } => QuorumPolicy::FirstOf(*chain),
            SgdVariant::EagerQuorum { chain, race: false } => QuorumPolicy::Chain(*chain),
        }
    }

    /// Is this an eager (partial-collective) variant?
    pub fn is_eager(&self) -> bool {
        self.quorum_policy() != QuorumPolicy::Full
    }
}

/// Trainer configuration (shared verbatim by all ranks).
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    pub variant: SgdVariant,
    pub epochs: usize,
    pub steps_per_epoch: usize,
    pub lr: LrSchedule,
    /// Synchronize models every k epochs (eager variants; §5 uses ~10).
    /// `None` disables (the §6.2.2 ablation: "without model
    /// synchronization ... accuracy decreases").
    pub model_sync_every: Option<usize>,
    /// Delay injection protocol.
    pub injector: Injector,
    /// Simulated balanced per-step compute (ms on the rank's clock),
    /// standing in for the GPU forward/backward time that our CPU proxy
    /// models underestimate. Sets the compute-to-injection ratio that the
    /// speedup factors depend on.
    pub base_compute_ms: f64,
    /// Stale-gradient handling in the partial collective (ablation; the
    /// paper's protocol is `Accumulate`).
    pub stale_mode: StaleMode,
    /// Clip the averaged gradient to this global ℓ2 norm before the
    /// update (None = off). Stale accumulation can transiently double
    /// gradient magnitudes (G_stale + G_fresh, Fig. 7); clipping keeps
    /// aggressive learning rates finite without hiding the accuracy
    /// effects the severe-skew experiments measure.
    pub grad_clip: Option<f32>,
    /// Evaluate on rank 0 every k epochs (and at the end).
    pub eval_every: usize,
    pub seed: u64,
}

impl TrainerConfig {
    pub fn new(variant: SgdVariant, epochs: usize, steps_per_epoch: usize, lr: f32) -> Self {
        TrainerConfig {
            variant,
            epochs,
            steps_per_epoch,
            lr: LrSchedule::constant(lr),
            model_sync_every: Some(10),
            injector: Injector::None,
            base_compute_ms: 0.0,
            stale_mode: StaleMode::Accumulate,
            grad_clip: None,
            eval_every: 1,
            seed: 42,
        }
    }
}

/// The elements of a gradient or weight buffer (all are `F32`).
fn f32s(buf: &mut TypedBuf) -> &mut [f32] {
    buf.as_f32_mut().expect("f32 collective")
}

/// The gradient collective's options: Algorithm 2's `1/P` average as a
/// step of the round, and the configured stale-gradient handling.
fn gradient_opts(cfg: &TrainerConfig, p: usize) -> PartialOpts {
    PartialOpts {
        scale: Some(1.0 / p as f64),
        stale_mode: cfg.stale_mode,
        ..PartialOpts::default()
    }
}

/// One rank's training step, cut at its blocking point (the round's
/// outcome) so that [`run_rank`] and [`run_sim`] drive the same code: the
/// delay, the deposit half ([`Step::grad`], then `write_grads` into the
/// send buffer), the outcome half ([`Step::apply`]) and the epoch
/// bookkeeping. It carries the rank's state from one step to the next.
struct Step {
    rank: usize,
    p: usize,
    cfg: TrainerConfig,
    /// `cfg.injector` seeded from `cfg.seed`: the one seeding path, so a
    /// whole run reproduces from the experiment seed alone.
    injector: Injector,
    rng: TensorRng,
    delta: Vec<f32>,
    clipped: Vec<f32>,
    loss_sum: f32,
    step: u64,
    /// When the epoch began and when its last step ended (rank's clock).
    epoch_t0: TimePoint,
    epoch_end: TimePoint,
    /// The epoch-end fence the rank last entered ([`Step::end_epoch`]).
    fence: Option<Fence>,
    /// Rank 0's evaluation sets, fetched at the first evaluation and kept:
    /// every `Workload` hands out a deep copy (MiBs for a held-out set).
    eval_sets: Option<(Vec<Batch>, Vec<Batch>)>,
    log: TrainLog,
}

impl Step {
    fn new(rank: usize, p: usize, n: usize, cfg: &TrainerConfig) -> Step {
        Step {
            rank,
            p,
            cfg: cfg.clone(),
            injector: cfg.injector.clone().with_seed(cfg.seed),
            rng: TensorRng::new(cfg.seed ^ (rank as u64).wrapping_mul(0x1F3D_5B79)),
            delta: vec![0.0; n],
            clipped: Vec::new(),
            loss_sum: 0.0,
            step: 0,
            epoch_t0: TimePoint::ZERO,
            epoch_end: TimePoint::ZERO,
            fence: None,
            eval_sets: None,
            log: TrainLog::new(rank),
        }
    }

    /// `rank`'s compute before depositing `step`: the simulated balanced
    /// compute plus the injected delay (§6.2). A pure function of the
    /// config, so any driver can evaluate any rank's.
    fn delay(&self, rank: usize, step: u64) -> Duration {
        let ms = self.cfg.base_compute_ms + self.injector.delay_ms(rank, self.p, step);
        Duration::from_secs_f64(ms / 1e3)
    }

    /// Begin the next epoch at `now`: its learning rate, a fresh loss sum.
    fn begin_epoch(&mut self, opt: &mut dyn Optimizer, now: TimePoint) {
        opt.set_lr(self.cfg.lr.at(self.log.epochs.len()));
        self.loss_sum = 0.0;
        self.epoch_t0 = now;
    }

    /// The deposit half's compute: sample and backpropagate a minibatch.
    fn grad(&mut self, model: &mut dyn Model, workload: &dyn Workload) {
        let batch = workload.sample(self.rank, self.step, &mut self.rng);
        self.loss_sum += model.grad_step(&batch);
    }

    /// The outcome half: clip the averaged gradient and apply the
    /// optimizer's update. Returns whether the step ended an epoch.
    fn apply(&mut self, model: &mut dyn Model, opt: &mut dyn Optimizer, avg: &[f32]) -> bool {
        let mut avg = avg;
        if let Some(max_norm) = self.cfg.grad_clip {
            let norm = avg.iter().map(|g| g * g).sum::<f32>().sqrt();
            if norm > max_norm {
                self.clipped.clear();
                (self.clipped).extend(avg.iter().map(|g| g * (max_norm / norm)));
                avg = &self.clipped;
            }
        }
        opt.delta(avg, &mut self.delta);
        model.apply_delta(&self.delta);
        self.step += 1;
        self.step.is_multiple_of(self.cfg.steps_per_epoch as u64)
    }

    /// The epoch-end sequence, one fence at a time: eager variants average
    /// the weights every `model_sync_every` epochs (§5) and the epoch is
    /// recorded; rank 0 evaluates every `eval_every` (both at the end)
    /// between two barriers, so it competes with no rank's timed steps.
    /// Call it once the epoch's last step applied (`epoch_end` stamped) and
    /// again each time the returned fence opens, at `now`; `None`: the
    /// epoch is closed.
    fn end_epoch(
        &mut self,
        model: &mut dyn Model,
        w: &dyn Workload,
        now: TimePoint,
    ) -> Option<Fence> {
        let (epoch, last) = (self.log.epochs.len() + 1, self.cfg.epochs);
        let sync = (self.cfg.variant.is_eager())
            && (self.cfg.model_sync_every).is_some_and(|k| epoch % k == 0 || epoch == last);
        let eval = epoch % self.cfg.eval_every.max(1) == 0 || epoch == last;
        self.fence = match self.fence {
            None if sync => Some(Fence::WeightSync),
            None | Some(Fence::WeightSync) => {
                let epoch_secs = self.epoch_end.duration_since(self.epoch_t0).as_secs_f64();
                // The weight sync is training time: from the epoch's end to
                // the average's arrival.
                let synced = now.duration_since(self.epoch_end) * u32::from(sync);
                self.log.total_train_s += epoch_secs;
                self.log.total_train_s += synced.as_secs_f64();
                let steps = self.cfg.steps_per_epoch;
                self.log.epochs.push(EpochRecord {
                    epoch: self.log.epochs.len(),
                    train_time_s: self.log.total_train_s,
                    mean_loss: self.loss_sum / steps.max(1) as f32,
                    throughput: rate(steps as u64, epoch_secs),
                    test: None,
                    train: None,
                });
                eval.then_some(Fence::BeforeEval)
            }
            Some(Fence::BeforeEval) => {
                if self.rank == 0 {
                    let (t, tr) = (self.eval_sets)
                        .get_or_insert_with(|| (w.test_batches(), w.train_batches()));
                    let record = self.log.epochs.last_mut().expect("the epoch is recorded");
                    [record.test, record.train] = [&*t, &*tr].map(|set| evaluate(model, set));
                }
                Some(Fence::AfterEval)
            }
            Some(Fence::AfterEval) => None,
        };
        self.fence
    }

    /// The finished log, with the gradient collective's round counters.
    fn finish(mut self, rounds: RoundCounters) -> TrainLog {
        self.log.fresh_rounds = rounds.fresh;
        self.log.missed_rounds = rounds.missed;
        self.log.steps = self.step;
        self.log
    }
}

/// A blocking collective every rank enters at an epoch's end
/// ([`Step::end_epoch`]): the weights' average, or the barrier on either
/// side of rank 0's evaluation.
#[derive(Clone, Copy)]
enum Fence {
    WeightSync,
    BeforeEval,
    AfterEval,
}

/// Run the full training loop on this rank, the step's threaded driver.
/// SPMD: every rank calls this with identical `cfg`; the model must be
/// identically initialized on all ranks (same seed) — as the paper's
/// data-parallel setup requires.
pub fn run_rank(
    ctx: &RankCtx,
    model: &mut dyn Model,
    opt: &mut dyn Optimizer,
    workload: &dyn Workload,
    cfg: &TrainerConfig,
) -> TrainLog {
    let rank = ctx.rank();
    let p = ctx.size();
    let n = model.num_params();
    let mut st = Step::new(rank, p, n, cfg);

    // SPMD collective construction order: gradient reducer, weight
    // synchronizer. The gradient crosses one collective over the whole
    // flattened buffer (Horovod-style tensor fusion), which is what the
    // eager send-buffer semantics are defined on.
    let policy = cfg.variant.quorum_policy();
    let opts = gradient_opts(cfg, p);
    let scale = opts.scale;
    let mut ar = ctx.partial_allreduce(DType::F32, n, ReduceOp::Sum, policy, opts);
    let mut weight_sync = ctx.sync_allreduce(DType::F32, n, ReduceOp::Sum, scale);

    // Every timer reads the rank's clock (see `RankCtx::clock`).
    let clock = ctx.clock();

    for _ in 0..cfg.epochs {
        st.begin_epoch(opt, clock.now());
        for _ in 0..cfg.steps_per_epoch {
            let step = st.step;
            let step_t0 = (ctx.recorder())
                .enabled(pcoll_obs::LEVEL_SPANS)
                .then(|| clock.now());
            st.grad(model, workload);
            let delay = st.delay(rank, step);
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }

            // Write straight into the send buffer, read the result in place.
            let round = ar.deposit_fill(|send| model.write_grads(f32s(send)));
            let out = ar.wait_for(round);
            st.apply(model, opt, out.data.as_f32().expect("f32 gradients"));
            if let Some(t0) = step_t0 {
                let dur_ns = clock.now().duration_since(t0).as_nanos() as u64;
                ctx.recorder()
                    .record(pcoll_obs::LEVEL_SPANS, || pcoll_obs::EventKind::StepSpan {
                        step,
                        dur_ns,
                    });
            }
        }
        st.epoch_end = clock.now();
        while let Some(fence) = st.end_epoch(model, workload, clock.now()) {
            if let Fence::WeightSync = fence {
                let round = weight_sync.deposit_fill(|send| model.write_params(f32s(send)));
                let avg = weight_sync.wait_for(round);
                model.read_params(avg.data.as_f32().expect("f32 params"));
            } else {
                ctx.barrier();
            }
        }
    }
    st.finish(ar.counters())
}

/// Train every rank of a simulated world: [`run_rank`]'s step, driven by
/// `pcoll::SimHarness` on the virtual clock, so the run is a pure function
/// of `(cfg, world, opts)`. `build(rank)` makes a rank's model (identically
/// initialized on every rank, as on threads) and optimizer. Returns every
/// rank's log and final weights, in rank order.
///
/// Rounds, length, policy, scale and stale mode come from `cfg` and the
/// model, and every rank runs [`run_rank`]'s collectives, fences included,
/// over the modelled network. What differs: time is virtual. A step takes
/// its delay, plus its batch's [`Workload::cost_ms`], plus the modelled
/// network time; `grad_step`, the optimizer and evaluation take none.
pub fn run_sim(
    cfg: &TrainerConfig,
    mut build: impl FnMut(usize) -> (Box<dyn Model>, Box<dyn Optimizer>),
    workload: Arc<dyn Workload>,
    world: WorldConfig,
    opts: SimOpts,
) -> Vec<(TrainLog, Vec<f32>)> {
    let p = world.nranks;
    let trainees: Vec<Arc<Mutex<Trainee>>> = (0..p)
        .map(|rank| {
            let (model, mut opt) = build(rank);
            let mut st = Step::new(rank, p, model.num_params(), cfg);
            st.begin_epoch(&mut *opt, TimePoint::ZERO);
            let workload = Arc::clone(&workload);
            Arc::new(Mutex::new(Trainee {
                st,
                model,
                opt,
                workload,
            }))
        })
        .collect();
    let n = trainees.first().map_or(0, |t| lock(t).model.num_params());
    let shared = trainees.clone();
    let report = SimHarness::run(SimSpec {
        world,
        opts,
        policy: cfg.variant.quorum_policy(),
        rounds: (cfg.epochs * cfg.steps_per_epoch) as u64,
        len: n,
        pacing: Pacing::SelfPaced(StepSetup::new(move |rank, _, clock| {
            let trainee = Arc::clone(&shared[rank]);
            Box::new(SimStep { trainee, clock })
        })),
        partial: gradient_opts(cfg, p),
    });
    (trainees.into_iter().zip(&report.counters))
        .map(|(t, rounds)| {
            let t = Arc::into_inner(t).expect("the harness is gone");
            let t = t.into_inner().expect("no step panicked");
            let mut weights = vec![0.0; n];
            t.model.write_params(&mut weights);
            (t.st.finish(*rounds), weights)
        })
        .collect()
}

/// One simulated rank: its step and what the step runs on.
struct Trainee {
    st: Step,
    model: Box<dyn Model>,
    opt: Box<dyn Optimizer>,
    workload: Arc<dyn Workload>,
}

fn lock(t: &Mutex<Trainee>) -> std::sync::MutexGuard<'_, Trainee> {
    t.lock().expect("no step panicked")
}

/// The harness's handle on a [`Trainee`]; [`run_sim`] takes the trainee
/// back once the harness is gone.
struct SimStep {
    trainee: Arc<Mutex<Trainee>>,
    clock: Clock,
}

impl RankStep for SimStep {
    fn delay(&self, rank: usize, round: u64) -> Duration {
        // A rank thread pays its batch's compute for real; here it is charged.
        let t = lock(&self.trainee);
        t.st.delay(rank, round) + Duration::from_secs_f64(t.workload.cost_ms(rank, round) / 1e3)
    }

    fn fill(&mut self, _: u64, send: &mut TypedBuf) {
        let t = &mut *lock(&self.trainee);
        t.st.grad(&mut *t.model, &*t.workload);
        t.model.write_grads(f32s(send));
    }

    fn outcome(&mut self, outcome: Outcome<'_>) -> Option<TypedBuf> {
        let now = self.clock.now();
        let t = &mut *lock(&self.trainee);
        match outcome {
            Outcome::Round(out) => {
                let avg = out.data.as_f32().expect("f32 gradients");
                if !t.st.apply(&mut *t.model, &mut *t.opt, avg) {
                    return None;
                }
                t.st.epoch_end = now;
            }
            // The weight sync's average (a barrier's result is empty).
            Outcome::Fence(avg) if !avg.data.is_empty() => {
                t.model.read_params(avg.data.as_f32().expect("f32 weights"));
            }
            Outcome::Fence(_) => {}
        }
        match t.st.end_epoch(&mut *t.model, &*t.workload, now) {
            Some(Fence::WeightSync) => {
                let mut weights = vec![0.0; t.model.num_params()];
                t.model.write_params(&mut weights);
                Some(TypedBuf::from(weights))
            }
            Some(_) => Some(TypedBuf::zeros(DType::F32, 0)),
            None => {
                t.st.begin_epoch(&mut *t.opt, now);
                None
            }
        }
    }
}

/// `model`'s loss and accuracy over `batches` (none for no batches).
fn evaluate(model: &mut dyn Model, batches: &[Batch]) -> Option<EvalRecord> {
    let mut acc = EvalMetrics::default();
    batches.iter().for_each(|b| acc.merge(&model.evaluate(b)));
    (!batches.is_empty()).then(|| acc.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::HyperplaneWorkload;
    use datagen::HyperplaneTask;
    use dnn::zoo::hyperplane_mlp;
    use dnn::Sgd;
    use pcoll_comm::{World, WorldConfig};
    use std::sync::Arc;

    fn run_variant(variant: SgdVariant, p: usize, epochs: usize) -> Vec<TrainLog> {
        let task = Arc::new(HyperplaneTask::new(64, 4096, 0.05, 128, 7));
        World::launch(WorldConfig::instant(p), move |c| {
            let ctx = RankCtx::new(c);
            let mut rng = TensorRng::new(1234);
            let mut model = hyperplane_mlp(64, &mut rng);
            let mut opt = Sgd::new(0.02);
            let wl = HyperplaneWorkload {
                task: Arc::clone(&task),
                local_batch: 32,
            };
            let mut cfg = TrainerConfig::new(variant, epochs, 8, 0.02);
            cfg.model_sync_every = Some(2);
            cfg.eval_every = 1;
            let log = run_rank(&ctx, &mut model, &mut opt, &wl, &cfg);
            ctx.finalize();
            log
        })
    }

    fn final_loss(logs: &[TrainLog]) -> f32 {
        logs[0]
            .epochs
            .last()
            .and_then(|e| e.test.map(|t| t.loss))
            .expect("rank 0 evaluated")
    }

    #[test]
    fn sync_deep500_converges() {
        let logs = run_variant(SgdVariant::SynchDeep500, 4, 6);
        let first = logs[0].epochs[0].mean_loss;
        let last = final_loss(&logs);
        assert!(last < first * 0.2, "loss {first} → {last}");
        assert_eq!(logs[0].steps, 48);
    }

    #[test]
    fn eager_solo_converges_when_balanced() {
        let logs = run_variant(SgdVariant::EagerSolo, 4, 6);
        let first = logs[0].epochs[0].mean_loss;
        let last = final_loss(&logs);
        assert!(last < first * 0.25, "loss {first} → {last}");
    }

    #[test]
    fn eager_majority_converges_when_balanced() {
        let logs = run_variant(SgdVariant::EagerMajority, 4, 6);
        let first = logs[0].epochs[0].mean_loss;
        let last = final_loss(&logs);
        assert!(last < first * 0.25, "loss {first} → {last}");
    }

    #[test]
    fn eager_is_faster_under_injected_skew() {
        // The core claim, miniaturized: with one random slow rank per
        // step, eager-solo's training time beats synch-SGD's.
        let p = 4;
        let run = |variant| {
            let task = Arc::new(HyperplaneTask::new(32, 1024, 0.05, 64, 7));
            let logs = World::launch(WorldConfig::instant(p), move |c| {
                let ctx = RankCtx::new(c);
                let mut rng = TensorRng::new(5);
                let mut model = hyperplane_mlp(32, &mut rng);
                let mut opt = Sgd::new(0.02);
                let wl = HyperplaneWorkload {
                    task: Arc::clone(&task),
                    local_batch: 16,
                };
                let mut cfg = TrainerConfig::new(variant, 2, 10, 0.02);
                cfg.injector = Injector::RandomRanks {
                    k: 1,
                    amount_ms: 30.0,
                    seed: 3,
                };
                cfg.eval_every = 100; // skip eval: pure throughput
                let log = run_rank(&ctx, &mut model, &mut opt, &wl, &cfg);
                ctx.finalize();
                log
            });
            logs.iter().map(|l| l.total_train_s).sum::<f64>() / p as f64
        };
        let sync_t = run(SgdVariant::SynchDeep500);
        let eager_t = run(SgdVariant::EagerSolo);
        assert!(
            eager_t < sync_t * 0.85,
            "eager {eager_t:.3}s should beat sync {sync_t:.3}s"
        );
    }

    /// [`run_sim`] on an instant network with `cfg`'s skew: every rank's
    /// log, for the 32-wide MLP of `eager_is_faster_under_injected_skew`.
    fn sim_logs(cfg: &TrainerConfig, p: usize) -> Vec<TrainLog> {
        let task = Arc::new(HyperplaneTask::new(32, 1024, 0.05, 64, 7));
        let build = |_| -> (Box<dyn Model>, Box<dyn Optimizer>) {
            let model = hyperplane_mlp(32, &mut TensorRng::new(5));
            (Box::new(model), Box::new(Sgd::new(0.02)))
        };
        let wl = Arc::new(HyperplaneWorkload {
            task,
            local_batch: 16,
        });
        let world = WorldConfig::instant(p);
        let runs = run_sim(cfg, build, wl, world, pcoll_comm::SimOpts::default());
        runs.into_iter().map(|(log, _)| log).collect()
    }

    #[test]
    fn eager_is_faster_under_injected_skew_on_virtual_time() {
        // The twin of `eager_is_faster_under_injected_skew`, exact: one
        // random rank per step is 30 ms late, so every synchronous step
        // takes exactly 30 ms on every rank.
        let p = 4;
        let mut cfg = TrainerConfig::new(SgdVariant::SynchDeep500, 2, 10, 0.02);
        cfg.injector = Injector::RandomRanks {
            k: 1,
            amount_ms: 30.0,
            seed: 3,
        };
        cfg.eval_every = 100;
        let sync = sim_logs(&cfg, p);
        let want = Duration::from_millis(30) * 20;
        for log in &sync {
            let ns = (log.total_train_s * 1e9).round() as u128;
            assert_eq!(ns, want.as_nanos(), "rank {}", log.rank);
        }
        cfg.variant = SgdVariant::EagerSolo;
        let eager = sim_logs(&cfg, p);
        let eager_t = eager.iter().map(|l| l.total_train_s).sum::<f64>() / p as f64;
        assert!(
            eager_t < want.as_secs_f64() * 0.85,
            "eager {eager_t:.3}s should beat sync {want:?}"
        );
    }

    #[test]
    fn zero_length_epochs_report_zero_throughput() {
        // No compute, no injection, an instant network: on virtual time
        // every epoch takes no time at all, and has no rate.
        let cfg = TrainerConfig::new(SgdVariant::SynchDeep500, 2, 4, 0.02);
        for log in sim_logs(&cfg, 2) {
            assert_eq!(log.total_train_s, 0.0);
            assert_eq!(log.mean_throughput(), 0.0);
            assert!(log.epochs.iter().all(|e| e.throughput == 0.0), "{log:?}");
        }
    }

    #[test]
    fn model_sync_restores_consistency() {
        // After a weight sync epoch, all ranks' params must be identical
        // even under eager updates with skew.
        let p = 4;
        let task = Arc::new(HyperplaneTask::new(16, 512, 0.05, 32, 7));
        let params = World::launch(WorldConfig::instant(p), move |c| {
            let ctx = RankCtx::new(c);
            let mut rng = TensorRng::new(77);
            let mut model = hyperplane_mlp(16, &mut rng);
            let mut opt = Sgd::new(0.05);
            let wl = HyperplaneWorkload {
                task: Arc::clone(&task),
                local_batch: 8,
            };
            let mut cfg = TrainerConfig::new(SgdVariant::EagerSolo, 2, 6, 0.05);
            cfg.injector = Injector::RandomRanks {
                k: 1,
                amount_ms: 20.0,
                seed: 1,
            };
            cfg.model_sync_every = Some(2); // sync at the final epoch
            cfg.eval_every = 100;
            let _ = run_rank(&ctx, &mut model, &mut opt, &wl, &cfg);
            let mut flat = vec![0.0f32; Model::num_params(&model)];
            model.write_params(&mut flat);
            ctx.finalize();
            flat
        });
        for r in 1..p {
            assert_eq!(
                params[0], params[r],
                "rank {r} weights differ after model sync"
            );
        }
    }
}
