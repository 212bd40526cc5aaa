//! The distributed trainer: Algorithm 2 plus the synchronous baselines.
//!
//! One [`run_rank`] call executes the full training loop on one rank
//! (inside a `World::launch` closure). The variant decides how gradients
//! are accumulated:
//!
//! - **Deep500-style synch-SGD** (§3): one blocking allreduce per step,
//!   communication ordered by construction (our engine's per-collective
//!   rounds provide the ordering the Deep500 DSGD optimizer gets from
//!   control dependencies in the DAG).
//! - **Horovod-style synch-SGD** (§3): same blocking allreduce, preceded
//!   by a coordinator round-trip (reduce-to-0 + broadcast of a tiny
//!   readiness word) modeling Horovod's master-based negotiation.
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

use crate::metrics::{EpochRecord, TrainLog, TuneDecision};
use crate::workloads::Workload;
use dnn::optim::LrSchedule;
use dnn::{EvalMetrics, Model, Optimizer};
use imbalance::Injector;
use minitensor::TensorRng;
use pcoll::{PartialOpts, QuorumPolicy, RankCtx, StaleMode};
pub use pcoll::{QuorumDecision, QuorumTuner, TunerSetup};
use pcoll_comm::{DType, ReduceOp, TypedBuf};
use serde::{Deserialize, Serialize};

/// Which SGD the rank runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SgdVariant {
    /// Blocking allreduce per step (Deep500-style ordered execution).
    SynchDeep500,
    /// Negotiation round-trip + blocking allreduce (Horovod-style).
    SynchHorovod,
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
            SgdVariant::SynchHorovod => "synch-SGD (Horovod)".into(),
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
    /// synchronous baselines are its `Full` endpoint (§4).
    fn quorum_policy(&self) -> QuorumPolicy {
        match self {
            SgdVariant::SynchDeep500 | SgdVariant::SynchHorovod => QuorumPolicy::Full,
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
    /// Multiplier mapping the paper's injected milliseconds onto
    /// wall-clock (`--time-scale` in README "Running experiments";
    /// ratios are scale-invariant).
    pub time_scale: f64,
    /// Simulated balanced per-step compute (paper milliseconds, scaled by
    /// `time_scale`), standing in for the GPU forward/backward time that
    /// our CPU proxy models underestimate. Sets the compute-to-injection
    /// ratio that the speedup factors depend on.
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
    /// Closed-loop quorum controller (eager variants only; ignored for
    /// the synchronous baselines), built on the rank's clock. See
    /// [`QuorumTuner`].
    pub tuner: Option<TunerSetup>,
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
            time_scale: 1.0,
            base_compute_ms: 0.0,
            stale_mode: StaleMode::Accumulate,
            grad_clip: None,
            eval_every: 1,
            seed: 42,
            tuner: None,
        }
    }
}

/// The elements of a gradient or weight buffer (all are `F32`).
fn f32s(buf: &mut TypedBuf) -> &mut [f32] {
    buf.as_f32_mut().expect("f32 collective")
}

/// Run the full training loop on this rank. SPMD: every rank calls this
/// with identical `cfg`; the model must be identically initialized on all
/// ranks (same seed) — as the paper's data-parallel setup requires.
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
    let scale = Some(1.0 / p as f64);
    // Single seeding path: the config's injector is a shape; all of its
    // randomness derives here from the experiment seed, so a whole run
    // reproduces from `cfg.seed` alone.
    let injector = cfg.injector.clone().with_seed(cfg.seed);

    // Per-rank closed-loop tuner (eager variants only): built before the
    // collectives so its initial policy can be wired in.
    let mut tuner = if cfg.variant.is_eager() {
        (cfg.tuner.as_ref()).map(|t| t.build(rank, p, ctx.clock().clone()))
    } else {
        None
    };
    // Transport counters when training starts: decision windows count
    // what moved since, not the world's setup traffic.
    let comm_at_start = ctx.comm_stats().snapshot();

    // SPMD collective construction order: gradient reducer, negotiation
    // pair (Horovod only), weight synchronizer, tuner consensus allreduce
    // (adaptive runs only). The gradient crosses one collective over the
    // whole flattened buffer (Horovod-style tensor fusion), which is what
    // the eager send-buffer semantics are defined on.
    let policy = tuner
        .as_ref()
        .and_then(|t| t.initial_policy())
        .unwrap_or(cfg.variant.quorum_policy());
    let mut ar = ctx.partial_allreduce(
        DType::F32,
        n,
        ReduceOp::Sum,
        policy,
        PartialOpts {
            scale,
            stale_mode: cfg.stale_mode,
            ..PartialOpts::default()
        },
    );
    let mut negotiation = (cfg.variant == SgdVariant::SynchHorovod)
        .then(|| (ctx.reduce(0, ReduceOp::Max), ctx.bcast(0)));
    let mut weight_sync = ctx.sync_allreduce(DType::F32, n, ReduceOp::Sum, scale);
    // Small blocking allreduce that sums every rank's stats vector at a
    // decision boundary, so the controllers decide from an identical
    // global view on every rank.
    let mut consensus = tuner
        .as_ref()
        .map(|t| ctx.sync_allreduce(DType::F32, t.stats_len(), ReduceOp::Sum, None));

    let mut rng = TensorRng::new(cfg.seed ^ (rank as u64).wrapping_mul(0x1F3D_5B79));
    let mut delta = vec![0.0f32; n];
    let mut clipped = Vec::new();
    // Rank 0's evaluation sets, fetched at the first evaluation and kept:
    // every `Workload` hands out a deep copy (MiBs for a held-out set).
    let mut eval_sets = None;

    let mut log = TrainLog::new(rank);
    let mut train_time = 0.0f64;
    let mut step: u64 = 0;
    // Every timer reads the rank's clock (see `RankCtx::clock`).
    let clock = ctx.clock();
    let secs_since = |t0| clock.now().duration_since(t0).as_secs_f64();

    for epoch in 0..cfg.epochs {
        opt.set_lr(cfg.lr.at(epoch));
        let mut loss_sum = 0.0f32;
        let epoch_t0 = clock.now();

        for _ in 0..cfg.steps_per_epoch {
            let step_t0 = (ctx.recorder())
                .enabled(pcoll_obs::LEVEL_SPANS)
                .then(|| clock.now());
            let batch = workload.sample(rank, step, &mut rng);
            let loss = model.grad_step(&batch);
            loss_sum += loss;

            // Simulated balanced compute (GPU-scale step time), then the
            // injected system noise / slow-rank delays (§6.2).
            if cfg.base_compute_ms > 0.0 {
                std::thread::sleep(std::time::Duration::from_secs_f64(
                    cfg.base_compute_ms * cfg.time_scale / 1e3,
                ));
            }
            injector.inject(rank, p, step, cfg.time_scale);

            // Horovod-style negotiation: the coordinator learns which
            // tensors are ready and broadcasts the agreed order.
            if let Some((red, bc)) = negotiation.as_mut() {
                let ready = TypedBuf::from(vec![step as i64]);
                let _ = red.reduce(&ready);
                let _ = bc.bcast((rank == 0).then_some(&ready));
            }

            // Write straight into the send buffer, read the result in place.
            let round = ar.deposit_fill(|send| model.write_grads(f32s(send)));
            let out = ar.wait_for(round);
            let mut avg: &[f32] = out.data.as_f32().expect("f32 gradients");
            if let Some(max_norm) = cfg.grad_clip {
                let norm = avg.iter().map(|g| g * g).sum::<f32>().sqrt();
                if norm > max_norm {
                    let s = max_norm / norm;
                    clipped.resize(n, 0.0);
                    clipped.iter_mut().zip(avg).for_each(|(c, g)| *c = g * s);
                    avg = &clipped;
                }
            }
            opt.delta(avg, &mut delta);
            model.apply_delta(&delta);

            // --- Closed-loop quorum control (eager + tuner only). ---
            if let (Some(t), Some(cons)) = (tuner.as_mut(), consensus.as_mut()) {
                // Arrival offsets of *all* ranks this step: every rank can
                // evaluate the injector's global pattern from the shared
                // seed without communication. Scaled to wall-clock ms so
                // estimator offsets share units with the measured round
                // latencies.
                let mut offsets = injector.delays_all(p, step);
                offsets.iter_mut().for_each(|o| *o *= cfg.time_scale);
                t.record_step(step, &offsets);
                if (step + 1).is_multiple_of(t.period().max(1)) {
                    // measure → agree → decide → apply → fence.
                    let comm = ctx.comm_stats().snapshot().since(&comm_at_start);
                    let local = t.local_stats(ar.counters(), comm);
                    let summed = cons.allreduce(&TypedBuf::from(local));
                    let summed = summed.data.as_f32().expect("f32 stats vector");
                    let from_round = ar.rounds();
                    if let Some(d) = t.decide(from_round, summed) {
                        ar.set_policy_from(from_round, d.policy);
                        d.record(ctx.recorder(), step, from_round);
                        log.decisions.push(TuneDecision {
                            step,
                            from_round,
                            policy: d.policy,
                            reward: d.reward,
                            fresh_fraction: d.fresh_fraction,
                            rounds_per_s: d.rounds_per_s,
                            spread_ms: d.spread_ms,
                            queue_stall_ms: d.queue_stall_ms,
                        });
                    }
                    // The barrier guarantees every rank has appended the
                    // new policy segment before any rank can reach (and
                    // drag peers into) a round it governs.
                    ctx.barrier();
                }
            }
            if let Some(t0) = step_t0 {
                let dur_ns = clock.now().duration_since(t0).as_nanos() as u64;
                ctx.recorder()
                    .record(pcoll_obs::LEVEL_SPANS, || pcoll_obs::EventKind::StepSpan {
                        step,
                        dur_ns,
                    });
            }
            step += 1;
        }
        let epoch_secs = secs_since(epoch_t0);
        train_time += epoch_secs;

        // Periodic model synchronization (eager variants, §5). This is
        // *inside* the training clock: the paper counts it as (negligible)
        // training overhead.
        if cfg.variant.is_eager() {
            if let Some(every) = cfg.model_sync_every {
                if (epoch + 1) % every == 0 || epoch + 1 == cfg.epochs {
                    let t0 = clock.now();
                    let round = weight_sync.deposit_fill(|send| model.write_params(f32s(send)));
                    let avg = weight_sync.wait_for(round);
                    model.read_params(avg.data.as_f32().expect("f32 params"));
                    train_time += secs_since(t0);
                }
            }
        }

        // Epoch-boundary evaluation on rank 0, fenced by barriers and
        // excluded from the training clock.
        let eval_now = (epoch + 1) % cfg.eval_every.max(1) == 0 || epoch + 1 == cfg.epochs;
        let (test, train) = if eval_now {
            ctx.barrier();
            let result = if rank == 0 {
                let (test_set, train_set) = eval_sets
                    .get_or_insert_with(|| (workload.test_batches(), workload.train_batches()));
                let test = eval_all(model, test_set);
                let train = eval_all(model, train_set);
                (test.map(Into::into), train.map(Into::into))
            } else {
                (None, None)
            };
            ctx.barrier();
            result
        } else {
            (None, None)
        };

        log.epochs.push(EpochRecord {
            epoch,
            train_time_s: train_time,
            mean_loss: loss_sum / cfg.steps_per_epoch.max(1) as f32,
            throughput: cfg.steps_per_epoch as f64 / epoch_secs,
            test,
            train,
        });
    }

    let rounds = ar.counters();
    log.fresh_rounds = rounds.fresh;
    log.missed_rounds = rounds.missed;
    log.steps = step;
    log.total_train_s = train_time;
    log
}

fn eval_all(model: &mut dyn Model, batches: &[dnn::Batch]) -> Option<EvalMetrics> {
    if batches.is_empty() {
        return None;
    }
    let mut acc = EvalMetrics::default();
    for b in batches {
        let m = model.evaluate(b);
        acc.merge(&m);
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::HyperplaneWorkload;
    use datagen::HyperplaneTask;
    use dnn::zoo::hyperplane_mlp;
    use dnn::Sgd;
    use pcoll::RoundCounters;
    use pcoll_comm::{CommStatsSnapshot, World, WorldConfig};
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
    fn sync_horovod_converges() {
        let logs = run_variant(SgdVariant::SynchHorovod, 4, 6);
        let first = logs[0].epochs[0].mean_loss;
        let last = final_loss(&logs);
        assert!(last < first * 0.2, "loss {first} → {last}");
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

    #[test]
    fn tuner_protocol_switches_policies_safely_under_skew() {
        // A toy tuner cycling across the whole spectrum (including Full)
        // every 4 steps: validates the measure → agree → decide → apply
        // protocol end to end under injected skew — consensus summation,
        // timeline appends on every rank, no deadlock across switches —
        // and that identical decision logs land on every rank.
        struct Cycle {
            idx: usize,
        }
        const ARMS: [QuorumPolicy; 4] = [
            QuorumPolicy::Chain(2),
            QuorumPolicy::Majority,
            QuorumPolicy::Full,
            QuorumPolicy::Solo,
        ];
        impl QuorumTuner for Cycle {
            fn period(&self) -> u64 {
                4
            }
            fn initial_policy(&self) -> Option<QuorumPolicy> {
                Some(QuorumPolicy::Solo)
            }
            fn stats_len(&self) -> usize {
                2
            }
            fn local_stats(&mut self, _: RoundCounters, _: CommStatsSnapshot) -> Vec<f32> {
                vec![1.0, 3.0]
            }
            fn decide(&mut self, _from_round: u64, summed: &[f32]) -> Option<QuorumDecision> {
                // Every rank contributed exactly one stats vector.
                assert_eq!(summed, [4.0, 12.0]);
                let policy = ARMS[self.idx % ARMS.len()];
                self.idx += 1;
                Some(QuorumDecision {
                    policy,
                    reward: 1.0,
                    fresh_fraction: 1.0,
                    rounds_per_s: 1.0,
                    spread_ms: 0.0,
                    queue_stall_ms: 0.0,
                })
            }
        }
        let p = 4;
        let task = Arc::new(HyperplaneTask::new(16, 256, 0.05, 32, 7));
        let logs = World::launch(WorldConfig::instant(p), move |c| {
            let ctx = RankCtx::new(c);
            let mut rng = TensorRng::new(3);
            let mut model = hyperplane_mlp(16, &mut rng);
            let mut opt = Sgd::new(0.02);
            let wl = HyperplaneWorkload {
                task: Arc::clone(&task),
                local_batch: 8,
            };
            let mut cfg = TrainerConfig::new(SgdVariant::EagerSolo, 2, 8, 0.02);
            cfg.injector = Injector::RandomRanks {
                k: 1,
                amount_ms: 15.0,
                seed: 9,
            };
            cfg.eval_every = 100;
            cfg.tuner = Some(TunerSetup::new(|_, _, _| Box::new(Cycle { idx: 0 })));
            let log = run_rank(&ctx, &mut model, &mut opt, &wl, &cfg);
            ctx.finalize();
            log
        });
        // 16 steps / period 4 = 4 decisions, identical on every rank.
        for log in &logs {
            assert_eq!(log.decisions.len(), 4, "rank {}", log.rank);
            assert_eq!(log.decisions, logs[0].decisions);
            assert_eq!(log.steps, 16);
        }
        let policies: Vec<QuorumPolicy> = logs[0].decisions.iter().map(|d| d.policy).collect();
        assert_eq!(&policies, &ARMS);
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
