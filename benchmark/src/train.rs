//! What one rank runs inside a world launch: generate inputs, take the
//! first steps of both SGD variants, then run the planned phases through
//! the real `eager_sgd::run_rank`.

use crate::decor::{TracedModel, TracedOptimizer, TracedWorkload};
use crate::pool::{step_durations_ns, Inputs, PoolWorkload};
use crate::spans::{self, SpanSink};
use crate::spec::Spec;
use crate::world::{launch_world, Job, JobKind};
use dnn::{Model, Sgd};
use eager_sgd::{run_rank, SgdVariant, TrainerConfig};
use pcoll::RankCtx;
use pcoll_comm::Communicator;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Steps of each variant every launch runs before anything is timed:
/// schedule construction, first-touch allocation and the other costs a
/// process pays once. They count as set-up.
pub const FIRST_STEPS: usize = 4;

/// What one launch runs after its first steps: how many windows of each
/// phase (zero skips the phase; all zero makes the launch set-up only).
/// The parent sizes the counts and hands them to TCP workers in `argv`,
/// so every rank runs the same number of steps without negotiating.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Plan {
    pub seed: u64,
    /// eager-SGD (majority), tracing off.
    pub eager_windows: usize,
    /// synch-SGD (Deep500-style), tracing off.
    pub sync_windows: usize,
    /// eager-SGD (majority) behind the timing decorators.
    pub traced_windows: usize,
}

/// One `run_rank` call on one rank.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PhaseOut {
    /// Steps per second of each window (trainer epoch) on this rank.
    pub window_rate: Vec<f64>,
    /// Held-out loss after each window: NaN where the window was not
    /// evaluated, and on every rank but 0.
    pub window_loss: Vec<f64>,
    /// Per-step wall time within windows, from one stamp per step.
    pub step_ns: Vec<u64>,
    pub steps: u64,
    /// Wall time of the `run_rank` call, evaluation included.
    pub wall_s: f64,
    pub fresh_rounds: u64,
    pub missed_rounds: u64,
    /// Losses and final parameters are all finite.
    pub finite: bool,
    /// FNV-1a over the final parameters' bit patterns.
    pub params_hash: u64,
    /// Encoded span tree (traced phase only).
    pub spans: Vec<u64>,
}

/// Everything one rank reports from a launch.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RankOut {
    /// Held-out loss of the freshly initialised model (rank 0 only).
    pub init_loss: f64,
    pub eager: Option<PhaseOut>,
    pub sync: Option<PhaseOut>,
    pub traced: Option<PhaseOut>,
    /// High-water RSS of this rank's process in KiB (TCP workers only;
    /// rank threads share the parent's).
    pub rss_kib: u64,
}

pub struct PhaseCfg {
    pub variant: SgdVariant,
    pub windows: usize,
    pub window_steps: usize,
    pub traced: bool,
}

/// FNV-1a over the bit patterns of `values`.
pub fn fnv1a(values: &[f32]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_bits().to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

/// One `run_rank` call from a fresh model, optionally behind the timing
/// decorators. `epoch` is the zero of the span clock.
pub fn run_phase(
    ctx: &RankCtx,
    spec: &Spec,
    inputs: &Inputs,
    seed: u64,
    pc: &PhaseCfg,
    epoch: Instant,
) -> PhaseOut {
    let mut model = spec.build_model(seed);
    let mut opt = Sgd::new(spec.lr);
    let total_steps = pc.windows * pc.window_steps;
    let workload = PoolWorkload::new(inputs, ctx.size(), total_steps);
    let mut cfg = TrainerConfig::new(pc.variant, pc.windows, pc.window_steps, spec.lr);
    cfg.injector = spec.injector.clone();
    cfg.base_compute_ms = spec.base_compute_ms;
    cfg.eval_every = spec.eval_every;
    // The arrival schedule (which rank is late when, which rank
    // initiates a majority round) is part of the workload, not of the
    // seed: see `Spec::schedule_seed`.
    cfg.seed = spec.schedule_seed;

    let t0 = Instant::now();
    let (log, spans) = if pc.traced {
        let sink = SpanSink::new(epoch, total_steps * 5 + 64);
        let log = run_rank(
            ctx,
            &mut TracedModel {
                inner: &mut model,
                sink: &sink,
            },
            &mut TracedOptimizer {
                inner: &mut opt,
                sink: &sink,
            },
            &TracedWorkload {
                inner: &workload,
                sink: &sink,
            },
            &cfg,
        );
        let tree = spans::step_tree(&sink.take(), pc.window_steps);
        (log, spans::encode(&tree))
    } else {
        (
            run_rank(ctx, &mut model, &mut opt, &workload, &cfg),
            Vec::new(),
        )
    };
    let wall_s = t0.elapsed().as_secs_f64();

    let mut params = vec![0.0f32; model.num_params()];
    model.write_params(&mut params);
    let finite =
        params.iter().all(|w| w.is_finite()) && log.epochs.iter().all(|e| e.mean_loss.is_finite());
    PhaseOut {
        window_rate: log.epochs.iter().map(|e| e.throughput).collect(),
        window_loss: log
            .epochs
            .iter()
            .map(|e| e.test.map_or(f64::NAN, |t| f64::from(t.loss)))
            .collect(),
        step_ns: step_durations_ns(&workload.stamps(), pc.window_steps),
        steps: log.steps,
        wall_s,
        fresh_rounds: log.fresh_rounds,
        missed_rounds: log.missed_rounds,
        finite,
        params_hash: fnv1a(&params),
        spans,
    }
}

/// High-water resident set of this process, KiB.
pub fn rss_hwm_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// The SPMD program of one rank for one launch.
fn rank_main(
    comm: Communicator,
    spec: &Spec,
    plan: &Plan,
    shared_inputs: Option<&Inputs>,
    epoch: Instant,
) -> RankOut {
    let ctx = RankCtx::new(comm);
    let own_inputs;
    let inputs = match shared_inputs {
        Some(i) => i,
        None => {
            own_inputs = Inputs::generate(spec, plan.seed);
            &own_inputs
        }
    };
    let eager = SgdVariant::EagerMajority;
    let sync = SgdVariant::SynchDeep500;

    let init_loss = if ctx.rank() == 0 {
        f64::from(spec.build_model(plan.seed).evaluate(inputs.held_out()).loss)
    } else {
        f64::NAN
    };
    let phase = |variant, windows: usize, window_steps: usize, traced: bool| {
        (windows > 0).then(|| {
            run_phase(
                &ctx,
                spec,
                inputs,
                plan.seed,
                &PhaseCfg {
                    variant,
                    windows,
                    window_steps,
                    traced,
                },
                epoch,
            )
        })
    };
    phase(eager, 1, FIRST_STEPS, false);
    phase(sync, 1, FIRST_STEPS, false);
    let out = RankOut {
        init_loss,
        eager: phase(eager, plan.eager_windows, spec.window_steps, false),
        sync: phase(sync, plan.sync_windows, spec.window_steps, false),
        traced: phase(eager, plan.traced_windows, spec.window_steps, true),
        rss_kib: if spec.tcp { rss_hwm_kib() } else { 0 },
    };
    ctx.finalize();
    out
}

/// One world launch and how long all of it took, input generation
/// included.
pub struct Launch {
    pub ranks: Vec<RankOut>,
    pub wall_s: f64,
}

impl Launch {
    /// Launch wall time minus the slowest rank's timed phases: spawn,
    /// rendezvous, mesh, input generation, model construction, the first
    /// steps of both variants, finalize and join.
    pub fn setup_s(&self) -> f64 {
        let timed = self
            .ranks
            .iter()
            .map(|r| {
                [&r.eager, &r.sync, &r.traced]
                    .iter()
                    .filter_map(|p| p.as_ref().map(|p| p.wall_s))
                    .sum::<f64>()
            })
            .fold(0.0, f64::max);
        self.wall_s - timed
    }
}

impl Plan {
    pub fn job(&self, label: &str) -> Job {
        Job::new(
            JobKind::Train,
            label,
            &[
                self.eager_windows as u64,
                self.sync_windows as u64,
                self.traced_windows as u64,
            ],
        )
    }

    pub fn from_job(seed: u64, job: &Job) -> Option<Plan> {
        match job.counts[..] {
            [e, s, t] => Some(Plan {
                seed,
                eager_windows: e as usize,
                sync_windows: s as usize,
                traced_windows: t as usize,
            }),
            _ => None,
        }
    }
}

/// A run's inputs. Rank threads share one copy, generated once per run
/// (regenerating 64 MB per launch made the process's high-water RSS wander
/// by 16%); the time it took counts towards every launch's set-up. Rank
/// processes each generate their own inside the launch.
pub struct RunInputs {
    shared: Option<Arc<Inputs>>,
    generate_s: f64,
}

impl RunInputs {
    pub fn for_run(spec: &Spec, seed: u64) -> RunInputs {
        let t0 = Instant::now();
        let shared = (!spec.tcp).then(|| Arc::new(Inputs::generate(spec, seed)));
        RunInputs {
            shared,
            generate_s: t0.elapsed().as_secs_f64(),
        }
    }

    /// What a TCP worker starts from: it generates its own.
    pub fn none() -> RunInputs {
        RunInputs {
            shared: None,
            generate_s: 0.0,
        }
    }
}

/// Launch the workload's world and run `plan` on every rank. In a TCP
/// worker process this never returns.
pub fn launch(spec: &Spec, plan: Plan, label: &str, inputs: &RunInputs) -> Option<Launch> {
    let t0 = Instant::now();
    let shared = inputs.shared.clone();
    let rank_spec = spec.clone();
    let ranks = launch_world(
        spec,
        plan.seed,
        spec.p,
        spec.tcp,
        &plan.job(label),
        move |c| rank_main(c, &rank_spec, &plan, shared.as_deref(), t0),
    )?;
    Some(Launch {
        ranks,
        wall_s: t0.elapsed().as_secs_f64() + inputs.generate_s,
    })
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use pcoll_comm::{World, WorldConfig};

    /// The decorators must be pure pass-through: a synchronous run behind
    /// them ends with bit-identical parameters and losses.
    #[test]
    fn decorators_leave_sync_results_bit_identical() {
        let mut spec = spec::find("lat_inproc").expect("workload exists");
        spec.pool_batches = 16;
        let run = |traced: bool| {
            let inputs = Arc::new(Inputs::generate(&spec, 11));
            let spec = spec.clone();
            World::launch(WorldConfig::instant(spec.p).with_seed(11), move |c| {
                let ctx = RankCtx::new(c);
                let out = run_phase(
                    &ctx,
                    &spec,
                    &inputs,
                    11,
                    &PhaseCfg {
                        variant: SgdVariant::SynchDeep500,
                        windows: 2,
                        window_steps: 6,
                        traced,
                    },
                    Instant::now(),
                );
                ctx.finalize();
                out
            })
        };
        let plain = run(false);
        let traced = run(true);
        for (a, b) in plain.iter().zip(&traced) {
            assert_eq!(a.params_hash, b.params_hash);
            // Bit patterns: ranks other than 0 carry NaN.
            let bits = |p: &PhaseOut| {
                p.window_loss
                    .iter()
                    .map(|l| l.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(a), bits(b));
            assert_eq!(a.steps, 12);
            assert!(a.spans.is_empty());
            // 12 steps × (step + 7 children) × 5 integers.
            assert_eq!(b.spans.len(), 12 * 8 * 5);
        }
        // Synchronous ranks agree bit for bit.
        assert!(plain.iter().all(|r| r.params_hash == plain[0].params_hash));
    }
}
