//! Fig. 10–13 and the two trainer ablations: each is a [`TrainSetup`], a
//! list of `(variant, label, per-run override)` and its shape checks,
//! fed to the one runner in [`crate::harness`].

use crate::harness::{random_ranks, train_variant, Task, TrainSetup, VariantSummary};
use crate::report::{comment, epoch_series, epoch_series_header, row, summary_table, Checks};
use crate::HarnessArgs;
use datagen::{GaussianMixtureTask, HyperplaneTask, VideoDatasetSpec, VideoTask};
use dnn::optim::LrSchedule;
use eager_sgd::{SgdVariant, TrainerConfig};
use imbalance::Injector;
use pcoll::{QuorumPolicy, StaleMode};
use std::sync::Arc;

type Run = (SgdVariant, String, Box<dyn Fn(&mut TrainerConfig)>);

fn plain(variant: SgdVariant, label: &str) -> Run {
    (variant, label.to_string(), Box::new(|_| {}))
}

/// Train every run of a figure; `series` prints each run's epoch rows
/// under their header and the summary table after them.
fn train(
    args: &HarnessArgs,
    setup: &TrainSetup,
    runs: Vec<Run>,
    series: bool,
) -> Vec<VariantSummary> {
    if series {
        epoch_series_header();
    }
    let summarize = |(variant, label, tweak): Run| {
        let logs = train_variant(setup, args, variant, tweak.as_ref());
        if series {
            epoch_series(&label, &logs);
        }
        VariantSummary::from_logs(label, &logs)
    };
    let summaries: Vec<VariantSummary> = runs.into_iter().map(summarize).collect();
    if series {
        summary_table(&summaries);
    }
    summaries
}

fn top1(s: &VariantSummary) -> f32 {
    s.final_test.map_or(f32::NAN, |t| t.top1)
}

fn hyperplane(dim: usize, samples: usize, noise: f32, val: usize, seed: u64) -> Task {
    Task::Hyperplane(Arc::new(HyperplaneTask::new(
        dim, samples, noise, val, seed,
    )))
}

fn images(
    dim: usize,
    classes: usize,
    samples: usize,
    noise: f32,
    seed: u64,
) -> Arc<GaussianMixtureTask> {
    Arc::new(GaussianMixtureTask::new(
        dim, classes, samples, noise, 1024, seed,
    ))
}

pub(super) fn fig10(args: &HarnessArgs, c: &mut Checks) {
    let (dim, epochs, steps) = if args.quick {
        (512, 6, 8)
    } else {
        (8192, 48, 16)
    };
    let setup = TrainSetup {
        task: hyperplane(dim, 32_768, 2.0, 512, args.seed),
        p: 8,
        local_batch: 2048 / 8,
        epochs,
        steps,
        lr: LrSchedule::constant(if args.quick { 0.15 } else { 0.05 }),
        injector: Injector::None, // per run
        // Single-GPU throughput in the paper: 0.64 steps/s at batch 2048
        // ⇒ per-step compute ≈ 195 ms/rank, but their 8-node synch
        // throughput (no injection headroom) implies an effective ≈400 ms
        // step; 400 lands the speedup ratios in the paper's regime.
        base_compute_ms: 400.0,
        grad_clip: Some(2_000.0),
        // Quick keeps the full run's sync cadence relative to its length
        // (10 of 48 epochs ≈ 1 of 6): with no sync before the last epoch,
        // rank 0's final training loss is that of a replica that never
        // synchronised (6–39 against sync's 4.4) and says nothing about
        // the averaged model the claim is about.
        model_sync_every: Some(if args.quick { 1 } else { 10 }),
        eval_every: if args.quick { 2 } else { 4 },
    };
    comment("Fig 10: hyperplane regression, synch-SGD (Deep500) vs eager-SGD (solo)");
    comment(&format!(
        "P=8, dim={dim}, local_batch={}, epochs={epochs}x{steps} steps, time_scale={}",
        setup.local_batch, args.time_scale
    ));
    comment("paper: speedups 1.50x/1.75x/2.01x at 200/300/400 ms; equal final loss ~4.7");

    let run = |variant: SgdVariant, ms: u32| -> Run {
        let inject = move |t: &mut TrainerConfig| t.injector = random_ranks(1, f64::from(ms));
        let label = format!("{}-{ms}", variant.label());
        (variant, label, Box::new(inject))
    };
    let injections = [(200, "1.50x"), (300, "1.75x"), (400, "2.01x")];
    let mut runs = Vec::new();
    for (ms, _) in injections {
        runs.push(run(SgdVariant::SynchDeep500, ms));
        runs.push(run(SgdVariant::EagerSolo, ms));
    }
    // §6.2.1's aside: majority is slower than solo at 200 ms.
    runs.push(run(SgdVariant::EagerMajority, 200));
    let s = train(args, &setup, runs, true);

    // (sync, eager) at each injection.
    let pairs: Vec<_> = s.chunks_exact(2).map(|p| (&p[0], &p[1])).collect();
    for ((sync, eager), (ms, paper)) in pairs.iter().zip(injections) {
        let name = |what: &str| format!("{what}-at-{ms}ms");
        c.faster_than(&name("eager-beats-sync"), eager, sync, 1.2, paper);
        let (eager, sync) = (("eager", eager.final_loss), ("sync", sync.final_loss));
        c.ratio_within(&name("equal-final-loss"), eager, sync, 0.5..2.0);
    }
    // A quick variant is a 3 s run whose throughput spreads ±8 % run to
    // run on two cores — as much as the 200→400 ms trends and the
    // solo/majority gap themselves (6, 2 and 1 of 9–14 idle quick runs
    // failed these three, at parent and change alike).
    let noisy = "differences between variants are inside a 3 s run's ±8 % spread";
    if c.skip_in_quick("trend-checks", noisy) {
        return;
    }
    let speedups: Vec<f64> = pairs.iter().map(|(s, e)| e.speedup_over(s)).collect();
    c.check(
        "speedup-grows-with-injection",
        speedups.windows(2).all(|w| w[1] > w[0] * 0.92),
        &format!("{speedups:.2?}"),
    );
    let eager_tps: Vec<f64> = pairs.iter().map(|(_, e)| e.throughput).collect();
    let flat = eager_tps.iter().cloned().fold(f64::INFINITY, f64::min)
        / eager_tps.iter().cloned().fold(0.0, f64::max);
    c.check(
        "eager-throughput-flat",
        flat > 0.8,
        &format!("min/max ratio {flat:.2} over {eager_tps:.2?}"),
    );
    let (solo, majority) = (s[1].throughput, s[6].throughput);
    c.check(
        "solo-faster-than-majority",
        solo > majority,
        &format!("solo {solo:.2} vs majority {majority:.2} steps/s"),
    );
}

/// `--part a` runs only the throughput comparison; `--part b` adds the
/// accuracy runs (default: both).
pub(super) fn fig11(args: &HarnessArgs, c: &mut Checks) {
    let (p, epochs, steps, in_dim, classes) = if args.quick {
        (8, 4, 6, 64, 10)
    } else {
        (64, 12, 25, 128, 50)
    };
    let setup = TrainSetup {
        task: Task::Images(images(in_dim, classes, 1_281_167, 1.0, args.seed), 8, 4),
        p,
        local_batch: 32,
        epochs,
        steps,
        lr: LrSchedule::staircase(0.8, &[epochs * 3 / 4], 0.2),
        injector: Injector::None, // per run
        // Paper single-GPU: 1.56 steps/s at batch 128 ⇒ ≈640 ms/step.
        base_compute_ms: 640.0,
        grad_clip: Some(10.0),
        model_sync_every: Some(10),
        eval_every: (epochs / 4).max(1),
    };
    comment("Fig 11: ResNet-50 proxy / synthetic ImageNet, light cloud imbalance");
    comment(&format!(
        "P={p}, 4-of-P ranks delayed per step, epochs={epochs}x{steps}, time_scale={}",
        args.time_scale
    ));
    comment("paper 11a: eager-solo 1.25x/1.23x over Deep500, 1.14x/1.22x over Horovod");
    comment("paper 11b/c: eager within ~0.6% accuracy; no model sync costs ~1% test acc");

    let part = args.part.as_deref().unwrap_or("ab");
    let accuracy = part.contains('b');
    let run = |variant, label: String, ms: u32, sync_every: Option<usize>| -> Run {
        let tweak = move |t: &mut TrainerConfig| {
            t.injector = random_ranks(4, f64::from(ms));
            t.model_sync_every = sync_every;
        };
        (variant, label, Box::new(tweak))
    };
    let mut runs = Vec::new();
    if part.contains('a') || accuracy {
        for ms in [300, 460] {
            let synced = |variant, label| run(variant, label, ms, Some(10));
            let deep500 = format!("synch-SGD-{ms}(Deep500)");
            runs.push(synced(SgdVariant::SynchDeep500, deep500));
            let horovod = format!("synch-SGD-{ms}(Horovod)");
            runs.push(synced(SgdVariant::SynchHorovod, horovod));
            runs.push(synced(
                SgdVariant::EagerSolo,
                format!("eager-SGD-{ms}(solo)"),
            ));
        }
    }
    if accuracy {
        // §6.2.2 ablation: no periodic model synchronization.
        let label = "eager-SGD-300(solo,nosync)".to_string();
        runs.push(run(SgdVariant::EagerSolo, label, 300, None));
    }
    let s = train(args, &setup, runs, true);

    for (trio, ms) in s.chunks_exact(3).zip([300, 460]) {
        let (d500, hvd, eager) = (&trio[0], &trio[1], &trio[2]);
        let name = |what: &str| format!("{what}-at-{ms}ms");
        c.faster_than(
            &name("eager-beats-deep500"),
            eager,
            d500,
            1.1,
            "1.25x/1.23x",
        );
        c.faster_than(
            &name("eager-beats-horovod"),
            eager,
            hvd,
            1.05,
            "1.14x/1.22x",
        );
        if accuracy && !args.quick {
            // At our 25x-shortened budget eager lags sync by a few epochs
            // of accuracy mid-convergence; the paper's 90 epochs close the
            // gap to ~0.6%. Band: 6%.
            let (d500, eager) = (("Deep500", top1(d500)), ("eager", top1(eager)));
            let paper = "gap ~0.006 at 90 epochs";
            c.gap_at_most(&name("accuracy-within-6pct"), d500, eager, 0.06, paper);
        }
    }
    if accuracy && !c.skip_in_quick("model-sync-ablation", "--quick runs too few steps") {
        // The paper's ~1.1% no-sync penalty emerges at full convergence;
        // at this budget it is within run-to-run noise, so report rather
        // than assert a direction.
        println!(
            "# model-sync ablation: synced {:.3} vs nosync {:.3} top-1 \
             (paper: 75.2% vs 74.1% at 90 epochs)",
            top1(&s[2]),
            top1(&s[6])
        );
    }
}

/// The three-way comparison of Fig. 12 and Fig. 13, as `[sync, solo,
/// majority]`.
fn sync_solo_majority(args: &HarnessArgs, setup: &TrainSetup) -> Vec<VariantSummary> {
    let runs = vec![
        plain(SgdVariant::SynchHorovod, "synch-SGD(Horovod)"),
        plain(SgdVariant::EagerSolo, "eager-SGD(solo)"),
        plain(SgdVariant::EagerMajority, "eager-SGD(majority)"),
    ];
    train(args, setup, runs, true)
}

pub(super) fn fig12(args: &HarnessArgs, c: &mut Checks) {
    let (p, epochs, steps, in_dim) = if args.quick {
        (8, 6, 6, 64)
    } else {
        (8, 30, 12, 128)
    };
    // A deliberately aggressive learning rate: under severe skew, solo's
    // mostly-stale, mostly-null rounds turn it into noise — the effect
    // Fig. 12 demonstrates.
    let lr = 0.3;
    let setup = TrainSetup {
        task: Task::Images(images(in_dim, 10, 50_000, 0.85, args.seed), 15, 2),
        p,
        local_batch: 512 / p,
        epochs,
        steps,
        lr: LrSchedule::staircase(lr, &[epochs / 2, epochs * 3 / 4], 0.2),
        injector: Injector::ShiftingSkew {
            min_ms: 50.0,
            max_ms: 400.0,
        },
        base_compute_ms: 100.0,
        grad_clip: Some(5.0),
        model_sync_every: Some((epochs / 3).max(1)),
        eval_every: (epochs / 6).max(1),
    };
    comment("Fig 12: ResNet-32 proxy / synthetic CIFAR-10, severe shifting skew 50..400 ms");
    comment(&format!(
        "P={p}, epochs={epochs}x{steps}, time_scale={}",
        args.time_scale
    ));
    comment("paper: solo fastest but 58% top-1; majority ~= sync accuracy at 1.29x speedup");
    let s = sync_solo_majority(args, &setup);

    let (sync, solo, majority) = (&s[0], &s[1], &s[2]);
    c.check(
        "solo-is-fastest",
        solo.train_time_s < majority.train_time_s && solo.train_time_s < sync.train_time_s,
        &format!(
            "solo {:.1}s, majority {:.1}s, sync {:.1}s (paper 3534/8607/11128)",
            solo.train_time_s, majority.train_time_s, sync.train_time_s
        ),
    );
    c.faster_than("majority-beats-sync-in-time", majority, sync, 1.1, "1.29x");
    if !c.skip_in_quick("accuracy-checks", "--quick runs too few steps to learn") {
        let (sync, solo, majority) = (top1(sync), top1(solo), top1(majority));
        c.check(
            "solo-loses-accuracy-under-severe-skew",
            solo < sync - 0.03,
            &format!("solo {solo:.3} vs sync {sync:.3} (paper 0.580 vs 0.926)"),
        );
        let (sync, majority) = (("sync", sync), ("majority", majority));
        let paper = "0.926 vs 0.900";
        c.gap_at_most(
            "majority-matches-sync-accuracy",
            sync,
            majority,
            0.06,
            paper,
        );
    }
}

/// **No injection**: the imbalance is inherent (batch compute ∝ bucketed
/// video length; see Fig. 2).
pub(super) fn fig13(args: &HarnessArgs, c: &mut Checks) {
    let (epochs, steps, classes, feat_dim, hidden, length_scale) = if args.quick {
        (4, 8, 8, 16, 32, 24.0)
    } else {
        (14, 30, 24, 32, 64, 8.0)
    };
    let (p, local_batch) = (8, 128 / 8);
    let spec = VideoDatasetSpec {
        classes,
        feat_dim,
        // Hard enough that accuracy does not saturate within the budget —
        // otherwise the solo-vs-majority accuracy separation cannot show.
        noise_std: if args.quick { 0.8 } else { 2.4 },
        ..VideoDatasetSpec::ucf101(length_scale)
    };
    let setup = TrainSetup {
        task: Task::Video(
            Arc::new(VideoTask::new(spec, local_batch, args.seed)),
            hidden,
        ),
        p,
        local_batch,
        epochs,
        steps,
        lr: LrSchedule::constant(0.12),
        injector: Injector::None,
        base_compute_ms: 0.0,
        grad_clip: None,
        model_sync_every: Some((epochs / 3).max(1)),
        eval_every: (epochs / 7).max(1),
    };
    comment("Fig 13: LSTM on synthetic UCF101 (inherent imbalance, no injection)");
    comment(&format!(
        "P={p}, local_batch={local_batch}, epochs={epochs}x{steps}, classes={classes}, \
         length_scale={length_scale}"
    ));
    comment("paper: solo 1.64x but 60.6% top-1; majority 1.27x at 69.7% top-1 / 90.0% top-5");
    let s = sync_solo_majority(args, &setup);

    let (sync, solo, majority) = (&s[0], &s[1], &s[2]);
    // Quick is 32 compute-bound steps (~0.2 s a variant) with more ranks
    // than cores: over 32 idle runs the time ratios spread 0.94x–1.79x and
    // solo lands within ±4 of 96 test videos of majority, either side.
    let too_short = "32 steps (~0.2 s) time the scheduler, not the imbalance";
    for (name, eager, min, paper) in [
        ("solo-fastest-on-inherent-imbalance", solo, 1.15, "1.64x"),
        ("majority-speedup-over-sync", majority, 1.05, "1.27x"),
    ] {
        if !c.skip_in_quick(name, too_short) {
            c.faster_than(name, eager, sync, min, paper);
        }
    }
    let top5 = majority.final_test.map_or(f32::NAN, |t| t.top5);
    let (sync, solo, majority) = (top1(sync), top1(solo), top1(majority));
    let name = "solo-slower-than-majority-in-accuracy";
    if !c.skip_in_quick(
        name,
        "--quick saturates near 0.92 top-1 before the two separate",
    ) {
        let (solo, majority) = (("solo", solo), ("majority", majority));
        c.gap_at_most(name, solo, majority, 0.01, "0.606 vs 0.697");
    }
    c.check(
        "majority-matches-sync-accuracy",
        (sync - majority).abs() < 0.06,
        &format!("majority {majority:.3} vs sync {sync:.3} (paper 0.697 vs 0.696)"),
    );
    c.check(
        "top5-exceeds-top1",
        top5 >= majority,
        &format!("top5 {top5:.3} >= top1 {majority:.3}"),
    );
}

/// The two hyperplane ablations share a task (whose initial loss is ≈ dim:
/// unit-normal coefficients) and differ in budget, skew and what they
/// sweep. Returns `(setup, dim)`.
fn ablation_setup(
    args: &HarnessArgs,
    epochs: usize,
    injector: Injector,
    base_compute_ms: f64,
) -> (TrainSetup, usize) {
    let (dim, steps) = if args.quick { (256, 8) } else { (2048, 16) };
    let setup = TrainSetup {
        task: hyperplane(dim, 16_384, 1.0, 256, args.seed),
        p: 8,
        local_batch: 32,
        epochs,
        steps,
        lr: LrSchedule::constant(0.02),
        injector,
        base_compute_ms,
        grad_clip: None,
        model_sync_every: Some((epochs / 2).max(1)),
        eval_every: epochs,
    };
    (setup, dim)
}

fn ablate_quorum_setup(args: &HarnessArgs) -> TrainSetup {
    let skew = Injector::ShiftingSkew {
        min_ms: 20.0,
        max_ms: 160.0,
    };
    ablation_setup(args, if args.quick { 3 } else { 10 }, skew, 50.0).0
}

pub(super) fn ablate_quorum(args: &HarnessArgs, c: &mut Checks) {
    let p = 8;
    comment("Quorum-spectrum ablation (the solo..majority..full spectrum of §8)");
    comment(&format!(
        "P={p}, shifting skew 20..160 ms, expected NAP per policy vs measured"
    ));
    row(&[
        "policy",
        "expected_active",
        "measured_fresh_frac",
        "steps_per_s",
        "train_time_s",
        "final_loss",
    ]);
    let chain = |chain, race| SgdVariant::EagerQuorum { chain, race };
    let policies = [
        (SgdVariant::EagerSolo, QuorumPolicy::Solo),
        (chain(4, true), QuorumPolicy::FirstOf(4)),
        (SgdVariant::EagerMajority, QuorumPolicy::Majority),
        (chain(2, false), QuorumPolicy::Chain(2)),
        (chain(4, false), QuorumPolicy::Chain(4)),
        (chain(p, false), QuorumPolicy::Chain(p)),
    ];
    let runs = policies.map(|(v, _)| plain(v, &v.label())).into();
    let s = train(args, &ablate_quorum_setup(args), runs, false);
    let expected = policies.map(|(_, policy)| policy.expected_active(p) / p as f64);
    for (s, e) in s.iter().zip(expected) {
        row(&[
            s.label.clone(),
            format!("{e:.3}"),
            format!("{:.3}", s.fresh_fraction),
            format!("{:.2}", s.throughput),
            format!("{:.2}", s.train_time_s),
            format!("{:.4}", s.final_loss),
        ]);
    }

    let fresh: Vec<f64> = s.iter().map(|s| s.fresh_fraction).collect();
    c.check(
        "freshness-increases-with-quorum",
        fresh[0] < fresh[5],
        &format!("{fresh:.3?}"),
    );
    let times: Vec<f64> = s.iter().map(|s| s.train_time_s).collect();
    c.check(
        "solo-fastest-full-slowest",
        times[0] < times[5],
        &format!("{times:.2?}"),
    );
    // Measured freshness tracks the expectation within a loose band.
    let deviations = fresh.iter().zip(expected).map(|(f, e)| (f - e).abs());
    let deviations: Vec<f64> = deviations.collect();
    c.check(
        "measured-nap-tracks-expectation",
        deviations.iter().filter(|d| **d < 0.35).count() >= deviations.len() - 1,
        &format!("abs deviations {deviations:.2?}"),
    );
}

/// Quick doubles the parent's 4 epochs: 32 solo steps stop at 18–49 from
/// ≈256, short of the 10× the convergence check asks of both modes.
fn ablate_stale_setup(args: &HarnessArgs) -> (TrainSetup, usize) {
    let epochs = if args.quick { 8 } else { 12 };
    let (mut setup, dim) = ablation_setup(args, epochs, random_ranks(3, 120.0), 40.0);
    setup.eval_every = (epochs / 2).max(1);
    (setup, dim)
}

/// The Fig. 7 protocol *accumulates* a missed gradient into the next
/// contribution (`G' = G_stale + G_fresh`); what if it were simply
/// replaced, dropping the stale mass?
pub(super) fn ablate_stale(args: &HarnessArgs, c: &mut Checks) {
    let (setup, dim) = ablate_stale_setup(args);
    comment("Stale-mode ablation: accumulate (paper, Fig. 7) vs replace");
    comment("P=8, eager-solo, skewed 3 of 8 ranks by 120 ms");
    row(&["stale_mode", "final_val_loss", "steps_per_s", "fresh_frac"]);
    let run = |mode: StaleMode| -> Run {
        let tweak = move |t: &mut TrainerConfig| t.stale_mode = mode;
        (SgdVariant::EagerSolo, format!("{mode:?}"), Box::new(tweak))
    };
    let runs = vec![run(StaleMode::Accumulate), run(StaleMode::Replace)];
    let s = train(args, &setup, runs, false);
    let val_loss = |s: &VariantSummary| s.final_test.map_or(f32::NAN, |t| t.loss);
    for s in &s {
        row(&[
            s.label.clone(),
            format!("{:.4}", val_loss(s)),
            format!("{:.2}", s.throughput),
            format!("{:.3}", s.fresh_fraction),
        ]);
    }

    let (accumulate, replace, initial) = (&s[0], &s[1], dim as f32);
    let (acc_loss, rep_loss) = (val_loss(accumulate), val_loss(replace));
    // Both modes must make real progress. Which mode wins is an empirical
    // finding, not an invariant: accumulation conserves gradient mass (no
    // update is ever lost) but delivers it in double-size bursts, which on
    // ill-conditioned regression can slow convergence versus simply
    // dropping the stale gradient. We report the comparison and assert
    // convergence of both.
    c.check(
        "both-stale-modes-converge",
        acc_loss < initial * 0.1 && rep_loss < initial * 0.1,
        &format!("accumulate {acc_loss:.2}, replace {rep_loss:.2}, from ≈{initial:.0}"),
    );
    c.check(
        "accumulate-has-higher-fresh-mass",
        // Conservation: accumulate's contributions include stale mass, so
        // its *null*-contribution rate must not exceed replace's.
        accumulate.fresh_fraction <= replace.fresh_fraction + 0.05,
        &format!(
            "fresh fractions {:.3} vs {:.3} (stale riders lower the fresh share)",
            accumulate.fresh_fraction, replace.fresh_fraction
        ),
    );
    let (ratio, side) = if rep_loss < acc_loss {
        (acc_loss / rep_loss, "lower")
    } else {
        (rep_loss / acc_loss, "higher")
    };
    println!(
        "# finding: with heavy staleness, replacement converged {ratio:.1}x {side} here — \
         gradient conservation is not free"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::trainer_config;

    #[test]
    fn a_setup_determines_its_trainer_config() {
        let args = HarnessArgs::default();
        let config = |setup: &TrainSetup| {
            let config = trainer_config(setup, &args, SgdVariant::EagerSolo);
            format!("{config:?}")
        };
        let (quorum, stale) = (ablate_quorum_setup(&args), ablate_stale_setup(&args).0);
        assert_eq!(config(&stale), config(&ablate_stale_setup(&args).0));
        assert_ne!(config(&quorum), config(&stale));
        assert!(config(&quorum).contains("ShiftingSkew"));
        assert!(config(&stale).contains("RandomRanks"));
    }
}
