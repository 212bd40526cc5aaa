//! `tune_adaptive`: the closed-loop quorum controller demo.
//!
//! Under a shifting-skew workload (the Fig. 12 protocol: every rank is
//! delayed every step, amounts rotating across ranks), sweep every static
//! quorum policy on the solo–majority–full spectrum, then run the
//! hill-climb and UCB-bandit controllers that re-select the policy every
//! K rounds from rank-summed telemetry. Reported per variant:
//!
//! - raw round rate (steps/s),
//! - fresh fraction (measured E\[NAP\]/P),
//! - utility = `fresh_fraction^β × rounds_per_s` — the
//!   statistically-weighted update throughput the controllers maximize
//!   (β = 0.5; see `eager_sgd::NapModel::utility`),
//!
//! plus the theory model's predicted utilities from the injector's exact
//! offsets, and every controller decision as a JSON line.
//!
//! SHAPE-CHECKs: each adaptive controller reaches ≥ 90% of the best static
//! arm's utility and beats the worst static arm. Every run is on virtual
//! time (`train_variant`), so there is one size (`--quick` changes
//! nothing) and the whole stdout is a pure function of `--seed`.

use datagen::HyperplaneTask;
use dnn::optim::LrSchedule;
use eager_sgd::{NapModel, QuorumDecision, SgdVariant, TunerSetup};
use imbalance::Injector;
use pcoll_tune::{adaptive_setup, spectrum, static_setup, AdaptiveTunerCfg, ControllerKind};
use repro_bench::harness::VariantSummary;
use repro_bench::report::{comment, row, Checks};
use repro_bench::{train_variant, HarnessArgs, Task, TrainSetup};
use std::sync::Arc;

const BETA: f64 = 0.5;

struct VariantResult {
    label: String,
    adaptive: bool,
    rounds_per_s: f64,
    fresh_fraction: f64,
    utility: f64,
    train_time_s: f64,
    final_loss: f32,
    policy_switches: usize,
    decisions: Vec<QuorumDecision>,
}

/// The scenario's one injector, constructed in a single place so the
/// trainer's runs and the theory view below cannot drift apart.
fn scenario_injector() -> Injector {
    Injector::ShiftingSkew {
        min_ms: 10.0,
        max_ms: 120.0,
    }
}

fn run_variant(
    setup: &TrainSetup,
    args: &HarnessArgs,
    label: &str,
    adaptive: bool,
    tuner: TunerSetup,
) -> VariantResult {
    // The variant is a placeholder: the tuner's initial policy governs.
    let with_tuner = |t: &mut eager_sgd::TrainerConfig| t.tuner = Some(tuner.clone());
    let logs = train_variant(setup, args, SgdVariant::EagerSolo, &with_tuner);
    let s = VariantSummary::from_logs(label, &logs);
    let decisions = logs[0].decisions.clone();
    let switched = |w: &[QuorumDecision]| w[0].policy != w[1].policy;
    VariantResult {
        label: s.label,
        adaptive,
        rounds_per_s: s.throughput,
        fresh_fraction: s.fresh_fraction,
        utility: s.fresh_fraction.powf(BETA) * s.throughput,
        train_time_s: s.train_time_s,
        final_loss: s.final_loss,
        policy_switches: decisions.windows(2).filter(|w| switched(w)).count(),
        decisions,
    }
}

fn main() {
    let args = HarnessArgs::parse();
    let (p, epochs, steps, period) = (8, 3, 128, 16);
    let setup = TrainSetup {
        task: Task::Hyperplane(Arc::new(HyperplaneTask::new(48, 2048, 0.05, 96, 7))),
        p,
        local_batch: 16,
        epochs,
        steps,
        lr: LrSchedule::constant(0.02),
        injector: scenario_injector(),
        base_compute_ms: 10.0,
        grad_clip: None,
        model_sync_every: Some(epochs), // one final weight sync
        eval_every: 1000,               // throughput-focused: skip eval
    };

    comment(&format!(
        "tune_adaptive: closed-loop quorum control, {p} ranks, shifting skew 10–120 ms, \
         {} steps, decide every {period} rounds, beta {BETA}",
        epochs * steps
    ));

    // Theory view: the injector's exact per-step offsets (the multiset is
    // rotation-invariant, so step 0 is representative).
    let inj = scenario_injector();
    let offsets: Vec<f64> = (0..p).map(|r| inj.delay_ms(r, p, 0)).collect();
    comment("theory model predictions (exact offsets):");
    let model = NapModel::new(offsets, 0.5, setup.base_compute_ms);
    for policy in spectrum(p) {
        let pred = model.predict(policy);
        comment(&format!(
            "  {policy:<12} E[NAP] {:>5.2}  round {:>7.2} ms  utility {:>8.2}",
            pred.e_nap,
            pred.round_ms,
            model.utility(policy, BETA)
        ));
    }

    // Static sweep over the whole spectrum, then the two adaptive
    // controllers.
    let statics = spectrum(p).into_iter().map(|policy| {
        let label = format!("static {policy}");
        (label, false, static_setup(policy, period))
    });
    let controllers = [
        ("hill-climb", ControllerKind::HillClimb),
        ("ucb", ControllerKind::Ucb { explore: 0.6 }),
    ];
    let adaptives = controllers.into_iter().map(|(name, kind)| {
        let cfg = AdaptiveTunerCfg {
            period,
            beta: BETA,
            kind,
            ..AdaptiveTunerCfg::default()
        };
        (format!("adaptive {name}"), true, adaptive_setup(cfg))
    });
    let results: Vec<VariantResult> = statics
        .chain(adaptives)
        .map(|(label, adaptive, tuner)| run_variant(&setup, &args, &label, adaptive, tuner))
        .collect();

    row(&[
        "variant",
        "rounds_per_s",
        "fresh_frac",
        "utility",
        "train_time_s",
        "final_loss",
        "switches",
    ]);
    for r in &results {
        row(&[
            r.label.clone(),
            format!("{:.2}", r.rounds_per_s),
            format!("{:.3}", r.fresh_fraction),
            format!("{:.2}", r.utility),
            format!("{:.2}", r.train_time_s),
            format!("{:.4}", r.final_loss),
            r.policy_switches.to_string(),
        ]);
    }

    comment("controller decisions (JSON, rank 0):");
    for r in results.iter().filter(|r| r.adaptive) {
        for d in &r.decisions {
            println!(
                "DECISION {} {}",
                r.label,
                serde_json::to_string(d).expect("decision serializes")
            );
        }
    }

    let statics = results.iter().filter(|r| !r.adaptive);
    let by_utility = |a: &&VariantResult, b: &&VariantResult| a.utility.total_cmp(&b.utility);
    let best_static = statics.clone().max_by(by_utility).expect("static arms");
    let worst_static = statics.min_by(by_utility).expect("static arms");
    comment(&format!(
        "best static: {} (utility {:.2}); worst static: {} (utility {:.2})",
        best_static.label, best_static.utility, worst_static.label, worst_static.utility
    ));

    let mut c = Checks::new(args.quick);
    for r in results.iter().filter(|r| r.adaptive) {
        let vs_best = r.utility / best_static.utility;
        let vs_worst = r.utility / worst_static.utility.max(1e-9);
        comment(&format!(
            "{}: {:.1}% of best static, {:.2}x worst static",
            r.label,
            100.0 * vs_best,
            vs_worst
        ));
        c.check(
            &format!("{} ge 90pct of best static", r.label),
            vs_best >= 0.9,
            &format!("{:.1}%", 100.0 * vs_best),
        );
        c.check(
            &format!("{} beats worst static", r.label),
            r.utility > worst_static.utility,
            &format!("{vs_worst:.2}x"),
        );
    }

    std::process::exit(c.exit_code());
}
