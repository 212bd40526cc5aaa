//! Stale-gradient ablation: the Fig. 7 protocol *accumulates* a missed
//! gradient into the next contribution (`G' = G_stale + G_fresh`). What if
//! it were simply replaced (dropping the stale mass)? Gradient
//! conservation is the paper's implicit argument for convergence quality
//! under solo collectives — this harness measures it.

use datagen::HyperplaneTask;
use dnn::zoo::hyperplane_mlp;
use dnn::{Model, Optimizer, Sgd};
use eager_sgd::{HyperplaneWorkload, SgdVariant, TrainerConfig};
use imbalance::Injector;
use pcoll::StaleMode;
use pcoll_comm::NetworkModel;
use repro_bench::report::{comment, row, shape_check};
use repro_bench::{run_distributed, ExperimentSpec, HarnessArgs, VariantSummary};
use std::sync::Arc;

fn main() {
    let args = HarnessArgs::parse();
    let p = 8;
    let (dim, epochs, steps) = if args.quick {
        (256, 4, 8)
    } else {
        (2048, 12, 16)
    };
    let task = Arc::new(HyperplaneTask::new(dim, 16_384, 1.0, 256, args.seed));

    comment("Stale-mode ablation: accumulate (paper, Fig. 7) vs replace");
    comment(&format!(
        "P={p}, eager-solo, skewed 3 of {p} ranks by 120 ms"
    ));
    row(&["stale_mode", "final_val_loss", "steps_per_s", "fresh_frac"]);

    let run = |mode: StaleMode| -> VariantSummary {
        let mut trainer = TrainerConfig::new(SgdVariant::EagerSolo, epochs, steps, 0.02);
        // Placeholder seed: the trainer re-derives it from `trainer.seed`
        // (`Injector::with_seed`) — one --seed reproduces the run.
        trainer.injector = Injector::RandomRanks {
            k: 3,
            amount_ms: 120.0,
            seed: 0,
        };
        trainer.time_scale = args.time_scale;
        trainer.base_compute_ms = 40.0;
        trainer.stale_mode = mode;
        trainer.model_sync_every = Some((epochs / 2).max(1));
        trainer.eval_every = (epochs / 2).max(1);
        trainer.seed = args.seed;
        let spec = ExperimentSpec {
            p,
            network: NetworkModel::Instant,
            world_seed: args.seed,
            model_seed: args.seed ^ 0x30D,
            trainer,
        };
        let wl = Arc::new(HyperplaneWorkload {
            task: Arc::clone(&task),
            local_batch: 32,
        });
        let dim2 = dim;
        let logs = run_distributed(
            &spec,
            move |rng| {
                (
                    Box::new(hyperplane_mlp(dim2, rng)) as Box<dyn Model>,
                    Box::new(Sgd::new(0.02)) as Box<dyn Optimizer>,
                )
            },
            wl,
        );
        VariantSummary::from_logs(format!("{mode:?}"), &logs)
    };

    let accumulate = run(StaleMode::Accumulate);
    let replace = run(StaleMode::Replace);
    for s in [&accumulate, &replace] {
        let val = s.final_test.map_or(f32::NAN, |t| t.loss);
        row(&[
            s.label.clone(),
            format!("{val:.4}"),
            format!("{:.2}", s.throughput),
            format!("{:.3}", s.fresh_fraction),
        ]);
    }

    let acc_loss = accumulate.final_test.map_or(f32::NAN, |t| t.loss);
    let rep_loss = replace.final_test.map_or(f32::NAN, |t| t.loss);
    // The initial loss is ≈ dim (unit-normal coefficients); both modes
    // must make real progress. Which mode wins is an empirical finding,
    // not an invariant: accumulation conserves gradient mass (no update
    // is ever lost) but delivers it in double-size bursts, which on
    // ill-conditioned regression can slow convergence versus simply
    // dropping the stale gradient. We report the comparison and assert
    // convergence of both.
    let initial = dim as f32;
    let mut ok = shape_check(
        "both-stale-modes-converge",
        acc_loss.is_finite()
            && rep_loss.is_finite()
            && acc_loss < initial * 0.1
            && rep_loss < initial * 0.1,
        &format!("accumulate {acc_loss:.2}, replace {rep_loss:.2}, from ≈{initial:.0}"),
    );
    ok &= shape_check(
        "accumulate-has-higher-fresh-mass",
        // Conservation: accumulate's contributions include stale mass, so
        // its *null*-contribution rate must not exceed replace's.
        accumulate.fresh_fraction <= replace.fresh_fraction + 0.05,
        &format!(
            "fresh fractions {:.3} vs {:.3} (stale riders lower the fresh share)",
            accumulate.fresh_fraction, replace.fresh_fraction
        ),
    );
    println!(
        "# finding: with heavy staleness, replacement converged {}x {} here — \
         gradient conservation is not free",
        if rep_loss < acc_loss {
            format!("{:.1}", acc_loss / rep_loss)
        } else {
            format!("{:.1}", rep_loss / acc_loss)
        },
        if rep_loss < acc_loss {
            "lower"
        } else {
            "higher"
        },
    );
    std::process::exit(i32::from(!ok));
}
