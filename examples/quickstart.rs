//! Quickstart: train the paper's hyperplane-regression task with
//! synchronous SGD and with eager-SGD (solo partial allreduce) under a
//! straggler, and compare.
//!
//! ```sh
//! cargo run --release --example quickstart
//! cargo run --release --example quickstart -- --transport tcp   # process-per-rank
//! ```
//!
//! With `--transport tcp` every rank is its own OS process on loopback
//! sockets (the binary re-`exec`s itself, `mpirun`-style). Each variant
//! is its own labeled launch: a worker process skips the variants that
//! are not its own (`train` returns `None` for those) and exits inside
//! the one it serves — only the parent reaches the final comparison.

use eager_sgd_repro::comm::Transport;
use eager_sgd_repro::prelude::*;
use std::sync::Arc;

fn train(variant: SgdVariant, transport: Transport) -> Option<(f64, f32)> {
    const P: usize = 4;
    const DIM: usize = 512;

    // The dataset generator is shared by all ranks (read-only; each TCP
    // rank process regenerates it from the same seed).
    let task = Arc::new(HyperplaneTask::new(DIM, 8_192, 0.5, 256, 7));

    let logs = World::launch_with(WorldConfig::instant(P), transport, move |c| {
        // One RankCtx per rank: owns this rank's progress engine.
        let ctx = RankCtx::new(c);

        // Identical model init on every rank (same seed) — the
        // data-parallel contract.
        let mut rng = TensorRng::new(1234);
        let mut model = dnn::zoo::hyperplane_mlp(DIM, &mut rng);
        let mut opt = Sgd::new(0.04);

        let workload = HyperplaneWorkload {
            task: Arc::clone(&task),
            local_batch: 64,
        };

        // 10 epochs × 12 steps; one random rank is delayed 20 ms per
        // step (light dynamic imbalance, as in §6.2).
        let mut cfg = TrainerConfig::new(variant, 10, 12, 0.04);
        cfg.injector = Injector::RandomRanks {
            k: 1,
            amount_ms: 20.0,
            seed: 3,
        };

        // Balanced per-step compute keeps ranks loosely in lockstep, as
        // real GPU steps do; without it fast ranks sprint ahead and
        // staleness grows unboundedly (the regime §5 warns about).
        cfg.base_compute_ms = 15.0;
        cfg.model_sync_every = Some(5);
        cfg.grad_clip = Some(50.0);
        cfg.eval_every = 5;

        let log = run_rank(&ctx, &mut model, &mut opt, &workload, &cfg);
        ctx.finalize(); // barrier + engine shutdown (MPI_Finalize-like)
        log
    })?;

    let time = logs.iter().map(|l| l.total_train_s).sum::<f64>() / logs.len() as f64;
    let loss = logs[0].final_test().map(|t| t.loss).unwrap_or(f32::NAN);
    Some((time, loss))
}

fn transport_flag() -> String {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        if argv[i] == "--transport" {
            return argv.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("error: --transport needs inproc|tcp");
                std::process::exit(2);
            });
        }
        i += 1;
    }
    "inproc".into()
}

fn main() {
    let flag = transport_flag();
    let transport_for = |label: &str| {
        Transport::parse(&flag, label).unwrap_or_else(|| {
            eprintln!("error: unknown transport `{flag}` (inproc|tcp)");
            std::process::exit(2);
        })
    };

    println!("training a 512-dim hyperplane regressor on 4 ranks, 1 straggler/step ({flag})\n");
    let sync = train(SgdVariant::SynchDeep500, transport_for("quickstart-sync"));
    if let Some((t, l)) = sync {
        println!("synch-SGD  : {t:.2} s, final val loss {l:.3}");
    }
    let eager = train(SgdVariant::EagerSolo, transport_for("quickstart-eager"));
    if let Some((t, l)) = eager {
        println!("eager-SGD  : {t:.2} s, final val loss {l:.3}");
    }
    if let (Some((t_sync, _)), Some((t_eager, _))) = (sync, eager) {
        println!(
            "\neager-SGD speedup: {:.2}x at comparable loss — the paper's headline \
             effect, in miniature",
            t_sync / t_eager
        );
    }
}
