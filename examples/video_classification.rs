//! The paper's case study (§6.3), in miniature: LSTM video classification
//! with *inherent* load imbalance from variable-length videos — no
//! injected delays. Compares Deep500-style synch-SGD against eager-SGD
//! with majority allreduce (the variant the paper recommends here).
//!
//! ```sh
//! cargo run --release --example video_classification
//! ```

use eager_sgd_repro::prelude::*;
use std::sync::Arc;

fn train(variant: SgdVariant, task: Arc<VideoTask>) -> (f64, f32, f32) {
    const P: usize = 8;
    let logs = World::launch(WorldConfig::instant(P), move |c| {
        let ctx = RankCtx::new(c);
        let mut rng = TensorRng::new(99);
        let mut model = dnn::zoo::video_lstm(16, 32, 8, &mut rng);
        let mut opt = Sgd::new(0.12);
        let workload = VideoWorkload {
            task: Arc::clone(&task),
            eval_videos: 64,
        };
        let mut cfg = TrainerConfig::new(variant, 6, 12, 0.12);
        cfg.model_sync_every = Some(3);
        cfg.eval_every = 3;
        let log = run_rank(&ctx, &mut model, &mut opt, &workload, &cfg);
        ctx.finalize();
        log
    });
    let time = logs.iter().map(|l| l.total_train_s).sum::<f64>() / logs.len() as f64;
    let test = logs[0].final_test().unwrap();
    (time, test.top1, test.top5)
}

fn main() {
    // Synthetic UCF101: right-skewed lengths (the Fig. 2a distribution),
    // scaled 24x shorter so the example finishes in seconds.
    let mut spec = VideoDatasetSpec::ucf101(24.0);
    spec.classes = 8;
    spec.feat_dim = 16;
    let task = Arc::new(VideoTask::new(spec, 16, 5));
    let lens = task.lengths();
    let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
    println!(
        "video dataset: {} videos, {min}..{max} frames — batch compute is \
         Θ(frames),\nso steps are inherently imbalanced (§2.1)\n",
        lens.len()
    );

    let (t_sync, a1_sync, a5_sync) = train(SgdVariant::SynchDeep500, Arc::clone(&task));
    println!("synch-SGD (Deep500)   : {t_sync:.2} s, top-1 {a1_sync:.3}, top-5 {a5_sync:.3}");
    let (t_maj, a1_maj, a5_maj) = train(SgdVariant::EagerMajority, Arc::clone(&task));
    println!("eager-SGD (majority)  : {t_maj:.2} s, top-1 {a1_maj:.3}, top-5 {a5_maj:.3}");
    println!(
        "\nmajority speedup {:.2}x with matching accuracy — the Fig. 13 result \
         (paper: 1.27x)",
        t_sync / t_maj
    );
}
