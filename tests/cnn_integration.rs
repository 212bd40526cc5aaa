//! End-to-end distributed training with the *true-convolution* model
//! (Conv2d/MaxPool2d rather than the dense proxy): eager-SGD must train
//! it just like any other model — the collective layer is oblivious to
//! what produced the gradient.

use eager_sgd_repro::core::workloads::SpatialWorkload;
use eager_sgd_repro::nn::optim::LrSchedule;
use eager_sgd_repro::nn::zoo::resnet_cnn;
use eager_sgd_repro::nn::ImgShape;
use eager_sgd_repro::prelude::*;
use std::sync::Arc;

fn train_cnn(variant: SgdVariant) -> (f32, f64) {
    const P: usize = 4;
    let task = Arc::new(datagen::SpatialBlobTask::new(8, 4, 0.4, 128, 5));
    let logs = World::launch(WorldConfig::instant(P).with_seed(13), move |c| {
        let ctx = RankCtx::new(c);
        let mut rng = TensorRng::new(321);
        let shape = ImgShape {
            channels: 1,
            height: 8,
            width: 8,
        };
        let mut model = resnet_cnn(shape, 4, 1, 4, &mut rng);
        let mut opt = Sgd::new(0.05);
        let wl = SpatialWorkload {
            task: Arc::clone(&task),
            local_batch: 16,
        };
        let mut cfg = TrainerConfig::new(variant, 6, 10, 0.05);
        // Two settling epochs at a fifth of the rate: the final iterate of
        // constant-rate SGD swings with thread scheduling under eager
        // updates (0.52–0.87 accuracy over 120 runs at 4 epochs); decayed,
        // every run lands above 0.8 and the 0.6 floor is not marginal.
        cfg.lr = LrSchedule::staircase(0.05, &[4], 0.2);
        cfg.model_sync_every = Some(2);
        cfg.eval_every = 2;
        let log = run_rank(&ctx, &mut model, &mut opt, &wl, &cfg);
        ctx.finalize();
        log
    });
    let acc = logs[0].final_test().map(|t| t.top1).unwrap_or(0.0);
    let time = logs.iter().map(|l| l.total_train_s).sum::<f64>() / P as f64;
    (acc, time)
}

use eager_sgd_repro::data as datagen;

#[test]
fn cnn_trains_with_sync_sgd() {
    let (acc, _) = train_cnn(SgdVariant::SynchDeep500);
    assert!(acc > 0.6, "CNN under sync SGD should learn blobs: {acc}");
}

#[test]
fn cnn_trains_with_eager_majority() {
    let (acc, _) = train_cnn(SgdVariant::EagerMajority);
    assert!(acc > 0.6, "CNN under eager-SGD should learn blobs: {acc}");
}
