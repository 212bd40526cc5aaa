//! Fig. 2b: LSTM batch-runtime distribution on UCF101 (batch 16, two
//! epochs of bucketed batches), via the P100-fitted cost model.
//!
//! Paper: runtimes 201–3410 ms. With fine (batch-sized) buckets the
//! runtime distribution inherits the length distribution's shape: heavily
//! right-skewed with the extreme bucket at ≈3.4 s. (The paper's mean of
//! 1235 ms implies coarser buckets than ours — granularity is unspecified
//! there; the range and skew are the load-imbalance signal either way.)

use datagen::{VideoDatasetSpec, VideoTask};
use imbalance::cost::lstm_batch_ms;
use imbalance::{Histogram, OnlineStats};
use repro_bench::report::{comment, row, shape_check};
use repro_bench::HarnessArgs;

fn main() {
    let args = HarnessArgs::parse();
    let task = VideoTask::new(VideoDatasetSpec::ucf101(1.0), 16, args.seed);

    let mut stats = OnlineStats::new();
    let mut hist = Histogram::new(0.0, 3500.0, 35);
    let epochs = 2;
    let mut batches = 0;
    for _ in 0..epochs {
        for b in 0..task.n_buckets() {
            let ms = lstm_batch_ms(task.bucket_len(b) as f64);
            stats.push(ms);
            hist.push(ms);
            batches += 1;
        }
    }

    comment("Fig 2b: LSTM batch runtime distribution (ms), batch=16, 2 epochs");
    comment("paper: range 201..3410 ms (P100); cost model ms = 147.7 + 1.837*frames");
    comment(&format!(
        "ours: {batches} batches, range {:.0}..{:.0} ms, mean {:.0}, std {:.0}",
        stats.min(),
        stats.max(),
        stats.mean(),
        stats.std()
    ));
    row(&["runtime_ms_bin_center", "num_batches"]);
    for (center, count) in hist.rows() {
        row(&[format!("{center:.0}"), count.to_string()]);
    }

    let mut ok = true;
    ok &= shape_check(
        "range-matches-paper",
        stats.min() >= 190.0 && stats.min() <= 260.0 && stats.max() >= 2500.0,
        &format!(
            "[{:.0}, {:.0}] vs paper [201, 3410]",
            stats.min(),
            stats.max()
        ),
    );
    ok &= shape_check(
        "right-skewed-runtimes",
        stats.mean() < (stats.min() + stats.max()) / 2.0,
        &format!("mean {:.0} below midrange", stats.mean()),
    );
    ok &= shape_check(
        "batch-count-near-paper",
        (1000..1400).contains(&batches),
        &format!("{batches} vs paper 1192"),
    );
    std::process::exit(i32::from(!ok));
}
