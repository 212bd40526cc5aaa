//! Fig. 2–4: the imbalance histograms. One row per figure — a sampler,
//! histogram bounds, the paper's numbers and the range checks — through
//! one loop ([`run`]).

use crate::report::{comment, row, Checks};
use crate::HarnessArgs;
use datagen::text::SentenceLengthSampler;
use datagen::{VideoDatasetSpec, VideoTask};
use imbalance::cost::{cloud_resnet_floor_ms, lstm_batch_ms, transformer_batch_ms};
use imbalance::{Histogram, Injector, OnlineStats};
use minitensor::TensorRng;
use std::ops::RangeBounds;

pub(super) struct DistFigure {
    title: &'static str,
    paper: &'static str,
    /// The figure's samples (frames or milliseconds), a function of `--seed`.
    sample: fn(&HarnessArgs) -> Vec<f64>,
    /// Histogram `(lo, hi, bins)`.
    bins: (f64, f64, usize),
    columns: [&'static str; 2],
    /// The "ours:" provenance line.
    ours: fn(&Dist) -> String,
    checks: fn(&Dist, &mut Checks),
}

struct Dist {
    samples: Vec<f64>,
    stats: OnlineStats,
    hist: Histogram,
}

pub(super) fn run(fig: &DistFigure, args: &HarnessArgs, c: &mut Checks) {
    let mut d = Dist {
        samples: (fig.sample)(args),
        stats: OnlineStats::new(),
        hist: Histogram::new(fig.bins.0, fig.bins.1, fig.bins.2),
    };
    for &x in &d.samples {
        d.stats.push(x);
        d.hist.push(x);
    }
    comment(fig.title);
    comment(fig.paper);
    comment(&(fig.ours)(&d));
    row(&fig.columns);
    for (center, count) in d.hist.rows() {
        row(&[format!("{center:.0}"), count.to_string()]);
    }
    (fig.checks)(&d, c);
}

/// The range check most rows are made of: `what`'s value lies in `range`.
fn near(c: &mut Checks, name: &str, what: &str, v: f64, range: impl RangeBounds<f64>) {
    c.check(name, range.contains(&v), &format!("{what} {v:.0}"));
}

fn ours_batches(d: &Dist) -> String {
    let s = &d.stats;
    format!(
        "ours: {} batches, range {:.0}..{:.0} ms, mean {:.0}, std {:.0}",
        d.samples.len(),
        s.min(),
        s.max(),
        s.mean(),
        s.std()
    )
}

fn ucf101(args: &HarnessArgs) -> VideoTask {
    VideoTask::new(VideoDatasetSpec::ucf101(1.0), 16, args.seed)
}

fn median(d: &Dist) -> f64 {
    let mut sorted = d.samples.clone();
    sorted.sort_unstable_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

pub(super) const FIG2A: DistFigure = DistFigure {
    title: "Fig 2a: video length distribution (number of frames), 9537 videos",
    paper: "paper: range 29..1776, median 167, std ~97",
    sample: |args| ucf101(args).lengths().iter().map(|&l| l as f64).collect(),
    bins: (0.0, 1800.0, 36), // 50-frame bins
    columns: ["frames_bin_center", "num_videos"],
    ours: |d| {
        let s = &d.stats;
        format!(
            "ours: range {}..{}, median {}, mean {:.1}, std {:.1}",
            s.min(),
            s.max(),
            median(d),
            s.mean(),
            s.std()
        )
    },
    checks: |d, c| {
        let (s, median) = (&d.stats, median(d));
        near(c, "median-near-167", "median", median, 140.0..=200.0);
        c.check(
            "right-skewed",
            s.mean() > median,
            &format!("mean {:.1} > median {median}", s.mean()),
        );
        c.check(
            "range-clipped-29-1776",
            s.min() >= 29.0 && s.max() <= 1776.0,
            &format!("[{}, {}]", s.min(), s.max()),
        );
        let mode = d.hist.mode_bin();
        c.check("unimodal-low-mode", mode <= 5, &format!("mode bin {mode}"));
    },
};

/// With fine (batch-sized) buckets the runtime distribution inherits the
/// length distribution's shape. (The paper's mean of 1235 ms implies
/// coarser buckets than ours — granularity is unspecified there; the range
/// and skew are the load-imbalance signal either way.)
pub(super) const FIG2B: DistFigure = DistFigure {
    title: "Fig 2b: LSTM batch runtime distribution (ms), batch=16, 2 epochs",
    paper: "paper: range 201..3410 ms (P100); cost model ms = 147.7 + 1.837*frames",
    sample: |args| {
        let task = ucf101(args);
        let epoch = (0..task.n_buckets()).map(|b| lstm_batch_ms(task.bucket_len(b) as f64));
        epoch.clone().chain(epoch).collect()
    },
    bins: (0.0, 3500.0, 35),
    columns: ["runtime_ms_bin_center", "num_batches"],
    ours: ours_batches,
    checks: |d, c| {
        let (s, batches) = (&d.stats, d.samples.len());
        c.check(
            "range-matches-paper",
            s.min() >= 190.0 && s.min() <= 260.0 && s.max() >= 2500.0,
            &format!("[{:.0}, {:.0}] vs paper [201, 3410]", s.min(), s.max()),
        );
        c.check(
            "right-skewed-runtimes",
            s.mean() < (s.min() + s.max()) / 2.0,
            &format!("mean {:.0} below midrange", s.mean()),
        );
        c.check(
            "batch-count-near-paper",
            (1000..1400).contains(&batches),
            &format!("{batches} vs paper 1192"),
        );
    },
};

pub(super) const FIG3: DistFigure = DistFigure {
    title: "Fig 3: Transformer batch runtime distribution (ms), batch=64, WMT16",
    paper: "paper: range 179..3482 ms, mean 475, std 144",
    sample: |args| {
        let sampler = SentenceLengthSampler::wmt16();
        let mut rng = TensorRng::new(args.seed);
        (0..if args.quick { 2_000 } else { 20_653 })
            .map(|_| transformer_batch_ms(sampler.sample_batch_mean(64, &mut rng)))
            .collect()
    },
    bins: (0.0, 3500.0, 35),
    columns: ["runtime_ms_bin_center", "num_batches"],
    ours: ours_batches,
    checks: |d, c| {
        let s = &d.stats;
        near(c, "mean-near-475", "mean", s.mean(), 380.0..570.0);
        near(c, "std-near-144", "std", s.std(), 90.0..260.0);
        near(c, "min-above-170", "min", s.min(), 170.0..);
        let mode = d.hist.mode_bin();
        c.check(
            "unimodal-right-tail",
            mode < 10,
            &format!("mode bin {mode}"),
        );
    },
};

/// *System-induced* imbalance: identical per-batch compute plus
/// right-skewed cloud noise (one rank's view; the stream is per
/// `(rank, step)`).
pub(super) const FIG4: DistFigure = DistFigure {
    title: "Fig 4: ResNet-50 on ImageNet batch runtime distribution (ms), cloud instance",
    paper: "paper: range 399..1892 ms, mean 454, std 116",
    sample: |args| {
        let noise = Injector::cloud_default(args.seed);
        (0..if args.quick { 3_000 } else { 25_000 })
            .map(|step| cloud_resnet_floor_ms() + noise.delay_ms(0, 2, step).min(1500.0))
            .collect()
    },
    bins: (350.0, 1900.0, 31),
    columns: ["runtime_ms_bin_center", "num_batches"],
    ours: ours_batches,
    checks: |d, c| {
        let s = &d.stats;
        near(c, "mean-near-454", "mean", s.mean(), 420.0..500.0);
        near(c, "std-near-116", "std", s.std(), 80.0..160.0);
        near(c, "floor-at-399", "min", s.min(), 399.0..420.0);
        c.check(
            "tail-reaches-past-1s",
            s.max() > 1000.0,
            &format!("max {:.0}", s.max()),
        );
    },
};
