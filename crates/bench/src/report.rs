//! Output helpers: TSV rows, provenance headers and shape checks.

use crate::harness::VariantSummary;

/// Print a `#`-prefixed provenance/comment line.
pub fn comment(s: &str) {
    println!("# {s}");
}

/// Print one TSV row.
pub fn row<S: AsRef<str>>(cols: &[S]) {
    let joined: Vec<&str> = cols.iter().map(|c| c.as_ref()).collect();
    println!("{}", joined.join("\t"));
}

/// The shape checks of one harness run: the shared vocabulary over
/// [`VariantSummary`] pairs, and the tally that becomes the exit code. A
/// `(label, value)` pair names a measured quantity in the detail.
pub struct Checks {
    quick: bool,
    ok: bool,
}

impl Checks {
    pub fn new(quick: bool) -> Self {
        Checks { quick, ok: true }
    }

    /// The process exit code: 0 when every check so far passed, else 1.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.ok)
    }

    /// A bespoke claim: print `ok`'s verdict line with its evidence.
    pub fn check(&mut self, name: &str, ok: bool, detail: &str) {
        let verdict = if ok { "PASS" } else { "FAIL" };
        println!("SHAPE-CHECK {verdict} {name} ({detail})");
        self.ok &= ok;
    }

    /// `a` finishes training more than `min`× sooner than `b`.
    pub fn faster_than(
        &mut self,
        name: &str,
        a: &VariantSummary,
        b: &VariantSummary,
        min: f64,
        paper: &str,
    ) {
        let s = a.speedup_over(b);
        self.check(name, s > min, &format!("{s:.2}x (paper {paper})"));
    }

    /// `a / b` lies in `range`.
    pub fn ratio_within(
        &mut self,
        name: &str,
        a: (&str, f32),
        b: (&str, f32),
        range: std::ops::Range<f32>,
    ) {
        let detail = format!("{} {:.3} vs {} {:.3}", a.0, a.1, b.0, b.1);
        self.check(name, range.contains(&(a.1 / b.1)), &detail);
    }

    /// `a` exceeds `b` by at most `max` (NaN fails).
    pub fn gap_at_most(
        &mut self,
        name: &str,
        a: (&str, f32),
        b: (&str, f32),
        max: f32,
        paper: &str,
    ) {
        let detail = format!("{} {:.3} vs {} {:.3} (paper {paper})", a.0, a.1, b.0, b.1);
        self.check(name, a.1 - b.1 <= max, &detail);
    }

    /// In `--quick`, print why `name` cannot be judged and return true:
    /// the caller skips the check instead of failing or loosening it.
    pub fn skip_in_quick(&self, name: &str, reason: &str) -> bool {
        if self.quick {
            println!("SHAPE-CHECK SKIP {name} ({reason})");
        }
        self.quick
    }
}

/// A missing evaluation prints as `-`.
fn cell(value: Option<f32>, precision: usize) -> String {
    value.map_or("-".into(), |v| format!("{v:.precision$}"))
}

/// Print the standard summary block for a set of variant runs.
pub fn summary_table(summaries: &[VariantSummary]) {
    row(&[
        "variant",
        "steps_per_s",
        "train_time_s",
        "final_loss",
        "test_top1",
        "test_top5",
        "fresh_frac",
    ]);
    for s in summaries {
        row(&[
            s.label.clone(),
            format!("{:.3}", s.throughput),
            format!("{:.2}", s.train_time_s),
            format!("{:.4}", s.final_loss),
            cell(s.final_test.map(|t| t.top1), 3),
            cell(s.final_test.map(|t| t.top5), 3),
            format!("{:.3}", s.fresh_fraction),
        ]);
    }
}

/// Epoch-series block: one row per epoch of rank 0, prefixed by the
/// variant label (the format the figures plot directly).
pub fn epoch_series(label: &str, logs: &[eager_sgd::TrainLog]) {
    for e in &logs[0].epochs {
        row(&[
            label.to_string(),
            e.epoch.to_string(),
            format!("{:.3}", e.train_time_s),
            format!("{:.5}", e.mean_loss),
            format!("{:.3}", e.throughput),
            cell(e.test.map(|t| t.loss), 4),
            cell(e.test.map(|t| t.top1), 4),
            cell(e.test.map(|t| t.top5), 4),
            cell(e.train.map(|t| t.top1), 4),
            cell(e.train.map(|t| t.top5), 4),
        ]);
    }
}

/// Header for [`epoch_series`] blocks.
pub fn epoch_series_header() {
    row(&[
        "variant",
        "epoch",
        "train_time_s",
        "mean_loss",
        "steps_per_s",
        "test_loss",
        "test_top1",
        "test_top5",
        "train_top1",
        "train_top5",
    ]);
}
