//! `compare`: the CI perf-regression gate.
//!
//! Diffs one or more fresh `BENCH_*.json` artifacts (arrays of variant
//! records with a `label` field plus numeric metric fields) against
//! committed baselines and fails when throughput regresses:
//!
//! ```sh
//! cargo run --release -p repro_bench --bin compare -- \
//!     --pair BENCH_baseline/BENCH_tune_adaptive.json BENCH_tune_adaptive.json \
//!     --pair BENCH_baseline/BENCH_comm_micro.json BENCH_comm_micro.json \
//!         --metrics msgs_per_s,gib_per_s --pair-max-regress 0.5 \
//!     --max-regress 0.25
//! ```
//!
//! Each `--pair <baseline> <current>` names one artifact to gate; the
//! flags that follow a pair customize it: `--metrics a,b` selects its
//! higher-is-better metric fields (default `utility,rounds_per_s`) and
//! `--pair-max-regress` overrides the global bound for that pair (raw
//! throughput sweeps are noisier on shared runners than utility ratios).
//!
//! By default the gate compares the **mean across shared variants** per
//! metric — quick-mode runs on shared CI runners are individually
//! noisy, and the mean over a whole sweep damps that without hiding a
//! real slowdown (a hot-path regression hits every variant).
//! `--pair-stat median` instead gates the **median of the per-variant
//! regressions**, for sweeps where a few huge-magnitude variants would
//! otherwise own the mean (see [`Stat`]). Per-variant deltas are
//! printed for the humans reading the log. Exit codes: 0 pass, 2
//! regression, 1 usage/parse error.
//!
//! Two workflow flags:
//!
//! - `--write-summary` additionally renders each pair as a markdown
//!   table and appends it to the file named by `$GITHUB_STEP_SUMMARY`
//!   (the Actions job-summary page). Without that variable set the
//!   markdown goes nowhere and the flag is a no-op — safe to pass
//!   locally.
//! - `--update-baselines` copies each pair's *current* artifact over its
//!   *baseline* path after printing the deltas, and always exits 0 —
//!   re-baselining after an intentional perf change is one documented
//!   command (`compare --pair <base> <cur> ... --update-baselines`)
//!   instead of hand-copied JSON.

use repro_bench::report::{comment, row};
use serde_json::Value;

const DEFAULT_METRICS: [&str; 2] = ["utility", "rounds_per_s"];

#[derive(Debug, Clone)]
struct VariantMetrics {
    label: String,
    values: Vec<f64>,
}

/// Which statistic a pair's gate aggregates shared variants with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Stat {
    /// Regression of the cross-variant means — damps independent
    /// per-variant noise, but one huge-magnitude variant can dominate.
    #[default]
    Mean,
    /// Median of the per-variant regressions — robust when a few
    /// variants are individually far noisier than the rest (e.g. the
    /// large-payload inproc floods, whose nominal GiB/s dwarfs every
    /// other point). A real hot-path regression moves *every* variant,
    /// so the median still catches it.
    Median,
}

/// One baseline/current artifact pair with its gating parameters.
#[derive(Debug, Clone)]
struct Pair {
    baseline: String,
    current: String,
    metrics: Vec<String>,
    max_regress: Option<f64>,
    stat: Stat,
}

fn load(path: &str, metrics: &[String]) -> Result<Vec<VariantMetrics>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let root = Value::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let arr = root
        .as_arr()
        .map_err(|e| format!("{path}: expected an array of variants: {e}"))?;
    arr.iter()
        .map(|v| {
            let label = match v.field("label").map_err(|e| format!("{path}: {e}"))? {
                Value::Str(s) => s.clone(),
                other => return Err(format!("{path}: label is {}", other.kind())),
            };
            let values = metrics
                .iter()
                .map(|metric| {
                    v.field(metric)
                        .and_then(Value::as_float)
                        .map_err(|e| format!("{path} [{label}] {metric}: {e}"))
                })
                .collect::<Result<Vec<f64>, String>>()?;
            Ok(VariantMetrics { label, values })
        })
        .collect()
}

/// Gate verdict for one metric over the variants shared by both files.
#[derive(Debug, PartialEq)]
struct MetricVerdict {
    metric: String,
    base_mean: f64,
    cur_mean: f64,
    /// Fractional regression of the mean (negative = improvement).
    regression: f64,
    ok: bool,
}

/// Median of `xs` (mean of the middle two for even counts).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn gate(
    baseline: &[VariantMetrics],
    current: &[VariantMetrics],
    metrics: &[String],
    max_regress: f64,
    stat: Stat,
) -> Result<Vec<MetricVerdict>, String> {
    let shared: Vec<(&VariantMetrics, &VariantMetrics)> = baseline
        .iter()
        .map(|b| {
            current
                .iter()
                .find(|c| c.label == b.label)
                .map(|c| (b, c))
                .ok_or_else(|| format!("variant `{}` missing from current run", b.label))
        })
        .collect::<Result<_, _>>()?;
    if shared.is_empty() {
        return Err("no variants to compare".into());
    }
    let n = shared.len() as f64;
    Ok(metrics
        .iter()
        .enumerate()
        .map(|(i, metric)| {
            let base_mean = shared.iter().map(|(b, _)| b.values[i]).sum::<f64>() / n;
            let cur_mean = shared.iter().map(|(_, c)| c.values[i]).sum::<f64>() / n;
            let regression = match stat {
                Stat::Mean => {
                    if base_mean > 0.0 {
                        1.0 - cur_mean / base_mean
                    } else {
                        0.0
                    }
                }
                Stat::Median => {
                    let mut per_variant: Vec<f64> = shared
                        .iter()
                        .map(|(b, c)| {
                            if b.values[i] > 0.0 {
                                1.0 - c.values[i] / b.values[i]
                            } else {
                                0.0
                            }
                        })
                        .collect();
                    median(&mut per_variant)
                }
            };
            MetricVerdict {
                metric: metric.clone(),
                base_mean,
                cur_mean,
                regression,
                ok: regression <= max_regress,
            }
        })
        .collect())
}

/// Render one gated pair as a GitHub-flavored markdown section (the
/// `--write-summary` payload appended to `$GITHUB_STEP_SUMMARY`).
fn markdown_summary(
    pair: &Pair,
    baseline: &[VariantMetrics],
    current: &[VariantMetrics],
    verdicts: &[MetricVerdict],
    max_regress: f64,
) -> String {
    let mut md = String::new();
    md.push_str(&format!(
        "### `{}` vs `{}`\n\n| variant | metric | baseline | current | delta |\n\
         |---|---|---:|---:|---:|\n",
        pair.current, pair.baseline
    ));
    for b in baseline {
        if let Some(c) = current.iter().find(|c| c.label == b.label) {
            for (i, metric) in pair.metrics.iter().enumerate() {
                let delta = if b.values[i] > 0.0 {
                    100.0 * (c.values[i] / b.values[i] - 1.0)
                } else {
                    0.0
                };
                md.push_str(&format!(
                    "| {} | {} | {:.3} | {:.3} | {delta:+.1}% |\n",
                    b.label, metric, b.values[i], c.values[i]
                ));
            }
        }
    }
    md.push('\n');
    for v in verdicts {
        md.push_str(&format!(
            "- {} **{}**: regression {:+.1}% (limit {:.0}%)\n",
            if v.ok { "✅" } else { "❌" },
            v.metric,
            100.0 * v.regression,
            100.0 * max_regress,
        ));
    }
    md.push('\n');
    md
}

/// Append `md` to the Actions job summary, if one is wired up. Outside
/// Actions (`$GITHUB_STEP_SUMMARY` unset) this quietly does nothing.
fn append_step_summary(md: &str) {
    use std::io::Write;
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else {
        return;
    };
    match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        Ok(mut f) => {
            let _ = f.write_all(md.as_bytes());
        }
        Err(e) => eprintln!("warning: cannot append to GITHUB_STEP_SUMMARY ({path}): {e}"),
    }
}

/// Gate one artifact pair: print the per-variant table and the verdicts,
/// return whether every metric passed (plus the markdown rendering for
/// `--write-summary`).
fn run_pair(pair: &Pair, global_max_regress: f64) -> Result<(bool, String), String> {
    let max_regress = pair.max_regress.unwrap_or(global_max_regress);
    let baseline = load(&pair.baseline, &pair.metrics)?;
    let current = load(&pair.current, &pair.metrics)?;

    comment(&format!(
        "perf gate: {} vs baseline {}, max regression {:.0}% on the \
         cross-variant {} of {}",
        pair.current,
        pair.baseline,
        100.0 * max_regress,
        match pair.stat {
            Stat::Mean => "mean",
            Stat::Median => "median regression",
        },
        pair.metrics.join("/")
    ));
    row(&["variant", "metric", "baseline", "current", "delta_pct"]);
    for b in &baseline {
        if let Some(c) = current.iter().find(|c| c.label == b.label) {
            for (i, metric) in pair.metrics.iter().enumerate() {
                let delta = if b.values[i] > 0.0 {
                    100.0 * (c.values[i] / b.values[i] - 1.0)
                } else {
                    0.0
                };
                row(&[
                    b.label.clone(),
                    metric.clone(),
                    format!("{:.3}", b.values[i]),
                    format!("{:.3}", c.values[i]),
                    format!("{delta:+.1}"),
                ]);
            }
        }
    }

    let verdicts = gate(&baseline, &current, &pair.metrics, max_regress, pair.stat)?;
    let mut all_ok = true;
    for v in &verdicts {
        all_ok &= v.ok;
        println!(
            "PERF-GATE {} {} {}: baseline mean {:.3}, current mean {:.3}, \
             regression {:+.1}% (limit {:.0}%)",
            if v.ok { "PASS" } else { "FAIL" },
            pair.current,
            v.metric,
            v.base_mean,
            v.cur_mean,
            100.0 * v.regression,
            100.0 * max_regress,
        );
    }
    let md = markdown_summary(pair, &baseline, &current, &verdicts, max_regress);
    Ok((all_ok, md))
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: compare --pair <baseline.json> <current.json> \
         [--metrics a,b] [--pair-max-regress f] [--pair-stat mean|median] \
         [--pair ...] [--max-regress 0.25] [--write-summary] \
         [--update-baselines]"
    );
    std::process::exit(1);
}

/// Parsed command line: the pairs plus global options.
#[derive(Debug)]
struct Cli {
    pairs: Vec<Pair>,
    max_regress: f64,
    /// Append per-pair markdown tables to `$GITHUB_STEP_SUMMARY`.
    write_summary: bool,
    /// Rewrite each baseline with the current artifact and exit 0.
    update_baselines: bool,
}

fn parse_args(argv: &[String]) -> Cli {
    let default_metrics: Vec<String> = DEFAULT_METRICS.iter().map(|s| s.to_string()).collect();
    let mut pairs: Vec<Pair> = Vec::new();
    let mut max_regress = 0.25;
    let mut write_summary = false;
    let mut update_baselines = false;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--write-summary" => write_summary = true,
            "--update-baselines" => update_baselines = true,
            "--pair" => {
                let baseline = argv
                    .get(i + 1)
                    .cloned()
                    .unwrap_or_else(|| usage("--pair needs <baseline> <current>"));
                let current = argv
                    .get(i + 2)
                    .cloned()
                    .unwrap_or_else(|| usage("--pair needs <baseline> <current>"));
                i += 2;
                pairs.push(Pair {
                    baseline,
                    current,
                    metrics: default_metrics.clone(),
                    max_regress: None,
                    stat: Stat::Mean,
                });
            }
            "--metrics" => {
                i += 1;
                let list = argv
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| usage("--metrics needs a comma-separated list"));
                let metrics: Vec<String> = list
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
                if metrics.is_empty() {
                    usage("--metrics needs at least one metric");
                }
                match pairs.last_mut() {
                    Some(p) => p.metrics = metrics,
                    None => usage("--metrics must follow a --pair"),
                }
            }
            "--pair-max-regress" => {
                i += 1;
                let f = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--pair-max-regress needs a fraction"));
                match pairs.last_mut() {
                    Some(p) => p.max_regress = Some(f),
                    None => usage("--pair-max-regress must follow a --pair"),
                }
            }
            "--pair-stat" => {
                i += 1;
                let stat = match argv.get(i).map(String::as_str) {
                    Some("mean") => Stat::Mean,
                    Some("median") => Stat::Median,
                    _ => usage("--pair-stat needs `mean` or `median`"),
                };
                match pairs.last_mut() {
                    Some(p) => p.stat = stat,
                    None => usage("--pair-stat must follow a --pair"),
                }
            }
            "--max-regress" => {
                i += 1;
                max_regress = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--max-regress needs a fraction"));
            }
            other => usage(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    if pairs.is_empty() {
        usage("nothing to compare: give --pair");
    }
    Cli {
        pairs,
        max_regress,
        write_summary,
        update_baselines,
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_args(&argv);
    let mut all_ok = true;
    for pair in &cli.pairs {
        let (ok, md) = run_pair(pair, cli.max_regress).unwrap_or_else(|e| usage(&e));
        all_ok &= ok;
        if cli.write_summary {
            append_step_summary(&md);
        }
    }
    if cli.update_baselines {
        for pair in &cli.pairs {
            match std::fs::copy(&pair.current, &pair.baseline) {
                Ok(_) => println!("re-baselined {} <- {}", pair.baseline, pair.current),
                Err(e) => usage(&format!("copy {} -> {}: {e}", pair.current, pair.baseline)),
            }
        }
        // Re-baselining acknowledges the deltas by definition; the gate
        // verdicts above are informational.
        return;
    }
    if !all_ok {
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> Vec<String> {
        DEFAULT_METRICS.iter().map(|s| s.to_string()).collect()
    }

    fn vm(label: &str, utility: f64, rps: f64) -> VariantMetrics {
        VariantMetrics {
            label: label.into(),
            values: vec![utility, rps],
        }
    }

    #[test]
    fn equal_runs_pass() {
        let base = vec![vm("a", 10.0, 5.0), vm("b", 20.0, 9.0)];
        let verdicts = gate(&base, &base.clone(), &metrics(), 0.25, Stat::Mean).unwrap();
        assert!(verdicts.iter().all(|v| v.ok));
        assert!(verdicts.iter().all(|v| v.regression.abs() < 1e-12));
    }

    #[test]
    fn large_mean_regression_fails() {
        let base = vec![vm("a", 10.0, 5.0), vm("b", 10.0, 5.0)];
        let cur = vec![vm("a", 5.0, 5.0), vm("b", 5.0, 5.0)]; // utility halved
        let verdicts = gate(&base, &cur, &metrics(), 0.25, Stat::Mean).unwrap();
        assert!(!verdicts[0].ok, "utility gate must fail");
        assert!(verdicts[1].ok, "rounds_per_s unchanged");
    }

    #[test]
    fn single_variant_noise_within_mean_tolerance_passes() {
        // One variant 30% down, the rest flat: mean regression stays
        // under 25%, which is the point of gating on the mean.
        let base = vec![vm("a", 10.0, 5.0), vm("b", 10.0, 5.0), vm("c", 10.0, 5.0)];
        let cur = vec![vm("a", 7.0, 5.0), vm("b", 10.0, 5.0), vm("c", 10.0, 5.0)];
        let verdicts = gate(&base, &cur, &metrics(), 0.25, Stat::Mean).unwrap();
        assert!(verdicts.iter().all(|v| v.ok));
    }

    #[test]
    fn improvement_is_negative_regression() {
        let base = vec![vm("a", 10.0, 5.0)];
        let cur = vec![vm("a", 12.0, 6.0)];
        let verdicts = gate(&base, &cur, &metrics(), 0.25, Stat::Mean).unwrap();
        assert!(verdicts.iter().all(|v| v.ok && v.regression < 0.0));
    }

    #[test]
    fn missing_variant_is_an_error() {
        let base = vec![vm("a", 10.0, 5.0), vm("b", 10.0, 5.0)];
        let cur = vec![vm("a", 10.0, 5.0)];
        assert!(gate(&base, &cur, &metrics(), 0.25, Stat::Mean).is_err());
    }

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_multi_pair_with_per_pair_options() {
        let cli = parse_args(&argv(&[
            "--pair",
            "base_a.json",
            "cur_a.json",
            "--pair",
            "base_b.json",
            "cur_b.json",
            "--metrics",
            "msgs_per_s,gib_per_s",
            "--pair-max-regress",
            "0.5",
            "--max-regress",
            "0.2",
        ]));
        assert_eq!(cli.max_regress, 0.2);
        assert_eq!(cli.pairs.len(), 2);
        assert_eq!(cli.pairs[0].metrics, metrics());
        assert_eq!(cli.pairs[0].max_regress, None);
        assert_eq!(cli.pairs[1].baseline, "base_b.json");
        assert_eq!(cli.pairs[1].metrics, vec!["msgs_per_s", "gib_per_s"]);
        assert_eq!(cli.pairs[1].max_regress, Some(0.5));
        assert!(!cli.write_summary);
        assert!(!cli.update_baselines);
    }

    #[test]
    fn parse_workflow_flags_anywhere_on_the_line() {
        let cli = parse_args(&argv(&[
            "--write-summary",
            "--pair",
            "b.json",
            "c.json",
            "--update-baselines",
        ]));
        assert!(cli.write_summary);
        assert!(cli.update_baselines);
        assert_eq!(cli.pairs.len(), 1);
    }

    #[test]
    fn markdown_summary_renders_table_and_verdicts() {
        let pair = Pair {
            baseline: "base.json".into(),
            current: "cur.json".into(),
            metrics: metrics(),
            max_regress: None,
            stat: Stat::Mean,
        };
        let base = vec![vm("a", 10.0, 5.0)];
        let cur = vec![vm("a", 12.0, 4.0)];
        let verdicts = gate(&base, &cur, &metrics(), 0.25, Stat::Mean).unwrap();
        let md = markdown_summary(&pair, &base, &cur, &verdicts, 0.25);
        assert!(md.contains("### `cur.json` vs `base.json`"));
        assert!(md.contains("| a | utility | 10.000 | 12.000 | +20.0% |"));
        assert!(md.contains("| a | rounds_per_s | 5.000 | 4.000 | -20.0% |"));
        assert!(md.contains("✅ **utility**"));
        assert!(
            md.contains("✅ **rounds_per_s**"),
            "20% under the 25% limit"
        );
    }
}
