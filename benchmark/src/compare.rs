//! `--compare A.json B.json`: two documents written by the full run, side
//! by side. Per workload and metric: both medians, the relative
//! difference, and for end-to-end metrics the bound from `BENCHMARK.json`.
//! B fails against A when an end-to-end metric is worse by more than its
//! bound, or when a larger share of operations failed.

use crate::stats::median;
use serde::json::Value;
use std::path::Path;

/// Direction and bound of one end-to-end metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub fn parse_bounds(benchmark_json: &Value) -> Result<Vec<Bound>, String> {
    benchmark_json
        .field("end_to_end")
        .and_then(Value::as_arr)
        .map_err(|e| e.to_string())?
        .iter()
        .map(|m| {
            let text = |k: &str| match m.field(k) {
                Ok(Value::Str(s)) => Ok(s.clone()),
                _ => Err(format!("BENCHMARK.json: end_to_end entry without `{k}`")),
            };
            Ok(Bound {
                name: text("name")?,
                higher_is_better: text("better")? == "higher",
                bound: m
                    .field("bound")
                    .and_then(Value::as_float)
                    .map_err(|e| e.to_string())?,
            })
        })
        .collect()
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// it is better).
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let rel = (b - a) / a.abs();
    if higher_is_better {
        -rel
    } else {
        rel
    }
}

fn medians(section: &Value) -> Vec<(String, f64)> {
    section
        .as_obj()
        .map(|metrics| {
            metrics
                .iter()
                .filter_map(|(name, m)| {
                    let values: Vec<f64> = m
                        .field("values")
                        .and_then(Value::as_arr)
                        .ok()?
                        .iter()
                        .filter_map(|v| v.as_float().ok())
                        .collect();
                    Some((name.clone(), median(&values)))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn failed_share(workload: &Value) -> f64 {
    let int = |k: &str| workload.field(k).and_then(Value::as_int).unwrap_or(0) as f64;
    int("failed") / int("attempted").max(1.0)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Print the comparison; `Ok(true)` when B is within every bound.
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let bounds_file = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let bounds = parse_bounds(&load(&bounds_file.to_string_lossy())?)?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let workloads = |doc: &Value| -> Result<Vec<(String, Value)>, String> {
        Ok(doc
            .field("workloads")
            .and_then(Value::as_obj)
            .map_err(|e| e.to_string())?
            .to_vec())
    };
    let b_workloads = workloads(&b)?;
    let mut within = true;
    for (name, wa) in workloads(&a)? {
        let Some((_, wb)) = b_workloads.iter().find(|(k, _)| *k == name) else {
            println!("{name}: missing from {b_path}");
            within = false;
            continue;
        };
        println!("## {name}");
        println!(
            "{:<42} {:>14} {:>14} {:>9} {:>7}",
            "metric", "A median", "B median", "B vs A", "bound"
        );
        for section in ["end_to_end", "per_layer"] {
            let (Ok(sa), Ok(sb)) = (wa.field(section), wb.field(section)) else {
                continue;
            };
            let mb = medians(sb);
            for (metric, va) in medians(sa) {
                let Some((_, vb)) = mb.iter().find(|(k, _)| *k == metric) else {
                    continue;
                };
                let rel = (vb - va) / va.abs();
                let bound = bounds
                    .iter()
                    .find(|b| b.name == metric && section == "end_to_end");
                let verdict = match bound {
                    Some(b) if worsening(va, *vb, b.higher_is_better) > b.bound => {
                        within = false;
                        "  OUTSIDE BOUND"
                    }
                    _ => "",
                };
                println!(
                    "{:<42} {:>14.6} {:>14.6} {:>+8.2}% {:>7}{verdict}",
                    metric,
                    va,
                    vb,
                    100.0 * rel,
                    bound.map_or(String::new(), |b| format!("{:.2}", b.bound)),
                );
            }
        }
        let (fa, fb) = (failed_share(&wa), failed_share(wb));
        println!("failed share: A {fa:.6}, B {fb:.6}");
        if fb > fa {
            println!("  FAILED SHARE ROSE");
            within = false;
        }
    }
    Ok(within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        // Throughput fell 10%: worse by 0.10. Latency fell 10%: better.
        assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) + 0.10).abs() < 1e-12);
        assert!((worsening(2.0, 2.5, false) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn bounds_parse_from_benchmark_json() {
        let doc = Value::parse(
            r#"{"end_to_end": [
                {"name": "steps_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap();
        let bounds = parse_bounds(&doc).unwrap();
        assert_eq!(bounds.len(), 2);
        assert!(bounds[0].higher_is_better && bounds[0].bound == 0.1);
        assert!(!bounds[1].higher_is_better && bounds[1].name == "setup_s");
    }
}
