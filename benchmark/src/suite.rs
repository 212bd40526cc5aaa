//! The one command that runs everything: every workload, end to end and
//! traced, each run in a child process of its own (so one workload's
//! memory and threads never colour the next), collected into one JSON
//! document that `--compare` reads.

use crate::report::obj;
use crate::spec;
use serde::json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Where the benchmark writes: `benchmark/out/`, inside the package.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn write_out(name: &str, doc: &Value) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    std::fs::write(&path, doc.to_json())?;
    Ok(path)
}

/// Run one workload in one mode in a child process; echo its table and
/// return its result object and the host descriptor it printed.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: u8,
) -> Result<(Value, Option<Value>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} --trace {trace} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or("no output")?;
    let mut host = None;
    for l in lines {
        println!("{l}");
        if let Some(json) = l.strip_prefix("# host ") {
            host = Value::parse(json).ok();
        }
    }
    Ok((Value::parse(last).map_err(|e| e.to_string())?, host))
}

/// Append one run's result to the per-metric value lists of `into`.
fn collect(into: &mut Vec<(String, Value)>, result: &Value) -> Result<(), String> {
    let metrics = result
        .field("metrics")
        .and_then(Value::as_obj)
        .map_err(|e| e.to_string())?;
    for (name, m) in metrics {
        let value = m.field("value").map_err(|e| e.to_string())?.clone();
        match into.iter_mut().find(|(k, _)| k == name) {
            Some((_, Value::Obj(fields))) => {
                if let Some((_, Value::Arr(values))) =
                    fields.iter_mut().find(|(k, _)| k == "values")
                {
                    values.push(value);
                }
            }
            _ => into.push((
                name.clone(),
                obj(vec![
                    ("unit", m.field("unit").map_err(|e| e.to_string())?.clone()),
                    ("values", Value::Arr(vec![value])),
                ]),
            )),
        }
    }
    Ok(())
}

/// Run every workload `runs` times in both modes (seeds `seed`,
/// `seed + 1`, …) and write the collected document. Returns whether
/// every run was correct and nothing failed.
pub fn run_all(seed: u64, seconds: f64, runs: u64, out_name: &str) -> Result<bool, String> {
    let mut all_ok = true;
    let mut workloads = Vec::new();
    let mut host = Value::Null;
    for spec in spec::all() {
        let mut end_to_end = Vec::new();
        let mut per_layer = Vec::new();
        let mut attempted = 0i128;
        let mut failed = 0i128;
        for run in 0..runs {
            for (trace, into) in [(0, &mut end_to_end), (1, &mut per_layer)] {
                let (result, run_host) = child_run(spec.name, seed + run, seconds, trace)?;
                // Only traced runs measure the ceilings.
                if let (1, Some(h)) = (trace, run_host) {
                    host = h;
                }
                collect(into, &result)?;
                attempted += result
                    .field("attempted")
                    .and_then(Value::as_int)
                    .unwrap_or(0);
                failed += result.field("failed").and_then(Value::as_int).unwrap_or(0);
                all_ok &= matches!(result.field("correct"), Ok(Value::Bool(true)));
            }
        }
        all_ok &= failed == 0;
        workloads.push((
            spec.name.to_owned(),
            obj(vec![
                ("attempted", Value::Int(attempted)),
                ("failed", Value::Int(failed)),
                ("end_to_end", Value::Obj(end_to_end)),
                ("per_layer", Value::Obj(per_layer)),
            ]),
        ));
    }
    let doc = obj(vec![
        ("host", host),
        ("seed", Value::Int(i128::from(seed))),
        ("seconds", Value::Float(seconds)),
        ("runs", Value::Int(i128::from(runs))),
        ("workloads", Value::Obj(workloads)),
    ]);
    let path = write_out(out_name, &doc).map_err(|e| e.to_string())?;
    println!("# wrote {}", path.display());
    Ok(all_ok)
}
