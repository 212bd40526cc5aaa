//! The host descriptor stamped on every output, so a number can be read
//! against the machine it was taken on.

use crate::ceilings::HostCeilings;
use crate::report::obj;
use serde::json::Value;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
}

fn cpu_model() -> Option<String> {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
}

fn text(v: Option<String>) -> Value {
    Value::Str(v.unwrap_or_else(|| "unknown".into()))
}

fn number(v: f64) -> Value {
    if v.is_finite() {
        Value::Float(v)
    } else {
        Value::Null
    }
}

/// nproc, CPU model, the four `host.*` ceilings (null in a run that did
/// not measure them), rustc version, commit and seed.
pub fn descriptor(seed: u64, ceilings: Option<&HostCeilings>) -> Value {
    let ceiling =
        |pick: fn(&HostCeilings) -> f64| ceilings.map_or(Value::Null, |c| number(pick(c)));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj(vec![
        ("nproc", Value::Int(nproc as i128)),
        ("cpu_model", text(cpu_model())),
        ("triad_gbps", ceiling(|c| c.triad_gbps)),
        ("memcpy_gbps", ceiling(|c| c.memcpy_gbps)),
        ("socket_bulk_gbps", ceiling(|c| c.socket_bulk_gbps)),
        ("socket_pingpong_us", ceiling(|c| c.socket_pingpong_us)),
        ("llc_mib", ceiling(|c| c.llc_mib)),
        ("triad_array_mib", ceiling(|c| c.array_mib)),
        ("rustc", text(command_line("rustc", &["--version"]))),
        (
            // A checkout that is not a git repository has no commit.
            "commit",
            text(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("seed", Value::Int(i128::from(seed))),
    ])
}
