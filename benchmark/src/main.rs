//! `stepbench`: one eager-SGD training step, end to end and layer by
//! layer, on four workloads. See `benchmark/README.md`.
//!
//! ```text
//! stepbench --workload W --seed N --seconds S --trace 0|1   one run; last line is the result JSON
//! stepbench [--seed N] [--seconds S] [--runs R] [--out F]    every workload, both modes
//! stepbench --compare A.json B.json                          two full runs side by side
//! ```

mod ceilings;
mod coll;
mod comm;
mod compare;
mod decor;
mod e2e;
mod host;
mod layers;
mod pool;
mod report;
mod spans;
mod spec;
mod stats;
mod suite;
mod train;
mod world;

use std::process::ExitCode;
use world::{Job, JobKind};

const DEFAULT_SECONDS: u64 = 20;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        Some(v) => v.parse().map_err(|_| format!("{name}: cannot parse `{v}`")),
        None => Ok(default),
    }
}

/// A TCP worker process: run the rank of the launch named by `--worker`.
fn worker(spec: &spec::Spec, seed: u64, value: &str) -> Result<(), String> {
    let job = Job::decode(value).ok_or("--worker: malformed job")?;
    let bad_counts = || format!("--worker: wrong counts for {:?}", job.kind);
    let nparams = || dnn::Model::num_params(&spec.build_model(seed));
    match job.kind {
        JobKind::Train => {
            let plan = train::Plan::from_job(seed, &job).ok_or_else(bad_counts)?;
            train::launch(spec, plan, &job.label, &train::RunInputs::none());
        }
        JobKind::Coll => {
            let plan = coll::CollPlan::from_job(&job).ok_or_else(bad_counts)?;
            let epoch = std::time::Instant::now();
            coll::launch_engine_loops(spec, seed, nparams(), plan, &job.label, epoch);
        }
        JobKind::Ring => {
            let rounds = *job.counts.first().ok_or_else(bad_counts)?;
            coll::launch_direct_ring(spec, seed, nparams(), rounds, &job.label);
        }
        JobKind::Comm => {
            let plan = comm::CommPlan::from_job(&job).ok_or_else(bad_counts)?;
            comm::launch(spec, seed, true, plan, &job.label);
        }
    }
    Err("a TCP worker returned from its launch".into())
}

fn run(args: &[String]) -> Result<bool, String> {
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        return match &args[i + 1..] {
            [a, b, ..] => compare::run(a, b),
            _ => Err("--compare takes two result files".into()),
        };
    }
    let seed: u64 = parsed(args, "--seed", 1)?;
    let seconds: f64 = parsed(args, "--seconds", DEFAULT_SECONDS as f64)?;
    if !(seconds.is_finite() && seconds >= 1.0) {
        return Err(format!("--seconds: {seconds} is not a measuring time"));
    }
    let Some(workload) = flag(args, "--workload") else {
        let runs: u64 = parsed(args, "--runs", 1)?;
        let out = flag(args, "--out").unwrap_or_else(|| format!("stepbench_seed{seed}.json"));
        return suite::run_all(seed, seconds, runs, &out);
    };
    let spec = spec::find(&workload).ok_or_else(|| {
        let names: Vec<&str> = spec::all().iter().map(|s| s.name).collect();
        format!("unknown workload `{workload}`; one of {names:?}")
    })?;
    if let Some(job) = flag(args, "--worker") {
        return worker(&spec, seed, &job).map(|()| true);
    }
    let trace: u8 = parsed(args, "--trace", 0)?;
    let mut report = if trace == 0 {
        let report = e2e::run(&spec, seed, seconds).ok_or("launch returned nothing")?;
        println!("# host {}", host::descriptor(seed, None).to_json());
        report
    } else {
        let traced = layers::run(&spec, seed, seconds).ok_or("launch returned nothing")?;
        println!("# host {}", traced.host.to_json());
        let path = suite::write_out(&format!("trace_{}.json", spec.name), &traced.trace)
            .map_err(|e| format!("writing the span dump: {e}"))?;
        println!("# spans {}", path.display());
        traced.report
    };
    report.seal();
    println!("# {}: {}", spec.name, spec.why);
    report.print_table();
    println!("{}", report.result_value().to_json());
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("stepbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::json::Value;

    fn text(v: &Value, key: &str) -> String {
        match v.field(key) {
            Ok(Value::Str(s)) => s.clone(),
            other => panic!("`{key}` is not a string: {other:?}"),
        }
    }

    /// `BENCHMARK.json` is written by hand; the workloads and metrics it
    /// lists must be the ones this program runs and prints.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Value::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let list = |key: &str| doc.field(key).and_then(Value::as_arr).unwrap().to_vec();

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let specs: Vec<(String, String)> = spec::all()
            .iter()
            .map(|s| (s.name.to_owned(), s.why.to_owned()))
            .collect();
        assert_eq!(workloads, specs);

        let named = |key: &str| -> Vec<(String, String)> {
            list(key)
                .iter()
                .map(|m| (text(m, "name"), text(m, "unit")))
                .collect()
        };
        let defs = |defs: &[report::MetricDef]| -> Vec<(String, String)> {
            defs.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(named("end_to_end"), defs(&e2e::END_TO_END));
        assert_eq!(named("per_layer"), defs(&layers::PER_LAYER));
        assert_eq!(
            doc.field("run_seconds").and_then(Value::as_int).unwrap(),
            i128::from(DEFAULT_SECONDS)
        );
    }
}
