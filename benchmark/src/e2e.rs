//! The end-to-end run (`--trace 0`): what a user of the system sees.
//! Everything is measured through the real `eager_sgd::run_rank` with
//! tracing off.

use crate::report::{MetricDef, Report};
use crate::spec::Spec;
use crate::stats::{median, ns_to_ms, tail_supported, Samples};
use crate::train::{launch, rss_hwm_kib, Launch, PhaseOut, Plan, RankOut, RunInputs};

/// The end-to-end metrics, the same six on every workload.
pub const END_TO_END: [MetricDef; 6] = [
    ("steps_per_s", "1/s"),
    ("sync_steps_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p95", "ms"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Launches that share `--seconds`. Thread placement and convoy formation
/// differ from launch to launch (on `bw_inproc` a launch's synchronous rate
/// lands anywhere between 205 and 250 steps/s and stays there), so every
/// metric is taken per launch and the run reports the median over
/// launches; with the pilot they also give five set-up times.
const MEASURED_LAUNCHES: usize = 4;
/// How long the pilot's steady eager windows take on the reference host.
const PILOT_SECONDS: f64 = 1.0;
/// Share of `--seconds` given to the eager phase; the synchronous
/// baseline gets the rest.
const EAGER_SHARE: f64 = 0.55;

/// Each window's rate, as the mean over the ranks of one launch.
pub fn window_rates(phases: &[&PhaseOut]) -> Vec<f64> {
    let windows = phases
        .iter()
        .map(|p| p.window_rate.len())
        .min()
        .unwrap_or(0);
    (0..windows)
        .map(|w| phases.iter().map(|p| p.window_rate[w]).sum::<f64>() / phases.len() as f64)
        .collect()
}

pub fn phases<'a>(
    ranks: &'a [RankOut],
    pick: impl Fn(&'a RankOut) -> &'a Option<PhaseOut>,
) -> Vec<&'a PhaseOut> {
    ranks.iter().filter_map(|r| pick(r).as_ref()).collect()
}

/// The last window both runs evaluated, and the two held-out losses
/// there: the same number of steps from the same weights.
pub fn loss_at_common_window(eager: &PhaseOut, sync: &PhaseOut) -> Option<(usize, f64, f64)> {
    eager
        .window_loss
        .iter()
        .zip(&sync.window_loss)
        .enumerate()
        .rev()
        .find(|(_, (e, s))| e.is_finite() && s.is_finite())
        .map(|(w, (&e, &s))| (w, e, s))
}

/// Output checks shared by both modes. Returns (problems, failed steps).
///
/// - every rank's losses and parameters are finite;
/// - synchronous ranks end with bit-identical parameters and a lower
///   held-out loss than the initial model's;
/// - the eager run's held-out loss, at the last window both runs
///   reached, stays within the workload's multiple of the synchronous
///   run's — otherwise every eager step counts as failed, since speed
///   bought by not waiting for gradients is not a speed-up.
pub fn check_outputs(spec: &Spec, ranks: &[RankOut]) -> (Vec<String>, u64) {
    let mut problems = Vec::new();
    let mut failed = 0u64;
    let eager = phases(ranks, |r| &r.eager);
    let sync = phases(ranks, |r| &r.sync);
    for (name, ph) in [("eager", &eager), ("sync", &sync)] {
        for (rank, p) in ph.iter().enumerate() {
            if !p.finite {
                problems.push(format!("{name} rank {rank}: non-finite loss or parameters"));
                failed += p.steps;
            }
        }
    }
    if let Some(first) = sync.first() {
        if sync.iter().any(|p| p.params_hash != first.params_hash) {
            problems.push("sync ranks ended with different parameters".into());
        }
        let init = ranks[0].init_loss;
        match first.window_loss.iter().rev().find(|l| l.is_finite()) {
            Some(&last) if last < init => {}
            last => problems.push(format!(
                "sync held-out loss did not fall: init {init}, final {last:?}"
            )),
        }
    }
    if let (Some(e), Some(s)) = (eager.first(), sync.first()) {
        match loss_at_common_window(e, s) {
            None => problems.push("no window evaluated in both runs".into()),
            Some((window, eager_loss, sync_loss)) => {
                let ratio = eager_loss / sync_loss;
                if ratio.is_nan() || ratio > spec.loss_ratio_limit {
                    problems.push(format!(
                        "eager held-out loss is {ratio:.3}x sync's after {} windows (limit {})",
                        window + 1,
                        spec.loss_ratio_limit
                    ));
                    failed += eager.iter().map(|p| p.steps).sum::<u64>();
                }
            }
        }
    }
    (problems, failed)
}

/// The steady windows' rates: a phase without its settling windows.
pub fn steady_rates(settle_windows: usize, phases: &[&PhaseOut]) -> Vec<f64> {
    let rates = window_rates(phases);
    rates[settle_windows.min(rates.len())..].to_vec()
}

/// The steady windows' step times of every rank pooled, in milliseconds.
pub fn steady_step_ms(spec: &Spec, phases: &[&PhaseOut]) -> Vec<f64> {
    let skip = spec.settle_windows * (spec.window_steps - 1);
    phases
        .iter()
        .flat_map(|p| ns_to_ms(&p.step_ns[skip.min(p.step_ns.len())..]))
        .collect()
}

/// How fast this host runs the workload relative to the reference host
/// the spec's rates were measured on, from a short eager pilot. Window
/// counts are fixed before a launch starts (every rank must run the same
/// number of steps), so this is what keeps a run near `--seconds` on a
/// host of another speed.
pub fn host_speed(spec: &Spec, seed: u64, inputs: &RunInputs) -> Option<(f64, Launch)> {
    let pilot = launch(
        spec,
        Plan {
            seed,
            eager_windows: spec.settle_windows
                + windows_for(spec, PILOT_SECONDS, spec.eager_ref_rate),
            ..Plan::default()
        },
        "pilot",
        inputs,
    )?;
    // Disturbances only ever slow a window down: gauge from the faster
    // windows.
    let eager = phases(&pilot.ranks, |r| &r.eager);
    let rate = Samples::new(steady_rates(spec.settle_windows, &eager)).q(0.75);
    let speed = rate / spec.eager_ref_rate;
    let speed = if speed.is_finite() {
        speed.clamp(0.2, 5.0)
    } else {
        1.0
    };
    Some((speed, pilot))
}

/// Windows that take about `seconds` at `rate` steps per second.
pub fn windows_for(spec: &Spec, seconds: f64, rate: f64) -> usize {
    ((seconds * rate / spec.window_steps as f64).round() as usize).max(3)
}

pub fn run(spec: &Spec, seed: u64, seconds: f64) -> Option<Report> {
    let inputs = RunInputs::for_run(spec, seed);
    let (speed, pilot) = host_speed(spec, seed, &inputs)?;
    // The settling windows come on top of `--seconds`: only steady
    // windows are measured.
    let share = seconds / MEASURED_LAUNCHES as f64;
    let plan = Plan {
        seed,
        eager_windows: spec.settle_windows
            + windows_for(spec, share * EAGER_SHARE, spec.eager_ref_rate * speed),
        sync_windows: spec.sync_settle_windows
            + windows_for(
                spec,
                share * (1.0 - EAGER_SHARE),
                spec.sync_ref_rate * speed,
            ),
        traced_windows: 0,
    };
    let measured = (0..MEASURED_LAUNCHES)
        .map(|i| launch(spec, plan, &format!("run{i}"), &inputs))
        .collect::<Option<Vec<Launch>>>()?;
    let setups: Vec<f64> = std::iter::once(&pilot)
        .chain(&measured)
        .map(Launch::setup_s)
        .collect();

    // One value per launch; the run reports their median.
    let mut eager_rate = Vec::new();
    let mut sync_rate = Vec::new();
    let mut p50 = Vec::new();
    let mut p95 = Vec::new();
    let mut step_samples = Vec::new();
    let mut problems = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut timed_s = 0.0;
    for (i, l) in measured.iter().enumerate() {
        let eager = phases(&l.ranks, |r| &r.eager);
        let sync = phases(&l.ranks, |r| &r.sync);
        eager_rate.push(median(&steady_rates(spec.settle_windows, &eager)));
        sync_rate.push(median(&steady_rates(spec.sync_settle_windows, &sync)));
        let step_ms = Samples::new(steady_step_ms(spec, &eager));
        p50.push(step_ms.median());
        p95.push(step_ms.q(0.95));
        step_samples.push(step_ms.n() as f64);
        if !tail_supported(step_ms.n(), 0.95) {
            problems.push(format!(
                "launch {i}: only {} step samples: p95 unsupported",
                step_ms.n()
            ));
        }
        let (p, f) = check_outputs(spec, &l.ranks);
        problems.extend(p.into_iter().map(|p| format!("launch {i}: {p}")));
        failed += f;
        attempted += eager.iter().chain(&sync).map(|p| p.steps).sum::<u64>();
        timed_s += eager[0].wall_s + sync[0].wall_s;
    }
    // Rank threads share this process; TCP ranks are processes of their
    // own, and the largest launch is the one that counts.
    let worker_rss_kib = measured
        .iter()
        .map(|l| l.ranks.iter().map(|r| r.rss_kib).sum::<u64>())
        .max()
        .unwrap_or(0);

    let mut report = Report::new(spec.name, seed, &END_TO_END);
    report.problems = problems;
    report.attempted = attempted;
    report.failed = failed;
    report.set("steps_per_s", median(&eager_rate));
    report.set("sync_steps_per_s", median(&sync_rate));
    report.set("step_ms_p50", median(&p50));
    report.set("step_ms_p95", median(&p95));
    report.set(
        "peak_rss_mib",
        (rss_hwm_kib() + worker_rss_kib) as f64 / 1024.0,
    );
    report.set("setup_s", median(&setups));
    let spread = |v: &[f64]| {
        let s = Samples::new(v.to_vec());
        (s.q(1.0) - s.q(0.0)) / s.median()
    };
    report.note("steps_per_s_launch_spread", spread(&eager_rate));
    report.note("sync_steps_per_s_launch_spread", spread(&sync_rate));
    report.note("step_samples_per_launch", median(&step_samples));
    report.note("eager_windows_per_launch", plan.eager_windows as f64);
    report.note("sync_windows_per_launch", plan.sync_windows as f64);
    report.note("timed_s", timed_s);
    report.note("host_speed", speed);
    Some(report)
}
