//! The traced run (`--trace 1`): one number per layer, and beside it the
//! ceiling it could reach.
//!
//! Three parts, as the README lays out: (a) `run_rank` behind the timing
//! decorators, next to an untraced eager run, the synchronous baseline
//! and a single-rank run of the same task; (b) the benchmark's own
//! partial-allreduce loops, the hand-written ring and raw point-to-point
//! messages; (c) the host's and the reduce kernels' ceilings.

use crate::ceilings;
use crate::coll::{self, CollOut, CollPlan};
use crate::comm::{self, CommPlan};
use crate::e2e::{
    check_outputs, host_speed, loss_at_common_window, phases, steady_rates, windows_for,
};
use crate::report::{MetricDef, Report};
use crate::spans::{self, Kind, Span};
use crate::spec::Spec;
use crate::stats::{median, ns_to_ms, Samples};
use crate::train::{launch, PhaseOut, Plan, RunInputs};
use dnn::Model;
use pcoll::{AlgoSelector, AllreduceAlgo};
use serde::json::Value;
use std::time::{Duration, Instant};

/// Shares of `--seconds` the timed parts get. What is left goes to the
/// ceilings, the conservation rounds and the point-to-point messages,
/// which run fixed amounts of work.
const UNTRACED_SHARE: f64 = 0.20;
const SYNC_SHARE: f64 = 0.15;
const TRACED_SHARE: f64 = 0.25;
const SINGLE_RANK_SHARE: f64 = 0.04;
const COLL_LOOP_SHARE: f64 = 0.05;
const KERNEL_SHARE: f64 = 0.03;

/// The per-layer metrics; the part of a name before the dot is the crate
/// the number belongs to.
pub const PER_LAYER: [MetricDef; 48] = [
    ("eager_sgd.reduce_call_ms_p50", "ms"),
    ("eager_sgd.reduce_share", "share"),
    ("eager_sgd.glue_ms_p50", "ms"),
    ("eager_sgd.copy_overhead_ms", "ms"),
    ("eager_sgd.step_ms_p99", "ms"),
    ("eager_sgd.fresh_fraction", "share"),
    ("eager_sgd.missed_rounds", "1/kstep"),
    ("eager_sgd.test_loss", "loss"),
    ("eager_sgd.test_loss_ratio_vs_sync", "ratio"),
    ("eager_sgd.speedup_vs_sync", "ratio"),
    ("eager_sgd.single_rank_step_ms", "ms"),
    ("dnn.grad_step_ms_p50", "ms"),
    ("dnn.write_grads_ms_p50", "ms"),
    ("dnn.opt_apply_ms_p50", "ms"),
    ("dnn.compute_share", "share"),
    ("datagen.sample_ms_p50", "ms"),
    ("imbalance.injected_ms_mean", "ms"),
    ("imbalance.sleep_share", "share"),
    ("pcoll.call_ms_p50", "ms"),
    ("pcoll.call_ms_p95", "ms"),
    ("pcoll.round_latency_ms_p50", "ms"),
    ("pcoll.nap_mean", "ranks"),
    ("pcoll.external_share", "share"),
    ("pcoll.quorum_overhead_ms", "ms"),
    ("pcoll.seg_selected", "count"),
    ("pcoll.mass_error", "ratio"),
    ("pcoll_sched.engine_goodput_mbps", "MB/s"),
    ("pcoll_sched.direct_ring_goodput_mbps", "MB/s"),
    ("pcoll_sched.pct_of_direct_ring", "%"),
    ("pcoll_comm.bytes_per_round", "B"),
    ("pcoll_comm.sends_per_round", "count"),
    ("pcoll_comm.wire_efficiency", "ratio"),
    ("pcoll_comm.send_stalls_per_round", "count"),
    ("pcoll_comm.stall_ms_per_round", "ms"),
    ("pcoll_comm.dropped", "count"),
    ("pcoll_comm.reduce_gbps", "GB/s"),
    ("pcoll_comm.reduce_wire_gbps", "GB/s"),
    ("pcoll_comm.fused_reduce_gbps", "GB/s"),
    ("pcoll_comm.reduce_pct_of_triad", "%"),
    ("pcoll_comm.msg_oneway_us_p50", "us"),
    ("pcoll_comm.msgs_per_s", "1/s"),
    ("pcoll_comm.bulk_gbps", "GB/s"),
    ("pcoll_comm.bulk_pct_of_socket", "%"),
    ("host.triad_gbps", "GB/s"),
    ("host.memcpy_gbps", "GB/s"),
    ("host.socket_bulk_gbps", "GB/s"),
    ("host.socket_pingpong_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Spans kept per track in the Chrome-trace dump (the most recent ones).
const DUMP_SPANS_PER_TRACK: usize = 4000;

/// Durations in ms of one kind of span.
fn durations_ms(spans: &[Span], kind: Kind) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Per-rank span trees of the traced phase, steady windows only (parent
/// indices re-based to the kept slice).
fn steady_trees(spec: &Spec, traced: &[&PhaseOut]) -> Vec<Vec<Span>> {
    let first_steady = (spec.settle_windows * spec.window_steps) as u64;
    traced
        .iter()
        .map(|p| {
            let all = spans::decode(&p.spans);
            let start = all
                .iter()
                .position(|s| s.step >= first_steady)
                .unwrap_or(all.len());
            all[start..]
                .iter()
                .map(|s| Span {
                    parent: s.parent.map(|i| i - start),
                    ..*s
                })
                .collect()
        })
        .collect()
}

/// What the span trees say about where a step goes.
struct StepBudget {
    step_ms: Samples,
    glue_ms: Samples,
    reduce_ms: Samples,
    grad_ms: Samples,
    write_grads_ms: Samples,
    opt_apply_ms: Samples,
    sample_ms: Samples,
    reduce_share: f64,
    compute_share: f64,
    sleep_share: f64,
    /// Sum of all self times over the sum of step times.
    self_time_ratio: f64,
}

fn step_budget(trees: &[Vec<Span>]) -> StepBudget {
    let mut glue = Vec::new();
    let mut opt_apply = Vec::new();
    let mut total = [0u64; Kind::ALL.len()];
    let mut self_sum = 0u64;
    for tree in trees {
        let own = spans::self_times_ns(tree);
        self_sum += own.iter().sum::<u64>();
        for (i, s) in tree.iter().enumerate() {
            total[s.kind as usize] += s.dur_ns();
            match s.kind {
                Kind::Step => glue.push(own[i] as f64 / 1e6),
                // `opt.delta` and `apply_delta` follow each other; the
                // update is their sum.
                Kind::OptDelta => opt_apply.push(s.dur_ns() as f64 / 1e6),
                Kind::ApplyDelta => {
                    if let Some(last) = opt_apply.last_mut() {
                        *last += s.dur_ns() as f64 / 1e6;
                    }
                }
                _ => {}
            }
        }
    }
    let of = |kind: Kind| total[kind as usize] as f64;
    let steps = of(Kind::Step);
    let pooled =
        |kind: Kind| Samples::new(trees.iter().flat_map(|t| durations_ms(t, kind)).collect());
    StepBudget {
        step_ms: pooled(Kind::Step),
        glue_ms: Samples::new(glue),
        reduce_ms: pooled(Kind::ReduceCall),
        grad_ms: pooled(Kind::GradStep),
        write_grads_ms: pooled(Kind::WriteGrads),
        opt_apply_ms: Samples::new(opt_apply),
        sample_ms: pooled(Kind::Sample),
        reduce_share: of(Kind::ReduceCall) / steps,
        compute_share: (of(Kind::GradStep)
            + of(Kind::WriteGrads)
            + of(Kind::OptDelta)
            + of(Kind::ApplyDelta))
            / steps,
        sleep_share: of(Kind::Sleep) / steps,
        self_time_ratio: self_sum as f64 / steps,
    }
}

/// Mean over ranks and steps of what the trainer sleeps per step: the
/// balanced compute stand-in plus the injector's delay. Exact.
fn injected_ms_mean(spec: &Spec, steps: u64) -> f64 {
    let injector = spec.injector.clone().with_seed(spec.schedule_seed);
    let total: f64 = (0..steps)
        .map(|s| injector.delays_all(spec.p, s).iter().sum::<f64>())
        .sum();
    spec.base_compute_ms + total / (steps.max(1) * spec.p as u64) as f64
}

fn pooled_ms(outs: &[CollOut], pick: impl Fn(&CollOut) -> &Vec<u64>) -> Samples {
    Samples::new(outs.iter().flat_map(|o| ns_to_ms(pick(o))).collect())
}

/// The last `DUMP_SPANS_PER_TRACK` spans of a track, parents re-based
/// (a parent that fell off the front becomes none).
fn tail_for_dump(spans: &[Span]) -> Vec<Span> {
    let start = spans.len().saturating_sub(DUMP_SPANS_PER_TRACK);
    spans[start..]
        .iter()
        .map(|s| Span {
            parent: s.parent.and_then(|p| p.checked_sub(start)),
            ..*s
        })
        .collect()
}

pub struct Traced {
    pub report: Report,
    /// The host descriptor, ceilings included.
    pub host: Value,
    /// Chrome-trace document of the run's spans.
    pub trace: Value,
}

pub fn run(spec: &Spec, seed: u64, seconds: f64) -> Option<Traced> {
    let epoch = Instant::now();
    let nparams = spec.build_model(seed).num_params();
    let tensor_bytes = nparams * 4;
    let mut problems = Vec::new();

    // (a) The trainer: untraced eager, synchronous, traced eager.
    let inputs = RunInputs::for_run(spec, seed);
    let (speed, _pilot) = host_speed(spec, seed, &inputs)?;
    let eager_rate = spec.eager_ref_rate * speed;
    let plan = Plan {
        seed,
        eager_windows: spec.settle_windows
            + windows_for(spec, seconds * UNTRACED_SHARE, eager_rate),
        sync_windows: spec.sync_settle_windows
            + windows_for(spec, seconds * SYNC_SHARE, spec.sync_ref_rate * speed),
        traced_windows: spec.settle_windows + windows_for(spec, seconds * TRACED_SHARE, eager_rate),
    };
    let trained = launch(spec, plan, "traced", &inputs)?;
    let eager = phases(&trained.ranks, |r| &r.eager);
    let sync = phases(&trained.ranks, |r| &r.sync);
    let traced = phases(&trained.ranks, |r| &r.traced);
    let (p, mut failed) = check_outputs(spec, &trained.ranks);
    problems.extend(p);
    let mut attempted: u64 = [&eager, &sync, &traced]
        .iter()
        .flat_map(|ph| ph.iter().map(|p| p.steps))
        .sum();

    let trees = steady_trees(spec, &traced);
    let budget = step_budget(&trees);
    let self_time_off = (budget.self_time_ratio - 1.0).abs();
    if self_time_off.is_nan() || self_time_off > 0.02 {
        problems.push(format!(
            "span self times sum to {:.4} of step time",
            budget.self_time_ratio
        ));
    }
    let untraced_rate = median(&steady_rates(spec.settle_windows, &eager));
    let traced_rate = median(&steady_rates(spec.settle_windows, &traced));
    let sync_rate = median(&steady_rates(spec.sync_settle_windows, &sync));
    let (eager_loss, sync_loss) =
        loss_at_common_window(eager[0], sync[0]).map_or((f64::NAN, f64::NAN), |(_, e, s)| (e, s));
    let traced_steps: u64 = traced.iter().map(|p| p.steps).sum();

    // The same task on one rank: what a step costs with nobody to talk to.
    let single = {
        let mut one = spec.clone();
        one.p = 1;
        one.tcp = false;
        one.sync_settle_windows = 1;
        // With one rank there is nobody to be late for.
        one.injector = imbalance::Injector::None;
        let plan = Plan {
            seed,
            sync_windows: one.sync_settle_windows
                + windows_for(&one, seconds * SINGLE_RANK_SHARE, eager_rate),
            ..Plan::default()
        };
        launch(&one, plan, "single", &inputs)?
    };
    let single_ms = Samples::new(
        phases(&single.ranks, |r| &r.sync)
            .iter()
            .flat_map(|p| ns_to_ms(&p.step_ns))
            .collect(),
    );

    // (b) The collective, the ring, the transport.
    let step_s = 1.0 / eager_rate;
    let loop_rounds =
        |seconds: f64, per_round_s: f64| (seconds / per_round_s).ceil().max(8.0) as u64;
    let injected =
        !matches!(spec.injector, imbalance::Injector::None) || spec.base_compute_ms > 0.0;
    // Where sleeps dominate the step, the bare round is far shorter.
    let balanced_round_s = if injected { 1e-3 } else { step_s };
    let coll_plan = CollPlan {
        injected_rounds: loop_rounds(seconds * COLL_LOOP_SHARE, step_s),
        majority_rounds: if injected {
            loop_rounds(seconds * COLL_LOOP_SHARE, balanced_round_s)
        } else {
            0
        },
        full_rounds: loop_rounds(seconds * COLL_LOOP_SHARE, balanced_round_s),
    };
    let loops = coll::launch_engine_loops(spec, seed, nparams, coll_plan, "coll", epoch)?;
    let ring = coll::launch_direct_ring(spec, seed, nparams, coll_plan.full_rounds, "ring")?;
    attempted +=
        (coll_plan.injected_rounds + coll_plan.majority_rounds + 2 * coll_plan.full_rounds)
            * spec.p as u64;
    if !loops.iter().all(|o| o.full_exact) {
        problems.push("a Full-quorum result differs from the sum of the contributions".into());
        failed += coll_plan.full_rounds * spec.p as u64;
    }
    if !ring.iter().all(|o| o.exact) {
        problems.push("the direct ring's result differs from the sum of the contributions".into());
        failed += coll_plan.full_rounds * spec.p as u64;
    }
    if loops.iter().any(|o| o.full_digest != ring[0].digest) {
        problems.push("Full-quorum and direct-ring results differ".into());
    }
    let mass_error = loops
        .iter()
        .map(|o| (o.mass_accounted - o.mass_deposited).abs() / o.mass_deposited)
        .fold(0.0, f64::max);
    if mass_error.is_nan() || mass_error > 1e-6 {
        problems.push(format!(
            "Fig. 7 conservation violated: relative error {mass_error}"
        ));
    }

    let call_ms = pooled_ms(&loops, |o| &o.injected_call_ns);
    let majority_ms = if injected {
        pooled_ms(&loops, |o| &o.majority_call_ns)
    } else {
        call_ms.clone()
    };
    let full_ms = pooled_ms(&loops, |o| &o.full_call_ns);
    let latency_ms = Samples::new(
        loops
            .iter()
            .flat_map(|o| o.round_latency_ms.clone())
            .collect(),
    );
    let rounds_seen: u64 = loops.iter().map(|o| o.rounds_seen).sum();
    let fresh: u64 = loops.iter().map(|o| o.fresh).sum();
    let external: u64 = loops.iter().map(|o| o.external).sum();
    let full_rounds = coll_plan.full_rounds as f64;
    let wire_sum =
        |pick: fn(&coll::WireCounts) -> f64| loops.iter().map(|o| pick(&o.full_wire)).sum::<f64>();
    let bytes_per_round = wire_sum(|w| w.bytes_sent as f64) / full_rounds;
    let engine_s = loops.iter().map(|o| o.full_elapsed_s).fold(0.0, f64::max);
    let ring_s = ring.iter().map(|o| o.elapsed_s).fold(0.0, f64::max);
    let engine_mbps = tensor_bytes as f64 * full_rounds / engine_s / 1e6;
    let ring_mbps = tensor_bytes as f64 * full_rounds / ring_s / 1e6;

    let msgs = comm::launch(
        spec,
        seed,
        spec.tcp,
        CommPlan {
            pings: 2000,
            stream: 20_000,
            bulk_msgs: 0,
            bulk_elems: 0,
        },
        "msgs",
    )?;
    let bulk_msgs = ((64 << 20) / tensor_bytes).clamp(8, 4096) as u64;
    let bulk = comm::launch(
        spec,
        seed,
        true,
        CommPlan {
            pings: 0,
            stream: 0,
            bulk_msgs,
            bulk_elems: nparams as u64,
        },
        "bulk",
    )?;
    let bulk_gbps = bulk_msgs as f64 * tensor_bytes as f64 / bulk.bulk_s / 1e9;

    // (c) Ceilings.
    let host = ceilings::host(tensor_bytes);
    let kernels = ceilings::kernels(nparams, Duration::from_secs_f64(seconds * KERNEL_SHARE));

    let mut report = Report::new(spec.name, seed, &PER_LAYER);
    report.problems = problems;
    report.attempted = attempted;
    report.failed = failed;
    let mut m = |name: &str, value: f64| report.set(name, value);
    m("eager_sgd.reduce_call_ms_p50", budget.reduce_ms.median());
    m("eager_sgd.reduce_share", budget.reduce_share);
    m("eager_sgd.glue_ms_p50", budget.glue_ms.median());
    m(
        "eager_sgd.copy_overhead_ms",
        budget.reduce_ms.median() - call_ms.median(),
    );
    m("eager_sgd.step_ms_p99", budget.step_ms.q(0.99));
    m(
        "eager_sgd.fresh_fraction",
        traced.iter().map(|p| p.fresh_rounds).sum::<u64>() as f64 / traced_steps as f64,
    );
    m(
        "eager_sgd.missed_rounds",
        traced.iter().map(|p| p.missed_rounds).sum::<u64>() as f64 * 1e3 / traced_steps as f64,
    );
    m("eager_sgd.test_loss", eager_loss);
    m("eager_sgd.test_loss_ratio_vs_sync", eager_loss / sync_loss);
    m("eager_sgd.speedup_vs_sync", untraced_rate / sync_rate);
    m("eager_sgd.single_rank_step_ms", single_ms.median());
    m("dnn.grad_step_ms_p50", budget.grad_ms.median());
    m("dnn.write_grads_ms_p50", budget.write_grads_ms.median());
    m("dnn.opt_apply_ms_p50", budget.opt_apply_ms.median());
    m("dnn.compute_share", budget.compute_share);
    m("datagen.sample_ms_p50", budget.sample_ms.median());
    m(
        "imbalance.injected_ms_mean",
        injected_ms_mean(spec, traced[0].steps),
    );
    m("imbalance.sleep_share", budget.sleep_share);
    m("pcoll.call_ms_p50", call_ms.median());
    m("pcoll.call_ms_p95", call_ms.q(0.95));
    m("pcoll.round_latency_ms_p50", latency_ms.median());
    m(
        "pcoll.nap_mean",
        fresh as f64 * spec.p as f64 / rounds_seen as f64,
    );
    m("pcoll.external_share", external as f64 / rounds_seen as f64);
    m(
        "pcoll.quorum_overhead_ms",
        majority_ms.median() - full_ms.median(),
    );
    m(
        "pcoll.seg_selected",
        f64::from(
            AlgoSelector::default().choose(tensor_bytes, spec.p) == AllreduceAlgo::SegmentedRing,
        ),
    );
    m("pcoll.mass_error", mass_error);
    m("pcoll_sched.engine_goodput_mbps", engine_mbps);
    m("pcoll_sched.direct_ring_goodput_mbps", ring_mbps);
    m(
        "pcoll_sched.pct_of_direct_ring",
        100.0 * engine_mbps / ring_mbps,
    );
    m("pcoll_comm.bytes_per_round", bytes_per_round);
    m(
        "pcoll_comm.sends_per_round",
        wire_sum(|w| w.sends as f64) / full_rounds,
    );
    m(
        "pcoll_comm.wire_efficiency",
        2.0 * (spec.p - 1) as f64 * tensor_bytes as f64 / bytes_per_round,
    );
    m(
        "pcoll_comm.send_stalls_per_round",
        wire_sum(|w| w.send_stalls as f64) / full_rounds,
    );
    m(
        "pcoll_comm.stall_ms_per_round",
        wire_sum(|w| w.stall_ms) / full_rounds,
    );
    m("pcoll_comm.dropped", wire_sum(|w| w.dropped as f64));
    m("pcoll_comm.reduce_gbps", kernels.reduce_gbps);
    m("pcoll_comm.reduce_wire_gbps", kernels.reduce_wire_gbps);
    m("pcoll_comm.fused_reduce_gbps", kernels.fused_reduce_gbps);
    m(
        "pcoll_comm.reduce_pct_of_triad",
        100.0 * kernels.reduce_gbps / host.triad_gbps,
    );
    m(
        "pcoll_comm.msg_oneway_us_p50",
        Samples::new(ns_to_ms(&msgs.rtt_ns)).median() * 1e3 / 2.0,
    );
    m("pcoll_comm.msgs_per_s", 20_000.0 / msgs.stream_s);
    m("pcoll_comm.bulk_gbps", bulk_gbps);
    m(
        "pcoll_comm.bulk_pct_of_socket",
        100.0 * bulk_gbps / host.socket_bulk_gbps,
    );
    m("host.triad_gbps", host.triad_gbps);
    m("host.memcpy_gbps", host.memcpy_gbps);
    m("host.socket_bulk_gbps", host.socket_bulk_gbps);
    m("host.socket_pingpong_us", host.socket_pingpong_us);
    m(
        "trace.overhead_pct",
        100.0 * (untraced_rate - traced_rate) / untraced_rate,
    );
    report.note("traced_step_samples", budget.step_ms.n() as f64);
    report.note("pcoll_call_samples", call_ms.n() as f64);
    report.note("round_latency_samples", latency_ms.n() as f64);
    report.note("single_rank_step_samples", single_ms.n() as f64);
    report.note("span_self_time_ratio", budget.self_time_ratio);
    report.note("host_speed", speed);
    report.note("host.llc_mib", host.llc_mib);
    report.note("host.triad_array_mib", host.array_mib);
    report.note("tensor_bytes", tensor_bytes as f64);

    // The span dump: one track per rank for the step trees, one for the
    // rounds its engine reported.
    let mut tracks: Vec<(String, Vec<Span>)> = Vec::new();
    for (rank, tree) in trees.iter().enumerate() {
        tracks.push((format!("rank {rank} steps"), tail_for_dump(tree)));
    }
    for (rank, o) in loops.iter().enumerate() {
        tracks.push((
            format!("rank {rank} rounds"),
            tail_for_dump(&spans::decode(&o.round_spans)),
        ));
    }
    let host = crate::host::descriptor(seed, Some(&host));
    let trace = spans::chrome_trace(&tracks, host.clone());
    Some(Traced {
        report,
        host,
        trace,
    })
}
