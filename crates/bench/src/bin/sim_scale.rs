//! `sim_scale`: the planet-scale deterministic simulation backend at
//! work. One process, one thread, virtual time — P = 1,024 engines run
//! the same collective code as the in-process and TCP transports, driven
//! event by event from the discrete-event scheduler.
//!
//! Two parts (select with `--part nap|det`, default both):
//!
//! - **nap** — E\[NAP\] validation: open-loop linear skew at P = 1,024,
//!   every quorum policy on the paper's spectrum
//!   (solo / first-of-m / majority / chain-m / full); the measured mean
//!   NAP must land within 5% of [`eager_sgd::NapModel`]'s closed form
//!   (§4: solo ≈ 1, first-of-m ≈ P/(m+1), majority = P/2,
//!   chain-m ≈ P·m/(m+1), full = P). The stochastic arms are averaged
//!   over enough rounds for the 5% band (enforced in full mode only;
//!   `--quick` enforces the deterministic solo/full endpoints).
//! - **det** — bit-exact determinism: a WAN-topology, jittery-network,
//!   self-paced run executed twice from the same seed must produce
//!   byte-identical traces ([`pcoll::SimReport::digest`]).
//!
//! Full mode processes millions of simulated events; a final check
//! asserts the volume so the "planet-scale" claim stays honest.

use eager_sgd::NapModel;
use pcoll::{Hiccup, QuorumPolicy, SimHarness, SimSpec};
use pcoll_comm::WorldConfig;
use repro_bench::report::{comment, row, Checks};
use repro_bench::wan::wan_spec;
use repro_bench::HarnessArgs;
use std::time::Duration;

/// Per-rank skew unit of the open-loop NAP experiment.
const SKEW_UNIT: Duration = Duration::from_micros(50);

/// The spectrum subset the NAP validation sweeps: the paper's five
/// policy shapes, with representative `m` for the parametric ones.
const NAP_ARMS: [QuorumPolicy; 5] = [
    QuorumPolicy::Solo,
    QuorumPolicy::FirstOf(4),
    QuorumPolicy::Majority,
    QuorumPolicy::Chain(4),
    QuorumPolicy::Full,
];

/// Rounds needed for the measured mean to sit inside the 5% band: the
/// deterministic endpoints need almost none; the random-initiator arms
/// have per-round NAP std of order P, so the sample mean needs hundreds
/// of rounds.
fn nap_rounds(policy: QuorumPolicy, quick: bool) -> u64 {
    let r = match policy {
        QuorumPolicy::Solo | QuorumPolicy::Full => 16,
        // Majority's per-round NAP is uniform over 1..=P (std P/sqrt(12),
        // the widest of the spectrum) — it needs the biggest sample.
        QuorumPolicy::Majority => 1024,
        QuorumPolicy::FirstOf(_) | QuorumPolicy::Chain(_) => 448,
    };
    if quick {
        (r / 16).max(4)
    } else {
        r
    }
}

fn run_nap_part(args: &HarnessArgs, p: usize, c: &mut Checks, events_total: &mut u64) {
    comment(&format!(
        "part nap: P={p}, linear skew {}us/rank, open-loop pacing, instant network",
        SKEW_UNIT.as_micros()
    ));
    // The model sees the injector's exact offsets; comm/base costs are
    // irrelevant to E[NAP] (they shift round time, not arrival order).
    let offsets_ms: Vec<f64> = (0..p).map(|r| r as f64 * 0.05).collect();
    let model = NapModel::new(offsets_ms, 0.0, 0.0);

    row(&[
        "policy",
        "rounds",
        "measured_nap",
        "predicted_nap",
        "rel_err",
        "events",
        "virtual_s",
    ]);
    for policy in NAP_ARMS {
        let rounds = nap_rounds(policy, args.quick);
        let mut spec = SimSpec::linear_skew(p, rounds, SKEW_UNIT, policy);
        spec.world = WorldConfig::instant(p).with_seed(args.seed);
        let report = SimHarness::run(spec);
        *events_total += report.events;
        let predicted = model.predict(policy).e_nap;
        let rel_err = (report.mean_nap - predicted).abs() / predicted;
        row(&[
            policy.to_string(),
            rounds.to_string(),
            format!("{:.2}", report.mean_nap),
            format!("{predicted:.2}"),
            format!("{:.1}%", 100.0 * rel_err),
            report.events.to_string(),
            format!("{:.2}", report.virtual_time.as_secs_f64()),
        ]);
        // Quick mode runs too few rounds for the stochastic arms' sample
        // means to settle; enforce only the deterministic endpoints.
        let deterministic = matches!(policy, QuorumPolicy::Solo | QuorumPolicy::Full);
        if !args.quick || deterministic {
            c.check(
                &format!("nap-within-5pct-{policy}"),
                rel_err <= 0.05,
                &format!(
                    "measured {:.2} vs closed form {predicted:.2} ({:.1}%)",
                    report.mean_nap,
                    100.0 * rel_err
                ),
            );
        }
    }
}

fn run_det_part(args: &HarnessArgs, c: &mut Checks, events_total: &mut u64) {
    let p = 64;
    let rounds = if args.quick { 16 } else { 48 };
    comment(&format!(
        "part det: P={p}, 4-region WAN, cloud network (jitter), self-paced, {rounds} rounds x2"
    ));
    let hic = Hiccup {
        k: 8,
        extra: Duration::from_millis(120),
    };
    let run = |seed| SimHarness::run(wan_spec(p, rounds, seed, QuorumPolicy::Majority, 40, hic));
    let (a, b, other_seed) = (run(args.seed), run(args.seed), run(args.seed ^ 1));
    *events_total += a.events + b.events + other_seed.events;
    comment(&format!(
        "run A: digest {:016x}, {} events, {} deliveries, {:.2} virtual s, mean NAP {:.2}",
        a.digest(),
        a.events,
        a.delivered,
        a.virtual_time.as_secs_f64(),
        a.mean_nap
    ));
    c.check(
        "repeat-runs-bit-identical",
        a.digest() == b.digest() && a.events == b.events && a.virtual_time == b.virtual_time,
        &format!("digests {:016x} vs {:016x}", a.digest(), b.digest()),
    );
    c.check(
        "different-seed-different-trace",
        a.digest() != other_seed.digest(),
        &format!(
            "digests {:016x} vs {:016x}",
            a.digest(),
            other_seed.digest()
        ),
    );
}

fn main() {
    let args = HarnessArgs::parse();
    let part = args.part.clone().unwrap_or_else(|| "all".into());
    let p = 1024;
    comment(&format!(
        "sim_scale: discrete-event simulation backend, virtual time, single process \
         (quick={}, seed={})",
        args.quick, args.seed
    ));

    let mut c = Checks::new(args.quick);
    let mut events_total = 0u64;
    if part == "all" || part.contains("nap") {
        run_nap_part(&args, p, &mut c, &mut events_total);
    }
    if part == "all" || part.contains("det") {
        run_det_part(&args, &mut c, &mut events_total);
    }

    comment(&format!("total simulated events: {events_total}"));
    if !args.quick && part == "all" {
        c.check(
            "millions-of-events",
            events_total >= 2_000_000,
            &format!("{events_total} events"),
        );
    }

    std::process::exit(c.exit_code());
}
