//! The figure suite behind the one `repro` binary: a static table of the
//! paper's figures (README "Running experiments" is the index), each a
//! function that prints its series and tallies its shape checks.

mod dist;
mod micro;
mod theory;
mod train;

use crate::report::Checks;
use crate::HarnessArgs;

/// One reproducible figure or table of the paper.
pub struct Figure {
    pub name: &'static str,
    /// The paper's claim this figure reproduces, in one line.
    pub claim: &'static str,
    run: fn(&HarnessArgs, &mut Checks),
}

/// Every figure `repro` knows, in the order `repro all` runs them.
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "fig2a",
        claim: "UCF101 video lengths: 29-1776 frames, median 167, right-skewed",
        run: |args, c| dist::run(&dist::FIG2A, args, c),
    },
    Figure {
        name: "fig2b",
        claim: "LSTM batch runtimes on UCF101 span 201-3410 ms (inherent imbalance)",
        run: |args, c| dist::run(&dist::FIG2B, args, c),
    },
    Figure {
        name: "fig3",
        claim: "Transformer batch runtimes on WMT16: 179-3482 ms, mean 475, std 144",
        run: |args, c| dist::run(&dist::FIG3, args, c),
    },
    Figure {
        name: "fig4",
        claim: "ResNet-50 batch runtimes on a cloud instance: 399-1892 ms, mean 454, std 116",
        run: |args, c| dist::run(&dist::FIG4, args, c),
    },
    Figure {
        name: "fig9",
        claim:
            "under linear skew solo allreduce cuts latency ~53x, majority ~2.5x; NAP ~1 and ~P/2",
        run: micro::fig9,
    },
    Figure {
        name: "fig10",
        claim:
            "hyperplane regression: eager-SGD (solo) 1.50x/1.75x/2.01x over synch-SGD at equal loss",
        run: train::fig10,
    },
    Figure {
        name: "fig11",
        claim:
            "ResNet-50 proxy, light imbalance: eager-solo 1.25x over Deep500 within ~0.6% accuracy",
        run: train::fig11,
    },
    Figure {
        name: "fig12",
        claim: "severe skew: solo is fastest but loses accuracy, majority matches sync at 1.29x",
        run: train::fig12,
    },
    Figure {
        name: "fig13",
        claim: "LSTM video, inherent imbalance: solo 1.64x at 60.6% top-1, majority 1.27x at 69.7%",
        run: train::fig13,
    },
    Figure {
        name: "table1",
        claim: "the four evaluation networks and their parameter counts",
        run: theory::table1,
    },
    Figure {
        name: "ablate_activation",
        claim: "§6.2.2: skew raises the solo initiator's activation overhead",
        run: micro::ablate_activation,
    },
    Figure {
        name: "ablate_quorum",
        claim: "§8: larger quorums are slower but fresher across solo..majority..full",
        run: train::ablate_quorum,
    },
    Figure {
        name: "ablate_stale",
        claim: "Fig. 7: accumulating vs replacing the stale gradient, both converge",
        run: train::ablate_stale,
    },
    Figure {
        name: "theory_sweep",
        claim: "Theorem 5.2: every quorum and staleness bound converges, full quorum fastest",
        run: theory::theory_sweep,
    },
];

/// Resolve `names` (`all` = the whole table) against [`FIGURES`]; `Err`
/// is the usage text for a missing or unknown name.
pub fn select(names: &[String]) -> Result<Vec<&'static Figure>, String> {
    let mut picked = Vec::new();
    let mut usage = String::new();
    for name in names {
        match FIGURES.iter().find(|f| f.name == name) {
            Some(figure) => picked.push(figure),
            None if name == "all" => picked.extend(FIGURES),
            None => usage = format!("error: unknown figure `{name}`\n"),
        }
    }
    if usage.is_empty() && !picked.is_empty() {
        return Ok(picked);
    }
    usage += "usage: repro [--quick] [--seed N] [--time-scale X] <figure>... | all\n";
    for f in FIGURES {
        usage += &format!("  {:<18}{}\n", f.name, f.claim);
    }
    Err(usage)
}

/// The `repro` binary: run the named figures in order; exit code 0 when
/// every shape check passed, 1 when one failed, 2 on a usage error.
pub fn main(argv: &[String]) -> i32 {
    let (args, names) = HarnessArgs::parse_with_positionals(argv);
    let figures = match select(&names) {
        Ok(figures) => figures,
        Err(usage) => {
            eprint!("{usage}");
            return 2;
        }
    };
    let mut checks = Checks::new(args.quick);
    for f in figures {
        eprintln!("== repro {}", f.name);
        (f.run)(&args, &mut checks);
    }
    checks.exit_code()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_names_are_unique() {
        let mut names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FIGURES.len(), "duplicate figure name");
    }

    #[test]
    fn unknown_or_missing_figure_is_a_usage_error_listing_the_known_ones() {
        for argv in [vec![], vec!["--quick".to_string(), "fig99".to_string()]] {
            assert_eq!(main(&argv), 2, "{argv:?}");
        }
        let usage = select(&["fig99".to_string()]).err().expect("unknown");
        assert!(usage.contains("unknown figure `fig99`"));
        assert!(FIGURES.iter().all(|f| usage.contains(f.name)));
        let all = select(&["all".to_string()]).expect("all resolves");
        assert_eq!(all.len(), FIGURES.len());
    }
}
