//! Minimal CLI argument handling shared by the harness binaries (no
//! external parser dependency).

use pcoll_comm::{TcpOpts, Transport};

/// Which communication backend a harness run uses (`--transport`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportChoice {
    /// Ranks as threads in this process (the default).
    #[default]
    InProcess,
    /// One OS process per rank over loopback TCP.
    Tcp,
}

impl TransportChoice {
    /// The `--transport` spelling, also the prefix of sweep-point labels.
    pub fn name(self) -> &'static str {
        match self {
            TransportChoice::InProcess => "inproc",
            TransportChoice::Tcp => "tcp",
        }
    }

    /// Materialize the [`Transport`] for the launch site named `label`
    /// (labels disambiguate multiple launches in one binary; see
    /// `pcoll_comm::transport`).
    pub fn labeled(self, label: &str) -> Transport {
        match self {
            TransportChoice::InProcess => Transport::InProcess,
            TransportChoice::Tcp => Transport::Tcp(TcpOpts::labeled(label)),
        }
    }
}

/// Common harness options.
///
/// `--seed` threads through every source of randomness a harness owns
/// (world seed, model init, injector protocols, consensus draws), so two
/// same-seed runs execute the identical protocol. Timing-derived metrics
/// (rounds/sec, freshness) still carry scheduler noise — CI pins the seed
/// to remove the protocol variance, and every timing check is a ratio
/// between variants of the same run.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Shrink the run for smoke testing.
    pub quick: bool,
    /// Wall-clock milliseconds per paper millisecond of injected delay.
    pub time_scale: f64,
    /// Base seed.
    pub seed: u64,
    /// Free-form part selector (e.g. `--part a` for fig11).
    pub part: Option<String>,
    /// Communication backend (`--transport inproc|tcp`).
    pub transport: TransportChoice,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            quick: false,
            time_scale: 0.1,
            seed: 42,
            part: None,
            transport: TransportChoice::InProcess,
        }
    }
}

impl HarnessArgs {
    /// Parse from `std::env::args()`. Unknown flags abort with usage.
    pub fn parse() -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Self::parse_from(&argv)
    }

    /// Parse from an explicit argument list (testable core of
    /// [`HarnessArgs::parse`]).
    pub fn parse_from(argv: &[String]) -> Self {
        let (out, positionals) = Self::parse_with_positionals(argv);
        if let Some(other) = positionals.first() {
            usage(&format!("unknown flag {other}"));
        }
        out
    }

    /// [`HarnessArgs::parse_from`] for a binary that also takes
    /// positional arguments (`repro`'s figure names): every argument that
    /// is neither a flag nor a flag's value comes back in order.
    pub fn parse_with_positionals(argv: &[String]) -> (Self, Vec<String>) {
        let mut out = HarnessArgs::default();
        let mut positionals = Vec::new();
        let mut rest = argv.iter();
        while let Some(arg) = rest.next() {
            match arg.as_str() {
                "--quick" => out.quick = true,
                "--time-scale" => out.time_scale = value(&mut rest, "--time-scale needs a float"),
                "--seed" => out.seed = value(&mut rest, "--seed needs an integer"),
                "--part" => out.part = Some(value(&mut rest, "--part needs a value")),
                "--transport" => {
                    let name: String = value(&mut rest, "--transport needs inproc|tcp");
                    out.transport = match name.as_str() {
                        "inproc" | "in-process" | "thread" => TransportChoice::InProcess,
                        "tcp" => TransportChoice::Tcp,
                        _ => usage("--transport needs inproc|tcp"),
                    };
                }
                "--help" | "-h" => {
                    eprintln!("{OPTIONS}");
                    std::process::exit(0);
                }
                other if other.starts_with('-') => usage(&format!("unknown flag {other}")),
                other => positionals.push(other.to_string()),
            }
        }
        (out, positionals)
    }

    /// The chosen [`Transport`] for the launch site named `label`.
    pub fn transport(&self, label: &str) -> Transport {
        self.transport.labeled(label)
    }
}

const OPTIONS: &str =
    "options: [--quick] [--time-scale X] [--seed N] [--part a|b|c] [--transport inproc|tcp]";

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}\n{OPTIONS}");
    std::process::exit(2);
}

/// The next argument parsed as a flag's value, or the usage error `needs`.
fn value<T: std::str::FromStr>(rest: &mut std::slice::Iter<'_, String>, needs: &str) -> T {
    let parsed = rest.next().and_then(|s| s.parse().ok());
    parsed.unwrap_or_else(|| usage(needs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn defaults_are_sane() {
        let a = HarnessArgs::default();
        assert!(!a.quick);
        assert_eq!(a.time_scale, 0.1);
        assert_eq!(a.seed, 42);
        assert!(a.part.is_none());
        assert_eq!(a.transport, TransportChoice::InProcess);
    }

    #[test]
    fn parses_all_flags() {
        let a = HarnessArgs::parse_from(&argv(&[
            "--quick",
            "--time-scale",
            "0.5",
            "--seed",
            "7",
            "--part",
            "a",
            "--transport",
            "tcp",
        ]));
        assert!(a.quick);
        assert_eq!(a.time_scale, 0.5);
        assert_eq!(a.seed, 7);
        assert_eq!(a.part.as_deref(), Some("a"));
        assert_eq!(a.transport, TransportChoice::Tcp);
    }

    #[test]
    fn empty_args_give_defaults() {
        let a = HarnessArgs::parse_from(&[]);
        assert_eq!(a.time_scale, HarnessArgs::default().time_scale);
    }

    #[test]
    fn flag_order_is_irrelevant() {
        let a = HarnessArgs::parse_from(&argv(&["--seed", "9", "--quick"]));
        let b = HarnessArgs::parse_from(&argv(&["--quick", "--seed", "9"]));
        assert_eq!(a.quick, b.quick);
        assert_eq!(a.seed, b.seed);
    }

    #[test]
    fn transport_maps_to_labeled_backend() {
        let a = HarnessArgs::parse_from(&argv(&["--transport", "tcp"]));
        match a.transport("smoke") {
            Transport::Tcp(opts) => assert_eq!(opts.label, "smoke"),
            other => panic!("unexpected {other:?}"),
        }
        let b = HarnessArgs::parse_from(&[]);
        assert!(matches!(b.transport("x"), Transport::InProcess));
    }
}
