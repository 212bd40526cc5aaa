//! Minimal CLI argument handling shared by the harness binaries (no
//! external parser dependency).

use pcoll_comm::{TcpOpts, Transport};

/// A wall-clock communication backend, for the harnesses that sweep both
/// (`comm_micro`, `coll_micro`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportChoice {
    /// Ranks as threads in this process.
    InProcess,
    /// One OS process per rank over loopback TCP.
    Tcp,
}

impl TransportChoice {
    /// The backend's short name, the prefix of sweep-point labels.
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
/// same-seed runs execute the identical protocol. What runs on virtual
/// time (every training figure, `fig9`, the simulator binaries) is then a
/// pure function of the seed, timings included; what launches real ranks
/// (`comm_micro`, `coll_micro`, the TCP runs) still carries scheduler
/// noise, and its timing checks are ratios between variants of one run.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Shrink the run for smoke testing.
    pub quick: bool,
    /// Base seed.
    pub seed: u64,
    /// Free-form part selector (e.g. `--part a` for fig11).
    pub part: Option<String>,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            quick: false,
            seed: 42,
            part: None,
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
                "--seed" => out.seed = value(&mut rest, "--seed needs an integer"),
                "--part" => out.part = Some(value(&mut rest, "--part needs a value")),
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
}

const OPTIONS: &str = "options: [--quick] [--seed N] [--part a|b|c]";

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
        assert_eq!(a.seed, 42);
        assert!(a.part.is_none());
    }

    #[test]
    fn parses_all_flags() {
        let a = HarnessArgs::parse_from(&argv(&["--quick", "--seed", "7", "--part", "a"]));
        assert!(a.quick);
        assert_eq!(a.seed, 7);
        assert_eq!(a.part.as_deref(), Some("a"));
    }

    #[test]
    fn empty_args_give_defaults() {
        let a = HarnessArgs::parse_from(&[]);
        assert_eq!(a.seed, HarnessArgs::default().seed);
    }

    #[test]
    fn flag_order_is_irrelevant() {
        let a = HarnessArgs::parse_from(&argv(&["--seed", "9", "--quick"]));
        let b = HarnessArgs::parse_from(&argv(&["--quick", "--seed", "9"]));
        assert_eq!(a.quick, b.quick);
        assert_eq!(a.seed, b.seed);
    }
}
