//! Shared helpers for the NEOFog benchmark/figure binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper's evaluation; `cargo bench` runs the Criterion micro-benches.
//! The full-scale figure binaries should be run with `--release`.
//!
//! All binaries share one flag vocabulary, parsed by [`BenchArgs`]:
//!
//! * `--events <path>` — stream a JSONL event log of one
//!   representative run to `<path>`.
//! * `--seed <u64>` — override the binary's default base seed.
//! * `--slots <u64>` — override the simulated slot count.
//! * `--chains <n>` — fleet size for the fleet binaries.
//! * `--workers <n>` — worker threads for the simulation pool
//!   (default: every available core).
//! * `--help` — print the flag reference and exit.
//!
//! Unknown flags are an error, not a silent no-op: a typo like
//! `--seeds` aborts the run instead of regenerating the figure with
//! the default seed.

use neofog_core::PoolConfig;

/// Prints the standard header for a figure/table binary.
pub fn banner(what: &str, paper_says: &str) {
    println!("================================================================");
    println!("NEOFog reproduction — {what}");
    println!("Paper reference: {paper_says}");
    println!("================================================================");
}

/// The `--help` text every figure/bench binary shares.
pub const USAGE: &str = "\
Shared flags (every NEOFog figure/bench binary):
  --events <path>   stream a JSONL event log of one representative run
  --seed <u64>      override the binary's default base seed
  --slots <u64>     override the simulated slot count
  --chains <n>      fleet size for the fleet binaries
  --workers <n>     worker threads for the simulation pool
                    (default: all cores)
  --help            print this reference and exit";

/// The flags shared by every figure/bench binary.
///
/// Every field is `None` when the flag was absent, so each binary can
/// apply its own paper default (e.g. Figure 9 seeds at 1, the ablation
/// at 2) with `args.seed.unwrap_or(...)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BenchArgs {
    /// `--events <path>`: JSONL event-log destination.
    pub events: Option<String>,
    /// `--seed <u64>`: base RNG seed.
    pub seed: Option<u64>,
    /// `--slots <u64>`: simulated slot count.
    pub slots: Option<u64>,
    /// `--chains <n>`: fleet chain count.
    pub chains: Option<usize>,
    /// `--workers <n>`: simulation pool worker threads.
    pub workers: Option<usize>,
    /// `--help`: print [`USAGE`] and exit (handled by
    /// [`BenchArgs::parse_or_exit`]).
    pub help: bool,
}

impl BenchArgs {
    /// Parses the shared flag set from an argument iterator (without
    /// the program name).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when a flag is unknown, is
    /// missing its value, or has a value that does not parse.
    pub fn parse<I>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = String>,
    {
        fn value(args: &mut dyn Iterator<Item = String>, flag: &str) -> Result<String, String> {
            args.next().ok_or_else(|| format!("{flag} needs a value"))
        }
        fn number<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T, String> {
            raw.parse()
                .map_err(|_| format!("{flag} needs a non-negative integer, got {raw:?}"))
        }
        let mut out = BenchArgs::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--events" => out.events = Some(value(&mut args, &flag)?),
                "--seed" => out.seed = Some(number(&value(&mut args, &flag)?, &flag)?),
                "--slots" => out.slots = Some(number(&value(&mut args, &flag)?, &flag)?),
                "--chains" => out.chains = Some(number(&value(&mut args, &flag)?, &flag)?),
                "--workers" => out.workers = Some(number(&value(&mut args, &flag)?, &flag)?),
                "--help" | "-h" => out.help = true,
                other => {
                    return Err(format!(
                        "unknown flag {other:?} (expected --events, --seed, --slots, \
                         --chains, --workers or --help)"
                    ))
                }
            }
        }
        Ok(out)
    }

    /// Parses the process arguments, printing the error and exiting
    /// with status 2 when they do not conform; `--help` prints
    /// [`USAGE`] and exits 0.
    #[must_use]
    pub fn parse_or_exit() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(args) if args.help => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            Ok(args) => args,
            Err(message) => {
                eprintln!("error: {message}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// The simulation pool this invocation asked for: `--workers n`
    /// when given, otherwise every available core.
    #[must_use]
    pub fn pool(&self) -> PoolConfig {
        self.workers
            .map_or_else(PoolConfig::default, PoolConfig::with_workers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::parse(args.iter().map(ToString::to_string))
    }

    #[test]
    fn empty_arguments_are_all_defaults() {
        assert_eq!(parse(&[]).unwrap(), BenchArgs::default());
    }

    #[test]
    fn every_flag_round_trips() {
        let args = parse(&[
            "--events",
            "/tmp/e.jsonl",
            "--seed",
            "9",
            "--slots",
            "120",
            "--chains",
            "42",
            "--workers",
            "3",
        ])
        .unwrap();
        assert_eq!(args.events.as_deref(), Some("/tmp/e.jsonl"));
        assert_eq!(args.seed, Some(9));
        assert_eq!(args.slots, Some(120));
        assert_eq!(args.chains, Some(42));
        assert_eq!(args.workers, Some(3));
        assert_eq!(args.pool(), PoolConfig::with_workers(3));
    }

    #[test]
    fn unknown_flags_error_instead_of_being_ignored() {
        let err = parse(&["--seeds", "9"]).unwrap_err();
        assert!(err.contains("--seeds"), "{err}");
    }

    #[test]
    fn missing_or_malformed_values_error() {
        assert!(parse(&["--seed"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--slots", "many"])
            .unwrap_err()
            .contains("non-negative integer"));
    }

    #[test]
    fn default_pool_uses_available_parallelism() {
        assert_eq!(parse(&[]).unwrap().pool(), PoolConfig::default());
    }

    #[test]
    fn help_flag_parses() {
        assert!(parse(&["--help"]).unwrap().help);
        assert!(parse(&["-h"]).unwrap().help);
        assert!(!parse(&[]).unwrap().help);
    }

    #[test]
    fn usage_documents_every_flag() {
        for flag in ["--events", "--seed", "--slots", "--chains", "--workers"] {
            assert!(USAGE.contains(flag), "USAGE is missing {flag}");
        }
    }
}
