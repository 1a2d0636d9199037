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
//! * `--help` — print the binary's flag reference and exit.
//!
//! Each binary names the [`Flag`]s it reads when it parses. A flag it
//! does not read is an error, like an unknown one, not a silent no-op:
//! `table2 --slots 10` or a typo like `--seeds` aborts the run instead
//! of regenerating the figure with the defaults.

// Library code must not panic: one panic aborts a whole fleet sweep.
// Tests are exempt (`clippy.toml`); DESIGN.md §10 has the waivers.
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use neofog_core::PoolConfig;

/// Prints the standard header for a figure/table binary.
pub fn banner(what: &str, paper_says: &str) {
    println!("================================================================");
    println!("NEOFog reproduction — {what}");
    println!("Paper reference: {paper_says}");
    println!("================================================================");
}

/// One flag of the shared vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--events <path>`.
    Events,
    /// `--seed <u64>`.
    Seed,
    /// `--slots <u64>`.
    Slots,
    /// `--chains <n>`.
    Chains,
    /// `--workers <n>`.
    Workers,
}

impl Flag {
    /// Every shared flag, in usage order.
    const ALL: [Flag; 5] = [
        Flag::Events,
        Flag::Seed,
        Flag::Slots,
        Flag::Chains,
        Flag::Workers,
    ];

    /// The flag as typed on the command line.
    fn name(self) -> &'static str {
        match self {
            Flag::Events => "--events",
            Flag::Seed => "--seed",
            Flag::Slots => "--slots",
            Flag::Chains => "--chains",
            Flag::Workers => "--workers",
        }
    }

    /// The flag's line in the usage text.
    fn help(self) -> &'static str {
        match self {
            Flag::Events => {
                "  --events <path>   stream a JSONL event log of one representative run"
            }
            Flag::Seed => "  --seed <u64>      override the binary's default base seed",
            Flag::Slots => "  --slots <u64>     override the simulated slot count",
            Flag::Chains => "  --chains <n>      fleet size in chains",
            Flag::Workers => {
                "  --workers <n>     worker threads for the simulation pool (default: all cores)"
            }
        }
    }
}

/// The `--help` text of a binary that reads the flags `reads`.
fn usage(reads: &[Flag]) -> String {
    let mut text = String::from("Flags:\n");
    for flag in Flag::ALL.iter().filter(|flag| reads.contains(flag)) {
        text.push_str(flag.help());
        text.push('\n');
    }
    text.push_str("  --help            print this reference and exit");
    text
}

/// The shared flags one binary reads.
///
/// Every field is `None` when the flag was absent, or is not one the
/// binary reads, so each binary can apply its own paper default (e.g.
/// Figure 9 seeds at 1, the ablation at 2) with
/// `args.seed.unwrap_or(...)`.
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
    /// `--help`: print the binary's usage text and exit (handled by
    /// [`BenchArgs::parse_or_exit`]).
    pub help: bool,
}

impl BenchArgs {
    /// Parses an argument iterator (without the program name) for a
    /// binary that reads the flags `reads`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when a flag is unknown or not
    /// in `reads`, is missing its value, or has a value that does not
    /// parse.
    pub fn parse<I>(args: I, reads: &[Flag]) -> Result<Self, String>
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
        while let Some(raw) = args.next() {
            if raw == "--help" || raw == "-h" {
                out.help = true;
                continue;
            }
            let Some(flag) = Flag::ALL.into_iter().find(|flag| flag.name() == raw) else {
                return Err(format!("unknown flag {raw:?}"));
            };
            if !reads.contains(&flag) {
                return Err(format!("this binary does not read {raw}"));
            }
            let value = value(&mut args, &raw)?;
            match flag {
                Flag::Events => out.events = Some(value),
                Flag::Seed => out.seed = Some(number(&value, &raw)?),
                Flag::Slots => out.slots = Some(number(&value, &raw)?),
                Flag::Chains => out.chains = Some(number(&value, &raw)?),
                Flag::Workers => out.workers = Some(number(&value, &raw)?),
            }
        }
        Ok(out)
    }

    /// Parses the process arguments for a binary that reads the flags
    /// `reads`, printing the error and that binary's usage text (its
    /// flags) and exiting with status 2 when they do not conform;
    /// `--help` prints the usage text and exits 0.
    #[must_use]
    pub fn parse_or_exit(reads: &[Flag]) -> Self {
        match Self::parse(std::env::args().skip(1), reads) {
            Ok(args) if args.help => {
                println!("{}", usage(reads));
                std::process::exit(0);
            }
            Ok(args) => args,
            Err(message) => {
                eprintln!("error: {message}");
                eprintln!("{}", usage(reads));
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
        BenchArgs::parse(args.iter().map(ToString::to_string), &Flag::ALL)
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
    fn flags_the_binary_does_not_read_error_instead_of_being_ignored() {
        let reads = [Flag::Events, Flag::Workers];
        let parse = |args: &[&str]| BenchArgs::parse(args.iter().map(ToString::to_string), &reads);
        for flag in [Flag::Seed, Flag::Slots, Flag::Chains] {
            let err = parse(&[flag.name(), "9"]).unwrap_err();
            assert!(err.contains(flag.name()), "{err}");
            assert!(!usage(&reads).contains(flag.name()));
        }
        assert_eq!(parse(&["--workers", "2"]).unwrap().workers, Some(2));
        // A binary that reads nothing still answers `--help`.
        let none = BenchArgs::parse(["--help".to_string()], &[]).unwrap();
        assert!(none.help);
        assert!(BenchArgs::parse(["--events".to_string()], &[]).is_err());
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
    fn usage_documents_every_flag_read() {
        let text = usage(&Flag::ALL);
        for flag in Flag::ALL {
            assert!(
                text.contains(flag.name()),
                "usage is missing {}",
                flag.name()
            );
        }
        assert!(text.contains("--help"));
    }
}
