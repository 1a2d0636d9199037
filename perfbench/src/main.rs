//! The NEOFog benchmark: end-to-end and per-layer metrics of three
//! workloads, with every result checked against a pinned digest.
//!
//! ```text
//! perfbench --workload <paper_repro|wide_chain|mesh_offload> --seed <n>
//!           --seconds <s> --trace <0|1> [--print-pin]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run,
//! `--trace 1` the per-layer metrics of a traced run. The last line of
//! standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. The exit code is non-zero when any check
//! failed. `--print-pin` prints one untraced pass's digest as a
//! `pins.txt` line instead. See README.md.

mod pins;
mod run;
mod stats;
mod trace;
mod workloads;

use run::Report;
use std::process::{Command, ExitCode, Stdio};
use workloads::Workload;

const USAGE: &str = "usage: perfbench --workload <paper_repro|wide_chain|mesh_offload> \
                     --seed <n> --seconds <s> --trace <0|1> [--print-pin]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_pin: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut print_pin) =
            (None, workloads::DEFAULT_SEED, 10.0, false, false);
        while let Some(flag) = args.next() {
            if flag == "--print-pin" {
                print_pin = true;
                continue;
            }
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
                }
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    seconds = value.parse::<f64>().map_err(|_| bad())?;
                    if !(seconds.is_finite() && seconds >= 0.0) {
                        return Err(format!("--seconds must be a non-negative number: {value}"));
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            print_pin,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!(
            "perfbench: refusing to measure a build with debug assertions: \
             Simulator::new attaches LedgerObserver there, so it would time a \
             different program (build with --release)"
        );
        return ExitCode::from(2);
    }
    if args.print_pin {
        return match run::pass_digest(args.workload, args.seed) {
            Ok(d) => {
                println!("{} {} {d:016x}", args.workload.name(), args.seed);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = if args.trace {
        run::per_layer(args.workload, args.seed, args.seconds)
    } else {
        run::end_to_end(args.workload, args.seed, args.seconds)
    };
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not a finite number", m.name);
        return ExitCode::FAILURE;
    }
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} (default seed {}, held-out seed {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workloads::DEFAULT_SEED,
        workloads::HELD_OUT_SEED
    );
    println!(
        "# env nproc={} git={} rustc=\"{}\"",
        std::thread::available_parallelism().map_or(0, std::num::NonZero::get),
        git_revision(),
        env!("PERFBENCH_RUSTC_VERSION")
    );
    for line in &report.lines {
        println!("# {line}");
    }
    for m in &report.metrics {
        println!("{:<38} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(&report));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The commit of the working directory, or `unknown` outside a git
/// checkout. Git is kept from searching parent directories.
fn git_revision() -> String {
    let cwd = std::env::current_dir().ok();
    let mut git = Command::new("git");
    git.args(["rev-parse", "--short=12", "HEAD"])
        .stdin(Stdio::null())
        .stderr(Stdio::null());
    if let Some(parent) = cwd.as_deref().and_then(std::path::Path::parent) {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    git.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |r| r.trim().to_string())
}

fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}
