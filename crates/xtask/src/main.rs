//! CLI entry point for `cargo xtask`.

use neofog_xtask::baseline::{Baseline, BASELINE_FILE};
use neofog_xtask::bench_snapshot::{self, SNAPSHOT_FILE};
use neofog_xtask::rules::{self, Scope};
use neofog_xtask::{
    lint_workspace_unbaselined, lint_workspace_with, sarif, LintOptions, LintReport, Violation,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: cargo xtask <command>

commands:
  lint [--json | --sarif]   run the NEOFog static-analysis pass over the workspace
       [--update-baseline]  rewrite lint-baseline.json from the current findings
       [--explain NF-X-NNN] print one rule's summary, rationale and scope
       [--timings]          print per-pass timings (stderr)
       [--changed]          report findings only for files touched per git
  rules                     print the rule table with rationales
  bench-snapshot            run the slot_kernel bench and record BENCH_slot_kernel.json
       [--check]            compare against the checked-in snapshot instead of
                            rewriting it; fail on a >15% per-iteration regression
                            (cap the sweep via NEOFOG_SLOT_KERNEL_MAX_NODES)

exit status: 0 clean, 1 violations found, 2 usage / unknown rule / I/O error";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("lint") => {
            let mut json = false;
            let mut sarif_out = false;
            let mut update_baseline = false;
            let mut timings = false;
            let mut changed = false;
            let mut explain: Option<&str> = None;
            while let Some(flag) = it.next() {
                match flag {
                    "--json" => json = true,
                    "--sarif" => sarif_out = true,
                    "--update-baseline" => update_baseline = true,
                    "--timings" => timings = true,
                    "--changed" => changed = true,
                    "--explain" => {
                        let Some(id) = it.next() else {
                            eprintln!("--explain needs a rule id\n{USAGE}");
                            return ExitCode::from(2);
                        };
                        explain = Some(id);
                    }
                    other => {
                        eprintln!("unknown flag `{other}`\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            if let Some(id) = explain {
                return explain_rule(id);
            }
            if update_baseline {
                return run_update_baseline();
            }
            run_lint(json, sarif_out, timings, changed)
        }
        Some("rules") => {
            print_rules();
            ExitCode::SUCCESS
        }
        Some("bench-snapshot") => {
            let mut check = false;
            for flag in it {
                match flag {
                    "--check" => check = true,
                    other => {
                        eprintln!("unknown flag `{other}`\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            run_bench_snapshot(check)
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// The workspace root: the directory cargo ran the alias from, or the
/// manifest's grandparent when invoked directly.
fn workspace_root() -> PathBuf {
    // Under `cargo run` the process cwd is where cargo was invoked; the
    // alias is defined at the workspace root, so prefer cwd when it
    // looks like the workspace.
    if let Ok(cwd) = std::env::current_dir() {
        if cwd.join("crates").is_dir() && cwd.join("Cargo.toml").is_file() {
            return cwd;
        }
    }
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map_or(manifest.clone(), PathBuf::from)
}

/// `.rs` paths touched per git: `git diff --name-only HEAD` plus
/// untracked files. Returns `None` (with a message) when git is
/// unavailable — the caller falls back to a full run. Paths git
/// reports but that no longer exist on disk (deleted or renamed-away
/// files still in the diff) are skipped with a note: there is nothing
/// to re-lint at a path with no file, and handing it to the engine
/// would abort the whole run with a read error.
fn git_changed_paths(root: &Path) -> Option<Vec<String>> {
    let mut paths = Vec::new();
    for args in [
        &["diff", "--name-only", "HEAD"][..],
        &["ls-files", "--others", "--exclude-standard"][..],
    ] {
        let out = std::process::Command::new("git")
            .args(args)
            .current_dir(root)
            .output()
            .ok()?;
        if !out.status.success() {
            return None;
        }
        paths.extend(
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .filter(|l| l.ends_with(".rs"))
                .map(|l| l.trim().replace('\\', "/")),
        );
    }
    paths.sort();
    paths.dedup();
    retain_on_disk(root, &mut paths);
    Some(paths)
}

/// Drops paths with no file on disk, printing a note per skip. Split
/// from [`git_changed_paths`] so the deleted-path behaviour is
/// testable without a git checkout.
fn retain_on_disk(root: &Path, paths: &mut Vec<String>) {
    paths.retain(|p| {
        let exists = root.join(p).is_file();
        if !exists {
            eprintln!("xtask lint: skipping deleted path from git diff: {p}");
        }
        exists
    });
}

fn run_lint(json: bool, sarif_out: bool, timings: bool, changed: bool) -> ExitCode {
    let root = workspace_root();
    let mut opts = LintOptions {
        apply_baseline: true,
        changed_paths: None,
    };
    if changed {
        match git_changed_paths(&root) {
            Some(paths) => opts.changed_paths = Some(paths),
            None => {
                eprintln!("xtask lint: --changed needs git; running the full report");
            }
        }
    }
    let report = match lint_workspace_with(&root, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::from(2);
        }
    };
    if timings {
        let s = &report.stats;
        eprintln!("xtask lint timings:");
        eprintln!("  pass 1 (models + per-file rules): {} ms", s.pass1_ms);
        eprintln!("  pass 2 (call graph):              {} ms", s.pass2_ms);
        eprintln!("  pass 3 (transitive rules):        {} ms", s.pass3_ms);
    }
    if sarif_out {
        println!("{}", sarif::render(&report));
        for w in &report.warnings {
            eprintln!("warning: {w}");
        }
    } else if json {
        println!("{}", render_json(&report));
    } else {
        render_text(&report);
    }
    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn run_update_baseline() -> ExitCode {
    let root = workspace_root();
    let report = match lint_workspace_unbaselined(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::from(2);
        }
    };
    let baseline = Baseline::from_violations(&report.violations);
    let path = root.join(BASELINE_FILE);
    if let Err(e) = std::fs::write(&path, baseline.render()) {
        eprintln!("xtask lint: cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!(
        "xtask lint: wrote {} waiving {} finding(s); review the diff before committing",
        path.display(),
        baseline.total()
    );
    ExitCode::SUCCESS
}

/// Runs the `slot_kernel` bench in release mode and either records the
/// snapshot (merging with any checked-in entries the capped sweep
/// skipped) or, with `--check`, diffs the run against the snapshot.
fn run_bench_snapshot(check: bool) -> ExitCode {
    let root = workspace_root();
    eprintln!("xtask bench-snapshot: running `cargo bench -p neofog-bench --bench slot_kernel`");
    let out = match std::process::Command::new("cargo")
        .args(["bench", "-p", "neofog-bench", "--bench", "slot_kernel"])
        .current_dir(&root)
        .output()
    {
        Ok(out) => out,
        Err(e) => {
            eprintln!("xtask bench-snapshot: cannot run cargo: {e}");
            return ExitCode::from(2);
        }
    };
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        eprintln!("xtask bench-snapshot: bench run failed:");
        eprintln!("{}", String::from_utf8_lossy(&out.stderr));
        return ExitCode::from(2);
    }
    let measured = bench_snapshot::parse_bench_output(&stdout);
    if measured.is_empty() {
        eprintln!("xtask bench-snapshot: no slot_kernel lines in the bench output");
        return ExitCode::from(2);
    }
    for e in &measured {
        println!(
            "{}/{}: {} ns/iter ({} elem/s)",
            e.topo.segment(),
            e.nodes,
            e.per_iter_ns,
            e.elem_per_s
        );
    }
    let path = root.join(SNAPSHOT_FILE);
    let existing = std::fs::read_to_string(&path)
        .map(|text| bench_snapshot::parse_snapshot(&text))
        .unwrap_or_default();
    if check {
        let problems = bench_snapshot::regressions(&existing, &measured);
        if problems.is_empty() {
            println!(
                "xtask bench-snapshot: OK ({} point(s) within {:.0} % of {SNAPSHOT_FILE})",
                measured.len(),
                bench_snapshot::REGRESSION_TOLERANCE * 100.0
            );
            return ExitCode::SUCCESS;
        }
        for p in &problems {
            println!("regression: {p}");
        }
        ExitCode::from(1)
    } else {
        let merged = bench_snapshot::merge(&existing, &measured);
        if let Err(e) = std::fs::write(&path, bench_snapshot::render(&merged)) {
            eprintln!("xtask bench-snapshot: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "xtask bench-snapshot: wrote {} ({} point(s))",
            path.display(),
            merged.len()
        );
        ExitCode::SUCCESS
    }
}

fn explain_rule(id: &str) -> ExitCode {
    let Some(rule) = rules::rule_by_id(id) else {
        eprintln!(
            "unknown rule `{id}`; `cargo xtask rules` lists the {} known rules",
            rules::RULES.len()
        );
        return ExitCode::from(2);
    };
    println!("{}  [{}]", rule.id, scope_text(rule.scope));
    println!("  {}", rule.summary);
    println!("  why: {}", rule.rationale);
    ExitCode::SUCCESS
}

fn scope_text(scope: Scope) -> String {
    rules::scope_text(scope)
}

fn render_text(report: &LintReport) {
    for v in &report.violations {
        let summary = rules::rule_by_id(v.rule).map_or("", |r| r.summary);
        println!(
            "{}:{}: [{}] {} — {}",
            v.path, v.line, v.rule, v.message, summary
        );
        if v.chain.len() > 1 {
            println!("    via {}", v.chain.join(" → "));
        }
    }
    for w in &report.warnings {
        println!("warning: {w}");
    }
    if report.violations.is_empty() {
        println!(
            "xtask lint: OK ({} files, {} rules, {} baselined finding(s), {} warning(s))",
            report.files_checked,
            rules::RULES.len(),
            report.baselined,
            report.warnings.len()
        );
    } else {
        let files: std::collections::BTreeSet<&str> =
            report.violations.iter().map(|v| v.path.as_str()).collect();
        println!(
            "xtask lint: {} violation(s) in {} file(s) ({} files checked, {} baselined)",
            report.violations.len(),
            files.len(),
            report.files_checked,
            report.baselined
        );
    }
}

/// Hand-rolled JSON emitter (the workspace builds offline; no serde
/// JSON backend is available).
fn render_json(report: &LintReport) -> String {
    let mut s = String::from("{");
    s.push_str(&format!(
        "\"ok\":{},\"files_checked\":{},\"baselined\":{},\"violations\":[",
        report.violations.is_empty(),
        report.files_checked,
        report.baselined
    ));
    for (i, v) in report.violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&render_violation(v));
    }
    s.push_str("],\"warnings\":[");
    for (i, w) in report.warnings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&sarif::json_str(w));
    }
    s.push_str("]}");
    s
}

fn render_violation(v: &Violation) -> String {
    let chain = v
        .chain
        .iter()
        .map(|c| sarif::json_str(c))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"rule\":{},\"path\":{},\"line\":{},\"message\":{},\"chain\":[{}]}}",
        sarif::json_str(v.rule),
        sarif::json_str(&v.path),
        v.line,
        sarif::json_str(&v.message),
        chain
    )
}

fn print_rules() {
    for r in rules::RULES {
        println!(
            "{}  [{}]\n  {}\n  why: {}\n",
            r.id,
            scope_text(r.scope),
            r.summary,
            r.rationale
        );
    }
    println!("file exemptions:");
    for a in rules::FILE_ALLOWS {
        println!("  {}  {}  — {}", a.rule, a.path, a.reason);
    }
    println!("identifier exemptions:");
    for a in rules::IDENT_ALLOWS {
        println!("  {}  {}  — {}", a.rule, a.ident, a.reason);
    }
}

#[cfg(test)]
mod tests {
    use super::retain_on_disk;
    use std::path::Path;

    #[test]
    fn changed_path_filter_drops_deleted_files() {
        // A real source file survives; a path git might still report
        // after a delete/rename does not.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut paths = vec![
            "crates/xtask/src/main.rs".to_string(),
            "crates/xtask/src/no_such_file_anymore.rs".to_string(),
        ];
        retain_on_disk(&root, &mut paths);
        assert_eq!(paths, ["crates/xtask/src/main.rs"]);
    }
}
