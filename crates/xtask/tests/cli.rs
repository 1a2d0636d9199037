//! The `cargo xtask` command line: dispatch and the exit-code contract
//! (0 clean, 1 violations, 2 usage error).

use neofog_xtask::rules::RULES;
use std::process::{Command, Output};

fn xtask(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_neofog-xtask"))
        .args(args)
        .output()
        .expect("the xtask binary runs")
}

#[test]
fn rules_lists_every_rule_and_exits_zero() {
    let out = xtask(&["rules"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in RULES {
        assert!(stdout.contains(rule.id), "`rules` omits {}", rule.id);
    }
}

#[test]
fn usage_errors_exit_two_with_the_usage_text() {
    for args in [&["bench-snapshot"][..], &["lint", "--json"], &[]] {
        let out = xtask(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: cargo xtask <command>"),
            "args {args:?}: stderr was {stderr}"
        );
    }
}
