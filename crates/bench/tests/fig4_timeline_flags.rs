//! `fig4_timeline` reads `--seed` and `--slots` only for its `--events`
//! run, so without `--events` it rejects them instead of printing the
//! flagless figure.

use std::process::{Command, Output};

fn fig4_timeline(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fig4_timeline"))
        .args(args)
        .output()
        .expect("fig4_timeline starts")
}

#[test]
fn seed_and_slots_without_events_exit_with_status_2() {
    for args in [
        &["--seed", "9"][..],
        &["--slots", "5"],
        &["--seed", "9", "--slots", "5"],
    ] {
        let out = fig4_timeline(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--events"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed the figure");
    }
}

#[test]
fn seed_and_slots_shape_the_events_run() {
    let path = std::env::temp_dir().join(format!("fig4_timeline_{}.jsonl", std::process::id()));
    let path_arg = path.to_str().expect("temp path is UTF-8");
    let out = fig4_timeline(&["--events", path_arg, "--seed", "9", "--slots", "5"]);
    let log = std::fs::read_to_string(&path).unwrap_or_default();
    let _ = std::fs::remove_file(&path);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("wrote 5 slots"));
    assert_eq!(log.matches("\"kind\":\"slot_began\"").count(), 5);
}

#[test]
fn no_flags_print_the_figure() {
    let out = fig4_timeline(&[]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("Figures 1 & 4"));
}
