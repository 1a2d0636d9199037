//! Event-log goldens for the struct-of-arrays slot kernel.
//!
//! The columnar refactor (`NodeColumns`) rewrote every phase's
//! iteration substrate; these pins assert the refactor is invisible at
//! the event level: the JSONL event log of a paper-default run is
//! **bit-identical** to the log the array-of-structs pipeline wrote,
//! for every [`SystemKind`]. The hashes were captured from the
//! pre-refactor pipeline at the same configuration as the
//! `sim_events.rs` goldens (forest scenario, seed 1, 150 slots).
//!
//! `ledger_settled` events exist only in debug builds (the release
//! ledger is a no-op), so the hash is taken over the log with those
//! lines stripped — the pins then hold in both profiles.

use neofog_core::sim::{SimConfig, Simulator};
use neofog_core::SystemKind;
use neofog_energy::Scenario;

fn quick(system: SystemKind) -> SimConfig {
    let mut cfg = SimConfig::paper_default(system, Scenario::ForestIndependent, 1);
    cfg.slots = 150;
    cfg
}

/// FNV-1a 64-bit, the same hash the xtask model cache uses: stable,
/// dependency-free, and sensitive to any byte-level drift.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The event log of one run, with the debug-only `ledger_settled`
/// lines stripped so debug and release hash identically.
fn event_log_fingerprint(system: SystemKind) -> (u64, usize) {
    let dir = std::env::temp_dir();
    let path = dir.join(format!(
        "neofog-columns-golden-{}-{}.jsonl",
        std::process::id(),
        system.label()
    ));
    let mut cfg = quick(system);
    cfg.events_path = Some(path.display().to_string());
    let _ = Simulator::new(cfg).expect("valid config").run();
    let text = std::fs::read_to_string(&path).expect("event log written");
    std::fs::remove_file(&path).ok();
    let mut filtered = String::with_capacity(text.len());
    let mut lines = 0usize;
    for line in text.lines() {
        if line.contains("\"kind\":\"ledger_settled\"") {
            continue;
        }
        filtered.push_str(line);
        filtered.push('\n');
        lines += 1;
    }
    (fnv1a(filtered.as_bytes()), lines)
}

/// `(system, fnv1a-64 of the filtered log, filtered line count)`,
/// captured from the pre-refactor array-of-structs pipeline.
const LOG_PINS: &[(SystemKind, u64, usize)] = &[
    (SystemKind::NosVp, 0xf080_1bd0_c038_2f50, 10604),
    (SystemKind::NosNvp, 0x861d_7c4d_11db_1150, 13676),
    (SystemKind::FiosNeoFog, 0xaff3_042f_1251_b353, 12857),
];

#[test]
fn event_logs_match_pre_refactor_pins() {
    for &(system, pin_hash, pin_lines) in LOG_PINS {
        let (hash, lines) = event_log_fingerprint(system);
        assert_eq!(
            (hash, lines),
            (pin_hash, pin_lines),
            "{}: event log drifted from the pre-refactor pin \
             (got hash {hash:#018x}, {lines} lines)",
            system.label()
        );
    }
}
