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
//! [`BALANCE_PINS`] add three runs through the balancer paths those
//! forest runs leave cold (Algorithm 1's DP, sleeping NVD4Q clones,
//! large tree-balancer pools). They were captured before the balance
//! phase began reusing its chain snapshot and queues across slots.
//!
//! The hash is taken over the log exactly as written. Debug and release
//! builds run the same ledger and emit the same events, so the pins
//! hold in both profiles.

use neofog_core::sim::{BalancerKind, SimConfig, Simulator};
use neofog_core::SystemKind;
use neofog_energy::Scenario;

fn quick(system: SystemKind) -> SimConfig {
    quick_in(system, Scenario::ForestIndependent)
}

fn quick_in(system: SystemKind, scenario: Scenario) -> SimConfig {
    let mut cfg = SimConfig::paper_default(system, scenario, 1);
    cfg.slots = 150;
    cfg
}

/// FNV-1a 64-bit, the same hash `Simulator::state_digest` uses: stable,
/// dependency-free, and sensitive to any byte-level drift.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The FNV-1a hash and line count of the event log of one run of
/// `cfg`. `tag` keeps concurrently written log files apart.
fn event_log_fingerprint(mut cfg: SimConfig, tag: &str) -> (u64, usize) {
    let dir = std::env::temp_dir();
    let path = dir.join(format!(
        "neofog-columns-golden-{}-{tag}.jsonl",
        std::process::id()
    ));
    cfg.events_path = Some(path.display().to_string());
    let _ = Simulator::new(cfg).expect("valid config").run();
    let log = std::fs::read(&path).expect("event log written");
    std::fs::remove_file(&path).ok();
    let lines = log.iter().filter(|&&b| b == b'\n').count();
    (fnv1a(&log), lines)
}

/// `(system, fnv1a-64 of the log, line count)`, captured from the
/// pre-refactor array-of-structs pipeline.
const LOG_PINS: &[(SystemKind, u64, usize)] = &[
    (SystemKind::NosVp, 0xf080_1bd0_c038_2f50, 10604),
    (SystemKind::NosNvp, 0x861d_7c4d_11db_1150, 13676),
    (SystemKind::FiosNeoFog, 0xaff3_042f_1251_b353, 12857),
];

#[test]
fn event_logs_match_pre_refactor_pins() {
    for &(system, pin_hash, pin_lines) in LOG_PINS {
        let (hash, lines) = event_log_fingerprint(quick(system), system.label());
        assert_eq!(
            (hash, lines),
            (pin_hash, pin_lines),
            "{}: event log drifted from the pre-refactor pin \
             (got hash {hash:#018x}, {lines} lines)",
            system.label()
        );
    }
}

/// One balance-path pin: a run through balancer code the forest pins
/// above leave cold.
struct BalancePin {
    /// What the case exercises (also its log-file tag).
    label: &'static str,
    system: SystemKind,
    scenario: Scenario,
    multiplex: u32,
    /// `None` keeps the system's default balancer.
    balancer: Option<BalancerKind>,
    hash: u64,
    lines: usize,
}

/// Seed 1 and 150 slots, as in [`LOG_PINS`]:
/// * FIOS on rainy mountain ×3 runs Algorithm 1's DP, and its sleeping
///   NVD4Q clones hold packages the balancer never sees;
/// * FIOS on forest under the tree balancer moves thousands of tasks
///   through segment pools of more than 20 tasks;
/// * NOS-NVP on the bridge is the paper's tree baseline under
///   dependent power.
const BALANCE_PINS: &[BalancePin] = &[
    BalancePin {
        label: "fios-rainy-mux3-distributed",
        system: SystemKind::FiosNeoFog,
        scenario: Scenario::MountainRainy,
        multiplex: 3,
        balancer: None,
        hash: 0xdd26_2b69_c1a6_f5a4,
        lines: 21944,
    },
    BalancePin {
        label: "fios-forest-tree",
        system: SystemKind::FiosNeoFog,
        scenario: Scenario::ForestIndependent,
        multiplex: 1,
        balancer: Some(BalancerKind::Tree),
        hash: 0xd84f_ea80_c56f_be8e,
        lines: 13361,
    },
    BalancePin {
        label: "nos-nvp-bridge-tree",
        system: SystemKind::NosNvp,
        scenario: Scenario::BridgeDependent,
        multiplex: 1,
        balancer: None,
        hash: 0x0fc9_fb09_4b7c_d941,
        lines: 13600,
    },
];

#[test]
fn balance_path_event_logs_match_pins() {
    for pin in BALANCE_PINS {
        let mut cfg = quick_in(pin.system, pin.scenario);
        cfg.multiplex = pin.multiplex;
        if let Some(balancer) = pin.balancer {
            cfg.balancer = balancer;
        }
        let (hash, lines) = event_log_fingerprint(cfg, pin.label);
        assert_eq!(
            (hash, lines),
            (pin.hash, pin.lines),
            "{}: event log drifted from its pin (got hash {hash:#018x}, {lines} lines)",
            pin.label
        );
    }
}
