//! Integration test: the energy model reproduces Table 2 of the paper
//! exactly (to the printed precision), spanning the workloads, rf and
//! nvp crates.

use neofog::nvp::SpendthriftPolicy;
use neofog::rf::RfTimings;
use neofog::workloads::app::energy_per_instruction;
use neofog::workloads::App;

#[test]
fn naive_energies_to_the_digit() {
    let expect_compute = [1366.86, 1153.68, 140.448, 1196.316, 4188.36];
    let expect_tx = [22_809.6, 5_702.4, 5_702.4, 17_107.2, 2_851.2];
    for ((app, c), t) in App::ALL.iter().zip(expect_compute).zip(expect_tx) {
        let row = app.energy_row();
        assert!(
            (row.naive_compute.as_nanojoules() - c).abs() < 1e-6,
            "{app:?} compute"
        );
        assert!(
            (row.naive_tx.as_nanojoules() - t).abs() < 1e-6,
            "{app:?} tx"
        );
    }
}

#[test]
fn tx_energy_column_is_radio_airtime() {
    // The Table 2 TX column equals the rf crate's on-air model:
    // payload bytes x 2851.2 nJ.
    let rf = RfTimings::paper_default();
    for app in App::ALL {
        let row = app.energy_row();
        let air = rf.on_air_energy(app.payload_bytes());
        assert!(
            (row.naive_tx.as_nanojoules() - air.as_nanojoules()).abs() < 1e-9,
            "{app:?}"
        );
    }
}

#[test]
fn savings_match_paper_within_rounding() {
    let expect = [-55.2, -48.8, -57.1, -54.9, -24.1];
    for (app, pct) in App::ALL.iter().zip(expect) {
        let row = app.energy_row();
        let got = row.energy_saved_ratio * 100.0;
        assert!(
            (got - pct).abs() < 0.15,
            "{app:?}: {got:.2}% vs paper {pct}%"
        );
    }
}

#[test]
fn compute_ratios_match_paper() {
    let naive = [5.65, 16.8, 2.4, 6.53, 59.5];
    let buffered = [92.2, 94.1, 91.5, 92.7, 98.5];
    for ((app, n), b) in App::ALL.iter().zip(naive).zip(buffered) {
        let row = app.energy_row();
        assert!(
            (row.naive_compute_ratio * 100.0 - n).abs() < 0.1,
            "{app:?} naive"
        );
        assert!(
            (row.buffered_compute_ratio * 100.0 - b).abs() < 0.1,
            "{app:?} buffered"
        );
    }
}

#[test]
fn compression_stays_in_the_paper_band() {
    // §5.1: "reduce the data size to 3% - 14.5% of its original".
    for app in App::ALL {
        let ratio = app.compression_ratio();
        assert!((0.028..=0.145).contains(&ratio), "{app:?}: {ratio}");
    }
}

#[test]
fn instruction_energy_comes_from_the_nvp_model() {
    // 2.508 nJ/inst = 0.209 mW x 12 cycles @ 1 MHz. The figures price
    // compute at the Spendthrift level's cost and Table 2 at the
    // workloads constant; both must be the same number, to the bit.
    let policy = SpendthriftPolicy::paper_default();
    let one_x = policy
        .levels()
        .iter()
        .find(|l| l.factor == 1.0)
        .expect("the paper table has a 1x level");
    assert_eq!(
        one_x.energy_per_inst.as_nanojoules().to_bits(),
        energy_per_instruction().as_nanojoules().to_bits(),
        "Spendthrift 1x: {:?}, Table 2: {:?}",
        one_x.energy_per_inst,
        energy_per_instruction()
    );
}
